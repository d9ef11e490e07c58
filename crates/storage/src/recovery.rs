//! Crash recovery: rebuild a store from its WAL, or from a snapshot with
//! WAL fallback.
//!
//! [`crate::snapshot`] captures a point-in-time store; the [`crate::wal`]
//! makes ingestion durable. [`recover`] rebuilds a store from the WAL alone
//! by re-ingesting each committed batch — because batch boundaries drive
//! segment sealing, the rebuilt store reproduces the physical layout (and
//! therefore every scan result, byte for byte) of a store that ingested the
//! same batches and never crashed. [`load_or_recover`] prefers the snapshot
//! but falls back to WAL replay of the whole log when the snapshot is
//! corrupt, so a damaged snapshot degrades to a slower restart instead of
//! data loss. The two do not compose into checkpoint + log: a snapshot
//! does not record the WAL position it covers, so [`load_or_recover`]
//! returns an intact snapshot alone and replays no WAL written after it. A
//! caller that keeps logging after a snapshot replays that tail itself (as
//! `tests/persistence.rs`'s `checkpoint_plus_log_recovery` does).

use std::path::Path;

use crate::snapshot;
use crate::store::{EventStore, StoreConfig};
use crate::wal::{ReplayReport, Wal, WalError};

/// How [`load_or_recover`] obtained the store.
#[derive(Debug)]
pub enum RecoverySource {
    /// The snapshot loaded cleanly.
    Snapshot,
    /// The snapshot was corrupt or unreadable; the store was rebuilt from
    /// the WAL. Carries the snapshot failure and the WAL replay report.
    WalFallback {
        snapshot_error: WalError,
        report: ReplayReport,
    },
}

impl RecoverySource {
    /// Whether the snapshot path failed and the WAL was used instead.
    pub fn fell_back(&self) -> bool {
        matches!(self, RecoverySource::WalFallback { .. })
    }
}

/// Rebuilds a store from a WAL by re-ingesting each committed batch in
/// commit order. Intact events past the last commit marker are dropped —
/// they were never acknowledged as committed — and a torn tail truncates
/// replay at the last whole record (see [`Wal::replay_report`]).
pub fn recover(
    config: StoreConfig,
    wal_path: &Path,
) -> Result<(EventStore, ReplayReport), WalError> {
    let report = Wal::replay_report(wal_path)?;
    let mut store = EventStore::new(config);
    for batch in &report.batches {
        store.ingest_all(batch);
    }
    Ok((store, report))
}

/// Loads the snapshot at `snapshot_path`, falling back to WAL replay of
/// `wal_path` if the snapshot is corrupt, truncated, or missing. An intact
/// snapshot is returned alone: no WAL written after it is replayed. Returns
/// the store plus where it came from so callers can log the degradation.
pub fn load_or_recover(
    snapshot_path: &Path,
    wal_path: &Path,
    config: StoreConfig,
) -> Result<(EventStore, RecoverySource), WalError> {
    match snapshot::load(snapshot_path) {
        Ok(store) => Ok((store, RecoverySource::Snapshot)),
        Err(snapshot_error) => {
            let (store, report) = recover(config, wal_path)?;
            Ok((
                store,
                RecoverySource::WalFallback {
                    snapshot_error,
                    report,
                },
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::EventFilter;
    use crate::ingest::{EntitySpec, RawEvent};
    use aiql_model::{AgentId, Operation, Timestamp};

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "aiql-recovery-test-{}-{}",
            std::process::id(),
            name
        ));
        p
    }

    fn batch(base: i64, n: i64) -> Vec<RawEvent> {
        (0..n)
            .map(|i| {
                RawEvent::instant(
                    AgentId(((base + i) % 3) as u32),
                    Operation::Write,
                    EntitySpec::process(10 + i as u32, &format!("p{}.exe", base + i), "svc"),
                    EntitySpec::file(&format!("/var/log/{}", (base + i) % 7), "svc"),
                    Timestamp::from_secs((base + i) * 30),
                    (base + i) as u64,
                )
            })
            .collect()
    }

    #[test]
    fn wal_recovery_matches_uncrashed_store() {
        let wal_path = tmpfile("rebuild");
        let mut wal = Wal::create(&wal_path).unwrap();
        let mut reference = EventStore::default();
        for b in 0..4 {
            let raws = batch(b * 10, 6);
            for e in &raws {
                wal.append(e).unwrap();
            }
            wal.commit().unwrap();
            reference.ingest_all(&raws);
        }
        drop(wal);
        let (recovered, report) = recover(StoreConfig::default(), &wal_path).unwrap();
        assert_eq!(report.batches.len(), 4);
        assert_eq!(
            recovered.scan_collect(&EventFilter::all()),
            reference.scan_collect(&EventFilter::all())
        );
        assert_eq!(recovered.segment_layouts(), reference.segment_layouts());
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_wal() {
        let wal_path = tmpfile("fb-wal");
        let snap_path = tmpfile("fb-snap");
        let mut wal = Wal::create(&wal_path).unwrap();
        let mut store = EventStore::default();
        let raws = batch(0, 12);
        for e in &raws {
            wal.append(e).unwrap();
        }
        wal.commit().unwrap();
        drop(wal);
        store.ingest_all(&raws);
        snapshot::save(&store, &snap_path).unwrap();
        // Corrupt the snapshot body.
        let mut bytes = std::fs::read(&snap_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap_path, &bytes).unwrap();

        let (loaded, source) =
            load_or_recover(&snap_path, &wal_path, StoreConfig::default()).unwrap();
        assert!(source.fell_back());
        assert_eq!(
            loaded.scan_collect(&EventFilter::all()),
            store.scan_collect(&EventFilter::all())
        );
        std::fs::remove_file(&wal_path).ok();
        std::fs::remove_file(&snap_path).ok();
    }

    #[test]
    fn unsupported_snapshot_version_falls_back_to_wal() {
        let wal_path = tmpfile("ver-wal");
        let snap_path = tmpfile("ver-snap");
        let mut wal = Wal::create(&wal_path).unwrap();
        let mut store = EventStore::default();
        let raws = batch(3, 9);
        for e in &raws {
            wal.append(e).unwrap();
        }
        wal.commit().unwrap();
        drop(wal);
        store.ingest_all(&raws);
        snapshot::save(&store, &snap_path).unwrap();
        // An intact snapshot under an older format's magic.
        let mut bytes = std::fs::read(&snap_path).unwrap();
        for magic in [b"AQS3", b"AQS4", b"AQS5"] {
            bytes[..4].copy_from_slice(magic);
            std::fs::write(&snap_path, &bytes).unwrap();
            let (loaded, source) =
                load_or_recover(&snap_path, &wal_path, StoreConfig::default()).unwrap();
            assert!(matches!(
                source,
                RecoverySource::WalFallback {
                    snapshot_error: WalError::UnsupportedVersion { found },
                    ..
                } if &found == magic
            ));
            assert_eq!(
                loaded.scan_collect(&EventFilter::all()),
                store.scan_collect(&EventFilter::all())
            );
        }
        std::fs::remove_file(&wal_path).ok();
        std::fs::remove_file(&snap_path).ok();
    }

    #[test]
    fn intact_snapshot_wins_over_wal() {
        let wal_path = tmpfile("pref-wal");
        let snap_path = tmpfile("pref-snap");
        let mut wal = Wal::create(&wal_path).unwrap();
        let mut store = EventStore::default();
        let raws = batch(5, 8);
        for e in &raws {
            wal.append(e).unwrap();
        }
        wal.commit().unwrap();
        drop(wal);
        store.ingest_all(&raws);
        snapshot::save(&store, &snap_path).unwrap();
        let (_, source) = load_or_recover(&snap_path, &wal_path, StoreConfig::default()).unwrap();
        assert!(!source.fell_back());
        std::fs::remove_file(&wal_path).ok();
        std::fs::remove_file(&snap_path).ok();
    }
}
