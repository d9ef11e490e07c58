//! Full binary snapshots of a store.
//!
//! A snapshot captures the string dictionary, the entity dictionary, and
//! every partition exactly as it is stored — its sealed segments, then its
//! novelty overlay; loading one reconstructs an equivalent store (same ids,
//! same layout, same scan results) without re-running ingestion. A snapshot
//! does not record the WAL position it covers:
//! [`crate::recovery::load_or_recover`] returns an intact snapshot alone
//! and replays no WAL written after it, so a caller that keeps logging
//! after a snapshot replays that tail itself (as `tests/persistence.rs`'s
//! `checkpoint_plus_log_recovery` does).

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use aiql_model::{
    AgentId, EntityAttrs, EntityId, Event, EventId, FileAttrs, IpV4, NetConnAttrs, Operation,
    ProcessAttrs, Protocol, Symbol, Timestamp,
};

use crate::codec::{self, CodecError, Put};
use crate::segment::PartitionKey;
use crate::store::{EventStore, StoreConfig};
use crate::wal::WalError;

/// The one format read and written: the store config, the string and
/// entity dictionaries, then every partition in ascending key order — its
/// agent and bucket, its sealed segments (each a row count and its rows),
/// and its overlay's row count and rows. A row is an event without its
/// agent, which the partition key supplies. Other `AQS<n>` magics are
/// refused with [`WalError::UnsupportedVersion`].
const MAGIC: &[u8; 4] = b"AQS6";

/// Bytes of the shortest row [`encode_row`] writes (a one-byte amount):
/// what a row count may claim of the remaining body.
const MIN_ROW_BYTES: usize = 34;

/// Writes a snapshot of `store` to `path`.
pub fn save(store: &EventStore, path: &Path) -> Result<(), WalError> {
    let mut buf = Vec::with_capacity(1 << 20);
    // Config (so the loaded hypertable buckets identically).
    let cfg = store.config();
    buf.put_i64_le(cfg.time_bucket.micros());
    buf.put_u8(u8::from(cfg.dedup));
    codec::put_varint(&mut buf, cfg.batch_size as u64);
    // Write-path policy: the novelty-overlay threshold and the
    // background-compaction toggle, so a reloaded store keeps absorbing
    // ingest the way it was configured to.
    codec::put_varint(&mut buf, cfg.novelty_flush_rows as u64);
    buf.put_u8(u8::from(cfg.background_compaction));
    // String dictionary, in symbol order.
    let interner = store.interner();
    codec::put_varint(&mut buf, interner.len() as u64);
    for (_, s) in interner.iter() {
        codec::put_str(&mut buf, s);
    }
    // Entity dictionary, in id order.
    codec::put_varint(&mut buf, store.entities().len() as u64);
    for entity in store.entities().iter() {
        buf.put_u32_le(entity.agent.raw());
        encode_attrs(&mut buf, &entity.attrs);
    }
    // Partitions as they lie: the sealed segments in commit order, then
    // the overlay (serialized, never force-flushed by persistence).
    let partitions = store.partitions();
    codec::put_varint(&mut buf, partitions.len() as u64);
    for (key, part) in partitions {
        buf.put_u32_le(key.agent.raw());
        buf.put_i64_le(key.bucket);
        codec::put_varint(&mut buf, part.segments().len() as u64);
        for seg in part
            .segments()
            .iter()
            .map(AsRef::as_ref)
            .chain([part.novelty()])
        {
            codec::put_varint(&mut buf, seg.len() as u64);
            for row in 0..seg.len() {
                encode_row(&mut buf, &seg.event_at(key.agent, row));
            }
        }
    }

    let crc = codec::crc32(&buf);
    let mut file = BufWriter::new(File::create(path)?);
    file.write_all(MAGIC)?;
    file.write_all(&crc.to_le_bytes())?;
    file.write_all(&(buf.len() as u64).to_le_bytes())?;
    file.write_all(&buf)?;
    file.flush()?;
    Ok(())
}

/// Loads a snapshot into a fresh store.
///
/// Every corruption mode is an error, never an abort: a short header or
/// body, a length field larger than the file, a CRC mismatch, and any
/// decode failure or forbidden value inside a CRC-valid body all come back
/// as [`WalError`]/[`CodecError`] values; a snapshot of another format
/// version is [`WalError::UnsupportedVersion`]. Callers that also keep a
/// WAL can recover through [`crate::recovery::load_or_recover`] instead of
/// failing.
pub fn load(path: &Path) -> Result<EventStore, WalError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut header = [0u8; 16];
    if reader.read_exact(&mut header).is_err() {
        // Too short to even hold the header: not a snapshot.
        return Err(WalError::BadHeader);
    }
    let magic = [header[0], header[1], header[2], header[3]];
    if &magic != MAGIC {
        return Err(WalError::for_magic(magic, MAGIC));
    }
    let stored_crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let len64 = u64::from_le_bytes([
        header[8], header[9], header[10], header[11], header[12], header[13], header[14],
        header[15],
    ]);
    // A truncated file whose length field survived would otherwise drive a
    // huge allocation before the read even fails — bound it by the file.
    if len64 > file_len.saturating_sub(16) {
        return Err(WalError::Codec(CodecError::UnexpectedEof));
    }
    let len = len64 as usize;
    let mut body = vec![0u8; len];
    if reader.read_exact(&mut body).is_err() {
        return Err(WalError::Codec(CodecError::UnexpectedEof));
    }
    let crc = codec::crc32(&body);
    if crc != stored_crc {
        return Err(WalError::Codec(CodecError::CrcMismatch(stored_crc, crc)));
    }
    let mut buf = body.as_slice();

    let time_bucket = aiql_model::Duration(codec::get_i64(&mut buf)?);
    if time_bucket.micros() <= 0 {
        // Partition keys divide by the bucket width.
        return Err(CodecError::Invalid("time bucket is not positive").into());
    }
    // Fields are read in the order `save` wrote them.
    let mut store = EventStore::new(StoreConfig {
        time_bucket,
        dedup: codec::get_u8(&mut buf)? != 0,
        batch_size: codec::get_varint(&mut buf)? as usize,
        novelty_flush_rows: codec::get_varint(&mut buf)? as usize,
        background_compaction: codec::get_u8(&mut buf)? != 0,
    });

    // Dictionary: intern in order so symbols keep their ids. Every id a
    // later section carries is checked against what was loaded before it —
    // a repeated string or entity would silently shift every id after it,
    // an out-of-range one would panic at first use.
    let nstrings = codec::get_varint(&mut buf)?;
    for i in 0..nstrings {
        let s = codec::get_str(&mut buf)?;
        let sym = store.entities_mut().interner_mut().intern(&s);
        if u64::from(sym.raw()) != i {
            return Err(CodecError::Invalid("repeated dictionary string").into());
        }
    }
    // Entities: intern in id order so entity ids are preserved.
    let nentities = codec::get_varint(&mut buf)?;
    for i in 0..nentities {
        let agent = AgentId(codec::get_u32(&mut buf)?);
        let attrs = decode_attrs(&mut buf)?;
        let known = |s: Symbol| (s.raw() as usize) < store.interner().len();
        if !match attrs {
            EntityAttrs::Process(p) => known(p.exe_name) && known(p.user) && known(p.cmdline),
            EntityAttrs::File(f) => known(f.name) && known(f.owner),
            EntityAttrs::NetConn(_) => true,
        } {
            return Err(CodecError::Invalid("entity names a string past the dictionary").into());
        }
        let id = store.entities_mut().intern(agent, attrs);
        if u64::from(id.raw()) != i {
            return Err(CodecError::Invalid("repeated entity").into());
        }
    }
    // Partitions, each segment through the commit's own path: a sealed
    // segment seals as a commit at flush threshold 0 seals, the overlay
    // stays open.
    let entities = store.entities().len();
    let nparts = codec::get_varint(&mut buf)?;
    let mut last: Option<PartitionKey> = None;
    let mut rows: Vec<Event> = Vec::new();
    for _ in 0..nparts {
        let key = PartitionKey {
            agent: AgentId(codec::get_u32(&mut buf)?),
            bucket: codec::get_i64(&mut buf)?,
        };
        if last.is_some_and(|last| last >= key) {
            return Err(CodecError::Invalid("partition key is not ascending").into());
        }
        last = Some(key);
        let nsealed = codec::get_varint(&mut buf)?;
        let mut total = 0u64;
        // Segments `0..nsealed` are sealed; the last one is the overlay.
        for seg in 0..=nsealed {
            let n = codec::get_varint(&mut buf)?;
            let sealed = seg < nsealed;
            if sealed && n == 0 {
                return Err(CodecError::Invalid("sealed segment has no rows").into());
            }
            // Flat row indices are `u32`.
            total = total.saturating_add(n);
            if total > u64::from(u32::MAX) {
                return Err(CodecError::Invalid("partition rows overflow u32").into());
            }
            rows.clear();
            rows.reserve((n as usize).min(buf.len() / MIN_ROW_BYTES));
            for _ in 0..n {
                let event = decode_row(&mut buf, key.agent)?;
                if event.subject.index().max(event.object.index()) >= entities {
                    return Err(
                        CodecError::Invalid("event names an entity past the dictionary").into(),
                    );
                }
                // The store's next id is one past the largest loaded.
                if event.id.raw() == u64::MAX {
                    return Err(CodecError::Invalid("event id leaves no next id").into());
                }
                if PartitionKey::for_event(key.agent, event.start_time, time_bucket.micros()) != key
                {
                    return Err(
                        CodecError::Invalid("event start time is outside its partition").into(),
                    );
                }
                rows.push(event);
            }
            store.load_segment(key, &rows, sealed);
        }
        if total == 0 {
            return Err(CodecError::Invalid("partition has no rows").into());
        }
    }
    Ok(store)
}

fn encode_attrs(buf: &mut Vec<u8>, attrs: &EntityAttrs) {
    match attrs {
        EntityAttrs::Process(p) => {
            buf.put_u8(0);
            buf.put_u32_le(p.pid);
            buf.put_u32_le(p.exe_name.raw());
            buf.put_u32_le(p.user.raw());
            buf.put_u32_le(p.cmdline.raw());
        }
        EntityAttrs::File(f) => {
            buf.put_u8(1);
            buf.put_u32_le(f.name.raw());
            buf.put_u32_le(f.owner.raw());
        }
        EntityAttrs::NetConn(n) => {
            buf.put_u8(2);
            buf.put_u32_le(n.src_ip.0);
            buf.put_u16_le(n.src_port);
            buf.put_u32_le(n.dst_ip.0);
            buf.put_u16_le(n.dst_port);
            buf.put_u8(match n.protocol {
                Protocol::Tcp => 0,
                Protocol::Udp => 1,
            });
        }
    }
}

fn decode_attrs(buf: &mut &[u8]) -> Result<EntityAttrs, CodecError> {
    Ok(match codec::get_u8(buf)? {
        0 => EntityAttrs::Process(ProcessAttrs {
            pid: codec::get_u32(buf)?,
            exe_name: Symbol(codec::get_u32(buf)?),
            user: Symbol(codec::get_u32(buf)?),
            cmdline: Symbol(codec::get_u32(buf)?),
        }),
        1 => EntityAttrs::File(FileAttrs {
            name: Symbol(codec::get_u32(buf)?),
            owner: Symbol(codec::get_u32(buf)?),
        }),
        2 => EntityAttrs::NetConn(NetConnAttrs {
            src_ip: IpV4(codec::get_u32(buf)?),
            src_port: codec::get_u16(buf)?,
            dst_ip: IpV4(codec::get_u32(buf)?),
            dst_port: codec::get_u16(buf)?,
            protocol: match codec::get_u8(buf)? {
                0 => Protocol::Tcp,
                1 => Protocol::Udp,
                _ => return Err(CodecError::Invalid("protocol")),
            },
        }),
        _ => return Err(CodecError::Invalid("entity kind")),
    })
}

fn encode_row(buf: &mut Vec<u8>, e: &Event) {
    buf.put_u64_le(e.id.raw());
    buf.put_u8(e.op.index() as u8);
    buf.put_u32_le(e.subject.raw());
    buf.put_u32_le(e.object.raw());
    buf.put_i64_le(e.start_time.micros());
    buf.put_i64_le(e.end_time.micros());
    codec::put_varint(buf, e.amount);
}

fn decode_row(buf: &mut &[u8], agent: AgentId) -> Result<Event, CodecError> {
    Ok(Event {
        id: EventId(codec::get_u64(buf)?),
        agent,
        op: Operation::from_index(codec::get_u8(buf)? as usize)
            .ok_or(CodecError::Invalid("operation"))?,
        subject: EntityId(codec::get_u32(buf)?),
        object: EntityId(codec::get_u32(buf)?),
        start_time: Timestamp(codec::get_i64(buf)?),
        end_time: Timestamp(codec::get_i64(buf)?),
        amount: codec::get_varint(buf)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::EventFilter;
    use crate::ingest::{EntitySpec, RawEvent};

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("aiql-snap-test-{}-{}", std::process::id(), name));
        p
    }

    fn populated_store() -> EventStore {
        let mut store = EventStore::default();
        let mut raws = Vec::new();
        for i in 0..50 {
            raws.push(RawEvent::instant(
                AgentId((i % 4) as u32),
                if i % 3 == 0 {
                    Operation::Read
                } else {
                    Operation::Write
                },
                EntitySpec::process(100 + i as u32, &format!("exe{}", i % 5), "alice"),
                EntitySpec::file(&format!("/data/f{}", i % 9), "alice"),
                Timestamp::from_secs(i * 60),
                i as u64 * 10,
            ));
        }
        store.ingest_all(&raws);
        store
    }

    #[test]
    fn snapshot_roundtrip_preserves_scans() {
        let store = populated_store();
        let path = tmpfile("roundtrip");
        save(&store, &path).unwrap();
        let loaded = load(&path).unwrap();
        let mut before = store.scan_collect(&EventFilter::all());
        let mut after = loaded.scan_collect(&EventFilter::all());
        before.sort_by_key(|e| e.id);
        after.sort_by_key(|e| e.id);
        assert_eq!(before, after);
        assert_eq!(store.entities().len(), loaded.entities().len());
        assert_eq!(store.interner().len(), loaded.interner().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_preserves_entity_attributes() {
        let store = populated_store();
        let path = tmpfile("attrs");
        save(&store, &path).unwrap();
        let loaded = load(&path).unwrap();
        for (a, b) in store.entities().iter().zip(loaded.entities().iter()) {
            assert_eq!(a, b);
        }
        std::fs::remove_file(&path).ok();
    }

    /// A published snapshot reads a base and a delta; saving it writes one
    /// id-ordered dictionary, and the loaded store owns its base, so it
    /// reads one layer.
    #[test]
    fn layered_dictionary_loads_into_one_layer() {
        let shared = crate::SharedStore::new(populated_store());
        shared.write(|s| {
            s.ingest_all(&[RawEvent::instant(
                AgentId(9),
                Operation::Read,
                EntitySpec::process(1, "late.exe", "bob"),
                EntitySpec::file("/late", "bob"),
                Timestamp::from_secs(7),
                1,
            )]);
        });
        let snap = shared.snapshot();
        assert_eq!(snap.entities().delta_len(), 2);
        let path = tmpfile("layered");
        save(&snap, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.entities().delta_len(), 0);
        assert!(loaded.entities().iter().eq(snap.entities().iter()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_roundtrips_fragmented_and_compacted_layouts() {
        let mk = |compact: bool| {
            // Nothing drains a bare store's deferred merges: one sealed
            // segment per commit.
            let mut store = EventStore::new(StoreConfig {
                batch_size: 8,
                background_compaction: true,
                dedup: false,
                ..StoreConfig::default()
            });
            let raws: Vec<RawEvent> = (0..64)
                .map(|i| {
                    RawEvent::instant(
                        AgentId((i % 2) as u32),
                        Operation::Write,
                        EntitySpec::process(1, "w.exe", "u"),
                        EntitySpec::file(&format!("/f{}", i % 5), "u"),
                        Timestamp::from_secs(i * 120),
                        1,
                    )
                })
                .collect();
            store.ingest_all(&raws);
            if compact {
                store.compact();
            }
            store
        };
        for compact in [false, true] {
            let store = mk(compact);
            let path = tmpfile(if compact {
                "layout-dense"
            } else {
                "layout-frag"
            });
            save(&store, &path).unwrap();
            let loaded = load(&path).unwrap();
            assert_eq!(
                store.segment_layouts(),
                loaded.segment_layouts(),
                "compact={compact}: physical layout must round-trip"
            );
            assert_eq!(
                store.config().background_compaction,
                loaded.config().background_compaction
            );
            assert_eq!(
                store.scan_collect(&EventFilter::all()),
                loaded.scan_collect(&EventFilter::all())
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn snapshot_roundtrips_novelty_overlay_state() {
        // A store saved mid-overlay (residual unsealed rows) must reload
        // with the exact same sealed/overlay split — persistence serializes
        // the overlay instead of flushing it.
        let mut store = EventStore::new(StoreConfig {
            batch_size: 8,
            background_compaction: true,
            dedup: false,
            novelty_flush_rows: 10,
            ..StoreConfig::default()
        });
        let raws: Vec<RawEvent> = (0..100)
            .map(|i| {
                RawEvent::instant(
                    AgentId((i % 2) as u32),
                    Operation::Write,
                    EntitySpec::process(1, "w.exe", "u"),
                    EntitySpec::file(&format!("/f{}", i % 5), "u"),
                    Timestamp::from_secs(i * 120),
                    1,
                )
            })
            .collect();
        store.ingest_all(&raws);
        let stats = store.stats();
        assert!(stats.novelty_events > 0, "test needs a residual overlay");
        assert!(stats.novelty_flushes > 0, "and at least one sealed flush");
        let path = tmpfile("novelty-roundtrip");
        save(&store, &path).unwrap();
        // Saving must not have flushed the live store's overlay.
        assert_eq!(store.stats().novelty_events, stats.novelty_events);
        let loaded = load(&path).unwrap();
        assert_eq!(store.segment_layouts(), loaded.segment_layouts());
        assert_eq!(store.novelty_lens(), loaded.novelty_lens());
        assert_eq!(
            loaded.config().novelty_flush_rows,
            10,
            "write-path config round-trips"
        );
        assert_eq!(
            store.scan_collect(&EventFilter::all()),
            loaded.scan_collect(&EventFilter::all())
        );
        // Flat selection vectors agree row for row across the reload.
        for key in store.partition_list() {
            assert_eq!(
                store.select_partition(key, &EventFilter::all()),
                loaded.select_partition(key, &EventFilter::all())
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// One write to agent `agent`'s first hour: the `i`-th file of a cycle
    /// of five, `i` half-minutes in, so no two writes dedup.
    fn write_raw(agent: u32, i: i64) -> RawEvent {
        RawEvent::instant(
            AgentId(agent),
            Operation::Write,
            EntitySpec::process(1, "w.exe", "u"),
            EntitySpec::file(&format!("/f{}", i % 5), "u"),
            Timestamp::from_secs(i * 30),
            1,
        )
    }

    /// A store holding one partition of each shape a snapshot carries, all
    /// built by 8-row commits under a 10-row overlay threshold (the overlay
    /// seals at every second commit, and a commit that leaves 4 sealed
    /// segments compacts): agent 0 has three sealed segments and an
    /// overlay, agent 1 one compacted segment, agent 2 an overlay only.
    fn mixed_shape_store() -> EventStore {
        let mut store = EventStore::new(StoreConfig {
            batch_size: 8,
            novelty_flush_rows: 10,
            ..StoreConfig::default()
        });
        for (agent, commits) in [(0, 7), (1, 8), (2, 1)] {
            for c in 0..commits {
                let raws: Vec<RawEvent> = (c * 8..c * 8 + 8).map(|i| write_raw(agent, i)).collect();
                store.ingest_all(&raws);
            }
        }
        store
    }

    #[test]
    fn ingest_after_load_matches_ingest_into_the_saved_store() {
        let mut store = mixed_shape_store();
        let shapes: Vec<(usize, usize)> = store
            .segment_layouts()
            .into_iter()
            .zip(store.novelty_lens())
            .map(|((_, lens), (_, overlay))| (lens.len(), overlay as usize))
            .collect();
        assert_eq!(shapes, [(3, 8), (1, 0), (0, 8)]);
        let path = tmpfile("ingest-after-load");
        save(&store, &path).unwrap();
        let mut loaded = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // One commit: three rows seal agent 0's overlay into a fourth
        // segment (the compaction trigger), two identical rows dedup into
        // agent 1's, two seal agent 2's, and one opens a new bucket.
        let mut batch = vec![write_raw(0, 56), write_raw(0, 57), write_raw(0, 58)];
        batch.extend([write_raw(1, 64), write_raw(1, 64)]);
        batch.extend([write_raw(2, 8), write_raw(2, 9), write_raw(2, 400)]);
        store.ingest_all(&batch);
        loaded.ingest_all(&batch);
        assert_eq!(
            store.scan_collect(&EventFilter::all()),
            loaded.scan_collect(&EventFilter::all())
        );
        assert_eq!(store.segment_layouts(), loaded.segment_layouts());
        assert_eq!(store.novelty_lens(), loaded.novelty_lens());
        assert_eq!(loaded.segment_layouts()[0].1, [59], "agent 0 compacted");
        assert_eq!(loaded.partition_list().len(), 4);
    }

    #[test]
    fn corrupted_snapshot_detected() {
        let store = populated_store();
        let path = tmpfile("corrupt");
        save(&store, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// One saved partition: agent, bucket, sealed segments, overlay.
    type Part<'a> = (u32, i64, &'a [&'a [Event]], &'a [Event]);

    /// A partition section holding `parts` in the order given, each written
    /// the way `save` writes a partition.
    fn partition_section(parts: &[Part]) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_varint(&mut buf, parts.len() as u64);
        for &(agent, bucket, sealed, overlay) in parts {
            buf.put_u32_le(agent);
            buf.put_i64_le(bucket);
            codec::put_varint(&mut buf, sealed.len() as u64);
            for seg in sealed.iter().copied().chain([overlay]) {
                codec::put_varint(&mut buf, seg.len() as u64);
                for e in seg {
                    encode_row(&mut buf, e);
                }
            }
        }
        buf
    }

    /// An entity section: the given entities, each on agent 1.
    fn entity_section(entities: &[EntityAttrs]) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_varint(&mut buf, entities.len() as u64);
        for attrs in entities {
            buf.put_u32_le(1); // agent
            encode_attrs(&mut buf, attrs);
        }
        buf
    }

    /// A snapshot file around a hand-built body: default config behind the
    /// given bucket width, the given dictionary, then the given entity and
    /// partition sections, magic + CRC + length stamped the way `save`
    /// does — so only the body's *values* can be wrong.
    fn crafted_body(
        name: &str,
        time_bucket: i64,
        strings: &[&str],
        entities: &[u8],
        partitions: &[u8],
    ) -> std::path::PathBuf {
        let mut buf = Vec::new();
        buf.put_i64_le(time_bucket);
        buf.put_u8(1); // dedup
        codec::put_varint(&mut buf, 8192); // batch_size
        codec::put_varint(&mut buf, 0); // novelty_flush_rows
        buf.put_u8(0); // background_compaction
        codec::put_varint(&mut buf, strings.len() as u64);
        for s in strings {
            codec::put_str(&mut buf, s);
        }
        buf.extend_from_slice(entities);
        buf.extend_from_slice(partitions);
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&codec::crc32(&buf).to_le_bytes());
        bytes.extend_from_slice(&(buf.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&buf);
        let path = tmpfile(name);
        std::fs::write(&path, &bytes).unwrap();
        path
    }

    /// [`crafted_body`] with the given entities and every event in the
    /// overlay of agent 1's first bucket.
    fn crafted(
        name: &str,
        time_bucket: i64,
        strings: &[&str],
        entities: &[EntityAttrs],
        events: &[Event],
    ) -> std::path::PathBuf {
        crafted_body(
            name,
            time_bucket,
            strings,
            &entity_section(entities),
            &partition_section(&[(1, 0, &[], events)]),
        )
    }

    const HOUR: i64 = 3_600_000_000;

    fn file(name: u32) -> EntityAttrs {
        EntityAttrs::File(FileAttrs {
            name: Symbol(name),
            owner: Symbol(0),
        })
    }

    fn write_event(subject: u32, object: u32) -> Event {
        Event {
            id: EventId(0),
            agent: AgentId(1),
            op: Operation::Write,
            subject: EntityId(subject),
            object: EntityId(object),
            start_time: Timestamp(5),
            end_time: Timestamp(5),
            amount: 1,
        }
    }

    fn load_is_invalid(path: &Path) -> bool {
        invalid_field(path).is_some()
    }

    /// The field a load of `path` names as [`CodecError::Invalid`], if it
    /// fails that way; the file is removed.
    fn invalid_field(path: &Path) -> Option<&'static str> {
        let r = load(path);
        std::fs::remove_file(path).ok();
        match r {
            Err(WalError::Codec(CodecError::Invalid(field))) => Some(field),
            _ => None,
        }
    }

    #[test]
    fn crafted_body_with_honest_values_loads() {
        // The control for the three tests below: the same builder, nothing
        // forbidden in it.
        let path = crafted(
            "crafted-ok",
            HOUR,
            &["", "/a", "/b"],
            &[file(1), file(2)],
            &[write_event(0, 1)],
        );
        let loaded = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.event_count(), 1);
        assert_eq!(loaded.entities().len(), 2);
    }

    #[test]
    fn zero_time_bucket_is_an_error_not_a_division_panic() {
        let entities = [file(1), file(2)];
        for bucket in [0, -HOUR] {
            let path = crafted(
                "bucket",
                bucket,
                &["", "/a", "/b"],
                &entities,
                &[write_event(0, 1)],
            );
            assert!(load_is_invalid(&path), "bucket {bucket}");
        }
    }

    #[test]
    fn event_naming_an_unknown_entity_is_an_error_at_load() {
        let entities = [file(1), file(2)];
        for (subject, object) in [(2, 1), (0, 7)] {
            let path = crafted(
                "dangling-entity",
                HOUR,
                &["", "/a", "/b"],
                &entities,
                &[write_event(subject, object)],
            );
            assert!(load_is_invalid(&path), "event {subject} -> {object}");
        }
    }

    #[test]
    fn event_id_u64_max_is_an_error_not_an_overflow() {
        // A load sets the next id to one past the largest loaded id.
        let load_with_id = |id: u64| {
            let event = Event {
                id: EventId(id),
                ..write_event(0, 1)
            };
            crafted(
                "max-id",
                HOUR,
                &["", "/a", "/b"],
                &[file(1), file(2)],
                &[event],
            )
        };
        assert!(load_is_invalid(&load_with_id(u64::MAX)));
        let path = load_with_id(u64::MAX - 1);
        let loaded = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.event_count(), 1);
    }

    #[test]
    fn repeated_or_dangling_dictionary_entries_are_errors() {
        // A repeated entity (or string) would re-intern to the first id and
        // shift every id after it; a string id past the dictionary would
        // panic when the entity's name is indexed.
        let event = [write_event(0, 1)];
        let repeated_entity = crafted(
            "dup-entity",
            HOUR,
            &["", "/a", "/b"],
            &[file(1), file(1), file(2)],
            &event,
        );
        assert!(load_is_invalid(&repeated_entity));
        let repeated_string = crafted(
            "dup-string",
            HOUR,
            &["", "/a", "/a", "/b"],
            &[file(1), file(3)],
            &event,
        );
        assert!(load_is_invalid(&repeated_string));
        let dangling_string = crafted(
            "dangling-string",
            HOUR,
            &["", "/a"],
            &[file(1), file(9)],
            &event,
        );
        assert!(load_is_invalid(&dangling_string));
    }

    #[test]
    fn forbidden_tags_are_invalid_fields() {
        let strings = ["", "/a", "/b"];
        let udp = EntityAttrs::NetConn(NetConnAttrs {
            src_ip: IpV4(1),
            src_port: 1,
            dst_ip: IpV4(2),
            dst_port: 2,
            protocol: Protocol::Udp,
        });
        let events = partition_section(&[(1, 0, &[], &[write_event(0, 1)])]);
        let entities = entity_section(&[file(1), udp]);
        // The control: every tag in range.
        let path = crafted_body("tags-ok", HOUR, &strings, &entities, &events);
        let loaded = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.entities().get(EntityId(1)).attrs, udp);
        // The first entity's kind tag follows the count and its agent.
        let mut kind = entities.clone();
        kind[5] = 3;
        let path = crafted_body("tag-kind", HOUR, &strings, &kind, &events);
        assert_eq!(invalid_field(&path), Some("entity kind"));
        // The connection's protocol is the section's last byte.
        let mut protocol = entities.clone();
        *protocol.last_mut().unwrap() = 2;
        let path = crafted_body("tag-protocol", HOUR, &strings, &protocol, &events);
        assert_eq!(invalid_field(&path), Some("protocol"));
        // The row is the section's last `MIN_ROW_BYTES` (a one-byte
        // amount); its operation follows the 8-byte id.
        let mut op = events.clone();
        let at = op.len() - MIN_ROW_BYTES + 8;
        op[at] = aiql_model::OPERATION_COUNT as u8;
        let path = crafted_body("tag-op", HOUR, &strings, &entities, &op);
        assert_eq!(invalid_field(&path), Some("operation"));
    }

    #[test]
    fn partitions_a_store_cannot_hold_are_invalid() {
        let entities = entity_section(&[file(1), file(2)]);
        let first = write_event(0, 1);
        let second = Event {
            id: EventId(1),
            ..first
        };
        let load_section = |name: &str, section: &[u8]| {
            crafted_body(name, HOUR, &["", "/a", "/b"], &entities, section)
        };
        // The control: a sealed segment and an overlay in each of two
        // ascending partitions.
        let path = load_section(
            "parts-ok",
            &partition_section(&[(1, 0, &[&[first]], &[second]), (2, 0, &[&[first]], &[])]),
        );
        let loaded = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.event_count(), 3);
        assert_eq!(
            loaded
                .novelty_lens()
                .iter()
                .map(|&(_, n)| n)
                .collect::<Vec<_>>(),
            [1, 0]
        );
        // A sealed segment's row count, one past what a partition holds.
        let mut overflow = partition_section(&[(1, 0, &[&[first]], &[])]);
        overflow.pop(); // the overlay's row count
        codec::put_varint(&mut overflow, u64::from(u32::MAX));
        let cases = [
            (
                partition_section(&[(1, 0, &[], &[first]), (1, 0, &[], &[second])]),
                "partition key is not ascending",
            ),
            (
                partition_section(&[(2, 0, &[], &[first]), (1, 0, &[], &[second])]),
                "partition key is not ascending",
            ),
            (
                partition_section(&[(1, 0, &[&[]], &[first])]),
                "sealed segment has no rows",
            ),
            (
                partition_section(&[(1, 0, &[], &[])]),
                "partition has no rows",
            ),
            (
                partition_section(&[(1, 1, &[], &[first])]),
                "event start time is outside its partition",
            ),
            (overflow, "partition rows overflow u32"),
        ];
        for (section, field) in cases {
            let path = load_section(field, &section);
            assert_eq!(invalid_field(&path), Some(field));
        }
    }

    #[test]
    fn other_snapshot_versions_are_refused() {
        // Same bytes, older magic: the body is never parsed.
        let path = tmpfile("old-magic");
        save(&populated_store(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        for magic in [b"AQS1", b"AQS2", b"AQS3", b"AQS4", b"AQS5"] {
            bytes[..4].copy_from_slice(magic);
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(
                    load(&path),
                    Err(WalError::UnsupportedVersion { found }) if &found == magic
                ),
                "{}",
                String::from_utf8_lossy(magic)
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_snapshot_file_rejected() {
        let path = tmpfile("notasnap");
        std::fs::write(&path, b"garbage data here").unwrap();
        assert!(matches!(load(&path), Err(WalError::BadHeader)));
        std::fs::remove_file(&path).ok();
    }
}
