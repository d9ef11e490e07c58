//! Full binary snapshots of a store.
//!
//! A snapshot captures the string dictionary, the entity dictionary, and all
//! committed events; loading one reconstructs an equivalent store (same ids,
//! same scan results) without re-running ingestion. Together with the WAL
//! this gives the usual checkpoint + log persistence pair.

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

/// The one format read and written: the store config, string and entity
/// dictionaries, events, the epoch vector (store, dictionary, per
/// partition), the per-partition sealed segment layout, and the
/// novelty-overlay row counts — so a reloaded store reproduces the exact
/// sealed/overlay split (the overlay is serialized, never force-flushed by
/// persistence). Other `AQS<n>` magics, `AQS4` with its four retired
/// compaction and dedup fields included, are refused with
/// [`WalError::UnsupportedVersion`].
const MAGIC: &[u8; 4] = b"AQS5";

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
    // Events, partition by partition.
    let total: u64 = store.event_count();
    codec::put_varint(&mut buf, total);
    store.for_each_event(&mut |e| encode_event(&mut buf, e));
    // Epoch vector: store + dictionary epochs, then per-partition
    // epochs in partition order.
    codec::put_varint(&mut buf, store.epoch());
    codec::put_varint(&mut buf, store.dict_epoch());
    let epochs = store.partition_epochs();
    codec::put_varint(&mut buf, epochs.len() as u64);
    for (key, epoch) in epochs {
        buf.put_u32_le(key.agent.raw());
        buf.put_i64_le(key.bucket);
        codec::put_varint(&mut buf, epoch);
    }
    // Segment layout: per partition, the row count of each sealed
    // segment in commit order.
    let layouts = store.segment_layouts();
    codec::put_varint(&mut buf, layouts.len() as u64);
    for (key, lens) in layouts {
        buf.put_u32_le(key.agent.raw());
        buf.put_i64_le(key.bucket);
        codec::put_varint(&mut buf, lens.len() as u64);
        for len in lens {
            codec::put_varint(&mut buf, u64::from(len));
        }
    }
    // Novelty overlay: per partition, the rows still sitting in the
    // open overlay — serialized (the events already went out above), so a
    // save→load cycle reproduces the exact sealed/overlay split instead of
    // silently flushing the overlay.
    let novelty = store.novelty_lens();
    codec::put_varint(&mut buf, novelty.len() as u64);
    for (key, rows) in novelty {
        buf.put_u32_le(key.agent.raw());
        buf.put_i64_le(key.bucket);
        codec::put_varint(&mut buf, u64::from(rows));
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
    // Events.
    let nevents = codec::get_varint(&mut buf)?;
    for _ in 0..nevents {
        let event = decode_event(&mut buf)?;
        if event.subject.index().max(event.object.index()) >= store.entities().len() {
            return Err(CodecError::Invalid("event names an entity past the dictionary").into());
        }
        // The store's next id is one past the largest loaded.
        if event.id.raw() == u64::MAX {
            return Err(CodecError::Invalid("event id leaves no next id").into());
        }
        store.insert_committed(event);
    }
    // Epoch vector.
    let epoch = codec::get_varint(&mut buf)?;
    let dict_epoch = codec::get_varint(&mut buf)?;
    let nparts = codec::get_varint(&mut buf)?;
    // Capacity clamps: a corrupt count that slipped past the CRC must not
    // drive the allocation — each entry needs at least one byte, so the
    // remaining body length bounds any honest count.
    let mut epochs = Vec::with_capacity((nparts as usize).min(buf.len()));
    for _ in 0..nparts {
        let agent = AgentId(codec::get_u32(&mut buf)?);
        let bucket = codec::get_i64(&mut buf)?;
        let part_epoch = codec::get_varint(&mut buf)?;
        epochs.push((PartitionKey { agent, bucket }, part_epoch));
    }
    store.restore_epochs(epoch, dict_epoch, &epochs);
    // Segment layout, then the novelty-overlay rows: replay landed every
    // partition in one open overlay, and these re-split it.
    let nparts = codec::get_varint(&mut buf)?;
    let mut layouts = Vec::with_capacity((nparts as usize).min(buf.len()));
    for _ in 0..nparts {
        let agent = AgentId(codec::get_u32(&mut buf)?);
        let bucket = codec::get_i64(&mut buf)?;
        let nsegs = codec::get_varint(&mut buf)?;
        let mut lens = Vec::with_capacity((nsegs as usize).min(buf.len()));
        for _ in 0..nsegs {
            lens.push(codec::get_varint(&mut buf)? as u32);
        }
        layouts.push((PartitionKey { agent, bucket }, lens));
    }
    let nparts = codec::get_varint(&mut buf)?;
    let mut novelty = Vec::with_capacity((nparts as usize).min(buf.len()));
    for _ in 0..nparts {
        let agent = AgentId(codec::get_u32(&mut buf)?);
        let bucket = codec::get_i64(&mut buf)?;
        let rows = codec::get_varint(&mut buf)? as u32;
        novelty.push((PartitionKey { agent, bucket }, rows));
    }
    store.restore_layout(&layouts, &novelty);
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
                _ => Protocol::Udp,
            },
        }),
        _ => return Err(CodecError::BadMagic),
    })
}

fn encode_event(buf: &mut Vec<u8>, e: &Event) {
    buf.put_u64_le(e.id.raw());
    buf.put_u32_le(e.agent.raw());
    buf.put_u8(e.op.index() as u8);
    buf.put_u32_le(e.subject.raw());
    buf.put_u32_le(e.object.raw());
    buf.put_i64_le(e.start_time.micros());
    buf.put_i64_le(e.end_time.micros());
    codec::put_varint(buf, e.amount);
}

fn decode_event(buf: &mut &[u8]) -> Result<Event, CodecError> {
    Ok(Event {
        id: EventId(codec::get_u64(buf)?),
        agent: AgentId(codec::get_u32(buf)?),
        op: Operation::from_index(codec::get_u8(buf)? as usize).ok_or(CodecError::BadMagic)?,
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
    fn snapshot_roundtrip_preserves_epoch_vector() {
        let store = populated_store();
        let path = tmpfile("epochs");
        save(&store, &path).unwrap();
        let loaded = load(&path).unwrap();
        // The loaded store's per-partition epochs must be at least the
        // saved ones (replay may only push them further), and the vector
        // must cover the same partitions.
        let before = store.partition_epochs();
        let after = loaded.partition_epochs();
        assert_eq!(before.len(), after.len());
        for ((ka, ea), (kb, eb)) in before.iter().zip(after.iter()) {
            assert_eq!(ka, kb);
            assert!(eb >= ea, "epoch of {ka:?} regressed: {ea} -> {eb}");
        }
        assert!(loaded.epoch() >= store.epoch());
        assert!(loaded.dict_epoch() >= store.dict_epoch());
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

    /// A snapshot file around a hand-built body: default config behind the
    /// given bucket width, the given dictionary, entities and events, empty
    /// epoch / layout / novelty sections, magic + CRC + length stamped the
    /// way `save` does — so only the body's *values* can be wrong.
    fn crafted(
        name: &str,
        time_bucket: i64,
        strings: &[&str],
        entities: &[EntityAttrs],
        events: &[Event],
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
        codec::put_varint(&mut buf, entities.len() as u64);
        for attrs in entities {
            buf.put_u32_le(1); // agent
            encode_attrs(&mut buf, attrs);
        }
        codec::put_varint(&mut buf, events.len() as u64);
        for e in events {
            encode_event(&mut buf, e);
        }
        for _ in 0..2 {
            codec::put_varint(&mut buf, 0); // store epoch, dict epoch
        }
        for _ in 0..3 {
            codec::put_varint(&mut buf, 0); // no epoch / layout / novelty rows
        }
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&codec::crc32(&buf).to_le_bytes());
        bytes.extend_from_slice(&(buf.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&buf);
        let path = tmpfile(name);
        std::fs::write(&path, &bytes).unwrap();
        path
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
        let r = load(path);
        std::fs::remove_file(path).ok();
        matches!(r, Err(WalError::Codec(CodecError::Invalid(_))))
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
        // `insert_committed` sets the next id to one past each loaded id.
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
    fn other_snapshot_versions_are_refused() {
        // Same bytes, older magic: the body is never parsed.
        let path = tmpfile("old-magic");
        save(&populated_store(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        for magic in [b"AQS1", b"AQS2", b"AQS3", b"AQS4"] {
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
