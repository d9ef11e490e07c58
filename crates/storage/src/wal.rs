//! Write-ahead log for raw observations.
//!
//! Agents stream observations continuously; the WAL hands each batch to the
//! OS before batch commit, so a process crash loses no committed batch (the
//! log is never `fsync`ed: a power loss can lose what the OS had not yet
//! written back; see [`Wal::commit`]). Records are framed as
//! `[len][crc32][payload]` so a torn tail (a crash mid-write) is detected
//! and replay stops cleanly at the last intact record — standard
//! embedded-database recovery semantics.
//!
//! The current format (`AQW2`) tags every payload with a kind byte: event
//! frames carry one raw observation, **commit frames** seal everything
//! since the previous marker into one committed batch. Recovery replays the
//! committed-batch prefix ([`ReplayReport::batches`]) and reports intact
//! events past the last marker separately ([`ReplayReport::uncommitted`]),
//! so a crashed store rebuilds with exactly the batch boundaries — and
//! therefore the physical segment layout — of a store that never crashed.
//! A log with another `AQW<n>` magic is refused with
//! [`WalError::UnsupportedVersion`] by replay and by [`Wal::open_append`]
//! alike, which leaves the file untouched: appending this format's frames
//! under another format's header would make the next replay misparse them.
//!
//! A torn or corrupt tail is never an error: [`Wal::replay_report`] returns
//! the intact prefix plus the dropped byte count, and [`Wal::open_append`]
//! repairs the file — truncating the garbage tail — before appending.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, Write};
use std::path::Path;

use aiql_model::{AgentId, IpV4, Operation, Protocol, Timestamp};

use crate::codec::{self, CodecError, Put};
use crate::fault::{FaultWriter, IoFault};
use crate::ingest::{EntitySpec, RawEvent};

/// The one format read and written: payloads are `[kind][body]` (kind 0 =
/// event, 1 = commit).
const MAGIC: &[u8; 4] = b"AQW2";

/// Payload kind: one raw observation.
const KIND_EVENT: u8 = 0;
/// Payload kind: commit marker sealing the batch since the last marker.
/// Body is the varint event count of the sealed batch (validated on
/// replay — a mismatch means the log is corrupt at this point).
const KIND_COMMIT: u8 = 1;

/// Errors raised by WAL operations.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Decoding failure (corrupt payload that passed CRC — format bug).
    Codec(CodecError),
    /// The file does not start with the WAL magic.
    BadHeader,
    /// The file is a WAL or snapshot of a format version this build neither
    /// reads nor writes (`found` is its magic). Nothing was modified.
    UnsupportedVersion { found: [u8; 4] },
}

impl WalError {
    /// The error for a 4-byte header that is not `current`: the same
    /// family (first three bytes) with another version digit is a format
    /// this build does not read; anything else was never one of our files.
    pub(crate) fn for_magic(found: [u8; 4], current: &[u8; 4]) -> Self {
        if found[..3] == current[..3] && found[3].is_ascii_digit() {
            WalError::UnsupportedVersion { found }
        } else {
            WalError::BadHeader
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Codec(e) => write!(f, "wal codec error: {e}"),
            WalError::BadHeader => write!(f, "not a wal file (bad magic)"),
            WalError::UnsupportedVersion { found } => write!(
                f,
                "unsupported format version {:?}: written by another build",
                String::from_utf8_lossy(found)
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<CodecError> for WalError {
    fn from(e: CodecError) -> Self {
        WalError::Codec(e)
    }
}

/// What a replay found: the committed-batch prefix, the intact-but-unsealed
/// tail, and how many bytes of torn/corrupt garbage were dropped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayReport {
    /// Committed batches, in commit order. Re-ingesting these batch by
    /// batch reproduces the exact commit boundaries of the original store.
    pub batches: Vec<Vec<RawEvent>>,
    /// Intact events appended after the last commit marker (in the file
    /// but not yet sealed — a crash interrupted the batch).
    pub uncommitted: Vec<RawEvent>,
    /// Byte length of the intact, frame-aligned prefix (including magic).
    pub valid_len: u64,
    /// Bytes past `valid_len` dropped as torn or corrupt.
    pub dropped_bytes: u64,
}

impl ReplayReport {
    /// Total committed events across all batches.
    pub fn committed_events(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Every intact event, committed or not — what [`Wal::replay`]
    /// returns.
    pub fn all_events(&self) -> Vec<RawEvent> {
        let mut out: Vec<RawEvent> = self.batches.iter().flatten().cloned().collect();
        out.extend(self.uncommitted.iter().cloned());
        out
    }

    /// Whether the file had a torn or corrupt tail.
    pub fn torn(&self) -> bool {
        self.dropped_bytes > 0
    }
}

/// Bytes of a frame header: `[len u32][crc32 u32]`, both little endian.
const FRAME_HEADER: usize = 8;

/// An append-only write-ahead log.
pub struct Wal {
    writer: BufWriter<Box<dyn Write + Send>>,
    /// Events appended since the last commit marker.
    pending: u64,
    /// The frame being written, reused by every append and commit: a
    /// header placeholder, then the payload encoded in place, then the
    /// header patched with the payload's length and CRC.
    frame: Vec<u8>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("pending", &self.pending)
            .finish()
    }
}

impl Wal {
    /// Creates (or truncates) a WAL at `path`.
    pub fn create(path: &Path) -> Result<Self, WalError> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Self::create_with(Box::new(file))
    }

    /// Creates a WAL over an arbitrary sink. This is the fault-injection
    /// entry point: wrapping the file in a [`FaultWriter`] simulates a
    /// crash that loses every byte past a chosen offset.
    pub fn create_with(mut sink: Box<dyn Write + Send>) -> Result<Self, WalError> {
        sink.write_all(MAGIC)?;
        Ok(Wal {
            writer: BufWriter::new(sink),
            pending: 0,
            frame: Vec::new(),
        })
    }

    /// Creates a WAL at `path` whose writes die at byte offset
    /// `fault.kill_at` (magic included). See [`FaultWriter`].
    pub fn create_faulty(path: &Path, fault: IoFault) -> Result<Self, WalError> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Self::create_with(Box::new(FaultWriter::new(file, fault)))
    }

    /// Reopens an existing WAL for appending, repairing a torn tail first:
    /// the file is truncated to the last intact frame, so the garbage a
    /// crash left behind can never shadow future appends. Returns the
    /// replay report alongside the handle. A file that is not a log of
    /// this format is an error and is not opened for writing.
    pub fn open_append(path: &Path) -> Result<(Self, ReplayReport), WalError> {
        let report = Self::replay_report(path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        if report.dropped_bytes > 0 {
            file.set_len(report.valid_len)?;
        }
        file.seek(std::io::SeekFrom::End(0))?;
        if report.valid_len < MAGIC.len() as u64 {
            // The creating process crashed before even the magic landed:
            // restart the file as a fresh, empty WAL.
            file.write_all(MAGIC)?;
        }
        let wal = Wal {
            writer: BufWriter::new(Box::new(file)),
            pending: report.uncommitted.len() as u64,
            frame: Vec::new(),
        };
        Ok((wal, report))
    }

    /// Appends one observation.
    pub fn append(&mut self, raw: &RawEvent) -> Result<(), WalError> {
        self.begin_frame(KIND_EVENT);
        encode_raw_event(&mut self.frame, raw);
        self.write_frame()?;
        self.pending += 1;
        Ok(())
    }

    /// Seals every event since the previous marker into one committed
    /// batch and flushes the buffered frames to the OS — the point batch
    /// commit relies on. Recovery replays exactly the batches whose markers
    /// reached the file. Nothing here calls `sync_data`, so a commit
    /// survives a crash of the process (the OS holds the bytes), not a
    /// power loss or an OS crash before the OS writes them back.
    pub fn commit(&mut self) -> Result<(), WalError> {
        self.begin_frame(KIND_COMMIT);
        codec::put_varint(&mut self.frame, self.pending);
        self.write_frame()?;
        self.pending = 0;
        self.flush()
    }

    /// Starts a frame of payload kind `kind` in the reused buffer.
    fn begin_frame(&mut self, kind: u8) {
        self.frame.clear();
        self.frame.extend_from_slice(&[0; FRAME_HEADER]);
        self.frame.push(kind);
    }

    /// Patches the header of the buffered frame and writes it out.
    fn write_frame(&mut self) -> Result<(), WalError> {
        let (header, payload) = self.frame.split_at_mut(FRAME_HEADER);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&codec::crc32(payload).to_le_bytes());
        self.writer.write_all(&self.frame)?;
        Ok(())
    }

    /// Flushes buffered frames to the OS.
    pub fn flush(&mut self) -> Result<(), WalError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Replays a WAL file, returning all intact events (committed or not).
    /// Stops (without error) at the first torn or corrupt frame, mirroring
    /// crash recovery. Use [`Wal::replay_report`] for commit-boundary
    /// recovery and the dropped-byte accounting.
    pub fn replay(path: &Path) -> Result<Vec<RawEvent>, WalError> {
        Ok(Self::replay_report(path)?.all_events())
    }

    /// Replays a WAL file into a [`ReplayReport`]: committed batches, the
    /// unsealed tail, and how many trailing bytes were dropped as torn or
    /// corrupt. Only a missing/unreadable file, a bad magic or another
    /// format version is an error — any damage past the header is recovered
    /// around, never propagated.
    pub fn replay_report(path: &Path) -> Result<ReplayReport, WalError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut reader = BufReader::new(file);
        let mut magic = [0u8; 4];
        let mut got = 0;
        while got < magic.len() {
            match reader.read(&mut magic[got..]) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) => return Err(WalError::Io(e)),
            }
        }
        if got < magic.len() {
            // Shorter than the header: a crash during creation tore the
            // magic itself. A (possibly empty) prefix of a valid magic is
            // an empty torn WAL; anything else was never a WAL.
            if MAGIC.starts_with(&magic[..got]) {
                return Ok(ReplayReport {
                    dropped_bytes: file_len,
                    ..ReplayReport::default()
                });
            }
            return Err(WalError::BadHeader);
        }
        if &magic != MAGIC {
            return Err(WalError::for_magic(magic, MAGIC));
        }
        let mut report = ReplayReport {
            valid_len: 4,
            ..ReplayReport::default()
        };
        let mut payload = Vec::new();
        loop {
            let mut header = [0u8; FRAME_HEADER];
            if reader.read_exact(&mut header).is_err() {
                break; // clean or torn end
            }
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
            let stored_crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
            // A frame that claims more bytes than the file holds is a torn
            // header — bail before growing the reused buffer to its length.
            if len > file_len.saturating_sub(report.valid_len + FRAME_HEADER as u64) {
                break;
            }
            payload.clear();
            payload.resize(len as usize, 0);
            if reader.read_exact(&mut payload).is_err() {
                break; // torn tail
            }
            if codec::crc32(&payload) != stored_crc {
                break; // corrupt frame: stop replay
            }
            let mut slice = payload.as_slice();
            match codec::get_u8(&mut slice) {
                // A decode failure on a CRC-valid frame still truncates
                // rather than aborts recovery.
                Ok(KIND_EVENT) => match decode_raw_event(&mut slice) {
                    Ok(e) => report.uncommitted.push(e),
                    Err(_) => break,
                },
                Ok(KIND_COMMIT) => {
                    let sealed = match codec::get_varint(&mut slice) {
                        Ok(n) => n,
                        Err(_) => break,
                    };
                    if sealed != report.uncommitted.len() as u64 {
                        // The marker disagrees with the events on disk:
                        // corruption. Recover the prefix before it.
                        break;
                    }
                    report.batches.push(std::mem::take(&mut report.uncommitted));
                }
                _ => break, // unknown kind: stop at the last good frame
            }
            report.valid_len += FRAME_HEADER as u64 + len;
        }
        report.dropped_bytes = file_len.saturating_sub(report.valid_len);
        Ok(report)
    }
}

/// Encodes a raw event payload (shared with tests).
pub fn encode_raw_event(buf: &mut Vec<u8>, raw: &RawEvent) {
    buf.put_u32_le(raw.agent.raw());
    buf.put_u8(raw.op.index() as u8);
    encode_spec(buf, &raw.subject);
    encode_spec(buf, &raw.object);
    buf.put_i64_le(raw.start_time.micros());
    buf.put_i64_le(raw.end_time.micros());
    codec::put_varint(buf, raw.amount);
    match raw.object_agent {
        Some(a) => {
            buf.put_u8(1);
            buf.put_u32_le(a.raw());
        }
        None => buf.put_u8(0),
    }
}

/// Decodes a raw event payload.
pub fn decode_raw_event(buf: &mut &[u8]) -> Result<RawEvent, CodecError> {
    let agent = AgentId(codec::get_u32(buf)?);
    let op = Operation::from_index(codec::get_u8(buf)? as usize).ok_or(CodecError::BadMagic)?;
    let subject = decode_spec(buf)?;
    let object = decode_spec(buf)?;
    let start_time = Timestamp(codec::get_i64(buf)?);
    let end_time = Timestamp(codec::get_i64(buf)?);
    let amount = codec::get_varint(buf)?;
    let object_agent = if codec::get_u8(buf)? == 1 {
        Some(AgentId(codec::get_u32(buf)?))
    } else {
        None
    };
    Ok(RawEvent {
        agent,
        op,
        subject,
        object,
        object_agent,
        start_time,
        end_time,
        amount,
    })
}

fn encode_spec(buf: &mut Vec<u8>, spec: &EntitySpec) {
    match spec {
        EntitySpec::Process {
            pid,
            exe_name,
            user,
            cmdline,
        } => {
            buf.put_u8(0);
            buf.put_u32_le(*pid);
            codec::put_str(buf, exe_name);
            codec::put_str(buf, user);
            codec::put_str(buf, cmdline);
        }
        EntitySpec::File { name, owner } => {
            buf.put_u8(1);
            codec::put_str(buf, name);
            codec::put_str(buf, owner);
        }
        EntitySpec::NetConn {
            src_ip,
            src_port,
            dst_ip,
            dst_port,
            protocol,
        } => {
            buf.put_u8(2);
            buf.put_u32_le(src_ip.0);
            buf.put_u16_le(*src_port);
            buf.put_u32_le(dst_ip.0);
            buf.put_u16_le(*dst_port);
            buf.put_u8(match protocol {
                Protocol::Tcp => 0,
                Protocol::Udp => 1,
            });
        }
    }
}

fn decode_spec(buf: &mut &[u8]) -> Result<EntitySpec, CodecError> {
    match codec::get_u8(buf)? {
        0 => Ok(EntitySpec::Process {
            pid: codec::get_u32(buf)?,
            exe_name: codec::get_str(buf)?,
            user: codec::get_str(buf)?,
            cmdline: codec::get_str(buf)?,
        }),
        1 => Ok(EntitySpec::File {
            name: codec::get_str(buf)?,
            owner: codec::get_str(buf)?,
        }),
        2 => Ok(EntitySpec::NetConn {
            src_ip: IpV4(codec::get_u32(buf)?),
            src_port: codec::get_u16(buf)?,
            dst_ip: IpV4(codec::get_u32(buf)?),
            dst_port: codec::get_u16(buf)?,
            protocol: match codec::get_u8(buf)? {
                0 => Protocol::Tcp,
                _ => Protocol::Udp,
            },
        }),
        _ => Err(CodecError::BadMagic),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: i64) -> RawEvent {
        RawEvent::instant(
            AgentId(1),
            Operation::Write,
            EntitySpec::process(42, "sqlservr.exe", "mssql"),
            EntitySpec::file("C:\\dumps\\backup1.dmp", "mssql"),
            Timestamp::from_secs(i),
            4096,
        )
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("aiql-wal-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let path = tmpfile("roundtrip");
        let mut wal = Wal::create(&path).unwrap();
        let events: Vec<RawEvent> = (0..10).map(sample).collect();
        for e in &events {
            wal.append(e).unwrap();
        }
        wal.flush().unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed, events);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_stops_replay_cleanly() {
        let path = tmpfile("torn");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..5 {
            wal.append(&sample(i)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // Truncate mid-record to simulate a crash.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 4);
        let report = Wal::replay_report(&path).unwrap();
        assert!(report.torn());
        assert_eq!(report.valid_len + report.dropped_bytes, len - 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_frame_stops_replay() {
        let path = tmpfile("corrupt");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..3 {
            wal.append(&sample(i)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // Flip a byte in the middle of the file (inside record payloads).
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        f.seek(std::io::SeekFrom::Start(40)).unwrap();
        let mut b = [0u8; 1];
        f.read_exact(&mut b).unwrap();
        f.seek(std::io::SeekFrom::Start(40)).unwrap();
        f.write_all(&[b[0] ^ 0xFF]).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert!(replayed.len() < 3);
        let report = Wal::replay_report(&path).unwrap();
        assert!(report.torn());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_rejects_non_wal_file() {
        let path = tmpfile("badmagic");
        std::fs::write(&path, b"not a wal").unwrap();
        assert!(matches!(Wal::replay(&path), Err(WalError::BadHeader)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn commit_markers_partition_batches() {
        let path = tmpfile("batches");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..3 {
            wal.append(&sample(i)).unwrap();
        }
        wal.commit().unwrap();
        for i in 3..5 {
            wal.append(&sample(i)).unwrap();
        }
        wal.commit().unwrap();
        wal.append(&sample(5)).unwrap(); // never sealed
        wal.flush().unwrap();
        drop(wal);
        let report = Wal::replay_report(&path).unwrap();
        assert_eq!(
            report.batches.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![3, 2]
        );
        assert_eq!(report.uncommitted.len(), 1);
        assert!(!report.torn());
        assert_eq!(report.all_events().len(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_append_repairs_torn_tail_and_continues() {
        let path = tmpfile("repair");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..4 {
            wal.append(&sample(i)).unwrap();
        }
        wal.commit().unwrap();
        wal.append(&sample(99)).unwrap();
        wal.flush().unwrap();
        drop(wal);
        // Tear the last (uncommitted) record.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (mut wal, report) = Wal::open_append(&path).unwrap();
        assert_eq!(report.batches.len(), 1);
        assert_eq!(report.uncommitted.len(), 0);
        assert!(report.torn());
        // Repair actually truncated the file.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), report.valid_len);
        // The handle keeps appending where the intact prefix ended.
        wal.append(&sample(5)).unwrap();
        wal.commit().unwrap();
        drop(wal);
        let after = Wal::replay_report(&path).unwrap();
        assert_eq!(
            after.batches.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 1]
        );
        assert!(!after.torn());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn other_wal_version_is_refused_and_left_untouched() {
        let path = tmpfile("aqw1");
        // The pre-marker format: magic + two bare event frames. Replaying
        // it as this format would read each event's first byte as a kind.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"AQW1");
        for i in 0..2 {
            let mut payload = Vec::new();
            encode_raw_event(&mut payload, &sample(i));
            let crc = codec::crc32(&payload);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc.to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        std::fs::write(&path, &bytes).unwrap();
        fn refused<T>(r: Result<T, WalError>) -> bool {
            matches!(r, Err(WalError::UnsupportedVersion { found }) if &found == b"AQW1")
        }
        assert!(refused(Wal::replay_report(&path)));
        // Appending kind-tagged frames under that magic is what lost
        // acknowledged commits: open_append must refuse, byte for byte.
        assert!(refused(Wal::open_append(&path)));
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        // A bare magic is still a whole header, not a torn one.
        std::fs::write(&path, b"AQW1").unwrap();
        assert!(refused(Wal::replay_report(&path)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_length_header_is_a_torn_tail_not_an_alloc() {
        let path = tmpfile("hugelen");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&sample(0)).unwrap();
        wal.commit().unwrap();
        drop(wal);
        // Append a frame header claiming 4 GB: recovery must drop it as a
        // torn tail instead of trusting the length.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&u32::MAX.to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.write_all(b"junk").unwrap();
        drop(f);
        let report = Wal::replay_report(&path).unwrap();
        assert_eq!(report.committed_events(), 1);
        assert_eq!(report.dropped_bytes, 12);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn faulty_writer_loses_the_suffix() {
        let path = tmpfile("faulty");
        let mut wal = Wal::create_faulty(&path, IoFault::kill_at(40)).unwrap();
        for i in 0..5 {
            wal.append(&sample(i)).unwrap();
        }
        wal.commit().unwrap();
        drop(wal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 40);
        // Whatever survived is a clean prefix with zero committed batches
        // (the commit marker was past the kill offset).
        let report = Wal::replay_report(&path).unwrap();
        assert!(report.batches.is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// A sink the test can read back after the WAL wrote through it.
    #[derive(Clone, Default)]
    struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One event of each spec kind; the netconn crosses to another host.
    fn golden_events() -> Vec<RawEvent> {
        let mut exec = RawEvent::instant(
            AgentId(3),
            Operation::Start,
            EntitySpec::process(100, "cmd.exe", "alice"),
            EntitySpec::process(101, "osql.exe", "alice"),
            Timestamp::from_secs(1_500_000_000),
            0,
        );
        if let EntitySpec::Process { cmdline, .. } = &mut exec.object {
            *cmdline = "osql -E -Q backup".to_string();
        }
        let write = RawEvent::instant(
            AgentId(3),
            Operation::Write,
            EntitySpec::process(102, "sqlservr.exe", "mssql"),
            EntitySpec::file("C:\\dumps\\backup1.dmp", "mssql"),
            Timestamp::from_secs(1_500_000_060),
            65_536,
        );
        let conn = RawEvent::instant(
            AgentId(3),
            Operation::Connect,
            EntitySpec::process(103, "sbblv.exe", "system"),
            EntitySpec::tcp(
                IpV4::from_octets(10, 0, 0, 2),
                49_152,
                IpV4::from_octets(172, 16, 99, 129),
                443,
            ),
            Timestamp::from_secs(1_500_000_120),
            300,
        )
        .with_object_agent(AgentId(7));
        vec![exec, write, conn]
    }

    /// The `AQW2` bytes of [`golden_events`] as two committed batches
    /// (`[exec, write]`, then `[conn]`). Any change to the frame layout,
    /// the payload encoding or the CRC breaks this.
    const GOLDEN_WAL_HEX: &str = concat!(
        "415157325200000067dfcfe5000300000005006400000007636d642e65786505",
        "616c696365000065000000086f73716c2e65786505616c696365116f73716c20",
        "2d45202d51206261636b757000c029f73d54050000c029f73d54050000004f00",
        "00000aee0dc200030000000100660000000c73716c73657276722e657865056d",
        "7373716c000114433a5c64756d70735c6261636b7570312e646d70056d737371",
        "6c0047bdfa3d5405000047bdfa3d54050080800400020000009242ccb6010242",
        "000000385ffc930003000000070067000000097362626c762e65786506737973",
        "74656d00020200000a00c0816310acbb010000ce50fe3d54050000ce50fe3d54",
        "0500ac020107000000020000002813c52f0101",
    );

    #[test]
    fn golden_log_bytes_are_unchanged_and_replay() {
        let sink = SharedSink::default();
        let mut wal = Wal::create_with(Box::new(sink.clone())).unwrap();
        let events = golden_events();
        wal.append(&events[0]).unwrap();
        wal.append(&events[1]).unwrap();
        wal.commit().unwrap();
        wal.append(&events[2]).unwrap();
        wal.commit().unwrap();
        drop(wal);
        let bytes = sink.0.lock().unwrap().clone();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_WAL_HEX);

        let path = tmpfile("golden");
        std::fs::write(&path, &bytes).unwrap();
        let report = Wal::replay_report(&path).unwrap();
        assert_eq!(
            report.batches,
            vec![events[..2].to_vec(), events[2..].to_vec()]
        );
        assert!(report.uncommitted.is_empty());
        assert_eq!(report.valid_len, bytes.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_spec_kinds_roundtrip() {
        let conn = RawEvent::instant(
            AgentId(9),
            Operation::Connect,
            EntitySpec::process(7, "sbblv.exe", "system"),
            EntitySpec::tcp(
                IpV4::from_octets(10, 0, 0, 2),
                49152,
                IpV4::from_octets(10, 0, 4, 129),
                443,
            ),
            Timestamp::from_secs(1),
            0,
        );
        let mut buf = Vec::new();
        encode_raw_event(&mut buf, &conn);
        let mut slice = &buf[..];
        assert_eq!(decode_raw_event(&mut slice).unwrap(), conn);
    }
}
