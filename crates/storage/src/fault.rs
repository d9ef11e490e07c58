//! Injectable I/O faults for crash-consistency testing.
//!
//! Durability claims are only as good as the crash scenarios they were
//! tested against. [`FaultWriter`] wraps any [`Write`] sink and kills the
//! byte stream at an arbitrary offset: every byte up to `kill_at` reaches
//! the inner writer, every byte after it is silently dropped while the
//! writer keeps reporting success — what a process crash mid-write leaves
//! behind: the bytes the process never handed to the OS are gone. The
//! fault-injection suites drive the WAL through a killed writer at every
//! possible offset and assert recovery lands on a committed-batch prefix.
//!
//! That is the crash the WAL survives. It never calls `fsync`, so a power
//! loss, which can also drop bytes the OS already accepted but had not yet
//! written back, is not modelled here and not survived.

use std::io::Write;

/// A write-kill fault: the byte offset at which the writing process dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFault {
    /// Total bytes allowed through before writes start disappearing.
    pub kill_at: u64,
}

impl IoFault {
    /// A fault that kills writes after `kill_at` bytes.
    pub fn kill_at(kill_at: u64) -> Self {
        IoFault { kill_at }
    }
}

/// A [`Write`] adapter that applies an [`IoFault`]: bytes past the kill
/// offset are dropped without error, mirroring a process crash that never
/// handed that suffix of the file to the OS.
#[derive(Debug)]
pub struct FaultWriter<W: Write> {
    inner: W,
    fault: IoFault,
    written: u64,
}

impl<W: Write> FaultWriter<W> {
    /// Wraps `inner` with the given fault.
    pub fn new(inner: W, fault: IoFault) -> Self {
        FaultWriter {
            inner,
            fault,
            written: 0,
        }
    }

    /// Total bytes the caller has attempted to write (including lost ones).
    pub fn attempted(&self) -> u64 {
        self.written
    }

    /// Whether any write has been dropped by the fault.
    pub fn tripped(&self) -> bool {
        self.written > self.fault.kill_at
    }
}

impl<W: Write> Write for FaultWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let remaining = self.fault.kill_at.saturating_sub(self.written);
        let pass = (buf.len() as u64).min(remaining) as usize;
        if pass > 0 {
            self.inner.write_all(&buf[..pass])?;
        }
        // Report full success: the process believes the write landed, the
        // disk disagrees. That is the torn-write contract under test.
        self.written += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_prefix_and_drops_suffix() {
        let mut sink = Vec::new();
        {
            let mut w = FaultWriter::new(&mut sink, IoFault::kill_at(5));
            w.write_all(b"abc").unwrap();
            w.write_all(b"defg").unwrap();
            w.flush().unwrap();
            assert_eq!(w.attempted(), 7);
            assert!(w.tripped());
        }
        assert_eq!(sink, b"abcde");
    }

    #[test]
    fn straddling_write_is_split_at_the_kill_offset() {
        let mut sink = Vec::new();
        {
            let mut w = FaultWriter::new(&mut sink, IoFault::kill_at(2));
            w.write_all(b"hello").unwrap(); // 2 land, 3 lost
            w.write_all(b"world").unwrap(); // all lost
            assert!(w.tripped());
        }
        assert_eq!(sink, b"he");
    }

    #[test]
    fn kill_at_zero_drops_everything() {
        let mut sink = Vec::new();
        {
            let mut w = FaultWriter::new(&mut sink, IoFault::kill_at(0));
            w.write_all(b"gone").unwrap();
        }
        assert!(sink.is_empty());
    }

    #[test]
    fn untripped_writer_is_transparent() {
        let mut sink = Vec::new();
        {
            let mut w = FaultWriter::new(&mut sink, IoFault::kill_at(1 << 20));
            w.write_all(b"all of it").unwrap();
            assert!(!w.tripped());
        }
        assert_eq!(sink, b"all of it");
    }
}
