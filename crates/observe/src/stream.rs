//! Bounded background writing: a producer-side `try_send` that never
//! blocks, a dedicated writer thread that drains, and exact drop
//! accounting when the channel is full.
//!
//! This is the one bounded-channel pattern the workspace shares: the
//! trace bus uses it to stream events to the sink *during* recording
//! (instead of buffering the whole ring and writing at [`crate::stop`]),
//! and the fleet daemon's client publisher uses it to ship delta frames
//! to `pgmp-profiled` without ever blocking the interpreter. The
//! contract in both places is the same: the hot path pays one
//! `try_send`; when the consumer can't keep up, payload is dropped and
//! **counted**, never silently lost and never allowed to stall the
//! producer.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A background writer over a bounded channel of byte buffers.
///
/// [`BoundedWriter::try_write`] enqueues without blocking; a full (or
/// dead) channel drops the buffer and bumps the drop counter. The writer
/// thread drains greedily and flushes whenever the channel runs empty,
/// so latency is bounded by one in-flight batch. [`BoundedWriter::close`]
/// joins the thread and reports the bytes actually written.
///
/// # Example
///
/// ```
/// use pgmp_observe::BoundedWriter;
/// let w = BoundedWriter::spawn(Vec::new(), 8);
/// assert!(w.try_write(b"hello\n".to_vec()));
/// let stats = w.close().unwrap();
/// assert_eq!(stats.bytes, 6);
/// assert_eq!(stats.written, 1);
/// assert_eq!(stats.dropped, 0);
/// ```
#[derive(Debug)]
pub struct BoundedWriter {
    tx: Option<SyncSender<Vec<u8>>>,
    handle: Option<JoinHandle<std::io::Result<u64>>>,
    written: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

/// Final accounting of one [`BoundedWriter`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Buffers accepted by the channel and written out.
    pub written: u64,
    /// Bytes written to the underlying sink.
    pub bytes: u64,
    /// Buffers rejected because the channel was full (or the writer
    /// thread had already failed). Exact: every `try_write` is counted
    /// either here or in `written`.
    pub dropped: u64,
}

impl BoundedWriter {
    /// Spawns the writer thread draining a channel of `capacity` buffers
    /// (minimum 1) into `sink`.
    pub fn spawn<W: Write + Send + 'static>(mut sink: W, capacity: usize) -> BoundedWriter {
        let (tx, rx) = sync_channel::<Vec<u8>>(capacity.max(1));
        let written = Arc::new(AtomicU64::new(0));
        let thread_written = written.clone();
        let handle = std::thread::Builder::new()
            .name("pgmp-bounded-writer".into())
            .spawn(move || {
                let mut bytes = 0u64;
                while let Ok(first) = rx.recv() {
                    // Drain everything already queued before flushing, so
                    // a burst costs one flush, not one per buffer.
                    let mut batch = vec![first];
                    while let Ok(more) = rx.try_recv() {
                        batch.push(more);
                    }
                    for buf in &batch {
                        sink.write_all(buf)?;
                        bytes += buf.len() as u64;
                    }
                    thread_written.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    sink.flush()?;
                }
                sink.flush()?;
                Ok(bytes)
            })
            .expect("spawn bounded writer thread");
        BoundedWriter {
            tx: Some(tx),
            handle: Some(handle),
            written,
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Enqueues `buf` without blocking. Returns `false` — and counts the
    /// drop — when the channel is full or the writer thread has died.
    pub fn try_write(&self, buf: Vec<u8>) -> bool {
        let Some(tx) = self.tx.as_ref() else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        match tx.try_send(buf) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Buffers dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Buffers accepted and written so far (may trail `try_write`
    /// successes by the in-flight batch).
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Closes the channel, joins the writer thread, and returns the
    /// final accounting (or the thread's first I/O error).
    pub fn close(mut self) -> std::io::Result<WriterStats> {
        self.tx = None;
        let bytes = match self.handle.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("writer thread panicked")))?,
            None => 0,
        };
        Ok(WriterStats {
            written: self.written.load(Ordering::Relaxed),
            bytes,
            dropped: self.dropped.load(Ordering::Relaxed),
        })
    }
}

impl Drop for BoundedWriter {
    fn drop(&mut self) {
        // Disconnect and let the thread drain what was accepted; join so
        // process exit can't truncate an accepted buffer.
        self.tx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn writes_everything_accepted() {
        let w = BoundedWriter::spawn(Vec::new(), 4);
        let mut rejected_tries = 0u64;
        for i in 0..100u32 {
            while !w.try_write(format!("{i}\n").into_bytes()) {
                rejected_tries += 1;
                std::thread::yield_now();
            }
        }
        let stats = w.close().unwrap();
        assert_eq!(stats.written, 100, "every accepted buffer is written");
        assert_eq!(
            stats.dropped, rejected_tries,
            "each rejected try counted once"
        );
    }

    #[test]
    fn full_channel_drops_are_counted_exactly() {
        // A sink that blocks until released: the channel must fill and
        // every overflowing try_write must be counted as dropped.
        struct Gate(std::sync::mpsc::Receiver<()>);
        impl Write for Gate {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let _ = self.0.recv();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (release, gate) = channel();
        let w = BoundedWriter::spawn(Gate(gate), 2);
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for _ in 0..50 {
            if w.try_write(b"x".to_vec()) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "channel of 2 must overflow under 50 sends");
        assert_eq!(w.dropped(), rejected);
        for _ in 0..accepted + 1 {
            let _ = release.send(());
        }
        drop(release);
        let stats = w.close().unwrap();
        assert_eq!(stats.written, accepted);
        assert_eq!(stats.dropped, rejected);
        assert_eq!(stats.written + stats.dropped, 50, "no send unaccounted");
    }

    #[test]
    fn close_surfaces_sink_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let w = BoundedWriter::spawn(Broken, 2);
        w.try_write(b"x".to_vec());
        let err = w.close().expect_err("sink error must surface");
        assert_eq!(err.to_string(), "disk gone");
    }
}
