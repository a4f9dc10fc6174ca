//! Client ends of the fleet protocol.
//!
//! [`Publisher`] is built for one job: get counter deltas out of a
//! running interpreter **without ever blocking it**. The handshake is
//! the only blocking exchange; after it, every delta goes through a
//! bounded [`pgmp_observe::BoundedWriter`] channel drained by a
//! background thread. When the channel is full the frame is *dropped on
//! the floor* and accounted — dropped frames and dropped hits exactly —
//! rather than stalling the interpreter behind a slow daemon. Hits in
//! a dropped frame really are lost to the fleet profile — which is why
//! the loss is *exact*: `published_hits + dropped_hits` always equals
//! what the caller handed in ([`PublishStats`]), so operators can see
//! the loss rate and size the channel accordingly.
//!
//! [`Subscriber`] is the opposite: a deliberately blocking reader of
//! [`EpochUpdate`] broadcasts, meant for a dedicated thread that parses
//! `update.profile` and hands the weights to
//! `AdaptiveEngine::apply_fleet_epoch`.

use crate::wire::{self, ByeInfo, Delta, EpochUpdate, Frame, Hello, Role, WireError};
use pgmp_observe::{self as observe, BoundedWriter};
use pgmp_profiler::SlotMap;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Connecting to or talking with the daemon failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket I/O failed.
    Io(io::Error),
    /// A frame failed to decode.
    Wire(WireError),
    /// The daemon refused us, e.g. for an incompatible slot table. The
    /// payload is the daemon's reason.
    Refused(String),
    /// No frame arrived within the deadline.
    Timeout,
    /// The peer sent a frame the protocol does not allow here.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "fleet client i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "fleet client wire error: {e}"),
            ClientError::Refused(reason) => write!(f, "daemon refused connection: {reason}"),
            ClientError::Timeout => f.write_str("timed out waiting for the daemon"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        match e {
            WireError::Io(io)
                if matches!(
                    io.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                ClientError::Timeout
            }
            other => ClientError::Wire(other),
        }
    }
}

/// What a [`Publisher`] did over its lifetime, returned by
/// [`Publisher::close`] and readable live via [`Publisher::stats`].
/// `published_hits + dropped_hits` is exactly the total the caller ever
/// handed to [`Publisher::publish`] — loss is accounted, never silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Delta frames accepted into the outgoing channel.
    pub frames: u64,
    /// Counter hits carried by accepted frames.
    pub published_hits: u64,
    /// Delta frames rejected because the channel was full.
    pub dropped_frames: u64,
    /// Counter hits lost with those frames.
    pub dropped_hits: u64,
}

/// The publishing end: streams counter deltas to the daemon without
/// blocking the thread that produces them.
pub struct Publisher {
    /// Handshake/teardown channel; deltas go through `writer`'s clone.
    stream: UnixStream,
    /// Buffered read half: survives read timeouts without tearing frames.
    reader: wire::FrameReader<UnixStream>,
    writer: Option<BoundedWriter>,
    dataset: u32,
    daemon_inst: u64,
    epoch: u64,
    stats: PublishStats,
}

impl Publisher {
    /// Connects, performs the slot-table handshake, and starts the
    /// background flusher with room for `capacity` queued delta frames.
    ///
    /// # Errors
    ///
    /// [`ClientError::Refused`] when the daemon rejects the slot table —
    /// under [`SlotMap::check_mergeable`], only a table sharing no
    /// profile point with the canonical one; I/O and wire errors
    /// otherwise.
    pub fn connect(
        socket: impl AsRef<Path>,
        table: &SlotMap,
        capacity: usize,
    ) -> Result<Publisher, ClientError> {
        Publisher::connect_with_provenance(socket, table, capacity, 0)
    }

    /// [`Publisher::connect`], declaring the counters' provenance: 0 for
    /// exact counts, otherwise the sampling rate in Hz. A sampling-rate
    /// declaration makes the daemon record `sampled@hz` provenance on
    /// the canonical profile it merges this dataset into (and warn when
    /// the fleet mixes exact and sampled publishers).
    pub fn connect_with_provenance(
        socket: impl AsRef<Path>,
        table: &SlotMap,
        capacity: usize,
        sampled_hz: u32,
    ) -> Result<Publisher, ClientError> {
        let mut stream = UnixStream::connect(socket.as_ref())?;
        wire::write_frame(
            &mut stream,
            &Frame::Hello(Hello {
                role: Role::Publisher,
                pid: u64::from(std::process::id()),
                inst: observe::instance_id(),
                sampled_hz,
                points: table.points().to_vec(),
            }),
        )?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let mut reader = wire::FrameReader::new(stream.try_clone()?);
        let (dataset, daemon_inst) = match reader.next_frame()? {
            Frame::Ack(ack) => (ack.dataset, ack.inst),
            Frame::Error(reason) => return Err(ClientError::Refused(reason)),
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected ack to hello, got {other:?}"
                )))
            }
        };
        // The client half of the correlation handshake — pairs with the
        // daemon's `fleet_hello` event for this connection.
        observe::emit(observe::EventKind::FleetConnect {
            role: "publisher".to_string(),
            daemon_inst,
            dataset,
        });
        let writer = BoundedWriter::spawn(stream.try_clone()?, capacity.max(1));
        Ok(Publisher {
            stream,
            reader,
            writer: Some(writer),
            dataset,
            daemon_inst,
            epoch: 0,
            stats: PublishStats::default(),
        })
    }

    /// The dataset id the daemon assigned this publisher's instance.
    pub fn dataset(&self) -> u32 {
        self.dataset
    }

    /// The daemon's `pgmp_observe::instance_id`, learned from its ack
    /// (0 when talking to a v1 daemon).
    pub fn daemon_inst(&self) -> u64 {
        self.daemon_inst
    }

    /// Queues one delta (as from [`pgmp_profiler::Counters::take_delta`])
    /// for sending. Returns `true` if the frame was accepted, `false` if
    /// the channel was full and the frame was dropped — the drop is
    /// counted in [`PublishStats`] and reported as a `backpressure_drop`
    /// trace event either way. Never blocks; an empty delta is a no-op.
    pub fn publish(&mut self, counts: &[(u32, u64)]) -> bool {
        if counts.is_empty() {
            return true;
        }
        self.epoch += 1;
        let hits: u64 = counts.iter().map(|(_, c)| c).sum();
        let frame = Frame::Delta(Delta {
            epoch: self.epoch,
            counts: counts.to_vec(),
        });
        let accepted = self
            .writer
            .as_mut()
            .is_some_and(|w| w.try_write(frame.encode()));
        if accepted {
            self.stats.frames += 1;
            self.stats.published_hits += hits;
            // The publisher half of the delta join key: this event's
            // (inst, epoch) matches the daemon's `ingest_batch`
            // (peer_inst, epoch) for the same frame.
            observe::emit(observe::EventKind::PublishDelta {
                epoch: self.epoch,
                slots: counts.len() as u32,
                hits,
            });
        } else {
            self.stats.dropped_frames += 1;
            self.stats.dropped_hits += hits;
            observe::emit(observe::EventKind::BackpressureDrop {
                channel: "publish".to_string(),
                dropped: hits,
            });
            observe::metrics().counter_add("profiled.publish_dropped_hits", hits);
        }
        accepted
    }

    /// Lifetime statistics so far.
    pub fn stats(&self) -> PublishStats {
        self.stats
    }

    /// Drains the outgoing channel, sends the [`Frame::Bye`] barrier,
    /// and waits for the daemon's ack — after `close` returns `Ok`,
    /// every accepted delta is in the daemon's dataset.
    pub fn close(mut self) -> Result<PublishStats, ClientError> {
        // Join the flusher first: Bye must be the last frame on the
        // socket or it would overtake still-queued deltas.
        if let Some(writer) = self.writer.take() {
            writer.close().map_err(ClientError::Io)?;
        }
        wire::write_frame(
            &mut self.stream,
            &Frame::Bye(ByeInfo {
                inst: observe::instance_id(),
                epoch: self.epoch,
            }),
        )?;
        self.stream
            .set_read_timeout(Some(Duration::from_secs(10)))?;
        match self.reader.next_frame()? {
            Frame::Ack(_) => Ok(self.stats),
            other => Err(ClientError::Protocol(format!(
                "expected ack to bye, got {other:?}"
            ))),
        }
    }
}

/// The subscribing end: receives every merge epoch the daemon
/// broadcasts.
pub struct Subscriber {
    stream: UnixStream,
    reader: wire::FrameReader<UnixStream>,
    daemon_inst: u64,
}

impl Subscriber {
    /// Connects and registers for epoch broadcasts.
    pub fn connect(socket: impl AsRef<Path>) -> Result<Subscriber, ClientError> {
        let mut stream = UnixStream::connect(socket.as_ref())?;
        wire::write_frame(
            &mut stream,
            &Frame::Hello(Hello {
                role: Role::Subscriber,
                pid: u64::from(std::process::id()),
                inst: observe::instance_id(),
                sampled_hz: 0,
                points: Vec::new(),
            }),
        )?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let mut reader = wire::FrameReader::new(stream.try_clone()?);
        match reader.next_frame()? {
            Frame::Ack(ack) => {
                observe::emit(observe::EventKind::FleetConnect {
                    role: "subscriber".to_string(),
                    daemon_inst: ack.inst,
                    dataset: 0,
                });
                Ok(Subscriber {
                    stream,
                    reader,
                    daemon_inst: ack.inst,
                })
            }
            Frame::Error(reason) => Err(ClientError::Refused(reason)),
            other => Err(ClientError::Protocol(format!(
                "expected ack to hello, got {other:?}"
            ))),
        }
    }

    /// The daemon's `pgmp_observe::instance_id`, learned from its ack
    /// (0 when talking to a v1 daemon).
    pub fn daemon_inst(&self) -> u64 {
        self.daemon_inst
    }

    /// Blocks until the next [`EpochUpdate`] arrives, up to `timeout`.
    /// Parse `update.profile` with [`pgmp_profiler::StoredProfile::load_from_str`]
    /// and feed the weights to `AdaptiveEngine::apply_fleet_epoch`.
    ///
    /// A timeout ([`ClientError::Timeout`]) loses nothing: a partially
    /// received broadcast stays buffered and the next call resumes it.
    pub fn next_epoch(&mut self, timeout: Duration) -> Result<EpochUpdate, ClientError> {
        self.stream.set_read_timeout(Some(timeout))?;
        match self.reader.next_frame()? {
            Frame::Epoch(update) => Ok(update),
            other => Err(ClientError::Protocol(format!(
                "expected epoch broadcast, got {other:?}"
            ))),
        }
    }
}
