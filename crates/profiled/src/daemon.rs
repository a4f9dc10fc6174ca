//! The daemon side: accept loop, slot-table handshake, sharded delta
//! ingestion, and the periodic merge → write → broadcast cycle.
//!
//! ## Data model
//!
//! The daemon owns one **canonical slot table** ([`SlotMap`]) and one
//! [`AtomicSlotArray`] per connected-ever publisher (its *dataset*).
//! The handshake gates on [`SlotMap::check_mergeable`], the same policy
//! `pgmp-profile merge` applies to stored v2 tables. Slot ids are
//! process-local — dense slots are assigned partly at first execution,
//! so two runs of the *same program* under skewed workloads intern the
//! same points in different orders. A publisher whose table agrees with
//! the canonical one on every shared slot extends it and streams deltas
//! with no translation; one whose table merely *reorders* shared points
//! gets a per-connection remap vector (client slot → canonical slot),
//! keeping ingestion integer-only. Only a table sharing no point at all
//! with the canonical one — a different program, whose slot-indexed
//! counters could only alias — is refused with a typed [`Frame::Error`].
//!
//! Datasets are **cumulative**: a delta adds into the array and nothing
//! ever drains it, so the periodic merge sees each process's full
//! history and the result equals the offline §3.2 merge of per-process
//! profiles — the property the fleet e2e test checks against an oracle.
//! Disconnected publishers keep their dataset; their contribution stays
//! in the canonical profile, exactly as their stored profile would. A
//! dataset belongs to the publisher's instance id (`Hello::inst`), not
//! to a connection: a publisher that reconnects resumes its own array,
//! so it is still one dataset, weighted once, in the merge.
//!
//! ## Merge cycle
//!
//! Every `merge_interval` (and once more at shutdown) the daemon
//! snapshots every dataset, skips the all-zero ones, folds them with
//! [`ProfileInformation::merge`] in dataset order, writes the result as
//! a v2 [`StoredProfile`] (atomic rename), computes L1 and
//! total-variation drift against the previous merge, and pushes a
//! [`Frame::Epoch`] to every subscriber. Each stage emits
//! `pgmp-observe` events (`ingest_batch`, `merge`, `broadcast`) and
//! metrics, so a trace of the daemon explains every canonical profile
//! it ever wrote.

use crate::wire::{self, Ack, EpochUpdate, Frame, Hello, Role, WireError};
use pgmp_observe as observe;
use pgmp_profiler::AtomicSlotArray;
use pgmp_profiler::{drift, DriftMetric};
use pgmp_profiler::{Dataset, ProfileInformation, Provenance, SlotMap, StoredProfile};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a [`Daemon`] serves.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix-domain socket path to listen on. A stale socket file left by
    /// a dead daemon is removed at bind time.
    pub socket: PathBuf,
    /// Where the canonical merged profile is (atomically) written.
    pub profile: PathBuf,
    /// How often to merge, write, and broadcast.
    pub merge_interval: Duration,
}

impl DaemonConfig {
    /// A config with the given paths and a 250 ms merge cadence.
    pub fn new(socket: impl Into<PathBuf>, profile: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket: socket.into(),
            profile: profile.into(),
            merge_interval: Duration::from_millis(250),
        }
    }
}

/// Serving failed. Connection-level trouble (a client that sends
/// garbage, disconnects mid-frame, or fails its handshake) is handled
/// per-connection and never surfaces here.
#[derive(Debug)]
pub enum DaemonError {
    /// Binding or accepting on the socket failed.
    Io(io::Error),
    /// Writing the canonical profile failed.
    Store(pgmp_profiler::ProfileStoreError),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Io(e) => write!(f, "daemon i/o error: {e}"),
            DaemonError::Store(e) => write!(f, "writing canonical profile: {e}"),
        }
    }
}

impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaemonError::Io(e) => Some(e),
            DaemonError::Store(e) => Some(e),
        }
    }
}

impl From<io::Error> for DaemonError {
    fn from(e: io::Error) -> DaemonError {
        DaemonError::Io(e)
    }
}

impl From<pgmp_profiler::ProfileStoreError> for DaemonError {
    fn from(e: pgmp_profiler::ProfileStoreError) -> DaemonError {
        DaemonError::Store(e)
    }
}

/// What the daemon remembers about a dataset's publisher, from its
/// [`Hello`]: the correlation id for trace joins and the declared
/// counter provenance for the merged profile.
#[derive(Debug, Clone, Copy)]
struct PublisherMeta {
    /// The publisher's `pgmp_observe::instance_id` (0: v1 client).
    peer_inst: u64,
    /// 0 for exact counters, else the declared sampling rate in Hz.
    sampled_hz: u32,
}

struct State {
    config: DaemonConfig,
    /// The canonical slot table; grows monotonically as publishers with
    /// longer (compatible) tables connect.
    table: Mutex<SlotMap>,
    /// One cumulative counter array per publisher that ever connected,
    /// keyed by its instance id: a reconnect resumes its array.
    datasets: Mutex<Vec<Arc<AtomicSlotArray>>>,
    /// Handshake-declared provenance per dataset, parallel to `datasets`.
    meta: Mutex<Vec<PublisherMeta>>,
    /// Epoch streams of connected subscribers.
    subscribers: Mutex<Vec<UnixStream>>,
    /// Merge epochs completed so far.
    epoch: AtomicU64,
    /// The previous merge's weights, for drift.
    last_merged: Mutex<ProfileInformation>,
    /// Whether the mixed-provenance warning has been printed yet (it is
    /// worth one line per daemon lifetime, not one per 250 ms merge).
    mixed_warned: AtomicBool,
    shutdown: AtomicBool,
}

/// A running (or runnable) fleet daemon. [`Daemon::run`] blocks the
/// calling thread until a [`Frame::Shutdown`] arrives; embed it in a
/// thread for in-process tests, or use the `pgmp-profiled` binary.
pub struct Daemon {
    state: Arc<State>,
}

impl Daemon {
    /// Creates a daemon for `config`. Nothing is bound until [`run`].
    ///
    /// [`run`]: Daemon::run
    pub fn new(config: DaemonConfig) -> Daemon {
        Daemon {
            state: Arc::new(State {
                config,
                table: Mutex::new(SlotMap::new()),
                datasets: Mutex::new(Vec::new()),
                meta: Mutex::new(Vec::new()),
                subscribers: Mutex::new(Vec::new()),
                epoch: AtomicU64::new(0),
                last_merged: Mutex::new(ProfileInformation::empty()),
                mixed_warned: AtomicBool::new(false),
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// Asks a daemon listening on `socket` to merge once more, write the
    /// canonical profile, and exit. Returns once the request is sent.
    pub fn request_shutdown(socket: impl AsRef<Path>) -> Result<(), WireError> {
        let mut stream = UnixStream::connect(socket.as_ref())?;
        wire::write_frame(&mut stream, &Frame::Shutdown)
    }

    /// Binds the socket and serves until shut down. The final merge (and
    /// canonical profile write) happens before this returns, so a profile
    /// file exists even for runs shorter than one merge interval.
    pub fn run(&self) -> Result<(), DaemonError> {
        let state = &self.state;
        // A daemon that died uncleanly leaves its socket file behind;
        // binding over it is the recovery path.
        if state.config.socket.exists() {
            std::fs::remove_file(&state.config.socket)?;
        }
        let listener = UnixListener::bind(&state.config.socket)?;
        listener.set_nonblocking(true)?;
        // The daemon's own correlation id, visible on the metrics
        // endpoint so a scrape can be joined to merged traces.
        observe::metrics().gauge_set("profiled.inst", observe::instance_id() as f64);
        let mut last_merge = Instant::now();
        let mut serving = Vec::new();
        while !state.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let state = Arc::clone(state);
                    serving.push(std::thread::spawn(move || serve_connection(&state, stream)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e.into()),
            }
            if last_merge.elapsed() >= state.config.merge_interval {
                merge_epoch(state, false)?;
                last_merge = Instant::now();
            }
            serving.retain(|h| !h.is_finished());
        }
        // Give in-flight connection threads a moment to drain their
        // streams before the final merge; each polls the shutdown flag
        // on a short read timeout, so this converges quickly.
        for handle in serving {
            let _ = handle.join();
        }
        merge_epoch(state, true)?;
        let _ = std::fs::remove_file(&state.config.socket);
        Ok(())
    }

    /// Merge epochs completed so far.
    pub fn epochs(&self) -> u64 {
        self.state.epoch.load(Ordering::SeqCst)
    }
}

/// One connection, one thread, frames processed strictly in order —
/// which is what makes [`Frame::Bye`] a drain barrier: by the time the
/// daemon acks it, every earlier delta on this connection is in the
/// dataset array.
fn serve_connection(state: &Arc<State>, mut stream: UnixStream) {
    // Short read timeouts let the thread notice daemon shutdown even
    // when the peer goes quiet without disconnecting; the FrameReader
    // keeps partially received frames across those timeouts.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut reader = match stream.try_clone() {
        Ok(read_half) => wire::FrameReader::new(read_half),
        Err(_) => return,
    };
    let hello = loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match reader.next_frame() {
            Ok(Frame::Hello(h)) => break h,
            Ok(Frame::Shutdown) => {
                state.shutdown.store(true, Ordering::SeqCst);
                return;
            }
            Ok(_) => {
                refuse(&mut stream, "expected hello");
                return;
            }
            Err(WireError::Io(e)) if would_block(&e) => continue,
            Err(_) => {
                refuse(&mut stream, "malformed handshake");
                return;
            }
        }
    };
    match hello.role {
        Role::Publisher => serve_publisher(state, stream, reader, hello),
        Role::Subscriber => serve_subscriber(state, stream, reader, &hello),
    }
}

fn serve_publisher(
    state: &Arc<State>,
    mut stream: UnixStream,
    mut reader: wire::FrameReader<UnixStream>,
    hello: Hello,
) {
    let client_table = match SlotMap::from_points(hello.points) {
        Ok(t) => t,
        Err(dup) => {
            refuse(&mut stream, &format!("duplicate profile point `{dup}`"));
            return;
        }
    };
    // The handshake's slot-table gate: the same `check_mergeable` policy
    // as `pgmp-profile merge`. Order-compatible tables take the
    // zero-translation path; tables that interned the same points in a
    // different order (dense slots are assigned partly at first
    // execution, so a skewed workload reorders them) get a per-connection
    // remap, keeping the hot path integer-only. Only a table sharing no
    // point with the canonical one — a different program — is refused.
    let client_slots = client_table.len();
    let (dataset, array, remap) = {
        let mut table = state.table.lock().expect("slot table lock poisoned");
        let remap = match table.check_mergeable(&client_table) {
            Ok(pgmp_profiler::SlotCompat::Extends) => {
                for p in client_table.points() {
                    table.resolve(*p);
                }
                None
            }
            Ok(pgmp_profiler::SlotCompat::Rekey(divergence)) => {
                observe::metrics().counter_add("profiled.handshake_remaps", 1);
                eprintln!(
                    "pgmp-profiled: publisher pid {} re-keyed ({divergence})",
                    hello.pid
                );
                Some(
                    client_table
                        .points()
                        .iter()
                        .map(|p| table.resolve(*p))
                        .collect::<Vec<u32>>(),
                )
            }
            Err(mismatch) => {
                drop(table);
                refuse(&mut stream, &mismatch.to_string());
                observe::metrics().counter_add("profiled.handshake_rejects", 1);
                return;
            }
        };
        let mut datasets = state.datasets.lock().expect("datasets lock poisoned");
        let mut meta = state.meta.lock().expect("meta lock poisoned");
        // A publisher that reconnects resumes its own dataset: its deltas
        // continue one cumulative count, which the merge weighs once.
        // Instance 0 (a v1 client) names no one.
        let resumed = match hello.inst {
            0 => None,
            inst => meta.iter().position(|m| m.peer_inst == inst),
        };
        let dataset = match resumed {
            Some(dataset) => {
                observe::metrics().counter_add("profiled.resumed_datasets", 1);
                dataset
            }
            None => {
                datasets.push(Arc::new(AtomicSlotArray::new()));
                meta.push(PublisherMeta {
                    peer_inst: hello.inst,
                    sampled_hz: hello.sampled_hz,
                });
                datasets.len() - 1
            }
        };
        (dataset as u32, Arc::clone(&datasets[dataset]), remap)
    };
    // The daemon half of the correlation handshake: this event and the
    // client's `fleet_connect` carry each other's instance ids, giving
    // `pgmp-trace merge` its cross-process happens-before edge.
    observe::emit(observe::EventKind::FleetHello {
        role: "publisher".to_string(),
        peer_inst: hello.inst,
        dataset,
    });
    let ack = Frame::Ack(Ack {
        dataset,
        epoch: state.epoch.load(Ordering::SeqCst),
        inst: observe::instance_id(),
    });
    if wire::write_frame(&mut stream, &ack).is_err() {
        return;
    }
    observe::metrics().counter_add("profiled.publishers", 1);
    if hello.sampled_hz > 0 {
        observe::metrics().gauge_set(
            &format!("profiled.provenance_sampled_hz.{dataset}"),
            f64::from(hello.sampled_hz),
        );
    }
    loop {
        match reader.next_frame() {
            Ok(Frame::Delta(delta)) => {
                let mut hits = 0u64;
                for (slot, count) in &delta.counts {
                    // Every slot must come from the handshake table — the
                    // canonical table can only attribute those.
                    if *slot as usize >= client_slots {
                        refuse(
                            &mut stream,
                            &format!(
                                "delta slot {slot} outside the {client_slots}-slot handshake table"
                            ),
                        );
                        return;
                    }
                    let canonical = match &remap {
                        Some(m) => m[*slot as usize],
                        None => *slot,
                    };
                    array.add(canonical, *count);
                    hits += count;
                }
                observe::emit(observe::EventKind::IngestBatch {
                    dataset,
                    epoch: delta.epoch,
                    slots: delta.counts.len() as u32,
                    hits,
                    peer_inst: hello.inst,
                });
                let m = observe::metrics();
                m.counter_add("profiled.ingest_batches", 1);
                m.counter_add("profiled.ingest_hits", hits);
            }
            Ok(Frame::Bye(_)) => {
                let _ = wire::write_frame(
                    &mut stream,
                    &Frame::Ack(Ack {
                        dataset,
                        epoch: state.epoch.load(Ordering::SeqCst),
                        inst: observe::instance_id(),
                    }),
                );
                return;
            }
            Ok(Frame::Shutdown) => {
                state.shutdown.store(true, Ordering::SeqCst);
                return;
            }
            Ok(_) => {
                refuse(&mut stream, "unexpected frame from publisher");
                return;
            }
            Err(WireError::Io(e)) if would_block(&e) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return, // disconnect or garbage: dataset stays
        }
    }
}

fn serve_subscriber(
    state: &Arc<State>,
    mut stream: UnixStream,
    mut reader: wire::FrameReader<UnixStream>,
    hello: &Hello,
) {
    observe::emit(observe::EventKind::FleetHello {
        role: "subscriber".to_string(),
        peer_inst: hello.inst,
        dataset: 0,
    });
    let ack = Frame::Ack(Ack {
        dataset: 0,
        epoch: state.epoch.load(Ordering::SeqCst),
        inst: observe::instance_id(),
    });
    if wire::write_frame(&mut stream, &ack).is_err() {
        return;
    }
    if let Ok(writer) = stream.try_clone() {
        state
            .subscribers
            .lock()
            .expect("subscribers lock poisoned")
            .push(writer);
        observe::metrics().counter_add("profiled.subscribers", 1);
    }
    // Hold the read side to notice disconnect (broadcast drops the
    // write side on error) and to accept a shutdown request.
    loop {
        match reader.next_frame() {
            Ok(Frame::Shutdown) => {
                state.shutdown.store(true, Ordering::SeqCst);
                return;
            }
            Ok(Frame::Bye(_)) => return,
            Err(WireError::Io(e)) if would_block(&e) && state.shutdown.load(Ordering::SeqCst) => {
                return;
            }
            Err(WireError::Io(e)) if would_block(&e) => {} // quiet peer: poll again
            Err(_) => return,
            _ => {}
        }
    }
}

/// One §3.2 merge: snapshot every dataset, fold, write, broadcast.
/// `force_write` (the shutdown path) writes the canonical profile even
/// when no dataset has any hits yet, so the file always exists.
fn merge_epoch(state: &Arc<State>, force_write: bool) -> Result<(), DaemonError> {
    let table = state
        .table
        .lock()
        .expect("slot table lock poisoned")
        .clone();
    let (arrays, meta) = {
        let datasets = state.datasets.lock().expect("datasets lock poisoned");
        let meta = state.meta.lock().expect("meta lock poisoned");
        (datasets.clone(), meta.clone())
    };
    let m = observe::metrics();
    let mut datasets = Vec::new();
    let mut participating: Vec<usize> = Vec::new();
    for (i, array) in arrays.iter().enumerate() {
        let mut d = Dataset::new();
        let mut hits = 0u64;
        for slot in 0..table.len() as u32 {
            // `get`, not `take`: datasets are cumulative so the merge
            // always equals the offline merge of full per-process runs.
            let count = array.get(slot);
            if count > 0 {
                d.record(table.point(slot), count);
                hits += count;
            }
        }
        if !d.is_empty() {
            // Per-publisher fleet gauges, keyed by dataset id: the
            // cumulative hits and the publisher's correlation id, so a
            // metrics scrape can be joined to merged traces.
            m.gauge_set(&format!("profiled.dataset_hits.{i}"), hits as f64);
            if let Some(pm) = meta.get(i) {
                m.gauge_set(&format!("profiled.dataset_inst.{i}"), pm.peer_inst as f64);
            }
            participating.push(i);
            datasets.push(d);
        }
    }
    if datasets.is_empty() && !force_write {
        return Ok(());
    }
    // The merge span: everything from the fold to the canonical write
    // is one timed `merge` event (snapshotting above is excluded so an
    // idle tick leaves no half-open span behind).
    let span = observe::timer();
    let merged = datasets
        .iter()
        .map(ProfileInformation::from_dataset)
        .reduce(|acc, info| acc.merge(&info))
        .unwrap_or_else(ProfileInformation::empty);
    let (l1, tv) = {
        let last = state.last_merged.lock().expect("last-merged lock poisoned");
        (
            drift(&merged, &last, DriftMetric::L1),
            drift(&merged, &last, DriftMetric::TotalVariation),
        )
    };
    let epoch = state.epoch.fetch_add(1, Ordering::SeqCst) + 1;
    // Provenance of the canonical profile, from the handshake-declared
    // provenance of every dataset that contributed: a uniform fleet
    // carries its provenance through; a mix of exact counters and
    // sampled estimates degrades to implicit exact with a warning —
    // the same policy as `pgmp-profile merge`.
    let mut provs: Vec<Provenance> = Vec::new();
    for &i in &participating {
        let p = match meta.get(i) {
            Some(pm) if pm.sampled_hz > 0 => Provenance::Sampled { hz: pm.sampled_hz },
            _ => Provenance::Exact,
        };
        if !provs.contains(&p) {
            provs.push(p);
        }
    }
    let provenance = match provs.as_slice() {
        [] => Provenance::Exact,
        [one] => *one,
        mixed => {
            m.counter_add("profiled.mixed_provenance_merges", 1);
            if !state.mixed_warned.swap(true, Ordering::SeqCst) {
                eprintln!(
                    "pgmp-profiled: warning: fleet mixes publisher provenances ({}); \
                     merged weights inherit the estimates' sampling error",
                    mixed
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(" + ")
                );
            }
            Provenance::Exact
        }
    };
    let stored = StoredProfile::v2(merged.clone(), Some(table)).with_provenance(provenance);
    stored.store_file(&state.config.profile)?;
    observe::finish(span, |duration_us| observe::EventKind::Merge {
        epoch,
        datasets: datasets.len() as u32,
        points: merged.len() as u32,
        l1,
        tv,
        duration_us,
    });
    m.counter_add("profiled.merges", 1);
    m.gauge_set("profiled.fleet_l1", l1);
    m.gauge_set("profiled.fleet_tv", tv);
    m.gauge_set("profiled.datasets", datasets.len() as f64);
    m.gauge_set(
        "profiled.merged_sampled_hz",
        match provenance {
            Provenance::Sampled { hz } => f64::from(hz),
            _ => 0.0,
        },
    );
    *state.last_merged.lock().expect("last-merged lock poisoned") = merged.clone();

    let update = Frame::Epoch(EpochUpdate {
        epoch,
        inst: observe::instance_id(),
        datasets: datasets.len() as u32,
        points: merged.len() as u32,
        l1,
        tv,
        path: state.config.profile.display().to_string(),
        profile: stored.store_to_string(),
    });
    let bytes = update.encode();
    let mut subscribers = state.subscribers.lock().expect("subscribers lock poisoned");
    let before = subscribers.len();
    subscribers.retain_mut(|s| io::Write::write_all(s, &bytes).is_ok());
    let reached = subscribers.len();
    drop(subscribers);
    if before > 0 {
        observe::emit(observe::EventKind::Broadcast {
            epoch,
            subscribers: reached as u32,
            bytes: (bytes.len() * reached) as u64,
        });
    }
    Ok(())
}

fn refuse(stream: &mut UnixStream, reason: &str) {
    let _ = wire::write_frame(stream, &Frame::Error(reason.to_string()));
}

fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}
