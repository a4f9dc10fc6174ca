//! `pgmp-profiled` — the fleet-scale profile daemon.
//!
//! One machine, many runner processes, one canonical profile. Each
//! `pgmp-run` process profiles its own workload and streams **counter
//! deltas** — `(slot, u64)` pairs under the v2 dense slot table, no
//! strings on the hot path — over a local Unix-domain socket to a single
//! daemon. The daemon folds every process's stream into a per-dataset
//! [`pgmp_profiler::AtomicSlotArray`], periodically merges all datasets with
//! the paper's §3.2 dataset-weighted average, writes the canonical
//! [`pgmp_profiler::StoredProfile`] v2 atomically, and broadcasts each
//! merge epoch (merged weights plus L1/total-variation fleet drift,
//! measured with [`pgmp_profiler::drift`]) to subscribed processes, which
//! feed it straight into `pgmp_adaptive::AdaptiveEngine::apply_fleet_epoch`.
//!
//! The daemon is runtime-agnostic: it depends on `pgmp-profiler`,
//! `pgmp-observe` and `pgmp-syntax`, never on the compiler or on
//! `pgmp-adaptive`.
//!
//! The crate splits into:
//!
//! - [`wire`] — the versioned, length-prefixed frame protocol. JSON
//!   control frames (handshake, acks, epoch broadcasts) with the same
//!   strict typed-error discipline as `pgmp-observe`'s JSONL codec;
//!   a binary hot-path delta frame.
//! - [`daemon`] — the server: slot-table handshake gated on
//!   [`pgmp_profiler::SlotMap::check_compatible`], sharded atomic
//!   ingestion, the periodic merge/write/broadcast loop.
//! - [`client`] — [`client::Publisher`] (bounded, never blocks the
//!   interpreter; drops are counted exactly) and [`client::Subscriber`]
//!   (blocking epoch reader).
//!
//! The binary `pgmp-profiled` serves a socket; `pgmp-run --publish` /
//! `--subscribe` are the client ends. `docs/FLEET.md` is the normative
//! protocol and operations guide.

pub mod client;
pub mod daemon;
pub mod wire;

pub use client::{ClientError, PublishStats, Publisher, Subscriber};
pub use daemon::{Daemon, DaemonConfig, DaemonError};
pub use wire::{Ack, Delta, EpochUpdate, Frame, Hello, Role, WireError, MAX_FRAME_LEN};
