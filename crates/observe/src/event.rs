//! The typed trace events and their versioned JSONL encoding.
//!
//! Every event serializes to one JSON object per line with a fixed field
//! order: `v` (schema version, currently [`SCHEMA_VERSION`]), `seq`
//! (monotone per recording), `t_us` (microseconds since the recording
//! started), `inst` (the process instance id), then — only when present
//! — `span` and `parent` (the span-hierarchy ids), `type` (the kind
//! tag), and the kind-specific fields in declaration order. The encoding
//! is fixture-pinned by `tests/schema.rs`: changing any field name,
//! order, or number formatting is a schema break and must bump
//! [`SCHEMA_VERSION`].
//!
//! The reader accepts every version from [`MIN_SCHEMA_VERSION`] up:
//! v1 lines (no `inst`/`span`/`parent`) decode with `inst = 0` and no
//! span links, so pre-v2 traces keep working everywhere.

use crate::json::Json;

/// Version stamped into every event line as `"v"`.
///
/// v2 (this version) added cross-process correlation: the `inst`
/// process instance id on every event, optional `span`/`parent` span
/// hierarchy ids, the fleet correlation events (`publish_delta`,
/// `fleet_hello`, `fleet_connect`, `fleet_apply`), and the
/// `peer_inst` join key on `ingest_batch`.
pub const SCHEMA_VERSION: u64 = 2;

/// Oldest schema version [`TraceEvent::from_json`] still decodes.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// One recorded event: bus-assigned sequencing plus the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotone sequence number within one recording (gaps mean the ring
    /// buffer dropped events).
    pub seq: u64,
    /// Microseconds since the recording started.
    pub t_us: u64,
    /// Process instance id of the emitting process (see
    /// `pgmp_observe::instance_id`); `0` in v1 traces, where it was not
    /// recorded. `(inst, seq)` identifies an event across merged traces.
    pub inst: u64,
    /// Span id for span-like events (assigned by the bus when the span
    /// opened); `None` for point events and v1 traces.
    pub span: Option<u64>,
    /// Span id of the enclosing span on the emitting thread; `None` at
    /// top level and in v1 traces.
    pub parent: Option<u64>,
    pub kind: EventKind,
}

impl TraceEvent {
    /// A bare event with no instance id or span links — the shape every
    /// v1 trace decodes to, and the natural constructor for tests.
    pub fn new(seq: u64, t_us: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            t_us,
            inst: 0,
            span: None,
            parent: None,
            kind,
        }
    }
}

/// One alternative considered by a profile-guided decision: a printable
/// label (usually the clause/arm datum) and the weight consulted for it,
/// `None` when no profile data covered it.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionAlt {
    pub label: String,
    pub weight: Option<f64>,
}

/// The typed event payloads. Span-like events carry their own
/// `duration_us`; they are emitted at close.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The expander finished one toplevel form (a per-form expansion span).
    ExpandForm {
        /// Source file of the form (or `<none>` for synthetic forms).
        file: String,
        /// Toplevel index of the form within this expansion run.
        index: u32,
        duration_us: u64,
    },
    /// A meta-program called `profile-query` (the Figure 4 API).
    ProfileQuery {
        /// The profile point, printed as `file:bfp-efp`.
        point: String,
        /// The weight returned, `None` when the profile had no entry.
        weight: Option<f64>,
        /// Whether any profile dataset was loaded at query time.
        available: bool,
    },
    /// A meta-program called `profile-count` (raw, volatile counts).
    ProfileCount { point: String, count: Option<f64> },
    /// A meta-program called `profile-data-available?`.
    AvailabilityCheck { available: bool },
    /// The incremental cache served a form without re-expansion.
    CacheHit { form: u32 },
    /// The incremental cache re-expanded a form; `reason` says why (see
    /// `docs/OBSERVABILITY.md` for the vocabulary: `first-compile`,
    /// `source-changed`, `drifted-point:<p>`, `availability-flip`,
    /// `whole-profile`, `volatile-reads`, `meta-dirty`,
    /// `factory-mismatch`).
    CacheMiss { form: u32, reason: String },
    /// One full `IncrementalEngine::compile` pass (span).
    IncrementalCompile {
        forms: u32,
        reused: u32,
        reexpanded: u32,
        duration_us: u64,
    },
    /// One adaptive epoch (span over drain + absorb + drift decision).
    Epoch {
        epoch: u64,
        /// Counter hits drained this epoch.
        hits: u64,
        /// Drift score vs the last-optimized baseline.
        drift: f64,
        /// Whether the raw drift threshold was exceeded.
        fired: bool,
        /// Whether re-optimization actually ran (post-hysteresis).
        reoptimized: bool,
        /// Program generation after this epoch.
        generation: u64,
        /// Consecutive over-threshold epochs (hysteresis state).
        streak: u32,
        /// Epochs of cooldown remaining (hysteresis state).
        cooldown: u32,
        /// Coalescing-writer flushes observed this epoch.
        flush_writes: u64,
        /// Writes merged by coalescing before reaching shared counters.
        flush_merged: u64,
        duration_us: u64,
    },
    /// One adaptive re-optimization (span): recompile plus program swap.
    Reoptimize {
        generation: u64,
        reused: u32,
        reexpanded: u32,
        duration_us: u64,
        /// Time spent holding the program lock to swap in the new
        /// program (the reader-visible stall).
        swap_us: u64,
    },
    /// One engine run of a program (span).
    Run {
        file: String,
        /// Instrumentation mode: `none`, `every-expression`, `calls-only`.
        mode: String,
        duration_us: u64,
    },
    /// Eager profile-point slot resolution before a run (span).
    SlotResolve { resolved: u32, duration_us: u64 },
    /// One VM `run_chunk` call (span).
    VmRun {
        chunk: u32,
        /// Basic blocks executed during this call.
        blocks: u64,
        duration_us: u64,
    },
    /// One chunk lowered to a flat op stream for direct-threaded
    /// dispatch (span).
    VmLower {
        chunk: u32,
        /// Ops in the lowered stream.
        ops: u64,
        /// Always 0: the VM has one lowering and fuses nothing. Kept so
        /// the schema stays unchanged.
        fused: u32,
        duration_us: u64,
    },
    /// Drift-driven re-layout: live chunks re-laid-out with current
    /// block counters after an adaptive reoptimization (span).
    LayoutReoptimize {
        generation: u64,
        /// Chunks whose block order was recomputed.
        chunks: u32,
        duration_us: u64,
    },
    /// The persistence layer wrote a file (profile, session, snapshot).
    StoreWrite {
        path: String,
        /// Payload kind: `profile-v1`, `profile-v2`, `session`, `snapshot`,
        /// `trace`, `metrics`.
        kind: String,
        bytes: u64,
        duration_us: u64,
    },
    /// The persistence layer read a file.
    StoreRead {
        path: String,
        kind: String,
        bytes: u64,
        duration_us: u64,
    },
    /// The profile daemon absorbed one delta frame from a publisher.
    IngestBatch {
        /// Daemon-assigned dataset id of the publishing connection.
        dataset: u32,
        /// The publisher's epoch counter at flush time.
        epoch: u64,
        /// Distinct slots carried by the frame.
        slots: u32,
        /// Total hits carried by the frame (sum of counts).
        hits: u64,
        /// Instance id of the publishing process (0 when the publisher
        /// spoke wire v1 and never declared one). With `epoch` this is
        /// the join key back to the publisher's `publish_delta` event.
        peer_inst: u64,
    },
    /// The profile daemon merged every dataset into the canonical
    /// profile (span over snapshot + §3.2 merge + atomic write).
    Merge {
        /// Daemon merge epoch (monotone).
        epoch: u64,
        /// Datasets participating in the merge.
        datasets: u32,
        /// Profile points in the merged result.
        points: u32,
        /// L1 drift of the merged weights vs the previous merge.
        l1: f64,
        /// Total-variation drift vs the previous merge.
        tv: f64,
        duration_us: u64,
    },
    /// The profile daemon pushed an epoch update to its subscribers.
    Broadcast {
        /// Daemon merge epoch being broadcast.
        epoch: u64,
        /// Subscribers the frame was written to.
        subscribers: u32,
        /// Encoded frame size in bytes.
        bytes: u64,
    },
    /// A bounded channel was full and payload was dropped instead of
    /// blocking the producer. `channel` names the channel (`trace`,
    /// `publish`); `dropped` counts the items lost in this instance.
    BackpressureDrop { channel: String, dropped: u64 },
    /// Optimization-decision provenance: a profile-guided macro chose
    /// among alternatives. `alternatives` lists every option in source
    /// order with the weight consulted; `chosen` lists labels in the
    /// order the macro emitted them; `rank` is the source-order position
    /// of `chosen[0]` (0-based), so `rank > 0` means the profile
    /// reordered the code.
    Decision {
        /// Which decision site: `exclusive-cond`, `case`,
        /// `receiver-prediction`, `datastructure`.
        site: String,
        /// Source span of the form the decision applies to.
        decision_point: String,
        alternatives: Vec<DecisionAlt>,
        chosen: Vec<String>,
        rank: u32,
    },
    /// Sampling-profiler summary, emitted once when a sampler stops (the
    /// tick path itself never touches the event bus). `ticks = hits +
    /// missed`: `hits` tallied a published position, `missed` found the
    /// beacon idle.
    SamplerTick {
        /// Configured tick rate (0 when driven manually).
        hz: u32,
        ticks: u64,
        hits: u64,
        missed: u64,
    },
    /// Stale-profile rebasing re-anchored (or killed) one profile point
    /// (`pgmp-profile rebase`; see `docs/REBASE.md`).
    ProfileRebase {
        /// The point in the old profile, printed as `file:bfp-efp`.
        point: String,
        /// Where it re-anchored in the edited source; `None` when dead.
        new_point: Option<String>,
        /// Matcher tier: `exact`, `shifted`, `structural`, `dead`.
        tier: String,
        /// Match confidence of this rebase step (1.0 exact/shifted,
        /// 0.0 dead).
        confidence: f64,
        old_weight: f64,
        /// `old_weight × confidence` — never larger than `old_weight`.
        new_weight: f64,
    },
    /// A fleet publisher flushed one delta frame to the daemon (the
    /// success-path twin of `backpressure_drop`). `(inst, epoch)` of
    /// this event joins to the daemon's `ingest_batch`
    /// `(peer_inst, epoch)`.
    PublishDelta {
        /// The publisher's own epoch counter for this flush.
        epoch: u64,
        /// Distinct slots carried by the frame.
        slots: u32,
        /// Total hits carried by the frame (sum of counts).
        hits: u64,
    },
    /// The daemon completed a handshake (`Hello`/`Ack`) with a peer.
    /// Happens-before the peer's matching `fleet_connect`.
    FleetHello {
        /// Peer role as declared in `Hello`: `publisher`, `subscriber`.
        role: String,
        /// Instance id the peer declared (0 for wire-v1 peers).
        peer_inst: u64,
        /// Dataset id assigned to a publisher; 0 for subscribers.
        dataset: u32,
    },
    /// A client (publisher or subscriber) received the daemon's `Ack`.
    /// Happens-after the daemon's matching `fleet_hello`.
    FleetConnect {
        /// This client's role: `publisher`, `subscriber`.
        role: String,
        /// The daemon's instance id from `Ack` (0 for wire-v1 daemons).
        daemon_inst: u64,
        /// Dataset id the daemon assigned; 0 for subscribers.
        dataset: u32,
    },
    /// A subscriber applied a fleet epoch to its adaptive engine.
    /// Happens-after the daemon's `merge` with the same
    /// `(daemon_inst, epoch)`; the subscriber's `reoptimize` (if drift
    /// fired) follows in the same trace.
    FleetApply {
        /// Instance id of the daemon that merged this epoch (0 when
        /// unknown, e.g. a wire-v1 daemon).
        daemon_inst: u64,
        /// The daemon's merge epoch being applied.
        epoch: u64,
        /// Fleet drift vs the engine's last-optimized baseline.
        drift: f64,
        /// Whether the drift threshold fired a reoptimization.
        reoptimized: bool,
    },
}

impl EventKind {
    /// The `"type"` tag used on the wire.
    pub fn type_tag(&self) -> &'static str {
        match self {
            EventKind::ExpandForm { .. } => "expand_form",
            EventKind::ProfileQuery { .. } => "profile_query",
            EventKind::ProfileCount { .. } => "profile_count",
            EventKind::AvailabilityCheck { .. } => "availability",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::IncrementalCompile { .. } => "incremental_compile",
            EventKind::Epoch { .. } => "epoch",
            EventKind::Reoptimize { .. } => "reoptimize",
            EventKind::Run { .. } => "run",
            EventKind::SlotResolve { .. } => "slot_resolve",
            EventKind::VmRun { .. } => "vm_run",
            EventKind::VmLower { .. } => "vm_lower",
            EventKind::LayoutReoptimize { .. } => "layout_reoptimize",
            EventKind::StoreWrite { .. } => "store_write",
            EventKind::StoreRead { .. } => "store_read",
            EventKind::IngestBatch { .. } => "ingest_batch",
            EventKind::Merge { .. } => "merge",
            EventKind::Broadcast { .. } => "broadcast",
            EventKind::BackpressureDrop { .. } => "backpressure_drop",
            EventKind::Decision { .. } => "decision",
            EventKind::SamplerTick { .. } => "sampler_tick",
            EventKind::ProfileRebase { .. } => "profile_rebase",
            EventKind::PublishDelta { .. } => "publish_delta",
            EventKind::FleetHello { .. } => "fleet_hello",
            EventKind::FleetConnect { .. } => "fleet_connect",
            EventKind::FleetApply { .. } => "fleet_apply",
        }
    }

    /// The span duration for span-like events, `None` for point events.
    pub fn duration_us(&self) -> Option<u64> {
        match self {
            EventKind::ExpandForm { duration_us, .. }
            | EventKind::IncrementalCompile { duration_us, .. }
            | EventKind::Epoch { duration_us, .. }
            | EventKind::Reoptimize { duration_us, .. }
            | EventKind::Run { duration_us, .. }
            | EventKind::SlotResolve { duration_us, .. }
            | EventKind::VmRun { duration_us, .. }
            | EventKind::VmLower { duration_us, .. }
            | EventKind::LayoutReoptimize { duration_us, .. }
            | EventKind::StoreWrite { duration_us, .. }
            | EventKind::StoreRead { duration_us, .. }
            | EventKind::Merge { duration_us, .. } => Some(*duration_us),
            _ => None,
        }
    }
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

fn opt_f64(v: Option<f64>) -> Json {
    match v {
        Some(x) => Json::Num(x),
        None => Json::Null,
    }
}

impl TraceEvent {
    /// Encodes the event as its canonical single-line JSON form (no
    /// trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut fields: Vec<(String, Json)> = vec![
            ("v".into(), num(SCHEMA_VERSION)),
            ("seq".into(), num(self.seq)),
            ("t_us".into(), num(self.t_us)),
            ("inst".into(), num(self.inst)),
        ];
        if let Some(span) = self.span {
            fields.push(("span".into(), num(span)));
        }
        if let Some(parent) = self.parent {
            fields.push(("parent".into(), num(parent)));
        }
        fields.push(("type".into(), Json::Str(self.kind.type_tag().into())));
        let mut push = |k: &str, v: Json| fields.push((k.into(), v));
        match &self.kind {
            EventKind::ExpandForm {
                file,
                index,
                duration_us,
            } => {
                push("file", Json::Str(file.clone()));
                push("index", num(*index as u64));
                push("duration_us", num(*duration_us));
            }
            EventKind::ProfileQuery {
                point,
                weight,
                available,
            } => {
                push("point", Json::Str(point.clone()));
                push("weight", opt_f64(*weight));
                push("available", Json::Bool(*available));
            }
            EventKind::ProfileCount { point, count } => {
                push("point", Json::Str(point.clone()));
                push("count", opt_f64(*count));
            }
            EventKind::AvailabilityCheck { available } => {
                push("available", Json::Bool(*available));
            }
            EventKind::CacheHit { form } => push("form", num(*form as u64)),
            EventKind::CacheMiss { form, reason } => {
                push("form", num(*form as u64));
                push("reason", Json::Str(reason.clone()));
            }
            EventKind::IncrementalCompile {
                forms,
                reused,
                reexpanded,
                duration_us,
            } => {
                push("forms", num(*forms as u64));
                push("reused", num(*reused as u64));
                push("reexpanded", num(*reexpanded as u64));
                push("duration_us", num(*duration_us));
            }
            EventKind::Epoch {
                epoch,
                hits,
                drift,
                fired,
                reoptimized,
                generation,
                streak,
                cooldown,
                flush_writes,
                flush_merged,
                duration_us,
            } => {
                push("epoch", num(*epoch));
                push("hits", num(*hits));
                push("drift", Json::Num(*drift));
                push("fired", Json::Bool(*fired));
                push("reoptimized", Json::Bool(*reoptimized));
                push("generation", num(*generation));
                push("streak", num(*streak as u64));
                push("cooldown", num(*cooldown as u64));
                push("flush_writes", num(*flush_writes));
                push("flush_merged", num(*flush_merged));
                push("duration_us", num(*duration_us));
            }
            EventKind::Reoptimize {
                generation,
                reused,
                reexpanded,
                duration_us,
                swap_us,
            } => {
                push("generation", num(*generation));
                push("reused", num(*reused as u64));
                push("reexpanded", num(*reexpanded as u64));
                push("duration_us", num(*duration_us));
                push("swap_us", num(*swap_us));
            }
            EventKind::Run {
                file,
                mode,
                duration_us,
            } => {
                push("file", Json::Str(file.clone()));
                push("mode", Json::Str(mode.clone()));
                push("duration_us", num(*duration_us));
            }
            EventKind::SlotResolve {
                resolved,
                duration_us,
            } => {
                push("resolved", num(*resolved as u64));
                push("duration_us", num(*duration_us));
            }
            EventKind::VmRun {
                chunk,
                blocks,
                duration_us,
            } => {
                push("chunk", num(*chunk as u64));
                push("blocks", num(*blocks));
                push("duration_us", num(*duration_us));
            }
            EventKind::VmLower {
                chunk,
                ops,
                fused,
                duration_us,
            } => {
                push("chunk", num(*chunk as u64));
                push("ops", num(*ops));
                push("fused", num(*fused as u64));
                push("duration_us", num(*duration_us));
            }
            EventKind::LayoutReoptimize {
                generation,
                chunks,
                duration_us,
            } => {
                push("generation", num(*generation));
                push("chunks", num(*chunks as u64));
                push("duration_us", num(*duration_us));
            }
            EventKind::StoreWrite {
                path,
                kind,
                bytes,
                duration_us,
            }
            | EventKind::StoreRead {
                path,
                kind,
                bytes,
                duration_us,
            } => {
                push("path", Json::Str(path.clone()));
                push("kind", Json::Str(kind.clone()));
                push("bytes", num(*bytes));
                push("duration_us", num(*duration_us));
            }
            EventKind::IngestBatch {
                dataset,
                epoch,
                slots,
                hits,
                peer_inst,
            } => {
                push("dataset", num(*dataset as u64));
                push("epoch", num(*epoch));
                push("slots", num(*slots as u64));
                push("hits", num(*hits));
                push("peer_inst", num(*peer_inst));
            }
            EventKind::Merge {
                epoch,
                datasets,
                points,
                l1,
                tv,
                duration_us,
            } => {
                push("epoch", num(*epoch));
                push("datasets", num(*datasets as u64));
                push("points", num(*points as u64));
                push("l1", Json::Num(*l1));
                push("tv", Json::Num(*tv));
                push("duration_us", num(*duration_us));
            }
            EventKind::Broadcast {
                epoch,
                subscribers,
                bytes,
            } => {
                push("epoch", num(*epoch));
                push("subscribers", num(*subscribers as u64));
                push("bytes", num(*bytes));
            }
            EventKind::BackpressureDrop { channel, dropped } => {
                push("channel", Json::Str(channel.clone()));
                push("dropped", num(*dropped));
            }
            EventKind::Decision {
                site,
                decision_point,
                alternatives,
                chosen,
                rank,
            } => {
                push("site", Json::Str(site.clone()));
                push("decision_point", Json::Str(decision_point.clone()));
                push(
                    "alternatives",
                    Json::Arr(
                        alternatives
                            .iter()
                            .map(|a| {
                                Json::Obj(vec![
                                    ("label".into(), Json::Str(a.label.clone())),
                                    ("weight".into(), opt_f64(a.weight)),
                                ])
                            })
                            .collect(),
                    ),
                );
                push(
                    "chosen",
                    Json::Arr(chosen.iter().map(|c| Json::Str(c.clone())).collect()),
                );
                push("rank", num(*rank as u64));
            }
            EventKind::SamplerTick {
                hz,
                ticks,
                hits,
                missed,
            } => {
                push("hz", num(*hz as u64));
                push("ticks", num(*ticks));
                push("hits", num(*hits));
                push("missed", num(*missed));
            }
            EventKind::ProfileRebase {
                point,
                new_point,
                tier,
                confidence,
                old_weight,
                new_weight,
            } => {
                push("point", Json::Str(point.clone()));
                push(
                    "new_point",
                    match new_point {
                        Some(p) => Json::Str(p.clone()),
                        None => Json::Null,
                    },
                );
                push("tier", Json::Str(tier.clone()));
                push("confidence", Json::Num(*confidence));
                push("old_weight", Json::Num(*old_weight));
                push("new_weight", Json::Num(*new_weight));
            }
            EventKind::PublishDelta { epoch, slots, hits } => {
                push("epoch", num(*epoch));
                push("slots", num(*slots as u64));
                push("hits", num(*hits));
            }
            EventKind::FleetHello {
                role,
                peer_inst,
                dataset,
            } => {
                push("role", Json::Str(role.clone()));
                push("peer_inst", num(*peer_inst));
                push("dataset", num(*dataset as u64));
            }
            EventKind::FleetConnect {
                role,
                daemon_inst,
                dataset,
            } => {
                push("role", Json::Str(role.clone()));
                push("daemon_inst", num(*daemon_inst));
                push("dataset", num(*dataset as u64));
            }
            EventKind::FleetApply {
                daemon_inst,
                epoch,
                drift,
                reoptimized,
            } => {
                push("daemon_inst", num(*daemon_inst));
                push("epoch", num(*epoch));
                push("drift", Json::Num(*drift));
                push("reoptimized", Json::Bool(*reoptimized));
            }
        }
        Json::Obj(fields).to_string()
    }
}

/// A field-level decode failure (wrapped with line context by the reader).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// `"v"` was missing or not a supported version.
    BadVersion(String),
    /// A required field was absent.
    MissingField(&'static str),
    /// A field was present with the wrong JSON type or an invalid value.
    BadField(&'static str),
    /// The `"type"` tag named no known event kind.
    UnknownType(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadVersion(v) => write!(f, "unsupported schema version {v}"),
            DecodeError::MissingField(name) => write!(f, "missing field `{name}`"),
            DecodeError::BadField(name) => write!(f, "malformed field `{name}`"),
            DecodeError::UnknownType(t) => write!(f, "unknown event type `{t}`"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn get_u64(obj: &Json, name: &'static str) -> Result<u64, DecodeError> {
    obj.get(name)
        .ok_or(DecodeError::MissingField(name))?
        .as_u64()
        .ok_or(DecodeError::BadField(name))
}

fn get_u32(obj: &Json, name: &'static str) -> Result<u32, DecodeError> {
    u32::try_from(get_u64(obj, name)?).map_err(|_| DecodeError::BadField(name))
}

/// An optional numeric field with a default: absent decodes to `default`
/// (how v1 lines, which predate the field, read), present-but-malformed
/// is still a typed error.
fn get_u64_or(obj: &Json, name: &'static str, default: u64) -> Result<u64, DecodeError> {
    match obj.get(name) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or(DecodeError::BadField(name)),
    }
}

/// An optional numeric field: absent or `null` decodes to `None`.
fn get_opt_u64(obj: &Json, name: &'static str) -> Result<Option<u64>, DecodeError> {
    match obj.get(name) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or(DecodeError::BadField(name)),
    }
}

fn get_f64(obj: &Json, name: &'static str) -> Result<f64, DecodeError> {
    obj.get(name)
        .ok_or(DecodeError::MissingField(name))?
        .as_f64()
        .ok_or(DecodeError::BadField(name))
}

fn get_opt_f64(obj: &Json, name: &'static str) -> Result<Option<f64>, DecodeError> {
    match obj.get(name) {
        None => Err(DecodeError::MissingField(name)),
        Some(Json::Null) => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or(DecodeError::BadField(name)),
    }
}

fn get_str(obj: &Json, name: &'static str) -> Result<String, DecodeError> {
    obj.get(name)
        .ok_or(DecodeError::MissingField(name))?
        .as_str()
        .map(str::to_string)
        .ok_or(DecodeError::BadField(name))
}

fn get_bool(obj: &Json, name: &'static str) -> Result<bool, DecodeError> {
    obj.get(name)
        .ok_or(DecodeError::MissingField(name))?
        .as_bool()
        .ok_or(DecodeError::BadField(name))
}

impl TraceEvent {
    /// Decodes one parsed JSON object into a typed event. Accepts every
    /// schema version in `MIN_SCHEMA_VERSION..=SCHEMA_VERSION`: v1 lines
    /// decode with `inst = 0` and no span links.
    pub fn from_json(obj: &Json) -> Result<TraceEvent, DecodeError> {
        match obj.get("v") {
            Some(v)
                if v.as_u64()
                    .is_some_and(|v| (MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&v)) => {}
            Some(v) => return Err(DecodeError::BadVersion(v.to_string())),
            None => return Err(DecodeError::BadVersion("<missing>".into())),
        }
        let seq = get_u64(obj, "seq")?;
        let t_us = get_u64(obj, "t_us")?;
        let inst = get_u64_or(obj, "inst", 0)?;
        let span = get_opt_u64(obj, "span")?;
        let parent = get_opt_u64(obj, "parent")?;
        let ty = get_str(obj, "type")?;
        let kind = match ty.as_str() {
            "expand_form" => EventKind::ExpandForm {
                file: get_str(obj, "file")?,
                index: get_u32(obj, "index")?,
                duration_us: get_u64(obj, "duration_us")?,
            },
            "profile_query" => EventKind::ProfileQuery {
                point: get_str(obj, "point")?,
                weight: get_opt_f64(obj, "weight")?,
                available: get_bool(obj, "available")?,
            },
            "profile_count" => EventKind::ProfileCount {
                point: get_str(obj, "point")?,
                count: get_opt_f64(obj, "count")?,
            },
            "availability" => EventKind::AvailabilityCheck {
                available: get_bool(obj, "available")?,
            },
            "cache_hit" => EventKind::CacheHit {
                form: get_u32(obj, "form")?,
            },
            "cache_miss" => EventKind::CacheMiss {
                form: get_u32(obj, "form")?,
                reason: get_str(obj, "reason")?,
            },
            "incremental_compile" => EventKind::IncrementalCompile {
                forms: get_u32(obj, "forms")?,
                reused: get_u32(obj, "reused")?,
                reexpanded: get_u32(obj, "reexpanded")?,
                duration_us: get_u64(obj, "duration_us")?,
            },
            "epoch" => EventKind::Epoch {
                epoch: get_u64(obj, "epoch")?,
                hits: get_u64(obj, "hits")?,
                drift: get_f64(obj, "drift")?,
                fired: get_bool(obj, "fired")?,
                reoptimized: get_bool(obj, "reoptimized")?,
                generation: get_u64(obj, "generation")?,
                streak: get_u32(obj, "streak")?,
                cooldown: get_u32(obj, "cooldown")?,
                flush_writes: get_u64(obj, "flush_writes")?,
                flush_merged: get_u64(obj, "flush_merged")?,
                duration_us: get_u64(obj, "duration_us")?,
            },
            "reoptimize" => EventKind::Reoptimize {
                generation: get_u64(obj, "generation")?,
                reused: get_u32(obj, "reused")?,
                reexpanded: get_u32(obj, "reexpanded")?,
                duration_us: get_u64(obj, "duration_us")?,
                swap_us: get_u64(obj, "swap_us")?,
            },
            "run" => EventKind::Run {
                file: get_str(obj, "file")?,
                mode: get_str(obj, "mode")?,
                duration_us: get_u64(obj, "duration_us")?,
            },
            "slot_resolve" => EventKind::SlotResolve {
                resolved: get_u32(obj, "resolved")?,
                duration_us: get_u64(obj, "duration_us")?,
            },
            "vm_run" => EventKind::VmRun {
                chunk: get_u32(obj, "chunk")?,
                blocks: get_u64(obj, "blocks")?,
                duration_us: get_u64(obj, "duration_us")?,
            },
            "vm_lower" => EventKind::VmLower {
                chunk: get_u32(obj, "chunk")?,
                ops: get_u64(obj, "ops")?,
                fused: get_u32(obj, "fused")?,
                duration_us: get_u64(obj, "duration_us")?,
            },
            "layout_reoptimize" => EventKind::LayoutReoptimize {
                generation: get_u64(obj, "generation")?,
                chunks: get_u32(obj, "chunks")?,
                duration_us: get_u64(obj, "duration_us")?,
            },
            "store_write" => EventKind::StoreWrite {
                path: get_str(obj, "path")?,
                kind: get_str(obj, "kind")?,
                bytes: get_u64(obj, "bytes")?,
                duration_us: get_u64(obj, "duration_us")?,
            },
            "store_read" => EventKind::StoreRead {
                path: get_str(obj, "path")?,
                kind: get_str(obj, "kind")?,
                bytes: get_u64(obj, "bytes")?,
                duration_us: get_u64(obj, "duration_us")?,
            },
            "ingest_batch" => EventKind::IngestBatch {
                dataset: get_u32(obj, "dataset")?,
                epoch: get_u64(obj, "epoch")?,
                slots: get_u32(obj, "slots")?,
                hits: get_u64(obj, "hits")?,
                peer_inst: get_u64_or(obj, "peer_inst", 0)?,
            },
            "merge" => EventKind::Merge {
                epoch: get_u64(obj, "epoch")?,
                datasets: get_u32(obj, "datasets")?,
                points: get_u32(obj, "points")?,
                l1: get_f64(obj, "l1")?,
                tv: get_f64(obj, "tv")?,
                duration_us: get_u64(obj, "duration_us")?,
            },
            "broadcast" => EventKind::Broadcast {
                epoch: get_u64(obj, "epoch")?,
                subscribers: get_u32(obj, "subscribers")?,
                bytes: get_u64(obj, "bytes")?,
            },
            "backpressure_drop" => EventKind::BackpressureDrop {
                channel: get_str(obj, "channel")?,
                dropped: get_u64(obj, "dropped")?,
            },
            "decision" => {
                let alts = obj
                    .get("alternatives")
                    .ok_or(DecodeError::MissingField("alternatives"))?
                    .as_arr()
                    .ok_or(DecodeError::BadField("alternatives"))?
                    .iter()
                    .map(|a| {
                        Ok(DecisionAlt {
                            label: get_str(a, "label")?,
                            weight: get_opt_f64(a, "weight")?,
                        })
                    })
                    .collect::<Result<Vec<_>, DecodeError>>()?;
                let chosen = obj
                    .get("chosen")
                    .ok_or(DecodeError::MissingField("chosen"))?
                    .as_arr()
                    .ok_or(DecodeError::BadField("chosen"))?
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .map(str::to_string)
                            .ok_or(DecodeError::BadField("chosen"))
                    })
                    .collect::<Result<Vec<_>, DecodeError>>()?;
                EventKind::Decision {
                    site: get_str(obj, "site")?,
                    decision_point: get_str(obj, "decision_point")?,
                    alternatives: alts,
                    chosen,
                    rank: get_u32(obj, "rank")?,
                }
            }
            "sampler_tick" => EventKind::SamplerTick {
                hz: get_u32(obj, "hz")?,
                ticks: get_u64(obj, "ticks")?,
                hits: get_u64(obj, "hits")?,
                missed: get_u64(obj, "missed")?,
            },
            "profile_rebase" => EventKind::ProfileRebase {
                point: get_str(obj, "point")?,
                new_point: match obj.get("new_point") {
                    None => return Err(DecodeError::MissingField("new_point")),
                    Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_str()
                            .map(str::to_string)
                            .ok_or(DecodeError::BadField("new_point"))?,
                    ),
                },
                tier: get_str(obj, "tier")?,
                confidence: get_f64(obj, "confidence")?,
                old_weight: get_f64(obj, "old_weight")?,
                new_weight: get_f64(obj, "new_weight")?,
            },
            "publish_delta" => EventKind::PublishDelta {
                epoch: get_u64(obj, "epoch")?,
                slots: get_u32(obj, "slots")?,
                hits: get_u64(obj, "hits")?,
            },
            "fleet_hello" => EventKind::FleetHello {
                role: get_str(obj, "role")?,
                peer_inst: get_u64(obj, "peer_inst")?,
                dataset: get_u32(obj, "dataset")?,
            },
            "fleet_connect" => EventKind::FleetConnect {
                role: get_str(obj, "role")?,
                daemon_inst: get_u64(obj, "daemon_inst")?,
                dataset: get_u32(obj, "dataset")?,
            },
            "fleet_apply" => EventKind::FleetApply {
                daemon_inst: get_u64(obj, "daemon_inst")?,
                epoch: get_u64(obj, "epoch")?,
                drift: get_f64(obj, "drift")?,
                reoptimized: get_bool(obj, "reoptimized")?,
            },
            other => return Err(DecodeError::UnknownType(other.to_string())),
        };
        Ok(TraceEvent {
            seq,
            t_us,
            inst,
            span,
            parent,
            kind,
        })
    }
}
