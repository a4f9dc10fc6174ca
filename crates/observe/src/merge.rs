//! Causal merging of per-process traces and collapsed-stack export.
//!
//! A fleet session produces one JSONL trace per process — the daemon,
//! each publisher, each subscriber. Wall-clock timestamps cannot order
//! them (`t_us` is relative to each recording's start, and fleet hosts
//! share no clock), but the wire protocol gives us real happens-before
//! edges:
//!
//! - a publisher's `publish_delta` `(inst, epoch)` precedes the daemon's
//!   `ingest_batch` with the same `(peer_inst, epoch)`;
//! - the daemon's `fleet_hello` for a peer precedes that peer's
//!   `fleet_connect` (the peer only emits it after reading `Ack`);
//! - the daemon's `merge` `(inst, epoch)` precedes every subscriber's
//!   `fleet_apply` with the same `(daemon_inst, epoch)`.
//!
//! [`merge_traces`] combines those cross-process edges with each trace's
//! own total order (its `seq` chain) and emits a deterministic
//! topological order — one causal timeline. [`collapse_stacks`] renders
//! the v2 span hierarchy (`span`/`parent` ids, qualified by `inst`) as
//! flamegraph-compatible collapsed-stack text.

use crate::{EventKind, TraceEvent};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

/// Merging failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The happens-before graph has a cycle — the inputs disagree about
    /// causality (corrupt traces, or two recordings mislabeled with the
    /// same instance id). Names one event on the cycle.
    Cycle {
        /// Index of the input trace holding the event.
        trace: usize,
        /// The event's sequence number within that trace.
        seq: u64,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Cycle { trace, seq } => write!(
                f,
                "happens-before cycle through trace {trace} seq {seq} \
                 (inputs disagree about causality)"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// The result of [`merge_traces`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Merged {
    /// Every input event, deduplicated, in one causal order.
    pub events: Vec<TraceEvent>,
    /// Cross-process happens-before edges that were matched.
    pub cross_edges: usize,
    /// Duplicate events dropped by `(inst, seq)` identity.
    pub deduped: usize,
}

/// Drops events already seen under the same `(inst, seq)` identity,
/// keeping the first occurrence. This makes re-merging overlapping
/// inputs (say, a daemon trace plus a previous merge that already
/// contains it) idempotent, and keeps `pgmp-trace explain` from
/// double-counting a decision present in two files. Events with
/// `inst == 0` (v1 traces never recorded an instance id) carry no
/// cross-trace identity and are always kept. Assumes each process
/// contributed at most one recording — `seq` restarts at 0 per
/// recording, so two recordings from one process would collide.
pub fn dedupe_events(events: Vec<TraceEvent>) -> Vec<TraceEvent> {
    let mut seen = HashSet::new();
    events
        .into_iter()
        .filter(|e| e.inst == 0 || seen.insert((e.inst, e.seq)))
        .collect()
}

/// Join keys extracted per event: where it can be the source or the
/// sink of a cross-process edge.
fn publish_key(e: &TraceEvent) -> Option<(u64, u64)> {
    match &e.kind {
        EventKind::PublishDelta { epoch, .. } if e.inst != 0 => Some((e.inst, *epoch)),
        _ => None,
    }
}

fn merge_key(e: &TraceEvent) -> Option<(u64, u64)> {
    match &e.kind {
        EventKind::Merge { epoch, .. } if e.inst != 0 => Some((e.inst, *epoch)),
        _ => None,
    }
}

/// `(daemon_inst, peer_inst, role, dataset)` for handshake events, from
/// either side of the wire.
fn hello_key(e: &TraceEvent) -> Option<(u64, u64, String, u32)> {
    match &e.kind {
        EventKind::FleetHello {
            role,
            peer_inst,
            dataset,
        } if e.inst != 0 && *peer_inst != 0 => Some((e.inst, *peer_inst, role.clone(), *dataset)),
        _ => None,
    }
}

fn connect_key(e: &TraceEvent) -> Option<(u64, u64, String, u32)> {
    match &e.kind {
        EventKind::FleetConnect {
            role,
            daemon_inst,
            dataset,
        } if e.inst != 0 && *daemon_inst != 0 => {
            Some((*daemon_inst, e.inst, role.clone(), *dataset))
        }
        _ => None,
    }
}

/// Interleaves N per-process traces into one causal timeline: a
/// topological order of the union of every trace's internal `seq` order
/// and the cross-process happens-before edges described in the module
/// docs. The order is deterministic — among causally unordered events,
/// the lowest `(input index, position)` goes first — and never consults
/// timestamps, because fleet hosts share no clock. Events keep their
/// original `seq`/`inst`/span ids, so the merged file still joins.
pub fn merge_traces(traces: &[Vec<TraceEvent>]) -> Result<Merged, MergeError> {
    // Dedupe across inputs first (same event in two files), tracking how
    // many we dropped. Within each trace the original order is kept.
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    let mut deduped = 0usize;
    let traces: Vec<Vec<&TraceEvent>> = traces
        .iter()
        .map(|t| {
            t.iter()
                .filter(|e| {
                    let keep = e.inst == 0 || seen.insert((e.inst, e.seq));
                    if !keep {
                        deduped += 1;
                    }
                    keep
                })
                .collect()
        })
        .collect();

    let base: Vec<usize> = traces
        .iter()
        .scan(0usize, |acc, t| {
            let b = *acc;
            *acc += t.len();
            Some(b)
        })
        .collect();
    let total: usize = traces.iter().map(Vec::len).sum();
    let node = |trace: usize, pos: usize| base[trace] + pos;

    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); total];
    let mut indegree: Vec<u32> = vec![0; total];
    let add_edge = |succs: &mut Vec<Vec<usize>>, indegree: &mut Vec<u32>, a: usize, b: usize| {
        if a != b {
            succs[a].push(b);
            indegree[b] += 1;
        }
    };

    // Each trace's own total order: one chain of edges.
    for (ti, t) in traces.iter().enumerate() {
        for pos in 1..t.len() {
            add_edge(&mut succs, &mut indegree, node(ti, pos - 1), node(ti, pos));
        }
    }

    // Cross-process edges. Sources first …
    let mut publishes: HashMap<(u64, u64), usize> = HashMap::new();
    let mut merges: HashMap<(u64, u64), usize> = HashMap::new();
    let mut hellos: HashMap<(u64, u64, String, u32), Vec<usize>> = HashMap::new();
    for (ti, t) in traces.iter().enumerate() {
        for (pos, e) in t.iter().enumerate() {
            if let Some(k) = publish_key(e) {
                publishes.entry(k).or_insert_with(|| node(ti, pos));
            }
            if let Some(k) = merge_key(e) {
                merges.entry(k).or_insert_with(|| node(ti, pos));
            }
            if let Some(k) = hello_key(e) {
                hellos.entry(k).or_default().push(node(ti, pos));
            }
        }
    }
    // … then sinks. Handshakes match nth `fleet_hello` to nth
    // `fleet_connect` under the same key (one process may reconnect).
    let mut cross_edges = 0usize;
    let mut hello_cursor: HashMap<(u64, u64, String, u32), usize> = HashMap::new();
    for (ti, t) in traces.iter().enumerate() {
        for (pos, e) in t.iter().enumerate() {
            let sink = node(ti, pos);
            let source = match &e.kind {
                EventKind::IngestBatch {
                    epoch, peer_inst, ..
                } if *peer_inst != 0 => publishes.get(&(*peer_inst, *epoch)).copied(),
                EventKind::FleetApply {
                    daemon_inst, epoch, ..
                } if *daemon_inst != 0 => merges.get(&(*daemon_inst, *epoch)).copied(),
                EventKind::FleetConnect { .. } => connect_key(e).and_then(|k| {
                    let cursor = hello_cursor.entry(k.clone()).or_insert(0);
                    let src = hellos.get(&k).and_then(|v| v.get(*cursor)).copied();
                    *cursor += 1;
                    src
                }),
                _ => None,
            };
            if let Some(src) = source {
                if src != sink {
                    cross_edges += 1;
                    add_edge(&mut succs, &mut indegree, src, sink);
                }
            }
        }
    }

    // Kahn's algorithm with a deterministic tie-break: among ready
    // nodes, the lowest (trace index, position) pops first.
    let mut ready: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
    for (ti, t) in traces.iter().enumerate() {
        for pos in 0..t.len() {
            if indegree[node(ti, pos)] == 0 {
                ready.push(Reverse((ti, pos)));
            }
        }
    }
    let pos_of = |n: usize| {
        let ti = base
            .iter()
            .rposition(|&b| b <= n)
            .expect("node below first base");
        (ti, n - base[ti])
    };
    let mut events = Vec::with_capacity(total);
    while let Some(Reverse((ti, pos))) = ready.pop() {
        events.push(traces[ti][pos].clone());
        for &s in &succs[node(ti, pos)] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(Reverse(pos_of(s)));
            }
        }
    }
    if events.len() < total {
        let stuck = indegree
            .iter()
            .position(|&d| d > 0)
            .expect("missing events imply a positive indegree");
        let (trace, pos) = pos_of(stuck);
        return Err(MergeError::Cycle {
            trace,
            seq: traces[trace][pos].seq,
        });
    }
    Ok(Merged {
        events,
        cross_edges,
        deduped,
    })
}

/// A frame label for the collapsed stack: the span's type plus the
/// discriminator worth aggregating by. Counters that vary per instance
/// (epoch numbers, generations) are dropped so repeated spans fold.
fn span_label(kind: &EventKind) -> String {
    let label = match kind {
        EventKind::ExpandForm { file, index, .. } => format!("expand_form({file}#{index})"),
        EventKind::Run { file, .. } => format!("run({file})"),
        EventKind::VmRun { chunk, .. } => format!("vm_run(chunk{chunk})"),
        EventKind::VmLower { chunk, .. } => format!("vm_lower(chunk{chunk})"),
        EventKind::StoreWrite { kind, .. } => format!("store_write({kind})"),
        EventKind::StoreRead { kind, .. } => format!("store_read({kind})"),
        other => other.type_tag().to_string(),
    };
    label
        .chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// Exports the span hierarchy as collapsed-stack text (one
/// `frame;frame;frame value` line per unique stack, flamegraph
/// compatible). Values are **self** microseconds: a span's duration
/// minus its children's, so the flame graph's widths add up correctly.
/// Spans are grouped under a `process:<inst>` root frame when the trace
/// carries instance ids (a merged trace mixes processes). When the
/// trace holds `sampler_tick` summaries, each contributes
/// `sampler(<hz>hz);{hits,idle}` lines scaled by the tick period — the
/// sampled estimate of where the mutator was. Output lines are sorted;
/// identical stacks are summed.
pub fn collapse_stacks(events: &[TraceEvent]) -> String {
    struct Span {
        label: String,
        parent: Option<(u64, u64)>,
        duration: u64,
        child_us: u64,
    }
    let mut spans: BTreeMap<(u64, u64), Span> = BTreeMap::new();
    for e in events {
        if let Some(id) = e.span {
            spans.insert(
                (e.inst, id),
                Span {
                    label: span_label(&e.kind),
                    parent: e.parent.map(|p| (e.inst, p)),
                    duration: e.kind.duration_us().unwrap_or(0),
                    child_us: 0,
                },
            );
        }
    }
    let keys: Vec<(u64, u64)> = spans.keys().copied().collect();
    for k in &keys {
        let (parent, duration) = {
            let s = &spans[k];
            (s.parent, s.duration)
        };
        if let Some(p) = parent {
            if let Some(ps) = spans.get_mut(&p) {
                ps.child_us = ps.child_us.saturating_add(duration);
            }
        }
    }
    let mut lines: BTreeMap<String, u64> = BTreeMap::new();
    for k in &keys {
        // Walk the parent chain to the root; a bounded walk guards
        // against malformed parent cycles in hand-edited traces.
        let mut stack = Vec::new();
        let mut cur = Some(*k);
        let mut hops = 0;
        while let (Some(key), true) = (cur, hops < 128) {
            match spans.get(&key) {
                Some(s) => {
                    stack.push(s.label.clone());
                    cur = s.parent;
                }
                // Parent never emitted (unfinished span): root here.
                None => break,
            }
            hops += 1;
        }
        if k.0 != 0 {
            stack.push(format!("process:{}", k.0));
        }
        stack.reverse();
        let s = &spans[k];
        let self_us = s.duration.saturating_sub(s.child_us);
        *lines.entry(stack.join(";")).or_insert(0) += self_us;
    }
    for e in events {
        if let EventKind::SamplerTick {
            hz, hits, missed, ..
        } = &e.kind
        {
            if *hz == 0 {
                continue;
            }
            let period_us = 1_000_000u64 / u64::from(*hz);
            let root = if e.inst != 0 {
                format!("process:{};sampler({hz}hz)", e.inst)
            } else {
                format!("sampler({hz}hz)")
            };
            *lines.entry(format!("{root};hits")).or_insert(0) += hits.saturating_mul(period_us);
            *lines.entry(format!("{root};idle")).or_insert(0) += missed.saturating_mul(period_us);
        }
    }
    let mut out = String::new();
    for (stack, us) in &lines {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(inst: u64, seq: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            inst,
            ..TraceEvent::new(seq, seq, kind)
        }
    }

    #[test]
    fn dedupe_drops_second_occurrence_only() {
        let e = ev(7, 1, EventKind::CacheHit { form: 1 });
        let v1 = ev(0, 1, EventKind::CacheHit { form: 2 });
        let out = dedupe_events(vec![e.clone(), v1.clone(), e.clone(), v1.clone()]);
        assert_eq!(out, vec![e, v1.clone(), v1]);
    }

    #[test]
    fn merge_orders_publish_before_ingest_before_merge_before_apply() {
        const P: u64 = 10;
        const D: u64 = 20;
        const S: u64 = 30;
        let daemon = vec![
            ev(
                D,
                0,
                EventKind::IngestBatch {
                    dataset: 0,
                    epoch: 3,
                    slots: 2,
                    hits: 9,
                    peer_inst: P,
                },
            ),
            ev(
                D,
                1,
                EventKind::Merge {
                    epoch: 1,
                    datasets: 1,
                    points: 2,
                    l1: 0.0,
                    tv: 0.0,
                    duration_us: 5,
                },
            ),
        ];
        let publisher = vec![ev(
            P,
            0,
            EventKind::PublishDelta {
                epoch: 3,
                slots: 2,
                hits: 9,
            },
        )];
        let subscriber = vec![ev(
            S,
            0,
            EventKind::FleetApply {
                daemon_inst: D,
                epoch: 1,
                drift: 0.4,
                reoptimized: true,
            },
        )];
        // Input order is adversarial: the daemon (which must interleave
        // *after* the publisher's delta) comes first.
        let m = merge_traces(&[daemon, publisher, subscriber]).unwrap();
        assert_eq!(m.cross_edges, 2);
        let pos = |inst: u64, seq: u64| {
            m.events
                .iter()
                .position(|e| e.inst == inst && e.seq == seq)
                .unwrap()
        };
        assert!(pos(P, 0) < pos(D, 0), "publish before ingest");
        assert!(pos(D, 1) < pos(S, 0), "merge before apply");
    }

    #[test]
    fn merge_is_idempotent_over_overlapping_inputs() {
        let t = vec![
            ev(5, 0, EventKind::CacheHit { form: 1 }),
            ev(5, 1, EventKind::CacheHit { form: 2 }),
        ];
        let m = merge_traces(&[t.clone(), t.clone()]).unwrap();
        assert_eq!(m.events.len(), 2);
        assert_eq!(m.deduped, 2);
    }

    #[test]
    fn contradictory_inputs_are_a_typed_cycle() {
        const P: u64 = 1;
        const D: u64 = 2;
        // One file says the publisher's delta came *after* it ingested
        // it (impossible): publish_delta and ingest_batch cross-block.
        let a = vec![
            ev(
                D,
                0,
                EventKind::IngestBatch {
                    dataset: 0,
                    epoch: 1,
                    slots: 1,
                    hits: 1,
                    peer_inst: P,
                },
            ),
            ev(
                D,
                1,
                EventKind::PublishDelta {
                    epoch: 9,
                    slots: 1,
                    hits: 1,
                },
            ),
        ];
        let b = vec![
            ev(
                P,
                0,
                EventKind::IngestBatch {
                    dataset: 0,
                    epoch: 9,
                    slots: 1,
                    hits: 1,
                    peer_inst: D,
                },
            ),
            ev(
                P,
                1,
                EventKind::PublishDelta {
                    epoch: 1,
                    slots: 1,
                    hits: 1,
                },
            ),
        ];
        assert!(matches!(
            merge_traces(&[a, b]),
            Err(MergeError::Cycle { .. })
        ));
    }

    #[test]
    fn collapse_stacks_nests_and_sums_self_time() {
        let mut run = ev(
            4,
            0,
            EventKind::Run {
                file: "m.scm".into(),
                mode: "none".into(),
                duration_us: 100,
            },
        );
        run.span = Some(1);
        let mut child = ev(
            4,
            1,
            EventKind::ExpandForm {
                file: "m.scm".into(),
                index: 0,
                duration_us: 30,
            },
        );
        child.span = Some(2);
        child.parent = Some(1);
        let text = collapse_stacks(&[run, child]);
        assert_eq!(
            text,
            "process:4;run(m.scm) 70\nprocess:4;run(m.scm);expand_form(m.scm#0) 30\n"
        );
    }

    #[test]
    fn sampler_estimates_become_stacks() {
        let tick = ev(
            0,
            0,
            EventKind::SamplerTick {
                hz: 1000,
                ticks: 10,
                hits: 6,
                missed: 4,
            },
        );
        let text = collapse_stacks(&[tick]);
        assert_eq!(
            text,
            "sampler(1000hz);hits 6000\nsampler(1000hz);idle 4000\n"
        );
    }
}
