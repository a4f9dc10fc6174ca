//! Property tests for causal trace merging: the merged timeline is a
//! valid topological order of the happens-before relation, regardless of
//! how many processes participated, how their traces interleave, or what
//! their (untrusted, mutually meaningless) timestamps say.
//!
//! The generator builds a *true* global fleet history — handshakes, then
//! per-epoch publish → ingest → merge → apply rounds with noise events
//! sprinkled in — and splits it into per-process traces exactly the way
//! real recordings form. Timestamps are assigned adversarially from an
//! unrelated stream, so any ordering the merge gets right, it got right
//! from the happens-before edges alone.

use pgmp_observe::{merge_traces, EventKind, TraceEvent};
use proptest::prelude::*;
use std::collections::HashMap;

const DAEMON: u64 = 0xDAE;

/// One process's trace from its slice of the global history: `seq` is
/// the per-process position (as the ring buffer numbers events) and
/// `t_us` comes from the adversarial stream.
fn split(history: &[(u64, EventKind)], t_us: &[u64]) -> Vec<Vec<TraceEvent>> {
    let mut traces: HashMap<u64, Vec<TraceEvent>> = HashMap::new();
    for (i, (inst, kind)) in history.iter().enumerate() {
        let trace = traces.entry(*inst).or_default();
        let seq = trace.len() as u64;
        let stamp = t_us[i % t_us.len().max(1)];
        trace.push(TraceEvent {
            inst: *inst,
            ..TraceEvent::new(seq, stamp, kind.clone())
        });
    }
    // Deterministic trace order (by instance id); the caller rotates it.
    let mut keys: Vec<u64> = traces.keys().copied().collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|k| traces.remove(&k).unwrap())
        .collect()
}

/// A causally valid global history for `publishers` publishers,
/// `subscribers` subscribers, and `epochs` merge rounds.
fn fleet_history(
    publishers: u64,
    subscribers: u64,
    epochs: u64,
    noise: &[u8],
) -> Vec<(u64, EventKind)> {
    let mut h: Vec<(u64, EventKind)> = Vec::new();
    let mut noise_at = 0usize;
    let mut noisy = |h: &mut Vec<(u64, EventKind)>, inst: u64| {
        let n = noise
            .get(noise_at % noise.len().max(1))
            .copied()
            .unwrap_or(0);
        noise_at += 1;
        for form in 0..u32::from(n) {
            h.push((inst, EventKind::CacheHit { form }));
        }
    };
    // Handshakes: the daemon's `fleet_hello` (it sent the Ack) precedes
    // the peer's `fleet_connect` (emitted after reading it).
    for p in 0..publishers {
        let inst = 1 + p;
        h.push((
            DAEMON,
            EventKind::FleetHello {
                role: "publisher".into(),
                peer_inst: inst,
                dataset: p as u32,
            },
        ));
        h.push((
            inst,
            EventKind::FleetConnect {
                role: "publisher".into(),
                daemon_inst: DAEMON,
                dataset: p as u32,
            },
        ));
    }
    for s in 0..subscribers {
        let inst = 0x2000 + s;
        h.push((
            DAEMON,
            EventKind::FleetHello {
                role: "subscriber".into(),
                peer_inst: inst,
                dataset: 0,
            },
        ));
        h.push((
            inst,
            EventKind::FleetConnect {
                role: "subscriber".into(),
                daemon_inst: DAEMON,
                dataset: 0,
            },
        ));
    }
    for epoch in 1..=epochs {
        for p in 0..publishers {
            let inst = 1 + p;
            noisy(&mut h, inst);
            h.push((
                inst,
                EventKind::PublishDelta {
                    epoch,
                    slots: 1,
                    hits: epoch,
                },
            ));
        }
        for p in 0..publishers {
            h.push((
                DAEMON,
                EventKind::IngestBatch {
                    dataset: p as u32,
                    epoch,
                    slots: 1,
                    hits: epoch,
                    peer_inst: 1 + p,
                },
            ));
        }
        noisy(&mut h, DAEMON);
        h.push((
            DAEMON,
            EventKind::Merge {
                epoch,
                datasets: publishers as u32,
                points: 1,
                l1: 0.0,
                tv: 0.0,
                duration_us: 1,
            },
        ));
        for s in 0..subscribers {
            h.push((
                0x2000 + s,
                EventKind::FleetApply {
                    daemon_inst: DAEMON,
                    epoch,
                    drift: 0.25,
                    reoptimized: epoch % 2 == 0,
                },
            ));
        }
    }
    h
}

/// Position of each `(inst, seq)` in the merged output.
fn positions(merged: &[TraceEvent]) -> HashMap<(u64, u64), usize> {
    merged
        .iter()
        .enumerate()
        .map(|(i, e)| ((e.inst, e.seq), i))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_a_topological_order_of_happens_before(
        (publishers, subscribers) in (1u64..4, 0u64..3),
        epochs in 1u64..5,
        noise in proptest::collection::vec(0u8..3, 1..8),
        t_us in proptest::collection::vec(0u64..1_000_000, 1..8),
        rotate in 0usize..4,
    ) {
        let history = fleet_history(publishers, subscribers, epochs, &noise);
        let mut traces = split(&history, &t_us);
        // Adversarial input order: the daemon's trace need not come first.
        let r = rotate % traces.len();
        traces.rotate_left(r);

        let merged = merge_traces(&traces).unwrap();
        prop_assert_eq!(merged.events.len(), history.len(), "no event lost or invented");
        prop_assert_eq!(merged.deduped, 0);
        // Every edge source exists, so every sink matched: one edge per
        // handshake, one per publish->ingest, one per merge->apply.
        let expected_edges = (publishers + subscribers) * (1 + epochs);
        prop_assert_eq!(merged.cross_edges as u64, expected_edges);

        let pos = positions(&merged.events);

        // Each process's own order survives: seq strictly increases.
        let mut last: HashMap<u64, (u64, usize)> = HashMap::new();
        for (i, e) in merged.events.iter().enumerate() {
            if let Some((prev_seq, prev_pos)) = last.get(&e.inst) {
                prop_assert!(
                    *prev_seq < e.seq && *prev_pos < i,
                    "per-process order violated for inst {}",
                    e.inst
                );
            }
            last.insert(e.inst, (e.seq, i));
        }

        // Every cross-process edge is respected in the output order.
        let find = |pred: &dyn Fn(&TraceEvent) -> bool| {
            merged
                .events
                .iter()
                .find(|e| pred(e))
                .map(|e| pos[&(e.inst, e.seq)])
        };
        for e in &merged.events {
            let sink = pos[&(e.inst, e.seq)];
            let source = match &e.kind {
                EventKind::IngestBatch { epoch, peer_inst, .. } => {
                    let (p, ep) = (*peer_inst, *epoch);
                    find(&move |s: &TraceEvent| {
                        s.inst == p
                            && matches!(&s.kind, EventKind::PublishDelta { epoch, .. } if *epoch == ep)
                    })
                }
                EventKind::FleetApply { daemon_inst, epoch, .. } => {
                    let (d, ep) = (*daemon_inst, *epoch);
                    find(&move |s: &TraceEvent| {
                        s.inst == d
                            && matches!(&s.kind, EventKind::Merge { epoch, .. } if *epoch == ep)
                    })
                }
                EventKind::FleetConnect { role, daemon_inst, dataset } => {
                    let (d, r, ds, peer) = (*daemon_inst, role.clone(), *dataset, e.inst);
                    find(&move |s: &TraceEvent| {
                        s.inst == d
                            && matches!(
                                &s.kind,
                                EventKind::FleetHello { role, peer_inst, dataset }
                                    if *role == r && *peer_inst == peer && *dataset == ds
                            )
                    })
                }
                _ => None,
            };
            if let Some(src) = source {
                prop_assert!(
                    src < sink,
                    "edge violated: source at {src} not before sink at {sink}"
                );
            }
        }

        // Deterministic: the same inputs merge to the same timeline.
        let again = merge_traces(&traces).unwrap();
        prop_assert_eq!(again, merged.clone());

        // Idempotent under overlap: re-merging the output with one of the
        // original traces adds nothing (every event deduplicates).
        let overlap = merge_traces(&[merged.events.clone(), traces[0].clone()]).unwrap();
        prop_assert_eq!(overlap.events, merged.events);
        prop_assert_eq!(overlap.deduped, traces[0].len());
    }
}
