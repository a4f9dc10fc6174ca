//! Property tests for the trace reader: hostile input is a typed error,
//! never a panic, and well-formed traces round-trip exactly.
//!
//! Mirrors the persistence discipline pinned by the profile store's
//! `store_roundtrip` suite: truncation (a crash mid-write), interleaved
//! garbage (a corrupted file), and arbitrary bytes all degrade to
//! [`TraceError`] values, and the lenient reader recovers every intact
//! line around them.

use pgmp_observe::{
    parse_trace, parse_trace_lenient, to_jsonl, DecisionAlt, EventKind, TraceEvent,
};
use proptest::prelude::*;

/// Printable-ASCII labels (including `"` and `\`, exercising escaping);
/// ASCII-only keeps every byte index a char boundary for truncation.
const LABEL: &str = "[ -~]{0,12}";

/// Optional weights on a dyadic grid, exact in binary so the shortest
/// round-trip float encoding is the identity.
fn arb_weight() -> BoxedStrategy<Option<f64>> {
    prop_oneof![
        Just(None),
        (0u32..1024).prop_map(|n| Some(f64::from(n) / 8.0)),
    ]
    .boxed()
}

fn arb_alt() -> impl Strategy<Value = DecisionAlt> {
    (LABEL, arb_weight()).prop_map(|(label, weight)| DecisionAlt { label, weight })
}

fn arb_kind() -> BoxedStrategy<EventKind> {
    prop_oneof![
        (LABEL, 0u32..100, 0u64..100_000).prop_map(|(file, index, duration_us)| {
            EventKind::ExpandForm {
                file,
                index,
                duration_us,
            }
        }),
        (LABEL, arb_weight(), any::<bool>()).prop_map(|(point, weight, available)| {
            EventKind::ProfileQuery {
                point,
                weight,
                available,
            }
        }),
        (0u32..1000).prop_map(|form| EventKind::CacheHit { form }),
        (0u32..1000, LABEL).prop_map(|(form, reason)| EventKind::CacheMiss { form, reason }),
        (0u64..50, 0u64..1_000_000, 0u32..10, 0u64..100_000).prop_map(
            |(epoch, hits, streak, duration_us)| EventKind::Epoch {
                epoch,
                hits,
                drift: f64::from(streak) / 4.0,
                fired: streak > 2,
                reoptimized: streak > 4,
                generation: epoch / 2,
                streak,
                cooldown: 10 - streak,
                flush_writes: hits / 7,
                flush_merged: hits / 3,
                duration_us,
            }
        ),
        (LABEL, LABEL, 0u64..1_000_000, 0u64..4096).prop_map(|(path, kind, duration_us, bytes)| {
            EventKind::StoreWrite {
                path,
                kind,
                bytes,
                duration_us,
            }
        }),
        (
            "[a-z-]{1,16}",
            LABEL,
            proptest::collection::vec(arb_alt(), 0..5),
            0u32..5
        )
            .prop_map(|(site, decision_point, alternatives, rank)| {
                let chosen = alternatives.iter().map(|a| a.label.clone()).collect();
                EventKind::Decision {
                    site,
                    decision_point,
                    alternatives,
                    chosen,
                    rank,
                }
            }),
    ]
    .boxed()
}

/// Optional span ids: `None` (point events / v1) or a small id.
fn arb_span() -> BoxedStrategy<Option<u64>> {
    prop_oneof![Just(None), (1u64..1000).prop_map(Some)].boxed()
}

fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec(
        (
            0u64..10_000,
            0u64..1_000_000,
            0u64..500,
            arb_span(),
            arb_span(),
            arb_kind(),
        ),
        0..12,
    )
    .prop_map(|tuples| {
        tuples
            .into_iter()
            .map(|(seq, t_us, inst, span, parent, kind)| TraceEvent {
                seq,
                t_us,
                inst,
                span,
                parent,
                kind,
            })
            .collect()
    })
}

/// Garbage lines: never empty, never whitespace-only (those are silently
/// skipped by design), and never a JSON object (no `{`), so each one must
/// surface as exactly one error.
fn arb_garbage() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z!#%&*+,:;<=>?@^_|~-]{1,12}", 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn well_formed_traces_round_trip(events in arb_events()) {
        let text = to_jsonl(&events);
        let back = parse_trace(&text);
        prop_assert!(back.is_ok(), "strict parse failed: {:?}", back.err());
        prop_assert_eq!(back.unwrap(), events);
    }

    #[test]
    fn truncation_is_a_typed_error_and_lenient_recovers_the_prefix(
        events in arb_events(),
        cut_permille in 0u32..1000,
    ) {
        let text = to_jsonl(&events);
        let cut = (text.len() * cut_permille as usize) / 1000;
        let truncated = &text[..cut];
        let (recovered, errors) = parse_trace_lenient(truncated);
        // Everything before the last newline is intact. A non-empty tail
        // after it is the torn line — except when the cut removed only
        // the trailing newline itself, which leaves a complete event.
        let intact_end = truncated.rfind('\n').map_or(0, |i| i + 1);
        let intact_lines = truncated[..intact_end].lines().count();
        let tail = intact_end < truncated.len();
        let tail_complete = tail && text.as_bytes().get(cut) == Some(&b'\n');
        let expect = intact_lines + usize::from(tail_complete);
        prop_assert_eq!(&recovered[..], &events[..expect]);
        let torn = tail && !tail_complete;
        prop_assert_eq!(errors.len(), usize::from(torn));
        if torn {
            prop_assert_eq!(errors[0].line(), Some(intact_lines + 1));
            // And the strict reader refuses the whole file.
            prop_assert!(parse_trace(truncated).is_err());
        }
    }

    #[test]
    fn interleaved_garbage_yields_one_error_per_line_and_loses_no_event(
        events in arb_events(),
        garbage in arb_garbage(),
    ) {
        let mut lines: Vec<String> = to_jsonl(&events).lines().map(str::to_owned).collect();
        // Splice garbage between event lines at deterministic offsets.
        for (i, g) in garbage.iter().enumerate() {
            let at = (i * 2 + 1).min(lines.len());
            lines.insert(at, g.clone());
        }
        let text = lines.join("\n");
        let (recovered, errors) = parse_trace_lenient(&text);
        prop_assert_eq!(recovered, events);
        prop_assert_eq!(errors.len(), garbage.len());
        if !garbage.is_empty() {
            prop_assert!(parse_trace(&text).is_err());
        }
    }

    #[test]
    fn v2_reader_accepts_v1_lines(events in arb_events()) {
        // A v1 line is a v2 line minus the v2 header fields: strip
        // `inst` (after zeroing the v2-only data, which v1 could not
        // express) and rewrite the version tag. The first occurrence is
        // always the header — payload strings encode `"` escaped, so
        // the pattern cannot appear in one earlier.
        let events: Vec<TraceEvent> = events
            .into_iter()
            .map(|mut e| {
                e.inst = 0;
                e.span = None;
                e.parent = None;
                e
            })
            .collect();
        let v1_text: String = to_jsonl(&events)
            .lines()
            .map(|l| {
                let l = l.replacen("{\"v\":2,", "{\"v\":1,", 1);
                format!("{}\n", l.replacen("\"inst\":0,", "", 1))
            })
            .collect();
        let back = parse_trace(&v1_text);
        prop_assert!(back.is_ok(), "v1 lines must decode: {:?}", back.err());
        prop_assert_eq!(back.unwrap(), events);
    }

    #[test]
    fn arbitrary_text_never_panics(s in "[ -~\n]{0,64}") {
        // Whatever comes back, it came back — no panic, no abort.
        let _ = parse_trace(&s);
        let (_events, _errors) = parse_trace_lenient(&s);
    }
}
