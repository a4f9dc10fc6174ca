//! Provenance queries over recorded traces: which events consulted a
//! given profile point, decision site, or cached form?
//!
//! This is the engine behind `pgmp-trace explain`, exposed as a library
//! so other tools can reuse it — `pgmp-profile diff --explain` walks a
//! diff's top movers through [`explain_query`] to show, for each point
//! whose weight moved, every optimization decision that consulted it.

use crate::{EventKind, TraceEvent};
use std::fmt::Write as _;

/// True when `query` names this event: a substring of its point/site/file
/// labels, or (for cache events) an exact form index.
pub fn matches_query(kind: &EventKind, query: &str) -> bool {
    let form_query: Option<u32> = query.parse().ok();
    match kind {
        EventKind::Decision {
            site,
            decision_point,
            ..
        } => site.contains(query) || decision_point.contains(query),
        EventKind::ProfileQuery { point, .. } | EventKind::ProfileCount { point, .. } => {
            point.contains(query)
        }
        EventKind::CacheHit { form } | EventKind::CacheMiss { form, .. } => {
            Some(*form) == form_query
        }
        EventKind::ProfileRebase {
            point, new_point, ..
        } => point.contains(query) || new_point.as_ref().is_some_and(|p| p.contains(query)),
        _ => false,
    }
}

fn fmt_weight(w: Option<f64>) -> String {
    match w {
        Some(x) => format!("{x:.4}"),
        None => "-".to_string(),
    }
}

/// Renders provenance for every event matching `query`, one block per
/// event, and returns the rendered text with the match count. The text
/// ends with a newline when non-empty; zero matches render as empty.
pub fn explain_query(events: &[TraceEvent], query: &str) -> (String, usize) {
    let mut out = String::new();
    let mut n = 0;
    for e in events {
        if !matches_query(&e.kind, query) {
            continue;
        }
        n += 1;
        match &e.kind {
            EventKind::Decision {
                site,
                decision_point,
                alternatives,
                chosen,
                rank,
            } => {
                let _ = writeln!(out, "[{}] decision `{site}` at {decision_point}", e.seq);
                for (i, a) in alternatives.iter().enumerate() {
                    let pos = chosen.iter().position(|c| c == &a.label);
                    let placed = match pos {
                        Some(p) => format!("emitted at position {p}"),
                        None => "not emitted".to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "    alt {i}: {} weight {} -> {placed}",
                        a.label,
                        fmt_weight(a.weight)
                    );
                }
                let _ = writeln!(
                    out,
                    "    chosen order: [{}] — source-order rank of winner: {rank}{}",
                    chosen.join(" "),
                    if *rank > 0 {
                        " (profile data reordered this form)"
                    } else {
                        " (source order kept)"
                    }
                );
            }
            EventKind::ProfileQuery {
                point,
                weight,
                available,
            } => {
                let _ = writeln!(
                    out,
                    "[{}] profile-query {point} -> weight {} (profile {})",
                    e.seq,
                    fmt_weight(*weight),
                    if *available { "available" } else { "absent" },
                );
            }
            EventKind::ProfileCount { point, count } => {
                let _ = writeln!(
                    out,
                    "[{}] profile-count {point} -> {}",
                    e.seq,
                    fmt_weight(*count)
                );
            }
            EventKind::CacheHit { form } => {
                let _ = writeln!(out, "[{}] form {form}: cache hit", e.seq);
            }
            EventKind::CacheMiss { form, reason } => {
                let _ = writeln!(out, "[{}] form {form}: re-expanded ({reason})", e.seq);
            }
            EventKind::ProfileRebase {
                point,
                new_point,
                tier,
                confidence,
                old_weight,
                new_weight,
            } => {
                let dest = match new_point {
                    Some(p) => format!("-> {p}"),
                    None => "dropped".to_string(),
                };
                let _ = writeln!(
                    out,
                    "[{}] rebase {point} {dest} ({tier}, confidence {confidence:.4}, \
                     weight {old_weight:.4} -> {new_weight:.4})",
                    e.seq,
                );
            }
            _ => {}
        }
    }
    (out, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecisionAlt;

    fn ev(seq: u64, kind: EventKind) -> TraceEvent {
        TraceEvent::new(seq, 0, kind)
    }

    #[test]
    fn decisions_match_by_site_and_point_substring() {
        let events = vec![
            ev(
                1,
                EventKind::Decision {
                    site: "exclusive-cond".into(),
                    decision_point: "prog.scm:10-25".into(),
                    alternatives: vec![DecisionAlt {
                        label: "a".into(),
                        weight: Some(0.5),
                    }],
                    chosen: vec!["a".into()],
                    rank: 1,
                },
            ),
            ev(
                2,
                EventKind::ProfileQuery {
                    point: "prog.scm:10-25".into(),
                    weight: Some(0.5),
                    available: true,
                },
            ),
            ev(3, EventKind::CacheHit { form: 7 }),
        ];
        let (text, n) = explain_query(&events, "prog.scm:10-25");
        assert_eq!(n, 2);
        assert!(text.contains("decision `exclusive-cond`"));
        assert!(text.contains("profile-query prog.scm:10-25"));
        assert!(text.contains("(profile data reordered this form)"));

        let (_, by_form) = explain_query(&events, "7");
        assert_eq!(by_form, 1);

        let (empty, none) = explain_query(&events, "no-such-point");
        assert_eq!(none, 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn rebase_events_match_by_old_and_new_point() {
        let events = vec![
            ev(
                1,
                EventKind::ProfileRebase {
                    point: "m.scm:10-20".into(),
                    new_point: Some("m.scm:30-40".into()),
                    tier: "shifted".into(),
                    confidence: 1.0,
                    old_weight: 0.5,
                    new_weight: 0.5,
                },
            ),
            ev(
                2,
                EventKind::ProfileRebase {
                    point: "m.scm:50-60".into(),
                    new_point: None,
                    tier: "dead".into(),
                    confidence: 0.0,
                    old_weight: 0.25,
                    new_weight: 0.0,
                },
            ),
        ];
        let (text, n) = explain_query(&events, "m.scm:30-40");
        assert_eq!(n, 1, "new-point substring matches");
        assert!(text.contains("rebase m.scm:10-20 -> m.scm:30-40"));
        assert!(text.contains("(shifted, confidence 1.0000"));

        let (text, n) = explain_query(&events, "m.scm:50-60");
        assert_eq!(n, 1);
        assert!(text.contains("rebase m.scm:50-60 dropped (dead"));
    }
}
