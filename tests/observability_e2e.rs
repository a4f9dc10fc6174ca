//! End-to-end observability: a shifting hot branch flips the recorded
//! `case` optimization decision, and trace comparison surfaces the flip.
//!
//! The scenario is the adaptive story told through decision provenance:
//! train on phase-1 traffic (all `#\a`), trace an optimized run; train on
//! phase-2 traffic (all `#\b`, same program source), trace another. The
//! two traces must contain `site: "case"` decisions at the *same*
//! decision point whose chosen order flipped — which is exactly what
//! `pgmp-trace compare a.jsonl b.jsonl` prints, so this test replays the
//! same last-wins keying the CLI uses.

use pgmp_profiler::{drift, DriftMetric};
use pgmp_case_studies::{engine_with, Lib};
use pgmp_observe as observe;
use pgmp_profiler::{ProfileInformation, ProfileMode};
use std::collections::BTreeMap;

/// A classifier whose `case` sees whatever `input` contains. Phase inputs
/// must have identical lengths so both phases present the decision at an
/// identical source span.
fn program(input: &str) -> String {
    format!(
        r#"
        (define (classify c)
          (case c
            [(#\a) 'alpha]
            [(#\b) 'beta]
            [else 'other]))
        (define (drive cs n)
          (if (null? cs)
              n
              (drive (cdr cs) (if (eqv? (classify (car cs)) 'other) n (add1 n)))))
        (drive (string->list "{input}") 0)
        "#
    )
}

fn train(src: &str) -> ProfileInformation {
    let mut engine = engine_with(&[Lib::Case]).expect("install case library");
    engine.set_instrumentation(ProfileMode::EveryExpression);
    engine.run_str(src, "shift.scm").expect("training run");
    engine.current_weights()
}

fn traced_optimized_run(src: &str, weights: &ProfileInformation) -> Vec<observe::TraceEvent> {
    let mut engine = engine_with(&[Lib::Case]).expect("install case library");
    engine.set_profile(weights.clone());
    observe::start(observe::TraceConfig::default()).expect("start recording");
    engine.run_str(src, "shift.scm").expect("optimized run");
    observe::stop()
}

/// The `pgmp-trace compare` keying: last decision per (site, point).
fn final_decisions(
    events: &[observe::TraceEvent],
) -> BTreeMap<(String, String), (Vec<String>, u32)> {
    let mut map = BTreeMap::new();
    for ev in events {
        if let observe::EventKind::Decision {
            site,
            decision_point,
            chosen,
            rank,
            ..
        } = &ev.kind
        {
            map.insert(
                (site.clone(), decision_point.clone()),
                (chosen.clone(), *rank),
            );
        }
    }
    map
}

#[test]
fn shifting_hot_branch_flips_the_case_decision() {
    let _bus = observe::exclusive();

    // Same source length in both phases: only the traffic shifts.
    let phase1 = program(&"a".repeat(40));
    let phase2 = program(&"b".repeat(40));
    let weights1 = train(&phase1);
    let weights2 = train(&phase2);
    assert!(
        drift(&weights1, &weights2, DriftMetric::TotalVariation) > 0.0,
        "the traffic shift must register as profile drift"
    );

    // Both optimized runs execute the phase-1 *source* — the program did
    // not change, only the profile it was optimized under.
    let trace_a = traced_optimized_run(&phase1, &weights1);
    let trace_b = traced_optimized_run(&phase1, &weights2);

    let a = final_decisions(&trace_a);
    let b = final_decisions(&trace_b);
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "same program, same decision points — compare must find no \
         only-in-one entries"
    );

    // The case decision exists in both, at the same point, and flipped.
    let case_key = a
        .keys()
        .find(|(site, _)| site == "case")
        .expect("a `case` decision must be recorded")
        .clone();
    let (chosen_a, rank_a) = &a[&case_key];
    let (chosen_b, rank_b) = &b[&case_key];
    assert!(
        chosen_a[0].contains("#\\a") || chosen_a[0].contains(r"#\a"),
        "phase-1 profile puts the #\\a arm first, got {chosen_a:?}"
    );
    assert!(
        chosen_b[0].contains("#\\b") || chosen_b[0].contains(r"#\b"),
        "phase-2 profile puts the #\\b arm first, got {chosen_b:?}"
    );
    assert_eq!(*rank_a, 0, "phase 1 keeps source order (the #\\a arm is written first)");
    assert!(*rank_b > 0, "phase 2 must reorder, got rank {rank_b}");

    // `pgmp-trace compare` reports exactly the flips: every differing
    // entry is this one form's reorder (the `case` site and the
    // exclusive-cond it expands into), nothing else.
    let flips: Vec<_> = a
        .iter()
        .filter(|(k, v)| b.get(*k).is_some_and(|w| w.0 != v.0))
        .map(|(k, _)| k.clone())
        .collect();
    assert!(
        flips.contains(&case_key),
        "compare must surface the case flip, found {flips:?}"
    );
    for (site, _) in &flips {
        assert!(
            site == "case" || site == "exclusive-cond",
            "no unrelated decision may flip, found site {site}"
        );
    }
}

#[test]
fn traced_run_round_trips_through_the_jsonl_sink() {
    let _bus = observe::exclusive();
    let src = program(&"a".repeat(40));
    let weights = train(&src);
    let events = traced_optimized_run(&src, &weights);
    assert!(!events.is_empty());

    let dir = std::env::temp_dir().join(format!("pgmp-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e2e.jsonl");
    observe::write_trace(&path, &events).unwrap();
    let back = observe::read_trace(&path).unwrap();
    assert_eq!(back, events, "trace file must round-trip losslessly");
    std::fs::remove_dir_all(&dir).ok();
}
