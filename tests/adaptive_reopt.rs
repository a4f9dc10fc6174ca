//! End-to-end adaptive re-optimization: a hot `exclusive-cond` branch
//! shifts mid-run, the drift detector fires, and the emitted clause order
//! provably changes.

use pgmp::{IncrementalConfig, IncrementalEngine};
use pgmp_adaptive::{AdaptiveConfig, AdaptiveEngine};
use pgmp_bytecode::{canonical_form, DispatchMode, Vm};
use pgmp_case_studies::{engine_with, install, Lib};
use pgmp_observe::{self as observe, EventKind, TraceConfig, TraceEvent};
use pgmp_profiler::ProfileInformation;
use std::collections::HashSet;

/// A tiny service: classify requests by id. With no profile (or a profile
/// where the `< 10` clause is hot) the clauses keep source order; once the
/// `>= 10` clause becomes hot, exclusive-cond must hoist it to the front.
const SERVICE: &str = "
  (define (classify n)
    (exclusive-cond
      [(< n 10) 'low]
      [(>= n 10) 'high]))";

fn adaptive_service(config: AdaptiveConfig) -> AdaptiveEngine {
    AdaptiveEngine::with_setup(SERVICE, "service.scm", config, |e| {
        install(e, Lib::Case)
    })
    .expect("initial compile")
}

fn drive(lo: i64, hi: i64) -> String {
    format!(
        "(let loop ([i {lo}])
           (unless (= i {hi}) (classify i) (loop (add1 i))))"
    )
}

/// Position of the expansion of clause `body` in the emitted `classify`
/// definition, as an index into the printed text.
fn clause_pos(expansion: &str, needle: &str) -> usize {
    expansion
        .find(needle)
        .unwrap_or_else(|| panic!("`{needle}` not in expansion: {expansion}"))
}

#[test]
fn hot_branch_shift_reorders_clauses_after_drift() {
    let config = AdaptiveConfig {
        decay: 0.5,
        drift_threshold: 0.2,
        ..AdaptiveConfig::default()
    };
    let mut engine = adaptive_service(config);

    // Generation 0: no profile, source order — 'low clause first.
    let gen0 = engine.current_program();
    assert_eq!(gen0.generation, 0);
    let text = gen0.expansion.join("\n");
    assert!(
        clause_pos(&text, "(quote low)") < clause_pos(&text, "(quote high)"),
        "unprofiled expansion must keep source order: {text}"
    );

    // Phase A: traffic is all n < 10 — the 'low clause is hot. Several
    // worker threads collect concurrently, then one epoch ticks.
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let h = engine.handle();
                s.spawn(move || h.collect_run(Some(&drive(0, 10))))
            })
            .collect();
        for w in workers {
            w.join().unwrap().unwrap();
        }
    });
    let report = engine.tick().unwrap();
    assert!(report.fired, "first profiled epoch must drift from empty");
    assert!(report.reoptimized);
    let gen1 = engine.current_program();
    assert_eq!(gen1.generation, 1);
    let text = gen1.expansion.join("\n");
    assert!(
        clause_pos(&text, "(quote low)") < clause_pos(&text, "(quote high)"),
        "with 'low hot the order must still be low-first: {text}"
    );
    assert!(gen1.optimized_under_points > 0);
    let gen1_cfgs: Vec<String> = engine.chunks().map(canonical_form).collect();

    // Same traffic: steady state, no re-optimization.
    engine.collect_run(Some(&drive(0, 10))).unwrap();
    let report = engine.tick().unwrap();
    assert!(
        !report.fired,
        "steady traffic re-fired at drift {}",
        report.drift
    );
    assert_eq!(engine.current_program().generation, 1);

    // Phase B: the hot branch SHIFTS — traffic becomes all n >= 10. With
    // decay 0.5 the old 'low mass halves each epoch while 'high hits pour
    // in, so within a few epochs drift crosses the threshold and the
    // engine re-optimizes.
    let mut reoptimized = false;
    for _ in 0..6 {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let h = engine.handle();
                    s.spawn(move || h.collect_run(Some(&drive(10, 60))))
                })
                .collect();
            for w in workers {
                w.join().unwrap().unwrap();
            }
        });
        let report = engine.tick().unwrap();
        reoptimized |= report.reoptimized;
    }
    assert!(reoptimized, "hot-branch shift never triggered re-optimization");

    // The emitted clause order provably changed: 'high now comes first.
    let shifted = engine.current_program();
    assert!(shifted.generation >= 2);
    let shifted_cfgs: Vec<String> = engine.chunks().map(canonical_form).collect();
    let text = shifted.expansion.join("\n");
    assert!(
        clause_pos(&text, "(quote high)") < clause_pos(&text, "(quote low)"),
        "after the shift the hot 'high clause must lead: {text}"
    );

    // And the bytecode CFGs were recompiled along with the expansion.
    assert_ne!(
        gen1_cfgs, shifted_cfgs,
        "re-optimization must reach the bytecode layer"
    );
}

#[test]
fn each_input_shift_reoptimizes_once_at_its_first_epoch() {
    // Default knobs: decay 0.5, threshold 0.15, no hysteresis, no
    // cooldown. Every epoch of a phase sees the same traffic, ten calls.
    // A profile that kept decaying pre-shift counts after a firing would
    // drift away from the new baseline and fire again within the phase.
    let mut engine = adaptive_service(AdaptiveConfig::default());
    let phases = [("low", (0, 10)), ("high", (10, 20)), ("low", (0, 10))];
    let mut generation = 0;
    for (phase, (hot, (lo, hi))) in phases.into_iter().enumerate() {
        let cold = if hot == "low" { "high" } else { "low" };
        for step in 0..5 {
            engine.collect_run(Some(&drive(lo, hi))).unwrap();
            let r = engine.tick().unwrap();
            if step == 0 {
                // The shift is seen in the epoch it happens.
                assert!(
                    r.fired && r.reoptimized,
                    "phase {phase} epoch {step}: {r:?}"
                );
                generation += 1;
                let text = engine.current_program().expansion.join("\n");
                assert!(
                    clause_pos(&text, &format!("(quote {hot})"))
                        < clause_pos(&text, &format!("(quote {cold})")),
                    "phase {phase}: the hot '{hot} clause must lead: {text}"
                );
            } else {
                // The profile restarted at the firing, so steady traffic
                // reads no drift at all.
                assert!(!r.fired, "phase {phase} epoch {step} fired again: {r:?}");
                assert_eq!(r.drift, 0.0, "phase {phase} epoch {step}: {r:?}");
            }
            assert_eq!(r.generation, generation, "phase {phase} epoch {step}");
        }
    }
}

#[test]
fn hysteresis_and_cooldown_gate_recompiles_seen_by_worker_handles() {
    let config = AdaptiveConfig {
        decay: 0.0,
        drift_threshold: 0.2,
        hysteresis_epochs: 2,
        cooldown_epochs: 1,
    };
    let mut engine = adaptive_service(config);
    // A handle taken before any epoch, as a long-lived worker holds it.
    let worker = engine.handle();
    let served_before = worker.current_program();
    assert_eq!(served_before.generation, 0);

    let epoch = |engine: &mut AdaptiveEngine, lo: i64, hi: i64| {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let h = engine.handle();
                    s.spawn(move || h.collect_run(Some(&drive(lo, hi))))
                })
                .collect();
            for w in workers {
                w.join().unwrap().unwrap();
            }
        });
        engine.tick().unwrap()
    };

    // 'low traffic: over threshold against the empty baseline, but one
    // epoch is not enough under hysteresis 2.
    let r = epoch(&mut engine, 0, 10);
    assert!(r.drift > 0.2 && !r.fired, "epoch 1: {r:?}");
    assert_eq!((r.streak, r.generation), (1, 0));

    // The second consecutive over-threshold epoch fires and recompiles.
    let r = epoch(&mut engine, 0, 10);
    assert!(r.fired && r.reoptimized, "epoch 2: {r:?}");
    assert_eq!(r.generation, 1);
    assert_eq!(worker.current_program().generation, 1);
    assert_eq!(
        served_before.generation, 0,
        "an Arc read before the swap must stay on its generation"
    );

    // The hot branch shifts to 'high. The first epoch after the recompile
    // falls in the cooldown, the next one only arms the streak.
    let r = epoch(&mut engine, 10, 60);
    assert!(r.drift > 0.2 && !r.fired, "cooldown epoch: {r:?}");
    assert_eq!((r.streak, r.cooldown, r.generation), (0, 0, 1));
    let r = epoch(&mut engine, 10, 60);
    assert!(!r.fired, "first post-cooldown epoch: {r:?}");
    assert_eq!((r.streak, r.generation), (1, 1));

    // The second over-threshold epoch after the cooldown recompiles, and
    // the worker's handle serves the reordered program.
    let r = epoch(&mut engine, 10, 60);
    assert!(r.fired && r.reoptimized, "epoch 5: {r:?}");
    assert_eq!(r.generation, 2);
    let served = worker.current_program();
    assert_eq!(served, engine.current_program());
    let text = served.expansion.join("\n");
    assert!(
        clause_pos(&text, "(quote high)") < clause_pos(&text, "(quote low)"),
        "after the shift the hot 'high clause must lead: {text}"
    );
}

/// `SERVICE` plus six forms no profile changes: across a
/// re-optimization only `classify` re-expands.
const SEVEN_FORMS: &str = "
  (define (classify n)
    (exclusive-cond
      [(< n 10) 'low]
      [(>= n 10) 'high]))
  (define (double x) (* 2 x))
  (define (square x) (* x x))
  (define (inc x) (+ x 1))
  (define (dec x) (- x 1))
  (define (twice f x) (f (f x)))
  (define total 0)";

/// The chunks whose code was built (compiled or re-laid-out) while
/// `events` were recorded, among `ids`.
fn rebuilt(events: &[TraceEvent], ids: &HashSet<u32>) -> Vec<u32> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::VmLower { chunk, .. } if ids.contains(&chunk) => Some(chunk),
            _ => None,
        })
        .collect()
}

#[test]
fn a_second_compile_shares_the_code_of_reused_forms() {
    let _bus = observe::exclusive();
    let engine = engine_with(&[Lib::Case]).expect("engine");
    let mut incr =
        IncrementalEngine::with_engine(engine, SEVEN_FORMS, "seven.scm", IncrementalConfig::default())
            .expect("parse");
    let mut vm = Vm::new();
    let first = incr.compile(&ProfileInformation::empty()).expect("compile");
    for chunk in &first.chunks {
        vm.run_chunk(incr.engine_mut().interp_mut(), chunk)
            .expect("run");
    }
    // Record the second compile and a run of what it hands out.
    observe::start(TraceConfig::default()).expect("recording");
    let second = incr.compile(&ProfileInformation::empty());
    let ran: Result<Vec<_>, _> = match &second {
        Ok(unit) => unit
            .chunks
            .iter()
            .map(|chunk| vm.run_chunk(incr.engine_mut().interp_mut(), chunk))
            .collect(),
        Err(_) => Ok(Vec::new()),
    };
    let events = observe::stop();
    let second = second.expect("compile");
    ran.expect("run");
    assert!(second.stats.all_reused(), "{:?}", second.stats);
    let ids: HashSet<u32> = second.chunks.iter().map(|c| c.id).collect();
    assert_eq!(ids.len(), 7);
    assert_eq!(
        rebuilt(&events, &ids),
        [],
        "reused forms' code was built again"
    );
}

#[test]
fn a_vm_served_reoptimization_keeps_the_code_of_reused_forms() {
    let _bus = observe::exclusive();
    let mut engine = AdaptiveEngine::with_setup(
        SEVEN_FORMS,
        "seven.scm",
        AdaptiveConfig::default(),
        |e| install(e, Lib::Case),
    )
    .expect("initial compile");
    engine
        .enable_vm_serving(DispatchMode::default(), false)
        .expect("serving");
    // The first epoch always re-optimizes; the second moves the hot
    // branch.
    for (lo, hi) in [(0, 10), (10, 100)] {
        let before: HashSet<u32> = engine.chunks().map(|c| c.id).collect();
        engine.collect_run(Some(&drive(lo, hi))).expect("collect");
        observe::start(TraceConfig::default()).expect("recording");
        let report = engine.tick();
        let served = engine.vm_serve_run(Some(&drive(lo, hi)));
        let events = observe::stop();
        assert!(report.expect("tick").reoptimized, "epoch {lo}..{hi}");
        served.expect("serve");
        let after: HashSet<u32> = engine.chunks().map(|c| c.id).collect();
        // Reused forms keep their chunk ids.
        let reused: HashSet<u32> = before.intersection(&after).copied().collect();
        assert_eq!(reused.len(), 6, "only `classify` re-expands");
        assert_eq!(
            rebuilt(&events, &reused),
            [],
            "epoch {lo}..{hi}: reused forms' code was built again"
        );
    }
}
