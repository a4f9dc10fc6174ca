//! End-to-end adaptive re-optimization: a hot `exclusive-cond` branch
//! shifts mid-run, the drift detector fires, and the emitted clause order
//! provably changes.

use pgmp_adaptive::{AdaptiveConfig, AdaptiveEngine};
use pgmp_bytecode::canonical_form;
use pgmp_case_studies::{install, Lib};

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
