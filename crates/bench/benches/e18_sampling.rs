//! E18 bench — the sampling backend's overhead-vs-exactness frontier.
//!
//! The paper's profilers are exact: every annotated expression bumps a
//! counter, which is why Chez pays ≈9% and errortrace 4–12×. The sampling
//! backend trades exactness for overhead: the mutator only publishes a
//! one-word beacon per profile point, and a sampler thread converts beacon
//! observations into weight *estimates* at a configurable rate. This bench
//! maps both axes:
//!
//! - **Overhead axis** (criterion timings): uninstrumented vs exact dense
//!   counters vs sampling at 103 / 997 / 9973 Hz. The *mutator's* beacon
//!   store costs the same at every rate (target ≤1.05× at the 997 Hz
//!   default, vs ~1.05–1.1× for dense); what scales with Hz is the
//!   sampler thread's own wakeups, which on a saturated machine start to
//!   steal measurable CPU around 10 kHz — that knee is part of the
//!   frontier this bench maps.
//! - **Exactness axis** (table on stderr before the timings): deterministic
//!   manual-gap sampling at mean gaps 1/2/4/8/16 against the exact dense
//!   weights for the same workload, reporting the worst per-point weight
//!   error and how many of the exact profile points the estimate resolved
//!   at all. Gap 1 is the stride-1 anchor (error at the reconstruction's
//!   quantization floor, ~1e-4); the error grows slowly with the gap while
//!   the decisions §3's meta-programs make (ranking well-separated points)
//!   stay stable — the same ε-bound the convergence proptest in
//!   `crates/profiler/tests/convergence.rs` pins.

use criterion::{criterion_group, criterion_main, Criterion};
use pgmp::Engine;
use pgmp_bench::workloads::fib_program;
use pgmp_profiler::{CounterImpl, Counters, SlotStore};
use std::collections::HashMap;

/// Deterministic LCG (same constants as the convergence oracle) for the
/// jittered manual sample gaps.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Exact per-point weights for `program` under dense counters.
fn exact_weights(program: &str) -> HashMap<pgmp_syntax::SourceObject, f64> {
    let mut e = Engine::new();
    e.set_instrumentation(pgmp_profiler::ProfileMode::EveryExpression);
    e.run_str(program, "e18.scm").expect("run");
    e.current_weights().iter().collect()
}

/// Estimated weights from a manually driven sampling registry: the
/// interpreter publishes beacons as usual, and we sample after every
/// `~mean_gap` beacon updates via an instrumented driver loop. Because the
/// engine gives no per-hit hook, we approximate by running the program
/// normally and sampling from a second thread is *not* deterministic —
/// instead we replay the exact dense counts through a manual registry with
/// jittered gaps, which models the same estimator (see the convergence
/// oracle for why the schedule shape is representative).
fn sampled_weights(
    exact: &HashMap<pgmp_syntax::SourceObject, f64>,
    mean_gap: u64,
) -> HashMap<pgmp_syntax::SourceObject, f64> {
    // Reconstruct integer hit counts from the normalized exact weights
    // (scale so the hottest point gets ~8k hits), then spread them evenly
    // through an event stream — steady-state loop order.
    let points: Vec<_> = exact.keys().copied().collect();
    let targets: Vec<u64> = points
        .iter()
        .map(|p| ((exact[p] * 8000.0).round() as u64).max(1))
        .collect();
    let total: u64 = targets.iter().sum();
    let mut emitted = vec![0u64; targets.len()];
    let c = Counters::with_store(SlotStore::sampling_manual());
    let slots: Vec<u32> = points.iter().map(|p| c.resolve(*p)).collect();
    let mut lcg = Lcg(42);
    let mut countdown = 1u64;
    for step in 1..=total {
        let mut best = 0usize;
        let mut best_deficit = f64::MIN;
        for (i, (&t, &e)) in targets.iter().zip(&emitted).enumerate() {
            let deficit = (t as f64) * (step as f64) / (total as f64) - e as f64;
            if deficit > best_deficit {
                best_deficit = deficit;
                best = i;
            }
        }
        emitted[best] += 1;
        c.record_hit(slots[best]);
        countdown -= 1;
        if countdown == 0 {
            c.store().sample_now();
            countdown = if mean_gap <= 1 {
                1
            } else {
                1 + lcg.next() % (2 * mean_gap - 1)
            };
        }
    }
    let counts: Vec<u64> = points.iter().map(|p| c.count(*p)).collect();
    let max = counts.iter().copied().max().unwrap_or(0).max(1);
    points
        .iter()
        .zip(&counts)
        .filter(|(_, &n)| n > 0)
        .map(|(p, &n)| (*p, n as f64 / max as f64))
        .collect()
}

/// Prints the exactness half of the frontier to stderr (criterion owns
/// stdout).
fn report_exactness(program: &str) {
    let exact = exact_weights(program);
    eprintln!("E18 exactness frontier (manual jittered sampling vs exact weights)");
    eprintln!(
        "{:>9} {:>12} {:>14} {:>16}",
        "mean gap", "sample rate", "worst |Δw|", "points resolved"
    );
    for gap in [1u64, 2, 4, 8, 16] {
        let est = sampled_weights(&exact, gap);
        let worst = exact
            .iter()
            .map(|(p, w)| (w - est.get(p).copied().unwrap_or(0.0)).abs())
            .fold(0.0f64, f64::max);
        eprintln!(
            "{:>9} {:>11}% {:>14.4} {:>11} / {:<4}",
            gap,
            100 / gap,
            worst,
            est.len(),
            exact.len()
        );
    }
}

fn bench_sampling_frontier(c: &mut Criterion) {
    let program = fib_program(16);
    report_exactness(&program);

    let mut group = c.benchmark_group("e18_sampling");
    group.sample_size(10);

    group.bench_function("uninstrumented", |b| {
        let mut e = Engine::new();
        b.iter(|| e.run_str(&program, "e18.scm").expect("run"))
    });
    group.bench_function("dense-exact", |b| {
        let mut e = Engine::new();
        e.set_counter_impl(CounterImpl::Dense);
        e.set_instrumentation(pgmp_profiler::ProfileMode::EveryExpression);
        b.iter(|| e.run_str(&program, "e18.scm").expect("run"))
    });
    // Overhead is flat in Hz: the mutator's beacon store is rate-blind.
    for hz in [103u32, 997, 9973] {
        group.bench_function(format!("sampling-{hz}hz"), |b| {
            let mut e = Engine::new();
            e.set_sampling(hz);
            e.set_instrumentation(pgmp_profiler::ProfileMode::EveryExpression);
            b.iter(|| e.run_str(&program, "e18.scm").expect("run"))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_sampling_frontier);
criterion_main!(benches);
