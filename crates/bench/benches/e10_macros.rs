//! E10 bench — the Rust proc-macro implementation: arm order chosen by a
//! (fixture) profile vs. source order, plus the cost of one hit, disabled
//! and enabled, through `pgmp_rt::hit(&str)` (which looks the name up on
//! every call) and through the cached `static` [`pgmp_rt::Point`] the
//! macros generate.
//!
//! The fixture `profiles/skewed.pgmp` (relative to this crate) marks arm
//! #3 as the hottest, inverting the source order.

use criterion::{criterion_group, criterion_main, Criterion};
use pgmp_macros::exclusive_cond;
use std::hint::black_box;

/// Source-ordered: the common case (c >= 96) is tested last.
fn classify_static(c: u8) -> u32 {
    exclusive_cond!(
        site "bench-static";
        (c < 32) => (0);
        (c < 64) => (1);
        (c < 96) => (2);
        else => (3)
    )
}

/// Profile-ordered via the fixture: arm #else can't move, but the hot
/// in-range arm (#2 per the fixture) is tested first.
fn classify_profiled(c: u8) -> u32 {
    exclusive_cond!(
        profile "profiles/skewed.pgmp";
        site "bench";
        (c < 32) => (0);
        (c < 64) => (1);
        (c < 96) => (2);
        else => (3)
    )
}

fn bench_exclusive_cond(c: &mut Criterion) {
    // Input heavily skewed to the 64..96 range (arm #2).
    let inputs: Vec<u8> = (0..4096u32)
        .map(|i| if i % 10 < 9 { 64 + (i % 32) as u8 } else { (i % 32) as u8 })
        .collect();
    let mut group = c.benchmark_group("e10_exclusive_cond");

    group.bench_function("source-order", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &i in &inputs {
                acc += classify_static(black_box(i));
            }
            acc
        })
    });
    group.bench_function("profile-order", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &i in &inputs {
                acc += classify_profiled(black_box(i));
            }
            acc
        })
    });
    group.finish();
}

fn bench_hit_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_hit_overhead");
    pgmp_rt::disable_profiling();
    group.bench_function("hit-disabled", |b| {
        b.iter(|| pgmp_rt::hit(black_box("bench-point")))
    });
    pgmp_rt::enable_profiling();
    group.bench_function("hit-enabled", |b| {
        b.iter(|| pgmp_rt::hit(black_box("bench-point")))
    });
    static POINT: pgmp_rt::Point = pgmp_rt::Point::new("bench-point");
    group.bench_function("point-enabled", |b| b.iter(|| black_box(&POINT).hit()));
    pgmp_rt::disable_profiling();
    group.finish();
}

criterion_group!(benches, bench_exclusive_cond, bench_hit_overhead);
criterion_main!(benches);
