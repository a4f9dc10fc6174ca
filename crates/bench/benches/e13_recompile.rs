//! E13 bench — incremental recompilation latency: the per-form
//! profile-dependency cache ([`pgmp::IncrementalEngine`]) vs. a
//! from-scratch recompile, on programs of 10/100/1000 top-level forms
//! where only a small fraction (1 in 20) consult the profile.
//!
//! Claim under test: re-optimization after a profile update costs
//! O(changed forms), not O(program). Each measured iteration flips the
//! branch weights of every profile-dependent form and recompiles — the
//! incremental engine re-expands only those forms (plus none of the
//! plain ones), the baseline redoes the entire pipeline. With ≤ 10% of
//! forms profile-dependent the incremental path should win by ≥ 5× on
//! the larger program sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgmp::{Engine, IncrementalConfig, IncrementalEngine};
use pgmp_bytecode::{compile_chunk, Chunk};
use pgmp_profiler::ProfileInformation;
use pgmp_reader::read_str;
use pgmp_syntax::SourceObject;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every `DEP_STRIDE`-th form consults the profile (5% of forms).
const DEP_STRIDE: usize = 20;

/// A program of `n` top-level defines after an `if-r` macro definition;
/// every `DEP_STRIDE`-th define decides its branch order from the profile.
fn program(n: usize) -> String {
    let mut src = String::from(
        "(define-syntax (if-r stx)
           (syntax-case stx ()
             [(_ test t-branch f-branch)
              (if (< (profile-query #'t-branch) (profile-query #'f-branch))
                  #'(if (not test) f-branch t-branch)
                  #'(if test t-branch f-branch))]))\n",
    );
    for i in 0..n {
        if i % DEP_STRIDE == 0 {
            src.push_str(&format!(
                "(define (g{i} x) (if-r (< x 10) 'lo{i} 'hi{i}))\n"
            ));
        } else {
            src.push_str(&format!("(define (f{i} x) (+ (* x {i}) 1))\n"));
        }
    }
    src
}

/// Profile points of the two `if-r` branches of every profile-dependent
/// form, read straight off the source (the points a meta-program queries
/// are the source objects of the branch expressions).
fn branch_points(src: &str, file: &str) -> Vec<(SourceObject, SourceObject)> {
    read_str(src, file)
        .expect("bench program reads")
        .iter()
        .skip(1) // the define-syntax
        .filter_map(|form| {
            let define = form.as_list()?;
            let body = define.get(2)?.as_list()?;
            // (if-r test t-branch f-branch)
            if body.len() == 4 {
                Some((body[2].source?, body[3].source?))
            } else {
                None
            }
        })
        .collect()
}

/// Weights biasing every dependent form's branches one way (`flip` =
/// false) or the other (`flip` = true).
fn weights(points: &[(SourceObject, SourceObject)], flip: bool) -> ProfileInformation {
    let (hot, cold) = if flip { (0.1, 0.9) } else { (0.9, 0.1) };
    ProfileInformation::from_weights(
        points.iter().flat_map(|(t, f)| [(*t, hot), (*f, cold)]),
        1,
    )
}

/// One from-scratch recompile under `w`: the artifacts the adaptive
/// engine's incremental recompile produces (printed expansion and
/// bytecode chunks), built with no cache.
fn full_recompile(src: &str, file: &str, w: &ProfileInformation) -> (Vec<String>, Vec<Chunk>) {
    let mut engine = Engine::new();
    engine.set_profile(w.clone());
    let compiled = engine.compile_str(src, file).expect("compile");
    let chunks = compiled.cores.iter().map(compile_chunk).collect();
    (compiled.printed(), chunks)
}

fn bench_recompile(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_recompile");
    for n in [10usize, 100, 1000] {
        let src = program(n);
        let file = format!("e13_{n}.scm");
        let points = branch_points(&src, &file);
        assert_eq!(points.len(), n.div_ceil(DEP_STRIDE));
        let w = [weights(&points, false), weights(&points, true)];

        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            let mut incr =
                IncrementalEngine::new(&src, &file, IncrementalConfig::default())
                    .expect("incremental engine");
            incr.compile(&w[0]).expect("prime");
            b.iter_custom(|iters| {
                let start = Instant::now();
                for i in 0..iters {
                    // Alternate the bias so every measured recompile
                    // re-expands all dependent forms.
                    let unit = incr.compile(&w[((i + 1) % 2) as usize]).expect("recompile");
                    black_box(unit.stats.reexpanded);
                }
                start.elapsed()
            });
        });

        group.bench_with_input(BenchmarkId::new("full", n), &n, |b, _| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for i in 0..iters {
                    let w = &w[(i % 2) as usize];
                    let start = Instant::now();
                    black_box(full_recompile(&src, &file, w));
                    total += start.elapsed();
                }
                total
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_recompile);
criterion_main!(benches);
