//! E10 — §5: generality of the design across meta-programming systems.
//!
//! The paper implements its design in Chez Scheme and Racket; this
//! workspace adds a third implementation in Rust's procedural macros
//! (`pgmp-macros` + `pgmp-rt`). These tests exercise the full cycle:
//! instrument → run → store profile → (a fixture stands in for the
//! recompile) → verify the profile-guided reordering.

use pgmp_macros::{exclusive_cond, profile, profiled, static_weight};

#[test]
fn profile_macro_counts_executions() {
    pgmp_rt::enable_profiling();
    let mut total = 0;
    for i in 0..7 {
        total += profile!("e10-basic", i);
    }
    pgmp_rt::disable_profiling();
    assert_eq!(total, 21);
    assert_eq!(pgmp_rt::count("e10-basic"), 7);
}

#[test]
fn profiled_attribute_counts_calls() {
    #[profiled]
    fn helper(x: u32) -> u32 {
        x * 2
    }
    pgmp_rt::enable_profiling();
    let v: u32 = (0..5).map(helper).sum();
    pgmp_rt::disable_profiling();
    assert_eq!(v, 20);
    assert_eq!(pgmp_rt::count("fn:helper"), 5);
}

/// Classifies a character; conditions count their own evaluations so the
/// arm order is observable.
fn classify_unprofiled(c: char, evals: &mut u32) -> u32 {
    exclusive_cond!(
        site "uo";
        ({ *evals += 1; c == 'd' }) => (1);
        ({ *evals += 1; c == 'x' }) => (2);
        else => (0)
    )
}

fn classify_profiled(c: char, evals: &mut u32) -> u32 {
    exclusive_cond!(
        profile "tests/fixtures/ord.pgmp";
        site "ord";
        ({ *evals += 1; c == 'd' }) => (1);
        ({ *evals += 1; c == 'x' }) => (2);
        else => (0)
    )
}

#[test]
fn without_profile_arms_keep_source_order() {
    let mut evals = 0;
    assert_eq!(classify_unprofiled('x', &mut evals), 2);
    assert_eq!(evals, 2, "both conditions tried, in source order");
    evals = 0;
    assert_eq!(classify_unprofiled('d', &mut evals), 1);
    assert_eq!(evals, 1);
}

#[test]
fn with_profile_hot_arm_is_tested_first() {
    // The fixture gives ord#1 weight 1.0 and ord#0 weight 0.1, so the
    // second source arm is generated first.
    let mut evals = 0;
    assert_eq!(classify_profiled('x', &mut evals), 2);
    assert_eq!(evals, 1, "hot arm tried first after reordering");
    evals = 0;
    assert_eq!(classify_profiled('d', &mut evals), 1);
    assert_eq!(evals, 2, "cold arm now needs two tests");
}

#[test]
fn reordering_preserves_results() {
    for c in ['d', 'x', 'q'] {
        let mut e1 = 0;
        let mut e2 = 0;
        assert_eq!(
            classify_unprofiled(c, &mut e1),
            classify_profiled(c, &mut e2),
            "same classification for {c:?}"
        );
    }
}

#[test]
fn arm_instrumentation_uses_stable_source_indices() {
    // Arm labels are by *source* index, so the profiled (reordered) build
    // counts into the same points as the unprofiled build.
    pgmp_rt::enable_profiling();
    let mut sink = 0;
    for _ in 0..3 {
        sink += classify_profiled('x', &mut sink_u32());
    }
    classify_profiled('d', &mut sink_u32());
    pgmp_rt::disable_profiling();
    let _ = sink;
    assert_eq!(pgmp_rt::count("ord#1"), 3, "x-arm keeps label ord#1 after reorder");
    assert_eq!(pgmp_rt::count("ord#0"), 1);
}

fn sink_u32() -> u32 {
    0
}

#[test]
fn static_weight_reads_the_profile_at_compile_time() {
    let hot = static_weight!("ord#1", "tests/fixtures/ord.pgmp");
    let cold = static_weight!("ord#0", "tests/fixtures/ord.pgmp");
    let unknown = static_weight!("ord#99", "tests/fixtures/ord.pgmp");
    assert_eq!(hot, 1.0);
    assert_eq!(cold, 0.1);
    assert_eq!(unknown, 0.0);
    let missing_profile = static_weight!("anything", "does/not/exist.pgmp");
    assert_eq!(missing_profile, 0.0);
}

#[test]
fn parse_fixture_reorders_four_arms() {
    // The parse.pgmp fixture reproduces Figure 8's shape in the Rust
    // implementation: digits were hottest in this (synthetic) profile.
    fn classify(c: char, evals: &mut u32) -> &'static str {
        exclusive_cond!(
            profile "tests/fixtures/parse.pgmp";
            site "parse";
            ({ *evals += 1; c == ' ' || c == '\t' }) => ("white-space");
            ({ *evals += 1; c.is_ascii_digit() }) => ("digit");
            ({ *evals += 1; c == '(' }) => ("open");
            ({ *evals += 1; c == ')' }) => ("close");
            else => ("other")
        )
    }
    // Weights: #1 digit 1.0, #2/#3 parens .42, #0 ws .18: digit tested
    // first.
    let mut evals = 0;
    assert_eq!(classify('7', &mut evals), "digit");
    assert_eq!(evals, 1);
    evals = 0;
    assert_eq!(classify(' ', &mut evals), "white-space");
    assert_eq!(evals, 4, "white-space fell to last among conditions");
    evals = 0;
    assert_eq!(classify('!', &mut evals), "other");
    assert_eq!(evals, 4);
}

#[test]
fn store_profile_round_trip() {
    let dir = std::env::temp_dir().join("pgmp-e10");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rust.pgmp");
    pgmp_rt::enable_profiling();
    for _ in 0..4 {
        profile!("e10-store-hot", {});
    }
    profile!("e10-store-cold", {});
    pgmp_rt::disable_profiling();
    pgmp_rt::store_profile(&path).unwrap();
    let w = pgmp_rt::Weights::load(&path).unwrap();
    // The counter registry is process-global and tests run in parallel,
    // so only relative claims are stable: hot ran 4x cold.
    let (hot, cold) = (w.weight("e10-store-hot"), w.weight("e10-store-cold"));
    assert!(cold > 0.0);
    assert!((hot / cold - 4.0).abs() < 1e-9, "hot={hot} cold={cold}");
}

#[test]
fn cross_implementation_profile_compatibility() {
    // A profile stored by the Scheme engine parses in the Rust runtime.
    use pgmp::Engine;
    use pgmp_profiler::ProfileMode;
    let dir = std::env::temp_dir().join("pgmp-e10-cross");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cross.pgmp");
    let mut e = Engine::new();
    e.set_instrumentation(ProfileMode::EveryExpression);
    e.run_str("(define (f) 1) (f) (f)", "cross.scm").unwrap();
    e.store_profile(&path).unwrap();
    let w = pgmp_rt::Weights::load(&path).unwrap();
    assert!(!w.is_empty());
}
