//! The proc-macro runtime's cached points. This file is its own test
//! binary because it calls `pgmp_rt::reset()`, which zeroes the
//! process-global registry other tests count into.

use pgmp_macros::profile;

/// One instrumented site: one `static` point, whose slot is cached on
/// its first counted hit.
fn bump() {
    profile!("rt-points-shared", {});
}

#[test]
fn macro_points_share_counters_with_named_hits_and_survive_reset() {
    pgmp_rt::enable_profiling();
    // A point the macros generate and `hit(&str)` on the same name count
    // into one counter.
    for _ in 0..3 {
        bump();
    }
    pgmp_rt::hit("rt-points-shared");
    assert_eq!(pgmp_rt::count("rt-points-shared"), 4);

    // The site has cached its slot by now; after a reset it still counts,
    // from zero, into the same counter.
    pgmp_rt::reset();
    assert_eq!(pgmp_rt::count("rt-points-shared"), 0);
    bump();
    bump();
    pgmp_rt::hit("rt-points-shared");
    pgmp_rt::disable_profiling();
    assert_eq!(pgmp_rt::count("rt-points-shared"), 3);
    assert_eq!(pgmp_rt::snapshot_weights().weight("rt-points-shared"), 1.0);
}
