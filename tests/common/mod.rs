//! The counting oracle shared by `proptests.rs` and `vm_case_studies.rs`.

use pgmp_case_studies::{engine_with, tree_walk_counting, Lib};
use pgmp_profiler::{Counters, Dataset, ProfileMode};

/// One program's dataset under `mode`, collected two ways: an instrumented [`pgmp::Engine`] run, which executes
/// on the VM and derives the counts from block counts, and a tree walk
/// that counts every expression itself through `Interp::set_profiling`
/// ([`tree_walk_counting`]). Each side expands and runs the program in a
/// fresh engine with `libs` loaded, and returns its last value, printed,
/// beside its dataset.
pub fn derived_and_tree_walked(
    libs: &[Lib],
    program: &str,
    mode: ProfileMode,
) -> ((String, Dataset), (String, Dataset)) {
    let mut vm = engine_with(libs).unwrap();
    vm.set_instrumentation(mode);
    let value = vm.run_str(program, "oracle.scm").unwrap().write_string();
    let derived = (value, vm.counters().snapshot());

    let mut tree = engine_with(libs).unwrap();
    let counters = Counters::new();
    let value = tree_walk_counting(&mut tree, program, "oracle.scm", mode, &counters).unwrap();
    (derived, (value, counters.snapshot()))
}
