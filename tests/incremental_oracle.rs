//! Randomized oracle for the incremental recompilation cache: across an
//! arbitrary sequence of profile-weight updates, [`pgmp::IncrementalEngine`]
//! must produce exactly the artifacts a from-scratch compile produces —
//! same printed expansion, same canonical CFGs — no matter which forms it
//! chose to reuse.

use pgmp::{Engine, IncrementalConfig, IncrementalEngine};
use pgmp_bytecode::{canonical_form, compile_chunk};
use pgmp_profiler::ProfileInformation;
use pgmp_reader::read_str;
use pgmp_syntax::SourceObject;
use proptest::prelude::*;

/// An `if-r` macro followed by one define per entry of `specs`:
/// `true` forms decide their branch order from the profile, `false`
/// forms never consult it.
fn build_program(specs: &[bool]) -> String {
    let mut src = String::from(
        "(define-syntax (if-r stx)
           (syntax-case stx ()
             [(_ test t-branch f-branch)
              (if (< (profile-query #'t-branch) (profile-query #'f-branch))
                  #'(if (not test) f-branch t-branch)
                  #'(if test t-branch f-branch))]))\n",
    );
    for (i, dependent) in specs.iter().enumerate() {
        if *dependent {
            src.push_str(&format!("(define (g{i} x) (if-r (< x {i}) 'lo{i} 'hi{i}))\n"));
        } else {
            src.push_str(&format!("(define (f{i} x) (+ (* x {i}) 1))\n"));
        }
    }
    src
}

/// The profile points of every dependent form's two branches (the source
/// objects `profile-query` is handed during expansion).
fn dependent_points(src: &str, file: &str) -> Vec<(SourceObject, SourceObject)> {
    read_str(src, file)
        .expect("program reads")
        .iter()
        .skip(1)
        .filter_map(|form| {
            let body = form.as_list()?.get(2)?.as_list()?;
            if body.len() == 4 {
                Some((body[2].source?, body[3].source?))
            } else {
                None
            }
        })
        .collect()
}

/// The ground truth: a fresh engine compiling everything under `w`, each
/// form expanded once.
fn scratch_compile(src: &str, file: &str, w: &ProfileInformation) -> (Vec<String>, Vec<String>) {
    let mut engine = Engine::new();
    engine.set_profile(w.clone());
    let compiled = engine.compile_str(src, file).expect("scratch compile");
    let cfgs: Vec<String> = compiled
        .cores
        .iter()
        .map(|c| canonical_form(&compile_chunk(c)))
        .collect();
    (compiled.printed(), cfgs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn incremental_equals_from_scratch(
        specs in proptest::collection::vec(any::<bool>(), 2..7),
        steps in proptest::collection::vec(
            proptest::collection::vec((0u32..11, 0u32..11), 6..7),
            1..4,
        ),
    ) {
        let src = build_program(&specs);
        let file = "oracle.scm";
        let points = dependent_points(&src, file);
        let mut incr =
            IncrementalEngine::new(&src, file, IncrementalConfig::default()).unwrap();
        for step in &steps {
            // One (t, f) weight pair per dependent form, drawn from the
            // step's pool — repeats across steps exercise full-reuse
            // recompiles, changes exercise partial ones.
            let w = ProfileInformation::from_weights(
                points
                    .iter()
                    .zip(step.iter().cycle())
                    .flat_map(|((t, f), (a, b))| {
                        [(*t, f64::from(*a) / 10.0), (*f, f64::from(*b) / 10.0)]
                    }),
                1,
            );
            let unit = incr.compile(&w).unwrap();
            let (expansion, cfgs) = scratch_compile(&src, file, &w);
            prop_assert_eq!(&unit.expansion, &expansion, "expansion diverged");
            let unit_cfgs: Vec<String> = unit.chunks.iter().map(canonical_form).collect();
            prop_assert_eq!(unit_cfgs, cfgs, "compiled CFGs diverged");
            prop_assert_eq!(
                unit.stats.reused + unit.stats.reexpanded,
                unit.stats.total_forms
            );
        }
    }
}
