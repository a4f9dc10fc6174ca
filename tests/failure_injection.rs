//! Failure injection: malformed inputs, stale profiles, and wrong-type
//! uses of the API must produce errors (or graceful degradation), never
//! panics or silent corruption.

use pgmp::{Engine, Error, IncrementalConfig, IncrementalEngine};
use pgmp_case_studies::{engine_with, two_pass, Lib};
use pgmp_profiler::{ProfileInformation, ProfileMode};
use pgmp_syntax::SourceObject;

// ---------------------------------------------------------------------------
// Malformed profile files
// ---------------------------------------------------------------------------

#[test]
fn malformed_profile_files_are_rejected() {
    let dir = std::env::temp_dir().join("pgmp-failinj");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, contents) in [
        ("truncated.pgmp", "(pgmp-profile (version 1)"),
        ("wrong-head.pgmp", "(totally-not-a-profile)"),
        ("bad-weight.pgmp", "(pgmp-profile (point \"f\" 0 1 7.0))"),
        ("neg-weight.pgmp", "(pgmp-profile (point \"f\" 0 1 -0.2))"),
        ("non-string.pgmp", "(pgmp-profile (point f 0 1 0.5))"),
        ("binaryish.pgmp", "\u{0}\u{1}\u{2}"),
        ("empty.pgmp", ""),
        ("two-forms.pgmp", "(pgmp-profile) (pgmp-profile)"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        let mut e = Engine::new();
        assert!(
            matches!(e.load_profile(&path), Err(Error::Profile(_))),
            "{name} should be rejected"
        );
    }
}

#[test]
fn scheme_level_load_of_bad_profile_is_a_catchable_error() {
    let dir = std::env::temp_dir().join("pgmp-failinj2");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.pgmp");
    std::fs::write(&path, "(nope)").unwrap();
    let mut e = Engine::new();
    let err = e
        .run_str(
            &format!("(load-profile \"{}\")", path.to_str().unwrap()),
            "bad.scm",
        )
        .unwrap_err();
    assert!(err.to_string().contains("load-profile"));
}

#[test]
fn session_files_with_malformed_pattern_specs_are_rejected() {
    // A compiled `syntax-case` pattern is stored as its spec and rebuilt
    // on load; a spec that cannot be rebuilt fails the load.
    const PROGRAM: &str = "
      (define (shape s)
        (syntax-case s (else)
          [(else x) 'literal]
          [(k ...) 'list]
          [_ 'other]))";
    let dir = std::env::temp_dir().join(format!("pgmp-failinj-spec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shape.session");
    let weights = ProfileInformation::empty();
    let mut incr = IncrementalEngine::new(PROGRAM, "s.scm", IncrementalConfig::default()).unwrap();
    incr.compile(&weights).unwrap();
    incr.save_state(&path).unwrap();
    let good = std::fs::read_to_string(&path).unwrap();
    for (from, to) in [
        ("(var 0)", "(var 9)"),    // slot out of range
        ("(lit else)", "(lit 5)"), // literal not a symbol
        ("(ellist", "(elist"),     // unknown tag
        ("(ellist ()", "(ellist"), // missing part
        ("(var 0)", "(var -1)"),   // negative slot
        ("(var 0)", "(var)"),      // slot missing
    ] {
        assert!(good.contains(from), "{from} not in {good}");
        std::fs::write(&path, good.replacen(from, to, 1)).unwrap();
        let mut fresh =
            IncrementalEngine::new(PROGRAM, "s.scm", IncrementalConfig::default()).unwrap();
        let err = fresh.load_state(&path);
        assert!(
            matches!(err, Err(Error::Profile(_))),
            "{to}: must fail with a typed error: {err:?}"
        );
        assert!(fresh.compile(&weights).is_ok(), "{to}: poisoned the engine");
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Stale profiles
// ---------------------------------------------------------------------------

#[test]
fn stale_profile_for_renamed_file_degrades_to_unprofiled_behaviour() {
    // Weights recorded for positions in another file: every query returns
    // 0, so meta-programs behave exactly as with no data.
    let stale = ProfileInformation::from_weights(
        [
            (SourceObject::new("old-name.scm", 100, 120), 1.0),
            (SourceObject::new("old-name.scm", 130, 150), 0.5),
        ],
        1,
    );
    let mut engine = engine_with(&[Lib::IfR]).unwrap();
    engine.set_profile(stale);
    let out = engine
        .expand_str("(define (f x) (if-r (zero? x) 'a 'b))", "new-name.scm")
        .unwrap();
    assert_eq!(
        out[0].to_datum().to_string(),
        "(define (f x) (if (zero? x) (quote a) (quote b)))",
        "stale profile must act like no profile"
    );
}

#[test]
fn stale_profile_after_edit_still_compiles_and_runs() {
    // Train on one version of the program, then compile an edited version
    // (shifted positions) with the old profile. Nothing may crash and
    // semantics hold.
    let v1 = "(define (f n) (if-r (< n 5) 'lo 'hi))
              (let loop ([i 0]) (unless (= i 40) (f i) (loop (add1 i))))
              (f 9)";
    let v2 = ";; an extra comment line shifts every source position
              (define (f n) (if-r (< n 5) 'lo 'hi))
              (let loop ([i 0]) (unless (= i 40) (f i) (loop (add1 i))))
              (f 9)";
    let mut train = engine_with(&[Lib::IfR]).unwrap();
    train.set_instrumentation(ProfileMode::EveryExpression);
    train.run_str(v1, "prog.scm").unwrap();
    let mut opt = engine_with(&[Lib::IfR]).unwrap();
    opt.set_profile(train.current_weights());
    let v = opt.run_str(v2, "prog.scm").unwrap();
    assert_eq!(v.to_string(), "hi");
}

// ---------------------------------------------------------------------------
// API misuse from the object language
// ---------------------------------------------------------------------------

#[test]
fn api_type_errors_are_reported() {
    let cases = [
        // annotate-expr wants (syntax, point).
        "(define-syntax (m stx) (syntax-case stx () [(_) (annotate-expr 42 (make-profile-point))])) (m)",
        "(define-syntax (m stx) (syntax-case stx () [(_) (annotate-expr #'x 42)])) (m)",
        // profile-query wants syntax or a point.
        "(define-syntax (m stx) (syntax-case stx () [(_) (begin (profile-query 42) #'1)])) (m)",
        // store-profile wants a string.
        "(store-profile 42)",
        // make-profile-point base must be syntax or a point.
        "(define-syntax (m stx) (syntax-case stx () [(_) (begin (make-profile-point 5) #'1)])) (m)",
    ];
    for src in cases {
        let mut e = Engine::new();
        assert!(e.run_str(src, "misuse.scm").is_err(), "should fail: {src}");
    }
}

#[test]
fn store_profile_to_unwritable_path_errors() {
    let mut e = Engine::new();
    e.set_instrumentation(ProfileMode::EveryExpression);
    e.run_str("(+ 1 1)", "x.scm").unwrap();
    assert!(e.store_profile("/nonexistent-dir/deep/profile.pgmp").is_err());
}

// ---------------------------------------------------------------------------
// Case-study misuse
// ---------------------------------------------------------------------------

#[test]
fn object_system_reports_missing_methods() {
    let mut e = engine_with(&[Lib::ObjectSystem]).unwrap();
    let err = e
        .run_str(
            "(class C ((v 0)) (define-method (get this) 1))
             (dynamic-dispatch (new C) 'no-such-method)",
            "oo.scm",
        )
        .unwrap_err();
    assert!(err.to_string().contains("no method"));
}

#[test]
fn object_system_arity_errors_surface() {
    let mut e = engine_with(&[Lib::ObjectSystem]).unwrap();
    let err = e
        .run_str(
            "(class C ((v 0)) (define-method (get this extra) 1))
             (dynamic-dispatch (new C) 'get)",
            "oo.scm",
        )
        .unwrap_err();
    assert!(err.to_string().contains("expected"), "{err}");
}

#[test]
fn optimized_method_sites_handle_objects_of_unprofiled_classes() {
    // A class defined *after* training: the optimized site has no clause
    // for it, so dynamic dispatch must take over.
    let training = "
      (class A ((v 1)) (define-method (tag this) 'a))
      (define (site o) (method o tag))
      (site (new A)) (site (new A))";
    let result = two_pass(&[Lib::ObjectSystem], training, "late.scm").unwrap();
    assert_eq!(result.optimized_result, "a");
}

#[test]
fn exclusive_cond_with_non_exclusive_clauses_takes_profile_order() {
    // The programmer *asserts* mutual exclusivity; when they lie, the
    // reordering is visible. This is documented behaviour (the whole point
    // of the contract), not a crash.
    let program = "
      (define (f n)
        (exclusive-cond
          [(> n 0) 'first-clause]
          [(> n -10) 'second-clause]))
      (let loop ([i 0]) (unless (= i 30) (f 5) (loop (add1 i))))
      (f 5)";
    let result = two_pass(&[Lib::ExclusiveCond], program, "lie.scm").unwrap();
    // Both passes return SOME clause; with overlapping clauses the answer
    // may legitimately change order, but it must still be one of the two.
    assert!(["first-clause", "second-clause"]
        .contains(&result.optimized_result.as_str()));
}

#[test]
fn fuel_limits_runaway_programs() {
    let mut e = Engine::new();
    // Small budget: non-tail recursion also consumes Rust stack, so the
    // fuel must trip well before the stack would.
    e.interp_mut().set_fuel(Some(2_000));
    let err = e
        .run_str("(define (f) (cons 1 (f))) (f)", "loop.scm")
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("fuel"), "{msg}");
}

#[test]
fn fuel_limits_runaway_instrumented_programs() {
    // Instrumented runs execute on the VM, whose activations live on the
    // heap rather than the Rust stack: without the budget, the non-tail
    // loop would grow until memory ran out and the tail loop would spin
    // forever. The third loop spends its steps in `map`'s callbacks.
    for program in [
        "(define (f) (cons 1 (f))) (f)",
        "(let loop () (loop))",
        "(define (spin n) (if (= n 0) 0 (spin (- n 1))))
         (let loop () (map (lambda (x) (spin 5)) '(1 2)) (loop))",
    ] {
        for mode in [ProfileMode::EveryExpression, ProfileMode::CallsOnly] {
            let mut e = Engine::new();
            e.set_instrumentation(mode);
            e.interp_mut().set_fuel(Some(100_000));
            let err = e.run_str(program, "loop.scm").unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("fuel exhausted"), "{program}: {msg}");
            assert_eq!(e.interp().fuel(), Some(0), "{program}: budget spent");
            // The failed run still leaves the counts it derived.
            assert!(!e.counters().is_empty(), "{program}: nothing counted");
        }
    }

    // The steps callbacks take on the tree walker come out of the same
    // budget as the VM's ops: a run that takes S steps in all completes
    // on a budget of S and runs out on S - 1.
    let program = "
      (define (spin n) (if (= n 0) 0 (spin (- n 1))))
      (define (go k)
        (if (= k 0)
            'done
            (begin (map (lambda (x) (spin 20)) '(1 2 3)) (spin 20) (go (- k 1)))))
      (go 30)";
    for mode in [ProfileMode::EveryExpression, ProfileMode::CallsOnly] {
        let run = |fuel: u64| {
            let mut e = Engine::new();
            e.set_instrumentation(mode);
            e.interp_mut().set_fuel(Some(fuel));
            let out = e.run_str(program, "cb.scm");
            (out, e.interp().fuel().expect("budget set"))
        };
        let plenty = 1 << 40;
        let (out, left) = run(plenty);
        assert_eq!(out.unwrap().to_string(), "done");
        let spent = plenty - left;
        assert!(spent > 2_000, "{mode:?}: {spent} steps");
        let (out, left) = run(spent);
        assert!(out.is_ok(), "{mode:?}: a budget of {spent} ran out");
        assert_eq!(left, 0, "{mode:?}");
        let err = run(spent - 1).0.unwrap_err().to_string();
        assert!(err.contains("fuel exhausted"), "{mode:?}: {err}");
    }
}

#[test]
fn instrumented_runs_fail_with_the_tree_walkers_errors() {
    // Same kind, message and source object whichever executor failed.
    for program in [
        "(car 5)",
        "(define (g p) (+ 1 (car p))) (g 5)",
        "zzz-unbound",
        "(define (g) (+ 1 zzz-unbound)) (g)",
        "(set! zzz-unset 1)",
        "(define (g) (set! zzz-unset (+ 1 2)) 'after) (g)",
        "(define (f x) x) (f 1 2)",
        "(define (g h) (list (h 1 2))) (g (lambda (x) x))",
        "((lambda () (list (1 2))))",
        "(define (g) (error \"boom\" 1)) (list (g))",
        "(map (lambda (x) (car x)) '(1 2))",
        "(let loop ([i 0]) (if (= i 3) (vector-ref (vector) i) (loop (add1 i))))",
    ] {
        let Err(Error::Eval(want)) = Engine::new().run_str(program, "err.scm") else {
            panic!("{program}: the tree walker raised no eval error");
        };
        for mode in [ProfileMode::EveryExpression, ProfileMode::CallsOnly] {
            let mut e = Engine::new();
            e.set_instrumentation(mode);
            let Err(Error::Eval(got)) = e.run_str(program, "err.scm") else {
                panic!("{program}: the instrumented run raised no eval error");
            };
            assert_eq!(got, want, "{program} under {mode:?}");
        }
    }
}

#[test]
fn reader_errors_carry_positions() {
    let mut e = Engine::new();
    let err = e.run_str("(a b", "pos.scm").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("pos.scm"), "{msg}");
}

#[test]
fn expansion_errors_carry_positions() {
    let mut e = Engine::new();
    let err = e.run_str("\n\n  (if)", "pos2.scm").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("pos2.scm:4"), "{msg}");
}
