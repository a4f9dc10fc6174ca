//! Engine session semantics: how profile state, counters, warnings, and
//! the deterministic point generator behave across multiple runs within
//! one compilation session.

use pgmp::{Engine, IncrementalConfig, IncrementalEngine};
use pgmp_profiler::{ProfileInformation, ProfileMode};

#[test]
fn counters_accumulate_across_runs_in_one_session() {
    let mut e = Engine::new();
    e.set_instrumentation(ProfileMode::EveryExpression);
    e.run_str("(define (f) 'x)", "s.scm").unwrap();
    e.run_str("(f)", "s2.scm").unwrap();
    let after_one = e.current_weights().len();
    e.run_str("(f)", "s2.scm").unwrap();
    // Same source spans, higher counts: the point set stays stable while
    // counts accumulate.
    assert_eq!(e.current_weights().len(), after_one);
}

#[test]
fn set_profile_replaces_and_merge_profile_averages() {
    let mut e = Engine::new();
    let p = pgmp_syntax::SourceObject::new("m.scm", 0, 1);
    e.set_profile(ProfileInformation::from_weights([(p, 1.0)], 1));
    assert_eq!(e.profile().weight(p), 1.0);
    e.set_profile(ProfileInformation::from_weights([(p, 0.2)], 1));
    assert_eq!(e.profile().weight(p), 0.2, "set_profile replaces");
    e.merge_profile(&ProfileInformation::from_weights([(p, 0.8)], 1));
    assert_eq!(e.profile().weight(p), 0.5, "merge averages");
    assert_eq!(e.profile().dataset_count(), 2);
}

#[test]
fn compile_str_generates_the_same_points_on_every_run() {
    let program = "
      (define-syntax (pt stx)
        (syntax-case stx ()
          [(_) #`(quote #,(datum->syntax stx
                   (format \"~a\" (make-profile-point))))]))
      (pt)
      (pt)";
    let mut e = Engine::new();
    let first = e.run_str(program, "r.scm").unwrap().to_string();
    let second = e.run_str(program, "r.scm").unwrap().to_string();
    assert_ne!(first, second, "run_str continues the sequence");

    let compiled = e.compile_str(program, "r.scm").unwrap();
    let printed = compiled.printed();
    assert_eq!(printed.len(), 2);
    assert_ne!(printed[0], printed[1], "each use draws its own point");
    for _ in 0..3 {
        let again = e.compile_str(program, "r.scm").unwrap();
        assert_eq!(again.printed(), printed, "every compile replays the sequence");
        let value = e.run_cores(&again.cores, "r.scm").unwrap().to_string();
        assert!(printed[1].contains(&value), "runs what it printed: {value}");
    }
}

#[test]
fn warnings_accumulate_and_drain() {
    let mut e = Engine::new();
    e.run_str(
        "(define-syntax (w stx)
           (syntax-case stx ()
             [(_ n) (begin (warn \"warning ~a\" (syntax->datum #'n)) #''ok)]))
         (w 1)",
        "w.scm",
    )
    .unwrap();
    e.run_str("(w 2)", "w.scm").unwrap();
    assert_eq!(e.take_warnings(), vec!["warning 1", "warning 2"]);
    assert!(e.take_warnings().is_empty(), "drained");
}

#[test]
fn macros_persist_across_runs_within_a_session() {
    let mut e = Engine::new();
    e.run_str(
        "(define-syntax (inc stx) (syntax-case stx () [(_ e) #'(+ 1 e)]))",
        "m.scm",
    )
    .unwrap();
    let v = e.run_str("(inc 41)", "m2.scm").unwrap();
    assert_eq!(v.to_string(), "42");
}

#[test]
fn globals_persist_across_runs_within_a_session() {
    let mut e = Engine::new();
    e.run_str("(define counter 0)", "g.scm").unwrap();
    e.run_str("(set! counter (add1 counter))", "g2.scm").unwrap();
    e.run_str("(set! counter (add1 counter))", "g2.scm").unwrap();
    assert_eq!(e.run_str("counter", "g3.scm").unwrap().to_string(), "2");
}

#[test]
fn instrumentation_can_be_toggled_between_runs() {
    let mut e = Engine::new();
    e.run_str("(define (f) 1)", "t.scm").unwrap();
    e.set_instrumentation(ProfileMode::EveryExpression);
    e.run_str("(f)", "t2.scm").unwrap();
    let counted = e.counters().len();
    assert!(counted > 0);
    e.set_instrumentation(pgmp_profiler::ProfileMode::Off);
    e.run_str("(f)", "t2.scm").unwrap();
    assert_eq!(e.counters().len(), counted, "no new points when off");
}

#[test]
fn meta_programs_see_profile_updates_between_runs() {
    let probe = "
      (define-syntax (hotness stx)
        (syntax-case stx ()
          [(_ e) #`#,(datum->syntax stx (profile-query #'e))]))";
    let mut e = Engine::new();
    e.run_str(probe, "p.scm").unwrap();
    let before = e.run_str("(hotness (target))", "q.scm").unwrap();
    assert_eq!(before.to_string(), "0.0");
    // Install a profile covering the (target) span in q.scm and re-expand.
    let span_start = "(hotness (".len() as u32 - 1;
    let p = pgmp_syntax::SourceObject::new("q.scm", span_start, span_start + 8);
    e.set_profile(ProfileInformation::from_weights([(p, 0.9)], 1));
    let after = e.run_str("(hotness (target))", "q.scm").unwrap();
    assert_eq!(after.to_string(), "0.9");
}

#[test]
fn a_saved_session_rebuilds_its_compiled_patterns() {
    // `shape` has no template, which would leave a syntax object in its
    // code, so its entry is persistable; the driver makes its inputs with
    // `#'`, so its entry is not and re-expands on warm start.
    const PROGRAM: &str = r#"
      (define (shape s)
        (syntax-case s (else)
          [(else . _) 'literal]
          [(7 "s" _) 'constant]
          [(a b) (eq? (car (syntax->datum s)) 'skip) 'fender]
          [((k ...) ...) 'nested]
          [(n x ... last) 'ellipsis]
          [(h . t) 'dotted]
          [_ 'other]))
      (map shape (list #'(else 1 2) #'(7 "s" q) #'(skip 2) #'(noskip 2)
                       #'((1 2) () (3)) #'(h . 5) #'(h i j) #'atom))"#;
    const FILE: &str = "shapes.scm";
    let weights = ProfileInformation::empty();
    let dir = std::env::temp_dir().join(format!("pgmp-session-patterns-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shapes.session");

    let mut cold = IncrementalEngine::new(PROGRAM, FILE, IncrementalConfig::default()).unwrap();
    let cold_unit = cold.compile(&weights).unwrap();
    let cold_value = cold
        .engine_mut()
        .run_cores(&cold_unit.cores, FILE)
        .unwrap()
        .write_string();
    assert_eq!(
        cold_value,
        "(literal constant fender ellipsis nested dotted ellipsis other)"
    );
    let stats = cold.save_state(&path).unwrap();
    assert_eq!((stats.saved, stats.skipped), (1, 1), "{stats:?}");

    let mut warm = IncrementalEngine::new(PROGRAM, FILE, IncrementalConfig::default()).unwrap();
    let ws = warm.load_state(&path).unwrap();
    assert_eq!(ws.restored, 1, "{ws:?}");
    let warm_unit = warm.compile(&weights).unwrap();
    assert_eq!(warm_unit.stats.reused, 1, "{:?}", warm_unit.stats);
    assert_eq!(
        warm_unit.cores[0], cold_unit.cores[0],
        "rebuilt matchers differ"
    );
    let warm_value = warm
        .engine_mut()
        .run_cores(&warm_unit.cores, FILE)
        .unwrap()
        .write_string();
    assert_eq!(warm_value, cold_value);
    std::fs::remove_dir_all(&dir).ok();
}
