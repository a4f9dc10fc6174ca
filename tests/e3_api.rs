//! E3 — §3.3, Figure 4: the API, exercised from inside the object
//! language (meta-programs calling the procedures the engine installs).

use pgmp::Engine;
use pgmp_profiler::{ProfileInformation, ProfileMode};
use pgmp_syntax::SourceObject;

#[test]
fn make_profile_point_is_deterministic_across_compilations() {
    // A macro that returns its fresh profile point as a datum; two
    // separate engines must produce the same point for the same program.
    let program = "
      (define-syntax (my-point stx)
        (syntax-case stx ()
          [(_) #`(quote #,(datum->syntax stx
                   (let ([p (make-profile-point)])
                     (format \"~a\" p))))]))
      (my-point)";
    let mut e1 = Engine::new();
    let v1 = e1.run_str(program, "det.scm").unwrap().to_string();
    let mut e2 = Engine::new();
    let v2 = e2.run_str(program, "det.scm").unwrap().to_string();
    assert_eq!(v1, v2);
}

#[test]
fn annotate_expr_replaces_existing_profile_point() {
    // Figure 4: "The profile point pp replaces any other profile point
    // with which e is associated."
    let program = "
      (define-syntax (reannotated stx)
        (syntax-case stx ()
          [(_ e)
           (let* ([p1 (make-profile-point)]
                  [p2 (make-profile-point)]
                  [once (annotate-expr #'e p1)]
                  [twice (annotate-expr once p2)])
             ;; Querying through the twice-annotated syntax must find p2's
             ;; (empty) weight, not p1's.
             twice)]))
      (define (f) (reannotated (+ 1 2)))
      (f) (f)";
    let mut e = Engine::new();
    e.set_instrumentation(ProfileMode::EveryExpression);
    e.run_str(program, "re.scm").unwrap();
    let counters = e.counters();
    let weights = e.current_weights();
    // Only the *second* generated point accumulated counts.
    let generated: Vec<_> = weights
        .iter()
        .filter(|(p, _)| p.is_generated())
        .map(|(p, _)| p)
        .collect();
    assert_eq!(generated.len(), 1, "only p2 counted: {generated:?}");
    assert_eq!(counters.count(generated[0]), 2);
    assert!(generated[0].file.as_str().ends_with("%pgmp1"), "p2 is the second point");
}

#[test]
fn store_and_load_profile_from_the_object_language() {
    let dir = std::env::temp_dir().join("pgmp-e3");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scheme-driven.pgmp");
    let path_str = path.to_str().unwrap().replace('\\', "/");

    // Run instrumented, then store from inside the program.
    let program = format!(
        "(define (hot) 'h)
         (let loop ([i 0]) (unless (= i 25) (hot) (loop (add1 i))))
         (store-profile \"{path_str}\")"
    );
    let mut e1 = Engine::new();
    e1.set_instrumentation(ProfileMode::EveryExpression);
    e1.run_str(&program, "sl.scm").unwrap();
    assert!(path.exists());
    // The store happened mid-run, yet holds what ran before it, the 25
    // `(hot)` calls among it.
    let at = program.find("(hot) (loop").unwrap() as u32;
    let hot_call = SourceObject::new("sl.scm", at, at + 5);
    let stored = ProfileInformation::load_file(&path).unwrap();
    assert!(stored.weight(hot_call) > 0.0, "stored profile: {stored:?}");

    // Load in a fresh session and query from a meta-program.
    let program = format!(
        "(define-syntax (query-hot stx)
           (syntax-case stx ()
             [(_ e) #`#,(datum->syntax stx (profile-query #'e))]))
         (load-profile \"{path_str}\")
         'loaded"
    );
    let mut e2 = Engine::new();
    e2.run_str(&program, "sl2.scm").unwrap();
    assert!(!e2.profile().is_empty());
}

#[test]
fn a_stored_profile_without_hits_loads_as_no_profile_data() {
    // An uninstrumented run counts nothing, so the profile it stores
    // holds no weight and must not pass for profile data when loaded.
    let path = std::env::temp_dir().join(format!("pgmp-e3-hitless-{}.pgmp", std::process::id()));
    let path_str = path.to_str().unwrap().replace('\\', "/");
    let mut e1 = Engine::new();
    e1.run_str(
        &format!("(define (hot) 'h) (hot) (store-profile \"{path_str}\")"),
        "hitless.scm",
    )
    .unwrap();
    let mut e2 = Engine::new();
    let available = e2
        .run_str(
            &format!("(load-profile \"{path_str}\") (profile-data-available?)"),
            "hitless2.scm",
        )
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(available.write_string(), "#f");
    assert!(e2.profile().is_empty());
}

#[test]
fn profile_count_sees_the_counts_of_the_run_in_progress() {
    // `profile-count` called by the running program reads the counts of
    // everything executed so far, as the tree walker counting into the
    // session's counters would: the second read adds the second call's
    // count to the first's, with nothing counted twice or lost between.
    // Under every-expression profiling each read also counts its own
    // `#'e`, which carries the source object of `e`.
    let program = "
      (define-syntax (run-counted stx)
        (syntax-case stx ()
          [(_ e n)
           #'(begin
               (let loop ([i 0]) (unless (= i n) e (loop (add1 i))))
               (profile-count #'e))]))
      (define (hot) 'h)
      (define (count-hot n) (run-counted (hot) n))
      (list (count-hot 25) (count-hot 10))";
    let at = program.find("(hot) n)").unwrap() as u32;
    let hot_call = SourceObject::new("mid.scm", at, at + 5);
    for (mode, want) in [
        (ProfileMode::EveryExpression, "(26 37)"),
        (ProfileMode::CallsOnly, "(25 35)"),
    ] {
        let mut e = Engine::new();
        e.set_instrumentation(mode);
        let v = e.run_str(program, "mid.scm").unwrap();
        assert_eq!(v.to_string(), want, "{mode:?}");

        let mut tree = Engine::new();
        let core = tree.expand_to_core(program, "mid.scm").unwrap();
        let counters = tree.counters();
        let interp = tree.interp_mut();
        interp.set_profiling(mode, counters.clone());
        let mut walked = None;
        for form in &core {
            walked = Some(interp.eval(form, &None).unwrap());
        }
        assert_eq!(walked.unwrap().to_string(), want, "tree walker, {mode:?}");
        assert_eq!(e.counters().count(hot_call), counters.count(hot_call), "{mode:?}");
    }
}

#[test]
fn current_profile_information_is_queryable() {
    let mut e = Engine::new();
    e.set_instrumentation(ProfileMode::EveryExpression);
    e.run_str("(define (f) 1) (f)", "cpi.scm").unwrap();
    e.set_profile(e.current_weights());
    let v = e
        .run_str("(length (current-profile-information))", "cpi2.scm")
        .unwrap();
    let n: i64 = v.to_string().parse().unwrap();
    assert!(n > 0, "profile information has entries");
}

#[test]
fn profile_query_accepts_points_and_syntax() {
    let program = "
      (define-syntax (both stx)
        (syntax-case stx ()
          [(_ e)
           (let* ([p (make-profile-point)]
                  [annotated (annotate-expr #'e p)]
                  [via-point (profile-query p)]
                  [via-syntax (profile-query annotated)])
             #`(quote #,(datum->syntax stx (list via-point via-syntax))))]))
      (both (+ 1 1))";
    let mut e = Engine::new();
    let v = e.run_str(program, "pq.scm").unwrap();
    assert_eq!(v.to_string(), "(0.0 0.0)");
}

#[test]
fn profile_points_need_not_introduce_overhead_when_off() {
    // §3.1: with instrumentation off, nothing counts.
    let mut e = Engine::new();
    e.run_str(
        "(define-syntax (annotated stx)
           (syntax-case stx ()
             [(_ e) (annotate-expr #'e (make-profile-point))]))
         (define (f) (annotated (+ 1 2)))
         (f) (f)",
        "off.scm",
    )
    .unwrap();
    assert!(e.counters().is_empty());
}
