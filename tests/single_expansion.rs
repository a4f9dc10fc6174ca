//! One expansion per compile: every compile path runs each transformer once
//! per macro use and prints exactly the expansion it compiled.
//!
//! The paths are `Engine::compile_str` (and `two_pass`, built on it),
//! `IncrementalEngine` cold and after a warm start, and the adaptive engine,
//! which recompiles through the incremental cache. `Engine::expand_str`,
//! which runs the transformers itself, is the independent reference for the
//! printed expansion; the bytecode of `compile_str`'s cores is the reference
//! for the adaptive engine's CFGs.

use pgmp::{Engine, IncrementalConfig, IncrementalEngine};
use pgmp_adaptive::{AdaptiveConfig, AdaptiveEngine};
use pgmp_bytecode::{canonical_form, compile_chunk};
use pgmp_case_studies::{engine_with, install, two_pass, Lib};
use pgmp_profiler::{ProfileInformation, ProfileMode};
use pgmp_syntax::Symbol;

/// A three-class §6.2 program. `registered-classes` prints how many classes
/// the expand-time registry held when it expanded; the training loop sends
/// 7 Circles, 2 Squares and 1 Triangle through the `method` site.
const SHAPES: &str = "
  (class Circle ((r 1)) (define-method (area this) (* 3 (field this r) (field this r))))
  (class Square ((s 1)) (define-method (area this) (* (field this s) (field this s))))
  (class Triangle ((b 1) (h 1))
    (define-method (area this) (quotient (* (field this b) (field this h)) 2)))
  (define-syntax (registered-classes stx)
    (syntax-case stx ()
      [(_) #`(quote #,(datum->syntax stx (length (oo-all-classes))))]))
  (define class-count (registered-classes))
  (define (area-of s) (method s area))
  (define shapes
    (list (new Circle 1) (new Circle 2) (new Circle 3) (new Circle 4)
          (new Circle 5) (new Circle 6) (new Circle 7)
          (new Square 2) (new Square 3) (new Triangle 4 5)))
  (let loop ([i 0] [acc 0])
    (if (= i 10)
        (list acc class-count)
        (loop (add1 i) (+ acc (apply + (map area-of shapes))))))";

/// Weights from one instrumented run of `program` over `libs`.
fn train(libs: &[Lib], program: &str, file: &str) -> ProfileInformation {
    let mut e = engine_with(libs).unwrap();
    e.set_instrumentation(ProfileMode::EveryExpression);
    e.run_str(program, file).unwrap();
    e.current_weights()
}

/// The printed expansion `Engine::expand_str` produces under `weights`.
fn reference(libs: &[Lib], program: &str, file: &str, w: &ProfileInformation) -> Vec<String> {
    let mut e = engine_with(libs).unwrap();
    e.set_profile(w.clone());
    let forms = e.expand_str(program, file).unwrap();
    forms.iter().map(|f| f.to_datum().to_string()).collect()
}

/// Entries in the engine's expand-time `oo-class-registry`.
fn registry_len(engine: &mut Engine) -> usize {
    let name = Symbol::intern("oo-class-registry");
    let registry = engine
        .expander_mut()
        .meta
        .global(name)
        .expect("oo library loaded");
    registry.list_elems().expect("registry is a list").len()
}

/// The §6.2 outcome every path must agree on: three classes registered, and
/// the `method` site inlining Circle, then Square, with Triangle left to
/// dynamic dispatch.
fn assert_predicts_circle_then_square(path: &str, expansion: &[String]) {
    assert!(
        expansion
            .iter()
            .any(|f| f == "(define class-count (quote 3))"),
        "{path}: registry must hold three classes: {expansion:#?}"
    );
    let site = expansion
        .iter()
        .find(|f| f.starts_with("(define (area-of"))
        .unwrap_or_else(|| panic!("{path}: no method site in {expansion:#?}"));
    let circle = site.find("(quote Circle)");
    let square = site.find("(quote Square)");
    assert!(
        circle.is_some() && square.is_some() && circle < square,
        "{path}: must inline Circle, then Square: {site}"
    );
    assert!(!site.contains("(quote Triangle)"), "{path}: {site}");
    assert_eq!(site.matches("instance-of?").count(), 2, "{path}: {site}");
}

/// Canonical CFGs of the bytecode compiled from `cores`.
fn cfgs_of(cores: &[std::rc::Rc<pgmp_eval::Core>]) -> Vec<String> {
    cores.iter().map(|c| canonical_form(&compile_chunk(c))).collect()
}

fn adaptive(libs: &'static [Lib], program: &str, file: &str) -> AdaptiveEngine {
    AdaptiveEngine::with_setup(program, file, AdaptiveConfig::default(), move |e| {
        libs.iter().try_for_each(|lib| install(e, *lib))
    })
    .unwrap()
}

#[test]
fn every_path_registers_each_class_once() {
    const LIBS: &[Lib] = &[Lib::ObjectSystem];
    let file = "shapes.scm";
    let w = train(LIBS, SHAPES, file);
    assert_predicts_circle_then_square("expand_str", &reference(LIBS, SHAPES, file, &w));

    // IncrementalEngine, cold.
    let mut incr = IncrementalEngine::with_engine(
        engine_with(LIBS).unwrap(),
        SHAPES,
        file,
        IncrementalConfig::default(),
    )
    .unwrap();
    let cold = incr.compile(&w).unwrap();
    assert_predicts_circle_then_square("incremental cold", &cold.expansion);
    assert_eq!(registry_len(incr.engine_mut()), 3);

    // IncrementalEngine after a warm start: the class forms changed
    // expand-time state, so they replay and re-register.
    let dir = std::env::temp_dir().join(format!("pgmp-single-expansion-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let session = dir.join("shapes.session");
    incr.save_state(&session).unwrap();
    let mut warm = IncrementalEngine::with_engine(
        engine_with(LIBS).unwrap(),
        SHAPES,
        file,
        IncrementalConfig::default(),
    )
    .unwrap();
    let ws = warm.load_state(&session).unwrap();
    assert_eq!(ws.skipped, 0, "{ws:?}");
    assert_eq!(registry_len(warm.engine_mut()), 3);
    let unit = warm.compile(&w).unwrap();
    assert!(unit.stats.all_reused(), "{:?}", unit.stats);
    assert_predicts_circle_then_square("incremental warm", &unit.expansion);
    assert_eq!(registry_len(warm.engine_mut()), 3);
    std::fs::remove_dir_all(&dir).ok();

    // Engine::compile_str, the from-scratch reference.
    let mut engine = engine_with(LIBS).unwrap();
    engine.set_profile(w.clone());
    let compiled = engine.compile_str(SHAPES, file).unwrap();
    assert_predicts_circle_then_square("compile_str", &compiled.printed());

    // AdaptiveEngine: the same expansion, and the bytecode of the
    // from-scratch compile.
    let mut engine = adaptive(LIBS, SHAPES, file);
    engine
        .apply_fleet_epoch(&w, 0, 0)
        .unwrap()
        .expect("trained profile drifts");
    let program = engine.current_program();
    assert_predicts_circle_then_square("adaptive", &program.expansion);
    let cfgs: Vec<String> = engine.chunks().map(canonical_form).collect();
    assert_eq!(cfgs, cfgs_of(&compiled.cores), "adaptive CFGs");

    // two_pass, which compiles and runs through Engine::compile_str.
    let result = two_pass(LIBS, SHAPES, file).unwrap();
    let lines: Vec<String> = result.expansion_text.lines().map(str::to_owned).collect();
    assert_predicts_circle_then_square("two_pass", &lines);
    assert_eq!(result.training_result, result.optimized_result);
    assert!(
        result.optimized_result.ends_with(" 3)"),
        "{}",
        result.optimized_result
    );
}

#[test]
fn transformer_side_effects_run_once_per_use() {
    let program = "
      (define-for-syntax uses 0)
      (define-syntax (bump stx)
        (syntax-case stx ()
          [(_ e) (begin (set! uses (+ uses 1)) #'e)]))
      (define (f x) (bump (+ x 1)))
      (bump 2)
      (bump (bump 3))";
    let uses = |engine: &mut Engine| {
        let value = engine
            .expander_mut()
            .meta
            .global(Symbol::intern("uses"))
            .cloned();
        value.expect("uses defined").write_string()
    };

    let mut incr =
        IncrementalEngine::new(program, "bump.scm", IncrementalConfig::default()).unwrap();
    let unit = incr.compile(&ProfileInformation::empty()).unwrap();
    assert_eq!(uses(incr.engine_mut()), "4");
    assert_eq!(unit.stats.transformer_calls, 4);
    assert_eq!(unit.stats.replay_misses, 0);

    let mut engine = Engine::new();
    let compiled = engine.compile_str(program, "bump.scm").unwrap();
    assert_eq!(uses(&mut engine), "4");
    assert_eq!(compiled.transformer_calls, 4);
    assert_eq!(compiled.printed(), ["(define (f x) (+ x 1))", "2", "3"]);
}

#[test]
fn replay_misses_run_live_without_shifting_generated_points() {
    // The display walker treats a `syntax-case` clause as an application,
    // so it reaches the macro-shaped pattern `(pt)`, which the Core pass
    // never expands: the replay has no record and must run `pt` live. Its
    // point is drawn under the replay guard, so the toplevel `(pt)` still
    // compiles to the first generated point.
    let program = "
      (define-syntax (pt stx)
        (syntax-case stx ()
          [(_) #`(quote #,(datum->syntax stx (format \"~a\" (make-profile-point))))]))
      (define (shape s) (syntax-case s () [(pt) 'one] [_ 'other]))
      (pt)";
    let mut engine = Engine::new();
    let compiled = engine.compile_str(program, "miss.scm").unwrap();
    assert_eq!(compiled.replay_misses, 1);
    let first_point = "<generated>%pgmp0";
    let printed = compiled.printed();
    assert!(printed[1].contains(first_point), "{printed:?}");
    assert!(!printed[1].contains("%pgmp1"), "{printed:?}");
    let value = engine
        .run_cores(&compiled.cores, "miss.scm")
        .unwrap()
        .to_string();
    assert!(value.contains(first_point), "{value}");
}

/// One program per case-study library, each exercising its meta-program.
const LIBRARY_PROGRAMS: &[(&[Lib], &str)] = &[
    (
        &[Lib::IfR],
        "(define (f n) (if-r (= n 0) 'zero 'other))
         (let loop ([i 0] [acc '()])
           (if (= i 20) (reverse acc) (loop (add1 i) (cons (f (modulo i 7)) acc))))",
    ),
    (
        &[Lib::ExclusiveCond],
        "(define (classify n)
           (exclusive-cond
             [(< n 10) 'low]
             [(>= n 10) 'high]))
         (let loop ([i 0] [acc '()])
           (if (= i 40) (length acc) (loop (add1 i) (cons (classify i) acc))))",
    ),
    (
        &[Lib::Case],
        "(define (kind c)
           (case c
             [(#\\a #\\e #\\i #\\o #\\u) 'vowel]
             [(#\\0 #\\1 #\\2) 'digit]
             [else 'other]))
         (map kind (string->list \"hello 012 world\"))",
    ),
    (&[Lib::ObjectSystem], SHAPES),
    (
        &[Lib::ProfiledList],
        "(define p (profiled-list 1 2 3))
         (list (plist-car p) (plist-ref p 2) (plist-length p))",
    ),
    (
        &[Lib::ProfiledVector],
        "(define v (profiled-vector 1 2 3))
         (list (pvec-ref v 0) (pvec-first v) (pvec-length v))",
    ),
    (
        &[Lib::Sequence],
        "(define s (profiled-sequence 10 20 30 40))
         (let loop ([i 0] [acc 0])
           (if (= i 40) (list acc (seq-kind s))
               (loop (add1 i) (+ acc (seq-ref s (modulo i 4))))))",
    ),
    (
        &[Lib::Inline],
        "(define-inlinable (double x) (* 2 x))
         (define (hot-loop n)
           (let loop ([i 0] [acc 0])
             (if (= i n) acc (loop (add1 i) (+ acc (inline-call double i))))))
         (define (cold-path y) (inline-call double y))
         (hot-loop 200)
         (cold-path 3)",
    ),
];

#[test]
fn every_path_prints_what_expand_str_prints_for_each_library() {
    for (i, &(libs, program)) in LIBRARY_PROGRAMS.iter().enumerate() {
        let file = format!("lib{i}.scm");
        let w = train(libs, program, &file);
        let expected = reference(libs, program, &file, &w);
        let ctx = format!("{libs:?}");

        let mut incr = IncrementalEngine::with_engine(
            engine_with(libs).unwrap(),
            program,
            &file,
            IncrementalConfig::default(),
        )
        .unwrap();
        let unit = incr.compile(&w).unwrap();
        assert_eq!(unit.expansion, expected, "{ctx}: incremental");
        assert_eq!(unit.stats.replay_misses, 0, "{ctx}: incremental");
        assert!(unit.stats.transformer_calls > 0, "{ctx}: {:?}", unit.stats);

        let mut engine = engine_with(libs).unwrap();
        engine.set_profile(w.clone());
        let compiled = engine.compile_str(program, &file).unwrap();
        assert_eq!(compiled.printed(), expected, "{ctx}: compile_str");
        assert_eq!(compiled.replay_misses, 0, "{ctx}: compile_str");

        let mut engine = adaptive(libs, program, &file);
        engine.apply_fleet_epoch(&w, 0, 0).unwrap();
        let current = engine.current_program();
        assert_eq!(current.expansion, expected, "{ctx}: adaptive");
        let cfgs: Vec<String> = engine.chunks().map(canonical_form).collect();
        assert_eq!(cfgs, cfgs_of(&compiled.cores), "{ctx}: adaptive CFGs");
    }
}
