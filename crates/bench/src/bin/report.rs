//! The full evaluation report: regenerates every experiment (E1–E10) and
//! prints paper-vs-measured, one section per table/figure.
//!
//! ```sh
//! cargo run --release -p pgmp-bench --bin report
//! ```

use pgmp::workflow::run_three_pass;
use pgmp_bench::workloads::{
    figure8_input, if_r_program, optimized_engine, parser_library, sequence_program,
    shapes_library, train,
};
use pgmp_case_studies::{engine_with, loc_counts, two_pass, Lib};
use pgmp_profiler::{Dataset, ProfileInformation};
use pgmp_syntax::SourceObject;
use std::time::{Duration, Instant};

fn header(title: &str) {
    println!("\n==== {title} ====");
}

fn timed(engine: &mut pgmp::Engine, driver: &str) -> Duration {
    engine.run_str(driver, "warm.scm").expect("warmup");
    let t0 = Instant::now();
    for _ in 0..3 {
        engine.run_str(driver, "timed.scm").expect("run");
    }
    t0.elapsed() / 3
}

fn speedup_row(name: &str, baseline: Duration, optimized: Duration) {
    println!(
        "  {name}: baseline {baseline:.2?}, optimized {optimized:.2?}  -> {:.2}x",
        baseline.as_secs_f64() / optimized.as_secs_f64()
    );
}

fn e1() {
    header("E1 (Figures 1-2): if-r branch reordering");
    let result = two_pass(
        &[Lib::IfR],
        "(define (subject-contains email s) (string-contains? email s))
         (define (flag email tag) tag)
         (define (classify email)
           (if-r (subject-contains email \"PLDI\")
             (flag email 'important)
             (flag email 'spam)))
         (let loop ([i 0])
           (unless (= i 5) (classify \"PLDI mail\") (loop (add1 i))))
         (let loop ([i 0])
           (unless (= i 10) (classify \"spam mail\") (loop (add1 i))))",
        "classify.scm",
    )
    .expect("two pass");
    let swapped = result
        .expansion_text
        .contains("(if (not (subject-contains email \"PLDI\"))");
    println!("  paper:    5x important / 10x spam training swaps the branches (Fig. 2)");
    println!("  measured: branches swapped = {swapped}");

    let setup = if_r_program(200);
    let mut static_e = engine_with(&[Lib::IfR]).unwrap();
    static_e.run_str(&setup, "e1.scm").unwrap();
    let t_static = timed(&mut static_e, "(drive 4000)");
    let mut prof_e = optimized_engine(&[Lib::IfR], train(&[Lib::IfR], &setup, "e1.scm"));
    prof_e.run_str(&setup, "e1.scm").unwrap();
    let t_prof = timed(&mut prof_e, "(drive 4000)");
    speedup_row("99%-biased branch", t_static, t_prof);
    println!("  note:     the paper calls if-r \"not a meaningful optimization\" (section 2);");
    println!("            on a tree-walker the added (not ...) makes it a slight pessimization,");
    println!("            which is the faithful outcome at this level.");
}

fn e2() {
    header("E2 (Figure 3): weights and merging");
    let important = SourceObject::new("c.scm", 0, 1);
    let spam = SourceObject::new("c.scm", 2, 3);
    let d1: Dataset = [(important, 5), (spam, 10)].into_iter().collect();
    let d2: Dataset = [(important, 100), (spam, 10)].into_iter().collect();
    let merged = ProfileInformation::from_dataset(&d1)
        .merge(&ProfileInformation::from_dataset(&d2));
    println!("  paper:    important (0.5+1)/2 = 0.75 ; spam (1+0.1)/2 = 0.55");
    println!(
        "  measured: important {} ; spam {}",
        merged.weight(important),
        merged.weight(spam)
    );
}

fn e4() {
    header("E4 (Figures 5-8): profile-guided case");
    let input = figure8_input();
    let setup = format!("{}\n(run-parser \"{input}\" 1)", parser_library());
    let program = format!("{}\n(run-parser \"{input}\" 3)", parser_library());
    let result = two_pass(&[Lib::Case], &program, "parse.scm").expect("two pass");
    let parse_line = result
        .expansion_text
        .lines()
        .find(|l| l.contains("define (parse"))
        .unwrap();
    let order_ok = {
        let p = |s: &str| parse_line.find(s).unwrap();
        p("white-space") < p("start-paren")
            && p("start-paren") < p("end-paren")
            && p("end-paren") < p("(digit stream)")
    };
    println!("  paper:    clauses reordered 55/23/23/10 -> ws, (, ), digits (Fig. 8)");
    println!("  measured: clause order matches Figure 8 = {order_ok}");

    let mut static_e = engine_with(&[Lib::Case]).unwrap();
    static_e.run_str(&setup, "e4.scm").unwrap();
    let t_static = timed(&mut static_e, &format!("(run-parser \"{input}\" 60)"));
    let mut prof_e = optimized_engine(&[Lib::Case], train(&[Lib::Case], &setup, "e4.scm"));
    prof_e.run_str(&setup, "e4.scm").unwrap();
    let t_prof = timed(&mut prof_e, &format!("(run-parser \"{input}\" 60)"));
    speedup_row("Figure 8 distribution", t_static, t_prof);
}

fn e5() {
    header("E5 (Figures 9-12): receiver class prediction");
    let setup = format!("{}\n(total-area 1)", shapes_library(100));
    let mut dynamic = engine_with(&[Lib::ObjectSystem]).unwrap();
    dynamic.run_str(&setup, "e5.scm").unwrap();
    let t_dyn = timed(&mut dynamic, "(total-area 15)");
    let weights = train(&[Lib::ObjectSystem], &setup, "e5.scm");
    let mut pic = optimized_engine(&[Lib::ObjectSystem], weights);
    pic.run_str(&setup, "e5.scm").unwrap();
    let t_pic = timed(&mut pic, "(total-area 15)");
    println!("  paper:    inline the hottest classes at each call site (PIC), sorted");
    speedup_row("70/20/10 class mix", t_dyn, t_pic);
}

fn e6() {
    header("E6 (Figures 13-14): data-structure specialization");
    for len in [50usize, 200, 800] {
        let setup = sequence_program(len, 50);
        let mut list_e = engine_with(&[Lib::Sequence]).unwrap();
        list_e.run_str(&setup, "e6.scm").unwrap();
        let t_list = timed(&mut list_e, "(churn 600)");
        let weights = train(&[Lib::Sequence], &setup, "e6.scm");
        let mut vec_e = optimized_engine(&[Lib::Sequence], weights);
        vec_e.run_str(&setup, "e6.scm").unwrap();
        let t_vec = timed(&mut vec_e, "(churn 600)");
        speedup_row(&format!("random access, len {len}"), t_list, t_vec);
    }
    println!("  paper:    asymptotic improvement -> speedup must grow with length");
}

fn e7() {
    use pgmp_bench::workloads::fib_program;
    use pgmp_bytecode::{compile_chunk, BlockCounters, Vm};
    use pgmp_profiler::{CounterImpl, ProfileMode, SlotStore};

    header("E7 (section 4.4): instrumentation overhead, dense vs sampling");
    let program = fib_program(16);

    let interp = |kind: Option<CounterImpl>| {
        let mut e = pgmp::Engine::new();
        if let Some(kind) = kind {
            e.set_counter_impl(kind);
            e.set_instrumentation(ProfileMode::EveryExpression);
        }
        timed(&mut e, &program)
    };
    let base = interp(None);
    let dense = interp(Some(CounterImpl::Dense));
    let sampling = interp(Some(CounterImpl::Sampling));

    let vm = |kind: Option<CounterImpl>| {
        let mut e = pgmp::Engine::new();
        let core = e.expand_to_core(&program, "e7.scm").expect("expand");
        let chunks: Vec<_> = core.iter().map(compile_chunk).collect();
        let mut vm = Vm::new();
        if let Some(kind) = kind {
            vm.set_block_profiling(BlockCounters::with_store(SlotStore::new(kind)));
        }
        for chunk in &chunks {
            vm.run_chunk(e.interp_mut(), chunk).expect("warmup");
        }
        let t0 = Instant::now();
        for _ in 0..3 {
            for chunk in &chunks {
                vm.run_chunk(e.interp_mut(), chunk).expect("run");
            }
        }
        t0.elapsed() / 3
    };
    let vm_base = vm(None);
    let vm_dense = vm(Some(CounterImpl::Dense));
    let vm_sampling = vm(Some(CounterImpl::Sampling));

    let ratio = |t: Duration, b: Duration| t.as_secs_f64() / b.as_secs_f64();
    let added = |t: Duration, b: Duration| (ratio(t, b) - 1.0).max(1e-9);
    println!("  paper:    Chez's every-expression counting costs ~9% at run time;");
    println!("            the claim assumes counter bumps are cheap.");
    println!(
        "  interp:   every-expression dense {:.2}x, sampling {:.2}x over uninstrumented",
        ratio(dense, base),
        ratio(sampling, base)
    );
    println!(
        "  vm:       per-block dense {:.2}x, sampling {:.2}x over uninstrumented",
        ratio(vm_dense, vm_base),
        ratio(vm_sampling, vm_base)
    );
    println!(
        "  measured: the sampling beacon cuts it another {:.1}x (interp), {:.1}x (vm) vs dense",
        added(dense, base) / added(sampling, base),
        added(vm_dense, vm_base) / added(vm_sampling, vm_base)
    );
}

fn e8() {
    header("E8 (section 4.3): three-pass source+block consistency");
    let report = run_three_pass(
        "(define-syntax (if-r stx)
           (syntax-case stx ()
             [(_ test t f)
              (if (< (profile-query #'t) (profile-query #'f))
                  #'(if (not test) f t)
                  #'(if test t f))]))
         (define (bucket n) (if-r (= (modulo n 100) 0) 'rare 'common))
         (let loop ([i 0] [c 0])
           (if (= i 4000) c (loop (add1 i) (if (eqv? (bucket i) 'common) (add1 c) c))))",
        "e8.scm",
    )
    .expect("three pass");
    println!("  paper:    pass-3 block-level code remains valid (stable CFGs)");
    println!("  measured: stable = {}", report.stable);
    println!(
        "  layout:   fall-through {:.3} -> {:.3}",
        report.baseline_metrics.fallthrough_ratio(),
        report.optimized_metrics.fallthrough_ratio()
    );
}

fn e11() {
    header("E11 (extension): profile-guided inlining");
    let program = "
      (define-inlinable (double x) (* 2 x))
      (define (drive n)
        (let loop ([i 0] [acc 0])
          (if (= i n) acc (loop (add1 i) (+ acc (inline-call double i))))))
      (drive 2000)";
    let mut plain = engine_with(&[Lib::Inline]).unwrap();
    plain.run_str(program, "e11.scm").unwrap();
    let t_plain = timed(&mut plain, "(drive 8000)");
    let weights = train(&[Lib::Inline], program, "e11.scm");
    let mut inlined = optimized_engine(&[Lib::Inline], weights);
    inlined.run_str(program, "e11.scm").unwrap();
    let t_inline = timed(&mut inlined, "(drive 8000)");
    println!("  paper:    intro cites Arnold et al.: profile-guided inlining beats static");
    speedup_row("hot call site", t_plain, t_inline);
}

fn e9() {
    header("E9 (section 6): meta-program sizes");
    for (name, loc) in loc_counts() {
        println!("  {name}: {loc} lines");
    }
}

fn e13() {
    use pgmp::{IncrementalConfig, IncrementalEngine};
    use pgmp_bytecode::{canonical_form, compile_chunk};
    use pgmp_syntax::SourceObject;

    header("E13 (extension): incremental recompilation latency");
    // 200 top-level forms, 5% profile-dependent (if-r defines whose branch
    // order flips with the weights); the rest are plain defines.
    const N: usize = 200;
    const STRIDE: usize = 20;
    let mut src = String::from(
        "(define-syntax (if-r stx)
           (syntax-case stx ()
             [(_ test t-branch f-branch)
              (if (< (profile-query #'t-branch) (profile-query #'f-branch))
                  #'(if (not test) f-branch t-branch)
                  #'(if test t-branch f-branch))]))\n",
    );
    for i in 0..N {
        if i % STRIDE == 0 {
            src.push_str(&format!("(define (g{i} x) (if-r (< x 10) 'lo{i} 'hi{i}))\n"));
        } else {
            src.push_str(&format!("(define (f{i} x) (+ (* x {i}) 1))\n"));
        }
    }
    let file = "e13.scm";
    let points: Vec<(SourceObject, SourceObject)> = pgmp_reader::read_str(&src, file)
        .unwrap()
        .iter()
        .skip(1)
        .filter_map(|form| {
            let body = form.as_list()?.get(2)?.as_list()?;
            (body.len() == 4).then(|| (body[2].source.unwrap(), body[3].source.unwrap()))
        })
        .collect();
    let weights = |flip: bool| {
        let (hot, cold) = if flip { (0.1, 0.9) } else { (0.9, 0.1) };
        ProfileInformation::from_weights(
            points.iter().flat_map(|(t, f)| [(*t, hot), (*f, cold)]),
            1,
        )
    };
    let w = [weights(false), weights(true)];

    const ROUNDS: usize = 6;
    let mut incr = IncrementalEngine::new(&src, file, IncrementalConfig::default()).unwrap();
    incr.compile(&w[0]).unwrap();
    let t0 = Instant::now();
    let mut reexpanded = 0;
    for i in 0..ROUNDS {
        reexpanded = incr.compile(&w[(i + 1) % 2]).unwrap().stats.reexpanded;
    }
    let t_incr = t0.elapsed() / ROUNDS as u32;

    let t0 = Instant::now();
    for i in 0..ROUNDS {
        let mut engine = pgmp::Engine::new();
        engine.set_profile(w[i % 2].clone());
        let compiled = engine.compile_str(&src, file).unwrap();
        let _expansion = compiled.printed();
        let _cfgs: Vec<String> = compiled
            .cores
            .iter()
            .map(|c| canonical_form(&compile_chunk(c)))
            .collect();
    }
    let t_full = t0.elapsed() / ROUNDS as u32;

    println!(
        "  claim:    re-optimization is O(changed forms): {} of {N} forms consult the profile",
        points.len()
    );
    println!("  measured: {reexpanded} form(s) re-expanded per weight flip");
    speedup_row("recompile after profile flip", t_full, t_incr);
}

fn e14() {
    use pgmp::{IncrementalConfig, IncrementalEngine};
    use pgmp_case_studies::{engine_with, Lib};
    use pgmp_syntax::SourceObject;

    header("E14 (extension): cold vs warm process start");
    // 100 profile-guided `case` classifiers (the §6.1 meta-program): cold
    // start pays clause rewriting + weight sorting, in interpreted Scheme,
    // once per form; warm start restores the persisted session instead.
    const N: usize = 100;
    let mut src = String::new();
    for i in 0..N {
        src.push_str(&format!(
            "(define (classify{i} x)\n  (case x\n    [(0 1 2) 'c0-{i}]\n    [(3 4 5) 'c1-{i}]\n    [(6 7 8) 'c2-{i}]\n    [(9 10 11) 'c3-{i}]\n    [(12 13 14) 'c4-{i}]\n    [(15 16 17) 'c5-{i}]\n    [(18 19 20) 'c6-{i}]\n    [(21 22 23) 'c7-{i}]\n    [else 'other{i}]))\n"
        ));
    }
    let file = "e14.scm";
    // Clause weights skewed inversely to source order: every expansion
    // performs a real reorder.
    let mut pts: Vec<(SourceObject, f64)> = Vec::new();
    for form in pgmp_reader::read_str(&src, file).unwrap().iter() {
        let case = form.as_list().unwrap()[2].as_list().unwrap();
        for (j, clause) in case.iter().skip(2).enumerate() {
            if let Some(body) = clause.as_list().unwrap().get(1).and_then(|b| b.source) {
                pts.push((body, 0.9 / (j as f64 + 1.0)));
            }
        }
    }
    let w = ProfileInformation::from_weights(pts, 1);
    let case_engine = || engine_with(&[Lib::Case]).unwrap();

    let dir = std::env::temp_dir().join(format!("pgmp-report-e14-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let session = dir.join("e14.session");
    {
        let mut incr =
            IncrementalEngine::with_engine(case_engine(), &src, file, IncrementalConfig::default())
                .unwrap();
        incr.compile(&w).unwrap();
        incr.save_state(&session).unwrap();
    }

    const ROUNDS: usize = 6;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        let mut incr =
            IncrementalEngine::with_engine(case_engine(), &src, file, IncrementalConfig::default())
                .unwrap();
        incr.compile(&w).unwrap();
    }
    let t_cold = t0.elapsed() / ROUNDS as u32;

    let t0 = Instant::now();
    let mut reexpanded = usize::MAX;
    for _ in 0..ROUNDS {
        let mut incr =
            IncrementalEngine::with_engine(case_engine(), &src, file, IncrementalConfig::default())
                .unwrap();
        incr.load_state(&session).unwrap();
        let stored = incr.engine_mut().profile();
        reexpanded = incr.compile(&stored).unwrap().stats.reexpanded;
    }
    let t_warm = t0.elapsed() / ROUNDS as u32;
    std::fs::remove_dir_all(&dir).ok();

    println!("  claim:    restoring a persisted session skips all re-expansion ({N} forms)");
    println!("  measured: {reexpanded} form(s) re-expanded on the warm path");
    speedup_row("first optimized compile of a new process", t_cold, t_warm);
}

fn main() {
    println!("pgmp reproduction — full evaluation report");
    println!("(shape reproduction: who wins and by roughly what factor;");
    println!(" absolute numbers are interpreter-substrate specific)");
    e1();
    e2();
    e4();
    e5();
    e6();
    e7();
    e8();
    e9();
    e11();
    e13();
    e14();
    println!("\nE3 (Figure 4 API) and E10 (proc macros) have dedicated harnesses:");
    println!("tests/e3_api.rs, tests/e10_proc_macros.rs, and the Criterion benches;");
    println!("e7_overhead_table prints the full section 4.4 table.");
}
