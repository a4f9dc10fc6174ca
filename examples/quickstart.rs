//! Quickstart: the full profile-guided meta-programming cycle in one file.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! 1. Define a meta-program (`if-r`) that consults profile weights.
//! 2. Run the program instrumented on a training input.
//! 3. Store the profile, reload it in a fresh compilation session.
//! 4. Recompile: the meta-program now generates different (better) code.

use pgmp::Engine;
use pgmp_profiler::ProfileMode;

const PROGRAM: &str = r#"
  ;; A profile-guided `if`: orders branches by how often they ran.
  (define-syntax (if-r stx)
    (syntax-case stx ()
      [(_ test t-branch f-branch)
       (if (< (profile-query #'t-branch) (profile-query #'f-branch))
           #'(if (not test) f-branch t-branch)
           #'(if test t-branch f-branch))]))

  (define (classify n)
    (if-r (< n 10) 'small 'big))

  ;; Training workload: almost everything is big.
  (let loop ([i 0] [bigs 0])
    (if (= i 1000)
        bigs
        (loop (add1 i) (if (eqv? (classify i) 'big) (add1 bigs) bigs))))
"#;

fn main() -> Result<(), pgmp::Error> {
    println!("== pgmp quickstart ==\n");

    // ---- Pass 1: instrument and run on the training input -------------
    let mut training = Engine::new();
    training.set_instrumentation(ProfileMode::EveryExpression);
    let result = training.run_str(PROGRAM, "quickstart.scm")?;
    println!("training run result: {result} (bigs out of 1000)");
    println!("profile points counted: {}\n", training.counters().len());

    // ---- Store the profile (Figure 4: store-profile) ------------------
    let profile_path = std::env::temp_dir().join("quickstart.pgmp");
    training.store_profile(&profile_path)?;
    println!("profile stored to {}\n", profile_path.display());

    // ---- Pass 2: fresh session, load profile, recompile ----------------
    let mut optimizing = Engine::new();
    optimizing.load_profile(&profile_path)?;

    println!("generated code WITHOUT profile data:");
    let mut plain = Engine::new();
    for form in plain.expand_str(PROGRAM, "quickstart.scm")? {
        let text = form.to_datum().to_string();
        if text.contains("define (classify") {
            println!("  {text}");
        }
    }

    // One compile yields both the code that runs and its printed form.
    println!("\ngenerated code WITH profile data (branches swapped):");
    let compiled = optimizing.compile_str(PROGRAM, "quickstart.scm")?;
    for text in compiled.printed() {
        if text.contains("define (classify") {
            println!("  {text}");
        }
    }

    // The optimized program still computes the same answer.
    let optimized_result = optimizing.run_cores(&compiled.cores, "quickstart.scm")?;
    println!("\noptimized run result: {optimized_result}");
    assert_eq!(result.to_string(), optimized_result.to_string());
    println!("\nok: optimization preserved behaviour");
    Ok(())
}
