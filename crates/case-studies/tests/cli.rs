//! End-to-end tests of the `pgmp-run` command-line driver.

use std::path::PathBuf;
use std::process::{Command, Output};

fn pgmp_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pgmp-run"))
        .args(args)
        .output()
        .expect("pgmp-run spawns")
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join("pgmp-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_train_then_optimize_cycle() {
    let dir = tmpdir();
    let prog = dir.join("cycle.scm");
    let profile = dir.join("cycle.pgmp");
    std::fs::write(
        &prog,
        "(define (classify n) (if-r (< n 10) 'small 'big))
         (let loop ([i 0] [bigs 0])
           (if (= i 300) bigs
               (loop (add1 i) (if (eqv? (classify i) 'big) (add1 bigs) bigs))))",
    )
    .unwrap();

    // Train.
    let out = pgmp_run(&[
        "--libs",
        "if-r",
        "--instrument",
        "every",
        "--store",
        profile.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "290");
    assert!(profile.exists());

    // Inspect the optimized expansion.
    let out = pgmp_run(&[
        "--libs",
        "if-r",
        "--load",
        profile.to_str().unwrap(),
        "--expand",
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("(if (not (< n 10)) (quote big) (quote small))"),
        "{stdout}"
    );

    // Run optimized.
    let out = pgmp_run(&[
        "--libs",
        "if-r",
        "--load",
        profile.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "290");
}

#[test]
fn warnings_go_to_stderr() {
    let dir = tmpdir();
    let prog = dir.join("warn.scm");
    let profile = dir.join("warn.pgmp");
    std::fs::write(
        &prog,
        "(define p (profiled-list 1 2 3 4 5))
         (define (hammer n)
           (let loop ([i 0] [acc 0])
             (if (= i n) acc (loop (add1 i) (+ acc (plist-ref p (modulo i 5)))))))
         (hammer 200)",
    )
    .unwrap();
    let out = pgmp_run(&[
        "--libs", "list",
        "--instrument", "every",
        "--store", profile.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = pgmp_run(&[
        "--libs", "list",
        "--load", profile.to_str().unwrap(),
        "--expand",
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("reimplement this list as a vector"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = pgmp_run(&[]);
    assert!(!out.status.success());
    let out = pgmp_run(&["--libs", "no-such-lib", "x.scm"]);
    assert!(!out.status.success());
    // Options that were removed are usage errors, not silently ignored.
    // Their names are spelled in pieces so that they appear nowhere else
    // in the tree.
    let removed_options = [
        &[concat!("--epoch", "-ms"), "5", "x.scm"][..],
        &["--adaptive", concat!("--no", "-incremental"), "x.scm"],
        &["--incremental", concat!("--fu", "se"), "x.scm"],
    ];
    for removed in removed_options {
        let out = pgmp_run(removed);
        assert_eq!(out.status.code(), Some(2), "{removed:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: pgmp-run"), "{removed:?}");
    }
    let out = pgmp_run(&["/nonexistent/prog.scm"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("pgmp-run"));
}

#[test]
fn incremental_vm_metrics_line() {
    let dir = tmpdir();
    let prog = dir.join("vm-metrics.scm");
    std::fs::write(
        &prog,
        "(define (sum n acc) (if (= n 0) acc (sum (- n 1) (+ acc n)))) (sum 10 0)",
    )
    .unwrap();
    let out = pgmp_run(&["--incremental", "--vm-metrics", prog.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "55");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("vm[flat]: "))
        .unwrap_or_else(|| panic!("no vm[flat] line: {stderr}"));
    // `N dispatches, fall-through F, C calls`
    let fields: Vec<&str> = line.split(", ").collect();
    assert_eq!(fields.len(), 3, "{line}");
    let count = |field: &str, suffix: &str| -> u64 {
        field
            .strip_suffix(suffix)
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("`{field}` is not `<n>{suffix}` in {line}"))
    };
    assert!(count(fields[0], " dispatches") > 0, "{line}");
    let ratio: f64 = fields[1]
        .strip_prefix("fall-through ")
        .and_then(|f| f.parse().ok())
        .unwrap_or_else(|| panic!("no fall-through ratio in {line}"));
    assert!((0.0..=1.0).contains(&ratio), "{line}");
    // The top-level call, then per step `=`, `-`, `+` and the self call,
    // and the final `=`.
    assert_eq!(count(fields[2], " calls"), 1 + 10 * 4 + 1, "{line}");
}

#[test]
fn program_errors_exit_nonzero_with_location() {
    let dir = tmpdir();
    let prog = dir.join("bad.scm");
    std::fs::write(&prog, "(car 5)").unwrap();
    let out = pgmp_run(&[prog.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad.scm"));
}

fn pgmp_profile(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pgmp-profile"))
        .args(args)
        .output()
        .expect("pgmp-profile spawns")
}

#[test]
fn incremental_warm_start_recompiles_with_zero_reexpansions() {
    let dir = tmpdir();
    let prog = dir.join("warm.scm");
    let profile = dir.join("warm.pgmp");
    let session = dir.join("warm.session");
    std::fs::write(
        &prog,
        "(define (classify n) (if-r (< n 10) 'small 'big))
         (let loop ([i 0] [bigs 0])
           (if (= i 300) bigs
               (loop (add1 i) (if (eqv? (classify i) 'big) (add1 bigs) bigs))))",
    )
    .unwrap();

    // Train, then compile incrementally under the profile and save state.
    let out = pgmp_run(&[
        "--libs", "if-r",
        "--instrument", "every",
        "--store", profile.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = pgmp_run(&[
        "--libs", "if-r",
        "--incremental",
        "--load", profile.to_str().unwrap(),
        "--save-state", session.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "290");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("session saved"), "{stderr}");

    // Fresh process, warm start: zero re-expansions, same answer.
    let out = pgmp_run(&[
        "--libs", "if-r",
        "--incremental",
        "--load-state", session.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "290");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warm start"), "{stderr}");
    assert!(stderr.contains("0 re-expanded"), "reuse stats must prove it: {stderr}");

    // A corrupt session file is a clean error, not a panic.
    std::fs::write(&session, "(pgmp-session (version 1) garbage").unwrap();
    let out = pgmp_run(&[
        "--libs", "if-r",
        "--incremental",
        "--load-state", session.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("pgmp-run"));
}

#[test]
fn state_flags_require_a_stateful_mode() {
    let dir = tmpdir();
    let prog = dir.join("plain.scm");
    std::fs::write(&prog, "(+ 1 2)").unwrap();
    let out = pgmp_run(&["--save-state", "/tmp/x.session", prog.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--incremental"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn profile_tool_inspects_merges_and_converts() {
    let dir = tmpdir();
    let a = dir.join("a.pgmp");
    let b = dir.join("b.pgmp");
    let merged = dir.join("merged.pgmp");
    let v2 = dir.join("merged.v2.pgmp");
    let back = dir.join("merged.back.pgmp");
    std::fs::write(
        &a,
        "(pgmp-profile\n  (version 1)\n  (datasets 1)\n  (point \"x.scm\" 0 1 1.0))\n",
    )
    .unwrap();
    std::fs::write(
        &b,
        "(pgmp-profile\n  (version 1)\n  (datasets 3)\n  (point \"x.scm\" 0 1 0.2)\n  (point \"y.scm\" 4 9 1.0))\n",
    )
    .unwrap();

    // Merge: §3.2 weighted average by dataset count -> x = (1*1.0 + 3*0.2)/4.
    let out = pgmp_profile(&[
        "merge",
        "-o", merged.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = pgmp_profile(&["inspect", merged.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("format:   v1"), "{stdout}");
    assert!(stdout.contains("datasets: 4"), "{stdout}");
    assert!(stdout.contains("0.4000   x.scm:0-1"), "{stdout}");

    // Convert to v2 with a synthesized slot table.
    let out = pgmp_profile(&[
        "convert", "--to", "2", "--slots",
        "-o", v2.to_str().unwrap(),
        merged.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&v2).unwrap();
    assert!(text.contains("(version 2)"), "{text}");
    assert!(text.contains("(slot 0 "), "{text}");
    let out = pgmp_profile(&["inspect", v2.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("format:   v2"), "{stdout}");
    assert!(stdout.contains("slots:    2"), "{stdout}");

    // Convert back to v1: byte-identical to the original merge output.
    let out = pgmp_profile(&[
        "convert", "--to", "1",
        "-o", back.to_str().unwrap(),
        v2.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert_eq!(
        std::fs::read_to_string(&merged).unwrap(),
        std::fs::read_to_string(&back).unwrap(),
        "v2 -> v1 must reproduce the v1 bytes"
    );

    // Corrupt input: typed failure, nonzero exit.
    let bad = dir.join("bad.pgmp");
    std::fs::write(&bad, "(pgmp-profile (version 9))").unwrap();
    let out = pgmp_profile(&["inspect", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unsupported profile format version"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn converted_profiles_do_not_depend_on_row_order() {
    // Each process interns the file name of the first row first; the
    // output orders slots and rows by name all the same.
    let dir = tmpdir();
    let zz = r#"(point "zz.scm" 0 1 0.5)"#;
    let aa = r#"(point "aa.scm" 0 1 1.0)"#;
    let mut outputs = Vec::new();
    for (name, rows) in [("zz-first", [zz, aa]), ("aa-first", [aa, zz])] {
        let input = dir.join(format!("{name}.pgmp"));
        let output = dir.join(format!("{name}.v2.pgmp"));
        let text = format!("(pgmp-profile (version 1) {} {})", rows[0], rows[1]);
        std::fs::write(&input, text).unwrap();
        let out = pgmp_profile(&[
            "convert",
            "--to",
            "2",
            "--slots",
            "-o",
            output.to_str().unwrap(),
            input.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push(std::fs::read_to_string(&output).unwrap());
    }
    let first_slot = r#"(slot 0 "aa.scm" 0 1 1.0)"#;
    assert!(outputs[0].contains(first_slot), "{}", outputs[0]);
    assert_eq!(outputs[0], outputs[1]);
}

#[test]
fn adaptive_snapshot_round_trips_through_the_cli() {
    let dir = tmpdir();
    let prog = dir.join("adaptive-snap.scm");
    let snap = dir.join("adaptive-snap.epoch");
    std::fs::write(
        &prog,
        "(define (classify n) (if-r (< n 10) 'small 'big))
         (let loop ([i 10])
           (unless (= i 60) (classify i) (loop (add1 i))))",
    )
    .unwrap();
    let out = pgmp_run(&[
        "--libs", "if-r",
        "--adaptive", "--epochs", "2", "--threads", "1",
        "--save-state", snap.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(snap.exists());
    let text = std::fs::read_to_string(&snap).unwrap();
    assert!(text.starts_with("(pgmp-epoch"), "{text}");

    let out = pgmp_run(&[
        "--libs", "if-r",
        "--adaptive", "--epochs", "1", "--threads", "1",
        "--load-state", snap.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("restored epoch snapshot"), "{stderr}");
}
