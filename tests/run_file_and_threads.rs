//! File-based engine entry points and thread-safety of the proc-macro
//! runtime.

use pgmp::Engine;
use pgmp_profiler::{ProfileMode, ShardedCounters};
use pgmp_syntax::SourceObject;
use std::collections::HashMap;

#[test]
fn run_file_compiles_and_attributes_source_to_the_path() {
    let dir = std::env::temp_dir().join("pgmp-runfile");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prog.scm");
    std::fs::write(&path, "(define (f x) (* x x))\n(f 9)").unwrap();
    let mut e = Engine::new();
    let v = e.run_file(&path).unwrap();
    assert_eq!(v.to_string(), "81");

    // Errors point into the file.
    std::fs::write(&path, "(car 5)").unwrap();
    let err = e.run_file(&path).unwrap_err().to_string();
    assert!(err.contains("prog.scm"), "{err}");

    // Missing files error cleanly.
    assert!(e.run_file(dir.join("missing.scm")).is_err());
}

#[test]
fn run_file_profile_cycle() {
    let dir = std::env::temp_dir().join("pgmp-runfile2");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("train.scm");
    std::fs::write(
        &prog,
        "(define (f n) (if (< n 3) 'lo 'hi))
         (let loop ([i 0]) (unless (= i 30) (f i) (loop (add1 i))))",
    )
    .unwrap();
    let mut e = Engine::new();
    e.set_instrumentation(ProfileMode::EveryExpression);
    e.run_file(&prog).unwrap();
    assert!(!e.current_weights().is_empty());
}

#[test]
fn rt_counters_are_thread_safe() {
    // The Rust-side runtime's registry must tolerate concurrent hits
    // (lock-free atomics); counts must not be lost. The test counts into a
    // registry of its own, of the type the runtime's global one is, so no
    // other test's use of the process-global registry or enabled flag can
    // disturb it.
    let registry = ShardedCounters::new();
    let point = SourceObject::new("threaded-point", 0, 0);
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let registry = registry.clone();
            std::thread::spawn(move || {
                for _ in 0..1000 {
                    registry.increment(point);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(registry.count(point), 8 * 1000);
}

#[test]
fn rt_weights_snapshot_under_concurrent_writes_is_consistent() {
    let registry = ShardedCounters::new();
    let point = SourceObject::new("snapshot-writer", 0, 0);
    let writing = registry.clone();
    let writer = std::thread::spawn(move || {
        for _ in 0..2000 {
            writing.increment(point);
        }
    });
    // Snapshots taken mid-write parse and stay in range.
    for _ in 0..20 {
        let counts: HashMap<String, u64> = registry
            .snapshot()
            .iter()
            .map(|(p, c)| (p.file.to_string(), c))
            .collect();
        let w = pgmp_rt::Weights::from_counts(&counts);
        let text = w.to_profile_string();
        let back = pgmp_rt::Weights::parse(&text).unwrap();
        assert_eq!(back, w);
    }
    writer.join().unwrap();
    assert_eq!(registry.count(point), 2000);
}
