//! End-to-end test of the fleet profile daemon: a real `pgmp-profiled`
//! process, several concurrent `pgmp-run --publish` writers with skewed
//! workloads, a `--subscribe` consumer that re-optimizes from fleet
//! drift, and an oracle comparing the daemon's canonical profile against
//! the offline `pgmp-profile merge` of the writers' stored profiles.
//!
//! The writers must present *identical slot tables* (the daemon refuses
//! incompatible tables at handshake) yet run *skewed workloads*. Slot
//! tables derive from source positions, so each writer runs the same
//! relative path `prog.scm` from its own working directory, with program
//! texts that differ only in same-width numeric literals: identical
//! byte offsets, identical points, different behavior.

use pgmp_case_studies::{engine_with, Lib};
use pgmp_observe::{merge_traces, read_trace_lenient, EventKind, TraceEvent};
use pgmp_profiled::wire::{self, Delta, Frame, Hello, Role};
use pgmp_profiled::Publisher;
use pgmp_profiler::{ProfileMode, StoredProfile};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// The shared fleet program. Every writer gets this text with `lo`/`hi`
/// spliced in as exactly-three-digit literals, so the annotated source
/// positions — and therefore the slot table — are identical across the
/// fleet while the `case` key distribution is not.
fn program(lo: u32, hi: u32) -> String {
    assert!((100..1000).contains(&lo) && (100..1000).contains(&hi));
    format!(
        "(define (bucket n)
  (case (quotient n 100)
    [(3 4) 'low]
    [(5 6) 'mid]
    [(7 8) 'high]
    [else 'other]))
(let loop ([i {lo}] [lows 0])
  (if (= i {hi}) lows
      (loop (add1 i) (if (eqv? (bucket i) 'low) (add1 lows) lows))))"
    )
}

/// A sibling binary of `pgmp-run` in the same target directory. Only the
/// crate that defines a bin gets a `CARGO_BIN_EXE_*` env var, so the
/// daemon and profile tools are located relative to the one we do have.
fn sibling_bin(name: &str) -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_pgmp-run"))
        .parent()
        .expect("bin dir")
        .join(name)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pgmp-fleet-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pgmp_run_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pgmp-run"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("pgmp-run spawns")
}

/// Kills the daemon if the test panics before the orderly shutdown.
struct DaemonGuard(Option<Child>);

impl DaemonGuard {
    /// Waits for exit, polling; panics if the daemon outlives the deadline.
    fn wait(mut self) -> Output {
        let mut child = self.0.take().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().expect("daemon wait").is_none() {
            assert!(Instant::now() < deadline, "daemon did not exit after shutdown request");
            std::thread::sleep(Duration::from_millis(20));
        }
        child.wait_with_output().expect("daemon output")
    }
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        if let Some(child) = self.0.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn_daemon(socket: &Path, profile: &Path) -> DaemonGuard {
    let child = Command::new(sibling_bin("pgmp-profiled"))
        .args(["serve", "--socket"])
        .arg(socket)
        .arg("--profile")
        .arg(profile)
        .args(["--interval-ms", "40"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pgmp-profiled spawns");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {}", socket.display());
        std::thread::sleep(Duration::from_millis(10));
    }
    DaemonGuard(Some(child))
}

#[test]
fn fleet_daemon_merges_three_skewed_writers_and_drives_a_subscriber() {
    if !sibling_bin("pgmp-profiled").exists() {
        // Only reachable under a `-p pgmp-case-studies` invocation that
        // skipped building the daemon crate's bin; the workspace run
        // (tier 1) always builds it.
        eprintln!("skipping: pgmp-profiled binary not built");
        return;
    }
    let dir = scratch("e2e");
    let socket = dir.join("fleet.sock");
    let fleet_profile = dir.join("fleet.pgmp");
    let daemon = spawn_daemon(&socket, &fleet_profile);

    // Three writers over disjoint 300-element ranges of the same `case`
    // dispatch: low-heavy, mid-heavy, and high-heavy. `lows` printed at
    // the end pins each workload's skew observably.
    let writers = [(300u32, 600u32, "200"), (500, 800, "0"), (600, 900, "0")];
    let mut children = Vec::new();
    for (i, (lo, hi, _)) in writers.iter().enumerate() {
        let wdir = dir.join(format!("w{i}"));
        std::fs::create_dir_all(&wdir).unwrap();
        std::fs::write(wdir.join("prog.scm"), program(*lo, *hi)).unwrap();
        let child = Command::new(env!("CARGO_BIN_EXE_pgmp-run"))
            .current_dir(&wdir)
            .args(["--libs", "case", "--instrument", "every", "--publish"])
            .arg(&socket)
            .args(["--store", "local.pgmp", "--store-format", "2", "prog.scm"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("writer spawns");
        children.push(child);
    }
    for (child, (_, _, lows)) in children.into_iter().zip(&writers) {
        let out = child.wait_with_output().expect("writer output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), *lows);
        assert!(stderr.contains("fleet: published"), "{stderr}");
    }

    // A fourth writer, in this process, whose connection drops: it sends
    // half its counts, starts a second frame and disconnects mid-frame,
    // then reconnects under the same instance id and sends the rest. The
    // daemon discards the torn frame and resumes the writer's dataset, so
    // the fleet still holds four datasets, this one weighted once.
    reconnecting_writer(&socket, &dir.join("w3"));

    // The subscriber's local workload matches writer 0 (low-heavy), but
    // the fleet aggregate is mid-heavy — drift it can only learn about
    // from the daemon's broadcasts.
    let sdir = dir.join("sub");
    std::fs::create_dir_all(&sdir).unwrap();
    std::fs::write(sdir.join("prog.scm"), program(300, 600)).unwrap();
    let out = pgmp_run_in(
        &sdir,
        &[
            "--libs", "case",
            "--adaptive", "--epochs", "3", "--threads", "1",
            "--drift-threshold", "0.02",
            "--subscribe", socket.to_str().unwrap(),
            "prog.scm",
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("fleet: subscribed to"), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("fleet: epoch") && l.contains("REOPTIMIZED generation")),
        "subscriber never re-optimized from fleet drift:\n{stderr}"
    );

    // Orderly shutdown: the daemon final-merges, writes the canonical
    // profile, and exits.
    let out = Command::new(sibling_bin("pgmp-profiled"))
        .args(["shutdown", "--socket"])
        .arg(&socket)
        .output()
        .expect("shutdown spawns");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = daemon.wait();
    let dstderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{dstderr}");
    assert!(dstderr.contains("shut down after"), "{dstderr}");

    // Oracle: the daemon's live ingestion must equal the offline
    // `pgmp-profile merge` of the writers' own stored v2 profiles —
    // same §3.2 dataset-weighted rule, same typed slot-table gate.
    let offline = dir.join("offline.pgmp");
    let out = Command::new(sibling_bin("pgmp-profile"))
        .args(["merge", "--to", "2", "-o"])
        .arg(&offline)
        .args(
            (0..=writers.len())
                .map(|i| dir.join(format!("w{i}/local.pgmp")))
                .collect::<Vec<_>>(),
        )
        .output()
        .expect("pgmp-profile spawns");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let fleet = StoredProfile::load_file(&fleet_profile).expect("canonical profile parses");
    let merged = StoredProfile::load_file(&offline).expect("offline merge parses");
    assert_eq!(fleet.version, 2);
    assert!(fleet.slots.as_ref().is_some_and(|t| !t.is_empty()), "canonical profile carries the fleet slot table");
    assert_eq!(fleet.info.dataset_count(), 4);
    assert_eq!(merged.info.dataset_count(), 4);
    let mut points: Vec<_> = fleet
        .info
        .iter()
        .map(|(p, _)| p)
        .chain(merged.info.iter().map(|(p, _)| p))
        .collect();
    points.sort();
    points.dedup();
    assert!(!points.is_empty());
    for p in points {
        let live = fleet.info.weight(p);
        let offline = merged.info.weight(p);
        assert!(
            (live - offline).abs() < 1e-9,
            "daemon and offline merge disagree at {p}: {live} vs {offline}"
        );
    }
}

/// Runs a mid-heavy `prog.scm` instrumented in this process, stores its
/// profile as `local.pgmp` in `wdir` for the offline merge, and publishes
/// its counts over two connections under this process's instance id, the
/// first dropped in the middle of a frame.
fn reconnecting_writer(socket: &Path, wdir: &Path) {
    std::fs::create_dir_all(wdir).unwrap();
    let mut engine = engine_with(&[Lib::Case]).unwrap();
    engine.set_instrumentation(ProfileMode::EveryExpression);
    engine.run_str(&program(400, 700), "prog.scm").unwrap();
    engine.store_profile_v2(wdir.join("local.pgmp")).unwrap();
    let counters = engine.counters();
    let table = counters.slot_table();
    let delta = counters.take_delta();
    let (head, tail) = delta.split_at(delta.len() / 2);
    assert!(!head.is_empty() && !tail.is_empty());

    let mut stream = std::os::unix::net::UnixStream::connect(socket).unwrap();
    let hello = Hello {
        role: Role::Publisher,
        pid: u64::from(std::process::id()),
        inst: pgmp_observe::instance_id(),
        sampled_hz: 0,
        points: table.points().to_vec(),
    };
    wire::write_frame(&mut stream, &Frame::Hello(hello)).unwrap();
    assert!(matches!(wire::read_frame(&mut stream).unwrap(), Frame::Ack(_)));
    let head = Frame::Delta(Delta { epoch: 1, counts: head.to_vec() });
    wire::write_frame(&mut stream, &head).unwrap();
    let torn = Frame::Delta(Delta { epoch: 2, counts: tail.to_vec() }).encode();
    std::io::Write::write_all(&mut stream, &torn[..torn.len() / 2]).unwrap();
    drop(stream);

    let mut publisher = Publisher::connect(socket, &table, 64).unwrap();
    assert!(publisher.publish(tail));
    publisher.close().unwrap();
}

/// Reads a trace file, failing the test on any corrupt line (these are
/// freshly recorded, so leniency would only hide a writer bug).
fn load_trace(path: &Path) -> Vec<TraceEvent> {
    let (events, errors) = read_trace_lenient(path).expect("trace file reads");
    assert!(errors.is_empty(), "corrupt lines in {}: {errors:?}", path.display());
    assert!(!events.is_empty(), "{} recorded no events", path.display());
    events
}

/// The full causal-observability loop across real processes: a traced
/// daemon, a traced publisher, and a traced subscriber — each pinned to
/// a known instance id via `PGMP_INSTANCE_ID` — produce three JSONL
/// files that `merge_traces` interleaves into one timeline where the
/// publisher's delta precedes the daemon's ingest, the daemon's
/// handshake precedes the peer's connect, and the daemon's merge
/// precedes the subscriber's apply. The `pgmp-trace` CLI must agree
/// with the library merge byte for byte, and the flame export must
/// attribute frames to the right processes.
#[test]
fn merged_fleet_traces_form_one_causal_timeline() {
    if !sibling_bin("pgmp-profiled").exists() || !sibling_bin("pgmp-trace").exists() {
        eprintln!("skipping: sibling binaries not built");
        return;
    }
    const DAEMON_INST: u64 = 9001;
    const WRITER_INST: u64 = 9101;
    const SUB_INST: u64 = 9301;
    let dir = scratch("trace-merge");
    let socket = dir.join("fleet.sock");
    let profile = dir.join("fleet.pgmp");
    let daemon_trace = dir.join("daemon.jsonl");

    let child = Command::new(sibling_bin("pgmp-profiled"))
        .args(["serve", "--socket"])
        .arg(&socket)
        .arg("--profile")
        .arg(&profile)
        .args(["--interval-ms", "40", "--trace"])
        .arg(&daemon_trace)
        .env("PGMP_INSTANCE_ID", DAEMON_INST.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pgmp-profiled spawns");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {}", socket.display());
        std::thread::sleep(Duration::from_millis(10));
    }
    let daemon = DaemonGuard(Some(child));

    // One mid-heavy writer: the subscriber's low-heavy local profile
    // must drift against the fleet aggregate it publishes.
    let wdir = dir.join("writer");
    std::fs::create_dir_all(&wdir).unwrap();
    std::fs::write(wdir.join("prog.scm"), program(500, 800)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pgmp-run"))
        .current_dir(&wdir)
        .args(["--libs", "case", "--instrument", "every", "--publish"])
        .arg(&socket)
        .args(["--trace", "trace.jsonl", "prog.scm"])
        .env("PGMP_INSTANCE_ID", WRITER_INST.to_string())
        .output()
        .expect("writer spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("fleet: published"), "{stderr}");

    let sdir = dir.join("sub");
    std::fs::create_dir_all(&sdir).unwrap();
    std::fs::write(sdir.join("prog.scm"), program(300, 600)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pgmp-run"))
        .current_dir(&sdir)
        .args([
            "--libs", "case",
            "--adaptive", "--epochs", "3", "--threads", "1",
            "--drift-threshold", "0.02",
            "--subscribe",
        ])
        .arg(&socket)
        .args(["--trace", "trace.jsonl", "prog.scm"])
        .env("PGMP_INSTANCE_ID", SUB_INST.to_string())
        .output()
        .expect("subscriber spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("fleet: subscribed to"), "{stderr}");

    let out = Command::new(sibling_bin("pgmp-profiled"))
        .args(["shutdown", "--socket"])
        .arg(&socket)
        .output()
        .expect("shutdown spawns");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = daemon.wait();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let writer_trace = wdir.join("trace.jsonl");
    let sub_trace = sdir.join("trace.jsonl");
    let traces = vec![
        load_trace(&daemon_trace),
        load_trace(&writer_trace),
        load_trace(&sub_trace),
    ];
    // Every event carries its recorder's pinned instance id.
    for (trace, inst) in traces.iter().zip([DAEMON_INST, WRITER_INST, SUB_INST]) {
        assert!(trace.iter().all(|e| e.inst == inst), "wrong inst stamps for {inst}");
    }

    let merged = merge_traces(&traces).expect("fleet traces merge");
    assert_eq!(merged.deduped, 0);
    assert!(
        merged.cross_edges >= 3,
        "expected handshake + delta + apply edges, got {}",
        merged.cross_edges
    );
    let pos = |pred: &dyn Fn(&TraceEvent) -> bool| merged.events.iter().position(pred);

    // Handshake: the daemon greeted the writer before the writer's
    // fleet_connect (it only fires after reading the Ack).
    let hello = pos(&|e| {
        e.inst == DAEMON_INST
            && matches!(&e.kind, EventKind::FleetHello { role, peer_inst, .. }
                if role == "publisher" && *peer_inst == WRITER_INST)
    })
    .expect("daemon recorded the writer's handshake");
    let connect = pos(&|e| {
        e.inst == WRITER_INST
            && matches!(&e.kind, EventKind::FleetConnect { role, daemon_inst, .. }
                if role == "publisher" && *daemon_inst == DAEMON_INST)
    })
    .expect("writer recorded its fleet_connect");
    assert!(hello < connect, "hello at {hello} must precede connect at {connect}");

    // Delta: the writer's first publish precedes the daemon's first
    // ingest of it, joined on (peer_inst, epoch).
    let publish = pos(&|e| {
        e.inst == WRITER_INST && matches!(e.kind, EventKind::PublishDelta { epoch: 1, .. })
    })
    .expect("writer recorded publish_delta");
    let ingest = pos(&|e| {
        e.inst == DAEMON_INST
            && matches!(e.kind, EventKind::IngestBatch { epoch: 1, peer_inst, .. }
                if peer_inst == WRITER_INST)
    })
    .expect("daemon recorded the ingest of the writer's delta");
    assert!(publish < ingest, "publish at {publish} must precede ingest at {ingest}");

    // Apply: whichever merge epoch the subscriber consumed, the daemon's
    // merge event for it comes first in the merged timeline.
    let (apply, apply_epoch) = merged
        .events
        .iter()
        .enumerate()
        .find_map(|(i, e)| match &e.kind {
            EventKind::FleetApply { daemon_inst, epoch, .. }
                if e.inst == SUB_INST && *daemon_inst == DAEMON_INST =>
            {
                Some((i, *epoch))
            }
            _ => None,
        })
        .expect("subscriber recorded fleet_apply");
    let merge = pos(&|e| {
        e.inst == DAEMON_INST
            && matches!(e.kind, EventKind::Merge { epoch, .. } if epoch == apply_epoch)
    })
    .expect("daemon recorded the merge the subscriber applied");
    assert!(merge < apply, "merge at {merge} must precede apply at {apply}");

    // The CLI agrees with the library, file for file.
    let merged_path = dir.join("merged.jsonl");
    let out = Command::new(sibling_bin("pgmp-trace"))
        .arg("merge")
        .arg(&daemon_trace)
        .arg(&writer_trace)
        .arg(&sub_trace)
        .arg("-o")
        .arg(&merged_path)
        .output()
        .expect("pgmp-trace spawns");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cross-process edge"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(load_trace(&merged_path), merged.events);

    // And the flame export attributes frames per process.
    let out = Command::new(sibling_bin("pgmp-trace"))
        .arg("flame")
        .arg(&merged_path)
        .output()
        .expect("pgmp-trace spawns");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let flame = String::from_utf8_lossy(&out.stdout);
    assert!(flame.contains(&format!("process:{DAEMON_INST};")), "{flame}");
    assert!(flame.contains(&format!("process:{SUB_INST};")), "{flame}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn offline_merge_refuses_aliasing_slot_tables_like_the_daemon() {
    let dir = scratch("merge-gate");
    let a = dir.join("a.pgmp");
    let b = dir.join("b.pgmp");
    std::fs::write(
        &a,
        "(pgmp-profile (version 2) (datasets 1) (slots 1) (slot 0 \"x.scm\" 0 1 1.0))",
    )
    .unwrap();
    std::fs::write(
        &b,
        "(pgmp-profile (version 2) (datasets 1) (slots 1) (slot 0 \"y.scm\" 4 9 1.0))",
    )
    .unwrap();
    let out = Command::new(sibling_bin("pgmp-profile"))
        .args(["merge", "-o"])
        .arg(dir.join("out.pgmp"))
        .arg(&a)
        .arg(&b)
        .output()
        .expect("pgmp-profile spawns");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("incompatible slot tables"), "{stderr}");
    assert!(stderr.contains("slot 0"), "{stderr}");
}

#[test]
fn diff_explains_movers_through_recorded_consultations() {
    let dir = scratch("diff-explain");
    std::fs::write(dir.join("prog.scm"), program(300, 600)).unwrap();

    // A low-heavy local profile, then an optimized+traced run under it:
    // expanding `case` queries each clause's weight, and those profile
    // queries are exactly the consultations diff --explain surfaces.
    let out = pgmp_run_in(
        &dir,
        &["--libs", "case", "--instrument", "every", "--store", "local.pgmp",
          "--store-format", "2", "prog.scm"],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = pgmp_run_in(
        &dir,
        &["--libs", "case", "--load", "local.pgmp", "--trace", "trace.jsonl", "prog.scm"],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // A mid-heavy profile to diff against, from a shifted range.
    let wdir = dir.join("shifted");
    std::fs::create_dir_all(&wdir).unwrap();
    std::fs::write(wdir.join("prog.scm"), program(500, 800)).unwrap();
    let out = pgmp_run_in(
        &wdir,
        &["--libs", "case", "--instrument", "every", "--store", "local.pgmp",
          "--store-format", "2", "prog.scm"],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = Command::new(sibling_bin("pgmp-profile"))
        .current_dir(&dir)
        .args(["diff", "--explain", "trace.jsonl", "local.pgmp", "shifted/local.pgmp"])
        .output()
        .expect("pgmp-profile spawns");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("top movers"), "{stdout}");
    // The clause bodies whose weights moved were consulted by the case
    // expansion's weight queries; at least one mover must show one.
    assert!(stdout.contains("profile-query"), "{stdout}");
    assert!(stdout.contains("drift:"), "{stdout}");
}
