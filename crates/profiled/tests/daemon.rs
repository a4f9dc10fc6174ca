//! In-process integration tests for the fleet daemon: the slot-table
//! handshake gate, the daemon-vs-offline merge oracle, epoch broadcasts,
//! and — the accounting contract — that every hit handed to a
//! [`Publisher`] is either delivered to the daemon or counted as
//! dropped, exactly, with nothing silently lost in between.

use pgmp_profiled::daemon::{Daemon, DaemonConfig};
use pgmp_profiled::wire::{self, ByeInfo, Frame};
use pgmp_profiled::{Ack, ClientError, Delta, Hello, Publisher, Role, Subscriber};
use pgmp_profiler::{Dataset, ProfileInformation, SlotMap, StoredProfile};
use pgmp_syntax::SourceObject;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::time::Duration;

/// Minimal raw-socket HTTP GET against the metrics listener; returns the
/// response body. The server sends `Connection: close`, so read-to-end
/// terminates.
fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to metrics listener");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "scrape failed: {head}");
    body.to_string()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pgmp-profiled-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn p(n: u32) -> SourceObject {
    SourceObject::new("fleet.scm", n * 10, n * 10 + 5)
}

fn table(points: &[SourceObject]) -> SlotMap {
    SlotMap::from_points(points.iter().copied()).unwrap()
}

/// Publishes `deltas` over one connection under instance id `inst`, as
/// a publisher process of its own would: hello, one delta frame each,
/// bye. A [`Publisher`] always declares this process's instance id, so
/// tests that stand in for several processes send the others through
/// this. Returns the dataset the daemon assigned, or why it refused.
fn publish_as(
    socket: &std::path::Path,
    inst: u64,
    sampled_hz: u32,
    points: &[SourceObject],
    deltas: &[&[(u32, u64)]],
) -> Result<u32, String> {
    let text = |e: &dyn std::fmt::Display| e.to_string();
    let mut stream = std::os::unix::net::UnixStream::connect(socket).map_err(|e| text(&e))?;
    let mut reader = wire::FrameReader::new(stream.try_clone().map_err(|e| text(&e))?);
    let hello = Hello {
        role: Role::Publisher,
        pid: u64::from(std::process::id()),
        inst,
        sampled_hz,
        points: points.to_vec(),
    };
    wire::write_frame(&mut stream, &Frame::Hello(hello)).map_err(|e| text(&e))?;
    let dataset = match reader.next_frame().map_err(|e| text(&e))? {
        Frame::Ack(ack) => ack.dataset,
        Frame::Error(reason) => return Err(reason),
        other => panic!("expected ack to hello, got {other:?}"),
    };
    let epochs = (1..).zip(deltas);
    let frames = epochs.map(|(epoch, counts)| {
        Frame::Delta(Delta {
            epoch,
            counts: counts.to_vec(),
        })
    });
    let bye = Frame::Bye(ByeInfo {
        inst,
        epoch: deltas.len() as u64,
    });
    for frame in frames.chain([bye]) {
        wire::write_frame(&mut stream, &frame).map_err(|e| text(&e))?;
    }
    match reader.next_frame().map_err(|e| text(&e))? {
        Frame::Ack(_) => Ok(dataset),
        Frame::Error(reason) => Err(reason),
        other => panic!("expected ack to bye, got {other:?}"),
    }
}

/// Starts a daemon on its own thread; returns a join guard.
fn spawn_daemon(config: DaemonConfig) -> std::thread::JoinHandle<()> {
    let socket = config.socket.clone();
    let handle = std::thread::spawn(move || {
        Daemon::new(config).run().expect("daemon run");
    });
    // Wait for the socket to exist before letting clients connect.
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    handle
}

#[test]
fn fleet_merge_equals_offline_merge_and_subscribers_see_epochs() {
    let dir = scratch("oracle");
    let socket = dir.join("d.sock");
    let profile = dir.join("fleet.pgmp");
    let mut config = DaemonConfig::new(&socket, &profile);
    config.merge_interval = Duration::from_millis(30);
    let daemon = spawn_daemon(config);

    let points = [p(0), p(1), p(2), p(3)];
    // Three skewed workloads: each process hammers a different point.
    let workloads: [Vec<(u32, u64)>; 3] = [
        vec![(0, 1000), (1, 10), (2, 5)],
        vec![(1, 800), (3, 40)],
        vec![(0, 3), (2, 600), (3, 600)],
    ];

    let mut subscriber = Subscriber::connect(&socket).expect("subscribe");
    for (inst, counts) in (1..).zip(&workloads) {
        // Split each workload across two deltas to exercise accumulation.
        let (head, tail) = counts.split_at(counts.len() / 2);
        if inst > 1 {
            // The others stand for processes of their own.
            publish_as(&socket, inst, 0, &points, &[head, tail]).expect("publish");
            continue;
        }
        let mut publisher = Publisher::connect(&socket, &table(&points), 64).expect("connect");
        assert!(publisher.publish(head));
        assert!(publisher.publish(tail));
        let stats = publisher.close().expect("close");
        assert_eq!(stats.dropped_frames, 0);
        assert_eq!(
            stats.published_hits,
            counts.iter().map(|(_, c)| c).sum::<u64>()
        );
    }

    // All three publishers closed behind the Bye barrier, so their
    // deltas are ingested; the next merge must reflect the whole fleet.
    let update = loop {
        let u = subscriber
            .next_epoch(Duration::from_secs(10))
            .expect("epoch");
        if u.datasets == 3 {
            break u;
        }
    };
    assert_eq!(update.points, 4);
    assert!(update.tv >= 0.0 && update.tv <= 1.0, "tv={}", update.tv);

    // The broadcast carries the same profile the daemon wrote.
    let broadcast = StoredProfile::load_from_str(&update.profile).expect("broadcast profile");
    assert_eq!(broadcast.version, 2);

    Daemon::request_shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon thread");

    // Oracle: the offline §3.2 merge of the three per-process datasets.
    let offline = workloads
        .iter()
        .map(|counts| {
            let mut d = Dataset::new();
            for (slot, count) in counts {
                d.record(points[*slot as usize], *count);
            }
            ProfileInformation::from_dataset(&d)
        })
        .reduce(|acc, info| acc.merge(&info))
        .unwrap();

    let canonical = StoredProfile::load_file(&profile).expect("canonical profile");
    assert_eq!(canonical.version, 2);
    assert_eq!(canonical.info.dataset_count(), 3);
    assert_eq!(canonical.info.len(), offline.len());
    for (point, weight) in offline.iter() {
        let daemon_weight = canonical.info.weight(point);
        assert!(
            (daemon_weight - weight).abs() < 1e-9,
            "{point}: daemon {daemon_weight} vs offline {weight}"
        );
        // And the broadcast agreed with the file.
        assert!((broadcast.info.weight(point) - weight).abs() < 1e-9);
    }
    // The canonical slot table covers every fleet point.
    let slots = canonical.slots.expect("v2 slot table");
    assert_eq!(slots.len(), 4);
    for (i, point) in points.iter().enumerate() {
        assert_eq!(slots.get(*point), Some(i as u32));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The handshake's three-way slot-table gate: order-divergent tables of
/// the same program are re-keyed by point identity (dense slot order is
/// process-local — first execution order assigns part of it), compatible
/// extensions stream untranslated, and a table sharing no point with the
/// canonical one (a different program) is refused with the typed error.
#[test]
fn slot_table_gate_remaps_reorders_and_refuses_aliens() {
    let dir = scratch("gate");
    let socket = dir.join("d.sock");
    let profile = dir.join("fleet.pgmp");
    let mut config = DaemonConfig::new(&socket, &profile);
    config.merge_interval = Duration::from_millis(50);
    let daemon = spawn_daemon(config);

    let mut first = Publisher::connect(&socket, &table(&[p(0), p(1)]), 8).expect("first");
    assert!(first.publish(&[(0, 8), (1, 2)]));
    first.close().expect("close first");

    // Same points, swapped interning order, from another process:
    // accepted, with each delta slot translated through the client's own
    // table. Slot 0 here means p(1), and must land on p(1) in the
    // canonical profile.
    publish_as(&socket, 2, 0, &[p(1), p(0)], &[&[(0, 6), (1, 3)]])
        .expect("order-divergent table of the same program must be accepted");

    // No shared point at all: a different program; combining would alias.
    let alien: Vec<SourceObject> = (0..2)
        .map(|n| SourceObject::new("other.scm", n, n + 1))
        .collect();
    let err = match Publisher::connect(&socket, &table(&alien), 8) {
        Ok(_) => panic!("alien table accepted"),
        Err(e) => e,
    };
    match err {
        ClientError::Refused(reason) => {
            assert!(
                reason.contains("incompatible slot tables"),
                "unexpected reason: {reason}"
            );
            assert!(reason.contains("slot 0"), "unexpected reason: {reason}");
        }
        other => panic!("expected refusal, got {other:?}"),
    }

    // A compatible extension is welcome and the daemon keeps serving.
    publish_as(&socket, 4, 0, &[p(0), p(1), p(2)], &[&[(2, 7)]]).expect("extension");

    // A delta slot outside the handshake table is a protocol error.
    let loose = publish_as(&socket, 5, 0, &[p(0)], &[&[(5, 1)]]);
    assert!(loose.is_err(), "out-of-range slot must be refused");

    Daemon::request_shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon thread");

    // Per-point attribution across the remap. Dataset weights (each
    // normalized by its own max): first {p0: 1.0, p1: 0.25}, swapped
    // {p0: 0.5, p1: 1.0}, extension {p2: 1.0}. An aliasing ingest would
    // have swapped the middle dataset's two weights.
    let canonical = StoredProfile::load_file(&profile).expect("canonical profile");
    assert_eq!(canonical.info.dataset_count(), 3);
    assert!((canonical.info.weight(p(0)) - 1.5 / 3.0).abs() < 1e-9);
    assert!((canonical.info.weight(p(1)) - 1.25 / 3.0).abs() < 1e-9);
    assert!((canonical.info.weight(p(2)) - 1.0 / 3.0).abs() < 1e-9);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The exact-loss-accounting contract, end to end: against a stalled
/// daemon every hit is either delivered or counted dropped — the two
/// tallies partition what the caller handed in, with nothing silent.
#[test]
fn backpressure_drops_are_accounted_exactly() {
    let dir = scratch("backpressure");
    let socket = dir.join("d.sock");
    let listener = UnixListener::bind(&socket).unwrap();

    // A hand-rolled daemon that handshakes, then stalls on command:
    // it reads nothing until told to drain, forcing the publisher's
    // kernel buffer and bounded channel to fill.
    let (drain_tx, drain_rx) = std::sync::mpsc::channel::<()>();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        match wire::read_frame(&mut stream).unwrap() {
            Frame::Hello(h) => assert!(!h.points.is_empty()),
            other => panic!("expected hello, got {other:?}"),
        }
        wire::write_frame(
            &mut stream,
            &Frame::Ack(Ack {
                dataset: 0,
                epoch: 0,
                inst: 0,
            }),
        )
        .unwrap();
        drain_rx.recv().unwrap();
        let mut received = 0u64;
        loop {
            match wire::read_frame(&mut stream).unwrap() {
                Frame::Delta(d) => received += d.counts.iter().map(|(_, c)| c).sum::<u64>(),
                Frame::Bye(_) => {
                    wire::write_frame(
                        &mut stream,
                        &Frame::Ack(Ack {
                            dataset: 0,
                            epoch: 0,
                            inst: 0,
                        }),
                    )
                    .unwrap();
                    return received;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    });

    let points: Vec<SourceObject> = (0..4).map(p).collect();
    let mut publisher = Publisher::connect(&socket, &table(&points), 1).expect("connect");

    // Big frames fill the kernel socket buffer in a few writes; with a
    // one-slot channel behind it, publishes must start failing.
    let big: Vec<(u32, u64)> = (0..20_000).map(|i| (i % 4, 3)).collect();
    let per_frame: u64 = big.iter().map(|(_, c)| c).sum();
    let mut sent_total = 0u64;
    let mut attempts = 0u32;
    while publisher.stats().dropped_frames < 3 && attempts < 500 {
        publisher.publish(&big);
        sent_total += per_frame;
        attempts += 1;
    }
    let mid_stats = publisher.stats();
    assert!(
        mid_stats.dropped_frames >= 3,
        "never saw backpressure after {attempts} attempts"
    );

    drain_tx.send(()).unwrap();
    let stats = publisher.close().expect("close");
    let received = server.join().expect("server thread");

    // The partition: every hit is in exactly one tally.
    assert_eq!(stats.published_hits + stats.dropped_hits, sent_total);
    assert_eq!(received, stats.published_hits, "accepted hits all arrived");
    assert!(stats.dropped_hits > 0);
    assert_eq!(stats.dropped_hits, stats.dropped_frames * per_frame);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The live metrics endpoint tells the fleet-health story: a scrape of
/// an in-process daemon (the registry is process-global, exactly as in
/// `pgmp-profiled --metrics-listen`) must expose the handshake remap
/// counter, the per-dataset sampled-provenance gauge declared in the
/// publisher's `Hello`, and the merged profile's provenance.
///
/// Metrics are shared with every other test in this binary, so counter
/// assertions are monotone (`>= 1`, not `== 1`) and gauges that other
/// daemons overwrite are polled until our daemon's value lands.
#[test]
fn metrics_scrape_shows_remaps_and_sampled_provenance() {
    let dir = scratch("scrape");
    let socket = dir.join("d.sock");
    let profile = dir.join("fleet.pgmp");
    let mut config = DaemonConfig::new(&socket, &profile);
    config.merge_interval = Duration::from_millis(25);
    let daemon = spawn_daemon(config);
    let server = pgmp_observe::MetricsServer::bind("127.0.0.1:0").expect("bind metrics");

    // A sampling-backed publisher declares `sampled@997hz` at handshake …
    let mut first =
        Publisher::connect_with_provenance(&socket, &table(&[p(0), p(1)]), 8, 997).expect("first");
    assert!(first.publish(&[(0, 8), (1, 2)]));
    first.close().expect("close first");
    // … and an order-divergent table from the same program, in another
    // process, forces a handshake remap.
    publish_as(&socket, 2, 997, &[p(1), p(0)], &[&[(0, 6)]]).expect("swap");

    let metric = |body: &str, name: &str| -> Option<f64> {
        body.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.parse().ok())
    };

    // Poll until a scrape observes our daemon's post-merge state: the
    // uniform sampled provenance of a 997 Hz fleet. Gauges written only
    // by this test (the per-dataset ones) must already be exact.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let body = loop {
        let body = scrape(server.addr(), "/metrics");
        if metric(&body, "pgmp_profiled_merged_sampled_hz") == Some(997.0) {
            break body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "merged sampled provenance never reached the scrape:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        metric(&body, "pgmp_profiled_handshake_remaps").is_some_and(|v| v >= 1.0),
        "remap counter missing:\n{body}"
    );
    assert_eq!(
        metric(&body, "pgmp_profiled_provenance_sampled_hz_0"),
        Some(997.0),
        "dataset 0 provenance gauge:\n{body}"
    );
    assert_eq!(
        metric(&body, "pgmp_profiled_provenance_sampled_hz_1"),
        Some(997.0),
        "dataset 1 provenance gauge:\n{body}"
    );
    assert!(
        metric(&body, "pgmp_profiled_inst").is_some_and(|v| v >= 1.0),
        "daemon instance gauge missing:\n{body}"
    );
    assert!(
        body.contains("# TYPE pgmp_profiled_handshake_remaps counter"),
        "type metadata missing:\n{body}"
    );

    Daemon::request_shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Publishers that disconnect keep contributing: their dataset stays in
/// the canonical profile, exactly as a stored per-process profile would.
#[test]
fn disconnected_publishers_stay_in_the_canonical_profile() {
    let dir = scratch("sticky");
    let socket = dir.join("d.sock");
    let profile = dir.join("fleet.pgmp");
    let mut config = DaemonConfig::new(&socket, &profile);
    config.merge_interval = Duration::from_millis(20);
    let daemon = spawn_daemon(config);

    let points = [p(0), p(1)];
    let mut early = Publisher::connect(&socket, &table(&points), 8).expect("early");
    assert!(early.publish(&[(0, 100)]));
    early.close().expect("close early");

    publish_as(&socket, 2, 0, &points, &[&[(1, 50)]]).expect("late");

    Daemon::request_shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon thread");

    let canonical = StoredProfile::load_file(&profile).expect("canonical profile");
    assert_eq!(canonical.info.dataset_count(), 2);
    // Each dataset's own maximum normalizes to 1.0; the average of
    // {1.0, 0.0} on each point is 0.5.
    assert!((canonical.info.weight(p(0)) - 0.5).abs() < 1e-9);
    assert!((canonical.info.weight(p(1)) - 0.5).abs() < 1e-9);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A dataset belongs to a publisher's instance id, not to a connection:
/// a publisher that reconnects resumes its own cumulative dataset, so the
/// §3.2 merge still weighs it once.
#[test]
fn a_reconnecting_publisher_resumes_its_dataset() {
    let dir = scratch("reconnect");
    let socket = dir.join("d.sock");
    let profile = dir.join("fleet.pgmp");
    let mut config = DaemonConfig::new(&socket, &profile);
    config.merge_interval = Duration::from_millis(20);
    let daemon = spawn_daemon(config);

    let points = [p(0), p(1)];
    let mut first = Publisher::connect(&socket, &table(&points), 8).expect("first");
    assert!(first.publish(&[(0, 30)]));
    first.close().expect("close first");
    // This process again, its table reordered: still dataset 0.
    let mut again = Publisher::connect(&socket, &table(&[p(1), p(0)]), 8).expect("reconnect");
    assert_eq!(again.dataset(), 0, "the reconnect resumes its dataset");
    assert!(again.publish(&[(0, 60), (1, 10)]));
    again.close().expect("close reconnect");
    let other = publish_as(&socket, 8, 0, &points, &[&[(1, 5)]]);
    assert_eq!(other, Ok(1), "another instance gets a dataset of its own");

    Daemon::request_shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon thread");

    // This process's one dataset is {p0: 30 + 10, p1: 60} (the
    // reconnect's slot 0 is p1); instance 8's is {p1: 5}.
    let offline = [vec![(p(0), 40), (p(1), 60)], vec![(p(1), 5)]]
        .into_iter()
        .map(|counts| ProfileInformation::from_dataset(&counts.into_iter().collect()))
        .reduce(|acc, info| acc.merge(&info))
        .unwrap();
    let canonical = StoredProfile::load_file(&profile).expect("canonical profile");
    assert_eq!(canonical.info.dataset_count(), 2);
    for point in points {
        let (live, want) = (canonical.info.weight(point), offline.weight(point));
        assert!(
            (live - want).abs() < 1e-9,
            "{point}: daemon {live} vs offline {want}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
