//! Exposition-format tests: the Prometheus rendering is golden-pinned
//! (scrape configs and dashboards parse it; silent drift breaks them),
//! and the live listener is exercised end to end over a real TCP socket
//! with a raw `TcpStream` client — no curl, no HTTP crate.
//!
//! `tests/fixtures/expose.prom` is the normative rendering of one
//! exemplar snapshot. If the pin fails, the exposition format changed:
//! either revert, or regenerate with
//! `UPDATE_EXPOSE_FIXTURE=1 cargo test -p pgmp-observe --test expose`
//! and document the change in `docs/OBSERVABILITY.md`.

use pgmp_observe::{metrics, render_prometheus, MetricsServer, MetricsSnapshot};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Once;

const FIXTURE: &str = include_str!("fixtures/expose.prom");

/// A deterministic snapshot exercising every series shape: counters,
/// integer and fractional gauges, and a histogram with a zero bucket.
/// The histogram is recorded through the global registry (construction
/// is crate-private) under a name only this function touches, exactly
/// once per process, then grafted into a literal snapshot so parallel
/// tests in this binary cannot perturb the fixture.
fn exemplar_snapshot() -> MetricsSnapshot {
    static RECORD: Once = Once::new();
    RECORD.call_once(|| {
        for v in [0, 3, 3, 17] {
            metrics().record("expose.fixture_span_us", v);
        }
    });
    let hist = metrics()
        .snapshot()
        .histograms
        .get("expose.fixture_span_us")
        .cloned()
        .expect("recorded above");
    MetricsSnapshot {
        counters: [
            ("events.run".to_string(), 2u64),
            ("observe.scrapes".to_string(), 41u64),
            ("profiled.mixed_provenance_merges".to_string(), 1u64),
        ]
        .into_iter()
        .collect(),
        gauges: [
            ("adaptive.fleet_drift".to_string(), 0.25f64),
            ("profiled.inst".to_string(), 123_456_789.0f64),
            ("profiler.sample_rate_hz".to_string(), 997.0f64),
        ]
        .into_iter()
        .collect(),
        histograms: [("span.run_us".to_string(), hist)].into_iter().collect(),
    }
}

#[test]
fn prometheus_rendering_matches_pinned_fixture() {
    let actual = render_prometheus(&exemplar_snapshot());
    if std::env::var_os("UPDATE_EXPOSE_FIXTURE").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/expose.prom");
        std::fs::write(path, &actual).expect("write fixture");
    }
    assert_eq!(
        actual, FIXTURE,
        "Prometheus exposition format drifted from tests/fixtures/expose.prom; \
         scrape configs parse this — revert, or rebless with UPDATE_EXPOSE_FIXTURE=1 \
         and note the change in docs/OBSERVABILITY.md"
    );
}

/// Minimal HTTP/1.1 GET over a raw socket; returns `(status line and
/// headers, body)`. The server closes the connection after one response,
/// so read-to-end terminates.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    http_request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn http_request(addr: SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics listener");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn live_listener_serves_prometheus_text_and_json() {
    let server = MetricsServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    metrics().gauge_set("expose.live_gauge", 42.0);
    metrics().counter_add("expose.live_counter", 7);

    let (head, body) = http_get(server.addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "head: {head}");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "Prometheus scrapers key on the 0.0.4 content type: {head}"
    );
    assert!(head.contains("Connection: close"), "head: {head}");
    assert!(
        body.contains("# TYPE pgmp_expose_live_gauge gauge\npgmp_expose_live_gauge 42\n"),
        "gauge missing from scrape:\n{body}"
    );
    assert!(
        body.contains("# TYPE pgmp_expose_live_counter counter\npgmp_expose_live_counter 7\n"),
        "counter missing from scrape:\n{body}"
    );
    // The scrape itself is counted (at least once — parallel tests in
    // this binary may also have scraped).
    assert!(
        body.contains("pgmp_observe_scrapes "),
        "scrape counter:\n{body}"
    );

    let (head, body) = http_get(server.addr(), "/metrics.json");
    assert!(
        head.contains("Content-Type: application/json"),
        "head: {head}"
    );
    assert!(
        body.starts_with("{\"v\":2,"),
        "snapshot is versioned: {body}"
    );
    assert!(
        body.contains("\"expose.live_counter\":7"),
        "counter missing from JSON snapshot: {body}"
    );
    assert!(
        body.contains("\"expose.live_gauge\":42"),
        "gauge missing from JSON snapshot: {body}"
    );
}

#[test]
fn unknown_paths_and_methods_are_refused_politely() {
    let server = MetricsServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    let (head, body) = http_get(server.addr(), "/debug/pprof");
    assert!(head.starts_with("HTTP/1.1 404"), "head: {head}");
    assert!(
        body.contains("/metrics"),
        "404 should point at the real paths"
    );

    let (head, _) = http_request(
        server.addr(),
        "POST /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(head.starts_with("HTTP/1.1 405"), "head: {head}");
}

#[test]
fn dropping_the_server_releases_the_port() {
    let server = MetricsServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();
    let (head, _) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"));
    drop(server);
    // The listener thread has joined, so the socket is closed and the
    // exact address can be bound again immediately.
    let rebound =
        MetricsServer::bind(&addr.to_string()).expect("address must be rebindable after drop");
    assert_eq!(rebound.addr(), addr);
}
