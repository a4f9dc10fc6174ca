//! `pgmp-profiled` — the fleet profile daemon.
//!
//! ```text
//! pgmp-profiled serve --socket S --profile P [OPTIONS]
//! pgmp-profiled shutdown --socket S
//!
//! serve OPTIONS:
//!   --socket <path>        Unix-domain socket to listen on (required)
//!   --profile <path>       canonical merged profile to maintain (required)
//!   --interval-ms <ms>     merge/broadcast cadence (default 250)
//!   --trace <out.jsonl>    stream a structured trace of the daemon
//!                          (ingest batches, merges, broadcasts) while
//!                          it runs; inspect with `pgmp-trace`
//!   --metrics-listen <addr> serve the live metrics registry over HTTP
//!                          (`/metrics` Prometheus text, `/metrics.json`
//!                          snapshot); `127.0.0.1:0` picks a free port,
//!                          printed to stderr as `metrics: listening on`
//! ```
//!
//! `serve` blocks until a `shutdown` request arrives, then performs one
//! final merge, writes the canonical profile, and exits — so even a
//! short-lived fleet session always leaves a profile behind. See
//! `docs/FLEET.md` for the full operational story.

use pgmp_observe as observe;
use pgmp_profiled::daemon::{Daemon, DaemonConfig};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: pgmp-profiled serve --socket S --profile P [--interval-ms MS] [--trace OUT.jsonl] \
         [--metrics-listen ADDR]\n\
         \u{20}      pgmp-profiled shutdown --socket S"
    );
    std::process::exit(2)
}

fn serve(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut socket = None;
    let mut profile = None;
    let mut interval_ms = 250u64;
    let mut trace = None;
    let mut metrics_listen = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => socket = Some(args.next().unwrap_or_else(|| usage())),
            "--profile" => profile = Some(args.next().unwrap_or_else(|| usage())),
            "--interval-ms" => {
                interval_ms = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--trace" => trace = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-listen" => metrics_listen = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let (Some(socket), Some(profile)) = (socket, profile) else {
        usage()
    };
    if let Some(path) = &trace {
        // Streaming, not buffered: a daemon runs indefinitely and its
        // trace must survive however it dies.
        observe::start_streaming(path, observe::TraceConfig::default())
            .map_err(|e| e.to_string())?;
    }
    // Held for the daemon's lifetime; dropped (and joined) on the way
    // out so the last scrape either completes or gets a clean close.
    let _metrics_server = match &metrics_listen {
        Some(addr) => {
            let server = observe::MetricsServer::bind(addr)
                .map_err(|e| format!("--metrics-listen {addr}: {e}"))?;
            // The bound address on its own line, parseable by scripts
            // (with port 0 the kernel picked the real one).
            eprintln!("metrics: listening on http://{}/metrics", server.addr());
            Some(server)
        }
        None => None,
    };
    let mut config = DaemonConfig::new(socket, profile);
    config.merge_interval = Duration::from_millis(interval_ms.max(1));
    eprintln!(
        "pgmp-profiled: serving {} -> {} every {}ms",
        config.socket.display(),
        config.profile.display(),
        config.merge_interval.as_millis()
    );
    let daemon = Daemon::new(config);
    let result = daemon.run().map_err(|e| e.to_string());
    eprintln!(
        "pgmp-profiled: shut down after {} epoch(s)",
        daemon.epochs()
    );
    if trace.is_some() {
        match observe::stop_streaming() {
            Ok(summary) => eprintln!(
                "trace: {} event(s), {} bytes streamed, {} dropped",
                summary.events, summary.bytes, summary.dropped
            ),
            Err(e) => eprintln!("pgmp-profiled: failed to finish trace: {e}"),
        }
    }
    result
}

fn shutdown(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut socket = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => socket = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let Some(socket) = socket else { usage() };
    Daemon::request_shutdown(&socket).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let result = match args.next().as_deref() {
        Some("serve") => serve(args),
        Some("shutdown") => shutdown(args),
        _ => usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pgmp-profiled: {msg}");
            ExitCode::FAILURE
        }
    }
}
