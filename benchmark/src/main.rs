//! `pgmp-benchmark`: one seeded benchmark of the train → compile → run →
//! re-optimize cycle, end to end and per crate. See `README.md`.

mod compare;
mod json;
mod offline;
mod online;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use json::{quote, Json};
use report::{Plan, Report, Spec, NOMINAL_SECONDS};
use stats::{status_kib, tail};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;
use workloads::{Size, Workload};

const USAGE: &str = "usage: pgmp-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                      [--quick] [--spans FILE] [--out FILE]
       pgmp-benchmark compare A.jsonl B.jsonl";

/// Share of the sample counts `--quick` keeps.
const QUICK: f64 = 1.0 / 20.0;

struct Options {
    /// `None` runs every workload, each in a child process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    spans: Option<String>,
    out: Option<String>,
}

fn parse_args(args: &[String], spec: &Spec) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: spec.run_seconds,
        trace: false,
        quick: false,
        spans: None,
        out: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => opts.quick = true,
            "--spans" => opts.spans = Some(value()?.clone()),
            "--out" => opts.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let spec = Spec::builtin();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..], &spec);
    }
    let opts = match parse_args(&args, &spec) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("pgmp-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.workload {
        Some(w) => run_workload(w, &opts, &spec),
        None => run_all(&opts),
    };
    match result.and_then(|line| save(&opts, line)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pgmp-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Appends the result line to `--out`, if given.
fn save(opts: &Options, line: String) -> Result<String, String> {
    if let Some(path) = &opts.out {
        append(path, &format!("{line}\n"))?;
    }
    Ok(line)
}

/// One metric of a result line.
struct Metric {
    key: String,
    value: f64,
    unit: String,
}

/// The result line: the contract's four keys, metrics in spec order.
fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            quote(&m.key),
            m.value,
            quote(&m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// Scratch file for stored profiles, beside the executable (inside the
/// build directory, so the benchmark writes only inside its checkout).
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let dir = exe.parent().ok_or("the executable has no directory")?;
        Ok(Scratch(dir.join(format!(
            "pgmp-benchmark-{}.pgmp",
            std::process::id()
        ))))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The end-to-end times whose traced ÷ untraced values give
/// `trace.overhead_ratio`.
const TIMED: [&str; 4] = ["profile_ms", "compile_ms", "recompile_ms", "run_ms"];

/// Runs one workload in this process and returns its result line.
fn run_workload(w: Workload, opts: &Options, spec: &Spec) -> Result<String, String> {
    let p = workloads::program(w, opts.seed, Size::Full);
    let factor = opts.seconds / NOMINAL_SECONDS * if opts.quick { QUICK } else { 1.0 };
    let plan = Plan::base(w).scaled(factor);
    let scratch = Scratch::new()?;
    let adaptive = w == Workload::AdaptiveShift;
    let primary = |plan: &Plan, tr: &mut Tracer, rep: &mut Report| {
        if adaptive {
            online::run(&p, plan, tr, rep)
        } else {
            offline::run(&p, plan, false, &scratch.0, tr, rep)
        }
    };
    // (key, value, samples behind it)
    let mut values: Vec<(&str, f64, Vec<f64>)> = Vec::new();
    let (attempted, failed);
    if opts.trace {
        // Half the counts untraced, half traced: the same run length, and
        // the untraced half is the baseline of `trace.overhead_ratio`.
        let half = plan.scaled(0.5);
        let mut untraced = Report::default();
        primary(&half, &mut Tracer::new(false), &mut untraced)?;
        let mut tr = Tracer::new(true);
        let (mut off, mut on) = (Report::default(), Report::default());
        offline::run(&p, &half, true, &scratch.0, &mut tr, &mut off)?;
        online::run(&p, &half, &mut tr, &mut on)?;
        let traced = if adaptive { &on } else { &off };
        for m in &spec.per_layer {
            let (value, samples) = per_layer(&m.name, &untraced, traced, &off, &on)
                .ok_or(format!("{}: no samples for {}", w.name(), m.name))?;
            values.push((&m.name, value, samples));
        }
        let selfs = tr.self_times();
        let total: f64 = selfs.values().sum();
        for (layer, ms) in &selfs {
            println!(
                "{} self.{layer} {ms:.3} ms ({:.1}%)",
                w.name(),
                ms / total * 100.0
            );
        }
        if let Some(path) = &opts.spans {
            append(path, &tr.jsonl(w.name()))?;
        }
        attempted = untraced.attempted + off.attempted + on.attempted;
        failed = untraced.failed + off.failed + on.failed;
    } else {
        let mut rep = Report::default();
        primary(&plan, &mut Tracer::new(false), &mut rep)?;
        for m in &spec.end_to_end {
            let (value, samples) = match m.name.as_str() {
                "peak_rss_mb" => (status_kib("VmHWM") / 1024.0, vec![]),
                name => rep
                    .value(name)
                    .ok_or(format!("{}: no samples for {name}", w.name()))?,
            };
            values.push((&m.name, value, samples));
        }
        (attempted, failed) = (rep.attempted, rep.failed);
    }
    let mut metrics = Vec::new();
    for (key, value, samples) in values {
        let unit = spec.metric(key).map_or("", |m| m.unit.as_str());
        let mut line = format!("{} {key} {value} {unit}", w.name());
        if samples.len() > 1 {
            let _ = write!(
                line,
                " p10 n={} median={}",
                samples.len(),
                stats::median(&samples)
            );
            if let Some((label, v)) = tail(&samples) {
                let _ = write!(line, " {label}={v}");
            }
        }
        println!("{line}");
        metrics.push(Metric {
            key: key.to_owned(),
            value,
            unit: unit.to_owned(),
        });
    }
    Ok(result_line(attempted, failed, &metrics))
}

/// A per-layer metric and the samples behind it. Times come from the
/// traced reports; counts are exact and taken where they are measured.
fn per_layer(
    name: &str,
    untraced: &Report,
    traced: &Report,
    off: &Report,
    on: &Report,
) -> Option<(f64, Vec<f64>)> {
    let ratio =
        |a: Option<(f64, Vec<f64>)>, b: Option<(f64, Vec<f64>)>| Some((a?.0 / b?.0, vec![]));
    match name {
        "expander.reordered_forms"
        | "vm.dispatches"
        | "vm.calls"
        | "vm.fallthrough_ratio"
        | "core.reexpanded"
        | "core.reuse_ratio"
        | "core.retained_kb_per_engine" => untraced.value(name),
        "adaptive.collect_ms" | "adaptive.tick_ms" | "adaptive.reopts_per_shift" => on.value(name),
        "vm.ns_per_call" => {
            ratio(traced.value("run_ms"), untraced.value("vm.calls")).map(|(v, s)| (v * 1e6, s))
        }
        "vm.ns_per_dispatch" => ratio(traced.value("run_ms"), untraced.value("vm.dispatches"))
            .map(|(v, s)| (v * 1e6, s)),
        "profiler.overhead_ratio" => ratio(off.value("profiler.run_ms"), off.value("eval.run_ms")),
        "core.incremental_overhead_ratio" => ratio(
            off.value("core.incremental_compile_ms"),
            off.value("layer_split_ms"),
        ),
        "trace.overhead_ratio" => {
            let sum = |rep: &Report| {
                TIMED
                    .iter()
                    .map(|k| rep.value(k).map(|v| v.0))
                    .sum::<Option<f64>>()
            };
            Some((sum(traced)? / sum(untraced)?, vec![]))
        }
        _ => off.value(name),
    }
}

fn append(path: &str, text: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    file.write_all(text.as_bytes())
        .map_err(|e| format!("{path}: {e}"))
}

/// Runs every workload in its own child process (isolating peak memory
/// and process-global state), one after another, and merges their result
/// lines under `workload/metric` keys.
fn run_all(opts: &Options) -> Result<String, String> {
    if let Some(path) = &opts.spans {
        // Each child appends its spans.
        std::fs::write(path, "").map_err(|e| format!("{path}: {e}"))?;
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for w in Workload::ALL {
        let mut child = Command::new(&exe);
        child.args(["--workload", w.name(), "--seed", &opts.seed.to_string()]);
        child.args([
            "--seconds",
            &opts.seconds.to_string(),
            "--trace",
            if opts.trace { "1" } else { "0" },
        ]);
        if opts.quick {
            child.arg("--quick");
        }
        if let Some(path) = &opts.spans {
            child.args(["--spans", path]);
        }
        let out = child
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        if !out.status.success() {
            return Err(format!("{}: {}", w.name(), out.status));
        }
        let doc = Json::parse(last).map_err(|e| format!("{}: result line: {e}", w.name()))?;
        let number = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("{}: result line without {key}", w.name()))
        };
        attempted += number(&doc, "attempted")? as u64;
        failed += number(&doc, "failed")? as u64;
        let child_metrics = doc.get("metrics").and_then(Json::as_object);
        for (name, m) in child_metrics.unwrap_or_default() {
            metrics.push(Metric {
                key: format!("{}/{name}", w.name()),
                value: number(m, "value")?,
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
            });
        }
    }
    Ok(result_line(attempted, failed, &metrics))
}
