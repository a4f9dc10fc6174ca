//! `pgmp-profile` — inspect, merge, and convert stored profile files.
//!
//! ```text
//! pgmp-profile inspect <file.pgmp>
//!     Summary: format version, provenance (exact counts or sampled
//!     estimates, with the sampler rate), dataset count, point/slot
//!     counts, and the hottest points.
//!
//! pgmp-profile merge -o <out.pgmp> <a.pgmp> <b.pgmp> [...]
//!     Merges profiles by the paper's §3.2 rule: per-point weighted
//!     average, weighted by each profile's dataset count, so a 9-dataset
//!     profile outweighs a 1-dataset profile 9:1 on disagreement. Inputs
//!     of either format version are accepted; output is v1 unless
//!     --to 2 is given. Inputs carrying v2 slot tables are validated
//!     with the same compatibility gate the fleet daemon's handshake
//!     uses (`SlotMap::check_mergeable`): tables that reorder the same
//!     points (slot order is process-local) are re-keyed by point
//!     identity with a notice, while tables sharing no point — a
//!     different program, whose slot-indexed counters could only
//!     alias — are refused with a typed error. With --to 2, the merged
//!     output carries the combined validated table. Inputs of mixed
//!     provenance (exact counts + sampled estimates) merge with a
//!     warning; a uniform provenance is carried to the output.
//!
//! pgmp-profile convert --to <1|2> -o <out.pgmp> <in.pgmp>
//!     Rewrites a profile in the requested format version. v2 → v1 drops
//!     the slot table; v1 → v2 carries weights only unless --slots is
//!     given, which synthesizes a dense slot table from the points,
//!     sorted by file name, then span (a process preloading it interns
//!     nothing on the warm path).
//!
//! pgmp-profile diff [--top N] [--explain <trace.jsonl>] <a.pgmp> <b.pgmp>
//!     Compares two profiles: overall drift under both of the adaptive
//!     subsystem's metrics (L1 and total-variation — the same `drift`
//!     the online detector uses, so a diff score is directly comparable
//!     to `--drift-threshold`), plus the top N movers by absolute
//!     normalized-weight change (default 10). With --explain, each top
//!     mover is cross-referenced against a recorded trace (the same
//!     provenance engine as `pgmp-trace explain`): every optimization
//!     decision that consulted the moved point — directly, or through
//!     the profile queries it issued while ranking alternatives — is
//!     listed under it, so "this weight changed" connects directly to
//!     "these decisions would be revisited".
//!
//! pgmp-profile rebase [--min-confidence X] [--trace <out.jsonl>]
//!                     -o <out.pgmp> <old.pgmp> <old-src> <new-src>
//!     Re-anchors a stale profile onto edited source with the tiered
//!     matcher of `docs/REBASE.md`: unchanged forms keep their points
//!     bit-identically, moved-but-unchanged forms re-anchor at full
//!     confidence, edited forms re-anchor at a decayed confidence
//!     (recorded as v2 `(confidence ...)` provenance), and unmatched
//!     points die. The output is always format v2. With --trace, every
//!     per-point decision is recorded as a `profile_rebase` event so
//!     `pgmp-trace explain <point>` can answer why a point matched,
//!     decayed, or died.
//! ```
//!
//! All writes are atomic (temp file + rename); corrupt inputs fail with a
//! typed error, never a panic. See `docs/PROFILE_FORMAT.md` for the
//! normative format specification.

use pgmp_profiler::{drift, DriftMetric};
use pgmp_observe as observe;
use pgmp_profiler::rebase::{rebase as run_rebase, RebaseConfig};
use pgmp_profiler::{ProfileInformation, Provenance, SlotCompat, SlotMap, StoredProfile};
use pgmp_syntax::sort_by_location;
use std::fmt::Write as _;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: pgmp-profile inspect <file.pgmp>\n\
         \u{20}      pgmp-profile merge [--to 1|2] -o <out.pgmp> <in.pgmp>...\n\
         \u{20}      pgmp-profile convert --to 1|2 [--slots] -o <out.pgmp> <in.pgmp>\n\
         \u{20}      pgmp-profile diff [--top N] [--explain <trace.jsonl>] <a.pgmp> <b.pgmp>\n\
         \u{20}      pgmp-profile rebase [--min-confidence X] [--trace <out.jsonl>] \
         -o <out.pgmp> <old.pgmp> <old-src> <new-src>"
    );
    std::process::exit(2)
}

fn load(path: &str) -> Result<StoredProfile, String> {
    StoredProfile::load_file(path).map_err(|e| format!("{path}: {e}"))
}

fn inspect(out: &mut String, args: &[String]) -> Result<(), String> {
    let [path] = args else { usage() };
    let stored = load(path)?;
    let _ = writeln!(out, "file:     {path}");
    let _ = writeln!(out, "format:   v{}", stored.version);
    let _ = writeln!(out, "source:   {}", stored.provenance);
    let _ = writeln!(out, "datasets: {}", stored.info.dataset_count());
    let _ = writeln!(out, "points:   {}", stored.info.len());
    match &stored.slots {
        Some(table) => {
            let _ = writeln!(out, "slots:    {}", table.len());
        }
        None => {
            let _ = writeln!(out, "slots:    (none)");
        }
    }
    if !stored.confidence.is_empty() {
        let min = stored.confidence.values().copied().fold(1.0, f64::min);
        let _ = writeln!(
            out,
            "rebased:  {} decayed point(s) (min confidence {min:.4})",
            stored.confidence.len()
        );
    }
    let mut points: Vec<_> = stored.info.iter().collect();
    points.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    if !points.is_empty() {
        let _ = writeln!(out, "hottest:");
        for (p, w) in points.iter().take(10) {
            let _ = writeln!(out, "  {w:<8.4} {p}");
        }
        if points.len() > 10 {
            let _ = writeln!(out, "  ... and {} more", points.len() - 10);
        }
    }
    Ok(())
}

struct WriteOpts {
    out: Option<String>,
    to: u32,
    slots: bool,
    inputs: Vec<String>,
}

fn parse_write_opts(args: &[String]) -> WriteOpts {
    let mut opts = WriteOpts {
        out: None,
        to: 1,
        slots: false,
        inputs: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--out" => opts.out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--to" => match it.next().map(String::as_str) {
                Some("1") => opts.to = 1,
                Some("2") => opts.to = 2,
                _ => usage(),
            },
            "--slots" => opts.slots = true,
            other if !other.starts_with('-') => opts.inputs.push(other.to_owned()),
            _ => usage(),
        }
    }
    opts
}

/// Builds the output profile in the requested version, synthesizing a
/// dense slot table from the points, sorted by file name, then span, when
/// asked.
fn assemble(
    info: ProfileInformation,
    slots: Option<SlotMap>,
    to: u32,
    synthesize: bool,
) -> Result<StoredProfile, String> {
    if to == 1 {
        return Ok(StoredProfile::v1(info));
    }
    let slots = if synthesize {
        let mut points: Vec<_> = info.iter().collect();
        sort_by_location(&mut points);
        Some(
            SlotMap::from_points(points.into_iter().map(|(p, _)| p))
                .map_err(|p| format!("duplicate point {p} while synthesizing slot table"))?,
        )
    } else {
        slots
    };
    Ok(StoredProfile::v2(info, slots))
}

fn merge(args: &[String]) -> Result<(), String> {
    let opts = parse_write_opts(args);
    let out = opts.out.unwrap_or_else(|| usage());
    if opts.inputs.is_empty() {
        usage();
    }
    let mut merged = ProfileInformation::empty();
    // The combined slot table of every v2 input, validated pairwise with
    // the same `check_mergeable` gate the fleet daemon applies at
    // handshake. Slot order is process-local (dense slots are assigned
    // partly at first execution), so inputs whose tables reorder the
    // same points are re-keyed by point identity — §3.2 weights are
    // keyed by point, never by slot, so nothing can alias. Inputs whose
    // tables share no point describe a different program and are
    // refused with the typed mismatch.
    let mut table = SlotMap::new();
    // Provenance kinds seen, each with the inputs that carried it, so a
    // mixed-provenance warning can say *which* files brought estimates in.
    let mut provenances: Vec<(Provenance, Vec<String>)> = Vec::new();
    for path in &opts.inputs {
        let stored = load(path)?;
        eprintln!(
            "pgmp-profile: {path}: v{}, {}, {} dataset(s), {} point(s)",
            stored.version,
            stored.provenance,
            stored.info.dataset_count(),
            stored.info.len()
        );
        match provenances.iter_mut().find(|(p, _)| *p == stored.provenance) {
            Some((_, paths)) => paths.push(path.clone()),
            None => provenances.push((stored.provenance, vec![path.clone()])),
        }
        if let Some(slots) = &stored.slots {
            match table
                .check_mergeable(slots)
                .map_err(|mismatch| format!("{path}: {mismatch}"))?
            {
                SlotCompat::Extends => {}
                SlotCompat::Rekey(divergence) => eprintln!(
                    "pgmp-profile: {path}: slot order diverges ({divergence}); \
                     output table re-keyed by point identity"
                ),
            }
            for p in slots.points() {
                table.resolve(*p);
            }
        }
        merged = merged.merge(&stored.info);
    }
    // Mixing exact counts with sampled estimates is legal (§3.2 weights
    // never required exactness) but worth flagging: the merged weights
    // inherit the estimates' sampling error. A uniform provenance is
    // carried through to a v2 output; a mix degrades to implicit exact.
    let provenance = match provenances.as_slice() {
        [(one, _)] => *one,
        mixed => {
            eprintln!(
                "pgmp-profile: warning: merging profiles of mixed provenance ({}); \
                 merged weights inherit the estimates' sampling error",
                mixed
                    .iter()
                    .map(|(p, paths)| format!("{p}: {}", paths.join(", ")))
                    .collect::<Vec<_>>()
                    .join(" + ")
            );
            Provenance::Exact
        }
    };
    let carried = (!table.is_empty()).then_some(table);
    let stored = assemble(merged, carried, opts.to, opts.slots)?.with_provenance(provenance);
    stored.store_file(&out).map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "pgmp-profile: wrote {out}: v{}, {} dataset(s), {} point(s)",
        stored.version,
        stored.info.dataset_count(),
        stored.info.len()
    );
    Ok(())
}

fn convert(args: &[String]) -> Result<(), String> {
    let opts = parse_write_opts(args);
    let out = opts.out.unwrap_or_else(|| usage());
    let [input] = opts.inputs.as_slice() else {
        usage()
    };
    let stored = load(input)?;
    let from = stored.version;
    let converted =
        assemble(stored.info, stored.slots, opts.to, opts.slots)?.with_provenance(stored.provenance);
    converted.store_file(&out).map_err(|e| format!("{out}: {e}"))?;
    let slots = match &converted.slots {
        Some(t) => format!("{} slot(s)", t.len()),
        None => "no slot table".to_owned(),
    };
    eprintln!(
        "pgmp-profile: {input} (v{from}) -> {out} (v{}, {slots})",
        converted.version
    );
    Ok(())
}

/// `diff <a> <b>` — per-point weight deltas plus the same drift score the
/// adaptive detector computes, so "how different are these two profiles?"
/// has one answer everywhere.
fn diff(out: &mut String, args: &[String]) -> Result<(), String> {
    let mut top = 10usize;
    let mut explain_trace: Option<String> = None;
    let mut inputs = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                top = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--explain" => {
                explain_trace = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            other if !other.starts_with('-') => inputs.push(other.to_owned()),
            _ => usage(),
        }
    }
    let [a_path, b_path] = inputs.as_slice() else {
        usage()
    };
    // Consultation events from the trace, for cross-referencing movers:
    // decisions match when the mover is the decided form itself, and
    // profile queries/counts match when a macro read the mover's weight
    // while deciding (the clause-body case). Read leniently: a torn tail
    // should not hide the events that landed.
    let decisions: Option<Vec<observe::TraceEvent>> = match &explain_trace {
        Some(path) => {
            let (events, errors) =
                observe::read_trace_lenient(path).map_err(|e| format!("{path}: {e}"))?;
            for e in &errors {
                eprintln!("pgmp-profile: warning: {path}: {e} (line skipped)");
            }
            Some(
                events
                    .into_iter()
                    .filter(|e| {
                        matches!(
                            e.kind,
                            observe::EventKind::Decision { .. }
                                | observe::EventKind::ProfileQuery { .. }
                                | observe::EventKind::ProfileCount { .. }
                        )
                    })
                    .collect(),
            )
        }
        None => None,
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    for (path, stored) in [(a_path, &a), (b_path, &b)] {
        let _ = writeln!(
            out,
            "{path}: v{}, {} dataset(s), {} point(s)",
            stored.version,
            stored.info.dataset_count(),
            stored.info.len()
        );
    }
    let _ = writeln!(
        out,
        "drift: {:.4} (total-variation), {:.4} (L1) — comparable to --drift-threshold",
        drift(&a.info, &b.info, DriftMetric::TotalVariation),
        drift(&a.info, &b.info, DriftMetric::L1),
    );

    // Union of points with (old, new) weights; absent points weigh 0.0.
    let mut movers: Vec<_> = a
        .info
        .iter()
        .map(|(p, _)| p)
        .chain(b.info.iter().map(|(p, _)| p))
        .collect();
    movers.sort();
    movers.dedup();
    let mut movers: Vec<_> = movers
        .into_iter()
        .map(|p| (p, a.info.weight(p), b.info.weight(p)))
        .filter(|(_, wa, wb)| wa != wb)
        .collect();
    movers.sort_by(|x, y| {
        (y.2 - y.1)
            .abs()
            .total_cmp(&(x.2 - x.1).abs())
            .then(x.0.cmp(&y.0))
    });
    if movers.is_empty() {
        let _ = writeln!(out, "no per-point weight changes");
        return Ok(());
    }
    let _ = writeln!(
        out,
        "top movers (|Δweight|, of {} changed point(s)):",
        movers.len()
    );
    for (p, wa, wb) in movers.iter().take(top) {
        let _ = writeln!(out, "  {:+.4}  {wa:.4} -> {wb:.4}  {p}", wb - wa);
        if let Some(decisions) = &decisions {
            // The same provenance engine as `pgmp-trace explain`,
            // scoped to this mover: which decisions consulted it?
            let (text, n) = observe::explain_query(decisions, &p.to_string());
            if n == 0 {
                let _ = writeln!(out, "      (no recorded decision consulted this point)");
            } else {
                for line in text.lines() {
                    let _ = writeln!(out, "      {line}");
                }
            }
        }
    }
    if movers.len() > top {
        let _ = writeln!(out, "  ... and {} more", movers.len() - top);
    }
    Ok(())
}

/// `rebase -o <out> <old.pgmp> <old-src> <new-src>` — re-anchor a stale
/// profile onto edited source (the CLI face of
/// [`pgmp_profiler::rebase::rebase`]; normative spec in `docs/REBASE.md`).
fn rebase_cmd(out: &mut String, args: &[String]) -> Result<(), String> {
    let mut out_path: Option<String> = None;
    let mut min_confidence: Option<f64> = None;
    let mut trace: Option<String> = None;
    let mut inputs = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--out" => out_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--min-confidence" => {
                min_confidence = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--trace" => trace = Some(it.next().cloned().unwrap_or_else(|| usage())),
            other if !other.starts_with('-') => inputs.push(other.to_owned()),
            _ => usage(),
        }
    }
    let out_path = out_path.unwrap_or_else(|| usage());
    let [profile_path, old_src_path, new_src_path] = inputs.as_slice() else {
        usage()
    };
    let mut cfg = RebaseConfig::default();
    if let Some(mc) = min_confidence {
        if !(0.0..=1.0).contains(&mc) {
            return Err(format!("--min-confidence {mc} outside [0,1]"));
        }
        cfg.min_confidence = mc;
    }
    let stored = load(profile_path)?;
    let old_src = std::fs::read_to_string(old_src_path)
        .map_err(|e| format!("{old_src_path}: {e}"))?;
    let new_src = std::fs::read_to_string(new_src_path)
        .map_err(|e| format!("{new_src_path}: {e}"))?;

    // The file name the profile's points carry: the most common base file
    // (generated `%pgmp` suffixes stripped) — that is the file the two
    // source texts are versions of.
    let mut by_file: Vec<(String, usize)> = Vec::new();
    for (p, _) in stored.info.iter() {
        let s = p.file.as_str();
        let base = match s.find("%pgmp") {
            Some(i) => &s[..i],
            None => s,
        };
        match by_file.iter_mut().find(|(f, _)| f == base) {
            Some((_, n)) => *n += 1,
            None => by_file.push((base.to_owned(), 1)),
        }
    }
    let file = by_file
        .iter()
        .max_by_key(|(_, n)| *n)
        .map(|(f, _)| f.clone())
        .ok_or_else(|| format!("{profile_path}: profile has no points to rebase"))?;

    if trace.is_some() {
        observe::start(observe::TraceConfig::default()).map_err(|e| e.to_string())?;
    }
    let result = run_rebase(&stored, &old_src, &new_src, &file, &cfg);
    if let Some(path) = &trace {
        match &result {
            Ok(_) => {
                let (events, bytes) =
                    observe::stop_and_write(path).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("pgmp-profile: wrote {path}: {events} event(s), {bytes} byte(s)");
            }
            Err(_) => {
                observe::stop();
            }
        }
    }
    let result = result.map_err(|e| e.to_string())?;
    result
        .profile
        .store_file(&out_path)
        .map_err(|e| format!("{out_path}: {e}"))?;

    let r = &result.report;
    let _ = writeln!(
        out,
        "rebased {file}: {} exact, {} shifted, {} structural (decayed), {} dead, \
         {} carried (other files)",
        r.exact, r.shifted, r.structural, r.dead, r.carried
    );
    let _ = writeln!(
        out,
        "retained weight: {:.1}% (total {:.4} -> {:.4}; min confidence {})",
        r.retained_weight_fraction() * 100.0,
        r.old_weight_total,
        r.retained_weight,
        cfg.min_confidence
    );
    eprintln!(
        "pgmp-profile: wrote {out_path}: v{}, {} dataset(s), {} point(s)",
        result.profile.version,
        result.profile.info.dataset_count(),
        result.profile.info.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::new();
    let result = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "inspect" => inspect(&mut out, rest),
            "merge" => merge(rest),
            "convert" => convert(rest),
            "diff" => diff(&mut out, rest),
            "rebase" => rebase_cmd(&mut out, rest),
            "--help" | "-h" => usage(),
            other => Err(format!("unknown command `{other}`")),
        },
        None => usage(),
    };
    // One buffered write; a closed pipe (`pgmp-profile ... | head`) is
    // not an error worth dying loudly over.
    {
        use std::io::Write as _;
        let _ = std::io::stdout().write_all(out.as_bytes());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pgmp-profile: {msg}");
            ExitCode::FAILURE
        }
    }
}
