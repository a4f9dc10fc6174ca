//! The offline cycle, as `pgmp-run` drives it: train (instrumented run,
//! weights, v2 store), compile (load, incremental cold compile), recompile
//! under a shifted profile, and run the compiled chunks on the VM.

use crate::report::{share, Plan, Report};
use crate::stats::status_kib;
use crate::trace::Tracer;
use crate::workloads::Program;
use pgmp::{CompiledUnit, Engine, IncrementalConfig, IncrementalEngine};
use pgmp_bytecode::{compile_chunk, Vm, VmMetrics};
use pgmp_case_studies::{engine_with, Lib};
use pgmp_profiler::{ProfileInformation, ProfileMode};
use std::path::Path;

/// VM passes run before the timed ones, so lazily compiled lambda chunks,
/// flat lowerings and global-slot caches are warm.
const WARMUP_PASSES: usize = 10;

fn fresh(libs: &[Lib]) -> Result<Engine, String> {
    engine_with(libs).map_err(|e| format!("engine_with: {e}"))
}

/// What the first cold compile leaves for the steps after it: its cache
/// (recompiles), its chunks and interpreter (VM passes), and the profile
/// it compiled under.
struct Compiled {
    incr: IncrementalEngine,
    trained: ProfileInformation,
    shifted: ProfileInformation,
    unit: CompiledUnit,
    vm: Vm,
}

/// Runs the offline cycle of `p`, its steps interleaved round by round
/// (see [`share`]). With `layers`, also times the layer split that
/// `IncrementalEngine` hides and the uninstrumented tree walk.
/// `profile_path` is a scratch file for the stored profile.
pub fn run(
    p: &Program,
    plan: &Plan,
    layers: bool,
    profile_path: &Path,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let text = p.offline_text();
    let expected = &p.phases[0].expected;
    let rss_before = status_kib("VmRSS");
    // One round per sample of the longest step.
    let rounds = [
        plan.setup,
        plan.profile,
        plan.compile,
        plan.recompile,
        plan.run,
    ]
    .into_iter()
    .max()
    .unwrap_or(1);
    let mut compiled: Option<Compiled> = None;
    for round in 0..rounds {
        for i in share(plan.setup, round, rounds) {
            setup_burst(p.libs, i, tr, rep);
        }
        for i in share(plan.profile, round, rounds) {
            let mut engine = fresh(p.libs)?;
            let t = tr.begin("profile", i);
            let ok = profile_once(&mut engine, p, &text, profile_path, i, tr, rep);
            let ms = tr.end(t);
            if ok {
                rep.sample("profile_ms", ms);
            }
        }
        for i in share(plan.compile, round, rounds) {
            let engine = fresh(p.libs)?;
            let t = tr.begin("compile", i);
            let cold = compile_once(engine, p, &text, profile_path, i, tr, rep);
            let ms = tr.end(t);
            let complete = matches!(&cold, Ok((_, _, unit)) if unit.stats.reexpanded == unit.stats.total_forms);
            if rep.check_ok("cold compile", &cold) && rep.check(complete) {
                rep.sample("compile_ms", ms);
            }
            if let (None, Ok((incr, trained, unit))) = (&compiled, cold) {
                compiled = Some(first_compile(p, &text, incr, trained, unit, rep)?);
            }
        }
        let c = compiled.as_mut().ok_or("no cold compile succeeded")?;
        for i in share(plan.recompile, round, rounds) {
            recompile_once(c, i, tr, rep);
        }
        for i in share(plan.run, round, rounds) {
            let before = c.vm.metrics;
            let (value, ms) = tr.call("run_chunks", i, || vm_pass(c));
            if rep.check_value("VM pass", value, expected) {
                rep.sample("run_ms", ms);
            }
            set_vm_window(rep, &before, &c.vm.metrics);
        }
        if layers {
            for i in share(plan.compile, round, rounds) {
                layer_split(p, &text, &c.trained, i, tr, rep)?;
            }
            for i in share(plan.profile, round, rounds) {
                let mut engine = fresh(p.libs)?;
                let (value, ms) = tr.call("run_str", i, || engine.run_str(&text, p.file));
                if rep.check_value("run_str", value.map(|v| v.write_string()), expected) {
                    rep.sample("eval.run_ms", ms);
                }
            }
        }
    }
    let engines = (plan.profile + plan.compile) as f64;
    rep.set(
        "core.retained_kb_per_engine",
        (status_kib("VmRSS") - rss_before) / engines,
    );
    let bytes = std::fs::metadata(profile_path)
        .map_err(|e| format!("stored profile: {e}"))?
        .len();
    rep.set("profiler.profile_bytes", bytes as f64);
    Ok(())
}

/// Keeps the first cold compile: checks that the profile took effect,
/// derives the shifted profile and warms the VM up on its chunks.
fn first_compile(
    p: &Program,
    text: &str,
    incr: IncrementalEngine,
    trained: ProfileInformation,
    unit: CompiledUnit,
    rep: &mut Report,
) -> Result<Compiled, String> {
    rep.set(
        "bytecode.blocks",
        unit.chunks.iter().map(|c| c.block_count()).sum::<usize>() as f64,
    );
    let reordered = reordered_forms(p, text, &trained)?;
    rep.set("expander.reordered_forms", reordered as f64);
    rep.check(reordered > 0);
    let mut c = Compiled {
        incr,
        shifted: shifted(&trained, p),
        trained,
        unit,
        vm: Vm::new(),
    };
    for _ in 0..WARMUP_PASSES {
        let value = vm_pass(&mut c);
        rep.check_value("warm-up pass", value, &p.phases[0].expected);
    }
    Ok(c)
}

/// `engine_with` calls timed back to back per set-up sample point. The
/// first call of a burst pays for the cache misses the previous step left
/// (on a shared host, most of a cold call's time); the rest time the
/// set-up itself.
const SETUP_BURST: usize = 10;

/// Times one burst of `engine_with` set-ups; `burst` numbers it.
pub fn setup_burst(libs: &[Lib], burst: usize, tr: &mut Tracer, rep: &mut Report) {
    for i in burst * SETUP_BURST..(burst + 1) * SETUP_BURST {
        let (engine, ms) = tr.call("engine_with", i, || engine_with(libs));
        if rep.check_ok("engine_with", &engine) {
            rep.sample("setup_s", ms / 1e3);
        }
    }
}

/// One profile collection in `engine`: what `pgmp-run --instrument every
/// --store p.pgmp --store-format 2` pays after set-up.
fn profile_once(
    engine: &mut Engine,
    p: &Program,
    text: &str,
    path: &Path,
    i: usize,
    tr: &mut Tracer,
    rep: &mut Report,
) -> bool {
    engine.set_instrumentation(ProfileMode::EveryExpression);
    let (value, run_ms) = tr.call("run_str_instrumented", i, || engine.run_str(text, p.file));
    let (weights, weights_ms) = tr.call("current_weights", i, || engine.current_weights());
    let (stored, store_ms) = tr.call("store_profile_v2", i, || engine.store_profile_v2(path));
    let ok = rep.check_value(
        "instrumented run",
        value.map(|v| v.write_string()),
        &p.phases[0].expected,
    ) && rep.check_ok("store_profile_v2", &stored);
    if ok {
        rep.sample("profiler.run_ms", run_ms);
        rep.sample("profiler.weights_ms", weights_ms);
        rep.sample("profiler.store_ms", store_ms);
        rep.set("profiler.points", weights.len() as f64);
    }
    ok
}

/// One cold compile from the stored profile: what `pgmp-run --incremental
/// --load p.pgmp` pays after set-up.
fn compile_once(
    engine: Engine,
    p: &Program,
    text: &str,
    path: &Path,
    i: usize,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(IncrementalEngine, ProfileInformation, CompiledUnit), String> {
    let (weights, load_ms) = tr.call("load_file", i, || ProfileInformation::load_file(path));
    let weights = weights.map_err(|e| e.to_string())?;
    let (incr, _) = tr.call("with_engine", i, || {
        IncrementalEngine::with_engine(engine, text, p.file, IncrementalConfig::default())
    });
    let mut incr = incr.map_err(|e| e.to_string())?;
    let (unit, compile_ms) = tr.call("incremental_compile", i, || incr.compile(&weights));
    let unit = unit.map_err(|e| e.to_string())?;
    rep.sample("profiler.load_ms", load_ms);
    rep.sample("core.incremental_compile_ms", compile_ms);
    Ok((incr, weights, unit))
}

/// `trained` with the weight `w` of every point in the first tenth of the
/// program's forms replaced by `1 - w`.
fn shifted(trained: &ProfileInformation, p: &Program) -> ProfileInformation {
    let end = p.shift_end();
    let weights = trained.iter().map(|(point, w)| {
        let inside = point.file.as_str().starts_with(p.file) && point.bfp < end;
        (point, if inside { 1.0 - w } else { w })
    });
    ProfileInformation::from_weights(weights, trained.dataset_count())
}

/// Forms whose expansion under the trained profile differs from their
/// expansion under the empty one: the profile-guided rewrites that took
/// effect.
fn reordered_forms(p: &Program, text: &str, trained: &ProfileInformation) -> Result<usize, String> {
    let expand = |weights: Option<&ProfileInformation>| -> Result<Vec<String>, String> {
        let mut engine = fresh(p.libs)?;
        if let Some(w) = weights {
            engine.set_profile(w.clone());
        }
        let forms = engine.expand_str(text, p.file).map_err(|e| e.to_string())?;
        Ok(forms.iter().map(|f| f.to_datum().to_string()).collect())
    };
    let (optimized, plain) = (expand(Some(trained))?, expand(None)?);
    let differing = optimized.iter().zip(&plain).filter(|(a, b)| a != b).count();
    Ok(differing + optimized.len().abs_diff(plain.len()))
}

/// One warm recompile on the first cold compile's cache. Even samples
/// switch to the shifted profile, odd ones back to the trained one, which
/// must reproduce the cold expansion exactly.
fn recompile_once(c: &mut Compiled, i: usize, tr: &mut Tracer, rep: &mut Report) {
    let to_shifted = i.is_multiple_of(2);
    let weights = if to_shifted { &c.shifted } else { &c.trained };
    let (unit, ms) = tr.call("recompile", i, || c.incr.compile(weights));
    if !rep.check_ok("recompile", &unit) {
        return;
    }
    let unit = unit.expect("checked");
    let ok = if to_shifted {
        let stats = unit.stats;
        rep.set("core.reexpanded", stats.reexpanded as f64);
        rep.set(
            "core.reuse_ratio",
            stats.reused as f64 / stats.total_forms as f64,
        );
        stats.reexpanded > 0
    } else {
        unit.expansion == c.unit.expansion
    };
    if rep.check(ok) {
        rep.sample("recompile_ms", ms);
    }
}

/// One pass over the compiled top-level chunks on the persistent VM (flat
/// dispatch, no fusion); returns the last value, printed.
fn vm_pass(c: &mut Compiled) -> Result<String, String> {
    let interp = c.incr.engine_mut().interp_mut();
    let mut last = String::new();
    for chunk in &c.unit.chunks {
        last =
            c.vm.run_chunk(interp, chunk)
                .map_err(|e| e.to_string())?
                .write_string();
    }
    Ok(last)
}

/// Records one pass's VM counts: dispatches, calls, and the share of
/// control transfers that fell through.
pub fn set_vm_window(rep: &mut Report, before: &VmMetrics, after: &VmMetrics) {
    rep.set(
        "vm.dispatches",
        (after.dispatches - before.dispatches) as f64,
    );
    rep.set("vm.calls", (after.calls - before.calls) as f64);
    let fallthroughs = after.fallthroughs - before.fallthroughs;
    let transfers = fallthroughs + after.taken_jumps - before.taken_jumps;
    let ratio = if transfers == 0 {
        1.0
    } else {
        fallthroughs as f64 / transfers as f64
    };
    rep.set("vm.fallthrough_ratio", ratio);
}

/// The compile `IncrementalEngine::compile` performs, split by layer:
/// read, expand (recording the profile points consulted), bytecode
/// compile. Its intermediate forms are dropped after the span closes, so
/// the three layers cover it.
fn layer_split(
    p: &Program,
    text: &str,
    trained: &ProfileInformation,
    i: usize,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let mut engine = fresh(p.libs)?;
    engine.set_profile(trained.clone());
    engine.begin_profile_read_log();
    let t = tr.begin("layer_split", i);
    let (forms, read_ms) = tr.call("read_str", i, || pgmp_reader::read_str(text, p.file));
    let (cores, expand_ms) = match &forms {
        Ok(forms) => tr.call("expand_program", i, || {
            engine.expander_mut().expand_program(forms)
        }),
        Err(_) => (Ok(Vec::new()), 0.0),
    };
    let (chunks, compile_ms) = match &cores {
        Ok(cores) => tr.call("compile_chunk", i, || {
            cores.iter().map(compile_chunk).collect::<Vec<_>>()
        }),
        Err(_) => (Vec::new(), 0.0),
    };
    let total_ms = tr.end(t);
    let reads = engine.take_profile_read_log();
    let ok = rep.check_ok("read_str", &forms) && rep.check_ok("expand_program", &cores);
    if ok && rep.check(!chunks.is_empty()) {
        rep.sample("reader.read_ms", read_ms);
        rep.sample("expander.expand_ms", expand_ms);
        rep.sample("bytecode.compile_ms", compile_ms);
        rep.sample("layer_split_ms", total_ms);
        rep.sample(
            "trace.layer_coverage",
            (read_ms + expand_ms + compile_ms) / total_ms,
        );
        rep.set("expander.profile_reads", reads.points.len() as f64);
    }
    Ok(())
}
