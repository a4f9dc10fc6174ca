//! The adaptive cycle, as `pgmp-run --adaptive --dispatch flat` drives
//! it: epochs of concurrent profile collection, a synchronous `tick` that
//! re-optimizes on drift, and one VM-served driver run per epoch.

use crate::offline::{set_vm_window, setup_burst};
use crate::report::{share, Plan, Report};
use crate::stats::status_kib;
use crate::trace::Tracer;
use crate::workloads::{Program, EPOCHS_PER_PHASE};
use pgmp_adaptive::{AdaptiveConfig, AdaptiveEngine};
use pgmp_bytecode::DispatchMode;
use pgmp_case_studies::install;
use std::time::Instant;

/// Collection threads per epoch: the host's 2 vCPUs, no more.
const WORKERS: usize = 2;

/// Builds generation 0 of `p`'s definitions with the default adaptive
/// configuration and VM serving on.
fn build(p: &Program, source: &str, i: usize, tr: &mut Tracer) -> Result<AdaptiveEngine, String> {
    let libs = p.libs;
    let (built, _) = tr.call("with_setup", i, || {
        AdaptiveEngine::with_setup(source, p.file, AdaptiveConfig::default(), move |engine| {
            libs.iter().try_for_each(|lib| install(engine, *lib))
        })
    });
    let mut engine = built.map_err(|e| e.to_string())?;
    let (serving, _) = tr.call("enable_vm_serving", i, || {
        engine.enable_vm_serving(DispatchMode::default(), false)
    });
    serving.map_err(|e| e.to_string())?;
    Ok(engine)
}

/// Runs the adaptive cycle of `p` for `plan.epochs` epochs, moving to the
/// next input phase every [`EPOCHS_PER_PHASE`] epochs. Set-ups and further
/// generation-0 builds are interleaved with the epochs (see [`share`]);
/// the first build serves.
pub fn run(p: &Program, plan: &Plan, tr: &mut Tracer, rep: &mut Report) -> Result<(), String> {
    let source = p.source();
    let rss_before = status_kib("VmRSS");
    let mut serving: Option<(AdaptiveEngine, Vec<String>)> = None;
    let (mut phase_index, mut shifts, mut reopts, mut reopt_ms) = (usize::MAX, 0usize, 0usize, 0.0);
    for epoch in 0..plan.epochs {
        for i in share(plan.setup, epoch, plan.epochs) {
            setup_burst(p.libs, i, tr, rep);
        }
        for i in share(plan.builds, epoch, plan.epochs) {
            let t = tr.begin("generation0", i);
            let built = build(p, &source, i, tr);
            let ms = tr.end(t);
            if rep.check_ok("generation-0 build", &built) {
                rep.sample("compile_ms", ms);
            }
            if let (None, Ok(engine)) = (&serving, built) {
                let generation0 = engine.current_program().expansion.clone();
                serving = Some((engine, generation0));
            }
        }
        let (engine, _) = serving.as_mut().ok_or("no generation-0 build succeeded")?;
        let next = (epoch / EPOCHS_PER_PHASE) % p.phases.len();
        if next != phase_index {
            if reopt_ms > 0.0 {
                rep.sample("recompile_ms", reopt_ms);
            }
            (phase_index, shifts, reopt_ms) = (next, shifts + 1, 0.0);
        }
        let phase = &p.phases[phase_index];

        let t = tr.begin("collect", epoch);
        let runs: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|_| {
                    let handle = engine.handle();
                    s.spawn(move || {
                        let start = Instant::now();
                        let run = handle
                            .collect_run(Some(phase.driver.as_str()))
                            .map_err(|e| e.to_string());
                        (start, Instant::now(), run)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("collection worker panicked"))
                .collect()
        });
        let mut collected = true;
        for (start, end, run) in runs {
            let ms = tr.record("collect_run", epoch, start, end);
            if rep.check_ok("collect_run", &run) {
                rep.sample("adaptive.collect_ms", ms);
            } else {
                collected = false;
            }
        }
        let ms = tr.end(t);
        if collected {
            rep.sample("profile_ms", ms);
        }

        let (report, ms) = tr.call("tick", epoch, || engine.tick());
        if rep.check_ok("tick", &report) {
            if report.expect("checked").reoptimized {
                reopts += 1;
                reopt_ms += ms;
                let program = engine.current_program();
                let total = program.reused_forms + program.reexpanded_forms;
                rep.sample("core.reexpanded", program.reexpanded_forms as f64);
                rep.sample(
                    "core.reuse_ratio",
                    program.reused_forms as f64 / total as f64,
                );
            } else {
                rep.sample("adaptive.tick_ms", ms);
            }
        }

        let before = engine.vm_metrics().unwrap_or_default();
        let (value, ms) = tr.call("vm_serve_run", epoch, || {
            engine.vm_serve_run(Some(phase.driver.as_str()))
        });
        if rep.check_value("vm_serve_run", value, &phase.expected) {
            rep.sample("run_ms", ms);
        }
        set_vm_window(rep, &before, &engine.vm_metrics().unwrap_or_default());
    }
    if reopt_ms > 0.0 {
        rep.sample("recompile_ms", reopt_ms);
    }
    let engines = (plan.epochs * WORKERS + plan.builds) as f64;
    rep.set(
        "core.retained_kb_per_engine",
        (status_kib("VmRSS") - rss_before) / engines,
    );
    rep.set("adaptive.reopts_per_shift", reopts as f64 / shifts as f64);

    let (engine, generation0) = serving.as_ref().ok_or("no epochs ran")?;
    let current = engine.current_program();
    let reordered = current
        .expansion
        .iter()
        .zip(generation0)
        .filter(|(a, b)| a != b)
        .count();
    rep.set("expander.reordered_forms", reordered as f64);
    rep.check(reordered > 0);
    Ok(())
}
