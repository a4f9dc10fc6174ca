//! `pgmp-run` — command-line driver for the profile-guided
//! meta-programming engine.
//!
//! ```text
//! pgmp-run [OPTIONS] <file.scm>
//!
//! OPTIONS:
//!   --instrument <every|calls>   run with source-level profiling
//!   --load <profile.pgmp>        load profile weights before compiling
//!   --merge <profile.pgmp>       merge additional weights (repeatable)
//!   --store <profile.pgmp>       store this run's weights afterwards
//!   --expand                     print the expansion instead of running
//!   --libs <names>               comma-separated case-study libraries:
//!                                if-r,case,oo,list,vector,sequence,all
//!   --wrap-lambda                use the Racket annotate-expr strategy
//!   --counter-impl <dense|sampling>
//!                                counter representation for instrumented
//!                                runs: dense slot-indexed (default) or
//!                                statistical sampling — each profile point
//!                                costs one relaxed beacon store and a
//!                                sampler thread estimates the weights
//!                                (always-on profiling; weights are
//!                                estimates)
//!   --sample-hz <hz>             sampling: beacon reads per second
//!                                (default 997)
//!
//!   --store-format <1|2>         profile format version for --store
//!                                (2 carries the dense slot table; default 1)
//!
//!   --incremental                compile through the per-form recompilation
//!                                cache; each --merge recompiles incrementally
//!                                and reports how many forms were reused
//!   --save-state <file>          incremental: persist the per-form cache
//!                                after the last compile, so a later process
//!                                can warm-start with --load-state
//!   --load-state <file>          incremental: restore a saved session before
//!                                compiling; an unchanged program then
//!                                recompiles with zero re-expansions
//!                                (with --adaptive, --save-state/--load-state
//!                                persist the epoch snapshot — rolling profile
//!                                and drift baseline — instead)
//!
//!   --adaptive                   online mode: epochs of concurrent profile
//!                                collection, drift detection, re-optimization
//!   --epochs <n>                 adaptive: number of epochs to run (default 4)
//!   --threads <n>                adaptive: worker threads per epoch (default 2)
//!   --epoch-ms <ms>              adaptive: background epoch length (default 250)
//!   --drift-threshold <t>        adaptive: re-optimize when drift > t (default 0.15)
//!   --decay <d>                  adaptive: per-epoch profile decay in [0,1] (default 0.5)
//!   --hysteresis <n>             adaptive: consecutive drifting epochs before
//!                                re-optimizing (default 1)
//!   --cooldown <n>               adaptive: epochs to skip detection after a
//!                                re-optimization (default 0)
//!   --no-incremental             adaptive: recompile from scratch on drift
//!                                instead of using the per-form cache
//!
//!   --dispatch flat              run --incremental / --adaptive programs
//!                                on the VM's flat code streams
//!   --fuse                       profile-guide superinstruction fusion: a
//!                                profiled pass mines the hottest adjacent
//!                                op pairs, then the program reruns fused
//!                                (adaptive: the plan is re-mined at every
//!                                drift-driven re-layout)
//!   --vm-metrics                 print VM execution metrics (dispatches,
//!                                fused share, fall-through ratio); with
//!                                --adaptive, per epoch from a serving VM
//!
//!   --publish <socket>           stream this run's counter deltas to a
//!                                `pgmp-profiled` fleet daemon over the
//!                                given Unix socket (instrumented runs,
//!                                slotted — dense or sampling — counters
//!                                only): the slot table is
//!                                exchanged at handshake and the deltas
//!                                are binary (slot, count) pairs through
//!                                a bounded never-blocking flusher
//!   --subscribe <socket>         adaptive: receive the fleet daemon's
//!                                merged profile each merge epoch and
//!                                re-optimize when fleet drift exceeds
//!                                --drift-threshold
//!
//!   --trace <out.jsonl>          record a structured trace of the whole
//!                                run (expansion spans, profile queries,
//!                                cache hits/misses, epochs, optimization
//!                                decisions) and write it as JSONL; inspect
//!                                with `pgmp-trace`
//!   --metrics                    print the metrics-registry snapshot as
//!                                JSON on stderr after the run
//!   --metrics-out <file>         write the same snapshot to a file
//!   --metrics-listen <addr>      serve the live registry over HTTP while
//!                                the run executes (`/metrics` Prometheus
//!                                text, `/metrics.json` snapshot);
//!                                `127.0.0.1:0` picks a free port, printed
//!                                to stderr as `metrics: listening on`
//! ```
//!
//! The paper's basic cycle:
//!
//! ```sh
//! pgmp-run --libs all --instrument every --store p.pgmp prog.scm   # train
//! pgmp-run --libs all --load p.pgmp prog.scm                       # optimize
//! ```
//!
//! The adaptive cycle collapses both steps into one continuously running
//! process:
//!
//! ```sh
//! pgmp-run --libs all --adaptive --epochs 6 --threads 4 prog.scm
//! ```

use pgmp_adaptive::{AdaptiveConfig, AdaptiveEngine};
use pgmp::{AnnotateStrategy, Engine, IncrementalConfig, IncrementalEngine, ReuseStats};
use pgmp_bytecode::{optimize_layout, BlockCounters, Chunk, DispatchMode, FusionPlan, Vm, VmMetrics};
use pgmp_case_studies::{install, Lib};
use pgmp_observe as observe;
use pgmp_profiler::{CounterImpl, ProfileInformation, ProfileMode};
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    file: Option<String>,
    instrument: Option<ProfileMode>,
    load: Option<String>,
    merge: Vec<String>,
    store: Option<String>,
    expand: bool,
    libs: Vec<Lib>,
    strategy: AnnotateStrategy,
    counter_impl: CounterImpl,
    sample_hz: u32,
    store_format: u32,
    incremental: bool,
    save_state: Option<String>,
    load_state: Option<String>,
    adaptive: bool,
    epochs: u64,
    threads: usize,
    epoch_ms: u64,
    drift_threshold: f64,
    decay: f64,
    hysteresis: u32,
    cooldown: u64,
    adaptive_incremental: bool,
    dispatch: bool,
    fuse: bool,
    vm_metrics: bool,
    publish: Option<String>,
    subscribe: Option<String>,
    trace: Option<String>,
    metrics: bool,
    metrics_out: Option<String>,
    metrics_listen: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pgmp-run [--instrument every|calls] [--load P] [--merge P]...\n\
         \u{20}               [--store P] [--expand] [--libs names] [--wrap-lambda]\n\
         \u{20}               [--counter-impl dense|sampling] [--sample-hz HZ]\n\
         \u{20}               [--store-format 1|2]\n\
         \u{20}               [--incremental [--save-state F] [--load-state F]]\n\
         \u{20}               [--adaptive [--epochs N] [--threads N] [--epoch-ms MS]\n\
         \u{20}               [--drift-threshold T] [--decay D] [--hysteresis N]\n\
         \u{20}               [--cooldown N] [--no-incremental]]\n\
         \u{20}               [--dispatch flat] [--fuse] [--vm-metrics]\n\
         \u{20}               [--publish SOCKET] [--subscribe SOCKET]\n\
         \u{20}               [--trace OUT.jsonl] [--metrics] [--metrics-out F]\n\
         \u{20}               [--metrics-listen ADDR] file.scm"
    );
    std::process::exit(2)
}

fn parse_libs(spec: &str) -> Vec<Lib> {
    let mut libs = Vec::new();
    for name in spec.split(',') {
        match name.trim() {
            "if-r" => libs.push(Lib::IfR),
            "exclusive-cond" => libs.push(Lib::ExclusiveCond),
            "case" => libs.push(Lib::Case),
            "oo" => libs.push(Lib::ObjectSystem),
            "list" => libs.push(Lib::ProfiledList),
            "vector" => libs.push(Lib::ProfiledVector),
            "sequence" => libs.push(Lib::Sequence),
            "all" => libs.extend([
                Lib::IfR,
                Lib::Case,
                Lib::ObjectSystem,
                Lib::ProfiledList,
                Lib::ProfiledVector,
                Lib::Sequence,
            ]),
            other => {
                eprintln!("pgmp-run: unknown library `{other}`");
                usage();
            }
        }
    }
    libs
}

fn parse_args() -> Options {
    let mut opts = Options {
        file: None,
        instrument: None,
        load: None,
        merge: Vec::new(),
        store: None,
        expand: false,
        libs: Vec::new(),
        strategy: AnnotateStrategy::Direct,
        counter_impl: CounterImpl::Dense,
        sample_hz: pgmp_profiler::DEFAULT_SAMPLE_HZ,
        store_format: 1,
        incremental: false,
        save_state: None,
        load_state: None,
        adaptive: false,
        epochs: 4,
        threads: 2,
        epoch_ms: 250,
        drift_threshold: 0.15,
        decay: 0.5,
        hysteresis: 1,
        cooldown: 0,
        adaptive_incremental: true,
        dispatch: false,
        fuse: false,
        vm_metrics: false,
        publish: None,
        subscribe: None,
        trace: None,
        metrics: false,
        metrics_out: None,
        metrics_listen: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--instrument" => match args.next().as_deref() {
                Some("every") => opts.instrument = Some(ProfileMode::EveryExpression),
                Some("calls") => opts.instrument = Some(ProfileMode::CallsOnly),
                _ => usage(),
            },
            "--load" => opts.load = Some(args.next().unwrap_or_else(|| usage())),
            "--merge" => opts.merge.push(args.next().unwrap_or_else(|| usage())),
            "--store" => opts.store = Some(args.next().unwrap_or_else(|| usage())),
            "--expand" => opts.expand = true,
            "--libs" => opts.libs = parse_libs(&args.next().unwrap_or_else(|| usage())),
            "--wrap-lambda" => opts.strategy = AnnotateStrategy::WrapLambda,
            "--counter-impl" => opts.counter_impl = parse_num(args.next()),
            "--sample-hz" => opts.sample_hz = parse_num(args.next()),
            "--store-format" => match args.next().as_deref() {
                Some("1") => opts.store_format = 1,
                Some("2") => opts.store_format = 2,
                _ => usage(),
            },
            "--incremental" => opts.incremental = true,
            "--save-state" => opts.save_state = Some(args.next().unwrap_or_else(|| usage())),
            "--load-state" => opts.load_state = Some(args.next().unwrap_or_else(|| usage())),
            "--adaptive" => opts.adaptive = true,
            "--epochs" => opts.epochs = parse_num(args.next()),
            "--threads" => opts.threads = parse_num(args.next()),
            "--epoch-ms" => opts.epoch_ms = parse_num(args.next()),
            "--drift-threshold" => opts.drift_threshold = parse_num(args.next()),
            "--decay" => opts.decay = parse_num(args.next()),
            "--hysteresis" => opts.hysteresis = parse_num(args.next()),
            "--cooldown" => opts.cooldown = parse_num(args.next()),
            "--no-incremental" => opts.adaptive_incremental = false,
            "--dispatch" => match args.next().as_deref() {
                Some("flat") => opts.dispatch = true,
                _ => usage(),
            },
            "--fuse" => opts.fuse = true,
            "--vm-metrics" => opts.vm_metrics = true,
            "--publish" => opts.publish = Some(args.next().unwrap_or_else(|| usage())),
            "--subscribe" => opts.subscribe = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => opts.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics" => opts.metrics = true,
            "--metrics-out" => opts.metrics_out = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-listen" => {
                opts.metrics_listen = Some(args.next().unwrap_or_else(|| usage()))
            }
            "--help" | "-h" => usage(),
            file if !file.starts_with('-') && opts.file.is_none() => {
                opts.file = Some(file.to_owned());
            }
            _ => usage(),
        }
    }
    opts
}

fn parse_num<T: std::str::FromStr>(arg: Option<String>) -> T {
    arg.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

/// Applies the selected counter representation (and, for sampling, the
/// sampler rate) to an engine.
fn configure_counters(engine: &mut Engine, counter_impl: CounterImpl, sample_hz: u32) {
    if counter_impl == CounterImpl::Sampling {
        engine.set_sampling(sample_hz);
    } else {
        engine.set_counter_impl(counter_impl);
    }
}

/// One-line rendering of [`VmMetrics`] shared by the `--vm-metrics`
/// consumers (incremental summary, adaptive per-epoch lines).
fn describe_vm_metrics(m: &VmMetrics) -> String {
    format!(
        "{} dispatches ({} fused, {:.1}%), fall-through {:.3}, {} calls",
        m.dispatches,
        m.fused_dispatches,
        m.fused_share() * 100.0,
        m.fallthrough_ratio(),
        m.calls
    )
}

/// Online mode: worker threads collect profiles concurrently, each epoch is
/// aggregated with decay, and drift past the threshold re-expands and
/// recompiles the program through a fresh engine before the next epoch.
fn run_adaptive(opts: &Options, source: &str, file: &str) -> Result<(), String> {
    if !(0.0..=1.0).contains(&opts.decay) {
        return Err(format!("--decay must be in [0, 1], got {}", opts.decay));
    }
    if opts.drift_threshold < 0.0 {
        return Err(format!(
            "--drift-threshold must be nonnegative, got {}",
            opts.drift_threshold
        ));
    }
    let config = AdaptiveConfig {
        epoch: Duration::from_millis(opts.epoch_ms),
        decay: opts.decay,
        drift_threshold: opts.drift_threshold,
        incremental: opts.adaptive_incremental,
        hysteresis_epochs: opts.hysteresis,
        cooldown_epochs: opts.cooldown,
        ..AdaptiveConfig::default()
    };
    let libs = opts.libs.clone();
    let counter_impl = opts.counter_impl;
    let sample_hz = opts.sample_hz;
    let mut engine = AdaptiveEngine::with_setup(source, file, config, move |e| {
        configure_counters(e, counter_impl, sample_hz);
        for lib in &libs {
            install(e, *lib)?;
        }
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    if let Some(path) = &opts.load_state {
        let snap = engine.restore_snapshot(path).map_err(|e| e.to_string())?;
        eprintln!(
            "adaptive: restored epoch snapshot from {path}: {} epoch(s), {} retained point(s)",
            snap.epochs,
            snap.counts.len()
        );
    }
    let vm_serving = opts.vm_metrics || opts.fuse || opts.dispatch;
    if vm_serving {
        if !opts.adaptive_incremental {
            return Err(
                "--dispatch/--fuse/--vm-metrics with --adaptive require the incremental \
                 path (drop --no-incremental)"
                    .into(),
            );
        }
        engine
            .enable_vm_serving(DispatchMode::Flat, opts.fuse)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "adaptive: VM serving on (flat dispatch{})",
            if opts.fuse { ", profile-guided fusion" } else { "" }
        );
    }

    let mut subscriber = match &opts.subscribe {
        Some(socket) => {
            let s = pgmp_profiled::Subscriber::connect(socket)
                .map_err(|e| format!("{socket}: {e}"))?;
            eprintln!("fleet: subscribed to {socket}");
            Some(s)
        }
        None => None,
    };

    eprintln!(
        "adaptive: serving generation 0 ({} forms), {} worker(s) x {} epoch(s)",
        engine.current_program().expansion.len(),
        opts.threads.max(1),
        opts.epochs
    );
    // The epoch loop publishes every per-epoch statistic to the metrics
    // registry (`adaptive.*`) before `tick` returns; the console lines
    // below read the printed numbers back from the registry, so the
    // `--adaptive` output and a `--metrics` snapshot cannot disagree.
    let reg = observe::metrics();
    let mut prev_reused = reg.counter("adaptive.reused_forms");
    let mut prev_reexpanded = reg.counter("adaptive.reexpanded_forms");
    for _ in 0..opts.epochs {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..opts.threads.max(1))
                .map(|_| {
                    let h = engine.handle();
                    s.spawn(move || h.collect_run(None))
                })
                .collect();
            for w in workers {
                w.join()
                    .map_err(|_| "worker thread panicked".to_owned())?
                    .map_err(|e| e.to_string())?;
            }
            Ok::<(), String>(())
        })?;
        let report = engine.tick().map_err(|e| e.to_string())?;
        let reuse = if report.reoptimized {
            let reused = reg.counter("adaptive.reused_forms") - prev_reused;
            let reexpanded = reg.counter("adaptive.reexpanded_forms") - prev_reexpanded;
            prev_reused += reused;
            prev_reexpanded += reexpanded;
            format!(" REOPTIMIZED ({reused} reused, {reexpanded} re-expanded)")
        } else {
            String::new()
        };
        eprintln!(
            "adaptive: epoch {} hits {} drift {:.3}{} -> generation {}",
            report.epoch,
            report.hits,
            reg.gauge("adaptive.drift").unwrap_or(report.drift),
            reuse,
            reg.gauge("adaptive.generation").unwrap_or(report.generation as f64) as u64,
        );
        if vm_serving {
            // One unit of VM-served traffic per epoch; the line reports
            // this epoch's window (deltas), not cumulative totals.
            let before = engine.vm_metrics().unwrap_or_default();
            engine.vm_serve_run(None).map_err(|e| e.to_string())?;
            let after = engine.vm_metrics().unwrap_or_default();
            let window = VmMetrics {
                blocks_executed: after.blocks_executed - before.blocks_executed,
                fallthroughs: after.fallthroughs - before.fallthroughs,
                taken_jumps: after.taken_jumps - before.taken_jumps,
                calls: after.calls - before.calls,
                dispatches: after.dispatches - before.dispatches,
                fused_dispatches: after.fused_dispatches - before.fused_dispatches,
            };
            eprintln!(
                "adaptive: epoch {} vm[flat]: {}",
                report.epoch,
                describe_vm_metrics(&window)
            );
        }
        if let Some(sub) = subscriber.as_mut() {
            apply_fleet_updates(&mut engine, sub)?;
        }
    }

    let program = engine.current_program();
    if opts.expand {
        for form in &program.expansion {
            println!("{form}");
        }
    } else {
        eprintln!(
            "adaptive: final generation {} optimized under {} profile points",
            program.generation, program.optimized_under_points
        );
    }
    if let Some(path) = &opts.save_state {
        engine.save_snapshot(path).map_err(|e| e.to_string())?;
        eprintln!("adaptive: epoch snapshot saved to {path}");
    }
    Ok(())
}

/// Drains every fleet epoch broadcast that has arrived since the last
/// local epoch and applies the newest one. Waits briefly for the first
/// update of the window so a daemon merging faster than our epochs
/// can't be missed; a timeout loses nothing (partial frames stay
/// buffered in the subscriber).
fn apply_fleet_updates(
    engine: &mut AdaptiveEngine,
    sub: &mut pgmp_profiled::Subscriber,
) -> Result<(), String> {
    use pgmp_profiled::ClientError;
    let mut newest = None;
    let mut wait = Duration::from_millis(100);
    loop {
        match sub.next_epoch(wait) {
            Ok(update) => {
                newest = Some(update);
                // Already have one; only sweep up queued stragglers.
                wait = Duration::from_millis(1);
            }
            Err(ClientError::Timeout) => break,
            Err(e) => return Err(format!("fleet subscription: {e}")),
        }
    }
    let Some(update) = newest else { return Ok(()) };
    let stored = pgmp_profiler::StoredProfile::load_from_str(&update.profile)
        .map_err(|e| format!("fleet epoch {}: {e}", update.epoch))?;
    match engine
        .apply_fleet_epoch(&stored.info, update.inst, update.epoch)
        .map_err(|e| e.to_string())?
    {
        Some(program) => eprintln!(
            "fleet: epoch {} ({} dataset(s), tv {:.3}) -> REOPTIMIZED generation {}",
            update.epoch, update.datasets, update.tv, program.generation
        ),
        None => eprintln!(
            "fleet: epoch {} ({} dataset(s), tv {:.3}) within threshold",
            update.epoch, update.datasets, update.tv
        ),
    }
    Ok(())
}

/// The expander's work in one incremental compile, for the `incremental:`
/// lines.
fn expander_work(stats: &ReuseStats) -> String {
    format!(
        "{} transformer call(s), {} replay miss(es)",
        stats.transformer_calls, stats.replay_misses
    )
}

/// `--incremental`: the plain pipeline routed through the per-form
/// recompilation cache. The initial compile (under `--load` weights, if
/// any) populates the cache; every `--merge` profile then triggers an
/// incremental recompile, and the reuse statistics show how much of the
/// program each profile update actually touched.
fn run_incremental(opts: &Options, source: &str, file: &str) -> Result<(), String> {
    if opts.instrument.is_some() || opts.store.is_some() {
        return Err("--incremental does not run instrumented (drop --instrument/--store)".into());
    }
    let mut engine = Engine::with_strategy(opts.strategy);
    for lib in &opts.libs {
        install(&mut engine, *lib).map_err(|e| e.to_string())?;
    }
    let mut incr = IncrementalEngine::with_engine(engine, source, file, IncrementalConfig::default())
        .map_err(|e| e.to_string())?;
    let mut warm = false;
    if let Some(path) = &opts.load_state {
        let ws = incr.load_state(path).map_err(|e| e.to_string())?;
        warm = true;
        eprintln!(
            "incremental: warm start from {path}: {} of {} form(s) restored, {} meta form(s) replayed, {} skipped",
            ws.restored, ws.total_forms, ws.replayed_meta, ws.skipped
        );
    }
    let mut weights = match &opts.load {
        Some(path) => ProfileInformation::load_file(path).map_err(|e| e.to_string())?,
        // A warm start without --load compiles under the session's own
        // weights — the zero-re-expansion path.
        None if warm => incr.engine_mut().profile(),
        None => ProfileInformation::empty(),
    };
    let mut unit = incr.compile(&weights).map_err(|e| e.to_string())?;
    if warm {
        eprintln!(
            "incremental: initial compile reused {} of {} form(s), {} re-expanded, {}",
            unit.stats.reused,
            unit.stats.total_forms,
            unit.stats.reexpanded,
            expander_work(&unit.stats)
        );
    } else {
        eprintln!(
            "incremental: initial compile expanded {} form(s) under {} profile point(s), {}",
            unit.stats.total_forms,
            weights.len(),
            expander_work(&unit.stats)
        );
    }
    for path in &opts.merge {
        let info = ProfileInformation::load_file(path).map_err(|e| e.to_string())?;
        weights = weights.merge(&info);
        unit = incr.compile(&weights).map_err(|e| e.to_string())?;
        eprintln!(
            "incremental: {path}: {} of {} form(s) reused, {} re-expanded, {}",
            unit.stats.reused,
            unit.stats.total_forms,
            unit.stats.reexpanded,
            expander_work(&unit.stats)
        );
    }
    if opts.expand {
        for form in &unit.expansion {
            println!("{form}");
        }
    } else {
        let mut vm = Vm::new();
        let mut chunks = unit.chunks;
        if opts.fuse {
            // Pass 1 — profiled: collect block counters, then re-lay-out
            // the chunks and mine the superinstruction plan from them.
            // Its output is dropped; the fused pass below is the real run.
            let counters = BlockCounters::new();
            vm.set_block_profiling(counters.clone());
            for chunk in &chunks {
                vm.run_chunk(incr.engine_mut().interp_mut(), chunk)
                    .map_err(|e| e.to_string())?;
            }
            let _ = incr.engine_mut().take_output();
            chunks = chunks
                .iter()
                .map(|c| optimize_layout(c, &counters))
                .collect::<Vec<Chunk>>();
            vm.relayout_cached(&counters);
            let lambda_chunks = vm.compiled_chunks();
            let plan = FusionPlan::mine(
                chunks.iter().chain(lambda_chunks.iter().map(|c| &**c)),
                &counters,
                3,
            );
            eprintln!(
                "vm: fused {}",
                if plan.is_empty() {
                    "nothing (no hot fusable pairs)".to_owned()
                } else {
                    plan.labels().join(", ")
                }
            );
            vm.set_fusion(plan);
            vm.metrics = VmMetrics::default();
        }
        let mut result = String::from("#<void>");
        for chunk in &chunks {
            result = vm
                .run_chunk(incr.engine_mut().interp_mut(), chunk)
                .map_err(|e| e.to_string())?
                .write_string();
        }
        print!("{}", incr.engine_mut().take_output());
        println!("{result}");
        if opts.vm_metrics {
            eprintln!("vm[flat]: {}", describe_vm_metrics(&vm.metrics));
        }
    }
    for warning in incr.engine_mut().take_warnings() {
        eprintln!("warning: {warning}");
    }
    if let Some(path) = &opts.save_state {
        let stats = incr.save_state(path).map_err(|e| e.to_string())?;
        eprintln!(
            "incremental: session saved to {path}: {} of {} form(s) persisted, {} skipped",
            stats.saved, stats.total_forms, stats.skipped
        );
    }
    Ok(())
}

/// Hands this run's counter deltas to the fleet daemon. Runs after the
/// program so the slot table is complete at handshake time — the daemon
/// only merges slots it saw in the hello.
fn publish_counters(engine: &Engine, socket: &str) -> Result<(), String> {
    let counters = engine.counters();
    let table = counters.slot_table();
    let delta = counters.take_delta();
    // A sampling registry's estimates carry their rate to the daemon,
    // which records `sampled@hz` provenance on the canonical profile.
    let sampled_hz = counters.store().sample_hz().unwrap_or(0);
    let mut publisher =
        pgmp_profiled::Publisher::connect_with_provenance(socket, &table, 64, sampled_hz)
            .map_err(|e| format!("{socket}: {e}"))?;
    let dataset = publisher.dataset();
    publisher.publish(&delta);
    let stats = publisher
        .close()
        .map_err(|e| format!("{socket}: {e}"))?;
    eprintln!(
        "fleet: published {} hit(s) over {} slot(s) to {socket} as dataset {dataset}{}",
        stats.published_hits,
        delta.len(),
        if stats.dropped_hits > 0 {
            format!(" ({} hit(s) dropped under backpressure)", stats.dropped_hits)
        } else {
            String::new()
        }
    );
    Ok(())
}

fn run(opts: Options) -> Result<(), String> {
    let file = opts.file.clone().ok_or("no input file given")?;
    let source = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
    if (opts.save_state.is_some() || opts.load_state.is_some())
        && !opts.incremental
        && !opts.adaptive
    {
        return Err("--save-state/--load-state require --incremental or --adaptive".into());
    }
    if opts.publish.is_some() && (opts.adaptive || opts.incremental || opts.instrument.is_none()) {
        return Err("--publish requires a plain --instrument run".into());
    }
    if opts.subscribe.is_some() && !opts.adaptive {
        return Err("--subscribe requires --adaptive".into());
    }
    if (opts.dispatch || opts.fuse || opts.vm_metrics)
        && !opts.incremental
        && !opts.adaptive
    {
        return Err(
            "--dispatch/--fuse/--vm-metrics require --incremental or --adaptive \
             (the plain path tree-walks)"
                .into(),
        );
    }
    if opts.trace.is_some() || opts.metrics || opts.metrics_out.is_some() {
        // One run per process: reset so the snapshot describes this run only.
        observe::metrics().reset();
    }
    if opts.trace.is_some() {
        observe::start(observe::TraceConfig::default()).map_err(|e| e.to_string())?;
    }
    // Bound before the run so a scraper can watch the whole execution
    // live; dropped (listener joined) after the final snapshot, so the
    // endpoint also serves the run's complete totals until exit.
    let _metrics_server = match &opts.metrics_listen {
        Some(addr) => {
            let server = observe::MetricsServer::bind(addr)
                .map_err(|e| format!("--metrics-listen {addr}: {e}"))?;
            eprintln!("metrics: listening on http://{}/metrics", server.addr());
            Some(server)
        }
        None => None,
    };
    let result = run_mode(&opts, &source, &file);
    if let Some(path) = &opts.trace {
        // Write the trace even when the run failed: a trace of a failing
        // run is exactly what you want to look at.
        let dropped = observe::dropped();
        match observe::stop_and_write(path) {
            Ok((events, bytes)) => {
                eprintln!("trace: {events} event(s), {bytes} bytes written to {path}");
                if dropped > 0 {
                    eprintln!("trace: ring buffer dropped {dropped} oldest event(s)");
                }
            }
            Err(e) => eprintln!("pgmp-run: failed to write trace to {path}: {e}"),
        }
    }
    if opts.metrics || opts.metrics_out.is_some() {
        let snapshot = observe::metrics().snapshot().to_json();
        if opts.metrics {
            eprintln!("{snapshot}");
        }
        if let Some(path) = &opts.metrics_out {
            let mut text = snapshot;
            text.push('\n');
            observe::write_atomic(path, &text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("metrics snapshot written to {path}");
        }
    }
    result
}

fn run_mode(opts: &Options, source: &str, file: &str) -> Result<(), String> {
    if opts.adaptive {
        return run_adaptive(opts, source, file);
    }
    if opts.incremental {
        return run_incremental(opts, source, file);
    }

    let mut engine = Engine::with_strategy(opts.strategy);
    configure_counters(&mut engine, opts.counter_impl, opts.sample_hz);
    for lib in &opts.libs {
        install(&mut engine, *lib).map_err(|e| e.to_string())?;
    }
    if let Some(path) = &opts.load {
        engine.load_profile(path).map_err(|e| e.to_string())?;
    }
    for path in &opts.merge {
        let info = ProfileInformation::load_file(path).map_err(|e| e.to_string())?;
        engine.merge_profile(&info);
    }
    if let Some(mode) = opts.instrument {
        engine.set_instrumentation(mode);
    }

    if opts.expand {
        let forms = engine.expand_str(source, file).map_err(|e| e.to_string())?;
        for form in forms {
            println!("{}", form.to_datum());
        }
    } else {
        let value = engine.run_str(source, file).map_err(|e| e.to_string())?;
        print!("{}", engine.take_output());
        println!("{}", value.write_string());
    }
    for warning in engine.take_warnings() {
        eprintln!("warning: {warning}");
    }
    if let Some(socket) = &opts.publish {
        publish_counters(&engine, socket)?;
    }
    if let Some(path) = &opts.store {
        if opts.store_format == 2 {
            engine.store_profile_v2(path).map_err(|e| e.to_string())?;
        } else {
            engine.store_profile(path).map_err(|e| e.to_string())?;
        }
        eprintln!("profile stored to {path} (format v{})", opts.store_format);
    }
    Ok(())
}

fn main() -> ExitCode {
    match run(parse_args()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pgmp-run: {msg}");
            ExitCode::FAILURE
        }
    }
}
