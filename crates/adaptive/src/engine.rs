//! The adaptive driver: epochs → drift → re-optimization, continuously.

use crate::counters::ShardedCounters;
use crate::drift::{drift, DriftMetric};
use crate::rolling::RollingProfile;
use pgmp::{Engine, Error, IncrementalConfig, IncrementalEngine};
use pgmp_bytecode::{
    canonical_form, compile_chunk, optimize_layout, BlockCounters, Chunk, DispatchMode,
    FusionPlan, Vm, VmMetrics,
};
use pgmp_eval::{EvalError, EvalErrorKind};
use pgmp_observe as observe;
use pgmp_profiler::{ProfileInformation, ProfileMode};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Tuning knobs for the adaptive loop.
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// Wall-clock pacing of the background aggregator (ignored by
    /// synchronous [`AdaptiveEngine::tick`], which the caller paces).
    pub epoch: Duration,
    /// Per-epoch exponential decay of the rolling profile, in `[0, 1]`:
    /// `1.0` never forgets, `0.0` keeps only the latest epoch.
    pub decay: f64,
    /// Drift value above which re-optimization triggers.
    pub drift_threshold: f64,
    /// Distance measure for drift.
    pub metric: DriftMetric,
    /// Epochs that drained fewer total hits than this cannot fire the
    /// detector — an idle system decaying toward an empty profile is not
    /// behavior change worth recompiling for.
    pub min_epoch_hits: u64,
    /// Re-optimize through the per-form incremental cache
    /// ([`pgmp::IncrementalEngine`]): only forms whose consulted weights
    /// changed re-expand. Disable to recompile from scratch each time
    /// (useful as a baseline; the adaptive loop is otherwise identical).
    pub incremental: bool,
    /// Per-point weight drift the incremental cache tolerates before
    /// re-expanding a form (see [`pgmp::IncrementalConfig::epsilon`]).
    pub epsilon: f64,
    /// Number of *consecutive* over-threshold epochs required before the
    /// drift detector fires. `1` (the default) fires immediately; higher
    /// values ride out single-epoch noise spikes.
    pub hysteresis_epochs: u32,
    /// Epochs to skip drift detection after a re-optimization, bounding
    /// the recompile rate under sustained drift. `0` disables.
    pub cooldown_epochs: u64,
    /// Write-coalescing buffer capacity (distinct points) for worker-side
    /// counter merges: `0` (the default) writes straight to the shared
    /// registry; `n > 0` batches through a [`crate::CountersWriter`] that
    /// flushes at `n` distinct buffered points and, at the latest, when
    /// the collection unit ends — so every hit is visible to the next
    /// epoch drain. Flush statistics via [`AdaptiveHandle::flush_stats`].
    pub coalesce: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            epoch: Duration::from_millis(250),
            decay: 0.5,
            drift_threshold: 0.15,
            metric: DriftMetric::TotalVariation,
            min_epoch_hits: 1,
            incremental: true,
            epsilon: 0.0,
            hysteresis_epochs: 1,
            cooldown_epochs: 0,
            coalesce: 0,
        }
    }
}

/// One compiled, immutable version of the program. Readers grab the
/// current `Arc` and keep serving from it while a newer generation is
/// being compiled and swapped in.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledProgram {
    /// 0 for the initial (profile-less) compile, +1 per re-optimization.
    pub generation: u64,
    /// Fully macro-expanded toplevel forms, printed — what the
    /// profile-guided meta-programs emitted under this generation's
    /// weights.
    pub expansion: Vec<String>,
    /// Canonical control-flow graphs of the bytecode-compiled toplevel
    /// forms.
    pub cfgs: Vec<String>,
    /// Number of profile points in the weights this generation was
    /// optimized under.
    pub optimized_under_points: usize,
    /// Top-level forms served from the incremental cache when this
    /// generation was compiled (0 for from-scratch compiles).
    pub reused_forms: usize,
    /// Top-level forms (re-)expanded when this generation was compiled.
    pub reexpanded_forms: usize,
}

/// What one epoch concluded.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// 1-based epoch number.
    pub epoch: u64,
    /// Total counter hits drained from the shared registry this epoch.
    pub hits: u64,
    /// Measured drift of the rolling profile from the optimization
    /// baseline.
    pub drift: f64,
    /// Whether the drift detector fired.
    pub fired: bool,
    /// Whether a new program generation was compiled and swapped in.
    pub reoptimized: bool,
    /// Generation serving after this epoch.
    pub generation: u64,
    /// Consecutive over-threshold epochs after this one (hysteresis state).
    pub streak: u32,
    /// Epochs of post-re-optimization cooldown remaining.
    pub cooldown: u32,
    /// Coalescing-writer buffer flushes performed during this epoch.
    pub flush_writes: u64,
    /// Counter hits merged away by coalescing during this epoch (hits
    /// absorbed into local buffers minus distinct slot writes pushed).
    pub flush_merged: u64,
}

struct AggState {
    rolling: RollingProfile,
    /// Weights the current program generation was optimized under.
    baseline: ProfileInformation,
    epoch: u64,
    /// Consecutive over-threshold epochs (hysteresis accumulator; see
    /// [`crate::HysteresisDetector`] for the standalone form).
    streak: u32,
    /// Epochs left in the post-re-optimization cooldown window.
    cooldown_left: u64,
}

struct EpochStep {
    epoch: u64,
    hits: u64,
    drift: f64,
    fired: bool,
    streak: u32,
    cooldown: u32,
    weights: ProfileInformation,
}

/// State shared between the engine thread, worker threads, and the
/// background aggregator.
struct Shared {
    source: String,
    file: String,
    setup: Option<Setup>,
    counters: ShardedCounters,
    /// [`AdaptiveConfig::coalesce`], copied here so worker-side handles
    /// can batch without holding the whole config.
    coalesce: usize,
    program: RwLock<Arc<CompiledProgram>>,
    agg: Mutex<AggState>,
    pending: Mutex<Option<ProfileInformation>>,
    drift_pending: AtomicBool,
    reoptimizations: AtomicU64,
}

impl Shared {
    /// A fresh single-threaded engine with the setup hook applied.
    fn fresh_engine(&self) -> Result<Engine, Error> {
        let mut engine = Engine::new();
        if let Some(setup) = &self.setup {
            setup(&mut engine)?;
        }
        Ok(engine)
    }

    /// The aggregation half of an epoch: drain, decay, measure drift.
    /// Runs on either the engine thread (`tick`) or the background
    /// aggregator; re-optimization itself always happens on the engine
    /// thread because `pgmp::Engine` is single-threaded.
    ///
    /// Firing is damped: the raw threshold must be exceeded for
    /// [`AdaptiveConfig::hysteresis_epochs`] consecutive eligible epochs,
    /// and never within [`AdaptiveConfig::cooldown_epochs`] of the last
    /// re-optimization.
    fn epoch_step(&self, config: &AdaptiveConfig) -> EpochStep {
        let epoch_data = self.counters.drain();
        let hits: u64 = epoch_data.iter().map(|(_, c)| c).sum();
        let mut agg = self.agg.lock().expect("adaptive aggregation state poisoned");
        agg.epoch += 1;
        agg.rolling.absorb(&epoch_data);
        let weights = agg.rolling.weights();
        let value = drift(&weights, &agg.baseline, config.metric);
        let over = value > config.drift_threshold && hits >= config.min_epoch_hits;
        let fired = if agg.cooldown_left > 0 {
            agg.cooldown_left -= 1;
            false
        } else {
            if over {
                agg.streak += 1;
            } else {
                agg.streak = 0;
            }
            agg.streak >= config.hysteresis_epochs.max(1)
        };
        EpochStep {
            epoch: agg.epoch,
            hits,
            drift: value,
            fired,
            streak: agg.streak,
            cooldown: agg.cooldown_left as u32,
            weights,
        }
    }
}

/// A cloneable, `Send + Sync` handle for worker threads: bump counters,
/// read the currently-served program.
#[derive(Clone)]
pub struct AdaptiveHandle {
    shared: Arc<Shared>,
}

impl AdaptiveHandle {
    /// The shared counter registry workers feed.
    pub fn counters(&self) -> &ShardedCounters {
        &self.shared.counters
    }

    /// Merges one instrumented run's dataset into the shared registry,
    /// through a coalescing writer when [`AdaptiveConfig::coalesce`] is on.
    pub fn absorb(&self, dataset: &pgmp_profiler::Dataset) {
        if self.shared.coalesce > 0 {
            let mut w = self.shared.counters.writer(self.shared.coalesce);
            for (p, c) in dataset.iter() {
                if c > 0 {
                    w.add(p, c);
                }
            }
            // Dropping the writer flushes the tail, so the merge is fully
            // visible before absorb returns.
        } else {
            self.shared.counters.absorb(dataset);
        }
    }

    /// Cumulative flush statistics of the coalescing writers used by
    /// [`AdaptiveHandle::absorb`]/[`AdaptiveHandle::collect_run`] (all
    /// zero when [`AdaptiveConfig::coalesce`] is 0).
    pub fn flush_stats(&self) -> pgmp_rt::FlushStatsSnapshot {
        self.shared.counters.flush_stats()
    }

    /// The program generation currently being served. The returned `Arc`
    /// stays valid (and consistent) however many swaps happen after.
    pub fn current_program(&self) -> Arc<CompiledProgram> {
        self.shared
            .program
            .read()
            .expect("adaptive program cell poisoned")
            .clone()
    }

    /// Generation number currently being served.
    pub fn generation(&self) -> u64 {
        self.current_program().generation
    }

    /// Number of re-optimizations performed so far.
    pub fn reoptimizations(&self) -> u64 {
        self.shared.reoptimizations.load(Ordering::Relaxed)
    }

    /// True when the background aggregator has detected drift and a call
    /// to [`AdaptiveEngine::poll_reoptimize`] would recompile.
    pub fn drift_pending(&self) -> bool {
        self.shared.drift_pending.load(Ordering::Relaxed)
    }

    /// Runs the program once, instrumented, in a fresh engine, and merges
    /// the resulting counts into the shared registry — one unit of
    /// concurrent profile collection. `driver` optionally runs extra
    /// workload source (same engine, separate file) after the program
    /// loads, which is how a service's traffic is simulated against fixed
    /// program source.
    ///
    /// Lives on the handle so worker threads can collect while the owning
    /// thread holds the (single-threaded) re-optimization state.
    ///
    /// # Errors
    ///
    /// Propagates engine errors from either run.
    pub fn collect_run(&self, driver: Option<&str>) -> Result<(), Error> {
        let mut engine = self.shared.fresh_engine()?;
        engine.set_instrumentation(ProfileMode::EveryExpression);
        engine.run_str(&self.shared.source, &self.shared.file)?;
        if let Some(d) = driver {
            engine.run_str(d, "adaptive-driver.scm")?;
        }
        self.absorb(&engine.counters().snapshot());
        Ok(())
    }
}

type Setup = Box<dyn Fn(&mut Engine) -> Result<(), Error> + Send + Sync>;

/// VM-serving state: a persistent [`Vm`] that executes the current
/// generation's compiled chunks with block-level profiling on, so each
/// re-optimization can re-lay-out the code it keeps (drift-driven
/// re-layout) and re-mine the superinstruction plan. Lives on the engine —
/// the VM borrows the incremental engine's interpreter, and both are
/// single-threaded.
struct VmServing {
    vm: Vm,
    /// Block counters for the current generation's serving window; cleared
    /// at each re-optimization so the next re-layout sees only current
    /// behavior (dense registrations survive the clear).
    counters: BlockCounters,
    /// Top-level chunks of the serving generation. Reused forms keep their
    /// chunk ids across re-optimizations, so counters collected against an
    /// earlier generation stay valid for them.
    chunks: Vec<Chunk>,
    /// Whether re-optimization re-mines a [`FusionPlan`] from the window's
    /// counters.
    fuse: bool,
}

/// The online driver that closes the paper's loop.
///
/// The paper's workflow (§4.3) is offline: instrument, run, store,
/// recompile. `AdaptiveEngine` runs the same machinery continuously:
///
/// 1. worker threads feed a [`ShardedCounters`] registry (directly, or by
///    absorbing instrumented runs — see [`AdaptiveEngine::collect_run`]);
/// 2. each epoch, the registry is drained into a [`RollingProfile`]
///    (exponential decay, so old behavior ages out) —
///    [`crate::RollingProfile`];
/// 3. the current rolling weights are compared against the weights the
///    serving program was optimized under ([`crate::DriftDetector`]
///    semantics, inlined here);
/// 4. on drift, the program is re-expanded and bytecode-compiled through a
///    fresh [`pgmp::Engine`] with the new weights, and the resulting
///    [`CompiledProgram`] is atomically swapped in for readers.
///
/// `pgmp::Engine` itself is single-threaded, so compilation happens on
/// whichever thread owns the `AdaptiveEngine`; everything workers touch
/// ([`AdaptiveHandle`]) is `Send + Sync`. Epochs can be driven
/// synchronously with [`tick`](AdaptiveEngine::tick) (deterministic —
/// what tests and the CLI use) or from a background thread with
/// [`spawn_aggregator`](AdaptiveEngine::spawn_aggregator) +
/// [`poll_reoptimize`](AdaptiveEngine::poll_reoptimize).
pub struct AdaptiveEngine {
    config: AdaptiveConfig,
    shared: Arc<Shared>,
    /// The persistent per-form cache used by the incremental re-optimize
    /// path (`None` when [`AdaptiveConfig::incremental`] is off). Lives on
    /// the engine (not in [`Shared`]): compilation is single-threaded.
    incremental: Option<IncrementalEngine>,
    /// VM-serving state ([`AdaptiveEngine::enable_vm_serving`]); `None`
    /// until enabled. Requires the incremental path.
    serving: Option<VmServing>,
    /// Cumulative flush stats at the end of the previous [`tick`], so each
    /// epoch reports per-epoch deltas.
    ///
    /// [`tick`]: AdaptiveEngine::tick
    last_flush: pgmp_rt::FlushStatsSnapshot,
}

impl AdaptiveEngine {
    /// Compiles generation 0 of `source` (no profile) and returns the
    /// driver.
    ///
    /// # Errors
    ///
    /// Propagates read/expand errors from the initial compilation.
    pub fn new(source: &str, file: &str, config: AdaptiveConfig) -> Result<AdaptiveEngine, Error> {
        AdaptiveEngine::build(source, file, config, None)
    }

    /// Like [`AdaptiveEngine::new`], with a setup hook run on every fresh
    /// engine (the place to install case-study libraries or extra
    /// primitives before the program is compiled).
    ///
    /// # Errors
    ///
    /// Propagates setup and initial-compilation errors.
    pub fn with_setup(
        source: &str,
        file: &str,
        config: AdaptiveConfig,
        setup: impl Fn(&mut Engine) -> Result<(), Error> + Send + Sync + 'static,
    ) -> Result<AdaptiveEngine, Error> {
        AdaptiveEngine::build(source, file, config, Some(Box::new(setup)))
    }

    fn build(
        source: &str,
        file: &str,
        config: AdaptiveConfig,
        setup: Option<Setup>,
    ) -> Result<AdaptiveEngine, Error> {
        let placeholder = Arc::new(CompiledProgram {
            generation: 0,
            expansion: Vec::new(),
            cfgs: Vec::new(),
            optimized_under_points: 0,
            reused_forms: 0,
            reexpanded_forms: 0,
        });
        let shared = Arc::new(Shared {
            source: source.to_owned(),
            file: file.to_owned(),
            setup,
            counters: ShardedCounters::new(),
            coalesce: config.coalesce,
            program: RwLock::new(placeholder),
            agg: Mutex::new(AggState {
                rolling: RollingProfile::new(config.decay),
                baseline: ProfileInformation::empty(),
                epoch: 0,
                streak: 0,
                cooldown_left: 0,
            }),
            pending: Mutex::new(None),
            drift_pending: AtomicBool::new(false),
            reoptimizations: AtomicU64::new(0),
        });
        let incremental = if config.incremental {
            Some(IncrementalEngine::with_engine(
                shared.fresh_engine()?,
                source,
                file,
                IncrementalConfig {
                    epsilon: config.epsilon,
                },
            )?)
        } else {
            None
        };
        let mut engine = AdaptiveEngine {
            config,
            shared,
            incremental,
            serving: None,
            last_flush: pgmp_rt::FlushStatsSnapshot::default(),
        };
        let gen0 = engine.compile(ProfileInformation::empty(), 0)?;
        *engine
            .shared
            .program
            .write()
            .expect("adaptive program cell poisoned") = gen0;
        Ok(engine)
    }

    /// The loop configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// A `Send + Sync` handle for worker threads.
    pub fn handle(&self) -> AdaptiveHandle {
        AdaptiveHandle {
            shared: self.shared.clone(),
        }
    }

    /// The program generation currently being served.
    pub fn current_program(&self) -> Arc<CompiledProgram> {
        self.handle().current_program()
    }

    /// Runs the program once, instrumented, in a fresh engine, and merges
    /// the resulting counts into the shared registry. Delegates to
    /// [`AdaptiveHandle::collect_run`]; worker threads should clone a
    /// handle and call it there.
    ///
    /// # Errors
    ///
    /// Propagates engine errors from either run.
    pub fn collect_run(&self, driver: Option<&str>) -> Result<(), Error> {
        self.handle().collect_run(driver)
    }

    /// Turns on VM serving: compiles the current generation's chunks
    /// through the incremental cache, runs them once on a persistent
    /// [`Vm`] (defining the program's globals in the incremental engine's
    /// interpreter), and starts collecting block-level counters. From then
    /// on every re-optimization also re-lays-out the chunks it keeps under
    /// the counters of the closing generation (and, with `fuse`, re-mines
    /// the superinstruction plan) before the new generation starts
    /// serving. The VM has one dispatch mode, so the `DispatchMode`
    /// argument is ignored.
    ///
    /// Top-level side effects run once here and once per re-optimization
    /// (the serving program is expected to be definition-shaped, like any
    /// program a long-lived service re-loads on deploy).
    ///
    /// # Errors
    ///
    /// Fails when [`AdaptiveConfig::incremental`] is off — serving depends
    /// on the cache keeping chunk ids stable for reused forms — and
    /// propagates compile/run errors.
    pub fn enable_vm_serving(&mut self, _dispatch: DispatchMode, fuse: bool) -> Result<(), Error> {
        if self.incremental.is_none() {
            return Err(Error::Eval(EvalError::new(
                EvalErrorKind::Runtime,
                "VM serving requires the incremental re-optimization path \
                 (AdaptiveConfig::incremental)",
            )));
        }
        let weights = {
            let agg = self
                .shared
                .agg
                .lock()
                .expect("adaptive aggregation state poisoned");
            agg.baseline.clone()
        };
        let unit = self
            .incremental
            .as_mut()
            .expect("checked above")
            .compile(&weights)?;
        let counters = BlockCounters::new();
        let mut vm = Vm::new();
        vm.set_block_profiling(counters.clone());
        self.serving = Some(VmServing {
            vm,
            counters,
            chunks: unit.chunks,
            fuse,
        });
        self.run_serving_chunks()?;
        Ok(())
    }

    /// True once [`AdaptiveEngine::enable_vm_serving`] has succeeded.
    pub fn vm_serving_enabled(&self) -> bool {
        self.serving.is_some()
    }

    /// One unit of VM-served traffic: re-runs the serving generation's
    /// top-level chunks and then `driver` (expanded through the engine, so
    /// the program's macros are visible) on the serving VM, mirroring what
    /// [`AdaptiveHandle::collect_run`] does tree-walked in a fresh engine.
    /// Block counters accumulate into the current generation's window;
    /// [`Vm::metrics`] accumulate for [`AdaptiveEngine::vm_metrics`].
    /// Returns the last value, printed.
    ///
    /// # Errors
    ///
    /// Fails unless serving is enabled; propagates expansion and runtime
    /// errors.
    pub fn vm_serve_run(&mut self, driver: Option<&str>) -> Result<String, Error> {
        if self.serving.is_none() {
            return Err(Error::Eval(EvalError::new(
                EvalErrorKind::Runtime,
                "vm_serve_run before enable_vm_serving",
            )));
        }
        let mut last = self.run_serving_chunks()?;
        if let Some(src) = driver {
            let incr = self
                .incremental
                .as_mut()
                .expect("VM serving requires the incremental path");
            let cores = incr.engine_mut().expand_to_core(src, "adaptive-vm-driver.scm")?;
            let serving = self.serving.as_mut().expect("checked above");
            let incr = self
                .incremental
                .as_mut()
                .expect("VM serving requires the incremental path");
            let interp = incr.engine_mut().interp_mut();
            for core in &cores {
                last = serving.vm.run_core(interp, core)?.write_string();
            }
        }
        Ok(last)
    }

    /// Cumulative execution metrics of the serving VM (`None` until
    /// [`AdaptiveEngine::enable_vm_serving`]). Copy out before and after a
    /// [`AdaptiveEngine::vm_serve_run`] to measure one unit of traffic.
    pub fn vm_metrics(&self) -> Option<VmMetrics> {
        self.serving.as_ref().map(|s| s.vm.metrics)
    }

    /// Compiles the program under `weights` (expansion + bytecode), off
    /// to the side; does not swap. Incremental when configured: only
    /// forms whose recorded profile reads changed re-expand.
    fn compile(
        &mut self,
        weights: ProfileInformation,
        generation: u64,
    ) -> Result<Arc<CompiledProgram>, Error> {
        let optimized_under_points = weights.len();
        if let Some(incr) = self.incremental.as_mut() {
            let unit = incr.compile(&weights)?;
            if let Some(serving) = self.serving.as_mut() {
                // Hand the new generation's chunks to the serving VM;
                // reused forms keep their chunk ids, so the counters
                // collected under the previous generation still apply.
                serving.chunks = unit.chunks;
            }
            return Ok(Arc::new(CompiledProgram {
                generation,
                expansion: unit.expansion,
                cfgs: unit.cfgs,
                optimized_under_points,
                reused_forms: unit.stats.reused,
                reexpanded_forms: unit.stats.reexpanded,
            }));
        }
        let mut engine = self.shared.fresh_engine()?;
        engine.set_profile(weights);
        let compiled = engine.compile_str(&self.shared.source, &self.shared.file)?;
        let expansion = compiled.printed();
        let cfgs: Vec<String> = compiled
            .cores
            .iter()
            .map(|c| canonical_form(&compile_chunk(c)))
            .collect();
        let reexpanded_forms = expansion.len();
        Ok(Arc::new(CompiledProgram {
            generation,
            expansion,
            cfgs,
            optimized_under_points,
            reused_forms: 0,
            reexpanded_forms,
        }))
    }

    /// Recompiles under `weights` and atomically swaps the new generation
    /// in; the drift baseline moves to `weights` and the cooldown window
    /// (if configured) starts.
    ///
    /// # Errors
    ///
    /// If compilation fails the old generation keeps serving and the
    /// baseline is unchanged.
    fn reoptimize(&mut self, weights: ProfileInformation) -> Result<Arc<CompiledProgram>, Error> {
        let t = observe::timer();
        let next_gen = self.current_program().generation + 1;
        let program = self.compile(weights.clone(), next_gen)?;
        let swap_us = {
            // A plain clock, not an observe span: the swap is interior
            // to the reoptimize span and reported as its `swap_us`.
            let swap_timer = observe::enabled().then(std::time::Instant::now);
            let mut cell = self
                .shared
                .program
                .write()
                .expect("adaptive program cell poisoned");
            *cell = program.clone();
            swap_timer.map_or(0, |t0| t0.elapsed().as_micros() as u64)
        };
        observe::finish(t, |duration_us| observe::EventKind::Reoptimize {
            generation: next_gen,
            reused: program.reused_forms as u32,
            reexpanded: program.reexpanded_forms as u32,
            duration_us,
            swap_us,
        });
        {
            let mut agg = self
                .shared
                .agg
                .lock()
                .expect("adaptive aggregation state poisoned");
            agg.baseline = weights;
            agg.streak = 0;
            agg.cooldown_left = self.config.cooldown_epochs;
        }
        self.shared.reoptimizations.fetch_add(1, Ordering::Relaxed);
        self.relayout_serving(next_gen)?;
        Ok(program)
    }

    /// The drift-driven re-layout half of a re-optimization (no-op unless
    /// VM serving is enabled): re-lays-out the new generation's chunks —
    /// and every lambda chunk the serving VM has compiled — under the
    /// block counters collected since the previous generation, re-mines
    /// the superinstruction plan from the same window, re-runs the
    /// (re-laid-out) top-level chunks so re-expanded definitions take
    /// effect, and opens a fresh counter window for the next generation.
    fn relayout_serving(&mut self, generation: u64) -> Result<(), Error> {
        let Some(serving) = self.serving.as_mut() else {
            return Ok(());
        };
        let t = observe::timer();
        for chunk in serving.chunks.iter_mut() {
            *chunk = optimize_layout(chunk, &serving.counters);
        }
        serving.vm.relayout_cached(&serving.counters);
        if serving.fuse {
            let lambda_chunks = serving.vm.compiled_chunks();
            let plan = FusionPlan::mine(
                serving
                    .chunks
                    .iter()
                    .chain(lambda_chunks.iter().map(|c| &**c)),
                &serving.counters,
                3,
            );
            serving.vm.set_fusion(plan);
        }
        let chunks = serving.chunks.len() as u32;
        serving.counters.clear();
        observe::finish(t, |duration_us| observe::EventKind::LayoutReoptimize {
            generation,
            chunks,
            duration_us,
        });
        observe::metrics().counter_add("vm.layout_reoptimizations", 1);
        self.run_serving_chunks()?;
        Ok(())
    }

    /// Runs the serving generation's top-level chunks on the serving VM
    /// against the incremental engine's interpreter (where the serving
    /// globals live), returning the last chunk's value, printed.
    fn run_serving_chunks(&mut self) -> Result<String, Error> {
        let serving = self
            .serving
            .as_mut()
            .expect("run_serving_chunks without serving state");
        let incr = self
            .incremental
            .as_mut()
            .expect("VM serving requires the incremental path");
        let interp = incr.engine_mut().interp_mut();
        let mut last = String::from("#<unspecified>");
        for chunk in &serving.chunks {
            last = serving.vm.run_chunk(interp, chunk)?.write_string();
        }
        Ok(last)
    }

    /// Runs one epoch synchronously: drain counters into the rolling
    /// profile, measure drift, and — if the detector fires — recompile and
    /// swap within this call.
    ///
    /// # Errors
    ///
    /// Propagates re-optimization errors; the aggregation itself cannot
    /// fail.
    pub fn tick(&mut self) -> Result<EpochReport, Error> {
        let t = observe::timer();
        let step = self.shared.epoch_step(&self.config);
        let mut reoptimized = false;
        if step.fired {
            self.reoptimize(step.weights.clone())?;
            reoptimized = true;
        }
        let flush = self.shared.counters.flush_stats();
        let merged_total = flush.buffered_hits.saturating_sub(flush.flushed_slots);
        let last_merged = self
            .last_flush
            .buffered_hits
            .saturating_sub(self.last_flush.flushed_slots);
        let report = EpochReport {
            epoch: step.epoch,
            hits: step.hits,
            drift: step.drift,
            fired: step.fired,
            reoptimized,
            generation: self.current_program().generation,
            streak: step.streak,
            cooldown: step.cooldown,
            flush_writes: flush.flushes.saturating_sub(self.last_flush.flushes),
            flush_merged: merged_total.saturating_sub(last_merged),
        };
        self.last_flush = flush;
        self.publish_epoch_metrics(&report);
        observe::finish(t, |duration_us| observe::EventKind::Epoch {
            epoch: report.epoch,
            hits: report.hits,
            drift: report.drift,
            fired: report.fired,
            reoptimized: report.reoptimized,
            generation: report.generation,
            streak: report.streak,
            cooldown: report.cooldown,
            flush_writes: report.flush_writes,
            flush_merged: report.flush_merged,
            duration_us,
        });
        Ok(report)
    }

    /// Publishes one epoch's outcome to the process-global metrics
    /// registry (`adaptive.*`). Every consumer — the `--adaptive` console
    /// lines, `--metrics` snapshots — reads these same values, so they
    /// cannot disagree.
    fn publish_epoch_metrics(&self, report: &EpochReport) {
        let m = observe::metrics();
        m.counter_add("adaptive.epochs", 1);
        m.counter_add("adaptive.hits", report.hits);
        m.counter_add("adaptive.flush_writes", report.flush_writes);
        m.counter_add("adaptive.flush_merged", report.flush_merged);
        if report.fired {
            m.counter_add("adaptive.fired", 1);
        }
        if report.reoptimized {
            m.counter_add("adaptive.reoptimizations", 1);
            let p = self.current_program();
            m.counter_add("adaptive.reused_forms", p.reused_forms as u64);
            m.counter_add("adaptive.reexpanded_forms", p.reexpanded_forms as u64);
        }
        m.gauge_set("adaptive.drift", report.drift);
        m.gauge_set("adaptive.generation", report.generation as f64);
        m.gauge_set("adaptive.streak", f64::from(report.streak));
        m.gauge_set("adaptive.cooldown", f64::from(report.cooldown));
        if let Some(s) = &self.serving {
            m.gauge_set("vm.taken_jumps", s.vm.metrics.taken_jumps as f64);
            m.gauge_set("vm.fused_share", s.vm.metrics.fused_share());
        }
    }

    /// Starts the epoch-based background aggregator: every
    /// [`AdaptiveConfig::epoch`], it drains the counters, updates the
    /// rolling profile, and measures drift on its own thread. When drift
    /// fires it *flags* rather than recompiles (the engine is
    /// single-threaded); the owning thread observes the flag via
    /// [`AdaptiveHandle::drift_pending`] and recompiles with
    /// [`AdaptiveEngine::poll_reoptimize`].
    pub fn spawn_aggregator(&self) -> AggregatorGuard {
        let shared = self.shared.clone();
        let config = self.config.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let join = std::thread::spawn(move || {
            let mut epochs = 0u64;
            while !stop_flag.load(Ordering::Relaxed) {
                // Sleep in slices so stop() is prompt even for long epochs.
                let mut remaining = config.epoch;
                while !remaining.is_zero() && !stop_flag.load(Ordering::Relaxed) {
                    let slice = remaining.min(Duration::from_millis(10));
                    std::thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                let step = shared.epoch_step(&config);
                epochs += 1;
                if step.fired {
                    *shared.pending.lock().expect("adaptive pending cell poisoned") =
                        Some(step.weights);
                    shared.drift_pending.store(true, Ordering::Release);
                }
            }
            epochs
        });
        AggregatorGuard {
            stop,
            join: Some(join),
        }
    }

    /// Consumes a pending drift flag from the background aggregator:
    /// recompiles under the flagged weights and swaps. Returns the new
    /// program, or `None` when no drift was pending.
    ///
    /// # Errors
    ///
    /// Propagates re-optimization errors (the flag is consumed either
    /// way; the next drifting epoch will re-raise it).
    pub fn poll_reoptimize(&mut self) -> Result<Option<Arc<CompiledProgram>>, Error> {
        if !self.shared.drift_pending.swap(false, Ordering::Acquire) {
            return Ok(None);
        }
        let weights = self
            .shared
            .pending
            .lock()
            .expect("adaptive pending cell poisoned")
            .take();
        match weights {
            Some(w) => self.reoptimize(w).map(Some),
            None => Ok(None),
        }
    }

    /// Applies a *fleet* profile — the canonical merged weights pushed by
    /// a `pgmp-profiled` epoch broadcast — as a drift source: measures
    /// drift of `weights` against the weights this engine's serving
    /// program was optimized under and, past the configured threshold,
    /// recompiles and swaps exactly as a local over-threshold epoch
    /// would. Returns the new program when re-optimization ran, `None`
    /// when fleet behavior matches what is already being served.
    ///
    /// Hysteresis and cooldown do not apply: they damp per-epoch counter
    /// noise, while a broadcast is already one merged observation over
    /// the whole fleet (the daemon's merge cadence is the damping).
    ///
    /// # Errors
    ///
    /// Propagates re-optimization errors; on failure the old generation
    /// keeps serving and the baseline is unchanged.
    pub fn apply_fleet_profile(
        &mut self,
        weights: &ProfileInformation,
    ) -> Result<Option<Arc<CompiledProgram>>, Error> {
        self.apply_fleet_epoch(weights, 0, 0)
    }

    /// [`AdaptiveEngine::apply_fleet_profile`], stamped with the
    /// broadcast's correlation ids: the daemon's
    /// [`pgmp_observe::instance_id`] and merge epoch from the
    /// `EpochUpdate` frame. Emits a `fleet_apply` trace event carrying
    /// them — the join key `pgmp-trace merge` uses to order this
    /// process's re-optimization after the exact daemon merge that
    /// caused it. Zero ids (a v1 daemon, or no daemon at all) still
    /// record the local decision; they just cannot be joined.
    pub fn apply_fleet_epoch(
        &mut self,
        weights: &ProfileInformation,
        daemon_inst: u64,
        epoch: u64,
    ) -> Result<Option<Arc<CompiledProgram>>, Error> {
        let value = {
            let agg = self
                .shared
                .agg
                .lock()
                .expect("adaptive aggregation state poisoned");
            drift(weights, &agg.baseline, self.config.metric)
        };
        observe::metrics().gauge_set("adaptive.fleet_drift", value);
        let reoptimized = value > self.config.drift_threshold;
        // Emitted before the recompile so the merged timeline reads
        // decision-then-work: fleet_apply, then the reoptimize span.
        observe::emit(observe::EventKind::FleetApply {
            daemon_inst,
            epoch,
            drift: value,
            reoptimized,
        });
        if !reoptimized {
            return Ok(None);
        }
        let program = self.reoptimize(weights.clone())?;
        observe::metrics().counter_add("adaptive.fleet_reoptimizations", 1);
        Ok(Some(program))
    }

    /// Persists the aggregation state — rolling profile (decayed counts +
    /// epoch counter) and optimization baseline — to `path`, atomically.
    /// Pair with [`AdaptiveEngine::restore_snapshot`] to carry an online
    /// session's profile memory across a process restart.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the atomic write.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), Error> {
        let snap = {
            let agg = self
                .shared
                .agg
                .lock()
                .expect("adaptive aggregation state poisoned");
            crate::EpochSnapshot::capture(&agg.rolling, &agg.baseline)
        };
        snap.store_file(path).map_err(Error::Profile)?;
        Ok(())
    }

    /// Restores aggregation state saved by
    /// [`AdaptiveEngine::save_snapshot`]: the rolling profile resumes its
    /// decay history and the drift baseline is re-established, so the
    /// first epochs after a restart measure drift against what the
    /// previous process had learned — not against an empty profile.
    ///
    /// The engine keeps its *configured* decay factor (the stored one is
    /// diagnostic); hysteresis and cooldown state reset — they damp
    /// within-process oscillation and are meaningless across a restart.
    /// Returns the restored snapshot for inspection.
    ///
    /// # Errors
    ///
    /// Typed [`pgmp_profiler::ProfileStoreError`]s (wrapped in
    /// [`Error::Profile`]) for I/O, corruption, or version problems; the
    /// in-memory state is untouched on error.
    pub fn restore_snapshot(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<crate::EpochSnapshot, Error> {
        let snap = crate::EpochSnapshot::load_file(path).map_err(Error::Profile)?;
        let mut agg = self
            .shared
            .agg
            .lock()
            .expect("adaptive aggregation state poisoned");
        agg.rolling =
            RollingProfile::from_parts(self.config.decay, snap.epochs, snap.counts.clone());
        agg.baseline = snap.baseline.clone();
        agg.epoch = snap.epochs;
        agg.streak = 0;
        agg.cooldown_left = 0;
        Ok(snap)
    }
}

/// Stops (and joins) the background aggregator when dropped.
pub struct AggregatorGuard {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<u64>>,
}

impl AggregatorGuard {
    /// Stops the aggregator and returns how many epochs it ran.
    pub fn stop(mut self) -> u64 {
        self.shutdown()
    }

    fn shutdown(&mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        match self.join.take() {
            Some(join) => join.join().unwrap_or(0),
            None => 0,
        }
    }
}

impl Drop for AggregatorGuard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_syntax::SourceObject;

    // A program whose if-r macro flips branch order by profile weight —
    // self-contained (no case-studies dependency) so the adaptive crate's
    // own tests stay within this crate.
    const IF_R: &str = "
      (define-syntax (if-r stx)
        (syntax-case stx ()
          [(_ test t-branch f-branch)
           (if (< (profile-query #'t-branch) (profile-query #'f-branch))
               #'(if (not test) f-branch t-branch)
               #'(if test t-branch f-branch))]))
      (define (classify n) (if-r (< n 10) 'small 'big))";

    fn drive(lo: i64, hi: i64) -> String {
        format!(
            "(let loop ([i {lo}])
               (unless (= i {hi}) (classify i) (loop (add1 i))))"
        )
    }

    #[test]
    fn generation_zero_compiles_without_profile() {
        let engine =
            AdaptiveEngine::new(IF_R, "ifr.scm", AdaptiveConfig::default()).unwrap();
        let program = engine.current_program();
        assert_eq!(program.generation, 0);
        assert!(!program.expansion.is_empty());
        assert!(!program.cfgs.is_empty());
        assert_eq!(program.optimized_under_points, 0);
        // Unprofiled if-r keeps source order: (if (< n 10) 'small 'big).
        let text = program.expansion.join("\n");
        assert!(
            text.contains("(if (< n 10) (quote small) (quote big))"),
            "unexpected gen-0 expansion: {text}"
        );
    }

    #[test]
    fn drift_triggers_reoptimization_and_branch_flip() {
        let config = AdaptiveConfig {
            decay: 0.5,
            drift_threshold: 0.2,
            ..AdaptiveConfig::default()
        };
        let mut engine = AdaptiveEngine::new(IF_R, "ifr.scm", config).unwrap();

        // Phase 1: traffic is all n >= 10, so 'big dominates.
        engine.collect_run(Some(&drive(10, 60))).unwrap();
        let report = engine.tick().unwrap();
        assert!(report.fired, "first traffic must drift from empty baseline");
        assert!(report.reoptimized);
        assert_eq!(report.generation, 1);
        let text = engine.current_program().expansion.join("\n");
        assert!(
            text.contains("(if (not (< n 10)) (quote big) (quote small))"),
            "hot 'big branch should be negated to front: {text}"
        );

        // Same traffic again: no drift, no recompile.
        engine.collect_run(Some(&drive(10, 60))).unwrap();
        let report = engine.tick().unwrap();
        assert!(!report.fired, "steady traffic re-fired: drift {}", report.drift);
        assert_eq!(report.generation, 1);

        // Phase 2: traffic shifts to n < 10; decay ages 'big out.
        for _ in 0..4 {
            engine.collect_run(Some(&drive(0, 10))).unwrap();
            engine.tick().unwrap();
        }
        let program = engine.current_program();
        assert!(program.generation >= 2, "shift never re-optimized");
        let text = program.expansion.join("\n");
        assert!(
            text.contains("(if (< n 10) (quote small) (quote big))"),
            "after the shift 'small is hot again: {text}"
        );
    }

    /// Fall-through ratio of the control transfers between two metric
    /// snapshots.
    fn transfer_ratio(before: VmMetrics, after: VmMetrics) -> f64 {
        let ft = after.fallthroughs - before.fallthroughs;
        let tj = after.taken_jumps - before.taken_jumps;
        assert!(ft + tj > 0, "no control transfers measured");
        ft as f64 / (ft + tj) as f64
    }

    #[test]
    fn vm_serving_requires_the_incremental_path() {
        let config = AdaptiveConfig {
            incremental: false,
            ..AdaptiveConfig::default()
        };
        let mut engine = AdaptiveEngine::new("(define x 1)", "p.scm", config).unwrap();
        assert!(engine.enable_vm_serving(DispatchMode::Flat, false).is_err());
        assert!(!engine.vm_serving_enabled());
        assert!(engine.vm_metrics().is_none());
    }

    #[test]
    fn drift_relayout_raises_the_fallthrough_ratio() {
        // No profile-reading macros: every form is reused across the
        // re-optimization, so any fall-through improvement on the served
        // workload comes from drift-driven block re-layout alone.
        let src = "(define (classify n) (if (< n 10) 'small 'big))";
        let config = AdaptiveConfig {
            decay: 0.5,
            drift_threshold: 0.2,
            ..AdaptiveConfig::default()
        };
        let mut engine = AdaptiveEngine::new(src, "plain.scm", config).unwrap();
        engine.enable_vm_serving(DispatchMode::Flat, true).unwrap();
        assert!(engine.vm_serving_enabled());

        // Serve shifted traffic: n >= 10 throughout, so classify's
        // source-second 'big branch is the hot one (a taken jump under the
        // source-order layout).
        let before = engine.vm_metrics().unwrap();
        engine.vm_serve_run(Some(&drive(10, 60))).unwrap();
        let pre = transfer_ratio(before, engine.vm_metrics().unwrap());

        // Source-level drift from the empty baseline fires; the compile
        // reuses every form; the re-layout half re-orders the serving
        // chunks (and the VM's cached lambda bodies) under the counters
        // the serving run just collected.
        engine.collect_run(Some(&drive(10, 60))).unwrap();
        let report = engine.tick().unwrap();
        assert!(report.reoptimized, "drift from empty baseline must fire");
        assert!(
            engine.current_program().reused_forms > 0,
            "plain program must reuse, not re-expand"
        );

        // The same workload again: the hot branch now falls through.
        let before = engine.vm_metrics().unwrap();
        engine.vm_serve_run(Some(&drive(10, 60))).unwrap();
        let post = transfer_ratio(before, engine.vm_metrics().unwrap());
        assert!(
            post > pre,
            "re-layout must raise the fall-through ratio: pre {pre:.3} post {post:.3}"
        );
    }

    #[test]
    fn snapshot_restores_profile_memory_across_engines() {
        let dir = std::env::temp_dir().join(format!("pgmp-adapt-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch.pgmp");
        let config = AdaptiveConfig {
            decay: 0.5,
            drift_threshold: 0.2,
            ..AdaptiveConfig::default()
        };

        // "Process 1": learn that 'big is hot, re-optimize, snapshot.
        {
            let mut engine = AdaptiveEngine::new(IF_R, "ifr.scm", config.clone()).unwrap();
            engine.collect_run(Some(&drive(10, 60))).unwrap();
            let report = engine.tick().unwrap();
            assert!(report.reoptimized);
            engine.save_snapshot(&path).unwrap();
        }

        // "Process 2": restore; identical traffic must NOT fire (the
        // baseline carried over), unlike a cold engine where the very
        // first traffic always drifts from the empty baseline.
        let mut engine = AdaptiveEngine::new(IF_R, "ifr.scm", config).unwrap();
        let snap = engine.restore_snapshot(&path).unwrap();
        assert!(snap.epochs >= 1);
        assert!(!snap.baseline.is_empty());
        engine.collect_run(Some(&drive(10, 60))).unwrap();
        let report = engine.tick().unwrap();
        assert!(
            !report.fired,
            "restored baseline treated steady traffic as drift: {}",
            report.drift
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_from_corrupt_snapshot_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("pgmp-adapt-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch.pgmp");
        std::fs::write(&path, "(pgmp-epoch (version 9))").unwrap();
        let mut engine =
            AdaptiveEngine::new(IF_R, "ifr.scm", AdaptiveConfig::default()).unwrap();
        let err = engine.restore_snapshot(&path);
        assert!(matches!(err, Err(Error::Profile(_))), "{err:?}");
        // Engine still works after the failed restore.
        engine.collect_run(Some(&drive(0, 5))).unwrap();
        engine.tick().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idle_epochs_never_fire() {
        let mut engine =
            AdaptiveEngine::new(IF_R, "ifr.scm", AdaptiveConfig::default()).unwrap();
        engine.collect_run(Some(&drive(0, 20))).unwrap();
        engine.tick().unwrap();
        let before = engine.current_program().generation;
        for _ in 0..10 {
            let report = engine.tick().unwrap();
            assert!(!report.fired, "idle epoch fired at drift {}", report.drift);
            assert_eq!(report.hits, 0);
        }
        assert_eq!(engine.current_program().generation, before);
    }

    #[test]
    fn failed_recompilation_keeps_serving_old_generation() {
        // A program whose macro errors once a profile point is hot (the
        // transformer calls an unbound procedure): re-optimization fails,
        // but generation 0 must keep serving.
        let booby_trap = "
          (define-syntax (trap stx)
            (syntax-case stx ()
              [(_ e)
               (if (> (profile-query #'e) 0.5)
                   (poison-the-hot-path)
                   #'e)]))
          (define (f) (trap (+ 1 2)))";
        let config = AdaptiveConfig {
            drift_threshold: 0.01,
            ..AdaptiveConfig::default()
        };
        let mut engine = AdaptiveEngine::new(booby_trap, "trap.scm", config).unwrap();
        engine.collect_run(Some("(f) (f) (f)")).unwrap();
        let result = engine.tick();
        assert!(result.is_err(), "poisoned recompilation must surface");
        let program = engine.current_program();
        assert_eq!(program.generation, 0, "old generation must keep serving");
        assert!(!program.expansion.is_empty());
    }

    #[test]
    fn background_aggregator_flags_drift_for_the_engine_thread() {
        let config = AdaptiveConfig {
            epoch: Duration::from_millis(15),
            drift_threshold: 0.2,
            ..AdaptiveConfig::default()
        };
        let mut engine = AdaptiveEngine::new(IF_R, "ifr.scm", config).unwrap();
        let handle = engine.handle();
        let aggregator = engine.spawn_aggregator();

        // Feed traffic from a worker thread while the aggregator runs.
        std::thread::scope(|s| {
            let h = engine.handle();
            let worker = s.spawn(move || h.collect_run(Some(&drive(10, 60))));
            worker.join().unwrap().unwrap();
        });

        // Wait (bounded) for the aggregator to notice.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !handle.drift_pending() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(handle.drift_pending(), "aggregator never flagged drift");
        let epochs = aggregator.stop();
        assert!(epochs >= 1);

        let program = engine.poll_reoptimize().unwrap().expect("pending reopt");
        assert_eq!(program.generation, 1);
        assert!(engine.poll_reoptimize().unwrap().is_none(), "flag must be consumed");
        assert_eq!(handle.reoptimizations(), 1);
    }

    #[test]
    fn fleet_profile_drives_reoptimization() {
        let config = AdaptiveConfig {
            drift_threshold: 0.2,
            ..AdaptiveConfig::default()
        };
        let mut engine = AdaptiveEngine::new(IF_R, "ifr.scm", config).unwrap();

        // Discover the program's profile points from one instrumented run,
        // then fabricate "fleet" weights that make 'big hot.
        let mut probe = pgmp::Engine::new();
        probe.set_instrumentation(ProfileMode::EveryExpression);
        probe.run_str(IF_R, "ifr.scm").unwrap();
        probe.run_str(&drive(10, 60), "adaptive-driver.scm").unwrap();
        let fleet = ProfileInformation::from_dataset(&probe.counters().snapshot());

        let program = engine
            .apply_fleet_profile(&fleet)
            .unwrap()
            .expect("fleet drift from empty baseline must re-optimize");
        assert_eq!(program.generation, 1);
        let text = program.expansion.join("\n");
        assert!(
            text.contains("(if (not (< n 10)) (quote big) (quote small))"),
            "fleet-hot 'big branch should lead: {text}"
        );

        // The same fleet profile again: baseline now matches, no recompile.
        assert!(engine.apply_fleet_profile(&fleet).unwrap().is_none());
        assert_eq!(engine.current_program().generation, 1);

        // Shifted fleet behavior re-optimizes again.
        let mut probe = pgmp::Engine::new();
        probe.set_instrumentation(ProfileMode::EveryExpression);
        probe.run_str(IF_R, "ifr.scm").unwrap();
        probe.run_str(&drive(0, 10), "adaptive-driver.scm").unwrap();
        let shifted = ProfileInformation::from_dataset(&probe.counters().snapshot());
        assert!(engine.apply_fleet_profile(&shifted).unwrap().is_some());
        assert_eq!(engine.current_program().generation, 2);
    }

    #[test]
    fn handle_counters_feed_the_same_registry() {
        let engine =
            AdaptiveEngine::new(IF_R, "ifr.scm", AdaptiveConfig::default()).unwrap();
        let handle = engine.handle();
        let p = SourceObject::new("direct.scm", 0, 1);
        handle.counters().add(p, 41);
        handle.counters().increment(p);
        assert_eq!(engine.handle().counters().count(p), 42);
    }
}
