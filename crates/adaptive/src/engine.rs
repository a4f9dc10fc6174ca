//! The adaptive driver: epochs → drift → re-optimization, continuously.

use crate::drift::DriftDetector;
use crate::rolling::RollingProfile;
use pgmp::{Engine, Error, IncrementalConfig, IncrementalEngine};
use pgmp_bytecode::{BlockCounters, Chunk, DispatchMode, Vm, VmMetrics};
use pgmp_eval::{EvalError, EvalErrorKind};
use pgmp_observe as observe;
use pgmp_profiler::{ProfileInformation, ProfileMode, ShardedCounters};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Tuning knobs for the adaptive loop.
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// Per-epoch exponential decay of the rolling profile between
    /// re-optimizations, in `[0, 1]`: `1.0` never forgets, `0.0` keeps
    /// only the latest epoch. A re-optimization restarts the rolling
    /// profile from the epoch that fired it, whatever the decay.
    pub decay: f64,
    /// Drift value above which re-optimization triggers.
    pub drift_threshold: f64,
    /// Number of *consecutive* over-threshold epochs required before the
    /// drift detector fires. `1` (the default) fires immediately; higher
    /// values ride out single-epoch noise spikes.
    pub hysteresis_epochs: u32,
    /// Epochs to skip drift detection after a re-optimization, bounding
    /// the recompile rate under sustained drift. `0` disables.
    pub cooldown_epochs: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            decay: 0.5,
            drift_threshold: 0.15,
            hysteresis_epochs: 1,
            cooldown_epochs: 0,
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
    /// Number of profile points in the weights this generation was
    /// optimized under.
    pub optimized_under_points: usize,
    /// Top-level forms served from the incremental cache when this
    /// generation was compiled (their consulted weights did not change).
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
}

/// State shared between the engine thread and worker threads.
struct Shared {
    source: String,
    file: String,
    setup: Option<Setup>,
    counters: ShardedCounters,
    program: RwLock<Arc<CompiledProgram>>,
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

    /// Merges one instrumented run's dataset into the shared registry:
    /// one atomic add per point.
    pub fn absorb(&self, dataset: &pgmp_profiler::Dataset) {
        self.shared.counters.absorb(dataset);
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
/// re-layout). Lives on the engine — the VM borrows the incremental
/// engine's interpreter, and both are single-threaded.
struct VmServing {
    vm: Vm,
    /// Block counters for the current generation's serving window; cleared
    /// at each re-optimization so the next re-layout sees only current
    /// behavior (the registrations of live chunks survive the clear).
    counters: BlockCounters,
    /// Top-level chunks of the serving generation. Reused forms keep their
    /// chunk ids across re-optimizations, so counters collected against an
    /// earlier generation stay valid for them.
    chunks: Vec<Chunk>,
    /// Chunks registered with `counters` after their last pruning.
    registered: usize,
}

impl VmServing {
    /// Drops the counter ranges of chunks the serving code can no longer
    /// run (each traffic run's driver, code of replaced generations),
    /// keeping the counts of the rest: the generation's top-level chunks
    /// and the live lambdas the VM counted.
    fn drop_dead_counters(&mut self) {
        let lambdas = self.vm.compiled_chunks();
        let live = self.chunks.iter().chain(&lambdas).map(|c| c.id);
        self.counters.retain_chunks(live);
        self.registered = self.counters.chunk_count();
    }

    /// Runs the serving generation's top-level chunks against the
    /// incremental engine's interpreter (where the serving globals live),
    /// returning the last chunk's value, printed.
    fn run_chunks(&mut self, incremental: &mut IncrementalEngine) -> Result<String, Error> {
        let interp = incremental.engine_mut().interp_mut();
        let mut last = String::from("#<unspecified>");
        for chunk in &self.chunks {
            last = self.vm.run_chunk(interp, chunk)?.write_string();
        }
        Ok(last)
    }
}

/// The online driver that closes the paper's loop.
///
/// The paper's workflow (§4.3) is offline: instrument, run, store,
/// recompile. `AdaptiveEngine` runs the same machinery continuously:
///
/// 1. worker threads feed a [`ShardedCounters`] registry (directly, or by
///    absorbing instrumented runs — see [`AdaptiveHandle::collect_run`]);
/// 2. each [`tick`](AdaptiveEngine::tick) drains the registry into a
///    [`RollingProfile`] (exponential decay, so old behavior ages out);
/// 3. a [`DriftDetector`] compares the rolling weights against the weights
///    the serving program was optimized under;
/// 4. when it fires, the program is recompiled through the per-form
///    incremental cache ([`pgmp::IncrementalEngine`]) under the weights of
///    the epoch that fired it, the resulting [`CompiledProgram`] is
///    atomically swapped in for readers, and the rolling profile restarts
///    from that epoch.
///
/// `pgmp::Engine` itself is single-threaded, so epochs and compilation run
/// on whichever thread owns the `AdaptiveEngine`, which paces them; all
/// that workers touch ([`AdaptiveHandle`]) is `Send + Sync`.
pub struct AdaptiveEngine {
    shared: Arc<Shared>,
    rolling: RollingProfile,
    detector: DriftDetector,
    /// The persistent per-form cache every (re)compile goes through.
    incremental: IncrementalEngine,
    /// VM-serving state ([`AdaptiveEngine::enable_vm_serving`]); `None`
    /// until enabled.
    serving: Option<VmServing>,
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
            optimized_under_points: 0,
            reused_forms: 0,
            reexpanded_forms: 0,
        });
        let shared = Arc::new(Shared {
            source: source.to_owned(),
            file: file.to_owned(),
            setup,
            counters: ShardedCounters::new(),
            program: RwLock::new(placeholder),
        });
        let incremental = IncrementalEngine::with_engine(
            shared.fresh_engine()?,
            source,
            file,
            IncrementalConfig::default(),
        )?;
        let mut engine = AdaptiveEngine {
            rolling: RollingProfile::new(config.decay),
            detector: DriftDetector::new(
                config.drift_threshold,
                config.hysteresis_epochs,
                config.cooldown_epochs,
            ),
            shared,
            incremental,
            serving: None,
        };
        let gen0 = engine.compile(&ProfileInformation::empty(), 0)?;
        *engine
            .shared
            .program
            .write()
            .expect("adaptive program cell poisoned") = gen0;
        Ok(engine)
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

    /// The top-level chunks the incremental cache keeps
    /// ([`IncrementalEngine::chunks`]): after a successful (re)compile, the
    /// current generation's.
    pub fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.incremental.chunks()
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
    /// the counters of the closing generation before the new generation
    /// starts serving.
    ///
    /// Both parameters are ignored: the VM has one dispatch mode and one
    /// lowering. The signature stays until its callers in the benchmark
    /// can drop them.
    ///
    /// Top-level side effects run once here and once per re-optimization
    /// (the serving program is expected to be definition-shaped, like any
    /// program a long-lived service re-loads on deploy).
    ///
    /// # Errors
    ///
    /// Propagates compile/run errors.
    pub fn enable_vm_serving(&mut self, _dispatch: DispatchMode, _fuse: bool) -> Result<(), Error> {
        let unit = self.incremental.compile(self.detector.baseline())?;
        let counters = BlockCounters::new();
        let mut vm = Vm::new();
        vm.set_block_profiling(counters.clone());
        let serving = self.serving.insert(VmServing {
            vm,
            counters,
            chunks: unit.chunks,
            registered: 0,
        });
        serving.run_chunks(&mut self.incremental)?;
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
        let Some(serving) = self.serving.as_mut() else {
            return Err(Error::Eval(EvalError::new(
                EvalErrorKind::Runtime,
                "vm_serve_run before enable_vm_serving",
            )));
        };
        let mut last = serving.run_chunks(&mut self.incremental)?;
        if let Some(src) = driver {
            let engine = self.incremental.engine_mut();
            let cores = engine.expand_to_core(src, "adaptive-vm-driver.scm")?;
            let interp = engine.interp_mut();
            for core in &cores {
                last = serving.vm.run_core(interp, core)?.write_string();
            }
        }
        // Every driver registers counter ranges that die with it; drop
        // them whenever the registrations have doubled, so a service that
        // never re-optimizes stays bounded too.
        if serving.counters.chunk_count() >= 2 * serving.registered.max(64) {
            serving.drop_dead_counters();
        }
        Ok(last)
    }

    /// Cumulative execution metrics of the serving VM (`None` until
    /// [`AdaptiveEngine::enable_vm_serving`]). Copy out before and after a
    /// [`AdaptiveEngine::vm_serve_run`] to measure one unit of traffic.
    pub fn vm_metrics(&self) -> Option<VmMetrics> {
        self.serving.as_ref().map(|s| s.vm.metrics)
    }

    /// Compiles the program under `weights` (expansion + bytecode) through
    /// the incremental cache, off to the side; does not swap. Only forms
    /// whose recorded profile reads changed re-expand.
    fn compile(
        &mut self,
        weights: &ProfileInformation,
        generation: u64,
    ) -> Result<Arc<CompiledProgram>, Error> {
        let unit = self.incremental.compile(weights)?;
        if let Some(serving) = self.serving.as_mut() {
            // Hand the new generation's chunks to the serving VM. A reused
            // form keeps its chunk id, and with it the code the VM serves
            // it with, in that code's layout: the counters collected under
            // the previous generation count that code's blocks.
            let mut served: HashMap<u32, Chunk> =
                serving.chunks.drain(..).map(|c| (c.id, c)).collect();
            serving.chunks = unit
                .chunks
                .into_iter()
                .map(|c| served.remove(&c.id).unwrap_or(c))
                .collect();
        }
        Ok(Arc::new(CompiledProgram {
            generation,
            expansion: unit.expansion,
            optimized_under_points: weights.len(),
            reused_forms: unit.stats.reused,
            reexpanded_forms: unit.stats.reexpanded,
        }))
    }

    /// Recompiles under `weights` and atomically swaps the new generation
    /// in; the detector rebases onto `weights` (starting its cooldown).
    ///
    /// # Errors
    ///
    /// If compilation fails the old generation keeps serving and the
    /// baseline is unchanged.
    fn reoptimize(&mut self, weights: ProfileInformation) -> Result<Arc<CompiledProgram>, Error> {
        let t = observe::timer();
        let next_gen = self.current_program().generation + 1;
        let program = self.compile(&weights, next_gen)?;
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
        self.detector.rebase(weights);
        self.relayout_serving(next_gen)?;
        Ok(program)
    }

    /// The drift-driven re-layout half of a re-optimization (no-op unless
    /// VM serving is enabled): re-lays-out the new generation's chunks —
    /// and the chunk of every live lambda the serving VM has counted —
    /// under the block counters collected since the previous generation,
    /// re-runs the (re-laid-out) top-level chunks so re-expanded
    /// definitions take effect, and opens a fresh counter window for the
    /// next generation, holding ranges for live code only.
    fn relayout_serving(&mut self, generation: u64) -> Result<(), Error> {
        let Some(serving) = self.serving.as_mut() else {
            return Ok(());
        };
        let t = observe::timer();
        serving.vm.relayout(&mut serving.chunks, &serving.counters);
        let chunks = serving.chunks.len() as u32;
        serving.counters.clear();
        serving.drop_dead_counters();
        observe::finish(t, |duration_us| observe::EventKind::LayoutReoptimize {
            generation,
            chunks,
            duration_us,
        });
        observe::metrics().counter_add("vm.layout_reoptimizations", 1);
        serving.run_chunks(&mut self.incremental)?;
        Ok(())
    }

    /// Runs one epoch synchronously: drain counters into the rolling
    /// profile, let the drift detector observe the new weights, and — if
    /// it fires — recompile and swap within this call.
    ///
    /// A firing recompiles under the weights of this epoch's traffic
    /// alone, and once the new generation is in, the rolling profile
    /// restarts from this epoch ([`RollingProfile::restarted`]). The
    /// detector fires on the first epoch after a shift, when the decayed
    /// profile is still part old, part new; rebasing onto that mixture
    /// would let the profile converge away from the baseline and fire a
    /// second time on the same shift. After the restart, steady traffic
    /// reads zero drift.
    ///
    /// # Errors
    ///
    /// Propagates re-optimization errors; the aggregation itself cannot
    /// fail.
    pub fn tick(&mut self) -> Result<EpochReport, Error> {
        let t = observe::timer();
        let epoch_data = self.shared.counters.drain();
        let hits: u64 = epoch_data.iter().map(|(_, c)| c).sum();
        self.rolling.absorb(&epoch_data);
        let weights = self.rolling.weights();
        let reading = self.detector.observe(&weights, hits);
        if reading.fired {
            let restarted = self.rolling.restarted(&epoch_data);
            self.reoptimize(restarted.weights())?;
            self.rolling = restarted;
        }
        let report = EpochReport {
            epoch: self.rolling.epochs(),
            hits,
            drift: reading.value,
            fired: reading.fired,
            reoptimized: reading.fired,
            generation: self.current_program().generation,
            streak: reading.streak,
            cooldown: reading.cooldown,
        };
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
            // The trace schema keeps the write-batching fields; no writer
            // batches, so they are always 0.
            flush_writes: 0,
            flush_merged: 0,
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
    /// Unlike a local firing ([`AdaptiveEngine::tick`]), a fleet
    /// re-optimization leaves the rolling profile as it is: fleet weights
    /// are not this process's traffic, so there is no local epoch to
    /// restart the profile from.
    ///
    /// `daemon_inst` and `epoch` are the broadcast's correlation ids: the
    /// daemon's [`pgmp_observe::instance_id`] and merge epoch from the
    /// `EpochUpdate` frame. The `fleet_apply` trace event carries them —
    /// the join key `pgmp-trace merge` uses to order this process's
    /// re-optimization after the exact daemon merge that caused it. Zero
    /// ids (a v1 daemon, or no daemon at all) still record the local
    /// decision; they just cannot be joined.
    ///
    /// # Errors
    ///
    /// Propagates re-optimization errors; on failure the old generation
    /// keeps serving and the baseline is unchanged.
    pub fn apply_fleet_epoch(
        &mut self,
        weights: &ProfileInformation,
        daemon_inst: u64,
        epoch: u64,
    ) -> Result<Option<Arc<CompiledProgram>>, Error> {
        let value = self.detector.measure(weights);
        observe::metrics().gauge_set("adaptive.fleet_drift", value);
        let reoptimized = value > self.detector.threshold();
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
        crate::EpochSnapshot::capture(&self.rolling, self.detector.baseline())
            .store_file(path)
            .map_err(Error::Profile)
    }

    /// Restores aggregation state saved by
    /// [`AdaptiveEngine::save_snapshot`]: the rolling profile resumes its
    /// decay history and the drift baseline is re-established, so the
    /// first epochs after a restart measure drift against what the
    /// previous process had learned — not against an empty profile.
    ///
    /// The engine keeps its *configured* decay factor (the stored one is
    /// diagnostic); hysteresis and cooldown state reset
    /// ([`DriftDetector::restore`]). Returns the restored snapshot for
    /// inspection.
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
        self.rolling =
            RollingProfile::from_parts(self.rolling.decay(), snap.epochs, snap.counts.clone());
        self.detector.restore(snap.baseline.clone());
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_bytecode::canonical_form;
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
        let engine = AdaptiveEngine::new(IF_R, "ifr.scm", AdaptiveConfig::default()).unwrap();
        let program = engine.current_program();
        assert_eq!(program.generation, 0);
        assert!(!program.expansion.is_empty());
        let cfgs: Vec<String> = engine.chunks().map(canonical_form).collect();
        assert!(!cfgs.is_empty());
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
        assert!(
            !report.fired,
            "steady traffic re-fired: drift {}",
            report.drift
        );
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
        engine.enable_vm_serving(DispatchMode::Flat, false).unwrap();
        assert!(engine.vm_serving_enabled());

        // Serve shifted traffic: n >= 10 throughout, so classify's
        // source-second 'big branch is the hot one (a taken jump under the
        // source-order layout).
        let before = engine.vm_metrics().unwrap();
        engine.vm_serve_run(Some(&drive(10, 60))).unwrap();
        let pre = transfer_ratio(before, engine.vm_metrics().unwrap());

        // Source-level drift from the empty baseline fires; the compile
        // reuses every form; the re-layout half re-orders the serving
        // chunks (and the lambda chunks the VM counted) under the counters
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
    fn restore_snapshot_resets_streak_and_cooldown() {
        let dir = std::env::temp_dir().join(format!("pgmp-adapt-reset-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch.pgmp");
        let config = AdaptiveConfig {
            decay: 0.5,
            drift_threshold: 0.2,
            hysteresis_epochs: 2,
            cooldown_epochs: 3,
        };
        let mut engine = AdaptiveEngine::new(IF_R, "ifr.scm", config).unwrap();
        engine.save_snapshot(&path).unwrap();
        let busy_tick = |engine: &mut AdaptiveEngine| {
            engine.collect_run(Some(&drive(10, 60))).unwrap();
            engine.tick().unwrap()
        };

        // One drifting epoch arms the streak; the restore disarms it, so
        // the next drifting epoch is the first of a new streak.
        assert_eq!(busy_tick(&mut engine).streak, 1);
        engine.restore_snapshot(&path).unwrap();
        let report = busy_tick(&mut engine);
        assert_eq!((report.streak, report.fired), (1, false));

        // The second consecutive epoch fires and starts the cooldown.
        assert!(busy_tick(&mut engine).reoptimized);
        assert_eq!(busy_tick(&mut engine).cooldown, 2);
        // The restore ends the cooldown: detection resumes at once, and
        // the restored (empty) baseline reads as drift.
        engine.restore_snapshot(&path).unwrap();
        let report = busy_tick(&mut engine);
        assert_eq!((report.streak, report.cooldown), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_from_corrupt_snapshot_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("pgmp-adapt-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch.pgmp");
        std::fs::write(&path, "(pgmp-epoch (version 9))").unwrap();
        let mut engine = AdaptiveEngine::new(IF_R, "ifr.scm", AdaptiveConfig::default()).unwrap();
        let err = engine.restore_snapshot(&path);
        assert!(matches!(err, Err(Error::Profile(_))), "{err:?}");
        // Engine still works after the failed restore.
        engine.collect_run(Some(&drive(0, 5))).unwrap();
        engine.tick().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idle_epochs_never_fire() {
        let mut engine = AdaptiveEngine::new(IF_R, "ifr.scm", AdaptiveConfig::default()).unwrap();
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
        // but the old generation must keep serving.
        let booby_trap = "
          (define-syntax (trap stx)
            (syntax-case stx ()
              [(_ e)
               (if (> (profile-query #'e) 0.5)
                   (poison-the-hot-path)
                   #'e)]))
          (define (f) (trap (+ 1 2)))
          (define (g n) (* n n))";
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

        // Traffic that leaves the trap cold re-optimizes; the profile
        // restarts from that epoch.
        for _ in 0..4 {
            engine.collect_run(Some("(g 1) (g 2) (g 3)")).unwrap();
        }
        let report = engine.tick().unwrap();
        assert!(report.reoptimized, "{report:?}");
        assert_eq!(engine.current_program().generation, 1);

        // Each failed recompile leaves the rolling profile and the
        // baseline as they were: the profile only absorbs the epoch (no
        // restart), and the detector keeps its baseline.
        let baseline = engine.detector.baseline().clone();
        for _ in 0..2 {
            engine.collect_run(Some("(f) (f) (f)")).unwrap();
            let mut expected = engine.rolling.clone();
            expected.absorb(&engine.handle().counters().snapshot());
            assert!(
                engine.tick().is_err(),
                "poisoned recompilation must surface"
            );
            assert_eq!(engine.current_program().generation, 1);
            assert_eq!(engine.rolling.entries(), expected.entries());
            assert_eq!(engine.detector.baseline(), &baseline);
        }
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
        probe
            .run_str(&drive(10, 60), "adaptive-driver.scm")
            .unwrap();
        let fleet = ProfileInformation::from_dataset(&probe.counters().snapshot());

        let program = engine
            .apply_fleet_epoch(&fleet, 0, 0)
            .unwrap()
            .expect("fleet drift from empty baseline must re-optimize");
        assert_eq!(program.generation, 1);
        let text = program.expansion.join("\n");
        assert!(
            text.contains("(if (not (< n 10)) (quote big) (quote small))"),
            "fleet-hot 'big branch should lead: {text}"
        );

        // The same fleet profile again: baseline now matches, no recompile.
        assert!(engine.apply_fleet_epoch(&fleet, 0, 0).unwrap().is_none());
        assert_eq!(engine.current_program().generation, 1);

        // Shifted fleet behavior re-optimizes again.
        let mut probe = pgmp::Engine::new();
        probe.set_instrumentation(ProfileMode::EveryExpression);
        probe.run_str(IF_R, "ifr.scm").unwrap();
        probe.run_str(&drive(0, 10), "adaptive-driver.scm").unwrap();
        let shifted = ProfileInformation::from_dataset(&probe.counters().snapshot());
        assert!(engine.apply_fleet_epoch(&shifted, 0, 0).unwrap().is_some());
        assert_eq!(engine.current_program().generation, 2);
    }

    #[test]
    fn handle_counters_feed_the_same_registry() {
        let engine = AdaptiveEngine::new(IF_R, "ifr.scm", AdaptiveConfig::default()).unwrap();
        let handle = engine.handle();
        let p = SourceObject::new("direct.scm", 0, 1);
        handle.counters().add(p, 41);
        handle.counters().increment(p);
        assert_eq!(engine.handle().counters().count(p), 42);
    }
}
