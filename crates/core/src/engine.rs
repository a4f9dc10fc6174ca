//! The compilation engine: one profile-guided compilation session.

use crate::api::{install_pgmp_api, PgmpState};
use crate::error::Error;
use pgmp_bytecode::{compile_chunk, DerivedCounts, Vm};
use pgmp_eval::{install_primitives, resolve_profile_slots, Core, EvalError, Interp, Value};
use pgmp_expander::{install_expander_support, Expander, Expansion};
use pgmp_observe as observe;
use pgmp_profiler::{
    CounterImpl, Counters, ProfileInformation, ProfileMode, Provenance, SlotStore, StoredProfile,
};
use pgmp_reader::read_str;
use pgmp_syntax::Syntax;
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

/// How `annotate-expr` attaches a profile point to an expression — the
/// axis along which the paper's two implementations differ (§4.1–4.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AnnotateStrategy {
    /// Chez model: set the expression's source object directly. Pairs with
    /// [`ProfileMode::EveryExpression`].
    #[default]
    Direct,
    /// Racket `errortrace` model: wrap the expression in a generated
    /// thunk and annotate the *call*, because the profiler counts only
    /// function calls. Pairs with [`ProfileMode::CallsOnly`].
    WrapLambda,
}

/// A profile-guided compilation session.
///
/// Owns the macro expander (whose meta interpreter has the PGMP API
/// installed), the runtime interpreter, profile state, and counters. See
/// the crate-level quickstart.
pub struct Engine {
    expander: Expander,
    interp: Interp,
    state: Rc<RefCell<PgmpState>>,
    mode: ProfileMode,
    warnings: Vec<String>,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// Creates an engine with the Chez-style [`AnnotateStrategy::Direct`].
    pub fn new() -> Engine {
        Engine::with_strategy(AnnotateStrategy::Direct)
    }

    /// Creates an engine with the given annotation strategy.
    pub fn with_strategy(strategy: AnnotateStrategy) -> Engine {
        let state = Rc::new(RefCell::new(PgmpState::new(strategy)));
        let mut expander = Expander::new();
        install_pgmp_api(&mut expander.meta, state.clone());
        // A replay miss reruns a transformer for display only: the points
        // it generates must not shift those of later forms.
        let guarded = state.clone();
        expander.set_replay_guard(Box::new(move || {
            let saved = guarded.borrow().factory.clone();
            let state = guarded.clone();
            Box::new(move || state.borrow_mut().factory = saved)
        }));
        let mut interp = Interp::new();
        install_primitives(&mut interp);
        install_expander_support(&mut interp);
        install_pgmp_api(&mut interp, state.clone());
        Engine {
            expander,
            interp,
            state,
            mode: ProfileMode::Off,
            warnings: Vec::new(),
        }
    }

    /// Chooses the profiler model for subsequent runs. Off by default —
    /// "when the program is not instrumented … profile points need not
    /// introduce any overhead" (§3.1).
    pub fn set_instrumentation(&mut self, mode: ProfileMode) {
        self.mode = mode;
    }

    /// Selects the counter representation for this session's instrumented
    /// runs: dense slot-indexed (the default) or statistical sampling
    /// (beacon + sampler thread at [`pgmp_profiler::DEFAULT_SAMPLE_HZ`];
    /// use [`Engine::set_sampling`] to pick the rate). Replaces the session counters, so call it before
    /// the first instrumented run.
    pub fn set_counter_impl(&mut self, kind: CounterImpl) {
        self.state.borrow_mut().counters = Counters::with_store(SlotStore::new(kind));
    }

    /// Switches this session to sampling counters with a sampler thread
    /// ticking at `hz`. Subsequent instrumented runs cost one relaxed
    /// beacon store per profile point; weights are estimated from samples.
    pub fn set_sampling(&mut self, hz: u32) {
        self.state.borrow_mut().counters = Counters::with_store(SlotStore::sampling(hz));
    }

    /// Replaces the session counter registry wholesale. This is the
    /// embedding hook for registries the convenience setters cannot build
    /// — e.g. a manually driven sampling registry
    /// ([`SlotStore::sampling_manual`]) in deterministic tests.
    pub fn set_counters(&mut self, counters: Counters) {
        self.state.borrow_mut().counters = counters;
    }

    /// The counter representation behind this session's registry.
    pub fn counter_impl(&self) -> CounterImpl {
        self.state.borrow().counters.store().impl_kind()
    }

    /// Replaces the loaded profile information (what meta-programs see).
    pub fn set_profile(&mut self, info: ProfileInformation) {
        self.state.borrow_mut().profile = info;
    }

    /// Merges `info` into the loaded profile (dataset averaging, §3.2).
    pub fn merge_profile(&mut self, info: &ProfileInformation) {
        let mut st = self.state.borrow_mut();
        st.profile = st.profile.merge(info);
    }

    /// The currently loaded profile information.
    pub fn profile(&self) -> ProfileInformation {
        self.state.borrow().profile.clone()
    }

    /// Live counters of this session's instrumented runs.
    pub fn counters(&self) -> Counters {
        self.state.borrow().counters.clone()
    }

    /// Profile weights computed from this session's counters — what
    /// `store-profile` would write (§4.1).
    pub fn current_weights(&self) -> ProfileInformation {
        ProfileInformation::from_dataset(&self.state.borrow().counters.snapshot())
    }

    /// Writes this session's weights to `path` (Figure 4 `store-profile`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Profile`] on I/O failure.
    pub fn store_profile(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        self.current_weights().store_file(path)?;
        Ok(())
    }

    /// Loads profile information from `path`, replacing the current
    /// profile (Figure 4 `load-profile`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Profile`] on I/O or parse failure.
    pub fn load_profile(&mut self, path: impl AsRef<Path>) -> Result<(), Error> {
        let info = ProfileInformation::load_file(path)?;
        self.set_profile(info);
        Ok(())
    }

    /// Writes this session's weights to `path` in profile format **v2**,
    /// carrying the dense slot table alongside the weights so a future
    /// process can preload its counter registry and skip re-interning
    /// (see `docs/PROFILE_FORMAT.md`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Profile`] on I/O failure.
    pub fn store_profile_v2(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        let (slots, provenance) = {
            let st = self.state.borrow();
            let provenance = match st.counters.store().sample_hz() {
                Some(hz) => Provenance::Sampled { hz },
                None => Provenance::Exact,
            };
            (Some(st.counters.slot_table()), provenance)
        };
        StoredProfile::v2(self.current_weights(), slots)
            .with_provenance(provenance)
            .store_file(path)?;
        Ok(())
    }

    /// Loads a profile of either format version, replacing the current
    /// profile — and, when the file is v2 with a slot table and this
    /// session uses dense counters, replaces the counter registry with one
    /// preloaded from the stored table: every persisted point keeps its
    /// slot id and instrumentation interns nothing on the warm path.
    ///
    /// Returns the file's format version.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Profile`] on I/O or parse failure.
    pub fn load_profile_with_slots(&mut self, path: impl AsRef<Path>) -> Result<u32, Error> {
        let stored = StoredProfile::load_file(path)?;
        if let Some(table) = stored.slots {
            let mut st = self.state.borrow_mut();
            let store = st.counters.store();
            // Preserve the session's sampler rate; only a sampling registry
            // with a live sampler thread is replaced (a manually driven one
            // keeps its deterministic test harness).
            let fresh = match store.sample_hz() {
                None => Some(SlotStore::default()),
                Some(hz) if store.has_sampler_thread() => Some(SlotStore::sampling(hz)),
                Some(_) => None,
            };
            if let Some(fresh) = fresh {
                st.counters = Counters::with_slot_table(table, fresh);
            }
        }
        self.set_profile(stored.info);
        Ok(stored.version)
    }

    /// Resets the deterministic profile-point generator, replaying the
    /// suffix sequence from the start, so every compile of a program sees
    /// the same generated points (§4.1's determinism requirement).
    pub(crate) fn reset_profile_points(&mut self) {
        self.state.borrow_mut().factory.reset();
    }

    /// Snapshots the profile-point generator's allocation state. Combined
    /// with [`Engine::restore_factory`], the incremental cache replays
    /// point generation exactly: a reused form fast-forwards the factory
    /// to the state its original expansion left behind.
    pub fn factory_snapshot(&self) -> pgmp_syntax::SourceFactory {
        self.state.borrow().factory.clone()
    }

    /// Restores a previously snapshotted factory state.
    pub fn restore_factory(&mut self, factory: pgmp_syntax::SourceFactory) {
        self.state.borrow_mut().factory = factory;
    }

    /// Starts recording profile reads (the read-set) made by subsequently
    /// expanded forms. See [`ProfileReadLog`](crate::api::ProfileReadLog).
    pub fn begin_profile_read_log(&mut self) {
        self.state.borrow_mut().read_log = Some(crate::api::ProfileReadLog::default());
    }

    /// Stops recording and returns the accumulated read-set (empty if
    /// recording was never started).
    ///
    /// The log is deduplicated: a meta-program that queries the same point
    /// many times (e.g. sorting clauses compares weights O(k log k) times)
    /// contributes one entry per point. The profile is fixed for the
    /// duration of an expansion, so repeats answer identically and add
    /// nothing to the read-set.
    pub fn take_profile_read_log(&mut self) -> crate::api::ProfileReadLog {
        let mut log = self.state.borrow_mut().read_log.take().unwrap_or_default();
        log.points.sort_by_key(|a| a.0);
        log.points.dedup_by(|a, b| a.0 == b.0);
        log
    }

    /// Access to the runtime interpreter (e.g. to inspect globals).
    pub fn interp(&self) -> &Interp {
        &self.interp
    }

    /// Mutable access to the runtime interpreter.
    pub fn interp_mut(&mut self) -> &mut Interp {
        &mut self.interp
    }

    /// Access to the expander (e.g. to register extra macros).
    pub fn expander_mut(&mut self) -> &mut Expander {
        &mut self.expander
    }

    /// Compile-time warnings accumulated so far (e.g. the §6.3
    /// data-structure recommendations), drained.
    pub fn take_warnings(&mut self) -> Vec<String> {
        let mut out = std::mem::take(&mut self.warnings);
        out.extend(self.expander.take_warnings());
        out
    }

    /// Output printed by the program (via `display`/`printf`), drained.
    pub fn take_output(&mut self) -> String {
        self.interp.take_output()
    }

    /// Expands and evaluates `src`, returning the last form's value.
    ///
    /// Instrumentation (per [`Engine::set_instrumentation`]) counts into
    /// this session's counters.
    ///
    /// # Errors
    ///
    /// Returns the first read, expand, or eval error.
    pub fn run_str(&mut self, src: &str, file: &str) -> Result<Value, Error> {
        let forms = read_str(src, file)?;
        let program = self.expander.expand_program(&forms)?;
        self.warnings.extend(self.expander.take_warnings());
        self.run_cores(&program, file)
    }

    /// Evaluates already expanded `program` (e.g. the cores of
    /// [`Engine::compile_str`]), returning the last form's value.
    /// Instrumentation is as in [`Engine::run_str`]; `file` names the run
    /// in traces.
    ///
    /// Uninstrumented runs, and runs counting into sampling counters, are
    /// tree-walked. Instrumented runs counting into dense counters execute
    /// on the bytecode VM with block counters, and the session counters
    /// receive the counts derived from them
    /// ([`pgmp_bytecode::derive_counts`]): the same counts the tree walker
    /// would have collected, at the cost of one counter per basic block.
    /// Closures that natives call back (`map`, `fold-left`, …) are
    /// tree-walked and counted per expression.
    ///
    /// # Errors
    ///
    /// Returns the first eval error.
    pub fn run_cores(&mut self, program: &[Rc<Core>], file: &str) -> Result<Value, Error> {
        let on_vm = self.mode.is_on() && self.counter_impl() == CounterImpl::Dense;
        if self.mode.is_on() {
            let counters = self.state.borrow().counters.clone();
            // Resolve every profile point to its slot now, at
            // instrumentation time, so the run itself never interns — each
            // hit is a cached-slot vector add (dense) or beacon store
            // (sampling).
            let t = observe::timer();
            for form in program {
                resolve_profile_slots(form, &counters);
            }
            if t.is_some() {
                let mut resolved: u32 = 0;
                for form in program {
                    form.walk(&mut |n| resolved += u32::from(n.src.is_some()));
                }
                observe::finish(t, |duration_us| observe::EventKind::SlotResolve {
                    resolved,
                    duration_us,
                });
            }
            self.interp.set_profiling(self.mode, counters);
        } else {
            self.interp.clear_profiling();
        }
        let t = observe::timer();
        let out = if on_vm {
            self.run_on_vm(program)
        } else {
            program
                .iter()
                .try_fold(Value::Unspecified, |_, form| self.interp.eval(form, &None))
        };
        // The run is over (normally or not): park the sampling beacon so
        // between-run samples attribute nothing, and publish sampler totals
        // into the metrics registry at this boundary.
        if let Some(counters) = &self.interp.counters {
            counters.store().park();
            if let Some(shared) = counters.store().sampling_shared() {
                shared.publish_metrics();
            }
        }
        observe::finish(t, |duration_us| observe::EventKind::Run {
            file: file.to_string(),
            mode: match self.mode {
                ProfileMode::Off => "none",
                ProfileMode::EveryExpression => "every-expression",
                ProfileMode::CallsOnly => "calls-only",
            }
            .to_string(),
            duration_us,
        });
        Ok(out?)
    }

    /// Runs `program` instrumented on a VM of its own: each form compiled
    /// and run in turn, then the block counts folded into the session
    /// counters. While it runs, the block counts are pending in the
    /// session state, where natives that read the counters (`profile-count`,
    /// `store-profile`) fold them in first. The VM, and with it every
    /// block counter of this run, is dropped when the run ends.
    fn run_on_vm(&mut self, program: &[Rc<Core>]) -> Result<Value, EvalError> {
        let counts = DerivedCounts::new();
        let mut vm = Vm::new();
        vm.set_derived_counts(counts.clone());
        self.state.borrow_mut().pending = Some((counts.clone(), self.mode));
        let mut out = Ok(Value::Unspecified);
        for form in program {
            let chunk = compile_chunk(form);
            counts.track(chunk.clone());
            out = vm.run_chunk(&mut self.interp, &chunk);
            if out.is_err() {
                break;
            }
        }
        let mut state = self.state.borrow_mut();
        state.flush_pending();
        state.pending = None;
        out
    }

    /// Reads and runs the program in the file at `path`, using the file
    /// name for source objects.
    ///
    /// # Errors
    ///
    /// I/O failures are reported as [`Error::Profile`]-style read errors;
    /// compilation and evaluation errors as in [`Engine::run_str`].
    pub fn run_file(&mut self, path: impl AsRef<Path>) -> Result<Value, Error> {
        let path = path.as_ref();
        let src = std::fs::read_to_string(path).map_err(|e| {
            Error::Read(pgmp_reader::ReadError {
                message: format!("cannot read file: {e}"),
                file: path.display().to_string(),
                at: 0,
            })
        })?;
        self.run_str(&src, &path.display().to_string())
    }

    /// Loads library source (same as [`Engine::run_str`]; reads more
    /// naturally at call sites that load prelude files).
    ///
    /// # Errors
    ///
    /// As [`Engine::run_str`].
    pub fn load_library(&mut self, src: &str, file: &str) -> Result<(), Error> {
        self.run_str(src, file)?;
        Ok(())
    }

    /// Compiles `src` with one expansion per form: resets the profile-point
    /// generator (so every compile of a program generates the same points),
    /// then expands each form once, returning its [`Core`] forms together
    /// with the printed expansion replayed from that same pass (see
    /// [`Expander::expand_displayed`]). Evaluate the cores with
    /// [`Engine::run_cores`].
    ///
    /// # Errors
    ///
    /// Returns the first read or expand error.
    pub fn compile_str(&mut self, src: &str, file: &str) -> Result<Expansion, Error> {
        let forms = read_str(src, file)?;
        self.reset_profile_points();
        let out = self.expander.expand_displayed(&forms)?;
        self.warnings.extend(self.expander.take_warnings());
        Ok(out)
    }

    /// Expands `src` source-to-source: all macros eliminated, core forms
    /// kept. This is how examples and tests inspect what a profile-guided
    /// meta-program generated; it runs every transformer itself, so it is
    /// also the independent reference for [`Engine::compile_str`]'s printed
    /// expansion.
    ///
    /// # Errors
    ///
    /// Returns the first read or expand error.
    pub fn expand_str(&mut self, src: &str, file: &str) -> Result<Vec<Rc<Syntax>>, Error> {
        let forms = read_str(src, file)?;
        let out = self.expander.expand_to_syntax(&forms)?;
        self.warnings.extend(self.expander.take_warnings());
        Ok(out)
    }

    /// Expands `src` to core forms without evaluating (used by the
    /// three-pass workflow to feed the bytecode compiler).
    ///
    /// # Errors
    ///
    /// Returns the first read or expand error.
    pub fn expand_to_core(
        &mut self,
        src: &str,
        file: &str,
    ) -> Result<Vec<Rc<pgmp_eval::Core>>, Error> {
        let forms = read_str(src, file)?;
        let out = self.expander.expand_program(&forms)?;
        self.warnings.extend(self.expander.take_warnings());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_simple_program() {
        let mut e = Engine::new();
        let v = e.run_str("(+ 1 2)", "t.scm").unwrap();
        assert_eq!(v.to_string(), "3");
    }

    #[test]
    fn instrumented_run_counts_expressions() {
        let mut e = Engine::new();
        e.set_instrumentation(ProfileMode::EveryExpression);
        e.run_str("(define (f) 'x) (f) (f) (f)", "t.scm").unwrap();
        let weights = e.current_weights();
        assert!(!weights.is_empty());
    }

    #[test]
    fn repeated_instrumented_runs_add_their_counts_once() {
        // Each run folds its own block counts into the session counters,
        // including calls into code an earlier run defined.
        let body = pgmp_syntax::SourceObject::new("r.scm", 14, 21); // (* n n)
        let mut e = Engine::new();
        e.set_instrumentation(ProfileMode::EveryExpression);
        e.run_str("(define (f n) (* n n))", "r.scm").unwrap();
        assert_eq!(e.counters().count(body), 0);
        e.run_str("(f 2)", "r2.scm").unwrap();
        e.run_str("(f 3)", "r3.scm").unwrap();
        assert_eq!(e.counters().count(body), 2);
    }

    #[test]
    fn uninstrumented_run_counts_nothing() {
        let mut e = Engine::new();
        e.run_str("(define (f) 'x) (f)", "t.scm").unwrap();
        assert!(e.counters().is_empty());
    }

    #[test]
    fn profile_guided_expansion_sees_weights() {
        // A macro that embeds the queried weight as a constant.
        let program = "(define-syntax (weight-of stx)
                          (syntax-case stx ()
                            [(_ e) #`#,(datum->syntax stx (profile-query #'e))]))
                        (weight-of (hot-spot))";
        let mut e1 = Engine::new();
        e1.set_instrumentation(ProfileMode::EveryExpression);
        // Run something at the same source location to create weights: the
        // location of (hot-spot) inside `program` text.
        // Simpler: run the program uninstrumented first to find it returns 0.
        let v = e1.run_str(program, "w.scm");
        // (hot-spot) is unbound at runtime but weight-of never evaluates it.
        assert_eq!(v.unwrap().to_string(), "0.0");
    }

    #[test]
    fn output_and_warning_capture() {
        let mut e = Engine::new();
        e.run_str("(display \"hi\") (newline)", "t.scm").unwrap();
        assert_eq!(e.take_output(), "hi\n");
        e.run_str(
            "(define-syntax (w stx)
               (syntax-case stx ()
                 [(_ ) (begin (warn \"meta warning ~a\" 1) #''ok)]))
             (w)",
            "t.scm",
        )
        .unwrap();
        assert_eq!(e.take_warnings(), vec!["meta warning 1"]);
    }

    #[test]
    fn profile_round_trip_through_engine() {
        let dir = std::env::temp_dir().join("pgmp-engine-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.pgmp");
        let mut e1 = Engine::new();
        e1.set_instrumentation(ProfileMode::EveryExpression);
        e1.run_str("(define (f n) (* n n)) (f 2) (f 3)", "p.scm")
            .unwrap();
        e1.store_profile(&path).unwrap();
        let mut e2 = Engine::new();
        e2.load_profile(&path).unwrap();
        assert!(!e2.profile().is_empty());
    }

    #[test]
    fn read_errors_surface() {
        let mut e = Engine::new();
        assert!(matches!(
            e.run_str("(unbalanced", "t.scm"),
            Err(Error::Read(_))
        ));
        assert!(matches!(e.run_str("(if)", "t.scm"), Err(Error::Expand(_))));
        assert!(matches!(e.run_str("(car 1)", "t.scm"), Err(Error::Eval(_))));
    }

    #[test]
    fn calls_only_mode_with_wrap_lambda_counts_annotated_exprs() {
        // The Racket pairing: annotate-expr wraps in a thunk call;
        // CallsOnly counts that call.
        let program = "
          (define-syntax (annotated stx)
            (syntax-case stx ()
              [(_ e)
               (annotate-expr #'e (make-profile-point))]))
          (define (f) (annotated (+ 1 2)))
          (f) (f) (f)";
        let mut e = Engine::with_strategy(AnnotateStrategy::WrapLambda);
        e.set_instrumentation(ProfileMode::CallsOnly);
        let v = e.run_str(program, "cw.scm").unwrap();
        assert_eq!(v.to_string(), "3");
        // Some generated profile point got 3 counts.
        let counters = e.counters();
        let weights = e.current_weights();
        let generated_hot = weights
            .iter()
            .any(|(p, _)| p.is_generated() && counters.count(p) == 3);
        assert!(generated_hot, "generated point counted 3 times");
    }

    #[test]
    fn direct_strategy_with_every_expression_counts_annotated_exprs() {
        let program = "
          (define-syntax (annotated stx)
            (syntax-case stx ()
              [(_ e)
               (annotate-expr #'e (make-profile-point))]))
          (define (f) (annotated (+ 1 2)))
          (f) (f)";
        let mut e = Engine::new();
        e.set_instrumentation(ProfileMode::EveryExpression);
        e.run_str(program, "cd.scm").unwrap();
        let counters = e.counters();
        let generated = e
            .current_weights()
            .iter()
            .any(|(p, _)| p.is_generated() && counters.count(p) == 2);
        assert!(generated);
    }

    #[test]
    fn sampling_run_estimates_weights_deterministically() {
        // Manual sampling: a native takes the samples, so the test is
        // exact — every call to (sample!) tallies whatever profile point
        // the interpreter entered last.
        let mut e = Engine::new();
        let counters = Counters::with_store(SlotStore::sampling_manual());
        let shared = counters.store().sampling_shared().unwrap();
        e.set_counters(counters);
        assert_eq!(e.counter_impl(), CounterImpl::Sampling);
        e.set_instrumentation(ProfileMode::EveryExpression);
        let s = shared.clone();
        e.interp_mut()
            .define_native("sample!", 0, Some(0), move |_, _| {
                s.sample_now();
                Ok(Value::Unspecified)
            });
        e.run_str("(define (f) (sample!)) (f) (f) (f)", "s.scm")
            .unwrap();
        let (ticks, hits, missed) = shared.stats();
        assert_eq!((ticks, hits, missed), (3, 3, 0));
        let weights = e.current_weights();
        assert!(!weights.is_empty(), "samples produced estimated weights");
        assert!(weights.iter().any(|(_, w)| w == 1.0));
    }

    #[test]
    fn blocking_native_parks_the_beacon() {
        // Satellite: a native that blocks parks the beacon, so samples
        // taken while it sleeps attribute nothing instead of inflating the
        // profile point that happened to be entered last.
        let mut e = Engine::new();
        let counters = Counters::with_store(SlotStore::sampling_manual());
        let shared = counters.store().sampling_shared().unwrap();
        e.set_counters(counters);
        e.set_instrumentation(ProfileMode::EveryExpression);
        let s = shared.clone();
        e.interp_mut()
            .define_native("sleep-blocked", 0, Some(0), move |interp, _| {
                interp.park_profiling();
                // Stand-in for the blocked wait: every sample taken while
                // parked must miss.
                for _ in 0..5 {
                    s.sample_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok(Value::Unspecified)
            });
        e.run_str("(sleep-blocked)", "b.scm").unwrap();
        let (ticks, hits, missed) = shared.stats();
        assert_eq!(ticks, 5);
        assert_eq!(hits, 0, "parked beacon must not attribute samples");
        assert_eq!(missed, 5);
        // The run has exited, so the beacon stays parked afterwards too.
        shared.sample_now();
        assert_eq!(shared.stats().2, 6, "post-run samples miss");
        assert_eq!(
            e.current_weights().iter().count(),
            0,
            "no point received an estimated weight"
        );
    }

    #[test]
    fn sampling_profile_v2_records_provenance() {
        let dir = std::env::temp_dir().join("pgmp-engine-sampling-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sampled.pgmp");
        let mut e = Engine::new();
        e.set_sampling(250);
        assert_eq!(e.counter_impl(), CounterImpl::Sampling);
        e.set_instrumentation(ProfileMode::EveryExpression);
        e.run_str("(define (f) 'x) (f)", "p.scm").unwrap();
        e.store_profile_v2(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("(provenance sampled 250)"),
            "v2 file records sampling provenance: {text}"
        );
        let stored = StoredProfile::load_file(&path).unwrap();
        assert_eq!(stored.provenance, Provenance::Sampled { hz: 250 });
        // An exact session stays implicit-exact on disk.
        let exact_path = dir.join("exact.pgmp");
        let mut ex = Engine::new();
        ex.set_instrumentation(ProfileMode::EveryExpression);
        ex.run_str("(define (f) 'x) (f)", "p.scm").unwrap();
        ex.store_profile_v2(&exact_path).unwrap();
        let exact_text = std::fs::read_to_string(&exact_path).unwrap();
        assert!(!exact_text.contains("provenance"));
        let exact = StoredProfile::load_file(&exact_path).unwrap();
        assert_eq!(exact.provenance, Provenance::Exact);
    }

    #[test]
    fn sampling_session_preloads_v2_slot_table() {
        let dir = std::env::temp_dir().join("pgmp-engine-sampling-preload");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.pgmp");
        let mut writer = Engine::new();
        writer.set_instrumentation(ProfileMode::EveryExpression);
        writer
            .run_str("(define (f n) (* n n)) (f 2) (f 3)", "w.scm")
            .unwrap();
        writer.store_profile_v2(&path).unwrap();

        let mut warm = Engine::new();
        warm.set_sampling(500);
        warm.load_profile_with_slots(&path).unwrap();
        assert_eq!(warm.counter_impl(), CounterImpl::Sampling);
        assert_eq!(
            warm.counters().store().sample_hz(),
            Some(500),
            "rate survives preload"
        );
        assert!(
            !warm.counters().slot_table().is_empty(),
            "slot table preloaded into the sampling registry"
        );
    }

    #[test]
    fn both_strategies_agree_on_weights() {
        // §4.2: wrapping "does not change the counters used to calculate
        // profile weights".
        let program = "
          (define-syntax (annotated stx)
            (syntax-case stx ()
              [(_ e) (annotate-expr #'e (make-profile-point))]))
          (define (f n) (if (< n 5) (annotated 'low) (annotated 'high)))
          (let loop ([i 0])
            (unless (= i 10) (f i) (loop (add1 i))))";
        let mut chez = Engine::with_strategy(AnnotateStrategy::Direct);
        chez.set_instrumentation(ProfileMode::EveryExpression);
        chez.run_str(program, "agree.scm").unwrap();
        let mut racket = Engine::with_strategy(AnnotateStrategy::WrapLambda);
        racket.set_instrumentation(ProfileMode::CallsOnly);
        racket.run_str(program, "agree.scm").unwrap();
        // §4.2's claim is about the *counters*: wrapping changes run-time
        // cost, not what gets counted. The generated points must have
        // identical counts under both strategies (weights are normalized
        // by each profiler's own maximum, so they differ across profilers).
        let chez_counters = chez.counters();
        let racket_counters = racket.counters();
        let mut saw_generated = false;
        for (p, _) in chez
            .current_weights()
            .iter()
            .filter(|(p, _)| p.is_generated())
        {
            saw_generated = true;
            assert_eq!(
                chez_counters.count(p),
                racket_counters.count(p),
                "count of {p} differs between strategies"
            );
            assert_eq!(chez_counters.count(p), 5);
        }
        assert!(saw_generated);
    }
}
