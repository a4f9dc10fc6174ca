//! Incremental recompilation: re-optimization in O(changed forms).
//!
//! Both the §4.3 three-pass workflow and the adaptive engine re-optimize by
//! re-reading, re-expanding, and re-compiling the *entire* program whenever
//! profile data changes — even though only the forms that actually consult
//! `profile-query` can expand differently. [`IncrementalEngine`] makes
//! re-optimization proportional to the set of profile-dependent forms:
//!
//! 1. The program is parsed **once**; each top-level form gets a stable
//!    fingerprint ([`pgmp_expander::form_hash`]).
//! 2. During a form's expansion, the API entry points record the form's
//!    *read-set* ([`ProfileReadLog`]): every `(point, weight)` answered by
//!    `profile-query`, plus availability / whole-profile / volatile flags.
//! 3. On the next [`IncrementalEngine::compile`], a form is re-expanded
//!    only if one of its recorded reads would now answer differently
//!    (beyond [`IncrementalConfig::epsilon`]); otherwise its cached
//!    expansion, core forms, and compiled chunks are reused as-is.
//! 4. Invalidation is driven by an **inverted point→forms index**: the new
//!    weights are diffed against the last successful compile's, and only
//!    the readers of drifted points (plus forms whose reads cannot be
//!    diffed — volatile, whole-profile, availability on a flip) get the
//!    per-point reuse check. A stable profile revalidates the whole
//!    program in O(changed points), not O(forms × reads).
//!
//! # Why per-form reuse is sound
//!
//! - **One expansion per form.** A re-expanded form goes through
//!   [`Expander::expand_displayed`](pgmp_expander::Expander::expand_displayed):
//!   its transformers run once, and the printed expansion is replayed from
//!   the pass that produced its core forms.
//! - **Profile-point determinism.** `make-profile-point` is a deterministic
//!   function of the factory's allocation state (§4.1). Every compile
//!   starts from a reset factory. Each cache entry snapshots the factory
//!   state before and after the form's expansion; reuse requires the
//!   current state to equal the recorded pre-state and fast-forwards it to
//!   the recorded post-state, so a mixed reused / re-expanded compile
//!   allocates exactly the point sequence a from-scratch compile would.
//! - **Hygiene is invisible in outputs.** Gensym'd binders introduced by
//!   the expander become slot indices in core forms, and marks are stripped
//!   by `syntax->datum`; neither appears in the printed expansion or in
//!   the compiled chunks' canonical CFGs, so reused output is textually
//!   identical to what re-expansion under equal weights would print.
//! - **Compile-time state.** A re-expanded form that changes meta state
//!   (`define-syntax`, `define-for-syntax`, `begin-for-syntax`, or a
//!   transformer writing a meta global, like the §6.2 `class` registry)
//!   conservatively invalidates every later form in the same compile
//!   (`Expander::take_meta_dirty`), and replays on a warm start. The cache
//!   assumes transformers are otherwise *functions* of their input syntax
//!   and the profile — macros that mutate meta state per use in other ways
//!   (e.g. a meta hashtable) are outside the cache's soundness and should
//!   be compiled from scratch.

use crate::api::ProfileReadLog;
use crate::engine::Engine;
use crate::error::Error;
use crate::persist::{self, SaveStats, WarmStart};
use pgmp_bytecode::{compile_chunk, Chunk};
use pgmp_eval::{core_to_datum_with, Core, StringTable};
use pgmp_expander::form_hash;
use pgmp_observe as observe;
use pgmp_profiler::rebase::{lcs_align, span_map_lockstep, struct_hash};
use pgmp_profiler::{write_atomic, ProfileInformation, ProfileStoreError};
use pgmp_reader::read_str;
use pgmp_syntax::{Datum, SourceFactory, SourceObject, Syntax};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::rc::Rc;

/// Tuning knobs for the incremental cache.
#[derive(Clone, Copy, Debug)]
pub struct IncrementalConfig {
    /// Maximum allowed drift, per consulted profile point, between the
    /// weight a cached expansion saw and the current weight before the
    /// form must be re-expanded. `0.0` (the default) re-expands on any
    /// change; larger values trade re-optimization fidelity for fewer
    /// recompiles.
    pub epsilon: f64,
}

impl Default for IncrementalConfig {
    fn default() -> IncrementalConfig {
        IncrementalConfig { epsilon: 0.0 }
    }
}

/// How much work one [`IncrementalEngine::compile`] call avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Top-level forms in the program.
    pub total_forms: usize,
    /// Forms whose cached expansion was reused untouched.
    pub reused: usize,
    /// Forms that were (re-)expanded and recompiled.
    pub reexpanded: usize,
    /// Transformer applications the re-expanded forms made. Each form is
    /// expanded once per compile, so this counts each macro use once.
    pub transformer_calls: usize,
    /// Macro uses the printed-expansion replay reached that the Core pass
    /// had not expanded, so their transformers ran again (expected 0; see
    /// [`pgmp_expander::Expansion::replay_misses`]).
    pub replay_misses: usize,
}

impl ReuseStats {
    /// True iff nothing had to be re-expanded.
    pub fn all_reused(&self) -> bool {
        self.reexpanded == 0 && self.total_forms == self.reused
    }
}

/// The output of one compile: everything downstream consumers need, with
/// per-form provenance erased (reused and fresh forms are indistinguishable
/// by construction).
#[derive(Debug)]
pub struct CompiledUnit {
    /// Printed source-to-source expansion, one string per emitted form.
    pub expansion: Vec<String>,
    /// Expanded core forms, in program order.
    pub cores: Vec<Rc<Core>>,
    /// Compiled top-level chunks, one per core form. Reused forms keep
    /// their original chunk ids, so block counters collected against an
    /// earlier compile remain valid for them.
    pub chunks: Vec<Chunk>,
    /// Reuse accounting for this compile.
    pub stats: ReuseStats,
}

/// One top-level form's cache entry.
struct FormEntry {
    reads: ProfileReadLog,
    factory_pre: SourceFactory,
    factory_post: SourceFactory,
    /// Printed expansion, core forms, chunks — everything a compile emits
    /// for this form, reusable verbatim.
    expansion: Vec<String>,
    cores: Vec<Rc<Core>>,
    chunks: Vec<Chunk>,
    /// Full profile at expansion time — kept only when the form read the
    /// whole profile (`current-profile-information`).
    profile_snapshot: Option<ProfileInformation>,
    /// True when this form's expansion changed compile-time state
    /// (`define-syntax` and friends). Such forms must be *replayed* through
    /// the expander on a warm start — their registered transformers cannot
    /// be serialized.
    meta: bool,
}

/// A persistent compilation session with a per-form recompilation cache.
///
/// # Example
///
/// ```
/// use pgmp::incremental::{IncrementalConfig, IncrementalEngine};
/// use pgmp_profiler::ProfileInformation;
///
/// let src = "(define (f x) (* x x)) (f 4)";
/// let mut incr = IncrementalEngine::new(src, "inc.scm", IncrementalConfig::default())?;
/// let first = incr.compile(&ProfileInformation::empty())?;
/// assert_eq!(first.stats.reexpanded, 2);
/// // Same weights: everything is served from cache.
/// let second = incr.compile(&ProfileInformation::empty())?;
/// assert!(second.stats.all_reused());
/// assert_eq!(first.expansion, second.expansion);
/// # Ok::<(), pgmp::Error>(())
/// ```
pub struct IncrementalEngine {
    engine: Engine,
    forms: Vec<Rc<Syntax>>,
    hashes: Vec<u64>,
    entries: Vec<Option<FormEntry>>,
    config: IncrementalConfig,
    /// Inverted index: profile point → forms whose cached expansion read
    /// it. On a new profile, invalidation starts from the *drifted points*
    /// and walks this index, instead of scanning every form's read-set.
    point_index: HashMap<SourceObject, Vec<usize>>,
    /// The weights of the last *successful* compile. Every cached entry is
    /// within epsilon of these (reuse was checked, or the form re-expanded
    /// under them), so only points whose weight differs from `last_weights`
    /// can invalidate anything. `None` after an error or before the first
    /// compile — then every form is a candidate.
    last_weights: Option<ProfileInformation>,
}

impl IncrementalEngine {
    /// Parses `src` once and prepares an empty cache over a fresh
    /// [`Engine`].
    ///
    /// # Errors
    ///
    /// Returns a read error if `src` does not parse.
    pub fn new(
        src: &str,
        file: &str,
        config: IncrementalConfig,
    ) -> Result<IncrementalEngine, Error> {
        IncrementalEngine::with_engine(Engine::new(), src, file, config)
    }

    /// As [`IncrementalEngine::new`], but over a caller-prepared engine
    /// (e.g. with case-study libraries already installed).
    ///
    /// # Errors
    ///
    /// Returns a read error if `src` does not parse.
    pub fn with_engine(
        engine: Engine,
        src: &str,
        file: &str,
        config: IncrementalConfig,
    ) -> Result<IncrementalEngine, Error> {
        let forms = read_str(src, file)?;
        let hashes = forms.iter().map(|f| form_hash(f)).collect();
        let entries = forms.iter().map(|_| None).collect();
        Ok(IncrementalEngine {
            engine,
            forms,
            hashes,
            entries,
            config,
            point_index: HashMap::new(),
            last_weights: None,
        })
    }

    /// The underlying engine (for profile access, running compiled code,
    /// or installing libraries before the first compile).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// The cached chunks, in program order: after a successful
    /// [`compile`](IncrementalEngine::compile), that compile's chunks.
    pub fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.entries.iter().flatten().flat_map(|e| &e.chunks)
    }

    /// Replaces the program text, invalidating exactly the forms whose
    /// *structure* changed (forms downstream of a changed `define-syntax`
    /// are caught at compile time via the meta-dirty flag).
    ///
    /// Old and new toplevel forms are aligned by LCS over
    /// position-independent structural fingerprints
    /// ([`pgmp_profiler::rebase::struct_hash`]), so inserting or deleting
    /// a toplevel form no longer dirties every later form: a form whose
    /// text merely *moved* carries its cache entry to the new position,
    /// with the entry's recorded profile reads re-keyed to the shifted
    /// spans (matching what a rebased profile — `pgmp-profile rebase` —
    /// keys its weights on). Factory snapshots need no re-keying: point
    /// generation is keyed by file symbol, which an offset shift does not
    /// change. Carried artifacts (cores, chunks) still instrument the
    /// *old* spans until the form next re-expands — see `docs/REBASE.md`
    /// for this limitation.
    ///
    /// # Errors
    ///
    /// Returns a read error if `src` does not parse; the cache is left
    /// unchanged in that case.
    pub fn set_source(&mut self, src: &str, file: &str) -> Result<(), Error> {
        let forms = read_str(src, file)?;
        let hashes: Vec<u64> = forms.iter().map(|f| form_hash(f)).collect();

        let old_struct: Vec<u64> = self.forms.iter().map(|f| struct_hash(f)).collect();
        let new_struct: Vec<u64> = forms.iter().map(|f| struct_hash(f)).collect();
        let pairs = lcs_align(&old_struct, &new_struct);

        let mut entries: Vec<Option<FormEntry>> = (0..forms.len()).map(|_| None).collect();
        // old span -> new span, unioned over every carried-but-shifted
        // form; spans within one file are unique, so a flat map suffices.
        let mut spans: HashMap<(u32, u32), (u32, u32)> = HashMap::new();
        for (i, j) in pairs {
            let Some(entry) = self.entries[i].take() else {
                continue;
            };
            if self.hashes[i] != hashes[j] {
                // Structurally identical but moved: every span inside the
                // form shifted in lockstep.
                span_map_lockstep(&self.forms[i], &forms[j], &mut spans);
            }
            entries[j] = Some(entry);
        }
        if !spans.is_empty() {
            // Re-key recorded reads through the alignment — including
            // cross-form reads and generated `file%pgmpN` points, whose
            // spans are their base form's (the file symbol keeps the
            // suffix and does not move).
            for entry in entries.iter_mut().flatten() {
                for (p, _) in entry.reads.points.iter_mut() {
                    if let Some((nb, ne)) = spans.get(&(p.bfp, p.efp)) {
                        p.bfp = *nb;
                        p.efp = *ne;
                    }
                }
            }
        }
        self.forms = forms;
        self.hashes = hashes;
        self.entries = entries;
        self.rebuild_index();
        Ok(())
    }

    /// Rebuilds the inverted point→forms index from the cache entries
    /// (used after wholesale entry shuffles like [`set_source`]; within a
    /// compile the index is maintained incrementally per re-expanded form).
    ///
    /// [`set_source`]: IncrementalEngine::set_source
    fn rebuild_index(&mut self) {
        self.point_index.clear();
        for i in 0..self.entries.len() {
            self.index_entry(i);
        }
    }

    /// Removes form `i`'s read points from the inverted index.
    fn unindex_entry(&mut self, i: usize) {
        if let Some(entry) = &self.entries[i] {
            for (p, _) in &entry.reads.points {
                if let Some(forms) = self.point_index.get_mut(p) {
                    forms.retain(|&j| j != i);
                }
            }
        }
    }

    /// Adds form `i`'s read points to the inverted index.
    fn index_entry(&mut self, i: usize) {
        if let Some(entry) = &self.entries[i] {
            for (p, _) in &entry.reads.points {
                let forms = self.point_index.entry(*p).or_default();
                if forms.last() != Some(&i) {
                    forms.push(i);
                }
            }
        }
    }

    /// Marks the forms that could possibly fail reuse under `weights`:
    /// forms without a cache entry, forms whose reads cannot be diffed
    /// (volatile, whole-profile, availability on an availability flip), and
    /// — via the inverted index — readers of any point whose weight moved
    /// since the last successful compile. Everything else is provably
    /// within epsilon and skips the per-point scan entirely.
    fn reuse_candidates(&self, weights: &ProfileInformation) -> Vec<bool> {
        let last = match &self.last_weights {
            Some(last) => last,
            None => return vec![true; self.entries.len()],
        };
        let availability_flipped = weights.is_empty() != last.is_empty();
        let mut out: Vec<bool> = self
            .entries
            .iter()
            .map(|entry| match entry {
                None => true,
                Some(e) => {
                    e.reads.volatile_reads
                        || e.reads.whole_profile
                        || (availability_flipped && e.reads.availability.is_some())
                }
            })
            .collect();
        let mut seen = HashSet::new();
        let mark = |p: SourceObject, out: &mut Vec<bool>| {
            if let Some(forms) = self.point_index.get(&p) {
                for &i in forms {
                    out[i] = true;
                }
            }
        };
        for (p, w) in weights.iter() {
            seen.insert(p);
            if last.weight(p) != w {
                mark(p, &mut out);
            }
        }
        for (p, w) in last.iter() {
            if !seen.contains(&p) && weights.weight(p) != w {
                mark(p, &mut out);
            }
        }
        out
    }

    /// True when `entry` can be served from cache under `weights`.
    fn reusable(&self, entry: &FormEntry, weights: &ProfileInformation) -> bool {
        let reads = &entry.reads;
        if reads.volatile_reads {
            return false;
        }
        if self.engine.factory_snapshot() != entry.factory_pre {
            return false;
        }
        if let Some(avail) = reads.availability {
            if avail == weights.is_empty() {
                return false;
            }
        }
        if reads.whole_profile && entry.profile_snapshot.as_ref() != Some(weights) {
            return false;
        }
        reads
            .points
            .iter()
            .all(|(p, w)| (weights.weight(*p) - w).abs() <= self.config.epsilon)
    }

    /// Compiles the program under `weights`, re-expanding only forms whose
    /// recorded profile reads changed beyond epsilon (plus anything
    /// downstream of a re-expanded form that altered compile-time state).
    ///
    /// # Errors
    ///
    /// Propagates read/expand errors from re-expanded forms.
    pub fn compile(&mut self, weights: &ProfileInformation) -> Result<CompiledUnit, Error> {
        self.engine.set_profile(weights.clone());
        self.engine.reset_profile_points();
        // Discard dirt from engine setup (library installation registers
        // macros); only re-expansions *during this compile* invalidate
        // downstream entries.
        let _ = self.engine.expander_mut().take_meta_dirty();

        let compile_timer = observe::timer();
        let candidates = self.reuse_candidates(weights);
        let first_compile = self.last_weights.is_none();
        // Cleared until this compile succeeds: a failed compile leaves the
        // cache with entries recorded under mixed weights, so the next one
        // must fall back to checking every form.
        self.last_weights = None;

        let mut unit = CompiledUnit {
            expansion: Vec::new(),
            cores: Vec::new(),
            chunks: Vec::new(),
            stats: ReuseStats {
                total_forms: self.forms.len(),
                ..ReuseStats::default()
            },
        };
        let mut upstream_dirty = false;
        // Indexes forms/entries/candidates in lockstep.
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.forms.len() {
            let reuse = !upstream_dirty
                && self.entries[i].as_ref().is_some_and(|e| {
                    if candidates[i] {
                        self.reusable(e, weights)
                    } else {
                        // None of this form's reads drifted; only the
                        // factory replay invariant can still break (an
                        // upstream re-expansion allocating a different
                        // point sequence).
                        self.engine.factory_snapshot() == e.factory_pre
                    }
                });
            if reuse {
                let entry = self.entries[i].as_ref().expect("checked");
                self.engine.restore_factory(entry.factory_post.clone());
                unit.stats.reused += 1;
                if observe::enabled() {
                    observe::emit(observe::EventKind::CacheHit { form: i as u32 });
                }
            } else {
                if observe::enabled() {
                    observe::emit(observe::EventKind::CacheMiss {
                        form: i as u32,
                        reason: self.miss_reason(i, upstream_dirty, first_compile, weights),
                    });
                }
                let entry = self.expand_entry(i, weights, &mut unit.stats)?;
                // A re-expanded form that changed meta state (define-syntax
                // and friends) invalidates every later form in this compile.
                upstream_dirty |= entry.meta;
                unit.stats.reexpanded += 1;
                self.unindex_entry(i);
                self.entries[i] = Some(entry);
                self.index_entry(i);
            }
            let entry = self.entries[i].as_ref().expect("cached above");
            unit.expansion.extend(entry.expansion.iter().cloned());
            unit.cores.extend(entry.cores.iter().cloned());
            unit.chunks.extend(entry.chunks.iter().cloned());
        }
        self.last_weights = Some(weights.clone());
        observe::finish(compile_timer, |duration_us| {
            observe::EventKind::IncrementalCompile {
                forms: unit.stats.total_forms as u32,
                reused: unit.stats.reused as u32,
                reexpanded: unit.stats.reexpanded as u32,
                duration_us,
            }
        });
        Ok(unit)
    }

    /// Expands form `i` once under the loaded `weights` and builds its cache
    /// entry: artifacts, the profile reads and factory states reuse is
    /// checked against, and whether the form changed compile-time state.
    /// The expander's work is added to `stats`.
    fn expand_entry(
        &mut self,
        i: usize,
        weights: &ProfileInformation,
        stats: &mut ReuseStats,
    ) -> Result<FormEntry, Error> {
        let factory_pre = self.engine.factory_snapshot();
        self.engine.begin_profile_read_log();
        let expanded = self
            .engine
            .expander_mut()
            .expand_displayed(std::slice::from_ref(&self.forms[i]))?;
        let reads = self.engine.take_profile_read_log();
        let factory_post = self.engine.factory_snapshot();
        let meta = self.engine.expander_mut().take_meta_dirty();
        stats.transformer_calls += expanded.transformer_calls;
        stats.replay_misses += expanded.replay_misses;
        let chunks = expanded.cores.iter().map(compile_chunk).collect();
        Ok(FormEntry {
            profile_snapshot: reads.whole_profile.then(|| weights.clone()),
            reads,
            factory_pre,
            factory_post,
            expansion: expanded.printed(),
            cores: expanded.cores,
            chunks,
            meta,
        })
    }

    /// Why form `i` cannot be served from cache — the trace-event reason
    /// vocabulary of `EventKind::CacheMiss`. Mirrors the checks of
    /// [`reusable`](IncrementalEngine::reusable) in order, so the reported
    /// reason is the first check that failed. Only called on the miss path
    /// with tracing enabled.
    fn miss_reason(
        &self,
        i: usize,
        upstream_dirty: bool,
        first_compile: bool,
        weights: &ProfileInformation,
    ) -> String {
        if upstream_dirty {
            return "meta-dirty".into();
        }
        let Some(entry) = self.entries[i].as_ref() else {
            // No cache entry: either nothing was ever compiled, or
            // `set_source` evicted it on a fingerprint change.
            return if first_compile {
                "first-compile".into()
            } else {
                "source-changed".into()
            };
        };
        let reads = &entry.reads;
        if reads.volatile_reads {
            return "volatile-reads".into();
        }
        if self.engine.factory_snapshot() != entry.factory_pre {
            return "factory-mismatch".into();
        }
        if let Some(avail) = reads.availability {
            if avail == weights.is_empty() {
                return "availability-flip".into();
            }
        }
        if reads.whole_profile && entry.profile_snapshot.as_ref() != Some(weights) {
            return "whole-profile".into();
        }
        for (p, w) in &reads.points {
            if (weights.weight(*p) - w).abs() > self.config.epsilon {
                return format!("drifted-point:{p}");
            }
        }
        // Every individual check passed, yet `compile` decided against
        // reuse — conservatively attribute it to upstream meta state.
        "meta-dirty".into()
    }

    /// Serializes the recompilation cache to `path` so a fresh process can
    /// warm-start with [`IncrementalEngine::load_state`]. The write is
    /// atomic (temp file + rename); the format is documented in
    /// [`crate::persist`].
    ///
    /// Forms that cannot be persisted are skipped, not errors: forms never
    /// compiled, forms with volatile profile reads, and forms whose core
    /// artifacts contain residual syntax objects (see
    /// [`pgmp_eval::core_to_datum`]). They simply re-expand on warm start —
    /// a sound degradation, never a wrong reuse.
    ///
    /// # Errors
    ///
    /// [`ProfileStoreError::Malformed`] if no compile has succeeded yet
    /// (there is no cache to save), or an I/O error from the atomic write.
    pub fn save_state(&self, path: impl AsRef<Path>) -> Result<SaveStats, Error> {
        let weights = self.last_weights.as_ref().ok_or_else(|| {
            ProfileStoreError::Malformed("cannot save session: no successful compile yet".into())
        })?;
        let file = self
            .forms
            .iter()
            .find_map(|f| f.first_source())
            .map(|s| s.file.as_str().to_owned())
            .unwrap_or_default();
        let mut stats = SaveStats {
            total_forms: self.forms.len(),
            ..SaveStats::default()
        };
        let mut rendered: Vec<String> = Vec::new();
        // One string table for the whole session: every core tree's file
        // names and global symbols serialize as indices into it.
        let mut table = StringTable::new();
        for (i, entry) in self.entries.iter().enumerate() {
            let entry = match entry {
                Some(e) if !e.reads.volatile_reads => e,
                _ => {
                    stats.skipped += 1;
                    continue;
                }
            };
            if entry.meta {
                // Replayed at load: only the validation data is stored, the
                // artifacts are regenerated by the real expander.
                rendered.push(persist::form_entry_string(
                    i,
                    self.hashes[i],
                    true,
                    &entry.reads,
                    &entry.factory_pre,
                    &entry.factory_post,
                    &[],
                    &[],
                    None,
                ));
                stats.saved += 1;
                continue;
            }
            let cores: Option<Vec<Datum>> = entry
                .cores
                .iter()
                .map(|c| core_to_datum_with(c, &mut table))
                .collect();
            let Some(cores) = cores else {
                stats.skipped += 1;
                continue;
            };
            rendered.push(persist::form_entry_string(
                i,
                self.hashes[i],
                false,
                &entry.reads,
                &entry.factory_pre,
                &entry.factory_post,
                &entry.expansion,
                &cores,
                entry.profile_snapshot.as_ref(),
            ));
            stats.saved += 1;
        }
        let text = persist::session_string(&file, weights, table.symbols(), &rendered);
        let t = observe::timer();
        write_atomic(path.as_ref(), &text).map_err(|e| Error::Profile(ProfileStoreError::Io(e)))?;
        observe::finish(t, |duration_us| observe::EventKind::StoreWrite {
            path: path.as_ref().display().to_string(),
            kind: "session".to_string(),
            bytes: text.len() as u64,
            duration_us,
        });
        Ok(stats)
    }

    /// Restores a session saved by [`IncrementalEngine::save_state`],
    /// replacing this engine's cache. After a successful load against an
    /// unchanged program, the next [`compile`] under the stored weights
    /// reuses every form — **zero re-expansions** across the process
    /// boundary.
    ///
    /// Per form, in program order:
    ///
    /// - the stored fingerprint must match the current form's, and the
    ///   stored pre-expansion factory state must match the replayed chain —
    ///   otherwise the form is **skipped** (it re-expands on the next
    ///   compile; sound, never wrong reuse);
    /// - **meta** forms (`define-syntax` and friends) are replayed through
    ///   the real expander, re-registering their transformers. Their
    ///   meta-dirty flag is consumed *without* invalidating downstream
    ///   entries: the stored artifacts were recorded under this very macro
    ///   definition, as witnessed by the fingerprint check;
    /// - value forms are rehydrated from their stored artifacts and their
    ///   chunks recompiled, under fresh chunk ids (chunk ids are
    ///   process-local).
    ///
    /// [`compile`]: IncrementalEngine::compile
    ///
    /// # Errors
    ///
    /// Typed [`ProfileStoreError`]s for I/O failures, malformed or
    /// version-incompatible session files (corruption never panics and
    /// never partially mutates the cache — parsing completes before any
    /// state changes), and expansion errors from meta-form replay.
    pub fn load_state(&mut self, path: impl AsRef<Path>) -> Result<WarmStart, Error> {
        let t = observe::timer();
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| Error::Profile(ProfileStoreError::Io(e)))?;
        observe::finish(t, |duration_us| observe::EventKind::StoreRead {
            path: path.as_ref().display().to_string(),
            kind: "session".to_string(),
            bytes: text.len() as u64,
            duration_us,
        });
        let session = persist::parse_session(&text).map_err(Error::Profile)?;
        let stored_weights = session.weights;
        let mut by_index: HashMap<usize, persist::StoredForm> =
            session.forms.into_iter().map(|f| (f.index, f)).collect();

        self.engine.set_profile(stored_weights.clone());
        self.engine.reset_profile_points();
        // Engine setup (library installation) registers macros; that dirt
        // is not ours.
        let _ = self.engine.expander_mut().take_meta_dirty();

        let mut ws = WarmStart {
            total_forms: self.forms.len(),
            source_file: session.file,
            ..WarmStart::default()
        };
        for i in 0..self.forms.len() {
            let stored = by_index
                .remove(&i)
                .filter(|s| s.hash == self.hashes[i])
                .filter(|s| s.fpre == self.engine.factory_snapshot());
            let Some(stored) = stored else {
                // Missing entry, fingerprint drift, or a broken factory
                // chain: leave the slot cold. The factory chain is *not*
                // advanced, so downstream entries only restore if the
                // skipped form allocated no points — exactly the condition
                // under which their cached artifacts are still reachable.
                self.entries[i] = None;
                ws.skipped += 1;
                continue;
            };
            if stored.meta {
                // Replay through the real expander to re-register the
                // transformer (or re-run the expand-time registration);
                // artifacts are regenerated, validation data (reads,
                // factory states) is taken from the live replay. Its
                // meta-dirty flag is consumed without cascading:
                // downstream stored artifacts were recorded under this
                // same (fingerprint-checked) meta state.
                let entry = self.expand_entry(i, &stored_weights, &mut ReuseStats::default())?;
                self.entries[i] = Some(FormEntry {
                    meta: true,
                    ..entry
                });
                ws.replayed_meta += 1;
            } else {
                let chunks: Vec<Chunk> = stored.cores.iter().map(compile_chunk).collect();
                let profile_snapshot = stored
                    .snapshot
                    .or_else(|| stored.reads.whole_profile.then(|| stored_weights.clone()));
                self.engine.restore_factory(stored.fpost.clone());
                self.entries[i] = Some(FormEntry {
                    reads: stored.reads,
                    factory_pre: stored.fpre,
                    factory_post: stored.fpost,
                    expansion: stored.expansion,
                    cores: stored.cores,
                    chunks,
                    profile_snapshot,
                    meta: false,
                });
                ws.restored += 1;
            }
        }
        self.last_weights = Some(stored_weights);
        self.rebuild_index();
        Ok(ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_bytecode::canonical_form;
    use pgmp_syntax::SourceObject;

    fn canonical_cfgs(chunks: &[Chunk]) -> Vec<String> {
        chunks.iter().map(canonical_form).collect()
    }

    /// An `if-r` program with one profile-dependent form among plain ones.
    const PROGRAM: &str = "
      (define-syntax (if-r stx)
        (syntax-case stx ()
          [(_ test t-branch f-branch)
           (if (< (profile-query #'t-branch) (profile-query #'f-branch))
               #'(if (not test) f-branch t-branch)
               #'(if test t-branch f-branch))]))
      (define (plain-a x) (* x x))
      (define (plain-b x) (+ x 1))
      (define (classify n) (if-r (= n 0) 'rare 'common))
      (plain-a 3)";

    /// Profile points of the two `if-r` branches in `PROGRAM` above.
    fn branch_points(file: &str) -> (SourceObject, SourceObject) {
        let forms = read_str(PROGRAM, file).unwrap();
        let classify = &forms[3];
        let if_r = classify.as_list().unwrap()[2].clone();
        let elems = if_r.as_list().unwrap();
        (elems[2].source.unwrap(), elems[3].source.unwrap())
    }

    #[test]
    fn first_compile_expands_everything() {
        let mut incr =
            IncrementalEngine::new(PROGRAM, "i.scm", IncrementalConfig::default()).unwrap();
        let unit = incr.compile(&ProfileInformation::empty()).unwrap();
        assert_eq!(unit.stats.total_forms, 5);
        assert_eq!(unit.stats.reexpanded, 5);
        assert_eq!(unit.stats.reused, 0);
        // define-syntax emits nothing; the other four forms do.
        assert_eq!(unit.cores.len(), 4);
        assert_eq!(unit.chunks.len(), 4);
    }

    #[test]
    fn unchanged_weights_reuse_everything() {
        let mut incr =
            IncrementalEngine::new(PROGRAM, "i.scm", IncrementalConfig::default()).unwrap();
        let w = ProfileInformation::empty();
        let first = incr.compile(&w).unwrap();
        let second = incr.compile(&w).unwrap();
        assert!(second.stats.all_reused(), "stats: {:?}", second.stats);
        assert_eq!(first.expansion, second.expansion);
        assert_eq!(
            canonical_cfgs(&first.chunks),
            canonical_cfgs(&second.chunks)
        );
    }

    #[test]
    fn weight_change_reexpands_only_dependent_forms() {
        let mut incr =
            IncrementalEngine::new(PROGRAM, "i.scm", IncrementalConfig::default()).unwrap();
        let (t, f) = branch_points("i.scm");
        let w1 = ProfileInformation::from_weights([(t, 0.9), (f, 0.1)], 1);
        let first = incr.compile(&w1).unwrap();
        assert!(first
            .expansion
            .iter()
            .any(|s| s.contains("(if (= n 0) (quote rare) (quote common))")));

        // Flip the branch weights: only `classify` consults them.
        let w2 = ProfileInformation::from_weights([(t, 0.1), (f, 0.9)], 1);
        let second = incr.compile(&w2).unwrap();
        assert_eq!(second.stats.reexpanded, 1);
        assert_eq!(second.stats.reused, 4);
        assert!(second
            .expansion
            .iter()
            .any(|s| s.contains("(if (not (= n 0)) (quote common) (quote rare))")));
    }

    #[test]
    fn epsilon_suppresses_small_changes() {
        let mut incr =
            IncrementalEngine::new(PROGRAM, "i.scm", IncrementalConfig { epsilon: 0.2 }).unwrap();
        let (t, f) = branch_points("i.scm");
        let w1 = ProfileInformation::from_weights([(t, 0.5), (f, 0.4)], 1);
        incr.compile(&w1).unwrap();
        // Within epsilon: reuse; crossing epsilon: re-expand.
        let near = ProfileInformation::from_weights([(t, 0.45), (f, 0.5)], 1);
        assert!(incr.compile(&near).unwrap().stats.all_reused());
        let far = ProfileInformation::from_weights([(t, 0.1), (f, 0.9)], 1);
        let unit = incr.compile(&far).unwrap();
        assert_eq!(unit.stats.reexpanded, 1);
    }

    #[test]
    fn availability_flip_invalidates_availability_readers() {
        let src = "
          (define-syntax (maybe stx)
            (syntax-case stx ()
              [(_ e) (if (profile-data-available?) #'e #''untrained)]))
          (maybe 42)";
        let mut incr = IncrementalEngine::new(src, "a.scm", IncrementalConfig::default()).unwrap();
        let first = incr.compile(&ProfileInformation::empty()).unwrap();
        assert!(first.expansion.iter().any(|s| s.contains("untrained")));
        let p = SourceObject::new("other.scm", 0, 1);
        let trained = ProfileInformation::from_weights([(p, 1.0)], 1);
        let second = incr.compile(&trained).unwrap();
        assert_eq!(second.stats.reexpanded, 1, "stats: {:?}", second.stats);
        assert!(second.expansion.iter().any(|s| s == "42"));
    }

    #[test]
    fn changed_define_syntax_invalidates_downstream() {
        let v1 = "(define-syntax (k stx) (syntax-case stx () [(_ ) #'1]))\n(k)\n(+ 2 3)";
        let v2 = "(define-syntax (k stx) (syntax-case stx () [(_ ) #'9]))\n(k)\n(+ 2 3)";
        let mut incr = IncrementalEngine::new(v1, "d.scm", IncrementalConfig::default()).unwrap();
        let w = ProfileInformation::empty();
        let first = incr.compile(&w).unwrap();
        assert!(first.expansion.contains(&"1".to_owned()));
        incr.set_source(v2, "d.scm").unwrap();
        let second = incr.compile(&w).unwrap();
        // The changed define-syntax re-expands, and so does everything
        // after it (the macro's meaning changed); nothing is stale.
        assert!(second.expansion.contains(&"9".to_owned()));
        assert_eq!(second.stats.reexpanded, 3);
    }

    #[test]
    fn set_source_keeps_unchanged_prefix() {
        let v1 = "(define (a x) x)\n(define (b x) x)";
        let v2 = "(define (a x) x)\n(define (b x) (+ x 1))";
        let mut incr = IncrementalEngine::new(v1, "s.scm", IncrementalConfig::default()).unwrap();
        let w = ProfileInformation::empty();
        incr.compile(&w).unwrap();
        incr.set_source(v2, "s.scm").unwrap();
        let unit = incr.compile(&w).unwrap();
        assert_eq!(unit.stats.reused, 1);
        assert_eq!(unit.stats.reexpanded, 1);
    }

    #[test]
    fn inserted_toplevel_form_no_longer_dirties_downstream() {
        // Before LCS alignment, inserting `zz` shifted every later form's
        // positional fingerprint and re-expanded the whole program.
        let v1 = "(define (a x) x)\n(define (b x) x)\n(define (c x) x)";
        let v2 = "(define (zz x) (* x 2))\n(define (a x) x)\n(define (b x) x)\n(define (c x) x)";
        let mut incr = IncrementalEngine::new(v1, "s.scm", IncrementalConfig::default()).unwrap();
        let w = ProfileInformation::empty();
        incr.compile(&w).unwrap();
        incr.set_source(v2, "s.scm").unwrap();
        let unit = incr.compile(&w).unwrap();
        assert_eq!(unit.stats.reexpanded, 1, "stats: {:?}", unit.stats);
        assert_eq!(unit.stats.reused, 3);
        // Deleting it again re-aligns back: nothing re-expands.
        incr.set_source(v1, "s.scm").unwrap();
        let unit = incr.compile(&w).unwrap();
        assert!(unit.stats.all_reused(), "stats: {:?}", unit.stats);
    }

    #[test]
    fn shifted_profile_reads_rekey_through_the_alignment() {
        // A profile-dependent form that merely *moved* keeps its cache
        // entry, with its recorded reads re-keyed to the shifted spans —
        // so a rebased profile (weights on the new spans) reuses it.
        let mut incr =
            IncrementalEngine::new(PROGRAM, "i.scm", IncrementalConfig::default()).unwrap();
        let (t, f) = branch_points("i.scm");
        let w1 = ProfileInformation::from_weights([(t, 0.9), (f, 0.1)], 1);
        let first = incr.compile(&w1).unwrap();

        let prefix = "(define (zz q) q)\n";
        let shifted_src = format!("{prefix}{PROGRAM}");
        incr.set_source(&shifted_src, "i.scm").unwrap();
        let shift = prefix.len() as u32;
        let t2 = SourceObject {
            file: t.file,
            bfp: t.bfp + shift,
            efp: t.efp + shift,
        };
        let f2 = SourceObject {
            file: f.file,
            bfp: f.bfp + shift,
            efp: f.efp + shift,
        };
        let w2 = ProfileInformation::from_weights([(t2, 0.9), (f2, 0.1)], 1);
        let unit = incr.compile(&w2).unwrap();
        assert_eq!(unit.stats.reexpanded, 1, "only zz is new: {:?}", unit.stats);
        assert_eq!(unit.stats.reused, 5);
        // The reused profile-guided expansion is the one those weights
        // picked originally.
        let hot = first.expansion.iter().find(|s| s.contains("rare")).unwrap();
        assert!(unit.expansion.iter().any(|s| s == hot));
    }

    #[test]
    fn reused_chunks_keep_their_ids() {
        let mut incr =
            IncrementalEngine::new(PROGRAM, "i.scm", IncrementalConfig::default()).unwrap();
        let w = ProfileInformation::empty();
        let first = incr.compile(&w).unwrap();
        let second = incr.compile(&w).unwrap();
        let ids1: Vec<u32> = first.chunks.iter().map(|c| c.id).collect();
        let ids2: Vec<u32> = second.chunks.iter().map(|c| c.id).collect();
        assert_eq!(ids1, ids2, "block counters stay valid across reuse");
    }

    #[test]
    fn unrelated_point_drift_reuses_everything() {
        // A drifted point nobody reads must not invalidate any form: the
        // inverted index finds no readers and the per-form scan is skipped.
        let mut incr =
            IncrementalEngine::new(PROGRAM, "i.scm", IncrementalConfig::default()).unwrap();
        let (t, f) = branch_points("i.scm");
        let w1 = ProfileInformation::from_weights([(t, 0.9), (f, 0.1)], 1);
        incr.compile(&w1).unwrap();
        let stranger = SourceObject::new("elsewhere.scm", 10, 20);
        let w2 = ProfileInformation::from_weights([(t, 0.9), (f, 0.1), (stranger, 0.7)], 1);
        let unit = incr.compile(&w2).unwrap();
        assert!(unit.stats.all_reused(), "stats: {:?}", unit.stats);
    }

    #[test]
    fn failed_compile_falls_back_to_full_checking() {
        // After an error mid-compile the cache may hold entries recorded
        // under mixed weights; the next compile must not trust the drift
        // diff (last_weights is cleared) and still produce correct output.
        let src = "
          (define-syntax (trap stx)
            (syntax-case stx ()
              [(_ e)
               (if (> (profile-query #'e) 0.5)
                   (boom)
                   #'e)]))
          (define (f) (trap (+ 1 2)))";
        let forms = read_str(src, "t.scm").unwrap();
        let point = forms[1].as_list().unwrap()[2].as_list().unwrap()[1]
            .first_source()
            .unwrap();
        let mut incr = IncrementalEngine::new(src, "t.scm", IncrementalConfig::default()).unwrap();
        incr.compile(&ProfileInformation::empty()).unwrap();
        let hot = ProfileInformation::from_weights([(point, 1.0)], 1);
        assert!(incr.compile(&hot).is_err(), "hot trap must fail");
        let cold = ProfileInformation::from_weights([(point, 0.1)], 1);
        let unit = incr.compile(&cold).unwrap();
        assert!(unit.expansion.iter().any(|s| s.contains("(+ 1 2)")));
    }

    #[test]
    fn cached_forms_replay_without_slot_re_resolution() {
        // Dense-counter slot ids are cached on Core nodes; reused forms
        // hand back the *same* nodes, so their slots survive recompilation
        // and re-instrumentation interns nothing new.
        use pgmp_eval::resolve_profile_slots;
        use pgmp_profiler::Counters;

        let mut incr =
            IncrementalEngine::new(PROGRAM, "slot.scm", IncrementalConfig::default()).unwrap();
        let (t, f) = branch_points("slot.scm");
        let w1 = ProfileInformation::from_weights([(t, 0.9), (f, 0.1)], 1);
        let first = incr.compile(&w1).unwrap();

        let counters = Counters::new();
        for core in &first.cores {
            resolve_profile_slots(core, &counters);
        }
        let resolved = counters.resolved_slots();
        assert!(resolved > 0);
        let slot_t = counters.resolve(t);
        let slot_f = counters.resolve(f);

        // Flip the branch weights: only `classify` re-expands.
        let w2 = ProfileInformation::from_weights([(t, 0.1), (f, 0.9)], 1);
        let second = incr.compile(&w2).unwrap();
        assert_eq!(second.stats.reused, 4);

        // Reused forms are the identical nodes, already carrying their
        // cached slots for this registry; re-resolving them interns
        // nothing.
        let reused: Vec<_> = second
            .cores
            .iter()
            .filter(|c| first.cores.iter().any(|o| Rc::ptr_eq(o, c)))
            .collect();
        assert!(!reused.is_empty());
        for core in &reused {
            assert!(core.cached_slot(counters.map_id()).is_some());
            resolve_profile_slots(core, &counters);
        }
        assert_eq!(
            counters.resolved_slots(),
            resolved,
            "reused forms re-resolved"
        );

        // The re-expanded form may mint new points (its shape changed),
        // but every pre-existing point keeps its original slot.
        for core in &second.cores {
            resolve_profile_slots(core, &counters);
        }
        assert_eq!(counters.resolve(t), slot_t, "slot ids must be stable");
        assert_eq!(counters.resolve(f), slot_f, "slot ids must be stable");
        assert!(counters.resolved_slots() >= resolved);
    }

    #[test]
    fn warm_start_reuses_everything_across_processes() {
        // "Process 1": compile under real weights and save the session.
        let dir = std::env::temp_dir().join(format!("pgmp-warm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.pgmp");
        let (t, f) = branch_points("w.scm");
        let w = ProfileInformation::from_weights([(t, 0.1), (f, 0.9)], 1);
        let first = {
            let mut incr =
                IncrementalEngine::new(PROGRAM, "w.scm", IncrementalConfig::default()).unwrap();
            let unit = incr.compile(&w).unwrap();
            let stats = incr.save_state(&path).unwrap();
            assert_eq!(stats.total_forms, 5);
            assert_eq!(stats.saved, 5, "stats: {stats:?}");
            unit
        };

        // "Process 2": fresh engine, same program, load the session.
        let mut incr =
            IncrementalEngine::new(PROGRAM, "w.scm", IncrementalConfig::default()).unwrap();
        let ws = incr.load_state(&path).unwrap();
        assert_eq!(ws.skipped, 0, "warm start: {ws:?}");
        assert_eq!(ws.replayed_meta, 1, "the define-syntax form replays");
        assert_eq!(ws.restored, 4);
        assert_eq!(ws.source_file, "w.scm");

        // The acceptance criterion: zero re-expansions on the warm path.
        let unit = incr.compile(&w).unwrap();
        assert!(unit.stats.all_reused(), "stats: {:?}", unit.stats);
        assert_eq!(unit.expansion, first.expansion);
        assert_eq!(canonical_cfgs(&unit.chunks), canonical_cfgs(&first.chunks));

        // And the cache is still *live*: flipping the branch weights after
        // a warm start re-expands exactly the dependent form.
        let w2 = ProfileInformation::from_weights([(t, 0.9), (f, 0.1)], 1);
        let unit = incr.compile(&w2).unwrap();
        assert_eq!(unit.stats.reexpanded, 1, "stats: {:?}", unit.stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn older_sessions_with_chunk_ids_still_load() {
        // Sessions used to record each form's chunk ids. A fresh process
        // mints its own, so loading checks the entry and drops it.
        let dir = std::env::temp_dir().join(format!("pgmp-chunk-ids-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.pgmp");
        let mut incr =
            IncrementalEngine::new(PROGRAM, "w.scm", IncrementalConfig::default()).unwrap();
        incr.compile(&ProfileInformation::empty()).unwrap();
        incr.save_state(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("chunk-ids"), "no longer written");
        let load = |ids: &str| {
            let old = format!("\n    (chunk-ids {ids})\n    (cores ");
            std::fs::write(&path, text.replace("\n    (cores ", &old)).unwrap();
            IncrementalEngine::new(PROGRAM, "w.scm", IncrementalConfig::default())
                .unwrap()
                .load_state(&path)
        };
        assert_eq!(load("17 3").unwrap().restored, 4);
        assert!(matches!(
            load("-1"),
            Err(Error::Profile(ProfileStoreError::Malformed(_)))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_start_skips_changed_forms_only() {
        let dir = std::env::temp_dir().join(format!("pgmp-warmskip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.pgmp");
        // Same-length edit: form `b` changes, `c`'s byte offsets (and so
        // its fingerprint — source positions are profile points) do not.
        let v1 = "(define (a x) x)\n(define (b x) x)\n(define (c x) x)";
        let v2 = "(define (a x) x)\n(define (b y) y)\n(define (c x) x)";
        let w = ProfileInformation::empty();
        {
            let mut incr =
                IncrementalEngine::new(v1, "s.scm", IncrementalConfig::default()).unwrap();
            incr.compile(&w).unwrap();
            incr.save_state(&path).unwrap();
        }
        // The program changed between processes: only the changed form
        // misses; `a` and `c` restore (none of these forms allocates
        // generated points, so the factory chain over the gap holds).
        let mut incr = IncrementalEngine::new(v2, "s.scm", IncrementalConfig::default()).unwrap();
        let ws = incr.load_state(&path).unwrap();
        assert_eq!(ws.restored, 2, "warm start: {ws:?}");
        assert_eq!(ws.skipped, 1);
        let unit = incr.compile(&w).unwrap();
        assert_eq!(unit.stats.reexpanded, 1, "stats: {:?}", unit.stats);
        assert_eq!(unit.stats.reused, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_skips_volatile_forms_and_load_recovers() {
        // A form with volatile reads (make-profile-point allocation order
        // matters) is persisted; one with volatile queries is not. Here we
        // use the generated-points program: its `tag` uses
        // make-profile-point, whose reads ARE diffable, so everything
        // persists — the volatile path is exercised via random-juice in
        // api tests; what we check here is that generated points survive
        // the round trip.
        let src = "
          (define-syntax (tag stx)
            (syntax-case stx ()
              [(_ e)
               (let ([p (make-profile-point #'e)])
                 (if (> (profile-query p) 0.5)
                     #'(quote hot)
                     (annotate-expr #'e p)))]))
          (define (u) (tag (+ 1 1)))
          (define (v) (tag (+ 2 2)))";
        let dir = std::env::temp_dir().join(format!("pgmp-warmgen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.pgmp");
        let forms = read_str(src, "g.scm").unwrap();
        let mut factory = SourceFactory::new();
        let base_u = forms[1].as_list().unwrap()[2].as_list().unwrap()[1].first_source();
        let base_v = forms[2].as_list().unwrap()[2].as_list().unwrap()[1].first_source();
        let _pu = factory.make_profile_point(base_u);
        let pv = factory.make_profile_point(base_v);
        let w = ProfileInformation::from_weights([(pv, 1.0)], 1);
        let first = {
            let mut incr =
                IncrementalEngine::new(src, "g.scm", IncrementalConfig::default()).unwrap();
            let unit = incr.compile(&w).unwrap();
            incr.save_state(&path).unwrap();
            unit
        };
        let mut incr = IncrementalEngine::new(src, "g.scm", IncrementalConfig::default()).unwrap();
        let ws = incr.load_state(&path).unwrap();
        assert_eq!(ws.skipped, 0, "warm start: {ws:?}");
        let unit = incr.compile(&w).unwrap();
        assert!(unit.stats.all_reused(), "stats: {:?}", unit.stats);
        assert_eq!(unit.expansion, first.expansion);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_session_files_error_without_panic() {
        let dir = std::env::temp_dir().join(format!("pgmp-warmbad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.pgmp");
        let w = ProfileInformation::empty();
        let mut incr =
            IncrementalEngine::new(PROGRAM, "c.scm", IncrementalConfig::default()).unwrap();
        incr.compile(&w).unwrap();
        incr.save_state(&path).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();

        let corpus: Vec<String> = vec![
            String::new(),
            "(".to_owned(),
            "(not-a-session)".to_owned(),
            "(pgmp-session)".to_owned(),
            "(pgmp-session (version 99))".to_owned(),
            "(pgmp-session (version 1) (form -1 \"00\"))".to_owned(),
            "(pgmp-session (version 1) (form 0 \"zz\"))".to_owned(),
            "(pgmp-session (version 1) (form 0 \"aa\" (cores (bogus))))".to_owned(),
            good[..good.len() / 2].to_owned(), // truncated mid-file
            good.replace("fpre", "fprE"),      // bit-flipped tag
        ];
        for (i, bad) in corpus.iter().enumerate() {
            std::fs::write(&path, bad).unwrap();
            let mut fresh =
                IncrementalEngine::new(PROGRAM, "c.scm", IncrementalConfig::default()).unwrap();
            let err = fresh.load_state(&path);
            assert!(
                matches!(err, Err(Error::Profile(_))),
                "case {i} must fail with a typed error: {err:?}"
            );
            // And the engine still works after the failed load.
            assert!(fresh.compile(&w).is_ok(), "case {i} poisoned the engine");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_before_compile_is_a_typed_error() {
        let incr = IncrementalEngine::new(PROGRAM, "e.scm", IncrementalConfig::default()).unwrap();
        let err = incr.save_state("/nonexistent/never-written.pgmp");
        assert!(matches!(err, Err(Error::Profile(_))), "{err:?}");
    }

    #[test]
    fn generated_points_are_replayed_across_mixed_reuse() {
        // Two forms that each allocate a generated profile point; when the
        // second is invalidated and re-expanded, it must get the *same*
        // generated point as in a from-scratch compile (factory state is
        // fast-forwarded over the reused first form).
        let src = "
          (define-syntax (tag stx)
            (syntax-case stx ()
              [(_ e)
               (let ([p (make-profile-point #'e)])
                 (if (> (profile-query p) 0.5)
                     #'(quote hot)
                     (annotate-expr #'e p)))]))
          (define (u) (tag (+ 1 1)))
          (define (v) (tag (+ 2 2)))";
        let mut incr = IncrementalEngine::new(src, "g.scm", IncrementalConfig::default()).unwrap();
        let first = incr.compile(&ProfileInformation::empty()).unwrap();

        // Find the generated point that the second `tag` consulted, then
        // heat it: only form 3 (`v`) re-expands.
        let forms = read_str(src, "g.scm").unwrap();
        let mut factory = SourceFactory::new();
        let base_u = forms[1].as_list().unwrap()[2].as_list().unwrap()[1].first_source();
        let base_v = forms[2].as_list().unwrap()[2].as_list().unwrap()[1].first_source();
        let _pu = factory.make_profile_point(base_u);
        let pv = factory.make_profile_point(base_v);
        let w = ProfileInformation::from_weights([(pv, 1.0)], 1);
        let second = incr.compile(&w).unwrap();
        assert_eq!(second.stats.reused, 2, "stats: {:?}", second.stats);
        assert_eq!(second.stats.reexpanded, 1);
        assert!(second.expansion.iter().any(|s| s.contains("(quote hot)")));
        assert_eq!(first.expansion[0], second.expansion[0]);

        // Oracle: a fresh engine under the same weights prints the same.
        let mut fresh = Engine::new();
        fresh.set_profile(w);
        let scratch = fresh.expand_str(src, "g.scm").unwrap();
        let scratch: Vec<String> = scratch.iter().map(|s| s.to_datum().to_string()).collect();
        assert_eq!(second.expansion, scratch);
    }
}
