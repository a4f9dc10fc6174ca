//! The stack VM executing basic-block bytecode.
//!
//! Chunks are lowered once to contiguous [`FlatChunk`] op streams
//! ([`crate::flat`]) and executed by index — one small `Copy` op per step,
//! constants pre-converted into a side pool, profile-chosen
//! superinstructions ([`crate::fuse`]) fusing hot adjacent pairs into
//! single dispatches. The block/`Terminator` form stays the profiling and
//! layout IR: block counters and [`VmMetrics`] count its blocks and edges,
//! so fusion changes `dispatches` and nothing else. The tree-walking
//! interpreter is the semantic reference; the differential oracle in
//! `tests/proptests.rs` holds the VM to it, and fused streams to unfused
//! ones.

use crate::chunk::{BlockId, Chunk};
use crate::compile::compile_chunk;
use crate::counters::BlockCounters;
use crate::flat::{self, FlatChunk, JumpTarget, Op};
use crate::fuse::FusionPlan;
use pgmp_eval::{Closure, Core, EvalError, EvalErrorKind, Frame, Interp, LambdaDef, QuickOp, Value};
use pgmp_observe as observe;
use pgmp_syntax::{FnvHashMap, SourceObject};
use std::cell::Cell;
use std::rc::Rc;

/// Sentinel for an unresolved entry in a chunk's global-slot cache.
const UNRESOLVED: u32 = u32::MAX;

/// How the VM executes chunks. Flat op streams are the one engine; the
/// type remains only because `AdaptiveEngine::enable_vm_serving` still
/// takes (and ignores) one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchMode {
    /// Lower to flat op streams and execute by index.
    #[default]
    Flat,
}

/// Execution statistics: the cost model block-level PGO optimizes.
///
/// A `Jump`/`Branch` to the block laid out immediately after the current
/// one counts as a fall-through; any other target is a taken jump. Layout
/// optimization ([`crate::optimize_layout`]) raises the fall-through ratio
/// on hot paths. `blocks_executed`, `fallthroughs`, `taken_jumps`, and
/// `calls` are identical with and without fusion; `dispatches` and
/// `fused_dispatches` describe the flat stream (fusion makes `dispatches`
/// smaller, which is the point).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmMetrics {
    /// Basic blocks entered.
    pub blocks_executed: u64,
    /// Control transfers to the next block in layout order.
    pub fallthroughs: u64,
    /// Control transfers anywhere else.
    pub taken_jumps: u64,
    /// Procedure calls (including tail calls).
    pub calls: u64,
    /// Ops dispatched (loop iterations).
    pub dispatches: u64,
    /// Dispatches that executed a fused superinstruction.
    pub fused_dispatches: u64,
}

impl VmMetrics {
    /// Fraction of intra-chunk control transfers that fell through.
    pub fn fallthrough_ratio(&self) -> f64 {
        let total = self.fallthroughs + self.taken_jumps;
        if total == 0 {
            return 1.0;
        }
        self.fallthroughs as f64 / total as f64
    }

    /// Fraction of dispatches that were fused superinstructions.
    pub fn fused_share(&self) -> f64 {
        if self.dispatches == 0 {
            return 0.0;
        }
        self.fused_dispatches as f64 / self.dispatches as f64
    }
}

/// Sentinel `def_key` for activations not entered through a lambda (the
/// toplevel chunk). `LambdaDef`s live behind `Rc`, so no real key is 0.
const NO_DEF: usize = 0;

struct FlatActivation {
    code: Rc<FlatChunk>,
    pc: u32,
    frame: Option<Rc<Frame>>,
    /// Base of this chunk's block-counter range, resolved once per
    /// activation, so block entry bumps a slot instead of hashing
    /// `(chunk, block)` (unused when profiling is off).
    counter_base: u32,
    /// Chunk-local global-slot cache: `GlobalRef`'s `cache` operand indexes
    /// here; each cell memoizes the interpreter's global slot
    /// ([`UNRESOLVED`] until first execution).
    globals: Rc<[Cell<u32>]>,
    /// Identity (`Rc` pointer) of the `LambdaDef` this code was lowered
    /// from, letting a tail self-call re-enter `code` without touching
    /// the lowering cache. [`NO_DEF`] for toplevel chunks.
    def_key: usize,
}

/// A flat lowering bundled with its chunk's global-slot cache, so entering
/// an activation costs one cache lookup, not two. The globals `Rc` aliases
/// the entry in `Vm::global_caches` (keyed by chunk id), which is what
/// keeps resolved slots alive across re-lowerings.
#[derive(Clone)]
struct FlatEntry {
    code: Rc<FlatChunk>,
    globals: Rc<[Cell<u32>]>,
}

/// Slots in [`FlatIc`] (a power of two).
const IC_SLOTS: usize = 64;

/// Direct-mapped cache of flat lowerings in front of the lambda map,
/// indexed by `LambdaDef` pointer bits: a closure call that hits it does
/// no hashing, and call sites alternating between a few callees (method
/// dispatch, visitors) keep all of them resident where a one-entry cache
/// would thrash.
struct FlatIc(Box<[Option<(usize, FlatEntry)>]>);

impl Default for FlatIc {
    fn default() -> FlatIc {
        FlatIc(vec![None; IC_SLOTS].into_boxed_slice())
    }
}

impl FlatIc {
    /// The slot for def pointer `key`: a multiplicative spread of the
    /// pointer, so neighbouring allocations land in different slots.
    #[inline]
    fn slot(key: usize) -> usize {
        let spread = (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (spread >> (64 - IC_SLOTS.trailing_zeros())) as usize
    }
}

/// The bytecode virtual machine.
///
/// Owns its chunk/lowering caches and borrows an [`Interp`] per run for
/// globals, natives, and (tree-walked) closure application inside
/// higher-order natives. See the crate-level example.
#[derive(Default)]
pub struct Vm {
    chunk_cache: FnvHashMap<usize, Rc<Chunk>>,
    /// Flat lowerings of lambda chunks, keyed like `chunk_cache` by the
    /// `LambdaDef` pointer; invalidated by `set_fusion`/`relayout_cached`.
    flat_lambda_cache: FnvHashMap<usize, FlatEntry>,
    /// Direct-mapped cache in front of `flat_lambda_cache`, invalidated
    /// with it.
    flat_ic: FlatIc,
    /// Flat lowerings of toplevel chunks passed to [`Vm::run_chunk`],
    /// keyed by chunk id and revalidated against [`flat::layout_sig`]
    /// (callers may re-lay-out a chunk without changing its id).
    flat_cache: FnvHashMap<u32, FlatEntry>,
    /// Per-chunk global-slot caches, keyed by chunk id.
    global_caches: FnvHashMap<u32, Rc<[Cell<u32>]>>,
    /// Block-level profile counters, when enabled.
    pub block_counters: Option<BlockCounters>,
    /// Execution statistics for the current/most recent run.
    pub metrics: VmMetrics,
    /// Optional instruction budget.
    pub max_steps: Option<u64>,
    fusion: FusionPlan,
}

impl Vm {
    /// Creates a VM (flat dispatch, no fusion, no profiling).
    pub fn new() -> Vm {
        Vm::default()
    }

    /// Enables block-level profiling into `counters`.
    pub fn set_block_profiling(&mut self, counters: BlockCounters) {
        self.block_counters = Some(counters);
    }

    /// Sets the superinstruction plan for subsequent lowerings and drops
    /// stale ones (lowering is lazy, so the next execution re-lowers).
    pub fn set_fusion(&mut self, plan: FusionPlan) {
        if plan != self.fusion {
            self.fusion = plan;
            self.flat_lambda_cache.clear();
            self.flat_ic = FlatIc::default();
            self.flat_cache.clear();
        }
    }

    /// The active superinstruction plan.
    pub fn fusion(&self) -> &FusionPlan {
        &self.fusion
    }

    /// Compiles `core` and runs it.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`]s exactly as the tree-walker would.
    pub fn run_core(&mut self, interp: &mut Interp, core: &Rc<Core>) -> Result<Value, EvalError> {
        let chunk = compile_chunk(core);
        self.run_chunk(interp, &chunk)
    }

    /// Runs an already-compiled chunk.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`]s from primitives and the program itself.
    pub fn run_chunk(&mut self, interp: &mut Interp, chunk: &Chunk) -> Result<Value, EvalError> {
        let t = observe::timer();
        let blocks_before = self.metrics.blocks_executed;
        let fused_before = self.metrics.fused_dispatches;
        let code = self.flat_for_toplevel(chunk);
        let out = self.exec_flat(interp, code);
        // The run is over: park the sampling beacon (no-op on exact
        // registries) so samples taken between runs attribute nothing.
        if let Some(counters) = &self.block_counters {
            counters.store().park();
        }
        let m = observe::metrics();
        m.gauge_set("vm.fallthrough_ratio", self.metrics.fallthrough_ratio());
        let fused_delta = self.metrics.fused_dispatches - fused_before;
        if fused_delta > 0 {
            m.counter_add("vm.fused_dispatches", fused_delta);
        }
        if t.is_some() {
            let blocks = self.metrics.blocks_executed - blocks_before;
            observe::finish(t, |duration_us| observe::EventKind::VmRun {
                chunk: chunk.id,
                blocks,
                duration_us,
            });
        }
        out
    }

    /// The chunks compiled so far for lambdas called through the VM,
    /// lazily populated; used by the three-pass driver to apply layout
    /// optimization and check CFG stability.
    pub fn compiled_chunks(&self) -> Vec<Rc<Chunk>> {
        let mut chunks: Vec<Rc<Chunk>> = self.chunk_cache.values().cloned().collect();
        chunks.sort_by_key(|c| c.id);
        chunks
    }

    /// Re-lays-out every cached lambda chunk using `counters` and drops
    /// their flat lowerings (re-lowered lazily from the new layout).
    pub fn relayout_cached(&mut self, counters: &BlockCounters) {
        for chunk in self.chunk_cache.values_mut() {
            *chunk = Rc::new(crate::layout::optimize_layout(chunk, counters));
        }
        self.flat_lambda_cache.clear();
        self.flat_ic = FlatIc::default();
    }

    fn chunk_for(&mut self, def: &Rc<LambdaDef>) -> Rc<Chunk> {
        let key = Rc::as_ptr(def) as usize;
        if let Some(c) = self.chunk_cache.get(&key) {
            return c.clone();
        }
        let chunk = Rc::new(compile_chunk(&def.body));
        self.chunk_cache.insert(key, chunk.clone());
        chunk
    }

    /// The flat lowering of a lambda's chunk (with its global-slot cache),
    /// cached by def pointer behind the direct-mapped [`FlatIc`]. Also
    /// populates `chunk_cache`, which layout/CFG consumers read.
    fn flat_for(&mut self, def: &Rc<LambdaDef>) -> FlatEntry {
        let key = Rc::as_ptr(def) as usize;
        let slot = FlatIc::slot(key);
        if let Some((k, entry)) = &self.flat_ic.0[slot] {
            if *k == key {
                return entry.clone();
            }
        }
        let entry = match self.flat_lambda_cache.get(&key) {
            Some(e) => e.clone(),
            None => {
                let chunk = self.chunk_for(def);
                let code = Rc::new(self.lower(&chunk));
                let globals = self.global_cache_for(code.id, code.global_refs);
                let entry = FlatEntry { code, globals };
                self.flat_lambda_cache.insert(key, entry.clone());
                entry
            }
        };
        self.flat_ic.0[slot] = Some((key, entry.clone()));
        entry
    }

    /// The flat lowering of a toplevel chunk, cached by id and
    /// revalidated by layout signature: a caller that re-lays-out a chunk
    /// (same id, new block order) gets a fresh lowering, not stale code.
    fn flat_for_toplevel(&mut self, chunk: &Chunk) -> FlatEntry {
        let sig = flat::layout_sig(chunk);
        if let Some(e) = self.flat_cache.get(&chunk.id) {
            if e.code.layout_sig == sig {
                return e.clone();
            }
        }
        let code = Rc::new(self.lower(chunk));
        let globals = self.global_cache_for(code.id, code.global_refs);
        let entry = FlatEntry { code, globals };
        self.flat_cache.insert(chunk.id, entry.clone());
        entry
    }

    /// Lowers `chunk` under the active fusion plan, tracing the lowering
    /// as a `vm_lower` span when observability is armed.
    fn lower(&self, chunk: &Chunk) -> FlatChunk {
        let t = observe::timer();
        let code = flat::lower_chunk(chunk, &self.fusion);
        if t.is_some() {
            let (ops, fused) = (code.ops.len() as u64, code.fused);
            observe::finish(t, |duration_us| observe::EventKind::VmLower {
                chunk: chunk.id,
                ops,
                fused,
                duration_us,
            });
        }
        code
    }

    /// The global-slot cache for chunk `id`, created on first use. Keyed
    /// by chunk id, so re-laid-out chunks (same id, same instructions)
    /// keep their resolved slots.
    fn global_cache_for(&mut self, id: u32, global_refs: u32) -> Rc<[Cell<u32>]> {
        if let Some(c) = self.global_caches.get(&id) {
            if c.len() >= global_refs as usize {
                return c.clone();
            }
        }
        let cache: Rc<[Cell<u32>]> = (0..global_refs).map(|_| Cell::new(UNRESOLVED)).collect();
        self.global_caches.insert(id, cache.clone());
        cache
    }

    /// Resolves a chunk's block-counter base once per activation — the
    /// per-call cost that buys hash-free block entries.
    fn counter_base(&self, id: u32, blocks: u32) -> u32 {
        match &self.block_counters {
            Some(c) => c.register_chunk(id, blocks),
            None => 0,
        }
    }

    /// Builds an activation for a flat entry. The global cache rides in
    /// the entry, so this touches no `Vm` map when profiling is off.
    fn flat_activation(
        &mut self,
        entry: FlatEntry,
        def_key: usize,
        frame: Option<Rc<Frame>>,
    ) -> FlatActivation {
        let FlatEntry { code, globals } = entry;
        let counter_base = self.counter_base(code.id, code.block_count);
        FlatActivation {
            pc: code.entry_pc,
            code,
            frame,
            counter_base,
            globals,
            def_key,
        }
    }

    /// The engine: executes a flat op stream by index. Every op is a
    /// small `Copy` read out of one contiguous `Vec`; constants come
    /// pre-converted from the pool; superinstructions collapse hot pairs
    /// into one dispatch. The loop runs against a local `VmMetrics` and a
    /// local counters handle (this wrapper writes the metrics back on
    /// every exit path), so per-step bookkeeping stays in registers
    /// instead of round-tripping through `self`.
    fn exec_flat(&mut self, interp: &mut Interp, entry: FlatEntry) -> Result<Value, EvalError> {
        let mut m = self.metrics;
        let counters = self.block_counters.clone();
        let out = self.exec_flat_inner(interp, entry, &mut m, &counters);
        self.metrics = m;
        out
    }

    fn exec_flat_inner(
        &mut self,
        interp: &mut Interp,
        entry: FlatEntry,
        m: &mut VmMetrics,
        counters: &Option<BlockCounters>,
    ) -> Result<Value, EvalError> {
        let mut stack: Vec<Value> = Vec::with_capacity(64);
        let mut saved: Vec<FlatActivation> = Vec::with_capacity(16);
        // The dispatch counter doubles as the step budget: one counter to
        // bump, one register compare per op.
        let limit: u64 = match self.max_steps {
            Some(n) => m.dispatches.saturating_add(n),
            None => u64::MAX,
        };
        let mut cur = self.flat_activation(entry, NO_DEF, None);
        enter_block_at(counters, m, cur.counter_base, cur.code.entry_block);
        loop {
            if m.dispatches >= limit {
                return Err(EvalError::new(EvalErrorKind::Fuel, "vm step budget exhausted"));
            }
            m.dispatches += 1;
            let op = cur.code.ops[cur.pc as usize];
            cur.pc += 1;
            match op {
                Op::Imm { pool } => stack.push(cur.code.imms[pool as usize].clone()),
                Op::DatumConst { pool } => {
                    stack.push(Value::from_datum(&cur.code.datums[pool as usize]))
                }
                Op::SyntaxConst { pool } => {
                    stack.push(Value::Syntax(cur.code.syntaxes[pool as usize].clone()))
                }
                Op::Unspecified => stack.push(Value::Unspecified),
                Op::LocalRef { depth, index } => {
                    let frame = cur.frame.as_ref().expect("local ref without frame");
                    stack.push(frame.get(depth, index));
                }
                Op::GlobalRef { name, cache } => {
                    let cell = &cur.globals[cache as usize];
                    let mut slot = cell.get();
                    if slot == UNRESOLVED {
                        slot = interp.global_slot_or_reserve(name);
                        cell.set(slot);
                    }
                    match interp.global_by_slot(slot) {
                        Some(v) => stack.push(v.clone()),
                        None => {
                            return Err(EvalError::new(
                                EvalErrorKind::Unbound,
                                format!("unbound variable `{name}`"),
                            ))
                        }
                    }
                }
                Op::SetLocal { depth, index } => {
                    let v = stack.pop().expect("stack underflow");
                    cur.frame
                        .as_ref()
                        .expect("local set without frame")
                        .set(depth, index, v);
                }
                Op::SetGlobal { name } => {
                    if interp.global(name).is_none() {
                        return Err(EvalError::new(
                            EvalErrorKind::Unbound,
                            format!("set!: unbound variable `{name}`"),
                        ));
                    }
                    let v = stack.pop().expect("stack underflow");
                    interp.define_global(name, v);
                }
                Op::DefineGlobal { name } => {
                    let v = stack.pop().expect("stack underflow");
                    interp.define_global(name, v);
                }
                Op::PushFrame { n } => {
                    let slots = stack.split_off(stack.len() - n as usize);
                    cur.frame = Some(Frame::new(slots, cur.frame.take()));
                }
                Op::PushFrameUnspec { n } => {
                    cur.frame = Some(Frame::new(
                        vec![Value::Unspecified; n as usize],
                        cur.frame.take(),
                    ));
                }
                Op::PopFrame => {
                    let frame = cur.frame.take().expect("pop without frame");
                    cur.frame = frame.parent().cloned();
                }
                Op::MakeClosure { pool } => {
                    stack.push(Value::Closure(Rc::new(Closure {
                        def: cur.code.lambdas[pool as usize].clone(),
                        env: cur.frame.clone(),
                    })));
                }
                Op::Call { argc, src } => {
                    if let Some(v) = quick_call(&mut stack, argc) {
                        m.calls += 1;
                        stack.push(v);
                        continue;
                    }
                    let src = cur.code.srcs[src as usize];
                    self.call_value(
                        interp, argc, src, &mut stack, &mut saved, &mut cur, m, counters,
                    )?;
                }
                Op::Pop => {
                    stack.pop().expect("stack underflow");
                }
                Op::Jump { target } => {
                    transfer_to(m, target);
                    cur.pc = target.pc;
                    enter_block_at(counters, m, cur.counter_base, target.block());
                }
                Op::Branch { then_, else_ } => {
                    let cond = stack.pop().expect("stack underflow");
                    let target = if cond.is_truthy() { then_ } else { else_ };
                    transfer_to(m, target);
                    cur.pc = target.pc;
                    enter_block_at(counters, m, cur.counter_base, target.block());
                }
                Op::Return => {
                    let v = stack.pop().expect("stack underflow");
                    match saved.pop() {
                        None => return Ok(v),
                        Some(prev) => {
                            cur = prev;
                            stack.push(v);
                        }
                    }
                }
                Op::TailCall { argc, src } => {
                    let flow = match quick_call(&mut stack, argc) {
                        Some(v) => {
                            m.calls += 1;
                            Some(v)
                        }
                        None if tail_frame_is_reusable(&stack, &cur.frame, argc) => {
                            m.calls += 1;
                            let frame = cur.frame.as_ref().expect("reuse without frame");
                            frame.refill_from_stack(&mut stack);
                            let Value::Closure(c) = stack.pop().expect("stack underflow")
                            else {
                                unreachable!("reuse check admitted a non-closure")
                            };
                            // A self-call re-enters the code already in
                            // hand; only a different callee needs the
                            // lowering cache.
                            let key = Rc::as_ptr(&c.def) as usize;
                            if key != cur.def_key {
                                let entry = self.flat_for(&c.def);
                                cur.counter_base =
                                    self.counter_base(entry.code.id, entry.code.block_count);
                                cur.globals = entry.globals;
                                cur.code = entry.code;
                                cur.def_key = key;
                            }
                            cur.pc = cur.code.entry_pc;
                            enter_block_at(counters, m, cur.counter_base, cur.code.entry_block);
                            None
                        }
                        None => {
                            let src = cur.code.srcs[src as usize];
                            self.tail_call_value(
                                interp, argc, src, &mut stack, &mut cur, m, counters,
                            )?
                        }
                    };
                    if let Some(v) = flow {
                        match saved.pop() {
                            None => return Ok(v),
                            Some(prev) => {
                                cur = prev;
                                stack.push(v);
                            }
                        }
                    }
                }

                // --- Superinstructions ---------------------------------
                Op::LocalLocal {
                    depth0,
                    index0,
                    depth1,
                    index1,
                } => {
                    m.fused_dispatches += 1;
                    let frame = cur.frame.as_ref().expect("local ref without frame");
                    let a = frame.get(depth0, index0);
                    let b = frame.get(depth1, index1);
                    stack.push(a);
                    stack.push(b);
                }
                Op::LocalCall {
                    depth,
                    index,
                    argc,
                    src,
                } => {
                    m.fused_dispatches += 1;
                    let local = cur
                        .frame
                        .as_ref()
                        .expect("local ref without frame")
                        .get(depth, index);
                    // Re-materialize the push the fusion elided, then take
                    // the common call path (incl. the quickened fast path).
                    stack.push(local);
                    if let Some(v) = quick_call(&mut stack, argc) {
                        m.calls += 1;
                        stack.push(v);
                        continue;
                    }
                    let src = cur.code.srcs[src as usize];
                    self.call_value(
                        interp, argc, src, &mut stack, &mut saved, &mut cur, m, counters,
                    )?;
                }
                Op::ImmCall { pool, argc, src } => {
                    m.fused_dispatches += 1;
                    let imm = cur.code.imms[pool as usize].clone();
                    stack.push(imm);
                    if let Some(v) = quick_call(&mut stack, argc) {
                        m.calls += 1;
                        stack.push(v);
                        continue;
                    }
                    let src = cur.code.srcs[src as usize];
                    self.call_value(
                        interp, argc, src, &mut stack, &mut saved, &mut cur, m, counters,
                    )?;
                }
                Op::ImmBranch { target } => {
                    m.fused_dispatches += 1;
                    transfer_to(m, target);
                    cur.pc = target.pc;
                    enter_block_at(counters, m, cur.counter_base, target.block());
                }
                Op::LocalReturn { depth, index } => {
                    m.fused_dispatches += 1;
                    let v = cur
                        .frame
                        .as_ref()
                        .expect("local ref without frame")
                        .get(depth, index);
                    match saved.pop() {
                        None => return Ok(v),
                        Some(prev) => {
                            cur = prev;
                            stack.push(v);
                        }
                    }
                }
            }
        }
    }

    /// Non-tail call dispatch for the flat engine, with `[callee, args…]`
    /// on top of `stack`: closures push the current activation and enter
    /// their flat code; anything else applies in place.
    #[allow(clippy::too_many_arguments)]
    fn call_value(
        &mut self,
        interp: &mut Interp,
        argc: u16,
        src: Option<SourceObject>,
        stack: &mut Vec<Value>,
        saved: &mut Vec<FlatActivation>,
        cur: &mut FlatActivation,
        m: &mut VmMetrics,
        counters: &Option<BlockCounters>,
    ) -> Result<(), EvalError> {
        m.calls += 1;
        let at = stack.len() - 1 - argc as usize;
        if !matches!(stack[at], Value::Closure(_)) {
            let v = apply_in_place(interp, stack, at).map_err(|e| e.with_src(src))?;
            stack.push(v);
            return Ok(());
        }
        let (c, frame) = pop_closure_frame(stack, at).map_err(|e| e.with_src(src))?;
        let entry = self.flat_for(&c.def);
        let next = self.flat_activation(entry, Rc::as_ptr(&c.def) as usize, Some(frame));
        saved.push(std::mem::replace(cur, next));
        enter_block_at(counters, m, cur.counter_base, cur.code.entry_block);
        Ok(())
    }

    /// Tail call dispatch for the flat engine. Returns `Some(v)` when the
    /// callee was not a closure (the value must flow to the caller's saved
    /// activation or out of the run); `None` when a closure replaced the
    /// current activation.
    #[allow(clippy::too_many_arguments)]
    fn tail_call_value(
        &mut self,
        interp: &mut Interp,
        argc: u16,
        src: Option<SourceObject>,
        stack: &mut Vec<Value>,
        cur: &mut FlatActivation,
        m: &mut VmMetrics,
        counters: &Option<BlockCounters>,
    ) -> Result<Option<Value>, EvalError> {
        m.calls += 1;
        let at = stack.len() - 1 - argc as usize;
        if !matches!(stack[at], Value::Closure(_)) {
            let v = apply_in_place(interp, stack, at).map_err(|e| e.with_src(src))?;
            return Ok(Some(v));
        }
        let (c, frame) = pop_closure_frame(stack, at).map_err(|e| e.with_src(src))?;
        let entry = self.flat_for(&c.def);
        *cur = self.flat_activation(entry, Rc::as_ptr(&c.def) as usize, Some(frame));
        enter_block_at(counters, m, cur.counter_base, cur.code.entry_block);
        Ok(None)
    }
}

/// Applies the non-closure callee at `stack[at]` to the arguments above
/// it. A native reads them as a slice of the operand stack — no argument
/// `Vec` — and callee and arguments are popped whether or not the call
/// succeeded. Natives and type errors share [`Interp::apply`] with the
/// tree walker.
fn apply_in_place(
    interp: &mut Interp,
    stack: &mut Vec<Value>,
    at: usize,
) -> Result<Value, EvalError> {
    let out = interp.apply(&stack[at], &stack[at + 1..]);
    stack.truncate(at);
    out
}

/// Pops the closure at `stack[at]` and the arguments above it, binding the
/// arguments as its fresh frame (the split-off tail becomes the frame's
/// slots, so the call allocates the frame and nothing else).
fn pop_closure_frame(
    stack: &mut Vec<Value>,
    at: usize,
) -> Result<(Rc<Closure>, Rc<Frame>), EvalError> {
    let args = stack.split_off(at + 1);
    let Some(Value::Closure(c)) = stack.pop() else {
        unreachable!("caller checked for a closure")
    };
    let frame = c.bind_frame(args)?;
    Ok((c, frame))
}

/// Records entry into a block against the register-resident
/// metrics/counters pair: activation entry and every taken `Jump`/`Branch`
/// edge, never a return into a block's middle.
#[inline]
fn enter_block_at(counters: &Option<BlockCounters>, m: &mut VmMetrics, base: u32, block: BlockId) {
    m.blocks_executed += 1;
    if let Some(c) = counters {
        c.increment_at(base, block);
    }
}

/// Fall-through/taken classification against a local metrics struct.
#[inline]
fn transfer_to(m: &mut VmMetrics, t: JumpTarget) {
    if t.fallthrough() {
        m.fallthroughs += 1;
    } else {
        m.taken_jumps += 1;
    }
}

/// Whether a closure tail call may overwrite the current activation's
/// frame in place instead of allocating a fresh one: the callee (sitting
/// below `argc` arguments on the stack) must be a non-variadic closure of
/// exactly `argc` params whose environment is the frame's parent, and the
/// frame itself must be unshared (`Rc` count 1 — no closure captured it,
/// no other activation holds it) with exactly `argc` slots. Under those
/// conditions the fresh frame the generic path would build is
/// indistinguishable from the refilled one, so reuse only skips the two
/// allocations (argument `Vec` + frame `Rc`) of the hot self-call.
#[inline]
fn tail_frame_is_reusable(stack: &[Value], frame: &Option<Rc<Frame>>, argc: u16) -> bool {
    let Some(f) = frame else { return false };
    let Value::Closure(c) = &stack[stack.len() - 1 - argc as usize] else {
        return false;
    };
    !c.def.variadic
        && c.def.params as usize == argc as usize
        && Rc::strong_count(f) == 1
        && f.len() == argc as usize
        && match (f.parent(), &c.env) {
            (None, None) => true,
            (Some(p), Some(e)) => Rc::ptr_eq(p, e),
            _ => false,
        }
}

/// The quickened call fast path: with `[callee, args…]` on top of `stack`,
/// executes prelude fixnum primitives inline — no argument `Vec`, no boxed
/// call. Returns the result after popping the operands, or `None` with the
/// stack untouched whenever anything is off-pattern (no `quick` tag,
/// non-`Int` operand, overflow), so the generic path keeps full
/// number-tower and error semantics. Callers count the call on success,
/// keeping `VmMetrics::calls` identical to the unquickened engines.
#[inline]
fn quick_call(stack: &mut Vec<Value>, argc: u16) -> Option<Value> {
    let n = stack.len();
    let result = match argc {
        2 => {
            let [Value::Native(nat), Value::Int(a), Value::Int(b)] = &stack[n - 3..] else {
                return None;
            };
            let (a, b) = (*a, *b);
            match nat.quick? {
                QuickOp::Add => Value::Int(a.checked_add(b)?),
                QuickOp::Sub => Value::Int(a.checked_sub(b)?),
                QuickOp::Mul => Value::Int(a.checked_mul(b)?),
                QuickOp::Lt => Value::Bool(a < b),
                QuickOp::Gt => Value::Bool(a > b),
                QuickOp::Le => Value::Bool(a <= b),
                QuickOp::Ge => Value::Bool(a >= b),
                QuickOp::NumEq => Value::Bool(a == b),
                QuickOp::Add1 | QuickOp::Sub1 => return None,
            }
        }
        1 => {
            let [Value::Native(nat), Value::Int(a)] = &stack[n - 2..] else {
                return None;
            };
            let a = *a;
            match nat.quick? {
                QuickOp::Add1 => Value::Int(a.checked_add(1)?),
                QuickOp::Sub1 => Value::Int(a.checked_sub(1)?),
                QuickOp::Sub => Value::Int(a.checked_neg()?),
                _ => return None,
            }
        }
        _ => return None,
    };
    stack.truncate(n - (argc as usize + 1));
    Some(result)
}
