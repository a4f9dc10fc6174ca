//! The stack VM executing basic-block bytecode.
//!
//! A chunk's op stream runs as the compiler laid it out, by index — one
//! small `Copy` op per step, constants pre-converted into a side pool.
//! The code belongs to the program, not the VM: a lambda keeps its chunk
//! on its [`LambdaDef`], so a generation's code is freed with it. Block
//! counters and [`VmMetrics`] count the blocks and edges of the chunk's
//! block table. The tree-walking interpreter is the semantic reference;
//! the differential oracle in `tests/proptests.rs` holds the VM to it.

use crate::chunk::{BlockId, Chunk, Code, JumpTarget, Op};
use crate::compile::compile_chunk;
use crate::counters::{BlockCounters, DerivedCounts};
use crate::layout::optimize_layout;
use pgmp_eval::{
    Callee, Closure, Core, EvalError, EvalErrorKind, Frame, Interp, LambdaDef, QuickOp, Value,
};
use pgmp_observe as observe;
use std::rc::{Rc, Weak};

/// How the VM executes chunks. Flat op streams are the one engine; the
/// type remains only because `AdaptiveEngine::enable_vm_serving` still
/// takes (and ignores) one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchMode {
    /// Execute the chunk's op stream by index.
    #[default]
    Flat,
}

/// Execution statistics: the cost model block-level PGO optimizes.
///
/// A `Jump`/`Branch` to the block laid out immediately after the current
/// one counts as a fall-through; any other target is a taken jump. Layout
/// optimization ([`crate::optimize_layout`]) raises the fall-through ratio
/// on hot paths.
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
}

struct Activation {
    code: Chunk,
    pc: u32,
    frame: Option<Rc<Frame>>,
    /// Base of this chunk's block-counter range, resolved once per
    /// activation, so block entry bumps a slot instead of hashing
    /// `(chunk, block)` (unused when profiling is off).
    counter_base: u32,
    /// The procedure this code was compiled from, letting a tail self-call
    /// re-enter `code` without fetching it again; `None` for top-level
    /// chunks. Held, not just compared, so its address cannot be reused
    /// while the activation runs.
    def: Option<Rc<LambdaDef>>,
}

/// The chunk compiled from `def`'s body, compiled at the first call and
/// kept on the def ([`LambdaDef::code`]) so that it is freed with the def.
#[inline]
fn lambda_chunk(def: &LambdaDef) -> Chunk {
    if let Some(code) = def.code.get::<Code>() {
        return Chunk(code);
    }
    let chunk = compile_chunk(&def.body);
    def.code.set(chunk.0.clone());
    chunk
}

/// The bytecode virtual machine.
///
/// Owns no code: the caller holds its top-level chunks, and a lambda's
/// chunk lives on its [`LambdaDef`], so code is freed with the program
/// that holds it. The VM borrows an [`Interp`] per run for globals,
/// natives, and (tree-walked) closure application inside higher-order
/// natives. See the crate-level example.
#[derive(Default)]
pub struct Vm {
    /// The lambdas whose chunks this VM registered with its block
    /// counters: what [`Vm::relayout`] and [`Vm::compiled_chunks`] reach.
    /// Dead entries are pruned as the list grows and at each relayout.
    lambdas: Vec<Weak<LambdaDef>>,
    /// Length of `lambdas` after its last pruning.
    pruned_len: usize,
    /// Block-level profile counters, when enabled.
    pub block_counters: Option<BlockCounters>,
    /// Where each lambda chunk the VM counts is tracked, when counting for
    /// [`DerivedCounts`].
    derived: Option<DerivedCounts>,
    /// Execution statistics for the current/most recent run.
    pub metrics: VmMetrics,
}

impl Vm {
    /// Creates a VM (no profiling). The step budget is the interpreter's
    /// fuel ([`Interp::set_fuel`]): one unit per dispatched op.
    pub fn new() -> Vm {
        Vm::default()
    }

    /// Enables block-level profiling into `counters`.
    pub fn set_block_profiling(&mut self, counters: BlockCounters) {
        self.block_counters = Some(counters);
    }

    /// Enables block-level profiling into `counts`' registry, and tracks
    /// in `counts` every lambda chunk the VM counts from now on, so that
    /// [`DerivedCounts::drain`] covers the lambdas run, not just the
    /// top-level chunks the caller tracks itself.
    pub fn set_derived_counts(&mut self, counts: DerivedCounts) {
        self.block_counters = Some(counts.blocks().clone());
        self.derived = Some(counts);
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
        let out = self.exec(interp, chunk.clone());
        // The run is over: park the sampling beacon (no-op on exact
        // registries) so samples taken between runs attribute nothing.
        if let Some(counters) = &self.block_counters {
            counters.store().park();
        }
        observe::metrics().gauge_set("vm.fallthrough_ratio", self.metrics.fallthrough_ratio());
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

    /// The chunks of the live lambdas this VM has counted blocks of, in
    /// chunk-id order; used by the three-pass driver to check CFG
    /// stability.
    pub fn compiled_chunks(&self) -> Vec<Chunk> {
        let mut chunks: Vec<Chunk> = self
            .lambdas
            .iter()
            .filter_map(|def| def.upgrade()?.code.get::<Code>().map(Chunk))
            .collect();
        chunks.sort_by_key(|c| c.id);
        chunks.dedup_by_key(|c| c.id);
        chunks
    }

    /// Block-level PGO in one call: re-lays-out the caller's top-level
    /// `chunks` and the chunk of every live lambda this VM has counted,
    /// under the same `counters`. Each new layout is a new chunk; the
    /// lambdas' new chunks replace the old ones on their defs, under the
    /// same ids. A chunk whose layout does not change stays as it is.
    pub fn relayout(&mut self, chunks: &mut [Chunk], counters: &BlockCounters) {
        for chunk in chunks.iter_mut() {
            if let Some(new) = optimize_layout(chunk, counters) {
                *chunk = new;
            }
        }
        for def in self.prune_lambdas() {
            if let Some(code) = def.code.get::<Code>() {
                if let Some(new) = optimize_layout(&Chunk(code), counters) {
                    def.code.set(new.0);
                }
            }
        }
    }

    /// Drops the dead entries of `lambdas`, and duplicates, returning the
    /// live defs.
    fn prune_lambdas(&mut self) -> Vec<Rc<LambdaDef>> {
        let mut live: Vec<Rc<LambdaDef>> = self.lambdas.iter().filter_map(Weak::upgrade).collect();
        live.sort_by_key(Rc::as_ptr);
        live.dedup_by(|a, b| Rc::ptr_eq(a, b));
        self.lambdas = live.iter().map(Rc::downgrade).collect();
        self.pruned_len = self.lambdas.len();
        live
    }

    /// Resolves a chunk's block-counter base once per activation — the
    /// per-call cost that buys hash-free block entries. The first time a
    /// lambda's chunk is counted, the VM remembers the lambda (for
    /// relayout) and tracks its chunk for [`DerivedCounts`].
    #[inline]
    fn counter_base(&mut self, code: &Chunk, def: Option<&Rc<LambdaDef>>) -> u32 {
        let Some(counters) = &self.block_counters else {
            return 0;
        };
        let (base, fresh) = counters.register(code.id, code.blocks.len() as u32);
        if let (true, Some(def)) = (fresh, def) {
            self.remember(def);
        }
        base
    }

    /// Remembers a lambda whose chunk was just counted for the first time.
    #[cold]
    fn remember(&mut self, def: &Rc<LambdaDef>) {
        if let Some(derived) = &self.derived {
            derived.track(lambda_chunk(def));
        }
        if self.lambdas.len() >= 2 * self.pruned_len.max(32) {
            self.prune_lambdas();
        }
        self.lambdas.push(Rc::downgrade(def));
    }

    /// Builds an activation running `code` (compiled from `def`, for a
    /// lambda) under `frame`.
    fn activation(
        &mut self,
        code: Chunk,
        def: Option<Rc<LambdaDef>>,
        frame: Option<Rc<Frame>>,
    ) -> Activation {
        let counter_base = self.counter_base(&code, def.as_ref());
        Activation {
            pc: 0,
            code,
            frame,
            counter_base,
            def,
        }
    }

    /// The engine: executes an op stream by index. Every op is a
    /// small `Copy` read out of one contiguous `Vec`; constants come
    /// pre-converted from the pool. The loop runs against a local
    /// `VmMetrics` and a local counters handle (this wrapper writes the
    /// metrics back on every exit path), so per-step bookkeeping stays in
    /// registers instead of round-tripping through `self`. The ops the run
    /// dispatched are charged to the interpreter's fuel ([`Fuel`]).
    fn exec(&mut self, interp: &mut Interp, code: Chunk) -> Result<Value, EvalError> {
        let mut m = self.metrics;
        let counters = self.block_counters.clone();
        let mut fuel = Fuel::new(interp, m.dispatches);
        let out = self.exec_inner(interp, code, &mut m, &counters, &mut fuel);
        fuel.charge(interp, m.dispatches);
        self.metrics = m;
        out
    }

    fn exec_inner(
        &mut self,
        interp: &mut Interp,
        code: Chunk,
        m: &mut VmMetrics,
        counters: &Option<BlockCounters>,
        fuel: &mut Fuel,
    ) -> Result<Value, EvalError> {
        let mut stack: Vec<Value> = Vec::with_capacity(64);
        let mut saved: Vec<Activation> = Vec::with_capacity(16);
        // Code read by `LocalCallee`, awaiting its call op; `None` when the
        // operator was a value, pushed on `stack` as the callee. Operands
        // nest, so each call op pops the entry its `LocalCallee` pushed.
        let mut code_callees: Vec<Option<(Rc<LambdaDef>, Rc<Frame>)>> = Vec::new();
        // The tag of every global slot this run resolves (see
        // `Code::globals`).
        let interp_tag = u64::from(interp.id()) << 32;
        let mut cur = self.activation(code, None, None);
        enter_block_at(counters, m, cur.counter_base, 0);
        loop {
            // The dispatch counter doubles as the step budget: one counter
            // to bump, one compare per op.
            if m.dispatches >= fuel.limit {
                return Err(EvalError::new(EvalErrorKind::Fuel, "fuel exhausted"));
            }
            m.dispatches += 1;
            let op = cur.code.ops[cur.pc as usize];
            cur.pc += 1;
            match op {
                Op::Imm { pool } => stack.push(cur.code.pools.imms[pool as usize].clone()),
                Op::DatumConst { pool } => {
                    stack.push(Value::from_datum(&cur.code.pools.datums[pool as usize]))
                }
                Op::SyntaxConst { pool } => stack.push(Value::Syntax(
                    cur.code.pools.syntaxes[pool as usize].clone(),
                )),
                Op::Unspecified => stack.push(Value::Unspecified),
                Op::LocalRef { depth, index } => {
                    let frame = cur.frame.as_ref().expect("local ref without frame");
                    stack.push(frame.get(depth, index));
                }
                Op::GlobalRef { name, cache } => {
                    let cell = &cur.code.globals[cache as usize];
                    let mut packed = cell.get();
                    if packed & !u64::from(u32::MAX) != interp_tag {
                        packed = interp_tag | u64::from(interp.global_slot_or_reserve(name));
                        cell.set(packed);
                    }
                    match interp.global_by_slot(packed as u32) {
                        Some(v) => stack.push(v.clone()),
                        None => {
                            return Err(EvalError::new(
                                EvalErrorKind::Unbound,
                                format!("unbound variable `{name}`"),
                            )
                            .with_src(cur.code.global_src(cache)))
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
                Op::SetGlobal { name, src } => {
                    if interp.global(name).is_none() {
                        return Err(EvalError::new(
                            EvalErrorKind::Unbound,
                            format!("set!: unbound variable `{name}`"),
                        )
                        .with_src(cur.code.pools.srcs[src as usize]));
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
                    cur.frame = Some(Frame::letrec(n as usize, cur.frame.take()));
                }
                Op::PopFrame => {
                    let frame = cur.frame.take().expect("pop without frame");
                    cur.frame = frame.parent().cloned();
                }
                Op::MakeClosure { pool } => {
                    stack.push(Value::Closure(Rc::new(Closure {
                        def: cur.code.pools.lambdas[pool as usize].clone(),
                        env: cur.frame.clone(),
                    })));
                }
                Op::BindCode { index, pool } => {
                    cur.frame
                        .as_ref()
                        .expect("letrec binding without frame")
                        .set_code(index, cur.code.pools.lambdas[pool as usize].clone());
                }
                Op::LocalCallee { depth, index } => {
                    let frame = cur.frame.as_ref().expect("local ref without frame");
                    match frame.callee(depth, index) {
                        Callee::Code { def, env } => {
                            code_callees.push(Some((def, env)));
                            stack.push(Value::Unspecified);
                        }
                        Callee::Value(v) => {
                            code_callees.push(None);
                            stack.push(v);
                        }
                    }
                }
                op @ (Op::Call { argc, src } | Op::CallLocal { argc, src }) => {
                    m.calls += 1;
                    if let Op::CallLocal { .. } = op {
                        if let Some((def, env)) = pop_code_callee(&mut code_callees) {
                            self.enter_call(
                                def,
                                Some(env),
                                argc,
                                src,
                                &mut stack,
                                &mut saved,
                                &mut cur,
                            )?;
                            enter_block_at(counters, m, cur.counter_base, 0);
                            continue;
                        }
                    }
                    if let Some(v) = quick_call(&mut stack, argc) {
                        stack.push(v);
                        continue;
                    }
                    self.call_value(
                        interp, argc, src, &mut stack, &mut saved, &mut cur, m, counters, fuel,
                    )?;
                }
                Op::SyntaxMatch {
                    pool,
                    depth,
                    index,
                    src,
                } => {
                    let frame = cur.frame.as_ref().expect("local ref without frame");
                    let v = cur.code.pools.matchers[pool as usize]
                        .dispatch(&frame.get(depth, index))
                        .map_err(|e| e.with_src(cur.code.pools.srcs[src as usize]))?;
                    stack.push(v);
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
                op @ (Op::TailCall { argc, src } | Op::TailCallLocal { argc, src }) => {
                    m.calls += 1;
                    let code = match op {
                        Op::TailCallLocal { .. } => pop_code_callee(&mut code_callees),
                        _ => None,
                    };
                    let flow = match code {
                        Some((def, env)) => {
                            self.enter_tail_call(def, Some(env), argc, src, &mut stack, &mut cur)?;
                            enter_block_at(counters, m, cur.counter_base, 0);
                            None
                        }
                        None => match quick_call(&mut stack, argc) {
                            Some(v) => Some(v),
                            None => self.tail_call_value(
                                interp, argc, src, &mut stack, &mut cur, m, counters, fuel,
                            )?,
                        },
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
            }
        }
    }

    /// Non-tail call dispatch, with `[callee, args…]` on top of `stack`
    /// (quickened primitives already ruled out): closures push the current
    /// activation and enter their code; anything else applies in
    /// place.
    #[allow(clippy::too_many_arguments)]
    fn call_value(
        &mut self,
        interp: &mut Interp,
        argc: u16,
        src: u32,
        stack: &mut Vec<Value>,
        saved: &mut Vec<Activation>,
        cur: &mut Activation,
        m: &mut VmMetrics,
        counters: &Option<BlockCounters>,
        fuel: &mut Fuel,
    ) -> Result<(), EvalError> {
        let at = stack.len() - 1 - argc as usize;
        let Value::Closure(c) = &stack[at] else {
            let v = fuel
                .apply_native(interp, m.dispatches, stack, at)
                .map_err(|e| e.with_src(cur.code.pools.srcs[src as usize]))?;
            stack.push(v);
            return Ok(());
        };
        let (def, env) = (c.def.clone(), c.env.clone());
        self.enter_call(def, env, argc, src, stack, saved, cur)?;
        enter_block_at(counters, m, cur.counter_base, 0);
        Ok(())
    }

    /// Tail call dispatch, with `[callee, args…]` on top of `stack`.
    /// Returns `Some(v)` when the callee was not a closure (the value must
    /// flow to the caller's saved activation or out of the run); `None`
    /// when a closure replaced the current activation.
    #[allow(clippy::too_many_arguments)]
    fn tail_call_value(
        &mut self,
        interp: &mut Interp,
        argc: u16,
        src: u32,
        stack: &mut Vec<Value>,
        cur: &mut Activation,
        m: &mut VmMetrics,
        counters: &Option<BlockCounters>,
        fuel: &mut Fuel,
    ) -> Result<Option<Value>, EvalError> {
        let at = stack.len() - 1 - argc as usize;
        let Value::Closure(c) = &stack[at] else {
            let v = fuel
                .apply_native(interp, m.dispatches, stack, at)
                .map_err(|e| e.with_src(cur.code.pools.srcs[src as usize]))?;
            return Ok(Some(v));
        };
        let (def, env) = (c.def.clone(), c.env.clone());
        self.enter_tail_call(def, env, argc, src, stack, cur)?;
        enter_block_at(counters, m, cur.counter_base, 0);
        Ok(None)
    }

    /// Enters procedure `def` under `env` as a new activation, saving the
    /// current one, with `[callee, args…]` on top of `stack`.
    #[allow(clippy::too_many_arguments)]
    fn enter_call(
        &mut self,
        def: Rc<LambdaDef>,
        env: Option<Rc<Frame>>,
        argc: u16,
        src: u32,
        stack: &mut Vec<Value>,
        saved: &mut Vec<Activation>,
        cur: &mut Activation,
    ) -> Result<(), EvalError> {
        let frame = bind_from_stack(&def, env, argc, stack)
            .map_err(|e| e.with_src(cur.code.pools.srcs[src as usize]))?;
        let next = self.activation(lambda_chunk(&def), Some(def), Some(frame));
        saved.push(std::mem::replace(cur, next));
        Ok(())
    }

    /// Enters procedure `def` under `env` in place of the current
    /// activation, with `[callee, args…]` on top of `stack`. When the
    /// current frame can be refilled unobservably (see
    /// [`tail_frame_is_reusable`]) the call allocates nothing, and a
    /// self-call keeps the code already in hand; only a different callee
    /// fetches its code.
    #[inline]
    fn enter_tail_call(
        &mut self,
        def: Rc<LambdaDef>,
        env: Option<Rc<Frame>>,
        argc: u16,
        src: u32,
        stack: &mut Vec<Value>,
        cur: &mut Activation,
    ) -> Result<(), EvalError> {
        if tail_frame_is_reusable(&def, env.as_ref(), &cur.frame, argc) {
            let frame = cur.frame.as_ref().expect("reuse without frame");
            frame.refill_from_stack(stack);
            stack.pop().expect("callee below the arguments");
            if !cur.def.as_ref().is_some_and(|d| Rc::ptr_eq(d, &def)) {
                let code = lambda_chunk(&def);
                cur.counter_base = self.counter_base(&code, Some(&def));
                cur.code = code;
                cur.def = Some(def);
            }
            cur.pc = 0;
            return Ok(());
        }
        let frame = bind_from_stack(&def, env, argc, stack)
            .map_err(|e| e.with_src(cur.code.pools.srcs[src as usize]))?;
        *cur = self.activation(lambda_chunk(&def), Some(def), Some(frame));
        Ok(())
    }
}

/// The interpreter's fuel ([`Interp::set_fuel`]) as the VM spends it:
/// one unit per dispatched op. The ops are counted in
/// [`VmMetrics::dispatches`] and charged to the interpreter in batches,
/// before each native call, whose callbacks into the tree walker spend
/// fuel themselves, and when the run returns; so a run spends at most
/// the budget, whichever executor takes the steps.
struct Fuel {
    /// Whether the run has a budget at all; without one, native calls
    /// skip the bookkeeping.
    metered: bool,
    /// The dispatch count charged so far.
    charged: u64,
    /// The dispatch count at which the budget runs out (`u64::MAX` when
    /// there is no budget).
    limit: u64,
}

impl Fuel {
    fn new(interp: &Interp, dispatches: u64) -> Fuel {
        let mut fuel = Fuel {
            metered: interp.fuel().is_some(),
            charged: dispatches,
            limit: u64::MAX,
        };
        fuel.refresh(interp);
        fuel
    }

    /// Charges the ops dispatched since the last charge.
    fn charge(&mut self, interp: &mut Interp, dispatches: u64) {
        interp.spend_fuel(dispatches - self.charged);
        self.charged = dispatches;
    }

    /// Moves the limit to the fuel left, once everything is charged.
    fn refresh(&mut self, interp: &Interp) {
        self.limit = match interp.fuel() {
            Some(n) => self.charged.saturating_add(n),
            None => u64::MAX,
        };
    }

    /// [`apply_in_place`], with the fuel settled around the call: what the
    /// native spends comes off the VM's limit.
    fn apply_native(
        &mut self,
        interp: &mut Interp,
        dispatches: u64,
        stack: &mut Vec<Value>,
        at: usize,
    ) -> Result<Value, EvalError> {
        if !self.metered {
            return apply_in_place(interp, stack, at);
        }
        self.charge(interp, dispatches);
        let out = apply_in_place(interp, stack, at);
        self.refresh(interp);
        out
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

/// Pops `[callee, args…]` off `stack`, binding the `argc` arguments as
/// the frame of `def` under `env`. The split-off tail becomes the frame's
/// slots, so the call allocates the frame and nothing else.
fn bind_from_stack(
    def: &LambdaDef,
    env: Option<Rc<Frame>>,
    argc: u16,
    stack: &mut Vec<Value>,
) -> Result<Rc<Frame>, EvalError> {
    let args = stack.split_off(stack.len() - argc as usize);
    stack.pop().expect("callee below the arguments");
    def.bind_frame(env, args)
}

/// The entry a call op's `LocalCallee` pushed.
#[inline]
fn pop_code_callee(
    code_callees: &mut Vec<Option<(Rc<LambdaDef>, Rc<Frame>)>>,
) -> Option<(Rc<LambdaDef>, Rc<Frame>)> {
    code_callees
        .pop()
        .expect("local call without its LocalCallee — compiler bug")
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

/// Whether a tail call to `def` under `env` may overwrite the current
/// activation's frame in place instead of allocating a fresh one: `def`
/// must be non-variadic with exactly `argc` params, `env` must be the
/// frame's parent, and the frame itself must be unshared (`Rc` count 1 —
/// no closure captured it, no other activation holds it) with exactly
/// `argc` slots. Under those conditions the fresh frame the generic path
/// would build is indistinguishable from the refilled one, so reuse only
/// skips the two allocations (argument `Vec` + frame `Rc`) of the hot
/// self-call.
#[inline]
fn tail_frame_is_reusable(
    def: &LambdaDef,
    env: Option<&Rc<Frame>>,
    frame: &Option<Rc<Frame>>,
    argc: u16,
) -> bool {
    let Some(f) = frame else { return false };
    !def.variadic
        && def.params as usize == argc as usize
        && Rc::strong_count(f) == 1
        && f.len() == argc as usize
        && match (f.parent(), env) {
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
