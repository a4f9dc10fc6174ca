//! The tree-walking interpreter.

use crate::core_expr::{Core, CoreKind};
use crate::env::Frame;
use crate::error::{EvalError, EvalErrorKind};
use crate::value::{Closure, Native, NativeFn, Value};
use pgmp_profiler::{Counters, ProfileMode};
use pgmp_syntax::{FnvHashMap, SourceObject, Symbol};
use std::rc::Rc;

/// Longest argument list a tree-walked native call passes from a stack
/// array rather than a `Vec`.
const STACK_ARGS: usize = 4;

/// The interpreter: global environment, profiling hooks, output sink, and
/// an optional fuel budget.
///
/// The same type is used for running object programs *and* for running
/// meta-programs at expand time — the expander holds an `Interp` whose
/// globals include the profile-query API.
///
/// # Example
///
/// ```
/// use pgmp_eval::{Core, CoreKind, Interp};
/// use pgmp_syntax::Datum;
/// let mut interp = Interp::new();
/// let expr = Core::rc(CoreKind::Const(Datum::Int(42)), None);
/// let v = interp.eval(&expr, &None)?;
/// assert_eq!(v.to_string(), "42");
/// # Ok::<(), pgmp_eval::EvalError>(())
/// ```
pub struct Interp {
    /// Global variables, slot-indexed: the map interns a name to a stable
    /// index into `global_values`. Redefinition overwrites the value in
    /// place, so a resolved global slot (e.g. cached by the VM per chunk)
    /// stays valid for the lifetime of the interpreter. FNV-keyed: the
    /// tree walker looks a name up here on every global reference.
    global_slots: FnvHashMap<Symbol, u32>,
    /// Value cells in slot order; `None` marks a slot reserved (e.g. by a
    /// compiled `GlobalRef` cache) before the global was bound.
    global_values: Vec<Option<Value>>,
    global_writes: u64,
    /// Live profile counters, when instrumenting.
    pub counters: Option<Counters>,
    /// Instrumentation mode.
    pub mode: ProfileMode,
    fuel: Option<u64>,
    output: String,
    /// Warnings emitted by meta-programs (e.g. the §6.3 data-structure
    /// recommendations print here at compile time).
    pub warnings: Vec<String>,
}

impl Default for Interp {
    fn default() -> Interp {
        Interp::new()
    }
}

impl Interp {
    /// Creates an interpreter with *no* primitives installed; call
    /// [`crate::install_primitives`] (or let the engine do it) to populate
    /// the global environment.
    pub fn new() -> Interp {
        Interp {
            global_slots: FnvHashMap::default(),
            global_values: Vec::new(),
            global_writes: 0,
            counters: None,
            mode: ProfileMode::Off,
            fuel: None,
            output: String::new(),
            warnings: Vec::new(),
        }
    }

    /// Enables profiling in `mode`, counting into `counters`.
    pub fn set_profiling(&mut self, mode: ProfileMode, counters: Counters) {
        self.mode = mode;
        self.counters = Some(counters);
    }

    /// Disables profiling; profile points stop introducing any overhead.
    pub fn clear_profiling(&mut self) {
        self.mode = ProfileMode::Off;
        self.counters = None;
    }

    /// Parks the sampling beacon, if the live counters are sampling-backed:
    /// samples taken until the next profile-point entry attribute nothing.
    /// Call this from natives that genuinely block (sleeps, waits on
    /// external state) so wall-clock time spent blocked is not charged to
    /// the last-entered profile point; exact backends ignore it. The next
    /// profiled expression re-publishes the position automatically.
    #[inline]
    pub fn park_profiling(&self) {
        if let Some(counters) = &self.counters {
            counters.store().park();
        }
    }

    /// Sets a step budget. Evaluation fails with a fuel error when it runs
    /// out — useful for tests that must terminate.
    pub fn set_fuel(&mut self, fuel: Option<u64>) {
        self.fuel = fuel;
    }

    /// Defines (or redefines) a global variable. Redefinition reuses the
    /// existing slot.
    pub fn define_global(&mut self, name: Symbol, v: Value) {
        let slot = self.global_slot_or_reserve(name);
        self.global_values[slot as usize] = Some(v);
        self.global_writes += 1;
    }

    /// How many times a global has been defined or `set!` through
    /// [`Interp::define_global`] (which evaluation uses) — a cheap way to
    /// tell whether running some code changed global state.
    pub fn global_writes(&self) -> u64 {
        self.global_writes
    }

    /// Looks up a global variable.
    #[inline]
    pub fn global(&self, name: Symbol) -> Option<&Value> {
        let slot = *self.global_slots.get(&name)?;
        self.global_values[slot as usize].as_ref()
    }

    /// The stable slot index of `name`, if it has ever been defined or
    /// reserved. A slot does *not* imply the global is bound — reads still
    /// go through [`Interp::global_by_slot`], which distinguishes the two.
    pub fn global_slot(&self, name: Symbol) -> Option<u32> {
        self.global_slots.get(&name).copied()
    }

    /// Interns `name` to a global slot, reserving an unbound cell if it was
    /// never defined. Used by the VM to burn a slot index into its
    /// chunk-local global cache before the global is necessarily bound.
    pub fn global_slot_or_reserve(&mut self, name: Symbol) -> u32 {
        let values = &mut self.global_values;
        *self.global_slots.entry(name).or_insert_with(|| {
            values.push(None);
            (values.len() - 1) as u32
        })
    }

    /// Reads the global in `slot`; `None` means reserved but unbound.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never allocated.
    #[inline]
    pub fn global_by_slot(&self, slot: u32) -> Option<&Value> {
        self.global_values[slot as usize].as_ref()
    }

    /// Writes the global in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never allocated.
    #[inline]
    pub fn set_global_by_slot(&mut self, slot: u32, v: Value) {
        self.global_values[slot as usize] = Some(v);
    }

    /// Registers a native primitive under `name`.
    pub fn define_native(
        &mut self,
        name: &'static str,
        min_args: usize,
        max_args: Option<usize>,
        f: impl Fn(&mut Interp, &[Value]) -> Result<Value, EvalError> + 'static,
    ) {
        let native = Native {
            name,
            min_args,
            max_args,
            quick: crate::value::QuickOp::for_name(name),
            f: Box::new(f) as Box<NativeFn>,
        };
        self.define_global(Symbol::intern(name), Value::Native(Rc::new(native)));
    }

    /// Appends to the captured output (used by `display` and friends).
    pub fn print(&mut self, s: &str) {
        self.output.push_str(s);
    }

    /// Takes and clears the captured output.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.output)
    }

    /// Read-only view of the captured output.
    pub fn output(&self) -> &str {
        &self.output
    }

    fn burn_fuel(&mut self) -> Result<(), EvalError> {
        if let Some(fuel) = self.fuel.as_mut() {
            if *fuel == 0 {
                return Err(EvalError::new(EvalErrorKind::Fuel, "fuel exhausted"));
            }
            *fuel -= 1;
        }
        Ok(())
    }

    /// Evaluates `expr` in environment `env` (with `None` meaning only
    /// globals are visible). Proper tail calls: tail-recursive object
    /// programs run in constant Rust stack.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] for unbound variables, arity and type
    /// errors, user `error` calls, and fuel exhaustion.
    #[inline]
    pub fn eval(&mut self, expr: &Rc<Core>, env: &Option<Rc<Frame>>) -> Result<Value, EvalError> {
        // Leaves (most argument and operator positions) answer here,
        // inlined into every recursive call site, before the node and
        // environment are cloned into the loop's registers, unless a fuel
        // step or an every-expression bump is owed first.
        if expr.kind.is_leaf() && self.fuel.is_none() && self.mode != ProfileMode::EveryExpression
        {
            return self.eval_leaf(expr, env);
        }
        self.eval_loop(expr, env)
    }

    /// [`Interp::eval`]'s trampoline: runs tail positions in place.
    fn eval_loop(&mut self, expr: &Rc<Core>, env: &Option<Rc<Frame>>) -> Result<Value, EvalError> {
        let mut expr = expr.clone();
        let mut env = env.clone();
        loop {
            self.burn_fuel()?;
            if self.mode == ProfileMode::EveryExpression {
                if let (Some(counters), Some(src)) = (&self.counters, expr.src) {
                    bump(counters, &expr, src);
                }
            }
            match &expr.kind {
                CoreKind::Const(_)
                | CoreKind::SyntaxConst(_)
                | CoreKind::LocalRef { .. }
                | CoreKind::GlobalRef(_) => return self.eval_leaf(&expr, &env),
                CoreKind::SetLocal {
                    depth,
                    index,
                    value,
                } => {
                    let v = self.eval(value, &env)?;
                    env.as_ref()
                        .expect("local set! outside any frame — expander bug")
                        .set(*depth, *index, v);
                    return Ok(Value::Unspecified);
                }
                CoreKind::SetGlobal(name, value) => {
                    if self.global(*name).is_none() {
                        return Err(EvalError::new(
                            EvalErrorKind::Unbound,
                            format!("set!: unbound variable `{name}`"),
                        )
                        .with_src(expr.src));
                    }
                    let v = self.eval(value, &env)?;
                    self.define_global(*name, v);
                    return Ok(Value::Unspecified);
                }
                CoreKind::DefineGlobal(name, value) => {
                    let v = self.eval(value, &env)?;
                    self.define_global(*name, v);
                    return Ok(Value::Unspecified);
                }
                CoreKind::If(c, t, e) => {
                    let test = self.eval(c, &env)?;
                    expr = if test.is_truthy() { t.clone() } else { e.clone() };
                }
                CoreKind::Lambda(def) => {
                    return Ok(Value::Closure(Rc::new(Closure {
                        def: def.clone(),
                        env: env.clone(),
                    })));
                }
                CoreKind::Seq(es) => match es.split_last() {
                    None => return Ok(Value::Unspecified),
                    Some((last, init)) => {
                        for e in init {
                            self.eval(e, &env)?;
                        }
                        expr = last.clone();
                    }
                },
                CoreKind::Let { inits, body } => {
                    let mut slots = Vec::with_capacity(inits.len());
                    for init in inits {
                        slots.push(self.eval(init, &env)?);
                    }
                    env = Some(Frame::new(slots, env.clone()));
                    expr = body.clone();
                }
                CoreKind::LetRec { inits, body } => {
                    let frame = Frame::new(vec![Value::Unspecified; inits.len()], env.clone());
                    let inner = Some(frame.clone());
                    for (i, init) in inits.iter().enumerate() {
                        let v = self.eval(init, &inner)?;
                        frame.set(0, i as u16, v);
                    }
                    env = inner;
                    expr = body.clone();
                }
                CoreKind::Call { func, args } => {
                    if self.mode == ProfileMode::CallsOnly {
                        if let (Some(counters), Some(src)) = (&self.counters, expr.src) {
                            bump(counters, &expr, src);
                        }
                    }
                    let f = self.eval(func, &env)?;
                    let Value::Closure(c) = f else {
                        // Natives borrow their arguments: a short argument
                        // list evaluates into a stack array, so the common
                        // native call allocates nothing.
                        let out = if args.len() <= STACK_ARGS {
                            let mut argv = [const { Value::Unspecified }; STACK_ARGS];
                            for (slot, a) in argv.iter_mut().zip(args) {
                                *slot = self.eval(a, &env)?;
                            }
                            self.apply(&f, &argv[..args.len()])
                        } else {
                            let argv: Vec<Value> = args
                                .iter()
                                .map(|a| self.eval(a, &env))
                                .collect::<Result<_, _>>()?;
                            self.apply(&f, &argv)
                        };
                        return out.map_err(|e| e.with_src(expr.src));
                    };
                    let mut argv = Vec::with_capacity(args.len());
                    for a in args {
                        argv.push(self.eval(a, &env)?);
                    }
                    env = Some(c.bind_frame(argv).map_err(|e| e.with_src(expr.src))?);
                    expr = c.def.body.clone();
                }
            }
        }
    }

    /// Applies a procedure value to arguments, from Rust. Used by
    /// higher-order primitives and by the expander to invoke macro
    /// transformers.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] if `f` is not a procedure or its body
    /// fails.
    pub fn apply(&mut self, f: &Value, args: &[Value]) -> Result<Value, EvalError> {
        match f {
            Value::Native(n) => {
                check_native_arity(n, args.len())?;
                (n.f)(self, args)
            }
            Value::Closure(c) => {
                let frame = c.bind_frame(args.to_vec())?;
                self.eval(&c.def.body, &Some(frame))
            }
            other => Err(EvalError::type_error("procedure", other)),
        }
    }

    /// Evaluates a leaf (see [`CoreKind::is_leaf`]): a constant or a
    /// variable reference, which owes no fuel step or counter bump of its
    /// own beyond what [`Interp::eval`] already charged.
    #[inline(always)]
    fn eval_leaf(&self, expr: &Core, env: &Option<Rc<Frame>>) -> Result<Value, EvalError> {
        match &expr.kind {
            CoreKind::Const(d) => Ok(Value::from_datum(d)),
            CoreKind::SyntaxConst(s) => Ok(Value::Syntax(s.clone())),
            CoreKind::LocalRef { depth, index } => Ok(env
                .as_ref()
                .expect("local reference outside any frame — expander bug")
                .get(*depth, *index)),
            CoreKind::GlobalRef(name) => match self.global(*name) {
                Some(v) => Ok(v.clone()),
                None => Err(unbound(*name, expr.src)),
            },
            _ => unreachable!("eval_leaf on a non-leaf"),
        }
    }
}

#[cold]
fn unbound(name: Symbol, src: Option<SourceObject>) -> EvalError {
    EvalError::new(EvalErrorKind::Unbound, format!("unbound variable `{name}`")).with_src(src)
}

/// Records one hit of `expr`'s profile point. Slotted registries take the
/// paper's fast path: the slot id cached on the node (validated against the
/// registry's map id) makes the record a single slot op — a vector bump on
/// dense counters, one relaxed beacon store on sampling counters; the first
/// hit per node resolves and caches the slot, unless
/// [`crate::resolve_profile_slots`] already did so at instrumentation time.
#[inline]
fn bump(counters: &Counters, expr: &Core, src: SourceObject) {
    let map_id = counters.map_id();
    let slot = match expr.cached_slot(map_id) {
        Some(slot) => slot,
        None => {
            let slot = counters.resolve(src);
            expr.cache_slot(map_id, slot);
            slot
        }
    };
    counters.record_hit(slot);
}

fn check_native_arity(n: &Native, got: usize) -> Result<(), EvalError> {
    let ok = got >= n.min_args && n.max_args.is_none_or(|max| got <= max);
    if ok {
        Ok(())
    } else {
        let expected = match n.max_args {
            Some(max) if max == n.min_args => format!("{max}"),
            Some(max) => format!("{}..{}", n.min_args, max),
            None => format!("at least {}", n.min_args),
        };
        Err(EvalError::arity(n.name, &expected, got))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_expr::LambdaDef;
    use pgmp_syntax::{Datum, SourceObject};

    fn konst(n: i64) -> Rc<Core> {
        Core::rc(CoreKind::Const(Datum::Int(n)), None)
    }

    #[test]
    fn constants_and_if() {
        let mut i = Interp::new();
        let e = Core::rc(
            CoreKind::If(
                Core::rc(CoreKind::Const(Datum::Bool(false)), None),
                konst(1),
                konst(2),
            ),
            None,
        );
        assert_eq!(i.eval(&e, &None).unwrap().to_string(), "2");
    }

    #[test]
    fn define_and_reference_global() {
        let mut i = Interp::new();
        let x = Symbol::intern("x-test-global");
        i.eval(&Core::rc(CoreKind::DefineGlobal(x, konst(7)), None), &None)
            .unwrap();
        let v = i
            .eval(&Core::rc(CoreKind::GlobalRef(x), None), &None)
            .unwrap();
        assert_eq!(v.to_string(), "7");
    }

    #[test]
    fn unbound_global_errors() {
        let mut i = Interp::new();
        let e = Core::rc(
            CoreKind::GlobalRef(Symbol::intern("never-defined-anywhere")),
            None,
        );
        let err = i.eval(&e, &None).unwrap_err();
        assert_eq!(err.kind, EvalErrorKind::Unbound);
    }

    #[test]
    fn set_of_unbound_global_errors() {
        let mut i = Interp::new();
        let e = Core::rc(
            CoreKind::SetGlobal(Symbol::intern("never-set-anywhere"), konst(1)),
            None,
        );
        assert_eq!(i.eval(&e, &None).unwrap_err().kind, EvalErrorKind::Unbound);
    }

    fn identity_lambda() -> Rc<Core> {
        Core::rc(
            CoreKind::Lambda(Rc::new(LambdaDef {
                params: 1,
                variadic: false,
                body: Core::rc(CoreKind::LocalRef { depth: 0, index: 0 }, None),
                name: Some(Symbol::intern("id")),
                src: None,
            })),
            None,
        )
    }

    #[test]
    fn closure_call() {
        let mut i = Interp::new();
        let call = Core::rc(
            CoreKind::Call {
                func: identity_lambda(),
                args: vec![konst(9)],
            },
            None,
        );
        assert_eq!(i.eval(&call, &None).unwrap().to_string(), "9");
    }

    #[test]
    fn closure_arity_error() {
        let mut i = Interp::new();
        let call = Core::rc(
            CoreKind::Call {
                func: identity_lambda(),
                args: vec![konst(9), konst(10)],
            },
            None,
        );
        assert_eq!(i.eval(&call, &None).unwrap_err().kind, EvalErrorKind::Arity);
    }

    #[test]
    fn variadic_collects_rest() {
        let mut i = Interp::new();
        // (lambda args args) applied to 1 2 3.
        let lam = Core::rc(
            CoreKind::Lambda(Rc::new(LambdaDef {
                params: 0,
                variadic: true,
                body: Core::rc(CoreKind::LocalRef { depth: 0, index: 0 }, None),
                name: None,
                src: None,
            })),
            None,
        );
        let call = Core::rc(
            CoreKind::Call {
                func: lam,
                args: vec![konst(1), konst(2), konst(3)],
            },
            None,
        );
        assert_eq!(i.eval(&call, &None).unwrap().to_string(), "(1 2 3)");
    }

    #[test]
    fn tail_calls_run_in_constant_stack() {
        // (letrec ([loop (lambda (n) (if <n is zero> 42 (loop <n-1>)))]) (loop 200000))
        // Built by hand with a native decrement to avoid needing primitives.
        let mut i = Interp::new();
        i.define_native("dec!", 1, Some(1), |_, args| match &args[0] {
            Value::Int(n) => Ok(Value::Int(n - 1)),
            v => Err(EvalError::type_error("integer", v)),
        });
        i.define_native("zero?!", 1, Some(1), |_, args| match &args[0] {
            Value::Int(n) => Ok(Value::Bool(*n == 0)),
            v => Err(EvalError::type_error("integer", v)),
        });
        let gref = |s: &str| Core::rc(CoreKind::GlobalRef(Symbol::intern(s)), None);
        let n_ref = Core::rc(CoreKind::LocalRef { depth: 0, index: 0 }, None);
        let loop_ref = Core::rc(CoreKind::LocalRef { depth: 1, index: 0 }, None);
        let body = Core::rc(
            CoreKind::If(
                Core::rc(
                    CoreKind::Call {
                        func: gref("zero?!"),
                        args: vec![n_ref.clone()],
                    },
                    None,
                ),
                konst(42),
                Core::rc(
                    CoreKind::Call {
                        func: loop_ref,
                        args: vec![Core::rc(
                            CoreKind::Call {
                                func: gref("dec!"),
                                args: vec![n_ref],
                            },
                            None,
                        )],
                    },
                    None,
                ),
            ),
            None,
        );
        let lam = Core::rc(
            CoreKind::Lambda(Rc::new(LambdaDef {
                params: 1,
                variadic: false,
                body,
                name: Some(Symbol::intern("loop")),
                src: None,
            })),
            None,
        );
        let letrec = Core::rc(
            CoreKind::LetRec {
                inits: vec![lam],
                body: Core::rc(
                    CoreKind::Call {
                        func: Core::rc(CoreKind::LocalRef { depth: 0, index: 0 }, None),
                        args: vec![konst(200_000)],
                    },
                    None,
                ),
            },
            None,
        );
        assert_eq!(i.eval(&letrec, &None).unwrap().to_string(), "42");
    }

    #[test]
    fn fuel_limits_evaluation() {
        let mut i = Interp::new();
        i.set_fuel(Some(10));
        // Infinite loop: (letrec ([f (lambda () (f))]) (f)).
        let f_ref = Core::rc(CoreKind::LocalRef { depth: 1, index: 0 }, None);
        let lam = Core::rc(
            CoreKind::Lambda(Rc::new(LambdaDef {
                params: 0,
                variadic: false,
                body: Core::rc(
                    CoreKind::Call {
                        func: f_ref,
                        args: vec![],
                    },
                    None,
                ),
                name: None,
                src: None,
            })),
            None,
        );
        let letrec = Core::rc(
            CoreKind::LetRec {
                inits: vec![lam],
                body: Core::rc(
                    CoreKind::Call {
                        func: Core::rc(CoreKind::LocalRef { depth: 0, index: 0 }, None),
                        args: vec![],
                    },
                    None,
                ),
            },
            None,
        );
        assert_eq!(i.eval(&letrec, &None).unwrap_err().kind, EvalErrorKind::Fuel);
    }

    #[test]
    fn every_expression_mode_counts_each_node() {
        let mut i = Interp::new();
        let counters = Counters::new();
        i.set_profiling(ProfileMode::EveryExpression, counters.clone());
        let src_if = SourceObject::new("t.scm", 0, 10);
        let src_one = SourceObject::new("t.scm", 5, 6);
        let src_two = SourceObject::new("t.scm", 7, 8);
        let e = Core::rc(
            CoreKind::If(
                Core::rc(CoreKind::Const(Datum::Bool(true)), None),
                Rc::new(Core::new(CoreKind::Const(Datum::Int(1)), Some(src_one))),
                Rc::new(Core::new(CoreKind::Const(Datum::Int(2)), Some(src_two))),
            ),
            Some(src_if),
        );
        i.eval(&e, &None).unwrap();
        assert_eq!(counters.count(src_if), 1);
        assert_eq!(counters.count(src_one), 1);
        assert_eq!(counters.count(src_two), 0, "untaken branch not counted");
    }

    #[test]
    fn calls_only_mode_counts_only_calls() {
        let mut i = Interp::new();
        let counters = Counters::new();
        i.set_profiling(ProfileMode::CallsOnly, counters.clone());
        let src_call = SourceObject::new("t.scm", 0, 10);
        let src_const = SourceObject::new("t.scm", 5, 6);
        let call = Rc::new(Core::new(
            CoreKind::Call {
                func: identity_lambda(),
                args: vec![Rc::new(Core::new(
                    CoreKind::Const(Datum::Int(1)),
                    Some(src_const),
                ))],
            },
            Some(src_call),
        ));
        i.eval(&call, &None).unwrap();
        assert_eq!(counters.count(src_call), 1);
        assert_eq!(counters.count(src_const), 0);
    }

    #[test]
    fn profiling_off_counts_nothing() {
        let mut i = Interp::new();
        let counters = Counters::new();
        i.counters = Some(counters.clone());
        // mode stays Off
        let src = SourceObject::new("t.scm", 0, 1);
        let e = Rc::new(Core::new(CoreKind::Const(Datum::Int(1)), Some(src)));
        i.eval(&e, &None).unwrap();
        assert!(counters.is_empty());
    }

    #[test]
    fn output_capture() {
        let mut i = Interp::new();
        i.print("hello ");
        i.print("world");
        assert_eq!(i.output(), "hello world");
        assert_eq!(i.take_output(), "hello world");
        assert_eq!(i.output(), "");
    }
}
