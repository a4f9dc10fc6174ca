//! The expander driver: macro application, hygiene, and the toplevel loop.

use crate::cenv::CEnv;
use crate::error::{ExpandError, ExpandErrorKind};
use crate::forms;
use crate::support::install_expander_support;
use pgmp_eval::{install_primitives, Core, CoreKind, Interp, Value};
use pgmp_observe as observe;
use pgmp_syntax::{Datum, Mark, Symbol, Syntax, SyntaxBody};
use std::collections::HashMap;
use std::rc::Rc;

/// The source file an expansion span is attributed to.
fn form_file(form: &Syntax) -> String {
    form.first_source()
        .map_or_else(|| "<none>".to_string(), |s| s.file.as_str().to_string())
}

/// The transformer applications of one Core pass, keyed by the address of
/// each input node. An entry holds its input alive, so no other node can
/// take that address while the record exists.
type Recorded = HashMap<*const Syntax, (Rc<Syntax>, Rc<Syntax>)>;

/// Isolates the side effects of a transformer that the display replay has
/// to run live (a replay miss). Called before the transformer runs; the
/// returned closure undoes what the guard protects once it has run. The
/// engine uses it to snapshot and restore the profile-point factory, so a
/// miss never shifts the points later forms generate.
pub type ReplayGuard = Box<dyn Fn() -> Box<dyn FnOnce()>>;

/// One expansion of a form or program: the [`Core`] forms it compiles to
/// and the printed expansion, both from a single run of every transformer.
#[derive(Debug, Default)]
pub struct Expansion {
    /// Core forms, in program order.
    pub cores: Vec<Rc<Core>>,
    /// The source-to-source expansion (macros gone, core forms kept), one
    /// syntax object per emitted toplevel form.
    pub display: Vec<Rc<Syntax>>,
    /// Transformer applications this expansion made.
    pub transformer_calls: usize,
    /// Macro uses the display replay reached that the Core pass had not
    /// expanded, so their transformers ran a second time (expected 0).
    pub replay_misses: usize,
}

impl Expansion {
    /// The display forms printed with `write` notation, one per form.
    pub fn printed(&self) -> Vec<String> {
        self.display
            .iter()
            .map(|s| s.to_datum().to_string())
            .collect()
    }
}

/// The macro expander.
///
/// Holds the table of `define-syntax` transformers and the **meta
/// interpreter** those transformers run on. The engine (`pgmp` crate)
/// installs the profile API into [`Expander::meta`], giving meta-programs
/// compile-time access to profile weights — the central mechanism of the
/// paper.
///
/// See the crate-level docs for an end-to-end example.
pub struct Expander {
    /// The interpreter used to run transformers and `for-syntax` code.
    pub meta: Interp,
    macros: HashMap<Symbol, Value>,
    next_mark: u32,
    steps: usize,
    /// Budget of macro applications per `expand_program`/`expand_expr_top`
    /// call; exceeding it reports an expansion loop.
    pub max_steps: usize,
    meta_dirty: bool,
    /// Present while [`Expander::expand_displayed`] runs: what the Core
    /// pass of the current form recorded for the display replay.
    recorded: Option<Recorded>,
    /// True while the display replay walks the current form.
    pub(crate) replaying: bool,
    replay_guard: Option<ReplayGuard>,
    transformer_calls: usize,
    replay_misses: usize,
}

impl Default for Expander {
    fn default() -> Expander {
        Expander::new()
    }
}

impl Expander {
    /// Creates an expander whose meta interpreter has the standard
    /// primitives and expander support installed.
    pub fn new() -> Expander {
        let mut meta = Interp::new();
        install_primitives(&mut meta);
        install_expander_support(&mut meta);
        Expander {
            meta,
            macros: HashMap::new(),
            next_mark: 1,
            steps: 0,
            max_steps: 100_000,
            meta_dirty: false,
            recorded: None,
            replaying: false,
            replay_guard: None,
            transformer_calls: 0,
            replay_misses: 0,
        }
    }

    /// Installs the guard that isolates a replay miss (see [`ReplayGuard`]).
    pub fn set_replay_guard(&mut self, guard: ReplayGuard) {
        self.replay_guard = Some(guard);
    }

    /// Registers `transformer` (a procedure value in the meta interpreter)
    /// as the macro `name`.
    pub fn define_macro(&mut self, name: Symbol, transformer: Value) {
        self.meta_dirty = true;
        self.macros.insert(name, transformer);
    }

    /// Reports (and clears) whether expansion since the last call changed
    /// compile-time state visible to later forms: a `define-syntax`,
    /// `define-for-syntax`, or `begin-for-syntax` ran. The incremental
    /// cache uses this to invalidate every form downstream of such a form —
    /// their cached expansions may depend on the old meta state.
    pub fn take_meta_dirty(&mut self) -> bool {
        std::mem::take(&mut self.meta_dirty)
    }

    /// Drains compile-time warnings produced by meta-programs (via the
    /// `warn` primitive), e.g. the §6.3 "reimplement this list as a
    /// vector" recommendation.
    pub fn take_warnings(&mut self) -> Vec<String> {
        std::mem::take(&mut self.meta.warnings)
    }

    pub(crate) fn fresh_mark(&mut self) -> Mark {
        let m = Mark(self.next_mark);
        self.next_mark += 1;
        m
    }

    /// Runs `transformer` on `stx` with the mark discipline: mark input,
    /// run, mark output; marks cancel on pass-through syntax.
    ///
    /// A transformer that writes a meta global (the §6.2 `class` macro
    /// registering its class) changes compile-time state that later forms
    /// see, exactly like `define-for-syntax`, so it sets the meta-dirty flag.
    fn apply_transformer(
        &mut self,
        transformer: &Value,
        stx: &Rc<Syntax>,
    ) -> Result<Rc<Syntax>, ExpandError> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(ExpandError::new(
                ExpandErrorKind::ExpansionLoop,
                format!("macro expansion exceeded {} steps", self.max_steps),
            )
            .with_src(stx.source));
        }
        self.transformer_calls += 1;
        let mark = self.fresh_mark();
        let input = stx.apply_mark(mark);
        let writes = self.meta.global_writes();
        let out = self
            .meta
            .apply(transformer, &[Value::Syntax(Rc::new(input))])
            .map_err(|e| ExpandError::from(e).with_src(stx.source))?;
        if self.meta.global_writes() != writes {
            self.meta_dirty = true;
        }
        let out = match out {
            Value::Syntax(s) => Rc::new(s.apply_mark(mark)),
            other => {
                return Err(ExpandError::new(
                    ExpandErrorKind::BadTransformerResult,
                    format!(
                        "transformer returned {} instead of syntax",
                        other.type_name()
                    ),
                )
                .with_src(stx.source))
            }
        };
        if !self.replaying {
            if let Some(recorded) = &mut self.recorded {
                recorded.insert(Rc::as_ptr(stx), (stx.clone(), out.clone()));
            }
        }
        Ok(out)
    }

    /// Runs a transformer the display replay found no record for, under the
    /// replay guard, and counts the miss.
    fn apply_transformer_on_miss(
        &mut self,
        transformer: &Value,
        stx: &Rc<Syntax>,
    ) -> Result<Rc<Syntax>, ExpandError> {
        self.replay_misses += 1;
        let restore = self.replay_guard.as_ref().map(|guard| guard());
        let out = self.apply_transformer(transformer, stx);
        if let Some(restore) = restore {
            restore();
        }
        out
    }

    /// Repeatedly expands macros in head position until the form is no
    /// longer a macro use. Lexical bindings shadow macros.
    ///
    /// During the display replay, a node the Core pass expanded is replaced
    /// by the recorded output instead of running its transformer again.
    pub(crate) fn macroexpand_head(
        &mut self,
        mut stx: Rc<Syntax>,
        env: &CEnv,
    ) -> Result<Rc<Syntax>, ExpandError> {
        loop {
            if self.replaying {
                let recorded = self.recorded.as_ref().expect("replay without a record");
                if let Some((_, out)) = recorded.get(&Rc::as_ptr(&stx)) {
                    stx = out.clone();
                    continue;
                }
            }
            let Some(elems) = stx.as_list() else {
                return Ok(stx);
            };
            let Some(head) = elems.first() else {
                return Ok(stx);
            };
            let Some(sym) = head.as_symbol() else {
                return Ok(stx);
            };
            if env.resolve(head).is_some() {
                return Ok(stx); // shadowed by a lexical binding
            }
            let Some(t) = self.macros.get(&sym).cloned() else {
                return Ok(stx);
            };
            stx = if self.replaying {
                self.apply_transformer_on_miss(&t, &stx)?
            } else {
                self.apply_transformer(&t, &stx)?
            };
        }
    }

    /// Expands a single expression in the empty lexical environment.
    ///
    /// # Errors
    ///
    /// Returns an [`ExpandError`] for malformed forms, failing
    /// transformers, and expansion loops.
    pub fn expand_expr_top(&mut self, stx: &Rc<Syntax>) -> Result<Rc<Core>, ExpandError> {
        self.steps = 0;
        self.expand_expr(stx, &CEnv::new())
    }

    /// Expands an expression in `env`.
    pub(crate) fn expand_expr(
        &mut self,
        stx: &Rc<Syntax>,
        env: &CEnv,
    ) -> Result<Rc<Core>, ExpandError> {
        let stx = self.macroexpand_head(stx.clone(), env)?;
        match &stx.body {
            SyntaxBody::Atom(Datum::Sym(sym)) => {
                if let Some(r) = env.resolve(&stx) {
                    return Ok(Core::rc(
                        CoreKind::LocalRef {
                            depth: r.depth,
                            index: r.index,
                        },
                        stx.source,
                    ));
                }
                if self.macros.contains_key(sym) {
                    return Err(ExpandError::new(
                        ExpandErrorKind::BadForm,
                        format!("macro `{sym}` used as a variable"),
                    )
                    .with_src(stx.source));
                }
                Ok(Core::rc(CoreKind::GlobalRef(*sym), stx.source))
            }
            SyntaxBody::Atom(d) => Ok(Core::rc(CoreKind::Const(d.clone()), stx.source)),
            SyntaxBody::Vector(_) => Ok(Core::rc(CoreKind::Const(stx.to_datum()), stx.source)),
            SyntaxBody::Improper(_, _) => Err(ExpandError::new(
                ExpandErrorKind::BadForm,
                "dotted list in expression position",
            )
            .with_src(stx.source)),
            SyntaxBody::List(elems) => {
                if elems.is_empty() {
                    return Err(
                        ExpandError::new(ExpandErrorKind::BadForm, "empty application ()")
                            .with_src(stx.source),
                    );
                }
                if let Some(sym) = elems[0].as_symbol() {
                    if env.resolve(&elems[0]).is_none() {
                        if let Some(core) = forms::expand_core_form(self, sym.as_str(), &stx, env)?
                        {
                            return Ok(core);
                        }
                    }
                }
                let func = self.expand_expr(&elems[0], env)?;
                let args: Result<Vec<Rc<Core>>, ExpandError> = elems[1..]
                    .iter()
                    .map(|a| self.expand_expr(a, env))
                    .collect();
                Ok(Core::rc(CoreKind::Call { func, args: args? }, stx.source))
            }
        }
    }

    /// Expands a whole program: a sequence of toplevel forms.
    ///
    /// `define-syntax`, `define-for-syntax`, and `begin-for-syntax` are
    /// processed at expand time (affecting the meta interpreter) and emit
    /// no core code; everything else becomes one [`Core`] form per
    /// toplevel form.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExpandError`] encountered.
    pub fn expand_program(&mut self, program: &[Rc<Syntax>]) -> Result<Vec<Rc<Core>>, ExpandError> {
        self.steps = 0;
        let mut out = Vec::new();
        for (i, form) in program.iter().enumerate() {
            let t = observe::timer();
            self.expand_toplevel_form(form.clone(), &mut out)?;
            observe::finish(t, |duration_us| observe::EventKind::ExpandForm {
                file: form_file(form),
                index: i as u32,
                duration_us,
            });
        }
        Ok(out)
    }

    /// Expands `forms` once, returning their [`Core`] forms together with
    /// the printed expansion. A toplevel form yields any number of core
    /// and display forms (several via `begin` splicing, none for
    /// `define-syntax` and friends); the incremental recompilation cache
    /// calls this one toplevel form at a time.
    ///
    /// Each form's Core pass is the only run of its transformers: it
    /// records every application, and the display walk that follows
    /// replays those outputs instead of calling the transformers again
    /// (it skips `define-syntax` and the `for-syntax` forms, which the Core
    /// pass already evaluated). Transformer side effects — generated
    /// profile points, profile reads, expand-time registries — therefore
    /// happen once per use, and the printed expansion is exactly what was
    /// compiled. A macro use the replay finds no record for runs live under
    /// the [`ReplayGuard`] and counts in [`Expansion::replay_misses`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ExpandError`] encountered.
    pub fn expand_displayed(&mut self, forms: &[Rc<Syntax>]) -> Result<Expansion, ExpandError> {
        let (calls, misses) = (self.transformer_calls, self.replay_misses);
        let mut out = Expansion::default();
        let result = self.expand_displayed_into(forms, &mut out);
        self.recorded = None;
        self.replaying = false;
        result?;
        out.transformer_calls = self.transformer_calls - calls;
        out.replay_misses = self.replay_misses - misses;
        Ok(out)
    }

    fn expand_displayed_into(
        &mut self,
        forms: &[Rc<Syntax>],
        out: &mut Expansion,
    ) -> Result<(), ExpandError> {
        self.steps = 0;
        for (i, form) in forms.iter().enumerate() {
            let t = observe::timer();
            self.recorded = Some(HashMap::new());
            self.expand_toplevel_form(form.clone(), &mut out.cores)?;
            self.replaying = true;
            self.expand_toplevel_to_syntax(form.clone(), &mut out.display)?;
            self.replaying = false;
            observe::finish(t, |duration_us| observe::EventKind::ExpandForm {
                file: form_file(form),
                index: i as u32,
                duration_us,
            });
        }
        Ok(())
    }

    fn expand_toplevel_form(
        &mut self,
        form: Rc<Syntax>,
        out: &mut Vec<Rc<Core>>,
    ) -> Result<(), ExpandError> {
        let env = CEnv::new();
        let form = self.macroexpand_head(form, &env)?;
        let head = form
            .as_list()
            .and_then(|elems| elems.first())
            .and_then(|h| h.as_symbol());
        match head.map(|h| h.as_str()) {
            Some("begin") => {
                let elems = form.as_list().expect("checked");
                for sub in &elems[1..] {
                    self.expand_toplevel_form(sub.clone(), out)?;
                }
                Ok(())
            }
            Some("define-syntax") => self.handle_define_syntax(&form),
            Some("define-for-syntax") => self.handle_define_for_syntax(&form),
            Some("begin-for-syntax") => {
                self.meta_dirty = true;
                let elems = form.as_list().expect("checked");
                for sub in &elems[1..] {
                    // Defines inside begin-for-syntax become meta globals.
                    let is_define = sub
                        .as_list()
                        .and_then(|e| e.first())
                        .and_then(|h| h.as_symbol())
                        .is_some_and(|s| s.as_str() == "define");
                    let core = if is_define {
                        let (name, value) = forms::expand_define(self, sub, &env)?;
                        Core::rc(CoreKind::DefineGlobal(name, value), sub.source)
                    } else {
                        self.expand_expr(sub, &env)?
                    };
                    self.meta
                        .eval(&core, &None)
                        .map_err(|e| ExpandError::from(e).with_src(sub.source))?;
                }
                Ok(())
            }
            Some("define") => {
                let (name, value) = forms::expand_define(self, &form, &env)?;
                out.push(Core::rc(CoreKind::DefineGlobal(name, value), form.source));
                Ok(())
            }
            _ => {
                out.push(self.expand_expr(&form, &env)?);
                Ok(())
            }
        }
    }

    /// Parses the two `define-syntax` shapes and returns
    /// `(name, transformer-expression)`.
    pub(crate) fn parse_define_syntax(form: &Syntax) -> Result<(Symbol, Rc<Syntax>), ExpandError> {
        let bad = |msg: &str| {
            Err(
                ExpandError::new(ExpandErrorKind::BadForm, format!("define-syntax: {msg}"))
                    .with_src(form.source),
            )
        };
        let Some(elems) = form.as_list() else {
            return bad("not a list");
        };
        match elems {
            // (define-syntax name transformer)
            [_, name, transformer] if name.is_identifier() => {
                Ok((name.as_symbol().expect("identifier"), transformer.clone()))
            }
            // (define-syntax (name stx) body ...)
            [_, header, _body @ ..] if header.as_list().is_some() => {
                let header_elems = header.as_list().expect("checked");
                let [name, param] = header_elems else {
                    return bad("expected (define-syntax (name stx) body ...)");
                };
                let Some(name_sym) = name.as_symbol() else {
                    return bad("macro name must be an identifier");
                };
                if !param.is_identifier() {
                    return bad("transformer parameter must be an identifier");
                }
                let mut lam = vec![
                    Rc::new(crate::template::plain_ident("lambda")),
                    Rc::new(Syntax::list(vec![param.clone()], header.source)),
                ];
                lam.extend(elems[2..].iter().cloned());
                Ok((name_sym, Rc::new(Syntax::list(lam, form.source))))
            }
            _ => bad("malformed"),
        }
    }

    fn handle_define_syntax(&mut self, form: &Syntax) -> Result<(), ExpandError> {
        let (name, transformer_stx) = Self::parse_define_syntax(form)?;
        let core = self.expand_expr(&transformer_stx, &CEnv::new())?;
        let transformer = self
            .meta
            .eval(&core, &None)
            .map_err(|e| ExpandError::from(e).with_src(form.source))?;
        if !transformer.is_procedure() {
            return Err(ExpandError::new(
                ExpandErrorKind::BadForm,
                format!(
                    "define-syntax: transformer for `{name}` is {} rather than a procedure",
                    transformer.type_name()
                ),
            )
            .with_src(form.source));
        }
        self.define_macro(name, transformer);
        Ok(())
    }

    fn handle_define_for_syntax(&mut self, form: &Syntax) -> Result<(), ExpandError> {
        self.meta_dirty = true;
        let env = CEnv::new();
        let (name, value) = forms::expand_define(self, form, &env)?;
        let core = Core::rc(CoreKind::DefineGlobal(name, value), form.source);
        self.meta
            .eval(&core, &None)
            .map_err(|e| ExpandError::from(e).with_src(form.source))?;
        Ok(())
    }
}
