//! The paper's API (Figure 4), installed as meta-interpreter procedures.
//!
//! Meta-programs call these like any other procedure:
//!
//! | Scheme procedure                 | Paper entry                        |
//! |----------------------------------|------------------------------------|
//! | `(make-profile-point [base])`    | `make-profile-point`               |
//! | `(annotate-expr e pp)`           | `annotate-expr`                    |
//! | `(profile-query e)`              | `profile-query` (syntax or point)  |
//! | `(store-profile f)`              | `store-profile`                    |
//! | `(load-profile f)`               | `load-profile` (replaces)          |
//! | `(merge-profile f)`              | dataset merging per §3.2           |
//! | `(current-profile-information)`  | `(current-profile-information)`    |
//! | `(profile-data-available?)`      | the Fig. 9 `no-profile-data?` test |
//! | `(profile-count e)`              | raw counter (diagnostics/tests)    |

use crate::engine::AnnotateStrategy;
use pgmp_bytecode::DerivedCounts;
use pgmp_eval::{EvalError, EvalErrorKind, Interp, Value};
use pgmp_observe as observe;
use pgmp_profiler::{Counters, ProfileInformation, ProfileMode};
use pgmp_syntax::{SourceFactory, SourceObject, Syntax, SyntaxBody};
use std::cell::RefCell;
use std::rc::Rc;

/// The profile reads one top-level form performed during expansion: its
/// *read-set*, the key the incremental recompilation cache validates
/// against new weights.
///
/// A cached expansion can be reused when every recorded read would produce
/// the same answer under the new profile (within epsilon for weights,
/// exactly for availability), no [`ProfileReadLog::volatile_reads`] occurred,
/// and — when [`ProfileReadLog::whole_profile`] is set — the full profile is
/// unchanged.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ProfileReadLog {
    /// Each `profile-query` call: the point consulted and the weight
    /// returned. (Points without a source resolve to weight 0.0 and are
    /// not recorded — they can never change.)
    pub points: Vec<(SourceObject, f64)>,
    /// The answer `profile-data-available?` returned, if called.
    pub availability: Option<bool>,
    /// `current-profile-information` was called: the form depends on the
    /// entire profile, so any weight change invalidates it.
    pub whole_profile: bool,
    /// A read that cannot be validated against a future profile occurred
    /// (`profile-count` on live counters, or `load`/`merge`/`store-profile`
    /// during expansion). Forms with volatile reads are never reused.
    pub volatile_reads: bool,
}

impl ProfileReadLog {
    /// True iff expansion consulted no profile state at all — the form is
    /// profile-independent and reusable under any weights.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
            && self.availability.is_none()
            && !self.whole_profile
            && !self.volatile_reads
    }
}

/// Shared profile state for one compilation session.
///
/// Both the engine (Rust side) and the installed API procedures (meta
/// side) read and write this through an `Rc<RefCell<…>>` handle.
#[derive(Debug, Default)]
pub struct PgmpState {
    /// The loaded profile weights meta-programs query.
    pub profile: ProfileInformation,
    /// Deterministic generator backing `make-profile-point`.
    pub factory: SourceFactory,
    /// Live counters of the current instrumented run.
    pub counters: Counters,
    /// While an instrumented run executes on the VM: its block counts not
    /// yet folded into `counters`, and the mode to derive them under
    /// (see [`PgmpState::flush_pending`]).
    pub pending: Option<(DerivedCounts, ProfileMode)>,
    /// How `annotate-expr` attaches profile points.
    pub strategy: AnnotateStrategy,
    /// When present, API entry points append their profile reads here.
    /// The incremental engine installs a fresh log around each form's
    /// expansion to capture that form's read-set.
    pub read_log: Option<ProfileReadLog>,
}

impl PgmpState {
    /// Creates empty state with the given annotation strategy.
    pub fn new(strategy: AnnotateStrategy) -> PgmpState {
        PgmpState {
            strategy,
            ..PgmpState::default()
        }
    }

    /// Folds the pending block counts of the VM run in progress into
    /// `counters` and zeroes them, so that a native reading `counters`
    /// mid-run sees what the run executed so far. A no-op outside such a
    /// run.
    pub fn flush_pending(&self) {
        if let Some((counts, mode)) = &self.pending {
            counts.drain(*mode, |point, n| self.counters.add(point, n));
        }
    }
}

fn want_syntax_or_point(v: &Value) -> Result<Option<SourceObject>, EvalError> {
    match v {
        Value::Syntax(s) => Ok(s.first_source()),
        Value::Source(p) => Ok(Some(*p)),
        other => Err(EvalError::type_error("syntax or profile point", other)),
    }
}

fn want_string(v: &Value) -> Result<String, EvalError> {
    match v {
        Value::Str(s) => Ok(s.borrow().clone()),
        other => Err(EvalError::type_error("string", other)),
    }
}

/// Renders a decision label/point the way a human reads the source: strings
/// and symbols bare, syntax as its datum, profile points as `file:bfp-efp`.
fn decision_label(v: &Value) -> String {
    match v {
        Value::Str(s) => s.borrow().clone(),
        Value::Sym(s) => s.to_string(),
        Value::Syntax(s) => s.to_datum().to_string(),
        Value::Source(p) => p.to_string(),
        other => other.to_string(),
    }
}

/// Wraps `e` as `((lambda () e))` with the call annotated by `pp` — the
/// Racket `errortrace` strategy of §4.2: only function calls are profiled,
/// so the expression is wrapped in a generated function whose *call* the
/// profiler counts.
fn wrap_lambda(e: &Syntax, pp: SourceObject) -> Syntax {
    let lambda = Syntax::list(
        vec![
            Rc::new(Syntax::ident("lambda", e.source)),
            Rc::new(Syntax::new(SyntaxBody::List(vec![]), e.source)),
            Rc::new(e.clone()),
        ],
        e.source,
    );
    Syntax::list(vec![Rc::new(lambda)], Some(pp))
}

/// Installs the PGMP API into `interp`, backed by `state`.
///
/// The engine installs this into the expander's meta interpreter (so
/// transformers can query profiles at compile time) and into the runtime
/// interpreter (so example programs can drive `store-profile` themselves).
pub fn install_pgmp_api(interp: &mut Interp, state: Rc<RefCell<PgmpState>>) {
    let st = state.clone();
    interp.define_native("make-profile-point", 0, Some(1), move |_, args| {
        let base = match args.first() {
            None => None,
            Some(v) => want_syntax_or_point(v)?,
        };
        let point = st.borrow_mut().factory.make_profile_point(base);
        Ok(Value::Source(point))
    });

    let st = state.clone();
    interp.define_native("annotate-expr", 2, Some(2), move |_, args| {
        let Value::Syntax(e) = &args[0] else {
            return Err(EvalError::type_error("syntax", &args[0]));
        };
        let Value::Source(pp) = &args[1] else {
            return Err(EvalError::type_error("profile point", &args[1]));
        };
        let annotated = match st.borrow().strategy {
            AnnotateStrategy::Direct => e.with_source(*pp),
            AnnotateStrategy::WrapLambda => wrap_lambda(e, *pp),
        };
        Ok(Value::Syntax(Rc::new(annotated)))
    });

    let st = state.clone();
    interp.define_native("profile-query", 1, Some(1), move |_, args| {
        let weight = match want_syntax_or_point(&args[0])? {
            Some(p) => {
                let mut st = st.borrow_mut();
                let w = st.profile.weight(p);
                if let Some(log) = st.read_log.as_mut() {
                    log.points.push((p, w));
                }
                if observe::enabled() {
                    observe::emit(observe::EventKind::ProfileQuery {
                        point: p.to_string(),
                        weight: st.profile.lookup(p),
                        available: !st.profile.is_empty(),
                    });
                }
                w
            }
            None => 0.0,
        };
        Ok(Value::Float(weight))
    });

    let st = state.clone();
    interp.define_native("profile-count", 1, Some(1), move |_, args| {
        let count = match want_syntax_or_point(&args[0])? {
            Some(p) => {
                let mut st = st.borrow_mut();
                // Live counters mutate under the expander's feet; a form
                // reading them can never be validated for reuse.
                if let Some(log) = st.read_log.as_mut() {
                    log.volatile_reads = true;
                }
                st.flush_pending();
                let n = st.counters.count(p);
                if observe::enabled() {
                    observe::emit(observe::EventKind::ProfileCount {
                        point: p.to_string(),
                        count: Some(n as f64),
                    });
                }
                n
            }
            None => 0,
        };
        Ok(Value::Int(count as i64))
    });

    let st = state.clone();
    interp.define_native("profile-data-available?", 0, Some(0), move |_, _| {
        let mut st = st.borrow_mut();
        let available = !st.profile.is_empty();
        if let Some(log) = st.read_log.as_mut() {
            log.availability = Some(available);
        }
        if observe::enabled() {
            observe::emit(observe::EventKind::AvailabilityCheck { available });
        }
        Ok(Value::Bool(available))
    });

    let st = state.clone();
    interp.define_native("current-profile-information", 0, Some(0), move |_, _| {
        let mut st = st.borrow_mut();
        if let Some(log) = st.read_log.as_mut() {
            log.whole_profile = true;
        }
        let st = &*st;
        let mut entries: Vec<(SourceObject, f64)> = st.profile.iter().collect();
        entries.sort_by_key(|a| a.0);
        Ok(Value::list(entries.into_iter().map(|(p, w)| {
            Value::cons(Value::Source(p), Value::Float(w))
        })))
    });

    let st = state.clone();
    interp.define_native("store-profile", 1, Some(1), move |_, args| {
        let path = want_string(&args[0])?;
        let mut st = st.borrow_mut();
        if let Some(log) = st.read_log.as_mut() {
            log.volatile_reads = true;
        }
        st.flush_pending();
        let weights = ProfileInformation::from_dataset(&st.counters.snapshot());
        weights
            .store_file(&path)
            .map_err(|e| EvalError::new(EvalErrorKind::Runtime, format!("store-profile: {e}")))?;
        Ok(Value::Unspecified)
    });

    let st = state.clone();
    interp.define_native("load-profile", 1, Some(1), move |_, args| {
        let path = want_string(&args[0])?;
        let info = ProfileInformation::load_file(&path)
            .map_err(|e| EvalError::new(EvalErrorKind::Runtime, format!("load-profile: {e}")))?;
        let mut st = st.borrow_mut();
        if let Some(log) = st.read_log.as_mut() {
            log.volatile_reads = true;
        }
        st.profile = info;
        Ok(Value::Unspecified)
    });

    interp.define_native(
        "record-optimization-decision",
        4,
        Some(4),
        move |_, args| {
            // Provenance only: with no active recording this is a no-op, so
            // macros can call it unconditionally.
            if !observe::enabled() {
                return Ok(Value::Unspecified);
            }
            let site = want_string(&args[0])?;
            let decision_point = match &args[1] {
                Value::Syntax(s) => match s.first_source() {
                    Some(p) => p.to_string(),
                    None => decision_label(&args[1]),
                },
                other => decision_label(other),
            };
            let alt_vals = args[2]
                .list_elems()
                .ok_or_else(|| EvalError::type_error("list of (label . weight)", &args[2]))?;
            let mut alternatives = Vec::with_capacity(alt_vals.len());
            for v in &alt_vals {
                let Value::Pair(p) = v else {
                    return Err(EvalError::type_error("(label . weight) pair", v));
                };
                let label = decision_label(&p.car.borrow());
                let weight = match &*p.cdr.borrow() {
                    Value::Bool(false) => None,
                    Value::Float(x) => Some(*x),
                    Value::Int(n) => Some(*n as f64),
                    other => return Err(EvalError::type_error("weight or #f", other)),
                };
                alternatives.push(observe::DecisionAlt { label, weight });
            }
            let chosen: Vec<String> = args[3]
                .list_elems()
                .ok_or_else(|| EvalError::type_error("list of labels", &args[3]))?
                .iter()
                .map(decision_label)
                .collect();
            // Source-order rank of the winner: > 0 iff the profile moved
            // some later-written alternative to the front.
            let rank = chosen
                .first()
                .and_then(|c| alternatives.iter().position(|a| &a.label == c))
                .unwrap_or(0) as u32;
            observe::emit(observe::EventKind::Decision {
                site,
                decision_point,
                alternatives,
                chosen,
                rank,
            });
            Ok(Value::Unspecified)
        },
    );

    let st = state.clone();
    interp.define_native("merge-profile", 1, Some(1), move |_, args| {
        let path = want_string(&args[0])?;
        let info = ProfileInformation::load_file(&path)
            .map_err(|e| EvalError::new(EvalErrorKind::Runtime, format!("merge-profile: {e}")))?;
        let mut st = st.borrow_mut();
        if let Some(log) = st.read_log.as_mut() {
            log.volatile_reads = true;
        }
        st.profile = st.profile.merge(&info);
        Ok(Value::Unspecified)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_eval::install_primitives;
    use pgmp_syntax::Symbol;

    fn setup() -> (Interp, Rc<RefCell<PgmpState>>) {
        let mut interp = Interp::new();
        install_primitives(&mut interp);
        let state = Rc::new(RefCell::new(PgmpState::new(AnnotateStrategy::Direct)));
        install_pgmp_api(&mut interp, state.clone());
        (interp, state)
    }

    fn call(i: &mut Interp, name: &str, args: Vec<Value>) -> Result<Value, EvalError> {
        let f = i.global(Symbol::intern(name)).cloned().unwrap();
        i.apply(&f, &args)
    }

    fn stx(src: &str) -> Rc<Syntax> {
        pgmp_reader::read_str(src, "api.scm").unwrap().remove(0)
    }

    #[test]
    fn make_profile_point_is_deterministic_per_session() {
        let (mut i, _) = setup();
        let p1 = call(&mut i, "make-profile-point", vec![]).unwrap();
        let p2 = call(&mut i, "make-profile-point", vec![]).unwrap();
        assert!(!p1.eqv(&p2), "fresh points are distinct");
        let (mut j, _) = setup();
        let q1 = call(&mut j, "make-profile-point", vec![]).unwrap();
        assert!(
            p1.eqv(&q1),
            "same generation order, same point across sessions"
        );
    }

    #[test]
    fn make_profile_point_from_base_preserves_location() {
        let (mut i, _) = setup();
        let base = Value::Syntax(stx("(f x)"));
        let p = call(&mut i, "make-profile-point", vec![base]).unwrap();
        let Value::Source(p) = p else {
            panic!("expected source")
        };
        assert!(p.file.as_str().starts_with("api.scm%pgmp"));
        assert!(p.is_generated());
    }

    #[test]
    fn annotate_direct_replaces_source() {
        let (mut i, _) = setup();
        let p = call(&mut i, "make-profile-point", vec![]).unwrap();
        let Value::Source(pp) = p else { panic!() };
        let e = Value::Syntax(stx("(+ 1 2)"));
        let out = call(&mut i, "annotate-expr", vec![e, Value::Source(pp)]).unwrap();
        let Value::Syntax(s) = out else { panic!() };
        assert_eq!(s.source, Some(pp));
        assert_eq!(s.to_datum().to_string(), "(+ 1 2)");
    }

    #[test]
    fn annotate_wrap_lambda_generates_thunk_call() {
        let (mut i, state) = setup();
        state.borrow_mut().strategy = AnnotateStrategy::WrapLambda;
        let p = call(&mut i, "make-profile-point", vec![]).unwrap();
        let Value::Source(pp) = p else { panic!() };
        let e = Value::Syntax(stx("(+ 1 2)"));
        let out = call(&mut i, "annotate-expr", vec![e, Value::Source(pp)]).unwrap();
        let Value::Syntax(s) = out else { panic!() };
        assert_eq!(s.to_datum().to_string(), "((lambda () (+ 1 2)))");
        assert_eq!(s.source, Some(pp), "the *call* carries the point");
    }

    #[test]
    fn profile_query_returns_loaded_weight() {
        let (mut i, state) = setup();
        let e = stx("(hot)");
        let p = e.source.unwrap();
        state.borrow_mut().profile = ProfileInformation::from_weights([(p, 0.75)], 1);
        let w = call(&mut i, "profile-query", vec![Value::Syntax(e)]).unwrap();
        assert!(matches!(w, Value::Float(x) if x == 0.75));
        // Unknown points weigh zero.
        let w = call(&mut i, "profile-query", vec![Value::Syntax(stx("(cold)"))]).unwrap();
        // (cold) and (hot) share a file but the reader gives (cold) the
        // same span 0..5 — use a distinct span via a longer expression.
        let _ = w;
        let other = pgmp_reader::read_str("  (colder)", "api.scm")
            .unwrap()
            .remove(0);
        let w = call(&mut i, "profile-query", vec![Value::Syntax(other)]).unwrap();
        assert!(matches!(w, Value::Float(x) if x == 0.0));
    }

    #[test]
    fn profile_data_available_tracks_state() {
        let (mut i, state) = setup();
        let v = call(&mut i, "profile-data-available?", vec![]).unwrap();
        assert_eq!(v.to_string(), "#f");
        state.borrow_mut().profile = ProfileInformation::from_weights([], 1);
        let v = call(&mut i, "profile-data-available?", vec![]).unwrap();
        assert_eq!(v.to_string(), "#t");
    }

    #[test]
    fn store_then_load_round_trips_weights() {
        let dir = std::env::temp_dir().join("pgmp-api-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.pgmp");
        let (mut i, state) = setup();
        let p = SourceObject::new("x.scm", 1, 2);
        state.borrow().counters.add(p, 10);
        state
            .borrow()
            .counters
            .add(SourceObject::new("x.scm", 3, 4), 5);
        call(
            &mut i,
            "store-profile",
            vec![Value::string(path.to_str().unwrap())],
        )
        .unwrap();
        call(
            &mut i,
            "load-profile",
            vec![Value::string(path.to_str().unwrap())],
        )
        .unwrap();
        assert_eq!(state.borrow().profile.weight(p), 1.0);
        assert_eq!(
            state
                .borrow()
                .profile
                .weight(SourceObject::new("x.scm", 3, 4)),
            0.5
        );
    }

    #[test]
    fn merge_profile_averages_datasets() {
        let dir = std::env::temp_dir().join("pgmp-api-test-merge");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.pgmp");
        let p = SourceObject::new("m.scm", 0, 1);
        ProfileInformation::from_weights([(p, 1.0)], 1)
            .store_file(&path)
            .unwrap();
        let (mut i, state) = setup();
        state.borrow_mut().profile = ProfileInformation::from_weights([(p, 0.0)], 1);
        call(
            &mut i,
            "merge-profile",
            vec![Value::string(path.to_str().unwrap())],
        )
        .unwrap();
        assert_eq!(state.borrow().profile.weight(p), 0.5);
    }

    #[test]
    fn current_profile_information_lists_points() {
        let (mut i, state) = setup();
        let p = SourceObject::new("l.scm", 0, 1);
        state.borrow_mut().profile = ProfileInformation::from_weights([(p, 0.25)], 1);
        let v = call(&mut i, "current-profile-information", vec![]).unwrap();
        let entries = v.list_elems().unwrap();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn read_log_records_queries_and_volatility() {
        let (mut i, state) = setup();
        let e = stx("(hot)");
        let p = e.source.unwrap();
        state.borrow_mut().profile = ProfileInformation::from_weights([(p, 0.75)], 1);
        state.borrow_mut().read_log = Some(ProfileReadLog::default());

        call(&mut i, "profile-query", vec![Value::Syntax(e.clone())]).unwrap();
        call(&mut i, "profile-data-available?", vec![]).unwrap();
        {
            let st = state.borrow();
            let log = st.read_log.as_ref().unwrap();
            assert_eq!(log.points, vec![(p, 0.75)]);
            assert_eq!(log.availability, Some(true));
            assert!(!log.whole_profile);
            assert!(!log.volatile_reads);
        }

        call(&mut i, "current-profile-information", vec![]).unwrap();
        call(&mut i, "profile-count", vec![Value::Syntax(e)]).unwrap();
        let st = state.borrow();
        let log = st.read_log.as_ref().unwrap();
        assert!(log.whole_profile);
        assert!(log.volatile_reads);
        assert!(!log.is_empty());
    }

    #[test]
    fn no_read_log_records_nothing() {
        let (mut i, state) = setup();
        call(&mut i, "profile-query", vec![Value::Syntax(stx("(x)"))]).unwrap();
        assert!(state.borrow().read_log.is_none());
    }

    #[test]
    fn load_profile_missing_file_errors() {
        let (mut i, _) = setup();
        assert!(call(
            &mut i,
            "load-profile",
            vec![Value::string("/nonexistent/profile.pgmp")]
        )
        .is_err());
    }
}
