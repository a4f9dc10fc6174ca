//! On-disk representation of an [`IncrementalEngine`] session.
//!
//! [`IncrementalEngine::save_state`] serializes the per-form recompilation
//! cache — form fingerprints, profile read-sets, factory snapshots, printed
//! expansions, and core trees *with their source objects* — so a fresh
//! process can warm-start re-optimization in O(changed forms) instead of
//! expanding everything from scratch. The file is a single s-expression
//! (like profile files, read back with the system's own reader):
//!
//! ```text
//! (pgmp-session
//!   (version 1)
//!   (file "prog.scm")
//!   (weights (datasets 1) (point "prog.scm" 3 9 1.0))
//!   (strings "f" "prog.scm")
//!   (form 0 "00deadbeef15dead"
//!     (meta)
//!     (reads (point "prog.scm" 3 9 1.0) (avail #t) (whole) (volatile))
//!     (fpre ("prog.scm" 2))
//!     (fpost ("prog.scm" 3))
//!     (expansion "(define (f) 1)")
//!     (cores (defg #f 0 (lambda #f 0 #f 0 #f (const #f 1))))
//!     (snapshot (datasets 1) (point "prog.scm" 3 9 1.0))))
//! ```
//!
//! The `(strings …)` section is a string table: file names and global
//! symbols inside `cores` trees appear as integer indices into it (the
//! `0`s in the `defg` above both mean `"f"`). Source objects annotate
//! nearly every core node, so writing each distinct string once keeps
//! session files compact and — the warm-start critical path — spares a
//! string allocation per node at parse time. Verbatim strings remain
//! accepted wherever an index may appear.
//!
//! Per-form sub-entries are optional and default to empty/false; `(meta)`
//! marks a form whose expansion changed compile-time state (`define-syntax`
//! and friends) — such forms are **replayed** through the real expander at
//! load time (transformer closures cannot be serialized), while value forms
//! are rehydrated from their stored artifacts. See DESIGN.md §4d for the
//! soundness argument.
//!
//! Loads are corruption-tolerant: any structural problem surfaces as a
//! typed [`ProfileStoreError`], never a panic, and writes go through
//! [`pgmp_profiler::write_atomic`].
//!
//! [`IncrementalEngine`]: crate::incremental::IncrementalEngine
//! [`IncrementalEngine::save_state`]: crate::incremental::IncrementalEngine::save_state

use crate::api::ProfileReadLog;
use pgmp_eval::{core_from_datum_with, Core};
use pgmp_profiler::{point_datum, ProfileInformation, ProfileStoreError};
use pgmp_reader::read_datums;
use pgmp_syntax::{Datum, SourceFactory, SourceObject, Symbol};
use std::fmt::Write as _;
use std::rc::Rc;

/// What [`save_state`] wrote: how much of the cache was persistable.
///
/// [`save_state`]: crate::incremental::IncrementalEngine::save_state
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SaveStats {
    /// Top-level forms in the program.
    pub total_forms: usize,
    /// Forms whose cache entry was written to the session file.
    pub saved: usize,
    /// Forms with no persistable entry (never compiled, volatile reads, or
    /// artifacts containing residual syntax objects). They re-expand on
    /// warm start.
    pub skipped: usize,
}

/// What [`load_state`] restored: the warm-start ledger.
///
/// [`load_state`]: crate::incremental::IncrementalEngine::load_state
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WarmStart {
    /// Top-level forms in the program.
    pub total_forms: usize,
    /// Value forms rehydrated from stored artifacts — no re-expansion.
    pub restored: usize,
    /// Meta forms replayed through the expander to re-register their
    /// transformers (their artifacts cannot be stored).
    pub replayed_meta: usize,
    /// Forms with no usable stored entry (missing, fingerprint drift, or a
    /// broken factory chain). They re-expand on the next compile.
    pub skipped: usize,
    /// Source file name recorded by the saving process (diagnostic only —
    /// validity is established per form by fingerprints, not by file name).
    pub source_file: String,
}

/// One form's persisted cache entry, decoded.
pub(crate) struct StoredForm {
    pub(crate) index: usize,
    pub(crate) hash: u64,
    pub(crate) meta: bool,
    pub(crate) reads: ProfileReadLog,
    pub(crate) fpre: SourceFactory,
    pub(crate) fpost: SourceFactory,
    pub(crate) expansion: Vec<String>,
    pub(crate) cores: Vec<Rc<Core>>,
    pub(crate) snapshot: Option<ProfileInformation>,
}

/// A whole decoded session file.
pub(crate) struct StoredSession {
    pub(crate) file: String,
    pub(crate) weights: ProfileInformation,
    pub(crate) forms: Vec<StoredForm>,
}

fn malformed(msg: impl Into<String>) -> ProfileStoreError {
    ProfileStoreError::Malformed(msg.into())
}

/// A read log's `(point file bfp efp w)` fields, after the tag.
fn read_point(args: &[Datum]) -> Result<(SourceObject, f64), ProfileStoreError> {
    match args {
        [Datum::Str(file), Datum::Int(bfp), Datum::Int(efp), w] if *bfp >= 0 && *efp >= 0 => {
            let w = match w {
                Datum::Float(x) => *x,
                Datum::Int(n) => *n as f64,
                other => return Err(malformed(format!("bad weight {other}"))),
            };
            Ok((SourceObject::new(file, *bfp as u32, *efp as u32), w))
        }
        _ => Err(malformed("malformed read point entry")),
    }
}

fn factory_datum(tag: &str, f: &SourceFactory) -> Datum {
    let mut elems = vec![Datum::sym(tag)];
    elems.extend(
        f.entries()
            .into_iter()
            .map(|(file, n)| Datum::list(vec![Datum::string(file.as_str()), Datum::Int(n as i64)])),
    );
    Datum::list(elems)
}

fn factory_from(entries: &[Datum]) -> Result<SourceFactory, ProfileStoreError> {
    let mut out = Vec::new();
    for e in entries {
        match e.list_elems().as_deref() {
            Some([Datum::Str(file), Datum::Int(n)]) if *n >= 0 && *n <= u32::MAX as i64 => {
                out.push((Symbol::intern(file), *n as u32));
            }
            _ => return Err(malformed(format!("bad factory entry {e}"))),
        }
    }
    Ok(SourceFactory::from_entries(out))
}

fn reads_datum(r: &ProfileReadLog) -> Datum {
    let mut elems = vec![Datum::sym("reads")];
    for (p, w) in &r.points {
        elems.push(point_datum(*p, *w));
    }
    if let Some(a) = r.availability {
        elems.push(Datum::list(vec![Datum::sym("avail"), Datum::Bool(a)]));
    }
    if r.whole_profile {
        elems.push(Datum::list(vec![Datum::sym("whole")]));
    }
    if r.volatile_reads {
        elems.push(Datum::list(vec![Datum::sym("volatile")]));
    }
    Datum::list(elems)
}

fn reads_from(entries: &[Datum]) -> Result<ProfileReadLog, ProfileStoreError> {
    let mut reads = ProfileReadLog::default();
    for e in entries {
        let elems = e
            .list_elems()
            .ok_or_else(|| malformed("reads entry must be a list"))?;
        match elems.as_slice() {
            [Datum::Sym(tag), rest @ ..] if tag.as_str() == "point" => {
                reads.points.push(read_point(rest)?);
            }
            [Datum::Sym(tag), Datum::Bool(a)] if tag.as_str() == "avail" => {
                reads.availability = Some(*a);
            }
            [Datum::Sym(tag)] if tag.as_str() == "whole" => reads.whole_profile = true,
            [Datum::Sym(tag)] if tag.as_str() == "volatile" => reads.volatile_reads = true,
            _ => return Err(malformed(format!("unknown reads entry {e}"))),
        }
    }
    Ok(reads)
}

/// One form's serialized entry; `cores` are pre-serialized core datums.
#[allow(clippy::too_many_arguments)]
pub(crate) fn form_entry_string(
    index: usize,
    hash: u64,
    meta: bool,
    reads: &ProfileReadLog,
    fpre: &SourceFactory,
    fpost: &SourceFactory,
    expansion: &[String],
    cores: &[Datum],
    snapshot: Option<&ProfileInformation>,
) -> String {
    let mut out = String::new();
    let _ = write!(out, "  (form {index} \"{hash:016x}\"");
    if meta {
        out.push_str("\n    (meta)");
    }
    let _ = write!(out, "\n    {}", reads_datum(reads));
    let _ = write!(out, "\n    {}", factory_datum("fpre", fpre));
    let _ = write!(out, "\n    {}", factory_datum("fpost", fpost));
    if !expansion.is_empty() {
        let strs: Vec<Datum> = expansion.iter().map(|s| Datum::string(s)).collect();
        let mut elems = vec![Datum::sym("expansion")];
        elems.extend(strs);
        let _ = write!(out, "\n    {}", Datum::list(elems));
    }
    if !cores.is_empty() {
        let mut elems = vec![Datum::sym("cores")];
        elems.extend(cores.iter().cloned());
        let _ = write!(out, "\n    {}", Datum::list(elems));
    }
    if let Some(info) = snapshot {
        let mut elems = vec![Datum::sym("snapshot")];
        elems.extend(info.body_datums());
        let _ = write!(out, "\n    {}", Datum::list(elems));
    }
    out.push(')');
    out
}

/// Serializes the session header plus pre-rendered form entries.
/// `strings` is the string table the entries' core trees were serialized
/// against (indices into it appear inside `cores`).
pub(crate) fn session_string(
    file: &str,
    weights: &ProfileInformation,
    strings: &[Symbol],
    form_entries: &[String],
) -> String {
    let mut out = String::from("(pgmp-session\n  (version 1)\n");
    let _ = writeln!(out, "  (file {})", Datum::string(file));
    let mut welems = vec![Datum::sym("weights")];
    welems.extend(weights.body_datums());
    let _ = writeln!(out, "  {}", Datum::list(welems));
    if !strings.is_empty() {
        let mut selems = vec![Datum::sym("strings")];
        selems.extend(strings.iter().map(|s| Datum::string(s.as_str())));
        let _ = writeln!(out, "  {}", Datum::list(selems));
    }
    for entry in form_entries {
        let _ = writeln!(out, "{entry}");
    }
    out.push(')');
    out
}

fn form_from(args: &[Datum], strings: &[Symbol]) -> Result<StoredForm, ProfileStoreError> {
    let [Datum::Int(index), Datum::Str(hash), rest @ ..] = args else {
        return Err(malformed("malformed form entry header"));
    };
    if *index < 0 {
        return Err(malformed("negative form index"));
    }
    let hash =
        u64::from_str_radix(hash, 16).map_err(|_| malformed(format!("bad form hash {hash:?}")))?;
    let mut form = StoredForm {
        index: *index as usize,
        hash,
        meta: false,
        reads: ProfileReadLog::default(),
        fpre: SourceFactory::new(),
        fpost: SourceFactory::new(),
        expansion: Vec::new(),
        cores: Vec::new(),
        snapshot: None,
    };
    for e in rest {
        let elems = e
            .list_elems()
            .ok_or_else(|| malformed("form sub-entry must be a list"))?;
        let [Datum::Sym(tag), args @ ..] = elems.as_slice() else {
            return Err(malformed(format!("form sub-entry missing tag: {e}")));
        };
        match tag.as_str() {
            "meta" => form.meta = true,
            "reads" => form.reads = reads_from(args)?,
            "fpre" => form.fpre = factory_from(args)?,
            "fpost" => form.fpost = factory_from(args)?,
            "expansion" => {
                form.expansion = args
                    .iter()
                    .map(|d| match d {
                        Datum::Str(s) => Ok(s.to_string()),
                        other => Err(malformed(format!("bad expansion entry {other}"))),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "cores" => {
                form.cores = args
                    .iter()
                    .map(|d| core_from_datum_with(d, strings).map_err(malformed))
                    .collect::<Result<_, _>>()?;
            }
            // Older files record the saving process's chunk ids, which a
            // fresh process has no use for: checked, then dropped.
            "chunk-ids" => {
                if let Some(bad) = args
                    .iter()
                    .find(|d| !matches!(d, Datum::Int(n) if *n >= 0 && *n <= u32::MAX as i64))
                {
                    return Err(malformed(format!("bad chunk id {bad}")));
                }
            }
            "snapshot" => form.snapshot = Some(ProfileInformation::from_body(args)?),
            other => return Err(malformed(format!("unknown form sub-entry `{other}`"))),
        }
    }
    Ok(form)
}

/// Parses a session file.
///
/// # Errors
///
/// [`ProfileStoreError::Malformed`] for any structural problem,
/// [`ProfileStoreError::UnsupportedVersion`] for a version other than 1.
/// Never panics on hostile input.
pub(crate) fn parse_session(text: &str) -> Result<StoredSession, ProfileStoreError> {
    // `read_datums` skips syntax-object construction: session files are
    // machine-written, source attribution would be meaningless, and this
    // parse is the warm-start critical path.
    let forms =
        read_datums(text, "<session>").map_err(|e| malformed(format!("unreadable: {e}")))?;
    let [datum]: [Datum; 1] = forms
        .try_into()
        .map_err(|_| malformed("expected exactly one top-level form"))?;
    let elems = datum
        .list_elems()
        .ok_or_else(|| malformed("top-level form must be a list"))?;
    let [head, entries @ ..] = elems.as_slice() else {
        return Err(malformed("empty session file"));
    };
    match head {
        Datum::Sym(s) if s.as_str() == "pgmp-session" => {}
        other => return Err(malformed(format!("unexpected header `{other}`"))),
    }
    let mut version: Option<i64> = None;
    let mut file = String::new();
    let mut weights = ProfileInformation::empty();
    let mut strings: Vec<Symbol> = Vec::new();
    let mut out_forms: Vec<StoredForm> = Vec::new();
    // Two passes: form entries reference the string table by index, and
    // the table must be complete before any form decodes, wherever the
    // `(strings …)` section sits in the file.
    for pass in 0..2 {
        for e in entries {
            let elems = e
                .list_elems()
                .ok_or_else(|| malformed("session entry must be a list"))?;
            let [Datum::Sym(tag), args @ ..] = elems.as_slice() else {
                return Err(malformed(format!("session entry missing tag: {e}")));
            };
            match (pass, tag.as_str(), args) {
                (0, "version", [Datum::Int(v)]) => {
                    if version.replace(*v).is_some() {
                        return Err(malformed("duplicate version entry"));
                    }
                }
                (0, "file", [Datum::Str(s)]) => file = s.to_string(),
                (0, "weights", body) => weights = ProfileInformation::from_body(body)?,
                (0, "strings", body) => {
                    strings = body
                        .iter()
                        .map(|d| match d {
                            Datum::Str(s) => Ok(Symbol::intern(s)),
                            other => Err(malformed(format!("bad string-table entry {other}"))),
                        })
                        .collect::<Result<_, _>>()?;
                }
                (0, "form", _) => {}
                (1, "form", body) => out_forms.push(form_from(body, &strings)?),
                (1, _, _) => {}
                (_, other, _) => {
                    return Err(malformed(format!("unknown session entry `{other}`")));
                }
            }
        }
    }
    match version {
        Some(1) => {}
        Some(v) => return Err(ProfileStoreError::UnsupportedVersion(v)),
        None => return Err(malformed("missing version entry")),
    }
    Ok(StoredSession {
        file,
        weights,
        forms: out_forms,
    })
}
