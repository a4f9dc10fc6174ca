//! Profile persistence: `store-profile` / `load-profile` (Figure 4).
//!
//! As in the Chez implementation (§4.1), what is stored is not raw counts
//! but the computed **profile weights**, so stored files from different runs
//! can be merged directly. The on-disk format is a single s-expression,
//! read back in one pass over the system reader's lexer and datum walk
//! ([`pgmp_reader::walk_datums`]). Two format versions exist —
//! see `docs/PROFILE_FORMAT.md` at the repository root for the normative
//! spec, merge semantics (§3.2), and compatibility rules.
//!
//! **Version 1** (weights only):
//!
//! ```text
//! (pgmp-profile
//!   (version 1)
//!   (datasets 1)
//!   (point "classify.scm" 10 30 0.5)
//!   (point "classify.scm" 40 60 1.0))
//! ```
//!
//! **Version 2** adds the dense slot table (see [`crate::SlotMap`]): each
//! `(slot i file bfp efp [w])` entry binds slot `i` to a profile point, in
//! dense ascending order, with an optional recorded weight; `(point ...)`
//! entries carry weights for points outside the table:
//!
//! ```text
//! (pgmp-profile
//!   (version 2)
//!   (datasets 1)
//!   (slots 2)
//!   (slot 0 "classify.scm" 10 30 0.5)
//!   (slot 1 "classify.scm" 40 60 1.0))
//! ```
//!
//! Loading sniffs the version, so v1 files keep loading unchanged; writers
//! choose a version via [`StoredProfile`]. All store writes go through
//! [`write_atomic`] (temp file + fsync + rename), so a crash mid-write can
//! never leave a torn profile at the destination path.

use crate::info::ProfileInformation;
use crate::slots::SlotMap;
use pgmp_observe as observe;
use pgmp_reader::{walk_datums, Atom, DatumVisitor, ReadError};
use pgmp_syntax::{write_float, write_string, Datum, FnvHashMap, SourceObject, Symbol};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// The atomic-write discipline every store in the workspace uses.
///
/// Re-exported from `pgmp_observe` (the canonical home, so the trace sink
/// and the profile store share one implementation) under this historical
/// path, which predates the observe crate.
pub use pgmp_observe::write_atomic;

/// Error loading or storing profile information.
#[derive(Debug)]
pub enum ProfileStoreError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file was not a well-formed profile s-expression.
    Malformed(String),
    /// The file declares a format version this build does not understand.
    UnsupportedVersion(i64),
    /// The slot-table section is inconsistent (non-dense indices,
    /// duplicated points, count mismatch).
    SlotTable(String),
}

impl fmt::Display for ProfileStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileStoreError::Io(e) => write!(f, "profile file I/O error: {e}"),
            ProfileStoreError::Malformed(m) => write!(f, "malformed profile file: {m}"),
            ProfileStoreError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported profile format version {v} (expected 1 or 2)"
                )
            }
            ProfileStoreError::SlotTable(m) => write!(f, "invalid slot table: {m}"),
        }
    }
}

impl std::error::Error for ProfileStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileStoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProfileStoreError {
    fn from(e: std::io::Error) -> ProfileStoreError {
        ProfileStoreError::Io(e)
    }
}

impl From<ReadError> for ProfileStoreError {
    fn from(e: ReadError) -> ProfileStoreError {
        malformed(format!("unreadable: {e}"))
    }
}

fn malformed(msg: impl Into<String>) -> ProfileStoreError {
    ProfileStoreError::Malformed(msg.into())
}

/// The trace label for a profile of format `version`.
fn store_kind(version: u32) -> &'static str {
    if version >= 2 {
        "profile-v2"
    } else {
        "profile-v1"
    }
}

/// Atomically writes serialized profile `text` and emits a `store_write`
/// trace event (bytes + duration) when a recording is active.
fn write_traced(path: &Path, text: &str, version: u32) -> std::io::Result<()> {
    let t = observe::timer();
    write_atomic(path, text)?;
    observe::finish(t, |duration_us| observe::EventKind::StoreWrite {
        path: path.display().to_string(),
        kind: store_kind(version).to_string(),
        bytes: text.len() as u64,
        duration_us,
    });
    Ok(())
}

/// Reads and parses the profile at `path`, emitting a `store_read` trace
/// event (with the parsed version's kind) when a recording is active.
fn load_traced(path: &Path) -> Result<StoredProfile, ProfileStoreError> {
    let t = observe::timer();
    let text = std::fs::read_to_string(path)?;
    let sp = StoredProfile::load_from_str(&text)?;
    observe::finish(t, |duration_us| observe::EventKind::StoreRead {
        path: path.display().to_string(),
        kind: store_kind(sp.version).to_string(),
        bytes: text.len() as u64,
        duration_us,
    });
    Ok(sp)
}

/// How a stored profile's counts were collected — exact per-event
/// counters or statistical sampling estimates.
///
/// Recorded in format v2 as a `(provenance ...)` entry (omitted for
/// [`Provenance::Exact`], so files written by exact backends — and every
/// pre-provenance file — keep reading identically on older builds and
/// sniff as exact here). `pgmp-profile inspect` surfaces it and `merge`
/// warns when inputs mix provenances: §3.2 weighted averaging is still
/// well-defined on estimates, but the merged weights inherit the sampled
/// inputs' ε.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Provenance {
    /// Counts came from exact per-event counters (dense or hash).
    #[default]
    Exact,
    /// Counts are statistical estimates from the sampling backend ticking
    /// at `hz` (0 when the sampler was driven manually).
    Sampled { hz: u32 },
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provenance::Exact => write!(f, "exact"),
            Provenance::Sampled { hz } => write!(f, "sampled@{hz}hz"),
        }
    }
}

/// A profile file as stored on disk: weights plus (in format v2) the dense
/// slot table that lets a reloading process skip re-interning.
///
/// [`ProfileInformation::store_file`] / [`ProfileInformation::load_file`]
/// remain the weight-only v1 API; `StoredProfile` is the full-fidelity
/// handle used by engines and the `pgmp-profile` tool.
#[derive(Clone, Debug)]
pub struct StoredProfile {
    /// The profile weights (and dataset count) the file carries.
    pub info: ProfileInformation,
    /// The dense slot table, present iff the file is v2 with a table.
    pub slots: Option<SlotMap>,
    /// The format version the file declared (1 or 2).
    pub version: u32,
    /// How the counts behind the weights were collected (v2 metadata;
    /// defaults to exact when the file predates provenance).
    pub provenance: Provenance,
    /// Per-point match confidence from stale-profile rebasing (v2
    /// metadata; see [`crate::rebase()`] and `docs/REBASE.md`). A point
    /// absent from this map has confidence 1.0 — it was either recorded
    /// directly or rebased by an exact match — and the canonical writer
    /// leaves 1.0 implicit, so non-rebased files stay byte-identical to
    /// pre-confidence output. Stored weights are already decayed; the
    /// confidence entry records *why* a weight is lower than what was
    /// originally collected.
    pub confidence: HashMap<SourceObject, f64>,
}

impl StoredProfile {
    /// Wraps weights as a version-1 profile (no slot table).
    pub fn v1(info: ProfileInformation) -> StoredProfile {
        StoredProfile {
            info,
            slots: None,
            version: 1,
            provenance: Provenance::Exact,
            confidence: HashMap::new(),
        }
    }

    /// Wraps weights and a slot table as a version-2 profile.
    pub fn v2(info: ProfileInformation, slots: Option<SlotMap>) -> StoredProfile {
        StoredProfile {
            info,
            slots,
            version: 2,
            provenance: Provenance::Exact,
            confidence: HashMap::new(),
        }
    }

    /// Sets the recorded provenance (builder-style).
    pub fn with_provenance(mut self, provenance: Provenance) -> StoredProfile {
        self.provenance = provenance;
        self
    }

    /// Sets per-point rebase confidences (builder-style). Entries at
    /// exactly 1.0 are dropped — full confidence is the implicit default.
    pub fn with_confidences(
        mut self,
        confidence: impl IntoIterator<Item = (SourceObject, f64)>,
    ) -> StoredProfile {
        self.confidence = confidence.into_iter().filter(|(_, c)| *c < 1.0).collect();
        self
    }

    /// The rebase match confidence of point `p` (1.0 unless a rebase
    /// decayed it).
    pub fn confidence(&self, p: SourceObject) -> f64 {
        self.confidence.get(&p).copied().unwrap_or(1.0)
    }

    /// Serializes to the textual profile format of [`StoredProfile::version`].
    ///
    /// Output is deterministic: slot entries in slot order, loose points
    /// sorted. Storing at version 1 drops the slot table (the downgrade
    /// path of `pgmp-profile convert`).
    pub fn store_to_string(&self) -> String {
        if self.version == 1 {
            return self.info.store_to_string();
        }
        let mut out = String::new();
        out.push_str("(pgmp-profile\n  (version 2)\n");
        let _ = writeln!(out, "  (datasets {})", self.info.dataset_count());
        // Exact provenance is the default and is left implicit so that
        // files written by exact backends stay readable by pre-provenance
        // parsers (which reject unknown entries).
        if let Provenance::Sampled { hz } = self.provenance {
            let _ = writeln!(out, "  (provenance sampled {hz})");
        }
        let empty = SlotMap::new();
        let slots = self.slots.as_ref().unwrap_or(&empty);
        let mut rows = RowWriter::default();
        if !slots.is_empty() {
            let _ = writeln!(out, "  (slots {})", slots.len());
            for (i, p) in slots.points().iter().enumerate() {
                let _ = write!(out, "  (slot {i}");
                rows.point(&mut out, *p);
                if let Some(w) = self.info.lookup(*p) {
                    float(&mut out, w);
                    self.write_confidence(&mut out, p);
                }
                out.push_str(")\n");
            }
        }
        let mut loose: Vec<(SourceObject, f64)> = self
            .info
            .iter()
            .filter(|(p, _)| slots.get(*p).is_none())
            .collect();
        loose.sort_by_key(|a| a.0);
        for (p, w) in loose {
            out.push_str("  (point");
            rows.point(&mut out, p);
            float(&mut out, w);
            self.write_confidence(&mut out, &p);
            out.push_str(")\n");
        }
        out.push(')');
        out
    }

    /// Appends ` (confidence c)` for a point rebased below full confidence.
    fn write_confidence(&self, out: &mut String, p: &SourceObject) {
        if let Some(c) = self.confidence.get(p).filter(|c| **c < 1.0) {
            out.push_str(" (confidence");
            float(out, *c);
            out.push(')');
        }
    }

    /// Parses either format version, sniffing `(version n)`.
    ///
    /// # Errors
    ///
    /// [`ProfileStoreError::Malformed`] for unparseable text,
    /// [`ProfileStoreError::UnsupportedVersion`] for versions other than 1
    /// and 2, and [`ProfileStoreError::SlotTable`] for v2 files whose slot
    /// section is not a dense bijection. Never panics on hostile input.
    pub fn load_from_str(text: &str) -> Result<StoredProfile, ProfileStoreError> {
        let mut loader = Loader::default();
        walk_datums(text, "<profile>", &mut loader)?;
        loader.finish()
    }

    /// Writes the profile to `path` atomically (see [`write_atomic`]).
    ///
    /// # Errors
    ///
    /// Returns [`ProfileStoreError::Io`] on filesystem failure.
    pub fn store_file(&self, path: impl AsRef<Path>) -> Result<(), ProfileStoreError> {
        write_traced(path.as_ref(), &self.store_to_string(), self.version)?;
        Ok(())
    }

    /// Reads a stored profile of either format version from `path`.
    ///
    /// # Errors
    ///
    /// As [`StoredProfile::load_from_str`], plus [`ProfileStoreError::Io`]
    /// on filesystem failure.
    pub fn load_file(path: impl AsRef<Path>) -> Result<StoredProfile, ProfileStoreError> {
        load_traced(path.as_ref())
    }
}

/// One field of a profile row, as the datum walk shows it.
enum Field<'src> {
    Int(i64),
    Float(f64),
    Str(Cow<'src, str>),
    Sym(&'src str),
    /// A `(confidence c)` sub-entry with a numeric `c`.
    Confidence(f64),
    /// Anything else: a character, a boolean, a vector or another list.
    Other,
}

impl<'src> From<Atom<'src>> for Field<'src> {
    fn from(atom: Atom<'src>) -> Field<'src> {
        match atom {
            Atom::Int(n) => Field::Int(n),
            Atom::Float(x) => Field::Float(x),
            Atom::Str(s) => Field::Str(s),
            Atom::Sym(s) => Field::Sym(s),
            Atom::Bool(_) | Atom::Char(_) => Field::Other,
        }
    }
}

/// How much of `(confidence c)` a list inside a row has matched so far.
#[derive(Clone, Copy, Default)]
enum Sub {
    #[default]
    Start,
    Tag,
    Number(f64),
    Other,
}

impl Sub {
    fn then(self, atom: &Atom<'_>) -> Sub {
        match (self, atom) {
            (Sub::Start, Atom::Sym("confidence")) => Sub::Tag,
            (Sub::Tag, Atom::Float(x)) => Sub::Number(*x),
            (Sub::Tag, Atom::Int(n)) => Sub::Number(*n as f64),
            _ => Sub::Other,
        }
    }

    fn field<'src>(self) -> Field<'src> {
        match self {
            Sub::Number(c) => Field::Confidence(c),
            _ => Field::Other,
        }
    }
}

/// The profile parser: reads `(pgmp-profile …)` in one pass, from the
/// reader's datum walk straight to slot points and weights.
///
/// Errors keep the precedence of `docs/PROFILE_FORMAT.md`: a read error
/// or a malformed entry shape returns at once; an unsupported version is
/// reported when the walk ends; the first row error is recorded and the
/// walk goes on, so both can still overrule it; the slot table is checked
/// as a whole last.
#[derive(Default)]
struct Loader<'src> {
    /// Open lists and vectors: 1 inside `(pgmp-profile …)`, 2 in a row.
    depth: usize,
    /// The top-level form has begun; a second one is an error.
    begun: bool,
    /// The `pgmp-profile` header has been read.
    header: bool,
    /// The fields of the row being read.
    row: Vec<Field<'src>>,
    /// The list being read inside the row.
    sub: Sub,
    version: Option<i64>,
    /// Rows read before the version entry, checked once it is known.
    early: Vec<Vec<Field<'src>>>,
    rows: Rows,
}

impl<'src> DatumVisitor<'src> for Loader<'src> {
    type Error = ProfileStoreError;

    #[inline]
    fn atom(&mut self, atom: Atom<'src>) -> Result<(), ProfileStoreError> {
        match self.depth {
            0 => return Err(malformed("expected one (pgmp-profile …) list")),
            1 if self.header => return Err(malformed("profile entry must be a list")),
            1 if atom == Atom::Sym("pgmp-profile") => self.header = true,
            1 => return Err(malformed("missing pgmp-profile header")),
            2 => self.row.push(atom.into()),
            3 => self.sub = self.sub.then(&atom),
            _ => {}
        }
        Ok(())
    }

    #[inline]
    fn open(&mut self, vector: bool) -> Result<(), ProfileStoreError> {
        match self.depth {
            0 if self.begun || vector => {
                return Err(malformed("expected one (pgmp-profile …) list"))
            }
            0 => self.begun = true,
            1 if !self.header => return Err(malformed("missing pgmp-profile header")),
            1 if vector => return Err(malformed("profile entry must be a list")),
            1 => self.row.clear(),
            2 if !vector => self.sub = Sub::Start,
            _ => self.sub = Sub::Other,
        }
        self.depth += 1;
        Ok(())
    }

    fn dot(&mut self) -> Result<(), ProfileStoreError> {
        match self.depth {
            1 => Err(malformed("top-level form must be a list")),
            2 => Err(malformed("profile entry must be a list")),
            _ => {
                self.sub = Sub::Other;
                Ok(())
            }
        }
    }

    #[inline]
    fn close(&mut self) -> Result<(), ProfileStoreError> {
        self.depth -= 1;
        match self.depth {
            0 if !self.header => return Err(malformed("missing pgmp-profile header")),
            1 => return self.end_row(),
            2 => self.row.push(self.sub.field()),
            _ => {}
        }
        Ok(())
    }
}

impl<'src> Loader<'src> {
    /// Takes the row just closed: a version entry, or a row to check now
    /// or, while the version is unknown, later.
    fn end_row(&mut self) -> Result<(), ProfileStoreError> {
        let Some(Field::Sym(tag)) = self.row.first() else {
            return Err(malformed("profile entry missing tag"));
        };
        if *tag != "version" {
            match self.version {
                Some(version) => self.rows.check(&self.row, version),
                None => self.early.push(std::mem::take(&mut self.row)),
            }
            return Ok(());
        }
        let [_, Field::Int(version)] = self.row[..] else {
            return Err(malformed("malformed version entry"));
        };
        if self.version.replace(version).is_some() {
            return Err(malformed("duplicate version entry"));
        }
        for row in std::mem::take(&mut self.early) {
            self.rows.check(&row, version);
        }
        Ok(())
    }

    fn finish(mut self) -> Result<StoredProfile, ProfileStoreError> {
        if !self.begun {
            return Err(malformed("expected one (pgmp-profile …) list"));
        }
        let version = self.version.unwrap_or(1);
        if version != 1 && version != 2 {
            return Err(ProfileStoreError::UnsupportedVersion(version));
        }
        for row in std::mem::take(&mut self.early) {
            self.rows.check(&row, version);
        }
        self.rows.finish(version as u32)
    }
}

/// What the rows of a profile say, checked one at a time in file order.
#[derive(Default)]
struct Rows {
    dataset_count: Option<usize>,
    declared_slots: Option<usize>,
    slot_points: Vec<SourceObject>,
    weights: Vec<(SourceObject, f64)>,
    provenance: Option<Provenance>,
    confidence: HashMap<SourceObject, f64>,
    /// The first row error; later rows are not checked.
    error: Option<ProfileStoreError>,
    /// The last file name read and its symbol: rows come grouped by file,
    /// so a name is interned only when it changes.
    file: Option<(String, Symbol)>,
}

impl Rows {
    fn check(&mut self, row: &[Field<'_>], version: i64) {
        if self.error.is_none() && (version == 1 || version == 2) {
            if let Err(e) = self.row(row, version == 2) {
                self.error = Some(e);
            }
        }
    }

    fn row(&mut self, row: &[Field<'_>], v2: bool) -> Result<(), ProfileStoreError> {
        let [Field::Sym(tag), args @ ..] = row else {
            unreachable!("a row starts with its tag");
        };
        match (*tag, args) {
            ("datasets", [Field::Int(n)]) if *n >= 0 => self.dataset_count = Some(*n as usize),
            ("provenance", args) if v2 => {
                let p = match args {
                    [Field::Sym("exact")] => Provenance::Exact,
                    [Field::Sym("sampled"), Field::Int(hz)] if u32::try_from(*hz).is_ok() => {
                        Provenance::Sampled { hz: *hz as u32 }
                    }
                    _ => return Err(malformed("malformed provenance entry")),
                };
                if self.provenance.replace(p).is_some() {
                    return Err(malformed("duplicate provenance entry"));
                }
            }
            ("point", [Field::Str(file), Field::Int(bfp), Field::Int(efp), w, rest @ ..])
                if rest.len() <= usize::from(v2) =>
            {
                let w = weight(w)?;
                let p = self.point(file, *bfp, *efp)?;
                if let Some(c) = rest.first() {
                    self.confidence.insert(p, confidence(c)?);
                }
                self.weights.push((p, w));
            }
            ("slots", [Field::Int(n)]) if v2 && *n >= 0 => {
                if self.declared_slots.replace(*n as usize).is_some() {
                    return Err(ProfileStoreError::SlotTable("duplicate slots entry".into()));
                }
            }
            (
                "slot",
                [Field::Int(i), Field::Str(file), Field::Int(bfp), Field::Int(efp), rest @ ..],
            ) if v2 && rest.len() <= 2 => {
                if *i != self.slot_points.len() as i64 {
                    return Err(ProfileStoreError::SlotTable(format!(
                        "slot index {i} out of order (expected {})",
                        self.slot_points.len()
                    )));
                }
                let w = rest.first().map(weight).transpose()?;
                let p = self.point(file, *bfp, *efp)?;
                self.slot_points.push(p);
                // A confidence follows a weight: `rest[1]` exists only
                // after a weight in `rest[0]`.
                if let Some(c) = rest.get(1) {
                    self.confidence.insert(p, confidence(c)?);
                }
                if let Some(w) = w {
                    self.weights.push((p, w));
                }
            }
            (other, _) => {
                return Err(malformed(format!("unknown or malformed entry `{other}`")));
            }
        }
        Ok(())
    }

    fn point(&mut self, file: &str, bfp: i64, efp: i64) -> Result<SourceObject, ProfileStoreError> {
        let (bfp, efp) = span(bfp, efp)?;
        let file = match &self.file {
            Some((last, sym)) if last == file => *sym,
            _ => {
                let sym = Symbol::intern(file);
                self.file = Some((file.to_owned(), sym));
                sym
            }
        };
        Ok(SourceObject { file, bfp, efp })
    }

    fn finish(self, version: u32) -> Result<StoredProfile, ProfileStoreError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let slots = if self.slot_points.is_empty() && self.declared_slots.unwrap_or(0) == 0 {
            None
        } else {
            if let Some(n) = self.declared_slots {
                if n != self.slot_points.len() {
                    return Err(ProfileStoreError::SlotTable(format!(
                        "declared {n} slots but found {}",
                        self.slot_points.len()
                    )));
                }
            }
            let table = SlotMap::from_points(self.slot_points).map_err(|p| {
                ProfileStoreError::SlotTable(format!("duplicate point {p} in slot table"))
            })?;
            Some(table)
        };
        Ok(StoredProfile {
            info: ProfileInformation::from_weights(self.weights, self.dataset_count.unwrap_or(1)),
            slots,
            version,
            provenance: self.provenance.unwrap_or_default(),
            confidence: self.confidence,
        })
    }
}

/// A row's weight: a number in `[0, 1]`.
fn weight(w: &Field<'_>) -> Result<f64, ProfileStoreError> {
    match w {
        Field::Float(x) => check_weight(*x),
        Field::Int(n) => check_weight(*n as f64),
        _ => Err(malformed("weight is not a number")),
    }
}

fn check_weight(w: f64) -> Result<f64, ProfileStoreError> {
    if (0.0..=1.0).contains(&w) {
        Ok(w)
    } else {
        Err(malformed(format!("weight {w} outside [0,1]")))
    }
}

/// A `(confidence c)` sub-entry: `c` must be a number in `(0, 1]` — a
/// zero-confidence point is a dead point and must simply be absent, and
/// values above 1 would let a rebase *amplify* weights.
fn confidence(c: &Field<'_>) -> Result<f64, ProfileStoreError> {
    match c {
        Field::Confidence(c) if *c > 0.0 && *c <= 1.0 => Ok(*c),
        Field::Confidence(c) => Err(malformed(format!("confidence {c} outside (0,1]"))),
        _ => Err(malformed("malformed confidence entry")),
    }
}

/// A point's file positions, each in `0..=u32::MAX`.
fn span(bfp: i64, efp: i64) -> Result<(u32, u32), ProfileStoreError> {
    match (u32::try_from(bfp), u32::try_from(efp)) {
        (Ok(bfp), Ok(efp)) => Ok((bfp, efp)),
        _ => Err(malformed(format!(
            "file position {bfp}-{efp} outside 0..={}",
            u32::MAX
        ))),
    }
}

/// Writes the points of profile rows, escaping each file name once.
#[derive(Default)]
struct RowWriter {
    names: FnvHashMap<Symbol, String>,
}

impl RowWriter {
    /// Appends ` "file" bfp efp` for `p`.
    fn point(&mut self, out: &mut String, p: SourceObject) {
        let name = self.names.entry(p.file).or_insert_with(|| {
            let mut name = String::new();
            let _ = write_string(p.file.as_str(), &mut name);
            name
        });
        out.push(' ');
        out.push_str(name);
        let _ = write!(out, " {} {}", p.bfp, p.efp);
    }
}

/// Appends ` x`, written as `Datum::Float` writes it.
fn float(out: &mut String, x: f64) {
    out.push(' ');
    let _ = write_float(x, out);
}

/// `(point file bfp efp w)`: one weighted profile point as a datum.
pub fn point_datum(p: SourceObject, w: f64) -> Datum {
    Datum::list(vec![
        Datum::sym("point"),
        Datum::string(p.file.as_str()),
        Datum::Int(p.bfp as i64),
        Datum::Int(p.efp as i64),
        Datum::Float(w),
    ])
}

impl ProfileInformation {
    /// The weights as the body entries other stores embed (session files'
    /// `(weights …)`, epoch snapshots' `(baseline …)`): `(datasets N)`,
    /// then one `(point file bfp efp w)` per point, sorted by point.
    pub fn body_datums(&self) -> Vec<Datum> {
        let mut points: Vec<(SourceObject, f64)> = self.iter().collect();
        points.sort_by_key(|a| a.0);
        let mut out = vec![Datum::list(vec![
            Datum::sym("datasets"),
            Datum::Int(self.dataset_count() as i64),
        ])];
        out.extend(points.into_iter().map(|(p, w)| point_datum(p, w)));
        out
    }

    /// Parses the body entries [`ProfileInformation::body_datums`] writes.
    /// A missing `(datasets N)` means one dataset.
    ///
    /// # Errors
    ///
    /// [`ProfileStoreError::Malformed`] for a non-list or unknown entry, a
    /// file position outside `0..=u32::MAX`, and a weight that is not a number in
    /// `[0, 1]`.
    pub fn from_body(entries: &[Datum]) -> Result<ProfileInformation, ProfileStoreError> {
        let mut dataset_count = 1usize;
        let mut weights = Vec::new();
        for e in entries {
            let elems = e
                .list_elems()
                .ok_or_else(|| malformed("profile entry must be a list"))?;
            match elems.as_slice() {
                [Datum::Sym(tag), Datum::Int(n)] if tag.as_str() == "datasets" && *n >= 0 => {
                    dataset_count = *n as usize;
                }
                [Datum::Sym(tag), Datum::Str(file), Datum::Int(bfp), Datum::Int(efp), w]
                    if tag.as_str() == "point" =>
                {
                    let w = match w {
                        Datum::Float(x) => check_weight(*x)?,
                        Datum::Int(n) => check_weight(*n as f64)?,
                        _ => return Err(malformed(format!("bad weight {w}"))),
                    };
                    let (bfp, efp) = span(*bfp, *efp)?;
                    weights.push((SourceObject::new(file, bfp, efp), w));
                }
                _ => return Err(malformed(format!("unknown profile entry {e}"))),
            }
        }
        Ok(ProfileInformation::from_weights(weights, dataset_count))
    }

    /// Serializes to the textual **version 1** profile format (weights
    /// only). Byte-identical to the output of every release since the
    /// format was introduced; use [`StoredProfile`] for v2.
    ///
    /// Points are sorted so output is deterministic.
    pub fn store_to_string(&self) -> String {
        let mut points: Vec<(SourceObject, f64)> = self.iter().collect();
        points.sort_by_key(|a| a.0);
        let mut out = String::new();
        out.push_str("(pgmp-profile\n  (version 1)\n");
        let _ = writeln!(out, "  (datasets {})", self.dataset_count());
        let mut rows = RowWriter::default();
        for (p, w) in points {
            out.push_str("  (point");
            rows.point(&mut out, p);
            float(&mut out, w);
            out.push_str(")\n");
        }
        out.push(')');
        out
    }

    /// Parses the textual profile format, either version (the slot table of
    /// a v2 file is dropped; use [`StoredProfile::load_from_str`] to keep
    /// it).
    ///
    /// # Errors
    ///
    /// As [`StoredProfile::load_from_str`].
    pub fn load_from_str(text: &str) -> Result<ProfileInformation, ProfileStoreError> {
        Ok(StoredProfile::load_from_str(text)?.info)
    }

    /// Writes the profile to the file at `path` (Figure 4's
    /// `store-profile`), atomically (see [`write_atomic`]).
    ///
    /// # Errors
    ///
    /// Returns [`ProfileStoreError::Io`] on filesystem failure.
    pub fn store_file(&self, path: impl AsRef<Path>) -> Result<(), ProfileStoreError> {
        write_traced(path.as_ref(), &self.store_to_string(), 1)?;
        Ok(())
    }

    /// Reads profile information from the file at `path` (Figure 4's
    /// `load-profile`).
    ///
    /// # Errors
    ///
    /// Returns [`ProfileStoreError::Io`] on filesystem failure and the
    /// parse errors of [`StoredProfile::load_from_str`] otherwise.
    pub fn load_file(path: impl AsRef<Path>) -> Result<ProfileInformation, ProfileStoreError> {
        Ok(load_traced(path.as_ref())?.info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Dataset;

    /// The datums of a body text.
    fn datums(text: &str) -> Vec<Datum> {
        let forms = pgmp_reader::read_str(text, "<body>").unwrap();
        forms.iter().map(|stx| stx.to_datum()).collect()
    }

    fn sample() -> ProfileInformation {
        let d: Dataset = [
            (SourceObject::new("a.scm", 0, 5), 5),
            (SourceObject::new("a.scm", 10, 20), 10),
            (SourceObject::new("b.scm%pgmp0", 3, 4), 1),
        ]
        .into_iter()
        .collect();
        ProfileInformation::from_dataset(&d)
    }

    fn sample_slots() -> SlotMap {
        let mut m = SlotMap::new();
        m.resolve(SourceObject::new("a.scm", 10, 20));
        m.resolve(SourceObject::new("a.scm", 0, 5));
        m.resolve(SourceObject::new("never-run.scm", 0, 1));
        m
    }

    #[test]
    fn round_trips_through_text() {
        let info = sample();
        let text = info.store_to_string();
        let back = ProfileInformation::load_from_str(&text).unwrap();
        assert_eq!(back, info);
    }

    #[test]
    fn round_trips_through_file() {
        let dir = std::env::temp_dir().join("pgmp-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.pgmp");
        let info = sample();
        info.store_file(&path).unwrap();
        let back = ProfileInformation::load_file(&path).unwrap();
        assert_eq!(back, info);
    }

    #[test]
    fn weight_bodies_round_trip_and_reject_bad_entries() {
        let info = sample();
        let body = info.body_datums();
        assert_eq!(
            body.iter().map(|d| d.to_string()).collect::<Vec<_>>(),
            [
                "(datasets 1)",
                "(point \"a.scm\" 0 5 0.5)",
                "(point \"a.scm\" 10 20 1.0)",
                "(point \"b.scm%pgmp0\" 3 4 0.1)",
            ]
        );
        assert_eq!(ProfileInformation::from_body(&body).unwrap(), info);
        let bare = ProfileInformation::from_body(&[]).unwrap();
        assert_eq!((bare.len(), bare.dataset_count()), (0, 1));
        for bad in [
            "(point \"x\" -1 0 0.5)",
            "(point \"x\" 0 1 bogus)",
            "(point \"x\" 0 1 2.0)",
            "(point \"x\" 0 1)",
            "(weight \"x\" 0 1 0.5)",
            "(datasets -1)",
            "datasets",
        ] {
            let entries = datums(bad);
            let r = ProfileInformation::from_body(&entries);
            assert!(
                matches!(r, Err(ProfileStoreError::Malformed(_))),
                "{bad}: {r:?}"
            );
        }
    }

    #[test]
    fn positions_beyond_u32_are_malformed() {
        // 4294967301 is 2^32 + 5: a wrapping cast would load it as `f:5-14`.
        for text in [
            "(pgmp-profile (point \"f\" 4294967301 4294967310 0.5))",
            "(pgmp-profile (point \"f\" 0 4294967296 0.5))",
            "(pgmp-profile (version 2) (slot 0 \"f\" 4294967301 4294967310 0.5))",
        ] {
            let r = StoredProfile::load_from_str(text);
            assert!(
                matches!(r, Err(ProfileStoreError::Malformed(_))),
                "{text}: {r:?}"
            );
        }
        let body = datums("(point \"f\" 4294967301 4294967310 0.5)");
        let r = ProfileInformation::from_body(&body);
        assert!(matches!(r, Err(ProfileStoreError::Malformed(_))), "{r:?}");
        // The largest position still loads.
        let max = StoredProfile::load_from_str("(pgmp-profile (point \"f\" 0 4294967295 0.5))");
        assert_eq!(
            max.unwrap()
                .info
                .lookup(SourceObject::new("f", 0, u32::MAX)),
            Some(0.5)
        );
    }

    #[test]
    fn output_is_deterministic() {
        assert_eq!(sample().store_to_string(), sample().store_to_string());
        let sp = StoredProfile::v2(sample(), Some(sample_slots()));
        assert_eq!(sp.store_to_string(), sp.store_to_string());
    }

    #[test]
    fn v2_round_trips_weights_and_slots() {
        let sp = StoredProfile::v2(sample(), Some(sample_slots()));
        let text = sp.store_to_string();
        let back = StoredProfile::load_from_str(&text).unwrap();
        assert_eq!(back.version, 2);
        assert_eq!(back.info, sp.info);
        let slots = back.slots.unwrap();
        assert_eq!(slots.points(), sample_slots().points());
    }

    #[test]
    fn v2_without_table_round_trips() {
        let sp = StoredProfile::v2(sample(), None);
        let back = StoredProfile::load_from_str(&sp.store_to_string()).unwrap();
        assert_eq!(back.version, 2);
        assert_eq!(back.info, sp.info);
        assert!(back.slots.is_none());
    }

    #[test]
    fn v1_files_load_as_version_1() {
        let back = StoredProfile::load_from_str(&sample().store_to_string()).unwrap();
        assert_eq!(back.version, 1);
        assert!(back.slots.is_none());
        assert_eq!(back.info, sample());
    }

    #[test]
    fn unexecuted_slot_entries_have_no_weight() {
        // `never-run.scm` is interned but has no weight: round-tripping must
        // not invent a 0-weight entry for it.
        let sp = StoredProfile::v2(sample(), Some(sample_slots()));
        let back = StoredProfile::load_from_str(&sp.store_to_string()).unwrap();
        assert_eq!(
            back.info.lookup(SourceObject::new("never-run.scm", 0, 1)),
            None
        );
        assert_eq!(back.info.len(), sample().len());
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "(not-a-profile)",
            "(pgmp-profile (point \"f\" 0 1 2.0))", // weight out of range
            "(pgmp-profile (point \"f\" 0 1 -0.5))",
            "(pgmp-profile (point \"f\" 0 1 \"x\"))",
            "(pgmp-profile (point 7 0 1 0.5))",
            "(pgmp-profile (mystery 1))",
            "(pgmp-profile (version 1)) (extra)",
            "(pgmp-profile (point \"f\" -1 1 0.5))",
            "(pgmp-profile (version 1) (version 1))",
            "(pgmp-profile (version \"2\"))",
            // v2-only entries are not valid in a v1 file.
            "(pgmp-profile (version 1) (slot 0 \"f\" 0 1 0.5))",
            "(pgmp-profile (version 1) (slots 1))",
            "(pgmp-profile (version 1) (provenance exact))",
            // Malformed provenance entries.
            "(pgmp-profile (version 2) (provenance))",
            "(pgmp-profile (version 2) (provenance mystery))",
            "(pgmp-profile (version 2) (provenance sampled))",
            "(pgmp-profile (version 2) (provenance sampled -1))",
            "(pgmp-profile (version 2) (provenance sampled 1.5))",
            "(pgmp-profile (version 2) (provenance exact) (provenance exact))",
        ] {
            assert!(
                ProfileInformation::load_from_str(bad).is_err(),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn unsupported_version_is_typed() {
        for (text, want) in [
            ("(pgmp-profile (version 3))", 3i64),
            ("(pgmp-profile (version 0))", 0),
            ("(pgmp-profile (version -1))", -1),
        ] {
            match ProfileInformation::load_from_str(text) {
                Err(ProfileStoreError::UnsupportedVersion(v)) => assert_eq!(v, want),
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn slot_table_errors_are_typed() {
        for bad in [
            // Out-of-order / non-dense indices.
            "(pgmp-profile (version 2) (slot 1 \"f\" 0 1))",
            "(pgmp-profile (version 2) (slot 0 \"f\" 0 1) (slot 2 \"g\" 0 1))",
            // Count mismatch.
            "(pgmp-profile (version 2) (slots 2) (slot 0 \"f\" 0 1))",
            "(pgmp-profile (version 2) (slots 0) (slot 0 \"f\" 0 1))",
            // Duplicate point.
            "(pgmp-profile (version 2) (slot 0 \"f\" 0 1) (slot 1 \"f\" 0 1))",
            // Duplicate slots declaration.
            "(pgmp-profile (version 2) (slots 1) (slots 1) (slot 0 \"f\" 0 1))",
        ] {
            match StoredProfile::load_from_str(bad) {
                Err(ProfileStoreError::SlotTable(_)) => {}
                other => panic!("expected SlotTable error for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn provenance_round_trips_and_defaults_to_exact() {
        // Files written before provenance existed (and files written by
        // exact backends, which leave it implicit) sniff as exact.
        let exact = StoredProfile::v2(sample(), Some(sample_slots()));
        let text = exact.store_to_string();
        assert!(!text.contains("provenance"), "exact stays implicit");
        let back = StoredProfile::load_from_str(&text).unwrap();
        assert_eq!(back.provenance, Provenance::Exact);
        let v1 = StoredProfile::load_from_str(&sample().store_to_string()).unwrap();
        assert_eq!(v1.provenance, Provenance::Exact);

        let sampled = StoredProfile::v2(sample(), Some(sample_slots()))
            .with_provenance(Provenance::Sampled { hz: 997 });
        let text = sampled.store_to_string();
        assert!(text.contains("(provenance sampled 997)"));
        let back = StoredProfile::load_from_str(&text).unwrap();
        assert_eq!(back.provenance, Provenance::Sampled { hz: 997 });
        assert_eq!(back.provenance.to_string(), "sampled@997hz");
        assert_eq!(back.info, sampled.info);

        // An explicit exact entry is also accepted.
        let explicit =
            StoredProfile::load_from_str("(pgmp-profile (version 2) (provenance exact))").unwrap();
        assert_eq!(explicit.provenance, Provenance::Exact);
    }

    #[test]
    fn confidence_round_trips_and_defaults_to_full() {
        let decayed = SourceObject::new("a.scm", 0, 5);
        let sp = StoredProfile::v2(sample(), Some(sample_slots()))
            .with_confidences([(decayed, 0.75), (SourceObject::new("a.scm", 10, 20), 1.0)]);
        // 1.0 entries are dropped at construction: full confidence is
        // implicit, keeping non-rebased files byte-identical.
        assert_eq!(sp.confidence.len(), 1);
        let text = sp.store_to_string();
        assert!(text.contains("(confidence 0.75)"), "{text}");
        let back = StoredProfile::load_from_str(&text).unwrap();
        assert_eq!(back.confidence(decayed), 0.75);
        assert_eq!(back.confidence(SourceObject::new("a.scm", 10, 20)), 1.0);
        assert_eq!(back.info, sp.info);
        // And a confidence on a loose (non-slot) point round-trips too.
        let loose = SourceObject::new("b.scm%pgmp0", 3, 4);
        let sp = StoredProfile::v2(sample(), None).with_confidences([(loose, 0.5)]);
        let back = StoredProfile::load_from_str(&sp.store_to_string()).unwrap();
        assert_eq!(back.confidence(loose), 0.5);
    }

    #[test]
    fn files_without_confidence_stay_byte_identical() {
        // The confidence extension must not change the output of profiles
        // that never went through a rebase.
        let sp = StoredProfile::v2(sample(), Some(sample_slots()));
        let text = sp.store_to_string();
        assert!(!text.contains("confidence"));
        let rebased_free =
            StoredProfile::v2(sample(), Some(sample_slots())).with_confidences(std::iter::empty());
        assert_eq!(rebased_free.store_to_string(), text);
    }

    #[test]
    fn malformed_confidence_entries_are_rejected() {
        for bad in [
            // Confidence is v2-only.
            "(pgmp-profile (version 1) (point \"f\" 0 1 0.5 (confidence 0.5)))",
            // Out of range: dead points must be absent, >1 would amplify.
            "(pgmp-profile (version 2) (point \"f\" 0 1 0.5 (confidence 0.0)))",
            "(pgmp-profile (version 2) (point \"f\" 0 1 0.5 (confidence -0.5)))",
            "(pgmp-profile (version 2) (point \"f\" 0 1 0.5 (confidence 1.5)))",
            // Wrong shape.
            "(pgmp-profile (version 2) (point \"f\" 0 1 0.5 (confidence)))",
            "(pgmp-profile (version 2) (point \"f\" 0 1 0.5 (confidence \"x\")))",
            "(pgmp-profile (version 2) (point \"f\" 0 1 0.5 0.9))",
            // A slot row needs a weight before a confidence.
            "(pgmp-profile (version 2) (slot 0 \"f\" 0 1 (confidence 0.5)))",
        ] {
            assert!(
                StoredProfile::load_from_str(bad).is_err(),
                "should reject {bad:?}"
            );
        }
        // Integer confidence 1 is within (0,1] and accepted.
        let ok = StoredProfile::load_from_str(
            "(pgmp-profile (version 2) (point \"f\" 0 1 0.5 (confidence 1)))",
        )
        .unwrap();
        assert_eq!(ok.confidence(SourceObject::new("f", 0, 1)), 1.0);
    }

    #[test]
    fn empty_v2_is_valid() {
        let back = StoredProfile::load_from_str("(pgmp-profile (version 2))").unwrap();
        assert_eq!(back.version, 2);
        assert!(back.slots.is_none());
        assert_eq!(back.info.len(), 0);
    }

    #[test]
    fn integer_weights_accepted() {
        let info = ProfileInformation::load_from_str("(pgmp-profile (point \"f\" 0 1 1))").unwrap();
        assert_eq!(info.weight(SourceObject::new("f", 0, 1)), 1.0);
        let sp = StoredProfile::load_from_str("(pgmp-profile (version 2) (slot 0 \"f\" 0 1 1))")
            .unwrap();
        assert_eq!(sp.info.weight(SourceObject::new("f", 0, 1)), 1.0);
    }

    #[test]
    fn missing_file_is_io_error() {
        match ProfileInformation::load_file("/nonexistent/profile.pgmp") {
            Err(ProfileStoreError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn dataset_count_round_trips() {
        let merged = sample().merge(&sample());
        assert_eq!(merged.dataset_count(), 2);
        let back = ProfileInformation::load_from_str(&merged.store_to_string()).unwrap();
        assert_eq!(back.dataset_count(), 2);
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join("pgmp-store-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.pgmp");
        std::fs::write(&path, "a much longer pre-existing file body").unwrap();
        write_atomic(&path, "short").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "short");
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "leftover temp files: {leftovers:?}");
    }

    #[test]
    fn atomic_write_to_unwritable_dir_fails_cleanly() {
        let err = write_atomic("/nonexistent-dir/out.pgmp", "x");
        assert!(err.is_err());
    }
}
