//! Profile persistence: `store-profile` / `load-profile` (Figure 4).
//!
//! As in the Chez implementation (§4.1), what is stored is not raw counts
//! but the computed **profile weights**, so stored files from different runs
//! can be merged directly. The on-disk format is a single s-expression,
//! parsed back with the system's own reader. Two format versions exist —
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
use pgmp_reader::read_datums;
use pgmp_syntax::{Datum, SourceObject};
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
                write!(f, "unsupported profile format version {v} (expected 1 or 2)")
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
        if !slots.is_empty() {
            let _ = writeln!(out, "  (slots {})", slots.len());
            for (i, p) in slots.points().iter().enumerate() {
                let _ = write!(
                    out,
                    "  (slot {} {} {} {}",
                    i,
                    Datum::string(p.file.as_str()),
                    p.bfp,
                    p.efp
                );
                match self.info.lookup(*p) {
                    Some(w) => {
                        let _ = write!(out, " {}", Datum::Float(w));
                        if let Some(c) = self.confidence.get(p).filter(|c| **c < 1.0) {
                            let _ = write!(out, " (confidence {})", Datum::Float(*c));
                        }
                        out.push_str(")\n");
                    }
                    None => out.push_str(")\n"),
                }
            }
        }
        let mut loose: Vec<(SourceObject, f64)> = self
            .info
            .iter()
            .filter(|(p, _)| slots.get(*p).is_none())
            .collect();
        loose.sort_by_key(|a| a.0);
        for (p, w) in loose {
            let _ = write!(
                out,
                "  (point {} {} {} {}",
                Datum::string(p.file.as_str()),
                p.bfp,
                p.efp,
                Datum::Float(w)
            );
            if let Some(c) = self.confidence.get(&p).filter(|c| **c < 1.0) {
                let _ = write!(out, " (confidence {})", Datum::Float(*c));
            }
            out.push_str(")\n");
        }
        out.push(')');
        out
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
        // Profile files are machine-written: parse straight to datums
        // (`read_datums`) instead of building source-attributed syntax
        // objects nobody will query.
        let forms = read_datums(text, "<profile>")
            .map_err(|e| malformed(format!("unreadable: {e}")))?;
        let [form]: [Datum; 1] = forms
            .try_into()
            .map_err(|_| malformed("expected exactly one top-level form"))?;
        let elems = form
            .list_elems()
            .ok_or_else(|| malformed("top-level form must be a list"))?;
        let mut iter = elems.into_iter();
        let head = match iter.next() {
            Some(Datum::Sym(s)) => s,
            _ => return Err(malformed("missing pgmp-profile header")),
        };
        if head.as_str() != "pgmp-profile" {
            return Err(malformed(format!("unexpected header `{head}`")));
        }
        // First pass: flatten entries, resolve the declared version.
        let mut entries: Vec<(String, Vec<Datum>)> = Vec::new();
        let mut version: Option<i64> = None;
        for entry in iter {
            let mut fields = entry
                .list_elems()
                .ok_or_else(|| malformed("profile entry must be a list"))?;
            if fields.is_empty() {
                return Err(malformed("profile entry missing tag"));
            }
            let tag = match fields.remove(0) {
                Datum::Sym(s) => s,
                _ => return Err(malformed("profile entry missing tag")),
            };
            let args: Vec<Datum> = fields;
            if tag.as_str() == "version" {
                match args.as_slice() {
                    [Datum::Int(v)] => {
                        if version.replace(*v).is_some() {
                            return Err(malformed("duplicate version entry"));
                        }
                    }
                    _ => return Err(malformed("malformed version entry")),
                }
            } else {
                entries.push((tag.as_str().to_string(), args));
            }
        }
        let version = version.unwrap_or(1);
        if version != 1 && version != 2 {
            return Err(ProfileStoreError::UnsupportedVersion(version));
        }
        let mut dataset_count: usize = 1;
        let mut declared_slots: Option<usize> = None;
        let mut slot_points: Vec<SourceObject> = Vec::new();
        let mut weights: Vec<(SourceObject, f64)> = Vec::new();
        let mut provenance: Option<Provenance> = None;
        let mut confidence: HashMap<SourceObject, f64> = HashMap::new();
        for (tag, args) in &entries {
            match (tag.as_str(), args.as_slice()) {
                ("datasets", [Datum::Int(n)]) if *n >= 0 => dataset_count = *n as usize,
                ("provenance", args) if version == 2 => {
                    let p = match args {
                        [Datum::Sym(s)] if s.as_str() == "exact" => Provenance::Exact,
                        [Datum::Sym(s), Datum::Int(hz)]
                            if s.as_str() == "sampled"
                                && (0..=u32::MAX as i64).contains(hz) =>
                        {
                            Provenance::Sampled { hz: *hz as u32 }
                        }
                        _ => return Err(malformed("malformed provenance entry")),
                    };
                    if provenance.replace(p).is_some() {
                        return Err(malformed("duplicate provenance entry"));
                    }
                }
                ("point", [Datum::Str(file), Datum::Int(bfp), Datum::Int(efp), w, rest @ ..])
                    if rest.len() <= usize::from(version == 2) =>
                {
                    let (p, w) = parse_point(file, *bfp, *efp, Some(w))?;
                    if let Some(c) = rest.first() {
                        confidence.insert(p, parse_confidence(c)?);
                    }
                    weights.push((p, w.expect("point weight is mandatory")));
                }
                ("slots", [Datum::Int(n)]) if version == 2 && *n >= 0 => {
                    if declared_slots.replace(*n as usize).is_some() {
                        return Err(ProfileStoreError::SlotTable(
                            "duplicate slots entry".into(),
                        ));
                    }
                }
                (
                    "slot",
                    [Datum::Int(i), Datum::Str(file), Datum::Int(bfp), Datum::Int(efp), rest @ ..],
                ) if version == 2 && rest.len() <= 2 => {
                    if *i != slot_points.len() as i64 {
                        return Err(ProfileStoreError::SlotTable(format!(
                            "slot index {i} out of order (expected {})",
                            slot_points.len()
                        )));
                    }
                    let (p, w) = parse_point(file, *bfp, *efp, rest.first())?;
                    slot_points.push(p);
                    if let Some(c) = rest.get(1) {
                        // A confidence sub-entry is only meaningful on a
                        // weighted row (enforced structurally: `rest[1]`
                        // exists only after a weight datum in `rest[0]`).
                        confidence.insert(p, parse_confidence(c)?);
                    }
                    if let Some(w) = w {
                        weights.push((p, w));
                    }
                }
                (other, _) => {
                    return Err(malformed(format!("unknown or malformed entry `{other}`")));
                }
            }
        }
        let slots = if slot_points.is_empty() && declared_slots.unwrap_or(0) == 0 {
            None
        } else {
            if let Some(n) = declared_slots {
                if n != slot_points.len() {
                    return Err(ProfileStoreError::SlotTable(format!(
                        "declared {n} slots but found {}",
                        slot_points.len()
                    )));
                }
            }
            let table = SlotMap::from_points(slot_points).map_err(|p| {
                ProfileStoreError::SlotTable(format!("duplicate point {p} in slot table"))
            })?;
            Some(table)
        };
        Ok(StoredProfile {
            info: ProfileInformation::from_weights(weights, dataset_count),
            slots,
            version: version as u32,
            provenance: provenance.unwrap_or_default(),
            confidence,
        })
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

/// Validates a `(confidence c)` sub-entry: `c` must be a number in
/// `(0, 1]` — a zero-confidence point is a dead point and must simply be
/// absent, and values above 1 would let a rebase *amplify* weights.
fn parse_confidence(d: &Datum) -> Result<f64, ProfileStoreError> {
    let c = match d.list_elems().as_deref() {
        Some([Datum::Sym(tag), c]) if tag.as_str() == "confidence" => match c {
            Datum::Float(x) => *x,
            Datum::Int(n) => *n as f64,
            _ => return Err(malformed(format!("bad confidence {c}"))),
        },
        _ => return Err(malformed(format!("malformed confidence entry {d}"))),
    };
    if !(c > 0.0 && c <= 1.0) {
        return Err(malformed(format!("confidence {c} outside (0,1]")));
    }
    Ok(c)
}

/// Validates one profile point's fields; `w` is the optional weight datum.
fn parse_point(
    file: &str,
    bfp: i64,
    efp: i64,
    w: Option<&Datum>,
) -> Result<(SourceObject, Option<f64>), ProfileStoreError> {
    let w = match w {
        None => None,
        Some(Datum::Float(x)) => Some(*x),
        Some(Datum::Int(n)) => Some(*n as f64),
        Some(other) => return Err(malformed(format!("bad weight {other}"))),
    };
    if let Some(w) = w {
        if !(0.0..=1.0).contains(&w) {
            return Err(malformed(format!("weight {w} outside [0,1]")));
        }
    }
    if bfp < 0 || efp < 0 {
        return Err(malformed("negative file position"));
    }
    Ok((SourceObject::new(file, bfp as u32, efp as u32), w))
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
    /// negative file position, and a weight that is not a number in
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
                    let (p, w) = parse_point(file, *bfp, *efp, Some(w))?;
                    weights.push((p, w.expect("point weight is mandatory")));
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
        for (p, w) in points {
            let _ = writeln!(
                out,
                "  (point {} {} {} {})",
                Datum::string(p.file.as_str()),
                p.bfp,
                p.efp,
                Datum::Float(w)
            );
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
            let entries = read_datums(bad, "<body>").unwrap();
            let r = ProfileInformation::from_body(&entries);
            assert!(matches!(r, Err(ProfileStoreError::Malformed(_))), "{bad}: {r:?}");
        }
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
        let rebased_free = StoredProfile::v2(sample(), Some(sample_slots()))
            .with_confidences(std::iter::empty());
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
        let info =
            ProfileInformation::load_from_str("(pgmp-profile (point \"f\" 0 1 1))").unwrap();
        assert_eq!(info.weight(SourceObject::new("f", 0, 1)), 1.0);
        let sp = StoredProfile::load_from_str(
            "(pgmp-profile (version 2) (slot 0 \"f\" 0 1 1))",
        )
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
