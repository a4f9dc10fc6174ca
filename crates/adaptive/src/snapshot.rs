//! Epoch-snapshot persistence for the adaptive loop.
//!
//! [`AdaptiveEngine::save_snapshot`] captures the aggregation state an
//! online session has built up — the rolling profile's decayed counts and
//! epoch counter, plus the baseline weights the serving program was last
//! optimized under — so a restarted process resumes drift detection where
//! the old one stopped instead of from a cold profile. The format follows
//! the profile store's conventions (one s-expression, read back with the
//! system reader, atomic writes, typed errors):
//!
//! ```text
//! (pgmp-epoch
//!   (version 1)
//!   (decay 0.5)
//!   (epochs 12)
//!   (count "hot.scm" 3 9 812.5)
//!   (baseline (datasets 1) (point "hot.scm" 3 9 1.0)))
//! ```
//!
//! [`AdaptiveEngine::save_snapshot`]: crate::AdaptiveEngine::save_snapshot

use crate::rolling::RollingProfile;
use pgmp_observe as observe;
use pgmp_profiler::{write_atomic, ProfileInformation, ProfileStoreError};
use pgmp_reader::read_datums;
use pgmp_syntax::{Datum, SourceObject};
use std::fmt::Write as _;
use std::path::Path;

/// The persisted aggregation state of an adaptive session.
#[derive(Clone, Debug)]
pub struct EpochSnapshot {
    /// Decay factor the counts were accumulated under (diagnostic: a
    /// restoring engine keeps its own configured decay).
    pub decay: f64,
    /// Epochs absorbed before the snapshot.
    pub epochs: u64,
    /// Retained (decayed) counts, sorted by file name, then span.
    pub counts: Vec<(SourceObject, f64)>,
    /// Weights the serving program generation was optimized under.
    pub baseline: ProfileInformation,
}

fn malformed(msg: impl Into<String>) -> ProfileStoreError {
    ProfileStoreError::Malformed(msg.into())
}

impl EpochSnapshot {
    /// Captures a rolling profile plus its optimization baseline.
    pub fn capture(rolling: &RollingProfile, baseline: &ProfileInformation) -> EpochSnapshot {
        EpochSnapshot {
            decay: rolling.decay(),
            epochs: rolling.epochs(),
            counts: rolling.entries(),
            baseline: baseline.clone(),
        }
    }

    /// Serializes the snapshot.
    pub fn store_to_string(&self) -> String {
        let mut out = String::from("(pgmp-epoch\n  (version 1)\n");
        let _ = writeln!(out, "  (decay {})", Datum::Float(self.decay));
        let _ = writeln!(out, "  (epochs {})", self.epochs);
        for (p, c) in &self.counts {
            let _ = writeln!(
                out,
                "  (count {} {} {} {})",
                Datum::string(p.file.as_str()),
                p.bfp,
                p.efp,
                Datum::Float(*c)
            );
        }
        out.push_str("  (baseline");
        for entry in self.baseline.body_datums() {
            let _ = write!(out, " {entry}");
        }
        out.push_str("))");
        out
    }

    /// Parses a snapshot.
    ///
    /// # Errors
    ///
    /// Typed [`ProfileStoreError`]s: `Malformed` for structural problems,
    /// `UnsupportedVersion` for a version other than 1. Never panics on
    /// hostile input.
    pub fn load_from_str(text: &str) -> Result<EpochSnapshot, ProfileStoreError> {
        let forms =
            read_datums(text, "<epoch>").map_err(|e| malformed(format!("unreadable: {e}")))?;
        let [datum]: [Datum; 1] = forms
            .try_into()
            .map_err(|_| malformed("expected exactly one top-level form"))?;
        let elems = datum
            .list_elems()
            .ok_or_else(|| malformed("top-level form must be a list"))?;
        let [head, entries @ ..] = elems.as_slice() else {
            return Err(malformed("empty snapshot file"));
        };
        match head {
            Datum::Sym(s) if s.as_str() == "pgmp-epoch" => {}
            other => return Err(malformed(format!("unexpected header `{other}`"))),
        }
        let mut version: Option<i64> = None;
        let mut decay = 1.0f64;
        let mut epochs = 0u64;
        let mut counts: Vec<(SourceObject, f64)> = Vec::new();
        let mut baseline = ProfileInformation::empty();
        for e in entries {
            let elems = e
                .list_elems()
                .ok_or_else(|| malformed("snapshot entry must be a list"))?;
            let [Datum::Sym(tag), args @ ..] = elems.as_slice() else {
                return Err(malformed(format!("snapshot entry missing tag: {e}")));
            };
            match (tag.as_str(), args) {
                ("version", [Datum::Int(v)]) => {
                    if version.replace(*v).is_some() {
                        return Err(malformed("duplicate version entry"));
                    }
                }
                ("decay", [d]) => {
                    decay = num(d).ok_or_else(|| malformed(format!("bad decay {d}")))?;
                    if !(0.0..=1.0).contains(&decay) {
                        return Err(malformed(format!("decay {decay} outside [0,1]")));
                    }
                }
                ("epochs", [Datum::Int(n)]) if *n >= 0 => epochs = *n as u64,
                ("count", [Datum::Str(file), Datum::Int(bfp), Datum::Int(efp), c])
                    if *bfp >= 0 && *efp >= 0 =>
                {
                    let c = num(c).ok_or_else(|| malformed(format!("bad count {c}")))?;
                    if !c.is_finite() || c < 0.0 {
                        return Err(malformed(format!("count {c} must be finite and >= 0")));
                    }
                    counts.push((SourceObject::new(file, *bfp as u32, *efp as u32), c));
                }
                ("baseline", body) => baseline = ProfileInformation::from_body(body)?,
                (other, _) => {
                    return Err(malformed(format!("unknown snapshot entry `{other}`")));
                }
            }
        }
        match version {
            Some(1) => {}
            Some(v) => return Err(ProfileStoreError::UnsupportedVersion(v)),
            None => return Err(malformed("missing version entry")),
        }
        Ok(EpochSnapshot {
            decay,
            epochs,
            counts,
            baseline,
        })
    }

    /// Writes the snapshot to `path` atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// [`ProfileStoreError::Io`] on I/O failure.
    pub fn store_file(&self, path: impl AsRef<Path>) -> Result<(), ProfileStoreError> {
        let text = self.store_to_string();
        let t = observe::timer();
        write_atomic(path.as_ref(), &text)?;
        observe::finish(t, |duration_us| observe::EventKind::StoreWrite {
            path: path.as_ref().display().to_string(),
            kind: "snapshot".to_string(),
            bytes: text.len() as u64,
            duration_us,
        });
        Ok(())
    }

    /// Reads a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// As [`EpochSnapshot::load_from_str`], plus I/O errors.
    pub fn load_file(path: impl AsRef<Path>) -> Result<EpochSnapshot, ProfileStoreError> {
        let t = observe::timer();
        let text = std::fs::read_to_string(path.as_ref())?;
        let snap = EpochSnapshot::load_from_str(&text)?;
        observe::finish(t, |duration_us| observe::EventKind::StoreRead {
            path: path.as_ref().display().to_string(),
            kind: "snapshot".to_string(),
            bytes: text.len() as u64,
            duration_us,
        });
        Ok(snap)
    }
}

fn num(d: &Datum) -> Option<f64> {
    match d {
        Datum::Float(x) => Some(*x),
        Datum::Int(n) => Some(*n as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_profiler::Dataset;

    fn p(n: u32) -> SourceObject {
        SourceObject::new("snap.scm", n, n + 1)
    }

    fn sample() -> EpochSnapshot {
        let mut r = RollingProfile::new(0.5);
        r.absorb(&[(p(0), 100), (p(1), 40)].into_iter().collect::<Dataset>());
        r.absorb(&[(p(1), 100)].into_iter().collect::<Dataset>());
        let baseline = ProfileInformation::from_weights([(p(1), 1.0), (p(0), 0.5)], 1);
        EpochSnapshot::capture(&r, &baseline)
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample();
        let back = EpochSnapshot::load_from_str(&snap.store_to_string()).unwrap();
        assert_eq!(back.decay, snap.decay);
        assert_eq!(back.epochs, snap.epochs);
        assert_eq!(back.counts, snap.counts);
        assert_eq!(back.baseline, snap.baseline);
    }

    #[test]
    fn snapshot_text_is_pinned() {
        assert_eq!(
            sample().store_to_string(),
            "(pgmp-epoch\n  (version 1)\n  (decay 0.5)\n  (epochs 2)\n\
             \u{20} (count \"snap.scm\" 0 1 50.0)\n  (count \"snap.scm\" 1 2 120.0)\n\
             \u{20} (baseline (datasets 1) \
             (point \"snap.scm\" 0 1 0.5) (point \"snap.scm\" 1 2 1.0)))"
        );
    }

    #[test]
    fn restored_rolling_profile_resumes_decay() {
        let snap = sample();
        let text = snap.store_to_string();
        let back = EpochSnapshot::load_from_str(&text).unwrap();
        let mut restored = RollingProfile::from_parts(back.decay, back.epochs, back.counts);
        let mut original = RollingProfile::from_parts(snap.decay, snap.epochs, snap.counts);
        let epoch: Dataset = [(p(0), 7)].into_iter().collect();
        restored.absorb(&epoch);
        original.absorb(&epoch);
        assert_eq!(restored.entries(), original.entries());
    }

    #[test]
    fn corrupt_snapshots_error_without_panic() {
        let good = sample().store_to_string();
        let corpus: Vec<String> = vec![
            String::new(),
            "(".to_owned(),
            "(not-an-epoch)".to_owned(),
            "(pgmp-epoch)".to_owned(),
            "(pgmp-epoch (version 7))".to_owned(),
            "(pgmp-epoch (version 1) (decay 1.5))".to_owned(),
            "(pgmp-epoch (version 1) (count \"x\" -1 0 1.0))".to_owned(),
            "(pgmp-epoch (version 1) (count \"x\" 0 1 bogus))".to_owned(),
            "(pgmp-epoch (version 1) (baseline (point \"x\" 0 1 2.0)))".to_owned(),
            good[..good.len() - 5].to_owned(),
            good.replace("count", "cnuot"),
        ];
        for (i, bad) in corpus.iter().enumerate() {
            let r = EpochSnapshot::load_from_str(bad);
            assert!(r.is_err(), "case {i} must fail: {bad:?}");
        }
        assert!(matches!(
            EpochSnapshot::load_from_str("(pgmp-epoch (version 7))"),
            Err(ProfileStoreError::UnsupportedVersion(7))
        ));
    }

    #[test]
    fn atomic_store_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("pgmp-epoch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch.pgmp");
        let snap = sample();
        snap.store_file(&path).unwrap();
        let back = EpochSnapshot::load_file(&path).unwrap();
        assert_eq!(back.counts, snap.counts);
        // No temp-file droppings.
        let stray = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .contains(".tmp.")
            })
            .count();
        assert_eq!(stray, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
