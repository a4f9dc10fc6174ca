//! The profile store against reference implementations.
//!
//! `reference_load` is the loader `StoredProfile::load_from_str` replaced:
//! it reads the whole file into a `Datum` tree (through the syntax reader,
//! `read_str`, which shares the lexer but not the datum walk with the
//! production loader), then checks entries tree by tree. On every input
//! both loaders must give the same profile, or fail with the same error
//! variant, and neither may panic. "The same profile" is equal weights,
//! dataset count, version, slot-table order, provenance and confidences.
//!
//! `reference_store` is the writer that printed every row through
//! `Datum`'s `Display`; the production writer must give the same bytes.

use pgmp_profiler::{ProfileInformation, ProfileStoreError, Provenance, SlotMap, StoredProfile};
use pgmp_reader::read_str;
use pgmp_syntax::{Datum, SourceObject};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

fn malformed(msg: impl Into<String>) -> ProfileStoreError {
    ProfileStoreError::Malformed(msg.into())
}

/// The tree-walking loader, kept as the reference: read every datum,
/// check the shape of each entry and the version, then check the rows in
/// file order, then the slot table as a whole.
fn reference_load(text: &str) -> Result<StoredProfile, ProfileStoreError> {
    let forms = read_str(text, "<profile>")
        .map_err(|e| malformed(format!("unreadable: {e}")))?
        .iter()
        .map(|stx| stx.to_datum())
        .collect::<Vec<_>>();
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
        if tag.as_str() == "version" {
            match fields.as_slice() {
                [Datum::Int(v)] => {
                    if version.replace(*v).is_some() {
                        return Err(malformed("duplicate version entry"));
                    }
                }
                _ => return Err(malformed("malformed version entry")),
            }
        } else {
            entries.push((tag.as_str().to_string(), fields));
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
                        if s.as_str() == "sampled" && (0..=u32::MAX as i64).contains(hz) =>
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
                    return Err(ProfileStoreError::SlotTable("duplicate slots entry".into()));
                }
            }
            (
                "slot",
                [Datum::Int(i), Datum::Str(file), Datum::Int(bfp), Datum::Int(efp), rest @ ..],
            ) if version == 2 && rest.len() <= 2 => {
                if *i != slot_points.len() as i64 {
                    return Err(ProfileStoreError::SlotTable(format!(
                        "slot index {i} out of order"
                    )));
                }
                let (p, w) = parse_point(file, *bfp, *efp, rest.first())?;
                slot_points.push(p);
                if let Some(c) = rest.get(1) {
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
                return Err(ProfileStoreError::SlotTable("slot count mismatch".into()));
            }
        }
        Some(
            SlotMap::from_points(slot_points)
                .map_err(|p| ProfileStoreError::SlotTable(format!("duplicate point {p}")))?,
        )
    };
    Ok(StoredProfile {
        info: ProfileInformation::from_weights(weights, dataset_count),
        slots,
        version: version as u32,
        provenance: provenance.unwrap_or_default(),
        confidence,
    })
}

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
    let (Ok(bfp), Ok(efp)) = (u32::try_from(bfp), u32::try_from(efp)) else {
        return Err(malformed("file position outside u32"));
    };
    Ok((SourceObject::new(file, bfp, efp), w))
}

/// A comparable summary of a load: the profile's every part, or the
/// error variant (with the version an `UnsupportedVersion` carries).
fn outcome(r: &Result<StoredProfile, ProfileStoreError>) -> String {
    match r {
        Ok(sp) => {
            let mut weights: Vec<(SourceObject, u64)> =
                sp.info.iter().map(|(p, w)| (p, w.to_bits())).collect();
            weights.sort();
            let mut confidence: Vec<(SourceObject, u64)> = sp
                .confidence
                .iter()
                .map(|(p, c)| (*p, c.to_bits()))
                .collect();
            confidence.sort();
            format!(
                "ok v{} datasets {} provenance {:?} slots {:?} weights {weights:?} confidence {confidence:?}",
                sp.version,
                sp.info.dataset_count(),
                sp.provenance,
                sp.slots.as_ref().map(|s| s.points().to_vec()),
            )
        }
        Err(ProfileStoreError::Io(_)) => "Io".into(),
        Err(ProfileStoreError::Malformed(_)) => "Malformed".into(),
        Err(ProfileStoreError::UnsupportedVersion(v)) => format!("UnsupportedVersion({v})"),
        Err(ProfileStoreError::SlotTable(_)) => "SlotTable".into(),
    }
}

/// Both loaders on `text`; the summaries must agree.
fn agree(text: &str) -> Result<(), TestCaseError> {
    let got = outcome(&StoredProfile::load_from_str(text));
    let want = outcome(&reference_load(text));
    prop_assert_eq!(got, want, "{:?}", text);
    Ok(())
}

fn point(n: u32) -> SourceObject {
    let file = match n % 4 {
        0 => "a.scm",
        1 => "lib/b.scm",
        2 => "gen.scm%pgmp1",
        _ => "q\"uote\\d.scm",
    };
    SourceObject::new(file, n, n + 1)
}

/// A stored profile of either version: weights in [0, 1], an optional
/// slot table over the weighted points and some weightless ones, and (in
/// v2) rebase confidences and a sampled provenance.
fn stored() -> impl Strategy<Value = StoredProfile> {
    (
        proptest::collection::vec((0u32..60, 0u32..1001, 0u32..5), 0..20),
        (0usize..4, any::<bool>(), any::<bool>()),
        proptest::collection::vec(0u32..30, 0..5),
        0u32..3,
    )
        .prop_map(|(rows, (datasets, v2, table), extras, provenance)| {
            let weights: BTreeMap<u32, (f64, u32)> = rows
                .into_iter()
                .map(|(n, w, c)| (n, (f64::from(w) / 1000.0, c)))
                .collect();
            let info = ProfileInformation::from_weights(
                weights.iter().map(|(n, (w, _))| (point(*n), *w)),
                datasets,
            );
            if !v2 {
                return StoredProfile::v1(info);
            }
            let slots = table.then(|| {
                let mut points: Vec<SourceObject> = weights.keys().map(|n| point(*n)).collect();
                let extras: std::collections::BTreeSet<u32> = extras.into_iter().collect();
                points.extend(extras.iter().map(|n| point(n + 100)));
                SlotMap::from_points(points).expect("distinct points")
            });
            let confidences = weights
                .iter()
                .filter(|(_, (_, c))| *c > 0)
                .map(|(n, (_, c))| (point(*n), f64::from(*c) / 5.0));
            let provenance = match provenance {
                0 => Provenance::Exact,
                1 => Provenance::Sampled { hz: 997 },
                _ => Provenance::Sampled { hz: 0 },
            };
            StoredProfile::v2(info, slots)
                .with_confidences(confidences)
                .with_provenance(provenance)
        })
}

/// The writer before rows were written directly: every file name, weight
/// and confidence printed through `Datum`'s `Display`, rows sorted by
/// file name, then span.
fn reference_store(sp: &StoredProfile) -> String {
    let row = |out: &mut String, tag: String, p: &SourceObject, w: Option<f64>| {
        let file = Datum::string(p.file.as_str());
        let _ = write!(out, "  ({tag} {file} {} {}", p.bfp, p.efp);
        if let Some(w) = w {
            let _ = write!(out, " {}", Datum::Float(w));
            if let Some(c) = sp.confidence.get(p).filter(|c| **c < 1.0) {
                let _ = write!(out, " (confidence {})", Datum::Float(*c));
            }
        }
        out.push_str(")\n");
    };
    let mut points: Vec<(SourceObject, f64)> = sp.info.iter().collect();
    points.sort_by_key(|(p, _)| (p.file.as_str(), p.bfp, p.efp));
    let mut out = format!("(pgmp-profile\n  (version {})\n", sp.version);
    let _ = writeln!(out, "  (datasets {})", sp.info.dataset_count());
    if sp.version == 1 {
        for (p, w) in &points {
            row(&mut out, "point".into(), p, Some(*w));
        }
        out.push(')');
        return out;
    }
    if let Provenance::Sampled { hz } = sp.provenance {
        let _ = writeln!(out, "  (provenance sampled {hz})");
    }
    let table = sp.slots.as_ref().map(|s| s.points()).unwrap_or(&[]);
    if !table.is_empty() {
        let _ = writeln!(out, "  (slots {})", table.len());
    }
    for (i, p) in table.iter().enumerate() {
        row(&mut out, format!("slot {i}"), p, sp.info.lookup(*p));
    }
    for (p, w) in points.iter().filter(|(p, _)| !table.contains(p)) {
        row(&mut out, "point".into(), p, Some(*w));
    }
    out.push(')');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Rows written directly are the bytes `Datum`'s `Display` wrote.
    #[test]
    fn writer_matches_the_datum_writer(sp in stored()) {
        prop_assert_eq!(sp.store_to_string(), reference_store(&sp));
    }

    /// Stored files load to the same profile, which is the stored one.
    #[test]
    fn loaders_agree_on_stored_files(sp in stored()) {
        let text = sp.store_to_string();
        agree(&text)?;
        let back = StoredProfile::load_from_str(&text).unwrap();
        prop_assert_eq!(&back.info, &sp.info);
        prop_assert_eq!(back.confidence, sp.confidence);
    }

    /// Every prefix of a stored file gives the same outcome from both.
    #[test]
    fn loaders_agree_on_every_truncation(sp in stored()) {
        let text = sp.store_to_string();
        for at in (0..text.len()).filter(|at| text.is_char_boundary(*at)) {
            agree(&text[..at])?;
        }
    }

    /// One flipped bit anywhere gives the same outcome from both.
    #[test]
    fn loaders_agree_on_bit_flips(sp in stored(), pos in 0u32..1000, bit in 0u8..8) {
        let mut bytes = sp.store_to_string().into_bytes();
        let at = (bytes.len() - 1) * pos as usize / 1000;
        bytes[at] ^= 1 << bit;
        agree(&String::from_utf8_lossy(&bytes))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Files spliced from well-formed and damaged rows, the reader's
    /// shorthands, and version entries anywhere, give the same outcome.
    #[test]
    fn loaders_agree_on_spliced_rows(
        picks in proptest::collection::vec((0u8..4, 0usize..1000), 0..7),
        head in 0usize..1000,
    ) {
        // Mostly well-formed rows, so that most files get past their
        // first fault and the later ones decide.
        let rows: Vec<&str> = picks
            .iter()
            .map(|(sel, i)| if *sel == 0 { BAD[i % BAD.len()] } else { GOOD[i % GOOD.len()] })
            .collect();
        let head = if head % 2 == 0 { HEADS[0] } else { HEADS[head % HEADS.len()] };
        agree(&format!("{head} {})", rows.join(" ")))?;
    }
}

/// Openings of a spliced file.
const HEADS: &[&str] = &[
    "(pgmp-profile",
    "[pgmp-profile",
    "#;(x) (pgmp-profile",
    "(pgmp-profile (version 2)",
    "(pgmp-profile (version 1)",
    "'(pgmp-profile",
    "(pgmp-profile .",
    "(",
    "(pgmp-profile #;",
];

/// Rows that are well-formed in some version, written in every way the
/// reader allows.
const GOOD: &[&str] = &[
    "(version 2)",
    "(version 1)",
    "(version . (2))",
    "(datasets 2)",
    "(slots 2)",
    "(slots 1)",
    "(slot 0 \"a.scm\" 0 1 0.5)",
    "(slot 1 \"a.scm\" 1 2)",
    "(slot 1 \"b.scm\" 0 1 1 (confidence 0.5))",
    "(point \"a.scm\" 0 1 0.5)",
    "(point \"c.scm\" 4 5 1e-3 (confidence 1))",
    "(point \"c.scm\" 6 7 0.5 (confidence . (0.5)))",
    "(point . (\"d.scm\" 1 2 0.5))",
    "(point \"e.scm\" 1 2 0.5]",
    "[point \"e.scm\" 3 4 0.5]",
    "(point \"e.scm\" #;7 5 6 0.5)",
    "(point \"q\\\"uote.scm\" 5 6 0)",
    "(provenance sampled 997)",
    "(provenance exact)",
    "#;(version 3)",
    ";(version 3)\n",
    "#|(version 3)|#",
];

/// Rows and fragments that are wrong in every version.
const BAD: &[&str] = &[
    "(version 3)",
    "(version 2.0)",
    "(datasets -1)",
    "(slot 0 \"a.scm\" 0 1 (confidence 0.5))",
    "(slot 2 \"a.scm\" 0 1 0.25)",
    "(point \"c.scm\" 4 5 0.5 '(confidence 0.5))",
    "(point \"c.scm\" 4 5 0.5 #(confidence 0.5))",
    "(point \"c.scm\" 4 5 0.5 (confidence 0.5 . 1))",
    "(point \"c.scm\" 4 5 +nan.0)",
    "(point \"c.scm\" 4 5 0.5 . 1)",
    "(point \"c.scm\" 4294967296 5 0.5)",
    "(point 'f 1 2 0.5)",
    "(provenance sampled -1)",
    "'(version 3)",
    "'x",
    "()",
    "5",
    "#(version 2)",
    "(5 1)",
    "(\"a\" 1)",
    ". (datasets 3)",
    ". 5",
    "(pgmp-profile)",
    "#z",
    "\"open",
    ")",
];

/// Every byte of one rich v2 file, each of its bits flipped in turn.
#[test]
fn loaders_agree_on_every_bit_flip_of_one_file() {
    let sp = StoredProfile::v2(
        ProfileInformation::from_weights(
            [
                (point(0), 0.25),
                (point(1), 1.0),
                (point(2), 0.5),
                (point(3), 0.125),
            ],
            2,
        ),
        Some(SlotMap::from_points(vec![point(0), point(1), point(5)]).unwrap()),
    )
    .with_confidences([(point(1), 0.75), (point(3), 0.5)])
    .with_provenance(Provenance::Sampled { hz: 997 });
    let text = sp.store_to_string();
    for at in 0..text.len() {
        for bit in 0..8 {
            let mut bytes = text.clone().into_bytes();
            bytes[at] ^= 1 << bit;
            agree(&String::from_utf8_lossy(&bytes)).unwrap();
        }
    }
}
