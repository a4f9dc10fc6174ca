//! Property-based persistence oracle for the profile store.
//!
//! Three families of guarantees from the format spec
//! (`docs/PROFILE_FORMAT.md`):
//!
//! 1. **Round trip is the identity** — for arbitrary weights and slot
//!    tables, `load(store(x)) == x` in both format versions, bit-exact on
//!    weights (the writer emits shortest-round-trip floats).
//! 2. **v1 → v2 migration is lossless and reversible** — upgrading a v1
//!    file to v2 (with a synthesized slot table) preserves every weight,
//!    and downgrading reproduces the original v1 bytes.
//! 3. **Hostile bytes are typed errors** — truncating or bit-flipping a
//!    good file never panics; truncation always yields a typed
//!    [`ProfileStoreError`].

use pgmp_profiler::{ProfileInformation, ProfileStoreError, SlotMap, StoredProfile};
use pgmp_syntax::{SourceObject, Symbol};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn point(n: u32) -> SourceObject {
    // Mix files (including a generated-point name with `%pgmp`) so slot
    // tables span multiple source files, as real profiles do.
    let file = match n % 3 {
        0 => "a.scm",
        1 => "lib/b.scm",
        _ => "gen.scm%pgmp1",
    };
    SourceObject::new(file, n, n + 1)
}

/// Arbitrary weight map: distinct points, weights in the legal [0,1]
/// range (quantized — the vendored proptest has no float strategies; the
/// identity property is unaffected). BTreeMap keys guarantee
/// distinctness.
fn weight_map() -> impl Strategy<Value = BTreeMap<u32, f64>> {
    proptest::collection::vec((0u32..60, 0u32..1001), 0..24).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(n, w)| (n, f64::from(w) / 1000.0))
            .collect()
    })
}

fn info_from(weights: &BTreeMap<u32, f64>, datasets: usize) -> ProfileInformation {
    ProfileInformation::from_weights(weights.iter().map(|(n, w)| (point(*n), *w)), datasets)
}

/// A slot table covering the weighted points plus some never-executed
/// extras (interned but weightless — the table is allowed to be a
/// superset of the weight map).
fn slots_for(weights: &BTreeMap<u32, f64>, extras: &[u32]) -> SlotMap {
    let mut points: Vec<SourceObject> = weights.keys().map(|n| point(*n)).collect();
    points.extend(extras.iter().map(|n| point(*n + 100)));
    SlotMap::from_points(points).expect("distinct points")
}

proptest! {
    /// v1 store → load is the identity on weights and dataset count.
    #[test]
    fn v1_round_trip_is_identity(weights in weight_map(), datasets in 0usize..9) {
        let info = info_from(&weights, datasets);
        let back = ProfileInformation::load_from_str(&info.store_to_string()).unwrap();
        prop_assert_eq!(&back, &info);
        prop_assert_eq!(back.dataset_count(), datasets);
        for (n, w) in &weights {
            // Bit-exact, not approximate: the writer uses shortest
            // round-trip floats.
            prop_assert_eq!(back.lookup(point(*n)), Some(*w));
        }
    }

    /// v2 store → load is the identity on weights, slot ids, and slot
    /// order — a reloading process re-derives the exact interning.
    #[test]
    fn v2_round_trip_preserves_weights_and_slot_ids(
        weights in weight_map(),
        datasets in 0usize..9,
        extras in proptest::collection::vec(0u32..40, 0..6),
    ) {
        let mut extras = extras;
        extras.sort_unstable();
        extras.dedup();
        let table = slots_for(&weights, &extras);
        let sp = StoredProfile::v2(info_from(&weights, datasets), Some(table.clone()));
        let back = StoredProfile::load_from_str(&sp.store_to_string()).unwrap();
        prop_assert_eq!(back.version, 2);
        prop_assert_eq!(&back.info, &sp.info);
        if table.is_empty() {
            // An empty table has no on-disk representation; it loads as
            // "no table", which preloads identically (nothing interned).
            prop_assert!(back.slots.is_none());
        } else {
            let got = back.slots.expect("table survives");
            prop_assert_eq!(got.points(), table.points());
            for p in table.points() {
                prop_assert_eq!(got.get(*p), table.get(*p));
            }
        }
    }

    /// Storing is deterministic: same profile, same bytes, every time.
    #[test]
    fn storing_is_deterministic(weights in weight_map()) {
        let info = info_from(&weights, 1);
        prop_assert_eq!(info.store_to_string(), info.store_to_string());
        let sp = StoredProfile::v2(info, Some(slots_for(&weights, &[])));
        prop_assert_eq!(sp.store_to_string(), sp.store_to_string());
    }

    /// v1 → v2 → v1 migration: the upgrade preserves every weight and the
    /// downgrade reproduces the original v1 file byte for byte.
    #[test]
    fn v1_to_v2_migration_is_lossless(weights in weight_map(), datasets in 1usize..9) {
        let v1_text = info_from(&weights, datasets).store_to_string();
        let loaded = StoredProfile::load_from_str(&v1_text).unwrap();
        prop_assert_eq!(loaded.version, 1);

        // Upgrade: synthesize a dense table from the sorted points, the
        // same procedure `pgmp-profile convert --to 2 --slots` uses.
        let mut points: Vec<SourceObject> = loaded.info.iter().map(|(p, _)| p).collect();
        points.sort();
        let table = SlotMap::from_points(points).expect("weights have distinct points");
        let v2 = StoredProfile::v2(loaded.info.clone(), Some(table));
        let v2_back = StoredProfile::load_from_str(&v2.store_to_string()).unwrap();
        prop_assert_eq!(&v2_back.info, &loaded.info);

        // Downgrade: dropping the table reproduces the original bytes.
        let downgraded = StoredProfile::v1(v2_back.info).store_to_string();
        prop_assert_eq!(downgraded, v1_text);
    }

    /// Truncating a good file at any byte boundary is a typed error —
    /// never a panic, never a silently short profile.
    #[test]
    fn truncation_is_a_typed_error(weights in weight_map(), cut in 0u32..1000) {
        let sp = StoredProfile::v2(info_from(&weights, 1), Some(slots_for(&weights, &[])));
        let text = sp.store_to_string();
        let mut at = text.len() * cut as usize / 1000;
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let result = StoredProfile::load_from_str(&text[..at]);
        prop_assert!(
            matches!(
                result,
                Err(ProfileStoreError::Malformed(_)
                    | ProfileStoreError::SlotTable(_)
                    | ProfileStoreError::UnsupportedVersion(_))
            ),
            "truncation at {}/{} must be a typed parse error, got {:?}",
            at,
            text.len(),
            result
        );
    }

    /// Flipping one bit anywhere in a good file never panics: the loader
    /// either rejects it with a typed error or parses a (different but
    /// well-formed) profile.
    #[test]
    fn bit_flips_never_panic(
        weights in weight_map(),
        pos in 0u32..1000,
        bit in 0u8..7,
    ) {
        let sp = StoredProfile::v2(info_from(&weights, 1), Some(slots_for(&weights, &[])));
        let mut bytes = sp.store_to_string().into_bytes();
        let at = (bytes.len() - 1) * pos as usize / 1000;
        bytes[at] ^= 1 << bit;
        // Lossy round-trip keeps it a &str parse even when the flip makes
        // invalid UTF-8.
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        let _ = StoredProfile::load_from_str(&mutated);
    }
}

/// Hand-picked corruption corpus: each case must be the *specific* typed
/// error a tool (or a user reading stderr) relies on.
#[test]
fn corruption_corpus_yields_specific_errors() {
    let good = StoredProfile::v2(
        ProfileInformation::from_weights([(point(0), 0.25), (point(1), 1.0), (point(2), 0.5)], 2),
        Some(SlotMap::from_points(vec![point(0), point(1), point(2)]).unwrap()),
    )
    .store_to_string();

    // Structural damage → Malformed.
    for bad in [
        good[..good.len() - 1].to_string(), // lost final paren
        good.replace("pgmp-profile", "pgmp-porfile"),
        good.replace("(datasets 2)", "(datasets 2.5)"),
        good.replace("(version 2)", "(version 2)\n  (version 2)"),
    ] {
        assert!(
            matches!(
                StoredProfile::load_from_str(&bad),
                Err(ProfileStoreError::Malformed(_))
            ),
            "expected Malformed for {bad:?}"
        );
    }

    // Slot-section damage → SlotTable.
    let shifted = good.replace("(slot 1 ", "(slot 4 ");
    assert!(matches!(
        StoredProfile::load_from_str(&shifted),
        Err(ProfileStoreError::SlotTable(_))
    ));

    // Future version → UnsupportedVersion, carrying the version read.
    let future = good.replace("(version 2)", "(version 9)");
    assert!(matches!(
        StoredProfile::load_from_str(&future),
        Err(ProfileStoreError::UnsupportedVersion(9))
    ));

    // And the undamaged file still loads, proving the corpus edits were
    // the only difference.
    assert!(StoredProfile::load_from_str(&good).is_ok());
}

/// The compatibility promise in one test: a frozen v1 file from the
/// original release loads, and re-storing it reproduces the bytes.
#[test]
fn frozen_v1_fixture_loads_byte_identically() {
    let fixture = "(pgmp-profile\n  (version 1)\n  (datasets 3)\n  (point \"classify.scm\" 10 30 0.25)\n  (point \"classify.scm\" 40 60 1)\n  (point \"gen.scm%pgmp0\" 0 4 0.5)\n)";
    let loaded = StoredProfile::load_from_str(fixture).unwrap();
    assert_eq!(loaded.version, 1);
    assert_eq!(loaded.info.dataset_count(), 3);
    assert_eq!(
        loaded
            .info
            .lookup(SourceObject::new("classify.scm", 40, 60)),
        Some(1.0)
    );
    // Canonical re-store (integer weight normalizes to float form).
    let restored = loaded.info.store_to_string();
    assert_eq!(restored, fixture.replace(" 40 60 1)", " 40 60 1.0)"));
    let reloaded = ProfileInformation::load_from_str(&restored).unwrap();
    assert_eq!(reloaded, loaded.info);
    assert_eq!(restored, reloaded.store_to_string());
}

/// Rows are ordered by file name, then span, not by the order in which
/// the process interned the names, so equal profiles store to equal bytes
/// in every process.
#[test]
fn rows_are_ordered_by_file_name_not_interning_order() {
    // Intern `zz.scm` first: its symbol id sorts before `aa.scm`'s.
    Symbol::intern("zz.scm");
    Symbol::intern("aa.scm");
    let zz_row = r#"(point "zz.scm" 0 1 0.5)"#;
    let aa_row = r#"(point "aa.scm" 0 1 1.0)"#;
    let load = |rows: [&str; 2]| {
        let text = format!("(pgmp-profile (version 2) {} {})", rows[0], rows[1]);
        StoredProfile::load_from_str(&text).unwrap()
    };
    for rows in [[zz_row, aa_row], [aa_row, zz_row]] {
        let loaded = load(rows);
        let v1 = loaded.info.store_to_string();
        assert_eq!(
            v1,
            "(pgmp-profile\n  (version 1)\n  (datasets 1)\n  (point \"aa.scm\" 0 1 1.0)\n  (point \"zz.scm\" 0 1 0.5)\n)"
        );
        let v2 = loaded.store_to_string();
        assert!(v2.find("aa.scm") < v2.find("zz.scm"), "{v2}");
        let body: Vec<String> = loaded
            .info
            .body_datums()
            .iter()
            .map(|d| d.to_string())
            .collect();
        assert_eq!(
            body[1..],
            [r#"(point "aa.scm" 0 1 1.0)"#, r#"(point "zz.scm" 0 1 0.5)"#]
        );
    }
}

/// The variant of a load error, for comparing outcomes by kind.
fn error_kind(text: &str) -> &'static str {
    match StoredProfile::load_from_str(text) {
        Ok(_) => "ok",
        Err(ProfileStoreError::Io(_)) => "Io",
        Err(ProfileStoreError::Malformed(_)) => "Malformed",
        Err(ProfileStoreError::UnsupportedVersion(_)) => "UnsupportedVersion",
        Err(ProfileStoreError::SlotTable(_)) => "SlotTable",
    }
}

/// The lexical and ordering rules of `docs/PROFILE_FORMAT.md`, pinned on
/// hand-written files: each case loads to the stated profile or fails
/// with the stated error variant.
#[test]
fn lexical_and_precedence_corpus() {
    let f = |file: &str, bfp, efp| SourceObject::new(file, bfp, efp);

    // Line, block and datum comments are whitespace; a `#;`-commented
    // entry is skipped whole.
    let commented = "; stored by hand\n(pgmp-profile #| block |# (version 2)\n  #;(slot 0 \"x.scm\" 0 1 0.5)\n  (slot 0 \"a.scm\" 0 1 0.5) ; trailing\n  (point #| inner |# \"b.scm\" 2 3 0.25))";
    let sp = StoredProfile::load_from_str(commented).unwrap();
    assert_eq!(sp.slots.as_ref().unwrap().points(), [f("a.scm", 0, 1)]);
    assert_eq!(sp.info.lookup(f("a.scm", 0, 1)), Some(0.5));
    assert_eq!(sp.info.lookup(f("b.scm", 2, 3)), Some(0.25));
    assert_eq!(sp.info.lookup(f("x.scm", 0, 1)), None);

    // `[ ]` rows read as lists, and a closer need not match its opener's
    // shape (the reader does not check it).
    let bracketed =
        "(pgmp-profile [version 1] [point \"a.scm\" 0 1 0.5] (point \"a.scm\" 2 3 1.0])";
    let sp = StoredProfile::load_from_str(bracketed).unwrap();
    assert_eq!(sp.info.lookup(f("a.scm", 0, 1)), Some(0.5));
    assert_eq!(sp.info.lookup(f("a.scm", 2, 3)), Some(1.0));

    // String escapes in file names.
    let escaped = "(pgmp-profile (point \"a\\\"b.scm\" 0 1 0.5) (point \"c\\\\d.scm\" 0 1 1))";
    let sp = StoredProfile::load_from_str(escaped).unwrap();
    assert_eq!(sp.info.lookup(f("a\"b.scm", 0, 1)), Some(0.5));
    assert_eq!(sp.info.lookup(f("c\\d.scm", 0, 1)), Some(1.0));

    // Integer weights 0 and 1 and an exponent-form weight.
    let numbers =
        "(pgmp-profile (point \"n.scm\" 0 1 0) (point \"n.scm\" 1 2 1) (point \"n.scm\" 2 3 1e-3))";
    let sp = StoredProfile::load_from_str(numbers).unwrap();
    assert_eq!(sp.info.lookup(f("n.scm", 0, 1)), Some(0.0));
    assert_eq!(sp.info.lookup(f("n.scm", 1, 2)), Some(1.0));
    assert_eq!(sp.info.lookup(f("n.scm", 2, 3)), Some(0.001));

    // `(version 2)` may follow the rows it governs.
    let late_version = "(pgmp-profile (slot 0 \"a.scm\" 0 1 0.5) (slots 1) (version 2))";
    let sp = StoredProfile::load_from_str(late_version).unwrap();
    assert_eq!(sp.version, 2);
    assert_eq!(sp.slots.as_ref().unwrap().points(), [f("a.scm", 0, 1)]);

    for (text, want) in [
        // NaN is not a weight in [0, 1].
        ("(pgmp-profile (point \"a.scm\" 0 1 +nan.0))", "Malformed"),
        // A lexical error anywhere is `Malformed`, ahead of everything.
        (
            "(pgmp-profile (version 2) (slot 1 \"a.scm\" 0 1) (point \"b.scm\" 0 1 #z))",
            "Malformed",
        ),
        (
            "(pgmp-profile (version 2) (slots 2) (slot 0 \"a.scm\" 0 1)) \"open",
            "Malformed",
        ),
        // An unsupported version wins over a bad row before it ...
        (
            "(pgmp-profile (point \"a.scm\" 0 1 7.0) (version 3))",
            "UnsupportedVersion",
        ),
        // ... but not over a malformed entry shape.
        ("(pgmp-profile 5 (version 3))", "Malformed"),
        ("(pgmp-profile (version 3) (version 3))", "Malformed"),
        // Row errors come in file order: a slot-index error before a bad
        // weight, and a bad weight before a slot-index error.
        (
            "(pgmp-profile (version 2) (slot 1 \"a.scm\" 0 1) (point \"b.scm\" 0 1 7.0))",
            "SlotTable",
        ),
        (
            "(pgmp-profile (version 2) (point \"b.scm\" 0 1 7.0) (slot 1 \"a.scm\" 0 1))",
            "Malformed",
        ),
        // A row error wins over a slot-count mismatch found at the end.
        (
            "(pgmp-profile (version 2) (slots 3) (slot 0 \"a.scm\" 0 1) (point \"b.scm\" 0 1 7.0))",
            "Malformed",
        ),
    ] {
        assert_eq!(error_kind(text), want, "{text}");
    }
    match StoredProfile::load_from_str("(pgmp-profile (point \"a.scm\" 0 1 7.0) (version 3))") {
        Err(ProfileStoreError::UnsupportedVersion(3)) => {}
        other => panic!("expected UnsupportedVersion(3), got {other:?}"),
    }
}
