//! Fixture-pinned JSONL schema tests.
//!
//! `tests/fixtures/schema_v2.jsonl` is the normative encoding of one
//! exemplar event per kind, committed to the repository. If the
//! encoding test fails, the wire format changed: either revert the
//! change, or bump `SCHEMA_VERSION`, regenerate the fixture with
//! `UPDATE_SCHEMA_FIXTURE=1 cargo test -p pgmp-observe --test schema`,
//! and document the break in `docs/OBSERVABILITY.md`.
//!
//! `tests/fixtures/schema_v1.jsonl` is the frozen v1 fixture — the
//! encoder no longer produces it (it writes v2), but every v1 trace in
//! the wild must keep decoding, so that file must stay byte-for-byte
//! unchanged and parse strictly forever.

use pgmp_observe::{parse_trace, to_jsonl, DecisionAlt, EventKind, TraceEvent};

const FIXTURE_V1: &str = include_str!("fixtures/schema_v1.jsonl");
const FIXTURE_V2: &str = include_str!("fixtures/schema_v2.jsonl");

/// The exemplar kinds shared by both schema versions, exercising the
/// interesting encodings: `null` for absent weights, shortest-roundtrip
/// floats, escaped strings, empty and non-empty lists. `peer_inst` is
/// the v2 addition to `ingest_batch`: the frozen v1 fixture predates it
/// and decodes it as 0.
fn base_kinds(peer_inst: u64) -> Vec<EventKind> {
    vec![
        EventKind::ExpandForm {
            file: "prog.scm".into(),
            index: 3,
            duration_us: 120,
        },
        EventKind::ProfileQuery {
            point: "prog.scm:10-25".into(),
            weight: Some(0.25),
            available: true,
        },
        EventKind::ProfileQuery {
            point: "lib/\"quoted\".scm:0-1".into(),
            weight: None,
            available: false,
        },
        EventKind::ProfileCount {
            point: "prog.scm:10-25".into(),
            count: Some(17.0),
        },
        EventKind::AvailabilityCheck { available: true },
        EventKind::CacheHit { form: 7 },
        EventKind::CacheMiss {
            form: 8,
            reason: "drifted-point:prog.scm:10-25".into(),
        },
        EventKind::IncrementalCompile {
            forms: 12,
            reused: 10,
            reexpanded: 2,
            duration_us: 4510,
        },
        EventKind::Epoch {
            epoch: 4,
            hits: 9000,
            drift: 0.375,
            fired: true,
            reoptimized: false,
            generation: 2,
            streak: 1,
            cooldown: 0,
            flush_writes: 6,
            flush_merged: 8994,
            duration_us: 310,
        },
        EventKind::Reoptimize {
            generation: 3,
            reused: 11,
            reexpanded: 1,
            duration_us: 2750,
            swap_us: 12,
        },
        EventKind::Run {
            file: "prog.scm".into(),
            mode: "every-expression".into(),
            duration_us: 88000,
        },
        EventKind::SlotResolve {
            resolved: 42,
            duration_us: 95,
        },
        EventKind::VmRun {
            chunk: 1,
            blocks: 64,
            duration_us: 510,
        },
        EventKind::VmLower {
            chunk: 1,
            ops: 128,
            fused: 9,
            duration_us: 35,
        },
        EventKind::LayoutReoptimize {
            generation: 2,
            chunks: 4,
            duration_us: 220,
        },
        EventKind::StoreWrite {
            path: "out/p.pgmp".into(),
            kind: "profile-v2".into(),
            bytes: 2048,
            duration_us: 140,
        },
        EventKind::StoreRead {
            path: "out/p.pgmp".into(),
            kind: "profile-v2".into(),
            bytes: 2048,
            duration_us: 60,
        },
        EventKind::IngestBatch {
            dataset: 2,
            epoch: 5,
            slots: 40,
            hits: 12345,
            peer_inst,
        },
        EventKind::Merge {
            epoch: 6,
            datasets: 3,
            points: 57,
            l1: 123.5,
            tv: 0.125,
            duration_us: 420,
        },
        EventKind::Broadcast {
            epoch: 6,
            subscribers: 2,
            bytes: 4096,
        },
        EventKind::BackpressureDrop {
            channel: "publish".into(),
            dropped: 3,
        },
        EventKind::Decision {
            site: "exclusive-cond".into(),
            decision_point: "prog.scm:23-113".into(),
            alternatives: vec![
                DecisionAlt {
                    label: "(< n 10)".into(),
                    weight: Some(0.0625),
                },
                DecisionAlt {
                    label: "(else)".into(),
                    weight: None,
                },
            ],
            chosen: vec!["(< n 10)".into(), "(else)".into()],
            rank: 0,
        },
        EventKind::Decision {
            site: "datastructure".into(),
            decision_point: "prog.scm:200-260".into(),
            alternatives: vec![],
            chosen: vec![],
            rank: 0,
        },
        EventKind::SamplerTick {
            hz: 997,
            ticks: 10000,
            hits: 9400,
            missed: 600,
        },
        EventKind::ProfileRebase {
            point: "prog.scm:10-25".into(),
            new_point: Some("prog.scm:40-55".into()),
            tier: "structural".into(),
            confidence: 0.75,
            old_weight: 0.5,
            new_weight: 0.375,
        },
        EventKind::ProfileRebase {
            point: "prog.scm:60-70".into(),
            new_point: None,
            tier: "dead".into(),
            confidence: 0.0,
            old_weight: 0.25,
            new_weight: 0.0,
        },
    ]
}

/// What the frozen v1 fixture decodes to: the base kinds with no
/// instance id, no span links, and `peer_inst = 0`.
fn exemplar_events_v1() -> Vec<TraceEvent> {
    base_kinds(0)
        .into_iter()
        .enumerate()
        .map(|(i, kind)| TraceEvent::new(i as u64, (i as u64) * 100, kind))
        .collect()
}

/// One exemplar per event kind under schema v2: the base kinds (with a
/// nonzero `peer_inst` on `ingest_batch`) plus the v2 fleet correlation
/// kinds, all stamped with an instance id, and with `span`/`parent`
/// links exercised on the first two events (a `run` span containing an
/// `expand_form` child).
fn exemplar_events_v2() -> Vec<TraceEvent> {
    let mut kinds = base_kinds(6001);
    kinds.extend([
        EventKind::PublishDelta {
            epoch: 7,
            slots: 40,
            hits: 12345,
        },
        EventKind::FleetHello {
            role: "publisher".into(),
            peer_inst: 6001,
            dataset: 2,
        },
        EventKind::FleetConnect {
            role: "publisher".into(),
            daemon_inst: 7002,
            dataset: 2,
        },
        EventKind::FleetApply {
            daemon_inst: 7002,
            epoch: 6,
            drift: 0.375,
            reoptimized: true,
        },
    ]);
    let mut events: Vec<TraceEvent> = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| TraceEvent {
            inst: 7001,
            ..TraceEvent::new(i as u64, (i as u64) * 100, kind)
        })
        .collect();
    // Span hierarchy exemplar: the expand_form at index 0 is a child of
    // the run span at index 10 (children close, and are emitted, first).
    events[0].span = Some(11);
    events[0].parent = Some(10);
    events[10].span = Some(10);
    events
}

#[test]
fn encoding_matches_pinned_v2_fixture() {
    let actual = to_jsonl(&exemplar_events_v2());
    if std::env::var_os("UPDATE_SCHEMA_FIXTURE").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/schema_v2.jsonl"
        );
        std::fs::write(path, &actual).expect("write fixture");
    }
    assert_eq!(
        actual, FIXTURE_V2,
        "trace wire format drifted from tests/fixtures/schema_v2.jsonl; \
         this is a schema break — bump SCHEMA_VERSION or revert"
    );
}

#[test]
fn pinned_v2_fixture_decodes_to_the_exemplars() {
    // A trace written by any past build of this schema version must keep
    // reading back, field for field.
    let decoded = parse_trace(FIXTURE_V2).expect("fixture must parse strictly");
    assert_eq!(decoded, exemplar_events_v2());
}

#[test]
fn frozen_v1_fixture_still_decodes() {
    // The v1 fixture file predates `inst`/`span`/`parent`/`peer_inst`;
    // it is frozen byte-for-byte and must keep decoding leniently-shaped
    // (zeros and Nones for the v2 fields) under the strict parser.
    let decoded = parse_trace(FIXTURE_V1).expect("v1 fixture must keep parsing strictly");
    assert_eq!(decoded, exemplar_events_v1());
    assert!(
        FIXTURE_V1.lines().all(|l| l.starts_with("{\"v\":1,")),
        "the v1 fixture must stay a v1 fixture"
    );
}

#[test]
fn every_kind_is_covered_by_the_fixture() {
    // If a new EventKind variant is added, its wire form must be pinned
    // here too. Count distinct "type" tags in the fixture against the
    // exemplars (which the compiler forces through the match in
    // to_json_line).
    let tags: std::collections::BTreeSet<&'static str> = exemplar_events_v2()
        .iter()
        .map(|e| e.kind.type_tag())
        .collect();
    assert_eq!(tags.len(), 27, "fixture must exemplify every event kind");
}

#[test]
fn future_schema_version_is_a_typed_error() {
    let line = FIXTURE_V2.lines().next().expect("fixture non-empty");
    let bumped = line.replacen("{\"v\":2,", "{\"v\":3,", 1);
    let err = parse_trace(&bumped).expect_err("version skew must not decode");
    assert!(
        err.to_string().contains("unsupported schema version"),
        "unexpected error: {err}"
    );
}
