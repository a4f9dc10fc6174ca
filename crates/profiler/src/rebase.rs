//! Stale-profile rebasing: re-anchoring profile points onto edited source.
//!
//! Production profiles are always collected on *yesterday's* source. A
//! profile point is a [`SourceObject`] — file plus byte offsets — so any
//! edit that shifts text invalidates every later point positionally and
//! (before this module) silently discarded the fleet data the §3.2 merge
//! worked hard to accumulate. Following the Stale Profile Matching idea
//! (Ayupov et al.; see PAPERS.md), [`rebase`] fuzzily re-anchors an old
//! profile onto the edited source instead:
//!
//! 1. **Exact** — a toplevel form whose structure *and* offsets are
//!    unchanged keeps its points bit-identically (confidence 1.0).
//! 2. **Shifted** — a form whose structure is unchanged but whose text
//!    moved (something was inserted or deleted above it) is found by LCS
//!    over position-independent structural fingerprints; its points
//!    re-anchor to the shifted offsets at confidence 1.0.
//! 3. **Structural** — an edited form is paired with its most plausible
//!    successor (same defined name first, then same head shape) and its
//!    points re-anchor at a *decayed* confidence: a base factor for the
//!    match kind times the fraction of leaves the two forms still share.
//! 4. **Dead** — anything unmatched (or decayed below
//!    [`RebaseConfig::min_confidence`]) is dropped, and reported.
//!
//! The rebased weight of a point is `old_weight × confidence`, so a
//! rebase can only make weights (and the `profile-query` rankings built
//! on them) *less* confident — never invent a hot point (DESIGN.md §4i).
//! The per-point confidence is recorded in the stored profile as a v2
//! `(confidence c)` sub-entry ([`StoredProfile::confidence`]) and decays
//! multiplicatively across repeated rebases. Every decision emits a
//! `profile_rebase` trace event and feeds the `rebase.*` metrics, so
//! `pgmp-trace explain` can answer why a point matched, decayed, or
//! died. The normative matcher specification lives in `docs/REBASE.md`.

use crate::info::ProfileInformation;
use crate::slots::SlotMap;
use crate::store::StoredProfile;
use pgmp_observe as observe;
use pgmp_reader::read_str;
use pgmp_syntax::{FnvHasher, SourceObject, Symbol, Syntax, SyntaxBody};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hasher;
use std::rc::Rc;

/// Tuning knobs for the matcher. The defaults are the normative values
/// documented in `docs/REBASE.md`.
#[derive(Clone, Copy, Debug)]
pub struct RebaseConfig {
    /// Matches whose cumulative confidence falls below this are killed
    /// rather than kept as near-noise weights.
    pub min_confidence: f64,
    /// Base confidence for structural matches paired by defined name
    /// (`(define (f …) …)` on both sides).
    pub def_name_base: f64,
    /// Base confidence for structural matches paired only by head shape.
    pub shape_base: f64,
}

impl Default for RebaseConfig {
    fn default() -> RebaseConfig {
        RebaseConfig {
            min_confidence: 0.05,
            def_name_base: 0.9,
            shape_base: 0.7,
        }
    }
}

/// Which matcher tier re-anchored a point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchTier {
    /// Same structure, same offsets: the point is bit-identical.
    Exact,
    /// Same structure, shifted offsets (LCS-aligned): confidence 1.0.
    Shifted,
    /// Edited form paired by defined name or head shape: decayed.
    Structural,
    /// No plausible successor (or decayed below the floor): weight dropped.
    Dead,
}

impl MatchTier {
    /// The wire label used in `profile_rebase` events and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            MatchTier::Exact => "exact",
            MatchTier::Shifted => "shifted",
            MatchTier::Structural => "structural",
            MatchTier::Dead => "dead",
        }
    }
}

impl fmt::Display for MatchTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One point's rebase decision.
#[derive(Clone, Debug)]
pub struct RebaseOutcome {
    /// The point as recorded in the old profile.
    pub point: SourceObject,
    /// Where it re-anchored, `None` when dead.
    pub new_point: Option<SourceObject>,
    pub tier: MatchTier,
    /// The *match* confidence of this rebase step (1.0 for exact and
    /// shifted, 0.0 for dead). The stored profile records the cumulative
    /// confidence — this step times whatever earlier rebases recorded.
    pub confidence: f64,
    pub old_weight: f64,
    /// `old_weight × confidence`; 0.0 for dead points.
    pub new_weight: f64,
}

/// Aggregate accounting over every point the rebase touched.
#[derive(Clone, Copy, Debug, Default)]
pub struct RebaseReport {
    pub exact: usize,
    pub shifted: usize,
    pub structural: usize,
    pub dead: usize,
    /// Points in other files, carried through untouched (not counted in
    /// the tiers above or in the weight totals below).
    pub carried: usize,
    /// Total weight of the rebased file's points in the old profile.
    pub old_weight_total: f64,
    /// Total weight those points retain after decay.
    pub retained_weight: f64,
}

impl RebaseReport {
    /// Fraction of the old profile's weight that survived the rebase,
    /// in `[0, 1]`; 1.0 when the old profile had no weight to lose.
    pub fn retained_weight_fraction(&self) -> f64 {
        if self.old_weight_total <= 0.0 {
            1.0
        } else {
            self.retained_weight / self.old_weight_total
        }
    }
}

/// A rebased profile plus the per-point decisions behind it.
#[derive(Clone, Debug)]
pub struct RebaseResult {
    /// The rebased profile: decayed weights re-anchored onto the new
    /// source, confidence provenance recorded, slot table re-keyed in old
    /// slot order (dead slots dropped), dataset count and provenance
    /// preserved. Always format v2 (confidence needs it).
    pub profile: StoredProfile,
    /// One outcome per point of the rebased file, in sorted point order.
    pub outcomes: Vec<RebaseOutcome>,
    pub report: RebaseReport,
}

/// Rebasing failed before any matching happened.
#[derive(Debug)]
pub enum RebaseError {
    /// One of the two sources did not parse; the string names which.
    Read(String),
}

impl fmt::Display for RebaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RebaseError::Read(m) => write!(f, "cannot rebase: {m}"),
        }
    }
}

impl std::error::Error for RebaseError {}

/// Position-independent structural fingerprint of a form: FNV over its
/// printed datum (structure and atoms; offsets, file names, and hygiene
/// marks excluded). This is deliberately the opposite trade-off from
/// `pgmp_expander::form_hash`, which *includes* offsets so the
/// incremental cache re-keys moved forms — here moved-but-unchanged forms
/// must collide so LCS can align them.
pub fn struct_hash(stx: &Syntax) -> u64 {
    let printed = stx.to_datum().to_string();
    let mut h = FnvHasher::default();
    h.write(printed.as_bytes());
    h.finish()
}

/// Longest common subsequence over two fingerprint sequences, returned
/// as monotone `(old index, new index)` pairs. O(n·m) dynamic program —
/// fine at toplevel-form counts.
pub fn lcs_align(old: &[u64], new: &[u64]) -> Vec<(usize, usize)> {
    let (n, m) = (old.len(), new.len());
    // dp[i][j] = LCS length of old[i..] vs new[j..].
    let mut dp = vec![vec![0u32; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[i][j] = if old[i] == new[j] {
                dp[i + 1][j + 1] + 1
            } else {
                dp[i + 1][j].max(dp[i][j + 1])
            };
        }
    }
    let mut pairs = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if old[i] == new[j] {
            pairs.push((i, j));
            i += 1;
            j += 1;
        } else if dp[i + 1][j] >= dp[i][j + 1] {
            i += 1;
        } else {
            j += 1;
        }
    }
    pairs
}

/// Lockstep walk of two trees, recording `old span → new span` for every
/// node pair that carries a source object on both sides. On structurally
/// identical trees (the LCS tiers) this maps every node; on edited trees
/// (the structural tier) it maps the positionally corresponding prefix —
/// best-effort by design, since decayed weights only under-claim.
pub fn span_map_lockstep(old: &Syntax, new: &Syntax, map: &mut HashMap<(u32, u32), (u32, u32)>) {
    if let (Some(a), Some(b)) = (old.source, new.source) {
        map.insert((a.bfp, a.efp), (b.bfp, b.efp));
    }
    let zip = |xs: &[Rc<Syntax>], ys: &[Rc<Syntax>], map: &mut HashMap<_, _>| {
        for (x, y) in xs.iter().zip(ys.iter()) {
            span_map_lockstep(x, y, map);
        }
    };
    match (&old.body, &new.body) {
        (SyntaxBody::List(xs), SyntaxBody::List(ys))
        | (SyntaxBody::Vector(xs), SyntaxBody::Vector(ys)) => zip(xs, ys, map),
        (SyntaxBody::Improper(xs, xt), SyntaxBody::Improper(ys, yt)) => {
            zip(xs, ys, map);
            span_map_lockstep(xt, yt, map);
        }
        _ => {}
    }
}

fn leaf_count(stx: &Syntax) -> usize {
    match &stx.body {
        SyntaxBody::Atom(_) => 1,
        SyntaxBody::List(xs) | SyntaxBody::Vector(xs) => xs.iter().map(|x| leaf_count(x)).sum(),
        SyntaxBody::Improper(xs, t) => {
            xs.iter().map(|x| leaf_count(x)).sum::<usize>() + leaf_count(t)
        }
    }
}

/// `(matched leaves, total leaves)` of a lockstep walk; unpaired or
/// shape-mismatched subtrees count their larger side as unmatched.
fn similarity_walk(old: &Syntax, new: &Syntax) -> (usize, usize) {
    let zip = |xs: &[Rc<Syntax>], ys: &[Rc<Syntax>]| {
        let (mut m, mut t) = (0, 0);
        for (x, y) in xs.iter().zip(ys.iter()) {
            let (mm, tt) = similarity_walk(x, y);
            m += mm;
            t += tt;
        }
        let extra = if xs.len() > ys.len() {
            &xs[ys.len()..]
        } else {
            &ys[xs.len()..]
        };
        t += extra.iter().map(|x| leaf_count(x)).sum::<usize>();
        (m, t)
    };
    match (&old.body, &new.body) {
        (SyntaxBody::Atom(a), SyntaxBody::Atom(b)) => {
            ((old.to_datum() == new.to_datum() && a == b) as usize, 1)
        }
        (SyntaxBody::List(xs), SyntaxBody::List(ys))
        | (SyntaxBody::Vector(xs), SyntaxBody::Vector(ys)) => zip(xs, ys),
        (SyntaxBody::Improper(xs, xt), SyntaxBody::Improper(ys, yt)) => {
            let (m, t) = zip(xs, ys);
            let (mm, tt) = similarity_walk(xt, yt);
            (m + mm, t + tt)
        }
        _ => (0, leaf_count(old).max(leaf_count(new))),
    }
}

/// Fraction of leaves two forms share under a lockstep walk, in `[0,1]`.
/// This is the similarity factor of the structural tier: monotone in the
/// number of leaves an edit script changes.
pub fn similarity(old: &Syntax, new: &Syntax) -> f64 {
    let (m, t) = similarity_walk(old, new);
    if t == 0 {
        1.0
    } else {
        m as f64 / t as f64
    }
}

/// The name a toplevel definition binds, for structural pairing:
/// `(define (f …) …)`, `(define f …)`, `(define-syntax (f …) …)`, etc.
fn defined_name(stx: &Syntax) -> Option<Symbol> {
    let elems = stx.as_list()?;
    let head = elems.first()?.as_symbol()?;
    if !matches!(
        head.as_str(),
        "define" | "define-syntax" | "define-for-syntax"
    ) {
        return None;
    }
    let binder = elems.get(1)?;
    binder
        .as_symbol()
        .or_else(|| binder.as_list()?.first()?.as_symbol())
}

fn head_symbol(stx: &Syntax) -> Option<Symbol> {
    stx.as_list()?.first()?.as_symbol()
}

/// The file a point's counters belong to, with the §4.1 `%pgmp` suffix of
/// generated points stripped: `"m.scm%pgmp3"` rebases with `"m.scm"`.
fn base_file(p: &SourceObject) -> &str {
    let s = p.file.as_str();
    match s.find("%pgmp") {
        Some(i) => &s[..i],
        None => s,
    }
}

/// Span → (new span, match confidence), the matcher's whole-file output.
type SpanMap = HashMap<(u32, u32), ((u32, u32), f64)>;

/// Span → (new span, match confidence) for the whole file, built from the
/// three matcher tiers over the two parsed form sequences.
fn build_span_map(
    old_forms: &[Rc<Syntax>],
    new_forms: &[Rc<Syntax>],
    cfg: &RebaseConfig,
) -> SpanMap {
    let old_hashes: Vec<u64> = old_forms.iter().map(|f| struct_hash(f)).collect();
    let new_hashes: Vec<u64> = new_forms.iter().map(|f| struct_hash(f)).collect();
    let pairs = lcs_align(&old_hashes, &new_hashes);

    let mut spans: SpanMap = HashMap::new();
    let mut matched_old: HashSet<usize> = HashSet::new();
    let mut matched_new: HashSet<usize> = HashSet::new();
    let add_form = |old: &Syntax, new: &Syntax, confidence: f64, spans: &mut SpanMap| {
        let mut m = HashMap::new();
        span_map_lockstep(old, new, &mut m);
        for (from, to) in m {
            // First writer wins: LCS pairs are inserted before structural
            // pairs, so a span never decays below its best match.
            spans.entry(from).or_insert((to, confidence));
        }
    };
    for (i, j) in &pairs {
        matched_old.insert(*i);
        matched_new.insert(*j);
        add_form(&old_forms[*i], &new_forms[*j], 1.0, &mut spans);
    }

    // Structural tier: pair leftover forms by defined name first, then by
    // head shape in order, decaying by how much of the form survived.
    let leftovers_old: Vec<usize> = (0..old_forms.len())
        .filter(|i| !matched_old.contains(i))
        .collect();
    let mut leftovers_new: Vec<usize> = (0..new_forms.len())
        .filter(|j| !matched_new.contains(j))
        .collect();
    let pair_structural = |i: usize, j: usize, base: f64, spans: &mut SpanMap| {
        let confidence = base * similarity(&old_forms[i], &new_forms[j]);
        if confidence >= cfg.min_confidence {
            add_form(&old_forms[i], &new_forms[j], confidence, spans);
        }
    };
    let mut still_unpaired: Vec<usize> = Vec::new();
    for i in leftovers_old {
        let by_name = defined_name(&old_forms[i]).and_then(|name| {
            leftovers_new
                .iter()
                .position(|&j| defined_name(&new_forms[j]) == Some(name))
        });
        match by_name {
            Some(pos) => {
                let j = leftovers_new.remove(pos);
                pair_structural(i, j, cfg.def_name_base, &mut spans);
            }
            None => still_unpaired.push(i),
        }
    }
    for i in still_unpaired {
        // Among leftovers with the same head, take the most similar one —
        // in-order pairing would marry an edited form to an unrelated
        // freshly inserted neighbor.
        let by_shape = head_symbol(&old_forms[i]).and_then(|head| {
            leftovers_new
                .iter()
                .enumerate()
                .filter(|(_, &j)| head_symbol(&new_forms[j]) == Some(head))
                .map(|(pos, &j)| (pos, similarity(&old_forms[i], &new_forms[j])))
                .max_by(|a, b| a.1.total_cmp(&b.1))
        });
        if let Some((pos, _)) = by_shape {
            let j = leftovers_new.remove(pos);
            pair_structural(i, j, cfg.shape_base, &mut spans);
        }
    }
    spans
}

/// Re-anchors `old` onto the edited source of `file`.
///
/// `old_src` must be the source the profile was collected against and
/// `new_src` the edited text; both parse under `file`, the file name the
/// profile's points carry (generated `file%pgmpN` points rebase through
/// their base form's span). Points in *other* files are carried through
/// untouched.
///
/// Emits one `profile_rebase` trace event per decision when a recording
/// is active, and always updates the `rebase.*` metrics.
///
/// # Errors
///
/// [`RebaseError::Read`] when either source fails to parse.
pub fn rebase(
    old: &StoredProfile,
    old_src: &str,
    new_src: &str,
    file: &str,
    cfg: &RebaseConfig,
) -> Result<RebaseResult, RebaseError> {
    let old_forms =
        read_str(old_src, file).map_err(|e| RebaseError::Read(format!("old source: {e}")))?;
    let new_forms =
        read_str(new_src, file).map_err(|e| RebaseError::Read(format!("new source: {e}")))?;
    let spans = build_span_map(&old_forms, &new_forms, cfg);

    let mut outcomes: Vec<RebaseOutcome> = Vec::new();
    let mut report = RebaseReport::default();
    // point → (new point, cumulative confidence, new weight); collisions
    // (two old points re-anchoring onto one successor) keep the heavier.
    let mut placed: HashMap<SourceObject, (SourceObject, f64, f64)> = HashMap::new();
    let mut moved: HashMap<SourceObject, SourceObject> = HashMap::new();

    let mut points: Vec<(SourceObject, f64)> = old.info.iter().collect();
    points.sort_by_key(|a| a.0);
    for (p, w) in points {
        if base_file(&p) != file {
            report.carried += 1;
            moved.insert(p, p);
            placed.insert(p, (p, old.confidence(p), w));
            continue;
        }
        report.old_weight_total += w;
        let decision = spans.get(&(p.bfp, p.efp));
        let (tier, confidence, new_point) = match decision {
            Some(((nb, ne), c)) => {
                let cumulative = old.confidence(p) * c;
                if cumulative < cfg.min_confidence {
                    (MatchTier::Dead, 0.0, None)
                } else if *c >= 1.0 {
                    let np = SourceObject {
                        file: p.file,
                        bfp: *nb,
                        efp: *ne,
                    };
                    if np == p {
                        (MatchTier::Exact, 1.0, Some(np))
                    } else {
                        (MatchTier::Shifted, 1.0, Some(np))
                    }
                } else {
                    let np = SourceObject {
                        file: p.file,
                        bfp: *nb,
                        efp: *ne,
                    };
                    (MatchTier::Structural, *c, Some(np))
                }
            }
            None => (MatchTier::Dead, 0.0, None),
        };
        let new_weight = w * confidence;
        let outcome = RebaseOutcome {
            point: p,
            new_point,
            tier,
            confidence,
            old_weight: w,
            new_weight,
        };
        let tier = match new_point {
            Some(np) => {
                let cumulative = old.confidence(p) * confidence;
                match placed.get(&np) {
                    // Collision: a heavier point already claimed this
                    // successor — the lighter one dies.
                    Some((_, _, placed_w)) if *placed_w >= new_weight => MatchTier::Dead,
                    _ => {
                        placed.insert(np, (np, cumulative, new_weight));
                        moved.insert(p, np);
                        tier
                    }
                }
            }
            None => MatchTier::Dead,
        };
        let outcome = if tier == MatchTier::Dead {
            RebaseOutcome {
                new_point: None,
                tier,
                confidence: 0.0,
                new_weight: 0.0,
                ..outcome
            }
        } else {
            report.retained_weight += new_weight;
            outcome
        };
        match tier {
            MatchTier::Exact => report.exact += 1,
            MatchTier::Shifted => report.shifted += 1,
            MatchTier::Structural => report.structural += 1,
            MatchTier::Dead => report.dead += 1,
        }
        if observe::enabled() {
            observe::emit(observe::EventKind::ProfileRebase {
                point: outcome.point.to_string(),
                new_point: outcome.new_point.map(|np| np.to_string()),
                tier: tier.as_str().to_string(),
                confidence: outcome.confidence,
                old_weight: outcome.old_weight,
                new_weight: outcome.new_weight,
            });
        }
        outcomes.push(outcome);
    }

    let reg = observe::metrics();
    reg.counter_add("rebase.exact", report.exact as u64);
    reg.counter_add("rebase.shifted", report.shifted as u64);
    reg.counter_add("rebase.structural", report.structural as u64);
    reg.counter_add("rebase.dead", report.dead as u64);
    reg.gauge_set(
        "rebase.retained_weight_fraction",
        report.retained_weight_fraction(),
    );

    // Rebuild the slot table in old slot order: surviving points keep
    // their relative position, dead slots drop out (slot identity is
    // process-local, so renumbering is safe — see docs/FLEET.md).
    let slots = old.slots.as_ref().and_then(|table| {
        let survivors: Vec<SourceObject> = table
            .points()
            .iter()
            .filter_map(|p| moved.get(p).copied())
            .collect();
        let mut seen = HashSet::new();
        let survivors: Vec<SourceObject> =
            survivors.into_iter().filter(|p| seen.insert(*p)).collect();
        if survivors.is_empty() {
            None
        } else {
            SlotMap::from_points(survivors).ok()
        }
    });

    let weights: Vec<(SourceObject, f64)> = placed.values().map(|(np, _, w)| (*np, *w)).collect();
    let confidences: Vec<(SourceObject, f64)> =
        placed.values().map(|(np, c, _)| (*np, *c)).collect();
    let info = ProfileInformation::from_weights(weights, old.info.dataset_count());
    let profile = StoredProfile::v2(info, slots)
        .with_provenance(old.provenance)
        .with_confidences(confidences);
    Ok(RebaseResult {
        profile,
        outcomes,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Old profile: one weighted point per toplevel-form root span of
    /// `src`, weights descending from 1.0, slot table in point order.
    fn profile_for(src: &str, file: &str) -> StoredProfile {
        let forms = read_str(src, file).unwrap();
        let mut points: Vec<SourceObject> = Vec::new();
        for f in &forms {
            collect_spans(f, &mut points);
        }
        points.sort();
        points.dedup();
        let n = points.len() as f64;
        let weights: Vec<(SourceObject, f64)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, 1.0 - i as f64 / (2.0 * n)))
            .collect();
        let slots = SlotMap::from_points(points).unwrap();
        StoredProfile::v2(ProfileInformation::from_weights(weights, 1), Some(slots))
    }

    fn collect_spans(stx: &Syntax, out: &mut Vec<SourceObject>) {
        if let Some(s) = stx.source {
            out.push(s);
        }
        match &stx.body {
            SyntaxBody::Atom(_) => {}
            SyntaxBody::List(xs) | SyntaxBody::Vector(xs) => {
                for x in xs {
                    collect_spans(x, out);
                }
            }
            SyntaxBody::Improper(xs, t) => {
                for x in xs {
                    collect_spans(x, out);
                }
                collect_spans(t, out);
            }
        }
    }

    const OLD: &str = "(define (f x) (* x x))\n(define (g x) (+ x 1))\n(f (g 4))";

    #[test]
    fn identical_source_rebases_bit_identically() {
        let old = profile_for(OLD, "m.scm");
        let r = rebase(&old, OLD, OLD, "m.scm", &RebaseConfig::default()).unwrap();
        assert_eq!(r.report.dead, 0);
        assert_eq!(r.report.shifted, 0);
        assert_eq!(r.report.structural, 0);
        assert!(r.report.exact > 0);
        assert_eq!(r.report.retained_weight_fraction(), 1.0);
        assert_eq!(r.profile.store_to_string(), old.store_to_string());
    }

    #[test]
    fn inserted_form_shifts_downstream_points_at_full_confidence() {
        let new = "(define (h x) x)\n(define (f x) (* x x))\n(define (g x) (+ x 1))\n(f (g 4))";
        let old = profile_for(OLD, "m.scm");
        let r = rebase(&old, OLD, new, "m.scm", &RebaseConfig::default()).unwrap();
        assert_eq!(r.report.dead, 0, "outcomes: {:?}", r.outcomes);
        assert_eq!(r.report.structural, 0);
        assert!(r.report.shifted > 0);
        assert_eq!(r.report.retained_weight_fraction(), 1.0);
        // Every weight is preserved, just re-anchored: the hottest old
        // point's weight exists somewhere in the rebased profile.
        let shift = "(define (h x) x)\n".len() as u32;
        for o in &r.outcomes {
            let np = o.new_point.unwrap();
            assert_eq!(np.bfp, o.point.bfp + shift);
            assert_eq!(o.new_weight, o.old_weight);
            assert_eq!(r.profile.confidence(np), 1.0);
        }
        // No confidence entries: shifted matches are full confidence.
        assert!(!r.profile.store_to_string().contains("confidence"));
    }

    #[test]
    fn renamed_define_decays_but_survives() {
        // Same-length rename (`f` -> `q`): downstream offsets don't move.
        let new = "(define (q x) (* x x))\n(define (g x) (+ x 1))\n(f (g 4))";
        let old = profile_for(OLD, "m.scm");
        let cfg = RebaseConfig::default();
        let r = rebase(&old, OLD, new, "m.scm", &cfg).unwrap();
        // `f`'s form decays (paired by head shape after the rename broke
        // the name pairing); `g` and the call form still match exactly.
        assert!(r.report.structural > 0, "outcomes: {:?}", r.outcomes);
        assert!(r.report.exact > 0);
        let frac = r.report.retained_weight_fraction();
        assert!(frac > 0.5 && frac < 1.0, "retained {frac}");
        // Decayed outcomes: weight strictly shrinks, confidence recorded.
        for o in r
            .outcomes
            .iter()
            .filter(|o| o.tier == MatchTier::Structural)
        {
            assert!(o.new_weight < o.old_weight);
            assert!(o.confidence < 1.0 && o.confidence >= cfg.min_confidence);
            assert_eq!(r.profile.confidence(o.new_point.unwrap()), o.confidence);
        }
        assert!(r.profile.store_to_string().contains("confidence"));
        // The rebased profile round-trips with its confidence intact.
        let back = StoredProfile::load_from_str(&r.profile.store_to_string()).unwrap();
        assert_eq!(back.info, r.profile.info);
        assert_eq!(back.confidence, r.profile.confidence);
    }

    #[test]
    fn deleted_form_kills_its_points() {
        let new = "(define (f x) (* x x))\n(f (g 4))";
        let old = profile_for(OLD, "m.scm");
        let r = rebase(&old, OLD, new, "m.scm", &RebaseConfig::default()).unwrap();
        assert!(r.report.dead > 0);
        let frac = r.report.retained_weight_fraction();
        assert!(frac < 1.0);
        for o in r.outcomes.iter().filter(|o| o.tier == MatchTier::Dead) {
            assert!(o.new_point.is_none());
            assert_eq!(o.new_weight, 0.0);
        }
    }

    #[test]
    fn foreign_points_are_carried_untouched() {
        let other = SourceObject::new("other.scm", 5, 9);
        let old = StoredProfile::v2(ProfileInformation::from_weights([(other, 0.25)], 1), None);
        let r = rebase(&old, OLD, OLD, "m.scm", &RebaseConfig::default()).unwrap();
        assert_eq!(r.report.carried, 1);
        assert_eq!(r.profile.info.weight(other), 0.25);
    }

    #[test]
    fn generated_points_rebase_through_their_base_span() {
        // A generated point `m.scm%pgmp0` carries its base form's span; an
        // insertion above shifts it like any source point, keeping the
        // suffix (the file name does not move, only the offsets).
        let forms = read_str(OLD, "m.scm").unwrap();
        let base = forms[0].source.unwrap();
        let mut factory = pgmp_syntax::SourceFactory::new();
        let generated = factory.make_profile_point(Some(base));
        let old = StoredProfile::v2(
            ProfileInformation::from_weights([(generated, 0.8)], 1),
            None,
        );
        let new = "(define (h x) x)\n(define (f x) (* x x))\n(define (g x) (+ x 1))\n(f (g 4))";
        let r = rebase(&old, OLD, new, "m.scm", &RebaseConfig::default()).unwrap();
        assert_eq!(r.report.shifted, 1, "outcomes: {:?}", r.outcomes);
        let np = r.outcomes[0].new_point.unwrap();
        assert_eq!(np.file, generated.file, "suffix preserved");
        assert_eq!(np.bfp, generated.bfp + "(define (h x) x)\n".len() as u32);
        assert_eq!(r.profile.info.weight(np), 0.8);
    }

    #[test]
    fn confidence_decays_multiplicatively_across_rebases() {
        let new = "(define (f2 x) (* x x))\n(define (g x) (+ x 1))\n(f (g 4))";
        let old = profile_for(OLD, "m.scm");
        let cfg = RebaseConfig::default();
        let once = rebase(&old, OLD, new, "m.scm", &cfg).unwrap();
        let renamed_again = "(define (f3 x) (* x x))\n(define (g x) (+ x 1))\n(f (g 4))";
        let twice = rebase(&once.profile, new, renamed_again, "m.scm", &cfg).unwrap();
        let decayed_once: Vec<f64> = once
            .outcomes
            .iter()
            .filter(|o| o.tier == MatchTier::Structural)
            .map(|o| once.profile.confidence(o.new_point.unwrap()))
            .collect();
        let decayed_twice: Vec<f64> = twice
            .outcomes
            .iter()
            .filter(|o| o.tier == MatchTier::Structural)
            .map(|o| twice.profile.confidence(o.new_point.unwrap()))
            .collect();
        assert!(!decayed_once.is_empty() && !decayed_twice.is_empty());
        let min_once = decayed_once.iter().cloned().fold(1.0, f64::min);
        let min_twice = decayed_twice.iter().cloned().fold(1.0, f64::min);
        assert!(
            min_twice < min_once,
            "cumulative confidence must keep falling: {min_once} -> {min_twice}"
        );
    }

    #[test]
    fn min_confidence_floor_kills_weak_matches() {
        let new = "(define (f2 a) (- a 7))\n(f (g 4))";
        let old = profile_for(OLD, "m.scm");
        let strict = RebaseConfig {
            min_confidence: 0.89,
            ..RebaseConfig::default()
        };
        let r = rebase(&old, OLD, new, "m.scm", &strict).unwrap();
        // The heavily edited `f` cannot clear a 0.89 floor (def-name base
        // is 0.9 and most leaves changed), so its points die.
        assert_eq!(r.report.structural, 0, "outcomes: {:?}", r.outcomes);
        assert!(r.report.dead > 0);
    }

    #[test]
    fn weights_never_amplify() {
        let new = "(define (f2 x) (* x x))\n(define (zz y) (list y y))\n(f (g 5))";
        let old = profile_for(OLD, "m.scm");
        let r = rebase(&old, OLD, new, "m.scm", &RebaseConfig::default()).unwrap();
        for o in &r.outcomes {
            assert!(o.new_weight <= o.old_weight + 1e-12, "{o:?}");
            assert!((0.0..=1.0).contains(&o.confidence));
        }
        assert!(r.report.retained_weight_fraction() <= 1.0 + 1e-12);
    }

    #[test]
    fn unreadable_source_is_a_typed_error() {
        let old = profile_for(OLD, "m.scm");
        let cfg = RebaseConfig::default();
        assert!(matches!(
            rebase(&old, "(((", OLD, "m.scm", &cfg),
            Err(RebaseError::Read(_))
        ));
        assert!(matches!(
            rebase(&old, OLD, "(((", "m.scm", &cfg),
            Err(RebaseError::Read(_))
        ));
    }

    #[test]
    fn lcs_align_is_monotone_and_maximal() {
        assert_eq!(
            lcs_align(&[1, 2, 3], &[1, 2, 3]),
            vec![(0, 0), (1, 1), (2, 2)]
        );
        assert_eq!(
            lcs_align(&[1, 2, 3], &[9, 1, 2, 3]),
            vec![(0, 1), (1, 2), (2, 3)]
        );
        assert_eq!(lcs_align(&[1, 2, 3], &[1, 3]), vec![(0, 0), (2, 1)]);
        assert_eq!(lcs_align(&[], &[1]), vec![]);
        // Duplicates stay 1:1 and ordered.
        assert_eq!(lcs_align(&[7, 7], &[7, 7, 7]).len(), 2);
    }

    #[test]
    fn slot_table_rekeys_in_old_order_and_drops_dead_slots() {
        let new = "(define (f x) (* x x))\n(f (g 4))";
        let old = profile_for(OLD, "m.scm");
        let old_len = old.slots.as_ref().unwrap().len();
        let r = rebase(&old, OLD, new, "m.scm", &RebaseConfig::default()).unwrap();
        let table = r.profile.slots.as_ref().unwrap();
        assert!(table.len() < old_len, "dead slots must drop");
        // Every surviving slot point has a weight in the rebased profile.
        for p in table.points() {
            assert!(r.profile.info.lookup(*p).is_some());
        }
    }
}
