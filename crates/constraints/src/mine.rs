//! Denial-constraint mining — the substrate behind the paper's constraint
//! sets.
//!
//! §6.1: *"We use a DC mining algorithm \[39\] to obtain a set of DCs for
//! each dataset."* The cited algorithm (Livshits, Heidari, Ilyas,
//! Kimelfeld, *Approximate Denial Constraints*, PVLDB 2020) follows the
//! evidence-set framework of FastDCs \[11\] / Hydra \[8\]; this module
//! implements that framework:
//!
//! 1. **Predicate space.** Candidate predicates `t[A] ρ t'[B]` over one
//!    relation, with `ρ ∈ {=, ≠}` everywhere and `{<, ≤, >, ≥}` on numeric
//!    columns; cross-column predicates are admitted only for column pairs
//!    whose active domains overlap (the standard joinability heuristic).
//!    Single-tuple spaces (`t[A] ρ t[B]`) are mined separately into unary
//!    DCs — this is how `∀t ¬(t[High] < t[Low])` (the Stock DC of Fig. 3)
//!    is found.
//! 2. **Evidence sets.** For a sample of ordered tuple pairs, the set of
//!    satisfied predicates, stored as one bitset per predicate over the
//!    sample.
//! 3. **Minimal covers.** A DC `¬(p₁ ∧ … ∧ pₘ)` holds iff no evidence set
//!    contains all `pᵢ`; it holds *approximately* at threshold `ε` iff at
//!    most `ε · #pairs` do. The search enumerates predicate sets
//!    depth-first with subset-minimality and satisfiability pruning, so
//!    only minimal, non-vacuous DCs are emitted.
//!
//! Mined DCs are ranked by an interestingness score (succinctness ×
//! boundary coverage, an adaptation of FastDCs' scoring) so callers can
//! keep the top `k` — mirroring how the paper's per-dataset constraint
//! sets (6–13 DCs each, Fig. 3) were curated.

use crate::dc::{build, DenialConstraint};
use crate::engine;
use crate::predicate::{CmpOp, Predicate};
use inconsist_relational::{ActiveDomain, AttrId, Database, RelId, Value, ValueKind};
use rand::prelude::*;
use std::collections::HashSet;

/// Mining parameters.
#[derive(Clone, Debug)]
pub struct MinerConfig {
    /// Maximum predicates per DC (FastDCs uses small sizes; default 3).
    pub max_predicates: usize,
    /// Approximation threshold `ε`: a DC may be violated by at most
    /// `ε · #sampled pairs` (0 = exact DCs only).
    pub epsilon: f64,
    /// Cap on sampled ordered tuple pairs (all pairs if they fit).
    pub max_pairs: usize,
    /// RNG seed for pair sampling.
    pub seed: u64,
    /// Keep at most this many DCs (highest score first).
    pub max_dcs: usize,
    /// Minimum active-domain overlap for cross-column predicates, as a
    /// fraction of the smaller domain.
    pub min_overlap: f64,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            max_predicates: 3,
            epsilon: 0.0,
            max_pairs: 50_000,
            seed: 1,
            max_dcs: 16,
            min_overlap: 0.2,
        }
    }
}

/// One mined constraint with its (full-data) statistics.
#[derive(Clone, Debug)]
pub struct MinedDc {
    /// The constraint, ready to add to a [`crate::ConstraintSet`].
    pub dc: DenialConstraint,
    /// Exact number of distinct violations on the *full* relation —
    /// guaranteed `≤ ε · sample_size` by the verification pass.
    pub violations: usize,
    /// The population the threshold refers to: unordered tuple pairs for
    /// binary DCs, tuples for unary DCs.
    pub sample_size: usize,
    /// Interestingness: succinctness × boundary coverage, in `(0, 1]`.
    pub score: f64,
}

/// A candidate predicate in the mining space. `two_tuple` distinguishes
/// `t[lhs] op t'[rhs]` from the single-tuple `t[lhs] op t[rhs]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MinePred {
    lhs: AttrId,
    op: CmpOp,
    rhs: AttrId,
    two_tuple: bool,
}

impl MinePred {
    fn eval(&self, a: &[Value], b: &[Value]) -> bool {
        let right = if self.two_tuple { b } else { a };
        self.op.eval(&a[self.lhs.idx()], &right[self.rhs.idx()])
    }

    /// The predicate with `t` and `t'` swapped (for symmetry dedup).
    fn swapped(&self) -> MinePred {
        debug_assert!(self.two_tuple);
        MinePred {
            lhs: self.rhs,
            op: self.op.flip(),
            rhs: self.lhs,
            two_tuple: true,
        }
    }
}

/// Whether `set` mentions each `(lhs, rhs, side)` column pair at most
/// once. Two comparisons on the same pair are never wanted: their
/// conjunction is either unsatisfiable (`= ∧ ≠`, vacuous DC), redundant
/// (`≤ ∧ ≥` is just `=` — every nonempty, proper subset of `{<, =, >}` is
/// a single operator), or trivially true.
fn well_formed(set: &[MinePred]) -> bool {
    for (i, p) in set.iter().enumerate() {
        for q in &set[i + 1..] {
            if p.lhs == q.lhs && p.rhs == q.rhs && p.two_tuple == q.two_tuple {
                return false;
            }
        }
    }
    true
}

fn is_numeric(kind: ValueKind) -> bool {
    matches!(kind, ValueKind::Int | ValueKind::Float)
}

/// Fraction of the smaller active domain shared with the other — the
/// joinability gate for cross-column *equality* predicates.
fn domain_overlap(a: &ActiveDomain, b: &ActiveDomain) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let small: HashSet<&Value> = a.iter().map(|(v, _)| v).collect();
    let shared = b.iter().filter(|(v, _)| small.contains(v)).count();
    shared as f64 / a.len().min(b.len()) as f64
}

/// Overlap of the numeric value ranges relative to the narrower one — the
/// comparability gate for cross-column *order* predicates (exact value
/// coincidence is irrelevant for `<`; two float columns like Stock's High
/// and Low share a range while sharing almost no exact values).
fn range_overlap(a: &ActiveDomain, b: &ActiveDomain) -> f64 {
    let span = |d: &ActiveDomain| -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (v, _) in d.iter() {
            let x = v.as_f64()?;
            lo = lo.min(x);
            hi = hi.max(x);
        }
        (lo <= hi).then_some((lo, hi))
    };
    let (Some((alo, ahi)), Some((blo, bhi))) = (span(a), span(b)) else {
        return 0.0;
    };
    let shared = (ahi.min(bhi) - alo.max(blo)).max(0.0);
    let narrow = (ahi - alo).min(bhi - blo);
    if narrow <= 0.0 {
        // Degenerate (constant) column: comparable iff inside the other's range.
        if shared >= 0.0 && ahi.min(bhi) >= alo.max(blo) {
            1.0
        } else {
            0.0
        }
    } else {
        shared / narrow
    }
}

/// Builds the candidate predicate space for `rel`.
fn predicate_space(db: &Database, rel: RelId, cfg: &MinerConfig, two_tuple: bool) -> Vec<MinePred> {
    let rs = db.relation_schema(rel).clone();
    let arity = rs.arity();
    let domains: Vec<ActiveDomain> = (0..arity)
        .map(|i| ActiveDomain::of(db, rel, AttrId(i as u16)))
        .collect();
    let mut out = Vec::new();
    for i in 0..arity {
        let a = AttrId(i as u16);
        let ka = rs.attribute(a).kind;
        if two_tuple {
            // Same-column predicates t[A] op t'[A].
            out.push(MinePred {
                lhs: a,
                op: CmpOp::Eq,
                rhs: a,
                two_tuple,
            });
            out.push(MinePred {
                lhs: a,
                op: CmpOp::Neq,
                rhs: a,
                two_tuple,
            });
            if is_numeric(ka) {
                for op in [CmpOp::Lt, CmpOp::Leq, CmpOp::Gt, CmpOp::Geq] {
                    out.push(MinePred {
                        lhs: a,
                        op,
                        rhs: a,
                        two_tuple,
                    });
                }
            }
        }
        // Cross-column predicates, gated on type and domain overlap. The
        // unary space keeps `i < j` only (`A ρ B` *is* `B ρ⁻¹ A`); the
        // binary space keeps both orders — `t[A] ρ t'[B]` and `t[B] ρ t'[A]`
        // are distinct predicates, related only through the whole-DC mirror
        // handled by [`canonical_key`].
        for j in 0..arity {
            if i == j || (!two_tuple && j < i) {
                continue;
            }
            let b = AttrId(j as u16);
            if ka != rs.attribute(b).kind {
                continue;
            }
            if domain_overlap(&domains[i], &domains[j]) >= cfg.min_overlap {
                out.push(MinePred {
                    lhs: a,
                    op: CmpOp::Eq,
                    rhs: b,
                    two_tuple,
                });
                out.push(MinePred {
                    lhs: a,
                    op: CmpOp::Neq,
                    rhs: b,
                    two_tuple,
                });
            }
            if is_numeric(ka) && range_overlap(&domains[i], &domains[j]) >= cfg.min_overlap {
                for op in [CmpOp::Lt, CmpOp::Gt] {
                    out.push(MinePred {
                        lhs: a,
                        op,
                        rhs: b,
                        two_tuple,
                    });
                }
            }
        }
    }
    out
}

/// A packed bitset over sample indices.
#[derive(Clone)]
struct Bits(Vec<u64>);

impl Bits {
    fn zeros(n: usize) -> Self {
        Bits(vec![0; n.div_ceil(64)])
    }
    fn ones(n: usize) -> Self {
        let mut b = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            if let Some(last) = b.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        Bits(b)
    }
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    fn and_count(&self, other: &Bits, out: &mut Bits) -> usize {
        let mut count = 0;
        for ((o, a), b) in out.0.iter_mut().zip(&self.0).zip(&other.0) {
            *o = a & b;
            count += o.count_ones() as usize;
        }
        count
    }
    fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }
}

struct SearchCtx<'a> {
    preds: &'a [MinePred],
    bits: &'a [Bits],
    sample: usize,
    threshold: usize,
    max_size: usize,
    found: Vec<(Vec<usize>, usize)>,
    cap: usize,
}

impl SearchCtx<'_> {
    /// Depth-first minimal-cover search. `current` is sorted; `acc` is the
    /// AND of its predicate bitsets with `count` set bits.
    fn dfs(&mut self, start: usize, current: &mut Vec<usize>, acc: &Bits, count: usize) {
        if self.found.len() >= self.cap {
            return;
        }
        if !current.is_empty() && count <= self.threshold {
            // Holding set: emit if subset-minimal, never extend (supersets
            // cannot be minimal).
            if self.is_minimal(current) {
                self.found.push((current.clone(), count));
            }
            return;
        }
        if current.len() == self.max_size {
            return;
        }
        for p in start..self.preds.len() {
            // One predicate per column pair (see [`well_formed`]).
            let cand = self.preds[p];
            if current.iter().any(|&q| {
                let q = self.preds[q];
                q.lhs == cand.lhs && q.rhs == cand.rhs && q.two_tuple == cand.two_tuple
            }) {
                continue;
            }
            let mut next = Bits::zeros(self.sample);
            let next_count = if current.is_empty() {
                next = self.bits[p].clone();
                next.count()
            } else {
                acc.and_count(&self.bits[p], &mut next)
            };
            // A predicate that filters nothing cannot make the set minimal.
            if next_count == count && !current.is_empty() {
                continue;
            }
            current.push(p);
            self.dfs(p + 1, current, &next, next_count);
            current.pop();
        }
    }

    /// Every proper subset must violate the threshold.
    fn is_minimal(&self, set: &[usize]) -> bool {
        if set.len() == 1 {
            return true;
        }
        for skip in 0..set.len() {
            let mut acc = Bits::ones(self.sample);
            let mut count = self.sample;
            for (k, &p) in set.iter().enumerate() {
                if k == skip {
                    continue;
                }
                let mut next = Bits::zeros(self.sample);
                count = acc.and_count(&self.bits[p], &mut next);
                acc = next;
            }
            if count <= self.threshold {
                return false;
            }
        }
        true
    }
}

/// Boundary coverage: fraction of the sample satisfying all but exactly
/// one predicate of the DC — pairs the constraint actively separates. A
/// constraint no pair ever comes close to violating scores near zero.
fn boundary_coverage(set: &[usize], bits: &[Bits], sample: usize) -> f64 {
    if sample == 0 {
        return 0.0;
    }
    if set.len() == 1 {
        // For singletons the "boundary" is satisfaction of the negation.
        return 1.0 - bits[set[0]].count() as f64 / sample as f64;
    }
    let mut boundary = 0usize;
    for skip in 0..set.len() {
        let mut acc = Bits::ones(sample);
        for (k, &p) in set.iter().enumerate() {
            if k == skip {
                continue;
            }
            let mut next = Bits::zeros(sample);
            acc.and_count(&bits[p], &mut next);
            acc = next;
        }
        boundary += acc.count();
    }
    (boundary as f64 / sample as f64).min(1.0)
}

fn to_dc(
    rel: RelId,
    set: &[MinePred],
    name: &str,
    schema: &inconsist_relational::Schema,
) -> DenialConstraint {
    let two_tuple = set.iter().any(|p| p.two_tuple);
    let preds: Vec<Predicate> = set
        .iter()
        .map(|p| {
            if p.two_tuple {
                build::tt(p.lhs, p.op, p.rhs)
            } else {
                build::uu(p.lhs, p.op, p.rhs)
            }
        })
        .collect();
    if two_tuple {
        build::binary(name, rel, preds, schema).expect("mined predicates are well-typed")
    } else {
        build::unary(name, rel, preds, schema).expect("mined predicates are well-typed")
    }
}

/// Canonical form of a binary predicate set for symmetry dedup: the
/// lexicographic minimum of the set and its `t ↔ t'` mirror.
fn canonical_key(set: &[MinePred]) -> Vec<(u16, u8, u16, bool)> {
    let ser = |s: &[MinePred]| -> Vec<(u16, u8, u16, bool)> {
        let mut v: Vec<(u16, u8, u16, bool)> = s
            .iter()
            .map(|p| (p.lhs.0, p.op as u8, p.rhs.0, p.two_tuple))
            .collect();
        v.sort();
        v
    };
    let direct = ser(set);
    if set.iter().all(|p| p.two_tuple) {
        let mirrored: Vec<MinePred> = set.iter().map(|p| p.swapped()).collect();
        let mirror = ser(&mirrored);
        direct.min(mirror)
    } else {
        direct
    }
}

/// Mines denial constraints over relation `rel`. Unary (single-tuple) and
/// binary (two-tuple) DCs are mined from their respective predicate
/// spaces and merged, ranked by score.
pub fn mine_dcs(db: &Database, rel: RelId, cfg: &MinerConfig) -> Vec<MinedDc> {
    let mut out = Vec::new();
    out.extend(mine_space(db, rel, cfg, false));
    out.extend(mine_space(db, rel, cfg, true));
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out.truncate(cfg.max_dcs);
    // Re-name in rank order for stable display.
    for (i, m) in out.iter_mut().enumerate() {
        let renamed = DenialConstraint::new(
            format!("mined_{i}"),
            m.dc.atoms.clone(),
            m.dc.predicates.clone(),
            db.schema(),
        )
        .expect("already validated");
        m.dc = renamed;
    }
    out
}

fn mine_space(db: &Database, rel: RelId, cfg: &MinerConfig, two_tuple: bool) -> Vec<MinedDc> {
    let preds = predicate_space(db, rel, cfg, two_tuple);
    if preds.is_empty() {
        return Vec::new();
    }
    let ids: Vec<_> = db.scan(rel).map(|f| f.id).collect();
    let n = ids.len();
    if n < 2 {
        return Vec::new();
    }

    // Sample: single tuples for the unary space, ordered pairs otherwise.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pairs: Vec<(usize, usize)> = if !two_tuple {
        (0..n).map(|i| (i, i)).collect()
    } else if n * (n - 1) <= cfg.max_pairs {
        let mut v = Vec::with_capacity(n * (n - 1));
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    v.push((i, j));
                }
            }
        }
        v
    } else {
        (0..cfg.max_pairs)
            .map(|_| {
                let i = rng.gen_range(0..n);
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                (i, j)
            })
            .collect()
    };
    let sample = pairs.len();

    // Evidence bitsets: one per predicate.
    let rows: Vec<&[Value]> = ids
        .iter()
        .map(|&t| db.fact(t).expect("scanned above").values)
        .collect();
    let mut bits: Vec<Bits> = vec![Bits::zeros(sample); preds.len()];
    for (s, &(i, j)) in pairs.iter().enumerate() {
        for (p, pred) in preds.iter().enumerate() {
            if pred.eval(rows[i], rows[j]) {
                bits[p].set(s);
            }
        }
    }

    let threshold = (cfg.epsilon * sample as f64).floor() as usize;
    let mut ctx = SearchCtx {
        preds: &preds,
        bits: &bits,
        sample,
        threshold,
        max_size: cfg.max_predicates,
        found: Vec::new(),
        cap: cfg.max_dcs * 8,
    };
    let init = Bits::ones(sample);
    ctx.dfs(0, &mut Vec::new(), &init, sample);

    // Symmetry dedup, full-data verification, scoring, conversion. The
    // sample only *proposes* candidates; each survivor is re-checked
    // against the whole relation (with early exit once the threshold is
    // exceeded), so an emitted DC's `violations` count is exact and an
    // `ε = 0` DC genuinely holds — sampling can otherwise miss rare pairs.
    let full_pairs = if two_tuple { n * (n - 1) / 2 } else { n };
    let full_threshold = (cfg.epsilon * full_pairs as f64).floor() as usize;
    let mut seen: HashSet<Vec<(u16, u8, u16, bool)>> = HashSet::new();
    let mut out = Vec::new();
    for (set, _sample_violations) in ctx.found {
        let mined: Vec<MinePred> = set.iter().map(|&i| preds[i]).collect();
        debug_assert!(
            well_formed(&mined),
            "DFS must enforce one predicate per column pair"
        );
        if !seen.insert(canonical_key(&mined)) {
            continue;
        }
        let dc = to_dc(rel, &mined, &format!("cand_{}", out.len()), db.schema());
        let mut distinct: HashSet<crate::ViolationSet> = HashSet::new();
        engine::for_each_violation(db, &dc, &mut |v: &[_]| {
            distinct.insert(v.to_vec().into_boxed_slice());
            if distinct.len() > full_threshold {
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        });
        if distinct.len() > full_threshold {
            continue;
        }
        let succinctness = 1.0 / set.len() as f64;
        let coverage = boundary_coverage(&set, &bits, sample);
        out.push(MinedDc {
            dc,
            violations: distinct.len(),
            sample_size: full_pairs,
            score: succinctness * coverage,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::set::ConstraintSet;
    use inconsist_relational::{relation, Fact, Schema};
    use std::sync::Arc;

    fn db_with<F: FnMut(usize) -> Vec<Value>>(
        attrs: &[(&str, ValueKind)],
        n: usize,
        mut row: F,
    ) -> (Arc<Schema>, RelId, Database) {
        let mut s = Schema::new();
        let r = s.add_relation(relation("R", attrs).unwrap()).unwrap();
        let s = Arc::new(s);
        let mut db = Database::new(Arc::clone(&s));
        for i in 0..n {
            db.insert(Fact::new(r, row(i))).unwrap();
        }
        (s, r, db)
    }

    fn contains_pred_set(mined: &[MinedDc], want: &[(u16, CmpOp, u16, bool)]) -> bool {
        mined.iter().any(|m| {
            if m.dc.predicates.len() != want.len() {
                return false;
            }
            want.iter().all(|(l, op, r, tt)| {
                m.dc.predicates.iter().any(|p| {
                    use crate::predicate::Operand;
                    let (Operand::Attr { var: v1, attr: a1 }, Operand::Attr { var: v2, attr: a2 }) =
                        (&p.lhs, &p.rhs)
                    else {
                        return false;
                    };
                    let is_tt = v1 != v2;
                    a1.0 == *l && p.op == *op && a2.0 == *r && is_tt == *tt
                })
            })
        })
    }

    #[test]
    fn planted_fd_is_recovered() {
        // B is a function of A: the FD A→B holds, i.e. the DC
        // ¬(t.A = t'.A ∧ t.B ≠ t'.B) must be mined.
        let (_, _, db) = db_with(&[("A", ValueKind::Int), ("B", ValueKind::Int)], 60, |i| {
            vec![Value::int((i % 7) as i64), Value::int((i % 7) as i64 * 10)]
        });
        let rel = RelId(0);
        let mined = mine_dcs(&db, rel, &MinerConfig::default());
        assert!(
            contains_pred_set(&mined, &[(0, CmpOp::Eq, 0, true), (1, CmpOp::Neq, 1, true)]),
            "FD-shaped DC missing from {:?}",
            mined
                .iter()
                .map(|m| format!("{}", m.dc.display(db.schema())))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn stock_shape_unary_dc_is_recovered() {
        // High ≥ Low always: the unary DC ¬(t.High < t.Low) must be mined.
        let (_, _, db) = db_with(
            &[("High", ValueKind::Int), ("Low", ValueKind::Int)],
            50,
            |i| {
                let low = (i % 13) as i64;
                vec![Value::int(low + 1 + (i % 3) as i64), Value::int(low)]
            },
        );
        let rel = RelId(0);
        let mined = mine_dcs(&db, rel, &MinerConfig::default());
        assert!(
            contains_pred_set(&mined, &[(0, CmpOp::Lt, 1, false)])
                || contains_pred_set(&mined, &[(1, CmpOp::Gt, 0, false)]),
            "order DC missing"
        );
    }

    #[test]
    fn exact_mined_dcs_hold_on_the_data() {
        let (s, r, db) = db_with(
            &[
                ("A", ValueKind::Int),
                ("B", ValueKind::Int),
                ("C", ValueKind::Int),
            ],
            40,
            |i| {
                vec![
                    Value::int((i % 5) as i64),
                    Value::int((i % 5) as i64 + 100),
                    Value::int((i * i % 11) as i64),
                ]
            },
        );
        let mined = mine_dcs(&db, r, &MinerConfig::default());
        assert!(!mined.is_empty());
        for m in &mined {
            assert_eq!(m.violations, 0, "exact mining must emit only holding DCs");
            let mut cs = ConstraintSet::new(Arc::clone(&s));
            cs.add_dc(m.dc.clone());
            assert!(
                engine::is_consistent(&db, &cs),
                "mined DC {} is violated",
                m.dc.display(&s)
            );
        }
    }

    #[test]
    fn approximate_mining_tolerates_noise() {
        // FD A→B with one dirty row out of 50.
        let (_, r, db) = db_with(&[("A", ValueKind::Int), ("B", ValueKind::Int)], 50, |i| {
            let b = if i == 0 { 999 } else { (i % 5) as i64 * 10 };
            vec![Value::int((i % 5) as i64), Value::int(b)]
        });
        let exact = mine_dcs(&db, r, &MinerConfig::default());
        assert!(
            !contains_pred_set(&exact, &[(0, CmpOp::Eq, 0, true), (1, CmpOp::Neq, 1, true)]),
            "dirty FD must not be mined exactly"
        );
        let approx = mine_dcs(
            &db,
            r,
            &MinerConfig {
                epsilon: 0.02,
                ..Default::default()
            },
        );
        assert!(
            contains_pred_set(
                &approx,
                &[(0, CmpOp::Eq, 0, true), (1, CmpOp::Neq, 1, true)]
            ),
            "approximate mining should recover the dirty FD"
        );
    }

    #[test]
    fn no_symmetric_duplicates() {
        let (_, r, db) = db_with(&[("A", ValueKind::Int), ("B", ValueKind::Int)], 30, |i| {
            vec![Value::int((i % 4) as i64), Value::int((i % 4) as i64)]
        });
        let mined = mine_dcs(&db, r, &MinerConfig::default());
        let mut keys = HashSet::new();
        for m in &mined {
            let set: Vec<MinePred> =
                m.dc.predicates
                    .iter()
                    .map(|p| {
                        use crate::predicate::Operand;
                        let (Operand::Attr { var: v1, attr: a1 }, Operand::Attr { attr: a2, .. }) =
                            (&p.lhs, &p.rhs)
                        else {
                            panic!("mined predicates are attr-attr")
                        };
                        let _ = v1;
                        MinePred {
                            lhs: *a1,
                            op: p.op,
                            rhs: *a2,
                            two_tuple: m.dc.arity() == 2,
                        }
                    })
                    .collect();
            assert!(
                keys.insert(canonical_key(&set)),
                "duplicate DC (up to symmetry)"
            );
        }
    }

    #[test]
    fn scores_are_ranked_and_bounded() {
        let (_, r, db) = db_with(&[("A", ValueKind::Int), ("B", ValueKind::Int)], 40, |i| {
            vec![Value::int((i % 6) as i64), Value::int((i % 6) as i64 * 2)]
        });
        let mined = mine_dcs(&db, r, &MinerConfig::default());
        for w in mined.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for m in &mined {
            assert!(m.score >= 0.0 && m.score <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn one_predicate_per_column_pair() {
        // Bodies like `= ∧ ≠` (vacuous) or `≤ ∧ ≥` (a redundant spelling
        // of `=`) must never be emitted: each column pair appears once.
        let (_, r, db) = db_with(&[("A", ValueKind::Int), ("B", ValueKind::Int)], 30, |i| {
            vec![Value::int((i % 4) as i64), Value::int((i % 7) as i64)]
        });
        let mined = mine_dcs(&db, r, &MinerConfig::default());
        for m in &mined {
            let set: Vec<MinePred> =
                m.dc.predicates
                    .iter()
                    .map(|p| {
                        use crate::predicate::Operand;
                        let (Operand::Attr { attr: a1, .. }, Operand::Attr { attr: a2, .. }) =
                            (&p.lhs, &p.rhs)
                        else {
                            panic!()
                        };
                        MinePred {
                            lhs: *a1,
                            op: p.op,
                            rhs: *a2,
                            two_tuple: m.dc.arity() == 2,
                        }
                    })
                    .collect();
            assert!(
                well_formed(&set),
                "ill-formed DC emitted: {}",
                m.dc.display(db.schema())
            );
        }
    }

    #[test]
    fn empty_and_tiny_relations() {
        let (_, r, db) = db_with(&[("A", ValueKind::Int)], 0, |_| vec![Value::int(0)]);
        assert!(mine_dcs(&db, r, &MinerConfig::default()).is_empty());
        let (_, r1, db1) = db_with(&[("A", ValueKind::Int)], 1, |_| vec![Value::int(0)]);
        assert!(mine_dcs(&db1, r1, &MinerConfig::default()).is_empty());
    }
}
