//! Violation detection — the workspace's stand-in for the paper's SQL
//! engine (§6.1: "Using SQL, we materialize all conflicting pairs of
//! tuples").
//!
//! For every DC the engine enumerates *violations*: sets of tuples whose
//! joint existence falsifies the constraint. The entry points layer on top
//! of a single streaming enumerator:
//!
//! * [`is_consistent`] — early-exits on the first violation;
//! * [`minimal_inconsistent_subsets`] — `MI_Σ(D)` of §3, globally deduped
//!   and filtered to inclusion-minimal sets;
//! * [`violations_per_dc`] — the `(F, σ)` "minimal violation" pairs of
//!   §5.3 (one entry per constraint);
//! * [`violations_involving`] — minimal violations touching one tuple,
//!   used by cleaners; incremental measure updates use the raw
//!   [`delta_violations_involving`] instead, which runs the same pinned
//!   probe without the minimality filter.
//!
//! # Execution plans
//!
//! Unary DCs scan; binary DCs hash-join on their equality predicates
//! (symmetric DCs enumerate each unordered pair once); DCs of arity ≥ 3
//! run a backtracking index join over the database's persistent column
//! postings ([`Database::postings`]). Pinned probes — one tuple fixed at
//! one atom, the delta of a write — run the same index join at every
//! arity: the pinned atom is bound first, each later level binds an atom
//! an equality predicate links to a bound one and reads that key's
//! postings bucket, and each predicate is checked at the level where its
//! last variable is bound. A probe thus visits the tuples its keys match,
//! not the relation; only a level no equality links to scans. The
//! `engine_pinned_candidates_total` metric counts the candidates pinned
//! probes visit.
//!
//! All joins run over the *dictionary-encoded* columns of the database
//! (see `inconsist_relational::Dictionary`): equality keys are packed
//! `u32` codes (code equality ⇔ value equality, so an FD join never hashes
//! a string), and `<`/`>` cross predicates on a shared column compare
//! order-preserving ranks instead of values. The historical value-keyed
//! implementation is retained in [`value_keyed`] as the reference: debug
//! builds cross-check full enumerations against it, and the benchmark
//! suite compares the two.
//!
//! # Limits
//!
//! Every enumerating entry point takes `limit: Option<usize>` — a *global*
//! budget on the raw falsifying bindings examined across the whole call
//! (all constraints together), guarding against quadratic conflict
//! blowups. This is the single definition of limit semantics;
//! [`minimal_inconsistent_subsets`], [`violations_per_dc`] and the
//! parallel enumerator in [`crate::parallel`] all implement it. Hitting
//! the budget is reported through `complete = false` on the affected
//! result (for [`violations_per_dc`], the constraint that exhausted the
//! budget and every later constraint); the sets returned are then a
//! prefix of the truth — still genuine violations, but minimality is only
//! guaranteed relative to what was seen. Callers that need per-constraint
//! coverage instead of a shared pool use [`violations_of_dc`] once per
//! constraint.

use crate::codekey::PackedKeyMap;
use crate::dc::DenialConstraint;
use crate::predicate::{CmpOp, Operand, Predicate};
use crate::set::ConstraintSet;
use inconsist_relational::{
    AttrId, Database, Dictionary, FactRef, RelId, SmallVec, TupleId, Value,
};
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::Arc;

/// A violation: the distinct tuples of one falsifying binding, sorted.
pub type ViolationSet = Box<[TupleId]>;

/// Result of minimal-inconsistent-subset enumeration.
#[derive(Clone, Debug)]
pub struct MiResult {
    /// The inclusion-minimal inconsistent subsets, each sorted, deduped
    /// across constraints.
    pub subsets: Vec<ViolationSet>,
    /// `false` when enumeration stopped at the caller's limit; the subsets
    /// are then a prefix of the real `MI_Σ(D)` (still all genuine
    /// violations, but minimality is only guaranteed relative to what was
    /// seen).
    pub complete: bool,
}

impl MiResult {
    /// `|MI_Σ(D)|` — the value of the measure `I_MI`.
    pub fn count(&self) -> usize {
        self.subsets.len()
    }

    /// `∪ MI_Σ(D)` — the problematic tuples of the measure `I_P`.
    pub fn participants(&self) -> std::collections::BTreeSet<TupleId> {
        self.subsets
            .iter()
            .flat_map(|s| s.iter().copied())
            .collect()
    }

    /// Tuples that are inconsistent on their own (singleton subsets) — the
    /// "contradictory tuples" counted by `I′_MC`.
    pub fn self_inconsistent(&self) -> Vec<TupleId> {
        self.subsets
            .iter()
            .filter(|s| s.len() == 1)
            .map(|s| s[0])
            .collect()
    }
}

/// Violations of one DC, as `(F, σ)` pairs with `σ` fixed.
#[derive(Clone, Debug)]
pub struct DcViolations {
    /// Index of the DC within the [`ConstraintSet`].
    pub dc: usize,
    /// Minimal falsifying tuple sets for this constraint alone.
    pub sets: Vec<ViolationSet>,
    /// Whether enumeration ran to completion (see the module-level
    /// *Limits* section: the budget is global, so a constraint may be
    /// incomplete because earlier constraints exhausted it).
    pub complete: bool,
}

/// Decides `D |= Σ`.
pub fn is_consistent(db: &Database, cs: &ConstraintSet) -> bool {
    for dc in cs.dcs() {
        let mut found = false;
        for_each_violation(db, dc, &mut |_set| {
            found = true;
            ControlFlow::Break(())
        });
        if found {
            return false;
        }
    }
    true
}

/// Enumerates `MI_Σ(D)`: all inclusion-minimal inconsistent subsets, deduped
/// across constraints. `limit` is the global raw-violation budget described
/// in the module-level *Limits* section.
///
/// # Examples
///
/// The FD `A → B` (a symmetric binary DC) on three facts:
///
/// ```
/// use inconsist_constraints::{engine, ConstraintSet, Fd};
/// use inconsist_relational::{relation, AttrId, Database, Fact, Schema, Value, ValueKind};
/// use std::sync::Arc;
///
/// let mut s = Schema::new();
/// let r = s
///     .add_relation(relation("R", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
///     .unwrap();
/// let s = Arc::new(s);
/// let mut db = Database::new(Arc::clone(&s));
/// let t0 = db.insert(Fact::new(r, [Value::int(1), Value::int(1)])).unwrap();
/// let t1 = db.insert(Fact::new(r, [Value::int(1), Value::int(2)])).unwrap();
/// db.insert(Fact::new(r, [Value::int(2), Value::int(2)])).unwrap();
/// let mut cs = ConstraintSet::new(Arc::clone(&s));
/// cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)])); // A → B
///
/// let mi = engine::minimal_inconsistent_subsets(&db, &cs, None);
/// assert!(mi.complete);
/// assert_eq!(mi.subsets, vec![vec![t0, t1].into_boxed_slice()]);
/// assert_eq!(mi.count(), 1); // the value of I_MI
/// ```
pub fn minimal_inconsistent_subsets(
    db: &Database,
    cs: &ConstraintSet,
    limit: Option<usize>,
) -> MiResult {
    let result = minimal_inconsistent_subsets_impl(db, cs, limit);
    #[cfg(debug_assertions)]
    debug_check_against_value_keyed(db, cs, &result, limit);
    result
}

fn minimal_inconsistent_subsets_impl(
    db: &Database,
    cs: &ConstraintSet,
    limit: Option<usize>,
) -> MiResult {
    let mut seen: HashSet<ViolationSet> = HashSet::new();
    let mut budget = limit.unwrap_or(usize::MAX);
    let mut complete = true;
    for dc in cs.dcs() {
        for_each_violation(db, dc, &mut |set: &[TupleId]| {
            if budget == 0 {
                complete = false;
                return ControlFlow::Break(());
            }
            budget -= 1;
            seen.insert(set.to_vec().into_boxed_slice());
            ControlFlow::Continue(())
        });
        if !complete {
            break;
        }
    }
    MiResult {
        subsets: filter_minimal(seen),
        complete,
    }
}

/// Per-constraint minimal violations `(F, σ)` (§5.3): like
/// [`minimal_inconsistent_subsets`] but without cross-constraint dedup, so
/// the same tuple set may appear under several constraints. `limit` is the
/// same *global* budget (module-level *Limits* section): one pool shared by
/// all constraints, not a per-constraint allowance.
pub fn violations_per_dc(
    db: &Database,
    cs: &ConstraintSet,
    limit: Option<usize>,
) -> Vec<DcViolations> {
    let mut out = Vec::with_capacity(cs.len());
    let mut budget = limit.unwrap_or(usize::MAX);
    let mut truncated = false;
    for (i, dc) in cs.dcs().iter().enumerate() {
        if truncated {
            // The global budget is spent: later constraints get empty,
            // incomplete entries without paying for their enumeration
            // (that is the entire point of the budget).
            out.push(DcViolations {
                dc: i,
                sets: Vec::new(),
                complete: false,
            });
            continue;
        }
        let mut seen: HashSet<ViolationSet> = HashSet::new();
        for_each_violation(db, dc, &mut |set: &[TupleId]| {
            if budget == 0 {
                truncated = true;
                return ControlFlow::Break(());
            }
            budget -= 1;
            seen.insert(set.to_vec().into_boxed_slice());
            ControlFlow::Continue(())
        });
        out.push(DcViolations {
            dc: i,
            sets: filter_minimal(seen),
            complete: !truncated,
        });
    }
    out
}

/// Minimal violations of a *single* constraint under its own budget.
///
/// The escape hatch from the global-budget semantics of
/// [`violations_per_dc`]: callers that need guaranteed coverage of every
/// constraint (error detectors walking cells per DC) call this once per
/// constraint, paying `limit` raw bindings *each* instead of sharing one
/// pool. Returns the minimality-filtered sets and whether enumeration ran
/// to completion.
pub fn violations_of_dc(
    db: &Database,
    dc: &DenialConstraint,
    limit: Option<usize>,
) -> (Vec<ViolationSet>, bool) {
    let mut seen: HashSet<ViolationSet> = HashSet::new();
    let mut budget = limit.unwrap_or(usize::MAX);
    let mut complete = true;
    for_each_violation(db, dc, &mut |set: &[TupleId]| {
        if budget == 0 {
            complete = false;
            return ControlFlow::Break(());
        }
        budget -= 1;
        seen.insert(set.to_vec().into_boxed_slice());
        ControlFlow::Continue(())
    });
    (filter_minimal(seen), complete)
}

/// All minimal violations that include tuple `tid` (deduped across
/// constraints; each is minimal for its own constraint).
pub fn violations_involving(db: &Database, cs: &ConstraintSet, tid: TupleId) -> Vec<ViolationSet> {
    let Some(fact) = db.fact(tid) else {
        return Vec::new();
    };
    let mut seen: HashSet<ViolationSet> = HashSet::new();
    for dc in cs.dcs() {
        for (atom_idx, atom) in dc.atoms.iter().enumerate() {
            if atom.rel != fact.rel {
                continue;
            }
            let _ = enumerate_fixed(db, dc, atom_idx, tid, &mut |set: &[TupleId]| {
                seen.insert(set.to_vec().into_boxed_slice());
                ControlFlow::Continue(())
            });
        }
    }
    filter_minimal(seen)
}

/// The violation delta of one repairing operation: every raw falsifying
/// binding involving the probed tuple.
///
/// Incremental maintainers map a repair op to the set of *dirty* conflict
/// components: the tuples of the delta sets are exactly the nodes whose
/// components the delta can affect, and its constraint indices are the
/// constraints whose per-DC aggregates (e.g. `I_MI^dc` counts) may need
/// invalidation.
#[derive(Clone, Debug, Default)]
pub struct DeltaViolations {
    /// `(constraint index, violation set)` pairs, deduped per constraint
    /// but *not* filtered for minimality (callers maintaining indexes
    /// combine them with previously known sets before filtering).
    pub per_dc: Vec<(usize, ViolationSet)>,
}

/// Computes the violation delta of inserting (or re-probing) tuple `tid`:
/// the raw falsifying bindings of each DC that include it. Binary
/// symmetric DCs probe the fixed tuple at one atom only — the other
/// position yields the same unordered sets.
pub fn delta_violations_involving(
    db: &Database,
    cs: &ConstraintSet,
    tid: TupleId,
) -> DeltaViolations {
    let mut per_dc = Vec::new();
    let Some(fact) = db.fact(tid) else {
        return DeltaViolations { per_dc };
    };
    for (dc_idx, dc) in cs.dcs().iter().enumerate() {
        let mut seen: HashSet<ViolationSet> = HashSet::new();
        let symmetric_binary = dc.arity() == 2 && dc.is_symmetric();
        for (atom_idx, atom) in dc.atoms.iter().enumerate() {
            if atom.rel != fact.rel {
                continue;
            }
            if symmetric_binary && atom_idx == 1 {
                continue;
            }
            let _ = enumerate_fixed(db, dc, atom_idx, tid, &mut |set: &[TupleId]| {
                seen.insert(set.to_vec().into_boxed_slice());
                ControlFlow::Continue(())
            });
        }
        per_dc.extend(seen.into_iter().map(|s| (dc_idx, s)));
    }
    DeltaViolations { per_dc }
}

/// Keeps only inclusion-minimal sets. Exposed for callers (incremental
/// indexes, custom measures) that maintain raw violation sets themselves.
/// The output is in `(len, members)` order: [`filter_minimal_sorted`] on
/// the sorted input.
pub fn filter_minimal(seen: HashSet<ViolationSet>) -> Vec<ViolationSet> {
    let mut sets: Vec<ViolationSet> = seen.into_iter().collect();
    sets.sort_unstable_by(|a, b| by_len_then_members(a, b));
    filter_minimal_sorted(sets)
}

/// The `(len, members)` order of violation sets.
fn by_len_then_members(a: &[TupleId], b: &[TupleId]) -> std::cmp::Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

/// Keeps only the inclusion-minimal sets of `sets`: distinct sets of sorted
/// tuple ids, in `(len, members)` order (what the conflict graph's
/// `DynamicConflictGraph::component_sets` lists). The output keeps that
/// order.
///
/// A set is minimal iff no proper subset of it was accepted before it,
/// and every accepted set shorter than it lies in the accepted prefix
/// sorted the same way: each proper subset is one binary search there,
/// into one reused scratch buffer. Sets no longer than every accepted one
/// (the singletons, or the first length present) probe nothing.
pub fn filter_minimal_sorted(sets: Vec<ViolationSet>) -> Vec<ViolationSet> {
    debug_assert!(sets
        .windows(2)
        .all(|p| by_len_then_members(&p[0], &p[1]).is_lt()));
    let mut out: Vec<ViolationSet> = Vec::with_capacity(sets.len());
    // `out[..shorter]`: the accepted sets shorter than the current one.
    let (mut shorter, mut len) = (0, 0);
    let mut scratch: Vec<TupleId> = Vec::new();
    'outer: for set in sets {
        if set.len() != len {
            (shorter, len) = (out.len(), set.len());
        }
        if shorter > 0 {
            // Arities are tiny (≤ 4 in practice), so checking every proper
            // subset against the accepted prefix is cheap and exact.
            for mask in 1..(1u32 << set.len()) - 1 {
                scratch.clear();
                scratch.extend(
                    set.iter()
                        .enumerate()
                        .filter(|&(i, _)| mask & (1 << i) != 0)
                        .map(|(_, &t)| t),
                );
                if out[..shorter]
                    .binary_search_by(|s| by_len_then_members(s, &scratch))
                    .is_ok()
                {
                    continue 'outer;
                }
            }
        }
        out.push(set);
    }
    out
}

/// Sorted distinct tuple ids of one binding.
fn binding_set(ids: &[TupleId]) -> Vec<TupleId> {
    let mut v = ids.to_vec();
    v.sort();
    v.dedup();
    v
}

/// Warms the lazy per-column rank tables every order predicate of `cs`
/// compares through, so concurrent readers (the parallel enumerator's
/// workers) never contend on the rebuild lock.
pub fn warm_rank_tables(db: &Database, cs: &ConstraintSet) {
    for dc in cs.dcs() {
        for p in &dc.predicates {
            if !p.op.is_order() {
                continue;
            }
            if let (Operand::Attr { var: v1, attr: a1 }, Operand::Attr { var: v2, attr: a2 }) =
                (&p.lhs, &p.rhs)
            {
                if a1 == a2 && dc.atoms[*v1].rel == dc.atoms[*v2].rel {
                    let _ = db.dictionary(dc.atoms[*v1].rel, *a1).ranks();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming enumerator (code-keyed)
// ---------------------------------------------------------------------------

/// Invokes `cb` on each violation (sorted distinct tuple-id set) of `dc`.
/// Binary symmetric DCs report each unordered pair exactly once; other
/// shapes may repeat a set — callers dedup.
pub fn for_each_violation(
    db: &Database,
    dc: &DenialConstraint,
    cb: &mut dyn FnMut(&[TupleId]) -> ControlFlow<()>,
) {
    match dc.arity() {
        1 => {
            let _ = enumerate_unary(db, dc, None, cb);
        }
        2 => {
            let _ = enumerate_binary(db, dc, None, cb);
        }
        _ => {
            let _ = enumerate_generic(db, dc, cb);
        }
    }
}

/// One data shard of a violation enumeration (see the sharding design in
/// [`crate::parallel`]'s module docs).
///
/// `probe` restricts the *probe side* — the scan positions of atom 0's
/// relation that this shard enumerates bindings from. Every tuple belongs
/// to exactly one shard of a partition, so the union of per-shard
/// enumerations over a full partition visits every raw binding exactly as
/// often as the unsharded enumerator does (and per-shard reflexive scans
/// visit each tuple once).
///
/// `build` optionally restricts the *build side* of a binary hash join to
/// the same co-partitioned position set. This is only sound when the
/// partition is keyed on the DC's shared-column equality attributes
/// ([`copartition_attrs`]): joining pairs then agree on the partition key
/// codes and land in the same shard. `None` broadcasts the full build
/// relation — always correct, used for order-only predicates, wide-key
/// partitions, and multi-relation DCs.
#[derive(Clone, Copy, Debug)]
pub struct ShardScope<'a> {
    /// Probe-side scan positions (into atom 0's relation, in
    /// [`Database::scan`] order).
    pub probe: &'a [u32],
    /// Co-partitioned build-side scan positions, or `None` to broadcast
    /// the full build relation. Requires a binary self-join DC.
    pub build: Option<&'a [u32]>,
}

/// Shard-scoped [`for_each_violation`]: enumerates only the bindings whose
/// atom-0 tuple lies in `scope.probe` (plans per arity as the unsharded
/// path does). Given a partition of atom 0's relation into disjoint
/// shards, the per-shard result sets union to the unsharded result —
/// bit-identical after the caller's dedup, which is what lets
/// [`crate::parallel`] merge shards under one global budget.
pub fn for_each_violation_sharded(
    db: &Database,
    dc: &DenialConstraint,
    scope: ShardScope<'_>,
    cb: &mut dyn FnMut(&[TupleId]) -> ControlFlow<()>,
) {
    match dc.arity() {
        1 => {
            let _ = enumerate_unary(db, dc, Some(scope.probe), cb);
        }
        2 => {
            let _ = enumerate_binary(db, dc, Some(&scope), cb);
        }
        _ => {
            // Arity ≥ 3: pin atom 0 to each probe tuple in turn; levels
            // 1.. run the usual backtracking index join over the full
            // relations, so only the outermost variable is sharded.
            let ids = db.ids_of(dc.atoms[0].rel);
            for &pos in scope.probe {
                if enumerate_fixed(db, dc, 0, ids[pos as usize], cb).is_break() {
                    return;
                }
            }
        }
    }
}

/// The shared-column equality-key attributes of a binary self-join DC —
/// the columns a data partitioner may hash-partition tuples on such that
/// co-violating pairs land in the same shard ([`ShardScope::build`]).
/// Returns `None` when no such key exists (order-only DCs, cross-column or
/// cross-relation keys, arity ≠ 2): those shapes must broadcast the build
/// side.
pub fn copartition_attrs(dc: &DenialConstraint) -> Option<Vec<AttrId>> {
    if !dc.is_binary_same_relation() {
        return None;
    }
    let plan = plan_binary(dc);
    let attrs: Vec<AttrId> = plan
        .eq_keys
        .iter()
        .filter(|(a, b)| a == b)
        .map(|&(a, _)| a)
        .collect();
    (!attrs.is_empty()).then_some(attrs)
}

/// Either-style iterator so [`scoped_facts`] stays statically dispatched:
/// the unsharded arm is the same monomorphized scan loop the sequential
/// engine always ran (no boxing in the hot path).
enum ScopedFacts<S, F> {
    Shard(S),
    Full(F),
}

impl<T, S: Iterator<Item = T>, F: Iterator<Item = T>> Iterator for ScopedFacts<S, F> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        match self {
            ScopedFacts::Shard(s) => s.next(),
            ScopedFacts::Full(f) => f.next(),
        }
    }
}

/// `(scan position, fact)` pairs of `rel`: the shard at `positions` when
/// given, the full dense scan otherwise.
fn scoped_facts<'a>(
    db: &'a Database,
    rel: RelId,
    positions: Option<&'a [u32]>,
) -> impl Iterator<Item = (usize, FactRef<'a>)> + 'a {
    match positions {
        Some(ps) => ScopedFacts::Shard(db.shard_view(rel, ps).facts()),
        None => ScopedFacts::Full(db.scan(rel).enumerate()),
    }
}

fn enumerate_unary(
    db: &Database,
    dc: &DenialConstraint,
    probe: Option<&[u32]>,
    cb: &mut dyn FnMut(&[TupleId]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let rel = dc.atoms[0].rel;
    for (_, f) in scoped_facts(db, rel, probe) {
        if dc.forbidden(&[f.values]) {
            cb(&[f.id])?;
        }
    }
    ControlFlow::Continue(())
}

/// Predicate classification for the binary plan.
struct BinaryPlan<'a> {
    /// `t[A] = t'[B]` join keys as `(A, B)` pairs.
    eq_keys: Vec<(AttrId, AttrId)>,
    /// Predicates mentioning only `t`.
    t_only: Vec<&'a Predicate>,
    /// Predicates mentioning only `t'`.
    tp_only: Vec<&'a Predicate>,
    /// Remaining cross predicates, checked per candidate pair.
    rest: Vec<&'a Predicate>,
    /// A constant-only predicate evaluated to `false` makes the DC vacuous.
    vacuous: bool,
}

fn plan_binary(dc: &DenialConstraint) -> BinaryPlan<'_> {
    let mut plan = BinaryPlan {
        eq_keys: Vec::new(),
        t_only: Vec::new(),
        tp_only: Vec::new(),
        rest: Vec::new(),
        vacuous: false,
    };
    for p in &dc.predicates {
        let mut vars: Vec<usize> = p.vars().collect();
        vars.sort();
        vars.dedup();
        match vars.as_slice() {
            [] => {
                let (Operand::Const(a), Operand::Const(b)) = (&p.lhs, &p.rhs) else {
                    unreachable!("no vars means both operands are constants")
                };
                if !p.op.eval(a, b) {
                    plan.vacuous = true;
                }
            }
            [0] => plan.t_only.push(p),
            [1] => plan.tp_only.push(p),
            _ => {
                if p.op == CmpOp::Eq {
                    match (&p.lhs, &p.rhs) {
                        (Operand::Attr { var: 0, attr: a }, Operand::Attr { var: 1, attr: b }) => {
                            plan.eq_keys.push((*a, *b));
                            continue;
                        }
                        (Operand::Attr { var: 1, attr: b }, Operand::Attr { var: 0, attr: a }) => {
                            plan.eq_keys.push((*a, *b));
                            continue;
                        }
                        _ => {}
                    }
                }
                plan.rest.push(p);
            }
        }
    }
    plan
}

fn passes(preds: &[&Predicate], binding: &[&[Value]]) -> bool {
    preds.iter().all(|p| p.eval(binding))
}

/// A cross predicate of a binary DC, compiled against the encoded columns.
///
/// When both sides read the *same* `(relation, attribute)` column — the
/// dominant case: FD inequality and dominance order predicates — the
/// comparison runs on `u32` codes (equality) or order-preserving ranks
/// (order), indexed by dense scan position. Anything else falls back to
/// evaluating the original predicate on the value rows.
enum PairPred<'a> {
    /// `t[A] op t'[A]` on a shared column: compare codes/ranks.
    Code {
        /// The shared code column.
        col: &'a [u32],
        /// Order-preserving ranks (empty for pure equality comparisons,
        /// which compare codes directly).
        ranks: Arc<[u32]>,
        op: CmpOp,
    },
    /// Fallback: evaluate on the value rows.
    Value(&'a Predicate),
}

impl PairPred<'_> {
    /// Evaluates against positions `(i, j)` of `(t, t')` with value rows
    /// `(row_t, row_tp)`.
    #[inline]
    fn eval(&self, i: usize, j: usize, row_t: &[Value], row_tp: &[Value]) -> bool {
        match self {
            PairPred::Code { col, ranks, op } => match op {
                CmpOp::Eq => col[i] == col[j],
                CmpOp::Neq => col[i] != col[j],
                CmpOp::Lt => ranks[col[i] as usize] < ranks[col[j] as usize],
                CmpOp::Leq => ranks[col[i] as usize] <= ranks[col[j] as usize],
                CmpOp::Gt => ranks[col[i] as usize] > ranks[col[j] as usize],
                CmpOp::Geq => ranks[col[i] as usize] >= ranks[col[j] as usize],
            },
            PairPred::Value(p) => p.eval(&[row_t, row_tp]),
        }
    }
}

/// Compiles the `rest` predicates of a binary plan; see [`PairPred`].
fn compile_pair_preds<'a>(
    db: &'a Database,
    rel_t: RelId,
    rel_tp: RelId,
    rest: &[&'a Predicate],
) -> Vec<PairPred<'a>> {
    rest.iter()
        .map(|&p| {
            // Canonicalize to `t[A] op t'[B]`.
            let (a, op, b) = match (&p.lhs, &p.rhs) {
                (Operand::Attr { var: 0, attr: a }, Operand::Attr { var: 1, attr: b }) => {
                    (*a, p.op, *b)
                }
                (Operand::Attr { var: 1, attr: b }, Operand::Attr { var: 0, attr: a }) => {
                    (*a, p.op.flip(), *b)
                }
                _ => return PairPred::Value(p),
            };
            if rel_t == rel_tp && a == b {
                let ranks = if op.is_order() {
                    db.dictionary(rel_t, a).ranks()
                } else {
                    Arc::from([] as [u32; 0])
                };
                PairPred::Code {
                    col: db.codes(rel_t, a),
                    ranks,
                    op,
                }
            } else {
                PairPred::Value(p)
            }
        })
        .collect()
}

/// Hash table of a code-keyed binary join: build-side scan positions
/// bucketed by packed code key (see [`crate::codekey::PackedKeyMap`] for
/// the shared packing scheme).
type CodeTable = PackedKeyMap<SmallVec<u32>>;

fn enumerate_binary(
    db: &Database,
    dc: &DenialConstraint,
    scope: Option<&ShardScope<'_>>,
    cb: &mut dyn FnMut(&[TupleId]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let plan = plan_binary(dc);
    if plan.vacuous {
        return ControlFlow::Continue(());
    }
    let rel_t = dc.atoms[0].rel;
    let rel_tp = dc.atoms[1].rel;
    let same_rel = rel_t == rel_tp;
    let probe_pos = scope.map(|s| s.probe);
    let build_pos = scope.and_then(|s| s.build);
    debug_assert!(
        build_pos.is_none() || same_rel,
        "co-partitioned build sides require a self-join (see ShardScope)"
    );

    // Reflexive bindings t = t' (paper: "it may be the case that t = t′").
    // Probe-side rows only, so a partition checks each tuple exactly once.
    if same_rel {
        for (_, f) in scoped_facts(db, rel_t, probe_pos) {
            if dc.forbidden(&[f.values, f.values]) {
                cb(&[f.id])?;
            }
        }
    }

    let symmetric = same_rel && dc.is_symmetric();
    let pair_preds = compile_pair_preds(db, rel_t, rel_tp, &plan.rest);
    let eval_pair = |i: usize, a: &FactRef<'_>, j: usize, b: &FactRef<'_>| {
        pair_preds.iter().all(|p| p.eval(i, j, a.values, b.values))
    };

    if plan.eq_keys.is_empty() {
        // No equality key: filtered nested loop over scan positions.
        let left: Vec<(usize, FactRef<'_>)> = scoped_facts(db, rel_t, probe_pos)
            .filter(|(_, f)| passes(&plan.t_only, &[f.values, f.values]))
            .collect();
        let right: Vec<(usize, FactRef<'_>)> = scoped_facts(db, rel_tp, build_pos)
            .filter(|(_, f)| passes(&plan.tp_only, &[f.values, f.values]))
            .collect();
        for &(i, ref a) in &left {
            for &(j, ref b) in &right {
                if a.id == b.id {
                    continue;
                }
                if symmetric && a.id > b.id {
                    continue;
                }
                if eval_pair(i, a, j, b) {
                    let set = binding_set(&[a.id, b.id]);
                    cb(&set)?;
                }
            }
        }
        return ControlFlow::Continue(());
    }

    // Hash join on the equality keys: build on the t' side, probe from t.
    // Build keys are the t' column codes; probe keys reuse the same codes
    // when probe and build read the same column, and otherwise translate
    // the probe value through the build column's dictionary (one hash, no
    // allocation — a miss proves the absence of any join partner).
    enum ProbeComp<'a> {
        Shared(&'a [u32]),
        Translate { attr: AttrId, dict: &'a Dictionary },
    }
    let build_cols: Vec<&[u32]> = plan
        .eq_keys
        .iter()
        .map(|&(_, b)| db.codes(rel_tp, b))
        .collect();
    let probe_comps: Vec<ProbeComp<'_>> = plan
        .eq_keys
        .iter()
        .map(|&(a, b)| {
            if same_rel && a == b {
                ProbeComp::Shared(db.codes(rel_t, a))
            } else {
                ProbeComp::Translate {
                    attr: a,
                    dict: db.dictionary(rel_tp, b),
                }
            }
        })
        .collect();

    let mut table = CodeTable::with_key_width(plan.eq_keys.len());
    let mut key_buf: Vec<u32> = Vec::with_capacity(plan.eq_keys.len());
    for (j, f) in scoped_facts(db, rel_tp, build_pos) {
        if !passes(&plan.tp_only, &[f.values, f.values]) {
            continue;
        }
        key_buf.clear();
        key_buf.extend(build_cols.iter().map(|col| col[j]));
        table.bucket_mut(&key_buf).push(j as u32);
    }

    'probe: for (i, f) in scoped_facts(db, rel_t, probe_pos) {
        if !passes(&plan.t_only, &[f.values, f.values]) {
            continue;
        }
        key_buf.clear();
        for comp in &probe_comps {
            match comp {
                ProbeComp::Shared(col) => key_buf.push(col[i]),
                ProbeComp::Translate { attr, dict } => {
                    match dict.code(&f.values[attr.idx()]) {
                        Some(code) => key_buf.push(code),
                        // Value never stored on the build side: no partner.
                        None => continue 'probe,
                    }
                }
            }
        }
        let Some(bucket) = table.get(&key_buf) else {
            continue;
        };
        for &j in bucket {
            // Buckets hold absolute scan positions, so pair predicates and
            // fact lookups work identically under any build scope.
            let other = db.fact_at(rel_tp, j as usize);
            if other.id == f.id {
                continue; // reflexive bindings handled above
            }
            if symmetric && f.id > other.id {
                continue;
            }
            if eval_pair(i, &f, j as usize, &other) {
                let set = binding_set(&[f.id, other.id]);
                cb(&set)?;
            }
        }
    }
    ControlFlow::Continue(())
}

/// Binding plan of the backtracking index join: the order tuple
/// variables are bound in, the predicates checked at each level, and the
/// equality link each level probes its candidates through.
struct JoinPlan<'a> {
    /// `order[level]` is the variable bound at `level`.
    order: Vec<usize>,
    /// Predicates whose last variable (in binding order) is bound at each
    /// level; constant-only predicates sit at level 0.
    by_level: Vec<Vec<&'a Predicate>>,
    /// Per level, `(attr of the new variable, earlier variable, its attr)`
    /// of an equality predicate linking the level to an already bound
    /// variable: candidates come from that column's postings bucket.
    /// `None` scans the whole relation.
    probes: Vec<Option<(AttrId, usize, AttrId)>>,
}

/// The equality links `(u, a, v, b)` of `p` (`t_u[a] = t_v[b]`, `u ≠ v`),
/// in both orientations.
fn eq_links(p: &Predicate) -> Option<[(usize, AttrId, usize, AttrId); 2]> {
    match (p.op, &p.lhs, &p.rhs) {
        (CmpOp::Eq, Operand::Attr { var: u, attr: a }, Operand::Attr { var: v, attr: b })
            if u != v =>
        {
            Some([(*u, *a, *v, *b), (*v, *b, *u, *a)])
        }
        _ => None,
    }
}

/// Plans the join with variable `first` bound at level 0 — the pinned
/// atom of a delta probe, or atom 0 of a full enumeration. Each later
/// level binds the lowest-numbered unbound variable that an equality
/// predicate links to a bound one (so it probes a postings bucket), and
/// only when none is linked the lowest-numbered unbound variable (a scan).
fn plan_join(dc: &DenialConstraint, first: usize) -> JoinPlan<'_> {
    let n = dc.arity();
    let linked = |bound: &[usize], var: usize| {
        dc.predicates.iter().filter_map(eq_links).any(|links| {
            links
                .iter()
                .any(|&(u, _, v, _)| u == var && bound.contains(&v))
        })
    };
    let mut order = vec![first];
    while order.len() < n {
        let unbound = (0..n).filter(|v| !order.contains(v));
        let next = unbound
            .clone()
            .find(|&v| linked(&order, v))
            .or_else(|| unbound.min())
            .expect("an unbound variable remains");
        order.push(next);
    }
    let mut level_of = vec![0; n];
    for (level, &var) in order.iter().enumerate() {
        level_of[var] = level;
    }
    let mut by_level: Vec<Vec<&Predicate>> = vec![Vec::new(); n];
    for p in &dc.predicates {
        by_level[p.vars().map(|v| level_of[v]).max().unwrap_or(0)].push(p);
    }
    let probes = (0..n)
        .map(|level| {
            by_level[level]
                .iter()
                .filter_map(|p| eq_links(p))
                .flatten()
                .find(|&(u, _, v, _)| u == order[level] && level_of[v] < level)
                .map(|(_, here, v, there)| (here, v, there))
        })
        .collect();
    JoinPlan {
        order,
        by_level,
        probes,
    }
}

/// State of one backtracking index join over the database's postings.
struct Join<'a, 'c> {
    db: &'a Database,
    dc: &'a DenialConstraint,
    plan: JoinPlan<'a>,
    /// Tuples bound so far, in binding order.
    ids: Vec<TupleId>,
    /// Bound rows indexed by variable (unbound variables hold an empty
    /// row no predicate of a reached level reads).
    rows: Vec<&'a [Value]>,
    /// Candidates visited at levels ≥ 1 (bucket entries or scanned rows).
    visited: u64,
    cb: &'c mut dyn FnMut(&[TupleId]) -> ControlFlow<()>,
}

impl<'a, 'c> Join<'a, 'c> {
    fn new(
        db: &'a Database,
        dc: &'a DenialConstraint,
        first: usize,
        cb: &'c mut dyn FnMut(&[TupleId]) -> ControlFlow<()>,
    ) -> Self {
        Join {
            db,
            dc,
            plan: plan_join(dc, first),
            ids: Vec::with_capacity(dc.arity()),
            rows: vec![&[]; dc.arity()],
            visited: 0,
            cb,
        }
    }

    /// Binds `f` at `level`, checks the level's predicates, and recurses.
    fn bind(&mut self, level: usize, f: FactRef<'a>) -> ControlFlow<()> {
        let var = self.plan.order[level];
        if f.rel != self.dc.atoms[var].rel {
            return ControlFlow::Continue(());
        }
        self.rows[var] = f.values;
        if !self.plan.by_level[level].iter().all(|p| p.eval(&self.rows)) {
            return ControlFlow::Continue(());
        }
        self.ids.push(f.id);
        let result = self.recurse(level + 1);
        self.ids.pop();
        result
    }

    /// Enumerates the candidates of `level`: the postings bucket of the
    /// bound value its equality link names, else the whole relation.
    fn recurse(&mut self, level: usize) -> ControlFlow<()> {
        if level == self.plan.order.len() {
            let set = binding_set(&self.ids);
            return (self.cb)(&set);
        }
        let db = self.db;
        let rel = self.dc.atoms[self.plan.order[level]].rel;
        match self.plan.probes[level] {
            Some((attr, var, bound_attr)) => {
                // The bound value translated into this column's dictionary:
                // a miss means no candidate anywhere in the relation.
                let value = &self.rows[var][bound_attr.idx()];
                let Some(code) = db.dictionary(rel, attr).code(value) else {
                    return ControlFlow::Continue(());
                };
                let bucket = db.postings(rel, attr).get(code);
                self.visited += bucket.len() as u64;
                for &tid in bucket {
                    let f = db.fact(tid).expect("postings list live tuples");
                    self.bind(level, f)?;
                }
            }
            None => {
                self.visited += db.relation_len(rel) as u64;
                for f in db.scan(rel) {
                    self.bind(level, f)?;
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// Backtracking index join for DCs with three or more tuple variables.
fn enumerate_generic(
    db: &Database,
    dc: &DenialConstraint,
    cb: &mut dyn FnMut(&[TupleId]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    Join::new(db, dc, 0, cb).recurse(0)
}

/// Same join, with atom `fixed_atom` pinned to tuple `fixed_id` and bound
/// first, so every later level that an equality predicate links back to
/// the pinned tuple probes a postings bucket instead of scanning. The
/// candidates visited are added to `engine_pinned_candidates_total` once
/// per call.
fn enumerate_fixed(
    db: &Database,
    dc: &DenialConstraint,
    fixed_atom: usize,
    fixed_id: TupleId,
    cb: &mut dyn FnMut(&[TupleId]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Some(f) = db.fact(fixed_id) else {
        return ControlFlow::Continue(());
    };
    let mut join = Join::new(db, dc, fixed_atom, cb);
    let result = join.bind(0, f);
    inconsist_obs::counter!("engine_pinned_candidates_total").add(join.visited);
    result
}

// ---------------------------------------------------------------------------
// Value-keyed reference engine
// ---------------------------------------------------------------------------

/// The historical value-keyed engine, retained verbatim as the correctness
/// reference for the code-keyed joins above: hash joins key on freshly
/// materialized `Vec<Value>`s and every comparison runs on values. Debug
/// builds cross-check [`minimal_inconsistent_subsets`] against this path,
/// and `tests/property_based.rs` compares the two on random instances.
/// Not for production use.
pub mod value_keyed {
    use super::*;

    /// Value-keyed unary hash indexes, rebuilt per call (the pre-encoding
    /// counterpart of [`Database::postings`]).
    #[derive(Default)]
    pub struct ValueIndexes {
        map: HashMap<(RelId, AttrId), HashMap<Value, Vec<TupleId>>>,
    }

    impl ValueIndexes {
        fn get(
            &mut self,
            db: &Database,
            rel: RelId,
            attr: AttrId,
        ) -> &HashMap<Value, Vec<TupleId>> {
            self.map.entry((rel, attr)).or_insert_with(|| {
                let mut idx: HashMap<Value, Vec<TupleId>> = HashMap::new();
                for f in db.scan(rel) {
                    idx.entry(f.value(attr).clone()).or_default().push(f.id);
                }
                idx
            })
        }
    }

    /// Value-keyed [`super::minimal_inconsistent_subsets`]; same *Limits*
    /// semantics (global budget).
    pub fn minimal_inconsistent_subsets(
        db: &Database,
        cs: &ConstraintSet,
        limit: Option<usize>,
    ) -> MiResult {
        let mut indexes = ValueIndexes::default();
        let mut seen: HashSet<ViolationSet> = HashSet::new();
        let mut budget = limit.unwrap_or(usize::MAX);
        let mut complete = true;
        for dc in cs.dcs() {
            for_each_violation(db, dc, &mut indexes, &mut |set: &[TupleId]| {
                if budget == 0 {
                    complete = false;
                    return ControlFlow::Break(());
                }
                budget -= 1;
                seen.insert(set.to_vec().into_boxed_slice());
                ControlFlow::Continue(())
            });
            if !complete {
                break;
            }
        }
        MiResult {
            subsets: filter_minimal(seen),
            complete,
        }
    }

    /// Value-keyed [`super::violations_per_dc`]; same *Limits* semantics
    /// (global budget).
    pub fn violations_per_dc(
        db: &Database,
        cs: &ConstraintSet,
        limit: Option<usize>,
    ) -> Vec<DcViolations> {
        let mut indexes = ValueIndexes::default();
        let mut out = Vec::with_capacity(cs.len());
        let mut budget = limit.unwrap_or(usize::MAX);
        let mut truncated = false;
        for (i, dc) in cs.dcs().iter().enumerate() {
            if truncated {
                out.push(DcViolations {
                    dc: i,
                    sets: Vec::new(),
                    complete: false,
                });
                continue;
            }
            let mut seen: HashSet<ViolationSet> = HashSet::new();
            for_each_violation(db, dc, &mut indexes, &mut |set: &[TupleId]| {
                if budget == 0 {
                    truncated = true;
                    return ControlFlow::Break(());
                }
                budget -= 1;
                seen.insert(set.to_vec().into_boxed_slice());
                ControlFlow::Continue(())
            });
            out.push(DcViolations {
                dc: i,
                sets: filter_minimal(seen),
                complete: !truncated,
            });
        }
        out
    }

    /// Value-keyed [`super::for_each_violation`].
    pub fn for_each_violation(
        db: &Database,
        dc: &DenialConstraint,
        indexes: &mut ValueIndexes,
        cb: &mut dyn FnMut(&[TupleId]) -> ControlFlow<()>,
    ) {
        match dc.arity() {
            1 => {
                let _ = enumerate_unary(db, dc, None, cb);
            }
            2 => {
                let _ = enumerate_binary_values(db, dc, cb);
            }
            _ => {
                let _ = enumerate_generic_values(db, dc, indexes, cb);
            }
        }
    }

    fn enumerate_binary_values(
        db: &Database,
        dc: &DenialConstraint,
        cb: &mut dyn FnMut(&[TupleId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let plan = plan_binary(dc);
        if plan.vacuous {
            return ControlFlow::Continue(());
        }
        let rel_t = dc.atoms[0].rel;
        let rel_tp = dc.atoms[1].rel;
        let same_rel = rel_t == rel_tp;

        if same_rel {
            for f in db.scan(rel_t) {
                if dc.forbidden(&[f.values, f.values]) {
                    cb(&[f.id])?;
                }
            }
        }

        let symmetric = same_rel && dc.is_symmetric();

        if plan.eq_keys.is_empty() {
            let left: Vec<_> = db
                .scan(rel_t)
                .filter(|f| passes(&plan.t_only, &[f.values, f.values]))
                .collect();
            let right: Vec<_> = db
                .scan(rel_tp)
                .filter(|f| passes(&plan.tp_only, &[f.values, f.values]))
                .collect();
            for a in &left {
                for b in &right {
                    if a.id == b.id {
                        continue;
                    }
                    if symmetric && a.id > b.id {
                        continue;
                    }
                    if passes(&plan.rest, &[a.values, b.values]) {
                        let set = binding_set(&[a.id, b.id]);
                        cb(&set)?;
                    }
                }
            }
            return ControlFlow::Continue(());
        }

        // Value-keyed hash join: build on the t' side, probe from t; every
        // key is a freshly allocated Vec<Value> (the overhead the
        // code-keyed engine removes).
        let mut table: HashMap<Vec<Value>, Vec<TupleId>> = HashMap::new();
        for f in db.scan(rel_tp) {
            if !passes(&plan.tp_only, &[f.values, f.values]) {
                continue;
            }
            let key: Vec<Value> = plan
                .eq_keys
                .iter()
                .map(|(_, b)| f.values[b.idx()].clone())
                .collect();
            table.entry(key).or_default().push(f.id);
        }
        let mut key_buf: Vec<Value> = Vec::with_capacity(plan.eq_keys.len());
        for f in db.scan(rel_t) {
            if !passes(&plan.t_only, &[f.values, f.values]) {
                continue;
            }
            key_buf.clear();
            key_buf.extend(plan.eq_keys.iter().map(|(a, _)| f.values[a.idx()].clone()));
            let Some(bucket) = table.get(key_buf.as_slice()) else {
                continue;
            };
            for &j in bucket {
                if j == f.id {
                    continue;
                }
                if symmetric && f.id > j {
                    continue;
                }
                let other = db.fact(j).expect("index is fresh");
                if passes(&plan.rest, &[f.values, other.values]) {
                    let set = binding_set(&[f.id, j]);
                    cb(&set)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    fn enumerate_generic_values(
        db: &Database,
        dc: &DenialConstraint,
        indexes: &mut ValueIndexes,
        cb: &mut dyn FnMut(&[TupleId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let n = dc.arity();
        let mut by_level: Vec<Vec<&Predicate>> = vec![Vec::new(); n];
        for p in &dc.predicates {
            let level = p.max_var().unwrap_or(0);
            by_level[level].push(p);
        }
        let mut ids: Vec<TupleId> = Vec::with_capacity(n);
        let mut rows: Vec<*const [Value]> = Vec::with_capacity(n);
        recurse_values(db, dc, &by_level, indexes, &mut ids, &mut rows, cb)
    }

    #[allow(clippy::too_many_arguments)]
    fn recurse_values(
        db: &Database,
        dc: &DenialConstraint,
        by_level: &[Vec<&Predicate>],
        indexes: &mut ValueIndexes,
        ids: &mut Vec<TupleId>,
        rows: &mut Vec<*const [Value]>,
        cb: &mut dyn FnMut(&[TupleId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let level = ids.len();
        if level == dc.arity() {
            let set = binding_set(ids);
            return cb(&set);
        }
        let rel = dc.atoms[level].rel;

        // SAFETY: as in the code-keyed `recurse` — rows of an immutably
        // borrowed database, read only.
        let view = |rows: &[*const [Value]]| -> Vec<&[Value]> {
            rows.iter().map(|&p| unsafe { &*p }).collect()
        };

        let check_level = |binding: &[&[Value]]| by_level[level].iter().all(|p| p.eval(binding));

        let try_candidate = |tid: TupleId,
                             ids: &mut Vec<TupleId>,
                             rows: &mut Vec<*const [Value]>,
                             indexes: &mut ValueIndexes,
                             cb: &mut dyn FnMut(&[TupleId]) -> ControlFlow<()>|
         -> ControlFlow<()> {
            let Some(f) = db.fact(tid) else {
                return ControlFlow::Continue(());
            };
            if f.rel != rel {
                return ControlFlow::Continue(());
            }
            ids.push(tid);
            rows.push(f.values as *const [Value]);
            let binding = view(rows);
            let ok = check_level(&binding);
            let result = if ok {
                recurse_values(db, dc, by_level, indexes, ids, rows, cb)
            } else {
                ControlFlow::Continue(())
            };
            ids.pop();
            rows.pop();
            result
        };

        let mut probe: Option<(AttrId, Value)> = None;
        for p in &by_level[level] {
            if p.op != CmpOp::Eq {
                continue;
            }
            if let (Operand::Attr { var: v1, attr: a1 }, Operand::Attr { var: v2, attr: a2 }) =
                (&p.lhs, &p.rhs)
            {
                let (here, there) = if *v1 == level && *v2 < level {
                    (*a1, (*v2, *a2))
                } else if *v2 == level && *v1 < level {
                    (*a2, (*v1, *a1))
                } else {
                    continue;
                };
                let bound_row = unsafe { &*rows[there.0] };
                probe = Some((here, bound_row[there.1.idx()].clone()));
                break;
            }
        }

        match probe {
            Some((attr, value)) => {
                let candidates: Vec<TupleId> = indexes
                    .get(db, rel, attr)
                    .get(&value)
                    .cloned()
                    .unwrap_or_default();
                for tid in candidates {
                    try_candidate(tid, ids, rows, indexes, cb)?;
                }
            }
            None => {
                let all: Vec<TupleId> = db.scan(rel).map(|f| f.id).collect();
                for tid in all {
                    try_candidate(tid, ids, rows, indexes, cb)?;
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// Debug-build parity check: a complete code-keyed enumeration must be
/// bit-identical to the value-keyed reference. Skipped for truncated runs
/// (the two engines may examine raw bindings in different orders, so a
/// shared budget truncates at different prefixes) and for databases large
/// enough that doubling the work would distort test runtimes.
#[cfg(debug_assertions)]
fn debug_check_against_value_keyed(
    db: &Database,
    cs: &ConstraintSet,
    got: &MiResult,
    limit: Option<usize>,
) {
    if limit.is_some() || db.len() > 1024 {
        return;
    }
    let reference = value_keyed::minimal_inconsistent_subsets(db, cs, None);
    let mut a: Vec<&ViolationSet> = got.subsets.iter().collect();
    let mut b: Vec<&ViolationSet> = reference.subsets.iter().collect();
    a.sort();
    b.sort();
    debug_assert_eq!(
        a, b,
        "code-keyed engine diverged from the value-keyed reference"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::build;
    use crate::egd::{Egd, EgdAtom};
    use crate::fd::Fd;
    use inconsist_relational::{relation, Fact, Schema, ValueKind};
    use std::sync::Arc;

    #[test]
    fn sorted_minimality_kernel_matches_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        for trial in 0..300 {
            // Sets of 1–4 tuples over a small universe, so subsets collide.
            let universe = rng.gen_range(3..9u32);
            let mut seen: HashSet<ViolationSet> = HashSet::new();
            for _ in 0..rng.gen_range(1..25) {
                let len = rng.gen_range(1..=4usize).min(universe as usize);
                let mut set: Vec<TupleId> = Vec::new();
                while set.len() < len {
                    let t = TupleId(rng.gen_range(0..universe));
                    if !set.contains(&t) {
                        set.push(t);
                    }
                }
                set.sort();
                seen.insert(set.into_boxed_slice());
            }
            let is_subset = |a: &[TupleId], b: &[TupleId]| a.iter().all(|t| b.contains(t));
            let mut expected: Vec<ViolationSet> = seen
                .iter()
                .filter(|s| !seen.iter().any(|o| o.len() < s.len() && is_subset(o, s)))
                .cloned()
                .collect();
            expected.sort_by(|a, b| by_len_then_members(a, b));
            let mut sorted: Vec<ViolationSet> = seen.iter().cloned().collect();
            sorted.sort_by(|a, b| by_len_then_members(a, b));
            assert_eq!(filter_minimal_sorted(sorted), expected, "trial {trial}");
            assert_eq!(filter_minimal(seen), expected, "trial {trial}");
        }
    }

    fn schema_ab() -> (Arc<Schema>, RelId) {
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
            .unwrap();
        (Arc::new(s), r)
    }

    fn insert2(db: &mut Database, r: RelId, a: i64, b: i64) -> TupleId {
        db.insert(Fact::new(r, [Value::int(a), Value::int(b)]))
            .unwrap()
    }

    fn fd_set(s: &Arc<Schema>, r: RelId) -> ConstraintSet {
        let mut cs = ConstraintSet::new(Arc::clone(s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        cs
    }

    #[test]
    fn delta_violations_pair_each_binding_with_its_constraint() {
        let (s, r) = schema_ab();
        let mut db = Database::new(Arc::clone(&s));
        let t0 = insert2(&mut db, r, 1, 1);
        let t1 = insert2(&mut db, r, 1, 2);
        insert2(&mut db, r, 5, 9);
        let cs = fd_set(&s, r);
        let delta = delta_violations_involving(&db, &cs, t1);
        let pair: ViolationSet = vec![t0, t1].into_boxed_slice();
        assert_eq!(delta.per_dc, vec![(0, pair)]);
        // A tuple in no violation yields an empty delta.
        let clean = delta_violations_involving(&db, &cs, TupleId(2));
        assert!(clean.per_dc.is_empty());
    }

    #[test]
    fn consistency_check() {
        let (s, r) = schema_ab();
        let mut db = Database::new(Arc::clone(&s));
        insert2(&mut db, r, 1, 1);
        insert2(&mut db, r, 2, 1);
        let cs = fd_set(&s, r);
        assert!(is_consistent(&db, &cs));
        insert2(&mut db, r, 1, 9);
        assert!(!is_consistent(&db, &cs));
    }

    #[test]
    fn fd_violations_are_pairs() {
        let (s, r) = schema_ab();
        let mut db = Database::new(Arc::clone(&s));
        let t0 = insert2(&mut db, r, 1, 1);
        let t1 = insert2(&mut db, r, 1, 2);
        let t2 = insert2(&mut db, r, 1, 2);
        insert2(&mut db, r, 2, 5);
        let cs = fd_set(&s, r);
        let mi = minimal_inconsistent_subsets(&db, &cs, None);
        assert!(mi.complete);
        // {t0,t1} and {t0,t2} conflict; {t1,t2} agree on B.
        let mut sets: Vec<Vec<TupleId>> = mi.subsets.iter().map(|s| s.to_vec()).collect();
        sets.sort();
        assert_eq!(sets, vec![vec![t0, t1], vec![t0, t2]]);
        assert_eq!(mi.count(), 2);
        assert_eq!(
            mi.participants().into_iter().collect::<Vec<_>>(),
            vec![t0, t1, t2]
        );
    }

    #[test]
    fn unary_dc_yields_singletons_that_subsume_pairs() {
        let (s, r) = schema_ab();
        let mut db = Database::new(Arc::clone(&s));
        let bad = insert2(&mut db, r, 1, 5); // violates A < B? no: 1 < 5 fine
        let worse = insert2(&mut db, r, 7, 3); // violates ¬(A > B)
        let other = insert2(&mut db, r, 7, 9);
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        // ∀t ¬(t[A] > t[B])  and the FD A→B.
        cs.add_dc(
            build::unary(
                "ord",
                r,
                vec![build::uu(AttrId(0), CmpOp::Gt, AttrId(1))],
                &s,
            )
            .unwrap(),
        );
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        let mi = minimal_inconsistent_subsets(&db, &cs, None);
        // {worse} is a singleton; the FD pair {worse, other} is subsumed.
        let mut sets: Vec<Vec<TupleId>> = mi.subsets.iter().map(|s| s.to_vec()).collect();
        sets.sort();
        assert_eq!(sets, vec![vec![worse]]);
        let _ = (bad, other);
    }

    #[test]
    fn symmetric_pairs_reported_once() {
        let (s, r) = schema_ab();
        let mut db = Database::new(Arc::clone(&s));
        insert2(&mut db, r, 1, 1);
        insert2(&mut db, r, 1, 2);
        let cs = fd_set(&s, r);
        let per_dc = violations_per_dc(&db, &cs, None);
        assert_eq!(per_dc.len(), 1);
        assert_eq!(per_dc[0].sets.len(), 1);
        assert!(per_dc[0].complete);
    }

    #[test]
    fn asymmetric_order_dc() {
        let (s, r) = schema_ab();
        let mut db = Database::new(Arc::clone(&s));
        let t0 = insert2(&mut db, r, 10, 0);
        let t1 = insert2(&mut db, r, 5, 1);
        let t2 = insert2(&mut db, r, 7, 2);
        // ∀t,t' ¬(t[A] < t'[A]): forbids two facts with different A.
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_dc(
            build::binary(
                "lt",
                r,
                vec![build::tt(AttrId(0), CmpOp::Lt, AttrId(0))],
                &s,
            )
            .unwrap(),
        );
        let mi = minimal_inconsistent_subsets(&db, &cs, None);
        let mut sets: Vec<Vec<TupleId>> = mi.subsets.iter().map(|s| s.to_vec()).collect();
        sets.sort();
        assert_eq!(sets, vec![vec![t0, t1], vec![t0, t2], vec![t1, t2]]);
    }

    #[test]
    fn reflexive_binding_gives_singleton() {
        let (s, r) = schema_ab();
        let mut db = Database::new(Arc::clone(&s));
        let bad = insert2(&mut db, r, 3, 9);
        insert2(&mut db, r, 5, 5);
        // ∀t,t' ¬(t[A] < t'[B]) — with t = t' this forbids A < B in one fact.
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_dc(
            build::binary("x", r, vec![build::tt(AttrId(0), CmpOp::Lt, AttrId(1))], &s).unwrap(),
        );
        let mi = minimal_inconsistent_subsets(&db, &cs, None);
        assert!(mi.subsets.iter().any(|s| s.as_ref() == [bad]));
        assert_eq!(mi.self_inconsistent(), vec![bad]);
    }

    #[test]
    fn limit_truncates_and_flags() {
        let (s, r) = schema_ab();
        let mut db = Database::new(Arc::clone(&s));
        for i in 0..20 {
            insert2(&mut db, r, 1, i);
        }
        let cs = fd_set(&s, r);
        let mi = minimal_inconsistent_subsets(&db, &cs, Some(5));
        assert!(!mi.complete);
        assert!(mi.count() <= 5);
        let full = minimal_inconsistent_subsets(&db, &cs, None);
        assert!(full.complete);
        assert_eq!(full.count(), 20 * 19 / 2);
    }

    #[test]
    fn violations_per_dc_budget_is_global() {
        // Two FDs, each with exactly 3 violating pairs. A global budget of
        // 4 must be exhausted across constraints: the first DC consumes 3,
        // the second gets the single remaining unit and reports truncation.
        let mut s = Schema::new();
        let r = s
            .add_relation(
                relation(
                    "R",
                    &[
                        ("A", ValueKind::Int),
                        ("B", ValueKind::Int),
                        ("C", ValueKind::Int),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let s = Arc::new(s);
        let mut db = Database::new(Arc::clone(&s));
        for i in 0..3 {
            db.insert(Fact::new(r, [Value::int(1), Value::int(i), Value::int(i)]))
                .unwrap();
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(2)]));
        cs.add_fd(Fd::new(r, [AttrId(1)], [AttrId(2)]));

        let unlimited = violations_per_dc(&db, &cs, None);
        assert!(unlimited.iter().all(|d| d.complete));
        assert_eq!(unlimited[0].sets.len(), 3);
        assert_eq!(unlimited[1].sets.len(), 3);

        let capped = violations_per_dc(&db, &cs, Some(4));
        assert!(capped[0].complete, "first DC fits in the global budget");
        assert_eq!(capped[0].sets.len(), 3);
        assert!(!capped[1].complete, "global budget exhausted mid-second DC");
        assert!(capped[1].sets.len() <= 1);
        // Constraints after the truncation point are skipped entirely:
        // empty, incomplete entries with no enumeration work.
        assert!(!capped[2].complete, "post-exhaustion DCs report incomplete");
        assert!(capped[2].sets.is_empty());

        // A finite budget exactly covering all 6 raw violations (3 per
        // violated FD; B→C is satisfied) reports complete on all
        // constraints — the boundary where the budget hits 0 only after
        // the last binding is recorded, and the violation-free third DC
        // still enumerates (finding nothing) without tripping it.
        let exact = violations_per_dc(&db, &cs, Some(6));
        assert!(exact.iter().all(|d| d.complete));
        assert_eq!(exact.iter().map(|d| d.sets.len()).sum::<usize>(), 6);

        // The value-keyed reference implements the same global semantics.
        let ref_capped = value_keyed::violations_per_dc(&db, &cs, Some(4));
        assert!(ref_capped[0].complete);
        assert!(!ref_capped[1].complete);
        assert!(!ref_capped[2].complete && ref_capped[2].sets.is_empty());
    }

    #[test]
    fn cross_relation_egd_join() {
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
            .unwrap();
        let t = s
            .add_relation(relation("S", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
            .unwrap();
        let s = Arc::new(s);
        let mut db = Database::new(Arc::clone(&s));
        let r1 = db
            .insert(Fact::new(r, [Value::int(1), Value::int(2)]))
            .unwrap();
        let s1 = db
            .insert(Fact::new(t, [Value::int(2), Value::int(9)]))
            .unwrap();
        db.insert(Fact::new(t, [Value::int(2), Value::int(1)]))
            .unwrap(); // consistent partner
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_egd(crate::egd::example8::sigma4(r, t, &s));
        let mi = minimal_inconsistent_subsets(&db, &cs, None);
        assert_eq!(mi.count(), 1);
        assert_eq!(mi.subsets[0].as_ref(), &[r1, s1]);
    }

    #[test]
    fn cross_relation_probe_misses_translate_to_no_partner() {
        // R.B values that never appear in S.A must simply produce no
        // pairs (the dictionary-translation path returns None).
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
            .unwrap();
        let t = s
            .add_relation(relation("S", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
            .unwrap();
        let s = Arc::new(s);
        let mut db = Database::new(Arc::clone(&s));
        db.insert(Fact::new(r, [Value::int(1), Value::int(77)]))
            .unwrap();
        db.insert(Fact::new(t, [Value::int(2), Value::int(9)]))
            .unwrap();
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_egd(crate::egd::example8::sigma4(r, t, &s));
        assert!(is_consistent(&db, &cs));
        assert_eq!(minimal_inconsistent_subsets(&db, &cs, None).count(), 0);
    }

    #[test]
    fn ternary_egd_prop1_shape() {
        // σ1 of Prop. 1: R(x,y), S(x,z), S(x,w) ⇒ z = w.
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
            .unwrap();
        let t = s
            .add_relation(relation("S", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
            .unwrap();
        let s = Arc::new(s);
        let egd = Egd::new(
            "p1",
            vec![
                EgdAtom {
                    rel: r,
                    vars: vec![0, 1],
                },
                EgdAtom {
                    rel: t,
                    vars: vec![0, 2],
                },
                EgdAtom {
                    rel: t,
                    vars: vec![0, 3],
                },
            ],
            (2, 3),
            &s,
        )
        .unwrap();
        let mut db = Database::new(Arc::clone(&s));
        let ra = db
            .insert(Fact::new(r, [Value::int(1), Value::int(0)]))
            .unwrap();
        let sa = db
            .insert(Fact::new(t, [Value::int(1), Value::int(5)]))
            .unwrap();
        let sb = db
            .insert(Fact::new(t, [Value::int(1), Value::int(6)]))
            .unwrap();
        db.insert(Fact::new(t, [Value::int(2), Value::int(7)]))
            .unwrap();
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_egd(egd);
        let mi = minimal_inconsistent_subsets(&db, &cs, None);
        assert_eq!(mi.count(), 1);
        assert_eq!(mi.subsets[0].as_ref(), &[ra, sa, sb]);
        // Removing the R fact repairs everything.
        let mut db2 = db.clone();
        db2.delete(ra);
        assert!(is_consistent(&db2, &cs));
    }

    #[test]
    fn violations_involving_single_tuple() {
        let (s, r) = schema_ab();
        let mut db = Database::new(Arc::clone(&s));
        let t0 = insert2(&mut db, r, 1, 1);
        let t1 = insert2(&mut db, r, 1, 2);
        let t2 = insert2(&mut db, r, 1, 3);
        insert2(&mut db, r, 2, 2);
        let cs = fd_set(&s, r);
        let v0 = violations_involving(&db, &cs, t0);
        assert_eq!(v0.len(), 2); // {t0,t1}, {t0,t2}
        let v1 = violations_involving(&db, &cs, t1);
        assert_eq!(v1.len(), 2); // {t0,t1}, {t1,t2}
        let v_missing = violations_involving(&db, &cs, TupleId(99));
        assert!(v_missing.is_empty());
        let _ = t2;
    }

    #[test]
    fn empty_constraint_set_is_always_consistent() {
        let (s, r) = schema_ab();
        let mut db = Database::new(Arc::clone(&s));
        insert2(&mut db, r, 1, 1);
        let cs = ConstraintSet::new(Arc::clone(&s));
        assert!(is_consistent(&db, &cs));
        assert_eq!(minimal_inconsistent_subsets(&db, &cs, None).count(), 0);
    }

    /// Sorted copies for order-insensitive result comparison.
    fn sorted_sets(mi: &MiResult) -> Vec<Vec<TupleId>> {
        let mut v: Vec<Vec<TupleId>> = mi.subsets.iter().map(|s| s.to_vec()).collect();
        v.sort();
        v
    }

    #[test]
    fn code_and_value_engines_agree_on_mixed_types() {
        // String-keyed FD + float dominance + nulls: every compiled-path
        // shape (code equality, rank order, dictionary translation).
        let mut s = Schema::new();
        let r = s
            .add_relation(
                relation(
                    "R",
                    &[
                        ("K", ValueKind::Str),
                        ("X", ValueKind::Float),
                        ("Y", ValueKind::Int),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let s = Arc::new(s);
        let mut db = Database::new(Arc::clone(&s));
        let rows: &[(&str, f64, i64)] = &[
            ("us", 1.5, 3),
            ("us", 2.5, 2),
            ("us", 1.5, 9),
            ("eu", 0.5, 1),
            ("eu", 0.5, 1),
            ("ap", -1.0, 0),
        ];
        for &(k, x, y) in rows {
            db.insert(Fact::new(
                r,
                [Value::str(k), Value::float(x), Value::int(y)],
            ))
            .unwrap();
        }
        db.insert(Fact::new(r, [Value::Null, Value::Null, Value::int(7)]))
            .unwrap();
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        cs.add_dc(
            build::binary(
                "dom",
                r,
                vec![
                    build::tt(AttrId(0), CmpOp::Eq, AttrId(0)),
                    build::tt(AttrId(1), CmpOp::Lt, AttrId(1)),
                    build::tt(AttrId(2), CmpOp::Gt, AttrId(2)),
                ],
                &s,
            )
            .unwrap(),
        );
        let code = minimal_inconsistent_subsets(&db, &cs, None);
        let value = value_keyed::minimal_inconsistent_subsets(&db, &cs, None);
        assert_eq!(sorted_sets(&code), sorted_sets(&value));
        assert!(code.count() > 0, "fixture should actually conflict");
    }

    #[test]
    fn signed_zero_floats_agree_across_engines() {
        // -0.0 and +0.0 are == (one dictionary code); Value::Ord must
        // treat them equal too, or rank-compared order predicates would
        // diverge from the value-keyed reference.
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("X", ValueKind::Float)]).unwrap())
            .unwrap();
        let s = Arc::new(s);
        let mut db = Database::new(Arc::clone(&s));
        db.insert(Fact::new(r, [Value::float(-0.0)])).unwrap();
        db.insert(Fact::new(r, [Value::float(0.0)])).unwrap();
        db.insert(Fact::new(r, [Value::float(1.0)])).unwrap();
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        // ∀t,t' ¬(t[X] < t'[X]) — violated only by genuinely distinct X.
        cs.add_dc(
            build::binary(
                "lt",
                r,
                vec![build::tt(AttrId(0), CmpOp::Lt, AttrId(0))],
                &s,
            )
            .unwrap(),
        );
        let code = minimal_inconsistent_subsets(&db, &cs, None);
        let value = value_keyed::minimal_inconsistent_subsets(&db, &cs, None);
        assert_eq!(sorted_sets(&code), sorted_sets(&value));
        // ±0.0 vs 1.0 conflict (two pairs); ±0.0 vs ∓0.0 must not.
        assert_eq!(code.count(), 2);
    }

    /// Collects the deduped violation sets of one DC via a callback-driven
    /// enumeration (shared by the sharding tests below).
    fn collect_full(db: &Database, dc: &DenialConstraint) -> HashSet<ViolationSet> {
        let mut seen = HashSet::new();
        for_each_violation(db, dc, &mut |set: &[TupleId]| {
            seen.insert(set.to_vec().into_boxed_slice());
            ControlFlow::Continue(())
        });
        seen
    }

    fn collect_shard(
        db: &Database,
        dc: &DenialConstraint,
        scope: ShardScope<'_>,
        into: &mut HashSet<ViolationSet>,
    ) {
        for_each_violation_sharded(db, dc, scope, &mut |set: &[TupleId]| {
            into.insert(set.to_vec().into_boxed_slice());
            ControlFlow::Continue(())
        });
    }

    /// Broadcast shards (probe-side partition, full build side) must union
    /// to the unsharded enumeration for every plan shape: unary scan,
    /// symmetric FD hash join, asymmetric order nested loop, reflexive
    /// bindings, and an arity-3 backtracking join.
    #[test]
    fn broadcast_shards_union_to_full_enumeration() {
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
            .unwrap();
        let t = s
            .add_relation(relation("S", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
            .unwrap();
        let s = Arc::new(s);
        let mut db = Database::new(Arc::clone(&s));
        for (a, b) in [(1, 1), (1, 2), (2, 5), (3, 0), (1, 2), (2, 9), (0, 7)] {
            db.insert(Fact::new(r, [Value::int(a), Value::int(b)]))
                .unwrap();
        }
        for (a, b) in [(1, 9), (1, 4), (5, 5)] {
            db.insert(Fact::new(t, [Value::int(a), Value::int(b)]))
                .unwrap();
        }
        let dcs = vec![
            // Unary: ¬(A > 2).
            build::unary(
                "u",
                r,
                vec![build::uc(AttrId(0), CmpOp::Gt, Value::int(2))],
                &s,
            )
            .unwrap(),
            // Symmetric FD A → B (hash join).
            build::binary(
                "fd",
                r,
                vec![
                    build::tt(AttrId(0), CmpOp::Eq, AttrId(0)),
                    build::tt(AttrId(1), CmpOp::Neq, AttrId(1)),
                ],
                &s,
            )
            .unwrap(),
            // Asymmetric order DC (nested loop) with a reflexive case.
            build::binary(
                "lt",
                r,
                vec![build::tt(AttrId(0), CmpOp::Lt, AttrId(1))],
                &s,
            )
            .unwrap(),
            // Arity 3 across two relations (backtracking join).
            crate::egd::Egd::new(
                "p1",
                vec![
                    EgdAtom {
                        rel: r,
                        vars: vec![0, 1],
                    },
                    EgdAtom {
                        rel: t,
                        vars: vec![0, 2],
                    },
                    EgdAtom {
                        rel: t,
                        vars: vec![0, 3],
                    },
                ],
                (2, 3),
                &s,
            )
            .unwrap()
            .to_dc(&s),
        ];
        for dc in &dcs {
            let full = collect_full(&db, dc);
            assert!(!full.is_empty(), "{}: fixture should conflict", dc.name);
            let n = db.relation_len(dc.atoms[0].rel);
            for shards in [1usize, 2, 3, 5, 16] {
                // Round-robin probe partition; build side broadcast.
                let mut parts: Vec<Vec<u32>> = vec![Vec::new(); shards];
                for pos in 0..n {
                    parts[pos % shards].push(pos as u32);
                }
                let mut union = HashSet::new();
                for part in &parts {
                    collect_shard(
                        &db,
                        dc,
                        ShardScope {
                            probe: part,
                            build: None,
                        },
                        &mut union,
                    );
                }
                assert_eq!(union, full, "{} with {shards} shards", dc.name);
            }
        }
    }

    /// A hash partition on the shared-column equality key may co-partition
    /// the build side: joining pairs agree on the key codes, so they land
    /// in the same shard and nothing is lost.
    #[test]
    fn copartitioned_shards_union_to_full_enumeration() {
        let (s, r) = schema_ab();
        let mut db = Database::new(Arc::clone(&s));
        for (a, b) in [(1, 1), (1, 2), (2, 5), (2, 5), (3, 0), (3, 9), (1, 2)] {
            insert2(&mut db, r, a, b);
        }
        let dc = build::binary(
            "fd",
            r,
            vec![
                build::tt(AttrId(0), CmpOp::Eq, AttrId(0)),
                build::tt(AttrId(1), CmpOp::Neq, AttrId(1)),
            ],
            &s,
        )
        .unwrap();
        let attrs = copartition_attrs(&dc).expect("FD has a shared-column key");
        assert_eq!(attrs, vec![AttrId(0)]);
        let full = collect_full(&db, &dc);
        assert!(!full.is_empty());
        let codes = db.codes(r, AttrId(0));
        for shards in [2usize, 3, 4] {
            let mut parts: Vec<Vec<u32>> = vec![Vec::new(); shards];
            for (pos, &code) in codes.iter().enumerate() {
                parts[code as usize % shards].push(pos as u32);
            }
            let mut union = HashSet::new();
            for part in &parts {
                collect_shard(
                    &db,
                    &dc,
                    ShardScope {
                        probe: part,
                        build: Some(part),
                    },
                    &mut union,
                );
            }
            assert_eq!(union, full, "{shards} co-partitioned shards");
        }
    }

    #[test]
    fn copartition_attrs_rejects_unkeyed_shapes() {
        let (s, r) = schema_ab();
        // Order-only DC: no equality key to partition on.
        let lt = build::binary(
            "lt",
            r,
            vec![build::tt(AttrId(0), CmpOp::Lt, AttrId(0))],
            &s,
        )
        .unwrap();
        assert!(copartition_attrs(&lt).is_none());
        // Unary DCs have no join at all.
        let un = build::unary(
            "u",
            r,
            vec![build::uc(AttrId(0), CmpOp::Gt, Value::int(0))],
            &s,
        )
        .unwrap();
        assert!(copartition_attrs(&un).is_none());
        // Cross-column equality t[A] = t'[B] cannot co-partition (probe
        // and build would hash different columns).
        let cross =
            build::binary("x", r, vec![build::tt(AttrId(0), CmpOp::Eq, AttrId(1))], &s).unwrap();
        assert!(copartition_attrs(&cross).is_none());
    }

    #[test]
    fn warm_rank_tables_is_idempotent() {
        let (s, r) = schema_ab();
        let mut db = Database::new(Arc::clone(&s));
        insert2(&mut db, r, 1, 2);
        insert2(&mut db, r, 3, 1);
        let mut cs = fd_set(&s, r);
        cs.add_dc(
            build::binary(
                "lt",
                r,
                vec![build::tt(AttrId(0), CmpOp::Lt, AttrId(0))],
                &s,
            )
            .unwrap(),
        );
        warm_rank_tables(&db, &cs);
        warm_rank_tables(&db, &cs);
        let mi = minimal_inconsistent_subsets(&db, &cs, None);
        assert_eq!(mi.count(), 1);
    }
}
