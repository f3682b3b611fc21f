//! Incremental, component-scoped measure maintenance for repair loops.
//!
//! The paper's flagship use case is *progress indication* (§1, §6.2.3): a
//! cleaning system applies one repairing operation at a time and re-reads
//! the inconsistency level after each step. Two costs dominate that loop:
//!
//! 1. **re-finding the violations** — a full self-join (`O(|D|²)` worst
//!    case) per step;
//! 2. **re-deriving the measures** — minimality filtering over the whole
//!    violation union and, for `I_R`/`I_R^lin`, a cover solve over the
//!    whole conflict graph per read.
//!
//! [`IncrementalIndex`] removes both. It owns the database and the
//! constraint set, materializes every raw falsifying binding once — as an
//! edge of a [`DynamicConflictGraph`] labelled with the constraints that
//! flag it — and maintains the set under the three repairing operations
//! of §2:
//!
//! * **delete** `⟨−i⟩` — violations containing `i` disappear; since DCs are
//!   anti-monotonic, no new violation can appear: the update is a pure
//!   index removal, `O(k)` for `k` incident bindings.
//! * **insert** `⟨+f⟩` — every new violation involves the new tuple; one
//!   pinned-tuple enumeration finds them, `O(matches)`: each join level
//!   reads the postings bucket of the pinned tuple's key
//!   ([`Database::postings`](inconsist_relational::Database::postings)),
//!   which the database keeps in sync across edits.
//! * **update** `⟨i.A ← c⟩` — treated as delete-then-insert on the same
//!   identifier: remove the incident bindings, apply the update, re-probe.
//!
//! # Component-scoped reads
//!
//! One repairing operation touches one connected component of the conflict
//! graph (or merges/splits a few), so the *read* path should scale with
//! those components, not with `|D|`. The binding store is that graph: the
//! delta of each mutation ([`engine::delta_violations_involving`] on
//! insert, the deleted tuple's incident edges on delete) is a set of edge
//! insertions/removals, and the graph's merge/split reports name the
//! precise set of *dirty* component ids. Per component, a cache holds the
//! minimal subsets, the `I_MI`/`I_P`/`I_MI^dc` contributions, and the
//! solved `I_R`/`I_R^lin` values. A read then:
//!
//! * re-runs [`engine::filter_minimal_sorted`] only on dirty components
//!   whose cache the write dropped rather than patched (sound because a
//!   subset relation implies shared tuples, so minimality is decided
//!   within a component);
//! * re-solves the cover only on dirty components via the solver's
//!   component-scoped entry points ([`component_min_repair`] /
//!   [`component_min_repair_lin`]; sound because no covering constraint
//!   spans two components) — clean components are *warm*: their previous
//!   values are summed as-is;
//! * answers `I_MI`, `I_P`, `I_MI^dc`, `I_R`, `I_R^lin` as sums of
//!   per-component contributions.
//!
//! This is the only read path: no reader runs a global minimality pass or
//! a monolithic solve. The definitional oracle is the batch measures of
//! [`crate::measures`], which re-enumerate the violations from scratch.
//! [`ReadStats`] counts filter runs, cache hits and cover solves so tests
//! can assert that clean components are never re-processed.
//!
//! # Reader/writer split
//!
//! The mutating read methods above fill caches, so they take `&mut self`.
//! A serving layer that multiplexes many connections over one index wants
//! the opposite: *shared* reads whenever no cache work is pending, so
//! clean-component reads from different connections proceed in parallel
//! under an `RwLock`. The `try_*` family ([`try_i_mi`](IncrementalIndex::try_i_mi),
//! [`try_i_p`](IncrementalIndex::try_i_p), [`try_i_r`](IncrementalIndex::try_i_r),
//! [`try_i_r_lin`](IncrementalIndex::try_i_r_lin),
//! [`try_i_mi_dc`](IncrementalIndex::try_i_mi_dc)) answers from the caches
//! through `&self` and returns `None` the moment any component is dirty;
//! [`warm`](IncrementalIndex::warm) (`&mut self`) refills every cache so
//! the next shared read succeeds. The intended lock discipline is
//! *optimistic read → upgrade on miss*: try under the read lock, and only
//! on `None` take the write lock, `warm`, and answer exclusively.
//!
//! # A read after a write costs its dirty components
//!
//! Every write keeps three structures up to date, so that no read has to
//! look at the clean components one by one:
//!
//! * an explicit **dirty set** — the live components a write touched
//!   since the last exclusive read. The filter, cover and LP steps walk
//!   it (and the matching "no `I_R` / no `I_R^lin` yet" sets), never the
//!   component list;
//! * the caches in a map **ordered by [`CompId`]**. Ids come from a
//!   monotonic counter, so a new component lands at the end and nothing
//!   is ever sorted;
//! * one **rank set** of every scored tuple, keyed `(cbm desc, cim desc,
//!   rim desc, tuple asc)`. A component's scores enter it when its cache
//!   is filled and leave it when the cache is dropped, and a patch moves
//!   the keys of the tuples it re-scores, so a top-`k` read is the first
//!   `k` entries.
//!
//! # A write patches a pair component's cache
//!
//! A write touches one tuple: it removes the tuple's edges (`detach`) and
//! adds its new ones (`attach`). When the component it lands in has only
//! pairs and singletons for edges, and the write neither splits nor
//! merges it, the write **patches** the component's cache instead of
//! dropping it. There a pair is minimal iff neither endpoint is
//! self-inconsistent, and a `(pair, constraint)` label counts toward
//! `I_MI^dc` iff neither endpoint's singleton carries that constraint;
//! so only the sets containing the touched tuple change, and only the
//! scores of that tuple and its neighbours (`pair_scores`). The
//! patch updates the sorted minimal list, `mi_sum`, `p_sum`, `dc_sum`,
//! those tuples' score entries and rank keys, and clears only the solved
//! `I_R` and `I_R^lin`. The component joins the dirty set with its cache
//! kept, so the next read only solves it: `I_d`, `I_MI`, `I_P`,
//! `I_MI^dc` and the top-`k` stay cache reads. A component with a
//! hyperedge, and a write that splits, dissolves into or merges
//! components, takes the **refill** path instead: the cache is dropped
//! and the next read re-derives the component whole (`fill_component`).
//! `incremental_components_patched_total` and
//! `incremental_components_refilled_total` count the two.
//!
//! `I_MI`, `I_P` and the per-constraint `I_MI^dc` counts are exact integer
//! sums maintained by delta. `I_R` and `I_R^lin` are floating-point sums
//! whose value depends on the order of addition, so each is refolded from
//! `0.0` in one ascending pass over the cached values — once per index
//! state: the first read that finds every component solved (shared or
//! exclusive) stores the sum in a `OnceLock` that concurrent `&self`
//! readers may fill, and every later read of that state is a field read.
//! A structural delta or a newly stored component value drops the memo.
//! The exclusive readers run their fill/solve steps and then read the same
//! memo, so there is one fold and the values are bit-identical on every
//! path. `incremental_components_visited_total`,
//! `incremental_tuples_rescored_total` and
//! `incremental_dc_bindings_refiltered_total` in [`inconsist_obs::global`]
//! count this work, beside the patch and refill counters.
//!
//! # Parallel dirty-component solves
//!
//! When one write invalidates several components (a merge-heavy insert, a
//! batch of edits between reads), the per-component `I_R`/`I_R^lin`
//! solves are independent — no covering constraint spans two components —
//! so the index fans them out across a crossbeam scope, bounded by
//! [`set_solve_threads`](IncrementalIndex::set_solve_threads) (default 1:
//! fully sequential, the prior behaviour). Values are bit-identical to the
//! sequential path: each component's solve is deterministic in isolation
//! and the final sum is always taken in ascending component order.
//!
//! Blocking and deadline reads share this one solve loop. A blocking read
//! ([`i_r`](IncrementalIndex::i_r)) turns a component left unsolved (its
//! step budget ran out) into [`MeasureError::Timeout`]; a deadline read
//! ([`i_r_anytime`](IncrementalIndex::i_r_anytime)) stops handing out
//! components once the deadline passes and folds bounds for the unsolved
//! ones, read off their cached minimal subsets and tuple costs. Either
//! way every value solved is cached, and a component that runs out of
//! steps does not stop the others from being solved.
//!
//! The index owns the database, so every mutation flows through
//! [`Database::insert`]/[`Database::delete`]/[`Database::update`] and keeps
//! the dictionary-encoded columnar mirrors in sync as a side effect; the
//! pinned re-probes after insert/update run on the same code-keyed joins
//! as the full scan. The unit and property tests pin the maintained values
//! to the from-scratch engine on random operation sequences, including
//! sequences that force component merges and splits, and
//! `crates/core/tests/incremental_work_counters.rs` pins the work one write
//! costs.

use crate::measures::{
    InconsistencyMeasure, MaximalConsistentSubsets, MeasureError, MeasureOptions, MeasureResult,
};
use crate::repair::RepairOp;
use inconsist_constraints::{engine, ConstraintSet, ViolationSet};
use inconsist_graph::{CompId, DynamicConflictGraph};
use inconsist_relational::{AttrId, Database, Fact, RelationalError, TupleId, Value};
use inconsist_solver::{
    component_min_repair, component_min_repair_lin, component_tuple_scores, Budget,
};

pub use inconsist_solver::TupleScores;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::ControlFlow;
use std::sync::atomic::{self, AtomicUsize};
use std::sync::OnceLock;
use std::time::Instant;

/// The one way measure reads are answered: per-component caches, where
/// only components dirtied since the last read are re-filtered and
/// re-solved (see the module docs).
///
/// A one-variant leftover of the removed global read mode. It survives
/// only because the frozen `loadbench/` crate still passes it to
/// `Registry::create` and `Session::open`, which ignore it; the next
/// benchmark change removes it together with those parameters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReadMode {
    /// Component-scoped reads.
    #[default]
    Component,
}

/// Read-path instrumentation: how much work the last reads actually did.
/// All counters are cumulative; [`IncrementalIndex::reset_stats`] zeroes
/// them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Minimality filters run (one per dirty component).
    pub filter_runs: u64,
    /// Components answered from the minimal-subset cache.
    pub filter_cache_hits: u64,
    /// Exact cover solves run (`I_R`: vertex cover / hitting set).
    pub cover_solves: u64,
    /// `I_R` reads of a component answered from cache.
    pub cover_cache_hits: u64,
    /// LP-relaxation solves run (`I_R^lin`).
    pub lin_solves: u64,
    /// `I_R^lin` reads of a component answered from cache.
    pub lin_cache_hits: u64,
}

/// Outcome of a deadline-bounded (`anytime`) `I_R` / `I_R^lin` read.
///
/// When every component solved exactly, `partial` is `false` and `value`
/// is the same number the blocking read would return. When the deadline
/// (or step budget) expired mid-read, `partial` is `true`, `value` is a
/// certified *lower* bound and `upper` the matching upper bound: the
/// exactly-solved components count their values, the unsolved ones a
/// disjoint-packing lower bound and the cost of their problematic tuples.
/// Partial values are never cached.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnytimeValue {
    /// The measure value; a lower bound when `partial`.
    pub value: f64,
    /// Upper bound on the true value; only meaningful when `partial`.
    pub upper: f64,
    /// Whether any component was answered with bounds instead of exactly.
    pub partial: bool,
}

/// One served measure: the paper's database measures, then two index
/// counters served beside them. [`IncrementalIndex::try_measure`] and
/// [`IncrementalIndex::measure`] evaluate each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Measure {
    /// `I_d`: 1 iff inconsistent.
    Id,
    /// `I_MI`: minimal inconsistent subsets.
    Mi,
    /// `I_P`: problematic tuples.
    P,
    /// `I_MI^dc`: minimal violations counted per constraint.
    MiDc,
    /// `I_R`: minimum deletion repair cost.
    R,
    /// `I_R^lin`: the LP relaxation of `I_R`.
    RLin,
    /// `I_MC`: maximal consistent subsets, minus one.
    Mc,
    /// Raw falsifying bindings (not minimality-filtered).
    Raw,
    /// Live conflict-graph components.
    Components,
}

impl Measure {
    /// Every served measure, in roster (and declaration) order.
    pub const ALL: [Measure; 9] = {
        use Measure::*;
        [Id, Mi, P, MiDc, R, RLin, Mc, Raw, Components]
    };

    /// The measure's wire name.
    pub fn name(self) -> &'static str {
        use Measure::*;
        match self {
            Id => "I_d",
            Mi => "I_MI",
            P => "I_P",
            MiDc => "I_MI^dc",
            R => "I_R",
            RLin => "I_R^lin",
            Mc => "I_MC",
            Raw => "raw",
            Components => "components",
        }
    }

    /// The measure a wire name denotes, if any.
    pub fn parse(name: &str) -> Option<Measure> {
        Measure::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Whether the measure is a sum over conflict-graph components, and
    /// hence over databases. `I_d` and `I_MC` are not meaningful as a
    /// cross-database sum; `I_MI^dc` is not aggregated either.
    pub fn summable(self) -> bool {
        use Measure::*;
        matches!(self, Mi | P | R | RLin | Raw | Components)
    }
}

/// The per-component solve behind a read: the exact cover of `I_R` under
/// a step budget, or the LP relaxation of `I_R^lin`. The budget only stops
/// a search, so a component's stored `I_R` serves every budget.
#[derive(Clone, Copy, Debug)]
enum Solve {
    Cover(u64),
    Lin,
}

impl Solve {
    /// The component's stored value for this solve, if any.
    fn cached(self, cache: &CompCache) -> Option<f64> {
        match self {
            Solve::Cover(_) => cache.ir,
            Solve::Lin => cache.ir_lin,
        }
    }
}

/// Per-component measure cache: present for every clean component, and
/// for a dirty one whose cache the write patched in place.
#[derive(Clone, Debug)]
struct CompCache {
    /// The component's minimal inconsistent subsets, sorted by `(len,
    /// members)`.
    minimal: Vec<ViolationSet>,
    /// Per-tuple scores of the tuples in `minimal`, sorted by tuple id;
    /// its length is the component's `I_P` share.
    scores: Vec<RankKey>,
    /// The constraint of each `(set, constraint)` pair counted toward
    /// `I_MI^dc` (see [`dc_minimal`]), ascending.
    dc_minimal: Vec<usize>,
    /// Whether every edge of the component has at most two tuples, so
    /// that a write patches this cache instead of dropping it (see
    /// [`pair_scores`]).
    pairs_only: bool,
    /// Solved `I_R` value.
    ir: Option<f64>,
    /// Solved `I_R^lin` value.
    ir_lin: Option<f64>,
}

/// Bounds on one component's `I_R` and `I_R^lin` from its cached minimal
/// subsets and tuple costs alone — no graph, LP or cover — for the
/// components a deadline read leaves unsolved. Lower: a greedy packing of
/// pairwise-disjoint minimal subsets, each counting its cheapest tuple;
/// every repair, fractional or not, pays at least that much per packed
/// subset. Upper: deleting every problematic tuple repairs the component.
fn component_bounds(db: &Database, cache: &CompCache) -> (f64, f64) {
    let costs: Vec<f64> = cache.scores.iter().map(|k| db.cost_of(k.tuple)).collect();
    // `scores` is sorted by tuple and holds every minimal-subset tuple.
    let at = |t: &TupleId| cache.scores.partition_point(|k| k.tuple < *t);
    let (mut packed, mut lower) = (vec![false; costs.len()], 0.0);
    for set in &cache.minimal {
        if set.iter().all(|t| !packed[at(t)]) {
            let each = set.iter().map(|t| costs[at(t)]);
            lower += each.fold(f64::INFINITY, f64::min);
            set.iter().for_each(|t| packed[at(t)] = true);
        }
    }
    (lower, costs.iter().sum())
}

/// The labels of a component's edges (in `(len, members)` order) that
/// count toward `I_MI^dc` (§5.3): those no proper subset of their set
/// carries too. A set the global filter kept in `minimal` has no proper
/// subset among the edges at all, so only the rejected sets probe.
fn dc_minimal(edges: &[(&[TupleId], &[usize])], minimal: &[ViolationSet]) -> Vec<usize> {
    let mut out = Vec::with_capacity(edges.len());
    let (mut kept, mut covered) = (minimal.iter().peekable(), Vec::new());
    for &(set, labels) in edges {
        covered.clear();
        // `minimal` is the subsequence of `edges` the filter kept.
        let rejected = kept.next_if(|m| m[..] == *set).is_none();
        for mask in (1..(1u32 << set.len()) - 1).filter(|_| rejected) {
            let sub: Vec<TupleId> = (0..set.len())
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| set[i])
                .collect();
            if let Ok(i) = edges.binary_search_by(|(s, _)| by_len_then_members(s, &sub)) {
                covered.extend_from_slice(edges[i].1);
            }
        }
        out.extend(labels.iter().filter(|dc| !covered.contains(dc)));
    }
    out
}

/// The order of a component's minimal list: `(len, members)`.
fn by_len_then_members(a: &[TupleId], b: &[TupleId]) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

/// Whether `t` is self-inconsistent, read off a component's minimal list
/// (sorted by `(len, members)`): a singleton edge is always minimal, so
/// the list's singleton prefix is exactly its self-inconsistent tuples.
fn looped(minimal: &[ViolationSet], t: TupleId) -> bool {
    let loops = &minimal[..minimal.partition_point(|m| m.len() == 1)];
    loops.binary_search_by(|m| m[0].cmp(&t)).is_ok()
}

/// The scores of tuple `t` in a component whose edges all have at most two
/// tuples, read off `t`'s own edges and the component's `minimal` list.
/// There a pair is minimal iff neither endpoint is self-inconsistent, so
/// `t` scores `(cbm, cim, rim) = (1, 1, 1)` when it is self-inconsistent
/// and `(n, n/2, 1/2)` otherwise, where `n` counts its pairs with
/// neighbours that are not — the bits [`component_tuple_scores`] gives
/// over the minimal list. `None` when `t` is in no minimal set.
fn pair_scores(
    graph: &DynamicConflictGraph,
    minimal: &[ViolationSet],
    t: TupleId,
) -> Option<RankKey> {
    let (cbm, cim, rim) = if looped(minimal, t) {
        (1.0, 1.0, 1.0)
    } else {
        let clean_pairs = graph
            .incident_sets(t)
            .filter(|(set, _)| set.len() == 2 && !looped(minimal, set[usize::from(set[0] == t)]));
        let n = clean_pairs.count() as f64;
        if n == 0.0 {
            return None;
        }
        (n, 0.5 * n, 0.5)
    };
    Some(RankKey::new(&TupleScores {
        tuple: t,
        cbm,
        cim,
        pim: 1.0,
        rim,
    }))
}

/// The top-k order on tuple scores: `(cbm desc, cim desc, rim desc, tuple
/// asc)`. The scores are never NaN, so `total_cmp` makes this a total
/// order and every top-k cut is deterministic.
fn rank_order(a: &TupleScores, b: &TupleScores) -> Ordering {
    b.cbm
        .total_cmp(&a.cbm)
        .then(b.cim.total_cmp(&a.cim))
        .then(b.rim.total_cmp(&a.rim))
        .then(a.tuple.cmp(&b.tuple))
}

/// One scored tuple packed into 24 bytes, whose derived order is
/// [`rank_order`]: the rank set and every component's score list hold
/// these, and [`TupleScores`] are decoded on the way out. It relies on
/// what [`component_tuple_scores`] produces: `cim` and `rim` are positive,
/// so their bit patterns order like the values; `pim` is 1; `cbm` counts
/// minimal subsets held in memory, far below `2^32`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct RankKey {
    cbm: Reverse<u32>,
    cim: Reverse<u64>,
    rim: Reverse<u64>,
    tuple: TupleId,
}

impl RankKey {
    fn new(s: &TupleScores) -> RankKey {
        RankKey {
            cbm: Reverse(s.cbm as u32),
            cim: Reverse(s.cim.to_bits()),
            rim: Reverse(s.rim.to_bits()),
            tuple: s.tuple,
        }
    }

    fn scores(self) -> TupleScores {
        TupleScores {
            tuple: self.tuple,
            cbm: f64::from(self.cbm.0),
            cim: f64::from_bits(self.cim.0),
            pim: 1.0,
            rim: f64::from_bits(self.rim.0),
        }
    }
}

/// A live violation index over a database: apply repairing operations and
/// read inconsistency measures without re-running the full violation scan
/// — and without re-deriving anything for conflict components the
/// operation did not touch.
///
/// ```
/// use inconsist::incremental::IncrementalIndex;
/// use inconsist::paper;
///
/// use inconsist::relational::TupleId;
///
/// let (d1, cs) = paper::airport_d1();
/// let mut idx = IncrementalIndex::build(d1, cs).unwrap();
/// assert_eq!(idx.i_mi(), 7.0); // Table 1
/// // Delete f5 (the fact in the most violations) and re-read: only the
/// // component containing f5 is re-filtered.
/// // The fixture numbers facts like the paper: f5 is TupleId(5).
/// idx.delete(TupleId(5));
/// assert_eq!(idx.i_mi(), 3.0);
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalIndex {
    db: Database,
    cs: ConstraintSet,
    /// The one store of the raw falsifying bindings (deduped within each
    /// DC, not minimality-filtered — filtering happens lazily at read
    /// time): one edge per distinct tuple set, labelled with the DCs that
    /// flag it, and component ids stable while a component is untouched.
    graph: DynamicConflictGraph,
    /// Cached components' measures in ascending id order: every clean
    /// component, and the dirty ones a write patched.
    comp_cache: BTreeMap<CompId, CompCache>,
    /// Live components a write touched since the last exclusive read:
    /// every component without a cache, and the patched ones.
    dirty: BTreeSet<CompId>,
    /// Cached components without an `I_R` value.
    ir_pending: BTreeSet<CompId>,
    /// Cached components without an `I_R^lin` value.
    lin_pending: BTreeSet<CompId>,
    /// `Σ |minimal|` over the cached components (`I_MI` once every live
    /// component is cached).
    mi_sum: usize,
    /// `Σ |scores|` over the cached components (`I_P` likewise).
    p_sum: usize,
    /// Every cached component's tuple scores in top-k order.
    ranked: BTreeSet<RankKey>,
    /// Per-constraint `Σ` of the cached components' `I_MI^dc` terms.
    dc_sum: Vec<usize>,
    /// Thread budget for dirty-component cover/LP solves (1 = sequential).
    solve_threads: usize,
    stats: ReadStats,
    /// The ascending fold of every component's `I_R`, filled by the first
    /// read that finds every component solved (possibly a shared `&self`
    /// read); reset when the component set or a stored `I_R` value
    /// changes.
    ir_total: OnceLock<f64>,
    /// The ascending fold of every component's `I_R^lin`, memoized the
    /// same way.
    lin_total: OnceLock<f64>,
}

impl IncrementalIndex {
    /// Builds the index with a full violation scan. Fails with
    /// [`MeasureError::Truncated`] if the scan exceeds `limit` raw bindings
    /// (pass `None` for no cap).
    pub fn build_with_limit(
        db: Database,
        cs: ConstraintSet,
        limit: Option<usize>,
    ) -> Result<Self, MeasureError> {
        let mut graph = DynamicConflictGraph::new();
        let mut budget = limit.unwrap_or(usize::MAX);
        for (i, dc) in cs.dcs().iter().enumerate() {
            let mut sets: Vec<ViolationSet> = Vec::new();
            let mut truncated = false;
            engine::for_each_violation(&db, dc, &mut |set: &[TupleId]| {
                if budget == 0 {
                    truncated = true;
                    return ControlFlow::Break(());
                }
                budget -= 1;
                sets.push(set.into());
                ControlFlow::Continue(())
            });
            if truncated {
                return Err(MeasureError::Truncated);
            }
            // Ascending, not enumeration order, so two builds over the same
            // data number their components alike — and fold their
            // per-component values in the same order. Repeats add nothing.
            sets.sort_unstable();
            for set in &sets {
                graph.insert_edge(set, i);
            }
        }
        Ok(IncrementalIndex {
            dirty: graph.component_ids().collect(),
            graph,
            comp_cache: BTreeMap::new(),
            ir_pending: BTreeSet::new(),
            lin_pending: BTreeSet::new(),
            mi_sum: 0,
            p_sum: 0,
            ranked: BTreeSet::new(),
            dc_sum: vec![0; cs.len()],
            solve_threads: 1,
            stats: ReadStats::default(),
            ir_total: OnceLock::new(),
            lin_total: OnceLock::new(),
            db,
            cs,
        })
    }

    /// Builds the index with the default (uncapped) scan.
    pub fn build(db: Database, cs: ConstraintSet) -> Result<Self, MeasureError> {
        Self::build_with_limit(db, cs, None)
    }

    /// The current database (read-only; mutate through the index so the
    /// violation set stays in sync).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The constraint set the index maintains violations for.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.cs
    }

    /// Consumes the index, returning the database.
    pub fn into_db(self) -> Database {
        self.db
    }

    /// Total raw falsifying bindings currently known (an upper bound on
    /// `I_MI`; zero iff consistent).
    pub fn raw_violations(&self) -> usize {
        self.graph.label_count()
    }

    /// Current number of conflict components.
    pub fn component_count(&self) -> usize {
        self.graph.component_count()
    }

    /// Components a read still has to re-derive or re-solve: those a
    /// write touched since the last exclusive read, whether it dropped
    /// their caches or patched them.
    pub fn dirty_component_count(&self) -> usize {
        self.dirty.len()
    }

    /// The thread budget for dirty-component solves.
    pub fn solve_threads(&self) -> usize {
        self.solve_threads
    }

    /// Sets how many threads dirty-component `I_R`/`I_R^lin` solves may
    /// fan out over (clamped to ≥ 1; 1 keeps the sequential path).
    /// Values are bit-identical regardless of the budget.
    pub fn set_solve_threads(&mut self, threads: usize) {
        self.solve_threads = threads.max(1);
    }

    /// Read-path instrumentation counters (cumulative).
    pub fn stats(&self) -> ReadStats {
        self.stats
    }

    /// Zeroes the [`ReadStats`] counters.
    pub fn reset_stats(&mut self) {
        self.stats = ReadStats::default();
    }

    /// Takes component `c`'s cache, if any, out of every maintained
    /// aggregate: the integer sums, the rank set and the pending sets.
    /// Both fold memos go either way: a component that appears or
    /// disappears changes both folds. (Filling a dirty component's cache
    /// drops nothing: no memo is filled while a component is dirty;
    /// storing one component value drops that value's memo.)
    fn drop_cache(&mut self, c: CompId) {
        self.ir_total.take();
        self.lin_total.take();
        let Some(cache) = self.comp_cache.remove(&c) else {
            return;
        };
        self.mi_sum -= cache.minimal.len();
        self.p_sum -= cache.scores.len();
        cache.dc_minimal.iter().for_each(|&dc| self.dc_sum[dc] -= 1);
        for key in &cache.scores {
            self.ranked.remove(key);
        }
        if cache.ir.is_none() {
            self.ir_pending.remove(&c);
        }
        if cache.ir_lin.is_none() {
            self.lin_pending.remove(&c);
        }
    }

    /// A live component whose edge set changed in a way no patch follows
    /// (or a fresh one): its cache goes, and it joins the dirty set.
    fn mark_dirty(&mut self, c: CompId) {
        self.drop_cache(c);
        self.dirty.insert(c);
    }

    /// A component id that no longer exists (dissolved, split away or
    /// merged into another).
    fn mark_dead(&mut self, c: CompId) {
        self.drop_cache(c);
        self.dirty.remove(&c);
    }

    // -- mutations ---------------------------------------------------------

    /// Whether component `c` has a cache a write can patch in place: one
    /// whose edges all have at most two tuples.
    fn patchable(&self, c: CompId) -> bool {
        self.comp_cache
            .get(&c)
            .is_some_and(|cache| cache.pairs_only)
    }

    /// Adds to (`add`) or takes out of patchable component `c`'s cache
    /// every minimal set and `I_MI^dc` label of the edges containing `t`,
    /// as the graph holds them now, and returns `t`'s neighbours over
    /// those edges. Exact because a write only adds or removes edges of
    /// the one tuple it touches: a pair not containing `t` keeps its
    /// endpoints' singletons, and so its minimality and its counted
    /// labels.
    fn patch_edges(&mut self, c: CompId, t: TupleId, add: bool) -> Vec<TupleId> {
        let graph = &self.graph;
        let cache = self.comp_cache.get_mut(&c).expect("patchable component");
        let own = graph.loop_labels(t);
        let mut neighbours = Vec::new();
        for (set, labels) in graph.incident_sets(t) {
            let other = (set.len() == 2).then(|| set[usize::from(set[0] == t)]);
            // The write leaves every other tuple's singleton alone.
            let theirs = match other {
                Some(u) if looped(&cache.minimal, u) => graph.loop_labels(u),
                _ => &[],
            };
            // A singleton is minimal; a pair is iff neither endpoint is
            // self-inconsistent.
            if other.is_none() || (own.is_empty() && theirs.is_empty()) {
                let found = cache
                    .minimal
                    .binary_search_by(|m| by_len_then_members(m, set));
                match (add, found) {
                    (true, Err(at)) => cache.minimal.insert(at, set.into()),
                    (false, Ok(at)) => drop(cache.minimal.remove(at)),
                    _ => unreachable!("a cache lists exactly its minimal sets"),
                }
                if add {
                    self.mi_sum += 1;
                } else {
                    self.mi_sum -= 1;
                }
            }
            // A pair's label counts toward `I_MI^dc` unless an endpoint's
            // singleton carries it too.
            let counted = labels
                .iter()
                .filter(|dc| other.is_none() || !(own.contains(dc) || theirs.contains(dc)));
            for &dc in counted {
                let at = cache.dc_minimal.partition_point(|&x| x < dc);
                if add {
                    cache.dc_minimal.insert(at, dc);
                    self.dc_sum[dc] += 1;
                } else {
                    cache.dc_minimal.remove(at);
                    self.dc_sum[dc] -= 1;
                }
            }
            neighbours.extend(other);
        }
        neighbours
    }

    /// Ends a patch of component `c` around tuple `t`: re-scores `t` and
    /// its `neighbours` (their keys move in the score list and the rank
    /// set), clears the solved values, and marks `c` dirty with its cache
    /// kept, so the next read only solves it.
    fn finish_patch(&mut self, c: CompId, t: TupleId, neighbours: Vec<TupleId>) {
        let rescored = 1 + neighbours.len() as u64;
        let cache = self.comp_cache.get_mut(&c).expect("patchable component");
        let scores = &mut cache.scores;
        for u in std::iter::once(t).chain(neighbours) {
            let fresh = pair_scores(&self.graph, &cache.minimal, u);
            match scores.binary_search_by_key(&u, |key| key.tuple) {
                Ok(at) if Some(scores[at]) == fresh => continue,
                Ok(at) => {
                    self.ranked.remove(&scores[at]);
                    match fresh {
                        Some(key) => scores[at] = key,
                        None => {
                            scores.remove(at);
                            self.p_sum -= 1;
                        }
                    }
                }
                Err(at) => {
                    if let Some(key) = fresh {
                        scores.insert(at, key);
                        self.p_sum += 1;
                    }
                }
            }
            self.ranked.extend(fresh);
        }
        if cache.ir.take().is_some() {
            self.ir_pending.insert(c);
        }
        if cache.ir_lin.take().is_some() {
            self.lin_pending.insert(c);
        }
        self.ir_total.take();
        self.lin_total.take();
        self.dirty.insert(c);
        inconsist_obs::counter!("incremental_components_patched_total").inc();
        inconsist_obs::counter!("incremental_tuples_rescored_total").add(rescored);
    }

    /// Removes every indexed binding that involves `tid`. A patchable
    /// component that neither splits nor dissolves keeps its cache,
    /// patched around the edges it lost; any other gets the
    /// drop-and-refill treatment.
    fn detach(&mut self, tid: TupleId) {
        let patch = self
            .graph
            .component_of(tid)
            .filter(|&c| self.patchable(c))
            .map(|c| (c, self.patch_edges(c, tid, false)));
        let Some(removal) = self.graph.remove_incident(tid) else {
            return;
        };
        if let Some((c, neighbours)) = patch {
            if removal.dead.is_empty() && removal.created.is_empty() {
                return self.finish_patch(c, tid, neighbours);
            }
        }
        for c in removal.touched.into_iter().chain(removal.created) {
            self.mark_dirty(c);
        }
        for c in removal.dead {
            self.mark_dead(c);
        }
    }

    /// The patchable component that `delta`, the new bindings of `tid`,
    /// extends without a merge: every set has at most two tuples, and
    /// every other member already in the graph lies in that one
    /// component. Moves the first set that reaches it to the front, so
    /// that `tid` joins it rather than starting a component of its own.
    fn patch_target(&self, delta: &mut [(usize, ViolationSet)], tid: TupleId) -> Option<CompId> {
        if self.graph.component_of(tid).is_some() || delta.iter().any(|(_, set)| set.len() > 2) {
            return None;
        }
        let mut target = None;
        for (i, (_, set)) in delta.iter().enumerate() {
            for &u in set.iter().filter(|&&u| u != tid) {
                let Some(c) = self.graph.component_of(u) else {
                    continue;
                };
                match target {
                    None => target = Some((c, i)),
                    Some((seen, _)) if seen != c => return None,
                    Some(_) => {}
                }
            }
        }
        let (c, first) = target.filter(|&(c, _)| self.patchable(c))?;
        delta[..=first].rotate_right(1);
        Some(c)
    }

    /// Probes the engine for bindings involving `tid` and indexes them, in
    /// ascending `(dc, set)` order: which component survives a merge
    /// depends on the insertion order, and the same history must number
    /// components alike. Bindings that extend one patchable component
    /// patch its cache instead.
    fn attach(&mut self, tid: TupleId) {
        let mut delta = engine::delta_violations_involving(&self.db, &self.cs, tid).per_dc;
        delta.sort_unstable();
        if let Some(c) = self.patch_target(&mut delta, tid) {
            for (dc, set) in &delta {
                let ins = self.graph.insert_edge(set, *dc);
                debug_assert!(ins.is_none_or(|ins| ins.comp == c && ins.merged.is_empty()));
            }
            let neighbours = self.patch_edges(c, tid, true);
            return self.finish_patch(c, tid, neighbours);
        }
        for (dc, set) in delta {
            let Some(ins) = self.graph.insert_edge(&set, dc) else {
                continue;
            };
            if ins.structural {
                self.mark_dirty(ins.comp);
                for c in ins.merged {
                    self.mark_dead(c);
                }
            }
        }
    }

    /// `⟨−i⟩`: deletes tuple `i`, dropping its violations in `O(k)`.
    /// Returns the deleted fact, or `None` if `i` was absent (the paper's
    /// convention: inapplicable operations are no-ops).
    pub fn delete(&mut self, tid: TupleId) -> Option<Fact> {
        let fact = self.db.delete(tid)?;
        self.detach(tid);
        Some(fact)
    }

    /// `⟨+f⟩`: inserts `f`, discovering its violations with one pinned
    /// probe. Returns the fresh tuple identifier.
    pub fn insert(&mut self, fact: Fact) -> Result<TupleId, RelationalError> {
        let tid = self.db.insert(fact)?;
        self.attach(tid);
        Ok(tid)
    }

    /// `⟨i.A ← c⟩`: updates one attribute value, re-probing only the
    /// touched tuple. Returns the previous value (`None` if `i` is absent).
    pub fn update(
        &mut self,
        tid: TupleId,
        attr: AttrId,
        value: Value,
    ) -> Result<Option<Value>, RelationalError> {
        let old = self.db.update(tid, attr, value.clone())?;
        let Some(old) = old else { return Ok(None) };
        if old != value {
            self.detach(tid);
            self.attach(tid);
        }
        Ok(Some(old))
    }

    /// Applies a [`RepairOp`], keeping the index in sync. Returns `true`
    /// when the database changed.
    pub fn apply(&mut self, op: &RepairOp) -> bool {
        let _span = inconsist_obs::span!("index.delta_apply");
        match op {
            RepairOp::Delete(id) => self.delete(*id).is_some(),
            RepairOp::Insert(f) => self.insert(f.clone()).is_ok(),
            RepairOp::Update(id, attr, value) => {
                matches!(self.update(*id, *attr, value.clone()), Ok(Some(old)) if old != *value)
            }
        }
    }

    // -- reads -------------------------------------------------------------

    /// Whether the database currently satisfies all constraints. `O(1)`.
    pub fn is_consistent(&self) -> bool {
        self.graph.label_count() == 0
    }

    /// `I_d`: 1 iff inconsistent. `O(1)`.
    pub fn i_d(&self) -> f64 {
        if self.is_consistent() {
            0.0
        } else {
            1.0
        }
    }

    /// Fills the minimal-subset cache of every dirty component without one
    /// (one component-local [`engine::filter_minimal_sorted`] run each) and
    /// empties the dirty set; the cached components, patched ones
    /// included, are not visited.
    fn ensure_components(&mut self) {
        self.stats.filter_cache_hits += self.comp_cache.len() as u64;
        let mut fresh: Vec<RankKey> = Vec::new();
        while let Some(c) = self.dirty.pop_first() {
            if self.comp_cache.contains_key(&c) {
                continue;
            }
            self.fill_component(c);
            fresh.extend_from_slice(&self.comp_cache[&c].scores);
        }
        // More new keys than ranked ones (a cold fill): one sorted bulk
        // build and merge beats an insert per key.
        if fresh.len() > self.ranked.len() {
            self.ranked.append(&mut fresh.into_iter().collect());
        } else {
            self.ranked.extend(fresh);
        }
    }

    /// Fills one component's minimal-subset cache if it has none, and
    /// takes it out of the dirty set.
    fn ensure_component(&mut self, c: CompId) {
        self.dirty.remove(&c);
        if self.comp_cache.contains_key(&c) {
            self.stats.filter_cache_hits += 1;
        } else {
            self.fill_component(c);
            self.ranked
                .extend(self.comp_cache[&c].scores.iter().copied());
        }
    }

    /// Filters, scores and counts one uncached component and adds it to
    /// every maintained aggregate but the rank set, which the caller
    /// extends.
    fn fill_component(&mut self, c: CompId) {
        let _span = inconsist_obs::span!("index.filter_minimal");
        let edges = self.graph.component_sets(c);
        let pairs_only = edges.iter().all(|e| e.0.len() <= 2);
        let minimal = engine::filter_minimal_sorted(edges.iter().map(|e| e.0.into()).collect());
        let mut dc_minimal = dc_minimal(&edges, &minimal);
        dc_minimal.sort_unstable();
        let labels = edges.iter().map(|e| e.1.len() as u64).sum();
        inconsist_obs::counter!("incremental_dc_bindings_refiltered_total").add(labels);
        dc_minimal.iter().for_each(|&dc| self.dc_sum[dc] += 1);
        let scores: Vec<RankKey> = component_tuple_scores(&minimal)
            .iter()
            .map(RankKey::new)
            .collect();
        self.stats.filter_runs += 1;
        inconsist_obs::counter!("incremental_components_visited_total").inc();
        inconsist_obs::counter!("incremental_components_refilled_total").inc();
        inconsist_obs::counter!("incremental_tuples_rescored_total").add(scores.len() as u64);
        self.mi_sum += minimal.len();
        self.p_sum += scores.len();
        self.ir_pending.insert(c);
        self.lin_pending.insert(c);
        self.comp_cache.insert(
            c,
            CompCache {
                minimal,
                scores,
                dc_minimal,
                pairs_only,
                ir: None,
                ir_lin: None,
            },
        );
    }

    /// The global minimal inconsistent subsets `MI_Σ(D)` (cross-constraint
    /// dedup + inclusion-minimality), assembled from the per-component
    /// caches (dirty components are re-filtered first). Not memoized: a
    /// listing for tests and tooling, not a serving read.
    pub fn minimal_subsets(&mut self) -> Vec<ViolationSet> {
        self.ensure_components();
        let mut all: Vec<ViolationSet> = self
            .comp_cache
            .values()
            .flat_map(|cache| cache.minimal.iter().cloned())
            .collect();
        // Same presentation order as `filter_minimal`: `(len, members)`.
        all.sort_unstable_by(|a, b| by_len_then_members(a, b));
        all
    }

    /// `I_MI`: `|MI_Σ(D)|`.
    pub fn i_mi(&mut self) -> f64 {
        self.ensure_components();
        self.mi_sum as f64
    }

    /// `I_P`: `|∪ MI_Σ(D)|`. Components partition the participating
    /// tuples, so the global union is the sum of the per-component counts.
    pub fn i_p(&mut self) -> f64 {
        self.ensure_components();
        self.p_sum as f64
    }

    /// `I_MI^dc`: per-constraint minimal violation count (§5.3 semantics —
    /// a tuple set flagged by two constraints counts twice), summed from
    /// the per-component counts (dirty components are counted first).
    pub fn i_mi_dc(&mut self) -> f64 {
        self.i_mi_by_dc().iter().sum::<usize>() as f64
    }

    /// The per-constraint minimal violation counts behind
    /// [`i_mi_dc`](Self::i_mi_dc), in constraint order — the per-DC
    /// drilldown the serving layer exposes.
    pub fn i_mi_by_dc(&mut self) -> Vec<usize> {
        self.ensure_components();
        self.dc_sum.clone()
    }

    /// The clean components without a `kind` value, ascending.
    fn pending(&self, kind: Solve) -> &BTreeSet<CompId> {
        match kind {
            Solve::Cover(_) => &self.ir_pending,
            Solve::Lin => &self.lin_pending,
        }
    }

    /// The one solve loop: solves `kind` on every clean component that
    /// lacks a value — sequentially, or over a crossbeam scope when the
    /// thread budget and job count allow — and stores the values found.
    /// Job `i`'s result lands in slot `i`, so the outcome is independent
    /// of scheduling. Workers take no new component once `deadline` has
    /// passed, and a cover solve stops at the deadline or its step
    /// budget. Returns the components left unsolved, ascending; a deadline
    /// that has already passed counts the cache hits and returns the
    /// pending set before any set-up.
    fn solve_pending(&mut self, kind: Solve, deadline: Option<Instant>) -> Vec<CompId> {
        let jobs: Vec<CompId> = self.pending(kind).iter().copied().collect();
        let (cache_hits, solves) = match kind {
            Solve::Cover(_) => (
                &mut self.stats.cover_cache_hits,
                &mut self.stats.cover_solves,
            ),
            Solve::Lin => (&mut self.stats.lin_cache_hits, &mut self.stats.lin_solves),
        };
        *cache_hits += (self.comp_cache.len() - jobs.len()) as u64;
        if jobs.is_empty() || deadline.is_some_and(|d| Instant::now() >= d) {
            return jobs;
        }
        let _span = match kind {
            Solve::Cover(_) => inconsist_obs::span!("solve.dirty_component"),
            Solve::Lin => inconsist_obs::span!("solve.lp"),
        };
        let mut slots: Vec<Option<f64>> = vec![None; jobs.len()];
        let attempted = {
            // Borrow the cached minimal sets in place: the scoped workers
            // never need owned copies.
            let minimal: Vec<&[ViolationSet]> = jobs
                .iter()
                .map(|c| self.comp_cache[c].minimal.as_slice())
                .collect();
            let db = &self.db;
            let next = AtomicUsize::new(0);
            let work = || {
                let mut out = Vec::new();
                while deadline.is_none_or(|d| Instant::now() < d) {
                    let i = next.fetch_add(1, atomic::Ordering::Relaxed);
                    let Some(&m) = minimal.get(i) else { break };
                    let value = match kind {
                        Solve::Cover(steps) => {
                            let mut budget = Budget::with_deadline(steps, deadline);
                            component_min_repair(db, m, &mut budget).map(|r| r.weight)
                        }
                        Solve::Lin => component_min_repair_lin(db, m),
                    };
                    out.push((i, value));
                }
                out
            };
            let workers = self.solve_threads.min(jobs.len());
            let done: Vec<(usize, Option<f64>)> = if workers <= 1 {
                work()
            } else {
                crossbeam::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers).map(|_| scope.spawn(|_| work())).collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("solver worker panicked"))
                        .collect()
                })
                .expect("crossbeam scope propagates panics")
            };
            for &(i, value) in &done {
                slots[i] = value;
            }
            done.len() as u64
        };
        *solves += attempted;
        inconsist_obs::counter!("incremental_components_visited_total").add(attempted);
        let mut unsolved = Vec::new();
        for (c, slot) in jobs.into_iter().zip(slots) {
            let Some(value) = slot else {
                unsolved.push(c);
                continue;
            };
            let cache = self.comp_cache.get_mut(&c).expect("clean component");
            let (stored, pending, memo) = match kind {
                Solve::Cover(_) => (&mut cache.ir, &mut self.ir_pending, &mut self.ir_total),
                Solve::Lin => (
                    &mut cache.ir_lin,
                    &mut self.lin_pending,
                    &mut self.lin_total,
                ),
            };
            *stored = Some(value);
            pending.remove(&c);
            memo.take();
        }
        unsolved
    }

    /// The ascending fold of every component's `kind` value, memoized per
    /// index state: `Some` iff no component is dirty and every one holds
    /// a value. A `&self` read, so concurrent shared readers may fill it.
    fn total(&self, kind: Solve) -> Option<f64> {
        let memo = match kind {
            Solve::Cover(_) => &self.ir_total,
            Solve::Lin => &self.lin_total,
        };
        (self.dirty.is_empty() && self.pending(kind).is_empty()).then(|| {
            *memo.get_or_init(|| {
                // Explicit `0.0` start: f64's `Sum` identity is -0.0,
                // which would leak a negative zero on consistent data.
                self.comp_cache
                    .values()
                    .fold(0.0, |sum, cache| sum + kind.cached(cache).expect("solved"))
            })
        })
    }

    /// The blocking read: solves every dirty component, then reads the
    /// memoized total; a step budget that runs out is
    /// [`MeasureError::Timeout`].
    fn exact(&mut self, kind: Solve) -> MeasureResult {
        self.ensure_components();
        if !self.solve_pending(kind, None).is_empty() {
            return Err(MeasureError::Timeout);
        }
        Ok(self.total(kind).expect("every component just solved"))
    }

    /// The deadline read: the same solves, then the ascending fold of
    /// [`total`](Self::total), in which the components left unsolved
    /// contribute bounds read off their cached minimal subsets and tuple
    /// costs alone (see [`component_bounds`]); for `I_R` a stored
    /// `I_R^lin` raises the lower bound.
    fn anytime(&mut self, kind: Solve, deadline: Option<Instant>) -> AnytimeValue {
        self.ensure_components();
        let partial = !self.solve_pending(kind, deadline).is_empty();
        let (mut value, mut upper) = (0.0, 0.0);
        for cache in self.comp_cache.values() {
            if let Some(v) = kind.cached(cache) {
                value += v;
                upper += v;
                continue;
            }
            let (mut lower, high) = component_bounds(&self.db, cache);
            if let (Solve::Cover(_), Some(lin)) = (kind, cache.ir_lin) {
                lower = lower.max(lin.min(high));
            }
            value += lower;
            upper += high;
        }
        AnytimeValue {
            value,
            upper,
            partial,
        }
    }

    /// `I_R` (deletions): exact minimum-cost repair over the maintained
    /// violations. Solves each dirty component independently (in parallel
    /// under the thread budget), never the self-join, then reads the
    /// memoized ascending component-order sum.
    pub fn i_r(&mut self, options: &MeasureOptions) -> MeasureResult {
        self.exact(Solve::Cover(options.vc_budget))
    }

    /// `I_R^lin`: the LP relaxation (Fig. 2) over the maintained
    /// violations, solved per dirty component (in parallel under the
    /// thread budget) and summed in ascending component order.
    pub fn i_r_lin(&mut self) -> MeasureResult {
        self.exact(Solve::Lin)
    }

    // -- deadline-bounded (anytime) reads ----------------------------------

    /// `I_R` under a wall-clock deadline: solves dirty components exactly,
    /// through the same fan-out as [`i_r`](Self::i_r), until the deadline
    /// or a component's step budget runs out; the components left
    /// unsolved degrade to bounds (see [`AnytimeValue`]), which are never
    /// cached. With `deadline: None` this still degrades (rather than
    /// erroring) on step-budget exhaustion.
    pub fn i_r_anytime(
        &mut self,
        options: &MeasureOptions,
        deadline: Option<Instant>,
    ) -> AnytimeValue {
        self.anytime(Solve::Cover(options.vc_budget), deadline)
    }

    /// `I_R^lin` under a wall-clock deadline, the same way.
    pub fn i_r_lin_anytime(&mut self, deadline: Option<Instant>) -> AnytimeValue {
        self.anytime(Solve::Lin, deadline)
    }

    // -- optimistic `&self` reads ------------------------------------------

    /// `I_MI` from caches only: `Some` iff no mutation dirtied state since
    /// the caches were last filled (see [`warm`](Self::warm)).
    pub fn try_i_mi(&self) -> Option<f64> {
        self.dirty.is_empty().then_some(self.mi_sum as f64)
    }

    /// `I_P` from caches only; `None` when any component is dirty.
    pub fn try_i_p(&self) -> Option<f64> {
        self.dirty.is_empty().then_some(self.p_sum as f64)
    }

    /// `I_R` from caches only: every component must hold a solved value.
    /// The sum is the same memoized ascending-order fold
    /// [`i_r`](Self::i_r) reads, so the result is bit-identical to it.
    /// A stored value is an exact optimum whatever step budget it was
    /// solved under (the budget only stops a search), so it serves every
    /// `options.vc_budget`.
    pub fn try_i_r(&self, options: &MeasureOptions) -> Option<f64> {
        self.total(Solve::Cover(options.vc_budget))
    }

    /// `I_R^lin` from caches only (the memoized ascending-order sum).
    pub fn try_i_r_lin(&self) -> Option<f64> {
        self.total(Solve::Lin)
    }

    /// `I_MI^dc` from caches only; `None` when any component is dirty.
    pub fn try_i_mi_dc(&self) -> Option<f64> {
        let total = || self.dc_sum.iter().sum::<usize>() as f64;
        self.dirty.is_empty().then(total)
    }

    /// Per-constraint minimal counts from caches only, in constraint order.
    pub fn try_i_mi_by_dc(&self) -> Option<Vec<usize>> {
        self.dirty.is_empty().then(|| self.dc_sum.clone())
    }

    // -- one entry point per reader kind -----------------------------------

    /// Any [`Measure`] from caches only, through its `try_*` kernel; `None`
    /// when a cache it reads is cold. `I_MC` is a pure read of the live
    /// database, so its budget or overflow error is `Some(Err(..))`.
    pub fn try_measure(&self, m: Measure, options: &MeasureOptions) -> Option<MeasureResult> {
        Some(Ok(match m {
            Measure::Id => self.i_d(),
            Measure::Mi => self.try_i_mi()?,
            Measure::P => self.try_i_p()?,
            Measure::MiDc => self.try_i_mi_dc()?,
            Measure::R => self.try_i_r(options)?,
            Measure::RLin => self.try_i_r_lin()?,
            Measure::Mc => {
                return Some(
                    MaximalConsistentSubsets { options: *options }.eval(&self.cs, &self.db),
                )
            }
            Measure::Raw => self.raw_violations() as f64,
            Measure::Components => self.component_count() as f64,
        }))
    }

    /// Any [`Measure`], filling the caches it needs, through its `i_*`
    /// kernel. With a deadline, `I_R` and `I_R^lin` are the anytime reads
    /// and may come back partial; every other read is exact.
    pub fn measure(
        &mut self,
        m: Measure,
        options: &MeasureOptions,
        deadline: Option<Instant>,
    ) -> Result<AnytimeValue, MeasureError> {
        let value = match (m, deadline) {
            (Measure::R, Some(_)) => return Ok(self.i_r_anytime(options, deadline)),
            (Measure::RLin, Some(_)) => return Ok(self.i_r_lin_anytime(deadline)),
            (Measure::R, None) => self.i_r(options)?,
            (Measure::RLin, None) => self.i_r_lin()?,
            (Measure::Mi, _) => self.i_mi(),
            (Measure::P, _) => self.i_p(),
            (Measure::MiDc, _) => self.i_mi_dc(),
            _ => self.try_measure(m, options).expect("needs no cache")?,
        };
        Ok(AnytimeValue {
            value,
            upper: value,
            partial: false,
        })
    }

    /// Fills every cache the `try_*` readers consult, so that — until the
    /// next mutation — shared (`&self`) reads answer all measures. This
    /// re-filters and re-solves exactly the dirty components (fanning
    /// solves across the thread budget).
    pub fn warm(&mut self, options: &MeasureOptions) -> Result<(), MeasureError> {
        self.exact(Solve::Cover(options.vc_budget))?;
        self.exact(Solve::Lin).map(drop)
    }

    /// Tuples ranked by how many raw bindings they currently appear in —
    /// the "address the tuples with the highest responsibility" heuristic
    /// of §1, answered in `O(n log n)` from the conflict graph's nodes.
    pub fn hottest_tuples(&self, k: usize) -> Vec<(TupleId, usize)> {
        let mut counts: Vec<(TupleId, usize)> = self.graph.node_label_counts().collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counts.truncate(k);
        counts
    }

    // -- per-tuple responsibility measures ---------------------------------

    /// Sorts scores into the top-k order `(cbm desc, cim desc, rim desc,
    /// tuple asc)` — the order of the maintained rank set.
    fn rank_tuple_scores(scores: &mut [TupleScores]) {
        scores.sort_by(rank_order);
    }

    /// Per-tuple responsibility scores ([`TupleScores`]) of every tuple
    /// appearing in some minimal inconsistent subset, sorted by tuple id.
    /// Tuples outside every subset are omitted (their scores are all zero
    /// — see [`tuple_measure`](Self::tuple_measure)).
    ///
    /// The scores are computed component-locally from the per-component
    /// minimal caches (dirty components are re-filtered first). The kernel
    /// sums each tuple's subset-size reciprocals in a canonical
    /// (ascending) order, so they equal the batch scores over the global
    /// `MI_Σ(D)` bit-for-bit.
    pub fn tuple_measures(&mut self) -> Vec<TupleScores> {
        self.ensure_components();
        self.try_tuple_measures().expect("caches just filled")
    }

    /// The `k` most inconsistent tuples under the ranking
    /// `(cbm desc, cim desc, rim desc, tuple asc)` — ties broken by tuple
    /// id so the cut is stable across runs and thread counts.
    pub fn top_k_tuples(&mut self, k: usize) -> Vec<TupleScores> {
        self.ensure_components();
        self.try_top_k_tuples(k).expect("caches just filled")
    }

    /// [`tuple_measures`](Self::tuple_measures) from caches only: `Some`
    /// iff no mutation dirtied state since the caches were last filled.
    /// Bit-identical to the exclusive path.
    pub fn try_tuple_measures(&self) -> Option<Vec<TupleScores>> {
        if !self.dirty.is_empty() {
            return None;
        }
        let mut out: Vec<TupleScores> = self
            .comp_cache
            .values()
            .flat_map(|cache| cache.scores.iter().map(|key| key.scores()))
            .collect();
        // Components partition the scored tuples; one sort merges the
        // per-component (already sorted) runs.
        out.sort_by_key(|s| s.tuple);
        Some(out)
    }

    /// [`top_k_tuples`](Self::top_k_tuples) from caches only: the first
    /// `k` entries of the maintained rank set, `O(k)`.
    pub fn try_top_k_tuples(&self, k: usize) -> Option<Vec<TupleScores>> {
        self.dirty
            .is_empty()
            .then(|| self.ranked.iter().take(k).map(|key| key.scores()).collect())
    }

    /// The responsibility scores of one tuple: `None` when the tuple is
    /// not live in the database, all-zero when it participates in no
    /// minimal inconsistent subset (a *free* tuple), its component-local
    /// scores otherwise.
    ///
    /// Only the tuple's own component is (re)filtered — the
    /// tuple→component lookup rides the maintained conflict graph, so a
    /// point query stays local no matter how dirty the rest of the index
    /// is.
    pub fn tuple_measure(&mut self, t: TupleId) -> Option<TupleScores> {
        self.db.fact(t)?;
        let zero = TupleScores {
            tuple: t,
            cbm: 0.0,
            cim: 0.0,
            pim: 0.0,
            rim: 0.0,
        };
        let Some(c) = self.graph.component_of(t) else {
            return Some(zero);
        };
        self.ensure_component(c);
        let scores = &self.comp_cache[&c].scores;
        Some(
            scores
                .binary_search_by_key(&t, |key| key.tuple)
                .map(|i| scores[i].scores())
                // In the graph but only via non-minimal sets: still free at
                // the minimal level.
                .unwrap_or(zero),
        )
    }

    /// Internal consistency check used by tests: rebuilds from scratch and
    /// cross-validates the database's built postings, the raw binding
    /// sets, the maintained component structure and every cached
    /// aggregate, patched or filled, against a fresh fill of its
    /// component: minimal sets, scores, per-DC minimal pairs and the
    /// pairs-only flag; then solved cover values, the dirty and pending
    /// sets, the integer sums, the rank set and the memoized folds.
    /// Expensive; not for production loops.
    #[doc(hidden)]
    pub fn self_check(&self) -> bool {
        // The oracle below enumerates over a clone of `self.db`, which
        // carries the built postings along: they must equal a rebuild from
        // the code columns, or a corrupt map would vouch for itself.
        if !self.db.postings_consistent() {
            return false;
        }
        let fresh = match Self::build(self.db.clone(), self.cs.clone()) {
            Ok(fresh) => fresh,
            Err(_) => return false,
        };
        // Maintained graph: structurally sound, and its labelled edges are
        // exactly a fresh build's.
        fn labelled(g: &DynamicConflictGraph) -> HashMap<&ViolationSet, &[usize]> {
            g.labelled_sets().collect()
        }
        if self.graph.check_consistency().is_err()
            || labelled(&fresh.graph) != labelled(&self.graph)
        {
            return false;
        }
        // Every cached component aggregate must match a from-scratch
        // recomputation of that component.
        let mut dc_sum = vec![0; self.cs.len()];
        for (c, cache) in &self.comp_cache {
            let edges = self.graph.component_sets(*c);
            if edges.is_empty() {
                return false; // cache entry for a dead component
            }
            let minimal = engine::filter_minimal_sorted(edges.iter().map(|e| e.0.into()).collect());
            if cache.minimal != minimal {
                return false;
            }
            let mut dc = dc_minimal(&edges, &minimal);
            dc.sort_unstable();
            if cache.dc_minimal != dc || cache.pairs_only != edges.iter().all(|e| e.0.len() <= 2) {
                return false;
            }
            cache.dc_minimal.iter().for_each(|&dc| dc_sum[dc] += 1);
            // Bit-exact round trip through the packed keys.
            let scores = cache.scores.iter().map(|key| key.scores());
            if !scores.eq(component_tuple_scores(&minimal)) {
                return false;
            }
            if let Some(value) = cache.ir {
                // Any budget that lets the search finish gives the same bits.
                match component_min_repair(&self.db, &minimal, &mut Budget::steps(u64::MAX)) {
                    Some(r) if r.weight == value => {}
                    _ => return false,
                }
            }
            if let Some(value) = cache.ir_lin {
                match component_min_repair_lin(&self.db, &minimal) {
                    Some(v) if (v - value).abs() < 1e-9 => {}
                    _ => return false,
                }
            }
        }
        // The dirty set holds every live component without a cache (a
        // cache of a dead component failed above), and only live ones.
        let live: BTreeSet<CompId> = self.graph.component_ids().collect();
        let uncached = live.iter().filter(|c| !self.comp_cache.contains_key(c));
        if !self.dirty.is_subset(&live) || !uncached.into_iter().all(|c| self.dirty.contains(c)) {
            return false;
        }
        // The pending sets and integer sums equal a fresh pass over the
        // caches.
        let pending = |unsolved: fn(&CompCache) -> bool| -> BTreeSet<CompId> {
            self.comp_cache
                .iter()
                .filter(|(_, cache)| unsolved(cache))
                .map(|(&c, _)| c)
                .collect()
        };
        if pending(|cache| cache.ir.is_none()) != self.ir_pending
            || pending(|cache| cache.ir_lin.is_none()) != self.lin_pending
        {
            return false;
        }
        let mi: usize = self.comp_cache.values().map(|c| c.minimal.len()).sum();
        let p: usize = self.comp_cache.values().map(|c| c.scores.len()).sum();
        if (mi, p) != (self.mi_sum, self.p_sum) || dc_sum != self.dc_sum {
            return false;
        }
        // The rank set equals a re-rank of the per-component scores.
        let mut all: Vec<TupleScores> = self
            .comp_cache
            .values()
            .flat_map(|cache| cache.scores.iter().map(|key| key.scores()))
            .collect();
        Self::rank_tuple_scores(&mut all);
        if !self.ranked.iter().map(|key| key.scores()).eq(all) {
            return false;
        }
        // Filled memos must equal a fresh ascending fold, bit for bit.
        let fold = |value: fn(&CompCache) -> Option<f64>| {
            self.comp_cache
                .values()
                .try_fold(0.0, |sum: f64, cache| Some(sum + value(cache)?))
                .map(f64::to_bits)
        };
        if let Some(memo) = self.ir_total.get() {
            if fold(|cache| cache.ir) != Some(memo.to_bits()) {
                return false;
            }
        }
        if let Some(memo) = self.lin_total.get() {
            if fold(|cache| cache.ir_lin) != Some(memo.to_bits()) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::{
        InconsistencyMeasure, LinearMinimumRepair, MinimalInconsistentSubsets, MinimalViolations,
        MinimumRepair, ProblematicFacts,
    };
    use inconsist_constraints::{dc::build, CmpOp, Fd};
    use inconsist_relational::{relation, Schema, ValueKind};
    use rand::prelude::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn setup() -> (Arc<Schema>, inconsist_relational::RelId) {
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
        (Arc::new(s), r)
    }

    fn two_fd_cs(s: &Arc<Schema>, r: inconsist_relational::RelId) -> ConstraintSet {
        let mut cs = ConstraintSet::new(Arc::clone(s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        cs.add_fd(Fd::new(r, [AttrId(1)], [AttrId(2)]));
        cs
    }

    fn fact3(r: inconsist_relational::RelId, a: i64, b: i64, c: i64) -> Fact {
        Fact::new(r, [Value::int(a), Value::int(b), Value::int(c)])
    }

    /// Asserts the incremental reads match the batch measures, which
    /// re-enumerate the violations from scratch.
    fn assert_matches_scratch(idx: &mut IncrementalIndex) {
        let opts = MeasureOptions::default();
        let db = idx.db().clone();
        let cs = idx.constraints().clone();
        assert!(idx.self_check(), "maintained state diverged");
        assert_eq!(
            idx.i_mi(),
            MinimalInconsistentSubsets { options: opts }
                .eval(&cs, &db)
                .unwrap()
        );
        assert_eq!(
            idx.i_p(),
            ProblematicFacts { options: opts }.eval(&cs, &db).unwrap()
        );
        assert_eq!(
            idx.i_r(&opts).unwrap(),
            MinimumRepair { options: opts }.eval(&cs, &db).unwrap()
        );
        let lin_inc = idx.i_r_lin().unwrap();
        let lin_scratch = LinearMinimumRepair { options: opts }
            .eval(&cs, &db)
            .unwrap();
        assert!((lin_inc - lin_scratch).abs() < 1e-6);
        assert_eq!(
            idx.is_consistent(),
            inconsist_constraints::is_consistent(&db, &cs)
        );
        // The per-DC counts, the assembled `MI_Σ(D)` and the per-tuple
        // scores must agree exactly too (unit costs throughout the tests,
        // so the per-component sums are exact).
        assert_eq!(
            idx.i_mi_dc(),
            MinimalViolations { options: opts }.eval(&cs, &db).unwrap()
        );
        // Each count lands on its own constraint.
        let per_dc = engine::violations_per_dc(&db, &cs, None);
        let lens: Vec<usize> = per_dc.iter().map(|v| v.sets.len()).collect();
        assert_eq!(idx.i_mi_by_dc(), lens);
        let batch = engine::minimal_inconsistent_subsets(&db, &cs, None);
        let listed: HashSet<ViolationSet> = idx.minimal_subsets().into_iter().collect();
        assert_eq!(listed, batch.subsets.iter().cloned().collect());
        assert_eq!(idx.tuple_measures(), component_tuple_scores(&batch.subsets));
        // The counts read off the graph's labels must equal a recount of
        // each DC's deduplicated raw bindings.
        let mut raw = 0;
        let mut per_tuple: HashMap<TupleId, usize> = HashMap::new();
        for dc in cs.dcs() {
            let mut sets: HashSet<Vec<TupleId>> = HashSet::new();
            engine::for_each_violation(&db, dc, &mut |set: &[TupleId]| {
                sets.insert(set.to_vec());
                ControlFlow::Continue(())
            });
            raw += sets.len();
            for &t in sets.iter().flatten() {
                *per_tuple.entry(t).or_default() += 1;
            }
        }
        assert_eq!(idx.raw_violations(), raw);
        let mut hot: Vec<(TupleId, usize)> = per_tuple.into_iter().collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        assert_eq!(idx.hottest_tuples(usize::MAX), hot);
    }

    #[test]
    fn build_matches_table1() {
        let (d1, cs) = crate::paper::airport_d1();
        let mut idx = IncrementalIndex::build(d1, cs).unwrap();
        assert_eq!(idx.i_d(), 1.0);
        assert_eq!(idx.i_mi(), 7.0);
        assert_eq!(idx.i_p(), 5.0);
        assert_eq!(idx.i_r(&MeasureOptions::default()).unwrap(), 3.0);
        assert!((idx.i_r_lin().unwrap() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn tuple_measures_match_batch_and_recover_aggregates() {
        let (d1, cs) = crate::paper::airport_d1();
        let mut idx = IncrementalIndex::build(d1, cs).unwrap();
        let comp = idx.tuple_measures();
        let mi = engine::minimal_inconsistent_subsets(idx.db(), idx.constraints(), None);
        let batch = component_tuple_scores(&mi.subsets);
        // Bit-identical to the batch kernel over the whole database's
        // `MI_Σ(D)` — PartialEq on f64 fields.
        assert_eq!(batch, comp);
        // Σ cim recovers I_MI, Σ pim recovers I_P.
        let cim: f64 = comp.iter().map(|s| s.cim).sum();
        assert!((cim - idx.i_mi()).abs() < 1e-9);
        assert_eq!(comp.iter().map(|s| s.pim).sum::<f64>(), idx.i_p());
        // Top-k: ranked by cbm first, k-bounded, the batch ranking's head.
        let top = idx.top_k_tuples(3);
        assert_eq!(top.len(), 3);
        let mut ranked = batch;
        IncrementalIndex::rank_tuple_scores(&mut ranked);
        assert_eq!(ranked[..3], top[..]);
        assert!(top.windows(2).all(|w| w[0].cbm >= w[1].cbm));
        // Point queries agree with the bulk listing.
        for s in &comp {
            assert_eq!(idx.tuple_measure(s.tuple), Some(*s));
        }
    }

    #[test]
    fn tuple_measure_point_queries_and_cache_riding() {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        let a = db.insert(fact3(r, 1, 1, 0)).unwrap();
        let b = db.insert(fact3(r, 1, 2, 0)).unwrap();
        let free = db.insert(fact3(r, 7, 7, 7)).unwrap();
        let mut idx = IncrementalIndex::build(db, two_fd_cs(&s, r)).unwrap();
        // Fresh index, dirty component: the try paths refuse.
        assert!(idx.try_tuple_measures().is_none());
        assert!(idx.try_top_k_tuples(1).is_none());
        // Point queries: the conflicting pair scores, the free tuple is
        // all-zero, a dead id is None.
        let sa = idx.tuple_measure(a).unwrap();
        assert_eq!((sa.cbm, sa.cim, sa.pim, sa.rim), (1.0, 0.5, 1.0, 0.5));
        let sf = idx.tuple_measure(free).unwrap();
        assert_eq!((sf.cbm, sf.cim, sf.pim, sf.rim), (0.0, 0.0, 0.0, 0.0));
        assert!(idx.tuple_measure(TupleId(999)).is_none());
        // Free tuples are absent from the bulk listing.
        let all = idx.tuple_measures();
        assert_eq!(all.iter().map(|s| s.tuple).collect::<Vec<_>>(), vec![a, b]);
        // The point query warmed the pair's component, so the try paths
        // now answer, bit-identically to the exclusive paths...
        assert_eq!(idx.try_tuple_measures().unwrap(), all);
        assert_eq!(idx.try_top_k_tuples(1).unwrap(), idx.top_k_tuples(1));
        // ...until the next mutation dirties the component again.
        let c = idx.insert(fact3(r, 1, 3, 0)).unwrap();
        assert!(idx.try_tuple_measures().is_none());
        let sa = idx.tuple_measure(a).unwrap();
        assert_eq!(sa.cbm, 2.0); // {a,b} and {a,c}
        assert_eq!(idx.top_k_tuples(10).len(), 3);
        let _ = c;
    }

    #[test]
    fn delete_detaches_incident_violations() {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        let hub = db.insert(fact3(r, 1, 1, 0)).unwrap();
        db.insert(fact3(r, 1, 2, 0)).unwrap();
        db.insert(fact3(r, 1, 3, 0)).unwrap();
        let mut idx = IncrementalIndex::build(db, two_fd_cs(&s, r)).unwrap();
        assert_eq!(idx.i_mi(), 3.0); // three conflicting pairs
        idx.delete(hub);
        // The two survivors still agree on A and differ on B: one pair left.
        assert_eq!(idx.i_mi(), 1.0);
        assert_matches_scratch(&mut idx);
        idx.delete(TupleId(999)); // no-op
        assert_matches_scratch(&mut idx);
    }

    #[test]
    fn insert_discovers_new_violations() {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        db.insert(fact3(r, 1, 1, 0)).unwrap();
        db.insert(fact3(r, 2, 2, 0)).unwrap();
        let mut idx = IncrementalIndex::build(db, two_fd_cs(&s, r)).unwrap();
        assert!(idx.is_consistent());
        idx.insert(fact3(r, 1, 9, 9)).unwrap();
        assert_eq!(idx.i_mi(), 1.0);
        assert_matches_scratch(&mut idx);
        idx.insert(fact3(r, 1, 9, 8)).unwrap(); // conflicts via A→B with f0 and B→C with previous
        assert_matches_scratch(&mut idx);
    }

    #[test]
    fn update_moves_tuple_between_conflicts() {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        let t0 = db.insert(fact3(r, 1, 1, 0)).unwrap();
        db.insert(fact3(r, 1, 2, 0)).unwrap();
        db.insert(fact3(r, 3, 3, 3)).unwrap();
        let mut idx = IncrementalIndex::build(db, two_fd_cs(&s, r)).unwrap();
        assert_eq!(idx.i_mi(), 1.0);
        // Resolve the A→B conflict by moving t0 out of the A=1 block…
        idx.update(t0, AttrId(0), Value::int(7)).unwrap();
        assert!(idx.is_consistent());
        assert_matches_scratch(&mut idx);
        // …then create a fresh B→C conflict.
        idx.update(t0, AttrId(1), Value::int(3)).unwrap();
        assert_eq!(idx.i_mi(), 1.0);
        assert_matches_scratch(&mut idx);
        // Identity update is a no-op and must not disturb the index.
        idx.update(t0, AttrId(1), Value::int(3)).unwrap();
        assert_matches_scratch(&mut idx);
    }

    #[test]
    fn unary_dc_singletons_are_maintained() {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        let bad = db.insert(fact3(r, -1, 0, 0)).unwrap();
        db.insert(fact3(r, 5, 0, 0)).unwrap();
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_dc(
            build::unary(
                "pos",
                r,
                vec![build::uc(AttrId(0), CmpOp::Lt, Value::int(0))],
                &s,
            )
            .unwrap(),
        );
        let mut idx = IncrementalIndex::build(db, cs).unwrap();
        assert_eq!(idx.i_mi(), 1.0);
        assert_eq!(idx.i_r(&MeasureOptions::default()).unwrap(), 1.0);
        idx.update(bad, AttrId(0), Value::int(3)).unwrap();
        assert!(idx.is_consistent());
        assert_matches_scratch(&mut idx);
        idx.update(bad, AttrId(0), Value::int(-9)).unwrap();
        assert_eq!(idx.i_mi(), 1.0);
        assert_matches_scratch(&mut idx);
    }

    #[test]
    fn hottest_tuples_ranks_by_incidence() {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        let hub = db.insert(fact3(r, 1, 1, 0)).unwrap();
        db.insert(fact3(r, 1, 2, 1)).unwrap();
        db.insert(fact3(r, 1, 3, 2)).unwrap();
        db.insert(fact3(r, 9, 9, 9)).unwrap();
        let idx = IncrementalIndex::build(db, two_fd_cs(&s, r)).unwrap();
        let hot = idx.hottest_tuples(2);
        assert_eq!(hot.len(), 2);
        // All three A=1 tuples pairwise violate A→B: equal incidence (2 each),
        // ties broken by tuple id, so the hub (lowest id) is first.
        assert_eq!(hot[0].0, hub);
        assert_eq!(hot[0].1, 2);
    }

    #[test]
    fn apply_repair_ops_keeps_sync() {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        let t0 = db.insert(fact3(r, 1, 1, 0)).unwrap();
        db.insert(fact3(r, 1, 2, 0)).unwrap();
        let mut idx = IncrementalIndex::build(db, two_fd_cs(&s, r)).unwrap();
        assert!(idx.apply(&RepairOp::Update(t0, AttrId(1), Value::int(2))));
        assert!(idx.is_consistent());
        assert!(idx.apply(&RepairOp::Insert(fact3(r, 1, 5, 5))));
        assert!(!idx.is_consistent());
        assert!(idx.apply(&RepairOp::Delete(t0)));
        assert_matches_scratch(&mut idx);
        // Inapplicable ops return false and change nothing.
        assert!(!idx.apply(&RepairOp::Delete(TupleId(777))));
        assert!(!idx.apply(&RepairOp::Update(TupleId(777), AttrId(0), Value::int(1))));
        assert_matches_scratch(&mut idx);
    }

    #[test]
    fn truncation_reported_at_build() {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        for i in 0..30 {
            db.insert(fact3(r, 1, i, 0)).unwrap();
        }
        let cs = two_fd_cs(&s, r);
        assert_eq!(
            IncrementalIndex::build_with_limit(db, cs, Some(5)).err(),
            Some(MeasureError::Truncated)
        );
    }

    /// A database with `blocks` independent conflict components: block `k`
    /// holds two tuples agreeing on `A = k` and disagreeing on `B`.
    fn multi_component(
        s: &Arc<Schema>,
        r: inconsist_relational::RelId,
        blocks: i64,
    ) -> (Database, Vec<TupleId>) {
        let mut db = Database::new(Arc::clone(s));
        let mut firsts = Vec::new();
        for k in 0..blocks {
            firsts.push(db.insert(fact3(r, k, 2 * k, 0)).unwrap());
            db.insert(fact3(r, k, 2 * k + 1, 0)).unwrap();
        }
        (db, firsts)
    }

    #[test]
    fn reads_touch_only_dirty_components() {
        let (s, r) = setup();
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        let (db, firsts) = multi_component(&s, r, 4);
        let mut idx = IncrementalIndex::build(db, cs).unwrap();
        let opts = MeasureOptions::default();
        assert_eq!(idx.component_count(), 4);
        // Cold reads: every component is filtered and solved once.
        assert_eq!(idx.i_mi(), 4.0);
        assert_eq!(idx.i_p(), 8.0);
        assert_eq!(idx.i_r(&opts).unwrap(), 4.0);
        assert_eq!(idx.i_r_lin().unwrap(), 4.0);
        let cold = idx.stats();
        assert_eq!(cold.filter_runs, 4);
        assert_eq!(cold.cover_solves, 4);
        assert_eq!(cold.lin_solves, 4);
        assert_eq!(idx.dirty_component_count(), 0);

        // One update inside block 0: exactly one component is dirty, and a
        // full read round re-filters and re-solves only that one.
        idx.reset_stats();
        idx.update(firsts[0], AttrId(1), Value::int(99)).unwrap();
        assert_eq!(idx.dirty_component_count(), 1);
        assert_eq!(idx.i_mi(), 4.0);
        assert_eq!(idx.i_p(), 8.0);
        assert_eq!(idx.i_r(&opts).unwrap(), 4.0);
        assert_eq!(idx.i_r_lin().unwrap(), 4.0);
        let warm = idx.stats();
        assert_eq!(warm.filter_runs, 1, "only the dirty component re-filters");
        assert_eq!(warm.cover_solves, 1, "only the dirty component re-solves");
        assert_eq!(warm.lin_solves, 1);
        assert_eq!(warm.cover_cache_hits, 3);
        assert_eq!(warm.lin_cache_hits, 3);

        // A delete resolving block 1 dirties only that component.
        idx.reset_stats();
        idx.delete(firsts[1]);
        assert_eq!(idx.i_mi(), 3.0);
        assert_eq!(idx.i_r(&opts).unwrap(), 3.0);
        assert_eq!(idx.stats().filter_runs, 0, "component dissolved, no work");
        assert_eq!(idx.stats().cover_solves, 0);
        assert_matches_scratch(&mut idx);
    }

    #[test]
    fn bridging_insert_merges_and_articulation_delete_splits() {
        let (s, r) = setup();
        let cs = two_fd_cs(&s, r);
        let mut db = Database::new(Arc::clone(&s));
        // Two components under A→B: {a1, a2} (A=1) and {b1, b2} (A=2).
        let a1 = db.insert(fact3(r, 1, 10, 0)).unwrap();
        db.insert(fact3(r, 1, 11, 0)).unwrap();
        db.insert(fact3(r, 2, 20, 0)).unwrap();
        db.insert(fact3(r, 2, 21, 0)).unwrap();
        let mut idx = IncrementalIndex::build(db, cs).unwrap();
        assert_eq!(idx.component_count(), 2);
        assert_eq!(idx.i_mi(), 2.0);
        assert_matches_scratch(&mut idx);

        // Bridge: A=1 conflicts with the first block under A→B, while
        // B=20 with a fresh C conflicts with b1 under B→C — one insert
        // merges the two components.
        let bridge = idx.insert(fact3(r, 1, 20, 9)).unwrap();
        assert_eq!(idx.component_count(), 1);
        assert_matches_scratch(&mut idx);

        // Deleting the bridge (an articulation tuple) splits it back.
        idx.delete(bridge);
        assert_eq!(idx.component_count(), 2);
        assert_matches_scratch(&mut idx);
        let _ = a1;
    }

    #[test]
    fn multi_component_reads_match_batch_measures() {
        let (s, r) = setup();
        let (db, firsts) = multi_component(&s, r, 3);
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        let mut idx = IncrementalIndex::build(db, cs).unwrap();
        assert_eq!(idx.i_mi(), 3.0);
        assert_matches_scratch(&mut idx);
        idx.delete(firsts[2]);
        assert_matches_scratch(&mut idx);
    }

    #[test]
    fn i_mi_dc_reuses_untouched_constraint_counts() {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        // A→B violated by the A=1 block; B→C violated by the B=7 block.
        db.insert(fact3(r, 1, 1, 0)).unwrap();
        let t1 = db.insert(fact3(r, 1, 2, 0)).unwrap();
        db.insert(fact3(r, 5, 7, 1)).unwrap();
        db.insert(fact3(r, 6, 7, 2)).unwrap();
        let mut idx = IncrementalIndex::build(db, two_fd_cs(&s, r)).unwrap();
        assert_eq!(idx.i_mi_dc(), 2.0);
        // One filter run per component, per-DC counts included.
        assert_eq!(idx.stats().filter_runs, 2);
        // Mutating a tuple of the A→B block leaves the B→C block's counts
        // cached.
        idx.update(t1, AttrId(1), Value::int(3)).unwrap();
        idx.reset_stats();
        assert_eq!(idx.i_mi_dc(), 2.0);
        assert_eq!(idx.stats().filter_runs, 1, "only its block re-counts");
        assert_matches_scratch(&mut idx);
    }

    /// Per-constraint minimality is not global minimality: a set counts
    /// under each constraint it is minimal for among that constraint's
    /// sets, whatever other constraints flag inside it.
    #[test]
    fn per_dc_counts_follow_per_constraint_minimality() {
        use inconsist_constraints::{Atom, DenialConstraint, Predicate};
        let (s, r) = setup();
        let (a, b, c) = (AttrId(0), AttrId(1), AttrId(2));
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        let neg = vec![build::uc(b, CmpOp::Lt, Value::int(0))];
        cs.add_dc(build::unary("neg", r, neg, &s).unwrap());
        cs.add_fd(Fd::new(r, [a], [b]));
        // Three atoms over one `A` block whose ends differ on `C`: the
        // middle atom may be either end, so every flagged triple holds a
        // pair the same constraint flags.
        let same_a = |x, y| Predicate::attr_attr(x, a, CmpOp::Eq, y, a);
        let tri = vec![
            same_a(0, 1),
            same_a(1, 2),
            Predicate::attr_attr(0, c, CmpOp::Neq, 2, c),
        ];
        let atoms = vec![Atom { rel: r }; 3];
        cs.add_dc(DenialConstraint::new("tri", atoms, tri, &s).unwrap());
        let mut db = Database::new(Arc::clone(&s));
        // `neg` flags {t}; `A → B` flags {t, u}, minimal under it although
        // {t} makes it globally redundant.
        let t = db.insert(fact3(r, 1, -1, 0)).unwrap();
        db.insert(fact3(r, 1, 2, 0)).unwrap();
        // `tri` flags the three pairs of the block and the triple.
        for colour in 0..3 {
            db.insert(fact3(r, 5, 0, colour)).unwrap();
        }
        let mut idx = IncrementalIndex::build(db, cs).unwrap();
        assert_eq!(
            idx.raw_violations(),
            6,
            "{{t}}, {{t, u}}, three pairs, the triple"
        );
        assert_eq!(idx.i_mi_by_dc(), vec![1, 1, 3]);
        assert_eq!(idx.i_mi(), 4.0);
        assert_matches_scratch(&mut idx);
        // No longer negative: {t, u} is globally minimal now.
        let mut updated = idx.clone();
        updated.update(t, b, Value::int(5)).unwrap();
        assert_eq!(updated.i_mi_by_dc(), vec![0, 1, 3]);
        assert_matches_scratch(&mut updated);
        idx.delete(t);
        assert_eq!(idx.i_mi_by_dc(), vec![0, 0, 3]);
        assert_matches_scratch(&mut idx);
    }

    #[test]
    fn parallel_dirty_solves_are_bit_identical() {
        let (s, r) = setup();
        let (db, firsts) = multi_component(&s, r, 16);
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        let opts = MeasureOptions::default();
        let mut seq = IncrementalIndex::build(db.clone(), cs.clone()).unwrap();
        let mut par = IncrementalIndex::build(db, cs).unwrap();
        par.set_solve_threads(4);
        assert_eq!(par.solve_threads(), 4);
        // Cold read: all 16 components dirty → 16 fanned-out solves.
        assert_eq!(seq.i_r(&opts).unwrap(), par.i_r(&opts).unwrap());
        assert_eq!(seq.i_r_lin().unwrap(), par.i_r_lin().unwrap());
        assert_eq!(seq.stats(), par.stats(), "same work, different threads");
        // Dirty several components at once, then read again.
        for &t in firsts.iter().take(5) {
            seq.update(t, AttrId(1), Value::int(-7)).unwrap();
            par.update(t, AttrId(1), Value::int(-7)).unwrap();
        }
        assert!(par.dirty_component_count() > 1);
        assert_eq!(seq.i_r(&opts).unwrap(), par.i_r(&opts).unwrap());
        assert_eq!(seq.i_r_lin().unwrap(), par.i_r_lin().unwrap());
        assert_eq!(seq.i_mi(), par.i_mi());
        assert_eq!(seq.stats(), par.stats());
        // The deadline readers fan out the same way and return the
        // sequential bits.
        for &t in firsts.iter().skip(5).take(5) {
            seq.update(t, AttrId(1), Value::int(-7)).unwrap();
            par.update(t, AttrId(1), Value::int(-7)).unwrap();
        }
        let (a, b) = (seq.i_r_anytime(&opts, None), par.i_r_anytime(&opts, None));
        assert!(!a.partial && !b.partial);
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        let (a, b) = (seq.i_r_lin_anytime(None), par.i_r_lin_anytime(None));
        assert!(!a.partial && !b.partial);
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(seq.stats(), par.stats());
        // An expired deadline at 4 threads degrades the dirty components
        // to bounds that hold the exact value.
        for &t in firsts.iter().skip(10) {
            par.update(t, AttrId(1), Value::int(-7)).unwrap();
        }
        let expired = Instant::now();
        let ir = par.i_r_anytime(&opts, Some(expired));
        let lin = par.i_r_lin_anytime(Some(expired));
        assert!(ir.partial && lin.partial);
        let exact = par.i_r(&opts).unwrap();
        assert!(ir.value <= exact && exact <= ir.upper, "{ir:?} vs {exact}");
        let exact = par.i_r_lin().unwrap();
        assert!(
            lin.value <= exact && exact <= lin.upper,
            "{lin:?} vs {exact}"
        );
        assert_matches_scratch(&mut par);
    }

    #[test]
    fn costed_parallel_solves_are_bit_identical() {
        // Dense A→C / B→C blocks whose deletion costs are not dyadic, so
        // optimal covers of one block can differ in the last bit of their
        // sums: 1 and 4 solve threads must still serve the same bits.
        let mut s = Schema::new();
        let attrs = [
            ("A", ValueKind::Int),
            ("B", ValueKind::Int),
            ("C", ValueKind::Int),
            ("cost", ValueKind::Float),
        ];
        let r = s.add_relation(relation("R", &attrs).unwrap()).unwrap();
        s.set_cost_attr(r, "cost").unwrap();
        let s = Arc::new(s);
        let mut rng = StdRng::seed_from_u64(31);
        let mut db = Database::new(Arc::clone(&s));
        let mut ids = Vec::new();
        for block in 0..12i64 {
            for _ in 0..14 {
                let fact = Fact::new(
                    r,
                    [
                        Value::int(block * 4 + rng.gen_range(0..4)),
                        Value::int(block * 4 + rng.gen_range(0..4)),
                        Value::int(rng.gen_range(0..3)),
                        Value::float([0.1, 0.3, 0.7, 1.9][rng.gen_range(0..4)]),
                    ],
                );
                ids.push(db.insert(fact).unwrap());
            }
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(2)]));
        cs.add_fd(Fd::new(r, [AttrId(1)], [AttrId(2)]));
        let opts = MeasureOptions::default();
        // A clone of one build; a second build would do as well, since
        // builds over the same data number their components, and so order
        // the `I_R` fold, alike.
        let mut seq = IncrementalIndex::build(db, cs).unwrap();
        let mut par = seq.clone();
        par.set_solve_threads(4);
        for round in 0..4 {
            let (a, b) = (seq.i_r(&opts).unwrap(), par.i_r(&opts).unwrap());
            assert_eq!(a.to_bits(), b.to_bits(), "round {round}: {a} vs {b}");
            let (a, b) = (seq.i_r_lin().unwrap(), par.i_r_lin().unwrap());
            assert_eq!(a.to_bits(), b.to_bits(), "round {round}: {a} vs {b}");
            let batch = MinimumRepair::default().eval(seq.constraints(), seq.db());
            assert!((batch.unwrap() - seq.i_r(&opts).unwrap()).abs() < 1e-9);
            for _ in 0..6 {
                let t = ids[rng.gen_range(0..ids.len())];
                let c = Value::int(rng.gen_range(0..3));
                seq.update(t, AttrId(2), c.clone()).unwrap();
                par.update(t, AttrId(2), c).unwrap();
            }
        }
    }

    #[test]
    fn builds_over_the_same_costed_data_serve_the_same_bits() {
        // Dense A→C / B→C blocks with non-dyadic costs: the `I_R` and
        // `I_R^lin` folds run in component-id order, so four separate
        // builds (each with its own hash seeds) must number their
        // components alike, before and after the same writes, to serve
        // the same bits.
        let mut s = Schema::new();
        let attrs = [
            ("A", ValueKind::Int),
            ("B", ValueKind::Int),
            ("C", ValueKind::Int),
            ("cost", ValueKind::Float),
        ];
        let r = s.add_relation(relation("R", &attrs).unwrap()).unwrap();
        s.set_cost_attr(r, "cost").unwrap();
        let s = Arc::new(s);
        let mut rng = StdRng::seed_from_u64(34);
        let mut db = Database::new(Arc::clone(&s));
        for block in 0..12i64 {
            for _ in 0..14 {
                let fact = Fact::new(
                    r,
                    [
                        Value::int(block * 4 + rng.gen_range(0..4)),
                        Value::int(block * 4 + rng.gen_range(0..4)),
                        Value::int(rng.gen_range(0..3)),
                        Value::float([0.1, 0.3, 0.7, 1.9][rng.gen_range(0..4)]),
                    ],
                );
                db.insert(fact).unwrap();
            }
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(2)]));
        cs.add_fd(Fd::new(r, [AttrId(1)], [AttrId(2)]));
        let opts = MeasureOptions::default();
        let ids = db.ids_of(r);
        let mut builds: Vec<IncrementalIndex> = (0..4)
            .map(|_| IncrementalIndex::build(db.clone(), cs.clone()).unwrap())
            .collect();
        // Then the same writes (merging and splitting blocks' components)
        // to every build.
        for round in 0..4 {
            let served: Vec<(u64, u64)> = builds
                .iter_mut()
                .map(|idx| {
                    let ir = idx.i_r(&opts).unwrap();
                    (ir.to_bits(), idx.i_r_lin().unwrap().to_bits())
                })
                .collect();
            assert!(
                served.windows(2).all(|w| w[0] == w[1]),
                "round {round}: {served:?}"
            );
            for _ in 0..6 {
                let t = ids[rng.gen_range(0..ids.len())];
                let c = Value::int(rng.gen_range(0..3));
                for idx in &mut builds {
                    idx.update(t, AttrId(2), c.clone()).unwrap();
                }
            }
        }
    }

    #[test]
    fn expired_deadline_bounds_come_from_subsets_and_costs() {
        // Six disjoint triangles: A→B conflicts among three tuples each.
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        for c in 0..6 {
            for b in 0..3 {
                db.insert(fact3(r, c, 3 * c + b, 0)).unwrap();
            }
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        let opts = MeasureOptions::default();
        let mut idx = IncrementalIndex::build(db, cs).unwrap();
        let expired = Some(Instant::now());
        // Nothing solved: each triangle packs one pair (its cheapest tuple
        // costs 1) and has three problematic tuples.
        let ir = idx.i_r_anytime(&opts, expired);
        let lin = idx.i_r_lin_anytime(expired);
        assert_eq!((ir.value, ir.upper, ir.partial), (6.0, 18.0, true));
        assert_eq!((lin.value, lin.upper, lin.partial), (6.0, 18.0, true));
        let exact_lin = idx.i_r_lin().unwrap();
        assert_eq!(exact_lin, 9.0);
        assert!(lin.value <= exact_lin && exact_lin <= lin.upper);
        // A stored `I_R^lin` raises each unsolved `I_R` lower bound.
        let ir = idx.i_r_anytime(&opts, expired);
        assert_eq!((ir.value, ir.upper, ir.partial), (9.0, 18.0, true));
        let exact_ir = idx.i_r(&opts).unwrap();
        assert_eq!(exact_ir, 12.0);
        assert!(ir.value <= exact_ir && exact_ir <= ir.upper);
    }

    #[test]
    fn expired_deadline_reads_count_their_cache_hits() {
        let (s, r) = setup();
        let (db, firsts) = multi_component(&s, r, 4);
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        let opts = MeasureOptions::default();
        let mut idx = IncrementalIndex::build(db, cs).unwrap();
        idx.warm(&opts).unwrap();
        // Fully cached: the read is exact and every component is a hit.
        idx.reset_stats();
        assert!(!idx.i_r_anytime(&opts, Some(Instant::now())).partial);
        assert!(!idx.i_r_lin_anytime(Some(Instant::now())).partial);
        let cached = idx.stats();
        assert_eq!((cached.cover_cache_hits, cached.cover_solves), (4, 0));
        assert_eq!((cached.lin_cache_hits, cached.lin_solves), (4, 0));
        // One dirty component: the clean three still count as hits.
        idx.update(firsts[0], AttrId(1), Value::int(99)).unwrap();
        idx.reset_stats();
        assert!(idx.i_r_anytime(&opts, Some(Instant::now())).partial);
        assert!(idx.i_r_lin_anytime(Some(Instant::now())).partial);
        let dirty = idx.stats();
        assert_eq!((dirty.cover_cache_hits, dirty.cover_solves), (3, 0));
        assert_eq!((dirty.lin_cache_hits, dirty.lin_solves), (3, 0));
    }

    #[test]
    fn every_measure_round_trips_through_its_name() {
        for m in Measure::ALL {
            assert_eq!(Measure::parse(m.name()), Some(m));
        }
        assert_eq!(Measure::parse("per_dc"), None);
        assert_eq!(Measure::parse("i_mi"), None);
    }

    #[test]
    fn try_reads_answer_iff_warm() {
        let (s, r) = setup();
        let (db, firsts) = multi_component(&s, r, 3);
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        let opts = MeasureOptions::default();
        let mut idx = IncrementalIndex::build(db, cs).unwrap();
        // Cold: every component is dirty, shared reads must refuse.
        assert_eq!(idx.try_i_mi(), None);
        assert_eq!(idx.try_i_r(&opts), None);
        assert_eq!(idx.try_i_mi_dc(), None);
        idx.warm(&opts).unwrap();
        assert_eq!(idx.try_i_mi(), Some(3.0));
        assert_eq!(idx.try_i_p(), Some(6.0));
        assert_eq!(idx.try_i_r(&opts), Some(idx.i_r(&opts).unwrap()));
        assert_eq!(idx.try_i_r_lin(), Some(idx.i_r_lin().unwrap()));
        assert_eq!(idx.try_i_mi_dc(), Some(idx.i_mi_dc()));
        assert_eq!(idx.try_i_mi_by_dc(), Some(vec![3]));
        // A different budget reads the cached optima: no cover solve, and
        // the bits of a scratch index solved under that budget.
        let other = MeasureOptions {
            vc_budget: opts.vc_budget - 1,
            ..opts
        };
        let solves = idx.stats().cover_solves;
        let mut scratch =
            IncrementalIndex::build(idx.db().clone(), idx.constraints().clone()).unwrap();
        let want = scratch.i_r(&other).unwrap().to_bits();
        assert_eq!(idx.try_i_r(&other).map(f64::to_bits), Some(want));
        assert_eq!(idx.i_r(&other).unwrap().to_bits(), want);
        assert_eq!(idx.stats().cover_solves, solves);
        // A write dirties one component: shared reads refuse again…
        idx.update(firsts[0], AttrId(1), Value::int(77)).unwrap();
        assert_eq!(idx.try_i_mi(), None);
        assert_eq!(idx.try_i_r(&opts), None);
        assert_eq!(idx.try_i_mi_dc(), None);
        // …until the next warm, which re-solves only the dirty one.
        idx.reset_stats();
        idx.warm(&opts).unwrap();
        assert_eq!(idx.stats().filter_runs, 1, "the dirty component only");
        assert_eq!(idx.stats().cover_solves, 1);
        assert_eq!(idx.try_i_mi(), Some(3.0));
        assert_matches_scratch(&mut idx);
    }

    /// The shared readers of `idx`, bit for bit (`to_bits`, so `-0.0`
    /// and `0.0` differ).
    fn shared_bits(idx: &IncrementalIndex, opts: &MeasureOptions) -> [Option<u64>; 4] {
        [
            idx.try_i_mi().map(f64::to_bits),
            idx.try_i_p().map(f64::to_bits),
            idx.try_i_r(opts).map(f64::to_bits),
            idx.try_i_r_lin().map(f64::to_bits),
        ]
    }

    /// The `&mut` readers of `idx` under `opts`, bit for bit.
    fn exclusive_bits(idx: &mut IncrementalIndex, opts: &MeasureOptions) -> [Option<u64>; 4] {
        [
            Some(idx.i_mi().to_bits()),
            Some(idx.i_p().to_bits()),
            Some(idx.i_r(opts).unwrap().to_bits()),
            Some(idx.i_r_lin().unwrap().to_bits()),
        ]
    }

    /// A live tuple whose deletion removes its whole component and
    /// touches no other: every edge of its component contains it.
    fn dissolving_tuple(idx: &IncrementalIndex) -> Option<TupleId> {
        let mut ids: Vec<TupleId> = idx.db().ids().collect();
        ids.sort_unstable();
        ids.into_iter().find(|&t| {
            idx.graph.component_of(t).is_some_and(|c| {
                idx.graph
                    .component_sets(c)
                    .iter()
                    .all(|(set, _)| set.contains(&t))
            })
        })
    }

    #[test]
    fn memoized_reads_match_exclusive_and_scratch_on_random_sequences() {
        let (s, r) = setup();
        let budgets = [
            MeasureOptions::default(),
            MeasureOptions {
                vc_budget: MeasureOptions::default().vc_budget - 1,
                ..MeasureOptions::default()
            },
        ];
        // Sparse values, so the conflict graph splits into many small
        // components that single deletes can dissolve.
        let random_fact = |rng: &mut StdRng| {
            fact3(
                r,
                rng.gen_range(0..8),
                rng.gen_range(0..8),
                rng.gen_range(0..4),
            )
        };
        let mut rng = StdRng::seed_from_u64(20);
        let (mut shared_hits, mut dissolves) = (0, 0);
        for _ in 0..24 {
            let mut db = Database::new(Arc::clone(&s));
            for _ in 0..12 {
                db.insert(random_fact(&mut rng)).unwrap();
            }
            let mut idx = IncrementalIndex::build(db, two_fd_cs(&s, r)).unwrap();
            for _ in 0..40 {
                let opts = &budgets[rng.gen_range(0..2)];
                let other = &budgets[usize::from(opts.vc_budget == budgets[0].vc_budget)];
                match rng.gen_range(0..7) {
                    // Shared read: refuses on any dirty component, and
                    // otherwise equals the exclusive and scratch readers.
                    0 | 1 => {
                        let shared = shared_bits(&idx, opts);
                        let top = idx.try_top_k_tuples(3);
                        if idx.dirty_component_count() > 0 {
                            assert_eq!(shared, [None; 4]);
                            assert!(top.is_none());
                            continue;
                        }
                        shared_hits += 1;
                        let mut scratch =
                            IncrementalIndex::build(idx.db().clone(), idx.constraints().clone())
                                .unwrap();
                        let expected = exclusive_bits(&mut scratch, opts);
                        for (got, want) in shared.iter().zip(&expected) {
                            assert!(got.is_none() || got == want, "{shared:?} vs {expected:?}");
                        }
                        assert_eq!(top, Some(scratch.top_k_tuples(3)));
                    }
                    // Exclusive read: fills what it needs, after which the
                    // shared readers answer the same bits. Half of them
                    // solve through the anytime readers first (after an
                    // `I_MI` read has folded the unsolved state).
                    2 => {
                        if rng.gen_bool(0.5) {
                            idx.i_mi();
                            let lin = idx.i_r_lin_anytime(None);
                            assert!(!lin.partial);
                            let shared = idx.try_i_r_lin().map(f64::to_bits);
                            assert_eq!(shared, Some(lin.value.to_bits()));
                            let ir = idx.i_r_anytime(opts, None);
                            assert!(!ir.partial);
                            let shared = idx.try_i_r(opts).map(f64::to_bits);
                            assert_eq!(shared, Some(ir.value.to_bits()));
                        }
                        let exclusive = exclusive_bits(&mut idx, opts);
                        let top = idx.top_k_tuples(3);
                        assert_eq!(shared_bits(&idx, opts), exclusive);
                        assert_eq!(idx.try_top_k_tuples(3), Some(top.clone()));
                        // Another budget reads the cached optima: no cover
                        // solve, and a scratch solve's bits under it.
                        let solves = idx.stats().cover_solves;
                        let want =
                            IncrementalIndex::build(idx.db().clone(), idx.constraints().clone())
                                .unwrap()
                                .i_r(other)
                                .unwrap()
                                .to_bits();
                        assert_eq!(idx.try_i_r(other).map(f64::to_bits), Some(want));
                        assert_eq!(idx.i_r(other).unwrap().to_bits(), want);
                        assert_eq!(idx.stats().cover_solves, solves, "other budget re-solved");
                        let mut scratch =
                            IncrementalIndex::build(idx.db().clone(), idx.constraints().clone())
                                .unwrap();
                        assert_eq!(exclusive_bits(&mut scratch, opts), exclusive);
                        assert_eq!(scratch.top_k_tuples(3), top);
                    }
                    // A write that only dissolves a component leaves every
                    // other cache (and so the shared path) intact; half of
                    // them follow a `warm`, the serving layer's refill.
                    3 | 4 => {
                        if rng.gen_bool(0.5) {
                            idx.warm(opts).unwrap();
                        }
                        let Some(t) = dissolving_tuple(&idx) else {
                            continue;
                        };
                        let was_clean = idx.dirty_component_count() == 0;
                        let before = idx.component_count();
                        idx.delete(t);
                        assert_eq!(idx.component_count(), before - 1);
                        if was_clean {
                            dissolves += 1;
                            assert_eq!(idx.dirty_component_count(), 0);
                            assert!(idx.try_i_mi().is_some() && idx.try_i_p().is_some());
                        }
                    }
                    // Any other write.
                    _ => {
                        let ids: Vec<TupleId> = idx.db().ids().collect();
                        if ids.is_empty() || rng.gen_bool(0.3) {
                            idx.insert(random_fact(&mut rng)).unwrap();
                        } else {
                            let t = ids[rng.gen_range(0..ids.len())];
                            let a = AttrId(rng.gen_range(0..3));
                            idx.update(t, a, Value::int(rng.gen_range(0..8))).unwrap();
                        }
                    }
                }
                assert!(idx.self_check(), "memo diverged from a fresh fold");
            }
        }
        // The sequences exercise the interesting branches.
        assert!(shared_hits > 50, "only {shared_hits} clean shared reads");
        assert!(
            dissolves > 5,
            "only {dissolves} dissolving writes on a clean index"
        );
    }

    /// The maintained rank set against a from-scratch re-rank after every
    /// op of random sequences that merge and split components: every
    /// top-`k` cut (shared and exclusive) and the full score listing.
    #[test]
    fn maintained_ranking_matches_rerank_on_random_sequences() {
        let (s, r) = setup();
        // A dense value range, so inserts bridge components and deletes
        // and updates cut them apart.
        let random_fact = |rng: &mut StdRng| {
            fact3(
                r,
                rng.gen_range(0..5),
                rng.gen_range(0..5),
                rng.gen_range(0..3),
            )
        };
        let mut rng = StdRng::seed_from_u64(26);
        let (mut merges, mut splits, mut shared_hits) = (0, 0, 0);
        for _ in 0..12 {
            let mut db = Database::new(Arc::clone(&s));
            for _ in 0..10 {
                db.insert(random_fact(&mut rng)).unwrap();
            }
            let mut idx = IncrementalIndex::build(db, two_fd_cs(&s, r)).unwrap();
            for _ in 0..40 {
                let before = idx.component_count();
                let ids: Vec<TupleId> = idx.db().ids().collect();
                match rng.gen_range(0..3) {
                    0 => {
                        idx.insert(random_fact(&mut rng)).unwrap();
                    }
                    1 if ids.len() > 3 => {
                        idx.delete(ids[rng.gen_range(0..ids.len())]);
                    }
                    _ if !ids.is_empty() => {
                        let t = ids[rng.gen_range(0..ids.len())];
                        let a = AttrId(rng.gen_range(0..3));
                        idx.update(t, a, Value::int(rng.gen_range(0..5))).unwrap();
                    }
                    _ => {}
                }
                let after = idx.component_count();
                merges += usize::from(after < before);
                splits += usize::from(after > before);
                let batch = component_tuple_scores(
                    &engine::minimal_inconsistent_subsets(idx.db(), idx.constraints(), None)
                        .subsets,
                );
                let mut scratch =
                    IncrementalIndex::build(idx.db().clone(), idx.constraints().clone()).unwrap();
                scratch.ensure_components();
                let mut ranked = scratch.try_tuple_measures().unwrap();
                assert_eq!(ranked, batch);
                IncrementalIndex::rank_tuple_scores(&mut ranked);
                let ks = [0, 1, 10, ranked.len() + 1];
                // Shared first: refuses while dirty, else already exact.
                if idx.dirty_component_count() == 0 {
                    shared_hits += 1;
                    for k in ks {
                        assert_eq!(
                            idx.try_top_k_tuples(k).unwrap(),
                            ranked[..k.min(ranked.len())]
                        );
                    }
                } else {
                    assert!(idx.try_top_k_tuples(1).is_none());
                    assert!(idx.try_tuple_measures().is_none());
                }
                for k in ks {
                    assert_eq!(idx.top_k_tuples(k), ranked[..k.min(ranked.len())]);
                    assert_eq!(
                        idx.try_top_k_tuples(k).unwrap(),
                        ranked[..k.min(ranked.len())]
                    );
                }
                assert_eq!(idx.tuple_measures(), batch);
                assert_eq!(idx.try_tuple_measures().unwrap(), batch);
                assert!(idx.self_check(), "rank set diverged");
            }
        }
        assert!(
            merges > 20 && splits > 20,
            "{merges} merges, {splits} splits"
        );
        assert!(shared_hits > 20, "only {shared_hits} clean shared reads");
    }

    /// Random ops over two DCs whose delta probes pin atom 1: an
    /// asymmetric eq-keyed self-join (`t.K = t'.K ∧ t.A < t'.A`) and a
    /// cross-relation FK denial whose atom 1 is the parent relation. A
    /// pinned probe binds its atom first and reaches atom 0 through the
    /// postings; after every op the index must equal the batch engine.
    #[test]
    fn atom_one_probes_match_batch_on_random_sequences() {
        use inconsist_constraints::{Atom, DenialConstraint, Predicate};
        let mut s = Schema::new();
        let cols = [("K", ValueKind::Int), ("A", ValueKind::Int)];
        let child = s.add_relation(relation("child", &cols).unwrap()).unwrap();
        let parent = s.add_relation(relation("parent", &cols).unwrap()).unwrap();
        let s = Arc::new(s);
        let (k, a) = (AttrId(0), AttrId(1));
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_dc(
            build::binary(
                "asym",
                child,
                vec![build::tt(k, CmpOp::Eq, k), build::tt(a, CmpOp::Lt, a)],
                &s,
            )
            .unwrap(),
        );
        cs.add_dc(
            DenialConstraint::new(
                "fk",
                vec![Atom { rel: child }, Atom { rel: parent }],
                vec![
                    Predicate::attr_attr(0, k, CmpOp::Eq, 1, k),
                    Predicate::attr_attr(0, a, CmpOp::Lt, 1, a),
                ],
                &s,
            )
            .unwrap(),
        );
        assert!(!cs.dcs()[0].is_symmetric());
        let mut rng = StdRng::seed_from_u64(25);
        let fact = |rng: &mut StdRng| {
            let rel = if rng.gen_bool(0.6) { child } else { parent };
            Fact::new(
                rel,
                [
                    Value::int(rng.gen_range(0..4)),
                    Value::int(rng.gen_range(0..5)),
                ],
            )
        };
        for _ in 0..4 {
            let mut db = Database::new(Arc::clone(&s));
            for _ in 0..14 {
                db.insert(fact(&mut rng)).unwrap();
            }
            let mut idx = IncrementalIndex::build(db, cs.clone()).unwrap();
            for _ in 0..30 {
                let ids: Vec<TupleId> = idx.db().ids().collect();
                let pick = ids[rng.gen_range(0..ids.len())];
                match rng.gen_range(0..3) {
                    0 => {
                        idx.insert(fact(&mut rng)).unwrap();
                    }
                    1 if ids.len() > 4 => {
                        idx.delete(pick);
                    }
                    _ => {
                        let attr = AttrId(rng.gen_range(0..2));
                        idx.update(pick, attr, Value::int(rng.gen_range(0..5)))
                            .unwrap();
                    }
                }
                assert_matches_scratch(&mut idx);
            }
        }
    }

    #[test]
    fn random_operation_sequences_stay_in_sync() {
        let (s, r) = setup();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..8 {
            let mut db = Database::new(Arc::clone(&s));
            for _ in 0..12 {
                db.insert(fact3(
                    r,
                    rng.gen_range(0..4),
                    rng.gen_range(0..4),
                    rng.gen_range(0..3),
                ))
                .unwrap();
            }
            let mut cs = two_fd_cs(&s, r);
            // Mix in an order DC so asymmetric probing is exercised.
            cs.add_dc(
                build::binary(
                    "ord",
                    r,
                    vec![
                        build::tt(AttrId(1), CmpOp::Lt, AttrId(1)),
                        build::tt(AttrId(2), CmpOp::Gt, AttrId(2)),
                    ],
                    &s,
                )
                .unwrap(),
            );
            let mut idx = IncrementalIndex::build(db, cs).unwrap();
            for step in 0..25 {
                let ids: Vec<TupleId> = idx.db().ids().collect();
                match rng.gen_range(0..3) {
                    0 => {
                        idx.insert(fact3(
                            r,
                            rng.gen_range(0..4),
                            rng.gen_range(0..4),
                            rng.gen_range(0..3),
                        ))
                        .unwrap();
                    }
                    1 if !ids.is_empty() => {
                        let t = ids[rng.gen_range(0..ids.len())];
                        idx.delete(t);
                    }
                    _ if !ids.is_empty() => {
                        let t = ids[rng.gen_range(0..ids.len())];
                        let a = AttrId(rng.gen_range(0..3));
                        idx.update(t, a, Value::int(rng.gen_range(0..4))).unwrap();
                    }
                    _ => {}
                }
                if step % 5 == 4 {
                    assert_matches_scratch(&mut idx);
                }
            }
            assert_matches_scratch(&mut idx);
        }
    }

    /// Random writes over FD + unary-DC instances, so that singletons
    /// appear and vanish inside pair components, with inserts that merge
    /// and deletes that split; one instance adds a 3-atom DC whose
    /// hyperedges send their components down the refill path. After every
    /// op the patched caches must equal a scratch build's: `I_MI`, `I_P`,
    /// the per-DC counts, `I_R`, `I_R^lin`, the scores, every top-`k` cut
    /// and `self_check`.
    #[test]
    fn patched_caches_match_scratch_on_random_sequences() {
        use inconsist_constraints::{Atom, DenialConstraint, Predicate};
        let (s, r) = setup();
        let (a, b, c) = (AttrId(0), AttrId(1), AttrId(2));
        let mut cs = two_fd_cs(&s, r);
        let neg = vec![build::uc(c, CmpOp::Lt, Value::int(0))];
        cs.add_dc(build::unary("neg", r, neg, &s).unwrap());
        let mut with_triples = cs.clone();
        let same_a = |x, y| Predicate::attr_attr(x, a, CmpOp::Eq, y, a);
        let tri = vec![
            same_a(0, 1),
            same_a(1, 2),
            Predicate::attr_attr(0, b, CmpOp::Lt, 1, b),
            Predicate::attr_attr(1, b, CmpOp::Lt, 2, b),
            Predicate::attr_attr(0, c, CmpOp::Gt, 2, c),
        ];
        let atoms = vec![Atom { rel: r }; 3];
        with_triples.add_dc(DenialConstraint::new("tri", atoms, tri, &s).unwrap());
        let random_fact = |rng: &mut StdRng| {
            fact3(
                r,
                rng.gen_range(0..6),
                rng.gen_range(0..6),
                rng.gen_range(-2..3),
            )
        };
        let opts = MeasureOptions::default();
        let mut rng = StdRng::seed_from_u64(40);
        let (mut patched, mut refilled, mut merges, mut splits) = (0, 0, 0, 0);
        for round in 0..10 {
            let cs = if round == 0 { &with_triples } else { &cs };
            let mut db = Database::new(Arc::clone(&s));
            for _ in 0..14 {
                db.insert(random_fact(&mut rng)).unwrap();
            }
            let mut idx = IncrementalIndex::build(db, cs.clone()).unwrap();
            idx.warm(&opts).unwrap();
            for _ in 0..40 {
                // Sorted, so that the op sequence is the same in every
                // process.
                let mut ids: Vec<TupleId> = idx.db().ids().collect();
                ids.sort_unstable();
                let before = idx.component_count();
                match rng.gen_range(0..4) {
                    0 => {
                        idx.insert(random_fact(&mut rng)).unwrap();
                    }
                    1 if ids.len() > 4 => {
                        idx.delete(ids[rng.gen_range(0..ids.len())]);
                    }
                    _ => {
                        let t = ids[rng.gen_range(0..ids.len())];
                        let attr = AttrId(rng.gen_range(0..3));
                        let v = if attr == c { -2..3 } else { 0..6 };
                        idx.update(t, attr, Value::int(rng.gen_range(v))).unwrap();
                    }
                }
                let after = idx.component_count();
                merges += usize::from(after < before);
                splits += usize::from(after > before);
                let touched = idx.dirty_component_count() > 0;
                idx.reset_stats();
                let mut scratch =
                    IncrementalIndex::build(idx.db().clone(), idx.constraints().clone()).unwrap();
                assert_eq!(idx.i_mi(), scratch.i_mi());
                assert_eq!(idx.i_p(), scratch.i_p());
                assert_eq!(idx.i_mi_by_dc(), scratch.i_mi_by_dc());
                assert_eq!(idx.i_mi_dc(), scratch.i_mi_dc());
                let ir = idx.i_r(&opts).unwrap().to_bits();
                assert_eq!(ir, scratch.i_r(&opts).unwrap().to_bits());
                let lin = idx.i_r_lin().unwrap().to_bits();
                assert_eq!(lin, scratch.i_r_lin().unwrap().to_bits());
                assert_eq!(idx.tuple_measures(), scratch.tuple_measures());
                for k in [1, 3, usize::MAX] {
                    assert_eq!(idx.top_k_tuples(k), scratch.top_k_tuples(k));
                    assert_eq!(idx.try_top_k_tuples(k), scratch.try_top_k_tuples(k));
                }
                assert!(idx.self_check(), "patched cache diverged");
                if touched {
                    if idx.stats().filter_runs == 0 {
                        patched += 1;
                    } else {
                        refilled += 1;
                    }
                }
            }
        }
        // Both paths, and the structural changes, are exercised.
        assert!(
            patched > 250 && refilled > 50,
            "{patched} patched, {refilled} refilled"
        );
        assert!(
            merges > 10 && splits > 10,
            "{merges} merges, {splits} splits"
        );
    }
}
