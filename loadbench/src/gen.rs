//! Seeded inputs: the sessions each workload preloads and the request
//! stream its single client sends. Everything here is a pure function of
//! `(workload, seed, seconds)`; the server only ever sees the generated
//! CSV/`.dc` text and request lines.

use inconsist::relational::{AttrId, Database, RelId, TupleId};
use inconsist_data::scenario::{
    generate_scenario, inject, lineitem_attr as li, DcSet, ScenarioSpec,
};
use inconsist_formats::csv::{load_csv, write_csv};
use inconsist_formats::dcfile::write_dc_file;
use inconsist_formats::opsfile::parse_ops_file;
use inconsist_server::Json;
use rand::prelude::*;

/// The measures every read asks for.
pub const MEASURES: [&str; 5] = ["I_d", "I_MI", "I_P", "I_R", "I_R^lin"];

/// The measures `measure_all` folds across sessions (`I_d` is a 0/1 flag
/// and is not summable).
pub const GATHER_MEASURES: [&str; 4] = ["I_MI", "I_P", "I_R", "I_R^lin"];

/// One benchmark workload (see README.md for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Dashboard polling a large, mostly clean session.
    ReadHot,
    /// Cleaning loop over dense, overlapping FD conflicts.
    RepairDense,
    /// Long op batches against a durable (`--fsync always`) session.
    IngestDurable,
    /// Coordinator over two spawned worker shards, eight small sessions.
    FleetRead,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ReadHot,
        Kind::RepairDense,
        Kind::IngestDurable,
        Kind::FleetRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReadHot => "read_hot",
            Kind::RepairDense => "repair_dense",
            Kind::IngestDurable => "ingest_durable",
            Kind::FleetRead => "fleet_read",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One preloaded session: its files and the injector's ground truth.
#[derive(Clone, Debug)]
pub struct SessionData {
    pub name: String,
    pub csv: String,
    pub dc: String,
    /// Tuples in some violation right after load (the expected `I_P`).
    pub dirty: usize,
}

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Req {
    /// `measure` of [`MEASURES`] on a session.
    Read(usize),
    /// `tuple_measures` with `k = 10`.
    TopK(usize),
    /// `op` with a newline-separated `.ops` script.
    Write(usize, String),
    /// `snapshot` (durable sessions only).
    Snapshot(usize),
    /// `measure_all` through the coordinator.
    Gather,
}

impl Req {
    /// Request-type label used for latency and failure accounting.
    pub fn label(&self) -> &'static str {
        match self {
            Req::Read(_) => "read",
            Req::TopK(_) => "topk",
            Req::Write(..) => "write",
            Req::Snapshot(_) => "snapshot",
            Req::Gather => "gather",
        }
    }

    /// The wire line for this request.
    pub fn line(&self, sessions: &[SessionData]) -> String {
        let name = |s: &usize| Json::str(sessions[*s].name.as_str());
        match self {
            Req::Read(s) => format!(
                "{{\"cmd\":\"measure\",\"session\":{},\"measures\":{}}}",
                name(s),
                measures_json()
            ),
            Req::TopK(s) => format!(
                "{{\"cmd\":\"tuple_measures\",\"session\":{},\"k\":10}}",
                name(s)
            ),
            Req::Write(s, ops) => format!(
                "{{\"cmd\":\"op\",\"session\":{},\"ops\":{}}}",
                name(s),
                Json::str(ops.as_str())
            ),
            Req::Snapshot(s) => format!("{{\"cmd\":\"snapshot\",\"session\":{}}}", name(s)),
            Req::Gather => format!(
                "{{\"cmd\":\"measure_all\",\"measures\":{}}}",
                Json::Arr(GATHER_MEASURES.iter().map(|m| Json::str(*m)).collect())
            ),
        }
    }
}

fn measures_json() -> String {
    Json::Arr(MEASURES.iter().map(|m| Json::str(*m)).collect()).to_string()
}

/// A workload instance: sessions, the request stream and how many of its
/// leading requests are untimed warm-up.
#[derive(Clone, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub sessions: Vec<SessionData>,
    pub stream: Vec<Req>,
    pub warmup: usize,
}

/// Requests (or steps / batches) per second of `--seconds`, calibrated so
/// one run takes about `--seconds` on a 2-core machine. The counts are
/// fixed by the seed and `--seconds`, never by the clock.
fn budget(kind: Kind, seconds: u64) -> usize {
    let per_second = match kind {
        Kind::ReadHot => 2000,
        Kind::RepairDense => 300,
        Kind::IngestDurable => 25,
        Kind::FleetRead => 5000,
    };
    per_second * seconds.max(1) as usize
}

/// Builds the workload for `seed`.
pub fn build(kind: Kind, seed: u64, seconds: u64) -> Workload {
    let n = budget(kind, seconds);
    match kind {
        Kind::ReadHot => {
            // ~30k lineitems, ~1.5k conflict components (FD pairs and
            // single Ship > Receipt tuples).
            let session = scenario_session("bench", 0.5, 0.06, seed);
            let mut mirror = Mirror::new(&session);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x4ead_0007);
            let stream = (0..n)
                .map(|_| match rng.gen_range(0..100u32) {
                    0..=89 => Req::Read(0),
                    90..=94 => Req::TopK(0),
                    _ => Req::Write(0, mirror.ship_edit(&mut rng)),
                })
                .collect();
            Workload {
                kind,
                sessions: vec![session],
                stream,
                warmup: 50,
            }
        }
        Kind::RepairDense => {
            let session = dense_session(seed);
            let mut mirror = Mirror::new(&session);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xde05_e000);
            let mut stream = Vec::with_capacity(n * 2 + n / 10);
            for step in 0..n {
                let ops: Vec<String> = (0..4).map(|_| mirror.dense_edit(&mut rng)).collect();
                stream.push(Req::Write(0, ops.join("\n")));
                stream.push(Req::Read(0));
                if step % 10 == 9 {
                    stream.push(Req::TopK(0));
                }
            }
            Workload {
                kind,
                sessions: vec![session],
                stream,
                warmup: 20,
            }
        }
        Kind::IngestDurable => {
            // ~3k lineitems; 256-op batches of inserts, updates, deletes.
            let session = scenario_session("bench", 0.05, 0.03, seed);
            let mut mirror = Mirror::new(&session);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1a6e_57ed);
            let mut stream = Vec::new();
            for batch in 0..n {
                let ops: Vec<String> = (0..256).map(|_| mirror.ingest_edit(&mut rng)).collect();
                stream.push(Req::Write(0, ops.join("\n")));
                if batch % 16 == 15 {
                    stream.push(Req::Read(0));
                }
                if batch % 64 == 63 {
                    stream.push(Req::Snapshot(0));
                }
            }
            Workload {
                kind,
                sessions: vec![session],
                stream,
                warmup: 4,
            }
        }
        Kind::FleetRead => {
            // Eight ~500-lineitem sessions, spread over two shards.
            let sessions: Vec<SessionData> = (0..8u64)
                .map(|i| {
                    scenario_session(&format!("s{i}"), 0.0085, 0.06, seed.wrapping_add(i * 7919))
                })
                .collect();
            let mut mirrors: Vec<Mirror> = sessions.iter().map(Mirror::new).collect();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xf1ee_7000);
            let stream = (0..n)
                .map(|_| {
                    let s = rng.gen_range(0..sessions.len());
                    match rng.gen_range(0..100u32) {
                        0..=79 => Req::Read(s),
                        80..=89 => Req::Write(s, mirrors[s].ship_edit(&mut rng)),
                        _ => Req::Gather,
                    }
                })
                .collect();
            Workload {
                kind,
                sessions,
                stream,
                warmup: 50,
            }
        }
    }
}

/// A TPC-H `lineitem` session from the scenario generator under the
/// single-relation `Core` constraints, dirtied by the injector.
fn scenario_session(name: &str, scale_factor: f64, ratio: f64, seed: u64) -> SessionData {
    let mut sc = generate_scenario(&ScenarioSpec {
        scale_factor,
        dc_set: DcSet::Core,
        seed,
    });
    let injection = inject(&mut sc, ratio, seed ^ 0x1e57).expect("injection fits the instance");
    SessionData {
        name: name.to_string(),
        csv: write_csv(&sc.db, sc.lineitem),
        dc: write_dc_file(sc.constraints.dcs(), sc.db.schema(), name),
        dirty: injection.dirty.len(),
    }
}

/// Rules of the dense workload: two FDs sharing their right-hand side.
const DENSE_DC: &str = "fd_a: t.A = t'.A & t.C != t'.C\nfd_b: t.B = t'.B & t.C != t'.C\n";
/// Blocks of the dense workload; each block is one conflict region.
const DENSE_BLOCKS: i64 = 200;
/// Tuples per block.
const DENSE_BLOCK_ROWS: i64 = 20;
/// Distinct `A` (and `B`) values per block.
const DENSE_KEYS: i64 = 5;

/// ~4k tuples in blocks of 20 whose `A` and `B` groups overlap, with `C`
/// drawn from three values, so every block is a dense conflict region.
fn dense_session(seed: u64) -> SessionData {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb10c);
    let mut csv = String::from("A,B,C,D\n");
    for block in 0..DENSE_BLOCKS {
        for row in 0..DENSE_BLOCK_ROWS {
            csv.push_str(&format!(
                "{},{},{},{}\n",
                block * DENSE_KEYS + rng.gen_range(0..DENSE_KEYS),
                block * DENSE_KEYS + rng.gen_range(0..DENSE_KEYS),
                rng.gen_range(0..3i64),
                block * DENSE_BLOCK_ROWS + row
            ));
        }
    }
    let mut session = SessionData {
        name: "bench".to_string(),
        csv,
        dc: DENSE_DC.to_string(),
        dirty: 0,
    };
    session.dirty = ground_truth_dirty(&session);
    session
}

/// From-scratch dirty-tuple count of a session's files.
fn ground_truth_dirty(session: &SessionData) -> usize {
    let loaded = load_csv(&session.csv, &session.name).expect("generated CSV loads");
    let dcs = inconsist_formats::dcfile::parse_dc_file(&loaded.schema, &session.name, &session.dc)
        .expect("generated rules parse");
    let mut cs = inconsist::constraints::ConstraintSet::new(loaded.schema.clone());
    for dc in dcs {
        cs.add_dc(dc);
    }
    inconsist_data::scenario::enumerate_dirty(&loaded.db, &cs).len()
}

/// The generator's copy of a session's database, kept in step with the
/// ops it emits so every op names a live tuple.
struct Mirror {
    db: Database,
    rel: RelId,
    schema: std::sync::Arc<inconsist::relational::RelationSchema>,
}

impl Mirror {
    fn new(session: &SessionData) -> Mirror {
        let loaded = load_csv(&session.csv, &session.name).expect("generated CSV loads");
        let schema = loaded.db.relation_schema(loaded.rel).clone();
        Mirror {
            db: loaded.db,
            rel: loaded.rel,
            schema,
        }
    }

    fn live(&self, rng: &mut StdRng) -> TupleId {
        let ids = self.db.ids_of(self.rel);
        ids[rng.gen_range(0..ids.len())]
    }

    fn int(&self, t: TupleId, a: AttrId) -> i64 {
        self.db
            .fact(t)
            .expect("live tuple")
            .value(a)
            .as_int()
            .expect("int attribute")
    }

    /// Applies `ops` to the mirror and returns them as one script.
    fn apply(&mut self, ops: &[String]) -> String {
        let text = ops.join("\n");
        for op in parse_ops_file(&self.schema, self.rel, &text).expect("generated ops parse") {
            op.apply(&mut self.db);
        }
        text
    }

    /// One `Ship` edit of a lineitem: past its `Receipt` (a new one-tuple
    /// component) or back onto it (repairs that violation).
    fn ship_edit(&mut self, rng: &mut StdRng) -> String {
        let t = self.live(rng);
        let receipt = self.int(t, li::RECEIPT);
        let ship = if rng.gen_bool(0.5) {
            receipt + 1
        } else {
            receipt
        };
        self.apply(&[format!("update {} Ship {ship}", t.0)])
    }

    /// One dense-workload repair step: recolour `C`, or move `A`/`B` to
    /// another key of the same block (merging or splitting groups).
    fn dense_edit(&mut self, rng: &mut StdRng) -> String {
        let t = self.live(rng);
        let block = self.int(t, AttrId(3)) / DENSE_BLOCK_ROWS;
        let op = match rng.gen_range(0..3u32) {
            0 => format!("update {} C {}", t.0, rng.gen_range(0..3i64)),
            1 => format!(
                "update {} A {}",
                t.0,
                block * DENSE_KEYS + rng.gen_range(0..DENSE_KEYS)
            ),
            _ => format!(
                "update {} B {}",
                t.0,
                block * DENSE_KEYS + rng.gen_range(0..DENSE_KEYS)
            ),
        };
        // Applied per op so the next op of the batch sees this one.
        self.apply(&[op])
    }

    /// One ingest op: 30% inserts of a lineitem-shaped row (about half
    /// collide with an existing key), 40% updates, 30% deletes.
    fn ingest_edit(&mut self, rng: &mut StdRng) -> String {
        let op = match rng.gen_range(0..10u32) {
            0..=2 => {
                let ship = rng.gen_range(1_000..9_000i64);
                format!(
                    "insert {},{},{},{},{}.{:02},{ship},{}",
                    rng.gen_range(1..=750i64),
                    rng.gen_range(1..=7i64),
                    rng.gen_range(1..=1_500i64),
                    rng.gen_range(1..50i64),
                    rng.gen_range(1..1_000i64),
                    rng.gen_range(0..100i64),
                    ship + rng.gen_range(-2..30i64)
                )
            }
            3..=6 => {
                let t = self.live(rng);
                match rng.gen_range(0..3u32) {
                    0 => format!("update {} Qty {}", t.0, rng.gen_range(1..50i64)),
                    1 => format!("update {} PartKey {}", t.0, rng.gen_range(1..=1_500i64)),
                    _ => {
                        let receipt = self.int(t, li::RECEIPT);
                        format!("update {} Ship {}", t.0, receipt + rng.gen_range(-20..2i64))
                    }
                }
            }
            _ => format!("delete {}", self.live(rng).0),
        };
        self.apply(&[op])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_in_the_seed() {
        for kind in Kind::ALL {
            let a = build(kind, 7, 1);
            let b = build(kind, 7, 1);
            let c = build(kind, 8, 1);
            assert_eq!(a.stream, b.stream, "{}", kind.name());
            assert_eq!(a.sessions[0].csv, b.sessions[0].csv, "{}", kind.name());
            assert_ne!(a.stream, c.stream, "{}", kind.name());
        }
    }
}
