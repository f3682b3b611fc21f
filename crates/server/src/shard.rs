//! Worker-shard building block: the local `measure_all` fold.
//!
//! Every [summable](Measure::summable) measure decomposes as a sum over
//! conflict-graph components, and therefore as a sum over sessions.
//! Bit-identity across topologies hangs on *fold order*: floating-point
//! addition is not associative, so [`measure_all_local`] always folds in
//! **ascending session-name order seeded from 0.0**. A coordinator asks
//! each shard for the per-session detail, merges, sorts by name, and
//! re-folds flat with the same seed — reproducing the exact additions a
//! single process would perform, so the aggregate is bit-identical no
//! matter how sessions are spread across shards (pinned by
//! `tests/sharding.rs`).

use crate::error::ServerError;
use crate::session::{values_json, Registry};
use crate::wire::Json;
use inconsist::incremental::Measure;

/// Answers `measure_all` from this process's own registry: evaluates the
/// requested measures on every live session and folds each one in
/// ascending session-name order, seeded from 0.0.
///
/// The response carries the folded `values`, the `sessions` count, and —
/// with `detail` — a `detail` object (session → measure → value, in fold
/// order) that a coordinator consumes to re-fold globally.
pub fn measure_all_local(
    registry: &Registry,
    measures: &[Measure],
    detail: bool,
) -> Result<Json, ServerError> {
    let sessions = registry.all();
    let mut rows: Vec<(String, Json)> = Vec::with_capacity(sessions.len());
    for session in &sessions {
        let (_, row, _) = session
            .fresh(measures, false, &session.options(), None)?
            .expect("a blocking read always takes the lock");
        rows.push((session.name().to_string(), values_json(&row.measures)));
    }
    Ok(fold_response(measures, rows, None, detail))
}

/// The `measure_all` response over per-session rows: the [folded
/// values](fold_sessions), the session count, a coordinator's shard
/// count and, with `detail`, the rows in fold order.
pub(crate) fn fold_response(
    measures: &[Measure],
    mut rows: Vec<(String, Json)>,
    shards: Option<usize>,
    detail: bool,
) -> Json {
    let names: Vec<String> = measures.iter().map(|m| m.name().to_string()).collect();
    let mut entries = vec![
        ("ok", Json::Bool(true)),
        ("values", fold_sessions(&names, &mut rows)),
        ("sessions", Json::Num(rows.len() as f64)),
    ];
    entries.extend(shards.map(|n| ("shards", Json::Num(n as f64))));
    if detail {
        entries.push(("detail", Json::Obj(rows)));
    }
    Json::obj(entries)
}

/// Folds per-session measure values — already merged from every shard —
/// exactly the way a single process would: sorted by session name,
/// seeded from 0.0. The coordinator's gather leg.
pub fn fold_sessions(measures: &[String], sessions: &mut [(String, Json)]) -> Json {
    sessions.sort_by(|(a, _), (b, _)| a.cmp(b));
    let mut totals: Vec<(String, f64)> = measures.iter().map(|m| (m.clone(), 0.0)).collect();
    for (_, row) in sessions.iter() {
        for (name, total) in &mut totals {
            if let Some(v) = row.get(name).and_then(Json::as_f64) {
                *total += v;
            }
        }
    }
    Json::Obj(
        totals
            .into_iter()
            .map(|(name, total)| (name, Json::Num(total)))
            .collect(),
    )
}
