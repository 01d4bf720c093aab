//! The correctness gate, run after the timed phases against a mirror.
//!
//! The mirror is restored from the primary's own snapshot taken before the
//! first timed request and replays the run's waves in order, so it passes
//! through every epoch the primary served. Each answer is checked at the
//! epochs it could have been served at:
//!
//! * the distance is bit-equal to `DijkstraScratch` on `spanner ∖ F`;
//! * a `PATH` is a walk in `spanner ∖ F` from `u` to `v` whose weight
//!   equals the distance, and a `DIST` carries no path;
//! * on a sample, the distance is within `(2k − 1)·d_{G∖F}`.
//!
//! A read sent before a wave's reply and answered after its request may
//! have been served on either side of it; it passes if it matches one of
//! the two epochs. A read whose window spans more than two epochs cannot be
//! resolved and is reported as unchecked, never as correct.

use std::collections::BTreeMap;

use ftspan::FaultSet;
use ftspan_graph::dijkstra::DijkstraScratch;
use ftspan_graph::Graph;
use ftspan_oracle::{ChurnConfig, Query, QueryKind, SpannerOracle};
use ftspan_server::WireAnswer;

/// One answer to check.
#[derive(Clone, Debug)]
pub struct Item {
    /// The query.
    pub query: Query,
    /// What the server answered.
    pub answer: WireAnswer,
    /// Earliest epoch it can have been served at.
    pub lo: u64,
    /// Latest epoch it can have been served at.
    pub hi: u64,
}

/// What the gate found.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Answers checked and correct.
    pub correct: u64,
    /// Answers checked and wrong.
    pub wrong: u64,
    /// Answers whose epoch could not be resolved.
    pub unchecked: u64,
    /// Answers also checked against the stretch bound.
    pub stretch_checked: u64,
    /// The first mismatch, for the log.
    pub first_error: Option<String>,
}

impl Report {
    fn fail(&mut self, message: String) {
        self.wrong += 1;
        if self.first_error.is_none() {
            self.first_error = Some(message);
        }
    }
}

/// Why `answer` is not the exact answer to `query` on `spanner ∖ F`, given
/// the distances `dist` from `query.u` there.
fn mismatch(query: &Query, answer: &WireAnswer, spanner: &Graph, dist: &[f64]) -> Option<String> {
    let d = dist[query.v.index()];
    let expected = d.is_finite().then_some(d);
    if answer.distance.map(f64::to_bits) != expected.map(f64::to_bits) {
        return Some(format!(
            "distance {:?}, expected {expected:?}",
            answer.distance
        ));
    }
    match (query.kind, expected, &answer.path) {
        (QueryKind::Distance, _, None) | (QueryKind::Path, None, None) => None,
        (QueryKind::Path, Some(d), Some(path)) => walk_error(query, path, d, spanner),
        _ => Some(format!(
            "path {:?} for a {:?} query",
            answer.path, query.kind
        )),
    }
}

fn walk_error(
    query: &Query,
    path: &[ftspan_graph::VertexId],
    d: f64,
    spanner: &Graph,
) -> Option<String> {
    if path.first() != Some(&query.u) || path.last() != Some(&query.v) {
        return Some(format!("path {path:?} does not join the endpoints"));
    }
    let mut weight = 0.0;
    for hop in path.windows(2) {
        if query.faults.contains_vertex(hop[0]) || query.faults.contains_vertex(hop[1]) {
            return Some(format!("path {path:?} crosses a fault"));
        }
        match spanner.edge_between(hop[0], hop[1]) {
            Some(e) => weight += spanner.weight(e),
            None => return Some(format!("path {path:?} leaves the spanner")),
        }
    }
    (weight.to_bits() != d.to_bits()).then(|| format!("path weight {weight} for distance {d}"))
}

/// Checks `items` against `mirror`, which must be at `base_epoch`; the
/// mirror applies `waves` (epochs `base_epoch + 1 …`) on the way.
/// `stretch_groups` bounds how many (source, fault set) groups per epoch
/// are also checked against the stretch bound on `G ∖ F`.
pub fn check<O: SpannerOracle>(
    mirror: &mut O,
    base_epoch: u64,
    waves: &[FaultSet],
    churn: &ChurnConfig,
    items: &[Item],
    stretch_groups: usize,
) -> Report {
    let mut report = Report::default();
    let mut matched = vec![false; items.len()];
    let mut scratch = DijkstraScratch::new();
    let mut graph_scratch = DijkstraScratch::new();
    let last = base_epoch + waves.len() as u64;
    for epoch in base_epoch..=last {
        // Group the answers servable at this epoch by (fault set, source).
        let mut groups: BTreeMap<(Vec<u32>, u32), Vec<usize>> = BTreeMap::new();
        for (i, item) in items.iter().enumerate() {
            if item.hi - item.lo > 1 || item.lo > epoch || item.hi < epoch || matched[i] {
                continue;
            }
            let faults = item
                .query
                .faults
                .vertex_faults()
                .iter()
                .map(|v| v.as_u32())
                .collect();
            groups
                .entry((faults, item.query.u.as_u32()))
                .or_default()
                .push(i);
        }
        let (spanner, graph) = (mirror.spanner(), mirror.graph());
        let bound = mirror.stretch_bound();
        for (g, members) in groups.values().enumerate() {
            let first = &items[members[0]].query;
            let dist = scratch.distances(&first.faults.apply(spanner), first.u);
            let graph_dist = (g < stretch_groups)
                .then(|| graph_scratch.distances(&first.faults.apply(graph), first.u));
            for &i in members {
                let item = &items[i];
                match mismatch(&item.query, &item.answer, spanner, dist) {
                    None => matched[i] = true,
                    Some(why) if epoch == item.hi => report.fail(format!(
                        "{:?} {}→{} F={:?} at epoch {epoch}: {why}",
                        item.query.kind,
                        item.query.u.index(),
                        item.query.v.index(),
                        item.query.faults.vertex_faults(),
                    )),
                    Some(_) => {}
                }
                if let (true, Some(gd)) = (matched[i], graph_dist) {
                    report.stretch_checked += 1;
                    let dg = gd[item.query.v.index()];
                    let ok = !dg.is_finite()
                        || item.answer.distance.is_some_and(|d| d <= bound * dg + 1e-9);
                    if !ok {
                        report.fail(format!(
                            "stretch: {:?} against {bound}·{dg}",
                            item.answer.distance
                        ));
                    }
                }
            }
        }
        if epoch < last {
            let wave = &waves[(epoch - base_epoch) as usize];
            let _ = mirror.apply_wave(wave, churn);
        }
    }
    for (i, item) in items.iter().enumerate() {
        if item.hi - item.lo > 1 {
            report.unchecked += 1;
        } else if matched[i] {
            report.correct += 1;
        } else if item.hi > last {
            report.fail(format!(
                "answer claims epoch {} past the last {last}",
                item.hi
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use ftspan_graph::vid;
    use ftspan_oracle::{FaultOracle, OracleOptions};

    use super::*;
    use crate::workload::params;

    fn item(
        query: &Query,
        distance: Option<f64>,
        path: Option<Vec<ftspan_graph::VertexId>>,
    ) -> Item {
        Item {
            query: query.clone(),
            answer: WireAnswer { distance, path },
            lo: 0,
            hi: 0,
        }
    }

    #[test]
    fn the_gate_passes_true_answers_and_catches_wrong_ones() {
        let graph = ftspan_bench::gnp_workload(80, 6.0, 5);
        let mut mirror = FaultOracle::build(graph, params(), OracleOptions::default());
        let faults = FaultSet::vertices([vid(1), vid(2)]);
        let path_query = Query::path(vid(3), vid(40), faults.clone());
        let truth = mirror.answer(&path_query);
        let (d, path) = (truth.distance, truth.path.clone());
        assert!(d.is_some() && path.as_ref().is_some_and(|p| p.len() > 2));
        let dist_query = Query::distance(vid(3), vid(40), faults.clone());
        let mut detour = path.clone().unwrap();
        detour[1] = vid(1);

        let items = vec![
            item(&path_query, d, path.clone()),
            item(&dist_query, d, None),
            item(&dist_query, d.map(|d| d + 1.0), None),
            item(&dist_query, d, path.clone()),
            item(&path_query, d, Some(detour)),
            Item {
                lo: 0,
                hi: 2,
                ..item(&dist_query, d, None)
            },
        ];
        let report = check(&mut mirror, 0, &[], &ChurnConfig::default(), &items, 8);
        assert_eq!(report.correct, 2, "{report:?}");
        assert_eq!(report.wrong, 3, "{report:?}");
        assert_eq!(report.unchecked, 1, "{report:?}");
        assert!(report.stretch_checked >= 2);
    }
}
