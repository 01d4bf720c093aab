//! Verification that a subgraph really is an `f`-fault-tolerant
//! `(2k − 1)`-spanner (Definition 1 of the paper).
//!
//! The checker implements the pair restriction of Lemma 3: it suffices to
//! check, for every fault set `F` and every surviving edge `{u, v}` of `G`
//! whose weight equals its distance in `G \ F`, that
//! `d_{H \ F}(u, v) ≤ (2k − 1) · w(u, v)`.
//!
//! Two modes are provided: exhaustive enumeration of all fault sets of size
//! at most `f` (exact, exponential in `f`, for small instances), and a
//! sampled mode mixing uniformly random fault sets with targeted "attack"
//! sets that fault the interior of current shortest paths in `H`.

use ftspan_graph::bfs::{HopBfsScratch, HopPath};
use ftspan_graph::dijkstra::DijkstraScratch;
use ftspan_graph::{FaultView, Graph, GraphView, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::fault::{enumerate_fault_sets, sample_fault_set};
use crate::{FaultModel, FaultSet, SpannerParams};

/// How thoroughly to search for violating fault sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerificationMode {
    /// Enumerate every fault set of size at most `f`. Exact but exponential
    /// in `f`; intended for graphs with at most a few dozen vertices.
    Exhaustive,
    /// Check `samples` fault sets: half drawn uniformly at random (size
    /// exactly `f`), half constructed adversarially by faulting the interior
    /// of shortest paths in the spanner between random edge endpoints. The
    /// split is exact and deterministic: an odd count puts the extra sample
    /// in the random half (see [`sampled_split`]), and all sampling derives
    /// from `seed` alone.
    Sampled {
        /// Number of fault sets to try.
        samples: usize,
        /// RNG seed, so verification runs are reproducible.
        seed: u64,
    },
}

/// A single witnessed violation of the fault-tolerant spanner property.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The fault set under which the stretch bound fails.
    pub fault_set: FaultSet,
    /// One endpoint of the violating pair (an edge of `G`).
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
    /// The allowed distance `(2k − 1) · w(u, v)`.
    pub allowed: f64,
    /// The observed distance in `H \ F` (`None` when disconnected).
    pub observed: Option<f64>,
}

/// Result of a verification run.
#[derive(Clone, Debug, Default)]
pub struct VerificationReport {
    /// Number of fault sets examined.
    pub fault_sets_checked: usize,
    /// Number of (fault set, edge) pairs whose stretch was checked.
    pub pairs_checked: usize,
    /// All violations found (empty when the spanner is valid for every fault
    /// set examined).
    pub violations: Vec<Violation>,
    /// The maximum ratio `d_{H\F}(u, v) / w(u, v)` observed over all checked
    /// pairs (0 when nothing was checked).
    pub max_stretch: f64,
}

impl VerificationReport {
    /// Returns `true` when no violation was found.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verifies that `spanner` is an `f`-fault-tolerant `(2k − 1)`-spanner of
/// `graph` under the given parameters.
///
/// The spanner must be a subgraph of `graph` over the same vertex set; edge
/// fault identifiers always refer to `graph` and are translated to the
/// spanner by endpoints.
///
/// # Panics
///
/// Panics if the two graphs have different vertex counts.
#[must_use]
pub fn verify_spanner(
    graph: &Graph,
    spanner: &Graph,
    params: SpannerParams,
    mode: VerificationMode,
) -> VerificationReport {
    verify_spanner_with(&mut DijkstraScratch::new(), graph, spanner, params, mode)
}

/// Like [`verify_spanner`] but running every shortest-path computation on
/// caller-owned [`DijkstraScratch`] buffers — the form churn loops use,
/// verifying after every wave without re-growing per-run state. The report
/// is identical to [`verify_spanner`]'s.
///
/// On unit-weight graphs each checked pair is first settled by one
/// ≤ `(2k − 1)`-hop search in `H \ F`; the per-source distance pass runs
/// only for pairs without such a path, so `observed`, `max_stretch` and
/// every [`Violation`] equal those of a full distance pass. Weighted graphs
/// run the per-source Dijkstra passes as before.
///
/// # Panics
///
/// Panics if the two graphs have different vertex counts.
#[must_use]
pub fn verify_spanner_with(
    scratch: &mut DijkstraScratch,
    graph: &Graph,
    spanner: &Graph,
    params: SpannerParams,
    mode: VerificationMode,
) -> VerificationReport {
    assert_eq!(
        graph.vertex_count(),
        spanner.vertex_count(),
        "spanner must be over the same vertex set as the input graph"
    );
    let fault_sets = fault_sets_for_mode(graph, spanner, params, &mode);
    let mut report = VerificationReport::default();
    let mut hops = HopBfsScratch::new();
    for fault_set in &fault_sets {
        check_fault_set(
            graph,
            spanner,
            params,
            fault_set,
            scratch,
            &mut hops,
            &mut report,
        );
    }
    report
}

/// Verifies the spanner property under one specific fault set, returning any
/// violations found. Useful for replaying a reported violation.
#[must_use]
pub fn verify_under_fault_set(
    graph: &Graph,
    spanner: &Graph,
    params: SpannerParams,
    fault_set: &FaultSet,
) -> VerificationReport {
    let mut report = VerificationReport::default();
    check_fault_set(
        graph,
        spanner,
        params,
        fault_set,
        &mut DijkstraScratch::new(),
        &mut HopBfsScratch::new(),
        &mut report,
    );
    report
}

/// Measures the worst observed stretch of `spanner` with no faults applied,
/// over all edges of `graph` (a cheap sanity metric used by examples and the
/// experiment harness).
#[must_use]
pub fn fault_free_stretch(graph: &Graph, spanner: &Graph) -> f64 {
    let params = SpannerParams::vertex(1, 0);
    let mut report = VerificationReport::default();
    check_fault_set(
        graph,
        spanner,
        params,
        &FaultSet::empty(FaultModel::Vertex),
        &mut DijkstraScratch::new(),
        &mut HopBfsScratch::new(),
        &mut report,
    );
    report.max_stretch
}

/// The exact random/adversarial split [`VerificationMode::Sampled`] uses
/// for a given sample count: `(random, adversarial)`.
///
/// Always sums to `samples`; an odd count deterministically puts the extra
/// sample in the **random** half. (An earlier revision derived the
/// adversarial count from loop bounds, which silently handed the odd sample
/// to the adversarial half — the opposite of the documented "half random,
/// half adversarial" promise with no recorded tie-break. The split is part
/// of [`crate::verify`]'s reproducibility contract: churn loops key their
/// escalation decisions on these samples via `ChurnConfig::verify_seed`.)
#[must_use]
pub fn sampled_split(samples: usize) -> (usize, usize) {
    let adversarial = samples / 2;
    (samples - adversarial, adversarial)
}

fn fault_sets_for_mode(
    graph: &Graph,
    spanner: &Graph,
    params: SpannerParams,
    mode: &VerificationMode,
) -> Vec<FaultSet> {
    match mode {
        VerificationMode::Exhaustive => {
            enumerate_fault_sets(graph, params.fault_model(), params.f() as usize, &[])
        }
        VerificationMode::Sampled { samples, seed } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            let (uniform, adversarial) = sampled_split(*samples);
            let mut sets = Vec::with_capacity(*samples + 1);
            sets.push(FaultSet::empty(params.fault_model()));
            for _ in 0..uniform {
                sets.push(sample_fault_set(
                    graph,
                    params.fault_model(),
                    params.f() as usize,
                    &[],
                    &mut rng,
                ));
            }
            for _ in 0..adversarial {
                sets.push(adversarial_fault_set(graph, spanner, params, &mut rng));
            }
            sets
        }
    }
}

/// Builds a targeted fault set: pick a random edge `{u, v}` of `G`, walk the
/// current shortest path between `u` and `v` in `H`, and fault its interior
/// vertices (or its edges), filling up with random faults if the path is
/// short. This is the natural "attack" heuristic against a spanner.
fn adversarial_fault_set<R: Rng + ?Sized>(
    graph: &Graph,
    spanner: &Graph,
    params: SpannerParams,
    rng: &mut R,
) -> FaultSet {
    let f = params.f() as usize;
    if graph.edge_count() == 0 || f == 0 {
        return FaultSet::empty(params.fault_model());
    }
    let edge_idx = rng.gen_range(0..graph.edge_count());
    let (u, v) = graph.edge(ftspan_graph::EdgeId::new(edge_idx)).endpoints();
    let path = ftspan_graph::bfs::shortest_hop_path(spanner, u, v);
    match params.fault_model() {
        FaultModel::Vertex => {
            let mut chosen: Vec<VertexId> = path
                .as_ref()
                .map(|p| p.interior_vertices().to_vec())
                .unwrap_or_default();
            chosen.shuffle(rng);
            chosen.truncate(f);
            // Top up with random non-terminal vertices.
            while chosen.len() < f {
                let cand = VertexId::new(rng.gen_range(0..graph.vertex_count().max(1)));
                if cand != u && cand != v && !chosen.contains(&cand) {
                    chosen.push(cand);
                } else if graph.vertex_count() <= f + 2 {
                    break;
                }
            }
            FaultSet::vertices(chosen)
        }
        FaultModel::Edge => {
            // Translate path edges (which live in the spanner) back to input
            // graph identifiers, then top up with random edges of G.
            let mut chosen: Vec<ftspan_graph::EdgeId> = path
                .as_ref()
                .map(|p| {
                    p.edges
                        .iter()
                        .filter_map(|&e| {
                            let (a, b) = spanner.edge(e).endpoints();
                            graph.edge_between(a, b)
                        })
                        .collect()
                })
                .unwrap_or_default();
            chosen.shuffle(rng);
            chosen.truncate(f);
            let mut guard = 0;
            while chosen.len() < f && guard < 10 * f + 10 {
                guard += 1;
                let cand = ftspan_graph::EdgeId::new(rng.gen_range(0..graph.edge_count()));
                if !chosen.contains(&cand) {
                    chosen.push(cand);
                }
            }
            FaultSet::edges(chosen)
        }
    }
}

fn check_fault_set(
    graph: &Graph,
    spanner: &Graph,
    params: SpannerParams,
    fault_set: &FaultSet,
    scratch: &mut DijkstraScratch,
    hops: &mut HopBfsScratch,
    report: &mut VerificationReport,
) {
    report.fault_sets_checked += 1;
    let stretch = f64::from(params.stretch());

    // Apply the fault set to both graphs. Edge fault identifiers refer to the
    // input graph; translate them for the spanner.
    let view_g: FaultView<'_> = fault_set.apply(graph);
    let spanner_faults = fault_set.translate_edges(graph, spanner);
    let view_h: FaultView<'_> = spanner_faults.apply(spanner);

    // Distances in H \ F from every vertex that is an endpoint of a surviving
    // G-edge. Cache per-source Dijkstra runs lazily.
    let mut h_dist_cache: Vec<Option<Vec<f64>>> = vec![None; graph.vertex_count()];
    let mut g_dist_cache: Vec<Option<Vec<f64>>> = vec![None; graph.vertex_count()];

    // Unit weights: every checked edge allows exactly `stretch` hops, and an
    // `H \ F` distance is a hop count, so one ≤ `stretch`-hop pair search
    // settles the pair whenever it finds a path. The full distance pass
    // runs only for pairs it cannot settle (a violation, or a stretch above
    // the bound), keeping `observed` exact.
    let hop_lane = graph.is_unit_weighted() && spanner.is_unit_weighted();
    let mut path = HopPath::default();

    for (edge_id, edge) in graph.edges() {
        let (u, v) = edge.endpoints();
        // Skip pairs involving faulted elements.
        if !view_g.contains_vertex(u) || !view_g.contains_vertex(v) {
            continue;
        }
        if fault_set.contains_edge(edge_id) {
            continue;
        }
        // Lemma 3: only edges that are themselves shortest paths in G \ F
        // need to be checked (for unit weights this is automatic).
        if !graph.is_unit_weighted() {
            let dist_g = g_dist_cache[u.index()]
                .get_or_insert_with(|| scratch.distances(&view_g, u).to_vec());
            if dist_g[v.index()] + 1e-9 < edge.weight() {
                continue;
            }
        }
        let observed =
            if hop_lane && hops.find_path_into(&view_h, u, v, params.stretch(), &mut path) {
                path.hop_count() as f64
            } else {
                h_dist_cache[u.index()]
                    .get_or_insert_with(|| scratch.distances(&view_h, u).to_vec())[v.index()]
            };
        let allowed = stretch * edge.weight();
        report.pairs_checked += 1;
        if observed.is_finite() && edge.weight() > 0.0 {
            report.max_stretch = report.max_stretch.max(observed / edge.weight());
        }
        if observed > allowed + 1e-9 {
            report.violations.push(Violation {
                fault_set: fault_set.clone(),
                u,
                v,
                allowed,
                observed: observed.is_finite().then_some(observed),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::{generators, vid};

    /// Spanner equal to the graph itself is always valid.
    #[test]
    fn identity_spanner_is_always_valid() {
        let g = generators::complete(8);
        let params = SpannerParams::vertex(2, 2);
        let report = verify_spanner(&g, &g.clone(), params, VerificationMode::Exhaustive);
        assert!(report.is_valid());
        assert!(report.fault_sets_checked > 1);
        assert!(report.max_stretch <= 1.0 + 1e-9);
    }

    #[test]
    fn spanning_tree_of_cycle_is_a_valid_nonft_spanner_only_for_large_stretch() {
        let g = generators::cycle(6);
        // Drop one edge: the remaining path is a 5-spanner (k=3) but not a
        // 3-spanner (k=2) of the cycle.
        let keep: Vec<_> = g.edge_ids().take(5).collect();
        let h = g.edge_subgraph(keep);
        let ok = verify_spanner(
            &g,
            &h,
            SpannerParams::vertex(3, 0),
            VerificationMode::Exhaustive,
        );
        assert!(ok.is_valid());
        let bad = verify_spanner(
            &g,
            &h,
            SpannerParams::vertex(2, 0),
            VerificationMode::Exhaustive,
        );
        assert!(!bad.is_valid());
        assert!(bad.max_stretch >= 5.0 - 1e-9);
    }

    #[test]
    fn non_fault_tolerant_spanner_is_caught_by_vertex_faults() {
        // K4: the star around vertex 0 is a valid 3-spanner with no faults,
        // but faulting vertex 0 disconnects it while K4 \ {0} stays connected.
        let g = generators::complete(4);
        let star_edges: Vec<_> = g
            .edge_ids()
            .filter(|&e| g.edge(e).is_incident_to(vid(0)))
            .collect();
        let star = g.edge_subgraph(star_edges);
        let no_faults = verify_spanner(
            &g,
            &star,
            SpannerParams::vertex(2, 0),
            VerificationMode::Exhaustive,
        );
        assert!(no_faults.is_valid());
        let with_faults = verify_spanner(
            &g,
            &star,
            SpannerParams::vertex(2, 1),
            VerificationMode::Exhaustive,
        );
        assert!(!with_faults.is_valid());
        let violation = &with_faults.violations[0];
        assert!(violation.fault_set.contains_vertex(vid(0)));
        assert!(violation.observed.is_none());
    }

    #[test]
    fn edge_fault_model_catches_missing_redundancy() {
        // Cycle C4 plus chord {0,2}; spanner = the cycle only. With one edge
        // fault on {0,1}, the pair (0,1) must be spanned within 3 hops:
        // 0-3-2-1 has 3 hops, fine for k=2. But for k=1 (stretch 1) it fails
        // even without faults unless the spanner contains every edge.
        let mut g = generators::cycle(4);
        g.add_unit_edge(0, 2);
        let cycle_edges: Vec<_> = g.edge_ids().take(4).collect();
        let h = g.edge_subgraph(cycle_edges);
        let ok = verify_spanner(
            &g,
            &h,
            SpannerParams::edge(2, 1),
            VerificationMode::Exhaustive,
        );
        assert!(ok.is_valid());
        let bad = verify_spanner(
            &g,
            &h,
            SpannerParams::edge(1, 0),
            VerificationMode::Exhaustive,
        );
        assert!(!bad.is_valid());
    }

    #[test]
    fn exhaustive_checks_expected_number_of_fault_sets() {
        let g = generators::complete(6);
        let params = SpannerParams::vertex(2, 2);
        let report = verify_spanner(&g, &g.clone(), params, VerificationMode::Exhaustive);
        // C(6,0) + C(6,1) + C(6,2) = 1 + 6 + 15.
        assert_eq!(report.fault_sets_checked, 22);
    }

    #[test]
    fn sampled_mode_is_reproducible_and_counts_sets() {
        let g = generators::complete(10);
        let params = SpannerParams::vertex(2, 2);
        let mode = VerificationMode::Sampled {
            samples: 10,
            seed: 99,
        };
        let a = verify_spanner(&g, &g.clone(), params, mode.clone());
        let b = verify_spanner(&g, &g.clone(), params, mode);
        assert_eq!(a.fault_sets_checked, 11); // samples + empty set
        assert_eq!(a.fault_sets_checked, b.fault_sets_checked);
        assert_eq!(a.pairs_checked, b.pairs_checked);
        assert!(a.is_valid());
    }

    #[test]
    fn sampled_split_is_exact_for_every_count() {
        // Regression for the odd-count split: an earlier revision derived
        // the adversarial count from loop bounds, silently handing every
        // odd count's extra sample to the adversarial half. The split must
        // sum exactly and put the documented extra in the random half.
        for samples in 0..100 {
            let (random, adversarial) = sampled_split(samples);
            assert_eq!(
                random + adversarial,
                samples,
                "no sample dropped or duplicated"
            );
            assert!(random >= adversarial, "odd counts favour the random half");
            assert!(random - adversarial <= 1, "split is as even as possible");
        }
        assert_eq!(sampled_split(16), (8, 8));
        assert_eq!(sampled_split(17), (9, 8));
        assert_eq!(sampled_split(1), (1, 0));
        assert_eq!(sampled_split(0), (0, 0));
    }

    #[test]
    fn odd_sampled_counts_are_deterministic_under_the_seed() {
        let g = generators::complete(12);
        let params = SpannerParams::vertex(2, 2);
        let mode = VerificationMode::Sampled {
            samples: 13,
            seed: 0x000C_4151_77AE,
        };
        let a = verify_spanner(&g, &g.clone(), params, mode.clone());
        let b = verify_spanner(&g, &g.clone(), params, mode);
        // samples + the always-checked empty set, twice over.
        assert_eq!(a.fault_sets_checked, 14);
        assert_eq!(b.fault_sets_checked, 14);
        assert_eq!(a.pairs_checked, b.pairs_checked);
        assert_eq!(a.max_stretch, b.max_stretch);
    }

    #[test]
    fn pooled_verifier_matches_one_shot_reports() {
        let g = generators::cycle(8);
        let h = g.edge_subgraph(g.edge_ids().take(7));
        let params = SpannerParams::vertex(2, 1);
        let mode = VerificationMode::Sampled {
            samples: 9,
            seed: 4,
        };
        let one_shot = verify_spanner(&g, &h, params, mode.clone());
        let mut scratch = DijkstraScratch::new();
        // Two runs on one scratch: identical to each other and to one-shot.
        let first = verify_spanner_with(&mut scratch, &g, &h, params, mode.clone());
        let second = verify_spanner_with(&mut scratch, &g, &h, params, mode);
        for report in [&first, &second] {
            assert_eq!(report.is_valid(), one_shot.is_valid());
            assert_eq!(report.fault_sets_checked, one_shot.fault_sets_checked);
            assert_eq!(report.pairs_checked, one_shot.pairs_checked);
            assert_eq!(report.max_stretch, one_shot.max_stretch);
            assert_eq!(report.violations.len(), one_shot.violations.len());
        }
    }

    #[test]
    fn sampled_mode_finds_obvious_violations() {
        // Spanner missing a bridge is caught even by sampling (the empty
        // fault set already witnesses it).
        let g = generators::path(5);
        let h = g.edge_subgraph(g.edge_ids().take(3));
        let report = verify_spanner(
            &g,
            &h,
            SpannerParams::vertex(2, 1),
            VerificationMode::Sampled {
                samples: 4,
                seed: 1,
            },
        );
        assert!(!report.is_valid());
    }

    #[test]
    fn weighted_lemma_3_restriction_skips_non_shortest_edges() {
        // Triangle with a heavy edge {0,2}: w(0,1)=1, w(1,2)=1, w(0,2)=5.
        // A spanner that drops {0,2} is a valid 1-VFT 3-spanner: the heavy
        // edge is not a shortest path in G (2 < 5), so Lemma 3 never requires
        // it to be spanned tightly... but with stretch 3 the path 0-1-2 of
        // weight 2 <= 3*5 anyway. Use stretch 1 to exercise the skip: the
        // only way this is valid is if the checker applies the restriction.
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 5.0);
        let h = g.edge_subgraph(g.edge_ids().take(2));
        let report = verify_spanner(
            &g,
            &h,
            SpannerParams::vertex(1, 0),
            VerificationMode::Exhaustive,
        );
        assert!(report.is_valid(), "violations: {:?}", report.violations);
    }

    #[test]
    fn fault_free_stretch_of_subgraph() {
        let g = generators::cycle(8);
        let h = g.edge_subgraph(g.edge_ids().take(7));
        let s = fault_free_stretch(&g, &h);
        assert!((s - 7.0).abs() < 1e-9);
        assert!((fault_free_stretch(&g, &g.clone()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn verify_under_specific_fault_set() {
        let g = generators::cycle(5);
        let h = g.edge_subgraph(g.edge_ids().take(4)); // path 0-1-2-3-4
        let fs = FaultSet::vertices([vid(2)]);
        let report = verify_under_fault_set(&g, &h, SpannerParams::vertex(2, 1), &fs);
        // Removing vertex 2 splits the path; pair (0,4) is an edge of G that
        // survives in G\F but is disconnected in H\F.
        assert!(!report.is_valid());
        assert_eq!(report.fault_sets_checked, 1);
    }

    /// The full-distance checker the hop lane must reproduce: a
    /// single-source distance pass in `H \ F` from every checked pair's
    /// first endpoint, no hop-bounded shortcut.
    fn full_distance_report(
        graph: &Graph,
        spanner: &Graph,
        params: SpannerParams,
        mode: &VerificationMode,
    ) -> VerificationReport {
        let stretch = f64::from(params.stretch());
        let mut report = VerificationReport::default();
        for fault_set in &fault_sets_for_mode(graph, spanner, params, mode) {
            report.fault_sets_checked += 1;
            let view_g = fault_set.apply(graph);
            let spanner_faults = fault_set.translate_edges(graph, spanner);
            let view_h = spanner_faults.apply(spanner);
            let mut dist_h: Vec<Option<Vec<f64>>> = vec![None; graph.vertex_count()];
            for (edge_id, edge) in graph.edges() {
                let (u, v) = edge.endpoints();
                if !view_g.contains_vertex(u)
                    || !view_g.contains_vertex(v)
                    || fault_set.contains_edge(edge_id)
                {
                    continue;
                }
                let observed = dist_h[u.index()]
                    .get_or_insert_with(|| ftspan_graph::dijkstra::dijkstra_distances(&view_h, u))
                    [v.index()];
                report.pairs_checked += 1;
                if observed.is_finite() {
                    report.max_stretch = report.max_stretch.max(observed / edge.weight());
                }
                if observed > stretch * edge.weight() + 1e-9 {
                    report.violations.push(Violation {
                        fault_set: fault_set.clone(),
                        u,
                        v,
                        allowed: stretch * edge.weight(),
                        observed: observed.is_finite().then_some(observed),
                    });
                }
            }
        }
        report
    }

    fn assert_reports_equal(got: &VerificationReport, want: &VerificationReport, ctx: &str) {
        assert_eq!(got.fault_sets_checked, want.fault_sets_checked, "{ctx}");
        assert_eq!(got.pairs_checked, want.pairs_checked, "{ctx}");
        assert_eq!(
            got.max_stretch.to_bits(),
            want.max_stretch.to_bits(),
            "{ctx}"
        );
        assert_eq!(got.violations.len(), want.violations.len(), "{ctx}");
        for (a, b) in got.violations.iter().zip(&want.violations) {
            assert_eq!(a.fault_set, b.fault_set, "{ctx}");
            assert_eq!((a.u, a.v), (b.u, b.v), "{ctx}");
            assert_eq!(a.allowed.to_bits(), b.allowed.to_bits(), "{ctx}");
            assert_eq!(
                a.observed.map(f64::to_bits),
                b.observed.map(f64::to_bits),
                "{ctx}"
            );
        }
    }

    #[test]
    fn hop_lane_reports_match_the_full_distance_reference() {
        let mut violating = 0;
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(16, 0.3, &mut rng);
            for params in [
                SpannerParams::vertex(2, 1),
                SpannerParams::vertex(2, 2),
                SpannerParams::edge(2, 1),
                SpannerParams::vertex(3, 1),
                SpannerParams::edge(3, 2),
            ] {
                let built = crate::poly_greedy_spanner(&g, params).spanner;
                // The built spanner, and two thinned on purpose so that
                // violations (finite and disconnected) occur.
                let spanners = [
                    built.clone(),
                    built.edge_subgraph(built.edge_ids().filter(|e| e.index() % 3 != 0)),
                    built.edge_subgraph(built.edge_ids().filter(|e| e.index() % 2 == 0)),
                ];
                for (which, h) in spanners.iter().enumerate() {
                    for mode in [
                        VerificationMode::Exhaustive,
                        VerificationMode::Sampled {
                            samples: 12,
                            seed: seed + 100,
                        },
                    ] {
                        let ctx = format!("seed {seed} {params:?} spanner {which} {mode:?}");
                        let want = full_distance_report(&g, h, params, &mode);
                        let got = verify_spanner(&g, h, params, mode);
                        assert_reports_equal(&got, &want, &ctx);
                        violating += usize::from(!want.is_valid());
                    }
                }
            }
        }
        assert!(violating > 5, "thinned spanners must exercise violations");
    }

    #[test]
    #[should_panic(expected = "same vertex set")]
    fn mismatched_vertex_sets_panic() {
        let g = generators::path(4);
        let h = generators::path(5);
        let _ = verify_spanner(
            &g,
            &h,
            SpannerParams::vertex(2, 0),
            VerificationMode::Exhaustive,
        );
    }
}
