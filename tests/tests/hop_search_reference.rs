//! Pins the hop-bounded search to a textbook reference written here.
//!
//! `shortest_hop_path_within`, `HopBfsScratch::find_path_into` and the
//! `build_tree` / `tree_path_into` tree queries share one implementation,
//! which expands only the first `t − 1` layers from the source and resolves
//! the last layer from the target's side. Comparing them with each other
//! cannot catch a bug in that implementation, so this suite compares all
//! three, bit for bit, with a full-expansion BFS that knows nothing of the
//! shortcut: it expands every layer up to `t`, assigns each vertex its
//! parent at first discovery, and reads the path off the finished tree.
//!
//! Coverage: the four generator families, no faults and random vertex and
//! edge faults, `t ∈ 1..=6`, targets at depths `t − 1`, `t` and `t + 1`,
//! `source == target`, and faulted endpoints. The same reference also
//! drives a textbook `LBC(t, α)` (Algorithm 2), which `decide_lbc` and the
//! pooled `decide_lbc_with` must match decision for decision.

use std::collections::VecDeque;

use ftspan::lbc::{decide_lbc, decide_lbc_with, LbcDecision, LbcScratch};
use ftspan::{FaultModel, FaultSet};
use ftspan_graph::bfs::{shortest_hop_path_within, HopBfsScratch, HopPath};
use ftspan_graph::{generators, vid, EdgeId, FaultView, Graph, GraphView, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One of the four random generator families (gnp, Barabási–Albert,
/// Watts–Strogatz, geometric with a spanning tree overlaid).
fn family_graph(family: usize, n: usize, seed: u64) -> Graph {
    let mut r = StdRng::seed_from_u64(seed);
    match family {
        0 => generators::connected_gnp(n, 0.2, &mut r),
        1 => generators::barabasi_albert(n, 3, &mut r),
        2 => generators::watts_strogatz(n, 4, 0.2, &mut r),
        _ => {
            let mut g = generators::random_geometric(n, 0.3, &mut r);
            generators::overlay_random_spanning_tree(&mut g, &mut r);
            g
        }
    }
}

/// A full-expansion BFS tree: every vertex within `max_hops` of the source,
/// with the parent it received at first discovery.
struct ReferenceTree {
    source: VertexId,
    dist: Vec<Option<u32>>,
    parent: Vec<Option<(VertexId, EdgeId)>>,
}

impl ReferenceTree {
    /// Textbook BFS: pop in FIFO order, scan every neighbour of every vertex
    /// shallower than `max_hops`, never stop early.
    fn build<V: GraphView>(view: &V, source: VertexId, max_hops: u32) -> Self {
        let n = view.vertex_count();
        let mut tree = Self {
            source,
            dist: vec![None; n],
            parent: vec![None; n],
        };
        if !view.contains_vertex(source) {
            return tree;
        }
        let mut queue = VecDeque::from([source]);
        tree.dist[source.index()] = Some(0);
        while let Some(u) = queue.pop_front() {
            let du = tree.dist[u.index()].expect("queued vertices are discovered");
            if du >= max_hops {
                continue;
            }
            for (w, e) in view.neighbors(u) {
                if tree.dist[w.index()].is_none() {
                    tree.dist[w.index()] = Some(du + 1);
                    tree.parent[w.index()] = Some((u, e));
                    queue.push_back(w);
                }
            }
        }
        tree
    }

    fn path(&self, target: VertexId) -> Option<HopPath> {
        self.dist[target.index()]?;
        let mut path = HopPath {
            vertices: vec![target],
            edges: Vec::new(),
        };
        let mut cur = target;
        while cur != self.source {
            let (prev, e) = self.parent[cur.index()].expect("tree vertices have parents");
            path.edges.push(e);
            path.vertices.push(prev);
            cur = prev;
        }
        path.vertices.reverse();
        path.edges.reverse();
        Some(path)
    }
}

/// Random faults on `g`: none, about a sixth of the vertices, or about a
/// sixth of the edges.
fn faulted_view<'g>(g: &'g Graph, mode: usize, r: &mut StdRng) -> FaultView<'g> {
    let mut view = FaultView::new(g);
    match mode {
        0 => {}
        1 => {
            for _ in 0..g.vertex_count() / 6 {
                view.block_vertex(vid(r.gen_range(0..g.vertex_count())));
            }
        }
        _ => {
            for _ in 0..g.edge_count() / 6 {
                view.block_edge(EdgeId::new(r.gen_range(0..g.edge_count())));
            }
        }
    }
    view
}

/// Targets for a search within `t` hops from `source`: the source itself,
/// one vertex at each unbounded depth `t − 1`, `t` and `t + 1` (when such a
/// vertex exists), every faulted vertex, and a few random ones.
fn targets<V: GraphView>(
    view: &V,
    depths: &ReferenceTree,
    source: VertexId,
    t: u32,
    r: &mut StdRng,
) -> Vec<VertexId> {
    let n = view.vertex_count();
    let mut out = vec![source];
    for want in [t - 1, t, t + 1] {
        if let Some(i) = (0..n).find(|&i| depths.dist[i] == Some(want)) {
            out.push(vid(i));
        }
    }
    out.extend((0..n).map(vid).filter(|&v| !view.contains_vertex(v)));
    out.extend((0..4).map(|_| vid(r.gen_range(0..n))));
    out
}

fn check_against_reference<V: GraphView>(view: &V, source: VertexId, r: &mut StdRng) {
    let mut search = HopBfsScratch::new();
    let mut tree = HopBfsScratch::new();
    let mut out = HopPath::default();
    let depths = ReferenceTree::build(view, source, u32::MAX);
    for t in 1..=6u32 {
        let reference_tree = ReferenceTree::build(view, source, t);
        tree.build_tree(view, source, t);
        for target in targets(view, &depths, source, t, r) {
            // A faulted endpoint has no path at all, not even to itself.
            let reference = if view.contains_vertex(target) {
                reference_tree.path(target)
            } else {
                None
            };
            let ctx = format!("source {source:?} target {target:?} t {t}");

            let one_shot = shortest_hop_path_within(view, source, target, t);
            assert_eq!(one_shot, reference, "shortest_hop_path_within: {ctx}");

            let found = search.find_path_into(view, source, target, t, &mut out);
            assert_eq!(found, reference.is_some(), "find_path_into: {ctx}");
            if let Some(p) = &reference {
                assert_eq!(&out, p, "find_path_into path: {ctx}");
            }

            assert_eq!(
                tree.tree_dist(view, target),
                reference.as_ref().map(|p| p.hop_count() as u32),
                "tree_dist: {ctx}"
            );
            let found = tree.tree_path_into(view, target, &mut out);
            assert_eq!(found, reference.is_some(), "tree_path_into: {ctx}");
            if let Some(p) = &reference {
                assert_eq!(&out, p, "tree_path_into path: {ctx}");
            }
        }
    }
}

/// Algorithm 2 over the reference BFS: delete the interior (vertex model)
/// or the edges (edge model) of a ≤ `t`-hop path, `α + 1` times at most.
fn reference_lbc(
    g: &Graph,
    model: FaultModel,
    u: VertexId,
    v: VertexId,
    t: u32,
    alpha: u32,
) -> LbcDecision {
    let mut view = FaultView::new(g);
    let mut cut_vertices = Vec::new();
    let mut cut_edges = Vec::new();
    for _ in 0..=alpha {
        let Some(path) = ReferenceTree::build(&view, u, t).path(v) else {
            return LbcDecision::Yes(match model {
                FaultModel::Vertex => FaultSet::vertices(cut_vertices),
                FaultModel::Edge => FaultSet::edges(cut_edges),
            });
        };
        match model {
            FaultModel::Vertex => {
                for &x in path.interior_vertices() {
                    if view.block_vertex(x) {
                        cut_vertices.push(x);
                    }
                }
                if path.hop_count() <= 1 {
                    return LbcDecision::No;
                }
            }
            FaultModel::Edge => {
                for &e in &path.edges {
                    if view.block_edge(e) {
                        cut_edges.push(e);
                    }
                }
            }
        }
    }
    LbcDecision::No
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hop_searches_match_a_full_expansion_bfs(
        family in 0usize..4,
        n in 12usize..48,
        seed in 0u64..10_000,
        fault_mode in 0usize..3,
    ) {
        let g = family_graph(family, n, seed);
        let mut r = StdRng::seed_from_u64(seed ^ 0x5EED);
        let view = faulted_view(&g, fault_mode, &mut r);
        for _ in 0..4 {
            let source = vid(r.gen_range(0..n));
            check_against_reference(&view, source, &mut r);
        }
        // A faulted source, whenever the fault mode produced one.
        if let Some(s) = (0..n).map(vid).find(|&v| !view.contains_vertex(v)) {
            check_against_reference(&view, s, &mut r);
        }
        // The unfaulted graph itself, as the LBC engine's trees see it.
        check_against_reference(&g, vid(r.gen_range(0..n)), &mut r);
    }

    #[test]
    fn lbc_decisions_match_a_full_expansion_reference(
        family in 0usize..4,
        n in 10usize..32,
        seed in 0u64..10_000,
        t in 1u32..=6,
        alpha in 0u32..4,
    ) {
        let g = family_graph(family, n, seed);
        let mut r = StdRng::seed_from_u64(seed ^ 0x1BC);
        let mut scratch = LbcScratch::new();
        for model in [FaultModel::Vertex, FaultModel::Edge] {
            for _ in 0..8 {
                let u = vid(r.gen_range(0..n));
                for _ in 0..3 {
                    let v = vid(r.gen_range(0..n));
                    if u == v {
                        continue;
                    }
                    let reference = reference_lbc(&g, model, u, v, t, alpha);
                    let (one_shot, _) = decide_lbc(&g, model, u, v, t, alpha);
                    prop_assert_eq!(&one_shot, &reference);
                    let (pooled, _) = decide_lbc_with(&mut scratch, &g, model, u, v, t, alpha);
                    prop_assert_eq!(&pooled, &reference);
                }
            }
        }
    }
}

/// Hand-built tie: the target at depth `t` has two depth-`(t − 1)`
/// neighbours, and the one discovered first comes *later* in the target's
/// adjacency list (by id and by insertion), so the last-layer resolution
/// has to rank by discovery order, not by scan position.
#[test]
fn last_layer_parent_is_the_earliest_discovered_neighbour() {
    // 0 — 1 — 9 — 3 and 0 — 2 — 8 — 3. BFS from 0 discovers 1, 2, then 9
    // (through 1) before 8 (through 2), while 3 lists 8 before 9.
    let mut g = Graph::new(10);
    for (a, b) in [(0, 1), (0, 2), (1, 9), (2, 8), (8, 3), (9, 3)] {
        g.add_unit_edge(a, b);
    }
    let reference = ReferenceTree::build(&g, vid(0), 3).path(vid(3)).unwrap();
    assert_eq!(reference.vertices, vec![vid(0), vid(1), vid(9), vid(3)]);
    let mut scratch = HopBfsScratch::new();
    let mut out = HopPath::default();
    assert!(scratch.find_path_into(&g, vid(0), vid(3), 3, &mut out));
    assert_eq!(out, reference);
    scratch.build_tree(&g, vid(0), 3);
    assert!(scratch.tree_path_into(&g, vid(3), &mut out));
    assert_eq!(out, reference);
    // Block the winner: the runner-up takes over, as in a full BFS.
    let mut view = FaultView::new(&g);
    view.block_vertex(vid(9));
    let reference = ReferenceTree::build(&view, vid(0), 3).path(vid(3)).unwrap();
    assert_eq!(reference.vertices, vec![vid(0), vid(2), vid(8), vid(3)]);
    assert!(scratch.find_path_into(&view, vid(0), vid(3), 3, &mut out));
    assert_eq!(out, reference);
}
