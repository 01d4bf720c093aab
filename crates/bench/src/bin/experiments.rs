//! Experiment harness: regenerates every theorem-level experiment of
//! DESIGN.md / EXPERIMENTS.md as a markdown table on stdout.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ftspan-bench --bin experiments [all|lbc|size-vs-n|size-vs-f|runtime|
//!     exact-vs-poly|weighted|dk11|local|congest|eft|blocking|oracle|shard|bench-trajectory|
//!     scale [quick]]
//! ```
//!
//! With no argument (or `all`) every experiment runs. The tables in
//! EXPERIMENTS.md are produced by this binary.
//!
//! `bench-trajectory` is special: instead of a table it measures the four
//! serving scenarios (cached single queries, cached batch, 8-shard batch,
//! churn repair) and writes the machine-readable `BENCH_oracle.json` at the
//! repo root, preserving recorded `before` fields so the file accumulates a
//! before/after trajectory across optimization PRs. CI uploads the file as
//! an artifact.
//!
//! `scale` is the E14 scale-tier experiment: 10^5-node graphs (10^6 with
//! `FTSPAN_LONG_TESTS=1`) across four families, measuring parallel
//! construction speedup, then single-vs-flat-sharded memory per edge and
//! query throughput, and merging the `scale_build` / `mem_bytes_per_edge` /
//! `scale_query` series into `BENCH_oracle.json`. `scale quick` is the
//! reduced-n CI smoke: it prints the table but leaves the recorded
//! trajectory file untouched.

use ftspan::blocking::{blocking_set_from_certificates, blocking_violations, lemma6_size_bound};
use ftspan::lbc::decide_vertex_lbc;
use ftspan::verify::{verify_spanner, VerificationMode};
use ftspan::{
    bounds, dk, exact_greedy_spanner, poly_greedy_spanner, poly_greedy_spanner_with, FaultModel,
    PolyGreedyOptions, SpannerParams,
};
use ftspan_bench::{geometric_workload, gnp_workload, markdown_table, rng, timed};
use ftspan_distributed::{congest_baswana_sen, congest_ft_spanner, local_ft_spanner};
use ftspan_graph::vid;
use rand::Rng;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    let all = which == "all";
    if all || which == "lbc" {
        experiment_lbc();
    }
    if all || which == "size-vs-n" {
        experiment_size_vs_n();
    }
    if all || which == "size-vs-f" {
        experiment_size_vs_f();
    }
    if all || which == "runtime" {
        experiment_runtime();
    }
    if all || which == "exact-vs-poly" {
        experiment_exact_vs_poly();
    }
    if all || which == "weighted" {
        experiment_weighted();
    }
    if all || which == "dk11" {
        experiment_dk11();
    }
    if all || which == "local" {
        experiment_local();
    }
    if all || which == "congest" {
        experiment_congest();
    }
    if all || which == "eft" {
        experiment_eft();
    }
    if all || which == "blocking" {
        experiment_blocking();
    }
    if all || which == "oracle" {
        experiment_oracle();
    }
    if all || which == "shard" {
        experiment_shard();
    }
    if which == "bench-trajectory" {
        bench_trajectory();
    }
    if which == "scale" {
        let quick = std::env::args().nth(2).is_some_and(|mode| mode == "quick");
        experiment_scale(quick);
    }
}

/// E1 (Theorem 4): LBC(t, α) decision quality and cost.
fn experiment_lbc() {
    println!("\n## E1 — Length-Bounded Cut gap decision (Theorem 4)\n");
    let mut rows = Vec::new();
    for &n in &[100usize, 200, 400] {
        let g = gnp_workload(n, 8.0, 1);
        for &alpha in &[1u32, 2, 4] {
            let mut r = rng(alpha as u64);
            let mut bfs_total = 0usize;
            let mut yes = 0usize;
            let trials = 200;
            let (_, secs) = timed(|| {
                for _ in 0..trials {
                    let u = vid(r.gen_range(0..n));
                    let v = vid(r.gen_range(0..n));
                    if u == v {
                        continue;
                    }
                    let (d, stats) = decide_vertex_lbc(&g, u, v, 3, alpha);
                    bfs_total += stats.bfs_runs;
                    if d.is_yes() {
                        yes += 1;
                    }
                }
            });
            rows.push(vec![
                n.to_string(),
                g.edge_count().to_string(),
                alpha.to_string(),
                format!("{:.2}", bfs_total as f64 / trials as f64),
                format!("{:.1}", 100.0 * yes as f64 / trials as f64),
                format!("{:.1}", 1e6 * secs / trials as f64),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "m",
                "alpha",
                "avg BFS runs (<= alpha+1)",
                "YES %",
                "us / decision"
            ],
            &rows
        )
    );
}

/// E2 (Theorems 5/8): modified greedy size vs n against the Theorem 8 curve.
fn experiment_size_vs_n() {
    println!("\n## E2 — Modified greedy size vs n (Theorems 5, 8)\n");
    let mut rows = Vec::new();
    for &n in &[100usize, 200, 400, 800] {
        let g = gnp_workload(n, 12.0, 2);
        for &f in &[1u32, 2] {
            let params = SpannerParams::vertex(2, f);
            let (result, secs) = timed(|| poly_greedy_spanner(&g, params));
            let bound = bounds::poly_greedy_size_bound(n, 2, f);
            let report = verify_spanner(
                &g,
                &result.spanner,
                params,
                VerificationMode::Sampled {
                    samples: 30,
                    seed: 1,
                },
            );
            rows.push(vec![
                n.to_string(),
                g.edge_count().to_string(),
                f.to_string(),
                result.spanner.edge_count().to_string(),
                format!("{bound:.0}"),
                format!("{:.2}", result.spanner.edge_count() as f64 / bound),
                report.is_valid().to_string(),
                format!("{secs:.2}"),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "m",
                "f",
                "|E(H)|",
                "Thm 8 curve",
                "ratio",
                "FT check",
                "seconds"
            ],
            &rows
        )
    );
}

/// E3 (Theorem 8 vs DK11): size scaling in f.
fn experiment_size_vs_f() {
    println!("\n## E3 — Size scaling in f: modified greedy vs DK11 (Theorems 8, 13)\n");
    let n = 200;
    let g = gnp_workload(n, 20.0, 3);
    let mut rows = Vec::new();
    for &f in &[1u32, 2, 4, 8] {
        let params = SpannerParams::vertex(2, f);
        let greedy = poly_greedy_spanner(&g, params);
        let mut r = rng(f as u64 + 10);
        let dk11 = dk::dk_spanner(&g, 2, f, &mut r);
        rows.push(vec![
            f.to_string(),
            greedy.spanner.edge_count().to_string(),
            format!("{:.0}", bounds::poly_greedy_size_bound(n, 2, f)),
            dk11.spanner.edge_count().to_string(),
            format!("{:.0}", bounds::dk_size_bound(n, 2, f)),
            format!(
                "{:.2}",
                dk11.spanner.edge_count() as f64 / greedy.spanner.edge_count().max(1) as f64
            ),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "f",
                "greedy |E(H)|",
                "f^(1-1/k) curve",
                "DK11 |E(H)|",
                "f^(2-1/k) curve",
                "DK11 / greedy"
            ],
            &rows
        )
    );
    println!("(input: n = {n}, m = {})", g.edge_count());
}

/// E4 (Theorem 9): running time scaling in m.
fn experiment_runtime() {
    println!("\n## E4 — Modified greedy running time vs m (Theorem 9)\n");
    let n = 250;
    let mut rows = Vec::new();
    for &deg in &[6.0f64, 12.0, 24.0, 48.0] {
        let g = gnp_workload(n, deg, 4);
        let params = SpannerParams::vertex(2, 2);
        let (result, secs) = timed(|| poly_greedy_spanner(&g, params));
        rows.push(vec![
            g.edge_count().to_string(),
            result.spanner.edge_count().to_string(),
            result.stats.lbc_calls.to_string(),
            result.stats.bfs_runs.to_string(),
            format!("{secs:.3}"),
            format!("{:.2}", 1e6 * secs / g.edge_count() as f64),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "m",
                "|E(H)|",
                "LBC calls",
                "BFS runs",
                "seconds",
                "us per edge"
            ],
            &rows
        )
    );
    println!("(n = {n}, k = 2, f = 2; Theorem 9 predicts time linear in m for fixed n, k, f)");
}

/// E5 (Theorem 2 vs BP19): exact greedy vs polynomial greedy.
fn experiment_exact_vs_poly() {
    println!("\n## E5 — Exact greedy [BP19] vs polynomial greedy (Theorem 2)\n");
    let mut rows = Vec::new();
    for &n in &[20usize, 30, 40, 60] {
        let g = gnp_workload(n, 8.0, 5);
        let params = SpannerParams::vertex(2, 1);
        let (exact, exact_secs) = timed(|| exact_greedy_spanner(&g, params).expect("budget"));
        let (poly, poly_secs) = timed(|| poly_greedy_spanner(&g, params));
        rows.push(vec![
            n.to_string(),
            g.edge_count().to_string(),
            exact.spanner.edge_count().to_string(),
            poly.spanner.edge_count().to_string(),
            format!(
                "{:.2}",
                poly.spanner.edge_count() as f64 / exact.spanner.edge_count().max(1) as f64
            ),
            format!("{:.3}", exact_secs),
            format!("{:.3}", poly_secs),
            exact.stats.fault_sets_enumerated.to_string(),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "m",
                "exact |E(H)|",
                "poly |E(H)|",
                "poly/exact",
                "exact s",
                "poly s",
                "fault sets enumerated"
            ],
            &rows
        )
    );
}

/// E6 (Theorem 10): weighted graphs.
fn experiment_weighted() {
    println!("\n## E6 — Weighted modified greedy (Theorem 10)\n");
    let mut rows = Vec::new();
    for &n in &[100usize, 200] {
        let g = geometric_workload(n, 0.18, 6);
        for &f in &[1u32, 2] {
            let params = SpannerParams::vertex(2, f);
            let result = poly_greedy_spanner(&g, params);
            let report = verify_spanner(
                &g,
                &result.spanner,
                params,
                VerificationMode::Sampled {
                    samples: 40,
                    seed: 2,
                },
            );
            rows.push(vec![
                n.to_string(),
                g.edge_count().to_string(),
                f.to_string(),
                result.spanner.edge_count().to_string(),
                format!("{:.1}", 100.0 * result.stats.retention()),
                format!("{:.2}", report.max_stretch),
                params.stretch().to_string(),
                report.is_valid().to_string(),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "m",
                "f",
                "|E(H)|",
                "% edges kept",
                "max observed stretch",
                "allowed",
                "FT check"
            ],
            &rows
        )
    );
}

/// E7 (Theorem 13): Dinitz–Krauthgamer size and validity.
fn experiment_dk11() {
    println!("\n## E7 — Dinitz–Krauthgamer [DK11] (Theorem 13)\n");
    let n = 200;
    let g = gnp_workload(n, 16.0, 7);
    let mut rows = Vec::new();
    for &f in &[1u32, 2, 4] {
        let mut r = rng(f as u64 + 70);
        let (result, secs) = timed(|| dk::dk_spanner(&g, 2, f, &mut r));
        let params = SpannerParams::vertex(2, f);
        let report = verify_spanner(
            &g,
            &result.spanner,
            params,
            VerificationMode::Sampled {
                samples: 30,
                seed: 3,
            },
        );
        rows.push(vec![
            f.to_string(),
            result.spanner.edge_count().to_string(),
            format!(
                "{:.0}",
                bounds::dk_size_bound(n, 2, f).min(g.edge_count() as f64)
            ),
            report.is_valid().to_string(),
            format!("{secs:.2}"),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "f",
                "|E(H)|",
                "Thm 13 curve (capped at m)",
                "FT check",
                "seconds"
            ],
            &rows
        )
    );
    println!("(input: n = {n}, m = {})", g.edge_count());
}

/// E8 (Theorem 12): LOCAL model.
fn experiment_local() {
    println!("\n## E8 — LOCAL construction (Theorem 12)\n");
    let mut rows = Vec::new();
    for &n in &[100usize, 200, 400] {
        let g = gnp_workload(n, 8.0, 8);
        let params = SpannerParams::vertex(2, 1);
        let mut r = rng(n as u64);
        let (result, secs) = timed(|| local_ft_spanner(&g, params, &mut r));
        let report = verify_spanner(
            &g,
            &result.spanner,
            params,
            VerificationMode::Sampled {
                samples: 25,
                seed: 4,
            },
        );
        rows.push(vec![
            n.to_string(),
            g.edge_count().to_string(),
            result.spanner.edge_count().to_string(),
            format!(
                "{:.0}",
                bounds::local_size_bound(n, 2, 1).min(g.edge_count() as f64)
            ),
            result.rounds.rounds.to_string(),
            format!("{:.0}", bounds::local_round_bound(n)),
            result.partitions.to_string(),
            report.is_valid().to_string(),
            format!("{secs:.2}"),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "m",
                "|E(H)|",
                "size curve (capped)",
                "rounds",
                "log2 n",
                "partitions",
                "FT check",
                "seconds"
            ],
            &rows
        )
    );
}

/// E9 (Theorems 14, 15): CONGEST model.
fn experiment_congest() {
    println!("\n## E9 — CONGEST constructions (Theorems 14, 15)\n");
    println!("### Distributed Baswana–Sen (Theorem 14)\n");
    let mut rows = Vec::new();
    let g = gnp_workload(200, 10.0, 9);
    for &k in &[2u32, 3, 4] {
        let mut r = rng(k as u64 + 90);
        let result = congest_baswana_sen(&g, k, &mut r);
        rows.push(vec![
            k.to_string(),
            result.spanner.edge_count().to_string(),
            result.rounds.rounds.to_string(),
            format!("{:.0}", bounds::baswana_sen_round_bound(k)),
            result.rounds.max_words_per_edge_round.to_string(),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["k", "|E(H)|", "rounds", "k^2", "max words/edge/round"],
            &rows
        )
    );

    println!("### Fault-tolerant CONGEST construction (Theorem 15)\n");
    let mut rows = Vec::new();
    for &(n, f) in &[(100usize, 1u32), (100, 2), (200, 1)] {
        let g = gnp_workload(n, 10.0, 10);
        let params = SpannerParams::vertex(2, f);
        let mut r = rng(n as u64 + f as u64);
        let (out, secs) = timed(|| congest_ft_spanner(&g, params, &mut r));
        let report = verify_spanner(
            &g,
            &out.result.spanner,
            params,
            VerificationMode::Sampled {
                samples: 20,
                seed: 5,
            },
        );
        rows.push(vec![
            n.to_string(),
            f.to_string(),
            out.result.spanner.edge_count().to_string(),
            out.iterations.to_string(),
            out.phase1_rounds.to_string(),
            out.phase2_rounds.to_string(),
            out.result.rounds.rounds.to_string(),
            format!("{:.0}", bounds::congest_round_bound(n, 2, f)),
            out.max_edge_multiplicity.to_string(),
            report.is_valid().to_string(),
            format!("{secs:.1}"),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "f",
                "|E(H)|",
                "DK iterations",
                "phase-1 rounds",
                "phase-2 rounds",
                "total rounds",
                "Thm 15 curve",
                "congestion factor",
                "FT check",
                "seconds"
            ],
            &rows
        )
    );
}

/// E10: edge-fault-tolerant variants.
fn experiment_eft() {
    println!("\n## E10 — Edge-fault-tolerant variants\n");
    let n = 150;
    let g = gnp_workload(n, 12.0, 11);
    let mut rows = Vec::new();
    for &f in &[1u32, 2, 4] {
        let vft = poly_greedy_spanner(&g, SpannerParams::vertex(2, f));
        let eft_params = SpannerParams::edge(2, f);
        let eft = poly_greedy_spanner(&g, eft_params);
        let report = verify_spanner(
            &g,
            &eft.spanner,
            eft_params,
            VerificationMode::Sampled {
                samples: 30,
                seed: 6,
            },
        );
        rows.push(vec![
            f.to_string(),
            vft.spanner.edge_count().to_string(),
            eft.spanner.edge_count().to_string(),
            format!(
                "{:.2}",
                eft.spanner.edge_count() as f64 / vft.spanner.edge_count().max(1) as f64
            ),
            report.is_valid().to_string(),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["f", "VFT |E(H)|", "EFT |E(H)|", "EFT/VFT", "EFT check"],
            &rows
        )
    );
    println!("(input: n = {n}, m = {})", g.edge_count());
}

/// E11 (Lemma 6): blocking sets extracted from certificates.
fn experiment_blocking() {
    println!("\n## E11 — Blocking sets from LBC certificates (Lemma 6)\n");
    let mut rows = Vec::new();
    for &n in &[30usize, 50] {
        for &f in &[1u32, 2] {
            let g = gnp_workload(n, 8.0, 12);
            let k = 2u32;
            let params = SpannerParams::vertex(k, f);
            let options = PolyGreedyOptions {
                collect_certificates: true,
                ..PolyGreedyOptions::default()
            };
            let result = poly_greedy_spanner_with(&g, params, &options);
            let blocking = blocking_set_from_certificates(&result);
            let violations = blocking_violations(&result.spanner, &blocking, 2 * k as usize);
            rows.push(vec![
                n.to_string(),
                f.to_string(),
                result.spanner.edge_count().to_string(),
                blocking.len().to_string(),
                lemma6_size_bound(result.spanner.edge_count(), k, f).to_string(),
                violations.len().to_string(),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "f",
                "|E(H)|",
                "|B|",
                "Lemma 6 bound (2k-1)f|E(H)|",
                "unblocked 2k-cycles"
            ],
            &rows
        )
    );
    let _ = FaultModel::Vertex; // silence unused-import lints if variants change
}

/// E12: the serving layer — batched query throughput and churn repair.
fn experiment_oracle() {
    use ftspan::{sample_fault_set, FaultSet};
    use ftspan_oracle::{ChurnConfig, FaultOracle, OracleOptions, Query};

    println!("\n## E12 — FaultOracle: throughput and latency under rolling faults\n");
    let n = 1_000;
    let batch_size = 2_000;
    let graph = gnp_workload(n, 16.0, 13);
    let params = SpannerParams::vertex(2, 2);
    let (mut oracle, build_secs) =
        timed(|| FaultOracle::build(graph.clone(), params, OracleOptions::default()));
    println!(
        "built {params} on n = {n}, m = {}: {} spanner edges in {build_secs:.1}s\n",
        graph.edge_count(),
        oracle.spanner().edge_count()
    );

    let mut query_rng = rng(14);
    let mut wave_rng = rng(15);
    let churn = ChurnConfig::default();
    let mut rows = Vec::new();
    for wave_no in 0..5u32 {
        // A rolling wave of faults beyond the design tolerance, then a batch.
        let outcome = if wave_no == 0 {
            None
        } else {
            let wave = sample_fault_set(oracle.graph(), FaultModel::Vertex, 3, &[], &mut wave_rng);
            Some(oracle.apply_wave(&wave, &churn))
        };
        let fault_pool: Vec<FaultSet> = (0..8)
            .map(|_| sample_fault_set(oracle.graph(), FaultModel::Vertex, 2, &[], &mut query_rng))
            .collect();
        let hot_sources: Vec<usize> = (0..32).map(|_| query_rng.gen_range(0..n)).collect();
        let queries: Vec<Query> = (0..batch_size)
            .map(|i| {
                let u = vid(hot_sources[query_rng.gen_range(0..hot_sources.len())]);
                let v = vid(query_rng.gen_range(0..n));
                Query::distance(u, v, fault_pool[i % fault_pool.len()].clone())
            })
            .collect();
        let before = oracle.metrics().snapshot();
        let (answers, secs) = timed(|| oracle.answer_batch(&queries));
        let after = oracle.metrics().snapshot();
        let hits = after.cache_hits - before.cache_hits;
        let served = answers.iter().filter(|a| a.is_reachable()).count();
        rows.push(vec![
            wave_no.to_string(),
            outcome
                .as_ref()
                .map_or("-".into(), |o| o.broken_pairs.len().to_string()),
            outcome
                .as_ref()
                .map_or("-".into(), |o| o.edges_added.to_string()),
            outcome
                .as_ref()
                .map_or("-".into(), |o| o.escalated.to_string()),
            served.to_string(),
            format!("{:.0}", batch_size as f64 / secs),
            format!("{:.1}", 100.0 * hits as f64 / batch_size as f64),
            format!("{:.1}", 1e6 * secs / batch_size as f64),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "wave",
                "broken pairs",
                "edges added",
                "escalated",
                "reachable",
                "queries/s",
                "hit %",
                "us/query"
            ],
            &rows
        )
    );
}

/// Pre-optimization churn-wave baselines: measured by running the
/// `churn_wave` / `churn_wave_sharded` scenarios below (identical seeds and
/// shapes) against commit e2e03e0's from-scratch LBC repair path, on the
/// same machine that recorded the scenarios' `after` values.
const CHURN_WAVE_BASELINE: f64 = 3.22;
const CHURN_WAVE_SHARDED_BASELINE: f64 = 6.05;

/// Pre-front-end baseline of the `service_batch` scenario: the same
/// duplicate-heavy 2 000-request stream served by a direct
/// `answer_batch` call (no tickets, no coalescing, no admission) on the
/// machine that recorded the scenario's `after` value. A speedup below
/// 1.0 is therefore not a regression — it is the recorded *price* of the
/// front-end (queue, tickets, coalescing bookkeeping) on a purely
/// in-memory hot loop, the number future front-end optimization PRs move.
/// The harness re-measures and prints the direct throughput on every run
/// as a drift check.
const SERVICE_BATCH_BASELINE: f64 = 7_580_961.0;

/// One measured scenario of the bench trajectory.
struct TrajectoryPoint {
    name: &'static str,
    unit: &'static str,
    /// Throughput recorded before the optimization PR (carried forward from
    /// an existing `BENCH_oracle.json`, falling back to the recorded pre-PR
    /// baseline for this scenario).
    before: f64,
    after: f64,
}

/// The workspace-root `BENCH_oracle.json`, resolved independently of the
/// process cwd so `before` fields are found (and the CI artifact step sees
/// the output) even when invoked from a crate directory.
fn trajectory_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_oracle.json")
}

/// Renders one scenario line of `BENCH_oracle.json` (no trailing comma).
/// Small rates (waves/s) keep two decimals; large ones round to integers.
fn render_scenario(name: &str, unit: &str, before: f64, after: f64) -> String {
    let fmt = |v: f64| {
        if v < 1_000.0 {
            format!("{v:.2}")
        } else {
            format!("{v:.0}")
        }
    };
    let speedup = if before > 0.0 { after / before } else { 0.0 };
    format!(
        "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"before\": {}, \"after\": {}, \"speedup\": {speedup:.2}}}",
        fmt(before),
        fmt(after),
    )
}

/// Splits the scenario lines of an existing `BENCH_oracle.json` into
/// `(name, line)` pairs (lines trimmed, trailing commas stripped).
fn parse_scenarios(content: &str) -> Vec<(String, String)> {
    content
        .lines()
        .filter_map(|line| {
            let trimmed = line.trim().trim_end_matches(',');
            let anchor = "\"name\": \"";
            let start = trimmed.find(anchor)? + anchor.len();
            let name = &trimmed[start..start + trimmed[start..].find('"')?];
            Some((name.to_owned(), trimmed.to_owned()))
        })
        .collect()
}

/// Writes `BENCH_oracle.json` by **merging**: scenarios already in the file
/// are replaced in place when a new line carries the same name and kept
/// verbatim otherwise, so the trajectory harness and the scale experiment
/// never clobber each other's recorded series.
fn write_merged_trajectory(new: &[(String, String)]) {
    let path = trajectory_path();
    let previous = std::fs::read_to_string(&path).unwrap_or_default();
    let mut scenarios = parse_scenarios(&previous);
    for (name, line) in new {
        match scenarios.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1.clone_from(line),
            None => scenarios.push((name.clone(), line.clone())),
        }
    }
    let mut json = String::from("{\n  \"bench\": \"oracle\",\n  \"scenarios\": [\n");
    for (i, (_, line)) in scenarios.iter().enumerate() {
        json.push_str("    ");
        json.push_str(line);
        if i + 1 < scenarios.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&path, json).expect("write BENCH_oracle.json");
    println!("\nwrote {}", path.display());
}

/// Extracts the `"before"` value recorded for `name` in an existing
/// `BENCH_oracle.json`, so re-runs keep the original pre-optimization
/// baseline instead of overwriting the trajectory with itself.
fn recorded_before(content: &str, name: &str) -> Option<f64> {
    let anchor = format!("\"name\": \"{name}\"");
    let rest = &content[content.find(&anchor)? + anchor.len()..];
    let field = "\"before\": ";
    let rest = &rest[rest.find(field)? + field.len()..];
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Measures the serving scenarios of the bench trajectory and writes
/// `BENCH_oracle.json`. Every workload is deterministic (fixed seeds, same
/// shapes as the `oracle`/`sharded` criterion benches), so two runs on the
/// same machine are comparable.
fn bench_trajectory() {
    use ftspan::{sample_fault_set, FaultSet};
    use ftspan_oracle::{
        ChurnConfig, FaultOracle, OracleOptions, Query, ShardPlanOptions, ShardedOptions,
        ShardedOracle,
    };

    // The pre-PR baseline recorded when each scenario was first introduced,
    // measured by running this exact harness against the code the scenario's
    // optimization PR started from (the query scenarios against the
    // adjacency-list core of commit f0adb20; the churn-wave scenarios
    // against the from-scratch LBC repair path of commit e2e03e0). Used only
    // when the trajectory file does not record a `before` for the scenario.
    const RECORDED_BASELINE: [(&str, f64); 7] = [
        ("single_cached_distance", 4_766_804.0),
        ("batch_cached", 2_665_970.0),
        ("batch_8_shards", 1_764_859.0),
        ("churn_repair", 6.25),
        ("churn_wave", CHURN_WAVE_BASELINE),
        ("churn_wave_sharded", CHURN_WAVE_SHARDED_BASELINE),
        ("service_batch", SERVICE_BATCH_BASELINE),
    ];

    println!("\n## Bench trajectory — serving throughput before/after\n");
    let previous = std::fs::read_to_string(trajectory_path()).unwrap_or_default();
    let baseline = |name: &str| {
        recorded_before(&previous, name).unwrap_or_else(|| {
            if previous.contains(&format!("\"name\": \"{name}\"")) {
                // The scenario is in the file but its `before` was not
                // parsed — formatting drift or a renamed field. Falling
                // back to the compile-time baseline loses any accumulated
                // trajectory, so say so instead of doing it silently. (A
                // scenario absent from the file is just new; its recorded
                // baseline applies without noise.)
                eprintln!(
                    "warning: BENCH_oracle.json mentions {name} but no `before` was \
                     parsed for it; using the recorded pre-PR baseline instead"
                );
            }
            RECORDED_BASELINE
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v)
        })
    };

    let n = 400;
    let batch_size = 2_000;
    let graph = gnp_workload(n, 6.0, 7);
    let params = SpannerParams::vertex(2, 2);

    // The bursty mixed distance/path batch of the `oracle` criterion bench.
    let queries: Vec<Query> = {
        let mut r = rng(11);
        let waves: Vec<FaultSet> = (0..8)
            .map(|_| {
                let a = vid(r.gen_range(0..n));
                let b = vid(r.gen_range(0..n));
                FaultSet::vertices([a, b])
            })
            .collect();
        let hot: Vec<usize> = (0..24).map(|_| r.gen_range(0..n)).collect();
        (0..batch_size)
            .map(|i| {
                let u = vid(hot[r.gen_range(0..hot.len())]);
                let mut v = vid(r.gen_range(0..n));
                while v == u {
                    v = vid(r.gen_range(0..n));
                }
                let faults = waves[i % waves.len()].clone();
                if i % 4 == 0 {
                    Query::path(u, v, faults)
                } else {
                    Query::distance(u, v, faults)
                }
            })
            .collect()
    };

    let mut points: Vec<TrajectoryPoint> = Vec::new();

    // 1. Cached single-query distance throughput (the hot hit path).
    {
        let oracle = FaultOracle::build(graph.clone(), params, OracleOptions::default());
        let faults = FaultSet::vertices([vid(1), vid(2)]);
        let _ = oracle.distance(vid(3), vid(n - 1), &faults); // warm the tree
        let reps = 200_000u32;
        let (_, secs) = timed(|| {
            for _ in 0..reps {
                let _ = std::hint::black_box(oracle.distance(vid(3), vid(n - 1), &faults));
            }
        });
        points.push(TrajectoryPoint {
            name: "single_cached_distance",
            unit: "queries/s",
            before: baseline("single_cached_distance"),
            after: f64::from(reps) / secs,
        });
    }

    // 2. Cached batch throughput on the single oracle.
    {
        let oracle = FaultOracle::build(graph.clone(), params, OracleOptions::default());
        let _ = oracle.answer_batch(&queries); // warm
        let reps = 20;
        let (_, secs) = timed(|| {
            for _ in 0..reps {
                let _ = std::hint::black_box(oracle.answer_batch(&queries));
            }
        });
        points.push(TrajectoryPoint {
            name: "batch_cached",
            unit: "queries/s",
            before: baseline("batch_cached"),
            after: (reps * batch_size) as f64 / secs,
        });
    }

    // 3. The same batch through an 8-shard plan.
    {
        let options = ShardedOptions {
            plan: ShardPlanOptions {
                shards: 8,
                ..ShardPlanOptions::default()
            },
            ..ShardedOptions::default()
        };
        let oracle = ShardedOracle::build(graph.clone(), params, options);
        let _ = oracle.answer_batch(&queries); // warm
        let reps = 20;
        let (_, secs) = timed(|| {
            for _ in 0..reps {
                let _ = std::hint::black_box(oracle.answer_batch(&queries));
            }
        });
        points.push(TrajectoryPoint {
            name: "batch_8_shards",
            unit: "queries/s",
            before: baseline("batch_8_shards"),
            after: (reps * batch_size) as f64 / secs,
        });
    }

    // 4. Churn repair: waves applied per second (localized respan included).
    {
        let graph = gnp_workload(300, 8.0, 21);
        let mut oracle =
            FaultOracle::build(graph, SpannerParams::vertex(2, 1), OracleOptions::default());
        let churn = ChurnConfig::default();
        let mut wave_rng = rng(22);
        let waves: Vec<FaultSet> = (0..10)
            .map(|_| sample_fault_set(oracle.graph(), FaultModel::Vertex, 2, &[], &mut wave_rng))
            .collect();
        let (_, secs) = timed(|| {
            for wave in &waves {
                let _ = std::hint::black_box(oracle.apply_wave(wave, &churn));
            }
        });
        points.push(TrajectoryPoint {
            name: "churn_repair",
            unit: "waves/s",
            before: baseline("churn_repair"),
            after: waves.len() as f64 / secs,
        });
    }

    // 5. Churn wave on the E12-shaped single oracle (gnp, f = 2, waves of
    //    3 vertices): the repair path the incremental LBC engine serves.
    {
        let graph = gnp_workload(400, 8.0, 13);
        let mut oracle =
            FaultOracle::build(graph, SpannerParams::vertex(2, 2), OracleOptions::default());
        let churn = ChurnConfig::default();
        let mut wave_rng = rng(23);
        let waves: Vec<FaultSet> = (0..10)
            .map(|_| sample_fault_set(oracle.graph(), FaultModel::Vertex, 3, &[], &mut wave_rng))
            .collect();
        let (_, secs) = timed(|| {
            for wave in &waves {
                let _ = std::hint::black_box(oracle.apply_wave(wave, &churn));
            }
        });
        points.push(TrajectoryPoint {
            name: "churn_wave",
            unit: "waves/s",
            before: baseline("churn_wave"),
            after: waves.len() as f64 / secs,
        });
    }

    // 6. Churn wave fan-out on the E13-shaped sharded oracle (grid, 8
    //    shards, waves of 2 vertices): global repair plus per-shard region
    //    rebuilds.
    {
        let graph = ftspan_graph::generators::grid(20, 20);
        let options = ShardedOptions {
            plan: ShardPlanOptions {
                shards: 8,
                ..ShardPlanOptions::default()
            },
            ..ShardedOptions::default()
        };
        let mut oracle = ShardedOracle::build(graph, SpannerParams::vertex(2, 2), options);
        let churn = ChurnConfig::default();
        let mut wave_rng = rng(24);
        let waves: Vec<FaultSet> = (0..10)
            .map(|_| {
                sample_fault_set(
                    oracle.global().graph(),
                    FaultModel::Vertex,
                    2,
                    &[],
                    &mut wave_rng,
                )
            })
            .collect();
        let (_, secs) = timed(|| {
            for wave in &waves {
                let _ = std::hint::black_box(oracle.apply_wave(wave, &churn));
            }
        });
        points.push(TrajectoryPoint {
            name: "churn_wave_sharded",
            unit: "waves/s",
            before: baseline("churn_wave_sharded"),
            after: waves.len() as f64 / secs,
        });
    }

    // 7. Service front-end throughput: a duplicate-heavy request stream
    //    (2 000 requests drawn from 300 distinct queries — bursty traffic
    //    repeats itself) through `OracleService` with coalescing, vs the
    //    recorded direct `answer_batch` baseline on the same stream.
    {
        use ftspan_bench::{serve_request_stream, service_request_stream};
        use ftspan_oracle::{OracleService, ServiceConfig};
        // The exact stream the `service` criterion bench runs (shared via
        // ftspan_bench::service_request_stream, so the recorded series and
        // the smoke bench can never drift apart).
        let stream: Vec<Query> = service_request_stream(n, batch_size, 300, 19);
        let reps = 20;

        // Drift check: the direct path on the same stream, printed but not
        // recorded (its recorded value is the scenario's `before`).
        let direct = FaultOracle::build(graph.clone(), params, OracleOptions::default());
        let _ = direct.answer_batch(&stream); // warm
        let (_, direct_secs) = timed(|| {
            for _ in 0..reps {
                let _ = std::hint::black_box(direct.answer_batch(&stream));
            }
        });
        println!(
            "(service_batch drift check: direct answer_batch on this stream: {:.0} queries/s)",
            (reps * batch_size) as f64 / direct_secs
        );

        let oracle = FaultOracle::build(graph.clone(), params, OracleOptions::default());
        let service = OracleService::new(oracle, ServiceConfig::default());
        serve_request_stream(&service, &stream); // warm
        let (_, secs) = timed(|| {
            for _ in 0..reps {
                serve_request_stream(std::hint::black_box(&service), &stream);
            }
        });
        points.push(TrajectoryPoint {
            name: "service_batch",
            unit: "queries/s",
            before: baseline("service_batch"),
            after: (reps * batch_size) as f64 / secs,
        });
    }

    // 7b. The same stream through the concurrent core's worker pool:
    //     a single-threaded backend (`OracleOptions { workers: 1 }`) so the
    //     only parallelism measured is the service's reader workers running
    //     admission rounds concurrently against the published epoch. Its
    //     `before` is a single-threaded direct `answer_batch` on the same
    //     backend measured *this run*, so the speedup column is the honest
    //     multi-worker scaling factor.
    {
        use ftspan_bench::{serve_request_stream, service_request_stream};
        use ftspan_oracle::{OracleService, ServiceConfig};
        let stream: Vec<Query> = service_request_stream(n, batch_size, 300, 19);
        let reps = 20;
        let single_thread = OracleOptions {
            workers: 1,
            ..OracleOptions::default()
        };

        let direct = FaultOracle::build(graph.clone(), params, single_thread.clone());
        let _ = direct.answer_batch(&stream); // warm
        let (_, direct_secs) = timed(|| {
            for _ in 0..reps {
                let _ = std::hint::black_box(direct.answer_batch(&stream));
            }
        });

        let workers = std::thread::available_parallelism()
            .map_or(2, usize::from)
            .min(8);
        let oracle = FaultOracle::build(graph.clone(), params, single_thread);
        let service = OracleService::new(
            oracle,
            ServiceConfig::default()
                .with_workers(workers)
                .with_max_in_flight(64),
        );
        serve_request_stream(&service, &stream); // warm
        let (_, secs) = timed(|| {
            for _ in 0..reps {
                serve_request_stream(std::hint::black_box(&service), &stream);
            }
        });
        println!("(multi_worker_batch: {workers} service workers over a 1-thread backend)");
        points.push(TrajectoryPoint {
            name: "multi_worker_batch",
            unit: "queries/s",
            before: (reps * batch_size) as f64 / direct_secs,
            after: (reps * batch_size) as f64 / secs,
        });
    }

    // 8. The same stream through `ftspan-server` over loopback TCP, one
    //    BATCH frame per rep. Its `before` is the in-process service
    //    throughput measured *this run* (scenario 7), so the speedup column
    //    is the honest wire tax — framing, codec, two socket hops, and the
    //    service-thread handoff — and is expected to sit below 1.0.
    {
        use ftspan_server::{Client, Server, ServerConfig};
        let stream: Vec<Query> = ftspan_bench::service_request_stream(n, batch_size, 300, 19);
        let reps = 20;
        let in_process = points
            .iter()
            .find(|p| p.name == "service_batch")
            .expect("scenario 7 recorded")
            .after;

        let oracle = FaultOracle::build(graph.clone(), params, OracleOptions::default());
        let service =
            ftspan_oracle::OracleService::new(oracle, ftspan_oracle::ServiceConfig::default());
        let server = Server::start(service, "127.0.0.1:0", ServerConfig::default())
            .expect("loopback server starts");
        let mut client = Client::connect(server.local_addr()).expect("client connects");
        let _ = client.batch(stream.clone()).expect("warm batch"); // warm
        let (_, secs) = timed(|| {
            for _ in 0..reps {
                let _ = std::hint::black_box(client.batch(stream.clone()).expect("batch served"));
            }
        });
        drop(client);
        let _ = server.shutdown();
        points.push(TrajectoryPoint {
            name: "server_batch",
            unit: "queries/s",
            before: in_process,
            after: (reps * batch_size) as f64 / secs,
        });
    }

    // 9. Warm restart: restoring a 1 000-node sharded oracle from a
    //    `Snapshot` vs building it cold. The restore skips greedy spanner
    //    construction entirely (it replays the recorded spanner and
    //    rebuilds only the deterministic per-shard serving state), so the
    //    speedup column is the warm-restart win — the issue's floor is 10x.
    //    The workload is deliberately dense (avg degree 20, f = 4): warm
    //    restart matters exactly when construction is expensive, and at
    //    this density the greedy pass dominates the cold build.
    {
        use ftspan_oracle::Snapshot;
        let graph = gnp_workload(1_000, 20.0, 29);
        let snap_params = SpannerParams::vertex(2, 4);
        let options = ShardedOptions {
            plan: ShardPlanOptions {
                shards: 8,
                ..ShardPlanOptions::default()
            },
            ..ShardedOptions::default()
        };
        let (oracle, cold_secs) =
            timed(|| ShardedOracle::build(graph.clone(), snap_params, options.clone()));
        let bytes = Snapshot::capture(&oracle);
        let (restored, restore_secs) =
            timed(|| Snapshot::restore::<ShardedOracle>(&bytes).expect("snapshot restores"));
        assert_eq!(restored.epoch(), oracle.epoch(), "restore sanity");
        assert_eq!(
            restored.global().spanner().edge_count(),
            oracle.global().spanner().edge_count(),
            "restore sanity"
        );
        println!(
            "(snapshot: {} bytes for n=1000; cold build {:.3} s, restore {:.4} s, {:.1}x)",
            bytes.len(),
            cold_secs,
            restore_secs,
            cold_secs / restore_secs
        );
        if cold_secs / restore_secs < 10.0 {
            eprintln!(
                "warning: snapshot restore is less than 10x faster than a cold build \
                 ({:.1}x) — the warm-restart win has regressed",
                cold_secs / restore_secs
            );
        }
        points.push(TrajectoryPoint {
            name: "snapshot_restore_sharded",
            unit: "restores/s",
            before: 1.0 / cold_secs,
            after: 1.0 / restore_secs,
        });
    }

    // 10. Chaos recovery: fault waves applied per second *through the
    //     service barrier* (submit-to-publication, drain included).
    //     `before` is uniform random waves measured this run; `after` is
    //     an adversary aiming the same budget at the highest-degree
    //     vertices — so the speedup column is the measured targeted-attack
    //     tax on recovery (expected at or below 1.0).
    {
        use ftspan_oracle::chaos::high_degree_wave;
        use ftspan_oracle::{OracleService, ServiceConfig};
        // A scale-free topology: hubs exist, so aiming at them actually
        // hurts (on an ER graph every vertex looks alike and the targeted
        // column measures nothing).
        let chaos_graph = ftspan_graph::generators::barabasi_albert(400, 4, &mut rng(31));
        let chaos_params = SpannerParams::vertex(2, 2);
        let mut wave_rng = rng(32);
        let random_waves: Vec<FaultSet> = (0..8)
            .map(|_| sample_fault_set(&chaos_graph, FaultModel::Vertex, 3, &[], &mut wave_rng))
            .collect();
        // Eight disjoint targeted waves: successive 3-vertex slices of the
        // degree ranking, hardest hubs first.
        let targeted_waves: Vec<FaultSet> = high_degree_wave(&chaos_graph, 24)
            .vertex_faults()
            .chunks(3)
            .map(|chunk| FaultSet::vertices(chunk.iter().copied()))
            .collect();
        let measure = |waves: &[FaultSet]| {
            let oracle =
                FaultOracle::build(chaos_graph.clone(), chaos_params, OracleOptions::default());
            let service = OracleService::new(oracle, ServiceConfig::default());
            let (_, secs) = timed(|| {
                for wave in waves {
                    let ticket = service.submit_wave(wave.clone());
                    let _ = std::hint::black_box(service.wait(ticket));
                }
            });
            waves.len() as f64 / secs
        };
        points.push(TrajectoryPoint {
            name: "chaos_recovery",
            unit: "waves/s",
            before: measure(&random_waves),
            after: measure(&targeted_waves),
        });
    }

    // 11. Chaos shed rate: tickets shed per 1 000 submitted when a burst
    //     overruns a bounded admission queue (`max_pending` = 256, burst =
    //     2 000). `before` is a uniform stream; `after` is the Zipf
    //     flash crowd — duplicate-heavy, so coalescing absorbs most of it
    //     without spending queue slots. The speedup column is the measured
    //     flash-crowd absorption factor (well below 1.0 when coalescing
    //     does its job).
    {
        use ftspan_oracle::chaos::zipf_queries;
        use ftspan_oracle::{OracleService, ServiceConfig};
        let chaos_graph = gnp_workload(400, 8.0, 31);
        let chaos_params = SpannerParams::vertex(2, 2);
        let empty = FaultSet::empty(FaultModel::Vertex);
        let uniform: Vec<Query> = {
            let mut r = rng(33);
            (0..batch_size)
                .map(|_| {
                    let u = vid(r.gen_range(0..400));
                    let mut v = vid(r.gen_range(0..400));
                    while v == u {
                        v = vid(r.gen_range(0..400));
                    }
                    Query::distance(u, v, empty.clone())
                })
                .collect()
        };
        let flash_crowd = zipf_queries(&chaos_graph, batch_size, 1.4, &empty, 34);
        let shed_per_1k = |stream: &[Query]| {
            let oracle =
                FaultOracle::build(chaos_graph.clone(), chaos_params, OracleOptions::default());
            let service =
                OracleService::new(oracle, ServiceConfig::default().with_max_pending(256));
            for ticket in service.submit_batch_ref(stream.iter()) {
                let _ = std::hint::black_box(service.wait(ticket));
            }
            let metrics = service.metrics();
            1_000.0 * metrics.shed as f64 / metrics.submitted.max(1) as f64
        };
        points.push(TrajectoryPoint {
            name: "chaos_shed_rate",
            unit: "shed/1k",
            before: shed_per_1k(&uniform),
            after: shed_per_1k(&flash_crowd),
        });
    }

    // 12. Replication catch-up: wave-history entries covered per second on
    //     the way to serving at the primary's epoch. The cold standby
    //     rebuilds the oracle from the graph and replays the full 30-wave
    //     journal; the replica restores the primary's latest snapshot
    //     (taken 5 waves back, the realistic periodic-capture gap) and
    //     replays only the digest-verified tail. The speedup column is the
    //     failover-readiness win.
    {
        use ftspan_oracle::{
            ChurnConfig, JournalEntry, Replica, Snapshot, SpannerOracle, WaveJournal,
        };
        let graph = gnp_workload(400, 8.0, 41);
        let churn = ChurnConfig::default();
        let mut primary = FaultOracle::build(graph.clone(), params, OracleOptions::default());
        let mut journal = WaveJournal::new(primary.epoch());
        let mut wave_rng = rng(42);
        let n_waves = 30usize;
        let snapshot_at = 25u64;
        let mut bootstrap = Vec::new();
        for _ in 0..n_waves {
            let wave = sample_fault_set(primary.graph(), FaultModel::Vertex, 2, &[], &mut wave_rng);
            // The trait method, explicitly: it returns the digestable
            // `WaveReport` (the inherent `apply_wave` returns the bare
            // outcome and would shadow it).
            let report = SpannerOracle::apply_wave(&mut primary, &wave, &churn);
            journal
                .append(JournalEntry {
                    epoch: primary.epoch(),
                    wave,
                    report_digest: report.digest(),
                })
                .expect("journal accepts the primary's own history");
            if primary.epoch() == snapshot_at {
                bootstrap = Snapshot::capture(&primary);
            }
        }
        let (_, cold_secs) = timed(|| {
            let mut standby = FaultOracle::build(graph.clone(), params, OracleOptions::default());
            for entry in journal.entries() {
                let _ = std::hint::black_box(SpannerOracle::apply_wave(
                    &mut standby,
                    &entry.wave,
                    &churn,
                ));
            }
        });
        let (replica, warm_secs) = timed(|| {
            let mut replica: Replica<FaultOracle> =
                Replica::bootstrap(&bootstrap, churn.clone()).expect("replica bootstraps");
            replica
                .catch_up(journal.entries_since(snapshot_at).expect("tail in window"))
                .expect("replay stays convergent");
            replica
        });
        assert_eq!(replica.epoch(), primary.epoch(), "catch-up sanity");
        points.push(TrajectoryPoint {
            name: "replica_catchup",
            unit: "entries/s",
            before: n_waves as f64 / cold_secs,
            after: n_waves as f64 / warm_secs,
        });
    }

    // 13. Replica read scaling: aggregate BATCH throughput of three
    //     loopback clients — all three on the primary (`before`) vs spread
    //     across the primary and two snapshot-bootstrapped, caught-up
    //     replicas (`after`). Same clients, same streams both ways, so the
    //     speedup column is what adding two read replicas actually buys.
    //     Each client sends its *own* stream (distinct seeds): identical
    //     streams would hand the single-primary run a cross-connection
    //     coalescing win no replicated deployment ever sees.
    {
        use ftspan_oracle::{OracleService, ServiceConfig};
        use ftspan_server::{Client, ReplicaServer, Server, ServerConfig};
        let streams: Vec<Vec<Query>> = (0..3)
            .map(|i| ftspan_bench::service_request_stream(n, batch_size, 300, 19 + i))
            .collect();
        let reps = 10usize;
        let oracle = FaultOracle::build(graph.clone(), params, OracleOptions::default());
        let service = OracleService::new(oracle, ServiceConfig::default());
        let primary = Server::start(service, "127.0.0.1:0", ServerConfig::default())
            .expect("loopback primary starts");
        let replicas: Vec<ReplicaServer<FaultOracle>> = (0..2)
            .map(|_| {
                ReplicaServer::start(
                    primary.local_addr(),
                    "127.0.0.1:0",
                    ServiceConfig::default(),
                    ServerConfig::default(),
                )
                .expect("replica bootstraps")
            })
            .collect();
        let run = |addrs: [std::net::SocketAddr; 3]| {
            let (_, secs) = timed(|| {
                std::thread::scope(|scope| {
                    for (addr, stream) in addrs.into_iter().zip(&streams) {
                        scope.spawn(move || {
                            let mut client = Client::connect(addr).expect("client connects");
                            for _ in 0..reps {
                                let _ = std::hint::black_box(
                                    client.batch(stream.clone()).expect("batch served"),
                                );
                            }
                        });
                    }
                });
            });
            (3 * reps * batch_size) as f64 / secs
        };
        let p = primary.local_addr();
        let before = run([p, p, p]);
        let after = run([p, replicas[0].local_addr(), replicas[1].local_addr()]);
        for replica in replicas {
            let _ = replica.shutdown();
        }
        let _ = primary.shutdown();
        points.push(TrajectoryPoint {
            name: "replica_read_scaling",
            unit: "queries/s",
            before,
            after,
        });
    }

    let fmt = |v: f64| {
        if v < 1_000.0 {
            format!("{v:.2}")
        } else {
            format!("{v:.0}")
        }
    };
    let lines: Vec<(String, String)> = points
        .iter()
        .map(|p| {
            let speedup = if p.before > 0.0 {
                p.after / p.before
            } else {
                0.0
            };
            println!(
                "{:<24} {:>12} -> {:>12} {} ({:.2}x)",
                p.name,
                fmt(p.before),
                fmt(p.after),
                p.unit,
                speedup
            );
            (
                p.name.to_owned(),
                render_scenario(p.name, p.unit, p.before, p.after),
            )
        })
        .collect();
    write_merged_trajectory(&lines);
    println!(
        "note: README.md (Service front-end) and ROADMAP.md quote the service_batch \
         and multi_worker_batch speedups — re-pin both whenever this table moves, \
         or the prose drifts from the recorded trajectory."
    );
}

/// One E13 sweep: builds a `ShardedOracle` per requested shard count, serves
/// the shared batch, and prints the comparison table against the single
/// oracle's throughput.
fn print_shard_sweep(
    graph: &ftspan_graph::Graph,
    params: SpannerParams,
    shard_counts: &[usize],
    queries: &[ftspan_oracle::Query],
    single_qps: f64,
) {
    use ftspan_oracle::{ShardPlanOptions, ShardedOptions, ShardedOracle};

    let batch_size = queries.len();
    let mut rows = Vec::new();
    for &shards in shard_counts {
        let options = ShardedOptions {
            plan: ShardPlanOptions {
                shards,
                ..ShardPlanOptions::default()
            },
            ..ShardedOptions::default()
        };
        let (oracle, build_secs) = timed(|| ShardedOracle::build(graph.clone(), params, options));
        let (_, secs) = timed(|| oracle.answer_batch(queries));
        let snap = oracle.metrics().snapshot();
        let largest_region = (0..oracle.shard_count())
            .map(|s| oracle.shard_members(s).len())
            .max()
            .unwrap_or(0);
        rows.push(vec![
            shards.to_string(),
            oracle.shard_count().to_string(),
            largest_region.to_string(),
            oracle.boundary().cut_edges().len().to_string(),
            format!("{:.1}", 100.0 * snap.locality_rate()),
            snap.global_fallbacks.to_string(),
            format!("{:.0}", batch_size as f64 / secs),
            format!("{:.2}", (batch_size as f64 / secs) / single_qps),
            format!("{build_secs:.1}"),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "shards requested",
                "shards",
                "largest region",
                "cut edges",
                "locality %",
                "fallbacks",
                "queries/s",
                "vs single",
                "build s"
            ],
            &rows
        )
    );
}

/// E13: sharded serving — locality, boundary size, and throughput vs the
/// single oracle, including the no-sharding-tax check on a 1-shard plan.
fn experiment_shard() {
    use ftspan::{sample_fault_set, FaultSet};
    use ftspan_oracle::{FaultOracle, OracleOptions, Query};

    println!("\n## E13 — ShardedOracle: locality, boundary, and throughput vs single\n");
    let n = 1_000;
    let batch_size = 2_000;
    let graph = gnp_workload(n, 16.0, 16);
    let params = SpannerParams::vertex(2, 2);
    let single = FaultOracle::build(graph.clone(), params, OracleOptions::default());

    // One shared batch: hot sources over a pool of fault sets.
    let mut query_rng = rng(17);
    let fault_pool: Vec<FaultSet> = (0..8)
        .map(|_| sample_fault_set(single.graph(), FaultModel::Vertex, 2, &[], &mut query_rng))
        .collect();
    let hot_sources: Vec<usize> = (0..32).map(|_| query_rng.gen_range(0..n)).collect();
    let queries: Vec<Query> = (0..batch_size)
        .map(|i| {
            let u = vid(hot_sources[query_rng.gen_range(0..hot_sources.len())]);
            let v = vid(query_rng.gen_range(0..n));
            Query::distance(u, v, fault_pool[i % fault_pool.len()].clone())
        })
        .collect();

    let (_, single_secs) = timed(|| single.answer_batch(&queries));
    let single_qps = batch_size as f64 / single_secs;

    print_shard_sweep(&graph, params, &[1, 2, 4, 8], &queries, single_qps);
    println!(
        "(input: gnp n = {n}, m = {}; single oracle: {single_qps:.0} queries/s; \
         the 1-shard row is the no-sharding-tax check — its ratio must stay above 0.5.\n\
         A diameter-3 gnp graph is sharding's worst case: the 2k − 1 halo covers \
         everything, so regions cannot shrink.)",
        graph.edge_count()
    );

    // The intended regime: moderate diameter, where regions stay small and
    // per-shard state actually shrinks. (The geometric workload is not used
    // here because its random-spanning-tree overlay collapses the hop
    // diameter; a grid keeps genuine distance structure.)
    println!("\n### Grid workload (moderate diameter)\n");
    let graph = ftspan_graph::generators::grid(33, 30);
    let n = graph.vertex_count();
    let single = FaultOracle::build(graph.clone(), params, OracleOptions::default());
    let mut r = rng(19);
    let fault_pool: Vec<FaultSet> = (0..8)
        .map(|_| sample_fault_set(single.graph(), FaultModel::Vertex, 2, &[], &mut r))
        .collect();
    let local_queries: Vec<Query> = {
        // Locality-biased traffic: most pairs are near each other, the shape
        // sharded deployments see.
        let mut scratch = ftspan_graph::bfs::BfsScratch::new();
        (0..batch_size)
            .map(|i| {
                let u = vid(r.gen_range(0..n));
                let near = scratch.hop_distances_within(&graph, u, 4);
                let candidates: Vec<usize> = near
                    .iter()
                    .enumerate()
                    .filter(|(j, d)| d.is_some() && *j != u.index())
                    .map(|(j, _)| j)
                    .collect();
                let v = vid(candidates[r.gen_range(0..candidates.len())]);
                Query::distance(u, v, fault_pool[i % fault_pool.len()].clone())
            })
            .collect()
    };
    let (_, single_secs) = timed(|| single.answer_batch(&local_queries));
    let single_qps = batch_size as f64 / single_secs;
    print_shard_sweep(&graph, params, &[1, 4, 8], &local_queries, single_qps);
    println!(
        "(grid n = {n}, m = {}, locality-biased traffic; single oracle: {single_qps:.0} queries/s)",
        graph.edge_count()
    );
}

/// E14 — the scale tier: parallel construction throughput across four
/// graph families, then the single oracle vs flat sharding (memory per
/// edge and batch query throughput) on the moderate-diameter headline
/// workload. Full mode (10^5 nodes; 10^6 with `FTSPAN_LONG_TESTS=1`)
/// merges the `scale_build`, `mem_bytes_per_edge`, and `scale_query`
/// series into `BENCH_oracle.json`; quick mode (reduced n, the CI smoke)
/// only prints.
fn experiment_scale(quick: bool) {
    use ftspan::FaultSet;
    use ftspan_oracle::{
        FaultOracle, Query, ShardPlan, ShardPlanOptions, ShardedOptions, ShardedOracle,
    };

    let long = std::env::var("FTSPAN_LONG_TESTS").is_ok_and(|v| v == "1");
    let base_n: usize = std::env::var("FTSPAN_SCALE_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 5_000 } else { 100_000 });
    let sizes: Vec<usize> = if long && !quick {
        vec![base_n, 1_000_000]
    } else {
        vec![base_n]
    };
    let threads = 8;
    // k = 2, f = 2: the t = 3 LBC decisions stay hop-local (what makes
    // 10^5-node greedy construction tractable at all), while the f = 2
    // fault budget keeps each decision expensive enough that speculative
    // parallel batches beat the sequential sweep.
    let params = SpannerParams::vertex(2, 2);

    println!("\n## E14 — Scale tier: parallel construction and flat sharding\n");
    println!(
        "(mode: {}, sizes: {sizes:?}, {threads} construction threads)\n",
        if quick { "quick" } else { "full" }
    );

    let side = |n: usize| (n as f64).sqrt().round() as usize;
    let geo_radius = |n: usize| (16.0 / (std::f64::consts::PI * n as f64)).sqrt();
    let mut rows = Vec::new();
    // The headline workload the recorded series come from: the largest
    // grid (moderate diameter — the regime sharding is for; see E13).
    let mut headline: Option<(ftspan_graph::Graph, SpannerResultPair)> = None;
    for &n in &sizes {
        for family in ["grid", "erdos_renyi", "barabasi_albert", "geometric"] {
            let (graph, gen_secs) = timed(|| match family {
                "grid" => ftspan_graph::generators::grid(side(n), n / side(n)),
                "erdos_renyi" => gnp_workload(n, 6.0, 41),
                "barabasi_albert" => ftspan_graph::generators::barabasi_albert(n, 3, &mut rng(42)),
                _ => geometric_workload(n, geo_radius(n), 43),
            });
            let m = graph.edge_count();
            let (sequential, seq_secs) = timed(|| poly_greedy_spanner(&graph, params));
            let batch_size: usize = std::env::var("FTSPAN_SCALE_BATCH")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0); // 0 = adaptive batch sizing
            let opts = ftspan::ParallelGreedyOptions {
                threads,
                batch_size,
                base: Default::default(),
            };
            let ((result, speculation), par_secs) =
                timed(|| ftspan::par_poly_greedy_spanner_traced(&graph, params, &opts));
            assert_eq!(
                result.spanner.edge_count(),
                sequential.spanner.edge_count(),
                "parallel construction must be bit-identical to sequential ({family})"
            );
            let decided = speculation.speculative_hits + speculation.recomputed;
            let busy = speculation.decide_busy.as_secs_f64();
            let serial = speculation.commit_wall.as_secs_f64();
            rows.push(vec![
                family.to_owned(),
                graph.vertex_count().to_string(),
                m.to_string(),
                sequential.spanner.edge_count().to_string(),
                format!("{gen_secs:.1}"),
                format!("{seq_secs:.1}"),
                format!("{par_secs:.1}"),
                format!("{:.2}", seq_secs / par_secs),
                format!(
                    "{:.0}",
                    100.0 * speculation.speculative_hits as f64 / decided.max(1) as f64
                ),
                format!("{busy:.1}"),
                format!("{serial:.1}"),
                format!("{:.1}", seq_secs / (busy / threads as f64 + serial)),
            ]);
            if family == "grid" {
                headline = Some((
                    graph,
                    SpannerResultPair {
                        result,
                        seq_edges_per_sec: m as f64 / seq_secs,
                        par_edges_per_sec: m as f64 / par_secs,
                    },
                ));
            }
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "family",
                "n",
                "m",
                "|E(H)|",
                "gen s",
                "seq build s",
                "par build s (8t)",
                "speedup",
                "hit %",
                "decide busy s",
                "serial commit s",
                "8-core bound"
            ],
            &rows
        )
    );
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!(
        "(speedup is measured on this host, which offers {cores} core(s) to the \
         {threads} workers; `decide busy s` sums per-worker wall-clock in the \
         speculative decide phase — when workers outnumber cores, preemption \
         inflates it above the true decide CPU time — so `8-core bound` = \
         seq / (busy/8 + serial commit) is a conservative floor on the speedup \
         the measured decide/commit split supports on a full 8-core host)\n"
    );

    // Single oracle vs flat sharding on the headline grid: same spanner and
    // oracle options, so the deltas isolate the sharding itself.
    let (graph, spanner) = headline.expect("grid family always runs");
    let n = graph.vertex_count();
    let m = graph.edge_count();
    let shards = if quick { 16 } else { 64 };
    let plan_options = ShardPlanOptions {
        shards,
        ..ShardPlanOptions::default()
    };
    let plan = ShardPlan::build(&graph, &plan_options);
    let flat_options = ShardedOptions {
        plan: plan_options,
        ..ShardedOptions::default()
    };
    // Locality-biased traffic (the sharded-deployment shape, as in E13):
    // every pair within 8 hops, over a pool of hot fault sets.
    let batch_size = 2_000;
    let queries: Vec<Query> = {
        let mut r = rng(45);
        let fault_pool: Vec<FaultSet> = (0..8)
            .map(|_| {
                let a = vid(r.gen_range(0..n));
                let b = vid(r.gen_range(0..n));
                FaultSet::vertices([a, b])
            })
            .collect();
        let mut scratch = ftspan_graph::bfs::BfsScratch::new();
        (0..batch_size)
            .map(|i| {
                let u = vid(r.gen_range(0..n));
                let near = scratch.hop_distances_within(&graph, u, 8);
                let candidates: Vec<usize> = near
                    .iter()
                    .enumerate()
                    .filter(|(j, d)| d.is_some() && *j != u.index())
                    .map(|(j, _)| j)
                    .collect();
                let v = vid(candidates[r.gen_range(0..candidates.len())]);
                Query::distance(u, v, fault_pool[i % fault_pool.len()].clone())
            })
            .collect()
    };
    // The backends run one after the other: the single oracle's warm tree
    // cache (one O(n) tree per distinct source) is freed before the flat
    // oracle builds its own, so the run never holds both.
    let (single, single_secs) = timed(|| {
        FaultOracle::from_result(
            graph.clone(),
            spanner.result.clone(),
            flat_options.oracle.clone(),
        )
    });
    let _ = single.answer_batch(&queries); // warm
    let (single_answers, single_query_secs) = timed(|| single.answer_batch(&queries));
    let single_bpe = single.memory_bytes() as f64 / m as f64;
    drop(single);
    let (flat, flat_secs) = timed(|| {
        ShardedOracle::from_result(graph.clone(), spanner.result.clone(), plan, flat_options)
    });
    let _ = flat.answer_batch(&queries); // warm
    let (flat_answers, flat_query_secs) = timed(|| flat.answer_batch(&queries));
    for (s, f) in single_answers.iter().zip(&flat_answers) {
        assert_eq!(
            s.distance().map(f64::to_bits),
            f.distance().map(f64::to_bits),
            "flat sharded answers must be bit-identical to the single oracle"
        );
    }
    let single_qps = batch_size as f64 / single_query_secs;
    let flat_qps = batch_size as f64 / flat_query_secs;
    let flat_bpe = flat.memory_bytes() as f64 / m as f64;
    let flat_snapshot = flat.metrics().snapshot();
    println!(
        "{}",
        markdown_table(
            &[
                "backend",
                "shards",
                "boundary pairs",
                "wrap s",
                "bytes/edge",
                "queries/s"
            ],
            &[
                vec![
                    "single".into(),
                    "1".into(),
                    "0".into(),
                    format!("{single_secs:.1}"),
                    format!("{single_bpe:.0}"),
                    format!("{single_qps:.0}"),
                ],
                vec![
                    "flat sharded".into(),
                    flat.shard_count().to_string(),
                    flat.boundary().adjacent_pairs().len().to_string(),
                    format!("{flat_secs:.1}"),
                    format!("{flat_bpe:.0}"),
                    format!("{flat_qps:.0}"),
                ],
            ]
        )
    );
    println!(
        "(headline grid n = {n}, m = {m}; construction {:.0} -> {:.0} edges/s at {threads} \
         threads; flat sharded locality {:.1}%, distances bit-identical to single on all \
         {batch_size} queries)",
        spanner.seq_edges_per_sec,
        spanner.par_edges_per_sec,
        100.0 * flat_snapshot.locality_rate(),
    );

    if quick {
        println!("\n(quick mode: BENCH_oracle.json left untouched)");
        return;
    }
    let lines: Vec<(String, String)> = [
        (
            "scale_build",
            "edges/s",
            spanner.seq_edges_per_sec,
            spanner.par_edges_per_sec,
        ),
        ("mem_bytes_per_edge", "bytes/edge", single_bpe, flat_bpe),
        ("scale_query", "queries/s", single_qps, flat_qps),
    ]
    .into_iter()
    .map(|(name, unit, before, after)| {
        (name.to_owned(), render_scenario(name, unit, before, after))
    })
    .collect();
    write_merged_trajectory(&lines);
}

/// The headline construction measurement carried from the family sweep to
/// the sharding comparison.
struct SpannerResultPair {
    result: ftspan::SpannerResult,
    seq_edges_per_sec: f64,
    par_edges_per_sec: f64,
}
