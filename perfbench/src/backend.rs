//! The two served backends behind one interface: how the benchmark builds
//! them, plainly (as a user would) or split into the calls the trace
//! times.

use std::time::Instant;

use ftspan::{poly_greedy_spanner_with, PolyGreedyOptions};
use ftspan_graph::Graph;
use ftspan_oracle::{
    FaultOracle, OracleOptions, ShardPlan, ShardPlanOptions, ShardedOptions, ShardedOracle,
    Snapshot, Snapshottable, SpannerOracle,
};

use crate::workload::{params, Spec};

/// Construction split into the calls the traced set-up times.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildTrace {
    /// `poly_greedy_spanner_with` (s).
    pub greedy_s: f64,
    /// Everything after the greedy until the backend exists (s).
    pub assemble_s: f64,
    /// LBC decisions the greedy made.
    pub lbc_calls: usize,
    /// BFS runs inside those decisions.
    pub bfs_runs: usize,
}

/// A backend the benchmark can serve, mirror and trace.
pub trait Backend: SpannerOracle + Snapshottable + 'static {
    /// Builds the backend with its public one-call constructor.
    fn build(graph: Graph, spec: &Spec) -> Self;

    /// Builds the same backend through the greedy and the assembly step
    /// separately, timing each.
    fn build_traced(graph: Graph, spec: &Spec) -> (Self, BuildTrace);

    /// Heap bytes of the serving working set.
    fn memory_bytes(&self) -> usize;

    /// A single `FaultOracle` at the same state (the sharded backend's
    /// global oracle, or a copy of the single oracle).
    fn single(&self) -> FaultOracle;
}

fn greedy(graph: &Graph, options: &OracleOptions) -> (ftspan::SpannerResult, f64) {
    let build_options = PolyGreedyOptions {
        collect_certificates: options.collect_certificates,
        ..PolyGreedyOptions::default()
    };
    let t = Instant::now();
    let result = poly_greedy_spanner_with(graph, params(), &build_options);
    (result, t.elapsed().as_secs_f64())
}

/// Options of every served oracle: the defaults, except that a `BATCH` is
/// answered on the thread that runs its service round. The default pool
/// (one thread per core) makes `batch_qps` read whether the host lends
/// this process its second core at that moment, which moves it by 2× on a
/// shared 2-vCPU host.
fn oracle_options() -> OracleOptions {
    OracleOptions {
        workers: 1,
        ..OracleOptions::default()
    }
}

fn copy(oracle: &FaultOracle) -> FaultOracle {
    Snapshot::restore(&Snapshot::capture(oracle)).expect("a fresh capture restores")
}

impl Backend for FaultOracle {
    fn build(graph: Graph, _spec: &Spec) -> Self {
        FaultOracle::build(graph, params(), oracle_options())
    }

    fn build_traced(graph: Graph, _spec: &Spec) -> (Self, BuildTrace) {
        let options = oracle_options();
        let (result, greedy_s) = greedy(&graph, &options);
        let (lbc_calls, bfs_runs) = (result.stats.lbc_calls, result.stats.bfs_runs);
        let t = Instant::now();
        let oracle = FaultOracle::from_result(graph, result, options);
        let trace = BuildTrace {
            greedy_s,
            assemble_s: t.elapsed().as_secs_f64(),
            lbc_calls,
            bfs_runs,
        };
        (oracle, trace)
    }

    fn memory_bytes(&self) -> usize {
        FaultOracle::memory_bytes(self)
    }

    fn single(&self) -> FaultOracle {
        copy(self)
    }
}

fn sharded_options(spec: &Spec) -> ShardedOptions {
    ShardedOptions {
        plan: ShardPlanOptions {
            shards: spec.shards.unwrap_or(1),
            ..ShardPlanOptions::default()
        },
        oracle: oracle_options(),
        ..ShardedOptions::default()
    }
}

impl Backend for ShardedOracle {
    fn build(graph: Graph, spec: &Spec) -> Self {
        ShardedOracle::build(graph, params(), sharded_options(spec))
    }

    fn build_traced(graph: Graph, spec: &Spec) -> (Self, BuildTrace) {
        let options = sharded_options(spec);
        let t = Instant::now();
        let plan = ShardPlan::build(&graph, &options.plan);
        let plan_s = t.elapsed().as_secs_f64();
        let (result, greedy_s) = greedy(&graph, &options.oracle);
        let (lbc_calls, bfs_runs) = (result.stats.lbc_calls, result.stats.bfs_runs);
        let t = Instant::now();
        let oracle = ShardedOracle::from_result(graph, result, plan, options);
        let trace = BuildTrace {
            greedy_s,
            assemble_s: plan_s + t.elapsed().as_secs_f64(),
            lbc_calls,
            bfs_runs,
        };
        (oracle, trace)
    }

    fn memory_bytes(&self) -> usize {
        ShardedOracle::memory_bytes(self)
    }

    fn single(&self) -> FaultOracle {
        copy(self.global())
    }
}
