//! The three seeded workloads: their shapes, rates and input generators.
//!
//! Everything the program receives — the graph, every query and every
//! wave — is generated here from the `--seed` argument. One seed always
//! gives the same inputs; each phase of a run draws from its own stream
//! (derived from the seed and a phase tag), so how many requests one
//! phase sends never shifts the inputs of the next.

use std::collections::BTreeSet;

use ftspan::{FaultSet, SpannerParams};
use ftspan_graph::{vid, Graph, VertexId};
use ftspan_oracle::{ChurnConfig, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The latency limit on p99 for `qps_at_slo` (µs), on every workload.
pub const SLO_US: f64 = 20_000.0;

/// Fault-tolerance parameters of every workload: a 3-spanner tolerating 2
/// vertex faults.
pub fn params() -> SpannerParams {
    SpannerParams::vertex(2, 2)
}

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Hot sources and few fault sets: the tree cache holds the working set.
    ReadHot,
    /// Uniform sources over a fault-set pool 16× the cache: nearly every
    /// query builds a tree.
    ReadCold,
    /// A sharded backend with a replica, damaging waves beside reads.
    ChurnReplicated,
}

impl Kind {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "read_hot" => Some(Self::ReadHot),
            "read_cold" => Some(Self::ReadCold),
            "churn_replicated" => Some(Self::ChurnReplicated),
            _ => None,
        }
    }

    /// The workload's name as `BENCHMARK.json` lists it.
    pub fn name(self) -> &'static str {
        match self {
            Self::ReadHot => "read_hot",
            Self::ReadCold => "read_cold",
            Self::ChurnReplicated => "churn_replicated",
        }
    }
}

/// Fixed shape of one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Vertices of the `gnp_workload` graph.
    pub n: usize,
    /// Expected average degree of the graph.
    pub avg_degree: f64,
    /// Serve from a `ShardedOracle` with this many shards (`None`: a
    /// single `FaultOracle`).
    pub shards: Option<usize>,
    /// Times the set-up is repeated; `setup_s` is their median.
    pub setups: usize,
    /// Open-loop request rate of the main phase (q/s).
    pub main_rate: f64,
    /// Rates above `main_rate` tried for `qps_at_slo`, ascending.
    pub ladder: &'static [f64],
    /// Queries per `BATCH` request in the closed-loop phase.
    pub batch_len: usize,
    /// `BATCH` requests in the closed-loop phase. A count, not a duration,
    /// so the run's own records (and so its memory) do not grow with the
    /// program's speed.
    pub batches: usize,
    /// Interval between waves beside the main phase's reads (ms); `None`
    /// keeps the main phase read-only.
    pub main_wave_interval_ms: Option<u64>,
    /// Waves in the wave phase.
    pub waves: usize,
    /// Interval between wave due times in the wave phase (ms). Waves are
    /// closed-loop: a wave is sent only once the previous one has reached
    /// the replica, so an interval shorter than that runs them back to back.
    pub wave_interval_ms: u64,
    /// Open-loop read rate of the wave phase (q/s).
    pub wave_read_rate: f64,
    /// Waves fault two fresh vertices each; otherwise every wave is empty.
    pub damaging_waves: bool,
    /// Churn configuration of the primary, the replica and every mirror.
    pub churn: ChurnConfig,
}

impl Spec {
    /// The fixed shape of `kind`.
    pub fn of(kind: Kind) -> Self {
        let read = |kind| Spec {
            kind,
            n: 4_000,
            avg_degree: 24.0,
            shards: None,
            setups: 3,
            main_rate: 0.0,
            ladder: &[],
            batch_len: 256,
            batches: 0,
            main_wave_interval_ms: None,
            waves: 48,
            wave_interval_ms: 100,
            wave_read_rate: 200.0,
            damaging_waves: false,
            // A damaging wave on this graph collects every edge as a
            // repair candidate and takes ~40 s, and even the empty wave's
            // spot check takes ~2 s; the read workloads therefore time
            // the wave path with empty waves and no spot check.
            churn: ChurnConfig {
                verify_samples: 0,
                ..ChurnConfig::default()
            },
        };
        match kind {
            Kind::ReadHot => Spec {
                // At 1 000 q/s the threads sleep between requests, and
                // waking a halted vCPU set the p50: it moved between 170
                // and 240 µs from run to run. At 3 000 q/s they stay warm.
                main_rate: 3_000.0,
                ladder: &[4_000.0, 6_000.0, 8_000.0, 12_000.0],
                // Large batches, so the two thread hand-offs of a round
                // trip are a small share of it.
                batch_len: 2_048,
                batches: 60,
                ..read(kind)
            },
            Kind::ReadCold => Spec {
                main_rate: 400.0,
                ladder: &[600.0, 800.0, 1_000.0, 1_200.0],
                // Cold batches are slow; small ones give the median
                // enough samples in a few seconds.
                batch_len: 16,
                batches: 384,
                // Cold reads cost ~1 ms of CPU each; at 200 q/s they would
                // take a fifth of the host from the waves being timed.
                wave_read_rate: 50.0,
                ..read(kind)
            },
            Kind::ChurnReplicated => Spec {
                kind,
                n: 400,
                avg_degree: 8.0,
                shards: Some(4),
                setups: 5,
                main_rate: 200.0,
                ladder: &[250.0, 500.0, 1_000.0, 2_000.0],
                batch_len: 256,
                batches: 96,
                main_wave_interval_ms: Some(1_000),
                // Waves differ in cost with the vertices they fault, so
                // the median needs many of them.
                waves: 36,
                // About one wave's publish-plus-replicate time: back to back.
                wave_interval_ms: 450,
                wave_read_rate: 50.0,
                damaging_waves: true,
                churn: ChurnConfig::default(),
            },
        }
    }
}

/// SplitMix64 step, used to derive independent phase seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the stream tagged `tag` under the run seed `seed`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    mix(seed ^ mix(tag))
}

/// The workload graph of `seed`.
pub fn graph(spec: &Spec, seed: u64) -> Graph {
    ftspan_bench::gnp_workload(spec.n, spec.avg_degree, sub_seed(seed, 1))
}

/// Distinct random vertices of `0..n`, excluding `avoid`.
fn distinct(rng: &mut StdRng, n: usize, count: usize, avoid: &BTreeSet<usize>) -> Vec<usize> {
    let mut out = BTreeSet::new();
    while out.len() < count {
        let v = rng.gen_range(0..n);
        if !avoid.contains(&v) {
            out.insert(v);
        }
    }
    out.into_iter().collect()
}

/// Where the queries of a workload come from.
#[derive(Clone, Debug)]
pub struct QueryMix {
    n: usize,
    /// Query sources; empty means uniform over all vertices.
    sources: Vec<VertexId>,
    /// The fault-set pool; each query draws one uniformly.
    fault_sets: Vec<FaultSet>,
}

impl QueryMix {
    /// The query mix of `spec` under `seed`.
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
        let (sources, pool) = match spec.kind {
            Kind::ReadHot => (32, 8),
            Kind::ReadCold => (0, 2_048),
            Kind::ChurnReplicated => (0, 64),
        };
        let sources = distinct(&mut rng, spec.n, sources, &BTreeSet::new());
        let avoid: BTreeSet<usize> = sources.iter().copied().collect();
        let fault_sets = (0..pool)
            .map(|_| FaultSet::vertices(distinct(&mut rng, spec.n, 2, &avoid).into_iter().map(vid)))
            .collect();
        Self {
            n: spec.n,
            sources: sources.into_iter().map(vid).collect(),
            fault_sets,
        }
    }

    /// The fault-set pool.
    pub fn fault_sets(&self) -> &[FaultSet] {
        &self.fault_sets
    }

    /// The hot sources (empty for uniform workloads).
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// The deterministic query stream of phase `tag`.
    pub fn stream(&self, seed: u64, tag: u64) -> QueryStream<'_> {
        QueryStream {
            mix: self,
            rng: StdRng::seed_from_u64(sub_seed(seed, 100 + tag)),
        }
    }
}

/// An endless deterministic query stream: a quarter `PATH`, the rest
/// `DIST`, endpoints never in the query's own fault set.
#[derive(Debug)]
pub struct QueryStream<'a> {
    mix: &'a QueryMix,
    rng: StdRng,
}

impl Iterator for QueryStream<'_> {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        let mix = self.mix;
        let faults = mix.fault_sets[self.rng.gen_range(0..mix.fault_sets.len())].clone();
        let pick = |rng: &mut StdRng| loop {
            let v = vid(rng.gen_range(0..mix.n));
            if !faults.contains_vertex(v) {
                return v;
            }
        };
        let u = if mix.sources.is_empty() {
            pick(&mut self.rng)
        } else {
            mix.sources[self.rng.gen_range(0..mix.sources.len())]
        };
        let v = loop {
            let v = pick(&mut self.rng);
            if v != u {
                break v;
            }
        };
        Some(if self.rng.gen_range(0..4) == 0 {
            Query::path(u, v, faults)
        } else {
            Query::distance(u, v, faults)
        })
    }
}

/// `count` random 2-vertex fault sets outside the workload's pool (with
/// overwhelming probability), for probing the cache-miss path.
pub fn fresh_fault_sets(spec: &Spec, seed: u64, count: usize) -> Vec<FaultSet> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    (0..count)
        .map(|_| {
            FaultSet::vertices(
                distinct(&mut rng, spec.n, 2, &BTreeSet::new())
                    .into_iter()
                    .map(vid),
            )
        })
        .collect()
}

/// The waves of a run. Damaging waves fault two vertices that no earlier
/// wave faulted; otherwise every wave is empty.
#[derive(Debug)]
pub struct WavePlan {
    damaging: bool,
    n: usize,
    rng: StdRng,
    used: BTreeSet<usize>,
}

impl WavePlan {
    /// The wave plan of `spec` under `seed`.
    pub fn new(spec: &Spec, seed: u64) -> Self {
        Self {
            damaging: spec.damaging_waves,
            n: spec.n,
            rng: StdRng::seed_from_u64(sub_seed(seed, 3)),
            used: BTreeSet::new(),
        }
    }
}

impl Iterator for WavePlan {
    type Item = FaultSet;

    fn next(&mut self) -> Option<FaultSet> {
        if !self.damaging {
            return Some(FaultSet::empty(params().fault_model()));
        }
        let picked = distinct(&mut self.rng, self.n, 2, &self.used);
        self.used.extend(picked.iter().copied());
        Some(FaultSet::vertices(picked.into_iter().map(vid)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: Kind) -> Spec {
        Spec {
            n: 120,
            avg_degree: 6.0,
            ..Spec::of(kind)
        }
    }

    #[test]
    fn a_seed_always_generates_the_same_workload() {
        for kind in [Kind::ReadHot, Kind::ReadCold, Kind::ChurnReplicated] {
            let spec = small(kind);
            let (g1, g2) = (graph(&spec, 7), graph(&spec, 7));
            assert_eq!(g1.edge_count(), g2.edge_count());
            assert!(g1
                .edges()
                .zip(g2.edges())
                .all(|((_, a), (_, b))| a.endpoints() == b.endpoints()));
            let (m1, m2) = (QueryMix::new(&spec, 7), QueryMix::new(&spec, 7));
            let q1: Vec<Query> = m1.stream(7, 0).take(500).collect();
            let q2: Vec<Query> = m2.stream(7, 0).take(500).collect();
            assert_eq!(q1, q2);
            let w1: Vec<FaultSet> = WavePlan::new(&spec, 7).take(20).collect();
            let w2: Vec<FaultSet> = WavePlan::new(&spec, 7).take(20).collect();
            assert_eq!(w1, w2);
        }
    }

    #[test]
    fn seeds_and_phases_differ() {
        let spec = small(Kind::ReadCold);
        let mix = QueryMix::new(&spec, 1);
        let a: Vec<Query> = mix.stream(1, 0).take(50).collect();
        let b: Vec<Query> = mix.stream(1, 1).take(50).collect();
        let c: Vec<Query> = QueryMix::new(&spec, 2).stream(2, 0).take(50).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn streams_have_the_documented_shape() {
        let spec = small(Kind::ReadHot);
        let mix = QueryMix::new(&spec, 3);
        assert_eq!(mix.sources().len(), 32);
        assert_eq!(mix.fault_sets().len(), 8);
        let queries: Vec<Query> = mix.stream(3, 0).take(4_000).collect();
        let paths = queries
            .iter()
            .filter(|q| q.kind == ftspan_oracle::QueryKind::Path)
            .count();
        assert!((800..1_200).contains(&paths), "{paths} paths in 4000");
        for q in &queries {
            assert!(mix.sources().contains(&q.u));
            assert!(!q.faults.contains_vertex(q.u) && !q.faults.contains_vertex(q.v));
            assert_ne!(q.u, q.v);
        }
    }

    #[test]
    fn damaging_waves_never_repeat_a_vertex() {
        let spec = small(Kind::ChurnReplicated);
        let mut seen = BTreeSet::new();
        for wave in WavePlan::new(&spec, 5).take(40) {
            assert_eq!(wave.len(), 2);
            for v in wave.vertex_faults() {
                assert!(seen.insert(v.index()));
            }
        }
        let quiet = small(Kind::ReadHot);
        assert!(WavePlan::new(&quiet, 5).take(3).all(|w| w.is_empty()));
    }
}
