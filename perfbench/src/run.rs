//! One benchmark run: set-up, the timed phases, the correctness gate and,
//! in traced mode, the per-layer probes.
//!
//! Phases, in order (shares are of `--seconds`):
//!
//! 1. **set-up**, repeated `Spec::setups` times: backend `build` → primary
//!    `Server::start` → `ReplicaServer::start`, until both answer a
//!    `METRICS` round trip. `setup_s` is the median.
//! 2. **main** (half in all): open-loop `DIST`/`PATH` at `Spec::main_rate`
//!    on one pipelined connection (with sparse damaging waves beside it on
//!    `churn_replicated`) → `query_p50_us`.
//! 4. **batch**: closed-loop `BATCH`es on one connection → `batch_qps`.
//! 5. **waves**: waves on a schedule beside low-rate open-loop reads (empty
//!    waves on the read workloads) → with the main phase's waves,
//!    `wave_publish_ms` and `wave_replicated_ms`.
//!
//! Phases 2, 4 and 5 repeat in [`ROUNDS`] interleaved rounds. Then:
//!
//! 3. **ladder** (traced run only): open-loop rungs at rising rates, each
//!    with at least 1 000 requests, until one misses the limit →
//!    `qps_at_slo`.
//! 6. shutdown, replica-vs-primary snapshot comparison, and the
//!    correctness gate ([`crate::check`]).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ftspan::FaultSet;
use ftspan_oracle::{OracleService, Query, ServiceConfig, Snapshot};
use ftspan_server::{Client, ReplicaServer, Server, ServerConfig};

use crate::backend::{Backend, BuildTrace};
use crate::check::{self, Item};
use crate::load::{self, Clock, Failures, OpenLoop, Outcome, ReadRecord, WaveJob, WaveRecord};
use crate::stats::{median, percentile_sorted, sorted, Summary};
use crate::trace;
use crate::workload::{QueryMix, Spec, WavePlan, SLO_US};
use crate::Args;

/// Interleaved measurement rounds per run.
const ROUNDS: usize = 6;

/// What a run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Every measured value by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (shed, error, I/O, wrong answer).
    pub failed: u64,
    /// The correctness gate passed.
    pub correct: bool,
}

/// Host provenance printed with every run.
fn provenance() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "host nproc={nproc} rustc=\"{}\" commit={}",
        env!("PERFBENCH_RUSTC"),
        commit()
    )
}

/// The checkout's commit, read from `.git` when there is one.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .map(|l| l[..l.len() - r.len()].trim().to_owned())
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown (not a git checkout)".into(),
    }
}

/// Total and stolen CPU ticks of the host so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Connects and completes one `METRICS` round trip: the server accepts.
fn metrics_text(addr: std::net::SocketAddr) -> String {
    Client::connect(addr)
        .and_then(|mut c| c.metrics())
        .expect("server answers METRICS")
}

/// A counter or gauge from Prometheus text.
fn prom(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// One live deployment: primary plus replica.
struct Deployment<O: Backend> {
    primary: Server<O>,
    replica: ReplicaServer<O>,
}

/// The run's bookkeeping of operations and answers.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failures: Failures,
    reads: Vec<ReadRecord>,
    batches: Vec<load::BatchRecord>,
    waves: Vec<WaveRecord>,
    wave_failures: u64,
}

impl Ledger {
    fn open_loop(&mut self, phase: &OpenLoop) {
        self.add_reads(&phase.reads);
        for w in &phase.waves {
            self.attempted += 1;
            if w.reply.is_err() {
                self.wave_failures += 1;
            }
        }
        self.waves.extend(phase.waves.iter().cloned());
    }

    fn add_reads(&mut self, reads: &[ReadRecord]) {
        for r in reads {
            self.attempted += 1;
            self.failures.count(&r.outcome);
        }
        self.reads.extend(reads.iter().cloned());
    }

    fn batch(&mut self, record: load::BatchRecord) {
        for o in &record.outcomes {
            self.attempted += 1;
            self.failures.count(o);
        }
        self.batches.push(record);
    }

    /// Answers with the epochs they can have been served at, given the
    /// wave timeline.
    fn items(&self, base: u64) -> Vec<Item> {
        let published: Vec<u64> = self.waves.iter().map(|w| w.published_ns).collect();
        let sent: Vec<u64> = self.waves.iter().map(|w| w.sent_ns).collect();
        let epochs = |from: u64, to: u64| {
            let lo = published.iter().filter(|&&p| p < from).count() as u64;
            let hi = sent.iter().filter(|&&s| s < to).count() as u64;
            (base + lo, base + hi.max(lo))
        };
        let mut items = Vec::new();
        let mut push = |query: &Query, outcome: &Outcome, from: u64, to: u64| {
            if let Outcome::Answer(answer) = outcome {
                let (lo, hi) = epochs(from, to);
                items.push(Item {
                    query: query.clone(),
                    answer: answer.clone(),
                    lo,
                    hi,
                });
            }
        };
        for r in &self.reads {
            push(&r.query, &r.outcome, r.sent_ns, r.done_ns);
        }
        for b in &self.batches {
            for (q, o) in b.queries.iter().zip(&b.outcomes) {
                push(q, o, b.sent_ns, b.done_ns);
            }
        }
        items
    }
}

/// Whether an open-loop rung at `rate` met the latency limit: nothing
/// failed, p99 under [`SLO_US`], and the backlog when the last request was
/// due no larger than the limit's worth of requests.
fn meets_slo(phase: &OpenLoop, rate: f64) -> (bool, Summary) {
    let latencies: Vec<f64> = phase.reads.iter().map(ReadRecord::latency_us).collect();
    let summary = Summary::of(&latencies);
    let backlog_limit = (rate * SLO_US / 1e6).ceil().max(1.0) as usize;
    let ok = summary.p99.is_some_and(|p| p <= SLO_US) && phase.backlog_end <= backlog_limit;
    (ok, summary)
}

fn log_phase(name: &str, phase: &OpenLoop) {
    let latencies: Vec<f64> = phase.reads.iter().map(ReadRecord::latency_us).collect();
    let s = Summary::of(&latencies);
    let late = sorted(&phase.gen_late_us);
    let late_p99 = if late.is_empty() {
        0.0
    } else {
        percentile_sorted(&late, 99.0)
    };
    println!(
        "phase {name:<10} n={} p50={:.1}us p99={} gen_late_p99={late_p99:.1}us backlog_end={} waves={}",
        s.count,
        s.p50,
        s.p99.map_or("n/a".into(), |p| format!("{p:.1}us")),
        phase.backlog_end,
        phase.waves.len(),
    );
}

/// Runs workload `spec` with `args` on backend `O`.
pub fn run<O: Backend>(spec: &Spec, args: &Args) -> RunOutcome {
    println!("{}", provenance());
    println!(
        "workload {} seed={} seconds={} trace={}",
        spec.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let (seed, secs, traced) = (args.seed, args.seconds as f64, args.traced);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let clock = Clock::start();
    let ticks_at_start = cpu_ticks();
    let graph = crate::workload::graph(spec, seed);
    let edges = graph.edge_count();
    let mix = QueryMix::new(spec, seed);
    let server_config = ServerConfig::default();
    let service_config = || ServiceConfig::default().with_churn(spec.churn.clone());

    // 1. Set-up, repeated; the last deployment serves the run.
    let (mut setup, mut start, mut bootstrap) = (vec![], vec![], vec![]);
    let mut builds: Vec<BuildTrace> = vec![];
    let mut live: Option<Deployment<O>> = None;
    for _ in 0..spec.setups {
        if let Some(d) = live.take() {
            drop(d.replica.shutdown());
            drop(d.primary.shutdown());
        }
        let g = graph.clone();
        let t0 = Instant::now();
        let oracle = if traced {
            let (oracle, build) = O::build_traced(g, spec);
            builds.push(build);
            oracle
        } else {
            O::build(g, spec)
        };
        let t1 = Instant::now();
        let service = OracleService::new(oracle, service_config());
        let primary =
            Server::start(service, "127.0.0.1:0", server_config.clone()).expect("bind the primary");
        metrics_text(primary.local_addr());
        let t2 = Instant::now();
        let replica = ReplicaServer::<O>::start(
            primary.local_addr(),
            "127.0.0.1:0",
            service_config(),
            server_config.clone(),
        )
        .expect("start the replica");
        metrics_text(replica.local_addr());
        let t3 = Instant::now();
        setup.push((t3 - t0).as_secs_f64());
        start.push((t2 - t1).as_secs_f64());
        bootstrap.push((t3 - t2).as_secs_f64());
        live = Some(Deployment { primary, replica });
    }
    let Deployment { primary, replica } = live.expect("at least one set-up");
    let addr = primary.local_addr();
    println!("setup_s samples={} {:?}", setup.len(), setup);
    values.insert("setup_s", median(&setup));
    values.insert("server.start_s", median(&start));
    values.insert("replication.bootstrap_s", median(&bootstrap));

    // The mirror starts from the primary's own snapshot.
    let snapshot = Client::connect(addr)
        .and_then(|mut c| c.snapshot())
        .expect("download the base snapshot");
    let mut mirror: O = Snapshot::restore(&snapshot).expect("restore the base snapshot");
    let base_epoch = mirror.epoch();
    values.insert("spanner_edges", mirror.spanner().edge_count() as f64);
    println!(
        "graph n={} m={edges} spanner_edges={} base_epoch={base_epoch}",
        spec.n,
        mirror.spanner().edge_count()
    );

    let mut ledger = Ledger::default();
    // Warm-up, at the start of every round (the read workloads' empty
    // waves invalidate the cache): one BATCH touching every hot (source,
    // fault set) pair, or 256 queries of the workload's own mix.
    let warm: Vec<Query> = if mix.sources().is_empty() {
        mix.stream(seed, 9).take(256).collect()
    } else {
        let mut targets = mix.stream(seed, 9);
        let mut warm = Vec::new();
        for &u in mix.sources() {
            for faults in mix.fault_sets() {
                let v = targets
                    .by_ref()
                    .map(|q| q.v)
                    .find(|&v| v != u && !faults.contains_vertex(v));
                warm.push(Query::distance(
                    u,
                    v.expect("endless stream"),
                    faults.clone(),
                ));
            }
        }
        warm
    };

    let replica_epoch = || replica.epoch();
    let mut plan = WavePlan::new(spec, seed);
    let mut wave_job = |count: usize, interval_ms: u64| WaveJob {
        addr,
        waves: plan.by_ref().take(count).collect(),
        interval: Duration::from_millis(interval_ms),
        replica_epoch: &replica_epoch,
    };
    // Phases 2, 4 and 5 run in ROUNDS interleaved rounds, so every figure
    // samples the host at several moments: each round yields a median per
    // figure, and the run reports the median of the round medians. On a
    // small shared host the program's speed shifts for seconds at a time
    // (`batch_qps` on `read_cold` moved between ~1 400 and ~3 400 q/s from
    // one round to the next); one figure from one window would read those
    // shifts, not the program.
    let main_n = ((spec.main_rate * 0.5 * secs / ROUNDS as f64) as usize).max(400);
    let main_ms = main_n as f64 / spec.main_rate * 1e3;
    let mut p50s = Vec::new();
    let mut main_latency = Vec::new();
    let (mut batch_rounds, mut publish_rounds, mut replicated_rounds) = (vec![], vec![], vec![]);
    let mut gen_late = Vec::new();
    let mut backlog_end = 0;
    for round in 0..ROUNDS as u64 {
        let first_wave = ledger.waves.len();
        ledger.batch(load::batch_once(addr, warm.clone(), &clock));

        // 2. Main open-loop window.
        let main_waves = spec
            .main_wave_interval_ms
            .map(|ms| wave_job(((main_ms / ms as f64) as usize).saturating_sub(1), ms));
        let main = load::open_loop(
            addr,
            mix.stream(seed, 100 * round).take(main_n).collect(),
            spec.main_rate,
            &clock,
            main_waves,
            false,
        );
        log_phase("main", &main);
        let latency: Vec<f64> = main.reads.iter().map(ReadRecord::latency_us).collect();
        p50s.push(Summary::of(&latency).p50);
        main_latency.extend(latency);
        gen_late.extend_from_slice(&main.gen_late_us);
        backlog_end = backlog_end.max(main.backlog_end);
        ledger.open_loop(&main);

        // 4. Closed-loop BATCH window.
        let batches = load::closed_loop_batch(
            addr,
            &mut mix.stream(seed, 100 * round + 20),
            spec.batch_len,
            spec.batches / ROUNDS,
            &clock,
        );
        let rates: Vec<f64> = batches
            .iter()
            .map(|b| b.queries.len() as f64 / ((b.done_ns - b.sent_ns).max(1) as f64 / 1e9))
            .collect();
        println!(
            "batch round={round} samples={} batch_len={} median={:.0}q/s",
            rates.len(),
            spec.batch_len,
            median(&rates)
        );
        batch_rounds.push(median(&rates));
        for b in batches {
            ledger.batch(b);
        }

        // 5. Wave window: waves on a schedule beside low-rate reads.
        let waves = spec.waves / ROUNDS;
        let wave_secs = (waves as u64 * spec.wave_interval_ms) as f64 / 1e3;
        let phase = load::open_loop(
            addr,
            mix.stream(seed, 100 * round + 50)
                .take((spec.wave_read_rate * wave_secs) as usize)
                .collect(),
            spec.wave_read_rate,
            &clock,
            Some(wave_job(waves, spec.wave_interval_ms)),
            false,
        );
        log_phase("waves", &phase);
        ledger.open_loop(&phase);
        let round: Vec<&WaveRecord> = ledger.waves[first_wave..]
            .iter()
            .filter(|w| w.reply.is_ok())
            .collect();
        publish_rounds.push(median(
            &round.iter().map(|w| w.publish_ms()).collect::<Vec<_>>(),
        ));
        replicated_rounds.push(median(
            &round.iter().map(|w| w.replicated_ms()).collect::<Vec<_>>(),
        ));
    }
    println!(
        "rounds p50={p50s:.1?} batch_qps={batch_rounds:.0?} wave_publish_ms={publish_rounds:.1?} \
         wave_replicated_ms={replicated_rounds:.1?}"
    );
    values.insert("query_p50_us", median(&p50s));
    values.insert("batch_qps", median(&batch_rounds));
    values.insert("wave_publish_ms", median(&publish_rounds));
    values.insert("wave_replicated_ms", median(&replicated_rounds));
    let main_summary = Summary::of(&main_latency);
    println!(
        "query latency samples={} pooled p50={:.1}us p99={}",
        main_summary.count,
        main_summary.p50,
        main_summary
            .p99
            .map_or("n/a".into(), |p| format!("{p:.1}us"))
    );
    values.insert("query_p99_us", main_summary.p99.unwrap_or(f64::INFINITY));
    values.insert(
        "load.gen_late_p99_us",
        percentile_sorted(&sorted(&gen_late), 99.0),
    );
    values.insert("load.backlog_end", backlog_end as f64);

    // 3. Ladder (traced run only: on a small shared host its result is a
    // diagnostic, not a steady end-to-end figure). Without waves in the
    // main phase, its rate is the first rung.
    let mut qps_at_slo = 0.0;
    let mut climbing = traced;
    if traced && spec.main_wave_interval_ms.is_none() {
        let passed = main_summary.p99.is_some_and(|p| p <= SLO_US);
        climbing = passed;
        if passed {
            qps_at_slo = spec.main_rate;
        }
    }
    for (k, &rate) in spec.ladder.iter().enumerate() {
        if !climbing {
            break;
        }
        let n = ((rate * 0.08 * secs) as usize).max(1_000);
        let rung = load::open_loop(
            addr,
            mix.stream(seed, 10 + k as u64).take(n).collect(),
            rate,
            &clock,
            None,
            false,
        );
        let (ok, s) = meets_slo(&rung, rate);
        log_phase(&format!("rung{rate}"), &rung);
        println!(
            "rung rate={rate} p99={} limit={}us backlog_end={} -> {}",
            s.p99.map_or("n/a".into(), |p| format!("{p:.1}us")),
            SLO_US,
            rung.backlog_end,
            if ok { "meets" } else { "misses" }
        );
        ledger.open_loop(&rung);
        climbing = ok;
        if ok {
            qps_at_slo = rate;
        }
    }
    values.insert("qps_at_slo", qps_at_slo);

    // Traced only: closed-loop single queries (for server.wire_us), and
    // the tracing overhead — the same open-loop phase with client spans
    // off and on.
    let mut single_query_us = 0.0;
    let mut spans = None;
    if traced {
        let singles =
            load::closed_loop_single(addr, mix.stream(seed, 30).take(1_000).collect(), &clock);
        let rtt: Vec<f64> = singles
            .iter()
            .map(|r| (r.done_ns.saturating_sub(r.sent_ns)) as f64 / 1e3)
            .collect();
        single_query_us = median(&rtt);
        ledger.add_reads(&singles);
        let n = ((spec.main_rate * 0.1 * secs) as usize).max(1_000);
        let off = load::open_loop(
            addr,
            mix.stream(seed, 40).take(n).collect(),
            spec.main_rate,
            &clock,
            None,
            false,
        );
        let mut on = load::open_loop(
            addr,
            mix.stream(seed, 40).take(n).collect(),
            spec.main_rate,
            &clock,
            None,
            true,
        );
        let p50 = |p: &OpenLoop| {
            Summary::of(
                &p.reads
                    .iter()
                    .map(ReadRecord::latency_us)
                    .collect::<Vec<_>>(),
            )
            .p50
        };
        values.insert("trace.query_p50_us", p50(&on));
        values.insert("trace.overhead_us", p50(&on) - p50(&off));
        ledger.open_loop(&off);
        ledger.open_loop(&on);
        spans = on.spans.take();
    }

    let wave_list: Vec<FaultSet> = ledger.waves.iter().map(|w| w.wave.clone()).collect();
    let mut epoch_errors = 0u64;
    for (i, w) in ledger.waves.iter().enumerate() {
        if let Ok(summary) = &w.reply {
            if summary.epoch != base_epoch + i as u64 + 1 {
                epoch_errors += 1;
            }
        }
    }
    let ok_waves: Vec<&WaveRecord> = ledger.waves.iter().filter(|w| w.reply.is_ok()).collect();
    let lag: Vec<f64> = ok_waves
        .iter()
        .map(|w| w.replicated_ms() - w.publish_ms())
        .collect();
    let lanes: Vec<f64> = ok_waves
        .iter()
        .filter_map(|w| w.reply.as_ref().ok())
        .map(|s| s.rebuilt_lanes.len() as f64)
        .collect();
    println!(
        "wave samples={} publish={:.1?} replicated={:.1?}",
        ok_waves.len(),
        ok_waves.iter().map(|w| w.publish_ms()).collect::<Vec<_>>(),
        ok_waves
            .iter()
            .map(|w| w.replicated_ms())
            .collect::<Vec<_>>()
    );
    values.insert("replication.lag_ms", median(&lag));
    values.insert(
        "shard.lanes_rebuilt_per_wave",
        lanes.iter().sum::<f64>() / lanes.len().max(1) as f64,
    );
    // Reads due while a wave was between request and reply.
    let stalled: Vec<f64> = ledger
        .reads
        .iter()
        .filter(|r| {
            ledger
                .waves
                .iter()
                .any(|w| r.due_ns >= w.sent_ns && r.due_ns < w.published_ns)
        })
        .map(|r| r.latency_us() / 1e3)
        .collect();
    println!("read_stall samples={}", stalled.len());
    values.insert("service.read_stall_ms", median(&stalled));

    // Serving counters, then shutdown and the replica comparison.
    let text = metrics_text(addr);
    let counter = |name: &str| prom(&text, name).unwrap_or(0.0);
    let submitted = counter("ftspan_submitted_total").max(1.0);
    values.insert(
        "service.coalesced_frac",
        counter("ftspan_coalesced_total") / submitted,
    );
    values.insert(
        "service.shed_frac",
        counter("ftspan_shed_total") / submitted,
    );
    values.insert(
        "cache.hit_ratio",
        counter("ftspan_cache_hits_total") / counter("ftspan_queries_total").max(1.0),
    );
    values.insert("cache.trees_built", counter("ftspan_trees_built_total"));
    println!(
        "serving queries={} cache_hits={} trees_built={} coalesced={} shed={} locality_local={} stitched={} global_fallbacks={}",
        counter("ftspan_queries_total"),
        counter("ftspan_cache_hits_total"),
        counter("ftspan_trees_built_total"),
        counter("ftspan_coalesced_total"),
        counter("ftspan_shed_total"),
        counter("ftspan_locality_local_total"),
        counter("ftspan_locality_stitched_total"),
        counter("ftspan_locality_global_fallbacks_total"),
    );
    // A single oracle is one lane: every routed query is local.
    values.insert(
        "shard.locality_rate",
        prom(&text, "ftspan_locality_rate").unwrap_or(1.0),
    );
    // CPU time the hypervisor took from this host during the run: on a
    // shared host it explains outlying runs.
    if let (Some((t0, s0)), Some((t1, s1))) = (ticks_at_start, cpu_ticks()) {
        println!(
            "host steal={:.1}% of CPU time during the run",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        );
    }
    // Peak memory of the serving phases. The run's own records are a fixed
    // size (every phase sends a fixed number of requests), so they add a
    // constant, not a term that grows with the program's speed.
    values.insert("rss_peak_mb", rss_peak_mb());
    let replica_service = replica.shutdown();
    let primary_service = primary.shutdown();
    let primary_bytes = Snapshot::capture(&*primary_service.oracle());
    let replica_bytes = Snapshot::capture(&*replica_service.oracle());
    let replica_identical = primary_bytes == replica_bytes;
    drop((primary_service, replica_service));

    // 6. Correctness gate.
    let items = ledger.items(base_epoch);
    let report = check::check(&mut mirror, base_epoch, &wave_list, &spec.churn, &items, 64);
    let mirror_identical = Snapshot::capture(&mirror) == primary_bytes;
    println!(
        "check answers={} correct={} wrong={} unchecked={} stretch_checked={} \
         replica_snapshot_identical={replica_identical} mirror_snapshot_identical={mirror_identical} \
         wave_epoch_errors={epoch_errors}",
        items.len(),
        report.correct,
        report.wrong,
        report.unchecked,
        report.stretch_checked,
    );
    if let Some(e) = &report.first_error {
        println!("check first mismatch: {e}");
    }
    let f = &ledger.failures;
    if let Some(first) = &f.first {
        println!("first failure: {first}");
    }
    println!(
        "failures shed_rate={} shed_admission={} shed_timeout={} error={} io={} wave={} wrong={}",
        f.shed_rate,
        f.shed_admission,
        f.shed_timeout,
        f.error,
        f.io,
        ledger.wave_failures,
        report.wrong
    );
    let failed = f.total() + ledger.wave_failures + epoch_errors + report.wrong;
    let attempted = ledger.attempted.max(1);
    values.insert("ops_ok_frac", 1.0 - failed as f64 / attempted as f64);

    // Per-layer probes (traced run only).
    if traced {
        let median_of =
            |f: fn(&BuildTrace) -> f64| median(&builds.iter().map(f).collect::<Vec<_>>());
        values.insert("greedy.build_s", median_of(|b| b.greedy_s));
        values.insert("oracle.assemble_s", median_of(|b| b.assemble_s));
        values.insert("greedy.lbc_calls", median_of(|b| b.lbc_calls as f64));
        values.insert("greedy.bfs_runs", median_of(|b| b.bfs_runs as f64));
        let stream: Vec<Query> = mix
            .stream(seed, 60)
            .take(spec.batch_len.max(2_048))
            .collect();
        let cold = crate::workload::fresh_fault_sets(spec, seed, 256);
        let layers = [
            trace::protocol(
                spans.as_ref().expect("traced phase recorded spans"),
                &mirror,
                &stream[..spec.batch_len],
            ),
            trace::read_path::<O>(spec, &snapshot, &stream, &cold, single_query_us, edges),
            trace::wave_path::<O>(
                spec,
                &snapshot,
                &wave_list,
                if spec.churn.verify_samples == 0 {
                    1
                } else {
                    wave_list.len()
                },
            ),
        ];
        values.extend(layers.into_iter().flatten());
    }

    RunOutcome {
        values,
        attempted,
        failed,
        correct: report.wrong == 0 && replica_identical && mirror_identical && epoch_errors == 0,
    }
}
