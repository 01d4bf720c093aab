//! Per-layer probes of the traced run.
//!
//! Each probe times calls into one layer's public functions from the
//! benchmark's own code, on in-process mirrors restored from the primary's
//! snapshot, fed the workload's own queries, frames and waves. Nothing here
//! runs during the untraced run's timed windows.

use std::hint::black_box;
use std::time::Instant;

use ftspan::verify::{verify_spanner_with, VerificationMode};
use ftspan::FaultSet;
use ftspan_graph::dijkstra::DijkstraScratch;
use ftspan_graph::wire::WireWriter;
use ftspan_oracle::{OracleService, Query, Replica, ServiceConfig, Snapshot, TicketState};
use ftspan_server::protocol::{decode_reply, decode_request, encode_reply_into, encode_request};
use ftspan_server::{BatchEntry, Reply, Request, WireAnswer};

use crate::backend::Backend;
use crate::load::Spans;
use crate::stats::median;
use crate::workload::{params, Spec};

/// Per-layer values by metric name.
pub type Layers = Vec<(&'static str, f64)>;

/// Median per-item time (µs) of `f` over `items`, timed in blocks of
/// `block` items so the clock's own cost stays negligible.
fn per_item_us<T>(items: &[T], block: usize, mut f: impl FnMut(&T)) -> f64 {
    let mut samples = Vec::new();
    for chunk in items.chunks(block) {
        let t = Instant::now();
        for item in chunk {
            f(item);
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64);
    }
    median(&samples)
}

/// `protocol.*`: the four codec calls on the frames the traced phase sent
/// and received, and the bytes a `BATCH` of the workload costs per query.
pub fn protocol<O: Backend>(spans: &Spans, mirror: &O, batch: &[Query]) -> Layers {
    let requests: Vec<Request> = spans
        .request_frames
        .iter()
        .filter_map(|b| decode_request(b).ok())
        .collect();
    let replies: Vec<Reply> = spans
        .reply_frames
        .iter()
        .filter_map(|b| decode_reply(b).ok())
        .collect();
    let mut w = WireWriter::new();
    let encode = per_item_us(&requests, 64, |r| {
        black_box(encode_request(r));
    }) + per_item_us(&replies, 64, |r| {
        encode_reply_into(r, &mut w);
        black_box(w.as_slice());
    });
    let decode = per_item_us(&spans.request_frames, 64, |b| {
        black_box(decode_request(b).ok());
    }) + per_item_us(&spans.reply_frames, 64, |b| {
        black_box(decode_reply(b).ok());
    });
    // Frame header: u32 length + u64 checksum.
    const HEADER: usize = 12;
    let request = encode_request(&Request::Batch(batch.to_vec()));
    let entries = mirror
        .answer_batch(batch)
        .into_iter()
        .map(|a| {
            BatchEntry::Answered(WireAnswer {
                distance: a.distance,
                path: a.path,
            })
        })
        .collect();
    encode_reply_into(&Reply::Batch(entries), &mut w);
    let bytes = (request.len() + w.as_slice().len() + 2 * HEADER) as f64 / batch.len() as f64;
    vec![
        ("protocol.encode_us", encode),
        ("protocol.decode_us", decode),
        ("protocol.bytes_per_query", bytes),
    ]
}

/// `service.query_us` / `service.overhead_us`, `oracle.hit_us` /
/// `oracle.miss_us`, `cache.bytes_per_edge` and `dijkstra.*`, on mirrors
/// restored from `snapshot`. `single_query_us` is the closed-loop TCP
/// median on the same stream, for `server.wire_us`.
pub fn read_path<O: Backend>(
    spec: &Spec,
    snapshot: &[u8],
    stream: &[Query],
    cold: &[FaultSet],
    single_query_us: f64,
    edges: usize,
) -> Layers {
    // The pool `Server::start` gives a service that has no workers.
    let workers = std::thread::available_parallelism()
        .map_or(2, usize::from)
        .min(4);
    let service = OracleService::new(
        Snapshot::restore::<O>(snapshot).expect("restore a fresh capture"),
        ServiceConfig::default().with_churn(spec.churn.clone()),
    );
    service.spawn_workers(workers);
    let direct: O = Snapshot::restore(snapshot).expect("restore a fresh capture");
    let cold_bytes = direct.memory_bytes();

    // Warm both caches on the stream, then time it again warm.
    for chunk in stream.chunks(256) {
        for t in service.submit_batch(chunk.to_vec()) {
            black_box(service.wait(t));
        }
        black_box(direct.answer_batch(chunk));
    }
    let mut single = Vec::new();
    for q in stream.iter().take(1_000) {
        let t = Instant::now();
        let ticket = service.submit(q.clone());
        let state = service.wait(ticket);
        single.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(
            matches!(state, TicketState::Answered(_)),
            "in-process query failed: {state:?}"
        );
    }
    let (mut via_service, mut via_direct) = (Vec::new(), Vec::new());
    for chunk in stream.chunks(256) {
        let t = Instant::now();
        for ticket in service.submit_batch(chunk.to_vec()) {
            black_box(service.wait(ticket));
        }
        via_service.push(t.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64);
        let t = Instant::now();
        black_box(direct.answer_batch(chunk));
        via_direct.push(t.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64);
    }
    let query_us = median(&single);

    // 32 queries (at most 32 fault sets, well inside the cache), answered
    // once to warm them, then timed eight times over.
    let warm: Vec<&Query> = stream.iter().take(32).collect();
    for q in &warm {
        black_box(direct.answer(q));
    }
    let repeated: Vec<&Query> = warm.iter().cycle().take(256).copied().collect();
    let hit = per_item_us(&repeated, 32, |q| {
        black_box(direct.answer(q));
    });
    let misses: Vec<Query> = cold
        .iter()
        .zip(stream)
        .map(|(f, q)| Query::distance(q.u, q.v, f.clone()))
        .filter(|q| !q.faults.contains_vertex(q.u) && !q.faults.contains_vertex(q.v))
        .collect();
    let miss = per_item_us(&misses, 1, |q| {
        black_box(direct.answer(q));
    });
    let cache_bytes = direct.memory_bytes().saturating_sub(cold_bytes) as f64 / edges as f64;

    let mut scratch = DijkstraScratch::new();
    let mut tree_bytes = Vec::new();
    let tree_us = per_item_us(&stream[..stream.len().min(300)], 1, |q| {
        let tree = scratch.shortest_path_tree(&q.faults.apply(direct.spanner()), q.u);
        tree_bytes.push(tree.memory_bytes() as f64);
    });
    drop(service);
    vec![
        ("service.query_us", query_us),
        (
            "service.overhead_us",
            median(&via_service) - median(&via_direct),
        ),
        ("server.wire_us", single_query_us - query_us),
        ("oracle.hit_us", hit),
        ("oracle.miss_us", miss),
        ("cache.bytes_per_edge", cache_bytes),
        (
            "oracle.struct_bytes_per_edge",
            cold_bytes as f64 / edges as f64,
        ),
        ("dijkstra.tree_us", tree_us),
        ("dijkstra.tree_bytes", median(&tree_bytes)),
    ]
}

/// `churn.*`, `shard.rebuild_ms`, `service.wave_barrier_ms`,
/// `verify.spot_check_ms` and `replication.apply_ms`: the run's waves
/// replayed on mirrors restored from `snapshot`. `verify_waves` bounds how
/// many post-wave spot checks are timed.
pub fn wave_path<O: Backend>(
    spec: &Spec,
    snapshot: &[u8],
    waves: &[FaultSet],
    verify_waves: usize,
) -> Layers {
    let churn = &spec.churn;
    let mut backend: O = Snapshot::restore(snapshot).expect("restore a fresh capture");
    let mut single = backend.single();
    let service = OracleService::new(
        Snapshot::restore::<O>(snapshot).expect("restore a fresh capture"),
        ServiceConfig::default()
            .with_churn(churn.clone())
            .with_journal(),
    );
    let mut scratch = DijkstraScratch::new();
    let (mut apply, mut rebuild, mut barrier, mut verify) = (vec![], vec![], vec![], vec![]);
    let (mut candidates, mut added, mut escalated) = (0usize, 0usize, 0usize);
    for (i, wave) in waves.iter().enumerate() {
        let t = Instant::now();
        let report = backend.apply_wave(wave, churn);
        let backend_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        black_box(single.apply_wave(wave, churn));
        let single_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let ticket = service.submit_wave(wave.clone());
        let state = service.wait(ticket);
        let service_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            matches!(state, TicketState::Waved(_)),
            "in-process wave failed: {state:?}"
        );
        apply.push(backend_ms);
        rebuild.push(backend_ms - single_ms);
        barrier.push(service_ms);
        candidates += report.outcome.candidates;
        added += report.outcome.edges_added;
        escalated += usize::from(report.outcome.escalated);
        if i < verify_waves {
            let t = Instant::now();
            black_box(verify_spanner_with(
                &mut scratch,
                backend.graph(),
                backend.spanner(),
                params(),
                VerificationMode::Sampled {
                    samples: churn.verify_samples,
                    seed: churn.verify_seed,
                },
            ));
            verify.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let entries = service
        .journal()
        .expect("journal enabled")
        .to_journal()
        .entries()
        .to_vec();
    let mut replica: Replica<O> = Replica::bootstrap(snapshot, churn.clone()).expect("bootstrap");
    let mut replicate = Vec::new();
    for entry in &entries {
        let t = Instant::now();
        replica
            .apply_entry(entry)
            .expect("replica replays the journal");
        replicate.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let waves_n = waves.len().max(1) as f64;
    vec![
        ("churn.apply_ms", median(&apply)),
        ("shard.rebuild_ms", median(&rebuild)),
        // A difference of medians of two ~equal series: it can read
        // slightly negative when the barrier costs less than the noise.
        ("service.wave_barrier_ms", median(&barrier) - median(&apply)),
        ("verify.spot_check_ms", median(&verify)),
        ("replication.apply_ms", median(&replicate)),
        ("churn.candidates", candidates as f64 / waves_n),
        ("churn.edges_added", added as f64 / waves_n),
        (
            "churn.useful_candidate_ratio",
            if candidates == 0 {
                0.0
            } else {
                added as f64 / candidates as f64
            },
        ),
        ("churn.escalated_frac", escalated as f64 / waves_n),
    ]
}
