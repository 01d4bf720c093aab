//! Verifies the oracle's cached-tree hit path performs **zero heap
//! allocation** per query.
//!
//! A counting global allocator wraps the system allocator; the test warms
//! the shortest-path-tree cache, arms the counter, and replays cached
//! distance queries. Any allocation on that path (the pre-CSR implementation
//! cloned the fault set into a `Query`, built an owned `CacheKey` with two
//! vectors, and created a fresh `DijkstraScratch` per call) fails the test.
//!
//! The counter only *observes* — allocation behavior is unchanged. It is
//! armed per thread and counts only allocations made by the thread that
//! armed it: the test harness's own threads (libtest spawns one per test
//! and allocates while doing so) used to land in a process-wide window and
//! fail the audit at random. Every audited call below — cached
//! `FaultOracle::distance` hits, `ShardedOracle::distance`,
//! `respan_candidates_with` and `FaultOracle::apply_wave` (localized
//! respan, broken-pair detection and the sampled spot check) — runs
//! entirely on the calling thread: none of them spawns or hands work to
//! another thread, so the per-thread counter sees every allocation the
//! process-wide one saw. `counter_sees_only_the_armed_thread` pins both
//! halves of that scope. Test bodies still serialize through one mutex so
//! their timings and pooled state never interleave.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use ftspan::repair::{respan_candidates_with, RepairOptions, RepairScratch};
use ftspan::{FaultSet, SpannerParams};
use ftspan_graph::{generators, vid, EdgeId};
use ftspan_oracle::{
    ChurnConfig, FaultOracle, OracleOptions, ShardPlanOptions, ShardedOptions, ShardedOracle,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    /// This thread's allocation count while armed; `None` when unarmed.
    /// Const-initialized, so reading it never allocates.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}
/// Serializes test bodies, so audits never share the host with another
/// test's work.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAllocator;

/// Counts one allocation if the current thread is armed. `try_with` keeps
/// allocations during thread teardown (after the slot is gone) uncounted
/// instead of panicking inside the allocator.
fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

// SAFETY: delegates every operation verbatim to the system allocator; the
// wrapper only increments a thread-local counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f` with this thread's counter armed and returns how many
/// allocations it made on this thread.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|count| count.set(Some(0)));
    f();
    ALLOCATIONS.with(|count| count.take()).expect("armed above")
}

#[test]
fn counter_sees_only_the_armed_thread() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Allocations on the armed thread are counted...
    let own = count_allocations(|| {
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(16));
        drop(v);
    });
    assert_eq!(own, 1);
    // ...while another thread's are not: the audited calls must therefore
    // (and do) stay on the calling thread. The armed side only spins on
    // atomics, which never allocate (a blocking channel receive may).
    let go = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !go.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(16));
            drop(v);
            done.store(true, Ordering::Release);
        });
        let seen = count_allocations(|| {
            go.store(true, Ordering::Release);
            while !done.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        assert_eq!(
            seen, 0,
            "another thread's allocations leaked into the audit"
        );
    });
}

fn small_oracle() -> FaultOracle {
    let mut rng = StdRng::seed_from_u64(77);
    let graph = generators::connected_gnp(60, 0.15, &mut rng);
    FaultOracle::build(graph, SpannerParams::vertex(2, 2), OracleOptions::default())
}

#[test]
fn cached_distance_queries_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let oracle = small_oracle();
    let faults = FaultSet::vertices([vid(3), vid(9)]);
    // Warm-up: computes and caches the tree (allocates, unarmed), and
    // exercises the scratch pool so its vector is populated.
    assert!(oracle.distance(vid(1), vid(20), &faults).is_some());
    let allocations = count_allocations(|| {
        for _ in 0..1_000 {
            let d = oracle.distance(vid(1), vid(20), &faults);
            assert!(d.is_some());
        }
    });
    assert_eq!(
        allocations, 0,
        "cached-tree distance hit path must not touch the heap"
    );
}

#[test]
fn cached_hits_on_either_endpoint_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let oracle = small_oracle();
    let faults = FaultSet::vertices([vid(5)]);
    assert!(oracle.distance(vid(2), vid(30), &faults).is_some());
    let allocations = count_allocations(|| {
        for _ in 0..500 {
            // Symmetric query: served from the same tree, rooted at the
            // other endpoint.
            let d = oracle.distance(vid(30), vid(2), &faults);
            assert!(d.is_some());
            // A different target under the same fault set: same tree again.
            let d = oracle.distance(vid(2), vid(31), &faults);
            assert!(d.is_some());
        }
    });
    assert_eq!(allocations, 0, "either-endpoint hits must not allocate");
}

#[test]
fn edge_fault_cached_hits_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(78);
    let graph = generators::connected_gnp(40, 0.2, &mut rng);
    let oracle = FaultOracle::build(graph, SpannerParams::edge(2, 1), OracleOptions::default());
    let faults = FaultSet::edges([ftspan_graph::eid(0), ftspan_graph::eid(4)]);
    assert!(oracle.distance(vid(1), vid(12), &faults).is_some());
    let allocations = count_allocations(|| {
        for _ in 0..500 {
            let d = oracle.distance(vid(1), vid(12), &faults);
            assert!(d.is_some());
        }
    });
    assert_eq!(
        allocations, 0,
        "edge-fault hits must not re-translate fault ids"
    );
}

#[test]
fn steady_state_respan_allocates_for_outputs_only() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A warm `RepairScratch` must hold every buffer a respan sweep needs:
    // the second identical pass may allocate only for its outputs (the
    // rebuilt spanner and the `added` list) — not for sweep events, the
    // candidate dedup map, LBC fault views, or BFS state, all of which the
    // pre-engine implementation re-allocated per call, sized by the graph.
    let mut rng = StdRng::seed_from_u64(80);
    let graph = generators::connected_gnp(60, 0.15, &mut rng);
    let params = SpannerParams::vertex(2, 2);
    let built = ftspan::poly_greedy_spanner(&graph, params);
    // Damage the spanner so the sweep has real LBC decisions to make.
    let keep: Vec<EdgeId> = built
        .spanner
        .edge_ids()
        .filter(|e| e.index() % 3 != 0)
        .collect();
    let damaged = built.spanner.edge_subgraph(keep);
    let candidates: Vec<EdgeId> = graph.edge_ids().collect();
    let options = RepairOptions::default();

    let mut scratch = RepairScratch::new();
    let cold = count_allocations(|| {
        let out = respan_candidates_with(
            &mut scratch,
            &graph,
            &damaged,
            params,
            &candidates,
            &options,
        );
        assert!(out.edges_added() > 0);
    });
    let warm = count_allocations(|| {
        let out = respan_candidates_with(
            &mut scratch,
            &graph,
            &damaged,
            params,
            &candidates,
            &options,
        );
        assert!(out.edges_added() > 0);
    });
    // The warm pass allocates only for outputs: the rebuilt CSR spanner
    // (geometric growth and self-compaction), the `added` list, and one cut
    // vector per YES certificate — ~235 on this workload. The pre-engine
    // implementation re-allocated the sweep events, a graph-sized `seen`
    // bitmap, and two fault-view bitmaps plus BFS state per candidate
    // decision, landing in the thousands.
    assert!(
        warm <= 300,
        "steady-state respan allocated {warm} times (cold pass: {cold}) \
         — per-wave setup is leaking out of the scratch"
    );
    assert!(warm < cold, "warm pass must reuse the cold pass's pools");
}

#[test]
fn steady_state_wave_allocation_is_damage_proportional() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // End-to-end churn audit: after a warm-up wave has populated the
    // oracle-owned `WaveScratch`, a steady-state wave's allocation count
    // must stay bounded — rematerialized graphs and verification sampling
    // allocate, but the per-candidate LBC setup (two fault-view bitmaps
    // plus BFS state per decision, which alone used to cost several
    // allocations times the candidate count) must not come back.
    let mut rng = StdRng::seed_from_u64(81);
    let graph = generators::connected_gnp(60, 0.15, &mut rng);
    let mut oracle =
        FaultOracle::build(graph, SpannerParams::vertex(2, 1), OracleOptions::default());
    let config = ChurnConfig::default();
    // Warm-up: grows every pooled buffer to the graph's size.
    let _ = oracle.apply_wave(&FaultSet::vertices([vid(7)]), &config);
    let allocations = count_allocations(|| {
        let outcome = oracle.apply_wave(&FaultSet::vertices([vid(23), vid(41)]), &config);
        assert!(outcome.candidates > 0);
    });
    // What remains in a steady-state wave is work-proportional, not
    // setup-proportional: graph rematerialization, the rebuilt spanner, and
    // the verification sampler's per-fault-set views and distance caches —
    // ~1.0k on this workload, bounded by the sampled verification work
    // rather than the candidate count. The pre-engine implementation added
    // several allocations per candidate LBC decision on top (fault-view
    // bitmaps, BFS arrays, path and cut vectors), which is what this budget
    // excludes.
    assert!(
        allocations <= 2_500,
        "steady-state wave allocated {allocations} times — repair setup is \
         no longer pooled"
    );
}

#[test]
fn sharded_local_cached_hits_stay_lean() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The sharded path localizes the fault set per query (one small vector),
    // so it is not allocation-free — but a cached local hit must stay within
    // that constant, far below a tree recomputation.
    let mut rng = StdRng::seed_from_u64(79);
    let graph = generators::connected_gnp(60, 0.15, &mut rng);
    let options = ShardedOptions {
        plan: ShardPlanOptions {
            shards: 2,
            ..ShardPlanOptions::default()
        },
        ..ShardedOptions::default()
    };
    let oracle = ShardedOracle::build(graph, SpannerParams::vertex(2, 2), options);
    let (u, v) = {
        let core = oracle.plan().core(0);
        (core[0], core[core.len() - 1])
    };
    let faults = FaultSet::vertices([vid(3)]);
    let _ = oracle.distance(u, v, &faults);
    let queries = 200u64;
    let allocations = count_allocations(|| {
        for _ in 0..queries {
            let _ = oracle.distance(u, v, &faults);
        }
    });
    assert!(
        allocations <= 4 * queries,
        "sharded cached hits allocated {allocations} times for {queries} queries \
         — expected only the per-query fault localization"
    );
}
