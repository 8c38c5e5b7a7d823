//! Allocation regression guard for the zero-allocation neighbourhood
//! kernels: after warm-up, a full scratch-threaded DSW extraction and a
//! full scratch-threaded MCODE clustering pass must perform **zero**
//! heap allocations.
//!
//! A counting global allocator wraps `System`; each steady-state pass is
//! measured by diffing the allocation counter around the call. The
//! warm-up passes let every scratch buffer, candidate set, cluster pool
//! and output adjacency list ratchet up to its working capacity (the
//! MCODE cluster pool converges over a couple of passes because the
//! final score sort permutes the pooled buffers).
//!
//! This test binary contains exactly one `#[test]` so no concurrent test
//! can pollute the global counter.

use casbn::chordal::{maximal_chordal_subgraph_with, ChordalResult, DswScratch, WorkCounter};
use casbn::graph::generators::planted_partition;
use casbn::graph::Graph;
use casbn::mcode::{mcode_cluster_into, Cluster, McodeParams, McodeScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System` wrapper that counts every allocation entry point
/// (`alloc`, `alloc_zeroed`, `realloc`) — frees are not counted, so the
/// guard is specifically "no *new* memory in steady state".
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations performed by `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_dsw_and_mcode_allocate_nothing() {
    // a module-structured graph: dense planted cliques + noise, the
    // workload shape both hot paths run in the pipeline
    let (g, _) = planted_partition(400, 6, 12, 0.9, 260, 5);

    // --- DSW ---
    let mut scratch = DswScratch::new(g.n());
    let mut result = ChordalResult {
        graph: Graph::new(g.n()),
        order: Vec::new(),
        work: WorkCounter::default(),
    };
    for _ in 0..3 {
        maximal_chordal_subgraph_with(&g, &mut scratch, &mut result);
    }
    let dsw_allocs = allocations_in(|| {
        maximal_chordal_subgraph_with(&g, &mut scratch, &mut result);
    });
    assert!(result.graph.m() > 0, "extraction must do real work");
    assert_eq!(
        dsw_allocs, 0,
        "steady-state DSW pass allocated {dsw_allocs} times"
    );

    // --- MCODE ---
    let mut scratch = McodeScratch::new(g.n());
    let mut clusters: Vec<Cluster> = Vec::new();
    let params = McodeParams::default();
    // adaptive warm-up: the final score sort permutes the pooled cluster
    // buffers, so per-slot capacities converge over the orbit of that
    // permutation (bounded by the cluster count) rather than in one pass
    let mut warmups = 0;
    loop {
        let a = allocations_in(|| {
            mcode_cluster_into(&g, &params, &mut scratch, &mut clusters);
        });
        if a == 0 {
            break;
        }
        warmups += 1;
        assert!(
            warmups <= clusters.len() + 2,
            "MCODE pool capacities failed to converge after {warmups} passes"
        );
    }
    let mcode_allocs = allocations_in(|| {
        mcode_cluster_into(&g, &params, &mut scratch, &mut clusters);
    });
    assert!(!clusters.is_empty(), "clustering must do real work");
    assert_eq!(
        mcode_allocs, 0,
        "steady-state MCODE pass allocated {mcode_allocs} times"
    );

    // --- telemetry enabled: instrumented passes reach steady state ---
    // the first enabled passes materialize this thread's shard and
    // insert the &'static str counter keys into its maps (allocates);
    // once every key exists a counter update is a pure HashMap write
    let prior = casbn::obs::set_enabled(true);
    assert!(!prior, "telemetry must be disabled by default");
    let mut dsw_scratch = DswScratch::new(g.n());
    let mut warmups = 0;
    loop {
        let a = allocations_in(|| {
            maximal_chordal_subgraph_with(&g, &mut dsw_scratch, &mut result);
            mcode_cluster_into(&g, &params, &mut scratch, &mut clusters);
        });
        if a == 0 {
            break;
        }
        warmups += 1;
        assert!(
            warmups <= clusters.len() + 4,
            "instrumented passes failed to reach steady state after {warmups} warm-ups"
        );
    }
    let enabled_allocs = allocations_in(|| {
        maximal_chordal_subgraph_with(&g, &mut dsw_scratch, &mut result);
        mcode_cluster_into(&g, &params, &mut scratch, &mut clusters);
    });
    assert_eq!(
        enabled_allocs, 0,
        "enabled-telemetry steady-state pass allocated {enabled_allocs} times"
    );

    // …and switching telemetry back off keeps the paths allocation-free
    casbn::obs::set_enabled(false);
    let disabled_allocs = allocations_in(|| {
        maximal_chordal_subgraph_with(&g, &mut dsw_scratch, &mut result);
        mcode_cluster_into(&g, &params, &mut scratch, &mut clusters);
    });
    assert_eq!(
        disabled_allocs, 0,
        "disabled-telemetry steady-state pass allocated {disabled_allocs} times"
    );
}
