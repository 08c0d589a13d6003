//! One copy per resident graph, measured on the heap: registering an owned
//! graph, opening a mapped snapshot and applying a one-edit batch grow the
//! live heap by no more than the graphs the registry then holds, plus a
//! little bookkeeping; inducing a query from a resident graph into a warm
//! engine allocates nothing; a long run of edit batches grows the heap by
//! the latest graph plus a few bytes per logged edit; a warm runner
//! serves tenants it has never seen without growing the heap at all; and a
//! workspace that has run full SBL, BL, KUW and linear solves of one graph
//! holds one engine for it.
//!
//! A counting `#[global_allocator]` tracks live heap bytes for this whole
//! test binary, which therefore holds a single test: nothing else allocates
//! while it measures.

use hypergraph_mis::hypergraph::io::write_csr;
use hypergraph_mis::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, keeping a running total of live bytes.
struct Counting;

// Relaxed: the counts publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned, so the caller's guarantees are exactly
// the ones `System` needs; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes added by `f` (negative if it freed more than it kept).
fn heap_growth<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.load(Ordering::Relaxed) as isize;
    let out = f();
    (out, LIVE.load(Ordering::Relaxed) as isize - before)
}

#[test]
fn each_resident_graph_is_held_once() {
    let n = 1 << 16;
    let graph = generate::d_uniform(&mut ChaCha8Rng::seed_from_u64(16), n, 2 * n, 3);
    let graph_bytes = graph.bytes_resident() as isize;
    let removed = graph.edge(0).to_vec();
    let path =
        std::env::temp_dir().join(format!("hgmis-resident-heap-{}.hgcsr", std::process::id()));
    write_csr(&graph, &path).unwrap();
    let file_bytes = std::fs::metadata(&path).unwrap().len() as isize;
    let mut registry = ResidentRegistry::new();

    // An owned graph moves into the registry: bookkeeping only.
    let (owned, grew) = heap_growth(|| registry.register(graph));
    assert!(
        grew * 100 < graph_bytes,
        "register grew the heap by {grew} B for a {graph_bytes} B graph"
    );

    // A mapped graph lives in its file mapping, not on the heap.
    let (_mapped, grew) = heap_growth(|| registry.open_mapped(&path).unwrap());
    assert!(
        grew * 100 < file_bytes,
        "open_mapped grew the heap by {grew} B for a {file_bytes} B file"
    );

    // A one-edit batch publishes one new graph and nothing beside it.
    let (_, grew) = heap_growth(|| {
        registry
            .apply(owned, &[GraphEdit::RemoveEdge(removed)])
            .unwrap()
    });
    let new_bytes = registry.latest(owned).graph().bytes_resident() as isize;
    assert!(
        grew * 100 <= new_bytes * 101,
        "apply grew the heap by {grew} B for a {new_bytes} B graph"
    );

    // Once warm, an induce allocates nothing on either branch: a small
    // query walks the incidence lists, the whole vertex set (unsorted)
    // falls back to the edge scan.
    let snap = registry.latest(owned);
    let mut sub = ActiveHypergraph::from_parts(Vec::new(), Vec::new());
    let small: Vec<u32> = (0..64).collect();
    let whole: Vec<u32> = (0..n as u32).rev().collect();
    for query in [&small, &whole] {
        sub.reset_induced(snap.graph(), query);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for query in [&small, &whole] {
        sub.reset_induced(snap.graph(), query);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocations, 0, "a warm reset_induced allocated");
    assert_eq!(sub.n_alive(), n);
    std::fs::remove_file(&path).ok();

    // The edit log is flat. 1024 batches shaped like perfbench's
    // `mutate_mix` (remove one block of 8 edges, re-add the block the
    // previous batch removed) on a `keep_last(1)` registry grow the heap by
    // the latest graph and a few bytes per logged edit: the edits' own
    // words, one header word per edit and one epoch slot per batch.
    const BLOCK: usize = 8;
    const BATCHES: usize = 1024;
    let graph = generate::d_uniform(&mut ChaCha8Rng::seed_from_u64(21), 4096, 2 * 4096, 3);
    let blocks: Vec<Vec<Vec<u32>>> = (0..64)
        .map(|b| {
            (0..BLOCK)
                .map(|i| graph.edge((b * BLOCK + i) as u32).to_vec())
                .collect()
        })
        .collect();
    let block = |k: usize| &blocks[k % blocks.len()];
    let removed: Vec<GraphEdit> = block(0)
        .iter()
        .map(|e| GraphEdit::RemoveEdge(e.clone()))
        .collect();
    let graph = apply_edits(&graph, &removed).unwrap();
    let mut registry = ResidentRegistry::with_retention(RetentionPolicy::keep_last(1));
    let id = registry.register(graph);
    let (_, grew) = heap_growth(|| {
        for k in 1..=BATCHES {
            let batch: Vec<GraphEdit> = block(k)
                .iter()
                .map(|e| GraphEdit::RemoveEdge(e.clone()))
                .chain(block(k - 1).iter().map(|e| GraphEdit::AddEdge(e.clone())))
                .collect();
            registry.apply(id, &batch).unwrap();
        }
    });
    let logged = registry.edit_log(id).len();
    assert_eq!(logged, BATCHES * 2 * BLOCK);
    let graph_bytes = registry.latest(id).graph().bytes_resident() as isize;
    let per_edit = (grew - graph_bytes) as f64 / logged as f64;
    assert!(
        per_edit <= 32.0,
        "{logged} logged edits grew the heap by {per_edit:.1} B each beside the latest graph"
    );

    // A tenant leaves nothing behind: once a `BatchRunner` is warm on eight
    // resident graphs, 2048 BL induced solves for 2048 tenants it has never
    // seen grow the heap by nothing.
    let mut registry = ResidentRegistry::new();
    let graphs: Vec<GraphId> = (0..8)
        .map(|g| {
            let mut rng = ChaCha8Rng::seed_from_u64(30 + g);
            registry.register(generate::d_uniform(&mut rng, 2048, 4096, 3))
        })
        .collect();
    let query = Arc::new((0..2048).step_by(8).collect::<Vec<u32>>());
    let request = |k: usize, tenant: u64| {
        SolveRequest::induced(graphs[k % graphs.len()], Arc::clone(&query))
            .algorithm(Algorithm::Bl(BlConfig::default()))
            .seed(k as u64)
            .tenant(TenantId(tenant))
            .build()
    };
    let mut runner = BatchRunner::new();
    for k in 0..2 * graphs.len() {
        drop(runner.solve(&registry, &request(k, 0)));
    }
    let (_, grew) = heap_growth(|| {
        for tenant in 1..=2048 {
            let k = tenant as usize % graphs.len();
            drop(runner.solve(&registry, &request(k, tenant)));
        }
    });
    assert_eq!(grew, 0, "2048 new tenants grew the heap by {grew} B");

    // A workspace holds one copy of the instance: full SBL, BL, KUW and
    // linear solves all reset the one engine parked in it. Beside what the
    // first solve kept (that engine and BL's scratch), the other three keep
    // less than one more engine: SBL's sample engine, a handful of flag and
    // list buffers.
    let graph = generate::linear(&mut ChaCha8Rng::seed_from_u64(40), 4096, 4096, 4);
    let (engine, engine_bytes) = heap_growth(|| ActiveHypergraph::from_hypergraph(&graph));
    drop(engine);
    let rng = |seed: u64| ChaCha8Rng::seed_from_u64(seed);
    let mut ws = Workspace::new();
    let bl = BlConfig::default();
    let (_, first) = heap_growth(|| drop(bl_mis_in(&graph, &mut rng(1), &bl, &mut ws)));
    let (sampled, rest) = heap_growth(|| {
        drop(kuw_mis_in(&graph, &mut rng(2), &mut ws));
        drop(linear_mis_in(&graph, &mut rng(3), &mut ws).expect("a linear graph"));
        let trace = sbl_mis_in(&graph, &mut rng(4), &SblConfig::default(), &mut ws).trace;
        !trace.direct_bl && trace.n_rounds() > 0
    });
    assert!(sampled, "SBL must sample, parking its sample engine");
    assert!(
        first >= engine_bytes,
        "BL kept {first} B, less than one {engine_bytes} B engine"
    );
    assert!(
        rest < engine_bytes,
        "SBL, KUW and linear kept {rest} B beside BL's {engine_bytes} B engine"
    );
}
