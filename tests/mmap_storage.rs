//! Mapped-tier storage parity: solves served from an `mmap`-backed CSR
//! snapshot ([`hypergraph::io::open_mapped`] via
//! [`ResidentRegistry::open_mapped`]) are fingerprint-identical to the same
//! solves served from heap-owned arenas, across all six algorithms and every
//! request shape — the storage tier is invisible to outcomes by
//! construction (the two tiers expose the very same CSR words).
//!
//! Also pins the out-of-core machinery end to end: LRU spill under a byte
//! cap, transparent page-in on the request path, and the registry's
//! spill/page-in counters under both the sequential [`BatchRunner`] and the
//! sharded runner.
//!
//! Runs in both the default and `--no-default-features` configurations (it
//! only touches the flat engine).

use hypergraph_mis::hypergraph::io::write_csr;
use hypergraph_mis::prelude::*;
use hypergraph_mis::serve::SolveFingerprint;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::Arc;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn temp_csr(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hgmis-mmap-{tag}-{}.hgcsr", std::process::id()))
}

/// The two tenant graphs: a general 3-uniform instance for the five general
/// algorithms and a linear instance for [`Algorithm::Linear`].
fn general_graph() -> Hypergraph {
    generate::d_uniform(&mut rng(41), 200, 320, 3)
}

fn linear_graph() -> Hypergraph {
    generate::linear(&mut rng(42), 160, 100, 3)
}

/// A deterministic pseudo-random query set over the first `n` ids.
fn query(n: usize, size: usize, seed: u64) -> Arc<Vec<u32>> {
    let mut r = rng(0x0CCA ^ seed);
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for k in 0..size.min(n) {
        let j = rand::Rng::gen_range(&mut r, k..n);
        ids.swap(k, j);
    }
    ids.truncate(size.min(n));
    ids.sort_unstable();
    Arc::new(ids)
}

/// One request per algorithm (resident and induced shapes) against the two
/// resident tenants, identical across registries by construction.
fn stream(general: GraphId, linear: GraphId) -> Vec<SolveRequest> {
    let mut requests = Vec::new();
    let algorithms = [
        Algorithm::Sbl(SblConfig::default()),
        Algorithm::Bl(BlConfig::default()),
        Algorithm::Kuw,
        Algorithm::Greedy,
        Algorithm::Permutation,
    ];
    for (i, algorithm) in algorithms.into_iter().enumerate() {
        let seed = 0x3A99_0000 + i as u64;
        requests.push(
            SolveRequest::for_graph(general)
                .algorithm(algorithm.clone())
                .seed(seed)
                .tenant(TenantId(i as u64 % 3))
                .build(),
        );
        requests.push(
            SolveRequest::induced(general, query(200, 64, seed))
                .algorithm(algorithm)
                .seed(seed ^ 0xF00D)
                .tenant(TenantId(i as u64 % 3))
                .build(),
        );
    }
    requests.push(
        SolveRequest::for_graph(linear)
            .algorithm(Algorithm::Linear)
            .seed(0x3A99_0100)
            .tenant(TenantId(1))
            .build(),
    );
    requests
}

fn run(registry: &ResidentRegistry, requests: &[SolveRequest]) -> Vec<SolveFingerprint> {
    let mut runner = BatchRunner::new();
    requests
        .iter()
        .map(|r| runner.solve(registry, r).fingerprint())
        .collect()
}

/// The headline parity pin: the same request stream against an owned-tier
/// registry and a mapped-tier registry (opened from persisted snapshots of
/// the same graphs) agrees fingerprint-for-fingerprint — independent sets,
/// work, depth, rounds and traces included — for all six algorithms.
#[test]
fn mapped_and_owned_solves_are_fingerprint_identical() {
    let pg = temp_csr("parity-general");
    let pl = temp_csr("parity-linear");
    write_csr(&general_graph(), &pg).unwrap();
    write_csr(&linear_graph(), &pl).unwrap();

    let mut owned = ResidentRegistry::new();
    let og = owned.register(general_graph());
    let ol = owned.register(linear_graph());

    let mut mapped = ResidentRegistry::new();
    let mg = mapped.open_mapped(&pg).unwrap();
    let ml = mapped.open_mapped(&pl).unwrap();
    assert_eq!(mapped.latest(mg).graph().storage_kind(), "mapped");
    assert_eq!(owned.latest(og).graph().storage_kind(), "owned");
    assert_eq!(mapped.latest(mg).graph(), owned.latest(og).graph());

    let owned_prints = run(&owned, &stream(og, ol));
    let mapped_prints = run(&mapped, &stream(mg, ml));
    assert_eq!(owned_prints.len(), 11);
    for (i, (o, m)) in owned_prints.iter().zip(&mapped_prints).enumerate() {
        assert_eq!(o, m, "request {i} diverged between storage tiers");
    }
    std::fs::remove_file(&pg).ok();
    std::fs::remove_file(&pl).ok();
}

/// A mapped resident mutates like any other: the edit log layers on top of
/// the mapped base, and outcomes keep agreeing with an identically mutated
/// owned registry at every epoch.
#[test]
fn mutated_mapped_residents_stay_outcome_identical() {
    let path = temp_csr("mutate");
    write_csr(&general_graph(), &path).unwrap();

    let mut owned = ResidentRegistry::new();
    let oid = owned.register(general_graph());
    let mut mapped = ResidentRegistry::new();
    let mid = mapped.open_mapped(&path).unwrap();

    let edits = vec![
        GraphEdit::GrowVertices(2),
        GraphEdit::AddEdge(vec![200, 201, 7]),
        GraphEdit::RemoveEdge(general_graph().edge(11).to_vec()),
    ];
    assert_eq!(owned.apply(oid, &edits).unwrap(), Epoch(1));
    assert_eq!(mapped.apply(mid, &edits).unwrap(), Epoch(1));

    let mut runner = BatchRunner::new();
    for pin in [
        EpochPin::At(Epoch(0)),
        EpochPin::At(Epoch(1)),
        EpochPin::Latest,
    ] {
        for (i, algorithm) in [Algorithm::Kuw, Algorithm::Greedy].into_iter().enumerate() {
            let req = |id| {
                SolveRequest::for_graph(id)
                    .algorithm(algorithm.clone())
                    .seed(0xED17 + i as u64)
                    .pin(pin)
                    .build()
            };
            assert_eq!(
                runner.solve(&owned, &req(oid)).fingerprint(),
                runner.solve(&mapped, &req(mid)).fingerprint(),
                "pin {pin:?} diverged between storage tiers"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The registry counts spill/page-in traffic on the sequential path: a zero
/// byte cap forces a page-in per solve.
#[test]
fn batch_runner_mirrors_page_ins_into_the_workspace_ledger() {
    let path = temp_csr("batch-spill");
    write_csr(&general_graph(), &path).unwrap();
    let mut registry = ResidentRegistry::with_spill(SpillPolicy::max_bytes(0));
    let id = registry.open_mapped(&path).unwrap();
    assert!(registry.is_spilled(id));

    let mut runner = BatchRunner::new();
    let request = SolveRequest::for_graph(id)
        .algorithm(Algorithm::Greedy)
        .seed(1)
        .build();
    let first = runner.solve(&registry, &request).fingerprint();
    let second = runner.solve(&registry, &request).fingerprint();
    assert_eq!(first, second, "page-ins never change outcomes");

    // Each solve faulted the snapshot back in, and the zero cap re-spilled
    // it: one page-in per solve.
    assert_eq!(registry.spills(id), 3); // the open_mapped spill + two re-spills
    assert_eq!(registry.page_ins(id), 2);
    std::fs::remove_file(&path).ok();
}

/// The same counting through the sharded runner: every submission-time
/// page-in is counted while outcomes stay identical to the unspilled
/// registry.
#[test]
fn sharded_runner_mirrors_page_ins_and_preserves_outcomes() {
    let path = temp_csr("shard-spill");
    write_csr(&general_graph(), &path).unwrap();

    let requests = |id: GraphId| -> Vec<SolveRequest> {
        (0..6)
            .map(|i| {
                SolveRequest::for_graph(id)
                    .algorithm(if i % 2 == 0 {
                        Algorithm::Kuw
                    } else {
                        Algorithm::Greedy
                    })
                    .seed(0x51A2 + i)
                    .tenant(TenantId(i % 2))
                    .build()
            })
            .collect()
    };

    let mut unspilled = ResidentRegistry::new();
    let uid = unspilled.register(general_graph());
    let reference = run(&unspilled, &requests(uid));

    let mut registry = ResidentRegistry::with_spill(SpillPolicy::max_bytes(0));
    let id = registry.open_mapped(&path).unwrap();
    let spilled_requests = requests(id);
    let registry = Arc::new(registry);
    let mut runner = ShardedRunner::new(
        Arc::clone(&registry),
        &ServeConfig {
            shards: 2,
            threads_per_shard: Some(1),
            ..ServeConfig::default()
        },
    );
    let prints: Vec<SolveFingerprint> = runner
        .run_stream(spilled_requests)
        .iter()
        .map(|o| o.fingerprint())
        .collect();
    assert_eq!(prints, reference, "spilling must never change outcomes");

    // Every submission faulted the snapshot in.
    assert_eq!(registry.page_ins(id), 6);
    std::fs::remove_file(&path).ok();
}
