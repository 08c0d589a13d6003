//! Deterministic stream semantics of the sharded serving subsystem.
//!
//! The contract under test: a request's outcome is a pure function of
//! `(snapshot, algorithm, seed)`. Shard count, queue depth, scheduling and runner
//! generation may change wall time but never an independent set, trace or
//! cost total — every configuration must agree outcome-for-outcome with the
//! sequential [`BatchRunner::solve`] path, and `collect_ordered` must
//! deliver in submission order regardless of completion order. Runs in both
//! the default and `--no-default-features` configurations (it only touches
//! the flat engine).

use hypergraph_mis::prelude::*;
use hypergraph_mis::serve::{
    affinity_shard, DenyReason, SolveError, SolveFingerprint, SolveOutcome, TenantStats,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Two resident tenants of different shapes plus their ids.
fn registry() -> (Arc<ResidentRegistry>, GraphId, GraphId) {
    let mut registry = ResidentRegistry::new();
    let a = registry.register(generate::paper_regime(&mut rng(11), 240, 60, 10));
    let b = registry.register(generate::d_uniform(&mut rng(12), 150, 300, 3));
    (Arc::new(registry), a, b)
}

/// A deterministic pseudo-random query set against a graph with `n` ids.
fn query(n: usize, size: usize, seed: u64) -> Arc<Vec<u32>> {
    let mut r = rng(0xC0FFEE ^ seed);
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for k in 0..size.min(n) {
        let j = rand::Rng::gen_range(&mut r, k..n);
        ids.swap(k, j);
    }
    ids.truncate(size.min(n));
    ids.sort_unstable();
    Arc::new(ids)
}

/// An interleaved multi-tenant stream exercising every request shape: full
/// solves (resident and ad-hoc) and induced queries, across all six
/// algorithms, against both tenants.
fn mixed_stream(a: GraphId, b: GraphId, count: usize) -> Vec<SolveRequest> {
    let adhoc = Arc::new(generate::mixed_dimension(
        &mut rng(13),
        120,
        150,
        &[2, 3, 4],
    ));
    let linear_graph = Arc::new(generate::linear(&mut rng(14), 120, 80, 3));
    (0..count)
        .map(|i| {
            let seed = 0x5EED_0000 + i as u64;
            let (target, algorithm) = match i % 9 {
                0 => (
                    Target::Induced {
                        graph: a,
                        vertices: query(240, 64, seed),
                    },
                    Algorithm::Bl(BlConfig::default()),
                ),
                1 => (Target::Resident(b), Algorithm::Sbl(SblConfig::default())),
                2 => (
                    Target::Induced {
                        graph: b,
                        vertices: query(150, 40, seed),
                    },
                    Algorithm::Greedy,
                ),
                3 => (Target::Adhoc(Arc::clone(&adhoc)), Algorithm::Kuw),
                4 => (
                    Target::Induced {
                        graph: a,
                        vertices: query(240, 48, seed),
                    },
                    Algorithm::Sbl(SblConfig::default()),
                ),
                5 => (Target::Resident(a), Algorithm::Permutation),
                6 => (Target::Adhoc(Arc::clone(&linear_graph)), Algorithm::Linear),
                7 => (
                    Target::Induced {
                        graph: b,
                        vertices: query(150, 32, seed),
                    },
                    Algorithm::Kuw,
                ),
                _ => (
                    Target::Induced {
                        graph: a,
                        vertices: query(240, 36, seed),
                    },
                    Algorithm::Permutation,
                ),
            };
            // Several interleaved tenants, so every suite exercises the
            // tenant bookkeeping alongside the original semantics.
            SolveRequest::for_target(target)
                .algorithm(algorithm)
                .seed(seed)
                .tenant(TenantId(i as u64 % 5))
                .build()
        })
        .collect()
}

/// The sequential reference: the same requests through a plain
/// [`BatchRunner`] — the single-shard special case, no threads, no queues.
fn sequential(registry: &ResidentRegistry, requests: &[SolveRequest]) -> Vec<SolveFingerprint> {
    let mut runner = BatchRunner::new();
    requests
        .iter()
        .map(|r| runner.solve(registry, r).fingerprint())
        .collect()
}

fn config(shards: usize, queue_depth: usize) -> ServeConfig {
    ServeConfig {
        shards,
        queue_depth,
        threads_per_shard: Some(1),
        ..ServeConfig::default()
    }
}

/// The headline invariance: for every request, the independent set, trace
/// and cost totals are identical across 1/2/4/8 shards and identical to the
/// sequential `BatchRunner` path, and tickets come back in submission order.
#[test]
fn outcomes_are_shard_count_invariant() {
    let (registry, a, b) = registry();
    let requests = mixed_stream(a, b, 36);
    let reference = sequential(&registry, &requests);
    for shards in [1usize, 2, 4, 8] {
        let mut runner = ShardedRunner::new(Arc::clone(&registry), &config(shards, 8));
        let outcomes = runner.run_stream(requests.clone());
        assert_eq!(outcomes.len(), reference.len());
        for (i, out) in outcomes.iter().enumerate() {
            assert_eq!(out.ticket, i as u64, "shards={shards}: delivery order");
            assert!(out.shard < shards);
            assert_eq!(
                out.fingerprint(),
                reference[i],
                "shards={shards}, request {i}: outcome diverged from the sequential path"
            );
        }
    }
}

/// Checks an induced answer against an independently derived sub-instance.
fn verify_induced(registry: &ResidentRegistry, id: GraphId, q: &[u32], set: &[u32]) {
    let snap = registry.latest(id);
    let engine = ActiveHypergraph::from_hypergraph(snap.graph());
    let mut marked = vec![false; engine.id_space()];
    for &v in q {
        marked[v as usize] = true;
    }
    let sub = engine.induced_by(&marked);
    let (hc, map) = sub.compact();
    let cset: Vec<u32> = set
        .iter()
        .map(|&v| map.binary_search(&v).expect("answer outside query set") as u32)
        .collect();
    verify_mis(&hc, &cset).expect("induced answer is not a maximal independent set");
}

/// Interleaved multi-tenant streams: answers are genuine MIS's of the right
/// instance (full solves against their graph, induced answers against an
/// independently derived sub-instance).
#[test]
fn interleaved_multi_tenant_answers_are_valid() {
    let (registry, a, b) = registry();
    let requests = mixed_stream(a, b, 27);
    let mut runner = ShardedRunner::new(Arc::clone(&registry), &config(3, 4));
    let outcomes = runner.run_stream(requests.clone());
    for (req, out) in requests.iter().zip(&outcomes) {
        assert_eq!(out.seed, req.seed());
        match (req.target(), &out.error) {
            (Target::Resident(id), None) => {
                verify_mis(registry.latest(*id).graph(), &out.independent_set).unwrap()
            }
            (Target::Adhoc(h), None) => verify_mis(h, &out.independent_set).unwrap(),
            (Target::Induced { graph, vertices }, None) => {
                verify_induced(&registry, *graph, vertices, &out.independent_set)
            }
            (_, Some(e)) => panic!("unexpected request failure: {e:?}"),
        }
    }
}

/// Backpressure: with queue depth 1 the submitter repeatedly blocks on full
/// shard queues; the stream still completes, in order, with outcomes
/// identical to the sequential path.
#[test]
fn depth_one_queues_backpressure_without_reordering() {
    let (registry, a, b) = registry();
    let requests = mixed_stream(a, b, 24);
    let reference = sequential(&registry, &requests);
    let mut runner = ShardedRunner::new(Arc::clone(&registry), &config(2, 1));
    let outcomes = runner.run_stream(requests);
    let got: Vec<SolveFingerprint> = outcomes.iter().map(SolveOutcome::fingerprint).collect();
    assert_eq!(got, reference);
}

/// Each workspace's [`Workspace::fresh_allocations`], in the order given.
fn fresh_allocations(workspaces: &[Workspace]) -> Vec<u64> {
    workspaces
        .iter()
        .map(Workspace::fresh_allocations)
        .collect()
}

/// Runner generations: shutting a runner down hands every shard's workspace
/// back in shard order; a second runner given them replays the same stream
/// with identical outcomes and **zero** new allocations on every shard —
/// shard `i` rewarms exactly the buffers shard `i` warmed.
#[test]
fn pool_generations_rewarm_shard_locally() {
    let (registry, a, b) = registry();
    let requests = mixed_stream(a, b, 18);
    let cfg = config(3, 8);

    let mut gen1 = ShardedRunner::new(Arc::clone(&registry), &cfg);
    let first = gen1.run_stream(requests.clone());
    let workspaces = gen1.shutdown();
    let warm = fresh_allocations(&workspaces);
    assert_eq!(warm.len(), 3);
    assert!(
        warm.iter().all(|&f| f > 0),
        "generation 1 must have warmed every shard: {warm:?}"
    );

    let mut gen2 = ShardedRunner::with_workspaces(Arc::clone(&registry), &cfg, workspaces);
    let second = gen2.run_stream(requests);
    assert_eq!(
        fresh_allocations(&gen2.shutdown()),
        warm,
        "an identical warm generation must not allocate on any shard"
    );
    for (x, y) in first.iter().zip(&second) {
        assert_eq!(x.fingerprint(), y.fingerprint());
    }
}

/// The shard count may change between generations: a 2-shard runner given
/// three warm workspaces hands the third back untouched after its own two,
/// and a 3-shard generation after it allocates nothing on any shard.
#[test]
fn a_generation_with_fewer_shards_hands_the_rest_back_untouched() {
    let (registry, a, b) = registry();
    let requests = mixed_stream(a, b, 18);

    let mut gen1 = ShardedRunner::new(Arc::clone(&registry), &config(3, 8));
    let first = gen1.run_stream(requests.clone());
    let workspaces = gen1.shutdown();
    let third = format!("{:?}", workspaces[2]);

    let mut gen2 = ShardedRunner::with_workspaces(Arc::clone(&registry), &config(2, 8), workspaces);
    gen2.run_stream(requests.clone());
    let workspaces = gen2.shutdown();
    assert_eq!(workspaces.len(), 3);
    assert_eq!(format!("{:?}", workspaces[2]), third);
    let warm = fresh_allocations(&workspaces);

    let mut gen3 = ShardedRunner::with_workspaces(Arc::clone(&registry), &config(3, 8), workspaces);
    let last = gen3.run_stream(requests);
    assert_eq!(
        fresh_allocations(&gen3.shutdown()),
        warm,
        "the last generation must not allocate on any shard"
    );
    for (x, y) in first.iter().zip(&last) {
        assert_eq!(x.fingerprint(), y.fingerprint());
    }
}

/// Request-level failures are data, not shard panics — and they are
/// deterministic like any other outcome.
#[test]
fn failures_come_back_as_outcomes() {
    let (registry, _a, b) = registry();
    // A second registry with enough tenants that `b`'s *index* would be in
    // range here too: only the GraphId's registry tag can reject it.
    let foreign = {
        let mut f = ResidentRegistry::new();
        f.register(generate::d_uniform(&mut rng(21), 40, 60, 3));
        f.register(generate::d_uniform(&mut rng(22), 40, 60, 3));
        Arc::new(f)
    };

    let mut runner = ShardedRunner::new(Arc::clone(&registry), &config(2, 4));
    // Linear on a non-linear tenant (d-uniform with shared pairs).
    runner.submit(
        SolveRequest::for_graph(b)
            .algorithm(Algorithm::Linear)
            .seed(1)
            .build(),
    );
    // Out-of-range and duplicate induced queries.
    runner.submit(
        SolveRequest::induced(b, vec![1, 2, 100_000])
            .algorithm(Algorithm::Bl(BlConfig::default()))
            .seed(2)
            .build(),
    );
    runner.submit(
        SolveRequest::induced(b, vec![5, 9, 5])
            .algorithm(Algorithm::Greedy)
            .seed(3)
            .build(),
    );
    let outcomes = runner.collect_ordered(3);
    assert!(matches!(outcomes[0].error, Some(SolveError::NotLinear(_))));
    assert!(matches!(
        outcomes[1].error,
        Some(SolveError::InvalidQuery {
            vertex: 100_000,
            duplicate: false
        })
    ));
    assert!(matches!(
        outcomes[2].error,
        Some(SolveError::InvalidQuery {
            vertex: 5,
            duplicate: true
        })
    ));
    for out in &outcomes {
        assert!(out.independent_set.is_empty());
    }
    drop(runner);

    // A foreign GraphId: `b`'s index exists in the foreign registry, but the
    // id's registry tag doesn't match — it must never resolve to another
    // tenant's graph.
    let mut runner = ShardedRunner::new(Arc::clone(&foreign), &config(1, 4));
    runner.submit(
        SolveRequest::for_graph(b)
            .algorithm(Algorithm::Greedy)
            .seed(4)
            .build(),
    );
    let out = runner.collect_ordered(1);
    assert!(matches!(out[0].error, Some(SolveError::UnknownGraph(_))));

    // An invalid query never corrupts shard state: a single shard serves a
    // poison request and then a well-formed one on the *same* workspace
    // (exercising the error-path unwind of the trusted-clean mark buffer on
    // reuse), still matching the sequential path.
    let mut runner = ShardedRunner::new(Arc::clone(&registry), &config(1, 4));
    let req = SolveRequest::induced(b, query(150, 30, 99))
        .algorithm(Algorithm::Bl(BlConfig::default()))
        .seed(5)
        .build();
    // Warm the shard's induced-query scratch, poison it with a duplicate
    // (partial-mark unwind), then solve the real request.
    runner.submit(req.clone());
    runner.submit(
        SolveRequest::induced(b, vec![0, 7, 0])
            .algorithm(Algorithm::Bl(BlConfig::default()))
            .seed(6)
            .build(),
    );
    runner.submit(req.clone());
    let outcomes = runner.collect_ordered(3);
    assert!(matches!(
        outcomes[1].error,
        Some(SolveError::InvalidQuery {
            vertex: 0,
            duplicate: true
        })
    ));
    let mut reference = BatchRunner::new();
    let expected = reference.solve(&registry, &req).fingerprint();
    assert_eq!(outcomes[0].fingerprint(), expected);
    assert_eq!(outcomes[2].fingerprint(), expected);
}

/// Partial collection: interleaved submit/collect phases still deliver
/// strictly ticket-ordered outcomes.
#[test]
fn partial_collects_preserve_submission_order() {
    let (registry, a, b) = registry();
    let requests = mixed_stream(a, b, 15);
    let reference = sequential(&registry, &requests);
    let mut runner = ShardedRunner::new(Arc::clone(&registry), &config(4, 4));
    let mut iter = requests.into_iter();
    for req in iter.by_ref().take(10) {
        runner.submit(req);
    }
    let mut outcomes = runner.collect_ordered(3);
    assert_eq!(runner.outstanding(), 7);
    for req in iter {
        runner.submit(req);
    }
    outcomes.extend(runner.collect_outstanding());
    assert_eq!(runner.outstanding(), 0);
    let got: Vec<SolveFingerprint> = outcomes.iter().map(SolveOutcome::fingerprint).collect();
    assert_eq!(got, reference);
}

/// Asking for more outcomes than are outstanding is a caller bug, reported
/// loudly instead of deadlocking.
#[test]
#[should_panic(expected = "outstanding")]
fn overcollecting_panics_instead_of_deadlocking() {
    let (registry, _a, _b) = registry();
    let mut runner = ShardedRunner::new(registry, &config(1, 2));
    let _ = runner.collect_ordered(1);
}

/// A request that kills the shard running it: the coins' assertion on a
/// NaN SBL sampling probability, which only the wire decoder rejects. One
/// edge of size 24, above any dimension cap, and a tail threshold of 1:
/// SBL samples, and its first coin panics on p = NaN.
fn shard_killer() -> SolveRequest {
    let oversized = Arc::new(hypergraph::builder::hypergraph_from_edges(
        30,
        vec![(0u32..24).collect::<Vec<_>>()],
    ));
    SolveRequest::adhoc(oversized)
        .algorithm(Algorithm::Sbl(SblConfig {
            p: Some(f64::NAN),
            tail_threshold: Some(1),
            ..SblConfig::default()
        }))
        .seed(1)
        .build()
}

/// A dying worker shard must surface as a collector panic naming the
/// shard — even while *other* shards are still alive and keeping the
/// result channel open — never as a hang.
#[test]
#[should_panic(expected = "died")]
fn dead_worker_panics_the_collector_instead_of_hanging() {
    let (registry, _a, _b) = registry();
    let mut runner = ShardedRunner::new(Arc::clone(&registry), &config(2, 4));
    runner.submit(shard_killer());
    let _ = runner.collect_ordered(1);
}

/// After a shard's worker dies, `shutdown` still hands back one workspace
/// per shard in shard order: a fresh one in the dead shard's slot, and the
/// live shards' warm ones in theirs.
#[test]
fn a_dead_shard_hands_back_a_fresh_workspace_in_its_slot() {
    let (registry, a, b) = registry();
    let requests = mixed_stream(a, b, 19);
    let mut reference = ShardedRunner::new(Arc::clone(&registry), &config(3, 8));
    reference.run_stream(requests.clone());
    let warm = fresh_allocations(&reference.shutdown());
    assert!(
        warm[0] != warm[2],
        "shards 0 and 2 must be told apart: {warm:?}"
    );

    let mut runner = ShardedRunner::new(Arc::clone(&registry), &config(3, 8));
    runner.run_stream(requests);
    // Ticket 19 goes round-robin to shard 1, which dies solving it.
    runner.submit(shard_killer());
    let collect =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.collect_ordered(1)));
    assert!(collect.is_err(), "the collector must report the dead shard");
    assert_eq!(
        fresh_allocations(&runner.shutdown()),
        vec![warm[0], 0, warm[2]]
    );
}

/// The PR-5 headline pin: per-request outcomes are byte-identical across
/// `RoundRobin`/`TenantAffinity`/`LeastQueued` × 1/2/4/8 shards × ordered/
/// streaming collection, all against the sequential `BatchRunner` path.
/// Streaming may permute delivery, never a payload.
#[test]
fn outcomes_invariant_across_policies_shards_and_collection_modes() {
    let (registry, a, b) = registry();
    let requests = mixed_stream(a, b, 18);
    let reference = sequential(&registry, &requests);
    for policy in [
        RoutePolicy::RoundRobin,
        RoutePolicy::TenantAffinity,
        RoutePolicy::LeastQueued,
    ] {
        for shards in [1usize, 2, 4, 8] {
            for streaming in [false, true] {
                let mut cfg = config(shards, 8);
                cfg.route = policy;
                let mut runner = ShardedRunner::new(Arc::clone(&registry), &cfg);
                for r in requests.iter().cloned() {
                    runner.submit(r);
                }
                let mut outcomes: Vec<SolveOutcome> = if streaming {
                    runner.collect_streaming(requests.len()).collect()
                } else {
                    runner.collect_ordered(requests.len())
                };
                outcomes.sort_by_key(|o| o.ticket);
                assert_eq!(outcomes.len(), reference.len());
                for (i, out) in outcomes.iter().enumerate() {
                    assert_eq!(
                        out.ticket, i as u64,
                        "{policy:?} shards={shards} streaming={streaming}: ticket set"
                    );
                    assert!(out.shard < shards);
                    assert_eq!(
                        out.fingerprint(),
                        reference[i],
                        "{policy:?} shards={shards} streaming={streaming}, request {i}: \
                         outcome diverged from the sequential path"
                    );
                }
            }
        }
    }
}

/// Streaming and ordered collection interoperate on one runner: an ordered
/// collect after a partial streaming collect delivers exactly the
/// not-yet-streamed tickets, in ticket order, with unchanged payloads.
#[test]
fn streaming_interoperates_with_ordered_collection() {
    let (registry, a, b) = registry();
    let requests = mixed_stream(a, b, 15);
    let reference = sequential(&registry, &requests);
    let mut runner = ShardedRunner::new(Arc::clone(&registry), &config(3, 8));
    for r in requests {
        runner.submit(r);
    }
    let streamed: Vec<SolveOutcome> = runner.collect_streaming(6).collect();
    assert_eq!(streamed.len(), 6);
    assert_eq!(runner.outstanding(), 9);
    let streamed_tickets: BTreeSet<u64> = streamed.iter().map(|o| o.ticket).collect();
    assert_eq!(
        streamed_tickets.len(),
        6,
        "streaming never duplicates a ticket"
    );

    let rest = runner.collect_outstanding();
    assert_eq!(runner.outstanding(), 0);
    let rest_tickets: Vec<u64> = rest.iter().map(|o| o.ticket).collect();
    let mut sorted = rest_tickets.clone();
    sorted.sort_unstable();
    assert_eq!(
        rest_tickets, sorted,
        "ordered collection stays ticket-ordered"
    );
    assert!(rest_tickets.iter().all(|t| !streamed_tickets.contains(t)));

    let mut all: Vec<&SolveOutcome> = streamed.iter().chain(&rest).collect();
    all.sort_by_key(|o| o.ticket);
    assert_eq!(all.len(), 15);
    for (i, out) in all.iter().enumerate() {
        assert_eq!(out.ticket, i as u64);
        assert_eq!(out.fingerprint(), reference[i]);
    }
}

/// Admission control: token-bucket denials are outcomes (never panics, never
/// dropped tickets), deterministic on replay, refilled on logical time; the
/// in-flight cap frees as outcomes are collected. `ServeStats` accounts for
/// every decision.
#[test]
fn admission_denials_are_data_and_deterministic() {
    let (registry, _a, b) = registry();
    // Tenant 0: bucket of 2, one token back every 4 submissions. Tenant 1
    // is unquoted (admit everything).
    let mut cfg = config(2, 8);
    cfg.admission = AdmissionConfig {
        default_quota: None,
        per_tenant: vec![(
            TenantId(0),
            TenantQuota {
                burst: 2,
                refill_every: 4,
                max_in_flight: None,
            },
        )],
    };
    let run = |cfg: &ServeConfig| {
        let mut runner = ShardedRunner::new(Arc::clone(&registry), cfg);
        for i in 0..12u64 {
            runner.submit(
                SolveRequest::induced(b, query(150, 20, i))
                    .algorithm(Algorithm::Greedy)
                    .seed(i)
                    .tenant(TenantId(i % 2))
                    .build(),
            );
        }
        let outs = runner.collect_ordered(12);
        let stats = runner.stats();
        (outs, stats)
    };
    let (outs, stats) = run(&cfg);

    // Tenant 0 submits at tickets 0,2,4,..: tokens 2 up front, +1 at ticket
    // 4 and 8 — so exactly tickets 6 and 10 are over quota.
    for (i, out) in outs.iter().enumerate() {
        let expect_denied = i == 6 || i == 10;
        assert_eq!(out.ticket, i as u64);
        if expect_denied {
            assert_eq!(
                out.error,
                Some(SolveError::AdmissionDenied {
                    tenant: TenantId(0),
                    reason: DenyReason::QuotaExhausted,
                }),
                "ticket {i} should be over quota"
            );
            assert!(out.independent_set.is_empty());
        } else {
            assert!(out.error.is_none(), "ticket {i} unexpectedly failed");
            verify_induced(
                &registry,
                b,
                &query(150, 20, i as u64),
                &out.independent_set,
            );
        }
    }
    assert_eq!(stats.submitted, 12);
    assert_eq!(stats.admitted, 10);
    assert_eq!(stats.denied, 2);
    assert_eq!(stats.delivered, 12);
    let t0 = &stats.per_tenant[0];
    assert_eq!(
        (
            t0.tenant,
            t0.submitted,
            t0.admitted,
            t0.denied_quota,
            t0.denied_in_flight,
            t0.delivered
        ),
        (TenantId(0), 6, 4, 2, 0, 6)
    );
    let t1 = &stats.per_tenant[1];
    assert_eq!((t1.submitted, t1.admitted, t1.denied()), (6, 6, 0));

    // Replay determinism: an identical submit/collect sequence makes
    // identical admission decisions and identical outcomes.
    let (outs2, stats2) = run(&cfg);
    assert_eq!(outs.len(), outs2.len());
    for (x, y) in outs.iter().zip(&outs2) {
        assert_eq!(x.fingerprint(), y.fingerprint());
    }
    assert_eq!(stats.per_tenant, stats2.per_tenant);

    // In-flight cap: capacity frees only as outcomes are delivered.
    let mut cfg = config(1, 4);
    cfg.admission = AdmissionConfig {
        default_quota: Some(TenantQuota {
            burst: u64::MAX,
            refill_every: 0,
            max_in_flight: Some(1),
        }),
        per_tenant: Vec::new(),
    };
    let mut runner = ShardedRunner::new(Arc::clone(&registry), &cfg);
    let req = |seed: u64| {
        SolveRequest::for_graph(b)
            .algorithm(Algorithm::Permutation)
            .seed(seed)
            .tenant(TenantId(9))
            .build()
    };
    runner.submit(req(1));
    runner.submit(req(2)); // over the cap while ticket 0 is in flight
    let outs = runner.collect_ordered(2);
    assert!(outs[0].error.is_none());
    assert_eq!(
        outs[1].error,
        Some(SolveError::AdmissionDenied {
            tenant: TenantId(9),
            reason: DenyReason::InFlightCap,
        })
    );
    runner.submit(req(3)); // delivered outcomes freed the cap
    let outs = runner.collect_ordered(1);
    assert!(outs[0].error.is_none());
    let stats = runner.stats();
    assert_eq!(stats.per_tenant[0].denied_in_flight, 1);
    assert_eq!(stats.per_tenant[0].admitted, 2);
}

/// Token-bucket refill arithmetic must survive quotas with `refill_every`
/// near `u64::MAX`: the refill step multiplies `add * refill_every` onto
/// `last_refill_at`, which saturates instead of wrapping (a wrap would jump
/// `last_refill_at` backwards and mint tokens out of thin air). The denial
/// pattern stays sane: `burst` admissions, then every submission denied —
/// a refill period that long never elapses on the logical clock.
#[test]
fn token_refill_survives_refill_periods_near_u64_max() {
    let (registry, _a, b) = registry();
    for refill_every in [u64::MAX, u64::MAX - 1, u64::MAX / 2] {
        let mut cfg = config(1, 8);
        cfg.admission = AdmissionConfig {
            default_quota: Some(TenantQuota {
                burst: 1,
                refill_every,
                max_in_flight: None,
            }),
            per_tenant: Vec::new(),
        };
        let mut runner = ShardedRunner::new(Arc::clone(&registry), &cfg);
        for i in 0..8u64 {
            runner.submit(
                SolveRequest::for_graph(b)
                    .algorithm(Algorithm::Greedy)
                    .seed(i)
                    .tenant(TenantId(0))
                    .build(),
            );
        }
        let outs = runner.collect_ordered(8);
        assert!(
            outs[0].error.is_none(),
            "refill_every={refill_every}: the burst token admits the first request"
        );
        for out in &outs[1..] {
            assert_eq!(
                out.error,
                Some(SolveError::AdmissionDenied {
                    tenant: TenantId(0),
                    reason: DenyReason::QuotaExhausted,
                }),
                "refill_every={refill_every}: the bucket must never refill on this horizon"
            );
        }
    }
}

/// Tenant affinity pins every tenant to its stable hash shard, and the
/// runner's per-tenant stats make the win observable: each tenant warms one
/// shard under affinity, where round-robin scatters it across every shard.
#[test]
fn tenant_affinity_pins_tenants_and_rewarms_shard_locally() {
    let (registry, a, b) = registry();
    let requests = mixed_stream(a, b, 30); // tenants 0..5, 6 requests each
    let mut cfg = config(4, 8);
    cfg.route = RoutePolicy::TenantAffinity;
    let mut runner = ShardedRunner::new(Arc::clone(&registry), &cfg);
    let outs = runner.run_stream(requests.clone());
    for out in &outs {
        assert_eq!(
            out.shard,
            affinity_shard(out.tenant, 4),
            "tenant {:?} strayed from its home shard",
            out.tenant
        );
    }
    let stats = runner.stats();
    assert_eq!(stats.policy, RoutePolicy::TenantAffinity);
    assert_eq!(stats.per_tenant.len(), 5);
    for t in &stats.per_tenant {
        assert_eq!(
            t.shards,
            vec![affinity_shard(t.tenant, 4)],
            "tenant {:?} routed to more than one shard",
            t.tenant
        );
        assert_eq!(
            t.admitted, 6,
            "tenant {:?}: all six on its home shard",
            t.tenant
        );
    }

    // Round-robin scatters the same stream: tenant i (tickets i, i+5, ...)
    // lands on all 4 shards.
    let mut runner = ShardedRunner::new(Arc::clone(&registry), &config(4, 8));
    let _ = runner.run_stream(requests);
    let stats = runner.stats();
    assert_eq!(stats.per_tenant.len(), 5);
    for t in &stats.per_tenant {
        assert_eq!(
            t.shards,
            vec![0, 1, 2, 3],
            "tenant {:?}: round-robin",
            t.tenant
        );
    }
}

/// Strategy for the tenant-stream properties: a stream of (tenant, shape,
/// seed) triples plus a shard count, over cheap request shapes.
fn tenant_stream() -> impl Strategy<Value = (Vec<(u64, u8, u64)>, usize)> {
    (
        prop::collection::vec((0u64..4, 0u8..4, any::<u64>()), 1..25),
        1usize..=5,
    )
}

/// Materializes a stream spec against the shared two-tenant registry.
fn materialize(
    registry: &(Arc<ResidentRegistry>, GraphId, GraphId),
    spec: &[(u64, u8, u64)],
) -> Vec<SolveRequest> {
    let (_, a, b) = registry;
    spec.iter()
        .map(|&(tenant, shape, seed)| {
            let (target, algorithm) = match shape % 4 {
                0 => (Target::Resident(*b), Algorithm::Greedy),
                1 => (
                    Target::Induced {
                        graph: *b,
                        vertices: query(150, 24, seed),
                    },
                    Algorithm::Kuw,
                ),
                2 => (Target::Resident(*a), Algorithm::Permutation),
                _ => (
                    Target::Induced {
                        graph: *a,
                        vertices: query(240, 32, seed),
                    },
                    Algorithm::Bl(BlConfig::default()),
                ),
            };
            SolveRequest::for_target(target)
                .algorithm(algorithm)
                .seed(seed)
                .tenant(TenantId(tenant))
                .build()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// (a) `TenantAffinity` maps each tenant of a random tenant-tagged
    /// stream to exactly one shard — its stable hash shard.
    #[test]
    fn prop_affinity_maps_each_tenant_to_one_shard((spec, shards) in tenant_stream()) {
        let reg = registry();
        let requests = materialize(&reg, &spec);
        let mut cfg = config(shards, 8);
        cfg.route = RoutePolicy::TenantAffinity;
        let mut runner = ShardedRunner::new(Arc::clone(&reg.0), &cfg);
        let outs = runner.run_stream(requests);
        for out in &outs {
            prop_assert_eq!(out.shard, affinity_shard(out.tenant, shards));
        }
        for t in &runner.stats().per_tenant {
            prop_assert!(t.shards.len() <= 1);
        }
    }

    /// (b) Admission decisions are replay-deterministic: the same stream
    /// through the same quota config twice yields identical per-ticket
    /// admission decisions and outcomes.
    #[test]
    fn prop_admission_is_replay_deterministic(
        (spec, shards) in tenant_stream(),
        burst in 0u64..4,
        refill in 0u64..5,
        cap in 0u64..3,
        affinity in 0u8..2,
    ) {
        let reg = registry();
        let requests = materialize(&reg, &spec);
        let mut cfg = config(shards, 8);
        cfg.route = if affinity == 1 {
            RoutePolicy::TenantAffinity
        } else {
            RoutePolicy::RoundRobin
        };
        cfg.admission = AdmissionConfig {
            default_quota: Some(TenantQuota {
                burst,
                refill_every: refill,
                max_in_flight: if cap == 0 { None } else { Some(cap) },
            }),
            // Tenant 3 stays unquoted for contrast.
            per_tenant: vec![(TenantId(3), TenantQuota::unlimited())],
        };
        let mut first: Option<(Vec<SolveFingerprint>, Vec<TenantStats>)> = None;
        for _ in 0..2 {
            let mut runner = ShardedRunner::new(Arc::clone(&reg.0), &cfg);
            let outs = runner.run_stream(requests.clone());
            let fps: Vec<SolveFingerprint> = outs.iter().map(SolveOutcome::fingerprint).collect();
            let tenants = runner.stats().per_tenant;
            // Unquoted tenant is never denied.
            for t in &tenants {
                if t.tenant == TenantId(3) {
                    prop_assert_eq!(t.denied(), 0);
                }
            }
            match &first {
                None => first = Some((fps, tenants)),
                Some((f, s)) => {
                    prop_assert_eq!(f, &fps);
                    prop_assert_eq!(s, &tenants);
                }
            }
        }
    }

    /// (d) Streaming under **mutation**: with registry mutations interleaved
    /// at arbitrary submit positions, `collect_streaming` still yields a
    /// payload-identical permutation of `collect_ordered` — run against
    /// identically constructed registries mutated at identical stream
    /// positions (submit-time pinning makes the epoch assignment a pure
    /// function of the call sequence, so both runs see the same epochs).
    #[test]
    fn prop_streaming_with_mutations_matches_ordered(
        (spec, shards) in tenant_stream(),
        mut_positions in prop::collection::btree_set(0usize..25, 0..3),
    ) {
        let run = |streaming: bool| -> Vec<(u64, SolveFingerprint)> {
            let reg = registry();
            let requests = materialize(&reg, &spec);
            let n = requests.len();
            let mut runner = ShardedRunner::new(Arc::clone(&reg.0), &config(shards, 8));
            for (i, r) in requests.into_iter().enumerate() {
                if mut_positions.contains(&i) {
                    // A structural change that is valid at every epoch: two
                    // fresh vertices joined by a fresh edge.
                    let base = reg.0.latest(reg.1).graph().n_vertices() as u32;
                    reg.0
                        .apply(reg.1, &[
                            GraphEdit::GrowVertices(2),
                            GraphEdit::AddEdge(vec![base, base + 1]),
                        ])
                        .expect("valid mid-stream edit");
                }
                runner.submit(r);
            }
            let mut outs: Vec<SolveOutcome> = if streaming {
                runner.collect_streaming(n).collect()
            } else {
                runner.collect_ordered(n)
            };
            outs.sort_by_key(|o| o.ticket);
            outs.iter().map(|o| (o.ticket, o.fingerprint())).collect()
        };
        let ordered = run(false);
        let streamed = run(true);
        prop_assert_eq!(ordered, streamed);
    }

    /// (c) `collect_streaming` yields a permutation of `collect_ordered`
    /// with identical per-ticket outcomes, for arbitrary tenant streams and
    /// shard counts.
    #[test]
    fn prop_streaming_is_a_permutation_of_ordered((spec, shards) in tenant_stream()) {
        let reg = registry();
        let requests = materialize(&reg, &spec);
        let n = requests.len();

        let mut ordered_runner = ShardedRunner::new(Arc::clone(&reg.0), &config(shards, 8));
        let ordered = ordered_runner.run_stream(requests.clone());

        let mut streaming_runner = ShardedRunner::new(Arc::clone(&reg.0), &config(shards, 8));
        for r in requests {
            streaming_runner.submit(r);
        }
        let mut streamed: Vec<SolveOutcome> = streaming_runner.collect_streaming(n).collect();
        streamed.sort_by_key(|o| o.ticket);
        prop_assert_eq!(streamed.len(), ordered.len());
        for (s, o) in streamed.iter().zip(&ordered) {
            prop_assert_eq!(s.ticket, o.ticket);
            prop_assert_eq!(s.fingerprint(), o.fingerprint());
        }
    }
}

/// The twelve empty-instance outcomes — each algorithm on a 0-vertex ad-hoc
/// graph and on an empty induced query — are pinned whole: no vertex, no
/// work, no depth, and the rounds each algorithm charges. Greedy and
/// permutation charge their one round even when there is nothing to scan,
/// on the full and the induced path alike.
#[test]
fn empty_instances_have_pinned_outcomes() {
    use hypergraph_mis::mis_core::trace::SblRoundStats;
    use hypergraph_mis::serve::SolveTrace;

    let mut registry = ResidentRegistry::new();
    let id = registry.register(generate::d_uniform(&mut rng(3), 40, 60, 3));
    let registry = Arc::new(registry);
    let empty = Arc::new(hypergraph::builder::hypergraph_from_edges::<Vec<u32>>(
        0,
        vec![],
    ));
    let sbl_trace = SolveTrace::Sbl(SblTrace {
        rounds: vec![SblRoundStats {
            round: 0,
            n_alive: 0,
            m: 0,
            p: 1.0,
            sampled: 0,
            sample_dimension: 0,
            dimension_failures: 0,
            sample_edges: 0,
            added: 0,
            rejected: 0,
            edges_discarded: 0,
            bl_stages: 0,
        }],
        tail: TailAlgorithm::None,
        tail_vertices: 0,
        direct_bl: true,
    });
    // (algorithm, trace, rounds ad hoc, rounds induced)
    let table = [
        (Algorithm::Sbl(SblConfig::default()), sbl_trace, 0, 0),
        (
            Algorithm::Bl(BlConfig::default()),
            SolveTrace::Bl(BlTrace::default()),
            0,
            0,
        ),
        (Algorithm::Kuw, SolveTrace::Kuw(KuwTrace::default()), 0, 0),
        (Algorithm::Greedy, SolveTrace::Greedy, 1, 1),
        (
            Algorithm::Permutation,
            SolveTrace::Permutation(vec![]),
            1,
            1,
        ),
        (
            Algorithm::Linear,
            SolveTrace::Linear(BlTrace::default()),
            0,
            0,
        ),
    ];
    let mut runner = BatchRunner::new();
    for (algorithm, trace, adhoc_rounds, induced_rounds) in table {
        let adhoc = SolveRequest::adhoc(Arc::clone(&empty))
            .algorithm(algorithm.clone())
            .seed(5)
            .build();
        let induced = SolveRequest::induced(id, Vec::new())
            .algorithm(algorithm.clone())
            .seed(5)
            .build();
        let expected = |epoch, rounds| (5, epoch, vec![], 0, 0, rounds, trace.clone(), None);
        assert_eq!(
            runner.solve(&registry, &adhoc).fingerprint(),
            expected(None, adhoc_rounds),
            "{algorithm:?} ad hoc"
        );
        assert_eq!(
            runner.solve(&registry, &induced).fingerprint(),
            expected(Some(Epoch(0)), induced_rounds),
            "{algorithm:?} induced"
        );
    }
}

/// A graph holding one edge of `wide` vertices (plus two small edges and an
/// isolated vertex), so its dimension is `wide`.
fn one_wide_edge(wide: u32) -> Hypergraph {
    hypergraph::builder::hypergraph_from_edges(
        wide as usize + 4,
        vec![
            (0..wide).collect::<Vec<u32>>(),
            vec![wide - 1, wide],
            vec![wide + 1, wide + 2],
        ],
    )
}

/// BL above its enumerable dimension (20) is answered with
/// `DimensionTooLarge` before BL runs — on ad-hoc, resident and induced
/// targets — instead of tripping BL's assertion on the shard. A query
/// that leaves the wide edge out is solved as before, and the runner
/// answers the next request exactly as a fresh one does.
#[test]
fn bl_above_the_enumerable_dimension_is_an_outcome() {
    let h = Arc::new(one_wide_edge(21));
    let mut registry = ResidentRegistry::new();
    let id = registry.register((*h).clone());
    let bl = || Algorithm::Bl(BlConfig::default());
    let too_large = Some(SolveError::DimensionTooLarge {
        dimension: 21,
        max: 20,
    });
    let mut runner = BatchRunner::new();
    for request in [
        SolveRequest::adhoc(Arc::clone(&h)),
        SolveRequest::for_graph(id),
        SolveRequest::induced(id, (0..24).rev().collect::<Vec<u32>>()),
    ] {
        let out = runner.solve(&registry, &request.algorithm(bl()).seed(3).build());
        assert_eq!(out.error, too_large);
        assert!(out.independent_set.is_empty());
        assert_eq!(out.error.as_ref().map(SolveError::code), Some(209));
    }
    let narrow = SolveRequest::induced(id, (1..24).collect::<Vec<u32>>())
        .algorithm(bl())
        .seed(4)
        .build();
    let out = runner.solve(&registry, &narrow);
    assert_eq!(out.error, None);
    verify_induced(
        &registry,
        id,
        &(1..24).collect::<Vec<u32>>(),
        &out.independent_set,
    );
    assert_eq!(
        out.fingerprint(),
        BatchRunner::new().solve(&registry, &narrow).fingerprint()
    );
}

/// SBL with `p = 1` on a graph whose 25-vertex edge keeps every sample
/// above dimension 20 finishes through its tail on the serving path, for
/// full and induced targets, instead of resampling forever. Each solve
/// runs on a thread of its own under a deadline, so a hang fails the test.
#[test]
fn sbl_with_no_admissible_sample_finishes_through_its_tail() {
    let h = one_wide_edge(25);
    let n = h.n_vertices() as u32;
    let mut registry = ResidentRegistry::new();
    let id = registry.register(h.clone());
    let registry = Arc::new(registry);
    let sbl = Algorithm::Sbl(SblConfig {
        p: Some(1.0),
        tail_threshold: Some(1),
        ..SblConfig::default()
    });
    for request in [
        SolveRequest::adhoc(Arc::new(h.clone())),
        SolveRequest::for_graph(id),
        SolveRequest::induced(id, (0..n).collect::<Vec<u32>>()),
    ] {
        let request = request.algorithm(sbl.clone()).seed(9).build();
        let registry = Arc::clone(&registry);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            tx.send(BatchRunner::new().solve(&registry, &request))
                .expect("the test waits")
        });
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the solve failed or missed its deadline");
        worker.join().expect("solve thread");
        assert_eq!(out.error, None);
        assert_eq!(verify_mis(&h, &out.independent_set), Ok(()));
    }
}
