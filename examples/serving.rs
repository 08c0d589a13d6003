//! Tenant-aware serving: affinity routing, per-tenant admission control and
//! streaming collection across 4 worker shards.
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! The scenario: a server keeps two tenants resident — a task-conflict
//! hypergraph ("jobs") and a register-interference hypergraph ("registers")
//! — and answers an interleaved request stream: full solves, plus induced
//! queries ("which of *these* jobs can run together?") answered against the
//! resident graphs without rebuilding them. Each tenant is pinned to a home
//! shard by `RoutePolicy::TenantAffinity`, so its queries rewarm the same
//! shard-local parked engines; a third "free-tier" tenant runs under a
//! token-bucket quota and sees its over-quota requests come back as
//! `AdmissionDenied` *outcomes*, not errors. Mid-stream, a **live mutation**
//! lands on the jobs tenant (a new job with fresh conflicts): requests
//! already submitted stay pinned to epoch 0 and later ones run against
//! epoch 1 — the epoch-versioned registry publishes the new snapshot
//! copy-on-write, with no re-registering and no stalled queries. The first
//! responses are streamed out as they complete; the rest are collected in
//! submission order. Every admitted outcome is reproducible from its
//! `(snapshot, algorithm, seed)` alone — including pinned replays of
//! pre-mutation outcomes after the graph has moved on.
//!
//! The session ends with the **durability lifecycle**: `persist` writes the
//! jobs tenant's `(snapshot₀, edit log)` as a checksummed WAL, `compact`
//! truncates the live history (pins below the new floor answer
//! `EpochEvicted` as outcome data carrying the retention floor),
//! and `restore` rebuilds the full pre-compaction history in a fresh
//! registry — the epoch-0 answer reproduces bit-for-bit across the process
//! boundary. Persist before compact: the WAL is what keeps truncated
//! history recoverable. Finally the **mapped tier**: `persist_snapshot`
//! checkpoints the compacted head as a checksummed CSR snapshot and
//! `open_mapped` serves it zero-copy from a read-only file mapping — the
//! post-mutation answer reproduces from the file without parsing or
//! rebuilding anything. The last word goes over the wire: a `MISP 1`
//! loopback `Server` answers the same solve out of process, and the reply
//! frame is fingerprint-identical to the in-process answer.

use hypergraph_mis::prelude::*;
use hypergraph_mis::serve::{affinity_shard, SolveError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const JOBS: TenantId = TenantId(0);
const REGISTERS: TenantId = TenantId(1);
const FREE_TIER: TenantId = TenantId(2);

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(2014);

    // --- Tenants: registered once, resident for the whole session. ---
    let mut registry = ResidentRegistry::new();
    let jobs = registry.register(generate::paper_regime(&mut rng, 2_000, 400, 12));
    let registers = registry.register(generate::d_uniform(&mut rng, 1_200, 2_400, 3));
    let registry = Arc::new(registry);
    println!(
        "tenants: jobs ({} vertices, {} conflicts), registers ({} vertices, {} clashes)",
        registry.latest(jobs).graph().n_vertices(),
        registry.latest(jobs).graph().n_edges(),
        registry.latest(registers).graph().n_vertices(),
        registry.latest(registers).graph().n_edges(),
    );

    // --- The serving layer: 4 shards, affinity routing, a free-tier quota. ---
    let config = ServeConfig {
        shards: 4,
        queue_depth: 16,
        threads_per_shard: Some(1),
        route: RoutePolicy::TenantAffinity,
        admission: AdmissionConfig {
            default_quota: None, // paying tenants are unquoted
            per_tenant: vec![(
                FREE_TIER,
                TenantQuota {
                    burst: 3,
                    refill_every: 8, // one token back per 8 submissions
                    max_in_flight: None,
                },
            )],
        },
    };
    for (name, tenant) in [
        ("jobs", JOBS),
        ("registers", REGISTERS),
        ("free", FREE_TIER),
    ] {
        println!(
            "  {name:>9} tenant → home shard {}",
            affinity_shard(tenant, 4)
        );
    }
    let mut server = ShardedRunner::new(Arc::clone(&registry), &config);

    // --- An interleaved request stream: all three tenants. ---
    let mut labels: Vec<&str> = Vec::new();
    for batch in 0..6u64 {
        // A full SBL solve of the jobs tenant under a fresh seed.
        server.submit(
            SolveRequest::for_graph(jobs)
                .algorithm(Algorithm::Sbl(SblConfig::default()))
                .seed(100 + batch)
                .tenant(JOBS)
                .build(),
        );
        labels.push("jobs/full sbl");

        // "Can this subset of jobs run together?" — induced BL query.
        let subset: Vec<u32> = (0..2_000u32)
            .filter(|v| (v * 7 + batch as u32).is_multiple_of(13))
            .collect();
        server.submit(
            SolveRequest::induced(jobs, subset)
                .algorithm(Algorithm::Bl(BlConfig::default()))
                .seed(200 + batch)
                .tenant(JOBS)
                .build(),
        );
        labels.push("jobs/induced bl");

        // A greedy sweep over a window of the registers tenant.
        let window: Vec<u32> = (batch as u32 * 150..batch as u32 * 150 + 300).collect();
        server.submit(
            SolveRequest::induced(registers, window)
                .algorithm(Algorithm::Greedy)
                .seed(300 + batch)
                .tenant(REGISTERS)
                .build(),
        );
        labels.push("registers/induced greedy");

        // The free tier hammers the server: one query per batch, but only a
        // bucket of 3 (+1 per 8 submissions) is admitted.
        server.submit(
            SolveRequest::induced(registers, (0..64 + batch as u32).collect::<Vec<_>>())
                .algorithm(Algorithm::Kuw)
                .seed(400 + batch)
                .tenant(FREE_TIER)
                .build(),
        );
        labels.push("free/induced kuw");
    }

    // --- A live mutation, mid-stream: a new job arrives, conflicting with
    // two existing ones. The 24 in-flight requests were pinned to epoch 0 at
    // submission, so the bump can never retarget them; requests submitted
    // *after* it run against epoch 1. No re-registering, no rebuild for the
    // pinned queries — the registry publishes the next snapshot
    // copy-on-write. ---
    let new_job = registry.latest(jobs).graph().n_vertices() as u32;
    let bumped = registry
        .apply(
            jobs,
            &[
                GraphEdit::GrowVertices(1),
                GraphEdit::AddEdge(vec![new_job, 17, 42]),
            ],
        )
        .expect("valid live edit");
    println!(
        "\nlive mutation: job {new_job} registered with conflicts {{17, 42}} → jobs tenant now \
         at epoch {} ({} vertices, {} conflicts); 24 in-flight requests stay pinned to epoch 0",
        bumped.0,
        registry.latest(jobs).graph().n_vertices(),
        registry.latest(jobs).graph().n_edges(),
    );
    server.submit(
        SolveRequest::for_graph(jobs)
            .algorithm(Algorithm::Sbl(SblConfig::default()))
            .seed(100) // same seed as ticket 0 — but a different snapshot now
            .tenant(JOBS)
            .build(),
    );
    labels.push("jobs/full sbl @e1");
    server.submit(
        SolveRequest::induced(jobs, vec![new_job, 17, 42, 99])
            .algorithm(Algorithm::Bl(BlConfig::default()))
            .seed(201)
            .tenant(JOBS)
            .build(),
    );
    labels.push("jobs/induced bl @e1");

    // --- Streaming collection: the first 8 outcomes as they complete
    // (out of ticket order; admission denials complete instantly). ---
    println!("\nstreaming the first 8 completions (arrival order):");
    let mut collected: Vec<SolveOutcome> = Vec::new();
    for out in server.collect_streaming(8) {
        let verdict = match &out.error {
            Some(SolveError::AdmissionDenied { reason, .. }) => format!("DENIED ({reason:?})"),
            Some(e) => format!("failed ({e:?})"),
            None => format!("|MIS| = {}", out.independent_set.len()),
        };
        println!(
            "  ticket {:>2} ({:<24}) on shard {}: {}",
            out.ticket, labels[out.ticket as usize], out.shard, verdict
        );
        collected.push(out);
    }

    // --- Ordered collection for the rest: submission order, whatever the
    // shard scheduling did. ---
    let rest = server.collect_outstanding();
    println!(
        "\n{:<26} {:>6} {:>5} {:>8} {:>10} {:>6}",
        "request (ordered tail)", "ticket", "shard", "|MIS|", "work", "rounds"
    );
    for out in &rest {
        println!(
            "{:<26} {:>6} {:>5} {:>8} {:>10} {:>6}",
            labels[out.ticket as usize],
            out.ticket,
            out.shard,
            out.independent_set.len(),
            out.work,
            out.rounds,
        );
    }
    collected.extend(rest);
    collected.sort_by_key(|o| o.ticket);

    // Full solves are verifiable directly against the resident graph;
    // admitted requests never fail, denied ones are data.
    let mut denied = 0;
    for (out, label) in collected.iter().zip(&labels) {
        // Epoch pinning: everything submitted before the live mutation ran
        // against epoch 0, everything after against epoch 1 — regardless of
        // when each shard got to it.
        if out.error.is_none() {
            let expected = if out.ticket < 24 { Epoch(0) } else { Epoch(1) };
            assert_eq!(out.epoch, Some(expected), "{label}: wrong epoch");
        }
        match &out.error {
            None => {
                assert_eq!(
                    out.shard,
                    affinity_shard(out.tenant, 4),
                    "affinity violated"
                );
                if label.contains("full") {
                    let snap = registry
                        .snapshot_at(jobs, out.epoch.expect("resident solves carry their epoch"))
                        .expect("every epoch's snapshot stays addressable");
                    verify_mis(snap.graph(), &out.independent_set)
                        .expect("served answer is not a maximal independent set");
                }
            }
            Some(SolveError::AdmissionDenied { tenant, .. }) => {
                assert_eq!(*tenant, FREE_TIER);
                denied += 1;
            }
            Some(e) => panic!("{label} failed: {e:?}"),
        }
    }

    // --- Accounting: per-tenant admission and per-shard routing. ---
    let stats = server.stats();
    println!("\nper-tenant accounting ({}):", stats.policy.name());
    for t in &stats.per_tenant {
        println!(
            "  tenant {:?}: {} submitted, {} admitted, {} denied, home shards {:?}",
            t.tenant.0,
            t.submitted,
            t.admitted,
            t.denied(),
            t.shards
        );
        // Affinity as the stats see it: each tenant warmed its home shard
        // and no other.
        assert_eq!(
            t.shards,
            vec![affinity_shard(t.tenant, 4)],
            "affinity keeps every tenant on one warm shard"
        );
    }
    assert_eq!(denied as u64, stats.denied);

    // Determinism: replaying a request's (snapshot, algorithm, seed) on a
    // cold sequential runner reproduces the served answer bit-for-bit. The
    // registry has moved on to epoch 1, so the replay *pins* epoch 0 — old
    // epochs stay answerable as long as their snapshots are retained.
    let replay = BatchRunner::new().solve(
        &registry,
        &SolveRequest::for_graph(jobs)
            .algorithm(Algorithm::Sbl(SblConfig::default()))
            .seed(100)
            .pin(EpochPin::At(Epoch(0)))
            .tenant(JOBS)
            .build(),
    );
    assert_eq!(replay.fingerprint(), collected[0].fingerprint());
    println!(
        "\nreplayed ticket 0 sequentially, pinned at epoch 0: identical outcome \
         (determinism contract holds across the mutation)"
    );
    // Same seed, different snapshot: ticket 24 answered epoch 1, so its
    // fingerprint legitimately differs from ticket 0's.
    assert_ne!(collected[24].fingerprint(), collected[0].fingerprint());

    let workspaces = server.shutdown();
    println!(
        "shutdown: {} shard workspaces handed back, {} fresh allocations across the session",
        workspaces.len(),
        workspaces
            .iter()
            .map(Workspace::fresh_allocations)
            .sum::<u64>()
    );

    // --- The durability lifecycle: persist → compact → restore. The edit
    // history *is* a write-ahead log; persisting it before compaction is
    // what keeps truncated history recoverable. ---
    let wal = std::env::temp_dir().join(format!("serving-jobs-{}.wal", std::process::id()));
    registry.persist(jobs, &wal).expect("persist jobs WAL");
    let compacted = registry.compact(jobs);
    println!(
        "\npersisted the jobs tenant to a WAL, then compacted the live registry onto epoch {}: \
         {} snapshot retained, edit log emptied, epoch numbering preserved",
        compacted.0,
        registry.retained_snapshots(jobs),
    );

    // A second serve generation over the same warmed workspaces: a pin below the
    // compaction floor comes back as an `EpochEvicted` *outcome* — the epoch
    // was real history, which distinguishes it from `UnknownEpoch` ("never
    // reached").
    let mut server = ShardedRunner::with_workspaces(Arc::clone(&registry), &config, workspaces);
    server.submit(
        SolveRequest::for_graph(jobs)
            .algorithm(Algorithm::Sbl(SblConfig::default()))
            .seed(100)
            .pin(EpochPin::At(Epoch(0))) // pre-compaction history
            .tenant(JOBS)
            .build(),
    );
    server.submit(
        SolveRequest::for_graph(jobs)
            .algorithm(Algorithm::Sbl(SblConfig::default()))
            .seed(100)
            .pin(EpochPin::Latest) // the compacted head still serves
            .tenant(JOBS)
            .build(),
    );
    let outs = server.collect_outstanding();
    match &outs[0].error {
        Some(SolveError::EpochEvicted { epoch, floor, .. }) => println!(
            "  epoch {} pin → EpochEvicted outcome (retention floor is epoch {})",
            epoch.0, floor.0
        ),
        other => panic!("expected an EpochEvicted outcome, got {other:?}"),
    }
    assert!(outs[1].error.is_none(), "the compacted head still serves");
    assert_eq!(outs[1].epoch, Some(compacted));
    server.shutdown();

    // Restore rebuilds the full pre-compaction history in a fresh registry —
    // a stand-in for a fresh process after a deploy. Ticket 0's epoch-0
    // answer reproduces bit-for-bit across the boundary: determinism is now
    // cross-process, `(persisted snapshot₀ + log prefix, algorithm, seed)`
    // fixes the outcome.
    let mut restored_registry = ResidentRegistry::new();
    let restored_jobs = restored_registry.restore(&wal).expect("restore jobs WAL");
    std::fs::remove_file(&wal).ok();
    let replay = BatchRunner::new().solve(
        &restored_registry,
        &SolveRequest::for_graph(restored_jobs)
            .algorithm(Algorithm::Sbl(SblConfig::default()))
            .seed(100)
            .pin(EpochPin::At(Epoch(0)))
            .tenant(JOBS)
            .build(),
    );
    assert_eq!(replay.fingerprint(), collected[0].fingerprint());
    println!(
        "restored the WAL into a fresh registry: the epoch-0 answer is identical across the \
         process boundary"
    );

    // --- The mapped tier: `persist_snapshot` checkpoints the compacted head
    // as a checksummed CSR snapshot (the graph alone — no log, no epoch
    // history), and `open_mapped` registers it zero-copy from a read-only
    // file mapping. Ticket 24 answered this very graph (epoch 1, now the
    // compacted head) under seed 100, so the mapped tier must reproduce its
    // answer — the storage tier is invisible to outcomes. ---
    let snapshot = std::env::temp_dir().join(format!("serving-jobs-{}.hgcsr", std::process::id()));
    registry
        .persist_snapshot(jobs, &snapshot)
        .expect("persist jobs CSR snapshot");
    let mut mapped_registry = ResidentRegistry::new();
    let mapped_jobs = mapped_registry
        .open_mapped(&snapshot)
        .expect("open mapped jobs snapshot");
    let mapped_graph = mapped_registry.latest(mapped_jobs);
    assert_eq!(mapped_graph.graph().storage_kind(), "mapped");
    assert!(mapped_graph.graph() == registry.latest(jobs).graph());
    let mapped_replay = BatchRunner::new().solve(
        &mapped_registry,
        &SolveRequest::for_graph(mapped_jobs)
            .algorithm(Algorithm::Sbl(SblConfig::default()))
            .seed(100)
            .tenant(JOBS)
            .build(),
    );
    std::fs::remove_file(&snapshot).ok();
    // The epoch numbering restarts at 0 (the snapshot carries no history),
    // but the answer payload is bit-identical.
    assert_eq!(mapped_replay.independent_set, collected[24].independent_set);
    assert_eq!(
        (mapped_replay.work, mapped_replay.rounds),
        (collected[24].work, collected[24].rounds)
    );
    println!(
        "checkpointed the compacted head as a CSR snapshot and reopened it mmap-backed \
         (storage tier \"mapped\"): the post-mutation answer reproduces zero-copy from the file"
    );

    // --- The wire: the same service, out of process. `Server::bind` puts a
    // `MISP 1` socket front-end over a `ShardedRunner` on the mapped
    // registry; the reply that comes back over TCP is byte-identical (by
    // fingerprint) to the in-process solve above — the transport, like the
    // storage tier, is invisible to outcomes. ---
    use hypergraph_mis::net::{Client, NetConfig, Server};
    let net_config = NetConfig {
        serve: ServeConfig {
            shards: 2,
            queue_depth: 8,
            threads_per_shard: Some(1),
            ..ServeConfig::default()
        },
        ..NetConfig::default()
    };
    let wire_server = Server::bind("127.0.0.1:0", Arc::new(mapped_registry), &net_config)
        .expect("bind loopback MISP server");
    let mut client = Client::connect(wire_server.local_addr()).expect("connect to loopback");
    let correlation = client
        .submit(
            &SolveRequest::for_graph(mapped_jobs)
                .algorithm(Algorithm::Sbl(SblConfig::default()))
                .seed(100)
                .tenant(JOBS)
                .build(),
        )
        .expect("submit over the wire");
    let reply = client.recv().expect("receive the reply frame");
    assert_eq!(reply.correlation, correlation);
    assert_eq!(reply.outcome.fingerprint(), mapped_replay.fingerprint());
    let stats = wire_server.shutdown();
    assert_eq!(stats.delivered, 1);
    println!(
        "served the same solve over a MISP 1 loopback socket: the wire reply is \
         fingerprint-identical to the in-process answer"
    );
}
