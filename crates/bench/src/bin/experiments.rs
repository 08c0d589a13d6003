//! The experiment harness: regenerates every experiment listed in DESIGN.md §4
//! and EXPERIMENTS.md, printing markdown tables that can be pasted into
//! EXPERIMENTS.md verbatim.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin experiments            # all experiments
//! cargo run --release -p bench --bin experiments -- e1 e5   # a subset
//! cargo run --release -p bench --bin experiments -- --quick # smaller sweeps
//!
//! # The CI bench-regression gate: compare freshly emitted BENCH_*.json in
//! # the working directory against committed baselines (default tolerance
//! # band 0.5; exits non-zero on any regression or fingerprint mismatch, or
//! # if the selected tags leave no value to compare).
//! cargo run --release -p bench --bin experiments -- \
//!     --check-against bench/baselines [--tolerance 0.5] [activeset batch serve coldstart net]
//! ```
//!
//! An unknown flag or tag is an error, never a silent no-op.

use bench::{linear_workload, markdown_table, paper_workload, rng_for, uniform_workload};
use concentration::chernoff;
use concentration::kimvu;
use concentration::potential::{Potential, Recurrence};
use hypergraph::degree::DegreeTable;
use hypergraph::params::SblParams;
use hypergraph::{ActiveHypergraph, HypergraphStats};
use hypergraph_mis::batch::BatchRunner;
use mis_core::prelude::*;
use pram::cost::CostTracker;
use pram::pool::with_threads;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut check_against: Option<String> = None;
    let mut tolerance = 0.5f64;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check-against" => {
                check_against = Some(it.next().expect("--check-against needs a directory"));
            }
            "--tolerance" => {
                tolerance = it
                    .next()
                    .expect("--tolerance needs a value")
                    .parse()
                    .expect("--tolerance needs a number");
            }
            a if a.starts_with("--") => panic!("unknown flag {a}"),
            _ => selected.push(arg),
        }
    }
    if let Some(tag) = unknown_tag(&selected) {
        panic!("unknown experiment tag {tag} (known: {TAGS})");
    }
    let want =
        |tag: &str| selected.is_empty() || selected.iter().any(|s| s.eq_ignore_ascii_case(tag));

    // Every run states which SIMD paths are live, so a pasted table or a CI
    // log is never ambiguous about what actually executed.
    println!(
        "simd: keystream={} ({} blocks/op), sweeps={} ({} bytes/op)",
        rand_chacha::simd::active_path(),
        rand_chacha::simd::backend().lanes(),
        pram::simd::active_path(),
        pram::simd::active().u8_lanes(),
    );

    if let Some(dir) = check_against {
        run_bench_regression_gate(&dir, tolerance, &want);
        return;
    }

    if want("e1") {
        e1_sbl_scaling(quick);
    }
    if want("e2") {
        e2_bl_stages(quick);
    }
    if want("e3") {
        e3_event_b(quick);
    }
    if want("e4") {
        e4_event_a(quick);
    }
    if want("e5") {
        e5_shootout(quick);
    }
    if want("e6") {
        e6_migration(quick);
    }
    if want("e7") {
        e7_potential_decay(quick);
    }
    if want("e8") {
        e8_threads(quick);
    }
    if want("e9") {
        e9_special_classes(quick);
    }
    if want("e10") {
        e10_admissibility();
    }
    #[cfg(feature = "reference-engine")]
    if want("activeset") {
        activeset_engine_guard(quick);
    }
    #[cfg(not(feature = "reference-engine"))]
    if want("activeset") {
        println!("activeset: skipped (requires the `reference-engine` feature)");
    }
    if want("batch") {
        batch_runner_experiment(quick);
    }
    if want("serve") {
        serve_experiment(quick);
    }
    if want("coldstart") {
        coldstart_experiment(quick);
    }
    if want("net") {
        net_experiment(quick);
    }
}

/// Every experiment tag the harness knows, in run order.
const TAGS: &str = "e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 activeset batch serve coldstart net";

/// The first selected tag that names no experiment (tags match
/// case-insensitively), if any.
fn unknown_tag(selected: &[String]) -> Option<&String> {
    selected
        .iter()
        .find(|s| !TAGS.split(' ').any(|t| t.eq_ignore_ascii_case(s)))
}

/// The CI bench-regression gate (`--check-against <dir>`): compares each
/// freshly emitted `BENCH_*.json` in the working directory against the
/// committed copy in `<dir>`, with a tolerance band on wall times and
/// speedups and exact matching on deterministic fields (see
/// [`bench::baseline`]). Exits non-zero on the first artifact set with
/// failures, so CI fails on wall-time regressions or fingerprint mismatches.
/// A gate that compared no value (the selected tags name no gated artifact)
/// fails too: it would otherwise pass vacuously.
fn run_bench_regression_gate(dir: &str, tolerance: f64, want: &impl Fn(&str) -> bool) {
    println!("## bench-regression gate: fresh BENCH_*.json vs {dir} (tolerance {tolerance})\n");
    let mut compared = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for tag in ["activeset", "batch", "serve", "coldstart", "net"] {
        if !want(tag) {
            continue;
        }
        let file = format!("BENCH_{tag}.json");
        let baseline_path = std::path::Path::new(dir).join(&file);
        let fresh = std::fs::read_to_string(&file).unwrap_or_else(|e| {
            panic!("missing fresh artifact {file} (run the guards first): {e}")
        });
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("missing baseline {}: {e}", baseline_path.display()));
        let report = bench::baseline::check_against(&fresh, &baseline, tolerance)
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        println!(
            "{file}: {} values gated, {} failure(s)",
            report.compared,
            report.failures.len()
        );
        compared += report.compared;
        failures.extend(report.failures.into_iter().map(|f| format!("{file} {f}")));
    }
    if compared == 0 {
        failures.push("no value compared: the selected tags name no gated artifact".into());
    }
    if !failures.is_empty() {
        eprintln!("\nbench-regression gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("\nbench-regression gate passed ({compared} values within policy)");
}

/// The sharded-serving experiment: the PR-3 batch workloads (induced query
/// streams against a resident graph, and independent full SBL solves), now
/// pushed through the [`ShardedRunner`](hypergraph_mis::serve::ShardedRunner)
/// at 1, 2, 4 and 8 shards and compared
/// against the sequential `BatchRunner::solve` path (the 1-shard amortized
/// baseline, no threads, no queues).
///
/// Per-request outcomes must be **byte-identical** across every shard count
/// and the sequential path — asserted here on fingerprints (seed, set, cost
/// totals, trace). Wall times and aggregate throughputs go to
/// `BENCH_serve.json` (consumed by CI as an artifact; the scaling target is
/// ≥ 2× aggregate throughput at 8 shards on the largest query workload,
/// which needs ≥ a few real cores — the JSON records `host_parallelism` so a
/// single-core host's ≈1× is interpretable, matching the E8 caveat).
fn serve_experiment(quick: bool) {
    use hypergraph_mis::serve::{
        AdmissionConfig, Algorithm, EpochPin, ResidentRegistry, RetentionPolicy, RoutePolicy,
        ServeConfig, ShardedRunner, SolveError, SolveFingerprint, SolveRequest, TenantId,
        TenantQuota,
    };
    use std::sync::Arc;

    println!("\n## serve — sharded worker-pool serving vs the sequential BatchRunner path\n");
    let instances = 100usize;
    let iters = if quick { 3 } else { 5 };
    let shard_counts = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut largest: Option<(usize, f64)> = None;

    // Workload builders mirror the batch experiment exactly; only the
    // execution layer differs.
    let mut workloads: Vec<(&str, usize, Arc<ResidentRegistry>, Vec<SolveRequest>)> = Vec::new();
    for n in [16384usize, 65536, 262144] {
        let mut registry = ResidentRegistry::new();
        let resident = registry.register(uniform_workload(n, 3, 0xBA7C));
        let qsize = 512;
        let requests: Vec<SolveRequest> = (0..instances)
            .map(|i| {
                let mut rng = rng_for(0xBA7C_1000 + (n + i) as u64);
                let mut q: Vec<u32> = (0..n as u32).collect();
                for k in 0..qsize {
                    let j = rand::Rng::gen_range(&mut rng, k..n);
                    q.swap(k, j);
                }
                q.truncate(qsize);
                q.sort_unstable();
                SolveRequest::induced(resident, q)
                    .algorithm(Algorithm::Bl(BlConfig::default()))
                    .seed(0xBA7C_2000 + (n * 131 + i) as u64)
                    .tenant(TenantId(i as u64 % 4))
                    .build()
            })
            .collect();
        workloads.push(("query", n, Arc::new(registry), requests));
    }
    for n in [1024usize, 4096] {
        let registry = Arc::new(ResidentRegistry::new());
        let requests: Vec<SolveRequest> = (0..instances)
            .map(|i| {
                SolveRequest::adhoc(Arc::new(paper_workload(n, 0xBA7C + i as u64)))
                    .algorithm(Algorithm::Sbl(SblConfig::default()))
                    .seed(0xBA7C_0000 + (n * 1000 + i) as u64)
                    .tenant(TenantId(i as u64 % 4))
                    .build()
            })
            .collect();
        workloads.push(("sbl_stream", n, registry, requests));
    }

    for (kind, n, registry, requests) in &workloads {
        // Sequential baseline: one BatchRunner, no threads, no queues.
        let mut best_seq = f64::INFINITY;
        let mut reference: Vec<SolveFingerprint> = Vec::new();
        for it in 0..iters {
            let mut runner = BatchRunner::new();
            let t0 = Instant::now();
            let outs: Vec<SolveFingerprint> = requests
                .iter()
                .map(|r| runner.solve(registry, r).fingerprint())
                .collect();
            best_seq = best_seq.min(t0.elapsed().as_secs_f64() * 1e3);
            if it == 0 {
                reference = outs;
            }
        }

        let mut shard_summaries = Vec::new();
        let mut ms_by_shards: Vec<(usize, f64)> = Vec::new();
        for &shards in &shard_counts {
            let config = ServeConfig {
                shards,
                queue_depth: 64,
                threads_per_shard: Some(1),
                ..ServeConfig::default()
            };
            let mut best = f64::INFINITY;
            for it in 0..iters {
                let mut runner = ShardedRunner::new(Arc::clone(registry), &config);
                let t0 = Instant::now();
                let outs = runner.run_stream(requests.clone());
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
                if it == 0 {
                    assert_eq!(outs.len(), reference.len());
                    for (i, out) in outs.iter().enumerate() {
                        assert!(
                            out.fingerprint() == reference[i],
                            "serve {kind}: shards={shards} diverged from the sequential \
                             BatchRunner path (n={n}, request {i})"
                        );
                    }
                }
            }
            ms_by_shards.push((shards, best));
            let speedup = best_seq / best;
            let throughput = instances as f64 / (best / 1e3);
            shard_summaries.push(format!(
                "{{\"shards\": {shards}, \"ms\": {best:.4}, \"speedup_vs_sequential\": \
                 {speedup:.3}, \"throughput_per_s\": {throughput:.1}}}"
            ));
            rows.push(vec![
                kind.to_string(),
                n.to_string(),
                shards.to_string(),
                format!("{best_seq:.2}"),
                format!("{best:.2}"),
                format!("{speedup:.2}x"),
                format!("{throughput:.0}"),
            ]);
        }
        // Aggregate-throughput scaling of the shard sweep itself: 8 shards
        // vs 1 shard (both through the serve layer, so queueing overhead is
        // on both sides of the ratio).
        let ms1 = ms_by_shards
            .iter()
            .find(|&&(s, _)| s == 1)
            .expect("1-shard run")
            .1;
        let ms8 = ms_by_shards
            .iter()
            .find(|&&(s, _)| s == 8)
            .expect("8-shard run")
            .1;
        if *kind == "query" {
            largest = Some((*n, ms1 / ms8));
        }
        entries.push(format!(
            concat!(
                "    {{\"kind\": \"{}\", \"n\": {}, \"instances\": {}, ",
                "\"sequential_ms\": {:.4}, \"outcomes_identical\": true, ",
                "\"outcome_fingerprint\": \"{}\", \"speedup_8v1\": {:.3}, \"shards\": [{}]}}"
            ),
            kind,
            n,
            instances,
            best_seq,
            fingerprint_hex(&reference),
            ms1 / ms8,
            shard_summaries.join(", "),
        ));
    }

    // --- Tenant mix: an interleaved tenant-tagged query stream at 4 shards
    // under each routing policy. Outcomes must be byte-identical across
    // policies (and to the sequential path); the per-tenant rewarm split,
    // read from the runner's stats, makes the affinity win observable
    // rather than asserted. ---
    // 6 tenants over 4 shards: the tenant count is deliberately not a
    // multiple of the shard count, so round-robin genuinely scatters each
    // tenant (ticket stride 6 mod 4 cycles) while affinity pins it.
    let mix_tenants = 6u64;
    let mix_total = 96usize;
    let mix_n = 65536usize;
    let (mix_registry, mix_requests) = {
        let mut registry = ResidentRegistry::new();
        let resident = registry.register(uniform_workload(mix_n, 3, 0x7E4A));
        let requests: Vec<SolveRequest> = (0..mix_total)
            .map(|i| {
                let mut rng = rng_for(0x7E4A_1000 + i as u64);
                let qsize = 512;
                let mut q: Vec<u32> = (0..mix_n as u32).collect();
                for k in 0..qsize {
                    let j = rand::Rng::gen_range(&mut rng, k..mix_n);
                    q.swap(k, j);
                }
                q.truncate(qsize);
                q.sort_unstable();
                SolveRequest::induced(resident, q)
                    .algorithm(Algorithm::Bl(BlConfig::default()))
                    .seed(0x7E4A_2000 + i as u64)
                    .tenant(TenantId(i as u64 % mix_tenants))
                    .build()
            })
            .collect();
        (Arc::new(registry), requests)
    };
    let mut seq_runner = BatchRunner::new();
    let mix_reference: Vec<SolveFingerprint> = mix_requests
        .iter()
        .map(|r| seq_runner.solve(&mix_registry, r).fingerprint())
        .collect();
    let per_tenant_delivered = mix_total as u64 / mix_tenants;
    let mut policy_rows = Vec::new();
    let mut policy_summaries = Vec::new();
    for policy in [
        RoutePolicy::RoundRobin,
        RoutePolicy::TenantAffinity,
        RoutePolicy::LeastQueued,
    ] {
        let config = ServeConfig {
            shards: 4,
            queue_depth: 64,
            threads_per_shard: Some(1),
            route: policy,
            ..ServeConfig::default()
        };
        let mut best = f64::INFINITY;
        let mut rewarms: Vec<(u64, u64, u64)> = Vec::new();
        for it in 0..iters {
            let mut runner = ShardedRunner::new(Arc::clone(&mix_registry), &config);
            let t0 = Instant::now();
            let outs = if policy == RoutePolicy::TenantAffinity && it == 0 {
                // Exercise streaming collection inside the guard: it must
                // yield a permutation with identical per-ticket payloads.
                for r in mix_requests.iter().cloned() {
                    runner.submit(r);
                }
                let mut outs: Vec<_> = runner.collect_streaming(mix_requests.len()).collect();
                outs.sort_by_key(|o| o.ticket);
                outs
            } else {
                runner.run_stream(mix_requests.clone())
            };
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            if it == 0 {
                for (i, out) in outs.iter().enumerate() {
                    assert!(
                        out.fingerprint() == mix_reference[i],
                        "serve tenant_mix: {} diverged from the sequential path (request {i})",
                        policy.name()
                    );
                }
            }
            // One generation's rewarm split (deterministic for RR and TA): a
            // tenant warms each shard it is routed to once.
            rewarms = runner
                .stats()
                .per_tenant
                .iter()
                .map(|t| {
                    let misses = t.shards.len() as u64;
                    (t.tenant.0, t.admitted - misses, misses)
                })
                .collect();
        }
        let (hits, misses) = rewarms
            .iter()
            .fold((0u64, 0u64), |(h, m), e| (h + e.1, m + e.2));
        policy_rows.push(vec![
            policy.name().to_string(),
            format!("{best:.2}"),
            format!("{:.0}", mix_total as f64 / (best / 1e3)),
            hits.to_string(),
            misses.to_string(),
        ]);
        // LeastQueued placement is scheduling-dependent, so its rewarm split
        // is telemetry we deliberately keep out of the committed artifact.
        let rewarm_fields = if policy == RoutePolicy::LeastQueued {
            String::new()
        } else {
            let per_tenant = rewarms
                .iter()
                .map(|&(tenant, h, m)| {
                    format!(
                        "{{\"tenant\": {tenant}, \"delivered\": {per_tenant_delivered}, \
                         \"throughput_per_s\": {:.1}, \"rewarm_hits\": {h}, \
                         \"rewarm_misses\": {m}}}",
                        per_tenant_delivered as f64 / (best / 1e3)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                ", \"rewarm_hits\": {hits}, \"rewarm_misses\": {misses}, \
                 \"per_tenant\": [{per_tenant}]"
            )
        };
        policy_summaries.push(format!(
            "{{\"policy\": \"{}\", \"ms\": {best:.4}{rewarm_fields}}}",
            policy.name()
        ));
    }
    entries.push(format!(
        concat!(
            "    {{\"kind\": \"tenant_mix\", \"n\": {}, \"tenants\": {}, \"instances\": {}, ",
            "\"outcomes_identical\": true, \"outcome_fingerprint\": \"{}\", ",
            "\"policies\": [{}]}}"
        ),
        mix_n,
        mix_tenants,
        mix_total,
        fingerprint_hex(&mix_reference),
        policy_summaries.join(", "),
    ));
    println!("### tenant mix — {mix_tenants} tenants, 4 shards, routing policies\n");
    println!(
        "{}",
        markdown_table(
            &["policy", "ms", "req/s", "rewarm hits", "rewarm misses"],
            &policy_rows
        )
    );

    // --- Admission: rejection-as-data under deterministic per-tenant
    // quotas; the decisions must replay identically. ---
    let adm_total = 60usize;
    let (adm_registry, adm_requests) = {
        let mut registry = ResidentRegistry::new();
        let resident = registry.register(uniform_workload(4096, 3, 0xADA1));
        let requests: Vec<SolveRequest> = (0..adm_total)
            .map(|i| {
                let mut rng = rng_for(0xADA1_1000 + i as u64);
                let qsize = 128;
                let mut q: Vec<u32> = (0..4096u32).collect();
                for k in 0..qsize {
                    let j = rand::Rng::gen_range(&mut rng, k..4096);
                    q.swap(k, j);
                }
                q.truncate(qsize);
                q.sort_unstable();
                SolveRequest::induced(resident, q)
                    .algorithm(Algorithm::Greedy)
                    .seed(0xADA1_2000 + i as u64)
                    .tenant(TenantId(i as u64 % 3))
                    .build()
            })
            .collect();
        (Arc::new(registry), requests)
    };
    let adm_config = ServeConfig {
        shards: 4,
        queue_depth: 64,
        threads_per_shard: Some(1),
        route: RoutePolicy::RoundRobin,
        admission: AdmissionConfig {
            default_quota: None,
            per_tenant: vec![
                // Tenant 0: a refilling token bucket. Tenant 1: an in-flight
                // cap (submit-all-then-collect keeps it saturated). Tenant 2
                // stays unquoted.
                (
                    TenantId(0),
                    TenantQuota {
                        burst: 6,
                        refill_every: 5,
                        max_in_flight: None,
                    },
                ),
                (
                    TenantId(1),
                    TenantQuota {
                        burst: u64::MAX,
                        refill_every: 0,
                        max_in_flight: Some(2),
                    },
                ),
            ],
        },
    };
    let mut adm_replays = Vec::new();
    for _ in 0..2 {
        let mut runner = ShardedRunner::new(Arc::clone(&adm_registry), &adm_config);
        let outs = runner.run_stream(adm_requests.clone());
        for out in &outs {
            match &out.error {
                None => {}
                Some(SolveError::AdmissionDenied { .. }) => {}
                Some(e) => panic!("serve admission: unexpected failure {e:?}"),
            }
        }
        let fps: Vec<SolveFingerprint> = outs.iter().map(|o| o.fingerprint()).collect();
        adm_replays.push((fps, runner.stats()));
    }
    assert!(
        adm_replays[0].0 == adm_replays[1].0,
        "serve admission: decisions did not replay deterministically"
    );
    let adm_stats = &adm_replays[0].1;
    let adm_per_tenant = adm_stats
        .per_tenant
        .iter()
        .map(|t| {
            format!(
                "{{\"tenant\": {}, \"submitted\": {}, \"admitted\": {}, \
                 \"denied_quota\": {}, \"denied_in_flight\": {}, \"delivered\": {}}}",
                t.tenant.0,
                t.submitted,
                t.admitted,
                t.denied_quota,
                t.denied_in_flight,
                t.delivered
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    entries.push(format!(
        concat!(
            "    {{\"kind\": \"admission\", \"requests\": {}, \"deterministic_replay\": true, ",
            "\"outcome_fingerprint\": \"{}\", \"admitted\": {}, \"denied\": {}, ",
            "\"per_tenant\": [{}]}}"
        ),
        adm_total,
        fingerprint_hex(&adm_replays[0].0),
        adm_stats.admitted,
        adm_stats.denied,
        adm_per_tenant,
    ));
    println!(
        "### admission — {adm_total} requests, 3 tenants: {} admitted, {} denied \
         (replay-deterministic)\n",
        adm_stats.admitted, adm_stats.denied
    );

    // --- Mutation: the epoch-versioned registry's copy-on-write path vs the
    // pre-PR-6 alternative (tear everything down and re-register per graph
    // version). Both arms answer the same query waves against the same graph
    // versions; the mutate arm `apply`s mid-stream on one long-lived runner
    // (warm pools, pinned in-flight requests), the rebuild arm replays the
    // edit-log prefix into a fresh registry + fresh cold runner per epoch.
    // Replay determinism is asserted, not assumed: the mutate arm's
    // fingerprints must agree across shard counts, collection modes and the
    // sequential path, and the rebuild arm must reproduce every payload. ---
    use hypergraph::edit::{apply_edits, GraphEdit};
    use hypergraph_mis::serve::Epoch;
    let mut_n = 8192usize;
    let mut_waves = 5usize; // epochs 0..=4
    let mut_queries = if quick { 24 } else { 48 };
    let mut_base = uniform_workload(mut_n, 3, 0x0ED1);
    // Deterministic edit batches: each removes two current edges, adds two
    // fresh 4-vertex edges (the base is 3-uniform, so they are never
    // duplicates), and one batch grows the id space.
    let mut_batches: Vec<Vec<GraphEdit>> = {
        let mut batches = Vec::new();
        let mut cur = mut_base.clone();
        for k in 0..mut_waves - 1 {
            let i1 = (k * 131 + 7) % cur.n_edges();
            let mut i2 = (k * 257 + 3) % cur.n_edges();
            if i2 == i1 {
                i2 = (i2 + 1) % cur.n_edges();
            }
            let mut batch = vec![
                GraphEdit::RemoveEdge(cur.edge(i1 as u32).to_vec()),
                GraphEdit::RemoveEdge(cur.edge(i2 as u32).to_vec()),
                GraphEdit::AddEdge((0..4).map(|j| (400 * k + j) as u32).collect()),
                GraphEdit::AddEdge((0..4).map(|j| (400 * k + 200 + j) as u32).collect()),
            ];
            if k == 1 {
                batch.push(GraphEdit::GrowVertices(64));
            }
            cur = apply_edits(&cur, &batch).expect("mutation bench edit script is valid");
            batches.push(batch);
        }
        batches
    };
    // Query waves: induced BL queries over the *base* vertex range, valid at
    // every epoch; wave w is pinned (via Latest-at-submit) to epoch w.
    let mut_requests: Vec<Vec<(u64, Vec<u32>)>> = (0..mut_waves)
        .map(|w| {
            (0..mut_queries)
                .map(|i| {
                    let mut rng = rng_for(0x0ED1_1000 + (w * 1000 + i) as u64);
                    let qsize = 256;
                    let mut q: Vec<u32> = (0..mut_n as u32).collect();
                    for k in 0..qsize {
                        let j = rand::Rng::gen_range(&mut rng, k..mut_n);
                        q.swap(k, j);
                    }
                    q.truncate(qsize);
                    q.sort_unstable();
                    (0x0ED1_2000 + (w * 1000 + i) as u64, q)
                })
                .collect()
        })
        .collect();
    let mut_request = |resident, seed: u64, q: &Vec<u32>| {
        SolveRequest::induced(resident, q.clone())
            .algorithm(Algorithm::Bl(BlConfig::default()))
            .seed(seed)
            .tenant(TenantId(seed % 3))
            .build()
    };

    // Mutate arm: one registry, one runner, `apply` between waves.
    let mut mutate_ms = f64::INFINITY;
    let mut mut_reference: Vec<SolveFingerprint> = Vec::new();
    for (it, &(shards, streaming)) in [(4usize, false), (1, false), (4, true)]
        .iter()
        .cycle()
        .take(iters.max(3))
        .enumerate()
    {
        let t0 = Instant::now();
        let mut registry = ResidentRegistry::new();
        let resident = registry.register(mut_base.clone());
        let registry = Arc::new(registry);
        let config = ServeConfig {
            shards,
            queue_depth: 64,
            threads_per_shard: Some(1),
            ..ServeConfig::default()
        };
        let mut runner = ShardedRunner::new(Arc::clone(&registry), &config);
        for (w, wave) in mut_requests.iter().enumerate() {
            for (seed, q) in wave {
                runner.submit(mut_request(resident, *seed, q));
            }
            // Mutate while this wave is still in flight: its requests were
            // pinned at submit, so the bump can never retarget them.
            if let Some(batch) = mut_batches.get(w) {
                let bumped = registry.apply(resident, batch).expect("valid edit batch");
                assert_eq!(bumped, Epoch(w as u64 + 1));
            }
        }
        let total = mut_waves * mut_queries;
        let outs = if streaming {
            let mut outs: Vec<_> = runner.collect_streaming(total).collect();
            outs.sort_by_key(|o| o.ticket);
            outs
        } else {
            runner.collect_ordered(total)
        };
        mutate_ms = mutate_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let fps: Vec<SolveFingerprint> = outs.iter().map(|o| o.fingerprint()).collect();
        for (w, wave_fps) in fps.chunks(mut_queries).enumerate() {
            for fp in wave_fps {
                assert_eq!(fp.1, Some(Epoch(w as u64)), "wave {w} mispinned");
            }
        }
        if it == 0 {
            mut_reference = fps;
        } else {
            assert!(
                fps == mut_reference,
                "serve mutation: shards={shards} streaming={streaming} diverged from the \
                 first mutate-arm run"
            );
        }
    }
    // Sequential reference: the same submit/apply sequence through a
    // BatchRunner (Latest resolves at execution time, which on this path is
    // submission time), so the mutate arm is pinned against the single-shard
    // special case too.
    {
        let mut registry = ResidentRegistry::new();
        let resident = registry.register(mut_base.clone());
        let registry = Arc::new(registry);
        let mut runner = BatchRunner::new();
        let mut fps: Vec<SolveFingerprint> = Vec::new();
        for (w, wave) in mut_requests.iter().enumerate() {
            for (seed, q) in wave {
                fps.push(
                    runner
                        .solve(&registry, &mut_request(resident, *seed, q))
                        .fingerprint(),
                );
            }
            if let Some(batch) = mut_batches.get(w) {
                registry.apply(resident, batch).expect("valid edit batch");
            }
        }
        assert!(
            fps == mut_reference,
            "serve mutation: sequential BatchRunner path diverged from the mutate arm"
        );
    }

    // Rebuild arm: per epoch, replay the log prefix from scratch into a
    // fresh registry and a fresh (cold) runner — what serving a mutable
    // graph costs without the epoch-versioned registry.
    let mut rebuild_ms = f64::INFINITY;
    for it in 0..iters {
        let t0 = Instant::now();
        let mut log: Vec<GraphEdit> = Vec::new();
        let mut fps: Vec<SolveFingerprint> = Vec::new();
        for (w, wave) in mut_requests.iter().enumerate() {
            let graph = apply_edits(&mut_base, &log).expect("valid edit log prefix");
            let mut registry = ResidentRegistry::new();
            let resident = registry.register(graph);
            let registry = Arc::new(registry);
            let config = ServeConfig {
                shards: 4,
                queue_depth: 64,
                threads_per_shard: Some(1),
                ..ServeConfig::default()
            };
            let mut runner = ShardedRunner::new(Arc::clone(&registry), &config);
            for (seed, q) in wave {
                runner.submit(mut_request(resident, *seed, q));
            }
            fps.extend(
                runner
                    .collect_ordered(wave.len())
                    .iter()
                    .map(|o| o.fingerprint()),
            );
            if let Some(batch) = mut_batches.get(w) {
                log.extend(batch.iter().cloned());
            }
        }
        rebuild_ms = rebuild_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        if it == 0 {
            // Replay determinism: identical payloads, epoch field aside (the
            // rebuilt registries are always at epoch 0).
            assert_eq!(fps.len(), mut_reference.len());
            for (fresh, reference) in fps.iter().zip(&mut_reference) {
                let payload_matches = fresh.0 == reference.0
                    && fresh.2 == reference.2
                    && fresh.3 == reference.3
                    && fresh.4 == reference.4
                    && fresh.5 == reference.5
                    && fresh.6 == reference.6
                    && fresh.7 == reference.7;
                assert!(
                    payload_matches,
                    "serve mutation: rebuilt-from-log outcome diverged (seed {})",
                    reference.0
                );
            }
        }
    }
    // --- Restart-replay: the WAL is the cross-process determinism oracle.
    // Persist the registry mid-workload (epoch 2) and at the end of the
    // mutation stream, restore each WAL into a fresh in-process registry,
    // and re-answer every query wave the persisted prefix covers, pinned to
    // its epoch. Restore preserves epoch numbers, so the fingerprints must
    // match the mutate arm's bit for bit — the `wal_replay_identical` gate
    // consumed by `--check-against`. ---
    let wal_replay_identical = {
        let mut registry = ResidentRegistry::new();
        let resident = registry.register(mut_base.clone());
        let pid = std::process::id();
        let mid_path = std::env::temp_dir().join(format!("bench-serve-mid-{pid}.wal"));
        let end_path = std::env::temp_dir().join(format!("bench-serve-end-{pid}.wal"));
        for (w, batch) in mut_batches.iter().enumerate() {
            registry.apply(resident, batch).expect("valid edit batch");
            if w + 1 == 2 {
                registry
                    .persist(resident, &mid_path)
                    .expect("persist mid-workload WAL");
            }
        }
        registry
            .persist(resident, &end_path)
            .expect("persist end-of-workload WAL");
        let mut identical = true;
        for path in [&mid_path, &end_path] {
            let mut restored = ResidentRegistry::new();
            let rid = restored.restore(path).expect("restore WAL");
            std::fs::remove_file(path).ok();
            let epochs = restored.current_epoch(rid).0 as usize + 1;
            let mut runner = BatchRunner::new();
            for (w, wave) in mut_requests.iter().take(epochs).enumerate() {
                for ((seed, q), reference) in wave.iter().zip(&mut_reference[w * mut_queries..]) {
                    let req = SolveRequest::induced(rid, q.clone())
                        .algorithm(Algorithm::Bl(BlConfig::default()))
                        .seed(*seed)
                        .tenant(TenantId(*seed % 3))
                        .pin(EpochPin::At(Epoch(w as u64)))
                        .build();
                    identical &= runner.solve(&restored, &req).fingerprint() == *reference;
                }
            }
        }
        assert!(
            identical,
            "serve mutation: restored-from-WAL outcomes diverged from the live registry"
        );
        identical
    };

    // --- Retention: the same mutate workload under `keep_last = 1` must
    // answer identically — in-flight requests hold their snapshot Arcs and
    // Latest pins only ever resolve to live epochs — while the snapshot
    // count stays bounded at keep_last + 2 (base + latest always retained). ---
    let retention_keep_last = 1u64;
    let (retention_snapshots_max, retention_evictions, retention_latest_identical) = {
        let mut registry =
            ResidentRegistry::with_retention(RetentionPolicy::keep_last(retention_keep_last));
        let resident = registry.register(mut_base.clone());
        let registry = Arc::new(registry);
        let config = ServeConfig {
            shards: 4,
            queue_depth: 64,
            threads_per_shard: Some(1),
            ..ServeConfig::default()
        };
        let mut runner = ShardedRunner::new(Arc::clone(&registry), &config);
        let mut snapshots_max = registry.retained_snapshots(resident);
        for (w, wave) in mut_requests.iter().enumerate() {
            for (seed, q) in wave {
                runner.submit(mut_request(resident, *seed, q));
            }
            if let Some(batch) = mut_batches.get(w) {
                registry.apply(resident, batch).expect("valid edit batch");
            }
            snapshots_max = snapshots_max.max(registry.retained_snapshots(resident));
        }
        let fps: Vec<SolveFingerprint> = runner
            .collect_ordered(mut_waves * mut_queries)
            .iter()
            .map(|o| o.fingerprint())
            .collect();
        assert!(
            snapshots_max <= retention_keep_last as usize + 2,
            "serve mutation: keep_last={retention_keep_last} retained {snapshots_max} snapshots"
        );
        let identical = fps == mut_reference;
        assert!(
            identical,
            "serve mutation: keep_last retention perturbed live outcomes"
        );
        (snapshots_max, registry.evictions(resident), identical)
    };

    let mutate_speedup = rebuild_ms / mutate_ms;
    entries.push(format!(
        concat!(
            "    {{\"kind\": \"mutation\", \"n\": {}, \"epochs\": {}, ",
            "\"queries_per_epoch\": {}, \"mutate_ms\": {:.4}, \"rebuild_ms\": {:.4}, ",
            "\"mutate_vs_rebuild_speedup\": {:.3}, \"replay_identical\": true, ",
            "\"wal_replay_identical\": {}, \"retention_keep_last\": {}, ",
            "\"retention_snapshots_max\": {}, \"retention_evictions\": {}, ",
            "\"retention_latest_identical\": {}, \"outcome_fingerprint\": \"{}\"}}"
        ),
        mut_n,
        mut_waves,
        mut_queries,
        mutate_ms,
        rebuild_ms,
        mutate_speedup,
        wal_replay_identical,
        retention_keep_last,
        retention_snapshots_max,
        retention_evictions,
        retention_latest_identical,
        fingerprint_hex(&mut_reference),
    ));
    println!(
        "### mutation — {mut_waves} epochs x {mut_queries} induced queries (n={mut_n}): \
         mutate {mutate_ms:.2} ms vs rebuild {rebuild_ms:.2} ms ({mutate_speedup:.2}x; \
         replay-identical, WAL-replay-identical, keep_last={retention_keep_last} retention \
         bounded at {retention_snapshots_max} snapshots / {retention_evictions} evictions)\n"
    );

    println!(
        "{}",
        markdown_table(
            &[
                "workload",
                "n",
                "shards",
                "sequential ms",
                "serve ms",
                "speedup",
                "req/s"
            ],
            &rows
        )
    );

    // --- The shard-scaling assertion (CI satellite): with real cores, the
    // serve layer must deliver aggregate throughput at 8 shards ≥ 1.5× the
    // 1-shard path on the largest query workload. Single-core hosts record
    // the ratio without asserting (the E8 caveat). ---
    let (largest_n, largest_speedup) = largest.expect("at least one query workload");
    let host = pram::pool::available_parallelism();
    let scaling_assertion = if host >= 4 {
        assert!(
            largest_speedup >= 1.5,
            "serve: aggregate throughput at 8 shards is only {largest_speedup:.2}x the 1-shard \
             path on a {host}-way host (query n={largest_n}; target >= 1.5x)"
        );
        format!("asserted (host_parallelism={host}: {largest_speedup:.2}x >= 1.5x)")
    } else {
        println!(
            "warning: shard-scaling assertion skipped — host_parallelism={host} < 4 (the E8 \
             caveat); recording {largest_speedup:.2}x for the CI artifact"
        );
        format!("record-only (host_parallelism={host} < 4)")
    };

    let mut json = String::from("{\n  \"experiment\": \"serve_sharded_runner\",\n");
    let _ = writeln!(
        json,
        "  \"baseline\": \"sequential BatchRunner::solve over the request stream (single-shard \
         amortized path: one workspace, no threads, no queues)\",\n  \
         \"candidate\": \"ShardedRunner (N worker shards, per-shard WorkspacePool affinity, \
         tenant routing + admission, bounded queues, ordered/streaming collection)\",\n  \
         \"iters\": {iters},\n  \"host_parallelism\": {host},\n  \
         \"scaling_assertion\": \"{scaling_assertion}\",\n  \
         \"largest_workload\": {{\"kind\": \"query\", \"n\": {largest_n}, \
         \"instances\": {instances}, \"shards\": 8, \
         \"speedup_vs_1shard\": {largest_speedup:.3}}},\n  \
         \"workloads\": ["
    );
    json.push_str(&entries.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!(
        "wrote BENCH_serve.json (largest workload: query n={largest_n}, 8 shards: \
         {largest_speedup:.2}x vs 1 shard; host parallelism {host})\n"
    );
}

/// The cold-start experiment (the PR-9 tentpole gate): how fast does a
/// resident graph go from a file on disk to its first answered query, per
/// storage tier?
///
/// Three arms, each timed from cold (registry construction + one induced BL
/// query, read straight from the registered graph) on the same
/// `uniform_workload` graphs:
///
/// * `parse_build` — the text format: `read_file` (full parse + validation +
///   counting-sort rebuild) then `register`;
/// * `restore` — the PR-7 WAL: `ResidentRegistry::restore` (header parse +
///   CSR text + empty edit log replay);
/// * `open_mapped` — the HGCSR snapshot: `ResidentRegistry::open_mapped`
///   (checksummed header validation + zero-copy `mmap` of the four arrays).
///
/// The first-query fingerprints of all three arms must be byte-identical
/// (`mapped_identical`, a determinism flag in the gate), as must a
/// steady-state query stream on the owned vs the mapped registry — the
/// storage tier is invisible to outcomes. Wall times go to
/// `BENCH_coldstart.json` (banded in the gate); the acceptance bar is
/// `open_mapped` first-query latency ≥ 5× faster than parse+build on the
/// largest workload, asserted here.
fn coldstart_experiment(quick: bool) {
    use hypergraph_mis::serve::{
        Algorithm, ResidentRegistry, SolveFingerprint, SolveRequest, TenantId,
    };
    use std::sync::Arc;

    println!("\n## coldstart — parse+build vs WAL restore vs mmap open, file to first answer\n");
    let iters = if quick { 3 } else { 5 };
    let steady_queries = 64usize;
    let pid = std::process::id();
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut largest: Option<(usize, f64)> = None;

    for n in [65536usize, 262144] {
        let graph = uniform_workload(n, 3, 0xC01D);
        let m = graph.n_edges();
        let text_path = std::env::temp_dir().join(format!("bench-coldstart-{pid}-{n}.txt"));
        let wal_path = std::env::temp_dir().join(format!("bench-coldstart-{pid}-{n}.wal"));
        let csr_path = std::env::temp_dir().join(format!("bench-coldstart-{pid}-{n}.hgcsr"));
        hypergraph::io::write_file(&graph, &text_path).expect("write coldstart text snapshot");
        hypergraph::io::write_wal(&wal_path, 0, &graph, &[]).expect("write coldstart WAL");
        hypergraph::io::write_csr(&graph, &csr_path).expect("write coldstart CSR snapshot");

        // The first query every arm must answer from cold, and the
        // steady-state stream the warm registries then serve.
        let query_for = |i: usize| -> Arc<Vec<u32>> {
            let mut rng = rng_for(0xC01D_1000 + (n + i) as u64);
            let qsize = 512;
            let mut q: Vec<u32> = (0..n as u32).collect();
            for k in 0..qsize {
                let j = rand::Rng::gen_range(&mut rng, k..n);
                q.swap(k, j);
            }
            q.truncate(qsize);
            q.sort_unstable();
            Arc::new(q)
        };
        let request = |id, i: usize| {
            SolveRequest::induced(id, query_for(i))
                .algorithm(Algorithm::Bl(BlConfig::default()))
                .seed(0xC01D_2000 + (n * 131 + i) as u64)
                .tenant(TenantId(i as u64 % 4))
                .build()
        };

        // One cold run per arm per iteration: file → registry → first
        // answered query. `min` over iterations, like every other wall-time
        // in these artifacts.
        let mut arm_ms = [f64::INFINITY; 3];
        let mut arm_prints: [Option<SolveFingerprint>; 3] = [None, None, None];
        for _ in 0..iters {
            for (arm, best) in arm_ms.iter_mut().enumerate() {
                let t0 = Instant::now();
                let mut registry = ResidentRegistry::new();
                let id = match arm {
                    0 => registry.register(
                        hypergraph::io::read_file(&text_path).expect("parse coldstart text"),
                    ),
                    1 => registry.restore(&wal_path).expect("restore coldstart WAL"),
                    _ => registry
                        .open_mapped(&csr_path)
                        .expect("open coldstart CSR snapshot"),
                };
                let mut runner = BatchRunner::new();
                let fp = runner.solve(&registry, &request(id, 0)).fingerprint();
                *best = best.min(t0.elapsed().as_secs_f64() * 1e3);
                if let Some(prev) = &arm_prints[arm] {
                    assert!(*prev == fp, "coldstart: arm {arm} did not replay (n={n})");
                } else {
                    arm_prints[arm] = Some(fp);
                }
            }
        }
        let [parse_ms, restore_ms, mapped_ms] = arm_ms;
        let first_print = arm_prints[0].clone().expect("iters >= 1");
        let mapped_identical = arm_prints.iter().all(|p| p.as_ref() == Some(&first_print));
        assert!(
            mapped_identical,
            "coldstart: storage tiers disagree on the first query (n={n})"
        );

        // Steady state: the same query stream through the warm owned and
        // warm mapped registries — per-query fingerprints must agree.
        let mut owned_registry = ResidentRegistry::new();
        let owned_id = owned_registry.register(graph.clone());
        let mut mapped_registry = ResidentRegistry::new();
        let mapped_id = mapped_registry
            .open_mapped(&csr_path)
            .expect("open coldstart CSR snapshot");
        let mapped_stats = HypergraphStats::compute(mapped_registry.latest(mapped_id).graph());
        let mut steady = [f64::INFINITY; 2];
        let mut steady_prints: Vec<Vec<SolveFingerprint>> = Vec::new();
        for (arm, best) in steady.iter_mut().enumerate() {
            let (registry, id) = if arm == 0 {
                (&owned_registry, owned_id)
            } else {
                (&mapped_registry, mapped_id)
            };
            let mut prints = Vec::new();
            for it in 0..iters {
                let mut runner = BatchRunner::new();
                let t0 = Instant::now();
                let fps: Vec<SolveFingerprint> = (0..steady_queries)
                    .map(|i| runner.solve(registry, &request(id, i)).fingerprint())
                    .collect();
                *best = best.min(t0.elapsed().as_secs_f64() * 1e3);
                if it == 0 {
                    prints = fps;
                }
            }
            steady_prints.push(prints);
        }
        let [steady_owned_ms, steady_mapped_ms] = steady;
        assert!(
            steady_prints[0] == steady_prints[1],
            "coldstart: steady-state owned vs mapped outcomes diverged (n={n})"
        );
        let steady_throughput = steady_queries as f64 / (steady_mapped_ms / 1e3);

        let speedup_parse = parse_ms / mapped_ms;
        let speedup_restore = restore_ms / mapped_ms;
        largest = Some((n, speedup_parse));
        println!("workload n={n}: {}", mapped_stats.one_line());
        rows.push(vec![
            n.to_string(),
            m.to_string(),
            mapped_stats.bytes_resident.to_string(),
            format!("{parse_ms:.2}"),
            format!("{restore_ms:.2}"),
            format!("{mapped_ms:.2}"),
            format!("{speedup_parse:.1}x"),
            format!("{steady_throughput:.0}"),
        ]);
        entries.push(format!(
            concat!(
                "    {{\"kind\": \"coldstart\", \"n\": {}, \"m\": {}, ",
                "\"bytes_resident\": {}, \"storage\": \"{}\", ",
                "\"parse_build_ms\": {:.4}, \"restore_ms\": {:.4}, ",
                "\"open_mapped_ms\": {:.4}, \"speedup_mapped_vs_parse\": {:.3}, ",
                "\"speedup_mapped_vs_restore\": {:.3}, \"mapped_identical\": {}, ",
                "\"outcome_fingerprint\": \"{}\", \"steady_queries\": {}, ",
                "\"steady_owned_ms\": {:.4}, \"steady_mapped_ms\": {:.4}, ",
                "\"steady_throughput_per_s\": {:.1}}}"
            ),
            n,
            m,
            mapped_stats.bytes_resident,
            mapped_stats.storage,
            parse_ms,
            restore_ms,
            mapped_ms,
            speedup_parse,
            speedup_restore,
            mapped_identical,
            fingerprint_hex(&steady_prints[0]),
            steady_queries,
            steady_owned_ms,
            steady_mapped_ms,
            steady_throughput,
        ));
        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&wal_path).ok();
        std::fs::remove_file(&csr_path).ok();
    }

    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "m",
                "bytes",
                "parse+build ms",
                "restore ms",
                "mmap open ms",
                "mapped speedup",
                "steady req/s"
            ],
            &rows
        )
    );

    // The tentpole acceptance bar: on the largest resident workload, the
    // mapped tier must reach its first answer ≥ 5× faster than parsing and
    // rebuilding from text.
    let (largest_n, largest_speedup) = largest.expect("at least one workload");
    assert!(
        largest_speedup >= 5.0,
        "coldstart: open_mapped first-query latency is only {largest_speedup:.2}x faster than \
         parse+build on the largest workload (n={largest_n}; target >= 5x)"
    );

    let mut json = String::from("{\n  \"experiment\": \"coldstart_resident_graphs\",\n");
    let _ = writeln!(
        json,
        "  \"baseline\": \"parse+build from the text snapshot (read_file: full parse, \
         validation, counting-sort rebuild, then register)\",\n  \
         \"candidate\": \"open_mapped on the HGCSR snapshot (checksummed header validation + \
         zero-copy mmap of the four CSR arrays, queries induced from the mapping)\",\n  \
         \"iters\": {iters},\n  \
         \"largest_workload\": {{\"kind\": \"coldstart\", \"n\": {largest_n}, \
         \"speedup_mapped_vs_parse\": {largest_speedup:.3}}},\n  \
         \"workloads\": ["
    );
    json.push_str(&entries.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_coldstart.json", &json).expect("write BENCH_coldstart.json");
    println!(
        "\nwrote BENCH_coldstart.json (largest workload n={largest_n}: open_mapped \
         {largest_speedup:.2}x faster to first answer than parse+build)\n"
    );
}

/// The serve-net experiment (the PR-10 tentpole gate): the `MISP 1` socket
/// front-end under a deterministic open-loop load plan ([`bench::load`]).
///
/// The load shape is production-flavoured rather than a uniform sweep:
/// exponential inter-arrivals paced by a sender thread regardless of
/// response progress (so queueing delay lands in the percentiles instead of
/// being coordinated away), bounded-Pareto induced-query sizes (most
/// requests small, a deterministic minority 30× larger), and a hot tenant
/// owning ~60% of the stream. Two arms per shard count:
///
/// * `slo` — paced sends; per-request latency is measured from the request's
///   *scheduled* send time to reply receipt, percentiles over the stream
///   (min across iterations, like every wall time here);
/// * `saturation` — the same requests submitted back-to-back with no pacing;
///   throughput from first submit to last reply.
///
/// Every wire outcome must be byte-identical (by fingerprint) to an
/// in-process [`BatchRunner`] solve of the same request — `wire_identical`,
/// a determinism flag in the gate, plus the exact-matched
/// `outcome_fingerprint`. Latency percentiles go to `BENCH_net.json` and are
/// banded by the gate.
fn net_experiment(quick: bool) {
    use bench::load::{plan, LoadConfig};
    use hypergraph_mis::net::{Client, NetConfig, Server};
    use hypergraph_mis::serve::{
        Algorithm, ResidentRegistry, ServeConfig, SolveFingerprint, SolveRequest, TenantId,
    };
    use std::sync::Arc;
    use std::time::Duration;

    println!("\n## net — MISP loopback serving under deterministic open-loop load\n");
    let iters = if quick { 3 } else { 5 };
    let n = 16384usize;
    let load = LoadConfig {
        seed: 0x6E73,
        requests: if quick { 96 } else { 192 },
        mean_interarrival_us: 500.0,
        tenants: 4,
        hot_share: 0.6,
        min_query: 32,
        max_query: 1024,
        tail_alpha: 1.1,
    };
    let schedule = plan(&load);

    let mut registry = ResidentRegistry::new();
    let resident = registry.register(uniform_workload(n, 3, 0x6E73));
    let registry = Arc::new(registry);
    let requests: Vec<SolveRequest> = schedule
        .iter()
        .map(|a| {
            let mut rng = rng_for(0x6E73_1000 ^ a.solve_seed);
            let mut q: Vec<u32> = (0..n as u32).collect();
            for k in 0..a.query_size {
                let j = rand::Rng::gen_range(&mut rng, k..n);
                q.swap(k, j);
            }
            q.truncate(a.query_size);
            q.sort_unstable();
            SolveRequest::induced(resident, q)
                .algorithm(Algorithm::Bl(BlConfig::default()))
                .seed(a.solve_seed)
                .tenant(TenantId(a.tenant))
                .build()
        })
        .collect();

    // The in-process ground truth every wire outcome is compared against.
    let mut seq = BatchRunner::new();
    let reference: Vec<SolveFingerprint> = requests
        .iter()
        .map(|r| seq.solve(&registry, r).fingerprint())
        .collect();
    let hot_requests = schedule.iter().filter(|a| a.tenant == 0).count();

    let percentile = |sorted_us: &[u64], q: f64| -> f64 {
        let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
        sorted_us[idx] as f64 / 1e3
    };

    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for shards in [1usize, 4] {
        let config = NetConfig {
            serve: ServeConfig {
                shards,
                queue_depth: 64,
                threads_per_shard: Some(1),
                ..ServeConfig::default()
            },
            ..NetConfig::default()
        };
        let (mut p50, mut p95, mut p99) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut saturation_rps = 0.0f64;
        for it in 0..iters {
            // --- SLO arm: open-loop paced sends. ---
            let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), &config)
                .expect("net: bind loopback server");
            let client = Client::connect(server.local_addr()).expect("net: connect");
            let (mut tx, mut rx) = client.split().expect("net: split");
            let start = Instant::now();
            let sender = {
                let schedule = schedule.clone();
                let requests = requests.clone();
                std::thread::spawn(move || {
                    for (arrival, request) in schedule.iter().zip(&requests) {
                        let due = Duration::from_micros(arrival.at_us);
                        while let Some(wait) = due.checked_sub(start.elapsed()) {
                            if wait.is_zero() {
                                break;
                            }
                            std::thread::sleep(wait.min(Duration::from_micros(200)));
                        }
                        tx.submit(request).expect("net: submit");
                    }
                })
            };
            let mut latencies_us = vec![0u64; requests.len()];
            for _ in 0..requests.len() {
                let reply = rx.recv().expect("net: recv");
                let done = start.elapsed();
                let idx = reply.correlation as usize;
                let scheduled = Duration::from_micros(schedule[idx].at_us);
                latencies_us[idx] =
                    done.checked_sub(scheduled).unwrap_or_default().as_micros() as u64;
                if it == 0 {
                    assert!(
                        reply.outcome.fingerprint() == reference[idx],
                        "net: wire outcome diverged from the in-process BatchRunner \
                         (shards={shards}, request {idx})"
                    );
                }
            }
            sender.join().expect("net: sender thread");
            let stats = server.shutdown();
            assert_eq!(
                stats.delivered,
                requests.len() as u64,
                "net: delivered count (shards={shards})"
            );
            assert_eq!(
                stats.connections[0].protocol_errors, 0,
                "net: protocol errors on a clean connection (shards={shards})"
            );
            latencies_us.sort_unstable();
            p50 = p50.min(percentile(&latencies_us, 0.50));
            p95 = p95.min(percentile(&latencies_us, 0.95));
            p99 = p99.min(percentile(&latencies_us, 0.99));

            // --- Saturation arm: the same stream, no pacing. ---
            let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), &config)
                .expect("net: bind loopback server");
            let client = Client::connect(server.local_addr()).expect("net: connect");
            let (mut tx, mut rx) = client.split().expect("net: split");
            let t0 = Instant::now();
            let burst = {
                let requests = requests.clone();
                std::thread::spawn(move || {
                    for request in &requests {
                        tx.submit(request).expect("net: submit");
                    }
                })
            };
            for _ in 0..requests.len() {
                rx.recv().expect("net: recv");
            }
            let elapsed = t0.elapsed().as_secs_f64();
            burst.join().expect("net: burst thread");
            server.shutdown();
            saturation_rps = saturation_rps.max(requests.len() as f64 / elapsed);
        }
        rows.push(vec![
            shards.to_string(),
            load.requests.to_string(),
            format!("{p50:.2}"),
            format!("{p95:.2}"),
            format!("{p99:.2}"),
            format!("{saturation_rps:.0}"),
        ]);
        entries.push(format!(
            concat!(
                "    {{\"kind\": \"loopback\", \"shards\": {}, \"requests\": {}, ",
                "\"tenants\": {}, \"hot_tenant_requests\": {}, ",
                "\"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, ",
                "\"saturation_rps\": {:.1}, \"wire_identical\": true, ",
                "\"outcome_fingerprint\": \"{}\"}}"
            ),
            shards,
            load.requests,
            load.tenants,
            hot_requests,
            p50,
            p95,
            p99,
            saturation_rps,
            fingerprint_hex(&reference),
        ));
    }
    println!(
        "{}",
        markdown_table(
            &[
                "shards",
                "requests",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "saturation req/s"
            ],
            &rows
        )
    );

    let mut json = String::from("{\n  \"experiment\": \"net_misp_loopback\",\n");
    let _ = writeln!(
        json,
        "  \"protocol\": \"MISP 1 (length-prefixed frames, FNV-1a payload checksums)\",\n  \
         \"load\": \"open-loop exponential arrivals (mean {:.0}us), bounded-Pareto induced \
         query sizes {}..={} (alpha {}), hot tenant 0 of {} at {:.0}% share\",\n  \
         \"requests\": {},\n  \"iters\": {iters},\n  \"n\": {n},\n  \"workloads\": [",
        load.mean_interarrival_us,
        load.min_query,
        load.max_query,
        load.tail_alpha,
        load.tenants,
        load.hot_share * 100.0,
        load.requests,
    );
    json.push_str(&entries.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_net.json", &json).expect("write BENCH_net.json");
    println!("wrote BENCH_net.json (every wire outcome fingerprint-identical in-process)\n");
}

/// A stable hex fingerprint over a sequence of per-request outcomes (FNV-1a
/// chained over their debug encodings) — the exact-match determinism field
/// the bench-regression gate compares across runs and hosts. One chain for
/// every artifact, so the scheme can never silently diverge between them.
fn fingerprint_hex<T: std::fmt::Debug>(items: &[T]) -> String {
    use bench::baseline::fnv1a;
    let mut acc = 0u64;
    for item in items {
        let h = fnv1a(format!("{item:?}").as_bytes());
        let mut chain = [0u8; 16];
        chain[..8].copy_from_slice(&acc.to_le_bytes());
        chain[8..].copy_from_slice(&h.to_le_bytes());
        acc = fnv1a(&chain);
    }
    format!("0x{acc:016x}")
}

/// The batch-serving experiment: streams of 100 MIS solves answered
/// back-to-back, once *cold* (the rebuild pipeline: every solve materializes
/// its instance from scratch — fresh engine, allocating `induced_by` with no
/// incidence index and an `O(n + Σ|e|)` pass per query, fresh flag scratch
/// per subcall; the pre-workspace execution path, preserved in `mis_core` as
/// the measurable baseline) and once *amortized* (one [`BatchRunner`]
/// workspace reused across the whole stream: engines reset or re-induced in
/// place with a compact incidence, flag/index buffers recycled).
///
/// Two workload families, matching the two serving shapes the ROADMAP north
/// star cares about:
///
/// * `query` — the headline: a large hypergraph stays resident and each
///   instance is "solve the MIS of the sub-hypergraph induced by this vertex
///   subset" (BL on the induced engine). Cold pays the `O(id_space)` +
///   full-edge-scan derivation per query from a prebuilt resident engine;
///   amortized derives the sub straight from the resident `Hypergraph`'s
///   incidence in `O(|query| + Σ deg)` via `reset_induced`, the path the
///   server runs.
/// * `sbl_stream` — 100 independent full SBL solves, cold vs amortized.
///
/// Asserts that both arms return identical independent sets and identical
/// cost totals for every instance, and writes the wall times to
/// `BENCH_batch.json` (consumed by CI as an artifact; the acceptance bar is
/// a ≥ 1.3× amortized speedup on the largest workload).
fn batch_runner_experiment(quick: bool) {
    println!(
        "\n## batch — cold (rebuild pipeline) vs amortized (workspace-reusing) solve streams\n"
    );
    let instances = 100usize;
    let iters = if quick { 3 } else { 7 };
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut largest: Option<(usize, f64)> = None;

    // --- Family 1: query streams against a resident hypergraph. ---
    // Fixed-size queries against a growing resident graph: the amortized
    // derivation costs O(|query|) while the cold one costs O(database), so
    // the gap widens with scale — the point of the serving architecture.
    for n in [16384usize, 65536, 262144] {
        let base = uniform_workload(n, 3, 0xBA7C);
        let resident = ActiveHypergraph::from_hypergraph(&base);
        let qsize = 512;
        let queries: Vec<Vec<u32>> = (0..instances)
            .map(|i| {
                let mut rng = rng_for(0xBA7C_1000 + (n + i) as u64);
                let mut q: Vec<u32> = (0..n as u32).collect();
                for k in 0..qsize {
                    let j = rand::Rng::gen_range(&mut rng, k..n);
                    q.swap(k, j);
                }
                q.truncate(qsize);
                q.sort_unstable();
                q
            })
            .collect();
        let solve_rng = |i: usize| rng_for(0xBA7C_2000 + (n * 131 + i) as u64);
        let bl_cfg = BlConfig::default();
        let mut marked = vec![false; n];

        // Cold arm: every query derives its sub-instance from scratch.
        let mut best_cold = f64::INFINITY;
        let mut cold_outcomes: Vec<BatchOutcome> = Vec::new();
        for it in 0..iters {
            let t0 = Instant::now();
            let outs: Vec<BatchOutcome> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    for &v in q {
                        marked[v as usize] = true;
                    }
                    let mut sub = resident.induced_by(&marked);
                    for &v in q {
                        marked[v as usize] = false;
                    }
                    let mut cost = CostTracker::new();
                    let (set, _) = bl_on_active_in(
                        &mut sub,
                        &mut solve_rng(i),
                        &bl_cfg,
                        &mut cost,
                        &mut Workspace::new(),
                    );
                    let c = cost.cost();
                    (set, (c.work, c.depth, cost.rounds()))
                })
                .collect();
            best_cold = best_cold.min(t0.elapsed().as_secs_f64() * 1e3);
            if it == 0 {
                cold_outcomes = outs;
            }
        }

        // Amortized arm: one engine slot + workspace across the stream, each
        // sub read from the graph's CSR as the server does.
        let mut best_amortized = f64::INFINITY;
        let mut amortized_outcomes: Vec<BatchOutcome> = Vec::new();
        let mut warm_allocations = 0u64;
        for it in 0..iters {
            let mut runner = BatchRunner::new();
            let mut slot = ActiveHypergraph::from_parts(Vec::new(), Vec::new());
            let t0 = Instant::now();
            let outs: Vec<BatchOutcome> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    slot.reset_induced(&base, q);
                    let mut cost = CostTracker::new();
                    let (set, _) = mis_core::bl::bl_on_active_in(
                        &mut slot,
                        &mut solve_rng(i),
                        &bl_cfg,
                        &mut cost,
                        runner.workspace_mut(),
                    );
                    let c = cost.cost();
                    (set, (c.work, c.depth, cost.rounds()))
                })
                .collect();
            best_amortized = best_amortized.min(t0.elapsed().as_secs_f64() * 1e3);
            if it == 0 {
                amortized_outcomes = outs;
                let before = runner.workspace().fresh_allocations();
                slot.reset_induced(&base, &queries[0]);
                let mut cost = CostTracker::new();
                let _ = mis_core::bl::bl_on_active_in(
                    &mut slot,
                    &mut solve_rng(0),
                    &bl_cfg,
                    &mut cost,
                    runner.workspace_mut(),
                );
                warm_allocations = runner.workspace().fresh_allocations() - before;
            }
        }

        let (sets_identical, costs_identical) =
            compare_outcomes(&cold_outcomes, &amortized_outcomes);
        assert!(
            sets_identical && costs_identical,
            "batch query: cold and amortized solves disagree (n={n})"
        );
        // Spot-check independence of the answers against the resident state.
        for (i, q) in queries.iter().enumerate().take(5) {
            for &v in q {
                marked[v as usize] = true;
            }
            let mut sub = resident.induced_by(&marked);
            for &v in q {
                marked[v as usize] = false;
            }
            assert!(
                !sub.contains_live_edge_within(&amortized_outcomes[i].0),
                "batch query: answer not independent (n={n}, query {i})"
            );
        }

        let speedup = best_cold / best_amortized;
        largest = Some((n, speedup));
        push_batch_row(
            &mut rows,
            &mut entries,
            "query",
            n,
            instances,
            best_cold,
            best_amortized,
            warm_allocations,
            sets_identical,
            costs_identical,
            &fingerprint_hex(&cold_outcomes),
        );
    }

    // --- Family 2: independent full SBL solves. ---
    let cfg = SblConfig::default();
    for n in [1024usize, 4096] {
        let hs: Vec<_> = (0..instances)
            .map(|i| paper_workload(n, 0xBA7C + i as u64))
            .collect();
        let solve_rng = |i: usize| rng_for(0xBA7C_0000 + (n * 1000 + i) as u64);

        let mut best_cold = f64::INFINITY;
        let mut cold_outcomes: Vec<BatchOutcome> = Vec::new();
        for it in 0..iters {
            let t0 = Instant::now();
            let outs: Vec<BatchOutcome> = hs
                .iter()
                .enumerate()
                .map(|(i, h)| {
                    let out = mis_core::sbl::sbl_mis_rebuild(h, &mut solve_rng(i), &cfg);
                    let c = out.cost.cost();
                    (
                        out.independent_set,
                        (c.work, c.depth, out.cost.rounds() as u64),
                    )
                })
                .collect();
            best_cold = best_cold.min(t0.elapsed().as_secs_f64() * 1e3);
            if it == 0 {
                cold_outcomes = outs;
            }
        }

        let mut best_amortized = f64::INFINITY;
        let mut amortized_outcomes: Vec<BatchOutcome> = Vec::new();
        let mut warm_allocations = 0u64;
        for it in 0..iters {
            let mut runner = BatchRunner::new();
            let t0 = Instant::now();
            let outs: Vec<BatchOutcome> = hs
                .iter()
                .enumerate()
                .map(|(i, h)| {
                    let out = runner.sbl(h, &mut solve_rng(i), &cfg);
                    let c = out.cost.cost();
                    (out.independent_set, (c.work, c.depth, out.cost.rounds()))
                })
                .collect();
            best_amortized = best_amortized.min(t0.elapsed().as_secs_f64() * 1e3);
            if it == 0 {
                for (i, out) in outs.iter().enumerate() {
                    verify_mis(&hs[i], &out.0).expect("batch sbl: invalid MIS");
                }
                amortized_outcomes = outs;
                let before = runner.workspace().fresh_allocations();
                let _ = runner.sbl(&hs[0], &mut solve_rng(0), &cfg);
                warm_allocations = runner.workspace().fresh_allocations() - before;
            }
        }

        let (sets_identical, costs_identical) =
            compare_outcomes(&cold_outcomes, &amortized_outcomes);
        assert!(
            sets_identical && costs_identical,
            "batch sbl: cold and amortized solves disagree (n={n})"
        );
        push_batch_row(
            &mut rows,
            &mut entries,
            "sbl_stream",
            n,
            instances,
            best_cold,
            best_amortized,
            warm_allocations,
            sets_identical,
            costs_identical,
            &fingerprint_hex(&cold_outcomes),
        );
    }

    println!(
        "{}",
        markdown_table(
            &[
                "workload",
                "n",
                "instances",
                "cold ms",
                "amortized ms",
                "speedup",
                "warm fresh allocs"
            ],
            &rows
        )
    );
    let (largest_n, largest_speedup) = largest.expect("at least one workload");
    let mut json = String::from("{\n  \"experiment\": \"batch_runner\",\n");
    let _ = writeln!(
        json,
        "  \"baseline\": \"cold solves (rebuild pipeline: fresh engine / allocating induced_by \
         per instance, fresh scratch per subcall)\",\n  \
         \"candidate\": \"BatchRunner (one Workspace amortized across the stream: reset_from / \
         reset_induced with compact incidence + pooled scratch)\",\n  \
         \"iters\": {iters},\n  \
         \"largest_workload\": {{\"kind\": \"query\", \"n\": {largest_n}, \
         \"instances\": {instances}, \"speedup\": {largest_speedup:.3}}},\n  \
         \"workloads\": ["
    );
    json.push_str(&entries.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_batch.json", &json).expect("write BENCH_batch.json");
    println!(
        "wrote BENCH_batch.json (largest workload: query n={largest_n}: {largest_speedup:.2}x amortized speedup)\n"
    );
}

/// Per-instance batch outcome: `(independent set, (work, depth, rounds))`.
type BatchOutcome = (Vec<u32>, (u64, u64, u64));

/// Compares per-instance outcomes of the two batch arms.
fn compare_outcomes(cold: &[BatchOutcome], amortized: &[BatchOutcome]) -> (bool, bool) {
    let sets = cold.len() == amortized.len() && cold.iter().zip(amortized).all(|(c, a)| c.0 == a.0);
    let costs = cold.iter().zip(amortized).all(|(c, a)| c.1 == a.1);
    (sets, costs)
}

#[allow(clippy::too_many_arguments)]
fn push_batch_row(
    rows: &mut Vec<Vec<String>>,
    entries: &mut Vec<String>,
    kind: &str,
    n: usize,
    instances: usize,
    cold_ms: f64,
    amortized_ms: f64,
    warm_allocations: u64,
    sets_identical: bool,
    costs_identical: bool,
    fingerprint: &str,
) {
    let speedup = cold_ms / amortized_ms;
    rows.push(vec![
        kind.to_string(),
        n.to_string(),
        instances.to_string(),
        format!("{cold_ms:.2}"),
        format!("{amortized_ms:.2}"),
        format!("{speedup:.2}x"),
        warm_allocations.to_string(),
    ]);
    entries.push(format!(
        concat!(
            "    {{\"kind\": \"{}\", \"n\": {}, \"instances\": {}, \"cold_ms\": {:.4}, ",
            "\"amortized_ms\": {:.4}, \"speedup\": {:.3}, ",
            "\"warm_fresh_allocations\": {}, \"outcome_fingerprint\": \"{}\", ",
            "\"sets_identical\": {}, \"costs_identical\": {}}}"
        ),
        kind,
        n,
        instances,
        cold_ms,
        amortized_ms,
        speedup,
        warm_allocations,
        fingerprint,
        sets_identical,
        costs_identical,
    ));
}

/// A `ChaCha8Rng` that counts the 32-bit keystream words drawn from it
/// (`next_u64` draws two), so the activeset guard can gate how many random
/// words a solve reads.
#[cfg(feature = "reference-engine")]
struct CountingRng {
    inner: rand_chacha::ChaCha8Rng,
    words: u64,
}

#[cfg(feature = "reference-engine")]
impl rand::RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.words += 2;
        self.inner.next_u64()
    }
}

/// One SBL solve of `h` on a freshly built engine of type `E` with a fresh
/// workspace — the activeset guard's timed unit. Returns the set and costs.
#[cfg(feature = "reference-engine")]
fn sbl_on_fresh_engine<E: hypergraph::ActiveEngine + Send + 'static>(
    h: &hypergraph::Hypergraph,
    rng: &mut CountingRng,
    cfg: &SblConfig,
) -> (Vec<u32>, CostTracker) {
    let mut engine = E::from_hypergraph(h);
    let mut cost = CostTracker::new();
    let (set, _, _) = sbl_on_active_in(&mut engine, rng, cfg, &mut cost, &mut Workspace::new());
    (set, cost)
}

/// Engine regression guard: SBL on the `sbl_scaling` workloads, run on both
/// the flat `ActiveHypergraph` engine and the pre-flat reference engine, with
/// identical seeds. Asserts the engines make identical decisions (same
/// independent set, same cost totals, same number of keystream words read)
/// and records wall time and per-round cost for both, plus the words one
/// solve reads (`rng_draws`), into `BENCH_activeset.json` (consumed by CI
/// as an artifact; the acceptance bar is a ≥ 2× speedup on the largest
/// workload).
#[cfg(feature = "reference-engine")]
fn activeset_engine_guard(quick: bool) {
    use hypergraph::ReferenceActiveHypergraph;
    use rand::RngCore as _;
    println!("\n## activeset — flat engine vs reference engine on the sbl_scaling workloads\n");
    let iters = if quick { 3 } else { 7 };

    // Micro-throughput of the two vectorized hot loops, measured through the
    // same entry points the engines use. The `_ms` keys gate as wall-time
    // ceilings in the regression checker, so a silently rotted SIMD path
    // (e.g. detection regressing to scalar) fails CI even when the
    // end-to-end engine timings are too noisy to show it.
    let rng_words: usize = if quick { 1 << 18 } else { 1 << 20 };
    let mut rng_fill_ms = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..iters {
        let mut rng = rng_for(0x51AD);
        let t0 = Instant::now();
        for _ in 0..rng_words / 2 {
            sink = sink.wrapping_add(rng.next_u64());
        }
        rng_fill_ms = rng_fill_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    std::hint::black_box(sink);

    // One "sweep op" = the three wide primitives the engine leans on
    // (live count, frontier compaction, masked live-size sum) over a status
    // array with an ~80% live fraction, like a young frontier.
    let sweep_bytes: usize = if quick { 1 << 19 } else { 1 << 21 };
    let status: Vec<u8> = (0..sweep_bytes).map(|i| u8::from(i % 5 == 0)).collect();
    let weights: Vec<u32> = (0..sweep_bytes).map(|i| (i as u32) & 0x3FF).collect();
    let mut compacted: Vec<u32> = Vec::new();
    let mut sweep_ms = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        let live = pram::simd::count_eq_u8(&status, 0);
        pram::simd::positions_eq_u8(&status, 0, &mut compacted);
        let mass = pram::simd::sum_u32_where_u8_eq(&weights, &status, 0);
        sweep_ms = sweep_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(live, compacted.len(), "activeset: sweep self-check failed");
        std::hint::black_box(mass);
    }
    println!(
        "keystream fill [{}]: {rng_fill_ms:.3} ms / {rng_words} words; \
         status sweeps [{}]: {sweep_ms:.3} ms / {sweep_bytes} bytes\n",
        rand_chacha::simd::active_path(),
        pram::simd::active_path(),
    );

    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut largest: Option<(usize, f64)> = None;
    for n in [256usize, 1024, 4096, 16384] {
        let h = paper_workload(n, 1);
        let cfg = SblConfig::default();

        let counting = || CountingRng {
            inner: rng_for(n as u64),
            words: 0,
        };
        let mut best_ref = f64::INFINITY;
        let mut reference = None;
        for _ in 0..iters {
            let mut rng = counting();
            let t0 = Instant::now();
            let out = sbl_on_fresh_engine::<ReferenceActiveHypergraph>(&h, &mut rng, &cfg);
            best_ref = best_ref.min(t0.elapsed().as_secs_f64() * 1e3);
            reference = Some((out, rng.words));
        }
        let ((reference_set, reference_cost), reference_words) = reference.expect("iters >= 1");

        let mut best_flat = f64::INFINITY;
        let mut flat = None;
        for _ in 0..iters {
            let mut rng = counting();
            let t0 = Instant::now();
            let out = sbl_on_fresh_engine::<ActiveHypergraph>(&h, &mut rng, &cfg);
            best_flat = best_flat.min(t0.elapsed().as_secs_f64() * 1e3);
            flat = Some((out, rng.words));
        }
        let ((flat_set, flat_cost), rng_draws) = flat.expect("iters >= 1");

        verify_mis(&h, &flat_set).expect("activeset: invalid MIS");
        assert_eq!(
            flat_set, reference_set,
            "activeset: engines disagree on the independent set (n={n})"
        );
        let (fc, rc) = (flat_cost.cost(), reference_cost.cost());
        assert_eq!(
            (fc.work, fc.depth, flat_cost.rounds()),
            (rc.work, rc.depth, reference_cost.rounds()),
            "activeset: engines disagree on cost totals (n={n})"
        );
        assert_eq!(
            rng_draws, reference_words,
            "activeset: engines read different numbers of keystream words (n={n})"
        );

        let rounds = flat_cost.rounds().max(1);
        let speedup = best_ref / best_flat;
        largest = Some((n, speedup));
        rows.push(vec![
            n.to_string(),
            h.n_edges().to_string(),
            format!("{best_ref:.2}"),
            format!("{best_flat:.2}"),
            format!("{speedup:.2}x"),
            rounds.to_string(),
            format!("{:.3}", best_ref / rounds as f64),
            format!("{:.3}", best_flat / rounds as f64),
            (fc.work / rounds).to_string(),
            rng_draws.to_string(),
        ]);
        entries.push(format!(
            concat!(
                "    {{\"n\": {}, \"m\": {}, \"reference_ms\": {:.4}, \"flat_ms\": {:.4}, ",
                "\"speedup\": {:.3}, \"rounds\": {}, \"work\": {}, \"depth\": {}, ",
                "\"reference_ms_per_round\": {:.5}, \"flat_ms_per_round\": {:.5}, ",
                "\"work_per_round\": {}, \"rng_draws\": {}, \"set_fingerprint\": \"0x{:016x}\", ",
                "\"sets_identical\": true, \"costs_identical\": true}}"
            ),
            n,
            h.n_edges(),
            best_ref,
            best_flat,
            speedup,
            rounds,
            fc.work,
            fc.depth,
            best_ref / rounds as f64,
            best_flat / rounds as f64,
            fc.work / rounds,
            rng_draws,
            bench::baseline::fnv1a(format!("{:?}", flat_set).as_bytes()),
        ));
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "m",
                "reference ms",
                "flat ms",
                "speedup",
                "rounds",
                "ref ms/round",
                "flat ms/round",
                "work/round",
                "rng draws"
            ],
            &rows
        )
    );
    let (largest_n, largest_speedup) = largest.expect("at least one workload");
    let mut json = String::from("{\n  \"experiment\": \"activeset_engine_guard\",\n");
    let _ = writeln!(
        json,
        "  \"baseline\": \"ReferenceActiveHypergraph (pre-flat Vec/BTreeSet engine)\",\n  \
         \"candidate\": \"ActiveHypergraph (flat epoch-stamped engine)\",\n  \
         \"iters\": {iters},\n  \
         \"simd\": {{\"keystream\": \"{}\", \"keystream_blocks_per_op\": {}, \
         \"sweeps\": \"{}\", \"sweep_bytes_per_op\": {}, \"forced_scalar\": {}}},\n  \
         \"rng_words\": {rng_words},\n  \"rng_fill_ms\": {rng_fill_ms:.4},\n  \
         \"sweep_bytes\": {sweep_bytes},\n  \"sweep_ms\": {sweep_ms:.4},\n  \
         \"largest_workload\": {{\"n\": {largest_n}, \"speedup\": {largest_speedup:.3}}},\n  \
         \"workloads\": [",
        rand_chacha::simd::active_path(),
        rand_chacha::simd::backend().lanes(),
        pram::simd::active_path(),
        pram::simd::active().u8_lanes(),
        rand_chacha::simd::forced_scalar() || pram::simd::forced_scalar(),
    );
    json.push_str(&entries.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_activeset.json", &json).expect("write BENCH_activeset.json");
    println!(
        "wrote BENCH_activeset.json (largest workload n={largest_n}: {largest_speedup:.2}x)\n"
    );
}

fn ns(quick: bool, full: &[usize], small: &[usize]) -> Vec<usize> {
    if quick {
        small.to_vec()
    } else {
        full.to_vec()
    }
}

/// E1 — Theorem 1: SBL parallel time on paper-regime hypergraphs scales far
/// below √n.
fn e1_sbl_scaling(quick: bool) {
    println!("\n## E1 — SBL scaling on paper-regime hypergraphs (Theorem 1)\n");
    let mut rows = Vec::new();
    for n in ns(
        quick,
        &[256, 512, 1024, 2048, 4096, 8192],
        &[256, 1024, 4096],
    ) {
        let h = paper_workload(n, 1);
        let mut rng = rng_for(n as u64);
        let t0 = Instant::now();
        let out = sbl_mis(&h, &mut rng);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        verify_mis(&h, &out.independent_set).expect("E1: invalid MIS");
        let c = out.cost.cost();
        rows.push(vec![
            n.to_string(),
            h.n_edges().to_string(),
            h.dimension().to_string(),
            out.trace.n_rounds().to_string(),
            out.trace.total_bl_stages().to_string(),
            c.depth.to_string(),
            format!("{:.1}", (n as f64).sqrt()),
            format!("{:.1}", ms),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "m",
                "dim",
                "SBL rounds",
                "BL stages",
                "PRAM depth",
                "sqrt(n)",
                "wall ms"
            ],
            &rows
        )
    );
}

/// E2 — Theorem 2: BL stage counts on d-uniform hypergraphs grow
/// polylogarithmically.
fn e2_bl_stages(quick: bool) {
    println!("\n## E2 — Beame–Luby stage counts (Theorem 2)\n");
    let mut rows = Vec::new();
    for d in [2usize, 3, 4] {
        for n in ns(quick, &[256, 1024, 4096], &[256, 1024]) {
            let h = uniform_workload(n, d, 2);
            let mut rng = rng_for((n * d) as u64);
            let out = bl_mis(&h, &mut rng, &BlConfig::default());
            verify_mis(&h, &out.independent_set).expect("E2: invalid MIS");
            let stages = out.trace.n_stages();
            let logn = (n as f64).log2();
            rows.push(vec![
                d.to_string(),
                n.to_string(),
                stages.to_string(),
                format!("{:.1}", logn),
                format!("{:.2}", stages as f64 / logn),
                format!("{:.1}", (n as f64).sqrt()),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &["d", "n", "BL stages", "log2 n", "stages/log n", "sqrt(n)"],
            &rows
        )
    );
}

/// E3 — event B: sampled-edge dimension failures vs the analytic bound
/// r·m·p^{d+1}.
fn e3_event_b(quick: bool) {
    println!("\n## E3 — Event B: oversized sampled edges vs analytic bound\n");
    let trials = if quick { 10 } else { 40 };
    let mut rows = Vec::new();
    for n in ns(quick, &[512, 2048], &[512]) {
        let h = paper_workload(n, 3);
        let params = SblParams::practical_default(n);
        let mut total_rounds = 0usize;
        let mut total_failures = 0usize;
        for t in 0..trials {
            let mut rng = rng_for(0xE3_0000 + (n * 131 + t) as u64);
            let out = sbl_mis(&h, &mut rng);
            total_rounds += out.trace.n_rounds();
            total_failures += out.trace.total_dimension_failures();
        }
        let empirical = total_failures as f64 / total_rounds.max(1) as f64;
        let bound =
            chernoff::event_b_total(params.p, h.n_edges() as f64, params.d_cap() as u32, 1.0);
        rows.push(vec![
            n.to_string(),
            h.n_edges().to_string(),
            format!("{:.3}", params.p),
            params.d_cap().to_string(),
            total_rounds.to_string(),
            total_failures.to_string(),
            format!("{:.4}", empirical),
            format!("{:.4}", bound),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "m",
                "p",
                "d cap",
                "rounds (all trials)",
                "failures",
                "failures/round",
                "per-round bound r=1"
            ],
            &rows
        )
    );
}

/// E4 — event A: per-round decided fraction vs the Chernoff bound p/2.
fn e4_event_a(quick: bool) {
    println!("\n## E4 — Event A: per-round progress vs the Chernoff bound\n");
    let mut rows = Vec::new();
    for n in ns(quick, &[1024, 4096], &[1024]) {
        let h = paper_workload(n, 4);
        let mut rng = rng_for(0xE4_0000 + n as u64);
        let out = sbl_mis(&h, &mut rng);
        verify_mis(&h, &out.independent_set).expect("E4: invalid MIS");
        let p = out.params.p;
        let fractions = out.trace.per_round_decided_fraction();
        let slow = fractions.iter().filter(|&&f| f < p / 2.0).count();
        let min = fractions.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = fractions.iter().sum::<f64>() / fractions.len().max(1) as f64;
        rows.push(vec![
            n.to_string(),
            format!("{:.3}", p),
            out.trace.n_rounds().to_string(),
            format!("{:.3}", mean),
            format!("{:.3}", if min.is_finite() { min } else { 0.0 }),
            format!("{:.3}", p / 2.0),
            slow.to_string(),
            format!(
                "{:.2e}",
                chernoff::event_a_total(p, out.trace.n_rounds() as f64)
            ),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "p",
                "rounds",
                "mean decided frac",
                "min decided frac",
                "p/2",
                "slow rounds",
                "event A bound"
            ],
            &rows
        )
    );
}

/// E5 — the headline comparison: SBL vs KUW vs greedy (and BL where it
/// applies).
fn e5_shootout(quick: bool) {
    println!("\n## E5 — SBL vs KUW vs greedy (parallel time comparison)\n");
    let mut rows = Vec::new();
    for n in ns(quick, &[512, 1024, 2048, 4096], &[512, 2048]) {
        let h = paper_workload(n, 5);
        let mut rng = rng_for(0xE5_0000 + n as u64);

        let t0 = Instant::now();
        let sbl = sbl_mis(&h, &mut rng);
        let sbl_ms = t0.elapsed().as_secs_f64() * 1e3;
        verify_mis(&h, &sbl.independent_set).unwrap();

        let t0 = Instant::now();
        let kuw = kuw_mis(&h, &mut rng);
        let kuw_ms = t0.elapsed().as_secs_f64() * 1e3;
        verify_mis(&h, &kuw.independent_set).unwrap();

        let t0 = Instant::now();
        let g = greedy_mis(&h, None);
        let g_ms = t0.elapsed().as_secs_f64() * 1e3;
        verify_mis(&h, &g.independent_set).unwrap();

        rows.push(vec![
            n.to_string(),
            sbl.trace.n_rounds().to_string(),
            sbl.cost.cost().depth.to_string(),
            format!("{:.1}", sbl_ms),
            kuw.trace.n_rounds().to_string(),
            kuw.cost.cost().depth.to_string(),
            format!("{:.1}", kuw_ms),
            g.cost.cost().depth.to_string(),
            format!("{:.1}", g_ms),
            format!("{:.1}", (n as f64).sqrt()),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "SBL rounds",
                "SBL depth",
                "SBL ms",
                "KUW rounds",
                "KUW depth",
                "KUW ms",
                "greedy depth",
                "greedy ms",
                "sqrt(n)"
            ],
            &rows
        )
    );
}

/// E6 — per-stage degree migration: observed increase vs Kelsen vs Kim–Vu
/// bounds.
fn e6_migration(quick: bool) {
    println!("\n## E6 — Degree migration per BL stage: observed vs bounds (Section 4)\n");
    let mut rows = Vec::new();
    for n in ns(quick, &[512, 2048], &[512]) {
        let h = uniform_workload(n, 4, 6);
        let mut rng = rng_for(0xE6_0000 + n as u64);
        let cfg = BlConfig {
            track_potentials: true,
            ..BlConfig::default()
        };
        let out = bl_mis(&h, &mut rng, &cfg);
        verify_mis(&h, &out.independent_set).unwrap();
        let observed = out.trace.max_delta_increase_by_dimension();
        // Degree profile of the initial hypergraph feeds the analytic bounds.
        let table = DegreeTable::build(&h);
        let dim = h.dimension();
        let deltas: Vec<f64> = (0..=dim).map(|i| table.delta_i(i)).collect();
        for j in 2..dim {
            let obs = observed.get(j).copied().unwrap_or(0.0);
            let kel = kimvu::kelsen_migration_bound(n, j, &deltas);
            let kv = kimvu::kim_vu_migration_bound(n, j, &deltas);
            rows.push(vec![
                n.to_string(),
                j.to_string(),
                format!("{:.2}", obs),
                format!("{:.3e}", kv),
                format!("{:.3e}", kel),
                format!("{:.1}x", if kv > 0.0 { kel / kv } else { 0.0 }),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "j",
                "observed max increase",
                "Kim-Vu bound",
                "Kelsen bound",
                "Kelsen/Kim-Vu"
            ],
            &rows
        )
    );
}

/// E7 — decay of the universal potential v₂(H_s) over BL stages (Lemma 5).
fn e7_potential_decay(quick: bool) {
    println!("\n## E7 — Potential v2(H_s) over BL stages (Lemma 5)\n");
    let n = if quick { 512 } else { 2048 };
    let h = uniform_workload(n, 3, 7);
    let mut rng = rng_for(0xE7_0000 + n as u64);
    let cfg = BlConfig {
        track_potentials: true,
        ..BlConfig::default()
    };
    let out = bl_mis(&h, &mut rng, &cfg);
    verify_mis(&h, &out.independent_set).unwrap();
    let pot = Potential::new(n, 3, Recurrence::PaperDSquared);
    let mut rows = Vec::new();
    let step = (out.trace.n_stages() / 12).max(1);
    for (i, s) in out.trace.stages.iter().enumerate() {
        if i % step != 0 && i + 1 != out.trace.n_stages() {
            continue;
        }
        let v = pot.v_log2(&s.deltas_by_dimension);
        let v2 = v.get(2).copied().unwrap_or(f64::NEG_INFINITY);
        rows.push(vec![
            s.stage.to_string(),
            s.n_alive.to_string(),
            s.m.to_string(),
            format!("{:.2}", s.delta),
            if v2.is_finite() {
                format!("{:.1}", v2)
            } else {
                "-inf".into()
            },
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["stage", "alive", "edges", "Δ(H_s)", "log2 v2(H_s)"],
            &rows
        )
    );
}

/// E8 — wall-clock scaling with thread count (work–depth execution).
fn e8_threads(quick: bool) {
    println!("\n## E8 — Wall-clock vs thread count (rayon execution)\n");
    let n = if quick { 20_000 } else { 60_000 };
    let h = paper_workload(n, 8);
    println!("workload: {}\n", HypergraphStats::compute(&h).one_line());
    let mut rows = Vec::new();
    let mut baseline = None;
    for threads in [1usize, 2, 4] {
        let h = h.clone();
        let ms = with_threads(threads, move || {
            let mut rng = rng_for(0xE8_0000);
            let t0 = Instant::now();
            let out = sbl_mis(&h, &mut rng);
            verify_mis(&h, &out.independent_set).unwrap();
            t0.elapsed().as_secs_f64() * 1e3
        });
        let base = *baseline.get_or_insert(ms);
        rows.push(vec![
            threads.to_string(),
            format!("{:.1}", ms),
            format!("{:.2}x", base / ms),
        ]);
    }
    println!(
        "{}",
        markdown_table(&["threads", "SBL wall ms", "speedup vs 1 thread"], &rows)
    );
    println!(
        "note: the CI host exposes {} logical CPU(s); with a single core the speedup column is expected to stay ≈1.0x — the work/depth ratio reported in E1/E5 is the model-level parallelism claim.",
        pram::pool::available_parallelism()
    );
}

/// E9 — special classes: dimension ≤ 3 (Beame–Luby RNC case) and linear
/// hypergraphs (Łuczak–Szymańska).
fn e9_special_classes(quick: bool) {
    println!("\n## E9 — Special classes: 3-uniform and linear hypergraphs\n");
    let mut rows = Vec::new();
    for n in ns(quick, &[512, 2048], &[512]) {
        let h3 = uniform_workload(n, 3, 9);
        let mut rng = rng_for(0xE9_0000 + n as u64);
        let bl = bl_mis(&h3, &mut rng, &BlConfig::default());
        verify_mis(&h3, &bl.independent_set).unwrap();

        let hl = linear_workload(n, 9);
        let lin = linear_mis(&hl, &mut rng).expect("generated hypergraph is linear");
        verify_mis(&hl, &lin.independent_set).unwrap();
        let bl_on_linear = bl_mis(&hl, &mut rng, &BlConfig::default());
        verify_mis(&hl, &bl_on_linear.independent_set).unwrap();

        rows.push(vec![
            n.to_string(),
            bl.trace.n_stages().to_string(),
            hl.n_edges().to_string(),
            lin.trace.n_stages().to_string(),
            bl_on_linear.trace.n_stages().to_string(),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "BL stages (3-uniform)",
                "linear m",
                "LS stages (linear)",
                "BL stages (linear)"
            ],
            &rows
        )
    );
}

/// E10 — where each potential-function recurrence admits the Theorem-2
/// analysis.
fn e10_admissibility() {
    println!("\n## E10 — Admissibility of the Theorem-2 analysis (recurrence comparison)\n");
    let mut rows = Vec::new();
    for log2n in [16u32, 24, 32, 48, 64] {
        let n = if log2n >= 63 {
            usize::MAX
        } else {
            1usize << log2n
        };
        for d in [3u32, 4, 5, 6, 8] {
            let paper = Potential::new(n, d, Recurrence::PaperDSquared);
            let kelsen = Potential::new(n, d, Recurrence::KelsenOriginal);
            let bound = paper
                .theorem2_dimension_bound()
                .map(|b| format!("{b:.2}"))
                .unwrap_or_else(|| "n/a".into());
            rows.push(vec![
                format!("2^{log2n}"),
                d.to_string(),
                bound,
                yesno(paper.closed_form_inequality_holds()),
                yesno(paper.analysis_admissible()),
                yesno(kelsen.analysis_admissible()),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "d",
                "Thm2 d-bound",
                "closed form d(d+1)<=(loglog n)(d^2-8)",
                "paper recurrence admissible",
                "Kelsen recurrence admissible"
            ],
            &rows
        )
    );
}

fn yesno(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "no".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unknown(args: &[&str]) -> Option<String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        unknown_tag(&args).cloned()
    }

    #[test]
    fn a_misspelled_tag_is_rejected() {
        assert_eq!(unknown(&[]), None);
        assert_eq!(unknown(&TAGS.split(' ').collect::<Vec<_>>()), None);
        assert_eq!(unknown(&["E1", "Serve", "net"]), None);
        assert_eq!(unknown(&["serve", "serv"]).as_deref(), Some("serv"));
        assert_eq!(unknown(&["e99"]).as_deref(), Some("e99"));
        assert_eq!(unknown(&["e1 "]).as_deref(), Some("e1 "));
        assert_eq!(unknown(&[""]).as_deref(), Some(""));
    }
}
