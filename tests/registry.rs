//! The epoch-versioned resident registry: snapshot-pinned queries and
//! deterministic edit-log replay.
//!
//! The contract under test (the PR-6 determinism contract): outcomes are a
//! pure function of `(snapshot, log-prefix, algorithm, seed)` —
//!
//! * replaying any prefix of a resident's edit log from any earlier snapshot
//!   reproduces the later snapshot's graph exactly;
//! * a query pinned to an epoch returns byte-identical outcomes no matter
//!   how far the log has grown since;
//! * interleaved mutate/query streams agree outcome-for-outcome across
//!   1/2/4/8 shards, all three routing policies and both collection modes
//!   with the sequential [`BatchRunner`] path, when run against identically
//!   constructed registries mutated at identical stream positions.
//!
//! PR 7 extends the contract across process boundaries: a registry persisted
//! as `(snapshot₀, edit log)` via [`ResidentRegistry::persist`] and restored
//! with [`ResidentRegistry::restore`] answers every epoch-pinned and
//! latest-pinned query byte-identical to the original, a torn WAL tail
//! recovers the longest whole-record prefix (never a mis-parse, never a
//! panic), and retention (`RetentionPolicy::keep_last`) bounds the snapshot
//! count while answering below-floor pins with `EpochEvicted` outcome data.
//!
//! Runs in both the default and `--no-default-features` configurations (it
//! only touches the flat engine).

use hypergraph_mis::hypergraph::io::{ParseError, ReadError};
use hypergraph_mis::prelude::*;
use hypergraph_mis::serve::{SolveError, SolveFingerprint, SolveOutcome};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn base_graph() -> Hypergraph {
    generate::d_uniform(&mut rng(31), 150, 240, 3)
}

/// A fresh registry holding the (seeded, hence identical) base graph —
/// every configuration under test rebuilds its own copy so mutations in one
/// run can never leak into another.
fn fresh_registry() -> (Arc<ResidentRegistry>, GraphId) {
    let mut registry = ResidentRegistry::new();
    let id = registry.register(base_graph());
    (Arc::new(registry), id)
}

/// A deterministic edit batch that is valid at *any* epoch: two fresh
/// vertices joined to existing ones, plus the removal of whatever edge
/// currently sits at a position derived from `k`.
fn edit_batch(registry: &ResidentRegistry, id: GraphId, k: usize) -> Vec<GraphEdit> {
    let snap = registry.latest(id);
    let n = snap.graph().n_vertices() as u32;
    let m = snap.graph().n_edges();
    vec![
        GraphEdit::GrowVertices(2),
        GraphEdit::AddEdge(vec![n, n + 1, (k as u32 * 13) % n]),
        GraphEdit::RemoveEdge(snap.graph().edge(((k * 71 + 5) % m) as u32).to_vec()),
    ]
}

/// A deterministic pseudo-random query set over the base id range (valid at
/// every epoch — mutations only grow the id space).
fn query(size: usize, seed: u64) -> Arc<Vec<u32>> {
    let mut r = rng(0xEC0C ^ seed);
    let n = 150usize;
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for k in 0..size.min(n) {
        let j = rand::Rng::gen_range(&mut r, k..n);
        ids.swap(k, j);
    }
    ids.truncate(size.min(n));
    ids.sort_unstable();
    Arc::new(ids)
}

/// The interleaved mutate/query stream: `Query` submits one request,
/// `Mutate` applies the k-th deterministic edit batch.
#[derive(Clone, Copy)]
enum Step {
    Query(u64),
    Mutate(usize),
}

fn stream() -> Vec<Step> {
    let mut steps = Vec::new();
    let mut k = 0usize;
    for i in 0..30u64 {
        steps.push(Step::Query(i));
        if i % 7 == 6 {
            steps.push(Step::Mutate(k));
            k += 1;
        }
    }
    steps
}

fn request_builder(id: GraphId, seed: u64) -> SolveRequestBuilder {
    let algorithm = match seed % 3 {
        0 => Algorithm::Bl(BlConfig::default()),
        1 => Algorithm::Kuw,
        _ => Algorithm::Greedy,
    };
    let builder = if seed % 5 == 4 {
        SolveRequest::for_graph(id)
    } else {
        SolveRequest::induced(id, query(32, seed))
    };
    builder
        .algorithm(algorithm)
        .seed(0x6E0C_0000 + seed)
        .tenant(TenantId(seed % 3))
}

fn request(id: GraphId, seed: u64) -> SolveRequest {
    request_builder(id, seed).build()
}

/// Replaying any prefix of the edit log from any earlier snapshot lands on
/// the identical graph: for all `j <= k`,
/// `apply_edits(snap_j, log[snap_j.log_len .. snap_k.log_len]) == snap_k`.
#[test]
fn replaying_any_log_prefix_reproduces_every_snapshot() {
    let (registry, id) = fresh_registry();
    for k in 0..5 {
        let batch = edit_batch(&registry, id, k);
        registry.apply(id, &batch).expect("valid edit batch");
    }
    let log = registry.edit_log(id);
    let epochs = registry.current_epoch(id).0 + 1;
    assert_eq!(epochs, 6);
    for j in 0..epochs {
        let from = registry.snapshot_at(id, Epoch(j)).expect("retained");
        for k in j..epochs {
            let to = registry.snapshot_at(id, Epoch(k)).expect("retained");
            let replayed = apply_edits(from.graph(), &log.decode(from.log_len()..to.log_len()))
                .expect("log slices replay cleanly");
            assert!(
                replayed == *to.graph(),
                "replaying log[{}..{}] from epoch {j} did not reproduce epoch {k}",
                from.log_len(),
                to.log_len()
            );
        }
    }
}

/// A query pinned to an epoch returns byte-identical outcomes no matter how
/// many mutations have landed since; `Latest` tracks the head.
#[test]
fn pinned_queries_survive_later_mutations() {
    let (registry, id) = fresh_registry();
    let mut runner = BatchRunner::new();
    // seed % 3 == 2: greedy induced — fully deterministic.
    let pinned = |pin| request_builder(id, 2).pin(pin).build();
    let before = runner
        .solve(&registry, &pinned(EpochPin::At(Epoch(0))))
        .fingerprint();
    for k in 0..4 {
        let batch = edit_batch(&registry, id, k);
        registry.apply(id, &batch).expect("valid edit batch");
        let again = runner
            .solve(&registry, &pinned(EpochPin::At(Epoch(0))))
            .fingerprint();
        assert_eq!(
            again,
            before,
            "epoch-0 pin diverged after {} mutation(s)",
            k + 1
        );
        let latest = runner
            .solve(&registry, &pinned(EpochPin::Latest))
            .fingerprint();
        assert_eq!(
            latest.1,
            Some(Epoch(k as u64 + 1)),
            "Latest tracks the head"
        );
    }
}

/// The headline pin: one interleaved mutate/query stream, run against
/// identically constructed registries with mutations at identical stream
/// positions, agrees outcome-for-outcome across 1/2/4/8 shards × all three
/// routing policies × both collection modes with the sequential
/// `BatchRunner` path.
#[test]
fn interleaved_mutate_query_streams_are_configuration_invariant() {
    let steps = stream();

    // Sequential reference: Latest resolves at execution time, which on
    // this path is submission time — the same logical order every sharded
    // configuration resolves in.
    let reference: Vec<SolveFingerprint> = {
        let (registry, id) = fresh_registry();
        let mut runner = BatchRunner::new();
        let mut fps = Vec::new();
        for step in &steps {
            match *step {
                Step::Query(seed) => {
                    fps.push(runner.solve(&registry, &request(id, seed)).fingerprint())
                }
                Step::Mutate(k) => {
                    let batch = edit_batch(&registry, id, k);
                    registry.apply(id, &batch).expect("valid edit batch");
                }
            }
        }
        fps
    };
    assert!(
        reference.iter().any(|fp| fp.1 != Some(Epoch(0))),
        "the stream must actually cross epochs"
    );

    for policy in [
        RoutePolicy::RoundRobin,
        RoutePolicy::TenantAffinity,
        RoutePolicy::LeastQueued,
    ] {
        for shards in [1usize, 2, 4, 8] {
            for streaming in [false, true] {
                let (registry, id) = fresh_registry();
                let config = ServeConfig {
                    shards,
                    queue_depth: 8,
                    threads_per_shard: Some(1),
                    route: policy,
                    ..ServeConfig::default()
                };
                let mut runner = ShardedRunner::new(Arc::clone(&registry), &config);
                let mut submitted = 0usize;
                for step in &steps {
                    match *step {
                        Step::Query(seed) => {
                            runner.submit(request(id, seed));
                            submitted += 1;
                        }
                        Step::Mutate(k) => {
                            let batch = edit_batch(&registry, id, k);
                            registry.apply(id, &batch).expect("valid edit batch");
                        }
                    }
                }
                let mut outs: Vec<SolveOutcome> = if streaming {
                    runner.collect_streaming(submitted).collect()
                } else {
                    runner.collect_ordered(submitted)
                };
                outs.sort_by_key(|o| o.ticket);
                assert_eq!(outs.len(), reference.len());
                for (i, out) in outs.iter().enumerate() {
                    assert_eq!(
                        out.fingerprint(),
                        reference[i],
                        "{policy:?} shards={shards} streaming={streaming}, request {i}: \
                         outcome diverged from the sequential mutate/query reference"
                    );
                }
            }
        }
    }
}

/// An empty batch is the shared-structure fast path: no epoch bump, no new
/// snapshot, and the returned epoch is the current one.
#[test]
fn empty_batch_does_not_bump_the_epoch() {
    let (registry, id) = fresh_registry();
    assert_eq!(registry.apply(id, &[]).unwrap(), Epoch(0));
    assert_eq!(registry.current_epoch(id), Epoch(0));
    let batch = edit_batch(&registry, id, 0);
    registry.apply(id, &batch).unwrap();
    assert_eq!(registry.apply(id, &[]).unwrap(), Epoch(1));
    assert_eq!(registry.current_epoch(id), Epoch(1));
    assert_eq!(registry.edit_log(id).len(), batch.len());
}

/// A failing batch is atomic: the first offending edit rejects the whole
/// script, leaving epoch, log and snapshot untouched — even when earlier
/// edits in the same batch were individually valid.
#[test]
fn failing_batches_are_atomic() {
    let (registry, id) = fresh_registry();
    let before = registry.latest(id);
    let existing = before.graph().edge(0).to_vec();
    let err = registry
        .apply(
            id,
            &[
                GraphEdit::GrowVertices(5),           // valid
                GraphEdit::AddEdge(existing.clone()), // duplicate: rejects all
            ],
        )
        .unwrap_err();
    assert_eq!(err, EditError::DuplicateEdge(existing));
    assert_eq!(registry.current_epoch(id), Epoch(0));
    assert!(registry.edit_log(id).is_empty());
    let after = registry.latest(id);
    assert!(
        after.graph() == before.graph(),
        "a rejected batch must not modify the graph"
    );
}

/// Pinning an epoch the graph has never reached is an outcome, not a panic —
/// and mutation makes previously unknown epochs addressable.
#[test]
fn unknown_epoch_pins_come_back_as_outcomes() {
    let (registry, id) = fresh_registry();
    let mut runner = BatchRunner::new();
    let at_one = request_builder(id, 2).pin(EpochPin::At(Epoch(1))).build();
    let out = runner.solve(&registry, &at_one);
    assert_eq!(
        out.error,
        Some(SolveError::UnknownEpoch {
            graph: id,
            epoch: Epoch(1)
        })
    );
    assert_eq!(out.epoch, None);
    assert!(out.independent_set.is_empty());

    let batch = edit_batch(&registry, id, 0);
    registry.apply(id, &batch).expect("valid edit batch");
    let out = runner.solve(&registry, &at_one);
    assert!(out.error.is_none(), "epoch 1 exists after one mutation");
    assert_eq!(out.epoch, Some(Epoch(1)));
}

/// A unique scratch path for WAL round-trip tests (tests run concurrently,
/// so names carry the pid and a per-process counter).
fn temp_wal(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "hgmis-registry-{tag}-{}-{k}.wal",
        std::process::id()
    ))
}

/// Growing the vertex id space past `u32` is an `EditError`, never a panic:
/// `apply` returns `IdSpaceOverflow` with the epoch and edit log untouched,
/// and `restore` of a WAL whose batch overflows (every record checksums
/// clean) reports `ReadError::Parse` and leaves the registry unchanged.
#[test]
fn id_space_overflow_is_an_error_not_a_panic() {
    let overflow = [
        GraphEdit::GrowVertices(u32::MAX),
        GraphEdit::GrowVertices(1),
    ];
    let (registry, id) = fresh_registry();
    let before = registry.latest(id);
    assert_eq!(
        registry.apply(id, &overflow).unwrap_err(),
        EditError::IdSpaceOverflow {
            n: 150,
            extra: u32::MAX
        }
    );
    assert_eq!(registry.current_epoch(id), Epoch(0));
    assert!(registry.edit_log(id).is_empty());
    assert!(registry.latest(id).graph() == before.graph());

    let path = temp_wal("overflow");
    hypergraph_mis::hypergraph::io::write_wal(&path, 0, &base_graph(), &[&overflow])
        .expect("write WAL");
    let mut fresh = ResidentRegistry::new();
    let kept = fresh.register(base_graph());
    let err = fresh.restore(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(
            err,
            ReadError::Parse(ParseError::CorruptWalRecord { record: 1, .. })
        ),
        "{err}"
    );
    assert_eq!(fresh.len(), 1, "the half-restored graph must be dropped");
    assert_eq!(fresh.current_epoch(kept), Epoch(0));
    assert!(fresh.edit_log(kept).is_empty());
}

/// The headline durability pin: a registry persisted mid-mutation-stream and
/// restored into a fresh registry answers every epoch-pinned and
/// latest-pinned query byte-identical to the original — same epochs, same
/// `log_len` watermarks, same solve fingerprints.
#[test]
fn persisted_and_restored_registries_answer_identically() {
    let (registry, id) = fresh_registry();
    for k in 0..5 {
        let batch = edit_batch(&registry, id, k);
        registry.apply(id, &batch).expect("valid edit batch");
    }
    let path = temp_wal("roundtrip");
    registry.persist(id, &path).expect("persist");
    let mut restored = ResidentRegistry::new();
    let rid = restored.restore(&path).expect("restore");
    std::fs::remove_file(&path).ok();

    assert_eq!(restored.base_epoch(rid), registry.base_epoch(id));
    assert_eq!(restored.current_epoch(rid), registry.current_epoch(id));
    assert_eq!(restored.edit_log(rid), registry.edit_log(id));
    let epochs = registry.current_epoch(id).0 + 1;
    for e in 0..epochs {
        let a = registry.snapshot_at(id, Epoch(e)).expect("retained");
        let b = restored
            .snapshot_at(rid, Epoch(e))
            .expect("restore rebuilds every epoch");
        assert_eq!(a.log_len(), b.log_len(), "epoch {e} log watermark");
        assert!(a.graph() == b.graph(), "epoch {e} graph diverged");
    }

    let mut ra = BatchRunner::new();
    let mut rb = BatchRunner::new();
    for seed in 0..9u64 {
        for e in 0..epochs {
            let pa = request_builder(id, seed)
                .pin(EpochPin::At(Epoch(e)))
                .build();
            let pb = request_builder(rid, seed)
                .pin(EpochPin::At(Epoch(e)))
                .build();
            assert_eq!(
                ra.solve(&registry, &pa).fingerprint(),
                rb.solve(&restored, &pb).fingerprint(),
                "epoch-{e}-pinned query {seed} diverged across the persist/restore boundary"
            );
        }
        assert_eq!(
            ra.solve(&registry, &request(id, seed)).fingerprint(),
            rb.solve(&restored, &request(rid, seed)).fingerprint(),
            "latest-pinned query {seed} diverged across the persist/restore boundary"
        );
    }
}

/// Truncating the WAL at *every* byte boundary either restores the longest
/// whole-record prefix of the original registry or reports
/// `ReadError::Parse` — never a panic, never a registry built from a
/// half-written record.
#[test]
fn torn_wal_tails_restore_a_whole_record_prefix() {
    let mut registry = ResidentRegistry::new();
    let id = registry.register(generate::d_uniform(&mut rng(77), 30, 40, 3));
    for k in 0..3 {
        let batch = edit_batch(&registry, id, k);
        registry.apply(id, &batch).expect("valid edit batch");
    }
    let path = temp_wal("torn");
    registry.persist(id, &path).expect("persist");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();

    let log = registry.edit_log(id);
    let cut_path = temp_wal("torn-cut");
    let mut recovered = std::collections::BTreeSet::new();
    for cut in 0..=bytes.len() {
        std::fs::write(&cut_path, &bytes[..cut]).expect("write truncation");
        let mut fresh = ResidentRegistry::new();
        match fresh.restore(&cut_path) {
            Ok(rid) => {
                let k = fresh.current_epoch(rid).0;
                recovered.insert(k);
                let watermark = registry
                    .snapshot_at(id, Epoch(k))
                    .expect("recovered epoch exists in the original")
                    .log_len();
                assert_eq!(
                    fresh.edit_log(rid).decode(..),
                    log.decode(..watermark),
                    "cut at byte {cut}: recovered log is not a whole-record prefix"
                );
                assert!(
                    fresh.latest(rid).graph()
                        == registry.snapshot_at(id, Epoch(k)).unwrap().graph(),
                    "cut at byte {cut}: recovered graph diverged from epoch {k}"
                );
            }
            Err(ReadError::Parse(_)) => {} // corrupt-not-torn: error as data
            Err(ReadError::Io(e)) => panic!("cut at byte {cut}: unexpected io error: {e}"),
        }
    }
    std::fs::remove_file(&cut_path).ok();
    assert_eq!(
        recovered.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2, 3],
        "every whole-record prefix length must be recoverable"
    );
}

/// `keep_last = K` bounds the snapshot count at `K + 2` (base + latest are
/// always retained) without perturbing latest-pinned outcomes, and answers
/// below-floor pins with `EpochEvicted` — as outcome data, through both the
/// sequential and the sharded path.
#[test]
fn retention_bounds_snapshots_and_reports_evictions_as_outcomes() {
    const K: u64 = 2;
    let mut keep = ResidentRegistry::with_retention(RetentionPolicy::keep_last(K));
    let id = keep.register(base_graph());
    let keep = Arc::new(keep);
    let (all, all_id) = fresh_registry(); // keep-all reference
    for k in 0..6 {
        let batch = edit_batch(&all, all_id, k);
        keep.apply(id, &batch).expect("valid edit batch");
        all.apply(all_id, &batch).expect("valid edit batch");
        assert!(
            keep.retained_snapshots(id) <= (K + 2) as usize,
            "snapshot count must stay bounded under sustained mutation"
        );
    }
    assert_eq!(keep.current_epoch(id), Epoch(6));
    let floor = keep.retention_floor(id);
    assert_eq!(floor, Epoch(5));
    assert_eq!(keep.evictions(id), 4); // epochs 1..=4 dropped

    // Retention never perturbs what Latest answers.
    let mut ra = BatchRunner::new();
    let mut rb = BatchRunner::new();
    for seed in 0..6u64 {
        assert_eq!(
            ra.solve(&keep, &request(id, seed)).fingerprint(),
            rb.solve(&all, &request(all_id, seed)).fingerprint(),
            "latest-pinned query {seed} diverged between keep_last and keep-all"
        );
    }

    // Three-way pin semantics, all as outcome data.
    let at = |e| request_builder(id, 2).pin(EpochPin::At(Epoch(e))).build();
    assert!(
        ra.solve(&keep, &at(0)).error.is_none(),
        "base stays resident"
    );
    assert!(
        ra.solve(&keep, &at(5)).error.is_none(),
        "floor stays resident"
    );
    let out = ra.solve(&keep, &at(3));
    assert_eq!(
        out.error,
        Some(SolveError::EpochEvicted {
            graph: id,
            epoch: Epoch(3),
            floor,
        })
    );
    assert_eq!(out.epoch, None);
    assert!(out.independent_set.is_empty());
    assert_eq!(
        ra.solve(&keep, &at(9)).error,
        Some(SolveError::UnknownEpoch {
            graph: id,
            epoch: Epoch(9),
        })
    );

    // The sharded path answers identically.
    let config = ServeConfig {
        shards: 2,
        queue_depth: 8,
        threads_per_shard: Some(1),
        ..ServeConfig::default()
    };
    let mut runner = ShardedRunner::new(Arc::clone(&keep), &config);
    for _ in 0..3 {
        runner.submit(at(3));
    }
    for out in runner.collect_ordered(3) {
        assert_eq!(
            out.error,
            Some(SolveError::EpochEvicted {
                graph: id,
                epoch: Epoch(3),
                floor,
            })
        );
    }
}

/// `edit_log` hands out the live `Arc` — O(1), no per-call clone — and a
/// held log is an immutable snapshot: later mutation copies-on-write instead
/// of mutating what the caller holds.
#[test]
fn edit_log_is_shared_not_recloned() {
    let (registry, id) = fresh_registry();
    let batch = edit_batch(&registry, id, 0);
    registry.apply(id, &batch).expect("valid edit batch");
    let a1 = registry.edit_log(id);
    let a2 = registry.edit_log(id);
    assert!(
        Arc::ptr_eq(&a1, &a2),
        "edit_log must return the same Arc, not a fresh clone"
    );
    let next = edit_batch(&registry, id, 1);
    registry.apply(id, &next).expect("valid edit batch");
    assert_eq!(a1.len(), batch.len(), "held logs are immutable snapshots");
    assert_eq!(registry.edit_log(id).len(), batch.len() + next.len());
}

/// Specification of one random-but-valid edit: materialized against the
/// current graph state, so scripts never reference stale structure.
fn materialize_edit(graph: &Hypergraph, spec: (u8, u64)) -> GraphEdit {
    let (kind, r) = spec;
    let n = graph.n_vertices() as u32;
    let m = graph.n_edges();
    match kind % 3 {
        // Always-fresh edge: one new vertex guarantees no duplicate.
        0 => GraphEdit::AddEdge(vec![(r % n as u64) as u32, n]),
        1 if m > 0 => GraphEdit::RemoveEdge(graph.edge((r % m as u64) as u32).to_vec()),
        _ => GraphEdit::GrowVertices((r % 3) as u32 + 1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random edit scripts, random batch boundaries: every snapshot is
    /// reproducible from every earlier one by replaying the log slice, and
    /// a pinned solve of each epoch equals (payload-for-payload) a solve of
    /// the replayed graph registered in a fresh registry.
    #[test]
    fn prop_random_edit_scripts_replay_deterministically(
        specs in prop::collection::vec((any::<u8>(), any::<u64>()), 1..16),
        boundaries in prop::collection::btree_set(0usize..16, 0..4),
        query_seed in 0u64..1000,
    ) {
        let (registry, id) = fresh_registry();
        // Apply the script in batches, tracking expectations separately.
        let mut batch: Vec<GraphEdit> = Vec::new();
        for (i, &spec) in specs.iter().enumerate() {
            // Materialize against base ⊕ log ⊕ pending batch — exactly what
            // the registry will see when the batch lands.
            let staged = {
                let snap = registry.latest(id);
                apply_edits(snap.graph(), &batch).expect("staged prefix is valid")
            };
            // A grow edit must precede any AddEdge that uses the new vertex
            // id; materialize_edit's AddEdge case references vertex `n`, so
            // grow first.
            let edit = materialize_edit(&staged, spec);
            if matches!(edit, GraphEdit::AddEdge(_)) {
                batch.push(GraphEdit::GrowVertices(1));
            }
            batch.push(edit);
            if boundaries.contains(&i) {
                registry.apply(id, &batch).expect("materialized batch is valid");
                batch.clear();
            }
        }
        if !batch.is_empty() {
            registry.apply(id, &batch).expect("materialized batch is valid");
        }

        let log = registry.edit_log(id);
        let epochs = registry.current_epoch(id).0 + 1;
        let mut runner = BatchRunner::new();
        for k in 0..epochs {
            let snap = registry.snapshot_at(id, Epoch(k)).expect("retained");
            // (1) Structural replay: epoch k from epoch 0.
            let replayed = apply_edits(&base_graph(), &log.decode(..snap.log_len()))
                .expect("log prefix replays");
            prop_assert!(replayed == *snap.graph(), "epoch {} structural replay", k);
            // (2) Outcome replay: a pinned solve against the registry equals
            // the same solve against the replayed graph in a fresh registry
            // (payload-for-payload; the fresh registry is at epoch 0, so the
            // epoch field is compared separately).
            let pinned = request_builder(id, query_seed % 30)
                .pin(EpochPin::At(Epoch(k)))
                .build();
            let out = runner.solve(&registry, &pinned);
            prop_assert_eq!(out.epoch, Some(Epoch(k)));

            let mut fresh = ResidentRegistry::new();
            let fresh_id = fresh.register(replayed);
            let fresh_req = request_builder(fresh_id, query_seed % 30)
                .pin(EpochPin::Latest)
                .build();
            let fresh_out = BatchRunner::new().solve(&fresh, &fresh_req);
            let a = out.fingerprint();
            let b = fresh_out.fingerprint();
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(&a.2, &b.2);
            prop_assert_eq!((a.3, a.4, a.5), (b.3, b.4, b.5));
            prop_assert_eq!(&a.6, &b.6);
            prop_assert_eq!(&a.7, &b.7);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random edit scripts with random batch boundaries survive a full
    /// persist → restore round trip: identical epochs, identical log,
    /// identical per-epoch graphs and identical solve fingerprints.
    #[test]
    fn prop_wal_round_trip_is_byte_identical(
        specs in prop::collection::vec((any::<u8>(), any::<u64>()), 1..12),
        boundaries in prop::collection::btree_set(0usize..12, 0..4),
        query_seed in 0u64..1000,
    ) {
        let (registry, id) = fresh_registry();
        let mut batch: Vec<GraphEdit> = Vec::new();
        for (i, &spec) in specs.iter().enumerate() {
            let staged = {
                let snap = registry.latest(id);
                apply_edits(snap.graph(), &batch).expect("staged prefix is valid")
            };
            let edit = materialize_edit(&staged, spec);
            if matches!(edit, GraphEdit::AddEdge(_)) {
                batch.push(GraphEdit::GrowVertices(1));
            }
            batch.push(edit);
            if boundaries.contains(&i) {
                registry.apply(id, &batch).expect("materialized batch is valid");
                batch.clear();
            }
        }
        if !batch.is_empty() {
            registry.apply(id, &batch).expect("materialized batch is valid");
        }

        let path = temp_wal("prop");
        registry.persist(id, &path).expect("persist");
        let mut restored = ResidentRegistry::new();
        let rid = restored.restore(&path).expect("restore");
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(restored.current_epoch(rid), registry.current_epoch(id));
        prop_assert_eq!(restored.edit_log(rid), registry.edit_log(id));
        let epochs = registry.current_epoch(id).0 + 1;
        for e in 0..epochs {
            let a = registry.snapshot_at(id, Epoch(e)).expect("retained");
            let b = restored.snapshot_at(rid, Epoch(e)).expect("restored");
            prop_assert!(a.log_len() == b.log_len(), "epoch {} watermark", e);
            prop_assert!(a.graph() == b.graph(), "epoch {} graph", e);
        }
        let qa = request(id, query_seed % 30);
        let qb = request(rid, query_seed % 30);
        prop_assert_eq!(
            BatchRunner::new().solve(&registry, &qa).fingerprint(),
            BatchRunner::new().solve(&restored, &qb).fingerprint()
        );
    }
}
