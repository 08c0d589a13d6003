//! The tenant-aware sharded serving subsystem: a worker-pool layer that fans
//! a stream of MIS solve requests across N shards with deterministic stream
//! semantics, shard routing by tenant, per-tenant admission control and a
//! choice of ordered or streaming collection.
//!
//! # Architecture
//!
//! ```text
//!          admission (token bucket + in-flight caps, per tenant)
//!                    │ admitted            route (RoundRobin / TenantAffinity / LeastQueued)
//! client (tickets) ──┤          submit() ──► bounded queue ──► shard 0 (owns Workspace 0)─┐ collect_ordered()
//!                    │          submit() ──► bounded queue ──► shard 1 (owns Workspace 1)─┼─►      or
//!                    │ denied   submit() ──► bounded queue ──► shard 2 (owns Workspace 2)─┘ collect_streaming()
//!                    ▼                                ▲                     │ read-only
//!            AdmissionDenied outcome                  │              Arc<ResidentRegistry>
//! ```
//!
//! A [`ShardedRunner`] owns N long-lived worker threads (hosted by
//! [`pram::pool::spawn_worker`]). Each worker owns one [`Workspace`] and
//! runs every request it dequeues through the execution core of
//! [`BatchRunner::solve`](crate::batch::BatchRunner::solve) — the
//! single-shard special case *is* the batch runner.
//! [`ShardedRunner::shutdown`] hands the workspaces back in shard order and
//! [`ShardedRunner::with_workspaces`] gives shard `i` the `i`-th, so parked
//! engines and warmed buffers stay **shard-local** across serve generations.
//! Admitted requests are distributed over per-shard **bounded** queues by the
//! configured [`RoutePolicy`]: [`ShardedRunner::submit`] blocks once the
//! target shard's queue is full (backpressure), while results flow back over
//! an unbounded channel so workers never block. (The [`net`](crate::net)
//! front-end skips that channel: each wire request carries a reply, and the
//! shard that computes the outcome queues it on the connection's writer.)
//!
//! Resident graphs live in a [`ResidentRegistry`] — **epoch-versioned and
//! mutable mid-stream**. Each resident graph carries an append-only
//! [`EditLog`] of [`GraphEdit`]s; [`ResidentRegistry::apply`] bumps the graph's
//! [`Epoch`] and publishes the next immutable [`ResidentSnapshot`]
//! (copy-on-write: older snapshots are shared untouched, so mutation never
//! blocks or invalidates readers). Workers only ever read snapshots, each
//! one shared [`Hypergraph`], deriving per-query sub-instances from its CSR
//! into their own shard-local engines.
//!
//! # Tenancy
//!
//! Every [`SolveRequest`] carries a [`TenantId`]. Three things key off it:
//!
//! * **Routing** — [`RoutePolicy::TenantAffinity`] sends a tenant's whole
//!   stream to one stable shard (a platform-independent hash of the id), so
//!   its resident/induced queries rewarm the *same* shard-local parked
//!   engines generation after generation. The win is observable in
//!   [`TenantStats::shards`]: one shard per tenant, where round-robin
//!   routing lists every shard.
//! * **Admission** — [`AdmissionConfig`] layers per-tenant token buckets and
//!   in-flight caps on top of the bounded queues. A request over quota is
//!   *not* an error path: it consumes a ticket and comes back through the
//!   normal collection machinery as an outcome with
//!   [`SolveError::AdmissionDenied`] — rejection as data, never a panic and
//!   never a silently dropped ticket.
//! * **Accounting** — [`ShardedRunner::stats`] reports submissions,
//!   admissions, denials and deliveries per tenant and routing per shard in
//!   a [`ServeStats`].
//!
//! # Collection modes
//!
//! [`ShardedRunner::collect_ordered`] delivers in submission-ticket order
//! regardless of which shard finished first (buffering out-of-order
//! arrivals). [`ShardedRunner::collect_streaming`] is the latency-optimal
//! dual: an iterator yielding outcomes **as they complete**, out of order,
//! each still carrying its ticket. The two modes interoperate on one runner
//! — a later ordered collect skips tickets already streamed.
//!
//! # Determinism contract
//!
//! Every **admitted** request's outcome is a **pure function of `(snapshot,
//! algorithm, seed)`**: the per-request RNG is derived from
//! [`SolveRequest::seed`], the workspace never influences results (the PR-3
//! contract), and the snapshot a request runs against is fixed at
//! submission time — [`SolveRequest::pin`] defaults to [`EpochPin::Latest`],
//! which [`ShardedRunner::submit`] resolves to a concrete [`Epoch`] before
//! the request is enqueued, so a mutation landing while the request waits in
//! a shard queue can never retarget it. The resolved epoch is echoed in
//! [`SolveOutcome::epoch`] and participates in the fingerprint. Routing
//! policy, shard count, queue depth, scheduling, thread count and collection
//! mode may change wall time and *completion order* but never a single
//! independent set, trace or cost total — `tests/serve.rs` and
//! `tests/registry.rs` pin outcomes (including interleaved mutate/query
//! streams) across all three policies × 1/2/4/8 shards × both collection
//! modes against the sequential
//! [`BatchRunner::solve`](crate::batch::BatchRunner::solve) path.
//!
//! Because snapshots are reproducible from the edit log — epoch `k` is
//! exactly epoch `0` plus the log prefix of length
//! [`ResidentSnapshot::log_len`], and [`hypergraph::edit::apply_edits`]
//! composes across any prefix split — the full contract is: outcomes are a
//! pure function of **`(snapshot, log-prefix, algorithm, seed)`**, and
//! replaying any prefix of a resident's edit log from any earlier snapshot
//! reproduces every pinned outcome byte-for-byte.
//!
//! # Durability contract
//!
//! The edit log *is* a write-ahead log, and the registry can prove it:
//! [`ResidentRegistry::persist`] writes a graph's `(base snapshot, edit
//! log)` to the checksummed, versioned on-disk format of
//! [`hypergraph::io::write_wal`] (atomically — write-temp-then-rename), and
//! [`ResidentRegistry::restore`] replays it through the ordinary
//! [`apply`](ResidentRegistry::apply) path to reproduce a byte-identical
//! registry entry: same epoch numbers, same
//! [`log_len`](ResidentSnapshot::log_len) watermarks, same solve
//! fingerprints for every epoch-pinned and latest-pinned query. The
//! determinism contract is therefore also **cross-process**: `(persisted
//! snapshot₀ + log prefix, algorithm, seed)` fixes the outcome on whatever
//! machine replays the WAL. A torn tail — a crash mid-append — is detected
//! by per-record checksums and truncated at the last whole record (an epoch
//! boundary, since the WAL stores one record per edit batch), never parsed
//! into garbage; see [`hypergraph::io::read_wal`].
//!
//! # Storage tiers and spill
//!
//! A resident graph's base CSR arena lives in one of three tiers, all
//! serving byte-identical outcomes (the mapped-vs-owned fingerprint suites
//! pin this across every algorithm):
//!
//! * **Owned** — [`ResidentRegistry::register`] with an in-memory
//!   [`Hypergraph`]: the arena is heap `Vec`s, built by parsing or
//!   generation. Cold-start cost is the full parse + build.
//! * **WAL-restored** — [`ResidentRegistry::restore`]: the base graph is
//!   decoded from the WAL (owned arena again) and the edit log replayed
//!   batch-by-batch, reproducing every epoch. Cold-start cost scales with
//!   the log.
//! * **Mapped** — [`ResidentRegistry::persist_snapshot`] writes the current
//!   graph as a binary `HGCSR` checkpoint; [`ResidentRegistry::open_mapped`]
//!   re-opens it **zero-copy**: the four CSR arrays are served straight out
//!   of one read-only file mapping shared by every shard (validated
//!   structurally up front — a corrupt file is a parse error, never a
//!   crash; see [`hypergraph::io::open_mapped`]). Nothing copies the mapped
//!   slices onto the heap, so first-query latency is the validation plus
//!   the query — the `coldstart` bench gates it at ≥ 5× faster than
//!   parse + build on the largest workloads.
//!
//! The tiers compose: a mapped graph is mutable like any other —
//! [`apply`](ResidentRegistry::apply) layers the epoch log *on top of* the
//! mapped base (mmap'd base + in-memory log tail), with copy-on-write
//! snapshots exactly as for owned graphs.
//! [`storage_kind`](hypergraph::HypergraphView::storage_kind) and
//! [`Hypergraph::bytes_resident`] report where an arena lives and what it
//! costs ([`hypergraph::HypergraphStats`] carries both).
//!
//! On top of the mapped tier sits an out-of-core policy:
//! [`ResidentRegistry::with_spill`] bounds the total resident base-arena
//! bytes. When the pool exceeds [`SpillPolicy::max_resident_bytes`], the
//! registry drops the snapshots of least-recently-touched **spillable**
//! graphs — mapped, never mutated (an edit log pins a graph: its epochs
//! exist nowhere on disk) — and transparently pages them back in from their
//! source files on the next touch. Spills and page-ins are counted per
//! graph ([`ResidentRegistry::spills`] / [`page_ins`](ResidentRegistry::page_ins)),
//! whether a query or an [`apply`](ResidentRegistry::apply) paged the graph
//! in. A graph whose source file has meanwhile disappeared answers requests with
//! [`SolveError::SnapshotUnavailable`] — an outcome, not a panic.
//!
//! # Retention and compaction
//!
//! By default every snapshot is retained (the `keep-all` of
//! [`RetentionPolicy::default`]), so any epoch stays addressable forever at
//! memory cost proportional to the version chain. A registry built with
//! [`ResidentRegistry::with_retention`] and `keep_last: Some(k)` instead
//! drops snapshot `Arc`s below the **retention floor** — only the base
//! epoch (always), and the latest `k` epochs stay resident, bounding the
//! snapshot count by `k + 1` regardless of how many epochs accumulate,
//! while the *log stays complete*, so evicted epochs remain replayable from disk
//! or via [`edit_log`](ResidentRegistry::edit_log). The log is the part
//! that keeps growing: a flat [`EditLog`] of one header word per edit plus
//! the edit's vertex ids, 16 bytes per 3-vertex edit. Pinning an epoch below
//! the floor ([`EpochPin::At`]) answers with
//! [`SolveError::EpochEvicted`] — outcome data carrying the floor, never a
//! panic — and is **distinct from** [`SolveError::UnknownEpoch`], which
//! keeps meaning "never reached". In-flight requests are safe by
//! construction: [`ShardedRunner::submit`] resolves the pin to a snapshot
//! `Arc` *at submission time*, so an eviction (or compaction) landing while
//! the request waits in a shard queue cannot change its answer — exactly
//! the MVCC rule that a reader's snapshot stays alive for as long as the
//! reader holds it.
//!
//! [`ResidentRegistry::compact`] re-bases a graph's history onto its
//! current snapshot: the log empties, the current epoch becomes the base
//! epoch (epoch *numbers* are preserved — existing pins keep their
//! meaning), and earlier epochs become [`SolveError::EpochEvicted`]. Use it
//! for graphs whose tenants never pin history; persist first if the history
//! should survive.
//!
//! Admission decisions are themselves deterministic for a fixed
//! submit/collect call sequence under `RoundRobin` and `TenantAffinity`
//! (token buckets refill on *logical* time — submission attempts — and
//! in-flight counts change only at submit and delivery, both caller-driven
//! in the library). On the [`net`](crate::net) front-end a wire request's
//! in-flight count drops when its shard hands off the reply, so wire
//! admission depends on scheduling. `LeastQueued` routes by queue depth,
//! which each shard decrements as it finishes a request, and is therefore
//! scheduling-dependent in *placement* (outcomes are still invariant).
//!
//! ```
//! use hypergraph_mis::serve::{
//!     Algorithm, Epoch, EpochPin, ResidentRegistry, RoutePolicy, ServeConfig, ShardedRunner,
//!     SolveRequest, Target, TenantId,
//! };
//! use hypergraph_mis::prelude::*;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use std::sync::Arc;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(1);
//! let mut registry = ResidentRegistry::new();
//! let resident = registry.register(generate::paper_regime(&mut rng, 200, 40, 8));
//! let registry = Arc::new(registry);
//!
//! let mut runner = ShardedRunner::new(
//!     Arc::clone(&registry),
//!     &ServeConfig {
//!         shards: 2,
//!         queue_depth: 16,
//!         threads_per_shard: Some(1),
//!         route: RoutePolicy::TenantAffinity,
//!         ..ServeConfig::default()
//!     },
//! );
//! for seed in 0..6u64 {
//!     // `EpochPin::Latest` (the default) is resolved to a concrete epoch
//!     // at submit time.
//!     runner.submit(
//!         SolveRequest::for_graph(resident)
//!             .seed(seed)
//!             .tenant(TenantId(seed % 2))
//!             .build(),
//!     );
//! }
//! // Mutate mid-stream: the six in-flight requests stay pinned to epoch 0.
//! let bumped = registry
//!     .apply(resident, &[GraphEdit::GrowVertices(8)])
//!     .unwrap();
//! assert_eq!(bumped, Epoch(1));
//! let outcomes = runner.collect_ordered(6);
//! assert_eq!(outcomes.len(), 6);
//! let pinned = registry.snapshot_at(resident, Epoch(0)).unwrap();
//! for (i, out) in outcomes.iter().enumerate() {
//!     assert_eq!(out.ticket, i as u64);
//!     assert_eq!(out.epoch, Some(Epoch(0)));
//!     assert!(verify_mis(pinned.graph(), &out.independent_set).is_ok());
//! }
//! let stats = runner.stats();
//! assert_eq!(stats.per_tenant.len(), 2);
//! assert!(stats.per_tenant.iter().all(|t| t.denied() == 0));
//! ```

use hypergraph::degree::MAX_ENUMERABLE_DIMENSION;
use hypergraph::edit::{apply_edits, EditError, EditLog, GraphEdit};
use hypergraph::io::{ParseError, ReadError};
use hypergraph::{ActiveHypergraph, Hypergraph, VertexId};
use mis_core::linear::LinearError;
use mis_core::prelude::*;
use pram::cost::CostTracker;
use pram::Workspace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::thread::JoinHandle;

/// Identifies the tenant a [`SolveRequest`] belongs to.
///
/// The id is caller-chosen and opaque to the serving layer; it drives
/// affinity routing ([`RoutePolicy::TenantAffinity`]), admission control
/// ([`AdmissionConfig`]) and per-tenant accounting
/// ([`ServeStats::per_tenant`]). It never influences a solve's result
/// — outcomes stay pure functions of `(graph, algorithm, seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u64);

/// How a [`ShardedRunner`] assigns admitted requests to worker shards.
///
/// Routing never changes an outcome — only *which shard* computes it and
/// therefore wall time and completion order. See the
/// [determinism contract](self#determinism-contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// `ticket % shards` — the PR-4 behavior and the default. Deterministic
    /// for a fixed stream.
    #[default]
    RoundRobin,
    /// A stable, platform-independent hash of the [`TenantId`] picks the
    /// tenant's home shard: all of a tenant's requests land on one shard, so
    /// its queries rewarm the same parked engines in that shard's
    /// [`Workspace`]. Deterministic for a fixed stream.
    TenantAffinity,
    /// Each request goes to the shard with the fewest requests currently
    /// queued or executing (ties break to the lowest shard index). Placement
    /// is scheduling-dependent — outcomes still are not.
    LeastQueued,
}

impl RoutePolicy {
    /// Short stable name (used in stats, logs and bench tables).
    pub fn name(&self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "round_robin",
            RoutePolicy::TenantAffinity => "tenant_affinity",
            RoutePolicy::LeastQueued => "least_queued",
        }
    }
}

/// The stable tenant → shard map behind [`RoutePolicy::TenantAffinity`]:
/// SplitMix64 on the tenant id, reduced mod the shard count. Pure integer
/// arithmetic — identical on every platform and every run, so a replayed
/// stream lands on the same shards.
pub fn affinity_shard(tenant: TenantId, shards: usize) -> usize {
    let mut z = tenant.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards.max(1) as u64) as usize
}

/// A per-tenant admission quota: a token bucket over *logical* time plus an
/// optional in-flight cap. See [`AdmissionConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Token-bucket capacity; also the initial fill when the runner first
    /// sees the tenant. Every admitted request consumes one token.
    pub burst: u64,
    /// One token refills per this many [`submit`](ShardedRunner::submit)
    /// calls observed by the runner (*any* tenant's — logical time, so
    /// admission stays replay-deterministic; wall clocks never participate).
    /// `0` disables refill: the tenant gets exactly `burst` admissions.
    pub refill_every: u64,
    /// Maximum admitted-but-not-yet-delivered requests. A submit over the
    /// cap is denied with [`DenyReason::InFlightCap`]. `None` = uncapped.
    pub max_in_flight: Option<u64>,
}

impl TenantQuota {
    /// An unlimited quota (admits everything) — useful as an explicit
    /// override when [`AdmissionConfig::default_quota`] restricts tenants.
    pub fn unlimited() -> Self {
        TenantQuota {
            burst: u64::MAX,
            refill_every: 0,
            max_in_flight: None,
        }
    }
}

/// Per-tenant admission control for a [`ShardedRunner`].
///
/// The default admits everything (no quotas — PR-4 behavior). A tenant's
/// effective quota is its [`per_tenant`](Self::per_tenant) entry if present,
/// else [`default_quota`](Self::default_quota), else unlimited. Denials are
/// outcomes, not errors: see [`SolveError::AdmissionDenied`].
#[derive(Debug, Clone, Default)]
pub struct AdmissionConfig {
    /// Quota applied to tenants without a [`per_tenant`](Self::per_tenant)
    /// entry. `None` = unlimited.
    pub default_quota: Option<TenantQuota>,
    /// Explicit per-tenant quotas (first match wins).
    pub per_tenant: Vec<(TenantId, TenantQuota)>,
}

impl AdmissionConfig {
    /// The effective quota for `tenant` (`None` = unlimited).
    pub fn quota_for(&self, tenant: TenantId) -> Option<TenantQuota> {
        self.per_tenant
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|&(_, q)| q)
            .or(self.default_quota)
    }
}

/// Why an admission-controlled request was denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenyReason {
    /// The tenant's token bucket was empty.
    QuotaExhausted,
    /// The tenant was at its in-flight cap
    /// ([`TenantQuota::max_in_flight`]).
    InFlightCap,
}

/// Handle to a graph registered in a [`ResidentRegistry`]. The handle
/// remembers *which* registry minted it (a process-unique tag), so an id
/// from one registry can never silently resolve against another — a foreign
/// id is [`SolveError::UnknownGraph`] on the request path and a panic on the
/// direct accessors, never another tenant's graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GraphId {
    registry: u64,
    index: usize,
}

impl GraphId {
    /// The `(registry tag, index)` pair the wire codec transmits. A decoded
    /// pair that does not name a graph in the serving registry resolves to
    /// [`SolveError::UnknownGraph`] on the request path, so round-tripping
    /// foreign ids is safe — they can name, but never alias, a graph.
    pub(crate) fn wire_parts(self) -> (u64, u64) {
        (self.registry, self.index as u64)
    }

    /// Rebuilds a handle from its wire parts (see
    /// [`wire_parts`](Self::wire_parts)).
    pub(crate) fn from_wire_parts(registry: u64, index: u64) -> Self {
        GraphId {
            registry,
            index: index as usize,
        }
    }
}

/// A resident graph's version number: epoch 0 is the graph as registered,
/// and every successful [`ResidentRegistry::apply`] bumps it by one. Epoch
/// `k` corresponds to the prefix of the graph's edit log that produced it
/// (see [`ResidentSnapshot::log_len`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u64);

/// Which epoch of a resident graph a [`SolveRequest`] runs against.
///
/// `Latest` is resolved to a concrete epoch **at submission time** — by
/// [`ShardedRunner::submit`] before the request is enqueued, or by
/// [`BatchRunner::solve`](crate::batch::BatchRunner::solve) as it executes —
/// so an in-flight request is never retargeted by a mutation that lands
/// while it waits in a shard queue. The resolved epoch is echoed back in
/// [`SolveOutcome::epoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EpochPin {
    /// The graph's current epoch at the moment the request is submitted.
    #[default]
    Latest,
    /// A specific epoch; a value the graph has never reached comes back as
    /// [`SolveError::UnknownEpoch`], one it reached but whose snapshot the
    /// retention policy (or a [`compact`](ResidentRegistry::compact))
    /// dropped as [`SolveError::EpochEvicted`].
    At(Epoch),
}

/// One immutable version of a resident graph: the [`Hypergraph`] at a given
/// [`Epoch`], its only copy (induced queries read its CSR through
/// [`ActiveHypergraph::reset_induced`]). Snapshots are shared (`Arc`)
/// between the registry, in-flight requests and callers, so a mutation can
/// never invalidate a pinned query — old epochs stay answerable as long as
/// anything references them.
#[derive(Debug)]
pub struct ResidentSnapshot {
    epoch: Epoch,
    log_len: usize,
    // Arc'd so compaction can re-base a snapshot (same graph, log_len 0)
    // without copying it.
    graph: Arc<Hypergraph>,
    // Filled only by `engine()`; no serving path calls it.
    engine: OnceLock<ActiveHypergraph>,
}

impl ResidentSnapshot {
    fn new(epoch: Epoch, log_len: usize, graph: Arc<Hypergraph>) -> Arc<Self> {
        Arc::new(ResidentSnapshot {
            epoch,
            log_len,
            graph,
            engine: OnceLock::new(),
        })
    }

    /// The epoch this snapshot materializes.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Length of the edit-log prefix (counted from the registry's base
    /// snapshot) that produced this snapshot: replaying `log[..log_len]`
    /// from the base epoch (or `log[a.log_len..b.log_len]` from any earlier
    /// snapshot `a`) reproduces this graph exactly.
    pub fn log_len(&self) -> usize {
        self.log_len
    }

    /// The hypergraph at this epoch.
    pub fn graph(&self) -> &Hypergraph {
        &self.graph
    }

    /// A full [`ActiveHypergraph`] over this epoch's graph: a heap copy of
    /// its CSR, built on the first call and kept for the snapshot's lifetime.
    /// Nothing in this workspace calls it; serving reads [`graph`](Self::graph).
    pub fn engine(&self) -> &ActiveHypergraph {
        self.engine
            .get_or_init(|| ActiveHypergraph::from_hypergraph(&self.graph))
    }
}

/// How many historical snapshots a [`ResidentRegistry`] keeps resident per
/// graph. The default keeps everything — any epoch stays addressable
/// forever at memory cost proportional to the version chain. See the
/// [retention docs](self#retention-and-compaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetentionPolicy {
    /// `Some(k)`: after each mutation, only the base epoch and the latest
    /// `k` epochs keep their snapshots (`k` is clamped to at least 1 — the
    /// latest snapshot is never evictable), so at most `k + 1` snapshots
    /// are resident per graph. The edit log stays complete either way.
    /// `None` (the default): keep every snapshot.
    pub keep_last: Option<u64>,
}

impl RetentionPolicy {
    /// The keep-everything policy (the default; PR-6 behavior).
    pub fn keep_all() -> Self {
        RetentionPolicy::default()
    }

    /// Keep the base epoch plus the latest `k` epochs (clamped to ≥ 1).
    pub fn keep_last(k: u64) -> Self {
        RetentionPolicy {
            keep_last: Some(k.max(1)),
        }
    }
}

/// How many bytes of base CSR arenas a [`ResidentRegistry`] keeps resident
/// across *all* its graphs. The default is unbounded — nothing is ever
/// spilled. See the [storage-tier docs](self#storage-tiers-and-spill).
///
/// Only graphs that can be reconstructed from disk without information loss
/// are spillable: a mapped snapshot opened by
/// [`ResidentRegistry::open_mapped`] that has never been mutated (an edit
/// log pins a graph in memory — its epochs exist nowhere else). Spilling
/// drops the graph's snapshot, which is only its arena; the next touch
/// transparently re-opens the source file and pages it back in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpillPolicy {
    /// `Some(cap)`: whenever the total [`Hypergraph::bytes_resident`] over
    /// every resident snapshot exceeds `cap`, spillable graphs are dropped
    /// in least-recently-touched order until the total fits (or no
    /// spillable graph remains — the cap is best-effort, never an error).
    /// `None` (the default): keep everything resident.
    pub max_resident_bytes: Option<u64>,
}

impl SpillPolicy {
    /// The keep-everything policy (the default).
    pub fn unbounded() -> Self {
        SpillPolicy::default()
    }

    /// Bound total resident base-arena bytes by `cap`.
    pub fn max_bytes(cap: u64) -> Self {
        SpillPolicy {
            max_resident_bytes: Some(cap),
        }
    }
}

/// The resident-graph registry: graphs that stay loaded across a serve
/// session, each **epoch-versioned** — an append-only [`EditLog`] plus
/// one immutable [`ResidentSnapshot`] per epoch (copy-on-write: mutations
/// build the next snapshot; existing snapshots are shared untouched).
///
/// Register every tenant before wrapping the registry in an `Arc` and
/// spawning a [`ShardedRunner`]; after that, *mutate through the `Arc`*:
/// [`apply`](Self::apply) takes `&self` (each graph's version chain sits
/// behind its own lock), appends the edits to the log and publishes the next
/// epoch's snapshot. Workers only ever read snapshots (shared graphs — see
/// the concurrency section of [`hypergraph::ActiveEngine`]), and every
/// request pins the epoch it was submitted against, so in-flight queries on
/// older epochs keep returning byte-identical outcomes while the log grows.
///
/// Under the default [`RetentionPolicy`] all snapshots are retained: any
/// `(snapshot, log-prefix)` pair remains addressable for replay, which is
/// the determinism contract's time-travel half, at memory cost proportional
/// to the version chain. [`with_retention`](Self::with_retention) bounds
/// that memory; [`persist`](Self::persist)/[`restore`](Self::restore) make
/// the chain durable; [`compact`](Self::compact) truncates it. See the
/// [durability](self#durability-contract) and
/// [retention](self#retention-and-compaction) docs.
#[derive(Debug)]
pub struct ResidentRegistry {
    tag: u64,
    retention: RetentionPolicy,
    spill: SpillPolicy,
    // Logical LRU clock for the spill policy: every snapshot access stamps
    // the touched entry. Relaxed ordering throughout — the clock orders
    // spill victims, never solve outcomes.
    touch_clock: AtomicU64,
    entries: Vec<RwLock<ResidentState>>,
}

impl Default for ResidentRegistry {
    fn default() -> Self {
        // Process-unique registry tag; the counter value never influences
        // solve outcomes, only id↔registry matching.
        static NEXT_REGISTRY_TAG: AtomicU64 = AtomicU64::new(0);
        ResidentRegistry {
            tag: NEXT_REGISTRY_TAG.fetch_add(1, Ordering::Relaxed),
            retention: RetentionPolicy::default(),
            spill: SpillPolicy::default(),
            touch_clock: AtomicU64::new(0),
            entries: Vec::new(),
        }
    }
}

/// One resident graph's version chain.
///
/// `watermarks[i]` is the log prefix length of epoch `base_epoch + i`
/// (`watermarks[0] == 0` always), and `snapshots` is parallel to it — a
/// `None` slot is an epoch whose snapshot the retention policy evicted. Two
/// invariants hold at every unlock: `snapshots[0]` (the base) and the last
/// slot (the latest epoch) are always `Some` **unless `spilled` is set**
/// (then the base slot is the only slot and it is `None` — the spill policy
/// dropped it, and the next touch re-opens `source`), and `log` always
/// covers every watermark, so any retained-or-evicted epoch is replayable
/// from the base.
#[derive(Debug)]
struct ResidentState {
    // Flat, so logging an edit allocates nothing of its own, and Arc'd so
    // `edit_log` is O(1) per call instead of cloning the whole log (appends
    // go through `Arc::make_mut`: in place unless a caller still holds a
    // previously returned handle, which degrades to one copy-on-write —
    // never a per-inspection clone).
    log: Arc<EditLog>,
    base_epoch: u64,
    watermarks: Vec<usize>,
    snapshots: Vec<Option<Arc<ResidentSnapshot>>>,
    // Snapshots dropped by retention or compaction (observability; see
    // `ResidentRegistry::evictions`).
    evictions: u64,
    // The on-disk HGCSR snapshot this graph was opened from
    // (`open_mapped`), if any — what makes the entry spillable and what a
    // page-in re-opens. `None` for graphs registered from memory.
    source: Option<PathBuf>,
    // `true` while the base snapshot is dropped under the spill policy
    // (only ever set on never-mutated entries with a `source`, so the base
    // slot is the *only* slot and `watermarks.len() == 1`).
    spilled: bool,
    // Spill-policy counters (see `ResidentRegistry::spills` / `page_ins`).
    spills: u64,
    page_ins: u64,
    // Last-touch stamp from the registry's logical clock (atomic so read
    // paths can stamp it under the entry's *read* lock).
    last_touch: AtomicU64,
}

impl ResidentState {
    fn current_epoch(&self) -> Epoch {
        Epoch(self.base_epoch + (self.watermarks.len() - 1) as u64)
    }

    fn latest(&self) -> &Arc<ResidentSnapshot> {
        self.snapshots
            .last()
            .expect("every graph has a base epoch")
            .as_ref()
            .expect("the latest snapshot is never evicted")
    }
}

const LOCK_POISONED: &str = "resident registry lock poisoned (a mutating thread panicked)";
const PAGE_IN_FAILED: &str =
    "spilled resident graph could not be paged back in from its snapshot file";

impl ResidentRegistry {
    /// Creates an empty registry with the default keep-all
    /// [`RetentionPolicy`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry with an explicit [`RetentionPolicy`].
    pub fn with_retention(retention: RetentionPolicy) -> Self {
        ResidentRegistry {
            retention,
            ..Self::default()
        }
    }

    /// Creates an empty registry with an explicit [`SpillPolicy`] (and the
    /// default keep-all retention).
    pub fn with_spill(spill: SpillPolicy) -> Self {
        ResidentRegistry {
            spill,
            ..Self::default()
        }
    }

    /// Creates an empty registry with explicit retention and spill policies.
    pub fn with_policies(retention: RetentionPolicy, spill: SpillPolicy) -> Self {
        ResidentRegistry {
            retention,
            spill,
            ..Self::default()
        }
    }

    /// The registry's retention policy (fixed at construction).
    pub fn retention(&self) -> RetentionPolicy {
        self.retention
    }

    /// The registry's spill policy (fixed at construction).
    pub fn spill_policy(&self) -> SpillPolicy {
        self.spill
    }

    /// Registers `graph` as a resident tenant at epoch 0 (empty edit log),
    /// building nothing beside it, and returns its handle.
    pub fn register(&mut self, graph: Hypergraph) -> GraphId {
        let id = self.register_with_base(graph, 0);
        self.enforce_spill();
        id
    }

    /// Opens the `HGCSR` snapshot at `path` as a **mapped** resident graph:
    /// the base CSR arena is served zero-copy from a shared read-only file
    /// mapping (see [`hypergraph::io::open_mapped`]) — one mapping for all
    /// shards, with the epoch log layered on top exactly as for an owned
    /// resident. Registers it at epoch 0 with an empty edit log and
    /// remembers `path` as the graph's source, which makes the entry
    /// eligible for the [`SpillPolicy`] for as long as it stays unmutated.
    ///
    /// The file must stay in place and unchanged while the graph is
    /// registered (the atomic writers in [`hypergraph::io`] replace files by
    /// rename, which keeps an existing mapping intact).
    ///
    /// # Errors
    /// [`ReadError::Io`] if the file cannot be opened; [`ReadError::Parse`]
    /// if it fails the snapshot format's structural validation.
    pub fn open_mapped<P: AsRef<Path>>(&mut self, path: P) -> Result<GraphId, ReadError> {
        let graph = hypergraph::io::open_mapped(&path)?;
        let id = self.register_with_base(graph, 0);
        self.entries[id.index]
            .get_mut()
            .expect(LOCK_POISONED)
            .source = Some(path.as_ref().to_path_buf());
        self.enforce_spill();
        Ok(id)
    }

    /// Registers `graph` with its base snapshot numbered `base_epoch` — the
    /// restore path's entry point (a WAL persisted after a compaction has a
    /// non-zero base, and epoch numbers must survive the round trip).
    fn register_with_base(&mut self, graph: Hypergraph, base_epoch: u64) -> GraphId {
        self.entries.push(RwLock::new(ResidentState {
            log: Arc::default(),
            base_epoch,
            watermarks: vec![0],
            snapshots: vec![Some(ResidentSnapshot::new(
                Epoch(base_epoch),
                0,
                Arc::new(graph),
            ))],
            evictions: 0,
            source: None,
            spilled: false,
            spills: 0,
            page_ins: 0,
            last_touch: AtomicU64::new(self.touch_clock.fetch_add(1, Ordering::Relaxed) + 1),
        }));
        GraphId {
            registry: self.tag,
            index: self.entries.len() - 1,
        }
    }

    /// Applies an edit script to the resident graph behind `id`: validates
    /// and applies the whole batch atomically (on error nothing changes),
    /// appends it to the graph's edit log, builds the next epoch's snapshot,
    /// evicts snapshots below the [`RetentionPolicy`] floor (a no-op under
    /// the default keep-all policy) and returns the new [`Epoch`]. An empty
    /// batch is free: it returns the current epoch without bumping it (the
    /// shared-structure fast path — no rebuild, no new snapshot).
    ///
    /// Works through a shared reference, so a registry already wrapped in an
    /// `Arc` and being served can be mutated mid-stream; requests submitted
    /// before the call keep their pinned epoch — they resolved their
    /// snapshot `Arc` at submission, so even an eviction this apply
    /// triggers cannot retarget or invalidate them.
    ///
    /// # Errors
    /// The first [`EditError`] in script order, leaving log and snapshots
    /// untouched.
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range.
    pub fn apply(&self, id: GraphId, edits: &[GraphEdit]) -> Result<Epoch, EditError> {
        let entry = self.locate(id);
        let stamp = self.touch_clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut st = entry.write().expect(LOCK_POISONED);
        st.last_touch.store(stamp, Ordering::Relaxed);
        if st.spilled {
            // Page a spilled base back in under the write lock (no
            // enforcement can interleave), then mutate: a graph with a
            // non-empty log is never spillable again.
            self.page_in_locked(&mut st)
                .unwrap_or_else(|detail| panic!("{PAGE_IN_FAILED}: {detail}"));
        }
        let current = st.latest();
        if edits.is_empty() {
            return Ok(current.epoch);
        }
        let graph = Arc::new(apply_edits(current.graph(), edits)?);
        let epoch = Epoch(st.current_epoch().0 + 1);
        Arc::make_mut(&mut st.log).extend(edits);
        let log_len = st.log.len();
        st.watermarks.push(log_len);
        st.snapshots
            .push(Some(ResidentSnapshot::new(epoch, log_len, graph)));
        self.evict_below_floor(&mut st);
        drop(st);
        // The new snapshot may push the pool over the spill cap.
        self.enforce_spill();
        Ok(epoch)
    }

    /// Stamps the entry's LRU clock and, if the spill policy dropped its
    /// base snapshot, pages it back in from the source file. Returns the
    /// reinstalled base snapshot when (and only when) a page-in happened —
    /// a spilled entry was never mutated, so that single snapshot is the
    /// graph's *entire* state and callers can resolve against it directly
    /// instead of re-reading an entry a concurrent enforcement may already
    /// have re-spilled. `Err` carries the I/O/parse detail when the source
    /// file can no longer be opened (the registry is left spilled and
    /// intact — a later touch retries).
    fn page_in_if_spilled(
        &self,
        entry: &RwLock<ResidentState>,
    ) -> Result<Option<Arc<ResidentSnapshot>>, String> {
        let stamp = self.touch_clock.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let st = entry.read().expect(LOCK_POISONED);
            st.last_touch.store(stamp, Ordering::Relaxed);
            if !st.spilled {
                return Ok(None);
            }
        }
        let mut st = entry.write().expect(LOCK_POISONED);
        if !st.spilled {
            return Ok(None); // another thread paged it in while we upgraded
        }
        let snap = self.page_in_locked(&mut st)?;
        drop(st);
        // Paging in can push the pool back over the cap; rebalance (the
        // just-touched entry carries the freshest stamp, so it is the
        // spiller's last choice). The caller holds `snap` either way.
        self.enforce_spill();
        Ok(Some(snap))
    }

    /// Re-opens a spilled entry's source snapshot and reinstalls its base
    /// snapshot under the caller's write lock.
    fn page_in_locked(&self, st: &mut ResidentState) -> Result<Arc<ResidentSnapshot>, String> {
        let source = st
            .source
            .clone()
            .expect("only graphs with a source snapshot file are spillable");
        let graph = hypergraph::io::open_mapped(&source)
            .map_err(|e| format!("cannot re-open {}: {e}", source.display()))?;
        let snap = ResidentSnapshot::new(Epoch(st.base_epoch), 0, Arc::new(graph));
        st.snapshots[0] = Some(Arc::clone(&snap));
        st.spilled = false;
        st.page_ins += 1;
        Ok(snap)
    }

    /// Spills least-recently-touched spillable graphs until the total
    /// resident base-arena bytes fit under the [`SpillPolicy`] cap.
    /// Best-effort: entries touched or mutated since the scan are skipped,
    /// and when no spillable graph remains the pool simply stays over the
    /// cap. Takes entry locks one at a time — callers must hold none.
    fn enforce_spill(&self) {
        let Some(cap) = self.spill.max_resident_bytes else {
            return;
        };
        let mut total: u64 = 0;
        let mut candidates: Vec<(u64, usize, u64)> = Vec::new();
        for (i, entry) in self.entries.iter().enumerate() {
            let st = entry.read().expect(LOCK_POISONED);
            let bytes: u64 = st
                .snapshots
                .iter()
                .flatten()
                .map(|s| s.graph().bytes_resident() as u64)
                .sum();
            total += bytes;
            if !st.spilled && st.source.is_some() && st.watermarks.len() == 1 {
                candidates.push((st.last_touch.load(Ordering::Relaxed), i, bytes));
            }
        }
        if total <= cap {
            return;
        }
        candidates.sort_unstable(); // least-recently-touched first
        for (stamp, i, bytes) in candidates {
            if total <= cap {
                break;
            }
            let mut st = self.entries[i].write().expect(LOCK_POISONED);
            // Re-validate under the write lock: the entry may have been
            // touched, mutated or spilled since the scan.
            if st.spilled
                || st.source.is_none()
                || st.watermarks.len() != 1
                || st.last_touch.load(Ordering::Relaxed) != stamp
            {
                continue;
            }
            st.snapshots[0] = None;
            st.spilled = true;
            st.spills += 1;
            total = total.saturating_sub(bytes);
        }
    }

    /// Drops snapshot `Arc`s below the retention floor (keeping the base and
    /// the latest `k`). The log and watermarks are untouched — evicted
    /// epochs stay replayable, just not resident.
    fn evict_below_floor(&self, st: &mut ResidentState) {
        let Some(k) = self.retention.keep_last else {
            return;
        };
        let cut = st.snapshots.len().saturating_sub(k.max(1) as usize);
        for slot in st.snapshots[..cut].iter_mut().skip(1) {
            if slot.take().is_some() {
                st.evictions += 1;
            }
        }
    }

    /// The lowest epoch ≥ the base that is guaranteed resident under the
    /// retention policy — what [`SolveError::EpochEvicted`] reports. Pins in
    /// `floor..=current` always resolve; the base epoch additionally stays
    /// resident however far the floor moves.
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range.
    pub fn retention_floor(&self, id: GraphId) -> Epoch {
        let st = self.locate(id).read().expect(LOCK_POISONED);
        self.floor_of(&st)
    }

    fn floor_of(&self, st: &ResidentState) -> Epoch {
        let cut = match self.retention.keep_last {
            Some(k) => st.snapshots.len().saturating_sub(k.max(1) as usize),
            None => 0,
        };
        Epoch(st.base_epoch + cut as u64)
    }

    /// The current (most recent) snapshot of the graph behind `id`,
    /// transparently paging a spilled base snapshot back in.
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range, or if the graph was spilled and its source snapshot file can
    /// no longer be re-opened (the request path reports that as
    /// [`SolveError::SnapshotUnavailable`] instead).
    pub fn latest(&self, id: GraphId) -> Arc<ResidentSnapshot> {
        let entry = self.locate(id);
        loop {
            if let Some(snap) = self
                .page_in_if_spilled(entry)
                .unwrap_or_else(|detail| panic!("{PAGE_IN_FAILED}: {detail}"))
            {
                return snap;
            }
            let st = entry.read().expect(LOCK_POISONED);
            if !st.spilled {
                return Arc::clone(st.latest());
            }
            // Re-spilled between the page-in check and this read (a
            // concurrent enforcement); retry.
        }
    }

    /// The snapshot of the graph behind `id` at a specific epoch, or `None`
    /// if the graph has never reached that epoch **or** the epoch's
    /// snapshot was evicted by the retention policy / a
    /// [`compact`](Self::compact) (the request path distinguishes the two —
    /// see [`SolveError::EpochEvicted`]).
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range.
    pub fn snapshot_at(&self, id: GraphId, epoch: Epoch) -> Option<Arc<ResidentSnapshot>> {
        let entry = self.locate(id);
        loop {
            if let Some(snap) = self
                .page_in_if_spilled(entry)
                .unwrap_or_else(|detail| panic!("{PAGE_IN_FAILED}: {detail}"))
            {
                // A spilled entry was never mutated: the paged-in base is
                // its only epoch.
                return (snap.epoch() == epoch).then_some(snap);
            }
            let st = entry.read().expect(LOCK_POISONED);
            if st.spilled {
                continue; // re-spilled by a concurrent enforcement; retry
            }
            let idx = epoch.0.checked_sub(st.base_epoch)? as usize;
            return st.snapshots.get(idx)?.as_ref().map(Arc::clone);
        }
    }

    /// The current epoch of the graph behind `id`. Metadata only — never
    /// pages a spilled graph back in.
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range.
    pub fn current_epoch(&self, id: GraphId) -> Epoch {
        self.locate(id).read().expect(LOCK_POISONED).current_epoch()
    }

    /// The epoch of the graph's base snapshot: 0 until a
    /// [`compact`](Self::compact) (or a restore of a compacted WAL)
    /// re-bases the chain on a later epoch.
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range.
    pub fn base_epoch(&self, id: GraphId) -> Epoch {
        Epoch(self.locate(id).read().expect(LOCK_POISONED).base_epoch)
    }

    /// A shared handle to the full edit log of the graph behind `id` (epoch
    /// `k`'s snapshot was produced by the prefix
    /// `log.decode(0..snapshot.log_len())`, counted from the base
    /// snapshot). Each edit is logged exactly as it was given to
    /// [`apply`](Self::apply), un-normalized.
    ///
    /// O(1): the handle shares the registry's own storage instead of
    /// cloning the log. Holding it across a concurrent
    /// [`apply`](Self::apply) is safe — the apply then copy-on-writes the
    /// log once and the handle keeps observing the pre-apply state.
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range.
    pub fn edit_log(&self, id: GraphId) -> Arc<EditLog> {
        Arc::clone(&self.locate(id).read().expect(LOCK_POISONED).log)
    }

    /// Number of snapshots currently resident for the graph behind `id` —
    /// at most `keep_last + 1` under a bounded [`RetentionPolicy`] (the
    /// base plus the latest `k`), one more epoch than that never
    /// accumulates. A graph spilled under the [`SpillPolicy`] reports 0.
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range.
    pub fn retained_snapshots(&self, id: GraphId) -> usize {
        let st = self.locate(id).read().expect(LOCK_POISONED);
        st.snapshots.iter().filter(|s| s.is_some()).count()
    }

    /// Snapshots dropped for the graph behind `id` by retention evictions
    /// and [`compact`](Self::compact)s so far.
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range.
    pub fn evictions(&self, id: GraphId) -> u64 {
        self.locate(id).read().expect(LOCK_POISONED).evictions
    }

    /// Re-bases the graph's history onto its current snapshot: the edit log
    /// empties, the current epoch becomes the base epoch, and every earlier
    /// snapshot is dropped (counted in [`evictions`](Self::evictions)).
    /// Epoch *numbers* are preserved — the current epoch keeps its value,
    /// so existing [`EpochPin::At`] pins of it stay valid, while pins of
    /// earlier epochs now answer [`SolveError::EpochEvicted`]. Returns the
    /// (unchanged) current epoch.
    ///
    /// The graph is shared into the re-based snapshot, not copied;
    /// in-flight requests holding pre-compact snapshot `Arc`s are
    /// unaffected. Persist first if the history should survive — a WAL
    /// written *after* a compact starts at the compacted base.
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range.
    pub fn compact(&self, id: GraphId) -> Epoch {
        let mut st = self.locate(id).write().expect(LOCK_POISONED);
        if st.watermarks.len() == 1 {
            // Already based on the current epoch (always the case for
            // spilled entries, whose base must stay un-materialized here).
            return st.current_epoch();
        }
        let latest = Arc::clone(st.latest());
        let epoch = latest.epoch;
        let dropped = st.snapshots.iter().filter(|s| s.is_some()).count() - 1;
        st.evictions += dropped as u64;
        st.base_epoch = epoch.0;
        st.log = Arc::default();
        st.watermarks = vec![0];
        st.snapshots = vec![Some(ResidentSnapshot::new(
            epoch,
            0,
            Arc::clone(&latest.graph),
        ))];
        epoch
    }

    /// Persists the graph behind `id` — its base snapshot and complete edit
    /// log, batch boundaries (= epoch boundaries) included — to the
    /// checksummed WAL format of [`hypergraph::io::write_wal`], atomically.
    /// [`restore`](Self::restore) (in this or any other process) reproduces
    /// the entry byte-identically: same epochs, same
    /// [`log_len`](ResidentSnapshot::log_len) watermarks, same solve
    /// fingerprints. Retention does not limit what is persisted: the log is
    /// always complete, so evicted epochs round-trip too.
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range.
    pub fn persist<P: AsRef<Path>>(&self, id: GraphId, path: P) -> std::io::Result<()> {
        let entry = self.locate(id);
        loop {
            if let Some(snap) = self
                .page_in_if_spilled(entry)
                .unwrap_or_else(|detail| panic!("{PAGE_IN_FAILED}: {detail}"))
            {
                // A spilled entry was never mutated: base snapshot + empty
                // log is its complete history.
                return hypergraph::io::write_wal(path, snap.epoch().0, snap.graph(), &[]);
            }
            let st = entry.read().expect(LOCK_POISONED);
            if st.spilled {
                continue; // re-spilled by a concurrent enforcement; retry
            }
            let base = st.snapshots[0]
                .as_ref()
                .expect("the base snapshot of a resident graph is never evicted");
            let batches: Vec<Vec<GraphEdit>> = st
                .watermarks
                .windows(2)
                .map(|w| st.log.decode(w[0]..w[1]))
                .collect();
            let batches: Vec<&[GraphEdit]> = batches.iter().map(Vec::as_slice).collect();
            return hypergraph::io::write_wal(path, st.base_epoch, base.graph(), &batches);
        }
    }

    /// Persists the **latest** snapshot of the graph behind `id` to the
    /// binary `HGCSR` format of [`hypergraph::io::write_csr`], atomically
    /// and fsynced. Unlike [`persist`](Self::persist) this is a *checkpoint*
    /// — graph only, no edit log, no epoch numbering — whose point is the
    /// reopen path: [`open_mapped`](Self::open_mapped) serves it zero-copy
    /// from a read-only mapping, with byte-identical solve outcomes (the
    /// mapped-vs-owned fingerprint suites pin this).
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range, or if the graph was spilled and its source snapshot file can
    /// no longer be re-opened.
    pub fn persist_snapshot<P: AsRef<Path>>(&self, id: GraphId, path: P) -> std::io::Result<()> {
        let snap = self.latest(id);
        hypergraph::io::write_csr(snap.graph(), path)
    }

    /// Restores a graph persisted by [`persist`](Self::persist) into this
    /// registry, replaying each WAL batch through the ordinary
    /// [`apply`](Self::apply) path (so this registry's retention policy
    /// applies during the replay exactly as it would have live), and
    /// returns the new graph's handle. A WAL with a torn tail restores the
    /// longest whole-batch prefix — i.e. the registry as of the last fully
    /// persisted epoch.
    ///
    /// # Errors
    /// [`ReadError::Io`] if the file cannot be read; [`ReadError::Parse`]
    /// if it is corrupt (bad header/base record, a checksummed record that
    /// fails validation) **or** if a recovered batch does not apply cleanly
    /// — a WAL whose edits violate their own log is corrupt even when every
    /// checksum passes. On error the registry is left unchanged.
    pub fn restore<P: AsRef<Path>>(&mut self, path: P) -> Result<GraphId, ReadError> {
        let wal = hypergraph::io::read_wal(path)?;
        let id = self.register_with_base(wal.base, wal.base_epoch);
        for (k, batch) in wal.batches.iter().enumerate() {
            if let Err(e) = self.apply(id, batch) {
                // The id was never handed out and `&mut self` precludes a
                // concurrent register, so the half-replayed entry is the
                // last one — un-register it to leave the registry unchanged.
                self.entries.pop();
                return Err(ReadError::Parse(ParseError::CorruptWalRecord {
                    record: k + 1,
                    detail: format!("batch does not apply: {e}"),
                }));
            }
        }
        self.enforce_spill();
        Ok(id)
    }

    /// Direct-accessor lookup with distinguished diagnostics: a foreign id
    /// and a same-registry id with an out-of-range index are different
    /// caller bugs and get different panic messages.
    fn locate(&self, id: GraphId) -> &RwLock<ResidentState> {
        assert!(
            id.registry == self.tag,
            "GraphId was minted by a different ResidentRegistry (id tag {}, this registry's tag {})",
            id.registry,
            self.tag
        );
        self.entries.get(id.index).unwrap_or_else(|| {
            panic!(
                "GraphId index {} out of range: this registry holds {} graph(s)",
                id.index,
                self.entries.len()
            )
        })
    }

    /// Request-path lookup (errors as data, never panics): resolves `id` at
    /// `pin` to a snapshot. This is the submission-time resolution point —
    /// the returned `Arc` keeps the snapshot alive for the request however
    /// the retention floor moves afterwards, which is what makes outcomes
    /// independent of the race between queue scheduling and eviction.
    pub(crate) fn lookup(
        &self,
        id: GraphId,
        pin: EpochPin,
    ) -> Result<Arc<ResidentSnapshot>, SolveError> {
        if id.registry != self.tag {
            return Err(SolveError::UnknownGraph(id));
        }
        let Some(entry) = self.entries.get(id.index) else {
            return Err(SolveError::UnknownGraph(id));
        };
        loop {
            match self.page_in_if_spilled(entry) {
                Ok(Some(snap)) => {
                    // A spilled entry was never mutated: the paged-in base
                    // is its only epoch.
                    return match pin {
                        EpochPin::Latest => Ok(snap),
                        EpochPin::At(epoch) if epoch == snap.epoch() => Ok(snap),
                        EpochPin::At(epoch) => Err(SolveError::UnknownEpoch { graph: id, epoch }),
                    };
                }
                Ok(None) => {}
                Err(detail) => return Err(SolveError::SnapshotUnavailable { graph: id, detail }),
            }
            let st = entry.read().expect(LOCK_POISONED);
            if st.spilled {
                continue; // re-spilled by a concurrent enforcement; retry
            }
            return match pin {
                EpochPin::Latest => Ok(Arc::clone(st.latest())),
                EpochPin::At(epoch) => {
                    // Three distinct answers: beyond the current epoch the
                    // pin addresses the future (UnknownEpoch — "never
                    // reached"); at-or-before it but below the base or in an
                    // evicted slot, the epoch existed and retention dropped
                    // it (EpochEvicted); otherwise the snapshot is resident.
                    if epoch > st.current_epoch() {
                        return Err(SolveError::UnknownEpoch { graph: id, epoch });
                    }
                    let resident = epoch
                        .0
                        .checked_sub(st.base_epoch)
                        .and_then(|idx| st.snapshots.get(idx as usize)?.as_ref());
                    match resident {
                        Some(snap) => Ok(Arc::clone(snap)),
                        None => Err(SolveError::EpochEvicted {
                            graph: id,
                            epoch,
                            floor: self.floor_of(&st),
                        }),
                    }
                }
            };
        }
    }

    /// `true` while the graph behind `id` is spilled: its base snapshot (the
    /// graph's arena) has been dropped under the [`SpillPolicy`] and the next
    /// touch will page it back in from its source file.
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range.
    pub fn is_spilled(&self, id: GraphId) -> bool {
        self.locate(id).read().expect(LOCK_POISONED).spilled
    }

    /// How many times the graph behind `id` has been spilled so far.
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range.
    pub fn spills(&self, id: GraphId) -> u64 {
        self.locate(id).read().expect(LOCK_POISONED).spills
    }

    /// How many times the graph behind `id` has been paged back in so far.
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry or its index is out of
    /// range.
    pub fn page_ins(&self, id: GraphId) -> u64 {
        self.locate(id).read().expect(LOCK_POISONED).page_ins
    }

    /// Total [`Hypergraph::bytes_resident`] over every resident snapshot of
    /// every graph — the quantity the [`SpillPolicy`] caps, and (snapshots
    /// holding nothing but their graphs) all the registry keeps beside its
    /// bookkeeping. Spilled graphs contribute nothing.
    pub fn resident_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|entry| {
                let st = entry.read().expect(LOCK_POISONED);
                st.snapshots
                    .iter()
                    .flatten()
                    .map(|s| s.graph().bytes_resident() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Number of resident graphs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no graph has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Which algorithm a [`SolveRequest`] runs (all six are servable, both as
/// full solves and as induced queries).
#[derive(Debug, Clone, PartialEq)]
pub enum Algorithm {
    /// SBL (Algorithm 1, the paper's contribution).
    Sbl(SblConfig),
    /// Beame–Luby (Algorithm 2) — the induced-query headliner. An instance
    /// above dimension 20 is answered with
    /// [`SolveError::DimensionTooLarge`] instead of being solved.
    Bl(BlConfig),
    /// Karp–Upfal–Wigderson style parallel search.
    Kuw,
    /// Sequential greedy (deterministic; the request seed is unused).
    Greedy,
    /// Random-permutation greedy.
    Permutation,
    /// Łuczak–Szymańska-style linear-hypergraph MIS (errors on non-linear
    /// instances instead of panicking — see [`SolveError::NotLinear`]).
    Linear,
}

impl Algorithm {
    /// Short stable name (used in traces, logs and bench tables).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Sbl(_) => "sbl",
            Algorithm::Bl(_) => "bl",
            Algorithm::Kuw => "kuw",
            Algorithm::Greedy => "greedy",
            Algorithm::Permutation => "permutation",
            Algorithm::Linear => "linear",
        }
    }
}

/// What a [`SolveRequest`] solves.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// A one-off instance shipped with the request (shared, not copied, per
    /// shard).
    Adhoc(Arc<Hypergraph>),
    /// A full solve of a resident graph.
    Resident(GraphId),
    /// The sub-hypergraph of a resident graph induced by `vertices` (keeping
    /// edges fully inside the set — SBL's `H'` semantics). Vertex ids must be
    /// valid for the graph and duplicate-free; violations come back as
    /// [`SolveError::InvalidQuery`], not panics.
    Induced {
        /// The resident graph queried.
        graph: GraphId,
        /// The inducing vertex set (any order, duplicate-free).
        vertices: Arc<Vec<VertexId>>,
    },
}

impl Target {
    /// The resident graph this target addresses, if any.
    fn graph_id(&self) -> Option<GraphId> {
        match self {
            Target::Adhoc(_) => None,
            Target::Resident(id) => Some(*id),
            Target::Induced { graph, .. } => Some(*graph),
        }
    }
}

/// One unit of work for the serving layer. Outcomes are a pure function of
/// `(snapshot, algorithm, seed)` — see the [module docs](self); the tenant
/// only drives routing, admission and accounting.
///
/// Requests are built, never assembled field-by-field: the three target
/// constructors — [`for_graph`](Self::for_graph), [`adhoc`](Self::adhoc),
/// [`induced`](Self::induced) — each return a [`SolveRequestBuilder`], the
/// *single* construction path shared by library callers, the examples, the
/// bench harness and the [`net`](crate::net) wire decoder. A request is
/// therefore always well-formed: the target is fixed at construction, every
/// other knob has the documented default, and the read-only accessors below
/// mirror the former public fields.
///
/// ```
/// use hypergraph_mis::prelude::*;
/// # use rand::SeedableRng;
/// # let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// # let mut registry = ResidentRegistry::new();
/// # let id = registry.register(generate::paper_regime(&mut rng, 64, 8, 4));
/// let request = SolveRequest::for_graph(id)
///     .algorithm(Algorithm::Sbl(SblConfig::default()))
///     .seed(7)
///     .pin(EpochPin::Latest)
///     .tenant(TenantId(3))
///     .build();
/// assert_eq!(request.seed(), 7);
/// assert_eq!(request.tenant(), TenantId(3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    pub(crate) tenant: TenantId,
    pub(crate) target: Target,
    pub(crate) algorithm: Algorithm,
    pub(crate) seed: u64,
    pub(crate) pin: EpochPin,
}

impl SolveRequest {
    /// Starts a request for a full solve of a resident graph.
    pub fn for_graph(graph: GraphId) -> SolveRequestBuilder {
        SolveRequestBuilder::new(Target::Resident(graph))
    }

    /// Starts a request shipping a one-off instance (shared, not copied,
    /// per shard).
    pub fn adhoc(graph: Arc<Hypergraph>) -> SolveRequestBuilder {
        SolveRequestBuilder::new(Target::Adhoc(graph))
    }

    /// Starts an induced query against a resident graph (see
    /// [`Target::Induced`] for the vertex-set requirements — violations come
    /// back as [`SolveError::InvalidQuery`] outcomes, not panics).
    pub fn induced(graph: GraphId, vertices: impl Into<Arc<Vec<VertexId>>>) -> SolveRequestBuilder {
        SolveRequestBuilder::new(Target::Induced {
            graph,
            vertices: vertices.into(),
        })
    }

    /// Starts a request from an already-assembled [`Target`] — the general
    /// form behind [`for_graph`](Self::for_graph), [`adhoc`](Self::adhoc)
    /// and [`induced`](Self::induced), for callers that compute the target
    /// dynamically.
    pub fn for_target(target: Target) -> SolveRequestBuilder {
        SolveRequestBuilder::new(target)
    }

    /// The tenant this request belongs to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// What the request solves.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// Which algorithm the request runs.
    pub fn algorithm(&self) -> &Algorithm {
        &self.algorithm
    }

    /// The per-request RNG seed (`ChaCha8Rng::seed_from_u64`).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Which epoch of a resident target the request solves (outcomes echo
    /// the submission-time resolution — see [`EpochPin`]).
    pub fn pin(&self) -> EpochPin {
        self.pin
    }
}

/// Builder returned by the [`SolveRequest`] constructors. Every setter is
/// chainable and optional; [`build`](Self::build) yields the finished
/// request. Defaults: [`TenantId::default`], SBL with
/// [`SblConfig::default`], seed `0`, [`EpochPin::Latest`].
#[derive(Debug, Clone)]
pub struct SolveRequestBuilder {
    request: SolveRequest,
}

impl SolveRequestBuilder {
    fn new(target: Target) -> Self {
        SolveRequestBuilder {
            request: SolveRequest {
                tenant: TenantId::default(),
                target,
                algorithm: Algorithm::Sbl(SblConfig::default()),
                seed: 0,
                pin: EpochPin::default(),
            },
        }
    }

    /// Which algorithm to run (default: SBL with [`SblConfig::default`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.request.algorithm = algorithm;
        self
    }

    /// The per-request RNG seed (default `0`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.request.seed = seed;
        self
    }

    /// Which epoch of a resident target to solve (default
    /// [`EpochPin::Latest`]; ignored for ad-hoc targets).
    pub fn pin(mut self, pin: EpochPin) -> Self {
        self.request.pin = pin;
        self
    }

    /// The tenant the request belongs to (default [`TenantId::default`]).
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.request.tenant = tenant;
        self
    }

    /// Finishes the request.
    pub fn build(self) -> SolveRequest {
        self.request
    }
}

/// Per-algorithm instrumentation carried by a [`SolveOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveTrace {
    /// SBL per-round trace.
    Sbl(SblTrace),
    /// Beame–Luby per-stage trace.
    Bl(BlTrace),
    /// KUW per-round trace.
    Kuw(KuwTrace),
    /// Greedy has no trace beyond its cost totals.
    Greedy,
    /// The sampled permutation (processing order, original vertex ids).
    Permutation(Vec<VertexId>),
    /// Linear-hypergraph per-stage trace (BL-shaped).
    Linear(BlTrace),
    /// The request failed before producing a trace (see
    /// [`SolveOutcome::error`]).
    Failed,
}

/// A request-level failure, reported as data instead of panicking a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// [`Algorithm::Linear`] on a non-linear instance.
    NotLinear(LinearError),
    /// The request referenced a [`GraphId`] not present in the registry.
    UnknownGraph(GraphId),
    /// The request pinned an [`Epoch`] the resident graph has never reached
    /// (pins address existing history, not the future).
    UnknownEpoch {
        /// The resident graph queried.
        graph: GraphId,
        /// The epoch the request pinned.
        epoch: Epoch,
    },
    /// The request pinned an [`Epoch`] the graph *did* reach, but whose
    /// snapshot the registry's [`RetentionPolicy`] (or a
    /// [`ResidentRegistry::compact`]) has dropped. Distinct from
    /// [`UnknownEpoch`](Self::UnknownEpoch): the epoch is history, not
    /// future — its log prefix still exists, so it remains replayable from
    /// a persisted WAL even though it is no longer resident.
    EpochEvicted {
        /// The resident graph queried.
        graph: GraphId,
        /// The evicted epoch the request pinned.
        epoch: Epoch,
        /// The lowest epoch guaranteed resident at the time of the lookup
        /// (the base epoch additionally stays resident below it).
        floor: Epoch,
    },
    /// A resident graph had been spilled under the registry's
    /// [`SpillPolicy`] and its source snapshot file could no longer be
    /// re-opened (deleted, truncated or corrupted since registration).
    /// Reported as outcome data on the request path; the registry's direct
    /// accessors panic on the same condition instead.
    SnapshotUnavailable {
        /// The resident graph queried.
        graph: GraphId,
        /// Human-readable I/O or parse detail from the failed re-open.
        detail: String,
    },
    /// An induced query listed an out-of-range or duplicate vertex id.
    InvalidQuery {
        /// The offending vertex id.
        vertex: VertexId,
        /// `true` if the id was listed twice, `false` if out of range.
        duplicate: bool,
    },
    /// Admission control rejected the request before it reached a shard —
    /// rejection as data: the ticket is consumed and the outcome flows
    /// through [`collect_ordered`](ShardedRunner::collect_ordered) /
    /// [`collect_streaming`](ShardedRunner::collect_streaming) like any
    /// other. Deterministic for a fixed submit/collect sequence under
    /// `RoundRobin`/`TenantAffinity` routing.
    AdmissionDenied {
        /// The tenant whose quota rejected the request.
        tenant: TenantId,
        /// Which limit was hit.
        reason: DenyReason,
    },
    /// [`Algorithm::Bl`] on an instance (a full graph, or an induced
    /// query's sub-instance) holding an edge larger than Beame–Luby's
    /// degree machinery enumerates
    /// ([`MAX_ENUMERABLE_DIMENSION`]).
    /// Answered before BL runs; SBL takes such instances.
    DimensionTooLarge {
        /// The instance's dimension (its largest edge).
        dimension: usize,
        /// The largest dimension BL takes.
        max: usize,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NotLinear(e) => write!(f, "linear-hypergraph algorithm refused: {e}"),
            SolveError::UnknownGraph(id) => {
                let (registry, index) = id.wire_parts();
                write!(f, "unknown graph (registry {registry}, index {index})")
            }
            SolveError::UnknownEpoch { graph, epoch } => {
                let (registry, index) = graph.wire_parts();
                write!(
                    f,
                    "graph (registry {registry}, index {index}) has never reached epoch {}",
                    epoch.0
                )
            }
            SolveError::EpochEvicted {
                graph,
                epoch,
                floor,
            } => {
                let (registry, index) = graph.wire_parts();
                write!(
                    f,
                    "epoch {} of graph (registry {registry}, index {index}) was evicted by \
                     retention (resident floor: epoch {})",
                    epoch.0, floor.0
                )
            }
            SolveError::SnapshotUnavailable { graph, detail } => {
                let (registry, index) = graph.wire_parts();
                write!(
                    f,
                    "spilled snapshot of graph (registry {registry}, index {index}) could not \
                     be re-opened: {detail}"
                )
            }
            SolveError::InvalidQuery { vertex, duplicate } => {
                if *duplicate {
                    write!(f, "induced query listed vertex {vertex} twice")
                } else {
                    write!(f, "induced query listed out-of-range vertex {vertex}")
                }
            }
            SolveError::AdmissionDenied { tenant, reason } => {
                let reason = match reason {
                    DenyReason::QuotaExhausted => "token bucket exhausted",
                    DenyReason::InFlightCap => "in-flight cap reached",
                };
                write!(f, "admission denied for tenant {}: {reason}", tenant.0)
            }
            SolveError::DimensionTooLarge { dimension, max } => write!(
                f,
                "Beame-Luby takes dimension <= {max}, the instance has dimension {dimension} \
                 (use SBL)"
            ),
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::NotLinear(e) => Some(e),
            _ => None,
        }
    }
}

/// The response to one [`SolveRequest`].
///
/// `ticket` and `shard` describe *scheduling* (which submission this answers
/// and who computed it); everything else is the deterministic payload. Use
/// [`fingerprint`](Self::fingerprint) to compare outcomes across shard
/// counts or against the sequential path — it excludes the shard.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Submission ticket this outcome answers (assigned by
    /// [`ShardedRunner::submit`]; 0 for direct
    /// [`BatchRunner::solve`](crate::batch::BatchRunner::solve) calls).
    pub ticket: u64,
    /// Shard that computed it (0 for the sequential path, and meaningless
    /// for admission-denied outcomes, which never reach a shard). Diagnostic
    /// only — deliberately excluded from [`fingerprint`](Self::fingerprint).
    pub shard: usize,
    /// The request's tenant, echoed back (scheduling metadata like `ticket`
    /// and `shard`; excluded from [`fingerprint`](Self::fingerprint)).
    pub tenant: TenantId,
    /// The request's RNG seed, echoed back.
    pub seed: u64,
    /// The resident-graph epoch this outcome was computed against (the
    /// submission-time resolution of [`SolveRequest::pin`]); `None` for
    /// ad-hoc targets and for requests that failed before reaching a
    /// snapshot (admission denials, unknown graphs/epochs). Part of the
    /// deterministic payload: it is a pure function of the submit/mutate
    /// call sequence, so it participates in
    /// [`fingerprint`](Self::fingerprint).
    pub epoch: Option<Epoch>,
    /// The maximal independent set (sorted, original vertex ids; empty on
    /// error).
    pub independent_set: Vec<VertexId>,
    /// Total work charged by the cost model.
    pub work: u64,
    /// Total depth charged by the cost model.
    pub depth: u64,
    /// Rounds (global synchronisation barriers) charged by the cost model.
    pub rounds: u64,
    /// Per-algorithm instrumentation.
    pub trace: SolveTrace,
    /// `Some` if the request failed (the deterministic payload fields are
    /// then empty/zero).
    pub error: Option<SolveError>,
}

/// The deterministic part of a [`SolveOutcome`] (everything but the shard
/// and ticket): equal across shard counts, scheduling and runner generations.
pub type SolveFingerprint = (
    u64,
    Option<Epoch>,
    Vec<VertexId>,
    u64,
    u64,
    u64,
    SolveTrace,
    Option<SolveError>,
);

impl SolveOutcome {
    /// Extracts the scheduling-independent payload: `(seed, epoch,
    /// independent set, work, depth, rounds, trace, error)`.
    pub fn fingerprint(&self) -> SolveFingerprint {
        (
            self.seed,
            self.epoch,
            self.independent_set.clone(),
            self.work,
            self.depth,
            self.rounds,
            self.trace.clone(),
            self.error.clone(),
        )
    }
}

/// Executes one request against a workspace — the single-shard solve core
/// shared by [`BatchRunner::solve`](crate::batch::BatchRunner::solve) and
/// every [`ShardedRunner`] worker, which is what makes the sequential path
/// and all shard counts agree structurally, not just by test. Resolution
/// happens here (execution time *is* submission time on this path), then
/// delegates to [`execute_resolved`] — the same core the sharded workers
/// run with their submission-time resolution.
pub(crate) fn execute(
    registry: &ResidentRegistry,
    req: &SolveRequest,
    ws: &mut Workspace,
) -> SolveOutcome {
    let resolved = req.target.graph_id().map(|id| registry.lookup(id, req.pin));
    execute_resolved(req, resolved, ws)
}

/// The solve core proper, taking the request's already-resolved snapshot
/// (`None` only for ad-hoc targets). Workers receive the resolution made by
/// [`ShardedRunner::submit`] on the caller thread — holding the snapshot
/// `Arc` from submission to execution is what pins the request against
/// concurrent retention evictions and compactions.
pub(crate) fn execute_resolved(
    req: &SolveRequest,
    resolved: Option<Result<Arc<ResidentSnapshot>, SolveError>>,
    ws: &mut Workspace,
) -> SolveOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(req.seed);
    let mut out = match (&req.target, resolved) {
        (Target::Adhoc(h), _) => solve_full(h, &req.algorithm, req.seed, &mut rng, ws),
        (Target::Resident(_), Some(Ok(snap))) => {
            let mut out = solve_full(snap.graph(), &req.algorithm, req.seed, &mut rng, ws);
            out.epoch = Some(snap.epoch());
            out
        }
        (Target::Induced { vertices, .. }, Some(Ok(snap))) => {
            let mut out = solve_induced(
                snap.graph(),
                vertices,
                &req.algorithm,
                req.seed,
                &mut rng,
                ws,
            );
            out.epoch = Some(snap.epoch());
            out
        }
        (_, Some(Err(e))) => failed(req.seed, e),
        (Target::Resident(_) | Target::Induced { .. }, None) => {
            unreachable!("resident targets are resolved before execution")
        }
    };
    out.tenant = req.tenant;
    out
}

/// The answer to a BL request above the dimension BL enumerates.
fn dimension_too_large(dimension: usize) -> SolveError {
    SolveError::DimensionTooLarge {
        dimension,
        max: MAX_ENUMERABLE_DIMENSION,
    }
}

fn failed(seed: u64, error: SolveError) -> SolveOutcome {
    SolveOutcome {
        ticket: 0,
        shard: 0,
        tenant: TenantId::default(),
        seed,
        epoch: None,
        independent_set: Vec::new(),
        work: 0,
        depth: 0,
        rounds: 0,
        trace: SolveTrace::Failed,
        error: Some(error),
    }
}

fn outcome(
    seed: u64,
    independent_set: Vec<VertexId>,
    trace: SolveTrace,
    cost: &CostTracker,
) -> SolveOutcome {
    let c = cost.cost();
    SolveOutcome {
        ticket: 0,
        shard: 0,
        tenant: TenantId::default(),
        seed,
        epoch: None,
        independent_set,
        work: c.work,
        depth: c.depth,
        rounds: cost.rounds(),
        trace,
        error: None,
    }
}

/// A full solve: the plain `*_in` entry points over the request's hypergraph.
fn solve_full(
    h: &Hypergraph,
    algorithm: &Algorithm,
    seed: u64,
    rng: &mut ChaCha8Rng,
    ws: &mut Workspace,
) -> SolveOutcome {
    match algorithm {
        Algorithm::Sbl(cfg) => {
            let o = sbl_mis_in(h, rng, cfg, ws);
            outcome(seed, o.independent_set, SolveTrace::Sbl(o.trace), &o.cost)
        }
        Algorithm::Bl(_) if h.dimension() > MAX_ENUMERABLE_DIMENSION => {
            failed(seed, dimension_too_large(h.dimension()))
        }
        Algorithm::Bl(cfg) => {
            let o = bl_mis_in(h, rng, cfg, ws);
            outcome(seed, o.independent_set, SolveTrace::Bl(o.trace), &o.cost)
        }
        Algorithm::Kuw => {
            let o = kuw_mis_in(h, rng, ws);
            outcome(seed, o.independent_set, SolveTrace::Kuw(o.trace), &o.cost)
        }
        Algorithm::Greedy => {
            let o = greedy_mis_in(h, None, ws);
            outcome(seed, o.independent_set, SolveTrace::Greedy, &o.cost)
        }
        Algorithm::Permutation => {
            let o = permutation_mis_in(h, rng, ws);
            outcome(
                seed,
                o.independent_set,
                SolveTrace::Permutation(o.permutation),
                &o.cost,
            )
        }
        Algorithm::Linear => match linear_mis_in(h, rng, ws) {
            Ok(o) => outcome(
                seed,
                o.independent_set,
                SolveTrace::Linear(o.trace),
                &o.cost,
            ),
            Err(e) => failed(seed, SolveError::NotLinear(e)),
        },
    }
}

/// An induced query: derive the sub-instance from the resident graph's CSR
/// into a shard-local engine slot, then run the algorithm's `*_on_active_in`
/// body on it in place. The sub-engine keeps the resident graph's ids; the
/// bodies size their scratch by the sub-instance or take id-space buffers
/// without re-zeroing them, so a small query does not pay for the resident
/// graph. Each answer equals the one the algorithm gives on the compacted
/// instance, mapped back to original ids.
fn solve_induced(
    parent: &Hypergraph,
    vertices: &[VertexId],
    algorithm: &Algorithm,
    seed: u64,
    rng: &mut ChaCha8Rng,
    ws: &mut Workspace,
) -> SolveOutcome {
    let id_space = parent.n_vertices();
    // Validate the query (in range, duplicate-free) by marking it; the
    // buffer is pooled under a trusted-clean key, so every bit set here is
    // cleared again before it goes back.
    let mut marked = ws.take_flags_clean("serve.marked", id_space);
    let mut invalid: Option<SolveError> = None;
    let mut set_upto = vertices.len();
    for (i, &v) in vertices.iter().enumerate() {
        if (v as usize) >= id_space {
            invalid = Some(SolveError::InvalidQuery {
                vertex: v,
                duplicate: false,
            });
            set_upto = i;
            break;
        }
        if marked[v as usize] {
            invalid = Some(SolveError::InvalidQuery {
                vertex: v,
                duplicate: true,
            });
            set_upto = i;
            break;
        }
        marked[v as usize] = true;
    }
    for &v in &vertices[..set_upto] {
        marked[v as usize] = false;
    }
    ws.put_flags("serve.marked", marked);
    if let Some(error) = invalid {
        return failed(seed, error);
    }

    let mut sub: ActiveHypergraph = ws
        .take_any::<ActiveHypergraph>("serve.sub")
        .unwrap_or_else(|| ActiveHypergraph::from_parts(Vec::new(), Vec::new()));
    sub.reset_induced(parent, vertices);

    let mut cost = CostTracker::new();
    let out = match algorithm {
        Algorithm::Bl(_) if sub.dimension() > MAX_ENUMERABLE_DIMENSION => {
            failed(seed, dimension_too_large(sub.dimension()))
        }
        Algorithm::Bl(cfg) => {
            let (set, trace) = bl_on_active_in(&mut sub, rng, cfg, &mut cost, ws);
            outcome(seed, set, SolveTrace::Bl(trace), &cost)
        }
        Algorithm::Kuw => {
            let (set, trace) = kuw_on_active_in(&mut sub, rng, &mut cost, ws);
            outcome(seed, set, SolveTrace::Kuw(trace), &cost)
        }
        Algorithm::Greedy => {
            let set = greedy_on_active_in(&sub, &mut cost, ws);
            outcome(seed, set, SolveTrace::Greedy, &cost)
        }
        Algorithm::Sbl(cfg) => {
            let (set, trace, _) = sbl_on_active_in(&mut sub, rng, cfg, &mut cost, ws);
            outcome(seed, set, SolveTrace::Sbl(trace), &cost)
        }
        Algorithm::Permutation => {
            let (set, permutation) = permutation_on_active_in(&sub, rng, &mut cost, ws);
            outcome(seed, set, SolveTrace::Permutation(permutation), &cost)
        }
        Algorithm::Linear => match linear_on_active_in(&mut sub, rng, &mut cost, ws) {
            Ok((set, trace)) => outcome(seed, set, SolveTrace::Linear(trace), &cost),
            Err(e) => failed(seed, SolveError::NotLinear(e)),
        },
    };
    ws.put_any("serve.sub", sub);
    out
}

/// Configuration of a [`ShardedRunner`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of worker shards (clamped to at least 1).
    pub shards: usize,
    /// Per-shard submission-queue depth; [`ShardedRunner::submit`] blocks
    /// when the target shard has this many requests waiting (backpressure).
    pub queue_depth: usize,
    /// Rayon parallelism granted to each shard's solves (`None` = machine
    /// default). With many shards on a small host, `Some(1)` avoids
    /// oversubscription; by the determinism contract this setting never
    /// changes outcomes, only wall time.
    pub threads_per_shard: Option<usize>,
    /// How admitted requests are assigned to shards (default:
    /// [`RoutePolicy::RoundRobin`]).
    pub route: RoutePolicy,
    /// Per-tenant admission control (default: admit everything).
    pub admission: AdmissionConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: pram::pool::available_parallelism(),
            queue_depth: 64,
            threads_per_shard: None,
            route: RoutePolicy::default(),
            admission: AdmissionConfig::default(),
        }
    }
}

/// Per-shard scheduling counters in a [`ServeStats`] report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Admitted requests routed to this shard so far.
    pub routed: u64,
    /// Requests currently queued on or executing in this shard. The shard
    /// decrements it as it finishes each one, whether or not the outcome
    /// has been collected yet.
    pub in_queue: u64,
}

/// Per-tenant admission and delivery counters in a [`ServeStats`] report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant these counters describe.
    pub tenant: TenantId,
    /// Total [`submit`](ShardedRunner::submit) calls for this tenant.
    pub submitted: u64,
    /// Requests admitted (routed to a shard).
    pub admitted: u64,
    /// Requests denied with [`DenyReason::QuotaExhausted`].
    pub denied_quota: u64,
    /// Requests denied with [`DenyReason::InFlightCap`].
    pub denied_in_flight: u64,
    /// Outcomes delivered, as counted by [`ServeStats::delivered`]
    /// (includes denial outcomes).
    pub delivered: u64,
    /// Shards this tenant's admitted requests were routed to, ascending.
    /// Under [`RoutePolicy::TenantAffinity`] this has at most one entry.
    pub shards: Vec<usize>,
}

impl TenantStats {
    /// Total denials, either reason.
    pub fn denied(&self) -> u64 {
        self.denied_quota + self.denied_in_flight
    }
}

/// A point-in-time report of a [`ShardedRunner`]'s scheduling and admission
/// counters — see [`ShardedRunner::stats`].
///
/// Shard warmth per tenant follows from these counters: a tenant first
/// touches each shard in its [`TenantStats::shards`] once per runner, and
/// its other admitted requests land on a shard it has already warmed.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// The runner's routing policy.
    pub policy: RoutePolicy,
    /// Total submissions (admitted + denied).
    pub submitted: u64,
    /// Total admitted requests.
    pub admitted: u64,
    /// Total denied requests (both reasons).
    pub denied: u64,
    /// Total outcomes delivered: handed to the caller by a collection
    /// method or, on the [`net`](crate::net) front-end, handed off by the
    /// shard (or the denying submit) to the connection that asked.
    pub delivered: u64,
    /// Per-shard scheduling counters, indexed by shard.
    pub per_shard: Vec<ShardStats>,
    /// Per-tenant counters, ascending by [`TenantId`].
    pub per_tenant: Vec<TenantStats>,
    /// Per-connection counters, ascending by connection id. Empty for
    /// library runners: only the [`net`](crate::net) front-end has
    /// connections, and its [`Server::shutdown`](crate::net::Server::shutdown)
    /// fills this in (including connections that have already closed).
    pub connections: Vec<ConnectionStats>,
}

/// Per-connection counters of the [`net`](crate::net) front-end, reported
/// through [`ServeStats::connections`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Connection id (assigned by the acceptor in accept order, from 0).
    pub connection: u64,
    /// Request frames decoded and submitted to the runner.
    pub requests: u64,
    /// Response frames written back (outcomes and error frames).
    pub responses: u64,
    /// Frames rejected by the codec (the connection closes after the error
    /// frame is sent — a byte stream cannot be resynchronised past a
    /// framing error).
    pub protocol_errors: u64,
}

struct Job {
    ticket: u64,
    request: SolveRequest,
    // Snapshot resolution made at submission time (`None` for ad-hoc
    // targets). Shipping the `Arc` itself — not just the epoch — keeps the
    // pinned snapshot alive even if retention evicts it, or `compact`
    // re-bases the graph, while the job waits in a shard queue.
    resolved: Option<Result<Arc<ResidentSnapshot>, SolveError>>,
    // `None` queues the outcome for the collection methods; `Some` hands it
    // straight to whoever submitted the request.
    reply: Option<Reply>,
}

/// Where a request submitted through [`ShardedRunner::submit_to`] sends its
/// outcome: the [`net`](crate::net) front-end queues it on the connection's
/// writer, so `serve` never sees a frame.
pub(crate) type Reply = Box<dyn FnOnce(SolveOutcome) + Send>;

/// The runner's counters, behind one `Mutex` shared with the shards: a
/// shard counts itself down as it finishes each request and, for a request
/// submitted with a [`Reply`], records the delivery too. It is the only
/// lock a shard takes, and `submit` releases it before its blocking send,
/// so a submitter waiting on a full shard queue cannot stall the shard that
/// would drain it.
struct Accounting {
    delivered: u64,
    tenants: BTreeMap<TenantId, TenantState>,
    routed: Vec<u64>,
    in_queue: Vec<u64>,
}

const ACCOUNTING_POISONED: &str = "serve: accounting lock poisoned";

impl Accounting {
    /// Per-delivery bookkeeping, whoever delivers: a collection method, a
    /// shard calling a reply, or a submit denying a request with one.
    fn note_delivery(&mut self, out: &SolveOutcome) {
        self.delivered += 1;
        let st = self.tenants.entry(out.tenant).or_default();
        st.delivered += 1;
        if !matches!(out.error, Some(SolveError::AdmissionDenied { .. })) {
            // Only admitted requests counted toward the in-flight cap.
            st.in_flight = st.in_flight.saturating_sub(1);
        }
    }
}

/// Per-tenant admission bookkeeping (see [`AdmissionConfig`]).
#[derive(Default)]
struct TenantState {
    tokens: u64,
    bucket_initialized: bool,
    last_refill_at: u64,
    in_flight: u64,
    submitted: u64,
    admitted: u64,
    denied_quota: u64,
    denied_in_flight: u64,
    delivered: u64,
    shards: Vec<usize>,
}

/// The tenant-aware sharded serving runner. See the [module docs](self) for
/// the architecture, the routing/admission semantics and the determinism
/// contract.
///
/// Dropping the runner shuts the workers down; prefer
/// [`shutdown`](Self::shutdown) to get every shard's warmed [`Workspace`]
/// back for the next serve generation
/// ([`with_workspaces`](Self::with_workspaces)).
pub struct ShardedRunner {
    // Held for submission-time snapshot resolution only — workers never
    // touch the registry; each job carries its resolved snapshot `Arc`.
    registry: Arc<ResidentRegistry>,
    senders: Vec<SyncSender<Job>>,
    results: Receiver<SolveOutcome>,
    // Indexed by shard; each worker returns its workspace when it ends.
    workers: Vec<JoinHandle<Workspace>>,
    // The workspaces handed back by `shutdown`: those beyond the shard
    // count until the workers are joined, then every shard's in front.
    workspaces: Vec<Workspace>,
    // Raised at shutdown so workers drain their remaining queue without
    // solving it (still-queued work is discarded, not computed).
    cancel: Arc<std::sync::atomic::AtomicBool>,
    route: RoutePolicy,
    admission: AdmissionConfig,
    next_ticket: u64,
    next_deliver: u64,
    // Arrived (or locally synthesized) outcomes not yet handed out.
    pending: BTreeMap<u64, SolveOutcome>,
    // Tickets delivered by collect_streaming ahead of the ordered cursor.
    streamed: BTreeSet<u64>,
    accounting: Arc<Mutex<Accounting>>,
}

impl ShardedRunner {
    /// Spawns `config.shards` workers, each with a fresh [`Workspace`].
    pub fn new(registry: Arc<ResidentRegistry>, config: &ServeConfig) -> Self {
        Self::with_workspaces(registry, config, Vec::new())
    }

    /// Spawns `config.shards` workers and gives shard `i` the `i`-th of
    /// `workspaces` (as a previous generation's [`shutdown`](Self::shutdown)
    /// returned them), so its warmed buffers and engines are rewarmed
    /// shard by shard instead of rebuilt. Shards beyond the list get fresh
    /// workspaces; workspaces beyond the shard count stay untouched and
    /// come back from `shutdown` after the shards' own.
    pub fn with_workspaces(
        registry: Arc<ResidentRegistry>,
        config: &ServeConfig,
        mut workspaces: Vec<Workspace>,
    ) -> Self {
        let shards = config.shards.max(1);
        if workspaces.len() < shards {
            workspaces.resize_with(shards, Workspace::new);
        }
        let spare = workspaces.split_off(shards);
        let (result_tx, results) = channel();
        let cancel = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let accounting = Arc::new(Mutex::new(Accounting {
            delivered: 0,
            tenants: BTreeMap::new(),
            routed: vec![0; shards],
            in_queue: vec![0; shards],
        }));
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (shard, mut ws) in workspaces.into_iter().enumerate() {
            let (tx, rx) = sync_channel::<Job>(config.queue_depth.max(1));
            let result_tx = result_tx.clone();
            let cancel = Arc::clone(&cancel);
            let accounting = Arc::clone(&accounting);
            let handle = pram::pool::spawn_worker(
                format!("serve-shard-{shard}"),
                config.threads_per_shard,
                move || {
                    while let Ok(Job {
                        ticket,
                        request,
                        resolved,
                        reply,
                    }) = rx.recv()
                    {
                        // Shutdown: drain the queue without solving it.
                        if cancel.load(std::sync::atomic::Ordering::Acquire) {
                            continue;
                        }
                        // Workers never consult the registry: the snapshot
                        // (or error) was fixed at submission time, so a
                        // concurrent apply/compact/eviction cannot retarget
                        // a queued request.
                        let mut out = execute_resolved(&request, resolved, &mut ws);
                        out.ticket = ticket;
                        out.shard = shard;
                        let mut accounting = accounting.lock().expect(ACCOUNTING_POISONED);
                        accounting.in_queue[shard] -= 1;
                        match reply {
                            // The delivery is recorded before the reply goes
                            // out: a client that resubmits on receipt must
                            // find its in-flight slot already free.
                            Some(reply) => {
                                accounting.note_delivery(&out);
                                drop(accounting);
                                reply(out);
                            }
                            None => {
                                drop(accounting);
                                if result_tx.send(out).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                    ws
                },
            );
            senders.push(tx);
            workers.push(handle);
        }
        ShardedRunner {
            registry,
            senders,
            results,
            workers,
            workspaces: spare,
            cancel,
            route: config.route,
            admission: config.admission.clone(),
            next_ticket: 0,
            next_deliver: 0,
            pending: BTreeMap::new(),
            streamed: BTreeSet::new(),
            accounting,
        }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// The runner's routing policy.
    pub fn policy(&self) -> RoutePolicy {
        self.route
    }

    /// Submits a request and returns its ticket.
    ///
    /// The request first passes the tenant's admission check (see
    /// [`AdmissionConfig`]); a denied request still consumes its ticket and
    /// is answered with a [`SolveError::AdmissionDenied`] outcome through
    /// the normal collection machinery — rejection as data. Admitted
    /// requests are routed to a shard by the configured [`RoutePolicy`];
    /// this call blocks while the target shard's bounded queue is full
    /// (backpressure).
    pub fn submit(&mut self, request: SolveRequest) -> u64 {
        self.submit_to(request, None)
    }

    /// [`submit`](Self::submit), with the outcome going to `reply` (when
    /// given) instead of to the collection methods: the shard that computes
    /// it calls `reply` once the delivery is counted, and a denial is
    /// delivered by this call.
    pub(crate) fn submit_to(&mut self, mut request: SolveRequest, reply: Option<Reply>) -> u64 {
        // `next_ticket` doubles as the logical clock admission refill runs
        // on: it advances exactly once per submit call, so a replayed
        // submit/collect sequence sees identical bucket states.
        let now = self.next_ticket;
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let tenant = request.tenant;
        let quota = self.admission.quota_for(tenant);
        let mut guard = self.accounting.lock().expect(ACCOUNTING_POISONED);
        let accounting = &mut *guard;
        let st = accounting.tenants.entry(tenant).or_default();
        st.submitted += 1;
        if let Some(q) = quota {
            if !st.bucket_initialized {
                st.bucket_initialized = true;
                st.tokens = q.burst;
                st.last_refill_at = now;
            } else if let Some(add @ 1..) = (now - st.last_refill_at).checked_div(q.refill_every) {
                // `refill_every == 0` divides to `None`: refill disabled.
                // Saturating arithmetic throughout: with `refill_every` near
                // `u64::MAX`, `add * refill_every` overflows even though
                // `add ≥ 1` — clamping to the logical clock's ceiling keeps
                // the bucket sane instead of wrapping `last_refill_at`
                // backwards (which would mint tokens out of thin air).
                st.tokens = st.tokens.saturating_add(add).min(q.burst);
                st.last_refill_at = st
                    .last_refill_at
                    .saturating_add(add.saturating_mul(q.refill_every));
            }
            // The in-flight cap is checked first and does not consume a
            // token: a capped burst should not also drain the bucket.
            let reason = if q.max_in_flight.is_some_and(|cap| st.in_flight >= cap) {
                st.denied_in_flight += 1;
                Some(DenyReason::InFlightCap)
            } else if st.tokens == 0 {
                st.denied_quota += 1;
                Some(DenyReason::QuotaExhausted)
            } else {
                st.tokens -= 1;
                None
            };
            if let Some(reason) = reason {
                let mut out = failed(request.seed, SolveError::AdmissionDenied { tenant, reason });
                out.ticket = ticket;
                out.tenant = tenant;
                match reply {
                    Some(reply) => {
                        accounting.note_delivery(&out);
                        drop(guard);
                        reply(out);
                    }
                    None => {
                        self.pending.insert(ticket, out);
                    }
                }
                return ticket;
            }
        }
        let shard = match self.route {
            RoutePolicy::RoundRobin => (ticket % self.senders.len() as u64) as usize,
            RoutePolicy::TenantAffinity => affinity_shard(tenant, self.senders.len()),
            RoutePolicy::LeastQueued => accounting
                .in_queue
                .iter()
                .enumerate()
                .min_by_key(|&(_, &q)| q)
                .map(|(i, _)| i)
                .unwrap_or(0),
        };
        st.admitted += 1;
        st.in_flight += 1;
        if let Err(i) = st.shards.binary_search(&shard) {
            st.shards.insert(i, shard);
        }
        accounting.routed[shard] += 1;
        accounting.in_queue[shard] += 1;
        // Released before the blocking send below: the shard that must make
        // room in its queue takes this lock as it finishes.
        drop(guard);
        // Resolve the target snapshot *now*, on the caller thread: the
        // logical submission order decides which epoch a request sees, never
        // the race between a shard dequeue and a concurrent
        // `ResidentRegistry::apply`. The job carries the snapshot `Arc` (or
        // the resolution error — `UnknownGraph`, `UnknownEpoch`,
        // `EpochEvicted` — as data), so a later eviction or `compact` cannot
        // retarget or fail a request that was admitted against a live epoch.
        let resolved = request
            .target
            .graph_id()
            .map(|id| self.registry.lookup(id, request.pin));
        if let Some(Ok(snap)) = &resolved {
            // Echo the concrete epoch into the pin so the outcome reports it.
            request.pin = EpochPin::At(snap.epoch());
        }
        self.senders[shard]
            .send(Job {
                ticket,
                request,
                resolved,
                reply,
            })
            .expect("serve: worker shard disconnected (a worker thread panicked)");
        ticket
    }

    /// Number of submitted requests not yet delivered by either collection
    /// mode (or, on the [`net`](crate::net) front-end, to their replies).
    pub fn outstanding(&self) -> u64 {
        self.next_ticket - self.accounting().delivered
    }

    fn accounting(&self) -> MutexGuard<'_, Accounting> {
        self.accounting.lock().expect(ACCOUNTING_POISONED)
    }

    /// Blocks for the next arrival from any shard, with worker-liveness
    /// checks: a plain blocking recv would hang forever if *one* worker of
    /// several died (the survivors keep the channel open but the dead
    /// shard's tickets never arrive), so wait in slices and check worker
    /// liveness on every timeout — during serving no worker thread finishes
    /// except by panicking.
    fn recv_one(&mut self) -> SolveOutcome {
        loop {
            match self
                .results
                .recv_timeout(std::time::Duration::from_millis(50))
            {
                Ok(out) => return out,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    if let Some(shard) = self.workers.iter().position(|h| h.is_finished()) {
                        panic!(
                            "serve: worker shard {shard} died with {} outcomes outstanding",
                            self.outstanding()
                        );
                    }
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    panic!("serve: all workers disconnected with outcomes outstanding")
                }
            }
        }
    }

    /// Records a ticket delivered out of order by streaming collection, so
    /// the ordered cursor skips it later.
    fn mark_streamed(&mut self, ticket: u64) {
        if ticket == self.next_deliver {
            self.next_deliver += 1;
            while self.streamed.remove(&self.next_deliver) {
                self.next_deliver += 1;
            }
        } else {
            self.streamed.insert(ticket);
        }
    }

    /// Collects the next `count` outcomes **in submission-ticket order**,
    /// regardless of which shard finished first: out-of-order arrivals are
    /// buffered until their predecessors land. Tickets already delivered by
    /// [`collect_streaming`](Self::collect_streaming) are skipped.
    ///
    /// # Panics
    /// Panics if `count` exceeds [`outstanding`](Self::outstanding) (the
    /// extra outcomes could never arrive), or if a worker died.
    pub fn collect_ordered(&mut self, count: usize) -> Vec<SolveOutcome> {
        assert!(
            count as u64 <= self.outstanding(),
            "serve: asked for {count} outcomes with only {} outstanding",
            self.outstanding()
        );
        let mut delivered = Vec::with_capacity(count);
        while delivered.len() < count {
            while self.streamed.remove(&self.next_deliver) {
                self.next_deliver += 1;
            }
            if let Some(out) = self.pending.remove(&self.next_deliver) {
                self.next_deliver += 1;
                self.accounting().note_delivery(&out);
                delivered.push(out);
                continue;
            }
            let out = self.recv_one();
            if out.ticket == self.next_deliver {
                self.next_deliver += 1;
                self.accounting().note_delivery(&out);
                delivered.push(out);
            } else {
                self.pending.insert(out.ticket, out);
            }
        }
        delivered
    }

    /// Streaming collection: an iterator over the next `count` outcomes **as
    /// they complete** — out of (ticket) order, minimizing latency to first
    /// result. Each outcome still carries its ticket, so callers can
    /// re-associate responses with submissions; already-buffered outcomes
    /// (including admission denials, which complete instantly) are yielded
    /// first.
    ///
    /// Streaming and ordered collection interoperate on one runner: a later
    /// [`collect_ordered`](Self::collect_ordered) skips tickets this
    /// iterator already delivered. Dropping the iterator early simply leaves
    /// the remaining outcomes outstanding.
    ///
    /// The yielded multiset of outcomes is a **permutation** of what ordered
    /// collection would deliver, with byte-identical per-ticket payloads —
    /// the [determinism contract](self#determinism-contract) pins results,
    /// and only delivery order differs.
    ///
    /// # Panics
    /// Panics at creation if `count` exceeds
    /// [`outstanding`](Self::outstanding); during iteration if a worker
    /// died.
    pub fn collect_streaming(&mut self, count: usize) -> StreamingCollect<'_> {
        assert!(
            count as u64 <= self.outstanding(),
            "serve: asked to stream {count} outcomes with only {} outstanding",
            self.outstanding()
        );
        StreamingCollect {
            runner: self,
            remaining: count,
        }
    }

    /// Collects everything still outstanding, in ticket order.
    pub fn collect_outstanding(&mut self) -> Vec<SolveOutcome> {
        self.collect_ordered(self.outstanding() as usize)
    }

    /// Submits a whole stream and returns its outcomes in submission order —
    /// requests pipeline through the shards while earlier results are still
    /// being computed.
    pub fn run_stream(&mut self, requests: Vec<SolveRequest>) -> Vec<SolveOutcome> {
        let n = requests.len();
        for request in requests {
            self.submit(request);
        }
        self.collect_ordered(n)
    }

    /// Shuts the workers down and returns every shard's workspace in shard
    /// order (warm for the next generation's
    /// [`with_workspaces`](Self::with_workspaces)), followed by any it was
    /// given beyond the shard count. A shard whose worker panicked hands
    /// back a fresh workspace, so the shards after it keep their index.
    /// Undelivered outcomes are discarded, and still-**queued** requests are
    /// drained without being solved — shutdown waits only for each shard's
    /// in-flight solve, not its backlog.
    pub fn shutdown(mut self) -> Vec<Workspace> {
        self.shutdown_workers();
        std::mem::take(&mut self.workspaces)
    }

    /// A point-in-time [`ServeStats`] report: total and per-tenant
    /// submissions, admissions, denials and deliveries, plus per-shard
    /// routing counters. Under `RoundRobin`/`TenantAffinity` routing the
    /// report, except [`ShardStats::in_queue`] (which follows the shards'
    /// progress), is a pure function of the submit/collect call sequence, so
    /// it is replay-deterministic like the outcomes themselves.
    pub fn stats(&self) -> ServeStats {
        let accounting = self.accounting();
        let per_shard = accounting
            .routed
            .iter()
            .zip(&accounting.in_queue)
            .map(|(&routed, &in_queue)| ShardStats { routed, in_queue })
            .collect();
        let per_tenant: Vec<TenantStats> = accounting
            .tenants
            .iter()
            .map(|(&tenant, st)| TenantStats {
                tenant,
                submitted: st.submitted,
                admitted: st.admitted,
                denied_quota: st.denied_quota,
                denied_in_flight: st.denied_in_flight,
                delivered: st.delivered,
                shards: st.shards.clone(),
            })
            .collect();
        ServeStats {
            policy: self.route,
            submitted: self.next_ticket,
            admitted: per_tenant.iter().map(|t| t.admitted).sum(),
            denied: per_tenant.iter().map(|t| t.denied()).sum(),
            delivered: accounting.delivered,
            per_shard,
            per_tenant,
            connections: Vec::new(),
        }
    }

    /// Closes the shard queues *without* cancelling them, so every request
    /// already submitted is solved, and each submitted with a reply is
    /// delivered to it, before this returns the final
    /// [`stats`](Self::stats). [`shutdown`](Self::shutdown), by contrast,
    /// discards queued work.
    pub(crate) fn finish(&mut self) -> ServeStats {
        self.join_workers();
        self.stats()
    }

    fn shutdown_workers(&mut self) {
        // Tell workers to drain instead of solve before their queues close.
        self.cancel
            .store(true, std::sync::atomic::Ordering::Release);
        self.join_workers();
    }

    /// Ends the workers' recv loops by dropping the senders, and puts each
    /// shard's workspace in front of the spare ones, in shard order.
    fn join_workers(&mut self) {
        self.senders.clear();
        let joined: Vec<Workspace> = self
            .workers
            .drain(..)
            .map(|handle| handle.join().unwrap_or_default())
            .collect();
        self.workspaces.splice(..0, joined);
    }
}

impl Drop for ShardedRunner {
    fn drop(&mut self) {
        self.shutdown_workers();
    }
}

/// The iterator returned by
/// [`ShardedRunner::collect_streaming`]: yields outcomes in completion
/// order, each carrying its submission ticket.
pub struct StreamingCollect<'a> {
    runner: &'a mut ShardedRunner,
    remaining: usize,
}

impl Iterator for StreamingCollect<'_> {
    type Item = SolveOutcome;

    fn next(&mut self) -> Option<SolveOutcome> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Buffered outcomes first (lowest ticket first): admission denials
        // and anything an earlier collect already pulled off the channel.
        let out = match self.runner.pending.pop_first() {
            Some((_, out)) => out,
            None => self.runner.recv_one(),
        };
        self.runner.mark_streamed(out.ticket);
        self.runner.accounting().note_delivery(&out);
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for StreamingCollect<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::builder::hypergraph_from_edges;

    fn tiny() -> Hypergraph {
        hypergraph_from_edges(4, vec![vec![0, 1], vec![2, 3]])
    }

    // The two `locate` failure modes are different caller bugs and must be
    // distinguishable from the panic message alone.
    #[test]
    #[should_panic(expected = "minted by a different ResidentRegistry")]
    fn foreign_id_panics_with_registry_mismatch_message() {
        let mut a = ResidentRegistry::new();
        let id = a.register(tiny());
        let b = ResidentRegistry::new();
        let _ = b.latest(id);
    }

    #[test]
    #[should_panic(expected = "index 7 out of range: this registry holds 1 graph(s)")]
    fn out_of_range_index_panics_with_bounds_message() {
        let mut a = ResidentRegistry::new();
        let id = a.register(tiny());
        let bad = GraphId {
            registry: id.registry,
            index: 7,
        };
        let _ = a.latest(bad);
    }

    // The request path must never panic on the same inputs: errors as data.
    #[test]
    fn lookup_reports_foreign_and_out_of_range_ids_as_errors() {
        let mut a = ResidentRegistry::new();
        let id = a.register(tiny());
        let b = ResidentRegistry::new();
        assert_eq!(
            b.lookup(id, EpochPin::Latest).unwrap_err(),
            SolveError::UnknownGraph(id)
        );
        let bad = GraphId {
            registry: id.registry,
            index: 7,
        };
        assert_eq!(
            a.lookup(bad, EpochPin::Latest).unwrap_err(),
            SolveError::UnknownGraph(bad)
        );
        assert_eq!(
            a.lookup(id, EpochPin::At(Epoch(3))).unwrap_err(),
            SolveError::UnknownEpoch {
                graph: id,
                epoch: Epoch(3)
            }
        );
    }

    // Three-way `EpochPin::At` semantics under retention: beyond the tip is
    // `UnknownEpoch` ("never reached"), below the floor is `EpochEvicted`
    // ("was real, history dropped"), and the base + latest epochs always
    // stay resident.
    #[test]
    fn eviction_is_distinguishable_from_unknown_epochs() {
        let mut reg = ResidentRegistry::with_retention(RetentionPolicy::keep_last(1));
        let id = reg.register(tiny());
        for _ in 0..4 {
            reg.apply(id, &[GraphEdit::GrowVertices(1)]).unwrap();
        }
        assert_eq!(reg.retention_floor(id), Epoch(4));
        assert_eq!(reg.retained_snapshots(id), 2); // base + latest
        assert_eq!(reg.evictions(id), 3);
        assert!(reg.lookup(id, EpochPin::At(Epoch(0))).is_ok());
        assert!(reg.lookup(id, EpochPin::At(Epoch(4))).is_ok());
        assert_eq!(
            reg.lookup(id, EpochPin::At(Epoch(2))).unwrap_err(),
            SolveError::EpochEvicted {
                graph: id,
                epoch: Epoch(2),
                floor: Epoch(4),
            }
        );
        assert_eq!(
            reg.lookup(id, EpochPin::At(Epoch(9))).unwrap_err(),
            SolveError::UnknownEpoch {
                graph: id,
                epoch: Epoch(9),
            }
        );
    }

    // Compaction truncates history but preserves epoch numbers: the latest
    // epoch survives as the new base, everything older is evicted.
    #[test]
    fn compact_rebases_onto_the_latest_snapshot() {
        let mut reg = ResidentRegistry::new();
        let id = reg.register(tiny());
        reg.apply(id, &[GraphEdit::GrowVertices(2)]).unwrap();
        reg.apply(id, &[GraphEdit::AddEdge(vec![4, 5])]).unwrap();
        let before = reg.latest(id);
        assert_eq!(reg.compact(id), Epoch(2));
        assert_eq!(reg.base_epoch(id), Epoch(2));
        assert_eq!(reg.edit_log(id).len(), 0);
        assert_eq!(reg.retained_snapshots(id), 1);
        let after = reg.latest(id);
        assert_eq!(after.epoch(), Epoch(2));
        assert_eq!(after.log_len(), 0);
        // The rebased snapshot shares the same graph, not a rebuilt copy.
        assert!(std::ptr::eq(before.graph(), after.graph()));
        assert_eq!(
            reg.lookup(id, EpochPin::At(Epoch(1))).unwrap_err(),
            SolveError::EpochEvicted {
                graph: id,
                epoch: Epoch(1),
                floor: Epoch(2),
            }
        );
        // Post-compact edits continue the same epoch sequence.
        reg.apply(id, &[GraphEdit::GrowVertices(1)]).unwrap();
        assert_eq!(reg.latest(id).epoch(), Epoch(3));
        assert_eq!(reg.latest(id).log_len(), 1);
    }

    /// A unique temp path for snapshot-file tests (same idiom as the WAL
    /// round-trip tests in `tests/registry.rs`).
    fn temp_csr(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hgmis-serve-{tag}-{}.hgcsr", std::process::id()))
    }

    // `persist_snapshot` → `open_mapped` round-trips the graph bit-for-bit
    // and registers it on the mapped tier.
    #[test]
    fn persist_snapshot_then_open_mapped_round_trips() {
        let path = temp_csr("roundtrip");
        let mut reg = ResidentRegistry::new();
        let id = reg.register(tiny());
        reg.persist_snapshot(id, &path).unwrap();

        let mut reopened = ResidentRegistry::new();
        let mid = reopened.open_mapped(&path).unwrap();
        let orig = reg.latest(id);
        let mapped = reopened.latest(mid);
        assert_eq!(orig.graph(), mapped.graph());
        assert_eq!(mapped.graph().storage_kind(), "mapped");
        assert_eq!(mapped.epoch(), Epoch(0));
        assert!(!reopened.is_spilled(mid));
        std::fs::remove_file(&path).ok();
    }

    // `resident_bytes` sums the base arenas of every resident snapshot,
    // whichever tier they live on.
    #[test]
    fn resident_bytes_counts_owned_and_mapped_arenas() {
        let path = temp_csr("bytes");
        let per_graph = tiny().bytes_resident() as u64;
        let mut reg = ResidentRegistry::new();
        let owned = reg.register(tiny());
        assert_eq!(reg.resident_bytes(), per_graph);
        reg.persist_snapshot(owned, &path).unwrap();
        reg.open_mapped(&path).unwrap();
        assert_eq!(reg.resident_bytes(), 2 * per_graph);
        std::fs::remove_file(&path).ok();
    }

    // Under a byte cap the least-recently-touched mapped entry spills, and a
    // later query pages it back in (possibly spilling the other entry in
    // turn). Counters track every transition.
    #[test]
    fn spill_policy_evicts_lru_and_queries_page_back_in() {
        let pa = temp_csr("lru-a");
        let pb = temp_csr("lru-b");
        hypergraph::io::write_csr(&tiny(), &pa).unwrap();
        hypergraph::io::write_csr(&tiny(), &pb).unwrap();
        let per_graph = tiny().bytes_resident() as u64;

        // Cap = one graph: whichever entry is LRU must give way.
        let mut reg = ResidentRegistry::with_spill(SpillPolicy::max_bytes(per_graph));
        let a = reg.open_mapped(&pa).unwrap();
        let b = reg.open_mapped(&pb).unwrap();
        assert!(reg.is_spilled(a), "oldest mapped entry spills first");
        assert!(!reg.is_spilled(b));
        assert_eq!(reg.spills(a), 1);
        assert_eq!(reg.resident_bytes(), per_graph);

        // Touching the spilled entry pages it in; `b` is now LRU and spills.
        let snap = reg.latest(a);
        assert_eq!(snap.graph(), &tiny());
        assert!(!reg.is_spilled(a));
        assert!(reg.is_spilled(b));
        assert_eq!(reg.page_ins(a), 1);
        assert_eq!(reg.spills(b), 1);
        assert_eq!(reg.resident_bytes(), per_graph);

        // A spilled graph still reports its metadata without paging in.
        assert_eq!(reg.current_epoch(b), Epoch(0));
        assert_eq!(reg.retained_snapshots(b), 0);
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    // The request path resolves pins against a paged-in base snapshot with
    // the same three-way semantics as a resident entry, and the registry
    // counts every page-in it makes.
    #[test]
    fn lookup_pages_in_spilled_entries_and_reports_it() {
        let path = temp_csr("lookup");
        hypergraph::io::write_csr(&tiny(), &path).unwrap();
        let mut reg = ResidentRegistry::with_spill(SpillPolicy::max_bytes(0));
        let id = reg.open_mapped(&path).unwrap();
        assert!(reg.is_spilled(id), "a zero cap spills immediately");
        assert_eq!(reg.resident_bytes(), 0);

        let res = reg.lookup(id, EpochPin::Latest);
        assert_eq!(reg.page_ins(id), 1);
        assert_eq!(res.unwrap().graph(), &tiny());
        // The zero cap re-spills as soon as the query's Arc is handed out.
        assert!(reg.is_spilled(id));
        assert_eq!(reg.spills(id), 2);
        assert_eq!(reg.page_ins(id), 1);

        // Pinned lookups agree with resident semantics: the base epoch
        // resolves, an epoch beyond the tip is unknown.
        assert!(reg.lookup(id, EpochPin::At(Epoch(0))).is_ok());
        assert_eq!(reg.page_ins(id), 2);
        assert_eq!(
            reg.lookup(id, EpochPin::At(Epoch(5))).unwrap_err(),
            SolveError::UnknownEpoch {
                graph: id,
                epoch: Epoch(5)
            }
        );
        std::fs::remove_file(&path).ok();
    }

    // Spilling is only sound while the snapshot file is the entry's complete
    // state: the first `apply` pages the graph in and pins it resident for
    // good (its log exists nowhere on disk).
    #[test]
    fn mutation_pages_in_and_pins_the_entry_resident() {
        let path = temp_csr("pin");
        hypergraph::io::write_csr(&tiny(), &path).unwrap();
        let mut reg = ResidentRegistry::with_spill(SpillPolicy::max_bytes(0));
        let id = reg.open_mapped(&path).unwrap();
        assert!(reg.is_spilled(id));

        let epoch = reg.apply(id, &[GraphEdit::GrowVertices(1)]).unwrap();
        assert_eq!(epoch, Epoch(1));
        assert!(!reg.is_spilled(id), "a mutated entry never spills");
        assert_eq!(reg.spills(id), 1);
        assert_eq!(reg.page_ins(id), 1);
        assert_eq!(reg.latest(id).graph().n_vertices(), 5);

        // Still pinned after further traffic that the cap would otherwise
        // evict.
        let _ = reg.latest(id);
        assert!(!reg.is_spilled(id));
        std::fs::remove_file(&path).ok();
    }

    // A spilled entry whose snapshot file has vanished is an error on the
    // request path (errors as data), not a panic.
    #[test]
    fn missing_source_is_an_error_on_the_request_path() {
        let path = temp_csr("gone-lookup");
        hypergraph::io::write_csr(&tiny(), &path).unwrap();
        let mut reg = ResidentRegistry::with_spill(SpillPolicy::max_bytes(0));
        let id = reg.open_mapped(&path).unwrap();
        assert!(reg.is_spilled(id));
        std::fs::remove_file(&path).unwrap();

        match reg.lookup(id, EpochPin::Latest).unwrap_err() {
            SolveError::SnapshotUnavailable { graph, detail } => {
                assert_eq!(graph, id);
                assert!(detail.contains("cannot re-open"), "detail: {detail}");
            }
            other => panic!("expected SnapshotUnavailable, got {other:?}"),
        }
        assert_eq!(reg.page_ins(id), 0);
    }

    // The same failure on a direct accessor is a caller-visible panic with
    // the documented message.
    #[test]
    #[should_panic(expected = "spilled resident graph could not be paged back in")]
    fn missing_source_panics_on_direct_accessors() {
        let path = temp_csr("gone-latest");
        hypergraph::io::write_csr(&tiny(), &path).unwrap();
        let mut reg = ResidentRegistry::with_spill(SpillPolicy::max_bytes(0));
        let id = reg.open_mapped(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let _ = reg.latest(id);
    }

    // A reply runs only once its delivery is counted, on the shard and on
    // the denying submit alike: a client that resubmits the moment a reply
    // arrives must find its in-flight slot already free.
    #[test]
    fn a_reply_runs_after_its_delivery_is_counted() {
        let mut registry = ResidentRegistry::new();
        let id = registry.register(tiny());
        let quota = TenantQuota {
            burst: 1,
            refill_every: 0,
            max_in_flight: Some(1),
        };
        let config = ServeConfig {
            shards: 1,
            threads_per_shard: Some(1),
            admission: AdmissionConfig {
                default_quota: Some(quota),
                per_tenant: Vec::new(),
            },
            ..ServeConfig::default()
        };
        let mut runner = ShardedRunner::new(Arc::new(registry), &config);
        let (tx, rx) = channel();
        // The first request is admitted and answered by the shard; the
        // second finds the bucket empty and is answered by `submit_to`.
        for (seed, expected) in [
            (0, (None, 1, 0)),
            (1, (Some(DenyReason::QuotaExhausted), 2, 0)),
        ] {
            let accounting = Arc::clone(&runner.accounting);
            let tx = tx.clone();
            let reply: Reply = Box::new(move |out| {
                let accounting = accounting.lock().expect("accounting");
                let reason = match out.error {
                    Some(SolveError::AdmissionDenied { reason, .. }) => Some(reason),
                    _ => None,
                };
                let in_flight = accounting.tenants[&out.tenant].in_flight;
                tx.send((reason, accounting.delivered, in_flight))
                    .expect("test receiver");
            });
            runner.submit_to(SolveRequest::for_graph(id).seed(seed).build(), Some(reply));
            assert_eq!(rx.recv().expect("a reply"), expected, "request {seed}");
        }
        assert_eq!(runner.outstanding(), 0);
    }

    // One copy per resident graph: every path that publishes a snapshot
    // (register, a mapped open that spills and pages back in, apply,
    // compact, restore) and a full plus an induced query of every algorithm
    // on each graph leave every snapshot's engine cell empty.
    #[test]
    fn serving_never_builds_a_snapshot_engine() {
        let csr = temp_csr("engine-cell");
        let wal = csr.with_extension("wal");
        let h = hypergraph::generate::linear(&mut ChaCha8Rng::seed_from_u64(7), 60, 20, 3);
        hypergraph::io::write_csr(&h, &csr).unwrap();
        let mut reg = ResidentRegistry::with_spill(SpillPolicy::max_bytes(0));
        let owned = reg.register(h);
        let mapped = reg.open_mapped(&csr).unwrap();
        assert!(reg.is_spilled(mapped));
        reg.apply(owned, &[GraphEdit::GrowVertices(2)]).unwrap();
        reg.apply(owned, &[GraphEdit::AddEdge(vec![60, 61])])
            .unwrap();
        reg.compact(owned);
        reg.apply(owned, &[GraphEdit::AddEdge(vec![0, 61])])
            .unwrap();
        reg.persist(owned, &wal).unwrap();
        let restored = reg.restore(&wal).unwrap();

        let algorithms = [
            Algorithm::Sbl(SblConfig::default()),
            Algorithm::Bl(BlConfig::default()),
            Algorithm::Kuw,
            Algorithm::Greedy,
            Algorithm::Permutation,
            Algorithm::Linear,
        ];
        let query: Vec<VertexId> = (0..40).rev().collect();
        let mut ws = Workspace::new();
        let mut queried = Vec::new();
        for id in [owned, mapped, restored] {
            for algorithm in &algorithms {
                for req in [
                    SolveRequest::for_graph(id),
                    SolveRequest::induced(id, query.clone()),
                ] {
                    let req = req.algorithm(algorithm.clone()).build();
                    let snap = reg.lookup(id, EpochPin::Latest).unwrap();
                    let out = execute_resolved(&req, Some(Ok(Arc::clone(&snap))), &mut ws);
                    assert_eq!(out.error, None, "{algorithm:?} on {id:?}");
                    queried.push(snap);
                }
            }
        }
        assert!(reg.page_ins(mapped) > 0);
        let retained: Vec<Arc<ResidentSnapshot>> = reg
            .entries
            .iter()
            .flat_map(|entry| entry.read().unwrap().snapshots.clone())
            .flatten()
            .collect();
        // Owned and restored: the compacted base and one later epoch each;
        // the mapped graph is spilled again.
        assert_eq!(retained.len(), 4);
        for snap in retained.iter().chain(&queried) {
            assert!(
                snap.engine.get().is_none(),
                "epoch {:?} built an engine",
                snap.epoch
            );
        }
        std::fs::remove_file(&csr).ok();
        std::fs::remove_file(&wal).ok();
    }

    /// The oracle for [`solve_induced`]: BL and KUW on the sub-engine; SBL,
    /// greedy, permutation and linear on the sub-instance compacted to a
    /// standalone hypergraph, solved by `*_mis_in` and mapped back to
    /// original ids. Queries must be valid (in range, duplicate-free).
    fn solve_induced_compacted(
        parent: &ActiveHypergraph,
        vertices: &[VertexId],
        algorithm: &Algorithm,
        seed: u64,
        ws: &mut Workspace,
    ) -> SolveOutcome {
        let rng = &mut ChaCha8Rng::seed_from_u64(seed);
        let mut marked = vec![false; parent.id_space()];
        for &v in vertices {
            marked[v as usize] = true;
        }
        let mut sub = parent.induced_by(&marked);
        let mut cost = CostTracker::new();
        match algorithm {
            Algorithm::Bl(cfg) => {
                let (set, trace) = bl_on_active_in(&mut sub, rng, cfg, &mut cost, ws);
                outcome(seed, set, SolveTrace::Bl(trace), &cost)
            }
            Algorithm::Kuw => {
                let (set, trace) = kuw_on_active_in(&mut sub, rng, &mut cost, ws);
                outcome(seed, set, SolveTrace::Kuw(trace), &cost)
            }
            Algorithm::Greedy => {
                let (hc, map) = sub.compact();
                let o = greedy_mis_in(&hc, None, ws);
                outcome(
                    seed,
                    map_back(&o.independent_set, &map),
                    SolveTrace::Greedy,
                    &o.cost,
                )
            }
            Algorithm::Sbl(cfg) => {
                let (hc, map) = sub.compact();
                let o = sbl_mis_in(&hc, rng, cfg, ws);
                outcome(
                    seed,
                    map_back(&o.independent_set, &map),
                    SolveTrace::Sbl(o.trace),
                    &o.cost,
                )
            }
            Algorithm::Permutation => {
                let (hc, map) = sub.compact();
                let o = permutation_mis_in(&hc, rng, ws);
                let permutation = o.permutation.iter().map(|&v| map[v as usize]).collect();
                outcome(
                    seed,
                    map_back(&o.independent_set, &map),
                    SolveTrace::Permutation(permutation),
                    &o.cost,
                )
            }
            Algorithm::Linear => {
                let (hc, map) = sub.compact();
                match linear_mis_in(&hc, rng, ws) {
                    Ok(o) => outcome(
                        seed,
                        map_back(&o.independent_set, &map),
                        SolveTrace::Linear(o.trace),
                        &o.cost,
                    ),
                    Err(e) => failed(seed, SolveError::NotLinear(e)),
                }
            }
        }
    }

    /// Maps a sorted compact-id set back to original ids. `map` (new → old)
    /// is ascending by construction of `compact`, so order is preserved.
    fn map_back(set: &[VertexId], map: &[VertexId]) -> Vec<VertexId> {
        let mapped: Vec<VertexId> = set.iter().map(|&v| map[v as usize]).collect();
        debug_assert!(mapped.windows(2).all(|w| w[0] < w[1]));
        mapped
    }

    /// A resident graph of family `kind`:
    /// 0. paper_regime with edges above the SBL dimension cap (3), large
    ///    enough that SBL's default parameters sample;
    /// 1. 3-uniform, so SBL delegates to one BL call;
    /// 2. linear;
    /// 3. mixed dimension, almost surely non-linear (`NotLinear` indices);
    /// 4. duplicate edges and singletons: a 3-uniform graph whose edges
    ///    were trimmed by a random vertex set, then compacted;
    /// 5. singleton edges next to pairs and triples.
    fn oracle_graph(kind: u8, seed: u64) -> Hypergraph {
        use hypergraph::generate;
        let r = &mut ChaCha8Rng::seed_from_u64(seed);
        match kind {
            0 => generate::paper_regime(r, 480, 60, 7),
            1 => generate::d_uniform(r, 90, 180, 3),
            2 => generate::linear(r, 90, 40, 3),
            3 => generate::mixed_dimension(r, 70, 120, &[2, 3, 4]),
            4 => {
                let h = generate::d_uniform(r, 40, 90, 3);
                let trim = generate::random_subset(r, 40, 12);
                let mut flags = vec![false; 40];
                for &v in &trim {
                    flags[v as usize] = true;
                }
                let mut engine = ActiveHypergraph::from_hypergraph(&h);
                engine.shrink_edges_by(&flags, &trim);
                engine.compact().0
            }
            _ => {
                let mut edges: Vec<Vec<VertexId>> = (0..8).map(|v| vec![v * 5]).collect();
                edges.extend(generate::d_uniform(r, 60, 50, 2).edges_owned());
                edges.extend(generate::d_uniform(r, 60, 40, 3).edges_owned());
                hypergraph_from_edges(60, edges)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Every algorithm's engine body answers an induced query exactly as
        /// the compacting path does, fingerprint for fingerprint: empty,
        /// one-vertex, random and whole-vertex-set queries, against the
        /// registered epoch or a mutated one.
        #[test]
        fn induced_engine_path_matches_the_compacting_oracle(
            kind in 0u8..6,
            graph_seed in proptest::prelude::any::<u64>(),
            query_seed in proptest::prelude::any::<u64>(),
            query_kind in 0u8..4,
            mutated in proptest::prelude::any::<bool>(),
        ) {
            use rand::seq::SliceRandom;
            use rand::Rng;

            let h = oracle_graph(kind, graph_seed);
            let n = h.n_vertices() as VertexId;
            let mut edits = vec![
                GraphEdit::GrowVertices(2),
                GraphEdit::AddEdge(vec![n, n + 1]),
                GraphEdit::AddEdge(vec![0, n]),
            ];
            if h.n_edges() > 0 {
                edits.push(GraphEdit::RemoveEdge(h.edge(0).to_vec()));
            }
            let mut reg = ResidentRegistry::new();
            let id = reg.register(h);
            reg.apply(id, &edits).unwrap();
            let snap = reg.lookup(id, EpochPin::At(Epoch(u64::from(mutated)))).unwrap();
            let parent = &ActiveHypergraph::from_hypergraph(snap.graph());

            let r = &mut ChaCha8Rng::seed_from_u64(query_seed);
            let id_space = parent.id_space();
            let mut query = match query_kind {
                0 => Vec::new(),
                1 => vec![r.gen_range(0..id_space as VertexId)],
                2 => {
                    let k = r.gen_range(0..=id_space);
                    hypergraph::generate::random_subset(r, id_space, k)
                }
                _ => (0..id_space as VertexId).collect(),
            };
            query.shuffle(r);

            // A tail threshold of 4 makes SBL sample small instances too,
            // with `p` resolved from the alive count or forced high enough
            // to trip the dimension check and resample.
            let small_tail = SblConfig {
                tail_threshold: Some(4),
                ..SblConfig::default()
            };
            let resampling = SblConfig {
                p: Some(0.4),
                ..small_tail.clone()
            };
            let algorithms = [
                Algorithm::Sbl(SblConfig::default()),
                Algorithm::Sbl(small_tail),
                Algorithm::Sbl(resampling),
                Algorithm::Bl(BlConfig::default()),
                Algorithm::Kuw,
                Algorithm::Greedy,
                Algorithm::Permutation,
                Algorithm::Linear,
            ];
            let (mut ws, mut oracle_ws) = (Workspace::new(), Workspace::new());
            for algorithm in &algorithms {
                let seed = rand::RngCore::next_u64(r);
                let rng = &mut ChaCha8Rng::seed_from_u64(seed);
                let got = solve_induced(snap.graph(), &query, algorithm, seed, rng, &mut ws);
                let want = solve_induced_compacted(parent, &query, algorithm, seed, &mut oracle_ws);
                proptest::prop_assert_eq!(got.fingerprint(), want.fingerprint());
            }
        }
    }
}
