//! # hypergraph-mis
//!
//! A Rust implementation of *"On Computing Maximal Independent Sets of
//! Hypergraphs in Parallel"* (Bercea, Goyal, Harris, Srinivasan — SPAA 2014):
//! the **SBL** sampling algorithm for general hypergraphs, the Beame–Luby
//! subroutine it is built on, the Karp–Upfal–Wigderson and greedy baselines,
//! an EREW-PRAM-style cost model, and the full Kelsen / Kim–Vu analysis
//! machinery (concentration bounds, potential functions, migration bounds) —
//! grown into a serving system: resident graphs, amortized solve streams,
//! and a sharded worker-pool serve layer.
//!
//! ## The serving story
//!
//! The top of the API is the [`serve`] subsystem — a genuinely multi-tenant
//! service over the deterministic parallel-MIS engines. Register your graphs
//! in a [`ResidentRegistry`], spawn a
//! [`ShardedRunner`] over N worker shards, and stream
//! tenant-tagged [`SolveRequest`](serve::SolveRequest)s at it — full solves
//! of resident or ad-hoc instances, or induced queries against resident
//! graphs, with any of the six algorithms. Three per-tenant levers sit on
//! top of the shard fan-out:
//!
//! * **Routing** ([`RoutePolicy`](serve::RoutePolicy)) — round-robin,
//!   least-queued, or *tenant affinity*: a stable hash pins each tenant to
//!   one shard so its queries rewarm the same shard-local parked engines
//!   (observable via
//!   [`TenantStats::shards`](serve::TenantStats::shards)).
//! * **Admission control** ([`AdmissionConfig`](serve::AdmissionConfig)) —
//!   per-tenant token buckets over logical time plus in-flight caps on the
//!   bounded queues. Over-quota requests come back as
//!   [`AdmissionDenied`](serve::SolveError::AdmissionDenied) *outcomes* —
//!   rejection as data, never a panic or a dropped ticket.
//! * **Collection** — ordered
//!   ([`collect_ordered`](serve::ShardedRunner::collect_ordered): responses
//!   in submission order regardless of which shard finished first) or
//!   streaming
//!   ([`collect_streaming`](serve::ShardedRunner::collect_streaming): an
//!   iterator yielding outcomes as they complete, ticketed and out of
//!   order); the two interoperate on one runner.
//!
//! Resident graphs are **mutable mid-stream**: each one is epoch-versioned
//! behind an append-only [`GraphEdit`](hypergraph::GraphEdit) log, and
//! [`ResidentRegistry::apply`](serve::ResidentRegistry::apply) publishes the
//! next immutable [`ResidentSnapshot`](serve::ResidentSnapshot)
//! copy-on-write — no re-registering, no engine rebuild for readers, no
//! stalled queries. Every request pins the epoch it was submitted against
//! ([`EpochPin`](serve::EpochPin)), so in-flight queries on older epochs
//! keep returning byte-identical outcomes while the log grows, and replaying
//! any log prefix from any snapshot reproduces every outcome exactly.
//!
//! Each shard owns a warmed [`Workspace`](pram::Workspace) with parked
//! engines (the zero-reallocation pipeline), and every admitted request's
//! outcome is a pure function of `(snapshot, algorithm, seed)` — equivalently
//! `(snapshot, log-prefix, algorithm, seed)` — : routing policy,
//! shard count, scheduling and collection mode change wall time and
//! completion order, never a result. [`ServeStats`](serve::ServeStats)
//! reports the per-tenant/per-shard accounting.
//!
//! For a single-tenant, single-thread stream, [`BatchRunner`] is the same
//! machinery without the threads — the single-shard special case (see
//! `examples/serving.rs` for the multi-tenant version).
//!
//! Out-of-process callers speak **`MISP 1`**, the [`net`] subsystem's
//! versioned wire protocol: length-prefixed, checksummed binary frames
//! carrying the same [`SolveRequest`](serve::SolveRequest)s and
//! [`SolveOutcome`](serve::SolveOutcome)s losslessly, so a wire outcome is
//! byte-identical (by
//! [`fingerprint`](serve::SolveOutcome::fingerprint)) to an in-process
//! solve of the same request. [`Server`](net::Server) is a plain
//! `TcpListener` front-end over the [`ShardedRunner`] — blocking threads,
//! no async runtime — and [`Client`](net::Client) the matching connector;
//! hostile bytes (truncation, bit flips, lying headers) land in structured
//! [`FrameError`](net::FrameError)s, never a panic. Every failure in the
//! stack — socket, frame, solve, snapshot I/O, edit rejection — unifies
//! under [`Error`] with a stable numeric code table that doubles as the
//! wire's error vocabulary.
//!
//! The crate remains a thin facade over the workspace members:
//!
//! * [`hypergraph`] — data structures, normalized degrees, generators, I/O;
//! * [`pram`] — work–depth cost model, rayon-backed parallel primitives
//!   and the scratch [`Workspace`](pram::Workspace) each shard owns;
//! * [`concentration`] — the analysis quantities of Sections 2.2, 3 and 4;
//! * [`mis_core`] — the algorithms (SBL, BL, KUW, greedy, permutation,
//!   linear-hypergraph), verification and instrumentation.
//!
//! ## Example
//!
//! ```
//! use hypergraph_mis::prelude::*;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use std::sync::Arc;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(42);
//!
//! // Keep a hypergraph resident: 400 vertices, edges of size 2..=10.
//! let mut registry = ResidentRegistry::new();
//! let tenant = registry.register(generate::paper_regime(&mut rng, 400, 50, 10));
//! let registry = Arc::new(registry);
//!
//! // Serve a stream across 2 worker shards with tenant-affinity routing: a
//! // full SBL solve of the resident graph, then an induced query solved
//! // with Beame–Luby.
//! let config = ServeConfig {
//!     shards: 2,
//!     queue_depth: 16,
//!     threads_per_shard: Some(1),
//!     route: RoutePolicy::TenantAffinity,
//!     ..ServeConfig::default()
//! };
//! let mut server = ShardedRunner::new(Arc::clone(&registry), &config);
//! server.submit(
//!     SolveRequest::for_graph(tenant)
//!         .algorithm(Algorithm::Sbl(SblConfig::default()))
//!         .seed(7)
//!         .tenant(TenantId(1))
//!         .build(),
//! );
//! server.submit(
//!     SolveRequest::induced(tenant, (0..128).collect::<Vec<_>>())
//!         .algorithm(Algorithm::Bl(BlConfig::default()))
//!         .seed(8)
//!         .tenant(TenantId(1))
//!         .build(),
//! );
//!
//! // Responses come back in submission order, whatever the scheduling.
//! let outcomes = server.collect_ordered(2);
//! let snap = registry.latest(tenant);
//! assert!(verify_mis(snap.graph(), &outcomes[0].independent_set).is_ok());
//! assert_eq!(outcomes[1].ticket, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod error;
pub mod net;
pub mod serve;

pub use batch::BatchRunner;
pub use concentration;
pub use error::Error;
pub use hypergraph;
pub use mis_core;
pub use pram;
pub use serve::{ResidentRegistry, ServeConfig, ShardedRunner};

/// One-stop imports for applications: hypergraph construction and generation,
/// every algorithm, verification, the cost model, the batch runner and the
/// sharded serving subsystem.
pub mod prelude {
    pub use crate::batch::BatchRunner;
    pub use crate::error::Error;
    pub use crate::net::{Client, FrameError, NetConfig, RemoteError, Reply, Server};
    pub use crate::serve::{
        AdmissionConfig, Algorithm, ConnectionStats, Epoch, EpochPin, GraphId, ResidentRegistry,
        ResidentSnapshot, RetentionPolicy, RoutePolicy, ServeConfig, ServeStats, ShardedRunner,
        SolveOutcome, SolveRequest, SolveRequestBuilder, SpillPolicy, Target, TenantId,
        TenantQuota,
    };
    pub use concentration::prelude::*;
    pub use hypergraph::prelude::*;
    pub use mis_core::prelude::*;
    pub use pram::prelude::*;
}
