//! [`BatchRunner`]: amortize one scratch [`Workspace`] across a stream of
//! MIS solves.
//!
//! Every algorithm entry point in [`mis_core`] comes in two flavours: the
//! plain function (`sbl_mis`, `bl_mis`, …), which owns a fresh workspace per
//! call — the *cold* path — and the `*_in` variant taking a caller-owned
//! [`Workspace`], which reuses flag buffers, index lists and whole parked
//! engines across calls — the *amortized* path. A [`BatchRunner`] is the
//! thin stateful wrapper that owns that workspace for you:
//!
//! ```
//! use hypergraph_mis::batch::BatchRunner;
//! use hypergraph_mis::prelude::*;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut runner = BatchRunner::new();
//! for seed in 0..4u64 {
//!     let mut rng = ChaCha8Rng::seed_from_u64(seed);
//!     let h = generate::paper_regime(&mut rng, 120, 30, 8);
//!     let out = runner.sbl(&h, &mut rng, &SblConfig::default());
//!     assert!(verify_mis(&h, &out.independent_set).is_ok());
//! }
//! // The first solves filled the workspace; solving the same instances
//! // with the same seeds again would allocate nothing new.
//! assert!(runner.workspace().fresh_allocations() > 0);
//! ```
//!
//! # Determinism contract
//!
//! Workspace reuse never influences results: for the same `(hypergraph,
//! seed, config)` — for serving-layer requests, the same `(snapshot,
//! algorithm, seed)` — a `BatchRunner` solve returns bit-identical outcomes
//! (independent set, coloring, trace, `CostTracker` totals) to the cold
//! entry point, at any thread count and regardless of what was solved
//! before. `tests/batch.rs` pins this with pinned-seed streams.
//!
//! # Relation to the serving layer
//!
//! A `BatchRunner` is the **single-shard special case** of the sharded
//! serving subsystem: every worker shard of a
//! [`ShardedRunner`](crate::serve::ShardedRunner) owns one [`Workspace`] and
//! runs each request it dequeues through the execution core that
//! [`solve`](BatchRunner::solve) runs, against that workspace. Run a stream
//! through `BatchRunner::solve` to get the sequential reference the serve
//! suites and benches compare against.

use crate::serve::{ResidentRegistry, SolveOutcome, SolveRequest};
use hypergraph::Hypergraph;
use mis_core::linear::{LinearError, LinearOutcome};
use mis_core::permutation::PermutationOutcome;
use mis_core::prelude::*;
use pram::Workspace;
use rand::Rng;

/// Runs a stream of MIS solves over one reusable [`Workspace`]: buffers and
/// engines warmed by one solve are recycled by the next. See the
/// [module docs](self).
#[derive(Default)]
pub struct BatchRunner {
    ws: Workspace,
}

impl BatchRunner {
    /// Creates a runner with an empty workspace; the first solve of each
    /// algorithm warms it up.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes one serving-layer request — the single-shard solve core of
    /// the [`serve`](crate::serve) subsystem. The outcome is a pure function
    /// of `(snapshot, algorithm, seed)`; `ticket`/`shard` are left at 0 for
    /// the caller to fill in. On this sequential path
    /// [`EpochPin::Latest`](crate::serve::EpochPin) resolves *here* — the
    /// call executes immediately, so execution time *is* submission time.
    pub fn solve(&mut self, registry: &ResidentRegistry, request: &SolveRequest) -> SolveOutcome {
        crate::serve::execute(registry, request, &mut self.ws)
    }

    /// SBL (Algorithm 1) — amortized counterpart of
    /// [`sbl_mis_with`].
    pub fn sbl<R: Rng + ?Sized>(
        &mut self,
        h: &Hypergraph,
        rng: &mut R,
        config: &SblConfig,
    ) -> SblOutcome {
        sbl_mis_in(h, rng, config, &mut self.ws)
    }

    /// Beame–Luby (Algorithm 2) — amortized counterpart of
    /// [`bl_mis`].
    pub fn bl<R: Rng + ?Sized>(
        &mut self,
        h: &Hypergraph,
        rng: &mut R,
        config: &BlConfig,
    ) -> BlOutcome {
        bl_mis_in(h, rng, config, &mut self.ws)
    }

    /// KUW-style parallel search — amortized counterpart of
    /// [`kuw_mis`].
    pub fn kuw<R: Rng + ?Sized>(&mut self, h: &Hypergraph, rng: &mut R) -> KuwOutcome {
        kuw_mis_in(h, rng, &mut self.ws)
    }

    /// Sequential greedy — amortized counterpart of
    /// [`greedy_mis`].
    pub fn greedy(&mut self, h: &Hypergraph, order: Option<&[u32]>) -> GreedyOutcome {
        greedy_mis_in(h, order, &mut self.ws)
    }

    /// Random-permutation greedy — amortized counterpart of
    /// [`permutation_mis`].
    pub fn permutation<R: Rng + ?Sized>(
        &mut self,
        h: &Hypergraph,
        rng: &mut R,
    ) -> PermutationOutcome {
        permutation_mis_in(h, rng, &mut self.ws)
    }

    /// Linear-hypergraph MIS — amortized counterpart of
    /// [`linear_mis`].
    pub fn linear<R: Rng + ?Sized>(
        &mut self,
        h: &Hypergraph,
        rng: &mut R,
    ) -> Result<LinearOutcome, LinearError> {
        linear_mis_in(h, rng, &mut self.ws)
    }

    /// Read access to the underlying workspace (allocation statistics).
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }

    /// Hands the workspace back for direct use with the `*_in` entry points.
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.ws
    }
}
