//! Parallel maximal-independent-set algorithms for hypergraphs.
//!
//! This crate implements the algorithms of *"On Computing Maximal Independent
//! Sets of Hypergraphs in Parallel"* (Bercea, Goyal, Harris, Srinivasan —
//! SPAA 2014) together with the baselines the paper compares against:
//!
//! | Module | Algorithm | Role in the paper |
//! |---|---|---|
//! | [`sbl`] | **SBL** (sampling Beame–Luby), Algorithm 1 | the paper's contribution (Theorem 1) |
//! | [`bl`] | Beame–Luby, Algorithm 2 | the subroutine whose analysis Theorem 2 extends |
//! | [`kuw`] | Karp–Upfal–Wigderson style parallel search | prior `O(√n)` state of the art / SBL tail option |
//! | [`greedy`] | sequential greedy | the "linear time" finisher and ground-truth oracle |
//! | [`permutation`] | permutation Beame–Luby | related-work algorithm conjectured to be RNC |
//! | [`linear`] | Łuczak–Szymańska-style marking | the linear-hypergraph RNC case (experiment E9) |
//!
//! Supporting modules: [`coloring`] (the red/blue model of Section 2.1),
//! [`verify`] (runtime MIS checking), [`trace`] (per-round/stage
//! instrumentation consumed by the experiment harness).
//!
//! # Entry points
//!
//! Each algorithm `x` has one solve body and at most two thin layers
//! over it:
//!
//! * `x_on_active_in(engine, rng, …, cost, ws)` — the body. It runs in place
//!   on any [`hypergraph::ActiveEngine`], deciding every alive vertex and
//!   returning global ids, so the same code serves full instances, SBL's
//!   sampled sub-hypergraphs, the serving layer's induced sub-engines and
//!   the reference engine of the differential suites.
//! * `x_mis_in(h, rng, …, ws)` — a full [`hypergraph::Hypergraph`] with a
//!   caller-owned [`Workspace`]: resets the engine parked in `ws` to `h` and
//!   runs the body (greedy and permutation scan `h` directly instead).
//! * `x_mis(h, rng, …)` — the same with a fresh workspace.
//!
//! Every randomized entry point takes a caller-supplied [`rand::Rng`], so runs
//! are reproducible with a seeded `rand_chacha::ChaCha8Rng`. Every algorithm
//! returns a [`pram::CostTracker`] recording work, depth and rounds in the
//! EREW-PRAM-style cost model the paper's theorems are phrased in.
//!
//! # Quick start
//!
//! ```
//! use hypergraph::generate;
//! use mis_core::prelude::*;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! // A general hypergraph with edges of size up to 12.
//! let h = generate::paper_regime(&mut rng, 500, 60, 12);
//! let out = sbl_mis(&h, &mut rng);
//! assert!(verify_mis(&h, &out.independent_set).is_ok());
//! println!("MIS size {} in {} sampling rounds", out.independent_set.len(), out.trace.n_rounds());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bl;
pub mod coloring;
pub mod greedy;
pub mod kuw;
pub mod linear;
mod marking;
pub mod permutation;
pub mod sbl;
pub mod trace;
pub mod verify;

use hypergraph::{ActiveHypergraph, Hypergraph};

pub use bl::{bl_mis, bl_mis_in, BlConfig, BlOutcome};
pub use greedy::{greedy_mis, greedy_mis_in, GreedyOutcome};
pub use kuw::{kuw_mis, kuw_mis_in, KuwOutcome};
pub use pram::Workspace;
pub use sbl::{
    sbl_mis, sbl_mis_in, sbl_mis_rebuild, sbl_mis_with, SblConfig, SblOutcome, TailChoice,
};
pub use verify::{is_valid_mis, verify_mis, VerifyError};

/// Commonly used items: every entry point, in its three layers (`x_mis`,
/// `x_mis_in`, `x_on_active_in`; see the [crate docs](crate#entry-points)).
pub mod prelude {
    pub use crate::bl::{bl_mis, bl_mis_in, bl_on_active_in, BlConfig, BlOutcome};
    pub use crate::coloring::{Color, Coloring};
    pub use crate::greedy::{greedy_mis, greedy_mis_in, greedy_on_active_in, GreedyOutcome};
    pub use crate::kuw::{kuw_mis, kuw_mis_in, kuw_on_active_in, KuwOutcome};
    pub use crate::linear::{
        check_linear, linear_mis, linear_mis_in, linear_on_active_in, LinearOutcome,
    };
    pub use crate::permutation::{
        permutation_mis, permutation_mis_in, permutation_on_active_in, permutation_rounds_mis,
        permutation_rounds_mis_in, PermutationOutcome,
    };
    pub use crate::sbl::{
        sbl_mis, sbl_mis_in, sbl_mis_rebuild, sbl_mis_with, sbl_on_active_in, SblConfig,
        SblOutcome, TailChoice,
    };
    pub use crate::trace::{BlTrace, KuwTrace, SblTrace, TailAlgorithm};
    pub use crate::verify::{is_valid_mis, verify_mis, VerifyError};
    pub use pram::Workspace;
}

/// Runs `body` on the flat engine parked in `ws` under `key`, reset to `h`
/// (built on first use), then parks the engine again: the one
/// take-reset-put step behind every engine-backed `x_mis_in`.
fn on_parked_engine<T>(
    h: &Hypergraph,
    key: &'static str,
    ws: &mut Workspace,
    body: impl FnOnce(&mut ActiveHypergraph, &mut Workspace) -> T,
) -> T {
    let mut active = match ws.take_any::<ActiveHypergraph>(key) {
        Some(mut engine) => {
            engine.reset_from(h);
            engine
        }
        None => ActiveHypergraph::from_hypergraph(h),
    };
    let out = body(&mut active, ws);
    ws.put_any(key, active);
    out
}
