//! The SBL ("sampling Beame–Luby") algorithm — Algorithm 1 of the paper and
//! its headline contribution (Theorem 1).
//!
//! The idea: a general hypergraph may have huge edges, which Beame–Luby cannot
//! handle, but a random vertex sample of density `p = n^{-α}` contains a huge
//! edge *entirely* only with tiny probability. SBL therefore repeats:
//!
//! 1. sample each undecided vertex independently with probability `p`, by
//!    walking the ranks of the alive vertices in ascending order and drawing
//!    the geometric gap to the next sampled one: one random word per sampled
//!    vertex (plus one), with the law of a coin per vertex. The engine maps
//!    each hit rank to its vertex ([`ActiveEngine::alive_at`]), so a round
//!    reads only its sample, not the whole alive list;
//! 2. let `H' = (V', E')` be the sampled vertices together with the edges that
//!    are **fully** sampled; if some edge of `H'` exceeds the dimension cap
//!    `d = log log n / (4 log log log n)` the round FAILs and is retried with
//!    fresh randomness;
//! 3. run BL on `H'`; its blue vertices join the global independent set and
//!    the other sampled vertices become red — this is the *permanent* coloring
//!    of `V'`;
//! 4. `V'` leaves the vertex set, killed by the same ranks
//!    ([`ActiveEngine::kill_alive_at`]); every edge touching a red vertex can
//!    never become fully blue and is dropped; the remaining edges lose their
//!    blue vertices;
//! 5. once fewer than `1/p²` vertices remain, the residual instance is handed
//!    to a linear-time sweep (or the KUW baseline).
//!
//! The blue set is a maximal independent set of the *original* hypergraph
//! (Section 2.1 of the paper); [`crate::verify::verify_mis`] re-checks this at
//! the end of every test. Each round's blues and the tail's additions are
//! recorded as in-set flags, and the answer is read off them, ascending, in
//! one pass over the solve's starting alive list: no solve sorts its set,
//! and the BL subcalls hand theirs back unsorted. [`SblOutcome::coloring`]
//! derives the red/blue coloring from the set on demand.

use hypergraph::degree::MAX_ENUMERABLE_DIMENSION;
use hypergraph::params::SblParams;
use hypergraph::{ActiveEngine, Hypergraph, HypergraphBuilder, VertexId};
use pram::cost::{Cost, CostTracker};
use pram::Workspace;
use rand::Rng;

use crate::bl::{bl_on_active_in, bl_on_active_scratch, BlConfig, BlScratch};
use crate::coloring::Coloring;
use crate::greedy::greedy_on_active_in;
use crate::kuw::kuw_on_active_in;
use crate::marking::for_each_hit;
use crate::on_parked_engine;
use crate::trace::{SblRoundStats, SblTrace, TailAlgorithm};

/// Which algorithm SBL uses on the residual instance (fewer than `1/p²`
/// vertices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailChoice {
    /// The sequential greedy sweep ("time linear in the number of vertices").
    Greedy,
    /// The Karp–Upfal–Wigderson style parallel search.
    Kuw,
}

/// Configuration of an SBL run.
#[derive(Debug, Clone, PartialEq)]
pub struct SblConfig {
    /// Sampling probability override; defaults to the paper's
    /// `p = n^{-α}` (practically clamped, see
    /// [`SblParams::practical_default`]). An override is clamped to
    /// `[1e-9, 1]`; it must not be NaN, which no clamp repairs (the `MISP`
    /// decoder rejects a NaN `p` as a malformed field). A round's sample
    /// costs one random word per sampled vertex, so it reads about `p` words
    /// per alive vertex, and `p = 1` reads none.
    pub p: Option<f64>,
    /// Dimension cap override; defaults to the paper's
    /// `d = log log n / (4 log log log n)` (practically clamped).
    pub dimension_cap: Option<usize>,
    /// Residual-size threshold override; defaults to `1/p²`.
    pub tail_threshold: Option<usize>,
    /// How many times a round may be resampled after a dimension-check
    /// failure before the cap is raised to the observed sample dimension
    /// (so the algorithm always terminates; the paper simply "starts over").
    /// If that sample is still above BL's
    /// [`MAX_ENUMERABLE_DIMENSION`] (with `p` near 1 every resample holds
    /// the same huge edge), sampling stops and [`tail`](Self::tail)
    /// finishes the residual instance. Each retry is one more sample and
    /// induce, so a round can cost up to `max_round_retries + 1` of them;
    /// nothing caps this value.
    pub max_round_retries: usize,
    /// Which algorithm finishes the residual instance.
    pub tail: TailChoice,
    /// Configuration passed to every BL subroutine call.
    pub bl: BlConfig,
    /// Safety cap on the number of outer rounds.
    pub max_rounds: usize,
}

impl Default for SblConfig {
    fn default() -> Self {
        SblConfig {
            p: None,
            dimension_cap: None,
            tail_threshold: None,
            max_round_retries: 64,
            tail: TailChoice::Greedy,
            bl: BlConfig::default(),
            max_rounds: 100_000,
        }
    }
}

/// Result of an SBL run.
#[derive(Debug, Clone)]
pub struct SblOutcome {
    /// The maximal independent set (blue vertices), sorted.
    pub independent_set: Vec<VertexId>,
    /// Number of vertices of the solved hypergraph: the id space
    /// [`coloring`](Self::coloring) covers.
    pub n_vertices: usize,
    /// Per-round instrumentation.
    pub trace: SblTrace,
    /// Work–depth accounting across all rounds, BL subcalls and the tail.
    pub cost: CostTracker,
    /// The parameters the run actually used.
    pub params: ResolvedParams,
}

impl SblOutcome {
    /// The full red/blue coloring of the vertex set: every vertex ends up
    /// decided, blue iff it joined the set. Derived from
    /// [`independent_set`](Self::independent_set) on each call, in
    /// `O(n_vertices)`; a solve does not build it.
    pub fn coloring(&self) -> Coloring {
        let mut coloring = Coloring::new(self.n_vertices);
        let mut blues = self.independent_set.iter().peekable();
        for v in 0..self.n_vertices as VertexId {
            if blues.next_if_eq(&&v).is_some() {
                coloring.set_blue(v);
            } else {
                coloring.set_red(v);
            }
        }
        coloring
    }
}

/// The concrete parameter values an SBL run resolved to (after applying the
/// paper formulas and any overrides).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedParams {
    /// Sampling probability `p`.
    pub p: f64,
    /// Dimension cap `d` passed to the BL subroutine.
    pub dimension_cap: usize,
    /// Residual-size threshold (`1/p²` by default).
    pub tail_threshold: usize,
}

/// Runs SBL with the default (paper-shaped, practically clamped) parameters.
pub fn sbl_mis<R: Rng + ?Sized>(h: &Hypergraph, rng: &mut R) -> SblOutcome {
    sbl_mis_with(h, rng, &SblConfig::default())
}

/// Runs SBL with an explicit configuration.
pub fn sbl_mis_with<R: Rng + ?Sized>(
    h: &Hypergraph,
    rng: &mut R,
    config: &SblConfig,
) -> SblOutcome {
    sbl_mis_in(h, rng, config, &mut Workspace::new())
}

/// Runs SBL with a caller-owned [`Workspace`], reusing its buffers and
/// parked engines (the instance engine every engine-backed `x_mis_in`
/// shares *and* the per-round sample engine) across solves — the
/// zero-reallocation batch path. Identical results to [`sbl_mis_with`] for
/// the same seed, whether the workspace is fresh or warm.
pub fn sbl_mis_in<R: Rng + ?Sized>(
    h: &Hypergraph,
    rng: &mut R,
    config: &SblConfig,
    ws: &mut Workspace,
) -> SblOutcome {
    let mut cost = CostTracker::new();
    let (independent_set, trace, params) = on_parked_engine(h, ws, |active, ws| {
        sbl_on_active_in(active, rng, config, &mut cost, ws)
    });
    SblOutcome {
        independent_set,
        n_vertices: h.n_vertices(),
        trace,
        cost,
        params,
    }
}

/// Runs SBL on an [`ActiveEngine`] in place, deciding every alive vertex —
/// the body of every SBL solve ([`sbl_mis_in`] on a parked engine, the
/// serving layer on induced sub-engines). `n`, `m` and the dimension are
/// those of the engine's alive part, so an induced sub-engine over a large
/// id space resolves the same parameters as its compacted instance.
///
/// Returns the independent set (sorted, global ids), the round trace and
/// the parameters the run resolved; costs are recorded into `cost`. Every
/// round induces its sample in place into one sample engine, parked in `ws`
/// between solves (an empty one on a fresh workspace). A round samples and
/// kills by rank in the alive order, so on [`hypergraph::ActiveHypergraph`]
/// it costs its sample plus one move of the alive list. The set is read off
/// in-set flags in one pass over the starting alive list, `O(n_alive)` and
/// never `O(id_space)`. The RNG consumption order depends only on the
/// engine-observable state (alive vertices ascending, walked by one gap
/// draw per sampled vertex; live edges in arrival order), so two correct
/// engines produce identical outcomes for the same seed.
pub fn sbl_on_active_in<E: ActiveEngine + Send + 'static, R: Rng + ?Sized>(
    active: &mut E,
    rng: &mut R,
    config: &SblConfig,
    cost: &mut CostTracker,
    ws: &mut Workspace,
) -> (Vec<VertexId>, SblTrace, ResolvedParams) {
    let n = active.n_alive();
    let m = active.n_live_edges();
    let dimension = active.dimension();
    let params = SblParams::practical_default(n.max(2));
    let p = config.p.unwrap_or(params.p).clamp(1e-9, 1.0);
    let dimension_cap = config
        .dimension_cap
        .unwrap_or_else(|| params.d_cap())
        .clamp(1, MAX_ENUMERABLE_DIMENSION);
    let tail_threshold = config
        .tail_threshold
        .unwrap_or_else(|| params.tail_threshold.ceil() as usize)
        .max(1);
    let resolved = ResolvedParams {
        p,
        dimension_cap,
        tail_threshold,
    };

    let mut trace = SblTrace::default();

    // Line 3 / 26 of Algorithm 1: if every edge is already within the
    // dimension cap, a single BL call suffices.
    if dimension <= dimension_cap {
        let (added, bl_trace) = bl_on_active_in(active, rng, &config.bl, cost, ws);
        trace.direct_bl = true;
        trace.tail = TailAlgorithm::None;
        // Record the single BL call as one round so round counts stay
        // comparable across branches.
        trace.rounds.push(SblRoundStats {
            round: 0,
            n_alive: n,
            m,
            p: 1.0,
            sampled: n,
            sample_dimension: dimension,
            dimension_failures: 0,
            sample_edges: m,
            added: added.len(),
            rejected: n - added.len(),
            edges_discarded: m,
            bl_stages: bl_trace.n_stages(),
        });
        return (added, trace, resolved);
    }

    // The sample engine is taken lazily at first induce: a solve that never
    // reaches an induce (the tail threshold already covers the instance)
    // must not probe the workspace for a slot it never fills — that probe
    // would count as a fresh allocation on every such solve and break the
    // zero-reallocation contract.
    let mut sample: Option<E> = None;

    // Main sampling loop (lines 4–22). The per-round flag buffers are reused
    // across rounds (and, through the workspace, across runs) and cleared
    // through the round's sampled list.
    let id_space = active.id_space();
    let mut round = 0usize;
    // Trusted clean takes (no O(id_space) re-zeroing): every round unwinds
    // its marks/colors through the round's sampled list, and the answer is
    // read off `in_set` by unsetting each flag, before the buffers go back,
    // so they are all-false between solves (debug-asserted).
    let mut marked = ws.take_flags_clean("mis.sbl.marked", id_space);
    let mut blue_flags = ws.take_flags_clean("mis.sbl.blue", id_space);
    let mut red_flags = ws.take_flags_clean("mis.sbl.red", id_space);
    let mut in_set = ws.take_flags_clean("mis.sbl.in_set", id_space);
    let mut ranks: Vec<u32> = ws.take_u32("mis.sbl.ranks");
    let mut sampled: Vec<VertexId> = ws.take_u32("mis.sbl.sampled");
    let mut reds: Vec<VertexId> = ws.take_u32("mis.sbl.reds");
    // The solve's starting alive list: every vertex the solve decides, in
    // the ascending order the answer is read off in.
    let mut alive = ws.take_u32("mis.sbl.alive");
    active.alive_into(&mut alive);
    let mut set_size = 0usize;
    // One BL scratch for every per-round subcall: taken (and re-zeroed)
    // once per solve, kept clean between rounds by BL's own stage unwinding.
    let mut bl_scratch = BlScratch::take(ws, id_space);
    while active.n_alive() >= tail_threshold
        && active.n_live_edges() > 0
        && round < config.max_rounds
    {
        let n_alive = active.n_alive();
        let m = active.n_live_edges();
        // The live edges do not change across retries of the same round,
        // so hoist their total out of the retry loop.
        let total_live = active.total_live_size() as u64;

        // Sample until the dimension check passes (FAIL/retry), up to the
        // configured retry budget, inducing each sample in place. The alive
        // set does not change inside a round (inducing reads `active`
        // through `&self`, BL runs on the sample), so each hit's rank is
        // still the sampled vertex's rank when the round kills it.
        let mut failures = 0usize;
        loop {
            ranks.clear();
            for_each_hit(rng, p, n_alive, |i| ranks.push(i as u32));
            sampled.clear();
            active.alive_at(&ranks, &mut sampled);
            for &v in &sampled {
                marked[v as usize] = true;
            }
            cost.record(Cost::parallel_step(n_alive as u64));
            let sub = sample.get_or_insert_with(|| {
                ws.take_any::<E>("mis.sbl.sub")
                    .unwrap_or_else(|| E::from_hypergraph(&HypergraphBuilder::new(0).build()))
            });
            active.induced_by_into(&marked, &sampled, sub);
            // Reset the mark scratch for the next retry / round.
            for &v in &sampled {
                marked[v as usize] = false;
            }
            cost.record(Cost::parallel_step(total_live));
            if sub.dimension() <= dimension_cap {
                break;
            }
            failures += 1;
            if failures > config.max_round_retries {
                // Accept the sample anyway with a raised cap (the paper would
                // restart from scratch; raising the cap keeps termination
                // deterministic and only weakens the round's time bound).
                break;
            }
        }

        // A sample above BL's enumerable dimension after the retry budget
        // (p near 1 resamples the same huge edge) ends the sampling: the
        // tail finishes the residual instance.
        let sub = sample.as_mut().expect("induced at least once");
        if sub.dimension() > MAX_ENUMERABLE_DIMENSION {
            break;
        }

        // Run BL on the sampled sub-hypergraph; its set comes back unsorted,
        // which neither the flags nor the trim below mind.
        let sample_dimension = sub.dimension();
        let sample_edges = sub.n_live_edges();
        let (blues, bl_trace) =
            bl_on_active_scratch(sub, rng, &config.bl, cost, ws, &mut bl_scratch);

        // Permanent coloring of V' (invariant of line 5).
        for &v in &blues {
            blue_flags[v as usize] = true;
            in_set[v as usize] = true;
        }
        set_size += blues.len();
        reds.clear();
        for &v in &sampled {
            if !blue_flags[v as usize] {
                red_flags[v as usize] = true;
                reds.push(v);
            }
        }
        let rejected = reds.len();

        // Update H (lines 12–20): V <- V \ V', drop edges touching red,
        // shrink the rest by the blue vertices.
        active.kill_alive_at(&ranks, &sampled);
        let edges_discarded = active.discard_edges_touching(&red_flags, &reds);
        let emptied = active.shrink_edges_by(&blue_flags, &blues);
        assert_eq!(
            emptied, 0,
            "an edge became entirely blue — BL returned a non-independent set"
        );
        cost.record(Cost::parallel_step(m as u64));
        cost.bump_round();

        // Every set flag belongs to a sampled vertex; reset for the next
        // round.
        for &v in &sampled {
            blue_flags[v as usize] = false;
            red_flags[v as usize] = false;
        }

        trace.rounds.push(SblRoundStats {
            round,
            n_alive,
            m,
            p,
            sampled: sampled.len(),
            sample_dimension,
            dimension_failures: failures,
            sample_edges,
            added: blues.len(),
            rejected,
            edges_discarded,
            bl_stages: bl_trace.n_stages(),
        });
        round += 1;
    }

    ws.put_flags("mis.sbl.marked", marked);
    ws.put_flags("mis.sbl.blue", blue_flags);
    ws.put_flags("mis.sbl.red", red_flags);
    ws.put_u32("mis.sbl.ranks", ranks);
    ws.put_u32("mis.sbl.sampled", sampled);
    ws.put_u32("mis.sbl.reds", reds);
    bl_scratch.put(ws);

    // Tail (line 23): finish the residual instance.
    let tail_vertices = active.n_alive();
    trace.tail = TailAlgorithm::None;
    if tail_vertices > 0 {
        let added = match config.tail {
            TailChoice::Greedy => {
                trace.tail = TailAlgorithm::Greedy;
                greedy_on_active_in(active, cost, ws)
            }
            TailChoice::Kuw => {
                trace.tail = TailAlgorithm::Kuw;
                kuw_on_active_in(active, rng, cost, ws).0
            }
        };
        for &v in &added {
            in_set[v as usize] = true;
        }
        set_size += added.len();
    }
    trace.tail_vertices = tail_vertices;
    if let Some(sub) = sample {
        ws.put_any("mis.sbl.sub", sub);
    }

    // Every vertex of the set was alive at the start, so one pass over the
    // starting alive list reads the set ascending and leaves `in_set` clean.
    let mut independent_set = Vec::with_capacity(set_size);
    for &v in &alive {
        if std::mem::take(&mut in_set[v as usize]) {
            independent_set.push(v);
        }
    }
    ws.put_flags("mis.sbl.in_set", in_set);
    ws.put_u32("mis.sbl.alive", alive);
    (independent_set, trace, resolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{is_valid_mis, verify_mis};
    use hypergraph::builder::hypergraph_from_edges;
    use hypergraph::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn sbl_on_toy_is_valid() {
        let h = hypergraph_from_edges(6, vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5]]);
        let out = sbl_mis(&h, &mut rng(1));
        assert_eq!(verify_mis(&h, &out.independent_set), Ok(()));
        assert!(out.coloring().is_complete());
        assert_eq!(out.coloring().blues(), out.independent_set);
    }

    #[test]
    fn sbl_small_dimension_goes_straight_to_bl() {
        let mut r = rng(2);
        let h = generate::d_uniform(&mut r, 40, 80, 3);
        let out = sbl_mis(&h, &mut r);
        assert!(out.trace.direct_bl);
        assert!(is_valid_mis(&h, &out.independent_set));
    }

    #[test]
    fn sbl_general_hypergraph_uses_sampling_rounds() {
        let mut r = rng(3);
        // Edge sizes up to 12 exceed the practical dimension cap (3), so the
        // sampling loop must engage.
        let h = generate::paper_regime(&mut r, 600, 80, 12);
        assert!(h.dimension() > 3);
        let out = sbl_mis(&h, &mut r);
        assert!(!out.trace.direct_bl);
        assert!(out.trace.n_rounds() >= 1);
        assert_eq!(verify_mis(&h, &out.independent_set), Ok(()));
        assert!(out.coloring().is_complete());
    }

    #[test]
    fn sbl_respects_explicit_parameters() {
        let mut r = rng(4);
        let h = generate::paper_regime(&mut r, 400, 60, 10);
        let cfg = SblConfig {
            p: Some(0.25),
            dimension_cap: Some(4),
            tail_threshold: Some(20),
            ..SblConfig::default()
        };
        let out = sbl_mis_with(&h, &mut r, &cfg);
        assert_eq!(out.params.p, 0.25);
        assert_eq!(out.params.dimension_cap, 4);
        assert_eq!(out.params.tail_threshold, 20);
        assert!(is_valid_mis(&h, &out.independent_set));
        // Every round's accepted sample respected the (possibly raised) cap;
        // with retries available the recorded dimension should usually be
        // within the configured cap.
        for round in &out.trace.rounds {
            assert!(round.sample_dimension <= h.dimension());
        }
    }

    #[test]
    fn sbl_with_kuw_tail_is_valid() {
        let mut r = rng(5);
        let h = generate::paper_regime(&mut r, 500, 70, 10);
        let cfg = SblConfig {
            tail: TailChoice::Kuw,
            ..SblConfig::default()
        };
        let out = sbl_mis_with(&h, &mut r, &cfg);
        assert!(is_valid_mis(&h, &out.independent_set));
        if out.trace.tail_vertices > 0 {
            assert_eq!(out.trace.tail, TailAlgorithm::Kuw);
        }
    }

    #[test]
    fn sbl_deterministic_for_fixed_seed() {
        let h = generate::paper_regime(&mut rng(6), 400, 60, 10);
        let a = sbl_mis(&h, &mut rng(10));
        let b = sbl_mis(&h, &mut rng(10));
        assert_eq!(a.independent_set, b.independent_set);
        assert_eq!(a.trace.n_rounds(), b.trace.n_rounds());
    }

    #[test]
    fn sbl_valid_across_many_seeds_and_shapes() {
        for seed in 0..6u64 {
            let mut r = rng(200 + seed);
            let h = match seed % 3 {
                0 => generate::paper_regime(&mut r, 300, 50, 10),
                1 => generate::mixed_dimension(&mut r, 200, 300, &[2, 3, 4, 5, 6, 7]),
                _ => generate::d_uniform(&mut r, 150, 300, 5),
            };
            let out = sbl_mis(&h, &mut r);
            assert_eq!(
                verify_mis(&h, &out.independent_set),
                Ok(()),
                "seed {seed} failed"
            );
        }
    }

    #[test]
    fn sbl_on_edgeless_and_tiny_inputs() {
        let h = hypergraph_from_edges::<Vec<u32>>(5, vec![]);
        let out = sbl_mis(&h, &mut rng(7));
        assert_eq!(out.independent_set, vec![0, 1, 2, 3, 4]);

        let h = hypergraph_from_edges::<Vec<u32>>(0, vec![]);
        let out = sbl_mis(&h, &mut rng(8));
        assert!(out.independent_set.is_empty());

        let h = hypergraph_from_edges(1, vec![vec![0]]);
        let out = sbl_mis(&h, &mut rng(9));
        assert!(out.independent_set.is_empty());
        assert!(is_valid_mis(&h, &out.independent_set));
    }

    /// Runs `solve` on a thread of its own and fails unless it answers
    /// within a deadline, so a solve that never ends fails the test instead
    /// of hanging the suite.
    fn before_deadline<T: Send + 'static>(solve: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || tx.send(solve()).expect("the test waits"));
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the solve failed or missed its deadline");
        worker.join().expect("solve thread");
        out
    }

    /// With `p = 1` every resample is the whole instance, so a 25-vertex
    /// edge keeps every sample above BL's enumerable dimension (20). Past
    /// the retry budget SBL stops sampling and lets the tail finish the
    /// instance, instead of resampling forever.
    #[test]
    fn sbl_terminates_when_no_sample_gets_under_the_enumerable_dimension() {
        let h = std::sync::Arc::new(hypergraph_from_edges(
            30,
            vec![
                (0..25).collect::<Vec<u32>>(),
                vec![24, 25],
                vec![26, 27, 28],
            ],
        ));
        for tail in [TailChoice::Greedy, TailChoice::Kuw] {
            let cfg = SblConfig {
                p: Some(1.0),
                tail_threshold: Some(1),
                tail,
                ..SblConfig::default()
            };
            let graph = std::sync::Arc::clone(&h);
            let out = before_deadline(move || sbl_mis_with(&graph, &mut rng(13), &cfg));
            assert_eq!(verify_mis(&h, &out.independent_set), Ok(()));
            assert!(out.trace.rounds.is_empty(), "no sample was accepted");
            assert_eq!(out.trace.tail_vertices, 30);
        }
    }

    #[test]
    fn sbl_round_progress_shrinks_instance() {
        let mut r = rng(12);
        let h = generate::paper_regime(&mut r, 800, 100, 12);
        let cfg = SblConfig {
            p: Some(0.2),
            dimension_cap: Some(5),
            tail_threshold: Some(25),
            ..SblConfig::default()
        };
        let out = sbl_mis_with(&h, &mut r, &cfg);
        assert!(is_valid_mis(&h, &out.independent_set));
        // Alive counts must be strictly decreasing whenever something was
        // sampled.
        let alive: Vec<usize> = out.trace.rounds.iter().map(|r| r.n_alive).collect();
        for w in alive.windows(2) {
            assert!(w[1] <= w[0]);
        }
        // And the number of rounds should be far below n (the point of the
        // algorithm).
        assert!(out.trace.n_rounds() < 200);
    }
}
