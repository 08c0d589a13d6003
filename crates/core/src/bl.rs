//! The Beame–Luby algorithm (Algorithm 2 of the paper, originally from
//! "Parallel search for maximal independence given minimal dependence",
//! SODA 1990), with the instrumentation the Theorem-2 experiments need.
//!
//! One *stage* of the algorithm:
//!
//! 1. if a live edge remains, move every alive vertex that lies in no live
//!    edge straight into the independent set. No fully marked edge can ever
//!    contain such a vertex (edges only lose members), so it joins the set
//!    in every run and its coin would decide only *when*. A stage with no
//!    live edge skips this step: its `p` is 1, and it takes every vertex
//!    without drawing a word;
//! 2. compute `d = dim(H)` and `Δ(H)` and set the marking probability
//!    `p = 1/(2^{d+1} Δ(H))`; both read the live edges only, so step 1
//!    changes neither;
//! 3. mark every remaining vertex independently with probability `p`, by
//!    walking the alive vertices in ascending order and drawing the
//!    geometric gap to the next marked one: one random word per marked
//!    vertex (plus one), the law of a coin per vertex;
//! 4. for every edge that is fully marked, unmark **all** of its vertices;
//! 5. add the surviving marked vertices `I'` to the independent set, delete
//!    them from the vertex set and from every edge;
//! 6. cleanup: drop edges that now contain another edge (dominated), and drop
//!    singleton edges together with their vertex (which can never join the
//!    independent set).
//!
//! The [`CostTracker`] charges model Algorithm 2, not this implementation.
//! A stage with a live edge charges `m · 2^d` for the degree table; every
//! stage charges `n_alive` for the marking, the live size for the
//! unmarking, `n_alive` for the accept pass and `m` for the cleanup, and
//! bumps one round. `n_alive` and `m` are the counts at the start of the
//! stage, before step 1. Step 1 adds no charge: Algorithm 2 decides those
//! vertices in the marking step that `n_alive` already pays for.
//!
//! Stages repeat until no undecided vertex remains. Kelsen proved an
//! `O((log n)^{(d+4)!})` stage bound for constant `d`; the paper's Theorem 2
//! extends it to `d ≤ log log n / (4 log log log n)`. The instrumentation
//! records per-stage degree profiles so experiments E6/E7 can confront the
//! migration bounds and potential functions with observed behaviour.

use hypergraph::degree::{beame_luby_probability, DegreeTable, MAX_ENUMERABLE_DIMENSION};
use hypergraph::{ActiveEngine, Hypergraph, VertexId};
use pram::cost::{Cost, CostTracker};
use pram::Workspace;
use rand::Rng;

use crate::greedy::greedy_on_active_in;
use crate::marking::for_each_hit;
use crate::on_parked_engine;
use crate::trace::{BlStageStats, BlTrace};

/// Tuning knobs for a Beame–Luby run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlConfig {
    /// Record `Δ_i(H)` for every dimension `i` at the start of every stage
    /// (needed by the migration / potential experiments; costs one extra
    /// degree-table scan per stage).
    pub track_potentials: bool,
    /// Hard cap on the number of stages; if reached, the remaining vertices
    /// are finished off with a sequential greedy sweep so the result is still
    /// a correct MIS. The cap exists purely as a safety net — the
    /// probabilistic stage bounds make reaching it astronomically unlikely.
    pub max_stages: usize,
}

impl Default for BlConfig {
    fn default() -> Self {
        BlConfig {
            track_potentials: false,
            max_stages: 100_000,
        }
    }
}

/// Result of a Beame–Luby run.
#[derive(Debug, Clone)]
pub struct BlOutcome {
    /// The maximal independent set found (vertex ids of the input hypergraph).
    pub independent_set: Vec<VertexId>,
    /// Per-stage instrumentation.
    pub trace: BlTrace,
    /// Work–depth accounting.
    pub cost: CostTracker,
}

/// Runs Beame–Luby on a full hypergraph.
///
/// # Panics
/// Panics if the hypergraph dimension exceeds
/// [`MAX_ENUMERABLE_DIMENSION`] — BL is only meant for small dimensions; use
/// [`crate::sbl::sbl_mis`] for general hypergraphs.
pub fn bl_mis<R: Rng + ?Sized>(h: &Hypergraph, rng: &mut R, config: &BlConfig) -> BlOutcome {
    bl_mis_in(h, rng, config, &mut Workspace::new())
}

/// Runs Beame–Luby with a caller-owned [`Workspace`], reusing its buffers
/// and parked engine across solves (the zero-reallocation batch path).
/// Identical results to [`bl_mis`] for the same seed, whether the workspace
/// is fresh or warm.
pub fn bl_mis_in<R: Rng + ?Sized>(
    h: &Hypergraph,
    rng: &mut R,
    config: &BlConfig,
    ws: &mut Workspace,
) -> BlOutcome {
    let mut cost = CostTracker::new();
    let (independent_set, trace) = on_parked_engine(h, ws, |active, ws| {
        bl_on_active_in(active, rng, config, &mut cost, ws)
    });
    BlOutcome {
        independent_set,
        trace,
        cost,
    }
}

/// Runs Beame–Luby on an [`ActiveEngine`] *in place*, consuming every
/// alive vertex (each ends up either in the returned independent set or
/// implicitly red). Returns the added vertices (sorted, global ids) and the
/// stage trace; costs are recorded into `cost`.
///
/// This is the body every BL solve runs: [`bl_mis_in`] on a parked engine,
/// SBL's direct-BL branch, the serving layer on induced sub-engines (SBL's
/// sampling rounds run the same stages through `bl_on_active_scratch`,
/// which leaves the set unsorted). All per-stage flag and index scratch
/// comes from (and returns to) `ws`, so a warmed-up workspace makes the
/// stage loop allocation-free.
pub fn bl_on_active_in<E: ActiveEngine, R: Rng + ?Sized>(
    active: &mut E,
    rng: &mut R,
    config: &BlConfig,
    cost: &mut CostTracker,
    ws: &mut Workspace,
) -> (Vec<VertexId>, BlTrace) {
    let mut scratch = BlScratch::take(ws, active.id_space());
    let (mut independent_set, trace) =
        bl_on_active_scratch(active, rng, config, cost, ws, &mut scratch);
    scratch.put(ws);
    independent_set.sort_unstable();
    (independent_set, trace)
}

/// The per-stage scratch of a Beame–Luby run, hoisted so a caller driving
/// many BL subruns (SBL invokes one per sampling round) pays the
/// take/re-zero cost once per *solve* instead of once per round.
///
/// Invariant: the flag vectors are all-`false` between BL runs — every stage
/// unwinds its entries through that stage's marked list, so the loop leaves
/// them clean (debug-asserted on entry).
pub(crate) struct BlScratch {
    marked: Vec<bool>,
    unmark: Vec<bool>,
    accepted_flags: Vec<bool>,
    alive: Vec<VertexId>,
    marked_list: Vec<VertexId>,
    accepted: Vec<VertexId>,
}

impl BlScratch {
    /// Takes the scratch from `ws`, sized for `id_space`. The flag buffers
    /// come through the trusted clean take (no `O(id_space)` re-zeroing):
    /// the stage loop unwinds every bit it sets, so the pooled buffers are
    /// all-`false` between runs (debug-asserted on take and on entry to
    /// [`bl_on_active_scratch`]).
    pub(crate) fn take(ws: &mut Workspace, id_space: usize) -> Self {
        BlScratch {
            marked: ws.take_flags_clean("mis.bl.marked", id_space),
            unmark: ws.take_flags_clean("mis.bl.unmark", id_space),
            accepted_flags: ws.take_flags_clean("mis.bl.accepted", id_space),
            alive: ws.take_u32("mis.bl.alive"),
            marked_list: ws.take_u32("mis.bl.marked_list"),
            accepted: ws.take_u32("mis.bl.accepted_list"),
        }
    }

    /// Returns the scratch to `ws` for the next taker.
    pub(crate) fn put(self, ws: &mut Workspace) {
        ws.put_flags("mis.bl.marked", self.marked);
        ws.put_flags("mis.bl.unmark", self.unmark);
        ws.put_flags("mis.bl.accepted", self.accepted_flags);
        ws.put_u32("mis.bl.alive", self.alive);
        ws.put_u32("mis.bl.marked_list", self.marked_list);
        ws.put_u32("mis.bl.accepted_list", self.accepted);
    }
}

/// [`bl_on_active_in`] over caller-held [`BlScratch`] (see there for the
/// reuse contract), returning the added vertices **unsorted**: each stage
/// appends its isolated and accepted vertices, ascending within the stage.
/// SBL reads them only as flags, so it skips the sort. `ws` is still needed
/// for the greedy-fallback path.
pub(crate) fn bl_on_active_scratch<E: ActiveEngine, R: Rng + ?Sized>(
    active: &mut E,
    rng: &mut R,
    config: &BlConfig,
    cost: &mut CostTracker,
    ws: &mut Workspace,
    scratch: &mut BlScratch,
) -> (Vec<VertexId>, BlTrace) {
    let id_space = active.id_space();
    let mut independent_set: Vec<VertexId> = Vec::new();
    let mut trace = BlTrace::default();
    let mut stage = 0usize;
    // Per-stage scratch, cleared by resetting the entries of the stage's
    // marked vertices (every set entry belongs to a marked vertex), so the
    // buffers come back all-false between runs.
    let BlScratch {
        marked,
        unmark,
        accepted_flags,
        alive,
        marked_list,
        accepted,
    } = scratch;
    debug_assert!(
        marked[..id_space.min(marked.len())].iter().all(|&b| !b)
            && unmark[..id_space.min(unmark.len())].iter().all(|&b| !b)
            && accepted_flags[..id_space.min(accepted_flags.len())]
                .iter()
                .all(|&b| !b),
        "BlScratch handed over dirty"
    );
    debug_assert!(
        marked.len() >= id_space && unmark.len() >= id_space && accepted_flags.len() >= id_space,
        "BlScratch sized for a smaller id space"
    );

    while active.n_alive() > 0 {
        if stage >= config.max_stages {
            // Safety net: finish deterministically so callers always get an MIS.
            let added = greedy_on_active_in(active, cost, ws);
            let mut flags = ws.take_flags("mis.bl.fallback", id_space);
            for &v in &added {
                flags[v as usize] = true;
            }
            active.kill_vertices(&added);
            let emptied = active.shrink_edges_by(&flags, &added);
            debug_assert_eq!(emptied, 0, "greedy fallback produced a dependent set");
            ws.put_flags("mis.bl.fallback", flags);
            // Everything else is red: kill the rest too.
            active.alive_into(alive);
            active.kill_vertices(alive);
            independent_set.extend(added);
            break;
        }

        let dim = active.dimension();
        assert!(
            dim <= MAX_ENUMERABLE_DIMENSION,
            "Beame-Luby invoked on dimension {dim}; the degree machinery only \
             supports dimension <= {MAX_ENUMERABLE_DIMENSION} (use SBL for general hypergraphs)"
        );
        let n_alive = active.n_alive();
        let m = active.n_live_edges();

        // Step 1: the vertices in no live edge join I without a coin. A stage
        // with no live edge skips this: p = 1 takes everything undrawn.
        let isolated = if m == 0 {
            0
        } else {
            active.kill_isolated_vertices(&mut independent_set)
        };

        // Step 2: degree profile and marking probability.
        let (delta, deltas_by_dimension) = if m == 0 {
            (0.0, Vec::new())
        } else {
            let table = DegreeTable::build(active);
            cost.record(Cost::parallel_step((m as u64) << dim.min(20)));
            let deltas = if config.track_potentials {
                (0..=dim).map(|i| table.delta_i(i)).collect()
            } else {
                Vec::new()
            };
            (table.delta(), deltas)
        };
        let p = beame_luby_probability(delta, dim);

        // Step 3: independent marking of the vertices step 1 left. The RNG is
        // read by one gap draw per marked vertex, walking the alive vertices
        // in ascending order, which pins the consumption order across
        // engines.
        active.alive_into(alive);
        marked_list.clear();
        for_each_hit(rng, p, alive.len(), |i| {
            let v = alive[i];
            marked[v as usize] = true;
            marked_list.push(v);
        });
        let n_marked = marked_list.len();
        cost.record(Cost::parallel_step(n_alive as u64));

        // Step 4: unmark every vertex of every fully marked edge.
        for e in active.edge_slices() {
            if e.iter().all(|&v| marked[v as usize]) {
                for &v in e {
                    unmark[v as usize] = true;
                }
            }
        }
        cost.record(Cost::parallel_step(active.total_live_size() as u64));

        // Only marked vertices can be unmarked or accepted, so the pass walks
        // the marked list (ascending, like the alive list it came from).
        let mut n_unmarked = 0usize;
        accepted.clear();
        for &v in marked_list.iter() {
            if unmark[v as usize] {
                n_unmarked += 1;
            } else {
                accepted_flags[v as usize] = true;
                accepted.push(v);
            }
        }
        cost.record(Cost::parallel_step(n_alive as u64));

        // Steps 5 and 6: commit I', trim edges, cleanup.
        active.kill_vertices(accepted);
        let emptied = active.shrink_edges_by(accepted_flags, accepted);
        debug_assert_eq!(
            emptied, 0,
            "a fully marked edge survived the unmarking step"
        );
        let dominated_removed = active.remove_dominated_edges();
        let singletons = active.remove_singleton_edges();
        cost.record(Cost::parallel_step(m as u64));
        cost.bump_round();

        independent_set.extend(accepted.iter().copied());

        trace.stages.push(BlStageStats {
            stage,
            n_alive,
            m,
            dimension: dim,
            delta,
            p,
            marked: n_marked,
            unmarked: n_unmarked,
            added: isolated + accepted.len(),
            dominated_removed,
            singletons_removed: singletons.len(),
            deltas_by_dimension,
        });
        stage += 1;

        // Reset the scratch for the next stage: every set flag belongs to a
        // marked vertex (a fully marked edge has only marked members).
        for &v in marked_list.iter() {
            marked[v as usize] = false;
            unmark[v as usize] = false;
            accepted_flags[v as usize] = false;
        }
    }

    (independent_set, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::assert_isolated_vertices_cost_no_coins;
    use crate::verify::is_valid_mis;
    use hypergraph::builder::hypergraph_from_edges;
    use hypergraph::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn bl_on_toy_produces_valid_mis() {
        let h = hypergraph_from_edges(6, vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5]]);
        let out = bl_mis(&h, &mut rng(1), &BlConfig::default());
        assert!(
            is_valid_mis(&h, &out.independent_set),
            "{:?}",
            out.independent_set
        );
        assert!(out.trace.n_stages() >= 1);
        assert!(out.cost.rounds() >= 1);
    }

    #[test]
    fn bl_on_edgeless_hypergraph_takes_everything() {
        let h = hypergraph_from_edges::<Vec<u32>>(10, vec![]);
        let out = bl_mis(&h, &mut rng(2), &BlConfig::default());
        assert_eq!(out.independent_set, (0..10).collect::<Vec<u32>>());
        // With no edges p = 1 and a single stage suffices.
        assert_eq!(out.trace.n_stages(), 1);
    }

    #[test]
    fn bl_handles_singleton_edges() {
        let h = hypergraph_from_edges(4, vec![vec![2], vec![0, 1], vec![1, 3]]);
        let out = bl_mis(&h, &mut rng(3), &BlConfig::default());
        assert!(!out.independent_set.contains(&2));
        assert!(is_valid_mis(&h, &out.independent_set));
    }

    #[test]
    fn bl_valid_on_random_graphs_and_3_uniform() {
        for seed in 0..5u64 {
            let mut r = rng(100 + seed);
            let g2 = generate::d_uniform(&mut r, 60, 120, 2);
            let out = bl_mis(&g2, &mut r, &BlConfig::default());
            assert!(is_valid_mis(&g2, &out.independent_set), "seed {seed} (d=2)");

            let g3 = generate::d_uniform(&mut r, 60, 150, 3);
            let out = bl_mis(&g3, &mut r, &BlConfig::default());
            assert!(is_valid_mis(&g3, &out.independent_set), "seed {seed} (d=3)");
        }
    }

    #[test]
    fn bl_valid_on_mixed_dimension() {
        let mut r = rng(42);
        let h = generate::mixed_dimension(&mut r, 80, 150, &[2, 3, 4, 5]);
        let out = bl_mis(&h, &mut r, &BlConfig::default());
        assert!(is_valid_mis(&h, &out.independent_set));
        // The stages append their vertices unsorted; the public body sorts.
        assert!(
            out.independent_set.windows(2).all(|w| w[0] < w[1]),
            "{:?}",
            out.independent_set
        );
        // Stage count should be modest (polylog in practice).
        assert!(
            out.trace.n_stages() < 200,
            "{} stages",
            out.trace.n_stages()
        );
    }

    #[test]
    fn bl_potential_tracking_records_profiles() {
        let mut r = rng(7);
        let h = generate::d_uniform(&mut r, 50, 120, 3);
        let cfg = BlConfig {
            track_potentials: true,
            ..BlConfig::default()
        };
        let out = bl_mis(&h, &mut r, &cfg);
        assert!(is_valid_mis(&h, &out.independent_set));
        // Every stage that still had edges must have recorded a profile
        // covering dimensions up to 3.
        let with_edges = out.trace.stages.iter().filter(|s| s.m > 0);
        for s in with_edges {
            assert_eq!(s.deltas_by_dimension.len(), s.dimension + 1);
            assert!(s.delta > 0.0);
            assert!(s.p > 0.0 && s.p <= 1.0);
        }
    }

    #[test]
    fn bl_max_stage_fallback_still_returns_valid_mis() {
        let mut r = rng(11);
        let h = generate::d_uniform(&mut r, 60, 100, 3);
        let cfg = BlConfig {
            track_potentials: false,
            max_stages: 0, // force the greedy fallback immediately
        };
        let out = bl_mis(&h, &mut r, &cfg);
        assert!(is_valid_mis(&h, &out.independent_set));
        assert_eq!(out.trace.n_stages(), 0);
    }

    #[test]
    fn bl_is_deterministic_for_a_fixed_seed() {
        let h = generate::d_uniform(&mut rng(5), 40, 80, 3);
        let a = bl_mis(&h, &mut rng(9), &BlConfig::default());
        let b = bl_mis(&h, &mut rng(9), &BlConfig::default());
        assert_eq!(a.independent_set, b.independent_set);
        assert_eq!(a.trace, b.trace);
    }

    /// Vertices in no edge are taken without a coin: padding an instance
    /// with isolated vertices between its own changes neither the words
    /// read nor the stage count, and the padded set is the relabelled set
    /// plus the padding.
    #[test]
    fn isolated_vertices_cost_no_coins() {
        let mut r = rng(29);
        for i in 0..10u64 {
            let instances = [
                generate::d_uniform(&mut r, 90, 150, 3),
                generate::mixed_dimension(&mut r, 90, 120, &[1, 2, 3, 4]),
                generate::paper_regime(&mut r, 120, 20, 6),
            ];
            for (k, h) in instances.iter().enumerate() {
                assert_isolated_vertices_cost_no_coins(h, 3 * i + k as u64, |h, rng| {
                    let out = bl_mis(h, rng, &BlConfig::default());
                    (out.independent_set, out.trace.n_stages())
                });
            }
        }
    }

    #[test]
    fn bl_stage_count_grows_slowly_with_n() {
        // Sanity check of the RNC claim's *shape*: the stage count must grow
        // far slower than n (it is polylogarithmic in theory; the constants at
        // these sizes are dominated by 1/p = 2^{d+1}Δ).
        let mut counts = Vec::new();
        for &n in &[64usize, 256, 1024] {
            let mut r = rng(n as u64);
            let h = generate::d_uniform(&mut r, n, 2 * n, 3);
            let out = bl_mis(&h, &mut r, &BlConfig::default());
            assert!(is_valid_mis(&h, &out.independent_set));
            let stages = out.trace.n_stages();
            assert!(stages < n, "n={n}: {stages} stages >= n");
            counts.push(stages as f64);
        }
        // Growing n by 16x must grow the stage count by far less than 16x.
        assert!(
            counts[2] / counts[0] < 8.0,
            "stage growth {} -> {} is not clearly sublinear",
            counts[0],
            counts[2]
        );
    }
}
