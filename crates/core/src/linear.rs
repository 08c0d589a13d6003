//! MIS for *linear* hypergraphs (every two edges share at most one vertex) —
//! the class Łuczak and Szymańska proved to be in RNC, referenced in the
//! paper's related work and exercised by experiment E9.
//!
//! The Łuczak–Szymańska algorithm is itself a marking algorithm in the
//! Beame–Luby family; its analysis exploits linearity to get away with a much
//! more aggressive marking probability. This module implements that
//! specialisation: the marking probability is derived from the maximum
//! *vertex* degree (which, in a linear hypergraph, controls the number of
//! edges any marked set can complete) instead of Kelsen's normalized degree,
//! and the per-stage structure is otherwise identical to [`crate::bl`],
//! including the marking by geometric gaps (one random word per marked
//! vertex, plus one, read in ascending vertex order) and the unmark and
//! accept passes over the marked vertices only. A linearity check is
//! performed up front so callers cannot accidentally run the specialised
//! probability on a non-linear instance.

use hypergraph::{ActiveEngine, Hypergraph, HypergraphView, VertexId};
use pram::cost::{Cost, CostTracker};
use pram::Workspace;
use rand::Rng;

use crate::greedy::{greedy_on_active_in, rank_of, take_alive_ranks};
use crate::marking::for_each_hit;
use crate::on_parked_engine;
use crate::trace::{BlStageStats, BlTrace};

/// Result of a linear-hypergraph MIS run.
#[derive(Debug, Clone)]
pub struct LinearOutcome {
    /// The maximal independent set found (sorted vertex ids).
    pub independent_set: Vec<VertexId>,
    /// Per-stage trace (same shape as a BL trace).
    pub trace: BlTrace,
    /// Work–depth accounting.
    pub cost: CostTracker,
}

/// Errors reported by [`linear_mis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinearError {
    /// Two edges share two or more vertices, so the hypergraph is not linear.
    NotLinear {
        /// Index of the first offending edge.
        first: usize,
        /// Index of the second offending edge.
        second: usize,
    },
}

impl std::fmt::Display for LinearError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinearError::NotLinear { first, second } => write!(
                f,
                "edges #{first} and #{second} share at least two vertices; the hypergraph is not linear"
            ),
        }
    }
}

impl std::error::Error for LinearError {}

/// Checks whether a hypergraph (or the live edges of an engine) is linear
/// (`|e ∩ e'| ≤ 1` for all distinct edges). Returns the first violating
/// pair if not, as indices in edge order.
pub fn check_linear<V: HypergraphView + ?Sized>(h: &V) -> Result<(), LinearError> {
    use std::collections::HashMap;
    // Map each vertex pair appearing inside an edge to that edge; a repeat is
    // a violation.
    let mut pair_owner: HashMap<(VertexId, VertexId), usize> = HashMap::new();
    for (idx, e) in h.edge_slices().enumerate() {
        for i in 0..e.len() {
            for j in (i + 1)..e.len() {
                if let Some(&first) = pair_owner.get(&(e[i], e[j])) {
                    return Err(LinearError::NotLinear { first, second: idx });
                }
                pair_owner.insert((e[i], e[j]), idx);
            }
        }
    }
    Ok(())
}

/// Computes an MIS of a linear hypergraph with the Łuczak–Szymańska-style
/// marking schedule.
///
/// Returns an error if the input is not linear; use [`crate::bl::bl_mis`] or
/// [`crate::sbl::sbl_mis`] for general hypergraphs.
pub fn linear_mis<R: Rng + ?Sized>(
    h: &Hypergraph,
    rng: &mut R,
) -> Result<LinearOutcome, LinearError> {
    linear_mis_in(h, rng, &mut Workspace::new())
}

/// Computes an MIS of a linear hypergraph with a caller-owned [`Workspace`],
/// reusing its buffers and parked engine across solves. Identical results to
/// [`linear_mis`] for the same seed.
pub fn linear_mis_in<R: Rng + ?Sized>(
    h: &Hypergraph,
    rng: &mut R,
    ws: &mut Workspace,
) -> Result<LinearOutcome, LinearError> {
    let mut cost = CostTracker::new();
    let (independent_set, trace) = on_parked_engine(h, "mis.linear.engine", ws, |active, ws| {
        linear_on_active_in(active, rng, &mut cost, ws)
    })?;
    Ok(LinearOutcome {
        independent_set,
        trace,
        cost,
    })
}

/// Runs the linear-hypergraph algorithm on an [`ActiveEngine`] in place,
/// deciding every alive vertex. Checks linearity of the live edges first
/// (leaving the engine untouched if the check fails), then returns the added
/// vertices (sorted, global ids) and the stage trace; costs are recorded
/// into `cost`.
pub fn linear_on_active_in<E: ActiveEngine, R: Rng + ?Sized>(
    active: &mut E,
    rng: &mut R,
    cost: &mut CostTracker,
    ws: &mut Workspace,
) -> Result<(Vec<VertexId>, BlTrace), LinearError> {
    check_linear(&*active)?;
    let mut trace = BlTrace::default();
    let mut independent_set: Vec<VertexId> = Vec::new();
    let id_space = active.id_space();
    let max_stages = 100_000usize;
    let mut stage = 0usize;
    // Per-stage scratch, cleared by resetting the entries of the stage's
    // marked vertices (every set entry belongs to a marked vertex), so the
    // flags go back all-false and come out through trusted clean takes.
    let mut marked = ws.take_flags_clean("mis.linear.marked", id_space);
    let mut unmark = ws.take_flags_clean("mis.linear.unmark", id_space);
    let mut accepted_flags = ws.take_flags_clean("mis.linear.accepted", id_space);
    let mut alive = ws.take_u32("mis.linear.alive");
    let mut marked_list: Vec<VertexId> = ws.take_u32("mis.linear.marked_list");
    let mut accepted: Vec<VertexId> = ws.take_u32("mis.linear.accepted_list");

    while active.n_alive() > 0 {
        if stage >= max_stages {
            let added = greedy_on_active_in(active, cost, ws);
            active.alive_into(&mut alive);
            active.kill_vertices(&alive);
            independent_set.extend(added);
            break;
        }
        let n_alive = active.n_alive();
        let m = active.n_live_edges();
        let dim = active.dimension();
        active.alive_into(&mut alive);

        // Linear marking probability: with D = max vertex degree and edges of
        // size >= 2, marking with p = 1/(2 (D · d)^{1/(d-1)} ) keeps the
        // expected number of fully marked edges through any vertex below 1/2,
        // which is all the unmarking argument needs on a linear hypergraph.
        let p = if m == 0 {
            1.0
        } else {
            let vertex_degree = max_alive_degree(&*active, &alive, ws).max(1) as f64;
            let d = dim.max(2) as f64;
            (0.5 / (vertex_degree * d).powf(1.0 / (d - 1.0))).clamp(f64::MIN_POSITIVE, 1.0)
        };

        marked_list.clear();
        for_each_hit(rng, p, alive.len(), |i| {
            let v = alive[i];
            marked[v as usize] = true;
            marked_list.push(v);
        });
        let n_marked = marked_list.len();
        cost.record(Cost::parallel_step(n_alive as u64));

        for e in active.edge_slices() {
            if e.iter().all(|&v| marked[v as usize]) {
                for &v in e {
                    unmark[v as usize] = true;
                }
            }
        }
        cost.record(Cost::parallel_step(active.total_live_size() as u64));

        accepted.clear();
        let mut n_unmarked = 0usize;
        for &v in &marked_list {
            if unmark[v as usize] {
                n_unmarked += 1;
            } else {
                accepted_flags[v as usize] = true;
                accepted.push(v);
            }
        }
        active.kill_vertices(&accepted);
        let emptied = active.shrink_edges_by(&accepted_flags, &accepted);
        debug_assert_eq!(emptied, 0);
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
            delta: 0.0,
            p,
            marked: n_marked,
            unmarked: n_unmarked,
            added: accepted.len(),
            dominated_removed,
            singletons_removed: singletons.len(),
            deltas_by_dimension: Vec::new(),
        });
        stage += 1;

        // Reset the scratch for the next stage (every set entry belongs to
        // this stage's marked list).
        for &v in &marked_list {
            marked[v as usize] = false;
            unmark[v as usize] = false;
            accepted_flags[v as usize] = false;
        }
    }

    ws.put_flags("mis.linear.marked", marked);
    ws.put_flags("mis.linear.unmark", unmark);
    ws.put_flags("mis.linear.accepted", accepted_flags);
    ws.put_u32("mis.linear.alive", alive);
    ws.put_u32("mis.linear.marked_list", marked_list);
    ws.put_u32("mis.linear.accepted_list", accepted);
    independent_set.sort_unstable();
    Ok((independent_set, trace))
}

/// The largest number of live edges through one alive vertex, counted by
/// rank in `alive` (the engine's ascending alive list), so the count costs
/// `O(|alive| + Σ|e|)` and never touches the id space.
fn max_alive_degree<E: ActiveEngine>(active: &E, alive: &[VertexId], ws: &mut Workspace) -> u32 {
    let rank = take_alive_ranks(ws, active.id_space(), alive);
    let mut degree = ws.take_u32_zeroed("mis.linear.degree", alive.len());
    for e in active.edge_slices() {
        for &v in e {
            if let Some(r) = rank_of(&rank, alive, v) {
                degree[r] += 1;
            }
        }
    }
    let max = degree.iter().copied().max().unwrap_or(0);
    ws.put_any("mis.rank", rank);
    ws.put_u32("mis.linear.degree", degree);
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_valid_mis;
    use hypergraph::builder::hypergraph_from_edges;
    use hypergraph::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn linearity_check() {
        let linear = hypergraph_from_edges(6, vec![vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 0]]);
        assert_eq!(check_linear(&linear), Ok(()));
        let not_linear = hypergraph_from_edges(5, vec![vec![0, 1, 2], vec![0, 1, 3]]);
        assert_eq!(
            check_linear(&not_linear),
            Err(LinearError::NotLinear {
                first: 0,
                second: 1
            })
        );
        assert!(LinearError::NotLinear {
            first: 0,
            second: 1
        }
        .to_string()
        .contains("not linear"));
    }

    #[test]
    fn rejects_non_linear_input() {
        let h = hypergraph_from_edges(5, vec![vec![0, 1, 2], vec![0, 1, 3]]);
        assert!(linear_mis(&h, &mut rng(1)).is_err());
    }

    #[test]
    fn valid_on_generated_linear_hypergraphs() {
        for seed in 0..4u64 {
            let mut r = rng(10 + seed);
            let h = generate::linear(&mut r, 120, 80, 3);
            assert_eq!(check_linear(&h), Ok(()));
            let out = linear_mis(&h, &mut r).unwrap();
            assert!(is_valid_mis(&h, &out.independent_set), "seed {seed}");
            assert!(out.trace.n_stages() >= 1);
        }
    }

    #[test]
    fn valid_on_graphs_which_are_always_linear() {
        let mut r = rng(20);
        let h = generate::d_uniform(&mut r, 80, 150, 2);
        let out = linear_mis(&h, &mut r).unwrap();
        assert!(is_valid_mis(&h, &out.independent_set));
    }

    #[test]
    fn sunflower_with_singleton_core_is_linear() {
        let h = generate::special::sunflower(6, 3, 1);
        assert_eq!(check_linear(&h), Ok(()));
        let out = linear_mis(&h, &mut rng(30)).unwrap();
        assert!(is_valid_mis(&h, &out.independent_set));
    }

    #[test]
    fn stage_counts_stay_small() {
        let mut r = rng(40);
        let h = generate::linear(&mut r, 300, 200, 3);
        let out = linear_mis(&h, &mut r).unwrap();
        assert!(is_valid_mis(&h, &out.independent_set));
        assert!(
            out.trace.n_stages() < 100,
            "{} stages",
            out.trace.n_stages()
        );
    }
}
