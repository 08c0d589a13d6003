//! The permutation-based Beame–Luby algorithm (the second algorithm of \[2\],
//! analysed further by Shachnai–Srinivasan \[9\]), conjectured to be RNC for
//! general hypergraphs.
//!
//! The algorithm draws a uniformly random permutation `π` of the vertices and
//! commits to the *lexicographically-first* MIS with respect to `π`: a vertex
//! joins the independent set unless some edge through it would become fully
//! blue using only vertices earlier in `π`. Sequentially this is just greedy
//! in a random order; the parallel interest is that long prefixes of `π` can
//! be decided simultaneously because most early vertices have no mutual
//! constraints.
//!
//! This module provides both views:
//!
//! * [`permutation_mis`] — the exact random-order greedy (the distribution the
//!   conjecture is about), used as a baseline and as a differential-testing
//!   oracle, and [`permutation_on_active_in`], the same over the alive part
//!   of an engine;
//! * [`permutation_rounds_mis`] — a round-structured execution that processes
//!   the permutation in chunks, deciding each chunk in one parallel round the
//!   way an implementation on a PRAM would, and reporting the number of rounds
//!   used. The chunk schedule doubles, mirroring the prefix-doubling schedule
//!   Shachnai–Srinivasan analyse.

use hypergraph::{ActiveEngine, Hypergraph, VertexId};
use pram::cost::{Cost, CostTracker};
use pram::Workspace;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::greedy::{greedy_mis_in, greedy_sweep};

/// Result of a permutation-MIS run.
#[derive(Debug, Clone)]
pub struct PermutationOutcome {
    /// The maximal independent set found (sorted).
    pub independent_set: Vec<VertexId>,
    /// The permutation used (vertex ids in processing order).
    pub permutation: Vec<VertexId>,
    /// Number of parallel rounds used (1 chunk = 1 round); equals `1` for the
    /// purely sequential view.
    pub rounds: usize,
    /// Work–depth accounting.
    pub cost: CostTracker,
}

/// The lexicographically-first MIS under a uniformly random permutation
/// (random-order greedy).
pub fn permutation_mis<R: Rng + ?Sized>(h: &Hypergraph, rng: &mut R) -> PermutationOutcome {
    permutation_mis_in(h, rng, &mut Workspace::new())
}

/// Workspace-reusing variant of [`permutation_mis`]: the greedy scan's
/// scratch comes from (and returns to) `ws`. Identical results for the same
/// seed. (The permutation itself is part of the outcome and is always
/// freshly allocated.)
pub fn permutation_mis_in<R: Rng + ?Sized>(
    h: &Hypergraph,
    rng: &mut R,
    ws: &mut Workspace,
) -> PermutationOutcome {
    let mut order: Vec<VertexId> = (0..h.n_vertices() as u32).collect();
    order.shuffle(rng);
    let out = greedy_mis_in(h, Some(&order), ws);
    PermutationOutcome {
        independent_set: out.independent_set,
        permutation: order,
        rounds: 1,
        cost: out.cost,
    }
}

/// Random-order greedy over the alive part of an [`ActiveEngine`]: shuffles
/// the ascending alive list and scans the alive vertices in that order.
/// Returns the independent set (sorted, global ids) and the permutation;
/// costs, one round even when nothing is alive, go into `cost`. The same
/// answer as [`permutation_mis_in`] on the compacted instance, mapped back.
pub fn permutation_on_active_in<E: ActiveEngine, R: Rng + ?Sized>(
    active: &E,
    rng: &mut R,
    cost: &mut CostTracker,
    ws: &mut Workspace,
) -> (Vec<VertexId>, Vec<VertexId>) {
    let mut order = active.alive_vertices();
    order.shuffle(rng);
    let mut set = greedy_sweep(active, Some(&order), cost, ws);
    set.sort_unstable();
    (set, order)
}

/// Round-structured execution of the permutation algorithm: the permutation is
/// split into doubling chunks (1, 2, 4, …); each chunk is decided in one
/// parallel round against the already-decided prefix. The committed set is
/// identical to [`permutation_mis`] run with the same permutation — the chunk
/// structure only changes the *cost accounting*, which is the quantity the
/// open question about this algorithm concerns.
pub fn permutation_rounds_mis<R: Rng + ?Sized>(h: &Hypergraph, rng: &mut R) -> PermutationOutcome {
    permutation_rounds_mis_in(h, rng, &mut Workspace::new())
}

/// Workspace-reusing variant of [`permutation_rounds_mis`]. Identical
/// results for the same seed.
pub fn permutation_rounds_mis_in<R: Rng + ?Sized>(
    h: &Hypergraph,
    rng: &mut R,
    ws: &mut Workspace,
) -> PermutationOutcome {
    let n = h.n_vertices();
    let mut order: Vec<VertexId> = (0..n as u32).collect();
    order.shuffle(rng);

    let mut cost = CostTracker::new();
    let mut missing = ws.take_u32("mis.perm.missing");
    missing.extend((0..h.n_edges()).map(|e| h.edge_len(e as u32) as u32));
    let mut set = Vec::new();

    let mut start = 0usize;
    let mut chunk = 1usize;
    let mut rounds = 0usize;
    while start < n {
        let end = (start + chunk).min(n);
        // One parallel round: every vertex of the chunk is examined against
        // the state at the start of the chunk *plus* earlier vertices of the
        // same chunk (the intra-chunk dependency chain is what the analysis
        // of this algorithm has to bound; we account its depth as the chunk's
        // longest prefix, i.e. charge log-depth for the scan plus the chain).
        let mut chunk_work = 0u64;
        for &v in &order[start..end] {
            let inc = h.incident_edges(v);
            chunk_work += 1 + inc.len() as u64;
            let blocked = inc.iter().any(|&e| missing[e as usize] == 1);
            if !blocked {
                set.push(v);
                for &e in inc {
                    missing[e as usize] -= 1;
                }
            }
        }
        cost.record(Cost::parallel_step(chunk_work));
        cost.bump_round();
        rounds += 1;
        start = end;
        chunk *= 2;
    }

    set.sort_unstable();
    ws.put_u32("mis.perm.missing", missing);
    PermutationOutcome {
        independent_set: set,
        permutation: order,
        rounds,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_valid_mis;
    use hypergraph::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn permutation_mis_is_valid() {
        let mut r = rng(1);
        let h = generate::mixed_dimension(&mut r, 60, 120, &[2, 3, 4]);
        let out = permutation_mis(&h, &mut r);
        assert!(is_valid_mis(&h, &out.independent_set));
        assert_eq!(out.rounds, 1);
        assert_eq!(out.permutation.len(), 60);
    }

    #[test]
    fn round_structured_version_matches_sequential_semantics() {
        // Same seed → same permutation → identical committed set.
        let h = generate::d_uniform(&mut rng(2), 50, 100, 3);
        let a = permutation_mis(&h, &mut rng(33));
        let b = permutation_rounds_mis(&h, &mut rng(33));
        assert_eq!(a.permutation, b.permutation);
        assert_eq!(a.independent_set, b.independent_set);
        assert!(b.rounds >= 1);
        // Doubling chunks: rounds ≈ log2(n) + 1.
        assert!(b.rounds <= (50f64.log2().ceil() as usize) + 2);
    }

    #[test]
    fn works_on_hypergraphs_with_large_edges() {
        let mut r = rng(3);
        let h = generate::paper_regime(&mut r, 200, 40, 12);
        let out = permutation_rounds_mis(&h, &mut r);
        assert!(is_valid_mis(&h, &out.independent_set));
    }

    #[test]
    fn different_seeds_can_give_different_sets() {
        let h = generate::d_uniform(&mut rng(4), 40, 80, 2);
        let a = permutation_mis(&h, &mut rng(1)).independent_set;
        let b = permutation_mis(&h, &mut rng(2)).independent_set;
        // Both valid; with overwhelming probability they differ.
        assert!(is_valid_mis(&h, &a));
        assert!(is_valid_mis(&h, &b));
    }
}
