//! Sequential greedy MIS — the "time linear in the number of vertices"
//! baseline the paper mentions for finishing off small instances, and the
//! ground-truth oracle for correctness tests.

use hypergraph::{ActiveEngine, Hypergraph, VertexId};
use pram::cost::{Cost, CostTracker};
use pram::Workspace;

/// Result of a greedy run.
#[derive(Debug, Clone)]
pub struct GreedyOutcome {
    /// The maximal independent set found.
    pub independent_set: Vec<VertexId>,
    /// Work–depth accounting (entirely sequential: work = depth).
    pub cost: CostTracker,
}

/// Computes a maximal independent set by scanning vertices in the given order
/// (increasing id order when `order` is `None`) and adding each vertex unless
/// doing so would complete an edge.
///
/// The per-vertex test walks the edges incident to the candidate and checks
/// whether all their other vertices are already in the set; total time is
/// `O(n + Σ_e |e|·deg)` in the worst case but `O(n + Σ_e |e|)` amortised with
/// the per-edge "missing vertices" counters used here.
pub fn greedy_mis(h: &Hypergraph, order: Option<&[VertexId]>) -> GreedyOutcome {
    greedy_mis_in(h, order, &mut Workspace::new())
}

/// Workspace-reusing variant of [`greedy_mis`]: the membership flags and
/// per-edge counters come from (and return to) `ws`. Identical results.
pub fn greedy_mis_in(
    h: &Hypergraph,
    order: Option<&[VertexId]>,
    ws: &mut Workspace,
) -> GreedyOutcome {
    let n = h.n_vertices();
    let mut cost = CostTracker::new();
    let mut in_set = ws.take_flags("mis.greedy.in_set", n);
    // missing[e] = number of vertices of edge e not (yet) in the set.
    let mut missing = ws.take_u32("mis.greedy.missing");
    missing.extend((0..h.n_edges()).map(|e| h.edge_len(e as u32) as u32));
    let mut default_order = ws.take_u32("mis.greedy.order");
    let order: &[VertexId] = match order {
        Some(o) => o,
        None => {
            default_order.extend(0..n as u32);
            &default_order
        }
    };
    let mut set = Vec::new();
    for &v in order {
        // v can join unless some incident edge has exactly one missing vertex
        // (which must then be v itself, since v is not yet in the set).
        let blocked = h
            .incident_edges(v)
            .iter()
            .any(|&e| missing[e as usize] == 1);
        cost.record(Cost::sequential(1 + h.incident_edges(v).len() as u64));
        if !blocked && !in_set[v as usize] {
            in_set[v as usize] = true;
            set.push(v);
            for &e in h.incident_edges(v) {
                missing[e as usize] -= 1;
            }
        }
    }
    cost.bump_round();
    set.sort_unstable();
    ws.put_flags("mis.greedy.in_set", in_set);
    ws.put_u32("mis.greedy.missing", missing);
    ws.put_u32("mis.greedy.order", default_order);
    GreedyOutcome {
        independent_set: set,
        cost,
    }
}

/// Greedy MIS over the alive part of an [`ActiveEngine`], scanning the alive
/// vertices in increasing id order — SBL's tail, the BL safety net and the
/// serving layer's induced greedy queries. Returns the vertices added
/// (ascending, global ids) and charges what [`greedy_mis_in`] charges on the
/// compacted instance, including its one round when nothing is alive.
///
/// Per-call scratch (the rebuilt incidence lists and counters) comes from
/// and returns to `ws`, and every pass is over the alive vertices or the
/// live edges, never the id space, so an induced sub-engine costs what its
/// own size costs.
pub fn greedy_on_active_in<E: ActiveEngine>(
    active: &E,
    cost: &mut CostTracker,
    ws: &mut Workspace,
) -> Vec<VertexId> {
    greedy_sweep(active, None, cost, ws)
}

/// The greedy scan over an engine's alive vertices in `order` (a
/// permutation of the alive list; ascending when `None`). Charges exactly
/// what [`greedy_mis_in`] charges on the compacted instance, including its
/// one round when nothing is alive, and returns the added vertices in scan
/// order.
///
/// The incidence lists over the live edges are rebuilt with one counting
/// sort indexed by *rank* in the alive list; [`take_alive_ranks`] keeps the
/// id → rank table.
pub(crate) fn greedy_sweep<E: ActiveEngine>(
    active: &E,
    order: Option<&[VertexId]>,
    cost: &mut CostTracker,
    ws: &mut Workspace,
) -> Vec<VertexId> {
    let mut alive = ws.take_u32("mis.greedy.alive");
    active.alive_into(&mut alive);
    let rank = take_alive_ranks(ws, active.id_space(), &alive);
    // missing[e] counts how many more vertices of e would need to join.
    // Incidence by rank r: count into offsets[r + 2], prefix-sum, then
    // scatter through offsets[r + 1], which leaves r's edges at
    // incident[offsets[r]..offsets[r + 1]].
    let mut missing = ws.take_u32("mis.greedy.missing");
    let mut offsets = ws.take_u32_zeroed("mis.greedy.inc_offsets", alive.len() + 2);
    for e in active.edge_slices() {
        missing.push(e.len() as u32);
        for &v in e {
            if let Some(r) = rank_of(&rank, &alive, v) {
                offsets[r + 2] += 1;
            }
        }
    }
    for r in 1..offsets.len() {
        offsets[r] += offsets[r - 1];
    }
    let mut incident = ws.take_u32_zeroed("mis.greedy.incident", offsets[alive.len() + 1] as usize);
    for (i, e) in active.edge_slices().enumerate() {
        for &v in e {
            if let Some(r) = rank_of(&rank, &alive, v) {
                incident[offsets[r + 1] as usize] = i as u32;
                offsets[r + 1] += 1;
            }
        }
    }
    let mut added = Vec::new();
    let mut visit = |r: usize| {
        let inc = &incident[offsets[r] as usize..offsets[r + 1] as usize];
        let blocked = inc.iter().any(|&e| missing[e as usize] == 1);
        cost.record(Cost::sequential(1 + inc.len() as u64));
        if !blocked {
            added.push(alive[r]);
            for &e in inc {
                missing[e as usize] -= 1;
            }
        }
    };
    match order {
        None => (0..alive.len()).for_each(&mut visit),
        Some(order) => order
            .iter()
            .for_each(|&v| visit(rank_of(&rank, &alive, v).expect("order lists alive vertices"))),
    }
    cost.bump_round();
    ws.put_any("mis.rank", rank);
    ws.put_u32("mis.greedy.alive", alive);
    ws.put_u32("mis.greedy.missing", missing);
    ws.put_u32("mis.greedy.inc_offsets", offsets);
    ws.put_u32("mis.greedy.incident", incident);
    added
}

/// Takes the id → rank table of `alive` (ascending, duplicate-free) from
/// `ws`: `rank[alive[i]] == i`. The table spans the id space but is parked
/// in `ws` and never cleared, so a call writes only `alive`'s entries;
/// read it through [`rank_of`], which tells stale entries apart. Park it
/// again under `"mis.rank"`.
pub(crate) fn take_alive_ranks(
    ws: &mut Workspace,
    id_space: usize,
    alive: &[VertexId],
) -> Vec<u32> {
    let mut rank = ws.take_any::<Vec<u32>>("mis.rank").unwrap_or_default();
    if rank.len() < id_space {
        rank.resize(id_space, 0);
    }
    for (i, &v) in alive.iter().enumerate() {
        rank[v as usize] = i as u32;
    }
    rank
}

/// The rank of `v` in `alive`, or `None` if `v` is not alive (its table
/// entry is stale: `alive[rank[v]] != v`).
pub(crate) fn rank_of(rank: &[u32], alive: &[VertexId], v: VertexId) -> Option<usize> {
    let r = rank[v as usize] as usize;
    (alive.get(r) == Some(&v)).then_some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_valid_mis;
    use hypergraph::builder::hypergraph_from_edges;
    use hypergraph::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn greedy_on_toy() {
        let h = hypergraph_from_edges(6, vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5]]);
        let out = greedy_mis(&h, None);
        assert!(is_valid_mis(&h, &out.independent_set));
        // Scanning 0,1,2,...: 0,1 join; 2 blocked ({0,1,2}); 3 joins; 4 joins;
        // 5 blocked ({3,4,5}).
        assert_eq!(out.independent_set, vec![0, 1, 3, 4]);
        assert!(out.cost.cost().work > 0);
    }

    #[test]
    fn greedy_respects_custom_order() {
        let h = hypergraph_from_edges(3, vec![vec![0, 1]]);
        let a = greedy_mis(&h, Some(&[0, 1, 2])).independent_set;
        let b = greedy_mis(&h, Some(&[1, 0, 2])).independent_set;
        assert_eq!(a, vec![0, 2]);
        assert_eq!(b, vec![1, 2]);
    }

    #[test]
    fn greedy_on_random_instances_is_always_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for (n, m, d) in [(30, 60, 3), (50, 100, 4), (80, 40, 2)] {
            let h = generate::d_uniform(&mut rng, n, m, d);
            let out = greedy_mis(&h, None);
            assert!(is_valid_mis(&h, &out.independent_set));
        }
    }

    #[test]
    fn greedy_handles_singleton_edges() {
        let h = hypergraph_from_edges(4, vec![vec![1], vec![1, 2], vec![0, 3]]);
        let out = greedy_mis(&h, None);
        assert!(!out.independent_set.contains(&1));
        assert!(is_valid_mis(&h, &out.independent_set));
    }

    #[test]
    fn greedy_on_active_matches_full_when_everything_alive() {
        use hypergraph::ActiveHypergraph;
        let h = hypergraph_from_edges(6, vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5]]);
        let active = ActiveHypergraph::from_hypergraph(&h);
        let mut cost = CostTracker::new();
        let added = greedy_on_active_in(&active, &mut cost, &mut Workspace::new());
        assert_eq!(added, greedy_mis(&h, None).independent_set);
    }

    #[test]
    fn greedy_on_empty_active() {
        use hypergraph::ActiveHypergraph;
        let h = hypergraph_from_edges::<Vec<u32>>(0, vec![]);
        let active = ActiveHypergraph::from_hypergraph(&h);
        let mut cost = CostTracker::new();
        assert!(greedy_on_active_in(&active, &mut cost, &mut Workspace::new()).is_empty());
        // Greedy's one round, as `greedy_mis_in` charges on an empty graph.
        assert_eq!(cost.rounds(), 1);
    }
}
