//! Helpers shared by the unit tests of several algorithm modules.

use hypergraph::builder::hypergraph_from_edges;
use hypergraph::{Hypergraph, VertexId};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A ChaCha8 stream that counts the `next_u64` words drawn from it.
pub(crate) struct Counting {
    inner: ChaCha8Rng,
    pub(crate) words: usize,
}

impl Counting {
    pub(crate) fn new(seed: u64) -> Self {
        Counting {
            inner: ChaCha8Rng::seed_from_u64(seed),
            words: 0,
        }
    }
}

impl RngCore for Counting {
    fn next_u32(&mut self) -> u32 {
        unreachable!("the sampler draws whole u64 words")
    }

    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
}

/// Solves `h`, and `h` padded with isolated vertices, from the same seed,
/// and asserts that the padding cost no coins: the same words read, the
/// same stage count, and the padded set is the relabelled set plus the
/// padding. `solve` returns the set and the stage count.
pub(crate) fn assert_isolated_vertices_cost_no_coins(
    h: &Hypergraph,
    seed: u64,
    solve: impl Fn(&Hypergraph, &mut Counting) -> (Vec<VertexId>, usize),
) {
    let (padded, new_id, padding) = pad_with_isolated(h);
    let (mut plain_rng, mut padded_rng) = (Counting::new(seed), Counting::new(seed));
    let (plain_set, plain_stages) = solve(h, &mut plain_rng);
    let (set, stages) = solve(&padded, &mut padded_rng);
    assert_eq!(plain_rng.words, padded_rng.words, "seed {seed}: words read");
    assert_eq!(plain_stages, stages, "seed {seed}: stages");
    let mut expected: Vec<VertexId> = plain_set
        .iter()
        .map(|&v| new_id[v as usize])
        .chain(padding)
        .collect();
    expected.sort_unstable();
    assert_eq!(set, expected, "seed {seed}: set");
}

/// `h` with isolated vertices inserted between its own: `v % 3` new ids
/// before each vertex `v` and two after the last. The relabelling keeps
/// the vertex order. Returns the padded hypergraph, the new id of each
/// vertex of `h` and the inserted ids (ascending).
fn pad_with_isolated(h: &Hypergraph) -> (Hypergraph, Vec<VertexId>, Vec<VertexId>) {
    let mut new_id = Vec::with_capacity(h.n_vertices());
    let mut padding = Vec::new();
    let mut next: VertexId = 0;
    for v in 0..h.n_vertices() as VertexId {
        for _ in 0..v % 3 {
            padding.push(next);
            next += 1;
        }
        new_id.push(next);
        next += 1;
    }
    padding.extend([next, next + 1]);
    let edges = h
        .edges()
        .map(|e| e.iter().map(|&v| new_id[v as usize]).collect::<Vec<_>>());
    let padded = hypergraph_from_edges(next as usize + 2, edges);
    (padded, new_id, padding)
}
