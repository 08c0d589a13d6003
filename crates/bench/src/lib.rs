//! Shared workload builders and reporting helpers for the benchmarks and the
//! `experiments` harness.
//!
//! Every experiment the harness runs states its workload in terms of the
//! functions here, so the criterion benches and the harness binary measure
//! exactly the same instances.

pub mod baseline;
pub mod load;

use hypergraph::{generate, Hypergraph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The fixed base seed used by every experiment (reproducibility).
pub const BASE_SEED: u64 = 0x5BA1_2014;

/// A seeded RNG for workload `tag` (so different experiments do not share
/// random streams).
pub fn rng_for(tag: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(BASE_SEED ^ tag)
}

/// E1/E5 workload: a general hypergraph in the paper regime (`m ≈ n^β`,
/// clamped to at least `n/8` edges so small instances are non-trivial), edge
/// sizes 2..=16.
pub fn paper_workload(n: usize, seed: u64) -> Hypergraph {
    let mut rng = rng_for(seed.wrapping_mul(31).wrapping_add(n as u64));
    generate::paper_regime(&mut rng, n, (n / 8).max(16), 16)
}

/// E2 workload: a `d`-uniform hypergraph with `m = 2n` edges.
pub fn uniform_workload(n: usize, d: usize, seed: u64) -> Hypergraph {
    let mut rng = rng_for(seed.wrapping_mul(97).wrapping_add((n * 10 + d) as u64));
    generate::d_uniform(&mut rng, n, 2 * n, d)
}

/// E9 workload: a random linear hypergraph with edges of size 3.
pub fn linear_workload(n: usize, seed: u64) -> Hypergraph {
    let mut rng = rng_for(seed.wrapping_mul(193).wrapping_add(n as u64));
    generate::linear(&mut rng, n, (2 * n) / 3, 3)
}

/// An induced query: a uniform `size`-subset of `0..n`, ascending, drawn by
/// a partial Fisher–Yates shuffle from [`rng_for`]`(tag)`.
pub fn random_query(tag: u64, n: usize, size: usize) -> Vec<u32> {
    let mut rng = rng_for(tag);
    let mut q: Vec<u32> = (0..n as u32).collect();
    for k in 0..size {
        let j = rng.gen_range(k..n);
        q.swap(k, j);
    }
    q.truncate(size);
    q.sort_unstable();
    q
}

/// Renders a markdown table (the experiments harness prints every result
/// this way, so its output pastes into any markdown document verbatim).
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_reproducible() {
        assert_eq!(paper_workload(256, 1), paper_workload(256, 1));
        assert_eq!(uniform_workload(128, 3, 2), uniform_workload(128, 3, 2));
        assert_eq!(linear_workload(128, 3), linear_workload(128, 3));
        assert_ne!(paper_workload(256, 1), paper_workload(256, 2));
    }

    #[test]
    fn workload_shapes() {
        let h = paper_workload(512, 0);
        assert_eq!(h.n_vertices(), 512);
        assert!(h.n_edges() >= 16);
        let u = uniform_workload(100, 3, 0);
        assert_eq!(u.n_edges(), 200);
        assert_eq!(u.dimension(), 3);
        let l = linear_workload(120, 0);
        assert!(l.n_edges() > 0);
    }

    #[test]
    fn markdown_table_renders_rows() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }

    /// The partial shuffle every guard once wrote inline, kept as the oracle:
    /// one slip in RNG order changes the guards' outcome fingerprints.
    #[test]
    fn random_query_matches_the_inline_shuffle() {
        let inline = |tag: u64, n: usize, size: usize| {
            let mut rng = rng_for(tag);
            let mut q: Vec<u32> = (0..n as u32).collect();
            for k in 0..size {
                let j = rand::Rng::gen_range(&mut rng, k..n);
                q.swap(k, j);
            }
            q.truncate(size);
            q.sort_unstable();
            q
        };
        let shapes = [
            (16384, 512),
            (65536, 512),
            (262144, 512),
            (4096, 128),
            (8192, 256),
            (16384, 32),
            (16384, 1024),
        ];
        for (n, size) in shapes {
            for tag in [0xBA7C_1000 + n as u64, 0x6E73_1000 ^ 0x5EED, 7] {
                let q = random_query(tag, n, size);
                assert_eq!(q, inline(tag, n, size), "n={n} size={size} tag={tag:#x}");
                assert_eq!(q.len(), size);
                assert!(q.windows(2).all(|w| w[0] < w[1]) && q[size - 1] < n as u32);
            }
        }
    }
}
