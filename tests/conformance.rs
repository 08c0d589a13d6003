//! Cross-algorithm conformance suite: on randomized sweeps over every
//! generator family, every algorithm's output passes [`verify_mis`], and the
//! sequential greedy algorithm serves as the maximality oracle — scanning the
//! claimed set first and the remaining vertices afterwards must reproduce the
//! claimed set exactly (anything extra greedy can add disproves maximality;
//! anything it drops disproves independence).

use hypergraph_mis::hypergraph::Hypergraph;
use hypergraph_mis::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Greedy-based maximality oracle: an MIS, scanned first by greedy, is
/// returned unchanged.
fn assert_greedy_oracle(h: &Hypergraph, claimed: &[u32], algo: &str) {
    let mut order: Vec<u32> = claimed.to_vec();
    let in_set: std::collections::BTreeSet<u32> = claimed.iter().copied().collect();
    order.extend((0..h.n_vertices() as u32).filter(|v| !in_set.contains(v)));
    let replay = greedy_mis(h, Some(&order));
    let mut expected = claimed.to_vec();
    expected.sort_unstable();
    let mut got = replay.independent_set.clone();
    got.sort_unstable();
    assert_eq!(
        got, expected,
        "{algo}: greedy oracle disagrees (claimed set is not a maximal independent set)"
    );
}

/// Runs every general-hypergraph algorithm on `h` and checks each output
/// against `verify_mis` and the greedy oracle. `seed` controls all RNGs.
fn check_all_algorithms(h: &Hypergraph, seed: u64, family: &str) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sbl = sbl_mis(h, &mut rng);
    verify_mis(h, &sbl.independent_set)
        .unwrap_or_else(|e| panic!("{family}: SBL output failed verification: {e:?}"));
    assert_greedy_oracle(h, &sbl.independent_set, "sbl");

    // BL is a small-dimension algorithm: its marking probability is
    // 1/(2^{d+1}Δ), so beyond d ≈ 10 a stage essentially never marks anything
    // (that regime is exactly what SBL's sampling exists for).
    if h.dimension() <= 10 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB1);
        let bl = bl_mis(h, &mut rng, &BlConfig::default());
        verify_mis(h, &bl.independent_set)
            .unwrap_or_else(|e| panic!("{family}: BL output failed verification: {e:?}"));
        assert_greedy_oracle(h, &bl.independent_set, "bl");
    }

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD2);
    let kuw = kuw_mis(h, &mut rng);
    verify_mis(h, &kuw.independent_set)
        .unwrap_or_else(|e| panic!("{family}: KUW output failed verification: {e:?}"));
    assert_greedy_oracle(h, &kuw.independent_set, "kuw");

    let greedy = greedy_mis(h, None);
    verify_mis(h, &greedy.independent_set)
        .unwrap_or_else(|e| panic!("{family}: greedy output failed verification: {e:?}"));
    assert_greedy_oracle(h, &greedy.independent_set, "greedy");

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xE5);
    let perm = permutation_mis(h, &mut rng);
    verify_mis(h, &perm.independent_set)
        .unwrap_or_else(|e| panic!("{family}: permutation output failed verification: {e:?}"));
    assert_greedy_oracle(h, &perm.independent_set, "permutation");

    // The linear-hypergraph specialist only claims linear inputs.
    if check_linear(h).is_ok() {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x11);
        let lin = linear_mis(h, &mut rng).expect("check_linear passed");
        verify_mis(h, &lin.independent_set)
            .unwrap_or_else(|e| panic!("{family}: linear output failed verification: {e:?}"));
        assert_greedy_oracle(h, &lin.independent_set, "linear");
    }
}

#[test]
fn d_uniform_sweep() {
    for seed in 0..4u64 {
        for d in [2usize, 3, 5] {
            let mut rng = ChaCha8Rng::seed_from_u64(1000 + seed);
            let h = generate::d_uniform(&mut rng, 60 + 10 * d, 150, d);
            check_all_algorithms(&h, 5000 + seed * 10 + d as u64, "d_uniform");
        }
    }
}

#[test]
fn mixed_dimension_sweep() {
    for seed in 0..4u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(2000 + seed);
        let h = generate::mixed_dimension(&mut rng, 80, 160, &[2, 3, 4, 6]);
        check_all_algorithms(&h, 6000 + seed, "mixed_dimension");
    }
}

#[test]
fn paper_regime_sweep() {
    for seed in 0..4u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(3000 + seed);
        let h = generate::paper_regime(&mut rng, 150, 30, 9);
        check_all_algorithms(&h, 7000 + seed, "paper_regime");
    }
}

#[test]
fn linear_sweep() {
    for seed in 0..4u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(4000 + seed);
        let h = generate::linear(&mut rng, 90, 60, 3);
        assert!(
            check_linear(&h).is_ok(),
            "generator produced non-linear output"
        );
        check_all_algorithms(&h, 8000 + seed, "linear");
    }
}

#[test]
fn planted_independent_sweep() {
    for seed in 0..4u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(5000 + seed);
        let planted = 25usize;
        let h = generate::planted_independent(&mut rng, 75, 150, 4, planted);
        // The planted set must be independent by construction...
        let cert: Vec<u32> = (0..planted as u32).collect();
        assert!(h.is_independent(&cert), "planted certificate violated");
        check_all_algorithms(&h, 9000 + seed, "planted_independent");
    }
}

#[test]
fn special_classes_sweep() {
    let cases: Vec<(&str, Hypergraph)> = vec![
        ("complete_graph", generate::special::complete_graph(12)),
        ("path", generate::special::path(20)),
        ("cycle", generate::special::cycle(17)),
        ("star", generate::special::star(10)),
        ("sunflower", generate::special::sunflower(5, 4, 2)),
    ];
    for (name, h) in cases {
        check_all_algorithms(&h, 0xC0FFEE, name);
    }
}

/// Runs every algorithm on both the flat and the reference engine and checks
/// that the engines agree exactly, on top of the usual `verify_mis` + greedy
/// oracle checks (which run via [`check_all_algorithms`] on the flat engine).
/// Without the `reference-engine` feature (the flat-engine-only production
/// configuration), only the flat-engine checks run.
#[cfg(not(feature = "reference-engine"))]
fn check_all_algorithms_on_both_engines(h: &Hypergraph, seed: u64, family: &str) {
    check_all_algorithms(h, seed, family);
}

#[cfg(feature = "reference-engine")]
fn check_all_algorithms_on_both_engines(h: &Hypergraph, seed: u64, family: &str) {
    use hypergraph::{ActiveHypergraph, ReferenceActiveHypergraph};

    check_all_algorithms(h, seed, family);
    let (flat, flat_cost) = sets_on_engine::<ActiveHypergraph>(h, seed);
    let (reference, reference_cost) = sets_on_engine::<ReferenceActiveHypergraph>(h, seed);
    assert_eq!(flat.len(), reference.len());
    for (f, r) in flat.iter().zip(&reference) {
        assert_eq!(f, r, "{family}: {} engines disagree", f.0);
    }
    assert_eq!(
        flat_cost, reference_cost,
        "{family}: engines disagree on costs"
    );
}

/// Summed `(work, depth, rounds)`.
#[cfg(feature = "reference-engine")]
type CostTotals = (u64, u64, u64);

/// Every algorithm's `*_on_active_in` body on a fresh engine of type `E`
/// built from `h`, all through one workspace: `(algorithm, set)` pairs and
/// the summed `(work, depth, rounds)`. BL is skipped above dimension 10
/// (where its marking probability vanishes) and linear where it does not
/// apply.
#[cfg(feature = "reference-engine")]
fn sets_on_engine<E: hypergraph::ActiveEngine + Send + 'static>(
    h: &Hypergraph,
    seed: u64,
) -> (Vec<(&'static str, Vec<u32>)>, CostTotals) {
    let mut ws = Workspace::new();
    let rng = |salt: u64| ChaCha8Rng::seed_from_u64(seed ^ salt);
    let engine = || E::from_hypergraph(h);
    let mut cost = CostTracker::new();
    let mut sets = Vec::new();
    let sbl_cfg = SblConfig::default();
    let (set, ..) = sbl_on_active_in(&mut engine(), &mut rng(0), &sbl_cfg, &mut cost, &mut ws);
    sets.push(("SBL", set));
    if h.dimension() <= 10 {
        let bl_cfg = BlConfig::default();
        let (set, _) = bl_on_active_in(&mut engine(), &mut rng(0xB1), &bl_cfg, &mut cost, &mut ws);
        sets.push(("BL", set));
    }
    let (set, _) = kuw_on_active_in(&mut engine(), &mut rng(0xD2), &mut cost, &mut ws);
    sets.push(("KUW", set));
    if check_linear(h).is_ok() {
        let (set, _) =
            linear_on_active_in(&mut engine(), &mut rng(0x11), &mut cost, &mut ws).unwrap();
        sets.push(("linear", set));
    }
    sets.push(("greedy", greedy_on_active_in(&engine(), &mut cost, &mut ws)));
    let (set, _) = permutation_on_active_in(&engine(), &mut rng(0x9E), &mut cost, &mut ws);
    sets.push(("permutation", set));
    let c = cost.cost();
    (sets, (c.work, c.depth, cost.rounds()))
}

/// Adversarial families: shapes chosen to stress the trimming, domination,
/// singleton and sampling machinery rather than look like random workloads.
/// All must pass `verify_mis`, the greedy maximality oracle, and exact
/// flat/reference engine agreement.
#[test]
fn adversarial_families() {
    // Sunflowers: maximal petal overlap through a shared core.
    for (k, d, c) in [(8usize, 4usize, 2usize), (6, 5, 1), (10, 3, 2)] {
        let h = generate::special::sunflower(k, d, c);
        check_all_algorithms_on_both_engines(
            &h,
            0xADA0 + (k * 100 + d * 10 + c) as u64,
            "sunflower",
        );
    }

    // One giant edge plus stars: the giant edge exceeds every practical
    // dimension cap, so SBL has to reach it through sampling.
    for (g, k) in [(18usize, 12usize), (30, 5)] {
        let h = generate::special::giant_edge_with_stars(g, k);
        assert!(h.dimension() == g);
        check_all_algorithms_on_both_engines(&h, 0xADA1 + g as u64, "giant_edge_with_stars");
    }

    // All-singleton edges: the unique MIS is empty.
    let h = generate::special::all_singletons(11);
    check_all_algorithms_on_both_engines(&h, 0xADA2, "all_singletons");
    let out = sbl_mis(&h, &mut ChaCha8Rng::seed_from_u64(1));
    assert!(out.independent_set.is_empty());

    // Duplicate edges in the input: the builder deduplicates them, and edges
    // that *become* duplicates after trimming must both survive.
    let mut b = hypergraph::HypergraphBuilder::new(8);
    for _ in 0..3 {
        b.add_edge([0u32, 1, 2]);
        b.add_edge([2u32, 3]);
    }
    b.add_edge([0u32, 1, 7]);
    b.add_edge([4u32, 5, 6]);
    let h = b.build();
    assert_eq!(h.n_edges(), 4, "builder must deduplicate exact duplicates");
    check_all_algorithms_on_both_engines(&h, 0xADA3, "duplicate_edges");

    // Empty and edgeless instances.
    let h = hypergraph::builder::hypergraph_from_edges::<Vec<u32>>(0, vec![]);
    check_all_algorithms_on_both_engines(&h, 0xADA4, "empty");
    let h = hypergraph::builder::hypergraph_from_edges::<Vec<u32>>(13, vec![]);
    check_all_algorithms_on_both_engines(&h, 0xADA5, "edgeless");
    let all: Vec<u32> = (0..13).collect();
    assert!(verify_mis(&h, &all).is_ok());
}

/// Degenerate shapes every algorithm must survive: no vertices is not a valid
/// hypergraph per the builder, but no edges, singleton edges (which force
/// vertices out of every MIS) and fully-covered instances are.
#[test]
fn degenerate_shapes() {
    // Edgeless: the unique MIS is everything.
    let h = hypergraph::builder::hypergraph_from_edges(9, Vec::<Vec<u32>>::new());
    check_all_algorithms(&h, 1, "edgeless");
    let all: Vec<u32> = (0..9).collect();
    assert!(verify_mis(&h, &all).is_ok());

    // A singleton edge forbids its vertex outright.
    let h = hypergraph::builder::hypergraph_from_edges(6, vec![vec![2u32], vec![0, 1]]);
    check_all_algorithms(&h, 2, "singleton_edge");
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let out = sbl_mis(&h, &mut rng);
    assert!(!out.independent_set.contains(&2));
}
