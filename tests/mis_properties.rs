//! Property-based tests over random hypergraphs: the central invariants of
//! the paper — every algorithm returns a maximal independent set, SBL's
//! coloring is a certificate, and the analysis quantities relate to each other
//! the way the lemmas say — hold for arbitrary inputs, not just the seeded
//! workloads of the unit tests.

use hypergraph_mis::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy: an arbitrary hypergraph on `n ≤ 40` vertices with up to 60 edges
/// of size 1..=6, plus an RNG seed.
fn instance() -> impl Strategy<Value = (Hypergraph, u64)> {
    (2usize..40, 0usize..60, any::<u64>()).prop_flat_map(|(n, m, seed)| {
        prop::collection::vec(
            prop::collection::btree_set(0u32..(n as u32), 1..=6usize.min(n)),
            0..=m,
        )
        .prop_map(move |edges| {
            let edges: Vec<Vec<u32>> = edges.into_iter().map(|s| s.into_iter().collect()).collect();
            (hypergraph::builder::hypergraph_from_edges(n, edges), seed)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// SBL always returns a verified MIS with a complete coloring.
    #[test]
    fn sbl_always_returns_verified_mis((h, seed) in instance()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = sbl_mis(&h, &mut rng);
        prop_assert_eq!(verify_mis(&h, &out.independent_set), Ok(()));
        prop_assert!(out.coloring.is_complete());
        prop_assert_eq!(out.coloring.blues(), out.independent_set);
    }

    /// Beame–Luby always returns a verified MIS (dimension is ≤ 6 by
    /// construction of the strategy).
    #[test]
    fn bl_always_returns_verified_mis((h, seed) in instance()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = bl_mis(&h, &mut rng, &BlConfig::default());
        prop_assert_eq!(verify_mis(&h, &out.independent_set), Ok(()));
    }

    /// KUW always returns a verified MIS.
    #[test]
    fn kuw_always_returns_verified_mis((h, seed) in instance()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = kuw_mis(&h, &mut rng);
        prop_assert_eq!(verify_mis(&h, &out.independent_set), Ok(()));
    }

    /// Greedy and permutation greedy always return verified MISs, and greedy
    /// over the identity order equals permutation greedy over the identity
    /// permutation (differential check of the two implementations).
    #[test]
    fn greedy_variants_agree((h, seed) in instance()) {
        let out = greedy_mis(&h, None);
        prop_assert_eq!(verify_mis(&h, &out.independent_set), Ok(()));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let perm = permutation_mis(&h, &mut rng);
        prop_assert_eq!(verify_mis(&h, &perm.independent_set), Ok(()));
        let order: Vec<u32> = (0..h.n_vertices() as u32).collect();
        let ordered = greedy_mis(&h, Some(&order));
        prop_assert_eq!(ordered.independent_set, out.independent_set);
    }

    /// Every MIS is also an MIS after dominated-edge removal and vice versa:
    /// the cleanup steps of the algorithms never change the problem.
    #[test]
    fn dominated_edge_removal_preserves_mis_property((h, seed) in instance()) {
        let mut active = ActiveHypergraph::from_hypergraph(&h);
        active.remove_dominated_edges();
        let (reduced, mapping) = active.compact();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = sbl_mis(&reduced, &mut rng);
        // Map back to original ids and verify against the original hypergraph.
        let mapped: Vec<u32> = out
            .independent_set
            .iter()
            .map(|&v| mapping[v as usize])
            .collect();
        prop_assert_eq!(verify_mis(&h, &mapped), Ok(()));
    }

    /// The Kim–Vu migration bound never exceeds Kelsen's, for degree profiles
    /// read off real hypergraphs (Section 4's claim, checked on data rather
    /// than synthetic Δ values).
    #[test]
    fn kimvu_bound_dominated_by_kelsen((h, _seed) in instance()) {
        let n = h.n_vertices().max(4);
        if h.n_edges() == 0 { return Ok(()); }
        let table = hypergraph::degree::DegreeTable::build(&h);
        let dim = h.dimension();
        let deltas: Vec<f64> = (0..=dim).map(|i| table.delta_i(i)).collect();
        for j in 2..dim {
            let kel = concentration::kimvu::kelsen_migration_bound(n, j, &deltas);
            let kv = concentration::kimvu::kim_vu_migration_bound(n, j, &deltas);
            prop_assert!(kv <= kel + 1e-9,
                "Kim-Vu bound {} exceeds Kelsen bound {} at j={}", kv, kel, j);
        }
    }
}

/// A graph for the greedy sweep oracle: family `kind` on `n` vertices.
fn sweep_graph(kind: u8, n: usize, seed: u64) -> Hypergraph {
    let r = &mut ChaCha8Rng::seed_from_u64(seed);
    match kind {
        0 => generate::d_uniform(r, n, 2 * n, 3),
        1 => generate::paper_regime(r, n, n / 4, 8),
        2 => generate::linear(r, n, n / 3, 3),
        _ => generate::mixed_dimension(r, n, n, &[1, 2, 3, 5]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Greedy over an engine rebuilds its incidence by rank in the alive
    /// list; it must still equal `greedy_mis` scanning the same order, in
    /// set, work, depth and rounds: on the full engine (ascending, and a
    /// permutation's order) and on induced sub-engines against their
    /// compacted instance with the order mapped to compact ids. One
    /// workspace serves every call, so stale rank entries are in play.
    #[test]
    fn greedy_sweep_matches_greedy_mis(
        kind in 0u8..4,
        small in 8usize..64,
        large in 1024usize..4096,
        pick_large in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = if pick_large { large } else { small };
        let h = sweep_graph(kind, n, seed);
        let totals = |set: &[u32], cost: &CostTracker| {
            (set.to_vec(), cost.cost().work, cost.cost().depth, cost.rounds())
        };
        let mut ws = Workspace::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EE9);
        let full = ActiveHypergraph::from_hypergraph(&h);

        let mut cost = CostTracker::new();
        let set = greedy_on_active_in(&full, &mut cost, &mut ws);
        let want = greedy_mis(&h, None);
        prop_assert_eq!(totals(&set, &cost), totals(&want.independent_set, &want.cost));
        let mut cost = CostTracker::new();
        let (set, order) = permutation_on_active_in(&full, &mut rng, &mut cost, &mut ws);
        let want = greedy_mis(&h, Some(&order));
        prop_assert_eq!(totals(&set, &cost), totals(&want.independent_set, &want.cost));

        let mut sub = ActiveHypergraph::from_parts(Vec::new(), Vec::new());
        let mut marked = vec![false; n];
        for _ in 0..4 {
            let k = rand::Rng::gen_range(&mut rng, 1..=n);
            let query = generate::random_subset(&mut rng, n, k);
            for &v in &query {
                marked[v as usize] = true;
            }
            full.induced_by_into(&marked, &query, &mut sub);
            for &v in &query {
                marked[v as usize] = false;
            }
            let (hc, map) = sub.compact();
            let to_old = |set: &[u32]| set.iter().map(|&v| map[v as usize]).collect::<Vec<u32>>();

            let mut cost = CostTracker::new();
            let set = greedy_on_active_in(&sub, &mut cost, &mut ws);
            let want = greedy_mis(&hc, None);
            prop_assert_eq!(totals(&set, &cost), totals(&to_old(&want.independent_set), &want.cost));
            let mut cost = CostTracker::new();
            let (set, order) = permutation_on_active_in(&sub, &mut rng, &mut cost, &mut ws);
            let compact_order: Vec<u32> =
                order.iter().map(|v| map.binary_search(v).unwrap() as u32).collect();
            let want = greedy_mis(&hc, Some(&compact_order));
            prop_assert_eq!(totals(&set, &cost), totals(&to_old(&want.independent_set), &want.cost));
        }
    }
}

/// Flat-vs-reference engine agreement, compiled only with the
/// `reference-engine` feature (on by default; the flat-engine-only
/// production configuration skips it).
#[cfg(feature = "reference-engine")]
mod engine_agreement {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The flat engine and the reference engine make the *same decisions*:
        /// every algorithm's engine body, driven by the same seed, returns the
        /// identical independent set, trace and cost totals on both engines.
        #[test]
        fn engines_agree_on_every_algorithm((h, seed) in instance()) {
            use hypergraph::{ActiveHypergraph, ReferenceActiveHypergraph};

            let flat = run_bodies::<ActiveHypergraph>(&h, seed);
            prop_assert_eq!(&flat, &run_bodies::<ReferenceActiveHypergraph>(&h, seed));
            for (algorithm, set, ..) in &flat {
                prop_assert!(verify_mis(&h, set).is_ok(), "{} returned no MIS", algorithm);
            }
        }
    }

    /// One run of every algorithm's `*_on_active_in` body, each on a fresh
    /// engine of type `E` built from `h` and all through one workspace:
    /// `(algorithm, set, work, depth, rounds, trace)` per algorithm. Linear
    /// runs only where it applies; BL sees dimension ≤ 6 by construction of
    /// the strategy.
    type BodyRun = (&'static str, Vec<u32>, u64, u64, u64, String);

    fn run_bodies<E: hypergraph::ActiveEngine + Send + 'static>(
        h: &Hypergraph,
        seed: u64,
    ) -> Vec<BodyRun> {
        let mut ws = Workspace::new();
        let mut runs = Vec::new();
        let rng = |salt: u64| ChaCha8Rng::seed_from_u64(seed ^ salt);
        let mut record = |algorithm, set, cost: CostTracker, trace: String| {
            runs.push((
                algorithm,
                set,
                cost.cost().work,
                cost.cost().depth,
                cost.rounds(),
                trace,
            ));
        };

        let (mut e, mut cost) = (E::from_hypergraph(h), CostTracker::new());
        let (set, trace, _) = sbl_on_active_in(
            &mut e,
            &mut rng(0),
            &SblConfig::default(),
            &mut cost,
            &mut ws,
        );
        record("sbl", set, cost, format!("{trace:?}"));

        let (mut e, mut cost) = (E::from_hypergraph(h), CostTracker::new());
        let (set, trace) = bl_on_active_in(
            &mut e,
            &mut rng(0xB1),
            &BlConfig::default(),
            &mut cost,
            &mut ws,
        );
        record("bl", set, cost, format!("{trace:?}"));

        let (mut e, mut cost) = (E::from_hypergraph(h), CostTracker::new());
        let (set, trace) = kuw_on_active_in(&mut e, &mut rng(0xD2), &mut cost, &mut ws);
        record("kuw", set, cost, format!("{trace:?}"));

        if check_linear(h).is_ok() {
            let (mut e, mut cost) = (E::from_hypergraph(h), CostTracker::new());
            let (set, trace) =
                linear_on_active_in(&mut e, &mut rng(0x11), &mut cost, &mut ws).unwrap();
            record("linear", set, cost, format!("{trace:?}"));
        }

        let (e, mut cost) = (E::from_hypergraph(h), CostTracker::new());
        let set = greedy_on_active_in(&e, &mut cost, &mut ws);
        record("greedy", set, cost, String::new());

        let (e, mut cost) = (E::from_hypergraph(h), CostTracker::new());
        let (set, permutation) = permutation_on_active_in(&e, &mut rng(0x9E), &mut cost, &mut ws);
        record("permutation", set, cost, format!("{permutation:?}"));
        runs
    }
}
