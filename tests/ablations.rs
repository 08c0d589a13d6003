//! Ablation studies over the implementation's design choices: the sampling
//! probability `p`, the dimension cap `d`, the choice of tail algorithm, and
//! the cleanup steps of the active-hypergraph machinery. These are integration
//! tests rather than benches because the claims are structural ("still a valid
//! MIS", "fewer rounds", "same distribution of outcomes"), not about
//! nanoseconds.

use hypergraph_mis::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn workload(n: usize, seed: u64) -> Hypergraph {
    let mut r = rng(seed);
    generate::paper_regime(&mut r, n, n / 8, 14)
}

/// Ablation 1 — sampling probability. The analysis sets `p = n^{-α}`; the round
/// count behaves like `2 log n / p`, so a larger `p` must not *increase* the
/// number of sampling rounds (and the result stays a valid MIS either way).
#[test]
fn ablation_sampling_probability() {
    let h = workload(1_500, 1);
    let mut rounds = Vec::new();
    for (i, p) in [0.05f64, 0.15, 0.4].into_iter().enumerate() {
        let cfg = SblConfig {
            p: Some(p),
            dimension_cap: Some(4),
            tail_threshold: Some(30),
            ..SblConfig::default()
        };
        let mut r = rng(100 + i as u64);
        let out = sbl_mis_with(&h, &mut r, &cfg);
        assert_eq!(verify_mis(&h, &out.independent_set), Ok(()), "p = {p}");
        rounds.push(out.trace.n_rounds());
    }
    // Allow generous slack for randomness, but the trend must be there: the
    // aggressive sampler cannot need more rounds than the conservative one.
    assert!(
        rounds[2] <= rounds[0],
        "p=0.4 used {} rounds, p=0.05 used {}",
        rounds[2],
        rounds[0]
    );
}

/// Ablation 2 — dimension cap. A higher cap means fewer dimension-check
/// failures (event B) and never invalidates the output; a cap of 1 is the most
/// hostile setting and must still work because the retry-exhaustion escape
/// hatch raises it.
#[test]
fn ablation_dimension_cap() {
    let h = workload(1_000, 2);
    for cap in [1usize, 3, 6, 12] {
        let cfg = SblConfig {
            dimension_cap: Some(cap),
            max_round_retries: 4,
            ..SblConfig::default()
        };
        let mut r = rng(200 + cap as u64);
        let out = sbl_mis_with(&h, &mut r, &cfg);
        assert_eq!(
            verify_mis(&h, &out.independent_set),
            Ok(()),
            "dimension cap {cap}"
        );
    }
}

/// Ablation 3 — tail algorithm. Greedy tail and KUW tail must both produce
/// valid (generally different) MISs, and the choice must not affect the rounds
/// taken by the sampling phase when the randomness is shared.
#[test]
fn ablation_tail_choice() {
    let h = workload(1_200, 3);
    let mk = |tail| {
        let cfg = SblConfig {
            tail,
            ..SblConfig::default()
        };
        let mut r = rng(300);
        sbl_mis_with(&h, &mut r, &cfg)
    };
    let greedy_tail = mk(TailChoice::Greedy);
    let kuw_tail = mk(TailChoice::Kuw);
    assert_eq!(verify_mis(&h, &greedy_tail.independent_set), Ok(()));
    assert_eq!(verify_mis(&h, &kuw_tail.independent_set), Ok(()));
    // The sampling phase consumed the same random stream in both runs, so the
    // outer round structure is identical; only the tail differs.
    assert_eq!(greedy_tail.trace.n_rounds(), kuw_tail.trace.n_rounds());
    assert_eq!(
        greedy_tail.trace.tail_vertices,
        kuw_tail.trace.tail_vertices
    );
}

/// Ablation 4 — BL potential tracking. Turning the per-stage degree profiling
/// on must not change the algorithm's decisions (it only observes), so with a
/// shared seed the independent sets are identical.
#[test]
fn ablation_potential_tracking_is_observation_only() {
    let mut r = rng(4);
    let h = generate::d_uniform(&mut r, 300, 600, 3);
    let run = |track: bool| {
        let cfg = BlConfig {
            track_potentials: track,
            ..BlConfig::default()
        };
        let mut r = rng(400);
        bl_mis(&h, &mut r, &cfg)
    };
    let plain = run(false);
    let tracked = run(true);
    assert_eq!(plain.independent_set, tracked.independent_set);
    assert_eq!(plain.trace.n_stages(), tracked.trace.n_stages());
    assert!(tracked
        .trace
        .stages
        .iter()
        .all(|s| s.m == 0 || !s.deltas_by_dimension.is_empty()));
}

/// Ablation 5 — cleanup steps. Dominated-edge removal is an optimisation, not
/// a correctness requirement: an SBL run on a hypergraph whose dominated edges
/// were *not* pre-removed and one on the reduced hypergraph both verify
/// against the original.
#[test]
fn ablation_dominated_edges_do_not_affect_validity() {
    let mut r = rng(5);
    // Build a hypergraph with deliberate domination: every 3-edge also appears
    // extended by one extra vertex.
    let base = generate::d_uniform(&mut r, 200, 250, 3);
    let mut b = HypergraphBuilder::new(201);
    for e in base.edges() {
        b.add_edge(e.iter().copied());
        let mut bigger = e.to_vec();
        bigger.push(200);
        b.add_edge(bigger);
    }
    let h = b.build();

    let mut active = ActiveHypergraph::from_hypergraph(&h);
    let removed = active.remove_dominated_edges();
    assert!(removed > 0, "the construction must produce dominated edges");

    let out_full = sbl_mis(&h, &mut rng(500));
    assert_eq!(verify_mis(&h, &out_full.independent_set), Ok(()));

    let (reduced, mapping) = active.compact();
    let out_reduced = sbl_mis(&reduced, &mut rng(501));
    let mapped: Vec<u32> = out_reduced
        .independent_set
        .iter()
        .map(|&v| mapping[v as usize])
        .collect();
    assert_eq!(verify_mis(&h, &mapped), Ok(()));
}

/// Ablation 6 — MIS size across algorithms. Maximal ≠ maximum: different
/// algorithms may return different sizes, but none may return an empty set on
/// a hypergraph without singleton edges, and all sizes must be within the
/// trivial bounds `[1, n]`.
#[test]
fn ablation_mis_sizes_are_sane_across_algorithms() {
    let h = workload(800, 6);
    let mut r = rng(600);
    let sizes = [
        sbl_mis(&h, &mut r).independent_set.len(),
        kuw_mis(&h, &mut r).independent_set.len(),
        greedy_mis(&h, None).independent_set.len(),
        permutation_rounds_mis(&h, &mut r).independent_set.len(),
    ];
    for &s in &sizes {
        assert!(s >= 1 && s <= h.n_vertices());
    }
    // On these sparse instances every MIS keeps the vast majority of vertices;
    // a collapse to a tiny set would indicate an update-rule bug even if the
    // verifier (which only checks maximality) were satisfied.
    let min = *sizes.iter().min().unwrap();
    assert!(
        min * 2 > h.n_vertices(),
        "suspiciously small MIS: {min} of {}",
        h.n_vertices()
    );
}
