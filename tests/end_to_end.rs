//! Cross-crate integration tests: every algorithm, on every workload family,
//! must return a verified maximal independent set, and the instrumentation
//! must be consistent with what the algorithms claim to have done.

use hypergraph_mis::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Every algorithm on every workload family: the output must verify.
#[test]
fn all_algorithms_produce_valid_mis_on_all_families() {
    let mut r = rng(1);
    let workloads: Vec<(&str, Hypergraph)> = vec![
        ("2-uniform", generate::d_uniform(&mut r, 120, 260, 2)),
        ("3-uniform", generate::d_uniform(&mut r, 120, 300, 3)),
        (
            "mixed 2..6",
            generate::mixed_dimension(&mut r, 150, 280, &[2, 3, 4, 5, 6]),
        ),
        ("paper regime", generate::paper_regime(&mut r, 400, 60, 12)),
        ("linear", generate::linear(&mut r, 150, 90, 3)),
        (
            "planted",
            generate::planted_independent(&mut r, 150, 250, 4, 60),
        ),
        ("complete graph", generate::special::complete_graph(40)),
        ("star", generate::special::star(60)),
        ("sunflower", generate::special::sunflower(8, 4, 2)),
    ];

    for (name, h) in &workloads {
        let out = sbl_mis(h, &mut r);
        assert_eq!(verify_mis(h, &out.independent_set), Ok(()), "SBL on {name}");

        let out = kuw_mis(h, &mut r);
        assert_eq!(verify_mis(h, &out.independent_set), Ok(()), "KUW on {name}");

        let out = greedy_mis(h, None);
        assert_eq!(
            verify_mis(h, &out.independent_set),
            Ok(()),
            "greedy on {name}"
        );

        let out = permutation_rounds_mis(h, &mut r);
        assert_eq!(
            verify_mis(h, &out.independent_set),
            Ok(()),
            "permutation on {name}"
        );

        if h.dimension() <= 6 {
            let out = bl_mis(h, &mut r, &BlConfig::default());
            assert_eq!(verify_mis(h, &out.independent_set), Ok(()), "BL on {name}");
        }
        if check_linear(h).is_ok() {
            let out = linear_mis(h, &mut r).unwrap();
            assert_eq!(
                verify_mis(h, &out.independent_set),
                Ok(()),
                "linear-LS on {name}"
            );
        }
    }
}

/// SBL's coloring must be complete and consistent with the returned set, and
/// the trace must account for every vertex exactly once: each round decides
/// its sample (blue or red, BL's cleanups counted red) and the tail decides
/// the rest. BL's stages add up to its set.
#[test]
fn sbl_trace_accounts_for_every_vertex() {
    let mut r = rng(2);
    let families = [
        generate::paper_regime(&mut r, 900, 120, 14),
        generate::paper_regime(&mut r, 600, 200, 24),
        generate::d_uniform(&mut r, 500, 900, 9),
        generate::mixed_dimension(&mut r, 500, 700, &[2, 6, 10, 16]),
    ];
    let mut sampled_runs = 0;
    for (i, h) in families.iter().enumerate() {
        for tail_threshold in [None, Some(4)] {
            let ctx = format!("instance {i}, tail threshold {tail_threshold:?}");
            let config = SblConfig {
                tail_threshold,
                ..SblConfig::default()
            };
            let out = sbl_mis_with(h, &mut r, &config);
            assert_eq!(verify_mis(h, &out.independent_set), Ok(()), "{ctx}");
            assert!(out.coloring().is_complete(), "{ctx}");
            assert_eq!(out.coloring().blues(), out.independent_set, "{ctx}");
            assert_eq!(
                out.coloring().blues().len() + out.coloring().reds().len(),
                h.n_vertices(),
                "{ctx}"
            );
            if out.trace.direct_bl {
                continue;
            }
            sampled_runs += 1;
            let decided: usize = out
                .trace
                .rounds
                .iter()
                .map(|round| round.added + round.rejected)
                .sum();
            let sampled: usize = out.trace.rounds.iter().map(|round| round.sampled).sum();
            assert_eq!(decided, sampled, "{ctx}");
            assert_eq!(sampled + out.trace.tail_vertices, h.n_vertices(), "{ctx}");
        }
    }
    assert_eq!(sampled_runs, 2 * families.len(), "every run samples");

    let bl_families = [
        generate::d_uniform(&mut r, 300, 600, 3),
        generate::mixed_dimension(&mut r, 300, 400, &[1, 2, 3, 4]),
    ];
    for (i, h) in bl_families.iter().enumerate() {
        let out = bl_mis(h, &mut r, &BlConfig::default());
        assert_eq!(
            out.trace.total_added(),
            out.independent_set.len(),
            "BL instance {i}"
        );
    }
}

/// The PRAM cost model must show the parallel algorithms to be *shallow*:
/// depth far below work (that is the entire point of a parallel algorithm),
/// while greedy is sequential (depth = work).
#[test]
fn cost_model_shapes_match_algorithm_structure() {
    let mut r = rng(3);
    let h = generate::d_uniform(&mut r, 600, 1200, 3);

    let bl = bl_mis(&h, &mut r, &BlConfig::default());
    let bl_cost = bl.cost.cost();
    assert!(bl_cost.depth > 0 && bl_cost.work > 0);
    assert!(
        (bl_cost.depth as f64) < 0.25 * bl_cost.work as f64,
        "BL depth {} not ≪ work {}",
        bl_cost.depth,
        bl_cost.work
    );

    let g = greedy_mis(&h, None);
    let g_cost = g.cost.cost();
    assert_eq!(g_cost.depth, g_cost.work, "greedy is sequential");

    let sbl = sbl_mis(&h, &mut r);
    let sbl_cost = sbl.cost.cost();
    assert!((sbl_cost.depth as f64) < 0.25 * sbl_cost.work as f64);
}

/// Deterministic reproducibility across the whole pipeline: same seed, same
/// workload, same result — regardless of which crate the pieces come from.
#[test]
fn full_pipeline_is_reproducible() {
    let build = || {
        let mut r = rng(77);
        let h = generate::paper_regime(&mut r, 500, 80, 10);
        let out = sbl_mis(&h, &mut r);
        (h, out.independent_set, out.trace.n_rounds())
    };
    let (h1, set1, rounds1) = build();
    let (h2, set2, rounds2) = build();
    assert_eq!(h1, h2);
    assert_eq!(set1, set2);
    assert_eq!(rounds1, rounds2);
}

/// Round-trip through the text format preserves algorithm behaviour.
#[test]
fn io_round_trip_preserves_results() {
    let mut r = rng(4);
    let h = generate::mixed_dimension(&mut r, 100, 200, &[2, 3, 4]);
    let text = hypergraph::io::to_string(&h);
    let back = hypergraph::io::from_str(&text).unwrap();
    assert_eq!(h, back);
    let a = sbl_mis(&h, &mut rng(9)).independent_set;
    let b = sbl_mis(&back, &mut rng(9)).independent_set;
    assert_eq!(a, b);
}

/// The planted independent set must be extendable to the MIS any algorithm
/// finds: i.e. algorithms never "lose" the planted certificate's independence.
#[test]
fn planted_certificates_remain_consistent() {
    let mut r = rng(5);
    let planted = 50;
    let h = generate::planted_independent(&mut r, 200, 400, 4, planted);
    let cert: Vec<u32> = (0..planted as u32).collect();
    assert!(h.is_independent(&cert));
    // Any MIS must block every planted vertex it excludes.
    let out = sbl_mis(&h, &mut r);
    assert_eq!(verify_mis(&h, &out.independent_set), Ok(()));
}

/// SBL respects the paper's parameter shapes: the dimension cap passed to BL
/// stays within the practical formula's value and the sampled sub-hypergraphs
/// recorded in the trace respect it (modulo the documented retry-exhaustion
/// escape hatch).
#[test]
fn sbl_parameters_match_formulas() {
    let n = 3_000usize;
    let params = hypergraph::params::SblParams::practical_default(n);
    let mut r = rng(6);
    let h = generate::paper_regime(&mut r, n, 200, 16);
    let out = sbl_mis(&h, &mut r);
    assert_eq!(out.params.dimension_cap, params.d_cap().min(20));
    assert!((out.params.p - params.p).abs() < 1e-12);
    assert_eq!(verify_mis(&h, &out.independent_set), Ok(()));
}
