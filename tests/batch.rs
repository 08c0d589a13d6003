//! Pinned-seed determinism of the zero-reallocation batch pipeline.
//!
//! The contract under test: workspace reuse is *invisible*. For the same
//! `(hypergraph, seed, config)`, a [`BatchRunner`] solve — whether the
//! runner is brand new or warmed by an arbitrary stream of earlier solves,
//! and at any rayon thread count — returns outcomes bit-identical to the
//! cold entry points (the plain `x_mis` functions, each on a fresh
//! `Workspace`).
//!
//! The SBL streams run `sampling()`, a config whose tail threshold lets the
//! instances above BL's dimension cap reach the sampling loop, so the
//! parked sample engine and its per-round in-place induce are what the
//! cold-versus-warm checks compare.

use hypergraph_mis::batch::BatchRunner;
use hypergraph_mis::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn stream(n: usize, count: usize) -> Vec<Hypergraph> {
    (0..count)
        .map(|i| {
            let mut r = rng(0xBA7C + i as u64);
            match i % 3 {
                0 => generate::paper_regime(&mut r, n, n / 8, 10),
                1 => generate::mixed_dimension(&mut r, n, n, &[2, 3, 4, 5]),
                _ => generate::d_uniform(&mut r, n, 2 * n, 3),
            }
        })
        .collect()
}

/// SBL's default config with a tail threshold of 4 instead of `1/p²` (400
/// at `p = 0.05`): every instance here has at most 300 vertices, so under
/// the default each would go to the tail (or straight to BL) without a
/// single sampling round.
fn sampling() -> SblConfig {
    SblConfig {
        tail_threshold: Some(4),
        ..SblConfig::default()
    }
}

/// Whether the run went through SBL's sampling loop: a direct BL call also
/// records one round, so the round count alone does not tell.
fn sampled(out: &SblOutcome) -> bool {
    !out.trace.direct_bl && out.trace.n_rounds() > 0
}

type SblFingerprint = (Vec<u32>, Vec<u32>, Vec<u32>, String, u64, u64, u64);

fn sbl_fingerprint(out: &SblOutcome) -> SblFingerprint {
    (
        out.independent_set.clone(),
        out.coloring.blues(),
        out.coloring.reds(),
        format!("{:?}", out.trace),
        out.cost.cost().work,
        out.cost.cost().depth,
        out.cost.rounds(),
    )
}

/// Same seeds ⇒ identical sets, colorings, traces and cost totals, whether
/// each instance is solved cold or amortized on a shared runner. The
/// paper-regime and mixed-dimension instances sample (their first round
/// induces into an empty sample engine when cold, into the parked one when
/// warm); the 3-uniform ones go straight to BL.
#[test]
fn amortized_and_cold_agree_instance_for_instance() {
    let hs = stream(160, 9);
    let cfg = sampling();
    let mut runner = BatchRunner::new();
    for (i, h) in hs.iter().enumerate() {
        let seed = 0x5EED + i as u64;
        let amortized = runner.sbl(h, &mut rng(seed), &cfg);
        let cold = sbl_mis_with(h, &mut rng(seed), &cfg);
        assert_eq!(sampled(&cold), i % 3 != 2, "instance {i}: sampling");
        assert_eq!(
            sbl_fingerprint(&amortized),
            sbl_fingerprint(&cold),
            "instance {i}: amortized vs cold"
        );
        assert_eq!(verify_mis(h, &amortized.independent_set), Ok(()));
    }
}

/// A warmed runner keeps agreeing at every thread count (workspace reuse
/// must not introduce any scheduling-dependent state).
#[test]
fn batch_outcomes_are_thread_count_invariant() {
    let hs = stream(120, 4);
    let cfg = sampling();
    let baseline: Vec<SblFingerprint> = {
        let mut runner = BatchRunner::new();
        hs.iter()
            .enumerate()
            .map(|(i, h)| sbl_fingerprint(&runner.sbl(h, &mut rng(i as u64), &cfg)))
            .collect()
    };
    for threads in [1usize, 2, 4] {
        let hs = hs.clone();
        let cfg = cfg.clone();
        let got: Vec<SblFingerprint> = with_threads(threads, move || {
            let mut runner = BatchRunner::new();
            hs.iter()
                .enumerate()
                .map(|(i, h)| sbl_fingerprint(&runner.sbl(h, &mut rng(i as u64), &cfg)))
                .collect()
        });
        assert_eq!(got, baseline, "threads={threads}");
    }
}

/// Every algorithm the runner exposes matches its cold counterpart on a
/// warmed workspace — including interleaved usage, so pooled buffers are
/// provably clean across algorithms, and the one instance engine that SBL,
/// BL, KUW and linear share is reset from each other's leftovers.
#[test]
fn all_runner_algorithms_match_cold_entry_points() {
    let hs = stream(100, 6);
    let cfg = sampling();
    let mut runner = BatchRunner::new();
    for (i, h) in hs.iter().enumerate() {
        let seed = 0xA150 + i as u64;
        let a = runner.sbl(h, &mut rng(seed ^ 4), &cfg);
        let c = sbl_mis_with(h, &mut rng(seed ^ 4), &cfg);
        assert_eq!(sampled(&c), i % 3 != 2, "sbl sampling {i}");
        assert_eq!(sbl_fingerprint(&a), sbl_fingerprint(&c), "sbl {i}");

        let a = runner.bl(h, &mut rng(seed), &BlConfig::default());
        let c = bl_mis(h, &mut rng(seed), &BlConfig::default());
        assert_eq!(a.independent_set, c.independent_set, "bl {i}");
        assert_eq!(a.trace, c.trace, "bl trace {i}");

        let a = runner.kuw(h, &mut rng(seed ^ 1));
        let c = kuw_mis(h, &mut rng(seed ^ 1));
        assert_eq!(a.independent_set, c.independent_set, "kuw {i}");

        let a = runner.greedy(h, None);
        let c = greedy_mis(h, None);
        assert_eq!(a.independent_set, c.independent_set, "greedy {i}");
        assert_eq!(a.cost.cost().work, c.cost.cost().work, "greedy work {i}");

        let a = runner.permutation(h, &mut rng(seed ^ 2));
        let c = permutation_mis(h, &mut rng(seed ^ 2));
        assert_eq!(a.independent_set, c.independent_set, "permutation {i}");
        assert_eq!(a.permutation, c.permutation, "permutation order {i}");

        if check_linear(h).is_ok() {
            let a = runner.linear(h, &mut rng(seed ^ 3)).unwrap();
            let c = linear_mis(h, &mut rng(seed ^ 3)).unwrap();
            assert_eq!(a.independent_set, c.independent_set, "linear {i}");
        }
    }
}

/// The zero-reallocation property itself: once a runner has solved a set
/// of seeds, solving the same seeds again performs no fresh pool
/// allocations at all — the same-seed re-solve the batch guard's
/// `warm_fresh_allocations` counts. New seeds are not covered: a sampling
/// run's list buffers grow to the largest sample, round or tail it has met,
/// and a seed not solved before can set a new high-water mark.
#[test]
fn warm_runner_stops_allocating() {
    let h = {
        let mut r = rng(77);
        generate::paper_regime(&mut r, 300, 60, 10)
    };
    let cfg = sampling();
    let seeds = 0..10u64;
    let mut runner = BatchRunner::new();
    for seed in seeds.clone() {
        let out = runner.sbl(&h, &mut rng(seed), &cfg);
        assert!(sampled(&out), "seed {seed} must sample");
        assert_eq!(verify_mis(&h, &out.independent_set), Ok(()));
    }
    let warm = runner.workspace().fresh_allocations();
    assert!(warm > 0, "the first pass must have populated the pools");
    for seed in seeds {
        let out = runner.sbl(&h, &mut rng(seed), &cfg);
        assert_eq!(verify_mis(&h, &out.independent_set), Ok(()));
    }
    assert_eq!(
        runner.workspace().fresh_allocations(),
        warm,
        "a second pass over the same seeds must run allocation-free"
    );
}

/// Streams of *different-shaped* instances still deterministically match
/// cold solves (pools grow to the largest shape and stay correct).
#[test]
fn mixed_size_streams_stay_correct() {
    let sizes = [40usize, 300, 12, 150, 80];
    let cfg = sampling();
    let mut runner = BatchRunner::new();
    for (i, &n) in sizes.iter().enumerate() {
        let mut r = rng(0x517E + i as u64);
        let h = generate::paper_regime(&mut r, n, (n / 4).max(2), 8);
        let seed = 0xD00D + i as u64;
        let a = runner.sbl(&h, &mut rng(seed), &cfg);
        let c = sbl_mis_with(&h, &mut rng(seed), &cfg);
        assert_eq!(sbl_fingerprint(&a), sbl_fingerprint(&c), "size {n}");
    }
}
