//! Independent Bernoulli marking by skip sampling.
//!
//! SBL's sampling step (Algorithm 1, line 5), BL's marking step and the
//! Łuczak–Szymańska marking all ask for the same thing: select each of `n`
//! positions independently with probability `p`. Flipping one coin per
//! position costs one keystream word per position; drawing the *gap* to the
//! next selected position costs one word per selection. The gaps of a
//! Bernoulli(p) sequence are independent Geometric(p) variables, and
//! `⌊ln U / ln(1 − p)⌋` with `U` uniform on `(0, 1]` is one (Devroye,
//! *Non-Uniform Random Variate Generation*, 1986), so the walk below selects
//! exactly the set a coin per position would, in law.

use rand::Rng;

/// Calls `hit(i)`, ascending, for each index `i` in `0..n` that an
/// independent Bernoulli(`p`) trial selects.
///
/// Draws one `next_u64` per hit, plus one that ends the walk unless the last
/// hit is `n − 1`. Each word `x` becomes `U = (⌊x / 2¹¹⌋ + 1) · 2⁻⁵³ ∈ (0, 1]`
/// and the gap to the next hit is `⌊ln U / ln(1 − p)⌋`. `p ≤ 0` selects
/// nothing and `p ≥ 1` every index; neither, nor `n = 0`, draws a word.
///
/// # Panics
/// Panics if `p` is NaN, with the message of `Rng::gen_bool`.
pub(crate) fn for_each_hit<R: Rng + ?Sized>(
    rng: &mut R,
    p: f64,
    n: usize,
    mut hit: impl FnMut(usize),
) {
    assert!(!p.is_nan(), "p={p} is not a probability");
    if n == 0 || p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        (0..n).for_each(hit);
        return;
    }
    let ln_q = (-p).ln_1p();
    let mut i = 0usize;
    loop {
        let u = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
        // The quotient is non-negative, so `as` takes its floor; it saturates
        // a huge or infinite one (tiny or subnormal p), and the check keeps
        // `i + gap` below `n`, so it never wraps.
        let gap = (u.ln() / ln_q) as usize;
        if gap >= n - i {
            return;
        }
        i += gap;
        hit(i);
        i += 1;
        if i == n {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A ChaCha8 stream that counts the `next_u64` words drawn from it.
    struct Counting {
        inner: ChaCha8Rng,
        words: usize,
    }

    impl Counting {
        fn new(seed: u64) -> Self {
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

    /// Returns the same word forever.
    struct Constant(u64);

    impl RngCore for Constant {
        fn next_u32(&mut self) -> u32 {
            unreachable!("the sampler draws whole u64 words")
        }

        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    fn hits_of<R: RngCore>(rng: &mut R, p: f64, n: usize) -> Vec<usize> {
        let mut hits = Vec::new();
        for_each_hit(rng, p, n, |i| hits.push(i));
        hits
    }

    /// The tabled 0.999 quantile of χ² for the degrees of freedom the checks
    /// below meet.
    fn chi2_999(df: usize) -> f64 {
        match df {
            5 => 20.515,
            19 => 43.820,
            32 => 62.487,
            _ => panic!("no tabled χ² quantile for {df} degrees of freedom"),
        }
    }

    /// `(n, runs)` per probability: every run is long against the mean gap
    /// `1/p`, so at most one gap in hundreds is cut off at `n`.
    const LAWS: [(f64, usize, usize); 3] = [
        (0.5, 1 << 16, 32),
        (0.05, 1 << 18, 64),
        (1e-4, 1 << 22, 256),
    ];

    /// Hit counts in 32 equal position bins, against `p × bin × runs`. Each
    /// count is Binomial(bin × runs, p) and the bins are independent, so
    /// `Σ (O − E)² / (E (1 − p))` is χ² with 32 degrees of freedom.
    #[test]
    fn hits_fall_evenly_on_every_position() {
        const BINS: usize = 32;
        for (k, &(p, n, runs)) in LAWS.iter().enumerate() {
            let bin = n / BINS;
            let mut counts = [0u64; BINS];
            let mut rng = ChaCha8Rng::seed_from_u64(0x6A7E + k as u64);
            for _ in 0..runs {
                for_each_hit(&mut rng, p, n, |i| counts[i / bin] += 1);
            }
            let expected = p * (bin * runs) as f64;
            let chi2: f64 = counts
                .iter()
                .map(|&o| (o as f64 - expected).powi(2) / (expected * (1.0 - p)))
                .sum();
            assert!(
                chi2 < chi2_999(BINS),
                "p={p}: position χ² {chi2:.1} ≥ {:.1} ({counts:?}, expected {expected:.1})",
                chi2_999(BINS)
            );
        }
    }

    /// The gaps (including the one from index 0 to the first hit) against
    /// Geometric(p), `P(G = k) = (1 − p)^k p`, in buckets cut at the
    /// distribution's 1/20 quantiles (merged where the law is too coarse to
    /// separate them): a multinomial χ² with buckets − 1 degrees of freedom.
    #[test]
    fn gaps_are_geometric() {
        const TARGET_BUCKETS: usize = 20;
        for (k, &(p, n, runs)) in LAWS.iter().enumerate() {
            let q = 1.0 - p;
            // Upper ends (inclusive) of every bucket but the open last one:
            // the smallest k with P(G ≤ k) = 1 − q^(k+1) ≥ j / 20.
            let mut ends: Vec<u64> = (1..TARGET_BUCKETS)
                .map(|j| {
                    let tail = 1.0 - j as f64 / TARGET_BUCKETS as f64;
                    ((tail.ln() / q.ln()).ceil() as u64).saturating_sub(1)
                })
                .collect();
            ends.dedup();
            let bucket_of = |g: u64| ends.partition_point(|&end| end < g);
            let mut counts = vec![0u64; ends.len() + 1];
            let mut rng = ChaCha8Rng::seed_from_u64(0x6A90 + k as u64);
            for _ in 0..runs {
                let mut next = 0usize;
                for_each_hit(&mut rng, p, n, |i| {
                    counts[bucket_of((i - next) as u64)] += 1;
                    next = i + 1;
                });
            }
            let total: u64 = counts.iter().sum();
            let mut lo = 0u64;
            let mut chi2 = 0.0;
            for (b, &o) in counts.iter().enumerate() {
                // P(lo ≤ G ≤ end) = q^lo − q^(end+1); the last bucket is open.
                let mass = match ends.get(b) {
                    Some(&end) => q.powf(lo as f64) - q.powf(end as f64 + 1.0),
                    None => q.powf(lo as f64),
                };
                let expected = mass * total as f64;
                chi2 += (o as f64 - expected).powi(2) / expected;
                lo = ends.get(b).map_or(lo, |&end| end + 1);
            }
            let df = counts.len() - 1;
            assert!(
                chi2 < chi2_999(df),
                "p={p}: gap χ² {chi2:.1} ≥ {:.1} over {} buckets ({counts:?})",
                chi2_999(df),
                counts.len()
            );
        }
    }

    #[test]
    fn certain_and_impossible_trials_draw_nothing() {
        let mut rng = Counting::new(1);
        assert_eq!(hits_of(&mut rng, 1.0, 50), (0..50).collect::<Vec<_>>());
        assert_eq!(hits_of(&mut rng, 1.5, 3), vec![0, 1, 2]);
        assert!(hits_of(&mut rng, 0.0, 50).is_empty());
        assert!(hits_of(&mut rng, -0.25, 50).is_empty());
        assert!(hits_of(&mut rng, 0.5, 0).is_empty());
        assert_eq!(rng.words, 0);
    }

    #[test]
    #[should_panic(expected = "is not a probability")]
    fn a_nan_probability_panics() {
        for_each_hit(&mut Counting::new(2), f64::NAN, 10, |_| {});
    }

    /// Hits ascend below `n`, and the walk draws one word per hit plus the
    /// one that overshoots `n`, which it skips when the last hit is `n − 1`.
    #[test]
    fn one_word_per_hit_plus_the_one_that_ends_the_walk() {
        let mut rng = Counting::new(3);
        let mut ended_at_the_last_index = 0;
        for &p in &[0.9, 0.5, 0.05] {
            for n in 1..64 {
                let before = rng.words;
                let hits = hits_of(&mut rng, p, n);
                assert!(hits.windows(2).all(|w| w[0] < w[1]), "p={p} n={n}");
                assert!(hits.iter().all(|&i| i < n), "p={p} n={n}");
                let last_is_final = hits.last() == Some(&(n - 1));
                ended_at_the_last_index += usize::from(last_is_final);
                assert_eq!(
                    rng.words - before,
                    hits.len() + usize::from(!last_is_final),
                    "p={p} n={n}"
                );
            }
        }
        assert!(ended_at_the_last_index > 0, "both endings were exercised");
    }

    /// At p = 10⁻⁹ gaps run to ~3.7·10¹⁰ and stay finite. At p = 2⁻⁶⁰ the
    /// word below makes a gap of ~1.04·10¹⁹, past half of `usize::MAX`:
    /// the first lands inside `0..usize::MAX`, the second must end the walk
    /// without wrapping.
    #[test]
    fn tiny_probabilities_give_finite_gaps_that_never_overflow() {
        let n = 1usize << 40;
        let mut rng = Counting::new(4);
        let hits = hits_of(&mut rng, 1e-9, n);
        assert!(hits.windows(2).all(|w| w[0] < w[1]));
        assert!(hits.iter().all(|&i| i < n));
        // ~1100 expected; a Poisson count that far off would be a bug.
        assert!((900..1300).contains(&hits.len()), "{} hits", hits.len());
        assert_eq!(rng.words, hits.len() + 1);

        let word = ((1u64 << 40) - 1) << 11; // U = 2⁻¹³
        let hits = hits_of(&mut Constant(word), 2f64.powi(-60), usize::MAX);
        assert_eq!(hits.len(), 1);
        assert!(hits[0] > usize::MAX / 2, "{}", hits[0]);
    }
}
