//! The data-parallel loops the flat engine runs, executed with rayon.
//!
//! Four loops: an elementwise map ([`par_map`], [`par_map_into`]), a map
//! over disjoint mutable segments ([`par_map_segments_into`]) and an index
//! tabulation ([`par_tabulate`]). Below [`SEQUENTIAL_CUTOFF`] each runs as a
//! plain sequential loop. They record no costs: the algorithms in `mis_core`
//! charge the work and depth of every step themselves.
//!
//! Results are always identical to the sequential semantics: every loop
//! collects its results in input order.

use rayon::prelude::*;

/// Minimum slice length before the primitives bother spawning parallel tasks;
/// below this a sequential loop is faster on every machine we tested and the
/// result is identical.
pub const SEQUENTIAL_CUTOFF: usize = 4096;

/// Elementwise map: `out[i] = f(&input[i])`.
pub fn par_map<T, U, F>(input: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync + Send,
{
    let mut out = Vec::new();
    par_map_into(input, f, &mut out);
    out
}

/// Allocation-reusing variant of [`par_map`]: the results replace the
/// contents of `out`. Below the sequential cutoff no allocation happens at
/// all once `out` has warmed up (capacity retained); above it the parallel
/// execution materializes its result internally (inherent to the executor)
/// and `out` adopts that buffer without an extra copy.
pub fn par_map_into<T, U, F>(input: &[T], f: F, out: &mut Vec<U>)
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync + Send,
{
    out.clear();
    if input.len() < SEQUENTIAL_CUTOFF {
        out.extend(input.iter().map(f));
    } else {
        // Adopt the parallel collect's buffer instead of copying it into
        // `out`: the collected vector already spans the full input, so it is
        // at least as warm as the buffer it replaces.
        *out = input.par_iter().map(f).collect();
    }
}

/// Applies `f` to every element of a jagged collection of *disjoint* mutable
/// segments (e.g. the per-edge vertex runs of a CSR layout) in parallel; the
/// per-segment results replace the contents of `out` (capacity retained), in
/// segment order.
///
/// This is the PRAM "segmented update" the flat `ActiveHypergraph` engine
/// uses for edge trimming: each segment is a small sequential loop, segments
/// are independent, and the total work is the sum of the segment lengths.
pub fn par_map_segments_into<T, R, F>(segments: Vec<&mut [T]>, f: F, out: &mut Vec<R>)
where
    T: Send,
    R: Send,
    F: Fn(&mut [T]) -> R + Sync + Send,
{
    let total: usize = segments.iter().map(|s| s.len()).sum();
    out.clear();
    if total < SEQUENTIAL_CUTOFF {
        out.extend(segments.into_iter().map(f));
    } else {
        // As in `par_map_into`: adopt the collected buffer, don't re-copy.
        *out = segments.into_par_iter().map(f).collect();
    }
}

/// Applies `f` to every index in `0..n` in parallel and collects the results.
/// Convenience wrapper used by the algorithms for per-vertex and per-edge
/// steps.
pub fn par_tabulate<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync + Send,
{
    if n < SEQUENTIAL_CUTOFF {
        (0..n).map(f).collect()
    } else {
        (0..n).into_par_iter().map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_sequential() {
        let v: Vec<u64> = (0..10_000).collect();
        let out = par_map(&v, |x| x * 2);
        assert_eq!(out.len(), v.len());
        assert!(out.iter().enumerate().all(|(i, &x)| x == 2 * i as u64));
    }

    #[test]
    fn map_into_matches_and_keeps_capacity() {
        for n in [100usize, 10_000] {
            let v: Vec<u64> = (0..n as u64).collect();
            let mut out = Vec::with_capacity(2 * n);
            par_map_into(&v, |&x| x + 1, &mut out);
            assert_eq!(out, par_map(&v, |&x| x + 1), "n={n}");
            // Below the cutoff the warm buffer is reused, not replaced.
            let capacity = out.capacity();
            par_map_into(&v, |&x| x + 2, &mut out);
            assert_eq!(out, par_map(&v, |&x| x + 2), "n={n}");
            if n < SEQUENTIAL_CUTOFF {
                assert_eq!(out.capacity(), capacity, "n={n}");
            }
        }
    }

    #[test]
    fn map_segments_small_and_large() {
        for (n_segments, seg_len) in [(5usize, 3usize), (800, 64)] {
            let mut data = vec![0u64; n_segments * seg_len];
            let mut segments: Vec<&mut [u64]> = Vec::new();
            let mut rest = data.as_mut_slice();
            for _ in 0..n_segments {
                let (seg, tail) = std::mem::take(&mut rest).split_at_mut(seg_len);
                segments.push(seg);
                rest = tail;
            }
            let mut lens = Vec::new();
            par_map_segments_into(
                segments,
                |seg| {
                    for (i, slot) in seg.iter_mut().enumerate() {
                        *slot = i as u64;
                    }
                    seg.len()
                },
                &mut lens,
            );
            assert_eq!(lens, vec![seg_len; n_segments]);
            for (i, &x) in data.iter().enumerate() {
                assert_eq!(x, (i % seg_len) as u64);
            }
        }
    }

    #[test]
    fn tabulate() {
        let out = par_tabulate(10_000, |i| i as u64 * i as u64);
        assert_eq!(out[77], 77 * 77);
        assert_eq!(out.len(), 10_000);
    }

    #[test]
    fn map_segments_into_matches() {
        let mut data = [0u64; 12];
        let (a, b) = data.split_at_mut(5);
        let mut out = Vec::new();
        par_map_segments_into(
            vec![a, b],
            |seg| {
                seg.iter_mut().for_each(|s| *s = 2);
                seg.len() as u32
            },
            &mut out,
        );
        assert_eq!(out, vec![5, 7]);
        assert!(data.iter().all(|&x| x == 2));
    }
}
