//! Wide (SIMD) sweeps over status arrays: the byte-compare inner loops of
//! the flat engine, vectorized.
//!
//! The flat engine keeps per-vertex and per-edge state as `u8` status
//! arrays plus compacted ascending id lists that mirror them (see
//! `hypergraph::active`). Its hottest maintenance loops are all variants of
//! the same primitive — "which positions of this byte array equal this
//! status?" — which is exactly the shape `pcmpeqb` + `pmovmskb` were built
//! for: 16 (SSE2) or 32 (AVX2) lanes per compare, one popcount or
//! `trailing_zeros` walk per chunk mask. This module provides those sweeps
//! with scalar fallbacks:
//!
//! * [`count_eq_u8`] — how many bytes equal `needle` (invariant checks);
//! * [`positions_eq_u8`] — the ascending positions equal to `needle`
//!   (frontier and alive-list compaction);
//! * [`sum_u32_where_u8_eq`] — sum a `u32` array over the positions whose
//!   status byte equals `needle` (live-size totals).
//!
//! # Exactness
//!
//! Each helper is a pure function of its arguments and every backend
//! computes the same value — there is no floating point, no reassociation
//! hazard, and position lists are emitted in ascending order by
//! construction. The `backends_agree` test pins scalar/SSE2/AVX2 agreement
//! on random inputs; the engine's differential suites pin the callers.
//!
//! # Detection and the escape hatch
//!
//! The widest supported backend is chosen once per process ([`detected`]):
//! AVX2 is runtime-detected, SSE2 is the `x86_64` baseline, every other
//! target falls back to the scalar loops. The `force-scalar` cargo feature
//! pins the scalar path for the whole build; [`with_capability`] overrides
//! the choice on the current thread only, which is what the scalar-vs-SIMD
//! parity tests use to compare paths *within* one process.
//!
//! `unsafe` is confined to this module (the crate stays `deny(unsafe_code)`
//! elsewhere): every `unsafe` block is a call into a `#[target_feature]`
//! kernel whose feature is either the `x86_64` baseline (SSE2) or
//! runtime-verified (AVX2).

#![allow(unsafe_code)]

use std::cell::Cell;
use std::sync::OnceLock;

/// A sweep backend this module can execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Capability {
    /// Plain scalar loops; the reference semantics and the universal
    /// fallback.
    Scalar,
    /// 16 `u8` lanes per step via `core::arch` SSE2 (`x86_64` baseline).
    Sse2,
    /// 32 `u8` lanes per step via `core::arch` AVX2 (runtime-detected).
    Avx2,
}

impl Capability {
    /// Stable lower-case name, used in bench artifacts and log headers.
    pub const fn name(self) -> &'static str {
        match self {
            Capability::Scalar => "scalar",
            Capability::Sse2 => "sse2",
            Capability::Avx2 => "avx2",
        }
    }

    /// `u8` lanes processed per vector step (1 for the scalar loops).
    pub const fn u8_lanes(self) -> usize {
        match self {
            Capability::Scalar => 1,
            Capability::Sse2 => 16,
            Capability::Avx2 => 32,
        }
    }
}

/// True when the `force-scalar` cargo feature pins the scalar path.
pub fn forced_scalar() -> bool {
    cfg!(feature = "force-scalar")
}

#[cfg(target_arch = "x86_64")]
fn best_arch_capability() -> Capability {
    if std::arch::is_x86_feature_detected!("avx2") {
        Capability::Avx2
    } else {
        Capability::Sse2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn best_arch_capability() -> Capability {
    Capability::Scalar
}

/// The process-wide backend: the widest available, unless pinned scalar.
pub fn detected() -> Capability {
    static DETECTED: OnceLock<Capability> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if forced_scalar() {
            Capability::Scalar
        } else {
            best_arch_capability()
        }
    })
}

/// Every backend that can run on this build *and* host, scalar first.
/// Parity tests iterate this list against the scalar reference.
pub fn available() -> Vec<Capability> {
    let mut list = vec![Capability::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        list.push(Capability::Sse2);
        if std::arch::is_x86_feature_detected!("avx2") {
            list.push(Capability::Avx2);
        }
    }
    list
}

thread_local! {
    static OVERRIDE: Cell<Option<Capability>> = const { Cell::new(None) };
}

/// The backend the sweeps dispatch to on this thread: the thread-local
/// override if one is active, [`detected`] otherwise.
pub fn active() -> Capability {
    OVERRIDE.with(Cell::get).unwrap_or_else(detected)
}

/// Human-readable description of the active path, e.g. `"avx2"` or
/// `"scalar (forced)"`, for bench headers and artifacts.
pub fn active_path() -> &'static str {
    if forced_scalar() {
        "scalar (forced)"
    } else {
        active().name()
    }
}

/// Runs `f` with the sweeps pinned to `cap` on the current thread (restored
/// afterwards, also on panic). This is how the scalar-vs-SIMD parity tests
/// compare whole engine runs within one process — a cargo feature cannot
/// switch paths mid-run, a thread-local can.
///
/// # Panics
/// Panics if `cap` is not in [`available`] on this host.
pub fn with_capability<R>(cap: Capability, f: impl FnOnce() -> R) -> R {
    assert!(
        available().contains(&cap),
        "capability {cap:?} is not available on this host"
    );
    struct Restore(Option<Capability>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(cap))));
    f()
}

/// Counts the positions of `xs` equal to `needle`.
pub fn count_eq_u8(xs: &[u8], needle: u8) -> usize {
    match active() {
        Capability::Scalar => count_eq_scalar(xs, needle),
        #[cfg(target_arch = "x86_64")]
        Capability::Sse2 => x86::count_eq_sse2(xs, needle),
        #[cfg(target_arch = "x86_64")]
        Capability::Avx2 => x86::count_eq_avx2(xs, needle),
        #[cfg(not(target_arch = "x86_64"))]
        Capability::Sse2 | Capability::Avx2 => count_eq_scalar(xs, needle),
    }
}

/// Replaces `out` with the ascending positions of `xs` equal to `needle`.
///
/// This is the dense formulation of the engine's list compactions: when an
/// id list is known to mirror exactly the `needle`-valued positions of its
/// status array (the engine invariant for the alive list and the live-edge
/// frontier), rebuilding it with this sweep is identical to `retain`.
pub fn positions_eq_u8(xs: &[u8], needle: u8, out: &mut Vec<u32>) {
    out.clear();
    match active() {
        Capability::Scalar => positions_eq_scalar(xs, needle, 0, out),
        #[cfg(target_arch = "x86_64")]
        Capability::Sse2 => x86::positions_eq_sse2(xs, needle, out),
        #[cfg(target_arch = "x86_64")]
        Capability::Avx2 => x86::positions_eq_avx2(xs, needle, out),
        #[cfg(not(target_arch = "x86_64"))]
        Capability::Sse2 | Capability::Avx2 => positions_eq_scalar(xs, needle, 0, out),
    }
}

/// Sums `vals[i]` over the positions where `status[i] == needle`.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn sum_u32_where_u8_eq(vals: &[u32], status: &[u8], needle: u8) -> usize {
    assert_eq!(vals.len(), status.len(), "value/status length mismatch");
    match active() {
        Capability::Scalar => sum_where_scalar(vals, status, needle),
        #[cfg(target_arch = "x86_64")]
        Capability::Sse2 => x86::sum_where_sse2(vals, status, needle),
        #[cfg(target_arch = "x86_64")]
        Capability::Avx2 => x86::sum_where_avx2(vals, status, needle),
        #[cfg(not(target_arch = "x86_64"))]
        Capability::Sse2 | Capability::Avx2 => sum_where_scalar(vals, status, needle),
    }
}

fn count_eq_scalar(xs: &[u8], needle: u8) -> usize {
    xs.iter().filter(|&&x| x == needle).count()
}

/// Scalar position sweep over `xs`, emitting `base + i` for matches (the
/// intrinsic backends use it for their unaligned tails).
fn positions_eq_scalar(xs: &[u8], needle: u8, base: usize, out: &mut Vec<u32>) {
    for (i, &x) in xs.iter().enumerate() {
        if x == needle {
            out.push((base + i) as u32);
        }
    }
}

fn sum_where_scalar(vals: &[u32], status: &[u8], needle: u8) -> usize {
    vals.iter()
        .zip(status)
        .filter(|&(_, &s)| s == needle)
        .map(|(&v, _)| v as usize)
        .sum()
}

/// `x86_64` kernels. Chunks are copied into fixed-size arrays and
/// transmuted to vector types (sound: `__m128i`/`__m256i` and same-sized
/// `u8` arrays are plain-old-data; the copies compile to unaligned vector
/// loads). Each kernel handles the length-remainder tail with the scalar
/// loops above.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{count_eq_scalar, positions_eq_scalar, sum_where_scalar};
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_castsi256_si128,
        _mm256_cmpeq_epi8, _mm256_cvtepi8_epi32, _mm256_extracti128_si256, _mm256_movemask_epi8,
        _mm256_unpackhi_epi32, _mm256_unpacklo_epi32, _mm_add_epi64, _mm_and_si128, _mm_cmpeq_epi8,
        _mm_movemask_epi8, _mm_unpackhi_epi16, _mm_unpackhi_epi32, _mm_unpackhi_epi64,
        _mm_unpackhi_epi8, _mm_unpacklo_epi16, _mm_unpacklo_epi32, _mm_unpacklo_epi8,
    };

    #[inline]
    fn splat16(x: u8) -> __m128i {
        // SAFETY: __m128i and [u8; 16] are both 16-byte POD types.
        unsafe { core::mem::transmute::<[u8; 16], __m128i>([x; 16]) }
    }

    #[inline]
    fn load16(chunk: &[u8]) -> __m128i {
        let arr: [u8; 16] = chunk.try_into().expect("16-byte chunk");
        // SAFETY: as in `splat16`.
        unsafe { core::mem::transmute::<[u8; 16], __m128i>(arr) }
    }

    #[inline]
    fn splat32(x: u8) -> __m256i {
        // SAFETY: __m256i and [u8; 32] are both 32-byte POD types.
        unsafe { core::mem::transmute::<[u8; 32], __m256i>([x; 32]) }
    }

    #[inline]
    fn load32(chunk: &[u8]) -> __m256i {
        let arr: [u8; 32] = chunk.try_into().expect("32-byte chunk");
        // SAFETY: as in `splat32`.
        unsafe { core::mem::transmute::<[u8; 32], __m256i>(arr) }
    }

    #[target_feature(enable = "sse2")]
    fn count_eq_sse2_kernel(xs: &[u8], needle: u8) -> usize {
        let nv = splat16(needle);
        let mut count = 0usize;
        let chunks = xs.chunks_exact(16);
        let tail = chunks.remainder();
        for chunk in chunks {
            let mask = _mm_movemask_epi8(_mm_cmpeq_epi8(load16(chunk), nv)) as u32;
            count += mask.count_ones() as usize;
        }
        count + count_eq_scalar(tail, needle)
    }

    pub(super) fn count_eq_sse2(xs: &[u8], needle: u8) -> usize {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { count_eq_sse2_kernel(xs, needle) }
    }

    #[target_feature(enable = "avx2")]
    fn count_eq_avx2_kernel(xs: &[u8], needle: u8) -> usize {
        let nv = splat32(needle);
        let mut count = 0usize;
        let chunks = xs.chunks_exact(32);
        let tail = chunks.remainder();
        for chunk in chunks {
            let mask = _mm256_movemask_epi8(_mm256_cmpeq_epi8(load32(chunk), nv)) as u32;
            count += mask.count_ones() as usize;
        }
        count + count_eq_scalar(tail, needle)
    }

    pub(super) fn count_eq_avx2(xs: &[u8], needle: u8) -> usize {
        assert_avx2();
        // SAFETY: `assert_avx2` established the avx2 target feature.
        unsafe { count_eq_avx2_kernel(xs, needle) }
    }

    /// Pushes the positions `base + bit` for every set bit of `mask`,
    /// ascending; a full mask short-circuits to a range append.
    #[inline]
    fn push_mask_positions(mut mask: u32, full: u32, base: usize, out: &mut Vec<u32>) {
        if mask == full {
            out.extend(base as u32..(base + full.count_ones() as usize) as u32);
            return;
        }
        while mask != 0 {
            out.push((base + mask.trailing_zeros() as usize) as u32);
            mask &= mask - 1;
        }
    }

    #[target_feature(enable = "sse2")]
    fn positions_eq_sse2_kernel(xs: &[u8], needle: u8, out: &mut Vec<u32>) {
        let nv = splat16(needle);
        let chunks = xs.chunks_exact(16);
        let tail = chunks.remainder();
        for (c, chunk) in chunks.enumerate() {
            let mask = _mm_movemask_epi8(_mm_cmpeq_epi8(load16(chunk), nv)) as u32;
            push_mask_positions(mask, 0xFFFF, c * 16, out);
        }
        positions_eq_scalar(tail, needle, xs.len() - tail.len(), out);
    }

    pub(super) fn positions_eq_sse2(xs: &[u8], needle: u8, out: &mut Vec<u32>) {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { positions_eq_sse2_kernel(xs, needle, out) }
    }

    #[target_feature(enable = "avx2")]
    fn positions_eq_avx2_kernel(xs: &[u8], needle: u8, out: &mut Vec<u32>) {
        let nv = splat32(needle);
        let chunks = xs.chunks_exact(32);
        let tail = chunks.remainder();
        for (c, chunk) in chunks.enumerate() {
            let mask = _mm256_movemask_epi8(_mm256_cmpeq_epi8(load32(chunk), nv)) as u32;
            push_mask_positions(mask, u32::MAX, c * 32, out);
        }
        positions_eq_scalar(tail, needle, xs.len() - tail.len(), out);
    }

    pub(super) fn positions_eq_avx2(xs: &[u8], needle: u8, out: &mut Vec<u32>) {
        assert_avx2();
        // SAFETY: `assert_avx2` established the avx2 target feature.
        unsafe { positions_eq_avx2_kernel(xs, needle, out) }
    }

    #[inline]
    fn load4u32(chunk: &[u32]) -> __m128i {
        let arr: [u32; 4] = chunk.try_into().expect("4-word chunk");
        // SAFETY: __m128i and [u32; 4] are both 16-byte POD types.
        unsafe { core::mem::transmute::<[u32; 4], __m128i>(arr) }
    }

    #[inline]
    fn load8u32(chunk: &[u32]) -> __m256i {
        let arr: [u32; 8] = chunk.try_into().expect("8-word chunk");
        // SAFETY: __m256i and [u32; 8] are both 32-byte POD types.
        unsafe { core::mem::transmute::<[u32; 8], __m256i>(arr) }
    }

    #[inline]
    fn reduce_u64x2(v: __m128i) -> usize {
        // SAFETY: __m128i and [u64; 2] are both 16-byte POD types.
        let [a, b] = unsafe { core::mem::transmute::<__m128i, [u64; 2]>(v) };
        (a + b) as usize
    }

    #[inline]
    fn reduce_u64x4(v: __m256i) -> usize {
        // SAFETY: __m256i and [u64; 4] are both 32-byte POD types.
        let [a, b, c, d] = unsafe { core::mem::transmute::<__m256i, [u64; 4]>(v) };
        (a + b + c + d) as usize
    }

    /// The masked sums stay branch-free: the byte compare mask is *widened*
    /// to full `u32` lanes (0 / `0xFFFF_FFFF`), ANDed against the values and
    /// accumulated in `u64` lanes — no per-bit extraction, so throughput is
    /// density-independent (a bit-walk loses to scalar on dense-but-not-full
    /// status arrays, the engine's usual early-round state).
    #[target_feature(enable = "sse2")]
    fn sum_where_sse2_kernel(vals: &[u32], status: &[u8], needle: u8) -> usize {
        let nv = splat16(needle);
        let zero = splat16(0);
        let chunks = status.chunks_exact(16);
        let tail = chunks.remainder();
        let split = status.len() - tail.len();
        let mut acc = zero;
        for (c, chunk) in chunks.enumerate() {
            let m8 = _mm_cmpeq_epi8(load16(chunk), nv);
            // Replicating each mask byte twice (8→16→32 bits) turns 0xFF
            // bytes into 0xFFFF_FFFF lanes, in status order.
            let m16lo = _mm_unpacklo_epi8(m8, m8);
            let m16hi = _mm_unpackhi_epi8(m8, m8);
            let groups = [
                _mm_unpacklo_epi16(m16lo, m16lo),
                _mm_unpackhi_epi16(m16lo, m16lo),
                _mm_unpacklo_epi16(m16hi, m16hi),
                _mm_unpackhi_epi16(m16hi, m16hi),
            ];
            for (g, m32) in groups.into_iter().enumerate() {
                let base = c * 16 + g * 4;
                let masked = _mm_and_si128(load4u32(&vals[base..base + 4]), m32);
                acc = _mm_add_epi64(acc, _mm_unpacklo_epi32(masked, zero));
                acc = _mm_add_epi64(acc, _mm_unpackhi_epi32(masked, zero));
            }
        }
        reduce_u64x2(acc) + sum_where_scalar(&vals[split..], tail, needle)
    }

    pub(super) fn sum_where_sse2(vals: &[u32], status: &[u8], needle: u8) -> usize {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { sum_where_sse2_kernel(vals, status, needle) }
    }

    /// See `sum_where_sse2_kernel` for the widen-and-mask strategy.
    #[target_feature(enable = "avx2")]
    fn sum_where_avx2_kernel(vals: &[u32], status: &[u8], needle: u8) -> usize {
        let nv = splat32(needle);
        let zero = splat32(0);
        let chunks = status.chunks_exact(32);
        let tail = chunks.remainder();
        let split = status.len() - tail.len();
        let mut acc = zero;
        for (c, chunk) in chunks.enumerate() {
            let m8 = _mm256_cmpeq_epi8(load32(chunk), nv);
            // `cvtepi8_epi32` sign-extends 8 mask bytes to 8 full lanes; the
            // unpacks feed it the four 8-byte groups in status order.
            let lo = _mm256_castsi256_si128(m8);
            let hi = _mm256_extracti128_si256::<1>(m8);
            let groups = [
                _mm256_cvtepi8_epi32(lo),
                _mm256_cvtepi8_epi32(_mm_unpackhi_epi64(lo, lo)),
                _mm256_cvtepi8_epi32(hi),
                _mm256_cvtepi8_epi32(_mm_unpackhi_epi64(hi, hi)),
            ];
            for (g, m32) in groups.into_iter().enumerate() {
                let base = c * 32 + g * 8;
                let masked = _mm256_and_si256(load8u32(&vals[base..base + 8]), m32);
                acc = _mm256_add_epi64(acc, _mm256_unpacklo_epi32(masked, zero));
                acc = _mm256_add_epi64(acc, _mm256_unpackhi_epi32(masked, zero));
            }
        }
        reduce_u64x4(acc) + sum_where_scalar(&vals[split..], tail, needle)
    }

    pub(super) fn sum_where_avx2(vals: &[u32], status: &[u8], needle: u8) -> usize {
        assert_avx2();
        // SAFETY: `assert_avx2` established the avx2 target feature.
        unsafe { sum_where_avx2_kernel(vals, status, needle) }
    }

    fn assert_avx2() {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "AVX2 sweep selected on a host without AVX2"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift stream for test inputs (no RNG dependency).
    fn xorshift_stream(mut state: u64, len: usize) -> Vec<u64> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect()
    }

    #[test]
    fn backends_agree() {
        // Lengths straddle the 16/32-byte chunk boundaries, including the
        // empty and all-tail cases.
        for len in [
            0usize, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1000, 4096, 4099,
        ] {
            let words = xorshift_stream(0x9E37_79B9 ^ len as u64, len);
            // Statuses concentrated in {0,1,2} (like the engine's) plus raw
            // bytes for adversarial coverage.
            let dense: Vec<u8> = words.iter().map(|&w| (w % 3) as u8).collect();
            let raw: Vec<u8> = words.iter().map(|&w| w as u8).collect();
            let vals: Vec<u32> = words.iter().map(|&w| (w >> 32) as u32 & 0xFFFF).collect();
            for xs in [&dense, &raw] {
                for needle in [0u8, 1, 2, 0xFF] {
                    let count = count_eq_scalar(xs, needle);
                    let mut positions = Vec::new();
                    positions_eq_scalar(xs, needle, 0, &mut positions);
                    let sum = sum_where_scalar(&vals, xs, needle);
                    for &cap in &available() {
                        with_capability(cap, || {
                            assert_eq!(count_eq_u8(xs, needle), count, "{cap:?} count len {len}");
                            let mut got = vec![0xDEAD_BEEF_u32; 3]; // must be replaced
                            positions_eq_u8(xs, needle, &mut got);
                            assert_eq!(got, positions, "{cap:?} positions len {len}");
                            assert_eq!(
                                sum_u32_where_u8_eq(&vals, xs, needle),
                                sum,
                                "{cap:?} sum len {len}"
                            );
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn all_and_none_match_fast_paths() {
        let xs = vec![7u8; 100];
        let vals: Vec<u32> = (0..100u32).collect();
        for &cap in &available() {
            with_capability(cap, || {
                assert_eq!(count_eq_u8(&xs, 7), 100);
                assert_eq!(count_eq_u8(&xs, 8), 0);
                let mut pos = Vec::new();
                positions_eq_u8(&xs, 7, &mut pos);
                assert_eq!(pos, (0..100u32).collect::<Vec<_>>());
                positions_eq_u8(&xs, 8, &mut pos);
                assert!(pos.is_empty());
                assert_eq!(sum_u32_where_u8_eq(&vals, &xs, 7), 99 * 100 / 2);
                assert_eq!(sum_u32_where_u8_eq(&vals, &xs, 8), 0);
            });
        }
    }

    #[test]
    fn override_is_scoped_and_restored() {
        let outer = active();
        with_capability(Capability::Scalar, || {
            assert_eq!(active(), Capability::Scalar);
        });
        assert_eq!(active(), outer);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sum_rejects_length_mismatch() {
        sum_u32_where_u8_eq(&[1, 2], &[0], 0);
    }
}
