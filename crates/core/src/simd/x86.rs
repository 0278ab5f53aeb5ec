//! Explicit SSE2/AVX2 block kernels for x86-64.
//!
//! Every kernel here reproduces, per candidate, the **exact** arithmetic
//! of the 4-lane scalar kernels in [`crate::kernels`]: dimensions
//! `≡ k (mod 4)` feed lane accumulator `k` with plain IEEE sub/mul/add
//! (never FMA), the per-candidate sum is the canonical monotone fold
//! `(acc0 + acc1) + (acc2 + acc3)` plus a separately chained scalar tail,
//! and `abs` is a sign-bit mask (`andnot` with `-0.0`), which matches
//! `f64::abs` bit for bit. Because the fold is monotone in the
//! non-negative terms, *any* early-exit schedule — here, all lanes of a
//! candidate group exceeding the budget — returns the same decision as
//! the full sum, so `within` decisions (and therefore join results) are
//! byte-identical across dispatch levels.
//!
//! The kernels vectorize **across candidates**: four (AVX2) or two (SSE2)
//! candidates per vector, one accumulator vector per dimension lane,
//! streaming the contiguous [`SoABlock`] columns.
//!
//! This file is the only place in the workspace where `unsafe` is
//! permitted: hdsj-core carries `#![deny(unsafe_code)]` and every other
//! crate keeps `forbid`. The unsafe surface is exactly (a) unaligned
//! vector loads on in-bounds slice regions and (b) the AVX2 entry
//! wrappers, whose target feature the dispatch probe has verified. Each
//! carries a `SAFETY:` comment per R2.
#![allow(unsafe_code)]

use crate::simd::portable;
use crate::soa::SoABlock;
use std::ops::Range;

/// Pushes the ids of qualifying lanes `t..t+G` (bit `k` of `mask` set),
/// capped at the requested lane range end.
#[inline(always)]
fn emit(mask: i32, t: usize, end: usize, g: usize, ids: &[u32], out: &mut Vec<u32>) {
    let lanes = (end - t).min(g);
    for k in 0..lanes {
        if (mask >> k) & 1 == 1 {
            out.push(ids[t + k]);
        }
    }
}

fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

// ---------------------------------------------------------------------
// AVX2 entry points. The inner kernels are safe `#[target_feature]` fns;
// only the feature-availability hand-off needs `unsafe`.
// ---------------------------------------------------------------------

/// L1 block filter via the AVX2 across-candidate kernel.
pub fn avx2_l1_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    debug_assert!(avx2_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX2 kernels only after `is_x86_feature_detected!("avx2")`
    // reports support, so the required target feature is present.
    unsafe { avx2::sum_within_block::<false>(probe, block, lanes, eps, out) }
}

/// L2 block filter via the AVX2 across-candidate kernel.
pub fn avx2_l2_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    debug_assert!(avx2_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX2 kernels only after `is_x86_feature_detected!("avx2")`
    // reports support, so the required target feature is present.
    unsafe { avx2::sum_within_block::<true>(probe, block, lanes, eps * eps, out) }
}

/// L∞ block filter via the AVX2 across-candidate kernel.
pub fn avx2_linf_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    debug_assert!(avx2_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX2 kernels only after `is_x86_feature_detected!("avx2")`
    // reports support, so the required target feature is present.
    unsafe { avx2::linf_within_block(probe, block, lanes, eps, out) }
}

// ---------------------------------------------------------------------
// SSE2 entry points. SSE2 is in the x86-64 baseline feature set (this
// crate only builds these on x86_64), so the feature is unconditionally
// present; the `unsafe` below only discharges the lexical
// `#[target_feature]` requirement.
// ---------------------------------------------------------------------

/// L1 block filter via the SSE2 across-candidate kernel.
pub fn sse2_l1_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every x86-64 CPU
    // provides it, so the kernel's required target feature is present.
    unsafe { sse2::sum_within_block::<false>(probe, block, lanes, eps, out) }
}

/// L2 block filter via the SSE2 across-candidate kernel.
pub fn sse2_l2_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every x86-64 CPU
    // provides it, so the kernel's required target feature is present.
    unsafe { sse2::sum_within_block::<true>(probe, block, lanes, eps * eps, out) }
}

/// L∞ block filter via the SSE2 across-candidate kernel.
pub fn sse2_linf_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every x86-64 CPU
    // provides it, so the kernel's required target feature is present.
    unsafe { sse2::linf_within_block(probe, block, lanes, eps, out) }
}

mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    /// Loads 4 consecutive f64s starting at `xs[at]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load4(xs: &[f64], at: usize) -> __m256d {
        debug_assert!(xs.len() >= 4 && at <= xs.len() - 4);
        // SAFETY: callers maintain `at + 4 <= xs.len()`: the block kernels
        // pass `dim * width + t` with `t + 4 <= width`, `dim < dims`, into
        // the `dims × width` buffer.
        unsafe { _mm256_loadu_pd(xs.as_ptr().add(at)) }
    }

    /// Lane-wise term over four candidates: `(a−b)²` (`SQ`) or `|a−b|`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn term<const SQ: bool>(a: __m256d, b: __m256d) -> __m256d {
        let d = _mm256_sub_pd(a, b);
        if SQ {
            _mm256_mul_pd(d, d)
        } else {
            _mm256_andnot_pd(_mm256_set1_pd(-0.0), d)
        }
    }

    /// Block filter: pushes the id of every lane in `lanes` whose
    /// candidate satisfies `Σ term(probeᵢ, cᵢ) ≤ budget`, four candidates
    /// per vector group, streaming the SoA columns.
    ///
    /// The four accumulators are named locals expanded through a lexical
    /// macro rather than an array threaded through a helper fn: a
    /// `#[target_feature]` helper is not reliably inlined, and a spilled
    /// accumulator array turns the hot loop into stack traffic.
    #[target_feature(enable = "avx2")]
    pub fn sum_within_block<const SQ: bool>(
        probe: &[f64],
        block: &SoABlock,
        lanes: Range<usize>,
        budget: f64,
        out: &mut Vec<u32>,
    ) {
        let d = probe.len();
        debug_assert_eq!(d, block.dims());
        debug_assert!(lanes.end <= block.len());
        let width = block.width();
        let ids = block.ids();
        let data = block.data();
        let vbudget = _mm256_set1_pd(budget);
        let mut t = lanes.start;
        while t < lanes.end {
            if t + 4 > width {
                // Ragged tail past the last full group (at most
                // LANE_PAD − 1 lanes): the portable strided kernel is
                // decision-identical.
                while t < lanes.end {
                    if portable::sum_within_budget::<SQ>(probe, block, t, budget) {
                        out.push(ids[t]);
                    }
                    t += 1;
                }
                return;
            }
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            // One 4-dimension step for the group: dimension `base + k`
            // feeds accumulator `k`, preserving the canonical per-lane
            // decomposition of the scalar kernels. Columns are addressed
            // as dimension-major offsets into `data` (one strength-reduced
            // index chain) rather than via `block.col(dim)`, whose slice
            // construction is an innermost-loop bounds check.
            macro_rules! step4 {
                ($base:expr) => {{
                    let base = $base;
                    // BOUND: base + 4 <= dims and t + 4 <= width, so every
                    // offset below is < dims * width = data.len(); fits usize.
                    let o = base * width + t;
                    a0 = _mm256_add_pd(
                        a0,
                        term::<SQ>(_mm256_set1_pd(probe[base]), load4(data, o)),
                    );
                    a1 = _mm256_add_pd(
                        a1,
                        term::<SQ>(_mm256_set1_pd(probe[base + 1]), load4(data, o + width)), // BOUND: see `o`
                    );
                    a2 = _mm256_add_pd(
                        a2,
                        term::<SQ>(_mm256_set1_pd(probe[base + 2]), load4(data, o + 2 * width)), // BOUND: see `o`
                    );
                    a3 = _mm256_add_pd(
                        a3,
                        term::<SQ>(_mm256_set1_pd(probe[base + 3]), load4(data, o + 3 * width)), // BOUND: see `o`
                    );
                }};
            }
            // The lane-wise canonical fold `(a0 + a1) + (a2 + a3)`.
            macro_rules! partial {
                () => {
                    _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3))
                };
            }
            // True when every candidate in the group already exceeds the
            // budget — a group-wide monotone early exit (each lane's final
            // sum is at least its partial sum, so all four decisions are
            // already `false`).
            macro_rules! all_rejected {
                () => {
                    _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(partial!(), vbudget)) == 0xF
                };
            }
            let mut dim = 0;
            let mut alive = true;
            if d >= 4 {
                step4!(0);
                alive = !all_rejected!();
                dim = 4;
            }
            while alive && dim + 16 <= d {
                step4!(dim);
                step4!(dim + 4);
                step4!(dim + 8);
                step4!(dim + 12);
                alive = !all_rejected!();
                dim += 16;
            }
            if alive {
                while dim + 4 <= d {
                    step4!(dim);
                    dim += 4;
                }
                // `d mod 4` tail dimensions: a separately chained
                // accumulator added after the fold, as in the scalar
                // kernels.
                let mut tailv = _mm256_setzero_pd();
                while dim < d {
                    let vp = _mm256_set1_pd(probe[dim]);
                    // BOUND: dim < d = dims, t + 4 <= width ⇒ offset < dims * width.
                    let vc = load4(data, dim * width + t);
                    tailv = _mm256_add_pd(tailv, term::<SQ>(vp, vc));
                    dim += 1;
                }
                let total = _mm256_add_pd(partial!(), tailv);
                let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(total, vbudget));
                emit(mask, t, lanes.end, 4, ids, out);
            }
            t += 4;
        }
    }

    /// L∞ block filter: running max per candidate, group-wide early exit.
    #[target_feature(enable = "avx2")]
    pub fn linf_within_block(
        probe: &[f64],
        block: &SoABlock,
        lanes: Range<usize>,
        eps: f64,
        out: &mut Vec<u32>,
    ) {
        let d = probe.len();
        debug_assert_eq!(d, block.dims());
        debug_assert!(lanes.end <= block.len());
        let width = block.width();
        let ids = block.ids();
        let data = block.data();
        let veps = _mm256_set1_pd(eps);
        let mut t = lanes.start;
        while t < lanes.end {
            if t + 4 > width {
                while t < lanes.end {
                    if portable::max_within_budget(probe, block, t, eps) {
                        out.push(ids[t]);
                    }
                    t += 1;
                }
                return;
            }
            let mut m = _mm256_setzero_pd();
            let mut dim = 0;
            let mut alive = true;
            while alive && dim < d {
                let stop = (dim + 16).min(d);
                while dim < stop {
                    let vp = _mm256_set1_pd(probe[dim]);
                    // BOUND: dim < d = dims, t + 4 <= width ⇒ offset < dims * width.
                    let vc = load4(data, dim * width + t);
                    m = _mm256_max_pd(m, term::<false>(vp, vc));
                    dim += 1;
                }
                if _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(m, veps)) == 0xF {
                    alive = false;
                }
            }
            if alive {
                let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(m, veps));
                emit(mask, t, lanes.end, 4, ids, out);
            }
            t += 4;
        }
    }
}

mod sse2 {
    use super::*;
    use core::arch::x86_64::*;

    /// Loads 2 consecutive f64s starting at `xs[at]`. SSE2 is in the
    /// x86-64 baseline, so no feature gate is needed.
    #[inline(always)]
    fn load2(xs: &[f64], at: usize) -> __m128d {
        debug_assert!(xs.len() >= 2 && at <= xs.len() - 2);
        // SAFETY: callers maintain `at + 2 <= xs.len()`: the block kernels
        // pass `dim * width + t` with `t + 2 <= width`, `dim < dims`, into
        // the `dims × width` buffer.
        unsafe { _mm_loadu_pd(xs.as_ptr().add(at)) }
    }

    /// Lane-wise term over two candidates: `(a−b)²` (`SQ`) or `|a−b|`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn term<const SQ: bool>(a: __m128d, b: __m128d) -> __m128d {
        let d = _mm_sub_pd(a, b);
        if SQ {
            _mm_mul_pd(d, d)
        } else {
            _mm_andnot_pd(_mm_set1_pd(-0.0), d)
        }
    }

    /// Block filter: two candidates per vector group. Named accumulator
    /// locals via a lexical macro, for the same codegen reason as the
    /// AVX2 variant (see `avx2::sum_within_block`).
    #[target_feature(enable = "sse2")]
    pub fn sum_within_block<const SQ: bool>(
        probe: &[f64],
        block: &SoABlock,
        lanes: Range<usize>,
        budget: f64,
        out: &mut Vec<u32>,
    ) {
        let d = probe.len();
        debug_assert_eq!(d, block.dims());
        debug_assert!(lanes.end <= block.len());
        let width = block.width();
        let ids = block.ids();
        let data = block.data();
        let vbudget = _mm_set1_pd(budget);
        let mut t = lanes.start;
        while t < lanes.end {
            if t + 2 > width {
                while t < lanes.end {
                    if portable::sum_within_budget::<SQ>(probe, block, t, budget) {
                        out.push(ids[t]);
                    }
                    t += 1;
                }
                return;
            }
            let mut a0 = _mm_setzero_pd();
            let mut a1 = _mm_setzero_pd();
            let mut a2 = _mm_setzero_pd();
            let mut a3 = _mm_setzero_pd();
            macro_rules! step4 {
                ($base:expr) => {{
                    let base = $base;
                    // BOUND: base + 4 <= dims and t + 2 <= width, so every
                    // offset below is < dims * width = data.len(); fits usize.
                    let o = base * width + t;
                    a0 = _mm_add_pd(a0, term::<SQ>(_mm_set1_pd(probe[base]), load2(data, o)));
                    a1 = _mm_add_pd(
                        a1,
                        term::<SQ>(_mm_set1_pd(probe[base + 1]), load2(data, o + width)), // BOUND: see `o`
                    );
                    a2 = _mm_add_pd(
                        a2,
                        term::<SQ>(_mm_set1_pd(probe[base + 2]), load2(data, o + 2 * width)), // BOUND: see `o`
                    );
                    a3 = _mm_add_pd(
                        a3,
                        term::<SQ>(_mm_set1_pd(probe[base + 3]), load2(data, o + 3 * width)), // BOUND: see `o`
                    );
                }};
            }
            macro_rules! partial {
                () => {
                    _mm_add_pd(_mm_add_pd(a0, a1), _mm_add_pd(a2, a3))
                };
            }
            macro_rules! all_rejected {
                () => {
                    _mm_movemask_pd(_mm_cmpgt_pd(partial!(), vbudget)) == 0x3
                };
            }
            let mut dim = 0;
            let mut alive = true;
            if d >= 4 {
                step4!(0);
                alive = !all_rejected!();
                dim = 4;
            }
            while alive && dim + 16 <= d {
                step4!(dim);
                step4!(dim + 4);
                step4!(dim + 8);
                step4!(dim + 12);
                alive = !all_rejected!();
                dim += 16;
            }
            if alive {
                while dim + 4 <= d {
                    step4!(dim);
                    dim += 4;
                }
                let mut tailv = _mm_setzero_pd();
                while dim < d {
                    let vp = _mm_set1_pd(probe[dim]);
                    // BOUND: dim < d = dims, t + 2 <= width ⇒ offset < dims * width.
                    let vc = load2(data, dim * width + t);
                    tailv = _mm_add_pd(tailv, term::<SQ>(vp, vc));
                    dim += 1;
                }
                let total = _mm_add_pd(partial!(), tailv);
                let mask = _mm_movemask_pd(_mm_cmple_pd(total, vbudget));
                emit(mask, t, lanes.end, 2, ids, out);
            }
            t += 2;
        }
    }

    /// L∞ block filter: running max per candidate lane.
    #[target_feature(enable = "sse2")]
    pub fn linf_within_block(
        probe: &[f64],
        block: &SoABlock,
        lanes: Range<usize>,
        eps: f64,
        out: &mut Vec<u32>,
    ) {
        let d = probe.len();
        debug_assert_eq!(d, block.dims());
        debug_assert!(lanes.end <= block.len());
        let width = block.width();
        let ids = block.ids();
        let data = block.data();
        let veps = _mm_set1_pd(eps);
        let mut t = lanes.start;
        while t < lanes.end {
            if t + 2 > width {
                while t < lanes.end {
                    if portable::max_within_budget(probe, block, t, eps) {
                        out.push(ids[t]);
                    }
                    t += 1;
                }
                return;
            }
            let mut m = _mm_setzero_pd();
            let mut dim = 0;
            let mut alive = true;
            while alive && dim < d {
                let stop = (dim + 16).min(d);
                while dim < stop {
                    let vp = _mm_set1_pd(probe[dim]);
                    // BOUND: dim < d = dims, t + 2 <= width ⇒ offset < dims * width.
                    let vc = load2(data, dim * width + t);
                    m = _mm_max_pd(m, term::<false>(vp, vc));
                    dim += 1;
                }
                if _mm_movemask_pd(_mm_cmpgt_pd(m, veps)) == 0x3 {
                    alive = false;
                }
            }
            if alive {
                let mask = _mm_movemask_pd(_mm_cmple_pd(m, veps));
                emit(mask, t, lanes.end, 2, ids, out);
            }
            t += 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::kernels;

    #[test]
    fn block_kernels_match_per_pair_decisions_exactly() {
        for dims in [1, 3, 4, 5, 16, 17, 64, 65] {
            let flat: Vec<f64> = (0..23 * dims)
                .map(|i| ((i as f64 * 0.41).sin() * 0.5 + 0.5).abs())
                .collect();
            let ds = Dataset::from_flat(dims, flat).unwrap();
            let block = crate::soa::SoABlock::from_range(&ds, 0..23);
            let probe = ds.point(11).to_vec();
            for eps in [0.1, 0.5, 2.0] {
                let expect_l2: Vec<u32> = (0..23u32)
                    .filter(|&j| kernels::l2_within(&probe, ds.point(j), eps))
                    .collect();
                let mut got = Vec::new();
                sse2_l2_within_block(&probe, &block, 0..23, eps, &mut got);
                assert_eq!(got, expect_l2, "sse2 l2 d={dims} eps={eps}");
                let expect_l1: Vec<u32> = (0..23u32)
                    .filter(|&j| kernels::l1_within(&probe, ds.point(j), eps))
                    .collect();
                got.clear();
                sse2_l1_within_block(&probe, &block, 0..23, eps, &mut got);
                assert_eq!(got, expect_l1, "sse2 l1 d={dims} eps={eps}");
                let expect_linf: Vec<u32> = (0..23u32)
                    .filter(|&j| kernels::linf_within(&probe, ds.point(j), eps))
                    .collect();
                got.clear();
                sse2_linf_within_block(&probe, &block, 0..23, eps, &mut got);
                assert_eq!(got, expect_linf, "sse2 linf d={dims} eps={eps}");
                if avx2_available() {
                    got.clear();
                    avx2_l2_within_block(&probe, &block, 0..23, eps, &mut got);
                    assert_eq!(got, expect_l2, "avx2 l2 d={dims} eps={eps}");
                    got.clear();
                    avx2_l1_within_block(&probe, &block, 0..23, eps, &mut got);
                    assert_eq!(got, expect_l1, "avx2 l1 d={dims} eps={eps}");
                    got.clear();
                    avx2_linf_within_block(&probe, &block, 0..23, eps, &mut got);
                    assert_eq!(got, expect_linf, "avx2 linf d={dims} eps={eps}");
                }
            }
        }
    }

    #[test]
    fn block_kernels_respect_lane_subranges() {
        let flat: Vec<f64> = (0..40).map(|i| i as f64 * 1e-3).collect();
        let ds = Dataset::from_flat(4, flat).unwrap();
        let block = crate::soa::SoABlock::from_range(&ds, 0..10);
        let probe = ds.point(0).to_vec();
        let mut got = Vec::new();
        sse2_l2_within_block(&probe, &block, 3..8, 1e9, &mut got);
        assert_eq!(got, vec![3, 4, 5, 6, 7]);
        if avx2_available() {
            got.clear();
            avx2_l2_within_block(&probe, &block, 3..8, 1e9, &mut got);
            assert_eq!(got, vec![3, 4, 5, 6, 7]);
        }
    }
}
