//! Differential property tests for the SIMD block-kernel tiers.
//!
//! The dispatch contract (see `hdsj_core::simd`) promises that every tier
//! of the `*_within_block` kernels returns *exactly* the decisions of the
//! 4-lane scalar pair kernels in `hdsj_core::kernels`. This suite drives
//! randomized NaN-free inputs — spanning subnormals, mixed magnitudes, and
//! both signs, with ε pinned on the exact distance and its neighbouring
//! f64 values — through every tier the host supports, on full lane ranges
//! and ragged tails, and pins that promise against the scalar oracle. It
//! also pins the SoA transpose itself as bit-lossless.
//!
//! Dimension choices deliberately straddle the kernels' structural
//! boundaries: below/at/above the 4-lane width (1..8), the 16-dimension
//! early-exit super-block (15, 16, 17), and a multi-super-block span
//! (63, 64, 65).
// Panicking is idiomatic in test code; see clippy.toml / analyzer policy.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hdsj_core::soa::SoABlock;
use hdsj_core::{kernels, simd, Dataset};
use proptest::prelude::*;

const DIMS: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 63, 64, 65];

/// NaN-free coordinates with wildly mixed magnitudes: unit-scale values,
/// exact zeros of both signs, subnormals, and huge/tiny extremes. Large
/// enough to stress cancellation and absorption, small enough that no
/// L1/L2 sum over 65 dimensions overflows to infinity.
fn coord() -> impl Strategy<Value = f64> {
    // The unit-scale arm repeats to weight it (the vendored proptest's
    // unions choose uniformly between arms).
    prop_oneof![
        -1.0f64..1.0,
        -1.0f64..1.0,
        -1.0f64..1.0,
        -1.0f64..1.0,
        -1e6f64..1e6,
        Just(0.0),
        Just(-0.0),
        Just(5e-324),    // smallest positive subnormal
        Just(-7.4e-310), // negative subnormal
        Just(1e100),
        Just(-3.5e-150),
    ]
}

/// A dimensionality from [`DIMS`].
fn dims() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

/// A dataset of wild-magnitude [`coord`] rows at a boundary-straddling
/// dimensionality, plus the index of one row whose distance to row 0
/// pins the ε boundary.
fn wild_dataset() -> impl Strategy<Value = (Dataset, usize)> {
    dims().prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(coord(), d), 1..24).prop_flat_map(
            |rows| {
                let n = rows.len();
                (Just(Dataset::from_rows(&rows).unwrap()), 0..n)
            },
        )
    })
}

/// A small dataset (unit-scale coordinates so ε thresholds land near real
/// distances) at a boundary-straddling dimensionality.
fn small_dataset() -> impl Strategy<Value = Dataset> {
    dims().prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(-1.0f64..1.0, d), 1..40)
            .prop_map(|rows| Dataset::from_rows(&rows).unwrap())
    })
}

/// ε values that stress the inclusive boundary: the exact distance must be
/// accepted, its predecessor/successor must flip consistently everywhere.
fn boundary_eps(dist: f64) -> [f64; 4] {
    [
        dist,
        f64::from_bits(dist.to_bits().saturating_sub(1)),
        f64::from_bits(dist.to_bits().saturating_add(1)),
        dist * 0.5,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn block_decisions_are_exact_on_the_boundary_at_every_tier(case in wild_dataset()) {
        let (ds, pivot) = case;
        let n = ds.len() as u32;
        let block = SoABlock::from_range(&ds, 0..n);
        let probe = ds.point(0).to_vec();
        let other = ds.point(pivot as u32);
        // ε pinned to the probe-to-pivot distance and its bit-neighbours:
        // the group-wide early exits must agree with the full sum exactly
        // on the boundary, for the pivot and every other lane alike.
        let d1 = kernels::l1_distance(&probe, other);
        let d2 = kernels::l2_distance(&probe, other);
        let di = kernels::linf_distance(&probe, other);
        let dp = kernels::lp_distance(&probe, other, 2.5);
        let full = 0..block.len();
        let tail = block.len() / 3..block.len();
        let saved = simd::level();
        for tier in simd::supported() {
            prop_assert_eq!(simd::set_level(tier), tier);
            for lanes in [full.clone(), tail.clone()] {
                let want = |within: &dyn Fn(&[f64]) -> bool| -> Vec<u32> {
                    block.ids()[lanes.clone()]
                        .iter()
                        .copied()
                        .filter(|&j| within(ds.point(j)))
                        .collect()
                };
                let mut got = Vec::new();
                for eps in boundary_eps(d1) {
                    got.clear();
                    simd::l1_within_block(&probe, &block, lanes.clone(), eps, &mut got);
                    let w = want(&|c| kernels::l1_within(&probe, c, eps));
                    prop_assert_eq!(&got, &w, "l1 at {:?} lanes {:?} eps {}", tier, &lanes, eps);
                }
                for eps in boundary_eps(d2) {
                    got.clear();
                    simd::l2_within_block(&probe, &block, lanes.clone(), eps, &mut got);
                    let w = want(&|c| kernels::l2_within(&probe, c, eps));
                    prop_assert_eq!(&got, &w, "l2 at {:?} lanes {:?} eps {}", tier, &lanes, eps);
                }
                for eps in boundary_eps(di) {
                    got.clear();
                    simd::linf_within_block(&probe, &block, lanes.clone(), eps, &mut got);
                    let w = want(&|c| kernels::linf_within(&probe, c, eps));
                    prop_assert_eq!(&got, &w, "linf at {:?} lanes {:?} eps {}", tier, &lanes, eps);
                }
                for eps in boundary_eps(dp) {
                    got.clear();
                    simd::lp_within_block(&probe, &block, lanes.clone(), eps, 2.5, &mut got);
                    let w = want(&|c| kernels::lp_within(&probe, c, eps, 2.5));
                    prop_assert_eq!(&got, &w, "lp at {:?} lanes {:?} eps {}", tier, &lanes, eps);
                }
            }
        }
        simd::set_level(saved);
    }

    #[test]
    fn block_filters_match_pair_kernels_at_every_tier(
        ds in small_dataset(),
        eps in 0.0f64..2.5,
    ) {
        let n = ds.len() as u32;
        let block = SoABlock::from_range(&ds, 0..n);
        let probe = ds.point(0).to_vec();
        // Lane subranges exercise the ragged head/tail paths of the
        // across-candidate kernels, not just full tiles.
        let full = 0..block.len();
        let tail = block.len() / 3..block.len();
        let saved = simd::level();
        for tier in simd::supported() {
            simd::set_level(tier);
            for lanes in [full.clone(), tail.clone()] {
                let want_l1: Vec<u32> = block.ids()[lanes.clone()]
                    .iter()
                    .copied()
                    .filter(|&j| kernels::l1_within(&probe, ds.point(j), eps))
                    .collect();
                let want_l2: Vec<u32> = block.ids()[lanes.clone()]
                    .iter()
                    .copied()
                    .filter(|&j| kernels::l2_within(&probe, ds.point(j), eps))
                    .collect();
                let want_li: Vec<u32> = block.ids()[lanes.clone()]
                    .iter()
                    .copied()
                    .filter(|&j| kernels::linf_within(&probe, ds.point(j), eps))
                    .collect();
                let want_lp: Vec<u32> = block.ids()[lanes.clone()]
                    .iter()
                    .copied()
                    .filter(|&j| kernels::lp_within(&probe, ds.point(j), eps, 2.5))
                    .collect();
                let mut got = Vec::new();
                simd::l1_within_block(&probe, &block, lanes.clone(), eps, &mut got);
                prop_assert_eq!(&got, &want_l1, "l1 at {:?} lanes {:?}", tier, &lanes);
                got.clear();
                simd::l2_within_block(&probe, &block, lanes.clone(), eps, &mut got);
                prop_assert_eq!(&got, &want_l2, "l2 at {:?} lanes {:?}", tier, &lanes);
                got.clear();
                simd::linf_within_block(&probe, &block, lanes.clone(), eps, &mut got);
                prop_assert_eq!(&got, &want_li, "linf at {:?} lanes {:?}", tier, &lanes);
                got.clear();
                simd::lp_within_block(&probe, &block, lanes.clone(), eps, 2.5, &mut got);
                prop_assert_eq!(&got, &want_lp, "lp at {:?} lanes {:?}", tier, &lanes);
            }
        }
        simd::set_level(saved);
    }

    #[test]
    fn soa_transpose_round_trips_bit_exactly(ds in small_dataset()) {
        let n = ds.len() as u32;
        // Contiguous transpose: every (lane, dim) cell is the source
        // coordinate, bit for bit.
        let block = SoABlock::from_range(&ds, 0..n);
        prop_assert_eq!(block.len(), ds.len());
        for t in 0..block.len() {
            let j = block.ids()[t];
            prop_assert_eq!(j, t as u32);
            for dim in 0..ds.dims() {
                prop_assert_eq!(
                    block.value(dim, t).to_bits(),
                    ds.point(j)[dim].to_bits(),
                    "lane {} dim {}", t, dim
                );
            }
        }
        // Padding lanes replicate a real candidate, so padded kernels can
        // never fault or produce non-finite terms.
        let last = ds.point(n - 1);
        for t in block.len()..block.width() {
            for (dim, &want) in last.iter().enumerate() {
                prop_assert_eq!(block.value(dim, t).to_bits(), want.to_bits());
            }
        }
        // Arbitrary-order gather (here: reversed ids) round-trips too.
        let js: Vec<u32> = (0..n).rev().collect();
        let gathered = SoABlock::gather(&ds, &js);
        prop_assert_eq!(gathered.ids(), &js[..]);
        for (t, &j) in js.iter().enumerate() {
            for dim in 0..ds.dims() {
                prop_assert_eq!(
                    gathered.value(dim, t).to_bits(),
                    ds.point(j)[dim].to_bits(),
                    "gathered lane {} dim {}", t, dim
                );
            }
        }
    }
}
