//! Runtime-dispatched SIMD block kernels.
//!
//! SIMD dispatch covers one job: filtering one probe row against a
//! [`SoABlock`] candidate tile (`*_within_block`), vectorized *across
//! candidates* — four (AVX2) or two (SSE2) candidate lanes per vector, one
//! accumulator vector per dimension lane, streaming the tile's contiguous
//! dimension columns. Single pairs never dispatch: [`crate::metric`] calls
//! the inlined 4-lane scalar kernels in [`crate::kernels`] directly.
//!
//! Every block dispatcher here is thin: a one-time capability probe picks
//! the best tier the host supports (AVX2 → SSE2 → scalar on x86-64; the
//! portable strided kernels everywhere else), and all subsequent calls
//! jump straight to that tier. The probe honours the `HDSJ_SIMD`
//! environment variable (`off`/`scalar`, `sse2`, `avx2` — clamped to what
//! the host actually supports), and tests/benches can override it
//! programmatically with [`set_level`].
//!
//! ## The exactness contract
//!
//! Dispatch would be useless if the tiers disagreed. They cannot: every
//! tier computes, per candidate, the *bit-identical* sum of the 4-lane
//! scalar kernels in [`crate::kernels`] — dimensions `≡ k (mod 4)` feed
//! lane accumulator `k`, the per-candidate result is the canonical fold
//! `(acc0 + acc1) + (acc2 + acc3)` plus a separately chained scalar tail,
//! all in plain IEEE sub/mul/add (never FMA). Early exits only ever
//! compare a *partial* monotone fold against the budget, so `within`
//! decisions equal the full-sum decision at every tier, and join results
//! do not depend on the dispatch level. `Lp` for general `p` is
//! `powf`-bound and stays on the portable kernels at every tier.

pub mod portable;
pub mod tile;

#[cfg(target_arch = "x86_64")]
mod x86;

use crate::soa::SoABlock;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};

/// A kernel tier. Discriminants order tiers by capability so clamping a
/// request to the host is a numeric comparison; `0` is reserved in the
/// private `DISPATCH` atomic for "not probed yet".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The portable strided block kernels in [`portable`] — always
    /// available, and the oracle every other tier is differentially
    /// tested against.
    Scalar = 1,
    /// Two f64 lanes per vector (x86-64 baseline; no runtime probe needed).
    Sse2 = 2,
    /// Four f64 lanes per vector (runtime-probed).
    Avx2 = 3,
}

impl Level {
    /// Stable lowercase name, matching the `HDSJ_SIMD` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Sse2 => "sse2",
            Level::Avx2 => "avx2",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            2 => Level::Sse2,
            3 => Level::Avx2,
            _ => Level::Scalar,
        }
    }
}

/// The resolved dispatch level. `0` = not probed yet; otherwise a
/// [`Level`] discriminant. Probing is idempotent (every racer computes
/// the same value for a given environment), so relaxed ordering suffices.
static DISPATCH: AtomicU8 = AtomicU8::new(0);

/// The active dispatch level, probing the host (and `HDSJ_SIMD`) on the
/// first call.
pub fn level() -> Level {
    // ORDERING: Relaxed is sufficient — DISPATCH is a standalone gate with
    // no dependent data; racing initializers all store the same value.
    let v = DISPATCH.load(Ordering::Relaxed);
    if v != 0 {
        return Level::from_u8(v);
    }
    let resolved = clamp(requested());
    // ORDERING: Relaxed — idempotent publish; every racer derived the
    // identical value from the same environment and host capabilities.
    DISPATCH.store(resolved as u8, Ordering::Relaxed);
    resolved
}

/// Forces the dispatch level (clamped to what the host supports) and
/// returns the effective level. Test and bench sweeps use this to run the
/// same workload at every tier.
pub fn set_level(requested: Level) -> Level {
    let effective = clamp(requested);
    // ORDERING: Relaxed — standalone gate, no dependent data to publish.
    DISPATCH.store(effective as u8, Ordering::Relaxed);
    effective
}

/// Every tier this host can run, in ascending capability order (always
/// starts with [`Level::Scalar`]).
pub fn supported() -> Vec<Level> {
    let mut tiers = vec![Level::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        tiers.push(Level::Sse2);
        if std::arch::is_x86_feature_detected!("avx2") {
            tiers.push(Level::Avx2);
        }
    }
    tiers
}

/// The best tier this host supports.
pub fn best() -> Level {
    supported().last().copied().unwrap_or(Level::Scalar)
}

/// The level the environment asks for: `HDSJ_SIMD` if set (unknown values
/// fall back to the host's best), else the host's best.
fn requested() -> Level {
    match std::env::var("HDSJ_SIMD") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "off" | "scalar" | "0" => Level::Scalar,
            "sse2" => Level::Sse2,
            "avx2" => Level::Avx2,
            _ => best(),
        },
        Err(_) => best(),
    }
}

/// Clamps a requested tier to the host: the most capable supported tier
/// that does not exceed the request (requesting `avx2` on an SSE2-only
/// host yields `sse2`; requesting `avx2` off x86-64 yields `scalar`).
fn clamp(requested: Level) -> Level {
    supported()
        .into_iter()
        .filter(|l| *l <= requested)
        .max()
        .unwrap_or(Level::Scalar)
}

// ---------------------------------------------------------------------
// Block dispatchers: one probe row against a SoA candidate tile. Each
// match carries a `_` arm to the portable kernels: `clamp` never stores a
// tier the host lacks, so off x86-64 the arm is the only one, and on
// x86-64 it only ever runs for `Level::Scalar`.
// ---------------------------------------------------------------------

/// L1 block filter: pushes ids of lanes in `lanes` whose L1 distance to
/// `probe` is `≤ eps`, in lane order.
pub fn l1_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => x86::sse2_l1_within_block(probe, block, lanes, eps, out),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => x86::avx2_l1_within_block(probe, block, lanes, eps, out),
        _ => portable::l1_within_block(probe, block, lanes, eps, out),
    }
}

/// L2 block filter (squared domain; see [`l1_within_block`] for shape).
pub fn l2_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => x86::sse2_l2_within_block(probe, block, lanes, eps, out),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => x86::avx2_l2_within_block(probe, block, lanes, eps, out),
        _ => portable::l2_within_block(probe, block, lanes, eps, out),
    }
}

/// L∞ block filter (see [`l1_within_block`] for shape).
pub fn linf_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => x86::sse2_linf_within_block(probe, block, lanes, eps, out),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => x86::avx2_linf_within_block(probe, block, lanes, eps, out),
        _ => portable::linf_within_block(probe, block, lanes, eps, out),
    }
}

/// Lp block filter — the portable strided path at every tier.
pub fn lp_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    p: f64,
    out: &mut Vec<u32>,
) {
    portable::lp_within_block(probe, block, lanes, eps, p, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    fn ds(n: usize, dims: usize) -> Dataset {
        let flat: Vec<f64> = (0..n * dims)
            .map(|i| ((i as f64 * 0.43).sin() * 0.5 + 0.5).abs())
            .collect();
        Dataset::from_flat(dims, flat).unwrap()
    }

    #[test]
    fn clamp_never_exceeds_the_request_or_the_host() {
        for req in [Level::Scalar, Level::Sse2, Level::Avx2] {
            let eff = clamp(req);
            assert!(eff <= req, "{req:?} -> {eff:?}");
            assert!(supported().contains(&eff), "{req:?} -> {eff:?}");
        }
        assert_eq!(clamp(Level::Scalar), Level::Scalar);
    }

    #[test]
    fn supported_starts_with_scalar_and_is_ascending() {
        let tiers = supported();
        assert_eq!(tiers[0], Level::Scalar);
        assert!(tiers.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(best(), *tiers.last().unwrap());
    }

    #[test]
    fn block_dispatch_matches_portable_at_every_tier() {
        let d = ds(23, 17);
        let block = crate::soa::SoABlock::from_range(&d, 0..23);
        let probe = d.point(11).to_vec();
        let saved = level();
        for tier in supported() {
            set_level(tier);
            for eps in [0.1, 0.6, 2.0] {
                for (name, f) in [
                    (
                        "l1",
                        l1_within_block
                            as fn(&[f64], &SoABlock, Range<usize>, f64, &mut Vec<u32>),
                    ),
                    ("l2", l2_within_block),
                    ("linf", linf_within_block),
                ] {
                    let mut got = Vec::new();
                    f(&probe, &block, 0..23, eps, &mut got);
                    let mut want = Vec::new();
                    match name {
                        "l1" => {
                            portable::l1_within_block(&probe, &block, 0..23, eps, &mut want)
                        }
                        "l2" => {
                            portable::l2_within_block(&probe, &block, 0..23, eps, &mut want)
                        }
                        _ => portable::linf_within_block(&probe, &block, 0..23, eps, &mut want),
                    }
                    assert_eq!(got, want, "{name} {tier:?} eps={eps}");
                }
            }
        }
        set_level(saved);
    }

    #[test]
    fn level_names_round_trip_the_env_spelling() {
        for l in [Level::Scalar, Level::Sse2, Level::Avx2] {
            assert!(!l.name().is_empty());
        }
        assert_eq!(Level::from_u8(Level::Avx2 as u8), Level::Avx2);
        assert_eq!(Level::from_u8(0), Level::Scalar);
    }
}
