//! The synchronized stack sweep over the sorted level-file stream.
//!
//! The sorted stream visits cells in depth-first order of the hierarchy.
//! The sweep maintains a stack of *open* cells — exactly the ancestors of
//! the current cell — and joins each arriving cell against itself and the
//! stack. Correctness rests on the size-separation invariant: a cube
//! assigned to cell `c` lies entirely inside `c`, and grid cells of the
//! hierarchy are either nested or disjoint, so two intersecting cubes must
//! sit in ancestor-related cells.
//!
//! ## Windows over per-cell blocks
//!
//! When a cell closes, its points are sorted by the first coordinate and
//! its *inner* list — the left input of a self-join, the right input of a
//! two-set join — is transposed once into a dimension-major
//! [`SoABlock`], in that sorted order. Every later pairing that reads the
//! cell as its inner side (the cell itself, and every descendant cell
//! that arrives while it sits on the stack) refines against that block.
//!
//! Inside a cell pair, a plane sweep along dimension 0 bounds the
//! candidates before the exact metric runs. Both sides are sorted by
//! `x0`, so each probe's ε-window in the inner block is a contiguous lane
//! range, found with two monotone pointers. The sweep emits one
//! **window** per probe — `(probe id, &block, lane range)` — and never
//! materializes individual candidate pairs: the caller hands each window
//! to `Refiner::offer_block` (serial) or ships it to a refine worker
//! (parallel). Blocks are held as `Arc<SoABlock>` so a window can outlive
//! its cell's stay on the stack.
//!
//! Probes come from the block itself in self-joins (`col(0)` and
//! `ids()`), so each point is stored once; a two-set join additionally
//! keeps its left points as a sorted `(x0, id)` probe list.

use crate::assign::{prefix_bits_equal, RecordCodec, TAG_A};
use hdsj_core::{Dataset, Error, JoinKind, Result, SoABlock};
use hdsj_storage::RecordFile;
use std::ops::Range;
use std::sync::Arc;

/// Receives one ε-window: probe row `i` against lanes `lanes` of a cell's
/// inner block. Windows are never empty.
pub type WindowSink<'f> = dyn FnMut(u32, &Arc<SoABlock>, Range<usize>) + 'f;

/// The cell whose records the cursor is currently reading.
struct FillingCell {
    key: Vec<u8>,
    level: u8,
    /// `(x0, id)` of left-input points.
    a: Vec<(f64, u32)>,
    /// Right-input points (two-set joins only).
    b: Vec<(f64, u32)>,
}

/// One closed cell on the sweep stack.
struct OpenCell {
    key: Vec<u8>,
    level: u8,
    /// The inner list (left points of a self-join, right points of a
    /// two-set join), transposed once in `x0` order.
    block: Arc<SoABlock>,
    /// `(x0, id)` of left-input points sorted by `x0`: the probe side of a
    /// two-set join. Empty for self-joins, whose probes read `block`.
    probes: Vec<(f64, u32)>,
}

impl OpenCell {
    fn bytes(&self) -> u64 {
        let block = self.block.data().len() * 8 + self.block.ids().len() * 4;
        (self.key.len() + self.probes.len() * 12 + block + 64) as u64
    }
}

/// The `(x0, id)` of every real lane of `block`, in lane order.
fn block_points(block: &SoABlock) -> impl Iterator<Item = (f64, u32)> + '_ {
    block
        .col(0)
        .iter()
        .copied()
        .zip(block.ids().iter().copied())
}

/// Runs the sweep, passing every candidate window to `emit` (serial runs
/// refine it inline; parallel runs ship it to a worker). Returns the peak
/// bytes held by the stack (the algorithm's structure memory, experiment
/// E5).
pub fn sweep(
    sorted: &RecordFile,
    codec: &RecordCodec,
    a: &Dataset,
    b: &Dataset,
    kind: JoinKind,
    eps: f64,
    emit: &mut WindowSink<'_>,
) -> Result<u64> {
    let dims = a.dims() as u32;
    let mut stack: Vec<OpenCell> = Vec::new();
    let mut current: Option<FillingCell> = None;
    let mut peak_bytes = 0u64;
    let mut cursor = sorted.cursor();

    while let Some(rec) = cursor.next()? {
        let key = codec.key_of(rec);
        let (level, tag, id) = codec.meta_of(rec);
        let same_cell = current
            .as_ref()
            .map(|c| c.level == level && c.key[..] == *key)
            .unwrap_or(false);
        if !same_cell {
            // Close out the previous cell: join it and push it.
            if let Some(cell) = current.take() {
                let cell = close_cell(cell, a, b, kind);
                process_cell(cell, &mut stack, kind, eps, emit, &mut peak_bytes);
            }
            // Pop stack cells that are not ancestors of the new cell.
            while let Some(top) = stack.last() {
                let is_ancestor = top.level < level
                    && prefix_bits_equal(&top.key, key, dims * top.level as u32);
                if is_ancestor {
                    break;
                }
                stack.pop();
            }
            current = Some(FillingCell {
                key: key.to_vec(),
                level,
                a: Vec::new(),
                b: Vec::new(),
            });
        }
        let Some(cell) = current.as_mut() else {
            // The branch above opens a cell whenever none matched; an empty
            // slot here is a sweep logic bug, reported as a typed error.
            return Err(Error::Storage("sweep lost its open cell".into()));
        };
        let (ds, list) = if tag == TAG_A {
            (a, &mut cell.a)
        } else {
            (b, &mut cell.b)
        };
        list.push((ds.point(id)[0], id));
    }
    if let Some(cell) = current.take() {
        let cell = close_cell(cell, a, b, kind);
        process_cell(cell, &mut stack, kind, eps, emit, &mut peak_bytes);
    }
    Ok(peak_bytes)
}

/// Sorts a completed cell's points by `x0` and transposes its inner list
/// into the cell's block.
fn close_cell(mut cell: FillingCell, a: &Dataset, b: &Dataset, kind: JoinKind) -> OpenCell {
    // total_cmp gives a total order even on NaN coordinates (datasets
    // reject them, but the sweep must not be able to panic on bad data).
    let by_x0 = |x: &(f64, u32), y: &(f64, u32)| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1));
    cell.a.sort_unstable_by(by_x0);
    cell.b.sort_unstable_by(by_x0);
    let (inner_ds, inner, probes) = match kind {
        JoinKind::SelfJoin => (a, cell.a, Vec::new()),
        JoinKind::TwoSets => (b, cell.b, cell.a),
    };
    let ids: Vec<u32> = inner.iter().map(|&(_, id)| id).collect();
    OpenCell {
        key: cell.key,
        level: cell.level,
        block: Arc::new(SoABlock::gather(inner_ds, &ids)),
        probes,
    }
}

/// Joins a freshly closed cell against itself and the open ancestors,
/// then pushes it.
fn process_cell(
    cell: OpenCell,
    stack: &mut Vec<OpenCell>,
    kind: JoinKind,
    eps: f64,
    emit: &mut WindowSink<'_>,
    peak_bytes: &mut u64,
) {
    match kind {
        JoinKind::SelfJoin => {
            let own = &cell.block;
            sweep_within(own, eps, &mut |i, lanes| emit(i, own, lanes));
            // allow(hdsj::lifecycle_poll): ancestor stack depth ≤ curve
            // depth (20); the cursor feeding cells polls per page.
            for anc in stack.iter() {
                let inner = &anc.block;
                sweep_pair(block_points(own), inner, eps, &mut |i, lanes| {
                    emit(i, inner, lanes)
                });
            }
        }
        JoinKind::TwoSets => {
            let own = &cell.block;
            let probes = || cell.probes.iter().copied();
            sweep_pair(probes(), own, eps, &mut |i, lanes| emit(i, own, lanes));
            // allow(hdsj::lifecycle_poll): ancestor stack depth ≤ curve
            // depth, see the self-join arm.
            for anc in stack.iter() {
                // Left points of the new cell × right points of ancestors,
                // and vice versa; orientation is always (a-id, b-id).
                let inner = &anc.block;
                sweep_pair(probes(), inner, eps, &mut |i, lanes| emit(i, inner, lanes));
                sweep_pair(anc.probes.iter().copied(), own, eps, &mut |i, lanes| {
                    emit(i, own, lanes)
                });
            }
        }
    }

    stack.push(cell);
    let bytes: u64 = stack.iter().map(|c| c.bytes()).sum();
    *peak_bytes = (*peak_bytes).max(bytes);
}

/// Unordered pairs within one sorted block whose `x0` differ by at most
/// ε: each lane `t` gets the window of later lanes `t + 1..hi`.
fn sweep_within(inner: &SoABlock, eps: f64, emit: &mut dyn FnMut(u32, Range<usize>)) {
    let xs = &inner.col(0)[..inner.len()];
    let mut hi = 0usize;
    // allow(hdsj::lifecycle_poll): ε-window scan inside one cell; the
    // cursor that fills cells polls on every page fetch.
    for (t, (x0, i)) in block_points(inner).enumerate() {
        hi = hi.max(t + 1);
        while hi < xs.len() && xs[hi] - x0 <= eps {
            hi += 1;
        }
        if hi > t + 1 {
            emit(i, t + 1..hi);
        }
    }
}

/// Cross pairs of sorted probes and a sorted block whose `x0` differ by
/// at most ε: each probe gets the lanes `start..hi` of its window.
fn sweep_pair(
    probes: impl Iterator<Item = (f64, u32)>,
    inner: &SoABlock,
    eps: f64,
    emit: &mut dyn FnMut(u32, Range<usize>),
) {
    let ys = &inner.col(0)[..inner.len()];
    let (mut start, mut hi) = (0usize, 0usize);
    // allow(hdsj::lifecycle_poll): ε-window scan across two cells' points;
    // bounded by per-cell occupancy, polled at the cursor feeding them.
    for (x0, i) in probes {
        while start < ys.len() && ys[start] < x0 - eps {
            start += 1;
        }
        hi = hi.max(start);
        while hi < ys.len() && ys[hi] - x0 <= eps {
            hi += 1;
        }
        if hi > start {
            emit(i, start..hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-dimensional block whose lane `t` holds row `pts[t].1` at
    /// coordinate `pts[t].0` (`pts` given in lane order).
    fn block(pts: &[(f64, u32)]) -> SoABlock {
        let rows = pts
            .iter()
            .map(|&(_, id)| id as usize + 1)
            .max()
            .unwrap_or(0);
        let mut coords = vec![vec![0.0]; rows];
        for &(x0, id) in pts {
            coords[id as usize][0] = x0;
        }
        let ids: Vec<u32> = pts.iter().map(|&(_, id)| id).collect();
        if coords.is_empty() {
            return SoABlock::empty(1);
        }
        SoABlock::gather(&Dataset::from_rows(&coords).unwrap(), &ids)
    }

    /// Runs `sweep_within`, returning its windows.
    fn within(pts: &[(f64, u32)], eps: f64) -> Vec<(u32, Range<usize>)> {
        let mut out = Vec::new();
        sweep_within(&block(pts), eps, &mut |i, lanes| out.push((i, lanes)));
        out
    }

    /// Runs `sweep_pair`, returning its windows.
    fn pair(xs: &[(f64, u32)], ys: &[(f64, u32)], eps: f64) -> Vec<(u32, Range<usize>)> {
        let mut out = Vec::new();
        sweep_pair(xs.iter().copied(), &block(ys), eps, &mut |i, lanes| {
            out.push((i, lanes))
        });
        out
    }

    /// Expands windows over `inner` into the candidate pairs they cover.
    fn pairs_of(windows: &[(u32, Range<usize>)], inner: &[(f64, u32)]) -> Vec<(u32, u32)> {
        windows
            .iter()
            .flat_map(|(i, lanes)| inner[lanes.clone()].iter().map(move |&(_, j)| (*i, j)))
            .collect()
    }

    #[test]
    fn sweep_within_respects_window() {
        let xs = [(0.1, 0), (0.15, 1), (0.5, 2), (0.52, 3)];
        let w = within(&xs, 0.1);
        assert_eq!(w, vec![(0, 1..2), (2, 3..4)]);
        assert_eq!(pairs_of(&w, &xs), vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn sweep_pair_windows_both_sides() {
        let xs = [(0.1, 0), (0.5, 1)];
        let ys = [(0.05, 10), (0.18, 11), (0.45, 12), (0.9, 13)];
        let w = pair(&xs, &ys, 0.1);
        assert_eq!(w, vec![(0, 0..2), (1, 2..3)]);
        assert_eq!(pairs_of(&w, &ys), vec![(0, 10), (0, 11), (1, 12)]);
    }

    #[test]
    fn sweep_pair_empty_lists() {
        assert!(pair(&[], &[(0.5, 1)], 0.1).is_empty());
        assert!(pair(&[(0.5, 1)], &[], 0.1).is_empty());
        assert!(pair(&[], &[], 0.1).is_empty());
        assert!(within(&[], 0.1).is_empty());
        assert!(within(&[(0.5, 3)], 0.1).is_empty());
    }

    #[test]
    fn gap_of_exactly_eps_is_inside_the_window() {
        // 0.75 - 0.5 == 0.25 and 0.5 - 0.25 == 0.25 exactly in binary.
        let xs = [(0.5, 0), (0.75, 1)];
        assert_eq!(within(&xs, 0.25), vec![(0, 1..2)]);
        // The gap sits below the probe (start test) and above it (hi test).
        let ys = [(0.25, 5), (0.5, 6), (0.75, 7), (1.0, 8)];
        assert_eq!(pair(&[(0.5, 0)], &ys, 0.25), vec![(0, 0..3)]);
        assert_eq!(pair(&[(0.75, 1)], &ys, 0.25), vec![(1, 1..4)]);
    }

    #[test]
    fn duplicate_x0_values_pair_up() {
        let xs = [(0.3, 0), (0.3, 1), (0.3, 2), (0.9, 3)];
        assert_eq!(within(&xs, 0.0), vec![(0, 1..3), (1, 2..3)]);
        let ys = [(0.3, 7), (0.3, 8), (0.6, 9)];
        let w = pair(&xs, &ys, 0.0);
        assert_eq!(w, vec![(0, 0..2), (1, 0..2), (2, 0..2)]);
        assert_eq!(pairs_of(&pair(&[(0.6, 4)], &ys, 0.0), &ys), vec![(4, 9)]);
    }

    #[test]
    fn empty_window_between_non_empty_ones() {
        // The middle probe (0.5) finds nothing; its neighbours do, and the
        // monotone pointers still land on the right lanes afterwards.
        let xs = [(0.1, 0), (0.5, 1), (0.9, 2)];
        let ys = [(0.12, 10), (0.15, 11), (0.88, 12), (0.95, 13)];
        let w = pair(&xs, &ys, 0.1);
        assert_eq!(w, vec![(0, 0..2), (2, 2..4)]);
        let lone = [(0.1, 0), (0.12, 1), (0.5, 2), (0.9, 3), (0.95, 4)];
        assert_eq!(within(&lone, 0.1), vec![(0, 1..2), (3, 4..5)]);
    }
}
