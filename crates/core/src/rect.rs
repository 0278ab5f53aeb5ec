//! Axis-aligned hyper-rectangles (minimum bounding rectangles).

/// An axis-aligned `d`-dimensional rectangle `[lo, hi]` (closed on both
/// sides), the building block of the R-tree and ε-KDB structures.
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Rect {
    /// The empty rectangle in `d` dimensions: `lo = +∞`, `hi = −∞`. Growing
    /// it by any point or rectangle yields that point/rectangle.
    pub fn empty(dims: usize) -> Rect {
        Rect {
            lo: vec![f64::INFINITY; dims],
            hi: vec![f64::NEG_INFINITY; dims],
        }
    }

    /// A degenerate rectangle covering exactly one point.
    pub fn point(p: &[f64]) -> Rect {
        Rect {
            lo: p.to_vec(),
            hi: p.to_vec(),
        }
    }

    /// Builds a rectangle from explicit bounds. Panics (debug) when
    /// dimensions differ.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Rect {
        debug_assert_eq!(lo.len(), hi.len());
        Rect { lo, hi }
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// True when no point has been added yet (any inverted side).
    pub fn is_empty(&self) -> bool {
        self.lo.iter().zip(&self.hi).any(|(l, h)| l > h)
    }

    /// Grows the rectangle to cover `p`.
    pub fn grow_point(&mut self, p: &[f64]) {
        debug_assert_eq!(p.len(), self.dims());
        for ((lo, hi), &v) in self.lo.iter_mut().zip(self.hi.iter_mut()).zip(p) {
            if v < *lo {
                *lo = v;
            }
            if v > *hi {
                *hi = v;
            }
        }
    }

    /// Grows the rectangle to cover `other`.
    pub fn grow_rect(&mut self, other: &Rect) {
        for i in 0..self.dims() {
            if other.lo[i] < self.lo[i] {
                self.lo[i] = other.lo[i];
            }
            if other.hi[i] > self.hi[i] {
                self.hi[i] = other.hi[i];
            }
        }
    }

    /// True when the rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((alo, ahi), (blo, bhi))| alo <= bhi && blo <= ahi)
    }

    /// True when `p` lies inside the (closed) rectangle.
    pub fn contains_point(&self, p: &[f64]) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(p)
            .all(|((lo, hi), v)| lo <= v && v <= hi)
    }

    /// True when `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((alo, ahi), (blo, bhi))| alo <= blo && bhi <= ahi)
    }

    /// L∞ minimum distance between the rectangles (0 when they intersect).
    ///
    /// Node pruning in RSJ uses `mindist_linf(a, b) > ε` because the ε-ball
    /// of every Lp metric is contained in the L∞ ε-cube, making the prune
    /// safe for all supported metrics.
    pub fn mindist_linf(&self, other: &Rect) -> f64 {
        let mut m = 0.0f64;
        for i in 0..self.dims() {
            let gap = (other.lo[i] - self.hi[i])
                .max(self.lo[i] - other.hi[i])
                .max(0.0);
            if gap > m {
                m = gap;
            }
        }
        m
    }

    /// L∞ minimum distance from the rectangle to the point `p`: the value
    /// of `self.mindist_linf(&Rect::point(p))`, without allocating.
    pub fn mindist_linf_point(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.dims());
        let mut m = 0.0f64;
        for ((&lo, &hi), &v) in self.lo.iter().zip(&self.hi).zip(p) {
            let gap = (v - hi).max(lo - v).max(0.0);
            if gap > m {
                m = gap;
            }
        }
        m
    }

    /// Squared L2 minimum distance between the rectangles.
    pub fn mindist_l2_sq(&self, other: &Rect) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.dims() {
            let gap = (other.lo[i] - self.hi[i])
                .max(self.lo[i] - other.hi[i])
                .max(0.0);
            acc += gap * gap;
        }
        acc
    }

    /// Volume (product of side lengths); 0 for empty rectangles.
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).product()
    }

    /// Sum of side lengths (the "margin" criterion of the R*-tree split).
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).sum()
    }

    /// Volume the rectangle would gain if grown to cover `other`.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        let mut grown = self.clone();
        grown.grow_rect(other);
        grown.volume() - self.volume()
    }

    /// Center coordinate along dimension `dim`.
    pub fn center(&self, dim: usize) -> f64 {
        (self.lo[dim] + self.hi[dim]) / 2.0
    }

    /// Expands each side by `delta` in both directions (the ε/2 cube
    /// expansion used when reducing a similarity join to an intersection
    /// join).
    pub fn expanded(&self, delta: f64) -> Rect {
        Rect {
            lo: self.lo.iter().map(|v| v - delta).collect(),
            hi: self.hi.iter().map(|v| v + delta).collect(),
        }
    }
}

/// True when points `a` and `b` lie within L∞ distance `eps`: accepts
/// exactly the pairs `Rect::point(a).mindist_linf(&Rect::point(b)) <= eps`
/// accepts, without allocating.
#[inline]
pub fn linf_within(a: &[f64], b: &[f64], eps: f64) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .all(|(x, y)| (y - x).max(x - y).max(0.0) <= eps)
}

/// Squared L2 distance between points `a` and `b`, summed in dimension
/// order: bit-identical to `Rect::point(a).mindist_l2_sq(&Rect::point(b))`
/// on finite coordinates, without allocating.
#[inline]
pub fn l2_dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let gap = x - y;
        acc += gap * gap;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_tests_agree_with_rect_mindist() {
        // Exact ties at ε, values a rounding step either side of it,
        // signed zeros, and magnitudes far apart.
        let eps = 0.1f64;
        let vals = [
            0.0,
            -0.0,
            eps,
            -eps,
            1.0,
            1.0 - eps,
            1.0 + eps,
            f64::from_bits((1.0 - eps).to_bits() - 1),
            f64::from_bits((1.0 - eps).to_bits() + 1),
            0.3,
            0.2,
            0.1 + 0.2,
            1e-300,
            1e100,
            -1e100,
        ];
        for eps in [0.1, 0.2, 1e-300, 1.0] {
            for &a0 in &vals {
                for &b0 in &vals {
                    for &a1 in &[0.0, 0.05, 0.9] {
                        let a = [a0, a1];
                        let b = [b0, 0.0];
                        let ra = Rect::point(&a);
                        let rb = Rect::point(&b);
                        assert_eq!(
                            linf_within(&a, &b, eps),
                            ra.mindist_linf(&rb) <= eps,
                            "{a:?} {b:?} eps={eps}"
                        );
                        assert_eq!(
                            l2_dist_sq(&a, &b).to_bits(),
                            ra.mindist_l2_sq(&rb).to_bits(),
                            "{a:?} {b:?}"
                        );
                        assert_eq!(
                            rb.mindist_linf_point(&a).to_bits(),
                            rb.mindist_linf(&ra).to_bits(),
                            "{a:?} {b:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mindist_linf_point_matches_point_rect() {
        let r = Rect::new(vec![0.2, 0.4], vec![0.5, 0.9]);
        for p in [[0.3, 0.5], [0.0, 0.5], [0.7, 1.2], [0.5, 0.4], [-1.0, 3.0]] {
            assert_eq!(
                r.mindist_linf_point(&p).to_bits(),
                r.mindist_linf(&Rect::point(&p)).to_bits()
            );
        }
    }

    #[test]
    fn empty_grows_to_point() {
        let mut r = Rect::empty(2);
        assert!(r.is_empty());
        assert_eq!(r.volume(), 0.0);
        r.grow_point(&[0.5, 0.25]);
        assert!(!r.is_empty());
        assert_eq!(r, Rect::point(&[0.5, 0.25]));
        assert_eq!(r.volume(), 0.0); // degenerate but non-empty
    }

    #[test]
    fn grow_rect_and_containment() {
        let mut r = Rect::point(&[0.0, 0.0]);
        r.grow_rect(&Rect::point(&[1.0, 2.0]));
        assert!(r.contains_point(&[0.5, 1.0]));
        assert!(!r.contains_point(&[1.5, 1.0]));
        assert!(r.contains_rect(&Rect::new(vec![0.2, 0.2], vec![0.8, 1.8])));
        assert!(!r.contains_rect(&Rect::new(vec![0.2, 0.2], vec![0.8, 2.5])));
    }

    #[test]
    fn intersection_is_symmetric_and_touching_counts() {
        let a = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let b = Rect::new(vec![1.0, 1.0], vec![2.0, 2.0]); // shares the corner
        let c = Rect::new(vec![1.1, 1.1], vec![2.0, 2.0]);
        assert!(a.intersects(&b) && b.intersects(&a));
        assert!(!a.intersects(&c) && !c.intersects(&a));
    }

    #[test]
    fn mindist_values() {
        let a = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let b = Rect::new(vec![2.0, 0.5], vec![3.0, 0.6]); // gap 1 on x only
        assert_eq!(a.mindist_linf(&b), 1.0);
        assert_eq!(a.mindist_l2_sq(&b), 1.0);
        let c = Rect::new(vec![2.0, 3.0], vec![3.0, 4.0]); // gaps (1, 2)
        assert_eq!(a.mindist_linf(&c), 2.0);
        assert_eq!(a.mindist_l2_sq(&c), 5.0);
        assert_eq!(a.mindist_linf(&a), 0.0);
    }

    #[test]
    fn volume_margin_enlargement() {
        let a = Rect::new(vec![0.0, 0.0], vec![2.0, 3.0]);
        assert_eq!(a.volume(), 6.0);
        assert_eq!(a.margin(), 5.0);
        let b = Rect::new(vec![0.0, 0.0], vec![4.0, 3.0]);
        assert_eq!(a.enlargement(&b), 6.0);
        assert_eq!(b.enlargement(&a), 0.0);
    }

    #[test]
    fn expanded_cube() {
        let r = Rect::point(&[0.5, 0.5]).expanded(0.1);
        assert!((r.lo()[0] - 0.4).abs() < 1e-12);
        assert!((r.hi()[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn center() {
        let r = Rect::new(vec![0.0, 1.0], vec![1.0, 3.0]);
        assert_eq!(r.center(0), 0.5);
        assert_eq!(r.center(1), 2.0);
    }
}
