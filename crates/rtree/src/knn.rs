//! Best-first k-nearest-neighbour search over the paged R-tree
//! (Hjaltason & Samet's incremental algorithm).
//!
//! Not part of the paper's join evaluation, but the natural companion
//! query: the same index that accelerates the ε-join answers "give me the k
//! closest points" by expanding nodes in order of their MBR mindist.

use crate::node::Node;
use crate::tree::RTree;
use hdsj_core::rect::l2_dist_sq;
use hdsj_core::{Error, Rect, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One kNN result.
#[derive(Clone, Debug, PartialEq)]
pub struct Neighbour {
    /// Point id in the indexed dataset.
    pub id: u32,
    /// Euclidean distance to the query.
    pub dist: f64,
}

/// Priority-queue element: a node or a point, keyed by (squared) distance.
struct QueueItem {
    dist_sq: f64,
    payload: Payload,
}

enum Payload {
    NodePage(u64),
    Point(u32),
}

impl PartialEq for QueueItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist_sq == other.dist_sq
    }
}
impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance: reverse the comparison.
        other.dist_sq.total_cmp(&self.dist_sq)
    }
}

impl RTree {
    /// The `k` nearest points to `query` under L2, ties broken by id order
    /// of heap extraction. Returns fewer than `k` when the tree is smaller.
    pub fn knn(&self, query: &[f64], k: usize) -> Result<Vec<Neighbour>> {
        if query.len() != self.dims() {
            return Err(Error::InvalidInput(format!(
                "query point has {} dims, tree has {}",
                query.len(),
                self.dims()
            )));
        }
        if k == 0 {
            return Ok(Vec::new());
        }
        let qrect = Rect::point(query);
        let mut heap = BinaryHeap::new();
        heap.push(QueueItem {
            dist_sq: 0.0,
            payload: Payload::NodePage(self.root()),
        });
        let mut out = Vec::with_capacity(k);
        while let Some(item) = heap.pop() {
            match item.payload {
                Payload::Point(id) => {
                    out.push(Neighbour {
                        id,
                        dist: item.dist_sq.sqrt(),
                    });
                    if out.len() == k {
                        break;
                    }
                }
                Payload::NodePage(pid) => match Node::load(self.engine(), pid, self.dims())? {
                    Node::Leaf(leaf) => {
                        for (id, p) in leaf.iter() {
                            heap.push(QueueItem {
                                dist_sq: l2_dist_sq(query, p),
                                payload: Payload::Point(id),
                            });
                        }
                    }
                    Node::Inner(entries) => {
                        for e in entries {
                            heap.push(QueueItem {
                                dist_sq: qrect.mindist_l2_sq(&e.mbr),
                                payload: Payload::NodePage(e.child),
                            });
                        }
                    }
                },
            }
        }
        Ok(out)
    }
}

/// One result of a k-closest-pairs query.
#[derive(Clone, Debug, PartialEq)]
pub struct PairNeighbour {
    /// Point id in the left tree's dataset.
    pub i: u32,
    /// Point id in the right tree's dataset.
    pub j: u32,
    /// Euclidean distance between the points.
    pub dist: f64,
}

struct PairItem {
    dist_sq: f64,
    payload: PairPayload,
}

enum PairPayload {
    Nodes(u64, u64),
    Points(u32, u32),
}

impl PartialEq for PairItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist_sq == other.dist_sq
    }
}
impl Eq for PairItem {}
impl PartialOrd for PairItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PairItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other.dist_sq.total_cmp(&self.dist_sq)
    }
}

impl RTree {
    /// The `k` closest pairs between this tree and `other` (two-set
    /// variant), in ascending distance — the *distance join* companion of
    /// the ε-join: instead of a threshold, a result budget.
    ///
    /// Best-first search over node pairs ordered by MBR mindist: no node
    /// pair is expanded unless it could still contribute a top-k pair, the
    /// Hjaltason–Samet incremental-distance-join strategy.
    pub fn closest_pairs(&self, other: &RTree, k: usize) -> Result<Vec<PairNeighbour>> {
        if self.dims() != other.dims() {
            return Err(Error::InvalidInput(format!(
                "dimensionality mismatch: {} vs {}",
                self.dims(),
                other.dims()
            )));
        }
        self.closest_pairs_impl(other, k, false)
    }

    /// The `k` closest unordered pairs within this tree (`i < j`), in
    /// ascending distance.
    pub fn closest_pairs_self(&self, k: usize) -> Result<Vec<PairNeighbour>> {
        self.closest_pairs_impl(self, k, true)
    }

    fn closest_pairs_impl(
        &self,
        other: &RTree,
        k: usize,
        self_mode: bool,
    ) -> Result<Vec<PairNeighbour>> {
        if k == 0 {
            return Ok(Vec::new());
        }
        let mut heap = BinaryHeap::new();
        heap.push(PairItem {
            dist_sq: 0.0,
            payload: PairPayload::Nodes(self.root(), other.root()),
        });
        let mut out: Vec<PairNeighbour> = Vec::with_capacity(k);
        while let Some(item) = heap.pop() {
            match item.payload {
                PairPayload::Points(i, j) => {
                    // Self-mode: the symmetric duplicate (j, i) also sits in
                    // the heap; keep only the canonical orientation.
                    if self_mode && i >= j {
                        continue;
                    }
                    out.push(PairNeighbour {
                        i,
                        j,
                        dist: item.dist_sq.sqrt(),
                    });
                    if out.len() == k {
                        break;
                    }
                }
                PairPayload::Nodes(pa, pb) => {
                    let na = Node::load(self.engine(), pa, self.dims())?;
                    let nb = Node::load(other.engine(), pb, other.dims())?;
                    match (&na, &nb) {
                        (Node::Leaf(la), Node::Leaf(lb)) => {
                            for (xi, xp) in la.iter() {
                                for (yi, yp) in lb.iter() {
                                    if self_mode && pa == pb && xi >= yi {
                                        continue;
                                    }
                                    heap.push(PairItem {
                                        dist_sq: l2_dist_sq(xp, yp),
                                        payload: PairPayload::Points(xi, yi),
                                    });
                                }
                            }
                        }
                        (Node::Inner(ea), Node::Inner(eb)) => {
                            for x in ea {
                                for y in eb {
                                    heap.push(PairItem {
                                        dist_sq: x.mbr.mindist_l2_sq(&y.mbr),
                                        payload: PairPayload::Nodes(x.child, y.child),
                                    });
                                }
                            }
                        }
                        (Node::Inner(ea), Node::Leaf(_)) => {
                            let mb = nb.mbr(other.dims());
                            for x in ea {
                                heap.push(PairItem {
                                    dist_sq: x.mbr.mindist_l2_sq(&mb),
                                    payload: PairPayload::Nodes(x.child, pb),
                                });
                            }
                        }
                        (Node::Leaf(_), Node::Inner(eb)) => {
                            let ma = na.mbr(self.dims());
                            for y in eb {
                                heap.push(PairItem {
                                    dist_sq: ma.mindist_l2_sq(&y.mbr),
                                    payload: PairPayload::Nodes(pa, y.child),
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::BuildStrategy;
    use hdsj_core::Dataset;
    use hdsj_storage::StorageEngine;

    fn brute_knn(ds: &Dataset, query: &[f64], k: usize) -> Vec<Neighbour> {
        let mut all: Vec<Neighbour> = ds
            .iter()
            .map(|(id, p)| Neighbour {
                id,
                dist: p
                    .iter()
                    .zip(query)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt(),
            })
            .collect();
        all.sort_by(|a, b| {
            a.dist
                .partial_cmp(&b.dist)
                .expect("finite")
                .then(a.id.cmp(&b.id))
        });
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_linear_scan() {
        let ds = hdsj_data::uniform(4, 1_000, 55).unwrap();
        let eng = StorageEngine::in_memory(256);
        for strategy in [
            BuildStrategy::HilbertPack,
            BuildStrategy::Str,
            BuildStrategy::DynamicInsert,
        ] {
            let tree = RTree::build(&eng, &ds, strategy, 0.7).unwrap();
            for (qi, k) in [(3u32, 1usize), (77, 5), (500, 20)] {
                let query = ds.point(qi).to_vec();
                let got = tree.knn(&query, k).unwrap();
                let want = brute_knn(&ds, &query, k);
                assert_eq!(got.len(), k);
                // Distances must match exactly (ids may swap on ties).
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g.dist - w.dist).abs() < 1e-12,
                        "{strategy:?} q={qi} k={k}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn knn_of_indexed_point_finds_itself_first() {
        let ds = hdsj_data::uniform(6, 500, 56).unwrap();
        let eng = StorageEngine::in_memory(256);
        let tree = RTree::build(&eng, &ds, BuildStrategy::HilbertPack, 0.7).unwrap();
        let got = tree.knn(ds.point(123), 1).unwrap();
        assert_eq!(got[0].id, 123);
        assert_eq!(got[0].dist, 0.0);
    }

    #[test]
    fn knn_edge_cases() {
        let ds = hdsj_data::uniform(3, 5, 57).unwrap();
        let eng = StorageEngine::in_memory(64);
        let tree = RTree::build(&eng, &ds, BuildStrategy::HilbertPack, 0.7).unwrap();
        // k = 0.
        assert!(tree.knn(&[0.5, 0.5, 0.5], 0).unwrap().is_empty());
        // k larger than the dataset.
        assert_eq!(tree.knn(&[0.5, 0.5, 0.5], 50).unwrap().len(), 5);
        // Wrong dimensionality.
        assert!(tree.knn(&[0.5], 3).is_err());
        // Empty tree.
        let empty =
            RTree::build(&eng, &Dataset::new(3).unwrap(), BuildStrategy::Str, 0.7).unwrap();
        assert!(empty.knn(&[0.1, 0.2, 0.3], 4).unwrap().is_empty());
    }

    #[test]
    fn knn_results_are_sorted_by_distance() {
        let ds = hdsj_data::uniform(5, 800, 58).unwrap();
        let eng = StorageEngine::in_memory(256);
        let tree = RTree::build(&eng, &ds, BuildStrategy::Str, 0.7).unwrap();
        let got = tree.knn(&[0.3, 0.7, 0.5, 0.2, 0.9], 25).unwrap();
        assert!(got.windows(2).all(|w| w[0].dist <= w[1].dist));
    }
}

#[cfg(test)]
mod closest_pair_tests {
    use super::*;
    use crate::build::BuildStrategy;
    use hdsj_storage::StorageEngine;

    fn brute_closest_self(ds: &hdsj_core::Dataset, k: usize) -> Vec<PairNeighbour> {
        let mut all = Vec::new();
        for i in 0..ds.len() as u32 {
            for j in i + 1..ds.len() as u32 {
                let dist = ds
                    .point(i)
                    .iter()
                    .zip(ds.point(j))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                all.push(PairNeighbour { i, j, dist });
            }
        }
        all.sort_by(|a, b| a.dist.partial_cmp(&b.dist).expect("finite"));
        all.truncate(k);
        all
    }

    #[test]
    fn self_closest_pairs_match_brute_force() {
        let ds = hdsj_data::uniform(4, 400, 91).unwrap();
        let eng = StorageEngine::in_memory(256);
        let tree = RTree::build(&eng, &ds, BuildStrategy::HilbertPack, 0.7).unwrap();
        for k in [1usize, 5, 25] {
            let got = tree.closest_pairs_self(k).unwrap();
            let want = brute_closest_self(&ds, k);
            assert_eq!(got.len(), k);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.dist).abs() < 1e-12, "k={k}: {g:?} vs {w:?}");
            }
            // Canonical orientation, no duplicates.
            let mut seen = std::collections::HashSet::new();
            for p in &got {
                assert!(p.i < p.j);
                assert!(seen.insert((p.i, p.j)));
            }
        }
    }

    #[test]
    fn two_tree_closest_pairs_match_brute_force() {
        let a = hdsj_data::uniform(3, 250, 92).unwrap();
        let b = hdsj_data::uniform(3, 200, 93).unwrap();
        let eng = StorageEngine::in_memory(256);
        let ta = RTree::build(&eng, &a, BuildStrategy::Str, 0.7).unwrap();
        let tb = RTree::build(&eng, &b, BuildStrategy::DynamicInsert, 0.7).unwrap();
        let got = ta.closest_pairs(&tb, 10).unwrap();
        let mut all = Vec::new();
        for (i, pa) in a.iter() {
            for (j, pb) in b.iter() {
                let dist = pa
                    .iter()
                    .zip(pb)
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum::<f64>()
                    .sqrt();
                all.push((dist, i, j));
            }
        }
        all.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite"));
        for (g, w) in got.iter().zip(&all[..10]) {
            assert!((g.dist - w.0).abs() < 1e-12, "{g:?} vs {w:?}");
        }
    }

    #[test]
    fn closest_pairs_edge_cases() {
        let ds = hdsj_data::uniform(2, 5, 94).unwrap();
        let eng = StorageEngine::in_memory(64);
        let tree = RTree::build(&eng, &ds, BuildStrategy::HilbertPack, 0.7).unwrap();
        assert!(tree.closest_pairs_self(0).unwrap().is_empty());
        // k beyond all pairs: 5 points -> 10 pairs.
        assert_eq!(tree.closest_pairs_self(100).unwrap().len(), 10);
        // Dim mismatch.
        let other = hdsj_data::uniform(3, 5, 95).unwrap();
        let to = RTree::build(&eng, &other, BuildStrategy::HilbertPack, 0.7).unwrap();
        assert!(tree.closest_pairs(&to, 3).is_err());
        // Results ascend.
        let got = tree.closest_pairs_self(10).unwrap();
        assert!(got.windows(2).all(|w| w[0].dist <= w[1].dist));
    }
}
