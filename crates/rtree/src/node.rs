//! On-page R-tree node layout and (de)serialization.
//!
//! ```text
//! page:  [ storage header | kind: u8 | pad: u8 | count: u16 | pad: u32 | entries... ]
//! leaf entry:   [ point_id: u32 | coords: d × f64 ]          (4 + 8d bytes)
//! inner entry:  [ child_pid: u64 | lo: d × f64 | hi: d × f64 ] (8 + 16d bytes)
//! ```
//!
//! The first `PAGE_HEADER` bytes belong to the storage layer (page
//! checksum); node data starts after them.
//!
//! Leaves store the full point coordinates, so a join reads points through
//! the buffer pool like a real disk-resident index — and so leaf fan-out
//! shrinks as `d` grows, which is precisely the high-dimensional R-tree
//! pathology the evaluation exhibits.

use hdsj_core::{Error, Rect, Result};
use hdsj_storage::{Page, PageId, StorageEngine, PAGE_HEADER, PAGE_SIZE};

/// Offset of the node's kind byte (just past the storage header).
const KIND_OFFSET: usize = PAGE_HEADER;
/// Offset of the node's entry count.
const COUNT_OFFSET: usize = PAGE_HEADER + 2;
/// Bytes before the first entry: storage header + node header.
const HEADER: usize = PAGE_HEADER + 8;
const KIND_LEAF: u8 = 1;
const KIND_INNER: u8 = 2;

/// Maximum entries of a leaf node for dimensionality `dims`.
pub fn leaf_capacity(dims: usize) -> usize {
    (PAGE_SIZE - HEADER) / (4 + 8 * dims)
}

/// Maximum entries of an inner node for dimensionality `dims`.
pub fn inner_capacity(dims: usize) -> usize {
    (PAGE_SIZE - HEADER) / (8 + 16 * dims)
}

/// A leaf node's points, decoded flat: their dataset indices and their
/// coordinates row-major, `dims` values per point.
#[derive(Clone, Debug, PartialEq)]
pub struct Leaf {
    dims: usize,
    ids: Vec<u32>,
    coords: Vec<f64>,
}

impl Leaf {
    /// An empty leaf of dimensionality `dims`.
    pub fn new(dims: usize) -> Leaf {
        Leaf::with_capacity(dims, 0)
    }

    /// An empty leaf with room for `n` points.
    pub fn with_capacity(dims: usize, n: usize) -> Leaf {
        Leaf {
            dims,
            ids: Vec::with_capacity(n),
            coords: Vec::with_capacity(n * dims),
        }
    }

    /// Appends point `id` with coordinates `p`.
    pub fn push(&mut self, id: u32, p: &[f64]) {
        assert_eq!(p.len(), self.dims, "point dimensionality differs from leaf");
        self.ids.push(id);
        self.coords.extend_from_slice(p);
    }

    /// Dimensionality of the points.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the leaf holds no points.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dataset indices of the points, in page order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Coordinates of the `k`-th point.
    #[inline]
    pub fn point(&self, k: usize) -> &[f64] {
        &self.coords[k * self.dims..(k + 1) * self.dims]
    }

    /// `(id, coordinates)` of every point, in page order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[f64])> + '_ {
        self.ids
            .iter()
            .enumerate()
            .map(move |(k, &id)| (id, self.point(k)))
    }

    /// The MBR of the points.
    pub fn mbr(&self) -> Rect {
        let mut mbr = Rect::empty(self.dims);
        // allow(hdsj::lifecycle_poll): per-node entries, bounded by the
        // page fan-out.
        for (_, p) in self.iter() {
            mbr.grow_point(p);
        }
        mbr
    }
}

/// An entry of an inner node: a child page and its MBR.
#[derive(Clone, Debug, PartialEq)]
pub struct InnerEntry {
    /// Page id of the child node.
    pub child: PageId,
    /// Minimum bounding rectangle of the child's subtree.
    pub mbr: Rect,
}

/// A deserialized node.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// Leaf level: points.
    Leaf(Leaf),
    /// Interior level: children with MBRs.
    Inner(Vec<InnerEntry>),
}

impl Node {
    /// True for leaves.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf(_))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(v) => v.len(),
            Node::Inner(v) => v.len(),
        }
    }

    /// True when the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The union MBR of all entries.
    pub fn mbr(&self, dims: usize) -> Rect {
        match self {
            Node::Leaf(leaf) => leaf.mbr(),
            Node::Inner(entries) => {
                let mut mbr = Rect::empty(dims);
                // allow(hdsj::lifecycle_poll): per-node entries, bounded
                // by the page fan-out.
                for e in entries {
                    mbr.grow_rect(&e.mbr);
                }
                mbr
            }
        }
    }

    /// Serializes into `page`. Errors when the node exceeds the page.
    pub fn write_to(&self, page: &mut Page, dims: usize) -> Result<()> {
        let (kind, count, entry_size) = match self {
            Node::Leaf(v) => (KIND_LEAF, v.len(), 4 + 8 * dims),
            Node::Inner(v) => (KIND_INNER, v.len(), 8 + 16 * dims),
        };
        if HEADER + count * entry_size > PAGE_SIZE {
            return Err(Error::Storage(format!(
                "node of {count} entries overflows a page at d={dims}"
            )));
        }
        page.bytes_mut()[KIND_OFFSET] = kind;
        page.put_u16(COUNT_OFFSET, count as u16);
        let mut off = HEADER;
        match self {
            Node::Leaf(leaf) => {
                debug_assert_eq!(leaf.dims(), dims);
                // allow(hdsj::lifecycle_poll): serializes one page's
                // entries, bounded by the page fan-out.
                for (id, p) in leaf.iter() {
                    page.put_u32(off, id);
                    off += 4;
                    for &c in p {
                        page.put_f64(off, c);
                        off += 8;
                    }
                }
            }
            Node::Inner(entries) => {
                // allow(hdsj::lifecycle_poll): serializes one page's
                // entries, bounded by the page fan-out.
                for e in entries {
                    debug_assert_eq!(e.mbr.dims(), dims);
                    page.put_u64(off, e.child);
                    off += 8;
                    for &c in e.mbr.lo() {
                        page.put_f64(off, c);
                        off += 8;
                    }
                    for &c in e.mbr.hi() {
                        page.put_f64(off, c);
                        off += 8;
                    }
                }
            }
        }
        Ok(())
    }

    /// Deserializes a node from `page`.
    pub fn read_from(page: &Page, dims: usize) -> Result<Node> {
        let kind = page.bytes()[KIND_OFFSET];
        let count = page.get_u16(COUNT_OFFSET) as usize;
        let mut off = HEADER;
        match kind {
            KIND_LEAF => {
                let mut leaf = Leaf::with_capacity(dims, count);
                for _ in 0..count {
                    leaf.ids.push(page.get_u32(off));
                    off += 4;
                    for _ in 0..dims {
                        leaf.coords.push(page.get_f64(off));
                        off += 8;
                    }
                }
                Ok(Node::Leaf(leaf))
            }
            KIND_INNER => {
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let child = page.get_u64(off);
                    off += 8;
                    let mut lo = Vec::with_capacity(dims);
                    for _ in 0..dims {
                        lo.push(page.get_f64(off));
                        off += 8;
                    }
                    let mut hi = Vec::with_capacity(dims);
                    for _ in 0..dims {
                        hi.push(page.get_f64(off));
                        off += 8;
                    }
                    entries.push(InnerEntry {
                        child,
                        mbr: Rect::new(lo, hi),
                    });
                }
                Ok(Node::Inner(entries))
            }
            other => Err(Error::Storage(format!(
                "page is not an R-tree node (kind {other})"
            ))),
        }
    }

    /// Convenience: fetches and deserializes the node at `pid`.
    pub fn load(engine: &StorageEngine, pid: PageId, dims: usize) -> Result<Node> {
        let guard = engine.fetch(pid)?;
        let node = Node::read_from(&guard.read(), dims)?;
        Ok(node)
    }

    /// Convenience: serializes the node into the page at `pid`.
    pub fn store(&self, engine: &StorageEngine, pid: PageId, dims: usize) -> Result<()> {
        let guard = engine.fetch(pid)?;
        let mut page = guard.write();
        self.write_to(&mut page, dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_shrink_with_dimensionality() {
        assert!(leaf_capacity(2) > leaf_capacity(16));
        assert!(inner_capacity(2) > inner_capacity(16));
        // The paper's high-d regime: single-digit fan-out at d=64.
        assert!(inner_capacity(64) < 10);
        assert!(inner_capacity(64) >= 2, "pages must still hold a node");
        assert!(leaf_capacity(64) >= 2);
    }

    #[test]
    fn leaf_round_trip() {
        let dims = 3;
        let mut leaf = Leaf::new(dims);
        for i in 0..5 {
            leaf.push(i, &[i as f64 * 0.1, 0.5, 1.0 - i as f64 * 0.01]);
        }
        let node = Node::Leaf(leaf);
        let mut page = Page::zeroed();
        node.write_to(&mut page, dims).unwrap();
        assert_eq!(Node::read_from(&page, dims).unwrap(), node);
    }

    #[test]
    fn inner_round_trip() {
        let dims = 2;
        let entries: Vec<InnerEntry> = (0..4)
            .map(|i| InnerEntry {
                child: 100 + i as u64,
                mbr: Rect::new(vec![0.1 * i as f64, 0.0], vec![0.1 * i as f64 + 0.2, 0.5]),
            })
            .collect();
        let node = Node::Inner(entries);
        let mut page = Page::zeroed();
        node.write_to(&mut page, dims).unwrap();
        assert_eq!(Node::read_from(&page, dims).unwrap(), node);
    }

    #[test]
    fn full_capacity_node_fits_exactly() {
        let dims = 7;
        let cap = leaf_capacity(dims);
        let mut leaf = Leaf::new(dims);
        for i in 0..cap as u32 {
            leaf.push(i, &[0.5; 7]);
        }
        let node = Node::Leaf(leaf);
        let mut page = Page::zeroed();
        node.write_to(&mut page, dims).unwrap();
        assert_eq!(Node::read_from(&page, dims).unwrap().len(), cap);
    }

    #[test]
    fn overflowing_node_is_rejected() {
        let dims = 7;
        let cap = leaf_capacity(dims);
        let mut leaf = Leaf::new(dims);
        for i in 0..=cap as u32 {
            leaf.push(i, &[0.5; 7]);
        }
        let mut page = Page::zeroed();
        assert!(Node::Leaf(leaf).write_to(&mut page, dims).is_err());
    }

    #[test]
    fn leaf_points_are_flat_rows() {
        let mut leaf = Leaf::with_capacity(2, 3);
        leaf.push(7, &[0.1, 0.2]);
        leaf.push(3, &[0.3, 0.4]);
        assert_eq!(leaf.len(), 2);
        assert_eq!(leaf.ids(), &[7, 3]);
        assert_eq!(leaf.point(1), &[0.3, 0.4]);
        let rows: Vec<(u32, Vec<f64>)> = leaf.iter().map(|(id, p)| (id, p.to_vec())).collect();
        assert_eq!(rows, vec![(7, vec![0.1, 0.2]), (3, vec![0.3, 0.4])]);
    }

    #[test]
    fn garbage_page_is_rejected() {
        let page = Page::zeroed(); // kind byte 0
        assert!(Node::read_from(&page, 2).is_err());
    }

    #[test]
    fn mbr_unions_entries() {
        let mut leaf = Leaf::new(2);
        leaf.push(0, &[0.2, 0.8]);
        leaf.push(1, &[0.6, 0.1]);
        let mbr = Node::Leaf(leaf).mbr(2);
        assert_eq!(mbr.lo(), &[0.2, 0.1]);
        assert_eq!(mbr.hi(), &[0.6, 0.8]);
    }

    #[test]
    fn load_store_through_engine() {
        let engine = StorageEngine::in_memory(4);
        let pid = engine.alloc().unwrap().id();
        let mut leaf = Leaf::new(2);
        leaf.push(9, &[0.25, 0.75]);
        let node = Node::Leaf(leaf);
        node.store(&engine, pid, 2).unwrap();
        assert_eq!(Node::load(&engine, pid, 2).unwrap(), node);
    }
}
