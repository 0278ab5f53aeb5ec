//! RSJ — the synchronized R-tree spatial join of Brinkhoff, Kriegel and
//! Seeger, adapted to ε-similarity joins.
//!
//! Both inputs are indexed **as part of the join** (the paper charges index
//! construction to the join, because a similarity-join user rarely has
//! pre-built indexes lying around). The traversal descends both trees in
//! lock-step, pruning every node pair whose MBRs are further than ε apart in
//! L∞ (safe for all supported metrics, whose ε-balls the L∞ cube contains).
//! Each child's MBR comes down from its parent's entry. A leaf pair is
//! joined by the restricted plane sweep of Brinkhoff, Kriegel and Seeger:
//! only the points of each leaf within ε (L∞) of the other leaf's MBR take
//! part, sorted on the widest axis of the two MBRs' intersection; a single
//! leaf sweeps on its MBR's widest axis. Pairs inside the sweep window
//! whose L∞ distance is at most ε are the candidates handed to the
//! exact-metric refiner.

use crate::build::BuildStrategy;
use crate::node::{Leaf, Node};
use crate::tree::RTree;
use hdsj_core::rect::linf_within;
use hdsj_core::stats::TracedPhase;
use hdsj_core::{
    join::validate_inputs, Dataset, Error, IoCounters, JoinKind, JoinSpec, JoinStats,
    LifecycleCtx, PairSink, Rect, Refiner, Result, SimilarityJoin, Tracer,
};
use hdsj_storage::{PageId, StorageEngine};
use std::borrow::Cow;

/// Node visits between lifecycle polls during the synchronized traversal.
const POLL_STRIDE: usize = 256;

/// R-tree spatial join (build-and-join).
#[derive(Clone)]
pub struct RsjJoin {
    /// How the on-the-fly trees are bulk loaded / built.
    pub strategy: BuildStrategy,
    /// Packing fill factor.
    pub fill: f64,
    /// Buffer-pool frames of the owned engine (when none is supplied).
    pub pool_pages: usize,
    engine: Option<StorageEngine>,
    /// Per-query lifecycle context, polled at phase boundaries, every
    /// [`POLL_STRIDE`] node visits, and (via the engine) on every page op.
    lifecycle: Option<LifecycleCtx>,
    /// Trace sink for spans/counters (disabled by default; see
    /// `set_tracer`).
    pub tracer: Tracer,
}

impl Default for RsjJoin {
    fn default() -> RsjJoin {
        RsjJoin {
            strategy: BuildStrategy::HilbertPack,
            fill: 0.7,
            pool_pages: 1024,
            engine: None,
            lifecycle: None,
            tracer: Tracer::disabled(),
        }
    }
}

impl RsjJoin {
    /// Runs on an externally supplied storage engine (for the buffer-size
    /// experiments); otherwise each join creates a fresh in-memory engine.
    pub fn with_engine(engine: StorageEngine) -> RsjJoin {
        RsjJoin {
            engine: Some(engine),
            ..RsjJoin::default()
        }
    }

    /// Same, with an explicit build strategy.
    pub fn with_strategy(strategy: BuildStrategy) -> RsjJoin {
        RsjJoin {
            strategy,
            ..RsjJoin::default()
        }
    }

    fn run(
        &self,
        a: &Dataset,
        b: &Dataset,
        kind: JoinKind,
        spec: &JoinSpec,
        sink: &mut dyn PairSink,
    ) -> Result<JoinStats> {
        validate_inputs(a, b, spec)?;
        let engine = match &self.engine {
            Some(e) => e.clone(),
            None => StorageEngine::in_memory(self.pool_pages),
        };
        if let Some(lc) = &self.lifecycle {
            engine.set_lifecycle(lc.clone());
        }
        let result = self.run_inner(&engine, a, b, kind, spec, sink);
        engine.clear_lifecycle();
        result
    }

    fn run_inner(
        &self,
        engine: &StorageEngine,
        a: &Dataset,
        b: &Dataset,
        kind: JoinKind,
        spec: &JoinSpec,
        sink: &mut dyn PairSink,
    ) -> Result<JoinStats> {
        let io_before = engine.io_counters();
        let mut phases = Vec::new();

        let mut root = self.tracer.span("rsj.join");
        root.attr_str("algo", "RSJ");
        root.attr_u64("n_a", a.len() as u64);
        root.attr_u64("n_b", b.len() as u64);
        root.attr_u64("dims", a.dims() as u64);
        root.attr_f64("eps", spec.eps);

        if let Some(lc) = &self.lifecycle {
            lc.poll()?;
        }
        let build = TracedPhase::start_classed(
            &self.tracer,
            &root,
            "build",
            hdsj_core::obs::PhaseClass::Io,
            hdsj_core::obs::names::RSJ_PHASE_BUILD_NS,
        );
        let tree_a = RTree::build(engine, a, self.strategy, self.fill)?;
        let tree_b = match kind {
            JoinKind::SelfJoin => None,
            JoinKind::TwoSets => Some(RTree::build(engine, b, self.strategy, self.fill)?),
        };
        let structure_bytes = tree_a.structure_bytes()
            + tree_b.as_ref().map(|t| t.structure_bytes()).unwrap_or(0);
        build.finish(&mut phases);

        let join = TracedPhase::start_classed(
            &self.tracer,
            &root,
            "join",
            hdsj_core::obs::PhaseClass::Cpu,
            hdsj_core::obs::names::RSJ_PHASE_JOIN_NS,
        );
        if let Some(lc) = &self.lifecycle {
            lc.poll()?;
        }
        let mut refiner = Refiner::new(a, b, kind, spec, sink);
        let filter_tests = {
            let mut traversal = Traversal {
                engine,
                dims: a.dims(),
                eps: spec.eps,
                refiner: &mut refiner,
                lifecycle: self.lifecycle.as_ref(),
                visits: 0,
                filter_tests: 0,
                keys_a: Vec::new(),
                keys_b: Vec::new(),
            };
            match (&kind, &tree_b) {
                (JoinKind::SelfJoin, _) => traversal.self_pairs(tree_a.root(), None)?,
                (JoinKind::TwoSets, Some(tb)) => {
                    traversal.cross_pairs(tree_a.root(), None, tb.root(), None)?
                }
                (JoinKind::TwoSets, None) => {
                    return Err(Error::Internal(
                        "two-set join reached traversal without tree b".into(),
                    ))
                }
            }
            traversal.filter_tests
        };
        let mut stats = refiner.finish(JoinStats::default());
        join.finish(&mut phases);

        stats.phases = phases;
        stats.structure_bytes = structure_bytes;
        let io_after = engine.io_counters();
        stats.io = IoCounters::diff(&io_after, &io_before);
        if self.tracer.enabled() {
            root.attr_u64("filter_tests", filter_tests);
            root.attr_u64("candidates", stats.candidates);
            root.attr_u64("results", stats.results);
            self.tracer.counter("rsj.filter_tests").add(filter_tests);
            self.tracer.counter("rsj.candidates").add(stats.candidates);
            self.tracer.counter("rsj.results").add(stats.results);
            stats.io.record_counters(&self.tracer, "pool");
            engine.pool().stats().record_latency_metrics(&self.tracer);
        }
        root.finish();
        Ok(stats)
    }
}

struct Traversal<'a, 'r> {
    engine: &'a StorageEngine,
    dims: usize,
    eps: f64,
    refiner: &'r mut Refiner<'a>,
    lifecycle: Option<&'r LifecycleCtx>,
    visits: usize,
    /// Point-pair L∞ tests made by the leaf sweeps.
    filter_tests: u64,
    /// Reused sweep lists of `(key on the sweep axis, entry index)`.
    keys_a: Vec<(f64, u32)>,
    keys_b: Vec<(f64, u32)>,
}

impl Traversal<'_, '_> {
    /// Polls the lifecycle context every [`POLL_STRIDE`] node visits so
    /// cancellation or a deadline stops the traversal mid-descent.
    fn maybe_poll(&mut self) -> Result<()> {
        if self.visits.is_multiple_of(POLL_STRIDE) {
            if let Some(lc) = self.lifecycle {
                lc.poll()?;
            }
        }
        self.visits += 1;
        Ok(())
    }

    /// Unordered pairs within one subtree (self-join). `mbr` is the
    /// subtree's MBR from its parent entry; `None` only for the root.
    fn self_pairs(&mut self, pid: PageId, mbr: Option<&Rect>) -> Result<()> {
        self.maybe_poll()?;
        match Node::load(self.engine, pid, self.dims)? {
            Node::Leaf(leaf) => self.sweep_leaf(&leaf, &leaf_mbr(mbr, &leaf)),
            Node::Inner(entries) => {
                for (i, e) in entries.iter().enumerate() {
                    self.self_pairs(e.child, Some(&e.mbr))?;
                    for f in &entries[i + 1..] {
                        if e.mbr.mindist_linf(&f.mbr) <= self.eps {
                            self.cross_pairs(e.child, Some(&e.mbr), f.child, Some(&f.mbr))?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Pairs across two distinct subtrees (of the same tree or of two
    /// trees; the refiner knows which reporting convention applies).
    /// `ma`/`mb` are the subtrees' MBRs from their parent entries; `None`
    /// only for a root.
    fn cross_pairs(
        &mut self,
        pa: PageId,
        ma: Option<&Rect>,
        pb: PageId,
        mb: Option<&Rect>,
    ) -> Result<()> {
        self.maybe_poll()?;
        let na = Node::load(self.engine, pa, self.dims)?;
        let nb = Node::load(self.engine, pb, self.dims)?;
        match (&na, &nb) {
            (Node::Leaf(la), Node::Leaf(lb)) => {
                self.sweep_leaf_pair(la, &leaf_mbr(ma, la), lb, &leaf_mbr(mb, lb));
            }
            (Node::Inner(ea), Node::Inner(eb)) => {
                for e in ea {
                    for f in eb {
                        if e.mbr.mindist_linf(&f.mbr) <= self.eps {
                            self.cross_pairs(e.child, Some(&e.mbr), f.child, Some(&f.mbr))?;
                        }
                    }
                }
            }
            (Node::Inner(ea), Node::Leaf(lb)) => {
                // Height mismatch: descend the taller side against the leaf.
                let mb = leaf_mbr(mb, lb);
                for e in ea {
                    if e.mbr.mindist_linf(&mb) <= self.eps {
                        self.cross_pairs(e.child, Some(&e.mbr), pb, Some(&mb))?;
                    }
                }
            }
            (Node::Leaf(la), Node::Inner(eb)) => {
                let ma = leaf_mbr(ma, la);
                for f in eb {
                    if ma.mindist_linf(&f.mbr) <= self.eps {
                        self.cross_pairs(pa, Some(&ma), f.child, Some(&f.mbr))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Plane-sweeps the pairs within one leaf along the widest axis of its
    /// MBR.
    fn sweep_leaf(&mut self, leaf: &Leaf, mbr: &Rect) {
        let eps = self.eps;
        let axis = widest_overlap_axis(mbr, mbr);
        let mut keys = std::mem::take(&mut self.keys_a);
        keys.clear();
        keys.extend((0..leaf.len()).map(|k| (leaf.point(k)[axis], k as u32)));
        sort_keys(&mut keys);
        for (x, &(kx, i)) in keys.iter().enumerate() {
            let p = leaf.point(i as usize);
            for &(ky, j) in &keys[x + 1..] {
                if ky - kx > eps {
                    break;
                }
                self.filter_tests += 1;
                if linf_within(p, leaf.point(j as usize), eps) {
                    self.refiner
                        .offer(leaf.ids()[i as usize], leaf.ids()[j as usize]);
                }
            }
        }
        self.keys_a = keys;
    }

    /// Plane-sweeps the pairs across two leaves. Only the points of each
    /// leaf within ε (L∞) of the other leaf's MBR can pair up; those are
    /// sorted on the widest axis of the two MBRs' intersection, where the
    /// sweep window discriminates best.
    fn sweep_leaf_pair(&mut self, la: &Leaf, ma: &Rect, lb: &Leaf, mb: &Rect) {
        let eps = self.eps;
        let axis = widest_overlap_axis(ma, mb);
        let mut keys_a = std::mem::take(&mut self.keys_a);
        let mut keys_b = std::mem::take(&mut self.keys_b);
        restricted_keys(la, mb, eps, axis, &mut keys_a);
        restricted_keys(lb, ma, eps, axis, &mut keys_b);
        // The window bounds compare the same rounded axis differences
        // `linf_within` does, so they never cut a pair it would accept.
        let mut start = 0usize;
        for &(ka, x) in &keys_a {
            while start < keys_b.len() && ka - keys_b[start].0 > eps {
                start += 1;
            }
            let p = la.point(x as usize);
            for &(kb, y) in &keys_b[start..] {
                if kb - ka > eps {
                    break;
                }
                self.filter_tests += 1;
                if linf_within(p, lb.point(y as usize), eps) {
                    self.refiner
                        .offer(la.ids()[x as usize], lb.ids()[y as usize]);
                }
            }
        }
        self.keys_a = keys_a;
        self.keys_b = keys_b;
    }
}

/// A leaf's MBR: the one its parent entry passed down, or, for a root
/// leaf, computed from its points.
fn leaf_mbr<'m>(given: Option<&'m Rect>, leaf: &Leaf) -> Cow<'m, Rect> {
    given.map_or_else(|| Cow::Owned(leaf.mbr()), Cow::Borrowed)
}

/// The axis along which the intersection of `a` and `b` is widest (the
/// lowest such axis on ties); for `a == b`, the widest axis of `a`.
fn widest_overlap_axis(a: &Rect, b: &Rect) -> usize {
    let mut best = 0;
    let mut best_width = f64::NEG_INFINITY;
    for d in 0..a.dims() {
        let width = a.hi()[d].min(b.hi()[d]) - a.lo()[d].max(b.lo()[d]);
        if width > best_width {
            best = d;
            best_width = width;
        }
    }
    best
}

/// Fills `keys` with `(coordinate on axis, index)` of the points of `leaf`
/// within L∞ distance `eps` of `other` — a superset of the points that
/// can pair with one inside `other` — sorted by key.
fn restricted_keys(
    leaf: &Leaf,
    other: &Rect,
    eps: f64,
    axis: usize,
    keys: &mut Vec<(f64, u32)>,
) {
    keys.clear();
    keys.extend(
        (0..leaf.len())
            .filter(|&k| other.mindist_linf_point(leaf.point(k)) <= eps)
            .map(|k| (leaf.point(k)[axis], k as u32)),
    );
    sort_keys(keys);
}

/// Sorts sweep keys by coordinate, ties by entry index.
fn sort_keys(keys: &mut [(f64, u32)]) {
    keys.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
}

impl SimilarityJoin for RsjJoin {
    fn name(&self) -> &'static str {
        "RSJ"
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn set_lifecycle(&mut self, ctx: LifecycleCtx) {
        self.lifecycle = Some(ctx);
    }

    fn join(
        &mut self,
        a: &Dataset,
        b: &Dataset,
        spec: &JoinSpec,
        sink: &mut dyn PairSink,
    ) -> Result<JoinStats> {
        self.run(a, b, JoinKind::TwoSets, spec, sink)
    }

    fn self_join(
        &mut self,
        a: &Dataset,
        spec: &JoinSpec,
        sink: &mut dyn PairSink,
    ) -> Result<JoinStats> {
        self.run(a, a, JoinKind::SelfJoin, spec, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsj_bruteforce::BruteForce;
    use hdsj_core::obs::AttrValue;
    use hdsj_core::{verify, Metric, VecSink};

    /// Pairs within L∞ distance `eps`, counted by brute force with the
    /// rectangle mindist: exactly the pairs RSJ must offer as candidates.
    fn linf_pairs(a: &Dataset, b: Option<&Dataset>, eps: f64) -> u64 {
        let near = |p: &[f64], q: &[f64]| Rect::point(p).mindist_linf(&Rect::point(q)) <= eps;
        match b {
            None => a
                .iter()
                .map(|(i, p)| a.iter().filter(|&(j, q)| j > i && near(p, q)).count() as u64)
                .sum(),
            Some(b) => a
                .iter()
                .map(|(_, p)| b.iter().filter(|&(_, q)| near(p, q)).count() as u64)
                .sum(),
        }
    }

    /// Checks RSJ's pairs against brute force, and its candidates against
    /// the brute-force count of pairs within ε in L∞.
    fn compare_with_bf(a: &Dataset, b: Option<&Dataset>, spec: &JoinSpec, rsj: &mut RsjJoin) {
        let mut want = VecSink::default();
        let mut got = VecSink::default();
        let mut bf = BruteForce::default();
        let stats = match b {
            None => {
                bf.self_join(a, spec, &mut want).unwrap();
                rsj.self_join(a, spec, &mut got).unwrap()
            }
            Some(b) => {
                bf.join(a, b, spec, &mut want).unwrap();
                rsj.join(a, b, spec, &mut got).unwrap()
            }
        };
        verify::assert_same_results("RSJ", &want.pairs, &got.pairs);
        assert_eq!(
            stats.candidates,
            linf_pairs(a, b, spec.eps),
            "RSJ candidates must be exactly the pairs within eps in L-inf"
        );
    }

    #[test]
    fn matches_brute_force_for_every_build_strategy() {
        let ds = hdsj_data::uniform(4, 500, 11).unwrap();
        for strategy in [
            BuildStrategy::HilbertPack,
            BuildStrategy::Str,
            BuildStrategy::DynamicInsert,
        ] {
            let mut rsj = RsjJoin::with_strategy(strategy);
            compare_with_bf(&ds, None, &JoinSpec::new(0.2, Metric::L2), &mut rsj);
        }
    }

    #[test]
    fn matches_brute_force_on_two_set_join() {
        let a = hdsj_data::uniform(6, 400, 21).unwrap();
        let b = hdsj_data::uniform(6, 350, 22).unwrap();
        for metric in [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(4.0)] {
            compare_with_bf(
                &a,
                Some(&b),
                &JoinSpec::new(0.3, metric),
                &mut RsjJoin::default(),
            );
        }
    }

    #[test]
    fn matches_brute_force_in_high_dimensions() {
        let ds = hdsj_data::uniform(32, 200, 31).unwrap();
        compare_with_bf(
            &ds,
            None,
            &JoinSpec::new(0.8, Metric::L2),
            &mut RsjJoin::default(),
        );
    }

    #[test]
    fn matches_brute_force_on_clustered_data() {
        let ds = hdsj_data::gaussian_clusters(
            5,
            600,
            hdsj_data::ClusterSpec {
                clusters: 8,
                sigma: 0.02,
                ..Default::default()
            },
            3,
        )
        .unwrap();
        compare_with_bf(
            &ds,
            None,
            &JoinSpec::new(0.04, Metric::L2),
            &mut RsjJoin::default(),
        );
    }

    #[test]
    fn two_set_join_with_different_tree_heights() {
        // 5 points vs 3000 points: tree heights differ, exercising the
        // mixed leaf/inner traversal arms.
        let a = hdsj_data::uniform(3, 5, 1).unwrap();
        let b = hdsj_data::uniform(3, 3000, 2).unwrap();
        compare_with_bf(
            &a,
            Some(&b),
            &JoinSpec::new(0.15, Metric::L2),
            &mut RsjJoin::default(),
        );
    }

    #[test]
    fn identical_points_tie_on_every_axis() {
        // Zero-width MBRs everywhere: every sweep key ties and every pair
        // qualifies, across many leaves.
        let rows = vec![vec![0.25, 0.5, 0.75]; 700];
        let ds = Dataset::from_rows(&rows).unwrap();
        let spec = JoinSpec::new(0.01, Metric::L2);
        compare_with_bf(&ds, None, &spec, &mut RsjJoin::default());
        let other = Dataset::from_rows(&rows[..300]).unwrap();
        compare_with_bf(&ds, Some(&other), &spec, &mut RsjJoin::default());
    }

    #[test]
    fn lattice_distances_tie_exactly_at_eps() {
        // Coordinates on a binary lattice of step ε: axis differences equal
        // ε exactly, so every restriction and window bound is hit on its
        // boundary.
        let step = 0.125;
        let mut rows = Vec::new();
        for x in 0..9 {
            for y in 0..9 {
                for z in 0..9 {
                    rows.push(vec![x as f64 * step, y as f64 * step, z as f64 * step]);
                }
            }
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let spec = JoinSpec::new(step, Metric::Linf);
        compare_with_bf(&ds, None, &spec, &mut RsjJoin::default());
        let other = Dataset::from_rows(&rows[100..400]).unwrap();
        compare_with_bf(&ds, Some(&other), &spec, &mut RsjJoin::default());
    }

    #[test]
    fn eps_at_least_the_domain_width() {
        // Every pair is within ε on every axis: no restriction or sweep
        // window may drop one.
        let a = hdsj_data::uniform(3, 600, 41).unwrap();
        let b = hdsj_data::uniform(3, 250, 42).unwrap();
        for eps in [1.0, 1.5] {
            let spec = JoinSpec::new(eps, Metric::Linf);
            compare_with_bf(&a, None, &spec, &mut RsjJoin::default());
            compare_with_bf(&a, Some(&b), &spec, &mut RsjJoin::default());
        }
    }

    #[test]
    fn filter_tests_are_counted_in_the_trace() {
        let ds = hdsj_data::uniform(4, 1500, 7).unwrap();
        let (tracer, trace) = Tracer::memory();
        let mut rsj = RsjJoin::default();
        rsj.set_tracer(tracer);
        let stats = rsj
            .self_join(&ds, &JoinSpec::l2(0.1), &mut VecSink::default())
            .unwrap();
        rsj.tracer.flush();
        let tests = trace
            .counter_value(hdsj_core::obs::names::RSJ_FILTER_TESTS)
            .unwrap();
        assert!(tests > 0);
        assert!(tests >= stats.candidates, "{tests} < {}", stats.candidates);
        let root = trace
            .spans()
            .into_iter()
            .find(|s| s.name == "rsj.join")
            .unwrap();
        assert!(root
            .attrs
            .contains(&("filter_tests".to_string(), AttrValue::U64(tests))));
    }

    #[test]
    fn empty_inputs() {
        let empty = Dataset::new(4).unwrap();
        let some = hdsj_data::uniform(4, 50, 1).unwrap();
        let mut sink = VecSink::default();
        let stats = RsjJoin::default()
            .join(&empty, &some, &JoinSpec::l2(0.2), &mut sink)
            .unwrap();
        assert_eq!(stats.results, 0);
        let stats = RsjJoin::default()
            .self_join(&empty, &JoinSpec::l2(0.2), &mut sink)
            .unwrap();
        assert_eq!(stats.results, 0);
    }

    #[test]
    fn reports_structure_bytes_and_io() {
        let ds = hdsj_data::uniform(8, 2000, 5).unwrap();
        let mut sink = VecSink::default();
        // Tiny pool: the trees cannot stay resident, so the join must do
        // real (counted) page reads.
        let engine = StorageEngine::in_memory(16);
        let mut rsj = RsjJoin::with_engine(engine);
        let stats = rsj.self_join(&ds, &JoinSpec::l2(0.1), &mut sink).unwrap();
        assert!(stats.structure_bytes > 0);
        assert!(stats.io.allocs > 0, "tree pages were allocated");
        assert!(
            stats.io.reads > 0,
            "traversal should fault pages in a 16-frame pool"
        );
        assert!(stats.phase("build").is_some() && stats.phase("join").is_some());
    }

    #[test]
    fn candidate_counts_are_bounded_by_quadratic() {
        let ds = hdsj_data::uniform(4, 400, 77).unwrap();
        let mut sink = VecSink::default();
        let stats = RsjJoin::default()
            .self_join(&ds, &JoinSpec::l2(0.05), &mut sink)
            .unwrap();
        let quad = 400u64 * 399 / 2;
        assert!(
            stats.candidates < quad / 4,
            "filter should prune: {}",
            stats.candidates
        );
        assert_eq!(stats.results as usize, sink.pairs.len());
    }
}
