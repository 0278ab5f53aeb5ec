//! Parallel candidate refinement.
//!
//! The sweep itself is inherently sequential (it follows the sorted stream),
//! but at large ε·d the dominant cost is evaluating the exact metric on the
//! candidates it emits (see experiment E8). This module fans that
//! refinement out on [`hdsj_exec::Pool::producer_consumers`]: the sweep
//! emits ε-windows — a probe id, a cell's `Arc<SoABlock>`, and a lane range
//! (see [`crate::sweep`]) — and batches them into a bounded crossbeam
//! channel, about `BATCH` candidate lanes per message. Each worker owns a
//! [`Refiner`] over a private result list and runs every window through
//! `Refiner::offer_block`, the same across-candidate kernel and self-join
//! conventions as the serial path, directly on the shared cell block; no
//! worker gathers or transposes anything. Results are identical to the
//! serial path (order of sink delivery aside), which the tests pin down.
//!
//! When a tracer is installed, each worker reports a `refine-worker` span
//! (child of the sweep span) carrying its pair/candidate counts and the
//! time it spent blocked on the channel, and increments the shared
//! `msj.refine.pairs` / `msj.refine.candidates` counters; the sweep side
//! reports its channel-send backpressure as `msj.sweep.send_wait_us`.
//!
//! Panic containment lives in the pool: a panicking metric (or the chaos
//! failpoint) becomes a typed `Error::Internal` carrying the panic message,
//! never an unwind across the join.

use crate::assign::RecordCodec;
use crate::sweep;
use hdsj_core::obs::{names, Span};
use hdsj_core::{
    Dataset, Error, JoinKind, JoinSpec, Refiner, Result, SoABlock, Tracer, VecSink,
};
use hdsj_exec::Pool;
use hdsj_storage::RecordFile;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Candidate lanes per channel message: large enough to amortize channel
/// overhead, small enough to keep workers busy.
const BATCH: usize = 4096;

/// One ε-window shipped to a worker: probe row `i` against `lanes` of a
/// cell's inner block.
struct Window {
    i: u32,
    block: Arc<SoABlock>,
    lanes: Range<usize>,
}

/// `(peak_stack_bytes, matched_pairs, candidate_count)` from a refined
/// sweep.
pub type RefineOutcome = (u64, Vec<(u32, u32)>, u64);

/// Runs the sweep with `threads` refinement workers. `parent` is the span
/// the per-worker spans nest under (the caller's sweep phase).
/// `fail_worker` is a chaos-test failpoint: the worker with that index
/// panics on startup, exercising the containment path.
#[allow(clippy::too_many_arguments)]
pub fn sweep_and_refine(
    sorted: &RecordFile,
    codec: &RecordCodec,
    a: &Dataset,
    b: &Dataset,
    kind: JoinKind,
    spec: &JoinSpec,
    threads: usize,
    tracer: &Tracer,
    parent: &Span,
    fail_worker: Option<usize>,
) -> Result<RefineOutcome> {
    let threads = threads.max(1);
    let traced = tracer.enabled();
    let pairs_counter = tracer.counter(names::MSJ_REFINE_PAIRS);
    let candidates_counter = tracer.counter(names::MSJ_REFINE_CANDIDATES);
    let batch_hist = tracer.histogram(names::MSJ_REFINE_BATCH);
    let pool = Pool::with_tracer(threads, tracer.clone());

    let (tx, rx) = crossbeam::channel::bounded::<Vec<Window>>(threads * 4);
    let consumers: Vec<_> = (0..threads)
        .map(|_| {
            let rx = rx.clone();
            let pairs_counter = pairs_counter.clone();
            let candidates_counter = candidates_counter.clone();
            let batch_hist = batch_hist.clone();
            move |worker_idx: usize| -> Result<(Vec<(u32, u32)>, u64)> {
                let mut span = parent.child("refine-worker");
                if fail_worker == Some(worker_idx) {
                    // The panic is contained by the pool and surfaces as a
                    // typed error at the join() site.
                    // allow(hdsj::no_panic): deliberate chaos failpoint.
                    panic!("injected refine-worker failure (worker {worker_idx})");
                }
                let mut sink = VecSink::default();
                let mut refiner = Refiner::new(a, b, kind, spec, &mut sink);
                let mut wait = Duration::ZERO;
                loop {
                    // allow(hdsj::determinism): channel-wait timing feeds the
                    // worker's obs span only; join results never read it.
                    let blocked = Instant::now();
                    let received = rx.recv();
                    wait += blocked.elapsed();
                    let Ok(batch) = received else {
                        break;
                    };
                    let (cands_before, pairs_before, _) = refiner.counters();
                    // The same block kernel and self-join conventions as
                    // the serial path, so results are identical.
                    for w in &batch {
                        refiner.offer_block(w.i, &w.block, w.lanes.clone());
                    }
                    if traced {
                        // Per-batch shared increments: concurrent with the
                        // other workers, summing exactly to the totals.
                        let (cands, pairs, _) = refiner.counters();
                        batch_hist.record(batch.iter().map(|w| w.lanes.len() as u64).sum());
                        candidates_counter.add(cands - cands_before);
                        pairs_counter.add(pairs - pairs_before);
                    }
                }
                let (candidates, _, _) = refiner.counters();
                drop(refiner);
                if traced {
                    span.attr_u64("worker", worker_idx as u64);
                    span.attr_u64("pairs", sink.pairs.len() as u64);
                    span.attr_u64("candidates", candidates);
                    span.attr_u64("wait_us", wait.as_micros() as u64);
                }
                Ok((sink.pairs, candidates))
            }
        })
        .collect();
    // The consumers own their receiver clones; dropping the original lets
    // worker exit terminate the producer's sends.
    drop(rx);

    // The sweep runs on the calling thread, batching windows outward.
    // The channel send only fails if all workers died, which only happens
    // on panic — the pool's error priority (worker error first) then
    // reports the panic rather than this generic error.
    let producer = move || -> Result<u64> {
        let mut batch: Vec<Window> = Vec::new();
        let mut lanes_in_batch = 0usize;
        let mut send_error = false;
        let mut send_wait = Duration::ZERO;
        let peak = {
            let mut ship = |i: u32, block: &Arc<SoABlock>, lanes: Range<usize>| {
                if send_error {
                    return;
                }
                lanes_in_batch += lanes.len();
                batch.push(Window {
                    i,
                    block: Arc::clone(block),
                    lanes,
                });
                if lanes_in_batch >= BATCH {
                    lanes_in_batch = 0;
                    // allow(hdsj::determinism): backpressure timing feeds the
                    // producer's obs attrs only; join results never read it.
                    let blocked = Instant::now();
                    if tx.send(std::mem::take(&mut batch)).is_err() {
                        send_error = true;
                    }
                    send_wait += blocked.elapsed();
                }
            };
            sweep::sweep(sorted, codec, a, b, kind, spec.eps, &mut ship)?
        };
        if !batch.is_empty() {
            let _ = tx.send(batch);
        }
        drop(tx);
        if traced {
            tracer
                .counter(names::MSJ_SWEEP_SEND_WAIT_US)
                .add(send_wait.as_micros() as u64);
        }
        if send_error {
            return Err(Error::Storage("refinement channel closed early".into()));
        }
        Ok(peak)
    };

    let (peak, outcomes) = pool.producer_consumers(consumers, producer)?;
    let mut all_pairs = Vec::new();
    let mut candidates = 0u64;
    // allow(hdsj::lifecycle_poll): one outcome per consumer, bounded by
    // the worker count; the consumers polled while refining.
    for (pairs, c) in outcomes {
        all_pairs.extend(pairs);
        candidates += c;
    }
    Ok((peak, all_pairs, candidates))
}
