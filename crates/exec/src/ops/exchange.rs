//! Exchange: work-stealing intra-query parallelism with serial-identical
//! accounting.
//!
//! An `ExchangeOp` owns `n` *worker* copies of a scan chain, each a
//! [`Counted`] tree over a forked execution context that shares the
//! query's counters and observer, with the leaf pulling fixed-size morsels
//! from a shared [`qp_storage::MorselDispenser`] — dynamic work stealing,
//! so skewed per-row cost does not turn one worker into the critical
//! path. `open` runs every worker to exhaustion on its own scoped thread
//! (each under `catch_unwind`, so one worker's panic cannot strand its
//! siblings), collects each worker's output as *segments* tagged with the
//! morsel index they came from, and merges all segments in morsel-index
//! order; `next`/`next_batch` then drain the merged buffer.
//!
//! Because morsels are contiguous, ordered, and covering — and every
//! morsel's rows land in exactly one segment — the merged stream is
//! **byte-identical** to the serial subtree's output no matter which
//! worker claimed which morsel. And because every worker bumps the same
//! shared per-node atomics, the final per-node getnext counts — and so
//! `Curr`, `LB`/`UB`, and `total(Q)` — equal the serial run's exactly.
//! Only wall-clock changes.
//!
//! Failure semantics are deterministic per seed *under stealing*: each
//! fault point is derived into exactly one morsel of exactly one exchange
//! (see `ExecContext::install_morsel_faults`), and morsels are claimed in
//! globally increasing index order, so the set of failures a run can
//! produce is fixed by the seed. When workers report failures, the one
//! tagged with the **smallest morsel index** is surfaced (resumed if a
//! panic, returned if an error) — a scheduling-independent choice, unlike
//! "first worker in spawn order".

use crate::context::{Counted, Operator};
use crate::error::{ExecError, ExecResult};
use qp_storage::{Row, Schema};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Tag value before a worker's first morsel claim. Orders ahead of no
/// real morsel in failure selection only by never co-occurring with one:
/// a worker that failed before claiming did so in `open`, where every
/// worker fails identically or none do.
pub(crate) const NO_MORSEL: usize = usize::MAX;

/// One worker: its operator chain and the tag cell its scan leaf
/// publishes claimed morsel indices through.
pub(crate) struct ExchangeWorker {
    pub chain: Counted,
    pub tag: Arc<AtomicUsize>,
}

/// Output of one worker: row runs tagged with the morsel they came from,
/// in claim (= increasing-index) order.
type Segments = Vec<(usize, Vec<Row>)>;

enum Failure {
    Error(ExecError),
    Panic(Box<dyn std::any::Any + Send>),
}

pub struct ExchangeOp {
    /// Worker subtrees. Consumed by `open`.
    workers: Vec<ExchangeWorker>,
    schema: Schema,
    /// Rows per `next_batch` pull on each worker's chain.
    batch_rows: usize,
    merged: Vec<Row>,
    pos: usize,
    /// Whether `open` has already consumed the workers. Unlike every
    /// other operator, an exchange cannot honor the re-open contract (its
    /// worker trees are moved onto threads and dropped), so a second
    /// `open` is a loud [`ExecError::BadPlan`] rather than a silent empty
    /// result.
    opened: bool,
}

impl ExchangeOp {
    pub(crate) fn new(workers: Vec<ExchangeWorker>, schema: Schema, batch_rows: usize) -> Self {
        ExchangeOp {
            workers,
            schema,
            batch_rows: batch_rows.max(1),
            merged: Vec::new(),
            pos: 0,
            opened: false,
        }
    }
}

/// Runs one worker chain to exhaustion: open, drain in batches, close.
/// Each non-empty batch is appended to the segment of the morsel the leaf
/// is currently on (the tag is re-read *after* the pull: a batch never
/// crosses a morsel boundary, so all its rows belong to the tag then
/// current). Consecutive batches from the same morsel coalesce.
fn drive(chain: &mut Counted, tag: &AtomicUsize, batch_rows: usize) -> ExecResult<Segments> {
    chain.open()?;
    let mut segments: Segments = Vec::new();
    let mut buf: Vec<Row> = Vec::new();
    loop {
        buf.clear();
        let more = chain.next_batch(batch_rows, &mut buf)?;
        if !buf.is_empty() {
            let t = tag.load(Ordering::Relaxed);
            match segments.last_mut() {
                Some((last, rows)) if *last == t => rows.append(&mut buf),
                _ => segments.push((t, std::mem::take(&mut buf))),
            }
        }
        if !more {
            break;
        }
    }
    chain.close();
    Ok(segments)
}

impl Operator for ExchangeOp {
    fn open(&mut self) -> ExecResult<()> {
        if self.opened {
            return Err(ExecError::BadPlan(
                "Exchange cannot be re-opened: its worker subtrees are consumed by the first open"
                    .to_string(),
            ));
        }
        self.opened = true;
        let workers = std::mem::take(&mut self.workers);
        if workers.is_empty() {
            return Ok(());
        }
        let batch_rows = self.batch_rows;
        // Span bookkeeping rides the first worker's forked context (all
        // forks share the query's sink). The parent is read *before* any
        // worker thread re-points its fork at its own worker span: forks
        // inherited the pipeline span current at build time.
        let span_ctx = Arc::clone(workers[0].chain.ctx());
        let exchange_parent = span_ctx.span_parent();
        let exchange_span = match span_ctx.span_sink() {
            Some(sink) => sink.begin(
                span_ctx.span_query(),
                exchange_parent,
                qp_obs::SpanKind::Exchange,
                workers.len() as u64,
            ),
            None => 0,
        };
        // (tag after the run, result) per worker, in spawn order.
        let results: Vec<(usize, Result<ExecResult<Segments>, _>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .enumerate()
                .map(|(w, worker)| {
                    scope.spawn(move || {
                        let ExchangeWorker { mut chain, tag } = worker;
                        // Each worker opens its own span under the
                        // exchange and re-points its fork so the chain's
                        // operator spans nest under the worker — ended
                        // unconditionally, even when `drive` fails.
                        let wctx = Arc::clone(chain.ctx());
                        let wspan = match wctx.span_sink() {
                            Some(sink) if exchange_span != 0 => {
                                let s = sink.begin(
                                    wctx.span_query(),
                                    exchange_span,
                                    qp_obs::SpanKind::Worker,
                                    w as u64,
                                );
                                wctx.set_span_parent(s);
                                s
                            }
                            _ => 0,
                        };
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            drive(&mut chain, &tag, batch_rows)
                        }));
                        // Close the chain's operator spans before the
                        // worker span: on failure the tree unwinds here.
                        drop(chain);
                        if wspan != 0 {
                            if let Some(sink) = wctx.span_sink() {
                                sink.end(
                                    wctx.span_query(),
                                    wspan,
                                    exchange_span,
                                    qp_obs::SpanKind::Worker,
                                    w as u64,
                                );
                            }
                        }
                        // A failed worker claims no further morsels, so
                        // the tag still names the morsel it died on.
                        (tag.load(Ordering::Relaxed), result)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panics are caught inside"))
                .collect()
        });
        // The exchange span covers the parallel region; it closes before
        // failure surfacing so a faulted run still leaves it well-formed.
        if exchange_span != 0 {
            if let Some(sink) = span_ctx.span_sink() {
                sink.end(
                    span_ctx.span_query(),
                    exchange_span,
                    exchange_parent,
                    qp_obs::SpanKind::Exchange,
                    0,
                );
            }
        }
        let mut failures: Vec<(usize, usize, Failure)> = Vec::new();
        let mut segments: Segments = Vec::new();
        for (w, (tag, result)) in results.into_iter().enumerate() {
            match result {
                Err(payload) => failures.push((tag, w, Failure::Panic(payload))),
                Ok(Err(e)) => failures.push((tag, w, Failure::Error(e))),
                Ok(Ok(segs)) => segments.extend(segs),
            }
        }
        // Surface the failure at the smallest morsel index — deterministic
        // under stealing because morsel claims are globally ordered. The
        // worker ordinal only breaks ties among pre-claim (open) failures,
        // which are identical across workers by construction.
        if let Some(min_idx) = (0..failures.len()).min_by_key(|&i| (failures[i].0, failures[i].1)) {
            match failures.swap_remove(min_idx).2 {
                Failure::Panic(payload) => std::panic::resume_unwind(payload),
                Failure::Error(e) => return Err(e),
            }
        }
        // Each morsel's rows live in exactly one segment, so sorting by
        // morsel index restores the serial scan order.
        segments.sort_by_key(|(m, _)| *m);
        self.merged = segments.into_iter().flat_map(|(_, rows)| rows).collect();
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> ExecResult<Option<Row>> {
        if self.pos < self.merged.len() {
            let row = self.merged[self.pos].clone();
            self.pos += 1;
            Ok(Some(row))
        } else {
            Ok(None)
        }
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Row>) -> ExecResult<bool> {
        if self.pos >= self.merged.len() {
            return Ok(false);
        }
        let take = max.min(self.merged.len() - self.pos);
        out.extend_from_slice(&self.merged[self.pos..self.pos + take]);
        self.pos += take;
        Ok(self.pos < self.merged.len())
    }

    fn close(&mut self) {
        self.merged = Vec::new();
        self.pos = 0;
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecContext;
    use qp_storage::{ColumnType, Value};
    use std::sync::Arc;

    struct Emit {
        n: u64,
        produced: u64,
        schema: Schema,
    }

    impl Operator for Emit {
        fn open(&mut self) -> ExecResult<()> {
            self.produced = 0;
            Ok(())
        }
        fn next(&mut self) -> ExecResult<Option<Row>> {
            if self.produced < self.n {
                self.produced += 1;
                Ok(Some(Row::new(vec![Value::Int(self.produced as i64)])))
            } else {
                Ok(None)
            }
        }
        fn close(&mut self) {}
        fn schema(&self) -> &Schema {
            &self.schema
        }
    }

    #[test]
    fn reopening_an_exchange_is_a_loud_error() {
        let schema = Schema::of(&[("x", ColumnType::Int)]);
        let ctx = ExecContext::new(1);
        let worker = ExchangeWorker {
            chain: Counted::new(
                Box::new(Emit {
                    n: 3,
                    produced: 0,
                    schema: schema.clone(),
                }),
                0,
                Arc::clone(&ctx),
            ),
            tag: Arc::new(AtomicUsize::new(NO_MORSEL)),
        };
        let mut op = ExchangeOp::new(vec![worker], schema, 2);
        op.open().unwrap();
        let mut rows = 0;
        while op.next().unwrap().is_some() {
            rows += 1;
        }
        assert_eq!(rows, 3);
        op.close();
        // The workers were consumed by the first open: a second open must
        // fail loudly instead of silently yielding zero rows.
        match op.open() {
            Err(ExecError::BadPlan(msg)) => assert!(msg.contains("re-open"), "{msg}"),
            other => panic!("expected BadPlan on re-open, got {other:?}"),
        }
    }

    #[test]
    fn merged_output_follows_morsel_order_not_worker_order() {
        // Hand-build two workers whose "leaf" tags are pre-set as if
        // worker 1 had claimed the earlier morsel: the merge must order by
        // morsel index, not spawn order.
        let schema = Schema::of(&[("x", ColumnType::Int)]);
        let ctx = ExecContext::new(1);
        ctx.counters().add_producers(0, 1);
        let mk = |n: u64, tag: usize| ExchangeWorker {
            chain: Counted::new(
                Box::new(Emit {
                    n,
                    produced: 0,
                    schema: schema.clone(),
                }),
                0,
                Arc::clone(&ctx),
            ),
            tag: Arc::new(AtomicUsize::new(tag)),
        };
        let mut op = ExchangeOp::new(vec![mk(2, 7), mk(3, 1)], schema, 64);
        op.open().unwrap();
        let mut got = Vec::new();
        while let Some(row) = op.next().unwrap() {
            got.push(row.get(0).as_i64().unwrap());
        }
        // Worker 1 (morsel 1, rows 1..=3) sorts before worker 0 (morsel 7).
        assert_eq!(got, vec![1, 2, 3, 1, 2]);
    }
}
