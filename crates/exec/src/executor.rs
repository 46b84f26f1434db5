//! Plan instantiation and the query driver.

use crate::context::{Counted, ExecContext, Observer, Operator, RunControls};
use crate::error::{ExecError, ExecResult};
use crate::ops::{
    ExchangeOp, ExchangeWorker, FilterOp, HashAggregateOp, HashJoinOp, IndexNestedLoopsOp,
    IndexRangeScanOp, LimitOp, MergeJoinOp, MorselFeed, NestedLoopsOp, ProjectOp, SeqScanOp,
    SortOp, StreamAggregateOp, NO_MORSEL,
};
use crate::plan::{NodeId, Plan, PlanNode};
use qp_storage::{Database, MorselDispenser, Row};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

/// A fully-instantiated query ready to run, with its execution context.
pub struct QueryRun {
    ctx: Arc<ExecContext>,
    root: Counted,
    /// Query-level span (0 when no span sink is attached) and the parent
    /// it was begun under — the session span when the service submits.
    query_span: u64,
    query_parent: u64,
    /// The root pipeline span every serial operator nests under.
    pipeline_span: u64,
}

impl QueryRun {
    /// Instantiates the runtime operator tree for `plan` over `db`.
    pub fn new(plan: &Plan, db: &Database) -> ExecResult<QueryRun> {
        QueryRun::with_controls(plan, db, RunControls::default())
    }

    /// Like [`QueryRun::new`], but under [`RunControls`]: an externally
    /// held cancel token, optional deadline, optional deterministic fault
    /// plan (the chaos-testing entry point), observability sinks.
    pub fn with_controls(
        plan: &Plan,
        db: &Database,
        controls: RunControls,
    ) -> ExecResult<QueryRun> {
        let exchanges = ExchangeLayout::of(plan);
        // When the plan fans subtrees out, the *entire* fault schedule is
        // distributed across the exchanges (each point to exactly one
        // morsel of exactly one exchange); the root context keeps only the
        // pristine proto, so no point can fire twice — once in a worker at
        // its remapped morsel-local index and again at the root.
        let ctx = if exchanges.total > 0 {
            ExecContext::with_controls_faults_forked(plan.len(), controls)
        } else {
            ExecContext::with_controls(plan.len(), controls)
        };
        // Open the query-level spans *before* instantiating the tree:
        // Exchange forks snapshot the current span parent at build time,
        // so the pipeline span must already be in place for worker spans
        // to nest under it.
        let (query_span, query_parent, pipeline_span) = match ctx.span_sink() {
            Some(sink) => {
                let parent = ctx.span_parent();
                let q = sink.begin(ctx.span_query(), parent, qp_obs::SpanKind::Query, 0);
                let p = sink.begin(ctx.span_query(), q, qp_obs::SpanKind::Pipeline, 0);
                ctx.set_span_parent(p);
                (q, parent, p)
            }
            None => (0, 0, 0),
        };
        let root = build_node(plan, plan.root(), db, &ctx, &exchanges, None)?;
        Ok(QueryRun {
            ctx,
            root,
            query_span,
            query_parent,
            pipeline_span,
        })
    }

    /// Registers an observer (e.g. a progress monitor) before running.
    pub fn set_observer(&self, obs: Box<dyn Observer>) {
        self.ctx.set_observer(obs);
    }

    /// Removes and returns the observer.
    pub fn take_observer(&self) -> Option<Box<dyn Observer>> {
        self.ctx.take_observer()
    }

    /// The shared execution context (counters are readable at any time,
    /// from any thread).
    pub fn context(&self) -> &Arc<ExecContext> {
        &self.ctx
    }

    /// Runs the query to completion, returning all result rows.
    ///
    /// The root is driven in batches of [`crate::ExecTuning::batch_rows`];
    /// with an observer or a fault plan attached the batch path degrades
    /// to one row per pull, so instrumented runs see the identical per-row
    /// event stream a plain `next()` loop would produce.
    pub fn run(&mut self) -> ExecResult<Vec<Row>> {
        let result = self.drive();
        // Spans close on *both* exits: a cancelled or faulted run still
        // leaves a well-formed tree in the sink (the operators' own spans
        // close via `Counted`'s Drop as the tree unwinds).
        self.end_query_spans();
        result
    }

    fn drive(&mut self) -> ExecResult<Vec<Row>> {
        self.root.open()?;
        let batch = self.ctx.tuning().batch_rows.max(1);
        let mut rows = Vec::new();
        while self.root.next_batch(batch, &mut rows)? {}
        self.root.close();
        Ok(rows)
    }

    fn end_query_spans(&mut self) {
        let Some(sink) = self.ctx.span_sink() else {
            return;
        };
        if self.pipeline_span != 0 {
            sink.end(
                self.ctx.span_query(),
                self.pipeline_span,
                self.query_span,
                qp_obs::SpanKind::Pipeline,
                0,
            );
            self.pipeline_span = 0;
        }
        if self.query_span != 0 {
            sink.end(
                self.ctx.span_query(),
                self.query_span,
                self.query_parent,
                qp_obs::SpanKind::Query,
                0,
            );
            self.query_span = 0;
        }
    }
}

impl Drop for QueryRun {
    fn drop(&mut self) {
        // Idempotent: a normal `run()` already zeroed both ids.
        self.end_query_spans();
    }
}

/// Result of a completed query: rows plus the final getnext accounting.
#[derive(Debug)]
pub struct QueryOutput {
    pub rows: Vec<Row>,
    /// Final per-node getnext counts: `counts[i]` is the number of rows
    /// node `i` produced.
    pub node_counts: Vec<u64>,
    /// `total(Q)` under the paper's model of work.
    pub total_getnext: u64,
}

/// Convenience: run `plan` over `db` (optionally with an observer) and
/// collect everything.
pub fn run_query(
    plan: &Plan,
    db: &Database,
    observer: Option<Box<dyn Observer>>,
) -> ExecResult<(QueryOutput, Option<Box<dyn Observer>>)> {
    let mut run = QueryRun::new(plan, db)?;
    if let Some(obs) = observer {
        run.set_observer(obs);
    }
    let rows = run.run()?;
    let out = QueryOutput {
        node_counts: run.context().counters().snapshot(),
        total_getnext: run.context().counters().total(),
        rows,
    };
    let obs = run.take_observer();
    Ok((out, obs))
}

/// Global numbering of `Exchange` nodes across a plan: `ordinals[id]` is
/// the ordinal of the exchange at node `id` and `total` the plan-wide
/// exchange count. A seeded fault schedule is distributed over this
/// numbering first (each point to exactly one exchange), then over each
/// exchange's *morsels* at claim time — never over workers, so exactly-
/// once injection survives work stealing: which worker claims a morsel
/// cannot change where a fault lands.
struct ExchangeLayout {
    ordinals: Vec<usize>,
    total: usize,
}

impl ExchangeLayout {
    fn of(plan: &Plan) -> ExchangeLayout {
        let mut ordinals = vec![0; plan.len()];
        let mut total = 0;
        for (slot, node) in ordinals.iter_mut().zip(plan.nodes()) {
            if let PlanNode::Exchange { .. } = &node.kind {
                *slot = total;
                total += 1;
            }
        }
        ExchangeLayout { ordinals, total }
    }
}

/// Instantiates the operator for node `id` and, recursively, its inputs,
/// every wrapper counting into `ctx`. `feed` is `Some` inside one exchange
/// worker's copy of a subtree: `ctx` is then that worker's fork, and the
/// subtree's scan leaf pulls morsels from the feed instead of owning its
/// input.
fn build_node(
    plan: &Plan,
    id: NodeId,
    db: &Database,
    ctx: &Arc<ExecContext>,
    exchanges: &ExchangeLayout,
    feed: Option<&MorselFeed>,
) -> ExecResult<Counted> {
    let data = plan.node(id);
    let child = |i: usize| -> ExecResult<Counted> {
        build_node(plan, data.children[i], db, ctx, exchanges, feed)
    };
    let op: Box<dyn Operator> = match &data.kind {
        PlanNode::SeqScan { table, .. } => {
            Box::new(SeqScanOp::new(db.table(table)?, ctx, feed.cloned()))
        }
        PlanNode::IndexRangeScan {
            table,
            index,
            lo,
            hi,
            ..
        } => Box::new(IndexRangeScanOp::new(
            db.table(table)?,
            db.index(index)?,
            lo.clone(),
            hi.clone(),
            ctx,
            feed.cloned(),
        )),
        PlanNode::Filter { predicate } => Box::new(FilterOp::new(child(0)?, predicate.clone())),
        PlanNode::Project { exprs } => Box::new(ProjectOp::new(
            child(0)?,
            exprs.iter().map(|(e, _)| e.clone()).collect(),
            data.schema.clone(),
        )),
        PlanNode::Sort { keys } => Box::new(SortOp::new(child(0)?, keys.clone())),
        PlanNode::Limit { n } => Box::new(LimitOp::new(child(0)?, *n)),
        PlanNode::HashJoin {
            join_type,
            left_keys,
            right_keys,
            ..
        } => Box::new(HashJoinOp::new(
            child(0)?,
            child(1)?,
            left_keys.clone(),
            right_keys.clone(),
            *join_type,
            data.schema.clone(),
        )),
        PlanNode::MergeJoin {
            join_type,
            left_keys,
            right_keys,
            ..
        } => Box::new(MergeJoinOp::new(
            child(0)?,
            child(1)?,
            left_keys.clone(),
            right_keys.clone(),
            *join_type,
            data.schema.clone(),
        )),
        PlanNode::NestedLoopsJoin {
            join_type,
            predicate,
            ..
        } => Box::new(NestedLoopsOp::new(
            child(0)?,
            child(1)?,
            predicate.clone(),
            *join_type,
            data.schema.clone(),
        )),
        PlanNode::IndexNestedLoopsJoin {
            join_type,
            inner_table,
            inner_index,
            outer_keys,
            residual,
            ..
        } => {
            let t = db.table(inner_table)?;
            let ix = db.index(inner_index)?;
            if ix.table != *inner_table {
                return Err(ExecError::BadPlan(format!(
                    "index {inner_index} not on table {inner_table}"
                )));
            }
            Box::new(IndexNestedLoopsOp::new(
                child(0)?,
                t,
                ix,
                outer_keys.clone(),
                residual.clone(),
                *join_type,
                data.schema.clone(),
            ))
        }
        PlanNode::HashAggregate { group_by, aggs } => Box::new(HashAggregateOp::new(
            child(0)?,
            group_by.clone(),
            aggs.iter().map(|(a, _)| a.clone()).collect(),
            data.schema.clone(),
        )),
        PlanNode::StreamAggregate { group_by, aggs } => Box::new(StreamAggregateOp::new(
            child(0)?,
            group_by.clone(),
            aggs.iter().map(|(a, _)| a.clone()).collect(),
            data.schema.clone(),
        )),
        PlanNode::Exchange { partitions } => {
            // The exchange is pure plumbing under the paper's accounting:
            // its wrapper is transparent (per-node counter stays 0), and
            // each worker copy of the subtree bumps the original nodes'
            // shared counters via a forked context.
            let n = (*partitions).max(1);
            let subtree_root = data.children[0];
            if n > 1 {
                for node in subtree_nodes(plan, subtree_root) {
                    ctx.counters().add_producers(node, n as u64 - 1);
                }
            }
            // One shared dispenser per exchange: workers steal morsels of
            // the leaf's input from it.
            let dispenser = Arc::new(subtree_dispenser(plan, subtree_root, db, ctx)?);
            // This exchange's share of the fault schedule, shared by all
            // of its workers: points split per-*morsel* at claim time, so
            // each point fires in exactly one morsel of one exchange no
            // matter which worker claims it.
            let exchange_faults = ctx
                .fault_proto()
                .map(|f| Arc::new(f.for_partition(exchanges.ordinals[id], exchanges.total)));
            // Each worker runs the same operator chain as the serial
            // subtree, on its own fork, over the shared dispenser.
            let mut workers = Vec::with_capacity(n);
            for _ in 0..n {
                let fork = ExecContext::fork(ctx, exchange_faults.clone());
                let worker_feed = MorselFeed {
                    dispenser: Arc::clone(&dispenser),
                    tag: Arc::new(AtomicUsize::new(NO_MORSEL)),
                };
                let chain =
                    build_node(plan, subtree_root, db, &fork, exchanges, Some(&worker_feed))?;
                workers.push(ExchangeWorker {
                    chain,
                    tag: worker_feed.tag,
                });
            }
            let op = ExchangeOp::new(workers, data.schema.clone(), ctx.tuning().batch_rows);
            return Ok(Counted::transparent(Box::new(op), id, Arc::clone(ctx)));
        }
    };
    Ok(Counted::new(op, id, Arc::clone(ctx)))
}

/// Ids of all nodes in the subtree rooted at `id` (an Exchange subtree is
/// a Filter/Project chain over one leaf, but this walks generally).
fn subtree_nodes(plan: &Plan, id: NodeId) -> Vec<NodeId> {
    let mut out = vec![id];
    let mut i = 0;
    while i < out.len() {
        out.extend(plan.node(out[i]).children.iter().copied());
        i += 1;
    }
    out
}

/// Builds the shared [`MorselDispenser`] for an Exchange subtree by
/// walking its Filter/Project chain down to the scan leaf: a heap scan's
/// input length is known from the catalog up front; an index range scan
/// learns its rid count at `open`, so its dispenser starts unbound and
/// every worker binds it (first wins, the rest validate).
fn subtree_dispenser(
    plan: &Plan,
    mut id: NodeId,
    db: &Database,
    ctx: &Arc<ExecContext>,
) -> ExecResult<MorselDispenser> {
    let morsel_rows = ctx.tuning().morsel_rows;
    loop {
        let data = plan.node(id);
        match &data.kind {
            PlanNode::Filter { .. } | PlanNode::Project { .. } => id = data.children[0],
            PlanNode::SeqScan { table, .. } => {
                let t = db.table(table)?;
                // Align morsels to page boundaries on paged tables so no
                // two workers contend for (and re-fault) the same page.
                let morsel_rows = match t.page_rows() {
                    Some(per_page) if per_page > 0 => {
                        let per_page = per_page as usize;
                        morsel_rows.div_ceil(per_page).saturating_mul(per_page)
                    }
                    _ => morsel_rows,
                };
                return Ok(MorselDispenser::new(t.len(), morsel_rows));
            }
            PlanNode::IndexRangeScan { .. } => return Ok(MorselDispenser::unbound(morsel_rows)),
            other => {
                return Err(ExecError::BadPlan(format!(
                    "Exchange subtree contains non-partitionable operator {}",
                    other.op_name()
                )))
            }
        }
    }
}
