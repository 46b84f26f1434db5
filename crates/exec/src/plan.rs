//! Physical plan IR and builder.
//!
//! A [`Plan`] is a tree of physical operator descriptions ([`PlanNode`]),
//! stored flat with child indices; node ids double as the executor's
//! counter indices, so everything a progress estimator learns about a run
//! is keyed by [`NodeId`]. The IR carries the metadata the estimators of
//! the paper need:
//!
//! * exact base-table cardinalities at scan leaves (Section 5.1: available
//!   from the catalog),
//! * **linearity** flags on joins — a join is *linear* when its output is
//!   at most the size of its larger input, e.g. any key–foreign-key join
//!   (Section 3, Section 5.4),
//! * per-output-column *origins* (base table, column) threaded through the
//!   tree so selectivities can be estimated from single-relation
//!   statistics, and
//! * optimizer cardinality estimates (filled by [`crate::estimate`]).

use crate::error::{ExecError, ExecResult};
use crate::expr::{AggExpr, Expr};
use qp_storage::{Database, Schema, Value};
use std::fmt;
use std::ops::Bound;

pub use crate::context::NodeId;

/// Join semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    /// Preserve unmatched left rows (right side padded with NULLs).
    LeftOuter,
    /// Emit each left row with at least one match, once.
    LeftSemi,
    /// Emit each left row with no match, once.
    LeftAnti,
}

impl JoinType {
    /// Whether the join's output schema is the left schema only.
    pub fn left_only(&self) -> bool {
        matches!(self, JoinType::LeftSemi | JoinType::LeftAnti)
    }
}

/// One sort key: column position plus direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub col: usize,
    pub asc: bool,
}

/// Physical operator descriptions. See module docs for metadata semantics.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Full heap scan of a base table.
    SeqScan { table: String, card: u64 },
    /// B+Tree range scan (`index-seek` in the paper's operator list) over
    /// the index's full composite key.
    IndexRangeScan {
        table: String,
        index: String,
        lo: Bound<Vec<Value>>,
        hi: Bound<Vec<Value>>,
        /// Base-table cardinality (upper bound on output).
        table_card: u64,
        /// Base-table positions of the index key columns (for statistics
        /// lookups on the bounds).
        key_columns: Vec<usize>,
    },
    /// σ — filter rows by a predicate.
    Filter { predicate: Expr },
    /// π — compute output columns.
    Project { exprs: Vec<(Expr, String)> },
    /// Blocking sort.
    Sort { keys: Vec<SortKey> },
    /// First-n.
    Limit { n: u64 },
    /// Hash join; left child is the build side, right child the probe side.
    HashJoin {
        join_type: JoinType,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        /// Output ≤ max(|left|, |right|) — e.g. key–FK joins.
        linear: bool,
    },
    /// Merge join over inputs already sorted on the keys.
    MergeJoin {
        join_type: JoinType,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        linear: bool,
    },
    /// Naive nested loops; the inner (right) child is materialized at open
    /// and rescanned per outer row.
    NestedLoopsJoin {
        join_type: JoinType,
        /// Predicate over the concatenated (outer ++ inner) schema.
        predicate: Expr,
        linear: bool,
    },
    /// Index nested loops: for each outer row, seek the inner table's
    /// index. The seek is fused into this node (its matches are this node's
    /// output — see the crate docs on the getnext accounting).
    IndexNestedLoopsJoin {
        join_type: JoinType,
        inner_table: String,
        inner_index: String,
        /// Outer columns forming the lookup key (arity = index key arity).
        outer_keys: Vec<usize>,
        /// Extra predicate over (outer ++ inner) evaluated on each match.
        residual: Option<Expr>,
        linear: bool,
        /// Inner base-table cardinality (for non-linear upper bounds).
        inner_card: u64,
        /// Base-table positions of the inner index's key columns.
        inner_key_columns: Vec<usize>,
        /// Whether the inner index is declared unique (at most one match
        /// per outer row — a key lookup).
        inner_unique: bool,
    },
    /// Hash aggregation (blocking).
    HashAggregate {
        group_by: Vec<usize>,
        aggs: Vec<(AggExpr, String)>,
    },
    /// Stream aggregation over input sorted by the group columns
    /// (pipelined: emits each group when the key changes).
    StreamAggregate {
        group_by: Vec<usize>,
        aggs: Vec<(AggExpr, String)>,
    },
    /// Fans its child subtree out across `partitions` copies, each over a
    /// disjoint row range of the subtree's leaf, and merges results in
    /// partition order — so the merged stream is byte-identical to the
    /// serial subtree's output. Inserted by [`crate::parallel::parallelize`],
    /// never by the builder. Transparent to the getnext accounting: the
    /// exchange itself produces no counted calls (its per-node counter
    /// stays 0) and each partition copy bumps the *original* subtree
    /// nodes' shared counters.
    Exchange { partitions: usize },
}

impl PlanNode {
    /// Short operator name for display and labels.
    pub fn op_name(&self) -> &'static str {
        match self {
            PlanNode::SeqScan { .. } => "SeqScan",
            PlanNode::IndexRangeScan { .. } => "IndexRangeScan",
            PlanNode::Filter { .. } => "Filter",
            PlanNode::Project { .. } => "Project",
            PlanNode::Sort { .. } => "Sort",
            PlanNode::Limit { .. } => "Limit",
            PlanNode::HashJoin { .. } => "HashJoin",
            PlanNode::MergeJoin { .. } => "MergeJoin",
            PlanNode::NestedLoopsJoin { .. } => "NestedLoopsJoin",
            PlanNode::IndexNestedLoopsJoin { .. } => "IndexNLJoin",
            PlanNode::HashAggregate { .. } => "HashAggregate",
            PlanNode::StreamAggregate { .. } => "StreamAggregate",
            PlanNode::Exchange { .. } => "Exchange",
        }
    }

    /// Whether the node performs *nested iteration* — the operator class
    /// excluded by the paper's "scan-based queries" (Section 5.4).
    pub fn is_nested_iteration(&self) -> bool {
        matches!(
            self,
            PlanNode::NestedLoopsJoin { .. } | PlanNode::IndexNestedLoopsJoin { .. }
        )
    }
}

/// Full description of one plan node.
#[derive(Debug, Clone)]
pub struct PlanNodeData {
    pub kind: PlanNode,
    pub children: Vec<NodeId>,
    pub schema: Schema,
    /// Base-table origin of each output column, where derivable, for
    /// statistics lookups through the tree.
    pub origins: Vec<Option<(String, usize)>>,
    /// Optimizer row estimate (filled by [`crate::estimate::annotate`]).
    pub est_rows: Option<f64>,
}

/// An immutable physical plan.
#[derive(Debug, Clone)]
pub struct Plan {
    nodes: Vec<PlanNodeData>,
    root: NodeId,
}

impl Plan {
    /// All nodes; the index is the [`NodeId`].
    pub fn nodes(&self) -> &[PlanNodeData] {
        &self.nodes
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Node data by id.
    pub fn node(&self, id: NodeId) -> &PlanNodeData {
        &self.nodes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a degenerate empty plan (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Operator-kind label of every node, in id order — the label vector
    /// a `qp_obs::QueryObs` is built from.
    pub fn op_labels(&self) -> Vec<&'static str> {
        self.nodes.iter().map(|n| n.kind.op_name()).collect()
    }

    /// Ids of the *scanned* leaves — `L_s` in the paper's μ definition
    /// (Section 5.2): leaf operators that read their relation exactly once.
    /// The inner table of an index-nested-loops join is *not* in this set.
    pub fn scanned_leaves(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                matches!(
                    n.kind,
                    PlanNode::SeqScan { .. } | PlanNode::IndexRangeScan { .. }
                )
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of internal (non-leaf) nodes — `m` in Property 6. Exchange
    /// nodes are transparent plumbing and do not count: a parallelized
    /// plan has the same `m` as its serial original.
    pub fn internal_node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !n.children.is_empty() && !matches!(n.kind, PlanNode::Exchange { .. }))
            .count()
    }

    /// Whether the plan is *scan-based* in the paper's sense (Section 5.4):
    /// no nested-iteration operators.
    pub fn is_scan_based(&self) -> bool {
        self.nodes.iter().all(|n| !n.kind.is_nested_iteration())
    }

    /// Pretty-prints the plan as an indented tree.
    pub fn display(&self) -> PlanDisplay<'_> {
        PlanDisplay { plan: self }
    }

    /// Mutable node access for annotation passes (crate-internal).
    pub(crate) fn nodes_mut(&mut self) -> &mut [PlanNodeData] {
        &mut self.nodes
    }

    /// Appends a node (crate-internal; used by the parallelizer, which
    /// must keep existing node ids stable so runtime counters remain
    /// comparable index-for-index with the serial plan).
    pub(crate) fn push_node(&mut self, data: PlanNodeData) -> NodeId {
        self.nodes.push(data);
        self.nodes.len() - 1
    }

    /// Redirects one child edge of `parent` from `from` to `to`
    /// (crate-internal, for the parallelizer).
    pub(crate) fn rewire_child(&mut self, parent: NodeId, from: NodeId, to: NodeId) {
        for c in &mut self.nodes[parent].children {
            if *c == from {
                *c = to;
            }
        }
    }

    /// Replaces the root id (crate-internal, for the parallelizer).
    pub(crate) fn set_root(&mut self, root: NodeId) {
        self.root = root;
    }
}

/// Display adapter for [`Plan::display`].
pub struct PlanDisplay<'a> {
    plan: &'a Plan,
}

impl fmt::Display for PlanDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(plan: &Plan, id: NodeId, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let n = plan.node(id);
            let est = n
                .est_rows
                .map(|e| format!(" est={e:.0}"))
                .unwrap_or_default();
            let extra = match &n.kind {
                PlanNode::SeqScan { table, card } => format!(" {table} card={card}"),
                PlanNode::IndexRangeScan { table, index, .. } => format!(" {table} via {index}"),
                PlanNode::IndexNestedLoopsJoin {
                    inner_table,
                    linear,
                    ..
                } => format!(" inner={inner_table} linear={linear}"),
                PlanNode::HashJoin { linear, .. } | PlanNode::MergeJoin { linear, .. } => {
                    format!(" linear={linear}")
                }
                _ => String::new(),
            };
            writeln!(
                f,
                "{:indent$}#{id} {}{extra}{est}",
                "",
                n.kind.op_name(),
                indent = depth * 2
            )?;
            for &c in &n.children {
                rec(plan, c, depth + 1, f)?;
            }
            Ok(())
        }
        rec(self.plan, self.plan.root(), 0, f)
    }
}

/// Fluent builder for physical plans. Node ids are assigned in creation
/// order; `build()` finalizes with the current root last.
#[derive(Debug)]
pub struct PlanBuilder {
    nodes: Vec<PlanNodeData>,
    root: NodeId,
}

impl PlanBuilder {
    /// Starts a plan with a sequential scan of `table`.
    pub fn scan(db: &Database, table: &str) -> ExecResult<PlanBuilder> {
        let t = db.table(table)?;
        let schema = t.schema().clone();
        let origins = (0..schema.arity())
            .map(|i| Some((table.to_string(), i)))
            .collect();
        Ok(PlanBuilder {
            nodes: vec![PlanNodeData {
                kind: PlanNode::SeqScan {
                    table: table.to_string(),
                    card: t.len() as u64,
                },
                children: vec![],
                schema,
                origins,
                est_rows: None,
            }],
            root: 0,
        })
    }

    /// Starts a plan with a B+Tree range scan.
    pub fn index_range_scan(
        db: &Database,
        table: &str,
        index: &str,
        lo: Bound<Vec<Value>>,
        hi: Bound<Vec<Value>>,
    ) -> ExecResult<PlanBuilder> {
        let t = db.table(table)?;
        let ix = db.index(index)?;
        if ix.table != table {
            return Err(ExecError::BadPlan(format!(
                "index {index} is on table {}, not {table}",
                ix.table
            )));
        }
        let schema = t.schema().clone();
        let origins = (0..schema.arity())
            .map(|i| Some((table.to_string(), i)))
            .collect();
        Ok(PlanBuilder {
            nodes: vec![PlanNodeData {
                kind: PlanNode::IndexRangeScan {
                    table: table.to_string(),
                    index: index.to_string(),
                    lo,
                    hi,
                    table_card: t.len() as u64,
                    key_columns: ix.key_columns.clone(),
                },
                children: vec![],
                schema,
                origins,
                est_rows: None,
            }],
            root: 0,
        })
    }

    /// Current root's output schema.
    pub fn schema(&self) -> &Schema {
        &self.nodes[self.root].schema
    }

    /// Position of a named column in the current schema, or
    /// [`ExecError::BadPlan`] when the schema has no such column.
    pub fn col(&self, name: &str) -> ExecResult<usize> {
        self.schema()
            .index_of(name)
            .map_err(|_| ExecError::BadPlan(format!("no column {name} in {}", self.schema())))
    }

    fn push(&mut self, data: PlanNodeData) -> NodeId {
        self.nodes.push(data);
        self.root = self.nodes.len() - 1;
        self.root
    }

    /// Merges `other`'s nodes into self, returning the re-based id of
    /// `other`'s root.
    fn absorb(&mut self, other: PlanBuilder) -> NodeId {
        let offset = self.nodes.len();
        for mut n in other.nodes {
            for c in &mut n.children {
                *c += offset;
            }
            self.nodes.push(n);
        }
        other.root + offset
    }

    /// σ — filter by `predicate` (over the current schema).
    pub fn filter(mut self, predicate: Expr) -> PlanBuilder {
        let child = self.root;
        let schema = self.nodes[child].schema.clone();
        let origins = self.nodes[child].origins.clone();
        self.push(PlanNodeData {
            kind: PlanNode::Filter { predicate },
            children: vec![child],
            schema,
            origins,
            est_rows: None,
        });
        self
    }

    /// π — compute named output columns.
    pub fn project(mut self, exprs: Vec<(Expr, &str)>) -> PlanBuilder {
        let child = self.root;
        let child_schema = self.nodes[child].schema.clone();
        let child_origins = self.nodes[child].origins.clone();
        let mut cols = Vec::with_capacity(exprs.len());
        let mut origins = Vec::with_capacity(exprs.len());
        let mut owned = Vec::with_capacity(exprs.len());
        for (e, name) in exprs {
            cols.push(qp_storage::Column::new(name, e.infer_type(&child_schema)));
            origins.push(match &e {
                Expr::Col(i) => child_origins[*i].clone(),
                _ => None,
            });
            owned.push((e, name.to_string()));
        }
        self.push(PlanNodeData {
            kind: PlanNode::Project { exprs: owned },
            children: vec![child],
            schema: Schema::new(cols),
            origins,
            est_rows: None,
        });
        self
    }

    /// Blocking sort by `(column, ascending)` keys.
    pub fn sort(mut self, keys: Vec<(usize, bool)>) -> PlanBuilder {
        let child = self.root;
        let schema = self.nodes[child].schema.clone();
        let origins = self.nodes[child].origins.clone();
        self.push(PlanNodeData {
            kind: PlanNode::Sort {
                keys: keys
                    .into_iter()
                    .map(|(col, asc)| SortKey { col, asc })
                    .collect(),
            },
            children: vec![child],
            schema,
            origins,
            est_rows: None,
        });
        self
    }

    /// First `n` rows.
    pub fn limit(mut self, n: u64) -> PlanBuilder {
        let child = self.root;
        let schema = self.nodes[child].schema.clone();
        let origins = self.nodes[child].origins.clone();
        self.push(PlanNodeData {
            kind: PlanNode::Limit { n },
            children: vec![child],
            schema,
            origins,
            est_rows: None,
        });
        self
    }

    fn join_schema(
        &self,
        left: NodeId,
        right_schema: &Schema,
        right_origins: &[Option<(String, usize)>],
        join_type: JoinType,
    ) -> (Schema, Vec<Option<(String, usize)>>) {
        let l = &self.nodes[left];
        if join_type.left_only() {
            (l.schema.clone(), l.origins.clone())
        } else {
            let schema = l.schema.join(right_schema);
            let mut origins = l.origins.clone();
            origins.extend_from_slice(right_origins);
            (schema, origins)
        }
    }

    /// Hash join: `self` is the **build** side, `probe` the probe side.
    /// Fails with [`ExecError::BadPlan`] on key-arity mismatch.
    pub fn hash_join(
        mut self,
        probe: PlanBuilder,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        join_type: JoinType,
        linear: bool,
    ) -> ExecResult<PlanBuilder> {
        if build_keys.len() != probe_keys.len() {
            return Err(ExecError::BadPlan(format!(
                "hash join key arity mismatch: {} build keys vs {} probe keys",
                build_keys.len(),
                probe_keys.len()
            )));
        }
        let probe_schema = probe.schema().clone();
        let probe_origins = probe.nodes[probe.root].origins.clone();
        let left = self.root;
        let right = self.absorb(probe);
        let (schema, origins) = self.join_schema(left, &probe_schema, &probe_origins, join_type);
        self.push(PlanNodeData {
            kind: PlanNode::HashJoin {
                join_type,
                left_keys: build_keys,
                right_keys: probe_keys,
                linear,
            },
            children: vec![left, right],
            schema,
            origins,
            est_rows: None,
        });
        Ok(self)
    }

    /// Merge join over inputs sorted on the keys (the builder does not
    /// verify sortedness; the operator does at runtime). Fails with
    /// [`ExecError::BadPlan`] on key-arity mismatch.
    pub fn merge_join(
        mut self,
        right: PlanBuilder,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        join_type: JoinType,
        linear: bool,
    ) -> ExecResult<PlanBuilder> {
        if left_keys.len() != right_keys.len() {
            return Err(ExecError::BadPlan(format!(
                "merge join key arity mismatch: {} left keys vs {} right keys",
                left_keys.len(),
                right_keys.len()
            )));
        }
        let right_schema = right.schema().clone();
        let right_origins = right.nodes[right.root].origins.clone();
        let left = self.root;
        let rid = self.absorb(right);
        let (schema, origins) = self.join_schema(left, &right_schema, &right_origins, join_type);
        self.push(PlanNodeData {
            kind: PlanNode::MergeJoin {
                join_type,
                left_keys,
                right_keys,
                linear,
            },
            children: vec![left, rid],
            schema,
            origins,
            est_rows: None,
        });
        Ok(self)
    }

    /// Naive nested-loops join; `self` is the outer side.
    pub fn nl_join(
        mut self,
        inner: PlanBuilder,
        predicate: Expr,
        join_type: JoinType,
        linear: bool,
    ) -> PlanBuilder {
        let inner_schema = inner.schema().clone();
        let inner_origins = inner.nodes[inner.root].origins.clone();
        let outer = self.root;
        let iid = self.absorb(inner);
        let (schema, origins) = self.join_schema(outer, &inner_schema, &inner_origins, join_type);
        self.push(PlanNodeData {
            kind: PlanNode::NestedLoopsJoin {
                join_type,
                predicate,
                linear,
            },
            children: vec![outer, iid],
            schema,
            origins,
            est_rows: None,
        });
        self
    }

    /// Index nested-loops join; `self` is the outer side, looking up
    /// `inner_index` on `inner_table` with the outer columns `outer_keys`.
    #[allow(clippy::too_many_arguments)] // one parameter per plan-node field
    pub fn inl_join(
        mut self,
        db: &Database,
        inner_table: &str,
        inner_index: &str,
        outer_keys: Vec<usize>,
        join_type: JoinType,
        linear: bool,
        residual: Option<Expr>,
    ) -> ExecResult<PlanBuilder> {
        let t = db.table(inner_table)?;
        let ix = db.index(inner_index)?;
        if ix.table != inner_table {
            return Err(ExecError::BadPlan(format!(
                "index {inner_index} is on {}, not {inner_table}",
                ix.table
            )));
        }
        if ix.key_columns.len() != outer_keys.len() {
            return Err(ExecError::BadPlan(format!(
                "index {inner_index} key arity {} != outer key arity {}",
                ix.key_columns.len(),
                outer_keys.len()
            )));
        }
        let inner_schema = t.schema().clone();
        let inner_origins: Vec<_> = (0..inner_schema.arity())
            .map(|i| Some((inner_table.to_string(), i)))
            .collect();
        let outer = self.root;
        let (schema, origins) = self.join_schema(outer, &inner_schema, &inner_origins, join_type);
        self.push(PlanNodeData {
            kind: PlanNode::IndexNestedLoopsJoin {
                join_type,
                inner_table: inner_table.to_string(),
                inner_index: inner_index.to_string(),
                outer_keys,
                residual,
                linear,
                inner_card: t.len() as u64,
                inner_key_columns: ix.key_columns.clone(),
                inner_unique: ix.unique,
            },
            children: vec![outer],
            schema,
            origins,
            est_rows: None,
        });
        Ok(self)
    }

    fn aggregate_schema(
        &self,
        child: NodeId,
        group_by: &[usize],
        aggs: &[(AggExpr, String)],
    ) -> (Schema, Vec<Option<(String, usize)>>) {
        let c = &self.nodes[child];
        let mut cols = Vec::with_capacity(group_by.len() + aggs.len());
        let mut origins = Vec::with_capacity(group_by.len() + aggs.len());
        for &g in group_by {
            cols.push(c.schema.column(g).clone());
            origins.push(c.origins[g].clone());
        }
        for (a, name) in aggs {
            cols.push(qp_storage::Column::new(
                name.clone(),
                a.output_type(&c.schema),
            ));
            origins.push(None);
        }
        (Schema::new(cols), origins)
    }

    /// γ — hash aggregation (blocking).
    pub fn hash_aggregate(
        mut self,
        group_by: Vec<usize>,
        aggs: Vec<(AggExpr, &str)>,
    ) -> PlanBuilder {
        let child = self.root;
        let aggs: Vec<(AggExpr, String)> =
            aggs.into_iter().map(|(a, n)| (a, n.to_string())).collect();
        let (schema, origins) = self.aggregate_schema(child, &group_by, &aggs);
        self.push(PlanNodeData {
            kind: PlanNode::HashAggregate { group_by, aggs },
            children: vec![child],
            schema,
            origins,
            est_rows: None,
        });
        self
    }

    /// γ — stream aggregation over input sorted by the group columns.
    pub fn stream_aggregate(
        mut self,
        group_by: Vec<usize>,
        aggs: Vec<(AggExpr, &str)>,
    ) -> PlanBuilder {
        let child = self.root;
        let aggs: Vec<(AggExpr, String)> =
            aggs.into_iter().map(|(a, n)| (a, n.to_string())).collect();
        let (schema, origins) = self.aggregate_schema(child, &group_by, &aggs);
        self.push(PlanNodeData {
            kind: PlanNode::StreamAggregate { group_by, aggs },
            children: vec![child],
            schema,
            origins,
            est_rows: None,
        });
        self
    }

    /// Finalizes the plan.
    pub fn build(self) -> Plan {
        Plan {
            nodes: self.nodes,
            root: self.root,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use qp_storage::{ColumnType, Row};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table_with_rows(
            "t",
            Schema::of(&[("a", ColumnType::Int), ("b", ColumnType::Int)]),
            (0..100).map(|i| vec![Value::Int(i), Value::Int(i % 10)]),
        )
        .unwrap();
        db.create_table_with_rows(
            "u",
            Schema::of(&[("x", ColumnType::Int)]),
            (0..50).map(|i| vec![Value::Int(i)]),
        )
        .unwrap();
        db.create_index("u_x", "u", &["x"], true).unwrap();
        let _ = Row::empty(); // silence unused import lint in some cfgs
        db
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let db = db();
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .filter(Expr::col_eq(1, 3i64))
            .project(vec![(Expr::Col(0), "a")])
            .build();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.root(), 2);
        assert_eq!(plan.node(0).kind.op_name(), "SeqScan");
        assert_eq!(plan.node(2).children, vec![1]);
    }

    #[test]
    fn absorb_rebases_children() {
        let db = db();
        let left = PlanBuilder::scan(&db, "t")
            .unwrap()
            .filter(Expr::col_eq(1, 3i64));
        let right = PlanBuilder::scan(&db, "u").unwrap().filter(Expr::cmp(
            CmpOp::Lt,
            Expr::Col(0),
            Expr::Lit(Value::Int(10)),
        ));
        let plan = left
            .hash_join(right, vec![0], vec![0], JoinType::Inner, true)
            .unwrap()
            .build();
        // Nodes: 0 scan t, 1 filter, 2 scan u, 3 filter, 4 join.
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.node(3).children, vec![2]);
        assert_eq!(plan.node(4).children, vec![1, 3]);
        assert_eq!(plan.node(4).schema.arity(), 3);
    }

    #[test]
    fn semi_join_keeps_left_schema() {
        let db = db();
        let left = PlanBuilder::scan(&db, "t").unwrap();
        let right = PlanBuilder::scan(&db, "u").unwrap();
        let plan = left
            .hash_join(right, vec![0], vec![0], JoinType::LeftSemi, true)
            .unwrap()
            .build();
        assert_eq!(plan.node(plan.root()).schema.arity(), 2);
    }

    #[test]
    fn scanned_leaves_excludes_inl_inner() {
        let db = db();
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .inl_join(&db, "u", "u_x", vec![0], JoinType::Inner, true, None)
            .unwrap()
            .build();
        assert_eq!(plan.scanned_leaves(), vec![0]);
        assert!(!plan.is_scan_based());
    }

    #[test]
    fn scan_based_detection() {
        let db = db();
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .hash_join(
                PlanBuilder::scan(&db, "u").unwrap(),
                vec![0],
                vec![0],
                JoinType::Inner,
                true,
            )
            .unwrap()
            .build();
        assert!(plan.is_scan_based());
        assert_eq!(plan.internal_node_count(), 1);
    }

    #[test]
    fn origins_thread_through_operators() {
        let db = db();
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .filter(Expr::col_eq(1, 3i64))
            .project(vec![(Expr::Col(1), "b2"), (Expr::col_eq(0, 1i64), "c")])
            .build();
        let root = plan.node(plan.root());
        assert_eq!(root.origins[0], Some(("t".to_string(), 1)));
        assert_eq!(root.origins[1], None);
    }

    #[test]
    fn inl_join_validates_key_arity() {
        let db = db();
        let err = PlanBuilder::scan(&db, "t")
            .unwrap()
            .inl_join(&db, "u", "u_x", vec![0, 1], JoinType::Inner, true, None)
            .unwrap_err();
        assert!(matches!(err, ExecError::BadPlan(_)));
    }

    #[test]
    fn col_lookup_returns_typed_errors() {
        let db = db();
        let b = PlanBuilder::scan(&db, "t").unwrap();
        assert_eq!(b.col("b").unwrap(), 1);
        assert!(matches!(b.col("nope"), Err(ExecError::BadPlan(_))));
    }

    #[test]
    fn join_key_arity_mismatch_is_a_typed_error() {
        let db = db();
        let left = PlanBuilder::scan(&db, "t").unwrap();
        let right = PlanBuilder::scan(&db, "u").unwrap();
        let err = left
            .hash_join(right, vec![0, 1], vec![0], JoinType::Inner, true)
            .unwrap_err();
        assert!(matches!(err, ExecError::BadPlan(_)));
        let left = PlanBuilder::scan(&db, "t").unwrap();
        let right = PlanBuilder::scan(&db, "u").unwrap();
        let err = left
            .merge_join(right, vec![], vec![0], JoinType::Inner, true)
            .unwrap_err();
        assert!(matches!(err, ExecError::BadPlan(_)));
    }

    #[test]
    fn display_renders_tree() {
        let db = db();
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .filter(Expr::col_eq(1, 3i64))
            .build();
        let s = plan.display().to_string();
        assert!(s.contains("Filter"));
        assert!(s.contains("SeqScan t card=100"));
    }
}
