//! Grouping and aggregation.
//!
//! The paper's experiment queries drop all aggregations ("dealing with
//! aggregation is subject to future work"), but a relational substrate
//! without GROUP BY is not one a downstream user would adopt — and the
//! harness itself uses counts. Aggregation is a pipeline breaker that
//! buffers only its *group states*, never its input: [`aggregate_plan`]
//! pulls rows straight off the streaming executor, so a σ/π/join-probe
//! chain feeding a GROUP BY never materializes. [`aggregate`] remains
//! the entry point for relations already in hand. Aggregates are *not*
//! part of the uncertain-query translation surface.

use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::{self, ExecStats};
use crate::expr::CompiledExpr;
use crate::fxhash::FxHashMap;
use crate::plan::Plan;
use crate::relation::{Relation, Row};
use crate::schema::{ColRef, Schema};
use crate::spill::{merge_runs, Run, SpillCtx};
use crate::value::Value;
use crate::Expr;
use std::sync::Arc;

/// An aggregate function over a column expression.
#[derive(Clone, Debug, PartialEq)]
pub enum AggFunc {
    /// Number of input rows in the group.
    CountStar,
    /// Count of non-null evaluations.
    Count(Expr),
    /// Sum of integer evaluations.
    Sum(Expr),
    /// Minimum value.
    Min(Expr),
    /// Maximum value.
    Max(Expr),
}

/// One output aggregate: function + output column name.
#[derive(Clone, Debug, PartialEq)]
pub struct Aggregate {
    /// The function.
    pub func: AggFunc,
    /// Output column name.
    pub name: ColRef,
}

impl Aggregate {
    /// Helper constructor.
    pub fn new(func: AggFunc, name: impl AsRef<str>) -> Self {
        Aggregate {
            func,
            name: ColRef::parse(name.as_ref()),
        }
    }
}

enum State {
    Count(i64),
    Sum(i64),
    Min(Option<Value>),
    Max(Option<Value>),
}

impl State {
    fn new(f: &AggFunc) -> State {
        match f {
            AggFunc::CountStar | AggFunc::Count(_) => State::Count(0),
            AggFunc::Sum(_) => State::Sum(0),
            AggFunc::Min(_) => State::Min(None),
            AggFunc::Max(_) => State::Max(None),
        }
    }

    /// Merge another partial state for the same aggregate function into
    /// this one — how spilled runs of one group combine: counts and sums
    /// add, min/max fold, all order-independent.
    fn merge(&mut self, other: State) {
        match (self, other) {
            (State::Count(a), State::Count(b)) => *a += b,
            (State::Sum(a), State::Sum(b)) => *a += b,
            (State::Min(a), State::Min(b)) => {
                if let Some(v) = b {
                    if a.as_ref().is_none_or(|cur| v < *cur) {
                        *a = Some(v);
                    }
                }
            }
            (State::Max(a), State::Max(b)) => {
                if let Some(v) = b {
                    if a.as_ref().is_none_or(|cur| v > *cur) {
                        *a = Some(v);
                    }
                }
            }
            _ => unreachable!("merged states come from the same aggregate list"),
        }
    }

    /// Fold one input row's evaluated argument (`None` for `COUNT(*)`)
    /// into the accumulator. The caller evaluates — rows and column
    /// batches feed the same state machine.
    fn update(&mut self, f: &AggFunc, v: Option<Value>) -> Result<()> {
        match (self, f) {
            (State::Count(c), AggFunc::CountStar) => *c += 1,
            (State::Count(c), AggFunc::Count(_)) => {
                if !v.expect("COUNT has an argument").is_null() {
                    *c += 1;
                }
            }
            (State::Sum(s), AggFunc::Sum(_)) => match v.expect("SUM has an argument") {
                Value::Int(v) => *s += v,
                Value::Null => {}
                other => return Err(Error::TypeError(format!("SUM over non-integer {other}"))),
            },
            (State::Min(m), AggFunc::Min(_)) => {
                let v = v.expect("MIN has an argument");
                if !v.is_null() && m.as_ref().is_none_or(|cur| v < *cur) {
                    *m = Some(v);
                }
            }
            (State::Max(m), AggFunc::Max(_)) => {
                let v = v.expect("MAX has an argument");
                if !v.is_null() && m.as_ref().is_none_or(|cur| v > *cur) {
                    *m = Some(v);
                }
            }
            _ => unreachable!("state matches function"),
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            State::Count(c) => Value::Int(c),
            State::Sum(s) => Value::Int(s),
            State::Min(v) | State::Max(v) => v.unwrap_or(Value::Null),
        }
    }

    /// Encode for a spill run. Lossless given the update invariants:
    /// counts/sums are integers, and `Min`/`Max` never hold `Null`
    /// (updates skip nulls), so `Null` unambiguously encodes `None`.
    fn to_value(&self) -> Value {
        match self {
            State::Count(c) => Value::Int(*c),
            State::Sum(s) => Value::Int(*s),
            State::Min(v) | State::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }

    /// Decode a [`State::to_value`] encoding for aggregate `f`.
    fn from_value(f: &AggFunc, v: Value) -> State {
        match f {
            AggFunc::CountStar | AggFunc::Count(_) => {
                State::Count(v.as_int().expect("spilled count is an integer"))
            }
            AggFunc::Sum(_) => State::Sum(v.as_int().expect("spilled sum is an integer")),
            AggFunc::Min(_) => State::Min((!v.is_null()).then_some(v)),
            AggFunc::Max(_) => State::Max((!v.is_null()).then_some(v)),
        }
    }
}

/// Incremental hash-aggregation state: compiled key/aggregate
/// expressions plus the per-group accumulators. Only group states are
/// held — input rows are consumed one at a time and dropped.
///
/// Output groups appear in *first-occurrence order of the input*. Each
/// group remembers the input position of its first row, which is how
/// spilled runs restore that order after their merge by group key.
struct Accumulator<'a> {
    group_by: &'a [(Expr, ColRef)],
    aggs: &'a [Aggregate],
    key_exprs: Vec<CompiledExpr>,
    agg_exprs: Vec<Option<CompiledExpr>>,
    groups: FxHashMap<Vec<Value>, (u64, Vec<State>)>,
    /// Rows folded so far: the position of the next row.
    seq: u64,
    /// Memory-budget spill state (`None` = unbounded, the fast path).
    spill: Option<AggSpill>,
}

/// Spill state of one accumulator: when the group map crosses the
/// budget's limit it is flushed as a *key-sorted* run of
/// `(first-occurrence position, group key ++ encoded states)` records.
/// [`Accumulator::finish`] merges all runs by group key — partial
/// states of the same group combine order-independently, each group
/// keeps its earliest position — and restores first-occurrence output
/// order by position, so spilled aggregation is byte-identical to the
/// in-memory fold.
struct AggSpill {
    ctx: Arc<SpillCtx>,
    bytes: usize,
    runs: Vec<Run>,
}

impl<'a> Accumulator<'a> {
    fn new(
        in_schema: &Schema,
        group_by: &'a [(Expr, ColRef)],
        aggs: &'a [Aggregate],
    ) -> Result<Self> {
        let key_exprs: Vec<CompiledExpr> = group_by
            .iter()
            .map(|(e, _)| e.compile(in_schema))
            .collect::<Result<_>>()?;
        let agg_exprs: Vec<Option<CompiledExpr>> = aggs
            .iter()
            .map(|a| match &a.func {
                AggFunc::CountStar => Ok(None),
                AggFunc::Count(e) | AggFunc::Sum(e) | AggFunc::Min(e) | AggFunc::Max(e) => {
                    e.compile(in_schema).map(Some)
                }
            })
            .collect::<Result<_>>()?;
        Ok(Accumulator {
            group_by,
            aggs,
            key_exprs,
            agg_exprs,
            groups: FxHashMap::default(),
            seq: 0,
            spill: None,
        })
    }

    /// Attach memory-budget spill state (no-op context when the budget
    /// is unbounded — the accumulator then stays on the in-memory path).
    fn with_spill(mut self, ctx: &Arc<SpillCtx>) -> Self {
        if ctx.budget().enabled() {
            self.spill = Some(AggSpill {
                ctx: Arc::clone(ctx),
                bytes: 0,
                runs: Vec::new(),
            });
        }
        self
    }

    /// Fold one input row into the group states; `eval` supplies the
    /// value of a compiled expression for that row, so the relation path
    /// and the batched path share one grouping implementation.
    fn fold(&mut self, eval: impl Fn(&CompiledExpr) -> Value) -> Result<()> {
        let key: Vec<Value> = self.key_exprs.iter().map(&eval).collect();
        let pos = self.seq;
        self.seq += 1;
        if let Some(sp) = &mut self.spill {
            if !self.groups.contains_key(&key) {
                // New group: charge its key payload plus a rough map /
                // state overhead (estimation, not bookkeeping — the
                // budget only decides when to flush).
                let bytes = 48
                    + key.iter().map(|v| 24 + v.size_bytes()).sum::<usize>()
                    + 40 * self.aggs.len();
                sp.ctx.budget().charge(bytes);
                sp.bytes += bytes;
            }
        }
        let (_, states) = self
            .groups
            .entry(key)
            .or_insert_with(|| (pos, self.aggs.iter().map(|a| State::new(&a.func)).collect()));
        for ((state, agg), compiled) in states.iter_mut().zip(self.aggs).zip(&self.agg_exprs) {
            state.update(&agg.func, compiled.as_ref().map(&eval))?;
        }
        if self
            .spill
            .as_ref()
            .is_some_and(|sp| sp.bytes > sp.ctx.budget().limit())
        {
            self.flush_groups()?;
        }
        Ok(())
    }

    /// Flush the group map as one key-sorted spill run (see
    /// [`AggSpill`]).
    fn flush_groups(&mut self) -> Result<()> {
        let sp = self.spill.as_mut().expect("flush requires spill state");
        let mut entries: Vec<(Vec<Value>, u64, Vec<State>)> = self
            .groups
            .drain()
            .map(|(k, (pos, states))| (k, pos, states))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut w = sp.ctx.writer("agg-run")?;
        for (mut key, pos, states) in entries {
            key.extend(states.iter().map(State::to_value));
            w.push(&[pos], &key.into_boxed_slice())?;
        }
        sp.runs.push(w.finish()?);
        sp.ctx.record_spill(sp.bytes);
        sp.ctx.budget().release(sp.bytes);
        sp.bytes = 0;
        Ok(())
    }

    fn update(&mut self, row: &Row) -> Result<()> {
        self.fold(|c| c.eval(row))
    }

    /// Fold a whole column batch: group keys and aggregate arguments are
    /// evaluated positionally against the batch, so the input rows are
    /// never materialized — only the group states are held.
    fn update_batch(&mut self, batch: &crate::batch::ColumnBatch<'_>) -> Result<()> {
        for pos in 0..batch.len() {
            self.fold(|c| c.eval_at(batch, pos))?;
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Relation> {
        if self.spill.as_ref().is_some_and(|sp| !sp.runs.is_empty()) {
            return self.finish_spilled();
        }
        if self.group_by.is_empty() && self.groups.is_empty() {
            self.groups.insert(
                Vec::new(),
                (0, self.aggs.iter().map(|a| State::new(&a.func)).collect()),
            );
        }
        let mut names: Vec<ColRef> = self.group_by.iter().map(|(_, n)| n.clone()).collect();
        names.extend(self.aggs.iter().map(|a| a.name.clone()));
        let mut out = Relation::empty(Schema::new(names));
        // First-occurrence order: sort groups by their position key.
        let mut rows: Vec<(u64, Vec<Value>, Vec<State>)> = self
            .groups
            .into_iter()
            .map(|(key, (pos, states))| (pos, key, states))
            .collect();
        rows.sort_by_key(|(pos, _, _)| *pos);
        for (_, key, states) in rows {
            let mut row = key;
            row.extend(states.into_iter().map(State::finish));
            out.push(row)?;
        }
        Ok(out)
    }

    /// Finish an accumulator that spilled: flush the in-memory tail,
    /// k-way merge every run by group key (combining partial states and
    /// keeping each group's earliest position), then emit groups in
    /// first-occurrence order — byte-identical to the in-memory fold.
    fn finish_spilled(mut self) -> Result<Relation> {
        if !self.groups.is_empty() {
            self.flush_groups()?;
        }
        let sp = self.spill.take().expect("spilled finish has spill state");
        let karity = self.group_by.len();
        let mut groups: Vec<(u64, Vec<Value>, Vec<State>)> = Vec::new();
        let mut cur: Option<(Vec<Value>, u64, Vec<State>)> = None;
        let merge = merge_runs(&sp.runs, &sp.ctx, |a, b| a.1[..karity].cmp(&b.1[..karity]))?;
        for item in merge {
            let (_, (keys, row)) = item?;
            let pos = keys[0];
            let mut vals = row.into_vec();
            let state_vals = vals.split_off(karity);
            let states: Vec<State> = self
                .aggs
                .iter()
                .zip(state_vals)
                .map(|(a, v)| State::from_value(&a.func, v))
                .collect();
            match cur.as_mut() {
                Some((k, p, s)) if *k == vals => {
                    *p = (*p).min(pos);
                    for (a, b) in s.iter_mut().zip(states) {
                        a.merge(b);
                    }
                }
                _ => {
                    if let Some((k, p, s)) = cur.take() {
                        groups.push((p, k, s));
                    }
                    cur = Some((vals, pos, states));
                }
            }
        }
        if let Some((k, p, s)) = cur.take() {
            groups.push((p, k, s));
        }
        groups.sort_by_key(|(pos, _, _)| *pos);
        let mut names: Vec<ColRef> = self.group_by.iter().map(|(_, n)| n.clone()).collect();
        names.extend(self.aggs.iter().map(|a| a.name.clone()));
        let mut out = Relation::empty(Schema::new(names));
        for (_, key, states) in groups {
            let mut row = key;
            row.extend(states.into_iter().map(State::finish));
            out.push(row)?;
        }
        Ok(out)
    }
}

/// Hash aggregation: group `input` by the `group_by` expressions and
/// compute the aggregates per group. With an empty `group_by`, produces
/// exactly one row (global aggregates), even over empty input.
pub fn aggregate(
    input: &Relation,
    group_by: &[(Expr, ColRef)],
    aggs: &[Aggregate],
) -> Result<Relation> {
    let mut acc = Accumulator::new(input.schema(), group_by, aggs)?;
    for row in input.rows() {
        acc.update(row)?;
    }
    acc.finish()
}

/// Hash aggregation pulled straight off the streaming executor, one
/// column batch at a time: a batched σ/π/join-probe chain feeds GROUP BY
/// without ever materializing its input rows — only the group states
/// are buffered.
pub fn aggregate_plan(
    plan: &Plan,
    catalog: &Catalog,
    group_by: &[(Expr, ColRef)],
    aggs: &[Aggregate],
) -> Result<Relation> {
    aggregate_plan_with_stats(plan, catalog, group_by, aggs).map(|(rel, _)| rel)
}

/// [`aggregate_plan`] plus the execution's [`ExecStats`] — under a
/// memory budget this is where aggregation spills show up
/// (`spill_events` / `spilled_bytes`; see `AggSpill`).
pub fn aggregate_plan_with_stats(
    plan: &Plan,
    catalog: &Catalog,
    group_by: &[(Expr, ColRef)],
    aggs: &[Aggregate],
) -> Result<(Relation, ExecStats)> {
    let streamed = exec::stream(plan, catalog)?;
    let mut acc =
        Accumulator::new(streamed.schema(), group_by, aggs)?.with_spill(streamed.spill_ctx());
    streamed.for_each_batch(|batch| acc.update_batch(batch))?;
    let rel = acc.finish()?;
    Ok((rel, streamed.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::col;

    fn input() -> Relation {
        Relation::from_rows(
            ["dept", "salary"],
            vec![
                vec![Value::Int(1), Value::Int(100)],
                vec![Value::Int(1), Value::Int(200)],
                vec![Value::Int(2), Value::Int(50)],
                vec![Value::Int(2), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn grouped_aggregates() {
        let out = aggregate(
            &input(),
            &[(col("dept"), "dept".into())],
            &[
                Aggregate::new(AggFunc::CountStar, "n"),
                Aggregate::new(AggFunc::Count(col("salary")), "n_sal"),
                Aggregate::new(AggFunc::Sum(col("salary")), "total"),
                Aggregate::new(AggFunc::Min(col("salary")), "lo"),
                Aggregate::new(AggFunc::Max(col("salary")), "hi"),
            ],
        )
        .unwrap();
        assert_eq!(out.schema().to_string(), "dept, n, n_sal, total, lo, hi");
        assert_eq!(out.len(), 2);
        let d1 = &out.rows()[0];
        assert_eq!(
            &d1[..],
            &[
                Value::Int(1),
                Value::Int(2),
                Value::Int(2),
                Value::Int(300),
                Value::Int(100),
                Value::Int(200)
            ]
        );
        let d2 = &out.rows()[1];
        assert_eq!(d2[1], Value::Int(2)); // count(*) counts nulls
        assert_eq!(d2[2], Value::Int(1)); // count(salary) does not
        assert_eq!(d2[3], Value::Int(50));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let empty = Relation::empty(Schema::named(["a"]));
        let out = aggregate(&empty, &[], &[Aggregate::new(AggFunc::CountStar, "n")]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(0));
    }

    #[test]
    fn sum_rejects_strings() {
        let rel = Relation::from_rows(["a"], vec![vec![Value::str("x")]]).unwrap();
        let err = aggregate(&rel, &[], &[Aggregate::new(AggFunc::Sum(col("a")), "s")]);
        assert!(matches!(err, Err(Error::TypeError(_))));
    }

    #[test]
    fn min_max_of_all_nulls_is_null() {
        let rel = Relation::from_rows(["a"], vec![vec![Value::Null]]).unwrap();
        let out = aggregate(&rel, &[], &[Aggregate::new(AggFunc::Min(col("a")), "lo")]).unwrap();
        assert_eq!(out.rows()[0][0], Value::Null);
    }

    #[test]
    fn aggregate_plan_streams_without_buffering() {
        use crate::expr::lit_i64;
        let mut c = Catalog::new();
        c.insert("t", input());
        // GROUP BY over a σ chain: identical to materialize-then-aggregate,
        // with zero intermediate buffers.
        let p = Plan::scan("t")
            .select(col("salary").gt(lit_i64(0)))
            .select(col("dept").gt(lit_i64(0)));
        let via_plan = aggregate_plan(
            &p,
            &c,
            &[(col("dept"), "dept".into())],
            &[Aggregate::new(AggFunc::Sum(col("salary")), "total")],
        )
        .unwrap();
        let materialized = exec::execute(&p, &c).unwrap();
        let via_rel = aggregate(
            &materialized,
            &[(col("dept"), "dept".into())],
            &[Aggregate::new(AggFunc::Sum(col("salary")), "total")],
        )
        .unwrap();
        assert_eq!(via_plan, via_rel);
        let s = exec::stream(&p, &c).unwrap();
        s.for_each_batch(|_| Ok(())).unwrap();
        assert_eq!(s.stats().buffers, 0);
        // Compile errors still surface.
        assert!(aggregate_plan(
            &p,
            &c,
            &[(col("nope"), "g".into())],
            &[Aggregate::new(AggFunc::CountStar, "n")],
        )
        .is_err());
    }
}
