//! Ordering and truncation: ORDER BY / LIMIT as library operations.
//!
//! Like aggregation, these are engine amenities rather than part of the
//! uncertain-query translation surface (the paper's positive algebra has
//! no order). The harness binaries use them to print stable outputs.
//!
//! Sort is the canonical pipeline breaker: [`sort_plan`] pulls the
//! streaming executor's output directly into the sort buffer, so the
//! plan output is materialized exactly once (instead of once by the
//! executor and again by the sort) — the batch pipeline runs end to end,
//! with rows materialized only as they enter the buffer. [`limit_plan`]
//! exploits streaming the other way: it stops pulling after the batch
//! that reaches `n` rows, so upstream work for the rest of the input is
//! never done (the overshoot is at most one batch, and the output is
//! exactly `n` rows).

use crate::catalog::Catalog;
use crate::error::Result;
use crate::exec::{self, ExecStats};
use crate::expr::{CompiledExpr, Expr};
use crate::plan::Plan;
use crate::relation::{row_footprint, Relation, Row};
use crate::spill::{merge_runs, Run, SpillCtx};
use std::cmp::Ordering;

/// Sort direction per key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Ascending (`Value`'s total order).
    Asc,
    /// Descending.
    Desc,
}

fn key_cmp(a: &Row, b: &Row, compiled: &[(CompiledExpr, Order)]) -> Ordering {
    for (e, o) in compiled {
        let (va, vb) = (e.eval(a), e.eval(b));
        let ord = match o {
            Order::Asc => va.cmp(&vb),
            Order::Desc => vb.cmp(&va),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn sort_rows(rows: &mut [Row], compiled: &[(CompiledExpr, Order)]) {
    rows.sort_by(|a, b| key_cmp(a, b, compiled));
}

/// Sort a relation by the given key expressions. Stable, so equal keys
/// preserve input order.
pub fn sort_by(input: &Relation, keys: &[(Expr, Order)]) -> Result<Relation> {
    let compiled: Vec<(CompiledExpr, Order)> = keys
        .iter()
        .map(|(e, o)| Ok((e.compile(input.schema())?, *o)))
        .collect::<Result<_>>()?;
    let mut rows = input.rows().to_vec();
    sort_rows(&mut rows, &compiled);
    Relation::new(input.schema().clone(), rows)
}

/// ORDER BY over a streamed plan: rows are pulled directly into the
/// sort buffer, so the plan output is materialized exactly once.
///
/// Under a memory budget the sort goes *external*: input chunks are
/// stable-sorted and flushed as sorted runs whenever the buffer crosses
/// the budget's limit, and the runs are merged back with
/// ties resolved toward the earlier run — runs hold contiguous input
/// chunks in input order, so the merge reproduces the in-memory stable
/// sort byte-for-byte.
pub fn sort_plan(plan: &Plan, catalog: &Catalog, keys: &[(Expr, Order)]) -> Result<Relation> {
    sort_plan_with_stats(plan, catalog, keys).map(|(rel, _)| rel)
}

/// [`sort_plan`] plus the execution's [`ExecStats`] (spill events of
/// both the plan's breakers and the sort itself included).
pub fn sort_plan_with_stats(
    plan: &Plan,
    catalog: &Catalog,
    keys: &[(Expr, Order)],
) -> Result<(Relation, ExecStats)> {
    let streamed = exec::stream(plan, catalog)?;
    let compiled: Vec<(CompiledExpr, Order)> = keys
        .iter()
        .map(|(e, o)| Ok((e.compile(streamed.schema())?, *o)))
        .collect::<Result<_>>()?;
    let rows = if streamed.spill_ctx().budget().enabled() {
        external_sort_rows(&streamed, &compiled)?
    } else {
        let mut rows = streamed.collect_rows(None)?;
        sort_rows(&mut rows, &compiled);
        rows
    };
    let rel = Relation::new(streamed.schema().clone(), rows)?;
    let stats = streamed.stats();
    Ok((rel, stats))
}

/// Budgeted sort: buffer input rows up to the budget limit, flushing
/// stable-sorted chunks as runs; merge the runs (plus the in-memory
/// tail) stably at the end. Equivalent to the in-memory stable sort —
/// the unique stable permutation — and never holds more than one
/// chunk's rows plus the merge heads in memory (the *output* vector is
/// the consumer's, as always).
fn external_sort_rows(
    streamed: &exec::Streamed,
    compiled: &[(CompiledExpr, Order)],
) -> Result<Vec<Row>> {
    let ctx = streamed.spill_ctx();
    let limit = ctx.budget().limit();
    let mut chunk: Vec<Row> = Vec::new();
    let mut bytes = 0usize;
    let mut runs: Vec<Run> = Vec::new();
    streamed.for_each_batch(|b| {
        for pos in 0..b.len() {
            let row = b.row(pos);
            let fp = row_footprint(&row);
            ctx.budget().charge(fp);
            bytes += fp;
            chunk.push(row);
            if bytes > limit {
                flush_sort_run(&mut chunk, &mut bytes, compiled, ctx, &mut runs)?;
            }
        }
        Ok(())
    })?;
    if runs.is_empty() {
        // Everything fit the budget: release the charge and sort in
        // memory, exactly like unbounded runs.
        ctx.budget().release(bytes);
        sort_rows(&mut chunk, compiled);
        return Ok(chunk);
    }
    if !chunk.is_empty() {
        flush_sort_run(&mut chunk, &mut bytes, compiled, ctx, &mut runs)?;
    }
    let merge = merge_runs(&runs, ctx, |a, b| key_cmp(&a.1, &b.1, compiled))?;
    let mut out = Vec::new();
    for item in merge {
        let (_, (_, row)) = item?;
        out.push(row);
    }
    Ok(out)
}

/// Flush one stable-sorted chunk as a run and release its bytes.
fn flush_sort_run(
    chunk: &mut Vec<Row>,
    bytes: &mut usize,
    compiled: &[(CompiledExpr, Order)],
    ctx: &SpillCtx,
    runs: &mut Vec<Run>,
) -> Result<()> {
    sort_rows(chunk, compiled);
    let mut w = ctx.writer("sort-run")?;
    for r in chunk.iter() {
        w.push(&[], r)?;
    }
    runs.push(w.finish()?);
    ctx.record_spill(*bytes);
    ctx.budget().release(*bytes);
    *bytes = 0;
    chunk.clear();
    Ok(())
}

/// Keep the first `n` rows.
pub fn limit(input: &Relation, n: usize) -> Relation {
    Relation::new(
        input.schema().clone(),
        input.rows().iter().take(n).cloned().collect(),
    )
    .expect("same schema")
}

/// LIMIT over a streamed plan: pulling stops after the batch that
/// reaches `n` rows, so upstream operators never produce the rest of
/// the input.
pub fn limit_plan(plan: &Plan, catalog: &Catalog, n: usize) -> Result<Relation> {
    let streamed = exec::stream(plan, catalog)?;
    let rows = streamed.collect_rows(Some(n))?;
    Relation::new(streamed.schema().clone(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::col;
    use crate::value::Value;

    fn rel() -> Relation {
        Relation::from_rows(
            ["a", "b"],
            vec![
                vec![Value::Int(2), Value::str("x")],
                vec![Value::Int(1), Value::str("y")],
                vec![Value::Int(2), Value::str("a")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn multi_key_sort() {
        let out = sort_by(&rel(), &[(col("a"), Order::Asc), (col("b"), Order::Desc)]).unwrap();
        let firsts: Vec<i64> = out.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(firsts, vec![1, 2, 2]);
        assert_eq!(out.rows()[1][1], Value::str("x")); // desc within a = 2
    }

    #[test]
    fn stability() {
        let out = sort_by(&rel(), &[(col("a"), Order::Asc)]).unwrap();
        // The two a=2 rows keep input order (x before a).
        assert_eq!(out.rows()[1][1], Value::str("x"));
        assert_eq!(out.rows()[2][1], Value::str("a"));
    }

    #[test]
    fn limit_truncates() {
        assert_eq!(limit(&rel(), 2).len(), 2);
        assert_eq!(limit(&rel(), 0).len(), 0);
        assert_eq!(limit(&rel(), 99).len(), 3);
    }

    #[test]
    fn sort_rejects_unknown_columns() {
        assert!(sort_by(&rel(), &[(col("zzz"), Order::Asc)]).is_err());
    }

    #[test]
    fn plan_variants_match_relation_variants() {
        use crate::expr::lit_i64;
        let mut c = Catalog::new();
        c.insert("t", rel());
        let p = Plan::scan("t").select(col("a").gt(lit_i64(0)));
        let materialized = exec::execute(&p, &c).unwrap();
        let sorted = sort_plan(&p, &c, &[(col("a"), Order::Asc)]).unwrap();
        assert_eq!(
            sorted,
            sort_by(&materialized, &[(col("a"), Order::Asc)]).unwrap()
        );
        let limited = limit_plan(&p, &c, 2).unwrap();
        assert_eq!(limited, limit(&materialized, 2));
        assert!(sort_plan(&p, &c, &[(col("zzz"), Order::Asc)]).is_err());
    }
}
