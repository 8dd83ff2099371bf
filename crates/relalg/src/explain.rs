//! `EXPLAIN`-style plan rendering (the Figure 13 analog).
//!
//! Prints the operator tree with the physical strategy the executor will
//! pick (hash vs nested-loop join, key columns, residual filters), the
//! optimizer's row estimates, and — for the streaming engine — whether
//! each node pipelines rows or buffers them. Every node is tagged
//! `[batched]`: the executor has one engine, vectorized over column
//! batches. The final line reports the number of intermediate row
//! buffers the streaming executor will allocate
//! ([`crate::exec::predicted_buffers`]), which matches the runtime
//! [`crate::exec::ExecStats::buffers`]: a fully pipelined plan reads
//! `0 intermediate row buffer(s)`.
//! [`explain_executed`] additionally runs the plan and appends the
//! observed batch count and mean batch fill.

use crate::batch::BATCH_SIZE;
use crate::catalog::{Catalog, StorageMode};
use crate::error::Result;
use crate::exec::{join_build_left, predicted_buffers, JoinCondition};
use crate::expr::Expr;
use crate::optimizer::est_rows;
use crate::plan::Plan;
use std::fmt::Write as _;

/// Render a plan as an indented EXPLAIN tree with pipeline annotations
/// and the predicted intermediate-buffer count.
pub fn explain(plan: &Plan, catalog: &Catalog) -> String {
    let mut out = String::new();
    render(plan, catalog, 0, &mut out);
    let buffers = predicted_buffers(plan, catalog);
    let _ = writeln!(out, "-- {buffers} intermediate row buffer(s)");
    let budget = catalog.config().mem_budget;
    if budget != usize::MAX {
        let _ = writeln!(
            out,
            "-- memory budget: {budget} byte(s) ({budget} per worker share)"
        );
    }
    out
}

/// `EXPLAIN ANALYZE`-style: render the plan, execute it, and append the
/// observed batch count and mean batch fill (rows per batch; the target
/// is [`BATCH_SIZE`]).
pub fn explain_executed(plan: &Plan, catalog: &Catalog) -> Result<String> {
    let mut out = explain(plan, catalog);
    let streamed = crate::exec::stream(plan, catalog)?;
    streamed.collect_rows(None)?;
    let stats = streamed.stats();
    match stats.mean_batch_fill() {
        Some(fill) => {
            let _ = writeln!(
                out,
                "-- {} batch(es), mean fill {:.1}/{} rows",
                stats.batches, fill, BATCH_SIZE
            );
        }
        None => {
            let _ = writeln!(out, "-- no batches emitted (empty result)");
        }
    }
    if stats.spill_events > 0 {
        let _ = writeln!(
            out,
            "-- spilled: {} event(s), ~{} byte(s) to disk (peak tracked {} byte(s))",
            stats.spill_events, stats.spilled_bytes, stats.peak_tracked_bytes
        );
    }
    if stats.segments_scanned + stats.segments_skipped > 0 {
        let _ = writeln!(
            out,
            "-- segments: {} scanned, {} skipped, ~{} byte(s) decoded",
            stats.segments_scanned, stats.segments_skipped, stats.decoded_bytes
        );
    }
    if stats.pages_read + stats.pool_hits + stats.pool_misses > 0 {
        let _ = writeln!(
            out,
            "-- buffer pool: {} hit(s) / {} miss(es), {} page(s) read",
            stats.pool_hits, stats.pool_misses, stats.pages_read
        );
    }
    if stats.faults_injected + stats.retries > 0 || stats.cancelled {
        let _ = writeln!(
            out,
            "-- faults: {} injected, {} retried, cancelled: {}",
            stats.faults_injected, stats.retries, stats.cancelled
        );
    }
    Ok(out)
}

/// The per-node engine tag. Every pipeline runs on the batched cursors,
/// so it is the same on every node.
const ENGINE_TAG: &str = "[batched]";

/// Estimated average output-row bytes of a plan: leaf widths come from
/// table statistics ([`crate::stats::TableStats::avg_row_bytes`]);
/// operators transform them structurally (joins concatenate, projections
/// scale by arity).
fn est_row_bytes(plan: &Plan, catalog: &Catalog) -> f64 {
    match plan {
        Plan::Scan(name) => catalog
            .stats(name)
            .map(|s| s.avg_row_bytes())
            .unwrap_or(16.0),
        Plan::Values(rel) => {
            if rel.is_empty() {
                16.0
            } else {
                rel.size_bytes() as f64 / rel.len() as f64
            }
        }
        Plan::Select { input, .. } | Plan::Rename { input, .. } | Plan::Distinct(input) => {
            est_row_bytes(input, catalog)
        }
        Plan::Project { input, cols } => {
            let in_arity = input
                .schema(catalog)
                .map(|s| s.arity())
                .unwrap_or(cols.len())
                .max(1);
            est_row_bytes(input, catalog) * cols.len() as f64 / in_arity as f64
        }
        Plan::Join { left, right, .. } => {
            est_row_bytes(left, catalog) + est_row_bytes(right, catalog)
        }
        Plan::SemiJoin { left, .. }
        | Plan::AntiJoin { left, .. }
        | Plan::Difference { left, .. } => est_row_bytes(left, catalog),
        Plan::Union { left, right } => {
            est_row_bytes(left, catalog).max(est_row_bytes(right, catalog))
        }
    }
}

/// `" [spill]"` when, under the configured memory budget, a breaker
/// buffer holding `side`'s estimated rows at `row_bytes` apiece is
/// predicted to exceed the budget. Purely advisory: the runtime decides
/// from actual sizes, and spilling never changes results.
fn spill_tag(side: &Plan, catalog: &Catalog, row_bytes: f64) -> &'static str {
    if catalog.config().mem_budget == usize::MAX || side.materialized_source() {
        // Unbounded — or a zero-copy source build side, which indexes
        // the catalog's storage and never buffers, so it cannot spill.
        return "";
    }
    let budget = catalog.config().mem_budget as f64;
    if est_rows(side, catalog) * row_bytes > budget {
        " [spill]"
    } else {
        ""
    }
}

/// Estimated bytes a dedup seen-set charges per row: the row payload
/// plus 48 bytes of row-form overhead, mirroring
/// [`crate::relation::row_footprint`].
fn seen_set_row_bytes(plan: &Plan, catalog: &Catalog) -> f64 {
    est_row_bytes(plan, catalog) + 48.0
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    if depth > 0 {
        out.push_str("-> ");
    }
}

/// How the streaming executor treats a buffered join input.
fn side_label(side: &Plan) -> &'static str {
    if side.materialized_source() {
        "zero-copy"
    } else {
        "buffered"
    }
}

/// The ` [seg K/M]` / ` [seg M]` annotation of a disk-storage scan: `M`
/// segments total, of which `K` survive zone-map pruning under the
/// filter directly above the scan (`K/` omitted when no conjunct is
/// sargable). Zone maps come from the relation's disk image — the
/// manifest of a disk-native relation, else the scratch store its
/// first scan writes — so no page file is read just to EXPLAIN. Empty
/// string under plain storage, for an empty relation, or when the
/// scratch write fails (the scan itself then reports the error).
fn seg_tag(name: &str, catalog: &Catalog, zone_pred: Option<&Expr>) -> String {
    if catalog.config().storage == StorageMode::Plain {
        return String::new();
    }
    let Ok(rel) = catalog.get(name) else {
        return String::new();
    };
    if rel.is_empty() {
        return String::new();
    }
    let Ok(img) = rel.disk_image(catalog.config().segment_rows) else {
        return String::new();
    };
    let mut zone = Vec::new();
    if let Some(compiled) = zone_pred.and_then(|p| p.compile(rel.schema()).ok()) {
        compiled.collect_sargable(&mut zone);
    }
    let total = img.seg_count();
    if zone.is_empty() {
        return format!(" [seg {total}]");
    }
    let kept = (0..total)
        .filter(|&s| {
            zone.iter()
                .all(|(c, op, lit)| img.zone(*c, s).may_match(*op, lit))
        })
        .count();
    format!(" [seg {kept}/{total}]")
}

fn render(plan: &Plan, catalog: &Catalog, depth: usize, out: &mut String) {
    render_zone(plan, catalog, depth, out, None);
}

/// [`render`] with the filter predicate directly above the node, so a
/// scan can report its zone-map pruning prospects.
fn render_zone(
    plan: &Plan,
    catalog: &Catalog,
    depth: usize,
    out: &mut String,
    zone_pred: Option<&Expr>,
) {
    indent(depth, out);
    let rows = est_rows(plan, catalog);
    let tag = ENGINE_TAG;
    match plan {
        Plan::Scan(name) => {
            let seg = seg_tag(name, catalog, zone_pred);
            let _ = writeln!(out, "Seq Scan on {name}  (rows={rows:.0}) {tag}{seg}");
        }
        Plan::Values(rel) => {
            let _ = writeln!(out, "Values  (rows={}) {tag}", rel.len());
        }
        Plan::Select { input, pred } => {
            let _ = writeln!(out, "Filter: {pred}  (rows≈{rows:.0}) [pipelined] {tag}");
            render_zone(input, catalog, depth + 1, out, Some(pred));
        }
        Plan::Project { input, cols } => {
            let names: Vec<String> = cols.iter().map(|(_, n)| n.to_string()).collect();
            let _ = writeln!(
                out,
                "Project [{}]  (rows≈{rows:.0}) [pipelined] {tag}",
                names.join(", ")
            );
            render(input, catalog, depth + 1, out);
        }
        Plan::Join { left, right, pred } => {
            let (ls, rs) = (
                left.schema(catalog).unwrap_or_default(),
                right.schema(catalog).unwrap_or_default(),
            );
            let cond = JoinCondition::analyze(pred, &ls, &rs);
            if cond.equi.is_empty() {
                let _ = writeln!(
                    out,
                    "Nested Loop Join  (rows≈{rows:.0}) [streams left, inner {}] {tag}",
                    side_label(right)
                );
                if !pred.is_true() {
                    indent(depth + 1, out);
                    let _ = writeln!(out, "Join Filter: {pred}");
                }
            } else {
                let keys: Vec<String> = cond
                    .equi
                    .iter()
                    .map(|(l, r)| format!("{} = {}", ls.columns()[*l], rs.columns()[*r]))
                    .collect();
                let (build, probe) = if join_build_left(left, right, catalog) {
                    ("left", "right")
                } else {
                    ("right", "left")
                };
                let (build_side, build_arity) = if build == "left" {
                    (left, ls.arity())
                } else {
                    (right, rs.arity())
                };
                // The build buffers a column image: at most an
                // `Arc<str>` handle (16 B) per cell.
                let _ = writeln!(
                    out,
                    "Hash Join  (rows≈{rows:.0}) [streams {probe} probe, build {build} {}] {tag}{}",
                    side_label(build_side),
                    spill_tag(build_side, catalog, 16.0 * build_arity as f64)
                );
                indent(depth + 1, out);
                let _ = writeln!(out, "Hash Cond: ({})", keys.join(") AND ("));
                if !cond.residual.is_empty() {
                    indent(depth + 1, out);
                    let _ = writeln!(out, "Join Filter: {}", Expr::and(cond.residual.clone()));
                }
            }
            render(left, catalog, depth + 1, out);
            render(right, catalog, depth + 1, out);
        }
        Plan::SemiJoin { left, right, pred } => {
            let _ = writeln!(
                out,
                "Hash Semi Join on {pred}  (rows≈{rows:.0}) [streams left, right {}] {tag}",
                side_label(right)
            );
            render(left, catalog, depth + 1, out);
            render(right, catalog, depth + 1, out);
        }
        Plan::AntiJoin { left, right, pred } => {
            let _ = writeln!(
                out,
                "Hash Anti Join on {pred}  (rows≈{rows:.0}) [streams left, right {}] {tag}",
                side_label(right)
            );
            render(left, catalog, depth + 1, out);
            render(right, catalog, depth + 1, out);
        }
        Plan::Union { left, right } => {
            let _ = writeln!(out, "Append  (rows≈{rows:.0}) [pipelined] {tag}");
            render(left, catalog, depth + 1, out);
            render(right, catalog, depth + 1, out);
        }
        Plan::Difference { left, right } => {
            let _ = writeln!(
                out,
                "Except  (rows≈{rows:.0}) [buffers seen-set, right {}] {tag}{}",
                side_label(right),
                spill_tag(plan, catalog, seen_set_row_bytes(plan, catalog))
            );
            render(left, catalog, depth + 1, out);
            render(right, catalog, depth + 1, out);
        }
        Plan::Distinct(input) => {
            let _ = writeln!(
                out,
                "HashAggregate (distinct)  (rows≈{rows:.0}) [buffers seen-set] {tag}{}",
                spill_tag(plan, catalog, seen_set_row_bytes(plan, catalog))
            );
            render(input, catalog, depth + 1, out);
        }
        Plan::Rename { input, alias } => {
            let _ = writeln!(
                out,
                "Subquery Alias {alias}  (rows≈{rows:.0}) [pipelined] {tag}"
            );
            render(input, catalog, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit_i64};
    use crate::relation::Relation;
    use crate::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(
            "r",
            Relation::from_rows(["a", "b"], vec![vec![Value::Int(1), Value::Int(2)]]).unwrap(),
        );
        c.insert(
            "s",
            Relation::from_rows(["c"], vec![vec![Value::Int(1)]]).unwrap(),
        );
        c
    }

    #[test]
    fn explain_shows_hash_join_and_filter() {
        let c = catalog();
        let p = Plan::scan("r")
            .join(
                Plan::scan("s"),
                Expr::and([col("a").eq(col("c")), col("b").gt(lit_i64(0))]),
            )
            .project_names(["b"]);
        let text = explain(&p, &c);
        assert!(text.contains("Hash Join"), "{text}");
        assert!(text.contains("Hash Cond: (a = c)"), "{text}");
        assert!(text.contains("Join Filter"), "{text}");
        assert!(text.contains("Seq Scan on r"), "{text}");
    }

    #[test]
    fn explain_nested_loop_for_theta() {
        let c = catalog();
        let p = Plan::scan("r").join(Plan::scan("s"), col("a").lt(col("c")));
        let text = explain(&p, &c);
        assert!(text.contains("Nested Loop Join"), "{text}");
    }

    #[test]
    fn explain_reports_pipeline_and_buffer_counts() {
        let c = catalog();
        // A fully streaming chain: every node pipelined, zero buffers.
        let p = Plan::scan("r")
            .rename("x")
            .select(col("x.a").gt(lit_i64(0)))
            .join(Plan::scan("s"), col("x.a").eq(col("c")))
            .project_names(["x.b"]);
        let text = explain(&p, &c);
        assert!(
            text.contains("0 intermediate row buffer(s)"),
            "chain should be fully pipelined:\n{text}"
        );
        assert!(text.contains("[pipelined]"), "{text}");
        assert!(text.contains("zero-copy"), "{text}");

        // Distinct breaks the pipeline and the counter says so.
        let text = explain(&p.distinct(), &c);
        assert!(text.contains("[buffers seen-set]"), "{text}");
        assert!(text.contains("1 intermediate row buffer(s)"), "{text}");
    }

    #[test]
    fn explain_tags_every_pipeline_batched() {
        let c = catalog();
        // A hash-join chain: every node carries the tag.
        let p = Plan::scan("r")
            .select(col("a").gt(lit_i64(0)))
            .join(Plan::scan("s"), col("a").eq(col("c")));
        let text = explain(&p, &c);
        assert_eq!(text.matches("[batched]").count(), 4, "{text}");
        // Theta joins run the pair-batch evaluator, on the nested loop
        // and above it.
        let theta = Plan::scan("r")
            .join(Plan::scan("s"), col("a").lt(col("c")))
            .select(col("b").gt(lit_i64(0)));
        let text = explain(&theta, &c);
        assert!(text.contains("Nested Loop Join"), "{text}");
        assert!(text.contains("Seq Scan on r  (rows=1) [batched]"), "{text}");
        assert_eq!(text.matches("[batched]").count(), 4, "{text}");
    }

    #[test]
    fn explain_predicts_build_spills_from_the_image_charge() {
        // A computed two-integer build side of 1000 rows: its column
        // image charges 16 B a row (16,000 B), where a row-form buffer
        // would charge 88 B a row.
        let mut c = Catalog::new();
        c.set_mem_budget(0);
        let ints = |n: i64| {
            Relation::from_rows(
                ["k", "m"],
                (0..n)
                    .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        };
        c.insert("l", ints(4096));
        c.insert("r", ints(1000));
        let p = Plan::scan("l")
            .select(col("k").ge(lit_i64(0)))
            .rename("l")
            .join(
                Plan::scan("r").select(col("k").ge(lit_i64(0))).rename("r"),
                col("l.k").eq(col("r.k")),
            );
        // Room for the image: neither EXPLAIN nor the runtime spills.
        c.set_mem_budget(40_000);
        let text = explain(&p, &c);
        assert!(text.contains("build right"), "{text}");
        assert!(!text.contains("[spill]"), "{text}");
        assert!(!crate::exec::stream(&p, &c).unwrap().spilled_build());
        // No room: both spill.
        c.set_mem_budget(4_000);
        assert!(explain(&p, &c).contains("[spill]"));
        assert!(crate::exec::stream(&p, &c).unwrap().spilled_build());
    }

    #[test]
    fn explain_tags_spilling_breakers_under_a_budget() {
        let mut c = Catalog::new();
        // Start explicitly unbounded even when the test process runs
        // under RELALG_MEM_BUDGET (as the CI mem-budget leg does).
        c.set_mem_budget(0);
        c.insert(
            "big",
            Relation::from_rows(
                ["a", "b"],
                (0..4096i64)
                    .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
        );
        let p = Plan::scan("big").project_names(["a"]).distinct();
        // Unbounded: no spill tag, no budget footer.
        let text = explain(&p, &c);
        assert!(!text.contains("[spill]"), "{text}");
        assert!(!text.contains("memory budget"), "{text}");
        // A tiny budget predicts the seen-set over it.
        c.set_mem_budget(512);
        let text = explain(&p, &c);
        assert!(text.contains("[spill]"), "{text}");
        assert!(text.contains("memory budget: 512 byte(s)"), "{text}");
        // The executed report shows what actually spilled.
        let text = explain_executed(&p, &c).unwrap();
        assert!(text.contains("-- spilled:"), "{text}");
        // A budget generous enough for this plan predicts no spill.
        c.set_mem_budget(64 << 20);
        let text = explain(&p, &c);
        assert!(!text.contains("[spill]"), "{text}");
    }

    #[test]
    fn explain_tags_segmented_scans_with_zone_pruning() {
        let mut c = Catalog::new();
        c.set_storage(StorageMode::Disk);
        c.set_segment_layout(4, 2);
        c.insert(
            "t",
            Relation::from_rows(
                ["a"],
                (0..16i64).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(),
            )
            .unwrap(),
        );
        // Bare scan: total segment count only.
        let text = explain(&Plan::scan("t"), &c);
        assert!(
            text.contains("Seq Scan on t  (rows=16) [batched] [seg 4]"),
            "{text}"
        );
        // A selective sargable filter prunes: rows 0..4 live in segment
        // 0 of 4.
        let p = Plan::scan("t").select(col("a").lt(lit_i64(4)));
        let text = explain(&p, &c);
        assert!(text.contains("[seg 1/4]"), "{text}");
        // The executed report keeps the plan text and counts actual
        // segment traffic, plus the pool traffic of the one surviving
        // segment of a fresh image — a single-column block, one page
        // read.
        let executed = explain_executed(&p, &c).unwrap();
        assert!(executed.starts_with(&text), "{executed}");
        assert!(
            executed.contains("-- segments: 1 scanned, 3 skipped"),
            "{executed}"
        );
        assert!(
            executed.contains("-- buffer pool: 0 hit(s) / 1 miss(es), 1 page(s) read"),
            "{executed}"
        );
        // Plain storage: no seg annotations or storage footers anywhere.
        let mut plain = c.clone();
        plain.set_storage(StorageMode::Plain);
        let text = explain_executed(&p, &plain).unwrap();
        assert!(!text.contains("[seg"), "{text}");
        assert!(!text.contains("-- segments:"), "{text}");
        assert!(!text.contains("-- buffer pool:"), "{text}");
    }

    #[test]
    fn explain_executed_reports_batch_fill() {
        let c = catalog();
        let p = Plan::scan("r").select(col("a").gt(lit_i64(0)));
        let text = explain_executed(&p, &c).unwrap();
        assert!(text.contains("mean fill"), "{text}");
        // An empty result emits no batches and says so.
        let theta = Plan::scan("r").join(Plan::scan("s"), col("a").lt(col("c")));
        let text = explain_executed(&theta, &c).unwrap();
        assert!(text.contains("no batches emitted"), "{text}");
        assert!(explain_executed(&Plan::scan("nope"), &c).is_err());
    }
}
