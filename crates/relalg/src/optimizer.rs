//! Heuristic + cost-based plan optimization.
//!
//! Three passes, in the spirit of what PostgreSQL did for the paper's
//! translated queries (Section 6: "due to the simplicity of our rewritings,
//! PostgreSQL optimizes the queries in a fairly good way"):
//!
//! 1. **Selection pushdown** — conjuncts are split and routed below joins
//!    and through projections/renames as far as their columns allow.
//! 2. **Join reordering** — maximal inner-join trees are flattened and
//!    rebuilt greedily, smallest estimated intermediate first, using
//!    `|L⋈R| ≈ |L|·|R| / max(ndv)` with NDV traced to base-table stats.
//!    The translation's ψ descriptor-consistency conjuncts
//!    ([`Expr::Psi`]) get their own NDV-driven estimate
//!    instead of a flat guess — descriptor columns are low-selectivity,
//!    and treating them as ordinary predicates made ψ-joins look far
//!    smaller than they are. Pair scoring is pure arithmetic over
//!    per-leaf distinct-count tables bound once during flattening.
//!    Estimates are memoized per plan node (`EstCache`); the executor
//!    reuses them when picking hash-join build sides.
//! 3. **Projection pruning** — narrowing projections are inserted above
//!    join inputs so only live columns flow through joins (the paper's
//!    "late materialization" benefit depends on this).
//! 4. **Redundant-distinct elimination** — a `Distinct` whose parent
//!    already deduplicates (another `Distinct`, or either side of a
//!    `Difference`, which has set semantics) is stripped. Under the
//!    streaming executor every `Distinct` is a pipeline breaker with a
//!    seen-set buffer, so dropping redundant ones removes real
//!    materializations, not just plan noise.

use crate::catalog::Catalog;
use crate::error::Result;
use crate::expr::{CmpOp, Expr};
use crate::plan::Plan;
use crate::schema::{ColRef, Schema};
use std::collections::BTreeSet;

/// Optimize a plan: pushdown, reorder, prune. The result is equivalent
/// (same bag of tuples up to row order) and usually much faster.
pub fn optimize(plan: &Plan, catalog: &Catalog) -> Result<Plan> {
    // Validate input while we are at it: schema() errors early.
    plan.schema(catalog)?;
    let p = push_selections(plan.clone(), catalog);
    let p = reorder_joins(p, catalog);
    let p = prune_projections(p, catalog, None);
    let p = strip_redundant_distinct(p, false);
    p.schema(catalog)?; // invariant: optimization preserves well-formedness
    Ok(p)
}

// ---------------------------------------------------------------------------
// Pass 4: redundant-distinct elimination
// ---------------------------------------------------------------------------

/// Drop `Distinct` nodes whose output reaches a deduplicating operator
/// anyway. `deduped` is true when an ancestor already imposes set
/// semantics on this subtree's multiplicities: another `Distinct`, or a
/// `Difference` (SQL `EXCEPT` both dedups its left side and only tests
/// membership on its right). The flag propagates through σ and ρ (which
/// preserve "is a set") and conservatively resets at every other
/// operator.
fn strip_redundant_distinct(plan: Plan, deduped: bool) -> Plan {
    match plan {
        Plan::Distinct(input) if deduped => strip_redundant_distinct(*input, true),
        Plan::Distinct(input) => Plan::Distinct(Box::new(strip_redundant_distinct(*input, true))),
        // σ over a set stays a set: keep propagating.
        Plan::Select { input, pred } => Plan::Select {
            input: Box::new(strip_redundant_distinct(*input, deduped)),
            pred,
        },
        // ρ is a pure schema change.
        Plan::Rename { input, alias } => Plan::Rename {
            input: Box::new(strip_redundant_distinct(*input, deduped)),
            alias,
        },
        // Difference has set semantics on its own output and only tests
        // membership on the right: Distinct directly under either side
        // is redundant.
        Plan::Difference { left, right } => Plan::Difference {
            left: Box::new(strip_redundant_distinct(*left, true)),
            right: Box::new(strip_redundant_distinct(*right, true)),
        },
        // Everything else resets the flag for its children.
        Plan::Project { input, cols } => Plan::Project {
            input: Box::new(strip_redundant_distinct(*input, false)),
            cols,
        },
        Plan::Join { left, right, pred } => Plan::Join {
            left: Box::new(strip_redundant_distinct(*left, false)),
            right: Box::new(strip_redundant_distinct(*right, false)),
            pred,
        },
        Plan::Union { left, right } => Plan::Union {
            left: Box::new(strip_redundant_distinct(*left, false)),
            right: Box::new(strip_redundant_distinct(*right, false)),
        },
        leaf => leaf,
    }
}

// ---------------------------------------------------------------------------
// Pass 1: selection pushdown
// ---------------------------------------------------------------------------

fn push_selections(plan: Plan, catalog: &Catalog) -> Plan {
    match plan {
        Plan::Select { input, pred } => {
            let inner = push_selections(*input, catalog);
            push_pred_into(inner, pred, catalog)
        }
        Plan::Project { input, cols } => Plan::Project {
            input: Box::new(push_selections(*input, catalog)),
            cols,
        },
        Plan::Join { left, right, pred } => Plan::Join {
            left: Box::new(push_selections(*left, catalog)),
            right: Box::new(push_selections(*right, catalog)),
            pred,
        },
        Plan::Union { left, right } => Plan::Union {
            left: Box::new(push_selections(*left, catalog)),
            right: Box::new(push_selections(*right, catalog)),
        },
        Plan::Difference { left, right } => Plan::Difference {
            left: Box::new(push_selections(*left, catalog)),
            right: Box::new(push_selections(*right, catalog)),
        },
        Plan::Distinct(input) => Plan::Distinct(Box::new(push_selections(*input, catalog))),
        Plan::Rename { input, alias } => Plan::Rename {
            input: Box::new(push_selections(*input, catalog)),
            alias,
        },
        leaf => leaf,
    }
}

/// Push a predicate as deep as possible into an (already pushed) plan.
fn push_pred_into(plan: Plan, pred: Expr, catalog: &Catalog) -> Plan {
    let conjuncts = pred.conjuncts();
    if conjuncts.is_empty() {
        return plan;
    }
    match plan {
        Plan::Select { input, pred: inner } => {
            // Merge and retry as one predicate set.
            let merged = Expr::and(conjuncts.into_iter().chain(inner.conjuncts()));
            push_pred_into(*input, merged, catalog)
        }
        Plan::Join {
            left,
            right,
            pred: jp,
        } => {
            let ls = match left.schema_shape(catalog) {
                Ok(s) => s,
                Err(_) => {
                    return rebuild_select(
                        Plan::Join {
                            left,
                            right,
                            pred: jp,
                        },
                        conjuncts,
                    )
                }
            };
            let rs = match right.schema_shape(catalog) {
                Ok(s) => s,
                Err(_) => {
                    return rebuild_select(
                        Plan::Join {
                            left,
                            right,
                            pred: jp,
                        },
                        conjuncts,
                    )
                }
            };
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut to_join = Vec::new();
            for c in conjuncts {
                if resolves_all(&c, &ls) {
                    to_left.push(c);
                } else if resolves_all(&c, &rs) {
                    to_right.push(c);
                } else {
                    to_join.push(c);
                }
            }
            let new_left = if to_left.is_empty() {
                *left
            } else {
                push_pred_into(*left, Expr::and(to_left), catalog)
            };
            let new_right = if to_right.is_empty() {
                *right
            } else {
                push_pred_into(*right, Expr::and(to_right), catalog)
            };
            Plan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                pred: Expr::and(jp.conjuncts().into_iter().chain(to_join)),
            }
        }
        Plan::Project { input, cols } => {
            // Push through iff every referenced output column is a plain
            // column alias; rewrite references to the input names.
            let all_cols: BTreeSet<ColRef> = conjuncts.iter().flat_map(|c| c.columns()).collect();
            let mut mapping = Vec::new();
            let mut pushable = true;
            'outer: for r in &all_cols {
                for (e, name) in &cols {
                    if name.matches(r) || (r.qualifier.is_none() && name.name == r.name) {
                        if let Expr::Col(src) = e {
                            mapping.push((r.clone(), src.clone()));
                            continue 'outer;
                        }
                    }
                }
                pushable = false;
                break;
            }
            if pushable {
                let rewritten = Expr::and(conjuncts).map_columns(&|c| {
                    mapping
                        .iter()
                        .find(|(from, _)| from == c)
                        .map(|(_, to)| to.clone())
                        .unwrap_or_else(|| c.clone())
                });
                Plan::Project {
                    input: Box::new(push_pred_into(*input, rewritten, catalog)),
                    cols,
                }
            } else {
                rebuild_select(Plan::Project { input, cols }, conjuncts)
            }
        }
        Plan::Rename { input, alias } => {
            // Strip the alias qualifier and push inside if the stripped
            // predicate still compiles there.
            let inner_schema = match input.schema_shape(catalog) {
                Ok(s) => s,
                Err(_) => return rebuild_select(Plan::Rename { input, alias }, conjuncts),
            };
            let stripped = Expr::and(conjuncts.clone()).map_columns(&|c| {
                if c.qualifier.as_deref() == Some(alias.as_str()) {
                    c.unqualified()
                } else {
                    c.clone()
                }
            });
            if stripped.compile(&inner_schema).is_ok() {
                Plan::Rename {
                    input: Box::new(push_pred_into(*input, stripped, catalog)),
                    alias,
                }
            } else {
                rebuild_select(Plan::Rename { input, alias }, conjuncts)
            }
        }
        Plan::Distinct(input) => Plan::Distinct(Box::new(push_pred_into(
            *input,
            Expr::and(conjuncts),
            catalog,
        ))),
        Plan::Difference { left, right } => {
            // σ(L − R) = σ(L) − R; pushing into R would be wrong.
            Plan::Difference {
                left: Box::new(push_pred_into(*left, Expr::and(conjuncts), catalog)),
                right,
            }
        }
        Plan::Union { left, right } => {
            // Union is positional; push only if the predicate compiles on
            // both children by name.
            let p = Expr::and(conjuncts.clone());
            let ok = left
                .schema_shape(catalog)
                .and_then(|s| p.compile(&s))
                .is_ok()
                && right
                    .schema_shape(catalog)
                    .and_then(|s| p.compile(&s))
                    .is_ok();
            if ok {
                Plan::Union {
                    left: Box::new(push_pred_into(*left, p.clone(), catalog)),
                    right: Box::new(push_pred_into(*right, p, catalog)),
                }
            } else {
                rebuild_select(Plan::Union { left, right }, conjuncts)
            }
        }
        other => rebuild_select(other, conjuncts),
    }
}

fn rebuild_select(plan: Plan, conjuncts: Vec<Expr>) -> Plan {
    if conjuncts.is_empty() {
        plan
    } else {
        plan.select(Expr::and(conjuncts))
    }
}

fn resolves_all(e: &Expr, schema: &Schema) -> bool {
    e.columns().iter().all(|c| schema.resolve(c).is_ok())
}

// ---------------------------------------------------------------------------
// Pass 2: greedy join reordering
// ---------------------------------------------------------------------------

fn reorder_joins(plan: Plan, catalog: &Catalog) -> Plan {
    match plan {
        Plan::Join { .. } => {
            let original = plan.clone();
            let mut leaves = Vec::new();
            let mut conjuncts = Vec::new();
            if flatten_joins(plan, catalog, &mut leaves, &mut conjuncts).is_some() {
                rebuild_join_tree(leaves, conjuncts, catalog)
                    .unwrap_or_else(|| reorder_children_only(original, catalog))
            } else {
                reorder_children_only(original, catalog)
            }
        }
        Plan::Select { input, pred } => Plan::Select {
            input: Box::new(reorder_joins(*input, catalog)),
            pred,
        },
        Plan::Project { input, cols } => Plan::Project {
            input: Box::new(reorder_joins(*input, catalog)),
            cols,
        },
        Plan::Union { left, right } => Plan::Union {
            left: Box::new(reorder_joins(*left, catalog)),
            right: Box::new(reorder_joins(*right, catalog)),
        },
        Plan::Difference { left, right } => Plan::Difference {
            left: Box::new(reorder_joins(*left, catalog)),
            right: Box::new(reorder_joins(*right, catalog)),
        },
        Plan::Distinct(input) => Plan::Distinct(Box::new(reorder_joins(*input, catalog))),
        Plan::Rename { input, alias } => Plan::Rename {
            input: Box::new(reorder_joins(*input, catalog)),
            alias,
        },
        leaf => leaf,
    }
}

/// Recurse into a join's children without flattening this node (fallback
/// when safe rebinding is impossible).
fn reorder_children_only(plan: Plan, catalog: &Catalog) -> Plan {
    match plan {
        Plan::Join { left, right, pred } => Plan::Join {
            left: Box::new(reorder_joins(*left, catalog)),
            right: Box::new(reorder_joins(*right, catalog)),
            pred,
        },
        other => reorder_joins(other, catalog),
    }
}

/// A conjunct whose column references have been bound to concrete
/// (leaf index, column index) pairs, so it can be re-applied at any point
/// of a rebuilt join tree without name-capture bugs.
struct BoundConjunct {
    expr: Expr,
    /// For every distinct column reference in `expr`: where it binds.
    bindings: Vec<(ColRef, usize, usize)>,
    /// Set of leaf indices the conjunct touches.
    leaves: BTreeSet<usize>,
}

/// A join conjunct classified for arithmetic pair scoring, with every
/// column pre-bound to `(leaf index, column index)` — scoring a
/// candidate join pair then needs no plan walks or name resolution.
enum ConjunctKind {
    /// `col = col` across two leaves: `(leaf_a, col_a, leaf_b, col_b)`.
    Equi(usize, usize, usize, usize),
    /// The translation's ψ descriptor-consistency conjunct across two
    /// leaves: `(leaf_a, col_a, leaf_b, col_b)`.
    Psi(usize, usize, usize, usize),
    /// Anything else: flat 0.5 selectivity.
    Other,
}

fn classify_conjunct(b: &BoundConjunct) -> ConjunctKind {
    let bind = |c: &ColRef| {
        b.bindings
            .iter()
            .find(|(r, _, _)| r == c)
            .map(|(_, leaf, local)| (*leaf, *local))
    };
    let cross_pair = |cx: &ColRef, cy: &ColRef| -> Option<(usize, usize, usize, usize)> {
        let (lx, ix) = bind(cx)?;
        let (ly, iy) = bind(cy)?;
        (lx != ly).then_some((lx, ix, ly, iy))
    };
    let (Expr::Cmp(CmpOp::Eq, x, y) | Expr::Psi(x, y)) = &b.expr else {
        return ConjunctKind::Other;
    };
    let (Expr::Col(cx), Expr::Col(cy)) = (x.as_ref(), y.as_ref()) else {
        return ConjunctKind::Other;
    };
    match (cross_pair(cx, cy), &b.expr) {
        (Some((la, ca, lb, cb)), Expr::Psi(..)) => ConjunctKind::Psi(la, ca, lb, cb),
        (Some((la, ca, lb, cb)), _) => ConjunctKind::Equi(la, ca, lb, cb),
        (None, _) => ConjunctKind::Other,
    }
}

/// Flatten a join tree. Returns `None` (reordering aborted) if any
/// predicate column cannot be bound unambiguously at its original node.
fn flatten_joins(
    plan: Plan,
    catalog: &Catalog,
    leaves: &mut Vec<(Plan, Schema)>,
    conjuncts: &mut Vec<BoundConjunct>,
) -> Option<std::ops::Range<usize>> {
    match plan {
        Plan::Join { left, right, pred } => {
            let lr = flatten_joins(*left, catalog, leaves, conjuncts)?;
            let rr = flatten_joins(*right, catalog, leaves, conjuncts)?;
            let range = lr.start..rr.end;
            // Bind this node's conjuncts against the concatenated schema of
            // its own subtree, exactly as the original plan resolved them.
            let mut joint = Schema::default();
            let mut offsets = Vec::new();
            for (_, s) in &leaves[range.clone()] {
                offsets.push(joint.arity());
                joint = joint.concat(s);
            }
            for c in pred.conjuncts() {
                let mut bindings = Vec::new();
                let mut leaf_set = BTreeSet::new();
                for r in c.columns() {
                    let global = joint.resolve(&r).ok()?;
                    // Map the flat index back to (leaf, local).
                    let rel = offsets
                        .iter()
                        .rposition(|&o| o <= global)
                        .expect("offset exists");
                    let leaf_idx = range.start + rel;
                    let local = global - offsets[rel];
                    leaf_set.insert(leaf_idx);
                    bindings.push((r, leaf_idx, local));
                }
                conjuncts.push(BoundConjunct {
                    expr: c,
                    bindings,
                    leaves: leaf_set,
                });
            }
            Some(range)
        }
        other => {
            let reordered = reorder_joins(other, catalog);
            let schema = reordered.schema_shape(catalog).ok()?;
            let start = leaves.len();
            leaves.push((reordered, schema));
            Some(start..start + 1)
        }
    }
}

/// Greedily rebuild a flattened join tree, smallest estimated intermediate
/// first. Every leaf is wrapped in a fresh `__jK` alias and conjuncts are
/// rewritten to fully-qualified references, so rebinding is unambiguous in
/// any shape; a final projection restores the original output schema.
/// Returns `None` if a leaf has internally duplicated column names (then
/// the original shape is kept).
fn rebuild_join_tree(
    leaves: Vec<(Plan, Schema)>,
    conjuncts: Vec<BoundConjunct>,
    catalog: &Catalog,
) -> Option<Plan> {
    if leaves.len() == 1 {
        let (leaf, _) = leaves.into_iter().next().unwrap();
        let preds: Vec<Expr> = conjuncts.into_iter().map(|b| b.expr).collect();
        return Some(rebuild_select(leaf, preds));
    }
    // Leaf column names must be unique within each leaf for `__jK.name`
    // qualification to be unambiguous.
    for (_, s) in &leaves {
        let mut names: Vec<&str> = s.columns().iter().map(|c| &*c.name).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
    }

    let original_schemas: Vec<Schema> = leaves.iter().map(|(_, s)| s.clone()).collect();

    // Per-leaf per-column distinct counts, traced once through the leaf
    // plans to the base-table statistics. Pair scoring below is then
    // pure arithmetic over these tables — the old code re-walked the
    // growing part plans for NDV on every pair of every round, which
    // dominated optimization time on the translated multi-join queries.
    let leaf_ndv: Vec<Vec<f64>> = leaves
        .iter()
        .map(|(p, s)| {
            let cache = EstCache::default();
            (0..s.arity())
                .map(|c| column_ndv(p, c, catalog, &cache))
                .collect()
        })
        .collect();
    // Rewrite conjuncts to `__jK.name` form and classify them for the
    // arithmetic scorer.
    let rewritten: Vec<(Expr, BTreeSet<usize>, ConjunctKind)> = conjuncts
        .into_iter()
        .map(|b| {
            let kind = classify_conjunct(&b);
            let expr = b.expr.map_columns(&|c| {
                b.bindings
                    .iter()
                    .find(|(r, _, _)| r == c)
                    .map(|(_, leaf, local)| {
                        ColRef::qualified(
                            format!("__j{leaf}"),
                            &*original_schemas[*leaf].columns()[*local].name,
                        )
                    })
                    .unwrap_or_else(|| c.clone())
            });
            (expr, b.leaves, kind)
        })
        .collect();

    // (plan, covered leaves, estimate, output schema) for each remaining
    // input. Schemas are carried and concatenated instead of re-derived:
    // `Plan::schema` re-compiles predicates, which made the pair loop
    // quadratically expensive on the translated multi-join plans.
    let mut parts: Vec<(Plan, BTreeSet<usize>, f64, Schema)> = leaves
        .into_iter()
        .enumerate()
        .map(|(k, (p, s))| {
            let est = est_rows(&p, catalog);
            let alias = format!("__j{k}");
            let schema = s.qualify(&alias);
            (p.rename(alias), BTreeSet::from([k]), est, schema)
        })
        .collect();
    let mut remaining: Vec<(Expr, BTreeSet<usize>, ConjunctKind)> = rewritten;

    // NDV clamped by a side's estimated rows (a column cannot have more
    // distinct values than the side has tuples).
    let ndv_at = |leaf: usize, col: usize, side_rows: f64| -> f64 {
        leaf_ndv[leaf][col].max(1.0).min(side_rows.max(1.0))
    };
    while parts.len() > 1 {
        let mut best: Option<(usize, usize, f64, bool)> = None;
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                let (ei, ej) = (parts[i].2, parts[j].2);
                let mut est = ei * ej;
                let mut connected = false;
                for (_, ls, kind) in &remaining {
                    if !(ls.is_subset(&parts[i].1) || ls.is_subset(&parts[j].1))
                        && ls
                            .iter()
                            .all(|l| parts[i].1.contains(l) || parts[j].1.contains(l))
                    {
                        connected = true;
                        // Clamp each column's NDV by the rows of the side
                        // its leaf actually landed on.
                        let rows_of =
                            |leaf: &usize| if parts[i].1.contains(leaf) { ei } else { ej };
                        let ndv = |la: &usize, ca: &usize, lb: &usize, cb: &usize| {
                            ndv_at(*la, *ca, rows_of(la)).max(ndv_at(*lb, *cb, rows_of(lb)))
                        };
                        match kind {
                            ConjunctKind::Equi(la, ca, lb, cb) => est /= ndv(la, ca, lb, cb),
                            ConjunctKind::Psi(la, ca, lb, cb) => {
                                est *= psi_survival(ndv(la, ca, lb, cb));
                            }
                            ConjunctKind::Other => est *= 0.5,
                        }
                    }
                }
                let est = est.max(1.0).min(ei * ej);
                let score = if connected { est } else { est * 1e6 };
                if best.as_ref().is_none_or(|(_, _, b, _)| score < *b) {
                    best = Some((i, j, score, connected));
                }
            }
        }
        let (i, j, est, _) = best.expect("at least two parts");
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        let (pj, cj, _, sj) = parts.remove(hi);
        let (pi, ci, _, si) = parts.remove(lo);
        let cover: BTreeSet<usize> = ci.union(&cj).cloned().collect();
        let mut preds = Vec::new();
        remaining.retain(|(e, ls, _)| {
            if ls.is_subset(&cover) {
                preds.push(e.clone());
                false
            } else {
                true
            }
        });
        let joined = pi.join(pj, Expr::and(preds));
        let joined_schema = si.concat(&sj);
        parts.push((joined, cover, est, joined_schema));
    }
    let (mut plan, _, _, _) = parts.into_iter().next().unwrap();
    // Any leftover predicates apply at the top (still in __j form).
    let leftover: Vec<Expr> = remaining.into_iter().map(|(e, _, _)| e).collect();
    plan = rebuild_select(plan, leftover);
    // Restore the original column names and order.
    let mut cols = Vec::new();
    for (k, s) in original_schemas.iter().enumerate() {
        for c in s.columns() {
            cols.push((
                Expr::Col(ColRef::qualified(format!("__j{k}"), &*c.name)),
                c.clone(),
            ));
        }
    }
    Some(Plan::Project {
        input: Box::new(plan),
        cols,
    })
}

// ---------------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------------

/// Memo for repeated cardinality estimates (row counts *and* schema
/// shapes) over one immutably borrowed plan tree, keyed by node address.
/// Valid only while that borrow is live (the executor's prepare phase,
/// one estimation call) — node addresses are stable there because the
/// tree is never mutated.
#[derive(Default)]
pub(crate) struct EstCache {
    rows: std::cell::RefCell<crate::fxhash::FxHashMap<usize, f64>>,
    shapes: std::cell::RefCell<crate::fxhash::FxHashMap<usize, Schema>>,
}

/// Estimated output rows of a plan (used by reordering and EXPLAIN).
pub fn est_rows(plan: &Plan, catalog: &Catalog) -> f64 {
    est_rows_cached(plan, catalog, &EstCache::default())
}

/// [`est_rows`] with an explicit memo: the streaming executor estimates
/// both sides of every hash join to pick the build side, which revisits
/// the same subtrees O(joins) times per prepare.
pub(crate) fn est_rows_cached(plan: &Plan, catalog: &Catalog, cache: &EstCache) -> f64 {
    let key = plan as *const Plan as usize;
    if let Some(v) = cache.rows.borrow().get(&key) {
        return *v;
    }
    let v = est_rows_uncached(plan, catalog, cache);
    cache.rows.borrow_mut().insert(key, v);
    v
}

/// Memoized schema shape: estimation consults the schema of every
/// σ/join node, and deriving it fresh each time is quadratic in plan
/// size. Errors collapse to the empty schema (estimates stay defined).
pub(crate) fn shape_cached(plan: &Plan, catalog: &Catalog, cache: &EstCache) -> Schema {
    let key = plan as *const Plan as usize;
    if let Some(s) = cache.shapes.borrow().get(&key) {
        return s.clone();
    }
    let s = match plan {
        Plan::Scan(name) => catalog
            .get(name)
            .map(|r| r.schema().clone())
            .unwrap_or_default(),
        Plan::Values(rel) => rel.schema().clone(),
        Plan::Select { input, .. } | Plan::Distinct(input) => shape_cached(input, catalog, cache),
        Plan::Project { cols, .. } => Schema::new(cols.iter().map(|(_, n)| n.clone()).collect()),
        Plan::Join { left, right, .. } => {
            shape_cached(left, catalog, cache).concat(&shape_cached(right, catalog, cache))
        }
        Plan::Union { left, .. } | Plan::Difference { left, .. } => {
            shape_cached(left, catalog, cache)
        }
        Plan::Rename { input, alias } => shape_cached(input, catalog, cache).qualify(alias),
    };
    cache.shapes.borrow_mut().insert(key, s.clone());
    s
}

fn est_rows_uncached(plan: &Plan, catalog: &Catalog, cache: &EstCache) -> f64 {
    match plan {
        Plan::Scan(name) => catalog.stats(name).map(|s| s.rows as f64).unwrap_or(1000.0),
        Plan::Values(rel) => rel.len() as f64,
        Plan::Select { input, pred } => {
            let base = est_rows_cached(input, catalog, cache);
            let schema = shape_cached(input, catalog, cache);
            let mut sel = 1.0;
            pred.for_each_conjunct(&mut |c| {
                sel *= selectivity(c, input, &schema, catalog, cache);
            });
            (base * sel).max(1.0)
        }
        Plan::Project { input, .. } | Plan::Rename { input, .. } => {
            est_rows_cached(input, catalog, cache)
        }
        Plan::Distinct(input) => est_rows_cached(input, catalog, cache) * 0.9,
        Plan::Join { left, right, pred } => {
            let ls = shape_cached(left, catalog, cache);
            let rs = shape_cached(right, catalog, cache);
            let mut conjuncts: Vec<&Expr> = Vec::new();
            pred.for_each_conjunct(&mut |c| conjuncts.push(c));
            join_estimate(
                est_rows_cached(left, catalog, cache),
                est_rows_cached(right, catalog, cache),
                &conjuncts,
                left,
                &ls,
                right,
                &rs,
                catalog,
                cache,
            )
        }
        Plan::Union { left, right } => {
            est_rows_cached(left, catalog, cache) + est_rows_cached(right, catalog, cache)
        }
        Plan::Difference { left, .. } => est_rows_cached(left, catalog, cache),
    }
}

/// Resolve a column pair to (left index, right index) across two
/// schemas, in either written order.
fn cross_cols(ca: &ColRef, cb: &ColRef, ls: &Schema, rs: &Schema) -> Option<(usize, usize)> {
    match (
        ls.resolve(ca).ok(),
        rs.resolve(ca).ok(),
        ls.resolve(cb).ok(),
        rs.resolve(cb).ok(),
    ) {
        (Some(li), None, None, Some(ri)) => Some((li, ri)),
        (None, Some(ri), Some(li), None) => Some((li, ri)),
        _ => None,
    }
}

#[allow(clippy::too_many_arguments)]
fn join_estimate(
    l_rows: f64,
    r_rows: f64,
    conjuncts: &[&Expr],
    left: &Plan,
    ls: &Schema,
    right: &Plan,
    rs: &Schema,
    catalog: &Catalog,
    cache: &EstCache,
) -> f64 {
    let ndv_pair = |li: usize, ri: usize| -> f64 {
        let ndv_l = column_ndv(left, li, catalog, cache)
            .max(1.0)
            .min(l_rows.max(1.0));
        let ndv_r = column_ndv(right, ri, catalog, cache)
            .max(1.0)
            .min(r_rows.max(1.0));
        ndv_l.max(ndv_r)
    };
    let mut est = l_rows * r_rows;
    for &c in conjuncts {
        let cross = match c {
            Expr::Cmp(CmpOp::Eq, a, b) | Expr::Psi(a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(ca), Expr::Col(cb)) => cross_cols(ca, cb, ls, rs),
                _ => None,
            },
            _ => None,
        };
        match (c, cross) {
            (Expr::Psi(..), Some((li, ri))) => est *= psi_survival(ndv_pair(li, ri)),
            (_, Some((li, ri))) => est /= ndv_pair(li, ri),
            (_, None) => est *= 0.5,
        }
    }
    est.max(1.0)
}

/// Survival fraction of a ψ conjunct between two descriptor-entry columns
/// whose larger side has `ndv` distinct codes: `1 − (n − 1)/n²`.
///
/// ψ drops only pairs on the same variable with different ranges. One
/// column's distinct count bounds both how many variables and how many
/// ranges the codes hold, so taking each as `n`, independently, gives
/// `P(same var) · P(different rng) = (1/n)(1 − 1/n)`. A ⊤-only column
/// (`n = 1`) is non-selective, and ψ nears a tautology as `n` grows —
/// treating it as an ordinary predicate made ψ-joins look far smaller
/// than they are, which skewed the join order and build sides.
pub(crate) fn psi_survival(ndv: f64) -> f64 {
    let n = ndv.max(1.0);
    1.0 - (n - 1.0) / (n * n)
}

fn selectivity(
    conjunct: &Expr,
    input: &Plan,
    schema: &Schema,
    catalog: &Catalog,
    cache: &EstCache,
) -> f64 {
    match conjunct {
        Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) => {
                col_lit_selectivity(*op, c, v, input, schema, catalog, cache)
            }
            (Expr::Lit(v), Expr::Col(c)) => {
                col_lit_selectivity(op.flipped(), c, v, input, schema, catalog, cache)
            }
            // Column-column comparisons estimate from the larger side's
            // distinct count.
            (Expr::Col(ca), Expr::Col(cb)) => {
                let ndv = match (schema.resolve(ca), schema.resolve(cb)) {
                    (Ok(ia), Ok(ib)) => column_ndv(input, ia, catalog, cache)
                        .max(column_ndv(input, ib, catalog, cache))
                        .max(1.0),
                    _ => 10.0,
                };
                match op {
                    CmpOp::Eq => (1.0 / ndv).min(1.0),
                    CmpOp::Ne => (1.0 - 1.0 / ndv).max(0.0),
                    _ => 0.33,
                }
            }
            _ => match op {
                CmpOp::Eq => 0.1,
                _ => 0.33,
            },
        },
        Expr::And(parts) => parts
            .iter()
            .map(|p| selectivity(p, input, schema, catalog, cache))
            .product(),
        Expr::Or(parts) => parts
            .iter()
            .map(|p| selectivity(p, input, schema, catalog, cache))
            .sum::<f64>()
            .min(1.0),
        Expr::Not(e) => 1.0 - selectivity(e, input, schema, catalog, cache),
        Expr::Psi(a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Col(ca), Expr::Col(cb)) => match (schema.resolve(ca), schema.resolve(cb)) {
                (Ok(ia), Ok(ib)) => psi_survival(
                    column_ndv(input, ia, catalog, cache)
                        .max(column_ndv(input, ib, catalog, cache)),
                ),
                _ => 0.5,
            },
            _ => 0.5,
        },
        Expr::Lit(crate::value::Value::Bool(true)) => 1.0,
        Expr::Lit(crate::value::Value::Bool(false)) => 0.0,
        _ => 0.5,
    }
}

/// Selectivity of a normalized `col op literal` conjunct (literal-first
/// comparisons arrive here with `op` already flipped). Equality divides
/// by the distinct count; ranges interpolate within the column's known
/// integer bounds (the min/max of [`TableStats`]) and fall
/// back to the flat 1/3 guess when no bounds are known.
#[allow(clippy::too_many_arguments)]
fn col_lit_selectivity(
    op: CmpOp,
    c: &ColRef,
    v: &crate::value::Value,
    input: &Plan,
    schema: &Schema,
    catalog: &Catalog,
    cache: &EstCache,
) -> f64 {
    match op {
        CmpOp::Eq => {
            let ndv = schema
                .resolve(c)
                .ok()
                .map(|i| column_ndv(input, i, catalog, cache))
                .unwrap_or(10.0);
            (1.0 / ndv.max(1.0)).min(1.0)
        }
        CmpOp::Ne => 0.9,
        _ => {
            let bounds = schema
                .resolve(c)
                .ok()
                .and_then(|i| column_minmax(input, i, catalog, cache));
            match (bounds, v) {
                (Some((lo, hi)), crate::value::Value::Int(k)) => range_fraction(op, *k, lo, hi),
                _ => 0.33,
            }
        }
    }
}

/// Uniform interpolation of `col op k` within known bounds `[lo, hi]`,
/// clamped away from 0 and 1 so stale or skewed bounds can never zero
/// out (or saturate) an estimate and starve the join-order search.
fn range_fraction(op: CmpOp, k: i64, lo: i64, hi: i64) -> f64 {
    let span = ((hi as i128 - lo as i128) + 1) as f64;
    let frac = |n: i128| (n as f64 / span).clamp(0.05, 0.95);
    let (k, lo, hi) = (k as i128, lo as i128, hi as i128);
    match op {
        CmpOp::Lt => frac(k - lo),
        CmpOp::Le => frac(k - lo + 1),
        CmpOp::Gt => frac(hi - k),
        CmpOp::Ge => frac(hi - k + 1),
        // Equality never reaches here (handled by the NDV path).
        CmpOp::Eq | CmpOp::Ne => 0.33,
    }
}

/// Integer min/max of a plan output column, traced through the
/// operators down to base-table statistics (accumulated by the writer
/// of a disk-native relation, else computed from the columnar image).
/// `None` when the column is not integer-typed or has no known bounds;
/// selections deliberately pass bounds through unchanged — a superset
/// range only makes the interpolation conservative.
fn column_minmax(
    plan: &Plan,
    idx: usize,
    catalog: &Catalog,
    cache: &EstCache,
) -> Option<(i64, i64)> {
    use crate::value::Value;
    match plan {
        Plan::Scan(name) => match catalog.stats(name)?.minmax(idx)? {
            (Value::Int(lo), Value::Int(hi)) => Some((*lo, *hi)),
            _ => None,
        },
        Plan::Values(rel) => match crate::stats::TableStats::compute(rel).minmax(idx)? {
            (Value::Int(lo), Value::Int(hi)) => Some((*lo, *hi)),
            _ => None,
        },
        Plan::Select { input, .. } | Plan::Distinct(input) | Plan::Rename { input, .. } => {
            column_minmax(input, idx, catalog, cache)
        }
        Plan::Project { input, cols } => match cols.get(idx) {
            Some((Expr::Col(c), _)) => shape_cached(input, catalog, cache)
                .resolve(c)
                .ok()
                .and_then(|i| column_minmax(input, i, catalog, cache)),
            _ => None,
        },
        Plan::Join { left, right, .. } => {
            let la = shape_cached(left, catalog, cache).arity();
            if idx < la {
                column_minmax(left, idx, catalog, cache)
            } else {
                column_minmax(right, idx - la, catalog, cache)
            }
        }
        Plan::Difference { left, .. } => column_minmax(left, idx, catalog, cache),
        Plan::Union { left, right } => {
            let (llo, lhi) = column_minmax(left, idx, catalog, cache)?;
            let (rlo, rhi) = column_minmax(right, idx, catalog, cache)?;
            Some((llo.min(rlo), lhi.max(rhi)))
        }
    }
}

/// NDV of a plan output column, traced through the operators down to the
/// base-table statistics where possible (the catalog computes exact
/// per-column distinct counts from the columnar image at registration).
fn column_ndv(plan: &Plan, idx: usize, catalog: &Catalog, cache: &EstCache) -> f64 {
    match plan {
        Plan::Scan(name) => catalog
            .stats(name)
            .map(|s| s.ndv_or_default(idx) as f64)
            .unwrap_or(10.0),
        Plan::Values(rel) => crate::stats::TableStats::compute(rel).ndv_or_default(idx) as f64,
        Plan::Select { input, .. } | Plan::Distinct(input) | Plan::Rename { input, .. } => {
            column_ndv(input, idx, catalog, cache)
        }
        Plan::Project { input, cols } => match cols.get(idx) {
            Some((Expr::Col(c), _)) => shape_cached(input, catalog, cache)
                .resolve(c)
                .ok()
                .map(|i| column_ndv(input, i, catalog, cache))
                .unwrap_or(10.0),
            Some((Expr::Lit(_), _)) => 1.0,
            _ => est_rows_cached(plan, catalog, cache),
        },
        Plan::Join { left, right, .. } => {
            let la = shape_cached(left, catalog, cache).arity();
            if idx < la {
                column_ndv(left, idx, catalog, cache)
            } else {
                column_ndv(right, idx - la, catalog, cache)
            }
        }
        Plan::Union { left, right } => {
            column_ndv(left, idx, catalog, cache) + column_ndv(right, idx, catalog, cache)
        }
        Plan::Difference { left, .. } => column_ndv(left, idx, catalog, cache),
    }
}

// ---------------------------------------------------------------------------
// Pass 3: projection pruning above join inputs
// ---------------------------------------------------------------------------

fn prune_projections(plan: Plan, catalog: &Catalog, needed: Option<&BTreeSet<ColRef>>) -> Plan {
    match plan {
        Plan::Project { input, cols } => {
            // Drop projection outputs the parent does not need (safe in bag
            // semantics: arity changes, multiplicity does not). Positional
            // parents pass `needed = None` and keep everything.
            let cols: Vec<_> = match needed {
                Some(n) => {
                    let kept: Vec<_> = cols
                        .iter()
                        .filter(|(_, name)| n.iter().any(|u| name.matches(u)))
                        .cloned()
                        .collect();
                    if kept.is_empty() {
                        cols.into_iter().take(1).collect()
                    } else {
                        kept
                    }
                }
                None => cols,
            };
            let used: BTreeSet<ColRef> = cols.iter().flat_map(|(e, _)| e.columns()).collect();
            Plan::Project {
                input: Box::new(prune_projections(*input, catalog, Some(&used))),
                cols,
            }
        }
        Plan::Select { input, pred } => {
            let mut used: BTreeSet<ColRef> = pred.columns();
            match needed {
                Some(n) => used.extend(n.iter().cloned()),
                None => {
                    return Plan::Select {
                        input: Box::new(prune_projections(*input, catalog, None)),
                        pred,
                    }
                }
            }
            Plan::Select {
                input: Box::new(prune_projections(*input, catalog, Some(&used))),
                pred,
            }
        }
        Plan::Join { left, right, pred } => {
            let mut used: BTreeSet<ColRef> = pred.columns();
            let all_needed = needed.is_none();
            if let Some(n) = needed {
                used.extend(n.iter().cloned());
            }
            let l = prune_side(*left, catalog, &used, all_needed);
            let r = prune_side(*right, catalog, &used, all_needed);
            Plan::Join {
                left: Box::new(l),
                right: Box::new(r),
                pred,
            }
        }
        // Positional / set-sensitive operators: stop propagating needs.
        Plan::Union { left, right } => Plan::Union {
            left: Box::new(prune_projections(*left, catalog, None)),
            right: Box::new(prune_projections(*right, catalog, None)),
        },
        Plan::Difference { left, right } => Plan::Difference {
            left: Box::new(prune_projections(*left, catalog, None)),
            right: Box::new(prune_projections(*right, catalog, None)),
        },
        Plan::Distinct(input) => Plan::Distinct(Box::new(prune_projections(*input, catalog, None))),
        Plan::Rename { input, alias } => {
            // Strip the alias qualifier to express needs in terms of the
            // inner schema; foreign-qualified refs cannot match inside.
            let inner_needed: Option<BTreeSet<ColRef>> = needed.map(|n| {
                n.iter()
                    .filter_map(|c| match &c.qualifier {
                        Some(q) if **q == *alias => Some(c.unqualified()),
                        Some(_) => None,
                        None => Some(c.clone()),
                    })
                    .collect()
            });
            Plan::Rename {
                input: Box::new(prune_projections(*input, catalog, inner_needed.as_ref())),
                alias,
            }
        }
        leaf => leaf,
    }
}

/// Insert a narrowing projection above a join input when the parent needs
/// strictly fewer columns than the input produces.
fn prune_side(side: Plan, catalog: &Catalog, used: &BTreeSet<ColRef>, all_needed: bool) -> Plan {
    let pruned = prune_projections(side, catalog, if all_needed { None } else { Some(used) });
    if all_needed {
        return pruned;
    }
    let Ok(schema) = pruned.schema_shape(catalog) else {
        return pruned;
    };
    let keep: Vec<ColRef> = schema
        .columns()
        .iter()
        .filter(|c| used.iter().any(|u| c.matches(u)))
        .cloned()
        .collect();
    if keep.is_empty() || keep.len() == schema.arity() {
        return pruned;
    }
    // Keep fully-qualified output names so references above stay valid.
    Plan::Project {
        input: Box::new(pruned),
        cols: keep
            .into_iter()
            .map(|c| (Expr::Col(c.clone()), c))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::expr::{col, lit_bool, lit_i64, lit_str};
    use crate::relation::Relation;
    use crate::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut big = Vec::new();
        for i in 0..200 {
            big.push(vec![Value::Int(i), Value::Int(i % 10), Value::str("pay")]);
        }
        c.insert("big", Relation::from_rows(["k", "fk", "pay"], big).unwrap());
        let mut small = Vec::new();
        for i in 0..10 {
            small.push(vec![Value::Int(i), Value::str(format!("g{i}"))]);
        }
        c.insert("small", Relation::from_rows(["g", "gname"], small).unwrap());
        c
    }

    fn assert_equivalent(p: &Plan, c: &Catalog) {
        let opt = optimize(p, c).unwrap();
        let before = execute(p, c).unwrap();
        let after = execute(&opt, c).unwrap();
        assert!(
            before.set_eq(&after),
            "optimization changed results:\nplan: {p:?}\nopt: {opt:?}"
        );
    }

    #[test]
    fn pushdown_preserves_semantics() {
        let c = catalog();
        let p = Plan::scan("big")
            .join(Plan::scan("small"), col("fk").eq(col("g")))
            .select(Expr::and([
                col("k").lt(lit_i64(50)),
                col("gname").eq(lit_str("g3")),
            ]))
            .project_names(["k", "gname"]);
        assert_equivalent(&p, &c);
        // And the selection actually moved below the join.
        let opt = optimize(&p, &c).unwrap();
        fn select_above_join(p: &Plan) -> bool {
            match p {
                Plan::Select { input, .. } => {
                    matches!(**input, Plan::Join { .. }) || select_above_join(input)
                }
                Plan::Project { input, .. }
                | Plan::Distinct(input)
                | Plan::Rename { input, .. } => select_above_join(input),
                Plan::Join { left, right, .. } => {
                    select_above_join(left) || select_above_join(right)
                }
                _ => false,
            }
        }
        assert!(!select_above_join(&opt), "selection not pushed: {opt:?}");
    }

    #[test]
    fn reorder_handles_three_way_join() {
        let c = catalog();
        let p = Plan::scan("big")
            .join(Plan::scan("small"), col("fk").eq(col("g")))
            .join(Plan::scan("small").rename("s2"), col("fk").eq(col("s2.g")));
        assert_equivalent(&p, &c);
    }

    #[test]
    fn pruning_narrows_join_inputs() {
        let c = catalog();
        let p = Plan::scan("big")
            .join(Plan::scan("small"), col("fk").eq(col("g")))
            .project_names(["k"]);
        let opt = optimize(&p, &c).unwrap();
        assert_equivalent(&p, &c);
        // The join's left input should now produce at most 2 columns
        // (k, fk) instead of 3.
        fn max_join_input_arity(p: &Plan, c: &Catalog) -> usize {
            match p {
                Plan::Join { left, right, .. } => {
                    let la = left.schema(c).map(|s| s.arity()).unwrap_or(0);
                    let ra = right.schema(c).map(|s| s.arity()).unwrap_or(0);
                    la.max(ra)
                        .max(max_join_input_arity(left, c))
                        .max(max_join_input_arity(right, c))
                }
                Plan::Select { input, .. }
                | Plan::Project { input, .. }
                | Plan::Distinct(input)
                | Plan::Rename { input, .. } => max_join_input_arity(input, c),
                _ => 0,
            }
        }
        assert!(max_join_input_arity(&opt, &c) <= 2, "{opt:?}");
    }

    /// Two descriptor-bearing partitions `u1[d1, a]` and `u2[d2, b]` of
    /// 100 rows each, entry `i` packing `entry(i)`.
    fn descriptor_catalog(entry: impl Fn(i64) -> (u32, u64)) -> Catalog {
        let mut c = Catalog::new();
        for (name, cols) in [("u1", ["d1", "a"]), ("u2", ["d2", "b"])] {
            let rows: Vec<Vec<Value>> = (0..100)
                .map(|i| {
                    let (var, rng) = entry(i);
                    let code = crate::expr::pack(var, rng).unwrap();
                    vec![Value::Int(code), Value::Int(i)]
                })
                .collect();
            c.insert(name, Relation::from_rows(cols, rows).unwrap());
        }
        c
    }

    fn psi_d1_d2() -> Expr {
        col("d1").psi(col("d2"))
    }

    #[test]
    fn psi_descriptor_conjuncts_estimate_from_ndv() {
        // 10 distinct variables, 3 ranges each. ψ keeps almost every
        // pair — only same-variable pairs with differing ranges drop —
        // so its estimate must sit near the cross product, not at the
        // flat 0.5 of an unrecognized conjunct.
        let c = descriptor_catalog(|i| (1 + (i % 10) as u32, (i % 3) as u64));
        let p = Plan::scan("u1").join(Plan::scan("u2"), psi_d1_d2());
        let est = est_rows(&p, &c);
        let cross = 100.0 * 100.0;
        // True survivor fraction is 1 - (1/10)·(1 - 1/3) ≈ 0.93.
        assert!(
            est > 0.8 * cross,
            "ψ estimate should be nearly non-selective, got {est} of {cross}"
        );
        // A ⊤-only column is not selective at all.
        let top = descriptor_catalog(|_| (0, 0));
        let p = Plan::scan("u1").join(Plan::scan("u2"), psi_d1_d2());
        assert_eq!(est_rows(&p, &top), cross);
        // A genuine equi conjunct on the same columns divides by NDV.
        let equi = Plan::scan("u1").join(Plan::scan("u2"), col("d1").eq(col("d2")));
        assert!(est_rows(&equi, &c) <= cross / 9.0);
        // Column-column σ selectivity is NDV-driven too.
        let ne = Plan::scan("u1").select(col("d1").ne(col("a")));
        let eq = Plan::scan("u1").select(col("d1").eq(col("a")));
        assert!(est_rows(&ne, &c) > est_rows(&eq, &c));
    }

    #[test]
    fn range_selectivity_interpolates_within_minmax_bounds() {
        // 100 rows with a uniform 0..100 column: `a < 10` should
        // estimate near 10 rows, `a < 90` near 90 — not both at the old
        // flat 1/3 — and the clamp keeps out-of-range literals nonzero.
        let mut c = Catalog::new();
        c.insert(
            "t",
            Relation::from_rows(
                ["a"],
                (0..100i64).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(),
            )
            .unwrap(),
        );
        let est = |p: &Plan| est_rows(p, &c);
        let narrow = est(&Plan::scan("t").select(col("a").lt(lit_i64(10))));
        let wide = est(&Plan::scan("t").select(col("a").lt(lit_i64(90))));
        assert!((narrow - 10.0).abs() < 1.0, "narrow: {narrow}");
        assert!((wide - 90.0).abs() < 1.0, "wide: {wide}");
        // Literal-first comparisons flip: `10 > a` ≡ `a < 10`.
        let flipped = est(&Plan::scan("t").select(lit_i64(10).gt(col("a"))));
        assert!((flipped - narrow).abs() < 1e-9, "{flipped} vs {narrow}");
        // Out-of-range literals clamp instead of zeroing out.
        let below = est(&Plan::scan("t").select(col("a").lt(lit_i64(-5))));
        assert!(below >= 5.0 && below < narrow, "below: {below}");
    }

    #[test]
    fn psi_correlated_pairs_score_jointly() {
        // The survival formula at its anchor points: a single code is a
        // tautology, and ψ nears one as the codes spread out.
        assert_eq!(psi_survival(1.0), 1.0);
        assert!((psi_survival(10.0) - 0.91).abs() < 1e-12);
        assert!(psi_survival(10.0) < psi_survival(30.0));
        assert!(psi_survival(30.0) < 1.0);

        // One packed column is the joint (Var, Rng) distinct count: with
        // Rng a function of Var there are as many codes as variables, with
        // independent ranges as many as their product.
        let cross = 100.0 * 100.0;
        let join = Plan::scan("u1").join(Plan::scan("u2"), psi_d1_d2());
        let correlated = descriptor_catalog(|i| (1 + (i % 10) as u32, (i % 10) as u64 * 7));
        let est = est_rows(&join, &correlated);
        assert!((est - psi_survival(10.0) * cross).abs() < 1e-6, "{est}");
        let independent = descriptor_catalog(|i| (1 + (i % 10) as u32, (i % 3) as u64));
        let est = est_rows(&join, &independent);
        assert!((est - psi_survival(30.0) * cross).abs() < 1e-6, "{est}");
        // A ψ conjunct left in a selection above the join scores alike.
        let above = Plan::scan("u1")
            .join(Plan::scan("u2"), lit_bool(true))
            .select(psi_d1_d2());
        assert!((est_rows(&above, &independent) - est).abs() < 1e-6);
    }

    #[test]
    fn estimates_favor_selective_side() {
        let c = catalog();
        let selective = Plan::scan("big").select(col("k").eq(lit_i64(7)));
        let loose = Plan::scan("big");
        assert!(est_rows(&selective, &c) < est_rows(&loose, &c));
    }

    #[test]
    fn optimize_union_difference_distinct() {
        let c = catalog();
        let ids = Plan::scan("big").project_names(["fk"]);
        let p = ids.clone().union(ids.clone()).distinct().difference(
            Plan::scan("small")
                .project_names(["g"])
                .select(col("g").gt(lit_i64(5))),
        );
        assert_equivalent(&p, &c);
    }

    #[test]
    fn redundant_distincts_are_stripped() {
        let c = catalog();
        fn distinct_count(p: &Plan) -> usize {
            match p {
                Plan::Distinct(input) => 1 + distinct_count(input),
                Plan::Select { input, .. }
                | Plan::Project { input, .. }
                | Plan::Rename { input, .. } => distinct_count(input),
                Plan::Join { left, right, .. }
                | Plan::Union { left, right }
                | Plan::Difference { left, right } => distinct_count(left) + distinct_count(right),
                _ => 0,
            }
        }
        // δ(σ(δ(x))) → δ(σ(x)); δ under either Difference side goes too.
        let p = Plan::scan("small")
            .distinct()
            .select(col("g").gt(lit_i64(2)))
            .distinct()
            .difference(Plan::scan("small").distinct());
        assert_eq!(distinct_count(&p), 3);
        let opt = optimize(&p, &c).unwrap();
        assert_eq!(distinct_count(&opt), 0, "{opt:?}");
        assert_equivalent(&p, &c);
        // A lone δ that actually dedups is kept.
        let keep = Plan::scan("big").project_names(["fk"]).distinct();
        let opt = optimize(&keep, &c).unwrap();
        assert_eq!(distinct_count(&opt), 1, "{opt:?}");
    }

    #[test]
    fn pushdown_through_rename() {
        let c = catalog();
        let p = Plan::scan("big")
            .rename("b")
            .select(col("b.k").lt(lit_i64(3)));
        assert_equivalent(&p, &c);
        let opt = optimize(&p, &c).unwrap();
        // The rename should now sit above the selection.
        assert!(
            matches!(&opt, Plan::Rename { input, .. } if matches!(**input, Plan::Select { .. })),
            "{opt:?}"
        );
    }
}
