//! Differential tests of the streaming executor.
//!
//! Three oracles pin the streaming (PR 2) and batched (PR 3) executors
//! down:
//!
//! 1. **World expansion** — for randomly generated (valid, reduced)
//!    or-set U-relational databases and random logical queries, the
//!    translated streaming path's `possible` / `certain` answers must
//!    equal the naive expand-all-worlds oracle
//!    (`worldops::expand_answers`), which materializes every world and
//!    queries it through the retained reference engine. Any bug in the
//!    translation, the optimizer, or the streaming operators shows up
//!    as a divergence.
//! 2. **Reference engine** — for random plain relational plans, the
//!    streaming executor and the retained materializing engine
//!    (`exec::execute_reference`) must produce identical *multisets* of
//!    rows (row order may differ: the engines pick hash-join build
//!    sides differently), and the `EXPLAIN` buffer counter must match
//!    the runtime `ExecStats`.
//!
//! 3. **Batched vs reference** — the streaming executor's *vectorized*
//!    batch pipelines (PR 3) are differentially pinned twice: random
//!    plain plans run through `exec::execute` (which batches whenever
//!    the pipeline supports it) against `execute_reference`, and random
//!    *translated* queries over random reduced or-set databases compare
//!    the batched plan output row-for-row against the reference engine,
//!    with an `ExecStats` assertion that batched σ/π/probe pipelines
//!    allocated zero per-row intermediate buffers.
//!
//! 4. **Memory budgets** — under budgets tiny enough that every
//!    breaker spills, random translated and plain plans must emit
//!    exactly the unbounded row vector — same rows, same order.
//!
//! 5. **Storage modes** — compressed on-disk column segments with
//!    zone-map skipping must be invisible to query output: the same plan
//!    under disk storage with a 2-slot buffer pool that evicts and a
//!    64-slot one that keeps every decoded segment resident, with 3-row
//!    segments so even tiny databases cross segment boundaries, must
//!    emit exactly the plain-image row vector.
//!
//! 6. **Typed breaker buffers** — hash-join build sides and
//!    set-difference right sides buffer a column-major image appended
//!    batch by batch; a null-padded, type-mixing union there must give
//!    the reference engine's rows in the reference engine's order.
//!
//! Case counts scale with `PROPTEST_CASES` (the CI differential job
//! raises it well above the local default); generation is deterministic
//! per test name, so failures reproduce exactly.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use u_relations::core::certain::certain_answers;
use u_relations::core::reduce::reduce;
use u_relations::core::{
    expand_answers, oracle_eval, possible, table, table_as, translate, ConfidenceMethod, UDatabase,
    UQuery, URelation, Var, WorldTable, WsDescriptor,
};
use u_relations::relalg::{
    col, exec, lit, lit_i64, lit_str, optimizer, Catalog, ColRef, Expr, Plan, Relation, Row,
    StorageMode, Value,
};

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

// ---------------------------------------------------------------------------
// Random U-relational databases (valid by construction, then reduced)
// ---------------------------------------------------------------------------

/// How one `(tuple, attribute)` field is filled.
///
/// Full or-sets cover their variable's entire domain — the shape the
/// paper's or-set construction (Theorem 2.4) produces, and the shape
/// Proposition 3.3's reduction guarantee assumes: a tuple present in a
/// world has *all* its fields defined there. `Partial` or-sets
/// deliberately break that guarantee (the field is defined in only some
/// worlds, so the tuple silently drops out of the rest). `possible`
/// stays correct on them with pruned leaves — every surviving row
/// completes somewhere — but `certain` and confidence need descriptors
/// that say exactly where a tuple exists: read from pruned leaves they
/// over-approximate, which this very harness demonstrated. Those entry
/// points therefore read every partition of a relation with a partial
/// field, and the generator produces such fields so the oracle keeps
/// that route honest. `Absent` fields make whole tuples uncompletable
/// and exercise the reduction cascade.
#[derive(Clone, Debug)]
enum Cell {
    /// No row: the field is undefined everywhere (the reduction step
    /// must then remove the tuple's other rows).
    Absent,
    /// One unconditional row.
    Certain(i64),
    /// One row per domain value of a variable (a full or-set).
    OrSet { second_var: bool, vals: [i64; 3] },
    /// Rows for only the first `keep` domain values (clamped to a strict
    /// subset): a partial or-set, outside the reduction guarantee.
    Partial {
        second_var: bool,
        keep: u64,
        vals: [i64; 3],
    },
}

fn arb_cell() -> impl Strategy<Value = Cell> {
    prop_oneof![
        1 => Just(Cell::Absent),
        3 => (0i64..4).prop_map(Cell::Certain),
        4 => (any::<bool>(), (0i64..4, 0i64..4, 0i64..4)).prop_map(
            |(second_var, (v0, v1, v2))| Cell::OrSet {
                second_var,
                vals: [v0, v1, v2],
            }
        ),
        2 => (any::<bool>(), 1u64..3, (0i64..4, 0i64..4, 0i64..4)).prop_map(
            |(second_var, keep, (v0, v1, v2))| Cell::Partial {
                second_var,
                keep,
                vals: [v0, v1, v2],
            }
        ),
    ]
}

/// A database over two independent variables and one logical relation
/// `r[a, b]` stored as two vertical partitions (one per attribute).
/// Each `(tid, attr)` field is certain, a full or partial or-set, or
/// absent. The
/// database is valid by construction (or-set rows of one field are
/// pairwise inconsistent; partitions share no value columns) and is
/// reduced before use, as the paper's translation assumes.
fn arb_udb() -> impl Strategy<Value = UDatabase> {
    (
        2u64..4,
        2u64..4,
        prop::collection::vec(arb_cell(), 6), // 3 tids × 2 attrs
    )
        .prop_map(|(d1, d2, cells)| {
            let mut w = WorldTable::new();
            w.add_var(Var(1), (0..d1).collect()).unwrap();
            w.add_var(Var(2), (0..d2).collect()).unwrap();
            let doms = [d1, d2];
            let mut db = UDatabase::new(w);
            db.add_relation("r", ["a", "b"]).unwrap();
            for (ai, attr) in ["a", "b"].into_iter().enumerate() {
                let mut part = URelation::partition(format!("u_{attr}"), [attr]);
                for tid in 0..3i64 {
                    let cell = &cells[ai * 3 + tid as usize];
                    match cell {
                        Cell::Absent => {}
                        Cell::Certain(v) => part
                            .push_simple(WsDescriptor::empty(), tid + 1, vec![Value::Int(*v)])
                            .unwrap(),
                        Cell::OrSet { second_var, vals } => {
                            let var = if *second_var { Var(2) } else { Var(1) };
                            let dom = doms[usize::from(*second_var)];
                            for l in 0..dom {
                                part.push_simple(
                                    WsDescriptor::singleton(var, l),
                                    tid + 1,
                                    vec![Value::Int(vals[l as usize % 3])],
                                )
                                .unwrap();
                            }
                        }
                        Cell::Partial {
                            second_var,
                            keep,
                            vals,
                        } => {
                            let var = if *second_var { Var(2) } else { Var(1) };
                            let dom = doms[usize::from(*second_var)];
                            // Clamp to a *strict* non-empty subset of the
                            // domain so the field really is partial.
                            for l in 0..(*keep).clamp(1, dom - 1) {
                                part.push_simple(
                                    WsDescriptor::singleton(var, l),
                                    tid + 1,
                                    vec![Value::Int(vals[l as usize % 3])],
                                )
                                .unwrap();
                            }
                        }
                    }
                }
                db.add_partition("r", part).unwrap();
            }
            db.validate().expect("generated database is valid");
            // The translation assumes a reduced database (Prop. 3.3).
            reduce(&mut db).expect("reduction succeeds");
            db
        })
}

/// Random logical queries over `r[a, b]`: selections, projections,
/// unions, a self-join, and `poss` both at the top and mid-query.
fn arb_query() -> impl Strategy<Value = UQuery> {
    let base = prop_oneof![
        Just(table("r")),
        (0i64..4).prop_map(|k| table("r").select(col("a").eq(lit_i64(k)))),
        (0i64..4).prop_map(|k| table("r").select(col("b").gt(lit_i64(k)))),
        Just(table("r").select(col("a").le(col("b")))),
        Just(table("r").project(["a"])),
        Just(table("r").project(["b", "a"])),
        (0i64..4, 0i64..4).prop_map(|(k1, k2)| {
            table("r")
                .select(col("a").eq(lit_i64(k1)))
                .project(["a"])
                .union(table("r").select(col("b").eq(lit_i64(k2))).project(["a"]))
        }),
        Just(
            table_as("r", "s1")
                .join(table_as("r", "s2"), col("s1.a").eq(col("s2.a")))
                .project(["s1.a", "s2.b"])
        ),
        (0i64..4).prop_map(|k| {
            table("r")
                .project(["a"])
                .poss()
                .select(col("a").lt(lit_i64(k)))
        }),
    ];
    (base, any::<bool>()).prop_map(|(q, wrap)| if wrap { q.poss() } else { q })
}

// ---------------------------------------------------------------------------
// Random plain relational plans (streaming vs reference engine)
// ---------------------------------------------------------------------------

/// Random base tables r(a, b) / s(c, d) with small integer domains so
/// joins actually match.
fn arb_catalog() -> impl Strategy<Value = Catalog> {
    let row = || (0i64..6, 0i64..6);
    (
        prop::collection::vec(row(), 0..12),
        prop::collection::vec(row(), 0..12),
    )
        .prop_map(|(r_rows, s_rows)| {
            let to_rel = |names: [&str; 2], rows: Vec<(i64, i64)>| {
                Relation::from_rows(
                    names,
                    rows.into_iter()
                        .map(|(x, y)| vec![Value::Int(x), Value::Int(y)])
                        .collect::<Vec<_>>(),
                )
                .unwrap()
            };
            let mut c = Catalog::new();
            c.insert("r", to_rel(["a", "b"], r_rows));
            c.insert("s", to_rel(["c", "d"], s_rows));
            c
        })
}

fn arb_pred() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0i64..6).prop_map(|k| col("a").eq(lit_i64(k))),
        (0i64..6).prop_map(|k| col("b").lt(lit_i64(k))),
        (0i64..6, 0i64..6)
            .prop_map(|(k1, k2)| Expr::or([col("a").eq(lit_i64(k1)), col("b").gt(lit_i64(k2))])),
        Just(col("a").le(col("b"))),
    ]
}

/// Random plans mixing every operator: hash joins (equi preds), nested
/// loops (theta/cross), semi/antijoins, set ops, distinct, rename.
fn arb_plan() -> impl Strategy<Value = Plan> {
    let leaf = prop_oneof![Just(Plan::scan("r")), Just(Plan::scan("s"))];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), arb_pred()).prop_map(|(p, e)| p.select(e)),
            inner.clone().prop_map(|p| p.distinct()),
            // Hash join r ⋈ s on b = c (schemas permitting).
            inner
                .clone()
                .prop_map(|p| Plan::scan("r").join(p.rename("x"), col("b").eq(col("x.c")))),
            // Theta join (nested loop) and cross product.
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.join(r, Expr::and([]))),
            inner
                .clone()
                .prop_map(|p| Plan::scan("r").join(p.rename("y"), col("b").lt(col("y.c")))),
            // Semi/antijoin against the other table.
            inner
                .clone()
                .prop_map(|p| p.semijoin(Plan::scan("s"), col("b").eq(col("c")))),
            inner
                .clone()
                .prop_map(|p| p.antijoin(Plan::scan("s"), col("b").eq(col("c")))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.union(r)),
            (inner.clone(), inner).prop_map(|(l, r)| l.difference(r)),
        ]
    })
}

fn sorted_rows(rel: &Relation) -> Vec<Row> {
    let mut rows = rel.rows().to_vec();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// The tentpole differential: translated + optimized + streamed
    /// query answers equal the expand-all-worlds ground truth — the
    /// possible and certain sets, the tuples `certain_with_confidence`
    /// reports, and each `possible_with_confidence` probability.
    #[test]
    fn streaming_possible_and_certain_match_world_expansion(
        db in arb_udb(),
        q in arb_query(),
    ) {
        let (want_poss, want_cert) = expand_answers(&db, &q, 64).unwrap();
        let got_poss = possible(&db, &q).unwrap();
        prop_assert!(
            got_poss.set_eq(&want_poss),
            "possible answers diverge for {q:?}\nstreaming: {got_poss}\noracle: {want_poss}"
        );
        let got_cert = certain_answers(&db, &q).unwrap();
        prop_assert!(
            got_cert.set_eq(&want_cert),
            "certain answers diverge for {q:?}\nstreaming: {got_cert}\noracle: {want_cert}"
        );
        // Certain answers are possible answers.
        for row in got_cert.rows() {
            prop_assert!(want_poss.rows().contains(row));
        }

        exact_entry_points_match_world_expansion(&db, &q)?;
    }

    /// The same entry points on relations whose partitions share value
    /// columns, where a merge of covering partitions may define a tuple
    /// in fewer worlds than its fields do.
    #[test]
    fn exact_entry_points_match_world_expansion_on_overlapping_partitions(
        db in arb_overlapping_udb(),
        q in arb_query(),
    ) {
        let (want_poss, want_cert) = expand_answers(&db, &q, 64).unwrap();
        let got_poss = possible(&db, &q).unwrap();
        prop_assert!(
            got_poss.set_eq(&want_poss),
            "possible answers diverge for {q:?}\nstreaming: {got_poss}\noracle: {want_poss}"
        );
        let got_cert = certain_answers(&db, &q).unwrap();
        prop_assert!(
            got_cert.set_eq(&want_cert),
            "certain answers diverge for {q:?}\nstreaming: {got_cert}\noracle: {want_cert}"
        );
        exact_entry_points_match_world_expansion(&db, &q)?;
    }
}

/// `certain_with_confidence(Exact)` reports the certain set and
/// `possible_with_confidence(Exact)` each tuple's Σ P(world) over the
/// worlds whose answer holds it.
fn exact_entry_points_match_world_expansion(
    db: &UDatabase,
    q: &UQuery,
) -> Result<(), TestCaseError> {
    // The confidence entry points evaluate `Q` without a top-level
    // `poss`, so the oracle answers that query.
    let inner = match q {
        UQuery::Poss { input } => input.as_ref(),
        other => other,
    };
    let prepared = db.prepare();
    let (_, want_inner_cert) = expand_answers(db, inner, 64).unwrap();
    let got: BTreeSet<Vec<Value>> = prepared
        .certain_with_confidence(inner, ConfidenceMethod::Exact)
        .unwrap()
        .into_iter()
        .map(|(t, _)| t)
        .collect();
    let want: BTreeSet<Vec<Value>> = want_inner_cert.rows().iter().map(|r| r.to_vec()).collect();
    prop_assert!(
        got == want,
        "certain_with_confidence diverges for {inner:?}: {got:?} vs {want:?}"
    );

    // Confidence of a tuple: Σ P(world) over the worlds whose answer
    // holds it.
    let mut want: BTreeMap<Vec<Value>, f64> = BTreeMap::new();
    for f in db.world.worlds(64).unwrap() {
        let p = db.world.world_prob(&f).unwrap();
        for row in oracle_eval(inner, db, &f, 64).unwrap().rows() {
            *want.entry(row.to_vec()).or_default() += p;
        }
    }
    let got: BTreeMap<Vec<Value>, f64> = prepared
        .possible_with_confidence(inner, ConfidenceMethod::Exact)
        .unwrap()
        .into_iter()
        .collect();
    prop_assert!(
        got.keys().eq(want.keys()),
        "possible_with_confidence tuples diverge for {inner:?}: {got:?} vs {want:?}"
    );
    for (t, p) in &got {
        prop_assert!(
            (p - want[t]).abs() < 1e-9,
            "confidence of {t:?} in {inner:?}: {p} vs {}",
            want[t]
        );
    }
    Ok(())
}

/// [`arb_udb`] plus a third partition `u_ab[a, b]` holding a random
/// subset of the consistent `(u_a, u_b)` row pairs of each tuple, merged:
/// valid, since its values are those rows' values under narrower
/// descriptors, and re-reduced before use.
fn arb_overlapping_udb() -> impl Strategy<Value = UDatabase> {
    (arb_udb(), prop::collection::vec(any::<bool>(), 16)).prop_map(|(mut db, keep)| {
        let parts = db.partitions_of("r").unwrap();
        let mut u_ab = URelation::partition("u_ab", ["a", "b"]);
        let mut k = 0;
        for ra in parts[0].rows() {
            for rb in parts[1].rows().iter().filter(|rb| rb.tids == ra.tids) {
                if let Some(desc) = ra.desc.union(&rb.desc) {
                    if keep[k % keep.len()] {
                        let vals = vec![ra.vals[0].clone(), rb.vals[0].clone()];
                        u_ab.push_simple(desc, ra.tids[0], vals).unwrap();
                    }
                    k += 1;
                }
            }
        }
        db.add_partition("r", u_ab).unwrap();
        db.validate().expect("generated database is valid");
        reduce(&mut db).expect("reduction succeeds");
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// Batched execution vs the reference engine on *translated* plans:
    /// for random reduced or-set databases and random logical queries,
    /// the optimized plan runs through the vectorized batch pipelines
    /// and must produce exactly the reference engine's multiset of rows.
    /// Batched σ/π/probe pipelines must additionally report zero
    /// per-row intermediate buffers — the zero-materialization guarantee
    /// survives vectorization.
    #[test]
    fn batched_translated_plans_match_reference(
        db in arb_udb(),
        q in arb_query(),
    ) {
        let prepared = db.prepare();
        let t = translate(&db, &q).unwrap();
        let plan = optimizer::optimize(&t.plan, prepared.catalog()).unwrap();
        let streamed = exec::stream(&plan, prepared.catalog()).unwrap();
        let batched_rows = {
            let mut rows = streamed.collect_rows(None).unwrap();
            rows.sort();
            rows
        };
        let stats = streamed.stats();
        let reference = exec::execute_reference(&plan, prepared.catalog()).unwrap();
        prop_assert!(
            batched_rows == sorted_rows(&reference),
            "batched vs reference diverge for {q:?}\nplan: {plan:?}"
        );
        if stats.buffers == 0 {
            prop_assert!(
                stats.buffered_rows == 0,
                "bufferless batched pipeline copied rows: {stats:?}"
            );
        }
        // Every pipeline accounts for the rows it emitted.
        prop_assert!(
            stats.batch_rows >= batched_rows.len(),
            "batch accounting lost rows: {stats:?} vs {}",
            batched_rows.len()
        );
    }
}

/// Deterministic pin of the batched zero-materialization guarantee: a
/// translated σ/π pipeline over the Figure 1 database runs vectorized,
/// emits batches, and allocates no per-row intermediate buffers.
#[test]
fn batched_translated_pipeline_reports_zero_row_buffers() {
    let db = u_relations::core::figure1_database();
    let cat = db.to_catalog();
    // A single-attribute query: late materialization merges exactly one
    // vertical partition, so the translated plan is a pure σ/π chain
    // with no join build side to buffer.
    let q = table("r")
        .select(col("type").eq(u_relations::relalg::lit_str("Tank")))
        .project(["type"]);
    let t = translate(&db, &q).unwrap();
    let plan = optimizer::optimize(&t.plan, &cat).unwrap();
    let streamed = exec::stream(&plan, &cat).unwrap();
    let n = streamed.collect_rows(None).unwrap().len();
    let stats = streamed.stats();
    assert!(stats.batches > 0, "{stats:?}");
    assert!(stats.batch_rows >= n, "{stats:?}");
    assert_eq!(
        stats.buffers, 0,
        "batched pipeline must not allocate per-row intermediate buffers: {stats:?}"
    );
    assert_eq!(stats.buffered_rows, 0, "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// The spill-vs-in-memory oracle on *translated* plans: random
    /// reduced or-set databases and random logical queries run
    /// unbounded and under memory budgets tiny enough that every
    /// breaker buffer spills — the budgeted output must be
    /// **byte-identical** (rows and order) to the unbounded pull.
    #[test]
    fn spilled_translated_plans_match_unbounded_byte_for_byte(
        db in arb_udb(),
        q in arb_query(),
    ) {
        let prepared = db.prepare();
        let t = translate(&db, &q).unwrap();
        let plan = optimizer::optimize(&t.plan, prepared.catalog()).unwrap();
        let unbounded_rows = exec::stream(&plan, prepared.catalog())
            .unwrap()
            .collect_rows(None)
            .unwrap();
        // A few hundred bytes, and a quarter of that: every breaker
        // that buffers at all crosses the budget and takes the spill
        // path.
        for budget in [256usize, 64] {
            let mut cat = prepared.catalog().clone();
            cat.set_mem_budget(budget);
            let streamed = exec::stream(&plan, &cat).unwrap();
            let rows = streamed.collect_rows(None).unwrap();
            prop_assert!(
                rows == unbounded_rows,
                "budget {budget} differs from unbounded for {q:?}\nplan: {plan:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// The spill-vs-in-memory oracle on random *plain* relational plans
    /// (hash joins, nested loops, semi/antijoins, set operations,
    /// distinct): byte-identical output under tiny budgets, and limited
    /// pulls (spilling like full ones) agree with prefixes of the full
    /// pull.
    #[test]
    fn spilled_plain_plans_match_in_memory_byte_for_byte(
        catalog in arb_catalog(),
        plan in arb_plan(),
    ) {
        if plan.schema(&catalog).is_ok() {
            let unbounded_rows = exec::stream(&plan, &catalog)
                .unwrap()
                .collect_rows(None)
                .unwrap();
            for budget in [256usize, 64] {
                let mut cat = catalog.clone();
                cat.set_mem_budget(budget);
                let streamed = exec::stream(&plan, &cat).unwrap();
                let rows = streamed.collect_rows(None).unwrap();
                prop_assert!(
                    rows == unbounded_rows,
                    "budget {budget} differs from unbounded for {plan:?}"
                );
                // Limited pulls run the same batched cursors over the
                // same prepared tree, stopping at batch granularity.
                for k in [0, 1, 3, unbounded_rows.len()] {
                    let prefix = streamed.collect_rows(Some(k)).unwrap();
                    prop_assert!(
                        prefix[..] == unbounded_rows[..k.min(unbounded_rows.len())],
                        "limited budgeted pull (limit {k}) diverges for {plan:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// The storage oracle on *translated* plans: random reduced or-set
    /// databases and random logical queries run against the plain
    /// columnar image and against on-disk segment files through a 2-slot
    /// buffer pool (which evicts) and a 64-slot one (which keeps every
    /// decoded segment resident). Segments are 3 rows so tiny databases
    /// still span several; output must be **byte-identical** (rows and
    /// order) to the plain pull, and each pool's first, cold pull must
    /// actually miss it.
    #[test]
    fn segmented_translated_plans_match_plain_byte_for_byte(
        db in arb_udb(),
        q in arb_query(),
    ) {
        let prepared = db.prepare();
        let t = translate(&db, &q).unwrap();
        let plan = optimizer::optimize(&t.plan, prepared.catalog()).unwrap();
        let plain_rows = exec::stream(&plan, prepared.catalog())
            .unwrap()
            .collect_rows(None)
            .unwrap();
        for pool in [2usize, 64] {
            let mut cat = prepared.catalog().clone();
            cat.set_storage(StorageMode::Disk);
            cat.set_segment_layout(3, pool);
            let streamed = exec::stream(&plan, &cat).unwrap();
            let rows = streamed.collect_rows(None).unwrap();
            prop_assert!(
                rows == plain_rows,
                "disk pool {pool} differs from plain for {q:?}\nplan: {plan:?}"
            );
            // Each pool's first pull is cold: every produced row came
            // through a segment fetch, so the pool must miss.
            if !plain_rows.is_empty() {
                let stats = streamed.stats();
                prop_assert!(
                    stats.pool_misses > 0,
                    "cold disk run never missed the {pool}-slot buffer pool for {q:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// The storage oracle on random *plain* relational plans (hash
    /// joins, nested loops, semi/antijoins, set operations, distinct):
    /// byte-identical output across storage modes, and limited pulls
    /// agree with prefixes of the full pull.
    #[test]
    fn segmented_plain_plans_match_plain_image_byte_for_byte(
        catalog in arb_catalog(),
        plan in arb_plan(),
    ) {
        if plan.schema(&catalog).is_ok() {
            let plain_rows = exec::stream(&plan, &catalog)
                .unwrap()
                .collect_rows(None)
                .unwrap();
            for pool in [2usize, 64] {
                let mut cat = catalog.clone();
                cat.set_storage(StorageMode::Disk);
                cat.set_segment_layout(3, pool);
                let streamed = exec::stream(&plan, &cat).unwrap();
                let rows = streamed.collect_rows(None).unwrap();
                prop_assert!(
                    rows == plain_rows,
                    "disk pool {pool} differs from plain for {plan:?}"
                );
                if !plain_rows.is_empty() {
                    prop_assert!(
                        streamed.stats().pool_misses > 0,
                        "cold disk run never missed the {pool}-slot pool for {plan:?}"
                    );
                }
                for k in [0, 1, 3, plain_rows.len()] {
                    let prefix = streamed.collect_rows(Some(k)).unwrap();
                    prop_assert!(
                        prefix[..] == plain_rows[..k.min(plain_rows.len())],
                        "limited disk pool {pool} pull (limit {k}) diverges for {plan:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(96)))]

    /// The streaming executor and the retained materializing reference
    /// path produce identical multisets of rows for every generated
    /// plan (catches buffering/ordering bugs in pipeline breakers).
    #[test]
    fn streaming_matches_materializing_reference(
        catalog in arb_catalog(),
        plan in arb_plan(),
    ) {
        match plan.schema(&catalog) {
            Err(_) => {
                // Ill-typed plans must fail cleanly in both engines.
                prop_assert!(
                    exec::execute(&plan, &catalog).is_err(),
                    "streaming accepted an ill-typed plan: {plan:?}"
                );
                prop_assert!(
                    exec::execute_reference(&plan, &catalog).is_err(),
                    "reference accepted an ill-typed plan: {plan:?}"
                );
            }
            Ok(_) => {
                let (streamed, stats) = exec::execute_with_stats(&plan, &catalog).unwrap();
                let reference = exec::execute_reference(&plan, &catalog).unwrap();
                let (a, b) = (sorted_rows(&streamed), sorted_rows(&reference));
                prop_assert!(a == b, "multisets diverge for {plan:?}");
                // The EXPLAIN counter agrees with the runtime stats.
                let predicted = exec::predicted_buffers(&plan, &catalog);
                prop_assert!(
                    predicted == stats.buffers,
                    "predicted ({predicted}) vs actual ({}) buffers for {plan:?}",
                    stats.buffers
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Typed breaker buffers
// ---------------------------------------------------------------------------

/// The union both breakers buffer. Its arms pad with null literals or
/// disagree on type, so the buffered image holds every column kind: `x`
/// is `Int` padded with `Null` (`IntN`), `y` is `Str` padded with
/// `Null` (`StrN`), `z` is `Int` on one arm and `Str` on the other
/// (`Mixed`), and `w` is fed by constant batch columns alone.
fn padded_union() -> Plan {
    let arm = |cols: [(Expr, &str); 4]| -> Vec<(Expr, ColRef)> {
        cols.into_iter().map(|(e, n)| (e, ColRef::new(n))).collect()
    };
    Plan::scan("a")
        .project(arm([
            (col("k"), "x"),
            (col("s"), "y"),
            (col("k"), "z"),
            (lit_str("c"), "w"),
        ]))
        .union(
            Plan::scan("a")
                .select(col("k").lt(lit_i64(12)))
                .project(arm([
                    (lit(Value::Null), "x"),
                    (lit(Value::Null), "y"),
                    (col("s"), "z"),
                    (lit_str("c"), "w"),
                ])),
        )
}

/// A hash join whose build side and a difference whose right side are
/// [`padded_union`] give the reference engine's rows in its order,
/// with each column kind as the join key:
/// digests hashed off the buffered image must hit the probe's digests
/// for every kind.
#[test]
fn padded_union_breaker_sides_match_reference_in_order() {
    let mut cat = Catalog::new();
    cat.insert(
        "a",
        Relation::from_rows(
            ["k", "s"],
            (0..40i64)
                .map(|i| vec![Value::Int(i), Value::interned(format!("s{}", i % 13))])
                .collect::<Vec<_>>(),
        )
        .unwrap(),
    );
    cat.insert(
        "p",
        Relation::from_rows(
            ["pk", "ps", "pz", "pw"],
            (0..4000i64)
                .map(|i| {
                    let s = Value::interned(format!("s{}", i % 17));
                    vec![
                        if i % 9 == 0 {
                            Value::Null
                        } else {
                            Value::Int(i % 45)
                        },
                        if i % 11 == 0 { Value::Null } else { s.clone() },
                        if i % 2 == 0 { Value::Int(i % 45) } else { s },
                        Value::interned(if i % 3 == 0 { "d" } else { "c" }),
                    ]
                })
                .collect::<Vec<_>>(),
        )
        .unwrap(),
    );
    let probe = Plan::scan("p");
    let joins = [
        col("x").eq(col("pk")),
        col("y").eq(col("ps")),
        col("z").eq(col("pz")),
        Expr::and([col("w").eq(col("pw")), col("x").eq(col("pk"))]),
    ];
    let mut plans: Vec<Plan> = joins
        .into_iter()
        .map(|pred| padded_union().join(probe.clone(), pred))
        .collect();
    plans.push(
        Plan::scan("p")
            .project_names(["pk", "ps", "pz", "pw"])
            .difference(padded_union()),
    );
    for plan in &plans {
        if let Plan::Join { left, right, .. } = plan {
            assert!(exec::join_build_left(left, right, &cat), "{plan:?}");
        }
        let want = exec::execute_reference(plan, &cat).unwrap();
        let got = exec::execute(plan, &cat).unwrap();
        assert!(!want.is_empty(), "{plan:?}");
        assert_eq!(got.rows(), want.rows(), "{plan:?}");
    }
}
