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
//! 4. **Parallel vs serial** — the morsel-driven parallel engine (PR 4)
//!    must be *byte-identical* to serial execution: for random reduced
//!    or-set databases with translated+optimized queries, and for random
//!    plain relational plans, running with `RELALG_THREADS ∈ {2, 4}`
//!    (tiny morsels so small inputs still fan out) must produce exactly
//!    the serial row vector — same rows, same order — while `ExecStats`
//!    reports the planned worker count.
//!
//! 5. **Storage modes** — compressed on-disk column segments with
//!    zone-map skipping must be invisible to query output: the same plan
//!    under disk storage with {a 2-slot buffer pool that evicts, a
//!    64-slot one that keeps every decoded segment resident} × {1, 4}
//!    workers, with 3-row segments so even tiny databases cross segment
//!    boundaries, must emit exactly the plain-image serial row vector.
//!
//! Case counts scale with `PROPTEST_CASES` (the CI differential job
//! raises it well above the local default); generation is deterministic
//! per test name, so failures reproduce exactly.

use proptest::prelude::*;
use u_relations::core::certain::certain_answers;
use u_relations::core::reduce::reduce;
use u_relations::core::{
    expand_answers, possible, table, table_as, translate, UDatabase, UQuery, URelation, Var,
    WorldTable, WsDescriptor,
};
use u_relations::relalg::{
    col, exec, lit_i64, optimizer, Catalog, Expr, Plan, Relation, Row, StorageMode, Value,
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
/// stays correct on them — every surviving row completes somewhere —
/// but the Lemma 4.3 `certain` path would over-approximate, which this
/// very harness demonstrated; `certain_answers` now detects partial
/// fields and answers by exact world expansion, and the generator
/// produces them so the oracle keeps that route honest. `Absent` fields
/// make whole tuples uncompletable and exercise the reduction cascade.
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
    /// query answers equal the expand-all-worlds ground truth.
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
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// The parallel-vs-serial oracle on *translated* plans: random
    /// reduced or-set databases, random logical queries, optimized
    /// plans — the morsel-driven engine at 2 and 4 workers must emit
    /// exactly the serial row vector (order included), and `ExecStats`
    /// must report the worker fan-out the prepare planned (which the
    /// static `predicted_workers` mirror agrees with).
    #[test]
    fn parallel_translated_plans_match_serial_byte_for_byte(
        db in arb_udb(),
        q in arb_query(),
    ) {
        let prepared = db.prepare();
        let t = translate(&db, &q).unwrap();
        let plan = optimizer::optimize(&t.plan, prepared.catalog()).unwrap();
        let serial_rows = {
            let mut cat = prepared.catalog().clone();
            cat.set_threads(1);
            exec::stream(&plan, &cat).unwrap().collect_rows(None).unwrap()
        };
        for threads in [2usize, 4] {
            let mut cat = prepared.catalog().clone();
            cat.set_threads(threads);
            // Tiny morsels + zero threshold: even 3-tuple databases
            // genuinely exercise the exchange and the ordered gather.
            cat.set_parallel_granularity(4, 0);
            let streamed = exec::stream(&plan, &cat).unwrap();
            let rows = streamed.collect_rows(None).unwrap();
            prop_assert!(
                rows == serial_rows,
                "parallel x{threads} differs from serial for {q:?}\nplan: {plan:?}"
            );
            let workers = streamed.planned_workers();
            prop_assert!(
                streamed.stats().workers == workers,
                "ExecStats workers {} != planned {workers}",
                streamed.stats().workers
            );
            // The static mirror cannot model runtime spill decisions: a
            // hash-join build that spills under a memory budget forces
            // the pull serial. Other spill kinds (dedup, sort,
            // aggregation) must NOT change the worker count, so the
            // assertion stays live for them.
            if !streamed.spilled_build() {
                prop_assert!(
                    exec::predicted_workers(&plan, &cat) == workers,
                    "static mirror disagrees with prepare for {plan:?}"
                );
            }
            prop_assert!(workers <= threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// The parallel-vs-serial oracle on random *plain* relational plans
    /// (hash joins, nested loops, semi/antijoins, set operations):
    /// byte-identical output at 2 and 4 workers.
    #[test]
    fn parallel_plain_plans_match_serial_byte_for_byte(
        catalog in arb_catalog(),
        plan in arb_plan(),
    ) {
        if plan.schema(&catalog).is_ok() {
            let serial_rows = {
                let mut cat = catalog.clone();
                cat.set_threads(1);
                exec::stream(&plan, &cat).unwrap().collect_rows(None).unwrap()
            };
            for threads in [2usize, 4] {
                let mut cat = catalog.clone();
                cat.set_threads(threads);
                cat.set_parallel_granularity(3, 0);
                let streamed = exec::stream(&plan, &cat).unwrap();
                let rows = streamed.collect_rows(None).unwrap();
                prop_assert!(
                    rows == serial_rows,
                    "parallel x{threads} differs from serial for {plan:?}"
                );
                prop_assert!(streamed.stats().workers == streamed.planned_workers());
            }
        }
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
    /// unbounded and under a memory budget tiny enough that every
    /// breaker buffer spills, at 1 and 4 workers — the budgeted output
    /// must be **byte-identical** (rows and order) to the unbounded
    /// serial pull.
    #[test]
    fn spilled_translated_plans_match_unbounded_byte_for_byte(
        db in arb_udb(),
        q in arb_query(),
    ) {
        let prepared = db.prepare();
        let t = translate(&db, &q).unwrap();
        let plan = optimizer::optimize(&t.plan, prepared.catalog()).unwrap();
        let unbounded_rows = {
            let mut cat = prepared.catalog().clone();
            cat.set_threads(1);
            exec::stream(&plan, &cat).unwrap().collect_rows(None).unwrap()
        };
        for threads in [1usize, 4] {
            let mut cat = prepared.catalog().clone();
            cat.set_threads(threads);
            cat.set_parallel_granularity(4, 0);
            // A few hundred bytes: every breaker that buffers at all
            // crosses its share and takes the spill path.
            cat.set_mem_budget(256);
            let streamed = exec::stream(&plan, &cat).unwrap();
            let rows = streamed.collect_rows(None).unwrap();
            prop_assert!(
                rows == unbounded_rows,
                "budgeted x{threads} differs from unbounded for {q:?}\nplan: {plan:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// The spill-vs-in-memory oracle on random *plain* relational plans
    /// (hash joins, nested loops, semi/antijoins, set operations,
    /// distinct): byte-identical output under a tiny budget at 1 and 4
    /// workers, and limited pulls (serial, spilling like full ones)
    /// agree with prefixes of the full pull.
    #[test]
    fn spilled_plain_plans_match_in_memory_byte_for_byte(
        catalog in arb_catalog(),
        plan in arb_plan(),
    ) {
        if plan.schema(&catalog).is_ok() {
            let unbounded_rows = {
                let mut cat = catalog.clone();
                cat.set_threads(1);
                exec::stream(&plan, &cat).unwrap().collect_rows(None).unwrap()
            };
            for threads in [1usize, 4] {
                let mut cat = catalog.clone();
                cat.set_threads(threads);
                cat.set_parallel_granularity(3, 0);
                cat.set_mem_budget(256);
                let streamed = exec::stream(&plan, &cat).unwrap();
                let rows = streamed.collect_rows(None).unwrap();
                prop_assert!(
                    rows == unbounded_rows,
                    "budgeted x{threads} differs from unbounded for {plan:?}"
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
    /// decoded segment resident), at 1 and 4 workers. Segments are 3
    /// rows so tiny databases still span several; output must be
    /// **byte-identical** (rows and order) to the plain serial pull,
    /// and each pool's first, cold pull must actually miss it.
    #[test]
    fn segmented_translated_plans_match_plain_byte_for_byte(
        db in arb_udb(),
        q in arb_query(),
    ) {
        let prepared = db.prepare();
        let t = translate(&db, &q).unwrap();
        let plan = optimizer::optimize(&t.plan, prepared.catalog()).unwrap();
        let plain_rows = {
            let mut cat = prepared.catalog().clone();
            cat.set_threads(1);
            exec::stream(&plan, &cat).unwrap().collect_rows(None).unwrap()
        };
        for pool in [2usize, 64] {
            for threads in [1usize, 4] {
                let mut cat = prepared.catalog().clone();
                cat.set_storage(StorageMode::Disk);
                cat.set_segment_layout(3, pool);
                cat.set_threads(threads);
                cat.set_parallel_granularity(4, 0);
                let streamed = exec::stream(&plan, &cat).unwrap();
                let rows = streamed.collect_rows(None).unwrap();
                prop_assert!(
                    rows == plain_rows,
                    "disk pool {pool} x{threads} differs from plain for {q:?}\nplan: {plan:?}"
                );
                // Each pool's first pull is cold: every produced row came
                // through a segment fetch, so the pool must miss.
                if threads == 1 && !plain_rows.is_empty() {
                    let stats = streamed.stats();
                    prop_assert!(
                        stats.pool_misses > 0,
                        "cold disk run never missed the {pool}-slot buffer pool for {q:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// The storage oracle on random *plain* relational plans (hash
    /// joins, nested loops, semi/antijoins, set operations, distinct):
    /// byte-identical output across storage modes at 1 and 4 workers,
    /// and limited pulls agree with prefixes of the full pull.
    #[test]
    fn segmented_plain_plans_match_plain_image_byte_for_byte(
        catalog in arb_catalog(),
        plan in arb_plan(),
    ) {
        if plan.schema(&catalog).is_ok() {
            let plain_rows = {
                let mut cat = catalog.clone();
                cat.set_threads(1);
                exec::stream(&plan, &cat).unwrap().collect_rows(None).unwrap()
            };
            for pool in [2usize, 64] {
                for threads in [1usize, 4] {
                    let mut cat = catalog.clone();
                    cat.set_storage(StorageMode::Disk);
                    cat.set_segment_layout(3, pool);
                    cat.set_threads(threads);
                    cat.set_parallel_granularity(3, 0);
                    let streamed = exec::stream(&plan, &cat).unwrap();
                    let rows = streamed.collect_rows(None).unwrap();
                    prop_assert!(
                        rows == plain_rows,
                        "disk pool {pool} x{threads} differs from plain for {plan:?}"
                    );
                    if threads == 1 && !plain_rows.is_empty() {
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
