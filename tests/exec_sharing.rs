//! Zero-copy and zero-materialization guarantees of the executor:
//!
//! * `Scan` hands back the catalog's own `Arc<Relation>` — pointer-equal,
//!   no deep copy;
//! * `Rename` aliases the input's row storage;
//! * the streaming σ/π pipeline produces results identical to executing
//!   the same operators one materialization at a time, on the paper's
//!   Figure 1 database;
//! * σ/π/ρ/join-probe chains allocate **no** intermediate `Vec<Row>`:
//!   the `ExecStats` buffer counter stays at zero and the same counter
//!   is exposed in `EXPLAIN` output;
//! * encoded base relations are born columnar, with the image the old
//!   row-built encoding had, and serving never materializes their rows.

use std::sync::Arc;
use u_relations::core::figure1_database;
use u_relations::relalg::{col, exec, explain, lit_i64, lit_str, Catalog, Expr, Plan, Value};

#[test]
fn scan_returns_the_catalog_arc_pointer_equal() {
    let db = figure1_database();
    let cat = db.to_catalog();
    for name in ["u1", "u2", "u3", "w"] {
        let out = exec::execute(&Plan::scan(name), &cat).unwrap();
        assert!(
            Arc::ptr_eq(&out, cat.get(name).unwrap()),
            "Scan({name}) deep-copied the base relation"
        );
    }
    // Two scans of the same relation share one storage.
    let a = exec::execute(&Plan::scan("u1"), &cat).unwrap();
    let b = exec::execute(&Plan::scan("u1"), &cat).unwrap();
    assert!(Arc::ptr_eq(&a, &b));
}

#[test]
fn values_returns_the_inline_arc_pointer_equal() {
    let db = figure1_database();
    let cat = db.to_catalog();
    let rel = exec::execute(&Plan::scan("u2"), &cat).unwrap();
    let plan = Plan::Values(Arc::clone(&rel));
    let out = exec::execute(&plan, &cat).unwrap();
    assert!(Arc::ptr_eq(&out, &rel));
}

#[test]
fn rename_aliases_the_catalog_row_storage() {
    let db = figure1_database();
    let cat = db.to_catalog();
    let out = exec::execute(&Plan::scan("u1").rename("x"), &cat).unwrap();
    assert!(
        out.shares_rows_with(cat.get("u1").unwrap()),
        "Rename copied the rows instead of re-qualifying the schema"
    );
}

#[test]
fn pipelined_select_chain_matches_stepwise_materialization() {
    let db = figure1_database();
    let cat = db.to_catalog();

    // Fused: both selections run in one pass over the scan.
    let fused = Plan::scan("u2")
        .select(col("type").eq(lit_str("Tank")))
        .select(col("tid").gt(lit_i64(1)));
    let fused_out = exec::execute(&fused, &cat).unwrap();

    // Stepwise: materialize after every operator, like the old engine.
    let step1 = exec::execute(&Plan::scan("u2"), &cat).unwrap();
    let step2 = exec::execute(
        &Plan::Values(step1).select(col("type").eq(lit_str("Tank"))),
        &cat,
    )
    .unwrap();
    let step3 =
        exec::execute(&Plan::Values(step2).select(col("tid").gt(lit_i64(1))), &cat).unwrap();

    // Identical, including row order (both paths preserve input order).
    assert_eq!(*fused_out, *step3);
    assert!(!fused_out.is_empty());
}

#[test]
fn pipelined_select_project_matches_stepwise_materialization() {
    let db = figure1_database();
    let cat = db.to_catalog();

    let pred = Expr::and([
        col("faction").eq(lit_str("Enemy")),
        col("tid").gt(lit_i64(0)),
    ]);
    let fused = Plan::scan("u3")
        .select(pred.clone())
        .project_names(["tid", "faction"]);
    let fused_out = exec::execute(&fused, &cat).unwrap();

    let step1 = exec::execute(&Plan::scan("u3"), &cat).unwrap();
    let step2 = exec::execute(&Plan::Values(step1).select(pred), &cat).unwrap();
    let step3 =
        exec::execute(&Plan::Values(step2).project_names(["tid", "faction"]), &cat).unwrap();

    assert_eq!(*fused_out, *step3);
    assert!(!fused_out.is_empty());
}

#[test]
fn select_project_rename_probe_chain_allocates_no_intermediates() {
    // The acceptance property of the streaming refactor: a chain of
    // σ/π/ρ and a hash-join probe over catalog scans moves every tuple
    // from base storage to the final result without one intermediate
    // Vec<Row>. Both join inputs here bottom out in scans, so even the
    // build side indexes shared storage zero-copy.
    let db = figure1_database();
    let cat = db.to_catalog();
    let p = Plan::scan("u2")
        .rename("t")
        .select(col("t.type").eq(lit_str("Tank")))
        .join(Plan::scan("u3").rename("f"), col("t.tid").eq(col("f.tid")))
        .select(col("f.faction").eq(lit_str("Enemy")))
        .project_names(["t.tid", "f.faction"]);
    let (out, stats) = exec::execute_with_stats(&p, &cat).unwrap();
    assert!(!out.is_empty());
    assert_eq!(
        stats.buffers, 0,
        "σ/π/ρ/join-probe chain materialized an intermediate: {stats:?}"
    );
    assert_eq!(stats.buffered_rows, 0);
    // The same counter is visible in EXPLAIN output.
    let text = explain::explain(&p, &cat);
    assert!(
        text.contains("0 intermediate row buffer(s)"),
        "EXPLAIN should report the zero-buffer pipeline:\n{text}"
    );
    // And the static prediction matches the runtime count.
    assert_eq!(exec::predicted_buffers(&p, &cat), stats.buffers);
}

#[test]
fn breakers_are_counted_and_reported() {
    let db = figure1_database();
    let cat = db.to_catalog();
    // Distinct is a pipeline breaker: one seen-set buffer.
    let p = Plan::scan("u1").project_names(["tid"]).distinct();
    let (out, stats) = exec::execute_with_stats(&p, &cat).unwrap();
    assert_eq!(stats.buffers, 1);
    assert_eq!(stats.buffered_rows, out.len());
    let text = explain::explain(&p, &cat);
    assert!(text.contains("1 intermediate row buffer(s)"), "{text}");
    assert_eq!(exec::predicted_buffers(&p, &cat), 1);
}

#[test]
fn streaming_and_reference_engines_agree_on_figure1_translation() {
    use u_relations::core::{possible, table};
    // Pin the two engines against each other on a real translated plan.
    let db = figure1_database();
    let cat = db.to_catalog();
    let q = table("r")
        .select(col("faction").eq(lit_str("Enemy")))
        .project(["id"]);
    let t = u_relations::core::translate(&db, &q).unwrap();
    let streamed = exec::execute(&t.plan, &cat).unwrap();
    let reference = exec::execute_reference(&t.plan, &cat).unwrap();
    let mut a = streamed.rows().to_vec();
    let mut b = reference.rows().to_vec();
    a.sort();
    b.sort();
    assert_eq!(a, b, "engines disagree on the translated plan");
    // End to end, the answer is still right.
    let ans = possible(&db, &q).unwrap();
    assert_eq!(ans.len(), 3);
}

#[test]
fn full_figure1_query_agrees_through_both_engines() {
    // End-to-end sanity: the paper's Example 3.6 query through the shared
    // engine still yields the three possible enemy tanks.
    use u_relations::core::{possible, table};
    let db = figure1_database();
    let q = table("r")
        .select(Expr::and([
            col("type").eq(lit_str("Tank")),
            col("faction").eq(lit_str("Enemy")),
        ]))
        .project(["id"]);
    let answers = possible(&db, &q).unwrap();
    assert_eq!(answers.len(), 3);
}

/// Is `name` a tuple-id column of the translation (`ti<N>_<relation>`)?
fn is_tid(name: &str) -> bool {
    name.strip_prefix("ti")
        .and_then(|rest| rest.split_once('_'))
        .is_some_and(|(n, _)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

/// `dense_builds` of executing `plan` alone.
fn dense_builds(plan: &Plan, cat: &Catalog) -> usize {
    let streamed = exec::stream(plan, cat).unwrap();
    assert!(!streamed.spilled_build(), "a build spilled: {plan:?}");
    streamed.stats().dense_builds
}

/// Does a build side holding these key values take the direct-addressed
/// layout? All `Int`, at least one, spanning at most 4 slots a row.
fn dense_keys(keys: &[Value]) -> bool {
    let ints: Vec<i128> = keys
        .iter()
        .filter_map(|v| v.as_int())
        .map(i128::from)
        .collect();
    match (ints.iter().min(), ints.iter().max()) {
        (Some(lo), Some(hi)) if ints.len() == keys.len() => hi - lo < 4 * ints.len() as i128,
        _ => false,
    }
}

/// Counts the tuple-id `merge`s of `plan` — joins whose one equi key
/// pairs two tuple-id columns — as `(merges, dense merges)`, checking
/// each: executing the join alone takes one more dense build than
/// executing its two inputs alone exactly when its build side's keys
/// are dense.
fn tid_merges(plan: &Plan, cat: &Catalog) -> (usize, usize) {
    let inputs: Vec<&Plan> = match plan {
        Plan::Scan(_) | Plan::Values(_) => vec![],
        Plan::Select { input, .. }
        | Plan::Project { input, .. }
        | Plan::Distinct(input)
        | Plan::Rename { input, .. } => vec![input],
        Plan::Join { left, right, .. }
        | Plan::Union { left, right }
        | Plan::Difference { left, right } => vec![left, right],
    };
    let (mut merges, mut dense) = inputs.iter().fold((0, 0), |(m, d), p| {
        let (pm, pd) = tid_merges(p, cat);
        (m + pm, d + pd)
    });
    if let Plan::Join { left, right, pred } = plan {
        let (ls, rs) = (left.schema(cat).unwrap(), right.schema(cat).unwrap());
        if let [(l, r)] = exec::JoinCondition::analyze(pred, &ls, &rs).equi[..] {
            if is_tid(&ls.columns()[l].name) && is_tid(&rs.columns()[r].name) {
                let (build, key) = if exec::join_build_left(left, right, cat) {
                    (left, l)
                } else {
                    (right, r)
                };
                let rel = exec::execute(build, cat).unwrap();
                let keys: Vec<Value> = rel.rows().iter().map(|row| row[key].clone()).collect();
                let built = usize::from(dense_keys(&keys));
                let below = dense_builds(left, cat) + dense_builds(right, cat);
                assert_eq!(dense_builds(plan, cat), below + built, "merge {pred}");
                merges += 1;
                dense += built;
            }
        }
    }
    (merges, dense)
}

/// Anti-no-op guard for direct-addressed join tables, run as a named
/// step in the CI `test`, `disk` and `mem-budget` legs: every tuple-id
/// `merge` of the translated Figure 12 queries at s = 0.01 builds
/// dense — under disk storage and under the 4 MiB budget too, which
/// keeps every build at this scale resident — and a join on sparse keys
/// builds none. Should the dense layout stop being chosen, the
/// executor still answers correctly and only this test notices.
#[test]
fn ci_dense_builds_taken() {
    use u_relations::relalg::{optimizer, Relation};
    use u_relations::tpch::{generate, q1, q2, q3, GenParams};
    let out = generate(&GenParams::paper(0.01, 0.1, 0.5)).unwrap();
    let prepared = out.db.prepare();
    let cat = prepared.catalog();
    // (tuple-id merges, dense ones, all dense builds). Every merge over
    // a whole partition is dense; Q3's `n2` merge builds on the two
    // nation rows named IRAQ, whose tuple ids 12 and 21 span more than
    // 4 slots a row. Q1's key joins (orderkey, custkey) are dense too.
    let pins = [
        ("q1", q1(), (5, 5), 7),
        ("q2", q2(), (3, 3), 3),
        ("q3", q3(), (6, 5), 6),
    ];
    for (name, q, merges, dense) in pins {
        let t = u_relations::core::translate(&out.db, &q).unwrap();
        let plan = optimizer::optimize(&t.plan, cat).unwrap();
        assert_eq!(
            (tid_merges(&plan, cat), dense_builds(&plan, cat)),
            (merges, dense),
            "{name}"
        );
    }
    // Keys 1000 apart span 1000 slots a row: digests, never dense.
    let mut sparse = Catalog::new();
    let keys = |n: i64, step: i64| {
        Relation::from_rows(
            ["k"],
            (0..n)
                .map(|i| vec![Value::Int(i * step)])
                .collect::<Vec<_>>(),
        )
        .unwrap()
    };
    sparse.insert("s", keys(100, 1000));
    sparse.insert("p", keys(5000, 20));
    let join = Plan::scan("p")
        .rename("p")
        .join(Plan::scan("s").rename("s"), col("p.k").eq(col("s.k")));
    assert_eq!(exec::execute(&join, &sparse).unwrap().len(), 100);
    assert_eq!(dense_builds(&join, &sparse), 0, "{join:?}");
}

/// Anti-no-op guard for the packed descriptor encoding, run as a named
/// step in the CI `test`, `disk` and `mem-budget` legs: every encoded
/// partition of the s = 0.01 catalog carries one column per descriptor
/// entry (not a `(var, rng)` pair) and decodes back to itself, and every
/// conjunct of optimized Q1 that reads descriptor columns is one
/// `Expr::Psi`, not the paper's `(v ≠ v') ∨ (r = r')` disjunction.
#[test]
fn ci_descriptors_are_packed() {
    use u_relations::core::{translate, URelation};
    use u_relations::relalg::optimizer;
    use u_relations::tpch::{generate, q1, GenParams};
    let out = generate(&GenParams::paper(0.01, 0.1, 0.5)).unwrap();
    let prepared = out.db.prepare();
    let cat = prepared.catalog();
    let mut entries = 0;
    for rel in out.db.relations() {
        for p in out.db.partitions_of(rel).unwrap() {
            let enc = cat.get(&p.name).unwrap();
            let others = p.tid_cols().len() + p.value_cols().len();
            assert_eq!(enc.schema().arity(), p.desc_arity() + others, "{}", p.name);
            let back = URelation::decode(&p.name, enc, p.desc_arity(), 1).unwrap();
            assert_eq!(back.rows(), p.rows(), "{}", p.name);
            entries += p.desc_arity();
        }
    }
    assert!(entries > 0, "the catalog has no uncertain partitions");

    fn conjuncts(p: &Plan, out: &mut Vec<Expr>) {
        match p {
            Plan::Scan(_) | Plan::Values(_) => {}
            Plan::Select { input, pred } => {
                out.extend(pred.clone().conjuncts());
                conjuncts(input, out);
            }
            Plan::Project { input, .. } | Plan::Distinct(input) | Plan::Rename { input, .. } => {
                conjuncts(input, out)
            }
            Plan::Join { left, right, pred } => {
                out.extend(pred.clone().conjuncts());
                conjuncts(left, out);
                conjuncts(right, out);
            }
            Plan::Union { left, right } | Plan::Difference { left, right } => {
                conjuncts(left, out);
                conjuncts(right, out);
            }
        }
    }
    let is_desc = |name: &str| {
        name.strip_prefix('d')
            .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
    };
    let t = translate(&out.db, &q1()).unwrap();
    let mut all = Vec::new();
    conjuncts(&optimizer::optimize(&t.plan, cat).unwrap(), &mut all);
    let desc: Vec<&Expr> = all
        .iter()
        .filter(|c| c.columns().iter().any(|r| is_desc(&r.name)))
        .collect();
    assert!(!desc.is_empty(), "optimized Q1 checks no descriptors");
    for c in &desc {
        assert!(matches!(c, Expr::Psi(..)), "ψ conjunct not packed: {c}");
    }
    println!(
        "{entries} descriptor columns, {} ψ conjuncts in Q1",
        desc.len()
    );
}

/// CI smoke for the one-resident-copy guarantee: encoded base relations
/// are born columnar, and their row form is a view nothing on the
/// serving path materializes. Runs the Figure 12 queries on plain and
/// disk storage and the `certain` / confidence statement shapes, then
/// checks that no catalog relation holds rows. A scan, build, statistics
/// pass or scratch disk image that read `rows()` fails it.
#[test]
fn ci_base_rows_never_materialized() {
    use u_relations::core::PreparedDb;
    use u_relations::relalg::StorageMode;
    use u_relations::tpch::{generate, q1, q2, q3, GenParams};
    let out = generate(&GenParams::paper(0.01, 0.1, 0.5)).unwrap();
    let texts = [
        "from nation | select n_name | certain",
        "from customer | select c_mktsegment | certain",
        "from orders | select o_shippriority | certain",
        "from lineitem | where l_quantity < 10 | select l_discount | certain",
        "from customer | where c_acctbal > 9000 | select c_name | possible confidence 0.05",
        "from orders | where o_orderdate > 2400 | select o_custkey | certain confidence 0.05",
        "from customer | where c_acctbal > 9000 | join nation on c_nationkey = n_nationkey \
         | select n_name | possible confidence 0.02",
        "from orders | where o_shippriority = 1 | select o_orderdate | possible confidence 0.1",
    ];
    let mut answers = Vec::new();
    for storage in [StorageMode::Plain, StorageMode::Disk] {
        let mut cat = out.db.to_catalog();
        cat.set_storage(storage);
        cat.set_segment_layout(256, 2);
        let prepared = PreparedDb::with_catalog(&out.db, cat);
        let mut segments = 0;
        let rows: Vec<usize> = [q1(), q2(), q3()]
            .iter()
            .map(|q| {
                let (rel, stats) = prepared.possible_with_stats(q).unwrap();
                segments += stats.segments_scanned;
                rel.len()
            })
            .collect();
        assert_eq!(segments > 0, storage == StorageMode::Disk, "{storage:?}");
        answers.push(rows);
        if storage == StorageMode::Plain {
            for text in texts {
                let lowered = u_relations::ql::compile(text).unwrap();
                u_relations::ql::execute(&prepared, &lowered).unwrap();
            }
        }
        let mut checked = 0;
        for (name, rel) in prepared.catalog().iter() {
            assert!(rel.columns_cached(), "{name}: not born columnar");
            assert!(
                !rel.rows_cached(),
                "{name}: base rows materialized under {storage:?}"
            );
            checked += 1;
        }
        println!("{storage:?}: {checked} base relations, no rows resident");
    }
    assert_eq!(answers[0], answers[1], "plain and disk answers differ");
    assert!(answers[0][0] > 0, "Q1 answered nothing");
}

/// The row layout `URelation::encode` once built, row by row: packed
/// descriptor codes, tuple ids, values.
fn encode_rows(p: &u_relations::core::URelation) -> Vec<Vec<Value>> {
    use u_relations::relalg::expr::pack;
    p.rows()
        .iter()
        .map(|r| {
            let mut row: Vec<Value> = r
                .desc
                .encode_padded(p.desc_arity())
                .into_iter()
                .map(|(v, val)| Value::Int(pack(v.0, val).unwrap()))
                .collect();
            row.extend(r.tids.iter().map(|&t| Value::Int(t)));
            row.extend(r.vals.iter().cloned());
            row
        })
        .collect()
}

/// The images `encode` builds column by column equal the images built
/// from the same rows: same variant, null mask and values per column,
/// and the same statistics — so plans and estimates cannot move.
#[test]
fn encoded_images_match_row_built_images() {
    use u_relations::core::UDatabase;
    use u_relations::relalg::{stats::TableStats, Relation};
    use u_relations::tpch::{generate, GenParams};
    fn check(name: &str, enc: &Relation, rows: Vec<Vec<Value>>) {
        let names: Vec<String> = enc
            .schema()
            .columns()
            .iter()
            .map(|c| c.to_string())
            .collect();
        let by_rows = Relation::from_rows(&names, rows).unwrap();
        assert_eq!(enc.len(), by_rows.len(), "{name}");
        assert_eq!(enc.columns().len(), by_rows.columns().len(), "{name}");
        for (c, (a, b)) in enc
            .columns()
            .cols()
            .iter()
            .zip(by_rows.columns().cols())
            .enumerate()
        {
            assert_eq!(a, b, "{name}: column {}", names[c]);
        }
        assert_eq!(
            TableStats::compute(enc),
            TableStats::compute(&by_rows),
            "{name}"
        );
        assert!(!enc.rows_cached(), "{name}: the check materialized rows");
    }
    fn check_db(db: &UDatabase) -> usize {
        let mut checked = 0;
        for rel in db.relations() {
            for p in db.partitions_of(rel).unwrap() {
                check(&p.name, &p.encode(), encode_rows(p));
                checked += 1;
            }
        }
        let w = &db.world;
        let wrows = w
            .vars()
            .flat_map(|v| {
                w.domain(v).unwrap().iter().map(move |&val| {
                    let mut row = vec![Value::Int(v.0 as i64), Value::Int(val as i64)];
                    if w.is_probabilistic() {
                        let p = w.prob(v, val).unwrap_or(0.0);
                        row.push(Value::Int((p * 1_000_000.0).round() as i64));
                    }
                    row
                })
            })
            .collect();
        check("w", &w.encode(), wrows);
        checked + 1
    }
    let tpch = generate(&GenParams::paper(0.01, 0.1, 0.5)).unwrap();
    let n = check_db(&tpch.db);
    assert!(n > 30, "only {n} relations checked");
    check_db(&figure1_database());
    // An empty partition keeps `from_rows`'s typing of empty columns.
    let mut empty = figure1_database();
    for p in empty.partitions_of_mut("r").unwrap() {
        p.rows_mut().clear();
    }
    check_db(&empty);
}
