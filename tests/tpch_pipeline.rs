//! End-to-end tests of the Section 6 pipeline at tiny scales: generator
//! invariants, the three queries across all three representations
//! (attribute-level, tuple-level, ULDB), the Figure 9 trends, and the
//! optimizer's plan shape on the translated queries.

use u_relations::core::{evaluate, possible, table, table_as, translate};
use u_relations::relalg::{col, exec, explain, lit_str, optimizer};
use u_relations::tpch::tuple_level::{expand_tuple_level, to_uldb};
use u_relations::tpch::{generate, q1, q2, q3, GenParams};

fn tiny(x: f64, z: f64, seed: u64) -> GenParams {
    let mut p = GenParams::paper(0.002, x, z);
    p.seed = seed;
    p
}

#[test]
fn attribute_and_tuple_level_agree_on_all_queries() {
    let out = generate(&tiny(0.06, 0.25, 21)).unwrap();
    let tl = expand_tuple_level(&out.db, 1 << 16, 1 << 22).unwrap();
    for (name, q) in [("q1", q1()), ("q2", q2()), ("q3", q3())] {
        let a = possible(&out.db, &q).unwrap();
        let b = possible(&tl, &q).unwrap();
        assert!(a.set_eq(&b), "{name}: attribute vs tuple level disagree");
    }
}

#[test]
fn uldb_agrees_on_a_single_relation_query() {
    // Tuple-level → ULDB mapping preserves query answers (modulo
    // erroneous tuples, which a selection cannot introduce).
    let out = generate(&tiny(0.05, 0.1, 5)).unwrap();
    let tl = expand_tuple_level(&out.db, 1 << 16, 1 << 22).unwrap();
    let mut uldb = to_uldb(&tl).unwrap();

    let pred = col("c_mktsegment").eq(lit_str("BUILDING"));
    let a = possible(
        &tl,
        &table("customer")
            .select(pred.clone())
            .project(["c_custkey", "c_mktsegment"]),
    )
    .unwrap();

    uldb.select("customer", "building", &pred).unwrap();
    let mut got: Vec<i64> = uldb
        .relation("building")
        .unwrap()
        .xtuples
        .iter()
        .flat_map(|t| &t.alts)
        .map(|alt| alt.values[0].as_int().unwrap())
        .collect();
    got.sort_unstable();
    got.dedup();
    let mut want: Vec<i64> = a.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    want.sort_unstable();
    want.dedup();
    assert_eq!(got, want);
}

#[test]
fn q3_self_join_on_nation_is_well_formed() {
    // nation appears twice; the translation must not confuse the copies.
    let out = generate(&tiny(0.05, 0.25, 8)).unwrap();
    let q = table_as("nation", "n1")
        .join(
            table_as("nation", "n2"),
            col("n1.n_regionkey").eq(col("n2.n_regionkey")),
        )
        .project(["n1.n_name", "n2.n_name"]);
    let ans = possible(&out.db, &q).unwrap();
    // Every nation pairs at least with itself within its region.
    assert!(ans.len() >= 25, "{}", ans.len());
}

#[test]
fn q3_plan_shape_survives_correlation_aware_estimates() {
    // The ψ estimates (each descriptor entry's packed column NDV)
    // must leave the optimized Q3 plan shape unchanged or better:
    // every ψ-merge join stays a hash join (no nested-loop demotions),
    // optimization still reduces the rows flowing through the executor,
    // and the answers are untouched.
    let out = generate(&tiny(0.05, 0.25, 8)).unwrap();
    let prepared = out.db.prepare();
    let t = translate(&out.db, &q3()).unwrap();
    let optimized = optimizer::optimize(&t.plan, prepared.catalog()).unwrap();
    // Every equi-keyed join must remain a hash join; ψ-only joins (no
    // equi conjunct exists between their groups) may nested-loop, but
    // only between tiny inputs — the reorderer must not schedule a
    // ψ-only cross over large sides.
    fn check_joins(p: &u_relations::relalg::Plan, c: &u_relations::relalg::Catalog) {
        use u_relations::relalg::Plan;
        match p {
            Plan::Join { left, right, pred } => {
                let (ls, rs) = (left.schema(c).unwrap(), right.schema(c).unwrap());
                let cond = exec::JoinCondition::analyze(pred, &ls, &rs);
                if cond.equi.is_empty() {
                    let pairs = optimizer::est_rows(left, c) * optimizer::est_rows(right, c);
                    assert!(
                        pairs < 100_000.0,
                        "ψ-only nested loop over large inputs ({pairs} est pairs)"
                    );
                }
                check_joins(left, c);
                check_joins(right, c);
            }
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct(input)
            | Plan::Rename { input, .. } => check_joins(input, c),
            Plan::Union { left, right } | Plan::Difference { left, right } => {
                check_joins(left, c);
                check_joins(right, c);
            }
            _ => {}
        }
    }
    check_joins(&optimized, prepared.catalog());
    let text = explain::explain(&optimized, prepared.catalog());
    assert!(text.contains("Hash Join"), "{text}");
    // One physical join per logical merge survives optimization.
    assert_eq!(optimized.join_count(), t.plan.join_count());
    // Optimization must not inflate executed work: compare the rows
    // carried by batches through both plans.
    let (raw_out, raw) = exec::execute_with_stats(&t.plan, prepared.catalog()).unwrap();
    let (opt_out, opt) = exec::execute_with_stats(&optimized, prepared.catalog()).unwrap();
    assert!(raw_out.set_eq(&opt_out), "optimization changed Q3 answers");
    assert!(
        opt.batch_rows <= raw.batch_rows,
        "optimized Q3 moves more rows than the raw translation: {opt:?} vs {raw:?}"
    );
}

#[test]
fn figure9_trends_hold_at_tiny_scale() {
    // Worlds exponential in x; size linear; lworlds grows with z.
    let w_small = generate(&tiny(0.01, 0.25, 3)).unwrap();
    let w_large = generate(&tiny(0.1, 0.25, 3)).unwrap();
    assert!(w_large.stats.worlds_log10 > 5.0 * w_small.stats.worlds_log10.max(0.1));
    assert!(
        (w_large.stats.size_bytes as f64) < 3.0 * w_small.stats.size_bytes as f64,
        "size must grow mildly: {} vs {}",
        w_large.stats.size_bytes,
        w_small.stats.size_bytes
    );

    let z_low = generate(&tiny(0.1, 0.1, 3)).unwrap();
    let z_high = generate(&tiny(0.1, 0.5, 3)).unwrap();
    let hi_dfc = |s: &u_relations::tpch::GenStats| {
        s.dfc_histogram
            .iter()
            .filter(|(d, _)| *d > 1)
            .map(|(_, c)| c)
            .sum::<usize>()
    };
    assert!(hi_dfc(&z_high.stats) > hi_dfc(&z_low.stats));
}

#[test]
fn query_results_decode_per_world_on_tpch() {
    // Exhaustive world check on an ultra-tiny instance: restrict the
    // uncertainty so the world count stays enumerable.
    let mut p = GenParams::paper(0.002, 0.004, 0.25);
    p.seed = 77;
    let out = generate(&p).unwrap();
    if out.db.world.world_count_exact().unwrap_or(u128::MAX) > 512 {
        // Seed-dependent; skip silently if the pool came out too big.
        return;
    }
    let q = q2();
    let u = evaluate(&out.db, &q).unwrap();
    for f in out.db.world.worlds(512).unwrap() {
        let got = u.tuples_in_world(&out.db.world, &f);
        let want = u_relations::core::oracle_eval(&q, &out.db, &f, 512).unwrap();
        assert!(got.set_eq(&want.sorted_set()));
    }
}

#[test]
fn generation_scales_preserve_query_answerability() {
    for s in [0.002, 0.01] {
        let mut p = GenParams::paper(s, 0.02, 0.25);
        p.seed = 13;
        let out = generate(&p).unwrap();
        out.db.validate().unwrap();
        for q in [q1(), q2(), q3()] {
            possible(&out.db, &q).unwrap();
        }
    }
}

/// The join tree of an optimized plan: base partitions at the leaves, and
/// at each join the side the executor builds its hash table on (`⋈→`
/// builds right, `←⋈` builds left; `×` is a nested loop, which
/// buffers its right side).
fn join_shape(p: &u_relations::relalg::Plan, c: &u_relations::relalg::Catalog) -> String {
    use u_relations::relalg::Plan;
    match p {
        Plan::Scan(name) => name.clone(),
        Plan::Values(_) => "values".into(),
        Plan::Select { input, .. }
        | Plan::Project { input, .. }
        | Plan::Distinct(input)
        | Plan::Rename { input, .. } => join_shape(input, c),
        Plan::Join { left, right, pred } => {
            let (ls, rs) = (left.schema(c).unwrap(), right.schema(c).unwrap());
            let op = if exec::JoinCondition::analyze(pred, &ls, &rs).equi.is_empty() {
                "×"
            } else if exec::join_build_left(left, right, c) {
                "←⋈"
            } else {
                "⋈→"
            };
            format!("({} {op} {})", join_shape(left, c), join_shape(right, c))
        }
        Plan::Union { left, right } | Plan::Difference { left, right } => {
            format!("({} · {})", join_shape(left, c), join_shape(right, c))
        }
    }
}

#[test]
fn fig12_join_orders_and_build_sides_are_pinned() {
    // The plan-stability golden for Q1-Q3 at s = 0.05: the greedy
    // reorderer and the executor's build-side choice both read the ψ
    // estimates, so a change to those estimates shows here first.
    let out = generate(&GenParams::paper(0.05, 0.1, 0.5)).unwrap();
    let cat = out.db.to_catalog();
    let got: Vec<String> = [q1(), q2(), q3()]
        .iter()
        .map(|q| {
            let t = translate(&out.db, q).unwrap();
            join_shape(&optimizer::optimize(&t.plan, &cat).unwrap(), &cat)
        })
        .collect();
    let want = [
        "((u_lineitem_l_shipdate ←⋈ u_lineitem_l_orderkey) ⋈→ ((u_customer_c_mktsegment ←⋈ u_customer_c_custkey) ←⋈ (((u_orders_o_shippriority ⋈→ u_orders_o_orderdate) ←⋈ u_orders_o_custkey) ⋈→ u_orders_o_orderkey)))",
        "(((u_lineitem_l_shipdate ←⋈ u_lineitem_l_discount) ←⋈ u_lineitem_l_extendedprice) ⋈→ u_lineitem_l_quantity)",
        "((u_lineitem_l_suppkey ←⋈ u_lineitem_l_orderkey) ⋈→ ((u_orders_o_custkey ⋈→ u_orders_o_orderkey) ⋈→ ((u_customer_c_nationkey ⋈→ u_customer_c_custkey) ⋈→ ((u_supplier_s_nationkey ⋈→ u_supplier_s_suppkey) ⋈→ ((u_nation_n_name ←⋈ u_nation_n_nationkey) × (u_nation_n_name ←⋈ u_nation_n_nationkey))))))",
    ];
    assert_eq!(got, want);
}

/// `possible` sorts and dedups a value-only result in place instead of
/// decoding it into `URow`s first; the answer — schema, rows and the
/// rendered text — equals the decode path's on Q1–Q3 and on Figure 1.
#[test]
fn possible_answers_equal_the_decode_path() {
    use u_relations::core::{figure1_database, UDatabase, UQuery, URelation};
    use u_relations::relalg::{lit_i64, Expr};
    fn check(db: &UDatabase, q: &UQuery) -> usize {
        let prepared = db.prepare();
        let t = translate(db, q).unwrap();
        assert_eq!((t.desc_arity(), t.tid_cols.len()), (0, 0), "{q:?}");
        let plan = optimizer::optimize(&t.plan, prepared.catalog()).unwrap();
        let rel = exec::execute(&plan, prepared.catalog()).unwrap();
        let decoded = URelation::decode("result", &rel, 0, 0)
            .unwrap()
            .possible_tuples();
        let fast = prepared.possible(q).unwrap();
        assert_eq!(fast, decoded, "{q:?}");
        assert_eq!(fast.to_string(), decoded.to_string(), "{q:?}");
        fast.len()
    }
    let out = generate(&GenParams::paper(0.01, 0.1, 0.5)).unwrap();
    let tpch: Vec<usize> = [q1(), q2(), q3()]
        .iter()
        .map(|q| check(&out.db, q))
        .collect();
    assert!(tpch[0] > 0 && tpch[1] > 0, "{tpch:?}");
    let fig1 = figure1_database();
    let tanks = table("r")
        .select(Expr::and([
            col("type").eq(lit_str("Tank")),
            col("faction").eq(lit_str("Enemy")),
        ]))
        .project(["id"]);
    let pairs = table_as("r", "a")
        .join(table_as("r", "b"), col("a.id").lt(col("b.id")))
        .select(col("a.faction").eq(col("b.faction")))
        .project(["a.id", "b.id", "a.faction"]);
    let ids = table("r")
        .select(col("id").gt(lit_i64(1)))
        .project(["type"]);
    let fig: Vec<usize> = [tanks, pairs, ids]
        .into_iter()
        .map(|q| check(&fig1, &q.poss()))
        .collect();
    assert!(fig.iter().all(|&n| n > 0), "{fig:?}");
}

/// `certain` of the paper's queries without their `poss` answers at the
/// scales where normalizing the join result used to exceed its fused
/// domain cap, and gives exactly the tuples `certain_with_confidence`
/// reports under the exact method — all of them possible answers.
#[test]
fn certain_answers_fig12_queries_without_poss() {
    use std::collections::BTreeSet;
    use u_relations::core::{ConfidenceMethod, UQuery};
    for s in [0.01, 0.05] {
        let out = generate(&GenParams::paper(s, 0.1, 0.5)).unwrap();
        let prepared = out.db.prepare();
        for (name, q) in [("q1", q1()), ("q2", q2()), ("q3", q3())] {
            let UQuery::Poss { input } = q else {
                panic!("{name} ends in poss");
            };
            let cert = prepared
                .certain(&input)
                .unwrap_or_else(|e| panic!("{name} at s = {s}: {e}"));
            let got: BTreeSet<Vec<_>> = cert.rows().iter().map(|r| r.to_vec()).collect();
            let want: BTreeSet<Vec<_>> = prepared
                .certain_with_confidence(&input, ConfidenceMethod::Exact)
                .unwrap()
                .into_iter()
                .map(|(t, _)| t)
                .collect();
            assert_eq!(got, want, "{name} at s = {s}");
            let poss = prepared.possible(&input).unwrap();
            for row in cert.rows() {
                assert!(poss.rows().contains(row), "{name} at s = {s}: {row:?}");
            }
        }
    }
}

/// EXPLAIN renders plan and statistics only, so Q1–Q3 print the same
/// text under disk and plain storage. Executing the plan under disk
/// storage appends the segment and buffer-pool footers; under plain
/// storage it appends neither.
#[test]
fn explain_is_byte_identical_under_disk_and_plain() {
    use u_relations::relalg::StorageMode;
    let out = generate(&GenParams::paper(0.01, 0.1, 0.5)).unwrap();
    let mut disk = out.db.prepare();
    disk.set_storage(StorageMode::Disk);
    let mut plain = out.db.prepare();
    plain.set_storage(StorageMode::Plain);
    for q in [q1(), q2(), q3()] {
        let text = disk.explain(&q).unwrap();
        assert_eq!(text, plain.explain(&q).unwrap());
        assert!(!text.contains("[seg"), "{text}");

        let plan =
            optimizer::optimize(&translate(&out.db, &q).unwrap().plan, disk.catalog()).unwrap();
        let executed = explain::explain_executed(&plan, disk.catalog()).unwrap();
        assert!(executed.starts_with(&text), "{executed}");
        let scanned: usize = executed
            .lines()
            .find_map(|l| l.strip_prefix("-- segments: "))
            .and_then(|l| l.split(" scanned, ~").next())
            .unwrap_or_else(|| panic!("no segments footer:\n{executed}"))
            .parse()
            .unwrap();
        assert!(scanned > 0, "{executed}");
        assert!(executed.contains("-- buffer pool: "), "{executed}");

        let executed = explain::explain_executed(&plan, plain.catalog()).unwrap();
        assert!(executed.starts_with(&text), "{executed}");
        assert!(!executed.contains("-- segments:"), "{executed}");
        assert!(!executed.contains("-- buffer pool:"), "{executed}");
    }
}
