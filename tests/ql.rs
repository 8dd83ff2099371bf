//! Frontend lowering coverage: a differential oracle proving that
//! pipeline text lowers to exactly the plans the hand-built core
//! algebra produces, plus golden tests pinning the spanned parse
//! errors.

use u_relations::core::{figure1_database, table, table_as, UQuery};
use u_relations::ql::{self, QueryMode};
use u_relations::relalg::{col, lit_i64, lit_str, Expr};

/// Hand-built counterparts for a set of pipelines covering every stage
/// kind, aliasing, subqueries, unions, precedence, and literals.
fn handbuilt_cases() -> Vec<(&'static str, UQuery)> {
    vec![
        ("from r", table("r")),
        ("FROM R", table("R")),
        (
            "from r | where id = 2 | select type",
            table("r")
                .select(col("id").eq(lit_i64(2)))
                .project(["type"]),
        ),
        (
            "from r as a | join r as b on a.id = b.id | select a.type, b.faction",
            table_as("r", "a")
                .join(table_as("r", "b"), col("a.id").eq(col("b.id")))
                .project(["a.type", "b.faction"]),
        ),
        (
            "from r | where type = 'Tank' and faction = 'Enemy' | select id",
            table("r")
                .select(Expr::and([
                    col("type").eq(lit_str("Tank")),
                    col("faction").eq(lit_str("Enemy")),
                ]))
                .project(["id"]),
        ),
        (
            "from r | where id = 1 or id = 2 or not faction = 'Enemy'",
            table("r").select(Expr::or([
                col("id").eq(lit_i64(1)),
                col("id").eq(lit_i64(2)),
                Expr::Not(Box::new(col("faction").eq(lit_str("Enemy")))),
            ])),
        ),
        (
            "from r | where id + 1 * 2 <= 5",
            table("r").select(col("id").add(lit_i64(1).mul(lit_i64(2))).le(lit_i64(5))),
        ),
        (
            "from (from r | where id = 1) | union (from r | where id = 2)",
            table("r")
                .select(col("id").eq(lit_i64(1)))
                .union(table("r").select(col("id").eq(lit_i64(2)))),
        ),
        (
            "from r | select id | union (from r | select id)",
            table("r").project(["id"]).union(table("r").project(["id"])),
        ),
    ]
}

#[test]
fn handbuilt_queries_lower_identically() {
    for (src, want) in handbuilt_cases() {
        let lowered = ql::compile(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        assert_eq!(lowered.query, want, "lowering mismatch for `{src}`");
    }
}

#[test]
fn lowered_plans_are_byte_identical_to_handbuilt() {
    let udb = figure1_database();
    let prepared = udb.prepare();
    for (src, want) in handbuilt_cases() {
        if src.contains('R') {
            continue; // `R` is not a catalog relation; lowering-only case.
        }
        let lowered = ql::compile(src).unwrap();
        let plan_lowered = prepared.explain(&lowered.query).unwrap();
        let plan_handbuilt = prepared.explain(&want).unwrap();
        assert_eq!(
            plan_lowered, plan_handbuilt,
            "plan text mismatch for `{src}`"
        );
        // And the answers, through the same PreparedDb path.
        assert_eq!(
            prepared.possible(&lowered.query).unwrap(),
            prepared.possible(&want).unwrap(),
            "answer mismatch for `{src}`"
        );
    }
}

// --- generated differential oracle ----------------------------------

/// Tiny deterministic LCG so the generator needs no RNG dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Generate pipeline text and the equivalent hand-built query at the
/// same time; the oracle then checks `compile(text).query == built`.
fn gen_pipeline(rng: &mut Lcg, alias: &str) -> (String, UQuery) {
    let mut text = format!("from r as {alias}");
    let mut q = table_as("r", alias);
    let stages = 1 + rng.below(3);
    for _ in 0..stages {
        match rng.below(3) {
            0 => {
                let (ptext, pred) = gen_pred(rng, alias);
                text.push_str(&format!(" | where {ptext}"));
                q = q.select(pred);
            }
            1 => {
                // Projection must keep attrs resolvable; project all
                // three so later stages still see their columns.
                text.push_str(&format!(
                    " | select {alias}.id, {alias}.type, {alias}.faction"
                ));
                q = q.project([
                    format!("{alias}.id"),
                    format!("{alias}.type"),
                    format!("{alias}.faction"),
                ]);
            }
            _ => {
                let (ptext, pred) = gen_pred(rng, alias);
                text.push_str(&format!(" | where not ({ptext})"));
                q = q.select(Expr::Not(Box::new(pred)));
            }
        }
    }
    (text, q)
}

fn gen_pred(rng: &mut Lcg, alias: &str) -> (String, Expr) {
    let atom = |rng: &mut Lcg| -> (String, Expr) {
        match rng.below(3) {
            0 => {
                let v = rng.below(5) as i64;
                (
                    format!("{alias}.id = {v}"),
                    col(&format!("{alias}.id")).eq(lit_i64(v)),
                )
            }
            1 => (
                format!("{alias}.type = 'Tank'"),
                col(&format!("{alias}.type")).eq(lit_str("Tank")),
            ),
            _ => {
                let v = rng.below(5) as i64;
                (
                    format!("{alias}.id <= {v}"),
                    col(&format!("{alias}.id")).le(lit_i64(v)),
                )
            }
        }
    };
    let (t1, e1) = atom(rng);
    match rng.below(3) {
        0 => (t1, e1),
        1 => {
            let (t2, e2) = atom(rng);
            (format!("{t1} and {t2}"), Expr::and([e1, e2]))
        }
        _ => {
            let (t2, e2) = atom(rng);
            (format!("{t1} or {t2}"), Expr::or([e1, e2]))
        }
    }
}

#[test]
fn generated_pipelines_lower_to_identical_plans() {
    let udb = figure1_database();
    let prepared = udb.prepare();
    let mut rng = Lcg(0x1CDE_2008);
    for i in 0..200 {
        let (text, want) = gen_pipeline(&mut rng, "v");
        let lowered = ql::compile(&text).unwrap_or_else(|e| panic!("case {i} `{text}`: {e}"));
        assert_eq!(
            lowered.query, want,
            "case {i}: lowering mismatch for `{text}`"
        );
        assert_eq!(lowered.mode, QueryMode::Possible { confidence: None });
        // Byte-identical plans and answers through the same engine.
        assert_eq!(
            prepared.explain(&lowered.query).unwrap(),
            prepared.explain(&want).unwrap(),
            "case {i}: plan mismatch for `{text}`"
        );
    }
}

// --- spanned parse-error goldens -------------------------------------

#[test]
fn parse_errors_are_golden() {
    // (input, exact Display of the error) — spans are part of the
    // contract: the server protocol forwards them to clients.
    let cases = [
        (
            "fro r",
            "parse error at 0..3: expected `from`, found identifier `fro`",
        ),
        (
            "from r | wear id = 1",
            "parse error at 9..13: expected a stage (`where`, `select`, `join`, \
             `union`, `possible` or `certain`), found identifier `wear`",
        ),
        (
            "from r | select ",
            "parse error at 16..16: expected an attribute name, found end of input",
        ),
        (
            "from r | where id = ",
            "parse error at 20..20: expected an expression, found end of input",
        ),
        (
            "from r | where id = 0.5",
            "parse error at 20..23: float literals are only valid after `confidence`",
        ),
        (
            "from r | join s on",
            "parse error at 18..18: expected an expression, found end of input",
        ),
        (
            "from r | union from s",
            "parse error at 15..19: expected `(` after `union`, found keyword `from`",
        ),
        (
            "from r | where id = 'oops",
            "parse error at 20..25: unterminated string literal",
        ),
        (
            "from r ; oops",
            "parse error at 7..8: unexpected character `;`",
        ),
        (
            "from r | possible trailing",
            "parse error at 18..26: expected `|` or end of input, found identifier `trailing`",
        ),
    ];
    for (src, want) in cases {
        let got = ql::parse(src).map(|s| format!("unexpected parse success: {s:?}"));
        let got = match got {
            Err(e) => e.to_string(),
            Ok(msg) => msg,
        };
        assert_eq!(got, want, "golden mismatch for `{src}`");
    }
}

#[test]
fn lowering_errors_are_golden() {
    let cases = [
        (
            "from r | certain | select id",
            "lowering error at 19..28: `possible`/`certain` must be the last stage of the pipeline",
        ),
        (
            "from r | union (from r | possible)",
            "lowering error at 25..33: `possible`/`certain` is only allowed on the \
             top-level pipeline, not in a subquery",
        ),
        (
            "from r | possible confidence 1",
            "lowering error at 9..30: confidence half-width must satisfy 0 < \u{3b5} < 1, got 1",
        ),
    ];
    for (src, want) in cases {
        let e = ql::compile(src).unwrap_err();
        assert_eq!(e.to_string(), want, "golden mismatch for `{src}`");
    }
}

/// The text path the server serves: `possible confidence ε` on a
/// relation with a partial field. Tuple 1's `a` is unconditional but
/// its `b` is defined only under x1 ↦ 0 and x1 ↦ 1 (of three values),
/// so `a = 7` holds in two worlds of three, not in all of them.
#[test]
fn possible_confidence_sees_partial_fields() {
    use u_relations::core::{UDatabase, URelation, Var, WorldTable, WsDescriptor};
    use u_relations::relalg::Value;
    let mut w = WorldTable::new();
    w.add_var(Var(1), vec![0, 1, 2]).unwrap();
    let mut db = UDatabase::new(w);
    db.add_relation("r", ["a", "b"]).unwrap();
    let mut ua = URelation::partition("u_a", ["a"]);
    ua.push_simple(WsDescriptor::empty(), 1, vec![Value::Int(7)])
        .unwrap();
    db.add_partition("r", ua).unwrap();
    let mut ub = URelation::partition("u_b", ["b"]);
    for l in [0, 1] {
        ub.push_simple(WsDescriptor::singleton(Var(1), l), 1, vec![Value::Int(0)])
            .unwrap();
    }
    db.add_partition("r", ub).unwrap();
    db.validate().unwrap();

    let lowered = ql::compile("from r | select a | possible confidence 0.01").unwrap();
    let ql::Answers::WithConfidence { rows } = ql::execute(&db.prepare(), &lowered).unwrap() else {
        panic!("`confidence` answers carry probabilities");
    };
    assert_eq!(rows.len(), 1, "{rows:?}");
    assert_eq!(rows[0].0, vec![Value::Int(7)]);
    assert!((rows[0].1 - 2.0 / 3.0).abs() < 0.01, "{rows:?}");
}

/// The benchmark's Fig. 12 Q1 text with `certain` in place of
/// `possible` answers through the text path, with the tuples that
/// `certain_with_confidence` reports under the exact method.
#[test]
fn certain_answers_the_fig12_q1_text() {
    use std::collections::BTreeSet;
    use u_relations::core::ConfidenceMethod;
    use u_relations::relalg::value::date_to_days;
    use u_relations::tpch::{generate, GenParams};
    let out = generate(&GenParams::paper(0.01, 0.1, 0.5)).unwrap();
    let prepared = out.db.prepare();
    let text = format!(
        "from customer | where c_mktsegment = 'BUILDING' \
         | join (from orders | where o_orderdate > {}) on c_custkey = o_custkey \
         | join (from lineitem | where l_shipdate < {}) on o_orderkey = l_orderkey \
         | select o_orderkey, o_orderdate, o_shippriority | certain",
        date_to_days(1995, 3, 15),
        date_to_days(1995, 3, 17)
    );
    let lowered = ql::compile(&text).unwrap();
    let ql::Answers::Plain { rel, .. } = ql::execute(&prepared, &lowered).unwrap() else {
        panic!("`certain` answers a plain relation");
    };
    let got: BTreeSet<Vec<_>> = rel.rows().iter().map(|r| r.to_vec()).collect();
    let want: BTreeSet<Vec<_>> = prepared
        .certain_with_confidence(&lowered.query, ConfidenceMethod::Exact)
        .unwrap()
        .into_iter()
        .map(|(t, _)| t)
        .collect();
    assert!(!got.is_empty());
    assert_eq!(got, want);
}
