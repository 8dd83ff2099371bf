//! Property-based tests of the relational engine itself: the optimizer
//! must never change query results, EXPLAIN must never panic, and the
//! set operators must satisfy their algebraic laws. This is the substrate
//! the whole reproduction rests on, so it gets its own adversarial suite.

use proptest::prelude::*;
use u_relations::relalg::{
    col, exec, explain, lit_i64, optimizer, Catalog, Expr, Plan, Relation, Value,
};

/// Random base tables: r(a, b), s(c, d) with small integer domains so
/// joins actually match.
fn arb_catalog() -> impl Strategy<Value = Catalog> {
    let row = || (0i64..6, 0i64..6);
    (
        prop::collection::vec(row(), 0..12),
        prop::collection::vec(row(), 0..12),
    )
        .prop_map(|(r_rows, s_rows)| {
            let mut c = Catalog::new();
            c.insert(
                "r",
                Relation::from_rows(
                    ["a", "b"],
                    r_rows
                        .into_iter()
                        .map(|(x, y)| vec![Value::Int(x), Value::Int(y)])
                        .collect::<Vec<_>>(),
                )
                .unwrap(),
            );
            c.insert(
                "s",
                Relation::from_rows(
                    ["c", "d"],
                    s_rows
                        .into_iter()
                        .map(|(x, y)| vec![Value::Int(x), Value::Int(y)])
                        .collect::<Vec<_>>(),
                )
                .unwrap(),
            );
            c
        })
}

fn arb_pred_r() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0i64..6).prop_map(|k| col("a").eq(lit_i64(k))),
        (0i64..6).prop_map(|k| col("b").lt(lit_i64(k))),
        (0i64..6, 0i64..6)
            .prop_map(|(k1, k2)| Expr::or([col("a").eq(lit_i64(k1)), col("b").gt(lit_i64(k2)),])),
        Just(col("a").le(col("b"))),
    ]
}

/// Random plans over the two tables, mixing all operators.
fn arb_plan() -> impl Strategy<Value = Plan> {
    let leaf = prop_oneof![Just(Plan::scan("r")), Just(Plan::scan("s"))];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            // σ over r-shaped inputs (guarded at runtime by schema()).
            (inner.clone(), arb_pred_r()).prop_map(|(p, e)| p.select(e)),
            inner.clone().prop_map(|p| p.distinct()),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| {
                // Equi-join r ⋈ s when schemas allow; cross otherwise.
                l.join(r, Expr::and([]))
            }),
            inner
                .clone()
                .prop_map(|p| Plan::scan("r").join(p.rename("x"), Expr::and([]))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.union(r)),
            (inner.clone(), inner).prop_map(|(l, r)| l.difference(r)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn optimizer_preserves_results(catalog in arb_catalog(), plan in arb_plan()) {
        // Many random plans are ill-typed (predicates over the wrong
        // side, arity-mismatched unions): those must fail *cleanly* in
        // schema(), and the optimizer must reject them too.
        match plan.schema(&catalog) {
            Err(_) => {
                prop_assert!(optimizer::optimize(&plan, &catalog).is_err());
            }
            Ok(_) => {
                let before = exec::execute(&plan, &catalog).unwrap();
                let opt = optimizer::optimize(&plan, &catalog).unwrap();
                let after = exec::execute(&opt, &catalog).unwrap();
                prop_assert!(
                    before.set_eq(&after),
                    "optimizer changed results\nplan: {plan:?}\nopt: {opt:?}\nbefore: {before}\nafter: {after}"
                );
                // EXPLAIN never panics and mentions every scan.
                let text = explain::explain(&opt, &catalog);
                prop_assert!(text.contains("Scan"));
            }
        }
    }

    #[test]
    fn join_is_commutative_up_to_column_order(
        catalog in arb_catalog(),
        k in 0i64..6,
    ) {
        let pred = col("b").eq(col("c"));
        let lr = Plan::scan("r").select(col("a").ge(lit_i64(k))).join(Plan::scan("s"), pred.clone());
        let rl = Plan::scan("s").join(Plan::scan("r").select(col("a").ge(lit_i64(k))), pred);
        let a = exec::execute(&lr, &catalog).unwrap();
        let b = exec::execute(&rl, &catalog).unwrap();
        // Reorder b's columns to a's layout (c,d,a,b → a,b,c,d).
        let reordered = exec::execute(
            &rl.project_names(["a", "b", "c", "d"]),
            &catalog,
        )
        .unwrap();
        prop_assert_eq!(a.len(), b.len());
        prop_assert!(a.set_eq(&reordered));
    }

    #[test]
    fn set_operator_laws(catalog in arb_catalog()) {
        let r = Plan::scan("r");
        // r − r = ∅
        let empty = exec::execute(&r.clone().difference(r.clone()), &catalog).unwrap();
        prop_assert_eq!(empty.len(), 0);
        // δ(r ∪ r) = δ(r)
        let dd = exec::execute(&r.clone().union(r.clone()).distinct(), &catalog).unwrap();
        let d = exec::execute(&r.clone().distinct(), &catalog).unwrap();
        prop_assert!(dd.set_eq(&d));
        // (r − s') ∪ (r ∩ s') = δ(r) where s' = r filtered.
        let s2 = r.clone().select(col("a").lt(lit_i64(3)));
        let minus = r.clone().difference(s2.clone());
        let inter = r.clone().difference(r.clone().difference(s2));
        let lhs = exec::execute(&minus.union(inter).distinct(), &catalog).unwrap();
        prop_assert!(lhs.set_eq(&d));
    }
}

/// The bit length of `x` (0 for 0).
fn bitlen(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// A random `x` of exactly `bits` bits.
fn with_bitlen(bits: u32, noise: u64) -> u64 {
    match bits {
        0 => 0,
        b => (1 << (b - 1)) | (noise & ((1 << (b - 1)) - 1)),
    }
}

/// Encodable descriptor entries, spread over every variable and range
/// width: the bit lengths of variable and range sum to at most 58.
fn arb_entry() -> impl Strategy<Value = (u32, u64)> {
    (0u32..=32, 0u32..=31, any::<u64>(), any::<u64>()).prop_map(|(vb, w, vn, rn)| {
        let w = w.min(58 - vb);
        (with_bitlen(vb, vn) as u32, with_bitlen(w, rn))
    })
}

#[test]
fn descriptor_codes_at_their_edges() {
    use u_relations::relalg::expr::{pack, unpack};
    assert_eq!(pack(0, 0), Some(0), "⊤ ↦ 0 packs to 0");
    for (var, rng) in [
        (u32::MAX, (1 << 26) - 1),
        ((1 << 27) - 1, (1 << 31) - 1),
        (1, 1 << 30),
        (u32::MAX, 0),
    ] {
        assert_eq!(unpack(pack(var, rng).unwrap()), Some((var, rng)));
    }
    for (var, rng) in [(u32::MAX, 1 << 26), (1, 1 << 31), (0, u64::MAX)] {
        assert_eq!(pack(var, rng), None, "({var}, {rng})");
    }
    assert_eq!(unpack(-1), None);
    // Width field 3 with a range of bit length 1 is no code.
    assert_eq!(unpack((1 << 5) | 3), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn descriptor_codes_roundtrip(entry in arb_entry()) {
        use u_relations::relalg::expr::{pack, unpack, var_of};
        let (var, rng) = entry;
        prop_assert!(bitlen(u64::from(var)) + bitlen(rng) <= 58);
        let code = pack(var, rng).expect("encodable");
        prop_assert!(code >= 0);
        prop_assert_eq!(unpack(code), Some((var, rng)));
        prop_assert_eq!(var_of(code), i64::from(var));
    }

    #[test]
    fn psi_on_codes_is_psi_on_entries(a in arb_entry(), b in arb_entry(), mode in 0u8..3) {
        use u_relations::relalg::expr::{pack, psi};
        // Collide the variables (mode 1) or whole entries (mode 2) often,
        // since random entries rarely share a variable.
        let b = match mode {
            0 => b,
            1 => (a.0, b.1 & ((1 << (58 - bitlen(u64::from(a.0))).min(31)) - 1)),
            _ => a,
        };
        let (pa, pb) = (pack(a.0, a.1).unwrap(), pack(b.0, b.1).unwrap());
        prop_assert_eq!(psi(pa, pb), a.0 != b.0 || a.1 == b.1);
    }
}
