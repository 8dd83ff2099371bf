//! Certain answers (Section 4, Lemma 4.3).
//!
//! On tuple-level *normalized* U-relations, a tuple `t` is certain iff
//! some variable `x` witnesses it in every one of its domain values:
//! `∃x ∀l: (x,l) ∈ W ⇒ ∃s: (x↦l, s, t) ∈ U`. The paper encodes this as a
//! relational algebra query —
//!
//! ```text
//! cert(U) := πA( πVar(W) × πA(U)
//!               − πVar,A( W × πA(U) − πVar,Rng,A(U) ) )
//! ```
//!
//! — which this module implements both literally on the relational engine
//! ([`certain_lemma43_relational`]) and directly ([`certain_lemma43`]).
//! [`certain_exact`] computes exact certain answers on *arbitrary* (not
//! necessarily normalized) result U-relations by full world-coverage
//! checking; Lemma 4.3 on the normalized input agrees with it, which the
//! tests verify.

use crate::algebra::UQuery;
use crate::error::{Error, Result};
use crate::prob::{covers_all_worlds_of, tuple_groups, ConfidenceMethod};
use crate::udb::UDatabase;
use crate::urelation::URelation;
use crate::world::{WorldTable, TOP};
use std::collections::BTreeMap;
use urel_relalg::{exec, Catalog, Expr, Plan, Relation, Schema, Value};

/// Direct implementation of Lemma 4.3 on a tuple-level normalized
/// U-relation. Errors if a descriptor has size > 1.
pub fn certain_lemma43(u: &URelation, w: &WorldTable) -> Result<Relation> {
    let mut witnesses: BTreeMap<Vec<Value>, BTreeMap<crate::world::Var, Vec<u64>>> =
        BTreeMap::new();
    for row in u.rows() {
        if row.desc.len() > 1 {
            return Err(Error::InvalidQuery(
                "Lemma 4.3 requires a normalized U-relation (descriptor size ≤ 1)".into(),
            ));
        }
        let (var, val) = row.desc.iter().next().copied().unwrap_or((TOP, 0));
        witnesses
            .entry(row.vals.to_vec())
            .or_default()
            .entry(var)
            .or_default()
            .push(val);
    }
    let mut out = Relation::empty(Schema::named(u.value_cols()));
    for (tuple, by_var) in witnesses {
        let certain = by_var.iter().any(|(&var, vals)| {
            if var == TOP {
                return true;
            }
            let dom = w.domain(var).map(<[u64]>::len).unwrap_or(usize::MAX);
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            sorted.dedup();
            sorted.len() == dom
        });
        if certain {
            out.push(tuple).expect("arity fixed");
        }
    }
    Ok(out)
}

/// Lemma 4.3 executed as the paper's relational algebra query on the
/// relational engine. `u` must be tuple-level normalized.
pub fn certain_lemma43_relational(u: &URelation, w: &WorldTable) -> Result<Relation> {
    if u.rows().iter().any(|r| r.desc.len() > 1) {
        return Err(Error::InvalidQuery(
            "Lemma 4.3 requires a normalized U-relation (descriptor size ≤ 1)".into(),
        ));
    }
    // Encode U at descriptor arity exactly 1 over [var, rng, A]; the ⊤
    // convention makes empty descriptors the pair (0, 0).
    let mut enc_rows: Vec<Vec<Value>> = Vec::with_capacity(u.len());
    for row in u.rows() {
        let (var, val) = row.desc.iter().next().copied().unwrap_or((TOP, 0));
        let mut r = vec![Value::Int(var.0 as i64), Value::Int(val as i64)];
        r.extend(row.vals.iter().cloned());
        enc_rows.push(r);
    }
    let mut names = vec!["var".to_string(), "rng".to_string()];
    names.extend(u.value_cols().iter().cloned());
    let u_enc = Relation::from_rows(names, enc_rows)?;

    // W including the ⊤ row, so always-present tuples qualify.
    let mut w_rows = vec![vec![Value::Int(0), Value::Int(0)]];
    for v in w.vars() {
        for &val in w.domain(v)? {
            w_rows.push(vec![Value::Int(v.0 as i64), Value::Int(val as i64)]);
        }
    }
    let w_enc = Relation::from_rows(["var", "rng"], w_rows)?;

    let mut catalog = Catalog::new();
    catalog.insert("u", u_enc);
    catalog.insert("wt", w_enc);

    let a: Vec<String> = u.value_cols().to_vec();
    let var_a: Vec<String> = std::iter::once("var".to_string())
        .chain(a.iter().cloned())
        .collect();
    let var_rng_a: Vec<String> = ["var", "rng"]
        .into_iter()
        .map(str::to_string)
        .chain(a.iter().cloned())
        .collect();

    // πVar(W) × πA(U)
    let left = Plan::scan("wt")
        .project_names(["var"])
        .distinct()
        .join(Plan::scan("u").project_names(&a).distinct(), Expr::and([]));
    // W × πA(U) − πVar,Rng,A(U): the (var, rng, tuple) witnesses missing
    // from U.
    let missing = Plan::scan("wt")
        .join(Plan::scan("u").project_names(&a).distinct(), Expr::and([]))
        .difference(Plan::scan("u").project_names(&var_rng_a));
    // πVar,A of the missing set: variables that fail to witness a tuple.
    let failed = missing.project_names(&var_a);
    // Subtract and project to A.
    let cert = left
        .project_names(&var_a)
        .difference(failed)
        .project_names(&a)
        .distinct();
    // The plan tops out in Distinct, so the Arc is freshly built and
    // unwrapping it is free.
    Ok(std::sync::Arc::unwrap_or_clone(exec::execute(
        &cert, &catalog,
    )?))
}

/// Exact certain answers of an arbitrary result U-relation: a tuple is
/// certain iff the union of its rows' descriptors covers every world.
pub fn certain_exact(u: &URelation, w: &WorldTable) -> Result<Relation> {
    let mut out = Relation::empty(Schema::named(u.value_cols()));
    for (tuple, descs) in tuple_groups(u) {
        if covers_all_worlds_of(descs, w)? {
            out.push(tuple.to_vec()).expect("arity fixed");
        }
    }
    Ok(out)
}

/// End-to-end certain answers of a logical query: evaluate the translated
/// query, normalize the result (Algorithm 1), and apply Lemma 4.3.
///
/// Lemma 4.3 is only sound on a result whose descriptors say exactly in
/// which worlds each row is an answer. Pruned leaves give that under
/// Proposition 3.3's reduction guarantee — every tuple present in a
/// world has all of its fields defined there. A *partial* or-set field
/// (defined in only some worlds) breaks that guarantee, so each relation
/// that has one ([`UDatabase::partial_relations`]) reads every
/// attribute instead, and `merge`'s ψ rebuilds the worlds in which its
/// tuples exist. No world is enumerated, so the answer is exact at any
/// world count. Each call prepares the database afresh; repeated
/// statements should go through [`crate::PreparedDb::certain`].
pub fn certain_answers(udb: &UDatabase, q: &UQuery) -> Result<Relation> {
    crate::translate::PreparedDb::new(udb).certain(q)
}

/// Certain answers of a result U-relation under an explicit coverage
/// computation method, with each reported tuple's coverage probability.
/// `u`'s descriptors must say exactly in which worlds each row is an
/// answer, as [`crate::PreparedDb::certain_with_confidence`]'s
/// translation guarantees on databases with partial fields too.
///
/// The *exact* method reproduces [`certain_exact`]: a tuple is reported
/// iff its descriptors' union covers every world (coverage 1, decided
/// combinatorially, so no float threshold is involved). The
/// *Monte-Carlo* method estimates each tuple's coverage probability by
/// world sampling and reports tuples whose estimate is at least
/// `1 − ε(δ)`, the Hoeffding half-width of
/// [`crate::prob::ConfidenceMethod::error_bound`]: every truly certain
/// tuple passes with probability `≥ 1 − δ`, and a tuple with true
/// coverage below `1 − 2ε` is excluded with the same confidence —
/// tuples inside the `2ε` gap are inherently at the estimator's mercy,
/// which is the usual Monte-Carlo trade.
pub fn certain_with_coverage(
    u: &URelation,
    w: &WorldTable,
    method: ConfidenceMethod,
    delta: f64,
) -> Result<Vec<(Vec<Value>, f64)>> {
    let threshold = 1.0 - method.error_bound(delta);
    let mut estimator = method.estimator(w);
    let mut out = Vec::new();
    for (tuple, descs) in tuple_groups(u) {
        match method {
            ConfidenceMethod::Exact => {
                if covers_all_worlds_of(descs, w)? {
                    out.push((tuple.to_vec(), 1.0));
                }
            }
            ConfidenceMethod::MonteCarlo { .. } => {
                let coverage = estimator.confidence(&descs)?;
                if coverage >= threshold {
                    out.push((tuple.to_vec(), coverage));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::algebra::{oracle_certain, table};
    use crate::descriptor::WsDescriptor;
    use crate::normalize::normalize_urelations;
    use crate::translate::evaluate;
    use crate::udb::figure1_database;
    use crate::world::Var;
    use urel_relalg::{col, lit_str};

    fn w2() -> WorldTable {
        let mut w = WorldTable::new();
        w.add_var(Var(1), vec![0, 1]).unwrap();
        w.add_var(Var(2), vec![0, 1, 2]).unwrap();
        w
    }

    fn normalized_sample() -> URelation {
        let mut u = URelation::partition("u", ["a"]);
        // "always" appears under every value of x1.
        u.push_simple(
            WsDescriptor::singleton(Var(1), 0),
            1,
            vec![Value::str("always")],
        )
        .unwrap();
        u.push_simple(
            WsDescriptor::singleton(Var(1), 1),
            1,
            vec![Value::str("always")],
        )
        .unwrap();
        // "sometimes" appears only under x2 ↦ 0.
        u.push_simple(
            WsDescriptor::singleton(Var(2), 0),
            2,
            vec![Value::str("sometimes")],
        )
        .unwrap();
        // "top" has an empty descriptor: present everywhere.
        u.push_simple(WsDescriptor::empty(), 3, vec![Value::str("top")])
            .unwrap();
        u
    }

    #[test]
    fn direct_lemma_4_3() {
        let w = w2();
        let cert = certain_lemma43(&normalized_sample(), &w).unwrap();
        let expect = Relation::from_rows(
            ["a"],
            vec![vec![Value::str("always")], vec![Value::str("top")]],
        )
        .unwrap();
        assert!(cert.set_eq(&expect), "{cert}");
    }

    #[test]
    fn relational_and_direct_agree() {
        let w = w2();
        let u = normalized_sample();
        let direct = certain_lemma43(&u, &w).unwrap();
        let relational = certain_lemma43_relational(&u, &w).unwrap();
        assert!(direct.set_eq(&relational), "{direct} vs {relational}");
    }

    #[test]
    fn lemma_rejects_unnormalized() {
        let w = w2();
        let mut u = URelation::partition("u", ["a"]);
        u.push_simple(
            WsDescriptor::from_pairs([(Var(1), 0), (Var(2), 0)]).unwrap(),
            1,
            vec![Value::Int(1)],
        )
        .unwrap();
        assert!(certain_lemma43(&u, &w).is_err());
        assert!(certain_lemma43_relational(&u, &w).is_err());
    }

    #[test]
    fn exact_handles_cross_variable_coverage() {
        // "v" is present under x1↦0, and under x1↦1 for both values of x2…
        // …which covers everything, but no single variable witnesses it.
        let mut w = WorldTable::new();
        w.add_var(Var(1), vec![0, 1]).unwrap();
        w.add_var(Var(2), vec![0, 1]).unwrap();
        let mut u = URelation::partition("u", ["a"]);
        let d = |pairs: &[(u32, u64)]| {
            WsDescriptor::from_pairs(pairs.iter().map(|&(v, x)| (Var(v), x))).unwrap()
        };
        u.push_simple(d(&[(1, 0)]), 1, vec![Value::str("v")])
            .unwrap();
        u.push_simple(d(&[(1, 1), (2, 0)]), 1, vec![Value::str("v")])
            .unwrap();
        u.push_simple(d(&[(1, 1), (2, 1)]), 1, vec![Value::str("v")])
            .unwrap();
        let cert = certain_exact(&u, &w).unwrap();
        assert_eq!(cert.len(), 1);
        // Lemma 4.3 on the *normalized* form agrees: normalization fuses
        // x1 and x2 into one variable witnessing all four values.
        let n = normalize_urelations(&[&u], &w).unwrap();
        let via_lemma = certain_lemma43(&n.relations[0], &n.world).unwrap();
        assert!(via_lemma.set_eq(&cert));
    }

    #[test]
    fn end_to_end_certain_answers_match_oracle() {
        let db = figure1_database();
        // Faction of vehicle 1 is certainly Friend; query certain factions.
        let q = table("r").project(["faction"]);
        let got = certain_answers(&db, &q).unwrap();
        let want = oracle_certain(&q, &db, 64).unwrap();
        assert!(got.set_eq(&want), "{got} vs {want}");

        // Certain enemy-tank ids: none.
        let q = table("r")
            .select(Expr::and([
                col("type").eq(lit_str("Tank")),
                col("faction").eq(lit_str("Enemy")),
            ]))
            .project(["id"]);
        let got = certain_answers(&db, &q).unwrap();
        assert!(got.is_empty());

        // Certain ids: all four vehicles exist in every world.
        let q = table("r").project(["id"]);
        let got = certain_answers(&db, &q).unwrap();
        let want = oracle_certain(&q, &db, 64).unwrap();
        assert!(got.set_eq(&want));
        assert_eq!(got.len(), 4);
    }

    /// `r[a, b]` where tuple 1's `a` is certain but `b` is a partial
    /// or-set: defined under x1 ↦ 0 and x1 ↦ 1, undefined under x1 ↦ 2.
    pub(crate) fn partial_db() -> UDatabase {
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
        // Already reduced: every row completes in some world. The
        // partiality survives reduction — that is the whole problem.
        assert!(crate::reduce::is_reduced(&db).unwrap());
        db
    }

    #[test]
    fn partial_or_set_fields_get_exact_certain_answers() {
        let db = partial_db();
        assert!(db.has_partial_fields().unwrap());
        assert!(!figure1_database().has_partial_fields().unwrap());
        // In world x1 ↦ 2 tuple 1 has no `b` field and drops out, so its
        // `a` value is possible but not certain. The pruned translation
        // reads only `u_a` for this projection and would report {7}.
        let q = table("r").project(["a"]);
        let got = certain_answers(&db, &q).unwrap();
        assert!(got.is_empty(), "{got}");
        let want = oracle_certain(&q, &db, 64).unwrap();
        assert!(got.set_eq(&want), "{got} vs {want}");
    }

    /// The same probe through each exact entry point of one
    /// `PreparedDb`: `certain`, and both confidence methods.
    #[test]
    fn partial_fields_are_exact_on_every_entry_point() {
        let db = partial_db();
        let p = db.prepare();
        let q = table("r").project(["a"]);
        let got = p.certain(&q).unwrap();
        assert!(got.is_empty(), "{got}");
        let got = p
            .certain_with_confidence(&q, ConfidenceMethod::Exact)
            .unwrap();
        assert!(got.is_empty(), "{got:?}");
        // Tuple 1 exists under x1 ↦ 0 and x1 ↦ 1: two of three worlds.
        let got = p
            .possible_with_confidence(&q, ConfidenceMethod::Exact)
            .unwrap();
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, vec![Value::Int(7)]);
        assert!((got[0].1 - 2.0 / 3.0).abs() < 1e-12, "{got:?}");
    }

    #[test]
    fn partial_fields_past_12288_worlds_are_answered_exactly() {
        let mut db = partial_db();
        // Pad the world table: 12 extra binary variables make
        // 3 · 2¹² = 12288 worlds, three times the 4096 that world
        // expansion once capped `certain` at.
        for i in 0..12 {
            db.world.add_var(Var(100 + i), vec![0, 1]).unwrap();
        }
        for q in [table("r"), table("r").project(["a"])] {
            let got = certain_answers(&db, &q).unwrap();
            let (_, want) = crate::worldops::expand_answers(&db, &q, 12288).unwrap();
            assert!(got.set_eq(&want), "{q:?}: {got} vs {want}");
            assert!(got.is_empty(), "{got}");
        }
    }

    /// 4096 and 4097 worlds, either side of the old expansion cap, both
    /// answer exactly.
    #[test]
    fn expansion_cap_boundary_is_exact() {
        // `b` is partial (defined only under x1 ↦ 0).
        let partial_over = |world: WorldTable| {
            let mut db = UDatabase::new(world);
            db.add_relation("r", ["a", "b"]).unwrap();
            let mut ua = URelation::partition("u_a", ["a"]);
            ua.push_simple(WsDescriptor::empty(), 1, vec![Value::Int(7)])
                .unwrap();
            db.add_partition("r", ua).unwrap();
            let mut ub = URelation::partition("u_b", ["b"]);
            ub.push_simple(WsDescriptor::singleton(Var(1), 0), 1, vec![Value::Int(0)])
                .unwrap();
            db.add_partition("r", ub).unwrap();
            db.validate().unwrap();
            assert!(db.has_partial_fields().unwrap());
            db
        };

        // Exactly 4096 = 2¹² worlds: 12 binary variables.
        let mut w = WorldTable::new();
        for i in 0..12u32 {
            w.add_var(Var(1 + i), vec![0, 1]).unwrap();
        }
        let four_k = partial_over(w);
        // Exactly 4097 = 17 · 241 worlds.
        let mut w = WorldTable::new();
        w.add_var(Var(1), (0..17).collect()).unwrap();
        w.add_var(Var(2), (0..241).collect()).unwrap();
        let four_k_one = partial_over(w);

        let q = table("r").project(["a"]);
        for (db, worlds) in [(four_k, 4096), (four_k_one, 4097)] {
            assert_eq!(db.world.world_count_exact(), Some(worlds as u128));
            // In worlds with x1 ↦ 1 tuple 1 loses its `b` field, so
            // nothing is certain.
            let got = certain_answers(&db, &q).unwrap();
            assert!(got.is_empty(), "{worlds} worlds: {got}");
            let (_, want) = crate::worldops::expand_answers(&db, &q, worlds).unwrap();
            assert!(got.set_eq(&want), "{worlds} worlds: {got} vs {want}");
        }
    }

    /// `r[a, b]` stored as `u_a`, `u_b` and an overlapping `u_ab` that
    /// defines tuple 1 only under x1 ↦ 0, while `u_a` and `u_b` define
    /// its fields everywhere: tuple 1 is certain. A merge of the covering
    /// `u_ab` alone would place it in one world of three; the exact path
    /// reads each field from every partition that holds it.
    #[test]
    fn overlapping_partitions_are_exact_on_certain_and_confidence() {
        use ConfidenceMethod::Exact;
        let mut w = WorldTable::new();
        w.add_var(Var(1), vec![0, 1, 2]).unwrap();
        let mut db = UDatabase::new(w);
        db.add_relation("r", ["a", "b"]).unwrap();
        let mut u_ab = URelation::partition("u_ab", ["a", "b"]);
        let defined = WsDescriptor::singleton(Var(1), 0);
        u_ab.push_simple(defined, 1, vec![Value::Int(7), Value::Int(0)])
            .unwrap();
        db.add_partition("r", u_ab).unwrap();
        let mut u_a = URelation::partition("u_a", ["a"]);
        u_a.push_simple(WsDescriptor::empty(), 1, vec![Value::Int(7)])
            .unwrap();
        db.add_partition("r", u_a).unwrap();
        let mut u_b = URelation::partition("u_b", ["b"]);
        u_b.push_simple(WsDescriptor::empty(), 1, vec![Value::Int(0)])
            .unwrap();
        db.add_partition("r", u_b).unwrap();
        db.validate().unwrap();
        assert!(crate::reduce::is_reduced(&db).unwrap());
        assert_eq!(db.partial_relations().unwrap().len(), 1);

        let prepared = db.prepare();
        for q in [table("r"), table("r").project(["a"])] {
            let (_, want) = crate::worldops::expand_answers(&db, &q, 64).unwrap();
            assert_eq!(want.len(), 1);
            let got = prepared.certain(&q).unwrap();
            assert!(got.set_eq(&want), "{q:?}: {got} vs {want}");
            let got = prepared.certain_with_confidence(&q, Exact).unwrap();
            assert_eq!(got.len(), 1, "{q:?}: {got:?}");
            let got = prepared.possible_with_confidence(&q, Exact).unwrap();
            assert_eq!(got.len(), 1, "{q:?}: {got:?}");
            assert!((got[0].1 - 1.0).abs() < 1e-12, "{q:?}: {got:?}");
        }
    }

    #[test]
    fn exact_matches_oracle_on_figure1() {
        let db = figure1_database();
        let q = table("r").project(["id", "faction"]);
        let u = evaluate(&db, &q).unwrap();
        let got = certain_exact(&u, &db.world).unwrap();
        let want = oracle_certain(&q, &db, 64).unwrap();
        assert!(got.set_eq(&want), "{got} vs {want}");
    }
}
