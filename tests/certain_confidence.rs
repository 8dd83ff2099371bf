//! Cross-crate tests of certain answers and confidence computation on
//! realistic (generated) data — Lemma 4.3 and the Section 7 extension
//! working together on TPC-H query results, plus Hoeffding error-bound
//! coverage for the Monte-Carlo confidence estimator and its wiring
//! into the `possible` entry point.

use u_relations::core::certain::{
    certain_exact, certain_lemma43, certain_lemma43_relational, certain_with_coverage,
};
use u_relations::core::normalize::normalize_urelations;
use u_relations::core::prob::{
    confidence, confidence_monte_carlo, coverage_probability, tuple_confidences, ConfidenceMethod,
};
use u_relations::core::worldops::{condition_domain, repair_key};
use u_relations::core::{
    certain_with_confidence, evaluate, possible, possible_with_confidence, table, WsDescriptor,
};
use u_relations::relalg::{col, lit_i64, Relation, Value};
use u_relations::tpch::{generate, GenParams};

fn tiny() -> u_relations::core::UDatabase {
    let mut p = GenParams::paper(0.002, 0.05, 0.25);
    p.seed = 31;
    generate(&p).unwrap().db
}

#[test]
fn certain_pipeline_on_tpch_results() {
    let db = tiny();
    // Certain (o_orderkey) pairs of cheap orders: compare the three
    // implementations on the query result.
    let q = table("orders")
        .select(col("o_totalprice").lt(lit_i64(25_000_000)))
        .project(["o_orderkey"]);
    let u = evaluate(&db, &q).unwrap();
    let exact = certain_exact(&u, &db.world).unwrap();
    let n = normalize_urelations(&[&u], &db.world).unwrap();
    let direct = certain_lemma43(&n.relations[0], &n.world).unwrap();
    let relational = certain_lemma43_relational(&n.relations[0], &n.world).unwrap();
    assert!(direct.set_eq(&exact), "lemma vs exact");
    assert!(relational.set_eq(&exact), "relational lemma vs exact");
    // Certain answers are a subset of possible ones.
    let possible = u.possible_tuples();
    for row in exact.rows() {
        assert!(possible.rows().contains(row));
    }
}

#[test]
fn confidences_bound_certainty() {
    let db = tiny();
    let q = table("customer").project(["c_mktsegment"]);
    let u = evaluate(&db, &q).unwrap();
    let confs = tuple_confidences(&u, &db.world).unwrap();
    let certain = certain_exact(&u, &db.world).unwrap();
    for (vals, conf) in &confs {
        assert!((0.0..=1.0 + 1e-9).contains(conf));
        let is_certain = certain.rows().iter().any(|r| r.to_vec() == *vals);
        if is_certain {
            assert!((conf - 1.0).abs() < 1e-9, "certain tuple with conf {conf}");
        }
    }
    // Monte Carlo agrees with exact for one representative group.
    if let Some((vals, conf)) = confs.iter().find(|(_, c)| *c < 0.999) {
        let descs: Vec<_> = u
            .rows()
            .iter()
            .filter(|r| r.vals.to_vec() == *vals)
            .map(|r| r.desc.clone())
            .collect();
        let est = confidence_monte_carlo(&descs, &db.world, 20_000, 3).unwrap();
        assert!((est - conf).abs() < 0.03, "{est} vs {conf}");
    }
}

#[test]
fn monte_carlo_respects_hoeffding_bounds() {
    // By Hoeffding's inequality, n i.i.d. world samples estimate a
    // tuple confidence within ε = sqrt(ln(2/δ) / 2n) of the exact value
    // with probability ≥ 1 − δ. With n = 20 000 and δ = 10⁻⁶,
    // ε ≈ 0.019; the seeds are fixed, so a pass here is permanent and a
    // failure would mean the estimator (not the luck) is broken.
    use u_relations::core::{Var, WorldTable};
    let mut w = WorldTable::new();
    w.add_var(Var(1), vec![0, 1]).unwrap();
    w.add_var(Var(2), vec![0, 1, 2]).unwrap();
    w.add_var(Var(3), vec![0, 1]).unwrap();
    w.set_probabilities(Var(1), vec![0.9, 0.1]).unwrap();
    w.set_probabilities(Var(2), vec![0.5, 0.3, 0.2]).unwrap();

    let d = |pairs: &[(u32, u64)]| {
        WsDescriptor::from_pairs(pairs.iter().map(|&(v, x)| (Var(v), x))).unwrap()
    };
    let cases: Vec<Vec<WsDescriptor>> = vec![
        vec![d(&[(1, 0)])],
        vec![d(&[(1, 0)]), d(&[(2, 1)])],
        vec![d(&[(1, 1), (2, 0)]), d(&[(2, 2)]), d(&[(3, 1)])],
        vec![d(&[(1, 0), (2, 0), (3, 0)])],
    ];

    let samples = 20_000;
    let delta = 1e-6;
    let method = ConfidenceMethod::MonteCarlo { samples, seed: 0 };
    let eps = method.error_bound(delta);
    assert!((0.015..0.025).contains(&eps), "ε = {eps}");
    for descs in &cases {
        let exact = confidence(descs, &w).unwrap();
        for seed in [1u64, 42, 31337] {
            let est = confidence_monte_carlo(descs, &w, samples, seed).unwrap();
            assert!(
                (est - exact).abs() <= eps,
                "seed {seed}: |{est} − {exact}| > ε = {eps} for {descs:?}"
            );
        }
    }
    // Exact method reports a zero bound.
    assert_eq!(ConfidenceMethod::Exact.error_bound(delta), 0.0);
}

#[test]
fn possible_entry_point_supports_the_estimator() {
    // The estimator option is wired into `possible`: the answer set is
    // identical, and each tuple's Monte-Carlo confidence is within the
    // Hoeffding bound of the exact one.
    let db = tiny();
    let q = table("customer").project(["c_mktsegment"]);
    let answers = possible(&db, &q).unwrap();

    let exact = possible_with_confidence(&db, &q, ConfidenceMethod::Exact).unwrap();
    let method = ConfidenceMethod::MonteCarlo {
        samples: 20_000,
        seed: 7,
    };
    let estimated = possible_with_confidence(&db, &q, method).unwrap();
    let eps = method.error_bound(1e-6);

    // Same tuples in the same grouping order, confidences within ε.
    assert_eq!(exact.len(), estimated.len());
    assert_eq!(exact.len(), answers.len());
    for ((vals_e, conf_e), (vals_m, conf_m)) in exact.iter().zip(&estimated) {
        assert_eq!(vals_e, vals_m);
        assert!(
            (conf_e - conf_m).abs() <= eps,
            "{vals_e:?}: exact {conf_e} vs estimate {conf_m} (ε = {eps})"
        );
        assert!(answers.rows().iter().any(|r| r.to_vec() == *vals_e));
    }
    // Determinism: same seed, same estimates.
    let again = possible_with_confidence(&db, &q, method).unwrap();
    assert_eq!(estimated, again);
}

#[test]
fn certain_entry_point_supports_the_estimator() {
    // The certain twin of `possible_with_confidence`: exact coverage
    // checking reproduces the exact certain set, and the Monte-Carlo
    // coverage estimator reports the same tuples (within its Hoeffding
    // guarantee) with estimates within ε of 1.
    let db = tiny();
    let q = table("customer").project(["c_mktsegment"]);
    let u = evaluate(&db, &q).unwrap();
    let exact_set = certain_exact(&u, &db.world).unwrap();

    let via_exact = certain_with_confidence(&db, &q, ConfidenceMethod::Exact).unwrap();
    assert_eq!(via_exact.len(), exact_set.len());
    for (vals, coverage) in &via_exact {
        assert_eq!(*coverage, 1.0);
        assert!(exact_set.rows().iter().any(|r| r.to_vec() == *vals));
    }

    let method = ConfidenceMethod::MonteCarlo {
        samples: 20_000,
        seed: 11,
    };
    let eps = method.error_bound(1e-6);
    let via_mc = certain_with_confidence(&db, &q, method).unwrap();
    // Every truly certain tuple passes the 1 − ε threshold (fixed seed:
    // a pass here is permanent), with its estimate within ε of 1.
    for row in exact_set.rows() {
        let got = via_mc.iter().find(|(vals, _)| *vals == row.to_vec());
        let (_, coverage) = got.expect("certain tuple dropped by the estimator");
        assert!(*coverage >= 1.0 - eps);
    }
    // And no clearly-uncertain tuple (true coverage < 1 − 2ε) sneaks in.
    for (vals, coverage) in &via_mc {
        let descs: Vec<_> = u
            .rows()
            .iter()
            .filter(|r| r.vals.to_vec() == *vals)
            .map(|r| r.desc.clone())
            .collect();
        let true_cov = coverage_probability(&descs, &db.world, ConfidenceMethod::Exact).unwrap();
        assert!(
            true_cov >= 1.0 - 2.0 * eps,
            "{vals:?}: true coverage {true_cov} reported as certain ({coverage})"
        );
    }
    // Determinism: same seed, same report.
    assert_eq!(via_mc, certain_with_confidence(&db, &q, method).unwrap());
}

#[test]
fn coverage_estimates_respect_hoeffding_bounds() {
    // Coverage probability is the certain-side quantity: compare the
    // Monte-Carlo estimate against the exact Shannon expansion under
    // the same ε bound used for `possible` confidences.
    use u_relations::core::{Var, WorldTable};
    let mut w = WorldTable::new();
    w.add_var(Var(1), vec![0, 1]).unwrap();
    w.add_var(Var(2), vec![0, 1, 2]).unwrap();

    let d = |pairs: &[(u32, u64)]| {
        WsDescriptor::from_pairs(pairs.iter().map(|&(v, x)| (Var(v), x))).unwrap()
    };
    let full_cover = vec![d(&[(1, 0)]), d(&[(1, 1)])]; // coverage 1
    let partial = vec![d(&[(1, 0)]), d(&[(2, 1)])]; // coverage 2/3 + 1/3·1/2...
    let samples = 20_000;
    let method = ConfidenceMethod::MonteCarlo { samples, seed: 0 };
    let eps = method.error_bound(1e-6);
    for descs in [&full_cover, &partial] {
        let exact = coverage_probability(descs, &w, ConfidenceMethod::Exact).unwrap();
        for seed in [2u64, 77, 4096] {
            let est =
                coverage_probability(descs, &w, ConfidenceMethod::MonteCarlo { samples, seed })
                    .unwrap();
            assert!(
                (est - exact).abs() <= eps,
                "seed {seed}: |{est} − {exact}| > ε = {eps}"
            );
        }
    }
    // certain_with_coverage on a hand-built U-relation: the covered
    // tuple is reported, the partial one is not.
    let mut u = u_relations::core::URelation::partition("u", ["a"]);
    u.push_simple(full_cover[0].clone(), 1, vec![Value::Int(7)])
        .unwrap();
    u.push_simple(full_cover[1].clone(), 2, vec![Value::Int(7)])
        .unwrap();
    u.push_simple(partial[0].clone(), 3, vec![Value::Int(8)])
        .unwrap();
    u.push_simple(partial[1].clone(), 4, vec![Value::Int(8)])
        .unwrap();
    let got = certain_with_coverage(&u, &w, method, 1e-6).unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0, vec![Value::Int(7)]);
    let exact_side = certain_with_coverage(&u, &w, ConfidenceMethod::Exact, 1e-6).unwrap();
    assert_eq!(exact_side, vec![(vec![Value::Int(7)], 1.0)]);
}

#[test]
fn repair_key_then_query_then_condition() {
    // The full world-ops lifecycle on a small relation: create
    // uncertainty with REPAIR KEY, query it, then condition it away.
    let input = Relation::from_rows(
        ["city", "population", "w"],
        vec![
            vec![Value::str("berlin"), Value::Int(3_500_000), Value::Int(2)],
            vec![Value::str("berlin"), Value::Int(3_700_000), Value::Int(6)],
            vec![Value::str("paris"), Value::Int(2_100_000), Value::Int(1)],
        ],
    )
    .unwrap();
    let db = repair_key("cities", &input, &["city"], Some("w")).unwrap();
    assert_eq!(db.world.world_count_exact(), Some(2));

    let pops = evaluate(&db, &table("cities").project(["population"])).unwrap();
    let confs = tuple_confidences(&pops, &db.world).unwrap();
    let p37 = confs
        .iter()
        .find(|(v, _)| v[0] == Value::Int(3_700_000))
        .unwrap()
        .1;
    assert!((p37 - 0.75).abs() < 1e-9);

    // Conditioning on the higher reading leaves one world.
    let var = db.world.vars().next().unwrap();
    let confirmed = condition_domain(&db, var, &[1]).unwrap();
    assert_eq!(confirmed.world.world_count_exact(), Some(1));
    let pops = evaluate(&confirmed, &table("cities").project(["population"])).unwrap();
    let cert = certain_exact(&pops, &confirmed.world).unwrap();
    assert!(cert.rows().iter().any(|r| r[0] == Value::Int(3_700_000)));
}

#[test]
fn repair_key_on_generated_duplicates() {
    // Derive a key-violating relation from generated TPC-H data: project
    // customer onto (c_nationkey, c_mktsegment) and repair the nation key
    // — every nation ends up with exactly one possible segment.
    let db = tiny();
    let q = table("customer").project(["c_nationkey", "c_mktsegment"]);
    let u = evaluate(&db, &q).unwrap();
    let dirty = u.possible_tuples();
    let repaired = repair_key("pref", &dirty, &["c_nationkey"], None).unwrap();
    for (_, inst) in repaired
        .possible_worlds(1 << 12)
        .unwrap_or_default()
        .into_iter()
        .take(3)
    {
        let r = &inst["pref"];
        let mut keys: Vec<i64> = r.rows().iter().map(|x| x[0].as_int().unwrap()).collect();
        keys.sort_unstable();
        let n = keys.len();
        keys.dedup();
        assert_eq!(n, keys.len(), "key must be unique per world");
    }
}

// ---------------------------------------------------------------------------
// Bit identity of the Monte-Carlo estimator against a per-group reference
// ---------------------------------------------------------------------------

mod sampler_bits {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::BTreeMap;
    use u_relations::core::certain::certain_with_coverage;
    use u_relations::core::prob::{
        confidence_monte_carlo, tuple_confidences_with, ConfidenceMethod,
    };
    use u_relations::core::{URelation, Var, WorldTable, WsDescriptor};
    use u_relations::relalg::Value;

    /// Distinct answer values; the rows of value `k` mention only
    /// variables `k + 1 ..= k + WINDOW`, so groups hold 1–4 variables and
    /// neighbouring groups share some.
    const VALUES: u32 = 6;
    const WINDOW: u32 = 4;

    fn cases(default: u32) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// The per-group sampler: every group restarts the stream at `seed`
    /// and draws each of its variables, in ascending order, from one
    /// `next_u64` word per sample, with the `rand` shim's mapping
    /// (`word % n` for a uniform world, the inverse CDF at
    /// `(word >> 11)·2⁻⁵³` for a probabilistic one). Written over raw
    /// words, it pins the estimator under any `rand` implementation.
    fn reference(descs: &[&WsDescriptor], w: &WorldTable, samples: usize, seed: u64) -> f64 {
        if descs.iter().any(|d| d.is_empty()) {
            return 1.0;
        }
        if descs.is_empty() || samples == 0 {
            return 0.0;
        }
        let mut vars: Vec<Var> = descs.iter().flat_map(|d| d.vars()).collect();
        vars.sort_unstable();
        vars.dedup();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hits = 0usize;
        for _ in 0..samples {
            let mut assignment: BTreeMap<Var, u64> = BTreeMap::new();
            for &v in &vars {
                let dom = w.domain(v).unwrap();
                let word = rng.next_u64();
                let val = if w.is_probabilistic() {
                    let mut u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                    let mut chosen = dom[dom.len() - 1];
                    for &d in dom {
                        let p = w.prob(v, d).unwrap();
                        if u < p {
                            chosen = d;
                            break;
                        }
                        u -= p;
                    }
                    chosen
                } else {
                    dom[(word as u128 % dom.len() as u128) as usize]
                };
                assignment.insert(v, val);
            }
            if descs
                .iter()
                .any(|d| d.iter().all(|&(v, val)| assignment.get(&v) == Some(&val)))
            {
                hits += 1;
            }
        }
        hits as f64 / samples as f64
    }

    /// `VALUES + WINDOW` variables with 1–3 domain values each (not
    /// `0..n`, so values and domain indices differ). In a probabilistic
    /// world every other variable carries explicit weights and the rest
    /// stay uniform.
    fn arb_world() -> impl Strategy<Value = WorldTable> {
        let var = (1u64..=3, prop::collection::vec(1u32..=9, 3));
        (
            prop::collection::vec(var, (VALUES + WINDOW) as usize),
            any::<bool>(),
        )
            .prop_map(|(vars, probabilistic)| {
                let mut w = WorldTable::new();
                for (i, (len, weights)) in vars.into_iter().enumerate() {
                    let v = Var(i as u32 + 1);
                    w.add_var(v, (0..len).map(|x| 3 * x + 1).collect()).unwrap();
                    if probabilistic && i % 2 == 0 {
                        let weights = &weights[..len as usize];
                        let total: u32 = weights.iter().sum();
                        let probs = weights.iter().map(|&x| x as f64 / total as f64);
                        w.set_probabilities(v, probs.collect()).unwrap();
                    }
                }
                w
            })
    }

    /// Rows `(value, window offset ↦ domain position, duplicated?)`; an
    /// empty map is a ⊤ row.
    type Row = (u32, BTreeMap<u32, u64>, bool);

    fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
        let row = (
            0..VALUES,
            prop::collection::btree_map(0..WINDOW, 0u64..8, 0..=2),
            any::<bool>(),
        );
        prop::collection::vec(row, 1..=16)
    }

    fn relation(rows: &[Row], w: &WorldTable) -> URelation {
        let mut u = URelation::partition("u", ["a"]);
        let mut tid = 0;
        for (k, entries, duplicated) in rows {
            let desc = WsDescriptor::from_pairs(entries.iter().map(|(&off, &pos)| {
                let v = Var(k + off + 1);
                let dom = w.domain(v).unwrap();
                (v, dom[pos as usize % dom.len()])
            }))
            .unwrap();
            for _ in 0..=usize::from(*duplicated) {
                tid += 1;
                u.push_simple(desc.clone(), tid, vec![Value::Int(*k as i64)])
                    .unwrap();
            }
        }
        u
    }

    fn groups(u: &URelation) -> BTreeMap<Vec<Value>, Vec<&WsDescriptor>> {
        let mut groups: BTreeMap<Vec<Value>, Vec<&WsDescriptor>> = BTreeMap::new();
        for row in u.rows() {
            groups.entry(row.vals.to_vec()).or_default().push(&row.desc);
        }
        groups
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases(64)))]

        /// `tuple_confidences_with`, `certain_with_coverage` (threshold
        /// included) and `confidence_monte_carlo` return, bit for bit,
        /// what the per-group reference sampler returns.
        #[test]
        fn monte_carlo_matches_the_per_group_sampler_bit_for_bit(
            w in arb_world(),
            rows in arb_rows(),
            samples in prop_oneof![Just(1usize), Just(2), Just(7), Just(1000), Just(4097)],
            seed in prop_oneof![Just(0u64), Just(0xC0FF_1DE5), any::<u64>()],
            delta in prop_oneof![Just(1e-6), Just(0.5)],
        ) {
            let u = relation(&rows, &w);
            let method = ConfidenceMethod::MonteCarlo { samples, seed };
            let want: Vec<(Vec<Value>, f64)> = groups(&u)
                .into_iter()
                .map(|(vals, descs)| (vals, reference(&descs, &w, samples, seed)))
                .collect();
            let bits = |rows: &[(Vec<Value>, f64)]| -> Vec<(Vec<Value>, u64)> {
                rows.iter().map(|(t, p)| (t.clone(), p.to_bits())).collect()
            };

            let got = tuple_confidences_with(&u, &w, method).unwrap();
            prop_assert_eq!(bits(&got), bits(&want));

            let threshold = 1.0 - method.error_bound(delta);
            let want_certain: Vec<(Vec<Value>, f64)> =
                want.iter().filter(|(_, p)| *p >= threshold).cloned().collect();
            let got = certain_with_coverage(&u, &w, method, delta).unwrap();
            prop_assert_eq!(bits(&got), bits(&want_certain));

            for (descs, (_, p)) in groups(&u).values().zip(&want) {
                let owned: Vec<WsDescriptor> = descs.iter().map(|d| (*d).clone()).collect();
                let got = confidence_monte_carlo(&owned, &w, samples, seed).unwrap();
                prop_assert_eq!(got.to_bits(), p.to_bits());
            }
        }
    }
}
