//! Uncertainty-*creating* and world-manipulation constructs — the
//! "support for new language constructs" direction of Section 7,
//! following the companion paper \[5\] (Antova, Koch, Olteanu, SIGMOD 2007:
//! "From Complete to Incomplete Information and Back") and MayBMS.
//!
//! * [`repair_key`] — the `REPAIR KEY` primitive: given a complete
//!   relation and a (possibly violated) key, create one world per maximal
//!   consistent repair: each key group becomes a choice-of-one, encoded
//!   with one fresh variable per multi-tuple group (worlds multiply
//!   across groups). With a weight column the choices become
//!   probabilistic, weights normalized per group.
//! * [`condition_domain`] — world removal: restrict a variable's domain
//!   (e.g. after cleaning confirms some readings impossible), renormalize
//!   probabilities, and reduce away the dead rows.
//! * [`expand_answers`] — the naive expand-all-worlds oracle: every
//!   world is materialized and queried separately (through the retained
//!   reference engine), giving ground-truth possible/certain answers
//!   that the differential test harness checks the streaming translated
//!   path against.

use crate::algebra::UQuery;
use crate::error::{Error, Result};
use crate::reduce::reduce;
use crate::udb::UDatabase;
use crate::urelation::URelation;
use crate::world::{Var, WorldTable};
use crate::WsDescriptor;
use std::collections::{BTreeMap, BTreeSet};
use urel_relalg::{exec, Catalog, ColRef, Expr, Plan, Relation, Row, Schema, Value};

/// `REPAIR KEY key_attrs IN rel [WEIGHT BY weight_attr]`.
///
/// Builds a U-relational database whose worlds are exactly the maximal
/// repairs of the key constraint: per key group, one tuple survives.
/// The weight column (if given) must hold positive integers; it is
/// consumed (not part of the output schema) and induces the probability
/// distribution of each group's choice.
pub fn repair_key(
    rel_name: &str,
    input: &Relation,
    key_attrs: &[&str],
    weight_attr: Option<&str>,
) -> Result<UDatabase> {
    let schema = input.schema();
    let key_idx: Vec<usize> = key_attrs
        .iter()
        .map(|a| schema.resolve_name(a).map_err(Error::from))
        .collect::<Result<_>>()?;
    let weight_idx = weight_attr
        .map(|a| schema.resolve_name(a).map_err(Error::from))
        .transpose()?;

    // Output attributes: all but the weight column.
    let out_cols: Vec<(usize, String)> = schema
        .columns()
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != weight_idx)
        .map(|(i, c)| (i, c.to_string()))
        .collect();

    // Group by key value.
    let mut groups: BTreeMap<Vec<Value>, Vec<&urel_relalg::Row>> = BTreeMap::new();
    for row in input.rows() {
        let key: Vec<Value> = key_idx.iter().map(|&i| row[i].clone()).collect();
        groups.entry(key).or_default().push(row);
    }

    let mut world = WorldTable::new();
    let mut db_rows: Vec<(WsDescriptor, Vec<Value>)> = Vec::new();
    for (_key, rows) in groups {
        if rows.len() == 1 {
            let vals: Vec<Value> = out_cols.iter().map(|(i, _)| rows[0][*i].clone()).collect();
            db_rows.push((WsDescriptor::empty(), vals));
            continue;
        }
        let var = world.fresh_var(rows.len() as u64)?;
        if let Some(wi) = weight_idx {
            let weights: Vec<f64> = rows
                .iter()
                .map(|r| {
                    r[wi]
                        .as_int()
                        .filter(|w| *w > 0)
                        .map(|w| w as f64)
                        .ok_or_else(|| {
                            Error::InvalidQuery(format!(
                                "weight must be a positive integer, got {}",
                                r[wi]
                            ))
                        })
                })
                .collect::<Result<_>>()?;
            let total: f64 = weights.iter().sum();
            world.set_probabilities(var, weights.iter().map(|w| w / total).collect())?;
        }
        for (l, row) in rows.iter().enumerate() {
            let vals: Vec<Value> = out_cols.iter().map(|(i, _)| row[*i].clone()).collect();
            db_rows.push((WsDescriptor::singleton(var, l as u64), vals));
        }
    }

    let mut db = UDatabase::new(world);
    let attrs: Vec<String> = out_cols.iter().map(|(_, c)| c.clone()).collect();
    db.add_relation(rel_name, attrs.clone())?;
    let mut u = URelation::partition(format!("u_{rel_name}"), attrs);
    for (tid, (desc, vals)) in db_rows.into_iter().enumerate() {
        u.push_simple(desc, tid as i64 + 1, vals)?;
    }
    db.add_partition(rel_name, u)?;
    db.validate()?;
    Ok(db)
}

/// Remove worlds by restricting a variable's domain to `allowed`.
/// Probabilities (if any) are renormalized over the surviving values;
/// rows guarded by removed values are deleted and the database reduced.
pub fn condition_domain(db: &UDatabase, var: Var, allowed: &[u64]) -> Result<UDatabase> {
    let dom = db.world.domain(var)?.to_vec();
    let keep: Vec<u64> = dom
        .iter()
        .copied()
        .filter(|v| allowed.contains(v))
        .collect();
    if keep.is_empty() {
        return Err(Error::InvalidQuery(format!(
            "conditioning would empty the domain of {var}"
        )));
    }

    // Rebuild the world table with the restricted domain.
    let mut world = WorldTable::new();
    for v in db.world.vars() {
        let d = if v == var {
            keep.clone()
        } else {
            db.world.domain(v)?.to_vec()
        };
        world.add_var(v, d.clone())?;
        if db.world.is_probabilistic() {
            let raw: Vec<f64> = d
                .iter()
                .map(|&val| db.world.prob(v, val))
                .collect::<Result<_>>()?;
            let total: f64 = raw.iter().sum();
            if total <= 0.0 {
                return Err(Error::InvalidQuery(format!(
                    "conditioning leaves {v} with zero probability mass"
                )));
            }
            world.set_probabilities(v, raw.iter().map(|p| p / total).collect())?;
        }
    }

    // Copy relations, dropping rows that require removed values.
    let mut out = UDatabase::new(world);
    for rel in db.relations().map(str::to_string).collect::<Vec<_>>() {
        out.add_relation(&rel, db.attrs(&rel)?.to_vec())?;
        for p in db.partitions_of(&rel)? {
            let mut np = URelation::new(
                p.name.clone(),
                p.tid_cols().to_vec(),
                p.value_cols().to_vec(),
            );
            for row in p.rows() {
                let dead = row.desc.get(var).is_some_and(|val| !keep.contains(&val));
                if !dead {
                    np.push(row.clone())?;
                }
            }
            out.add_partition(&rel, np)?;
        }
    }
    reduce(&mut out)?;
    Ok(out)
}

/// The naive expand-all-worlds oracle: enumerate every possible world,
/// materialize its instance, run the query per world on the relational
/// engine's retained operator-at-a-time path
/// ([`urel_relalg::exec::execute_reference`]), and combine — union for
/// the possible answers, intersection for the certain ones.
///
/// Exponential in the number of variables (`limit` caps the world
/// count), but entirely independent of the `[[·]]` translation, the
/// optimizer and the streaming executor: this is the ground truth the
/// differential test harness pins those components against, in the
/// spirit of UADB-style certain-answer oracle checks.
pub fn expand_answers(udb: &UDatabase, q: &UQuery, limit: usize) -> Result<(Relation, Relation)> {
    let attrs = q.attrs(udb)?;
    let plan = world_plan(udb, q, limit)?;
    let mut possible = Relation::empty(Schema::new(attrs.clone()));
    let mut certain: Option<BTreeSet<Row>> = None;
    for f in udb.world.worlds(limit)? {
        let inst = udb.instantiate(&f)?;
        let mut cat = Catalog::new();
        for (name, rel) in inst {
            cat.insert(name, rel);
        }
        let out = exec::execute_reference(&plan, &cat).map_err(Error::from)?;
        let set: BTreeSet<Row> = out.rows().iter().cloned().collect();
        for row in &set {
            possible.push(row.to_vec())?;
        }
        certain = Some(match certain {
            None => set,
            Some(prev) => prev.intersection(&set).cloned().collect(),
        });
    }
    possible.dedup_in_place();
    let mut cert = Relation::empty(Schema::new(attrs));
    for row in certain.unwrap_or_default() {
        cert.push(row.to_vec())?;
    }
    Ok((possible, cert))
}

/// Compile a logical query into the plain per-world plan the classical
/// semantics prescribes: tables scan the world instance, projections and
/// unions deduplicate (set semantics), and a nested `poss` folds to an
/// inline relation (its value is the same in every world).
fn world_plan(udb: &UDatabase, q: &UQuery, limit: usize) -> Result<Plan> {
    Ok(match q {
        UQuery::Table { rel, alias } => {
            let scan = Plan::scan(rel.clone());
            match alias {
                Some(a) => scan.rename(a.clone()),
                None => scan,
            }
        }
        UQuery::Select { input, pred } => world_plan(udb, input, limit)?.select(pred.clone()),
        UQuery::Project { input, attrs } => {
            let out_attrs = q.attrs(udb)?;
            let cols: Vec<(Expr, ColRef)> = attrs
                .iter()
                .zip(out_attrs)
                .map(|(a, out)| (Expr::Col(ColRef::parse(a)), out))
                .collect();
            world_plan(udb, input, limit)?.project(cols).distinct()
        }
        UQuery::Join { left, right, pred } => {
            world_plan(udb, left, limit)?.join(world_plan(udb, right, limit)?, pred.clone())
        }
        UQuery::Union { left, right } => world_plan(udb, left, limit)?
            .union(world_plan(udb, right, limit)?)
            .distinct(),
        UQuery::Poss { input } => {
            // poss(Q) is world-invariant: expand it once, inline the
            // (already deduplicated) answer set.
            let (poss, _) = expand_answers(udb, input, limit)?;
            Plan::values(poss)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{oracle_certain, oracle_possible, table};
    use crate::prob::tuple_confidences;
    use crate::translate::evaluate;

    fn dirty() -> Relation {
        // Key ssn violated: two candidate names for ssn 1, three for 2.
        Relation::from_rows(
            ["ssn", "name", "w"],
            vec![
                vec![Value::Int(1), Value::str("ann"), Value::Int(3)],
                vec![Value::Int(1), Value::str("anne"), Value::Int(1)],
                vec![Value::Int(2), Value::str("bob"), Value::Int(1)],
                vec![Value::Int(2), Value::str("rob"), Value::Int(1)],
                vec![Value::Int(2), Value::str("bobby"), Value::Int(2)],
                vec![Value::Int(3), Value::str("carla"), Value::Int(9)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn repair_key_enumerates_all_repairs() {
        let db = repair_key("person", &dirty(), &["ssn"], None).unwrap();
        // 2 × 3 repairs; the singleton group adds no worlds.
        assert_eq!(db.world.world_count_exact(), Some(6));
        for (_, inst) in db.possible_worlds(16).unwrap() {
            let r = &inst["person"];
            assert_eq!(r.len(), 3, "every repair keeps one tuple per key");
            // Key uniqueness holds in every world.
            let mut keys: Vec<i64> = r
                .rows()
                .iter()
                .map(|row| row[0].as_int().unwrap())
                .collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), 3);
        }
        // Without a weight column nothing is consumed: all three
        // attributes survive.
        assert_eq!(
            db.attrs("person").unwrap(),
            ["ssn", "name", "w"].map(String::from)
        );
        // With one, it is dropped from the schema.
        let weighted = repair_key("person", &dirty(), &["ssn"], Some("w")).unwrap();
        assert_eq!(
            weighted.attrs("person").unwrap(),
            ["ssn", "name"].map(String::from)
        );
    }

    #[test]
    fn repair_key_with_weights_is_probabilistic() {
        let db = repair_key("person", &dirty(), &["ssn"], Some("w")).unwrap();
        assert!(db.world.is_probabilistic());
        let names = evaluate(&db, &table("person").project(["name"])).unwrap();
        let confs: BTreeMap<String, f64> = tuple_confidences(&names, &db.world)
            .unwrap()
            .into_iter()
            .map(|(v, c)| (v[0].to_string(), c))
            .collect();
        assert!((confs["ann"] - 0.75).abs() < 1e-9);
        assert!((confs["anne"] - 0.25).abs() < 1e-9);
        assert!((confs["bobby"] - 0.5).abs() < 1e-9);
        assert!((confs["carla"] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn conditioning_removes_worlds_and_rows() {
        let db = repair_key("person", &dirty(), &["ssn"], Some("w")).unwrap();
        // Find the variable of the ssn=2 group (domain size 3).
        let var = db
            .world
            .vars()
            .find(|v| db.world.domain(*v).unwrap().len() == 3)
            .unwrap();
        // An auditor rules out "rob" (value 1).
        let cleaned = condition_domain(&db, var, &[0, 2]).unwrap();
        assert_eq!(cleaned.world.world_count_exact(), Some(4));
        let poss = oracle_possible(&table("person").project(["name"]), &cleaned, 16).unwrap();
        assert!(!poss.rows().iter().any(|r| r[0] == Value::str("rob")));
        // Probabilities renormalized: bob 1/(1+2), bobby 2/3.
        let names = evaluate(&cleaned, &table("person").project(["name"])).unwrap();
        let confs: BTreeMap<String, f64> = tuple_confidences(&names, &cleaned.world)
            .unwrap()
            .into_iter()
            .map(|(v, c)| (v[0].to_string(), c))
            .collect();
        assert!((confs["bob"] - 1.0 / 3.0).abs() < 1e-9);
        assert!((confs["bobby"] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn conditioning_guards() {
        let db = repair_key("person", &dirty(), &["ssn"], None).unwrap();
        let var = db.world.vars().next().unwrap();
        assert!(condition_domain(&db, var, &[]).is_err());
        assert!(condition_domain(&db, Var(99), &[0]).is_err());
    }

    #[test]
    fn expand_answers_matches_the_handwritten_oracle() {
        use crate::udb::figure1_database;
        use urel_relalg::{col, lit_str};
        let db = figure1_database();
        let queries = vec![
            table("r").project(["id"]),
            table("r")
                .select(Expr::and([
                    col("type").eq(lit_str("Tank")),
                    col("faction").eq(lit_str("Enemy")),
                ]))
                .project(["id"]),
            table("r").project(["faction"]),
            table("r")
                .select(col("faction").eq(lit_str("Enemy")))
                .project(["id"])
                .poss()
                .select(col("id").gt(urel_relalg::lit_i64(2))),
        ];
        for q in queries {
            let (poss, cert) = expand_answers(&db, &q, 64).unwrap();
            let want_poss = oracle_possible(&q, &db, 64).unwrap();
            let want_cert = oracle_certain(&q, &db, 64).unwrap();
            assert!(poss.set_eq(&want_poss), "possible mismatch for {q:?}");
            assert!(cert.set_eq(&want_cert), "certain mismatch for {q:?}");
        }
    }

    #[test]
    fn expand_answers_handles_self_joins() {
        use crate::algebra::table_as;
        use crate::udb::figure1_database;
        use urel_relalg::{col, lit_str};
        let db = figure1_database();
        let s1 = table_as("r", "s1").select(Expr::and([
            col("s1.type").eq(lit_str("Tank")),
            col("s1.faction").eq(lit_str("Enemy")),
        ]));
        let s2 = table_as("r", "s2").select(Expr::and([
            col("s2.type").eq(lit_str("Tank")),
            col("s2.faction").eq(lit_str("Enemy")),
        ]));
        let q = s1
            .join(s2, col("s1.id").ne(col("s2.id")))
            .project(["s1.id", "s2.id"]);
        let (poss, cert) = expand_answers(&db, &q, 64).unwrap();
        assert!(poss.set_eq(&oracle_possible(&q, &db, 64).unwrap()));
        assert!(cert.set_eq(&oracle_certain(&q, &db, 64).unwrap()));
        assert_eq!(poss.len(), 4); // the paper's U5
    }

    #[test]
    fn repair_key_validates_weights() {
        let bad = Relation::from_rows(
            ["k", "w"],
            vec![
                vec![Value::Int(1), Value::Int(0)],
                vec![Value::Int(1), Value::Int(2)],
            ],
        )
        .unwrap();
        assert!(repair_key("r", &bad, &["k"], Some("w")).is_err());
    }
}
