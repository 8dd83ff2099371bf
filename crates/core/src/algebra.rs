//! The logical query language: positive relational algebra + `poss`
//! (Section 3), and its *possible-worlds* reference semantics.
//!
//! [`oracle_possible`] / [`oracle_certain`] evaluate a query by literally
//! enumerating every world and running the query in each — exponential,
//! but the ground truth that the efficient translation of
//! [`crate::translate()`] is tested against.

use crate::error::{Error, Result};
use crate::udb::UDatabase;
use crate::world::Valuation;
use std::collections::BTreeSet;
use urel_relalg::{ColRef, Expr, Relation, Row, Schema};

/// A positive relational algebra query with `poss`, over the logical
/// schema of a [`UDatabase`].
#[derive(Clone, Debug, PartialEq)]
pub enum UQuery {
    /// A logical relation, optionally aliased (required for self-joins;
    /// attributes are then referenced as `alias.attr`).
    Table { rel: String, alias: Option<String> },
    /// σ — predicate over value attributes.
    Select { input: Box<UQuery>, pred: Expr },
    /// π — keep the listed attributes.
    Project {
        input: Box<UQuery>,
        attrs: Vec<String>,
    },
    /// ⋈ — theta-join; the two sides must have disjoint attribute names.
    Join {
        left: Box<UQuery>,
        right: Box<UQuery>,
        pred: Expr,
    },
    /// ∪ — union of two queries with equal attribute names.
    Union {
        left: Box<UQuery>,
        right: Box<UQuery>,
    },
    /// `poss` — close the possible-worlds semantics: the set of tuples
    /// possible in *some* world.
    Poss { input: Box<UQuery> },
}

/// Leaf constructor.
pub fn table(rel: impl Into<String>) -> UQuery {
    UQuery::Table {
        rel: rel.into(),
        alias: None,
    }
}

/// Aliased leaf constructor (`R AS s1`).
pub fn table_as(rel: impl Into<String>, alias: impl Into<String>) -> UQuery {
    UQuery::Table {
        rel: rel.into(),
        alias: Some(alias.into()),
    }
}

impl UQuery {
    /// σ builder.
    pub fn select(self, pred: Expr) -> UQuery {
        UQuery::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// π builder.
    pub fn project<S: Into<String>>(self, attrs: impl IntoIterator<Item = S>) -> UQuery {
        UQuery::Project {
            input: Box::new(self),
            attrs: attrs.into_iter().map(Into::into).collect(),
        }
    }

    /// ⋈ builder.
    pub fn join(self, right: UQuery, pred: Expr) -> UQuery {
        UQuery::Join {
            left: Box::new(self),
            right: Box::new(right),
            pred,
        }
    }

    /// ∪ builder.
    pub fn union(self, right: UQuery) -> UQuery {
        UQuery::Union {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// `poss` builder.
    pub fn poss(self) -> UQuery {
        UQuery::Poss {
            input: Box::new(self),
        }
    }

    /// The output attributes (display identities) of this query.
    pub fn attrs(&self, udb: &UDatabase) -> Result<Vec<ColRef>> {
        match self {
            UQuery::Table { rel, alias } => Ok(udb
                .attrs(rel)?
                .iter()
                .map(|a| match alias {
                    Some(q) => ColRef::qualified(q, a),
                    None => ColRef::new(a),
                })
                .collect()),
            UQuery::Select { input, .. } | UQuery::Poss { input } => input.attrs(udb),
            UQuery::Project { input, attrs } => {
                let inner = input.attrs(udb)?;
                attrs
                    .iter()
                    .map(|a| {
                        let r = ColRef::parse(a);
                        let matches: Vec<&ColRef> =
                            inner.iter().filter(|c| c.matches(&r)).collect();
                        match matches.len() {
                            1 => Ok(matches[0].clone()),
                            0 => Err(Error::InvalidQuery(format!(
                                "projection attribute `{a}` not found"
                            ))),
                            _ => Err(Error::InvalidQuery(format!(
                                "projection attribute `{a}` is ambiguous"
                            ))),
                        }
                    })
                    .collect()
            }
            UQuery::Join { left, right, .. } => {
                let mut l = left.attrs(udb)?;
                let r = right.attrs(udb)?;
                for c in &r {
                    if l.iter().any(|d| d == c) {
                        return Err(Error::InvalidQuery(format!(
                            "join sides share attribute `{c}`; alias one side"
                        )));
                    }
                }
                l.extend(r);
                Ok(l)
            }
            UQuery::Union { left, right } => {
                let l = left.attrs(udb)?;
                let r = right.attrs(udb)?;
                if l.len() != r.len() || l.iter().zip(&r).any(|(a, b)| a.name != b.name) {
                    return Err(Error::InvalidQuery(
                        "union sides must have equal attribute names".into(),
                    ));
                }
                Ok(l)
            }
        }
    }

    /// Count the relational operators (leaves excluded) — used to verify
    /// the parsimonious-translation claim.
    pub fn op_count(&self) -> usize {
        match self {
            UQuery::Table { .. } => 0,
            UQuery::Select { input, .. }
            | UQuery::Project { input, .. }
            | UQuery::Poss { input } => 1 + input.op_count(),
            UQuery::Join { left, right, .. } | UQuery::Union { left, right } => {
                1 + left.op_count() + right.op_count()
            }
        }
    }

    /// Number of ⋈ operators in the query.
    pub fn join_ops(&self) -> usize {
        match self {
            UQuery::Table { .. } => 0,
            UQuery::Select { input, .. }
            | UQuery::Project { input, .. }
            | UQuery::Poss { input } => input.join_ops(),
            UQuery::Join { left, right, .. } => 1 + left.join_ops() + right.join_ops(),
            UQuery::Union { left, right } => left.join_ops() + right.join_ops(),
        }
    }
}

/// Evaluate a query inside one world, per the classical semantics.
/// `limit` bounds the world enumeration triggered by nested `poss`.
pub fn oracle_eval(q: &UQuery, udb: &UDatabase, f: &Valuation, limit: usize) -> Result<Relation> {
    match q {
        UQuery::Table { rel, alias } => {
            let inst = udb.instantiate(f)?;
            let r = inst
                .get(rel.as_str())
                .ok_or_else(|| Error::InvalidQuery(format!("unknown relation `{rel}`")))?
                .clone();
            Ok(match alias {
                Some(a) => {
                    let s = r.schema().qualify(a);
                    r.with_schema(s)?
                }
                None => r,
            })
        }
        UQuery::Select { input, pred } => {
            let rel = oracle_eval(input, udb, f, limit)?;
            let compiled = pred.compile(rel.schema())?;
            let rows: Vec<Row> = rel
                .rows()
                .iter()
                .filter(|r| compiled.eval_bool(r))
                .cloned()
                .collect();
            Ok(Relation::new(rel.schema().clone(), rows)?)
        }
        UQuery::Project { input, attrs } => {
            let rel = oracle_eval(input, udb, f, limit)?;
            let out_attrs = q.attrs(udb)?;
            let idx: Vec<usize> = attrs
                .iter()
                .map(|a| rel.schema().resolve_name(a).map_err(Error::from))
                .collect::<Result<_>>()?;
            let mut out = Relation::empty(Schema::new(out_attrs));
            for r in rel.rows() {
                out.push(idx.iter().map(|&i| r[i].clone()).collect())?;
            }
            out.dedup_in_place();
            Ok(out)
        }
        UQuery::Join { left, right, pred } => {
            let l = oracle_eval(left, udb, f, limit)?;
            let r = oracle_eval(right, udb, f, limit)?;
            let schema = l.schema().concat(r.schema());
            let compiled = pred.compile(&schema)?;
            let mut out = Relation::empty(schema);
            for lr in l.rows() {
                for rr in r.rows() {
                    if compiled.eval_bool_pair(lr, rr) {
                        let mut row = lr.to_vec();
                        row.extend(rr.iter().cloned());
                        out.push(row)?;
                    }
                }
            }
            Ok(out)
        }
        UQuery::Union { left, right } => {
            let l = oracle_eval(left, udb, f, limit)?;
            let r = oracle_eval(right, udb, f, limit)?;
            let mut out = Relation::empty(l.schema().clone());
            for row in l.rows().iter().chain(r.rows()) {
                out.push(row.to_vec())?;
            }
            out.dedup_in_place();
            Ok(out)
        }
        UQuery::Poss { input } => {
            // `poss` closes the world semantics: its value is the same
            // certain relation in every world.
            oracle_possible(input, udb, limit)
        }
    }
}

/// Ground truth for `poss(Q)`: the union of `Q`'s answers over all worlds.
pub fn oracle_possible(q: &UQuery, udb: &UDatabase, limit: usize) -> Result<Relation> {
    let attrs = q.attrs(udb)?;
    let mut out = Relation::empty(Schema::new(attrs));
    for f in udb.world.worlds(limit)? {
        let r = oracle_eval(q, udb, &f, limit)?;
        for row in r.rows() {
            out.push(row.to_vec())?;
        }
    }
    out.dedup_in_place();
    Ok(out)
}

/// Ground truth for certain answers: tuples present in *every* world.
pub fn oracle_certain(q: &UQuery, udb: &UDatabase, limit: usize) -> Result<Relation> {
    let attrs = q.attrs(udb)?;
    let worlds = udb.world.worlds(limit)?;
    let mut acc: Option<BTreeSet<Row>> = None;
    for f in &worlds {
        let r = oracle_eval(q, udb, f, limit)?;
        let set: BTreeSet<Row> = r.rows().iter().cloned().collect();
        acc = Some(match acc {
            None => set,
            Some(prev) => prev.intersection(&set).cloned().collect(),
        });
    }
    let mut out = Relation::empty(Schema::new(attrs));
    for row in acc.unwrap_or_default() {
        out.push(row.to_vec())?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udb::figure1_database;
    use urel_relalg::{col, lit_i64, lit_str, Value};

    /// Example 3.6: ids of enemy tanks.
    fn enemy_tanks() -> UQuery {
        table("r")
            .select(Expr::and([
                col("type").eq(lit_str("Tank")),
                col("faction").eq(lit_str("Enemy")),
            ]))
            .project(["id"])
    }

    #[test]
    fn example_3_6_possible_ids() {
        let db = figure1_database();
        let poss = oracle_possible(&enemy_tanks(), &db, 64).unwrap();
        // U4 in the paper: ids {3, 2, 4}.
        let expect = Relation::from_rows(
            ["id"],
            vec![
                vec![Value::Int(2)],
                vec![Value::Int(3)],
                vec![Value::Int(4)],
            ],
        )
        .unwrap();
        assert!(poss.set_eq(&expect));
    }

    #[test]
    fn example_3_6_certain_is_empty() {
        // No vehicle is an enemy tank in all eight worlds.
        let db = figure1_database();
        let cert = oracle_certain(&enemy_tanks(), &db, 64).unwrap();
        assert!(cert.is_empty());
    }

    #[test]
    fn example_3_7_pairs_of_enemy_tanks() {
        // Self-join of S asking for two distinct enemy tanks: the paper's
        // U5 lists possible id pairs (3,4), (2,4), (4,3), (4,2).
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
        let poss = oracle_possible(&q, &db, 64).unwrap();
        let expect = Relation::from_rows(
            ["s1.id", "s2.id"],
            vec![
                vec![Value::Int(3), Value::Int(4)],
                vec![Value::Int(2), Value::Int(4)],
                vec![Value::Int(4), Value::Int(3)],
                vec![Value::Int(4), Value::Int(2)],
            ],
        )
        .unwrap();
        assert!(poss.set_eq(&expect), "got {poss}");
    }

    #[test]
    fn attrs_and_validation() {
        let db = figure1_database();
        let q = table("r");
        assert_eq!(q.attrs(&db).unwrap().len(), 3,);
        // Join without alias clashes.
        let bad = table("r").join(table("r"), lit_i64(1).eq(lit_i64(1)));
        assert!(bad.attrs(&db).is_err());
        // Unknown projection attribute.
        let bad = table("r").project(["nope"]);
        assert!(bad.attrs(&db).is_err());
    }

    #[test]
    fn union_requires_matching_names() {
        let db = figure1_database();
        let ok = table("r").project(["id"]).union(table("r").project(["id"]));
        assert!(ok.attrs(&db).is_ok());
        let bad = table("r")
            .project(["id"])
            .union(table("r").project(["type"]));
        assert!(bad.attrs(&db).is_err());
    }

    #[test]
    fn op_counters() {
        let q = enemy_tanks().poss();
        assert_eq!(q.op_count(), 3);
        assert_eq!(q.join_ops(), 0);
    }

    #[test]
    fn union_semantics() {
        let db = figure1_database();
        let q = table("r")
            .select(col("faction").eq(lit_str("Enemy")))
            .project(["id"])
            .union(
                table("r")
                    .select(col("type").eq(lit_str("Transport")))
                    .project(["id"]),
            );
        let poss = oracle_possible(&q, &db, 64).unwrap();
        // Enemies possible: 3 (c), 2 (c under x↦2), 4 (d enemy);
        // transports possible: 2, 3 (b), 4 (d transport).
        let expect = Relation::from_rows(
            ["id"],
            vec![
                vec![Value::Int(2)],
                vec![Value::Int(3)],
                vec![Value::Int(4)],
            ],
        )
        .unwrap();
        assert!(poss.set_eq(&expect));
    }
}
