//! U-relational databases (Definition 2.2) and their possible-worlds
//! semantics.
//!
//! A U-relational database is a tuple `(U₁,…,Uₙ, W)`: a world table plus
//! vertical partitions per logical relation. [`UDatabase::instantiate`]
//! implements the semantics literally — choose a total valuation, keep the
//! rows whose descriptors it extends, assemble tuples by tuple id, drop
//! partial tuples — and is the ground-truth oracle every query-processing
//! component is tested against.

use crate::descriptor::WsDescriptor;
use crate::error::{Error, Result};
use crate::urelation::URelation;
use crate::world::{Valuation, WorldTable};
use std::collections::{BTreeMap, BTreeSet};
use urel_relalg::{Catalog, Relation, Schema, Value};

/// A U-relational database.
#[derive(Clone, Debug, PartialEq)]
pub struct UDatabase {
    /// The world table `W`.
    pub world: WorldTable,
    /// Logical relation name → attribute list.
    schema: BTreeMap<String, Vec<String>>,
    /// Logical relation name → vertical partitions.
    partitions: BTreeMap<String, Vec<URelation>>,
}

impl UDatabase {
    /// Database over a world table, initially with no relations.
    pub fn new(world: WorldTable) -> Self {
        UDatabase {
            world,
            schema: BTreeMap::new(),
            partitions: BTreeMap::new(),
        }
    }

    /// Declare a logical relation `R[A₁,…,Aₙ]`.
    pub fn add_relation(
        &mut self,
        name: impl Into<String>,
        attrs: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<()> {
        let name = name.into();
        if self.schema.contains_key(&name) {
            return Err(Error::InvalidQuery(format!(
                "relation `{name}` already declared"
            )));
        }
        self.schema
            .insert(name.clone(), attrs.into_iter().map(Into::into).collect());
        self.partitions.insert(name, Vec::new());
        Ok(())
    }

    /// Attach a vertical partition to a declared relation. The partition
    /// must have the single `tid` tuple-id column and value columns drawn
    /// from the relation's attributes, and every descriptor entry must fit
    /// the encoding's packed code ([`urel_relalg::expr::pack`]: a range
    /// below 2³¹ whose bit length, plus the variable's, is at most 58, so
    /// every range below 2²⁶ fits).
    pub fn add_partition(&mut self, rel: &str, partition: URelation) -> Result<()> {
        let attrs = self
            .schema
            .get(rel)
            .ok_or_else(|| Error::InvalidQuery(format!("unknown relation `{rel}`")))?;
        if partition.tid_cols() != ["tid".to_string()] {
            return Err(Error::InvalidDatabase(format!(
                "partition `{}` must have exactly the `tid` tuple-id column",
                partition.name
            )));
        }
        for c in partition.value_cols() {
            if !attrs.contains(c) {
                return Err(Error::InvalidDatabase(format!(
                    "partition `{}` column `{c}` is not an attribute of `{rel}`",
                    partition.name
                )));
            }
        }
        for row in partition.rows() {
            for &(v, val) in row.desc.iter() {
                if urel_relalg::expr::pack(v.0, val).is_none() {
                    return Err(Error::InvalidDatabase(format!(
                        "partition `{}`: descriptor entry {v} ↦ {val} is too wide to encode \
                         (the range must be below 2^31, and its bit length plus the \
                         variable's at most 58)",
                        partition.name
                    )));
                }
            }
        }
        self.partitions.get_mut(rel).unwrap().push(partition);
        Ok(())
    }

    /// Logical relation names.
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.schema.keys().map(String::as_str)
    }

    /// Attributes of a logical relation.
    pub fn attrs(&self, rel: &str) -> Result<&[String]> {
        self.schema
            .get(rel)
            .map(Vec::as_slice)
            .ok_or_else(|| Error::InvalidQuery(format!("unknown relation `{rel}`")))
    }

    /// The vertical partitions of a relation.
    pub fn partitions_of(&self, rel: &str) -> Result<&[URelation]> {
        self.partitions
            .get(rel)
            .map(Vec::as_slice)
            .ok_or_else(|| Error::InvalidQuery(format!("unknown relation `{rel}`")))
    }

    /// Mutable partitions (used by reduction / normalization).
    pub fn partitions_of_mut(&mut self, rel: &str) -> Result<&mut Vec<URelation>> {
        self.partitions
            .get_mut(rel)
            .ok_or_else(|| Error::InvalidQuery(format!("unknown relation `{rel}`")))
    }

    /// Validity (Definition 2.2):
    ///
    /// 1. every attribute of every relation is covered by some partition,
    /// 2. every descriptor's graph is a subset of `W`,
    /// 3. no two rows with consistent descriptors give a tuple field two
    ///    different values.
    pub fn validate(&self) -> Result<()> {
        for (rel, attrs) in &self.schema {
            let parts = &self.partitions[rel];
            for a in attrs {
                if !parts.iter().any(|p| p.value_cols().contains(a)) {
                    return Err(Error::InvalidDatabase(format!(
                        "attribute `{a}` of `{rel}` is not covered by any partition"
                    )));
                }
            }
            for p in parts {
                for row in p.rows() {
                    self.world.check_descriptor(&row.desc)?;
                }
            }
            // Pairwise field-consistency check, grouped by tuple id.
            for (i, pi) in parts.iter().enumerate() {
                for pj in parts.iter().skip(i) {
                    let shared: Vec<(usize, usize)> = pi
                        .value_cols()
                        .iter()
                        .enumerate()
                        .filter_map(|(ci, c)| {
                            pj.value_cols()
                                .iter()
                                .position(|d| d == c)
                                .map(|cj| (ci, cj))
                        })
                        .collect();
                    if shared.is_empty() {
                        continue;
                    }
                    let mut by_tid: BTreeMap<i64, Vec<&crate::urelation::URow>> = BTreeMap::new();
                    for r in pj.rows() {
                        by_tid.entry(r.tids[0]).or_default().push(r);
                    }
                    for r1 in pi.rows() {
                        let Some(group) = by_tid.get(&r1.tids[0]) else {
                            continue;
                        };
                        for r2 in group {
                            if std::ptr::eq(r1, *r2) {
                                continue;
                            }
                            if r1.desc.consistent_with(&r2.desc) {
                                for &(ci, cj) in &shared {
                                    if r1.vals[ci] != r2.vals[cj] {
                                        return Err(Error::InvalidDatabase(format!(
                                            "`{rel}` tuple {} field `{}` takes both {} and {} in a common world",
                                            r1.tids[0],
                                            pi.value_cols()[ci],
                                            r1.vals[ci],
                                            r2.vals[cj],
                                        )));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Does any tuple field carry a *partial* or-set — a non-empty set
    /// of defining rows whose descriptors do not jointly cover every
    /// world? Precisely: is [`UDatabase::partial_relations`] non-empty,
    /// which, where partitions share value columns, also counts one
    /// partition defining a tuple in fewer worlds than another does.
    ///
    /// Proposition 3.3's reduction guarantee assumes that a tuple
    /// present in a world has all of its fields defined there; a
    /// partial field breaks that assumption. Each call rescans every
    /// partition; [`crate::PreparedDb`] runs the scan once and keeps
    /// the per-relation answer.
    pub fn has_partial_fields(&self) -> Result<bool> {
        Ok(!self.partial_relations()?.is_empty())
    }

    /// The logical relations in which some partition defines a tuple's
    /// fields in only some worlds: its rows for that tuple id have
    /// descriptors that do not jointly cover every world. Partitions
    /// that share no value columns — the usual layout — define each
    /// field in exactly one partition, so this is "has a partial
    /// field". Where partitions overlap it also flags a partition that
    /// is partial while another one defines the same fields everywhere.
    ///
    /// A relation outside this set satisfies Proposition 3.3 once
    /// reduced, so a `Table` leaf may merge only the partitions a query
    /// needs. A relation in it must read every field before its
    /// descriptors say exactly in which worlds a tuple exists: a leaf
    /// that reads only `a` cannot see that the tuple's `b` is undefined
    /// in some worlds. A tuple id with *no* rows in a partition is not
    /// partial: the tuple never completes, and reduction removes its
    /// other rows.
    pub fn partial_relations(&self) -> Result<BTreeSet<String>> {
        let mut out = BTreeSet::new();
        'relations: for (rel, parts) in &self.partitions {
            for p in parts {
                let mut by_tid: BTreeMap<i64, Vec<WsDescriptor>> = BTreeMap::new();
                for row in p.rows() {
                    by_tid
                        .entry(row.tids[0])
                        .or_default()
                        .push(row.desc.clone());
                }
                for descs in by_tid.values() {
                    if !crate::prob::covers_all_worlds(descs, &self.world)? {
                        out.insert(rel.clone());
                        continue 'relations;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Materialize the possible world selected by a total valuation:
    /// the semantics of Section 2, verbatim. Tuples left partial (some
    /// field undefined) are removed.
    pub fn instantiate(&self, f: &Valuation) -> Result<BTreeMap<String, Relation>> {
        let mut out = BTreeMap::new();
        for (rel, attrs) in &self.schema {
            let mut fields: BTreeMap<i64, Vec<Option<Value>>> = BTreeMap::new();
            for p in &self.partitions[rel] {
                let positions: Vec<usize> = p
                    .value_cols()
                    .iter()
                    .map(|c| attrs.iter().position(|a| a == c).expect("validated"))
                    .collect();
                for row in p.rows() {
                    if !self.world.extends(f, &row.desc) {
                        continue;
                    }
                    let entry = fields
                        .entry(row.tids[0])
                        .or_insert_with(|| vec![None; attrs.len()]);
                    for (k, &pos) in positions.iter().enumerate() {
                        match &entry[pos] {
                            None => entry[pos] = Some(row.vals[k].clone()),
                            Some(existing) if *existing == row.vals[k] => {}
                            Some(existing) => {
                                return Err(Error::InvalidDatabase(format!(
                                    "`{rel}` tuple {} field `{}`: {} vs {}",
                                    row.tids[0], attrs[pos], existing, row.vals[k]
                                )))
                            }
                        }
                    }
                }
            }
            let mut rel_out = Relation::empty(Schema::named(attrs));
            for (_tid, vals) in fields {
                if vals.iter().all(Option::is_some) {
                    rel_out
                        .push(vals.into_iter().map(Option::unwrap).collect())
                        .expect("arity fixed");
                }
            }
            rel_out.dedup_in_place();
            out.insert(rel.clone(), rel_out);
        }
        Ok(out)
    }

    /// Enumerate all `(valuation, world instance)` pairs, erroring above
    /// `limit` worlds. This is the test oracle.
    pub fn possible_worlds(
        &self,
        limit: usize,
    ) -> Result<Vec<(Valuation, BTreeMap<String, Relation>)>> {
        let mut out = Vec::new();
        for f in self.world.worlds(limit)? {
            let inst = self.instantiate(&f)?;
            out.push((f, inst));
        }
        Ok(out)
    }

    /// Register every partition (relationally encoded) plus `W` in a fresh
    /// catalog — the database as an RDBMS sees it.
    pub fn to_catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for parts in self.partitions.values() {
            for p in parts {
                c.insert(p.name.clone(), p.encode());
            }
        }
        c.insert("w", self.world.encode());
        c
    }

    /// Encode once into a [`crate::PreparedDb`] for repeated querying:
    /// the catalog shares its base relations with every scan, so only the
    /// first query pays the encoding cost.
    pub fn prepare(&self) -> crate::PreparedDb<'_> {
        crate::PreparedDb::new(self)
    }

    /// Total representation size in bytes (partitions + world table).
    pub fn size_bytes(&self) -> usize {
        self.partitions
            .values()
            .flatten()
            .map(URelation::size_bytes)
            .sum::<usize>()
            + self.world.size_bytes()
    }

    /// Total number of U-relation rows.
    pub fn total_rows(&self) -> usize {
        self.partitions.values().flatten().map(URelation::len).sum()
    }
}

/// Build the vehicles example of Figure 1 — used by tests, docs and the
/// quickstart example. Variables: `x` (1: vehicle b at position 2,
/// 2: at position 3), `y` (vehicle d's type), `z` (vehicle d's faction);
/// tuple ids 1–4 stand for vehicles a–d.
pub fn figure1_database() -> UDatabase {
    use crate::world::Var;
    let x = Var(1);
    let y = Var(2);
    let z = Var(3);
    let mut w = WorldTable::new();
    w.add_var(x, vec![1, 2]).unwrap();
    w.add_var(y, vec![1, 2]).unwrap();
    w.add_var(z, vec![1, 2]).unwrap();

    let mut db = UDatabase::new(w);
    db.add_relation("r", ["id", "type", "faction"]).unwrap();

    let (a, b, c, d) = (1, 2, 3, 4);
    let e = WsDescriptor::empty;
    let s = WsDescriptor::singleton;

    let mut u1 = URelation::partition("u1", ["id"]);
    u1.push_simple(e(), a, vec![Value::Int(1)]).unwrap();
    u1.push_simple(s(x, 1), b, vec![Value::Int(2)]).unwrap();
    u1.push_simple(s(x, 2), b, vec![Value::Int(3)]).unwrap();
    u1.push_simple(s(x, 1), c, vec![Value::Int(3)]).unwrap();
    u1.push_simple(s(x, 2), c, vec![Value::Int(2)]).unwrap();
    u1.push_simple(e(), d, vec![Value::Int(4)]).unwrap();
    db.add_partition("r", u1).unwrap();

    let mut u2 = URelation::partition("u2", ["type"]);
    u2.push_simple(e(), a, vec![Value::str("Tank")]).unwrap();
    u2.push_simple(e(), b, vec![Value::str("Transport")])
        .unwrap();
    u2.push_simple(e(), c, vec![Value::str("Tank")]).unwrap();
    u2.push_simple(s(y, 1), d, vec![Value::str("Tank")])
        .unwrap();
    u2.push_simple(s(y, 2), d, vec![Value::str("Transport")])
        .unwrap();
    db.add_partition("r", u2).unwrap();

    let mut u3 = URelation::partition("u3", ["faction"]);
    u3.push_simple(e(), a, vec![Value::str("Friend")]).unwrap();
    u3.push_simple(e(), b, vec![Value::str("Friend")]).unwrap();
    u3.push_simple(e(), c, vec![Value::str("Enemy")]).unwrap();
    u3.push_simple(s(z, 1), d, vec![Value::str("Friend")])
        .unwrap();
    u3.push_simple(s(z, 2), d, vec![Value::str("Enemy")])
        .unwrap();
    db.add_partition("r", u3).unwrap();

    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Var;

    #[test]
    fn figure1_has_eight_worlds() {
        let db = figure1_database();
        db.validate().unwrap();
        assert_eq!(db.world.world_count_exact(), Some(8));
        let worlds = db.possible_worlds(16).unwrap();
        assert_eq!(worlds.len(), 8);
        // Every world has exactly 4 vehicles.
        for (_, inst) in &worlds {
            assert_eq!(inst["r"].len(), 4);
        }
    }

    #[test]
    fn instantiation_matches_example_1_1() {
        // θ = {x ↦ 1, y ↦ 1, z ↦ 1}: vehicle 2 is the transport (b),
        // vehicle 3 the enemy tank (c), vehicle 4 a friendly tank.
        let db = figure1_database();
        let f: Valuation = [(Var(1), 1), (Var(2), 1), (Var(3), 1)]
            .into_iter()
            .collect();
        let inst = db.instantiate(&f).unwrap();
        let r = inst["r"].sorted_set();
        let expect = Relation::from_rows(
            ["id", "type", "faction"],
            vec![
                vec![Value::Int(1), Value::str("Tank"), Value::str("Friend")],
                vec![Value::Int(2), Value::str("Transport"), Value::str("Friend")],
                vec![Value::Int(3), Value::str("Tank"), Value::str("Enemy")],
                vec![Value::Int(4), Value::str("Tank"), Value::str("Friend")],
            ],
        )
        .unwrap();
        assert!(r.set_eq(&expect));
    }

    #[test]
    fn partial_tuples_are_dropped() {
        // Example 3.2's non-reduced database: tuples that cannot complete
        // disappear from the instantiated worlds.
        let mut w = WorldTable::new();
        w.add_var(Var(1), vec![1, 2]).unwrap();
        w.add_var(Var(2), vec![1, 2]).unwrap();
        let mut db = UDatabase::new(w);
        db.add_relation("r", ["a", "b"]).unwrap();
        let mut u1 = URelation::partition("u1", ["a"]);
        u1.push_simple(
            WsDescriptor::singleton(Var(1), 1),
            1,
            vec![Value::str("a1")],
        )
        .unwrap();
        u1.push_simple(
            WsDescriptor::singleton(Var(2), 1),
            2,
            vec![Value::str("a2")],
        )
        .unwrap();
        db.add_partition("r", u1).unwrap();
        let mut u2 = URelation::partition("u2", ["b"]);
        u2.push_simple(
            WsDescriptor::singleton(Var(1), 1),
            1,
            vec![Value::str("b1")],
        )
        .unwrap();
        u2.push_simple(
            WsDescriptor::singleton(Var(1), 2),
            1,
            vec![Value::str("b2")],
        )
        .unwrap();
        db.add_partition("r", u2).unwrap();
        db.validate().unwrap();

        // Tuple 2 never completes (no B field); tuple 1 completes only
        // when x1 ↦ 1.
        for (f, inst) in db.possible_worlds(16).unwrap() {
            let rows = inst["r"].len();
            if f[&Var(1)] == 1 {
                assert_eq!(rows, 1);
            } else {
                assert_eq!(rows, 0);
            }
        }
        // And the partial fields are detected: tuple 1's A field is only
        // defined under x1 ↦ 1.
        assert!(db.has_partial_fields().unwrap());
    }

    #[test]
    fn world_total_databases_have_no_partial_fields() {
        // Figure 1: every field is either unconditional or a full or-set
        // over its variable's domain.
        assert!(!figure1_database().has_partial_fields().unwrap());
    }

    #[test]
    fn validity_detects_contradictions() {
        // Example 2.3: same field forced to two values in a common world.
        let mut w = WorldTable::new();
        w.add_var(Var(1), vec![1, 2]).unwrap();
        w.add_var(Var(2), vec![1, 2]).unwrap();
        let mut db = UDatabase::new(w);
        db.add_relation("r", ["a", "b", "c"]).unwrap();
        let mut u1 = URelation::partition("u1", ["a", "b"]);
        u1.push_simple(
            WsDescriptor::singleton(Var(1), 1),
            1,
            vec![Value::str("a"), Value::str("b")],
        )
        .unwrap();
        db.add_partition("r", u1).unwrap();
        let mut u2 = URelation::partition("u2", ["b", "c"]);
        u2.push_simple(
            WsDescriptor::singleton(Var(2), 2),
            1,
            vec![Value::str("b'"), Value::str("c")],
        )
        .unwrap();
        db.add_partition("r", u2).unwrap();
        let err = db.validate().unwrap_err();
        assert!(matches!(err, Error::InvalidDatabase(_)), "{err}");
    }

    #[test]
    fn coverage_and_descriptor_checks() {
        let mut db = UDatabase::new(WorldTable::new());
        db.add_relation("r", ["a", "b"]).unwrap();
        let mut u = URelation::partition("u", ["a"]);
        u.push_simple(WsDescriptor::empty(), 1, vec![Value::Int(1)])
            .unwrap();
        db.add_partition("r", u).unwrap();
        assert!(db.validate().is_err(), "attribute b uncovered");

        let mut db2 = UDatabase::new(WorldTable::new());
        db2.add_relation("r", ["a"]).unwrap();
        let mut u = URelation::partition("u", ["a"]);
        u.push_simple(WsDescriptor::singleton(Var(7), 1), 1, vec![Value::Int(1)])
            .unwrap();
        db2.add_partition("r", u).unwrap();
        assert!(db2.validate().is_err(), "undeclared variable");
    }

    #[test]
    fn unencodable_descriptor_entries_are_refused_on_entry() {
        let add = |var: u32, rng: u64| {
            let mut db = UDatabase::new(WorldTable::new());
            db.add_relation("r", ["a"]).unwrap();
            let mut u = URelation::partition("u", ["a"]);
            u.push_simple(
                WsDescriptor::singleton(Var(var), rng),
                1,
                vec![Value::Int(1)],
            )
            .unwrap();
            db.add_partition("r", u).map(|()| db)
        };
        // The widest variable with every range below 2²⁶ fits, and so
        // does a 31-bit range on a 27-bit variable: 58 bits of entry.
        for (var, rng) in [(u32::MAX, (1 << 26) - 1), ((1 << 27) - 1, (1 << 31) - 1)] {
            let db = add(var, rng).unwrap();
            assert_eq!(db.to_catalog().get("u").unwrap().len(), 1);
        }
        // One bit more, in either part, or a range of 2³¹ or more, is
        // refused by name.
        for (var, rng) in [(u32::MAX, 1 << 26), (1 << 27, (1 << 31) - 1), (1, 1 << 31)] {
            let err = add(var, rng).expect_err("refused");
            assert!(matches!(err, Error::InvalidDatabase(_)), "{err}");
            assert!(err.to_string().contains("too wide to encode"), "{err}");
        }
    }

    #[test]
    fn catalog_contains_partitions_and_w() {
        let db = figure1_database();
        let cat = db.to_catalog();
        assert!(cat.get("u1").is_ok());
        assert!(cat.get("u2").is_ok());
        assert!(cat.get("u3").is_ok());
        assert_eq!(cat.get("w").unwrap().len(), 6);
    }

    #[test]
    fn size_accounting_is_positive() {
        let db = figure1_database();
        assert!(db.size_bytes() > 0);
        assert_eq!(db.total_rows(), 16);
    }
}
