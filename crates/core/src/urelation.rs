//! U-relations (Definition 2.2).
//!
//! A U-relation `U[D; T; B]` has ws-descriptor columns `D`, tuple-id
//! columns `T` and value columns `B`. This module keeps a *typed* view
//! ([`URelation`] / [`URow`]) for algorithms (reduction, normalization,
//! certain answers) and converts losslessly to the *purely relational*
//! encoding that the translated queries run on ([`URelation::encode`] /
//! [`URelation::decode`]). Each descriptor entry `(Var, Rng)` is one
//! `Int` column in the code of [`urel_relalg::expr::pack`]: a column per
//! entry instead of the paper's column pair, with the same information
//! and the same fixed arity.

use crate::descriptor::WsDescriptor;
use crate::error::{Error, Result};
use crate::world::{Valuation, Var, WorldTable};
use std::fmt;
use urel_relalg::expr::{pack, unpack};
use urel_relalg::{Column, Relation, Value};

/// Sentinel for an absent tuple id: the union translation pads the other
/// side's tuple-id columns with `Null`, which decodes to this value
/// (Section 3: "add new (empty) columns T₂ to U₁ and T₁ to U₂").
pub const NULL_TID: i64 = i64::MIN;

/// One U-relation row: `(descriptor, tuple ids, values)`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct URow {
    /// The ws-descriptor guarding this row.
    pub desc: WsDescriptor,
    /// One id per tuple-id column (joins concatenate these).
    pub tids: Box<[i64]>,
    /// One value per value column.
    pub vals: Box<[Value]>,
}

impl URow {
    /// Convenience constructor.
    pub fn new(desc: WsDescriptor, tids: Vec<i64>, vals: Vec<Value>) -> Self {
        URow {
            desc,
            tids: tids.into_boxed_slice(),
            vals: vals.into_boxed_slice(),
        }
    }
}

/// A typed U-relation.
#[derive(Clone, Debug, PartialEq)]
pub struct URelation {
    /// Relation name (doubles as the catalog key for its encoding).
    pub name: String,
    desc_arity: usize,
    tid_cols: Vec<String>,
    value_cols: Vec<String>,
    rows: Vec<URow>,
}

impl URelation {
    /// Empty U-relation with one tuple-id column `tid` (the shape of base
    /// vertical partitions; query results may have more).
    pub fn partition(
        name: impl Into<String>,
        value_cols: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        URelation {
            name: name.into(),
            desc_arity: 0,
            tid_cols: vec!["tid".into()],
            value_cols: value_cols.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Fully general constructor.
    pub fn new(name: impl Into<String>, tid_cols: Vec<String>, value_cols: Vec<String>) -> Self {
        URelation {
            name: name.into(),
            desc_arity: 0,
            tid_cols,
            value_cols,
            rows: Vec::new(),
        }
    }

    /// Append a row; arities are checked, the descriptor arity grows to
    /// fit.
    pub fn push(&mut self, row: URow) -> Result<()> {
        if row.tids.len() != self.tid_cols.len() {
            return Err(Error::InvalidDatabase(format!(
                "{}: row has {} tuple ids, expected {}",
                self.name,
                row.tids.len(),
                self.tid_cols.len()
            )));
        }
        if row.vals.len() != self.value_cols.len() {
            return Err(Error::InvalidDatabase(format!(
                "{}: row has {} values, expected {}",
                self.name,
                row.vals.len(),
                self.value_cols.len()
            )));
        }
        self.desc_arity = self.desc_arity.max(row.desc.len());
        self.rows.push(row);
        Ok(())
    }

    /// Shorthand: push `(descriptor, single tid, values)`.
    pub fn push_simple(&mut self, desc: WsDescriptor, tid: i64, vals: Vec<Value>) -> Result<()> {
        self.push(URow::new(desc, vec![tid], vals))
    }

    /// The rows.
    pub fn rows(&self) -> &[URow] {
        &self.rows
    }

    /// Mutable rows (used by reduction).
    pub fn rows_mut(&mut self) -> &mut Vec<URow> {
        &mut self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Descriptor entries (= descriptor columns) in the relational
    /// encoding.
    pub fn desc_arity(&self) -> usize {
        self.desc_arity
    }

    /// Tuple-id column names.
    pub fn tid_cols(&self) -> &[String] {
        &self.tid_cols
    }

    /// Value column names.
    pub fn value_cols(&self) -> &[String] {
        &self.value_cols
    }

    /// Maximum descriptor size actually used (= `desc_arity`).
    pub fn max_descriptor_size(&self) -> usize {
        self.rows.iter().map(|r| r.desc.len()).max().unwrap_or(0)
    }

    /// A U-relation is *normalized* when every descriptor has size ≤ 1
    /// (Definition 4.1).
    pub fn is_normalized(&self) -> bool {
        self.rows.iter().all(|r| r.desc.len() <= 1)
    }

    /// Representation size in bytes: descriptor pairs (8 bytes each of
    /// var/rng), tuple ids, and value payloads — the Figure 9 accounting.
    pub fn size_bytes(&self) -> usize {
        let desc_bytes = self.desc_arity * 16;
        self.rows
            .iter()
            .map(|r| {
                desc_bytes + r.tids.len() * 8 + r.vals.iter().map(Value::size_bytes).sum::<usize>()
            })
            .sum()
    }

    /// The tuples of this U-relation present in the world `f`: rows whose
    /// descriptor `f` extends, projected to the value columns.
    pub fn tuples_in_world(&self, w: &WorldTable, f: &Valuation) -> Relation {
        let mut rel = Relation::empty(urel_relalg::Schema::named(&self.value_cols));
        for r in &self.rows {
            if w.extends(f, &r.desc) {
                rel.push(r.vals.to_vec()).expect("arity fixed");
            }
        }
        rel.dedup_in_place();
        rel
    }

    /// Distinct value tuples across all rows — the `poss` projection.
    pub fn possible_tuples(&self) -> Relation {
        let mut rel = Relation::empty(urel_relalg::Schema::named(&self.value_cols));
        for r in &self.rows {
            rel.push(r.vals.to_vec()).expect("arity fixed");
        }
        rel.dedup_in_place();
        rel
    }

    /// Encode into the purely relational layout
    /// `d0, …, d{k-1}, <tid cols>, <value cols>`, one packed descriptor
    /// entry per `d{i}` column. The relation is born columnar: codes and
    /// tuple ids become `Int` columns, value columns are typed by
    /// [`Column::from_refs`], and no row is built.
    ///
    /// # Panics
    ///
    /// On an entry the code cannot hold; [`crate::UDatabase::add_partition`]
    /// refuses such rows with an error.
    pub fn encode(&self) -> Relation {
        let mut names: Vec<String> = (0..self.desc_arity).map(|i| format!("d{i}")).collect();
        names.extend(self.tid_cols.iter().cloned());
        names.extend(self.value_cols.iter().cloned());
        let n = self.rows.len();
        let mut ints: Vec<Vec<i64>> = (0..self.desc_arity + self.tid_cols.len())
            .map(|_| Vec::with_capacity(n))
            .collect();
        for r in &self.rows {
            let codes = r
                .desc
                .encode_padded(self.desc_arity)
                .into_iter()
                .map(|(v, val)| pack(v.0, val).expect("descriptor entries are checked on entry"));
            for (col, x) in ints.iter_mut().zip(codes.chain(r.tids.iter().copied())) {
                col.push(x);
            }
        }
        let vals = (0..self.value_cols.len())
            .map(|c| Column::from_refs(self.rows.iter().map(|r| &r.vals[c])));
        let cols = ints
            .into_iter()
            .map(Column::from_ints)
            .chain(vals)
            .collect();
        Relation::from_columns(names, cols, n).expect("consistent encode")
    }

    /// Decode a relational encoding produced by [`URelation::encode`] or
    /// by a translated query plan. `desc_arity` and `n_tids` fix the
    /// column-group boundaries; names are taken from the relation schema.
    pub fn decode(
        name: impl Into<String>,
        rel: &Relation,
        desc_arity: usize,
        n_tids: usize,
    ) -> Result<URelation> {
        let arity = rel.schema().arity();
        if arity < desc_arity + n_tids {
            return Err(Error::InvalidDatabase(format!(
                "relation arity {arity} too small for {desc_arity} descriptor entries + {n_tids} tids"
            )));
        }
        let cols = rel.schema().columns();
        let tid_cols: Vec<String> = cols[desc_arity..desc_arity + n_tids]
            .iter()
            .map(|c| c.to_string())
            .collect();
        let value_cols: Vec<String> = cols[desc_arity + n_tids..]
            .iter()
            .map(|c| c.to_string())
            .collect();
        let mut out = URelation::new(name, tid_cols, value_cols);
        for row in rel.rows() {
            let mut pairs = Vec::with_capacity(desc_arity);
            for d in &row[..desc_arity] {
                let (v, val) = d.as_int().and_then(unpack).ok_or_else(|| {
                    Error::InvalidDatabase(format!("`{d}` is not a descriptor entry code"))
                })?;
                pairs.push((Var(v), val));
            }
            let desc = WsDescriptor::decode(pairs)?;
            let tids: Vec<i64> = row[desc_arity..desc_arity + n_tids]
                .iter()
                .map(|v| {
                    if v.is_null() {
                        // Union-padded tuple-id column (see [`NULL_TID`]).
                        return Ok(NULL_TID);
                    }
                    v.as_int()
                        .ok_or_else(|| Error::InvalidDatabase("tuple id is not an integer".into()))
                })
                .collect::<Result<_>>()?;
            let vals: Vec<Value> = row[desc_arity + n_tids..].to_vec();
            out.push(URow::new(desc, tids, vals))?;
        }
        Ok(out)
    }
}

impl fmt::Display for URelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}[D({}); {}; {}]",
            self.name,
            self.desc_arity,
            self.tid_cols.join(", "),
            self.value_cols.join(", ")
        )?;
        for r in &self.rows {
            write!(f, "  {} | ", r.desc)?;
            for t in r.tids.iter() {
                write!(f, "t{t} ")?;
            }
            write!(f, "|")?;
            for v in r.vals.iter() {
                write!(f, " {v}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::TOP;

    fn sample() -> URelation {
        let mut u = URelation::partition("u_r_a", ["a"]);
        u.push_simple(WsDescriptor::empty(), 1, vec![Value::str("x")])
            .unwrap();
        u.push_simple(WsDescriptor::singleton(Var(1), 1), 2, vec![Value::str("y")])
            .unwrap();
        u.push_simple(
            WsDescriptor::from_pairs([(Var(1), 2), (Var(2), 1)]).unwrap(),
            2,
            vec![Value::str("z")],
        )
        .unwrap();
        u
    }

    #[test]
    fn arity_tracking() {
        let u = sample();
        assert_eq!(u.desc_arity(), 2);
        assert_eq!(u.max_descriptor_size(), 2);
        assert!(!u.is_normalized());
    }

    #[test]
    fn push_checks_arities() {
        let mut u = URelation::partition("u", ["a"]);
        assert!(u
            .push(URow::new(
                WsDescriptor::empty(),
                vec![1, 2],
                vec![Value::Int(1)]
            ))
            .is_err());
        assert!(u
            .push(URow::new(WsDescriptor::empty(), vec![1], vec![]))
            .is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let u = sample();
        let rel = u.encode();
        assert_eq!(rel.schema().to_string(), "d0, d1, tid, a");
        let back = URelation::decode("u_r_a", &rel, 2, 1).unwrap();
        assert_eq!(back.rows(), u.rows());
        assert_eq!(back.value_cols(), u.value_cols());
        // An integer no entry packs to is refused by name.
        let mut bad: Vec<Vec<Value>> = rel.rows().iter().map(|r| r.to_vec()).collect();
        bad[0][0] = Value::Int(-1);
        let bad = Relation::from_rows(["d0", "d1", "tid", "a"], bad).unwrap();
        let err = URelation::decode("u", &bad, 2, 1).unwrap_err();
        assert!(
            err.to_string().contains("not a descriptor entry code"),
            "{err}"
        );
    }

    #[test]
    fn encode_pads_with_top_and_repeats() {
        let u = sample();
        let rel = u.encode();
        // Row 0 had an empty descriptor: both entries are ⊤ ↦ 0, code 0.
        let r0 = &rel.rows()[0];
        assert_eq!(r0[0], Value::Int(pack(TOP.0, 0).unwrap()));
        assert_eq!(r0[..2], [Value::Int(0), Value::Int(0)]);
        // Row 1 had size 1: the second entry repeats the first.
        let r1 = &rel.rows()[1];
        let code = Value::Int(pack(1, 1).unwrap());
        assert_eq!(r1[..2], [code.clone(), code]);
    }

    #[test]
    fn world_restriction() {
        let mut w = WorldTable::new();
        w.add_var(Var(1), vec![1, 2]).unwrap();
        w.add_var(Var(2), vec![1, 2]).unwrap();
        let u = sample();
        let f: Valuation = [(Var(1), 1), (Var(2), 1)].into_iter().collect();
        let in_world = u.tuples_in_world(&w, &f);
        // Row 0 (always) + row 1 (x1 ↦ 1); row 2 requires x1 ↦ 2.
        assert_eq!(in_world.len(), 2);
        let f2: Valuation = [(Var(1), 2), (Var(2), 1)].into_iter().collect();
        assert_eq!(u.tuples_in_world(&w, &f2).len(), 2); // x and z
    }

    #[test]
    fn possible_tuples_dedup() {
        let mut u = URelation::partition("u", ["a"]);
        u.push_simple(WsDescriptor::singleton(Var(1), 1), 1, vec![Value::Int(5)])
            .unwrap();
        u.push_simple(WsDescriptor::singleton(Var(1), 2), 1, vec![Value::Int(5)])
            .unwrap();
        assert_eq!(u.possible_tuples().len(), 1);
    }

    #[test]
    fn size_accounting() {
        let u = sample();
        // 3 rows × (2 desc pairs × 16 + 8 tid + 1 byte string)
        assert_eq!(u.size_bytes(), 3 * (32 + 8 + 1));
    }
}
