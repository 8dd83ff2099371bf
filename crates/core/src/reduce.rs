//! Reduction of U-relational databases (Proposition 3.3).
//!
//! A database is *reduced* when every U-relation row can be completed to a
//! full tuple in at least one world. Reduction filters each partition by
//! semijoins with the sibling partitions of the same relation (conditions
//! α: same tuple id, ψ: consistent descriptors), iterated to a fixpoint
//! since removals can cascade. A tuple takes each field from *any*
//! partition that holds it ([`UDatabase::instantiate`]), so a row needs a
//! partner for each attribute it lacks in some partition holding that
//! attribute; on the usual layout, where partitions share no value
//! columns, that is a partner in every sibling.

use crate::error::Result;
use crate::udb::UDatabase;
use crate::urelation::URow;
use std::collections::BTreeMap;

/// Remove rows that cannot be completed to a tuple: a row is kept when
/// each attribute it does not hold has a consistent same-tuple row in
/// some partition that holds it. Partitions without value columns
/// define no field, so they are never required as partners (as in
/// [`UDatabase::instantiate`]). Returns the number of rows removed.
pub fn reduce(db: &mut UDatabase) -> Result<usize> {
    let rels: Vec<String> = db.relations().map(str::to_string).collect();
    let mut removed = 0;
    for rel in rels {
        let attrs = db.attrs(&rel)?.to_vec();
        loop {
            let parts = db.partitions_of(rel.as_str())?;
            let n = parts.len();
            if n <= 1 {
                break;
            }
            let by_tid: Vec<BTreeMap<i64, Vec<&URow>>> = parts
                .iter()
                .map(|q| {
                    let mut m: BTreeMap<i64, Vec<&URow>> = BTreeMap::new();
                    for r in q.rows() {
                        m.entry(r.tids[0]).or_default().push(r);
                    }
                    m
                })
                .collect();
            // Semijoin: `r` has a partner in partition `j` iff `j` has a
            // row with the same tid and a consistent descriptor.
            let partner = |j: usize, r: &URow| {
                by_tid[j]
                    .get(&r.tids[0])
                    .is_some_and(|group| group.iter().any(|s| s.desc.consistent_with(&r.desc)))
            };
            // For each partition, find the surviving row indices.
            let mut keep: Vec<Vec<bool>> = Vec::with_capacity(n);
            for (i, p) in parts.iter().enumerate() {
                // One requirement per lacking attribute: the siblings
                // that hold it.
                let needs: Vec<Vec<usize>> = attrs
                    .iter()
                    .filter(|a| !p.value_cols().contains(a))
                    .map(|a| {
                        (0..n)
                            .filter(|&j| j != i && parts[j].value_cols().contains(a))
                            .collect()
                    })
                    .collect();
                let flags = p
                    .rows()
                    .iter()
                    .map(|r| {
                        needs
                            .iter()
                            .all(|holders| holders.iter().any(|&j| partner(j, r)))
                    })
                    .collect();
                keep.push(flags);
            }
            let mut changed = false;
            let parts = db.partitions_of_mut(rel.as_str())?;
            for (p, flags) in parts.iter_mut().zip(&keep) {
                if flags.iter().any(|&f| !f) {
                    changed = true;
                    let mut it = flags.iter();
                    p.rows_mut().retain(|_| *it.next().unwrap());
                    removed += flags.iter().filter(|&&f| !f).count();
                }
            }
            if !changed {
                break;
            }
        }
    }
    Ok(removed)
}

/// Is the database already reduced (a single semijoin pass removes
/// nothing)?
pub fn is_reduced(db: &UDatabase) -> Result<bool> {
    let mut copy = db.clone();
    Ok(reduce(&mut copy)? == 0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::descriptor::WsDescriptor;
    use crate::udb::figure1_database;
    use crate::urelation::URelation;
    use crate::world::{Var, WorldTable};
    use urel_relalg::Value;

    /// Example 3.2's non-reduced database.
    fn example_3_2() -> UDatabase {
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
        db
    }

    #[test]
    fn example_3_2_reduces_to_one_row_each() {
        let mut db = example_3_2();
        assert!(!is_reduced(&db).unwrap());
        let removed = reduce(&mut db).unwrap();
        // u1's second tuple (tid 2, no B partner) and u2's second tuple
        // (x1 ↦ 2 conflicts with u1's x1 ↦ 1 for tid 1) are gone.
        assert_eq!(removed, 2);
        assert_eq!(db.partitions_of("r").unwrap()[0].len(), 1);
        assert_eq!(db.partitions_of("r").unwrap()[1].len(), 1);
        assert!(is_reduced(&db).unwrap());
    }

    #[test]
    fn reduction_preserves_the_world_set() {
        let mut db = example_3_2();
        let before = db.possible_worlds(16).unwrap();
        reduce(&mut db).unwrap();
        let after = db.possible_worlds(16).unwrap();
        assert_eq!(before.len(), after.len());
        for ((f1, w1), (f2, w2)) in before.iter().zip(&after) {
            assert_eq!(f1, f2);
            assert!(w1["r"].set_eq(&w2["r"]));
        }
    }

    #[test]
    fn figure1_is_already_reduced() {
        let mut db = figure1_database();
        assert!(is_reduced(&db).unwrap());
        assert_eq!(reduce(&mut db).unwrap(), 0);
    }

    /// `r[a, b]` as `u_ab`, `u_a` and `u_b`: tuple 2 is missing from
    /// `u_ab` but complete in world x1 ↦ 0 through `u_a` and `u_b`, and
    /// tuple 3 has an `a` but no `b` anywhere.
    #[test]
    fn overlapping_partitions_keep_tuples_completed_elsewhere() {
        let mut w = WorldTable::new();
        w.add_var(Var(1), vec![0, 1]).unwrap();
        let mut db = UDatabase::new(w);
        db.add_relation("r", ["a", "b"]).unwrap();
        let mut u_ab = URelation::partition("u_ab", ["a", "b"]);
        u_ab.push_simple(WsDescriptor::empty(), 1, vec![Value::Int(7), Value::Int(0)])
            .unwrap();
        db.add_partition("r", u_ab).unwrap();
        let x1_0 = WsDescriptor::singleton(Var(1), 0);
        let mut u_a = URelation::partition("u_a", ["a"]);
        u_a.push_simple(WsDescriptor::empty(), 1, vec![Value::Int(7)])
            .unwrap();
        u_a.push_simple(x1_0.clone(), 2, vec![Value::Int(8)])
            .unwrap();
        u_a.push_simple(WsDescriptor::empty(), 3, vec![Value::Int(5)])
            .unwrap();
        db.add_partition("r", u_a).unwrap();
        let mut u_b = URelation::partition("u_b", ["b"]);
        u_b.push_simple(WsDescriptor::empty(), 1, vec![Value::Int(0)])
            .unwrap();
        u_b.push_simple(x1_0, 2, vec![Value::Int(9)]).unwrap();
        db.add_partition("r", u_b).unwrap();
        db.validate().unwrap();

        let before = db.possible_worlds(16).unwrap();
        // Only tuple 3's `a` row goes.
        assert_eq!(reduce(&mut db).unwrap(), 1);
        assert!(is_reduced(&db).unwrap());
        let after = db.possible_worlds(16).unwrap();
        assert_eq!(before.len(), after.len());
        for ((f1, w1), (f2, w2)) in before.iter().zip(&after) {
            assert_eq!(f1, f2);
            assert!(w1["r"].set_eq(&w2["r"]));
        }
        // Tuple 2 is in world x1 ↦ 0.
        assert_eq!(after[0].1["r"].len(), 2);
    }

    /// `r[a]` held by `u_a` (tuple 1 under ⊤) beside an empty `u_p[]`
    /// without value columns: tuple 1 exists in every world, so
    /// reduction must keep it.
    pub(crate) fn valueless_sibling_db() -> UDatabase {
        let mut w = WorldTable::new();
        w.add_var(Var(1), vec![0, 1]).unwrap();
        let mut db = UDatabase::new(w);
        db.add_relation("r", ["a"]).unwrap();
        let mut u_a = URelation::partition("u_a", ["a"]);
        u_a.push_simple(WsDescriptor::empty(), 1, vec![Value::Int(7)])
            .unwrap();
        db.add_partition("r", u_a).unwrap();
        db.add_partition("r", URelation::partition("u_p", Vec::<String>::new()))
            .unwrap();
        db.validate().unwrap();
        db
    }

    #[test]
    fn valueless_siblings_are_not_required_partners() {
        let mut db = valueless_sibling_db();
        let before = db.possible_worlds(16).unwrap();
        assert!(before.iter().all(|(_, w)| w["r"].len() == 1));
        assert!(is_reduced(&db).unwrap());
        assert_eq!(reduce(&mut db).unwrap(), 0);
        assert_eq!(db.partitions_of("r").unwrap()[0].len(), 1);
    }

    #[test]
    fn cascading_removals_reach_a_fixpoint() {
        // u1(tid 1) depends on u2(tid 1) which depends on a missing
        // u3 partner — the removal must cascade back to u1.
        let mut w = WorldTable::new();
        w.add_var(Var(1), vec![1, 2]).unwrap();
        let mut db = UDatabase::new(w);
        db.add_relation("r", ["a", "b", "c"]).unwrap();
        let mut u1 = URelation::partition("u1", ["a"]);
        u1.push_simple(WsDescriptor::empty(), 1, vec![Value::str("a")])
            .unwrap();
        db.add_partition("r", u1).unwrap();
        let mut u2 = URelation::partition("u2", ["b"]);
        u2.push_simple(WsDescriptor::empty(), 1, vec![Value::str("b")])
            .unwrap();
        db.add_partition("r", u2).unwrap();
        let u3 = URelation::partition("u3", ["c"]);
        // u3 is empty: nothing completes.
        db.add_partition("r", u3).unwrap();
        let removed = reduce(&mut db).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(db.total_rows(), 0);
    }
}
