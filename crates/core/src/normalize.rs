//! Normalization of ws-descriptors — Algorithm 1 (Section 4).
//!
//! Variables that co-occur in some descriptor are fused: each connected
//! component `Gᵢ` of the co-occurrence graph becomes a single fresh
//! variable whose domain is the product of the member domains, with the
//! injective mixed-radix encoding playing the role of the paper's
//! `f_{|Gᵢ|}`. Every row's descriptor is expanded over the unconstrained
//! members of its component, yielding descriptors of size ≤ 1
//! (Definition 4.1). The blow-up is inherent — it is exactly the
//! exponential separation between U-relations and WSDs (Theorem 5.2).

use crate::descriptor::WsDescriptor;
use crate::error::{Error, Result};
use crate::udb::UDatabase;
use crate::urelation::{URelation, URow};
use crate::world::{Var, WorldTable};
use std::collections::BTreeMap;

/// Hard cap on a fused component's domain size; beyond this the
/// normalization would not fit in memory anyway.
const MAX_COMPONENT_DOMAIN: u128 = 1 << 22;

/// Union–find over dense variable positions.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The result of normalizing: the rewritten U-relations plus the new
/// world table `W'`.
pub struct Normalized {
    /// Rewritten relations, in input order.
    pub relations: Vec<URelation>,
    /// The new world table: one variable per fused component.
    pub world: WorldTable,
    /// Fused components: new variable → ordered original members.
    pub components: BTreeMap<Var, Vec<Var>>,
}

/// Normalize a set of U-relations sharing one world table (Algorithm 1).
///
/// Only the variables that the inputs' descriptors mention are fused
/// into `W'`: the others constrain no row, so dropping them changes no
/// answer of Lemma 4.3 or of confidence, and the work follows the result
/// rather than `W`. [`normalize`] keeps them, as Theorem 4.2 needs.
///
/// The input should be reduced (Algorithm 1's precondition); rows whose
/// descriptors are already of size ≤ 1 and whose variable co-occurs with
/// nothing are passed through unchanged.
pub fn normalize_urelations(us: &[&URelation], w: &WorldTable) -> Result<Normalized> {
    fuse(us, w, false)
}

/// Algorithm 1 over the variables the descriptors of `us` mention, plus
/// every variable of `w` when `all_vars` is set.
fn fuse(us: &[&URelation], w: &WorldTable, all_vars: bool) -> Result<Normalized> {
    // 1. Dense positions for the variables in scope, then the connected
    // components of the co-occurrence graph.
    let mut vars: Vec<Var> = us
        .iter()
        .flat_map(|u| u.rows())
        .flat_map(|row| row.desc.vars())
        .collect();
    if all_vars {
        vars.extend(w.vars());
    }
    vars.sort_unstable();
    vars.dedup();
    let pos = |v: Var| vars.binary_search(&v).expect("collected");
    let mut uf = UnionFind::new(vars.len());
    for u in us {
        for row in u.rows() {
            let mut it = row.desc.vars();
            if let Some(first) = it.next() {
                let first = pos(first);
                for v in it {
                    uf.union(first, pos(v));
                }
            }
        }
    }
    // Components in order of their smallest member, members ascending.
    let mut comp_of_root: Vec<Option<usize>> = vec![None; vars.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..vars.len() {
        let root = uf.find(i);
        let c = *comp_of_root[root].get_or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[c].push(i);
    }

    // 2. One fresh variable per component; domain = product of member
    // domains under the mixed-radix encoding.
    let mut new_world = WorldTable::new();
    let mut comp_members: BTreeMap<Var, Vec<Var>> = BTreeMap::new();
    // Per position: (component, stride, domain).
    let mut place: Vec<(usize, u64, &[u64])> = vec![(0, 0, &[]); vars.len()];
    let mut fused_of: Vec<Var> = Vec::with_capacity(groups.len());
    for (c, group) in groups.iter().enumerate() {
        let fused = Var(c as u32 + 1);
        let mut size: u128 = 1;
        let mut stride: u64 = 1;
        let mut probs: Vec<f64> = vec![1.0];
        for &i in group {
            let m = vars[i];
            let dom = w.domain(m)?;
            size *= dom.len() as u128;
            if size > MAX_COMPONENT_DOMAIN {
                return Err(Error::TooLarge(format!(
                    "fused component domain exceeds {MAX_COMPONENT_DOMAIN}"
                )));
            }
            // Probabilities multiply across members in stride order.
            if w.is_probabilistic() {
                let mut next_probs = Vec::with_capacity(probs.len() * dom.len());
                for &dval in dom {
                    let p = w.prob(m, dval)?;
                    for q in &probs {
                        next_probs.push(q * p);
                    }
                }
                probs = next_probs;
            }
            place[i] = (c, stride, dom);
            stride = stride
                .checked_mul(dom.len() as u64)
                .ok_or_else(|| Error::TooLarge("component stride overflow".into()))?;
        }
        new_world.add_var(fused, (0..size as u64).collect())?;
        if w.is_probabilistic() {
            new_world.set_probabilities(fused, probs)?;
        }
        comp_members.insert(fused, group.iter().map(|&i| vars[i]).collect());
        fused_of.push(fused);
    }

    // 3. Rewrite every row: expand over the unconstrained members of its
    // component.
    let mut relations = Vec::with_capacity(us.len());
    for u in us {
        let mut out = URelation::new(
            u.name.clone(),
            u.tid_cols().to_vec(),
            u.value_cols().to_vec(),
        );
        for row in u.rows() {
            let Some(first) = row.desc.vars().next() else {
                out.push(row.clone())?;
                continue;
            };
            let c = place[pos(first)].0;
            // Base offset from the constrained members; free members are
            // the rest.
            let mut base: u64 = 0;
            let mut free: Vec<usize> = Vec::new();
            for &i in &groups[c] {
                let (_, stride, dom) = place[i];
                match row.desc.get(vars[i]) {
                    Some(val) => {
                        let idx = dom.binary_search(&val).map_err(|_| {
                            Error::UnknownWorld(format!("{} ↦ {val} not in W", vars[i]))
                        })? as u64;
                        base += idx * stride;
                    }
                    None => free.push(i),
                }
            }
            // Enumerate all completions over the free members.
            let mut offsets: Vec<u64> = vec![0];
            for &i in &free {
                let (_, stride, dom) = place[i];
                let mut next = Vec::with_capacity(offsets.len() * dom.len());
                for idx in 0..dom.len() as u64 {
                    for &o in &offsets {
                        next.push(o + idx * stride);
                    }
                }
                offsets = next;
            }
            for o in offsets {
                out.push(URow::new(
                    WsDescriptor::singleton(fused_of[c], base + o),
                    row.tids.to_vec(),
                    row.vals.to_vec(),
                ))?;
            }
        }
        relations.push(out);
    }

    Ok(Normalized {
        relations,
        world: new_world,
        components: comp_members,
    })
}

/// Normalize a whole U-relational database (Theorem 4.2). The result
/// represents the same world-set with all descriptors of size ≤ 1; the
/// variables no partition mentions stay, one fused variable each, so the
/// world count is kept too.
pub fn normalize(db: &UDatabase) -> Result<UDatabase> {
    let rels: Vec<String> = db.relations().map(str::to_string).collect();
    let mut refs: Vec<&URelation> = Vec::new();
    let mut layout: Vec<(String, usize)> = Vec::new();
    for r in &rels {
        let parts = db.partitions_of(r)?;
        layout.push((r.clone(), parts.len()));
        refs.extend(parts.iter());
    }
    let normalized = fuse(&refs, &db.world, true)?;
    let mut out = UDatabase::new(normalized.world);
    let mut it = normalized.relations.into_iter();
    for (r, n) in layout {
        out.add_relation(&r, db.attrs(&r)?.to_vec())?;
        for _ in 0..n {
            out.add_partition(&r, it.next().expect("layout matches"))?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::table;
    use crate::certain::certain_lemma43;
    use crate::certain::tests::partial_db;
    use crate::udb::figure1_database;
    use std::collections::BTreeSet;
    use urel_relalg::Value;

    /// The exact database of Figure 5(a).
    fn figure5_input() -> (URelation, WorldTable) {
        let mut w = WorldTable::new();
        w.add_var(Var(1), vec![1, 2]).unwrap(); // c1
        w.add_var(Var(2), vec![1, 2]).unwrap(); // c2
        w.add_var(Var(3), vec![1, 2]).unwrap(); // c3
        let mut u = URelation::partition("u", ["a"]);
        let d = |pairs: &[(u32, u64)]| {
            WsDescriptor::from_pairs(pairs.iter().map(|&(v, x)| (Var(v), x))).unwrap()
        };
        u.push_simple(d(&[(1, 1)]), 1, vec![Value::str("a1")])
            .unwrap();
        u.push_simple(d(&[(1, 1), (2, 2)]), 2, vec![Value::str("a2")])
            .unwrap();
        u.push_simple(d(&[(1, 2)]), 2, vec![Value::str("a3")])
            .unwrap();
        u.push_simple(d(&[(3, 1)]), 3, vec![Value::str("a4")])
            .unwrap();
        u.push_simple(d(&[(3, 2)]), 3, vec![Value::str("a5")])
            .unwrap();
        (u, w)
    }

    #[test]
    fn figure5_normalization() {
        let (u, w) = figure5_input();
        let n = normalize_urelations(&[&u], &w).unwrap();
        let out = &n.relations[0];
        assert!(out.is_normalized());
        // Figure 5(b): 7 rows — a1 twice, a2 once, a3 twice, a4, a5.
        assert_eq!(out.len(), 7);
        let count = |val: &str| {
            out.rows()
                .iter()
                .filter(|r| r.vals[0] == Value::str(val))
                .count()
        };
        assert_eq!(count("a1"), 2);
        assert_eq!(count("a2"), 1);
        assert_eq!(count("a3"), 2);
        assert_eq!(count("a4"), 1);
        assert_eq!(count("a5"), 1);
        // The fused component {c1, c2} has 4 domain values; c3 keeps 2.
        let sizes: BTreeSet<usize> = n
            .world
            .vars()
            .map(|v| n.world.domain(v).unwrap().len())
            .collect();
        assert_eq!(sizes, BTreeSet::from([2, 4]));
        // a2 (c1↦1, c2↦2) and one expansion of a1 (c1↦1 with c2↦2) share
        // the same fused value.
        let a2 = out
            .rows()
            .iter()
            .find(|r| r.vals[0] == Value::str("a2"))
            .unwrap();
        assert!(out
            .rows()
            .iter()
            .any(|r| r.vals[0] == Value::str("a1") && r.desc == a2.desc));
    }

    /// A result that mentions 2 of 40 variables normalizes to a world
    /// of its touched components only.
    #[test]
    fn only_mentioned_variables_are_fused() {
        let mut w = WorldTable::new();
        for i in 1..=40 {
            w.add_var(Var(i), vec![0, 1]).unwrap();
        }
        let mut u = URelation::partition("u", ["a"]);
        for l in [0, 1] {
            u.push_simple(WsDescriptor::singleton(Var(3), l), 1, vec![Value::Int(1)])
                .unwrap();
        }
        u.push_simple(WsDescriptor::singleton(Var(17), 1), 2, vec![Value::Int(2)])
            .unwrap();
        u.push_simple(WsDescriptor::empty(), 3, vec![Value::Int(3)])
            .unwrap();
        let n = normalize_urelations(&[&u], &w).unwrap();
        assert_eq!(n.world.var_count(), 2);
        assert_eq!(n.components.len(), 2);
        let full = fuse(&[&u], &w, true).unwrap();
        assert_eq!(full.world.var_count(), 40);
        let cert = certain_lemma43(&n.relations[0], &n.world).unwrap();
        assert!(cert.set_eq(&certain_lemma43(&full.relations[0], &full.world).unwrap()));
        assert_eq!(cert.len(), 2, "{cert}");

        // x3 and x17 co-occurring make one touched component.
        let both = WsDescriptor::from_pairs([(Var(3), 0), (Var(17), 0)]).unwrap();
        u.push_simple(both, 4, vec![Value::Int(4)]).unwrap();
        let n = normalize_urelations(&[&u], &w).unwrap();
        assert_eq!(n.world.var_count(), 1);
        assert_eq!(n.components.len(), 1);
    }

    /// Lemma 4.3 over the touched-only normalization answers as over the
    /// full-`W` one.
    #[test]
    fn touched_normalization_keeps_certain_answers() {
        let check = |u: &URelation, w: &WorldTable| {
            let touched = normalize_urelations(&[u], w).unwrap();
            let full = fuse(&[u], w, true).unwrap();
            assert!(touched.world.var_count() <= full.world.var_count());
            let got = certain_lemma43(&touched.relations[0], &touched.world).unwrap();
            let want = certain_lemma43(&full.relations[0], &full.world).unwrap();
            assert!(got.set_eq(&want), "{got} vs {want}");
        };
        let (u, mut w) = figure5_input();
        check(&u, &w);
        for i in 4..=12 {
            w.add_var(Var(i), vec![0, 1, 2]).unwrap();
        }
        check(&u, &w);

        let db = partial_db();
        for u in db.partitions_of("r").unwrap() {
            check(u, &db.world);
        }
        let prepared = db.prepare();
        for q in [
            table("r"),
            table("r").project(["a"]),
            table("r").project(["b"]),
        ] {
            check(&prepared.evaluate(&q).unwrap(), &db.world);
        }
    }

    #[test]
    fn theorem_4_2_world_set_is_preserved() {
        let (u, w) = figure5_input();
        let mut db = UDatabase::new(w);
        db.add_relation("r", ["a"]).unwrap();
        db.add_partition("r", u).unwrap();
        let norm = normalize(&db).unwrap();

        // Same number of worlds, and the same *set* of world instances.
        assert_eq!(db.world.world_count_exact(), norm.world.world_count_exact());
        let canon = |db: &UDatabase| -> Vec<String> {
            let mut v: Vec<String> = db
                .possible_worlds(64)
                .unwrap()
                .iter()
                .map(|(_, inst)| format!("{}", inst["r"].sorted_set()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(&db), canon(&norm));
    }

    #[test]
    fn figure1_database_is_untouched_modulo_renaming() {
        // All descriptors in Figure 1 already have size ≤ 1 and no
        // co-occurrence, so normalization only renames variables.
        let db = figure1_database();
        let norm = normalize(&db).unwrap();
        assert_eq!(db.total_rows(), norm.total_rows());
        assert_eq!(db.world.world_count_exact(), norm.world.world_count_exact());
        for rel in ["r"] {
            for (a, b) in db
                .partitions_of(rel)
                .unwrap()
                .iter()
                .zip(norm.partitions_of(rel).unwrap())
            {
                assert!(b.is_normalized());
                assert_eq!(a.len(), b.len());
            }
        }
    }

    #[test]
    fn probabilities_multiply_through_fusion() {
        let mut w = WorldTable::new();
        w.add_var(Var(1), vec![0, 1]).unwrap();
        w.add_var(Var(2), vec![0, 1]).unwrap();
        w.set_probabilities(Var(1), vec![0.25, 0.75]).unwrap();
        w.set_probabilities(Var(2), vec![0.5, 0.5]).unwrap();
        let mut u = URelation::partition("u", ["a"]);
        u.push_simple(
            WsDescriptor::from_pairs([(Var(1), 0), (Var(2), 1)]).unwrap(),
            1,
            vec![Value::Int(1)],
        )
        .unwrap();
        let n = normalize_urelations(&[&u], &w).unwrap();
        let fused = n.components.keys().next().copied().unwrap();
        // The fused row's probability must be 0.25 × 0.5.
        let row = &n.relations[0].rows()[0];
        let (v, val) = *row.desc.iter().next().unwrap();
        assert_eq!(v, fused);
        assert!((n.world.prob(v, val).unwrap() - 0.125).abs() < 1e-12);
        // And the fused distribution still sums to one.
        let total: f64 = n
            .world
            .domain(fused)
            .unwrap()
            .iter()
            .map(|&l| n.world.prob(fused, l).unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_components_are_rejected() {
        let mut w = WorldTable::new();
        // 8 variables of domain 8 co-occurring pairwise → 8^8 = 2^24 > cap.
        for i in 1..=8 {
            w.add_var(Var(i), (0..8).collect()).unwrap();
        }
        let mut u = URelation::partition("u", ["a"]);
        let pairs: Vec<(Var, u64)> = (1..=8).map(|i| (Var(i), 0)).collect();
        u.push_simple(
            WsDescriptor::from_pairs(pairs).unwrap(),
            1,
            vec![Value::Int(0)],
        )
        .unwrap();
        assert!(matches!(
            normalize_urelations(&[&u], &w),
            Err(Error::TooLarge(_))
        ));
    }
}
