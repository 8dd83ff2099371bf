//! World tables and possible worlds (Section 2).
//!
//! A world-set is represented by a set of variables over finite domains,
//! stored relationally as `W(Var, Rng)`. A *possible world* is a total
//! valuation of the variables; the world-set is the set of all total
//! valuations. The probabilistic extension of Section 7 adds a probability
//! column `P` to `W` with `Σ_v P(x ↦ v) = 1` per variable.

use crate::descriptor::WsDescriptor;
use crate::error::{Error, Result};
use std::collections::BTreeMap;
use urel_relalg::{Column, Relation};

/// A variable identifier. `Var(0)` is the reserved ⊤ variable with the
/// singleton domain `{0}`: the paper's "new variable with a singleton
/// domain" shortcut that lets the empty ws-descriptor stand for the entire
/// world-set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

/// The reserved always-true variable.
pub const TOP: Var = Var(0);

impl std::fmt::Display for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == TOP {
            write!(f, "⊤")
        } else {
            write!(f, "x{}", self.0)
        }
    }
}

/// A total valuation of the world table's variables — one possible world.
pub type Valuation = BTreeMap<Var, u64>;

/// The world table `W(Var, Rng)` (+ optional probabilities).
#[derive(Clone, Debug, PartialEq)]
pub struct WorldTable {
    /// Variable → sorted domain values.
    domains: BTreeMap<Var, Vec<u64>>,
    /// Variable → probabilities parallel to its domain (empty map when the
    /// database is non-probabilistic).
    probs: BTreeMap<Var, Vec<f64>>,
    next_var: u32,
}

impl Default for WorldTable {
    fn default() -> Self {
        WorldTable::new()
    }
}

impl WorldTable {
    /// Empty world table; ⊤ is pre-registered with domain `{0}`.
    pub fn new() -> Self {
        let mut domains = BTreeMap::new();
        domains.insert(TOP, vec![0]);
        WorldTable {
            domains,
            probs: BTreeMap::new(),
            next_var: 1,
        }
    }

    /// Register a variable with an explicit domain. Rejects ⊤, duplicates,
    /// empty domains and duplicate domain values.
    pub fn add_var(&mut self, var: Var, domain: Vec<u64>) -> Result<()> {
        if var == TOP {
            return Err(Error::UnknownWorld("Var(0) is reserved for ⊤".into()));
        }
        if self.domains.contains_key(&var) {
            return Err(Error::UnknownWorld(format!("{var} already declared")));
        }
        let mut sorted = domain;
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        if sorted.is_empty() || sorted.len() != before {
            return Err(Error::UnknownWorld(format!(
                "domain of {var} must be non-empty and duplicate-free"
            )));
        }
        self.next_var = self.next_var.max(var.0 + 1);
        self.domains.insert(var, sorted);
        Ok(())
    }

    /// Register a fresh variable with domain `0..n` and return it.
    pub fn fresh_var(&mut self, domain_size: u64) -> Result<Var> {
        let v = Var(self.next_var);
        self.add_var(v, (0..domain_size.max(1)).collect())?;
        Ok(v)
    }

    /// Attach a probability distribution to a declared variable. The
    /// probabilities must be non-negative and sum to 1 (±1e-9).
    pub fn set_probabilities(&mut self, var: Var, probs: Vec<f64>) -> Result<()> {
        let dom = self
            .domains
            .get(&var)
            .ok_or_else(|| Error::UnknownWorld(format!("{var} not declared")))?;
        if probs.len() != dom.len() {
            return Err(Error::UnknownWorld(format!(
                "{var}: {} probabilities for {} domain values",
                probs.len(),
                dom.len()
            )));
        }
        let sum: f64 = probs.iter().sum();
        if probs.iter().any(|p| *p < 0.0) || (sum - 1.0).abs() > 1e-9 {
            return Err(Error::UnknownWorld(format!(
                "{var}: probabilities must be non-negative and sum to 1 (got {sum})"
            )));
        }
        self.probs.insert(var, probs);
        Ok(())
    }

    /// `true` once any variable carries probabilities.
    pub fn is_probabilistic(&self) -> bool {
        !self.probs.is_empty()
    }

    /// `P(var ↦ val)`. Variables without explicit probabilities are
    /// uniform over their domain.
    pub fn prob(&self, var: Var, val: u64) -> Result<f64> {
        let dom = self
            .domains
            .get(&var)
            .ok_or_else(|| Error::UnknownWorld(format!("{var} not declared")))?;
        let idx = dom
            .binary_search(&val)
            .map_err(|_| Error::UnknownWorld(format!("{var} ↦ {val} not in domain")))?;
        Ok(match self.probs.get(&var) {
            Some(p) => p[idx],
            None => 1.0 / dom.len() as f64,
        })
    }

    /// The explicit probabilities of a variable, parallel to its domain;
    /// `None` for a uniform variable.
    pub(crate) fn explicit_probs(&self, var: Var) -> Option<&[f64]> {
        self.probs.get(&var).map(Vec::as_slice)
    }

    /// The domain of a variable.
    pub fn domain(&self, var: Var) -> Result<&[u64]> {
        self.domains
            .get(&var)
            .map(Vec::as_slice)
            .ok_or_else(|| Error::UnknownWorld(format!("{var} not declared")))
    }

    /// Is `var ↦ val` a row of `W`?
    pub fn contains(&self, var: Var, val: u64) -> bool {
        self.domains
            .get(&var)
            .is_some_and(|d| d.binary_search(&val).is_ok())
    }

    /// All declared variables except ⊤.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.domains.keys().copied().filter(|v| *v != TOP)
    }

    /// Number of declared variables (excluding ⊤).
    pub fn var_count(&self) -> usize {
        self.domains.len() - 1
    }

    /// log₁₀ of the number of possible worlds (Figure 9 reports this as
    /// `10^…`). Zero variables ⇒ one world ⇒ 0.
    pub fn world_count_log10(&self) -> f64 {
        self.vars()
            .map(|v| (self.domains[&v].len() as f64).log10())
            .sum()
    }

    /// Exact world count if it fits in `u128`.
    pub fn world_count_exact(&self) -> Option<u128> {
        let mut n: u128 = 1;
        for v in self.vars() {
            n = n.checked_mul(self.domains[&v].len() as u128)?;
        }
        Some(n)
    }

    /// Largest domain size — the "max. number of local worlds" column of
    /// Figure 9.
    pub fn max_domain_size(&self) -> usize {
        self.vars()
            .map(|v| self.domains[&v].len())
            .max()
            .unwrap_or(1)
    }

    /// Enumerate every total valuation. Errors (rather than looping
    /// forever) when the world-set exceeds `limit`.
    pub fn worlds(&self, limit: usize) -> Result<Vec<Valuation>> {
        let count = self.world_count_exact().unwrap_or(u128::MAX);
        if count > limit as u128 {
            return Err(Error::TooLarge(format!(
                "{count} worlds exceeds enumeration limit {limit}"
            )));
        }
        let vars: Vec<Var> = self.vars().collect();
        let mut out = vec![Valuation::new()];
        for v in vars {
            let dom = &self.domains[&v];
            let mut next = Vec::with_capacity(out.len() * dom.len());
            for w in &out {
                for &val in dom {
                    let mut w2 = w.clone();
                    w2.insert(v, val);
                    next.push(w2);
                }
            }
            out = next;
        }
        Ok(out)
    }

    /// Does the total valuation `f` extend the descriptor `d`
    /// (∀x ∈ dom(d): d(x) = f(x))? ⊤ assignments hold vacuously.
    pub fn extends(&self, f: &Valuation, d: &WsDescriptor) -> bool {
        d.iter()
            .all(|&(v, val)| v == TOP && val == 0 || f.get(&v) == Some(&val))
    }

    /// Probability of one world (product over variables).
    pub fn world_prob(&self, f: &Valuation) -> Result<f64> {
        let mut p = 1.0;
        for (&v, &val) in f {
            p *= self.prob(v, val)?;
        }
        Ok(p)
    }

    /// Check that a descriptor only mentions declared (var, value) pairs —
    /// i.e. its graph is a subset of `W` as Definition 2.2 requires.
    pub fn check_descriptor(&self, d: &WsDescriptor) -> Result<()> {
        for &(v, val) in d.iter() {
            if !self.contains(v, val) {
                return Err(Error::UnknownWorld(format!(
                    "descriptor entry {v} ↦ {val} not in W"
                )));
            }
        }
        Ok(())
    }

    /// Encode as the relational `W(Var, Rng)` table (plus `P` when
    /// probabilistic), exactly as stored in an RDBMS — born columnar,
    /// like [`crate::URelation::encode`].
    pub fn encode(&self) -> Relation {
        let probabilistic = self.is_probabilistic();
        let names: Vec<&str> = if probabilistic {
            vec!["var", "rng", "p"]
        } else {
            vec!["var", "rng"]
        };
        let mut cols: Vec<Vec<i64>> = vec![Vec::new(); names.len()];
        for v in self.vars() {
            for &val in &self.domains[&v] {
                cols[0].push(v.0 as i64);
                cols[1].push(val as i64);
                if probabilistic {
                    // Probabilities ride along as micro-units to stay in
                    // the integer value model.
                    let p = self.prob(v, val).unwrap_or(0.0);
                    cols[2].push((p * 1_000_000.0).round() as i64);
                }
            }
        }
        let len = cols[0].len();
        let cols = cols.into_iter().map(Column::from_ints).collect();
        Relation::from_columns(names, cols, len).expect("well-formed W encoding")
    }

    /// Total size in bytes of the `W` relation (Figure 9 accounting).
    pub fn size_bytes(&self) -> usize {
        self.vars().map(|v| self.domains[&v].len() * 16).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> WorldTable {
        let mut w = WorldTable::new();
        w.add_var(Var(1), vec![1, 2]).unwrap();
        w.add_var(Var(2), vec![1, 2, 3]).unwrap();
        w
    }

    #[test]
    fn counts() {
        let w = table();
        assert_eq!(w.world_count_exact(), Some(6));
        assert_eq!(w.var_count(), 2);
        assert_eq!(w.max_domain_size(), 3);
        assert!((w.world_count_log10() - 6f64.log10()).abs() < 1e-12);
    }

    #[test]
    fn enumeration_is_exhaustive_and_bounded() {
        let w = table();
        let worlds = w.worlds(100).unwrap();
        assert_eq!(worlds.len(), 6);
        // All distinct.
        let mut seen = std::collections::BTreeSet::new();
        for world in &worlds {
            assert!(seen.insert(format!("{world:?}")));
            assert_eq!(world.len(), 2);
        }
        assert!(w.worlds(5).is_err());
    }

    #[test]
    fn reserved_top() {
        let mut w = WorldTable::new();
        assert!(w.add_var(TOP, vec![0]).is_err());
        assert_eq!(w.world_count_exact(), Some(1));
        assert_eq!(w.worlds(10).unwrap().len(), 1);
    }

    #[test]
    fn fresh_vars_monotone() {
        let mut w = table();
        let v = w.fresh_var(4).unwrap();
        assert!(v.0 >= 3);
        assert_eq!(w.domain(v).unwrap().len(), 4);
    }

    #[test]
    fn extends_and_check() {
        let w = table();
        let f: Valuation = [(Var(1), 1), (Var(2), 3)].into_iter().collect();
        assert!(w.extends(&f, &WsDescriptor::empty()));
        assert!(w.extends(&f, &WsDescriptor::singleton(Var(1), 1)));
        assert!(!w.extends(&f, &WsDescriptor::singleton(Var(1), 2)));
        assert!(w
            .check_descriptor(&WsDescriptor::singleton(Var(1), 2))
            .is_ok());
        assert!(w
            .check_descriptor(&WsDescriptor::singleton(Var(9), 0))
            .is_err());
        assert!(w
            .check_descriptor(&WsDescriptor::singleton(Var(1), 7))
            .is_err());
    }

    #[test]
    fn probabilities() {
        let mut w = table();
        // Uniform by default.
        assert!((w.prob(Var(2), 3).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        w.set_probabilities(Var(1), vec![0.3, 0.7]).unwrap();
        assert!((w.prob(Var(1), 2).unwrap() - 0.7).abs() < 1e-12);
        assert!(w.set_probabilities(Var(1), vec![0.5]).is_err());
        assert!(w.set_probabilities(Var(1), vec![0.5, 0.6]).is_err());
        assert!(w.is_probabilistic());
        // World probabilities multiply.
        let f: Valuation = [(Var(1), 2), (Var(2), 1)].into_iter().collect();
        assert!((w.world_prob(&f).unwrap() - 0.7 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn encode_matches_paper_layout() {
        let w = table();
        let rel = w.encode();
        assert_eq!(rel.schema().to_string(), "var, rng");
        assert_eq!(rel.len(), 5);
    }

    #[test]
    fn domain_validation() {
        let mut w = WorldTable::new();
        assert!(w.add_var(Var(1), vec![]).is_err());
        assert!(w.add_var(Var(1), vec![1, 1]).is_err());
        w.add_var(Var(1), vec![2, 1]).unwrap();
        assert_eq!(w.domain(Var(1)).unwrap(), &[1, 2]);
        assert!(w.add_var(Var(1), vec![3]).is_err());
    }
}
