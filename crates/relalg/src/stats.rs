//! Per-relation statistics for cardinality estimation.

use crate::fxhash::FxHashSet;
use crate::relation::{Column, Relation};
use crate::value::Value;

/// Row count plus per-column number-of-distinct-values (NDV).
///
/// NDV drives the textbook equi-join estimate
/// `|L ⋈ R| ≈ |L|·|R| / max(ndv_L(k), ndv_R(k))` used by the greedy join
/// reorderer, mirroring what PostgreSQL's planner did for the paper's
/// translated queries. A descriptor entry is one column in the
/// [`crate::expr::pack`] code, so its column's NDV is the joint
/// `(Var, Rng)` distinct count that ψ estimates read.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Number of rows.
    pub rows: usize,
    /// Distinct value count per column (same order as the schema).
    pub ndv: Vec<usize>,
    /// Total payload bytes of the relation (the Figure 9 accounting).
    /// With `rows`, this gives the average row width the memory-budget
    /// planner uses to predict which breakers will spill.
    pub bytes: usize,
    /// Per-column (min, max) bounds under the total `Value` order, or
    /// `None` for an empty relation. Accumulated by the writer of a
    /// disk-native relation as it streams rows; computed directly here
    /// otherwise. Range-predicate selectivity reads these.
    pub minmax: Vec<Option<(Value, Value)>>,
}

impl TableStats {
    /// Exact single-pass computation over the relation's columnar image
    /// (in-memory relations are small enough that sampling is not worth
    /// its complexity here). Typed columns count distincts without any
    /// `Value` hashing, and — since the catalog computes statistics
    /// eagerly at registration — this also builds and caches the image
    /// of a relation built from rows, so the first batched scan pays no
    /// conversion. Neither the image nor [`Relation::size_bytes`]
    /// materializes a column-born relation's rows.
    pub fn compute(rel: &Relation) -> TableStats {
        let cols = rel.columns().cols();
        let ndv: Vec<usize> = cols
            .iter()
            .map(|c| {
                match c {
                    Column::Int(v) => v.iter().collect::<FxHashSet<_>>().len(),
                    Column::Str(v) => v.iter().map(|s| s.as_ref()).collect::<FxHashSet<_>>().len(),
                    Column::IntN(v, m) => {
                        let typed = (0..v.len())
                            .filter(|&i| !m.is_null(i))
                            .map(|i| v[i])
                            .collect::<FxHashSet<_>>()
                            .len();
                        typed + usize::from(m.null_count() > 0)
                    }
                    Column::StrN(v, m) => {
                        let typed = (0..v.len())
                            .filter(|&i| !m.is_null(i))
                            .map(|i| v[i].as_ref())
                            .collect::<FxHashSet<_>>()
                            .len();
                        typed + usize::from(m.null_count() > 0)
                    }
                    Column::Mixed(v) => v.iter().collect::<FxHashSet<_>>().len(),
                }
                .max(1)
            })
            .collect();
        let minmax: Vec<Option<(Value, Value)>> = cols
            .iter()
            .map(|c| {
                (0..rel.len()).map(|i| c.get(i)).fold(None, |acc, v| {
                    Some(match acc {
                        None => (v.clone(), v),
                        Some((lo, hi)) => {
                            if v < lo {
                                (v, hi)
                            } else if v > hi {
                                (lo, v)
                            } else {
                                (lo, hi)
                            }
                        }
                    })
                })
            })
            .collect();
        TableStats {
            rows: rel.len(),
            ndv,
            bytes: rel.size_bytes(),
            minmax,
        }
    }

    /// The (min, max) bounds of a column, when known and non-empty.
    pub fn minmax(&self, col: usize) -> Option<&(Value, Value)> {
        self.minmax.get(col).and_then(Option::as_ref)
    }

    /// Average payload bytes per row (a small constant floor keeps the
    /// estimate meaningful for empty or zero-width relations).
    pub fn avg_row_bytes(&self) -> f64 {
        if self.rows == 0 {
            16.0
        } else {
            (self.bytes as f64 / self.rows as f64).max(1.0)
        }
    }

    /// NDV for a column index (1 when out of range, keeping estimates
    /// defined for computed columns).
    pub fn ndv_or_default(&self, col: usize) -> usize {
        self.ndv.get(col).copied().unwrap_or(1).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn ndv_counts() {
        let rel = Relation::from_rows(
            ["a", "b"],
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(1), Value::str("y")],
                vec![Value::Int(2), Value::str("x")],
            ],
        )
        .unwrap();
        let st = TableStats::compute(&rel);
        assert_eq!(st.rows, 3);
        assert_eq!(st.ndv, vec![2, 2]);
    }

    #[test]
    fn empty_relation_has_floor_ndv() {
        let rel = Relation::from_rows(["a"], Vec::<Vec<Value>>::new()).unwrap();
        let st = TableStats::compute(&rel);
        assert_eq!(st.rows, 0);
        assert_eq!(st.ndv_or_default(0), 1);
        assert_eq!(st.ndv_or_default(99), 1);
        assert_eq!(st.minmax(0), None);
    }

    #[test]
    fn minmax_and_nullable_ndv() {
        let rel = Relation::from_rows(
            ["a", "b"],
            vec![
                vec![Value::Int(7), Value::str("x")],
                vec![Value::Int(3), Value::Null],
                vec![Value::Int(7), Value::str("y")],
            ],
        )
        .unwrap();
        let st = TableStats::compute(&rel);
        assert_eq!(st.minmax(0), Some(&(Value::Int(3), Value::Int(7))));
        // Null sorts below every string, so it is column b's minimum.
        assert_eq!(st.minmax(1), Some(&(Value::Null, Value::str("y"))));
        assert_eq!(st.ndv, vec![2, 3]); // null counts as one distinct
    }
}
