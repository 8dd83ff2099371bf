//! Collection strategies: `vec` and `btree_map`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::BTreeMap;
use std::ops::{Range, RangeInclusive};

/// Inclusive bounds on a generated collection's length.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

/// Strategy for `Vec`s of `elem` with length in `size`.
pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        elem,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    elem: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }
}

/// Strategy for `BTreeMap`s with *up to* the drawn number of entries
/// (duplicate keys collapse, matching real proptest's behaviour of
/// meeting the minimum only when the key space allows).
pub fn btree_map<K, V>(key: K, value: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    BTreeMapStrategy {
        key,
        value,
        size: size.into(),
    }
}

/// See [`btree_map`].
#[derive(Clone)]
pub struct BTreeMapStrategy<K, V> {
    key: K,
    value: V,
    size: SizeRange,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    type Value = BTreeMap<K::Value, V::Value>;
    fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
        let n = self.size.pick(rng);
        let mut out = BTreeMap::new();
        // A few retries per slot so small key domains still reach the
        // requested size most of the time.
        let mut budget = n * 4;
        while out.len() < n && budget > 0 {
            out.insert(self.key.generate(rng), self.value.generate(rng));
            budget -= 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_lengths_in_range() {
        let s = vec(0i64..5, 2..6);
        let mut rng = TestRng::deterministic("vec_lengths");
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|x| (0..5).contains(x)));
        }
    }

    #[test]
    fn btree_map_respects_bounds() {
        let s = btree_map(0u32..100, 0i64..5, 1..=3);
        let mut rng = TestRng::deterministic("btree_map");
        for _ in 0..200 {
            let m = s.generate(&mut rng);
            assert!((1..=3).contains(&m.len()));
        }
    }
}
