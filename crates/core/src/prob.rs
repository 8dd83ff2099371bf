//! Probabilistic U-relations (Section 7).
//!
//! The paper's extension: add a probability column to `W` (variables are
//! independent; values of one variable are mutually exclusive) and compute
//! the *confidence* of an answer tuple — the probability mass of the
//! worlds in which it appears, i.e. `P(⋃ᵢ worlds(dᵢ))` over the tuple's
//! ws-descriptors. Exact computation is `#P`-hard in general; this module
//! provides an exact Shannon-expansion (variable elimination) algorithm
//! plus a Monte-Carlo estimator, matching the paper's "practical
//! approximation techniques" research note.
//!
//! The estimator restarts one seeded stream for every tuple group and
//! draws each of the group's variables, in ascending order, from one
//! `next_u64` word per sample: `word % n` in a uniform world, the inverse
//! CDF at `(word >> 11)·2⁻⁵³` in a probabilistic one (the `rand` shim's
//! `gen_range` and `gen::<f64>()`). Sample `s` of a group of `k`
//! variables therefore reads words `s·k … s·k + k − 1` whichever group it
//! is, and groups whose variables have the same *draw maps* (the domain
//! length in a uniform world, the variable itself in a probabilistic
//! one) see the same draws. One joint histogram of those draws, built
//! once per call, gives each such group its hit count exactly, so
//! sharing it is bit-identical to sampling group by group. Groups with
//! more than 1,024 joint values stream their samples instead;
//! neither path allocates in proportion to the sample count.

use crate::descriptor::WsDescriptor;
use crate::error::{Error, Result};
use crate::urelation::URelation;
use crate::world::{Var, WorldTable, TOP};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use urel_relalg::Value;

/// Exact probability of the union of the descriptors' world-sets.
///
/// Shannon expansion: pick the most frequent variable, branch over its
/// domain, condition the descriptor set on each value, and recurse.
/// Worst-case exponential in the number of distinct variables (inherent);
/// linear when descriptors are pairwise variable-disjoint after the first
/// split, which is the common shape of query results.
pub fn confidence(descs: &[WsDescriptor], w: &WorldTable) -> Result<f64> {
    Ok(shannon(&cleaned(descs, w)?, w))
}

/// The descriptors with ⊤ entries dropped (⊤-only descriptors count as
/// empty), each checked against `w`.
fn cleaned<'a>(
    descs: impl IntoIterator<Item = &'a WsDescriptor>,
    w: &WorldTable,
) -> Result<Vec<WsDescriptor>> {
    let cleaned: Vec<WsDescriptor> = descs
        .into_iter()
        .map(|d| WsDescriptor::decode(d.iter().copied()))
        .collect::<Result<_>>()?;
    for d in &cleaned {
        w.check_descriptor(d)?;
    }
    Ok(cleaned)
}

fn shannon(descs: &[WsDescriptor], w: &WorldTable) -> f64 {
    if descs.iter().any(WsDescriptor::is_empty) {
        return 1.0;
    }
    if descs.is_empty() {
        return 0.0;
    }
    // Decompose into variable-connected components: descriptor groups
    // over disjoint variables are independent, so
    // P(⋃ all) = 1 − ∏ᵢ (1 − P(⋃ groupᵢ)). This turns the exponential
    // expansion into a product of small expansions whenever query results
    // mix unrelated variables — the common case.
    let groups = connected_groups(descs);
    if groups.len() > 1 {
        let mut miss = 1.0;
        for g in groups {
            let sub: Vec<WsDescriptor> = g.into_iter().cloned().collect();
            miss *= 1.0 - shannon_connected(&sub, w);
        }
        return 1.0 - miss;
    }
    shannon_connected(descs, w)
}

/// Partition descriptors into groups connected by shared variables.
fn connected_groups<'a>(descs: &'a [WsDescriptor]) -> Vec<Vec<&'a WsDescriptor>> {
    let mut groups: Vec<(std::collections::BTreeSet<Var>, Vec<&'a WsDescriptor>)> = Vec::new();
    for d in descs {
        let vars: std::collections::BTreeSet<Var> = d.vars().collect();
        // Collect all existing groups this descriptor touches.
        let mut touched: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter(|(_, (gv, _))| !gv.is_disjoint(&vars))
            .map(|(i, _)| i)
            .collect();
        match touched.len() {
            0 => groups.push((vars, vec![d])),
            _ => {
                // Merge all touched groups into the first.
                let keep = touched.remove(0);
                for &i in touched.iter().rev() {
                    let (gv, gd) = groups.remove(i);
                    groups[keep].0.extend(gv);
                    groups[keep].1.extend(gd);
                }
                groups[keep].0.extend(vars);
                groups[keep].1.push(d);
            }
        }
    }
    groups.into_iter().map(|(_, g)| g).collect()
}

fn shannon_connected(descs: &[WsDescriptor], w: &WorldTable) -> f64 {
    if descs.iter().any(WsDescriptor::is_empty) {
        return 1.0;
    }
    if descs.is_empty() {
        return 0.0;
    }
    // Most frequent variable first keeps the branching shallow.
    let mut freq: BTreeMap<Var, usize> = BTreeMap::new();
    for d in descs {
        for v in d.vars() {
            *freq.entry(v).or_default() += 1;
        }
    }
    let (&x, _) = freq
        .iter()
        .max_by_key(|(_, c)| **c)
        .expect("non-empty descs");
    let dom = w.domain(x).expect("checked").to_vec();
    let mut total = 0.0;
    for val in dom {
        let p = w.prob(x, val).expect("checked");
        if p == 0.0 {
            continue;
        }
        // Condition on x ↦ val: drop incompatible descriptors, remove x
        // from the rest.
        let mut sub = Vec::with_capacity(descs.len());
        for d in descs {
            match d.get(x) {
                Some(v) if v != val => continue,
                _ => {}
            }
            let rest: Vec<(Var, u64)> = d.iter().copied().filter(|&(v, _)| v != x).collect();
            sub.push(WsDescriptor::from_pairs(rest).expect("subset stays consistent"));
        }
        total += p * shannon(&sub, w);
    }
    total
}

/// Does the union of the descriptors cover *every* world? (Used by the
/// exact certain-answer computation: a tuple is certain iff its
/// descriptors' union has full coverage.) Exact, via the same expansion
/// with uniform probabilities replaced by world counting.
pub fn covers_all_worlds(descs: &[WsDescriptor], w: &WorldTable) -> Result<bool> {
    covers_all_worlds_of(descs, w)
}

/// [`covers_all_worlds`] over borrowed descriptors.
pub(crate) fn covers_all_worlds_of<'a>(
    descs: impl IntoIterator<Item = &'a WsDescriptor>,
    w: &WorldTable,
) -> Result<bool> {
    Ok(covers(&cleaned(descs, w)?, w))
}

fn covers(descs: &[WsDescriptor], w: &WorldTable) -> bool {
    if descs.iter().any(WsDescriptor::is_empty) {
        return true;
    }
    if descs.is_empty() {
        return false;
    }
    let mut freq: BTreeMap<Var, usize> = BTreeMap::new();
    for d in descs {
        for v in d.vars() {
            *freq.entry(v).or_default() += 1;
        }
    }
    let (&x, _) = freq.iter().max_by_key(|(_, c)| **c).expect("non-empty");
    let dom = w.domain(x).expect("checked").to_vec();
    dom.into_iter().all(|val| {
        let mut sub = Vec::with_capacity(descs.len());
        for d in descs {
            match d.get(x) {
                Some(v) if v != val => continue,
                _ => {}
            }
            let rest: Vec<(Var, u64)> = d.iter().copied().filter(|&(v, _)| v != x).collect();
            sub.push(WsDescriptor::from_pairs(rest).expect("subset"));
        }
        covers(&sub, w)
    })
}

/// Monte-Carlo confidence estimate: sample `samples` worlds from the
/// (possibly non-uniform) world distribution and count how often some
/// descriptor is satisfied. Deterministic given `seed`.
pub fn confidence_monte_carlo(
    descs: &[WsDescriptor],
    w: &WorldTable,
    samples: usize,
    seed: u64,
) -> Result<f64> {
    let descs: Vec<&WsDescriptor> = descs.iter().collect();
    Sampler::new(w, samples, seed).estimate(&descs)
}

/// How one variable's value is read off one word of the sample stream,
/// as a domain index.
enum Draw<'w> {
    /// `word % n`: the `rand` shim's `gen_range(0..n)`.
    Uniform(u64),
    /// Inverse CDF over these probabilities at `(word >> 11)·2⁻⁵³`, the
    /// shim's `gen::<f64>()`; the last index absorbs rounding.
    Weighted(Cow<'w, [f64]>),
}

impl<'w> Draw<'w> {
    fn of(w: &'w WorldTable, v: Var) -> Result<Self> {
        let n = w.domain(v)?.len();
        Ok(if !w.is_probabilistic() {
            Draw::Uniform(n as u64)
        } else if let Some(p) = w.explicit_probs(v) {
            Draw::Weighted(Cow::Borrowed(p))
        } else {
            Draw::Weighted(Cow::Owned(vec![1.0 / n as f64; n]))
        })
    }

    fn len(&self) -> usize {
        match self {
            Draw::Uniform(n) => *n as usize,
            Draw::Weighted(p) => p.len(),
        }
    }

    #[inline]
    fn index(&self, word: u64) -> usize {
        match self {
            Draw::Uniform(n) => (word % n) as usize,
            Draw::Weighted(p) => {
                let mut u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                for (i, &pi) in p.iter().enumerate() {
                    if u < pi {
                        return i;
                    }
                    u -= pi;
                }
                p.len() - 1
            }
        }
    }
}

/// One tuple group's descriptors over dense variable positions: its
/// variables in ascending order (the order each sample draws them in)
/// and every descriptor entry as `(position, domain index)`.
struct Group<'w> {
    vars: Vec<Var>,
    draws: Vec<Draw<'w>>,
    /// Descriptor entries, one descriptor after another; descriptor `i`
    /// ends at `ends[i]`.
    terms: Vec<(usize, usize)>,
    ends: Vec<usize>,
    /// Some descriptor holds only ⊤ entries, so every world extends it.
    always: bool,
}

impl<'w> Group<'w> {
    /// Validate the descriptors against `w` (as
    /// [`WorldTable::check_descriptor`] does) and compile them.
    fn compile(descs: &[&WsDescriptor], w: &'w WorldTable) -> Result<Self> {
        let mut entries: Vec<(Var, usize)> = Vec::new();
        let mut ends = Vec::with_capacity(descs.len());
        let mut always = false;
        for d in descs {
            let start = entries.len();
            for &(v, val) in d.iter() {
                let idx = w
                    .domain(v)
                    .ok()
                    .and_then(|dom| dom.binary_search(&val).ok())
                    .ok_or_else(|| {
                        Error::UnknownWorld(format!("descriptor entry {v} ↦ {val} not in W"))
                    })?;
                if v != TOP {
                    entries.push((v, idx));
                }
            }
            always |= entries.len() == start;
            ends.push(entries.len());
        }
        let mut vars: Vec<Var> = entries.iter().map(|&(v, _)| v).collect();
        vars.sort_unstable();
        vars.dedup();
        let terms = entries
            .iter()
            .map(|&(v, idx)| (vars.binary_search(&v).expect("collected"), idx))
            .collect();
        Ok(Group {
            draws: vars
                .iter()
                .map(|&v| Draw::of(w, v))
                .collect::<Result<_>>()?,
            vars,
            terms,
            ends,
            always,
        })
    }

    /// The number of joint draws: the product of the domain lengths.
    fn cells(&self) -> Option<usize> {
        self.draws
            .iter()
            .try_fold(1usize, |n, d| n.checked_mul(d.len()))
    }

    /// Does the world drawn as these domain indices extend some
    /// descriptor?
    fn hit(&self, drawn: &[usize]) -> bool {
        let mut start = 0;
        self.ends.iter().any(|&end| {
            let desc = &self.terms[start..end];
            start = end;
            desc.iter().all(|&(pos, idx)| drawn[pos] == idx)
        })
    }
}

/// Joint histograms cover at most this many cells; groups whose domain
/// lengths multiply to more stream their samples instead.
const MAX_CELLS: usize = 1 << 10;

/// Seeded Monte-Carlo estimation of many descriptor groups over one
/// world table. Every group restarts the same sample stream, so groups
/// with the same draw maps see the same draws, and one histogram per
/// sequence of draw maps serves them all (see the module doc).
pub(crate) struct Sampler<'w> {
    w: &'w WorldTable,
    samples: usize,
    seed: u64,
    /// How many of the `samples` joint draws land on each cell (mixed
    /// radix, first variable fastest), per sequence of draw maps: `(⊤,
    /// n)` for a uniform domain of `n` values, `(v, n)` for variable `v`
    /// of a probabilistic world.
    hists: HashMap<Vec<(Var, usize)>, Vec<usize>>,
}

impl<'w> Sampler<'w> {
    pub(crate) fn new(w: &'w WorldTable, samples: usize, seed: u64) -> Self {
        Sampler {
            w,
            samples,
            seed,
            hists: HashMap::new(),
        }
    }

    /// The fraction of the sampled worlds that extend some descriptor.
    pub(crate) fn estimate(&mut self, descs: &[&WsDescriptor]) -> Result<f64> {
        let group = Group::compile(descs, self.w)?;
        if descs.iter().any(|d| d.is_empty()) {
            return Ok(1.0);
        }
        if descs.is_empty() || self.samples == 0 {
            return Ok(0.0);
        }
        let hits = match group.cells() {
            _ if group.always => self.samples,
            Some(cells) if cells <= MAX_CELLS => self.histogram_hits(&group, cells),
            _ => self.stream_hits(&group),
        };
        Ok(hits as f64 / self.samples as f64)
    }

    /// Hits read off the shared histogram of the group's draw maps:
    /// the counts of the cells some descriptor covers.
    fn histogram_hits(&mut self, g: &Group<'_>, cells: usize) -> usize {
        let probabilistic = self.w.is_probabilistic();
        let key = g
            .vars
            .iter()
            .zip(&g.draws)
            .map(|(&v, d)| (if probabilistic { v } else { TOP }, d.len()))
            .collect();
        let (samples, seed) = (self.samples, self.seed);
        let hist = self.hists.entry(key).or_insert_with(|| {
            let mut hist = vec![0; cells];
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..samples {
                let (mut cell, mut stride) = (0, 1);
                for draw in &g.draws {
                    cell += draw.index(rng.next_u64()) * stride;
                    stride *= draw.len();
                }
                hist[cell] += 1;
            }
            hist
        });
        let mut drawn = vec![0; g.draws.len()];
        let mut hits = 0;
        for (cell, &count) in hist.iter().enumerate().filter(|&(_, &c)| c > 0) {
            let mut rest = cell;
            for (slot, draw) in drawn.iter_mut().zip(&g.draws) {
                *slot = rest % draw.len();
                rest /= draw.len();
            }
            if g.hit(&drawn) {
                hits += count;
            }
        }
        hits
    }

    /// Hits of a group with too many cells to share: one pass over the
    /// stream, drawing every variable of each sample in position order.
    fn stream_hits(&self, g: &Group<'_>) -> usize {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut drawn = vec![0; g.draws.len()];
        let mut hits = 0;
        for _ in 0..self.samples {
            for (slot, draw) in drawn.iter_mut().zip(&g.draws) {
                *slot = draw.index(rng.next_u64());
            }
            hits += usize::from(g.hit(&drawn));
        }
        hits
    }
}

/// How tuple confidences are computed.
///
/// `Exact` runs the Shannon-expansion variable elimination — worst-case
/// exponential in the number of connected variables, precise to float
/// rounding. `MonteCarlo` samples worlds instead: by Hoeffding's
/// inequality the estimate is within `ε = sqrt(ln(2/δ) / (2·samples))`
/// of the true probability with confidence `1 − δ`, independent of how
/// entangled the descriptors are — the paper's "practical approximation
/// techniques" knob for big instances.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfidenceMethod {
    /// Exact variable elimination ([`confidence`]).
    Exact,
    /// Monte-Carlo estimation ([`confidence_monte_carlo`]); deterministic
    /// given the seed.
    MonteCarlo {
        /// Number of sampled worlds.
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl ConfidenceMethod {
    /// Confidence of one descriptor union under this method. A
    /// zero-sample Monte-Carlo request is rejected (it would estimate
    /// nothing while `error_bound` diverges).
    pub fn confidence(&self, descs: &[WsDescriptor], w: &WorldTable) -> Result<f64> {
        let descs: Vec<&WsDescriptor> = descs.iter().collect();
        self.estimator(w).confidence(&descs)
    }

    /// An estimator for many descriptor groups over `w`, sharing its
    /// Monte-Carlo draws between them.
    pub(crate) fn estimator<'w>(&self, w: &'w WorldTable) -> Estimator<'w> {
        let (samples, seed) = match *self {
            ConfidenceMethod::Exact => (0, 0),
            ConfidenceMethod::MonteCarlo { samples, seed } => (samples, seed),
        };
        Estimator {
            method: *self,
            sampler: Sampler::new(w, samples, seed),
        }
    }

    /// The Hoeffding half-width `ε` such that a Monte-Carlo estimate is
    /// within `ε` of the exact value with probability `1 − δ`. `Exact`
    /// reports 0 (numerically tight).
    pub fn error_bound(&self, delta: f64) -> f64 {
        match *self {
            ConfidenceMethod::Exact => 0.0,
            ConfidenceMethod::MonteCarlo { samples, .. } => {
                ((2.0 / delta).ln() / (2.0 * samples as f64)).sqrt()
            }
        }
    }
}

/// Probability that the union of the descriptors' world-sets covers a
/// randomly drawn world — the *certain* side of confidence: a tuple is
/// certain iff its coverage probability is exactly 1
/// ([`covers_all_worlds`] decides that combinatorially). Numerically it
/// coincides with [`ConfidenceMethod::confidence`], but the contract
/// differs: the Monte-Carlo estimate carries the same Hoeffding
/// half-width `ε(δ)` as the `possible` side, so an estimate `≥ 1 − ε`
/// certifies full coverage with confidence `1 − δ` — the knob for
/// certain answers on instances where the exact expansion blows up.
pub fn coverage_probability(
    descs: &[WsDescriptor],
    w: &WorldTable,
    method: ConfidenceMethod,
) -> Result<f64> {
    method.confidence(descs, w)
}

/// Confidence of every distinct answer tuple of a result U-relation:
/// groups rows by value tuple and computes the union probability of each
/// group's descriptors.
pub fn tuple_confidences(u: &URelation, w: &WorldTable) -> Result<Vec<(Vec<Value>, f64)>> {
    tuple_confidences_with(u, w, ConfidenceMethod::Exact)
}

/// [`ConfidenceMethod::confidence`] applied group after group over one
/// world table.
pub(crate) struct Estimator<'w> {
    method: ConfidenceMethod,
    sampler: Sampler<'w>,
}

impl Estimator<'_> {
    /// Confidence of one descriptor union.
    pub(crate) fn confidence(&mut self, descs: &[&WsDescriptor]) -> Result<f64> {
        match self.method {
            ConfidenceMethod::Exact => {
                let cleaned = cleaned(descs.iter().copied(), self.sampler.w)?;
                Ok(shannon(&cleaned, self.sampler.w))
            }
            ConfidenceMethod::MonteCarlo { samples: 0, .. } => Err(Error::InvalidQuery(
                "Monte-Carlo confidence needs at least one sample".into(),
            )),
            ConfidenceMethod::MonteCarlo { .. } => self.sampler.estimate(descs),
        }
    }
}

/// The rows of `u` grouped by value tuple, in tuple order.
pub(crate) fn tuple_groups(u: &URelation) -> BTreeMap<&[Value], Vec<&WsDescriptor>> {
    let mut groups: BTreeMap<&[Value], Vec<&WsDescriptor>> = BTreeMap::new();
    for row in u.rows() {
        groups.entry(&row.vals).or_default().push(&row.desc);
    }
    groups
}

/// [`tuple_confidences`] with an explicit computation method (exact
/// variable elimination or seeded Monte-Carlo estimation).
pub fn tuple_confidences_with(
    u: &URelation,
    w: &WorldTable,
    method: ConfidenceMethod,
) -> Result<Vec<(Vec<Value>, f64)>> {
    let mut estimator = method.estimator(w);
    tuple_groups(u)
        .into_iter()
        .map(|(vals, descs)| Ok((vals.to_vec(), estimator.confidence(&descs)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    fn w2() -> WorldTable {
        let mut w = WorldTable::new();
        w.add_var(Var(1), vec![0, 1]).unwrap();
        w.add_var(Var(2), vec![0, 1]).unwrap();
        w.add_var(Var(3), vec![0, 1, 2, 3]).unwrap();
        w
    }

    fn d(pairs: &[(u32, u64)]) -> WsDescriptor {
        WsDescriptor::from_pairs(pairs.iter().map(|&(v, x)| (Var(v), x))).unwrap()
    }

    /// Brute-force reference: enumerate all worlds.
    fn brute(descs: &[WsDescriptor], w: &WorldTable) -> f64 {
        let mut total = 0.0;
        for f in w.worlds(100_000).unwrap() {
            if descs.iter().any(|dd| w.extends(&f, dd)) {
                total += w.world_prob(&f).unwrap();
            }
        }
        total
    }

    #[test]
    fn exact_matches_brute_force() {
        let w = w2();
        let cases: Vec<Vec<WsDescriptor>> = vec![
            vec![],
            vec![WsDescriptor::empty()],
            vec![d(&[(1, 0)])],
            vec![d(&[(1, 0)]), d(&[(1, 1)])],
            vec![d(&[(1, 0)]), d(&[(2, 1)])],
            vec![d(&[(1, 0), (2, 0)]), d(&[(1, 1), (2, 1)])],
            vec![d(&[(3, 0)]), d(&[(3, 1)]), d(&[(3, 2)])],
            vec![d(&[(1, 0), (3, 2)]), d(&[(2, 1)]), d(&[(1, 1), (2, 0)])],
        ];
        for descs in cases {
            let exact = confidence(&descs, &w).unwrap();
            let reference = brute(&descs, &w);
            assert!(
                (exact - reference).abs() < 1e-12,
                "descs {descs:?}: {exact} vs {reference}"
            );
        }
    }

    #[test]
    fn exact_with_nonuniform_probabilities() {
        let mut w = w2();
        w.set_probabilities(Var(1), vec![0.9, 0.1]).unwrap();
        w.set_probabilities(Var(2), vec![0.3, 0.7]).unwrap();
        let descs = vec![d(&[(1, 0), (2, 0)]), d(&[(2, 1)])];
        let exact = confidence(&descs, &w).unwrap();
        let reference = brute(&descs, &w);
        assert!((exact - reference).abs() < 1e-12);
        // P = 0.9·0.3 + 0.7 = 0.97.
        assert!((exact - 0.97).abs() < 1e-12);
    }

    #[test]
    fn coverage_detection() {
        let w = w2();
        assert!(covers_all_worlds(&[WsDescriptor::empty()], &w).unwrap());
        assert!(covers_all_worlds(&[d(&[(1, 0)]), d(&[(1, 1)])], &w).unwrap());
        assert!(!covers_all_worlds(&[d(&[(1, 0)]), d(&[(2, 1)])], &w).unwrap());
        assert!(!covers_all_worlds(&[], &w).unwrap());
        // Cross-variable cover: (1,0) ∪ (1,1)&(2,0) ∪ (1,1)&(2,1).
        assert!(covers_all_worlds(
            &[d(&[(1, 0)]), d(&[(1, 1), (2, 0)]), d(&[(1, 1), (2, 1)])],
            &w
        )
        .unwrap());
    }

    #[test]
    fn monte_carlo_converges() {
        let w = w2();
        let descs = vec![d(&[(1, 0)]), d(&[(2, 1)])]; // P = 0.75
        let est = confidence_monte_carlo(&descs, &w, 20_000, 42).unwrap();
        assert!((est - 0.75).abs() < 0.02, "estimate {est}");
        // Determinism.
        let est2 = confidence_monte_carlo(&descs, &w, 20_000, 42).unwrap();
        assert_eq!(est, est2);
        // Edge cases.
        assert_eq!(confidence_monte_carlo(&[], &w, 100, 1).unwrap(), 0.0);
        assert_eq!(
            confidence_monte_carlo(&[WsDescriptor::empty()], &w, 100, 1).unwrap(),
            1.0
        );
    }

    #[test]
    fn monte_carlo_weighted() {
        let mut w = w2();
        w.set_probabilities(Var(1), vec![0.9, 0.1]).unwrap();
        let est = confidence_monte_carlo(&[d(&[(1, 0)])], &w, 20_000, 7).unwrap();
        assert!((est - 0.9).abs() < 0.02, "estimate {est}");
    }

    #[test]
    fn tuple_confidence_groups_rows() {
        let w = w2();
        let mut u = URelation::partition("u", ["a"]);
        u.push_simple(d(&[(1, 0)]), 1, vec![Value::Int(7)]).unwrap();
        u.push_simple(d(&[(1, 1)]), 2, vec![Value::Int(7)]).unwrap();
        u.push_simple(d(&[(2, 0)]), 3, vec![Value::Int(8)]).unwrap();
        let confs = tuple_confidences(&u, &w).unwrap();
        assert_eq!(confs.len(), 2);
        assert!((confs[0].1 - 1.0).abs() < 1e-12); // value 7 always present
        assert!((confs[1].1 - 0.5).abs() < 1e-12); // value 8 half the time
    }

    #[test]
    fn descriptors_are_validated() {
        let w = w2();
        assert!(matches!(
            confidence(&[d(&[(9, 0)])], &w),
            Err(Error::UnknownWorld(_))
        ));
    }

    #[test]
    fn component_decomposition_handles_many_independent_vars() {
        // 40 binary variables, one singleton descriptor each: a naive
        // expansion would branch 2^40 times; the decomposition computes
        // 1 − (1/2)^40 as a product in microseconds.
        let mut w = WorldTable::new();
        let mut descs = Vec::new();
        for i in 1..=40u32 {
            w.add_var(Var(i), vec![0, 1]).unwrap();
            descs.push(WsDescriptor::singleton(Var(i), 0));
        }
        let p = confidence(&descs, &w).unwrap();
        let want = 1.0 - 0.5f64.powi(40);
        assert!((p - want).abs() < 1e-12, "{p} vs {want}");
    }

    #[test]
    fn decomposition_groups_by_shared_variables() {
        // Two chains {1-2} and {3}, plus a bridging descriptor that links
        // nothing extra — verified against brute force.
        let w = w2();
        let descs = vec![d(&[(1, 0), (2, 0)]), d(&[(2, 1)]), d(&[(3, 2)])];
        let exact = confidence(&descs, &w).unwrap();
        let reference = brute(&descs, &w);
        assert!((exact - reference).abs() < 1e-12);
    }
}
