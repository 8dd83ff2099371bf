//! The `[[·]]` translation (Figure 4): positive relational algebra with
//! `poss` and `merge` over the logical schema, compiled into *plain
//! relational algebra* over the relational encodings of the U-relations.
//!
//! Shape of the translation (the paper's parsimony claim, verified in
//! tests): a selection becomes a selection, a projection a projection, a
//! join a join whose condition additionally carries
//!
//! * `α` — equality of shared tuple-id columns (merge only), and
//! * `ψ` — descriptor consistency:
//!   `⋀_{D'∈U1.D, D''∈U2.D} (D'.Var ≠ D''.Var ∨ D'.Rng = D''.Rng)`,
//!
//! and `poss` becomes a (duplicate-eliminating) projection onto the value
//! columns. The translation of a `Table` leaf merges exactly the vertical
//! partitions needed for the attributes the query context requires
//! (late materialization); [`TranslateOptions::prune_partitions`] can turn
//! that off to reproduce the naive plan P1 of Figure 3.

use crate::algebra::UQuery;
use crate::error::{Error, Result};
use crate::udb::UDatabase;
use crate::urelation::URelation;
use std::collections::BTreeSet;
use urel_relalg::{exec, optimizer, Catalog, ColRef, Expr, Plan, Relation};

/// A translated query: a relational plan plus the bookkeeping that says
/// which output columns encode descriptors, tuple ids and values.
#[derive(Clone, Debug)]
pub struct TPlan {
    /// Relational algebra plan over the encoded partitions and `W`.
    pub plan: Plan,
    /// Descriptor column pairs `(Var column, Rng column)`.
    pub desc_cols: Vec<(ColRef, ColRef)>,
    /// Tuple-id columns with their logical source key (relation or alias);
    /// merge joins on matching keys (the `α` condition).
    pub tid_cols: Vec<(String, ColRef)>,
    /// Value columns under their logical attribute identity.
    pub value_cols: Vec<ColRef>,
}

impl TPlan {
    /// Arity of the descriptor encoding.
    pub fn desc_arity(&self) -> usize {
        self.desc_cols.len()
    }
}

/// Knobs for the translation, used by the plan-ablation experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranslateOptions {
    /// Merge only the partitions needed by the query context (late
    /// materialization). `false` reproduces the naive plan that first
    /// reconstructs every relation completely (P1 in Figure 3).
    pub prune_partitions: bool,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        TranslateOptions {
            prune_partitions: true,
        }
    }
}

/// Translate a logical query (Figure 4) with default options.
pub fn translate(udb: &UDatabase, q: &UQuery) -> Result<TPlan> {
    translate_with(udb, q, TranslateOptions::default())
}

/// Translate with explicit options.
pub fn translate_with(udb: &UDatabase, q: &UQuery, opts: TranslateOptions) -> Result<TPlan> {
    let mut tr = Translator { udb, next: 0, opts };
    let t = tr.query(q, None)?;
    Ok(canonicalize(t))
}

/// Translate, optimize, execute, and decode the result U-relation.
pub fn evaluate(udb: &UDatabase, q: &UQuery) -> Result<URelation> {
    evaluate_with(udb, q, TranslateOptions::default(), true)
}

/// Evaluation with explicit translation options and an optimizer toggle
/// (for the plan-ablation benchmarks).
pub fn evaluate_with(
    udb: &UDatabase,
    q: &UQuery,
    opts: TranslateOptions,
    optimize: bool,
) -> Result<URelation> {
    PreparedDb::new(udb).evaluate_with(q, opts, optimize)
}

/// Evaluate `poss(Q)` (wrapping `Q` if needed): the set of possible
/// answer tuples, as a plain relation.
pub fn possible(udb: &UDatabase, q: &UQuery) -> Result<Relation> {
    PreparedDb::new(udb).possible(q)
}

/// Evaluate `poss(Q)` and attach a confidence to every answer tuple,
/// computed exactly or by seeded Monte-Carlo estimation (the Section 7
/// estimator, wired into the `possible` entry point for instances where
/// exact variable elimination is too expensive).
pub fn possible_with_confidence(
    udb: &UDatabase,
    q: &UQuery,
    method: crate::prob::ConfidenceMethod,
) -> Result<Vec<(Vec<urel_relalg::Value>, f64)>> {
    PreparedDb::new(udb).possible_with_confidence(q, method)
}

/// Evaluate the certain answers of `Q` with a coverage probability per
/// tuple, computed exactly (full world-coverage checking) or by seeded
/// Monte-Carlo estimation with Hoeffding bounds — the `certain` twin of
/// [`possible_with_confidence`] (see
/// [`crate::certain::certain_with_coverage`] for the exact contract).
pub fn certain_with_confidence(
    udb: &UDatabase,
    q: &UQuery,
    method: crate::prob::ConfidenceMethod,
) -> Result<Vec<(Vec<urel_relalg::Value>, f64)>> {
    PreparedDb::new(udb).certain_with_confidence(q, method)
}

/// A U-relational database registered once in an engine catalog, for
/// running many queries without re-encoding the representation per query.
///
/// The catalog stores `Arc<Relation>`s and scans alias them, so repeated
/// queries through a `PreparedDb` share one copy of the base data — the
/// per-query cost is translation, optimization, and the result rows, not
/// the database. Registration also computes statistics over each
/// relation's columnar image, which builds and caches that image: the
/// engine's vectorized batch pipelines scan encoded partitions
/// column-major from the first query on, paying row-to-column conversion
/// once per `PreparedDb`, not once per query. A *plan cache* completes
/// the prepared-statement picture: each distinct (query, options) pair
/// is translated and optimized once, and re-running it executes the
/// cached physical plan directly — on the Figure 12 workload that halves
/// steady-state query latency, since translation + optimization cost as
/// much as execution at these scales. The cache is sound because the
/// database is immutably borrowed for the `PreparedDb`'s lifetime. The
/// free functions [`evaluate`] / [`possible`] remain one-shot
/// conveniences that prepare internally.
pub struct PreparedDb<'a> {
    udb: &'a UDatabase,
    catalog: Catalog,
    /// Prepared-statement cache: `(query, options, optimized)` →
    /// translated (+ optimized) plan and decode bookkeeping. A `Mutex`
    /// (not `RefCell`) keeps `PreparedDb: Sync`; contention is per
    /// query, never per row.
    plans: std::sync::Mutex<Vec<PlanCacheEntry>>,
}

/// One prepared-statement cache slot: the statement key (query, options,
/// optimizer toggle) and its physical plan.
type PlanCacheEntry = (UQuery, TranslateOptions, bool, std::sync::Arc<CachedPlan>);

/// A cached physical plan with the decode info `evaluate` needs.
struct CachedPlan {
    plan: Plan,
    desc_arity: usize,
    tid_count: usize,
}

/// Cached plans per `PreparedDb` before the cache resets (a safety
/// bound; real workloads run a handful of distinct statements).
const PLAN_CACHE_CAP: usize = 64;

impl<'a> PreparedDb<'a> {
    /// Encode every partition plus `W` into a fresh catalog, once
    /// (statistics and cached columnar images included).
    pub fn new(udb: &'a UDatabase) -> Self {
        PreparedDb {
            udb,
            catalog: udb.to_catalog(),
            plans: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Build a `PreparedDb` over an *already prepared* catalog instead
    /// of encoding the database again. `Catalog` clones alias their
    /// `Arc<Relation>` storage and `Arc<TableStats>` statistics, so a
    /// server can encode the database once and hand every session its
    /// own cheap catalog copy — sessions share the base data and
    /// statistics but keep independent plan caches and execution knobs
    /// (threads, memory budget, deadline). The caller is responsible
    /// for `catalog` actually encoding `udb` (i.e. it descends from
    /// [`UDatabase::to_catalog`]).
    pub fn with_catalog(udb: &'a UDatabase, catalog: Catalog) -> Self {
        PreparedDb {
            udb,
            catalog,
            plans: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// The underlying database.
    pub fn udb(&self) -> &'a UDatabase {
        self.udb
    }

    /// The prepared catalog (shared base relations + statistics).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Cap the morsel-driven executor's parallel workers for queries run
    /// through this `PreparedDb` (1 = serial; the default comes from
    /// `RELALG_THREADS` / the machine's available parallelism). Cached
    /// plans stay valid — the thread count is an execution knob, not a
    /// plan property.
    pub fn set_threads(&mut self, threads: usize) {
        self.catalog.set_threads(threads);
    }

    /// Cap the bytes pipeline-breaker buffers may hold for queries run
    /// through this `PreparedDb` (`usize::MAX` or `0` = unbounded; the
    /// default comes from `RELALG_MEM_BUDGET`). Over-budget breakers
    /// spill to sorted runs in a scoped temp directory — answers are
    /// byte-identical to unbounded execution, and cached plans stay
    /// valid: like the thread cap, the budget is an execution knob, not
    /// a plan property.
    pub fn set_mem_budget(&mut self, bytes: usize) {
        self.catalog.set_mem_budget(bytes);
    }

    /// Select the base-table storage mode for queries run through this
    /// `PreparedDb` (plain columnar or the compressed on-disk segment
    /// store; the default comes from `RELALG_STORAGE`). Answers
    /// are byte-identical across modes; cached plans stay valid —
    /// storage is an execution knob, not a plan property.
    pub fn set_storage(&mut self, mode: urel_relalg::StorageMode) {
        self.catalog.set_storage(mode);
    }

    /// Cap the decoded segments the buffer pool shared across relations
    /// keeps resident for queries run through this `PreparedDb`
    /// (floored at 1; the default comes from `RELALG_BUFFER_POOL`).
    /// Only observable under [`urel_relalg::StorageMode::Disk`].
    pub fn set_buffer_pool(&mut self, segments: usize) {
        self.catalog.set_buffer_pool(segments);
    }

    /// Set (or clear) the per-query deadline for queries run through
    /// this `PreparedDb`. An execution past the deadline stops at the
    /// next batch/morsel boundary, releases every resource it holds,
    /// and returns `urel_relalg::Error::Cancelled`. Like the other
    /// knobs this is an execution property, not a plan property —
    /// cached plans stay valid across deadline changes, which is what
    /// lets a server re-arm the deadline per request.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Duration>) {
        self.catalog.set_deadline(deadline);
    }

    /// Number of physical plans currently held by the prepared-statement
    /// cache (observability hook; also used by tests to pin the cache's
    /// hit behavior).
    pub fn cached_plan_count(&self) -> usize {
        self.plans.lock().expect("plan cache poisoned").len()
    }

    /// Translate, optimize, execute, and decode the result U-relation.
    pub fn evaluate(&self, q: &UQuery) -> Result<URelation> {
        self.evaluate_with(q, TranslateOptions::default(), true)
    }

    /// Evaluation with explicit translation options and an optimizer
    /// toggle (for the plan-ablation benchmarks). Plans come from the
    /// prepared-statement cache when the same (query, options) pair ran
    /// before.
    pub fn evaluate_with(
        &self,
        q: &UQuery,
        opts: TranslateOptions,
        optimize: bool,
    ) -> Result<URelation> {
        let entry = self.plan_for(q, opts, optimize)?;
        let rel = exec::execute(&entry.plan, &self.catalog)?;
        URelation::decode("result", &rel, entry.desc_arity, entry.tid_count)
    }

    /// Look up (or translate, optimize, and insert) the physical plan
    /// for a statement.
    fn plan_for(
        &self,
        q: &UQuery,
        opts: TranslateOptions,
        optimize: bool,
    ) -> Result<std::sync::Arc<CachedPlan>> {
        {
            let plans = self.plans.lock().expect("plan cache poisoned");
            if let Some((_, _, _, e)) = plans
                .iter()
                .find(|(cq, co, copt, _)| cq == q && *co == opts && *copt == optimize)
            {
                return Ok(std::sync::Arc::clone(e));
            }
        }
        let t = translate_with(self.udb, q, opts)?;
        let plan = if optimize {
            optimizer::optimize(&t.plan, &self.catalog)?
        } else {
            t.plan.clone()
        };
        let entry = std::sync::Arc::new(CachedPlan {
            plan,
            desc_arity: t.desc_arity(),
            tid_count: t.tid_cols.len(),
        });
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        if plans.len() >= PLAN_CACHE_CAP {
            plans.clear();
        }
        plans.push((q.clone(), opts, optimize, std::sync::Arc::clone(&entry)));
        Ok(entry)
    }

    /// Evaluate `poss(Q)` (wrapping `Q` if needed): the set of possible
    /// answer tuples, as a plain relation.
    pub fn possible(&self, q: &UQuery) -> Result<Relation> {
        Ok(self.possible_with_stats(q)?.0)
    }

    /// [`PreparedDb::possible`] plus the [`urel_relalg::ExecStats`] of
    /// the physical execution — the serving layer reports these per
    /// request (batches, workers, spills, pool traffic, cancellation).
    pub fn possible_with_stats(&self, q: &UQuery) -> Result<(Relation, urel_relalg::ExecStats)> {
        let wrapped = match q {
            UQuery::Poss { .. } => q.clone(),
            _ => q.clone().poss(),
        };
        let entry = self.plan_for(&wrapped, TranslateOptions::default(), true)?;
        let (rel, stats) = exec::execute_with_stats(&entry.plan, &self.catalog)?;
        let u = URelation::decode("result", &rel, entry.desc_arity, entry.tid_count)?;
        Ok((u.possible_tuples(), stats))
    }

    /// Render the optimized physical plan for `poss(Q)` (wrapping `Q`
    /// if needed) without executing it — the `EXPLAIN` passthrough of
    /// the query surface. Goes through the same plan cache as
    /// [`PreparedDb::possible`], so explaining then executing a
    /// statement translates and optimizes it once.
    pub fn explain(&self, q: &UQuery) -> Result<String> {
        let wrapped = match q {
            UQuery::Poss { .. } => q.clone(),
            _ => q.clone().poss(),
        };
        let entry = self.plan_for(&wrapped, TranslateOptions::default(), true)?;
        Ok(urel_relalg::explain::explain(&entry.plan, &self.catalog))
    }

    /// Certain answers of `Q` through the prepared-statement plan cache
    /// (the serving path for the query surface's `certain` clause):
    /// evaluate the translated query, normalize (Algorithm 1), and
    /// apply Lemma 4.3 — with the partial-or-set-field detection and
    /// exact world-expansion fallback of
    /// [`crate::certain::certain_answers`], which this supersedes for
    /// repeated statements (the translated plan is cached; the
    /// normalization and Lemma 4.3 passes run per call on the result).
    pub fn certain(&self, q: &UQuery) -> Result<Relation> {
        if self.udb.has_partial_fields()? {
            let cap = crate::certain::CERTAIN_EXPANSION_CAP;
            let (_possible, certain) =
                crate::worldops::expand_answers(self.udb, q, cap).map_err(|e| match e {
                    Error::TooLarge(msg) => Error::TooLarge(format!(
                        "`certain` on a database with partial or-set fields needs exact world \
                         expansion: {msg}"
                    )),
                    other => other,
                })?;
            return Ok(certain);
        }
        // NB: `q` is evaluated exactly as written — an explicit
        // `poss(Q)` wrapper projects descriptors away, making the
        // result deterministic, so its certain answers are the
        // possible answers (the world-expansion oracle pins this).
        let u = self.evaluate(q)?;
        let normalized = crate::normalize::normalize_urelations(&[&u], &self.udb.world)?;
        crate::certain::certain_lemma43(&normalized.relations[0], &normalized.world)
    }

    /// Evaluate `poss(Q)` with a confidence per answer tuple. The query
    /// is evaluated *without* the final `poss` projection (confidence
    /// needs the result descriptors), then each distinct value tuple
    /// gets the union probability of its descriptors, exact or
    /// Monte-Carlo estimated per `method`.
    pub fn possible_with_confidence(
        &self,
        q: &UQuery,
        method: crate::prob::ConfidenceMethod,
    ) -> Result<Vec<(Vec<urel_relalg::Value>, f64)>> {
        let inner: &UQuery = match q {
            UQuery::Poss { input } => input,
            _ => q,
        };
        let u = self.evaluate(inner)?;
        crate::prob::tuple_confidences_with(&u, &self.udb.world, method)
    }

    /// Certain answers with a coverage probability per tuple: evaluated
    /// without the final `poss` projection (coverage needs the result
    /// descriptors), then each distinct value tuple's descriptor union
    /// is checked for full world coverage — combinatorially for
    /// [`crate::prob::ConfidenceMethod::Exact`], by world sampling
    /// within the Hoeffding half-width `ε(10⁻⁶)` for the Monte-Carlo
    /// estimator.
    pub fn certain_with_confidence(
        &self,
        q: &UQuery,
        method: crate::prob::ConfidenceMethod,
    ) -> Result<Vec<(Vec<urel_relalg::Value>, f64)>> {
        const DELTA: f64 = 1e-6;
        let inner: &UQuery = match q {
            UQuery::Poss { input } => input,
            _ => q,
        };
        let u = self.evaluate(inner)?;
        crate::certain::certain_with_coverage(&u, &self.udb.world, method, DELTA)
    }
}

struct Translator<'a> {
    udb: &'a UDatabase,
    next: usize,
    opts: TranslateOptions,
}

impl<'a> Translator<'a> {
    fn fresh(&mut self) -> usize {
        self.next += 1;
        self.next
    }

    /// `needed = None` means "all output attributes are required".
    fn query(&mut self, q: &UQuery, needed: Option<&BTreeSet<ColRef>>) -> Result<TPlan> {
        match q {
            UQuery::Table { rel, alias } => self.table(rel, alias.as_deref(), needed),
            UQuery::Select { input, pred } => {
                // needed' = needed ∪ columns(pred)
                let inner_needed = needed.map(|n| {
                    let mut n2 = n.clone();
                    n2.extend(pred.columns());
                    n2
                });
                let t = self.query(input, inner_needed.as_ref())?;
                Ok(TPlan {
                    plan: t.plan.select(pred.clone()),
                    ..t
                })
            }
            UQuery::Project { input, attrs: _ } => {
                let out_attrs = q.attrs(self.udb)?;
                let inner_needed: BTreeSet<ColRef> = out_attrs.iter().cloned().collect();
                let t = self.query(input, Some(&inner_needed))?;
                self.project(t, &out_attrs)
            }
            UQuery::Join { left, right, pred } => {
                let l_attrs = left.attrs(self.udb)?;
                let r_attrs = right.attrs(self.udb)?;
                let inner = |attrs: &[ColRef]| -> Option<BTreeSet<ColRef>> {
                    needed.map(|n| {
                        n.iter()
                            .cloned()
                            .chain(pred.columns())
                            .filter(|r| attrs.iter().any(|a| a.matches(r)))
                            .collect()
                    })
                };
                let lt = self.query(left, inner(&l_attrs).as_ref())?;
                let rt = self.query(right, inner(&r_attrs).as_ref())?;
                self.join(lt, rt, pred.clone())
            }
            UQuery::Union { left, right } => {
                // Needs transfer by attribute *name*; strip qualifiers so
                // they match the right side's (possibly different) aliases.
                let rneeded =
                    needed.map(|n| n.iter().map(|c| c.unqualified()).collect::<BTreeSet<_>>());
                let lt = self.query(left, needed)?;
                let rt = self.query(right, rneeded.as_ref())?;
                self.union(lt, rt)
            }
            UQuery::Poss { input } => {
                let all = input.attrs(self.udb)?;
                let keep: Vec<ColRef> = match needed {
                    Some(n) => all
                        .iter()
                        .filter(|a| n.iter().any(|r| a.matches(r)))
                        .cloned()
                        .collect(),
                    None => all.clone(),
                };
                let inner_needed: BTreeSet<ColRef> = keep.iter().cloned().collect();
                let t = self.query(input, Some(&inner_needed))?;
                // [[poss(Q)]] := π_A(U) — plus duplicate elimination to
                // return a set.
                let cols: Vec<(Expr, ColRef)> = keep
                    .iter()
                    .map(|a| {
                        let c = t
                            .value_cols
                            .iter()
                            .find(|v| *v == a)
                            .ok_or_else(|| {
                                Error::InvalidQuery(format!("poss: attribute `{a}` missing"))
                            })?
                            .clone();
                        Ok((Expr::Col(c.clone()), c))
                    })
                    .collect::<Result<_>>()?;
                Ok(TPlan {
                    plan: t.plan.project(cols).distinct(),
                    desc_cols: Vec::new(),
                    tid_cols: Vec::new(),
                    value_cols: keep,
                })
            }
        }
    }

    /// Translate a `Table` leaf: pick the partitions covering the needed
    /// attributes and fold them with `merge`.
    fn table(
        &mut self,
        rel: &str,
        alias: Option<&str>,
        needed: Option<&BTreeSet<ColRef>>,
    ) -> Result<TPlan> {
        let attrs = self.udb.attrs(rel)?.to_vec();
        let mk = |a: &str| -> ColRef {
            match alias {
                Some(q) => ColRef::qualified(q, a),
                None => ColRef::new(a),
            }
        };
        let key = alias.unwrap_or(rel).to_string();

        // Which attributes must the leaf produce?
        let wanted: Vec<String> = match (needed, self.opts.prune_partitions) {
            (Some(n), true) => attrs
                .iter()
                .filter(|a| n.iter().any(|r| mk(a).matches(r)))
                .cloned()
                .collect(),
            _ => attrs.clone(),
        };

        let parts = self.udb.partitions_of(rel)?;
        if parts.is_empty() {
            return Err(Error::InvalidQuery(format!(
                "relation `{rel}` has no partitions"
            )));
        }

        // Greedy set cover of the wanted attributes.
        let mut chosen: Vec<&URelation> = Vec::new();
        let mut uncovered: BTreeSet<&str> = wanted.iter().map(String::as_str).collect();
        while !uncovered.is_empty() {
            let best = parts
                .iter()
                .filter(|p| !chosen.iter().any(|c| std::ptr::eq(*c, *p)))
                .max_by_key(|p| {
                    (
                        p.value_cols()
                            .iter()
                            .filter(|c| uncovered.contains(c.as_str()))
                            .count(),
                        std::cmp::Reverse(p.value_cols().len()),
                    )
                })
                .filter(|p| {
                    p.value_cols()
                        .iter()
                        .any(|c| uncovered.contains(c.as_str()))
                })
                .ok_or_else(|| {
                    Error::InvalidDatabase(format!(
                        "attributes {uncovered:?} of `{rel}` are not covered"
                    ))
                })?;
            for c in best.value_cols() {
                uncovered.remove(c.as_str());
            }
            chosen.push(best);
        }
        if chosen.is_empty() {
            // Presence-only leaf (e.g. π over other side of a join):
            // the smallest partition witnesses tuple existence in a
            // *reduced* database.
            chosen.push(parts.iter().min_by_key(|p| p.len()).unwrap());
        }

        // Build one leaf TPlan per chosen partition, then fold with merge.
        // Later partitions drop value columns already provided.
        let mut covered: BTreeSet<String> = BTreeSet::new();
        let mut acc: Option<TPlan> = None;
        let chosen_len = chosen.len();
        for p in chosen {
            let keep: Vec<&String> = p
                .value_cols()
                .iter()
                .filter(|c| {
                    (wanted.contains(*c) || chosen_len == 1 && wanted.is_empty())
                        && !covered.contains(*c)
                })
                .collect();
            for c in &keep {
                covered.insert((*c).clone());
            }
            let leaf = self.leaf(p, &key, &mk, &keep)?;
            acc = Some(match acc {
                None => leaf,
                Some(prev) => self.merge(prev, leaf)?,
            });
        }
        let mut t = acc.expect("at least one partition");
        // The merge fold visits partitions in coverage order; restore the
        // logical attribute order for the output.
        t.value_cols
            .sort_by_key(|c| attrs.iter().position(|a| *c == mk(a)).unwrap_or(usize::MAX));
        Ok(t)
    }

    /// A scan of one encoded partition, re-projected to translator-unique
    /// column names.
    fn leaf(
        &mut self,
        p: &URelation,
        key: &str,
        mk: &dyn Fn(&str) -> ColRef,
        keep: &[&String],
    ) -> Result<TPlan> {
        let mut cols: Vec<(Expr, ColRef)> = Vec::new();
        let mut desc_cols = Vec::new();
        for i in 0..p.desc_arity() {
            let n = self.fresh();
            let dv = ColRef::new(format!("dv{n}"));
            let dr = ColRef::new(format!("dr{n}"));
            cols.push((Expr::Col(ColRef::new(format!("d{i}_var"))), dv.clone()));
            cols.push((Expr::Col(ColRef::new(format!("d{i}_rng"))), dr.clone()));
            desc_cols.push((dv, dr));
        }
        let tid = ColRef::new(format!("ti{}_{key}", self.fresh()));
        cols.push((Expr::Col(ColRef::new("tid")), tid.clone()));
        let mut value_cols = Vec::new();
        for c in keep {
            let out = mk(c);
            cols.push((Expr::Col(ColRef::new(c.as_str())), out.clone()));
            value_cols.push(out);
        }
        Ok(TPlan {
            plan: Plan::scan(p.name.clone()).project(cols),
            desc_cols,
            tid_cols: vec![(key.to_string(), tid)],
            value_cols,
        })
    }

    /// The ψ condition between two descriptor column sets.
    fn psi(l: &[(ColRef, ColRef)], r: &[(ColRef, ColRef)]) -> Expr {
        let mut parts = Vec::with_capacity(l.len() * r.len());
        for (lv, lr) in l {
            for (rv, rr) in r {
                parts.push(Expr::or([
                    Expr::Col(lv.clone()).ne(Expr::Col(rv.clone())),
                    Expr::Col(lr.clone()).eq(Expr::Col(rr.clone())),
                ]));
            }
        }
        Expr::and(parts)
    }

    /// `merge` (Figure 4): join on shared tuple-id keys (α) and descriptor
    /// consistency (ψ); duplicate tuple-id and value columns of the right
    /// side are projected away.
    pub(crate) fn merge(&mut self, l: TPlan, r: TPlan) -> Result<TPlan> {
        let mut alpha = Vec::new();
        let mut dup_tids: Vec<&ColRef> = Vec::new();
        for (rk, rc) in &r.tid_cols {
            if let Some((_, lc)) = l.tid_cols.iter().find(|(lk, _)| lk == rk) {
                alpha.push(Expr::Col(lc.clone()).eq(Expr::Col(rc.clone())));
                dup_tids.push(rc);
            }
        }
        if alpha.is_empty() {
            return Err(Error::InvalidQuery(
                "merge requires a shared tuple-id attribute".into(),
            ));
        }
        let psi = Self::psi(&l.desc_cols, &r.desc_cols);
        let pred = Expr::and(alpha.into_iter().chain(psi.conjuncts()));
        let plan = l.plan.join(r.plan, pred);

        // Output bookkeeping: descriptors concatenate; duplicate tuple ids
        // and duplicate value columns (valid databases agree on them) drop.
        let mut desc_cols = l.desc_cols;
        desc_cols.extend(r.desc_cols);
        let mut tid_cols = l.tid_cols;
        let mut value_cols = l.value_cols;
        let mut drop: Vec<ColRef> = dup_tids.into_iter().cloned().collect();
        for (rk, rc) in r.tid_cols {
            if !drop.contains(&rc) {
                tid_cols.push((rk, rc));
            }
        }
        for vc in r.value_cols {
            if value_cols.contains(&vc) {
                drop.push(vc);
            } else {
                value_cols.push(vc);
            }
        }
        // Project away dropped columns to keep every schema name unique.
        let mut cols: Vec<(Expr, ColRef)> = Vec::new();
        for (dv, dr) in &desc_cols {
            cols.push((Expr::Col(dv.clone()), dv.clone()));
            cols.push((Expr::Col(dr.clone()), dr.clone()));
        }
        for (_, tc) in &tid_cols {
            cols.push((Expr::Col(tc.clone()), tc.clone()));
        }
        for vc in &value_cols {
            cols.push((Expr::Col(vc.clone()), vc.clone()));
        }
        let plan = if drop.is_empty() {
            plan
        } else {
            plan.project(cols)
        };
        Ok(TPlan {
            plan,
            desc_cols,
            tid_cols,
            value_cols,
        })
    }

    /// `[[Q1 ⋈φ Q2]] := π(U1 ⋈_{φ∧ψ} U2)` with `T1 ∩ T2 = ∅`.
    fn join(&mut self, l: TPlan, r: TPlan, pred: Expr) -> Result<TPlan> {
        if l.tid_cols
            .iter()
            .any(|(lk, _)| r.tid_cols.iter().any(|(rk, _)| lk == rk))
        {
            return Err(Error::InvalidQuery(
                "join sides share a tuple-id source; alias one side".into(),
            ));
        }
        if l.value_cols.iter().any(|c| r.value_cols.contains(c)) {
            return Err(Error::InvalidQuery(
                "join sides share attribute names; alias one side".into(),
            ));
        }
        let psi = Self::psi(&l.desc_cols, &r.desc_cols);
        let full = Expr::and(pred.conjuncts().into_iter().chain(psi.conjuncts()));
        let plan = l.plan.join(r.plan, full);
        let mut desc_cols = l.desc_cols;
        desc_cols.extend(r.desc_cols);
        let mut tid_cols = l.tid_cols;
        tid_cols.extend(r.tid_cols);
        let mut value_cols = l.value_cols;
        value_cols.extend(r.value_cols);
        Ok(TPlan {
            plan,
            desc_cols,
            tid_cols,
            value_cols,
        })
    }

    /// `[[πX(Q)]] := π_{D,T,X}(U)`.
    fn project(&mut self, t: TPlan, out_attrs: &[ColRef]) -> Result<TPlan> {
        let mut cols: Vec<(Expr, ColRef)> = Vec::new();
        for (dv, dr) in &t.desc_cols {
            cols.push((Expr::Col(dv.clone()), dv.clone()));
            cols.push((Expr::Col(dr.clone()), dr.clone()));
        }
        for (_, tc) in &t.tid_cols {
            cols.push((Expr::Col(tc.clone()), tc.clone()));
        }
        let mut value_cols = Vec::new();
        for a in out_attrs {
            let c = t
                .value_cols
                .iter()
                .find(|v| *v == a)
                .ok_or_else(|| Error::InvalidQuery(format!("projection attr `{a}` missing")))?;
            cols.push((Expr::Col(c.clone()), c.clone()));
            value_cols.push(c.clone());
        }
        Ok(TPlan {
            plan: t.plan.project(cols),
            desc_cols: t.desc_cols,
            tid_cols: t.tid_cols,
            value_cols,
        })
    }

    /// Union: pad the smaller descriptor encoding, align value columns by
    /// name, add `Null` columns for the other side's tuple ids.
    fn union(&mut self, l: TPlan, r: TPlan) -> Result<TPlan> {
        if l.value_cols.len() != r.value_cols.len() {
            return Err(Error::InvalidQuery("union arity mismatch".into()));
        }
        // Match r's value columns to l's by name.
        let r_match: Vec<ColRef> = l
            .value_cols
            .iter()
            .map(|lc| {
                r.value_cols
                    .iter()
                    .find(|rc| rc.name == lc.name)
                    .cloned()
                    .ok_or_else(|| {
                        Error::InvalidQuery(format!("union: attribute `{lc}` missing on the right"))
                    })
            })
            .collect::<Result<_>>()?;

        let arity = l.desc_cols.len().max(r.desc_cols.len());
        let mut out_desc = Vec::new();
        for _ in 0..arity {
            let n = self.fresh();
            out_desc.push((ColRef::new(format!("dv{n}")), ColRef::new(format!("dr{n}"))));
        }
        // Output tuple-id keys: l's, then r-only keys.
        let mut out_keys: Vec<String> = l.tid_cols.iter().map(|(k, _)| k.clone()).collect();
        for (rk, _) in &r.tid_cols {
            if !out_keys.contains(rk) {
                out_keys.push(rk.clone());
            }
        }
        let out_tids: Vec<(String, ColRef)> = out_keys
            .iter()
            .map(|k| (k.clone(), ColRef::new(format!("ti{}_{k}", self.fresh()))))
            .collect();

        let side = |t: &TPlan, vals: &[ColRef]| -> Vec<(Expr, ColRef)> {
            let mut cols = Vec::new();
            for (i, (odv, odr)) in out_desc.iter().enumerate() {
                let (ev, er) = match t.desc_cols.get(i) {
                    Some((dv, dr)) => (Expr::Col(dv.clone()), Expr::Col(dr.clone())),
                    None => match t.desc_cols.first() {
                        // Pad by repeating the first pair (the paper's rule)…
                        Some((dv, dr)) => (Expr::Col(dv.clone()), Expr::Col(dr.clone())),
                        // …or ⊤ ↦ 0 when the side has no descriptors.
                        None => (urel_relalg::lit_i64(0), urel_relalg::lit_i64(0)),
                    },
                };
                cols.push((ev, odv.clone()));
                cols.push((er, odr.clone()));
            }
            for ((k, otc), _) in out_tids.iter().zip(std::iter::repeat(())) {
                let e = match t.tid_cols.iter().find(|(tk, _)| tk == k) {
                    Some((_, tc)) => Expr::Col(tc.clone()),
                    None => Expr::Lit(urel_relalg::Value::Null),
                };
                cols.push((e, otc.clone()));
            }
            for (lc, vc) in l.value_cols.iter().zip(vals) {
                cols.push((Expr::Col(vc.clone()), lc.clone()));
            }
            cols
        };
        let lcols = side(&l, &l.value_cols);
        let rcols = side(&r, &r_match);
        let plan = l
            .plan
            .clone()
            .project(lcols)
            .union(r.plan.clone().project(rcols));
        Ok(TPlan {
            plan,
            desc_cols: out_desc,
            tid_cols: out_tids,
            value_cols: l.value_cols,
        })
    }
}

/// Final projection renaming columns into the canonical layout
/// `d0_var, d0_rng, …, t0, t1, …, <attr display names>` so that
/// [`URelation::decode`] can read the executed result positionally.
fn canonicalize(t: TPlan) -> TPlan {
    let mut cols: Vec<(Expr, ColRef)> = Vec::new();
    let mut desc_cols = Vec::new();
    for (i, (dv, dr)) in t.desc_cols.iter().enumerate() {
        let ov = ColRef::new(format!("d{i}_var"));
        let or = ColRef::new(format!("d{i}_rng"));
        cols.push((Expr::Col(dv.clone()), ov.clone()));
        cols.push((Expr::Col(dr.clone()), or.clone()));
        desc_cols.push((ov, or));
    }
    let mut tid_cols = Vec::new();
    for (i, (k, tc)) in t.tid_cols.iter().enumerate() {
        let oc = ColRef::new(format!("t{i}_{k}"));
        cols.push((Expr::Col(tc.clone()), oc.clone()));
        tid_cols.push((k.clone(), oc));
    }
    let mut value_cols = Vec::new();
    for vc in &t.value_cols {
        let oc = ColRef::new(vc.to_string());
        cols.push((Expr::Col(vc.clone()), oc.clone()));
        value_cols.push(oc);
    }
    TPlan {
        plan: t.plan.project(cols),
        desc_cols,
        tid_cols,
        value_cols,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{oracle_certain, oracle_possible, table, table_as};
    use crate::udb::figure1_database;
    use urel_relalg::{col, lit_str, Value};

    fn enemy_tanks() -> UQuery {
        table("r")
            .select(Expr::and([
                col("type").eq(lit_str("Tank")),
                col("faction").eq(lit_str("Enemy")),
            ]))
            .project(["id"])
    }

    #[test]
    fn plan_cache_reuses_prepared_statements() {
        let db = figure1_database();
        let prepared = PreparedDb::new(&db);
        assert_eq!(prepared.cached_plan_count(), 0);
        let first = prepared.possible(&enemy_tanks()).unwrap();
        let cached = prepared.cached_plan_count();
        assert!(cached >= 1);
        // Re-running the same statement hits the cache (no new entry)
        // and answers identically.
        let second = prepared.possible(&enemy_tanks()).unwrap();
        assert_eq!(prepared.cached_plan_count(), cached);
        assert_eq!(first, second);
        // A different statement — or different options for the same one
        // — occupies its own slot.
        prepared.possible(&table("r").project(["id"])).unwrap();
        assert!(prepared.cached_plan_count() > cached);
        let n = prepared.cached_plan_count();
        prepared
            .evaluate_with(
                &enemy_tanks(),
                TranslateOptions {
                    prune_partitions: false,
                },
                true,
            )
            .unwrap();
        assert_eq!(prepared.cached_plan_count(), n + 1);
    }

    #[test]
    fn translation_matches_oracle_for_example_3_6() {
        let db = figure1_database();
        let q = enemy_tanks();
        let got = possible(&db, &q).unwrap();
        let want = oracle_possible(&q, &db, 64).unwrap();
        assert!(got.set_eq(&want), "got {got}\nwant {want}");
    }

    #[test]
    fn result_urelation_decodes_per_world() {
        // The result U-relation, restricted to each world, must equal the
        // query answer in that world (Section 3's correctness criterion).
        let db = figure1_database();
        let q = enemy_tanks();
        let u = evaluate(&db, &q).unwrap();
        for f in db.world.worlds(64).unwrap() {
            let got = u.tuples_in_world(&db.world, &f);
            let want = crate::algebra::oracle_eval(&q, &db, &f, 64).unwrap();
            assert!(
                got.set_eq(&want.sorted_set()),
                "world {f:?}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn self_join_example_3_7() {
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
        let got = possible(&db, &q).unwrap();
        let want = oracle_possible(&q, &db, 64).unwrap();
        assert!(got.set_eq(&want), "got {got}\nwant {want}");
        // The inconsistent descriptor combinations (vehicle c at two
        // positions at once) must be filtered: exactly 4 pairs.
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn union_translation_matches_oracle() {
        let db = figure1_database();
        let q = table("r")
            .select(col("faction").eq(lit_str("Enemy")))
            .project(["id"])
            .union(
                table("r")
                    .select(col("type").eq(lit_str("Transport")))
                    .project(["id"]),
            );
        let got = possible(&db, &q).unwrap();
        let want = oracle_possible(&q, &db, 64).unwrap();
        assert!(got.set_eq(&want), "got {got}\nwant {want}");
        // Per-world decode equivalence as well.
        let u = evaluate(&db, &q).unwrap();
        for f in db.world.worlds(64).unwrap() {
            let got = u.tuples_in_world(&db.world, &f);
            let want = crate::algebra::oracle_eval(&q, &db, &f, 64).unwrap();
            assert!(got.set_eq(&want.sorted_set()), "world {f:?}");
        }
    }

    #[test]
    fn parsimony_one_logical_join_one_physical_join_per_merge_or_join() {
        // Translation size: joins in the plan = logical joins + merges.
        // `enemy_tanks` needs id, type, faction → three partitions →
        // two merges; zero logical joins.
        let db = figure1_database();
        let t = translate(&db, &enemy_tanks()).unwrap();
        assert_eq!(t.plan.join_count(), 2);
        // A single-attribute projection touches one partition: no joins.
        let t = translate(&db, &table("r").project(["type"])).unwrap();
        assert_eq!(t.plan.join_count(), 0);
    }

    #[test]
    fn reduced_projection_is_just_the_partition() {
        // On a reduced database, π_type(R) must not merge anything: the
        // answer is the type partition itself.
        let db = figure1_database();
        let q = table("r").project(["type"]);
        let got = possible(&db, &q).unwrap();
        let want = oracle_possible(&q, &db, 64).unwrap();
        assert!(got.set_eq(&want));
    }

    #[test]
    fn naive_translation_merges_everything_but_agrees() {
        let db = figure1_database();
        let q = table("r").project(["type"]).poss();
        let naive = translate_with(
            &db,
            &q,
            TranslateOptions {
                prune_partitions: false,
            },
        )
        .unwrap();
        assert_eq!(naive.plan.join_count(), 2, "P1 merges all partitions");
        let cat = db.to_catalog();
        let rel = exec::execute(&naive.plan, &cat).unwrap();
        let want = oracle_possible(&table("r").project(["type"]), &db, 64).unwrap();
        assert!(rel.set_eq(&want.sorted_set()));
    }

    #[test]
    fn optimizer_does_not_change_results() {
        let db = figure1_database();
        let q = enemy_tanks();
        let unopt = evaluate_with(&db, &q, TranslateOptions::default(), false).unwrap();
        let opt = evaluate_with(&db, &q, TranslateOptions::default(), true).unwrap();
        assert!(unopt.possible_tuples().set_eq(&opt.possible_tuples()));
    }

    #[test]
    fn certain_answers_via_oracle_stay_empty() {
        let db = figure1_database();
        let cert = oracle_certain(&enemy_tanks(), &db, 64).unwrap();
        assert!(cert.is_empty());
    }

    #[test]
    fn empty_projection_tracks_tuple_presence() {
        // π∅ (plan P3 uses it): no value columns, but tuple presence per
        // world must still be right — vehicle count is 4 in every world.
        let db = figure1_database();
        let q = table("r").project(Vec::<String>::new());
        let u = evaluate(&db, &q).unwrap();
        assert!(u.value_cols().is_empty());
        for f in db.world.worlds(64).unwrap() {
            let got = u.tuples_in_world(&db.world, &f);
            // A 0-ary relation has at most one (empty) tuple; it is
            // present because r is non-empty in every world.
            assert_eq!(got.len(), 1);
        }
    }

    #[test]
    fn poss_in_mid_query_acts_as_certain_table() {
        // poss(σ_Faction='Enemy'(R)) is a fixed set; selecting over it
        // again must agree with the oracle's nested-poss semantics.
        let db = figure1_database();
        let q = table("r")
            .select(col("faction").eq(lit_str("Enemy")))
            .project(["id"])
            .poss()
            .select(col("id").gt(urel_relalg::lit_i64(2)));
        let got = possible(&db, &q).unwrap();
        let want = crate::algebra::oracle_possible(&q, &db, 64).unwrap();
        assert!(got.set_eq(&want), "got {got}\nwant {want}");
    }

    #[test]
    fn union_pads_mismatched_descriptor_arities() {
        // Left side: 2-variable descriptors (from a join); right side:
        // descriptor-free (certain) rows. The union must pad and stay
        // correct per world.
        let db = figure1_database();
        let left = table_as("r", "x1")
            .select(col("x1.faction").eq(lit_str("Enemy")))
            .join(
                table_as("r", "x2").select(col("x2.type").eq(lit_str("Transport"))),
                col("x1.id").ne(col("x2.id")),
            )
            .project(["x1.id"]);
        let right = table("r")
            .select(col("type").eq(lit_str("Tank")))
            .project(["id"]);
        let q = left.union(right);
        let got = possible(&db, &q).unwrap();
        let want = oracle_possible(&q, &db, 64).unwrap();
        assert!(got.set_eq(&want), "got {got}\nwant {want}");
        let u = evaluate(&db, &q).unwrap();
        for f in db.world.worlds(64).unwrap() {
            let got_w = u.tuples_in_world(&db.world, &f);
            let want_w = crate::algebra::oracle_eval(&q, &db, &f, 64).unwrap();
            assert!(got_w.set_eq(&want_w.sorted_set()), "world {f:?}");
        }
    }

    #[test]
    fn poss_of_full_table_lists_all_possible_vehicles() {
        let db = figure1_database();
        let got = possible(&db, &table("r")).unwrap();
        let want = oracle_possible(&table("r"), &db, 64).unwrap();
        assert!(got.set_eq(&want));
        // 1 (certain) + 2 for b + 2 for c + 4 for d = 9 possible tuples.
        assert_eq!(got.len(), 9);
        let _ = Value::Int(0);
    }
}
