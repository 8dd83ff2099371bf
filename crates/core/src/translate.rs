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
//!   `⋀_{D'∈U1.D, D''∈U2.D} (D'.Var ≠ D''.Var ∨ D'.Rng = D''.Rng)`. Each
//!   descriptor entry is one packed `Int` column ([`urel_relalg::expr::pack`]),
//!   so each conjunct is one [`Expr::Psi`]: `D' = D'' ∨ var(D') ≠ var(D'')`,
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
use urel_relalg::{exec, optimizer, Catalog, ColRef, Expr, Plan, Relation, Schema};

/// A translated query: a relational plan plus the bookkeeping that says
/// which output columns encode descriptors, tuple ids and values.
#[derive(Clone, Debug)]
pub struct TPlan {
    /// Relational algebra plan over the encoded partitions and `W`.
    pub plan: Plan,
    /// Descriptor columns, one packed `(Var, Rng)` entry each.
    pub desc_cols: Vec<ColRef>,
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

/// Knobs for the translation, used by Figure 3's plan comparison.
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
    translate_unpruned(udb, q, opts, ALL_PRUNED)
}

/// No relation exempt from `prune_partitions`.
const ALL_PRUNED: &BTreeSet<String> = &BTreeSet::new();

/// Translate with every attribute of the `unpruned` relations read at
/// their leaves, whatever `opts.prune_partitions` says (the exact path of
/// [`PreparedDb::certain`] and the confidence entry points).
fn translate_unpruned(
    udb: &UDatabase,
    q: &UQuery,
    opts: TranslateOptions,
    unpruned: &BTreeSet<String>,
) -> Result<TPlan> {
    let mut tr = Translator {
        udb,
        next: 0,
        opts,
        unpruned,
    };
    let t = tr.query(q, None)?;
    Ok(canonicalize(t))
}

/// Translate, optimize, execute, and decode the result U-relation.
pub fn evaluate(udb: &UDatabase, q: &UQuery) -> Result<URelation> {
    evaluate_with(udb, q, TranslateOptions::default(), true)
}

/// Evaluation with explicit translation options and an optimizer toggle
/// (for tests that compare plan variants; see [`PreparedDb::evaluate_with`]).
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
/// the database. Encoded partitions are born as column images
/// ([`URelation::encode`]), which registration's statistics and the
/// engine's vectorized batch pipelines read directly: no row copy of
/// the base data is built unless an operator asks for one. A *plan
/// cache* completes the prepared-statement picture: each distinct
/// (query, options) pair is translated and optimized once, and
/// re-running it executes the cached physical plan directly — on the
/// Figure 12 workload that halves steady-state query latency, since
/// translation + optimization cost as much as execution at these
/// scales. The cache is sound because the
/// database is immutably borrowed for the `PreparedDb`'s lifetime. The
/// same borrow lets the set of relations with partial fields
/// ([`UDatabase::partial_relations`]) be computed once, on the first
/// `certain` or confidence call, and kept. The free functions
/// [`evaluate`] / [`possible`] remain one-shot conveniences that prepare
/// internally.
pub struct PreparedDb<'a> {
    udb: &'a UDatabase,
    catalog: Catalog,
    /// Prepared-statement cache: `(query, options, optimized, unpruned)`
    /// → translated (+ optimized) plan and decode bookkeeping. A `Mutex`
    /// (not `RefCell`) keeps `PreparedDb: Sync`; contention is per
    /// query, never per row.
    plans: std::sync::Mutex<Vec<PlanCacheEntry>>,
    /// The relations with partial fields, filled by the first exact
    /// (`certain` or confidence) call. A failed scan leaves it empty, so
    /// the error is returned again rather than read as "none". Threads
    /// racing on the first call may each scan; their sets are equal.
    partial: std::sync::OnceLock<BTreeSet<String>>,
}

/// One prepared-statement cache slot: the statement key (query, options,
/// optimizer toggle, whether the partial relations' leaves read every
/// partition) and its physical plan.
type PlanCacheEntry = (
    UQuery,
    TranslateOptions,
    bool,
    bool,
    std::sync::Arc<CachedPlan>,
);

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
            partial: std::sync::OnceLock::new(),
        }
    }

    /// Build a `PreparedDb` over an *already prepared* catalog instead
    /// of encoding the database again. `Catalog` clones alias their
    /// `Arc<Relation>` storage and `Arc<TableStats>` statistics, so a
    /// server can encode the database once and hand every session its
    /// own cheap catalog copy — sessions share the base data and
    /// statistics but keep independent plan caches and execution knobs
    /// (memory budget, storage, deadline). The caller is responsible
    /// for `catalog` actually encoding `udb` (i.e. it descends from
    /// [`UDatabase::to_catalog`]).
    pub fn with_catalog(udb: &'a UDatabase, catalog: Catalog) -> Self {
        PreparedDb {
            udb,
            catalog,
            plans: std::sync::Mutex::new(Vec::new()),
            partial: std::sync::OnceLock::new(),
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

    /// Cap the bytes pipeline-breaker buffers may hold for queries run
    /// through this `PreparedDb` (`usize::MAX` or `0` = unbounded; the
    /// default comes from `RELALG_MEM_BUDGET`). Over-budget breakers
    /// spill to sorted runs in a scoped temp directory — answers are
    /// byte-identical to unbounded execution, and cached plans stay
    /// valid: the budget is an execution knob, not a plan property.
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
    /// next batch boundary, releases every resource it holds,
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
    /// toggle (Figure 3's P1–P3 in `fig03_plans`, and tests). Plans come
    /// from the prepared-statement cache when the same (query, options)
    /// pair ran before.
    pub fn evaluate_with(
        &self,
        q: &UQuery,
        opts: TranslateOptions,
        optimize: bool,
    ) -> Result<URelation> {
        let entry = self.plan_for(q, opts, optimize, ALL_PRUNED)?;
        let rel = exec::execute(&entry.plan, &self.catalog)?;
        URelation::decode("result", &rel, entry.desc_arity, entry.tid_count)
    }

    /// Evaluate `q` so that the result's descriptors say *exactly* in
    /// which worlds each row is an answer: every relation with a partial
    /// field reads all of its attributes, so `merge`'s ψ rebuilds the
    /// worlds where each of its tuples exists. The other relations keep
    /// their pruned leaves, which Proposition 3.3 makes exact once the
    /// database is reduced.
    fn evaluate_exact(&self, q: &UQuery) -> Result<URelation> {
        let entry = self.plan_for(q, TranslateOptions::default(), true, self.partial()?)?;
        let rel = exec::execute(&entry.plan, &self.catalog)?;
        URelation::decode("result", &rel, entry.desc_arity, entry.tid_count)
    }

    /// The relations with partial fields, scanned on first use.
    fn partial(&self) -> Result<&BTreeSet<String>> {
        if let Some(set) = self.partial.get() {
            return Ok(set);
        }
        let set = self.udb.partial_relations()?;
        Ok(self.partial.get_or_init(|| set))
    }

    /// Look up (or translate, optimize, and insert) the physical plan
    /// for a statement whose `unpruned` relations read every attribute.
    fn plan_for(
        &self,
        q: &UQuery,
        opts: TranslateOptions,
        optimize: bool,
        unpruned: &BTreeSet<String>,
    ) -> Result<std::sync::Arc<CachedPlan>> {
        // An empty set translates like the default, so the two share
        // cache slots.
        let full = !unpruned.is_empty();
        {
            let plans = self.plans.lock().expect("plan cache poisoned");
            if let Some((.., e)) = plans.iter().find(|(cq, co, copt, cfull, _)| {
                cq == q && *co == opts && *copt == optimize && *cfull == full
            }) {
                return Ok(std::sync::Arc::clone(e));
            }
        }
        let t = translate_unpruned(self.udb, q, opts, unpruned)?;
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
        plans.push((
            q.clone(),
            opts,
            optimize,
            full,
            std::sync::Arc::clone(&entry),
        ));
        Ok(entry)
    }

    /// Evaluate `poss(Q)` (wrapping `Q` if needed): the set of possible
    /// answer tuples, as a plain relation.
    pub fn possible(&self, q: &UQuery) -> Result<Relation> {
        Ok(self.possible_with_stats(q)?.0)
    }

    /// [`PreparedDb::possible`] plus the [`urel_relalg::ExecStats`] of
    /// the physical execution — the serving layer reports these per
    /// request (batches, spills, pool traffic, cancellation).
    pub fn possible_with_stats(&self, q: &UQuery) -> Result<(Relation, urel_relalg::ExecStats)> {
        let wrapped = match q {
            UQuery::Poss { .. } => q.clone(),
            _ => q.clone().poss(),
        };
        let entry = self.plan_for(&wrapped, TranslateOptions::default(), true, ALL_PRUNED)?;
        let (rel, stats) = exec::execute_with_stats(&entry.plan, &self.catalog)?;
        // A `poss` plan carries values only, so the result already is
        // the answer: sort and dedup it in place under the value-column
        // schema `URelation::possible_tuples` would give it, with no
        // `URow`s.
        debug_assert_eq!((entry.desc_arity, entry.tid_count), (0, 0));
        let schema = Schema::named(rel.schema().columns().iter().map(|c| c.to_string()));
        let mut out = std::sync::Arc::unwrap_or_clone(rel).with_schema(schema)?;
        out.dedup_in_place();
        Ok((out, stats))
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
        let entry = self.plan_for(&wrapped, TranslateOptions::default(), true, ALL_PRUNED)?;
        Ok(urel_relalg::explain::explain(&entry.plan, &self.catalog))
    }

    /// Certain answers of `Q` through the prepared-statement plan cache
    /// (the serving path for the query surface's `certain` clause):
    /// evaluate the translated query, then keep each value tuple whose
    /// descriptors cover every world ([`crate::certain::certain_exact`]
    /// — the tuples [`PreparedDb::certain_with_confidence`] reports
    /// under the exact method). Relations with partial or-set fields
    /// read every attribute at their leaves, so each row's descriptor
    /// says exactly in which worlds it is an answer (see
    /// [`UDatabase::partial_relations`]); which relations those are is
    /// found on the first exact call and kept for the `PreparedDb`'s
    /// lifetime. The coverage test runs per tuple over that tuple's
    /// variables only, so no fused component or world count bounds it.
    pub fn certain(&self, q: &UQuery) -> Result<Relation> {
        // NB: `q` is evaluated exactly as written — an explicit
        // `poss(Q)` wrapper projects descriptors away, making the
        // result deterministic, so its certain answers are the
        // possible answers (the world-expansion oracle pins this).
        let u = self.evaluate_exact(q)?;
        crate::certain::certain_exact(&u, &self.udb.world)
    }

    /// Evaluate `poss(Q)` with a confidence per answer tuple. The query
    /// is evaluated *without* the final `poss` projection (confidence
    /// needs the result descriptors), on the exact translation of
    /// [`PreparedDb::certain`], then each distinct value tuple gets the
    /// union probability of its descriptors, exact or Monte-Carlo
    /// estimated per `method`.
    pub fn possible_with_confidence(
        &self,
        q: &UQuery,
        method: crate::prob::ConfidenceMethod,
    ) -> Result<Vec<(Vec<urel_relalg::Value>, f64)>> {
        let inner: &UQuery = match q {
            UQuery::Poss { input } => input,
            _ => q,
        };
        let u = self.evaluate_exact(inner)?;
        crate::prob::tuple_confidences_with(&u, &self.udb.world, method)
    }

    /// Certain answers with a coverage probability per tuple: evaluated
    /// without the final `poss` projection (coverage needs the result
    /// descriptors), on the exact translation of [`PreparedDb::certain`],
    /// then each distinct value tuple's descriptor union is checked for
    /// full world coverage — combinatorially for
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
        let u = self.evaluate_exact(inner)?;
        crate::certain::certain_with_coverage(&u, &self.udb.world, method, DELTA)
    }
}

struct Translator<'a> {
    udb: &'a UDatabase,
    next: usize,
    opts: TranslateOptions,
    /// Relations whose leaves read every attribute, whatever
    /// `opts.prune_partitions` says: a merge of every partition
    /// ([`Translator::fields`] reads every attribute of any relation
    /// whose partitions share columns anyway).
    unpruned: &'a BTreeSet<String>,
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

        // Which attributes must the leaf produce? A relation with partial
        // fields needs all of them to tell where its tuples exist.
        let exact = self.unpruned.contains(rel);
        let wanted: Vec<String> = match (needed, self.opts.prune_partitions && !exact) {
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
        // Partitions that share value columns need every field, on every
        // entry point: a covering merge may define a tuple in fewer
        // worlds than its fields are defined.
        let width: usize = parts.iter().map(|p| p.value_cols().len()).sum();
        if width > attrs.len() {
            return self.fields(rel, parts, &attrs, &key, &mk);
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
            // Presence-only leaf (e.g. π over other side of a join): in
            // a *reduced* database every partition holding a value
            // column witnesses tuple existence, so the smallest does.
            // A partition without value columns defines no field and
            // witnesses nothing (see `UDatabase::instantiate`) — except
            // in a zero-attribute relation, whose tuples exist wherever
            // any of its partitions has a row.
            if attrs.is_empty() {
                let mut acc: Option<TPlan> = None;
                for p in parts {
                    let leaf = self.leaf(p, &key, &mk, &[])?;
                    acc = Some(match acc {
                        None => leaf,
                        Some(prev) => self.union(prev, leaf)?,
                    });
                }
                return Ok(acc.expect("at least one partition"));
            }
            let witness = parts
                .iter()
                .filter(|p| !p.value_cols().is_empty())
                .min_by_key(|p| p.len())
                .ok_or_else(|| {
                    Error::InvalidDatabase(format!(
                        "attributes of `{rel}` are not covered by any partition"
                    ))
                })?;
            chosen.push(witness);
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

    /// The leaf of a relation whose partitions share value columns, on
    /// every entry point. A merge of covering partitions would be
    /// wrong there: a tuple exists wherever each *field* is defined, by
    /// any partition that holds it, so one partition may define the
    /// tuple in fewer worlds than it exists in. Instead each attribute
    /// reads the union of its columns across partitions, and the fields
    /// are merged — the semantics of [`UDatabase::instantiate`], built
    /// from the translation's own `union` and `merge`.
    fn fields(
        &mut self,
        rel: &str,
        parts: &[URelation],
        attrs: &[String],
        key: &str,
        mk: &dyn Fn(&str) -> ColRef,
    ) -> Result<TPlan> {
        let mut acc: Option<TPlan> = None;
        for a in attrs {
            let mut field: Option<TPlan> = None;
            for p in parts {
                if p.value_cols().contains(a) {
                    let leaf = self.leaf(p, key, mk, &[a])?;
                    field = Some(match field {
                        None => leaf,
                        Some(prev) => self.union(prev, leaf)?,
                    });
                }
            }
            let field = field.ok_or_else(|| {
                Error::InvalidDatabase(format!("attribute `{a}` of `{rel}` is not covered"))
            })?;
            acc = Some(match acc {
                None => field,
                Some(prev) => self.merge(prev, field)?,
            });
        }
        acc.ok_or_else(|| Error::InvalidQuery(format!("relation `{rel}` has no attributes")))
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
            let d = ColRef::new(format!("d{}", self.fresh()));
            cols.push((Expr::Col(ColRef::new(format!("d{i}"))), d.clone()));
            desc_cols.push(d);
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
    fn psi(l: &[ColRef], r: &[ColRef]) -> Expr {
        Expr::and(l.iter().flat_map(|a| {
            r.iter()
                .map(|b| Expr::Col(a.clone()).psi(Expr::Col(b.clone())))
        }))
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
        for d in &desc_cols {
            cols.push((Expr::Col(d.clone()), d.clone()));
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
        for d in &t.desc_cols {
            cols.push((Expr::Col(d.clone()), d.clone()));
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
        let out_desc: Vec<ColRef> = (0..arity)
            .map(|_| ColRef::new(format!("d{}", self.fresh())))
            .collect();
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
            for (i, od) in out_desc.iter().enumerate() {
                // Pad by repeating the first entry (the paper's rule), or
                // with ⊤ ↦ 0, which packs to 0, when the side has none.
                let e = match t.desc_cols.get(i).or(t.desc_cols.first()) {
                    Some(d) => Expr::Col(d.clone()),
                    None => urel_relalg::lit_i64(0),
                };
                cols.push((e, od.clone()));
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
/// `d0, d1, …, t0, t1, …, <attr display names>` so that
/// [`URelation::decode`] can read the executed result positionally.
fn canonicalize(t: TPlan) -> TPlan {
    let mut cols: Vec<(Expr, ColRef)> = Vec::new();
    let mut desc_cols = Vec::new();
    for (i, d) in t.desc_cols.iter().enumerate() {
        let od = ColRef::new(format!("d{i}"));
        cols.push((Expr::Col(d.clone()), od.clone()));
        desc_cols.push(od);
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
    use crate::certain::tests::partial_db;
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

    /// `PreparedDb` stays `Sync`: the server shares one across threads,
    /// and the partial-relation cache must not break that.
    const _: fn() = || {
        fn assert_sync<T: Sync>() {}
        assert_sync::<PreparedDb<'static>>();
    };

    /// `certain` translates flagged relations without pruning, but under
    /// its own cache key: the `possible` plans, and so `explain`, stay
    /// byte-identical, with or without partial fields.
    #[test]
    fn certain_leaves_possible_plans_unchanged() {
        let cases = [
            // `certain(poss(Q))` shares `explain`'s slot unless the
            // database has partial fields.
            (figure1_database(), enemy_tanks(), 1),
            (partial_db(), table("r").project(["a"]), 2),
        ];
        for (db, q, new_slots) in cases {
            let prepared = PreparedDb::new(&db);
            let before = prepared.explain(&q).unwrap();
            let slots = prepared.cached_plan_count();
            prepared.certain(&q).unwrap();
            prepared.certain(&q.clone().poss()).unwrap();
            assert_eq!(prepared.explain(&q).unwrap(), before);
            assert_eq!(prepared.cached_plan_count(), slots + new_slots);
        }
    }

    /// A partial-field scan that fails is reported on every call, never
    /// cached as "no partial fields".
    #[test]
    fn partial_scan_errors_are_not_cached() {
        let mut db = partial_db();
        // `u_b`'s descriptors name x1, which this world table lacks.
        db.world = crate::WorldTable::new();
        let prepared = PreparedDb::new(&db);
        let q = table("r").project(["a"]);
        for _ in 0..2 {
            assert!(prepared.certain(&q).is_err());
            assert!(prepared
                .possible_with_confidence(&q, crate::prob::ConfidenceMethod::Exact)
                .is_err());
            assert!(prepared
                .certain_with_confidence(&q, crate::prob::ConfidenceMethod::Exact)
                .is_err());
            assert!(prepared.partial.get().is_none());
        }
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
    fn presence_is_witnessed_by_a_partition_with_values() {
        // `r[a]` as `u_a` (tuple 1 under ⊤) plus an empty `u_p[]`: the
        // valueless partition defines no field, so π∅ r still has
        // its one (empty) tuple, as the world expansion says.
        let db = crate::reduce::tests::valueless_sibling_db();
        let q = table("r").project(Vec::<String>::new());
        let got = possible(&db, &q).unwrap();
        assert_eq!(got.len(), 1);
        assert!(got.set_eq(&oracle_possible(&q, &db, 16).unwrap()));
        assert_eq!(possible(&db, &table("r")).unwrap().len(), 1);
    }

    #[test]
    fn zero_attribute_presence_unions_its_partitions() {
        // A zero-attribute relation's tuple exists wherever any of its
        // partitions has a row: here in both worlds, though each
        // partition covers only one.
        use crate::urelation::URelation;
        use crate::world::{Var, WorldTable};
        use crate::WsDescriptor;
        let mut w = WorldTable::new();
        w.add_var(Var(1), vec![0, 1]).unwrap();
        let mut db = UDatabase::new(w);
        db.add_relation("z", Vec::<String>::new()).unwrap();
        for (name, val) in [("z0", 0), ("z1", 1)] {
            let mut p = URelation::partition(name, Vec::<String>::new());
            p.push_simple(WsDescriptor::singleton(Var(1), val), 1, vec![])
                .unwrap();
            db.add_partition("z", p).unwrap();
        }
        db.validate().unwrap();
        let q = table("z");
        let u = evaluate(&db, &q).unwrap();
        for f in db.world.worlds(4).unwrap() {
            let want = crate::algebra::oracle_eval(&q, &db, &f, 4).unwrap();
            assert_eq!(want.len(), 1);
            assert_eq!(u.tuples_in_world(&db.world, &f).len(), 1, "{f:?}");
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
