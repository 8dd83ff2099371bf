//! Pull-based streaming plan execution over shared relations.
//!
//! Executing a plan has two phases:
//!
//! 1. **Prepare** ([`stream`]): the logical plan compiles bottom-up into a
//!    tree of physical operators. All name resolution, predicate
//!    compilation and schema checks happen here, so pulling rows later is
//!    infallible. Pipeline *breakers* do their buffering work now: a hash
//!    join buffers its build side, semi/antijoins, set-difference and
//!    nested loops their right side — each as a column-major
//!    [`ColumnarImage`] appended batch by batch, column by column (no
//!    row round trip), or, when that side is an already-materialized
//!    scan, the scan's own cached image — and index it with a flat
//!    chained digest table.
//! 2. **Pull** ([`Streamed`]): the prepared tree executes on one engine,
//!    the batched cursors, and every pull — full, limited, or batch-wise
//!    — runs on it.
//!
//!    Execution is **vectorized**: scans read [`BATCH_SIZE`]-row
//!    [`ColumnBatch`]es off each relation's cached column-major image
//!    ([`crate::relation::ColumnarImage`]), predicates evaluate
//!    column-at-a-time in typed tight loops (`&[i64]` comparisons,
//!    pointer-first interned-string equality) producing selection
//!    vectors, projections shuffle column pointers, and hash-join probes
//!    hash the key columns of a whole batch before emitting matches as
//!    zero-copy views of both the probe batch and the build image.
//!    Breakers (build sides, distinct/difference seen-sets, sort,
//!    aggregation) consume and emit batches too. Cross-side predicates —
//!    nested-loop theta joins, residual and non-equi semijoins — run the
//!    *pair-batch evaluator*: candidate (probe, buffered-side) pairs are
//!    assembled as zero-copy batches and masked by the same vectorized
//!    kernels. A limited pull ([`Streamed::collect_rows`] with a cap)
//!    stops at batch granularity: after the batch that reaches the cap,
//!    so upstream work overshoots by at most one batch.
//!
//!    Every pull runs on the calling thread. Concurrency comes from
//!    running queries side by side (the server's sessions), not from
//!    splitting one query across threads.
//!
//! Zero-copy guarantees carry over from the shared-relation engine:
//! `Scan`/`Values` still hand back the catalog's own `Arc<Relation>`
//! pointer-equal, and `Rename` re-qualifies the schema while aliasing the
//! input's row storage (and its cached columnar image). Only the final
//! consumer materializes — and consumers that do not need a full result
//! ([`crate::sort::limit_plan`], aggregation) stop pulling once they
//! have what they want.
//!
//! Under a **memory budget** ([`EngineConfig::mem_budget`] /
//! `RELALG_MEM_BUDGET`), breaker buffers charge their bytes against a
//! shared [`SpillCtx`] tracker and spill to sorted runs in a scoped
//! temp directory when they cross the budget:
//! hash-join builds become on-disk digest partitions probed by a
//! recursive hybrid-hash protocol, and distinct/difference seen-sets
//! flush with first-occurrence candidates resolved at end of input
//! (sort and aggregation spill on their own consumers' side). Spilled
//! execution is byte-identical to unbounded execution, limited pulls
//! included.
//!
//! [`ExecStats`] counts the intermediate buffers actually allocated plus
//! the batches emitted (and their mean fill) and the spill counters
//! (peak tracked bytes, spill events, spilled bytes), so tests (and
//! `EXPLAIN`) can assert that a streaming chain copied nothing and
//! actually ran vectorized. The old operator-at-a-time engine survives
//! as [`execute_reference`], the differential baseline the property
//! suites compare against.

use crate::batch::{stored_row_bytes, BatchCol, ColumnBatch, ImageBuilder, BATCH_SIZE};
use crate::catalog::{Catalog, EngineConfig, StorageMode};
use crate::error::{Error, Result};
use crate::expr::{CmpOp, CompiledExpr, Expr};
use crate::fault::{self, CancelToken, FaultInjector};
use crate::fxhash::{FxHashMap, FxHashSet, FxHasher};
use crate::optimizer::{est_rows_cached, EstCache};
use crate::plan::Plan;
use crate::relation::{row_footprint, ColumnarImage, Relation, Row};
use crate::schema::Schema;
use crate::segment::DecodedSegment;
use crate::spill::{merge_runs, MergeRuns, Record, Run, SpillCtx};
use crate::store::{DiskImageProvider, IoCounters};
use crate::value::Value;
use std::cell::Cell;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Execute a plan against a catalog.
///
/// The result is shared: scanning a base relation returns the catalog's
/// own entry (pointer-equal, no copy), and every computed relation is
/// wrapped once so callers can keep or clone it at Arc cost.
pub fn execute(plan: &Plan, catalog: &Catalog) -> Result<Arc<Relation>> {
    stream(plan, catalog)?.into_relation().map(|(rel, _)| rel)
}

/// Execute and report how much intermediate buffering the streaming
/// engine did (see [`ExecStats`]).
pub fn execute_with_stats(plan: &Plan, catalog: &Catalog) -> Result<(Arc<Relation>, ExecStats)> {
    stream(plan, catalog)?.into_relation()
}

/// Buffering done by one streamed execution.
///
/// `buffers` counts the pipeline-breaker buffers that held intermediate
/// rows: materialized hash-join build sides, nested-loop inner sides,
/// semi/antijoin right sides (when not already-materialized sources),
/// and the seen-sets of `Distinct`/`Difference`. The final output
/// materialization is *not* counted — it belongs to the consumer.
/// `buffered_rows` is the number of rows copied into those buffers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of intermediate row buffers allocated.
    pub buffers: usize,
    /// Total rows copied into intermediate buffers.
    pub buffered_rows: usize,
    /// Column batches emitted by the pipelines (0 when no pipeline
    /// emitted a row).
    pub batches: usize,
    /// Logical rows carried by those batches.
    pub batch_rows: usize,
    /// High-water mark of breaker-buffer bytes tracked against the
    /// memory budget (0 when the engine runs unbounded — tracking is
    /// off the hot path entirely).
    pub peak_tracked_bytes: usize,
    /// Spill events: one per run flushed to the execution's scoped
    /// spill directory (0 = everything stayed in memory). Like
    /// `peak_tracked_bytes`, this is **cumulative over the prepared
    /// execution's lifetime** — re-pulling the same [`Streamed`]
    /// re-spills its pull-time breakers and keeps counting (unlike
    /// `buffered_rows`, which resets per pull).
    pub spill_events: usize,
    /// Estimated bytes of buffered data written to spill runs
    /// (cumulative, like `spill_events`).
    pub spilled_bytes: usize,
    /// Storage segments decoded and scanned by disk base-table
    /// cursors (0 under plain storage; cumulative over the prepared
    /// execution's lifetime, counted per cursor visit).
    pub segments_scanned: usize,
    /// Storage segments skipped outright because a zone map refuted a
    /// sargable scan predicate (cumulative, like `segments_scanned`).
    pub segments_skipped: usize,
    /// Approximate bytes materialized by fresh segment decodes
    /// (buffer-pool hits add nothing, so this measures pool-miss
    /// traffic).
    pub decoded_bytes: usize,
    /// Pages read from on-disk segment stores, in [`crate::store::PAGE`]
    /// units (0 unless a scan ran under `StorageMode::Disk`; cumulative
    /// like the segment counters).
    pub pages_read: usize,
    /// Buffer-pool hits: segment fetches under disk storage served
    /// from the shared pool without a disk read (cumulative).
    pub pool_hits: usize,
    /// Buffer-pool misses: segment fetches under disk storage that had
    /// to read and decode before installing into the pool (cumulative).
    pub pool_misses: usize,
    /// Transient-I/O retries taken by the retry layer (injected or
    /// real; cumulative over the execution's lifetime).
    pub retries: usize,
    /// Faults injected by the configured deterministic schedule
    /// (`RELALG_FAULTS` / [`crate::Catalog::set_faults`]; always 0 when
    /// injection is disabled).
    pub faults_injected: usize,
    /// `true` once this execution's cancel token tripped (explicit
    /// cancellation or deadline) — the pull that observed it returned
    /// [`Error::Cancelled`].
    pub cancelled: bool,
}

impl ExecStats {
    /// Mean rows per emitted batch (the fill factor `EXPLAIN` reports;
    /// the target is [`BATCH_SIZE`]). `None` when nothing ran batched.
    pub fn mean_batch_fill(&self) -> Option<f64> {
        (self.batches > 0).then(|| self.batch_rows as f64 / self.batches as f64)
    }
}

/// Buffer accounting. `prepare_rows` holds rows copied while building
/// the operator tree (breaker materializations); `pull_rows` holds
/// seen-set rows of the *current* pull and is reset whenever a fresh
/// top-level cursor starts, so pulling the same [`Streamed`] twice does
/// not double-count its `Distinct`/`Difference` buffers.
struct Counters {
    buffers: Cell<usize>,
    prepare_rows: Cell<usize>,
    pull_rows: Cell<usize>,
    prepare_batches: Cell<(usize, usize)>,
    pull_batches: Cell<(usize, usize)>,
    /// Memory budget, spill directory, and spill counters — shared with
    /// the consumers that buffer on the engine's behalf (sort,
    /// aggregation).
    spill: Arc<SpillCtx>,
    /// Disk-storage counters.
    seg: SegCounters,
    /// Per-execution deterministic fault injector (`None` = fault layer
    /// disabled: every edge short-circuits on one `None` test).
    faults: Option<Arc<FaultInjector>>,
    /// Cooperative cancellation token, checked at every batch boundary
    /// by the pull driver.
    cancel: Arc<CancelToken>,
}

/// Segment traffic of one execution: scans, zone-map skips, and the
/// provider-side I/O tallies (bytes decoded, pages read, buffer-pool
/// hits/misses), cumulative over the execution's lifetime (like spill
/// counters).
#[derive(Default)]
struct SegCounters {
    scanned: AtomicUsize,
    skipped: AtomicUsize,
    io: IoCounters,
}

impl SegCounters {
    /// Segment counters whose I/O edges (pool leases, page reads) draw
    /// from `faults`.
    fn with_faults(faults: Option<Arc<FaultInjector>>) -> SegCounters {
        SegCounters {
            io: IoCounters::with_faults(faults),
            ..SegCounters::default()
        }
    }
}

impl Default for Counters {
    fn default() -> Self {
        Counters::with_spill(Arc::new(SpillCtx::unbounded()))
    }
}

impl Counters {
    fn with_spill(spill: Arc<SpillCtx>) -> Counters {
        Counters {
            buffers: Cell::new(0),
            prepare_rows: Cell::new(0),
            pull_rows: Cell::new(0),
            prepare_batches: Cell::new((0, 0)),
            pull_batches: Cell::new((0, 0)),
            spill,
            seg: SegCounters::default(),
            faults: None,
            cancel: Arc::new(CancelToken::unlimited()),
        }
    }

    /// The counter set of one prepared execution: the spill context,
    /// fault injector, and cancel token all come from the catalog's
    /// [`EngineConfig`], and the segment counters' I/O edges share the
    /// injector.
    fn for_exec(
        spill: Arc<SpillCtx>,
        faults: Option<Arc<FaultInjector>>,
        cancel: Arc<CancelToken>,
    ) -> Counters {
        Counters {
            seg: SegCounters::with_faults(faults.clone()),
            faults,
            cancel,
            ..Counters::with_spill(spill)
        }
    }

    /// Record a buffer that copied `rows` rows at prepare time.
    fn buffer(&self, rows: usize) {
        self.buffers.set(self.buffers.get() + 1);
        self.prepare_rows.set(self.prepare_rows.get() + rows);
    }

    /// Record a buffering operator whose rows accrue at pull time.
    fn breaker(&self) {
        self.buffers.set(self.buffers.get() + 1);
    }

    /// Record rows copied into an already-registered breaker buffer.
    fn rows(&self, n: usize) {
        self.pull_rows.set(self.pull_rows.get() + n);
    }

    /// Record a column batch of `rows` logical rows emitted by a
    /// batched pipeline.
    fn batch(&self, rows: usize) {
        let (b, r) = self.pull_batches.get();
        self.pull_batches.set((b + 1, r + rows));
    }

    /// Fold the counts of a finished prepare-time pull (a breaker
    /// materialization) into the permanent counters.
    fn commit_pull(&self) {
        let n = self.pull_rows.take();
        self.prepare_rows.set(self.prepare_rows.get() + n);
        let (b, r) = self.pull_batches.take();
        let (pb, pr) = self.prepare_batches.get();
        self.prepare_batches.set((pb + b, pr + r));
    }

    /// Start a fresh top-level pull: discard the previous pull's
    /// seen-set row and batch counts.
    fn reset_pull(&self) {
        self.pull_rows.set(0);
        self.pull_batches.set((0, 0));
    }

    fn snapshot(&self) -> ExecStats {
        let (pb, pr) = self.prepare_batches.get();
        let (b, r) = self.pull_batches.get();
        ExecStats {
            buffers: self.buffers.get(),
            buffered_rows: self.prepare_rows.get() + self.pull_rows.get(),
            batches: pb + b,
            batch_rows: pr + r,
            peak_tracked_bytes: self.spill.budget().peak(),
            spill_events: self.spill.events(),
            spilled_bytes: self.spill.spilled_bytes(),
            segments_scanned: self.seg.scanned.load(AtomicOrdering::Relaxed),
            segments_skipped: self.seg.skipped.load(AtomicOrdering::Relaxed),
            decoded_bytes: self.seg.io.decoded_bytes.load(AtomicOrdering::Relaxed),
            pages_read: self.seg.io.pages_read.load(AtomicOrdering::Relaxed),
            pool_hits: self.seg.io.pool_hits.load(AtomicOrdering::Relaxed),
            pool_misses: self.seg.io.pool_misses.load(AtomicOrdering::Relaxed),
            retries: self.faults.as_ref().map_or(0, |f| f.retries()),
            faults_injected: self.faults.as_ref().map_or(0, |f| f.injected()),
            cancelled: self.cancel.tripped(),
        }
    }
}

/// A prepared, pullable execution: physical operators with all owned
/// state (compiled expressions, materialized breaker inputs, hash
/// tables). Every pull method re-streams from the top.
pub struct Streamed {
    root: Node,
    schema: Schema,
    counters: Counters,
}

/// Prepare-time context: the catalog plus the buffer counters and the
/// shared estimate cache.
struct PrepCtx<'a> {
    catalog: &'a Catalog,
    counters: &'a Counters,
    est: &'a EstCache,
}

/// Prepare a plan for streaming execution: resolve, compile, and build
/// all breaker-side buffers. Errors (unknown columns, schema mismatches)
/// surface here; pulling rows afterwards cannot fail.
pub fn stream(plan: &Plan, catalog: &Catalog) -> Result<Streamed> {
    let cfg = *catalog.config();
    // One fault injector and one cancel token per prepared execution:
    // the injector's tick sequence (and thus the fault schedule) depends
    // only on the config and the operation sequence, and the deadline
    // clock starts here, at prepare.
    let faults = cfg.faults.map(|fc| Arc::new(FaultInjector::new(fc)));
    let cancel = Arc::new(CancelToken::new(cfg.deadline));
    let spill = Arc::new(SpillCtx::new(cfg.mem_budget).with_faults(faults.clone()));
    let counters = Counters::for_exec(spill, faults, cancel);
    // One estimate cache per prepare: build-side choices re-estimate the
    // same subtrees, and the plan is borrowed for the whole prepare so
    // node addresses are stable cache keys.
    let est = EstCache::default();
    let ctx = PrepCtx {
        catalog,
        counters: &counters,
        est: &est,
    };
    // Prepare-time breaker materializations pull through the same
    // infallible cursor interfaces as query pulls, so mid-pull I/O
    // errors unwind (`fault::rethrow`) and convert back to `Err` here.
    let (root, schema) = fault::catch_pull(|| prepare(plan, &ctx))??;
    Ok(Streamed {
        root,
        schema,
        counters,
    })
}

impl Streamed {
    /// The output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Buffering done so far (breaker builds happen at prepare time,
    /// seen-set growth at pull time).
    pub fn stats(&self) -> ExecStats {
        self.counters.snapshot()
    }

    /// This execution's spill context (budget tracker + scoped spill
    /// directory), for consumers that buffer on the engine's behalf
    /// (sort, aggregation).
    pub(crate) fn spill_ctx(&self) -> &Arc<SpillCtx> {
        &self.counters.spill
    }

    /// Path of the scoped spill directory, if this execution has
    /// spilled (`None` otherwise). The directory — and every run file
    /// in it — is removed when the `Streamed` is dropped, including on
    /// the panic path.
    pub fn spill_dir(&self) -> Option<std::path::PathBuf> {
        self.counters.spill.dir_path().map(Into::into)
    }

    /// `true` when a hash-join build side spilled at prepare time to
    /// on-disk partitions (which the pulls then probe with the
    /// hybrid-hash protocol).
    pub fn spilled_build(&self) -> bool {
        self.root.any_spilled_build()
    }

    /// Pull every column batch through `f` — zero-copy views of shared
    /// columns wherever the pipeline allows — without materializing the
    /// output rows.
    pub fn for_each_batch(&self, f: impl FnMut(&ColumnBatch<'_>) -> Result<()>) -> Result<()> {
        self.pull(usize::MAX, f)
    }

    /// Pull up to `limit` rows (all when `None`) into an owned buffer.
    ///
    /// Limited pulls stop after the batch that reaches the limit —
    /// upstream work overshoots by at most one batch — and return
    /// exactly the first `limit` rows of the full pull.
    pub fn collect_rows(&self, limit: Option<usize>) -> Result<Vec<Row>> {
        let cap = limit.unwrap_or(usize::MAX);
        let mut rows = Vec::new();
        self.pull(cap, |b| {
            rows.extend((0..b.len()).map(|pos| b.row(pos)));
            Ok(())
        })?;
        rows.truncate(cap);
        Ok(rows)
    }

    /// The pull loop behind every consumer: runs the batched cursor
    /// tree from the top, checks the cancel token at every batch
    /// boundary, and hands batches to `f` until the stream ends or at
    /// least `limit` rows have gone by.
    fn pull(&self, limit: usize, mut f: impl FnMut(&ColumnBatch<'_>) -> Result<()>) -> Result<()> {
        self.counters.reset_pull();
        fault::catch_pull(|| {
            let mut cur = self.root.batch_cursor(&self.counters);
            let mut pulled = 0;
            while pulled < limit {
                let Some(b) = cur.next_batch() else {
                    break;
                };
                self.counters.cancel.check()?;
                self.counters.batch(b.len());
                pulled += b.len();
                f(&b)?;
            }
            Ok(())
        })?
    }

    /// Materialize the full result. When the plan bottoms out in an
    /// already-materialized source (scan / values / rename chains), the
    /// shared relation is returned as-is — pointer-equal for scans.
    pub fn into_relation(self) -> Result<(Arc<Relation>, ExecStats)> {
        if let Node::Source(src) = &self.root {
            return Ok((Arc::clone(&src.rel), self.counters.snapshot()));
        }
        let rows = self.collect_rows(None)?;
        let rel = Relation::new(self.schema, rows)?;
        Ok((Arc::new(rel), self.counters.snapshot()))
    }

    /// This execution's cancellation token. `cancel()` it from any
    /// thread (or configure a deadline via
    /// [`crate::Catalog::set_deadline`] / `RELALG_DEADLINE_MS`) and
    /// in-flight pulls stop at their next batch boundary with
    /// [`Error::Cancelled`], unwinding through breakers so buffer-pool
    /// leases and spill files release on the way out.
    pub fn cancel_token(&self) -> Arc<CancelToken> {
        Arc::clone(&self.counters.cancel)
    }
}

// ---------------------------------------------------------------------------
// Physical operators
// ---------------------------------------------------------------------------

/// A materialized scan input plus, under disk storage, the scan's
/// storage seam: the provider serving decoded segments and the sargable
/// conjuncts (pushed down from the fusing `Filter` above) whose zone-map
/// refutation lets whole segments be skipped.
struct SourceNode {
    rel: Arc<Relation>,
    scan: Option<SegScan>,
}

/// One scan's view of disk storage.
struct SegScan {
    provider: DiskImageProvider,
    /// `(column, op, literal)` conjuncts of the filter directly above
    /// the scan; *copies* — the filter still evaluates them per row, so
    /// zone pruning only ever has to be conservative, never exact.
    zone_preds: Vec<(usize, CmpOp, Value)>,
}

impl SourceNode {
    /// Wrap a materialized relation, attaching a segment provider when
    /// the engine runs [`StorageMode::Disk`] (plain mode bypasses the
    /// whole seam; breaker outputs and empty relations stay plain too).
    /// Segments come from the relation's on-disk segment store — the
    /// native one for disk-loaded tables, a scratch spill otherwise —
    /// leased from the buffer pool shared across all relations at this
    /// capacity.
    fn of_scan(rel: Arc<Relation>, config: &EngineConfig) -> Result<SourceNode> {
        if config.storage == StorageMode::Plain || rel.is_empty() {
            return Ok(SourceNode::plain(rel));
        }
        let provider = DiskImageProvider::new(
            rel.disk_image(config.segment_rows)?,
            crate::store::pool_for(config.buffer_pool),
        );
        Ok(SourceNode {
            rel,
            scan: Some(SegScan {
                provider,
                zone_preds: Vec::new(),
            }),
        })
    }

    /// Wrap a computed relation (breaker output, inline values): always
    /// served from its plain columnar image.
    fn plain(rel: Arc<Relation>) -> SourceNode {
        SourceNode { rel, scan: None }
    }

    /// The batched scan cursor over every row — plain image slices, or
    /// provider-served segments under disk storage.
    fn batch_cursor<'a>(&'a self, counters: &'a Counters) -> BCursor<'a> {
        match &self.scan {
            Some(scan) => BCursor::SegSource {
                scan,
                pos: 0,
                end: self.rel.len(),
                cur: None,
                counters,
            },
            None => BCursor::Source {
                image: self.rel.columns(),
                pos: 0,
                end: self.rel.len(),
            },
        }
    }
}

/// Hand a filter's sargable conjuncts to a directly-scanned disk
/// source as zone predicates. They are *copies*: the filter still
/// applies them row-by-row, the scan merely gains a license to skip
/// segments whose zone maps prove no row can match. Re-run after each
/// σ-fusion, so the scan always holds the full fused conjunction's
/// sargable subset.
fn attach_zone_preds(node: Node) -> Node {
    match node {
        Node::Filter { mut input, preds } => {
            if let Node::Source(src) = input.as_mut() {
                if let Some(scan) = src.scan.as_mut() {
                    let mut zone = Vec::new();
                    for p in &preds {
                        p.collect_sargable(&mut zone);
                    }
                    scan.zone_preds = zone;
                }
            }
            Node::Filter { input, preds }
        }
        other => other,
    }
}

enum Node {
    /// Materialized input: a catalog scan, inline values, renamed
    /// aliases of either, or a buffered breaker output.
    Source(SourceNode),
    /// Fused conjunctive filter (σ-chains collapse into one node).
    Filter {
        input: Box<Node>,
        preds: Vec<CompiledExpr>,
    },
    /// Generalized projection.
    Project {
        input: Box<Node>,
        exprs: Vec<CompiledExpr>,
    },
    /// Equi hash join: streams the probe side, buffers the build side.
    HashJoin(HashJoinNode),
    /// Theta join without equi keys: streams the left, buffers the right.
    NestedLoop(NestedLoopNode),
    /// Semi/antijoin: streams the left, buffers the right.
    Semi(SemiNode),
    /// Bag union: streams left then right (no buffering).
    Concat { left: Box<Node>, right: Box<Node> },
    /// Duplicate elimination: streams first occurrences, buffers a
    /// seen-set.
    Distinct { input: Box<Node> },
    /// Set difference (EXCEPT): buffers the right side + a seen-set,
    /// streams surviving left rows.
    Difference(DifferenceNode),
}

/// A hash table from key digest to the rows of a buffered image: a flat
/// chained table, `heads` mapping each digest to its lowest row index and
/// `next` linking every row to the next higher one with the same digest.
/// Filled in reverse row order, so every chain ascends and probe results
/// come out in build-row order.
struct RowTable {
    heads: FxHashMap<u64, u32>,
    next: Vec<u32>,
}

/// End of a [`RowTable`] chain.
const CHAIN_END: u32 = u32::MAX;

impl RowTable {
    /// Index rows by their digests (`digests[i]` is row `i`'s).
    fn build(digests: &[u64]) -> RowTable {
        let mut heads = FxHashMap::with_capacity_and_hasher(digests.len(), Default::default());
        let mut next = vec![CHAIN_END; digests.len()];
        for (i, &h) in digests.iter().enumerate().rev() {
            if let Some(older) = heads.insert(h, i as u32) {
                next[i] = older;
            }
        }
        RowTable { heads, next }
    }

    /// Row indices whose key hashed to `h`, ascending (hash collisions
    /// included — callers re-check exact equality).
    #[inline]
    fn get(&self, h: u64) -> Chain<'_> {
        Chain {
            next: &self.next,
            cur: self.heads.get(&h).copied().unwrap_or(CHAIN_END),
        }
    }
}

/// Iterator over one [`RowTable`] chain.
struct Chain<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for Chain<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        (self.cur != CHAIN_END).then(|| {
            let row = self.cur as usize;
            self.cur = self.next[row];
            row
        })
    }
}

struct DifferenceNode {
    input: Box<Node>,
    right: Arc<ColumnarImage>,
    /// Every column of the right side: the membership key.
    cols: Vec<usize>,
    /// Full-row digest → right-side row indices (membership table).
    table: RowTable,
}

struct HashJoinNode {
    probe: Box<Node>,
    build: JoinBuild,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    /// `true` when the streamed probe side is the plan's left input.
    probe_is_left: bool,
    residual: Option<CompiledExpr>,
}

/// The buffered side of a hash join: resident (the default) or spilled
/// to digest-routed partitions when materializing it blew the memory
/// budget.
enum JoinBuild {
    /// In-memory build: the buffered image plus its digest table.
    Mem {
        image: Arc<ColumnarImage>,
        table: RowTable,
    },
    /// On-disk build: partition run files of `(build row index, key
    /// digest, row)` records, routed by [`spill_part`] at depth 0 and
    /// each in ascending row-index order. Probing runs the hybrid-hash
    /// protocol (see [`SpillJoin`]).
    Spilled(SpilledBuild),
}

struct SpilledBuild {
    /// One run per digest partition (empty partitions keep a zero-record
    /// run so partition indices line up with [`spill_part`]).
    parts: Vec<Run>,
}

/// Fan-out of one digest-partitioning pass of the hybrid-hash spill
/// protocol. Small: partitions multiply per recursion level.
const SPILL_JOIN_PARTS: usize = 8;

/// Maximum recursive re-partitioning depth for an over-budget build
/// partition. Past it the partition is built in memory regardless — a
/// partition that refuses to shrink is dominated by one key's
/// duplicates, which no amount of re-hashing can split.
const MAX_SPILL_DEPTH: usize = 4;

/// The digest partition a key digest routes to at recursion `depth`.
/// Each depth re-mixes the digest so a partition that collided at one
/// level spreads at the next.
fn spill_part(digest: u64, depth: usize) -> usize {
    let mut h = FxHasher::default();
    h.write_u64(digest);
    h.write_usize(depth);
    (h.finish() as usize) % SPILL_JOIN_PARTS
}

struct NestedLoopNode {
    outer: Box<Node>,
    inner: Arc<ColumnarImage>,
    pred: Option<CompiledExpr>,
}

/// Hash table over right-side rows with the equi-key column indices:
/// `(digest → row indices, left keys, right keys)`.
type KeyedTable = (RowTable, Vec<usize>, Vec<usize>);

struct SemiNode {
    probe: Box<Node>,
    right: Arc<ColumnarImage>,
    /// `None` falls back to scanning the buffered right side per probe
    /// row (non-equi predicates).
    table: Option<KeyedTable>,
    residual: Option<CompiledExpr>,
    keep_matched: bool,
}

/// Build the digest-keyed row table of a buffered image: the digests
/// of the `keys` columns, hashed column at a time exactly as probe
/// batches hash theirs.
fn build_table(image: &ColumnarImage, keys: &[usize]) -> RowTable {
    RowTable::build(&batch_key_hashes(
        &ColumnBatch::slice_of(image, 0, image.len()),
        keys,
    ))
}

fn prepare(plan: &Plan, ctx: &PrepCtx<'_>) -> Result<(Node, Schema)> {
    let catalog = ctx.catalog;
    let counters = ctx.counters;
    let est = ctx.est;
    match plan {
        Plan::Scan(name) => {
            let rel = Arc::clone(catalog.get(name)?);
            let schema = rel.schema().clone();
            Ok((
                Node::Source(SourceNode::of_scan(rel, catalog.config())?),
                schema,
            ))
        }
        Plan::Values(rel) => Ok((
            Node::Source(SourceNode::plain(Arc::clone(rel))),
            rel.schema().clone(),
        )),
        Plan::Rename { input, alias } => {
            let (node, schema) = prepare(input, ctx)?;
            let schema = schema.qualify(alias);
            // A renamed source stays a source: re-qualify the schema
            // while aliasing the row storage (zero-copy rename). The
            // segment seam carries over — renaming changes no values.
            let node = match node {
                Node::Source(src) => Node::Source(SourceNode {
                    rel: Arc::new(src.rel.shared_with_schema(schema.clone())?),
                    scan: src.scan,
                }),
                other => other,
            };
            Ok((node, schema))
        }
        Plan::Select { input, pred } => {
            let (node, schema) = prepare(input, ctx)?;
            let compiled = pred.compile(&schema)?;
            // σ over σ fuses; predicates keep innermost-first order.
            let node = match node {
                Node::Filter { input, mut preds } => {
                    preds.push(compiled);
                    Node::Filter { input, preds }
                }
                other => Node::Filter {
                    input: Box::new(other),
                    preds: vec![compiled],
                },
            };
            Ok((attach_zone_preds(node), schema))
        }
        Plan::Project { input, cols } => {
            let (node, schema) = prepare(input, ctx)?;
            let exprs: Vec<CompiledExpr> = cols
                .iter()
                .map(|(e, _)| e.compile(&schema))
                .collect::<Result<_>>()?;
            let out = Schema::new(cols.iter().map(|(_, n)| n.clone()).collect());
            Ok((
                Node::Project {
                    input: Box::new(node),
                    exprs,
                },
                out,
            ))
        }
        Plan::Join { left, right, pred } => {
            let (lnode, ls) = prepare(left, ctx)?;
            let (rnode, rs) = prepare(right, ctx)?;
            let out = ls.concat(&rs);
            // The full predicate must compile against the joint schema
            // (ambiguous columns are rejected here even when equi-key
            // extraction would side-step them), matching Plan::schema.
            pred.compile(&out)?;
            let cond = JoinCondition::analyze(pred, &ls, &rs);
            let residual = Expr::and(cond.residual.clone());
            let residual = if residual.is_true() {
                None
            } else {
                Some(residual.compile(&out)?)
            };
            if cond.equi.is_empty() {
                // Nested loop: buffer the right side, stream the left.
                let inner = materialize(rnode, &rs, counters)?;
                return Ok((
                    Node::NestedLoop(NestedLoopNode {
                        outer: Box::new(lnode),
                        inner,
                        pred: residual,
                    }),
                    out,
                ));
            }
            // Build on the side the optimizer estimates smaller (the
            // build side is the one that must buffer; the probe streams).
            let build_left = join_build_left_with(left, right, catalog, est);
            let (build_node, build_schema, probe_node) = if build_left {
                (lnode, &ls, rnode)
            } else {
                (rnode, &rs, lnode)
            };
            let (build_keys, probe_keys): (Vec<usize>, Vec<usize>) = if build_left {
                cond.equi.iter().cloned().unzip()
            } else {
                let (lk, rk): (Vec<usize>, Vec<usize>) = cond.equi.iter().cloned().unzip();
                (rk, lk)
            };
            let build = prepare_join_build(build_node, build_schema, &build_keys, ctx)?;
            Ok((
                Node::HashJoin(HashJoinNode {
                    probe: Box::new(probe_node),
                    build,
                    build_keys,
                    probe_keys,
                    probe_is_left: !build_left,
                    residual,
                }),
                out,
            ))
        }
        Plan::SemiJoin { left, right, pred } | Plan::AntiJoin { left, right, pred } => {
            let keep_matched = matches!(plan, Plan::SemiJoin { .. });
            let (lnode, ls) = prepare(left, ctx)?;
            let (rnode, rs) = prepare(right, ctx)?;
            let joint = ls.concat(&rs);
            pred.compile(&joint)?;
            let cond = JoinCondition::analyze(pred, &ls, &rs);
            let residual = Expr::and(cond.residual.clone());
            let residual = if residual.is_true() {
                None
            } else {
                Some(residual.compile(&joint)?)
            };
            let right = materialize(rnode, &rs, counters)?;
            let table = if cond.equi.is_empty() {
                None
            } else {
                let (lk, rk): (Vec<usize>, Vec<usize>) = cond.equi.iter().cloned().unzip();
                Some((build_table(&right, &rk), lk, rk))
            };
            Ok((
                Node::Semi(SemiNode {
                    probe: Box::new(lnode),
                    right,
                    table,
                    residual,
                    keep_matched,
                }),
                ls,
            ))
        }
        Plan::Union { left, right } => {
            let (lnode, ls) = prepare(left, ctx)?;
            let (rnode, rs) = prepare(right, ctx)?;
            if !ls.compatible(&rs) {
                return Err(Error::SchemaMismatch {
                    left: ls.to_string(),
                    right: rs.to_string(),
                });
            }
            // Union output keeps the left schema (see Plan::schema).
            Ok((
                Node::Concat {
                    left: Box::new(lnode),
                    right: Box::new(rnode),
                },
                ls,
            ))
        }
        Plan::Difference { left, right } => {
            let (lnode, ls) = prepare(left, ctx)?;
            let (rnode, rs) = prepare(right, ctx)?;
            if !ls.compatible(&rs) {
                return Err(Error::SchemaMismatch {
                    left: ls.to_string(),
                    right: rs.to_string(),
                });
            }
            let right = materialize(rnode, &rs, counters)?;
            let cols: Vec<usize> = (0..rs.arity()).collect();
            let table = build_table(&right, &cols);
            counters.breaker(); // the seen-set filled at pull time
            Ok((
                Node::Difference(DifferenceNode {
                    input: Box::new(lnode),
                    right,
                    cols,
                    table,
                }),
                ls,
            ))
        }
        Plan::Distinct(input) => {
            let (node, schema) = prepare(input, ctx)?;
            counters.breaker(); // the seen-set filled at pull time
            Ok((
                Node::Distinct {
                    input: Box::new(node),
                },
                schema,
            ))
        }
    }
}

/// Run a breaker-side node to completion into a column-major image. An
/// already-materialized source hands back its relation's cached image —
/// no values are copied and no buffer is counted; anything else runs
/// vectorized, each batch appended column by column. Under a memory
/// budget the buffered rows are *charged* the bytes the image stores
/// for them ([`stored_row_bytes`], so `ExecStats` tracks them and
/// sibling breakers spill earlier), but
/// non-join breaker inputs do not themselves spill — only hash-join
/// builds, sort, aggregation and the dedup seen-sets have spill paths.
fn materialize(node: Node, schema: &Schema, counters: &Counters) -> Result<Arc<ColumnarImage>> {
    if let Node::Source(src) = node {
        return Ok(src.rel.columns_arc());
    }
    let budget = counters.spill.budget();
    let mut buf = ImageBuilder::new(schema.arity());
    let mut bytes = 0usize;
    let mut cur = node.batch_cursor(counters);
    while let Some(b) = cur.next_batch() {
        counters.batch(b.len());
        bytes += stored_row_bytes(&b) * b.len();
        buf.append(&b, 0..b.len());
    }
    budget.charge(bytes);
    let image = buf.finish();
    counters.buffer(image.len());
    // Seen-set rows of nested breakers pulled during this prepare-time
    // materialization are permanent, not part of a re-runnable pull.
    counters.commit_pull();
    Ok(Arc::new(image))
}

/// Materialize a hash-join build side under the memory budget.
///
/// An already-materialized source stays zero-copy (the hash table
/// indexes the shared image; nothing is charged — the budget governs
/// intermediate buffers, not the catalog's resident data), and with no
/// budget configured this is exactly [`materialize`] + [`build_table`].
/// Under a budget, a *computed* build side streams into the same
/// column-major buffer, charging each row the bytes the image stores
/// for it ([`stored_row_bytes`]); the moment the buffer exceeds the
/// budget it is flushed into [`SPILL_JOIN_PARTS`] digest-routed
/// partition run files and every remaining row streams straight to
/// disk, so the resident footprint stays near the budget. Rows are
/// built only for those files, which hold `(build row index, key
/// digest, row)` records in ascending index order — the order the
/// hybrid-hash probe needs to reproduce in-memory output byte-for-byte.
fn prepare_join_build(
    node: Node,
    schema: &Schema,
    keys: &[usize],
    ctx: &PrepCtx<'_>,
) -> Result<JoinBuild> {
    let counters = ctx.counters;
    let spill = &counters.spill;
    if !spill.budget().enabled() || matches!(node, Node::Source(_)) {
        let image = materialize(node, schema, counters)?;
        let table = build_table(&image, keys);
        return Ok(JoinBuild::Mem { image, table });
    }
    let limit = spill.budget().limit();
    let mut buf = ImageBuilder::new(schema.arity());
    let mut resident_bytes = 0usize;
    let mut tail_bytes = 0usize;
    let mut total_rows = 0usize;
    let mut writers: Option<Vec<crate::spill::RunWriter>> = None;
    let mut cur = node.batch_cursor(counters);
    while let Some(b) = cur.next_batch() {
        counters.batch(b.len());
        let row_bytes = stored_row_bytes(&b);
        // Rows stay resident up to and including the one whose charge
        // crosses the limit; the rest of the batch goes to disk.
        let mut resident_end = 0;
        if writers.is_none() {
            let room = limit - resident_bytes;
            resident_end = match room.checked_div(row_bytes) {
                Some(fit) => (fit + 1).min(b.len()),
                None => b.len(),
            };
            let charged = resident_end * row_bytes;
            spill.budget().charge(charged);
            resident_bytes += charged;
            buf.append(&b, 0..resident_end);
            if resident_bytes > limit {
                // Over the limit: divert to disk. Buffered rows flush
                // into digest partitions (their indices are their
                // positions).
                let mut ws: Vec<crate::spill::RunWriter> = (0..SPILL_JOIN_PARTS)
                    .map(|_| spill.writer("join-build"))
                    .collect::<Result<_>>()?;
                let image = std::mem::replace(&mut buf, ImageBuilder::new(0)).finish();
                let rows = ColumnBatch::slice_of(&image, 0, image.len());
                for (i, digest) in batch_key_hashes(&rows, keys).into_iter().enumerate() {
                    ws[spill_part(digest, 0)].push(&[i as u64, digest], &rows.row(i))?;
                }
                spill.record_spill(resident_bytes);
                spill.budget().release(resident_bytes);
                resident_bytes = 0;
                writers = Some(ws);
            }
        }
        if let Some(ws) = writers.as_mut() {
            let digests = batch_key_hashes(&b, keys);
            for (pos, &digest) in digests.iter().enumerate().skip(resident_end) {
                let idx = (total_rows + pos) as u64;
                ws[spill_part(digest, 0)].push(&[idx, digest], &b.row(pos))?;
            }
            tail_bytes += (b.len() - resident_end) * row_bytes;
        }
        total_rows += b.len();
    }
    counters.buffer(total_rows);
    counters.commit_pull();
    match writers {
        None => {
            let image = Arc::new(buf.finish());
            let table = build_table(&image, keys);
            Ok(JoinBuild::Mem { image, table })
        }
        Some(ws) => {
            if tail_bytes > 0 {
                spill.record_spill(tail_bytes);
            }
            Ok(JoinBuild::Spilled(SpilledBuild {
                parts: ws
                    .into_iter()
                    .map(crate::spill::RunWriter::finish)
                    .collect::<Result<_>>()?,
            }))
        }
    }
}

/// Does the streaming executor build (buffer) the *left* input of this
/// hash join? Shared with `EXPLAIN` so the reported build side matches
/// execution.
///
/// Building on an already-materialized source (a scan / values /
/// rename chain) costs no row copies — the hash table indexes the shared
/// storage directly — so a source side is preferred as the build side
/// even when the streamed side estimates smaller, up to a 16× size
/// ratio. Past that, the smaller hash table wins. When both or neither
/// side is a source, the smaller estimate builds.
pub fn join_build_left(left: &Plan, right: &Plan, catalog: &Catalog) -> bool {
    join_build_left_with(left, right, catalog, &EstCache::default())
}

fn join_build_left_with(left: &Plan, right: &Plan, catalog: &Catalog, est: &EstCache) -> bool {
    const SOURCE_BUILD_BIAS: f64 = 16.0;
    let (le, re) = (
        est_rows_cached(left, catalog, est),
        est_rows_cached(right, catalog, est),
    );
    match (left.materialized_source(), right.materialized_source()) {
        (true, false) => le <= SOURCE_BUILD_BIAS * re,
        (false, true) => re > SOURCE_BUILD_BIAS * le,
        _ => le <= re,
    }
}

/// Statically predicted [`ExecStats::buffers`] for a streamed execution
/// of `plan` — the counter `EXPLAIN` prints. Matches the runtime count:
/// breaker inputs that are already-materialized sources cost nothing.
pub fn predicted_buffers(plan: &Plan, catalog: &Catalog) -> usize {
    let breaker_input = |side: &Plan| -> usize {
        predicted_buffers(side, catalog) + usize::from(!side.materialized_source())
    };
    match plan {
        Plan::Scan(_) | Plan::Values(_) => 0,
        Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Rename { input, .. } => {
            predicted_buffers(input, catalog)
        }
        Plan::Union { left, right } => {
            predicted_buffers(left, catalog) + predicted_buffers(right, catalog)
        }
        Plan::Distinct(input) => 1 + predicted_buffers(input, catalog),
        Plan::Difference { left, right } => {
            1 + predicted_buffers(left, catalog) + breaker_input(right)
        }
        Plan::SemiJoin { left, right, .. } | Plan::AntiJoin { left, right, .. } => {
            predicted_buffers(left, catalog) + breaker_input(right)
        }
        Plan::Join { left, right, pred } => {
            // Non-equi joins always buffer the right (inner) side; hash
            // joins buffer whichever side `join_build_left` picks.
            let equi = match (left.schema(catalog), right.schema(catalog)) {
                (Ok(ls), Ok(rs)) => !JoinCondition::analyze(pred, &ls, &rs).equi.is_empty(),
                _ => false,
            };
            if equi && join_build_left(left, right, catalog) {
                breaker_input(left) + predicted_buffers(right, catalog)
            } else {
                predicted_buffers(left, catalog) + breaker_input(right)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batched cursors: the vectorized pipeline
// ---------------------------------------------------------------------------

/// The physical pipeline: each variant pulls [`ColumnBatch`]es from its
/// input and transforms them column-wise. Every operator has exactly
/// this one implementation.
enum BCursor<'a> {
    /// Chunked scan over `[pos, end)` of a relation's cached columnar
    /// image.
    Source {
        image: &'a ColumnarImage,
        pos: usize,
        end: usize,
    },
    /// Chunked scan over `[pos, end)` of a relation's disk image:
    /// batches come from provider-decoded segments ([`BatchCol::Shared`]
    /// columns, so eviction can't invalidate an in-flight batch), and
    /// segments whose zone maps refute one of the scan's sargable
    /// predicates are skipped without decoding.
    SegSource {
        scan: &'a SegScan,
        pos: usize,
        end: usize,
        /// The decoded segment `pos` currently reads from.
        cur: Option<Arc<DecodedSegment>>,
        counters: &'a Counters,
    },
    /// Theta join / cross product over pair batches: cross pairs of the
    /// outer batch and the buffered inner image, filtered by the
    /// vectorized pair-batch evaluator.
    NestedLoop {
        node: &'a NestedLoopNode,
        outer: Box<BCursor<'a>>,
        /// Current outer batch and the next (outer position, inner row)
        /// pair to enumerate.
        pending: Option<(ColumnBatch<'a>, usize, usize)>,
    },
    /// Vectorized conjunctive filter: masks then compacts.
    Filter {
        input: Box<BCursor<'a>>,
        preds: &'a [CompiledExpr],
    },
    /// Projection: column pointer shuffles for plain references,
    /// vectorized evaluation for computed expressions.
    Project {
        input: Box<BCursor<'a>>,
        exprs: &'a [CompiledExpr],
    },
    /// Hash-join probe: hashes the probe key columns per batch, emits
    /// matches as re-selected probe views + build-image views.
    HashJoin {
        node: &'a HashJoinNode,
        image: &'a ColumnarImage,
        table: &'a RowTable,
        probe: Box<BCursor<'a>>,
    },
    /// Hybrid-hash probe over a spilled build (see [`SpillJoinState`]):
    /// drains the probe into digest partitions, joins each partition
    /// pair — recursively re-partitioning oversized build partitions —
    /// and merges the per-partition output runs back into `(probe
    /// sequence, build index)` order, which is exactly the in-memory
    /// emission order.
    HashJoinSpilled {
        node: &'a HashJoinNode,
        spilled: &'a SpilledBuild,
        probe: Box<BCursor<'a>>,
        state: SpillJoinState,
        counters: &'a Counters,
    },
    /// Keyed semi/antijoin: membership-filters each probe batch.
    Semi {
        node: &'a SemiNode,
        probe: Box<BCursor<'a>>,
    },
    /// Bag union: left batches then right batches.
    Concat {
        left: Box<BCursor<'a>>,
        right: Box<BCursor<'a>>,
        on_right: bool,
    },
    /// Duplicate elimination: digest seen-set, batch compacted to first
    /// occurrences. Under a memory budget the seen-set can spill
    /// (see [`DedupSpill`]).
    Distinct {
        input: Box<BCursor<'a>>,
        seen: FxHashMap<u64, Vec<Row>>,
        counters: &'a Counters,
        spill: Option<Box<DedupSpill>>,
    },
    /// Set difference: membership test against the buffered right side
    /// plus a digest seen-set (spillable like Distinct's).
    Difference {
        node: &'a DifferenceNode,
        input: Box<BCursor<'a>>,
        seen: FxHashMap<u64, Vec<Row>>,
        counters: &'a Counters,
        spill: Option<Box<DedupSpill>>,
    },
}

/// Phases of the hybrid-hash probe over a spilled build.
enum SpillJoinState {
    /// Drain the probe stream into digest-partition run files.
    Drain,
    /// Merge the per-partition output runs by `(probe seq, build idx)`.
    Emit(MergeRuns<RecCmp>),
}

/// Record comparator used by spilled-join output merges: order by the
/// first two record keys (probe sequence, then build row index).
type RecCmp = fn(&Record, &Record) -> Ordering;

fn cmp_seq_idx(a: &Record, b: &Record) -> Ordering {
    (a.0[0], a.0[1]).cmp(&(b.0[0], b.0[1]))
}

/// Seen-set spill state of one distinct/difference cursor.
///
/// While in memory, the cursor dedups through its digest seen-set and
/// streams first occurrences online, charging retained rows against the
/// budget. The first overflow flushes the seen-set — rows *already
/// emitted downstream* — as a digest-sorted `emitted` run and ends
/// online emission: every later locally-new row becomes a *candidate*
/// `(row, sequence)`, buffered in a fresh map that itself flushes as
/// digest-sorted candidate runs. At end of input [`DedupSpill::resolve`]
/// merges all runs by digest: candidates equal to an emitted row are
/// suppressed, equal candidates keep the smallest sequence, and the
/// winners emit in sequence order — exactly the rows, in exactly the
/// order, the unbounded seen-set would have produced after the switch
/// point (everything before it was already emitted online, and the
/// whole online prefix precedes every candidate in the input).
struct DedupSpill {
    bytes: usize,
    seq: u64,
    /// `true` once the first flush ended online emission.
    spilling: bool,
    emitted_runs: Vec<Run>,
    cand_runs: Vec<Run>,
    cand: FxHashMap<u64, Vec<(Row, u64)>>,
    winners: Option<std::vec::IntoIter<Row>>,
    /// Bytes charged for the resolved winner set (released once the
    /// winners have all been emitted).
    winner_bytes: usize,
}

impl DedupSpill {
    /// Spill state for one dedup cursor — `None` when the engine runs
    /// unbounded, so the online path stays untouched.
    fn maybe(counters: &Counters) -> Option<Box<DedupSpill>> {
        counters.spill.budget().enabled().then(|| {
            Box::new(DedupSpill {
                bytes: 0,
                seq: 0,
                spilling: false,
                emitted_runs: Vec::new(),
                cand_runs: Vec::new(),
                cand: FxHashMap::default(),
                winners: None,
                winner_bytes: 0,
            })
        })
    }

    /// Charge one retained row; `true` when the buffer just crossed the
    /// limit and the caller must flush.
    fn charge(&mut self, ctx: &SpillCtx, row: &Row) -> bool {
        let bytes = row_footprint(row);
        ctx.budget().charge(bytes);
        self.bytes += bytes;
        self.bytes > ctx.budget().limit()
    }

    /// Flush the online seen-set (already-emitted rows) as a
    /// digest-sorted run and switch to candidate buffering.
    fn flush_seen(&mut self, ctx: &SpillCtx, seen: &mut FxHashMap<u64, Vec<Row>>) {
        let mut entries: Vec<(u64, Row)> = seen
            .drain()
            .flat_map(|(d, rows)| rows.into_iter().map(move |r| (d, r)))
            .collect();
        entries.sort_by_key(|(d, _)| *d);
        let mut w = fault::rethrow(ctx.writer("dedup-seen"));
        for (d, r) in &entries {
            fault::rethrow(w.push(&[*d], r));
        }
        self.emitted_runs.push(fault::rethrow(w.finish()));
        ctx.record_spill(self.bytes);
        ctx.budget().release(self.bytes);
        self.bytes = 0;
        self.spilling = true;
    }

    /// Record a locally-new candidate row; flushes the candidate map
    /// when it crosses the limit.
    fn push_candidate(&mut self, ctx: &SpillCtx, digest: u64, row: Row) {
        if self
            .cand
            .get(&digest)
            .is_some_and(|bucket| bucket.iter().any(|(r, _)| *r == row))
        {
            return;
        }
        let over = self.charge(ctx, &row);
        let seq = self.seq;
        self.seq += 1;
        self.cand.entry(digest).or_default().push((row, seq));
        if over {
            self.flush_cand(ctx);
        }
    }

    /// Flush the candidate map as a digest-sorted run.
    fn flush_cand(&mut self, ctx: &SpillCtx) {
        let mut entries: Vec<(u64, Row, u64)> = self
            .cand
            .drain()
            .flat_map(|(d, rows)| rows.into_iter().map(move |(r, s)| (d, r, s)))
            .collect();
        entries.sort_by_key(|(d, _, _)| *d);
        let mut w = fault::rethrow(ctx.writer("dedup-cand"));
        for (d, r, s) in &entries {
            fault::rethrow(w.push(&[*d, *s], r));
        }
        self.cand_runs.push(fault::rethrow(w.finish()));
        ctx.record_spill(self.bytes);
        ctx.budget().release(self.bytes);
        self.bytes = 0;
    }

    /// End of input: merge emitted + candidate runs by digest and
    /// compute the winners, in input-sequence order.
    fn resolve(&mut self, ctx: &SpillCtx, counters: &Counters) {
        if !self.cand.is_empty() {
            self.flush_cand(ctx);
        }
        let mut runs = std::mem::take(&mut self.emitted_runs);
        runs.append(&mut self.cand_runs);
        let mut winners: Vec<(u64, Row)> = Vec::new();
        // Per-digest group state: the merge delivers all records of one
        // digest together, emitted-run records first (earlier runs win
        // ties), so suppressors are complete before candidates arrive.
        let mut cur_digest: Option<u64> = None;
        let mut emitted: Vec<Row> = Vec::new();
        let mut group: Vec<(u64, Row)> = Vec::new();
        let merge = fault::rethrow(merge_runs(&runs, ctx, |a, b| a.0[0].cmp(&b.0[0])));
        for item in merge {
            let (_, (keys, row)) = fault::rethrow(item);
            if cur_digest != Some(keys[0]) {
                winners.append(&mut group);
                emitted.clear();
                cur_digest = Some(keys[0]);
            }
            // Emitted-run records carry one key (the digest); candidate
            // records carry two (digest, seq). The arity — not the run
            // index, which merge compaction may rewrite — tells them
            // apart.
            if keys.len() == 1 {
                emitted.push(row);
            } else if !emitted.contains(&row) {
                match group.iter_mut().find(|(_, r)| *r == row) {
                    Some((s, _)) => *s = (*s).min(keys[1]),
                    None => group.push((keys[1], row)),
                }
            }
        }
        winners.append(&mut group);
        winners.sort_by_key(|(s, _)| *s);
        counters.rows(winners.len());
        // The winner set is this operator's output suffix — held until
        // emission and charged so peak_tracked_bytes reflects it.
        self.winner_bytes = winners.iter().map(|(_, r)| row_footprint(r)).sum();
        ctx.budget().charge(self.winner_bytes);
        self.winners = Some(
            winners
                .into_iter()
                .map(|(_, r)| r)
                .collect::<Vec<_>>()
                .into_iter(),
        );
    }
}

impl Node {
    /// Does any hash join in this tree hold a spilled build side?
    fn any_spilled_build(&self) -> bool {
        match self {
            Node::Source(_) => false,
            Node::Filter { input, .. } | Node::Project { input, .. } | Node::Distinct { input } => {
                input.any_spilled_build()
            }
            Node::HashJoin(n) => {
                matches!(n.build, JoinBuild::Spilled(_)) || n.probe.any_spilled_build()
            }
            Node::Semi(n) => n.probe.any_spilled_build(),
            Node::NestedLoop(n) => n.outer.any_spilled_build(),
            Node::Concat { left, right } => left.any_spilled_build() || right.any_spilled_build(),
            Node::Difference(n) => n.input.any_spilled_build(),
        }
    }

    /// Build the batched cursor tree over the whole input.
    fn batch_cursor<'a>(&'a self, counters: &'a Counters) -> BCursor<'a> {
        match self {
            Node::Source(src) => src.batch_cursor(counters),
            Node::Filter { input, preds } => BCursor::Filter {
                input: Box::new(input.batch_cursor(counters)),
                preds,
            },
            Node::Project { input, exprs } => BCursor::Project {
                input: Box::new(input.batch_cursor(counters)),
                exprs,
            },
            Node::HashJoin(node) => match &node.build {
                JoinBuild::Mem { image, table } => BCursor::HashJoin {
                    node,
                    image,
                    table,
                    probe: Box::new(node.probe.batch_cursor(counters)),
                },
                JoinBuild::Spilled(spilled) => BCursor::HashJoinSpilled {
                    node,
                    spilled,
                    probe: Box::new(node.probe.batch_cursor(counters)),
                    state: SpillJoinState::Drain,
                    counters,
                },
            },
            Node::Semi(node) => BCursor::Semi {
                node,
                probe: Box::new(node.probe.batch_cursor(counters)),
            },
            Node::NestedLoop(node) => BCursor::NestedLoop {
                node,
                outer: Box::new(node.outer.batch_cursor(counters)),
                pending: None,
            },
            Node::Concat { left, right } => BCursor::Concat {
                left: Box::new(left.batch_cursor(counters)),
                right: Box::new(right.batch_cursor(counters)),
                on_right: false,
            },
            Node::Distinct { input } => BCursor::Distinct {
                input: Box::new(input.batch_cursor(counters)),
                seen: FxHashMap::default(),
                counters,
                spill: DedupSpill::maybe(counters),
            },
            Node::Difference(node) => BCursor::Difference {
                node,
                input: Box::new(node.input.batch_cursor(counters)),
                seen: FxHashMap::default(),
                counters,
                spill: DedupSpill::maybe(counters),
            },
        }
    }
}

impl<'a> BCursor<'a> {
    /// Pull the next non-empty batch (`None` at end of stream).
    fn next_batch(&mut self) -> Option<ColumnBatch<'a>> {
        match self {
            BCursor::Source { image, pos, end } => {
                if *pos >= *end {
                    return None;
                }
                let len = (*end - *pos).min(BATCH_SIZE);
                let b = ColumnBatch::slice_of(image, *pos, len);
                *pos += len;
                Some(b)
            }
            BCursor::SegSource {
                scan,
                pos,
                end,
                cur,
                counters,
            } => loop {
                if *pos >= *end {
                    return None;
                }
                let provider = &scan.provider;
                let seg = *pos / provider.seg_rows();
                let seg_end = ((seg + 1) * provider.seg_rows()).min(*end);
                let have = cur
                    .as_ref()
                    .is_some_and(|d| d.start <= *pos && *pos < d.start + d.len);
                if !have {
                    // Fresh segment: consult the zone maps before paying
                    // for a decode (or, under disk storage, a read).
                    let refuted = scan
                        .zone_preds
                        .iter()
                        .any(|(c, op, lit)| !provider.zone(*c, seg).may_match(*op, lit));
                    if refuted {
                        counters.seg.skipped.fetch_add(1, AtomicOrdering::Relaxed);
                        *pos = seg_end;
                        *cur = None;
                        continue;
                    }
                    *cur = Some(fault::rethrow(provider.segment(seg, &counters.seg.io)));
                    counters.seg.scanned.fetch_add(1, AtomicOrdering::Relaxed);
                }
                let d = cur.as_ref().expect("current decoded segment");
                let take = (seg_end - *pos).min(BATCH_SIZE);
                let cols = d
                    .cols
                    .iter()
                    .map(|c| BatchCol::Shared {
                        col: Arc::clone(c),
                        start: *pos - d.start,
                    })
                    .collect();
                *pos += take;
                return Some(ColumnBatch { cols, len: take });
            },
            BCursor::NestedLoop {
                node,
                outer,
                pending,
            } => loop {
                if let Some((ob, opos, ipos)) = pending.as_mut() {
                    let inner: &ColumnarImage = &node.inner;
                    if !inner.is_empty() && *opos < ob.len() {
                        // Enumerate up to BATCH_SIZE cross pairs in
                        // (outer position, inner row) order — the
                        // reference engine's left-major order.
                        let mut lpos: Vec<u32> = Vec::with_capacity(BATCH_SIZE);
                        let mut rsel: Vec<u32> = Vec::with_capacity(BATCH_SIZE);
                        while lpos.len() < BATCH_SIZE && *opos < ob.len() {
                            lpos.push(*opos as u32);
                            rsel.push(*ipos as u32);
                            *ipos += 1;
                            if *ipos == inner.len() {
                                *ipos = 0;
                                *opos += 1;
                            }
                        }
                        let mut out = pair_batch(ob, &lpos, inner, rsel.into());
                        if let Some(pred) = &node.pred {
                            let mut mask = vec![true; out.len()];
                            pred.and_mask(&out, &mut mask);
                            if !mask.iter().any(|&m| m) {
                                continue;
                            }
                            out.compact(&mask);
                        }
                        return Some(out);
                    }
                    *pending = None;
                }
                let ob = outer.next_batch()?;
                *pending = Some((ob, 0, 0));
            },
            BCursor::Filter { input, preds } => loop {
                let mut b = input.next_batch()?;
                let mut mask = vec![true; b.len()];
                for p in preds.iter() {
                    p.and_mask(&b, &mut mask);
                }
                if mask.iter().any(|&m| m) {
                    b.compact(&mask);
                    return Some(b);
                }
            },
            BCursor::Project { input, exprs } => {
                let b = input.next_batch()?;
                let cols = exprs
                    .iter()
                    .map(|e| match e {
                        // Plain reference: a pointer shuffle (views clone
                        // a reference + Arc bump, owned columns an Arc).
                        CompiledExpr::Col(i) => b.cols[*i].clone(),
                        computed => computed.eval_column(&b),
                    })
                    .collect();
                Some(ColumnBatch { cols, len: b.len() })
            }
            BCursor::HashJoin {
                node,
                image,
                table,
                probe,
            } => loop {
                let b = probe.next_batch()?;
                let build_image: &'a ColumnarImage = image;
                let hashes = batch_key_hashes(&b, &node.probe_keys);
                let mut probe_pos: Vec<u32> = Vec::new();
                let mut build_idx: Vec<u32> = Vec::new();
                for (pos, h) in hashes.iter().enumerate() {
                    for bi in table.get(*h) {
                        if batch_keys_eq(
                            &b,
                            &node.probe_keys,
                            pos,
                            build_image,
                            &node.build_keys,
                            bi,
                        ) {
                            probe_pos.push(pos as u32);
                            build_idx.push(bi as u32);
                        }
                    }
                }
                if probe_pos.is_empty() {
                    continue;
                }
                // Assemble the output in left-right plan order: the probe
                // side re-selected by match position, the build side as
                // zero-copy views of the build image.
                let mut out = b;
                out.gather(&probe_pos);
                let build_sel: Arc<[u32]> = build_idx.into();
                let build_cols = build_image.cols().iter().map(|col| BatchCol::View {
                    col,
                    sel: Arc::clone(&build_sel),
                });
                if node.probe_is_left {
                    out.cols.extend(build_cols);
                } else {
                    out.cols.splice(0..0, build_cols);
                }
                if let Some(res) = &node.residual {
                    let mut mask = vec![true; out.len()];
                    res.and_mask(&out, &mut mask);
                    if !mask.iter().any(|&m| m) {
                        continue;
                    }
                    out.compact(&mask);
                }
                return Some(out);
            },
            BCursor::HashJoinSpilled {
                node,
                spilled,
                probe,
                state,
                counters,
            } => loop {
                match state {
                    SpillJoinState::Drain => {
                        let ctx = &counters.spill;
                        // Drain the probe stream into digest partitions
                        // aligned with the build's. Probe rows routed to
                        // an empty build partition can never match and
                        // are dropped at the door.
                        let active: Vec<bool> =
                            spilled.parts.iter().map(|r| r.records() > 0).collect();
                        let mut writers: Vec<crate::spill::RunWriter> = fault::rethrow(
                            (0..SPILL_JOIN_PARTS)
                                .map(|_| ctx.writer("join-probe"))
                                .collect::<Result<Vec<_>>>(),
                        );
                        let mut seq = 0u64;
                        let mut drained = 0usize;
                        while let Some(b) = probe.next_batch() {
                            let hashes = batch_key_hashes(&b, &node.probe_keys);
                            for (pos, &digest) in hashes.iter().enumerate() {
                                let part = spill_part(digest, 0);
                                if active[part] {
                                    let row = b.row(pos);
                                    drained += row_footprint(&row);
                                    fault::rethrow(writers[part].push(&[seq, digest], &row));
                                }
                                seq += 1;
                            }
                        }
                        if drained > 0 {
                            ctx.record_spill(drained);
                        }
                        let probe_parts: Vec<Run> = fault::rethrow(
                            writers
                                .into_iter()
                                .map(crate::spill::RunWriter::finish)
                                .collect::<Result<_>>(),
                        );
                        // Join each partition pair into sorted output
                        // runs, then merge the runs back into global
                        // (probe seq, build idx) order.
                        let mut out_runs: Vec<Run> = Vec::new();
                        for (bp, pp) in spilled.parts.iter().zip(&probe_parts) {
                            fault::rethrow(join_spilled_partition(
                                node,
                                bp,
                                pp,
                                0,
                                ctx,
                                &mut out_runs,
                            ));
                        }
                        *state = SpillJoinState::Emit(fault::rethrow(merge_runs(
                            &out_runs,
                            ctx,
                            cmp_seq_idx,
                        )));
                    }
                    SpillJoinState::Emit(merge) => {
                        let mut rows: Vec<Row> = Vec::with_capacity(BATCH_SIZE);
                        while rows.len() < BATCH_SIZE {
                            match merge.next() {
                                Some(item) => {
                                    let (_, (_, row)) = fault::rethrow(item);
                                    rows.push(row);
                                }
                                None => break,
                            }
                        }
                        if rows.is_empty() {
                            return None;
                        }
                        let arity = rows[0].len();
                        return Some(ColumnBatch::from_rows(&rows, arity));
                    }
                }
            },
            BCursor::Semi { node, probe } => loop {
                let mut b = probe.next_batch()?;
                let matched = semi_matched_mask(node, &b);
                let mut keep = vec![false; b.len()];
                let mut any = false;
                for (pos, k) in keep.iter_mut().enumerate() {
                    if matched[pos] == node.keep_matched {
                        *k = true;
                        any = true;
                    }
                }
                if any {
                    b.compact(&keep);
                    return Some(b);
                }
            },
            BCursor::Concat {
                left,
                right,
                on_right,
            } => {
                if !*on_right {
                    if let Some(b) = left.next_batch() {
                        return Some(b);
                    }
                    *on_right = true;
                }
                right.next_batch()
            }
            BCursor::Distinct {
                input,
                seen,
                counters,
                spill,
            } => loop {
                if let Some(batch) = dedup_emit_winners(spill, counters) {
                    return batch;
                }
                let Some(mut b) = input.next_batch() else {
                    let sp = spill.as_deref_mut()?;
                    if !sp.spilling {
                        return None;
                    }
                    sp.resolve(&counters.spill, counters);
                    continue; // loop back into the winner emission
                };
                let mut keep = vec![false; b.len()];
                let mut any = false;
                for (pos, k) in keep.iter_mut().enumerate() {
                    let digest = batch_row_hash(&b, pos);
                    if let Some(sp) = spill.as_deref_mut() {
                        if sp.spilling {
                            // Candidate phase: nothing emits online (the
                            // seen-set was flushed and stays empty).
                            sp.push_candidate(&counters.spill, digest, b.row(pos));
                            continue;
                        }
                    }
                    let bucket = seen.entry(digest).or_default();
                    if bucket.iter().any(|row| batch_row_eq(&b, pos, row)) {
                        continue;
                    }
                    let row = b.row(pos);
                    let over = spill
                        .as_deref_mut()
                        .is_some_and(|sp| sp.charge(&counters.spill, &row));
                    bucket.push(row);
                    counters.rows(1);
                    *k = true;
                    any = true;
                    if over {
                        // The seen-set crossed the budget: flush it (its
                        // rows are already emitted) and stop emitting
                        // online from the next row on.
                        spill
                            .as_deref_mut()
                            .expect("over implies spill state")
                            .flush_seen(&counters.spill, seen);
                    }
                }
                if any {
                    b.compact(&keep);
                    return Some(b);
                }
            },
            BCursor::Difference {
                node,
                input,
                seen,
                counters,
                spill,
            } => loop {
                if let Some(batch) = dedup_emit_winners(spill, counters) {
                    return batch;
                }
                let Some(mut b) = input.next_batch() else {
                    let sp = spill.as_deref_mut()?;
                    if !sp.spilling {
                        return None;
                    }
                    sp.resolve(&counters.spill, counters);
                    continue;
                };
                let mut keep = vec![false; b.len()];
                let mut any = false;
                for (pos, k) in keep.iter_mut().enumerate() {
                    let digest = batch_row_hash(&b, pos);
                    // The right-membership test is stateless and runs in
                    // both phases.
                    let in_right = node
                        .table
                        .get(digest)
                        .any(|i| batch_keys_eq(&b, &node.cols, pos, &node.right, &node.cols, i));
                    if in_right {
                        continue;
                    }
                    if let Some(sp) = spill.as_deref_mut() {
                        if sp.spilling {
                            sp.push_candidate(&counters.spill, digest, b.row(pos));
                            continue;
                        }
                    }
                    let bucket = seen.entry(digest).or_default();
                    if bucket.iter().any(|row| batch_row_eq(&b, pos, row)) {
                        continue;
                    }
                    let row = b.row(pos);
                    let over = spill
                        .as_deref_mut()
                        .is_some_and(|sp| sp.charge(&counters.spill, &row));
                    bucket.push(row);
                    counters.rows(1);
                    *k = true;
                    any = true;
                    if over {
                        spill
                            .as_deref_mut()
                            .expect("over implies spill state")
                            .flush_seen(&counters.spill, seen);
                    }
                }
                if any {
                    b.compact(&keep);
                    return Some(b);
                }
            },
        }
    }
}

/// Winner emission of a spilled dedup cursor: `None` while the cursor
/// is not in the winner phase; `Some(None)` at end of winners (end of
/// stream, winner bytes released); `Some(Some(batch))` with up to
/// [`BATCH_SIZE`] winner rows.
fn dedup_emit_winners<'a>(
    spill: &mut Option<Box<DedupSpill>>,
    counters: &Counters,
) -> Option<Option<ColumnBatch<'a>>> {
    let sp = spill.as_deref_mut()?;
    let w = sp.winners.as_mut()?;
    let rows: Vec<Row> = w.by_ref().take(BATCH_SIZE).collect();
    if rows.is_empty() {
        counters.spill.budget().release(sp.winner_bytes);
        sp.winner_bytes = 0;
        return Some(None);
    }
    let arity = rows[0].len();
    Some(Some(ColumnBatch::from_rows(&rows, arity)))
}

/// Join one (build partition, probe partition) pair of a spilled hash
/// join, appending output runs of `(probe seq, build idx, joined row)`
/// records — each run internally sorted by that key pair, since the
/// probe file is in sequence order and bucket matches ascend by build
/// index.
///
/// A build partition whose resident footprint still exceeds the budget
/// is *recursively* re-partitioned (both sides, with the
/// next-depth digest mix) up to [`MAX_SPILL_DEPTH`]; past that it is
/// built in memory regardless — a partition that refuses to split is
/// dominated by duplicates of one key, which re-hashing cannot spread.
fn join_spilled_partition(
    node: &HashJoinNode,
    build_run: &Run,
    probe_run: &Run,
    depth: usize,
    ctx: &SpillCtx,
    out: &mut Vec<Run>,
) -> Result<()> {
    if build_run.records() == 0 || probe_run.records() == 0 {
        return Ok(());
    }
    // The run's own metadata decides *before* anything loads: an
    // over-budget partition streams record-by-record into sub-partition
    // files, so no more than one budget's worth of build rows is ever
    // resident on this path.
    if build_run.bytes() > ctx.budget().limit()
        && depth < MAX_SPILL_DEPTH
        && build_run.records() > 1
    {
        let mut bws: Vec<crate::spill::RunWriter> = (0..SPILL_JOIN_PARTS)
            .map(|_| ctx.writer("join-build"))
            .collect::<Result<_>>()?;
        let mut rd = build_run.reader()?;
        while let Some((keys, row)) = rd.next_record()? {
            bws[spill_part(keys[1], depth + 1)].push(&keys, &row)?;
        }
        let mut pws: Vec<crate::spill::RunWriter> = (0..SPILL_JOIN_PARTS)
            .map(|_| ctx.writer("join-probe"))
            .collect::<Result<_>>()?;
        let mut rd = probe_run.reader()?;
        while let Some((keys, row)) = rd.next_record()? {
            pws[spill_part(keys[1], depth + 1)].push(&keys, &row)?;
        }
        ctx.record_spill(build_run.bytes());
        let bruns: Vec<Run> = bws
            .into_iter()
            .map(crate::spill::RunWriter::finish)
            .collect::<Result<_>>()?;
        let pruns: Vec<Run> = pws
            .into_iter()
            .map(crate::spill::RunWriter::finish)
            .collect::<Result<_>>()?;
        for (b, p) in bruns.iter().zip(&pruns) {
            join_spilled_partition(node, b, p, depth + 1, ctx, out)?;
        }
        return Ok(());
    }
    // Partition fits (or cannot split further): classic build + probe.
    // (row index, key digest, row), in ascending index order — file
    // order, which re-partitioning preserves.
    let mut build: Vec<(u64, u64, Row)> = Vec::with_capacity(build_run.records());
    let mut rd = build_run.reader()?;
    while let Some((keys, row)) = rd.next_record()? {
        build.push((keys[0], keys[1], row));
    }
    let bytes = build_run.bytes();
    ctx.budget().charge(bytes);
    let mut table: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    for (i, (_, digest, _)) in build.iter().enumerate() {
        table.entry(*digest).or_default().push(i);
    }
    let mut w = ctx.writer("join-out")?;
    let mut rd = probe_run.reader()?;
    while let Some((keys, prow)) = rd.next_record()? {
        let (seq, digest) = (keys[0], keys[1]);
        if let Some(matches) = table.get(&digest) {
            for &bi in matches {
                let (idx, _, brow) = &build[bi];
                if !keys_eq(brow, &node.build_keys, &prow, &node.probe_keys) {
                    continue;
                }
                let (lr, rr) = if node.probe_is_left {
                    (&prow, brow)
                } else {
                    (brow, &prow)
                };
                if node
                    .residual
                    .as_ref()
                    .is_none_or(|c| c.eval_bool_pair(lr, rr))
                {
                    w.push(&[seq, *idx], &concat_rows(lr, rr))?;
                }
            }
        }
    }
    ctx.budget().release(bytes);
    if w.records() > 0 {
        out.push(w.finish()?);
    }
    Ok(())
}

/// Assemble a zero-copy *pair batch*: the left side re-selected from a
/// probe batch by `lpos`, the right side as views of a buffered
/// relation's columnar image selected by `rsel` — one logical row per
/// (left, right) candidate pair, in plan column order. This is the
/// pair-batch evaluator's input: cross-side residual predicates then run
/// the ordinary vectorized mask kernels over it, which is how
/// nested-loop theta joins and residual semijoins run batched.
fn pair_batch<'a>(
    left: &ColumnBatch<'a>,
    lpos: &[u32],
    image: &'a ColumnarImage,
    rsel: Arc<[u32]>,
) -> ColumnBatch<'a> {
    let mut out = ColumnBatch {
        cols: left.cols.clone(),
        len: left.len,
    };
    out.gather(lpos);
    out.cols
        .extend(image.cols().iter().map(|col| BatchCol::View {
            col,
            sel: Arc::clone(&rsel),
        }));
    out
}

/// Evaluate a cross-side residual over candidate `(probe position,
/// right row)` pairs in [`BATCH_SIZE`] pair-batch chunks, marking probe
/// positions with at least one satisfying pair in `matched`.
fn mark_residual_matches(
    res: &CompiledExpr,
    b: &ColumnBatch<'_>,
    lpos: &[u32],
    rsel: &[u32],
    image: &ColumnarImage,
    matched: &mut [bool],
) {
    for (lchunk, rchunk) in lpos.chunks(BATCH_SIZE).zip(rsel.chunks(BATCH_SIZE)) {
        let out = pair_batch(b, lchunk, image, rchunk.into());
        let mut mask = vec![true; out.len()];
        res.and_mask(&out, &mut mask);
        for (i, &m) in mask.iter().enumerate() {
            if m {
                matched[lchunk[i] as usize] = true;
            }
        }
    }
}

/// Which probe positions of `b` have a matching right-side row? Covers
/// all three physical semijoin shapes: keyed (digest probe), keyed with
/// a residual (digest probe + pair-batch evaluation of the residual),
/// and non-equi (pair-batch evaluation over all candidate pairs).
fn semi_matched_mask(node: &SemiNode, b: &ColumnBatch<'_>) -> Vec<bool> {
    let right_image: &ColumnarImage = &node.right;
    let mut matched = vec![false; b.len()];
    match &node.table {
        Some((table, lk, rk)) => {
            let hashes = batch_key_hashes(b, lk);
            match &node.residual {
                None => {
                    for (pos, h) in hashes.iter().enumerate() {
                        matched[pos] = table
                            .get(*h)
                            .any(|ri| batch_keys_eq(b, lk, pos, right_image, rk, ri));
                    }
                }
                Some(res) => {
                    // Key-qualified candidate pairs, residual-checked by
                    // the pair-batch evaluator. Pairs whose probe
                    // position already matched are skipped between
                    // chunks — a per-row early exit at chunk
                    // granularity (matters under key skew).
                    let mut cands: Vec<(u32, u32)> = Vec::new();
                    for (pos, h) in hashes.iter().enumerate() {
                        for ri in table.get(*h) {
                            if batch_keys_eq(b, lk, pos, right_image, rk, ri) {
                                cands.push((pos as u32, ri as u32));
                            }
                        }
                    }
                    let mut idx = 0;
                    let mut lpos: Vec<u32> = Vec::with_capacity(BATCH_SIZE);
                    let mut rsel: Vec<u32> = Vec::with_capacity(BATCH_SIZE);
                    while idx < cands.len() {
                        lpos.clear();
                        rsel.clear();
                        while lpos.len() < BATCH_SIZE && idx < cands.len() {
                            let (p, r) = cands[idx];
                            idx += 1;
                            if matched[p as usize] {
                                continue;
                            }
                            lpos.push(p);
                            rsel.push(r);
                        }
                        if !lpos.is_empty() {
                            mark_residual_matches(res, b, &lpos, &rsel, right_image, &mut matched);
                        }
                    }
                }
            }
        }
        None if right_image.is_empty() => {}
        None => match &node.residual {
            None => matched.fill(true), // cross semijoin, right non-empty
            Some(res) => {
                // All (probe, right) pairs are candidates; chunks are
                // re-enumerated between evaluations so positions already
                // matched skip their remaining pairs (a per-row early
                // exit, batched).
                let (mut pos, mut ri) = (0usize, 0usize);
                let mut lpos: Vec<u32> = Vec::with_capacity(BATCH_SIZE);
                let mut rsel: Vec<u32> = Vec::with_capacity(BATCH_SIZE);
                while pos < b.len() {
                    lpos.clear();
                    rsel.clear();
                    while lpos.len() < BATCH_SIZE && pos < b.len() {
                        if matched[pos] {
                            pos += 1;
                            ri = 0;
                            continue;
                        }
                        lpos.push(pos as u32);
                        rsel.push(ri as u32);
                        ri += 1;
                        if ri == right_image.len() {
                            ri = 0;
                            pos += 1;
                        }
                    }
                    if lpos.is_empty() {
                        break;
                    }
                    mark_residual_matches(res, b, &lpos, &rsel, right_image, &mut matched);
                }
            }
        },
    }
    matched
}

/// Per-row FxHash digests of the key columns of a batch, column-at-a-time
/// and byte-compatible with [`key_hash`] over rows (build images are
/// hashed through this too, so probe and build digests always agree,
/// and spilled rows keep the digests of the in-memory path).
fn batch_key_hashes(b: &ColumnBatch<'_>, keys: &[usize]) -> Vec<u64> {
    let mut hashers = vec![FxHasher::default(); b.len()];
    for &k in keys {
        hash_col_into(&b.cols[k], b.len(), &mut hashers);
    }
    hashers.into_iter().map(|h| h.finish()).collect()
}

/// Full-row digest of one batch position (compatible with [`row_hash`]).
fn batch_row_hash(b: &ColumnBatch<'_>, pos: usize) -> u64 {
    let mut h = FxHasher::default();
    for c in &b.cols {
        match c.shared_at(pos) {
            Some((col, idx)) => col.hash_value_into(idx, &mut h),
            None => c.value(pos).hash(&mut h),
        }
    }
    h.finish()
}

fn hash_col_into(c: &BatchCol<'_>, len: usize, hashers: &mut [FxHasher]) {
    match c {
        BatchCol::Slice { col, start } => {
            for (pos, h) in hashers.iter_mut().enumerate().take(len) {
                col.hash_value_into(start + pos, h);
            }
        }
        BatchCol::View { col, sel } => {
            for (pos, h) in hashers.iter_mut().enumerate().take(len) {
                col.hash_value_into(sel[pos] as usize, h);
            }
        }
        BatchCol::Owned(col) => {
            for (pos, h) in hashers.iter_mut().enumerate().take(len) {
                col.hash_value_into(pos, h);
            }
        }
        BatchCol::Const(v) => {
            for h in hashers.iter_mut().take(len) {
                v.hash(h);
            }
        }
        BatchCol::Shared { col, start } => {
            for (pos, h) in hashers.iter_mut().enumerate().take(len) {
                col.hash_value_into(start + pos, h);
            }
        }
        BatchCol::SharedView { col, sel } => {
            for (pos, h) in hashers.iter_mut().enumerate().take(len) {
                col.hash_value_into(sel[pos] as usize, h);
            }
        }
    }
}

/// Exact key equality between a batch position and an image row (the
/// collision guard behind [`batch_key_hashes`]); no `Value` clones on
/// the shared-column paths.
fn batch_keys_eq(
    b: &ColumnBatch<'_>,
    b_keys: &[usize],
    pos: usize,
    image: &ColumnarImage,
    i_keys: &[usize],
    row: usize,
) -> bool {
    b_keys.iter().zip(i_keys).all(|(&bk, &ik)| {
        let icol = &image.cols()[ik];
        match b.cols[bk].shared_at(pos) {
            Some((col, idx)) => col.cross_eq(idx, icol, row),
            None => icol.value_eq(row, &b.cols[bk].value(pos)),
        }
    })
}

/// Exact full-row equality between a batch position and an owned row.
fn batch_row_eq(b: &ColumnBatch<'_>, pos: usize, row: &Row) -> bool {
    b.cols
        .iter()
        .zip(row.iter())
        .all(|(c, v)| match c.shared_at(pos) {
            Some((col, idx)) => col.value_eq(idx, v),
            None => c.value(pos) == *v,
        })
}

// ---------------------------------------------------------------------------
// Join-condition analysis (shared with EXPLAIN and the reference engine)
// ---------------------------------------------------------------------------

/// The join-predicate decomposition used by both the executor and the
/// EXPLAIN output: equi-key pairs and everything else as a residual filter.
pub struct JoinCondition {
    /// Pairs of (left column index, right column index) joined by equality.
    pub equi: Vec<(usize, usize)>,
    /// Conjuncts evaluated against the concatenated row.
    pub residual: Vec<Expr>,
}

impl JoinCondition {
    /// Split `pred` into hash-joinable equalities and residual conjuncts.
    pub fn analyze(pred: &Expr, left: &Schema, right: &Schema) -> JoinCondition {
        let mut equi = Vec::new();
        let mut residual = Vec::new();
        for conjunct in pred.clone().conjuncts() {
            if let Expr::Cmp(CmpOp::Eq, a, b) = &conjunct {
                if let (Expr::Col(ca), Expr::Col(cb)) = (a.as_ref(), b.as_ref()) {
                    // A column belongs to a side iff it resolves there
                    // uniquely and not on the other side.
                    let a_left = left.resolve(ca).ok();
                    let a_right = right.resolve(ca).ok();
                    let b_left = left.resolve(cb).ok();
                    let b_right = right.resolve(cb).ok();
                    match (a_left, a_right, b_left, b_right) {
                        (Some(al), None, None, Some(br)) => {
                            equi.push((al, br));
                            continue;
                        }
                        (None, Some(ar), Some(bl), None) => {
                            equi.push((bl, ar));
                            continue;
                        }
                        _ => {}
                    }
                }
            }
            residual.push(conjunct);
        }
        JoinCondition { equi, residual }
    }
}

/// FxHash digest of the key columns of a borrowed row — the hash-table
/// key, so no `Vec<Value>` is materialized per build or probe row.
#[inline]
fn key_hash(row: &Row, keys: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    for &k in keys {
        row[k].hash(&mut h);
    }
    h.finish()
}

/// Exact key equality backing the hash digest (collision guard).
#[inline]
fn keys_eq(a: &Row, a_keys: &[usize], b: &Row, b_keys: &[usize]) -> bool {
    a_keys.iter().zip(b_keys).all(|(&i, &j)| a[i] == b[j])
}

fn concat_rows(l: &Row, r: &Row) -> Row {
    let mut out = Vec::with_capacity(l.len() + r.len());
    out.extend(l.iter().cloned());
    out.extend(r.iter().cloned());
    out.into_boxed_slice()
}

// ---------------------------------------------------------------------------
// Reference engine: operator-at-a-time, fully materializing
// ---------------------------------------------------------------------------

/// The retained operator-at-a-time engine: every operator materializes
/// its complete output before the parent runs. Kept as the differential
/// baseline the streaming executor is property-tested against — the two
/// must produce identical multisets of rows for every well-formed plan.
pub fn execute_reference(plan: &Plan, catalog: &Catalog) -> Result<Arc<Relation>> {
    ref_exec(plan, catalog).map(Arc::new)
}

fn ref_exec(plan: &Plan, catalog: &Catalog) -> Result<Relation> {
    match plan {
        Plan::Scan(name) => Ok(catalog.get(name)?.as_ref().clone()),
        Plan::Values(rel) => Ok(rel.as_ref().clone()),
        Plan::Select { input, pred } => {
            let rel = ref_exec(input, catalog)?;
            let compiled = pred.compile(rel.schema())?;
            let rows = rel
                .rows()
                .iter()
                .filter(|r| compiled.eval_bool(r))
                .cloned()
                .collect();
            Relation::new(rel.schema().clone(), rows)
        }
        Plan::Project { input, cols } => {
            let rel = ref_exec(input, catalog)?;
            let exprs: Vec<CompiledExpr> = cols
                .iter()
                .map(|(e, _)| e.compile(rel.schema()))
                .collect::<Result<_>>()?;
            let schema = Schema::new(cols.iter().map(|(_, n)| n.clone()).collect());
            let rows = rel
                .rows()
                .iter()
                .map(|r| {
                    exprs
                        .iter()
                        .map(|c| c.eval(r))
                        .collect::<Vec<_>>()
                        .into_boxed_slice()
                })
                .collect();
            Relation::new(schema, rows)
        }
        Plan::Join { left, right, pred } => {
            let l = ref_exec(left, catalog)?;
            let r = ref_exec(right, catalog)?;
            ref_join(&l, &r, pred)
        }
        Plan::SemiJoin { left, right, pred } => {
            let l = ref_exec(left, catalog)?;
            let r = ref_exec(right, catalog)?;
            ref_semi_anti(&l, &r, pred, true)
        }
        Plan::AntiJoin { left, right, pred } => {
            let l = ref_exec(left, catalog)?;
            let r = ref_exec(right, catalog)?;
            ref_semi_anti(&l, &r, pred, false)
        }
        Plan::Union { left, right } => {
            let l = ref_exec(left, catalog)?;
            let r = ref_exec(right, catalog)?;
            if !l.schema().compatible(r.schema()) {
                return Err(Error::SchemaMismatch {
                    left: l.schema().to_string(),
                    right: r.schema().to_string(),
                });
            }
            let schema = l.schema().clone();
            let mut rows = l.into_rows();
            rows.extend(r.into_rows());
            Relation::new(schema, rows)
        }
        Plan::Difference { left, right } => {
            let l = ref_exec(left, catalog)?;
            let r = ref_exec(right, catalog)?;
            if !l.schema().compatible(r.schema()) {
                return Err(Error::SchemaMismatch {
                    left: l.schema().to_string(),
                    right: r.schema().to_string(),
                });
            }
            let right_set: FxHashSet<&Row> = r.rows().iter().collect();
            let mut seen: FxHashSet<&Row> = FxHashSet::default();
            let mut rows = Vec::new();
            for row in l.rows() {
                if !right_set.contains(row) && seen.insert(row) {
                    rows.push(row.clone());
                }
            }
            Relation::new(l.schema().clone(), rows)
        }
        Plan::Distinct(input) => {
            let rel = ref_exec(input, catalog)?;
            let mut seen: FxHashSet<&Row> = FxHashSet::default();
            let mut rows = Vec::new();
            for row in rel.rows() {
                if seen.insert(row) {
                    rows.push(row.clone());
                }
            }
            Relation::new(rel.schema().clone(), rows)
        }
        Plan::Rename { input, alias } => {
            let rel = ref_exec(input, catalog)?;
            let schema = rel.schema().qualify(alias);
            rel.shared_with_schema(schema)
        }
    }
}

fn ref_join(l: &Relation, r: &Relation, pred: &Expr) -> Result<Relation> {
    let out_schema = l.schema().concat(r.schema());
    pred.compile(&out_schema)?; // reject ambiguity like Plan::schema does
    let cond = JoinCondition::analyze(pred, l.schema(), r.schema());
    let residual = Expr::and(cond.residual.clone());
    let compiled = if residual.is_true() {
        None
    } else {
        Some(residual.compile(&out_schema)?)
    };

    let mut rows: Vec<Row> = Vec::new();
    if cond.equi.is_empty() {
        // Nested loop (cross product + filter).
        for lr in l.rows() {
            for rr in r.rows() {
                if compiled.as_ref().is_none_or(|c| c.eval_bool_pair(lr, rr)) {
                    rows.push(concat_rows(lr, rr));
                }
            }
        }
    } else {
        // Hash join: build on the smaller input, keyed by row index under
        // the FxHash digest of the borrowed key slice.
        let build_left = l.len() <= r.len();
        let (build, probe) = if build_left { (l, r) } else { (r, l) };
        let (build_keys, probe_keys): (Vec<usize>, Vec<usize>) = if build_left {
            cond.equi.iter().cloned().unzip()
        } else {
            let (lk, rk): (Vec<usize>, Vec<usize>) = cond.equi.iter().cloned().unzip();
            (rk, lk)
        };
        let mut table: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        for (i, row) in build.rows().iter().enumerate() {
            table.entry(key_hash(row, &build_keys)).or_default().push(i);
        }
        for prow in probe.rows() {
            if let Some(matches) = table.get(&key_hash(prow, &probe_keys)) {
                for &bi in matches {
                    let brow = &build.rows()[bi];
                    if !keys_eq(brow, &build_keys, prow, &probe_keys) {
                        continue;
                    }
                    let (lr, rr) = if build_left {
                        (brow, prow)
                    } else {
                        (prow, brow)
                    };
                    if compiled.as_ref().is_none_or(|c| c.eval_bool_pair(lr, rr)) {
                        rows.push(concat_rows(lr, rr));
                    }
                }
            }
        }
    }
    Relation::new(out_schema, rows)
}

fn ref_semi_anti(l: &Relation, r: &Relation, pred: &Expr, keep_matched: bool) -> Result<Relation> {
    let joint = l.schema().concat(r.schema());
    pred.compile(&joint)?; // reject ambiguity like Plan::schema does
    let cond = JoinCondition::analyze(pred, l.schema(), r.schema());
    let residual = Expr::and(cond.residual.clone());
    let compiled = if residual.is_true() {
        None
    } else {
        Some(residual.compile(&joint)?)
    };

    let mut rows = Vec::new();
    if cond.equi.is_empty() {
        for lr in l.rows() {
            let matched = r
                .rows()
                .iter()
                .any(|rr| compiled.as_ref().is_none_or(|c| c.eval_bool_pair(lr, rr)));
            if matched == keep_matched {
                rows.push(lr.clone());
            }
        }
    } else {
        let (lk, rk): (Vec<usize>, Vec<usize>) = cond.equi.iter().cloned().unzip();
        let mut table: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        for (i, row) in r.rows().iter().enumerate() {
            table.entry(key_hash(row, &rk)).or_default().push(i);
        }
        for lr in l.rows() {
            let matched = table.get(&key_hash(lr, &lk)).is_some_and(|matches| {
                matches.iter().any(|&ri| {
                    let rrow = &r.rows()[ri];
                    keys_eq(lr, &lk, rrow, &rk)
                        && compiled.as_ref().is_none_or(|c| c.eval_bool_pair(lr, rrow))
                })
            });
            if matched == keep_matched {
                rows.push(lr.clone());
            }
        }
    }
    Relation::new(l.schema().clone(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit_i64, lit_str};
    use crate::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(
            "emp",
            Relation::from_rows(
                ["eid", "dept", "name"],
                vec![
                    vec![Value::Int(1), Value::Int(10), Value::str("ann")],
                    vec![Value::Int(2), Value::Int(20), Value::str("bob")],
                    vec![Value::Int(3), Value::Int(10), Value::str("cee")],
                ],
            )
            .unwrap(),
        );
        c.insert(
            "dept",
            Relation::from_rows(
                ["did", "dname"],
                vec![
                    vec![Value::Int(10), Value::str("eng")],
                    vec![Value::Int(30), Value::str("hr")],
                ],
            )
            .unwrap(),
        );
        c
    }

    /// Both engines agree up to multiset (row order may differ when the
    /// hash-join build side differs).
    fn assert_engines_agree(p: &Plan, c: &Catalog) {
        let streamed = execute(p, c).unwrap();
        let reference = execute_reference(p, c).unwrap();
        let mut a: Vec<Row> = streamed.rows().to_vec();
        let mut b: Vec<Row> = reference.rows().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b, "streaming vs reference disagree on {p:?}");
    }

    #[test]
    fn scan_shares_catalog_storage() {
        let c = catalog();
        let out = execute(&Plan::scan("emp"), &c).unwrap();
        assert!(Arc::ptr_eq(&out, c.get("emp").unwrap()));
    }

    #[test]
    fn rename_shares_rows_with_catalog() {
        let c = catalog();
        let out = execute(&Plan::scan("emp").rename("e"), &c).unwrap();
        assert!(out.shares_rows_with(c.get("emp").unwrap()));
        assert_eq!(out.schema().to_string(), "e.eid, e.dept, e.name");
    }

    #[test]
    fn select_project() {
        let c = catalog();
        let p = Plan::scan("emp")
            .select(col("dept").eq(lit_i64(10)))
            .project_names(["name"]);
        let out = execute(&p, &c).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0][0], Value::str("ann"));
        assert_engines_agree(&p, &c);
    }

    #[test]
    fn fused_select_chain_matches_stepwise() {
        let c = catalog();
        // σ over σ over σ — one streamed pass, same answer as nesting
        // implies, with zero intermediate buffers.
        let p = Plan::scan("emp")
            .select(col("dept").eq(lit_i64(10)))
            .select(col("eid").gt(lit_i64(1)))
            .select(col("name").ne(lit_str("zzz")));
        let (out, stats) = execute_with_stats(&p, &c).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(3));
        assert_eq!(stats.buffers, 0, "σ-chain must not buffer");
        // Predicate validation still fails cleanly mid-chain.
        let bad = Plan::scan("emp")
            .select(col("dept").eq(lit_i64(10)))
            .select(col("nope").eq(lit_i64(1)));
        assert!(execute(&bad, &c).is_err());
    }

    #[test]
    fn select_over_rename_copies_only_survivors() {
        let c = catalog();
        // Rename aliases catalog-shared rows; the selection streams over
        // them and only the survivors are materialized at the top.
        let p = Plan::scan("emp")
            .rename("e")
            .select(col("e.dept").eq(lit_i64(10)));
        let (out, stats) = execute_with_stats(&p, &c).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(stats.buffers, 0);
        // The catalog entry is untouched and still fully shared.
        assert_eq!(c.get("emp").unwrap().len(), 3);
    }

    #[test]
    fn select_above_project_sees_projected_schema() {
        let c = catalog();
        let p = Plan::scan("emp")
            .project_names(["name"])
            .select(col("name").eq(lit_str("bob")));
        let out = execute(&p, &c).unwrap();
        assert_eq!(out.len(), 1);
        // And a select on a projected-away column fails.
        let bad = Plan::scan("emp")
            .project_names(["name"])
            .select(col("eid").eq(lit_i64(1)));
        assert!(execute(&bad, &c).is_err());
    }

    #[test]
    fn hash_join_equals_nested_loop() {
        let c = catalog();
        let equi = Plan::scan("emp").join(Plan::scan("dept"), col("dept").eq(col("did")));
        let hash_out = execute(&equi, &c).unwrap();
        // Same join expressed so equi-extraction fails (Le + Ge).
        let theta = Plan::scan("emp").join(
            Plan::scan("dept"),
            Expr::and([col("dept").le(col("did")), col("dept").ge(col("did"))]),
        );
        let nl_out = execute(&theta, &c).unwrap();
        assert!(hash_out.set_eq(&nl_out));
        assert_eq!(hash_out.len(), 2);
        assert_engines_agree(&equi, &c);
        assert_engines_agree(&theta, &c);
    }

    #[test]
    fn join_with_residual() {
        let c = catalog();
        let p = Plan::scan("emp").join(
            Plan::scan("dept"),
            Expr::and([col("dept").eq(col("did")), col("eid").gt(lit_i64(1))]),
        );
        let out = execute(&p, &c).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][2], Value::str("cee"));
        assert_engines_agree(&p, &c);
    }

    #[test]
    fn cross_product() {
        let c = catalog();
        let p = Plan::scan("emp").join(Plan::scan("dept"), Expr::and([]));
        assert_eq!(execute(&p, &c).unwrap().len(), 6);
        assert_engines_agree(&p, &c);
    }

    #[test]
    fn semijoin_antijoin() {
        let c = catalog();
        let semi = Plan::scan("emp").semijoin(Plan::scan("dept"), col("dept").eq(col("did")));
        assert_eq!(execute(&semi, &c).unwrap().len(), 2);
        let anti = Plan::scan("emp").antijoin(Plan::scan("dept"), col("dept").eq(col("did")));
        let out = execute(&anti, &c).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(2));
        assert_engines_agree(&semi, &c);
        assert_engines_agree(&anti, &c);
    }

    #[test]
    fn union_difference_distinct() {
        let c = catalog();
        let ids = Plan::scan("emp").project_names(["eid"]);
        let dup = ids.clone().union(ids.clone());
        assert_eq!(execute(&dup, &c).unwrap().len(), 6);
        assert_eq!(execute(&dup.clone().distinct(), &c).unwrap().len(), 3);
        let minus = ids.clone().difference(
            Plan::scan("emp")
                .select(col("eid").gt(lit_i64(1)))
                .project_names(["eid"]),
        );
        let out = execute(&minus, &c).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(1));
        assert_engines_agree(&minus, &c);
        assert_engines_agree(&dup.distinct(), &c);
    }

    #[test]
    fn rename_enables_self_join() {
        let c = catalog();
        let p = Plan::scan("emp").rename("a").join(
            Plan::scan("emp").rename("b"),
            Expr::and([
                col("a.dept").eq(col("b.dept")),
                col("a.eid").lt(col("b.eid")),
            ]),
        );
        let out = execute(&p, &c).unwrap();
        // Only (1,3) share dept 10 with eid ordered.
        assert_eq!(out.len(), 1);
        assert_engines_agree(&p, &c);
    }

    #[test]
    fn projection_with_literals() {
        let c = catalog();
        let p = Plan::scan("dept").project(vec![
            (col("did"), "k".into()),
            (lit_str("pad"), "tag".into()),
        ]);
        let out = execute(&p, &c).unwrap();
        assert_eq!(out.schema().to_string(), "k, tag");
        assert_eq!(out.rows()[0][1], Value::str("pad"));
    }

    #[test]
    fn difference_is_set_semantics() {
        let mut c = Catalog::new();
        c.insert(
            "l",
            Relation::from_rows(
                ["a"],
                vec![
                    vec![Value::Int(1)],
                    vec![Value::Int(1)],
                    vec![Value::Int(2)],
                ],
            )
            .unwrap(),
        );
        c.insert(
            "r",
            Relation::from_rows(["a"], vec![vec![Value::Int(2)]]).unwrap(),
        );
        let out = execute(&Plan::scan("l").difference(Plan::scan("r")), &c).unwrap();
        assert_eq!(out.len(), 1); // deduplicated EXCEPT semantics
    }

    #[test]
    fn probe_chain_streams_without_buffers() {
        let c = catalog();
        // σ/π/ρ below and above a hash-join probe: both join inputs are
        // scans (zero-copy build), so the whole chain allocates no
        // intermediate Vec<Row>.
        let p = Plan::scan("emp")
            .rename("e")
            .select(col("e.dept").eq(lit_i64(10)))
            .join(Plan::scan("dept"), col("e.dept").eq(col("did")))
            .select(col("e.eid").gt(lit_i64(0)))
            .project_names(["e.name", "dname"]);
        let (out, stats) = execute_with_stats(&p, &c).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(
            stats.buffers, 0,
            "σ/π/ρ/join-probe chain must not materialize intermediates: {stats:?}"
        );
        assert_eq!(predicted_buffers(&p, &c), 0);
        assert_engines_agree(&p, &c);
    }

    #[test]
    fn buffers_counted_for_breakers() {
        let c = catalog();
        // With a source on one side, the source is the zero-copy build
        // and the filtered side streams as the probe: no buffers.
        let one_source = Plan::scan("emp").join(
            Plan::scan("dept").select(col("did").gt(lit_i64(0))),
            col("dept").eq(col("did")),
        );
        let (_, stats) = execute_with_stats(&one_source, &c).unwrap();
        assert_eq!(stats.buffers, 0);
        // With both sides filtered, one side must be buffered as build.
        let p = Plan::scan("emp").select(col("eid").gt(lit_i64(0))).join(
            Plan::scan("dept").select(col("did").gt(lit_i64(0))),
            col("dept").eq(col("did")),
        );
        let (_, stats) = execute_with_stats(&p, &c).unwrap();
        assert_eq!(stats.buffers, 1);
        assert_eq!(predicted_buffers(&p, &c), 1);
        // …and distinct always buffers its seen-set.
        let d = Plan::scan("emp").project_names(["dept"]).distinct();
        let (_, stats) = execute_with_stats(&d, &c).unwrap();
        assert_eq!(stats.buffers, 1);
        assert_eq!(stats.buffered_rows, 2); // two distinct depts
        assert_eq!(predicted_buffers(&d, &c), 1);
    }

    #[test]
    fn repeated_pulls_do_not_double_count_seen_sets() {
        let c = catalog();
        let s = stream(&Plan::scan("emp").project_names(["dept"]).distinct(), &c).unwrap();
        assert_eq!(s.collect_rows(None).unwrap().len(), 2);
        assert_eq!(s.collect_rows(None).unwrap().len(), 2);
        let stats = s.stats();
        assert_eq!(stats.buffers, 1);
        assert_eq!(
            stats.buffered_rows, 2,
            "re-pulling must not inflate the seen-set count"
        );
    }

    #[test]
    fn collect_rows_stops_early() {
        let c = catalog();
        let s = stream(&Plan::scan("emp").select(col("eid").gt(lit_i64(0))), &c).unwrap();
        assert_eq!(s.collect_rows(Some(2)).unwrap().len(), 2);
        assert_eq!(s.collect_rows(None).unwrap().len(), 3);
    }

    #[test]
    fn for_each_batch_streams_every_row() {
        let c = catalog();
        let s = stream(&Plan::scan("emp"), &c).unwrap();
        let mut rows = Vec::new();
        s.for_each_batch(|b| {
            rows.extend((0..b.len()).map(|pos| b.row(pos)));
            Ok(())
        })
        .unwrap();
        assert_eq!(rows, c.get("emp").unwrap().rows());
        assert_eq!(s.stats().buffers, 0);
    }

    #[test]
    fn reference_engine_zero_copy_leaves() {
        let c = catalog();
        let out = execute_reference(&Plan::scan("emp"), &c).unwrap();
        assert!(out.shares_rows_with(c.get("emp").unwrap()));
    }

    /// A bigger catalog so batched runs cross one batch boundary.
    fn big_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(
            "fact",
            Relation::from_rows(
                ["k", "g", "tag"],
                (0..(2 * BATCH_SIZE as i64 + 100))
                    .map(|i| {
                        vec![
                            Value::Int(i),
                            Value::Int(i % 7),
                            Value::interned(if i % 2 == 0 { "even" } else { "odd" }),
                        ]
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
        );
        c.insert(
            "dim",
            Relation::from_rows(
                ["d", "name"],
                (0..7)
                    .map(|i| vec![Value::Int(i), Value::interned(format!("g{i}"))])
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
        );
        c
    }

    #[test]
    fn batched_chain_matches_reference_order_and_counts_batches() {
        let c = big_catalog();
        let p = Plan::scan("fact")
            .select(col("tag").eq(lit_str("even")))
            .join(Plan::scan("dim"), col("g").eq(col("d")))
            .select(col("k").lt(lit_i64(1500)))
            .project_names(["k", "name"]);
        let s = stream(&p, &c).unwrap();
        // The σ/π/probe chain buffers no intermediate rows but reports
        // its batches and fill.
        let batched = s.collect_rows(None).unwrap();
        assert_eq!(batched.len(), 750);
        let stats = s.stats();
        assert_eq!(stats.buffers, 0, "{stats:?}");
        assert!(stats.batches > 1, "scan spans batches: {stats:?}");
        assert_eq!(stats.batch_rows, 750);
        assert!(stats.mean_batch_fill().unwrap() > 0.0);
        // Both engines probe `fact` against the `dim` build in scan
        // order: identical rows in identical order.
        assert_eq!(batched, execute_reference(&p, &c).unwrap().rows());
        // A fresh pull resets the batch counters; a zero limit pulls
        // nothing at all.
        assert!(s.collect_rows(Some(0)).unwrap().is_empty());
        assert_eq!(s.stats().batches, 0);
    }

    #[test]
    fn batched_set_ops_and_union_match_reference() {
        let c = big_catalog();
        let gs = Plan::scan("fact").project_names(["g"]);
        let p = gs.clone().union(gs.clone()).distinct().difference(
            Plan::scan("dim")
                .project_names(["d"])
                .select(col("d").gt(lit_i64(4))),
        );
        assert_engines_agree(&p, &c);
        let (out, stats) = execute_with_stats(&p, &c).unwrap();
        assert_eq!(out.len(), 5); // g ∈ 0..7 minus {5, 6}
        assert!(stats.batches > 0);
    }

    #[test]
    fn batched_semijoin_matches_reference() {
        let c = big_catalog();
        let semi = Plan::scan("fact").semijoin(
            Plan::scan("dim").select(col("d").lt(lit_i64(3))),
            col("g").eq(col("d")),
        );
        let anti = Plan::scan("fact").antijoin(
            Plan::scan("dim").select(col("d").lt(lit_i64(3))),
            col("g").eq(col("d")),
        );
        assert_engines_agree(&semi, &c);
        assert_engines_agree(&anti, &c);
        // A residual semijoin runs the pair-batch evaluator — still
        // batched, still agreeing with the reference engine.
        let residual = Plan::scan("fact").semijoin(
            Plan::scan("dim"),
            Expr::and([col("g").eq(col("d")), col("k").gt(col("d"))]),
        );
        assert_engines_agree(&residual, &c);
        // Non-equi semijoins and antijoins (pure pair-batch paths) too.
        let theta_semi = Plan::scan("fact").semijoin(Plan::scan("dim"), col("g").lt(col("d")));
        let theta_anti = Plan::scan("fact").antijoin(Plan::scan("dim"), col("g").lt(col("d")));
        assert_engines_agree(&theta_semi, &c);
        assert_engines_agree(&theta_anti, &c);
        // Cross semijoin against an empty right side keeps nothing.
        let mut c2 = catalog();
        c2.insert("none", Relation::empty(Schema::named(["z"])));
        let cross = Plan::scan("emp").semijoin(Plan::scan("none"), Expr::and([]));
        assert_eq!(execute(&cross, &c2).unwrap().len(), 0);
        let anti_cross = Plan::scan("emp").antijoin(Plan::scan("none"), Expr::and([]));
        assert_eq!(execute(&anti_cross, &c2).unwrap().len(), 3);
    }

    #[test]
    fn nested_loop_runs_on_pair_batches() {
        let c = catalog();
        let theta = Plan::scan("emp")
            .join(Plan::scan("dept"), col("dept").lt(col("did")))
            .select(col("eid").gt(lit_i64(0)));
        // Theta joins vectorize through the pair-batch evaluator.
        let s = stream(&theta, &c).unwrap();
        let rows = s.collect_rows(None).unwrap();
        assert!(s.stats().batches > 0);
        assert!(!rows.is_empty());
        // Pairs enumerate left-major, exactly like the reference
        // engine's nested loop.
        assert_eq!(
            rows,
            execute_reference(&theta, &c).unwrap().rows(),
            "pair-batch order must match the reference order"
        );
        // Cross products (empty predicate) take the same path.
        let cross = Plan::scan("emp").join(Plan::scan("dept"), Expr::and([]));
        let s = stream(&cross, &c).unwrap();
        assert_eq!(s.collect_rows(None).unwrap().len(), 6);
        assert!(s.stats().batches > 0);
    }

    #[test]
    fn pair_batches_cross_batch_boundaries() {
        // An outer wider than one batch against a non-trivial inner: the
        // pair enumeration must chunk across batch boundaries and still
        // match the reference nested loop pair-for-pair.
        let c = big_catalog();
        let theta = Plan::scan("fact")
            .select(col("k").lt(lit_i64(2000)))
            .join(Plan::scan("dim"), col("g").lt(col("d")));
        let batched = execute(&theta, &c).unwrap();
        assert!(batched.len() > BATCH_SIZE);
        assert_eq!(
            batched.rows(),
            execute_reference(&theta, &c).unwrap().rows()
        );
    }

    #[test]
    fn join_residual_vectorized_on_batches() {
        let c = big_catalog();
        // ψ-shaped residual: equi key + an Or of column comparisons.
        let p = Plan::scan("fact").join(
            Plan::scan("dim"),
            Expr::and([
                col("g").eq(col("d")),
                Expr::or([col("k").lt(col("d")), col("tag").eq(lit_str("even"))]),
            ]),
        );
        assert_engines_agree(&p, &c);
    }

    #[test]
    fn limited_pull_stops_after_one_batch() {
        let c = big_catalog();
        let s = stream(&Plan::scan("fact").select(col("k").ge(lit_i64(0))), &c).unwrap();
        let two = s.collect_rows(Some(2)).unwrap();
        assert_eq!(two, c.get("fact").unwrap().rows()[..2]);
        let stats = s.stats();
        assert_eq!(
            stats.batches, 1,
            "early stop at batch granularity: {stats:?}"
        );
        assert!(stats.batch_rows >= 2, "{stats:?}");
    }

    /// Every limited pull of `p` returns exactly the first `k` rows of
    /// the full pull, for limits around the batch boundaries and past
    /// the end.
    fn assert_limited_pulls_are_prefixes(p: &Plan, c: &Catalog) {
        let s = stream(p, c).unwrap();
        let all = s.collect_rows(None).unwrap();
        assert!(all.len() > BATCH_SIZE + 1, "{p:?}");
        for k in [0, 1, BATCH_SIZE, BATCH_SIZE + 1, all.len(), all.len() + 7] {
            let got = s.collect_rows(Some(k)).unwrap();
            assert_eq!(got, all[..k.min(all.len())], "limit {k} over {p:?}");
        }
    }

    #[test]
    fn limited_pulls_are_prefixes_of_the_full_pull() {
        let scan = Plan::scan("fact").select(col("k").ge(lit_i64(0)));
        let distinct = Plan::scan("fact").project_names(["k", "tag"]).distinct();
        let mut c = big_catalog();
        c.set_mem_budget(0);
        assert_limited_pulls_are_prefixes(&scan, &c);
        assert_limited_pulls_are_prefixes(&distinct, &c);
        // Under a 256-byte budget (and a quarter of it) the seen-set
        // spills — limited pulls included — and the spill directory
        // goes with the execution.
        for budget in [256, 64] {
            c.set_mem_budget(budget);
            assert_limited_pulls_are_prefixes(&distinct, &c);
            let s = stream(&distinct, &c).unwrap();
            assert_eq!(s.collect_rows(Some(1)).unwrap().len(), 1);
            assert!(s.stats().spill_events > 0, "{:?}", s.stats());
            let dir = s.spill_dir().expect("a spilling pull has a directory");
            assert!(dir.exists());
            drop(s);
            assert!(!dir.exists(), "spill dir must be removed on drop: {dir:?}");
        }
    }

    #[test]
    fn row_table_chains_ascend_through_duplicate_digests() {
        let table = RowTable::build(&[5, 3, 5, 5, 3, 9]);
        assert_eq!(table.get(5).collect::<Vec<_>>(), [0, 2, 3]);
        assert_eq!(table.get(3).collect::<Vec<_>>(), [1, 4]);
        assert_eq!(table.get(9).collect::<Vec<_>>(), [5]);
        assert_eq!(table.get(7).count(), 0);
    }

    #[test]
    fn row_table_collisions_are_filtered_by_key_equality() {
        // Every build row shares one digest: the chain hands back all of
        // them, and the exact-key check keeps only the equal one.
        let build = Relation::from_rows(
            ["k", "s"],
            (0..5)
                .map(|i| vec![Value::Int(i), Value::str(format!("v{}", i % 2))])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let image = build.columns();
        let table = RowTable::build(&[42; 5]);
        assert_eq!(table.get(42).count(), 5);
        let probe = Relation::from_rows(
            ["k", "s"],
            vec![
                vec![Value::Int(3), Value::str("v1")],
                vec![Value::Int(3), Value::str("v0")],
            ],
        )
        .unwrap();
        let b = ColumnBatch::slice_of(probe.columns(), 0, 2);
        let matches = |pos: usize, keys: &[usize]| -> Vec<usize> {
            table
                .get(42)
                .filter(|&r| batch_keys_eq(&b, keys, pos, image, keys, r))
                .collect()
        };
        assert_eq!(matches(0, &[0, 1]), [3]);
        assert!(matches(1, &[0, 1]).is_empty());
        assert_eq!(matches(1, &[1]), [0, 2, 4]);
    }

    #[test]
    fn empty_build_sides_index_and_join_nothing() {
        let table = RowTable::build(&[]);
        assert_eq!(table.get(0).count(), 0);
        // A computed build side that filters every row away.
        let c = catalog();
        let p = Plan::scan("emp").select(col("eid").gt(lit_i64(0))).join(
            Plan::scan("dept").select(col("did").lt(lit_i64(0))),
            col("dept").eq(col("did")),
        );
        let (out, stats) = execute_with_stats(&p, &c).unwrap();
        assert!(out.is_empty());
        assert_eq!((stats.buffers, stats.buffered_rows), (1, 0));
        let minus = Plan::scan("emp").project_names(["eid"]).difference(
            Plan::scan("emp")
                .select(col("eid").lt(lit_i64(0)))
                .project_names(["eid"]),
        );
        assert_eq!(execute(&minus, &c).unwrap().len(), 3);
    }

    #[test]
    fn scan_images_are_cached_across_executions() {
        // Pinned to plain storage: under a disk default the scans read
        // segments, not the plain image this test watches.
        let mut c = big_catalog();
        c.set_storage(StorageMode::Plain);
        let p = Plan::scan("fact").select(col("g").eq(lit_i64(1)));
        execute(&p, &c).unwrap();
        // The first execution (or registration, under a plain default)
        // built the image; executing again did not build a second one —
        // the relation still reports a cached image, shared later.
        assert!(c.get("fact").unwrap().columns_cached());
        let before = c.get("fact").unwrap().columns() as *const _;
        execute(&p, &c).unwrap();
        let after = c.get("fact").unwrap().columns() as *const _;
        assert_eq!(before, after);
    }
}
