//! Memory accounting and spill-to-sorted-runs for pipeline breakers.
//!
//! The streaming executor's breaker operators (hash-join build sides,
//! distinct/difference seen-sets) buffer without bound by default. When the engine runs with a
//! memory budget ([`crate::catalog::EngineConfig::mem_budget`], set via
//! `RELALG_MEM_BUDGET` or [`crate::Catalog::set_mem_budget`]), every
//! breaker charges its buffer bytes against a shared [`MemBudget`]
//! tracker and — when its own buffer exceeds the budget's limit —
//! spills to disk:
//!
//! * a spilling operator writes **runs**: flat files of records, each a
//!   few `u64` sort keys plus one [`Row`] in the
//!   [`crate::relation::encode_row`] codec ([`RunWriter`] /
//!   [`RunReader`]);
//! * finished runs are combined by a streaming k-way [`merge_runs`],
//!   which is stable (ties resolve toward the earlier run) so external
//!   merges reproduce in-memory results byte-for-byte;
//! * all run files live in one per-execution [`SpillDir`] under the
//!   system temp directory, created lazily on the first spill and
//!   removed recursively when the execution is dropped — including on
//!   the panic/unwind path, since cleanup rides on `Drop`.
//!
//! The [`SpillCtx`] bundles the budget, the directory, and the spill
//! counters ([`crate::exec::ExecStats`] reports them); one `SpillCtx`
//! is shared by every operator of one prepared execution.
//!
//! Spill I/O is fallible and fault-injectable ([`crate::fault`]):
//! every edge — directory creation, run-file open, record write/read,
//! merge passes — returns `Result`, with transient read/open failures
//! retried under the bounded [`crate::fault::retry_io`] policy and
//! everything else surfacing as a clean [`crate::Error::Io`] that the
//! executor's cursors return as is; the [`SpillDir`]'s `Drop` removes
//! every run file on that path as on every other.

use crate::error::Result;
use crate::fault::{self, FaultInjector, FaultKind};
use crate::relation::{decode_row, encode_row, row_footprint, Row};
use std::cmp::Ordering;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtOrd};
use std::sync::{Arc, OnceLock};

/// Byte budget shared by every breaker buffer of one execution.
///
/// `usize::MAX` means unbounded — every charge is accepted, nothing is
/// tracked (the disabled tracker adds no work to the hot path beyond
/// one branch). A bounded tracker keeps a running `used` total and its
/// high-water mark; each operator compares its *own* buffer against
/// [`MemBudget::limit`] to decide when to spill.
#[derive(Debug)]
pub struct MemBudget {
    limit: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
}

impl MemBudget {
    /// A tracker enforcing `limit` bytes (`usize::MAX` = unbounded).
    pub fn new(limit: usize) -> MemBudget {
        MemBudget {
            limit,
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// `true` when a finite budget is configured.
    pub fn enabled(&self) -> bool {
        self.limit != usize::MAX
    }

    /// The bytes a single breaker buffer may hold before it spills.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Record `bytes` newly held by a breaker buffer.
    pub fn charge(&self, bytes: usize) {
        if !self.enabled() || bytes == 0 {
            return;
        }
        let now = self.used.fetch_add(bytes, AtOrd::Relaxed) + bytes;
        self.peak.fetch_max(now, AtOrd::Relaxed);
    }

    /// Record `bytes` released by a breaker buffer (a spill flush).
    pub fn release(&self, bytes: usize) {
        if !self.enabled() || bytes == 0 {
            return;
        }
        // Saturating: releases are matched to charges, but an estimate
        // drifting below zero must not wrap.
        self.used
            .fetch_update(AtOrd::Relaxed, AtOrd::Relaxed, |u| {
                Some(u.saturating_sub(bytes))
            })
            .ok();
    }

    /// Currently tracked bytes.
    pub fn used(&self) -> usize {
        self.used.load(AtOrd::Relaxed)
    }

    /// High-water mark of tracked bytes.
    pub fn peak(&self) -> usize {
        self.peak.load(AtOrd::Relaxed)
    }
}

/// Process-wide sequence for unique spill directory names.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A per-execution scoped temp directory for spill runs.
///
/// The directory is created lazily — a budgeted execution that never
/// spills touches no filesystem — and removed recursively on `Drop`,
/// which also covers the panic path (unwinding drops the owning
/// [`SpillCtx`]). File names are sequenced so runs never collide.
#[derive(Debug, Default)]
pub struct SpillDir {
    path: OnceLock<PathBuf>,
    file_seq: AtomicU64,
}

impl SpillDir {
    /// Path of a fresh spill file (creates the directory on first use).
    fn next_file(&self, label: &str, faults: Option<&FaultInjector>) -> Result<PathBuf> {
        // The OnceLock closure is infallible, so resolve the path first
        // and create the directory (idempotently) outside it.
        let dir = self.path.get_or_init(|| {
            std::env::temp_dir().join(format!(
                "relalg-spill-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, AtOrd::Relaxed)
            ))
        });
        fault::retry_io(faults, || {
            fault::inject(faults, FaultKind::Open, "create spill directory")?;
            std::fs::create_dir_all(dir)
        })
        .map_err(|e| fault::io_error("create spill directory", &e))?;
        let seq = self.file_seq.fetch_add(1, AtOrd::Relaxed);
        Ok(dir.join(format!("{label}-{seq}.run")))
    }

    /// The directory path, if any spill file has been created yet.
    pub fn path(&self) -> Option<&Path> {
        self.path.get().map(PathBuf::as_path)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if let Some(dir) = self.path.get() {
            // Best effort, and deliberately infallible: this runs on
            // the error path of cancelled or faulted executions and
            // during a panic's unwind, so a temp dir the OS already
            // reaped — or a removal error — must never turn into a
            // double panic.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The per-execution spill context: budget tracker, scoped directory,
/// and the spill counters [`crate::exec::ExecStats`] reports. Shared
/// (`Arc`) by every operator of one prepared execution.
#[derive(Debug)]
pub struct SpillCtx {
    budget: MemBudget,
    dir: SpillDir,
    events: AtomicUsize,
    spilled_bytes: AtomicUsize,
    /// Fault source shared with the execution (`None` = injection off).
    faults: Option<Arc<FaultInjector>>,
}

impl SpillCtx {
    /// Context for a `limit`-byte budget.
    pub fn new(limit: usize) -> SpillCtx {
        SpillCtx {
            budget: MemBudget::new(limit),
            dir: SpillDir::default(),
            events: AtomicUsize::new(0),
            spilled_bytes: AtomicUsize::new(0),
            faults: None,
        }
    }

    /// Attach a fault injector: every spill I/O edge of this context
    /// draws from its schedule.
    pub fn with_faults(mut self, faults: Option<Arc<FaultInjector>>) -> SpillCtx {
        self.faults = faults;
        self
    }

    /// The attached fault injector, if any.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// An unbounded context (the default when no budget is configured).
    pub fn unbounded() -> SpillCtx {
        SpillCtx::new(usize::MAX)
    }

    /// The budget tracker.
    pub fn budget(&self) -> &MemBudget {
        &self.budget
    }

    /// Spill events so far (one per flushed run).
    pub fn events(&self) -> usize {
        self.events.load(AtOrd::Relaxed)
    }

    /// Estimated bytes written to spill runs so far.
    pub fn spilled_bytes(&self) -> usize {
        self.spilled_bytes.load(AtOrd::Relaxed)
    }

    /// The spill directory path, if this execution has spilled.
    pub fn dir_path(&self) -> Option<&Path> {
        self.dir.path()
    }

    /// Open a writer for a fresh run file. `label` names the spilling
    /// operator in the file name (debugging aid only).
    pub fn writer(&self, label: &str) -> Result<RunWriter> {
        let faults = self.faults.as_deref();
        let path = self.dir.next_file(label, faults)?;
        let file = fault::retry_io(faults, || {
            fault::inject(faults, FaultKind::Open, "create spill run file")?;
            File::create(&path)
        })
        .map_err(|e| fault::io_error("create spill run file", &e))?;
        Ok(RunWriter {
            w: BufWriter::new(file),
            path,
            records: 0,
            bytes: 0,
            faults: self.faults.clone(),
        })
    }

    /// Count one spill event that moved `bytes` of buffered data to
    /// disk. Budget release is the *caller's* job — only the operator
    /// knows whether the spilled bytes had been charged (a buffer flush)
    /// or streamed straight to disk (never resident).
    pub fn record_spill(&self, bytes: usize) {
        self.events.fetch_add(1, AtOrd::Relaxed);
        self.spilled_bytes.fetch_add(bytes, AtOrd::Relaxed);
    }
}

/// One spill-run record: a few `u64` sort keys plus a row. What the
/// keys mean is the spilling operator's business (sequence numbers,
/// digests, build-row indices, group positions).
pub type Record = (Vec<u64>, Row);

/// Writes one run: records with a fixed key count, in whatever order
/// the spilling operator guarantees (sorted runs are the operator's
/// contract, not the writer's).
pub struct RunWriter {
    w: BufWriter<File>,
    path: PathBuf,
    records: usize,
    bytes: usize,
    faults: Option<Arc<FaultInjector>>,
}

impl RunWriter {
    /// Append one record. Write errors — injected or real — are not
    /// retried (a mid-record stream position is unrecoverable); they
    /// propagate and the whole run is abandoned.
    pub fn push(&mut self, keys: &[u64], row: &Row) -> Result<()> {
        let fail = |e: &std::io::Error| fault::io_error("write spill run", e);
        fault::inject(self.faults.as_deref(), FaultKind::Write, "write spill run")
            .map_err(|e| fail(&e))?;
        let nkeys = u8::try_from(keys.len()).expect("spill record key count fits u8");
        self.w.write_all(&[nkeys]).map_err(|e| fail(&e))?;
        for k in keys {
            self.w.write_all(&k.to_le_bytes()).map_err(|e| fail(&e))?;
        }
        encode_row(&mut self.w, row).map_err(|e| fail(&e))?;
        self.records += 1;
        // Resident footprint the run's rows *will* have when loaded
        // back — what re-partitioning decisions compare to the limit.
        self.bytes += row_footprint(row) + 16 * keys.len();
        Ok(())
    }

    /// Records appended so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Flush and seal the run.
    pub fn finish(mut self) -> Result<Run> {
        let fail = |e: &std::io::Error| fault::io_error("flush spill run", e);
        fault::inject(self.faults.as_deref(), FaultKind::Write, "flush spill run")
            .map_err(|e| fail(&e))?;
        self.w.flush().map_err(|e| fail(&e))?;
        Ok(Run {
            path: self.path,
            records: self.records,
            bytes: self.bytes,
            faults: self.faults,
        })
    }
}

/// A sealed run file, ready for sequential reads.
#[derive(Debug, Clone)]
pub struct Run {
    path: PathBuf,
    records: usize,
    bytes: usize,
    faults: Option<Arc<FaultInjector>>,
}

impl Run {
    /// Number of records in the run.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Estimated resident footprint of the run's records once loaded
    /// (the metadata a reader checks against the budget limit *before*
    /// loading anything).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Open the run for a sequential scan.
    pub fn reader(&self) -> Result<RunReader> {
        let faults = self.faults.as_deref();
        let file = fault::retry_io(faults, || {
            fault::inject(faults, FaultKind::Open, "open spill run")?;
            File::open(&self.path)
        })
        .map_err(|e| fault::io_error("open spill run", &e))?;
        Ok(RunReader {
            r: BufReader::new(file),
            faults: self.faults.clone(),
        })
    }
}

/// Sequential reader over one run.
pub struct RunReader {
    r: BufReader<File>,
    faults: Option<Arc<FaultInjector>>,
}

impl RunReader {
    /// The next record, `Ok(None)` at end of run. Injected faults fire
    /// *before* any byte moves, so a transient injection retries from
    /// an unchanged stream position; real mid-record errors are not
    /// resumable and propagate.
    pub fn next_record(&mut self) -> Result<Option<Record>> {
        let fail = |e: &std::io::Error| fault::io_error("read spill run", e);
        fault::retry_io(self.faults.as_deref(), || {
            fault::inject(self.faults.as_deref(), FaultKind::Read, "read spill run")
        })
        .map_err(|e| fail(&e))?;
        let mut nkeys = [0u8; 1];
        if self.r.read(&mut nkeys).map_err(|e| fail(&e))? == 0 {
            return Ok(None);
        }
        let mut keys = Vec::with_capacity(nkeys[0] as usize);
        for _ in 0..nkeys[0] {
            let mut b = [0u8; 8];
            self.r.read_exact(&mut b).map_err(|e| fail(&e))?;
            keys.push(u64::from_le_bytes(b));
        }
        let row = decode_row(&mut self.r)
            .map_err(|e| fail(&e))?
            .ok_or_else(|| crate::error::Error::Io("truncated spill record".into()))?;
        Ok(Some((keys, row)))
    }
}

/// Streaming k-way merge over sorted runs.
///
/// Yields `(run index, record)` in `cmp` order; among equal heads the
/// *earliest* run wins, which is the stability contract spilled-join
/// output merges and seen-set resolutions rely on (runs are flushed in
/// input order, so earlier runs hold earlier input rows). The fan-in is
/// capped at [`MERGE_FAN_IN`] open files — a linear scan per pop over
/// that many heads beats heap bookkeeping.
pub struct MergeRuns<F> {
    readers: Vec<RunReader>,
    heads: Vec<Option<Record>>,
    cmp: F,
}

/// Maximum runs one streaming merge pass holds open. A workload that
/// flushed more runs than this (a multi-GiB input under a MiB-scale
/// budget) is compacted in runs-of-runs passes first, so the merge
/// neither exhausts file descriptors nor scans thousands of heads per
/// pop.
pub const MERGE_FAN_IN: usize = 64;

/// Merge `runs` with `cmp` over records (see [`MergeRuns`]).
///
/// More than [`MERGE_FAN_IN`] runs are first compacted: consecutive
/// groups of `MERGE_FAN_IN` merge into one intermediate run apiece
/// (in `ctx`'s spill directory, counted as spill events), repeatedly,
/// until one pass can stream them all. Consecutive grouping preserves
/// the earlier-run-wins stability contract — records keep their keys
/// verbatim, and an intermediate run inherits its group's position.
pub fn merge_runs<F>(runs: &[Run], ctx: &SpillCtx, mut cmp: F) -> Result<MergeRuns<F>>
where
    F: FnMut(&Record, &Record) -> Ordering,
{
    let mut runs: Vec<Run> = runs.to_vec();
    while runs.len() > MERGE_FAN_IN {
        let mut next: Vec<Run> = Vec::with_capacity(runs.len().div_ceil(MERGE_FAN_IN));
        for chunk in runs.chunks(MERGE_FAN_IN) {
            if chunk.len() == 1 {
                next.push(chunk[0].clone());
                continue;
            }
            let mut w = ctx.writer("merge-pass")?;
            let mut pass = open_merge(chunk.to_vec(), &mut cmp)?;
            while let Some((_, (keys, row))) = pass.next_rec()? {
                w.push(&keys, &row)?;
            }
            let run = w.finish()?;
            ctx.record_spill(run.bytes());
            next.push(run);
        }
        runs = next;
    }
    open_merge(runs, cmp)
}

fn open_merge<F>(runs: Vec<Run>, cmp: F) -> Result<MergeRuns<F>>
where
    F: FnMut(&Record, &Record) -> Ordering,
{
    let mut readers = Vec::with_capacity(runs.len());
    for run in &runs {
        readers.push(run.reader()?);
    }
    let mut heads = Vec::with_capacity(readers.len());
    for r in &mut readers {
        heads.push(r.next_record()?);
    }
    Ok(MergeRuns {
        readers,
        heads,
        cmp,
    })
}

impl<F> MergeRuns<F>
where
    F: FnMut(&Record, &Record) -> Ordering,
{
    /// The next `(run index, record)` in merge order, `Ok(None)` at
    /// end of all runs.
    pub fn next_rec(&mut self) -> Result<Option<(usize, Record)>> {
        let mut best: Option<usize> = None;
        for (i, head) in self.heads.iter().enumerate() {
            let Some(h) = head else { continue };
            best = match best {
                None => Some(i),
                Some(b) => {
                    let cur = self.heads[b].as_ref().expect("best head present");
                    // Strictly-less replaces: ties keep the earlier run.
                    if (self.cmp)(h, cur) == Ordering::Less {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let Some(b) = best else { return Ok(None) };
        let rec = self.heads[b].take().expect("best head present");
        self.heads[b] = self.readers[b].next_record()?;
        Ok(Some((b, rec)))
    }
}

impl<F> Iterator for MergeRuns<F>
where
    F: FnMut(&Record, &Record) -> Ordering,
{
    type Item = Result<(usize, Record)>;

    fn next(&mut self) -> Option<Result<(usize, Record)>> {
        self.next_rec().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(vals: Vec<Value>) -> Row {
        vals.into_boxed_slice()
    }

    #[test]
    fn budget_tracks_usage_share_and_peak() {
        let b = MemBudget::new(1000);
        assert!(b.enabled());
        assert_eq!(b.limit(), 1000);
        b.charge(600);
        b.charge(300);
        assert_eq!(b.used(), 900);
        b.release(500);
        assert_eq!(b.used(), 400);
        assert_eq!(b.peak(), 900);
        // Over-release saturates instead of wrapping.
        b.release(10_000);
        assert_eq!(b.used(), 0);
        // Unbounded budgets track nothing.
        let u = MemBudget::new(usize::MAX);
        assert!(!u.enabled());
        u.charge(1 << 40);
        assert_eq!(u.used(), 0);
    }

    #[test]
    fn run_roundtrip_preserves_keys_and_rows() {
        let ctx = SpillCtx::new(0);
        let rows = [
            row(vec![Value::Int(-7), Value::str("héllo"), Value::Null]),
            row(vec![Value::Int(42), Value::str(""), Value::Bool(true)]),
            row(vec![]),
        ];
        let mut w = ctx.writer("test").unwrap();
        for (i, r) in rows.iter().enumerate() {
            w.push(&[i as u64, 99], r).unwrap();
        }
        assert_eq!(w.records(), 3);
        let run = w.finish().unwrap();
        assert_eq!(run.records(), 3);
        let mut rd = run.reader().unwrap();
        for (i, want) in rows.iter().enumerate() {
            let (keys, got) = rd.next_record().unwrap().expect("record");
            assert_eq!(keys, vec![i as u64, 99]);
            assert_eq!(&got, want);
        }
        assert!(rd.next_record().unwrap().is_none());
        // The run can be re-read from the start.
        assert_eq!(
            run.reader().unwrap().next_record().unwrap().unwrap().0,
            vec![0, 99]
        );
    }

    #[test]
    fn merge_is_ordered_and_stable_toward_earlier_runs() {
        let ctx = SpillCtx::new(0);
        // Two sorted runs with overlapping and *equal* keys: the merge
        // must interleave by key and give equal keys to the earlier run
        // first (the payload marks run provenance).
        let mut w0 = ctx.writer("a").unwrap();
        for k in [1u64, 3, 5, 5] {
            w0.push(&[k], &row(vec![Value::Int(0)])).unwrap();
        }
        let mut w1 = ctx.writer("b").unwrap();
        for k in [2u64, 3, 5] {
            w1.push(&[k], &row(vec![Value::Int(1)])).unwrap();
        }
        let runs = [w0.finish().unwrap(), w1.finish().unwrap()];
        let merged: Vec<(usize, u64)> = merge_runs(&runs, &ctx, |a, b| a.0[0].cmp(&b.0[0]))
            .unwrap()
            .map(|r| {
                let (run, (keys, _)) = r.unwrap();
                (run, keys[0])
            })
            .collect();
        assert_eq!(
            merged,
            vec![
                (0, 1),
                (1, 2),
                (0, 3), // tie at 3: run 0 first
                (1, 3),
                (0, 5), // tie at 5: both run-0 records before run 1
                (0, 5),
                (1, 5),
            ]
        );
        // Merging zero runs is an empty iterator.
        assert!(
            merge_runs(&[], &ctx, |a: &Record, b: &Record| a.0.cmp(&b.0))
                .unwrap()
                .next()
                .is_none()
        );
    }

    #[test]
    fn merge_compacts_past_the_fan_in_cap() {
        let ctx = SpillCtx::new(0);
        // Far more runs than one pass may hold open: single-record runs
        // keyed so the global order interleaves across all of them, and
        // every key duplicated in a later run (payload = run index) so
        // compaction must preserve earlier-run-wins stability.
        let n = 2 * MERGE_FAN_IN + 7;
        let runs: Vec<Run> = (0..n)
            .map(|i| {
                let mut w = ctx.writer("many").unwrap();
                w.push(
                    &[(i % MERGE_FAN_IN) as u64],
                    &row(vec![Value::Int(i as i64)]),
                )
                .unwrap();
                w.finish().unwrap()
            })
            .collect();
        let merged: Vec<(u64, i64)> = merge_runs(&runs, &ctx, |a, b| a.0[0].cmp(&b.0[0]))
            .unwrap()
            .map(|rec| {
                let (_, (keys, r)) = rec.unwrap();
                (keys[0], r[0].as_int().unwrap())
            })
            .collect();
        assert_eq!(merged.len(), n);
        // Keys ascend; equal keys keep original run order (stability
        // survives the runs-of-runs compaction passes).
        for w in merged.windows(2) {
            assert!(w[0].0 <= w[1].0, "{merged:?}");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "tie broke stability: {merged:?}");
            }
        }
        assert!(ctx.events() > 0, "compaction passes count as spills");
    }

    #[test]
    fn spill_dir_is_lazy_and_cleaned_on_drop() {
        let ctx = SpillCtx::new(0);
        assert!(ctx.dir_path().is_none(), "no dir before the first spill");
        let mut w = ctx.writer("probe").unwrap();
        w.push(&[0], &row(vec![Value::Int(1)])).unwrap();
        let _run = w.finish().unwrap();
        let dir = ctx.dir_path().expect("dir exists after a spill").to_owned();
        assert!(dir.exists());
        ctx.record_spill(64);
        assert_eq!(ctx.events(), 1);
        assert!(ctx.spilled_bytes() >= 64);
        drop(ctx);
        assert!(!dir.exists(), "spill dir must be removed on drop");
    }

    #[test]
    fn spill_dir_is_cleaned_on_panic_unwind() {
        let dir = std::sync::Arc::new(std::sync::Mutex::new(None::<PathBuf>));
        let dir2 = std::sync::Arc::clone(&dir);
        let res = std::panic::catch_unwind(move || {
            let ctx = SpillCtx::new(0);
            let mut w = ctx.writer("doomed").unwrap();
            w.push(&[0], &row(vec![Value::Int(1)])).unwrap();
            let _run = w.finish().unwrap();
            *dir2.lock().unwrap() = ctx.dir_path().map(Path::to_owned);
            panic!("aborted mid-spill");
        });
        assert!(res.is_err());
        let dir = dir.lock().unwrap().clone().expect("dir was created");
        assert!(
            !dir.exists(),
            "spill dir must be removed when execution unwinds"
        );
    }
}
