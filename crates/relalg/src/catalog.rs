//! The named-relation store with per-relation statistics and the
//! engine's execution configuration: memory budget, storage mode and
//! segment geometry, the one buffer-pool capacity
//! that bounds decoded segments under disk storage, fault injection
//! and deadlines.

use crate::error::{Error, Result};
use crate::fault::FaultConfig;
use crate::relation::Relation;
use crate::stats::TableStats;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Engine execution configuration, carried by the [`Catalog`] so every
/// caller that can run a query can also tune how it runs. The defaults
/// come from the environment once per process. Every query executes on
/// its calling thread; concurrency comes from running sessions side by
/// side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Memory budget in bytes for pipeline-breaker buffers
    /// (`usize::MAX` = unbounded, the default; `RELALG_MEM_BUDGET` sets
    /// it from the environment). Each breaker charges its buffered bytes
    /// against the budget and spills to sorted runs in a scoped temp
    /// directory when the budget is exceeded — with output
    /// guaranteed byte-identical to the unbounded engine.
    pub mem_budget: usize,
    /// How base-table scans source their batches (`RELALG_STORAGE`):
    /// the plain columnar image, or compressed on-disk segments leased
    /// from the shared buffer pool. Both modes produce byte-identical
    /// query output.
    pub storage: StorageMode,
    /// Rows per column segment under [`StorageMode::Disk`]
    /// (`RELALG_SEGMENT_ROWS`, default 64Ki).
    pub segment_rows: usize,
    /// Decoded segments the shared buffer pool keeps resident *across
    /// all relations* under [`StorageMode::Disk`] (`RELALG_BUFFER_POOL`,
    /// default 64, floored at 1). Per-scan fetches become leases on this
    /// pool, so concurrent scans of different relations compete for —
    /// and share — the same slots.
    pub buffer_pool: usize,
    /// Deterministic fault-injection schedule for the execution's I/O
    /// edges (`RELALG_FAULTS=<seed>:<rate>[:<kinds>]`), `None` (the
    /// default) compiles every edge down to a no-op check. Each
    /// execution runs the schedule from tick 0, so a `(seed, rate)`
    /// pair names a reproducible fault sequence.
    pub faults: Option<FaultConfig>,
    /// Per-query deadline (`RELALG_DEADLINE_MS`): executions past it
    /// stop at the next batch boundary, release every resource
    /// they hold, and return [`Error::Cancelled`]. `None` = no limit.
    pub deadline: Option<Duration>,
}

/// Storage backend for base-table scans. The mode changes *where*
/// batch columns come from, never *what* they contain — both execute
/// byte-identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageMode {
    /// The monolithic in-memory columnar image (the default).
    Plain,
    /// Compressed column segments ([`crate::segment`]) live in page
    /// files on disk ([`crate::store::DiskImage`]) — a relation built
    /// in memory is written to a scratch store on its first disk
    /// scan — and scans read them through a
    /// checksum-verified buffer pool of [`EngineConfig::buffer_pool`]
    /// decoded segments shared across all relations. Neither the row
    /// store nor the full encoded image needs to fit in memory.
    Disk,
}

/// Default rows per column segment (64Ki).
pub const DEFAULT_SEGMENT_ROWS: usize = 64 * 1024;

/// Default shared buffer-pool capacity (decoded segments, all relations).
pub const DEFAULT_BUFFER_POOL: usize = 64;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mem_budget: default_mem_budget(),
            storage: default_storage(),
            segment_rows: default_segment_rows(),
            buffer_pool: default_buffer_pool(),
            faults: default_faults(),
            deadline: default_deadline(),
        }
    }
}

/// `RELALG_FAULTS=<seed>:<rate>[:<kinds>]`, read once per process;
/// unset or malformed means no injection.
fn default_faults() -> Option<FaultConfig> {
    static FAULTS: std::sync::OnceLock<Option<FaultConfig>> = std::sync::OnceLock::new();
    *FAULTS.get_or_init(|| {
        std::env::var("RELALG_FAULTS")
            .ok()
            .and_then(|v| FaultConfig::parse(&v))
    })
}

/// `RELALG_DEADLINE_MS`, read once per process; unset, unparseable or
/// zero means no deadline.
fn default_deadline() -> Option<Duration> {
    static DEADLINE: std::sync::OnceLock<Option<Duration>> = std::sync::OnceLock::new();
    *DEADLINE.get_or_init(|| {
        std::env::var("RELALG_DEADLINE_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map(Duration::from_millis)
    })
}

/// `RELALG_STORAGE` (`plain` | `disk`), read once per process; unset
/// or unrecognized means plain.
fn default_storage() -> StorageMode {
    static STORAGE: std::sync::OnceLock<StorageMode> = std::sync::OnceLock::new();
    *STORAGE.get_or_init(|| match std::env::var("RELALG_STORAGE").as_deref() {
        Ok("disk") => StorageMode::Disk,
        _ => StorageMode::Plain,
    })
}

/// `RELALG_BUFFER_POOL`, read once per process; unset, unparseable or
/// zero means [`DEFAULT_BUFFER_POOL`].
fn default_buffer_pool() -> usize {
    static POOL: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *POOL.get_or_init(|| {
        std::env::var("RELALG_BUFFER_POOL")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_BUFFER_POOL)
    })
}

/// `RELALG_SEGMENT_ROWS`, read once per process; unset, unparseable or
/// zero means [`DEFAULT_SEGMENT_ROWS`].
fn default_segment_rows() -> usize {
    static ROWS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *ROWS.get_or_init(|| {
        std::env::var("RELALG_SEGMENT_ROWS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_SEGMENT_ROWS)
    })
}

/// `RELALG_MEM_BUDGET` in bytes, read once per process; unset (or
/// unparseable, or zero) means unbounded.
fn default_mem_budget() -> usize {
    static BUDGET: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("RELALG_MEM_BUDGET")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(usize::MAX)
    })
}

/// A catalog maps relation names to materialized relations and caches
/// per-column statistics used by the optimizer's cardinality estimates.
/// It also carries the [`EngineConfig`] the executor reads at prepare
/// time.
#[derive(Default, Clone, Debug)]
pub struct Catalog {
    rels: BTreeMap<String, Arc<Relation>>,
    stats: BTreeMap<String, Arc<TableStats>>,
    config: EngineConfig,
}

impl Catalog {
    /// Empty catalog with the environment-default [`EngineConfig`].
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The execution configuration queries against this catalog use.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Replace the execution configuration (builder style).
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Does nothing: every query runs on its calling thread, whatever
    /// `threads` is. Kept only because the repository benchmark
    /// (`urbench`) still calls it; the next benchmark change deletes
    /// that call and then this method.
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Set the breaker memory budget in bytes (`usize::MAX` — or `0`,
    /// for symmetry with the `RELALG_MEM_BUDGET` convention — disables
    /// it). Budgeted and unbounded execution produce byte-identical
    /// results; the budget only bounds breaker buffers by spilling them
    /// to sorted runs on disk.
    pub fn set_mem_budget(&mut self, bytes: usize) {
        self.config.mem_budget = if bytes == 0 { usize::MAX } else { bytes };
    }

    /// Set the base-table storage mode. Affects only relations
    /// registered (or queried) afterwards; output is byte-identical
    /// across modes.
    pub fn set_storage(&mut self, mode: StorageMode) {
        self.config.storage = mode;
    }

    /// Set the segment geometry: rows per segment and the shared
    /// buffer pool's capacity in decoded segments (both floored at 1;
    /// the second argument is [`Catalog::set_buffer_pool`]'s).
    pub fn set_segment_layout(&mut self, segment_rows: usize, pool_segments: usize) {
        self.config.segment_rows = segment_rows.max(1);
        self.set_buffer_pool(pool_segments);
    }

    /// Set the shared buffer pool's capacity in decoded segments
    /// (floored at 1). Scans under [`StorageMode::Disk`] lease slots
    /// from the process-wide pool of this capacity.
    pub fn set_buffer_pool(&mut self, segments: usize) {
        self.config.buffer_pool = segments.max(1);
    }

    /// Set (or clear) the deterministic fault-injection schedule for
    /// executions against this catalog. Injected faults either retry
    /// transparently (transient reads/opens/leases) or surface as clean
    /// [`Error::Io`]s — never a panic, leak, or wrong answer.
    pub fn set_faults(&mut self, faults: Option<FaultConfig>) {
        self.config.faults = faults;
    }

    /// Set (or clear) the per-query deadline. A query past its deadline
    /// stops at the next batch boundary and returns
    /// [`Error::Cancelled`] with all its resources released.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.config.deadline = deadline;
    }

    /// Register (or replace) a relation. Statistics are computed eagerly —
    /// the workloads in this repo scan every registered relation at least
    /// once, so the one-time pass pays for itself. Computing them runs
    /// over the columnar image, which builds and caches it: batched scans
    /// of catalog relations never pay row-to-column conversion.
    pub fn insert(&mut self, name: impl Into<String>, rel: Relation) {
        self.insert_shared(name, Arc::new(rel));
    }

    /// Register (or replace) a relation that is already shared — e.g. a
    /// query result or another catalog's entry. The storage is aliased,
    /// not copied; only statistics (and the relation's cached columnar
    /// image, as a side effect) are (re)computed.
    pub fn insert_shared(&mut self, name: impl Into<String>, rel: Arc<Relation>) {
        let name = name.into();
        // Disk-native relations carry the statistics their writer
        // accumulated in the manifest, so registering them decodes
        // nothing at all.
        let stats = match rel.native_disk_image() {
            Some(img) => img.stats().clone(),
            None => TableStats::compute(&rel),
        };
        self.rels.insert(name.clone(), rel);
        self.stats.insert(name, Arc::new(stats));
    }

    /// Look up a relation.
    pub fn get(&self, name: &str) -> Result<&Arc<Relation>> {
        self.rels
            .get(name)
            .ok_or_else(|| Error::UnknownRelation(name.to_string()))
    }

    /// Look up statistics.
    pub fn stats(&self, name: &str) -> Option<&Arc<TableStats>> {
        self.stats.get(name)
    }

    /// Iterate (name, relation) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<Relation>)> {
        self.rels.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Registered relation names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.rels.keys().map(String::as_str)
    }

    /// Total payload bytes across all relations (database-size accounting).
    pub fn size_bytes(&self) -> usize {
        self.rels.values().map(|r| r.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn engine_config_is_carried_and_tunable() {
        let mut c = Catalog::new();
        let before = *c.config();
        c.set_threads(4); // a no-op: queries run on their calling thread
        assert_eq!(*c.config(), before);
        c.set_mem_budget(1 << 20);
        assert_eq!(c.config().mem_budget, 1 << 20);
        c.set_mem_budget(0); // 0 = unbounded, like the env convention
        assert_eq!(c.config().mem_budget, usize::MAX);
        c.set_storage(StorageMode::Disk);
        c.set_segment_layout(256, 2);
        assert_eq!(c.config().storage, StorageMode::Disk);
        assert_eq!(c.config().segment_rows, 256);
        assert_eq!(c.config().buffer_pool, 2);
        c.set_segment_layout(0, 0); // floored at 1
        assert_eq!(c.config().segment_rows, 1);
        assert_eq!(c.config().buffer_pool, 1);
        c.set_buffer_pool(3);
        assert_eq!(c.config().buffer_pool, 3);
        c.set_buffer_pool(0); // floored at 1
        assert_eq!(c.config().buffer_pool, 1);
        c.set_faults(Some(FaultConfig::new(42, 0.01)));
        assert_eq!(c.config().faults.unwrap().seed, 42);
        c.set_faults(None);
        assert_eq!(c.config().faults, None);
        c.set_deadline(Some(Duration::from_millis(250)));
        assert_eq!(c.config().deadline, Some(Duration::from_millis(250)));
        c.set_deadline(None);
        assert_eq!(c.config().deadline, None);
        // Clones carry the configuration.
        assert_eq!(c.clone().config(), c.config());
    }

    #[test]
    fn disk_catalog_stats_match_plain() {
        let rel = Relation::from_rows(
            ["a", "b"],
            (0..7).map(|i| {
                vec![
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 4)
                    },
                    Value::str(["x", "y"][i as usize % 2]),
                ]
            }),
        )
        .unwrap();
        let mut plain = Catalog::new();
        plain.set_storage(StorageMode::Plain);
        plain.insert("t", rel.clone());
        // Under disk storage: the in-memory relation (stats computed as
        // under plain) and its disk-native twin (stats from the manifest
        // its writer streamed) both register with plain's statistics.
        let mut disk = Catalog::new();
        disk.set_storage(StorageMode::Disk);
        disk.set_segment_layout(2, 1);
        let native = Relation::from_disk_image(rel.disk_image(2).unwrap());
        disk.insert("t", rel);
        disk.insert("n", native);
        let p = plain.stats("t").unwrap();
        for name in ["t", "n"] {
            let d = disk.stats(name).unwrap();
            assert_eq!(d.rows, p.rows, "{name}");
            assert_eq!(d.ndv, p.ndv, "{name}");
            assert_eq!(d.pair_ndv, p.pair_ndv, "{name}");
            assert_eq!(d.bytes, p.bytes, "{name}");
            assert_eq!(d.minmax, p.minmax, "{name}");
        }
        assert_eq!(p.minmax(0), Some(&(Value::Null, Value::Int(2))));
    }

    #[test]
    fn insert_get() {
        let mut c = Catalog::new();
        c.insert(
            "t",
            Relation::from_rows(["a"], vec![vec![Value::Int(1)]]).unwrap(),
        );
        assert_eq!(c.get("t").unwrap().len(), 1);
        assert!(c.get("missing").is_err());
        assert!(c.stats("t").is_some());
        assert_eq!(c.names().count(), 1);
    }

    #[test]
    fn insert_shared_aliases_storage() {
        let mut c = Catalog::new();
        let rel = Arc::new(Relation::from_rows(["a"], vec![vec![Value::Int(1)]]).unwrap());
        c.insert_shared("t", Arc::clone(&rel));
        assert!(Arc::ptr_eq(c.get("t").unwrap(), &rel));
        assert_eq!(c.stats("t").unwrap().rows, 1);
    }

    #[test]
    fn replace_updates_stats() {
        let mut c = Catalog::new();
        c.insert(
            "t",
            Relation::from_rows(["a"], vec![vec![Value::Int(1)]]).unwrap(),
        );
        c.insert(
            "t",
            Relation::from_rows(["a"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap(),
        );
        assert_eq!(c.stats("t").unwrap().rows, 2);
    }
}
