//! # urel-relalg — an in-memory relational algebra engine
//!
//! This crate is the relational substrate of the U-relations reproduction
//! (Antova, Jansen, Koch, Olteanu, ICDE 2008). The paper's central claim is
//! that queries over uncertain databases translate into *plain relational
//! algebra* over the representation relations, and that a stock relational
//! optimizer handles the translated plans well. This crate supplies exactly
//! that target language:
//!
//! * [`Value`], [`Schema`], [`Relation`] — the data model (typed rows over
//!   named, optionally qualified columns);
//! * [`Expr`] — scalar expressions (comparisons, boolean connectives) that
//!   compile to column-index form before evaluation;
//! * [`Plan`] — logical plans: scan, select, project (generalized), inner
//!   theta-join, union, difference, distinct, rename — exactly the
//!   operators the U-relational translation emits;
//! * [`exec::execute`] — pull-based streaming execution, vectorized and
//!   on the calling thread: pipelines process column-major
//!   [`batch::ColumnBatch`]es (typed columns off each relation's cached
//!   [`relation::ColumnarImage`], selection vectors, column-at-a-time
//!   predicates, batch-hashed join probes, pair-batch evaluation of
//!   nested-loop theta joins). Concurrency comes from running queries
//!   side by side (the server's sessions), not from splitting one. Only
//!   pipeline breakers (hash-join build sides, nested-loop inner sides,
//!   distinct/difference seen-sets) buffer, and [`exec::ExecStats`]
//!   counts exactly how much, plus the batches emitted. Under a memory
//!   budget (`RELALG_MEM_BUDGET` / [`Catalog::set_mem_budget`])
//!   over-budget breakers **spill to
//!   sorted runs** ([`spill`]) — hybrid-hash join partitions and dedup
//!   candidate runs — with output
//!   byte-identical to unbounded execution and run files in a scoped
//!   temp directory cleaned on drop. Base tables can live as
//!   **compressed column segments** ([`segment`]) — dictionary-coded
//!   strings and frame-of-reference bit-packed integers — in
//!   checksummed page files on disk ([`store`]), leased through one
//!   clock-eviction [`BufferPool`] shared across relations
//!   (`RELALG_STORAGE` / [`Catalog::set_storage`]); a disk scan reads
//!   every segment, and its output equals the plain scan's. The
//!   retained operator-at-a-time engine
//!   ([`exec::execute_reference`]) is the differential baseline;
//! * [`optimizer::optimize`] — conjunct splitting, selection pushdown,
//!   projection pruning, greedy cost-based join reordering, and
//!   redundant-distinct elimination;
//! * [`explain::explain`] — an `EXPLAIN`-style plan printer with row
//!   estimates and per-node pipeline/buffer annotations (the Figure 13
//!   analog);
//! * [`Catalog`] — a named-relation store with per-column statistics.
//!
//! The engine is deliberately small but real: hash joins, set operations
//! and the optimizer are the code paths the paper's experiments exercise
//! through PostgreSQL.

pub mod admission;
pub mod batch;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod fault;
pub mod fxhash;
pub mod optimizer;
pub mod plan;
pub mod relation;
pub mod schema;
pub mod segment;
pub mod spill;
pub mod stats;
pub mod store;
pub mod value;

pub use admission::{AdmissionGate, AdmissionPermit, AdmissionStats};
pub use batch::{BatchCol, ColumnBatch, BATCH_SIZE};
pub use catalog::{Catalog, EngineConfig, StorageMode};
pub use error::{Error, Result};
pub use exec::ExecStats;
pub use expr::{col, lit, lit_bool, lit_i64, lit_str, ArithOp, CmpOp, Expr};
pub use fault::{CancelToken, FaultConfig, FaultInjector, FaultKind, FaultKinds};
pub use plan::Plan;
pub use relation::{Column, ColumnarImage, NullMask, Relation, Row};
pub use schema::{ColRef, Schema};
pub use spill::{MemBudget, SpillCtx};
pub use store::{BufferPool, DiskImage, DiskImageProvider, DiskTableWriter, IoCounters};
pub use value::Value;
