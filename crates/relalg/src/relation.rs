//! Materialized relations with shared row storage and a cached
//! column-major image for the batched executor.

use crate::error::{Error, Result};
use crate::fxhash::FxHasher;
use crate::schema::{ColRef, Schema};
use crate::store::{DiskImage, DiskTableWriter};
use crate::value::{str_eq, Value};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::io;
use std::sync::{Arc, Mutex, OnceLock};

/// A row: a boxed slice of values (two words on the stack, no spare
/// capacity — see the perf guide on boxed slices).
pub type Row = Box<[Value]>;

/// Null/validity bitmap for the nullable typed columns
/// ([`Column::IntN`], [`Column::StrN`]): one bit per row, set when the
/// row is `Null`. The count is cached — segment zone maps and batch
/// kernels read it constantly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NullMask {
    /// Bit `i` set ⇔ row `i` is null.
    bits: Vec<u64>,
    len: usize,
    nulls: usize,
}

impl NullMask {
    /// All-valid mask over `len` rows.
    pub fn new(len: usize) -> NullMask {
        NullMask {
            bits: vec![0; len.div_ceil(64)],
            len,
            nulls: 0,
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the mask covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mark row `idx` null (idempotent).
    pub fn set_null(&mut self, idx: usize) {
        debug_assert!(idx < self.len);
        let (word, bit) = (idx / 64, idx % 64);
        if self.bits[word] & (1 << bit) == 0 {
            self.bits[word] |= 1 << bit;
            self.nulls += 1;
        }
    }

    /// Is row `idx` null?
    #[inline]
    pub fn is_null(&self, idx: usize) -> bool {
        self.bits[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Number of null rows (cached; O(1)).
    pub fn null_count(&self) -> usize {
        self.nulls
    }
}

/// The shared placeholder occupying null slots of a [`Column::StrN`]
/// payload vector (never observed through the accessors — the mask is
/// checked first — but keeps the vector's slots initialized without one
/// allocation per null).
pub(crate) fn null_str_slot() -> Arc<str> {
    static SLOT: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(SLOT.get_or_init(|| Arc::from("")))
}

/// One column of a [`ColumnarImage`]: typed storage when the column is
/// homogeneous (the common case — TPC-H columns are all-integer or
/// all-string), a generic `Value` vector otherwise (nulls introduced by
/// the union translation's padding, booleans, mixed types).
///
/// Typed columns are what make batched predicate evaluation fast: a
/// comparison over an [`Column::Int`] column is a tight loop over a
/// contiguous `&[i64]`, with no per-row enum dispatch or `Value` clone.
#[derive(Clone, Debug)]
pub enum Column {
    /// All-integer column.
    Int(Vec<i64>),
    /// All-string column (interned `Arc<str>` — see [`crate::value::intern`]).
    Str(Vec<Arc<str>>),
    /// Integer column with nulls: rows flagged by the [`NullMask`] read
    /// as [`Value::Null`] and their payload slot is never observed. This
    /// is what the union translation's `Int`-padded columns compact to
    /// instead of collapsing to [`Column::Mixed`].
    IntN(Vec<i64>, NullMask),
    /// String column with nulls (null slots hold a shared placeholder).
    StrN(Vec<Arc<str>>, NullMask),
    /// Fallback: any mix of values, still stored contiguously.
    Mixed(Vec<Value>),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::IntN(v, _) => v.len(),
            Column::StrN(v, _) => v.len(),
            Column::Mixed(v) => v.len(),
        }
    }

    /// `true` if no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `idx` (clones; `Arc` bump for strings).
    #[inline]
    pub fn get(&self, idx: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[idx]),
            Column::Str(v) => Value::Str(Arc::clone(&v[idx])),
            Column::IntN(v, m) => {
                if m.is_null(idx) {
                    Value::Null
                } else {
                    Value::Int(v[idx])
                }
            }
            Column::StrN(v, m) => {
                if m.is_null(idx) {
                    Value::Null
                } else {
                    Value::Str(Arc::clone(&v[idx]))
                }
            }
            Column::Mixed(v) => v[idx].clone(),
        }
    }

    /// Hash the value at `idx` into `h`, producing *exactly* the digest
    /// [`Value::hash`] would: the batched hash-join probe and the
    /// row-built hash tables must agree on every key digest.
    #[inline]
    pub fn hash_value_into(&self, idx: usize, h: &mut FxHasher) {
        match self {
            Column::Int(v) => {
                h.write_u8(2); // Value::Int rank
                h.write_i64(v[idx]);
            }
            Column::Str(v) => {
                h.write_u8(3); // Value::Str rank
                v[idx].as_ref().hash(h);
            }
            Column::IntN(v, m) => {
                if m.is_null(idx) {
                    h.write_u8(0); // Value::Null rank, no payload
                } else {
                    h.write_u8(2);
                    h.write_i64(v[idx]);
                }
            }
            Column::StrN(v, m) => {
                if m.is_null(idx) {
                    h.write_u8(0);
                } else {
                    h.write_u8(3);
                    v[idx].as_ref().hash(h);
                }
            }
            Column::Mixed(v) => v[idx].hash(h),
        }
    }

    /// Compare the value at `idx` against a [`Value`] (no clones;
    /// pointer-first for strings).
    #[inline]
    pub fn value_eq(&self, idx: usize, other: &Value) -> bool {
        match (self, other) {
            (Column::Int(v), Value::Int(o)) => v[idx] == *o,
            (Column::Str(v), Value::Str(o)) => str_eq(&v[idx], o),
            (Column::IntN(v, m), o) => {
                if m.is_null(idx) {
                    o.is_null()
                } else {
                    matches!(o, Value::Int(x) if v[idx] == *x)
                }
            }
            (Column::StrN(v, m), o) => {
                if m.is_null(idx) {
                    o.is_null()
                } else {
                    matches!(o, Value::Str(s) if str_eq(&v[idx], s))
                }
            }
            (Column::Mixed(v), o) => v[idx] == *o,
            _ => false,
        }
    }

    /// Compare values across two columns (no clones on the typed paths;
    /// pointer-first for strings) — the exact-equality check behind
    /// hash-join key digests.
    #[inline]
    pub fn cross_eq(&self, idx: usize, other: &Column, odx: usize) -> bool {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a[idx] == b[odx],
            (Column::Str(a), Column::Str(b)) => str_eq(&a[idx], &b[odx]),
            (Column::Mixed(a), b) => b.value_eq(odx, &a[idx]),
            (a, Column::Mixed(b)) => a.value_eq(idx, &b[odx]),
            // Nullable or cross-typed pairs: at most an `Arc` bump.
            (a, b) => b.value_eq(odx, &a.get(idx)),
        }
    }

    /// Build a column from an owned value vector, compacting to typed
    /// storage when the values are homogeneous — including
    /// [`Column::IntN`] / [`Column::StrN`] for columns that are uniform
    /// except for `Null` padding (the union translation's pad columns),
    /// which previously collapsed to [`Column::Mixed`] and lost the
    /// vectorized kernels.
    pub fn from_values(vals: Vec<Value>) -> Column {
        if !vals.is_empty() && vals.iter().all(|v| matches!(v, Value::Int(_))) {
            return Column::Int(
                vals.into_iter()
                    .map(|v| match v {
                        Value::Int(i) => i,
                        _ => unreachable!("checked all-int"),
                    })
                    .collect(),
            );
        }
        if !vals.is_empty() && vals.iter().all(|v| matches!(v, Value::Str(_))) {
            return Column::Str(
                vals.into_iter()
                    .map(|v| match v {
                        Value::Str(s) => s,
                        _ => unreachable!("checked all-str"),
                    })
                    .collect(),
            );
        }
        let ints = vals.iter().filter(|v| matches!(v, Value::Int(_))).count();
        let strs = vals.iter().filter(|v| matches!(v, Value::Str(_))).count();
        let nulls = vals.iter().filter(|v| v.is_null()).count();
        if ints > 0 && ints + nulls == vals.len() {
            let mut mask = NullMask::new(vals.len());
            let payload = vals
                .into_iter()
                .enumerate()
                .map(|(i, v)| match v {
                    Value::Int(x) => x,
                    _ => {
                        mask.set_null(i);
                        0
                    }
                })
                .collect();
            return Column::IntN(payload, mask);
        }
        if strs > 0 && strs + nulls == vals.len() {
            let mut mask = NullMask::new(vals.len());
            let payload = vals
                .into_iter()
                .enumerate()
                .map(|(i, v)| match v {
                    Value::Str(s) => s,
                    _ => {
                        mask.set_null(i);
                        null_str_slot()
                    }
                })
                .collect();
            return Column::StrN(payload, mask);
        }
        Column::Mixed(vals)
    }

    fn from_rows(rows: &[Row], col: usize) -> Column {
        if !rows.is_empty() && rows.iter().all(|r| matches!(r[col], Value::Int(_))) {
            return Column::Int(
                rows.iter()
                    .map(|r| match &r[col] {
                        Value::Int(i) => *i,
                        _ => unreachable!("checked all-int"),
                    })
                    .collect(),
            );
        }
        if !rows.is_empty() && rows.iter().all(|r| matches!(r[col], Value::Str(_))) {
            return Column::Str(
                rows.iter()
                    .map(|r| match &r[col] {
                        Value::Str(s) => Arc::clone(s),
                        _ => unreachable!("checked all-str"),
                    })
                    .collect(),
            );
        }
        // Heterogeneous (or null-padded): clone through the value path,
        // which compacts nullable-typed columns too.
        Column::from_values(rows.iter().map(|r| r[col].clone()).collect())
    }
}

/// The column-major image of a relation: one [`Column`] per schema
/// column, all of equal length. Built lazily by [`Relation::columns`]
/// and cached, so repeated queries over a shared catalog pay the
/// row-to-column conversion once per relation, not once per scan.
#[derive(Debug)]
pub struct ColumnarImage {
    cols: Vec<Column>,
    len: usize,
}

impl ColumnarImage {
    /// An image over already-built columns of `len` rows each (`len`
    /// is explicit: a zero-arity image has rows but no columns).
    pub(crate) fn from_columns(cols: Vec<Column>, len: usize) -> ColumnarImage {
        debug_assert!(cols.iter().all(|c| c.len() == len));
        ColumnarImage { cols, len }
    }

    fn build(schema: &Schema, rows: &[Row]) -> ColumnarImage {
        ColumnarImage {
            cols: (0..schema.arity())
                .map(|c| Column::from_rows(rows, c))
                .collect(),
            len: rows.len(),
        }
    }

    /// The columns.
    pub fn cols(&self) -> &[Column] {
        &self.cols
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Where a relation's tuples live: in memory (the default), or in an
/// opened on-disk segment store with the row form decoded lazily on
/// first demand — disk-resident base tables never pay for a row store
/// the batched segment scan does not need.
#[derive(Clone, Debug)]
enum RowStore {
    /// Plain in-memory rows, shared across clones and renames.
    Mem(Arc<Vec<Row>>),
    /// An opened on-disk segment image; `rows` materializes (once) only
    /// when an operator genuinely needs the row form.
    Disk {
        image: Arc<DiskImage>,
        rows: OnceLock<Arc<Vec<Row>>>,
    },
}

/// A materialized relation: a schema plus rows, bag semantics.
///
/// Rows live behind an `Arc`, so cloning a relation — and in particular
/// re-qualifying its schema for a rename — shares storage instead of
/// deep-copying tuples. Mutators ([`Relation::push`],
/// [`Relation::dedup_in_place`]) are copy-on-write: they are free while
/// the storage is unshared (the builder phase) and fork the rows only if
/// someone else still holds them.
///
/// The engine is operator-at-a-time: every operator consumes and produces
/// relations, with [`crate::exec::execute`] handing out `Arc<Relation>`
/// so scans alias the catalog instead of copying it. Set semantics is
/// opt-in via [`Relation::sorted_set`] / `Plan::Distinct`, which is how
/// the `poss` operator and the test oracles normalize results.
#[derive(Debug)]
pub struct Relation {
    schema: Schema,
    rows: RowStore,
    /// Lazily built column-major image (see [`Relation::columns`]).
    /// Shared across clones and zero-copy renames; reset by the
    /// copy-on-write mutators. Not part of relation equality.
    columnar: OnceLock<Arc<ColumnarImage>>,
    /// Scratch spill cache for in-memory relations scanned under
    /// [`crate::catalog::StorageMode::Disk`] (see
    /// [`Relation::disk_image`]); written once, shared across clones,
    /// reset by the copy-on-write mutators. Not part of equality.
    disk: Mutex<Option<Arc<DiskImage>>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            columnar: self.columnar.clone(),
            disk: Mutex::new(self.disk.lock().expect("disk cache").clone()),
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows_arc() == other.rows_arc()
    }
}

impl Eq for Relation {}

impl Relation {
    /// Empty relation over a schema.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            rows: RowStore::Mem(Arc::new(Vec::new())),
            columnar: OnceLock::new(),
            disk: Mutex::new(None),
        }
    }

    /// The in-memory row storage, decoding a disk-backed relation's
    /// segments on first demand (cached for the relation's lifetime).
    fn rows_arc(&self) -> &Arc<Vec<Row>> {
        match &self.rows {
            RowStore::Mem(rows) => rows,
            RowStore::Disk { image, rows } => {
                // Infallible interface: a decode failure unwinds with the
                // Error payload and is converted back to `Err` at the pull
                // driver (see `fault::catch_pull`).
                rows.get_or_init(|| Arc::new(crate::fault::rethrow(image.decode_rows())))
            }
        }
    }

    /// Fork disk-backed storage into plain memory rows ahead of a
    /// mutation, and drop any scratch spill image (it describes the
    /// pre-mutation rows).
    fn make_mem(&mut self) {
        if let RowStore::Disk { .. } = self.rows {
            let rows = Arc::clone(self.rows_arc());
            self.rows = RowStore::Mem(rows);
        }
        *self.disk.lock().expect("disk cache") = None;
    }

    /// Relation from parts; every row must match the schema arity.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        for r in &rows {
            if r.len() != schema.arity() {
                return Err(Error::ArityMismatch {
                    expected: schema.arity(),
                    got: r.len(),
                });
            }
        }
        Ok(Relation {
            schema,
            rows: RowStore::Mem(Arc::new(rows)),
            columnar: OnceLock::new(),
            disk: Mutex::new(None),
        })
    }

    /// Relation over an opened on-disk segment store: the schema comes
    /// from the manifest's column names, and rows stay on disk until an
    /// operator genuinely demands the row form.
    pub fn from_disk_image(image: Arc<DiskImage>) -> Relation {
        let schema = Schema::new(image.names().iter().map(|n| ColRef::parse(n)).collect());
        Relation {
            schema,
            rows: RowStore::Disk {
                image,
                rows: OnceLock::new(),
            },
            columnar: OnceLock::new(),
            disk: Mutex::new(None),
        }
    }

    /// The on-disk segment image this relation is natively backed by
    /// (built by [`Relation::from_disk_image`]), if any.
    pub fn native_disk_image(&self) -> Option<Arc<DiskImage>> {
        match &self.rows {
            RowStore::Disk { image, .. } => Some(Arc::clone(image)),
            RowStore::Mem(_) => None,
        }
    }

    /// An on-disk segment image for this relation under disk storage:
    /// the native image when the relation was loaded from disk,
    /// otherwise a scratch spill streamed from the row store through a
    /// [`DiskTableWriter`] — written once into a temp directory that is
    /// deleted when the last reference drops, cached across scans (for
    /// one segment size at a time), reset by mutators.
    pub fn disk_image(&self, seg_rows: usize) -> Result<Arc<DiskImage>> {
        if let Some(img) = self.native_disk_image() {
            return Ok(img);
        }
        let mut cache = self.disk.lock().expect("disk cache");
        if let Some(img) = cache.as_ref() {
            if img.seg_rows() == seg_rows.max(1) {
                return Ok(Arc::clone(img));
            }
        }
        let names: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.to_string())
            .collect();
        // No fault injector: the scratch write is not an I/O edge of
        // any execution, so it draws no ticks from a fault schedule.
        let mut writer = DiskTableWriter::create_scratch("rel", names, seg_rows)?;
        for row in self.rows_arc().iter() {
            writer.push(row)?;
        }
        let img = writer.finish()?;
        *cache = Some(Arc::clone(&img));
        Ok(img)
    }

    /// Relation over `schema` sharing another relation's row storage
    /// (the zero-copy rename: arities must agree, no tuple is touched).
    /// The cached columnar image is shared too — a rename costs no
    /// re-conversion.
    pub fn shared_with_schema(&self, schema: Schema) -> Result<Self> {
        if schema.arity() != self.schema.arity() {
            return Err(Error::ArityMismatch {
                expected: self.schema.arity(),
                got: schema.arity(),
            });
        }
        Ok(Relation {
            schema,
            rows: self.rows.clone(),
            columnar: self.columnar.clone(),
            disk: Mutex::new(self.disk.lock().expect("disk cache").clone()),
        })
    }

    /// Convenience constructor from unqualified column names and value rows.
    pub fn from_rows<S: AsRef<str>>(
        names: impl IntoIterator<Item = S>,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<Self> {
        let schema = Schema::named(names);
        let rows = rows
            .into_iter()
            .map(|r| r.into_boxed_slice())
            .collect::<Vec<_>>();
        Relation::new(schema, rows)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count (served from the manifest for disk-backed relations —
    /// no row materialization).
    pub fn len(&self) -> usize {
        match &self.rows {
            RowStore::Mem(rows) => rows.len(),
            RowStore::Disk { image, .. } => image.len(),
        }
    }

    /// `true` if no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate rows (decodes a disk-backed relation's segments on first
    /// call; the batched executor reads segments directly instead).
    pub fn rows(&self) -> &[Row] {
        self.rows_arc()
    }

    /// The column-major image, built on first use and cached. Batched
    /// scans read this; the conversion is paid once per relation even
    /// across repeated queries (clones and renames share the cache).
    pub fn columns(&self) -> &ColumnarImage {
        self.columnar_arc()
    }

    /// The cached column-major image as a shared handle — what a
    /// pipeline breaker keeps when its buffered side is this relation.
    pub(crate) fn columns_arc(&self) -> Arc<ColumnarImage> {
        Arc::clone(self.columnar_arc())
    }

    fn columnar_arc(&self) -> &Arc<ColumnarImage> {
        self.columnar
            .get_or_init(|| Arc::new(ColumnarImage::build(&self.schema, self.rows_arc())))
    }

    /// `true` iff the columnar image has already been built (test hook
    /// for the conversion-caching guarantee).
    pub fn columns_cached(&self) -> bool {
        self.columnar.get().is_some()
    }

    /// `true` iff both relations alias the same row storage (used by the
    /// zero-copy tests; content equality is `==` / [`Relation::set_eq`]).
    pub fn shares_rows_with(&self, other: &Relation) -> bool {
        match (&self.rows, &other.rows) {
            (RowStore::Mem(a), RowStore::Mem(b)) => Arc::ptr_eq(a, b),
            (RowStore::Disk { image: a, .. }, RowStore::Disk { image: b, .. }) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// `true` iff this relation is the sole owner of its row storage, so
    /// consuming or mutating it will not copy tuples. A rename shares
    /// rows with its input even inside a freshly built `Relation`.
    pub fn owns_rows(&self) -> bool {
        match &self.rows {
            RowStore::Mem(rows) => Arc::strong_count(rows) == 1,
            // Disk-backed rows are a decoded view of the image; consuming
            // them never hands back the storage for free.
            RowStore::Disk { .. } => false,
        }
    }

    /// Append a row (arity-checked). Copy-on-write: forks the row storage
    /// if it is currently shared.
    pub fn push(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(Error::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.make_mem();
        let RowStore::Mem(rows) = &mut self.rows else {
            unreachable!("make_mem leaves memory storage");
        };
        Arc::make_mut(rows).push(row.into_boxed_slice());
        self.columnar = OnceLock::new(); // rows changed: images are stale
        Ok(())
    }

    /// Consume into rows. Free when the storage is unshared; otherwise
    /// clones the tuples (someone else keeps the original).
    pub fn into_rows(self) -> Vec<Row> {
        Self::store_into_rows(self.rows)
    }

    /// Consume into schema and rows (same sharing semantics as
    /// [`Relation::into_rows`]).
    pub fn into_parts(self) -> (Schema, Vec<Row>) {
        (self.schema, Self::store_into_rows(self.rows))
    }

    fn store_into_rows(store: RowStore) -> Vec<Row> {
        let rows = match store {
            RowStore::Mem(rows) => rows,
            RowStore::Disk { image, rows } => match rows.into_inner() {
                Some(rows) => rows,
                None => return crate::fault::rethrow(image.decode_rows()),
            },
        };
        Arc::try_unwrap(rows).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Replace the schema (e.g. after a rename); arities must agree. The
    /// row storage is reused as-is.
    pub fn with_schema(self, schema: Schema) -> Result<Self> {
        if schema.arity() != self.schema.arity() {
            return Err(Error::ArityMismatch {
                expected: self.schema.arity(),
                got: schema.arity(),
            });
        }
        Ok(Relation {
            schema,
            rows: self.rows,
            columnar: self.columnar,
            disk: self.disk,
        })
    }

    /// Sorted, deduplicated copy: the canonical *set* form used to compare
    /// query answers in tests and to implement set operations.
    pub fn sorted_set(&self) -> Relation {
        let mut rows = (**self.rows_arc()).clone();
        rows.sort();
        rows.dedup();
        Relation {
            schema: self.schema.clone(),
            rows: RowStore::Mem(Arc::new(rows)),
            columnar: OnceLock::new(),
            disk: Mutex::new(None),
        }
    }

    /// In-place sort + dedup (copy-on-write).
    pub fn dedup_in_place(&mut self) {
        self.make_mem();
        let RowStore::Mem(rows) = &mut self.rows else {
            unreachable!("make_mem leaves memory storage");
        };
        let rows = Arc::make_mut(rows);
        rows.sort();
        rows.dedup();
        self.columnar = OnceLock::new(); // rows changed: images are stale
    }

    /// Total payload size in bytes (Figure 9 accounting). Disk-backed
    /// relations answer from the manifest's statistics — the writer
    /// accumulated exactly this sum while streaming.
    pub fn size_bytes(&self) -> usize {
        match &self.rows {
            RowStore::Mem(rows) => rows
                .iter()
                .map(|r| r.iter().map(Value::size_bytes).sum::<usize>())
                .sum(),
            RowStore::Disk { image, .. } => image.stats().bytes,
        }
    }

    /// Two relations represent the same *set* of tuples (ignores order and
    /// multiplicity, requires identical arity).
    pub fn set_eq(&self, other: &Relation) -> bool {
        if self.schema.arity() != other.schema.arity() {
            return false;
        }
        self.sorted_set().rows() == other.sorted_set().rows()
    }
}

// ---------------------------------------------------------------------------
// Run serialization: the binary row codec spilled runs are written in
// ---------------------------------------------------------------------------

/// Value tags of the spill-run row codec (see [`encode_row`]). Kept
/// private to the codec: the on-disk format is an implementation detail
/// of one process's execution — runs never outlive their spill
/// directory, so there is no versioning concern.
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_STR: u8 = 4;

/// Serialize a row for a spill run: `u16` arity, then one tagged value
/// per column (integers little-endian, strings length-prefixed UTF-8).
/// Lossless: [`decode_row`] reproduces a row that compares `Eq`/`Ord`/
/// `Hash`-identical to the original (decoded strings are fresh
/// allocations — equality falls back from the interner's pointer check
/// to bytes, which is exactly what [`str_eq`] does).
pub fn encode_row(w: &mut impl io::Write, row: &Row) -> io::Result<()> {
    let arity = u16::try_from(row.len()).expect("spilled row arity fits u16");
    w.write_all(&arity.to_le_bytes())?;
    for v in row.iter() {
        match v {
            Value::Null => w.write_all(&[TAG_NULL])?,
            Value::Bool(false) => w.write_all(&[TAG_FALSE])?,
            Value::Bool(true) => w.write_all(&[TAG_TRUE])?,
            Value::Int(i) => {
                w.write_all(&[TAG_INT])?;
                w.write_all(&i.to_le_bytes())?;
            }
            Value::Str(s) => {
                w.write_all(&[TAG_STR])?;
                let len = u32::try_from(s.len()).expect("spilled string fits u32");
                w.write_all(&len.to_le_bytes())?;
                w.write_all(s.as_bytes())?;
            }
        }
    }
    Ok(())
}

/// Deserialize one [`encode_row`] row. `Ok(None)` at a clean
/// end-of-stream; an error on a truncated or corrupt record.
pub fn decode_row(r: &mut impl io::Read) -> io::Result<Option<Row>> {
    let mut arity = [0u8; 2];
    match r.read(&mut arity)? {
        0 => return Ok(None),
        1 => r.read_exact(&mut arity[1..])?,
        _ => {}
    }
    let arity = u16::from_le_bytes(arity) as usize;
    let mut row = Vec::with_capacity(arity);
    for _ in 0..arity {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        row.push(match tag[0] {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_INT => {
                let mut b = [0u8; 8];
                r.read_exact(&mut b)?;
                Value::Int(i64::from_le_bytes(b))
            }
            TAG_STR => {
                let mut b = [0u8; 4];
                r.read_exact(&mut b)?;
                let mut s = vec![0u8; u32::from_le_bytes(b) as usize];
                r.read_exact(&mut s)?;
                Value::Str(Arc::from(
                    String::from_utf8(s)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
                ))
            }
            t => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown spill value tag {t}"),
                ))
            }
        });
    }
    Ok(Some(row.into_boxed_slice()))
}

/// Approximate in-memory footprint of one row: heap payload plus the
/// per-value enum slots and the boxed-slice header. This is what breaker
/// buffers charge against the memory budget — an estimate, deliberately
/// on the simple side (allocator slack and hash-table overhead are not
/// modeled), but monotone in what the buffer actually holds.
pub fn row_footprint(row: &Row) -> usize {
    24 + row.iter().map(|v| 24 + v.size_bytes()).sum::<usize>()
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}]", self.schema)?;
        for r in self.rows().iter() {
            for (i, v) in r.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "{v}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r() -> Relation {
        Relation::from_rows(
            ["a", "b"],
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(2), Value::str("y")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn arity_checked() {
        assert!(Relation::from_rows(["a"], vec![vec![Value::Int(1), Value::Int(2)]]).is_err());
        let mut rel = Relation::empty(Schema::named(["a"]));
        assert!(rel.push(vec![Value::Int(1)]).is_ok());
        assert!(rel.push(vec![]).is_err());
    }

    #[test]
    fn sorted_set_dedups() {
        let s = r().sorted_set();
        assert_eq!(s.len(), 2);
        assert!(r().set_eq(&s));
    }

    #[test]
    fn set_eq_ignores_order() {
        let a = Relation::from_rows(["a"], vec![vec![Value::Int(2)], vec![Value::Int(1)]]).unwrap();
        let b = Relation::from_rows(
            ["a"],
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(2)],
            ],
        )
        .unwrap();
        assert!(a.set_eq(&b));
        let c = Relation::from_rows(["a"], vec![vec![Value::Int(3)]]).unwrap();
        assert!(!a.set_eq(&c));
    }

    #[test]
    fn size_bytes_counts_payload() {
        assert_eq!(r().size_bytes(), 3 * (8 + 1));
    }

    #[test]
    fn clone_shares_storage_until_written() {
        let a = r();
        let mut b = a.clone();
        assert!(a.shares_rows_with(&b));
        // Copy-on-write: pushing into the clone forks it...
        b.push(vec![Value::Int(9), Value::str("z")]).unwrap();
        assert!(!a.shares_rows_with(&b));
        // ...and the original is untouched.
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn shared_with_schema_is_zero_copy() {
        let a = r();
        let q = a.shared_with_schema(a.schema().qualify("t")).unwrap();
        assert!(a.shares_rows_with(&q));
        assert_eq!(q.schema().to_string(), "t.a, t.b");
        // Arity mismatch is rejected.
        assert!(a.shared_with_schema(Schema::named(["x"])).is_err());
    }

    #[test]
    fn columnar_image_is_typed_cached_and_invalidated() {
        let a = r();
        assert!(!a.columns_cached());
        let img = a.columns();
        assert_eq!(img.len(), 3);
        assert!(matches!(img.cols()[0], Column::Int(_)));
        assert!(matches!(img.cols()[1], Column::Str(_)));
        assert_eq!(img.cols()[0].get(2), Value::Int(2));
        assert!(a.columns_cached());
        // Renames and clones share the cached image.
        let renamed = a.shared_with_schema(a.schema().qualify("t")).unwrap();
        assert!(renamed.columns_cached());
        assert!(a.clone().columns_cached());
        // A CoW mutation invalidates the mutated relation's cache only.
        let mut b = a.clone();
        b.push(vec![Value::Int(9), Value::Null]).unwrap();
        assert!(!b.columns_cached());
        assert!(a.columns_cached());
        // The pushed Null keeps the string column typed: it rebuilds as
        // a nullable string column, not a Mixed fallback.
        let Column::StrN(_, mask) = &b.columns().cols()[1] else {
            panic!("null-padded string column compacts to StrN");
        };
        assert_eq!(mask.null_count(), 1);
        assert_eq!(b.columns().cols()[1].get(3), Value::Null);
    }

    #[test]
    fn column_hash_matches_value_hash() {
        use std::hash::{Hash, Hasher};
        let rel = Relation::from_rows(
            ["i", "s", "m"],
            vec![
                vec![Value::Int(7), Value::str("abc"), Value::Null],
                vec![Value::Int(-1), Value::str(""), Value::Bool(true)],
            ],
        )
        .unwrap();
        let img = rel.columns();
        for (ri, row) in rel.rows().iter().enumerate() {
            for (ci, v) in row.iter().enumerate() {
                let mut a = FxHasher::default();
                img.cols()[ci].hash_value_into(ri, &mut a);
                let mut b = FxHasher::default();
                v.hash(&mut b);
                assert_eq!(a.finish(), b.finish(), "digest mismatch at ({ri},{ci})");
            }
        }
    }

    #[test]
    fn column_equality_helpers() {
        let rel = Relation::from_rows(
            ["i", "s"],
            vec![
                vec![Value::Int(1), Value::interned("x")],
                vec![Value::Int(2), Value::interned("y")],
            ],
        )
        .unwrap();
        let img = rel.columns();
        assert!(img.cols()[0].value_eq(0, &Value::Int(1)));
        assert!(!img.cols()[0].value_eq(0, &Value::str("1")));
        assert!(img.cols()[1].value_eq(1, &Value::interned("y")));
        assert!(img.cols()[0].cross_eq(1, &img.cols()[0], 1));
        assert!(!img.cols()[0].cross_eq(0, &img.cols()[1], 0));
        assert_eq!(
            Column::from_values(vec![Value::Int(1), Value::Int(2)]).get(1),
            Value::Int(2)
        );
        // Null-padded homogeneous columns compact to the nullable typed
        // variants; genuinely mixed ones still fall back to Mixed.
        let c = Column::from_values(vec![Value::Int(1), Value::Null]);
        assert!(matches!(c, Column::IntN(..)));
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Null);
        assert!(c.value_eq(1, &Value::Null));
        assert!(!c.value_eq(0, &Value::Null));
        assert!(matches!(
            Column::from_values(vec![Value::Bool(true), Value::Int(1)]),
            Column::Mixed(_)
        ));
        assert!(matches!(
            Column::from_values(vec![Value::Null, Value::Null]),
            Column::Mixed(_)
        ));
    }

    #[test]
    fn nullable_columns_hash_and_compare_like_values() {
        use std::hash::{Hash, Hasher};
        let vals = vec![
            Value::Int(7),
            Value::Null,
            Value::Int(-3),
            Value::Null,
            Value::Int(7),
        ];
        let c = Column::from_values(vals.clone());
        assert!(matches!(c, Column::IntN(..)));
        let s = Column::from_values(vec![
            Value::interned("x"),
            Value::Null,
            Value::interned("y"),
        ]);
        assert!(matches!(s, Column::StrN(..)));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(c.get(i), *v);
            let mut a = FxHasher::default();
            c.hash_value_into(i, &mut a);
            let mut b = FxHasher::default();
            v.hash(&mut b);
            assert_eq!(a.finish(), b.finish(), "digest mismatch at {i}");
        }
        // Cross-column equality sees through the masks.
        assert!(c.cross_eq(1, &c, 3)); // Null == Null
        assert!(!c.cross_eq(0, &c, 1));
        assert!(c.cross_eq(0, &c, 4));
        assert!(c.cross_eq(0, &Column::Int(vec![9, 7]), 1));
        assert!(!c.cross_eq(1, &Column::Int(vec![9, 7]), 1));
        assert!(s.cross_eq(1, &c, 1)); // nulls equal across types
        assert!(s.value_eq(0, &Value::interned("x")));
        assert!(!s.value_eq(1, &Value::interned("x")));
        let mixed = Column::from_values(vec![Value::Bool(true), Value::Null]);
        assert!(mixed.cross_eq(1, &s, 1));
        assert!(!mixed.cross_eq(0, &s, 1));
    }

    #[test]
    fn into_rows_avoids_copy_when_unique() {
        let a = r();
        let ptr = a.rows()[0].as_ptr();
        let rows = a.into_rows();
        // Storage was unique: the same allocation comes back out.
        assert_eq!(rows[0].as_ptr(), ptr);
    }
}
