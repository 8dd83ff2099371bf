//! Column-major batches for the vectorized executor.
//!
//! A [`ColumnBatch`] is the unit of work flowing through the batched
//! cursor tree (`exec`): up to [`BATCH_SIZE`] logical rows held as one
//! [`BatchCol`] per output column. Columns are zero-copy wherever the
//! data already exists in a relation's cached [`ColumnarImage`]:
//!
//! * a scan emits [`BatchCol::Slice`] — a contiguous window of a shared
//!   column, the best case for vectorized kernels;
//! * a filter narrows a batch to a *selection vector* ([`BatchCol::View`]):
//!   the surviving row indices, shared (`Arc`) across every column that
//!   aliases the same source — no values move;
//! * a projection that only reorders columns is a pointer shuffle;
//! * a hash-join probe emits probe-side columns re-selected by match
//!   position and build-side columns as views of the build relation's
//!   image — both sides zero-copy;
//! * a disk-storage scan emits [`BatchCol::Shared`] — the same
//!   contiguous-window shape as a slice, but holding an `Arc` to the
//!   decoded segment column so eviction can't pull storage out from
//!   under an in-flight batch (narrowed to [`BatchCol::SharedView`]);
//! * only computed expressions ([`BatchCol::Owned`]) and literal padding
//!   ([`BatchCol::Const`]) own their values.
//!
//! Row-major materialization happens once, at the consumer.

use crate::relation::{Column, ColumnarImage, Row};
use crate::value::Value;
use std::sync::Arc;

/// Target number of logical rows per batch. Large enough to amortize
/// per-batch dispatch into tight per-column loops, small enough that a
/// batch's selection vectors and masks stay cache-resident.
pub const BATCH_SIZE: usize = 1024;

/// One column of a batch.
#[derive(Clone, Debug)]
pub enum BatchCol<'a> {
    /// Rows `[start, start + batch.len)` of a shared column.
    Slice { col: &'a Column, start: usize },
    /// Arbitrary row picks of a shared column; `sel[pos]` is the row
    /// index of logical position `pos`. The selection vector is `Arc`-
    /// shared across columns selected the same way.
    View { col: &'a Column, sel: Arc<[u32]> },
    /// Dense computed values: position `pos` is row `pos` (`Arc` so a
    /// projection can reference the same computed column twice without
    /// deep-copying it).
    Owned(Arc<Column>),
    /// Every row holds the same value (projection literals — the union
    /// translation's padding columns never materialize).
    Const(Value),
    /// Like [`BatchCol::Slice`], but over an owning handle: decoded
    /// storage segments aren't borrowed from a relation's image, so the
    /// batch keeps them alive itself (the buffer-pool slot may be
    /// evicted while the batch is in flight).
    Shared { col: Arc<Column>, start: usize },
    /// Like [`BatchCol::View`], over an owning handle — what a
    /// [`BatchCol::Shared`] column becomes under compact/gather.
    SharedView { col: Arc<Column>, sel: Arc<[u32]> },
}

impl BatchCol<'_> {
    /// The value at logical position `pos` (clones).
    #[inline]
    pub fn value(&self, pos: usize) -> Value {
        match self {
            BatchCol::Slice { col, start } => col.get(start + pos),
            BatchCol::View { col, sel } => col.get(sel[pos] as usize),
            BatchCol::Owned(col) => col.get(pos),
            BatchCol::Const(v) => v.clone(),
            BatchCol::Shared { col, start } => col.get(start + pos),
            BatchCol::SharedView { col, sel } => col.get(sel[pos] as usize),
        }
    }

    /// The backing column and row index for `pos`, when the column is a
    /// view of shared storage (`None` for owned/const data).
    #[inline]
    pub fn shared_at(&self, pos: usize) -> Option<(&Column, usize)> {
        match self {
            BatchCol::Slice { col, start } => Some((col, start + pos)),
            BatchCol::View { col, sel } => Some((col, sel[pos] as usize)),
            BatchCol::Shared { col, start } => Some((col, start + pos)),
            BatchCol::SharedView { col, sel } => Some((col, sel[pos] as usize)),
            BatchCol::Owned(_) | BatchCol::Const(_) => None,
        }
    }
}

/// A column-major batch of `len` logical rows.
#[derive(Debug)]
pub struct ColumnBatch<'a> {
    /// One entry per output column.
    pub cols: Vec<BatchCol<'a>>,
    /// Number of logical rows (kept explicitly: a projection may produce
    /// zero columns, and `Const` columns carry no length).
    pub len: usize,
}

impl<'a> ColumnBatch<'a> {
    /// A batch with no columns (zero-arity relations).
    pub fn empty(len: usize) -> ColumnBatch<'a> {
        ColumnBatch {
            cols: Vec::new(),
            len,
        }
    }

    /// A full-width contiguous window `[start, start + len)` over an image.
    pub fn slice_of(image: &'a ColumnarImage, start: usize, len: usize) -> ColumnBatch<'a> {
        ColumnBatch {
            cols: image
                .cols()
                .iter()
                .map(|col| BatchCol::Slice { col, start })
                .collect(),
            len,
        }
    }

    /// An owned batch materialized from row storage: one dense
    /// [`BatchCol::Owned`] column per attribute, compacted to typed
    /// storage where the values allow. This is how spilled operators
    /// re-enter the vectorized pipeline — rows merged back from disk
    /// runs become ordinary batches for downstream kernels.
    pub fn from_rows(rows: &[Row], arity: usize) -> ColumnBatch<'a> {
        let mut cols: Vec<Vec<Value>> = vec![Vec::with_capacity(rows.len()); arity];
        for row in rows {
            for (c, v) in cols.iter_mut().zip(row.iter()) {
                c.push(v.clone());
            }
        }
        ColumnBatch {
            cols: cols
                .into_iter()
                .map(|v| BatchCol::Owned(Arc::new(Column::from_values(v))))
                .collect(),
            len: rows.len(),
        }
    }

    /// Number of logical rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at (column, position) (clones).
    #[inline]
    pub fn value(&self, col: usize, pos: usize) -> Value {
        self.cols[col].value(pos)
    }

    /// Materialize logical row `pos`.
    pub fn row(&self, pos: usize) -> Row {
        self.cols
            .iter()
            .map(|c| c.value(pos))
            .collect::<Vec<_>>()
            .into_boxed_slice()
    }

    /// Keep only the positions where `keep` is true, preserving order.
    ///
    /// View columns narrow by rewriting their selection vectors — value
    /// storage is untouched — with the rewritten vector shared across
    /// all columns that aliased the same selection (or the same slice
    /// window). Owned columns compact their values.
    pub fn compact(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len);
        let kept: Vec<u32> = (0..self.len as u32).filter(|&p| keep[p as usize]).collect();
        self.gather(&kept);
    }

    /// Replace the batch's rows by the logical positions in `take`
    /// (repeats allowed — a join probe emits one entry per match).
    pub fn gather(&mut self, take: &[u32]) {
        // Selection vectors are rewritten once per *distinct* source
        // selection and shared: slices key by their window start, views
        // by their old selection's allocation.
        let mut by_start: Vec<(usize, Arc<[u32]>)> = Vec::new();
        let mut by_sel: Vec<(*const u32, Arc<[u32]>)> = Vec::new();
        for c in &mut self.cols {
            match c {
                BatchCol::Slice { col, start } => {
                    let start = *start;
                    let sel = match by_start.iter().find(|(k, _)| *k == start) {
                        Some((_, s)) => Arc::clone(s),
                        None => {
                            let s: Arc<[u32]> =
                                take.iter().map(|&p| (start + p as usize) as u32).collect();
                            by_start.push((start, Arc::clone(&s)));
                            s
                        }
                    };
                    *c = BatchCol::View { col, sel };
                }
                BatchCol::View { col, sel } => {
                    let old = Arc::clone(sel);
                    let key = Arc::as_ptr(&old) as *const u32;
                    let new = match by_sel.iter().find(|(k, _)| *k == key) {
                        Some((_, s)) => Arc::clone(s),
                        None => {
                            let s: Arc<[u32]> = take.iter().map(|&p| old[p as usize]).collect();
                            by_sel.push((key, Arc::clone(&s)));
                            s
                        }
                    };
                    *c = BatchCol::View { col, sel: new };
                }
                BatchCol::Shared { col, start } => {
                    // Same rewrite as a slice, but the result keeps the
                    // owning handle alive.
                    let start = *start;
                    let sel = match by_start.iter().find(|(k, _)| *k == start) {
                        Some((_, s)) => Arc::clone(s),
                        None => {
                            let s: Arc<[u32]> =
                                take.iter().map(|&p| (start + p as usize) as u32).collect();
                            by_start.push((start, Arc::clone(&s)));
                            s
                        }
                    };
                    *c = BatchCol::SharedView {
                        col: Arc::clone(col),
                        sel,
                    };
                }
                BatchCol::SharedView { col, sel } => {
                    let old = Arc::clone(sel);
                    let key = Arc::as_ptr(&old) as *const u32;
                    let new = match by_sel.iter().find(|(k, _)| *k == key) {
                        Some((_, s)) => Arc::clone(s),
                        None => {
                            let s: Arc<[u32]> = take.iter().map(|&p| old[p as usize]).collect();
                            by_sel.push((key, Arc::clone(&s)));
                            s
                        }
                    };
                    *c = BatchCol::SharedView {
                        col: Arc::clone(col),
                        sel: new,
                    };
                }
                BatchCol::Owned(col) => {
                    *col = Arc::new(gather_owned(col, take));
                }
                BatchCol::Const(_) => {}
            }
        }
        self.len = take.len();
    }
}

fn gather_owned(col: &Column, take: &[u32]) -> Column {
    match col {
        Column::Int(v) => Column::Int(take.iter().map(|&p| v[p as usize]).collect()),
        Column::Str(v) => Column::Str(take.iter().map(|&p| Arc::clone(&v[p as usize])).collect()),
        Column::IntN(v, m) => {
            let mut mask = crate::relation::NullMask::new(take.len());
            for (i, &p) in take.iter().enumerate() {
                if m.is_null(p as usize) {
                    mask.set_null(i);
                }
            }
            Column::IntN(take.iter().map(|&p| v[p as usize]).collect(), mask)
        }
        Column::StrN(v, m) => {
            let mut mask = crate::relation::NullMask::new(take.len());
            for (i, &p) in take.iter().enumerate() {
                if m.is_null(p as usize) {
                    mask.set_null(i);
                }
            }
            Column::StrN(
                take.iter().map(|&p| Arc::clone(&v[p as usize])).collect(),
                mask,
            )
        }
        Column::Mixed(v) => Column::Mixed(take.iter().map(|&p| v[p as usize].clone()).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    fn image_rel() -> Relation {
        Relation::from_rows(
            ["a", "s"],
            (0..6)
                .map(|i| vec![Value::Int(i), Value::str(format!("v{i}"))])
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn slice_view_and_values() {
        let rel = image_rel();
        let b = ColumnBatch::slice_of(rel.columns(), 2, 3);
        assert_eq!(b.len(), 3);
        assert_eq!(b.value(0, 0), Value::Int(2));
        assert_eq!(b.value(1, 2), Value::str("v4"));
        assert_eq!(b.row(1).as_ref(), &[Value::Int(3), Value::str("v3")]);
    }

    #[test]
    fn compact_shares_rewritten_selections() {
        let rel = image_rel();
        let mut b = ColumnBatch::slice_of(rel.columns(), 0, 6);
        b.compact(&[true, false, true, false, false, true]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.value(0, 1), Value::Int(2));
        assert_eq!(b.value(1, 2), Value::str("v5"));
        // Both columns came from the same slice window: they must share
        // one rewritten selection vector.
        let (BatchCol::View { sel: s0, .. }, BatchCol::View { sel: s1, .. }) =
            (&b.cols[0], &b.cols[1])
        else {
            panic!("compacted slices become views");
        };
        assert!(Arc::ptr_eq(s0, s1));
        // Compacting again rewrites the shared vector once more.
        b.compact(&[false, true, true]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.value(0, 0), Value::Int(2));
        assert_eq!(b.value(0, 1), Value::Int(5));
    }

    #[test]
    fn gather_repeats_and_owned_and_const() {
        let rel = image_rel();
        let mut b = ColumnBatch::slice_of(rel.columns(), 0, 4);
        b.cols
            .push(BatchCol::Owned(Arc::new(Column::Int(vec![10, 11, 12, 13]))));
        b.cols.push(BatchCol::Const(Value::str("pad")));
        b.gather(&[3, 0, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.value(0, 0), Value::Int(3));
        assert_eq!(b.value(0, 1), Value::Int(0));
        assert_eq!(b.value(2, 0), Value::Int(13));
        assert_eq!(b.value(2, 2), Value::Int(13));
        assert_eq!(b.value(3, 1), Value::str("pad"));
    }

    #[test]
    fn shared_columns_survive_gather_and_keep_storage_alive() {
        let decoded = Arc::new(Column::Int(vec![7, 8, 9, 10]));
        let strs = Arc::new(Column::Str(
            (0..4)
                .map(|i| crate::value::intern(&format!("s{i}")))
                .collect(),
        ));
        let mut b = ColumnBatch {
            cols: vec![
                BatchCol::Shared {
                    col: Arc::clone(&decoded),
                    start: 1,
                },
                BatchCol::Shared {
                    col: Arc::clone(&strs),
                    start: 1,
                },
            ],
            len: 3,
        };
        assert_eq!(b.value(0, 0), Value::Int(8));
        let (shared_col, shared_idx) = b.cols[0].shared_at(2).expect("shared storage");
        assert!(std::ptr::eq(shared_col, decoded.as_ref()));
        assert_eq!(shared_idx, 3);
        b.gather(&[2, 0, 2]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.value(0, 0), Value::Int(10));
        assert_eq!(b.value(1, 1), Value::str("s1"));
        // Both shared columns windowed the same start: the rewritten
        // selection is shared, and the columns stay owning views.
        let (BatchCol::SharedView { sel: s0, .. }, BatchCol::SharedView { sel: s1, col }) =
            (&b.cols[0], &b.cols[1])
        else {
            panic!("gathered shared columns become shared views");
        };
        assert!(Arc::ptr_eq(s0, s1));
        assert!(Arc::ptr_eq(col, &strs));
        // Dropping the external handles leaves the batch self-sufficient.
        drop(decoded);
        drop(strs);
        b.gather(&[1]);
        assert_eq!(b.value(0, 0), Value::Int(8));
    }

    #[test]
    fn gather_owned_carries_null_masks() {
        let int = Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        let strs = Column::from_values(vec![Value::str("a"), Value::str("b"), Value::Null]);
        let mut b = ColumnBatch {
            cols: vec![
                BatchCol::Owned(Arc::new(int)),
                BatchCol::Owned(Arc::new(strs)),
            ],
            len: 3,
        };
        b.gather(&[2, 1, 1, 0]);
        assert_eq!(b.len(), 4);
        assert_eq!(b.value(0, 0), Value::Int(3));
        assert_eq!(b.value(0, 1), Value::Null);
        assert_eq!(b.value(0, 3), Value::Int(1));
        assert_eq!(b.value(1, 0), Value::Null);
        assert_eq!(b.value(1, 2), Value::str("b"));
    }

    #[test]
    fn empty_batch_has_rows_without_columns() {
        let b = ColumnBatch::empty(5);
        assert_eq!(b.len(), 5);
        assert_eq!(b.row(3).len(), 0);
    }
}
