//! Compressed column segments with zone maps — the storage layer under
//! the executor.
//!
//! A [`SegmentedImage`] splits each relation column into fixed-size
//! segments (default 64Ki rows, `RELALG_SEGMENT_ROWS`) and encodes each
//! segment independently:
//!
//! * integer segments as **frame-of-reference + bit-packing**
//!   ([`SegEncoding::ForInt`]): deltas from the segment minimum, packed
//!   at the minimal bit width;
//! * string segments as **dictionary codes** ([`SegEncoding::DictStr`])
//!   over the segment's distinct `Arc<str>` values (which ride the
//!   global interner, so the dictionary itself is shared storage);
//! * anything else — and dictionaries not worth their overhead — falls
//!   back to the plain column representation ([`SegEncoding::Plain`]).
//!
//! Every (column, segment) pair carries a [`ZoneMap`] (min/max, null
//! count, exact per-segment NDV). Scans consult zone maps to skip whole
//! segments for sargable predicates before decoding anything; the same
//! statistics fold into [`TableStats`] so the optimizer's estimates
//! sharpen for free. Decoding a segment reproduces a [`Column`] whose
//! values hash and compare identically to the plain image's — segmented
//! execution is byte-for-byte the same as plain execution.
//!
//! [`SegmentedBuilder`] streams rows straight into segments (loaders use
//! it so the plain columnar image never needs to exist) and computes the
//! relation's [`TableStats`] as a byproduct of the same pass.

use crate::fxhash::{FxHashMap, FxHashSet, FxHasher};
use crate::relation::{Column, NullMask, Row};
use crate::stats::TableStats;
use crate::value::Value;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// Per-(column, segment) summary statistics: the min/max bounds under
/// the total [`Value`] order (`Null < Bool < Int < Str` — a segment
/// containing nulls has `min == Null`), the null count, and the exact
/// number of distinct values in the segment.
#[derive(Clone, Debug)]
pub struct ZoneMap {
    /// Smallest value in the segment (under the total `Value` order).
    pub min: Value,
    /// Largest value in the segment.
    pub max: Value,
    /// Number of nulls in the segment.
    pub null_count: usize,
    /// Distinct values in the segment (exact; segments are small).
    pub ndv: usize,
}

impl ZoneMap {
    /// Summarize a non-empty slice of values.
    fn of(vals: &[Value]) -> ZoneMap {
        debug_assert!(!vals.is_empty());
        let mut min = &vals[0];
        let mut max = &vals[0];
        let mut null_count = 0usize;
        let mut distinct: FxHashSet<u64> = FxHashSet::default();
        for v in vals {
            if *v < *min {
                min = v;
            }
            if *v > *max {
                max = v;
            }
            if v.is_null() {
                null_count += 1;
            }
            distinct.insert(value_digest(v));
        }
        ZoneMap {
            min: min.clone(),
            max: max.clone(),
            null_count,
            ndv: distinct.len(),
        }
    }

    /// Can *any* row of a segment with these bounds satisfy
    /// `row_value op lit`? `false` means the whole segment is provably
    /// predicate-free and a scan may skip it without decoding. The test
    /// is conservative under the total cross-type `Value` order, so it
    /// stays sound for null-padded and mixed segments (a segment holding
    /// nulls has `min == Null < Int`, which keeps e.g. `< k` segments
    /// alive — the filter above the scan still decides per row).
    pub fn may_match(&self, op: crate::expr::CmpOp, lit: &Value) -> bool {
        use crate::expr::CmpOp;
        match op {
            CmpOp::Eq => self.min <= *lit && *lit <= self.max,
            CmpOp::Ne => !(self.min == self.max && self.min == *lit),
            CmpOp::Lt => self.min < *lit,
            CmpOp::Le => self.min <= *lit,
            CmpOp::Gt => self.max > *lit,
            CmpOp::Ge => self.max >= *lit,
        }
    }
}

/// The physical encoding of one column segment.
#[derive(Clone, Debug)]
pub enum SegEncoding {
    /// Frame-of-reference + bit-packed integers: `value = base + delta`,
    /// deltas packed at `width` bits (0 bits when the segment is
    /// constant). Null rows carry a zero delta and are flagged in
    /// `nulls`.
    ForInt {
        /// The frame of reference (the segment's smallest integer).
        base: i64,
        /// Bits per packed delta.
        width: u8,
        /// Little-endian bit-packed deltas.
        packed: Arc<[u64]>,
        /// Null bitmap, when the segment has nulls.
        nulls: Option<NullMask>,
    },
    /// Dictionary-coded strings: `value = dict[code]`, codes packed at
    /// `width` bits. The dictionary entries are the segment's distinct
    /// interned `Arc<str>`s in first-occurrence order.
    DictStr {
        /// Distinct values, indexed by code.
        dict: Arc<[Arc<str>]>,
        /// Bits per packed code.
        width: u8,
        /// Little-endian bit-packed codes.
        packed: Arc<[u64]>,
        /// Null bitmap, when the segment has nulls (null rows code 0).
        nulls: Option<NullMask>,
    },
    /// Transparent fallback: the plain column (mixed-type segments, or
    /// string segments whose dictionary would not pay for itself).
    Plain(Arc<Column>),
}

/// One encoded column segment plus its zone map.
#[derive(Clone, Debug)]
pub struct ColumnSegment {
    rows: usize,
    zone: ZoneMap,
    enc: SegEncoding,
}

impl ColumnSegment {
    /// Encode a non-empty run of values.
    pub fn encode(vals: Vec<Value>) -> ColumnSegment {
        let rows = vals.len();
        let zone = ZoneMap::of(&vals);
        let ints = vals.iter().filter(|v| matches!(v, Value::Int(_))).count();
        let strs = vals.iter().filter(|v| matches!(v, Value::Str(_))).count();
        if ints > 0 && ints + zone.null_count == rows {
            return ColumnSegment {
                rows,
                enc: encode_for_int(&vals),
                zone,
            };
        }
        if strs > 0 && strs + zone.null_count == rows {
            if let Some(enc) = encode_dict_str(&vals, &zone) {
                return ColumnSegment { rows, zone, enc };
            }
        }
        ColumnSegment {
            rows,
            zone,
            enc: SegEncoding::Plain(Arc::new(Column::from_values(vals))),
        }
    }

    /// Reassemble a segment from its parts — the disk codec's
    /// deserialization entry point. The caller is responsible for the
    /// parts being mutually consistent (the on-disk format stores the
    /// zone map next to the encoding it summarizes).
    pub(crate) fn from_parts(rows: usize, zone: ZoneMap, enc: SegEncoding) -> ColumnSegment {
        ColumnSegment { rows, zone, enc }
    }

    /// Number of rows in the segment.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The segment's zone map.
    pub fn zone(&self) -> &ZoneMap {
        &self.zone
    }

    /// The segment's encoding.
    pub fn encoding(&self) -> &SegEncoding {
        &self.enc
    }

    /// Decode back into a column. Dictionary segments decode into
    /// `Arc<str>` clones of the dictionary entries (an `Arc` bump per
    /// row — no string bytes are copied or re-materialized), so the
    /// result hashes and compares exactly like the plain image.
    pub fn decode(&self) -> Arc<Column> {
        match &self.enc {
            SegEncoding::ForInt {
                base,
                width,
                packed,
                nulls,
            } => {
                let vals: Vec<i64> = (0..self.rows)
                    .map(|i| (*base as i128 + unpack_at(packed, *width, i) as i128) as i64)
                    .collect();
                Arc::new(match nulls {
                    Some(mask) => Column::IntN(vals, mask.clone()),
                    None => Column::Int(vals),
                })
            }
            SegEncoding::DictStr {
                dict,
                width,
                packed,
                nulls,
            } => {
                let vals: Vec<Arc<str>> = (0..self.rows)
                    .map(|i| Arc::clone(&dict[unpack_at(packed, *width, i) as usize]))
                    .collect();
                Arc::new(match nulls {
                    Some(mask) => Column::StrN(vals, mask.clone()),
                    None => Column::Str(vals),
                })
            }
            SegEncoding::Plain(col) => Arc::clone(col),
        }
    }

    /// Approximate encoded footprint in bytes (packed words, dictionary
    /// payloads, plain fallbacks).
    pub fn encoded_bytes(&self) -> usize {
        match &self.enc {
            SegEncoding::ForInt { packed, .. } => 16 + packed.len() * 8,
            SegEncoding::DictStr { dict, packed, .. } => {
                packed.len() * 8 + dict.iter().map(|s| s.len()).sum::<usize>()
            }
            SegEncoding::Plain(col) => decoded_col_bytes(col),
        }
    }

    /// Approximate decoded footprint in bytes (what a scan pays to hold
    /// this segment resident — the [`crate::exec::ExecStats`]
    /// `decoded_bytes` unit).
    pub fn decoded_bytes(&self) -> usize {
        match &self.enc {
            SegEncoding::ForInt { .. } => self.rows * 8,
            SegEncoding::DictStr { .. } => self.rows * 16,
            SegEncoding::Plain(_) => 0, // shared, nothing new materializes
        }
    }
}

/// Approximate resident bytes of a decoded column.
fn decoded_col_bytes(col: &Column) -> usize {
    match col {
        Column::Int(v) => v.len() * 8,
        Column::IntN(v, _) => v.len() * 8 + v.len() / 8,
        Column::Str(v) => v.len() * 16,
        Column::StrN(v, _) => v.len() * 16 + v.len() / 8,
        Column::Mixed(v) => v.len() * 24,
    }
}

fn encode_for_int(vals: &[Value]) -> SegEncoding {
    let mut base = i64::MAX;
    let mut top = i64::MIN;
    for v in vals {
        if let Value::Int(x) = v {
            base = base.min(*x);
            top = top.max(*x);
        }
    }
    // Deltas in i128 so `top - base` cannot overflow (e.g. i64::MIN..MAX).
    let max_delta = (top as i128 - base as i128) as u128;
    let width = bits_for(max_delta as u64);
    let mut nulls = None;
    let deltas: Vec<u64> = vals
        .iter()
        .enumerate()
        .map(|(i, v)| match v {
            Value::Int(x) => (*x as i128 - base as i128) as u64,
            _ => {
                nulls
                    .get_or_insert_with(|| NullMask::new(vals.len()))
                    .set_null(i);
                0
            }
        })
        .collect();
    SegEncoding::ForInt {
        base,
        width,
        packed: pack(&deltas, width).into(),
        nulls,
    }
}

/// Dictionary-encode a string segment, or `None` when the dictionary
/// would not pay for itself (more than half the rows are distinct).
fn encode_dict_str(vals: &[Value], zone: &ZoneMap) -> Option<SegEncoding> {
    let mut codes_by_str: FxHashMap<Arc<str>, u64> = FxHashMap::default();
    let mut dict: Vec<Arc<str>> = Vec::new();
    let mut nulls = None;
    let mut codes: Vec<u64> = Vec::with_capacity(vals.len());
    for (i, v) in vals.iter().enumerate() {
        match v {
            Value::Str(s) => {
                let code = *codes_by_str.entry(Arc::clone(s)).or_insert_with(|| {
                    dict.push(Arc::clone(s));
                    dict.len() as u64 - 1
                });
                codes.push(code);
            }
            _ => {
                nulls
                    .get_or_insert_with(|| NullMask::new(vals.len()))
                    .set_null(i);
                codes.push(0);
            }
        }
    }
    if dict.len() * 2 > vals.len() {
        return None; // mostly-unique strings: plain is cheaper
    }
    debug_assert_eq!(dict.len(), zone.ndv - usize::from(zone.null_count > 0));
    let width = bits_for(dict.len() as u64 - 1);
    Some(SegEncoding::DictStr {
        dict: dict.into(),
        width,
        packed: pack(&codes, width).into(),
        nulls,
    })
}

/// Minimal bit width able to represent `max` (0 for a constant run).
fn bits_for(max: u64) -> u8 {
    if max == 0 {
        0
    } else {
        (64 - max.leading_zeros()) as u8
    }
}

/// Pack `vals` (each `< 2^width`) at `width` bits apiece, little-endian
/// within and across `u64` words.
fn pack(vals: &[u64], width: u8) -> Vec<u64> {
    if width == 0 {
        return Vec::new();
    }
    let w = width as usize;
    let mut out = vec![0u64; (vals.len() * w).div_ceil(64)];
    let mut bit = 0usize;
    for &v in vals {
        let (word, off) = (bit / 64, bit % 64);
        out[word] |= v << off;
        if off + w > 64 {
            // Straddles a word boundary; `off > 0` here, so the shift
            // below is always in range.
            out[word + 1] |= v >> (64 - off);
        }
        bit += w;
    }
    out
}

/// Read the `idx`-th `width`-bit value out of a [`pack`]ed buffer.
#[inline]
fn unpack_at(packed: &[u64], width: u8, idx: usize) -> u64 {
    if width == 0 {
        return 0;
    }
    let w = width as usize;
    let bit = idx * w;
    let (word, off) = (bit / 64, bit % 64);
    let mut v = packed[word] >> off;
    if off + w > 64 {
        v |= packed[word + 1] << (64 - off);
    }
    if w < 64 {
        v &= (1u64 << w) - 1;
    }
    v
}

/// One decoded segment: the columns covering rows
/// `[start, start + len)`, `Arc`-shared so batch columns can outlive the
/// provider's cache slot that produced them.
#[derive(Clone, Debug)]
pub struct DecodedSegment {
    /// First row covered.
    pub start: usize,
    /// Rows covered.
    pub len: usize,
    /// One decoded column per schema column.
    pub cols: Vec<Arc<Column>>,
    /// Approximate bytes materialized by decoding this segment.
    pub bytes: usize,
}

/// The compressed column-segment image of a relation: `cols[c][s]` is
/// segment `s` of column `c`, every column split at the same fixed
/// `seg_rows` boundary (the last segment may be short). Carries the
/// [`TableStats`] computed during the build, so registering a relation
/// in segmented storage never touches the plain columnar image.
#[derive(Debug)]
pub struct SegmentedImage {
    seg_rows: usize,
    len: usize,
    cols: Vec<Vec<ColumnSegment>>,
    stats: TableStats,
}

impl SegmentedImage {
    /// Build from row storage (one streaming pass).
    pub fn build(arity: usize, rows: &[Row], seg_rows: usize) -> SegmentedImage {
        let mut b = SegmentedBuilder::new(arity, seg_rows);
        for r in rows {
            b.push(r);
        }
        b.finish()
    }

    /// Rows per segment.
    pub fn seg_rows(&self) -> usize {
        self.seg_rows
    }

    /// Total rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of segments.
    pub fn seg_count(&self) -> usize {
        self.len.div_ceil(self.seg_rows)
    }

    /// The row range `[start, end)` of segment `seg`.
    pub fn seg_bounds(&self, seg: usize) -> Range<usize> {
        let start = (seg * self.seg_rows).min(self.len);
        start..(start + self.seg_rows).min(self.len)
    }

    /// The zone map of (column `col`, segment `seg`).
    pub fn zone(&self, col: usize, seg: usize) -> &ZoneMap {
        self.cols[col][seg].zone()
    }

    /// The encoded segments of column `col`.
    pub fn col_segments(&self, col: usize) -> &[ColumnSegment] {
        &self.cols[col]
    }

    /// Decode segment `seg` across all columns.
    pub fn decode(&self, seg: usize) -> DecodedSegment {
        let bounds = self.seg_bounds(seg);
        DecodedSegment {
            start: bounds.start,
            len: bounds.len(),
            cols: self.cols.iter().map(|c| c[seg].decode()).collect(),
            bytes: self.cols.iter().map(|c| c[seg].decoded_bytes()).sum(),
        }
    }

    /// The table statistics computed while building the image.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Approximate encoded footprint in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.cols
            .iter()
            .flat_map(|c| c.iter())
            .map(ColumnSegment::encoded_bytes)
            .sum()
    }
}

/// Streaming builder: push rows, get a [`SegmentedImage`]. Each full
/// `seg_rows` chunk is encoded and released as it completes, and the
/// global statistics ([`TableStats`]: per-column and adjacent-pair NDV
/// digest sets, payload bytes, min/max folded from the zone maps) are
/// accumulated in the same pass — loaders stream generation straight
/// into segments without ever materializing a whole-relation column.
pub struct SegmentedBuilder {
    seg_rows: usize,
    cur: Vec<Vec<Value>>,
    in_cur: usize,
    cols: Vec<Vec<ColumnSegment>>,
    len: usize,
    bytes: usize,
    col_digests: Vec<FxHashSet<u64>>,
    pair_digests: Vec<FxHashSet<u64>>,
}

impl SegmentedBuilder {
    /// Builder over `arity` columns at `seg_rows` rows per segment
    /// (floored at 1).
    pub fn new(arity: usize, seg_rows: usize) -> SegmentedBuilder {
        SegmentedBuilder {
            seg_rows: seg_rows.max(1),
            cur: vec![Vec::new(); arity],
            in_cur: 0,
            cols: vec![Vec::new(); arity],
            len: 0,
            bytes: 0,
            col_digests: vec![FxHashSet::default(); arity],
            pair_digests: vec![FxHashSet::default(); arity.saturating_sub(1)],
        }
    }

    /// Append one row (must match the builder's arity).
    pub fn push(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.cur.len());
        for (c, v) in row.iter().enumerate() {
            self.bytes += v.size_bytes();
            self.col_digests[c].insert(value_digest(v));
            self.cur[c].push(v.clone());
        }
        for c in 0..row.len().saturating_sub(1) {
            let mut h = FxHasher::default();
            row[c].hash(&mut h);
            row[c + 1].hash(&mut h);
            self.pair_digests[c].insert(h.finish());
        }
        self.in_cur += 1;
        self.len += 1;
        if self.in_cur == self.seg_rows {
            self.flush();
        }
    }

    fn flush(&mut self) {
        for (col, seg) in self.cols.iter_mut().zip(&mut self.cur) {
            col.push(ColumnSegment::encode(std::mem::take(seg)));
        }
        self.in_cur = 0;
    }

    /// Finish: encode the trailing partial segment and assemble the
    /// image with its statistics.
    pub fn finish(mut self) -> SegmentedImage {
        if self.in_cur > 0 {
            self.flush();
        }
        let minmax = self
            .cols
            .iter()
            .map(|segs| {
                segs.iter().map(ColumnSegment::zone).fold(None, |acc, z| {
                    Some(match acc {
                        None => (z.min.clone(), z.max.clone()),
                        Some((lo, hi)) => (
                            if z.min < lo { z.min.clone() } else { lo },
                            if z.max > hi { z.max.clone() } else { hi },
                        ),
                    })
                })
            })
            .collect();
        let stats = TableStats {
            rows: self.len,
            ndv: self.col_digests.iter().map(|s| s.len().max(1)).collect(),
            pair_ndv: self.pair_digests.iter().map(|s| s.len().max(1)).collect(),
            bytes: self.bytes,
            minmax,
        };
        SegmentedImage {
            seg_rows: self.seg_rows,
            len: self.len,
            cols: self.cols,
            stats,
        }
    }
}

/// 64-bit FxHash digest of a value (the NDV approximation unit). Shared
/// with the disk writer's streaming statistics pass.
pub(crate) fn value_digest(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::value::intern;

    fn roundtrip(vals: Vec<Value>) -> (ColumnSegment, Arc<Column>) {
        let seg = ColumnSegment::encode(vals);
        let col = seg.decode();
        (seg, col)
    }

    #[test]
    fn for_int_roundtrips_and_packs_tight() {
        let vals: Vec<Value> = (0..100).map(|i| Value::Int(1000 + i % 7)).collect();
        let (seg, col) = roundtrip(vals.clone());
        let SegEncoding::ForInt { base, width, .. } = seg.encoding() else {
            panic!("int run encodes as FOR");
        };
        assert_eq!(*base, 1000);
        assert_eq!(*width, 3); // deltas 0..=6
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(col.get(i), *v);
        }
        assert_eq!(seg.zone().min, Value::Int(1000));
        assert_eq!(seg.zone().max, Value::Int(1006));
        assert_eq!(seg.zone().ndv, 7);
        assert_eq!(seg.zone().null_count, 0);
    }

    #[test]
    fn for_int_handles_extreme_and_constant_runs() {
        // Full i64 range: the delta spans 2^64 - 1 and needs 64 bits.
        let vals = vec![
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(0),
            Value::Int(-1),
        ];
        let (seg, col) = roundtrip(vals.clone());
        let SegEncoding::ForInt { width, .. } = seg.encoding() else {
            panic!("FOR");
        };
        assert_eq!(*width, 64);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(col.get(i), *v);
        }
        // A constant run packs to zero payload bits.
        let (seg, col) = roundtrip(vec![Value::Int(42); 10]);
        let SegEncoding::ForInt { width, packed, .. } = seg.encoding() else {
            panic!("FOR");
        };
        assert_eq!(*width, 0);
        assert!(packed.is_empty());
        assert_eq!(col.get(9), Value::Int(42));
    }

    #[test]
    fn for_int_carries_nulls_in_the_mask() {
        let vals = vec![
            Value::Int(5),
            Value::Null,
            Value::Int(3),
            Value::Null,
            Value::Int(9),
        ];
        let (seg, col) = roundtrip(vals.clone());
        assert_eq!(seg.zone().null_count, 2);
        assert_eq!(seg.zone().min, Value::Null); // Null < Int
        assert_eq!(seg.zone().max, Value::Int(9));
        assert!(matches!(col.as_ref(), Column::IntN(..)));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(col.get(i), *v);
        }
    }

    #[test]
    fn dict_str_rides_the_interner() {
        let vals: Vec<Value> = (0..60)
            .map(|i| Value::Str(intern(["AIR", "RAIL", "TRUCK"][i % 3])))
            .collect();
        let (seg, col) = roundtrip(vals.clone());
        let SegEncoding::DictStr { dict, width, .. } = seg.encoding() else {
            panic!("low-cardinality strings encode as a dictionary");
        };
        assert_eq!(dict.len(), 3);
        assert_eq!(*width, 2);
        // Decoded values share the dictionary's interned allocations.
        let Column::Str(decoded) = col.as_ref() else {
            panic!("typed decode");
        };
        assert!(Arc::ptr_eq(&decoded[0], &intern("AIR")));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(col.get(i), *v);
        }
        assert_eq!(seg.zone().ndv, 3);
    }

    #[test]
    fn unique_strings_fall_back_to_plain() {
        let vals: Vec<Value> = (0..20).map(|i| Value::str(format!("key-{i}"))).collect();
        let (seg, col) = roundtrip(vals.clone());
        assert!(matches!(seg.encoding(), SegEncoding::Plain(_)));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(col.get(i), *v);
        }
    }

    #[test]
    fn mixed_segments_fall_back_to_plain() {
        let vals = vec![Value::Bool(true), Value::Int(1), Value::Null];
        let (seg, col) = roundtrip(vals.clone());
        assert!(matches!(seg.encoding(), SegEncoding::Plain(_)));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(col.get(i), *v);
        }
        assert_eq!(seg.zone().min, Value::Null);
        assert_eq!(seg.zone().max, Value::Int(1));
    }

    #[test]
    fn nullable_dict_strings_roundtrip() {
        let vals = vec![
            Value::Str(intern("x")),
            Value::Null,
            Value::Str(intern("x")),
            Value::Str(intern("y")),
        ];
        let (seg, col) = roundtrip(vals.clone());
        assert!(matches!(seg.encoding(), SegEncoding::DictStr { .. }));
        assert!(matches!(col.as_ref(), Column::StrN(..)));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(col.get(i), *v);
        }
    }

    #[test]
    fn bit_packing_straddles_word_boundaries() {
        // Width 5 over 40 values crosses several u64 boundaries.
        let vals: Vec<u64> = (0..40).map(|i| (i * 7) % 32).collect();
        let packed = pack(&vals, 5);
        assert_eq!(packed.len(), (40 * 5usize).div_ceil(64));
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(unpack_at(&packed, 5, i), v, "index {i}");
        }
        // Width 64 is the identity.
        let vals = vec![u64::MAX, 0, 1, u64::MAX - 1];
        let packed = pack(&vals, 64);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(unpack_at(&packed, 64, i), v);
        }
    }

    #[test]
    fn zone_maps_prune_exactly_the_impossible_ranges() {
        let z = ZoneMap {
            min: Value::Int(10),
            max: Value::Int(20),
            null_count: 0,
            ndv: 11,
        };
        assert!(z.may_match(CmpOp::Eq, &Value::Int(15)));
        assert!(!z.may_match(CmpOp::Eq, &Value::Int(9)));
        assert!(!z.may_match(CmpOp::Eq, &Value::Int(21)));
        assert!(!z.may_match(CmpOp::Lt, &Value::Int(10)));
        assert!(z.may_match(CmpOp::Lt, &Value::Int(11)));
        assert!(z.may_match(CmpOp::Le, &Value::Int(10)));
        assert!(!z.may_match(CmpOp::Le, &Value::Int(9)));
        assert!(!z.may_match(CmpOp::Gt, &Value::Int(20)));
        assert!(z.may_match(CmpOp::Gt, &Value::Int(19)));
        assert!(z.may_match(CmpOp::Ge, &Value::Int(20)));
        assert!(!z.may_match(CmpOp::Ge, &Value::Int(21)));
        assert!(z.may_match(CmpOp::Ne, &Value::Int(15)));
        // Ne only prunes constant segments equal to the literal.
        let konst = ZoneMap {
            min: Value::Int(5),
            max: Value::Int(5),
            null_count: 0,
            ndv: 1,
        };
        assert!(!konst.may_match(CmpOp::Ne, &Value::Int(5)));
        assert!(konst.may_match(CmpOp::Ne, &Value::Int(6)));
        // A null-bearing segment has min == Null < any Int: `< k` never
        // prunes it (the nulls might... not match, but pruning must be
        // sound, and the filter above decides).
        let padded = ZoneMap {
            min: Value::Null,
            max: Value::Int(3),
            null_count: 1,
            ndv: 2,
        };
        assert!(padded.may_match(CmpOp::Lt, &Value::Int(0)));
        // Cross-type: strings sort above ints, so `> "a"` prunes an
        // all-int segment.
        assert!(!z.may_match(CmpOp::Gt, &Value::str("a")));
        assert!(z.may_match(CmpOp::Lt, &Value::str("a")));
    }

    #[test]
    fn segmented_image_partitions_rows_and_folds_stats() {
        let rows: Vec<Row> = (0..25)
            .map(|i| {
                vec![
                    Value::Int(i % 10),
                    Value::Str(intern(["red", "green"][i as usize % 2])),
                ]
                .into_boxed_slice()
            })
            .collect();
        let img = SegmentedImage::build(2, &rows, 8);
        assert_eq!(img.len(), 25);
        assert_eq!(img.seg_count(), 4);
        assert_eq!(img.seg_bounds(0), 0..8);
        assert_eq!(img.seg_bounds(3), 24..25);
        assert_eq!(img.arity(), 2);
        // Decoded segments reproduce the rows exactly.
        for seg in 0..img.seg_count() {
            let d = img.decode(seg);
            assert_eq!(d.start, seg * 8);
            for pos in 0..d.len {
                for (c, col) in d.cols.iter().enumerate() {
                    assert_eq!(col.get(pos), rows[d.start + pos][c]);
                }
            }
        }
        // Stats come out of the same pass as the build.
        let st = img.stats();
        assert_eq!(st.rows, 25);
        assert_eq!(st.ndv, vec![10, 2]);
        assert_eq!(st.minmax[0], Some((Value::Int(0), Value::Int(9))));
        assert_eq!(
            st.minmax[1],
            Some((Value::Str(intern("green")), Value::Str(intern("red"))))
        );
        // Zone maps cover each segment's own range: segment 0 holds
        // rows 0..8, whose values are 0..=7.
        assert_eq!(img.zone(0, 0).min, Value::Int(0));
        assert_eq!(img.zone(0, 0).max, Value::Int(7));
        // The last segment holds only row 24 (value 4).
        assert_eq!(img.zone(0, 3).min, Value::Int(4));
        assert_eq!(img.zone(0, 3).max, Value::Int(4));
        assert!(img.encoded_bytes() > 0);
    }

    #[test]
    fn empty_and_zero_arity_images_are_fine() {
        let img = SegmentedImage::build(2, &[], 8);
        assert_eq!(img.len(), 0);
        assert_eq!(img.seg_count(), 0);
        assert!(img.is_empty());
        let rows: Vec<Row> = (0..3).map(|_| Vec::new().into_boxed_slice()).collect();
        let img = SegmentedImage::build(0, &rows, 2);
        assert_eq!(img.len(), 3);
        assert_eq!(img.seg_count(), 2);
        assert_eq!(img.decode(0).cols.len(), 0);
    }
}
