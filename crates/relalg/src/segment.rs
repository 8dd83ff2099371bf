//! Compressed column segments — the encoding under the disk store.
//!
//! The store ([`crate::store`]) splits each relation column into
//! fixed-size segments (default 64Ki rows, `RELALG_SEGMENT_ROWS`) and
//! encodes each segment independently as a [`ColumnSegment`]:
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
//! Scans decode every segment they visit; no per-segment summary is
//! kept. Decoding a segment reproduces a
//! [`Column`] whose values hash and compare identically to the plain
//! image's — disk execution is byte-for-byte the same as plain
//! execution.

use crate::fxhash::{FxHashMap, FxHasher};
use crate::relation::{Column, NullMask};
use crate::value::Value;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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

/// One encoded column segment.
#[derive(Clone, Debug)]
pub struct ColumnSegment {
    rows: usize,
    enc: SegEncoding,
}

impl ColumnSegment {
    /// Encode a non-empty run of values.
    pub fn encode(vals: Vec<Value>) -> ColumnSegment {
        let rows = vals.len();
        let nulls = vals.iter().filter(|v| v.is_null()).count();
        let ints = vals.iter().filter(|v| matches!(v, Value::Int(_))).count();
        let strs = vals.iter().filter(|v| matches!(v, Value::Str(_))).count();
        if ints > 0 && ints + nulls == rows {
            return ColumnSegment {
                rows,
                enc: encode_for_int(&vals),
            };
        }
        if strs > 0 && strs + nulls == rows {
            if let Some(enc) = encode_dict_str(&vals) {
                return ColumnSegment { rows, enc };
            }
        }
        ColumnSegment {
            rows,
            enc: SegEncoding::Plain(Arc::new(Column::from_values(vals))),
        }
    }

    /// Reassemble a segment from its parts — the disk codec's
    /// deserialization entry point.
    pub(crate) fn from_parts(rows: usize, enc: SegEncoding) -> ColumnSegment {
        ColumnSegment { rows, enc }
    }

    /// Number of rows in the segment.
    pub fn rows(&self) -> usize {
        self.rows
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
                let mut vals = Vec::with_capacity(self.rows);
                unpack_into(packed, *width, self.rows, |d| {
                    vals.push(base.wrapping_add(d as i64))
                });
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
                let mut vals = Vec::with_capacity(self.rows);
                unpack_into(packed, *width, self.rows, |code| {
                    vals.push(Arc::clone(&dict[code as usize]))
                });
                Arc::new(match nulls {
                    Some(mask) => Column::StrN(vals, mask.clone()),
                    None => Column::Str(vals),
                })
            }
            SegEncoding::Plain(col) => Arc::clone(col),
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
fn encode_dict_str(vals: &[Value]) -> Option<SegEncoding> {
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

/// Call `f` with each of the first `rows` `width`-bit values of a
/// [`pack`]ed buffer, in order: one pass over the words through a bit
/// buffer. Panics if `packed` holds fewer than `rows × width` bits.
pub(crate) fn unpack_into(packed: &[u64], width: u8, rows: usize, mut f: impl FnMut(u64)) {
    let w = u32::from(width);
    match w {
        0 => (0..rows).for_each(|_| f(0)),
        64 => packed[..rows].iter().for_each(|&v| f(v)),
        _ => {
            let mask = (1u64 << w) - 1;
            let mut words = packed.iter();
            // The next `have` bits, low-aligned; the bits above are zero.
            let (mut buf, mut have) = (0u64, 0u32);
            for _ in 0..rows {
                if have >= w {
                    f(buf & mask);
                    buf >>= w;
                    have -= w;
                } else {
                    // `have < w < 64`, so both shifts are in range.
                    let next = *words
                        .next()
                        .expect("packed payload shorter than rows × width");
                    f((buf | next << have) & mask);
                    buf = next >> (w - have);
                    have += 64 - w;
                }
            }
        }
    }
}

/// One decoded segment: the columns covering rows
/// `[start, start + len)`, `Arc`-shared so batch columns can outlive the
/// buffer-pool slot that produced them.
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

/// 64-bit FxHash digest of a value (the NDV approximation unit). Shared
/// with the writer's streaming statistics pass.
pub(crate) fn value_digest(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::store::IoCounters;
    use crate::value::intern;
    use std::sync::atomic::Ordering;

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
        let SegEncoding::ForInt {
            nulls: Some(mask), ..
        } = seg.encoding()
        else {
            panic!("nullable ints encode as FOR with a null mask");
        };
        assert_eq!(mask.null_count(), 2);
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

    fn unpack(packed: &[u64], width: u8, rows: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(rows);
        unpack_into(packed, width, rows, |v| out.push(v));
        out
    }

    #[test]
    fn bit_packing_straddles_word_boundaries() {
        // Width 5 over 40 values crosses several u64 boundaries.
        let vals: Vec<u64> = (0..40).map(|i| (i * 7) % 32).collect();
        let packed = pack(&vals, 5);
        assert_eq!(packed.len(), (40 * 5usize).div_ceil(64));
        assert_eq!(unpack(&packed, 5, 40), vals);
        // Width 64 is the identity.
        let vals = vec![u64::MAX, 0, 1, u64::MAX - 1];
        let packed = pack(&vals, 64);
        assert_eq!(unpack(&packed, 64, 4), vals);
    }

    #[test]
    fn pack_then_unpack_is_the_identity_at_every_width() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for width in 0..=64u8 {
            for rows in [0, 1, 63, 64, 65, 4095, 4096] {
                let vals: Vec<u64> = (0..rows)
                    .map(|_| {
                        // xorshift64, masked to `width` bits.
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if width == 64 {
                            x
                        } else {
                            x & ((1u64 << width) - 1)
                        }
                    })
                    .collect();
                let packed = pack(&vals, width);
                assert_eq!(packed.len(), (rows * width as usize).div_ceil(64));
                assert_eq!(
                    unpack(&packed, width, rows),
                    vals,
                    "width {width}, rows {rows}"
                );
            }
        }
    }

    #[test]
    fn for_int_decode_matches_the_wide_sum_at_the_extremes() {
        let deltas = [0, 1, u64::MAX / 2, u64::MAX / 2 + 1, u64::MAX - 1, u64::MAX];
        for base in [i64::MIN, -1, 0, 1, i64::MAX] {
            let seg = ColumnSegment::from_parts(
                deltas.len(),
                SegEncoding::ForInt {
                    base,
                    width: 64,
                    packed: pack(&deltas, 64).into(),
                    nulls: None,
                },
            );
            let Column::Int(got) = seg.decode().as_ref().clone() else {
                panic!("FOR decodes to an Int column");
            };
            let want: Vec<i64> = deltas
                .iter()
                .map(|&d| (base as i128 + d as i128) as i64)
                .collect();
            assert_eq!(got, want, "base {base}");
        }
    }

    #[test]
    fn segmented_image_partitions_rows_and_folds_stats() {
        let rel = Relation::from_rows(
            ["n", "c"],
            (0..25).map(|i| {
                vec![
                    Value::Int(i % 10),
                    Value::Str(intern(["red", "green"][i as usize % 2])),
                ]
            }),
        )
        .unwrap();
        let rows = rel.rows();
        // An in-memory relation is segmented by streaming it through the
        // disk writer into a scratch image.
        let img = rel.disk_image(8).unwrap();
        assert_eq!(img.len(), 25);
        assert_eq!(img.seg_count(), 4);
        assert_eq!(img.seg_bounds(0), 0..8);
        assert_eq!(img.seg_bounds(3), 24..25);
        assert_eq!(img.arity(), 2);
        // Decoded segments reproduce the rows exactly.
        let io = IoCounters::default();
        for seg in 0..img.seg_count() {
            let d = img.read_segment(seg, &io).unwrap();
            assert_eq!(d.start, seg * 8);
            for pos in 0..d.len {
                for (c, col) in d.cols.iter().enumerate() {
                    assert_eq!(col.get(pos), rows[d.start + pos][c]);
                }
            }
        }
        // Stats come out of the same pass as the write.
        let st = img.stats();
        assert_eq!(st.rows, 25);
        assert_eq!(st.ndv, vec![10, 2]);
        assert_eq!(st.minmax[0], Some((Value::Int(0), Value::Int(9))));
        assert_eq!(
            st.minmax[1],
            Some((Value::Str(intern("green")), Value::Str(intern("red"))))
        );
        assert!(io.decoded_bytes.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn empty_and_zero_arity_images_are_fine() {
        let rel = Relation::from_rows(["a", "b"], Vec::<Vec<Value>>::new()).unwrap();
        let img = rel.disk_image(8).unwrap();
        assert_eq!(img.len(), 0);
        assert_eq!(img.seg_count(), 0);
        assert!(img.is_empty());
        let rel = Relation::from_rows(Vec::<String>::new(), (0..3).map(|_| Vec::new())).unwrap();
        let img = rel.disk_image(2).unwrap();
        assert_eq!(img.len(), 3);
        assert_eq!(img.seg_count(), 2);
        let d = img.read_segment(0, &IoCounters::default()).unwrap();
        assert_eq!((d.len, d.cols.len()), (2, 0));
    }
}
