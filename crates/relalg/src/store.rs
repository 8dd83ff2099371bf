//! The compressed store: page files of encoded column segments
//! ([`crate::segment`]), a checksummed per-relation manifest, and the
//! engine's one buffer pool of decoded segments, shared across
//! relations.
//!
//! A relation persists as two files in a directory, written by one
//! encoder, the streaming [`DiskTableWriter`] — loaders stream rows into
//! it, and an in-memory relation streams its rows into a scratch writer
//! on its first disk scan:
//!
//! * **`<name>.seg`** — the page file: one self-describing block per
//!   (column, segment), in segment-major order so fetching one segment
//!   reads contiguous bytes. Every block starts on a [`PAGE`] boundary
//!   and serializes the *encoded* form ([`SegEncoding`] — bit-packed
//!   frame-of-reference integers, dictionary codes, or tagged plain
//!   values), so the on-disk footprint is the compressed one.
//! * **`<name>.manifest`** — magic + version, the segment geometry,
//!   the exact page-file length, column names, the [`TableStats`] the
//!   writer accumulated while streaming, and a directory of
//!   `(offset, len, crc32)` block references. The manifest carries a
//!   trailing checksum over itself.
//!
//! [`DiskImage::open`] validates everything eagerly — magic, version,
//!   manifest checksum, directory bounds against the page file's length,
//!   and every block's checksum and parseability — so truncated files,
//!   torn final pages, bit flips and stale manifests all surface as
//!   [`Error`] at open time. Post-open reads can still fail (a file
//!   modified underneath a running process, or a fault injected by
//!   [`crate::fault`]); those surface as clean [`Error::Io`] after
//!   bounded transient retries — never as a panic or a wrong answer.
//!
//! Scans reach segments through a [`DiskImageProvider`] whose fetches
//! lease slots from a [`BufferPool`] **shared across all relations**
//! (keyed by a process-unique image id): the pool holds at most `cap`
//! decoded segments under clock eviction, disk reads happen outside the
//! pool lock behind a per-segment in-flight latch, and
//! [`IoCounters`] observes pages read plus pool hits/misses.

use crate::error::{Error, Result};
use crate::fault::{self, FaultInjector, FaultKind};
use crate::relation::{Column, NullMask, Row};
use crate::segment::{unpack_into, value_digest, ColumnSegment, DecodedSegment, SegEncoding};
use crate::stats::TableStats;
use crate::value::{intern, Value};
use std::fmt::{Debug, Display};
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Page size: blocks in the page file start on this alignment, and
/// [`IoCounters::pages_read`] counts in these units.
pub const PAGE: usize = 4096;

/// Manifest magic ("U-relation segments"); [`VERSION`] follows it.
const MAGIC: &[u8; 8] = b"URELSEG1";

/// Manifest format version (3: the block directory carries no
/// per-segment zone maps).
const VERSION: u32 = 3;

/// Storage-side counters shared by every cursor of one execution:
/// bytes materialized by fresh decodes, pages read from segment files,
/// and buffer-pool hit/miss tallies. Also carries the execution's fault
/// injector (if any) down to the storage edges — read and lease faults
/// draw their ticks through here.
#[derive(Debug, Default)]
pub struct IoCounters {
    /// Approximate bytes materialized by fresh segment decodes (pool
    /// hits add nothing).
    pub decoded_bytes: AtomicUsize,
    /// 4 KiB pages read from on-disk segment files.
    pub pages_read: AtomicUsize,
    /// Buffer-pool lookups served by a resident segment.
    pub pool_hits: AtomicUsize,
    /// Buffer-pool lookups that had to read and decode the segment.
    pub pool_misses: AtomicUsize,
    /// The execution's fault injector, `None` when faults are disabled.
    faults: Option<Arc<FaultInjector>>,
}

impl IoCounters {
    /// Counters wired to an execution's fault injector.
    pub fn with_faults(faults: Option<Arc<FaultInjector>>) -> IoCounters {
        IoCounters {
            faults,
            ..IoCounters::default()
        }
    }

    /// The fault injector drawn by this execution's storage edges.
    pub fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_deref()
    }

    /// Record a fresh decode of `bytes` materialized bytes.
    pub fn decoded(&self, bytes: usize) {
        self.decoded_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE), slicing-by-16 — no dependencies. Writers seal every
// block with it, `DiskImage::open` checks every block, and every fetch
// after open re-verifies the block it reads.
// ---------------------------------------------------------------------------

/// Table 0 is the bytewise CRC table; entry `b` of table `k` is the CRC
/// of byte `b` followed by `k` zero bytes, so one step folds 16 bytes.
fn crc32_tables() -> &'static [[u32; 256]; 16] {
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC32 (IEEE 802.3) of a byte slice.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for b in &mut chunks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize];
        for (k, &byte) in b[4..].iter().enumerate() {
            c ^= t[11 - k][byte as usize];
        }
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Byte codec: a growable encoder and a bounds-checked decoder.
// ---------------------------------------------------------------------------

/// Append-only byte encoder for blocks and manifests.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("stored string fits u32"));
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// Tagged value, same tag scheme as the spill-run codec.
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(false) => self.u8(1),
            Value::Bool(true) => self.u8(2),
            Value::Int(i) => {
                self.u8(3);
                self.i64(*i);
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s);
            }
        }
    }
    /// A `u64`-word slice, length-prefixed (bit-packed payloads).
    fn words(&mut self, w: &[u64]) {
        self.u32(u32::try_from(w.len()).expect("packed words fit u32"));
        for &x in w {
            self.u64(x);
        }
    }
    /// A null bitmap: one bit per row, length implied by the caller.
    fn nulls(&mut self, rows: usize, mask: &Option<NullMask>) {
        match mask {
            None => self.u8(0),
            Some(m) => {
                self.u8(1);
                let mut bytes = vec![0u8; rows.div_ceil(8)];
                for (i, byte) in bytes.iter_mut().enumerate() {
                    for bit in 0..8 {
                        let row = i * 8 + bit;
                        if row < rows && m.is_null(row) {
                            *byte |= 1 << bit;
                        }
                    }
                }
                self.buf.extend_from_slice(&bytes);
            }
        }
    }
}

/// Bounds-checked byte decoder: every read that would run past the end
/// returns a corruption [`Error`] instead of panicking. `what` names the
/// input in those errors and is formatted only when one is built.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'a dyn Display,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8], what: &'a dyn Display) -> Dec<'a> {
        Dec { buf, pos: 0, what }
    }

    fn fail(&self, msg: &str) -> Error {
        Error::Invalid(format!("corrupt {}: {msg} at byte {}", self.what, self.pos))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(self.fail("unexpected end of data"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// A length to allocate for: sanity-capped by the bytes actually
    /// remaining, so a corrupt length cannot trigger a huge allocation.
    fn len(&mut self, per_item: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(per_item.max(1)) > self.buf.len() - self.pos {
            return Err(self.fail("length prefix exceeds remaining data"));
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String> {
        let n = self.len(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| self.fail("invalid UTF-8"))
    }
    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(false),
            2 => Value::Bool(true),
            3 => Value::Int(self.i64()?),
            4 => Value::Str(intern(&self.str()?)),
            t => return Err(self.fail(&format!("unknown value tag {t}"))),
        })
    }
    fn words(&mut self) -> Result<Arc<[u64]>> {
        let n = self.len(8)?;
        Ok(self
            .take(n * 8)?
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect())
    }
    fn nulls(&mut self, rows: usize) -> Result<Option<NullMask>> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let bytes = self.take(rows.div_ceil(8))?;
                let mut mask = NullMask::new(rows);
                for (i, byte) in bytes.iter().enumerate() {
                    for bit in 0..8 {
                        let row = i * 8 + bit;
                        if row < rows && byte & (1 << bit) != 0 {
                            mask.set_null(row);
                        }
                    }
                }
                Ok(Some(mask))
            }
            t => Err(self.fail(&format!("unknown null-mask flag {t}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Block codec: one (column, segment) encoded payload.
// ---------------------------------------------------------------------------

const BLOCK_FOR_INT: u8 = 1;
const BLOCK_DICT_STR: u8 = 2;
const BLOCK_PLAIN: u8 = 3;

/// Serialize one encoded segment into block bytes.
fn encode_block(seg: &ColumnSegment) -> Vec<u8> {
    let mut e = Enc::default();
    let rows = seg.rows();
    match seg.encoding() {
        SegEncoding::ForInt {
            base,
            width,
            packed,
            nulls,
        } => {
            e.u8(BLOCK_FOR_INT);
            e.u32(rows as u32);
            e.i64(*base);
            e.u8(*width);
            e.nulls(rows, nulls);
            e.words(packed);
        }
        SegEncoding::DictStr {
            dict,
            width,
            packed,
            nulls,
        } => {
            e.u8(BLOCK_DICT_STR);
            e.u32(rows as u32);
            e.u32(dict.len() as u32);
            for s in dict.iter() {
                e.str(s);
            }
            e.u8(*width);
            e.nulls(rows, nulls);
            e.words(packed);
        }
        SegEncoding::Plain(col) => {
            e.u8(BLOCK_PLAIN);
            e.u32(rows as u32);
            for i in 0..rows {
                e.value(&col.get(i));
            }
        }
    }
    e.buf
}

/// Parse block bytes back into an encoded segment. `rows` comes from
/// the manifest's geometry; the block's own row count must
/// agree (a stale manifest over a rewritten page file fails here even
/// if both checksums individually hold).
fn decode_block(bytes: &[u8], rows: usize, what: &dyn Display) -> Result<ColumnSegment> {
    let mut d = Dec::new(bytes, what);
    let tag = d.u8()?;
    let block_rows = d.u32()? as usize;
    if block_rows != rows {
        return Err(d.fail(&format!(
            "block holds {block_rows} rows, manifest expects {rows}"
        )));
    }
    let enc = match tag {
        BLOCK_FOR_INT => {
            let base = d.i64()?;
            let width = d.u8()?;
            if width > 64 {
                return Err(d.fail(&format!("bit width {width} out of range")));
            }
            let nulls = d.nulls(rows)?;
            let packed = d.words()?;
            if packed.len() < (rows * width as usize).div_ceil(64) {
                return Err(d.fail("packed payload shorter than rows × width"));
            }
            SegEncoding::ForInt {
                base,
                width,
                packed,
                nulls,
            }
        }
        BLOCK_DICT_STR => {
            let n = d.len(5)?;
            let mut dict = Vec::with_capacity(n);
            for _ in 0..n {
                dict.push(intern(&d.str()?));
            }
            let width = d.u8()?;
            if width > 64 {
                return Err(d.fail(&format!("bit width {width} out of range")));
            }
            let nulls = d.nulls(rows)?;
            let packed = d.words()?;
            if packed.len() < (rows * width as usize).div_ceil(64) {
                return Err(d.fail("packed payload shorter than rows × width"));
            }
            // Every code must land inside the dictionary, or decode
            // would panic on index-out-of-bounds later.
            let dict: Arc<[Arc<str>]> = dict.into();
            if rows > 0 && dict.is_empty() {
                return Err(d.fail("empty dictionary over a non-empty segment"));
            }
            let mut out_of_range = false;
            unpack_into(&packed, width, rows, |code| {
                out_of_range |= code >= dict.len() as u64;
            });
            if out_of_range {
                return Err(d.fail("dictionary code out of range"));
            }
            SegEncoding::DictStr {
                dict,
                width,
                packed,
                nulls,
            }
        }
        BLOCK_PLAIN => {
            let mut vals = Vec::with_capacity(rows);
            for _ in 0..rows {
                vals.push(d.value()?);
            }
            SegEncoding::Plain(Arc::new(Column::from_values(vals)))
        }
        t => return Err(d.fail(&format!("unknown block tag {t}"))),
    };
    if d.pos != bytes.len() {
        return Err(d.fail("trailing garbage after block payload"));
    }
    Ok(ColumnSegment::from_parts(rows, enc))
}

fn encode_stats(e: &mut Enc, st: &TableStats) {
    e.u64(st.rows as u64);
    e.u64(st.bytes as u64);
    e.u32(st.ndv.len() as u32);
    for &n in &st.ndv {
        e.u64(n as u64);
    }
    e.u32(st.minmax.len() as u32);
    for mm in &st.minmax {
        match mm {
            None => e.u8(0),
            Some((lo, hi)) => {
                e.u8(1);
                e.value(lo);
                e.value(hi);
            }
        }
    }
}

fn decode_stats(d: &mut Dec<'_>) -> Result<TableStats> {
    let rows = d.u64()? as usize;
    let bytes = d.u64()? as usize;
    let n = d.len(8)?;
    let ndv = (0..n)
        .map(|_| Ok(d.u64()? as usize))
        .collect::<Result<_>>()?;
    let n = d.len(1)?;
    let minmax = (0..n)
        .map(|_| {
            Ok(match d.u8()? {
                0 => None,
                1 => Some((d.value()?, d.value()?)),
                t => return Err(d.fail(&format!("unknown minmax flag {t}"))),
            })
        })
        .collect::<Result<_>>()?;
    Ok(TableStats {
        rows,
        ndv,
        bytes,
        minmax,
    })
}

// ---------------------------------------------------------------------------
// DiskImage: an opened, validated segment file pair.
// ---------------------------------------------------------------------------

/// One block's location in the page file plus its checksum.
#[derive(Clone, Copy, Debug)]
struct BlockRef {
    offset: u64,
    len: u64,
    crc: u32,
}

/// Source of process-unique image ids, keying each [`DiskImage`]'s
/// segments in the shared [`BufferPool`].
static NEXT_IMAGE_ID: AtomicU64 = AtomicU64::new(1);

/// An opened on-disk relation image: the page-file handle, the parsed
/// manifest (geometry, names, statistics, block directory),
/// and a process-unique id that keys this image's segments in the
/// shared [`BufferPool`].
///
/// Opening validates the *entire* store eagerly (manifest magic,
/// version and checksum; directory bounds against the page file's real
/// length; every block's checksum and parseability), so every
/// corruption mode is an [`Error`] here. A fetch-time failure after
/// open — the file modified underneath a running process, or an
/// injected fault — surfaces as a clean [`Error::Io`] (after bounded
/// transient retries), never as a panic or a wrong answer.
pub struct DiskImage {
    id: u64,
    seg_path: PathBuf,
    file: File,
    seg_rows: usize,
    len: usize,
    names: Vec<String>,
    stats: TableStats,
    /// `dir[col * seg_count + seg]`.
    dir: Vec<BlockRef>,
    /// When set, dropping the image deletes this whole directory (the
    /// scratch spill of an in-memory relation).
    scratch_dir: Option<PathBuf>,
}

impl Debug for DiskImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskImage")
            .field("path", &self.seg_path)
            .field("rows", &self.len)
            .field("segments", &self.seg_count())
            .finish()
    }
}

impl Drop for DiskImage {
    fn drop(&mut self) {
        if let Some(dir) = &self.scratch_dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

fn manifest_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.manifest"))
}

fn seg_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.seg"))
}

fn io_fail(what: &str, path: &Path, e: io::Error) -> Error {
    Error::Invalid(format!("{what} `{}`: {e}", path.display()))
}

impl DiskImage {
    /// Open and fully validate `<dir>/<name>.{manifest,seg}`.
    pub fn open(dir: &Path, name: &str) -> Result<Arc<DiskImage>> {
        DiskImage::open_with(dir, name).map(Arc::new)
    }

    fn open_with(dir: &Path, name: &str) -> Result<DiskImage> {
        let mpath = manifest_path(dir, name);
        let bytes =
            fs::read(&mpath).map_err(|e| io_fail("cannot read segment manifest", &mpath, e))?;
        let what = format!("segment manifest `{}`", mpath.display());
        let corrupt = |msg: &str| Error::Invalid(format!("corrupt {what}: {msg}"));
        if bytes.len() < MAGIC.len() + 8 {
            return Err(corrupt("file too short for header and checksum"));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(corrupt("bad magic (not a segment manifest?)"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let stored_crc = u32::from_le_bytes(tail.try_into().unwrap());
        if crc32(body) != stored_crc {
            return Err(corrupt("manifest checksum mismatch"));
        }
        let mut d = Dec::new(&body[MAGIC.len()..], &what);
        let version = d.u32()?;
        if version != VERSION {
            return Err(corrupt(&format!(
                "unsupported format version {version} (this build reads {VERSION})"
            )));
        }
        let seg_rows = d.u64()? as usize;
        let len = d.u64()? as usize;
        let arity = d.u32()? as usize;
        let seg_count = d.u32()? as usize;
        let page_len = d.u64()?;
        if seg_rows == 0 {
            return Err(corrupt("zero rows per segment"));
        }
        if seg_count != len.div_ceil(seg_rows) {
            return Err(corrupt("segment count inconsistent with row count"));
        }
        let n = d.len(4)?;
        if n != arity {
            return Err(corrupt("column-name count does not match arity"));
        }
        let names = (0..arity).map(|_| d.str()).collect::<Result<Vec<_>>>()?;
        let stats = decode_stats(&mut d)?;
        if stats.rows != len || stats.ndv.len() != arity || stats.minmax.len() != arity {
            return Err(corrupt("statistics inconsistent with geometry"));
        }
        let blocks = arity
            .checked_mul(seg_count)
            .ok_or_else(|| corrupt("directory size overflows"))?;
        let mut dir_entries = Vec::with_capacity(blocks);
        for _ in 0..blocks {
            dir_entries.push(BlockRef {
                offset: d.u64()?,
                len: d.u64()?,
                crc: d.u32()?,
            });
        }
        if d.pos != body.len() - MAGIC.len() {
            return Err(corrupt("trailing garbage after directory"));
        }

        let spath = seg_path(dir, name);
        let file = File::open(&spath).map_err(|e| io_fail("cannot open page file", &spath, e))?;
        let file_len = file
            .metadata()
            .map_err(|e| io_fail("cannot stat page file", &spath, e))?
            .len();
        if file_len != page_len {
            return Err(Error::Invalid(format!(
                "corrupt segment store `{}`: page file is {file_len} bytes but the manifest \
                 recorded {page_len} (truncated or torn write?)",
                spath.display()
            )));
        }
        let img = DiskImage {
            id: NEXT_IMAGE_ID.fetch_add(1, Ordering::Relaxed),
            seg_path: spath,
            file,
            seg_rows,
            len,
            names,
            stats,
            dir: dir_entries,
            scratch_dir: None,
        };
        // Validate every block now: bounds against the real file length,
        // checksum, and a full parse. One streaming pass over the page
        // file at open buys infallible fetches for the process lifetime
        // (and catches torn/truncated/stale files where the damage sits
        // in a block the first query would otherwise trip over mid-scan).
        for col in 0..img.arity() {
            for seg in 0..img.seg_count() {
                let r = img.dir[col * img.seg_count() + seg];
                if r.offset.checked_add(r.len).is_none_or(|end| end > file_len) {
                    return Err(Error::Invalid(format!(
                        "corrupt segment store `{}`: block (col {col}, seg {seg}) \
                         runs past the end of the page file (truncated or torn write?)",
                        img.seg_path.display()
                    )));
                }
                img.read_block(col, seg, |msg| Error::Invalid(msg.to_string()))
                    .map(drop)?;
            }
        }
        Ok(img)
    }

    /// Read, checksum-verify and parse one block. `fail` turns a
    /// corruption message into the caller's failure mode
    /// (`Error::Invalid` during open-time validation, `Error::Io` after).
    fn read_block(
        &self,
        col: usize,
        seg: usize,
        fail: impl Fn(&str) -> Error,
    ) -> Result<ColumnSegment> {
        let r = self.dir[col * self.seg_count() + seg];
        let mut buf = vec![0u8; r.len as usize];
        self.file.read_exact_at(&mut buf, r.offset).map_err(|e| {
            fail(&format!(
                "corrupt segment store `{}`: cannot read block (col {col}, seg {seg}): {e}",
                self.seg_path.display()
            ))
        })?;
        if crc32(&buf) != r.crc {
            return Err(fail(&format!(
                "corrupt segment store `{}`: checksum mismatch in block (col {col}, seg {seg})",
                self.seg_path.display()
            )));
        }
        let what = format_args!(
            "segment block (col {col}, seg {seg}) of `{}`",
            self.seg_path.display()
        );
        decode_block(&buf, self.seg_bounds(seg).len(), &what).map_err(|e| fail(&e.to_string()))
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
        self.names.len()
    }

    /// Number of segments.
    pub fn seg_count(&self) -> usize {
        self.len.div_ceil(self.seg_rows)
    }

    /// The row range `[start, end)` of segment `seg`.
    pub fn seg_bounds(&self, seg: usize) -> std::ops::Range<usize> {
        let start = (seg * self.seg_rows).min(self.len);
        start..(start + self.seg_rows).min(self.len)
    }

    /// Column names as written by the relation's writer.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The statistics the writer accumulated while streaming.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Read and decode segment `seg` across all columns, accounting the
    /// pages read and bytes materialized into `io`. Open-time validation
    /// caught every static corruption mode; a failure *now* — the file
    /// changed underneath a running process, or a fault injected on the
    /// [`Read`](FaultKind::Read) edge — surfaces as [`Error::Io`] after
    /// bounded transient retries, never as a panic or a wrong answer.
    pub fn read_segment(&self, seg: usize, io: &IoCounters) -> Result<DecodedSegment> {
        let bounds = self.seg_bounds(seg);
        let mut pages = 0usize;
        let mut bytes = 0usize;
        let mut cols: Vec<Arc<Column>> = Vec::with_capacity(self.arity());
        for col in 0..self.arity() {
            pages += (self.dir[col * self.seg_count() + seg].len as usize).div_ceil(PAGE);
            // Inject before the real read: a transient fault retried here
            // re-reads from unchanged state, so the decoded bytes are
            // identical to a fault-free run.
            fault::retry_io(io.faults(), || {
                fault::inject(io.faults(), FaultKind::Read, "read segment block")
            })
            .map_err(|e| fault::io_error("read segment block", &e))?;
            let block = self.read_block(col, seg, |msg| {
                Error::Io(format!("segment file changed after open: {msg}"))
            })?;
            bytes += block.decoded_bytes();
            cols.push(block.decode());
        }
        io.pages_read.fetch_add(pages, Ordering::Relaxed);
        io.decoded(bytes);
        Ok(DecodedSegment {
            start: bounds.start,
            len: bounds.len(),
            cols,
            bytes,
        })
    }

    /// Materialize the full row store (for operators that need rows —
    /// breakers, spill paths). Streams one segment at a time; the
    /// decoded segments are transient.
    pub fn decode_rows(&self) -> Result<Vec<Row>> {
        let io = IoCounters::default();
        let mut rows: Vec<Row> = Vec::with_capacity(self.len);
        for seg in 0..self.seg_count() {
            let d = self.read_segment(seg, &io)?;
            for pos in 0..d.len {
                rows.push(d.cols.iter().map(|c| c.get(pos)).collect());
            }
        }
        Ok(rows)
    }
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Scratch-directory sequence (mirrors the spill module's convention).
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh process-unique scratch directory for transparent disk spills.
fn new_scratch_dir() -> Result<PathBuf> {
    let dir = std::env::temp_dir().join(format!(
        "urel-disk-{}-{}",
        std::process::id(),
        SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).map_err(|e| io_fail("cannot create scratch dir", &dir, e))?;
    Ok(dir)
}

/// Shared page-file writer state: sequential blocks, page-aligned.
struct PageWriter {
    file: File,
    path: PathBuf,
    offset: u64,
    /// Injects [`FaultKind::Write`] before each block (tests/suite).
    faults: Option<Arc<FaultInjector>>,
}

impl PageWriter {
    fn create(path: PathBuf) -> Result<PageWriter> {
        let file = File::create(&path).map_err(|e| io_fail("cannot create page file", &path, e))?;
        Ok(PageWriter {
            file,
            path,
            offset: 0,
            faults: None,
        })
    }

    /// Append one block at the next page boundary; returns its reference.
    /// Write faults — injected or real — are never retried (the file
    /// position is not restartable); they propagate as [`Error::Io`].
    fn block(&mut self, seg: &ColumnSegment) -> Result<BlockRef> {
        fault::inject(self.faults.as_deref(), FaultKind::Write, "write page block")
            .map_err(|e| fault::io_error("write page block", &e))?;
        let bytes = encode_block(seg);
        let r = BlockRef {
            offset: self.offset,
            len: bytes.len() as u64,
            crc: crc32(&bytes),
        };
        self.file
            .write_all(&bytes)
            .map_err(|e| io_fail("cannot write page file", &self.path, e))?;
        let pad = bytes.len().div_ceil(PAGE) * PAGE - bytes.len();
        if pad > 0 {
            self.file
                .write_all(&vec![0u8; pad])
                .map_err(|e| io_fail("cannot write page file", &self.path, e))?;
        }
        self.offset += (bytes.len() + pad) as u64;
        Ok(r)
    }
}

/// Streaming disk-table writer: rows go straight into encoded segment
/// blocks on disk — neither the row store nor the full encoded image is
/// ever materialized in memory. Only the current partial segment (at
/// most `seg_rows` rows per column), the accumulated NDV digest sets,
/// the per-column min/max and the block directory are resident. `finish` writes the manifest
/// and reopens through the validating reader.
pub struct DiskTableWriter {
    dir: PathBuf,
    name: String,
    scratch_dir: Option<PathBuf>,
    seg_rows: usize,
    names: Vec<String>,
    pw: PageWriter,
    cur: Vec<Vec<Value>>,
    in_cur: usize,
    len: usize,
    /// Per column, in segment order: flattened, this is the manifest's
    /// column-major block directory.
    blocks: Vec<Vec<BlockRef>>,
    bytes: usize,
    col_digests: Vec<crate::fxhash::FxHashSet<u64>>,
    /// Per column, the (min, max) of the rows flushed so far under the
    /// total `Value` order.
    minmax: Vec<Option<(Value, Value)>>,
}

impl DiskTableWriter {
    /// Create `<dir>/<name>.{seg,manifest}` for a table with the given
    /// column names, at `seg_rows` rows per segment (floored at 1).
    pub fn create(
        dir: &Path,
        name: &str,
        names: Vec<String>,
        seg_rows: usize,
    ) -> Result<DiskTableWriter> {
        Self::create_with(dir.to_path_buf(), name, names, seg_rows, None)
    }

    /// Create in a fresh scratch directory that is deleted when the
    /// finished image drops (or with the writer, if it never finishes)
    /// — the path of loaders under a [`crate::catalog::StorageMode::Disk`]
    /// default and of in-memory relations on their first disk scan.
    pub fn create_scratch(
        name: &str,
        names: Vec<String>,
        seg_rows: usize,
    ) -> Result<DiskTableWriter> {
        let dir = new_scratch_dir()?;
        Self::create_with(dir.clone(), name, names, seg_rows, Some(dir.clone())).inspect_err(|_| {
            let _ = fs::remove_dir_all(&dir);
        })
    }

    fn create_with(
        dir: PathBuf,
        name: &str,
        names: Vec<String>,
        seg_rows: usize,
        scratch_dir: Option<PathBuf>,
    ) -> Result<DiskTableWriter> {
        let arity = names.len();
        let pw = PageWriter::create(seg_path(&dir, name))?;
        Ok(DiskTableWriter {
            dir,
            name: name.to_string(),
            scratch_dir,
            seg_rows: seg_rows.max(1),
            names,
            pw,
            cur: vec![Vec::new(); arity],
            in_cur: 0,
            len: 0,
            blocks: vec![Vec::new(); arity],
            bytes: 0,
            col_digests: vec![crate::fxhash::FxHashSet::default(); arity],
            minmax: vec![None; arity],
        })
    }

    /// Inject write faults into this writer's page and manifest writes
    /// (the explicit-injector variant the fault suite drives).
    pub fn with_faults(mut self, faults: Option<Arc<FaultInjector>>) -> DiskTableWriter {
        self.pw.faults = faults;
        self
    }

    /// Append one row (must match the writer's arity).
    pub fn push(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.cur.len() {
            return Err(Error::ArityMismatch {
                expected: self.cur.len(),
                got: row.len(),
            });
        }
        for (c, v) in row.iter().enumerate() {
            self.bytes += v.size_bytes();
            self.col_digests[c].insert(value_digest(v));
            self.cur[c].push(v.clone());
        }
        self.in_cur += 1;
        self.len += 1;
        if self.in_cur == self.seg_rows {
            self.flush()?;
        }
        Ok(())
    }

    /// Encode and write the current partial segment (segment-major: all
    /// columns of this segment are contiguous in the page file).
    fn flush(&mut self) -> Result<()> {
        for (col, vals) in self.cur.iter_mut().enumerate() {
            widen(&mut self.minmax[col], vals);
            let seg = ColumnSegment::encode(std::mem::take(vals));
            self.blocks[col].push(self.pw.block(&seg)?);
        }
        self.in_cur = 0;
        Ok(())
    }

    /// Flush the trailing partial segment, write the manifest and
    /// reopen the finished store through the validating reader. A
    /// scratch writer hands its directory to the image only once the
    /// image opened; on any failure the directory goes with the writer.
    pub fn finish(mut self) -> Result<Arc<DiskImage>> {
        if self.in_cur > 0 {
            self.flush()?;
        }
        fault::inject(
            self.pw.faults.as_deref(),
            FaultKind::Write,
            "write manifest",
        )
        .map_err(|e| fault::io_error("write manifest", &e))?;
        let mut img = self.write_manifest()?;
        img.scratch_dir = self.scratch_dir.take();
        Ok(Arc::new(img))
    }

    /// Assemble and write the manifest — geometry, names, the streamed
    /// statistics and the block
    /// directory — then reopen through the validating reader, so a
    /// broken writer can never silently produce an unreadable store.
    fn write_manifest(&self) -> Result<DiskImage> {
        let stats = TableStats {
            rows: self.len,
            ndv: self.col_digests.iter().map(|s| s.len().max(1)).collect(),
            bytes: self.bytes,
            minmax: self.minmax.clone(),
        };
        let mut e = Enc::default();
        e.buf.extend_from_slice(MAGIC);
        e.u32(VERSION);
        e.u64(self.seg_rows as u64);
        e.u64(self.len as u64);
        e.u32(self.names.len() as u32);
        e.u32(self.len.div_ceil(self.seg_rows) as u32);
        // The exact page-file length: lets the reader reject a torn final
        // page even when only zero padding went missing.
        let spath = seg_path(&self.dir, &self.name);
        let page_len = fs::metadata(&spath)
            .map_err(|e| io_fail("cannot stat page file", &spath, e))?
            .len();
        e.u64(page_len);
        e.u32(self.names.len() as u32);
        for n in &self.names {
            e.str(n);
        }
        encode_stats(&mut e, &stats);
        // Column-major: `[col * seg_count + seg]`.
        for r in self.blocks.iter().flatten() {
            e.u64(r.offset);
            e.u64(r.len);
            e.u32(r.crc);
        }
        let crc = crc32(&e.buf);
        e.u32(crc);
        let mpath = manifest_path(&self.dir, &self.name);
        fs::write(&mpath, &e.buf).map_err(|e| io_fail("cannot write manifest", &mpath, e))?;
        DiskImage::open_with(&self.dir, &self.name)
    }
}

/// Widen `acc` to cover `vals` under the total `Value` order.
fn widen(acc: &mut Option<(Value, Value)>, vals: &[Value]) {
    let Some(first) = vals.first() else {
        return;
    };
    let (lo, hi) = vals.iter().fold((first, first), |(lo, hi), v| {
        (if v < lo { v } else { lo }, if v > hi { v } else { hi })
    });
    match acc {
        None => *acc = Some((lo.clone(), hi.clone())),
        Some((alo, ahi)) => {
            if lo < alo {
                *alo = lo.clone();
            }
            if hi > ahi {
                *ahi = hi.clone();
            }
        }
    }
}

impl Drop for DiskTableWriter {
    /// A scratch writer that errored or was dropped unfinished removes
    /// its directory; `finish` has already moved it out on success.
    fn drop(&mut self) {
        if let Some(dir) = &self.scratch_dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

// ---------------------------------------------------------------------------
// BufferPool: decoded segments shared across relations.
// ---------------------------------------------------------------------------

/// One resident decoded segment, keyed by (image id, segment index).
struct PoolSlot {
    key: (u64, usize),
    dec: Arc<DecodedSegment>,
    referenced: bool,
}

struct PoolState {
    slots: Vec<PoolSlot>,
    hand: usize,
    /// Keys some scan is loading right now (pool lock released).
    in_flight: Vec<(u64, usize)>,
}

/// A clock-eviction cache of decoded segments shared across *all*
/// relations scanned under disk storage: per-scan providers lease slots
/// from it, so concurrent queries over different tables compete for the
/// same bounded memory — the paper's "conventional DBMS" discipline,
/// with one pool where a DBMS has one.
///
/// Disk reads and decodes happen outside the pool lock behind a
/// per-key in-flight latch (exactly one loader per segment; peers wait
/// on the condvar; unrelated fetches proceed concurrently) — a
/// blocking `read_at` or a segment decode under a global mutex would
/// serialize every concurrent session on cold segments.
pub struct BufferPool {
    cap: usize,
    state: Mutex<PoolState>,
    cv: Condvar,
}

impl Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("cap", &self.cap)
            .finish()
    }
}

impl BufferPool {
    /// Pool holding at most `cap` decoded segments (floored at 1).
    pub fn new(cap: usize) -> BufferPool {
        BufferPool {
            cap: cap.max(1),
            state: Mutex::new(PoolState {
                slots: Vec::new(),
                hand: 0,
                in_flight: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Capacity in decoded segments.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Fetch the segment under `key`, running `load` (outside the pool
    /// lock) on a miss. Hits bump `io.pool_hits`; misses bump
    /// `io.pool_misses` and install the loaded segment under clock
    /// eviction. Concurrent callers of the same key share one load.
    /// Every call draws exactly one [`FaultKind::Lease`] tick.
    ///
    /// The in-flight latch is guarded: if `load` fails *or unwinds*,
    /// the latch entry is removed and waiting peers are woken (the next
    /// one retries the load itself) — no error path can leave a stale
    /// lease that deadlocks later fetches of the same key.
    pub fn get(
        &self,
        key: (u64, usize),
        io: &IoCounters,
        load: impl FnOnce() -> Result<Arc<DecodedSegment>>,
    ) -> Result<Arc<DecodedSegment>> {
        fault::retry_io(io.faults(), || {
            fault::inject(io.faults(), FaultKind::Lease, "lease buffer-pool slot")
        })
        .map_err(|e| fault::io_error("lease buffer-pool slot", &e))?;
        let mut state = fault::lock_recover(&self.state);
        loop {
            if let Some(slot) = state.slots.iter_mut().find(|s| s.key == key) {
                slot.referenced = true;
                io.pool_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&slot.dec));
            }
            if state.in_flight.contains(&key) {
                state = self
                    .cv
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            } else {
                break;
            }
        }
        state.in_flight.push(key);
        drop(state);
        // Remove the latch and wake peers on *every* exit — return,
        // error, or unwind — so a failed load never wedges the key.
        struct Latch<'a> {
            pool: &'a BufferPool,
            key: (u64, usize),
        }
        impl Drop for Latch<'_> {
            fn drop(&mut self) {
                let mut state = fault::lock_recover(&self.pool.state);
                state.in_flight.retain(|&k| k != self.key);
                drop(state);
                self.pool.cv.notify_all();
            }
        }
        let _latch = Latch { pool: self, key };
        let dec = load()?;
        let mut state = fault::lock_recover(&self.state);
        io.pool_misses.fetch_add(1, Ordering::Relaxed);
        if state.slots.len() < self.cap {
            state.slots.push(PoolSlot {
                key,
                dec: Arc::clone(&dec),
                referenced: true,
            });
        } else {
            loop {
                let hand = state.hand;
                state.hand = (hand + 1) % self.cap;
                let slot = &mut state.slots[hand];
                if slot.referenced {
                    slot.referenced = false;
                } else {
                    *slot = PoolSlot {
                        key,
                        dec: Arc::clone(&dec),
                        referenced: true,
                    };
                    break;
                }
            }
        }
        drop(state);
        Ok(dec)
    }

    /// Number of currently resident segments (test hook).
    pub fn resident(&self) -> usize {
        fault::lock_recover(&self.state).slots.len()
    }

    /// Number of in-flight load latches (leak-check hook: zero once no
    /// fetch is executing, whatever path the last fetch exited by).
    pub fn in_flight_len(&self) -> usize {
        fault::lock_recover(&self.state).in_flight.len()
    }
}

/// The process-wide pool registry, keyed by capacity: every disk scan
/// configured with the same `buffer_pool` capacity shares one pool (the
/// "shared across relations" contract), while distinct capacities get
/// distinct pools so differently-configured catalogs — and tests — stay
/// isolated from each other.
pub fn pool_for(cap: usize) -> Arc<BufferPool> {
    type PoolRegistry = Vec<(usize, Arc<BufferPool>)>;
    static POOLS: OnceLock<Mutex<PoolRegistry>> = OnceLock::new();
    let cap = cap.max(1);
    let mut pools = fault::lock_recover(POOLS.get_or_init(|| Mutex::new(Vec::new())));
    if let Some((_, p)) = pools.iter().find(|(c, _)| *c == cap) {
        return Arc::clone(p);
    }
    let p = Arc::new(BufferPool::new(cap));
    pools.push((cap, Arc::clone(&p)));
    p
}

// ---------------------------------------------------------------------------
// DiskImageProvider
// ---------------------------------------------------------------------------

/// A scan's view of an opened [`DiskImage`]: the layout comes from the
/// manifest, so a cursor walks segment boundaries without decoding, and
/// segment fetches lease slots from the shared [`BufferPool`]. Created
/// per scan node at prepare time.
pub struct DiskImageProvider {
    image: Arc<DiskImage>,
    pool: Arc<BufferPool>,
}

impl Debug for DiskImageProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskImageProvider")
            .field("image", &self.image)
            .field("pool_cap", &self.pool.cap())
            .finish()
    }
}

impl DiskImageProvider {
    /// Provider over `image`, fetching through `pool`.
    pub fn new(image: Arc<DiskImage>, pool: Arc<BufferPool>) -> DiskImageProvider {
        DiskImageProvider { image, pool }
    }

    /// Rows per segment (the last segment may be short).
    pub fn seg_rows(&self) -> usize {
        self.image.seg_rows()
    }

    /// A decoded view of segment `seg`, leased from the pool. A miss
    /// reads and decodes outside the pool lock, adding the pages read
    /// and the bytes materialized to `io`; hits add nothing but the
    /// hit tally. Fallible: disk reads can fail for real, and the
    /// pool-lease and disk-read edges draw from `io`'s fault injector
    /// when one is configured.
    pub fn segment(&self, seg: usize, io: &IoCounters) -> Result<Arc<DecodedSegment>> {
        self.pool.get((self.image.id, seg), io, || {
            Ok(Arc::new(self.image.read_segment(seg, io)?))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::relation::Relation;
    use crate::value::intern;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::mpsc;
    use std::time::Duration;

    fn rel(n: usize) -> Relation {
        Relation::from_rows(
            ["k", "w", "v"],
            (0..n as i64).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Str(intern(["AIR", "RAIL", "SHIP", "TRUCK"][i as usize % 4])),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int(1000 - i)
                    },
                ]
            }),
        )
        .unwrap()
    }

    fn names(r: &Relation) -> Vec<String> {
        r.schema().columns().iter().map(|c| c.to_string()).collect()
    }

    /// `r` streamed through a writer into `<dir>/t.{seg,manifest}`.
    fn write(r: &Relation, dir: &Path, seg_rows: usize) -> Arc<DiskImage> {
        let mut w = DiskTableWriter::create(dir, "t", names(r), seg_rows).unwrap();
        for row in r.rows() {
            w.push(row).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn write_image_roundtrips_byte_identically() {
        let r = rel(100);
        let dir = tempdir();
        let img = write(&r, &dir, 16);
        assert_eq!(img.len(), 100);
        assert_eq!(img.seg_rows(), 16);
        assert_eq!(img.seg_count(), 7);
        assert_eq!(img.seg_bounds(0), 0..16);
        assert_eq!(img.seg_bounds(6), 96..100);
        assert_eq!(img.arity(), 3);
        assert_eq!(img.names(), &["k", "w", "v"]);
        let io = IoCounters::default();
        for seg in 0..img.seg_count() {
            let d = img.read_segment(seg, &io).unwrap();
            assert_eq!(d.start, seg * 16);
            for pos in 0..d.len {
                for (c, col) in d.cols.iter().enumerate() {
                    assert_eq!(
                        col.get(pos),
                        r.rows()[d.start + pos][c],
                        "({seg},{pos},{c})"
                    );
                }
            }
        }
        assert!(io.pages_read.load(Ordering::Relaxed) >= img.seg_count() * img.arity());
        // decode_rows reproduces the row store exactly.
        assert_eq!(img.decode_rows().unwrap(), r.rows());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_writer_matches_the_in_memory_builder() {
        let r = rel(53);
        let dir = tempdir();
        let img = write(&r, &dir, 8);
        assert_eq!(img.decode_rows().unwrap(), r.rows());
        // The statistics streamed into the manifest equal the plain
        // in-memory computation, so plans do not depend on the storage.
        let mem = TableStats::compute(&r);
        assert_eq!(img.stats().rows, mem.rows);
        assert_eq!(img.stats().ndv, mem.ndv);
        assert_eq!(img.stats().bytes, mem.bytes);
        assert_eq!(img.stats().minmax, mem.minmax);
        // Arity is enforced per row.
        let mut w = DiskTableWriter::create(&dir, "u", vec!["a".into()], 4).unwrap();
        assert!(w.push(&[Value::Int(1), Value::Int(2)]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_zero_arity_stores_roundtrip() {
        let dir = tempdir();
        let w = DiskTableWriter::create(&dir, "empty", vec!["a".into()], 4).unwrap();
        let img = w.finish().unwrap();
        assert!(img.is_empty());
        assert_eq!(img.seg_count(), 0);
        assert_eq!(img.decode_rows().unwrap(), Vec::<Row>::new());
        // Zero columns, three rows: two segments that decode to no
        // columns but keep their row counts.
        let mut w = DiskTableWriter::create(&dir, "nullary", Vec::new(), 2).unwrap();
        for _ in 0..3 {
            w.push(&[]).unwrap();
        }
        let img = w.finish().unwrap();
        assert_eq!(img.len(), 3);
        assert_eq!(img.seg_count(), 2);
        let d = img.read_segment(0, &IoCounters::default()).unwrap();
        assert_eq!((d.len, d.cols.len()), (2, 0));
        assert_eq!(img.decode_rows().unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scratch_images_clean_up_on_drop() {
        let r = rel(10);
        let img = r.disk_image(4).unwrap();
        let dir = img.scratch_dir.clone().unwrap();
        assert!(dir.exists());
        assert_eq!(img.decode_rows().unwrap(), r.rows());
        drop(r);
        drop(img);
        assert!(!dir.exists(), "scratch dir survived the image");
    }

    /// A scratch writer owns its directory until `finish` hands it to
    /// an opened image: an error or an unfinished drop removes it.
    #[test]
    fn scratch_writers_clean_up_on_every_failed_exit() {
        let scratch = |faults: Option<&str>| {
            let w = DiskTableWriter::create_scratch("t", vec!["a".into()], 2).unwrap();
            let faults =
                faults.map(|f| Arc::new(FaultInjector::new(FaultConfig::parse(f).unwrap())));
            let w = w.with_faults(faults);
            let dir = w.scratch_dir.clone().unwrap();
            assert!(dir.exists());
            (w, dir)
        };
        // 1. An arity error, then drop.
        let (mut w, dir) = scratch(None);
        let err = w.push(&[Value::Int(1), Value::Int(2)]).unwrap_err();
        assert_eq!(
            err,
            Error::ArityMismatch {
                expected: 1,
                got: 2
            }
        );
        drop(w);
        assert!(!dir.exists(), "arity error leaked {}", dir.display());
        // 2. Every write fails: the first block write errors cleanly.
        let (mut w, dir) = scratch(Some("7:1:write"));
        w.push(&[Value::Int(1)]).unwrap();
        let err = w.push(&[Value::Int(2)]).unwrap_err();
        assert!(
            matches!(&err, Error::Io(m) if m.contains("write page block")),
            "{err}"
        );
        drop(w);
        assert!(!dir.exists(), "failed block write leaked {}", dir.display());
        // 3. An unfinished writer dropped.
        let (mut w, dir) = scratch(None);
        w.push(&[Value::Int(1)]).unwrap();
        drop(w);
        assert!(!dir.exists(), "unfinished writer leaked {}", dir.display());
    }

    #[test]
    fn buffer_pool_shares_across_images_and_evicts_cold_segments() {
        let a = rel(32);
        let b = rel(32);
        let ia = a.disk_image(8).unwrap();
        let ib = b.disk_image(8).unwrap();
        assert_ne!(ia.id, ib.id, "image ids must be process-unique");
        let pool = Arc::new(BufferPool::new(3));
        let pa = DiskImageProvider::new(Arc::clone(&ia), Arc::clone(&pool));
        let pb = DiskImageProvider::new(Arc::clone(&ib), Arc::clone(&pool));
        let io = IoCounters::default();
        // Both relations' segments flow through the same slots.
        pa.segment(0, &io).unwrap();
        pb.segment(0, &io).unwrap();
        pa.segment(1, &io).unwrap();
        assert_eq!(pool.resident(), 3);
        assert_eq!(io.pool_misses.load(Ordering::Relaxed), 3);
        // Re-fetching a resident segment is a hit, no pages read.
        let pages = io.pages_read.load(Ordering::Relaxed);
        let d = pb.segment(0, &io).unwrap();
        assert_eq!(d.start, 0);
        assert_eq!(io.pool_hits.load(Ordering::Relaxed), 1);
        assert_eq!(io.pages_read.load(Ordering::Relaxed), pages);
        // A fourth distinct segment forces an eviction; touring keeps
        // the pool at capacity and the data correct.
        pb.segment(1, &io).unwrap();
        assert_eq!(pool.resident(), 3);
        for seg in 0..4 {
            let d = pa.segment(seg, &io).unwrap();
            assert_eq!(d.cols[0].get(0), Value::Int(seg as i64 * 8));
        }
        assert!(io.pool_misses.load(Ordering::Relaxed) > 4);
    }

    #[test]
    fn pool_registry_shares_by_capacity() {
        let a = pool_for(7);
        let b = pool_for(7);
        let c = pool_for(9);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.cap(), 9);
    }

    #[test]
    fn concurrent_pool_loads_dedup_per_key() {
        let r = rel(64);
        let img = r.disk_image(8).unwrap();
        let pool = Arc::new(BufferPool::new(8));
        let io = Arc::new(IoCounters::default());
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let (img, pool, io, barrier) = (
                    Arc::clone(&img),
                    Arc::clone(&pool),
                    Arc::clone(&io),
                    Arc::clone(&barrier),
                );
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..8 {
                        let seg = (i + w * 2) % 8;
                        let p = DiskImageProvider::new(Arc::clone(&img), Arc::clone(&pool));
                        let d = p.segment(seg, &io).unwrap();
                        assert_eq!(d.start, seg * 8);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        // Capacity ≥ segment count: every segment is loaded exactly once
        // across all 4 workers (the in-flight latch dedups races).
        assert_eq!(io.pool_misses.load(Ordering::Relaxed), 8);
        assert_eq!(
            io.pool_hits.load(Ordering::Relaxed),
            4 * 8 - 8,
            "every non-first fetch must be a hit"
        );
    }

    #[test]
    fn failed_loads_release_the_in_flight_latch() {
        let pool = BufferPool::new(2);
        let io = IoCounters::default();
        let key = (u64::MAX, 0);
        let err = pool
            .get(key, &io, || Err(Error::Io("load failed".into())))
            .unwrap_err();
        assert_eq!(err, Error::Io("load failed".into()));
        assert_eq!(pool.in_flight_len(), 0, "failed load leaked its latch");
        // The key stays fetchable: a later load succeeds and installs.
        let d = pool.get(key, &io, || Ok(empty_seg(0))).unwrap();
        assert_eq!(d.len, 0);
        assert_eq!(pool.in_flight_len(), 0);
        assert_eq!(pool.resident(), 1);
    }

    fn empty_seg(start: usize) -> Arc<DecodedSegment> {
        Arc::new(DecodedSegment {
            start,
            len: 0,
            cols: Vec::new(),
            bytes: 0,
        })
    }

    /// Loads must not serialize the pool: while one fetcher is held
    /// inside the load of one key, a hit on another, resident key must
    /// still complete. If loading ever moves back under the pool lock,
    /// the hit blocks and this test fails by timeout instead of hanging
    /// the suite.
    #[test]
    fn load_does_not_hold_the_pool_lock() {
        let pool = Arc::new(BufferPool::new(3));
        let io = Arc::new(IoCounters::default());
        pool.get((u64::MAX, 1), &io, || Ok(empty_seg(4))).unwrap();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let blocked = {
            let (pool, io) = (Arc::clone(&pool), Arc::clone(&io));
            std::thread::spawn(move || {
                pool.get((u64::MAX, 0), &io, || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(empty_seg(0))
                })
                .unwrap()
            })
        };
        // Wait until the blocked fetcher is inside its load (pool lock
        // released, load held open).
        entered_rx.recv().unwrap();
        let (tx, rx) = mpsc::channel();
        let hitter = {
            let (pool, io) = (Arc::clone(&pool), Arc::clone(&io));
            std::thread::spawn(move || {
                let d = pool.get((u64::MAX, 1), &io, || unreachable!("resident key reloaded"));
                tx.send(d.unwrap().start).unwrap();
            })
        };
        let start = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("hit on a resident key serialized behind an in-flight load");
        assert_eq!(start, 4);
        release_tx.send(()).unwrap();
        assert_eq!(blocked.join().unwrap().start, 0);
        hitter.join().unwrap();
    }

    /// Two fetchers of the *same* in-flight key: the second waits on the
    /// latch and reuses the first one's load (exactly one load in total)
    /// rather than duplicating it.
    #[test]
    fn same_key_waiters_share_one_load() {
        let pool = Arc::new(BufferPool::new(2));
        let io = Arc::new(IoCounters::default());
        let loads = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicBool::new(false));
        let (entered_tx, entered_rx) = mpsc::channel();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (pool, io, loads, release, entered) = (
                    Arc::clone(&pool),
                    Arc::clone(&io),
                    Arc::clone(&loads),
                    Arc::clone(&release),
                    entered_tx.clone(),
                );
                std::thread::spawn(move || {
                    pool.get((u64::MAX, 0), &io, || {
                        loads.fetch_add(1, Ordering::SeqCst);
                        entered.send(()).unwrap();
                        while !release.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        Ok(empty_seg(0))
                    })
                    .unwrap()
                })
            })
            .collect();
        // Exactly one fetcher reaches the load; the other parks on the
        // latch. The pause only gives the loser time to park: had it
        // not arrived yet, it would hit after the install, and every
        // assertion below holds either way.
        entered_rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(loads.load(Ordering::SeqCst), 1, "duplicate load");
        release.store(true, Ordering::Release);
        let decs: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert!(Arc::ptr_eq(&decs[0], &decs[1]), "waiter got its own load");
        assert_eq!(loads.load(Ordering::SeqCst), 1);
        assert_eq!(io.pool_misses.load(Ordering::Relaxed), 1);
        assert_eq!(io.pool_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise reference the sliced `crc32` must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let t = &crc32_tables()[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..(1 << 20))
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=200 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    #[test]
    fn older_manifest_versions_are_refused_by_name() {
        let dir = tempdir();
        let mut w = DiskTableWriter::create(&dir, "t", vec!["a".into()], 4).unwrap();
        w.push(&[Value::Int(1)]).unwrap();
        drop(w.finish().unwrap());
        // Rewrite the version field as 2 (the format whose directory
        // held per-segment zone maps) and re-seal the checksum, so only
        // the version is wrong.
        let mpath = manifest_path(&dir, "t");
        let mut bytes = fs::read(&mpath).unwrap();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&2u32.to_le_bytes());
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&mpath, &bytes).unwrap();
        let err = DiskImage::open(&dir, "t").unwrap_err().to_string();
        assert!(
            err.contains("unsupported format version 2 (this build reads 3)"),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "urel-store-test-{}-{}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }
}
