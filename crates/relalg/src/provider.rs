//! Image providers: the seam between segmented storage and scans.
//!
//! An [`ImageProvider`] hands scan cursors decoded segments of one
//! relation's image — in-memory compressed segments or on-disk segment
//! files — behind a layout interface (`seg_rows`/`zone`) so the cursor
//! never needs to know where the bytes live. There are two
//! implementations:
//!
//! * [`MemImageProvider`] decodes each segment at most once and keeps it
//!   resident — the segmented analog of the plain in-memory image;
//! * [`crate::store::DiskImageProvider`] reads encoded segments from a
//!   page file and leases them from the [`crate::store::BufferPool`].
//!
//! Providers are created per scan node at prepare time and shared by
//! all workers of that scan. The resident provider's cache is private
//! to its scan; disk scans share one clock-eviction pool per capacity
//! across relations and queries (keyed by process-unique image id), so
//! one knob bounds the decoded working set.
//!
//! **Locking discipline:** a pooled fetch never decodes or reads disk
//! under the pool lock: the pool registers a miss as *in-flight*,
//! releases its lock, pays the load, then re-locks to install it (see
//! [`crate::store::BufferPool::get`]).

use crate::error::Result;
use crate::fault::{self, FaultInjector};
use crate::segment::{DecodedSegment, SegmentedImage, ZoneMap};
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Storage-side counters shared by every cursor of one execution:
/// bytes materialized by fresh decodes, pages read from segment files,
/// and buffer-pool hit/miss tallies. Atomics because parallel morsel
/// workers bump them concurrently. Also carries the execution's fault
/// injector (if any) down to the storage edges — read and lease faults
/// draw their ticks through here.
#[derive(Debug, Default)]
pub struct IoCounters {
    /// Approximate bytes materialized by fresh segment decodes (pool
    /// and resident-cache hits add nothing).
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

/// Serves decoded segments of one relation image to scan cursors.
///
/// The layout accessors (`seg_rows`, `seg_count`, `zone`) expose just
/// enough of the image for a cursor to walk segment boundaries and
/// consult zone maps without decoding — identically for in-memory and
/// on-disk backends.
pub trait ImageProvider: Send + Sync + Debug {
    /// Rows per segment (the last segment may be short).
    fn seg_rows(&self) -> usize;

    /// Number of segments.
    fn seg_count(&self) -> usize;

    /// The zone map of (column `col`, segment `seg`).
    fn zone(&self, col: usize, seg: usize) -> &ZoneMap;

    /// A decoded view of segment `seg`. Every *fresh* decode adds the
    /// segment's materialized size to `io.decoded_bytes` (cache hits add
    /// nothing), which is how [`crate::exec::ExecStats`] observes decode
    /// traffic and cache effectiveness; the disk provider also accounts
    /// pages read and pool hits/misses.
    /// Fallible: disk reads can fail for real, and the pool-lease and
    /// disk-read edges draw from `io`'s fault injector when one is
    /// configured.
    fn segment(&self, seg: usize, io: &IoCounters) -> Result<Arc<DecodedSegment>>;
}

/// Decode-once, keep-forever provider: segment `s` is decoded by the
/// first cursor that touches it and stays resident for the query.
pub struct MemImageProvider {
    image: Arc<SegmentedImage>,
    decoded: Mutex<Vec<Option<Arc<DecodedSegment>>>>,
}

impl MemImageProvider {
    /// Provider over `image` with an empty decode cache.
    pub fn new(image: Arc<SegmentedImage>) -> Self {
        let slots = image.seg_count();
        MemImageProvider {
            image,
            decoded: Mutex::new(vec![None; slots]),
        }
    }
}

impl Debug for MemImageProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemImageProvider")
            .field("segments", &self.image.seg_count())
            .finish()
    }
}

impl ImageProvider for MemImageProvider {
    fn seg_rows(&self) -> usize {
        self.image.seg_rows()
    }

    fn seg_count(&self) -> usize {
        self.image.seg_count()
    }

    fn zone(&self, col: usize, seg: usize) -> &ZoneMap {
        self.image.zone(col, seg)
    }

    fn segment(&self, seg: usize, io: &IoCounters) -> Result<Arc<DecodedSegment>> {
        // A resident segment is a pure lock-and-clone; a miss decodes
        // under the lock. That is fine *here*: the cache is unbounded,
        // so each segment is decoded exactly once per provider and a
        // blocked peer would only have re-decoded the same segment.
        let mut slots = fault::lock_recover(&self.decoded);
        if let Some(d) = &slots[seg] {
            return Ok(Arc::clone(d));
        }
        let d = Arc::new(self.image.decode(seg));
        io.decoded(d.bytes);
        slots[seg] = Some(Arc::clone(&d));
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn image(rows: usize, seg_rows: usize) -> Arc<SegmentedImage> {
        let rows: Vec<crate::relation::Row> = (0..rows)
            .map(|i| vec![Value::Int(i as i64)].into_boxed_slice())
            .collect();
        Arc::new(SegmentedImage::build(1, &rows, seg_rows))
    }

    #[test]
    fn mem_provider_decodes_each_segment_once() {
        let p = MemImageProvider::new(image(10, 4));
        let io = IoCounters::default();
        let a = p.segment(0, &io).unwrap();
        let after_first = io.decoded_bytes.load(Ordering::Relaxed);
        assert!(after_first > 0);
        let b = p.segment(0, &io).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(io.decoded_bytes.load(Ordering::Relaxed), after_first); // cache hit
        assert_eq!(a.start, 0);
        assert_eq!(a.len, 4);
        assert_eq!(p.segment(2, &io).unwrap().len, 2); // tail segment
        assert_eq!(p.seg_rows(), 4);
        assert_eq!(p.seg_count(), 3);
        assert_eq!(p.zone(0, 0).min, Value::Int(0));
    }
}
