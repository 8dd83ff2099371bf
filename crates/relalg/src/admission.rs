//! Admission control for concurrent query execution.
//!
//! A process serving many sessions over one engine needs a gate between
//! "a request arrived" and "a query is executing": without one, every
//! concurrent request runs on its own thread against the shared buffer
//! pool at once, and a single heavy query queued behind
//! dozens of its clones starves the fleet. The [`AdmissionGate`] bounds
//! how many queries *execute* concurrently and how many may *wait*;
//! everything beyond those bounds is shed immediately with
//! [`Error::Cancelled`].
//!
//! The gate sits strictly **before** execution resources: a request
//! that is shed — queue full, or its deadline expired while it waited —
//! has never started executing, never leased a buffer-pool slot, and
//! never created a spill directory. That ordering
//! is the contract the server's deadline semantics rely on (a queued
//! request past its deadline must fail with `Error::Cancelled` and
//! leak nothing), and `tests/server.rs` pins it with
//! [`crate::fault::assert_no_leaks`].
//!
//! Blocking is a plain `Mutex` + `Condvar` pair: admission happens per
//! request (milliseconds apart), never per row, so lock-free cleverness
//! would buy nothing. Fairness is FIFO-by-wakeup — `notify_all` plus a
//! re-check loop — which is enough at the queue depths the gate allows.

use crate::error::{Error, Result};
use crate::fault::lock_recover;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Counters the gate maintains; all monotone except `in_flight`.
/// Snapshot with [`AdmissionGate::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests that acquired an execution slot.
    pub admitted: usize,
    /// Requests that had to wait for a slot before admission.
    pub queued: usize,
    /// Requests shed because the wait queue was already full.
    pub shed_queue_full: usize,
    /// Requests shed because their deadline expired while queued.
    pub shed_deadline: usize,
    /// Queries executing right now.
    pub in_flight: usize,
    /// High-water mark of concurrently executing queries.
    pub peak_in_flight: usize,
}

impl AdmissionStats {
    /// Total shed requests, whatever the reason.
    pub fn shed(&self) -> usize {
        self.shed_queue_full + self.shed_deadline
    }
}

/// Interior state guarded by the gate's mutex.
#[derive(Default)]
struct GateState {
    in_flight: usize,
    waiting: usize,
    stats: AdmissionStats,
}

/// A bounded gate in front of query execution: at most `max_concurrent`
/// queries run at once, at most `max_queue` wait for a slot, and
/// everything else is shed with [`Error::Cancelled`]. See the module
/// docs for the resource-ordering contract.
#[derive(Debug)]
pub struct AdmissionGate {
    state: Mutex<GateState>,
    freed: Condvar,
    max_concurrent: usize,
    max_queue: usize,
}

impl std::fmt::Debug for GateState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateState")
            .field("in_flight", &self.in_flight)
            .field("waiting", &self.waiting)
            .finish()
    }
}

impl AdmissionGate {
    /// A gate admitting `max_concurrent` concurrent queries (floored
    /// at 1) with a wait queue of `max_queue` requests (0 = shed the
    /// moment every slot is busy).
    pub fn new(max_concurrent: usize, max_queue: usize) -> Arc<AdmissionGate> {
        Arc::new(AdmissionGate {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            max_concurrent: max_concurrent.max(1),
            max_queue,
        })
    }

    /// The concurrent-execution bound.
    pub fn max_concurrent(&self) -> usize {
        self.max_concurrent
    }

    /// The wait-queue bound.
    pub fn max_queue(&self) -> usize {
        self.max_queue
    }

    /// Acquire an execution slot, waiting until one frees up or
    /// `deadline` passes. Sheds with [`Error::Cancelled`] when the
    /// queue is full on arrival or the deadline expires while queued —
    /// in both cases without having touched any execution resource.
    /// The returned permit releases the slot on drop (unwind included).
    pub fn acquire(self: &Arc<Self>, deadline: Option<Instant>) -> Result<AdmissionPermit> {
        let mut st = lock_recover(&self.state);
        if st.in_flight < self.max_concurrent {
            return Ok(self.admit(&mut st));
        }
        if st.waiting >= self.max_queue {
            st.stats.shed_queue_full += 1;
            return Err(Error::Cancelled(format!(
                "shed: admission queue full ({} executing, {} queued)",
                st.in_flight, st.waiting
            )));
        }
        st.waiting += 1;
        st.stats.queued += 1;
        loop {
            if st.in_flight < self.max_concurrent {
                st.waiting -= 1;
                return Ok(self.admit(&mut st));
            }
            match deadline {
                None => st = self.freed.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        st.waiting -= 1;
                        st.stats.shed_deadline += 1;
                        return Err(Error::Cancelled(
                            "shed: deadline expired while queued for admission".into(),
                        ));
                    }
                    let (guard, _timeout) = self
                        .freed
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
            }
        }
    }

    /// Record an admission under the held lock and hand out the permit.
    fn admit(self: &Arc<Self>, st: &mut GateState) -> AdmissionPermit {
        st.in_flight += 1;
        st.stats.admitted += 1;
        st.stats.peak_in_flight = st.stats.peak_in_flight.max(st.in_flight);
        AdmissionPermit {
            gate: Arc::clone(self),
        }
    }

    /// Snapshot the counters (`in_flight` reflects this instant).
    pub fn stats(&self) -> AdmissionStats {
        let st = lock_recover(&self.state);
        AdmissionStats {
            in_flight: st.in_flight,
            ..st.stats
        }
    }
}

/// An execution slot held by an admitted query; dropping it (normally
/// or during unwind) frees the slot and wakes one queued request.
#[derive(Debug)]
pub struct AdmissionPermit {
    gate: Arc<AdmissionGate>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut st = lock_recover(&self.gate.state);
        st.in_flight -= 1;
        drop(st);
        // notify_all (not _one): a timed-out waiter that woke for its
        // deadline check consumes no slot, so a single notify could be
        // lost on it while a live waiter sleeps on.
        self.gate.freed.notify_all();
    }
}

/// A global shed counter independent of any one gate, for harnesses
/// that aggregate across servers (test hook; monotone).
static TOTAL_SHED: AtomicUsize = AtomicUsize::new(0);

/// Record `n` shed requests in the process-wide counter.
pub fn note_shed(n: usize) {
    TOTAL_SHED.fetch_add(n, Ordering::Relaxed);
}

/// The process-wide shed count.
pub fn total_shed() -> usize {
    TOTAL_SHED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn admits_up_to_the_bound_then_sheds_with_empty_queue() {
        let gate = AdmissionGate::new(2, 0);
        let a = gate.acquire(None).unwrap();
        let b = gate.acquire(None).unwrap();
        let err = gate.acquire(None).unwrap_err();
        assert!(matches!(err, Error::Cancelled(_)), "{err}");
        let s = gate.stats();
        assert_eq!((s.admitted, s.shed_queue_full, s.in_flight), (2, 1, 2));
        drop(a);
        let _c = gate.acquire(None).unwrap();
        drop(b);
        assert_eq!(gate.stats().in_flight, 1);
        assert_eq!(gate.stats().peak_in_flight, 2);
    }

    #[test]
    fn queued_request_admits_once_a_slot_frees() {
        let gate = AdmissionGate::new(1, 4);
        let held = gate.acquire(None).unwrap();
        let g2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || g2.acquire(None).map(|_| ()));
        // Let the waiter actually queue before freeing the slot.
        while gate.stats().queued == 0 {
            std::thread::yield_now();
        }
        drop(held);
        waiter.join().unwrap().unwrap();
        let s = gate.stats();
        assert_eq!((s.admitted, s.queued, s.shed()), (2, 1, 0));
        assert_eq!(s.in_flight, 0);
    }

    #[test]
    fn deadline_expiring_while_queued_sheds_cancelled() {
        let gate = AdmissionGate::new(1, 4);
        let _held = gate.acquire(None).unwrap();
        let deadline = Instant::now() + Duration::from_millis(30);
        let err = gate.acquire(Some(deadline)).unwrap_err();
        match err {
            Error::Cancelled(msg) => assert!(msg.contains("deadline"), "{msg}"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let s = gate.stats();
        assert_eq!(s.shed_deadline, 1);
        assert_eq!(s.in_flight, 1);
        // The shed request left no queue residue.
        assert_eq!(lock_recover(&gate.state).waiting, 0);
    }

    #[test]
    fn already_expired_deadline_sheds_without_waiting() {
        let gate = AdmissionGate::new(1, 4);
        let _held = gate.acquire(None).unwrap();
        let t0 = Instant::now();
        let err = gate.acquire(Some(t0)).unwrap_err();
        assert!(matches!(err, Error::Cancelled(_)));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn permit_drop_during_unwind_frees_the_slot() {
        let gate = AdmissionGate::new(1, 0);
        let g2 = Arc::clone(&gate);
        let _ = std::panic::catch_unwind(move || {
            let _p = g2.acquire(None).unwrap();
            panic!("query died");
        });
        // Slot must be free again.
        assert_eq!(gate.stats().in_flight, 0);
        let _p = gate.acquire(None).unwrap();
    }

    #[test]
    fn stats_shed_totals_and_process_counter() {
        let s = AdmissionStats {
            shed_queue_full: 2,
            shed_deadline: 3,
            ..Default::default()
        };
        assert_eq!(s.shed(), 5);
        let before = total_shed();
        note_shed(4);
        assert_eq!(total_shed(), before + 4);
    }

    #[test]
    fn contended_gate_never_exceeds_bound() {
        let gate = AdmissionGate::new(3, 64);
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..16)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let peak = Arc::clone(&peak);
                let live = Arc::clone(&live);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let _p = gate.acquire(None).unwrap();
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 3);
        assert_eq!(gate.stats().admitted, 320);
        assert_eq!(gate.stats().in_flight, 0);
        assert!(gate.stats().peak_in_flight <= 3);
    }
}
