//! Deterministic fault injection, cooperative cancellation, and the
//! engine's unified panic/poison recovery policy.
//!
//! The engine's correctness now depends on dozens of filesystem
//! operations — disk-store page reads, spill-run writes and merges,
//! buffer-pool leases — and the contract for all of them is: **no
//! fault may panic, leak, or corrupt**. A failing operation either
//! succeeds after a bounded retry (transient errors only) or surfaces
//! as a clean [`Error::Io`], with every spill file, pool lease and
//! lock released on the way out.
//!
//! Three pieces enforce that contract:
//!
//! * [`FaultInjector`] — a seeded, deterministic fault source threaded
//!   through every fallible I/O edge. Each edge draws one *tick*; a
//!   splitmix-style hash of `(seed, tick)` decides whether that
//!   operation fails and whether the failure is transient (retryable)
//!   or fatal. One execution owns one injector with ticks starting at
//!   0, so a `(seed, rate)` pair names a reproducible fault schedule
//!   regardless of process history. Configured via
//!   `RELALG_FAULTS=<seed>:<rate>[:<kinds>]` or
//!   [`crate::Catalog::set_faults`]; when disabled (the default) every
//!   edge short-circuits on a `None` check — no ticks, no hashing.
//! * [`CancelToken`] — cooperative cancellation checked at every batch
//!   boundary: before each batch a source cursor or a nested loop
//!   makes, so prepare-time builds and spilled-probe drains observe it
//!   too, and at each batch the pull driver hands out. A token trips
//!   either explicitly ([`CancelToken::cancel`]) or by deadline
//!   (`RELALG_DEADLINE_MS` / [`crate::Catalog::set_deadline`]); the
//!   executing query returns [`Error::Cancelled`] and its cursors and
//!   breakers drop on the way out, releasing buffer pool slots and
//!   spill directories.
//! * `catch_pull` / [`lock_recover`] — panic containment. Errors are
//!   return values all the way up: every batch cursor returns
//!   `Result`. `catch_pull` wraps the two pull drivers (prepare and
//!   `for_each_batch`) only so that a genuine panic inside a query
//!   becomes an error for that query alone. Engine critical sections
//!   keep shared state valid at every panic point, so a poisoned
//!   lock's data is safe to reuse: [`lock_recover`] recovers the guard
//!   instead of propagating the poison, which would otherwise wedge
//!   every later query — on every session — once a panic is converted
//!   to an error.

use crate::error::{Error, Result};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Fault configuration
// ---------------------------------------------------------------------------

/// The I/O edge classes faults can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Reading bytes back: disk-store page reads, spill-run records.
    Read,
    /// Writing bytes out: spill-run records, run flushes, page writes.
    Write,
    /// Opening/creating files and directories (incl. manifest open).
    Open,
    /// Acquiring a buffer-pool lease (disk segment fetches).
    Lease,
}

impl FaultKind {
    fn bit(self) -> u8 {
        match self {
            FaultKind::Read => 1,
            FaultKind::Write => 2,
            FaultKind::Open => 4,
            FaultKind::Lease => 8,
        }
    }

    fn label(self) -> &'static str {
        match self {
            FaultKind::Read => "read",
            FaultKind::Write => "write",
            FaultKind::Open => "open",
            FaultKind::Lease => "lease",
        }
    }
}

/// A set of [`FaultKind`]s (bit set; default = all kinds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultKinds(u8);

impl FaultKinds {
    /// Every kind.
    pub const ALL: FaultKinds = FaultKinds(0x0f);
    /// No kind (an injector with empty kinds never fires).
    pub const NONE: FaultKinds = FaultKinds(0);

    /// The set containing exactly `kinds`.
    pub fn of(kinds: &[FaultKind]) -> FaultKinds {
        FaultKinds(kinds.iter().fold(0, |acc, k| acc | k.bit()))
    }

    /// Is `kind` in the set?
    pub fn contains(self, kind: FaultKind) -> bool {
        self.0 & kind.bit() != 0
    }
}

impl Default for FaultKinds {
    fn default() -> Self {
        FaultKinds::ALL
    }
}

/// Static fault-injection configuration: a seed naming the schedule, a
/// failure rate, and the edge kinds it applies to. `Copy`/`Eq` so it
/// embeds in [`crate::EngineConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Schedule seed: same seed + same operation sequence = same faults.
    pub seed: u64,
    /// Failure probability per I/O edge, in parts per million.
    pub rate_ppm: u32,
    /// Edge kinds the schedule targets.
    pub kinds: FaultKinds,
}

impl FaultConfig {
    /// A schedule failing each targeted edge with probability `rate`
    /// (clamped to `[0, 1]`), across all kinds.
    pub fn new(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig {
            seed,
            rate_ppm: (rate.clamp(0.0, 1.0) * 1_000_000.0) as u32,
            kinds: FaultKinds::ALL,
        }
    }

    /// Parse `"<seed>:<rate>[:<kinds>]"` (the `RELALG_FAULTS` format):
    /// `seed` a u64, `rate` a probability in `[0, 1]`, `kinds` a
    /// comma-separated subset of `read,write,open,lease` (default all).
    /// `None` on malformed specs.
    pub fn parse(spec: &str) -> Option<FaultConfig> {
        let mut parts = spec.splitn(3, ':');
        let seed: u64 = parts.next()?.trim().parse().ok()?;
        let rate: f64 = parts.next()?.trim().parse().ok()?;
        if !(0.0..=1.0).contains(&rate) {
            return None;
        }
        let kinds = match parts.next() {
            None | Some("") => FaultKinds::ALL,
            Some(list) => {
                let mut kinds = Vec::new();
                for k in list.split(',') {
                    kinds.push(match k.trim() {
                        "read" => FaultKind::Read,
                        "write" => FaultKind::Write,
                        "open" => FaultKind::Open,
                        "lease" => FaultKind::Lease,
                        _ => return None,
                    });
                }
                FaultKinds::of(&kinds)
            }
        };
        Some(FaultConfig {
            seed,
            rate_ppm: (rate * 1_000_000.0) as u32,
            kinds,
        })
    }
}

// ---------------------------------------------------------------------------
// Runtime injector
// ---------------------------------------------------------------------------

/// splitmix64 finalizer: uniform, cheap, and stateless per tick.
fn mix(seed: u64, tick: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(tick.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-execution deterministic fault source plus the fault counters
/// [`crate::ExecStats`] reports. One injector per prepared execution,
/// ticks from zero — the schedule depends only on `(config, operation
/// sequence)`, never on process history.
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    ticks: AtomicU64,
    injected: AtomicU64,
    retries: AtomicU64,
}

impl FaultInjector {
    /// An injector running `cfg`'s schedule from tick 0.
    pub fn new(cfg: FaultConfig) -> FaultInjector {
        FaultInjector {
            cfg,
            ticks: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// Faults injected so far.
    pub fn injected(&self) -> usize {
        self.injected.load(Ordering::Relaxed) as usize
    }

    /// Transient-error retries taken so far (injected or real).
    pub fn retries(&self) -> usize {
        self.retries.load(Ordering::Relaxed) as usize
    }

    /// Count one transient-error retry.
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Draw the next tick for an edge of `kind`: `Ok(())` to proceed,
    /// or the injected failure. Roughly half the injected failures are
    /// transient ([`is_transient`]) — eligible for retry — and half
    /// fatal.
    pub fn check(&self, kind: FaultKind, what: &str) -> io::Result<()> {
        if self.cfg.rate_ppm == 0 || !self.cfg.kinds.contains(kind) {
            return Ok(());
        }
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        let h = mix(self.cfg.seed, tick);
        if (h % 1_000_000) as u32 >= self.cfg.rate_ppm {
            return Ok(());
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        let (ekind, class) = if (h >> 32) & 1 == 0 {
            (io::ErrorKind::Interrupted, "transient")
        } else {
            (io::ErrorKind::Other, "fatal")
        };
        Err(io::Error::new(
            ekind,
            format!("injected {class} {} fault: {what}", kind.label()),
        ))
    }
}

/// Check an optional injector (the disabled path is one `None` test).
#[inline]
pub fn inject(faults: Option<&FaultInjector>, kind: FaultKind, what: &str) -> io::Result<()> {
    match faults {
        Some(f) => f.check(kind, what),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Retry policy and error mapping
// ---------------------------------------------------------------------------

/// Maximum retries of one transient-failing operation before the error
/// propagates as fatal.
pub const MAX_IO_RETRIES: usize = 3;

/// Is this error transient (worth a bounded retry)? `EINTR`-class
/// conditions only; everything else — including injected fatal faults —
/// propagates immediately.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Run `op`, retrying transient failures up to [`MAX_IO_RETRIES`] times
/// with a short exponential backoff. `op` must be restartable from the
/// top (whole-object reads, opens, injection checks); mid-stream writes
/// are *not* — their callers map errors without retry.
pub fn retry_io<T>(
    faults: Option<&FaultInjector>,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt < MAX_IO_RETRIES => {
                attempt += 1;
                if let Some(f) = faults {
                    f.note_retry();
                }
                std::thread::sleep(Duration::from_micros(20 << attempt));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Map an I/O failure at `what` into the engine error.
pub fn io_error(what: &str, e: &io::Error) -> Error {
    Error::Io(format!("{what}: {e}"))
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

/// Cooperative cancellation handle: trips explicitly or by deadline.
/// Checked at every batch boundary, so a cancelled query stops
/// within one batch of work and drops its breakers (spill dirs and
/// pool leases release on the way out).
#[derive(Debug)]
pub struct CancelToken {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that trips when `deadline` elapses (measured from now),
    /// or only on explicit [`CancelToken::cancel`] when `None`.
    pub fn new(deadline: Option<Duration>) -> CancelToken {
        CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: deadline.map(|d| Instant::now() + d),
        }
    }

    /// A token without a deadline.
    pub fn unlimited() -> CancelToken {
        CancelToken::new(None)
    }

    /// Trip the token; every later [`CancelToken::check`] fails.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has the token tripped (explicitly or by deadline)?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Has a pull *observed* the trip? Unlike [`CancelToken::is_cancelled`]
    /// this reads only the latched flag — a deadline that elapsed after
    /// the query already finished does not count.
    pub fn tripped(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// `Err(Error::Cancelled)` once tripped. The deadline branch
    /// latches the flag so the cheap atomic path answers from then on.
    pub fn check(&self) -> Result<()> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(Error::Cancelled("query cancelled".into()));
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.cancelled.store(true, Ordering::Relaxed);
                return Err(Error::Cancelled("deadline exceeded".into()));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Panic containment and lock-poison recovery
// ---------------------------------------------------------------------------

/// Run a pull, containing a genuine panic as `Error::Invalid` with the
/// panic message (errors are return values and never unwind). The
/// closure is `AssertUnwindSafe`: everything it touches either cleans
/// up on `Drop` or is re-validated by [`lock_recover`] on next
/// acquisition.
pub(crate) fn catch_pull<T>(f: impl FnOnce() -> T) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic payload".into());
        Error::Invalid(format!("query panicked: {msg}"))
    })
}

/// The engine's single lock-poison policy: recover the guard. Engine
/// critical sections leave shared state valid at every panic point
/// (caches hold immutable `Arc`s; counters are monotone), so a poisoned
/// mutex's data is safe to reuse — and with panics converted to errors
/// at the pull drivers, propagating poison would wedge every subsequent
/// query, on every session, for no protection in return.
pub fn lock_recover<T>(lock: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    lock.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Leak check used by the fault suite: after an execution ends —
/// success, clean error, or cancellation — its spill directory must be
/// gone and the shared buffer pool must hold no in-flight leases.
pub fn assert_no_leaks(spill_dir: Option<&std::path::Path>, pool_in_flight: usize) {
    if let Some(dir) = spill_dir {
        assert!(!dir.exists(), "leaked spill directory: {}", dir.display());
    }
    assert_eq!(pool_in_flight, 0, "buffer pool leaked in-flight leases");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_full_and_minimal_specs() {
        let c = FaultConfig::parse("42:0.01").unwrap();
        assert_eq!(c.seed, 42);
        assert_eq!(c.rate_ppm, 10_000);
        assert_eq!(c.kinds, FaultKinds::ALL);
        let c = FaultConfig::parse("7:0.5:read,lease").unwrap();
        assert!(c.kinds.contains(FaultKind::Read));
        assert!(c.kinds.contains(FaultKind::Lease));
        assert!(!c.kinds.contains(FaultKind::Write));
        assert!(FaultConfig::parse("x:0.1").is_none());
        assert!(FaultConfig::parse("1:2.0").is_none());
        assert!(FaultConfig::parse("1:0.1:bogus").is_none());
        assert!(FaultConfig::parse("1").is_none());
    }

    #[test]
    fn schedules_are_deterministic_and_rate_bounded() {
        let run = |seed| {
            let inj = FaultInjector::new(FaultConfig::new(seed, 0.05));
            (0..10_000)
                .map(|i| inj.check(FaultKind::Read, &format!("op{i}")).is_err())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(1), run(1), "same seed, same schedule");
        assert_ne!(run(1), run(2), "different seeds diverge");
        let hits = run(1).iter().filter(|&&b| b).count();
        // 5% nominal over 10k draws: comfortably within [1%, 10%].
        assert!((100..1000).contains(&hits), "rate off: {hits}");
    }

    #[test]
    fn disabled_kinds_and_zero_rate_never_fire() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 3,
            rate_ppm: 1_000_000,
            kinds: FaultKinds::of(&[FaultKind::Write]),
        });
        for _ in 0..100 {
            assert!(inj.check(FaultKind::Read, "r").is_ok());
            assert!(inj.check(FaultKind::Lease, "l").is_ok());
        }
        assert!(inj.check(FaultKind::Write, "w").is_err());
        let off = FaultInjector::new(FaultConfig::new(9, 0.0));
        assert!((0..100).all(|_| off.check(FaultKind::Open, "o").is_ok()));
        assert_eq!(off.injected(), 0);
    }

    #[test]
    fn retry_io_retries_transient_and_propagates_fatal() {
        let mut left = 2;
        let v = retry_io(None, || {
            if left > 0 {
                left -= 1;
                Err(io::Error::new(io::ErrorKind::Interrupted, "eintr"))
            } else {
                Ok(7)
            }
        })
        .unwrap();
        assert_eq!(v, 7);
        let e = retry_io(None, || Err::<(), _>(io::Error::other("disk on fire"))).unwrap_err();
        assert!(!is_transient(&e));
        // Transient forever: bounded, then the transient error surfaces.
        let mut calls = 0;
        let e = retry_io(None, || {
            calls += 1;
            Err::<(), _>(io::Error::new(io::ErrorKind::Interrupted, "eintr"))
        })
        .unwrap_err();
        assert!(is_transient(&e));
        assert_eq!(calls, 1 + MAX_IO_RETRIES);
    }

    #[test]
    fn cancel_token_trips_on_deadline_and_explicitly() {
        let t = CancelToken::unlimited();
        assert!(t.check().is_ok());
        t.cancel();
        assert!(matches!(t.check(), Err(Error::Cancelled(_))));
        let t = CancelToken::new(Some(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert!(matches!(t.check(), Err(Error::Cancelled(_))));
    }

    #[test]
    fn catch_pull_contains_raw_panics() {
        let r = catch_pull(|| -> i32 { panic!("raw panic {}", 1) });
        match r {
            Err(Error::Invalid(msg)) => assert!(msg.contains("raw panic 1")),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(catch_pull(|| 5), Ok(5));
    }

    #[test]
    fn lock_recover_survives_poison() {
        let m = std::sync::Mutex::new(1);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 1);
    }
}
