//! Deterministic fault-injection and cancellation suite (PR 8).
//!
//! The engine's failure contract: under any injected fault schedule a
//! query either returns **byte-identical** results (transient faults
//! absorbed by bounded retries) or a **clean error** — never a panic,
//! never a wrong answer — and afterwards no spill files, buffer-pool
//! leases or poisoned locks remain. These tests drive that contract:
//!
//! * 256 seeded schedules (seeds 0..256, on disk storage through four
//!   distinct pool capacities) over a spilling join +
//!   distinct plan, with a per-schedule result/error check and a
//!   per-schedule leak check;
//! * an anti-no-op guard: across the whole sweep the injector must have
//!   actually fired, so the suite cannot silently degrade into a plain
//!   differential re-run;
//! * query deadlines: an expired deadline surfaces as
//!   [`Error::Cancelled`], the `cancelled` stat is set, and every
//!   resource is released;
//! * cooperative cancellation from another thread via
//!   [`exec::Streamed::cancel_token`];
//! * the CI `faults` leg's no-op guard: when `RELALG_FAULTS` is set the
//!   engine default must pick it up and a workload must observe
//!   injected faults.

use std::time::Duration;
use u_relations::relalg::store::pool_for;
use u_relations::relalg::{
    col, exec, fault, lit_i64, Catalog, EngineConfig, Error, FaultConfig, Plan, Relation,
    StorageMode, Value,
};

/// `t(k, g, v)`: enough rows for several segments per storage mode and
/// for the distinct seen-set to cross a few-KiB budget.
fn t_rel(n: i64) -> Relation {
    Relation::from_rows(
        ["k", "g", "v"],
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i % 8), Value::Int(i * 7 % 13)])
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

/// The 8-row join partner `u(r)`.
fn u_rel() -> Relation {
    Relation::from_rows(
        ["r"],
        (0..8i64).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(),
    )
    .unwrap()
}

/// σ + equi-join + project + distinct: crosses the segment-read, lease
/// and spill edges in one plan.
fn plan() -> Plan {
    Plan::scan("t")
        .select(col("k").ge(lit_i64(0)))
        .join(Plan::scan("u"), col("g").eq(col("r")))
        .project_names(["g", "v"])
        .distinct()
}

/// A disk-storage catalog pinned against the process environment:
/// every knob the CI matrix can set (`RELALG_FAULTS`,
/// `RELALG_DEADLINE_MS`, `RELALG_STORAGE`, `RELALG_MEM_BUDGET`) is
/// overridden explicitly so each test controls its own schedule.
fn catalog(pool_cap: usize) -> Catalog {
    let mut c = Catalog::new();
    c.set_storage(StorageMode::Disk);
    c.set_segment_layout(16, 2);
    c.set_buffer_pool(pool_cap);
    c.set_mem_budget(4 << 10);
    c.set_faults(None);
    c.set_deadline(None);
    c.insert("t", t_rel(400));
    c.insert("u", u_rel());
    c
}

/// Run `plan()` under one fault schedule; return `(result, injected,
/// retried)` and leak-check the execution's spill directory and buffer
/// pool on the way out.
fn run_schedule(
    pool_cap: usize,
    faults: Option<FaultConfig>,
) -> (Result<Vec<u_relations::relalg::Row>, Error>, usize, usize) {
    let mut cat = catalog(pool_cap);
    cat.set_faults(faults);
    let (res, injected, retries, spill_dir) = match exec::stream(&plan(), &cat) {
        Ok(streamed) => {
            let res = streamed.collect_rows(None);
            let stats = streamed.stats();
            let dir = streamed.spill_dir();
            drop(streamed);
            (res, stats.faults_injected, stats.retries, dir)
        }
        // Faults during prepare (build sides, storage setup) surface as
        // clean errors too; the per-execution injector died with the
        // failed stream, so its counters are gone — count 0.
        Err(e) => (Err(e), 0, 0, None),
    };
    fault::assert_no_leaks(spill_dir.as_deref(), pool_for(pool_cap).in_flight_len());
    (res, injected, retries)
}

#[test]
fn fault_schedules_are_byte_identical_or_clean_errors() {
    // 256 schedules on disk storage; each quarter of the seeds runs
    // through its own pool capacity.
    let mut injected_total = 0usize;
    let mut retried_total = 0usize;
    let mut failed = 0usize;
    let mut ran = 0usize;
    for (pool_cap, seeds) in [
        (17, 0..64u64),
        (19, 64..128),
        (21, 128..192),
        (23, 192..256),
    ] {
        let (baseline, _, _) = run_schedule(pool_cap, None);
        let baseline = baseline.unwrap_or_else(|e| panic!("pool {pool_cap} baseline: {e}"));
        assert!(!baseline.is_empty());
        for seed in seeds {
            let (res, injected, retries) =
                run_schedule(pool_cap, Some(FaultConfig::new(seed, 0.001)));
            injected_total += injected;
            retried_total += retries;
            ran += 1;
            match res {
                Ok(rows) => assert_eq!(
                    rows, baseline,
                    "pool {pool_cap} seed {seed}: survived faults but diverged"
                ),
                Err(e) => {
                    // A clean, displayable error — any variant; the
                    // absence of panics and leaks is the contract.
                    assert!(!e.to_string().is_empty());
                    failed += 1;
                }
            }
        }
    }
    assert_eq!(ran, 256);
    // Anti-no-op guards: the schedules must actually have fired, some
    // runs must have died (fatal faults exist), some survived (the
    // engine absorbs transients rather than failing every run).
    assert!(
        injected_total > 0,
        "no faults injected across 256 schedules"
    );
    assert!(retried_total > 0, "no transient fault was ever retried");
    assert!(failed > 0, "no schedule produced an error — rate too low");
    assert!(
        failed < ran,
        "every schedule failed — retries are not absorbing transients"
    );
}

#[test]
fn expired_deadline_cancels_cleanly_and_releases_resources() {
    let mut cat = catalog(25);
    cat.set_deadline(Some(Duration::from_millis(0)));
    match exec::stream(&plan(), &cat) {
        Ok(streamed) => {
            let err = streamed.collect_rows(None).unwrap_err();
            assert!(matches!(err, Error::Cancelled(_)), "{err}");
            assert!(err.to_string().contains("deadline"), "{err}");
            let stats = streamed.stats();
            assert!(stats.cancelled, "{stats:?}");
            let dir = streamed.spill_dir();
            drop(streamed);
            fault::assert_no_leaks(dir.as_deref(), pool_for(25).in_flight_len());
        }
        // Prepare itself may observe the deadline first.
        Err(e) => assert!(matches!(e, Error::Cancelled(_)), "{e}"),
    }
    // The same catalog without the deadline still answers (the token is
    // per-execution, not process state).
    cat.set_deadline(None);
    let rows = exec::stream(&plan(), &cat)
        .unwrap()
        .collect_rows(None)
        .unwrap();
    assert!(!rows.is_empty());
}

#[test]
fn cancel_token_stops_a_query_from_another_thread() {
    let cat = catalog(27);
    let streamed = exec::stream(&plan(), &cat).unwrap();
    let token = streamed.cancel_token();
    std::thread::spawn(move || token.cancel()).join().unwrap();
    let err = streamed.collect_rows(None).unwrap_err();
    assert!(matches!(err, Error::Cancelled(_)), "{err}");
    let stats = streamed.stats();
    assert!(stats.cancelled, "{stats:?}");
    let dir = streamed.spill_dir();
    drop(streamed);
    fault::assert_no_leaks(dir.as_deref(), pool_for(27).in_flight_len());
}

#[test]
fn faults_env_leg_actually_injects() {
    // The CI `faults` matrix leg runs this test binary under
    // `RELALG_FAULTS=<seed>:<rate>`; outside the leg there is nothing
    // to guard.
    if std::env::var("RELALG_FAULTS").is_err() {
        return;
    }
    let default = EngineConfig::default();
    assert!(
        default.faults.is_some(),
        "RELALG_FAULTS is set but the engine default ignored it"
    );
    // An env-configured catalog (storage from RELALG_STORAGE, faults
    // from RELALG_FAULTS): across a handful of executions the schedule
    // must observably fire — injected faults, retries, or failed runs.
    let mut injected = 0usize;
    let mut retried = 0usize;
    let mut failed = 0usize;
    for _ in 0..8 {
        let mut cat = Catalog::new();
        cat.set_segment_layout(16, 2);
        cat.set_buffer_pool(29);
        cat.set_mem_budget(4 << 10);
        cat.set_deadline(None);
        cat.insert("t", t_rel(400));
        cat.insert("u", u_rel());
        match exec::stream(&plan(), &cat) {
            Ok(streamed) => {
                let res = streamed.collect_rows(None);
                let stats = streamed.stats();
                injected += stats.faults_injected;
                retried += stats.retries;
                failed += usize::from(res.is_err());
            }
            Err(_) => failed += 1,
        }
    }
    assert!(
        injected + retried + failed > 0,
        "fault leg ran 8 executions without a single observable fault"
    );
}
