//! Deterministic tests of the memory-budget spill subsystem (PR 5).
//!
//! The differential suites in `exec_differential.rs` prove byte-identity
//! on random plans; these tests pin the individual spill mechanisms on
//! workloads *sized to spill*:
//!
//! * distinct / difference seen-set spill (candidate runs resolved at
//!   end of input, first-occurrence order preserved);
//! * hybrid-hash join build spill, including the recursive
//!   re-partitioning path (skewed keys that refuse to split) and the
//!   split path (diverse keys);
//! * scoped spill-directory cleanup after completed *and* aborted
//!   (panicking) executions;
//! * the CI `mem-budget` leg's no-op guard: when `RELALG_MEM_BUDGET` is
//!   set, the engine must actually pick it up and a modest workload
//!   must actually spill — so the matrix leg cannot silently degrade
//!   into a plain re-run of the suite.

use u_relations::relalg::{col, exec, lit_i64, Catalog, EngineConfig, Plan, Relation, Value};

/// A relation big enough that a few-KiB budget forces every breaker to
/// spill: `n` rows of `(i, i % m, tag)`.
fn big_rel(n: i64, m: i64) -> Relation {
    Relation::from_rows(
        ["k", "g", "v"],
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i % m), Value::Int(i * 7 % 13)])
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

/// A catalog with the budget explicitly *disabled*, so baseline
/// ("unbounded") runs stay unbounded even when the test process itself
/// runs under `RELALG_MEM_BUDGET` (as the CI mem-budget leg does).
fn unbounded_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.set_mem_budget(0);
    c
}

fn budgeted(catalog: &Catalog, bytes: usize) -> Catalog {
    let mut c = catalog.clone();
    c.set_mem_budget(bytes);
    c
}

#[test]
fn distinct_seen_set_spill_is_byte_identical() {
    let mut cat = unbounded_catalog();
    cat.insert("t", big_rel(4000, 300));
    // Distinct over a projection: ~300 distinct (g, v) pairs seen over
    // 4000 input rows, revisited in a skewed order.
    let plan = Plan::scan("t").project_names(["g", "v"]).distinct();
    let unbounded = exec::stream(&plan, &cat).unwrap();
    let want = unbounded.collect_rows().unwrap();
    assert_eq!(unbounded.stats().spill_events, 0);
    for budget in [2048, 512] {
        let c = budgeted(&cat, budget);
        let streamed = exec::stream(&plan, &c).unwrap();
        let rows = streamed.collect_rows().unwrap();
        assert_eq!(rows, want, "distinct spill diverges at budget {budget}");
        let stats = streamed.stats();
        assert!(stats.spill_events > 0, "expected spills: {stats:?}");
        assert!(stats.spilled_bytes > 0, "{stats:?}");
        assert!(stats.peak_tracked_bytes > 0, "{stats:?}");
    }
}

#[test]
fn difference_seen_set_spill_is_byte_identical() {
    let mut cat = unbounded_catalog();
    cat.insert("t", big_rel(3000, 200));
    cat.insert("u", big_rel(600, 200));
    let plan = Plan::scan("t").project_names(["g"]).difference(
        Plan::scan("u")
            .select(col("k").lt(lit_i64(100)))
            .project_names(["g"]),
    );
    let want = exec::stream(&plan, &cat).unwrap().collect_rows().unwrap();
    let c = budgeted(&cat, 1024);
    let streamed = exec::stream(&plan, &c).unwrap();
    assert_eq!(streamed.collect_rows().unwrap(), want);
    assert!(streamed.stats().spill_events > 0, "{:?}", streamed.stats());
}

/// Hybrid-hash spill where the build side's keys are *diverse*: the
/// first-level partitions are each over the budget and recursion splits
/// them further, yet output order must survive the partition shuffle.
#[test]
fn join_build_spill_with_recursion_is_byte_identical() {
    let mut cat = unbounded_catalog();
    cat.insert("probe", big_rel(2000, 97));
    cat.insert("build", big_rel(1000, 97));
    // Both sides are *computed* (σ over a scan) so the executor's
    // source-build bias cannot pick a zero-copy side; the smaller right
    // side buffers, and only buffered builds spill. Joining g = g'
    // with ~97 key values leaves every digest partition far over a
    // 1 KiB budget, forcing recursive re-partitioning.
    let plan = Plan::scan("probe")
        .select(col("k").ge(lit_i64(0)))
        .rename("p")
        .join(
            Plan::scan("build")
                .select(col("k").lt(lit_i64(990)))
                .rename("b"),
            col("p.g").eq(col("b.g")),
        );
    let want = exec::stream(&plan, &cat).unwrap().collect_rows().unwrap();
    assert!(!want.is_empty());
    let c = budgeted(&cat, 1024);
    let streamed = exec::stream(&plan, &c).unwrap();
    assert_eq!(streamed.collect_rows().unwrap(), want);
    let stats = streamed.stats();
    // The build spill itself plus recursive re-partitioning events.
    assert!(stats.spill_events > 1, "{stats:?}");
    // Re-pulling the same prepared execution re-probes the same spilled
    // build and must reproduce the result.
    assert_eq!(streamed.collect_rows().unwrap(), want);
}

/// Hybrid-hash spill under *key skew*: one key dominates, so its
/// partition can never shrink below the budget — recursion must stop at
/// the depth cap and build the partition in memory regardless.
#[test]
fn join_build_spill_with_skewed_keys_hits_depth_cap_and_stays_correct() {
    let mut cat = unbounded_catalog();
    let skewed = Relation::from_rows(
        ["k", "g", "v"],
        (0..800i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 2), Value::Int(i)])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    cat.insert("probe", big_rel(400, 2));
    cat.insert("build", skewed);
    let plan = Plan::scan("probe")
        .select(col("k").ge(lit_i64(0)))
        .rename("p")
        .join(
            Plan::scan("build")
                .select(col("k").ge(lit_i64(0)))
                .rename("b"),
            col("p.g").eq(col("b.g")),
        );
    let want = exec::stream(&plan, &cat).unwrap().collect_rows().unwrap();
    assert!(!want.is_empty());
    let c = budgeted(&cat, 512);
    let streamed = exec::stream(&plan, &c).unwrap();
    assert_eq!(streamed.collect_rows().unwrap(), want);
    assert!(streamed.stats().spill_events > 0, "{:?}", streamed.stats());
}

#[test]
fn spill_directory_is_removed_after_a_completed_run() {
    let mut cat = unbounded_catalog();
    cat.insert("t", big_rel(4000, 300));
    let plan = Plan::scan("t").project_names(["g", "v"]).distinct();
    let c = budgeted(&cat, 1024);
    let streamed = exec::stream(&plan, &c).unwrap();
    let rows = streamed.collect_rows().unwrap();
    assert!(!rows.is_empty());
    let dir = streamed
        .spill_dir()
        .expect("a spilling run has a directory");
    assert!(dir.exists(), "spill dir should exist while streamed lives");
    drop(streamed);
    assert!(!dir.exists(), "spill dir must be removed on drop: {dir:?}");
}

#[test]
fn spill_directory_is_removed_after_an_aborted_run() {
    use std::sync::{Arc, Mutex};
    let dir_slot: Arc<Mutex<Option<std::path::PathBuf>>> = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&dir_slot);
    let result = std::panic::catch_unwind(move || {
        let mut cat = unbounded_catalog();
        cat.insert("probe", big_rel(400, 7));
        cat.insert("build", big_rel(900, 7));
        let mut c = cat;
        c.set_mem_budget(512);
        // The computed build side (both sides computed: no source-build
        // bias) spills at *prepare* time, so the directory exists
        // before the panic mid-pull.
        let plan = Plan::scan("probe")
            .select(col("k").ge(lit_i64(0)))
            .rename("p")
            .join(
                Plan::scan("build")
                    .select(col("k").ge(lit_i64(0)))
                    .rename("b"),
                col("p.g").eq(col("b.g")),
            );
        let streamed = exec::stream(&plan, &c).unwrap();
        // Recorded only for a spilled build: the checks below then fail
        // on a run whose build stayed in memory.
        if streamed.spilled_build() {
            *slot.lock().unwrap() = streamed.spill_dir();
        }
        let mut batches = 0usize;
        streamed
            .for_each_batch(|_| {
                batches += 1;
                if batches > 1 {
                    panic!("aborting mid-pull");
                }
                Ok(())
            })
            .unwrap();
    });
    let payload = result.expect_err("the run must have aborted");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("aborting mid-pull"),
        "aborted elsewhere: {msg}"
    );
    let dir = dir_slot
        .lock()
        .unwrap()
        .clone()
        .expect("the build spilled at prepare");
    assert!(
        !dir.exists(),
        "spill dir must be removed when the run unwinds: {dir:?}"
    );
}

/// `n` rows of `(k, g, tag)` whose tag strings vary in length, so the
/// per-row footprint a breaker charges depends on the values it holds.
fn tagged_rel(n: i64, m: i64) -> Relation {
    Relation::from_rows(
        ["k", "g", "tag"],
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % m),
                    Value::interned("t".repeat((i % 5) as usize + 1)),
                ]
            })
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

/// A computed hash-join build side charges the memory budget the bytes
/// its column image stores per buffered row — here 32 B (two `Int`
/// slots and one interned-string handle) — whether it stays resident or
/// spills. A 32 KiB budget holds all 690 build rows (22,080 B), so the
/// build stays in memory there.
#[test]
fn join_build_budget_charges_are_pinned() {
    let mut cat = unbounded_catalog();
    cat.insert("probe", tagged_rel(1500, 61));
    cat.insert("build", tagged_rel(700, 61));
    let plan = Plan::scan("probe")
        .select(col("k").ge(lit_i64(0)))
        .rename("p")
        .join(
            Plan::scan("build")
                .select(col("k").lt(lit_i64(690)))
                .rename("b"),
            col("p.g").eq(col("b.g")),
        );
    let want = exec::stream(&plan, &cat).unwrap().collect_rows().unwrap();
    // (budget, build spilled, (buffers, buffered_rows,
    // peak_tracked_bytes, spill_events, spilled_bytes)).
    let pinned = [
        (
            2048usize,
            true,
            (1usize, 690usize, 13_379usize, 35usize, 600_300usize),
        ),
        (32 << 10, false, (1, 690, 22_080, 0, 0)),
        (1 << 20, false, (1, 690, 22_080, 0, 0)),
    ];
    for (budget, spilled, counts) in pinned {
        let c = budgeted(&cat, budget);
        let streamed = exec::stream(&plan, &c).unwrap();
        assert_eq!(streamed.collect_rows().unwrap(), want);
        assert_eq!(streamed.spilled_build(), spilled, "budget {budget}");
        let s = streamed.stats();
        assert_eq!(
            (
                s.buffers,
                s.buffered_rows,
                s.peak_tracked_bytes,
                s.spill_events,
                s.spilled_bytes
            ),
            counts,
            "budget {budget}: {s:?}"
        );
    }
}

/// The CI `mem-budget` matrix leg's anti-no-op guard. When
/// `RELALG_MEM_BUDGET` is set (as that leg sets it), the engine default
/// must reflect it and a workload modestly larger than the budget must
/// actually spill — if the env plumbing ever breaks, this fails rather
/// than letting the leg silently test nothing. Without the env var the
/// test exercises the same workload under an explicit catalog budget.
#[test]
fn ci_budget_leg_actually_spills() {
    let env_budget = std::env::var("RELALG_MEM_BUDGET")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0);
    let mut cat = Catalog::new();
    if let Some(bytes) = env_budget {
        assert_eq!(
            EngineConfig::default().mem_budget,
            bytes,
            "RELALG_MEM_BUDGET is set but the engine default ignores it"
        );
        // Size the workload to ~4x the configured budget (breaker
        // footprint ≈ 100 bytes per buffered row).
        let rows = (bytes / 25).max(4000) as i64;
        cat.insert("t", big_rel(rows, rows / 2));
    } else {
        cat.set_mem_budget(64 * 1024);
        cat.insert("t", big_rel(8000, 4000));
    }
    let plan = Plan::scan("t").project_names(["k", "g"]).distinct();
    let streamed = exec::stream(&plan, &cat).unwrap();
    let n = streamed.collect_rows().unwrap().len();
    assert!(n > 0);
    let stats = streamed.stats();
    assert!(
        stats.spill_events > 0,
        "budget {:?} configured but nothing spilled: {stats:?}",
        env_budget
    );
}
