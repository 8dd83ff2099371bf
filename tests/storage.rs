//! Deterministic tests of the segmented disk store.
//!
//! The differential suites in `exec_differential.rs` prove byte-identity
//! on random plans across storage modes; these tests pin the individual
//! mechanisms on workloads *shaped to exercise them*:
//!
//! * selective and full disk scans over integer, dictionary-string and
//!   null-bearing columns answer exactly like plain scans, and every
//!   scan visits every segment;
//! * byte-identical output against plain storage across {disk with a
//!   2-slot pool, disk with a 64-slot pool} × {the configured memory
//!   budget, a quarter of it} on a multi-operator plan over
//!   null-bearing data;
//! * disk scans faulting through an undersized shared buffer pool
//!   (eviction churn) and hitting a warm one;
//! * the storage legs' no-op guard: when `RELALG_STORAGE` is set, the
//!   engine default must reflect it and a scan must actually move
//!   segments — so a leg cannot silently degrade into a plain re-run of
//!   the suite.

use u_relations::relalg::{
    col, exec, lit_i64, lit_str, Catalog, EngineConfig, ExecStats, Expr, Plan, Relation, Row,
    StorageMode, Value,
};

/// Rows over every segment encoding: `k` is sequential (FOR), `w`
/// steps through a 4-word dictionary every 64 rows, and `v` is a
/// scrambled integer with a null every 7th row.
fn seg_rel(n: i64) -> Relation {
    const WORDS: [&str; 4] = ["AFRICA", "AMERICA", "ASIA", "EUROPE"];
    Relation::from_rows(
        ["k", "w", "v"],
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::interned(WORDS[(i / 64) as usize % WORDS.len()]),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i * 3 % 101)
                    },
                ]
            })
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

/// A catalog configured *before* inserts (storage, segment geometry
/// and pool capacity).
fn storage_catalog(mode: StorageMode, seg_rows: usize, pool: usize) -> Catalog {
    let mut c = Catalog::new();
    c.set_storage(mode);
    c.set_segment_layout(seg_rows, pool);
    c
}

/// `p` over `seg_rel(256)` in 16 segments of 16 rows, under disk and
/// plain storage: the disk rows (which must equal the plain rows) and
/// the disk run's statistics.
fn disk_and_plain(p: &Plan) -> (Vec<Row>, ExecStats) {
    let run = |mode| {
        let mut c = storage_catalog(mode, 16, 8);
        c.insert("t", seg_rel(256));
        let s = exec::stream(p, &c).unwrap();
        (s.collect_rows().unwrap(), s.stats())
    };
    let (disk, stats) = run(StorageMode::Disk);
    let (plain, _) = run(StorageMode::Plain);
    assert_eq!(disk, plain);
    (disk, stats)
}

#[test]
fn selective_and_full_disk_scans_match_plain() {
    let selective = Plan::scan("t").select(col("k").lt(lit_i64(16)));
    let (out, stats) = disk_and_plain(&selective);
    assert_eq!(out.len(), 16);
    assert_eq!(stats.segments_scanned, 16, "{stats:?}");
    // Anti-no-op guard: an unfiltered scan must touch every segment.
    let full = Plan::scan("t").project_names(["k"]);
    let (out, stats) = disk_and_plain(&full);
    assert_eq!(out.len(), 256);
    assert_eq!(stats.segments_scanned, 16, "{stats:?}");
    assert!(stats.decoded_bytes > 0, "{stats:?}");
}

#[test]
fn dictionary_string_equality_on_disk_matches_plain() {
    // Each 64-row word run spans four 16-row segments.
    let p = Plan::scan("t").select(col("w").eq(lit_str("ASIA")));
    let (out, stats) = disk_and_plain(&p);
    assert_eq!(out.len(), 64);
    assert_eq!(stats.segments_scanned, 16, "{stats:?}");
}

#[test]
fn null_bearing_range_predicates_on_disk_match_plain() {
    // The row-level filter drops the nulls (three-valued comparison is
    // false) on the decoded nullable column as on the plain one.
    let p = Plan::scan("t").select(col("v").lt(lit_i64(10)));
    let (out, _) = disk_and_plain(&p);
    assert!(!out.is_empty());
}

#[test]
fn storage_modes_are_byte_identical_on_a_multi_operator_plan() {
    // σ + join + project + distinct over null-bearing, dictionary-coded
    // data: the shapes that cross every decoded-column code path.
    let plan = Plan::scan("t")
        .select(col("k").ge(lit_i64(32)))
        .join(
            Plan::scan("u"),
            Expr::and([col("w").eq(col("region")), col("v").gt(lit_i64(50))]),
        )
        .project_names(["k", "region", "v"])
        .distinct();
    let build = |mode, pool| {
        let mut c = storage_catalog(mode, 16, pool);
        c.insert("t", seg_rel(300));
        c.insert(
            "u",
            Relation::from_rows(
                ["region"],
                vec![
                    vec![Value::interned("ASIA")],
                    vec![Value::interned("EUROPE")],
                ],
            )
            .unwrap(),
        );
        c
    };
    let plain = build(StorageMode::Plain, 8);
    let baseline = exec::stream(&plan, &plain).unwrap().collect_rows().unwrap();
    assert!(!baseline.is_empty());
    // A 2-slot pool evicts while scanning; a 64-slot one keeps every
    // decoded segment resident. Each runs under the configured memory
    // budget (the CI mem-budget leg sets one) and under a quarter of it.
    let budget = plain.config().mem_budget;
    for pool in [2, 64] {
        for limit in [budget, budget / 4] {
            let mut cat = build(StorageMode::Disk, pool);
            cat.set_mem_budget(limit);
            let rows = exec::stream(&plan, &cat).unwrap().collect_rows().unwrap();
            assert_eq!(rows, baseline, "disk pool {pool} budget {limit} diverged");
        }
    }
}

#[test]
fn disk_scans_miss_an_undersized_pool_and_hit_a_warm_one() {
    // 20 segments through a 2-slot buffer pool: the cold scan faults
    // every segment in (and evicts most of them again), stays
    // byte-identical to plain, and reports pool traffic and pages read.
    // A second catalog with a pool larger than the working set hits on
    // re-scan.
    let p = Plan::scan("t").select(col("v").ge(lit_i64(0)));
    let baseline = {
        let mut c = storage_catalog(StorageMode::Plain, 16, 2);
        c.insert("t", seg_rel(320));
        exec::stream(&p, &c).unwrap().collect_rows().unwrap()
    };
    let mut small = storage_catalog(StorageMode::Disk, 16, 2);
    small.insert("t", seg_rel(320));
    let streamed = exec::stream(&p, &small).unwrap();
    assert_eq!(streamed.collect_rows().unwrap(), baseline);
    let stats = streamed.stats();
    assert!(stats.pages_read > 0, "{stats:?}");
    assert!(
        stats.pool_misses >= 20,
        "20 cold segments through 2 slots must all miss: {stats:?}"
    );
    // A pool bigger than the working set: scan twice, second pass hits.
    let mut large = storage_catalog(StorageMode::Disk, 16, 64);
    large.insert("t", seg_rel(320));
    let warm = exec::stream(&p, &large).unwrap();
    assert_eq!(warm.collect_rows().unwrap(), baseline);
    assert_eq!(warm.collect_rows().unwrap(), baseline);
    let stats = warm.stats();
    assert!(
        stats.pool_hits >= 20,
        "re-scan under a roomy pool must hit: {stats:?}"
    );
}

#[test]
fn disk_provider_evicts_under_a_tiny_cache_and_stays_correct() {
    // 20 segments stream through a 2-slot buffer pool: every decode
    // past the second evicts a resident segment, and batches handed
    // downstream keep their `Arc`ed columns alive past the eviction.
    let mut disk = storage_catalog(StorageMode::Disk, 16, 2);
    disk.insert("t", seg_rel(320));
    let mut plain = storage_catalog(StorageMode::Plain, 16, 2);
    plain.insert("t", seg_rel(320));
    // Self-join forces two full scans of the same provider.
    let p = Plan::scan("t")
        .rename("a")
        .join(Plan::scan("t").rename("s"), col("a.k").eq(col("s.k")));
    let baseline = exec::stream(&p, &plain).unwrap().collect_rows().unwrap();
    let streamed = exec::stream(&p, &disk).unwrap();
    let rows = streamed.collect_rows().unwrap();
    assert_eq!(rows, baseline);
    let stats = streamed.stats();
    // The probe side streams all 20 segments; the build side
    // materializes from the relation's row store, not the provider.
    assert_eq!(stats.segments_scanned, 20, "{stats:?}");
    assert!(stats.decoded_bytes > 0, "{stats:?}");
}

/// The storage legs' anti-no-op guard. When `RELALG_STORAGE=disk` (as
/// the CI legs set it), the engine default must reflect it and a plain
/// scan must actually move segments through the buffer pool — if the env
/// plumbing ever breaks, this fails rather than letting the leg silently
/// test nothing. Unset or `plain`, the test exercises the same workload
/// under an explicit disk catalog; any other value (a removed mode such
/// as `segmented`, or a misspelling) is one the engine would silently run
/// as plain, so it fails.
#[test]
fn ci_storage_leg_actually_moves_segments() {
    let env_disk = match std::env::var("RELALG_STORAGE").ok().as_deref() {
        None | Some("plain") => false,
        Some("disk") => true,
        Some(other) => panic!(
            "RELALG_STORAGE={other:?} names no storage mode (plain | disk); \
             the engine would silently run it as plain"
        ),
    };
    let mut cat;
    if env_disk {
        assert_eq!(
            EngineConfig::default().storage,
            StorageMode::Disk,
            "RELALG_STORAGE is set but the engine default ignores it"
        );
        cat = Catalog::new();
    } else {
        cat = storage_catalog(StorageMode::Disk, 256, 2);
    }
    cat.insert("t", seg_rel(2048));
    let p = Plan::scan("t").select(col("v").ge(lit_i64(0)));
    let (out, stats) = exec::execute_with_stats(&p, &cat).unwrap();
    assert!(!out.is_empty());
    assert!(
        stats.segments_scanned > 0,
        "disk storage configured but no segment traffic: {stats:?}"
    );
    // Segments must move through the buffer pool (the CI legs shrink
    // RELALG_BUFFER_POOL below the working set) and read pages.
    assert!(
        stats.pool_misses > 0,
        "disk storage configured but the buffer pool never missed: {stats:?}"
    );
    assert!(
        stats.pages_read > 0,
        "disk storage configured but no page traffic: {stats:?}"
    );
}
