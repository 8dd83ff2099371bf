//! Selective-scan benchmarks for compressed segment storage: the same
//! predicate over the plain columnar image and over zone-mapped
//! compressed disk segments, at high and low selectivity, on a
//! clustered integer column and a dictionary string column. The
//! `segmented/*` shapes scan a primed disk catalog whose buffer pool
//! holds all 49 segments, so they price zone skipping plus pool hits,
//! not page reads: segments should win on the selective shapes (whole
//! segments skip) and stay competitive on the non-selective ones
//! (resident decoded segments, then the same vectorized pipeline).
//!
//! The cold-vs-warm pair on the unprunable scan: the cold run faults
//! every segment through a 2-slot buffer pool (page reads + checksum +
//! decode every iteration), the warm run re-scans with the whole
//! working set resident in a roomy pool — the spread between the two is
//! the price of a page fault.

use criterion::{criterion_group, criterion_main, Criterion};
use urel_relalg::{col, exec, lit_i64, lit_str, Catalog, Plan, Relation, StorageMode, Value};

const ROWS: i64 = 200_000;
const SEG_ROWS: usize = 4 * 1024;

/// `k` sequential (clustered: zone maps prune range predicates), `w` a
/// 8-word dictionary clustered in long runs, `v` scrambled (zone maps
/// cannot prune — the decode-everything baseline).
fn rel() -> Relation {
    const WORDS: [&str; 8] = [
        "ALGERIA", "BRAZIL", "CANADA", "EGYPT", "FRANCE", "GERMANY", "INDIA", "JAPAN",
    ];
    Relation::from_rows(
        ["k", "w", "v"],
        (0..ROWS)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::interned(WORDS[(i / (ROWS / 8)) as usize % 8]),
                    Value::Int(i * 2_654_435_761 % 1_000_003),
                ]
            })
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

/// A serial catalog over [`rel`] under `mode`, with a `pool`-slot
/// buffer pool. Disk catalogs are primed: the segment-file write (and,
/// for a roomy pool, the fault-in) is paid outside the timed region.
fn storage_catalog(mode: StorageMode, pool: usize) -> Catalog {
    let mut c = Catalog::new();
    c.set_threads(1);
    c.set_storage(mode);
    c.set_segment_layout(SEG_ROWS, pool);
    c.insert("t", rel());
    if mode == StorageMode::Disk {
        let _ = exec::execute(&Plan::scan("t"), &c).unwrap();
    }
    c
}

fn bench_selective_scans(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_scan");
    group.sample_size(10);
    let plain = storage_catalog(StorageMode::Plain, 8);
    // 49 segments through a 64-slot pool: resident after the priming
    // scan. A 2-slot pool churns on every iteration.
    let warm = storage_catalog(StorageMode::Disk, 64);
    let cold = storage_catalog(StorageMode::Disk, 2);
    // (name, plan): selectivities over the clustered int column, the
    // dictionary column, and the unprunable scrambled column.
    let shapes: Vec<(&str, Plan)> = vec![
        (
            "int_hi_sel", // 1% of rows, 1 of 49 segments survives
            Plan::scan("t").select(col("k").lt(lit_i64(ROWS / 100))),
        ),
        (
            "int_lo_sel", // 90% of rows: skipping buys little
            Plan::scan("t").select(col("k").lt(lit_i64(ROWS * 9 / 10))),
        ),
        (
            "dict_hi_sel", // one word = 1/8 of the clustered runs
            Plan::scan("t").select(col("w").eq(lit_str("EGYPT"))),
        ),
        (
            "scrambled", // zone maps keep every segment
            Plan::scan("t").select(col("v").lt(lit_i64(500_000))),
        ),
    ];
    for (name, plan) in &shapes {
        group.bench_function(format!("plain/{name}"), |b| {
            b.iter(|| exec::execute(plan, &plain).unwrap().len());
        });
        group.bench_function(format!("segmented/{name}"), |b| {
            b.iter(|| exec::execute(plan, &warm).unwrap().len());
        });
    }
    // Cold vs warm on the unprunable scan (every segment read).
    let scan = Plan::scan("t").select(col("v").lt(lit_i64(500_000)));
    group.bench_function("disk_cold/scrambled", |b| {
        b.iter(|| exec::execute(&scan, &cold).unwrap().len());
    });
    group.bench_function("disk_warm/scrambled", |b| {
        b.iter(|| exec::execute(&scan, &warm).unwrap().len());
    });
    group.finish();
}

criterion_group!(benches, bench_selective_scans);
criterion_main!(benches);
