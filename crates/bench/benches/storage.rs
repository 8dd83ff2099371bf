//! Scan benchmarks for compressed segment storage: the same predicate
//! over the plain columnar image and over compressed disk segments, at
//! high and low selectivity, on a sequential integer column, a
//! dictionary string column and a scrambled integer column. Every disk
//! scan decodes every segment it reads. The `disk/*` shapes scan a
//! primed disk catalog whose buffer pool holds all 49 segments, so they
//! price resident decoded segments under the same vectorized pipeline,
//! not page reads.
//!
//! The cold-vs-warm pair on the scrambled scan: the cold run faults
//! every segment through a 2-slot buffer pool (page reads + checksum +
//! decode every iteration), the warm run re-scans with the whole
//! working set resident in a roomy pool — the spread between the two is
//! the price of a page fault.

use criterion::{criterion_group, criterion_main, Criterion};
use urel_relalg::{col, exec, lit_i64, lit_str, Catalog, Plan, Relation, StorageMode, Value};

const ROWS: i64 = 200_000;
const SEG_ROWS: usize = 4 * 1024;

/// `k` sequential, `w` an 8-word dictionary in long runs, `v`
/// scrambled.
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

/// A catalog over [`rel`] under `mode`, with a `pool`-slot
/// buffer pool. Disk catalogs are primed: the segment-file write (and,
/// for a roomy pool, the fault-in) is paid outside the timed region.
fn storage_catalog(mode: StorageMode, pool: usize) -> Catalog {
    let mut c = Catalog::new();
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
    // (name, plan): selectivities over the sequential int column, the
    // dictionary column, and the scrambled column.
    let shapes: Vec<(&str, Plan)> = vec![
        (
            "int_hi_sel", // 1% of rows
            Plan::scan("t").select(col("k").lt(lit_i64(ROWS / 100))),
        ),
        (
            "int_lo_sel", // 90% of rows
            Plan::scan("t").select(col("k").lt(lit_i64(ROWS * 9 / 10))),
        ),
        (
            "dict_hi_sel", // one word = 1/8 of the rows
            Plan::scan("t").select(col("w").eq(lit_str("EGYPT"))),
        ),
        (
            "scrambled", // about half the rows, spread over every segment
            Plan::scan("t").select(col("v").lt(lit_i64(500_000))),
        ),
    ];
    for (name, plan) in &shapes {
        group.bench_function(format!("plain/{name}"), |b| {
            b.iter(|| exec::execute(plan, &plain).unwrap().len());
        });
        group.bench_function(format!("disk/{name}"), |b| {
            b.iter(|| exec::execute(plan, &warm).unwrap().len());
        });
    }
    // Cold vs warm on the scrambled scan.
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
