//! Crash-safety and cold-start tests for the on-disk segment store
//! (PR 7).
//!
//! The writer is careful (`DiskTableWriter::finish` reopens the store
//! through the validating reader before handing it out), but files on
//! disk outlive the process that wrote them: a crash mid-write, a torn
//! final page, silent media corruption or a manifest left behind by an
//! older run must all surface as [`Error::Invalid`] from
//! [`DiskImage::open`] — never a panic, and never a wrong answer. The
//! cold-start test proves the other direction: a manifest written by a
//! *previous process* reopens cleanly and answers the paper's Q1
//! (Figure 8, from TPC-H Q3) byte-identically to the in-memory store.

mod common;

use common::count_panics;
use std::fs;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use u_relations::relalg::store::pool_for;
use u_relations::relalg::value::date_to_days;
use u_relations::relalg::{
    col, exec, lit_i64, lit_str, Catalog, DiskImage, DiskTableWriter, Error, IoCounters, Plan,
    Relation, StorageMode, Value,
};
use u_relations::tpch::generate_certain;

/// A fresh per-test scratch directory (removed and recreated each run).
fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("urel-disk-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// Write a small two-column table (several segments, both codecs) and
/// drop the returned image so only the files remain.
fn write_table(dir: &Path) {
    let mut w = DiskTableWriter::create(dir, "t", vec!["k".into(), "w".into()], 16).unwrap();
    for i in 0..100i64 {
        w.push(&[
            Value::Int(i),
            Value::interned(["ASIA", "EUROPE"][i as usize % 2]),
        ])
        .unwrap();
    }
    w.finish().unwrap();
}

fn assert_open_fails(dir: &Path, why: &str) {
    match DiskImage::open(dir, "t") {
        Err(Error::Invalid(msg)) => {
            assert!(!msg.is_empty(), "{why}: empty error message")
        }
        Err(e) => panic!("{why}: wrong error kind: {e}"),
        Ok(_) => panic!("{why}: corrupt store opened successfully"),
    }
}

#[test]
fn truncated_page_file_is_rejected() {
    let dir = tmpdir("truncated");
    write_table(&dir);
    let seg = dir.join("t.seg");
    let len = fs::metadata(&seg).unwrap().len();
    // A crash halfway through the page file: blocks point past the end.
    let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len / 2).unwrap();
    assert_open_fails(&dir, "half page file");
}

#[test]
fn torn_final_page_is_rejected() {
    let dir = tmpdir("torn");
    write_table(&dir);
    let seg = dir.join("t.seg");
    let len = fs::metadata(&seg).unwrap().len();
    // A torn write: the tail of the last page never hit the disk.
    let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len - 100).unwrap();
    assert_open_fails(&dir, "torn final page");
}

#[test]
fn bit_flipped_block_fails_its_checksum() {
    let dir = tmpdir("bitflip");
    write_table(&dir);
    let seg = dir.join("t.seg");
    // Flip one byte inside the first block's payload (offset 10 is well
    // within the first encoded column, not page padding).
    let mut bytes = fs::read(&seg).unwrap();
    bytes[10] ^= 0xFF;
    fs::write(&seg, bytes).unwrap();
    assert_open_fails(&dir, "bit-flipped block");
}

/// Every fetch after open re-verifies its block's checksum: a byte
/// flipped in place under an opened image fails both the direct read
/// and every query over the relation with a named I/O error, never an
/// answer, and leaves no in-flight latch in the pool. Queries read a
/// disk-native relation through its segments under either storage
/// mode, as a scan and as a bare-source build side, so the error is a
/// return value all the way up: it runs the panic hook not once.
#[test]
fn in_place_flip_after_open_fails_every_fetch() {
    const POOL: usize = 31;
    let dir = tmpdir("postopen");
    write_table(&dir);
    let image = DiskImage::open(&dir, "t").unwrap();
    let seg = dir.join("t.seg");
    let len = fs::metadata(&seg).unwrap().len();
    // Offset 10 lies inside block (col 0, seg 0); the length stays.
    let f = fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&seg)
        .unwrap();
    let mut byte = [0u8; 1];
    f.read_exact_at(&mut byte, 10).unwrap();
    f.write_all_at(&[byte[0] ^ 0xFF], 10).unwrap();
    drop(f);
    assert_eq!(fs::metadata(&seg).unwrap().len(), len);

    let expect_changed = |what: &str, err: Error| match err {
        Error::Io(msg) => {
            println!("{what}: {msg}");
            assert!(
                msg.contains("segment file changed after open")
                    && msg.contains("checksum mismatch"),
                "{what}: {msg}"
            );
        }
        e => panic!("{what}: wrong error kind: {e}"),
    };
    let read = image.read_segment(0, &IoCounters::default());
    expect_changed("read_segment", read.expect_err("read_segment answered"));

    let probe = Relation::from_rows(["x"], (0..1000i64).map(|i| vec![Value::Int(i)])).unwrap();
    let join = Plan::scan("t").join(Plan::scan("u"), col("k").eq(col("x")));
    for mode in [StorageMode::Disk, StorageMode::Plain] {
        let mut cat = Catalog::new();
        cat.set_storage(mode);
        cat.set_buffer_pool(POOL);
        cat.insert("t", Relation::from_disk_image(Arc::clone(&image)));
        cat.insert("u", probe.clone());
        assert!(exec::join_build_left(
            &Plan::scan("t"),
            &Plan::scan("u"),
            &cat
        ));
        for (what, plan) in [("scan", Plan::scan("t")), ("build side", join.clone())] {
            let what = format!("{mode:?} {what}");
            let (res, panics) =
                count_panics(|| exec::stream(&plan, &cat).and_then(|s| s.collect_rows()));
            expect_changed(&what, res.expect_err("answered"));
            assert_eq!(panics, 0, "{what}: the failing fetch ran the panic hook");
            assert_eq!(
                pool_for(POOL).in_flight_len(),
                0,
                "{what}: a failed fetch left its latch"
            );
        }
    }
}

#[test]
fn corrupt_manifest_fails_its_self_checksum() {
    let dir = tmpdir("badmanifest");
    write_table(&dir);
    let manifest = dir.join("t.manifest");
    let mut bytes = fs::read(&manifest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&manifest, bytes).unwrap();
    assert_open_fails(&dir, "bit-flipped manifest");

    // And a truncated manifest (crash between the two file writes).
    let dir = tmpdir("shortmanifest");
    write_table(&dir);
    let manifest = dir.join("t.manifest");
    let bytes = fs::read(&manifest).unwrap();
    fs::write(&manifest, &bytes[..bytes.len() / 3]).unwrap();
    assert_open_fails(&dir, "truncated manifest");
}

#[test]
fn stale_manifest_over_foreign_pages_is_rejected() {
    // A manifest left behind by an older run, paired with a page file it
    // does not describe: every block checksum disagrees.
    let dir = tmpdir("stale");
    write_table(&dir);
    let other = tmpdir("stale-other");
    let mut w = DiskTableWriter::create(&other, "u", vec!["k".into(), "w".into()], 8).unwrap();
    for i in 0..40i64 {
        w.push(&[Value::Int(i * 7), Value::interned("AFRICA")])
            .unwrap();
    }
    w.finish().unwrap();
    fs::copy(other.join("u.manifest"), dir.join("t.manifest")).unwrap();
    assert_open_fails(&dir, "stale manifest");
}

#[test]
fn empty_and_missing_files_are_rejected() {
    let dir = tmpdir("missing");
    assert!(matches!(DiskImage::open(&dir, "t"), Err(Error::Invalid(_))));
    fs::write(dir.join("t.manifest"), b"").unwrap();
    fs::write(dir.join("t.seg"), b"").unwrap();
    assert_open_fails(&dir, "empty files");
}

const COLD_DIR_ENV: &str = "UREL_COLD_START_DIR";
const COLD_SCALE: f64 = 0.02;
const COLD_SEED: u64 = 42;
const COLD_TABLES: [&str; 3] = ["customer", "orders", "lineitem"];

/// Writer half of the cold-start pair. A no-op unless [`COLD_DIR_ENV`]
/// is set: the reader test below re-runs this binary with `--exact` on
/// this test so the manifests are written by a genuinely different
/// process, then opens them cold.
#[test]
fn cold_start_writer() {
    let Ok(dir) = std::env::var(COLD_DIR_ENV) else {
        return;
    };
    let gen = generate_certain(COLD_SCALE, COLD_SEED);
    for name in COLD_TABLES {
        let spec = &gen.tables[name];
        let cols: Vec<String> = spec.columns.iter().map(|(n, _)| n.clone()).collect();
        let mut w = DiskTableWriter::create(Path::new(&dir), name, cols, 64).unwrap();
        for row in &spec.rows {
            w.push(row).unwrap();
        }
        w.finish().unwrap();
    }
}

/// The paper's Q1 (Figure 8, from TPC-H Q3) as a physical plan over the
/// certain base tables.
fn q1_plan() -> Plan {
    Plan::scan("customer")
        .select(col("c_mktsegment").eq(lit_str("BUILDING")))
        .join(
            Plan::scan("orders").select(col("o_orderdate").gt(lit_i64(date_to_days(1995, 3, 15)))),
            col("c_custkey").eq(col("o_custkey")),
        )
        .join(
            Plan::scan("lineitem").select(col("l_shipdate").lt(lit_i64(date_to_days(1995, 3, 17)))),
            col("o_orderkey").eq(col("l_orderkey")),
        )
        .project_names(["o_orderkey", "o_orderdate", "o_shippriority"])
        .distinct()
}

#[test]
fn cold_start_answers_q1_byte_identically_to_memory() {
    let dir = tmpdir("coldstart");
    // Write the manifests from a separate process.
    let status = Command::new(std::env::current_exe().unwrap())
        .args(["cold_start_writer", "--exact"])
        .env(COLD_DIR_ENV, &dir)
        .status()
        .unwrap();
    assert!(status.success(), "writer process failed");

    // In-memory baseline: same deterministic generator, plain storage.
    let gen = generate_certain(COLD_SCALE, COLD_SEED);
    let mut plain = Catalog::new();
    for name in COLD_TABLES {
        let spec = &gen.tables[name];
        let cols: Vec<String> = spec.columns.iter().map(|(n, _)| n.clone()).collect();
        plain.insert(name, Relation::from_rows(cols, spec.rows.clone()).unwrap());
    }
    let plan = q1_plan();
    let baseline = exec::stream(&plan, &plain).unwrap().collect_rows().unwrap();
    assert!(!baseline.is_empty(), "Q1 answers nothing at this scale");

    // Cold side: reopen the previous process's manifests and scan them
    // through the buffer pool.
    let mut disk = Catalog::new();
    disk.set_storage(u_relations::relalg::StorageMode::Disk);
    disk.set_buffer_pool(4);
    for name in COLD_TABLES {
        let image = DiskImage::open(&dir, name).unwrap();
        disk.insert(name, Relation::from_disk_image(image));
    }
    let streamed = exec::stream(&plan, &disk).unwrap();
    let rows = streamed.collect_rows().unwrap();
    assert_eq!(rows, baseline, "cold disk answers diverge from memory");
    let stats = streamed.stats();
    assert!(stats.pages_read > 0, "{stats:?}");
}
