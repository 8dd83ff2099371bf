//! Certain (one-world) TPC-H table generation.
//!
//! Row counts follow a *micro-base* — 1/100 of the TPC-H specification per
//! unit scale factor — so the full parameter sweep of Figure 9/12 runs on
//! a laptop while preserving the benchmark's relative table sizes and
//! join selectivities (the substitution is documented in DESIGN.md).
//! Generation is deterministic in the seed; dates are days since
//! 1990-01-01, money is integer cents.

use crate::dict;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use urel_relalg::value::date_to_days;
use urel_relalg::{DiskTableWriter, EngineConfig, Relation, StorageMode, Value};

/// What kind of values a column holds — drives both base generation and
/// the sampling of *alternative* values for uncertain fields.
#[derive(Clone, Debug)]
pub enum ColumnKind {
    /// Primary key: sequential, never uncertain.
    PrimaryKey,
    /// Foreign key into `1..=max` (alternatives are other valid keys).
    ForeignKey { max: i64 },
    /// Integer in `lo..=hi`.
    Int { lo: i64, hi: i64 },
    /// Money in cents, `lo..=hi`.
    Money { lo: i64, hi: i64 },
    /// Date (days since 1990-01-01) in `lo..=hi`.
    Date { lo: i64, hi: i64 },
    /// A value from a fixed dictionary.
    Dict { words: &'static [&'static str] },
    /// `prefix#<n>` pattern names.
    Name { prefix: &'static str, max: i64 },
}

impl ColumnKind {
    /// Sample a fresh value (used both for base data and alternatives).
    pub fn sample(&self, rng: &mut StdRng) -> Value {
        match self {
            ColumnKind::PrimaryKey => unreachable!("primary keys are sequential"),
            ColumnKind::ForeignKey { max } => Value::Int(rng.gen_range(1..=*max)),
            ColumnKind::Int { lo, hi } => Value::Int(rng.gen_range(*lo..=*hi)),
            ColumnKind::Money { lo, hi } => Value::Int(rng.gen_range(*lo..=*hi)),
            ColumnKind::Date { lo, hi } => Value::Int(rng.gen_range(*lo..=*hi)),
            // Dictionary domains are small and heavily repeated: intern
            // them so every occurrence of the same text — across base
            // tuples AND or-set alternatives — shares one `Arc<str>`,
            // and the engine's vectorized string equality can compare
            // pointers before bytes. Pattern names are near-unique per
            // entity, so interning them would only grow the global pool
            // (see `value::intern`'s bounded-domain contract).
            ColumnKind::Dict { words } => Value::interned(words[rng.gen_range(0..words.len())]),
            ColumnKind::Name { prefix, max } => {
                Value::str(format!("{prefix}#{:09}", rng.gen_range(1..=*max)))
            }
        }
    }

    /// Can fields of this column be uncertain? (Keys that identify tuples
    /// cannot — their identity is what tuple ids stand for.)
    pub fn may_be_uncertain(&self) -> bool {
        !matches!(self, ColumnKind::PrimaryKey)
    }

    /// How many distinct values the column can take (bounds the number of
    /// alternatives of an uncertain field).
    pub fn domain_size(&self) -> usize {
        match self {
            ColumnKind::PrimaryKey => usize::MAX,
            ColumnKind::ForeignKey { max } => *max as usize,
            ColumnKind::Int { lo, hi }
            | ColumnKind::Money { lo, hi }
            | ColumnKind::Date { lo, hi } => (*hi - *lo + 1) as usize,
            ColumnKind::Dict { words } => words.len(),
            ColumnKind::Name { max, .. } => *max as usize,
        }
    }
}

/// A table: name, columns with kinds, and rows.
#[derive(Clone, Debug)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// Column names and kinds, in order.
    pub columns: Vec<(String, ColumnKind)>,
    /// Generated rows.
    pub rows: Vec<Vec<Value>>,
}

impl TableSpec {
    /// As a relation. Under a disk default storage mode
    /// (`RELALG_STORAGE=disk`) the rows stream straight into an on-disk
    /// segment store and the relation comes back disk-backed without
    /// ever materializing its row store; otherwise it is a plain
    /// in-memory relation.
    pub fn relation(&self) -> Relation {
        let config = EngineConfig::default();
        if config.storage == StorageMode::Disk {
            let mut writer = DiskTableWriter::create_scratch(
                "tpch",
                self.columns.iter().map(|(n, _)| n.clone()).collect(),
                config.segment_rows,
            )
            .expect("scratch segment store is writable");
            for row in &self.rows {
                writer.push(row).expect("generator emits consistent rows");
            }
            return Relation::from_disk_image(
                writer.finish().expect("scratch segment store is writable"),
            );
        }
        Relation::from_rows(
            self.columns
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<Vec<_>>(),
            self.rows.clone(),
        )
        .expect("generator emits consistent rows")
    }
}

/// The generated one-world database.
#[derive(Clone, Debug)]
pub struct CertainTpch {
    /// Tables by name (all eight).
    pub tables: BTreeMap<String, TableSpec>,
}

impl CertainTpch {
    /// Total number of fields (rows × columns), the base of the
    /// uncertainty ratio.
    pub fn total_fields(&self) -> usize {
        self.tables
            .values()
            .map(|t| t.rows.len() * t.columns.len())
            .sum()
    }
}

/// Micro-base row counts at scale factor 1 (1/100 of the TPC-H spec).
const BASE_SUPPLIER: f64 = 100.0;
const BASE_PART: f64 = 2_000.0;
const BASE_PARTSUPP: f64 = 8_000.0;
const BASE_CUSTOMER: f64 = 1_500.0;
const BASE_ORDERS: f64 = 15_000.0;
const BASE_LINEITEM: f64 = 60_000.0;

fn scaled(base: f64, scale: f64) -> usize {
    (base * scale).round().max(1.0) as usize
}

/// Generate the eight tables at the given scale factor, deterministically
/// in `seed`.
pub fn generate_certain(scale: f64, seed: u64) -> CertainTpch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tables = BTreeMap::new();

    let date_lo = date_to_days(1992, 1, 1);
    let date_hi = date_to_days(1998, 8, 2);

    // region / nation are fixed-size per the spec.
    let region = TableSpec {
        name: "region".into(),
        columns: vec![
            ("r_regionkey".into(), ColumnKind::PrimaryKey),
            (
                "r_name".into(),
                ColumnKind::Dict {
                    words: &dict::REGIONS,
                },
            ),
        ],
        rows: dict::REGIONS
            .iter()
            .enumerate()
            .map(|(i, r)| vec![Value::Int(i as i64 + 1), Value::interned(*r)])
            .collect(),
    };
    tables.insert(region.name.clone(), region);

    let nation = TableSpec {
        name: "nation".into(),
        columns: vec![
            ("n_nationkey".into(), ColumnKind::PrimaryKey),
            (
                "n_name".into(),
                ColumnKind::Dict {
                    words: {
                        // Names only; the (name, region) pairing is fixed.
                        static NAMES: [&str; 25] = [
                            "ALGERIA",
                            "ARGENTINA",
                            "BRAZIL",
                            "CANADA",
                            "EGYPT",
                            "ETHIOPIA",
                            "FRANCE",
                            "GERMANY",
                            "INDIA",
                            "INDONESIA",
                            "IRAN",
                            "IRAQ",
                            "JAPAN",
                            "JORDAN",
                            "KENYA",
                            "MOROCCO",
                            "MOZAMBIQUE",
                            "PERU",
                            "CHINA",
                            "ROMANIA",
                            "SAUDI ARABIA",
                            "VIETNAM",
                            "RUSSIA",
                            "UNITED KINGDOM",
                            "UNITED STATES",
                        ];
                        &NAMES
                    },
                },
            ),
            ("n_regionkey".into(), ColumnKind::ForeignKey { max: 5 }),
        ],
        rows: dict::NATIONS
            .iter()
            .enumerate()
            .map(|(i, (n, r))| {
                vec![
                    Value::Int(i as i64 + 1),
                    Value::interned(*n),
                    Value::Int(*r as i64 + 1),
                ]
            })
            .collect(),
    };
    tables.insert(nation.name.clone(), nation);

    let n_supplier = scaled(BASE_SUPPLIER, scale);
    let supplier_cols = vec![
        ("s_suppkey".into(), ColumnKind::PrimaryKey),
        (
            "s_name".into(),
            ColumnKind::Name {
                prefix: "Supplier",
                max: n_supplier as i64 * 10,
            },
        ),
        ("s_nationkey".into(), ColumnKind::ForeignKey { max: 25 }),
        (
            "s_acctbal".into(),
            ColumnKind::Money {
                lo: -99_999,
                hi: 999_999,
            },
        ),
    ];
    let supplier = gen_table("supplier", supplier_cols, n_supplier, &mut rng);
    tables.insert(supplier.name.clone(), supplier);

    let n_part = scaled(BASE_PART, scale);
    let part_cols = vec![
        ("p_partkey".into(), ColumnKind::PrimaryKey),
        (
            "p_name".into(),
            ColumnKind::Dict {
                words: &dict::NAME_WORDS,
            },
        ),
        (
            "p_type".into(),
            ColumnKind::Dict {
                words: &dict::TYPE_SYLLABLE_2,
            },
        ),
        ("p_size".into(), ColumnKind::Int { lo: 1, hi: 50 }),
    ];
    let part = gen_table("part", part_cols, n_part, &mut rng);
    tables.insert(part.name.clone(), part);

    let n_partsupp = scaled(BASE_PARTSUPP, scale);
    let partsupp_cols = vec![
        ("ps_partsuppkey".into(), ColumnKind::PrimaryKey),
        (
            "ps_partkey".into(),
            ColumnKind::ForeignKey { max: n_part as i64 },
        ),
        (
            "ps_suppkey".into(),
            ColumnKind::ForeignKey {
                max: n_supplier as i64,
            },
        ),
        ("ps_availqty".into(), ColumnKind::Int { lo: 1, hi: 9_999 }),
        (
            "ps_supplycost".into(),
            ColumnKind::Money {
                lo: 100,
                hi: 100_000,
            },
        ),
    ];
    let partsupp = gen_table("partsupp", partsupp_cols, n_partsupp, &mut rng);
    tables.insert(partsupp.name.clone(), partsupp);

    let n_customer = scaled(BASE_CUSTOMER, scale);
    let customer_cols = vec![
        ("c_custkey".into(), ColumnKind::PrimaryKey),
        (
            "c_name".into(),
            ColumnKind::Name {
                prefix: "Customer",
                max: n_customer as i64 * 10,
            },
        ),
        ("c_nationkey".into(), ColumnKind::ForeignKey { max: 25 }),
        (
            "c_mktsegment".into(),
            ColumnKind::Dict {
                words: &dict::SEGMENTS,
            },
        ),
        (
            "c_acctbal".into(),
            ColumnKind::Money {
                lo: -99_999,
                hi: 999_999,
            },
        ),
    ];
    let customer = gen_table("customer", customer_cols, n_customer, &mut rng);
    tables.insert(customer.name.clone(), customer);

    let n_orders = scaled(BASE_ORDERS, scale);
    let orders_cols = vec![
        ("o_orderkey".into(), ColumnKind::PrimaryKey),
        (
            "o_custkey".into(),
            ColumnKind::ForeignKey {
                max: n_customer as i64,
            },
        ),
        (
            "o_orderdate".into(),
            ColumnKind::Date {
                lo: date_lo,
                hi: date_hi,
            },
        ),
        ("o_shippriority".into(), ColumnKind::Int { lo: 0, hi: 1 }),
        (
            "o_totalprice".into(),
            ColumnKind::Money {
                lo: 100_000,
                hi: 50_000_000,
            },
        ),
    ];
    let orders = gen_table("orders", orders_cols, n_orders, &mut rng);
    tables.insert(orders.name.clone(), orders);

    let n_lineitem = scaled(BASE_LINEITEM, scale);
    let lineitem_cols = vec![
        ("l_lineid".into(), ColumnKind::PrimaryKey),
        (
            "l_orderkey".into(),
            ColumnKind::ForeignKey {
                max: n_orders as i64,
            },
        ),
        (
            "l_partkey".into(),
            ColumnKind::ForeignKey { max: n_part as i64 },
        ),
        (
            "l_suppkey".into(),
            ColumnKind::ForeignKey {
                max: n_supplier as i64,
            },
        ),
        ("l_quantity".into(), ColumnKind::Int { lo: 1, hi: 50 }),
        (
            "l_extendedprice".into(),
            ColumnKind::Money {
                lo: 100,
                hi: 10_000_000,
            },
        ),
        ("l_discount".into(), ColumnKind::Int { lo: 0, hi: 10 }),
        (
            "l_shipdate".into(),
            ColumnKind::Date {
                lo: date_lo,
                hi: date_hi + 121,
            },
        ),
    ];
    let lineitem = gen_table("lineitem", lineitem_cols, n_lineitem, &mut rng);
    tables.insert(lineitem.name.clone(), lineitem);

    CertainTpch { tables }
}

fn gen_table(
    name: &str,
    columns: Vec<(String, ColumnKind)>,
    rows: usize,
    rng: &mut StdRng,
) -> TableSpec {
    let mut out = Vec::with_capacity(rows);
    for i in 0..rows {
        let row: Vec<Value> = columns
            .iter()
            .map(|(_, kind)| match kind {
                ColumnKind::PrimaryKey => Value::Int(i as i64 + 1),
                other => other.sample(rng),
            })
            .collect();
        out.push(row);
    }
    TableSpec {
        name: name.into(),
        columns,
        rows: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = generate_certain(0.01, 7);
        let b = generate_certain(0.01, 7);
        assert_eq!(a.tables["lineitem"].rows, b.tables["lineitem"].rows);
        let c = generate_certain(0.01, 8);
        assert_ne!(a.tables["lineitem"].rows, c.tables["lineitem"].rows);
    }

    #[test]
    fn row_counts_scale_linearly() {
        let s1 = generate_certain(0.01, 1);
        let s5 = generate_certain(0.05, 1);
        assert_eq!(s1.tables["lineitem"].rows.len(), 600);
        assert_eq!(s5.tables["lineitem"].rows.len(), 3000);
        assert_eq!(s1.tables["region"].rows.len(), 5);
        assert_eq!(s1.tables["nation"].rows.len(), 25);
        assert_eq!(s1.tables.len(), 8);
    }

    #[test]
    fn foreign_keys_are_valid() {
        let db = generate_certain(0.02, 3);
        let n_orders = db.tables["orders"].rows.len() as i64;
        for row in &db.tables["lineitem"].rows {
            let ok = row[1].as_int().unwrap();
            assert!(ok >= 1 && ok <= n_orders);
        }
        for row in &db.tables["nation"].rows {
            let r = row[2].as_int().unwrap();
            assert!((1..=5).contains(&r));
        }
    }

    #[test]
    fn join_selectivity_matches_uniform_expectation() {
        // |lineitem ⋈ orders| = |lineitem| (every FK resolves): the
        // property the paper checks per world.
        let db = generate_certain(0.05, 11);
        let orders: std::collections::BTreeSet<i64> = db.tables["orders"]
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        let hits = db.tables["lineitem"]
            .rows
            .iter()
            .filter(|r| orders.contains(&r[1].as_int().unwrap()))
            .count();
        assert_eq!(hits, db.tables["lineitem"].rows.len());
    }

    #[test]
    fn dates_cover_the_query_windows() {
        let db = generate_certain(0.05, 2);
        let q1_date = date_to_days(1995, 3, 15);
        let has_late = db.tables["orders"]
            .rows
            .iter()
            .any(|r| r[2].as_int().unwrap() > q1_date);
        assert!(has_late, "Q1's date predicate would be empty");
    }

    #[test]
    fn total_fields_counts() {
        let db = generate_certain(0.01, 1);
        let expect: usize = db
            .tables
            .values()
            .map(|t| t.rows.len() * t.columns.len())
            .sum();
        assert_eq!(db.total_fields(), expect);
    }
}
