//! The five workloads: what each one runs and why. Statement texts go
//! through the public text path; the [`UQuery`] beside a text is the
//! same question asked through the builder API, which the answer check
//! evaluates on plain storage.

use crate::measure::SplitMix64;
use urel_core::{table, table_as, UQuery};
use urel_relalg::value::date_to_days;
use urel_relalg::{col, lit_i64, lit_str, Expr};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 12 Q1–Q3, texts repeated: every request hits the plan cache.
    TpchFixed,
    /// Q1–Q3 shapes with fresh literals: every request misses it.
    TpchAdhoc,
    /// `certain` and `confidence` statements.
    Uncertain,
    /// Q1–Q3, a point lookup and an `explain` over TCP sessions.
    ServerMix,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// TPC-H scale `s`; uncertainty `x` and correlation `z` are fixed.
    pub scale: f64,
    /// Base tables scanned from the on-disk segment store.
    pub disk: bool,
    pub kind: Kind,
}

/// Uncertainty ratio `x` and correlation ratio `z` of every workload:
/// the upper end of the paper's Fig. 12 sweep.
pub const UNCERTAINTY: f64 = 0.1;
pub const CORRELATION: f64 = 0.5;

/// `tpch_s1_disk` geometry: lineitem alone is ~150 segments of 4096
/// rows per column partition, so a pool of 8 decoded segments holds a
/// few percent of one scan's working set.
pub const SEGMENT_ROWS: usize = 4096;
pub const POOL_SEGMENTS: usize = 8;

/// Closed-loop sessions of `server_s01_mix`: one per core of the
/// two-core box, so the generator cannot outrun the server's slots.
pub const CLIENTS: usize = 2;

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "tpch_s1_plain",
        why: "Fig. 12 Q1-Q3 at s=1 with repeated texts: plan-cache hits, in-memory scans; time is relalg::exec",
        scale: 1.0,
        disk: false,
        kind: Kind::TpchFixed,
    },
    Spec {
        name: "tpch_s1_disk",
        why: "same data and texts from the disk store, 4096-row segments through an 8-segment pool: storage traffic per query",
        scale: 1.0,
        disk: true,
        kind: Kind::TpchFixed,
    },
    Spec {
        name: "tpch_s005_adhoc",
        why: "Q1-Q3 shapes at s=0.05 with fresh seeded literals: plan-cache misses, so parse/translate/optimize weigh in",
        scale: 0.05,
        disk: false,
        kind: Kind::TpchAdhoc,
    },
    Spec {
        name: "uncertain_s01",
        why: "four certain and four confidence statements at s=0.1: the paper-specific operators in core, little else",
        scale: 0.1,
        disk: false,
        kind: Kind::Uncertain,
    },
    Spec {
        name: "server_s01_mix",
        why: "two closed-loop TCP sessions cycling Q1-Q3, a point lookup and an explain at s=0.1: wire, JSON, admission",
        scale: 0.1,
        disk: false,
        kind: Kind::ServerMix,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One cycle's statements, in order.
#[derive(Default)]
pub struct Statements {
    pub texts: Vec<String>,
    /// The builder-API twin of a `possible` statement, where it has one.
    pub oracles: Vec<Option<UQuery>>,
}

impl Statements {
    fn push(&mut self, text: String, oracle: Option<UQuery>) {
        self.texts.push(text);
        self.oracles.push(oracle);
    }
}

fn q1_text(orderdate_after: i64, shipdate_before: i64) -> String {
    format!(
        "from customer | where c_mktsegment = 'BUILDING' \
         | join (from orders | where o_orderdate > {orderdate_after}) on c_custkey = o_custkey \
         | join (from lineitem | where l_shipdate < {shipdate_before}) on o_orderkey = l_orderkey \
         | select o_orderkey, o_orderdate, o_shippriority | possible"
    )
}

fn q1_query(orderdate_after: i64, shipdate_before: i64) -> UQuery {
    table("customer")
        .select(col("c_mktsegment").eq(lit_str("BUILDING")))
        .join(
            table("orders").select(col("o_orderdate").gt(lit_i64(orderdate_after))),
            col("c_custkey").eq(col("o_custkey")),
        )
        .join(
            table("lineitem").select(col("l_shipdate").lt(lit_i64(shipdate_before))),
            col("o_orderkey").eq(col("l_orderkey")),
        )
        .project(["o_orderkey", "o_orderdate", "o_shippriority"])
        .poss()
}

fn q2_text(ship_lo: i64, ship_hi: i64) -> String {
    format!(
        "from lineitem | where l_shipdate >= {ship_lo} and l_shipdate <= {ship_hi} \
         and l_discount >= 5 and l_discount <= 8 and l_quantity < 24 \
         | select l_extendedprice | possible"
    )
}

fn q2_query(ship_lo: i64, ship_hi: i64) -> UQuery {
    table("lineitem")
        .select(Expr::and([
            col("l_shipdate").between(lit_i64(ship_lo), lit_i64(ship_hi)),
            col("l_discount").between(lit_i64(5), lit_i64(8)),
            col("l_quantity").lt(lit_i64(24)),
        ]))
        .project(["l_extendedprice"])
        .poss()
}

/// Q3; `ship` restores TPC-H Q7's own ship-date range, which the paper
/// dropped, to give the ad-hoc variant a literal to vary.
fn q3_text(ship: Option<(i64, i64)>) -> String {
    let lineitem = match ship {
        Some((lo, hi)) => {
            format!("(from lineitem | where l_shipdate >= {lo} and l_shipdate <= {hi})")
        }
        None => "lineitem".to_string(),
    };
    format!(
        "from supplier | join {lineitem} on s_suppkey = l_suppkey \
         | join orders on o_orderkey = l_orderkey | join customer on c_custkey = o_custkey \
         | join (from nation as n1 | where n1.n_name = 'GERMANY') on s_nationkey = n1.n_nationkey \
         | join (from nation as n2 | where n2.n_name = 'IRAQ') on c_nationkey = n2.n_nationkey \
         | select n1.n_name, n2.n_name | possible"
    )
}

fn q3_query(ship: Option<(i64, i64)>) -> UQuery {
    let lineitem = match ship {
        Some((lo, hi)) => {
            table("lineitem").select(col("l_shipdate").between(lit_i64(lo), lit_i64(hi)))
        }
        None => table("lineitem"),
    };
    let n1 = table_as("nation", "n1").select(col("n1.n_name").eq(lit_str("GERMANY")));
    let n2 = table_as("nation", "n2").select(col("n2.n_name").eq(lit_str("IRAQ")));
    table("supplier")
        .join(lineitem, col("s_suppkey").eq(col("l_suppkey")))
        .join(table("orders"), col("o_orderkey").eq(col("l_orderkey")))
        .join(table("customer"), col("c_custkey").eq(col("o_custkey")))
        .join(n1, col("s_nationkey").eq(col("n1.n_nationkey")))
        .join(n2, col("c_nationkey").eq(col("n2.n_nationkey")))
        .project(["n1.n_name", "n2.n_name"])
        .poss()
}

/// Fig. 12 Q1-Q3 with every date literal moved by up to 15 days either
/// way, which moves a selectivity by under a hundredth: 961 variants of
/// Q1 and of Q2. With `vary_q3`, Q3 gets as many through Q7's ship-date
/// range; without, it is the paper's Q3 and has none.
fn tpch(rng: &mut SplitMix64, vary_q3: bool) -> Statements {
    let mut shift = |y, m, d| date_to_days(y, m, d) + rng.range(-15, 15);
    let (q1a, q1b) = (shift(1995, 3, 15), shift(1995, 3, 17));
    let (q2a, q2b) = (shift(1994, 1, 1), shift(1996, 1, 1));
    let q3 = vary_q3.then(|| (shift(1995, 1, 1), shift(1996, 12, 31)));
    let mut s = Statements::default();
    s.push(q1_text(q1a, q1b), Some(q1_query(q1a, q1b)));
    s.push(q2_text(q2a, q2b), Some(q2_query(q2a, q2b)));
    s.push(q3_text(q3), Some(q3_query(q3)));
    s
}

/// One cycle's statements with their literals drawn from `rng`.
/// `TpchAdhoc` draws every cycle, so that a 64-entry plan cache that
/// clears when full practically never holds the statement it is asked
/// for; the other workloads draw once and repeat the texts.
pub fn statements(kind: Kind, rng: &mut SplitMix64) -> Statements {
    match kind {
        Kind::TpchFixed => tpch(rng, false),
        Kind::TpchAdhoc => tpch(rng, true),
        Kind::Uncertain => {
            // The shifts move each filter's selectivity by a few percent.
            let acctbal = 9000 + rng.range(-50, 50);
            let orderdate = 2400 + rng.range(-15, 15);
            let texts = vec![
                "from nation | select n_name | certain".to_string(),
                "from customer | select c_mktsegment | certain".to_string(),
                "from orders | select o_shippriority | certain".to_string(),
                "from lineitem | where l_quantity < 10 | select l_discount | certain".to_string(),
                format!(
                    "from customer | where c_acctbal > {acctbal} | select c_name \
                     | possible confidence 0.05"
                ),
                format!(
                    "from orders | where o_orderdate > {orderdate} | select o_custkey \
                     | certain confidence 0.05"
                ),
                format!(
                    "from customer | where c_acctbal > {acctbal} \
                     | join nation on c_nationkey = n_nationkey | select n_name \
                     | possible confidence 0.02"
                ),
                "from orders | where o_shippriority = 1 | select o_orderdate \
                 | possible confidence 0.1"
                    .to_string(),
            ];
            Statements {
                oracles: vec![None; texts.len()],
                texts,
            }
        }
        Kind::ServerMix => {
            let mut s = tpch(rng, false);
            let key = rng.range(1, 1000);
            s.push(
                format!(
                    "from orders | where o_orderkey = {key} | select o_orderdate, o_totalprice \
                     | possible"
                ),
                Some(
                    table("orders")
                        .select(col("o_orderkey").eq(lit_i64(key)))
                        .project(["o_orderdate", "o_totalprice"])
                        .poss(),
                ),
            );
            s.push(format!("explain {}", s.texts[0]), None);
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_text_compiles_and_follows_the_seed() {
        for spec in &SPECS {
            let draw = |seed| statements(spec.kind, &mut SplitMix64(seed));
            let s = draw(9);
            assert_eq!(s.texts.len(), s.oracles.len());
            for text in &s.texts {
                urel_ql::compile(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            }
            assert_eq!(s.texts, draw(9).texts, "{}", spec.name);
            assert_ne!(s.texts, draw(10).texts, "{}", spec.name);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
            assert_eq!(super::spec(spec.name).map(|s| s.name), Some(spec.name));
        }
        // Same seed, same statements, whatever the storage.
        let mut rng = SplitMix64(4);
        assert_ne!(
            statements(Kind::TpchAdhoc, &mut rng).texts,
            statements(Kind::TpchAdhoc, &mut rng).texts
        );
    }
}
