//! Scalar values.
//!
//! The engine is dynamically typed over a small closed set of scalar types.
//! Dates are represented as `Int` days since 1990-01-01 (helper:
//! [`date_to_days`]); monetary amounts as integer cents. Keeping everything
//! integer/string makes rows `Eq + Ord + Hash`, which the hash joins, set
//! operations and test oracles rely on.

use crate::fxhash::FxHashSet;
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// A scalar value. The ordering is total: `Null < Bool < Int < Str`.
///
/// The engine uses plain two-valued logic (`Null == Null` holds): the
/// paper's algebra is positive relational algebra over complete
/// representation relations, so SQL three-valued semantics are not needed —
/// `Null` only appears as the explicit padding value introduced by the
/// union translation.
#[derive(Clone, Debug)]
pub enum Value {
    /// Absent / padding value.
    Null,
    /// Boolean (result of predicate evaluation).
    Bool(bool),
    /// 64-bit integer; also carries dates (days) and money (cents).
    Int(i64),
    /// Interned string: `Arc<str>` makes cloning rows cheap.
    Str(Arc<str>),
}

/// The global string-interning pool (see [`intern`]).
static INTERNER: OnceLock<Mutex<FxHashSet<Arc<str>>>> = OnceLock::new();

/// Intern a string: all callers loading the same text share one
/// `Arc<str>` allocation. Loaders (CSV import, the TPC-H dictionary
/// sampler) intern so that repeated dictionary values — market segments,
/// nation names, ship modes — are deduplicated across relations, and so
/// that vectorized string equality can compare *pointers* first and only
/// fall back to bytes on a miss (see [`str_eq`]).
///
/// The pool is global and append-only; intern only values drawn from
/// bounded domains (dictionaries, enum-like columns), not unbounded
/// unique keys.
pub fn intern(s: &str) -> Arc<str> {
    let pool = INTERNER.get_or_init(|| Mutex::new(FxHashSet::default()));
    // Pool entries are only ever inserted whole, so a panic elsewhere
    // cannot leave it mid-update — recover rather than poison-cascade.
    let mut pool = crate::fault::lock_recover(pool);
    if let Some(hit) = pool.get(s) {
        return Arc::clone(hit);
    }
    let arc: Arc<str> = Arc::from(s);
    pool.insert(Arc::clone(&arc));
    arc
}

/// String equality with the pointer-first fast path interning enables:
/// two interned copies of the same text share one allocation, so most
/// equality checks on dictionary columns resolve without touching bytes.
#[inline]
pub fn str_eq(a: &Arc<str>, b: &Arc<str>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build a string value through the global interner (use at load
    /// time for values drawn from bounded domains; see [`intern`]).
    pub fn interned(s: impl AsRef<str>) -> Self {
        Value::Str(intern(s.as_ref()))
    }

    /// `true` if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an integer, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract a string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate heap + inline footprint in bytes, used by the Figure 9
    /// database-size accounting.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Str(s) => s.len(),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => str_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.as_ref().cmp(b.as_ref()),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u8(self.rank());
        match self {
            Value::Null => {}
            Value::Bool(b) => state.write_u8(*b as u8),
            Value::Int(i) => state.write_i64(*i),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "⊥"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

/// Days from 1990-01-01 to the given proleptic Gregorian date.
///
/// Good for the whole TPC-H date range; panics on out-of-range months to
/// catch workload-definition typos early.
pub fn date_to_days(year: i64, month: u32, day: u32) -> i64 {
    assert!((1..=12).contains(&month), "month out of range: {month}");
    assert!((1..=31).contains(&day), "day out of range: {day}");
    // Howard Hinnant's days-from-civil, re-based from the Unix epoch
    // (1970-01-01) to 1990-01-01 (+7305 days).
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = ((month + 9) % 12) as i64;
    let doy = (153 * mp + 2) / 5 + day as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468 - 7_305
}

/// Parse `"YYYY-MM-DD"` into days since 1990-01-01 (see [`date_to_days`]).
pub fn parse_date(s: &str) -> Option<i64> {
    let mut parts = s.splitn(3, '-');
    let y: i64 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    Some(date_to_days(y, m, d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_across_types() {
        let mut vs = vec![
            Value::str("a"),
            Value::Int(3),
            Value::Null,
            Value::Bool(true),
            Value::Int(-1),
            Value::str("A"),
            Value::Bool(false),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(false),
                Value::Bool(true),
                Value::Int(-1),
                Value::Int(3),
                Value::str("A"),
                Value::str("a"),
            ]
        );
    }

    #[test]
    fn null_equals_null() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
    }

    #[test]
    fn date_arithmetic_is_monotone() {
        let d1 = date_to_days(1994, 1, 1);
        let d2 = date_to_days(1994, 1, 2);
        let d3 = date_to_days(1994, 2, 1);
        let d4 = date_to_days(1995, 1, 1);
        assert_eq!(d2 - d1, 1);
        assert_eq!(d3 - d1, 31);
        assert_eq!(d4 - d1, 365); // 1994 is not a leap year
        assert_eq!(date_to_days(1990, 1, 1), 0);
        // 1992 and 1996 are leap years within 1990..2000: 10*365 + 2.
        assert_eq!(date_to_days(2000, 1, 1), 3652);
    }

    #[test]
    fn parse_date_matches_constructor() {
        assert_eq!(parse_date("1995-03-15"), Some(date_to_days(1995, 3, 15)));
        assert_eq!(parse_date("bogus"), None);
        assert_eq!(parse_date("1995-03"), None);
    }

    #[test]
    fn interner_dedupes_allocations() {
        let a = intern("MIDDLE EAST");
        let b = intern("MIDDLE EAST");
        assert!(Arc::ptr_eq(&a, &b));
        let (Value::Str(v1), Value::Str(v2)) =
            (Value::interned("BUILDING"), Value::interned("BUILDING"))
        else {
            panic!("interned() builds strings");
        };
        assert!(Arc::ptr_eq(&v1, &v2));
        // Interned and non-interned copies still compare equal by bytes.
        assert_eq!(Value::interned("x"), Value::str("x"));
        assert!(str_eq(&intern("y"), &Arc::from("y")));
        assert!(!str_eq(&intern("y"), &Arc::from("z")));
    }

    #[test]
    fn size_accounting() {
        assert_eq!(Value::Int(1).size_bytes(), 8);
        assert_eq!(Value::str("abcd").size_bytes(), 4);
        assert_eq!(Value::Null.size_bytes(), 1);
    }
}
