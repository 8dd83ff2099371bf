//! CSV import/export for relations.
//!
//! A small but real interchange path: header row with column names,
//! RFC-4180-style quoting for fields containing commas/quotes/newlines.
//! Integers parse to [`Value::Int`], the literal `NULL` to [`Value::Null`],
//! everything else to strings. Round-trips are exact for the engine's
//! value model (strings that *look* like integers come back as integers —
//! callers needing exact string typing should quote upstream).

use crate::catalog::{EngineConfig, StorageMode};
use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::store::DiskTableWriter;
use crate::value::Value;
use std::io::{BufRead, Write};

/// Write a relation as CSV (header + rows).
pub fn write_csv(rel: &Relation, out: &mut impl Write) -> std::io::Result<()> {
    let header: Vec<String> = rel
        .schema()
        .columns()
        .iter()
        .map(|c| escape(&c.to_string()))
        .collect();
    writeln!(out, "{}", header.join(","))?;
    for row in rel.rows() {
        let fields: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Null => "NULL".to_string(),
                Value::Bool(b) => b.to_string(),
                Value::Int(i) => i.to_string(),
                Value::Str(s) => escape(s),
            })
            .collect();
        writeln!(out, "{}", fields.join(","))?;
    }
    Ok(())
}

/// Read a relation from CSV (header defines the schema).
///
/// Under a [`StorageMode::Disk`] default the rows stream straight into
/// an on-disk segment store ([`DiskTableWriter`]) and the returned
/// relation is disk-backed — the row store is never materialized
/// during the load.
pub fn read_csv(input: &mut impl BufRead) -> Result<Relation> {
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| Error::Invalid("empty CSV input".into()))?
        .map_err(|e| Error::Invalid(format!("io error: {e}")))?;
    let names: Vec<String> = split_line(&header)?.into_iter().map(|(n, _)| n).collect();
    let config = EngineConfig::default();
    let mut writer = if config.storage == StorageMode::Disk {
        Some(DiskTableWriter::create_scratch(
            "csv",
            names.clone(),
            config.segment_rows,
        )?)
    } else {
        None
    };
    let mut rel = Relation::empty(Schema::named(&names));
    for line in lines {
        let line = line.map_err(|e| Error::Invalid(format!("io error: {e}")))?;
        if line.is_empty() {
            continue;
        }
        let fields = split_line(&line)?;
        if fields.len() != names.len() {
            return Err(Error::ArityMismatch {
                expected: names.len(),
                got: fields.len(),
            });
        }
        let row: Vec<Value> = fields
            .into_iter()
            .map(|(f, quoted)| parse_value(&f, quoted))
            .collect();
        if let Some(w) = writer.as_mut() {
            w.push(&row)?;
            continue;
        }
        rel.push(row)?;
    }
    if let Some(w) = writer {
        return Ok(Relation::from_disk_image(w.finish()?));
    }
    Ok(rel)
}

/// Quoted fields are always strings; unquoted fields are type-sniffed.
/// Strings go through the global interner: CSV string columns are
/// typically low-cardinality (dictionary-coded domains), so repeated
/// values share one `Arc<str>` and vectorized equality over the loaded
/// columns can compare pointers first. Note the pool lives for the
/// process ([`crate::value::intern`]): a service ingesting unbounded
/// unique-key CSVs should load those columns through its own path.
fn parse_value(field: &str, quoted: bool) -> Value {
    if quoted {
        return Value::interned(field);
    }
    if field == "NULL" {
        return Value::Null;
    }
    if field == "true" {
        return Value::Bool(true);
    }
    if field == "false" {
        return Value::Bool(false);
    }
    if let Ok(i) = field.parse::<i64>() {
        return Value::Int(i);
    }
    Value::interned(field)
}

/// Quote when the bare text would parse as something other than itself.
fn escape(s: &str) -> String {
    let needs_quotes = s.contains([',', '"', '\n'])
        || s == "NULL"
        || s == "true"
        || s == "false"
        || s.parse::<i64>().is_ok()
        || s.is_empty();
    if needs_quotes {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Split one CSV line honoring double-quoted fields; each field reports
/// whether it was quoted.
fn split_line(line: &str) -> Result<Vec<(String, bool)>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    let mut was_quoted = false;
    while let Some(c) = chars.next() {
        match (c, in_quotes) {
            ('"', false) if cur.is_empty() && !was_quoted => {
                in_quotes = true;
                was_quoted = true;
            }
            ('"', true) => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            (',', false) => {
                fields.push((std::mem::take(&mut cur), was_quoted));
                was_quoted = false;
            }
            (c, _) => cur.push(c),
        }
    }
    if in_quotes {
        return Err(Error::Invalid(format!(
            "unterminated quote in CSV line: {line}"
        )));
    }
    fields.push((cur, was_quoted));
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        Relation::from_rows(
            ["id", "name", "note"],
            vec![
                vec![Value::Int(1), Value::str("plain"), Value::Null],
                vec![
                    Value::Int(-2),
                    Value::str("with, comma"),
                    Value::str("q\"uote"),
                ],
                vec![Value::Int(3), Value::str("NULL"), Value::Bool(true)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let rel = sample();
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        let back = read_csv(&mut buf.as_slice()).unwrap();
        assert_eq!(back.schema().to_string(), rel.schema().to_string());
        assert!(back.set_eq(&rel), "{back} vs {rel}");
    }

    #[test]
    fn quoting_rules() {
        let mut buf = Vec::new();
        write_csv(&sample(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"with, comma\""));
        assert!(text.contains("\"q\"\"uote\""));
        // The *string* "NULL" is quoted to distinguish it from null.
        assert!(text.contains("\"NULL\""));
    }

    #[test]
    fn rejects_ragged_rows_and_bad_quotes() {
        let mut bad = "a,b\n1\n".as_bytes();
        assert!(matches!(
            read_csv(&mut bad),
            Err(Error::ArityMismatch { .. })
        ));
        let mut unterminated = "a\n\"oops\n".as_bytes();
        assert!(read_csv(&mut unterminated).is_err());
        let mut empty = "".as_bytes();
        assert!(read_csv(&mut empty).is_err());
    }

    #[test]
    fn loaded_strings_are_interned() {
        let mut a = "seg\nBUILDING-IO\nBUILDING-IO\n".as_bytes();
        let rel = read_csv(&mut a).unwrap();
        let (Value::Str(s0), Value::Str(s1)) = (&rel.rows()[0][0], &rel.rows()[1][0]) else {
            panic!("strings expected");
        };
        assert!(std::sync::Arc::ptr_eq(s0, s1), "same text, one allocation");
        // ...and across separate loads.
        let mut b = "seg\nBUILDING-IO\n".as_bytes();
        let rel2 = read_csv(&mut b).unwrap();
        let Value::Str(s2) = &rel2.rows()[0][0] else {
            panic!("string expected");
        };
        assert!(std::sync::Arc::ptr_eq(s0, s2));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let mut input = "a\n1\n\n2\n".as_bytes();
        let rel = read_csv(&mut input).unwrap();
        assert_eq!(rel.len(), 2);
    }
}
