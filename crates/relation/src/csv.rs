//! Minimal CSV reading/writing (RFC-4180 subset, hand-rolled — no external
//! dependency is available offline for this).
//!
//! Supports quoted fields with embedded commas, doubled quotes, and both
//! `\n` and `\r\n` line endings. The first record is the header; column
//! types are inferred (or supplied explicitly via [`read_relation_typed`]).

use crate::error::{RelationError, Result};
use crate::relation::Relation;
use crate::schema::{Attribute, RelationSchema};
use crate::tuple::Tuple;
use crate::value::{DataType, Value};
use std::borrow::Cow;

/// CSV text split into records of raw fields. Fields borrow from the input;
/// only a field whose text is not one contiguous slice of it (a quoted field
/// with doubled quotes, or one broken by a swallowed `\r`) is owned.
#[derive(Debug, Default)]
pub struct Records<'a> {
    fields: Vec<Cow<'a, str>>,
    /// Record `i` is `fields[ends[i - 1]..ends[i]]` (from 0 for the first).
    ends: Vec<usize>,
}

impl<'a> Records<'a> {
    /// The records in order, each as its fields.
    pub fn iter(&self) -> impl Iterator<Item = &[Cow<'a, str>]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.fields[start..end])
    }
}

/// Split CSV text into records of raw string fields.
///
/// Returns an error for an unterminated quoted field or stray quote.
pub fn parse_records(text: &str) -> Result<Records<'_>> {
    let bytes = text.as_bytes();
    let mut records = Records::default();
    // The current field as byte ranges of `text` (adjacent ones merged).
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let push = |ranges: &mut Vec<(usize, usize)>, start: usize, end: usize| {
        if start == end {
            return;
        }
        match ranges.last_mut() {
            Some(last) if last.1 == start => last.1 = end,
            _ => ranges.push((start, end)),
        }
    };
    let mut line = 1usize;
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        while i < bytes.len() && !matches!(bytes[i], b'"' | b',' | b'\r' | b'\n') {
            i += 1;
        }
        push(&mut ranges, start, i);
        let Some(&b) = bytes.get(i) else { break };
        i += 1;
        match b {
            b'"' => {
                if !ranges.is_empty() {
                    return Err(RelationError::Csv {
                        line,
                        message: "quote in the middle of an unquoted field".into(),
                    });
                }
                // Quoted text runs to the next lone quote; `""` is a quote.
                loop {
                    let start = i;
                    while i < bytes.len() && bytes[i] != b'"' {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    if i == bytes.len() {
                        return Err(RelationError::Csv {
                            line,
                            message: "unterminated quoted field".into(),
                        });
                    }
                    if bytes.get(i + 1) == Some(&b'"') {
                        push(&mut ranges, start, i + 1);
                        i += 2;
                    } else {
                        push(&mut ranges, start, i);
                        i += 1;
                        break;
                    }
                }
            }
            b',' => records.fields.push(field(text, &mut ranges)),
            b'\n' => {
                records.fields.push(field(text, &mut ranges));
                records.ends.push(records.fields.len());
                line += 1;
            }
            // `\r` is swallowed; the following `\n` terminates the record.
            _ => {}
        }
    }
    let open = records.ends.last().copied().unwrap_or(0) < records.fields.len();
    if !ranges.is_empty() || open {
        records.fields.push(field(text, &mut ranges));
        records.ends.push(records.fields.len());
    }
    Ok(records)
}

/// Take the field collected in `ranges`: a slice of `text` when it is one
/// range (all range ends sit next to ASCII delimiters, so on character
/// boundaries), else the concatenation.
fn field<'a>(text: &'a str, ranges: &mut Vec<(usize, usize)>) -> Cow<'a, str> {
    let field = match ranges.as_slice() {
        [] => Cow::Borrowed(""),
        &[(start, end)] => Cow::Borrowed(&text[start..end]),
        many => Cow::Owned(many.iter().map(|&(start, end)| &text[start..end]).collect()),
    };
    ranges.clear();
    field
}

/// Read a relation from CSV text, inferring a column type from the observed
/// values: a column is `Int` if every non-empty field parses as an integer,
/// else `Float` if every non-empty field parses as a number, else `Bool` if
/// every non-empty field is `true`/`false`, else `Text`.
pub fn read_relation(name: impl Into<String>, text: &str) -> Result<Relation> {
    let records = parse_records(text)?;
    let mut it = records.iter();
    let header = it.next().ok_or(RelationError::Csv {
        line: 1,
        message: "missing header record".into(),
    })?;
    let body: Vec<&[Cow<str>]> = it.collect();

    // Every field is parsed once, as its narrowest value; the second pass
    // re-parses only the fields of a wider column type.
    let mut inferred: Vec<Value> = Vec::with_capacity(body.len() * header.len());
    let mut types: Vec<Option<DataType>> = vec![None; header.len()];
    for rec in &body {
        for (col, raw) in rec.iter().enumerate() {
            let value = Value::infer(raw);
            if let (Some(ty), Some(observed)) = (types.get_mut(col), value.data_type()) {
                *ty = Some(ty.map_or(observed, |current| widen(current, observed)));
            }
            inferred.push(value);
        }
    }

    let schema = RelationSchema::new(
        name,
        header
            .iter()
            .zip(&types)
            .map(|(h, t)| Attribute::new(h.trim(), t.unwrap_or(DataType::Text)))
            .collect(),
    )?;
    read_body(Relation::empty(schema), &body, inferred)
}

/// Parse `body` records against `rel`'s schema and append them. `inferred`
/// holds the fields' narrowest values in order, or nothing: a field whose
/// value already has its column's type (or is null) is taken as is, any
/// other is parsed as the column's type.
fn read_body(
    mut rel: Relation,
    body: &[&[Cow<str>]],
    mut inferred: Vec<Value>,
) -> Result<Relation> {
    let types: Vec<DataType> = rel.schema().attributes().iter().map(|a| a.dtype).collect();
    let mut cells = inferred.iter_mut();
    rel.reserve(body.len());
    for (i, rec) in body.iter().enumerate() {
        if rec.len() != types.len() {
            return Err(RelationError::Csv {
                line: i + 2,
                message: format!("expected {} fields, found {}", types.len(), rec.len()),
            });
        }
        let mut values = Vec::with_capacity(types.len());
        for (raw, &t) in rec.iter().zip(&types) {
            let value = match cells.next() {
                Some(v) if v.data_type().is_none_or(|vt| vt == t) => {
                    std::mem::replace(v, Value::Null)
                }
                _ => Value::parse_as(raw, t).ok_or_else(|| RelationError::Csv {
                    line: i + 2,
                    message: format!("field `{raw}` does not parse as {t}"),
                })?,
            };
            values.push(value);
        }
        rel.push(Tuple::new(values))?;
    }
    Ok(rel)
}

/// Read a relation from CSV text against an explicitly declared schema
/// (header names must match the schema's attribute names, in order).
pub fn read_relation_typed(schema: RelationSchema, text: &str) -> Result<Relation> {
    let records = parse_records(text)?;
    let mut it = records.iter();
    let header = it.next().ok_or(RelationError::Csv {
        line: 1,
        message: "missing header record".into(),
    })?;
    if header.len() != schema.arity()
        || header
            .iter()
            .zip(schema.attributes())
            .any(|(h, a)| h.trim() != a.name)
    {
        return Err(RelationError::Csv {
            line: 1,
            message: format!("header does not match schema `{schema}`"),
        });
    }
    let body: Vec<&[Cow<str>]> = it.collect();
    read_body(Relation::empty(schema), &body, Vec::new())
}

/// Serialize a relation to CSV text (header + records, quoting only when
/// needed).
pub fn write_relation(rel: &Relation) -> String {
    let mut out = String::new();
    let header: Vec<&str> = rel
        .schema()
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    push_record(&mut out, header.iter().map(|s| s.to_string()));
    for row in rel.rows() {
        push_record(&mut out, row.values().iter().map(|v| v.to_string()));
    }
    out
}

fn push_record(out: &mut String, fields: impl Iterator<Item = String>) {
    let mut first = true;
    for f in fields {
        if !first {
            out.push(',');
        }
        first = false;
        if f.contains(',') || f.contains('"') || f.contains('\n') {
            out.push('"');
            out.push_str(&f.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(&f);
        }
    }
    out.push('\n');
}

/// The widest of the current column type and a newly observed value's type.
fn widen(current: DataType, observed: DataType) -> DataType {
    use DataType::*;
    match (current, observed) {
        (Int, Float) | (Float, Int) => Float,
        _ if current == observed => current,
        _ => Text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    #[test]
    fn round_trip_simple() {
        let text = "From,To,Airline\nParis,Lille,AF\nNYC,Paris,AA\n";
        let rel = read_relation("flights", text).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.schema().attributes()[0].dtype, DataType::Text);
        assert_eq!(write_relation(&rel), text);
    }

    #[test]
    fn infers_int_float_bool() {
        let text = "a,b,c,d\n1,1.5,true,x\n2,2,false,y\n";
        let rel = read_relation("t", text).unwrap();
        let types: Vec<DataType> = rel.schema().attributes().iter().map(|a| a.dtype).collect();
        assert_eq!(
            types,
            vec![
                DataType::Int,
                DataType::Float,
                DataType::Bool,
                DataType::Text
            ]
        );
        assert_eq!(rel.row(0).unwrap()[0], Value::Int(1));
        assert_eq!(rel.row(1).unwrap()[1], Value::Float(2.0));
    }

    #[test]
    fn quoted_fields() {
        let text = "name,notes\n\"Lille, FR\",\"said \"\"hi\"\"\"\n";
        let rel = read_relation("t", text).unwrap();
        assert_eq!(rel.row(0).unwrap()[0], Value::text("Lille, FR"));
        assert_eq!(rel.row(0).unwrap()[1], Value::text("said \"hi\""));
    }

    #[test]
    fn quoted_round_trip() {
        let text = "name\n\"a,b\"\n";
        let rel = read_relation("t", text).unwrap();
        assert_eq!(write_relation(&rel), text);
    }

    #[test]
    fn empty_fields_become_null() {
        let text = "a,b\n1,\n,x\n";
        let rel = read_relation("t", text).unwrap();
        assert!(rel.row(0).unwrap()[1].is_null());
        assert!(rel.row(1).unwrap()[0].is_null());
        // Column a still inferred Int from the non-empty field.
        assert_eq!(rel.schema().attributes()[0].dtype, DataType::Int);
    }

    #[test]
    fn crlf_line_endings() {
        let text = "a,b\r\n1,2\r\n";
        let rel = read_relation("t", text).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.row(0).unwrap()[1], Value::Int(2));
    }

    #[test]
    fn missing_trailing_newline() {
        let text = "a\n1\n2";
        let rel = read_relation("t", text).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn ragged_record_is_error() {
        let text = "a,b\n1\n";
        assert!(matches!(
            read_relation("t", text),
            Err(RelationError::Csv { line: 2, .. })
        ));
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(parse_records("a\n\"oops").is_err());
    }

    #[test]
    fn stray_quote_is_error() {
        assert!(parse_records("a\nb\"c\n").is_err());
    }

    #[test]
    fn typed_read_checks_header() {
        let schema = RelationSchema::of("t", &[("a", DataType::Int)]).unwrap();
        assert!(read_relation_typed(schema.clone(), "a\n7\n").is_ok());
        assert!(read_relation_typed(schema.clone(), "b\n7\n").is_err());
        assert!(read_relation_typed(schema, "a\nxyz\n").is_err());
    }

    #[test]
    fn typed_read_values() {
        let schema =
            RelationSchema::of("t", &[("a", DataType::Int), ("b", DataType::Text)]).unwrap();
        let rel = read_relation_typed(schema, "a,b\n7,7\n").unwrap();
        assert_eq!(rel.row(0).unwrap(), &tup![7i64, "7"]);
    }

    #[test]
    fn empty_input_is_error() {
        assert!(read_relation("t", "").is_err());
    }

    #[test]
    fn header_only_gives_empty_relation() {
        let rel = read_relation("t", "a,b\n").unwrap();
        assert!(rel.is_empty());
        // Columns with no observed values default to Text.
        assert_eq!(rel.schema().attributes()[0].dtype, DataType::Text);
    }
}
