//! The one JSON writer behind every `BENCH_*.json` artifact.
//!
//! Each artifact is the same shape: flat run parameters, then `rows`,
//! one object per line. A field is its key and its value already
//! rendered ([`s`] quotes, [`v`] displays, [`f`] fixes the decimals), so
//! an experiment states its schema as data and this module owns the
//! punctuation. The layout is pinned byte for byte by
//! `tests/json_golden.rs` (the harness has no serde dependency).

use std::fmt::Display;

/// One `"key": value` pair; the value is already valid JSON.
pub type Field = (&'static str, String);

/// A string value, quoted and escaped.
#[must_use]
pub fn s(key: &'static str, value: &str) -> Field {
    (key, format!("\"{}\"", value.replace('\\', "\\\\").replace('"', "\\\"")))
}

/// An integer or boolean value, rendered by its `Display`.
#[must_use]
pub fn v(key: &'static str, value: impl Display) -> Field {
    (key, value.to_string())
}

/// A float with a fixed number of decimals.
#[must_use]
pub fn f(key: &'static str, value: f64, decimals: usize) -> Field {
    (key, format!("{value:.decimals$}"))
}

/// Renders `params` then one object per row (its `fields`) as one JSON
/// document.
#[must_use]
pub fn document<R>(params: &[Field], rows: &[R], fields: impl Fn(&R) -> Vec<Field>) -> String {
    let mut out = String::from("{\n");
    for (key, value) in params {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<String> =
            fields(row).iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("    {{ {} }}{comma}\n", fields.join(", ")));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_render_as_json() {
        assert_eq!(s("k", "a \"b\" \\"), ("k", "\"a \\\"b\\\" \\\\\"".to_string()));
        assert_eq!(v("k", true).1, "true");
        assert_eq!(v("k", 1.6).1, "1.6");
        assert_eq!(f("k", 2.0 / 3.0, 2).1, "0.67");
    }

    #[test]
    fn a_document_is_params_then_one_row_per_line() {
        let params = [s("experiment", "x"), v("n", 8)];
        assert_eq!(
            document(&params, &[1, 2], |a| vec![v("a", a)]),
            "{\n  \"experiment\": \"x\",\n  \"n\": 8,\n  \"rows\": [\n    { \"a\": 1 },\n    { \"a\": 2 }\n  ]\n}\n"
        );
        assert_eq!(document(&[], &[0; 0], |a| vec![v("a", a)]), "{\n  \"rows\": [\n  ]\n}\n");
    }
}
