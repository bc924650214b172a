//! Minimal hand-rolled JSON emission helpers.
//!
//! The harness (and the fuzzer's failure corpus) writes JSON/JSONL
//! without a serialization dependency. These helpers centralize the two
//! things that are easy to get wrong when formatting by hand: string
//! escaping and object assembly. They emit compact single-line objects —
//! exactly what a JSONL record wants.

use std::fmt::Write;

/// Escapes a string for inclusion inside a JSON string literal (the
/// result does **not** include the surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A single-line JSON object under construction.
///
/// ```
/// use bench_harness::json::JsonObject;
///
/// let mut o = JsonObject::new();
/// o.field_str("name", "loop \"hot\"");
/// o.field_u64("stores", 42);
/// assert_eq!(o.finish(), r#"{"name":"loop \"hot\"","stores":42}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject { buf: String::new() }
    }

    fn sep(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape(key));
    }

    /// Adds a string field (escaped).
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.sep(key);
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.sep(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Closes the object and returns the rendered line.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn assembles_objects() {
        let mut o = JsonObject::new();
        o.field_str("k", "v");
        o.field_u64("n", 3);
        assert_eq!(o.finish(), r#"{"k":"v","n":3}"#);
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
