//! The two JSON scalars the reports need. The output is flat enough that
//! a serializer dependency would be more code than this.

/// `s` as a quoted JSON string.
pub(crate) fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` with every digit Rust's shortest round-trip formatting gives.
/// Non-finite values have no JSON form; the measurement code never
/// produces them, so meeting one is a bug.
pub(crate) fn number(v: f64) -> String {
    assert!(
        v.is_finite(),
        "non-finite value {v} cannot be written as JSON"
    );
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\nd\u{1}"), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(0.30000000000000004), "0.30000000000000004");
        assert_eq!(number(12.0), "12");
    }
}
