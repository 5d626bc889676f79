//! The one JSON string escaper the workspace's hand-rolled emitters share.
//!
//! The workspace vendors no JSON library: the sweep document, the perf
//! report and the warehouse's `--json` query output are written by hand so
//! their field order stays deterministic. They all quote strings through
//! [`json_string`], so every artifact escapes the same way.

/// Quotes `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters (as `\u00XX`); every other character passes through.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes_quotes_backslashes_and_controls() {
        for (input, want) in [
            ("plain", r#""plain""#),
            ("a\"b\\c", r#""a\"b\\c""#),
            ("x\ny", r#""x\u000ay""#),
            (
                "mixed \"quotes\" \\ and\ncontrol\tchars",
                r#""mixed \"quotes\" \\ and\u000acontrol\u0009chars""#,
            ),
            ("ünïcode €", "\"ünïcode €\""),
        ] {
            assert_eq!(json_string(input), want, "escaping {input:?}");
        }
    }
}
