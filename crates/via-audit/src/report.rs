//! Machine-readable findings output.
//!
//! `cargo run -p via-audit -- --format json` emits one JSON document for CI
//! artifact upload. The crate is dependency-free on purpose (it lints the
//! workspace, so it must not depend on the workspace), so the emitter is
//! hand-written: fields in a fixed order (`file`, `line`, `lint`,
//! `message`), findings in the caller's order (the workspace
//! walk sorts by file, then line, then lint), strings escaped per RFC 8259.

use crate::lints::Finding;

/// Escapes `s` as the contents of a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xf;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
}

/// Renders findings as a pretty-printed JSON document (trailing newline
/// included). Every finding is an error: `errors` is their count.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::with_capacity(findings.len() * 128 + 128);
    out.push_str("{\n");
    out.push_str("  \"tool\": \"via-audit\",\n");
    out.push_str("  \"schema_version\": 3,\n");
    out.push_str(&format!("  \"errors\": {},\n", findings.len()));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    { \"file\": \"");
        escape_into(&mut out, &f.file);
        out.push_str(&format!("\", \"line\": {}, \"lint\": \"", f.line));
        escape_into(&mut out, f.lint);
        out.push_str("\", \"message\": \"");
        escape_into(&mut out, &f.message);
        out.push_str("\" }");
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: usize, msg: &str) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            lint: "nan-cmp",
            message: msg.to_string(),
        }
    }

    #[test]
    fn empty_report() {
        let j = to_json(&[]);
        assert!(j.contains("\"errors\": 0"));
        assert!(j.contains("\"findings\": []"));
        assert!(j.ends_with("}\n"));
    }

    #[test]
    fn counts_and_field_order_are_stable() {
        let j = to_json(&[finding("a.rs", 1, "x"), finding("b.rs", 2, "y")]);
        assert!(j.contains("\"errors\": 2"));
        let file_pos = j.find("\"file\"").unwrap_or(usize::MAX);
        let line_pos = j.find("\"line\"").unwrap_or(0);
        let lint_pos = j.find("\"lint\"").unwrap_or(0);
        let msg_pos = j.find("\"message\"").unwrap_or(0);
        assert!(file_pos < line_pos && line_pos < lint_pos && lint_pos < msg_pos);
    }

    #[test]
    fn strings_are_escaped() {
        let j = to_json(&[finding("a\\b.rs", 1, "say \"hi\"\n\u{1}")]);
        assert!(j.contains("a\\\\b.rs"));
        assert!(j.contains("\\\"hi\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\\u0001"));
    }
}
