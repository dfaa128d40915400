//! Finding type and the two output encodings (text and JSON).

use std::fmt;

/// One lint finding at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule id, e.g. `atomics`, `lock-order`.
    pub rule: String,
    pub message: String,
}

impl Finding {
    #[must_use]
    pub fn new(file: &str, line: u32, rule: &str, message: String) -> Self {
        Self {
            file: file.to_owned(),
            line,
            rule: rule.to_owned(),
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Renders findings as a JSON array of objects, stable field order.
#[must_use]
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str("  {\"file\":");
        json_str(&mut out, &f.file);
        out.push_str(",\"line\":");
        out.push_str(&f.line.to_string());
        out.push_str(",\"rule\":");
        json_str(&mut out, &f.rule);
        out.push_str(",\"message\":");
        json_str(&mut out, &f.message);
        out.push('}');
        if i + 1 < findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_machine_readable() {
        let f = Finding::new(
            "crates/x/src/lib.rs",
            7,
            "atomics",
            "Ordering::Relaxed outside the approved modules".into(),
        );
        assert_eq!(
            f.to_string(),
            "crates/x/src/lib.rs:7 atomics Ordering::Relaxed outside the approved modules"
        );
    }

    #[test]
    fn json_escapes_quotes() {
        let f = Finding::new("a.rs", 1, "r", "needs reason=\"...\"".into());
        let j = to_json(&[f]);
        assert!(j.contains("\\\"...\\\""), "{j}");
        assert!(j.starts_with('[') && j.ends_with(']'));
    }

    #[test]
    fn empty_is_empty_array() {
        assert_eq!(to_json(&[]), "[\n]");
    }
}
