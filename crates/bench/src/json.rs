//! A minimal JSON value model and serialiser.
//!
//! The build environment has no access to crates.io (see the workspace
//! `vendor/` shims), so the benchmark reporter carries its own JSON writer
//! instead of depending on `serde`. It supports exactly what the
//! [`report`](crate::report) schema needs: objects (with preserved key
//! order), arrays, strings, finite numbers and booleans.

/// A JSON value.
///
/// Objects preserve insertion order so serialised reports are deterministic
/// and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (serialised without a trailing `.0` when integral).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an ordered list of key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serialises the value as pretty-printed JSON (2-space indent, trailing
    /// newline), deterministic for a given value.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push('}');
            }
        }
    }
}

/// Formats a number the way the reports expect: integral values without a
/// fractional part, everything else with enough digits to round-trip.
fn format_number(n: f64) -> String {
    if !n.is_finite() {
        // The schema never produces non-finite numbers; serialise as null-ish
        // zero rather than emitting invalid JSON.
        return "0".to_string();
    }
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        let s = format!("{n}");
        debug_assert!(s.parse::<f64>().is_ok());
        s
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
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
    fn escapes_strings() {
        let value = Json::Str("a \"quoted\"\nline\twith \\ and ünïcode \u{1}".to_string());
        assert_eq!(
            value.to_pretty_string(),
            "\"a \\\"quoted\\\"\\nline\\twith \\\\ and ünïcode \\u0001\"\n"
        );
    }

    #[test]
    fn integral_numbers_have_no_fraction() {
        assert_eq!(Json::Num(42.0).to_pretty_string().trim(), "42");
        assert_eq!(Json::Num(-7.0).to_pretty_string().trim(), "-7");
        assert!(Json::Num(0.5).to_pretty_string().trim().contains('.'));
    }
}
