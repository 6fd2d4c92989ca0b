//! Findings, their rustc-style text rendering, and the JSON string
//! escaping the SARIF report ([`crate::sarif`]) uses.

use std::fmt;
use std::path::PathBuf;

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Lint family that fired (`ni-no-float`, …).
    pub lint: String,
    /// Repo-relative file.
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What went wrong.
    pub message: String,
    /// Optional remediation note.
    pub note: Option<String>,
}

impl fmt::Display for Finding {
    /// rustc-style: `error[lint]: message` + `  --> file:line:col`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.lint, self.message)?;
        write!(f, "  --> {}:{}:{}", self.file.display(), self.line, self.col)?;
        if let Some(note) = &self.note {
            write!(f, "\n   = note: {note}")?;
        }
        Ok(())
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            lint: "ni-no-float".into(),
            file: PathBuf::from("crates/dwcs/src/admission.rs"),
            line: 35,
            col: 9,
            message: "f64 in NI-resident code".into(),
            note: Some("use fixedpt::Q16 or Frac".into()),
        }
    }

    #[test]
    fn display_is_rustc_shaped() {
        let text = sample().to_string();
        assert!(text.starts_with("error[ni-no-float]: "));
        assert!(text.contains("--> crates/dwcs/src/admission.rs:35:9"));
        assert!(text.contains("note: use fixedpt"));
    }

    #[test]
    fn json_escapes_and_structures() {
        let mut f = sample();
        f.message = "contains \"quotes\" and \\slash\n\tand \u{1}".into();
        f.note = None;
        let sarif = crate::sarif::to_sarif(&[f.clone()]);
        assert!(sarif.contains(r#"contains \"quotes\" and \\slash\n\tand \u0001""#));
        assert!(sarif.contains(r#""startLine": 35"#));
        let doc = crate::json::parse(&sarif).expect("escaped SARIF is valid JSON");
        let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
        let result = &run.get("results").unwrap().as_arr().unwrap()[0];
        let text = result.get("message").unwrap().get("text").unwrap().as_str();
        assert_eq!(text, Some(f.message.as_str()), "no note, and the message round-trips");
    }
}
