//! SARIF 2.1.0 output, for code-scanning UIs and the CI analysis gate.
//!
//! The emitter produces one run with a fully populated
//! `tool.driver.rules` table (all eleven lint families plus the
//! `malformed-allow` meta-rule) and one `result` per finding.

use crate::diag::{escape, Finding};

/// `(rule id, short description)` for every rule that can appear in a
/// report.
pub const RULES: [(&str, &str); 12] = [
    (
        "ni-no-float",
        "No floating point in NI-resident code (the i960 target has no FPU)",
    ),
    ("ni-no-panic", "No panicking constructs in non-test NI code"),
    (
        "sim-determinism",
        "No wall clock or hash-order iteration in simulation crates",
    ),
    (
        "unsafe-hygiene",
        "`unsafe` only in allowlisted files, with a `// SAFETY:` comment",
    ),
    (
        "ni-no-alloc",
        "No heap allocation reachable from `// analysis: hot` service paths",
    ),
    (
        "q16-overflow",
        "Q16/Frac arithmetic must widen before multiplying and never truncate",
    ),
    (
        "sweep-determinism",
        "Published sweep results must not depend on thread identity or arrival order",
    ),
    (
        "ni-cycle-budget",
        "Worst-case cycles per hot root bounded and within the per-decision budget",
    ),
    (
        "ni-stack-depth",
        "Hot roots: bounded call depth, no recursion, no large stack locals",
    ),
    (
        "ni-bounds",
        "Every hot-path index, unsigned sub, division and shift proven in-range by the interval domain",
    ),
    (
        "q16-range",
        "Fixed-point multiplies, left shifts and narrowing casts proven to fit their width",
    ),
    ("malformed-allow", "`// analysis:` annotations must be well-formed"),
];

/// Render findings as a SARIF 2.1.0 document.
pub fn to_sarif(findings: &[Finding]) -> String {
    let mut out = String::with_capacity(findings.len() * 256 + 2048);
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"nistream-analysis\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (id, desc)) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            escape(id),
            escape(desc),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let mut message = f.message.clone();
        if let Some(note) = &f.note {
            message.push_str(" — ");
            message.push_str(note);
        }
        out.push_str("        {\n");
        out.push_str(&format!("          \"ruleId\": \"{}\",\n", escape(&f.lint)));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{\"text\": \"{}\"}},\n",
            escape(&message)
        ));
        out.push_str("          \"locations\": [\n");
        out.push_str("            {\"physicalLocation\": {\n");
        out.push_str(&format!(
            "              \"artifactLocation\": {{\"uri\": \"{}\"}},\n",
            escape(&f.file.display().to_string())
        ));
        out.push_str(&format!(
            "              \"region\": {{\"startLine\": {}, \"startColumn\": {}}}\n",
            f.line, f.col
        ));
        out.push_str("            }}\n          ]\n");
        out.push_str(&format!(
            "        }}{}\n",
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::path::PathBuf;

    fn sample() -> Finding {
        Finding {
            lint: "ni-no-alloc".into(),
            file: PathBuf::from("crates/dwcs/src/svc.rs"),
            line: 42,
            col: 9,
            message: "`.push(…)` may grow a `Vec` in NI hot code".into(),
            note: Some("hot via service_once".into()),
        }
    }

    #[test]
    fn emits_valid_sarif_210() {
        let text = to_sarif(&[sample()]);
        let doc = json::parse(&text).expect("SARIF must be valid JSON");
        assert_eq!(doc.get("version").unwrap().as_str(), Some("2.1.0"));
        let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
        let rules = run.get("tool").unwrap().get("driver").unwrap().get("rules").unwrap();
        assert_eq!(rules.as_arr().unwrap().len(), RULES.len());
        let result = &run.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(result.get("ruleId").unwrap().as_str(), Some("ni-no-alloc"));
        let loc = &result.get("locations").unwrap().as_arr().unwrap()[0];
        let phys = loc.get("physicalLocation").unwrap();
        assert_eq!(
            phys.get("artifactLocation").unwrap().get("uri").unwrap().as_str(),
            Some("crates/dwcs/src/svc.rs")
        );
        assert_eq!(
            phys.get("region").unwrap().get("startLine"),
            Some(&json::Value::Num("42".into()))
        );
    }

    #[test]
    fn empty_report_is_still_a_run() {
        let doc = json::parse(&to_sarif(&[])).unwrap();
        let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
        assert_eq!(run.get("results").unwrap().as_arr().unwrap().len(), 0);
    }
}
