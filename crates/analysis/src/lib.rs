//! Repo-specific static analysis for the nistream workspace.
//!
//! The paper's scheduler runs as firmware on an FPU-less i960RD network
//! interface; this crate mechanically enforces the coding invariants that
//! fact imposes on the NI-resident crates, plus determinism rules for the
//! simulation crates and hygiene rules for `unsafe`. See DESIGN.md,
//! "Static invariants", for the rationale of each family:
//!
//! * [`lints::NI_NO_FLOAT`] — no `f32`/`f64`, float literals or casts in
//!   NI-resident code.
//! * [`lints::NI_NO_PANIC`] — no `unwrap()`/`expect(…)`/`panic!`-family
//!   macros outside tests.
//! * [`lints::SIM_DETERMINISM`] — no wall clock or hash-order-dependent
//!   collections in the simulation crates.
//! * [`lints::UNSAFE_HYGIENE`] — `unsafe` only in allowlisted files and
//!   only with a `// SAFETY:` comment.
//! * [`lints::NI_NO_ALLOC`] — no heap allocation reachable from functions
//!   marked `// analysis: hot` (call-graph reachability, init-time
//!   constructors excluded).
//! * [`lints::Q16_OVERFLOW`] — `Q16`/`Frac` arithmetic must widen raw
//!   multiplies through `i128`, keep shifts inside the value's width, and
//!   never truncate `Frac` components back to bare integers.
//! * [`lints::SWEEP_DETERMINISM`] — published sweep results must not
//!   depend on thread identity or channel arrival order.
//! * [`lints::NI_CYCLE_BUDGET`] — interprocedural worst-case cycle bound
//!   for every `// analysis: hot` root ([`costmodel`]) must fit the
//!   configured per-frame budget at 66 MHz; unbounded loops on the hot
//!   path are findings.
//! * [`lints::NI_STACK_DEPTH`] — hot paths must have bounded call depth,
//!   no recursion, and no large stack locals.
//! * [`lints::NI_BOUNDS`] — every hot-path index, unsigned subtraction,
//!   division and shift proven in range by the interval domain.
//! * [`lints::Q16_RANGE`] — fixed-point multiplies, left shifts and
//!   narrowing casts proven to fit their width.
//!
//! The pipeline parses each file once — lex ([`lexer`]) → exemptions
//! ([`scope`]) → tolerant AST ([`parser`]/[`ast`]) — then runs token
//! scans, AST walks and dataflow passes ([`dataflow`], [`callgraph`])
//! per configured lint. Run from the workspace root:
//!
//! ```text
//! cargo run -p nistream-analysis -- check [--format=sarif]
//! cargo run -p nistream-analysis -- budget
//! cargo run -p nistream-analysis -- bounds
//! ```
//!
//! Exemptions: `#[cfg(test)]` items and `mod tests` blocks are skipped
//! wholesale; individual violations can be waived with
//! `// analysis: allow(<lint>) reason="…"` (the reason is mandatory).

#![forbid(unsafe_code)]

pub mod ast;
pub mod callgraph;
pub mod config;
pub mod costmodel;
pub mod dataflow;
pub mod diag;
#[cfg(test)]
mod json;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod sarif;
pub mod scope;

pub use config::Config;
pub use diag::Finding;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Everything the lints need to know about one parsed source file.
pub struct FileAnalysis {
    /// Repo-relative path (diagnostic form).
    pub rel: PathBuf,
    /// Full token stream, comments included.
    pub toks: Vec<lexer::Tok>,
    /// Exemption state (test regions, allow annotations, hot marks).
    pub scopes: scope::Scopes,
    /// Tolerant AST.
    pub ast: ast::File,
}

/// Recursively collect `.rs` files under `path` (which may itself be a
/// file). Hidden directories and `target/` are skipped.
fn collect_rs_files(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(path)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort(); // deterministic scan order → deterministic report order
    for entry in entries {
        let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if entry.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&entry, out)?;
        } else if name.ends_with(".rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Resolve a lint's configured path set to concrete repo-relative files.
fn lint_files(root: &Path, cfg: &config::LintConfig) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for rel in &cfg.paths {
        let abs = root.join(rel);
        if !abs.exists() {
            return Err(format!(
                "[lint.{}] path `{}` does not exist under {}",
                cfg.name,
                rel.display(),
                root.display()
            ));
        }
        collect_rs_files(&abs, &mut files)
            .map_err(|e| format!("[lint.{}] scanning `{}`: {e}", cfg.name, rel.display()))?;
    }
    files.sort();
    files.dedup();
    Ok(files)
}

/// Read, lex, scope and parse each of `files` once, in order, and build
/// the struct table over them (test-region structs excluded; the first
/// definition of a name wins).
fn load(root: &Path, files: &[PathBuf]) -> Result<(Vec<FileAnalysis>, dataflow::StructTable), String> {
    let mut analyses = Vec::with_capacity(files.len());
    for file in files {
        let src = std::fs::read_to_string(file).map_err(|e| format!("reading {}: {e}", file.display()))?;
        let toks = lexer::lex(&src);
        let scopes = scope::analyze(&toks);
        let ast = parser::parse(&toks);
        let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
        analyses.push(FileAnalysis { rel, toks, scopes, ast });
    }
    let mut structs = dataflow::StructTable::new();
    for fa in &analyses {
        ast::for_each_struct(&fa.ast, &mut |s| {
            if fa.scopes.in_test.get(s.span.start).copied().unwrap_or(false) {
                return;
            }
            structs.entry(s.name.clone()).or_insert_with(|| {
                s.fields
                    .iter()
                    .map(|(n, t)| (n.clone(), dataflow::abs_from_typeref(t)))
                    .collect()
            });
        });
    }
    Ok((analyses, structs))
}

/// Check the repository at `root` against `cfg`. Findings are sorted by
/// (file, line, col). `Err` is reserved for configuration/IO problems —
/// rule violations are `Ok` findings.
pub fn check(root: &Path, cfg: &Config) -> Result<Vec<Finding>, String> {
    for lint in &cfg.lints {
        if !lints::ALL_LINTS.contains(&lint.name.as_str()) {
            return Err(format!(
                "analysis.toml names unknown lint `{}` (known: {})",
                lint.name,
                lints::ALL_LINTS.join(", ")
            ));
        }
        // Numeric knobs are only meaningful on lints that declare them.
        let info = lints::LINT_INFO.iter().find(|i| i.name == lint.name);
        for (key, _) in &lint.nums {
            let known = info.is_some_and(|i| i.keys.iter().any(|(k, _)| k == key));
            if !known {
                return Err(format!(
                    "[lint.{}] does not accept key `{key}` (see `list-lints` for each lint's keys)",
                    lint.name
                ));
            }
        }
    }

    // Union of every lint's file set; each file is read, lexed and
    // parsed exactly once.
    let mut per_lint: Vec<(String, Vec<PathBuf>)> = Vec::new();
    let mut all_files: Vec<PathBuf> = Vec::new();
    for lint in &cfg.lints {
        let files = lint_files(root, lint)?;
        all_files.extend(files.iter().cloned());
        per_lint.push((lint.name.clone(), files));
    }
    all_files.sort();
    all_files.dedup();
    let (analyses, structs) = load(root, &all_files)?;
    let index: BTreeMap<&Path, usize> = all_files.iter().enumerate().map(|(i, f)| (f.as_path(), i)).collect();

    // Malformed allow annotations are findings wherever they appear.
    let mut findings = Vec::new();
    for fa in &analyses {
        for (line, col, msg) in &fa.scopes.bad_annotations {
            findings.push(Finding {
                lint: "malformed-allow".into(),
                file: fa.rel.clone(),
                line: *line,
                col: *col,
                message: msg.clone(),
                note: Some(
                    "the escape hatch is `// analysis: allow(<lint>) reason=\"…\"` — \
                     the reason is mandatory"
                        .into(),
                ),
            });
        }
    }

    for (name, files) in &per_lint {
        if name == lints::NI_NO_ALLOC
            || name == lints::NI_CYCLE_BUDGET
            || name == lints::NI_STACK_DEPTH
            || name == lints::NI_BOUNDS
            || name == lints::Q16_RANGE
        {
            // Whole-set passes: reachability, cost summarization and
            // call summaries cross file boundaries.
            let set: Vec<&FileAnalysis> = files.iter().map(|f| &analyses[index[f.as_path()]]).collect();
            match name.as_str() {
                lints::NI_NO_ALLOC => lints::ni_no_alloc(&set, &structs, &mut findings),
                lints::NI_CYCLE_BUDGET => lints::ni_cycle_budget(&set, &structs, cfg.lint(name), &mut findings),
                lints::NI_BOUNDS => {
                    lints::ni_bounds(&set, &structs, &mut findings);
                }
                lints::Q16_RANGE => lints::q16_range(&set, &structs, &mut findings),
                _ => lints::ni_stack_depth(&set, &structs, cfg.lint(name), &mut findings),
            }
            continue;
        }
        for file in files {
            let fa = &analyses[index[file.as_path()]];
            match name.as_str() {
                lints::NI_NO_FLOAT => lints::ni_no_float(&fa.rel, &fa.toks, &fa.scopes, &mut findings),
                lints::NI_NO_PANIC => lints::ni_no_panic(&fa.rel, &fa.toks, &fa.scopes, &fa.ast, &mut findings),
                lints::SIM_DETERMINISM => lints::sim_determinism(&fa.rel, &fa.toks, &fa.scopes, &fa.ast, &mut findings),
                lints::UNSAFE_HYGIENE => {
                    let allowed = cfg
                        .lint(lints::UNSAFE_HYGIENE)
                        .is_some_and(|l| l.allow_files.contains(&fa.rel));
                    lints::unsafe_hygiene(&fa.rel, &fa.toks, &fa.scopes, allowed, &mut findings)
                }
                lints::Q16_OVERFLOW => {
                    lints::q16_overflow(&fa.rel, &fa.toks, &fa.scopes, &fa.ast, &structs, &mut findings)
                }
                lints::SWEEP_DETERMINISM => {
                    lints::sweep_determinism(&fa.rel, &fa.toks, &fa.scopes, &fa.ast, &mut findings)
                }
                _ => unreachable!("validated above"),
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.col, &a.lint).cmp(&(&b.file, b.line, b.col, &b.lint)));
    // Loop bodies are walked twice by the dataflow engine; identical
    // findings from the second walk collapse here.
    findings.dedup();
    Ok(findings)
}

/// Convenience: load `analysis.toml` from `root` and run [`check`].
pub fn check_root(root: &Path) -> Result<Vec<Finding>, String> {
    let cfg_path = root.join("analysis.toml");
    let text = std::fs::read_to_string(&cfg_path).map_err(|e| format!("reading {}: {e}", cfg_path.display()))?;
    let cfg = Config::parse(&text)?;
    check(root, &cfg)
}

/// Produce the worst-case cost report for every hot root in the
/// `ni-cycle-budget` file set of `cfg` (the CLI `budget` subcommand).
/// Returns the per-root reports plus the effective [`costmodel::CostModel`]
/// so callers can show budget margins.
pub fn budget_report(root: &Path, cfg: &Config) -> Result<(Vec<costmodel::RootReport>, costmodel::CostModel), String> {
    let lint = cfg
        .lint(lints::NI_CYCLE_BUDGET)
        .ok_or_else(|| format!("analysis.toml has no [lint.{}] section", lints::NI_CYCLE_BUDGET))?;
    let (analyses, structs) = load(root, &lint_files(root, lint)?)?;
    let set: Vec<&FileAnalysis> = analyses.iter().collect();
    let opts = costmodel::CostModel::from_config(Some(lint));
    let report = costmodel::analyze(&set, &structs, &opts, lints::NI_CYCLE_BUDGET);
    Ok((report.roots, opts))
}

/// Produce the `ni-bounds` proof report over the lint's configured file
/// set (the CLI `bounds` subcommand and the CI job summary): every
/// checked hot-path operation with its proof status, plus the findings
/// the unproven, non-exempt sites would raise.
pub fn bounds_report(root: &Path, cfg: &Config) -> Result<(Vec<lints::BoundsSite>, Vec<Finding>), String> {
    let lint = cfg
        .lint(lints::NI_BOUNDS)
        .ok_or_else(|| format!("analysis.toml has no [lint.{}] section", lints::NI_BOUNDS))?;
    let (analyses, structs) = load(root, &lint_files(root, lint)?)?;
    let set: Vec<&FileAnalysis> = analyses.iter().collect();
    let mut findings = Vec::new();
    let sites = lints::ni_bounds(&set, &structs, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.col, &a.lint).cmp(&(&b.file, b.line, b.col, &b.lint)));
    findings.dedup();
    Ok((sites, findings))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in fixtures under `fixtures/` each violate exactly one
    /// lint family; running the checker over them exercises the whole
    /// pipeline (config → walk → lex → scope → parse → lint → sort).
    #[test]
    fn fixtures_trip_each_family() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let cfg = Config::parse(
            r#"
            [lint.ni-no-float]
            paths = ["float_violations.rs"]
            [lint.ni-no-panic]
            paths = ["panic_violations.rs"]
            [lint.sim-determinism]
            paths = ["determinism_violations.rs"]
            [lint.unsafe-hygiene]
            paths = ["unsafe_violations.rs"]
            allow_files = []
            [lint.ni-no-alloc]
            paths = ["alloc_violations.rs"]
            [lint.q16-overflow]
            paths = ["q16_violations.rs"]
            [lint.sweep-determinism]
            paths = ["sweep_violations.rs"]
            [lint.ni-cycle-budget]
            paths = ["cycle_violations.rs"]
            [lint.ni-stack-depth]
            paths = ["stack_violations.rs"]
            max_call_depth = 4
            [lint.ni-bounds]
            paths = ["bounds_violations.rs"]
            [lint.q16-range]
            paths = ["q16_range_violations.rs"]
            "#,
        )
        .unwrap();
        let findings = check(&root, &cfg).unwrap();
        for lint in lints::ALL_LINTS {
            assert!(
                findings.iter().any(|f| f.lint == lint),
                "expected at least one {lint} finding, got {findings:?}"
            );
        }
        // The fixtures also demonstrate every exemption: annotated and
        // test-region lines must NOT fire.
        assert!(
            !findings.iter().any(|f| f.lint == "malformed-allow"),
            "fixture allows are well-formed: {findings:?}"
        );
        for f in &findings {
            assert_ne!(f.line, 0);
            assert_ne!(f.col, 0);
        }
    }

    #[test]
    fn clean_fixture_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let cfg =
            Config::parse("[lint.ni-no-float]\npaths = [\"clean.rs\"]\n[lint.ni-no-panic]\npaths = [\"clean.rs\"]")
                .unwrap();
        assert_eq!(check(&root, &cfg).unwrap(), vec![]);
    }

    #[test]
    fn unknown_lint_is_a_config_error() {
        let cfg = Config::parse("[lint.no-such-lint]\npaths = [\"src\"]").unwrap();
        let err = check(Path::new(env!("CARGO_MANIFEST_DIR")), &cfg).unwrap_err();
        assert!(err.contains("no-such-lint"));
    }

    #[test]
    fn missing_path_is_a_config_error() {
        let cfg = Config::parse("[lint.ni-no-float]\npaths = [\"no/such/dir\"]").unwrap();
        let err = check(Path::new(env!("CARGO_MANIFEST_DIR")), &cfg).unwrap_err();
        assert!(err.contains("does not exist"));
    }
}
