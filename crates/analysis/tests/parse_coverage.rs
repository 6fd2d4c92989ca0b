//! Parse coverage: the AST passes see every expression the NI and
//! simulation code contains.
//!
//! `ni-no-panic` and `sim-determinism` (`Instant::now`) walk the AST
//! only, so a function body the parser leaves as raw tokens — an
//! `Expr::Opaque` node, or a macro whose body has code but no parsed
//! arguments — would hide a `.unwrap()` or a wall-clock read from both.
//! This test parses every file of both lints' `analysis.toml` sets and
//! requires that no non-test function body holds such a gap.

use nistream_analysis::ast::{for_each_expr_in_block, for_each_fn, Expr};
use nistream_analysis::lexer::{self, TokKind};
use nistream_analysis::{lints, parser, scope, Config};
use std::path::{Path, PathBuf};

fn rs_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
        .expect("configured path is readable")
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            rs_files(&entry, out);
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
}

/// `file:line:col  what` for every unparsed span in non-test function
/// bodies of `file`.
fn gaps(root: &Path, file: &Path) -> Vec<String> {
    let src = std::fs::read_to_string(file).expect("source is readable");
    let toks = lexer::lex(&src);
    let scopes = scope::analyze(&toks);
    let ast = parser::parse(&toks);
    let rel = file.strip_prefix(root).unwrap_or(file).display().to_string();
    let at = |tok: usize, what: &str| format!("{rel}:{}:{}  {what}", toks[tok].line, toks[tok].col);
    let mut out = Vec::new();
    for_each_fn(&ast, &mut |func, _| {
        let Some(body) = &func.body else { return };
        if scopes.in_test.get(func.span.start).copied().unwrap_or(false) {
            return;
        }
        for_each_expr_in_block(body, &mut |e| match e {
            Expr::Opaque(sp) => out.push(at(sp.start, "unparsed expression")),
            Expr::MacroCall { name, inner, args, tok } if args.is_empty() => {
                let has_code = (inner.start + 1..inner.end)
                    .any(|i| !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment));
                if has_code {
                    out.push(at(*tok, &format!("unparsed `{name}!` body")));
                }
            }
            _ => {}
        });
    });
    out
}

#[test]
fn ni_and_simulation_function_bodies_parse_completely() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("analysis.toml")).expect("analysis.toml");
    let cfg = Config::parse(&text).expect("analysis.toml parses");
    let mut found = Vec::new();
    for lint in [lints::NI_NO_PANIC, lints::SIM_DETERMINISM] {
        let section = cfg.lint(lint).expect("lint is configured");
        let mut files = Vec::new();
        for p in &section.paths {
            rs_files(&root.join(p), &mut files);
        }
        assert!(!files.is_empty(), "{lint} covers some files");
        found.extend(
            files
                .iter()
                .flat_map(|f| gaps(&root, f))
                .map(|g| format!("{lint}: {g}")),
        );
    }
    assert!(
        found.is_empty(),
        "{} unparsed span(s) in non-test function bodies:\n{}",
        found.len(),
        found.join("\n")
    );
}
