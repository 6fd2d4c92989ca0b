//! CLI: `cargo run -p nistream-analysis -- check [--format=text|sarif]
//! [--root=DIR]`, plus `list-lints`, `budget` and `bounds`.
//!
//! Exit status: 0 when the tree is clean, 1 when any finding is reported
//! (for `budget`: when any hot root is unbounded or over budget; for
//! `bounds`: when any non-exempt proof obligation is unproven), 2 on
//! usage/configuration errors.

#![forbid(unsafe_code)]

use nistream_analysis::dataflow::Bound;
use nistream_analysis::{costmodel, lints, sarif, Config};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: nistream-analysis check [--format=text|sarif] [--root=DIR]\n\
         \x20      nistream-analysis list-lints [--root=DIR]\n\
         \x20      nistream-analysis budget [--root=DIR]\n\
         \x20      nistream-analysis bounds [--root=DIR]\n\
         \n\
         `check` runs the lint families configured in <root>/analysis.toml\n\
         over the repository and fails on any finding. `list-lints` prints\n\
         every lint family, its config keys and whether analysis.toml\n\
         enables it. `budget` prints the static worst-case cycle/stack\n\
         report for every hot root in the ni-cycle-budget file set.\n\
         `bounds` prints the interval-domain proof report for every\n\
         checked hot-path operation in the ni-bounds file set. The default\n\
         root is the workspace the binary was built from, so\n\
         `cargo run -p nistream-analysis -- check` works anywhere inside\n\
         the repo."
    );
    ExitCode::from(2)
}

/// Load and parse `<root>/analysis.toml`, mapping IO/parse failures to the
/// CLI's configuration-error exit path.
fn load_config(root: &std::path::Path) -> Result<Config, ExitCode> {
    let path = root.join("analysis.toml");
    let text = std::fs::read_to_string(&path).map_err(|e| {
        eprintln!("nistream-analysis: reading {}: {e}", path.display());
        ExitCode::from(2)
    })?;
    Config::parse(&text).map_err(|e| {
        eprintln!("nistream-analysis: {}: {e}", path.display());
        ExitCode::from(2)
    })
}

/// `list-lints`: one block per known family, cross-referenced against the
/// configuration so CI logs show exactly what runs where.
fn list_lints(root: &std::path::Path) -> ExitCode {
    let cfg = match load_config(root) {
        Ok(c) => c,
        Err(code) => return code,
    };
    for info in &lints::LINT_INFO {
        let enabled = cfg.lint(info.name);
        let status = match enabled {
            Some(l) => format!("enabled ({} path(s))", l.paths.len()),
            None => "disabled (no analysis.toml section)".to_string(),
        };
        println!("{}  [{status}]", info.name);
        println!("    {}", info.summary);
        if !info.keys.is_empty() {
            println!("    keys:");
            for (key, doc) in info.keys {
                let set = enabled
                    .and_then(|l| l.num(key))
                    .map(|v| format!(" = {v}"))
                    .unwrap_or_default();
                println!("      {key}{set} — {doc}");
            }
        }
        if let Some(l) = enabled {
            for p in &l.paths {
                println!("    path: {}", p.display());
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}

/// `budget`: per-hot-root worst-case cycles (with the 66 MHz wall-clock
/// equivalent), call depth and stack bytes, checked against the model.
fn budget(root: &std::path::Path) -> ExitCode {
    let cfg = match load_config(root) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let (roots, model) = match nistream_analysis::budget_report(root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nistream-analysis: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "NI cycle budget: {} cycles/frame at {} Hz ({} us)",
        model.budget_cycles,
        costmodel::I960_HZ,
        model.budget_cycles * 1_000_000 / costmodel::I960_HZ
    );
    let budget = i128::from(model.budget_cycles);
    let mut bad = false;
    for r in &roots {
        let (Bound::Int(lo), hi) = (r.cycles.lo, r.cycles.hi) else {
            unreachable!("cycle costs have a finite lower bound")
        };
        let verdict = match hi {
            Bound::Int(hi) if hi <= budget => format!("ok, {}% of budget", hi * 100 / budget),
            Bound::Int(hi) => {
                bad = true;
                format!("OVER BUDGET by {} cycles", hi - budget)
            }
            _ => {
                bad = true;
                "UNBOUNDED".to_string()
            }
        };
        println!("\n{} ({}:{})", r.root, r.file.display(), r.line);
        match hi {
            Bound::Int(hi) => println!(
                "  worst-case cycles: [{lo}, {hi}]  ({} us at {} MHz)",
                hi * 1_000_000 / i128::from(costmodel::I960_HZ),
                costmodel::I960_HZ / 1_000_000
            ),
            _ => println!("  worst-case cycles: [{lo}, unbounded]"),
        }
        println!("  call depth: {}   stack bytes: {}", r.call_depth, r.stack_bytes);
        println!("  verdict: {verdict}");
    }
    if roots.is_empty() {
        println!("\nno hot roots in the ni-cycle-budget file set");
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `bounds`: the interval-domain proof report — one line per checked
/// hot-path operation (index, unsigned sub, division, shift), proven or
/// reported with the offending interval.
fn bounds(root: &std::path::Path) -> ExitCode {
    let cfg = match load_config(root) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let (mut sites, findings) = match nistream_analysis::bounds_report(root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nistream-analysis: {e}");
            return ExitCode::from(2);
        }
    };
    sites.sort_by(|a, b| (&a.root, &a.file, a.line, a.col).cmp(&(&b.root, &b.file, b.line, b.col)));
    let proven = sites.iter().filter(|s| s.proven).count();
    let exempt = sites.iter().filter(|s| !s.proven && s.exempt).count();
    let unproven = sites.len() - proven - exempt;
    println!(
        "ni-bounds: {} obligation(s) from hot roots — {proven} proven, {exempt} waived by allow, {unproven} unproven",
        sites.len()
    );
    let mut last_root = String::new();
    for s in &sites {
        if s.root != last_root {
            println!("\nfrom `// analysis: hot` root {}:", s.root);
            last_root = s.root.clone();
        }
        let status = if s.proven {
            "proven".to_string()
        } else if s.exempt {
            "waived".to_string()
        } else {
            format!("UNPROVEN — {}", s.detail)
        };
        println!("  {}:{}:{}  {}  [{status}]", s.file.display(), s.line, s.col, s.what);
    }
    if sites.is_empty() {
        println!("\nno checked operations reachable from hot roots in the ni-bounds file set");
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[derive(PartialEq)]
enum Format {
    Text,
    Sarif,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).collect::<Vec<_>>();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    if !matches!(cmd.as_str(), "check" | "list-lints" | "budget" | "bounds") {
        return usage();
    }

    let mut format = Format::Text;
    // Default root: the workspace directory, two levels above this crate's
    // manifest (crates/analysis) — robust to being run from any cwd.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));

    // Accept both `--flag=value` and `--flag value`.
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let (flag, value) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None if arg.starts_with("--") => (arg.clone(), None),
            None => return usage(),
        };
        let mut value = match value {
            Some(v) => Some(v),
            None => match flag.as_str() {
                "--format" | "--root" => it.next(),
                _ => None,
            },
        };
        match (flag.as_str(), value.take()) {
            ("--format", Some(v)) => {
                format = match v.as_str() {
                    "text" => Format::Text,
                    "sarif" => Format::Sarif,
                    _ => return usage(),
                }
            }
            ("--root", Some(v)) => root = PathBuf::from(v),
            _ => return usage(),
        }
    }

    match cmd.as_str() {
        "list-lints" => return list_lints(&root),
        "budget" => return budget(&root),
        "bounds" => return bounds(&root),
        _ => {}
    }

    let findings = match nistream_analysis::check_root(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("nistream-analysis: {e}");
            return ExitCode::from(2);
        }
    };

    match format {
        Format::Sarif => print!("{}", sarif::to_sarif(&findings)),
        Format::Text => {
            for f in &findings {
                println!("{f}\n");
            }
            if findings.is_empty() {
                println!("nistream-analysis: clean (0 findings)");
            } else {
                println!("nistream-analysis: {} finding(s)", findings.len());
            }
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
