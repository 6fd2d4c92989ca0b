//! Long-run soak suite with SLO regression gating.
//!
//! Modes:
//! * `soak --quick` — run the quick suite and (re)write the checked-in
//!   `BENCH_slo.json` baseline.
//! * `soak --check` — recompute the quick suite and gate it against the
//!   checked-in baseline: exit 1 on any absolute-objective breach or any
//!   SLO regression past tolerance. This is the CI gate.
//! * `soak` — the soak proper: hours of virtual time, written to the
//!   checked-in `BENCH_slo_full.json`; CI fails if the rewritten bytes
//!   differ from the committed ones.

use nistream_bench::benchout::{check_flag, quick_flag, repo_root, write_doc};
use nistream_bench::soak::{self, SoakMode, SoakRow};

fn print_rows(rows: &[SoakRow]) {
    println!(
        "{:<18} {:>6} {:>8} {:>9} {:>10} {:>9} {:>9} {:>12} {:>11}",
        "scenario", "secs", "streams", "switches", "dispatches", "drop_ppm", "miss_ppm", "p99_late_ns", "max_backlog"
    );
    for r in rows {
        println!(
            "{:<18} {:>6} {:>8} {:>9} {:>10} {:>9} {:>9} {:>12} {:>11}",
            r.scenario,
            r.virtual_secs,
            r.streams,
            r.abr_switches,
            r.slo.dispatches,
            r.slo.drop_ppm,
            r.slo.miss_ppm,
            r.slo.p99_late_ns,
            r.slo.max_backlog
        );
    }
}

fn main() {
    if check_flag() {
        let base_path = repo_root().join(soak::FILE);
        let base = match std::fs::read_to_string(&base_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "{}: {e} (run `soak --quick` to emit the baseline first)",
                    base_path.display()
                );
                std::process::exit(1);
            }
        };
        let rows = soak::rows(SoakMode::Quick);
        print_rows(&rows);
        let new_doc = soak::render_doc(SoakMode::Quick, &rows);
        match soak::gate_against(&new_doc, &base) {
            Ok(v) if v.is_empty() => {
                println!("{}: SLO gate ok ({} scenarios)", soak::FILE, rows.len());
            }
            Ok(v) => {
                for msg in &v {
                    eprintln!("SLO regression: {msg}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("SLO gate: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let mode = if quick_flag() { SoakMode::Quick } else { SoakMode::Full };
    let rows = soak::rows(mode);
    print_rows(&rows);
    let violations = soak::objective_violations(&rows);
    for msg in &violations {
        eprintln!("SLO objective breached: {msg}");
    }
    let file = match mode {
        SoakMode::Quick => soak::FILE,
        SoakMode::Full => soak::FULL_FILE,
    };
    let path = write_doc(file, &soak::render_doc(mode, &rows));
    println!("wrote {}", path.display());
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
