//! Shared drivers for the `repro_*` binaries.
//!
//! Each binary regenerates one table or figure of the paper; the common
//! experiment plumbing (the three load levels, run lengths, formatting)
//! lives here so every binary stays a page long and their outputs stay
//! mutually consistent. See `EXPERIMENTS.md` at the repository root for
//! paper-vs-measured values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serversim::hostload::{self, HostLoadConfig, HostLoadResult, StreamSeries};
use serversim::micro::MicroResult;
use serversim::niload::{self, NiLoadConfig, NiLoadResult};
use simkit::SimDuration;
use std::path::{Path, PathBuf};
use workload::mpegclient::ClientPlan;
use workload::profile::LoadProfile;

pub mod benchout;
pub mod cluster;
pub mod soak;
pub mod sweep;

pub use nistream_trace::{TraceCapture, TraceRing};
pub use serversim::report::format_table;
pub use sweep::{par_sweep, par_sweep_with, sweep_threads, Cell};

/// Standard figure run length (the paper's traces span ~100 s).
pub const RUN_SECS: u64 = 100;

/// The three load levels of Figures 6–8. The paper labels runs by their
/// *whole-run average* utilization (45 %, 60 %); the sustained plateaus sit
/// higher (the 60 % run exceeds 80 % during the loaded window), so the
/// generator is calibrated against plateau targets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoadLevel {
    /// No web load.
    None,
    /// The "45 % average utilization" run.
    Avg45,
    /// The "60 % average utilization" run.
    Avg60,
}

impl LoadLevel {
    /// Display label used in figure outputs.
    pub fn label(self) -> &'static str {
        match self {
            LoadLevel::None => "no web load",
            LoadLevel::Avg45 => "45% avg util",
            LoadLevel::Avg60 => "60% avg util",
        }
    }

    /// Sustained-phase total-utilization target.
    pub fn plateau_target(self) -> f64 {
        match self {
            LoadLevel::None => 0.0,
            LoadLevel::Avg45 => 0.72,
            LoadLevel::Avg60 => 0.94,
        }
    }
}

/// Host-load configuration for one level (Figures 6–8 geometry: load
/// applied from 15 s to 80 s of a 100 s run).
pub fn host_config(level: LoadLevel, run_secs: u64) -> HostLoadConfig {
    // §4.2.3: "The system is then loaded using the remote web clients …
    // and stream requests are made to the scheduler simultaneously" —
    // clients connect when the load window opens (15 s into the trace).
    let mut plan = ClientPlan::two_streams();
    for c in &mut plan.clients {
        c.connect_at += SimDuration::from_secs(15);
    }
    let mut cfg = HostLoadConfig {
        run: SimDuration::from_secs(run_secs),
        frames_per_stream: ((run_secs - 15) * 30) as usize,
        plan,
        ..HostLoadConfig::default()
    };
    cfg.web = match level {
        LoadLevel::None => LoadProfile::none(),
        _ => {
            let rate = hostload::web_rate_for(level.plateau_target(), &cfg);
            let end = (run_secs * 4) / 5; // load stops at 80 % of the run
            LoadProfile::experiment(15, 5, end, rate)
        }
    };
    cfg
}

/// Run the host-based experiment at one load level.
pub fn host_run(level: LoadLevel, run_secs: u64) -> HostLoadResult {
    hostload::run(host_config(level, run_secs))
}

/// NI-experiment configuration (Figures 9–10): streams on the NI, the
/// 60 %-level web load on the host where it cannot reach them.
pub fn ni_config(run_secs: u64) -> NiLoadConfig {
    let mut cfg = NiLoadConfig {
        run: SimDuration::from_secs(run_secs),
        frames_per_stream: (run_secs * 30) as usize,
        plan: ClientPlan::two_streams(),
        ..NiLoadConfig::default()
    };
    let host_cfg = host_config(LoadLevel::Avg60, run_secs);
    cfg.host_web = host_cfg.web.clone();
    cfg
}

/// Run the NI-based experiment (Figures 9–10).
pub fn ni_run(run_secs: u64) -> NiLoadResult {
    niload::run(ni_config(run_secs))
}

/// Whether the binary was invoked with `--csv` (dump full traces for
/// plotting instead of the human-readable summary).
pub fn csv_flag() -> bool {
    std::env::args().any(|a| a == "--csv")
}

/// Event capacity used for `--trace` runs: 64 Ki events (~4 MB worth of
/// headroom relative to the i960RD board budget) holds every event a
/// 100 s figure run emits without overflow.
pub const TRACE_CAP: usize = 1 << 16;

/// The destination given by `--trace <path>`, if the flag was passed.
/// Tracing reruns nothing and perturbs nothing: the scheduler runs with a
/// ring attached, stdout stays byte-identical, and the drained events are
/// written to `<path>` on exit.
pub fn trace_path() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace" {
            return args.next().map(PathBuf::from);
        }
    }
    None
}

/// Serialize labeled captures to `path`: CSV when the extension is
/// `.csv`, the `nistream-trace/v1` JSON document otherwise.
pub fn write_trace(path: &Path, runs: &[(&str, &TraceCapture)]) {
    let body = if path.extension().is_some_and(|e| e == "csv") {
        nistream_core::report::trace_to_csv(runs)
    } else {
        nistream_core::report::trace_to_json(runs)
    };
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("failed to write trace to {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// [`host_run`] with an event trace attached (same run, same outputs).
pub fn host_run_traced(level: LoadLevel, run_secs: u64) -> HostLoadResult {
    let mut cfg = host_config(level, run_secs);
    cfg.trace_capacity = TRACE_CAP;
    hostload::run(cfg)
}

/// [`ni_run`] with an event trace attached (same run, same outputs).
pub fn ni_run_traced(run_secs: u64) -> NiLoadResult {
    let mut cfg = ni_config(run_secs);
    cfg.trace_capacity = TRACE_CAP;
    niload::run(cfg)
}

/// The three load levels of Figures 6–8, in figure order.
pub const HOST_LEVELS: [LoadLevel; 3] = [LoadLevel::None, LoadLevel::Avg45, LoadLevel::Avg60];

/// Run the host-based experiment at every load level, fanned across the
/// [`par_sweep`] runner; results come back in [`HOST_LEVELS`] order, so
/// figure binaries compute here and then print sequentially — output is
/// byte-identical to the per-level loop this replaces.
pub fn host_sweep(run_secs: u64, traced: bool) -> Vec<(LoadLevel, HostLoadResult)> {
    let cells: Vec<Cell<'static, HostLoadResult>> = HOST_LEVELS
        .iter()
        .map(|&level| -> Cell<'static, HostLoadResult> {
            Box::new(move || {
                if traced {
                    host_run_traced(level, run_secs)
                } else {
                    host_run(level, run_secs)
                }
            })
        })
        .collect();
    HOST_LEVELS.into_iter().zip(par_sweep(cells)).collect()
}

/// Run the NI-based experiment through the sweep runner (a single-cell
/// sweep: Figures 9–10 have one placement, one load level).
pub fn ni_sweep(run_secs: u64, traced: bool) -> NiLoadResult {
    let cells: Vec<Cell<'static, NiLoadResult>> = vec![Box::new(move || {
        if traced {
            ni_run_traced(run_secs)
        } else {
            ni_run(run_secs)
        }
    })];
    par_sweep(cells).pop().expect("single-cell sweep returns one result")
}

/// Emit one CSV block: a `# tag` comment line followed by the trace.
pub fn print_csv_block(tag: &str, trace: &simkit::Trace, column: &str) {
    println!("# {tag}");
    print!("{}", trace.to_csv(column));
}

/// Section marker for one load level within a figure's output.
pub fn level_header(level: LoadLevel) {
    println!("--- {} ---", level.label());
}

/// The four microbenchmark rows of Tables 1–3, one formatted column per
/// result (Tables 1–2 print software-FP and fixed-point side by side;
/// Table 3 prints the hardware-queue fixed-point column alone).
pub fn micro_rows(columns: &[&MicroResult]) -> Vec<Vec<String>> {
    let row = |label: &str, cell: fn(&MicroResult) -> f64| {
        let mut r = vec![label.to_string()];
        r.extend(columns.iter().map(|m| format!("{:.2}", cell(m))));
        r
    };
    vec![
        row("Total Sched time", |m| m.total_sched_us),
        row("Avg frame Sched time", |m| m.avg_sched_us),
        row("Total time w/o Scheduler", |m| m.total_nosched_us),
        row("Avg frame time w/o Scheduler", |m| m.avg_nosched_us),
    ]
}

/// Per-stream summary line shared by the bandwidth figures: a named
/// bandwidth reading plus the sent/dropped/violations tallies.
pub fn stream_summary(s: &StreamSeries, metric: &str, bps: f64) -> String {
    format!(
        "  {}: {metric} {bps:>8.0} bps; sent {} dropped {} violations {}",
        s.name, s.sent, s.dropped, s.violations
    )
}

/// The first `n` points of a queuing-delay series (the paper's figures
/// plot a bounded frame range).
pub fn qdelay_head(q: &[(u64, f64)], n: usize) -> &[(u64, f64)] {
    &q[..q.len().min(n)]
}

/// Render a bandwidth/utilization trace as a compact `time: value` series
/// (downsampled), for figure binaries.
pub fn render_series(name: &str, trace: &simkit::Trace, unit: &str, points: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "  {name} [{unit}]:");
    for &(t, v) in trace.thin(points).points() {
        let _ = writeln!(out, "    t={:>5.1}s  {:>12.1}", t.as_secs_f64(), v);
    }
    out
}

/// Render queuing-delay-vs-frame series at a few sample frames.
pub fn render_qdelay(name: &str, q: &[(u64, f64)], samples: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "  {name} (frame# -> queuing delay ms):");
    if q.is_empty() {
        let _ = writeln!(out, "    (no frames sent)");
        return out;
    }
    let stride = (q.len() / samples.max(1)).max(1);
    for (n, d) in q.iter().step_by(stride) {
        let _ = writeln!(out, "    frame {n:>5}  {d:>10.0} ms");
    }
    let (n, d) = q.last().expect("non-empty");
    let _ = writeln!(out, "    frame {n:>5}  {d:>10.0} ms  (last)");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(LoadLevel::Avg45.plateau_target() < LoadLevel::Avg60.plateau_target());
        assert_eq!(LoadLevel::None.plateau_target(), 0.0);
    }

    #[test]
    fn host_config_geometry() {
        let cfg = host_config(LoadLevel::Avg45, 100);
        assert_eq!(cfg.frames_per_stream, 2_550);
        assert_eq!(cfg.plan.clients[0].connect_at.as_secs_f64(), 15.0);
        let web = cfg.web;
        assert!(web.starts_at().is_some());
        assert_eq!(web.ends_at().unwrap().as_secs_f64(), 80.0);
        let none = host_config(LoadLevel::None, 100).web;
        assert!(none.starts_at().is_none());
    }

    #[test]
    fn render_helpers_do_not_panic_on_empty() {
        let s = render_qdelay("s1", &[], 5);
        assert!(s.contains("no frames"));
        let t = simkit::Trace::new();
        let s = render_series("u", &t, "%", 5);
        assert!(s.contains("[%]"));
    }
}
