//! Golden test: the repro contract.
//!
//! Every table, figure and ablation binary must print exactly the bytes
//! checked in under `tests/golden/`, and the `--trace` documents of the
//! traced experiments must keep their length and FNV-1a digest (the
//! documents themselves are 60 KB–3 MB, too large to check in). Any
//! refactor of the scheduler, the service core or the simulators that
//! moves a single modelled number shows up here as a diff. The same holds
//! for the modelled `BENCH_cluster.json` at the repository root.
//!
//! After a deliberate change to the model, regenerate a `.stdout` file by
//! redirecting the binary's output into it
//! (`cargo run --release -p nistream-bench --bin <name>`); a `.trace`
//! file holds the `<len> <fnv1a>` line the failing assertion prints, and
//! `cargo run --release -p nistream-bench --bin bench_cluster` rewrites
//! `BENCH_cluster.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("spawn repro binary");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn check_stdout(name: &str, bin: &str) {
    let path = golden_dir().join(format!("{name}.stdout"));
    let got = run(bin, &[]);
    let want = std::fs::read_to_string(&path).expect("golden file present");
    assert!(got == want, "{name} stdout drifted from {}:\n{got}", path.display());
}

/// The `--trace` run must print the same stdout as the untraced run and
/// write a document whose `<len> <fnv1a>` matches `<name>.trace`.
fn check_trace(name: &str, bin: &str) {
    let doc = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.trace.json"));
    let stdout = run(bin, &["--trace", doc.to_str().expect("UTF-8 tmp path")]);
    let bytes = std::fs::read(&doc).expect("trace document written");
    let got = format!("{} {:016x}\n", bytes.len(), fnv1a(&bytes));
    let want = std::fs::read_to_string(golden_dir().join(format!("{name}.trace"))).expect("golden file present");
    assert_eq!(got, want, "{name} --trace document drifted (len fnv1a)");
    let plain = std::fs::read_to_string(golden_dir().join(format!("{name}.stdout"))).expect("golden file present");
    assert!(stdout == plain, "{name} --trace changed stdout");
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check_stdout(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
        }
    )*};
}

macro_rules! golden_trace {
    ($($test:ident => $name:ident),* $(,)?) => {$(
        #[test]
        fn $test() {
            check_trace(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
        }
    )*};
}

golden!(
    repro_table1,
    repro_table2,
    repro_table3,
    repro_table4,
    repro_table5,
    repro_figure6,
    repro_figure7,
    repro_figure8,
    repro_figure9,
    repro_figure10,
    ablation_report,
);

golden_trace!(
    repro_table1_trace => repro_table1,
    repro_table2_trace => repro_table2,
    repro_table3_trace => repro_table3,
    repro_figure7_trace => repro_figure7,
    repro_figure9_trace => repro_figure9,
    repro_figure10_trace => repro_figure10,
);

/// `BENCH_cluster.json` holds modelled (simulated-time) results, so the
/// checked-in document is part of the contract too: the freshly rendered
/// document must match it byte for byte.
#[test]
fn bench_cluster_document_matches_checked_in_file() {
    use nistream_bench::{benchout, cluster};
    let path = benchout::repo_root().join(cluster::FILE);
    let want = std::fs::read_to_string(&path).expect("BENCH_cluster.json present");
    let got = cluster::render().doc;
    assert!(
        got == want,
        "{} drifted from the checked-in document:\n{got}",
        path.display()
    );
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}
