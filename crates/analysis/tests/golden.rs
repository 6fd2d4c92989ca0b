//! Golden test: the fixture corpus produces *exactly* these findings.
//!
//! `fixtures_trip_each_family` (in the crate) asserts every family fires
//! at least once; this test pins the complete finding set — lint, file,
//! position and message — so that any behavioural drift in the lexer,
//! parser, dataflow engine or lint passes shows up as a diff here.

use nistream_analysis::{lints, Config};
use std::path::Path;

fn fixture_config() -> Config {
    Config::parse(
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
    .unwrap()
}

/// `(lint, file, line, col, message)` for every expected finding, in
/// report order (file, line, col, lint).
const EXPECTED: &[(&str, &str, u32, u32, &str)] = &[
    (
        "ni-no-alloc",
        "alloc_violations.rs",
        10,
        13,
        "`.push(…)` may grow a `Vec` in NI hot code",
    ),
    (
        "ni-no-alloc",
        "alloc_violations.rs",
        11,
        18,
        "`Box::new` allocates in NI hot code",
    ),
    (
        "ni-no-alloc",
        "alloc_violations.rs",
        12,
        17,
        "`format!` allocates in NI hot code",
    ),
    (
        "ni-no-alloc",
        "alloc_violations.rs",
        18,
        14,
        "`.push_back(…)` may grow a `VecDeque` in NI hot code",
    ),
    (
        "ni-no-alloc",
        "alloc_violations.rs",
        58,
        18,
        "`.push_back(…)` may grow a `VecDeque` in NI hot code",
    ),
    (
        "ni-no-alloc",
        "alloc_violations.rs",
        68,
        18,
        "`.push_back(…)` may grow a `VecDeque` in NI hot code",
    ),
    (
        "ni-bounds",
        "bounds_violations.rs",
        10,
        17,
        "index not proven in range: index [0, 18446744073709551615] over length [0, +inf]",
    ),
    (
        "ni-bounds",
        "bounds_violations.rs",
        12,
        18,
        "unsigned subtraction not proven wrap-free: [0, 18446744073709551615] - [1, 1] may underflow",
    ),
    (
        "ni-bounds",
        "bounds_violations.rs",
        14,
        17,
        "divisor not proven nonzero: divisor [0, 18446744073709551615] may be zero",
    ),
    (
        "ni-bounds",
        "bounds_violations.rs",
        16,
        17,
        "shift amount not proven below the width: shift amount [0, 4294967295] exceeds width 64",
    ),
    (
        "ni-bounds",
        "bounds_violations.rs",
        19,
        9,
        "unsigned subtraction not proven wrap-free: [0, 0] - [0, 18446744073709551615] may underflow",
    ),
    (
        "ni-bounds",
        "bounds_violations.rs",
        28,
        6,
        "index not proven in range: index [0, 0] over length [0, +inf]",
    ),
    (
        "ni-bounds",
        "bounds_violations.rs",
        50,
        25,
        "unsigned subtraction not proven wrap-free: [0, len(self.keys)] - [0, 18446744073709551615] may underflow",
    ),
    (
        "ni-cycle-budget",
        "cycle_violations.rs",
        28,
        8,
        "hot root `hot_unbounded` has no static cycle bound (see the unbounded-loop findings above)",
    ),
    (
        "ni-cycle-budget",
        "cycle_violations.rs",
        29,
        5,
        "`while` loop on an NI hot path has no static trip-count bound",
    ),
    (
        "ni-cycle-budget",
        "cycle_violations.rs",
        36,
        8,
        "hot root `hot_over_budget` may cost 15803929 cycles per decision — over the budget of 1000000 (15151 µs at 66 MHz)",
    ),
    (
        "ni-cycle-budget",
        "cycle_violations.rs",
        46,
        5,
        "`// analysis: bound 8` does not cover a loop or iterator drain",
    ),
    (
        "sim-determinism",
        "determinism_violations.rs",
        4,
        23,
        "`HashMap` in deterministic-simulation code",
    ),
    (
        "sim-determinism",
        "determinism_violations.rs",
        5,
        23,
        "`HashSet` in deterministic-simulation code",
    ),
    (
        "sim-determinism",
        "determinism_violations.rs",
        6,
        26,
        "`SystemTime` in deterministic-simulation code",
    ),
    (
        "sim-determinism",
        "determinism_violations.rs",
        9,
        17,
        "`SystemTime` in deterministic-simulation code",
    ),
    (
        "sim-determinism",
        "determinism_violations.rs",
        10,
        13,
        "`Instant::now` (wall clock) in deterministic-simulation code",
    ),
    (
        "sim-determinism",
        "determinism_violations.rs",
        15,
        12,
        "`HashMap` in deterministic-simulation code",
    ),
    (
        "sim-determinism",
        "determinism_violations.rs",
        15,
        32,
        "`HashMap` in deterministic-simulation code",
    ),
    (
        "sim-determinism",
        "determinism_violations.rs",
        16,
        12,
        "`HashSet` in deterministic-simulation code",
    ),
    (
        "sim-determinism",
        "determinism_violations.rs",
        16,
        27,
        "`HashSet` in deterministic-simulation code",
    ),
    (
        "ni-no-float",
        "float_violations.rs",
        4,
        20,
        "`f64` mentioned in NI-resident code",
    ),
    (
        "ni-no-float",
        "float_violations.rs",
        4,
        28,
        "`f64` mentioned in NI-resident code",
    ),
    (
        "ni-no-float",
        "float_violations.rs",
        9,
        16,
        "floating-point literal `1.5` in NI-resident code",
    ),
    (
        "ni-no-float",
        "float_violations.rs",
        14,
        11,
        "`f32` mentioned in NI-resident code",
    ),
    (
        "ni-no-panic",
        "panic_violations.rs",
        5,
        7,
        "`.unwrap(…)` in non-test NI code",
    ),
    (
        "ni-no-panic",
        "panic_violations.rs",
        9,
        7,
        "`.expect(…)` in non-test NI code",
    ),
    (
        "ni-no-panic",
        "panic_violations.rs",
        14,
        14,
        "`todo!` in non-test NI code",
    ),
    (
        "ni-no-panic",
        "panic_violations.rs",
        15,
        14,
        "`unreachable!` in non-test NI code",
    ),
    (
        "ni-no-panic",
        "panic_violations.rs",
        16,
        14,
        "`panic!` in non-test NI code",
    ),
    (
        "q16-range",
        "q16_range_violations.rs",
        8,
        7,
        "multiply not proven to fit its width: product [-85070591730234615856620279821087277056, 85070591730234615865843651857942052864] over the 64-bit range [-9223372036854775808, 9223372036854775807]",
    ),
    (
        "q16-range",
        "q16_range_violations.rs",
        13,
        7,
        "left shift not proven to fit its width: shift count [0, 4294967295] unbounded",
    ),
    (
        "q16-range",
        "q16_range_violations.rs",
        18,
        7,
        "left shift not proven to fit its width: shifted value [-9671406556917033397649408, 9671406556917033396600832] over the 64-bit range [-9223372036854775808, 9223372036854775807]",
    ),
    (
        "q16-range",
        "q16_range_violations.rs",
        23,
        7,
        "narrowing cast not proven lossless: value [0, 18446744073709551615] over the 32-bit range [0, 4294967295]",
    ),
    (
        "q16-overflow",
        "q16_violations.rs",
        6,
        21,
        "Q16×Q16 raw multiply without i128 widening",
    ),
    (
        "q16-overflow",
        "q16_violations.rs",
        16,
        7,
        "shift by 32 exceeds the 32-bit width of the shifted value",
    ),
    (
        "q16-overflow",
        "q16_violations.rs",
        25,
        13,
        "`Frac::num()` / `Frac::den()` floor-division truncates the exact rational",
    ),
    (
        "q16-overflow",
        "q16_violations.rs",
        29,
        13,
        "lossy cast of a `Frac` component to `u16`",
    ),
    (
        "ni-stack-depth",
        "stack_violations.rs",
        11,
        13,
        "recursive call into `spin` on an NI hot path",
    ),
    (
        "ni-stack-depth",
        "stack_violations.rs",
        35,
        8,
        "hot root `hot_deep_chain` may reach call depth 5 — over max_call_depth = 4",
    ),
    (
        "ni-stack-depth",
        "stack_violations.rs",
        42,
        5,
        "stack local of ~4096 bytes — over max_local_bytes = 1024",
    ),
    (
        "ni-stack-depth",
        "stack_violations.rs",
        48,
        8,
        "hot root `hot_huge_frame` may use 32040 stack bytes — over max_stack_bytes = 16384",
    ),
    (
        "ni-stack-depth",
        "stack_violations.rs",
        49,
        5,
        "stack local of ~32000 bytes — over max_local_bytes = 1024",
    ),
    (
        "sweep-determinism",
        "sweep_violations.rs",
        8,
        13,
        "channel arrival order flows into published results via `.push(…)`",
    ),
    (
        "sweep-determinism",
        "sweep_violations.rs",
        14,
        14,
        "`thread::current` (thread identity) in sweep code",
    ),
    (
        "sweep-determinism",
        "sweep_violations.rs",
        18,
        32,
        "`AtomicU64` (shared mutable state) in sweep code",
    ),
    (
        "unsafe-hygiene",
        "unsafe_violations.rs",
        5,
        5,
        "`unsafe` in a file not on the unsafe allowlist",
    ),
    (
        "unsafe-hygiene",
        "unsafe_violations.rs",
        5,
        5,
        "`unsafe` without a `// SAFETY:` comment",
    ),
    (
        "unsafe-hygiene",
        "unsafe_violations.rs",
        10,
        5,
        "`unsafe` in a file not on the unsafe allowlist",
    ),
];

#[test]
fn fixture_corpus_findings_are_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let findings = nistream_analysis::check(&root, &fixture_config()).unwrap();
    let actual: Vec<(String, String, u32, u32, String)> = findings
        .iter()
        .map(|f| {
            (
                f.lint.clone(),
                f.file.display().to_string(),
                f.line,
                f.col,
                f.message.clone(),
            )
        })
        .collect();
    let expected: Vec<(String, String, u32, u32, String)> = EXPECTED
        .iter()
        .map(|(l, f, ln, c, m)| (l.to_string(), f.to_string(), *ln, *c, m.to_string()))
        .collect();
    assert_eq!(actual, expected, "fixture findings drifted — actual list:\n{actual:#?}");
    // Sanity: all seven families are represented.
    for lint in lints::ALL_LINTS {
        assert!(actual.iter().any(|(l, ..)| l == lint), "no {lint} finding");
    }
}
