//! Determinism of the soak suite and its emitted SLO document.
//!
//! The `soak --check` gate compares SLO documents with integer margins,
//! which is only sound if a rerun of the same tree produces the same
//! bytes. This suite pins that: the rendered quick-mode document is
//! byte-identical across sweep thread counts (1 vs 4) and across
//! invocations, and the checked-in `BENCH_slo.json` baseline carries the
//! expected schema and scenario set. Full mode has no checked-in
//! document, so its longest-history scenario, `ni-churn`, is pinned here
//! row for row.

use nistream_bench::benchout::{repo_root, validate_doc};
use nistream_bench::soak::{self, SoakMode, SoakRow};
use nistream_trace::Slo;

#[test]
fn quick_document_is_byte_identical_across_threads_and_reruns() {
    let serial = soak::rows_with(SoakMode::Quick, 1);
    let fanned = soak::rows_with(SoakMode::Quick, 4);
    let again = soak::rows_with(SoakMode::Quick, 4);

    let doc_serial = soak::render_doc(SoakMode::Quick, &serial);
    let doc_fanned = soak::render_doc(SoakMode::Quick, &fanned);
    let doc_again = soak::render_doc(SoakMode::Quick, &again);

    assert_eq!(doc_serial, doc_fanned, "1-thread vs 4-thread documents diverge");
    assert_eq!(doc_fanned, doc_again, "reruns diverge");

    // A byte-identical self-comparison must sail through the gate.
    assert_eq!(
        soak::gate_against(&doc_serial, &doc_fanned).expect("documents parse"),
        Vec::<String>::new()
    );

    // Scenario order in the document is the canonical order, independent
    // of which sweep worker finished first.
    let names: Vec<&str> = serial.iter().map(|r| r.scenario.as_str()).collect();
    assert_eq!(names, soak::SCENARIOS.to_vec());
}

#[test]
fn checked_in_baseline_has_the_stable_schema() {
    validate_doc(soak::FILE, soak::SCHEMA, soak::REQUIRED_KEYS).expect("baseline validates");

    let body = std::fs::read_to_string(repo_root().join(soak::FILE)).expect("baseline exists");
    let rows = soak::parse_doc(&body).expect("baseline parses");
    let names: Vec<&str> = rows.iter().map(|r| r.scenario.as_str()).collect();
    assert_eq!(names, soak::SCENARIOS.to_vec(), "baseline covers every scenario");
    assert!(
        body.contains("\"mode\": \"quick\""),
        "baseline is the quick-mode document"
    );
}

#[test]
fn full_mode_churn_row_is_pinned() {
    let expected = SoakRow {
        scenario: "ni-churn".to_string(),
        virtual_secs: 600,
        streams: 1_346,
        abr_switches: 0,
        slo: Slo {
            dispatches: 272_507,
            drops: 9_447,
            late: 30_794,
            drop_ppm: 33_505,
            miss_ppm: 142_721,
            p99_late_ns: 2_097_151,
            max_late_ns: 5_290_530,
            max_backlog: 57,
        },
    };
    assert_eq!(soak::run_scenario("ni-churn", SoakMode::Full), expected);
}
