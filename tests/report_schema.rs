//! Golden-file schema test for the two machine-readable reports:
//! `results/run_<exp>.json` (per-die sections with spans and counters)
//! and `results/BENCH_<exp>.json` (aggregated phases + speedup records).
//!
//! The test runs a tiny synthetic experiment through the real
//! begin/die_scope/record_speedup/finish pipeline, parses both files with
//! the in-tree JSON parser, reduces them to a type-schema (one sorted
//! `path: type` line per distinct field) and compares against the golden
//! files in `tests/golden/`. Downstream tooling parses these reports;
//! changing a field name or type must be a conscious, reviewed act.

use prebond3d_bench::report;
use prebond3d_lint::schema::schema_lines;
use prebond3d_obs as obs;
use prebond3d_obs::json::{parse, Value};
use prebond3d_resilience::{chaos, degrade, ReportMode, RunCtx};

/// Reduce a report to its sorted `path: type` lines (the lint pass's
/// extractor: dynamically keyed `counters`/`gauges`/`hists` maps collapse
/// to one line, and a value of the wrong type surfaces as an extra line
/// the golden file does not contain).
fn schema_of(text: &str) -> String {
    let doc = parse(text).expect("report parses as JSON");
    let lines: Vec<String> = schema_lines(&doc).into_iter().collect();
    format!("{}\n", lines.join("\n"))
}

/// Compare against a golden file — or, with `PREBOND3D_REGEN_GOLDEN`
/// set, rewrite the golden in place (`golden_file` is relative to
/// `tests/`) so intentional schema changes don't need hand-editing.
fn assert_matches_golden(actual: &str, golden: &str, which: &str, golden_file: &str) {
    if std::env::var_os("PREBOND3D_REGEN_GOLDEN").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join(golden_file);
        std::fs::write(&path, actual).expect("rewrite golden schema");
        return;
    }
    assert!(
        actual == golden,
        "{which} schema drifted from tests/golden.\n--- expected ---\n{golden}\n--- actual ---\n{actual}\n\
         If the change is intentional, regenerate it: \
         PREBOND3D_REGEN_GOLDEN=1 cargo test --test report_schema"
    );
}

/// Single test function: the report collector and `PREBOND3D_REPORT_DIR`
/// are process-global, so the whole scenario runs in one sequential body.
#[test]
fn report_files_match_the_golden_schemas() {
    let dir = std::env::temp_dir().join(format!("prebond3d-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp report dir");
    std::env::set_var("PREBOND3D_REPORT_DIR", &dir);

    // Arm chaos at rate 0 (armed but never fires) and stage one synthetic
    // event/degradation/failure so the goldens pin the element shapes of
    // the resilience arrays, not just their presence.
    let armed = RunCtx::default().with_chaos(1, 0.0).enter();
    report::begin("schema_probe", ReportMode::default());
    chaos::note("io.write", chaos::ChaosKind::Io);
    degrade::record("podem", "abort_faults", "schema probe");
    report::record_failure("synthetic Die9", "schema probe failure");
    for die in 0..2 {
        report::die_scope(&format!("synthetic Die{die}"), || {
            let _flow = obs::span("flow");
            {
                let _inner = obs::span("graph_build");
                obs::count("graph.edges", 3 + die as u64);
                obs::hist("probe.latency_ns", 1500 + die as u64);
            }
            obs::gauge("flow.reused_scan_ffs", die as u64);
        });
    }
    // One panicking unit with telemetry already recorded: its partial
    // capture must land in `failures[].partial` with section shape.
    report::resilient_par_die_scopes(
        "schema_panic",
        &[0u32],
        |case| format!("synthetic Panic{case}"),
        |_| {
            {
                let _span = obs::span("doomed_phase");
                obs::count("graph.edges", 1);
            }
            panic!("schema probe partial failure");
        },
        |_: &u32| Value::Null,
        |_| Some(0u32),
    );
    report::record_speedup("fault_simulation", "synthetic Die1", 4, 10.0, 4.0);
    report::record_work("atpg.gate_evals", "synthetic Die1", 1000, 400);
    let run_path = report::finish().expect("reports written");
    drop(armed);
    let bench_path = run_path.with_file_name("BENCH_schema_probe.json");

    let run_schema = schema_of(&std::fs::read_to_string(&run_path).expect("run report"));
    let bench_schema = schema_of(&std::fs::read_to_string(&bench_path).expect("bench report"));

    assert_matches_golden(
        &run_schema,
        include_str!("golden/run_report.schema.txt"),
        "run_<exp>.json",
        "golden/run_report.schema.txt",
    );
    assert_matches_golden(
        &bench_schema,
        include_str!("golden/bench_report.schema.txt"),
        "BENCH_<exp>.json",
        "golden/bench_report.schema.txt",
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The serving benchmark report (`results/BENCH_serve.json`, written by
/// `prebond3d-loadgen`) has its own shape — jobs/cache/latency blocks
/// instead of per-die sections. Its schema is pinned from the checked-in
/// CI baseline, so regenerating the baseline with a drifted loadgen
/// fails here before obs-diff ever sees it.
#[test]
fn serve_baseline_matches_the_golden_schema() {
    let schema = schema_of(include_str!("../results/BENCH_serve.json"));
    assert_matches_golden(
        &schema,
        include_str!("golden/serve_report.schema.txt"),
        "BENCH_serve.json",
        "golden/serve_report.schema.txt",
    );
}

/// A metric value of the wrong type is drift: it reduces to a line the
/// golden schema does not contain, so the golden comparison fails.
#[test]
fn non_numeric_metric_values_drift_from_the_golden() {
    let golden = include_str!("golden/run_report.schema.txt");
    for bad in [
        r#"{"counters":{"k":"x"}}"#,
        r#"{"gauges":{"k":true}}"#,
        r#"{"hists":{"k":{"count":1}}}"#,
    ] {
        let schema = schema_of(&format!(r#"{{"sections":[{bad}]}}"#));
        assert!(
            schema.lines().any(|l| !golden.lines().any(|g| g == l)),
            "{bad} slipped past the schema check"
        );
    }
}
