//! `prebond3d-lint` — run the static-analysis pipeline over the seed
//! benchmarks and any run reports on disk.
//!
//! Per selected die (see `PREBOND3D_CIRCUITS`), three staged contexts:
//!
//! 1. **netlist** — structure checks on the generated die;
//! 2. **scan** — chain connectivity after scan insertion;
//! 3. **flow** — the full Fig. 6 flow (Ours, both scenarios) at deep
//!    depth: wrapper wiring, TSV coverage with cone-overlap rationale,
//!    timing-model sanity, post-insertion slack and mission-mode
//!    co-simulation.
//!
//! Afterwards, every `run_*.json` / `BENCH_*.json` in the report
//! directory is schema-checked. Findings print human-readably; the full
//! set is written to `results/lint_<exp>.json` (directory overridable via
//! `PREBOND3D_REPORT_DIR`, experiment name via the first CLI argument,
//! default `full`). `--sarif <path>` additionally writes the findings as
//! a SARIF 2.1.0 document for code-review/CI ingestion. Exit code 1 when
//! any Error-severity finding survives, 3 when a die paniced while being
//! audited and the rest carried on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

use prebond3d_bench::{context, driver, lintflow};
use prebond3d_dft::insert_scan;
use prebond3d_lint::{Depth, LintContext, LintReport, Linter, Severity};
use prebond3d_obs::json::Value;
use prebond3d_resilience::{self as resil, RunCtx};
use prebond3d_wcm::flow::{FlowConfig, Method};
use prebond3d_wcm::run_flow;

fn report_dir() -> PathBuf {
    std::env::var("PREBOND3D_REPORT_DIR").map_or_else(|_| PathBuf::from("results"), PathBuf::from)
}

/// Lint one die through the staged contexts.
fn lint_die(case: &context::DieCase) -> Vec<LintReport> {
    let library = context::library();
    let label = case.label();
    let mut reports = Vec::new();

    // Stage 1: the raw generated netlist.
    reports.push(
        Linter::with_default_passes()
            .run(&LintContext::new(format!("{label}/netlist")).with_netlist(&case.netlist)),
    );

    // Stage 2: scan insertion.
    match insert_scan(&case.netlist) {
        Ok((scanned, chain)) => reports.push(
            Linter::with_default_passes().run(
                &LintContext::new(format!("{label}/scan"))
                    .with_netlist(&scanned)
                    .with_chain(&chain),
            ),
        ),
        Err(e) => eprintln!("{label}: scan insertion failed: {e}"),
    }

    // Stage 3: the full flow, both scenarios, deep depth.
    for config in [
        FlowConfig::area_optimized(Method::Ours),
        FlowConfig::performance_optimized(Method::Ours),
    ] {
        let stage = format!("{label}/flow-{:?}", config.scenario).to_lowercase();
        match run_flow(&case.netlist, &case.placement, &library, &config) {
            Ok(result) => reports.push(lintflow::lint_result(
                &stage,
                &case.netlist,
                &result,
                &library,
                &config,
                Depth::Deep,
            )),
            Err(e) => eprintln!("{stage}: flow failed: {e}"),
        }
    }
    reports
}

/// Schema-check every report file in the results directory.
fn lint_reports_on_disk(dir: &PathBuf) -> Option<LintReport> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut ctx = LintContext::new(dir.display().to_string());
    let mut found = false;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if (name.starts_with("run_") || name.starts_with("BENCH_")) && name.ends_with(".json") {
            if let Ok(text) = std::fs::read_to_string(entry.path()) {
                ctx = ctx.with_report(name, text);
                found = true;
            }
        }
    }
    found.then(|| Linter::with_default_passes().run(&ctx))
}

fn main() -> ExitCode {
    let _ctx = RunCtx::from_env().0.enter();
    let mut experiment = "full".to_string();
    let mut sarif_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--sarif" {
            match args.next() {
                Some(path) => sarif_path = Some(PathBuf::from(path)),
                None => {
                    eprintln!("prebond3d-lint: --sarif requires a path");
                    return ExitCode::from(2);
                }
            }
        } else {
            experiment = arg;
        }
    }
    let names = context::circuit_names();
    eprintln!("prebond3d-lint: auditing {}", names.join(", "));

    let cases = context::load_circuits(&names);
    let mut reports: Vec<LintReport> = Vec::new();
    let mut failed_dies = 0usize;
    for case in &cases {
        match catch_unwind(AssertUnwindSafe(|| lint_die(case))) {
            Ok(r) => reports.extend(r),
            Err(p) => {
                failed_dies += 1;
                eprintln!(
                    "{}: audit paniced: {}",
                    case.label(),
                    prebond3d_bench::report::panic_message(p.as_ref())
                );
            }
        }
    }
    let dir = report_dir();
    if let Some(r) = lint_reports_on_disk(&dir) {
        reports.push(r);
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut infos = 0usize;
    for report in &reports {
        errors += report.count(Severity::Error);
        warnings += report.count(Severity::Warn);
        infos += report.count(Severity::Info);
        if !report.diagnostics.is_empty() {
            print!("{}", report.render());
        }
    }
    println!(
        "lint: {} artifact(s), {errors} error(s), {warnings} warning(s), {infos} info",
        reports.len()
    );

    let doc = Value::obj([
        ("experiment", experiment.as_str().into()),
        ("errors", errors.into()),
        ("warnings", warnings.into()),
        ("infos", infos.into()),
        (
            "reports",
            Value::Arr(reports.iter().map(LintReport::to_json).collect()),
        ),
    ]);
    let path = dir.join(format!("lint_{experiment}.json"));
    match resil::io::atomic_write(&path, &format!("{doc}\n")) {
        Ok(()) => eprintln!("lint report: {}", path.display()),
        Err(e) => eprintln!("lint report: {e}"),
    }
    if let Some(path) = &sarif_path {
        let sarif = prebond3d_lint::sarif::to_sarif(&reports);
        match resil::io::atomic_write(path, &format!("{sarif}\n")) {
            Ok(()) => eprintln!("sarif report: {}", path.display()),
            Err(e) => eprintln!("sarif report: {e}"),
        }
    }

    if errors > 0 {
        ExitCode::from(1)
    } else if failed_dies > 0 {
        ExitCode::from(driver::EXIT_PARTIAL_FAILURE)
    } else {
        ExitCode::SUCCESS
    }
}
