//! The experiment-driver boundary: begin the report, run the body under
//! `catch_unwind`, always finish the report, and map what happened to a
//! process exit code.
//!
//! Exit-code contract (also relied on by CI and the chaos suite):
//!
//! | code | meaning                                                   |
//! |------|-----------------------------------------------------------|
//! | 0    | full success                                              |
//! | 1    | lint gate failed ([`FlowError::LintGate`], `bin/lint`)    |
//! | 2    | bad circuit selection (`PREBOND3D_CIRCUITS` matches none) |
//! | 3    | partial failure: some units failed, the rest completed    |
//! | 4    | catastrophic: a typed fatal error or an escaped panic     |
//!
//! The body returns `Result<(), FlowError>` so a typed error maps to its
//! exit code directly ([`FlowError::exit_code`]) — no string matching. A
//! panic that escapes every unit boundary is still caught here, recorded
//! in the run report, and turned into code 4, so even a catastrophic run
//! leaves a machine-readable trace of what it managed to do.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use prebond3d_resilience::{ReportMode, RunCtx};
use prebond3d_wcm::flow::FlowError;

use crate::report;

/// Some units failed; the rest of the sweep completed and was reported.
pub const EXIT_PARTIAL_FAILURE: u8 = 3;
/// A fatal error or escaped panic ended the run early.
pub const EXIT_FATAL: u8 = 4;

/// Run one experiment end to end under the run context and report mode
/// the environment names ([`RunCtx::from_env`]: the binary edge).
pub fn run(experiment: &str, body: impl FnOnce() -> Result<(), FlowError>) -> ExitCode {
    let (ctx, mode) = RunCtx::from_env();
    run_with(&ctx, mode, experiment, body)
}

/// Run one experiment end to end under `ctx`: `begin(experiment)`, the
/// body, then `finish` — unconditionally, so the run report (with the
/// run's failure, degradation and chaos records) is written even when
/// the body dies.
pub fn run_with(
    ctx: &RunCtx,
    mode: ReportMode,
    experiment: &str,
    body: impl FnOnce() -> Result<(), FlowError>,
) -> ExitCode {
    let _ctx = ctx.enter();
    report::begin(experiment, mode);
    let outcome = catch_unwind(AssertUnwindSafe(body));
    match &outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("{experiment}: {e}");
            report::record_failure(experiment, &e.to_string());
        }
        Err(p) => {
            let msg = format!("escaped panic: {}", report::panic_message(p.as_ref()));
            eprintln!("{experiment}: {msg}");
            report::record_failure(experiment, &msg);
        }
    }
    let summary = report::finish_summary();
    match outcome {
        Err(_) => ExitCode::from(EXIT_FATAL),
        Ok(Err(e)) => ExitCode::from(u8::try_from(e.exit_code()).unwrap_or(EXIT_FATAL)),
        Ok(Ok(())) if summary.failures > 0 => ExitCode::from(EXIT_PARTIAL_FAILURE),
        Ok(Ok(())) => ExitCode::SUCCESS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The report collector is process-global; serialize with a local lock
    // (the report module's tests have their own).
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_dir(tag: &str, f: impl FnOnce()) {
        let dir =
            std::env::temp_dir().join(format!("prebond3d_driver_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("PREBOND3D_REPORT_DIR", &dir);
        f();
        std::env::remove_var("PREBOND3D_REPORT_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_body_exits_zero() {
        let _l = LOCK.lock().unwrap();
        with_dir("ok", || {
            assert_eq!(run("driver_ok", || Ok(())), ExitCode::SUCCESS);
        });
    }

    #[test]
    fn failed_units_map_to_the_partial_code() {
        let _l = LOCK.lock().unwrap();
        with_dir("partial", || {
            let code = run("driver_partial", || {
                report::record_failure("die0", "synthetic unit failure");
                Ok(())
            });
            assert_eq!(code, ExitCode::from(EXIT_PARTIAL_FAILURE));
        });
    }

    #[test]
    fn typed_errors_map_to_their_exit_code_and_escapes_to_fatal() {
        let _l = LOCK.lock().unwrap();
        with_dir("typed", || {
            let code = run("driver_lintgate", || {
                Err(FlowError::LintGate {
                    label: "x".to_string(),
                    report: String::new(),
                })
            });
            assert_eq!(code, ExitCode::from(1));
            let code = run("driver_escape", || panic!("boom all the way out"));
            assert_eq!(code, ExitCode::from(EXIT_FATAL));
        });
    }
}
