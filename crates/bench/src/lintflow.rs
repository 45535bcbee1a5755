//! Lint gate around [`run_flow`]: every experiment cell is statically
//! checked right after it runs.
//!
//! [`checked_run_flow`] is the drop-in the table/figure modules call
//! instead of `run_flow`. After the flow completes it runs the quick
//! depth of the `prebond3d-lint` pipeline over the produced artifacts and
//! turns any Error-severity finding into a flow failure, so a regression
//! in wrapper wiring or TSV coverage aborts the experiment instead of
//! silently skewing a table.
//!
//! Two deliberate relaxations:
//!
//! * configurations that are *expected* to violate timing — the whole
//!   area-optimized scenario (it sets `s_th = −∞` and makes no timing
//!   promise; Table III reports its violations), the Agrawal and Li
//!   baselines under tight timing, and any ablation that forces an
//!   ordering or overlap policy — get `P3404` allow-listed: their
//!   violations are the paper's Table III/V result, not a bug;
//! * setting `PREBOND3D_LINT=0` (or `off`) disables the gate entirely,
//!   for timing-sensitive perf runs.

use prebond3d_celllib::Library;
use prebond3d_lint::diagnostic::NEGATIVE_POST_SLACK;
use prebond3d_lint::flow::{flow_context, thresholds_for};
use prebond3d_lint::{Depth, LintReport, Linter};
use prebond3d_netlist::Netlist;
use prebond3d_place::Placement;
use prebond3d_resilience::RunCtx;
use prebond3d_wcm::flow::{run_flow, FlowConfig, FlowError, Method, Scenario};
use prebond3d_wcm::FlowResult;

/// Whether the lint gate is active (`PREBOND3D_LINT`, default on).
pub fn enabled() -> bool {
    match std::env::var("PREBOND3D_LINT") {
        Ok(v) => !matches!(v.trim(), "0" | "off" | "false" | "no"),
        Err(_) => true,
    }
}

/// `true` when `config` is a cell the paper itself reports as violating
/// (the timing-blind area scenario, baselines under tight timing,
/// forced-policy ablations): its negative post-insertion slack is a
/// result, not a defect. The gated invariant is the paper's headline —
/// Ours under tight timing stays violation-free (Table III: 0/24).
pub fn expects_violation(config: &FlowConfig) -> bool {
    config.method != Method::Ours
        || config.scenario == Scenario::Area
        || config.ordering.is_some()
        || config.allow_overlap.is_some()
}

/// Lint one completed flow at the given depth, applying the severity
/// policy above. Also used by the `prebond3d-lint` binary (deep mode).
pub fn lint_result(
    label: &str,
    netlist: &Netlist,
    result: &FlowResult,
    library: &Library,
    config: &FlowConfig,
    depth: Depth,
) -> LintReport {
    let thresholds = thresholds_for(config, library, result.placement.scale());
    let ctx = flow_context(label, netlist, result, library, &thresholds, config, depth);
    let mut linter = Linter::with_default_passes();
    if expects_violation(config) {
        linter = linter.allow(NEGATIVE_POST_SLACK);
    }
    if RunCtx::current().budget_ms().is_some() {
        // A phase budget can legitimately truncate the searches that keep
        // timing clean (PODEM, annealing, clique merging); the resulting
        // violations are recorded degradations, not defects, so a budgeted
        // run still lints clean.
        linter = linter.allow(NEGATIVE_POST_SLACK);
    }
    linter.run(&ctx)
}

/// [`run_flow`] followed by the quick lint gate.
///
/// # Errors
///
/// Propagates `run_flow` failures; additionally fails when the lint gate
/// is enabled and finds an Error-severity diagnostic, with the rendered
/// report as the error message.
pub fn checked_run_flow(
    label: &str,
    netlist: &Netlist,
    placement: &Placement,
    library: &Library,
    config: &FlowConfig,
) -> Result<FlowResult, FlowError> {
    let result = run_flow(netlist, placement, library, config)?;
    if enabled() {
        let report = lint_result(label, netlist, &result, library, config, Depth::Quick);
        if report.has_errors() {
            return Err(FlowError::LintGate {
                label: format!("{label} ({} {:?})", config.method.label(), config.scenario),
                report: report.render(),
            });
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::itc99::{generate_die, DieSpec};
    use prebond3d_place::{place, PlaceConfig};

    fn case() -> (Netlist, Placement) {
        let die = generate_die(&DieSpec {
            name: "gate".to_string(),
            gates: 240,
            scan_flip_flops: 20,
            inbound_tsvs: 7,
            outbound_tsvs: 7,
            primary_inputs: 5,
            primary_outputs: 5,
            seed: 3,
        });
        let placement = place(&die, &PlaceConfig::default(), 3);
        (die, placement)
    }

    #[test]
    fn paper_cells_pass_the_gate() {
        let (die, placement) = case();
        let library = Library::nangate45_like();
        for config in [
            FlowConfig::area_optimized(Method::Ours),
            FlowConfig::performance_optimized(Method::Ours),
            FlowConfig::performance_optimized(Method::Agrawal),
            FlowConfig::area_optimized(Method::Naive),
        ] {
            checked_run_flow("gate", &die, &placement, &library, &config)
                .unwrap_or_else(|e| panic!("{:?} {:?}: {e}", config.method, config.scenario));
        }
    }

    #[test]
    fn violation_policy_tracks_the_configuration() {
        assert!(!expects_violation(&FlowConfig::performance_optimized(
            Method::Ours
        )));
        assert!(expects_violation(&FlowConfig::performance_optimized(
            Method::Li
        )));
        // Area-optimized makes no timing promise, for any method.
        assert!(expects_violation(&FlowConfig::area_optimized(Method::Ours)));
        let forced = FlowConfig {
            allow_overlap: Some(false),
            ..FlowConfig::performance_optimized(Method::Ours)
        };
        assert!(expects_violation(&forced));
    }

    #[test]
    fn deep_lint_of_a_paper_cell_is_clean() {
        let (die, placement) = case();
        let library = Library::nangate45_like();
        let config = FlowConfig::performance_optimized(Method::Ours);
        let result = run_flow(&die, &placement, &library, &config).unwrap();
        let report = lint_result("gate", &die, &result, &library, &config, Depth::Deep);
        assert!(!report.has_errors(), "{}", report.render());
    }
}
