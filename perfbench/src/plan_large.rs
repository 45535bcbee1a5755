//! `plan_large`: the wrapper-cell planner on the largest dies.
//!
//! `run_flow` with the structural probe on all four dies of b20 and b22,
//! for Ours-tight, Agrawal-tight and Ours-area: 24 calls per pass, one
//! after another. Graph construction, clique partitioning, the timing
//! model, STA and DFT insertion carry the time; ATPG does no work here,
//! which makes this the workload an ATPG change must leave unchanged.

use prebond3d_celllib::Library;
use prebond3d_obs::json::Value;
use prebond3d_rng::StdRng;
use prebond3d_wcm::flow::{run_flow, FlowConfig, FlowResult, Method};

use crate::layers::{self, Layers, Trace};
use crate::reference::PLAN_LARGE;
use crate::{
    guarded, load_dies, run_passes, setup_samples, shuffle, timed, Die, Measured, Ops, Outcome,
};

const CIRCUITS: [&str; 2] = ["b20", "b22"];

fn configs() -> [(&'static str, FlowConfig); 3] {
    [
        (
            "ours-tight",
            FlowConfig::performance_optimized(Method::Ours),
        ),
        (
            "agrawal-tight",
            FlowConfig::performance_optimized(Method::Agrawal),
        ),
        ("ours-area", FlowConfig::area_optimized(Method::Ours)),
    ]
}

/// The plan validates, its counts match the stored reference, and an
/// Ours-tight plan meets its clock.
fn check(die: &Die, config: &str, r: &FlowResult) -> Result<(), String> {
    r.plan.validate(&die.netlist)?;
    let edges: usize = r.phases.iter().map(|p| p.edges).sum();
    let got = (r.additional_wrapper_cells, r.reused_scan_ffs, edges);
    let want = PLAN_LARGE
        .iter()
        .find(|row| (row.0, row.1, row.2) == (die.circuit, die.index, config))
        .map(|row| (row.3, row.4, row.5));
    if want != Some(got) {
        return Err(format!(
            "(cells, reused FFs, edges) = {got:?}, reference {want:?}; reference row: \
             (\"{}\", {}, \"{config}\", {}, {}, {}),",
            die.circuit, die.index, got.0, got.1, got.2
        ));
    }
    if config == "ours-tight" && r.timing_violation {
        return Err(format!("misses its clock: wns {:?}", r.wns_after));
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let library = Library::nangate45_like();
    let configs = configs();
    let ids: Vec<(&'static str, usize)> = CIRCUITS
        .iter()
        .flat_map(|&c| (0..4).map(move |d| (c, d)))
        .collect();
    let mut tr = Trace::default();
    let mut m = Measured::default();
    let dies = if trace {
        layers::traced(&mut tr, || load_dies(&ids))
    } else {
        let mut dies = Vec::new();
        m.setup_s = setup_samples(|| {
            let (d, s) = timed(|| load_dies(&ids));
            dies = d;
            s
        });
        dies
    };
    let mut calls: Vec<(usize, usize)> = (0..dies.len())
        .flat_map(|d| (0..configs.len()).map(move |c| (d, c)))
        .collect();
    shuffle(&mut calls, &mut StdRng::seed_from_u64(seed));

    let mut ops = Ops::default();
    // One flow call: its checked outcome, and the quality figures of an
    // Ours plan (cells, and for tight timing whether the clock is met).
    let mut call =
        |d: usize, c: usize, tr: Option<&mut Trace>| -> (f64, Option<(usize, Option<bool>)>) {
            let (die, (name, config)) = (&dies[d], &configs[c]);
            let flow = || guarded(|| run_flow(&die.netlist, &die.placement, &library, config));
            let (result, s) = match tr {
                Some(tr) => timed(|| layers::traced(tr, flow)),
                None => timed(flow),
            };
            let result = result.and_then(|r| r.map_err(|e| e.to_string()));
            let quality = result.as_ref().ok().and_then(|r| {
                (config.method == Method::Ours).then(|| {
                    let tight = (*name == "ours-tight").then_some(!r.timing_violation);
                    (r.additional_wrapper_cells, tight)
                })
            });
            let verdict = result.and_then(|r| check(die, name, &r));
            ops.record(&format!("{} {name}", die.label()), verdict);
            (s * 1e3, quality)
        };

    let mut layers = Layers::default();
    if trace {
        let untraced: f64 = calls.iter().map(|&(d, c)| call(d, c, None).0).sum();
        let traced: f64 = calls
            .iter()
            .map(|&(d, c)| call(d, c, Some(&mut tr)).0)
            .sum();
        layers.set("trace.overhead_s", (traced - untraced) / 1e3);
        tr.fill(&mut layers);
    } else {
        let mut op_ms = Vec::new();
        let pass_s = run_passes(seconds, |pass| {
            let ((), s) = timed(|| {
                for &(d, c) in &calls {
                    let (ms, quality) = call(d, c, None);
                    op_ms.push(ms);
                    if let (0, Some((cells, tight))) = (pass, quality) {
                        m.wrapper_cells += cells;
                        if let Some(met) = tight {
                            m.tight_plans += 1;
                            m.tight_met += usize::from(met);
                        }
                    }
                }
            });
            s
        });
        m.work_per_pass = calls.len() as f64;
        m.work_s.clone_from(&pass_s);
        m.pass_s = pass_s;
        m.op_ms = op_ms;
    }
    let dies_list: Vec<Value> = dies.iter().map(|d| d.label().into()).collect();
    let config_list: Vec<Value> = configs.iter().map(|(n, _)| (*n).into()).collect();
    Outcome {
        ops,
        measured: m,
        layers,
        provenance: vec![
            ("dies", dies_list.into()),
            ("configs", config_list.into()),
            ("probe", "structural".into()),
        ],
    }
}
