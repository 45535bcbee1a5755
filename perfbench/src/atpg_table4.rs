//! `atpg_table4`: Table IV's thorough ATPG on two small testable dies.
//!
//! Stuck-at and transition ATPG (`AtpgConfig::thorough`) on the Ours
//! tight-timing testable dies of b11 Die0 and Die3: 4 calls per pass.
//! PODEM carries the time — Die0 mostly proving faults untestable, Die3
//! mostly aborting at the backtrack limit — while graph and clique code
//! does almost nothing, so a planner change must leave this unchanged.
//!
//! The traced run adds a PODEM sweep: `Podem::generate` on every
//! collapsed fault the SCOAP screen does not retire, each call timed and
//! sorted by outcome.

use std::time::Instant;

use prebond3d_atpg::engine::{run_stuck_at, run_transition, AtpgConfig, AtpgResult};
use prebond3d_atpg::podem::{Podem, PodemOutcome};
use prebond3d_atpg::scoap::{Scoap, INF};
use prebond3d_atpg::{Fault, FaultList, TestAccess};
use prebond3d_celllib::Library;
use prebond3d_dft::{prebond_access, TestableDie};
use prebond3d_netlist::Netlist;
use prebond3d_obs::json::Value;
use prebond3d_rng::StdRng;
use prebond3d_wcm::flow::{run_flow, FlowConfig, Method};

use crate::layers::{self, Layers, Trace};
use crate::reference::ATPG_TABLE4;
use crate::{
    guarded, load_dies, quantile, run_passes, setup_samples, shuffle, timed, Measured, Ops, Outcome,
};

const DIES: [(&str, usize); 2] = [("b11", 0), ("b11", 3)];
const KINDS: [&str; 2] = ["stuck-at", "transition"];

/// An Ours tight-timing testable die, ready for ATPG.
struct Target {
    label: String,
    die: TestableDie,
    access: TestAccess,
    wrapper_cells: usize,
    meets_clock: bool,
}

/// Generate, place and plan each die. A failed flow leaves the die out
/// and is returned as `(label, error)`.
fn set_up() -> (Vec<Target>, Vec<(String, String)>) {
    let library = Library::nangate45_like();
    let config = FlowConfig::performance_optimized(Method::Ours);
    let mut targets = Vec::new();
    let mut failures = Vec::new();
    for die in load_dies(&DIES) {
        let label = format!("{} ours-tight", die.label());
        let flow = guarded(|| run_flow(&die.netlist, &die.placement, &library, &config))
            .and_then(|r| r.map_err(|e| e.to_string()))
            .and_then(|r| {
                r.plan.validate(&die.netlist)?;
                if r.timing_violation {
                    return Err(format!("misses its clock: wns {:?}", r.wns_after));
                }
                Ok(r)
            });
        match flow {
            Ok(r) => {
                targets.push(Target {
                    label: die.label(),
                    access: prebond_access(&r.testable),
                    wrapper_cells: r.additional_wrapper_cells,
                    meets_clock: !r.timing_violation,
                    die: r.testable,
                });
            }
            Err(e) => failures.push((label, e)),
        }
    }
    (targets, failures)
}

fn atpg(t: &Target, kind: &str) -> AtpgResult {
    let config = AtpgConfig::thorough();
    match kind {
        "stuck-at" => run_stuck_at(&t.die.netlist, &t.access, &config),
        _ => run_transition(&t.die.netlist, &t.access, &config),
    }
}

fn check(t: &Target, kind: &str, r: &AtpgResult) -> Result<(), String> {
    let got = (
        r.total_faults,
        r.detected,
        r.untestable,
        r.aborted,
        r.pattern_count(),
    );
    let want = ATPG_TABLE4
        .iter()
        .find(|row| (row.0, row.1) == (t.label.as_str(), kind))
        .map(|row| (row.2, row.3, row.4, row.5, row.6));
    if want == Some(got) {
        return Ok(());
    }
    Err(format!(
        "(total, detected, untestable, aborted, patterns) = {got:?}, reference {want:?}; \
         reference row: (\"{}\", \"{kind}\", {}, {}, {}, {}, {}),",
        t.label, got.0, got.1, got.2, got.3, got.4
    ))
}

/// The engine's SCOAP screen: a saturated excitation controllability or
/// propagation observability proves the fault untestable without search.
fn scoap_retires(scoap: &Scoap, netlist: &Netlist, fault: Fault) -> bool {
    let driver = fault.site.driver(netlist).index();
    let cc = if fault.stuck.excitation() {
        scoap.cc1[driver]
    } else {
        scoap.cc0[driver]
    };
    let root = fault.site.propagation_root().index();
    cc >= INF || scoap.co[root].min(scoap.co[driver]) >= INF
}

/// PODEM calls of one die's sweep, sorted by outcome.
#[derive(Default)]
struct Sweep {
    tests: usize,
    untestable: usize,
    aborted: usize,
    test_ms: f64,
    untestable_ms: f64,
    aborted_ms: f64,
    call_us: Vec<f64>,
    wall_ms: f64,
}

fn podem_sweep(t: &Target, into: &mut Sweep) -> f64 {
    let netlist = &t.die.netlist;
    let scoap = Scoap::compute(netlist, &t.access);
    let mut podem = Podem::new(netlist, &t.access, &scoap, AtpgConfig::thorough().podem);
    let faults = FaultList::collapsed(netlist);
    let mut buckets_ms = 0.0;
    let t0 = Instant::now();
    for &fault in &faults.faults {
        if scoap_retires(&scoap, netlist, fault) {
            continue;
        }
        let (outcome, s) = timed(|| podem.generate(fault));
        let ms = s * 1e3;
        buckets_ms += ms;
        into.call_us.push(ms * 1e3);
        match outcome {
            PodemOutcome::Test(_) => (into.tests += 1, into.test_ms += ms),
            PodemOutcome::Untestable => (into.untestable += 1, into.untestable_ms += ms),
            PodemOutcome::Aborted => (into.aborted += 1, into.aborted_ms += ms),
        };
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    into.wall_ms += wall_ms;
    100.0 * buckets_ms / wall_ms
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut ops = Ops::default();
    let mut tr = Trace::default();
    let mut m = Measured::default();
    let (targets, failures) = if trace {
        layers::traced(&mut tr, set_up)
    } else {
        let mut last = Default::default();
        m.setup_s = setup_samples(|| {
            let (out, s) = timed(set_up);
            last = out;
            s
        });
        last
    };
    for t in &targets {
        ops.record(&format!("{} ours-tight", t.label), Ok(()));
    }
    for (label, e) in failures {
        ops.record(&label, Err(e));
    }
    m.wrapper_cells = targets.iter().map(|t| t.wrapper_cells).sum();
    m.tight_plans = targets.len();
    m.tight_met = targets.iter().filter(|t| t.meets_clock).count();

    let mut calls: Vec<(usize, &str)> = (0..targets.len())
        .flat_map(|t| KINDS.iter().map(move |&k| (t, k)))
        .collect();
    shuffle(&mut calls, &mut StdRng::seed_from_u64(seed));

    // One ATPG call: its latency and, when it checks out, its result.
    let mut call = |t: usize, kind: &str, tr: Option<&mut Trace>| -> (f64, Option<AtpgResult>) {
        let target = &targets[t];
        let run = || guarded(|| atpg(target, kind));
        let (result, s) = match tr {
            Some(tr) => timed(|| layers::traced(tr, run)),
            None => timed(run),
        };
        let checked = result.and_then(|r| check(target, kind, &r).map(|()| r));
        let label = format!("{} {kind}", target.label);
        let r = match checked {
            Ok(r) => {
                ops.record(&label, Ok(()));
                Some(r)
            }
            Err(e) => {
                ops.record(&label, Err(e));
                None
            }
        };
        (s * 1e3, r)
    };

    let mut layers = Layers::default();
    if trace {
        let untraced: f64 = calls.iter().map(|&(t, k)| call(t, k, None).0).sum();
        let mut traced = 0.0;
        let (mut testable, mut detected, mut patterns) = ([0usize; 2], [0usize; 2], 0usize);
        for &(t, kind) in &calls {
            let (ms, r) = call(t, kind, Some(&mut tr));
            traced += ms;
            if let Some(r) = r {
                let k = usize::from(kind == "transition");
                testable[k] += r.total_faults - r.untestable;
                detected[k] += r.detected;
                patterns += r.pattern_count();
            }
        }
        layers.set("trace.overhead_s", (traced - untraced) / 1e3);
        let pct = |k: usize| 100.0 * detected[k] as f64 / testable[k].max(1) as f64;
        layers.set("atpg.stuck_at_coverage_pct", pct(0));
        layers.set("atpg.transition_coverage_pct", pct(1));
        layers.set("atpg.test_patterns", patterns as f64);
        tr.fill(&mut layers);

        let mut sweep = Sweep::default();
        for t in &targets {
            let cover = podem_sweep(t, &mut sweep);
            let verdict = if cover >= 95.0 {
                Ok(())
            } else {
                Err(format!(
                    "outcome buckets cover {cover:.1}% of the sweep's wall time"
                ))
            };
            ops.record(&format!("{} podem sweep", t.label), verdict);
        }
        let calls = sweep.call_us.len();
        let buckets = sweep.test_ms + sweep.untestable_ms + sweep.aborted_ms;
        for (name, v) in [
            ("podem.calls", calls as f64),
            ("podem.tests", sweep.tests as f64),
            ("podem.untestable", sweep.untestable as f64),
            ("podem.aborted", sweep.aborted as f64),
            ("podem.test_ms", sweep.test_ms),
            ("podem.untestable_ms", sweep.untestable_ms),
            ("podem.aborted_ms", sweep.aborted_ms),
            ("podem.call_us_p50", quantile(&sweep.call_us, 0.5)),
            ("podem.call_us_p99", quantile(&sweep.call_us, 0.99)),
            ("podem.yield", sweep.tests as f64 / calls.max(1) as f64),
            ("podem.bucket_cover_pct", 100.0 * buckets / sweep.wall_ms),
        ] {
            layers.set(name, v);
        }
    } else {
        let mut op_ms = Vec::new();
        let mut faults = 0usize;
        let pass_s = run_passes(seconds, |pass| {
            let ((), s) = timed(|| {
                for &(t, kind) in &calls {
                    let (ms, r) = call(t, kind, None);
                    op_ms.push(ms);
                    if pass == 0 {
                        faults += r.map_or(0, |r| r.total_faults);
                    }
                }
            });
            s
        });
        m.work_per_pass = faults as f64;
        m.work_s.clone_from(&pass_s);
        m.pass_s = pass_s;
        m.op_ms = op_ms;
    }
    let dies: Vec<Value> = DIES
        .iter()
        .map(|(c, d)| format!("{c} Die{d} ours-tight testable").into())
        .collect();
    Outcome {
        ops,
        measured: m,
        layers,
        provenance: vec![
            ("dies", dies.into()),
            (
                "configs",
                vec![
                    Value::from("thorough stuck-at"),
                    "thorough transition".into(),
                ]
                .into(),
            ),
        ],
    }
}
