//! Serial-vs-parallel equivalence: every stage the pool touches must be
//! bit-identical for any thread count (DESIGN.md §8).
//!
//! Each test computes a result under `PREBOND3D_THREADS`-equivalent
//! overrides of 1 (the exact serial path), 2 and 8 via
//! `prebond3d_pool::with_threads`, then compares byte-for-byte — either
//! the raw values or their `Debug` renderings, which pin down ordering as
//! well as content. Thread count 8 deliberately oversubscribes small
//! work lists so chunk claiming is maximally racy; determinism must come
//! from the merge order, not from scheduling luck.

use prebond3d::atpg::engine::{run_stuck_at, AtpgConfig};
use prebond3d::atpg::faultsim::FaultSimulator;
use prebond3d::atpg::sim::Pattern;
use prebond3d::atpg::{FaultList, TestAccess};
use prebond3d::celllib::Library;
use prebond3d::netlist::{itc99, Netlist};
use prebond3d::place::{place, PlaceConfig};
use prebond3d::wcm::flow::{run_flow, FlowConfig, FlowResult, Method, Scenario};
use prebond3d_bench::{report, table2};
use prebond3d_pool::with_threads;
use prebond3d_resilience::{ReportMode, RunCtx};
use prebond3d_rng::StdRng;

/// The deterministic substrates the suite sweeps: a small and a medium
/// ITC'99-style die, generated from fixed published parameters.
fn substrates() -> Vec<(String, Netlist)> {
    let mut out = Vec::new();
    for (name, dies) in [("b11", 2), ("b12", 1)] {
        let spec = itc99::circuit(name).expect("known benchmark");
        for (i, die) in spec.dies.iter().enumerate().take(dies) {
            out.push((format!("{name} Die{i}"), itc99::generate_die(die)));
        }
    }
    out
}

/// Run `f` at thread counts 1, 2 and 8 and assert all results equal.
fn assert_thread_invariant<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> T) {
    let serial = with_threads(1, &f);
    for threads in [2usize, 8] {
        let parallel = with_threads(threads, &f);
        assert_eq!(
            serial, parallel,
            "{what}: serial and {threads}-thread results diverge"
        );
    }
}

#[test]
fn fault_coverage_maps_are_identical_across_thread_counts() {
    for (label, netlist) in substrates() {
        let access = TestAccess::full_scan(&netlist);
        let faults = FaultList::collapsed(&netlist);
        let alive = vec![true; faults.len()];
        let mut rng = StdRng::seed_from_u64(0xD1CE_0001);
        let patterns: Vec<Pattern> = (0..64)
            .map(|_| Pattern {
                bits: (0..access.width()).map(|_| rng.gen_bool(0.5)).collect(),
            })
            .collect();
        assert_thread_invariant(&format!("{label} detection masks"), || {
            let mut fs = FaultSimulator::new(&netlist);
            fs.simulate_batch(&netlist, &access, &patterns, &faults.faults, &alive)
                .unwrap()
                .to_vec()
        });
    }
}

/// Sharing-graph edge sets, clique partitions and the final wrapper-cell
/// counts, all captured through the flow's own outputs: `PhaseStats`
/// carries the per-phase node/edge/overlap counts, `WrapPlan` the exact
/// reuse assignment the cliques produced, and the two counters the final
/// answer. `WrapPlan` is `Eq`, so a single adjacency-order difference in
/// the graph or a reordered merge in the partition shows up here.
#[test]
fn sharing_graphs_cliques_and_wrapper_counts_are_thread_invariant() {
    let lib = Library::nangate45_like();
    for (label, netlist) in substrates() {
        let placement = place(&netlist, &PlaceConfig::default(), 1);
        for scenario in [Scenario::Area, Scenario::Tight] {
            let fingerprint = |r: &FlowResult| {
                format!(
                    "{:?}\n{:?}\nreused={} additional={} wns={:?} violation={}",
                    r.phases,
                    r.plan,
                    r.reused_scan_ffs,
                    r.additional_wrapper_cells,
                    r.wns_after,
                    r.timing_violation,
                )
            };
            assert_thread_invariant(&format!("{label} flow ({scenario:?})"), || {
                let config = FlowConfig {
                    method: Method::Ours,
                    scenario,
                    ordering: None,
                    allow_overlap: Some(true),
                };
                let r = run_flow(&netlist, &placement, &lib, &config).expect("flow runs");
                fingerprint(&r)
            });
        }
    }
}

/// End-to-end: the testable netlist that comes out of the flow plus a
/// full deterministic ATPG run on it. This is the Fig. 6 pipeline exactly
/// as the bench drivers execute it.
#[test]
fn full_flow_and_atpg_results_are_thread_invariant() {
    let lib = Library::nangate45_like();
    let spec = itc99::circuit("b11").expect("known benchmark");
    let netlist = itc99::generate_die(&spec.dies[1]);
    let placement = place(&netlist, &PlaceConfig::default(), 1);
    assert_thread_invariant("b11 Die1 flow + stuck-at ATPG", || {
        let r = run_flow(
            &netlist,
            &placement,
            &lib,
            &FlowConfig::performance_optimized(Method::Ours),
        )
        .expect("flow runs");
        let access = prebond3d::dft::prebond_access(&r.testable);
        let result = run_stuck_at(&r.testable.netlist, &access, &AtpgConfig::default());
        format!(
            "cells={} coverage={:.6} patterns={} wrapped_len={}",
            r.additional_wrapper_cells,
            result.test_coverage(),
            result.pattern_count(),
            r.testable.netlist.len(),
        )
    });
}

/// Wide-lane SIMD fault simulation (DESIGN.md §16): the full lane-width ×
/// thread-count matrix must produce byte-identical detection masks,
/// wrapper counts and fault coverage. Widths 1/4/8 change how many
/// 64-pattern blocks share one cone walk; threads change how fault chunks
/// are claimed; neither may leak into any result bit. The reference cell
/// of the matrix is (width 1, serial) — the straight-line oracle.
#[test]
fn lane_width_and_thread_matrix_is_byte_identical() {
    let lib = Library::nangate45_like();
    let spec = itc99::circuit("b12").expect("known benchmark");
    let netlist = itc99::generate_die(&spec.dies[0]);
    let placement = place(&netlist, &PlaceConfig::default(), 1);
    let access = TestAccess::full_scan(&netlist);
    let faults = FaultList::collapsed(&netlist);
    let alive = vec![true; faults.len()];
    let mut rng = StdRng::seed_from_u64(0x1A5E_D1CE);
    // 320 patterns = 5 blocks: a width-8 dispatch with a ragged tail.
    let patterns: Vec<Pattern> = (0..320)
        .map(|_| Pattern {
            bits: (0..access.width()).map(|_| rng.gen_bool(0.5)).collect(),
        })
        .collect();
    let blocks = patterns.len().div_ceil(64);

    let fingerprint = || {
        // Wide masks, normalized block-major so the rendering is
        // width-independent.
        let mut fs = FaultSimulator::new(&netlist);
        let (w, masks) = fs
            .simulate_batch_wide(&netlist, &access, &patterns, &faults.faults, &alive)
            .expect("batch within lane capacity");
        let normalized: Vec<u64> = (0..blocks)
            .flat_map(|b| (0..faults.len()).map(move |f| (f, b)))
            .map(|(f, b)| masks[f * w + b])
            .collect();
        // Flow wrapper counts + full ATPG on the wrapped die: the engine's
        // random phase, compaction and coverage accounting all read the
        // lane knob internally.
        let config = FlowConfig {
            method: Method::Ours,
            scenario: Scenario::Tight,
            ordering: None,
            allow_overlap: Some(true),
        };
        let r = run_flow(&netlist, &placement, &lib, &config).expect("flow runs");
        let atpg = run_stuck_at(
            &r.testable.netlist,
            &prebond3d::dft::prebond_access(&r.testable),
            &AtpgConfig::fast(),
        );
        format!(
            "masks={normalized:?} reused={} additional={} coverage={:.9} patterns={}",
            r.reused_scan_ffs,
            r.additional_wrapper_cells,
            atpg.test_coverage(),
            atpg.pattern_count(),
        )
    };

    let lanes = |width: usize| RunCtx::default().with_lanes(width);
    let reference = RunCtx::scope(&lanes(1), || with_threads(1, fingerprint));
    for width in [1usize, 4, 8] {
        for threads in [1usize, 4, 8] {
            let got = RunCtx::scope(&lanes(width), || with_threads(threads, fingerprint));
            assert_eq!(
                reference, got,
                "b12 Die0: lanes={width} threads={threads} diverges from the \
                 single-lane serial oracle"
            );
        }
    }
}

/// Incremental frontier STA (DESIGN.md §16): a seeded what-if sweep over
/// single-net extra loads must match the from-scratch oracle *exactly* —
/// every arrival, required, load, WNS and TNS `f64` compares equal — while
/// retiming strictly fewer nodes than the full recompute visits.
#[test]
fn incremental_sta_what_if_sweep_equals_full_recompute_exactly() {
    use prebond3d::celllib::{Capacitance, Time};
    use prebond3d::netlist::GateId;
    use prebond3d::sta::{analyze_with_extra_loads, StaAnalysis, StaConfig};
    let lib = Library::nangate45_like();
    let spec = itc99::circuit("b11").expect("known benchmark");
    let netlist = itc99::generate_die(&spec.dies[0]);
    let placement = place(&netlist, &PlaceConfig::default(), 1);
    let config = StaConfig::with_period(Time(760.0));
    let mut inc = StaAnalysis::new(&netlist, &placement, &lib, &config, &[]);
    let mut rng = StdRng::seed_from_u64(0x57A7_D1CE);
    for round in 0..10 {
        let target = GateId(rng.gen_range(0..netlist.len() as u32));
        let c = Capacitance(rng.gen_range(1u32..60) as f64 / 8.0);
        inc.set_extra_load(target, c);
        let oracle =
            analyze_with_extra_loads(&netlist, &placement, &lib, &config, &[], &[(target, c)]);
        assert_eq!(
            inc.report(),
            oracle,
            "round {round}: incremental what-if diverged from the oracle \
             (extra {c} on {target:?})"
        );
        assert!(
            inc.last_retimes() < netlist.len() as u64,
            "round {round}: retimed {} of {} nodes — frontier is not partial",
            inc.last_retimes(),
            netlist.len()
        );
        inc.set_extra_load(target, Capacitance::ZERO);
    }
    // After the sweep every extra is cleared: the live state must equal
    // the plain analysis again.
    assert_eq!(
        inc.report(),
        prebond3d::sta::analyze(&netlist, &placement, &lib, &config)
    );
}

/// Crash-safe checkpoint/resume (DESIGN.md §10): a sweep that is killed
/// mid-run and resumed — even with a torn final checkpoint line and a
/// different thread count — must converge to final reports byte-identical
/// to an uninterrupted run. Wall-clock fields are zeroed via
/// `ReportMode::stable_ms` so the comparison is exact.
#[test]
fn killed_and_resumed_sweep_produces_byte_identical_reports() {
    let base = std::env::temp_dir().join(format!("prebond3d-resume-{}", std::process::id()));
    let dir_a = base.join("uninterrupted");
    let dir_b = base.join("resumed");
    std::fs::create_dir_all(&dir_a).expect("temp dirs");
    std::fs::create_dir_all(&dir_b).expect("temp dirs");
    std::env::set_var("PREBOND3D_CIRCUITS", "b11");
    let stable = ReportMode {
        stable_ms: true,
        resume: false,
    };

    let read = |dir: &std::path::Path, name: &str| {
        std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("{}/{name}: {e}", dir.display()))
    };

    // Reference: one uninterrupted run, serial.
    std::env::set_var("PREBOND3D_REPORT_DIR", &dir_a);
    with_threads(1, || {
        report::begin("table2", stable);
        table2::run();
        report::finish_summary()
    });

    // Crash scenario: run the sweep to build the checkpoint, then abandon
    // the collector without `finish` (the process "died" before writing
    // reports) and tear the checkpoint's final line mid-entry, as a kill
    // during an append would.
    std::env::set_var("PREBOND3D_REPORT_DIR", &dir_b);
    with_threads(2, || {
        report::begin("table2", stable);
        table2::run();
    });
    let ckpt = dir_b.join("checkpoint_table2.json");
    let text = read(&dir_b, "checkpoint_table2.json");
    assert!(
        text.lines().count() > 2,
        "checkpoint should hold several completed units"
    );
    std::fs::write(&ckpt, &text[..text.len() - 7]).expect("tear checkpoint");

    // Resume at a different thread count; the torn unit re-runs, the rest
    // replay from the checkpoint.
    let resume = ReportMode {
        resume: true,
        ..stable
    };
    let summary = with_threads(4, || {
        report::begin("table2", resume);
        table2::run();
        report::finish_summary()
    });
    assert!(
        summary.resume_skipped > 0,
        "resume should replay finished units from the checkpoint"
    );
    assert_eq!(summary.failures, 0, "resumed sweep should be clean");

    for name in ["run_table2.json", "BENCH_table2.json"] {
        assert_eq!(
            read(&dir_a, name),
            read(&dir_b, name),
            "{name}: resumed run diverges from the uninterrupted run"
        );
    }
    assert!(
        !ckpt.exists(),
        "checkpoint should be removed after a clean finish"
    );

    std::env::remove_var("PREBOND3D_REPORT_DIR");
    std::env::remove_var("PREBOND3D_CIRCUITS");
    let _ = std::fs::remove_dir_all(&base);
}
