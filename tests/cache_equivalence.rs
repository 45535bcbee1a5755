//! Reference-vs-optimized equivalence sweep (DESIGN.md §11).
//!
//! The hot-path caches — cone word-span fast paths, memoized ATPG
//! probing, incremental clique scoring — are performance devices, not
//! algorithm changes: with caches enabled the flow must produce the same
//! sharing graphs, the same clique partitions and the same final fault
//! coverage as the straight-line reference code that
//! `PREBOND3D_NO_CACHE=1` selects. This sweep runs seeded random
//! netlists through the full Fig. 6 flow in both modes and compares the
//! outputs byte-for-byte (via `Debug` fingerprints, which pin ordering
//! as well as content).
//!
//! Each mode runs under its own scoped `RunCtx` (the reference mode is
//! `RunCtx::with_reference`); nothing process-global is flipped.

use prebond3d::atpg::engine::{run_stuck_at, AtpgConfig};
use prebond3d::celllib::Library;
use prebond3d::netlist::itc99;
use prebond3d::place::{place, PlaceConfig};
use prebond3d::wcm::flow::{run_flow, FlowConfig, FlowResult, Method, Scenario};
use prebond3d_resilience::RunCtx;
use prebond3d_rng::StdRng;

/// Seeded random die specs: small enough that the sweep's 2×(flow+ATPG)
/// per case stays fast, varied enough to hit empty graphs, dense overlap
/// regions and multi-clique partitions.
fn random_specs() -> Vec<itc99::DieSpec> {
    let mut rng = StdRng::seed_from_u64(0xCAC4_E001);
    (0..4u64)
        .map(|case| itc99::DieSpec {
            name: format!("cache_eq_die{case}"),
            scan_flip_flops: rng.gen_range(6usize..28),
            gates: rng.gen_range(80usize..320),
            inbound_tsvs: rng.gen_range(3usize..12),
            outbound_tsvs: rng.gen_range(3usize..12),
            primary_inputs: 4,
            primary_outputs: 4,
            seed: rng.gen_range(0u64..10_000),
        })
        .collect()
}

/// Everything the caches could corrupt, rendered to one string: per-phase
/// graph statistics (nodes, edges, overlaps), the exact wrapper plan the
/// cliques produced, the reuse counters, and the stuck-at coverage of the
/// wrapped die.
fn fingerprint(r: &FlowResult) -> String {
    let access = prebond3d::dft::prebond_access(&r.testable);
    let atpg = run_stuck_at(&r.testable.netlist, &access, &AtpgConfig::fast());
    format!(
        "phases={:?}\nplan={:?}\nreused={} additional={} coverage={:.9} patterns={}",
        r.phases,
        r.plan,
        r.reused_scan_ffs,
        r.additional_wrapper_cells,
        atpg.test_coverage(),
        atpg.pattern_count(),
    )
}

#[test]
fn cached_and_reference_flows_are_byte_identical() {
    let lib = Library::nangate45_like();
    for (case, spec) in random_specs().iter().enumerate() {
        let netlist = itc99::generate_die(spec);
        let placement = place(&netlist, &PlaceConfig::default(), 1);
        for scenario in [Scenario::Area, Scenario::Tight] {
            let config = FlowConfig {
                method: Method::Ours,
                scenario,
                ordering: None,
                allow_overlap: Some(true),
            };
            let run = || {
                let r = run_flow(&netlist, &placement, &lib, &config).expect("flow runs");
                fingerprint(&r)
            };

            let cached = run();
            let reference = RunCtx::scope(&RunCtx::default().with_reference(true), run);

            assert_eq!(
                cached, reference,
                "case {case} ({scenario:?}): cached flow diverged from the \
                 PREBOND3D_NO_CACHE reference"
            );
        }
    }

    // The env-var spelling, parsed at the binary edge, must select the
    // same reference path as the explicit ctx.
    let spec = &random_specs()[0];
    let netlist = itc99::generate_die(spec);
    let placement = place(&netlist, &PlaceConfig::default(), 1);
    let config = FlowConfig {
        method: Method::Ours,
        scenario: Scenario::Area,
        ordering: None,
        allow_overlap: Some(true),
    };
    let run = || {
        let r = run_flow(&netlist, &placement, &lib, &config).expect("flow runs");
        fingerprint(&r)
    };
    let forced = RunCtx::scope(&RunCtx::default().with_reference(true), run);
    std::env::set_var("PREBOND3D_NO_CACHE", "1");
    let via_env = RunCtx::scope(&RunCtx::from_env().0, run);
    std::env::remove_var("PREBOND3D_NO_CACHE");
    assert_eq!(forced, via_env, "env-var and forced no-cache paths differ");

    // Wide-lane sweep (DESIGN.md §16): the lane width is a batching
    // device, never an algorithm change — at widths 1, 4 and 8 the flow +
    // ATPG fingerprint must equal the no-cache reference computed above
    // (`PREBOND3D_NO_CACHE=1` forces the single-lane oracle).
    let mut widths = Vec::new();
    for width in [1usize, 4, 8] {
        let ctx = RunCtx::default().with_lanes(width);
        widths.push((width, RunCtx::scope(&ctx, run)));
    }
    for (width, got) in &widths {
        assert_eq!(
            &forced, got,
            "lane width {width} diverged from the single-lane reference"
        );
    }

    // And the env-var spelling must select the same path as the ctx.
    std::env::set_var("PREBOND3D_LANES", "4");
    let via_lanes_env = RunCtx::scope(&RunCtx::from_env().0, run);
    std::env::remove_var("PREBOND3D_LANES");
    assert_eq!(
        widths[1].1, via_lanes_env,
        "PREBOND3D_LANES=4 and forced width-4 paths differ"
    );
}
