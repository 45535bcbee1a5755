//! The ATPG orchestrator: random phase, deterministic top-up, compaction.
//!
//! Mirrors the classical commercial flow:
//!
//! 1. **Random phase** — 64-pattern blocks of seeded random patterns are
//!    fault-simulated with fault dropping (packed `RunCtx::lanes` blocks
//!    to a physical batch, credited block-by-block so results are
//!    lane-width invariant); only patterns that detect a new fault are
//!    kept. The phase ends when a block's yield drops below a threshold.
//! 2. **Deterministic phase** — PODEM targets every remaining fault;
//!    each generated cube is filled and fault-simulated against all
//!    remaining faults (opportunistic dropping).
//! 3. **Reverse-order compaction** — patterns are re-fault-simulated in
//!    reverse order of generation; patterns that detect nothing new are
//!    discarded. This is the pattern-count lever the paper's Tables IV/V
//!    report.

use prebond3d_obs as obs;
use prebond3d_resilience::{degrade, Deadline, RunCtx};
use prebond3d_rng::StdRng;

use prebond3d_netlist::Netlist;

use crate::access::TestAccess;
use crate::fault::FaultList;
use crate::faultsim::FaultSimulator;
use crate::podem::{Podem, PodemConfig, PodemOutcome};
use crate::scoap::Scoap;
use crate::sim::Pattern;
use crate::transition::{self, TransitionFault};

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtpgConfig {
    /// Maximum random 64-pattern batches.
    pub max_random_batches: usize,
    /// Stop the random phase when a batch detects fewer new faults.
    pub min_random_yield: usize,
    /// PODEM limits.
    pub podem: PodemConfig,
    /// Run reverse-order compaction.
    pub compact: bool,
    /// RNG seed (pattern fill and random phase).
    pub seed: u64,
}

impl AtpgConfig {
    /// Production-ish effort.
    pub fn thorough() -> Self {
        AtpgConfig {
            max_random_batches: 32,
            min_random_yield: 2,
            podem: PodemConfig {
                backtrack_limit: 4000,
                ..PodemConfig::default()
            },
            compact: true,
            seed: 0xA7_9C,
        }
    }

    /// Effort scaled to the netlist size: full effort below 15 k gates,
    /// reduced deterministic effort above (PODEM implication is linear in
    /// netlist size, so large dies pay quadratically for hard faults).
    pub fn scaled_for(netlist_len: usize) -> Self {
        if netlist_len > 15_000 {
            AtpgConfig {
                max_random_batches: 16,
                min_random_yield: 8,
                podem: PodemConfig {
                    backtrack_limit: 64,
                    ..PodemConfig::default()
                },
                compact: true,
                seed: 0xA7_9C,
            }
        } else {
            AtpgConfig::thorough()
        }
    }

    /// Cheap settings for unit tests.
    pub fn fast() -> Self {
        AtpgConfig {
            max_random_batches: 4,
            min_random_yield: 1,
            podem: PodemConfig {
                backtrack_limit: 150,
                ..PodemConfig::default()
            },
            compact: true,
            seed: 0xA7_9C,
        }
    }
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig::thorough()
    }
}

/// The outcome of an ATPG run.
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgResult {
    /// The final (compacted) test set.
    pub patterns: Vec<Pattern>,
    /// Size of the fault universe.
    pub total_faults: usize,
    /// Faults detected by the final test set.
    pub detected: usize,
    /// Faults proven untestable.
    pub untestable: usize,
    /// Faults abandoned at the backtrack limit.
    pub aborted: usize,
}

impl AtpgResult {
    /// Fault coverage: `detected / total` (the paper's metric).
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            return 1.0;
        }
        self.detected as f64 / self.total_faults as f64
    }

    /// Test coverage: detected over *testable* faults.
    pub fn test_coverage(&self) -> f64 {
        let testable = self.total_faults - self.untestable;
        if testable == 0 {
            return 1.0;
        }
        self.detected as f64 / testable as f64
    }

    /// Number of test patterns.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }
}

/// Structural untestability check: the fault cannot be excited (the
/// needed value at its driver is unreachable) or cannot be observed (no
/// path from the propagation root to any observation point). Both SCOAP
/// saturations are sound proofs under the access model.
pub(crate) fn scoap_untestable(
    scoap: &Scoap,
    netlist: &Netlist,
    fault: crate::fault::Fault,
) -> bool {
    use crate::scoap::INF;
    let driver = fault.site.driver(netlist);
    let cc = if fault.stuck.excitation() {
        scoap.cc1[driver.index()]
    } else {
        scoap.cc0[driver.index()]
    };
    if cc >= INF {
        return true;
    }
    let root = fault.site.propagation_root();
    // Observability is defined at the root's *output*; for faults on the
    // pin of a pure sink, fall back to the driver's observability.
    let co = scoap.co[root.index()].min(scoap.co[driver.index()]);
    co >= INF
}

fn random_pattern(rng: &mut StdRng, access: &TestAccess) -> Pattern {
    let mut bits: Vec<bool> = (0..access.width()).map(|_| rng.gen()).collect();
    for &(node, v) in access.pinned() {
        bits[access.rank_of(node).expect("pinned controllable")] = v;
    }
    Pattern { bits }
}

/// Keep only the patterns that first-detect some fault, preserving order.
/// `masks[f]` is the per-pattern detection mask of fault `f` in this batch.
fn credit_patterns(batch: &[Pattern], masks: &[u64], alive: &mut [bool]) -> (Vec<Pattern>, usize) {
    credit_block(batch, masks, 1, 0, alive)
}

/// [`credit_patterns`] over one 64-pattern block of a wide batch: fault
/// `f`'s mask for the block is `masks[f * w + lane]`. Replaying a wide
/// batch's blocks through this in order reproduces the narrow
/// simulate-credit loop decision-for-decision (the per-lane masks are
/// byte-identical to narrow batches — see `faultsim`), which is what keeps
/// `AtpgResult` invariant across lane widths.
fn credit_block(
    block: &[Pattern],
    masks: &[u64],
    w: usize,
    lane: usize,
    alive: &mut [bool],
) -> (Vec<Pattern>, usize) {
    let mut useful = vec![false; block.len()];
    let mut newly = 0usize;
    for (f, a) in alive.iter_mut().enumerate() {
        let mask = masks[f * w + lane];
        if !*a || mask == 0 {
            continue;
        }
        *a = false;
        newly += 1;
        useful[mask.trailing_zeros() as usize] = true;
    }
    obs::count("atpg.faults_dropped", newly as u64);
    let kept = block
        .iter()
        .zip(useful.iter())
        .filter(|(_, &u)| u)
        .map(|(p, _)| p.clone())
        .collect();
    (kept, newly)
}

/// Run stuck-at ATPG over the full collapsed fault universe.
pub fn run_stuck_at(netlist: &Netlist, access: &TestAccess, config: &AtpgConfig) -> AtpgResult {
    let list = FaultList::collapsed(netlist);
    run_stuck_at_on(netlist, access, config, &list)
}

/// Run stuck-at ATPG against an explicit fault list. The testability
/// probes use this to target only the faults inside a candidate pair's
/// logic cones instead of re-sweeping the whole die per probe.
pub fn run_stuck_at_on(
    netlist: &Netlist,
    access: &TestAccess,
    config: &AtpgConfig,
    list: &FaultList,
) -> AtpgResult {
    let _span = obs::span("atpg_stuck_at");
    // Phase budget: one deadline covers the whole ATPG run (random phase,
    // PODEM sweep, compaction); an already-armed PODEM deadline wins.
    let deadline = Deadline::for_phase();
    let mut podem_config = config.podem;
    if !podem_config.deadline.is_armed() {
        podem_config.deadline = deadline;
    }
    let scoap = Scoap::compute(netlist, access);
    let mut alive = vec![true; list.len()];
    let mut untestable = 0usize;
    // --- Static pruning (DESIGN.md §14) ------------------------------------
    // Faults that are both dataflow-undetectable and SCOAP-saturated are
    // retired before any simulation: the unpruned run would classify each
    // of them untestable via the SCOAP pre-screen below without consuming
    // RNG or emitting patterns, so every downstream artifact stays
    // byte-identical while the per-fault cone resimulations disappear.
    // The run's reference mode disables pruning and is the oracle.
    if RunCtx::current().cache_enabled() {
        let analysis = crate::prune::PruneAnalysis::new(netlist, access);
        let mask = crate::prune::prune_mask(&analysis, &scoap, netlist, access, &list.faults);
        let mut pruned = 0u64;
        for (a, m) in alive.iter_mut().zip(&mask) {
            if *m {
                *a = false;
                pruned += 1;
            }
        }
        untestable += pruned as usize;
        obs::count("atpg.faults_pruned", pruned);
    }
    let mut fs = FaultSimulator::new(netlist);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut patterns: Vec<Pattern> = Vec::new();

    // --- Random phase -----------------------------------------------------
    // Up to `lanes` logical 64-pattern blocks are pre-generated and fault-
    // simulated as one wide physical batch; crediting then *replays* the
    // blocks in order against the live-fault set, reproducing the narrow
    // loop's stop decisions (yield threshold, fault-universe exhaustion)
    // exactly. If the phase stops mid-batch the RNG is rewound to the
    // checkpoint and fast-forwarded over only the consumed blocks, so the
    // deterministic phase's fill stream is identical at every lane width.
    // (The phase-budget deadline is polled per physical batch rather than
    // per block; it is wall-clock and thus outside the determinism
    // contract.)
    let lanes = RunCtx::current().lanes();
    let mut blocks_done = 0usize;
    'random: while blocks_done < config.max_random_batches {
        if !alive.iter().any(|&a| a) {
            break;
        }
        if deadline.expired() {
            degrade::record("atpg", "stop_random_phase", "phase budget expired");
            break;
        }
        let blocks = lanes.min(config.max_random_batches - blocks_done);
        let checkpoint = rng.clone();
        let batch: Vec<Pattern> = (0..blocks * 64)
            .map(|_| random_pattern(&mut rng, access))
            .collect();
        let (w, masks) = fs
            .simulate_batch_any_wide(netlist, access, &batch, &list.faults, &alive)
            .expect("random batch sized to lane capacity");
        let mut consumed = 0usize;
        let mut stop = false;
        for b in 0..blocks {
            if b > 0 && !alive.iter().any(|&a| a) {
                stop = true;
                break;
            }
            let block = &batch[b * 64..(b + 1) * 64];
            obs::count("atpg.random_batches", 1);
            let (kept, newly) = credit_block(block, masks, w, b, &mut alive);
            patterns.extend(kept);
            consumed = b + 1;
            blocks_done += 1;
            if newly < config.min_random_yield {
                stop = true;
                break;
            }
        }
        if consumed < blocks {
            // Rewind and re-consume: the stream position must equal what a
            // block-at-a-time run would have left behind.
            rng = checkpoint;
            for _ in 0..consumed * 64 {
                let _ = random_pattern(&mut rng, access);
            }
        }
        if stop {
            break 'random;
        }
    }

    // --- Deterministic phase ----------------------------------------------
    let mut podem = Podem::new(netlist, access, &scoap, podem_config);
    let mut aborted = 0usize;
    let mut pending: Vec<Pattern> = Vec::new();

    let flush = |pending: &mut Vec<Pattern>,
                 patterns: &mut Vec<Pattern>,
                 alive: &mut [bool],
                 fs: &mut FaultSimulator| {
        if pending.is_empty() {
            return;
        }
        let masks = fs
            .simulate_batch_any(netlist, access, pending, &list.faults, alive)
            .expect("pending flush holds at most 64 patterns");
        let (kept, _) = credit_patterns(pending, masks, alive);
        patterns.extend(kept);
        pending.clear();
    };

    for (f, fault) in list.faults.iter().enumerate() {
        if !alive[f] {
            continue;
        }
        if deadline.expired() {
            // Budget gone: every remaining live fault is aborted-with-
            // reason, in one pass, so the sweep still terminates promptly.
            let remaining = alive[f..].iter().filter(|&&a| a).count();
            for a in &mut alive[f..] {
                *a = false;
            }
            aborted += remaining;
            degrade::record(
                "atpg",
                "abort_faults",
                format!("{remaining} faults aborted at phase budget"),
            );
            break;
        }
        // SCOAP pre-screen: saturated controllability of the excitation
        // value or saturated observability of the propagation root is a
        // *structural proof* of untestability — skip the search.
        if scoap_untestable(&scoap, netlist, *fault) {
            alive[f] = false;
            untestable += 1;
            continue;
        }
        match podem.generate(*fault) {
            PodemOutcome::Test(cube) => {
                let mut pattern = Pattern::from_v3(&cube, false);
                // Random-fill don't-cares for opportunistic detection.
                for (rank, bit) in pattern.bits.iter_mut().enumerate() {
                    if cube[rank] == crate::logic::V3::X {
                        *bit = rng.gen();
                    }
                }
                for &(node, v) in access.pinned() {
                    pattern.bits[access.rank_of(node).expect("pinned")] = v;
                }
                pending.push(pattern);
                if pending.len() == 64 {
                    flush(&mut pending, &mut patterns, &mut alive, &mut fs);
                }
            }
            PodemOutcome::Untestable => {
                alive[f] = false;
                untestable += 1;
            }
            PodemOutcome::Aborted => {
                alive[f] = false;
                aborted += 1;
            }
        }
    }
    flush(&mut pending, &mut patterns, &mut alive, &mut fs);

    // --- Compaction --------------------------------------------------------
    if config.compact {
        if deadline.expired() {
            degrade::record(
                "atpg",
                "skip_compaction",
                format!(
                    "{} patterns kept uncompacted at phase budget",
                    patterns.len()
                ),
            );
        } else {
            patterns = reverse_order_compact(netlist, access, list, &mut fs, patterns);
        }
    }

    // Final accounting: simulate the final set against the full universe.
    let detected = count_detected(netlist, access, list, &mut fs, &patterns);
    AtpgResult {
        patterns,
        total_faults: list.len(),
        detected,
        untestable,
        aborted,
    }
}

/// Reverse-order compaction: later patterns (deterministic, targeted) get
/// first credit; earlier patterns that add nothing are dropped.
fn reverse_order_compact(
    netlist: &Netlist,
    access: &TestAccess,
    list: &FaultList,
    fs: &mut FaultSimulator,
    patterns: Vec<Pattern>,
) -> Vec<Pattern> {
    let _span = obs::span("atpg_compact");
    let before = patterns.len();
    let lanes = RunCtx::current().lanes();
    let mut alive = vec![true; list.len()];
    let mut keep: Vec<Pattern> = Vec::new();
    let reversed: Vec<Pattern> = patterns.into_iter().rev().collect();
    // Wide windows, narrow crediting: each physical batch carries up to
    // `lanes` 64-pattern blocks, and the per-block replay below makes the
    // keep/drop decisions in exactly the order the narrow 64-at-a-time
    // loop would (per-lane masks are byte-identical to narrow batches).
    for window in reversed.chunks(lanes * 64) {
        let (w, masks) = fs
            .simulate_batch_any_wide(netlist, access, window, &list.faults, &alive)
            .expect("compaction window sized to lane capacity");
        let mut useful = vec![false; window.len()];
        for b in 0..window.len().div_ceil(64) {
            for (f, a) in alive.iter_mut().enumerate() {
                let mask = masks[f * w + b];
                if *a && mask != 0 {
                    *a = false;
                    useful[b * 64 + mask.trailing_zeros() as usize] = true;
                }
            }
        }
        for (p, &u) in window.iter().zip(useful.iter()) {
            if u {
                keep.push(p.clone());
            }
        }
    }
    keep.reverse();
    obs::count("atpg.compact_kept", keep.len() as u64);
    obs::count("atpg.compact_dropped", (before - keep.len()) as u64);
    keep
}

fn count_detected(
    netlist: &Netlist,
    access: &TestAccess,
    list: &FaultList,
    fs: &mut FaultSimulator,
    patterns: &[Pattern],
) -> usize {
    let lanes = RunCtx::current().lanes();
    let mut alive = vec![true; list.len()];
    for window in patterns.chunks(lanes * 64) {
        let (w, masks) = fs
            .simulate_batch_any_wide(netlist, access, window, &list.faults, &alive)
            .expect("accounting window sized to lane capacity");
        for (f, a) in alive.iter_mut().enumerate() {
            if *a && masks[f * w..(f + 1) * w].iter().any(|&m| m != 0) {
                *a = false;
            }
        }
    }
    alive.iter().filter(|&&a| !a).count()
}

/// Run transition-fault ATPG (two-pattern tests, enhanced-scan style).
pub fn run_transition(netlist: &Netlist, access: &TestAccess, config: &AtpgConfig) -> AtpgResult {
    let _span = obs::span("atpg_transition");
    let deadline = Deadline::for_phase();
    let mut podem_config = config.podem;
    if !podem_config.deadline.is_armed() {
        podem_config.deadline = deadline;
    }
    let faults = transition::transition_universe(netlist);
    let mut alive = vec![true; faults.len()];
    let mut fs = FaultSimulator::new(netlist);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7261_6e73);
    let mut patterns: Vec<Pattern> = Vec::new();

    // --- Random phase: a random sequence; consecutive pairs test edges.
    for _ in 0..config.max_random_batches {
        if !alive.iter().any(|&a| a) {
            break;
        }
        if deadline.expired() {
            degrade::record("atpg", "stop_random_phase", "phase budget expired");
            break;
        }
        let batch: Vec<Pattern> = (0..64).map(|_| random_pattern(&mut rng, access)).collect();
        obs::count("atpg.random_batches", 1);
        // Evaluate with one-pattern overlap into the existing tail.
        let mut seq: Vec<Pattern> = Vec::with_capacity(65);
        if let Some(last) = patterns.last() {
            seq.push(last.clone());
        }
        seq.extend(batch.iter().cloned());
        let det = transition::simulate_sequence(&mut fs, netlist, access, &seq, &faults, &alive);
        let newly = det.iter().filter(|&&d| d).count();
        for (f, d) in det.into_iter().enumerate() {
            if d {
                alive[f] = false;
            }
        }
        patterns.extend(batch);
        if newly < config.min_random_yield {
            break;
        }
    }

    // --- Deterministic: v1 justifies the initial value, v2 is the
    // stuck-at launch test.
    let scoap = Scoap::compute(netlist, access);
    let mut podem = Podem::new(netlist, access, &scoap, podem_config);
    let mut untestable = 0usize;
    let mut aborted = 0usize;

    for (f, fault) in faults.iter().enumerate() {
        if !alive[f] {
            continue;
        }
        if deadline.expired() {
            let remaining = alive[f..].iter().filter(|&&a| a).count();
            for a in &mut alive[f..] {
                *a = false;
            }
            aborted += remaining;
            degrade::record(
                "atpg",
                "abort_faults",
                format!("{remaining} transition faults aborted at phase budget"),
            );
            break;
        }
        let launch = fault.launch_fault();
        if scoap_untestable(&scoap, netlist, launch) {
            alive[f] = false;
            untestable += 1;
            continue;
        }
        let v2 = match podem.generate(launch) {
            PodemOutcome::Test(cube) => cube,
            PodemOutcome::Untestable => {
                alive[f] = false;
                untestable += 1;
                continue;
            }
            PodemOutcome::Aborted => {
                alive[f] = false;
                aborted += 1;
                continue;
            }
        };
        let site_driver = fault.site.driver(netlist);
        let v1 = match podem.justify(site_driver, fault.initial_value()) {
            PodemOutcome::Test(cube) => cube,
            PodemOutcome::Untestable => {
                alive[f] = false;
                untestable += 1;
                continue;
            }
            PodemOutcome::Aborted => {
                alive[f] = false;
                aborted += 1;
                continue;
            }
        };
        let fill = |cube: &[crate::logic::V3], rng: &mut StdRng| {
            let mut p = Pattern::from_v3(cube, false);
            for (rank, bit) in p.bits.iter_mut().enumerate() {
                if cube[rank] == crate::logic::V3::X {
                    *bit = rng.gen();
                }
            }
            for &(node, v) in access.pinned() {
                p.bits[access.rank_of(node).expect("pinned")] = v;
            }
            p
        };
        let p1 = fill(&v1, &mut rng);
        let p2 = fill(&v2, &mut rng);
        let pair = vec![p1, p2];
        let det = transition::simulate_sequence(&mut fs, netlist, access, &pair, &faults, &alive);
        for (g, d) in det.into_iter().enumerate() {
            if d {
                alive[g] = false;
            }
        }
        patterns.extend(pair);
    }

    // Final accounting over the whole sequence.
    let mut final_alive = vec![true; faults.len()];
    let det = transition::simulate_sequence(
        &mut fs,
        netlist,
        access,
        &patterns,
        &faults,
        &final_alive.clone(),
    );
    for (f, d) in det.into_iter().enumerate() {
        if d {
            final_alive[f] = false;
        }
    }
    let detected = final_alive.iter().filter(|&&a| !a).count();

    AtpgResult {
        patterns,
        total_faults: faults.len(),
        detected,
        untestable,
        aborted,
    }
}

/// Convenience wrapper: which of `faults` does this pattern set detect?
/// Used by the incremental testability probes in the WCM flow.
pub fn detected_by(
    netlist: &Netlist,
    access: &TestAccess,
    faults: &[crate::fault::Fault],
    patterns: &[Pattern],
) -> Vec<bool> {
    let lanes = RunCtx::current().lanes();
    let mut fs = FaultSimulator::new(netlist);
    let mut alive = vec![true; faults.len()];
    for window in patterns.chunks(lanes * 64) {
        let (w, masks) = fs
            .simulate_batch_any_wide(netlist, access, window, faults, &alive)
            .expect("probe window sized to lane capacity");
        for (f, a) in alive.iter_mut().enumerate() {
            if *a && masks[f * w..(f + 1) * w].iter().any(|&m| m != 0) {
                *a = false;
            }
        }
    }
    alive.into_iter().map(|a| !a).collect()
}

/// Detected transition faults for a pattern *sequence*.
pub fn transition_detected_by(
    netlist: &Netlist,
    access: &TestAccess,
    faults: &[TransitionFault],
    patterns: &[Pattern],
) -> Vec<bool> {
    let mut fs = FaultSimulator::new(netlist);
    let alive = vec![true; faults.len()];
    transition::simulate_sequence(&mut fs, netlist, access, patterns, faults, &alive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::itc99;

    #[test]
    fn stuck_at_atpg_reaches_high_coverage_on_clean_die() {
        let die = itc99::generate_flat("d", 200, 14, 6, 6, 8);
        let access = TestAccess::full_scan(&die);
        let r = run_stuck_at(&die, &access, &AtpgConfig::fast());
        // The fast config aborts hard faults early; judge on test coverage
        // (detected over not-proven-untestable), the tools' usual metric.
        assert!(
            r.test_coverage() > 0.84,
            "clean full-scan die should be highly testable, got {:.3} ({} aborted)",
            r.test_coverage(),
            r.aborted
        );
        assert!(r.pattern_count() > 0);
        assert!(r.pattern_count() < 200, "compaction keeps the set small");
        // Final accounting is consistent.
        assert!(r.detected <= r.total_faults);
    }

    #[test]
    fn floating_tsvs_reduce_coverage() {
        let spec = itc99::DieSpec {
            name: "tsv_die".into(),
            scan_flip_flops: 14,
            gates: 200,
            inbound_tsvs: 12,
            outbound_tsvs: 12,
            primary_inputs: 4,
            primary_outputs: 4,
            seed: 8,
        };
        let die = itc99::generate_die(&spec);
        let access = TestAccess::full_scan(&die);
        let r = run_stuck_at(&die, &access, &AtpgConfig::fast());
        let clean = itc99::generate_flat("clean", 200, 14, 4, 4, 8);
        let r_clean = run_stuck_at(&clean, &TestAccess::full_scan(&clean), &AtpgConfig::fast());
        assert!(
            r.coverage() < r_clean.coverage(),
            "floating TSVs must hurt coverage: {:.3} !< {:.3}",
            r.coverage(),
            r_clean.coverage()
        );
        assert!(r.untestable > 0, "blocked faults are proven untestable");
    }

    #[test]
    fn transition_atpg_runs_and_detects() {
        let die = itc99::generate_flat("d", 150, 10, 5, 5, 4);
        let access = TestAccess::full_scan(&die);
        let r = run_transition(&die, &access, &AtpgConfig::fast());
        assert!(
            r.test_coverage() > 0.75,
            "transition coverage too low: {:.3}",
            r.test_coverage()
        );
        // Transition sets are larger than stuck-at sets (pairs).
        assert!(r.pattern_count() > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let die = itc99::generate_flat("d", 120, 8, 5, 5, 10);
        let access = TestAccess::full_scan(&die);
        let a = run_stuck_at(&die, &access, &AtpgConfig::fast());
        let b = run_stuck_at(&die, &access, &AtpgConfig::fast());
        assert_eq!(a, b);
    }

    /// The pruning byte-identity contract: a die riddled with floating
    /// TSVs (many statically-untestable faults) must produce the exact
    /// same `AtpgResult` with pruning on and off — same patterns, same
    /// coverage, same untestable split.
    #[test]
    fn pruned_run_is_byte_identical_to_reference() {
        let spec = itc99::DieSpec {
            name: "prune_die".into(),
            scan_flip_flops: 12,
            gates: 180,
            inbound_tsvs: 10,
            outbound_tsvs: 10,
            primary_inputs: 4,
            primary_outputs: 4,
            seed: 17,
        };
        let die = itc99::generate_die(&spec);
        let access = TestAccess::full_scan(&die);
        let reference = RunCtx::scope(&RunCtx::default().with_reference(true), || {
            run_stuck_at(&die, &access, &AtpgConfig::fast())
        });
        let pruned = run_stuck_at(&die, &access, &AtpgConfig::fast());
        assert_eq!(reference, pruned);
        assert!(
            pruned.untestable > 0,
            "the floating-TSV die must have untestable faults"
        );
    }

    /// `atpg.lane_fill_pct` describes one run, not the process so far: a
    /// run on another die in between must not move a repeat run's gauge.
    #[test]
    fn lane_fill_gauge_is_per_run() {
        let fill = |die: &Netlist| {
            let access = TestAccess::full_scan(die);
            let run = || run_stuck_at(die, &access, &AtpgConfig::fast());
            obs::capture_recorded(run).1.gauge("atpg.lane_fill_pct")
        };
        let a = itc99::generate_flat("a", 200, 14, 6, 6, 8);
        let b = itc99::generate_flat("b", 60, 4, 3, 3, 2);
        let first = fill(&a);
        assert!(first.is_some());
        assert_ne!(first, fill(&b), "the other die fills lanes differently");
        assert_eq!(first, fill(&a), "back-to-back runs on one die agree");
    }

    #[test]
    fn coverage_metrics_relate_sanely() {
        let die = itc99::generate_flat("d", 120, 8, 5, 5, 12);
        let access = TestAccess::full_scan(&die);
        let r = run_stuck_at(&die, &access, &AtpgConfig::fast());
        assert!(r.test_coverage() >= r.coverage());
        assert!(r.test_coverage() <= 1.0 + 1e-12);
    }
}
