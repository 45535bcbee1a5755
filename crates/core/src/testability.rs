//! Testability pricing of overlapped-cone sharing.
//!
//! Algorithm 1 (lines 21–22) admits an edge between nodes with overlapped
//! fan-in/fan-out cones only when the measured fault-coverage drop stays
//! below `cov_th` and the pattern-count increase below `p_th`. The paper
//! queries a commercial ATPG tool for these numbers; this module provides
//! two interchangeable probes:
//!
//! * [`StructuralProbe`] — a fast estimator from cone-intersection sizes
//!   (the risk is proportional to the logic that sees *correlated* control
//!   values or *aliased* observation). Used by default — graph
//!   construction evaluates thousands of pairs.
//! * [`AtpgProbe`] — the measured answer: wrap the candidate pair shared
//!   vs. dedicated, run the real ATPG engine on the faults in the affected
//!   cones, and diff coverage/pattern counts. Expensive; used by tests and
//!   the calibration ablation to validate the structural estimate.

use std::collections::HashMap;
use std::sync::Mutex;

use prebond3d_atpg::engine::{run_stuck_at, run_stuck_at_on, AtpgConfig};
use prebond3d_atpg::{FaultList, TestAccess};
use prebond3d_dft::{
    prebond_access, testable, TestableDie, WrapAssignment, WrapPlan, WrapperSource,
};
use prebond3d_netlist::{cone::ConeSet, BitSet, GateId, GateKind, Netlist};
use prebond3d_obs as obs;
use prebond3d_resilience::{fnv1a_more, RunCtx};

/// Predicted/measured impact of letting two nodes share a wrapper cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestabilityCost {
    /// Fault-coverage loss as a fraction (0.004 = 0.4 %).
    pub coverage_loss: f64,
    /// Additional test patterns needed.
    pub extra_patterns: usize,
}

impl TestabilityCost {
    /// Zero cost (disjoint cones).
    pub const FREE: TestabilityCost = TestabilityCost {
        coverage_loss: 0.0,
        extra_patterns: 0,
    };

    /// `true` when within the paper's thresholds.
    pub fn within(&self, cov_th: f64, p_th: usize) -> bool {
        self.coverage_loss < cov_th && self.extra_patterns < p_th
    }
}

/// A source of sharing-cost estimates.
///
/// `Sync` is a supertrait because graph construction shares one probe
/// across the pool's row-scan workers; probes are pure pricing functions
/// over shared read-only state, so this costs implementations nothing.
pub trait TestabilityProbe: Sync {
    /// Price the sharing of one wrapper cell by nodes `a` and `b` (each a
    /// scan flip-flop or TSV endpoint) whose cones overlap.
    fn sharing_cost(
        &self,
        netlist: &Netlist,
        cones: &ConeSet,
        a: GateId,
        b: GateId,
    ) -> TestabilityCost;
}

/// Cone-intersection estimator.
///
/// *Correlated control*: gates in both fan-out cones receive values driven
/// from one shared cell in test mode and lose input combinations.
/// *Aliased observation*: gates in both fan-in cones can inject identical
/// fault effects into both taps of the shared observation XOR, cancelling.
/// The risk is scored per overlapping gate and normalized by die size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructuralProbe {
    /// Coverage-loss weight per overlapping gate (relative to die size).
    pub loss_per_gate: f64,
    /// Extra patterns per overlapping gate.
    pub patterns_per_gate: f64,
}

impl Default for StructuralProbe {
    /// Calibrated so that only *marginal* cone overlaps (a handful of
    /// shared gates) pass the paper's `cov_th = 0.5 %` / `p_th = 10`
    /// thresholds, which reproduces the scale of the paper's Fig. 7
    /// solution-space growth (~3 %); see the `probe_calibration` test for
    /// the agreement check against the measured [`AtpgProbe`].
    fn default() -> Self {
        StructuralProbe {
            loss_per_gate: 0.6,
            patterns_per_gate: 0.25,
        }
    }
}

impl TestabilityProbe for StructuralProbe {
    fn sharing_cost(
        &self,
        netlist: &Netlist,
        cones: &ConeSet,
        a: GateId,
        b: GateId,
    ) -> TestabilityCost {
        let fanin_overlap = cones.try_fanin_overlap_count(a, b).unwrap_or(0);
        let fanout_overlap = cones.try_fanout_overlap_count(a, b).unwrap_or(0);
        let overlap = (fanin_overlap + fanout_overlap) as f64;
        TestabilityCost {
            coverage_loss: self.loss_per_gate * overlap / netlist.len().max(1) as f64,
            extra_patterns: (self.patterns_per_gate * overlap).round() as usize,
        }
    }
}

/// The measured probe: runs real ATPG with the pair wrapped shared vs.
/// dedicated.
///
/// Only (scan-FF, TSV) and (TSV, TSV) pairs are meaningful; other node
/// pairs return [`TestabilityCost::FREE`].
///
/// Unless the run is in reference mode (`PREBOND3D_NO_CACHE=1`), three
/// hot-path optimizations are active (see DESIGN.md §11):
///
/// * every `(pair, shared)` measurement is memoized under a deterministic
///   cone-signature key (`probe.cache_hits` / `probe.cache_misses`),
/// * the canonical dedicated-wrapper die (identical for every probed pair)
///   is built, collapsed, and access-modeled once per netlist,
/// * each ATPG run is restricted to the faults whose propagation root lies
///   inside the pair's union cone (or in the wrapper logic itself) —
///   faults outside the union cone behave identically in the shared and
///   dedicated configurations, so they cancel out of the reported deltas.
///   Coverage is still normalized by the full collapsed universe.
#[derive(Debug)]
pub struct AtpgProbe {
    /// ATPG effort for each probe run.
    pub config: AtpgConfig,
    /// Memoized `(pair, shared)`-cone-signature → (coverage, patterns).
    cache: Mutex<HashMap<u64, (f64, usize)>>,
    /// Per-netlist canonical dedicated-wrapper context.
    dedicated: Mutex<Option<DedicatedCtx>>,
}

/// The dedicated-wrapper baseline shared by every probed pair of one
/// netlist: the wrapped die, its test access, and its full collapsed fault
/// universe are computed once and reused.
#[derive(Debug)]
struct DedicatedCtx {
    sig: u64,
    die: TestableDie,
    access: TestAccess,
    full: FaultList,
}

impl DedicatedCtx {
    /// Coarse heap estimate: the wrapped netlist dominates (gates, fanout
    /// adjacency, name index), followed by the collapsed fault universe.
    fn approx_bytes(&self) -> usize {
        const PER_GATE: usize = 160;
        self.die.netlist.len() * PER_GATE + self.full.approx_bytes()
    }
}

impl Default for AtpgProbe {
    fn default() -> Self {
        AtpgProbe::with_config(AtpgConfig::fast())
    }
}

/// Signature of a netlist for cache keying.
///
/// Delegates to [`Netlist::signature`], a *content* hash over gate kinds
/// and wiring. The first cut here hashed only name + length, which let a
/// mutated netlist with a colliding module name silently hit stale memo
/// entries — fatal once probes outlive a single batch run (the serve
/// daemon keeps warm probes across requests).
fn netlist_sig(netlist: &Netlist) -> u64 {
    netlist.signature()
}

/// Faults of `full` whose propagation root lies inside `union` or inside
/// the wrapper logic appended past `original_len`.
fn restrict_to_cone(full: &FaultList, union: &BitSet, original_len: usize) -> FaultList {
    FaultList {
        faults: full
            .faults
            .iter()
            .copied()
            .filter(|f| {
                let r = f.site.propagation_root().index();
                r >= original_len || union.contains(r)
            })
            .collect(),
    }
}

impl AtpgProbe {
    /// Probe with explicit ATPG effort and cold caches.
    pub fn with_config(config: AtpgConfig) -> Self {
        AtpgProbe {
            config,
            cache: Mutex::new(HashMap::new()),
            dedicated: Mutex::new(None),
        }
    }

    /// Number of memoized `(pair, shared)` measurements.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().unwrap().len()
    }

    /// Approximate heap footprint of the warm state (memo table plus the
    /// dedicated-baseline context), in bytes. Intentionally coarse — the
    /// serve LRU uses it for byte-budget eviction, where a consistent
    /// estimate matters more than an exact one.
    pub fn approx_bytes(&self) -> usize {
        // One memo entry: u64 key + (f64, usize) value + hash-table slot
        // overhead.
        const MEMO_ENTRY: usize = 48;
        let memo = self.cache.lock().unwrap().len() * MEMO_ENTRY;
        let ded = self
            .dedicated
            .lock()
            .unwrap()
            .as_ref()
            .map_or(0, DedicatedCtx::approx_bytes);
        memo + ded
    }

    /// Wrap plan that covers every TSV dedicated, except the probed nodes,
    /// which share one cell (reusing `ff` when one of them is a scan FF).
    fn plan_for(&self, netlist: &Netlist, a: GateId, b: GateId, shared: bool) -> WrapPlan {
        let mut plan = WrapPlan::default();
        let mut shared_assignment = WrapAssignment {
            source: WrapperSource::Dedicated,
            inbound: vec![],
            outbound: vec![],
        };
        let mut probed: Vec<GateId> = Vec::new();
        for &n in &[a, b] {
            match netlist.gate(n).kind {
                GateKind::ScanDff => {
                    shared_assignment.source = WrapperSource::ReusedScanFf(n);
                }
                GateKind::TsvIn => {
                    probed.push(n);
                    shared_assignment.inbound.push(n);
                }
                GateKind::TsvOut => {
                    probed.push(n);
                    shared_assignment.outbound.push(n);
                }
                _ => {}
            }
        }
        if shared {
            plan.assignments.push(shared_assignment);
        } else {
            for &t in &shared_assignment.inbound {
                plan.assignments.push(WrapAssignment {
                    source: WrapperSource::Dedicated,
                    inbound: vec![t],
                    outbound: vec![],
                });
            }
            for &t in &shared_assignment.outbound {
                plan.assignments.push(WrapAssignment {
                    source: WrapperSource::Dedicated,
                    inbound: vec![],
                    outbound: vec![t],
                });
            }
        }
        // Every other TSV: dedicated.
        for t in netlist.inbound_tsvs() {
            if !probed.contains(&t) {
                plan.assignments.push(WrapAssignment {
                    source: WrapperSource::Dedicated,
                    inbound: vec![t],
                    outbound: vec![],
                });
            }
        }
        for t in netlist.outbound_tsvs() {
            if !probed.contains(&t) {
                plan.assignments.push(WrapAssignment {
                    source: WrapperSource::Dedicated,
                    inbound: vec![],
                    outbound: vec![t],
                });
            }
        }
        plan
    }

    /// Canonical dedicated plan: every TSV wrapped dedicated, in netlist
    /// order. Pair-independent by construction, which is what lets one
    /// dedicated baseline serve every probed pair.
    fn dedicated_plan(netlist: &Netlist) -> WrapPlan {
        let mut plan = WrapPlan::default();
        for t in netlist.inbound_tsvs() {
            plan.assignments.push(WrapAssignment {
                source: WrapperSource::Dedicated,
                inbound: vec![t],
                outbound: vec![],
            });
        }
        for t in netlist.outbound_tsvs() {
            plan.assignments.push(WrapAssignment {
                source: WrapperSource::Dedicated,
                inbound: vec![],
                outbound: vec![t],
            });
        }
        plan
    }

    /// The pre-memoization reference measurement: build the wrapped die and
    /// run ATPG over its full collapsed universe. This is the exact
    /// `PREBOND3D_NO_CACHE=1` semantics.
    fn measure_full(&self, netlist: &Netlist, a: GateId, b: GateId, shared: bool) -> (f64, usize) {
        let plan = self.plan_for(netlist, a, b, shared);
        let die = testable::apply(netlist, &plan).expect("probe plan is valid");
        let access = prebond_access(&die);
        let result = run_stuck_at(&die.netlist, &access, &self.config);
        (result.coverage(), result.pattern_count())
    }

    /// Memoized, cone-restricted measurement. `union` is the union of both
    /// nodes' fan-in and fan-out cones over the original netlist.
    fn measure_cached(
        &self,
        netlist: &Netlist,
        union: &BitSet,
        a: GateId,
        b: GateId,
        shared: bool,
    ) -> (f64, usize) {
        let mut key = fnv1a_more(netlist_sig(netlist), &[shared as u8]);
        if shared {
            // The shared plan wires the wrapper to these exact nodes; the
            // dedicated plan is pair-independent, so its key is not.
            key = fnv1a_more(key, &a.0.to_le_bytes());
            key = fnv1a_more(key, &b.0.to_le_bytes());
        }
        for &w in union.words() {
            key = fnv1a_more(key, &w.to_le_bytes());
        }
        if let Some(&hit) = self.cache.lock().unwrap().get(&key) {
            obs::count("probe.cache_hits", 1);
            // Hit/miss stream as a 0/1 histogram: the summary's p50/p95
            // read directly as "mostly hits" vs "mostly misses", and the
            // sample values are deterministic (exempt from stable-ms
            // zeroing, unlike `_ns` hists).
            obs::hist("probe.cache_stream", 1);
            return hit;
        }
        obs::count("probe.cache_misses", 1);
        obs::hist("probe.cache_stream", 0);
        let measured = if shared {
            let plan = self.plan_for(netlist, a, b, true);
            let die = testable::apply(netlist, &plan).expect("probe plan is valid");
            let access = prebond_access(&die);
            let full = FaultList::collapsed(&die.netlist);
            let restricted = restrict_to_cone(&full, union, netlist.len());
            let r = run_stuck_at_on(&die.netlist, &access, &self.config, &restricted);
            (
                r.detected as f64 / full.len().max(1) as f64,
                r.pattern_count(),
            )
        } else {
            let sig = netlist_sig(netlist);
            let mut ded = self.dedicated.lock().unwrap();
            if ded.as_ref().map(|c| c.sig) != Some(sig) {
                let plan = Self::dedicated_plan(netlist);
                let die = testable::apply(netlist, &plan).expect("dedicated plan is valid");
                let access = prebond_access(&die);
                let full = FaultList::collapsed(&die.netlist);
                *ded = Some(DedicatedCtx {
                    sig,
                    die,
                    access,
                    full,
                });
            }
            let ctx = ded.as_ref().expect("just ensured");
            let restricted = restrict_to_cone(&ctx.full, union, netlist.len());
            let r = run_stuck_at_on(&ctx.die.netlist, &ctx.access, &self.config, &restricted);
            (
                r.detected as f64 / ctx.full.len().max(1) as f64,
                r.pattern_count(),
            )
        };
        self.cache.lock().unwrap().insert(key, measured);
        measured
    }
}

impl TestabilityProbe for AtpgProbe {
    fn sharing_cost(
        &self,
        netlist: &Netlist,
        cones: &ConeSet,
        a: GateId,
        b: GateId,
    ) -> TestabilityCost {
        // One latency sample per pair probed: the count is the number of
        // probe calls (thread-invariant), the values wall-clock.
        let probe_t0 = obs::is_active().then(std::time::Instant::now);
        let cached = RunCtx::current().cache_enabled();
        let union = if cached {
            match (
                cones.fanin(a),
                cones.fanout(a),
                cones.fanin(b),
                cones.fanout(b),
            ) {
                (Some(fia), Some(foa), Some(fib), Some(fob)) => {
                    let mut u = fia.clone();
                    u.union_with(foa);
                    u.union_with(fib);
                    u.union_with(fob);
                    Some(u)
                }
                _ => None, // node not a cone root: no restriction possible
            }
        } else {
            None
        };
        let (cov_shared, pat_shared, cov_sep, pat_sep) = match &union {
            Some(u) => {
                let (cs, ps) = self.measure_cached(netlist, u, a, b, true);
                let (cd, pd) = self.measure_cached(netlist, u, a, b, false);
                (cs, ps, cd, pd)
            }
            None => {
                let (cs, ps) = self.measure_full(netlist, a, b, true);
                let (cd, pd) = self.measure_full(netlist, a, b, false);
                (cs, ps, cd, pd)
            }
        };
        if let Some(t0) = probe_t0 {
            obs::hist("probe.latency_ns", t0.elapsed().as_nanos() as u64);
        }
        TestabilityCost {
            coverage_loss: (cov_sep - cov_shared).max(0.0),
            extra_patterns: pat_shared.saturating_sub(pat_sep),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::itc99;

    fn small_die() -> Netlist {
        let spec = itc99::DieSpec {
            name: "die".into(),
            scan_flip_flops: 10,
            gates: 140,
            inbound_tsvs: 6,
            outbound_tsvs: 6,
            primary_inputs: 4,
            primary_outputs: 3,
            seed: 5,
        };
        itc99::generate_die(&spec)
    }

    #[test]
    fn structural_cost_scales_with_overlap() {
        let die = small_die();
        let probe = StructuralProbe::default();
        let ffs = die.flip_flops();
        let tsvs = die.inbound_tsvs();
        let mut roots = ffs.clone();
        roots.extend(&tsvs);
        let cones = ConeSet::compute(&die, &roots);
        // Disjoint-cone pairs are free; overlapped pairs cost something.
        let mut free = 0;
        let mut costly = 0;
        for &ff in &ffs {
            for &t in &tsvs {
                let c = probe.sharing_cost(&die, &cones, ff, t);
                if cones.cones_overlap(ff, t) {
                    assert!(c.coverage_loss > 0.0 || c.extra_patterns > 0);
                    costly += 1;
                } else {
                    assert_eq!(c, TestabilityCost::FREE);
                    free += 1;
                }
            }
        }
        assert!(costly > 0, "the instance should have overlapped pairs");
        let _ = free;
    }

    #[test]
    fn within_thresholds_logic() {
        let c = TestabilityCost {
            coverage_loss: 0.004,
            extra_patterns: 9,
        };
        assert!(c.within(0.005, 10));
        assert!(!c.within(0.004, 10));
        assert!(!c.within(0.005, 9));
        assert!(TestabilityCost::FREE.within(1e-9, 1));
    }

    #[test]
    fn atpg_probe_measures_pairs() {
        let die = small_die();
        let probe = AtpgProbe::default();
        let roots: Vec<GateId> = die
            .flip_flops()
            .into_iter()
            .chain(die.inbound_tsvs())
            .chain(die.outbound_tsvs())
            .collect();
        let cones = ConeSet::compute(&die, &roots);
        // A scan FF + inbound TSV pair: cost is finite and non-negative.
        let ff = die.flip_flops()[0];
        let t = die.inbound_tsvs()[0];
        let cost = probe.sharing_cost(&die, &cones, ff, t);
        assert!(cost.coverage_loss >= 0.0);
        assert!(
            cost.coverage_loss < 0.5,
            "sharing one pair cannot halve coverage"
        );
    }

    /// The cache-lifetime fix: two netlists with the *same* name and gate
    /// count but different wiring must key distinct memo entries. The old
    /// name+length signature collided here, so the second die's probes
    /// would have returned the first die's measurements.
    #[test]
    fn mutated_netlist_with_colliding_name_misses_cache() {
        let die_a = small_die();
        // Same name, same shape parameters, different seed: structurally
        // different logic behind an identical identity-by-name.
        let spec_b = itc99::DieSpec {
            name: "die".into(),
            scan_flip_flops: 10,
            gates: 140,
            inbound_tsvs: 6,
            outbound_tsvs: 6,
            primary_inputs: 4,
            primary_outputs: 3,
            seed: 6,
        };
        let die_b = itc99::generate_die(&spec_b);
        assert_eq!(die_a.name(), die_b.name());
        assert_eq!(die_a.len(), die_b.len());
        assert_ne!(die_a.signature(), die_b.signature());

        let probe = AtpgProbe::default();
        let cones_a = {
            let mut roots = die_a.flip_flops();
            roots.extend(die_a.inbound_tsvs());
            ConeSet::compute(&die_a, &roots)
        };
        let ff = die_a.flip_flops()[0];
        let t = die_a.inbound_tsvs()[0];
        probe.sharing_cost(&die_a, &cones_a, ff, t);
        let after_a = probe.cache_len();
        assert!(after_a > 0, "first die must populate the memo table");
        // Re-probing the same pair on the same die adds no entries (hit)…
        probe.sharing_cost(&die_a, &cones_a, ff, t);
        assert_eq!(probe.cache_len(), after_a);
        // …but the mutated die must MISS and grow the table, even for the
        // same (ff, tsv) ids and an identical module name.
        let cones_b = {
            let mut roots = die_b.flip_flops();
            roots.extend(die_b.inbound_tsvs());
            ConeSet::compute(&die_b, &roots)
        };
        let ff_b = die_b.flip_flops()[0];
        let t_b = die_b.inbound_tsvs()[0];
        probe.sharing_cost(&die_b, &cones_b, ff_b, t_b);
        assert!(
            probe.cache_len() > after_a,
            "colliding-name netlist must not hit the first die's entries"
        );
        assert!(probe.approx_bytes() > 0);
    }

    /// Calibration check: the structural probe must be *conservative*
    /// relative to the measured probe — whenever it accepts a pair at the
    /// paper's thresholds, real ATPG must agree that the coverage cost is
    /// acceptable. (The converse does not hold: the estimator deliberately
    /// rejects marginal pairs that measurement would allow, standing in
    /// for the paper's much sparser cone-overlap structure.)
    #[test]
    fn probe_calibration() {
        let die = small_die();
        let structural = StructuralProbe::default();
        let atpg = AtpgProbe::default();
        let roots: Vec<GateId> = die
            .flip_flops()
            .into_iter()
            .chain(die.inbound_tsvs())
            .collect();
        let cones = ConeSet::compute(&die, &roots);
        let ffs = die.flip_flops();
        let tsvs = die.inbound_tsvs();
        let mut false_accepts = 0usize;
        let mut accepted = 0usize;
        for &ff in ffs.iter().take(3) {
            for &t in tsvs.iter().take(3) {
                if !cones.cones_overlap(ff, t) {
                    continue;
                }
                let est = structural.sharing_cost(&die, &cones, ff, t);
                if !est.within(0.005, 10) {
                    continue;
                }
                accepted += 1;
                let real = atpg.sharing_cost(&die, &cones, ff, t);
                // Allow measurement noise of one pattern / a hair of
                // coverage beyond the thresholds.
                if !real.within(0.01, 14) {
                    false_accepts += 1;
                }
            }
        }
        assert_eq!(
            false_accepts, 0,
            "structural probe must not accept pairs ATPG rejects ({false_accepts}/{accepted})"
        );
    }
}
