//! Deterministic synthetic ITC'99-style benchmark generation.
//!
//! The paper evaluates on six ITC'99 circuits (b11, b12, b18, b20, b21,
//! b22), each synthesized with a 45 nm library and partitioned into four
//! dies by the 3D-Craft flow; its Table II publishes the per-die statistics
//! (#scan flip-flops, #gates, #inbound TSVs, #outbound TSVs).
//!
//! We cannot run Design Compiler or 3D-Craft, so this module substitutes a
//! **deterministic synthetic generator**: for every die it produces a random
//! gate-level netlist whose population counts match Table II exactly and
//! whose connectivity mimics a synthesized circuit (locality-biased fan-in
//! selection, realistic gate-kind mix, every signal observable). The WCM
//! algorithms consume only graph structure — cones, distances, counts — so
//! matching the published statistics reproduces the problem instances the
//! paper solved, up to the (unavailable) exact logic functions.
//!
//! All generation is seeded; the same [`DieSpec`] always yields the same
//! netlist.

use prebond3d_obs as obs;
use prebond3d_rng::StdRng;

use crate::gate::{Gate, GateId, GateKind};
use crate::netlist::Netlist;

/// Parameters of one synthetic die netlist (one row of Table II).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DieSpec {
    /// Die netlist name, e.g. `b12_die1`.
    pub name: String,
    /// Number of scan flip-flops.
    pub scan_flip_flops: usize,
    /// Number of combinational gates.
    pub gates: usize,
    /// Number of inbound TSV endpoints.
    pub inbound_tsvs: usize,
    /// Number of outbound TSV endpoints.
    pub outbound_tsvs: usize,
    /// Number of primary inputs (pads on this die).
    pub primary_inputs: usize,
    /// Number of primary outputs (pads on this die).
    pub primary_outputs: usize,
    /// RNG seed; generation is fully deterministic given the spec.
    pub seed: u64,
}

/// A full benchmark circuit: a name and its four die specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitSpec {
    /// Benchmark name (`b11` … `b22`).
    pub name: &'static str,
    /// Per-die parameters, index = die number.
    pub dies: Vec<DieSpec>,
}

/// The six benchmark circuits evaluated in the paper, in paper order.
pub const CIRCUIT_NAMES: [&str; 6] = ["b11", "b12", "b18", "b20", "b21", "b22"];

/// Table II rows: `(scan_ffs, gates, inbound, outbound)` for 4 dies each,
/// plus the real ITC'99 circuit-level PI/PO counts which we spread across
/// dies (Table II does not list per-die pads).
type Table2Row = (
    &'static str,
    [(usize, usize, usize, usize); 4],
    usize,
    usize,
);

const TABLE2: [Table2Row; 6] = [
    (
        "b11",
        [
            (14, 120, 14, 16),
            (15, 234, 27, 43),
            (3, 229, 38, 38),
            (9, 148, 23, 11),
        ],
        7,
        6,
    ),
    (
        "b12",
        [
            (7, 304, 23, 27),
            (18, 397, 41, 41),
            (45, 344, 23, 42),
            (51, 317, 25, 5),
        ],
        5,
        6,
    ),
    (
        "b18",
        [
            (515, 22934, 772, 733),
            (1033, 26698, 1561, 1875),
            (833, 23575, 1732, 1797),
            (641, 20825, 810, 771),
        ],
        36,
        23,
    ),
    (
        "b20",
        [
            (180, 6937, 251, 363),
            (49, 8603, 720, 780),
            (118, 8101, 740, 778),
            (83, 7325, 408, 235),
        ],
        32,
        22,
    ),
    (
        "b21",
        [
            (196, 6200, 264, 328),
            (113, 9172, 836, 775),
            (69, 9093, 837, 895),
            (52, 6402, 368, 343),
        ],
        32,
        22,
    ),
    (
        "b22",
        [
            (225, 9427, 499, 483),
            (201, 12726, 1006, 1065),
            (181, 13075, 1031, 1064),
            (6, 11358, 511, 481),
        ],
        32,
        22,
    ),
];

/// The [`CircuitSpec`] for a named benchmark, or `None` for an unknown name.
pub fn circuit(name: &str) -> Option<CircuitSpec> {
    let (cname, rows, pis, pos) = TABLE2.iter().find(|(n, ..)| *n == name)?;
    let dies = rows
        .iter()
        .enumerate()
        .map(|(die, &(ffs, gates, inbound, outbound))| DieSpec {
            name: format!("{cname}_die{die}"),
            scan_flip_flops: ffs,
            gates,
            inbound_tsvs: inbound,
            outbound_tsvs: outbound,
            primary_inputs: split_pads(*pis, die),
            primary_outputs: split_pads(*pos, die),
            seed: seed_for(cname, die),
        })
        .collect();
    Some(CircuitSpec { name: cname, dies })
}

/// All six benchmark circuits in paper order.
pub fn all_circuits() -> Vec<CircuitSpec> {
    CIRCUIT_NAMES
        .iter()
        .map(|n| circuit(n).expect("known name"))
        .collect()
}

/// Spread `total` pads over 4 dies: die `i` gets the i-th quarter, with the
/// remainder going to the earliest dies. Every die keeps at least one pad.
fn split_pads(total: usize, die: usize) -> usize {
    let base = total / 4;
    let extra = usize::from(die < total % 4);
    (base + extra).max(1)
}

/// A stable, human-reproducible seed per (circuit, die): FNV-1a over the
/// name so seeds do not collide across benchmarks.
fn seed_for(circuit: &str, die: usize) -> u64 {
    prebond3d_resilience::fnv1a_more(
        prebond3d_resilience::fnv1a(circuit.as_bytes()),
        &[b'/', die as u8],
    )
}

/// Arity class of the next gate: 1-input (9 %), 2-input (86 %), mux (5 %) —
/// approximating a 45 nm synthesis mix.
fn random_arity(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..100u32) {
        0..=8 => 1,
        9..=94 => 2,
        _ => 3,
    }
}

/// Output signal probability of `kind` given input 1-probabilities,
/// under an independence assumption.
fn output_probability(kind: GateKind, p: &[f64]) -> f64 {
    match kind {
        GateKind::Buf => p[0],
        GateKind::Not => 1.0 - p[0],
        GateKind::And => p[0] * p[1],
        GateKind::Nand => 1.0 - p[0] * p[1],
        GateKind::Or => 1.0 - (1.0 - p[0]) * (1.0 - p[1]),
        GateKind::Nor => (1.0 - p[0]) * (1.0 - p[1]),
        GateKind::Xor => p[0] * (1.0 - p[1]) + p[1] * (1.0 - p[0]),
        GateKind::Xnor => 1.0 - (p[0] * (1.0 - p[1]) + p[1] * (1.0 - p[0])),
        GateKind::Mux2 => p[0] * (1.0 - p[2]) + p[1] * p[2],
        _ => 0.5,
    }
}

/// Pick a gate kind for the given fan-in probabilities, preferring kinds
/// whose output probability stays away from the 0/1 rails. Probability
/// drift toward constants is the dominant source of *redundant* (untestable)
/// faults in naive random netlists; real synthesized logic is
/// probability-balanced, and this keeps the synthetic instances in the same
/// testability regime.
fn random_kind_balanced(rng: &mut StdRng, p: &[f64]) -> GateKind {
    let candidates: &[GateKind] = match p.len() {
        1 => &[GateKind::Not, GateKind::Not, GateKind::Buf],
        2 => &[
            GateKind::Nand,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Nor,
            GateKind::And,
            GateKind::And,
            GateKind::Or,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Xnor,
        ],
        _ => &[GateKind::Mux2],
    };
    // Weighted draw with rejection while the output would be too biased.
    for _ in 0..6 {
        let kind = candidates[rng.gen_range(0..candidates.len())];
        let q = output_probability(kind, p);
        if (0.15..=0.85).contains(&q) {
            return kind;
        }
    }
    // Fall back to the candidate closest to probability 0.5.
    *candidates
        .iter()
        .min_by(|a, b| {
            let da = (output_probability(**a, p) - 0.5).abs();
            let db = (output_probability(**b, p) - 0.5).abs();
            da.partial_cmp(&db).expect("finite probabilities")
        })
        .expect("non-empty candidates")
}

/// Generate the synthetic netlist for one die.
///
/// Population guarantee: the produced netlist has **exactly**
/// `spec.scan_flip_flops` scan FFs, `spec.gates` combinational gates,
/// `spec.inbound_tsvs`/`spec.outbound_tsvs` TSV endpoints and
/// `spec.primary_inputs`/`spec.primary_outputs` pads.
///
/// Structural properties:
///
/// * acyclic combinational logic (construction orders gate inputs backward),
/// * locality-biased fan-in so nearby logic shares cones while distant logic
///   does not — the property the paper's overlapped-cone analysis probes,
/// * every source (PI, inbound TSV, scan-FF output) drives at least one
///   gate, and every generated signal reaches at least one sink (FF D pin,
///   outbound TSV or primary output), so the ATPG engine can observe the
///   whole die.
///
/// # Panics
///
/// Panics if `spec.gates` is too small to absorb the die's sources
/// (needs roughly `sources/2` gates); all Table II rows satisfy this.
pub fn generate_die(spec: &DieSpec) -> Netlist {
    let _span = obs::span("generate_die");
    // Chaos site: stands in for a corrupt benchmark file — the unit that
    // hits it must fail in isolation, not take down the sweep.
    prebond3d_resilience::chaos::maybe_panic("netlist.load");
    let mut rng = StdRng::seed_from_u64(spec.seed);

    let n_src = spec.primary_inputs + spec.inbound_tsvs + spec.scan_flip_flops;
    assert!(
        spec.gates >= n_src / 2 + 4,
        "die `{}`: {} gates cannot absorb {} sources",
        spec.name,
        spec.gates,
        n_src
    );

    let mut gates: Vec<Gate> =
        Vec::with_capacity(n_src + spec.gates + spec.outbound_tsvs + spec.primary_outputs);

    // --- Sources ------------------------------------------------------
    for i in 0..spec.primary_inputs {
        gates.push(Gate::new(format!("pi{i}"), GateKind::Input, vec![]));
    }
    for i in 0..spec.inbound_tsvs {
        gates.push(Gate::new(format!("tsv_in{i}"), GateKind::TsvIn, vec![]));
    }
    // Scan FFs: D pins are wired after logic generation; placeholder id 0
    // is always valid (there is at least one primary input).
    let ff_base = gates.len();
    for i in 0..spec.scan_flip_flops {
        gates.push(Gate::new(
            format!("sff{i}"),
            GateKind::ScanDff,
            vec![GateId(0)],
        ));
    }
    let source_count = gates.len();

    // --- Combinational logic -------------------------------------------
    // `signals` = ids usable as fan-in. `consumed[i]` tracks whether signal
    // i already drives something, to guarantee full controllability use and
    // observability.
    let mut consumed = vec![false; source_count];
    // Sources not yet driving anything, drained first.
    let mut pending: Vec<u32> = (0..source_count as u32).collect();
    // Shuffle so the pending queue does not impose source-kind ordering.
    for i in (1..pending.len()).rev() {
        let j = rng.gen_range(0..=i);
        pending.swap(i, j);
    }

    let pick_input = |rng: &mut StdRng, pending: &mut Vec<u32>, current_len: usize| -> GateId {
        // Prefer a source that nothing consumes yet; otherwise pick with a
        // strong locality bias: 90 % from a recent window, 10 % uniform.
        // Synthesized circuits are modular — cones of unrelated registers
        // and TSVs rarely overlap — and the window keeps the synthetic
        // cones similarly narrow, which the overlapped-cone experiments
        // (Table V, Fig. 7) depend on.
        let idx = if let Some(id) = pending.pop() {
            id as usize
        } else if rng.gen_bool(0.9) && current_len > 8 {
            let window = (current_len / 6).max(16).min(current_len);
            rng.gen_range(current_len - window..current_len)
        } else {
            rng.gen_range(0..current_len)
        };
        GateId(idx as u32)
    };

    // Number of sink pins available to absorb dangling signals later.
    let n_sinks = spec.scan_flip_flops + spec.outbound_tsvs + spec.primary_outputs;
    // Dangling = signals nothing consumes yet. Tracked so the tail of the
    // gate budget can be spent folding dangling signals together
    // ("reduction mode"), guaranteeing every cone reaches a sink — without
    // this, unobservable logic makes large fault populations untestable.
    let mut dangling_count = source_count;
    // Lazy stacks of dangling candidates: `newest` is pushed as signals are
    // created (popped from the top), `oldest` advances a forward cursor.
    // Both skip already-consumed entries lazily, keeping picks amortized
    // O(1) even for the 27k-gate b18 dies.
    let mut newest_stack: Vec<u32> = (0..source_count as u32).collect();
    let mut old_cursor: usize = 0;
    // Estimated 1-probability per signal (independence assumption); keeps
    // the kind selection away from constant-drift.
    let mut prob: Vec<f64> = vec![0.5; source_count];

    for i in 0..spec.gates {
        let remaining = spec.gates - i;
        let reduction_mode = dangling_count > n_sinks && dangling_count - n_sinks + 1 >= remaining;
        let len = gates.len();

        let pop_newest = |consumed: &[bool], stack: &mut Vec<u32>| -> Option<GateId> {
            while let Some(&top) = stack.last() {
                if consumed[top as usize] {
                    stack.pop();
                } else {
                    stack.pop();
                    return Some(GateId(top));
                }
            }
            None
        };
        let pop_oldest = |consumed: &[bool], cursor: &mut usize| -> Option<GateId> {
            while *cursor < consumed.len() {
                if consumed[*cursor] {
                    *cursor += 1;
                } else {
                    let id = GateId(*cursor as u32);
                    *cursor += 1;
                    return Some(id);
                }
            }
            None
        };

        let (kind, inputs) = if reduction_mode && dangling_count >= 2 {
            // Fold two dangling signals: net dangling change is −1. XOR is
            // heavily preferred because parity collection never blocks
            // observability (a synthesized circuit's test compactor has the
            // same property); AND/OR folding of correlated deep signals
            // would manufacture redundant logic that no real netlist has.
            // Fold one old and one recent dangling signal to avoid chains
            // of tightly correlated neighbours.
            let a = pop_oldest(&consumed, &mut old_cursor).expect("≥2 dangling");
            consumed[a.index()] = true; // hide from the newest pick
            let b = pop_newest(&consumed, &mut newest_stack).expect("≥2 dangling");
            consumed[a.index()] = false; // restore; accounting happens below
            let kind = if rng.gen_bool(0.7) {
                GateKind::Xor
            } else {
                random_kind_balanced(&mut rng, &[prob[a.index()], prob[b.index()]])
            };
            (kind, vec![a, b])
        } else {
            let arity = random_arity(&mut rng);
            let mut inputs: Vec<GateId> = (0..arity)
                .map(|_| pick_input(&mut rng, &mut pending, len))
                .collect();
            // Identical fan-ins (e.g. xor(x, x) ≡ 0) manufacture redundant
            // faults; re-draw once to keep them rare like in real netlists.
            if inputs.len() >= 2 && inputs[0] == inputs[1] {
                inputs[1] = pick_input(&mut rng, &mut pending, len);
            }
            // Once the dangling population has reached the sink budget it
            // must never grow, or the final deficit can exceed the sinks:
            // force the first fan-in to consume a dangling signal.
            if dangling_count >= n_sinks && inputs.iter().all(|&x| consumed[x.index()]) {
                if let Some(d) = pop_newest(&consumed, &mut newest_stack) {
                    inputs[0] = d;
                }
            }
            let ps: Vec<f64> = inputs.iter().map(|&x| prob[x.index()]).collect();
            (random_kind_balanced(&mut rng, &ps), inputs)
        };
        for &input in &inputs {
            if !consumed[input.index()] {
                consumed[input.index()] = true;
                dangling_count -= 1;
            }
        }
        let ps: Vec<f64> = inputs.iter().map(|&x| prob[x.index()]).collect();
        prob.push(output_probability(kind, &ps));
        gates.push(Gate::new(format!("g{i}"), kind, inputs));
        newest_stack.push(gates.len() as u32 - 1);
        consumed.push(false);
        dangling_count += 1;
    }

    // --- Sinks -----------------------------------------------------------
    // Dangling logic signals (nothing consumes them yet) are routed to sink
    // pins first so everything stays observable. Sink pin order: FF D pins,
    // outbound TSVs, primary outputs.
    let mut dangling: Vec<u32> = consumed
        .iter()
        .enumerate()
        .filter(|&(i, &c)| !c && gates[i].kind != GateKind::Output)
        .map(|(i, _)| i as u32)
        .collect();
    // Deepest (most recently generated) first: they have the longest cones
    // and make the most interesting TSV drivers.
    dangling.reverse();

    let total_logic = gates.len();
    // Reduction mode guarantees `dangling.len() <= n_sinks`; every dangling
    // signal gets its own sink pin, surplus pins sample random logic.
    debug_assert!(
        dangling.len() <= n_sinks,
        "die `{}`: {} dangling > {} sinks",
        spec.name,
        dangling.len(),
        n_sinks
    );
    let mut sink_feed: Vec<GateId> = Vec::with_capacity(n_sinks);
    for _ in 0..n_sinks {
        let id = match dangling.pop() {
            Some(id) => GateId(id),
            // Fewer dangling than sinks: sample any logic signal.
            None => GateId(rng.gen_range(source_count as u32..total_logic as u32)),
        };
        sink_feed.push(id);
    }
    // Shuffle feeds so FF/TSV/PO roles are not correlated with depth.
    for i in (1..sink_feed.len()).rev() {
        let j = rng.gen_range(0..=i);
        sink_feed.swap(i, j);
    }

    let mut feed = sink_feed.into_iter();
    for i in 0..spec.scan_flip_flops {
        let d = feed.next().expect("sized above");
        gates[ff_base + i].inputs = vec![d];
    }
    for i in 0..spec.outbound_tsvs {
        let d = feed.next().expect("sized above");
        gates.push(Gate::new(format!("tsv_out{i}"), GateKind::TsvOut, vec![d]));
    }
    for i in 0..spec.primary_outputs {
        let d = feed.next().expect("sized above");
        gates.push(Gate::new(format!("po{i}"), GateKind::Output, vec![d]));
    }

    Netlist::from_gates(spec.name.clone(), gates).expect("generator emits valid netlists")
}

/// Generate all four dies of a circuit.
pub fn generate_circuit(spec: &CircuitSpec) -> Vec<Netlist> {
    spec.dies.iter().map(generate_die).collect()
}

/// Generate a *flat* (unpartitioned) synthetic circuit with the given
/// budgets. Used to exercise the partitioning substrate end-to-end, the way
/// the authors ran 3D-Craft on the flat ITC'99 netlists.
pub fn generate_flat(
    name: &str,
    gates: usize,
    flip_flops: usize,
    primary_inputs: usize,
    primary_outputs: usize,
    seed: u64,
) -> Netlist {
    let spec = DieSpec {
        name: name.to_string(),
        scan_flip_flops: flip_flops,
        gates,
        inbound_tsvs: 0,
        outbound_tsvs: 0,
        primary_inputs,
        primary_outputs,
        seed,
    };
    generate_die(&spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> DieSpec {
        DieSpec {
            name: "test_die".into(),
            scan_flip_flops: 12,
            gates: 150,
            inbound_tsvs: 9,
            outbound_tsvs: 11,
            primary_inputs: 4,
            primary_outputs: 3,
            seed: 42,
        }
    }

    #[test]
    fn generation_matches_spec_exactly() {
        let spec = small_spec();
        let n = generate_die(&spec);
        let s = n.stats();
        assert_eq!(s.scan_flip_flops, spec.scan_flip_flops);
        assert_eq!(s.combinational_gates, spec.gates);
        assert_eq!(s.inbound_tsvs, spec.inbound_tsvs);
        assert_eq!(s.outbound_tsvs, spec.outbound_tsvs);
        assert_eq!(s.primary_inputs, spec.primary_inputs);
        assert_eq!(s.primary_outputs, spec.primary_outputs);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = small_spec();
        let a = generate_die(&spec);
        let b = generate_die(&spec);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec2 = small_spec();
        spec2.seed = 43;
        assert_ne!(generate_die(&small_spec()), generate_die(&spec2));
    }

    #[test]
    fn every_source_is_consumed() {
        let n = generate_die(&small_spec());
        for (id, gate) in n.iter() {
            if gate.kind.is_source() {
                assert!(
                    !n.fanout(id).is_empty(),
                    "source {} has no fanout",
                    gate.name
                );
            }
        }
    }

    #[test]
    fn table2_rows_are_complete() {
        let circuits = all_circuits();
        assert_eq!(circuits.len(), 6);
        for c in &circuits {
            assert_eq!(c.dies.len(), 4, "{} has 4 dies", c.name);
        }
        // Spot-check published numbers.
        let b12 = circuit("b12").unwrap();
        assert_eq!(b12.dies[1].scan_flip_flops, 18);
        assert_eq!(b12.dies[1].inbound_tsvs, 41);
        assert_eq!(b12.dies[1].outbound_tsvs, 41);
        let b18 = circuit("b18").unwrap();
        assert_eq!(b18.dies[0].gates, 22934);
        assert!(circuit("b99").is_none());
    }

    #[test]
    fn small_benchmark_dies_generate() {
        for cname in ["b11", "b12"] {
            let c = circuit(cname).unwrap();
            for die in &c.dies {
                let n = generate_die(die);
                let s = n.stats();
                assert_eq!(s.scan_flip_flops, die.scan_flip_flops, "{}", die.name);
                assert_eq!(s.combinational_gates, die.gates, "{}", die.name);
                assert_eq!(s.inbound_tsvs, die.inbound_tsvs, "{}", die.name);
                assert_eq!(s.outbound_tsvs, die.outbound_tsvs, "{}", die.name);
            }
        }
    }

    #[test]
    fn flat_circuit_has_no_tsvs() {
        let n = generate_flat("flat", 300, 20, 8, 8, 7);
        let s = n.stats();
        assert_eq!(s.tsvs(), 0);
        assert_eq!(s.combinational_gates, 300);
    }

    /// Both hashes are `prebond3d_resilience::fnv1a`; a change here moves
    /// every generated die and every warm-cache key.
    #[test]
    fn seeds_and_signatures_are_pinned() {
        assert_eq!(seed_for("b11", 0), 0x5da3_9fef_29ee_0bb8);
        let die0 = generate_die(&circuit("b11").unwrap().dies[0]);
        assert_eq!(die0.signature(), 0xbe21_b873_91a6_575a);
    }
}
