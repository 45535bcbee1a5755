//! The netlist container: a validated single-output gate DAG.

use std::collections::HashMap;

use crate::error::NetlistError;
use crate::gate::{Gate, GateId, GateKind};
use crate::stats::NetlistStats;

/// A validated gate-level netlist.
///
/// Construct through [`crate::NetlistBuilder`] or the text format parser
/// ([`crate::format::parse`]); both enforce the structural invariants:
///
/// * every gate's arity matches its [`GateKind`],
/// * all input references resolve and point at driving kinds,
/// * instance names are unique,
/// * the combinational subgraph is acyclic.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    /// Fan-out adjacency: for each gate, the gates that consume its output.
    fanouts: Vec<Vec<GateId>>,
    name_index: HashMap<String, GateId>,
}

impl Netlist {
    /// Assemble and validate a netlist from parts. Used by the builder and
    /// parser; library users normally go through [`crate::NetlistBuilder`].
    ///
    /// # Errors
    ///
    /// Returns the first violated structural invariant.
    pub fn from_gates(name: impl Into<String>, gates: Vec<Gate>) -> Result<Self, NetlistError> {
        let name = name.into();
        let mut name_index = HashMap::with_capacity(gates.len());
        for (i, gate) in gates.iter().enumerate() {
            if gate.inputs.len() != gate.kind.arity() {
                return Err(NetlistError::ArityMismatch {
                    gate: gate.name.clone(),
                    kind: gate.kind,
                    got: gate.inputs.len(),
                });
            }
            if name_index
                .insert(gate.name.clone(), GateId(i as u32))
                .is_some()
            {
                return Err(NetlistError::DuplicateName(gate.name.clone()));
            }
        }
        let mut fanouts: Vec<Vec<GateId>> = vec![Vec::new(); gates.len()];
        for (i, gate) in gates.iter().enumerate() {
            for &input in &gate.inputs {
                let driver = gates
                    .get(input.index())
                    .ok_or(NetlistError::DanglingInput {
                        gate: gate.name.clone(),
                        input,
                    })?;
                if matches!(driver.kind, GateKind::Output | GateKind::TsvOut) {
                    return Err(NetlistError::NonDrivingInput {
                        gate: gate.name.clone(),
                        driver: driver.name.clone(),
                    });
                }
                fanouts[input.index()].push(GateId(i as u32));
            }
        }
        let netlist = Netlist {
            name,
            gates,
            fanouts,
            name_index,
        };
        netlist.check_acyclic()?;
        Ok(netlist)
    }

    /// Kahn's algorithm over combinational edges only; sequential outputs
    /// are sources so flip-flop "loops" are legal.
    fn check_acyclic(&self) -> Result<(), NetlistError> {
        // Indegree of a combinational gate = #inputs. Sequential gates have
        // edges INTO them, but we cut edges OUT of them by treating their
        // outputs as sources, so flip-flop feedback is legal.
        let mut indeg = vec![0usize; self.gates.len()];
        for (i, gate) in self.gates.iter().enumerate() {
            if gate.kind.is_sequential() || gate.kind.arity() == 0 {
                indeg[i] = 0;
            } else {
                indeg[i] = gate.inputs.len();
            }
        }
        let mut queue: Vec<usize> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut seen = 0usize;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &fo in &self.fanouts[i] {
                let j = fo.index();
                if self.gates[j].kind.is_sequential() {
                    continue;
                }
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if seen != self.gates.len() {
            let culprit = indeg
                .iter()
                .position(|&d| d > 0)
                .map(|i| self.gates[i].name.clone())
                .unwrap_or_default();
            return Err(NetlistError::CombinationalCycle(culprit));
        }
        Ok(())
    }

    /// The netlist (module) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates (nodes) including ports and TSV endpoints.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` when the netlist has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Access a gate by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Access a gate by id, `None` if out of range.
    pub fn get(&self, id: GateId) -> Option<&Gate> {
        self.gates.get(id.index())
    }

    /// Look up a gate id by instance name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.name_index.get(name).copied()
    }

    /// Iterate over `(GateId, &Gate)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// All gate ids in id order.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len() as u32).map(GateId)
    }

    /// Gates consuming `id`'s output.
    #[inline]
    pub fn fanout(&self, id: GateId) -> &[GateId] {
        &self.fanouts[id.index()]
    }

    /// Ids of all gates of the given kind, in id order.
    pub fn of_kind(&self, kind: GateKind) -> Vec<GateId> {
        self.iter()
            .filter(|(_, g)| g.kind == kind)
            .map(|(id, _)| id)
            .collect()
    }

    /// Primary inputs.
    pub fn inputs(&self) -> Vec<GateId> {
        self.of_kind(GateKind::Input)
    }

    /// Primary outputs.
    pub fn outputs(&self) -> Vec<GateId> {
        self.of_kind(GateKind::Output)
    }

    /// Flip-flops (plain and scan).
    pub fn flip_flops(&self) -> Vec<GateId> {
        self.iter()
            .filter(|(_, g)| g.kind.is_sequential())
            .map(|(id, _)| id)
            .collect()
    }

    /// Inbound TSV endpoints (die inputs fed through TSVs).
    pub fn inbound_tsvs(&self) -> Vec<GateId> {
        self.of_kind(GateKind::TsvIn)
    }

    /// Outbound TSV endpoints (die outputs feeding TSVs).
    pub fn outbound_tsvs(&self) -> Vec<GateId> {
        self.of_kind(GateKind::TsvOut)
    }

    /// Aggregate statistics used by reports and Table II.
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::of(self)
    }

    /// Content signature: FNV-1a over the name plus every gate's kind and
    /// input wiring, in id order.
    ///
    /// Two netlists share a signature only when they are structurally
    /// identical (same name, same gates in the same order, same wiring) —
    /// gate *instance names* are deliberately excluded, so a pure rename
    /// of internal nodes keeps the signature (and any caches keyed on it)
    /// valid. This is the invalidation key for everything that memoizes
    /// work per netlist (`AtpgProbe`, the serve warm cache): a mutated
    /// netlist that keeps a colliding module name must still miss.
    pub fn signature(&self) -> u64 {
        use prebond3d_resilience::{fnv1a, fnv1a_more};
        let mut h = fnv1a_more(
            fnv1a(self.name.as_bytes()),
            &(self.gates.len() as u64).to_le_bytes(),
        );
        for gate in &self.gates {
            h = fnv1a_more(h, &[gate.kind as u8]);
            for &input in &gate.inputs {
                h = fnv1a_more(h, &input.0.to_le_bytes());
            }
        }
        h
    }

    /// Consume the netlist back into its gate list (e.g. to edit and
    /// re-validate through [`Self::from_gates`]).
    pub fn into_gates(self) -> Vec<Gate> {
        self.gates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let g = b.gate(GateKind::And, &[a, c], "g");
        b.output(g, "o");
        b.finish().unwrap()
    }

    #[test]
    fn lookup_and_fanout() {
        let n = tiny();
        let a = n.find("a").unwrap();
        let g = n.find("g").unwrap();
        assert_eq!(n.fanout(a), &[g]);
        assert_eq!(n.gate(g).inputs.len(), 2);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        assert!(n.find("nope").is_none());
    }

    #[test]
    fn signature_tracks_content_not_just_name_and_len() {
        let n = tiny();
        assert_eq!(n.signature(), tiny().signature(), "deterministic");
        // Same module name, same gate count, different wiring: the b input
        // feeds an OR instead of an AND. Name+len keying would collide.
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let g = b.gate(GateKind::Or, &[a, c], "g");
        b.output(g, "o");
        let mutated = b.finish().unwrap();
        assert_eq!(n.len(), mutated.len());
        assert_eq!(n.name(), mutated.name());
        assert_ne!(n.signature(), mutated.signature());
        // Renaming internal instances keeps the signature: the structure
        // (kinds + wiring) is unchanged.
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("x");
        let c = b.input("y");
        let g = b.gate(GateKind::And, &[a, c], "z");
        b.output(g, "w");
        let renamed = b.finish().unwrap();
        assert_eq!(n.signature(), renamed.signature());
    }

    #[test]
    fn rejects_duplicate_names() {
        let gates = vec![
            Gate::new("x", GateKind::Input, vec![]),
            Gate::new("x", GateKind::Input, vec![]),
        ];
        assert!(matches!(
            Netlist::from_gates("d", gates),
            Err(NetlistError::DuplicateName(_))
        ));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let gates = vec![
            Gate::new("a", GateKind::Input, vec![]),
            Gate::new("g", GateKind::And, vec![GateId(0)]),
        ];
        assert!(matches!(
            Netlist::from_gates("d", gates),
            Err(NetlistError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn rejects_dangling_input() {
        let gates = vec![Gate::new("g", GateKind::Not, vec![GateId(9)])];
        assert!(matches!(
            Netlist::from_gates("d", gates),
            Err(NetlistError::DanglingInput { .. })
        ));
    }

    #[test]
    fn rejects_combinational_cycle() {
        // g0 = not(g1), g1 = not(g0): a combinational loop.
        let gates = vec![
            Gate::new("g0", GateKind::Not, vec![GateId(1)]),
            Gate::new("g1", GateKind::Not, vec![GateId(0)]),
        ];
        assert!(matches!(
            Netlist::from_gates("d", gates),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn allows_sequential_loop() {
        // q = dff(d), d = not(q): legal feedback through a flip-flop.
        let gates = vec![
            Gate::new("q", GateKind::Dff, vec![GateId(1)]),
            Gate::new("d", GateKind::Not, vec![GateId(0)]),
        ];
        assert!(Netlist::from_gates("d", gates).is_ok());
    }

    #[test]
    fn rejects_output_as_driver() {
        let gates = vec![
            Gate::new("a", GateKind::Input, vec![]),
            Gate::new("o", GateKind::Output, vec![GateId(0)]),
            Gate::new("g", GateKind::Not, vec![GateId(1)]),
        ];
        assert!(matches!(
            Netlist::from_gates("d", gates),
            Err(NetlistError::NonDrivingInput { .. })
        ));
    }
}
