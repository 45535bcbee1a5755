//! # prebond3d-netlist
//!
//! Gate-level netlist intermediate representation for the `prebond3d`
//! tool-suite, plus the deterministic synthetic ITC'99-style benchmark
//! generator used by the experiment harness.
//!
//! The representation is a single-output DAG: every [`Gate`] drives exactly
//! one signal, identified by its [`GateId`]. Primary inputs, primary outputs,
//! flip-flops and TSV endpoints are all gates with dedicated
//! [`GateKind`]s, so the whole circuit is one homogeneous graph that the
//! simulator, ATPG engine and static timing analyzer can traverse uniformly.
//!
//! Sequential elements ([`GateKind::Dff`] / [`GateKind::ScanDff`]) act as
//! combinational boundaries: combinational traversal
//! ([`traverse::combinational_order`]) treats a flip-flop's output as a
//! pseudo primary input and its input as a pseudo primary output, which is
//! exactly the full-scan view the paper's flow assumes.
//!
//! # Example
//!
//! ```
//! use prebond3d_netlist::{NetlistBuilder, GateKind};
//!
//! let mut b = NetlistBuilder::new("half_adder");
//! let a = b.input("a");
//! let c = b.input("b");
//! let sum = b.gate(GateKind::Xor, &[a, c], "sum");
//! let carry = b.gate(GateKind::And, &[a, c], "carry");
//! b.output(sum, "sum_po");
//! b.output(carry, "carry_po");
//! let netlist = b.finish().expect("netlist is well formed");
//! assert_eq!(netlist.stats().combinational_gates, 2);
//! ```

pub mod bitset;
pub mod builder;
pub mod cone;
pub mod csr;
pub mod edit;
pub mod error;
pub mod format;
pub mod gate;
pub mod itc99;
pub mod netlist;
pub mod stats;
pub mod traverse;
pub mod verilog;

pub use bitset::BitSet;
pub use builder::NetlistBuilder;
pub use cone::{fanin_cone, fanout_cone, ConeSet};
pub use csr::Csr;
pub use error::NetlistError;
pub use gate::{Gate, GateId, GateKind};
pub use netlist::Netlist;
pub use stats::NetlistStats;
