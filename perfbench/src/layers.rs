//! Per-layer metrics of a traced run.
//!
//! The traced run adds no probe to the program: it times the public calls
//! it makes itself and reads the spans and counters the program already
//! records, through `obs::capture` (or, for serve jobs, the same capture
//! shipped back in `phase`/`done` frames). Every workload reports every
//! name below; a layer the workload does not exercise reads 0.

use std::collections::BTreeMap;

use prebond3d_obs as obs;
use prebond3d_obs::hist::Hist;
use prebond3d_obs::Snapshot;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const NAMES: [(&str, &str); 46] = [
    ("netlist.generate_ms", "ms"),
    ("place.place_ms", "ms"),
    ("core.graph_build_ms", "ms"),
    ("core.clique_partition_ms", "ms"),
    ("core.timing_model_ms", "ms"),
    ("flow.self_ms", "ms"),
    ("flow.child_cover_pct", "%"),
    ("graph.cone_word_ops", "count"),
    ("clique.candidate_rescores", "count"),
    ("core.graph_edges", "count"),
    ("core.overlap_edges", "count"),
    ("sta.analyze_ms", "ms"),
    ("dft.insert_ms", "ms"),
    ("atpg.stuck_at_ms", "ms"),
    ("atpg.transition_ms", "ms"),
    ("atpg.compact_ms", "ms"),
    ("atpg.gate_evals", "count"),
    ("atpg.faults_pruned", "count"),
    ("atpg.random_batches", "count"),
    ("atpg.stuck_at_coverage_pct", "%"),
    ("atpg.transition_coverage_pct", "%"),
    ("atpg.test_patterns", "count"),
    ("podem.generate_calls", "count"),
    ("podem.calls", "count"),
    ("podem.tests", "count"),
    ("podem.untestable", "count"),
    ("podem.aborted", "count"),
    ("podem.test_ms", "ms"),
    ("podem.untestable_ms", "ms"),
    ("podem.aborted_ms", "ms"),
    ("podem.call_us_p50", "us"),
    ("podem.call_us_p99", "us"),
    ("podem.yield", "ratio"),
    ("podem.bucket_cover_pct", "%"),
    ("probe.cache_hits", "count"),
    ("probe.cache_misses", "count"),
    ("probe.latency_ms_p50", "ms"),
    ("dataflow.boundary_check_ms", "ms"),
    ("serve.cold_job_s", "s"),
    ("serve.server_ms_p50", "ms"),
    ("serve.server_ms_p99", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.journal_bytes", "bytes"),
    ("serve.shed", "count"),
    ("trace.overhead_s", "s"),
];

/// The per-layer values a traced run filled in.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set one metric; `name` must be one of [`NAMES`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            NAMES.iter().any(|&(n, _)| n == name),
            "unknown layer metric `{name}`"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric of [`NAMES`], 0 where the workload left it unset.
    pub fn to_metrics(&self) -> Vec<(&'static str, prebond3d_obs::json::Value)> {
        NAMES
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name);
                (
                    name,
                    prebond3d_obs::json::Value::obj([
                        ("value", value.into()),
                        ("unit", unit.into()),
                    ]),
                )
            })
            .collect()
    }
}

/// Run `f` with recording on and fold everything it records into
/// `trace`: probes on this thread through `obs::capture`, probes on pool
/// workers (which have no capture of their own) through the global
/// registry.
pub fn traced<T>(trace: &mut Trace, f: impl FnOnce() -> T) -> T {
    let _recording = obs::record();
    obs::reset();
    let (out, snap) = obs::capture(f);
    trace.add_snapshot(&snap);
    trace.add_snapshot(&obs::snapshot());
    obs::reset();
    out
}

/// Spans and counters gathered over a traced run.
#[derive(Debug, Default)]
pub struct Trace {
    /// Span path → total milliseconds.
    spans: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
    probe_latency_ns: Hist,
}

impl Trace {
    /// Fold in one `obs` snapshot.
    pub fn add_snapshot(&mut self, snap: &Snapshot) {
        for s in &snap.spans {
            self.add_span(&s.path, s.total_ms());
        }
        for (name, v) in &snap.counters {
            self.add_counter(name, *v);
        }
        if let Some(h) = snap.hist("probe.latency_ns") {
            self.probe_latency_ns.merge(h);
        }
    }

    pub fn add_span(&mut self, path: &str, ms: f64) {
        *self.spans.entry(path.to_string()).or_insert(0.0) += ms;
    }

    pub fn add_counter(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Milliseconds in spans named `name`, counting a span nested in a
    /// same-named parent once (the flow's `dft_insert` step wraps DFT's
    /// own `dft_insert` span).
    pub fn ms_named(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(path, _)| {
                let mut parts = path.rsplit('/');
                parts.next() == Some(name) && parts.next() != Some(name)
            })
            .map(|(_, ms)| ms)
            .sum()
    }

    /// `(self ms, % covered by direct children)` of the top-level `flow`
    /// span; `(0, 0)` when no flow ran.
    pub fn flow_attribution(&self) -> (f64, f64) {
        let total = self.spans.get("flow").copied().unwrap_or(0.0);
        if total <= 0.0 {
            return (0.0, 0.0);
        }
        let children: f64 = self
            .spans
            .iter()
            .filter(|(path, _)| {
                path.strip_prefix("flow/")
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|(_, ms)| ms)
            .sum();
        (total - children, 100.0 * children / total)
    }

    /// Fill every layer metric that spans and counters answer.
    pub fn fill(&self, layers: &mut Layers) {
        layers.set("netlist.generate_ms", self.ms_named("generate_die"));
        layers.set("place.place_ms", self.ms_named("anneal"));
        layers.set("core.graph_build_ms", self.ms_named("graph_build"));
        layers.set(
            "core.clique_partition_ms",
            self.ms_named("clique_partition"),
        );
        layers.set("core.timing_model_ms", self.ms_named("timing_model"));
        let (self_ms, cover) = self.flow_attribution();
        layers.set("flow.self_ms", self_ms);
        layers.set("flow.child_cover_pct", cover);
        for (metric, counter) in [
            ("graph.cone_word_ops", "graph.cone_word_ops"),
            ("clique.candidate_rescores", "clique.candidate_rescores"),
            ("core.graph_edges", "graph.edges"),
            ("core.overlap_edges", "graph.overlap_edges"),
            ("atpg.gate_evals", "atpg.gate_evals"),
            ("atpg.faults_pruned", "atpg.faults_pruned"),
            ("atpg.random_batches", "atpg.random_batches"),
            ("podem.generate_calls", "podem.generate_calls"),
            ("probe.cache_hits", "probe.cache_hits"),
            ("probe.cache_misses", "probe.cache_misses"),
        ] {
            layers.set(metric, self.counter(counter) as f64);
        }
        layers.set("sta.analyze_ms", self.ms_named("sta_analyze"));
        layers.set("dft.insert_ms", self.ms_named("dft_insert"));
        layers.set("atpg.stuck_at_ms", self.ms_named("atpg_stuck_at"));
        layers.set("atpg.transition_ms", self.ms_named("atpg_transition"));
        layers.set("atpg.compact_ms", self.ms_named("atpg_compact"));
        if !self.probe_latency_ns.is_empty() {
            layers.set(
                "probe.latency_ms_p50",
                self.probe_latency_ns.quantile(0.5) as f64 / 1e6,
            );
        }
    }
}
