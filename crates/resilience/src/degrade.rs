//! Structured graceful-degradation records.
//!
//! When a phase cuts itself short — PODEM aborting faults at its budget,
//! annealing returning best-so-far, exact clique search stopping at its
//! incumbent, a report write falling back to stderr — it records a
//! structured entry into the current [`crate::RunCtx`]'s sink. The bench
//! collector drains that sink into `results/run_<exp>.json` under
//! `degradations`, and a serve job drains its own sink into its `done`
//! frame, so a degraded run names exactly what it skipped instead of
//! silently producing weaker numbers — and only what *it* skipped.

use crate::ctx::with_current;

/// One degradation: `phase` cut itself short by taking `action`, with a
/// human-readable `detail` (counts, file names, budget figures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The phase that degraded (`atpg`, `anneal`, `clique.exact`, …).
    pub phase: &'static str,
    /// What it did instead of completing (`abort_faults`, `best_so_far`, …).
    pub action: &'static str,
    /// Free-form context: counts, budget, file names.
    pub detail: String,
}

/// Record one degradation into the current run's sink (and onto the
/// trace timeline). With no ctx installed only the trace event remains.
pub fn record(phase: &'static str, action: &'static str, detail: impl Into<String>) {
    let detail = detail.into();
    crate::hooks::emit("degrade", phase, &format!("{action}: {detail}"));
    with_current(|ctx| {
        if let Some(sink) = &ctx.sink {
            sink.lock().unwrap().push(Degradation {
                phase,
                action,
                detail,
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunCtx;

    #[test]
    fn records_land_in_the_current_runs_sink_only() {
        let run = RunCtx::default();
        let job = run.clone().with_new_sink();
        record("detached", "dropped", "no ctx installed: trace hook only");
        RunCtx::scope(&run.clone(), || record("atpg", "abort_faults", "12 faults"));
        RunCtx::scope(&job, || record("anneal", "best_so_far", "4096/16384 moves"));
        let drained = run.drain_degradations();
        assert_eq!(drained.len(), 1, "clones share a sink: {drained:?}");
        assert_eq!(
            (drained[0].phase, drained[0].action),
            ("atpg", "abort_faults")
        );
        assert_eq!(job.drain_degradations()[0].phase, "anneal");
        assert!(
            run.drain_degradations().is_empty(),
            "drain empties the sink"
        );
    }
}
