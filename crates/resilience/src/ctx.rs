//! The run context: one run's settings and side channels as a value
//! (DESIGN.md §10) — reference (no-cache) mode, lane width, phase budget,
//! chaos state and degradation sink. [`RunCtx::scope`] installs it on a
//! thread and [`RunCtx::current`] reads it, like `obs::capture`; the pool
//! copies the caller's ctx into its workers. With none installed, the
//! empty-environment defaults apply and degradations reach only the trace
//! hook. [`RunCtx::from_env`] is the one reader of the run switches.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use crate::chaos::{Chaos, ChaosEvent};
use crate::degrade::Degradation;

/// One run's settings and side channels. Clones *share* the chaos state
/// and the degradation sink (so pool workers report into their caller's
/// run); [`RunCtx::with_new_sink`] starts a separate record.
#[derive(Debug, Clone)]
pub struct RunCtx {
    pub(crate) reference: bool,
    pub(crate) lanes: usize,
    pub(crate) budget_ms: Option<u64>,
    pub(crate) chaos: Option<Arc<Chaos>>,
    pub(crate) sink: Option<Arc<Mutex<Vec<Degradation>>>>,
}

/// Report-level switches parsed alongside the ctx by
/// [`RunCtx::from_env`]. They belong to the binary edge, not to a run:
/// the bench driver hands them to the report collector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportMode {
    /// Resume from the experiment's checkpoint (`PREBOND3D_RESUME=1`).
    pub resume: bool,
    /// Zero wall-clock fields so reports are byte-comparable
    /// (`PREBOND3D_STABLE_MS=1`).
    pub stable_ms: bool,
}

/// What [`RunCtx::current`] answers on a thread with no ctx installed.
static DETACHED: RunCtx = RunCtx {
    reference: false,
    lanes: 8,
    budget_ms: None,
    chaos: None,
    sink: None,
};

thread_local! {
    static CURRENT: RefCell<Option<RunCtx>> = const { RefCell::new(None) };
}

impl Default for RunCtx {
    /// The empty-environment settings with a fresh degradation sink.
    fn default() -> Self {
        RunCtx {
            sink: Some(Arc::default()),
            ..DETACHED.clone()
        }
    }
}

impl RunCtx {
    /// Parse the six run switches; call once, at a binary's edge:
    ///
    /// * `PREBOND3D_NO_CACHE=1` — reference mode: hot-path caches off and
    ///   the single-lane fault simulator (the equivalence oracle);
    /// * `PREBOND3D_LANES` — 1, 4 or 8 lanes; anything else means 8;
    /// * `PREBOND3D_BUDGET_MS=<ms>` — per-phase wall-clock budget;
    /// * `PREBOND3D_CHAOS=<seed>:<rate>` — seeded fault injection;
    /// * `PREBOND3D_RESUME=1`, `PREBOND3D_STABLE_MS=1` — see [`ReportMode`].
    pub fn from_env() -> (RunCtx, ReportMode) {
        let flag = |v: Result<String, std::env::VarError>| {
            matches!(v.as_deref(), Ok("1" | "on" | "true" | "yes"))
        };
        let mut ctx = RunCtx::default()
            .with_reference(flag(std::env::var("PREBOND3D_NO_CACHE")))
            .with_lanes(
                std::env::var("PREBOND3D_LANES")
                    .ok()
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(8),
            )
            .with_budget_ms(
                std::env::var("PREBOND3D_BUDGET_MS")
                    .ok()
                    .and_then(|v| v.trim().parse().ok()),
            );
        if let Ok(v) = std::env::var("PREBOND3D_CHAOS") {
            if let Some((seed, rate)) = crate::chaos::parse_config(&v) {
                ctx = ctx.with_chaos(seed, rate);
            }
        }
        let mode = ReportMode {
            resume: flag(std::env::var("PREBOND3D_RESUME")),
            stable_ms: flag(std::env::var("PREBOND3D_STABLE_MS")),
        };
        (ctx, mode)
    }

    /// Switch the reference (no-cache) mode on or off.
    #[must_use]
    pub fn with_reference(mut self, on: bool) -> Self {
        self.reference = on;
        self
    }

    /// Set the lane width; widths other than 1 and 4 normalize to 8
    /// (width never changes results, so the widest is a safe default).
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = match lanes {
            1 | 4 => lanes,
            _ => 8,
        };
        self
    }

    /// Set (or with `None` clear) the per-phase budget.
    #[must_use]
    pub fn with_budget_ms(mut self, ms: Option<u64>) -> Self {
        self.budget_ms = ms;
        self
    }

    /// Arm seeded fault injection with fresh site counters and an empty
    /// event log; `rate` is the per-call injection probability in [0, 1].
    #[must_use]
    pub fn with_chaos(mut self, seed: u64, rate: f64) -> Self {
        self.chaos = Some(Arc::new(Chaos::new(seed, rate)));
        self
    }

    /// The same settings (and chaos state) with a fresh, empty
    /// degradation sink — a serve job's own record.
    #[must_use]
    pub fn with_new_sink(mut self) -> Self {
        self.sink = Some(Arc::default());
        self
    }

    /// Run `f` with `ctx` installed on this thread (restored on exit,
    /// panics included; nestable).
    pub fn scope<R>(ctx: &RunCtx, f: impl FnOnce() -> R) -> R {
        let _installed = ctx.enter();
        f()
    }

    /// Install this ctx on the current thread until the guard drops (the
    /// guard form of [`RunCtx::scope`], for a thread's whole body).
    pub fn enter(&self) -> CtxGuard {
        CtxGuard(CURRENT.with(|c| c.borrow_mut().replace(self.clone())))
    }

    /// The ctx installed on this thread, or the detached defaults.
    pub fn current() -> RunCtx {
        with_current(RunCtx::clone)
    }

    /// Are the hot-path caches on (i.e. not the reference mode)?
    pub fn cache_enabled(&self) -> bool {
        !self.reference
    }

    /// 64-pattern lanes per fault-simulation batch: 1, 4 or 8. The
    /// reference mode is defined as the single-lane walk.
    pub fn lanes(&self) -> usize {
        if self.reference {
            1
        } else {
            self.lanes
        }
    }

    /// The per-phase budget, if any.
    pub fn budget_ms(&self) -> Option<u64> {
        self.budget_ms
    }

    /// The armed chaos `(seed, rate)`, if any.
    pub fn chaos(&self) -> Option<(u64, f64)> {
        self.chaos.as_ref().map(|c| c.config())
    }

    /// Take the chaos events recorded so far.
    pub fn drain_chaos_events(&self) -> Vec<ChaosEvent> {
        self.chaos.as_ref().map(|c| c.drain()).unwrap_or_default()
    }

    /// Take the degradations recorded so far.
    pub fn drain_degradations(&self) -> Vec<Degradation> {
        self.sink
            .as_ref()
            .map(|s| std::mem::take(&mut *s.lock().unwrap()))
            .unwrap_or_default()
    }
}

/// Restores the previously installed ctx on drop (see [`RunCtx::enter`]).
#[must_use = "dropping the guard immediately uninstalls the ctx"]
pub struct CtxGuard(Option<RunCtx>);

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.0.take());
    }
}

/// Borrow the current ctx without cloning it (the chaos and degradation
/// sites are called from hot loops).
pub(crate) fn with_current<R>(f: impl FnOnce(&RunCtx) -> R) -> R {
    CURRENT.with(|c| f(c.borrow().as_ref().unwrap_or(&DETACHED)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_empty_environment_and_lanes_normalize() {
        let ctx = RunCtx::current();
        assert!(ctx.cache_enabled() && ctx.chaos().is_none());
        assert_eq!((ctx.lanes(), ctx.budget_ms()), (8, None));
        assert_eq!(RunCtx::default().with_lanes(4).lanes(), 4);
        assert_eq!(RunCtx::default().with_lanes(3).lanes(), 8);
        let reference = RunCtx::default().with_lanes(4).with_reference(true);
        assert!(!reference.cache_enabled());
        assert_eq!(reference.lanes(), 1, "the reference mode is single-lane");
    }

    #[test]
    fn scopes_nest_restore_and_stay_on_their_thread() {
        let budget = |ms| RunCtx::default().with_budget_ms(Some(ms));
        RunCtx::scope(&budget(500), || {
            let inner = RunCtx::scope(&budget(7), || RunCtx::current().budget_ms());
            assert_eq!(inner, Some(7));
            assert_eq!(RunCtx::current().budget_ms(), Some(500), "restored");
            std::thread::scope(|s| {
                s.spawn(|| assert_eq!(RunCtx::current().budget_ms(), None));
            });
        });
        assert_eq!(RunCtx::current().budget_ms(), None);
    }
}
