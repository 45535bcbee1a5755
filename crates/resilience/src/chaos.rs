//! Deterministic, seeded fault injection.
//!
//! `PREBOND3D_CHAOS=<seed>:<rate>` arms injection: every instrumented
//! site keeps a per-site call counter, and call `k` at site `s` injects a
//! fault iff `fnv1a(seed ‖ s ‖ k)` maps below `rate` — reproducible for a
//! given seed regardless of what else the process does at *other* sites
//! (per-site counters make sites independent). Sites:
//!
//! | site            | injection                              |
//! |-----------------|----------------------------------------|
//! | `netlist.load`  | panic while generating a die           |
//! | `liberty.load`  | panic while building the cell library  |
//! | `pool.worker`   | panic inside a pool worker closure     |
//! | `timing.elmore` | NaN/∞ perturbation of an Elmore delay  |
//! | `io.write`      | `io::Error` on a report/checkpoint write |
//! | `obs.sink`      | `io::Error` on a trace-sink write      |
//!
//! The configuration, the counters and the event log belong to one run:
//! they live in its [`crate::RunCtx`] (armed by `PREBOND3D_CHAOS` at the binary
//! edge, or [`crate::RunCtx::with_chaos`]), and the bench collector drains the
//! log into the run report, so the chaos suite can assert each injected
//! fault was recovered, degraded, or reported. With no chaos in the
//! current ctx every site is a no-op.

use std::sync::Mutex;

use crate::ctx::with_current;
use crate::{fnv1a, fnv1a_more};

/// What an instrumented site does when its roll comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// `panic!` with a `chaos[<site>]` payload.
    Panic,
    /// An injected `std::io::Error`.
    Io,
    /// A NaN/∞ perturbation of a numeric value.
    NonFinite,
}

impl ChaosKind {
    /// Stable label used in the run report.
    pub fn label(self) -> &'static str {
        match self {
            ChaosKind::Panic => "panic",
            ChaosKind::Io => "io",
            ChaosKind::NonFinite => "non_finite",
        }
    }
}

/// One recorded injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Instrumented site (`pool.worker`, `io.write`, …).
    pub site: &'static str,
    /// Fault class.
    pub kind: ChaosKind,
    /// The site-local call index that fired (1-based).
    pub seq: u64,
}

/// A run's armed chaos state: the `(seed, rate)` plus the per-site call
/// counters and the event log, shared by every thread of the run through
/// its [`crate::RunCtx`].
#[derive(Debug)]
pub struct Chaos {
    seed: u64,
    /// Injection probability in [0, 1].
    rate: f64,
    /// `site → calls so far` (site names are interned `&'static str`s).
    counters: Mutex<Vec<(&'static str, u64)>>,
    events: Mutex<Vec<ChaosEvent>>,
}

impl Chaos {
    pub(crate) fn new(seed: u64, rate: f64) -> Self {
        Chaos {
            seed,
            rate,
            counters: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn config(&self) -> (u64, f64) {
        (self.seed, self.rate)
    }

    pub(crate) fn drain(&self) -> Vec<ChaosEvent> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }

    /// Decide-and-count one call at `site`. Returns the 1-based call
    /// index when this call injects.
    fn roll(&self, site: &'static str) -> Option<u64> {
        let seq = {
            let mut counters = self.counters.lock().unwrap();
            match counters.iter_mut().find(|(s, _)| *s == site) {
                Some((_, c)) => {
                    *c += 1;
                    *c
                }
                None => {
                    counters.push((site, 1));
                    1
                }
            }
        };
        let h = fnv1a_more(
            fnv1a_more(fnv1a(&self.seed.to_le_bytes()), site.as_bytes()),
            &seq.to_le_bytes(),
        );
        // Top 53 bits → uniform fraction in [0, 1).
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        (frac < self.rate).then_some(seq)
    }
}

/// Parse a `PREBOND3D_CHAOS` value (`<seed>:<rate>`), warning on stderr
/// and leaving chaos off when it is malformed or the rate is outside
/// [0, 1].
pub(crate) fn parse_config(v: &str) -> Option<(u64, f64)> {
    let parsed = v.split_once(':').and_then(|(seed, rate)| {
        Some((
            seed.trim().parse::<u64>().ok()?,
            rate.trim().parse::<f64>().ok()?,
        ))
    });
    match parsed {
        Some((_, rate)) if !(0.0..=1.0).contains(&rate) => {
            eprintln!("[chaos] PREBOND3D_CHAOS rate {rate} outside [0,1]; chaos stays off");
            None
        }
        None if !v.trim().is_empty() => {
            eprintln!("[chaos] cannot parse PREBOND3D_CHAOS=`{v}` (want `<seed>:<rate>`)");
            None
        }
        other => other,
    }
}

/// Roll at `site` against the current run's chaos state.
fn roll(site: &'static str) -> Option<u64> {
    with_current(|ctx| ctx.chaos.as_ref()?.roll(site))
}

fn record(site: &'static str, kind: ChaosKind, seq: u64) {
    with_current(|ctx| {
        if let Some(chaos) = &ctx.chaos {
            chaos
                .events
                .lock()
                .unwrap()
                .push(ChaosEvent { site, kind, seq });
        }
    });
    crate::hooks::emit("chaos", site, kind.label());
}

/// Record an event without rolling — the schema probe uses this so the
/// golden files cover the chaos array's element shape.
pub fn note(site: &'static str, kind: ChaosKind) {
    record(site, kind, 0);
}

/// Panic-injection site. No-op unless armed and the roll fires.
///
/// # Panics
///
/// By design, with a `chaos[<site>]`-prefixed payload when the seeded roll
/// selects this call.
pub fn maybe_panic(site: &'static str) {
    if let Some(seq) = roll(site) {
        record(site, ChaosKind::Panic, seq);
        panic!("chaos[{site}] injected panic (call #{seq})");
    }
}

/// I/O-error-injection site: `Some(error)` when the roll fires, which the
/// caller returns in place of performing the write.
pub fn io_error(site: &'static str) -> Option<std::io::Error> {
    let seq = roll(site)?;
    record(site, ChaosKind::Io, seq);
    Some(std::io::Error::other(format!(
        "chaos[{site}] injected I/O error (call #{seq})"
    )))
}

/// Numeric-perturbation site: returns NaN or ∞ (alternating by call
/// index) in place of `value` when the roll fires.
pub fn perturb(site: &'static str, value: f64) -> f64 {
    match roll(site) {
        Some(seq) => {
            record(site, ChaosKind::NonFinite, seq);
            if seq % 2 == 0 {
                f64::INFINITY
            } else {
                f64::NAN
            }
        }
        None => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunCtx;

    /// Run `f` under a fresh ctx armed with `(seed, rate)`.
    fn armed<R>(seed: u64, rate: f64, f: impl FnOnce() -> R) -> (R, RunCtx) {
        let ctx = RunCtx::default().with_chaos(seed, rate);
        (RunCtx::scope(&ctx, f), ctx)
    }

    #[test]
    fn unarmed_sites_are_noops() {
        let ctx = RunCtx::default();
        RunCtx::scope(&ctx, || {
            maybe_panic("test.site");
            assert!(io_error("test.site").is_none());
            assert_eq!(perturb("test.site", 1.25), 1.25);
        });
        assert!(ctx.drain_chaos_events().is_empty());
    }

    /// Which of 64 calls at `site` fire under `(seed, rate)`, with a call
    /// to `other` before each one when given.
    fn schedule(
        seed: u64,
        rate: f64,
        site: &'static str,
        other: Option<&'static str>,
    ) -> Vec<bool> {
        let calls = || {
            (0..64)
                .map(|_| {
                    other.map(|o| perturb(o, 0.0));
                    io_error(site).is_some()
                })
                .collect()
        };
        armed(seed, rate, calls).0
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let run = |seed| schedule(seed, 0.3, "det.site", None);
        let (a, b, c) = (run(7), run(7), run(8));
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.iter().any(|&f| f), "rate 0.3 over 64 calls must fire");
        assert!(!a.iter().all(|&f| f), "rate 0.3 must not always fire");
    }

    #[test]
    fn sites_roll_independently() {
        // Interleaved calls to another site must not move site.a's schedule.
        assert_eq!(
            schedule(12, 0.5, "site.a", None),
            schedule(12, 0.5, "site.a", Some("site.b")),
            "per-site counters isolate sites"
        );
    }

    #[test]
    fn panic_payload_names_the_site() {
        let (err, ctx) = armed(3, 1.0, || {
            std::panic::catch_unwind(|| maybe_panic("boom.site")).unwrap_err()
        });
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("chaos[boom.site]"), "{msg}");
        let evs = ctx.drain_chaos_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, ChaosKind::Panic);
    }

    #[test]
    fn perturbation_yields_non_finite() {
        let ((v1, v2), _) = armed(4, 1.0, || (perturb("n", 10.0), perturb("n", 10.0)));
        assert!(!v1.is_finite() && !v2.is_finite());
        assert!(v1.is_nan() != v2.is_nan(), "alternates NaN and infinity");
    }

    #[test]
    fn concurrent_runs_keep_their_own_counters_and_logs() {
        let (on, off) = std::thread::scope(|s| {
            let on = s.spawn(|| armed(5, 1.0, || io_error("x.site").is_some()));
            let off = s.spawn(|| armed(5, 0.0, || io_error("x.site").is_some()));
            (on.join().unwrap(), off.join().unwrap())
        });
        assert!(on.0 && !off.0);
        assert_eq!(on.1.drain_chaos_events().len(), 1);
        assert!(off.1.drain_chaos_events().is_empty());
        assert_eq!(on.1.chaos(), Some((5, 1.0)));
    }

    #[test]
    fn config_parsing_rejects_bad_values() {
        assert_eq!(parse_config("7:0.25"), Some((7, 0.25)));
        for bad in ["7:1.5", "garbage", ""] {
            assert_eq!(parse_config(bad), None, "{bad}");
        }
    }
}
