//! Cooperative phase deadlines.
//!
//! A run's `budget_ms` ([`crate::RunCtx::with_budget_ms`], or
//! `PREBOND3D_BUDGET_MS=<ms>` at the binary edge) gives every *phase*
//! (PODEM search, fault simulation, clique merging, annealing, exact
//! search) the same wall-clock budget, counted from the moment the phase
//! constructs its [`Deadline`].
//! The long loops poll [`Deadline::expired`] every few hundred iterations
//! and degrade gracefully on expiry: PODEM aborts the fault with a reason,
//! annealing returns best-so-far, exact clique search returns its
//! incumbent with `optimal = false`. Each such degradation is recorded via
//! [`crate::degrade`] so the run report names what was cut short. A serve
//! job's own `budget_ms` is just its ctx's budget, and the pool copies
//! the ctx into its workers, so parallel phases see the same deadline.
//!
//! When no budget is configured, [`Deadline::none`] is returned and every
//! check is a branch on `Option::None` — no clock reads, so unbudgeted
//! runs stay exactly as deterministic as before.

use std::time::{Duration, Instant};

/// A point in time after which a phase should wind down. `Copy`, cheap to
/// pass by value into config structs and worker closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires (the unbudgeted default). Checks
    /// against it never read the clock.
    pub fn none() -> Self {
        Deadline { at: None }
    }

    /// A deadline `ms` milliseconds from now.
    pub fn in_ms(ms: u64) -> Self {
        Deadline {
            at: Some(Instant::now() + Duration::from_millis(ms)),
        }
    }

    /// The deadline for a phase starting now under the current run's
    /// budget ([`Deadline::none`] when it has none).
    pub fn for_phase() -> Self {
        let budget_ms = crate::ctx::with_current(|ctx| ctx.budget_ms);
        budget_ms.map_or_else(Deadline::none, Deadline::in_ms)
    }

    /// Has the budget run out? `false` forever for [`Deadline::none`].
    pub fn expired(&self) -> bool {
        match self.at {
            None => false,
            Some(at) => Instant::now() >= at,
        }
    }

    /// Is there an actual budget attached (i.e. not [`Deadline::none`])?
    pub fn is_armed(&self) -> bool {
        self.at.is_some()
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        let d = Deadline::none();
        assert!(!d.is_armed());
        assert!(!d.expired());
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let d = Deadline::in_ms(0);
        assert!(d.is_armed());
        assert!(d.expired());
    }

    #[test]
    fn generous_budget_does_not_expire() {
        let d = Deadline::in_ms(120_000);
        assert!(!d.expired());
    }

    #[test]
    fn phases_take_the_current_run_budget() {
        assert!(!Deadline::for_phase().is_armed());
        let ctx = crate::RunCtx::default().with_budget_ms(Some(0));
        crate::RunCtx::scope(&ctx, || {
            let d = Deadline::for_phase();
            assert!(d.is_armed() && d.expired());
        });
    }
}
