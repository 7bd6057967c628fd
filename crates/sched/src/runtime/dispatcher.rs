//! The [`Dispatcher`] trait: the single extension point through which a
//! scheduling policy family plugs into the policy-agnostic event loop.
//!
//! The event loop ([`Driver::step`](super::Driver::step)) owns time,
//! arrivals, unit progress, re-rating, and reporting; a dispatcher owns
//! exactly two decisions — *who gets cores after a material event* and
//! *whether a running unit yields at a block-internal boundary*. Adding
//! a new scheduling discipline therefore means writing one `Dispatcher`
//! impl and mapping it in [`for_policy`]; the event loop never changes.

use super::partitioned::PartitionedDispatcher;
use super::spatial::SpatialDispatcher;
use super::state::SimState;
use super::temporal::{TemporalDispatcher, TemporalOrder};
use crate::policy::Policy;

/// A scheduling policy family's dispatch discipline.
pub trait Dispatcher: std::fmt::Debug + Send {
    /// Family name for diagnostics and traces.
    fn name(&self) -> &'static str;

    /// Admits pending work to cores. Called after every material event
    /// (an arrival or a unit transition), once freed cores have been
    /// re-granted to under-allocated units.
    fn dispatch(&mut self, state: &mut SimState<'_>);

    /// Whether the unit in `slot`, having finished a block-internal layer,
    /// should yield the machine at this boundary (temporal preemption).
    /// The default — spatial and partitioned families — never yields.
    fn should_yield(&self, state: &SimState<'_>, slot: usize) -> bool {
        let _ = (state, slot);
        false
    }
}

/// Maps a [`Policy`] to its dispatcher family. This is the only place in
/// the runtime where policies are matched on; everything downstream talks
/// to the [`Dispatcher`] trait object.
#[must_use]
pub fn for_policy(policy: Policy) -> Box<dyn Dispatcher> {
    match policy {
        Policy::Prema => Box::new(TemporalDispatcher::new(TemporalOrder::TokenPriority)),
        Policy::AiMt => Box::new(TemporalDispatcher::new(TemporalOrder::LeastProgress)),
        Policy::Parties => Box::new(PartitionedDispatcher),
        Policy::ModelFcfs
        | Policy::Planaria
        | Policy::FixedBlock(_)
        | Policy::VeltairAs
        | Policy::VeltairAc
        | Policy::VeltairFull => Box::new(SpatialDispatcher),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_maps_to_a_family() {
        let cases = [
            (Policy::ModelFcfs, "spatial"),
            (Policy::Planaria, "spatial"),
            (Policy::FixedBlock(6), "spatial"),
            (Policy::VeltairAs, "spatial"),
            (Policy::VeltairAc, "spatial"),
            (Policy::VeltairFull, "spatial"),
            (Policy::Prema, "temporal-prema"),
            (Policy::AiMt, "temporal-aimt"),
            (Policy::Parties, "partitioned"),
        ];
        for (policy, family) in cases {
            assert_eq!(for_policy(policy).name(), family, "{}", policy.name());
        }
    }
}
