//! The temporal multiplexing policies: PREMA's token-priority
//! whole-model multitasking and AI-MT's fair layer-granular round-robin.
//!
//! Both time-multiplex the whole machine — exactly one tenant runs at a
//! time, on every core — and differ in the selection rule and the unit of
//! preemption:
//!
//! * **PREMA** dispatches whole models chosen by token priority (time
//!   waited normalized by the QoS target, so tight-deadline tenants
//!   accumulate tokens faster); a pending tenant with strictly more tokens
//!   preempts at the next unit boundary, which the state machine asks
//!   `should_yield` about.
//! * **AI-MT** dispatches one *layer* at a time, picking the query with the
//!   least relative progress (arrival order breaks ties) — its finer
//!   temporal multiplexing without the accelerator's compute/memory
//!   overlap engine.

use super::state::{Pending, SimState};
use crate::policy::Policy;

/// PREMA's token priority: time waited so far, normalized by the QoS
/// target, so tight-deadline tenants accumulate tokens faster.
fn priority(state: &SimState<'_>, query: usize) -> f64 {
    let st = &state.queries[query];
    state.now.since(st.arrival) / state.models[st.model].qos_s
}

/// Whether any pending query holds strictly more priority tokens than
/// the given running query (the PREMA preemption condition).
fn higher_priority_pending(state: &SimState<'_>, running: usize) -> bool {
    let held = priority(state, running);
    state
        .continuations
        .iter()
        .chain(state.arrivals.iter())
        .any(|p| priority(state, p.query) > held)
}

/// Hands the whole machine to one pending query once it is idle: under
/// AI-MT the least-progressed query runs one layer, under PREMA the
/// highest-priority query runs the rest of its model.
pub(crate) fn dispatch(state: &mut SimState<'_>) {
    if !state.active_slots().is_empty() {
        return;
    }
    let mut all: Vec<Pending> = state.continuations.drain(..).collect();
    all.extend(state.arrivals.drain(..));
    if all.is_empty() {
        return;
    }
    let layer_granular = matches!(state.cfg.policy, Policy::AiMt);
    let best = if layer_granular {
        let progress = |q: usize| {
            let st = &state.queries[q];
            st.next_unit as f64 / state.models[st.model].layers.len() as f64
        };
        (0..all.len())
            .min_by(|&a, &b| {
                progress(all[a].query)
                    .total_cmp(&progress(all[b].query))
                    .then(
                        state.queries[all[a].query]
                            .arrival
                            .cmp(&state.queries[all[b].query].arrival),
                    )
            })
            .expect("non-empty")
    } else {
        let prio = |q: usize| priority(state, q);
        (0..all.len())
            .max_by(|&a, &b| prio(all[a].query).total_cmp(&prio(all[b].query)))
            .expect("non-empty")
    };
    let chosen = all.swap_remove(best);
    for p in all {
        state.continuations.push_back(p);
    }
    let query = chosen.query;
    let model_index = state.queries[query].model;
    let begin = state.queries[query].next_unit;
    let n = state.models[model_index].layers.len();
    let cores = state.cfg.machine.cores;
    // Planning goes through the shared selector seam like every policy
    // family. The temporal policies (PREMA, AI-MT) do not compile
    // adaptively, so this yields the static solo versions.
    state.plan_versions(model_index, 0.0);
    let end = if layer_granular { begin + 1 } else { n };
    state.free_cores = 0;
    state.start_block(query, end, cores, cores);
}

/// Whether the unit in `slot`, having finished a block-internal layer,
/// yields the machine at this boundary: under a temporal policy, when a
/// pending tenant holds more priority tokens (PREMA preemption). AI-MT
/// schedules single-layer blocks, so its blocks have no internal
/// boundaries and the check is harmlessly shared. Spatial and
/// partitioned policies never yield.
pub(crate) fn should_yield(state: &SimState<'_>, slot: usize) -> bool {
    state.cfg.policy.is_temporal() && higher_priority_pending(state, state.running[slot].query)
}
