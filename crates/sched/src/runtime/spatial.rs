//! The spatial layer-block policy family: model-wise FCFS, Planaria's
//! layer-wise port, fixed layer blocks, and the VELTAIR adaptive policies
//! (Algorithm 3 dispatch with Algorithm 2 block planning).
//!
//! All of these share one discipline — continuations first, then fresh
//! arrivals, both FCFS, each block granted the cores its QoS share
//! demands, started short on conflicts and expanded when cores free up —
//! and differ only in *block planning*: how many units one allocation
//! covers and how many cores it requests. Planning consults
//! [`Policy::granularity`](crate::Policy::granularity), which is a
//! property of the policy table, not of the event loop.

use super::monitor::PressureView;
use super::state::SimState;
use crate::layer_block::{find_first_pivot, BlockSweep};
use crate::policy::{Granularity, Policy};

/// Admits pending work to cores under a spatially shared policy:
/// continuations first, then fresh arrivals, both FCFS, until the head
/// of the queue blocks.
pub(crate) fn dispatch(state: &mut SimState<'_>) {
    loop {
        let from_cont = !state.continuations.is_empty();
        let Some(head) = (if from_cont {
            state.continuations.front()
        } else {
            state.arrivals.front()
        }) else {
            break;
        };
        let query = head.query;
        if state.free_cores == 0 {
            // Head-of-line blocking without any cores: skip the (costly)
            // block planning entirely and mark the conflict once.
            mark_head_conflicted(state, from_cont);
            break;
        }
        let (end, requested) = plan_block(state, query);

        let fcfs_blocks = matches!(state.cfg.policy.granularity(), Granularity::Model);
        if fcfs_blocks && state.free_cores < requested {
            // Head-of-line blocking; mark the conflict once.
            mark_head_conflicted(state, from_cont);
            break;
        }

        let head = if from_cont {
            state.continuations.pop_front()
        } else {
            state.arrivals.pop_front()
        }
        .expect("head exists");

        let granted = requested.min(state.free_cores);
        if granted < requested && !head.conflicted {
            state.report.conflicts += 1;
        }
        state.free_cores -= granted;
        state.start_block(query, end, requested, granted);
    }
}

/// Counts the head-of-line conflict of the active queue at most once.
fn mark_head_conflicted(state: &mut SimState<'_>, from_cont: bool) {
    let mut head = if from_cont {
        state.continuations.pop_front()
    } else {
        state.arrivals.pop_front()
    }
    .expect("head exists");
    state.mark_conflicted(&mut head);
    if from_cont {
        state.continuations.push_front(head);
    } else {
        state.arrivals.push_front(head);
    }
}

// --- Block planning (Algorithm 2 + Algorithm 3 lines 11-13) ----------------

/// Plans the next block for `query`: how many units, which code versions,
/// and the core request. Returns `(end_unit, cores)`; the versions stay
/// on the state as the plan [`SimState::start_block`] runs.
///
/// Takes the state mutably because version choice goes through the
/// state's [`HysteresisLadder`](veltair_compiler::HysteresisLadder) (via
/// [`SimState::plan_versions`]), which is stateful.
pub(super) fn plan_block(state: &mut SimState<'_>, query: usize) -> (usize, u32) {
    let model_index = state.queries[query].model;
    let begin = state.queries[query].next_unit;
    let models = state.models;
    let model = &models[model_index];
    let policy = state.cfg.policy;
    let adaptive = policy.adaptive_compilation();
    // Interference-oblivious baselines plan as if alone.
    let aware = adaptive || matches!(policy, Policy::VeltairAs | Policy::VeltairFull);
    let view = if aware {
        state.projected()
    } else {
        PressureView::ZERO
    };
    // Version *selection* plans on the projection; every scheduling-side
    // quantity below — core requirements, granularity pivots, dynamic
    // thresholds — stays on the raw snapshot, so the projection reaches
    // core allocation only through the versions it selects.
    let (pressure, level) = (view.pair, view.level);
    state.plan_versions(model_index, view.projected_level);
    let versions = state.planned_versions();
    let tabulated = state.tabulated(model_index);
    let machine = &state.cfg.machine;
    let n = model.layers.len();

    match policy.granularity() {
        Granularity::Model => (n, model.model_core_requirement(level)),
        Granularity::Layer => {
            let end = begin + 1;
            let mut cores = model.layers[begin].core_requirement(versions[begin], level);
            if aware {
                // VELTAIR-AC runs inside the same scheduler discipline
                // (Alg. 3): interference-aware requirements are capped
                // at `Avg_C + thres`, or a saturated system would feed
                // its own inflation (see the DynamicBlock arm).
                let thres = dynamic_threshold(state, query, level);
                let avg_c = model.model_core_requirement(level);
                cores = cores.min(avg_c.saturating_add(thres).max(1));
            }
            (end, cores)
        }
        Granularity::FixedBlock(k) => {
            let end = begin.saturating_add(k.max(1)).min(n);
            let mut sweep =
                BlockSweep::prevalidated(model, begin, end, versions, tabulated, pressure, machine);
            (end, sweep.core_requirement(None))
        }
        Granularity::DynamicBlock => {
            let thres = dynamic_threshold(state, query, level);
            let avg_c = model.model_core_requirement(level);
            let end = find_first_pivot(model, begin, versions, level, avg_c, thres).unwrap_or(n);
            // Algorithm 2's contract: blocks use no more than
            // `Avg_C + thres` cores. Without this cap, a saturated
            // system feeds back on itself — high monitored interference
            // inflates the QoS-minimum request, which saturates the
            // machine further. Past the cap the block accepts the QoS
            // risk instead of the death spiral.
            let hard_cap = avg_c.saturating_add(thres).max(1);
            // One sweep rates each allocation once for both the QoS
            // minimum and the boost above it. A minimum at or past the
            // cap gets the cap, so the scan stops below it.
            let mut sweep =
                BlockSweep::prevalidated(model, begin, end, versions, tabulated, pressure, machine);
            let min_cores = sweep.core_requirement(Some(hard_cap));
            let cores = if min_cores >= hard_cap {
                hard_cap
            } else {
                // §4.2: at low load the threshold is high, and the block
                // may use the idle headroom — never beyond what is
                // currently free, so a boost cannot manufacture a
                // conflict. A standing reserve for the *other*
                // registered tenants keeps a momentarily idle machine
                // from being hogged by one boosted heavy block while
                // tight-QoS co-tenants arrive behind it.
                let reserve = co_tenant_reserve(state, model_index);
                let cap = hard_cap
                    .min(state.free_cores.max(min_cores))
                    .min(machine.cores.saturating_sub(reserve).max(min_cores));
                sweep.boosted(min_cores, cap)
            };
            (end, cores)
        }
    }
}

/// Cores held back from boosting on behalf of the *other* registered
/// tenants: the sum of their flat requirements, capped at half the
/// machine. Zero for single-tenant deployments, so boosting there is
/// unconstrained.
fn co_tenant_reserve(state: &SimState<'_>, planning_model: usize) -> u32 {
    let sum: u32 = state
        .models
        .iter()
        .enumerate()
        .filter(|(m, _)| *m != planning_model)
        .map(|(_, model)| model.model_core_requirement(0.0))
        .sum();
    sum.min(state.cfg.machine.cores / 2)
}

/// Algorithm 3 line 12: idle cores beyond every tenant's flat
/// requirement, distributed proportionally to this model's share.
///
/// "Tenant" covers both in-flight units and queries already waiting in
/// the dispatch queues: queued work is committed load, and
/// ignoring it would let the first dispatches of a burst claim boosted
/// allocations that starve the rest of the burst.
fn dynamic_threshold(state: &SimState<'_>, planning_query: usize, level: f64) -> u32 {
    let avg = |model: usize| state.models[model].model_core_requirement(level);
    let mut used: u64 = 0;
    for r in state.active_units() {
        used += u64::from(avg(state.queries[r.query].model));
    }
    // The planning query itself still sits at the head of a queue;
    // counting it both as queued work and as `mine` would double its
    // demand and zero the idle pool for any tenant needing half the
    // machine.
    for p in state.continuations.iter().chain(state.arrivals.iter()) {
        if p.query == planning_query {
            continue;
        }
        used += u64::from(avg(state.queries[p.query].model));
    }
    let mine = avg(state.queries[planning_query].model);
    used += u64::from(mine);
    let total = u64::from(state.cfg.machine.cores);
    let idle = total.saturating_sub(used);
    if used == 0 {
        return state.cfg.machine.cores;
    }
    let share = (idle as f64 * f64::from(mine) / used as f64).floor();
    share as u32
}
