//! The partitioned policy family: the Parties port. Cores are divided
//! into per-tenant partitions proportional to each tenant's flat core
//! requirement, recomputed over the set of models that currently have
//! work; each tenant runs its own queue FCFS inside its partition, so a
//! flood from one tenant cannot starve another.

use std::collections::VecDeque;

use super::state::{Pending, SimState};

/// Per-tenant core partitions proportional to each tenant's flat core
/// requirement, over the models that currently have work. Every model
/// with work receives at least one core; leftovers go to the largest
/// tenants first.
fn partitions(state: &SimState<'_>) -> Vec<u32> {
    let n = state.models.len();
    let mut has_work = vec![false; n];
    for r in state.active_units() {
        has_work[state.queries[r.query].model] = true;
    }
    for p in state.continuations.iter().chain(state.arrivals.iter()) {
        has_work[state.queries[p.query].model] = true;
    }
    let reqs: Vec<u64> = (0..n)
        .map(|m| {
            if has_work[m] {
                u64::from(state.models[m].model_core_requirement(0.0).max(1))
            } else {
                0
            }
        })
        .collect();
    let total_req: u64 = reqs.iter().sum();
    let cores = u64::from(state.cfg.machine.cores);
    let mut parts = vec![0u32; n];
    if total_req == 0 {
        return parts;
    }
    let mut assigned = 0u64;
    for m in 0..n {
        if reqs[m] > 0 {
            let share = (cores * reqs[m] / total_req).max(1);
            parts[m] = u32::try_from(share.min(cores)).expect("share fits u32");
            assigned += u64::from(parts[m]);
        }
    }
    // Hand out any remainder to the largest tenants (stable order).
    let mut leftover = cores.saturating_sub(assigned);
    let mut order: Vec<usize> = (0..n).filter(|&m| reqs[m] > 0).collect();
    order.sort_by_key(|&m| std::cmp::Reverse(reqs[m]));
    for &m in order.iter().cycle().take(leftover.min(cores) as usize * n) {
        if leftover == 0 {
            break;
        }
        parts[m] += 1;
        leftover -= 1;
    }
    parts
}

/// Parties dispatch: FCFS within each tenant's partition. A tenant
/// whose head query does not fit its partition blocks only itself;
/// other tenants keep dispatching into their own partitions.
pub(crate) fn dispatch(state: &mut SimState<'_>) {
    let parts = partitions(state);
    let mut used = vec![0u32; state.models.len()];
    for r in state.active_units() {
        used[state.queries[r.query].model] += r.granted;
    }
    let mut blocked = vec![false; state.models.len()];
    let mut pending: Vec<Pending> = state.continuations.drain(..).collect();
    pending.extend(state.arrivals.drain(..));
    let mut kept: VecDeque<Pending> = VecDeque::new();

    for mut p in pending {
        let query = p.query;
        let m = state.queries[query].model;
        if blocked[m] {
            kept.push_back(p);
            continue;
        }
        // Resource partitioning: the tenant owns its partition and runs
        // its queue on all of it, one query at a time — cores are not
        // returned to a shared pool between queries.
        let request = parts[m].max(1);
        if used[m] + request <= parts[m] && request <= state.free_cores {
            let n_units = state.models[m].layers.len();
            state.plan_versions(m, 0.0);
            state.free_cores -= request;
            used[m] += request;
            state.start_block(query, n_units, request, request);
        } else {
            state.mark_conflicted(&mut p);
            blocked[m] = true;
            kept.push_back(p);
        }
    }
    state.continuations = kept;
}
