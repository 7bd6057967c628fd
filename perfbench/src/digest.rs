//! `sim_digest`: one hash over every simulated statistic of a workload.
//!
//! Only what the modelled service produced goes in — per-model counts,
//! latency sample bit patterns, conflicts, dispatches, core-seconds,
//! fleet outcomes. Host-side work counters (events popped, index keys
//! examined, stepper round trips) stay out, so a change that only makes
//! the simulator faster must leave the digest bit-identical.

use veltair::cluster::FleetReport;
use veltair::sched::ServingReport;

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn report(&mut self, r: &ServingReport) {
        self.u64(r.per_model.len() as u64);
        for (name, m) in &r.per_model {
            self.str(name);
            self.u64(m.queries as u64);
            self.u64(m.satisfied as u64);
            self.f64(m.latency_sum_s);
            self.f64(m.latency_max_s);
            self.u64(m.latencies_s.len() as u64);
            for &l in &m.latencies_s {
                self.f64(l);
            }
        }
        self.u64(r.conflicts);
        self.u64(r.dispatches);
        self.u64(r.preemptions);
        self.f64(r.core_seconds);
        self.f64(r.makespan_s);
        self.u64(u64::from(r.peak_cores));
        self.f64(r.avg_cores);
    }

    /// A fleet run: every node's report plus the front-door and lifecycle
    /// outcomes. Of the coordinator counters only the decision and
    /// lifecycle counts enter; examined keys, index updates and round
    /// trips measure how the simulator found its answer, not the answer.
    pub fn fleet(&mut self, r: &FleetReport) {
        self.report(&r.merged);
        for node in &r.per_node {
            self.report(node);
        }
        for &n in &r.routed_per_node {
            self.u64(n);
        }
        for s in &r.node_states {
            self.str(s.name());
        }
        self.u64(r.submitted);
        self.u64(r.rerouted);
        self.u64(r.shed);
        for (model, n) in &r.shed_per_model {
            self.str(model);
            self.u64(*n);
        }
        self.u64(r.deferrals);
        let c = &r.coordinator;
        for v in [
            c.routing_decisions,
            c.nodes_added,
            c.nodes_drained,
            c.nodes_killed,
        ] {
            self.u64(v);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
