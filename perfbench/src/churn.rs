//! `fleet-churn`: a 64-node heterogeneous fleet behind interference-aware
//! routing and SLO-aware admission, fed a bursty four-model mix while a
//! scripted failure plan crashes, drains and stalls nodes.

use veltair::prelude::*;

use crate::calibrate;
use crate::digest::Digest;
use crate::harness::{zoo_specs, Bench, CompileLog, Pass, SchedTotals, Unit};
use crate::overload::{inverse_qos_streams, MIX};
use crate::tracer::{cpu_ns, Tracer};

const BIG_NODES: usize = 8;
const EDGE_NODES: usize = 56;
const AGGREGATE_QPS: f64 = 6000.0;
/// Burst on and off periods, seconds: a 30 % duty cycle. The periods
/// are fixed and every stream bursts together (a fleet-wide envelope),
/// so only the arrivals inside a burst are random and a trace's offered
/// load, and with it goodput, does not swing from seed to seed.
const BURST: (f64, f64) = (0.03, 0.07);
/// Virtual length of each timed `run_until` slice, seconds.
const SLICE_S: f64 = 0.02;
/// The scripted churn, at fixed fractions of the arrival stream: crash
/// the second 3990X, drain the first edge node, stall the second edge
/// node for this long. The crash hits a node with work in flight, so
/// every seed re-routes queries; an edge node holds one query at most.
const CRASH_AT: f64 = 0.25;
const DRAIN_AT: f64 = 0.5;
const STALL_AT: f64 = 0.75;
const STALL_S: f64 = 0.1;

pub struct Churn {
    seed: u64,
    big: Vec<CompiledModel>,
    edge: Vec<CompiledModel>,
    nodes: Vec<NodeSpec>,
    workload: WorkloadSpec,
    plan: FailurePlan,
    horizon_s: f64,
    log: CompileLog,
}

pub fn setup(queries: usize, seed: u64, tr: &mut Tracer) -> Result<Churn, String> {
    let big_machine = MachineConfig::threadripper_3990x();
    let edge_machine = MachineConfig::desktop_8core();
    let specs = zoo_specs(&MIX)?;
    let mut service = CompilerService::new(CompilerOptions::thorough());
    let mut log = CompileLog::default();
    let big = log.compile(&mut service, &specs, &big_machine, tr);
    let edge = log.compile(&mut service, &specs, &edge_machine, tr);
    log.close(&service, &big.iter().chain(&edge).collect::<Vec<_>>());

    let mut nodes: Vec<NodeSpec> = (0..BIG_NODES)
        .map(|i| {
            NodeSpec::new(
                &format!("3990x-{i}"),
                big_machine.clone(),
                Policy::VeltairFull,
            )
        })
        .collect();
    nodes.extend((0..EDGE_NODES).map(|i| {
        NodeSpec::new(
            &format!("edge-{i}"),
            edge_machine.clone(),
            Policy::VeltairFull,
        )
    }));

    let steady = WorkloadSpec::try_mix(&inverse_qos_streams(&specs), queries)
        .map_err(|e| e.to_string())?
        .scaled_to(AGGREGATE_QPS);
    let streams: Vec<(&str, f64)> = steady
        .streams
        .iter()
        .map(|(n, r)| (n.as_str(), *r))
        .collect();
    let duty = BURST.0 / (BURST.0 + BURST.1);
    let workload =
        WorkloadSpec::try_trace_mix(&streams, queries, &[(BURST.0, 1.0 / duty), (BURST.1, 0.0)])
            .map_err(|e| e.to_string())?;
    let arrivals = workload.generate(seed);
    let at = |frac: f64| arrivals[(frac * arrivals.len() as f64) as usize].arrival.0;
    let horizon_s = arrivals.last().map_or(0.0, |q| q.arrival.0);
    let plan = FailurePlan::new()
        .try_crash(at(CRASH_AT), 1)
        .and_then(|p| p.try_drain(at(DRAIN_AT), BIG_NODES))
        .and_then(|p| p.try_stall(at(STALL_AT), BIG_NODES + 1, STALL_S))
        .map_err(|e| e.to_string())?;
    Ok(Churn {
        seed,
        big,
        edge,
        nodes,
        workload,
        plan,
        horizon_s,
        log,
    })
}

impl Churn {
    fn fleet(&self) -> Result<Fleet<'_>, ClusterError> {
        let registries: Vec<&[CompiledModel]> = (0..self.nodes.len())
            .map(|i| {
                if i < BIG_NODES {
                    self.big.as_slice()
                } else {
                    self.edge.as_slice()
                }
            })
            .collect();
        Ok(Fleet::with_node_registries(
            &self.big,
            registries,
            &self.nodes,
            RouterKind::InterferenceAware.build(),
            AdmissionKind::SloAware(SloAdmissionConfig::default()).build(),
        )?
        .with_step_mode(StepMode::Sequential)
        .with_failure_plan(self.plan.clone()))
    }
}

impl Bench for Churn {
    fn pass(&self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let submitted = self.workload.total_queries as u64;
        pass.attempted = submitted;
        tr.next_run();
        // Every timed call is a unit of its own, so a burst of host noise
        // drops out of the per-unit medians taken across passes.
        let mut unit_ns = Vec::new();
        let (run, _) = tr.span("cluster.run", |tr| -> Result<_, ClusterError> {
            let mut at = calibrate::checkpoint(false);
            let mut mark = cpu_ns();
            let mut lap = || {
                unit_ns.push((cpu_ns() - mark, at));
                at = calibrate::checkpoint(false);
                mark = cpu_ns();
            };
            let mut fleet = self.fleet()?;
            let (ids, submit_ns) = tr.span("cluster.submit_stream", |_| {
                fleet.submit_stream(&self.workload, self.seed)
            });
            ids?;
            lap();
            let mut t = 0.0;
            while t < self.horizon_s {
                t += SLICE_S;
                let (_, ns) = tr.span("cluster.run_until", |_| fleet.run_until(t));
                tr.sample("cluster.slice_ns", ns);
                lap();
            }
            let (report, drain_ns) = tr.span("cluster.finish", |_| fleet.finish());
            lap();
            Ok((report, submit_ns, drain_ns))
        });
        let (report, submit_ns, drain_ns) = match run {
            Ok(run) => run,
            Err(e) => {
                pass.fail(submitted, format!("fleet: {e}"));
                return pass;
            }
        };
        let completed = report.merged.total_queries() as u64;
        let resolved = completed + report.shed;
        if resolved != report.submitted || report.submitted != submitted {
            pass.fail(
                submitted.saturating_sub(resolved).max(1),
                format!(
                    "{completed} completed + {} shed != {} submitted",
                    report.shed, report.submitted
                ),
            );
        }
        if report.dead_nodes() == 0 || report.rerouted == 0 {
            pass.fail(
                submitted,
                format!(
                    "the scripted churn did not fire: {} dead nodes, {} rerouted",
                    report.dead_nodes(),
                    report.rerouted
                ),
            );
        }
        let last = unit_ns.len() - 1;
        pass.units
            .extend(unit_ns.iter().enumerate().map(|(i, &(ns, at))| Unit {
                ns,
                resolved: if i == last { resolved } else { 0 },
                at,
            }));
        pass.served.add_report(0, &report.merged, report.submitted);
        let mut totals = SchedTotals::default();
        totals.add(&report.merged);
        totals.metrics(&mut pass.layer);
        let c = report.coordinator;
        let per_decision = |v: u64| {
            if c.routing_decisions == 0 {
                0.0
            } else {
                v as f64 / c.routing_decisions as f64
            }
        };
        for (name, value) in [
            ("cluster.routing_decisions", c.routing_decisions as f64),
            ("cluster.examined_per_decision", c.examined_per_decision()),
            (
                "cluster.index_updates_per_decision",
                per_decision(c.index_updates),
            ),
            (
                "cluster.round_trips_per_1k_decisions",
                c.round_trips_per_1k_decisions(),
            ),
            ("cluster.deferrals", report.deferrals as f64),
            ("cluster.shed", report.shed as f64),
            ("cluster.rerouted", report.rerouted as f64),
        ] {
            pass.layer.insert(name.into(), value);
        }
        pass.host
            .insert("cluster.submit_ms".into(), submit_ns as f64 / 1e6);
        pass.host
            .insert("cluster.drain_ms".into(), drain_ns as f64 / 1e6);
        let mut digest = Digest::default();
        digest.fleet(&report);
        pass.digest = digest.finish();
        pass
    }

    fn compile_log(&self) -> &CompileLog {
        &self.log
    }
}
