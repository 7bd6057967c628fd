//! The repository benchmark: one named workload, seeded, timed on the
//! host, with its simulated statistics checked and digested.
//!
//! ```text
//! perfbench --workload <overload-mix|capacity-search|fleet-churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|tiny] [--spans-out <file>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics: set-up is repeated, then
//! passes over the workload's simulation runs are repeated for
//! `--seconds`. Set-up time and host throughput come from those repeats
//! in process CPU time, calibrated against a reference kernel (see
//! `calibrate`). `--trace 1` prints the per-layer metrics: it
//! alternates untraced and traced passes, wraps spans around the calls
//! into each layer, checks that both kinds of pass simulate the same
//! thing, and reports the tracing overhead. The last line of standard
//! output is one JSON object.

mod calibrate;
mod capacity;
mod churn;
mod digest;
mod harness;
mod metrics;
mod overload;
mod tracer;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{Bench, Pass};
use metrics::{median, percentile, Values, END_TO_END};
use tracer::{cpu_ns, nanos, Tracer};

/// Set-up runs at least this many times and, while it is quick, for at
/// least `SETUP_BUDGET`, up to `MAX_SETUPS`. The host's speed shifts
/// every few seconds, so a longer budget is likelier to see it fast.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 60;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--size" => {
                args.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                }
            }
            "--spans-out" => args.spans_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Sets a workload up from its seed.
fn setup(args: &Args, tr: &mut Tracer) -> Result<Box<dyn Bench>, String> {
    let size = |full: usize, tiny: usize| if args.tiny { tiny } else { full };
    let seed = args.seed;
    Ok(match args.workload.as_str() {
        "overload-mix" => Box::new(overload::setup(size(3000, 150), size(8, 2), seed, tr)?),
        "capacity-search" => Box::new(capacity::setup(size(400, 60), size(5, 1), seed, tr)?),
        "fleet-churn" => Box::new(churn::setup(size(5_000, 3000), seed, tr)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// What a run measured, before printing.
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
    digest: u64,
    values: Values,
    notes: Vec<String>,
}

/// Folds passes into an outcome, checking that each simulated exactly
/// what the first one did.
fn outcome<'a>(first: &Pass, passes: impl IntoIterator<Item = &'a Pass>) -> Outcome {
    let mut out = Outcome {
        attempted: 0,
        failures: Vec::new(),
        failed: 0,
        digest: first.digest,
        values: Values::new(),
        notes: first.notes.clone(),
    };
    for pass in passes {
        out.attempted += pass.attempted;
        out.failed += pass.failed;
        out.failures.extend(pass.failures.iter().cloned());
        if pass.digest != first.digest {
            out.failed += pass.attempted;
            out.failures.push(format!(
                "sim_digest {:016x} differs from the first pass's {:016x}",
                pass.digest, first.digest
            ));
        }
    }
    out
}

/// Host time of each unit across passes, summed: calibrated against the
/// reference-kernel `samples`, or the raw median when there are none.
fn unit_ns(passes: &[&Pass], samples: &[u64]) -> f64 {
    let units = passes[0].units.len();
    (0..units)
        .map(|i| {
            let obs: Vec<(u64, usize)> = passes
                .iter()
                .filter_map(|p| p.units.get(i))
                .map(|u| (u.ns, u.at))
                .collect();
            calibrate::unit_ns(&obs, samples)
        })
        .sum()
}

/// Median of a per-pass host value across passes.
fn median_host(passes: &[&Pass], name: &str) -> Option<f64> {
    let values: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.host.get(name).copied())
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

/// `--trace 0`: the end-to-end metrics.
fn run_end_to_end(args: &Args) -> Result<Outcome, String> {
    calibrate::start();
    let mut setup_s = Vec::new();
    let mut bench = None;
    let budget = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (budget.elapsed() < SETUP_BUDGET && setup_s.len() < MAX_SETUPS)
    {
        drop(bench.take());
        let at = calibrate::checkpoint(true);
        let start = cpu_ns();
        bench = Some(setup(args, &mut Tracer::off())?);
        setup_s.push((cpu_ns() - start, at));
    }
    let bench = bench.expect("set up at least once");

    let mut tr = Tracer::off();
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        passes.push(bench.pass(&mut tr));
    }
    calibrate::checkpoint(true);
    let samples = calibrate::samples();
    let first = &passes[0];
    let mut out = outcome(first, &passes);
    let all: Vec<&Pass> = passes.iter().collect();
    let host_s = unit_ns(&all, &samples) / 1e9;
    let values = &mut out.values;
    values.insert("sim_qps".into(), first.resolved() as f64 / host_s);
    values.insert(
        "setup_s".into(),
        calibrate::unit_ns(&setup_s, &samples) / 1e9,
    );
    values.insert("peak_rss_mb".into(), metrics::peak_rss_mb().unwrap_or(0.0));
    first.served.metrics(values);
    let pass_ms: Vec<String> = passes
        .iter()
        .map(|p| {
            format!(
                "{:.0}",
                p.units.iter().map(|u| u.ns).sum::<u64>() as f64 / 1e6
            )
        })
        .collect();
    out.notes
        .push(format!("host CPU ms per pass: {}", pass_ms.join(" ")));
    let kernel: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    out.notes.push(format!(
        "reference kernel: median {:.2} ms over {} samples; host times are scaled to {:.0} ms",
        median(&kernel) / 1e6,
        samples.len(),
        calibrate::REFERENCE_NS / 1e6
    ));
    out.notes.push(format!(
        "{} passes, {} set-ups; latency percentiles over {} samples",
        passes.len(),
        setup_s.len(),
        first.served.samples()
    ));
    Ok(out)
}

/// `--trace 1`: the per-layer metrics.
fn run_traced(args: &Args) -> Result<Outcome, String> {
    let mut tr = Tracer::on();
    let bench = setup(args, &mut tr)?;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        untraced.push(bench.pass(&mut Tracer::off()));
        traced.push(bench.pass(&mut tr));
    }
    let first = &untraced[0];
    let mut out = outcome(first, untraced.iter().chain(&traced));
    let plain: Vec<&Pass> = untraced.iter().collect();
    let spanned: Vec<&Pass> = traced.iter().collect();
    let t = &traced[0];
    let v = &mut out.values;
    for (name, _) in metrics::per_layer() {
        v.insert(name, 0.0);
    }
    bench.compile_log().metrics(v);
    for (name, value) in &t.layer {
        v.insert(name.clone(), *value);
    }
    for name in t.host.keys() {
        if let Some(m) = median_host(&spanned, name) {
            v.insert(name.clone(), m);
        }
    }

    // Scheduler: step counts from the traced pass, step costs from the
    // untraced passes' loops and the traced passes' samples.
    v.insert("sched.events".into(), t.events as f64);
    if t.events > 0 {
        v.insert(
            "sched.material_frac".into(),
            t.material as f64 / t.events as f64,
        );
        let loop_ns: Vec<f64> = plain.iter().map(|p| p.step_loop_ns as f64).collect();
        v.insert(
            "sched.ns_per_event".into(),
            median(&loop_ns) / t.events as f64,
        );
    }
    let material = tr.samples("sched.step_ns.material");
    v.insert(
        "sched.step_ns.material.p50".into(),
        percentile(material, 50.0),
    );
    v.insert(
        "sched.step_ns.material.p99".into(),
        percentile(material, 99.0),
    );
    let other = tr.samples("sched.step_ns.other");
    v.insert("sched.step_ns.other.p50".into(), percentile(other, 50.0));
    let projection = tr.samples("sched.projection_ns");
    v.insert(
        "sched.projection_ns.p50".into(),
        percentile(projection, 50.0),
    );
    v.insert(
        "sched.projection_ns.p99".into(),
        percentile(projection, 99.0),
    );
    v.insert("sched.projection_probes".into(), t.probes as f64);
    for (key, (resolved, _)) in &t.per_policy {
        let loop_ns: Vec<f64> = plain
            .iter()
            .filter_map(|p| p.per_policy.get(key))
            .map(|x| x.1 as f64)
            .collect();
        let secs = median(&loop_ns) / 1e9;
        if secs > 0.0 {
            v.insert(format!("sched.sim_qps.{key}"), *resolved as f64 / secs);
        }
    }

    // Cluster: the run_until slices of every traced pass.
    let slices = tr.samples("cluster.slice_ns");
    v.insert(
        "cluster.slice_ms.p50".into(),
        percentile(slices, 50.0) / 1e6,
    );
    v.insert(
        "cluster.slice_ms.p99".into(),
        percentile(slices, 99.0) / 1e6,
    );

    let overhead = unit_ns(&plain, &[]) / unit_ns(&spanned, &[]);
    v.insert("bench.trace_qps_ratio".into(), overhead);
    v.insert(
        "bench.latency_samples".into(),
        first.served.samples() as f64,
    );
    out.notes.push(format!(
        "{} untraced and {} traced passes; traced sim_digest {:016x} {} the untraced one; \
         traced/untraced sim_qps = {overhead:.3}",
        untraced.len(),
        traced.len(),
        t.digest,
        if t.digest == first.digest {
            "equals"
        } else {
            "DIFFERS from"
        },
    ));
    if let Some(path) = &args.spans_out {
        let path = std::path::Path::new(path);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, tr.to_json(&args.workload, args.seed))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(out)
}

/// A JSON number: finite values print with every digit Rust keeps.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let outcome = if args.trace {
        run_traced(&args)
    } else {
        run_end_to_end(&args)
    };
    let mut out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let catalogue: Vec<(String, &str)> = if args.trace {
        metrics::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_string(), *u))
            .collect()
    };
    let mut correct = out.failed == 0;
    let mut fields = Vec::new();
    println!("workload {} seed {}", args.workload, args.seed);
    for note in &out.notes {
        println!("  {note}");
    }
    for (name, unit) in &catalogue {
        let value = out.values.remove(name).unwrap_or(f64::NAN);
        if !value.is_finite() {
            correct = false;
            out.failures.push(format!("{name} is not finite"));
        }
        println!("  {name:<40} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for failure in &out.failures {
        println!("  FAILED: {failure}");
    }
    println!("  attempted {} failed {}", out.attempted, out.failed);
    println!("  sim_digest {:016x}", out.digest);
    println!(
        "  host wall clock {:.1} s",
        nanos(started.elapsed()) as f64 / 1e9
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
