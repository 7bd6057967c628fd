//! Smoke test of the benchmark at a tiny size: every metric named in
//! `BENCHMARK.json` is printed with its unit and a finite value, runs are
//! correct, and `sim_digest` is a function of the seed.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["overload-mix", "capacity-search", "fleet-churn"];

struct Run {
    stdout: String,
}

impl Run {
    fn new(workload: &str, seed: u64, trace: bool) -> Self {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", "0.1", "--size", "tiny"])
            .args(["--trace", if trace { "1" } else { "0" }])
            .output()
            .expect("the benchmark binary runs");
        assert!(out.status.success(), "{workload}: exit {}", out.status);
        Self {
            stdout: String::from_utf8(out.stdout).expect("utf-8 output"),
        }
    }

    fn result(&self) -> &str {
        self.stdout.lines().last().expect("a result line")
    }

    fn digest(&self) -> &str {
        self.stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix("sim_digest "))
            .expect("a sim_digest line")
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field present");
                let rest = &entry[at + key.len() + 2..];
                let open = rest.find('"').expect("value opens") + 1;
                let len = rest[open..].find('"').expect("value closes");
                rest[open..open + len].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn metric_value(result: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = result
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing"));
    let rest = &result[at + key.len()..];
    let end = rest.find(',').expect("value ends");
    assert!(
        rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
        "{name} lacks unit {unit}"
    );
    rest[..end].parse().expect("numeric value")
}

#[test]
fn every_declared_metric_is_printed_finite_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty());
        for workload in WORKLOADS {
            let run = Run::new(workload, 7, trace);
            let result = run.result();
            assert!(
                result.starts_with("{\"correct\": true,"),
                "{workload}: {result}"
            );
            assert!(result.contains("\"failed\": 0,"), "{workload}: {result}");
            for (name, unit) in &metrics {
                let value = metric_value(result, name, unit);
                assert!(value.is_finite(), "{workload} {name} = {value}");
            }
            assert_eq!(
                result.matches("\"value\"").count(),
                metrics.len(),
                "{workload} prints undeclared metrics"
            );
        }
    }
}

#[test]
fn sim_digest_follows_the_seed() {
    for workload in WORKLOADS {
        let a = Run::new(workload, 11, false);
        let b = Run::new(workload, 11, false);
        let c = Run::new(workload, 12, false);
        assert_eq!(a.digest(), b.digest(), "{workload}: same seed, new digest");
        assert_ne!(a.digest(), c.digest(), "{workload}: new seed, same digest");
    }
}
