//! The merged trace: span-chain queries, SLO-violation attribution, and
//! Chrome trace-event JSON export.

use std::fmt::Write as _;

use crate::event::{TraceEvent, TraceEventKind};

/// How a query's span chain ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueryTerminal {
    /// The query completed (deadline met or missed).
    Completed,
    /// The query was shed at the front door.
    Shed,
    /// The trace ended before the query did: the log was taken while
    /// the query was still in flight.
    #[default]
    Open,
}

/// The merged, deterministically ordered event stream of one run, with
/// the name tables needed to render it. Built by
/// [`Collector::log`](crate::Collector::log).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// Events sorted by `(at_s, track)` with stable emission-order
    /// tie-break.
    pub events: Vec<TraceEvent>,
    /// Track names: index 0 is the coordinator, `i + 1` is node `i`.
    pub tracks: Vec<String>,
    /// Node-class label per track (`"{cores}c/{policy}"`).
    pub classes: Vec<String>,
    /// Model names, indexed by the `model` field of events.
    pub models: Vec<String>,
}

impl TraceLog {
    /// Every event of one query's span chain, in merged order.
    #[must_use]
    pub fn span(&self, query: u64) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.kind.query() == Some(query))
            .collect()
    }

    /// All trace ids that appear in the log, sorted.
    #[must_use]
    pub fn query_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.events.iter().filter_map(|e| e.kind.query()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// How `query`'s span chain terminated.
    #[must_use]
    pub fn terminal(&self, query: u64) -> QueryTerminal {
        let mut terminal = QueryTerminal::Open;
        for e in &self.events {
            match e.kind {
                TraceEventKind::Completed { query: q, .. } if q == query => {
                    terminal = QueryTerminal::Completed;
                }
                TraceEventKind::Shed { query: q, .. } if q == query => {
                    terminal = QueryTerminal::Shed;
                }
                _ => {}
            }
        }
        terminal
    }

    /// Decomposes one query's end-to-end latency from its recorded span
    /// chain — the "why did this query miss its SLO" view. Returns
    /// `None` when the query never appears in the log.
    #[must_use]
    pub fn explain(&self, query: u64) -> Option<SloAttribution> {
        let span = self.span(query);
        if span.is_empty() {
            return None;
        }
        let mut a = SloAttribution {
            query,
            ..SloAttribution::default()
        };
        let mut submitted_s = None;
        let mut admitted_s = None;
        let mut first_dispatch_s = None;
        let mut completed_s = None;
        for e in &span {
            match &e.kind {
                TraceEventKind::Submitted { model, .. } => {
                    submitted_s = Some(e.at_s);
                    a.model = self
                        .models
                        .get(*model as usize)
                        .cloned()
                        .unwrap_or_default();
                }
                TraceEventKind::Deferred { .. } => a.deferrals += 1,
                TraceEventKind::Requeued { .. } => a.reroutes += 1,
                TraceEventKind::Admitted { node, .. } => {
                    // The *last* admission names the serving node (a
                    // reroute re-admits); the *first* ends the
                    // front-door hold.
                    admitted_s = Some(e.at_s);
                    a.node = self.tracks.get(*node as usize + 1).cloned();
                    a.first_admitted_s = a.first_admitted_s.or(Some(e.at_s));
                }
                TraceEventKind::Shed { .. } => a.terminal = QueryTerminal::Shed,
                TraceEventKind::Dispatched {
                    expected_s,
                    solo_s,
                    solo_best_s,
                    ..
                } => {
                    first_dispatch_s = first_dispatch_s.or(Some(e.at_s));
                    a.dispatches += 1;
                    a.ideal_s += solo_best_s;
                    a.interference_excess_s += (expected_s - solo_s).max(0.0);
                    a.version_choice_s += (solo_s - solo_best_s).max(0.0);
                }
                TraceEventKind::Completed {
                    latency_s, qos_s, ..
                } => {
                    a.terminal = QueryTerminal::Completed;
                    completed_s = Some(e.at_s);
                    a.latency_s = *latency_s;
                    a.qos_s = *qos_s;
                    a.violated = latency_s > qos_s;
                }
                _ => {}
            }
        }
        a.submitted_s = submitted_s.unwrap_or(f64::NAN);
        // With no admission event the hold ends at submission, and queue
        // wait runs from there to first dispatch.
        let hold_end = a.first_admitted_s.or(admitted_s).or(submitted_s);
        if let (Some(sub), Some(adm)) = (submitted_s, hold_end) {
            a.deferral_hold_s = (adm - sub).max(0.0);
        }
        if let (Some(adm), Some(disp)) = (hold_end, first_dispatch_s) {
            a.queue_wait_s = (disp - adm).max(0.0);
        }
        if let (Some(disp), Some(done)) = (first_dispatch_s, completed_s) {
            a.execution_s = (done - disp).max(0.0);
            a.residual_s = a.execution_s - a.ideal_s - a.interference_excess_s - a.version_choice_s;
        }
        Some(a)
    }

    /// Serializes the log as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object form), loadable in Perfetto and
    /// `chrome://tracing`: one thread track per node plus the
    /// coordinator, instant events with full payloads in `args`,
    /// timestamps in microseconds of virtual time.
    ///
    /// Hand-written serialization: the workspace is hermetic (no
    /// `serde_json`), and the event vocabulary is closed, so the writer
    /// enumerates it directly. Output is a pure function of the sorted
    /// stream — byte-identical whenever the log is.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push_obj = |out: &mut String, body: &str| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('{');
            out.push_str(body);
            out.push('}');
        };
        let mut meta = String::new();
        let _ = write!(
            meta,
            "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"veltair\"}}"
        );
        push_obj(&mut out, &meta);
        for (tid, name) in self.tracks.iter().enumerate() {
            let mut m = String::new();
            let _ = write!(
                m,
                "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}",
                escape(name)
            );
            push_obj(&mut out, &m);
        }
        let mut body = String::new();
        for e in &self.events {
            body.clear();
            let _ = write!(
                body,
                "\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{},\
                 \"args\":{{",
                e.kind.name(),
                e.track,
                json_f64(e.at_s * 1e6)
            );
            self.write_args(&mut body, &e.kind);
            body.push('}');
            push_obj(&mut out, &body);
        }
        out.push_str("]}");
        out
    }

    fn write_args(&self, out: &mut String, kind: &TraceEventKind) {
        let model_name = |m: &u32| {
            self.models
                .get(*m as usize)
                .map_or("<unknown>", String::as_str)
        };
        match kind {
            TraceEventKind::Submitted { query, model } => {
                let _ = write!(
                    out,
                    "\"query\":{query},\"model\":\"{}\"",
                    escape(model_name(model))
                );
            }
            TraceEventKind::Routed {
                query,
                node,
                attempts,
            } => {
                let _ = write!(
                    out,
                    "\"query\":{query},\"node\":{node},\"attempts\":{attempts}"
                );
            }
            TraceEventKind::Admitted {
                query,
                node,
                attempts,
            } => {
                let _ = write!(
                    out,
                    "\"query\":{query},\"node\":{node},\"attempts\":{attempts}"
                );
            }
            TraceEventKind::Deferred {
                query,
                attempts,
                until_s,
            } => {
                let _ = write!(
                    out,
                    "\"query\":{query},\"attempts\":{attempts},\"until_s\":{}",
                    json_f64(*until_s)
                );
            }
            TraceEventKind::Shed {
                query,
                model,
                attempts,
            } => {
                let _ = write!(
                    out,
                    "\"query\":{query},\"model\":\"{}\",\"attempts\":{attempts}",
                    escape(model_name(model))
                );
            }
            TraceEventKind::Requeued { query, from_node } => {
                let _ = write!(out, "\"query\":{query},\"from_node\":{from_node}");
            }
            TraceEventKind::Dispatched {
                query,
                unit,
                version,
                pressure_at_plan,
                expected_s,
                solo_s,
                solo_best_s,
            } => {
                let _ = write!(
                    out,
                    "\"query\":{query},\"unit\":{unit},\"version\":{version},\
                     \"pressure_at_plan\":{},\"expected_s\":{},\"solo_s\":{},\
                     \"solo_best_s\":{}",
                    json_f64(*pressure_at_plan),
                    json_f64(*expected_s),
                    json_f64(*solo_s),
                    json_f64(*solo_best_s)
                );
            }
            TraceEventKind::Completed {
                query,
                model,
                latency_s,
                qos_s,
            }
            | TraceEventKind::Violated {
                query,
                model,
                latency_s,
                qos_s,
            } => {
                let _ = write!(
                    out,
                    "\"query\":{query},\"model\":\"{}\",\"latency_s\":{},\"qos_s\":{}",
                    escape(model_name(model)),
                    json_f64(*latency_s),
                    json_f64(*qos_s)
                );
            }
            TraceEventKind::NodeJoined { node }
            | TraceEventKind::NodeStalled { node }
            | TraceEventKind::NodeRecovered { node }
            | TraceEventKind::NodeDraining { node }
            | TraceEventKind::NodeKilled { node }
            | TraceEventKind::NodeRetired { node }
            | TraceEventKind::ScaleIn { node } => {
                let _ = write!(out, "\"node\":{node}");
            }
            TraceEventKind::ScaleOut { added } => {
                let _ = write!(out, "\"added\":{added}");
            }
        }
    }
}

/// JSON-safe rendering of an `f64`: finite values print through Rust's
/// shortest-roundtrip formatter (valid JSON numbers, exponents
/// included); non-finite values — which never occur in virtual-time
/// streams but must not corrupt the file — become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping for names that reach the export.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The decomposition of one query's end-to-end latency, reconstructed
/// from its span chain by [`TraceLog::explain`].
///
/// `latency ≈ deferral_hold + queue_wait + execution`, and
/// `execution ≈ ideal + interference_excess + version_choice +
/// residual`, where the residual carries everything the per-block solo
/// ratings cannot see (later units of multi-layer blocks, mid-block
/// re-rating drift, inter-block gaps).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloAttribution {
    /// The trace id this attribution explains.
    pub query: u64,
    /// Model name.
    pub model: String,
    /// Final serving node's track name, when admitted anywhere.
    pub node: Option<String>,
    /// How the span chain ended.
    pub terminal: QueryTerminal,
    /// Front-door arrival, seconds of virtual time.
    pub submitted_s: f64,
    /// First successful admission instant, if any.
    pub first_admitted_s: Option<f64>,
    /// End-to-end latency, seconds (0 when shed or still open).
    pub latency_s: f64,
    /// The model's QoS target, seconds.
    pub qos_s: f64,
    /// Whether the completion missed its deadline.
    pub violated: bool,
    /// Deferral events in the chain.
    pub deferrals: u32,
    /// Requeue (drain/crash reroute) events in the chain.
    pub reroutes: u32,
    /// Dispatched blocks in the chain.
    pub dispatches: u32,
    /// Front-door hold: first admission minus submission.
    pub deferral_hold_s: f64,
    /// On-node queue wait: first dispatch minus first admission.
    pub queue_wait_s: f64,
    /// On-core span: completion minus first dispatch.
    pub execution_s: f64,
    /// Sum of best-version solo ratings over dispatched blocks — the
    /// latency floor the compiler could reach with no co-runners.
    pub ideal_s: f64,
    /// Interference slowdown: expected-under-co-location minus solo, at
    /// the chosen versions.
    pub interference_excess_s: f64,
    /// Version-choice cost: chosen-version solo minus best-version solo.
    pub version_choice_s: f64,
    /// Execution time the per-block ratings do not account for.
    pub residual_s: f64,
}

impl std::fmt::Display for SloAttribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |s: f64| s * 1e3;
        writeln!(
            f,
            "query {} ({}) — {}",
            self.query,
            self.model,
            match (self.terminal, self.violated) {
                (QueryTerminal::Shed, _) => "SHED at the front door".to_string(),
                (QueryTerminal::Open, _) => "still in flight".to_string(),
                (QueryTerminal::Completed, true) => format!(
                    "VIOLATED: {:.2} ms against a {:.2} ms target",
                    ms(self.latency_s),
                    ms(self.qos_s)
                ),
                (QueryTerminal::Completed, false) => format!(
                    "met SLO: {:.2} ms against a {:.2} ms target",
                    ms(self.latency_s),
                    ms(self.qos_s)
                ),
            }
        )?;
        if self.terminal == QueryTerminal::Shed {
            return write!(f, "  deferrals before shed: {}", self.deferrals);
        }
        writeln!(
            f,
            "  deferral hold  {:>8.3} ms  ({} deferral(s), {} reroute(s))",
            ms(self.deferral_hold_s),
            self.deferrals,
            self.reroutes
        )?;
        writeln!(f, "  queue wait     {:>8.3} ms", ms(self.queue_wait_s))?;
        writeln!(
            f,
            "  execution      {:>8.3} ms  over {} block(s), of which:",
            ms(self.execution_s),
            self.dispatches
        )?;
        writeln!(f, "    ideal (best solo) {:>8.3} ms", ms(self.ideal_s))?;
        writeln!(
            f,
            "    interference      {:>8.3} ms",
            ms(self.interference_excess_s)
        )?;
        writeln!(
            f,
            "    version choice    {:>8.3} ms",
            ms(self.version_choice_s)
        )?;
        write!(f, "    residual          {:>8.3} ms", ms(self.residual_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(events: Vec<TraceEvent>) -> TraceLog {
        TraceLog {
            events,
            tracks: vec!["coordinator".into(), "node-0".into()],
            classes: vec!["coordinator".into(), "8c/test".into()],
            models: vec!["m".into()],
        }
    }

    #[test]
    fn explain_decomposes_a_simple_chain() {
        let log = log_with(vec![
            TraceEvent {
                at_s: 0.0,
                track: 0,
                kind: TraceEventKind::Submitted { query: 3, model: 0 },
            },
            TraceEvent {
                at_s: 0.010,
                track: 0,
                kind: TraceEventKind::Admitted {
                    query: 3,
                    node: 0,
                    attempts: 1,
                },
            },
            TraceEvent {
                at_s: 0.015,
                track: 1,
                kind: TraceEventKind::Dispatched {
                    query: 3,
                    unit: 0,
                    version: 2,
                    pressure_at_plan: 0.4,
                    expected_s: 0.030,
                    solo_s: 0.020,
                    solo_best_s: 0.018,
                },
            },
            TraceEvent {
                at_s: 0.050,
                track: 1,
                kind: TraceEventKind::Completed {
                    query: 3,
                    model: 0,
                    latency_s: 0.050,
                    qos_s: 0.040,
                },
            },
        ]);
        let a = log.explain(3).expect("query in log");
        assert!(a.violated);
        assert_eq!(a.terminal, QueryTerminal::Completed);
        assert!((a.deferral_hold_s - 0.010).abs() < 1e-12);
        assert!((a.queue_wait_s - 0.005).abs() < 1e-12);
        assert!((a.execution_s - 0.035).abs() < 1e-12);
        assert!((a.interference_excess_s - 0.010).abs() < 1e-12);
        assert!((a.version_choice_s - 0.002).abs() < 1e-12);
        let recon = a.ideal_s + a.interference_excess_s + a.version_choice_s + a.residual_s;
        assert!((recon - a.execution_s).abs() < 1e-12);
        assert!(log.explain(99).is_none());
        assert_eq!(log.terminal(3), QueryTerminal::Completed);
        // Display renders without panicking and mentions the verdict.
        assert!(format!("{a}").contains("VIOLATED"));
    }

    #[test]
    fn chrome_json_is_wellformed_enough() {
        let log = log_with(vec![TraceEvent {
            at_s: 0.001,
            track: 1,
            kind: TraceEventKind::Dispatched {
                query: 0,
                unit: 0,
                version: 1,
                pressure_at_plan: 0.25,
                expected_s: 0.01,
                solo_s: 0.008,
                solo_best_s: 0.008,
            },
        }]);
        let json = log.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ts\":1000"));
        assert!(json.contains("\"pressure_at_plan\":0.25"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
