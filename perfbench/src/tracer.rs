//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark's side: name, start, end, the enclosing span, and the id of
//! the simulation run it belongs to. Hot per-event timings (driver steps,
//! projection probes) would swamp the span list, so they are kept as
//! plain nanosecond samples instead. With tracing off every entry point
//! is a single branch and nothing is recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub run: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span and sample recorder; inert unless built with [`Tracer::on`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            samples: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new simulation run: spans opened from now on share its id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Runs `f` inside a span named `name` and returns its result and its
    /// duration in nanoseconds. The duration is measured whether or not
    /// tracing is on; only the span record depends on it.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                run: self.run,
                parent: self.open.last().copied(),
                start_ns: self.since_origin(start),
                end_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = index {
            self.open.pop();
            self.spans[i].end_ns = self.since_origin(end);
        }
        (out, nanos(end - start))
    }

    /// Records one nanosecond sample under `name` (traced runs only).
    pub fn sample(&mut self, name: &'static str, ns: u64) {
        if self.enabled {
            self.samples.entry(name).or_default().push(ns as f64);
        }
    }

    /// All samples recorded under `name`, nanoseconds.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Serializes the recorded spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.run, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }

    fn since_origin(&self, t: Instant) -> u64 {
        nanos(t - self.origin)
    }
}

/// Whole nanoseconds of a duration, saturating.
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// CPU time the process has used, nanoseconds. Host time is measured on
/// this clock: the benchmark runs on one thread, so it covers all of its
/// work, and on a virtual machine it leaves out the time the hypervisor
/// hands the core to another guest, which wall time counts.
#[cfg(target_os = "linux")]
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Elsewhere, wall time since the first call.
#[cfg(not(target_os = "linux"))]
pub fn cpu_ns() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    nanos(ORIGIN.get_or_init(Instant::now).elapsed())
}
