//! Host speed, sampled between timed units.
//!
//! On a shared host the same code runs at different speeds from one
//! second to the next: another guest on the sibling hyperthread, cache
//! and memory-bandwidth contention. CPU time leaves that in. So a fixed
//! reference kernel, the kind of work the simulator does (ordered-map
//! updates and lookups over a few MiB, hashing, floating point, a sort),
//! is timed between units, and a unit's host time is divided by the
//! kernel's time around it (see [`unit_ns`]). The result is scaled back
//! to seconds with [`REFERENCE_NS`]: host seconds on a machine that runs
//! the kernel in that time. Pooled over many fleet slices, a unit's time
//! moves with the kernel's at a slope near 1, so the ratio keeps the
//! simulator's own cost and drops the host's speed.
//!
//! The state is per thread, and inert until [`start`] is called.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;

use crate::metrics::median;
use crate::tracer::cpu_ns;

/// The kernel runs again once this much CPU time has passed since its
/// last sample.
const INTERVAL_NS: u64 = 200_000_000;
/// Entries of the kernel's ordered map, and per sample: its operations,
/// the hashed and floating-point steps, and the values sorted.
const MAP_ENTRIES: u64 = 65_536;
const OPS: usize = 16_384;
const HASHED: u64 = 32_768;
const SORTED: usize = 4_096;
/// Nominal kernel time, nanoseconds.
pub const REFERENCE_NS: f64 = 8e6;
/// A unit observed at least this often is costed by its fastest
/// observation; one seen less often, by its median.
const FASTEST_FROM: usize = 5;
/// Samples on each side of an observation that its fastest nearby
/// kernel time is taken from (about 0.8 s of CPU time each way).
const WINDOW: usize = 4;

struct Calibrator {
    samples: Vec<u64>,
    last: u64,
    map: BTreeMap<u64, u64>,
    rng: u64,
}

thread_local! {
    static CALIBRATOR: RefCell<Option<Calibrator>> = const { RefCell::new(None) };
}

impl Calibrator {
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// One timed run of the kernel, CPU nanoseconds.
    fn sample(&mut self) -> u64 {
        let start = cpu_ns();
        let mut acc = 0u64;
        for _ in 0..OPS {
            let (k, v, q) = (self.next(), self.next(), self.next());
            if let Some(old) = self.map.insert(k % MAP_ENTRIES, v) {
                acc = acc.wrapping_add(old);
            }
            if let Some((_, v)) = self.map.range(q % MAP_ENTRIES..).next() {
                acc ^= *v;
            }
        }
        let mut counts = HashMap::new();
        let mut f = 0.0f64;
        for i in 0..HASHED {
            let x = self.next();
            *counts.entry(x % 8_192).or_insert(0u64) += i;
            f += ((x >> 11) as f64).sqrt() * 1.0001 + (f * 0.5).sin();
        }
        let mut sorted: Vec<u64> = (0..SORTED).map(|_| self.next()).collect();
        sorted.sort_unstable();
        black_box((acc, counts, f, sorted));
        cpu_ns() - start
    }
}

/// Builds this thread's kernel state (untimed) and takes a first sample.
pub fn start() {
    let mut c = Calibrator {
        samples: Vec::new(),
        last: 0,
        map: BTreeMap::new(),
        rng: 0x9E37_79B9_7F4A_7C15,
    };
    for k in 0..MAP_ENTRIES {
        c.map.insert(k, k);
    }
    c.sample();
    CALIBRATOR.with(|cell| *cell.borrow_mut() = Some(c));
    checkpoint(true);
}

/// Samples the kernel when it is due, or now if `force`, and returns the
/// number of samples taken so far (0 before [`start`]). Call it just
/// before a unit's clock starts; the unit then lies between sample
/// `returned - 1` and sample `returned`.
pub fn checkpoint(force: bool) -> usize {
    CALIBRATOR.with(|cell| {
        let mut cell = cell.borrow_mut();
        let Some(c) = cell.as_mut() else {
            return 0;
        };
        if force || cpu_ns() - c.last >= INTERVAL_NS {
            let ns = c.sample();
            c.samples.push(ns);
            c.last = cpu_ns();
        }
        c.samples.len()
    })
}

/// Every sample so far, CPU nanoseconds.
pub fn samples() -> Vec<u64> {
    CALIBRATOR.with(|cell| {
        cell.borrow()
            .as_ref()
            .map_or(Vec::new(), |c| c.samples.clone())
    })
}

/// A unit's host time, in reference nanoseconds, from its observations
/// `(ns, at)`: one per pass, each taken after `at` samples.
///
/// Host noise only ever adds time. A unit seen [`FASTEST_FROM`] times or
/// more (the fleet's slices, set-ups) is costed by its fastest
/// observation relative to the fastest kernel sample near it, which
/// fleet runs showed to be the steadiest reading. A unit seen once or
/// twice (a long driver run or capacity search, in a pass that fills
/// most of a run) has no fast observation to pick, so each observation
/// is divided by the mean of the two samples around it and the median is
/// taken. With no samples the raw median is returned.
pub fn unit_ns(obs: &[(u64, usize)], samples: &[u64]) -> f64 {
    let raw: Vec<f64> = obs.iter().map(|&(ns, _)| ns as f64).collect();
    if samples.is_empty() {
        return median(&raw);
    }
    let last = samples.len() - 1;
    let at = |i: usize| samples[i.min(last)] as f64;
    if obs.len() >= FASTEST_FROM {
        let fastest = obs
            .iter()
            .map(|&(ns, i)| {
                let near = (i.saturating_sub(WINDOW)..i + WINDOW)
                    .map(at)
                    .fold(f64::INFINITY, f64::min);
                ns as f64 / near
            })
            .fold(f64::INFINITY, f64::min);
        return fastest * REFERENCE_NS;
    }
    let normalized: Vec<f64> = obs
        .iter()
        .map(|&(ns, i)| ns as f64 * REFERENCE_NS / (0.5 * (at(i.saturating_sub(1)) + at(i))))
        .collect();
    median(&normalized)
}
