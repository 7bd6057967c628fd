//! Synthetic address traces of tiled GEMM loop nests.
//!
//! The compiler schedules a GEMM-normalized loop nest by choosing tile
//! extents `(tm, tn, tk)`; this module emits the byte-address stream such a
//! tiled kernel issues, so the cache simulator can measure the *actual*
//! DRAM traffic of a schedule and compare it with the analytic closed form.

use veltair_compiler::Schedule;

/// Problem dimensions of a (possibly scaled-down) GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmDims {
    /// Rows of A and C.
    pub m: usize,
    /// Columns of B and C.
    pub n: usize,
    /// Reduction depth.
    pub k: usize,
    /// Bytes per element.
    pub elem_bytes: usize,
}

impl GemmDims {
    /// Creates GEMM dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(m: usize, n: usize, k: usize, elem_bytes: usize) -> Self {
        assert!(
            m > 0 && n > 0 && k > 0 && elem_bytes > 0,
            "GEMM dimensions must be positive"
        );
        Self {
            m,
            n,
            k,
            elem_bytes,
        }
    }

    /// Total bytes of the three operand matrices.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        ((self.m * self.k + self.k * self.n + self.m * self.n) * self.elem_bytes) as u64
    }

    /// Bytes of one worker's tile working set under a schedule (the
    /// analytic "locality" metric, for cross-checking).
    #[must_use]
    pub fn tile_bytes(&self, s: &Schedule) -> u64 {
        let tm = s.tm.min(self.m);
        let tn = s.tn.min(self.n);
        let tk = s.tk.min(self.k);
        ((tm * tk + tk * tn + tm * tn) * self.elem_bytes) as u64
    }
}

/// Downsampling control: emitting every element touch of even a small GEMM
/// produces hundreds of millions of accesses. The trace strides element
/// loops by the cache-line granularity instead — one access per distinct
/// line per tile pass — which preserves miss counts exactly for unit-stride
/// loops (every element of a resident line hits anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceScale {
    /// Cache line size assumed when striding, bytes.
    pub line_bytes: usize,
}

impl Default for TraceScale {
    fn default() -> Self {
        Self { line_bytes: 64 }
    }
}

/// A lazily generated address trace of one tiled GEMM execution.
///
/// Loop order is the canonical `(io, jo, ko)` tile order with A-tile,
/// B-tile, C-tile touches inside — the same reuse structure the analytic
/// model assumes: C tiles are revisited across `ko`, A panels across `jo`,
/// B panels across `io`.
#[derive(Debug, Clone)]
pub struct GemmTrace {
    dims: GemmDims,
    schedule: Schedule,
    scale: TraceScale,
    /// Distinct base addresses for A, B, C regions (line-aligned, far
    /// apart so regions never alias).
    bases: [u64; 3],
}

impl GemmTrace {
    /// Creates a trace generator for one schedule of one GEMM.
    #[must_use]
    pub fn new(dims: GemmDims, schedule: Schedule, scale: TraceScale) -> Self {
        let region = (dims.total_bytes() * 2).next_power_of_two();
        Self {
            dims,
            schedule,
            scale,
            bases: [0, region, 2 * region],
        }
    }

    /// The schedule being traced.
    #[must_use]
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Emits the full address stream into a vector.
    ///
    /// Row-major layouts: `A[m][k]`, `B[k][n]`, `C[m][n]`. One address per
    /// cache line per tile pass (see [`TraceScale`]).
    #[must_use]
    pub fn addresses(&self) -> Vec<u64> {
        let d = self.dims;
        let line = self.scale.line_bytes;
        let eb = d.elem_bytes;
        let step = (line / eb).max(1);
        let tm = self.schedule.tm.min(d.m);
        let tn = self.schedule.tn.min(d.n);
        let tk = self.schedule.tk.min(d.k);

        let mut out = Vec::new();
        let touch_tile = |out: &mut Vec<u64>,
                          base: u64,
                          row_len: usize,
                          total_rows: usize,
                          r0: usize,
                          rows: usize,
                          c0: usize,
                          cols: usize| {
            for r in r0..(r0 + rows).min(total_rows) {
                let row_start = r * row_len;
                let c_end = (c0 + cols).min(row_len);
                let mut c = c0;
                while c < c_end {
                    out.push(base + ((row_start + c) * eb) as u64);
                    c += step;
                }
            }
        };

        let mut io = 0;
        while io < d.m {
            let mut jo = 0;
            while jo < d.n {
                let mut ko = 0;
                while ko < d.k {
                    // A tile: rows io..io+tm, cols ko..ko+tk of A[m][k].
                    touch_tile(&mut out, self.bases[0], d.k, d.m, io, tm, ko, tk);
                    // B tile: rows ko..ko+tk, cols jo..jo+tn of B[k][n].
                    touch_tile(&mut out, self.bases[1], d.n, d.k, ko, tk, jo, tn);
                    // C tile: rows io..io+tm, cols jo..jo+tn of C[m][n].
                    touch_tile(&mut out, self.bases[2], d.n, d.m, io, tm, jo, tn);
                    ko += tk;
                }
                jo += tn;
            }
            io += tm;
        }
        out
    }

    /// Number of distinct cache lines the three matrices span (the
    /// compulsory miss count).
    #[must_use]
    pub fn compulsory_lines(&self) -> u64 {
        let d = self.dims;
        let line = self.scale.line_bytes;
        let lines_of = |rows: usize, row_len: usize| -> u64 {
            // Row-major rows are contiguous; distinct lines per row depend
            // on alignment, bounded by ceil(row_bytes / line) + 1; rows are
            // packed back to back so count the whole region.
            let bytes = rows * row_len * d.elem_bytes;
            bytes.div_ceil(line) as u64
        };
        lines_of(d.m, d.k) + lines_of(d.k, d.n) + lines_of(d.m, d.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_tensor::{FeatureMap, GemmView, Layer};

    fn dims() -> GemmDims {
        GemmDims::new(64, 64, 64, 4)
    }

    fn schedule(tm: usize, tn: usize, tk: usize) -> Schedule {
        let l = Layer::conv2d(
            "c",
            FeatureMap::nchw(1, 64, 8, 8),
            64,
            (1, 1),
            (1, 1),
            (0, 0),
        );
        let g = GemmView::of(&l).unwrap();
        Schedule::new(&g, tm, tn, tk, 4)
    }

    #[test]
    fn trace_is_nonempty_and_line_aligned_regions() {
        let t = GemmTrace::new(dims(), schedule(16, 16, 16), TraceScale::default());
        let addrs = t.addresses();
        assert!(!addrs.is_empty());
        // All addresses fall inside one of the three regions.
        let region = (dims().total_bytes() * 2).next_power_of_two();
        assert!(addrs.iter().all(|&a| a < 3 * region));
    }

    #[test]
    fn access_count_scales_with_tile_passes() {
        // Smaller k tiles revisit A/B/C more often -> longer trace.
        let fine = GemmTrace::new(dims(), schedule(8, 8, 8), TraceScale::default());
        let coarse = GemmTrace::new(dims(), schedule(64, 64, 64), TraceScale::default());
        assert!(fine.addresses().len() > coarse.addresses().len());
    }

    #[test]
    fn single_tile_trace_touches_each_line_once() {
        // With one tile covering the whole problem, the trace must touch
        // exactly the compulsory lines (every line once).
        let d = dims();
        let t = GemmTrace::new(d, schedule(64, 64, 64), TraceScale::default());
        let mut lines: Vec<u64> = t.addresses().iter().map(|a| a / 64).collect();
        let total = lines.len() as u64;
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(
            lines.len() as u64,
            total,
            "single pass must not repeat lines"
        );
        assert_eq!(total, t.compulsory_lines());
    }

    #[test]
    fn deterministic_trace() {
        let t = GemmTrace::new(dims(), schedule(16, 32, 8), TraceScale::default());
        assert_eq!(t.addresses(), t.addresses());
    }

    #[test]
    fn tile_bytes_matches_analytic_locality() {
        let d = dims();
        let s = schedule(16, 16, 16);
        assert_eq!(d.tile_bytes(&s), ((16 * 16) * 3 * 4) as u64);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_panics() {
        let _ = GemmDims::new(0, 4, 4, 4);
    }
}
