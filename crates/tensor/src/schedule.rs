//! Concrete schedules over GEMM-normalized loop nests.
//!
//! Schedules live in the tensor IR crate (not the compiler) because they
//! are a pure function of the loop nest: tile extents and an unroll factor
//! over a [`GemmView`]. The compiler's auto-scheduler searches this space.

use crate::loopnest::GemmView;

/// AVX2 FP32 vector width.
const VEC_LANES: usize = 8;

/// A concrete schedule: tile extents for the three GEMM loops plus the
/// inner-loop unroll factor.
///
/// The paper's two selection metrics derive directly from here:
/// *parallelism* = parallel chunk count x unroll factor (§4.1's
/// "multiplying the loop unrolling factor and parallelization factor"),
/// and *locality* ("blocking size") = bytes of one worker's tile working
/// set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Schedule {
    /// Tile extent along `m` (rows of A / C).
    pub tm: usize,
    /// Tile extent along `n` (columns of B / C).
    pub tn: usize,
    /// Tile extent along the reduction `k`.
    pub tk: usize,
    /// Inner-loop unroll factor.
    pub unroll: usize,
}

impl Schedule {
    /// Creates a schedule, clamping tiles to the loop extents.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn new(g: &GemmView, tm: usize, tn: usize, tk: usize, unroll: usize) -> Self {
        assert!(
            tm > 0 && tn > 0 && tk > 0 && unroll > 0,
            "schedule parameters must be positive"
        );
        Self {
            tm: tm.min(g.m),
            tn: tn.min(g.n),
            tk: tk.min(g.k),
            unroll,
        }
    }

    /// Number of independent parallel chunks (outer tiles x batch).
    #[must_use]
    pub fn parallel_chunks(&self, g: &GemmView) -> u32 {
        let chunks = g.batch * div_ceil(g.m, self.tm) * div_ceil(g.n, self.tn);
        u32::try_from(chunks.min(u32::MAX as usize)).expect("clamped above")
    }

    /// The paper's parallelism metric: chunk count x unroll factor.
    #[must_use]
    pub fn parallelism(&self, g: &GemmView) -> f64 {
        f64::from(self.parallel_chunks(g)) * self.unroll as f64
    }

    /// The paper's locality metric ("blocking size"): bytes of one worker's
    /// tile working set (A tile + B tile + C tile).
    #[must_use]
    pub fn locality_bytes(&self, g: &GemmView) -> f64 {
        ((self.tm * self.tk + self.tk * self.tn + self.tm * self.tn) * g.elem_bytes) as f64
    }

    /// Sustained fraction of peak FLOPs for this schedule's inner loop:
    /// vectorization x unroll quality x tile amortization x boundary waste.
    #[must_use]
    pub fn compute_efficiency(&self, g: &GemmView) -> f64 {
        // Vector utilization: the wider of the two output-tile extents is
        // vectorized; short extents waste lanes.
        let vec_extent = self.tm.max(self.tn);
        let eff_vec = (vec_extent as f64 / VEC_LANES as f64).min(1.0);
        // Unroll quality: too little exposes loop overhead, too much spills
        // registers / thrashes the uop cache.
        let eff_unroll = match self.unroll {
            1 => 0.70,
            2 => 0.80,
            4 => 0.90,
            8 => 1.00,
            16 => 0.97,
            _ => 0.88,
        };
        // Tile amortization of prologue/pointer math.
        let work = (self.tm * self.tn * self.tk) as f64;
        let eff_tile = work / (work + 512.0);
        // Partial boundary tiles run at reduced SIMD utilization.
        let eff_boundary = 0.75 + 0.25 * full_frac(g.m, self.tm) * full_frac(g.n, self.tn);
        // Reduction-depth amortization: a microkernel accumulates one
        // output tile over `tk` FMA steps, so short chains pay the pipeline
        // ramp and the C-tile load/store on every chunk. This is why
        // 1x1 convolutions and depthwise layers run far below peak on real
        // CPUs while deep 3x3 reductions approach it — the heterogeneity
        // behind the paper's conflict-prone layers (Fig. 4a/4b).
        let tk = self.tk as f64;
        let eff_reduction = tk / (tk + 64.0);
        (0.95 * eff_vec * eff_unroll * eff_tile * eff_boundary * eff_reduction).clamp(0.02, 0.95)
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tm{}xtn{}xtk{}u{}",
            self.tm, self.tn, self.tk, self.unroll
        )
    }
}

/// Fraction of a dimension covered by full tiles.
fn full_frac(extent: usize, tile: usize) -> f64 {
    if tile >= extent {
        1.0
    } else {
        ((extent / tile) * tile) as f64 / extent as f64
    }
}

fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// The tile ladder for a loop extent: powers of two up to the extent, plus
/// the extent itself.
#[must_use]
pub fn tile_ladder(extent: usize) -> Vec<usize> {
    let mut ladder = Vec::new();
    let mut t = 1;
    while t < extent {
        ladder.push(t);
        t *= 2;
    }
    ladder.push(extent);
    ladder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::shape::FeatureMap;

    fn gemm() -> GemmView {
        // The paper's Fig. 6 exemplar conv: 14x14 map, 256 channels, 3x3.
        let l = Layer::conv2d(
            "c",
            FeatureMap::nchw(1, 256, 14, 14),
            256,
            (3, 3),
            (1, 1),
            (1, 1),
        );
        GemmView::of(&l).unwrap()
    }

    #[test]
    fn ladder_contains_extremes() {
        assert_eq!(tile_ladder(1), vec![1]);
        assert_eq!(tile_ladder(8), vec![1, 2, 4, 8]);
        assert_eq!(tile_ladder(196), vec![1, 2, 4, 8, 16, 32, 64, 128, 196]);
    }

    #[test]
    fn chunks_shrink_with_bigger_tiles() {
        let g = gemm();
        let fine = Schedule::new(&g, 7, 16, 256, 4);
        let coarse = Schedule::new(&g, 98, 128, 256, 4);
        assert!(fine.parallel_chunks(&g) > coarse.parallel_chunks(&g));
    }

    #[test]
    fn locality_grows_with_bigger_tiles() {
        let g = gemm();
        let fine = Schedule::new(&g, 7, 16, 64, 4);
        let coarse = Schedule::new(&g, 98, 128, 1024, 4);
        assert!(coarse.locality_bytes(&g) > 10.0 * fine.locality_bytes(&g));
    }

    #[test]
    fn tiles_are_clamped_to_extents() {
        let g = gemm();
        let s = Schedule::new(&g, 10_000, 10_000, 10_000, 8);
        assert_eq!(s.tm, g.m);
        assert_eq!(s.tn, g.n);
        assert_eq!(s.tk, g.k);
        assert_eq!(s.parallel_chunks(&g), 1);
    }

    #[test]
    fn efficiency_prefers_bigger_tiles_and_unroll_8() {
        let g = gemm();
        let small = Schedule::new(&g, 2, 2, 8, 1);
        let big = Schedule::new(&g, 28, 64, 256, 8);
        assert!(big.compute_efficiency(&g) > small.compute_efficiency(&g));
        let u8 = Schedule::new(&g, 28, 64, 256, 8);
        let u1 = Schedule::new(&g, 28, 64, 256, 1);
        assert!(u8.compute_efficiency(&g) > u1.compute_efficiency(&g));
    }

    #[test]
    fn efficiency_is_bounded() {
        let g = gemm();
        for tm in tile_ladder(g.m) {
            for unroll in [1, 2, 4, 8, 16, 32] {
                let s = Schedule::new(&g, tm, 64, 128, unroll);
                let e = s.compute_efficiency(&g);
                assert!((0.02..=0.95).contains(&e));
            }
        }
    }

    #[test]
    fn parallelism_metric_multiplies_unroll() {
        let g = gemm();
        let s1 = Schedule::new(&g, 14, 32, 256, 1);
        let s8 = Schedule::new(&g, 14, 32, 256, 8);
        assert!((s8.parallelism(&g) - 8.0 * s1.parallelism(&g)).abs() < 1e-9);
    }
}
