//! Lowering: schedule + layer -> [`KernelProfile`] for the machine model.

use veltair_sim::KernelProfile;
use veltair_tensor::{FusedUnit, GemmView, Schedule};

/// Lowers a scheduled GEMM-family unit into its execution profile.
///
/// Traffic accounting (the heart of the parallelism/locality tradeoff):
///
/// * *resident* (`min_traffic`): every operand streams from DRAM once —
///   with the working set L3-resident all cross-tile reuse hits cache;
/// * *spilled* (`spill_traffic`): with no effective L3, operand A is
///   re-fetched once per `n`-tile, operand B once per `m`-tile, and the
///   output is re-read/written once per extra `k`-tile (partial sums).
///
/// Bigger tiles therefore mean *less* spill traffic but a *larger*
/// footprint that is easier to evict — exactly the paper's Fig. 9 tradeoff.
#[must_use]
pub fn lower_gemm(unit: &FusedUnit, g: &GemmView, s: &Schedule) -> KernelProfile {
    GemmLowering::new(unit, g).lower(s)
}

/// [`lower_gemm`] for one unit, with the schedule-independent totals
/// computed once: the search lowers every candidate of a unit through one
/// of these.
pub(crate) struct GemmLowering<'a> {
    g: &'a GemmView,
    flops: f64,
    a_bytes: f64,
    b_bytes: f64,
    c_bytes: f64,
    /// Fused epilogue inputs (residual operands, affine params) that
    /// stream once.
    epilogue_extra: f64,
    min_traffic: f64,
}

impl<'a> GemmLowering<'a> {
    pub(crate) fn new(unit: &FusedUnit, g: &'a GemmView) -> Self {
        let (input, weight) = (unit.input_bytes(), unit.weight_bytes());
        let (a_bytes, b_bytes) = (g.a_bytes(), g.b_bytes());
        Self {
            g,
            flops: unit.flops(),
            a_bytes,
            b_bytes,
            c_bytes: g.c_bytes(),
            epilogue_extra: (input - a_bytes).max(0.0) + (weight - b_bytes).max(0.0),
            min_traffic: input + weight + unit.output_bytes(),
        }
    }

    pub(crate) fn lower(&self, s: &Schedule) -> KernelProfile {
        let g = self.g;
        let tiles_m = g.m.div_ceil(s.tm) as f64;
        let tiles_n = g.n.div_ceil(s.tn) as f64;
        let tiles_k = g.k.div_ceil(s.tk) as f64;
        // `2 * tiles_k` is exact, so this rounds once, as a fused
        // multiply-add would.
        let spill_traffic = self.a_bytes * tiles_n
            + self.b_bytes * tiles_m
            + self.c_bytes * (2.0 * tiles_k - 1.0)
            + self.epilogue_extra;

        KernelProfile {
            flops: self.flops,
            compute_efficiency: s.compute_efficiency(g),
            parallel_chunks: s.parallel_chunks(g),
            // Shared panel: the full B slab of the current k-tile, reused by
            // every worker sweeping its output tiles.
            footprint_base_bytes: (s.tk * g.n * g.elem_bytes) as f64,
            footprint_per_core_bytes: s.locality_bytes(g),
            min_traffic_bytes: self.min_traffic,
            spill_traffic_bytes: spill_traffic.max(self.min_traffic),
        }
    }
}

/// Lowers a non-GEMM unit (pooling, softmax, standalone element-wise) to a
/// fixed streaming profile: bandwidth-bound, cache-oblivious, embarrassingly
/// parallel over rows.
#[must_use]
pub fn lower_streaming(unit: &FusedUnit) -> KernelProfile {
    let bytes = unit.total_bytes();
    // Row-parallel streaming kernels: one chunk per ~16 KB of data, capped.
    let chunks = ((bytes / 16.0e3).ceil() as u32).clamp(1, 4096);
    KernelProfile {
        flops: unit.flops().max(1.0),
        // Element-wise / reduction ops cannot keep the FMA pipes busy.
        compute_efficiency: 0.25,
        parallel_chunks: chunks,
        footprint_base_bytes: 0.0,
        // A line buffer per worker.
        footprint_per_core_bytes: 64.0e3,
        min_traffic_bytes: bytes,
        spill_traffic_bytes: bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_sim::{execute, Interference, MachineConfig};
    use veltair_tensor::{FeatureMap, Layer, OpKind, PoolKind};

    fn conv_unit() -> (FusedUnit, GemmView) {
        let l = Layer::conv2d(
            "c",
            FeatureMap::nchw(1, 256, 14, 14),
            256,
            (3, 3),
            (1, 1),
            (1, 1),
        );
        let g = GemmView::of(&l).unwrap();
        (FusedUnit::solo(l), g)
    }

    #[test]
    fn profiles_validate() {
        let (u, g) = conv_unit();
        for tm in [1, 7, 14, 49, 196] {
            for tn in [8, 64, 256] {
                for tk in [64, 512, 2304] {
                    let s = Schedule::new(&g, tm, tn, tk, 8);
                    assert!(lower_gemm(&u, &g, &s).validate().is_ok());
                }
            }
        }
    }

    #[test]
    fn bigger_tiles_mean_less_spill_more_footprint() {
        let (u, g) = conv_unit();
        let fine = lower_gemm(&u, &g, &Schedule::new(&g, 7, 16, 128, 4));
        let coarse = lower_gemm(&u, &g, &Schedule::new(&g, 98, 128, 2304, 4));
        assert!(coarse.spill_traffic_bytes < fine.spill_traffic_bytes);
        assert!(coarse.footprint_per_core_bytes > fine.footprint_per_core_bytes);
        assert!(coarse.parallel_chunks < fine.parallel_chunks);
    }

    #[test]
    fn min_traffic_is_tile_independent() {
        let (u, g) = conv_unit();
        let a = lower_gemm(&u, &g, &Schedule::new(&g, 7, 16, 128, 4));
        let b = lower_gemm(&u, &g, &Schedule::new(&g, 196, 256, 2304, 8));
        assert!((a.min_traffic_bytes - b.min_traffic_bytes).abs() < 1e-6);
        assert!((a.min_traffic_bytes - u.total_bytes()).abs() < 1e-6);
    }

    #[test]
    fn lowered_profiles_reproduce_fig6_crossover() {
        // End-to-end sanity: compiled-from-schedule profiles must show the
        // locality-solo / parallel-contended crossover on the machine model.
        let (u, g) = conv_unit();
        let machine = MachineConfig::threadripper_3990x();
        // The locality schedule still exposes 16 chunks so both versions can
        // occupy the 16 allocated cores; it differs in tile size only.
        let local = lower_gemm(&u, &g, &Schedule::new(&g, 49, 64, 2304, 8));
        let par = lower_gemm(&u, &g, &Schedule::new(&g, 7, 16, 256, 8));
        let l_solo = execute(&local, 16, Interference::NONE, &machine).latency_s;
        let p_solo = execute(&par, 16, Interference::NONE, &machine).latency_s;
        let l_high = execute(&local, 16, Interference::level(0.95), &machine).latency_s;
        let p_high = execute(&par, 16, Interference::level(0.95), &machine).latency_s;
        assert!(
            l_solo < p_solo,
            "locality schedule must win solo: {l_solo} vs {p_solo}"
        );
        assert!(
            p_high < l_high,
            "parallel schedule must win contended: {p_high} vs {l_high}"
        );
    }

    #[test]
    fn streaming_profile_is_bandwidth_bound() {
        let pool = Layer::new(
            "pool",
            OpKind::Pool {
                kind: PoolKind::Max,
                kernel: (3, 3),
                stride: (2, 2),
            },
            FeatureMap::nchw(1, 64, 112, 112),
        );
        let p = lower_streaming(&FusedUnit::solo(pool));
        assert!(p.validate().is_ok());
        assert_eq!(p.min_traffic_bytes, p.spill_traffic_bytes);
        let machine = MachineConfig::threadripper_3990x();
        // Bandwidth contention should hurt a streaming kernel.
        let solo = execute(&p, 8, Interference::NONE, &machine).latency_s;
        let jam = execute(
            &p,
            8,
            Interference {
                cache_frac: 0.0,
                bw_frac: 0.9,
            },
            &machine,
        )
        .latency_s;
        assert!(jam > 2.0 * solo);
    }

    #[test]
    fn fused_residual_operand_reaches_traffic() {
        let conv = Layer::conv2d(
            "c",
            FeatureMap::nchw(1, 64, 28, 28),
            64,
            (1, 1),
            (1, 1),
            (0, 0),
        );
        let out = conv.output();
        let g = GemmView::of(&conv).unwrap();
        let solo_unit = FusedUnit::solo(conv.clone());
        let fused = FusedUnit {
            base: conv,
            epilogue: vec![Layer::new("add", OpKind::EltwiseAdd, out)],
        };
        let s = Schedule::new(&g, 49, 64, 64, 8);
        let a = lower_gemm(&solo_unit, &g, &s);
        let b = lower_gemm(&fused, &g, &s);
        assert!(b.min_traffic_bytes > a.min_traffic_bytes);
        assert!(b.spill_traffic_bytes > a.spill_traffic_bytes);
    }
}
