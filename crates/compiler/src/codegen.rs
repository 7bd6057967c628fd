//! Code generation: schedules rendered as explicit tiled loop nests.
//!
//! The paper names user-visible generated code as a core advantage of
//! compiling over vendor libraries (§2.2). This module is that surface for
//! the reproduction's hand-rolled compiler: a [`Schedule`] over a
//! [`GemmView`] lowers to a [`LoopNestProgram`] — the concrete loop
//! structure with parallel / unroll / vectorize annotations and boundary
//! epilogues — which pretty-prints as pseudo-C and self-verifies that the
//! transformation preserved the iteration space.
//!
//! # Example
//!
//! ```
//! use veltair_compiler::{codegen, Schedule};
//! use veltair_tensor::{FeatureMap, GemmView, Layer};
//!
//! let conv = Layer::conv2d("c3", FeatureMap::nchw(1, 256, 14, 14), 256, (3, 3), (1, 1), (1, 1));
//! let g = GemmView::of(&conv).unwrap();
//! let program = codegen::generate("c3", &g, &Schedule::new(&g, 28, 64, 256, 8));
//! assert!(program.verify().is_ok());
//! println!("{program}");
//! ```

use veltair_tensor::GemmView;

use crate::schedule::Schedule;

/// AVX2 FP32 vector width the generated inner loops target.
pub const VECTOR_LANES: usize = 8;

/// FP32 vector registers available to the microkernel accumulator tile.
pub const VECTOR_REGISTERS: usize = 16;

/// How a generated loop executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopAnnotation {
    /// Plain sequential loop.
    Serial,
    /// Work-shared across the thread team (`#pragma omp parallel for`).
    Parallel,
    /// Fully unrolled by the given factor.
    Unroll(usize),
    /// SIMD-vectorized with the given lane count.
    Vectorize(usize),
}

/// One level of the generated loop nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopLevel {
    /// Induction variable name.
    pub var: String,
    /// Loop extent (iteration domain size in elements).
    pub extent: usize,
    /// Step per iteration (tile extent for outer loops, 1 or lane count
    /// inside).
    pub step: usize,
    /// Execution annotation.
    pub annotation: LoopAnnotation,
}

impl LoopLevel {
    /// Number of times the loop body runs (boundary tiles included).
    #[must_use]
    pub fn trips(&self) -> usize {
        self.extent.div_ceil(self.step)
    }

    /// Whether the final trip is a partial (boundary) tile.
    #[must_use]
    pub fn has_boundary(&self) -> bool {
        !self.extent.is_multiple_of(self.step)
    }
}

/// The register-resident innermost computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroKernel {
    /// Output rows held in accumulators.
    pub acc_rows: usize,
    /// Output vector columns held in accumulators.
    pub acc_vecs: usize,
    /// SIMD lanes per vector.
    pub lanes: usize,
    /// Reduction steps per invocation.
    pub k_steps: usize,
}

impl MicroKernel {
    /// Vector registers the accumulator tile occupies.
    #[must_use]
    pub fn register_pressure(&self) -> usize {
        // Accumulators plus one A broadcast and one B load in flight.
        self.acc_rows * self.acc_vecs + 2
    }

    /// Whether the accumulator tile fits the architectural register file.
    #[must_use]
    pub fn fits_registers(&self) -> bool {
        self.register_pressure() <= VECTOR_REGISTERS
    }
}

/// Problems detected by [`LoopNestProgram::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenIssue {
    /// The loop nest's iteration space does not multiply out to `m*n*k`.
    IterationSpaceMismatch {
        /// MACs the generated nest executes.
        generated: u128,
        /// MACs the GEMM requires.
        required: u128,
    },
    /// A loop step exceeds its extent (degenerate tiling).
    DegenerateLoop {
        /// The loop's induction variable.
        var: String,
    },
}

impl std::fmt::Display for CodegenIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenIssue::IterationSpaceMismatch {
                generated,
                required,
            } => {
                write!(
                    f,
                    "iteration space mismatch: generated {generated} MACs, required {required}"
                )
            }
            CodegenIssue::DegenerateLoop { var } => write!(f, "degenerate loop {var}"),
        }
    }
}

/// A generated tiled loop-nest program for one GEMM-family unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNestProgram {
    /// Kernel (unit) name.
    pub name: String,
    /// GEMM dimensions `(m, n, k)`.
    pub dims: (usize, usize, usize),
    /// Outer->inner loop levels.
    pub levels: Vec<LoopLevel>,
    /// The innermost register-tile computation.
    pub micro: MicroKernel,
}

/// Lowers a schedule over a GEMM view into an explicit loop-nest program.
///
/// The canonical structure mirrors what the analytic lowering assumes:
/// parallel outer tile loops over `m` and `n`, a serial reduction tile loop
/// over `k`, serial intra-tile row/column loops with the column loop
/// vectorized, and the reduction innermost, unrolled by the schedule's
/// factor.
#[must_use]
pub fn generate(name: &str, g: &GemmView, s: &Schedule) -> LoopNestProgram {
    let tm = s.tm.min(g.m);
    let tn = s.tn.min(g.n);
    let tk = s.tk.min(g.k);
    let lanes = VECTOR_LANES.min(tn);
    let unroll = s.unroll.min(tk);

    let mut levels = Vec::new();
    if g.batch > 1 {
        levels.push(LoopLevel {
            var: "b".into(),
            extent: g.batch,
            step: 1,
            annotation: LoopAnnotation::Parallel,
        });
    }
    levels.push(LoopLevel {
        var: "io".into(),
        extent: g.m,
        step: tm,
        annotation: LoopAnnotation::Parallel,
    });
    levels.push(LoopLevel {
        var: "jo".into(),
        extent: g.n,
        step: tn,
        annotation: LoopAnnotation::Parallel,
    });
    levels.push(LoopLevel {
        var: "ko".into(),
        extent: g.k,
        step: tk,
        annotation: LoopAnnotation::Serial,
    });
    levels.push(LoopLevel {
        var: "i".into(),
        extent: tm,
        step: 1,
        annotation: LoopAnnotation::Serial,
    });
    levels.push(LoopLevel {
        var: "j".into(),
        extent: tn,
        step: lanes,
        annotation: LoopAnnotation::Vectorize(lanes),
    });
    levels.push(LoopLevel {
        var: "kk".into(),
        extent: tk,
        step: unroll,
        annotation: LoopAnnotation::Unroll(unroll),
    });

    LoopNestProgram {
        name: name.to_string(),
        dims: (g.m, g.n, g.k),
        levels,
        micro: MicroKernel {
            acc_rows: 1,
            acc_vecs: 1,
            lanes,
            k_steps: unroll,
        },
    }
}

impl LoopNestProgram {
    /// Total multiply-accumulates the nest executes, walking full and
    /// boundary tiles exactly.
    #[must_use]
    pub fn total_macs(&self) -> u128 {
        // Outer tile loops partition their dimension exactly (the last
        // tile is clipped), and intra-tile loops are clipped against the
        // remainder; so each (m, n, k) point is visited exactly once per
        // batch element. Walk dimensions independently: per-dimension
        // coverage is exact, so the product is exact.
        let covered = |outer: Option<&LoopLevel>, extent: usize| -> u128 {
            match outer {
                Some(l) => {
                    debug_assert_eq!(l.extent, extent);
                    extent as u128
                }
                None => extent as u128,
            }
        };
        let batch = self
            .levels
            .iter()
            .find(|l| l.var == "b")
            .map_or(1u128, |l| l.extent as u128);
        let (m, n, k) = self.dims;
        let io = self.levels.iter().find(|l| l.var == "io");
        let jo = self.levels.iter().find(|l| l.var == "jo");
        let ko = self.levels.iter().find(|l| l.var == "ko");
        batch * covered(io, m) * covered(jo, n) * covered(ko, k)
    }

    /// Verifies structural sanity: iteration-space conservation and
    /// non-degenerate loops.
    ///
    /// # Errors
    ///
    /// Returns every detected [`CodegenIssue`] (empty-on-success callers
    /// can treat the `Vec` as a lint report).
    pub fn verify(&self) -> Result<(), Vec<CodegenIssue>> {
        let mut issues = Vec::new();
        for l in &self.levels {
            if l.step == 0 || l.step > l.extent {
                issues.push(CodegenIssue::DegenerateLoop { var: l.var.clone() });
            }
        }
        let (m, n, k) = self.dims;
        let required = m as u128
            * n as u128
            * k as u128
            * self
                .levels
                .iter()
                .find(|l| l.var == "b")
                .map_or(1u128, |l| l.extent as u128);
        let generated = self.total_macs();
        if generated != required {
            issues.push(CodegenIssue::IterationSpaceMismatch {
                generated,
                required,
            });
        }
        if issues.is_empty() {
            Ok(())
        } else {
            Err(issues)
        }
    }

    /// Whether any loop level ends in a partial boundary tile.
    #[must_use]
    pub fn has_boundary_tiles(&self) -> bool {
        self.levels.iter().any(LoopLevel::has_boundary)
    }

    /// The outer parallel chunk count (what the runtime can spread over
    /// cores).
    #[must_use]
    pub fn parallel_chunks(&self) -> usize {
        self.levels
            .iter()
            .filter(|l| l.annotation == LoopAnnotation::Parallel)
            .map(LoopLevel::trips)
            .product()
    }
}

impl std::fmt::Display for LoopNestProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (m, n, k) = self.dims;
        writeln!(
            f,
            "// {} [m={m} n={n} k={k}] — generated by veltair-compiler",
            self.name
        )?;
        writeln!(
            f,
            "void {}(const float* A, const float* B, float* C) {{",
            sanitize(&self.name)
        )?;
        let mut indent = 1usize;
        let mut opened = 0usize;
        for l in &self.levels {
            let pad = "  ".repeat(indent);
            match l.annotation {
                LoopAnnotation::Parallel => {
                    writeln!(f, "{pad}#pragma omp parallel for schedule(static)")?;
                }
                LoopAnnotation::Unroll(u) if u > 1 => {
                    writeln!(f, "{pad}#pragma unroll({u})")?;
                }
                LoopAnnotation::Vectorize(v) if v > 1 => {
                    writeln!(f, "{pad}#pragma omp simd simdlen({v})")?;
                }
                _ => {}
            }
            let boundary = if l.has_boundary() {
                "  // + boundary tile"
            } else {
                ""
            };
            writeln!(
                f,
                "{pad}for (int {v} = 0; {v} < {e}; {v} += {s}) {{{boundary}",
                v = l.var,
                e = l.extent,
                s = l.step,
            )?;
            indent += 1;
            opened += 1;
        }
        let pad = "  ".repeat(indent);
        writeln!(
            f,
            "{pad}C[(io+i)*{n} + jo+j : {lanes}] += A[(io+i)*{k} + ko+kk] * B[(ko+kk)*{n} + jo+j : {lanes}];",
            lanes = self.micro.lanes,
        )?;
        for _ in 0..opened {
            indent -= 1;
            writeln!(f, "{}}}", "  ".repeat(indent))?;
        }
        writeln!(f, "}}")
    }
}

/// Makes a unit name a valid C identifier.
fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_tensor::{FeatureMap, Layer};

    fn view() -> GemmView {
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
    fn generated_program_verifies() {
        let g = view();
        for (tm, tn, tk, u) in [
            (28, 64, 256, 8),
            (7, 8, 64, 1),
            (196, 256, 2304, 16),
            (5, 3, 7, 2),
        ] {
            let p = generate("c", &g, &Schedule::new(&g, tm, tn, tk, u));
            assert!(
                p.verify().is_ok(),
                "schedule ({tm},{tn},{tk},{u}) failed verify"
            );
        }
    }

    #[test]
    fn non_dividing_tiles_are_flagged_as_boundary() {
        let g = view();
        let even = generate("c", &g, &Schedule::new(&g, 28, 64, 256, 8));
        assert!(
            !even.has_boundary_tiles(),
            "196/28, 256/64, 2304/256 divide evenly"
        );
        let odd = generate("c", &g, &Schedule::new(&g, 30, 60, 250, 8));
        assert!(odd.has_boundary_tiles());
        assert!(
            odd.verify().is_ok(),
            "boundary tiles still conserve the space"
        );
    }

    #[test]
    fn parallel_chunks_match_schedule_metric() {
        let g = view();
        let s = Schedule::new(&g, 28, 64, 256, 8);
        let p = generate("c", &g, &s);
        assert_eq!(p.parallel_chunks() as u32, s.parallel_chunks(&g));
    }

    #[test]
    fn pseudo_c_contains_the_expected_pragmas() {
        let g = view();
        let p = generate("c3_1", &g, &Schedule::new(&g, 28, 64, 256, 8));
        let text = p.to_string();
        assert!(text.contains("#pragma omp parallel for"));
        assert!(text.contains("#pragma unroll(8)"));
        assert!(text.contains("#pragma omp simd simdlen(8)"));
        assert!(text.contains("void c3_1("));
        assert!(text.matches("for (int").count() >= 6);
    }

    #[test]
    fn batch_dimension_adds_a_parallel_loop() {
        let mut g = view();
        g.batch = 4;
        let p = generate("c", &g, &Schedule::new(&g, 28, 64, 256, 8));
        assert_eq!(p.levels[0].var, "b");
        assert!(p.verify().is_ok());
        assert_eq!(p.total_macs(), 4 * 196 * 256 * 2304);
    }

    #[test]
    fn degenerate_loops_are_reported() {
        let g = view();
        let mut p = generate("c", &g, &Schedule::new(&g, 28, 64, 256, 8));
        p.levels[0].step = 0;
        let issues = p.verify().unwrap_err();
        assert!(issues
            .iter()
            .any(|i| matches!(i, CodegenIssue::DegenerateLoop { .. })));
    }

    #[test]
    fn microkernel_register_accounting() {
        let m = MicroKernel {
            acc_rows: 4,
            acc_vecs: 3,
            lanes: 8,
            k_steps: 8,
        };
        assert_eq!(m.register_pressure(), 14);
        assert!(m.fits_registers());
        let fat = MicroKernel {
            acc_rows: 6,
            acc_vecs: 4,
            lanes: 8,
            k_steps: 8,
        };
        assert!(!fat.fits_registers());
    }

    #[test]
    fn names_are_sanitized() {
        let g = view();
        let p = generate("3x3/conv-bn.relu", &g, &Schedule::new(&g, 28, 64, 256, 8));
        assert!(p.to_string().contains("void _3x3_conv_bn_relu("));
    }
}
