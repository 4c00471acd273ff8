//! The benchmark suite of the paper's evaluation.
//!
//! Two groups of workloads are used (Section 4.1.1):
//!
//! * the ML/linear-algebra kernels evaluated on the CIM backend and for the
//!   optimisation study (`mm`, `2mm`, `3mm`, `conv`, `contrl`, `contrs1`,
//!   `contrs2`, `mlp`, `mv`), and
//! * the PrIM kernels evaluated against the hand-optimised UPMEM baselines
//!   (`va`, `sel`, `bfs`, `hst-l`, `red`, `ts`, plus `mv` and `mlp`).
//!
//! Every workload carries its shapes for three scales (quick tests, bench
//! runs, paper-sized runs), can build its high-level IR representation, and
//! records the hand-written UPMEM C/C++ lines-of-code from Table 4.

use cinm_dialects::{cinm, func, linalg, tosa};
use cinm_ir::prelude::*;

/// Problem-size scale of a workload instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny shapes for unit/integration tests.
    Test,
    /// Moderate shapes for the benchmark harness.
    Bench,
    /// Paper-sized shapes.
    Paper,
}

/// The benchmarks of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// Generalised matrix-matrix multiplication.
    Mm,
    /// Two consecutive matmuls.
    Mm2,
    /// Two matmuls and the multiplication of their results.
    Mm3,
    /// 2-D convolution.
    Conv,
    /// Large tensor contraction `C_abcd = A_aebf · B_dfce`.
    Contrl,
    /// Small contraction `C_ab = A_acd · B_dbc`.
    Contrs1,
    /// Small contraction `C_abc = A_acd · B_db`.
    Contrs2,
    /// Three-layer fully connected network.
    Mlp,
    /// Matrix-vector multiplication.
    Mv,
    /// Vector addition (PrIM `va`).
    Va,
    /// Database select (PrIM `sel`).
    Sel,
    /// Breadth-first search step (PrIM `bfs`).
    Bfs,
    /// Image histogram (PrIM `hst-l`).
    HstL,
    /// Reduction (PrIM `red`).
    Red,
    /// Time-series analysis (PrIM `ts`).
    Ts,
}

impl WorkloadId {
    /// All workloads, in the order used by the paper's tables.
    pub fn all() -> Vec<WorkloadId> {
        use WorkloadId::*;
        vec![
            Mm, Mm2, Mm3, Conv, Contrl, Contrs1, Contrs2, Mlp, Mv, Va, Sel, Bfs, HstL, Red, Ts,
        ]
    }

    /// The workloads of the CIM evaluation (Figure 10).
    pub fn cim_suite() -> Vec<WorkloadId> {
        use WorkloadId::*;
        vec![Mv, Mm, Mm2, Mm3, Conv, Contrl, Contrs1, Contrs2, Mlp]
    }

    /// The workloads of the UPMEM optimisation study (Figure 11).
    pub fn upmem_opt_suite() -> Vec<WorkloadId> {
        use WorkloadId::*;
        vec![Mm, Mm2, Mm3, Conv, Contrl, Contrs1, Contrs2, Mlp, Mv]
    }

    /// The workloads of the PrIM comparison (Figure 12).
    pub fn prim_suite() -> Vec<WorkloadId> {
        use WorkloadId::*;
        vec![Va, Sel, Bfs, Mv, HstL, Mlp, Red, Ts]
    }

    /// The paper's short name of the workload.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Mm => "mm",
            WorkloadId::Mm2 => "2mm",
            WorkloadId::Mm3 => "3mm",
            WorkloadId::Conv => "conv",
            WorkloadId::Contrl => "contrl",
            WorkloadId::Contrs1 => "contrs1",
            WorkloadId::Contrs2 => "contrs2",
            WorkloadId::Mlp => "mlp",
            WorkloadId::Mv => "mv",
            WorkloadId::Va => "va",
            WorkloadId::Sel => "sel",
            WorkloadId::Bfs => "bfs",
            WorkloadId::HstL => "hst-l",
            WorkloadId::Red => "red",
            WorkloadId::Ts => "ts",
        }
    }

    /// Lines of code of the hand-written UPMEM C/C++ implementation
    /// (host + DPU), as reported in Table 4 of the paper.
    pub fn upmem_c_loc(self) -> usize {
        match self {
            WorkloadId::Mm2 => 184,
            WorkloadId::Mm3 => 218,
            WorkloadId::Bfs => 315,
            WorkloadId::Contrs2 => 200,
            WorkloadId::Contrs1 => 197,
            WorkloadId::Contrl => 197,
            WorkloadId::Conv => 203,
            WorkloadId::HstL => 134,
            WorkloadId::Mlp => 109,
            WorkloadId::Mm => 180,
            WorkloadId::Mv => 179,
            WorkloadId::Red => 119,
            WorkloadId::Sel => 145,
            WorkloadId::Ts => 172,
            WorkloadId::Va => 101,
        }
    }

    /// The concrete problem shapes of the workload at a given scale.
    pub fn params(self, scale: Scale) -> WorkloadParams {
        use WorkloadParams::*;
        let s = match scale {
            Scale::Test => 0,
            Scale::Bench => 1,
            Scale::Paper => 2,
        };
        match self {
            WorkloadId::Mm => {
                let d = [(48, 32, 24), (1024, 256, 128), (4096, 1024, 256)][s];
                Gemm {
                    m: d.0,
                    k: d.1,
                    n: d.2,
                }
            }
            WorkloadId::Mm2 => {
                let d = [
                    (32, 24, 24, 16),
                    (512, 256, 256, 128),
                    (2048, 1024, 1024, 256),
                ][s];
                Gemm2 {
                    m: d.0,
                    k: d.1,
                    n: d.2,
                    p: d.3,
                }
            }
            WorkloadId::Mm3 => {
                let d = [
                    (32, 24, 24, 16),
                    (512, 256, 256, 128),
                    (2048, 1024, 1024, 256),
                ][s];
                Gemm3 {
                    m: d.0,
                    k: d.1,
                    n: d.2,
                    p: d.3,
                }
            }
            WorkloadId::Conv => {
                let d = [(16, 16), (64, 64), (128, 128)][s];
                Conv2d {
                    h: d.0,
                    w: d.1,
                    c: 3,
                    kh: 3,
                    kw: 3,
                    f: 8,
                }
            }
            WorkloadId::Contrl => {
                let d = [
                    (4, 4, 4, 4, 4, 4),
                    (16, 16, 16, 16, 8, 8),
                    (32, 32, 32, 32, 16, 16),
                ][s];
                ContractL {
                    a: d.0,
                    b: d.1,
                    c: d.2,
                    d: d.3,
                    e: d.4,
                    f: d.5,
                }
            }
            WorkloadId::Contrs1 => {
                let d = [(8, 8, 8, 8), (64, 64, 32, 32), (128, 128, 64, 64)][s];
                ContractS1 {
                    a: d.0,
                    b: d.1,
                    c: d.2,
                    d: d.3,
                }
            }
            WorkloadId::Contrs2 => {
                let d = [(8, 8, 8, 8), (64, 64, 32, 32), (128, 128, 64, 64)][s];
                ContractS2 {
                    a: d.0,
                    b: d.1,
                    c: d.2,
                    d: d.3,
                }
            }
            WorkloadId::Mlp => {
                let d = [
                    (4, 32, 16, 8, 4),
                    (64, 1024, 512, 256, 10),
                    (256, 4096, 1024, 256, 10),
                ][s];
                Mlp {
                    batch: d.0,
                    layers: [d.1, d.2, d.3, d.4],
                }
            }
            WorkloadId::Mv => {
                let d = [(64, 48), (4096, 1024), (8192, 8192)][s];
                Gemv {
                    rows: d.0,
                    cols: d.1,
                }
            }
            WorkloadId::Va => {
                let d = [1 << 10, 1 << 22, 1 << 26][s];
                Vector { len: d }
            }
            WorkloadId::Sel => {
                let d = [1 << 10, 1 << 21, 1 << 25][s];
                Select {
                    len: d,
                    threshold: 1 << 20,
                }
            }
            WorkloadId::Bfs => {
                let d = [(256, 4), (1 << 16, 8), (1 << 20, 16)][s];
                Bfs {
                    vertices: d.0,
                    degree: d.1,
                }
            }
            WorkloadId::HstL => {
                let d = [1 << 10, 1 << 22, 1 << 26][s];
                Histogram {
                    len: d,
                    bins: 256,
                    max_value: 1 << 22,
                }
            }
            WorkloadId::Red => {
                let d = [1 << 10, 1 << 22, 1 << 26][s];
                Vector { len: d }
            }
            WorkloadId::Ts => {
                let d = [(1 << 10, 16), (1 << 18, 64), (1 << 21, 256)][s];
                TimeSeries {
                    len: d.0,
                    window: d.1,
                }
            }
        }
    }
}

/// Concrete problem shapes of one workload instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadParams {
    /// One GEMM `m×k · k×n`.
    Gemm {
        /// Rows of A/C.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of B/C.
        n: usize,
    },
    /// Two chained GEMMs (`2mm`).
    Gemm2 {
        /// Rows of the first operand.
        m: usize,
        /// First inner dimension.
        k: usize,
        /// Second inner dimension.
        n: usize,
        /// Final column count.
        p: usize,
    },
    /// Three GEMMs with a dependency on the first two (`3mm`).
    Gemm3 {
        /// Rows of the first operand.
        m: usize,
        /// First inner dimension.
        k: usize,
        /// Shared dimension.
        n: usize,
        /// Final column count.
        p: usize,
    },
    /// 2-D convolution, NHWC image and HWCF filter.
    Conv2d {
        /// Image height.
        h: usize,
        /// Image width.
        w: usize,
        /// Input channels.
        c: usize,
        /// Filter height.
        kh: usize,
        /// Filter width.
        kw: usize,
        /// Output features.
        f: usize,
    },
    /// The large contraction `C_abcd = A_aebf · B_dfce`.
    ContractL {
        /// Extent of index a.
        a: usize,
        /// Extent of index b.
        b: usize,
        /// Extent of index c.
        c: usize,
        /// Extent of index d.
        d: usize,
        /// Extent of contracted index e.
        e: usize,
        /// Extent of contracted index f.
        f: usize,
    },
    /// The small contraction `C_ab = A_acd · B_dbc`.
    ContractS1 {
        /// Extent of index a.
        a: usize,
        /// Extent of index b.
        b: usize,
        /// Extent of contracted index c.
        c: usize,
        /// Extent of contracted index d.
        d: usize,
    },
    /// The small contraction `C_abc = A_acd · B_db`.
    ContractS2 {
        /// Extent of index a.
        a: usize,
        /// Extent of index b.
        b: usize,
        /// Extent of index c.
        c: usize,
        /// Extent of contracted index d.
        d: usize,
    },
    /// A three-layer MLP.
    Mlp {
        /// Batch size.
        batch: usize,
        /// Layer widths `[input, hidden1, hidden2, output]`.
        layers: [usize; 4],
    },
    /// Matrix-vector product.
    Gemv {
        /// Matrix rows.
        rows: usize,
        /// Matrix columns.
        cols: usize,
    },
    /// A flat vector workload (`va`, `red`).
    Vector {
        /// Number of elements.
        len: usize,
    },
    /// Database select.
    Select {
        /// Number of elements.
        len: usize,
        /// Selection threshold.
        threshold: i32,
    },
    /// BFS frontier expansion.
    Bfs {
        /// Number of vertices.
        vertices: usize,
        /// Out-degree per vertex.
        degree: usize,
    },
    /// Histogram.
    Histogram {
        /// Number of elements.
        len: usize,
        /// Number of bins.
        bins: usize,
        /// Exclusive upper bound of the values.
        max_value: i32,
    },
    /// Time-series distance profile.
    TimeSeries {
        /// Series length.
        len: usize,
        /// Window length.
        window: usize,
    },
}

/// Builds the high-level (front-end) IR function of a workload: `linalg` (or
/// `tosa` for the MLP) for the idiomatic kernels, `cinm` ops for the PrIM
/// kernels that have no front-end idiom and are translated manually, exactly
/// as the paper does.
pub fn build_func(id: WorkloadId, scale: Scale) -> Func {
    let p = id.params(scale);
    let t = |shape: &[usize]| {
        let mut dims = Shape::new(&[0; cinm_ir::MAX_RANK][..shape.len()]);
        for (d, &x) in dims.iter_mut().zip(shape) {
            *d = x as i64;
        }
        Type::tensor(&dims, ScalarType::I32)
    };
    match (id, p) {
        (WorkloadId::Mm, WorkloadParams::Gemm { m, k, n }) => {
            let mut f = Func::new("mm", [t(&[m, k]), t(&[k, n]), t(&[m, n])], vec![t(&[m, n])]);
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let c = linalg::matmul(&mut b, args[0], args[1], args[2]);
            func::ret(&mut b, &[c]);
            f
        }
        (WorkloadId::Mm2, WorkloadParams::Gemm2 { m, k, n, p }) => {
            let mut f = Func::new(
                "two_mm",
                [t(&[m, k]), t(&[k, n]), t(&[n, p]), t(&[m, n]), t(&[m, p])],
                vec![t(&[m, p])],
            );
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let d = linalg::matmul(&mut b, args[0], args[1], args[3]);
            let e = linalg::matmul(&mut b, d, args[2], args[4]);
            func::ret(&mut b, &[e]);
            f
        }
        (WorkloadId::Mm3, WorkloadParams::Gemm3 { m, k, n, p }) => {
            let mut f = Func::new(
                "three_mm",
                [
                    t(&[m, k]),
                    t(&[k, n]),
                    t(&[n, k]),
                    t(&[k, p]),
                    t(&[m, n]),
                    t(&[n, p]),
                    t(&[m, p]),
                ],
                vec![t(&[m, p])],
            );
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let e = linalg::matmul(&mut b, args[0], args[1], args[4]);
            let g = linalg::matmul(&mut b, args[2], args[3], args[5]);
            let out = linalg::matmul(&mut b, e, g, args[6]);
            func::ret(&mut b, &[out]);
            f
        }
        (
            WorkloadId::Conv,
            WorkloadParams::Conv2d {
                h,
                w,
                c,
                kh,
                kw,
                f: of,
            },
        ) => {
            let oh = h - kh + 1;
            let ow = w - kw + 1;
            let mut f = Func::new(
                "conv",
                [t(&[1, h, w, c]), t(&[kh, kw, c, of]), t(&[1, oh, ow, of])],
                vec![t(&[1, oh, ow, of])],
            );
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let out = linalg::conv_2d_nhwc_hwcf(&mut b, args[0], args[1], args[2]);
            func::ret(&mut b, &[out]);
            f
        }
        (
            WorkloadId::Contrl,
            WorkloadParams::ContractL {
                a,
                b: bb,
                c,
                d,
                e,
                f: ff,
            },
        ) => {
            let mut f = Func::new(
                "contrl",
                [t(&[a, e, bb, ff]), t(&[d, ff, c, e])],
                vec![t(&[a, bb, c, d])],
            );
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let out = linalg::contract(
                &mut b,
                "aebf,dfce->abcd",
                args[0],
                args[1],
                &[a as i64, bb as i64, c as i64, d as i64],
            );
            func::ret(&mut b, &[out]);
            f
        }
        (WorkloadId::Contrs1, WorkloadParams::ContractS1 { a, b: bb, c, d }) => {
            let mut f = Func::new(
                "contrs1",
                [t(&[a, c, d]), t(&[d, bb, c])],
                vec![t(&[a, bb])],
            );
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let out = linalg::contract(
                &mut b,
                "acd,dbc->ab",
                args[0],
                args[1],
                &[a as i64, bb as i64],
            );
            func::ret(&mut b, &[out]);
            f
        }
        (WorkloadId::Contrs2, WorkloadParams::ContractS2 { a, b: bb, c, d }) => {
            let mut f = Func::new(
                "contrs2",
                [t(&[a, c, d]), t(&[d, bb])],
                vec![t(&[a, bb, c])],
            );
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let out = linalg::contract(
                &mut b,
                "acd,db->abc",
                args[0],
                args[1],
                &[a as i64, bb as i64, c as i64],
            );
            func::ret(&mut b, &[out]);
            f
        }
        (WorkloadId::Mlp, WorkloadParams::Mlp { batch, layers }) => {
            let mut f = Func::new(
                "mlp",
                [
                    t(&[batch, layers[0]]),
                    t(&[layers[1], layers[0]]),
                    t(&[layers[1]]),
                    t(&[layers[2], layers[1]]),
                    t(&[layers[2]]),
                    t(&[layers[3], layers[2]]),
                    t(&[layers[3]]),
                ],
                vec![t(&[batch, layers[3]])],
            );
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let l1 = tosa::fully_connected(&mut b, args[0], args[1], args[2]);
            let r1 = tosa::clamp(&mut b, l1, 0, i64::MAX);
            let l2 = tosa::fully_connected(&mut b, r1, args[3], args[4]);
            let r2 = tosa::clamp(&mut b, l2, 0, i64::MAX);
            let l3 = tosa::fully_connected(&mut b, r2, args[5], args[6]);
            func::ret(&mut b, &[l3]);
            f
        }
        (WorkloadId::Mv, WorkloadParams::Gemv { rows, cols }) => {
            let mut f = Func::new(
                "mv",
                [t(&[rows, cols]), t(&[cols]), t(&[rows])],
                vec![t(&[rows])],
            );
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let y = linalg::matvec(&mut b, args[0], args[1], args[2]);
            func::ret(&mut b, &[y]);
            f
        }
        (WorkloadId::Va, WorkloadParams::Vector { len }) => {
            let mut f = Func::new("va", [t(&[len]), t(&[len])], vec![t(&[len])]);
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let c = linalg::elemwise_binary(&mut b, "add", args[0], args[1]);
            func::ret(&mut b, &[c]);
            f
        }
        (WorkloadId::Red, WorkloadParams::Vector { len }) => {
            let mut f = Func::new("red", [t(&[len])], vec![t(&[1])]);
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let r = linalg::reduce(&mut b, "add", args[0], &[0]);
            func::ret(&mut b, &[r]);
            f
        }
        (WorkloadId::HstL, WorkloadParams::Histogram { len, bins, .. }) => {
            // Manually translated (non-idiomatic PrIM benchmark): entered
            // directly at the cinm level, as described in Section 4.1.1.
            let mut f = Func::new("hst_l", [t(&[len])], vec![t(&[bins])]);
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let h = cinm::histogram(&mut b, args[0], bins as i64);
            func::ret(&mut b, &[h]);
            f
        }
        (WorkloadId::Sel, WorkloadParams::Select { len, threshold }) => {
            let mut f = Func::new("sel", [t(&[len])], vec![t(&[len])]);
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            // Select is expressed as a compute region over the cinm op set.
            let out = b
                .op(cinm::COMPUTE)
                .operand(args[0])
                .attr("kind", "select")
                .attr("threshold", threshold as i64)
                .result(t(&[len]))
                .region([t(&[len])])
                .push();
            {
                let rb_block = f.body.op_region_entry_block(out.id, 0);
                let view = f.body.block_args(rb_block)[0];
                let mut rb = OpBuilder::at_end(&mut f.body, rb_block);
                let s = cinm::scan(&mut rb, "add", view);
                rb.op(cinm::YIELD).operand(s).push();
            }
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            func::ret(&mut b, &[out.result_at(0)]);
            f
        }
        (WorkloadId::Bfs, WorkloadParams::Bfs { vertices, degree }) => {
            let mut f = Func::new(
                "bfs",
                [t(&[vertices + 1]), t(&[vertices * degree]), t(&[vertices])],
                vec![t(&[vertices])],
            );
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let out = b
                .op(cinm::COMPUTE)
                .operands([args[0], args[1], args[2]])
                .attr("kind", "bfs_step")
                .result(t(&[vertices]))
                .region([])
                .push();
            {
                let rb_block = f.body.op_region_entry_block(out.id, 0);
                let mut rb = OpBuilder::at_end(&mut f.body, rb_block);
                rb.op(cinm::YIELD).push();
            }
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            func::ret(&mut b, &[out.result_at(0)]);
            f
        }
        (WorkloadId::Ts, WorkloadParams::TimeSeries { len, window }) => {
            let mut f = Func::new("ts", [t(&[len])], vec![t(&[len - window + 1])]);
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let (vals, _idx) =
                cinm::sim_search(&mut b, "l2", (len - window + 1) as i64, args[0], args[0]);
            func::ret(&mut b, &[vals]);
            f
        }
        _ => unreachable!("parameter kind does not match workload"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinm_dialects::register_all_dialects;

    #[test]
    fn suite_covers_all_15_applications_of_table_4() {
        assert_eq!(WorkloadId::all().len(), 15);
        for id in WorkloadId::all() {
            assert!(id.upmem_c_loc() > 0);
            assert!(!id.name().is_empty());
        }
        assert_eq!(WorkloadId::prim_suite().len(), 8);
        assert_eq!(WorkloadId::cim_suite().len(), 9);
    }

    #[test]
    fn every_workload_builds_verifiable_ir_at_test_scale() {
        let registry = register_all_dialects();
        for id in WorkloadId::all() {
            let f = build_func(id, Scale::Test);
            verify_func(&f, &registry).unwrap_or_else(|e| panic!("{}: {e}", id.name()));
            assert!(f.body.num_live_ops() >= 2, "{} too small", id.name());
        }
    }

    #[test]
    fn params_scale_monotonically() {
        for id in WorkloadId::all() {
            let a = format!("{:?}", id.params(Scale::Test));
            let b = format!("{:?}", id.params(Scale::Paper));
            assert_ne!(a, b, "{}", id.name());
        }
    }

    #[test]
    fn conv_paper_scale_matches_figure_5() {
        if let WorkloadParams::Conv2d { h, w, c, kh, kw, f } = WorkloadId::Conv.params(Scale::Paper)
        {
            assert_eq!((h, w, c, kh, kw, f), (128, 128, 3, 3, 3, 8));
        } else {
            panic!("unexpected params kind");
        }
    }

    #[test]
    fn loc_table_matches_paper_totals() {
        // The paper reports an average reduction of ~15x; the C/C++ column
        // alone sums to 2653 lines.
        let total: usize = WorkloadId::all().iter().map(|w| w.upmem_c_loc()).sum();
        assert_eq!(total, 2653);
    }
}
