//! DPU kernel specifications.
//!
//! The CINM code generator lowers a `upmem.launch` into a [`KernelSpec`]: a
//! structured description of the per-DPU work (which buffers are consumed and
//! produced, the tile shapes, the number of tasklets and the WRAM blocking).
//! The simulator executes the kernel functionally on every DPU's local
//! buffers and charges cycles according to the instruction-cost model.

use crate::system::BufferId;

/// Binary element-wise / reduction operators supported by the DPU kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Signed division.
    Div,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// Bit-wise and.
    And,
    /// Bit-wise or.
    Or,
    /// Bit-wise xor.
    Xor,
}

impl BinOp {
    /// Applies the operator to two scalars.
    #[inline]
    pub fn apply(self, a: i32, b: i32) -> i32 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Max => a.max(b),
            BinOp::Min => a.min(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
        }
    }

    /// The neutral element of the operator when used as a reduction.
    pub fn identity(self) -> i32 {
        match self {
            BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor => 0,
            BinOp::Mul | BinOp::Div => 1,
            BinOp::Max => i32::MIN,
            BinOp::Min => i32::MAX,
            BinOp::And => -1,
        }
    }

    /// Parses the textual operator names used in IR attributes.
    pub fn parse(name: &str) -> Option<BinOp> {
        Some(match name {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "div" => BinOp::Div,
            "max" => BinOp::Max,
            "min" => BinOp::Min,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            _ => return None,
        })
    }
}

/// Upper bound on the number of stages of a
/// [`DpuKernelKind::FusedElementwise`] kernel. Keeps the launch hot path's
/// per-DPU output views in a stack array, and bounds the WRAM working set a
/// fused kernel needs per element (`arity + stages` live values).
pub const MAX_FUSED_STAGES: usize = 4;

/// One operand of a fused element-wise stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusedArg {
    /// External input buffer `index` of the fused launch.
    Input(u8),
    /// The output of an earlier stage of the same launch.
    Stage(u8),
}

/// One stage of a fused element-wise kernel: `out[s] = lhs op rhs`,
/// element by element. Every stage writes its own output buffer, so all
/// intermediate values of a fused chain stay observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FusedStage {
    /// The binary operator of this stage.
    pub op: BinOp,
    /// Left operand.
    pub lhs: FusedArg,
    /// Right operand.
    pub rhs: FusedArg,
}

/// The per-DPU computation of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub enum DpuKernelKind {
    /// Tiled GEMM: `C[m×n] += A[m×k] × B[k×n]` on per-DPU tiles.
    Gemm {
        /// Rows of the per-DPU A/C tile.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of the per-DPU B/C tile.
        n: usize,
    },
    /// Matrix-vector product: `y[rows] += A[rows×cols] × x[cols]`.
    Gemv {
        /// Rows of the per-DPU matrix slice.
        rows: usize,
        /// Columns (full vector length).
        cols: usize,
    },
    /// Element-wise binary operation over per-DPU chunks of length `len`.
    Elementwise {
        /// The operator.
        op: BinOp,
        /// Elements per DPU.
        len: usize,
    },
    /// Reduction of the per-DPU chunk to one value.
    Reduce {
        /// The reduction operator.
        op: BinOp,
        /// Elements per DPU.
        len: usize,
    },
    /// Local histogram of the per-DPU chunk.
    Histogram {
        /// Number of bins.
        bins: usize,
        /// Elements per DPU.
        len: usize,
        /// Upper bound (exclusive) of the input values, for bin scaling.
        max_value: i32,
    },
    /// Inclusive scan (prefix operation) of the per-DPU chunk.
    Scan {
        /// The scan operator.
        op: BinOp,
        /// Elements per DPU.
        len: usize,
    },
    /// Database select: keep elements `> threshold` (PrIM `sel`). The
    /// output stride of `len + 1` elements is fully written: the count of
    /// kept elements, the kept elements in input order, then zeros.
    Select {
        /// Elements per DPU.
        len: usize,
        /// Selection threshold.
        threshold: i32,
    },
    /// Time-series distance profile over a window (PrIM `ts` flavour).
    TimeSeries {
        /// Elements per DPU.
        len: usize,
        /// Sliding-window length.
        window: usize,
    },
    /// One breadth-first-search frontier expansion over a per-DPU CSR slice
    /// (PrIM `bfs` flavour): input 0 = row offsets, input 1 = column indices,
    /// input 2 = current frontier bitmap, output = next frontier bitmap.
    BfsStep {
        /// Vertices owned by this DPU.
        vertices: usize,
        /// Average degree (used only for the cost model).
        avg_degree: usize,
    },
    /// A chain of element-wise binary stages executed in one launch: each
    /// element is loaded from MRAM once per distinct operand, flows through
    /// all stages in WRAM, and every stage's result is stored to its own
    /// output buffer (stage 0 → [`KernelSpec::output`], stages 1.. →
    /// [`KernelSpec::extra_outputs`]). Compared to launching the stages as
    /// separate [`DpuKernelKind::Elementwise`] kernels this eliminates the
    /// reload of every intermediate value and all but one launch.
    FusedElementwise {
        /// The stages, in dependency order (a stage may only reference
        /// earlier stages). At most [`MAX_FUSED_STAGES`].
        stages: Vec<FusedStage>,
        /// Elements per DPU.
        len: usize,
        /// Number of external input buffers.
        arity: usize,
    },
}

impl DpuKernelKind {
    /// A short mnemonic used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            DpuKernelKind::Gemm { .. } => "gemm",
            DpuKernelKind::Gemv { .. } => "gemv",
            DpuKernelKind::Elementwise { .. } => "elementwise",
            DpuKernelKind::Reduce { .. } => "reduce",
            DpuKernelKind::Histogram { .. } => "histogram",
            DpuKernelKind::Scan { .. } => "scan",
            DpuKernelKind::Select { .. } => "select",
            DpuKernelKind::TimeSeries { .. } => "time-series",
            DpuKernelKind::BfsStep { .. } => "bfs-step",
            DpuKernelKind::FusedElementwise { .. } => "fused-elementwise",
        }
    }

    /// Number of input buffers the kernel expects.
    pub fn num_inputs(&self) -> usize {
        match self {
            DpuKernelKind::Gemm { .. } => 2,
            DpuKernelKind::Gemv { .. } => 2,
            DpuKernelKind::Elementwise { .. } => 2,
            DpuKernelKind::BfsStep { .. } => 3,
            DpuKernelKind::FusedElementwise { arity, .. } => *arity,
            _ => 1,
        }
    }

    /// Number of output buffers the kernel produces (one for every kind
    /// except [`DpuKernelKind::FusedElementwise`], which writes one buffer
    /// per stage).
    pub fn num_outputs(&self) -> usize {
        match self {
            DpuKernelKind::FusedElementwise { stages, .. } => stages.len().max(1),
            _ => 1,
        }
    }

    /// Required per-DPU length of input buffer `index`.
    pub fn input_len(&self, index: usize) -> usize {
        match self {
            DpuKernelKind::Gemm { m, k, n } => {
                if index == 0 {
                    m * k
                } else {
                    k * n
                }
            }
            DpuKernelKind::Gemv { rows, cols } => {
                if index == 0 {
                    rows * cols
                } else {
                    *cols
                }
            }
            DpuKernelKind::Elementwise { len, .. }
            | DpuKernelKind::Reduce { len, .. }
            | DpuKernelKind::Histogram { len, .. }
            | DpuKernelKind::Scan { len, .. }
            | DpuKernelKind::Select { len, .. }
            | DpuKernelKind::TimeSeries { len, .. }
            | DpuKernelKind::FusedElementwise { len, .. } => *len,
            DpuKernelKind::BfsStep {
                vertices,
                avg_degree,
            } => match index {
                0 => vertices + 1,
                1 => vertices * avg_degree,
                _ => *vertices,
            },
        }
    }

    /// Number of output elements produced per DPU.
    pub fn output_len(&self) -> usize {
        match self {
            DpuKernelKind::Gemm { m, n, .. } => m * n,
            DpuKernelKind::Gemv { rows, .. } => *rows,
            DpuKernelKind::Elementwise { len, .. } => *len,
            DpuKernelKind::Reduce { .. } => 1,
            DpuKernelKind::Histogram { bins, .. } => *bins,
            DpuKernelKind::Scan { len, .. } => *len,
            DpuKernelKind::Select { len, .. } => *len + 1,
            DpuKernelKind::TimeSeries { len, window } => len.saturating_sub(*window) + 1,
            DpuKernelKind::BfsStep { vertices, .. } => *vertices,
            DpuKernelKind::FusedElementwise { len, .. } => *len,
        }
    }
}

/// A complete kernel launch description.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// The per-DPU computation.
    pub kind: DpuKernelKind,
    /// Input buffers (order defined by [`DpuKernelKind::num_inputs`]).
    pub inputs: Vec<BufferId>,
    /// Output buffer (of stage 0, for a fused kernel).
    pub output: BufferId,
    /// Output buffers of stages 1.. of a
    /// [`DpuKernelKind::FusedElementwise`] kernel; empty for every other
    /// kind (see [`DpuKernelKind::num_outputs`]).
    pub extra_outputs: Vec<BufferId>,
    /// Tasklets used by this launch (defaults to the system configuration).
    pub tasklets: Option<usize>,
    /// WRAM tile size in elements used for MRAM↔WRAM blocking.
    pub wram_tile_elems: usize,
    /// Whether the WRAM-locality optimisation (tiling to WRAM + loop
    /// interchange, the paper's `cinm-opt` configuration) is applied.
    pub locality_optimized: bool,
    /// Multiplier on the instruction count, modelling implementation quality
    /// differences between code generators (e.g. the PrIM hand-written
    /// kernels that update a shared histogram instead of privatised WRAM
    /// copies). `1.0` means the CINM-generated code.
    pub instruction_overhead_factor: f64,
}

impl KernelSpec {
    /// Creates a kernel spec with default blocking (1024-element WRAM tiles,
    /// no locality optimisation).
    pub fn new(kind: DpuKernelKind, inputs: Vec<BufferId>, output: BufferId) -> Self {
        assert_eq!(
            inputs.len(),
            kind.num_inputs(),
            "kernel '{}' expects {} inputs",
            kind.name(),
            kind.num_inputs()
        );
        KernelSpec {
            kind,
            inputs,
            output,
            extra_outputs: Vec::new(),
            tasklets: None,
            wram_tile_elems: 1024,
            locality_optimized: false,
            instruction_overhead_factor: 1.0,
        }
    }

    /// Every buffer this launch writes: `output`, then `extra_outputs`.
    pub(crate) fn outputs(&self) -> impl Iterator<Item = BufferId> + '_ {
        std::iter::once(self.output).chain(self.extra_outputs.iter().copied())
    }

    /// Sets the output buffers of stages 1.. of a fused kernel.
    ///
    /// # Panics
    ///
    /// Panics if `1 + extra.len()` does not match
    /// [`DpuKernelKind::num_outputs`].
    pub fn with_extra_outputs(mut self, extra: Vec<BufferId>) -> Self {
        assert_eq!(
            1 + extra.len(),
            self.kind.num_outputs(),
            "kernel '{}' produces {} outputs",
            self.kind.name(),
            self.kind.num_outputs()
        );
        self.extra_outputs = extra;
        self
    }

    /// Enables the WRAM-locality optimisation.
    pub fn with_locality_optimization(mut self) -> Self {
        self.locality_optimized = true;
        self
    }

    /// Overrides the WRAM tile size (in elements).
    pub fn with_wram_tile(mut self, elems: usize) -> Self {
        assert!(elems > 0, "WRAM tile must be non-empty");
        self.wram_tile_elems = elems;
        self
    }

    /// Overrides the number of tasklets for this launch.
    pub fn with_tasklets(mut self, tasklets: usize) -> Self {
        self.tasklets = Some(tasklets);
        self
    }

    /// Sets the instruction-overhead factor (see the field documentation).
    ///
    /// # Panics
    ///
    /// Panics if the factor is not strictly positive.
    pub fn with_instruction_overhead(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "overhead factor must be positive");
        self.instruction_overhead_factor = factor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_apply_and_identity() {
        assert_eq!(BinOp::Add.apply(3, 4), 7);
        assert_eq!(BinOp::Mul.apply(3, 4), 12);
        assert_eq!(BinOp::Div.apply(8, 2), 4);
        assert_eq!(BinOp::Div.apply(8, 0), 0);
        assert_eq!(BinOp::Max.apply(-3, 2), 2);
        assert_eq!(BinOp::Xor.apply(0b1010, 0b0110), 0b1100);
        for op in [
            BinOp::Add,
            BinOp::Mul,
            BinOp::Max,
            BinOp::Min,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
        ] {
            assert_eq!(op.apply(42, op.identity()), 42, "{op:?} identity");
        }
    }

    #[test]
    fn binop_parse_roundtrip() {
        assert_eq!(BinOp::parse("add"), Some(BinOp::Add));
        assert_eq!(BinOp::parse("xor"), Some(BinOp::Xor));
        assert_eq!(BinOp::parse("pow"), None);
    }

    #[test]
    fn kernel_kind_shapes() {
        let g = DpuKernelKind::Gemm {
            m: 16,
            k: 32,
            n: 16,
        };
        assert_eq!(g.num_inputs(), 2);
        assert_eq!(g.output_len(), 256);
        let h = DpuKernelKind::Histogram {
            bins: 64,
            len: 1000,
            max_value: 4096,
        };
        assert_eq!(h.output_len(), 64);
        let r = DpuKernelKind::Reduce {
            op: BinOp::Add,
            len: 100,
        };
        assert_eq!(r.output_len(), 1);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn spec_checks_input_arity() {
        KernelSpec::new(DpuKernelKind::Gemm { m: 4, k: 4, n: 4 }, vec![0], 1);
    }

    #[test]
    fn spec_builder_methods() {
        let s = KernelSpec::new(
            DpuKernelKind::Reduce {
                op: BinOp::Add,
                len: 64,
            },
            vec![0],
            1,
        )
        .with_locality_optimization()
        .with_wram_tile(2048)
        .with_tasklets(12);
        assert!(s.locality_optimized);
        assert_eq!(s.wram_tile_elems, 2048);
        assert_eq!(s.tasklets, Some(12));
    }
}
