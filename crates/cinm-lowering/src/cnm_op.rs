//! The one lowering table from a `cinm` op to its `cnm` form.
//!
//! The paper lowers a `cinm` op to a workgroup / scatter / launch / gather
//! program **once**, below the device-agnostic level. [`CnmOp`] is that
//! decision for the eight ops the UPMEM grid executes: [`CnmOp::geometry`]
//! answers, for a grid of `dpus` DPUs, how each operand occupies MRAM
//! (scattered in per-DPU chunks or broadcast), which per-DPU kernel runs,
//! how large the per-DPU output is and how the gathered output decodes back
//! to the logical result ([`OutputLayout::decode_into`]). Every execution
//! layer — the eager [`crate::UpmemBackend`] methods, the
//! [`crate::CnmCostModel`], [`crate::BatchPlan`], [`crate::ShardedBackend`]
//! and the `cinm-core` session — reads this table instead of carrying its
//! own copy of the chunk arithmetic. How the per-DPU kernel is generated
//! (tasklets, WRAM tile, locality optimisation, instruction overhead) is
//! derived once too, by the crate's `KernelCodegen::new`: the `cinm → cnm`
//! pass annotates its launches with it, the backend launches it and the
//! cost model prices it. Which `cinm` ops the table covers is decided once
//! as well, by [`CnmOp::from_cinm`]: target selection prices what it
//! decodes and the `cinm → cnm` pass lowers what it decodes.

use cinm_dialects::cinm;
use cinm_ir::prelude::*;
use upmem_sim::{BinOp, BufferId, DpuKernelKind, KernelSpec};

use crate::device::ShardShape;

/// One `cinm` op with its logical shape, as the CNM level sees it. `Copy`,
/// `Eq` and `Hash` so it doubles as a recorded graph node and as a cache
/// key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CnmOp {
    /// `C[m×n] = A[m×k] × B[k×n]`: row blocks of `A` scattered, `B`
    /// broadcast.
    Gemm {
        /// Rows of `A` and `C`.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of `B` and `C`.
        n: usize,
    },
    /// `y[rows] = A[rows×cols] × x[cols]`: row blocks of `A` scattered, `x`
    /// broadcast.
    Gemv {
        /// Rows of `A`.
        rows: usize,
        /// Columns of `A`.
        cols: usize,
    },
    /// Element-wise binary op over two equally chunked vectors.
    Elementwise {
        /// The operator.
        op: BinOp,
        /// Element count.
        len: usize,
    },
    /// Reduction to a scalar: per-DPU partials folded on the host.
    Reduce {
        /// The reduction operator.
        op: BinOp,
        /// Element count.
        len: usize,
    },
    /// Histogram: per-DPU privatised histograms merged on the host.
    Histogram {
        /// Number of bins.
        bins: usize,
        /// Upper bound (exclusive) of the input values.
        max_value: i32,
        /// Element count.
        len: usize,
    },
    /// Database select (`> threshold`): per-DPU selections concatenated.
    Select {
        /// The selection threshold.
        threshold: i32,
        /// Element count.
        len: usize,
    },
    /// Partitioned time-series distance profile: each DPU profiles its chunk
    /// against the chunk's leading window.
    TimeSeries {
        /// Window length.
        window: usize,
        /// Element count.
        len: usize,
    },
    /// One BFS frontier expansion over pre-partitioned CSR fragments.
    BfsStep {
        /// Vertices per partition (one partition per DPU).
        vertices_per_dpu: usize,
        /// Edges stored per vertex.
        avg_degree: usize,
        /// Partitions holding real vertices.
        used_dpus: usize,
    },
}

/// How a tensor occupies MRAM in one role: a per-DPU chunk of a scattered
/// vector, or the whole value replicated to every DPU. The payload is the
/// per-DPU element count either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MramLayout {
    /// Scattered: this many elements per DPU, zero-padded tail.
    Chunk(usize),
    /// Broadcast: the full value (this many elements) on every DPU.
    Broadcast(usize),
}

/// How a raw grid-wide gather maps back to the logical value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutputLayout {
    /// Per-DPU chunks of the logical vector in DPU order — directly
    /// consumable by any same-chunk scattered operand.
    Chunked,
    /// The same logical value on every DPU (broadcast operands).
    Replicated,
    /// Raw select output: one `(count, values…)` record per DPU.
    SelectRaw {
        /// The selection threshold (negative thresholds select padding).
        threshold: i32,
        /// Logical input length.
        len: usize,
        /// Input elements per DPU.
        chunk: usize,
    },
    /// Per-DPU reduction partials: fold the first `used` in DPU order.
    ReducePartials {
        /// The reduction operator.
        op: BinOp,
        /// DPUs holding real data.
        used: usize,
    },
    /// Per-DPU privatised histograms of `bins` bins.
    HistPartials {
        /// Number of bins.
        bins: usize,
        /// Logical input length.
        len: usize,
        /// Input elements per DPU.
        chunk: usize,
    },
    /// Per-DPU time-series profiles: the first `used` DPUs' `positions`
    /// (`used × positions` is the logical length).
    Profiles {
        /// DPUs holding real data.
        used: usize,
        /// Profile positions per DPU.
        positions: usize,
    },
}

impl OutputLayout {
    /// Whether the logical value is a prefix of the raw gather (chunked,
    /// replicated, profiles): decoding is then a truncation, so a gather
    /// written straight into its destination needs no second buffer. The one
    /// statement of the rule — both decoders and the session's direct gather
    /// ask it.
    pub fn is_prefix(self) -> bool {
        match self {
            OutputLayout::Chunked | OutputLayout::Replicated | OutputLayout::Profiles { .. } => {
                true
            }
            OutputLayout::SelectRaw { .. }
            | OutputLayout::ReducePartials { .. }
            | OutputLayout::HistPartials { .. } => false,
        }
    }

    /// Decodes `raw` (a gather of every DPU's output chunk on a grid of
    /// `dpus`) into the logical value, replacing the contents of `out`.
    /// `len` is the logical element count (an upper bound for select).
    pub fn decode_into(self, raw: &[i32], dpus: usize, len: usize, out: &mut Vec<i32>) {
        out.clear();
        if let OutputLayout::SelectRaw {
            threshold,
            len,
            chunk,
        } = self
        {
            select_runs(raw, chunk, len, threshold).for_each(|run| out.extend_from_slice(run));
            return;
        }
        out.resize(len, 0);
        self.decode_to(raw, dpus, out);
    }

    /// [`decode_into`](Self::decode_into) a destination of the logical
    /// length (`out.len()`, an upper bound for select), straight from the
    /// gathered elements; returns how many it wrote (all of them but for
    /// select).
    pub(crate) fn decode_to(self, raw: &[i32], dpus: usize, out: &mut [i32]) -> usize {
        match self {
            OutputLayout::SelectRaw {
                threshold,
                len,
                chunk,
            } => select_runs(raw, chunk, len, threshold).fold(0, |at, run| {
                out[at..at + run.len()].copy_from_slice(run);
                at + run.len()
            }),
            // The used DPUs' partials, folded in DPU order.
            OutputLayout::ReducePartials { op, used } => {
                out[0] = raw[..used]
                    .iter()
                    .fold(op.identity(), |acc, &v| op.apply(acc, v));
                1
            }
            OutputLayout::HistPartials { bins, len, chunk } => {
                merge_histogram_partials(raw, bins, len, chunk, dpus, out);
                bins
            }
            _ => {
                out.copy_from_slice(&raw[..out.len()]);
                out.len()
            }
        }
    }
}

/// The `cnm` form of one op on a grid of fixed size (see
/// [`CnmOp::geometry`]).
#[derive(Debug, Clone)]
pub struct CnmGeometry {
    /// MRAM layout of each operand (unused trailing entries are `Chunk(0)`).
    pub inputs: [MramLayout; 3],
    /// Per-DPU elements of the output buffer (the gather chunk).
    pub out_chunk: usize,
    /// How the gathered output decodes.
    pub out_layout: OutputLayout,
    /// Logical elements of the decoded output (an upper bound for select).
    pub out_len: usize,
    /// DPUs that hold real (non-padding) work.
    pub used_dpus: usize,
    /// The per-DPU kernel.
    pub kernel: DpuKernelKind,
}

/// One host command of an op's program on the grid (see
/// [`CnmOp::commands`]): what the backend and a session issue, and what the
/// grid's cost model prices.
#[derive(Debug)]
pub enum Command {
    /// Scatter an operand in per-DPU chunks.
    Scatter {
        /// The operand's position.
        input: usize,
        /// Elements per DPU.
        chunk: usize,
        /// Logical elements, which is what the scatter bills.
        elems: usize,
    },
    /// Broadcast an operand to every DPU.
    Broadcast {
        /// The operand's position.
        input: usize,
        /// Elements, which is what the broadcast bills.
        elems: usize,
    },
    /// Launch the per-DPU kernel on the operands' buffers.
    Launch(DpuKernelKind),
    /// Gather `chunk` elements from every DPU.
    Gather {
        /// Elements per DPU.
        chunk: usize,
    },
}

/// How CINM generated a DPU kernel: the four code-generation fields of a
/// [`KernelSpec`], independent of the op and its buffers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelCodegen {
    /// Tasklets per DPU.
    pub(crate) tasklets: usize,
    /// WRAM tile in 4-byte words.
    pub(crate) wram_tile: usize,
    /// WRAM tiling + loop interchange (the `cinm-opt` configuration).
    pub(crate) locality_optimized: bool,
    /// Instruction-count multiplier of the code generator (`1.0` = CINM).
    pub(crate) instruction_overhead: f64,
}

impl KernelCodegen {
    /// The code the lowering generates for `tasklets` tasklets on a DPU
    /// with `wram_bytes` of WRAM: unless `wram_tile` overrides it, under the
    /// locality optimisation a WRAM tile of a third of WRAM per operand
    /// stream, divided among the tasklets and rounded down to a multiple of
    /// 64 words (at least 64); 64 words without it. An empty tile or an
    /// overhead that is not positive panics.
    pub(crate) fn new(
        locality_optimized: bool,
        instruction_overhead: f64,
        wram_tile: Option<usize>,
        tasklets: usize,
        wram_bytes: usize,
    ) -> Self {
        let wram_tile = wram_tile.unwrap_or(if locality_optimized {
            (wram_bytes / 3 / tasklets.max(1) / 4 / 64 * 64).max(64)
        } else {
            64
        });
        assert!(wram_tile > 0, "WRAM tile must be non-empty");
        assert!(
            instruction_overhead > 0.0,
            "overhead factor must be positive"
        );
        KernelCodegen {
            tasklets,
            wram_tile,
            locality_optimized,
            instruction_overhead,
        }
    }

    /// The launch of `kind` on the given buffers with this code (the
    /// launch validates their number; a price reads none, so it names none).
    pub(crate) fn spec(
        self,
        kind: DpuKernelKind,
        inputs: Vec<BufferId>,
        output: BufferId,
    ) -> KernelSpec {
        KernelSpec {
            kind,
            inputs,
            output,
            extra_outputs: Vec::new(),
            tasklets: Some(self.tasklets),
            wram_tile_elems: self.wram_tile,
            locality_optimized: self.locality_optimized,
            instruction_overhead_factor: self.instruction_overhead,
        }
    }
}

impl CnmOp {
    /// Decodes a `cinm` op from its operand and result types: `gemm`
    /// `[m,k]×[k,n]`, `gemv` `[r,c]×[c]`, `histogram` with its result's bins
    /// and its `max` range, `select` with its `threshold`, `reduce` with its
    /// `op` attribute, the element-wise ops over their largest operand.
    /// `None` for any other op (which stays at the `cinm` level for the
    /// host), for a matmul-like op whose operands do not have those ranks and
    /// for an op with the wrong operand or result count.
    ///
    /// The time-series and BFS kernels are never decoded: their results
    /// depend on the DPU count (a time-series chunk is
    /// `max(ceil(len / dpus), window)`, a BFS step runs on per-DPU CSR
    /// fragments), so lowering a device-agnostic op to them would change
    /// what it computes.
    pub fn from_cinm(body: &Body, op: OpId) -> Option<CnmOp> {
        let op = body.op(op);
        let dims = |i: usize| body.value_type(*op.operands.get(i)?).shape();
        let size = |d: i64| usize::try_from(d).ok();
        let elements = |v: &ValueId| body.value_type(*v).num_elements();
        let len = || size(op.operands.iter().map(elements).max().unwrap_or(0));
        let int = |name| i32::try_from(op.int_attr(name)?).ok();
        let decoded = match op.name.as_str() {
            cinm::GEMM => match (dims(0)?, dims(1)?) {
                (&[m, k], &[_, n]) => CnmOp::Gemm {
                    m: size(m)?,
                    k: size(k)?,
                    n: size(n)?,
                },
                _ => return None,
            },
            cinm::GEMV => match dims(0)? {
                &[rows, cols] => CnmOp::Gemv {
                    rows: size(rows)?,
                    cols: size(cols)?,
                },
                _ => return None,
            },
            cinm::REDUCE => CnmOp::Reduce {
                op: BinOp::parse(op.str_attr("op")?)?,
                len: len()?,
            },
            cinm::HISTOGRAM => CnmOp::Histogram {
                bins: size(elements(&op.results.iter().next()?))?,
                max_value: int("max")?,
                len: len()?,
            },
            cinm::SELECT => CnmOp::Select {
                threshold: int("threshold")?,
                len: len()?,
            },
            name => CnmOp::Elementwise {
                op: name.strip_prefix("cinm.").and_then(BinOp::parse)?,
                len: len()?,
            },
        };
        (op.operands.len() == decoded.arity() && op.results.len() == 1).then_some(decoded)
    }

    /// `(m, k, n)` of a matmul-like op (a GEMV is `n = 1`), the shape the
    /// crossbar schedule tiles.
    pub(crate) fn matmul_dims(self) -> Option<(usize, usize, usize)> {
        match self {
            CnmOp::Gemm { m, k, n } => Some((m, k, n)),
            CnmOp::Gemv { rows, cols } => Some((rows, cols, 1)),
            _ => None,
        }
    }

    /// Lowers the op onto a grid of `dpus` DPUs: operand layouts, per-DPU
    /// kernel, output chunk and decode rule.
    pub fn geometry(self, dpus: usize) -> CnmGeometry {
        use MramLayout::{Broadcast, Chunk};
        use OutputLayout::Chunked;
        let unused = Chunk(0);
        // `c`: the per-DPU share of the sharded work (rows/elements) — an
        // even split, at least one so empty inputs still launch a
        // well-formed kernel, and a whole window for time series. BFS
        // arrives pre-partitioned: one partition per used DPU.
        let work = self.work();
        let (c, used_dpus) = match self {
            CnmOp::BfsStep {
                vertices_per_dpu, ..
            } => (vertices_per_dpu, work),
            CnmOp::TimeSeries { window, .. } => {
                let c = work.div_ceil(dpus).max(window).max(1);
                (c, work.div_ceil(c))
            }
            _ => {
                let c = work.div_ceil(dpus).max(1);
                (c, work.div_ceil(c))
            }
        };
        let (inputs, out_chunk, out_layout, out_len, kernel) = match self {
            CnmOp::Gemm { k, n, .. } => (
                [Chunk(c * k), Broadcast(k * n), unused],
                c * n,
                Chunked,
                work * n,
                DpuKernelKind::Gemm { m: c, k, n },
            ),
            CnmOp::Gemv { cols, .. } => (
                [Chunk(c * cols), Broadcast(cols), unused],
                c,
                Chunked,
                work,
                DpuKernelKind::Gemv { rows: c, cols },
            ),
            CnmOp::Elementwise { op, .. } => (
                [Chunk(c), Chunk(c), unused],
                c,
                Chunked,
                work,
                DpuKernelKind::Elementwise { op, len: c },
            ),
            // The scatter's zero padding never reaches the fold: only the
            // used DPUs' partials are read.
            CnmOp::Reduce { op, .. } => (
                [Chunk(c), unused, unused],
                1,
                OutputLayout::ReducePartials {
                    op,
                    used: used_dpus,
                },
                1,
                DpuKernelKind::Reduce { op, len: c },
            ),
            CnmOp::Histogram {
                bins, max_value, ..
            } => (
                [Chunk(c), unused, unused],
                bins,
                OutputLayout::HistPartials {
                    bins,
                    len: work,
                    chunk: c,
                },
                bins,
                DpuKernelKind::Histogram {
                    bins,
                    len: c,
                    max_value,
                },
            ),
            CnmOp::Select { threshold, .. } => (
                [Chunk(c), unused, unused],
                c + 1,
                OutputLayout::SelectRaw {
                    threshold,
                    len: work,
                    chunk: c,
                },
                work,
                DpuKernelKind::Select { len: c, threshold },
            ),
            CnmOp::TimeSeries { window, .. } => {
                let positions = c - window + 1;
                (
                    [Chunk(c), unused, unused],
                    positions,
                    OutputLayout::Profiles {
                        used: used_dpus,
                        positions,
                    },
                    used_dpus * positions,
                    DpuKernelKind::TimeSeries { len: c, window },
                )
            }
            CnmOp::BfsStep { avg_degree, .. } => (
                [Chunk(c + 1), Chunk(c * avg_degree), Chunk(c)],
                c,
                Chunked,
                work * c,
                DpuKernelKind::BfsStep {
                    vertices: c,
                    avg_degree,
                },
            ),
        };
        CnmGeometry {
            inputs,
            out_chunk,
            out_layout,
            out_len,
            used_dpus,
            kernel,
        }
    }

    /// The host program of the op on a grid of `dpus` DPUs, in issue
    /// order: one scatter per `Chunk` operand and one broadcast per
    /// `Broadcast` operand of its [`geometry`](Self::geometry), the launch of
    /// the geometry's kernel and the gather of its output chunk. The backend
    /// issues exactly this list and the cost model prices it; a session
    /// issues it less the transfers its residency saves. An op with nothing
    /// to compute — no output elements, or an empty operand — issues
    /// nothing.
    pub fn commands(self, dpus: usize) -> impl Iterator<Item = Command> {
        let geometry = self.geometry(dpus);
        let elems = self.operand_elems();
        let arity = self.arity();
        let empty = geometry.out_len == 0 || elems[..arity].contains(&0);
        let transfers = (0..arity).map(move |input| match geometry.inputs[input] {
            MramLayout::Chunk(chunk) => Command::Scatter {
                input,
                chunk,
                elems: elems[input],
            },
            MramLayout::Broadcast(_) => Command::Broadcast {
                input,
                elems: elems[input],
            },
        });
        let tail = [
            Command::Launch(geometry.kernel),
            Command::Gather {
                chunk: geometry.out_chunk,
            },
        ];
        transfers
            .chain(tail)
            .take(if empty { 0 } else { arity + 2 })
    }

    /// Panics unless `operands` are the op's: one per operand, each of the
    /// element count the op states for it. The eager backends' one shape
    /// check.
    pub(crate) fn check_operands(self, operands: &[&[i32]]) {
        let (elems, name) = (self.operand_elems(), self.mnemonic());
        assert_eq!(operands.len(), self.arity(), "{name} operands");
        for (i, operand) in operands.iter().enumerate() {
            assert_eq!(operand.len(), elems[i], "{name} operand {i} shape mismatch");
        }
    }

    /// The logical element count of each operand, `0` past the arity (BFS:
    /// the pre-partitioned CSR rows, columns and frontier of every used
    /// partition): what a transfer bills and what
    /// [`check_operands`](Self::check_operands) asks of an operand.
    fn operand_elems(self) -> [usize; 3] {
        match self {
            CnmOp::Gemm { m, k, n } => [m * k, k * n, 0],
            CnmOp::Gemv { rows, cols } => [rows * cols, cols, 0],
            CnmOp::Elementwise { len, .. } => [len, len, 0],
            CnmOp::Reduce { len, .. }
            | CnmOp::Histogram { len, .. }
            | CnmOp::Select { len, .. }
            | CnmOp::TimeSeries { len, .. } => [len, 0, 0],
            CnmOp::BfsStep {
                vertices_per_dpu: c,
                avg_degree,
                used_dpus,
            } => [c + 1, c * avg_degree, c].map(|per_dpu| per_dpu * used_dpus),
        }
    }

    fn work_mut(&mut self) -> &mut usize {
        match self {
            CnmOp::Gemm { m: w, .. }
            | CnmOp::Gemv { rows: w, .. }
            | CnmOp::Elementwise { len: w, .. }
            | CnmOp::Reduce { len: w, .. }
            | CnmOp::Histogram { len: w, .. }
            | CnmOp::Select { len: w, .. }
            | CnmOp::TimeSeries { len: w, .. }
            | CnmOp::BfsStep { used_dpus: w, .. } => w,
        }
    }

    /// The sharded work units: rows of a matmul-like op, elements of a
    /// streaming op, partitions of a BFS step.
    pub fn work(mut self) -> usize {
        *self.work_mut()
    }

    /// The same op over a different amount of sharded work.
    pub fn with_work(mut self, work: usize) -> CnmOp {
        *self.work_mut() = work;
        self
    }

    /// Number of operands.
    pub(crate) fn arity(self) -> usize {
        match self {
            CnmOp::Gemm { .. } | CnmOp::Gemv { .. } | CnmOp::Elementwise { .. } => 2,
            CnmOp::BfsStep { .. } => 3,
            _ => 1,
        }
    }

    /// Short name of the op (error messages).
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            CnmOp::Gemm { .. } => "gemm",
            CnmOp::Gemv { .. } => "gemv",
            CnmOp::Elementwise { .. } => "elementwise",
            CnmOp::Reduce { .. } => "reduce",
            CnmOp::Histogram { .. } => "histogram",
            CnmOp::Select { .. } => "select",
            CnmOp::TimeSeries { .. } => "time_series",
            CnmOp::BfsStep { .. } => "bfs_step",
        }
    }

    /// The [`ShardShape`] of the op when it can be shard-planned across
    /// devices; `None` for the PrIM kernels that only the UPMEM grid executes
    /// (`select`, `time_series`, `bfs_step`).
    pub fn shard_shape(self) -> Option<ShardShape> {
        match self {
            CnmOp::Gemm { m, k, n } => Some(ShardShape::matmul(m, k, n)),
            CnmOp::Gemv { rows, cols } => Some(ShardShape::matmul(rows, cols, 1)),
            CnmOp::Elementwise { len, .. }
            | CnmOp::Reduce { len, .. }
            | CnmOp::Histogram { len, .. } => Some(ShardShape::streaming(len)),
            _ => None,
        }
    }

    /// The op with every value parameter that does not affect buffer
    /// geometry erased (operator, threshold, histogram range, BFS
    /// occupancy): two ops with equal erasures share device buffers.
    pub(crate) fn erased(mut self) -> CnmOp {
        match &mut self {
            CnmOp::Elementwise { op, .. } | CnmOp::Reduce { op, .. } => *op = BinOp::Add,
            CnmOp::Histogram { max_value: v, .. } | CnmOp::Select { threshold: v, .. } => *v = 0,
            CnmOp::BfsStep { used_dpus, .. } => *used_dpus = 0,
            _ => {}
        }
        self
    }
}

/// The selections in the raw gathered output of the select kernel: each DPU
/// contributes a `(count, values...)` record of `chunk + 1` elements; the
/// selections of the used DPUs, in order, are the result, without the
/// trailing zero-pad selections of the last chunk for negative thresholds
/// (padding zeros never pass a non-negative threshold check).
fn select_runs(
    raw: &[i32],
    chunk: usize,
    len: usize,
    threshold: i32,
) -> impl Iterator<Item = &[i32]> {
    let used_dpus = len.div_ceil(chunk.max(1));
    (0..used_dpus).map(move |d| {
        let base = d * (chunk + 1);
        let count = raw[base].max(0) as usize;
        let valid = if d + 1 == used_dpus {
            let pad = chunk * used_dpus - len;
            count.saturating_sub(if threshold < 0 { pad } else { 0 })
        } else {
            count
        };
        &raw[base + 1..base + 1 + valid.min(chunk)]
    })
}

/// Merges per-DPU privatised histograms into the `bins` of `out`, removing
/// the counts contributed by the zero padding of the final chunk and by idle
/// DPUs beyond the data.
fn merge_histogram_partials(
    partials: &[i32],
    bins: usize,
    len: usize,
    chunk: usize,
    dpus: usize,
    out: &mut [i32],
) {
    out.fill(0);
    for (i, v) in partials.iter().enumerate() {
        out[i % bins] += v;
    }
    let chunk = chunk.max(1);
    // Remove the counts contributed by zero padding of the final chunk.
    let padded = chunk * len.div_ceil(chunk) - len;
    out[0] -= padded as i32;
    // Idle DPUs (beyond the data) hold all-zero chunks: subtract those too.
    let idle = dpus - len.div_ceil(chunk);
    out[0] -= (idle * chunk) as i32;
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: [CnmOp; 8] = [
        CnmOp::Gemm { m: 5, k: 3, n: 2 },
        CnmOp::Gemv { rows: 5, cols: 3 },
        CnmOp::Elementwise {
            op: BinOp::Max,
            len: 9,
        },
        CnmOp::Reduce {
            op: BinOp::Min,
            len: 9,
        },
        CnmOp::Histogram {
            bins: 4,
            max_value: 64,
            len: 9,
        },
        CnmOp::Select {
            threshold: -1,
            len: 9,
        },
        CnmOp::TimeSeries { window: 3, len: 9 },
        CnmOp::BfsStep {
            vertices_per_dpu: 2,
            avg_degree: 3,
            used_dpus: 2,
        },
    ];

    #[test]
    fn chunks_cover_the_work_on_any_grid() {
        for op in OPS {
            for dpus in [1usize, 3, 4, 64] {
                let g = op.geometry(dpus);
                let MramLayout::Chunk(c) = g.inputs[0] else {
                    panic!("the first operand is always scattered: {op:?}");
                };
                assert!(g.used_dpus >= 1 && c >= 1, "{op:?} on {dpus}");
                if !matches!(op, CnmOp::BfsStep { .. }) {
                    assert!(g.used_dpus <= dpus, "{op:?} on {dpus}");
                    assert!(g.out_len <= g.out_chunk * dpus, "{op:?} on {dpus}");
                }
            }
        }
    }

    #[test]
    fn shard_shapes_follow_the_work_and_erasure_keeps_the_geometry() {
        for op in OPS {
            if let Some(shape) = op.shard_shape() {
                assert_eq!(shape.work, op.work(), "{op:?}");
                assert_eq!(op.with_work(7).shard_shape().unwrap().work, 7);
            }
            let (a, b) = (op.geometry(4), op.erased().geometry(4));
            assert_eq!((a.inputs, a.out_chunk), (b.inputs, b.out_chunk), "{op:?}");
            assert_eq!(op.erased(), op.erased().erased());
        }
    }

    #[test]
    fn wram_tile_is_bounded_and_aligned() {
        const WRAM: usize = 64 * 1024;
        let tile = |tasklets| KernelCodegen::new(true, 1.0, None, tasklets, WRAM).wram_tile;
        let t = tile(16);
        assert!(t >= 64);
        assert_eq!(t % 64, 0);
        assert!(t * 4 * 16 * 3 <= 64 * 1024 + 64 * 4 * 16 * 3);
        // One tasklet gets a bigger tile than sixteen.
        assert!(tile(1) >= tile(16));
        // Without the locality optimisation the tile is 64 words, and an
        // override wins either way.
        assert_eq!(KernelCodegen::new(false, 1.0, None, 16, WRAM).wram_tile, 64);
        assert_eq!(
            KernelCodegen::new(true, 1.0, Some(256), 16, WRAM).wram_tile,
            256
        );
    }

    #[test]
    fn partial_layouts_decode_to_the_logical_value() {
        let mut out = vec![99];
        OutputLayout::ReducePartials {
            op: BinOp::Add,
            used: 2,
        }
        .decode_into(&[3, 4, 100], 3, 1, &mut out);
        assert_eq!(out, [7]);
        // Five elements on three DPUs (chunk 2): one padding zero in the
        // last chunk, none idle.
        OutputLayout::HistPartials {
            bins: 2,
            len: 5,
            chunk: 2,
        }
        .decode_into(&[1, 1, 2, 0, 2, 0], 3, 2, &mut out);
        assert_eq!(out, [4, 1]);
        OutputLayout::SelectRaw {
            threshold: 0,
            len: 3,
            chunk: 2,
        }
        .decode_into(&[2, 7, 8, 1, 9, 0], 2, 3, &mut out);
        assert_eq!(out, [7, 8, 9]);
    }
}
