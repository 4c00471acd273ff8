//! The simulator floor: device programs issued straight to `UpmemSystem`
//! (allocate, transfer, launch, gather), with no session, planner, command
//! stream or shape cache in between. Kernel specs come from
//! `UpmemBackend::kernel_spec`, so the launches are the ones the lowering
//! would issue; everything the lowering adds around them is left out.

use cinm::core::runner::WorkloadInputs;
use cinm::lowering::{UpmemBackend, UpmemRunOptions};
use cinm::runtime::PoolHandle;
use cinm::upmem::{BinOp, DpuKernelKind, FusedArg, FusedStage, UpmemSystem};
use cinm::workloads::{Scale, WorkloadId, WorkloadParams};

/// A paper program that is one kernel with no host-side data preparation.
pub enum Program<'a> {
    Gemm {
        a: &'a [i32],
        b: &'a [i32],
        m: usize,
        k: usize,
        n: usize,
    },
    Gemv {
        a: &'a [i32],
        x: &'a [i32],
        rows: usize,
        cols: usize,
    },
    Add {
        a: &'a [i32],
        b: &'a [i32],
    },
    ReduceAdd {
        a: &'a [i32],
    },
}

/// mm, contrs2, mv, va and red; the other UPMEM programs prepare data on
/// the host or chain several kernels, which a bare system cannot mirror
/// without re-implementing the lowering.
pub fn program_of(id: WorkloadId, scale: Scale, inp: &WorkloadInputs) -> Option<Program<'_>> {
    let b = &inp.buffers;
    Some(match (id, id.params(scale)) {
        (WorkloadId::Mm, WorkloadParams::Gemm { m, k, n }) => Program::Gemm {
            a: &b[0],
            b: &b[1],
            m,
            k,
            n,
        },
        (WorkloadId::Contrs2, WorkloadParams::ContractS2 { a, b: bb, c, d }) => Program::Gemm {
            a: &b[0],
            b: &b[1],
            m: a * c,
            k: d,
            n: bb,
        },
        (WorkloadId::Mv, WorkloadParams::Gemv { rows, cols }) => Program::Gemv {
            a: &b[0],
            x: &b[1],
            rows,
            cols,
        },
        (WorkloadId::Va, WorkloadParams::Vector { .. }) => Program::Add { a: &b[0], b: &b[1] },
        (WorkloadId::Red, WorkloadParams::Vector { .. }) => Program::ReduceAdd { a: &b[0] },
        _ => return None,
    })
}

pub struct Direct {
    /// Owns the system; its lowering methods are never called.
    backend: UpmemBackend,
}

impl Direct {
    pub fn new(ranks: usize, pool: &PoolHandle) -> Self {
        Direct {
            backend: UpmemBackend::new(
                ranks,
                UpmemRunOptions::optimized()
                    .with_host_threads(1)
                    .with_pool(pool.clone()),
            ),
        }
    }

    pub fn system(&mut self) -> &mut UpmemSystem {
        self.backend.system_mut()
    }

    pub fn dpus(&self) -> usize {
        self.backend.num_dpus()
    }

    pub fn alloc(&mut self, elems_per_dpu: usize) -> u32 {
        self.system()
            .alloc_buffer(elems_per_dpu)
            .expect("MRAM alloc")
    }

    pub fn launch(&mut self, kind: DpuKernelKind, inputs: Vec<u32>, output: u32) {
        let spec = self.backend.kernel_spec(kind, inputs, output);
        self.system().launch(&spec).expect("launch");
    }

    /// Allocate, move the operands in, launch, gather — one cold program.
    pub fn run(&mut self, program: &Program<'_>) -> Vec<i32> {
        let dpus = self.dpus();
        match *program {
            Program::Gemm { a, b, m, k, n } => {
                let rpd = m.div_ceil(dpus).max(1);
                let (ab, bb, cb) = (self.alloc(rpd * k), self.alloc(k * n), self.alloc(rpd * n));
                self.system().scatter_i32(ab, a, rpd * k).expect("scatter");
                self.system().broadcast_i32(bb, b).expect("broadcast");
                self.launch(DpuKernelKind::Gemm { m: rpd, k, n }, vec![ab, bb], cb);
                self.system().gather_i32(cb, rpd * n).expect("gather").0
            }
            Program::Gemv { a, x, rows, cols } => {
                let rpd = rows.div_ceil(dpus).max(1);
                let (ab, xb, yb) = (self.alloc(rpd * cols), self.alloc(cols), self.alloc(rpd));
                self.system()
                    .scatter_i32(ab, a, rpd * cols)
                    .expect("scatter");
                self.system().broadcast_i32(xb, x).expect("broadcast");
                self.launch(DpuKernelKind::Gemv { rows: rpd, cols }, vec![ab, xb], yb);
                self.system().gather_i32(yb, rpd).expect("gather").0
            }
            Program::Add { a, b } => {
                let chunk = a.len().div_ceil(dpus).max(1);
                let (ab, bb, cb) = (self.alloc(chunk), self.alloc(chunk), self.alloc(chunk));
                self.system().scatter_i32(ab, a, chunk).expect("scatter");
                self.system().scatter_i32(bb, b, chunk).expect("scatter");
                let kind = DpuKernelKind::Elementwise {
                    op: BinOp::Add,
                    len: chunk,
                };
                self.launch(kind, vec![ab, bb], cb);
                self.system().gather_i32(cb, chunk).expect("gather").0
            }
            Program::ReduceAdd { a } => {
                let chunk = a.len().div_ceil(dpus).max(1);
                let (ab, pb) = (self.alloc(chunk), self.alloc(1));
                self.system().scatter_i32(ab, a, chunk).expect("scatter");
                let kind = DpuKernelKind::Reduce {
                    op: BinOp::Add,
                    len: chunk,
                };
                self.launch(kind, vec![ab], pb);
                self.system().gather_i32(pb, 1).expect("gather").0
            }
        }
    }
}

/// The device side of one session-graph op with everything resident and
/// allocated up front: broadcast the activation, gemv, select, the fused
/// logic chain, reduce, and the three gathers of a fetch.
pub struct GraphProgram {
    direct: Direct,
    rows_per_dpu: usize,
    cols: usize,
    threshold: i32,
    x: u32,
    a: u32,
    y: u32,
    sel: u32,
    masks: [u32; 3],
    tmp: [u32; 3],
    partial: u32,
    out: Vec<i32>,
}

impl GraphProgram {
    pub fn new(
        ranks: usize,
        pool: &PoolHandle,
        a: &[i32],
        masks: [&[i32]; 3],
        rows: usize,
        cols: usize,
        threshold: i32,
    ) -> Self {
        let mut direct = Direct::new(ranks, pool);
        let rpd = rows.div_ceil(direct.dpus()).max(1);
        let ab = direct.alloc(rpd * cols);
        direct
            .system()
            .scatter_i32(ab, a, rpd * cols)
            .expect("scatter");
        let mask_bufs = masks.map(|m| {
            let buf = direct.alloc(rpd);
            direct.system().scatter_i32(buf, m, rpd).expect("scatter");
            buf
        });
        GraphProgram {
            rows_per_dpu: rpd,
            cols,
            threshold,
            x: direct.alloc(cols),
            a: ab,
            y: direct.alloc(rpd),
            sel: direct.alloc(rpd + 1),
            masks: mask_bufs,
            tmp: [direct.alloc(rpd), direct.alloc(rpd), direct.alloc(rpd)],
            partial: direct.alloc(1),
            out: Vec::new(),
            direct,
        }
    }

    pub fn op(&mut self, x: &[i32]) {
        let (rpd, d) = (self.rows_per_dpu, &mut self.direct);
        d.system().broadcast_i32(self.x, x).expect("broadcast");
        // gemv and select accumulate into / partially write their outputs.
        d.system().zero_buffer(self.y).expect("zero");
        d.system().zero_buffer(self.sel).expect("zero");
        let gemv = DpuKernelKind::Gemv {
            rows: rpd,
            cols: self.cols,
        };
        d.launch(gemv, vec![self.a, self.x], self.y);
        let select = DpuKernelKind::Select {
            len: rpd,
            threshold: self.threshold,
        };
        d.launch(select, vec![self.y], self.sel);
        // The xor -> and -> or chain as the one fused launch the optimizer
        // turns it into: inputs y and the three masks, one output per stage.
        let stage = |op, lhs, rhs| FusedStage { op, lhs, rhs };
        let fused = DpuKernelKind::FusedElementwise {
            stages: vec![
                stage(BinOp::Xor, FusedArg::Input(0), FusedArg::Input(1)),
                stage(BinOp::And, FusedArg::Stage(0), FusedArg::Input(2)),
                stage(BinOp::Or, FusedArg::Stage(1), FusedArg::Input(3)),
            ],
            len: rpd,
            arity: 4,
        };
        let [m0, m1, m2] = self.masks;
        let spec = d
            .backend
            .kernel_spec(fused, vec![self.y, m0, m1, m2], self.tmp[0])
            .with_extra_outputs(vec![self.tmp[1], self.tmp[2]]);
        d.system().launch(&spec).expect("fused launch");
        let input = self.tmp[2];
        let reduce = DpuKernelKind::Reduce {
            op: BinOp::Add,
            len: rpd,
        };
        d.launch(reduce, vec![input], self.partial);
        for (buf, chunk) in [(self.sel, rpd + 1), (input, rpd), (self.partial, 1)] {
            d.system()
                .gather_i32_into(buf, chunk, &mut self.out)
                .expect("gather");
            std::hint::black_box(&self.out);
        }
    }
}
