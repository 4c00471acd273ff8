//! Workload runners: execute every benchmark on the host reference, the
//! [`Session`] graph API and the per-device back-ends, returning results and
//! simulated costs.
//!
//! [`run_session`] is the primary execution path (it is what the experiment
//! harness and [`run_upmem_with_stats`] drive); the eager
//! [`run_upmem`]/[`run_cim`] paths are retained as the equivalence oracle —
//! `session_results_match_the_eager_oracle` pins the two bit-identical per
//! workload, including the simulated kernel time.

use cinm_lowering::{
    CimBackend, CimRunOptions, CimRunStats, ShardedRunOptions, UpmemBackend, UpmemRunOptions,
};
use cinm_workloads::{data, Scale, WorkloadId, WorkloadParams};
use cpu_sim::kernels;
use cpu_sim::model::{CpuModel, OpCounts};
use upmem_sim::{BinOp, SystemStats};

use crate::session::{Session, SessionOptions, TensorHandle, TensorShape};
use crate::shard::ShardPolicy;
use crate::target::Target;

/// The input tensors of one workload instance.
#[derive(Debug, Clone, Default)]
pub struct WorkloadInputs {
    /// Flat input buffers, in workload-specific order.
    pub buffers: Vec<Vec<i32>>,
}

/// Generates the (deterministic) inputs of a workload.
pub fn inputs(id: WorkloadId, scale: Scale) -> WorkloadInputs {
    let p = id.params(scale);
    let g = |seed, len| data::i32_vec(seed, len, -8, 8);
    let buffers = match p {
        WorkloadParams::Gemm { m, k, n } => vec![g(1, m * k), g(2, k * n)],
        WorkloadParams::Gemm2 { m, k, n, p } => vec![g(1, m * k), g(2, k * n), g(3, n * p)],
        WorkloadParams::Gemm3 { m, k, n, p } => {
            vec![g(1, m * k), g(2, k * n), g(3, n * k), g(4, k * p)]
        }
        WorkloadParams::Conv2d { h, w, c, kh, kw, f } => {
            vec![g(1, h * w * c), g(2, kh * kw * c * f)]
        }
        WorkloadParams::ContractL { a, b, c, d, e, f } => {
            vec![g(1, a * e * b * f), g(2, d * f * c * e)]
        }
        WorkloadParams::ContractS1 { a, b, c, d } => vec![g(1, a * c * d), g(2, d * b * c)],
        WorkloadParams::ContractS2 { a, b, c, d } => vec![g(1, a * c * d), g(2, d * b)],
        WorkloadParams::Mlp { batch, layers } => vec![
            g(1, batch * layers[0]),
            g(2, layers[1] * layers[0]),
            g(3, layers[1]),
            g(4, layers[2] * layers[1]),
            g(5, layers[2]),
            g(6, layers[3] * layers[2]),
            g(7, layers[3]),
        ],
        WorkloadParams::Gemv { rows, cols } => vec![g(1, rows * cols), g(2, cols)],
        WorkloadParams::Vector { len } => vec![g(1, len), g(2, len)],
        WorkloadParams::Select { len, .. } => vec![data::i32_vec(1, len, 0, 1 << 21)],
        WorkloadParams::Bfs { vertices, degree } => {
            let (rows, cols) = data::csr_graph(1, vertices, degree);
            let mut frontier = vec![0i32; vertices];
            for f in frontier.iter_mut().step_by(97) {
                *f = 1;
            }
            vec![rows, cols, frontier]
        }
        WorkloadParams::Histogram { len, max_value, .. } => {
            vec![data::i32_vec(1, len, 0, max_value)]
        }
        WorkloadParams::TimeSeries { len, .. } => vec![data::i32_vec(1, len, -64, 64)],
    };
    WorkloadInputs { buffers }
}

/// Computes the host reference result of a workload (single-threaded golden
/// implementation). For the partitioned PrIM kernels (`ts`, `bfs`) the
/// reference follows the same data partitioning as the device run, which is
/// supplied via `partitions`.
pub fn reference(
    id: WorkloadId,
    scale: Scale,
    inp: &WorkloadInputs,
    partitions: usize,
) -> Vec<i32> {
    let p = id.params(scale);
    let b = &inp.buffers;
    match p {
        WorkloadParams::Gemm { m, k, n } => kernels::matmul(&b[0], &b[1], m, k, n),
        WorkloadParams::Gemm2 { m, k, n, p } => {
            let d = kernels::matmul(&b[0], &b[1], m, k, n);
            kernels::matmul(&d, &b[2], m, n, p)
        }
        WorkloadParams::Gemm3 { m, k, n, p } => {
            let e = kernels::matmul(&b[0], &b[1], m, k, n);
            let f = kernels::matmul(&b[2], &b[3], n, k, p);
            kernels::matmul(&e, &f, m, n, p)
        }
        WorkloadParams::Conv2d { h, w, c, kh, kw, f } => {
            kernels::conv2d_nhwc_hwcf(&b[0], &b[1], 1, h, w, c, kh, kw, f)
        }
        WorkloadParams::ContractL {
            a,
            b: bb,
            c,
            d,
            e,
            f,
        } => kernels::contraction_contrl(&b[0], &b[1], a, bb, c, d, e, f),
        WorkloadParams::ContractS1 { a, b: bb, c, d } => {
            kernels::contraction_contrs1(&b[0], &b[1], a, bb, c, d)
        }
        WorkloadParams::ContractS2 { a, b: bb, c, d } => {
            kernels::contraction_contrs2(&b[0], &b[1], a, bb, c, d)
        }
        WorkloadParams::Mlp { batch, layers } => {
            let l1 =
                kernels::fully_connected(&b[0], &b[1], &b[2], batch, layers[0], layers[1], true);
            let l2 = kernels::fully_connected(&l1, &b[3], &b[4], batch, layers[1], layers[2], true);
            kernels::fully_connected(&l2, &b[5], &b[6], batch, layers[2], layers[3], false)
        }
        WorkloadParams::Gemv { rows, cols } => kernels::matvec(&b[0], &b[1], rows, cols),
        WorkloadParams::Vector { len: _ } => match id {
            WorkloadId::Red => vec![kernels::reduce_add(&b[0])],
            _ => kernels::vector_add(&b[0], &b[1]),
        },
        WorkloadParams::Select { threshold, .. } => kernels::select_gt(&b[0], threshold),
        WorkloadParams::Bfs { vertices, degree } => {
            // Partitioned semantics: one golden step per partition's CSR
            // fragment.
            let f = bfs_fragments(&b[0], &b[1], &b[2], vertices, degree, partitions);
            let vp = f.vertices_per_dpu;
            (0..f.used_dpus)
                .flat_map(|p| {
                    kernels::bfs_step(
                        &f.rows[p * (vp + 1)..][..vp + 1],
                        &f.cols[p * vp * degree..][..vp * degree],
                        &f.frontier[p * vp..][..vp],
                        vp,
                    )
                })
                .collect()
        }
        WorkloadParams::Histogram {
            bins, max_value, ..
        } => kernels::histogram(&b[0], bins, max_value),
        WorkloadParams::TimeSeries { len, window } => {
            // Partitioned semantics: each partition profiles its chunk.
            let chunk = len.div_ceil(partitions.max(1)).max(window);
            let mut out = Vec::new();
            let mut padded = b[0].clone();
            padded.resize(chunk * len.div_ceil(chunk), 0);
            for part in 0..len.div_ceil(chunk) {
                let slice = &padded[part * chunk..(part + 1) * chunk];
                out.extend_from_slice(&kernels::time_series_profile(slice, window));
            }
            out
        }
    }
}

/// Per-partition CSR fragments of a BFS graph, laid out contiguously so a
/// chunked scatter gives each DPU its fragment (shared by the eager runner,
/// the session runner and the multi-step BFS experiment).
#[derive(Debug, Clone)]
pub struct BfsFragments {
    /// Concatenated per-partition row offsets (`vertices_per_dpu + 1` each).
    pub rows: Vec<i32>,
    /// Concatenated per-partition column indices, padded to
    /// `vertices_per_dpu * degree` each.
    pub cols: Vec<i32>,
    /// Concatenated per-partition frontier bitmaps.
    pub frontier: Vec<i32>,
    /// Vertices owned by each partition.
    pub vertices_per_dpu: usize,
    /// Partitions actually holding vertices.
    pub used_dpus: usize,
}

/// Builds the per-partition CSR fragments of a BFS graph over `partitions`
/// partitions (the device's DPU count): each partition owns a contiguous
/// block of vertices with a local CSR fragment whose column indices address
/// vertices modulo the partition size — the PrIM-style partitioned BFS
/// semantics both the simulator kernel and the host reference follow.
pub fn bfs_fragments(
    row_offsets: &[i32],
    col_indices: &[i32],
    frontier: &[i32],
    vertices: usize,
    degree: usize,
    partitions: usize,
) -> BfsFragments {
    let vp = vertices.div_ceil(partitions.max(1)).max(1);
    let used = vertices.div_ceil(vp);
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    let mut front = Vec::new();
    for part in 0..used {
        let v0 = part * vp;
        let v1 = (v0 + vp).min(vertices);
        let mut local_rows = vec![0i32];
        let mut local_cols = Vec::new();
        for v in v0..v1 {
            let s = row_offsets[v] as usize;
            let e = row_offsets[v + 1] as usize;
            local_cols.extend_from_slice(&col_indices[s..e]);
            local_rows.push(local_cols.len() as i32);
        }
        local_rows.resize(vp + 1, *local_rows.last().unwrap());
        local_cols.resize(vp * degree, 0);
        rows.extend_from_slice(&local_rows);
        cols.extend_from_slice(&local_cols);
        let mut local_front = vec![0i32; vp];
        local_front[..v1 - v0].copy_from_slice(&frontier[v0..v1]);
        front.extend_from_slice(&local_front);
    }
    BfsFragments {
        rows,
        cols,
        frontier: front,
        vertices_per_dpu: vp,
        used_dpus: used,
    }
}

/// Runs a workload on the UPMEM backend, returning `(result, stats)`.
pub fn run_upmem(
    id: WorkloadId,
    scale: Scale,
    inp: &WorkloadInputs,
    backend: &mut UpmemBackend,
) -> Vec<i32> {
    let p = id.params(scale);
    let b = &inp.buffers;
    match p {
        WorkloadParams::Gemm { m, k, n } => backend.gemm(&b[0], &b[1], m, k, n),
        WorkloadParams::Gemm2 { m, k, n, p } => {
            let d = backend.gemm(&b[0], &b[1], m, k, n);
            backend.gemm(&d, &b[2], m, n, p)
        }
        WorkloadParams::Gemm3 { m, k, n, p } => {
            // The third GEMM depends on the first two; the host synchronises
            // in between (the barrier discussed for Figure 11).
            let e = backend.gemm(&b[0], &b[1], m, k, n);
            let f = backend.gemm(&b[2], &b[3], n, k, p);
            backend.gemm(&e, &f, m, n, p)
        }
        WorkloadParams::Conv2d { h, w, c, kh, kw, f } => {
            // conv is rewritten as im2col + GEMM (Figure 5); the host prepares
            // the patch matrix before scattering it.
            let patches = kernels::im2col(&b[0], 1, h, w, c, kh, kw);
            let oh = h - kh + 1;
            let ow = w - kw + 1;
            backend.gemm(&patches, &b[1], oh * ow, kh * kw * c, f)
        }
        WorkloadParams::ContractL {
            a,
            b: bb,
            c,
            d,
            e,
            f,
        } => {
            // Rewritten as GEMM over collapsed index groups. The contrl
            // kernel contracts (e, f): A[(a·b) × (e·f)], B[(e·f) × (c·d)].
            let a_mat = regroup_contrl_a(&b[0], a, bb, e, f);
            let b_mat = regroup_contrl_b(&b[1], c, d, e, f);
            let flat = backend.gemm(&a_mat, &b_mat, a * bb, e * f, c * d);
            reorder_contrl_output(flat, a, bb, c, d)
        }
        WorkloadParams::ContractS1 { a, b: bb, c, d } => {
            let a_mat = regroup_contrs1_a(&b[0], a, c, d);
            let b_mat = regroup_contrs1_b(&b[1], bb, c, d);
            backend.gemm(a_mat, &b_mat, a, c * d, bb)
        }
        WorkloadParams::ContractS2 { a, b: bb, c, d } => {
            let flat = backend.gemm(&b[0], &b[1], a * c, d, bb);
            reorder_contrs2_output(&flat, a, bb, c)
        }
        WorkloadParams::Mlp { batch, layers } => {
            let mut x = b[0].clone();
            let specs = [
                (&b[1], &b[2], layers[0], layers[1], true),
                (&b[3], &b[4], layers[1], layers[2], true),
                (&b[5], &b[6], layers[2], layers[3], false),
            ];
            for (w, bias, inf, outf, relu) in specs {
                let wt = kernels::transpose(w, outf, inf);
                let y = backend.gemm(&x, &wt, batch, inf, outf);
                let bias_full: Vec<i32> = (0..batch * outf).map(|i| bias[i % outf]).collect();
                let mut z = backend.elementwise(BinOp::Add, &y, &bias_full);
                if relu {
                    let zeros = vec![0i32; z.len()];
                    z = backend.elementwise(BinOp::Max, &z, &zeros);
                }
                x = z;
            }
            x
        }
        WorkloadParams::Gemv { rows, cols } => backend.gemv(&b[0], &b[1], rows, cols),
        WorkloadParams::Vector { .. } => match id {
            WorkloadId::Red => vec![backend.reduce(BinOp::Add, &b[0])],
            _ => backend.elementwise(BinOp::Add, &b[0], &b[1]),
        },
        WorkloadParams::Select { threshold, .. } => backend.select(&b[0], threshold),
        WorkloadParams::Bfs { vertices, degree } => {
            let f = bfs_fragments(&b[0], &b[1], &b[2], vertices, degree, backend.num_dpus());
            backend.bfs_step(
                &f.rows,
                &f.cols,
                &f.frontier,
                f.vertices_per_dpu,
                degree,
                f.used_dpus,
            )
        }
        WorkloadParams::Histogram {
            bins, max_value, ..
        } => backend.histogram(&b[0], bins, max_value),
        WorkloadParams::TimeSeries { window, .. } => backend.time_series(&b[0], window),
    }
}

/// Runs a workload through the [`Session`] graph API — the primary execution
/// path. Device ops are recorded lazily against [`Session::input`] tensors
/// and run with [`Session::run_with`], which reads every operand in place, so
/// the session copies no input; multi-op workloads (`2mm`, `3mm`, `mlp`)
/// chain through device-resident intermediates instead of the eager path's
/// gather + re-scatter. Host-side preparation (im2col, contraction
/// regrouping, MLP weight transposes) runs on the host exactly as in the
/// eager path, so results are bit-identical to [`run_upmem`] (pinned by the
/// oracle test). The result is moved out of the session ([`Session::take`]),
/// so the result handle is stale afterwards.
pub fn run_session(
    id: WorkloadId,
    scale: Scale,
    inp: &WorkloadInputs,
    s: &mut Session,
) -> Vec<i32> {
    let p = id.params(scale);
    let b = &inp.buffers;
    let matrix = |rows, cols| TensorShape::Matrix { rows, cols };
    let vector = |len| TensorShape::Vector { len };
    let run = |s: &mut Session, feeds: &[(TensorHandle, &[i32])]| {
        s.run_with(feeds).expect("session plan");
    };
    match p {
        WorkloadParams::Gemm { m, k, n } => {
            let a = s.input(matrix(m, k));
            let bb = s.input(matrix(k, n));
            let c = s.gemm(a, bb);
            run(s, &[(a, &b[0]), (bb, &b[1])]);
            s.take(c)
        }
        WorkloadParams::Gemm2 { m, k, n, p } => {
            let a = s.input(matrix(m, k));
            let bb = s.input(matrix(k, n));
            let cc = s.input(matrix(n, p));
            let d = s.gemm(a, bb);
            let e = s.gemm(d, cc);
            run(s, &[(a, &b[0]), (bb, &b[1]), (cc, &b[2])]);
            s.take(e)
        }
        WorkloadParams::Gemm3 { m, k, n, p } => {
            let a = s.input(matrix(m, k));
            let bb = s.input(matrix(k, n));
            let cc = s.input(matrix(n, k));
            let dd = s.input(matrix(k, p));
            let e = s.gemm(a, bb);
            let f = s.gemm(cc, dd);
            let g = s.gemm(e, f);
            run(s, &[(a, &b[0]), (bb, &b[1]), (cc, &b[2]), (dd, &b[3])]);
            s.take(g)
        }
        WorkloadParams::Conv2d { h, w, c, kh, kw, f } => {
            // conv is rewritten as im2col + GEMM (Figure 5); the host
            // prepares the patch matrix before the graph runs.
            let patches = kernels::im2col(&b[0], 1, h, w, c, kh, kw);
            let (oh, ow) = (h - kh + 1, w - kw + 1);
            let a = s.input(matrix(oh * ow, kh * kw * c));
            let bb = s.input(matrix(kh * kw * c, f));
            let out = s.gemm(a, bb);
            run(s, &[(a, &patches), (bb, &b[1])]);
            s.take(out)
        }
        WorkloadParams::ContractL {
            a,
            b: bb,
            c,
            d,
            e,
            f,
        } => {
            let a_mat = regroup_contrl_a(&b[0], a, bb, e, f);
            let b_mat = regroup_contrl_b(&b[1], c, d, e, f);
            let at = s.input(matrix(a * bb, e * f));
            let bt = s.input(matrix(e * f, c * d));
            let out = s.gemm(at, bt);
            run(s, &[(at, &a_mat), (bt, &b_mat)]);
            reorder_contrl_output(s.take(out), a, bb, c, d)
        }
        WorkloadParams::ContractS1 { a, b: bb, c, d } => {
            let a_mat = regroup_contrs1_a(&b[0], a, c, d);
            let b_mat = regroup_contrs1_b(&b[1], bb, c, d);
            let at = s.input(matrix(a, c * d));
            let bt = s.input(matrix(c * d, bb));
            let out = s.gemm(at, bt);
            run(s, &[(at, a_mat), (bt, &b_mat)]);
            s.take(out)
        }
        WorkloadParams::ContractS2 { a, b: bb, c, d } => {
            let at = s.input(matrix(a * c, d));
            let bt = s.input(matrix(d, bb));
            let out = s.gemm(at, bt);
            run(s, &[(at, &b[0]), (bt, &b[1])]);
            reorder_contrs2_output(&s.take(out), a, bb, c)
        }
        WorkloadParams::Mlp { batch, layers } => {
            // The weight transposes and bias replication are host-side data
            // preparation; the three GEMM + bias + ReLU stages are one graph
            // whose intermediates chain on the device.
            let specs = [
                (&b[1], &b[2], layers[0], layers[1], true),
                (&b[3], &b[4], layers[1], layers[2], true),
                (&b[5], &b[6], layers[2], layers[3], false),
            ];
            // Each prepared operand with the input tensor it is fed to.
            let mut prepared: Vec<(TensorHandle, Vec<i32>)> = Vec::with_capacity(8);
            let x0 = s.input(matrix(batch, layers[0]));
            let mut x = x0;
            let mut out = None;
            for (w, bias, inf, outf, relu) in specs {
                let wt = s.input(matrix(inf, outf));
                prepared.push((wt, kernels::transpose(w, outf, inf)));
                let y = s.gemm(x, wt);
                let bias_t = s.input(vector(batch * outf));
                prepared.push((bias_t, (0..batch * outf).map(|i| bias[i % outf]).collect()));
                let mut z = s.elementwise(BinOp::Add, y, bias_t);
                if relu {
                    let zeros = s.input(vector(batch * outf));
                    prepared.push((zeros, vec![0i32; batch * outf]));
                    z = s.elementwise(BinOp::Max, z, zeros);
                }
                x = s.reshape(z, matrix(batch, outf));
                out = Some(z);
            }
            let _ = x; // the last layer's view feeds no further gemm
            let feeds: Vec<(TensorHandle, &[i32])> = std::iter::once((x0, &b[0][..]))
                .chain(prepared.iter().map(|(h, data)| (*h, &data[..])))
                .collect();
            run(s, &feeds);
            s.take(out.expect("mlp has layers"))
        }
        WorkloadParams::Gemv { rows, cols } => {
            let a = s.input(matrix(rows, cols));
            let x = s.input(vector(b[1].len()));
            let y = s.gemv(a, x);
            run(s, &[(a, &b[0]), (x, &b[1])]);
            s.take(y)
        }
        WorkloadParams::Vector { .. } => {
            let a = s.input(vector(b[0].len()));
            match id {
                WorkloadId::Red => {
                    let r = s.reduce(BinOp::Add, a);
                    run(s, &[(a, &b[0])]);
                    vec![s.fetch_scalar(r)]
                }
                _ => {
                    let bb = s.input(vector(b[1].len()));
                    let c = s.elementwise(BinOp::Add, a, bb);
                    run(s, &[(a, &b[0]), (bb, &b[1])]);
                    s.take(c)
                }
            }
        }
        WorkloadParams::Select { threshold, .. } => {
            let a = s.input(vector(b[0].len()));
            let sel = s.select(a, threshold);
            run(s, &[(a, &b[0])]);
            s.take(sel)
        }
        WorkloadParams::Bfs { vertices, degree } => {
            let f = bfs_fragments(&b[0], &b[1], &b[2], vertices, degree, s.num_dpus());
            let rows = s.input(vector(f.rows.len()));
            let cols = s.input(vector(f.cols.len()));
            let frontier = s.input(vector(f.frontier.len()));
            let next = s.bfs_step(
                rows,
                cols,
                frontier,
                f.vertices_per_dpu,
                degree,
                f.used_dpus,
            );
            run(
                s,
                &[(rows, &f.rows), (cols, &f.cols), (frontier, &f.frontier)],
            );
            s.take(next)
        }
        WorkloadParams::Histogram {
            bins, max_value, ..
        } => {
            let a = s.input(vector(b[0].len()));
            let h = s.histogram(a, bins, max_value);
            run(s, &[(a, &b[0])]);
            s.take(h)
        }
        WorkloadParams::TimeSeries { window, .. } => {
            let a = s.input(vector(b[0].len()));
            let t = s.time_series(a, window);
            run(s, &[(a, &b[0])]);
            s.take(t)
        }
    }
}

/// Runs a matmul-like workload on the CIM backend.
pub fn run_cim(
    id: WorkloadId,
    scale: Scale,
    inp: &WorkloadInputs,
    backend: &mut CimBackend,
) -> Vec<i32> {
    let p = id.params(scale);
    let b = &inp.buffers;
    match p {
        WorkloadParams::Gemm { m, k, n } => backend.gemm(&b[0], &b[1], m, k, n),
        WorkloadParams::Gemm2 { m, k, n, p } => {
            let d = backend.gemm(&b[0], &b[1], m, k, n);
            backend.gemm(&d, &b[2], m, n, p)
        }
        WorkloadParams::Gemm3 { m, k, n, p } => {
            let e = backend.gemm(&b[0], &b[1], m, k, n);
            let f = backend.gemm(&b[2], &b[3], n, k, p);
            backend.gemm(&e, &f, m, n, p)
        }
        WorkloadParams::Conv2d { h, w, c, kh, kw, f } => {
            let patches = kernels::im2col(&b[0], 1, h, w, c, kh, kw);
            // The im2col reshuffle runs on the ARM host.
            backend.host_fallback(OpCounts {
                int_ops: patches.len() as f64,
                mul_ops: 0.0,
                bytes_read: (patches.len() * 4) as f64,
                bytes_written: (patches.len() * 4) as f64,
            });
            let oh = h - kh + 1;
            let ow = w - kw + 1;
            backend.gemm(&patches, &b[1], oh * ow, kh * kw * c, f)
        }
        WorkloadParams::ContractL {
            a,
            b: bb,
            c,
            d,
            e,
            f,
        } => {
            let a_mat = regroup_contrl_a(&b[0], a, bb, e, f);
            let b_mat = regroup_contrl_b(&b[1], c, d, e, f);
            backend.host_fallback(OpCounts {
                int_ops: (a_mat.len() + b_mat.len()) as f64,
                mul_ops: 0.0,
                bytes_read: ((a_mat.len() + b_mat.len()) * 4) as f64,
                bytes_written: ((a_mat.len() + b_mat.len()) * 4) as f64,
            });
            let flat = backend.gemm(&a_mat, &b_mat, a * bb, e * f, c * d);
            reorder_contrl_output(flat, a, bb, c, d)
        }
        WorkloadParams::ContractS1 { a, b: bb, c, d } => {
            let a_mat = regroup_contrs1_a(&b[0], a, c, d);
            let b_mat = regroup_contrs1_b(&b[1], bb, c, d);
            backend.gemm(a_mat, &b_mat, a, c * d, bb)
        }
        WorkloadParams::ContractS2 { a, b: bb, c, d } => {
            let flat = backend.gemm(&b[0], &b[1], a * c, d, bb);
            reorder_contrs2_output(&flat, a, bb, c)
        }
        WorkloadParams::Mlp { batch, layers } => {
            let specs = [
                (&b[1], &b[2], layers[0], layers[1], true),
                (&b[3], &b[4], layers[1], layers[2], true),
                (&b[5], &b[6], layers[2], layers[3], false),
            ];
            // The first layer reads the input in place; each later one the
            // previous layer's output.
            let mut x: Option<Vec<i32>> = None;
            for (w, bias, inf, outf, relu) in specs {
                let wt = kernels::transpose(w, outf, inf);
                let mut y = backend.gemm(x.as_deref().unwrap_or(&b[0]), &wt, batch, inf, outf);
                // Bias add and ReLU stay on the ARM host (non-matmul ops).
                backend.host_fallback(OpCounts {
                    int_ops: 2.0 * y.len() as f64,
                    mul_ops: 0.0,
                    bytes_read: (y.len() * 8) as f64,
                    bytes_written: (y.len() * 4) as f64,
                });
                for row in y.chunks_exact_mut(outf) {
                    for (v, &bias) in row.iter_mut().zip(bias.iter()) {
                        *v = v.wrapping_add(bias);
                        if relu {
                            *v = (*v).max(0);
                        }
                    }
                }
                x = Some(y);
            }
            x.expect("mlp has layers")
        }
        WorkloadParams::Gemv { rows, cols } => backend.gemv(&b[0], &b[1], rows, cols),
        _ => panic!("{} is not part of the CIM suite", id.name()),
    }
}

/// Operation counts of the whole workload for the CPU roofline baselines.
pub fn cpu_op_counts(id: WorkloadId, scale: Scale) -> OpCounts {
    let p = id.params(scale);
    let dense = |macs: usize, elems: usize| {
        OpCounts::dense(macs as f64, (elems * 4) as f64, (elems * 4) as f64)
    };
    match p {
        WorkloadParams::Gemm { m, k, n } => dense(m * k * n, m * k + k * n + m * n),
        WorkloadParams::Gemm2 { m, k, n, p } => {
            dense(m * k * n + m * n * p, m * k + k * n + n * p + 2 * m * p)
        }
        WorkloadParams::Gemm3 { m, k, n, p } => dense(
            m * k * n + n * k * p + m * n * p,
            m * k + k * n + n * k + k * p + m * p,
        ),
        WorkloadParams::Conv2d { h, w, c, kh, kw, f } => {
            let oh = h - kh + 1;
            let ow = w - kw + 1;
            dense(
                oh * ow * f * kh * kw * c,
                h * w * c + kh * kw * c * f + oh * ow * f,
            )
        }
        WorkloadParams::ContractL { a, b, c, d, e, f } => dense(
            a * b * c * d * e * f,
            a * e * b * f + d * f * c * e + a * b * c * d,
        ),
        WorkloadParams::ContractS1 { a, b, c, d } => {
            dense(a * b * c * d, a * c * d + d * b * c + a * b)
        }
        WorkloadParams::ContractS2 { a, b, c, d } => {
            dense(a * b * c * d, a * c * d + d * b + a * b * c)
        }
        WorkloadParams::Mlp { batch, layers } => {
            let macs =
                batch * (layers[0] * layers[1] + layers[1] * layers[2] + layers[2] * layers[3]);
            dense(
                macs,
                batch * (layers[0] + layers[1] + layers[2] + layers[3]),
            )
        }
        WorkloadParams::Gemv { rows, cols } => dense(rows * cols, rows * cols + cols + rows),
        WorkloadParams::Vector { len } => OpCounts {
            int_ops: len as f64,
            mul_ops: 0.0,
            bytes_read: (len * 8) as f64,
            bytes_written: (len * 4) as f64,
        },
        WorkloadParams::Select { len, .. } => OpCounts {
            int_ops: 2.0 * len as f64,
            mul_ops: 0.0,
            bytes_read: (len * 4) as f64,
            bytes_written: (len * 2) as f64,
        },
        WorkloadParams::Bfs { vertices, degree } => OpCounts {
            int_ops: (vertices * (degree + 2)) as f64,
            mul_ops: 0.0,
            bytes_read: (vertices * degree * 8) as f64,
            bytes_written: (vertices * 4) as f64,
        },
        WorkloadParams::Histogram { len, .. } => OpCounts {
            int_ops: 3.0 * len as f64,
            mul_ops: len as f64,
            bytes_read: (len * 4) as f64,
            bytes_written: (len / 8) as f64,
        },
        WorkloadParams::TimeSeries { len, window } => dense(len * window, len * 2),
    }
}

/// Builds a CNM-placed session for `ranks` DIMMs under the given UPMEM
/// code-generation options (what the figure sweeps execute on).
pub fn cnm_session(ranks: usize, options: UpmemRunOptions) -> Session {
    let pool = options.pool.clone();
    Session::new(
        SessionOptions::default()
            .with_policy(ShardPolicy::Single(Target::Cnm))
            .with_sharded(ShardedRunOptions {
                ranks,
                upmem: options,
                pool,
                ..ShardedRunOptions::default()
            }),
    )
}

/// Convenience wrappers returning `(result, simulated stats)`. Since the
/// session migration this executes through the [`Session`] graph API with
/// all ops placed on the CNM grid; the figures report DPU kernel time,
/// which is bit-identical to the eager path (residency changes transfer
/// bytes only, never kernel seconds — see the oracle test).
pub fn run_upmem_with_stats(
    id: WorkloadId,
    scale: Scale,
    ranks: usize,
    options: UpmemRunOptions,
) -> (Vec<i32>, SystemStats) {
    let inp = inputs(id, scale);
    let mut session = cnm_session(ranks, options);
    let out = run_session(id, scale, &inp, &mut session);
    (out, *session.upmem_stats())
}

/// Runs a CIM-suite workload and returns `(result, simulated stats)`.
pub fn run_cim_with_stats(
    id: WorkloadId,
    scale: Scale,
    options: CimRunOptions,
) -> (Vec<i32>, CimRunStats) {
    let inp = inputs(id, scale);
    let mut backend = CimBackend::new(options);
    let out = run_cim(id, scale, &inp, &mut backend);
    (out, backend.stats())
}

/// Execution time of the workload on a CPU baseline model.
pub fn cpu_seconds(id: WorkloadId, scale: Scale, model: &CpuModel) -> f64 {
    model.execution_seconds(&cpu_op_counts(id, scale))
}

// --- layout helpers for the contraction→GEMM rewrites ----------------------

fn regroup_contrl_a(a: &[i32], da: usize, db: usize, de: usize, df: usize) -> Vec<i32> {
    // A[a,e,b,f] -> A'[(a,b),(e,f)]
    let mut out = vec![0i32; da * db * de * df];
    for ia in 0..da {
        for ie in 0..de {
            for ib in 0..db {
                for if_ in 0..df {
                    let src = ((ia * de + ie) * db + ib) * df + if_;
                    let dst = (ia * db + ib) * (de * df) + (ie * df + if_);
                    out[dst] = a[src];
                }
            }
        }
    }
    out
}

fn regroup_contrl_b(b: &[i32], dc: usize, dd: usize, de: usize, df: usize) -> Vec<i32> {
    // B[d,f,c,e] -> B'[(e,f),(c,d)]
    let mut out = vec![0i32; dc * dd * de * df];
    for id in 0..dd {
        for if_ in 0..df {
            for ic in 0..dc {
                for ie in 0..de {
                    let src = ((id * df + if_) * dc + ic) * de + ie;
                    let dst = (ie * df + if_) * (dc * dd) + (ic * dd + id);
                    out[dst] = b[src];
                }
            }
        }
    }
    out
}

fn reorder_contrl_output(flat: Vec<i32>, da: usize, db: usize, dc: usize, dd: usize) -> Vec<i32> {
    // flat[(a,b),(c,d)] is already C[a,b,c,d] row-major.
    assert_eq!(flat.len(), da * db * dc * dd);
    flat
}

fn regroup_contrs1_a(a: &[i32], da: usize, dc: usize, dd: usize) -> &[i32] {
    // A[a,c,d] -> A'[a,(c,d)] — already contiguous.
    assert_eq!(a.len(), da * dc * dd);
    a
}

fn regroup_contrs1_b(b: &[i32], db: usize, dc: usize, dd: usize) -> Vec<i32> {
    // B[d,b,c] -> B'[(c,d),b]
    let mut out = vec![0i32; db * dc * dd];
    for id in 0..dd {
        for ib in 0..db {
            for ic in 0..dc {
                let src = (id * db + ib) * dc + ic;
                let dst = (ic * dd + id) * db + ib;
                out[dst] = b[src];
            }
        }
    }
    out
}

fn reorder_contrs2_output(flat: &[i32], da: usize, db: usize, dc: usize) -> Vec<i32> {
    // flat[(a,c),b] -> C[a,b,c]
    let mut out = vec![0i32; da * db * dc];
    for ia in 0..da {
        for ic in 0..dc {
            for ib in 0..db {
                out[(ia * db + ib) * dc + ic] = flat[(ia * dc + ic) * db + ib];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upmem_results_match_reference_for_every_workload() {
        for id in WorkloadId::all() {
            let inp = inputs(id, Scale::Test);
            let mut cfg = upmem_sim::UpmemConfig::with_ranks(1);
            cfg.dpus_per_rank = 8;
            let mut backend = UpmemBackend::with_config(cfg, UpmemRunOptions::optimized());
            let got = run_upmem(id, Scale::Test, &inp, &mut backend);
            let want = reference(id, Scale::Test, &inp, backend.num_dpus());
            match id {
                // The select result length depends on the data; compare as sets
                // of equal length since padding rules are exercised elsewhere.
                WorkloadId::Sel => assert_eq!(got, want, "{}", id.name()),
                _ => assert_eq!(got, want, "{}", id.name()),
            }
            assert!(backend.total_ms() > 0.0, "{}", id.name());
        }
    }

    #[test]
    fn session_results_match_the_eager_oracle_for_every_workload() {
        for id in WorkloadId::all() {
            let inp = inputs(id, Scale::Test);
            let mut cfg = upmem_sim::UpmemConfig::with_ranks(1);
            cfg.dpus_per_rank = 8;
            let mut eager = UpmemBackend::with_config(cfg.clone(), UpmemRunOptions::optimized());
            let want = run_upmem(id, Scale::Test, &inp, &mut eager);
            // Optimizer off: the lowering must mirror the eager program
            // launch for launch, so time and launch counts are comparable.
            let mut session = Session::new(
                SessionOptions::default()
                    .with_upmem_config(cfg.clone())
                    .with_policy(ShardPolicy::Single(Target::Cnm))
                    .with_optimizer(false),
            );
            let got = run_session(id, Scale::Test, &inp, &mut session);
            assert_eq!(got, want, "{}", id.name());
            // Residency never changes kernel time, only transfer bytes.
            let s = session.upmem_stats();
            let e = eager.stats();
            assert_eq!(s.kernel_seconds, e.kernel_seconds, "{}", id.name());
            assert_eq!(s.launches, e.launches, "{}", id.name());
            assert!(
                s.host_to_dpu_bytes + s.dpu_to_host_bytes
                    <= e.host_to_dpu_bytes + e.dpu_to_host_bytes,
                "{}: session moved more bytes than the eager path",
                id.name()
            );
            // Optimizer on: fusion may change launch counts and kernel
            // time, but never the results.
            let mut optimized = Session::new(
                SessionOptions::default()
                    .with_upmem_config(cfg)
                    .with_policy(ShardPolicy::Single(Target::Cnm)),
            );
            let got_opt = run_session(id, Scale::Test, &inp, &mut optimized);
            assert_eq!(got_opt, want, "{} (optimizer on)", id.name());
            let o = optimized.upmem_stats();
            assert!(o.launches <= e.launches, "{}", id.name());
        }
    }

    #[test]
    fn cim_results_match_reference_for_the_cim_suite() {
        for id in WorkloadId::cim_suite() {
            let inp = inputs(id, Scale::Test);
            let mut backend = CimBackend::new(CimRunOptions::optimized());
            let got = run_cim(id, Scale::Test, &inp, &mut backend);
            let want = reference(id, Scale::Test, &inp, 1);
            assert_eq!(got, want, "{}", id.name());
            assert!(backend.stats().total_seconds() > 0.0, "{}", id.name());
        }
    }

    #[test]
    fn cpu_op_counts_are_positive_and_scale_with_problem_size() {
        for id in WorkloadId::all() {
            let small = cpu_op_counts(id, Scale::Test);
            let big = cpu_op_counts(id, Scale::Bench);
            assert!(small.total_ops() > 0.0, "{}", id.name());
            assert!(
                big.total_ops() > small.total_ops(),
                "{} should grow with scale",
                id.name()
            );
        }
    }

    #[test]
    fn cpu_models_order_as_expected() {
        let xeon = CpuModel::xeon_opt();
        let arm = CpuModel::arm_host();
        for id in WorkloadId::cim_suite() {
            // At bench scale the dense kernels are large enough that the
            // parallel Xeon clearly beats the in-order ARM host.
            assert!(
                cpu_seconds(id, Scale::Bench, &arm) > cpu_seconds(id, Scale::Bench, &xeon),
                "{}",
                id.name()
            );
        }
    }
}
