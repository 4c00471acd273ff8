//! The pre-refactor (seed) UPMEM system implementation, retained verbatim as
//! the equivalence oracle for the flat-slab layout and as the sequential
//! baseline of the wall-clock benchmarks.
//!
//! Storage is one `HashMap<BufferId, Vec<i32>>` per DPU (one heap allocation
//! per DPU per buffer), scatter copies element by element, and every launch
//! clones all input buffers of every DPU before running the seed's original
//! loop nests (kept verbatim in `seed_execute_kernel` so benchmarks compare
//! against the true seed hot path). The cost model is shared with
//! [`UpmemSystem`](crate::UpmemSystem), and all arithmetic is wrapping
//! 32-bit, so the two implementations must produce bit-identical buffers
//! *and* statistics even where the slab executor reorders accumulations —
//! which `tests/properties.rs` asserts over randomized shapes, DPU counts
//! and kernel kinds.

use std::collections::HashMap;

use crate::config::UpmemConfig;
use crate::kernel::{DpuKernelKind, FusedArg, FusedStage, KernelSpec};
use crate::stats::{LaunchStats, SystemStats, TransferStats};
use crate::system::{
    kernel_launch_cost, validate_kernel_shape, validate_outputs, BufferId, DpuSystem, SimError,
    SimResult,
};

/// The seed's original per-DPU kernel executor, kept verbatim (i-j-p GEMM
/// loop order, index-based element-wise loops) so wall-clock benchmarks
/// measure the true pre-refactor hot path. Produces bit-identical results to
/// [`crate::exec`]'s optimised loop nests because all arithmetic is wrapping.
#[allow(clippy::needless_range_loop)] // seed loop style, kept verbatim
fn seed_execute_kernel(kind: &DpuKernelKind, inputs: &[Vec<i32>], output: &mut [i32]) {
    match kind {
        DpuKernelKind::Gemm { m, k, n } => {
            let (a, b) = (&inputs[0], &inputs[1]);
            for i in 0..*m {
                for j in 0..*n {
                    let mut acc: i32 = 0;
                    for p in 0..*k {
                        acc = acc.wrapping_add(a[i * k + p].wrapping_mul(b[p * n + j]));
                    }
                    output[i * n + j] = output[i * n + j].wrapping_add(acc);
                }
            }
        }
        DpuKernelKind::Gemv { rows, cols } => {
            let (a, x) = (&inputs[0], &inputs[1]);
            for i in 0..*rows {
                let mut acc: i32 = 0;
                for j in 0..*cols {
                    acc = acc.wrapping_add(a[i * cols + j].wrapping_mul(x[j]));
                }
                output[i] = output[i].wrapping_add(acc);
            }
        }
        DpuKernelKind::Elementwise { op, len } => {
            let (a, b) = (&inputs[0], &inputs[1]);
            for i in 0..*len {
                output[i] = op.apply(a[i], b[i]);
            }
        }
        DpuKernelKind::Reduce { op, len } => {
            let a = &inputs[0];
            let mut acc = op.identity();
            for &v in &a[..*len] {
                acc = op.apply(acc, v);
            }
            output[0] = acc;
        }
        DpuKernelKind::Histogram {
            bins,
            len,
            max_value,
        } => {
            let a = &inputs[0];
            for slot in output.iter_mut().take(*bins) {
                *slot = 0;
            }
            let max = (*max_value).max(1) as i64;
            for &v in &a[..*len] {
                let clamped = (v.max(0) as i64).min(max - 1);
                let bin = (clamped * *bins as i64 / max) as usize;
                output[bin] += 1;
            }
        }
        DpuKernelKind::Scan { op, len } => {
            let a = &inputs[0];
            let mut acc = op.identity();
            for i in 0..*len {
                acc = op.apply(acc, a[i]);
                output[i] = acc;
            }
        }
        DpuKernelKind::Select { len, threshold } => {
            let a = &inputs[0];
            let mut count = 0usize;
            for &v in &a[..*len] {
                if v > *threshold {
                    output[1 + count] = v;
                    count += 1;
                }
            }
            output[0] = count as i32;
            // Post-seed: the record is the whole stride, zero after the kept
            // values (the seed left whatever the buffer held there).
            for slot in &mut output[1 + count..=*len] {
                *slot = 0;
            }
        }
        DpuKernelKind::TimeSeries { len, window } => {
            let a = &inputs[0];
            let positions = len.saturating_sub(*window) + 1;
            for i in 0..positions {
                let mut acc: i64 = 0;
                for j in 0..*window {
                    let d = a[i + j].wrapping_sub(a[j]) as i64;
                    acc = acc.saturating_add(d * d);
                }
                output[i] = acc.min(i32::MAX as i64) as i32;
            }
        }
        DpuKernelKind::BfsStep { vertices, .. } => {
            let (row_off, cols, frontier) = (&inputs[0], &inputs[1], &inputs[2]);
            for slot in output.iter_mut().take(*vertices) {
                *slot = 0;
            }
            for v in 0..*vertices {
                if frontier[v] == 0 {
                    continue;
                }
                let start = row_off[v] as usize;
                let end = row_off[v + 1] as usize;
                for e in start..end.min(cols.len()) {
                    let dst = (cols[e] as usize) % *vertices;
                    output[dst] = 1;
                }
            }
        }
        // Post-seed kind: fused launches have multiple outputs and are
        // dispatched in `launch` before reaching the seed executor.
        DpuKernelKind::FusedElementwise { .. } => {
            unreachable!("fused launches are dispatched to execute_fused, which takes all outputs")
        }
    }
}

/// Reference semantics of one DPU executing a fused element-wise kernel
/// (a post-seed kind, so there is no seed loop to keep): stage `s` computes
/// `outputs[s][i] = lhs[i] op rhs[i]` where each operand resolves to an
/// external input view or the output of an earlier stage. Stage order is
/// dependency order ([`FusedArg::Stage`] only references earlier stages —
/// enforced by launch validation), so a single forward pass suffices.
fn execute_fused(stages: &[FusedStage], len: usize, inputs: &[&[i32]], outputs: &mut [&mut [i32]]) {
    debug_assert_eq!(stages.len(), outputs.len());
    for (s, stage) in stages.iter().enumerate() {
        let (done, rest) = outputs.split_at_mut(s);
        let out = &mut *rest[0];
        let lhs: &[i32] = match stage.lhs {
            FusedArg::Input(i) => inputs[i as usize],
            FusedArg::Stage(t) => &done[t as usize][..],
        };
        let rhs: &[i32] = match stage.rhs {
            FusedArg::Input(i) => inputs[i as usize],
            FusedArg::Stage(t) => &done[t as usize][..],
        };
        let op = stage.op;
        for ((o, &a), &b) in out[..len].iter_mut().zip(lhs).zip(rhs) {
            *o = op.apply(a, b);
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Dpu {
    buffers: HashMap<BufferId, Vec<i32>>,
}

#[derive(Debug, Clone)]
struct BufferInfo {
    elems_per_dpu: usize,
}

/// The seed (naive-layout) simulated UPMEM machine.
#[derive(Debug, Clone)]
pub struct NaiveUpmemSystem {
    config: UpmemConfig,
    dpus: Vec<Dpu>,
    buffers: HashMap<BufferId, BufferInfo>,
    next_buffer: BufferId,
    free_ids: Vec<BufferId>,
    mram_used: usize,
    mram_peak: usize,
    stats: SystemStats,
}

impl NaiveUpmemSystem {
    /// Creates a system with the given configuration.
    pub fn new(config: UpmemConfig) -> Self {
        let n = config.num_dpus();
        NaiveUpmemSystem {
            config,
            dpus: vec![Dpu::default(); n],
            buffers: HashMap::new(),
            next_buffer: 0,
            free_ids: Vec::new(),
            mram_used: 0,
            mram_peak: 0,
            stats: SystemStats::default(),
        }
    }

    /// The configuration of this system.
    pub fn config(&self) -> &UpmemConfig {
        &self.config
    }

    /// Number of DPUs in the grid.
    pub fn num_dpus(&self) -> usize {
        self.dpus.len()
    }

    /// Accumulated run statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Resets the accumulated statistics (buffers are kept).
    pub fn reset_stats(&mut self) {
        self.stats = SystemStats::default();
    }

    /// MRAM bytes currently allocated per DPU.
    pub fn mram_used_bytes(&self) -> usize {
        self.mram_used
    }

    /// High-water mark of per-DPU MRAM bytes ever allocated at once.
    pub fn mram_peak_bytes(&self) -> usize {
        self.mram_peak
    }

    /// Allocates a buffer of `elems_per_dpu` elements on every DPU — one heap
    /// allocation per DPU, the seed behaviour. Freed ids are reused in the
    /// same LIFO order as the slab system, so equivalence tests that free
    /// and re-allocate see identical buffer ids from both storage schemes.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SimError::is_mram_exhausted`] error if the per-DPU
    /// MRAM capacity would be exceeded.
    pub fn alloc_buffer(&mut self, elems_per_dpu: usize) -> SimResult<BufferId> {
        let bytes = elems_per_dpu * 4;
        if self.mram_used + bytes > self.config.mram_bytes {
            return Err(SimError::mram_exhausted(
                self.mram_used,
                bytes,
                self.config.mram_bytes,
            ));
        }
        let id = match self.free_ids.pop() {
            Some(id) => id,
            None => {
                let id = self.next_buffer;
                self.next_buffer += 1;
                id
            }
        };
        self.mram_used += bytes;
        self.mram_peak = self.mram_peak.max(self.mram_used);
        self.buffers.insert(id, BufferInfo { elems_per_dpu });
        for dpu in &mut self.dpus {
            dpu.buffers.insert(id, vec![0; elems_per_dpu]);
        }
        Ok(id)
    }

    /// Releases a buffer's per-DPU MRAM bytes and storage (the counterpart
    /// of [`UpmemSystem::free_buffer`](crate::UpmemSystem::free_buffer),
    /// with the same id-reuse order).
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer does not exist or was already freed.
    pub fn free_buffer(&mut self, id: BufferId) -> SimResult<()> {
        let info = self
            .buffers
            .remove(&id)
            .ok_or_else(|| SimError::new(format!("unknown buffer {id}")))?;
        self.mram_used -= info.elems_per_dpu * 4;
        for dpu in &mut self.dpus {
            dpu.buffers.remove(&id);
        }
        self.free_ids.push(id);
        Ok(())
    }

    /// Elements per DPU of an allocated buffer.
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer does not exist.
    pub fn buffer_len(&self, id: BufferId) -> SimResult<usize> {
        self.buffers
            .get(&id)
            .map(|b| b.elems_per_dpu)
            .ok_or_else(|| SimError::new(format!("unknown buffer {id}")))
    }

    /// Scatters host data across the DPUs, element by element (seed
    /// behaviour).
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer does not exist or `chunk` exceeds the
    /// per-DPU buffer size.
    #[allow(clippy::needless_range_loop)] // seed loop style, kept verbatim
    pub fn scatter_i32(
        &mut self,
        buffer: BufferId,
        data: &[i32],
        chunk: usize,
    ) -> SimResult<TransferStats> {
        let info = self
            .buffers
            .get(&buffer)
            .ok_or_else(|| SimError::new(format!("unknown buffer {buffer}")))?;
        if chunk > info.elems_per_dpu {
            return Err(SimError::new(format!(
                "chunk of {chunk} elements exceeds per-DPU buffer of {}",
                info.elems_per_dpu
            )));
        }
        for (d, dpu) in self.dpus.iter_mut().enumerate() {
            let dst = dpu
                .buffers
                .get_mut(&buffer)
                .expect("buffer exists on every DPU");
            let start = d * chunk;
            for i in 0..chunk {
                dst[i] = data.get(start + i).copied().unwrap_or(0);
            }
        }
        let t = self.config.chunked_transfer(data.len());
        self.stats.host_to_dpu_bytes += t.bytes;
        self.stats.host_to_dpu_seconds += t.seconds;
        self.stats.host_to_dpu_energy_j += t.energy_j;
        Ok(t)
    }

    /// Copies the same host data to the buffer of every DPU (broadcast),
    /// using the same rank-parallel cost model as the slab system.
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer does not exist or the data does not fit.
    pub fn broadcast_i32(&mut self, buffer: BufferId, data: &[i32]) -> SimResult<TransferStats> {
        let info = self
            .buffers
            .get(&buffer)
            .ok_or_else(|| SimError::new(format!("unknown buffer {buffer}")))?;
        if data.len() > info.elems_per_dpu {
            return Err(SimError::new(format!(
                "broadcast of {} elements exceeds per-DPU buffer of {}",
                data.len(),
                info.elems_per_dpu
            )));
        }
        for dpu in &mut self.dpus {
            let dst = dpu
                .buffers
                .get_mut(&buffer)
                .expect("buffer exists on every DPU");
            dst[..data.len()].copy_from_slice(data);
        }
        let t = self.config.broadcast_transfer(data.len());
        self.stats.host_to_dpu_bytes += t.bytes;
        self.stats.host_to_dpu_seconds += t.seconds;
        self.stats.host_to_dpu_energy_j += t.energy_j;
        Ok(t)
    }

    /// Gathers `chunk` elements from every DPU back into one host vector.
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer does not exist or `chunk` exceeds the
    /// per-DPU buffer size.
    pub fn gather_i32(
        &mut self,
        buffer: BufferId,
        chunk: usize,
    ) -> SimResult<(Vec<i32>, TransferStats)> {
        let info = self
            .buffers
            .get(&buffer)
            .ok_or_else(|| SimError::new(format!("unknown buffer {buffer}")))?;
        if chunk > info.elems_per_dpu {
            return Err(SimError::new(format!(
                "chunk of {chunk} elements exceeds per-DPU buffer of {}",
                info.elems_per_dpu
            )));
        }
        let mut out = Vec::with_capacity(chunk * self.dpus.len());
        for dpu in &self.dpus {
            let src = dpu
                .buffers
                .get(&buffer)
                .expect("buffer exists on every DPU");
            out.extend_from_slice(&src[..chunk]);
        }
        let t = self.config.chunked_transfer(out.len());
        self.stats.dpu_to_host_bytes += t.bytes;
        self.stats.dpu_to_host_seconds += t.seconds;
        self.stats.dpu_to_host_energy_j += t.energy_j;
        Ok((out, t))
    }

    /// Reads the buffer contents of one DPU (testing aid, not timed).
    ///
    /// # Errors
    ///
    /// Returns an error if the DPU or buffer does not exist.
    pub fn dpu_buffer(&self, dpu: usize, buffer: BufferId) -> SimResult<&[i32]> {
        let d = self
            .dpus
            .get(dpu)
            .ok_or_else(|| SimError::new(format!("DPU {dpu} out of range")))?;
        d.buffers
            .get(&buffer)
            .map(|v| v.as_slice())
            .ok_or_else(|| SimError::new(format!("unknown buffer {buffer}")))
    }

    /// Launches a kernel on every DPU, cloning every input buffer of every
    /// DPU first (the seed hot path the slab layout eliminates).
    ///
    /// # Errors
    ///
    /// Returns an error if a referenced buffer does not exist or is too small
    /// for the kernel shape.
    pub fn launch(&mut self, spec: &KernelSpec) -> SimResult<LaunchStats> {
        // Validate kernel and buffer shapes before touching any state
        // (identical checks and messages to `UpmemSystem::validate_launch`,
        // so the oracle pair also agrees on error behaviour).
        validate_kernel_shape(&spec.kind)?;
        if spec.inputs.len() != spec.kind.num_inputs() {
            return Err(SimError::new(format!(
                "kernel '{}' expects {} inputs, spec has {}",
                spec.kind.name(),
                spec.kind.num_inputs(),
                spec.inputs.len()
            )));
        }
        for (i, &buf) in spec.inputs.iter().enumerate() {
            let len = self.buffer_len(buf)?;
            let needed = spec.kind.input_len(i);
            if len < needed {
                return Err(SimError::new(format!(
                    "input {i} of kernel '{}' needs {needed} elements per DPU, buffer has {len}",
                    spec.kind.name()
                )));
            }
        }
        let out_len = self.buffer_len(spec.output)?;
        if out_len < spec.kind.output_len() {
            return Err(SimError::new(format!(
                "output of kernel '{}' needs {} elements per DPU, buffer has {out_len}",
                spec.kind.name(),
                spec.kind.output_len()
            )));
        }
        validate_outputs(spec, |b| self.buffer_len(b))?;

        // Functional execution on every DPU, inputs cloned per launch.
        if let DpuKernelKind::FusedElementwise { stages, len, .. } = &spec.kind {
            // Post-seed multi-output kind: clone the per-DPU output buffers
            // too (naive-layout style), run the reference fused executor and
            // store the results back.
            for dpu in &mut self.dpus {
                let inputs: Vec<Vec<i32>> = spec
                    .inputs
                    .iter()
                    .map(|b| dpu.buffers.get(b).expect("validated above").clone())
                    .collect();
                let views: Vec<&[i32]> = inputs.iter().map(|v| v.as_slice()).collect();
                let out_ids: Vec<BufferId> = std::iter::once(spec.output)
                    .chain(spec.extra_outputs.iter().copied())
                    .collect();
                let mut outs: Vec<Vec<i32>> = out_ids
                    .iter()
                    .map(|b| dpu.buffers.get(b).expect("validated above").clone())
                    .collect();
                let mut out_views: Vec<&mut [i32]> =
                    outs.iter_mut().map(|v| v.as_mut_slice()).collect();
                execute_fused(stages, *len, &views, &mut out_views);
                for (b, v) in out_ids.into_iter().zip(outs) {
                    dpu.buffers.insert(b, v);
                }
            }
        } else {
            for dpu in &mut self.dpus {
                let inputs: Vec<Vec<i32>> = spec
                    .inputs
                    .iter()
                    .map(|b| dpu.buffers.get(b).expect("validated above").clone())
                    .collect();
                let output = dpu.buffers.get_mut(&spec.output).expect("validated above");
                seed_execute_kernel(&spec.kind, &inputs, output);
            }
        }

        // Timing.
        let tasklets = spec.tasklets.unwrap_or(self.config.tasklets);
        let stats = kernel_launch_cost(&self.config, spec, tasklets, self.num_dpus());
        self.stats.kernel_seconds += stats.seconds;
        self.stats.kernel_energy_j += stats.energy_j;
        self.stats.launches += 1;
        Ok(stats)
    }
}

impl DpuSystem for NaiveUpmemSystem {
    fn config(&self) -> &UpmemConfig {
        NaiveUpmemSystem::config(self)
    }
    fn num_dpus(&self) -> usize {
        NaiveUpmemSystem::num_dpus(self)
    }
    fn stats(&self) -> &SystemStats {
        NaiveUpmemSystem::stats(self)
    }
    fn reset_stats(&mut self) {
        NaiveUpmemSystem::reset_stats(self)
    }
    fn alloc_buffer(&mut self, elems_per_dpu: usize) -> SimResult<BufferId> {
        NaiveUpmemSystem::alloc_buffer(self, elems_per_dpu)
    }
    fn buffer_len(&self, id: BufferId) -> SimResult<usize> {
        NaiveUpmemSystem::buffer_len(self, id)
    }
    fn scatter_i32(
        &mut self,
        buffer: BufferId,
        data: &[i32],
        chunk: usize,
    ) -> SimResult<TransferStats> {
        NaiveUpmemSystem::scatter_i32(self, buffer, data, chunk)
    }
    fn broadcast_i32(&mut self, buffer: BufferId, data: &[i32]) -> SimResult<TransferStats> {
        NaiveUpmemSystem::broadcast_i32(self, buffer, data)
    }
    fn gather_i32(
        &mut self,
        buffer: BufferId,
        chunk: usize,
    ) -> SimResult<(Vec<i32>, TransferStats)> {
        NaiveUpmemSystem::gather_i32(self, buffer, chunk)
    }
    fn dpu_buffer(&self, dpu: usize, buffer: BufferId) -> SimResult<&[i32]> {
        NaiveUpmemSystem::dpu_buffer(self, dpu, buffer)
    }
    fn launch(&mut self, spec: &KernelSpec) -> SimResult<LaunchStats> {
        NaiveUpmemSystem::launch(self, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{BinOp, DpuKernelKind};
    use crate::system::UpmemSystem;

    #[test]
    fn naive_and_slab_agree_on_wrong_arity_errors() {
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 2;
        let mut naive = NaiveUpmemSystem::new(cfg.clone());
        let mut slab = UpmemSystem::new(cfg);
        let a = naive.alloc_buffer(4).unwrap();
        slab.alloc_buffer(4).unwrap();
        // Bypass the KernelSpec::new arity assert via the public fields.
        let mut spec = KernelSpec::new(
            DpuKernelKind::Scan {
                op: BinOp::Add,
                len: 4,
            },
            vec![a],
            a,
        );
        spec.inputs.clear();
        let e_naive = naive.launch(&spec).unwrap_err();
        let e_slab = slab.launch(&spec).unwrap_err();
        assert_eq!(e_naive, e_slab);
        assert!(e_naive.message().contains("expects 1 inputs"));
    }

    #[test]
    fn naive_and_slab_agree_on_a_simple_flow() {
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 4;
        let mut naive = NaiveUpmemSystem::new(cfg.clone());
        let mut slab = UpmemSystem::new(cfg);
        let data: Vec<i32> = (0..64).map(|i| i * 7 % 23 - 11).collect();
        for sys in [
            &mut naive as &mut dyn DpuSystem,
            &mut slab as &mut dyn DpuSystem,
        ] {
            let a = sys.alloc_buffer(16).unwrap();
            let b = sys.alloc_buffer(16).unwrap();
            let c = sys.alloc_buffer(16).unwrap();
            sys.scatter_i32(a, &data, 16).unwrap();
            sys.broadcast_i32(b, &data[..16]).unwrap();
            let spec = KernelSpec::new(
                DpuKernelKind::Elementwise {
                    op: BinOp::Add,
                    len: 16,
                },
                vec![a, b],
                c,
            );
            sys.launch(&spec).unwrap();
        }
        let (from_naive, t_naive) = naive.gather_i32(2, 16).unwrap();
        let (from_slab, t_slab) = slab.gather_i32(2, 16).unwrap();
        assert_eq!(from_naive, from_slab);
        assert_eq!(t_naive, t_slab);
        assert_eq!(naive.stats(), slab.stats());
    }
}
