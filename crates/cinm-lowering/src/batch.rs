//! Cross-tenant batched dispatch on the UPMEM grid.
//!
//! The serving layer fuses *same-shaped* `gemv`/`gemm` requests from
//! different tenants into **one sharded launch**: the DPU grid is divided
//! into fixed tenant *slots* (contiguous DPU ranges), every tenant's weight
//! matrix stays resident in its slot's MRAM stripe of a shared weights
//! buffer, and a batch moves only the activations — one scatter carrying
//! every batched tenant's vector to its own slot, one kernel launch over the
//! whole grid, one gather bringing every tenant's outputs back.
//!
//! Per-element results are bit-identical to each tenant running alone on the
//! full grid: the DPU kernels compute each output row as an independent
//! sequential dot product, so *which* DPU computes a row never changes its
//! value — only the partitioning differs. The batching win is purely in
//! fixed costs: N tenants share one launch (one dispatch, one DMA setup per
//! DPU, one host round-trip) instead of paying them N times.
//!
//! A [`BatchPlan`] owns the geometry and device buffers of one shape class;
//! [`execute`](BatchPlan::execute) runs one batch through direct eager calls
//! ([`UpmemBackend::try_op`]), allocation-free once staging capacity is
//! warmed (pinned by `tests/alloc_regression.rs`). A round holding several
//! shape classes is one `execute` per class, in order.

use upmem_sim::{KernelSpec, SimError, UpmemSystem};

use crate::backend::{alloc_all, UpmemBackend};
use crate::cnm_op::{CnmOp, MramLayout};
use crate::device::ShardShape;

/// Geometry and device buffers of one batched shape class: all requests of
/// kind `gemv(rows, cols)` (or `gemm(m, k, n)`) share this plan, each tenant
/// occupying one slot of the grid. The geometry is the op's
/// [`CnmOp::geometry`] on one slot's DPUs: the scattered operand is the
/// resident per-tenant weight matrix, the broadcast operand is the moving
/// activation (replicated to every DPU of the owning slot).
#[derive(Debug)]
pub struct BatchPlan {
    /// Total DPUs in the grid.
    dpus: usize,
    /// DPUs per tenant slot.
    slot_dpus: usize,
    /// Number of tenant slots.
    slots: usize,
    /// Logical shape of one request: `work` resident rows of `inner`
    /// elements, `out` output columns per row.
    shape: ShardShape,
    /// Resident weight elements per DPU.
    w_chunk: usize,
    /// Moving activation elements per DPU.
    act_chunk: usize,
    /// Output elements per DPU.
    out_chunk: usize,
    w_buf: u32,
    x_buf: u32,
    y_buf: u32,
    /// The batched launch; its buffer ids are placeholders while the plan
    /// holds no device buffers.
    spec: KernelSpec,
}

impl BatchPlan {
    /// Plans the batched form of a matmul-like `op` on `backend`'s grid
    /// divided into `slots` tenant slots. No device buffer is allocated:
    /// the plan starts [`release`](Self::release)d, so its footprint
    /// ([`elems_per_dpu`](Self::elems_per_dpu)) can be admitted before
    /// [`reacquire`](Self::reacquire) claims it.
    ///
    /// # Panics
    ///
    /// If `op` is not `Gemm`/`Gemv`.
    pub fn new(backend: &UpmemBackend, slots: usize, op: CnmOp) -> BatchPlan {
        assert!(
            matches!(op, CnmOp::Gemm { .. } | CnmOp::Gemv { .. }),
            "only matmul-like ops batch"
        );
        let dpus = backend.num_dpus();
        let slots = slots.max(1).min(dpus);
        let slot_dpus = (dpus / slots).max(1);
        let geometry = op.geometry(slot_dpus);
        let [MramLayout::Chunk(w_chunk), MramLayout::Broadcast(act_chunk), _] = geometry.inputs
        else {
            unreachable!("matmul-like ops scatter the lhs and broadcast the rhs");
        };
        BatchPlan {
            dpus,
            slot_dpus,
            slots,
            shape: op.shard_shape().expect("matmul-like ops shard"),
            w_chunk,
            act_chunk,
            out_chunk: geometry.out_chunk,
            w_buf: 0,
            x_buf: 0,
            y_buf: 0,
            spec: backend.kernel_spec(geometry.kernel, vec![0, 0], 0),
        }
    }

    /// Builds the plan for batched `gemv(rows, cols)` requests, allocating
    /// the shared weights/activation/output buffers on the backend's grid.
    ///
    /// # Errors
    ///
    /// Buffer allocation failure (per-DPU slab exhaustion).
    pub fn gemv(
        backend: &mut UpmemBackend,
        slots: usize,
        rows: usize,
        cols: usize,
    ) -> Result<BatchPlan, SimError> {
        let mut plan = Self::new(backend, slots, CnmOp::Gemv { rows, cols });
        plan.reacquire(backend)?;
        Ok(plan)
    }

    /// Number of tenant slots of this plan.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Logical element count of one request's moving activation operand.
    pub fn activation_len(&self) -> usize {
        self.shape.inner * self.shape.out
    }

    /// Logical element count of one request's weight operand.
    pub fn weights_len(&self) -> usize {
        self.shape.work * self.shape.inner
    }

    /// Logical element count of one request's output.
    fn output_len(&self) -> usize {
        self.shape.work * self.shape.out
    }

    /// Logical multiply-accumulates of one request (the fairness cost unit).
    pub fn work(&self) -> u64 {
        (self.shape.work as u64) * (self.shape.inner as u64) * (self.shape.out as u64)
    }

    /// Per-DPU MRAM elements this plan keeps allocated (weights stripe +
    /// activation stripe + output stripe) — the capacity admission control
    /// accounts `4 *` this many bytes per DPU.
    pub fn elems_per_dpu(&self) -> usize {
        self.w_chunk + self.act_chunk + self.out_chunk
    }

    /// Releases the plan's three device buffers, returning their per-DPU
    /// MRAM bytes to the allocator. The geometry stays valid: an evicted
    /// plan is re-armed with [`reacquire`](Self::reacquire) (plus a weights
    /// re-upload) before its next batch.
    ///
    /// # Errors
    ///
    /// Unknown/already-freed buffer (cannot happen for a live plan).
    pub fn release(&mut self, backend: &mut UpmemBackend) -> Result<(), SimError> {
        let sys = backend.system_mut();
        sys.free_buffer(self.w_buf)?;
        sys.free_buffer(self.x_buf)?;
        sys.free_buffer(self.y_buf)?;
        Ok(())
    }

    /// Allocates the device buffers of a [`new`](Self::new) or
    /// [`release`](Self::release)d plan and points the kernel spec at the
    /// fresh ids. The weights buffer comes back zeroed — the caller
    /// (re-)uploads its staged weights shadow (billed as a full-grid
    /// scatter) before serving from this plan.
    ///
    /// # Errors
    ///
    /// Typed MRAM exhaustion when the plan does not fit the free capacity;
    /// nothing stays allocated.
    pub fn reacquire(&mut self, backend: &mut UpmemBackend) -> Result<(), SimError> {
        let mut bufs = [0u32; 3];
        let lens = [self.w_chunk, self.act_chunk, self.out_chunk];
        alloc_all(backend.system_mut(), &lens, &mut bufs)?;
        [self.w_buf, self.x_buf, self.y_buf] = bufs;
        self.spec.inputs.copy_from_slice(&bufs[..2]);
        self.spec.output = self.y_buf;
        Ok(())
    }

    /// Writes one tenant's weight matrix into its slot's stripe of the
    /// host-side weights shadow (`stage` is resized to cover the grid on
    /// first use). Rows are chunked `rpd` per DPU within the slot, matching
    /// the kernel's per-DPU view; the shadow is what
    /// [`upload_weights`](Self::upload_weights) scatters, so a new tenant's
    /// load never disturbs already-resident neighbours.
    ///
    /// # Panics
    ///
    /// If `slot` is out of range or `data` does not match the plan's weight
    /// shape.
    pub fn stage_weights(&self, slot: usize, data: &[i32], stage: &mut Vec<i32>) {
        assert!(slot < self.slots, "slot {slot} out of {}", self.slots);
        assert_eq!(data.len(), self.weights_len(), "weight shape mismatch");
        stage.resize(self.dpus * self.w_chunk, 0);
        let base = slot * self.slot_dpus * self.w_chunk;
        for d in 0..self.slot_dpus {
            let dst = &mut stage[base + d * self.w_chunk..base + (d + 1) * self.w_chunk];
            let lo = (d * self.w_chunk).min(data.len());
            let hi = ((d + 1) * self.w_chunk).min(data.len());
            dst[..hi - lo].copy_from_slice(&data[lo..hi]);
            dst[hi - lo..].fill(0);
        }
    }

    /// Scatters the staged weights shadow to the grid, making every staged
    /// tenant's matrix resident. Cold path (tenant load / recovery), charged
    /// at full-grid scatter cost; steady-state requests never re-run it.
    ///
    /// # Errors
    ///
    /// Device fault outliving the retry budget.
    pub fn upload_weights(
        &self,
        backend: &mut UpmemBackend,
        stage: &[i32],
    ) -> Result<(), SimError> {
        let (buf, chunk) = (self.w_buf, self.w_chunk);
        backend.try_op(|sys| sys.scatter_i32(buf, stage, chunk))?;
        Ok(())
    }

    /// Writes one request's activation operand into its slot's stripe of the
    /// activation staging buffer, replicated to every DPU of the slot (each
    /// DPU needs the full right-hand operand). `stage` is resized to cover
    /// the grid on first use and retains its capacity across batches.
    ///
    /// # Panics
    ///
    /// If `slot` is out of range or `data` does not match the plan's
    /// activation shape.
    pub fn stage_activation(&self, slot: usize, data: &[i32], stage: &mut Vec<i32>) {
        assert!(slot < self.slots, "slot {slot} out of {}", self.slots);
        assert_eq!(data.len(), self.act_chunk, "activation shape mismatch");
        stage.resize(self.dpus * self.act_chunk, 0);
        let base = slot * self.slot_dpus * self.act_chunk;
        for d in 0..self.slot_dpus {
            stage[base + d * self.act_chunk..base + (d + 1) * self.act_chunk].copy_from_slice(data);
        }
    }

    /// Runs one batched launch eagerly: scatter the staged activations,
    /// launch the kernel over the whole grid, gather every slot's outputs
    /// into `y`. Allocation-free once `y` and the staging buffers are
    /// warmed. Each step retries transient faults under the backend's
    /// policy; a faulted step commits nothing, so the caller can re-run the
    /// whole batch safely.
    ///
    /// # Errors
    ///
    /// Device fault outliving the retry budget, or a permanent fault.
    pub fn execute(
        &self,
        backend: &mut UpmemBackend,
        x_stage: &[i32],
        y: &mut Vec<i32>,
    ) -> Result<(), SimError> {
        let (x_buf, y_buf, act, out) = (self.x_buf, self.y_buf, self.act_chunk, self.out_chunk);
        // Fresh-output semantics, like the eager contexts and the session's
        // Zero commands: kernels may accumulate into their output.
        backend.system_mut().zero_buffer(y_buf)?;
        backend.try_op(|sys| sys.scatter_i32(x_buf, x_stage, act))?;
        backend.try_op(|sys: &mut UpmemSystem| sys.launch(&self.spec))?;
        backend.try_op(|sys| sys.gather_i32_into(y_buf, out, y))?;
        Ok(())
    }

    /// Extracts one slot's logical output from a gathered grid-wide output
    /// vector into `out` (cleared; capacity is retained across calls).
    ///
    /// # Panics
    ///
    /// If `slot` is out of range or `y` is not a full grid gather.
    pub fn decode_into(&self, slot: usize, y: &[i32], out: &mut Vec<i32>) {
        assert!(slot < self.slots, "slot {slot} out of {}", self.slots);
        assert_eq!(y.len(), self.dpus * self.out_chunk, "not a full gather");
        out.clear();
        let base = slot * self.slot_dpus * self.out_chunk;
        let take = self.output_len();
        out.extend_from_slice(&y[base..base + (take.min(self.slot_dpus * self.out_chunk))]);
        out.truncate(take);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::UpmemRunOptions;
    use upmem_sim::UpmemConfig;

    fn small_backend() -> UpmemBackend {
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 8;
        UpmemBackend::with_config(cfg, UpmemRunOptions::optimized())
    }

    fn host_gemv(a: &[i32], x: &[i32], rows: usize, cols: usize) -> Vec<i32> {
        (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| a[r * cols + c].wrapping_mul(x[c]))
                    .fold(0i32, i32::wrapping_add)
            })
            .collect()
    }

    #[test]
    fn batched_gemv_matches_the_host_oracle_per_slot() {
        let mut be = small_backend();
        let plan = BatchPlan::gemv(&mut be, 4, 11, 7).expect("alloc");
        assert_eq!(plan.slots(), 4);
        assert_eq!(plan.slot_dpus, 2);
        let mats: Vec<Vec<i32>> = (0i32..4)
            .map(|s| (0i32..11 * 7).map(|i| i - 3 * s).collect())
            .collect();
        let mut w_stage = Vec::new();
        for (s, m) in mats.iter().enumerate() {
            plan.stage_weights(s, m, &mut w_stage);
        }
        plan.upload_weights(&mut be, &w_stage).expect("upload");
        let xs: Vec<Vec<i32>> = (0i32..4)
            .map(|s| (0i32..7).map(|i| i + s).collect())
            .collect();
        let mut x_stage = Vec::new();
        for (s, x) in xs.iter().enumerate() {
            plan.stage_activation(s, x, &mut x_stage);
        }
        let mut y = Vec::new();
        plan.execute(&mut be, &x_stage, &mut y).expect("launch");
        let mut out = Vec::new();
        for s in 0..4 {
            plan.decode_into(s, &y, &mut out);
            assert_eq!(out, host_gemv(&mats[s], &xs[s], 11, 7), "slot {s}");
        }
    }

    #[test]
    fn batched_gemm_matches_the_eager_backend() {
        let mut be = small_backend();
        let mut plan = BatchPlan::new(&be, 2, CnmOp::Gemm { m: 6, k: 5, n: 4 });
        plan.reacquire(&mut be).expect("alloc");
        let a0: Vec<i32> = (0..30).map(|i| i - 7).collect();
        let a1: Vec<i32> = (0..30).map(|i| 2 * i + 1).collect();
        let b0: Vec<i32> = (0..20).collect();
        let b1: Vec<i32> = (0..20).map(|i| 3 - i).collect();
        let mut w_stage = Vec::new();
        plan.stage_weights(0, &a0, &mut w_stage);
        plan.stage_weights(1, &a1, &mut w_stage);
        plan.upload_weights(&mut be, &w_stage).expect("upload");
        let mut x_stage = Vec::new();
        plan.stage_activation(0, &b0, &mut x_stage);
        plan.stage_activation(1, &b1, &mut x_stage);
        let mut y = Vec::new();
        plan.execute(&mut be, &x_stage, &mut y).expect("launch");
        let mut oracle = small_backend();
        let mut out = Vec::new();
        plan.decode_into(0, &y, &mut out);
        assert_eq!(out, oracle.gemm(&a0, &b0, 6, 5, 4));
        plan.decode_into(1, &y, &mut out);
        assert_eq!(out, oracle.gemm(&a1, &b1, 6, 5, 4));
    }
}
