//! The UPMEM system simulator: DPU grid, buffers, transfers and launches.
//!
//! The simulator is both *functional* (kernels really compute on the per-DPU
//! buffer contents, so results can be checked against a host reference) and
//! *timed* (instruction, DMA and host-transfer costs follow the first-order
//! model of the PrIM characterisation, see `config`).
//!
//! # Storage layout
//!
//! Buffers use a *slab* layout: one [`HostImage`] per [`BufferId`], in one
//! of two storage forms the simulator picks from the op sequence alone.
//! A *per-DPU* slab is contiguous over the whole grid, DPU `d` owning the
//! stride `[d * elems, (d + 1) * elems)`; a *replicated* slab holds a single
//! stride that every DPU reads. A fresh buffer is replicated zeros, a
//! broadcast writes that one stride, and the first per-DPU write (a scatter,
//! or being a launch output) expands the slab once to the per-DPU form. What
//! a broadcast *costs* is unchanged: the timing model bills the full
//! replicated volume, only the host copy is stored once.
//!
//! The same separation of what is *billed* from what is *stored* holds for a
//! tensor the device keeps verbatim. A per-DPU slab whose strides are tight
//! is element for element the host vector it was scattered from (or will be
//! gathered into), so the two can be **one image**: [`HostImage`] is a
//! vector that is either uniquely owned or shared between a slab and a host
//! holder. One rule decides, stated here and nowhere else:
//!
//! * **adopt** — a transfer whose host vector is exactly the slab image
//!   (tight chunk, full grid, no padding) and whose destination would
//!   otherwise have to allocate shares the image instead of copying it:
//!   [`UpmemSystem::scatter_image`] into a slab still in its replicated
//!   form, [`UpmemSystem::gather_image`] into an image with no storage of
//!   that size;
//! * **copy** — a destination that already owns its storage is copied into,
//!   exactly as the borrowed [`UpmemSystem::scatter_i32`] /
//!   [`UpmemSystem::gather_i32_into`] do, so a warmed loop neither allocates
//!   nor trades allocations back and forth;
//! * **detach** — whoever writes a shared image first takes its own: a
//!   launch output, a partial scatter or a broadcast clones (the last holder
//!   left simply keeps the vector), while a full overwrite replaces the
//!   image without cloning it and [`UpmemSystem::zero_buffer`] puts the slab
//!   back in its fresh replicated form.
//!
//! * **lend** — an operand whose slab only the very next launch reads need
//!   not be stored at all: [`UpmemSystem::scatter_lent`] validates, draws
//!   its fault and bills the scatter but moves nothing, and
//!   [`UpmemSystem::launch_lent`] reads the operand's strides from the
//!   caller's slice (the one partial stride and the empty DPUs' zeros from
//!   the system's reused scratch). The lent buffer keeps what it held before
//!   — for the eager backend's per-shape contexts, the fresh replicated zero
//!   stride it was allocated with, so it never grows to the grid — and
//!   nothing reads it: the eager backend's buffers are private to it, and
//!   its every op scatters (lends) or broadcasts each input before it
//!   launches; a session lends a tensor it is fed for one run to every
//!   launch of that run that reads it, fused ones included. A tensor
//!   something else may read later — a session's resident operand — is
//!   adopted or copied instead. The output side is the twin: a launch lent
//!   the caller's destination writes the strides that lie inside it in
//!   place, stages the one partial stride (only its valid prefix is
//!   copied) and does not run the DPUs past it; [`UpmemSystem::gather_lent`]
//!   then bills the gather and draws its fault without copying. The output
//!   buffer is never written, so the eager backend's stays in its fresh
//!   replicated form.
//!
//! A caller that only *reads* a gather needs no image at all:
//! [`UpmemSystem::gather_with`] lends it the tight slab itself (or a copy in
//! the system's scratch) for the duration of one call.
//!
//! Validation, the fault draw and the accounting run before anything is
//! handed over, so every simulated second, byte and joule — and every
//! [`FaultInjector`] draw — is the same whichever way the data moved. A
//! uniquely owned image costs no atomic and no allocation: the hot path
//! never sees the shared form.
//!
//! Allocation is one vector per buffer instead of one per DPU,
//! scatter/gather/broadcast are bulk copies over contiguous memory, and
//! [`UpmemSystem::launch`] borrows the input strides directly from the slabs
//! — the hot path performs no per-DPU heap allocation and no buffer clone.
//! Functional execution is data-parallel across DPUs (see
//! [`UpmemConfig::host_threads`]) with bit-identical results for any thread
//! count. The pre-refactor storage scheme is retained in [`crate::naive`] as
//! the equivalence oracle and benchmark baseline; it always copies.

use std::ops::{Deref, Range};
use std::sync::Arc;

use cinm_runtime::{FaultInjector, FaultKind};

use crate::config::UpmemConfig;
use crate::exec;
use crate::kernel::{DpuKernelKind, FusedArg, KernelSpec, MAX_FUSED_STAGES};
use crate::stats::{LaunchStats, SystemStats, TransferStats};

/// Identifier of a buffer allocated on every DPU of the grid.
pub type BufferId = u32;

/// Errors reported by the simulator: either an invalid request (bad shape,
/// unknown buffer — `fault_kind() == None`) or an injected device fault
/// (transient or permanent, see [`FaultKind`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    message: String,
    fault: Option<FaultKind>,
    /// `(needed_bytes, available_bytes)` of a failed MRAM allocation, `None`
    /// for every other error — the typed signal the residency layers evict
    /// on.
    mram: Option<(usize, usize)>,
}

impl SimError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        SimError {
            message: message.into(),
            fault: None,
            mram: None,
        }
    }

    pub(crate) fn fault(kind: FaultKind, message: impl Into<String>) -> Self {
        SimError {
            message: message.into(),
            fault: Some(kind),
            mram: None,
        }
    }

    /// A typed MRAM-capacity failure: an allocation of `needed` bytes per
    /// DPU against `available` remaining bytes. Shared by the slab and
    /// naive allocators so both reject identically.
    pub(crate) fn mram_exhausted(used: usize, needed: usize, capacity: usize) -> Self {
        SimError {
            message: format!(
                "MRAM capacity exceeded: {used} + {needed} > {capacity} bytes per DPU"
            ),
            fault: None,
            mram: Some((needed, capacity.saturating_sub(used))),
        }
    }

    /// Whether this is a typed MRAM-capacity failure (allocation pressure a
    /// residency manager can relieve by evicting), as opposed to a
    /// validation error or an injected fault.
    pub fn is_mram_exhausted(&self) -> bool {
        self.mram.is_some()
    }

    /// `(needed_bytes, available_bytes)` of a failed MRAM allocation, or
    /// `None` for every other error.
    pub fn mram_shortfall(&self) -> Option<(usize, usize)> {
        self.mram
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The injected-fault kind, or `None` for plain validation errors.
    pub fn fault_kind(&self) -> Option<FaultKind> {
        self.fault
    }

    /// Whether this is an injected fault that may clear on retry.
    pub fn is_transient_fault(&self) -> bool {
        self.fault == Some(FaultKind::Transient)
    }

    /// Whether this is an injected fault that can never clear.
    pub fn is_permanent_fault(&self) -> bool {
        self.fault == Some(FaultKind::Permanent)
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SimError {}

/// Convenience alias for simulator results.
pub type SimResult<T> = Result<T, SimError>;

/// The host-side image of one tensor: a vector that is either uniquely owned
/// or shared between a slab of the simulator and a host-side holder (see the
/// [module docs](self) for the adopt / copy / detach rule). Reading never
/// distinguishes the two; a uniquely owned image is a plain `Vec` — no
/// atomic, no allocation — and only [`UpmemSystem::scatter_image`] and
/// [`UpmemSystem::gather_image`] ever make one shared.
#[derive(Debug, Clone, Default)]
pub struct HostImage(Repr);

#[derive(Debug, Clone)]
enum Repr {
    Owned(Vec<i32>),
    Shared(Arc<Vec<i32>>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Owned(Vec::new())
    }
}

impl HostImage {
    /// Whether another holder may still see this image (it was adopted by, or
    /// from, a slab and nobody has written it since).
    pub fn is_shared(&self) -> bool {
        matches!(self.0, Repr::Shared(_))
    }

    /// The vector of this image as its only owner. A shared image detaches
    /// first: the last holder left keeps the vector, anyone else gets a
    /// clone when `keep` (the write is partial) and an empty vector when not
    /// (a full overwrite replaces, it never clones).
    fn detach(&mut self, keep: bool) -> &mut Vec<i32> {
        if let Repr::Shared(arc) = &mut self.0 {
            let owned = match Arc::get_mut(arc) {
                Some(last) => std::mem::take(last),
                None if keep => arc.to_vec(),
                None => Vec::new(),
            };
            self.0 = Repr::Owned(owned);
        }
        match &mut self.0 {
            Repr::Owned(v) => v,
            Repr::Shared(_) => unreachable!("detached above"),
        }
    }

    /// The vector to **fully overwrite** this image through: its contents on
    /// return are unspecified (a shared image is left to its other holders,
    /// not cloned) and everything the caller stores becomes the image.
    pub fn overwrite(&mut self) -> &mut Vec<i32> {
        self.detach(false)
    }

    /// A second handle to this image, which becomes shared.
    fn share(&mut self) -> HostImage {
        if let Repr::Owned(v) = &mut self.0 {
            self.0 = Repr::Shared(Arc::new(std::mem::take(v)));
        }
        self.clone()
    }

    /// Moves the vector out — without a copy unless another holder still
    /// shares it.
    pub fn into_vec(self) -> Vec<i32> {
        match self.0 {
            Repr::Owned(v) => v,
            Repr::Shared(arc) => Arc::try_unwrap(arc).unwrap_or_else(|arc| arc.to_vec()),
        }
    }
}

impl Deref for HostImage {
    type Target = [i32];

    fn deref(&self) -> &[i32] {
        match &self.0 {
            Repr::Owned(v) => v,
            Repr::Shared(arc) => arc,
        }
    }
}

impl From<Vec<i32>> for HostImage {
    fn from(v: Vec<i32>) -> Self {
        HostImage(Repr::Owned(v))
    }
}

/// How the contents of a [`Slab`] are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Storage {
    /// Released by [`UpmemSystem::free_buffer`]: no contents, and the id is
    /// unknown to every entry point until an allocation reuses it.
    #[default]
    Freed,
    /// One stride that every DPU reads: a fresh (all-zero) buffer, or one
    /// only ever written by broadcasts.
    Replicated,
    /// One stride per DPU, DPU `d` at `[d * elems, (d + 1) * elems)`.
    PerDpu,
}

/// Read view of a slab's strides — the one accessor every transfer and
/// launch reads through, whichever form the slab is stored in. Resolved once
/// per op, so the per-DPU lookup is a multiply and one slice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Strides<'a> {
    data: &'a [i32],
    /// Distance between consecutive DPUs' strides: `elems` for a per-DPU
    /// slab, 0 for a replicated one.
    step: usize,
    elems: usize,
}

impl<'a> Strides<'a> {
    const EMPTY: Strides<'static> = Strides {
        data: &[],
        step: 0,
        elems: 0,
    };

    /// The stride DPU `dpu` reads.
    pub(crate) fn of(self, dpu: usize) -> &'a [i32] {
        let start = dpu * self.step;
        &self.data[start..start + self.elems]
    }

    /// The strides of the DPUs `dpus` as one contiguous run of `len`-element
    /// rows — only for a per-DPU slab that is *tight* (`elems_per_dpu ==
    /// len`), where one DPU's data directly follows the previous one's. A
    /// padded or replicated slab has no such run and is read through
    /// [`of`](Self::of).
    pub(crate) fn flat(self, len: usize, dpus: Range<usize>) -> Option<&'a [i32]> {
        (self.step == len && self.elems == len)
            .then(|| &self.data[dpus.start * len..dpus.end * len])
    }

    /// The one stride every DPU reads, for a replicated slab.
    pub(crate) fn replicated(self) -> Option<&'a [i32]> {
        (self.step == 0).then(|| self.of(0))
    }
}

/// One grid-wide buffer. The storage form is private to this type: reads go
/// through [`Slab::strides`], per-DPU writes through [`Slab::per_dpu_mut`],
/// which expands a replicated slab and detaches a shared image first. A slab
/// only goes back to the replicated form when [`UpmemSystem::zero_buffer`]
/// finds its image shared — collapsing a slab that owns its storage would
/// cost an allocation on the next per-DPU write, and warmed loops must stay
/// allocation-free.
#[derive(Debug, Clone, Default)]
struct Slab {
    elems_per_dpu: usize,
    storage: Storage,
    data: HostImage,
}

impl Slab {
    /// A fresh all-zero buffer: replicated, so allocation costs one stride
    /// however large the grid is.
    fn zeroed(elems_per_dpu: usize) -> Self {
        Slab {
            elems_per_dpu,
            storage: Storage::Replicated,
            data: vec![0; elems_per_dpu].into(),
        }
    }

    pub(crate) fn strides(&self) -> Strides<'_> {
        Strides {
            data: &self.data,
            step: match self.storage {
                Storage::PerDpu => self.elems_per_dpu,
                Storage::Replicated | Storage::Freed => 0,
            },
            elems: self.elems_per_dpu,
        }
    }

    /// The whole grid's strides for a per-DPU write, uniquely owned:
    /// a replicated slab is expanded and a shared image detached first (the
    /// only place a live slab changes form). `overwrite` promises that the
    /// caller stores every element, so nothing is carried over — neither
    /// repeated nor cloned. An all-zero image expands through the allocator's
    /// zeroed path, so the scatter target and launch output of a cold op
    /// cost one lazily-zeroed allocation and no copy.
    pub(crate) fn per_dpu_mut(&mut self, num_dpus: usize, overwrite: bool) -> &mut [i32] {
        let grid = self.elems_per_dpu * num_dpus;
        if self.storage == Storage::Replicated {
            self.data = if overwrite || self.data.iter().all(|&v| v == 0) {
                vec![0; grid]
            } else {
                self.data.repeat(num_dpus)
            }
            .into();
            self.storage = Storage::PerDpu;
        }
        let data = self.data.detach(!overwrite);
        if data.len() != grid {
            // An overwritten image other holders still share stayed theirs.
            *data = vec![0; grid];
        }
        data
    }
}

/// The common host-visible surface of a simulated UPMEM machine, implemented
/// by both the flat-slab [`UpmemSystem`] and the retained
/// [`naive reference`](crate::naive::NaiveUpmemSystem), so equivalence tests
/// and benchmarks can drive either through one code path.
pub trait DpuSystem {
    /// The configuration of this system.
    fn config(&self) -> &UpmemConfig;
    /// Number of DPUs in the grid.
    fn num_dpus(&self) -> usize;
    /// Accumulated run statistics.
    fn stats(&self) -> &SystemStats;
    /// Resets the accumulated statistics (buffers are kept).
    fn reset_stats(&mut self);
    /// Allocates a buffer of `elems_per_dpu` 32-bit elements on every DPU.
    fn alloc_buffer(&mut self, elems_per_dpu: usize) -> SimResult<BufferId>;
    /// Elements per DPU of an allocated buffer.
    fn buffer_len(&self, id: BufferId) -> SimResult<usize>;
    /// Scatters host data across the DPUs in `chunk`-element strides.
    fn scatter_i32(
        &mut self,
        buffer: BufferId,
        data: &[i32],
        chunk: usize,
    ) -> SimResult<TransferStats>;
    /// Copies the same host data to the buffer of every DPU.
    fn broadcast_i32(&mut self, buffer: BufferId, data: &[i32]) -> SimResult<TransferStats>;
    /// Gathers `chunk` elements from every DPU back into one host vector.
    fn gather_i32(
        &mut self,
        buffer: BufferId,
        chunk: usize,
    ) -> SimResult<(Vec<i32>, TransferStats)>;
    /// Reads the buffer contents of one DPU (testing aid, not timed).
    fn dpu_buffer(&self, dpu: usize, buffer: BufferId) -> SimResult<&[i32]>;
    /// Launches a kernel on every DPU of the grid.
    fn launch(&mut self, spec: &KernelSpec) -> SimResult<LaunchStats>;
}

/// First-order cost model of one launch, shared between the slab system and
/// the naive reference so both report identical statistics.
///
/// Public so cost models price **the simulator's own charge**:
/// `cinm_lowering`'s CNM cost model builds the [`KernelSpec`] the backend
/// launches and asks this function for the launch's time and energy, as it
/// asks [`UpmemConfig::chunked_transfer`] and
/// [`UpmemConfig::broadcast_transfer`] for the transfers'. The returned
/// [`LaunchStats::seconds`] is the slowest-DPU launch time; the
/// `instructions`/`dma_bytes` totals scale with `num_dpus`.
pub fn kernel_launch_cost(
    config: &UpmemConfig,
    spec: &KernelSpec,
    tasklets: usize,
    num_dpus: usize,
) -> LaunchStats {
    let c = config;
    let i = &c.instr;
    // A multiply-accumulate on WRAM data: two loads, a (software) 32-bit
    // multiply, an add and amortised loop overhead.
    let mac = 2.0 * i.wram_access + i.mul32 + i.alu + 0.5 * i.branch;
    // A streaming element-wise operation: two loads, one ALU op, a store.
    let stream = 3.0 * i.wram_access + i.alu + 0.5 * i.branch;

    // (instructions, dma_bytes, dma_transfers) per DPU.
    let (instrs, dma_bytes, dma_transfers) = match &spec.kind {
        DpuKernelKind::Gemm { m, k, n } => {
            let (m, k, n) = (*m as f64, *k as f64, *n as f64);
            let macs = m * n * k;
            let instrs = macs * mac + m * n * i.wram_access;
            if spec.locality_optimized {
                // Operand tiles are staged in WRAM once.
                let bytes = (m * k + k * n + 2.0 * m * n) * 4.0;
                let transfers = (bytes / (spec.wram_tile_elems as f64 * 4.0)).ceil() + 4.0;
                (instrs, bytes, transfers)
            } else {
                // PrIM-style streaming (Figure 3a): one row of A per output
                // row, one row of B per output element, C written per element.
                let bytes = (m * k + m * n * k + 2.0 * m * n) * 4.0;
                let transfers = m + m * n + m * n;
                (instrs, bytes, transfers)
            }
        }
        DpuKernelKind::Gemv { rows, cols } => {
            let (r, cl) = (*rows as f64, *cols as f64);
            let macs = r * cl;
            let instrs = macs * mac + r * i.wram_access;
            if spec.locality_optimized {
                let bytes = (r * cl + cl + 2.0 * r) * 4.0;
                let transfers = (bytes / (spec.wram_tile_elems as f64 * 4.0)).ceil() + 3.0;
                (instrs, bytes, transfers)
            } else {
                let bytes = (r * cl + r * cl + 2.0 * r) * 4.0;
                let transfers = 2.0 * r + 2.0;
                (instrs, bytes, transfers)
            }
        }
        DpuKernelKind::Elementwise { len, .. } => {
            let l = *len as f64;
            let instrs = l * stream;
            let bytes = 3.0 * l * 4.0;
            let tile = spec.wram_tile_elems as f64;
            let transfers = (3.0 * l / tile).ceil().max(3.0);
            (instrs, bytes, transfers)
        }
        DpuKernelKind::Reduce { len, .. } => {
            let l = *len as f64;
            let instrs = l * (i.wram_access + i.alu + 0.25 * i.branch);
            let bytes = l * 4.0;
            let transfers = (l / spec.wram_tile_elems as f64).ceil().max(1.0);
            (instrs, bytes, transfers)
        }
        DpuKernelKind::Histogram { len, bins, .. } => {
            let l = *len as f64;
            // Scale each element into a bin (division!) and update WRAM.
            let instrs = l * (i.wram_access + i.div32 * 0.25 + i.mul32 * 0.25 + 2.0 * i.alu)
                + *bins as f64 * i.wram_access;
            let bytes = (l + *bins as f64) * 4.0;
            let transfers = (l / spec.wram_tile_elems as f64).ceil().max(2.0);
            (instrs, bytes, transfers)
        }
        DpuKernelKind::Scan { len, .. } => {
            let l = *len as f64;
            let instrs = l * stream;
            let bytes = 2.0 * l * 4.0;
            let transfers = (2.0 * l / spec.wram_tile_elems as f64).ceil().max(2.0);
            (instrs, bytes, transfers)
        }
        DpuKernelKind::Select { len, .. } => {
            let l = *len as f64;
            let instrs = l * (2.0 * i.wram_access + 2.0 * i.alu + 0.5 * i.branch);
            let bytes = 2.0 * l * 4.0;
            let transfers = (2.0 * l / spec.wram_tile_elems as f64).ceil().max(2.0);
            (instrs, bytes, transfers)
        }
        DpuKernelKind::TimeSeries { len, window } => {
            let l = *len as f64;
            let w = *window as f64;
            let positions = (l - w + 1.0).max(1.0);
            let instrs = positions * w * mac;
            let bytes = if spec.locality_optimized {
                (l + positions) * 4.0
            } else {
                // The window is re-fetched per position without blocking.
                (positions * w + positions) * 4.0
            };
            let transfers = (bytes / (spec.wram_tile_elems as f64 * 4.0))
                .ceil()
                .max(2.0);
            (instrs, bytes, transfers)
        }
        DpuKernelKind::BfsStep {
            vertices,
            avg_degree,
        } => {
            let v = *vertices as f64;
            let e = v * *avg_degree as f64;
            // Irregular: per-edge MRAM access at 8-byte granularity.
            let instrs = v * (2.0 * i.wram_access + i.alu) + e * (i.wram_access + 2.0 * i.alu);
            let bytes = (v * 2.0 + e) * 4.0;
            let transfers = v + e / 2.0;
            (instrs, bytes, transfers)
        }
        DpuKernelKind::FusedElementwise { stages, len, arity } => {
            // Each element crosses WRAM once per external operand and once
            // per stage store; the intermediate values stay in registers
            // between stages. A single-stage fused kernel (arity 2) therefore
            // costs exactly one Elementwise launch, and an s-stage chain is
            // strictly cheaper than s separate launches (which pay
            // 3 WRAM accesses per element each).
            let l = *len as f64;
            let s = stages.len() as f64;
            let io = (*arity as f64) + s;
            let instrs = l * (io * i.wram_access + s * i.alu + 0.5 * i.branch);
            let bytes = io * l * 4.0;
            let transfers = (io * l / spec.wram_tile_elems as f64).ceil().max(io);
            (instrs, bytes, transfers)
        }
    };

    // Without WRAM blocking the generated loops keep re-computing operand
    // addresses and cannot keep reused operands in registers; charge the
    // dense kernels an instruction overhead for that.
    let blocking_overhead = match &spec.kind {
        DpuKernelKind::Gemm { .. }
        | DpuKernelKind::Gemv { .. }
        | DpuKernelKind::TimeSeries { .. }
            if !spec.locality_optimized =>
        {
            1.25
        }
        _ => 1.0,
    };
    let instrs = instrs * spec.instruction_overhead_factor * blocking_overhead;
    let compute_cycles = instrs * c.cycles_per_instruction();
    // DMA engine works per tasklet but the MRAM port is shared: bandwidth
    // bound plus fixed setup per transfer (transfers issued by different
    // tasklets overlap only partially; charge the full setup).
    let dma_cycles = dma_transfers * c.dma_setup_cycles
        + dma_bytes / (c.mram_bandwidth_bytes_per_s / c.dpu_freq_hz);
    // The WRAM-blocked code double-buffers its tiles, so compute and DMA
    // overlap; the streaming baseline issues blocking element-granularity
    // DMA, serialising the two. A single tasklet can never overlap.
    let cycles = if spec.locality_optimized && tasklets >= 2 {
        let (hi, lo) = if compute_cycles >= dma_cycles {
            (compute_cycles, dma_cycles)
        } else {
            (dma_cycles, compute_cycles)
        };
        hi + 0.2 * lo
    } else {
        compute_cycles + dma_cycles
    };
    let seconds = c.cycles_to_seconds(cycles);
    let instructions = instrs * num_dpus as f64;
    let dma_bytes = dma_bytes * num_dpus as f64;
    // Energy model (see `EnergyCosts`): dynamic pipeline energy per retired
    // instruction and DMA energy per MRAM↔WRAM byte — both already summed
    // over the grid — plus static power over the launch duration on every
    // DPU (idle DPUs burn leakage while the slowest one finishes).
    let energy_j = instructions * c.energy.pipeline_j_per_instr
        + dma_bytes * c.energy.dma_j_per_byte
        + seconds * c.energy.static_w_per_dpu * num_dpus as f64;
    LaunchStats {
        instructions,
        dma_bytes,
        seconds,
        cycles_per_dpu: cycles,
        energy_j,
    }
}

/// Validates shape parameters of a kernel kind that buffer-length checks
/// cannot catch: a [`DpuKernelKind::TimeSeries`] window larger than its
/// input would read past the per-DPU stride during execution, and a
/// malformed [`DpuKernelKind::FusedElementwise`] stage list would index out
/// of the launch's operand views (shared by the slab and naive launch paths
/// so both fail identically, before any state is touched).
///
/// Public so a lowering that pads per-DPU shapes can reject a malformed
/// *logical* shape with the error the launch would have raised.
pub fn validate_kernel_shape(kind: &DpuKernelKind) -> SimResult<()> {
    match kind {
        DpuKernelKind::TimeSeries { len, window } if window > len => {
            return Err(SimError::new(format!(
                "time-series window {window} exceeds per-DPU input length {len}"
            )));
        }
        DpuKernelKind::FusedElementwise { stages, arity, .. } => {
            if stages.is_empty() || stages.len() > crate::kernel::MAX_FUSED_STAGES {
                return Err(SimError::new(format!(
                    "fused kernel must have 1..={} stages, has {}",
                    crate::kernel::MAX_FUSED_STAGES,
                    stages.len()
                )));
            }
            if *arity > exec::MAX_KERNEL_INPUTS {
                return Err(SimError::new(format!(
                    "fused kernel arity {arity} exceeds the input limit of {}",
                    exec::MAX_KERNEL_INPUTS
                )));
            }
            for (s, stage) in stages.iter().enumerate() {
                for arg in [stage.lhs, stage.rhs] {
                    let ok = match arg {
                        crate::kernel::FusedArg::Input(i) => (i as usize) < *arity,
                        // Only earlier stages: dependency order by
                        // construction, so one forward pass executes the
                        // chain.
                        crate::kernel::FusedArg::Stage(t) => (t as usize) < s,
                    };
                    if !ok {
                        return Err(SimError::new(format!(
                            "fused stage {s} references invalid operand {arg:?} (arity {arity})"
                        )));
                    }
                }
            }
        }
        _ => {}
    }
    Ok(())
}

/// Validates the output-buffer list of a spec against the kernel's output
/// count and the no-aliasing requirement of the fused multi-output path
/// (shared by the slab and naive launch paths so both fail identically).
/// `buffer_len` resolves a buffer id to its per-DPU length in the caller's
/// storage.
pub(crate) fn validate_outputs(
    spec: &KernelSpec,
    buffer_len: impl Fn(BufferId) -> SimResult<usize>,
) -> SimResult<()> {
    if 1 + spec.extra_outputs.len() != spec.kind.num_outputs() {
        return Err(SimError::new(format!(
            "kernel '{}' produces {} outputs, spec has {}",
            spec.kind.name(),
            spec.kind.num_outputs(),
            1 + spec.extra_outputs.len()
        )));
    }
    if !matches!(spec.kind, DpuKernelKind::FusedElementwise { .. }) {
        return Ok(());
    }
    // The fused launch path takes every output slab out of storage at once,
    // so fused outputs must be pairwise distinct and disjoint from the
    // inputs (the graph optimizer only fuses ops whose buffers satisfy this).
    let needed = spec.kind.output_len();
    for (s, &buf) in spec.extra_outputs.iter().enumerate() {
        let len = buffer_len(buf)?;
        if len < needed {
            return Err(SimError::new(format!(
                "output of stage {} of kernel '{}' needs {needed} elements per DPU, buffer has {len}",
                s + 1,
                spec.kind.name()
            )));
        }
    }
    for (i, o) in spec.outputs().enumerate() {
        if spec.outputs().take(i).any(|earlier| earlier == o) {
            return Err(SimError::new(format!(
                "fused kernel outputs must be distinct, buffer {o} repeats"
            )));
        }
        if spec.inputs.contains(&o) {
            return Err(SimError::new(format!(
                "fused kernel output buffer {o} aliases an input"
            )));
        }
    }
    Ok(())
}

/// Transfers moving fewer elements than this run sequentially even when
/// `host_threads > 1`: for pure memory copies the scoped-thread spawn/join
/// cost outweighs the copy below roughly this volume. Kernel launches are
/// *not* gated on this — their per-chunk compute is not proportional to the
/// chunk size (a 1-element Reduce output chunk still reduces a whole input
/// stride).
const PAR_MIN_TRANSFER_ELEMS: usize = 1 << 16;

/// Thread count for a bulk transfer of `total_elems` elements: sequential
/// below [`PAR_MIN_TRANSFER_ELEMS`], the configured knob otherwise.
pub(crate) fn transfer_threads(host_threads: usize, total_elems: usize) -> usize {
    if total_elems < PAR_MIN_TRANSFER_ELEMS {
        1
    } else {
        host_threads
    }
}

/// Copies the first `chunk` elements of every DPU's stride into `out`, in DPU
/// order (resized to `chunk × num_dpus`) — the gather of a slab whose strides
/// are not one tight run.
fn copy_strides(
    config: &UpmemConfig,
    num_dpus: usize,
    src: Strides<'_>,
    chunk: usize,
    out: &mut Vec<i32>,
) {
    // No `clear()` first: shrinking truncates, growing zero-fills the tail,
    // and every retained element is overwritten by the copy loop below
    // whenever `chunk > 0` — clearing would just memset the whole vector
    // twice per gather.
    out.resize(chunk * num_dpus, 0);
    let threads = transfer_threads(config.host_threads, out.len());
    config
        .pool
        .for_each_chunk_mut(threads, out, chunk, |d, dst| {
            dst.copy_from_slice(&src.of(d)[..chunk]);
        });
}

/// Whether what a launch leaves in its `out_elems`-element output strides
/// depends on what they held: `gemm` and `gemv` accumulate into them, and a
/// kernel writing fewer elements leaves the rest as they were.
fn reads_output(kind: &DpuKernelKind, out_elems: usize) -> bool {
    matches!(
        kind,
        DpuKernelKind::Gemm { .. } | DpuKernelKind::Gemv { .. }
    ) || kind.output_len() < out_elems
}

/// Functional execution of one (pre-validated) launch on the whole grid, on
/// pre-borrowed storage: `outs` are the launch's output slabs in
/// `spec.output`, `spec.extra_outputs` order (moved out of the slab table by
/// the caller), `cuts` the DPU indices, first 0 and last the grid size, that
/// cut the grid into runs whose DPUs read their inputs through the same
/// strides (`[0, num_dpus]` unless an input is
/// [lent](UpmemSystem::launch_lent)), `ins_of` a run's strides of every input
/// that is not an output (an input that is, is read through `outs[0]`),
/// `scratch` is the staging arena of the aliased path and of a lent output's
/// partial stride (grown to the launch's footprint, never shrunk) and
/// `narrow` holds the hot path's [`exec::narrow_operand`] (grown the same
/// way). Output slabs become per-DPU here, unless the output is `lent`: the
/// DPUs whose whole stride lies in it write there (`cuts` then also holds
/// its first partial DPU and the one after), the partial one writes a
/// staged stride whose prefix is copied, and the rest do not run. Inputs
/// are only ever read through their [`Strides`].
///
/// The kernel is dispatched once per band of DPUs ([`exec::execute_grid`]),
/// not once per DPU: one band for `host_threads = 1`, `k` bands of the same
/// code on the pool for `k` threads — bit-identical for every thread count.
#[allow(clippy::too_many_arguments)]
fn launch_slabs<'a>(
    config: &UpmemConfig,
    spec: &KernelSpec,
    cuts: &[usize],
    ins_of: impl Fn(&Range<usize>) -> [Strides<'a>; exec::MAX_KERNEL_INPUTS],
    outs: &mut [&mut Slab],
    lent: Option<&mut [i32]>,
    scratch: &mut Vec<i32>,
    narrow: &mut Vec<i16>,
) {
    let (n_inputs, num_dpus) = (spec.inputs.len(), cuts[cuts.len() - 1]);
    debug_assert!(n_inputs <= exec::MAX_KERNEL_INPUTS);
    // The runs of DPUs that read every input the same way (one run over the
    // grid unless something is lent).
    let runs = || {
        cuts.windows(2)
            .map(|w| w[0]..w[1])
            .filter(|r| !r.is_empty())
    };
    if let DpuKernelKind::FusedElementwise { stages, len, .. } = &spec.kind {
        // Fused outputs never alias inputs or each other (validated before
        // dispatch), so each run of DPUs runs the chain stage by stage: each
        // stage is an element-wise grid op writing one output slab and
        // reading launch inputs or the strides earlier stages wrote for the
        // same DPUs. Its work is proportional to its volume, so small stages
        // stay on the caller like small transfers do.
        debug_assert_eq!(stages.len(), outs.len());
        let threads = transfer_threads(config.host_threads, len * num_dpus);
        for dpus in runs() {
            let ins = ins_of(&dpus);
            for (s, stage) in stages.iter().enumerate() {
                let (done, rest) = outs.split_at_mut(s);
                let operand = |arg| match arg {
                    FusedArg::Input(i) => ins[i as usize],
                    FusedArg::Stage(t) => done[t as usize].strides(),
                };
                let (lhs, rhs) = (operand(stage.lhs), operand(stage.rhs));
                let out_elems = rest[0].elems_per_dpu;
                let out = rest[0].per_dpu_mut(num_dpus, false);
                let out = &mut out[dpus.start * out_elems..dpus.end * out_elems];
                config
                    .pool
                    .for_each_band_mut(threads, out, out_elems, |first, band| {
                        let first = dpus.start + first;
                        let dpus = first..first + band.len() / out_elems;
                        exec::elementwise_grid(stage.op, *len, lhs, rhs, band, out_elems, dpus)
                    });
            }
        }
        return;
    }
    let out_elems = outs[0].elems_per_dpu;
    // A lent output starts as the zeroed buffer it stands for wherever the
    // kernel reads its stride or leaves part of it unwritten.
    let zero = lent.is_some() && reads_output(&spec.kind, out_elems);
    let out = match lent {
        Some(out) => out,
        None => outs[0].per_dpu_mut(num_dpus, false),
    };
    if out.is_empty() {
        // Nothing to write, and no strides to split into bands.
        return;
    }
    if !spec.inputs.contains(&spec.output) {
        // Hot path: input strides are borrowed straight from the slabs (or
        // the caller's lent slices) and the output of each run of DPUs is
        // split into disjoint bands of per-DPU strides. A slab holds every
        // DPU's stride (`whole` is the grid); a lent output the first
        // `whole`, then at most a partial one.
        let whole = out.len() / out_elems;
        let partial = out.len() % out_elems;
        for dpus in runs() {
            let ins = &ins_of(&dpus)[..n_inputs];
            let out = if dpus.end <= whole {
                &mut out[dpus.start * out_elems..dpus.end * out_elems]
            } else if dpus.start == whole && partial > 0 {
                scratch.clear();
                scratch.resize(out_elems, 0);
                &mut scratch[..]
            } else {
                continue;
            };
            let narrow = exec::narrow_operand(&spec.kind, ins, narrow);
            config
                .pool
                .for_each_band_mut(config.host_threads, out, out_elems, |first, band| {
                    if zero {
                        band.fill(0);
                    }
                    let first = dpus.start + first;
                    let dpus = first..first + band.len() / out_elems;
                    exec::execute_grid(&spec.kind, ins, narrow, band, out_elems, dpus)
                });
        }
        if partial > 0 {
            out[whole * out_elems..].copy_from_slice(&scratch[..partial]);
        }
        return;
    }
    // Slow path for the rare launch whose output buffer is also an input:
    // preserves read-before-write semantics by staging each DPU's input
    // strides in the scratch arena before its output stride is mutated, then
    // running the same grid executor on that one-DPU band — functionally
    // identical to the naive reference's per-launch clones, but without
    // per-DPU heap allocation once the arena has grown to the launch's
    // footprint.
    // Lent launches are not aliased (validated): one run over the grid.
    let ins = &ins_of(&(0..num_dpus))[..n_inputs];
    let mut bounds = [0usize; exec::MAX_KERNEL_INPUTS + 1];
    for (i, (&b, strides)) in spec.inputs.iter().zip(ins).enumerate() {
        let elems = if b == spec.output {
            out_elems
        } else {
            strides.elems
        };
        bounds[i + 1] = bounds[i] + elems;
    }
    if scratch.len() < bounds[n_inputs] {
        scratch.resize(bounds[n_inputs], 0);
    }
    for (d, out) in out.chunks_exact_mut(out_elems).enumerate() {
        for (i, (&b, strides)) in spec.inputs.iter().zip(ins).enumerate() {
            let stride = if b == spec.output {
                &*out
            } else {
                strides.of(d)
            };
            scratch[bounds[i]..bounds[i + 1]].copy_from_slice(stride);
        }
        let mut staged = [Strides::EMPTY; exec::MAX_KERNEL_INPUTS];
        for (i, slot) in staged.iter_mut().enumerate().take(n_inputs) {
            *slot = Strides {
                data: &scratch[bounds[i]..bounds[i + 1]],
                step: 0,
                elems: bounds[i + 1] - bounds[i],
            };
        }
        exec::execute_grid(
            &spec.kind,
            &staged[..n_inputs],
            None,
            out,
            out_elems,
            d..d + 1,
        );
    }
}

/// The simulated UPMEM machine (slab storage).
#[derive(Debug, Clone)]
pub struct UpmemSystem {
    config: UpmemConfig,
    num_dpus: usize,
    slabs: Vec<Slab>,
    mram_used: usize,
    mram_peak: usize,
    /// Ids of freed slabs, reused (LIFO) by the next allocations so
    /// long-lived sessions under memory pressure keep a bounded slab table.
    /// Only the reuse stack: whether an id is live is the slab's own state.
    free_ids: Vec<BufferId>,
    stats: SystemStats,
    /// Reusable staging arena of the aliased-launch slow path and of a
    /// [`gather_with`](Self::gather_with) from strides that are not one tight
    /// run: grown to the largest footprint seen, then reused, so repeated
    /// aliased launches and lent gathers perform no per-DPU (or per-op) heap
    /// allocation.
    scratch: Vec<i32>,
    /// The staged tails of a [lent](Self::launch_lent) launch's operands:
    /// grown to the largest such launch, then reused.
    staged: Vec<i32>,
    /// The `i16` copy of a launch's replicated `gemm`/`gemv` operand
    /// ([`exec::narrow_operand`]): grown to the largest operand seen, then
    /// reused, so warm launches narrow without allocating.
    narrow: Vec<i16>,
    /// Deterministic fault injector; `None` when the system is fault-free.
    fault: Option<FaultInjector>,
    /// Per-op telemetry handles, resolved once at construction when the
    /// config carries a registry. Recording is atomics-only, so the warmed
    /// hot path stays allocation-free with telemetry enabled.
    tele: Option<UpmemTele>,
}

/// Telemetry handles of one UPMEM system (see [`UpmemConfig::telemetry`]).
/// Names are shared across clones and spares (get-or-register), so failover
/// keeps accumulating into the same series.
#[derive(Debug, Clone)]
struct UpmemTele {
    launches: cinm_telemetry::Counter,
    scatter_bytes: cinm_telemetry::Counter,
    broadcast_bytes: cinm_telemetry::Counter,
    gather_bytes: cinm_telemetry::Counter,
    faults: cinm_telemetry::Counter,
    energy_j: cinm_telemetry::Gauge,
}

impl UpmemTele {
    fn register(t: &cinm_telemetry::Telemetry) -> Self {
        UpmemTele {
            launches: t.counter("upmem.launches"),
            scatter_bytes: t.counter("upmem.scatter.bytes"),
            broadcast_bytes: t.counter("upmem.broadcast.bytes"),
            gather_bytes: t.counter("upmem.gather.bytes"),
            faults: t.counter("upmem.faults.injected"),
            energy_j: t.gauge("upmem.energy_j"),
        }
    }
}

impl UpmemSystem {
    /// Creates a system with the given configuration.
    pub fn new(config: UpmemConfig) -> Self {
        let n = config.num_dpus();
        let fault = config
            .fault
            .clone()
            .filter(|f| f.any_enabled())
            .map(FaultInjector::new);
        let tele = config.telemetry.as_ref().map(UpmemTele::register);
        UpmemSystem {
            config,
            num_dpus: n,
            slabs: Vec::new(),
            mram_used: 0,
            mram_peak: 0,
            free_ids: Vec::new(),
            stats: SystemStats::default(),
            scratch: Vec::new(),
            staged: Vec::new(),
            narrow: Vec::new(),
            fault,
            tele,
        }
    }

    /// The fault injector, if fault injection is enabled.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Clones the system *without* its fault injector: same buffers, same
    /// statistics, fault-free from here on. This is the host-takeover path of
    /// the recovery layer — when the CNM device fails permanently, the
    /// session continues on a host-emulated replica built from the device's
    /// still-readable memory, and results stay bit-identical to the
    /// fault-free run.
    pub fn fault_free_clone(&self) -> UpmemSystem {
        let mut clone = self.clone();
        clone.fault = None;
        clone.config.fault = None;
        clone
    }

    /// Draws the next transfer-fault decision (timeout, then corruption).
    /// Called after validation and before any slab or stats mutation, so a
    /// faulted transfer leaves the system untouched.
    fn inject_transfer(&mut self, what: &str) -> SimResult<()> {
        if let Some(inj) = self.fault.as_mut() {
            if let Err(ev) = inj.check_transfer() {
                if let Some(tele) = &self.tele {
                    tele.faults.inc();
                }
                return Err(SimError::fault(
                    ev.kind,
                    format!("{what}: {}", ev.description),
                ));
            }
        }
        Ok(())
    }

    /// Draws the next launch-fault decision. Called after validation and
    /// before kernel execution, so a faulted launch leaves the system
    /// untouched. Permanent faults model a dead compute path: every later
    /// launch fails too, while transfers keep working (MRAM stays readable,
    /// so the layers above can rescue resident data and re-plan).
    fn inject_launch(&mut self, spec: &KernelSpec) -> SimResult<()> {
        if let Some(inj) = self.fault.as_mut() {
            if let Err(ev) = inj.check_launch() {
                if let Some(tele) = &self.tele {
                    tele.faults.inc();
                }
                return Err(SimError::fault(
                    ev.kind,
                    format!("launch {:?}: {}", spec.kind, ev.description),
                ));
            }
        }
        Ok(())
    }

    /// The configuration of this system.
    pub fn config(&self) -> &UpmemConfig {
        &self.config
    }

    /// Number of DPUs in the grid.
    pub fn num_dpus(&self) -> usize {
        self.num_dpus
    }

    /// Accumulated run statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Resets the accumulated statistics (buffers are kept).
    pub fn reset_stats(&mut self) {
        self.stats = SystemStats::default();
    }

    // One accounting body per operation kind, called from the operation's
    // body below. Telemetry is atomics-only (no allocation, no lock) and never
    // affects `stats`.

    fn account_scatter(&mut self, elems: usize) -> TransferStats {
        let t = self.config.chunked_transfer(elems);
        self.stats.host_to_dpu_bytes += t.bytes;
        self.stats.host_to_dpu_seconds += t.seconds;
        self.stats.host_to_dpu_energy_j += t.energy_j;
        if let Some(tele) = &self.tele {
            tele.scatter_bytes.add(t.bytes);
            tele.energy_j.add(t.energy_j);
        }
        t
    }

    fn account_broadcast(&mut self, t: &TransferStats) {
        self.stats.host_to_dpu_bytes += t.bytes;
        self.stats.host_to_dpu_seconds += t.seconds;
        self.stats.host_to_dpu_energy_j += t.energy_j;
        if let Some(tele) = &self.tele {
            tele.broadcast_bytes.add(t.bytes);
            tele.energy_j.add(t.energy_j);
        }
    }

    fn account_gather(&mut self, elems: usize) -> TransferStats {
        let t = self.config.chunked_transfer(elems);
        self.stats.dpu_to_host_bytes += t.bytes;
        self.stats.dpu_to_host_seconds += t.seconds;
        self.stats.dpu_to_host_energy_j += t.energy_j;
        if let Some(tele) = &self.tele {
            tele.gather_bytes.add(t.bytes);
            tele.energy_j.add(t.energy_j);
        }
        t
    }

    fn account_launch(&mut self, l: &LaunchStats) {
        self.stats.kernel_seconds += l.seconds;
        self.stats.kernel_energy_j += l.energy_j;
        self.stats.launches += 1;
        if let Some(tele) = &self.tele {
            tele.launches.inc();
            tele.energy_j.add(l.energy_j);
        }
    }

    /// MRAM bytes currently allocated per DPU.
    pub fn mram_used_bytes(&self) -> usize {
        self.mram_used
    }

    /// High-water mark of per-DPU MRAM bytes ever allocated at once (the
    /// working-set footprint a memory limit must admit).
    pub fn mram_peak_bytes(&self) -> usize {
        self.mram_peak
    }

    /// Allocates a buffer of `elems_per_dpu` 32-bit elements on every DPU.
    ///
    /// The fresh buffer is stored as one replicated all-zero stride, so this
    /// is a single host allocation of `elems_per_dpu` elements regardless of
    /// the number of DPUs. Ids of [`free_buffer`](Self::free_buffer)ed slabs
    /// are reused.
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
        self.mram_used += bytes;
        self.mram_peak = self.mram_peak.max(self.mram_used);
        let slab = Slab::zeroed(elems_per_dpu);
        let id = match self.free_ids.pop() {
            Some(id) => {
                self.slabs[id as usize] = slab;
                id
            }
            None => {
                let id = self.slabs.len() as BufferId;
                self.slabs.push(slab);
                id
            }
        };
        Ok(id)
    }

    /// Releases a buffer's per-DPU MRAM bytes and drops its slab storage.
    /// The id goes on a free list and is reused by later allocations, so a
    /// caller must drop every copy of a freed id — the layers above
    /// (session residency, batch plans) re-derive buffer ids from their own
    /// slot state on every replay precisely so stale ids cannot leak.
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer does not exist or was already freed.
    pub fn free_buffer(&mut self, id: BufferId) -> SimResult<()> {
        let slab = self
            .slabs
            .get_mut(id as usize)
            .ok_or_else(|| SimError::new(format!("unknown buffer {id}")))?;
        if slab.storage == Storage::Freed {
            return Err(SimError::new(format!("buffer {id} already freed")));
        }
        self.mram_used -= slab.elems_per_dpu * 4;
        *slab = Slab::default();
        self.free_ids.push(id);
        Ok(())
    }

    fn slab(&self, id: BufferId) -> SimResult<&Slab> {
        // Freed ids are as unknown as never-allocated ones (matching the
        // naive reference, which removes freed buffers from its maps).
        self.slabs
            .get(id as usize)
            .filter(|slab| slab.storage != Storage::Freed)
            .ok_or_else(|| SimError::new(format!("unknown buffer {id}")))
    }

    /// Elements per DPU of an allocated buffer.
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer does not exist.
    pub fn buffer_len(&self, id: BufferId) -> SimResult<usize> {
        Ok(self.slab(id)?.elems_per_dpu)
    }

    /// Elements the simulator actually holds for a buffer (tests pin the
    /// storage form with it).
    #[cfg(test)]
    pub(crate) fn stored_len(&self, buffer: BufferId) -> usize {
        self.slabs[buffer as usize].data.len()
    }

    /// Validates a scatter/gather chunk against the buffer geometry (shared
    /// by every scatter and gather form, so all of them fail identically).
    fn validate_chunk(&self, buffer: BufferId, chunk: usize) -> SimResult<()> {
        let elems = self.buffer_len(buffer)?;
        if chunk > elems {
            return Err(SimError::new(format!(
                "chunk of {chunk} elements exceeds per-DPU buffer of {elems}"
            )));
        }
        Ok(())
    }

    /// Validates kernel and buffer shapes of a launch. Performed before any
    /// state is touched.
    fn validate_launch(&self, spec: &KernelSpec) -> SimResult<()> {
        validate_kernel_shape(&spec.kind)?;
        // `KernelSpec::new` asserts the arity, but the fields are public, so
        // a hand-built spec must not slip past validation into a
        // mid-execution panic (a rejected launch touches nothing).
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
        validate_outputs(spec, |b| self.buffer_len(b))
    }

    /// Scatters host data across the DPUs: DPU `d` receives elements
    /// `[d * chunk, (d + 1) * chunk)` of `data` (zero-padded at the tail).
    ///
    /// On the slab layout this is a bulk copy over contiguous memory,
    /// parallelised across DPU strides when
    /// [`host_threads`](UpmemConfig::host_threads) allows. A buffer still in
    /// its replicated form is expanded to one stride per DPU first.
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer does not exist or `chunk` exceeds the
    /// per-DPU buffer size.
    pub fn scatter_i32(
        &mut self,
        buffer: BufferId,
        data: &[i32],
        chunk: usize,
    ) -> SimResult<TransferStats> {
        self.validate_chunk(buffer, chunk)?;
        self.inject_transfer("scatter")?;
        Ok(self.apply_scatter(buffer, data, chunk))
    }

    /// The scatter itself, validated and past its fault draw: the one body
    /// [`scatter_i32`](Self::scatter_i32) and
    /// [`scatter_image`](Self::scatter_image) both run.
    fn apply_scatter(&mut self, buffer: BufferId, data: &[i32], chunk: usize) -> TransferStats {
        let (config, num_dpus) = (&self.config, self.num_dpus);
        let slab = &mut self.slabs[buffer as usize];
        let elems = slab.elems_per_dpu;
        let threads = transfer_threads(config.host_threads, chunk * num_dpus);
        if chunk > 0 {
            // `dst` takes the `data` elements from `start` on, zero-padded.
            let fill = |dst: &mut [i32], start: usize| {
                let src = &data[start.min(data.len())..];
                let avail = src.len().min(dst.len());
                dst[..avail].copy_from_slice(&src[..avail]);
                dst[avail..].fill(0);
            };
            let strides = slab.per_dpu_mut(num_dpus, chunk == elems);
            config
                .pool
                .for_each_band_mut(threads, strides, elems, |first, band| {
                    if chunk == elems {
                        // Tight: the band's strides are one run of `data`.
                        fill(band, first * chunk);
                    } else {
                        for (d, stride) in (first..).zip(band.chunks_exact_mut(elems)) {
                            fill(&mut stride[..chunk], d * chunk);
                        }
                    }
                });
        }
        self.account_scatter(data.len())
    }

    /// [`scatter_i32`](Self::scatter_i32) from a [`HostImage`], which the
    /// slab **adopts** instead of copying when the image is exactly what the
    /// slab would hold (`chunk` is the per-DPU buffer length and the image
    /// covers the whole grid) and the slab is still in its replicated form,
    /// so the copy would have been into freshly allocated memory. `image`
    /// then reads as before but is shared with the slab until either side
    /// writes. Every other shape is the copying scatter. Validation, the
    /// fault draw, the billed transfer and the resulting buffer contents are
    /// those of the borrowed form in both cases.
    ///
    /// # Errors
    ///
    /// As [`scatter_i32`](Self::scatter_i32); a failed scatter adopts nothing.
    pub fn scatter_image(
        &mut self,
        buffer: BufferId,
        image: &mut HostImage,
        chunk: usize,
    ) -> SimResult<TransferStats> {
        self.validate_chunk(buffer, chunk)?;
        self.inject_transfer("scatter")?;
        let num_dpus = self.num_dpus;
        let slab = &mut self.slabs[buffer as usize];
        if slab.storage == Storage::Replicated
            && chunk == slab.elems_per_dpu
            && image.len() == chunk * num_dpus
        {
            slab.data = image.share();
            slab.storage = Storage::PerDpu;
            return Ok(self.account_scatter(image.len()));
        }
        Ok(self.apply_scatter(buffer, image, chunk))
    }

    /// [`scatter_i32`](Self::scatter_i32) that **lends** `data` instead of
    /// copying it: validates, draws the fault and bills exactly like it,
    /// then moves nothing — the buffer keeps its contents, and the launch
    /// that follows reads `data` itself through
    /// [`launch_lent`](Self::launch_lent). `chunk` must be the buffer's
    /// per-DPU length, so DPU `d` reads the stride `data[d * chunk..]`, and
    /// the caller passes the same `data` to that launch.
    ///
    /// # Errors
    ///
    /// As [`scatter_i32`](Self::scatter_i32); also a `chunk` shorter than
    /// the buffer's strides (checked before the fault draw).
    pub fn scatter_lent(
        &mut self,
        buffer: BufferId,
        data: &[i32],
        chunk: usize,
    ) -> SimResult<TransferStats> {
        self.validate_chunk(buffer, chunk)?;
        if chunk != self.buffer_len(buffer)? {
            return Err(SimError::new(format!(
                "a lent scatter fills whole strides, chunk {chunk} does not"
            )));
        }
        self.inject_transfer("scatter")?;
        Ok(self.account_scatter(data.len()))
    }

    /// Copies the same host data to the buffer of every DPU (broadcast).
    ///
    /// Cost model: the replicated image crosses the host interface once per
    /// DPU (`data.len() * 4 * num_dpus` bytes are accounted), but ranks are
    /// written in parallel, so the transfer time is that of one rank-sized
    /// image through a single rank's channel — see
    /// [`UpmemConfig::broadcast_transfer`]. The time is therefore independent
    /// of the number of ranks, matching the PrIM `dpu_broadcast_to`
    /// behaviour. That is what is *billed*; what the simulator *stores* for
    /// a buffer no per-DPU write has touched is the one image, which every
    /// DPU reads.
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer does not exist or the data does not fit.
    pub fn broadcast_i32(&mut self, buffer: BufferId, data: &[i32]) -> SimResult<TransferStats> {
        let elems = self.buffer_len(buffer)?;
        if data.len() > elems {
            return Err(SimError::new(format!(
                "broadcast of {} elements exceeds per-DPU buffer of {elems}",
                data.len()
            )));
        }
        self.inject_transfer("broadcast")?;
        // A replicated slab stores the image once — the billed volume does
        // not depend on the storage form.
        let (config, num_dpus) = (&self.config, self.num_dpus);
        let slab = &mut self.slabs[buffer as usize];
        // A partial write: a shared image is cloned, not replaced.
        let stored = slab.data.detach(true);
        if slab.storage == Storage::Replicated {
            stored[..data.len()].copy_from_slice(data);
        } else if !data.is_empty() {
            let elems = slab.elems_per_dpu;
            let threads = transfer_threads(config.host_threads, data.len() * num_dpus);
            config
                .pool
                .for_each_chunk_mut(threads, stored, elems, |_, stride| {
                    stride[..data.len()].copy_from_slice(data);
                });
        }
        let t = config.broadcast_transfer(data.len());
        self.account_broadcast(&t);
        Ok(t)
    }

    /// Gathers `chunk` elements from every DPU back into one host vector
    /// (inverse of [`scatter_i32`](Self::scatter_i32)).
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
        let mut out = Vec::new();
        let t = self.gather_i32_into(buffer, chunk, &mut out)?;
        Ok((out, t))
    }

    /// The allocation-reusing form of [`gather_i32`](Self::gather_i32): the
    /// gathered data replaces the contents of `out` (cleared and resized —
    /// a vector reused across gathers of the same shape never re-allocates).
    /// Results and accounted statistics are bit-identical to the allocating
    /// form.
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer does not exist or `chunk` exceeds the
    /// per-DPU buffer size.
    pub fn gather_i32_into(
        &mut self,
        buffer: BufferId,
        chunk: usize,
        out: &mut Vec<i32>,
    ) -> SimResult<TransferStats> {
        self.validate_chunk(buffer, chunk)?;
        self.inject_transfer("gather")?;
        Ok(self.apply_gather(buffer, chunk, out))
    }

    /// The gather itself (validated, past its fault draw), shared by
    /// [`gather_i32_into`](Self::gather_i32_into) and
    /// [`gather_image`](Self::gather_image).
    fn apply_gather(
        &mut self,
        buffer: BufferId,
        chunk: usize,
        out: &mut Vec<i32>,
    ) -> TransferStats {
        let (config, num_dpus) = (&self.config, self.num_dpus);
        let src = self.slabs[buffer as usize].strides();
        if let Some(flat) = src.flat(chunk, 0..num_dpus) {
            // Tight: the slab is the gathered vector. One copy, and a fresh
            // vector is not zero-filled first.
            out.clear();
            out.extend_from_slice(flat);
        } else {
            copy_strides(config, num_dpus, src, chunk, out);
        }
        self.account_gather(out.len())
    }

    /// [`gather_i32_into`](Self::gather_i32_into) without a destination of
    /// the caller's: validates, draws the fault and bills exactly like it,
    /// then lends the gathered `chunk × num_dpus` elements to `read` — the
    /// slab itself when its strides are one tight run, otherwise a copy in
    /// the system's own scratch (grown to the largest such gather, then
    /// reused). A caller that only decodes the gather (select records,
    /// reduction and histogram partials) thus writes its result once and
    /// keeps no buffer of its own.
    ///
    /// # Errors
    ///
    /// As [`gather_i32_into`](Self::gather_i32_into); `read` is not called
    /// when the gather fails.
    pub fn gather_with<R>(
        &mut self,
        buffer: BufferId,
        chunk: usize,
        read: impl FnOnce(&[i32]) -> R,
    ) -> SimResult<R> {
        self.validate_chunk(buffer, chunk)?;
        self.inject_transfer("gather")?;
        let (config, num_dpus) = (&self.config, self.num_dpus);
        let src = self.slabs[buffer as usize].strides();
        let result = match src.flat(chunk, 0..num_dpus) {
            Some(flat) => read(flat),
            None => {
                copy_strides(config, num_dpus, src, chunk, &mut self.scratch);
                read(&self.scratch)
            }
        };
        self.account_gather(chunk * num_dpus);
        Ok(result)
    }

    /// [`gather_i32_into`](Self::gather_i32_into) of what a
    /// [lent-output launch](Self::launch_lent) already wrote into the
    /// caller's destination: validates, draws the fault and bills exactly
    /// like it, then copies nothing. `chunk` must be the buffer's per-DPU
    /// length, the whole strides that launch wrote.
    ///
    /// # Errors
    ///
    /// As [`gather_i32_into`](Self::gather_i32_into); also a `chunk` shorter
    /// than the buffer's strides (checked before the fault draw).
    pub fn gather_lent(&mut self, buffer: BufferId, chunk: usize) -> SimResult<TransferStats> {
        self.validate_chunk(buffer, chunk)?;
        if chunk != self.buffer_len(buffer)? {
            return Err(SimError::new(format!(
                "a lent gather reads whole strides, chunk {chunk} does not"
            )));
        }
        self.inject_transfer("gather")?;
        Ok(self.account_gather(chunk * self.num_dpus))
    }

    /// [`gather_i32_into`](Self::gather_i32_into) a [`HostImage`], truncated
    /// to the first `len` elements (the tensor's logical length). `out`
    /// **adopts** the slab's image instead of receiving a copy when the
    /// gathered vector is exactly that image (`chunk` is the per-DPU buffer
    /// length of a per-DPU slab and `len` covers the whole grid) and `out`
    /// has no storage of that size, so the copy would have been into freshly
    /// allocated memory; `out` is then shared with the slab until either side
    /// writes. An `out` that owns enough storage is copied into, so a loop
    /// gathering into the same image allocates once, not once per round.
    /// Validation, the fault draw, the billed transfer (`chunk` elements per
    /// DPU, whatever `len`) and the resulting contents are those of the
    /// borrowed form in both cases.
    ///
    /// # Errors
    ///
    /// As [`gather_i32_into`](Self::gather_i32_into); a failed gather leaves
    /// `out` as it was.
    pub fn gather_image(
        &mut self,
        buffer: BufferId,
        chunk: usize,
        len: usize,
        out: &mut HostImage,
    ) -> SimResult<TransferStats> {
        self.validate_chunk(buffer, chunk)?;
        self.inject_transfer("gather")?;
        let num_dpus = self.num_dpus;
        let slab = &mut self.slabs[buffer as usize];
        let dst = out.overwrite();
        if dst.capacity() < len
            && slab.storage == Storage::PerDpu
            && chunk == slab.elems_per_dpu
            && len == chunk * num_dpus
        {
            *out = slab.data.share();
            return Ok(self.account_gather(len));
        }
        let t = self.apply_gather(buffer, chunk, dst);
        dst.truncate(len);
        Ok(t)
    }

    /// Functionally resets a buffer to the all-zero contents of a fresh
    /// allocation, **without accounting any simulated cost** — exactly like
    /// [`alloc_buffer`](Self::alloc_buffer), which is also untimed. The
    /// `cinm-lowering` execution contexts use this when reusing a cached
    /// buffer in place of a fresh per-op allocation, so the reusing path
    /// stays bit-identical (results, gathered bytes and statistics) to the
    /// eager alloc-per-op path. A slab that owns its storage is filled in
    /// place; one whose image is shared with a host holder goes back to the
    /// fresh replicated form and leaves the image to that holder.
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer does not exist.
    pub fn zero_buffer(&mut self, buffer: BufferId) -> SimResult<()> {
        self.slab(buffer)?;
        let slab = &mut self.slabs[buffer as usize];
        if slab.data.is_shared() {
            // The image stays with its other holders (the last one simply
            // owns it): zeroing a clone would copy what nobody reads again.
            *slab = Slab::zeroed(slab.elems_per_dpu);
        } else {
            // In place, whichever form the slab is in: collapsing a slab
            // that owns its storage would make its next scatter or launch
            // allocate.
            slab.data.overwrite().fill(0);
        }
        Ok(())
    }

    /// Reads the buffer contents of one DPU (testing/debugging aid; does not
    /// account any transfer time).
    ///
    /// # Errors
    ///
    /// Returns an error if the DPU or buffer does not exist.
    pub fn dpu_buffer(&self, dpu: usize, buffer: BufferId) -> SimResult<&[i32]> {
        if dpu >= self.num_dpus {
            return Err(SimError::new(format!("DPU {dpu} out of range")));
        }
        Ok(self.slab(buffer)?.strides().of(dpu))
    }

    /// Launches a kernel on every DPU of the grid.
    ///
    /// The kernel runs functionally on each DPU's local buffers; the launch
    /// time is that of the slowest DPU (they all execute the same amount of
    /// work here, so any DPU is critical).
    ///
    /// Hot path: input strides are borrowed directly from the slabs and the
    /// output slab is split into disjoint bands of per-DPU strides, so no
    /// per-DPU heap allocation, buffer clone or kernel dispatch happens — the
    /// kernel is dispatched once per band; execution is data-parallel across
    /// bands (see [`UpmemConfig::host_threads`]) with bit-identical results
    /// for any thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if a referenced buffer does not exist or is too small
    /// for the kernel shape.
    pub fn launch(&mut self, spec: &KernelSpec) -> SimResult<LaunchStats> {
        self.launch_lent(spec, &[], None)
    }

    /// [`launch`](Self::launch) with inputs read from, and the output
    /// written to, the caller's memory. Input `i` with `lent[i] =
    /// Some(data)` reads `data` as the [lent scatter](Self::scatter_lent)
    /// of it into the input's buffer would have stored it, and its buffer is
    /// not read. The DPUs whose whole stride lies in `data` read it in
    /// place; the one partial DPU and the empty ones after it read their
    /// zero-padded strides from a scratch of the system's, staged here (two
    /// strides per lent input, grown once and reused).
    ///
    /// With `out = Some(dst)` the output buffer is neither read nor written:
    /// `dst` receives the first `dst.len()` elements that a gather of whole
    /// strides would return after the launch into a zeroed output buffer.
    /// The DPUs whose stride lies in `dst` write it in place (a `dst` that
    /// the kernel reads or does not fill is zeroed first), the one partial
    /// DPU writes a staged stride of which only the prefix inside `dst` is
    /// copied, and the DPUs past it are not run. The
    /// [lent gather](Self::gather_lent) bills the transfer. Results and the
    /// accounted launch are those of the copying scatter, the
    /// [`launch`](Self::launch) and the gather.
    ///
    /// # Errors
    ///
    /// As [`launch`](Self::launch); also a lent launch whose output is one
    /// of its inputs, a `lent` longer than the inputs, or a lent output of a
    /// fused launch or longer than the grid's output strides (checked
    /// before the fault draw).
    pub fn launch_lent(
        &mut self,
        spec: &KernelSpec,
        lent: &[Option<&[i32]>],
        out: Option<&mut [i32]>,
    ) -> SimResult<LaunchStats> {
        // Validate kernel and buffer shapes before touching any state.
        self.validate_launch(spec)?;
        let lends = lent.iter().any(Option::is_some) || out.is_some();
        if lent.len() > spec.inputs.len() || lends && spec.inputs.contains(&spec.output) {
            return Err(SimError::new(
                "a lent launch lends at most its inputs and is not aliased",
            ));
        }
        let out_elems = self.slabs[spec.output as usize].elems_per_dpu;
        let fused = matches!(spec.kind, DpuKernelKind::FusedElementwise { .. });
        if out
            .as_ref()
            .is_some_and(|dst| fused || dst.len() > out_elems * self.num_dpus)
        {
            return Err(SimError::new(
                "a lent output is not fused and lies within the grid's strides",
            ));
        }
        self.inject_launch(spec)?;
        // A lent input is read in place by the DPUs whose whole stride its
        // slice holds (`split`); the strides it does not fill are staged: the
        // partial one, then the all-zero one every later DPU reads. The grid
        // is cut into runs of DPUs that read every input the same way and
        // write the same kind of output destination.
        let num_dpus = self.num_dpus;
        let mut split = [num_dpus; exec::MAX_KERNEL_INPUTS];
        let mut cuts = [num_dpus; 2 * exec::MAX_KERNEL_INPUTS + 4];
        cuts[0] = 0;
        if let Some(dst) = &out {
            let whole = dst.len().checked_div(out_elems).unwrap_or(num_dpus);
            cuts[2 * exec::MAX_KERNEL_INPUTS + 2] = whole;
            cuts[2 * exec::MAX_KERNEL_INPUTS + 3] = (whole + 1).min(num_dpus);
        }
        let mut staged = 0;
        for (i, &b) in spec.inputs.iter().enumerate() {
            let Some(Some(data)) = lent.get(i) else {
                continue;
            };
            let elems = self.slabs[b as usize].elems_per_dpu;
            split[i] = data
                .len()
                .checked_div(elems)
                .map_or(num_dpus, |s| s.min(num_dpus));
            cuts[2 * i + 1] = split[i];
            cuts[2 * i + 2] = (split[i] + 1).min(num_dpus);
            if self.staged.len() < staged + 2 * elems {
                self.staged.resize(staged + 2 * elems, 0);
            }
            let tail = &mut self.staged[staged..staged + 2 * elems];
            let rest = &data[(split[i] * elems).min(data.len())..];
            let kept = rest.len().min(elems);
            tail[..kept].copy_from_slice(&rest[..kept]);
            tail[kept..].fill(0);
            staged += 2 * elems;
        }
        if lends {
            cuts.sort_unstable();
        }
        // Functional execution on every DPU. The output slabs move out of
        // storage (no allocation) so the input slabs can be borrowed
        // immutably while the outputs are mutated.
        let mut taken: [Slab; MAX_FUSED_STAGES] = std::array::from_fn(|_| Slab::default());
        for (slot, b) in taken.iter_mut().zip(spec.outputs()) {
            *slot = std::mem::take(&mut self.slabs[b as usize]);
        }
        let (slabs, staged) = (&self.slabs, &self.staged);
        let ins_of = |dpus: &Range<usize>| {
            let mut tail = 0;
            std::array::from_fn(|i| {
                let Some(&b) = spec.inputs.get(i) else {
                    return Strides::EMPTY;
                };
                match lent.get(i) {
                    Some(Some(data)) => {
                        let elems = slabs[b as usize].elems_per_dpu;
                        tail += 2 * elems;
                        let (data, step) = if dpus.end <= split[i] {
                            (&data[..split[i] * elems], elems)
                        } else if dpus.start == split[i] {
                            (&staged[tail - 2 * elems..tail - elems], 0)
                        } else {
                            (&staged[tail - elems..tail], 0)
                        };
                        Strides { data, step, elems }
                    }
                    // An input that is also the output is read through the
                    // taken output slab.
                    _ if b == spec.output => Strides::EMPTY,
                    _ => slabs[b as usize].strides(),
                }
            })
        };
        launch_slabs(
            &self.config,
            spec,
            &cuts[..if lends { cuts.len() } else { 2 }],
            ins_of,
            &mut taken.each_mut()[..spec.outputs().count()],
            out,
            &mut self.scratch,
            &mut self.narrow,
        );
        for (slot, b) in taken.iter_mut().zip(spec.outputs()) {
            self.slabs[b as usize] = std::mem::take(slot);
        }

        // Timing.
        let tasklets = spec.tasklets.unwrap_or(self.config.tasklets);
        let stats = kernel_launch_cost(&self.config, spec, tasklets, self.num_dpus);
        self.account_launch(&stats);
        Ok(stats)
    }
}

impl DpuSystem for UpmemSystem {
    fn config(&self) -> &UpmemConfig {
        UpmemSystem::config(self)
    }
    fn num_dpus(&self) -> usize {
        UpmemSystem::num_dpus(self)
    }
    fn stats(&self) -> &SystemStats {
        UpmemSystem::stats(self)
    }
    fn reset_stats(&mut self) {
        UpmemSystem::reset_stats(self)
    }
    fn alloc_buffer(&mut self, elems_per_dpu: usize) -> SimResult<BufferId> {
        UpmemSystem::alloc_buffer(self, elems_per_dpu)
    }
    fn buffer_len(&self, id: BufferId) -> SimResult<usize> {
        UpmemSystem::buffer_len(self, id)
    }
    fn scatter_i32(
        &mut self,
        buffer: BufferId,
        data: &[i32],
        chunk: usize,
    ) -> SimResult<TransferStats> {
        UpmemSystem::scatter_i32(self, buffer, data, chunk)
    }
    fn broadcast_i32(&mut self, buffer: BufferId, data: &[i32]) -> SimResult<TransferStats> {
        UpmemSystem::broadcast_i32(self, buffer, data)
    }
    fn gather_i32(
        &mut self,
        buffer: BufferId,
        chunk: usize,
    ) -> SimResult<(Vec<i32>, TransferStats)> {
        UpmemSystem::gather_i32(self, buffer, chunk)
    }
    fn dpu_buffer(&self, dpu: usize, buffer: BufferId) -> SimResult<&[i32]> {
        UpmemSystem::dpu_buffer(self, dpu, buffer)
    }
    fn launch(&mut self, spec: &KernelSpec) -> SimResult<LaunchStats> {
        UpmemSystem::launch(self, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::BinOp;

    fn small_system() -> UpmemSystem {
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 4;
        UpmemSystem::new(cfg)
    }

    /// Every DPU's stride of a buffer in DPU order (what a full-length
    /// gather returns, untimed).
    fn contents(sys: &UpmemSystem, buffer: BufferId) -> Vec<i32> {
        (0..sys.num_dpus())
            .flat_map(|d| sys.dpu_buffer(d, buffer).unwrap().to_vec())
            .collect()
    }

    #[test]
    fn alloc_checks_mram_capacity() {
        let mut sys = small_system();
        let huge = 20_000_000; // 80 MB > 64 MB MRAM
        let err = sys.alloc_buffer(huge).unwrap_err();
        assert!(err.is_mram_exhausted());
        assert_eq!(
            err.mram_shortfall(),
            Some((huge * 4, sys.config().mram_bytes))
        );
        let ok = sys.alloc_buffer(1024).unwrap();
        assert_eq!(sys.buffer_len(ok).unwrap(), 1024);
        assert_eq!(sys.mram_used_bytes(), 4096);
        assert_eq!(sys.mram_peak_bytes(), 4096);
    }

    #[test]
    fn free_buffer_releases_capacity_and_reuses_ids() {
        let mut sys = small_system();
        let a = sys.alloc_buffer(8).unwrap();
        let b = sys.alloc_buffer(4).unwrap();
        assert_eq!(sys.mram_used_bytes(), 48);
        sys.free_buffer(a).unwrap();
        assert_eq!(sys.mram_used_bytes(), 16);
        assert_eq!(sys.mram_peak_bytes(), 48, "peak survives the free");
        // A freed id is unknown to every entry point, exactly like the
        // naive reference.
        assert!(sys.buffer_len(a).is_err());
        assert!(sys.gather_i32(a, 1).is_err());
        assert!(sys.free_buffer(a).is_err(), "double free is rejected");
        // The id is reused by the next allocation (LIFO), with fresh
        // zeroed contents.
        let c = sys.alloc_buffer(2).unwrap();
        assert_eq!(c, a);
        assert_eq!(sys.buffer_len(c).unwrap(), 2);
        assert_eq!(contents(&sys, c), [0; 8]);
        assert_eq!(sys.mram_used_bytes(), 24);
        sys.free_buffer(b).unwrap();
        sys.free_buffer(c).unwrap();
        assert_eq!(sys.mram_used_bytes(), 0);
    }

    #[test]
    fn free_and_realloc_match_the_naive_reference_ids() {
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 2;
        let mut naive = crate::naive::NaiveUpmemSystem::new(cfg.clone());
        let mut slab = UpmemSystem::new(cfg);
        let n_a = naive.alloc_buffer(4).unwrap();
        let s_a = slab.alloc_buffer(4).unwrap();
        assert_eq!(n_a, s_a);
        let n_b = naive.alloc_buffer(4).unwrap();
        let s_b = slab.alloc_buffer(4).unwrap();
        assert_eq!(n_b, s_b);
        naive.free_buffer(n_a).unwrap();
        slab.free_buffer(s_a).unwrap();
        let n_c = naive.alloc_buffer(8).unwrap();
        let s_c = slab.alloc_buffer(8).unwrap();
        assert_eq!(n_c, s_c, "freed ids are reused in the same order");
        assert_eq!(naive.mram_used_bytes(), slab.mram_used_bytes());
        assert_eq!(naive.mram_peak_bytes(), slab.mram_peak_bytes());
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let mut sys = small_system();
        let buf = sys.alloc_buffer(8).unwrap();
        let data: Vec<i32> = (0..32).collect();
        sys.scatter_i32(buf, &data, 8).unwrap();
        assert_eq!(sys.dpu_buffer(0, buf).unwrap(), &data[0..8]);
        assert_eq!(sys.dpu_buffer(3, buf).unwrap(), &data[24..32]);
        let (back, _) = sys.gather_i32(buf, 8).unwrap();
        assert_eq!(back, data);
        assert!(sys.stats().host_to_dpu_seconds > 0.0);
        assert!(sys.stats().dpu_to_host_seconds > 0.0);
    }

    #[test]
    fn gather_into_and_zero_buffer_match_fresh_state() {
        let mut sys = small_system();
        let buf = sys.alloc_buffer(8).unwrap();
        let data: Vec<i32> = (0..32).collect();
        sys.scatter_i32(buf, &data, 8).unwrap();
        let mut fresh = small_system();
        let fbuf = fresh.alloc_buffer(8).unwrap();
        fresh.scatter_i32(fbuf, &data, 8).unwrap();
        // Reused gather vector: same data, same accounted transfer.
        let mut out = vec![99i32; 3];
        let t_into = sys.gather_i32_into(buf, 8, &mut out).unwrap();
        let (expect, t_alloc) = fresh.gather_i32(fbuf, 8).unwrap();
        assert_eq!(out, expect);
        assert_eq!(t_into, t_alloc);
        assert_eq!(sys.stats(), fresh.stats());
        // A lent gather reads the same elements and bills the same transfer,
        // from the tight slab itself and, for a partial chunk, from scratch.
        for chunk in [8, 5] {
            let lent = sys.gather_with(buf, chunk, <[i32]>::to_vec).unwrap();
            assert_eq!(lent, fresh.gather_i32(fbuf, chunk).unwrap().0);
            assert_eq!(sys.stats(), fresh.stats());
        }
        assert!(sys.gather_with(buf, 9, |_| panic!("not lent")).is_err());
        // zero_buffer restores the all-zero fresh-allocation contents and
        // accounts nothing.
        let stats_before = *sys.stats();
        sys.zero_buffer(buf).unwrap();
        assert_eq!(contents(&sys, buf), [0; 32]);
        assert_eq!(sys.stats(), &stats_before);
        assert!(sys.zero_buffer(99).is_err());
    }

    #[test]
    fn scatter_pads_tail_with_zeros() {
        let mut sys = small_system();
        let buf = sys.alloc_buffer(8).unwrap();
        let data: Vec<i32> = (1..=20).collect(); // only 2.5 DPUs worth
        sys.scatter_i32(buf, &data, 8).unwrap();
        assert_eq!(
            sys.dpu_buffer(2, buf).unwrap(),
            &[17, 18, 19, 20, 0, 0, 0, 0]
        );
        assert_eq!(sys.dpu_buffer(3, buf).unwrap(), &[0; 8]);
    }

    #[test]
    fn slab_layout_is_contiguous_per_dpu_strides() {
        let mut sys = small_system();
        let buf = sys.alloc_buffer(4).unwrap();
        let data: Vec<i32> = (0..16).collect();
        sys.scatter_i32(buf, &data, 4).unwrap();
        // One contiguous allocation covering all DPUs, stride per DPU.
        assert_eq!(*sys.slabs[buf as usize].data, data[..]);
    }

    #[test]
    fn broadcast_replicates_to_all_dpus() {
        let mut sys = small_system();
        let buf = sys.alloc_buffer(4).unwrap();
        sys.broadcast_i32(buf, &[5, 6, 7, 8]).unwrap();
        for d in 0..sys.num_dpus() {
            assert_eq!(sys.dpu_buffer(d, buf).unwrap(), &[5, 6, 7, 8]);
        }
    }

    #[test]
    fn a_slab_is_stored_once_until_its_first_per_dpu_write() {
        let mut sys = small_system();
        let n = sys.num_dpus();
        let a = sys.alloc_buffer(8).unwrap();
        let b = sys.alloc_buffer(8).unwrap();
        let c = sys.alloc_buffer(8).unwrap();
        // Fresh buffers and broadcast targets hold one stride.
        assert_eq!(sys.stored_len(a), 8);
        sys.broadcast_i32(b, &[1, 2, 3]).unwrap();
        sys.broadcast_i32(b, &[9; 8]).unwrap();
        assert_eq!(sys.stored_len(b), 8);
        assert_eq!(sys.dpu_buffer(n - 1, b).unwrap(), &[9; 8]);
        // zero_buffer keeps the form it finds.
        sys.zero_buffer(b).unwrap();
        assert_eq!(sys.stored_len(b), 8);
        sys.broadcast_i32(b, &[4; 8]).unwrap();
        // The first scatter expands its target; being a launch output
        // expands the output and leaves the (only read) inputs alone.
        sys.scatter_i32(a, &(0..32).collect::<Vec<i32>>(), 8)
            .unwrap();
        assert_eq!(sys.stored_len(a), 8 * n);
        sys.launch(&KernelSpec::new(
            DpuKernelKind::Elementwise {
                op: BinOp::Add,
                len: 8,
            },
            vec![a, b],
            c,
        ))
        .unwrap();
        assert_eq!(sys.stored_len(b), 8);
        assert_eq!(sys.stored_len(c), 8 * n);
        assert_eq!(sys.dpu_buffer(1, c).unwrap()[..2], [12, 13]);
        // A per-DPU slab never collapses: zeroing fills it in place, and a
        // broadcast over it writes every stride.
        sys.zero_buffer(a).unwrap();
        assert_eq!(sys.stored_len(a), 8 * n);
        assert_eq!(contents(&sys, a), [0; 32]);
        sys.broadcast_i32(a, &[7, 7]).unwrap();
        assert_eq!(sys.stored_len(a), 8 * n);
        assert_eq!(sys.dpu_buffer(n - 1, a).unwrap()[..3], [7, 7, 0]);
        // A zero-chunk scatter writes nothing and expands nothing.
        let d = sys.alloc_buffer(8).unwrap();
        sys.scatter_i32(d, &[], 0).unwrap();
        assert_eq!(sys.stored_len(d), 8);
    }

    #[test]
    fn an_expanding_output_keeps_its_broadcast_contents() {
        // A launch accumulating into (or aliasing) a replicated buffer must
        // see the broadcast image on every DPU after the expansion.
        let mut sys = small_system();
        let a = sys.alloc_buffer(4).unwrap();
        sys.broadcast_i32(a, &[1, 2, 3, 4]).unwrap();
        let scan = KernelSpec::new(
            DpuKernelKind::Scan {
                op: BinOp::Add,
                len: 4,
            },
            vec![a],
            a,
        );
        sys.launch(&scan).unwrap();
        assert_eq!(sys.stored_len(a), 4 * sys.num_dpus());
        for d in 0..sys.num_dpus() {
            assert_eq!(sys.dpu_buffer(d, a).unwrap(), &[1, 3, 6, 10]);
        }
    }

    #[test]
    fn a_faulted_transfer_leaves_the_storage_form_as_it_was() {
        let fault = cinm_runtime::FaultConfig::seeded(1).with_transfer_timeout_rate(1.0);
        let mut sys = faulty_system(fault);
        let a = sys.alloc_buffer(4).unwrap();
        assert!(sys.broadcast_i32(a, &[1, 2, 3, 4]).is_err());
        assert!(sys.scatter_i32(a, &[5; 16], 4).is_err());
        assert_eq!(sys.stored_len(a), 4);
        assert_eq!(contents(&sys, a), [0; 16]);
        assert_eq!(sys.stats().host_to_dpu_bytes, 0);
        // The clone the recovery layer takes over with copies what is
        // stored, not the replicated volume.
        let clean = sys.fault_free_clone();
        assert_eq!(clean.stored_len(a), 4);
    }

    /// A 4-DPU system with one 8-element buffer a 32-element image was
    /// scattered into through the shared form, and the image.
    fn adopted() -> (UpmemSystem, BufferId, HostImage, Vec<i32>) {
        let mut sys = small_system();
        let buf = sys.alloc_buffer(8).unwrap();
        let data: Vec<i32> = (0..32).map(|i| i * 5 % 17 - 8).collect();
        let mut image = HostImage::from(data.clone());
        sys.scatter_image(buf, &mut image, 8).unwrap();
        (sys, buf, image, data)
    }

    /// Whether the slab and `image` are one allocation.
    fn is_one_image(sys: &UpmemSystem, buf: BufferId, image: &HostImage) -> bool {
        std::ptr::eq(sys.slabs[buf as usize].data.as_ptr(), image.as_ptr())
    }

    #[test]
    fn a_cold_exact_transfer_hands_the_image_over_and_bills_the_copy() {
        let (mut sys, buf, image, data) = adopted();
        let mut copying = small_system();
        copying.alloc_buffer(8).unwrap();
        let t = copying.scatter_i32(buf, &data, 8).unwrap();
        assert!(image.is_shared() && is_one_image(&sys, buf, &image));
        assert_eq!((contents(&sys, buf), &image[..]), (data.clone(), &data[..]));
        assert_eq!(sys.stats(), copying.stats());
        assert_eq!(sys.stats().host_to_dpu_bytes, t.bytes);
        // A cold gather of the whole slab adopts; one into an image that owns
        // room for it copies, round after round.
        let mut cold = HostImage::default();
        let mut warm = HostImage::from(vec![7; 40]);
        let t_cold = sys.gather_image(buf, 8, 32, &mut cold).unwrap();
        let t_warm = sys.gather_image(buf, 8, 32, &mut warm).unwrap();
        let (want, t_copy) = copying.gather_i32(buf, 8).unwrap();
        copying.gather_i32(buf, 8).unwrap();
        assert!(cold.is_shared() && is_one_image(&sys, buf, &cold));
        assert!(!warm.is_shared() && !is_one_image(&sys, buf, &warm));
        assert_eq!((&cold[..], &warm[..]), (&want[..], &want[..]));
        assert_eq!((t_cold, t_warm), (t_copy, t_copy));
        assert_eq!(sys.stats(), copying.stats());
        // The last holder left simply owns the vector again.
        drop(cold);
        sys.free_buffer(buf).unwrap();
        assert_eq!(image.into_vec(), data);
    }

    #[test]
    fn a_device_write_to_an_adopted_slab_leaves_the_host_image_alone() {
        type Write = fn(&mut dyn DpuSystem, BufferId);
        let writes: [(&str, Write); 4] = [
            ("aliased launch", |sys, a| {
                let scan = DpuKernelKind::Scan {
                    op: BinOp::Add,
                    len: 8,
                };
                sys.launch(&KernelSpec::new(scan, vec![a], a)).unwrap();
            }),
            ("second scatter", |sys, a| {
                sys.scatter_i32(a, &[3; 32], 8).unwrap();
            }),
            ("partial scatter", |sys, a| {
                sys.scatter_i32(a, &[4; 10], 3).unwrap();
            }),
            ("broadcast", |sys, a| {
                sys.broadcast_i32(a, &[9, 9]).unwrap();
            }),
        ];
        for (what, write) in writes {
            let (mut sys, buf, image, data) = adopted();
            let mut naive = crate::naive::NaiveUpmemSystem::new(sys.config().clone());
            naive.alloc_buffer(8).unwrap();
            naive.scatter_i32(buf, &data, 8).unwrap();
            write(&mut sys, buf);
            write(&mut naive, buf);
            assert_eq!(&image[..], &data[..], "{what}: the host image");
            assert!(!is_one_image(&sys, buf, &image), "{what}");
            assert_eq!(
                sys.gather_i32(buf, 8).unwrap(),
                naive.gather_i32(buf, 8).unwrap(),
                "{what}: the slab"
            );
            assert_eq!(sys.stats(), naive.stats(), "{what}");
        }
        // Zeroing a shared slab drops back to the fresh form without touching
        // (or cloning) the image; a slab that owns its storage keeps it.
        let (mut sys, buf, image, data) = adopted();
        sys.zero_buffer(buf).unwrap();
        assert_eq!(sys.stored_len(buf), 8);
        assert_eq!(contents(&sys, buf), [0; 32]);
        assert_eq!(&image[..], &data[..]);
        sys.scatter_i32(buf, &data, 8).unwrap();
        sys.zero_buffer(buf).unwrap();
        assert_eq!(sys.stored_len(buf), 32);
        // The host side detaches by replacing: its storage is new, the
        // slab's is what it was.
        let (sys, buf, mut image, data) = adopted();
        image.overwrite().clear();
        image.overwrite().extend_from_slice(&[1; 32]);
        assert_eq!(contents(&sys, buf), data);
        assert!(!image.is_shared());
    }

    #[test]
    fn a_clone_of_a_system_holding_shared_images_diverges_independently() {
        let (mut sys, buf, image, data) = adopted();
        let mut twin = sys.clone();
        twin.scatter_i32(buf, &[1; 10], 2).unwrap();
        assert_eq!(contents(&sys, buf), data);
        sys.broadcast_i32(buf, &[6]).unwrap();
        assert_eq!(twin.dpu_buffer(1, buf).unwrap()[..3], [1, 1, data[10]]);
        assert_eq!(sys.dpu_buffer(1, buf).unwrap()[..3], [6, data[9], data[10]]);
        assert_eq!(&image[..], &data[..]);
    }

    #[test]
    fn a_faulted_shared_transfer_adopts_nothing_and_its_retry_matches_the_borrowed_form() {
        // Seed 5 at 50 %: the first draws time out, a later one passes.
        let fault = cinm_runtime::FaultConfig::seeded(5).with_transfer_timeout_rate(0.5);
        let retry = cinm_runtime::RetryPolicy {
            max_attempts: 64,
            ..Default::default()
        };
        let data: Vec<i32> = (0..32).collect();
        let run = |shared: bool| {
            let mut sys = faulty_system(fault.clone());
            let buf = sys.alloc_buffer(8).unwrap();
            let mut image = HostImage::from(data.clone());
            let mut out = HostImage::default();
            let mut faults = cinm_runtime::FaultStats::default();
            let mut faulted = 0;
            let mut step = |sys: &mut UpmemSystem, gather: bool| {
                let (result, log) = retry.run(SimError::is_transient_fault, || {
                    let before = (contents(sys, buf), sys.stored_len(buf), *sys.stats());
                    let r = match (gather, shared) {
                        (false, true) => sys.scatter_image(buf, &mut image, 8),
                        (false, false) => sys.scatter_i32(buf, &image, 8),
                        (true, true) => sys.gather_image(buf, 8, 32, &mut out),
                        (true, false) => sys.gather_i32_into(buf, 8, out.overwrite()),
                    };
                    if r.is_err() {
                        faulted += 1;
                        let after = (contents(sys, buf), sys.stored_len(buf), *sys.stats());
                        assert_eq!(before, after, "a faulted transfer applied something");
                        assert!(!image.is_shared() || gather);
                        assert!(!out.is_shared() && out.is_empty());
                    }
                    r
                });
                faults.absorb(&log);
                result.unwrap()
            };
            step(&mut sys, false);
            step(&mut sys, true);
            assert_eq!((image.is_shared(), out.is_shared()), (shared, shared));
            let events = sys.fault_injector().unwrap().events();
            (out.into_vec(), *sys.stats(), faults, events, faulted)
        };
        let (shared, borrowed) = (run(true), run(false));
        assert_eq!(shared, borrowed);
        assert_eq!(shared.0, data);
        assert!(shared.4 > 0, "the schedule should fault at least once");
    }

    #[test]
    fn inexact_shared_transfers_copy_and_match_the_naive_reference() {
        let data: Vec<i32> = (0..32).map(|i| i * 3 % 11 - 5).collect();
        // (scatter chunk, gather chunk, logical length, target expanded first)
        let cases = [
            (8, 8, 29, false), // ragged tail
            (5, 5, 20, false), // chunk < elems_per_dpu
            (8, 8, 32, true),  // exact, but the slab already owns its storage
            (8, 3, 12, true),  // gathered chunk < elems_per_dpu
        ];
        for (chunk, gchunk, len, expanded) in cases {
            let case = format!("chunk {chunk}/{gchunk}, len {len}, expanded {expanded}");
            let mut sys = small_system();
            let mut naive = crate::naive::NaiveUpmemSystem::new(sys.config().clone());
            let src = data[..len].to_vec();
            let buf = sys.alloc_buffer(8).unwrap();
            naive.alloc_buffer(8).unwrap();
            if expanded {
                sys.scatter_i32(buf, &[1; 32], 8).unwrap();
                naive.scatter_i32(buf, &[1; 32], 8).unwrap();
            }
            let mut image = HostImage::from(src.clone());
            sys.scatter_image(buf, &mut image, chunk).unwrap();
            naive.scatter_i32(buf, &src, chunk).unwrap();
            assert!(!image.is_shared(), "{case}");
            assert_eq!(sys.stored_len(buf), 32, "{case}");
            for d in 0..4 {
                assert_eq!(
                    sys.dpu_buffer(d, buf).unwrap(),
                    naive.dpu_buffer(d, buf).unwrap()
                );
            }
            let mut out = HostImage::default();
            sys.gather_image(buf, gchunk, len, &mut out).unwrap();
            let (mut want, _) = naive.gather_i32(buf, gchunk).unwrap();
            want.truncate(len);
            // Only the whole tight grid is the slab's image.
            assert_eq!(out.is_shared(), (gchunk, len) == (8, 32), "{case}");
            assert_eq!(&out[..], &want[..], "{case}");
            assert_eq!(sys.stats(), naive.stats(), "{case}");
        }
    }

    #[test]
    fn broadcast_cost_is_rank_parallel_and_bytes_are_accounted_per_dpu() {
        // The documented model: every DPU's MRAM image crosses the host
        // interface (bytes scale with num_dpus), but ranks replicate in
        // parallel, so the *time* is one rank-sized image through one rank's
        // channel — independent of the number of ranks.
        let data = vec![7i32; 1024];
        let mut times = Vec::new();
        for ranks in [1usize, 4, 16] {
            let mut sys = UpmemSystem::new(UpmemConfig::with_ranks(ranks));
            let buf = sys.alloc_buffer(1024).unwrap();
            let t = sys.broadcast_i32(buf, &data).unwrap();
            assert_eq!(t.bytes, (data.len() * 4 * sys.num_dpus()) as u64);
            assert_eq!(sys.stats().host_to_dpu_bytes, t.bytes);
            assert!((sys.stats().host_to_dpu_seconds - t.seconds).abs() < 1e-18);
            let cfg = sys.config();
            let expected = cfg.host_transfer_latency_s
                + (data.len() * 4 * cfg.dpus_per_rank) as f64
                    / cfg.host_bandwidth_per_rank_bytes_per_s;
            assert!((t.seconds - expected).abs() < 1e-15, "ranks = {ranks}");
            times.push(t.seconds);
        }
        assert!(
            times.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-15),
            "{times:?}"
        );
    }

    #[test]
    fn gemm_kernel_is_functionally_correct() {
        let mut sys = small_system();
        let a = sys.alloc_buffer(4).unwrap(); // 2x2
        let b = sys.alloc_buffer(4).unwrap(); // 2x2
        let c = sys.alloc_buffer(4).unwrap();
        sys.broadcast_i32(a, &[1, 2, 3, 4]).unwrap();
        sys.broadcast_i32(b, &[5, 6, 7, 8]).unwrap();
        let spec = KernelSpec::new(DpuKernelKind::Gemm { m: 2, k: 2, n: 2 }, vec![a, b], c);
        let stats = sys.launch(&spec).unwrap();
        assert!(stats.seconds > 0.0);
        // [[1,2],[3,4]] x [[5,6],[7,8]] = [[19,22],[43,50]]
        assert_eq!(sys.dpu_buffer(0, c).unwrap(), &[19, 22, 43, 50]);
        assert_eq!(sys.dpu_buffer(3, c).unwrap(), &[19, 22, 43, 50]);
    }

    #[test]
    fn gemm_accumulates_into_output() {
        let mut sys = small_system();
        let a = sys.alloc_buffer(4).unwrap();
        let b = sys.alloc_buffer(4).unwrap();
        let c = sys.alloc_buffer(4).unwrap();
        sys.broadcast_i32(a, &[1, 0, 0, 1]).unwrap(); // identity
        sys.broadcast_i32(b, &[1, 2, 3, 4]).unwrap();
        sys.broadcast_i32(c, &[10, 10, 10, 10]).unwrap();
        let spec = KernelSpec::new(DpuKernelKind::Gemm { m: 2, k: 2, n: 2 }, vec![a, b], c);
        sys.launch(&spec).unwrap();
        assert_eq!(sys.dpu_buffer(0, c).unwrap(), &[11, 12, 13, 14]);
    }

    #[test]
    fn launch_with_output_aliasing_an_input_reads_pre_launch_state() {
        let mut sys = small_system();
        let a = sys.alloc_buffer(4).unwrap();
        sys.broadcast_i32(a, &[1, 2, 3, 4]).unwrap();
        // scan over itself: output[i] = sum of pre-launch a[0..=i]
        let spec = KernelSpec::new(
            DpuKernelKind::Scan {
                op: BinOp::Add,
                len: 4,
            },
            vec![a],
            a,
        );
        sys.launch(&spec).unwrap();
        assert_eq!(sys.dpu_buffer(0, a).unwrap(), &[1, 3, 6, 10]);
    }

    #[test]
    fn an_aliased_launch_on_a_broadcast_reads_pre_launch_state_for_all_thread_counts() {
        // The broadcast is stored once; the aliased scan expands it per DPU
        // while still reading every DPU's pre-launch copy.
        for threads in [1usize, 2, 8, 0] {
            let mut cfg = UpmemConfig::with_ranks(1).with_host_threads(threads);
            cfg.dpus_per_rank = 4;
            let mut sys = UpmemSystem::new(cfg);
            let a = sys.alloc_buffer(4).unwrap();
            sys.broadcast_i32(a, &[1, 2, 3, 4]).unwrap();
            let spec = KernelSpec::new(
                DpuKernelKind::Scan {
                    op: BinOp::Add,
                    len: 4,
                },
                vec![a],
                a,
            );
            sys.launch(&spec).unwrap();
            let (gathered, _) = sys.gather_i32(a, 4).unwrap();
            assert_eq!(gathered, [1, 3, 6, 10].repeat(4), "threads = {threads}");
        }
    }

    #[test]
    fn elementwise_reduce_scan_histogram_select() {
        let mut sys = small_system();
        let a = sys.alloc_buffer(8).unwrap();
        let b = sys.alloc_buffer(8).unwrap();
        let out = sys.alloc_buffer(9).unwrap();
        sys.broadcast_i32(a, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        sys.broadcast_i32(b, &[10, 20, 30, 40, 50, 60, 70, 80])
            .unwrap();

        let add = KernelSpec::new(
            DpuKernelKind::Elementwise {
                op: BinOp::Add,
                len: 8,
            },
            vec![a, b],
            out,
        );
        sys.launch(&add).unwrap();
        assert_eq!(
            sys.dpu_buffer(0, out).unwrap()[..8],
            [11, 22, 33, 44, 55, 66, 77, 88]
        );

        let red = KernelSpec::new(
            DpuKernelKind::Reduce {
                op: BinOp::Add,
                len: 8,
            },
            vec![a],
            out,
        );
        sys.launch(&red).unwrap();
        assert_eq!(sys.dpu_buffer(0, out).unwrap()[0], 36);

        let scan = KernelSpec::new(
            DpuKernelKind::Scan {
                op: BinOp::Add,
                len: 8,
            },
            vec![a],
            out,
        );
        sys.launch(&scan).unwrap();
        assert_eq!(
            sys.dpu_buffer(0, out).unwrap()[..8],
            [1, 3, 6, 10, 15, 21, 28, 36]
        );

        let hist = KernelSpec::new(
            DpuKernelKind::Histogram {
                bins: 4,
                len: 8,
                max_value: 8,
            },
            vec![a],
            out,
        );
        sys.launch(&hist).unwrap();
        assert_eq!(sys.dpu_buffer(0, out).unwrap()[..4], [1, 2, 2, 3]);

        let sel = KernelSpec::new(
            DpuKernelKind::Select {
                len: 8,
                threshold: 5,
            },
            vec![a],
            out,
        );
        sys.launch(&sel).unwrap();
        let o = sys.dpu_buffer(0, out).unwrap();
        assert_eq!(o[0], 3);
        assert_eq!(&o[1..4], &[6, 7, 8]);
    }

    #[test]
    fn bfs_step_expands_frontier() {
        let mut sys = small_system();
        // 4 vertices per DPU, chain 0 -> 1 -> 2 -> 3.
        let row = sys.alloc_buffer(5).unwrap();
        let col = sys.alloc_buffer(4).unwrap();
        let frontier = sys.alloc_buffer(4).unwrap();
        let next = sys.alloc_buffer(4).unwrap();
        sys.broadcast_i32(row, &[0, 1, 2, 3, 3]).unwrap();
        sys.broadcast_i32(col, &[1, 2, 3, 0]).unwrap();
        sys.broadcast_i32(frontier, &[1, 0, 0, 0]).unwrap();
        let spec = KernelSpec::new(
            DpuKernelKind::BfsStep {
                vertices: 4,
                avg_degree: 1,
            },
            vec![row, col, frontier],
            next,
        );
        sys.launch(&spec).unwrap();
        assert_eq!(sys.dpu_buffer(0, next).unwrap(), &[0, 1, 0, 0]);
    }

    #[test]
    fn host_threads_do_not_change_results_or_stats() {
        let data: Vec<i32> = (0..256).map(|i| i * 31 % 97 - 40).collect();
        let run = |threads: usize| {
            let mut cfg = UpmemConfig::with_ranks(1).with_host_threads(threads);
            cfg.dpus_per_rank = 8;
            let mut sys = UpmemSystem::new(cfg);
            let a = sys.alloc_buffer(32).unwrap();
            let b = sys.alloc_buffer(32).unwrap();
            let c = sys.alloc_buffer(32).unwrap();
            sys.scatter_i32(a, &data, 32).unwrap();
            sys.broadcast_i32(b, &data[..32]).unwrap();
            let spec = KernelSpec::new(
                DpuKernelKind::Elementwise {
                    op: BinOp::Mul,
                    len: 32,
                },
                vec![a, b],
                c,
            );
            sys.launch(&spec).unwrap();
            let (out, _) = sys.gather_i32(c, 32).unwrap();
            (out, *sys.stats())
        };
        let (ref_out, ref_stats) = run(1);
        for threads in [2usize, 3, 7, 0] {
            let (out, stats) = run(threads);
            assert_eq!(out, ref_out, "threads = {threads}");
            assert_eq!(stats, ref_stats, "threads = {threads}");
        }
    }

    #[test]
    fn locality_optimization_reduces_gemm_time() {
        let mut sys = small_system();
        let a = sys.alloc_buffer(64 * 64).unwrap();
        let b = sys.alloc_buffer(64 * 64).unwrap();
        let c = sys.alloc_buffer(64 * 64).unwrap();
        let base = KernelSpec::new(
            DpuKernelKind::Gemm {
                m: 64,
                k: 64,
                n: 64,
            },
            vec![a, b],
            c,
        );
        let opt = base
            .clone()
            .with_locality_optimization()
            .with_wram_tile(4096);
        let t_base = sys.launch(&base).unwrap().seconds;
        let t_opt = sys.launch(&opt).unwrap().seconds;
        assert!(
            t_opt < t_base,
            "optimized {t_opt} should beat baseline {t_base}"
        );
        // The gain should be substantial (paper: 40-47 %) but not absurd.
        let gain = 1.0 - t_opt / t_base;
        assert!(
            gain > 0.2 && gain < 0.8,
            "gain {gain} out of expected range"
        );
    }

    #[test]
    fn more_tasklets_is_never_slower() {
        let mut sys = small_system();
        let a = sys.alloc_buffer(4096).unwrap();
        let b = sys.alloc_buffer(4096).unwrap();
        let c = sys.alloc_buffer(4096).unwrap();
        let spec1 = KernelSpec::new(
            DpuKernelKind::Elementwise {
                op: BinOp::Add,
                len: 4096,
            },
            vec![a, b],
            c,
        )
        .with_tasklets(1);
        let spec16 = spec1.clone().with_tasklets(16);
        let t1 = sys.launch(&spec1).unwrap().seconds;
        let t16 = sys.launch(&spec16).unwrap().seconds;
        assert!(t16 <= t1);
    }

    #[test]
    fn launch_rejects_time_series_window_larger_than_input() {
        let mut sys = small_system();
        let a = sys.alloc_buffer(4).unwrap();
        let out = sys.alloc_buffer(4).unwrap();
        sys.broadcast_i32(a, &[1, 2, 3, 4]).unwrap();
        let spec = KernelSpec::new(
            DpuKernelKind::TimeSeries { len: 4, window: 8 },
            vec![a],
            out,
        );
        let err = sys.launch(&spec).unwrap_err();
        assert!(err.message().contains("window"));
        // The system must stay fully usable (no state was touched).
        assert_eq!(sys.dpu_buffer(0, a).unwrap(), &[1, 2, 3, 4]);
        let (back, _) = sys.gather_i32(out, 4).unwrap();
        assert_eq!(back.len(), 4 * sys.num_dpus());
    }

    #[test]
    fn launch_validates_buffer_sizes() {
        let mut sys = small_system();
        let a = sys.alloc_buffer(4).unwrap();
        let b = sys.alloc_buffer(4).unwrap();
        let c = sys.alloc_buffer(1).unwrap();
        let spec = KernelSpec::new(DpuKernelKind::Gemm { m: 2, k: 2, n: 2 }, vec![a, b], c);
        let err = sys.launch(&spec).unwrap_err();
        assert!(err.message().contains("output"));
    }

    #[test]
    fn launch_rejects_hand_built_specs_with_wrong_arity() {
        let mut sys = small_system();
        let a = sys.alloc_buffer(8).unwrap();
        // Bypass the KernelSpec::new arity assert via the public fields.
        let mut spec = KernelSpec::new(
            DpuKernelKind::Reduce {
                op: BinOp::Add,
                len: 8,
            },
            vec![a],
            a,
        );
        spec.inputs.clear();
        let err = sys.launch(&spec).unwrap_err();
        assert!(err.message().contains("expects 1 inputs"), "{err}");
        assert_eq!(sys.stats().launches, 0);
    }

    use crate::kernel::{FusedArg, FusedStage};

    #[test]
    fn fused_chain_matches_separate_elementwise_launches_and_costs_less() {
        // The BFS epilogue chain: nv = visited ^ ones; fresh = raw & nv;
        // vnext = visited | raw — three launches unfused, one fused.
        let data_raw: Vec<i32> = (0..32).map(|i| i * 17 % 13 - 6).collect();
        let data_vis: Vec<i32> = (0..32).map(|i| i * 11 % 7 - 3).collect();
        let ones = vec![1i32; 32];

        let setup = || {
            let mut sys = small_system();
            let raw = sys.alloc_buffer(8).unwrap();
            let vis = sys.alloc_buffer(8).unwrap();
            let one = sys.alloc_buffer(8).unwrap();
            let nv = sys.alloc_buffer(8).unwrap();
            let fresh = sys.alloc_buffer(8).unwrap();
            let vnext = sys.alloc_buffer(8).unwrap();
            sys.scatter_i32(raw, &data_raw, 8).unwrap();
            sys.scatter_i32(vis, &data_vis, 8).unwrap();
            sys.scatter_i32(one, &ones, 8).unwrap();
            sys.reset_stats();
            (sys, raw, vis, one, nv, fresh, vnext)
        };

        let (mut sep, raw, vis, one, nv, fresh, vnext) = setup();
        let ew =
            |op, a, b, c| KernelSpec::new(DpuKernelKind::Elementwise { op, len: 8 }, vec![a, b], c);
        sep.launch(&ew(BinOp::Xor, vis, one, nv)).unwrap();
        sep.launch(&ew(BinOp::And, raw, nv, fresh)).unwrap();
        sep.launch(&ew(BinOp::Or, vis, raw, vnext)).unwrap();

        let (mut fus, raw2, vis2, one2, nv2, fresh2, vnext2) = setup();
        assert_eq!((raw, vis, one), (raw2, vis2, one2));
        let spec = KernelSpec::new(
            DpuKernelKind::FusedElementwise {
                stages: vec![
                    FusedStage {
                        op: BinOp::Xor,
                        lhs: FusedArg::Input(1),
                        rhs: FusedArg::Input(2),
                    },
                    FusedStage {
                        op: BinOp::And,
                        lhs: FusedArg::Input(0),
                        rhs: FusedArg::Stage(0),
                    },
                    FusedStage {
                        op: BinOp::Or,
                        lhs: FusedArg::Input(1),
                        rhs: FusedArg::Input(0),
                    },
                ],
                len: 8,
                arity: 3,
            },
            vec![raw2, vis2, one2],
            nv2,
        )
        .with_extra_outputs(vec![fresh2, vnext2]);
        fus.launch(&spec).unwrap();

        for (a, b) in [(nv, nv2), (fresh, fresh2), (vnext, vnext2)] {
            assert_eq!(contents(&sep, a), contents(&fus, b));
        }
        assert_eq!(sep.stats().launches, 3);
        assert_eq!(fus.stats().launches, 1);
        assert!(
            fus.stats().kernel_seconds < sep.stats().kernel_seconds,
            "fused {} should beat separate {}",
            fus.stats().kernel_seconds,
            sep.stats().kernel_seconds
        );
    }

    #[test]
    fn a_lent_fused_launch_matches_the_copying_scatter_for_every_stride_shape() {
        // 4 DPUs × 5 elements: tight (20), one partial DPU (13) and empty
        // trailing DPUs (6); two stages over a lent and a scattered input.
        for len in [20usize, 13, 6] {
            let a: Vec<i32> = (0..len as i32).map(|i| i * 7 % 11 - 5).collect();
            let b: Vec<i32> = (0..len as i32).map(|i| i * 5 % 9 - 4).collect();
            let run = |lend: bool| {
                let mut sys = small_system();
                let [x, y, s0, s1] = [(); 4].map(|_| sys.alloc_buffer(5).unwrap());
                if lend {
                    sys.scatter_lent(x, &a, 5).unwrap();
                } else {
                    sys.scatter_i32(x, &a, 5).unwrap();
                }
                sys.scatter_i32(y, &b, 5).unwrap();
                let spec = KernelSpec::new(
                    DpuKernelKind::FusedElementwise {
                        stages: vec![
                            FusedStage {
                                op: BinOp::Sub,
                                lhs: FusedArg::Input(0),
                                rhs: FusedArg::Input(1),
                            },
                            FusedStage {
                                op: BinOp::Mul,
                                lhs: FusedArg::Stage(0),
                                rhs: FusedArg::Input(0),
                            },
                        ],
                        len: 5,
                        arity: 2,
                    },
                    vec![x, y],
                    s0,
                )
                .with_extra_outputs(vec![s1]);
                let lent = [lend.then_some(&a[..]), None];
                sys.launch_lent(&spec, &lent, None).unwrap();
                (contents(&sys, s0), contents(&sys, s1), *sys.stats())
            };
            assert_eq!(run(true), run(false), "len {len}");
        }
    }

    #[test]
    fn fused_launch_validation_rejects_malformed_specs() {
        let mut sys = small_system();
        let a = sys.alloc_buffer(8).unwrap();
        let b = sys.alloc_buffer(8).unwrap();
        let c = sys.alloc_buffer(8).unwrap();
        let stage = |op, lhs, rhs| FusedStage { op, lhs, rhs };
        let fused = |stages: Vec<FusedStage>, arity| DpuKernelKind::FusedElementwise {
            stages,
            len: 8,
            arity,
        };
        let s0 = stage(BinOp::Add, FusedArg::Input(0), FusedArg::Input(1));

        // Output aliases an input.
        let spec = KernelSpec::new(fused(vec![s0], 2), vec![a, b], a);
        let err = sys.launch(&spec).unwrap_err();
        assert!(err.message().contains("aliases an input"), "{err}");

        // Repeated outputs.
        let two = vec![
            s0,
            stage(BinOp::Mul, FusedArg::Stage(0), FusedArg::Input(0)),
        ];
        let mut spec = KernelSpec::new(fused(two.clone(), 2), vec![a, b], c);
        spec.extra_outputs = vec![c];
        let err = sys.launch(&spec).unwrap_err();
        assert!(err.message().contains("must be distinct"), "{err}");

        // Extra-output count must match the stage count.
        let spec = KernelSpec::new(fused(two, 2), vec![a, b], c);
        let err = sys.launch(&spec).unwrap_err();
        assert!(err.message().contains("produces 2 outputs"), "{err}");

        // A stage may only reference earlier stages.
        let bad = vec![stage(BinOp::Add, FusedArg::Stage(0), FusedArg::Input(0))];
        let spec = KernelSpec::new(fused(bad, 2), vec![a, b], c);
        let err = sys.launch(&spec).unwrap_err();
        assert!(err.message().contains("invalid operand"), "{err}");

        // A non-fused kernel must not carry extra outputs.
        let mut spec = KernelSpec::new(
            DpuKernelKind::Elementwise {
                op: BinOp::Add,
                len: 8,
            },
            vec![a, b],
            c,
        );
        spec.extra_outputs = vec![b];
        let err = sys.launch(&spec).unwrap_err();
        assert!(err.message().contains("produces 1 outputs"), "{err}");

        // Nothing was applied by any of the rejected launches.
        assert_eq!(sys.stats().launches, 0);
    }

    #[test]
    fn naive_and_slab_agree_on_fused_launches() {
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 4;
        let mut naive = crate::naive::NaiveUpmemSystem::new(cfg.clone());
        let mut slab = UpmemSystem::new(cfg);
        let data: Vec<i32> = (0..64).map(|i| i * 7 % 23 - 11).collect();
        let spec_for = |bufs: &[BufferId]| {
            KernelSpec::new(
                DpuKernelKind::FusedElementwise {
                    stages: vec![
                        FusedStage {
                            op: BinOp::Add,
                            lhs: FusedArg::Input(0),
                            rhs: FusedArg::Input(1),
                        },
                        FusedStage {
                            op: BinOp::Mul,
                            lhs: FusedArg::Stage(0),
                            rhs: FusedArg::Input(0),
                        },
                    ],
                    len: 16,
                    arity: 2,
                },
                vec![bufs[0], bufs[1]],
                bufs[2],
            )
            .with_extra_outputs(vec![bufs[3]])
        };
        for sys in [
            &mut naive as &mut dyn DpuSystem,
            &mut slab as &mut dyn DpuSystem,
        ] {
            let bufs: Vec<BufferId> = (0..4).map(|_| sys.alloc_buffer(16).unwrap()).collect();
            sys.scatter_i32(bufs[0], &data, 16).unwrap();
            sys.broadcast_i32(bufs[1], &data[..16]).unwrap();
            sys.launch(&spec_for(&bufs)).unwrap();
        }
        for buf in [2u32, 3] {
            let (from_naive, _) = naive.gather_i32(buf, 16).unwrap();
            let (from_slab, _) = slab.gather_i32(buf, 16).unwrap();
            assert_eq!(from_naive, from_slab, "buffer {buf}");
        }
        assert_eq!(naive.stats(), slab.stats());
    }

    #[test]
    fn a_launch_reading_both_fused_outputs_matches_the_naive_reference_for_all_thread_counts() {
        let data: Vec<i32> = (0..64).map(|i| i * 19 % 41 - 20).collect();
        let fused = KernelSpec::new(
            DpuKernelKind::FusedElementwise {
                stages: vec![
                    FusedStage {
                        op: BinOp::Mul,
                        lhs: FusedArg::Input(0),
                        rhs: FusedArg::Input(1),
                    },
                    FusedStage {
                        op: BinOp::Add,
                        lhs: FusedArg::Stage(0),
                        rhs: FusedArg::Input(0),
                    },
                ],
                len: 16,
                arity: 2,
            },
            vec![0, 1],
            2,
        )
        .with_extra_outputs(vec![3]);
        // Reads both outputs of the fused launch, incl. its extra output.
        let add = KernelSpec::new(
            DpuKernelKind::Elementwise {
                op: BinOp::Add,
                len: 16,
            },
            vec![2, 3],
            4,
        );
        let run = |sys: &mut dyn DpuSystem| {
            for _ in 0..5 {
                sys.alloc_buffer(16).unwrap();
            }
            sys.scatter_i32(0, &data, 16).unwrap();
            sys.broadcast_i32(1, &data[..16]).unwrap();
            sys.launch(&fused).unwrap();
            sys.launch(&add).unwrap();
            let (out, _) = sys.gather_i32(4, 16).unwrap();
            (out, *sys.stats())
        };

        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 4;
        let (ref_out, ref_stats) = run(&mut crate::naive::NaiveUpmemSystem::new(cfg.clone()));
        for threads in [1usize, 2, 8, 0] {
            let mut sys = UpmemSystem::new(cfg.clone().with_host_threads(threads));
            let (out, stats) = run(&mut sys);
            assert_eq!(out, ref_out, "threads = {threads}");
            assert_eq!(stats, ref_stats, "threads = {threads}");
        }
    }

    fn faulty_system(fault: cinm_runtime::FaultConfig) -> UpmemSystem {
        let mut cfg = UpmemConfig::with_ranks(1).with_fault(fault);
        cfg.dpus_per_rank = 4;
        UpmemSystem::new(cfg)
    }

    fn add_spec(a: BufferId, b: BufferId, c: BufferId) -> KernelSpec {
        KernelSpec::new(
            DpuKernelKind::Elementwise {
                op: BinOp::Add,
                len: 4,
            },
            vec![a, b],
            c,
        )
    }

    #[test]
    fn transient_launch_fault_is_transactional_and_retry_recovers_bit_identically() {
        // Rate 1.0: the first launch attempt always faults.
        let fault = cinm_runtime::FaultConfig::seeded(7).with_launch_fault_rate(1.0);
        let mut sys = faulty_system(fault);
        let mut oracle = small_system();
        let (a, b, c) = (
            sys.alloc_buffer(4).unwrap(),
            sys.alloc_buffer(4).unwrap(),
            sys.alloc_buffer(4).unwrap(),
        );
        for _ in 0..3 {
            oracle.alloc_buffer(4).unwrap();
        }
        sys.scatter_i32(a, &[1; 16], 4).unwrap();
        sys.scatter_i32(b, &[2; 16], 4).unwrap();
        oracle.scatter_i32(a, &[1; 16], 4).unwrap();
        oracle.scatter_i32(b, &[2; 16], 4).unwrap();

        let spec = add_spec(a, b, c);
        let err = sys.launch(&spec).unwrap_err();
        assert!(err.is_transient_fault(), "{err}");
        // Nothing was applied: no launch accounted, output untouched.
        assert_eq!(sys.stats().launches, 0);
        assert_eq!(sys.dpu_buffer(0, c).unwrap(), &[0; 4]);

        // With rate 1.0 every retry faults too; drain events until one
        // succeeds is impossible — so rebuild with a rate that faults only
        // the first draw for this seed instead.
        let fault = cinm_runtime::FaultConfig::seeded(7).with_launch_fault_rate(0.4);
        let mut sys = faulty_system(fault);
        for _ in 0..3 {
            sys.alloc_buffer(4).unwrap();
        }
        sys.scatter_i32(a, &[1; 16], 4).unwrap();
        sys.scatter_i32(b, &[2; 16], 4).unwrap();
        let mut attempts = 0;
        let stats = loop {
            attempts += 1;
            assert!(attempts <= 64, "launch never succeeded under 40% faults");
            match sys.launch(&spec) {
                Ok(s) => break s,
                Err(e) => assert!(e.is_transient_fault(), "{e}"),
            }
        };
        let oracle_stats = oracle.launch(&spec).unwrap();
        assert_eq!(stats, oracle_stats);
        assert_eq!(sys.stats().launches, 1);
        assert_eq!(
            contents(&sys, c),
            contents(&oracle, c),
            "recovered run must be bit-identical to fault-free"
        );
    }

    #[test]
    fn permanent_fault_kills_launches_but_memory_stays_readable() {
        let fault = cinm_runtime::FaultConfig::seeded(3).with_permanent_after_launches(1);
        let mut sys = faulty_system(fault);
        let (a, b, c) = (
            sys.alloc_buffer(4).unwrap(),
            sys.alloc_buffer(4).unwrap(),
            sys.alloc_buffer(4).unwrap(),
        );
        sys.scatter_i32(a, &[3; 16], 4).unwrap();
        sys.scatter_i32(b, &[4; 16], 4).unwrap();
        let spec = add_spec(a, b, c);
        sys.launch(&spec).unwrap(); // first launch is within budget
        for _ in 0..3 {
            let err = sys.launch(&spec).unwrap_err();
            assert!(err.is_permanent_fault(), "{err}");
        }
        assert_eq!(sys.stats().launches, 1);
        // The rescue path: resident data can still be gathered.
        let (out, _) = sys.gather_i32(c, 4).unwrap();
        assert_eq!(out, vec![7; 16]);
    }

    #[test]
    fn fault_schedule_is_deterministic_and_fault_free_clone_is_clean() {
        let fault = cinm_runtime::FaultConfig::seeded(11)
            .with_launch_fault_rate(0.3)
            .with_transfer_timeout_rate(0.2);
        let run = |fault: cinm_runtime::FaultConfig| {
            let mut sys = faulty_system(fault);
            let a = sys.alloc_buffer(4).unwrap();
            let b = sys.alloc_buffer(4).unwrap();
            let c = sys.alloc_buffer(4).unwrap();
            let mut outcomes = Vec::new();
            outcomes.push(sys.scatter_i32(a, &[1; 16], 4).is_ok());
            outcomes.push(sys.scatter_i32(b, &[2; 16], 4).is_ok());
            for _ in 0..8 {
                outcomes.push(sys.launch(&add_spec(a, b, c)).is_ok());
            }
            outcomes.push(sys.gather_i32(c, 4).is_ok());
            (outcomes, sys)
        };
        let (outcomes1, sys) = run(fault.clone());
        let (outcomes2, _) = run(fault);
        assert_eq!(outcomes1, outcomes2, "same seed => same schedule");
        assert!(outcomes1.contains(&false), "schedule should inject faults");

        // The host-takeover clone keeps buffers and stats but never faults.
        let mut clean = sys.fault_free_clone();
        assert!(clean.fault_injector().is_none());
        assert_eq!(clean.stats(), sys.stats());
        let a = 0 as BufferId;
        let b = 1 as BufferId;
        let c = 2 as BufferId;
        for _ in 0..32 {
            clean.launch(&add_spec(a, b, c)).unwrap();
        }
    }

    #[test]
    fn fault_free_config_never_creates_an_injector() {
        let sys = small_system();
        assert!(sys.fault_injector().is_none());
        let disabled = cinm_runtime::FaultConfig::seeded(5);
        let sys = faulty_system(disabled);
        assert!(
            sys.fault_injector().is_none(),
            "all-zero rates must not allocate an injector"
        );
    }
}
