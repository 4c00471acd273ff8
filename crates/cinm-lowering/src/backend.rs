//! Device back-ends: executing lowered programs on the simulators.
//!
//! The device dialects of the flow map one-to-one onto simulator runtime
//! calls. [`UpmemBackend`] plays the role of the UPMEM SDK runtime the
//! `upmem` dialect lowers to (allocate DPUs, scatter, launch, gather), and
//! [`CimBackend`] plays the role of the memristor device API the `memristor`
//! dialect lowers to (program tiles, issue MVMs, merge partials). Both are
//! functional *and* timed, so the experiment harness can check correctness
//! against the host reference and report the simulated execution times and
//! energies of the paper's figures.
//!
//! # Execution contexts (the allocation-free hot path)
//!
//! Both back-ends keep **persistent execution contexts** so repeated ops of
//! the same shape — the bench/experiment loops, or any serving workload —
//! skip steady-state heap allocation and re-preparation:
//!
//! * [`UpmemBackend`] caches its device buffers keyed by op geometry. A cache
//!   hit reuses the buffers of the previous same-shaped op: a broadcast
//!   input is fully overwritten by the op's broadcast, a scattered one is
//!   lent (the launch reads the caller's operand in place and the buffer is
//!   never read), and the output is functionally zeroed (untimed, exactly
//!   like a fresh `alloc_buffer`), so results, gathered bytes and simulated
//!   statistics are **bit-identical** to allocating per op — and per-DPU
//!   MRAM no longer grows with every op.
//! * [`CimBackend`] walks the crossbar schedule (a few integers, computed
//!   per op) and stages the weight block of each tile write in a reusable
//!   arena. Tile writes read their blocks from that arena, each band of MVMs
//!   ([`CrossbarAccelerator::mvm_band`]) reads its input rows in place from
//!   `A` and accumulates straight into `C`: nothing is allocated per MVM.
//!
//! Contexts never change what is simulated — only host-side allocation and
//! copying. `tests/properties.rs` asserts reused-context streams of ops
//! bit-identical to fresh per-op backends, and `tests/alloc_regression.rs`
//! asserts the underlying launch+MVM loop allocates nothing in steady state.
//!
//! # One command is the unit of fault atomicity
//!
//! Both back-ends issue every device command — a transfer, a launch, a tile
//! write, a band of MVMs — as one direct call under the backend's
//! [`RetryPolicy`]. Each command validates and draws its fault decisions
//! before it mutates anything, so a faulted command applies nothing and its
//! retry is bit-identical to a fault-free issue. An op that fails for good
//! (a permanent fault, an exhausted retry budget) stops at the failing
//! command; the layers above re-execute whole steps, which are idempotent.

use std::collections::HashMap;
use std::mem::take;

use cinm_runtime::{FaultStats, PoolHandle, RetryPolicy};
use cpu_sim::model::{CpuModel, OpCounts};
use memristor_sim::{BandTile, CimError, CimStats, CrossbarAccelerator, CrossbarConfig};
use upmem_sim::{
    validate_kernel_shape, BinOp, DpuKernelKind, KernelSpec, SimError, SystemStats, UpmemConfig,
    UpmemSystem,
};

use crate::cim_schedule::{CimSchedule, SECONDS_PER_COMMAND};
use crate::cnm_op::{CnmGeometry, CnmOp, Command, KernelCodegen, MramLayout, OutputLayout};

/// Merges the two `host_threads` knobs (simulator config and run options):
/// `0` means "all cores" and wins; otherwise the larger explicit request
/// wins, so a default of `1` on either side never lowers the other.
fn effective_host_threads(config: usize, options: usize) -> usize {
    if config == 0 || options == 0 {
        0
    } else {
        config.max(options)
    }
}

/// Merges the two pool handles (simulator config and run options): an
/// explicitly attached (non-global) pool on the options wins, otherwise the
/// configuration's handle is kept.
fn effective_pool(config: &PoolHandle, options: &PoolHandle) -> PoolHandle {
    if options.is_global() {
        config.clone()
    } else {
        options.clone()
    }
}

/// How the UPMEM code was generated — the locality optimisation, the code
/// generator's instruction overhead and an optional WRAM tile — and how the
/// host runs the simulation. The tasklets per DPU and the WRAM size are the
/// machine's ([`UpmemConfig`]); the backend derives each launch's
/// [`KernelSpec`] from both with the same rule the `cinm → cnm` lowering
/// annotates its launches with and the [`crate::CnmCostModel`] of an
/// [`crate::UpmemDevice`] prices.
#[derive(Debug, Clone)]
pub struct UpmemRunOptions {
    /// WRAM tiling + loop interchange (the `cinm-opt` configuration).
    pub locality_optimized: bool,
    /// Multiplier modelling a different code generator (e.g. the PrIM
    /// hand-written kernels); `1.0` for CINM output.
    pub instruction_overhead: f64,
    /// WRAM tile size override in elements (`None` = derived from WRAM size).
    pub wram_tile_elems: Option<usize>,
    /// Host worker threads for the functional simulation (`0` = all
    /// available cores, `1` = sequential). Applied to the simulator
    /// configuration by both constructors; changes only simulator wall-clock
    /// time, never results or simulated statistics.
    pub host_threads: usize,
    /// The worker pool running the functional simulation (applied to the
    /// simulator configuration by both constructors). Defaults to the
    /// process-global pool; the experiment harnesses construct one shared
    /// pool per sweep.
    pub pool: PoolHandle,
}

impl Default for UpmemRunOptions {
    fn default() -> Self {
        UpmemRunOptions {
            locality_optimized: false,
            instruction_overhead: 1.0,
            wram_tile_elems: None,
            host_threads: 1,
            pool: PoolHandle::global(),
        }
    }
}

impl UpmemRunOptions {
    /// The `cinm-opt` configuration.
    pub fn optimized() -> Self {
        UpmemRunOptions {
            locality_optimized: true,
            ..Default::default()
        }
    }

    /// Overrides the number of host worker threads (`0` = all cores).
    pub fn with_host_threads(mut self, host_threads: usize) -> Self {
        self.host_threads = host_threads;
        self
    }

    /// Attaches a shared worker pool.
    pub fn with_pool(mut self, pool: PoolHandle) -> Self {
        self.pool = pool;
        self
    }
}

/// Allocates one device buffer per entry of `lens` into `bufs` — all of them
/// or none: when one does not fit, the buffers already allocated are freed
/// again before the typed error is returned.
pub(crate) fn alloc_all(
    sys: &mut UpmemSystem,
    lens: &[usize],
    bufs: &mut [u32],
) -> Result<(), SimError> {
    for (i, &len) in lens.iter().enumerate() {
        match sys.alloc_buffer(len) {
            Ok(buf) => bufs[i] = buf,
            Err(e) => {
                for &buf in &bufs[..i] {
                    sys.free_buffer(buf).expect("live buffer");
                }
                return Err(e);
            }
        }
    }
    Ok(())
}

/// Maximum device buffers any UPMEM op uses (BFS: three inputs + output).
const MAX_OP_BUFFERS: usize = 4;

/// Cached device buffers of one op geometry: inputs first, output last.
#[derive(Debug, Clone, Copy)]
struct UpmemContext {
    bufs: [u32; MAX_OP_BUFFERS],
    n: usize,
}

impl UpmemContext {
    fn output(&self) -> u32 {
        self.bufs[self.n - 1]
    }
}

/// Runtime backend driving the UPMEM simulator.
#[derive(Debug)]
pub struct UpmemBackend {
    system: UpmemSystem,
    options: UpmemRunOptions,
    /// Persistent execution contexts: device buffers keyed by the op with
    /// its value parameters erased ([`CnmOp::erased`]) — two such ops use
    /// identical buffer geometry on a fixed grid (see the module docs —
    /// reuse is bit-identical to allocating per op).
    contexts: HashMap<CnmOp, UpmemContext>,
    /// Retry policy for transient injected faults (see
    /// [`try_op`](Self::try_op)).
    retry: RetryPolicy,
    /// Cumulative retry/backoff counters of this backend.
    fault_stats: FaultStats,
}

impl UpmemBackend {
    /// Creates a backend for a machine with the given number of DIMMs.
    pub fn new(ranks: usize, options: UpmemRunOptions) -> Self {
        let config = UpmemConfig::with_ranks(ranks)
            .with_host_threads(options.host_threads)
            .with_pool(options.pool.clone());
        UpmemBackend {
            system: UpmemSystem::new(config),
            options,
            contexts: HashMap::new(),
            retry: RetryPolicy::default(),
            fault_stats: FaultStats::default(),
        }
    }

    /// Creates a backend from an explicit configuration. The effective
    /// host-thread count is the larger of the configuration's and the
    /// options' knob, so neither side can silently lower an explicit choice;
    /// a dedicated pool attached to the options wins over the
    /// configuration's handle.
    pub fn with_config(config: UpmemConfig, options: UpmemRunOptions) -> Self {
        let threads = effective_host_threads(config.host_threads, options.host_threads);
        let pool = effective_pool(&config.pool, &options.pool);
        let config = config.with_host_threads(threads).with_pool(pool);
        UpmemBackend {
            system: UpmemSystem::new(config),
            options,
            contexts: HashMap::new(),
            retry: RetryPolicy::default(),
            fault_stats: FaultStats::default(),
        }
    }

    /// Returns the cached device buffers of an op, allocating them on first
    /// use. On a cache hit the output buffer is functionally zeroed —
    /// untimed, exactly like the fresh `alloc_buffer` it replaces — so
    /// accumulating kernels and partially-written outputs (select) observe
    /// fresh-buffer semantics, unless the op's output is `lent`: then no
    /// launch ever wrote the buffer, which is still fresh. Every input
    /// buffer is fully overwritten by the op's own broadcast or lent by its
    /// scatter. A context that does not fit the MRAM capacity is refused
    /// whole: the typed error is returned with every buffer already
    /// allocated for it freed again.
    fn context(
        &mut self,
        op: CnmOp,
        inputs: &[MramLayout],
        out_chunk: usize,
        lent: bool,
    ) -> Result<UpmemContext, SimError> {
        let key = op.erased();
        if let Some(&ctx) = self.contexts.get(&key) {
            if !lent {
                self.system
                    .zero_buffer(ctx.output())
                    .expect("cached buffer");
            }
            return Ok(ctx);
        }
        // Per-DPU buffer lengths: the inputs, then the output chunk.
        let mut lens = [out_chunk; MAX_OP_BUFFERS];
        for (len, &(MramLayout::Chunk(n) | MramLayout::Broadcast(n))) in lens.iter_mut().zip(inputs)
        {
            *len = n;
        }
        let mut ctx = UpmemContext {
            bufs: [0; MAX_OP_BUFFERS],
            n: inputs.len() + 1,
        };
        alloc_all(&mut self.system, &lens[..ctx.n], &mut ctx.bufs)?;
        self.contexts.insert(key, ctx);
        Ok(ctx)
    }

    /// Number of cached execution contexts (distinct op shapes seen).
    pub fn cached_contexts(&self) -> usize {
        self.contexts.len()
    }

    /// The underlying simulated machine (read-only).
    pub fn system(&self) -> &UpmemSystem {
        &self.system
    }

    /// Mutable access to the underlying simulated machine.
    ///
    /// This is the advanced surface the `cinm-core` session compiler drives:
    /// it manages *tensor-keyed* device buffers directly on the system (its
    /// commands go through [`try_op`](Self::try_op)), while this backend's
    /// own eager methods keep using their shape-keyed contexts. Statistics
    /// accumulate on the shared system either way.
    pub fn system_mut(&mut self) -> &mut UpmemSystem {
        &mut self.system
    }

    /// The code-generation options of this backend.
    pub fn options(&self) -> &UpmemRunOptions {
        &self.options
    }

    /// How this backend's kernels are generated: the backend options on the
    /// machine's tasklets and WRAM (see [`KernelCodegen::new`]).
    pub(crate) fn codegen(&self) -> KernelCodegen {
        let (o, config) = (&self.options, self.system.config());
        KernelCodegen::new(
            o.locality_optimized,
            o.instruction_overhead,
            o.wram_tile_elems,
            config.tasklets,
            config.wram_bytes,
        )
    }

    /// Builds the [`KernelSpec`] this backend launches for a kernel kind on
    /// the given buffers — tasklets, WRAM tiling, locality optimisation and
    /// instruction overhead all follow the backend options and the machine.
    /// Public so the session compiler emits bit-identical launches for its
    /// tensor-keyed buffers.
    pub fn kernel_spec(&self, kind: DpuKernelKind, inputs: Vec<u32>, output: u32) -> KernelSpec {
        self.codegen().spec(kind, inputs, output)
    }

    /// Runs one device command against the wrapped [`UpmemSystem`],
    /// retrying transient injected faults with the backend's capped-backoff
    /// [`RetryPolicy`]. A faulted command applies nothing, so re-issuing it
    /// is always safe and bit-identical. The commands of this backend's own
    /// ops and of the session's replay all go through here, so their retries
    /// and simulated backoff accumulate in one
    /// [`fault_stats`](Self::fault_stats).
    ///
    /// # Errors
    ///
    /// A permanent device fault, a transient fault that outlived the retry
    /// budget, or an invalid program.
    pub fn try_op<T>(
        &mut self,
        mut op: impl FnMut(&mut UpmemSystem) -> Result<T, SimError>,
    ) -> Result<T, SimError> {
        let retry = self.retry;
        let (result, log) = retry.run(
            |e: &SimError| e.is_transient_fault(),
            || op(&mut self.system),
        );
        self.fault_stats.absorb(&log);
        if let Err(e) = &result {
            if e.is_permanent_fault() {
                self.fault_stats.permanent_faults += 1;
            }
        }
        result
    }

    /// The retry policy applied to transient faults.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Overrides the retry policy.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Cumulative fault-tolerance counters (retries taken, simulated backoff,
    /// permanent faults observed). Kept separate from the simulated
    /// [`stats`](Self::stats), which stay bit-identical to a fault-free run.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Accumulated simulated statistics.
    pub fn stats(&self) -> &SystemStats {
        self.system.stats()
    }

    /// Total simulated milliseconds so far.
    pub fn total_ms(&self) -> f64 {
        self.system.stats().total_ms()
    }

    /// Resets the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.system.reset_stats();
    }

    /// Number of DPUs in the simulated machine.
    pub fn num_dpus(&self) -> usize {
        self.system.num_dpus()
    }

    /// Runs one op eagerly into `out`, which holds the op's logical result
    /// (`op.geometry(self.num_dpus()).out_len` elements, an upper bound for
    /// select), and returns how many elements it wrote (all of them but for
    /// select). The generated host program of `CnmOp::commands` — the
    /// operand transfers (scatter or broadcast, per the geometry), the
    /// launch, the gather — is issued one command after another. A
    /// scattered operand is **lent** ([`UpmemSystem::scatter_lent`]): billed
    /// as the scatter, read in place by the launch, never copied. So is `out`
    /// when the [`CnmOp::geometry`]'s output is [`OutputLayout::Chunked`]
    /// (element-wise, `gemm`, `gemv`, BFS): the launch writes the result
    /// straight into it ([`UpmemSystem::launch_lent`]) and the gather is
    /// billed without a copy ([`UpmemSystem::gather_lent`]). The partials
    /// layouts (reduce, histogram, select) and the time-series profiles are
    /// decoded from the output slab into `out`. Each command's transient
    /// injected faults are retried in place (see [`try_op`](Self::try_op)).
    /// A full MRAM refuses the op before any command runs. An op with
    /// nothing to compute issues no command: it is answered on the host with
    /// the value the kernels would produce (the reduction's identity, zeros
    /// otherwise) and touches no device — no buffer, no transfer, no launch,
    /// no simulated time.
    ///
    /// # Errors
    ///
    /// See [`try_op`](Self::try_op); also typed MRAM exhaustion
    /// ([`SimError::is_mram_exhausted`]) when the op's buffers do not fit,
    /// and the simulator's launch-shape error for a time-series window
    /// longer than a (non-empty) series. `out` is unspecified after an
    /// error.
    ///
    /// # Panics
    ///
    /// When the operands are not the op's (their number is not its arity,
    /// or one's length is not the element count the op states for it), or
    /// `out` is not of the op's logical length.
    pub fn run(
        &mut self,
        op: CnmOp,
        operands: &[&[i32]],
        out: &mut [i32],
    ) -> Result<usize, SimError> {
        op.check_operands(operands);
        if let CnmOp::TimeSeries { window, len } = op {
            if len > 0 {
                // The per-DPU chunks are padded up to a whole window, so the
                // launch itself would pass: the logical shape is what is wrong.
                validate_kernel_shape(&DpuKernelKind::TimeSeries { len, window })?;
            }
        }
        let dpus = self.system.num_dpus();
        let CnmGeometry {
            inputs,
            out_chunk,
            out_layout,
            out_len,
            ..
        } = op.geometry(dpus);
        assert_eq!(out.len(), out_len, "{} result length", op.mnemonic());
        let mut commands = op.commands(dpus).peekable();
        if commands.peek().is_none() {
            out.fill(match op {
                CnmOp::Reduce { op, .. } => op.identity(),
                _ => 0,
            });
            return Ok(out_len);
        }
        let lend_out = out_layout == OutputLayout::Chunked;
        let ctx = self.context(op, &inputs[..operands.len()], out_chunk, lend_out)?;
        let bufs = &ctx.bufs[..operands.len()];
        let mut lent = [None; MAX_OP_BUFFERS];
        let mut written = 0;
        for command in commands {
            match command {
                Command::Scatter { input, chunk, .. } => {
                    self.try_op(|sys| sys.scatter_lent(bufs[input], operands[input], chunk))?;
                    lent[input] = Some(operands[input]);
                }
                Command::Broadcast { input, .. } => {
                    self.try_op(|sys| sys.broadcast_i32(bufs[input], operands[input]))?;
                }
                Command::Launch(kind) => {
                    let spec = self.kernel_spec(kind, bufs.to_vec(), ctx.output());
                    let lent = &lent[..bufs.len()];
                    self.try_op(|sys| {
                        let dst = lend_out.then_some(&mut *out);
                        sys.launch_lent(&spec, lent, dst)
                    })?;
                }
                Command::Gather { chunk } if lend_out => {
                    self.try_op(|sys| sys.gather_lent(ctx.output(), chunk))?;
                    written = out_len;
                }
                Command::Gather { chunk } => {
                    written = self.try_op(|sys| {
                        sys.gather_with(ctx.output(), chunk, |raw| {
                            out_layout.decode_to(raw, dpus, out)
                        })
                    })?;
                }
            }
        }
        Ok(written)
    }

    /// [`run`](Self::run) into a fresh vector of the result's length —
    /// the body of every per-op method, which panics where `run` fails.
    fn run_owned(&mut self, op: CnmOp, operands: &[&[i32]]) -> Vec<i32> {
        let mut out = vec![0; op.geometry(self.num_dpus()).out_len];
        let written = self
            .run(op, operands, &mut out)
            .unwrap_or_else(|e| panic!("UPMEM {}: {e}", op.mnemonic()));
        out.truncate(written);
        out
    }

    /// `C[m×n] = A[m×k] × B[k×n]`: row blocks of A are scattered across the
    /// DPUs, B is broadcast, each DPU computes its C block. Panics where
    /// [`run`](Self::run) fails, as every per-op method does.
    pub fn gemm(&mut self, a: &[i32], b: &[i32], m: usize, k: usize, n: usize) -> Vec<i32> {
        self.run_owned(CnmOp::Gemm { m, k, n }, &[a, b])
    }

    /// `y[rows] = A[rows×cols] × x[cols]` with row blocks per DPU.
    pub fn gemv(&mut self, a: &[i32], x: &[i32], rows: usize, cols: usize) -> Vec<i32> {
        self.run_owned(CnmOp::Gemv { rows, cols }, &[a, x])
    }

    /// Element-wise binary kernel over equally-split chunks.
    pub fn elementwise(&mut self, op: BinOp, a: &[i32], b: &[i32]) -> Vec<i32> {
        self.run_owned(CnmOp::Elementwise { op, len: a.len() }, &[a, b])
    }

    /// Reduction: per-DPU partials are reduced, gathered, and folded on the
    /// host.
    pub fn reduce(&mut self, op: BinOp, a: &[i32]) -> i32 {
        self.run_owned(CnmOp::Reduce { op, len: a.len() }, &[a])[0]
    }

    /// Histogram: per-DPU privatised histograms merged on the host.
    pub fn histogram(&mut self, a: &[i32], bins: usize, max_value: i32) -> Vec<i32> {
        let len = a.len();
        let op = CnmOp::Histogram {
            bins,
            max_value,
            len,
        };
        self.run_owned(op, &[a])
    }

    /// Database select: per-DPU selections concatenated in order.
    pub fn select(&mut self, a: &[i32], threshold: i32) -> Vec<i32> {
        let len = a.len();
        self.run_owned(CnmOp::Select { threshold, len }, &[a])
    }

    /// Time-series distance profile with partitioned semantics: each DPU
    /// profiles its own chunk against the chunk's leading window.
    pub fn time_series(&mut self, a: &[i32], window: usize) -> Vec<i32> {
        let len = a.len();
        self.run_owned(CnmOp::TimeSeries { window, len }, &[a])
    }

    /// One BFS frontier expansion with partitioned CSR fragments.
    #[allow(clippy::too_many_arguments)]
    pub fn bfs_step(
        &mut self,
        row_offsets: &[i32],
        cols: &[i32],
        frontier: &[i32],
        vertices_per_dpu: usize,
        avg_degree: usize,
        used_dpus: usize,
    ) -> Vec<i32> {
        let op = CnmOp::BfsStep {
            vertices_per_dpu,
            avg_degree,
            used_dpus,
        };
        self.run_owned(op, &[row_offsets, cols, frontier])
    }
}

/// Options describing how CINM generated the memristor code
/// (the Figure 10 configurations).
#[derive(Debug, Clone)]
pub struct CimRunOptions {
    /// Loop interchange to minimise crossbar writes (`cim-min-writes`).
    pub min_writes: bool,
    /// Unroll the inner tile loop over all crossbar tiles (`cim-parallel`).
    pub parallel_tiles: bool,
    /// Host worker threads for the functional simulation (`0` = all
    /// available cores, `1` = sequential). Changes only simulator wall-clock
    /// time, never results or simulated statistics.
    pub host_threads: usize,
    /// The worker pool running the functional simulation (applied to the
    /// crossbar configuration by both constructors). Defaults to the
    /// process-global pool.
    pub pool: PoolHandle,
}

impl Default for CimRunOptions {
    fn default() -> Self {
        CimRunOptions {
            min_writes: false,
            parallel_tiles: false,
            host_threads: 1,
            pool: PoolHandle::global(),
        }
    }
}

impl CimRunOptions {
    /// The `cim-opt` configuration: both optimisations enabled.
    pub fn optimized() -> Self {
        CimRunOptions {
            min_writes: true,
            parallel_tiles: true,
            ..Default::default()
        }
    }

    /// Overrides the number of host worker threads (`0` = all cores).
    pub fn with_host_threads(mut self, host_threads: usize) -> Self {
        self.host_threads = host_threads;
        self
    }

    /// Attaches a shared worker pool.
    pub fn with_pool(mut self, pool: PoolHandle) -> Self {
        self.pool = pool;
        self
    }
}

/// Accumulated statistics of a CIM run, including the orchestrating host.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CimRunStats {
    /// Crossbar accelerator statistics.
    pub xbar: CimStats,
    /// Seconds spent by the ARM host orchestrating and running non-offloaded
    /// operations.
    pub host_seconds: f64,
    /// Host energy in joules.
    pub host_energy_j: f64,
}

impl CimRunStats {
    /// Total simulated seconds (host and accelerator are serialised: the
    /// in-order host issues every device command).
    pub fn total_seconds(&self) -> f64 {
        self.xbar.total_seconds() + self.host_seconds
    }

    /// Total energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.xbar.total_energy_j() + self.host_energy_j
    }
}

/// Runtime backend driving the crossbar simulator with an ARM host.
#[derive(Debug)]
pub struct CimBackend {
    xbar: CrossbarAccelerator,
    pub(crate) host: CpuModel,
    pub(crate) options: CimRunOptions,
    host_seconds: f64,
    host_energy_j: f64,
    /// Staging arena for the weight block of a tile write (it is strided in
    /// `B`; a tile write takes it contiguous), reused by every write.
    /// MVM input rows are contiguous in `A` and are read from there.
    arena: Vec<i32>,
    /// The tiles of the programmed batch, reused by every batch.
    batch: Vec<BandTile>,
    /// Retry policy for transient injected faults (see [`CimBackend::try_op`]).
    retry: RetryPolicy,
    /// Fault-tolerance counters, separate from the simulated statistics.
    fault_stats: FaultStats,
}

impl CimBackend {
    /// Creates a backend with the default four-tile 64×64 PCM accelerator.
    pub fn new(options: CimRunOptions) -> Self {
        Self::with_config(CrossbarConfig::default(), options)
    }

    /// Creates a backend with an explicit crossbar configuration. The
    /// effective host-thread count is the larger of the configuration's and
    /// the options' knob, so neither side can silently lower an explicit
    /// choice; a dedicated pool attached to the options wins over the
    /// configuration's handle.
    pub fn with_config(config: CrossbarConfig, options: CimRunOptions) -> Self {
        let threads = effective_host_threads(config.host_threads, options.host_threads);
        let pool = effective_pool(&config.pool, &options.pool);
        let config = config.with_host_threads(threads).with_pool(pool);
        CimBackend {
            xbar: CrossbarAccelerator::new(config),
            host: CpuModel::arm_host(),
            options,
            host_seconds: 0.0,
            host_energy_j: 0.0,
            arena: Vec::new(),
            batch: Vec::new(),
            retry: RetryPolicy::default(),
            fault_stats: FaultStats::default(),
        }
    }

    /// Issues one crossbar command, retrying transient injected faults under
    /// the backend's [`RetryPolicy`]: a faulted command applies nothing, so
    /// re-issuing it is safe and bit-identical. Retries and simulated backoff
    /// accumulate in [`fault_stats`](Self::fault_stats).
    ///
    /// The host issue overhead of the `issues` device commands it stands for
    /// is charged first, once, one command at a time — the accumulation
    /// sequence of charging each call as it is made.
    ///
    /// # Errors
    ///
    /// A permanent device fault (e.g. stuck-at tiles), a transient fault that
    /// outlived the retry budget, or an invalid command.
    fn try_op(
        &mut self,
        issues: usize,
        mut op: impl FnMut(&mut CrossbarAccelerator) -> Result<(), CimError>,
    ) -> Result<(), CimError> {
        for _ in 0..issues {
            self.host_seconds += SECONDS_PER_COMMAND;
            self.host_energy_j += SECONDS_PER_COMMAND * self.host.active_power_w;
        }
        let retry = self.retry;
        let (result, log) = retry.run(|e: &CimError| e.is_transient_fault(), || op(&mut self.xbar));
        self.fault_stats.absorb(&log);
        if let Err(e) = &result {
            if e.is_permanent_fault() {
                self.fault_stats.permanent_faults += 1;
            }
        }
        result
    }

    /// The retry policy applied to transient faults.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Overrides the retry policy.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Cumulative fault-tolerance counters (retries taken, simulated backoff,
    /// permanent faults observed). Kept separate from the simulated
    /// [`stats`](Self::stats), which stay bit-identical to a fault-free run.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// The crossbar configuration driving this backend.
    pub fn crossbar_config(&self) -> &CrossbarConfig {
        self.xbar.config()
    }

    /// Accumulated run statistics.
    pub fn stats(&self) -> CimRunStats {
        CimRunStats {
            xbar: *self.xbar.stats(),
            host_seconds: self.host_seconds,
            host_energy_j: self.host_energy_j,
        }
    }

    /// Resets the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.xbar.reset_stats();
        self.host_seconds = 0.0;
        self.host_energy_j = 0.0;
    }

    /// Runs a non-offloadable operation on the ARM host (e.g. the `im2col`
    /// data reshuffling or a bias addition) and accounts its cost.
    pub fn host_fallback(&mut self, ops: OpCounts) {
        let t = self.host.execution_seconds(&ops);
        self.host_seconds += t;
        self.host_energy_j += self.host.energy_joules(&ops);
    }

    /// `C[m×n] = A[m×k] × B[k×n]` on the crossbar: B is partitioned into
    /// `tile_rows × tile_cols` blocks (compulsory tiling), each block is
    /// programmed into a crossbar tile and multiplied with the corresponding
    /// A column block; partial results are merged on the fly
    /// (`cinm.mergePartial`).
    ///
    /// The traversal order of the B blocks depends on
    /// [`CimRunOptions::min_writes`]: the baseline re-programs a tile for
    /// every row block of the output (row-major tile order), the optimised
    /// order keeps a programmed tile for all its uses (column-major order),
    /// which is exactly the loop interchange of Section 3.2.4.
    pub fn gemm(&mut self, a: &[i32], b: &[i32], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut c = vec![0; m * n];
        self.run(CnmOp::Gemm { m, k, n }, &[a, b], &mut c)
            .expect("CIM gemm");
        c
    }

    /// `y = A × x` as a single-row GEMM.
    pub fn gemv(&mut self, a: &[i32], x: &[i32], rows: usize, cols: usize) -> Vec<i32> {
        let mut y = vec![0; rows];
        self.run(CnmOp::Gemv { rows, cols }, &[a, x], &mut y)
            .expect("CIM gemv");
        y
    }

    /// Runs one matmul-like op (a GEMV is a GEMM of one output column) on
    /// the crossbar into `out`, its `m × n` result. The op issues its tile writes and MVM bands one command
    /// at a time; a transient fault on any command is retried in place
    /// (results and simulated statistics stay bit-identical to a fault-free
    /// run), while a permanent fault — e.g. a stuck-at tile — aborts the op
    /// so the caller can re-plan around the device. A product with nothing
    /// to compute (`m`, `k` or `n` of zero) is answered without touching the
    /// device, the merge pass included.
    ///
    /// # Errors
    ///
    /// A permanent device fault (e.g. stuck-at tiles), a transient fault that
    /// outlived the retry budget, or an invalid program.
    ///
    /// # Panics
    ///
    /// When the op is not matmul-like, the operands are not its two
    /// matrices, or `out` is not `m × n`.
    pub fn run(&mut self, op: CnmOp, operands: &[&[i32]], out: &mut [i32]) -> Result<(), CimError> {
        let (m, k, n) = op.matmul_dims().expect("the crossbar runs matmul-like ops");
        op.check_operands(operands);
        assert_eq!(out.len(), m * n, "{} result length", op.mnemonic());
        // The bands accumulate into `out`.
        out.fill(0);
        let (a, b, c) = (operands[0], operands[1], out);
        if a.is_empty() || b.is_empty() {
            return Ok(());
        }

        // The generated host program walks the schedule one command after
        // another: a program step writes the batch's tiles (each block staged
        // in the arena), then one `mvm_band` (one issue per row) accumulates
        // the step's rows into `c`. On a permanent fault the walk stops, and
        // the scratch is put back first so the backend stays reusable.
        let flags = (self.options.min_writes, self.options.parallel_tiles);
        let schedule = CimSchedule::new((m, k, n), self.xbar.config(), flags);
        let (mut arena, mut batch) = (take(&mut self.arena), take(&mut self.batch));
        let outcome = schedule.steps().try_for_each(|(i, band, program)| {
            if program {
                batch.clear();
                batch.extend(schedule.batch(i));
                for t in &batch {
                    arena.clear();
                    for r in t.row..t.row + t.rows {
                        arena.extend_from_slice(&b[r * n + t.col..][..t.cols]);
                    }
                    self.try_op(1, |x| x.write_tile(t.tile, &arena, t.rows, t.cols))?;
                }
            }
            let (row0, rows) = schedule.band(band);
            let (a, c) = (&a[row0 * k..], &mut c[row0 * n..(row0 + rows) * n]);
            self.try_op(rows, |x| x.mvm_band(a, k, c, n, &batch, batch.len() > 1))
        });
        (self.arena, self.batch) = (arena, batch);
        outcome?;
        // Partial-result merging happens in the column periphery /
        // mergePartial units; charge the host's pass over the output.
        if let Some(merge) = schedule.merge() {
            self.host_fallback(merge);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_sim::kernels;

    fn small_upmem(ranks: usize, opts: UpmemRunOptions) -> UpmemBackend {
        let mut cfg = UpmemConfig::with_ranks(ranks);
        cfg.dpus_per_rank = 8;
        UpmemBackend::with_config(cfg, opts)
    }

    #[test]
    fn upmem_gemm_matches_reference() {
        let (m, k, n) = (37, 16, 12);
        let a: Vec<i32> = (0..m * k).map(|i| (i % 13) as i32 - 6).collect();
        let b: Vec<i32> = (0..k * n).map(|i| (i % 7) as i32 - 3).collect();
        let mut be = small_upmem(1, UpmemRunOptions::default());
        let c = be.gemm(&a, &b, m, k, n);
        assert_eq!(c, kernels::matmul(&a, &b, m, k, n));
        assert!(be.total_ms() > 0.0);
    }

    #[test]
    fn upmem_gemv_and_elementwise_match_reference() {
        let (rows, cols) = (50, 24);
        let a: Vec<i32> = (0..rows * cols).map(|i| (i % 11) as i32 - 5).collect();
        let x: Vec<i32> = (0..cols).map(|i| (i % 5) as i32 - 2).collect();
        let mut be = small_upmem(1, UpmemRunOptions::optimized());
        assert_eq!(
            be.gemv(&a, &x, rows, cols),
            kernels::matvec(&a, &x, rows, cols)
        );

        let v: Vec<i32> = (0..777).map(|i| i - 300).collect();
        let w: Vec<i32> = (0..777).map(|i| i * 3).collect();
        assert_eq!(
            be.elementwise(BinOp::Add, &v, &w),
            kernels::vector_add(&v, &w)
        );
    }

    #[test]
    fn upmem_reduce_histogram_select_match_reference() {
        let data: Vec<i32> = (0..1000).map(|i| i * 37 % 256).collect();
        let mut be = small_upmem(1, UpmemRunOptions::default());
        assert_eq!(be.reduce(BinOp::Add, &data), kernels::reduce_add(&data));
        assert_eq!(
            be.histogram(&data, 16, 256),
            kernels::histogram(&data, 16, 256)
        );
        assert_eq!(be.select(&data, 200), kernels::select_gt(&data, 200));
    }

    #[test]
    fn upmem_locality_optimization_is_faster_on_gemm() {
        let (m, k, n) = (256, 64, 64);
        let a = vec![1i32; m * k];
        let b = vec![1i32; k * n];
        let mut base = small_upmem(1, UpmemRunOptions::default());
        let mut opt = small_upmem(1, UpmemRunOptions::optimized());
        base.gemm(&a, &b, m, k, n);
        opt.gemm(&a, &b, m, k, n);
        let t_base = base.stats().kernel_seconds;
        let t_opt = opt.stats().kernel_seconds;
        assert!(t_opt < t_base, "opt {t_opt} vs base {t_base}");
        let gain = 1.0 - t_opt / t_base;
        assert!(gain > 0.25 && gain < 0.75, "gain {gain}");
    }

    #[test]
    fn cim_gemm_matches_reference_in_all_configurations() {
        let (m, k, n) = (96, 80, 72);
        let a: Vec<i32> = (0..m * k).map(|i| (i % 9) as i32 - 4).collect();
        let b: Vec<i32> = (0..k * n).map(|i| (i % 6) as i32 - 2).collect();
        let reference = kernels::matmul(&a, &b, m, k, n);
        // The host's merge pass over the output, billed after the commands.
        let merge = OpCounts {
            bytes_read: (m * n * 4) as f64,
            ..OpCounts::elementwise(m * n)
        };
        let merge = CpuModel::arm_host().execution_seconds(&merge);
        for geometry in [(64, 64, 4), (64, 32, 4), (32, 64, 4), (64, 64, 1)] {
            let mut config = CrossbarConfig::default();
            (config.tile_rows, config.tile_cols, config.num_tiles) = geometry;
            for (mw, pt) in [(false, false), (true, false), (false, true), (true, true)] {
                let what = format!("{geometry:?} min_writes={mw} parallel={pt}");
                let mut options = CimRunOptions::default();
                (options.min_writes, options.parallel_tiles) = (mw, pt);
                let mut be = CimBackend::with_config(config.clone(), options);
                assert_eq!(be.gemm(&a, &b, m, k, n), reference, "{what}");
                let schedule = CimSchedule::new((m, k, n), &config, (mw, pt));
                let (xbar, billed) = (be.stats().xbar, be.stats().host_seconds);
                let counts = (schedule.tile_writes() as u64, schedule.mvms() as u64);
                assert_eq!((xbar.tile_writes, xbar.mvm_ops), counts, "{what}");
                let host = schedule.host_issues() as f64 * SECONDS_PER_COMMAND + merge;
                assert!(
                    (billed - host).abs() <= 1e-12 * host,
                    "{what}: {billed} vs {host}"
                );
            }
        }
    }

    #[test]
    fn cim_min_writes_reduces_tile_writes_substantially() {
        let (m, k, n) = (448, 128, 128);
        let a = vec![1i32; m * k];
        let b = vec![1i32; k * n];
        let mut base = CimBackend::new(CimRunOptions::default());
        let mut minw = CimBackend::new(CimRunOptions {
            min_writes: true,
            parallel_tiles: false,
            ..Default::default()
        });
        base.gemm(&a, &b, m, k, n);
        minw.gemm(&a, &b, m, k, n);
        let w_base = base.stats().xbar.tile_writes;
        let w_min = minw.stats().xbar.tile_writes;
        assert!(w_base >= 6 * w_min, "writes {w_base} vs {w_min}");
        assert!(minw.stats().total_seconds() < base.stats().total_seconds());
    }

    #[test]
    fn cim_parallel_tiles_reduce_compute_time() {
        let (m, k, n) = (128, 256, 256);
        let a = vec![1i32; m * k];
        let b = vec![1i32; k * n];
        let mut serial = CimBackend::new(CimRunOptions {
            min_writes: true,
            parallel_tiles: false,
            ..Default::default()
        });
        let mut parallel = CimBackend::new(CimRunOptions::optimized());
        serial.gemm(&a, &b, m, k, n);
        parallel.gemm(&a, &b, m, k, n);
        assert!(parallel.stats().xbar.compute_seconds < serial.stats().xbar.compute_seconds);
    }

    #[test]
    fn upmem_context_reuse_is_bit_identical_and_bounds_mram() {
        let (m, k, n) = (37, 16, 12);
        let mut reused = small_upmem(1, UpmemRunOptions::default());
        let mut mram_after_first = 0;
        for round in 0..4 {
            // Different data every round: a stale cached buffer would leak
            // the previous round's result into the accumulating GEMM kernel.
            let a: Vec<i32> = (0..m * k)
                .map(|i| (i * (round + 3)) as i32 % 17 - 8)
                .collect();
            let b: Vec<i32> = (0..k * n)
                .map(|i| (i * (round + 5)) as i32 % 11 - 5)
                .collect();
            let mut fresh = small_upmem(1, UpmemRunOptions::default());
            assert_eq!(
                reused.gemm(&a, &b, m, k, n),
                fresh.gemm(&a, &b, m, k, n),
                "round {round}"
            );
            let v: Vec<i32> = (0..500).map(|i| i * (round as i32 + 2) - 100).collect();
            assert_eq!(reused.select(&v, 7), fresh.select(&v, 7), "round {round}");
            if round == 0 {
                mram_after_first = reused.system.mram_used_bytes();
            }
        }
        // Same shapes -> same contexts: device memory stops growing.
        assert_eq!(reused.system.mram_used_bytes(), mram_after_first);
        assert_eq!(reused.cached_contexts(), 2);
        // Per-op simulated statistics are identical to a fresh backend's.
        let a = vec![1i32; m * k];
        let b = vec![1i32; k * n];
        reused.reset_stats();
        let mut fresh = small_upmem(1, UpmemRunOptions::default());
        reused.gemm(&a, &b, m, k, n);
        fresh.gemm(&a, &b, m, k, n);
        assert_eq!(reused.stats(), fresh.stats());
    }

    #[test]
    fn cim_context_reuse_is_bit_identical_across_repeated_shapes() {
        let (m, k, n) = (96, 80, 72);
        for opts in [CimRunOptions::default(), CimRunOptions::optimized()] {
            let mut reused = CimBackend::new(opts.clone());
            for round in 0..3 {
                let a: Vec<i32> = (0..m * k).map(|i| (i % (9 + round)) as i32 - 4).collect();
                let b: Vec<i32> = (0..k * n).map(|i| (i % (6 + round)) as i32 - 2).collect();
                let mut fresh = CimBackend::new(opts.clone());
                let c_reused = reused.gemm(&a, &b, m, k, n);
                let c_fresh = fresh.gemm(&a, &b, m, k, n);
                assert_eq!(c_reused, c_fresh, "round {round}");
                assert_eq!(c_reused, kernels::matmul(&a, &b, m, k, n), "round {round}");
            }
            // Per-op stats of the reusing backend match a fresh backend's.
            let a = vec![1i32; m * k];
            let b = vec![1i32; k * n];
            reused.reset_stats();
            let mut fresh = CimBackend::new(opts.clone());
            reused.gemm(&a, &b, m, k, n);
            fresh.gemm(&a, &b, m, k, n);
            assert_eq!(reused.stats(), fresh.stats());
        }
    }

    #[test]
    fn empty_products_return_before_touching_a_device() {
        let b = vec![1i32; 64 * 64];
        let x = vec![1i32; 64];
        let mut cim = CimBackend::new(CimRunOptions::optimized());
        let mut upmem = small_upmem(1, UpmemRunOptions::default());
        // Every way a product can have nothing to compute, on both devices:
        // no rows, no columns, and an empty inner dimension (all zeros).
        assert!(cim.gemm(&[], &b, 0, 64, 64).is_empty());
        assert!(cim.gemm(&b, &[], 64, 64, 0).is_empty());
        assert_eq!(cim.gemm(&[], &[], 3, 0, 2), [0; 6]);
        assert!(cim.gemv(&[], &x, 0, 64).is_empty());
        assert_eq!(cim.gemv(&[], &[], 3, 0), [0; 3]);
        assert_eq!(cim.stats(), CimRunStats::default());
        assert!(upmem.gemm(&[], &b, 0, 64, 64).is_empty());
        assert!(upmem.gemm(&b, &[], 64, 64, 0).is_empty());
        assert_eq!(upmem.gemm(&[], &[], 3, 0, 2), [0; 6]);
        assert!(upmem.gemv(&[], &x, 0, 64).is_empty());
        assert_eq!(upmem.gemv(&[], &[], 3, 0), [0; 3]);
        // The streaming ops over an empty vector: the kernels' value on no
        // input, from the host.
        assert!(upmem.elementwise(BinOp::Add, &[], &[]).is_empty());
        assert!(upmem.select(&[], 0).is_empty());
        assert!(upmem.time_series(&[], 3).is_empty());
        assert!(upmem.time_series(&[], 0).is_empty());
        assert!(upmem.bfs_step(&[], &[], &[], 4, 2, 0).is_empty());
        assert_eq!(upmem.histogram(&[], 4, 16), [0; 4]);
        for op in [BinOp::Add, BinOp::Mul, BinOp::Min, BinOp::Max] {
            assert_eq!(upmem.reduce(op, &[]), op.identity());
        }
        assert_eq!(*upmem.stats(), SystemStats::default());
        assert_eq!(upmem.system().mram_used_bytes(), 0);
        assert_eq!(upmem.cached_contexts(), 0);
    }

    #[test]
    fn a_window_longer_than_the_series_is_a_launch_shape_error() {
        let mut upmem = small_upmem(1, UpmemRunOptions::default());
        let ts = |window, len| CnmOp::TimeSeries { window, len };
        let err = upmem.run(ts(4, 2), &[&[1, 2]], &mut [0]).unwrap_err();
        assert!(err.fault_kind().is_none() && !err.is_mram_exhausted());
        assert!(err.message().contains("window 4 exceeds"), "{err}");
        assert_eq!(*upmem.stats(), SystemStats::default());
        // Chunks shorter than the window are padded, not rejected.
        let series: Vec<i32> = (0..9).collect();
        let mut profile = [7];
        assert_eq!(upmem.run(ts(9, 9), &[&series], &mut profile), Ok(1));
        assert_eq!(profile, [0]);
    }

    #[test]
    fn cim_gemv_matches_reference() {
        let (rows, cols) = (100, 70);
        let a: Vec<i32> = (0..rows * cols).map(|i| (i % 5) as i32 - 2).collect();
        let x: Vec<i32> = (0..cols).map(|i| (i % 3) as i32).collect();
        let mut be = CimBackend::new(CimRunOptions::optimized());
        assert_eq!(
            be.gemv(&a, &x, rows, cols),
            kernels::matvec(&a, &x, rows, cols)
        );
    }
}
