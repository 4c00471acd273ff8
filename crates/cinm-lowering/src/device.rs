//! The unified `Device` abstraction over heterogeneous CIM/CNM executors.
//!
//! The paper's central claim is *one* compilation infrastructure over
//! heterogeneous compute-in-memory and compute-near-memory targets — yet
//! until this module the execution side of the reproduction was three
//! divergent eager surfaces ([`UpmemBackend`], [`CimBackend`] and the host
//! golden kernels), each re-declaring `gemm`/`gemv`/`elementwise`/… with its
//! own calling convention. [`Device`] is the single interface the execution
//! layers (the sharded backend, the `cinm-core` session) program against:
//!
//! * **cost hookup** — [`Device::cost`] hands out the device's own
//!   first-order [`CostModel`] (the same models the `cinm-core` shard planner
//!   and target selector register), so planners are built *from* a device
//!   set instead of hard-coding model structs. The model is also the support
//!   rule: a device supports an op exactly when its model prices it;
//! * **submission** — [`Device::submit`] takes one [`ShardOp`] (an op plus
//!   the contiguous shard of work assigned to this device) and returns a
//!   [`DeviceFuture`] resolving to the shard result and the simulated
//!   seconds it cost. Empty shards resolve immediately without touching the
//!   device.
//!
//! The three implementations wrap the existing executors: [`UpmemDevice`]
//! (CNM grid), [`CimDevice`] (memristive crossbar, MVM-only) and
//! [`HostDevice`] (golden kernels under a [`CpuModel`] roofline). The
//! per-backend eager methods remain public as the equivalence oracle, but
//! [`crate::ShardedBackend`] now drives all three executors exclusively
//! through this trait, and `cinm_core::session::Session` builds its shard
//! planner from [`Device::cost`].
//!
//! The device vocabulary is stated once, here: [`Target`] names the three
//! devices in their fixed planning order and [`CostModel`] is the one cost
//! interface; `cinm-core` re-exports both.
//!
//! # Cost-model calibration
//!
//! [`CnmCostModel`] is **calibrated against the simulator**: for matmul-like
//! ops it builds the exact [`KernelSpec`] the UPMEM backend would launch for
//! the shard (locality-optimised `cinm-opt` configuration, the same WRAM
//! tile derivation) and asks [`upmem_sim::kernel_launch_cost`] for the
//! slowest-DPU kernel time — including the per-transfer DMA setup cost that
//! the previous closed form ignored and that dominates at one row per DPU.
//! The transfer terms (rank-parallel bulk transfers, the shard-size
//! independent broadcast of the stationary operand) are unchanged.

use cpu_sim::kernels;
use cpu_sim::model::{CpuModel, OpCounts};
use memristor_sim::CrossbarConfig;
use upmem_sim::{kernel_launch_cost, BinOp, KernelSpec, UpmemConfig};

use cinm_dialects::cinm;

use crate::backend::{CimBackend, UpmemBackend};
use crate::cim_schedule::CimSchedule;
use crate::cnm_op::{CnmOp, MramLayout};
use crate::sharded::ShardError;
use crate::tiling::wram_tile_elems;

// ---------------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------------

/// An offload target of the heterogeneous system, in the fixed planning
/// order used by every `[T; 3]` of the planning and execution layers
/// (`Cnm`, `Cim`, `Host`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Target {
    /// The UPMEM compute-near-memory grid.
    Cnm,
    /// The memristive crossbar accelerator.
    Cim,
    /// The host CPU (golden kernels under a roofline model).
    Host,
}

impl Target {
    /// All targets in planning order.
    pub const ALL: [Target; 3] = [Target::Cnm, Target::Cim, Target::Host];

    /// Index of the target in the fixed `[cnm, cim, host]` order.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Target::Cnm => "cnm",
            Target::Cim => "cim",
            Target::Host => "host",
        })
    }
}

// ---------------------------------------------------------------------------
// Shard shapes (moved here from cinm-core so devices can estimate costs
// without a dependency cycle; cinm_core::shard re-exports this type).
// ---------------------------------------------------------------------------

/// Shape of one shardable operation, as planners and the per-device cost
/// models see it. The sharded dimension is `work`; each work unit consumes
/// `inner` elements of the sharded operand and produces `out` result
/// elements:
///
/// * GEMM `C[m×n] = A[m×k]·B[k×n]` sharded by rows: `work = m`,
///   `inner = k`, `out = n` (so the stationary operand has `inner × out`
///   elements — its broadcast/programming cost is shard-size independent);
/// * GEMV: `work = rows`, `inner = cols`, `out = 1`;
/// * element-wise / reduce / histogram: `work = len`, `inner = out = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardShape {
    /// Work units of the sharded dimension.
    pub work: usize,
    /// Elements of the sharded operand consumed per work unit.
    pub inner: usize,
    /// Result elements produced per work unit.
    pub out: usize,
}

impl ShardShape {
    /// Shape of a row-sharded matmul-like op (`gemv` has `n = 1`).
    pub fn matmul(rows: usize, k: usize, n: usize) -> Self {
        ShardShape {
            work: rows,
            inner: k,
            out: n,
        }
    }

    /// Shape of an element-sharded streaming op.
    pub fn streaming(len: usize) -> Self {
        ShardShape {
            work: len,
            inner: 1,
            out: 1,
        }
    }

    /// The same op at a different shard size.
    pub fn with_work(mut self, work: usize) -> Self {
        self.work = work;
        self
    }
}

// ---------------------------------------------------------------------------
// Op classification shared by the default models
// ---------------------------------------------------------------------------

/// Whether the crossbar backend can execute the op — the single source of
/// truth for the "MVM-only" restriction used by the planner and the
/// experiment harness (the `ShardedBackend` methods enforce the same fact at
/// execution time).
pub fn cim_supports(op: &str) -> bool {
    op == cinm::GEMM || op == cinm::GEMV
}

/// The shard shape of a shardable op.
fn shape_of(op: CnmOp) -> ShardShape {
    op.shard().expect("shardable op").1
}

/// Host operation counts of one shardable op.
fn host_counts(op: CnmOp) -> OpCounts {
    match op {
        CnmOp::Gemm { m, k, n } => OpCounts::gemm(m, k, n),
        CnmOp::Gemv { rows, cols } => OpCounts::gemv(rows, cols),
        CnmOp::Elementwise { len, .. } => OpCounts::elementwise(len),
        CnmOp::Reduce { len, .. } => OpCounts::reduce(len),
        CnmOp::Histogram { bins, len, .. } => OpCounts::histogram(len, bins),
        _ => unreachable!("{} is not shardable", op.mnemonic()),
    }
}

// ---------------------------------------------------------------------------
// The per-device cost models (the "cost hookup" of the Device trait)
// ---------------------------------------------------------------------------

/// A device cost model, registered by a device dialect (paper Section 3.3):
/// the one estimate the shard planner sizes shards by and the target
/// selector ranks devices by. A device supports an op exactly when its
/// model prices it (returns `Some`). Planners are built from a device set
/// via [`Device::cost`].
pub trait CostModel: Send {
    /// The device the estimate describes.
    fn target(&self) -> Target;

    /// Estimated execution seconds of a *shard* of an op, or `None` if the
    /// device cannot execute it. Planners sample this at several shard sizes
    /// to separate fixed per-dispatch overheads from marginal per-unit cost.
    fn estimate_shard_seconds(&self, op_name: &str, shape: &ShardShape) -> Option<f64>;

    /// Estimated *energy* in joules of a shard of an op, or `None` if the
    /// device cannot execute it or the model carries no energy calibration.
    /// Planners sample this exactly like the seconds estimate (at several
    /// shard sizes, fitting an affine `fixed + per-unit` form) to drive
    /// energy-aware placement (`ShardPolicy::MinimizeEnergy`). The default
    /// reports no estimate, which drops the device out of energy-based
    /// plans without affecting latency-based planning.
    fn estimate_shard_joules(&self, op_name: &str, shape: &ShardShape) -> Option<f64> {
        let _ = (op_name, shape);
        None
    }
}

/// First-order cost model of the UPMEM grid, mirroring the simulator's cost
/// structure: bulk transfers of the sharded operand are rank-parallel, the
/// stationary matmul operand is **broadcast** (replicated through one rank's
/// channel per rank-sized image — shard-size independent, and the dominant
/// fixed cost for wide GEMMs). The kernel term of matmul-like ops is
/// **calibrated against the simulator** (see the
/// [module documentation](self)): the model prices the per-DPU kernel of the
/// op's [`CnmOp::geometry`] — the one the backend launches — with
/// [`upmem_sim::kernel_launch_cost`], so DMA setup inefficiency at low
/// rows/DPU is priced in instead of ignored.
#[derive(Debug)]
pub struct CnmCostModel {
    config: UpmemConfig,
}

impl CnmCostModel {
    /// Creates the model from a machine configuration.
    pub fn new(config: UpmemConfig) -> Self {
        CnmCostModel { config }
    }

    /// Estimated `(seconds, joules)` of one shardable op.
    ///
    /// Kernel: matmul-like ops take the calibrated path — the geometry's
    /// per-DPU kernel under the `cinm-opt` configuration (WRAM-blocked, the
    /// same tile derivation as `UpmemBackend::kernel_spec`; buffer ids are
    /// placeholders the cost is independent of), priced by the simulator's
    /// own launch cost model on the DPUs the shard occupies. Streaming ops
    /// use the first-order closed form: one load-op-store stream per element
    /// on the slowest DPU; per-unit cycles approximate retired instructions
    /// (single-issue pipeline), each element crosses the MRAM↔WRAM interface
    /// three times, and every DPU burns leakage while the slowest finishes.
    ///
    /// Transfers: the sharded operand in and the result out are
    /// rank-parallel (reductions and histograms gather only small per-DPU
    /// partials; element-wise ops read two operands); the stationary
    /// operand of matmul-like ops is broadcast — every DPU receives its own
    /// copy, and the interface energy bills each one, exactly as
    /// [`upmem_sim::SystemStats`] accounts it.
    fn price(&self, op: CnmOp) -> (f64, f64) {
        let cfg = &self.config;
        let i = &cfg.instr;
        let dpus = (cfg.ranks * cfg.dpus_per_rank).max(1);
        let rank_bw = cfg.host_bandwidth_per_rank_bytes_per_s * cfg.ranks.max(1) as f64;
        let shape = shape_of(op);
        let work = shape.work as f64;
        let matmul_like = matches!(op, CnmOp::Gemm { .. } | CnmOp::Gemv { .. });
        let geometry = op.geometry(dpus);
        let (kernel_s, kernel_j) = if matmul_like {
            let wram = wram_tile_elems(cfg.wram_bytes, cfg.tasklets, 4);
            let spec = KernelSpec::new(geometry.kernel, vec![0, 0], 1)
                .with_tasklets(cfg.tasklets)
                .with_wram_tile(wram)
                .with_locality_optimization();
            let launch = kernel_launch_cost(cfg, &spec, cfg.tasklets, geometry.used_dpus.max(1));
            (launch.seconds, launch.energy_j)
        } else {
            let (MramLayout::Chunk(units) | MramLayout::Broadcast(units)) = geometry.inputs[0];
            let cycles_per_unit = 3.0 * i.wram_access + i.alu + 0.5 * i.branch;
            let seconds = units as f64 * cycles_per_unit / cfg.dpu_freq_hz;
            let joules = work * cycles_per_unit * cfg.energy.pipeline_j_per_instr
                + 3.0 * work * 4.0 * cfg.energy.dma_j_per_byte
                + seconds * cfg.energy.static_w_per_dpu * dpus as f64;
            (seconds, joules)
        };
        let sharded_bytes = work * shape.inner as f64 * 4.0;
        let result_bytes = match op {
            CnmOp::Reduce { .. } | CnmOp::Histogram { .. } => dpus as f64 * 4.0,
            CnmOp::Elementwise { .. } => work * shape.out as f64 * 4.0 + sharded_bytes,
            _ => work * shape.out as f64 * 4.0,
        };
        let mut transfer_s =
            (sharded_bytes + result_bytes) / rank_bw + 2.0 * cfg.host_transfer_latency_s;
        let mut interface_bytes = sharded_bytes + result_bytes;
        if matmul_like {
            let stationary_bytes = (shape.inner * shape.out) as f64 * 4.0;
            transfer_s += stationary_bytes * cfg.dpus_per_rank as f64
                / cfg.host_bandwidth_per_rank_bytes_per_s
                + cfg.host_transfer_latency_s;
            interface_bytes += stationary_bytes * dpus as f64;
        }
        (
            kernel_s + transfer_s,
            kernel_j + cfg.transfer_energy_j(interface_bytes),
        )
    }
}

impl CostModel for CnmCostModel {
    fn target(&self) -> Target {
        Target::Cnm
    }

    fn estimate_shard_seconds(&self, op_name: &str, shape: &ShardShape) -> Option<f64> {
        Some(self.price(CnmOp::from_shard(op_name, shape)?).0)
    }

    fn estimate_shard_joules(&self, op_name: &str, shape: &ShardShape) -> Option<f64> {
        Some(self.price(CnmOp::from_shard(op_name, shape)?).1)
    }
}

/// Cost model of the crossbar: the price of the crate's one crossbar
/// schedule, the one [`CimBackend::try_gemm`] walks. Its tile writes, MVMs
/// and MVM latencies times the simulator's own `tile_program_seconds`,
/// `mvm_seconds` and energies are exactly what `CimStats` bills, up to f64
/// summation order; the host's issue overhead and merge pass are not priced.
/// Only matmul-like ops are supported — everything else returns `None` (the
/// backend models analog MVM only), which is exactly how a whole device
/// drops out of a plan.
#[derive(Debug)]
pub struct CimCostModel {
    config: CrossbarConfig,
    /// `(min_writes, parallel_tiles)` of the priced schedule.
    flags: (bool, bool),
}

impl CimCostModel {
    /// Creates the model of the `cim-opt` schedule (both optimisations on)
    /// from a crossbar configuration.
    pub fn new(config: CrossbarConfig) -> Self {
        let flags = (true, true);
        CimCostModel { config, flags }
    }

    /// The schedule of a matmul-like shard (`None` for everything the
    /// crossbar cannot execute).
    fn schedule(&self, op_name: &str, shape: &ShardShape) -> Option<CimSchedule> {
        let dims = (shape.work, shape.inner, shape.out);
        cim_supports(op_name).then(|| CimSchedule::new(dims, &self.config, self.flags))
    }
}

impl CostModel for CimCostModel {
    fn target(&self) -> Target {
        Target::Cim
    }

    fn estimate_shard_seconds(&self, op_name: &str, shape: &ShardShape) -> Option<f64> {
        Some(self.schedule(op_name, shape)?.seconds(&self.config))
    }

    fn estimate_shard_joules(&self, op_name: &str, shape: &ShardShape) -> Option<f64> {
        Some(self.schedule(op_name, shape)?.joules(&self.config))
    }
}

/// Host cost model: the roofline of a [`CpuModel`] over the shard's real
/// operation counts.
#[derive(Debug)]
pub struct HostCostModel {
    model: CpuModel,
}

impl HostCostModel {
    /// Creates the model from a CPU configuration.
    pub fn new(model: CpuModel) -> Self {
        HostCostModel { model }
    }
}

impl CostModel for HostCostModel {
    fn target(&self) -> Target {
        Target::Host
    }

    fn estimate_shard_seconds(&self, op_name: &str, shape: &ShardShape) -> Option<f64> {
        let counts = host_counts(CnmOp::from_shard(op_name, shape)?);
        Some(self.model.execution_seconds(&counts))
    }

    fn estimate_shard_joules(&self, op_name: &str, shape: &ShardShape) -> Option<f64> {
        let counts = host_counts(CnmOp::from_shard(op_name, shape)?);
        Some(self.model.energy_joules(&counts))
    }
}

// ---------------------------------------------------------------------------
// The Device trait
// ---------------------------------------------------------------------------

/// One operation shard bound to concrete operand slices: the unit of work a
/// [`Device`] executes. The slices are the *shard's* view (e.g. the
/// contiguous row range of `A` assigned to this device), produced by the
/// sharded backend or a session from a [`crate::ShardSplit`].
#[derive(Debug, Clone, Copy)]
pub enum ShardOp<'a> {
    /// `C[m×n] = A[m×k] × B[k×n]` over the shard's `m` rows.
    Gemm {
        /// Row block of the sharded operand.
        a: &'a [i32],
        /// The stationary operand (replicated to every device).
        b: &'a [i32],
        /// Rows of the shard.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns.
        n: usize,
    },
    /// `y[rows] = A[rows×cols] × x[cols]` over the shard's rows.
    Gemv {
        /// Row block of the sharded matrix.
        a: &'a [i32],
        /// The full input vector.
        x: &'a [i32],
        /// Rows of the shard.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Element-wise binary op over the shard's element range.
    Elementwise {
        /// The operator.
        op: BinOp,
        /// Left operand range.
        a: &'a [i32],
        /// Right operand range.
        b: &'a [i32],
    },
    /// Reduction over the shard's element range (the device returns its
    /// partial as a one-element result; shard order folding is the
    /// caller's job).
    Reduce {
        /// The reduction operator.
        op: BinOp,
        /// Element range.
        a: &'a [i32],
    },
    /// Histogram over the shard's element range (per-device partial
    /// histograms; per-bin summation is the caller's job).
    Histogram {
        /// Element range.
        a: &'a [i32],
        /// Number of bins.
        bins: usize,
        /// Upper bound (exclusive) of the input values.
        max_value: i32,
    },
}

impl<'a> ShardOp<'a> {
    /// The op as the lowering table sees it, with the shard's operand
    /// slices (a unary op leaves the second one empty).
    pub(crate) fn lower(&self) -> (CnmOp, [&'a [i32]; 2]) {
        match *self {
            ShardOp::Gemm { a, b, m, k, n } => (CnmOp::Gemm { m, k, n }, [a, b]),
            ShardOp::Gemv { a, x, rows, cols } => (CnmOp::Gemv { rows, cols }, [a, x]),
            ShardOp::Elementwise { op, a, b } => (CnmOp::Elementwise { op, len: a.len() }, [a, b]),
            ShardOp::Reduce { op, a } => (CnmOp::Reduce { op, len: a.len() }, [a, &[]]),
            ShardOp::Histogram { a, bins, max_value } => {
                let len = a.len();
                let op = CnmOp::Histogram {
                    bins,
                    max_value,
                    len,
                };
                (op, [a, &[]])
            }
        }
    }

    /// The inverse of [`lower`](Self::lower) for the shardable subset.
    pub(crate) fn lift(op: CnmOp, a: &'a [i32], b: &'a [i32]) -> Option<ShardOp<'a>> {
        Some(match op {
            CnmOp::Gemm { m, k, n } => ShardOp::Gemm { a, b, m, k, n },
            CnmOp::Gemv { rows, cols } => ShardOp::Gemv {
                a,
                x: b,
                rows,
                cols,
            },
            CnmOp::Elementwise { op, .. } => ShardOp::Elementwise { op, a, b },
            CnmOp::Reduce { op, .. } => ShardOp::Reduce { op, a },
            CnmOp::Histogram {
                bins, max_value, ..
            } => ShardOp::Histogram { a, bins, max_value },
            _ => return None,
        })
    }

    /// The `cinm` dialect name of the op (what planners and cost models
    /// reason about).
    pub(crate) fn op_name(&self) -> &'static str {
        self.lower().0.shard().expect("shardable op").0
    }

    /// Work units of the shard (rows for matmul-like ops, elements for
    /// streaming ops).
    pub(crate) fn work(&self) -> usize {
        self.shape().work
    }

    /// The shard's [`ShardShape`].
    pub(crate) fn shape(&self) -> ShardShape {
        shape_of(self.lower().0)
    }
}

/// The completion handle of one submitted shard.
///
/// The simulators execute synchronously, so the future is resolved by the
/// time `submit` returns; the submission/completion split is kept in the API
/// so an asynchronous device (or a remote one) can defer without changing
/// callers — and so the sharded layers can move the *whole* submit call onto
/// a worker-pool task and overlap devices.
///
/// A future resolves to a `Result`: device-side *execution* faults (injected
/// transients that outlived the retry budget, permanent hardware faults)
/// surface here at [`wait`](DeviceFuture::wait), while submission-time
/// classification errors (unsupported ops) are returned by
/// [`Device::submit`] itself.
#[derive(Debug)]
pub struct DeviceFuture {
    result: Result<Vec<i32>, ShardError>,
    sim_seconds: f64,
}

impl Default for DeviceFuture {
    fn default() -> Self {
        DeviceFuture {
            result: Ok(Vec::new()),
            sim_seconds: 0.0,
        }
    }
}

impl DeviceFuture {
    /// An immediately-resolved future (empty shards).
    pub fn ready(result: Vec<i32>, sim_seconds: f64) -> Self {
        DeviceFuture {
            result: Ok(result),
            sim_seconds,
        }
    }

    /// A future resolved to an execution fault.
    pub fn failed(error: ShardError) -> Self {
        DeviceFuture {
            result: Err(error),
            sim_seconds: 0.0,
        }
    }

    /// Whether the shard failed (without consuming the future).
    pub fn is_failed(&self) -> bool {
        self.result.is_err()
    }

    /// Waits for completion, returning the shard result and the simulated
    /// seconds the device spent on it.
    ///
    /// # Errors
    ///
    /// The execution fault that killed the shard.
    pub fn wait(self) -> Result<(Vec<i32>, f64), ShardError> {
        let sim_seconds = self.sim_seconds;
        self.result.map(|result| (result, sim_seconds))
    }

    /// The simulated seconds without consuming the result.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_seconds
    }
}

/// Failure-tracking state of a device: how execution faults accumulate into
/// an *unhealthy* verdict that drops the device out of shard plans.
///
/// A device is unhealthy once it reports a permanent fault, or once
/// [`CONSECUTIVE_FAILURE_LIMIT`](Self::CONSECUTIVE_FAILURE_LIMIT) shard
/// executions fail back-to-back (a transient storm that outlives per-command
/// retries). Any successful shard resets the consecutive counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceHealth {
    /// Failed shard executions since the last success.
    pub consecutive_failures: u32,
    /// Failed shard executions over the device's lifetime.
    pub total_failures: u64,
    /// A permanent hardware fault was reported; the device never recovers
    /// on its own (see [`Device::reset_health`]).
    pub permanent: bool,
}

impl DeviceHealth {
    /// Consecutive failed shards after which a device without a permanent
    /// fault is still declared unhealthy.
    pub const CONSECUTIVE_FAILURE_LIMIT: u32 = 3;

    /// Records a completed shard.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
    }

    /// Records a failed shard; `permanent` marks the device as
    /// unrecoverable.
    pub fn record_failure(&mut self, permanent: bool) {
        self.consecutive_failures += 1;
        self.total_failures += 1;
        if permanent {
            self.permanent = true;
        }
    }

    /// Whether the device should receive new shards.
    pub fn healthy(&self) -> bool {
        !self.permanent && self.consecutive_failures < Self::CONSECUTIVE_FAILURE_LIMIT
    }
}

/// A heterogeneous execution device: a cost hookup and a single submission
/// entry point (see the [module documentation](self)).
pub trait Device: Send {
    /// An owned snapshot of the device's cost model (the "cost hookup"):
    /// planners register this to size shards for the device. The device
    /// supports exactly the ops the model prices.
    fn cost(&self) -> Box<dyn CostModel>;

    /// Executes one shard. Empty shards (`plan.work() == 0`) resolve to an
    /// empty result at zero cost without touching the device; unsupported
    /// ops return [`ShardError::Unsupported`]. Device-side *execution*
    /// faults do not error here — they resolve through the returned future
    /// (see [`DeviceFuture::wait`]) and are recorded in the device's
    /// [`health`](Device::health).
    fn submit(&mut self, plan: &ShardOp<'_>) -> Result<DeviceFuture, ShardError>;

    /// Failure-tracking snapshot. Devices that cannot fail (the host golden
    /// kernels) report the default, always-healthy state.
    fn health(&self) -> DeviceHealth {
        DeviceHealth::default()
    }

    /// Whether the device should receive new shards (see
    /// [`DeviceHealth::healthy`]). Planners and sessions drop unhealthy
    /// devices when re-planning around faults.
    fn is_healthy(&self) -> bool {
        self.health().healthy()
    }

    /// Returns an unhealthy device to service (operator intervention — e.g.
    /// the faulty rank was swapped). No-op for devices that cannot fail.
    fn reset_health(&mut self) {}

    /// Records an execution failure observed by a layer driving the device
    /// *outside* [`submit`](Device::submit) (the session's resident-tensor
    /// compiler talks to the UPMEM backend directly). Health-tracking
    /// devices fold it into the same counters a failed shard would hit;
    /// devices that cannot fail ignore it.
    fn note_failure(&mut self, _permanent: bool) {}

    /// Total simulated seconds accumulated by this device so far.
    fn sim_seconds(&self) -> f64;

    /// Resets the accumulated statistics.
    fn reset_stats(&mut self);
}

// ---------------------------------------------------------------------------
// UPMEM device
// ---------------------------------------------------------------------------

/// The UPMEM compute-near-memory grid behind the [`Device`] interface.
#[derive(Debug)]
pub struct UpmemDevice {
    backend: UpmemBackend,
    health: DeviceHealth,
}

impl UpmemDevice {
    /// Wraps an UPMEM backend.
    pub fn new(backend: UpmemBackend) -> Self {
        UpmemDevice {
            backend,
            health: DeviceHealth::default(),
        }
    }

    /// The wrapped eager backend (the equivalence oracle; also the surface
    /// the session's resident-tensor compiler drives).
    pub fn backend(&self) -> &UpmemBackend {
        &self.backend
    }

    /// Mutable access to the wrapped backend.
    pub fn backend_mut(&mut self) -> &mut UpmemBackend {
        &mut self.backend
    }
}

impl Device for UpmemDevice {
    fn cost(&self) -> Box<dyn CostModel> {
        Box::new(CnmCostModel::new(self.backend.system().config().clone()))
    }

    fn submit(&mut self, plan: &ShardOp<'_>) -> Result<DeviceFuture, ShardError> {
        if plan.work() == 0 {
            return Ok(DeviceFuture::default());
        }
        let before = self.backend.stats().total_seconds();
        let (op, operands) = plan.lower();
        match self.backend.run_op(op, &operands[..op.arity()]) {
            Ok(result) => {
                self.health.record_success();
                let sim_seconds = self.backend.stats().total_seconds() - before;
                Ok(DeviceFuture::ready(result, sim_seconds))
            }
            Err(e) => Ok(DeviceFuture::failed(match e.mram_shortfall() {
                // A full MRAM is a capacity refusal, not a sick device: it
                // stays out of the health record.
                Some((needed_bytes, available_bytes)) => ShardError::MramExhausted {
                    needed_bytes,
                    available_bytes,
                },
                None => {
                    self.health.record_failure(e.is_permanent_fault());
                    ShardError::DeviceFault {
                        device: Target::Cnm,
                        permanent: e.is_permanent_fault(),
                        message: e.to_string(),
                    }
                }
            })),
        }
    }

    fn health(&self) -> DeviceHealth {
        self.health
    }

    fn reset_health(&mut self) {
        self.health = DeviceHealth::default();
    }

    fn note_failure(&mut self, permanent: bool) {
        self.health.record_failure(permanent);
    }

    fn sim_seconds(&self) -> f64 {
        self.backend.stats().total_seconds()
    }

    fn reset_stats(&mut self) {
        self.backend.reset_stats();
    }
}

// ---------------------------------------------------------------------------
// CIM device
// ---------------------------------------------------------------------------

/// The memristive crossbar accelerator behind the [`Device`] interface
/// (analog MVM only).
#[derive(Debug)]
pub struct CimDevice {
    backend: CimBackend,
    health: DeviceHealth,
}

impl CimDevice {
    /// Wraps a crossbar backend.
    pub fn new(backend: CimBackend) -> Self {
        CimDevice {
            backend,
            health: DeviceHealth::default(),
        }
    }

    /// The wrapped eager backend.
    pub fn backend(&self) -> &CimBackend {
        &self.backend
    }

    /// Mutable access to the wrapped backend.
    pub fn backend_mut(&mut self) -> &mut CimBackend {
        &mut self.backend
    }
}

impl Device for CimDevice {
    fn cost(&self) -> Box<dyn CostModel> {
        let config = self.backend.crossbar_config().clone();
        let flags = (
            self.backend.options.min_writes,
            self.backend.options.parallel_tiles,
        );
        Box::new(CimCostModel { config, flags })
    }

    fn submit(&mut self, plan: &ShardOp<'_>) -> Result<DeviceFuture, ShardError> {
        if plan.work() == 0 {
            return Ok(DeviceFuture::default());
        }
        let before = self.backend.stats().total_seconds();
        let result = match *plan {
            ShardOp::Gemm { a, b, m, k, n } => self.backend.try_gemm(a, b, m, k, n),
            ShardOp::Gemv { a, x, rows, cols } => self.backend.try_gemv(a, x, rows, cols),
            _ => {
                return Err(ShardError::Unsupported {
                    device: Target::Cim,
                    op: plan.op_name(),
                })
            }
        };
        match result {
            Ok(result) => {
                self.health.record_success();
                let sim_seconds = self.backend.stats().total_seconds() - before;
                Ok(DeviceFuture::ready(result, sim_seconds))
            }
            Err(e) => {
                self.health.record_failure(e.is_permanent_fault());
                Ok(DeviceFuture::failed(ShardError::DeviceFault {
                    device: Target::Cim,
                    permanent: e.is_permanent_fault(),
                    message: e.to_string(),
                }))
            }
        }
    }

    fn health(&self) -> DeviceHealth {
        self.health
    }

    fn reset_health(&mut self) {
        self.health = DeviceHealth::default();
    }

    fn note_failure(&mut self, permanent: bool) {
        self.health.record_failure(permanent);
    }

    fn sim_seconds(&self) -> f64 {
        self.backend.stats().total_seconds()
    }

    fn reset_stats(&mut self) {
        self.backend.reset_stats();
    }
}

// ---------------------------------------------------------------------------
// Host device
// ---------------------------------------------------------------------------

/// The host CPU behind the [`Device`] interface: golden `cpu_sim` kernels
/// timed by a [`CpuModel`] roofline.
#[derive(Debug)]
pub struct HostDevice {
    model: CpuModel,
    sim_seconds: f64,
}

impl HostDevice {
    /// Wraps a CPU roofline model.
    pub fn new(model: CpuModel) -> Self {
        HostDevice {
            model,
            sim_seconds: 0.0,
        }
    }

    /// The roofline model timing this device.
    pub fn model(&self) -> &CpuModel {
        &self.model
    }
}

impl Device for HostDevice {
    fn cost(&self) -> Box<dyn CostModel> {
        Box::new(HostCostModel::new(self.model.clone()))
    }

    fn submit(&mut self, plan: &ShardOp<'_>) -> Result<DeviceFuture, ShardError> {
        if plan.work() == 0 {
            return Ok(DeviceFuture::default());
        }
        let result = match *plan {
            ShardOp::Gemm { a, b, m, k, n } => kernels::matmul(a, b, m, k, n),
            ShardOp::Gemv { a, x, rows, cols } => kernels::matvec(a, x, rows, cols),
            ShardOp::Elementwise { op, a, b } => kernels::elementwise(a, b, |x, y| op.apply(x, y)),
            ShardOp::Reduce { op, a } => {
                vec![a.iter().fold(op.identity(), |acc, &v| op.apply(acc, v))]
            }
            ShardOp::Histogram { a, bins, max_value } => kernels::histogram(a, bins, max_value),
        };
        let seconds = self.model.execution_seconds(&host_counts(plan.lower().0));
        self.sim_seconds += seconds;
        Ok(DeviceFuture::ready(result, seconds))
    }

    fn sim_seconds(&self) -> f64 {
        self.sim_seconds
    }

    fn reset_stats(&mut self) {
        self.sim_seconds = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CimRunOptions, UpmemRunOptions};

    fn small_upmem_device() -> UpmemDevice {
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 8;
        UpmemDevice::new(UpmemBackend::with_config(cfg, UpmemRunOptions::optimized()))
    }

    #[test]
    fn shard_op_metadata_is_consistent() {
        let a = vec![1i32; 12];
        let b = vec![1i32; 12];
        let op = ShardOp::Gemm {
            a: &a,
            b: &b,
            m: 3,
            k: 4,
            n: 3,
        };
        assert_eq!(op.op_name(), cinm::GEMM);
        assert_eq!(op.work(), 3);
        assert_eq!(op.shape(), ShardShape::matmul(3, 4, 3));
        let e = ShardOp::Elementwise {
            op: BinOp::Max,
            a: &a,
            b: &b,
        };
        assert_eq!(e.op_name(), "cinm.max");
        assert_eq!(e.work(), 12);
    }

    #[test]
    fn devices_report_their_capabilities() {
        // One support rule: the cost hookup prices an op exactly when
        // `submit` accepts it.
        let v = vec![1i32; 16];
        let shards = [
            ShardOp::Gemv {
                a: &v,
                x: &v[..4],
                rows: 4,
                cols: 4,
            },
            ShardOp::Reduce {
                op: BinOp::Add,
                a: &v,
            },
            ShardOp::Elementwise {
                op: BinOp::Add,
                a: &v,
                b: &v,
            },
        ];
        let devices: [(Box<dyn Device>, Target); 3] = [
            (Box::new(small_upmem_device()), Target::Cnm),
            (
                Box::new(CimDevice::new(CimBackend::new(CimRunOptions::optimized()))),
                Target::Cim,
            ),
            (
                Box::new(HostDevice::new(CpuModel::arm_host())),
                Target::Host,
            ),
        ];
        for (mut device, target) in devices {
            let cost = device.cost();
            assert_eq!(cost.target(), target);
            for shard in &shards {
                let priced = cost
                    .estimate_shard_seconds(shard.op_name(), &shard.shape())
                    .is_some();
                assert_eq!(
                    device.submit(shard).is_ok(),
                    priced,
                    "{target}: {}",
                    shard.op_name()
                );
            }
        }
    }

    #[test]
    fn unsupported_submissions_error_and_empty_shards_are_free() {
        let mut cim = CimDevice::new(CimBackend::new(CimRunOptions::optimized()));
        let v = vec![1i32; 8];
        let err = cim
            .submit(&ShardOp::Elementwise {
                op: BinOp::Add,
                a: &v,
                b: &v,
            })
            .unwrap_err();
        assert!(matches!(err, ShardError::Unsupported { .. }));
        // Empty shards resolve without touching the device.
        let before = cim.sim_seconds();
        let fut = cim
            .submit(&ShardOp::Gemv {
                a: &[],
                x: &v,
                rows: 0,
                cols: 8,
            })
            .unwrap();
        let (result, secs) = fut.wait().unwrap();
        assert!(result.is_empty());
        assert_eq!(secs, 0.0);
        assert_eq!(cim.sim_seconds(), before);
    }

    #[test]
    fn cnm_calibration_matches_the_simulated_kernel_time() {
        // The calibrated model must price the kernel term of a gemv shard
        // exactly like the simulator's launch cost (that is the whole point
        // of calibrating): compare against a real backend run.
        let (rows, cols) = (4096usize, 1024usize);
        let cfg = UpmemConfig::with_ranks(16);
        let model = CnmCostModel::new(cfg.clone());
        let est = model
            .estimate_shard_seconds(cinm::GEMV, &ShardShape::matmul(rows, cols, 1))
            .unwrap();
        let mut backend =
            UpmemBackend::with_config(cfg, UpmemRunOptions::optimized().with_host_threads(1));
        let a = vec![1i32; rows * cols];
        let x = vec![1i32; cols];
        backend.gemv(&a, &x, rows, cols);
        let sim = backend.stats().total_seconds();
        let ratio = est / sim;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "estimate {est} vs simulated {sim} (ratio {ratio})"
        );
    }

    #[test]
    fn cnm_estimate_does_not_underestimate_at_one_row_per_dpu() {
        // ROADMAP item: the old closed form ignored per-transfer DMA setup,
        // underestimating matmul-like kernels at 1 row/DPU. The calibrated
        // model prices the same kernel the simulator charges.
        let cfg = UpmemConfig::with_ranks(16);
        let dpus = cfg.num_dpus();
        let cols = 1024usize;
        let model = CnmCostModel::new(cfg.clone());
        let est = model
            .estimate_shard_seconds(cinm::GEMV, &ShardShape::matmul(dpus, cols, 1))
            .unwrap();
        let mut backend =
            UpmemBackend::with_config(cfg, UpmemRunOptions::optimized().with_host_threads(1));
        let a = vec![1i32; dpus * cols];
        let x = vec![1i32; cols];
        backend.gemv(&a, &x, dpus, cols);
        let sim = backend.stats().total_seconds();
        assert!(
            est >= 0.5 * sim,
            "calibrated estimate {est} still underestimates simulated {sim}"
        );
    }
}
