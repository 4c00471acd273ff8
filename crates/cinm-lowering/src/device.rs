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
//!   set instead of hard-coding model structs. [`CostModel::price`] answers
//!   seconds and joules of one [`CnmOp`] in one call. The model is also the
//!   support rule: a device supports an op exactly when its model prices it;
//! * **execution** — [`Device::run`] takes the same [`CnmOp`] (usually the
//!   contiguous shard of work assigned to this device) with its operand
//!   slices and returns the result and the simulated seconds it cost. Empty
//!   ops return immediately without touching the device.
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
//! ops it builds the exact [`upmem_sim::KernelSpec`] the UPMEM backend
//! launches for the shard — the kernel of the op's [`CnmOp::geometry`],
//! generated by the same derivation as [`UpmemBackend::kernel_spec`] — and
//! asks [`upmem_sim::kernel_launch_cost`] for its time and energy on every
//! DPU of the grid, exactly as the simulator bills a launch. The model an
//! [`UpmemDevice`] hands out prices the code its backend runs (baseline,
//! `cinm-opt` or PrIM options); [`CnmCostModel::new`] prices `cinm-opt`.
//! The transfer terms (rank-parallel bulk transfers, the shard-size
//! independent broadcast of the stationary operand) are first-order.

use cpu_sim::kernels;
use cpu_sim::model::{CpuModel, OpCounts};
use memristor_sim::CrossbarConfig;
use upmem_sim::{kernel_launch_cost, UpmemConfig};

use crate::backend::{CimBackend, UpmemBackend};
use crate::cim_schedule::CimSchedule;
use crate::cnm_op::{CnmOp, KernelCodegen, MramLayout};
pub use crate::pinned::{DeviceFuture, ShardOp};
use crate::sharded::ShardError;

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
// Shard shapes (`cinm_core::shard` re-exports this type)
// ---------------------------------------------------------------------------

/// Shape of one shardable operation ([`CnmOp::shard_shape`]). The sharded
/// dimension is `work`; each work unit consumes `inner` elements of the
/// sharded operand and produces `out` result elements:
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
}

// ---------------------------------------------------------------------------
// Op classification shared by the default models
// ---------------------------------------------------------------------------

/// Host operation counts of one shardable op (`None` for the rest).
fn host_counts(op: CnmOp) -> Option<OpCounts> {
    Some(match op {
        CnmOp::Gemm { m, k, n } => OpCounts::gemm(m, k, n),
        CnmOp::Gemv { rows, cols } => OpCounts::gemv(rows, cols),
        CnmOp::Elementwise { len, .. } => OpCounts::elementwise(len),
        CnmOp::Reduce { len, .. } => OpCounts::reduce(len),
        CnmOp::Histogram { bins, len, .. } => OpCounts::histogram(len, bins),
        _ => return None,
    })
}

/// The refusal of a device to run an op its cost model does not price.
fn unsupported(device: Target, op: CnmOp) -> ShardError {
    ShardError::Unsupported {
        device,
        op: op.mnemonic(),
    }
}

// ---------------------------------------------------------------------------
// The per-device cost models (the "cost hookup" of the Device trait)
// ---------------------------------------------------------------------------

/// The estimated price of one op on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Execution seconds.
    pub seconds: f64,
    /// Energy in joules.
    pub joules: f64,
}

/// A device cost model, registered by a device dialect (paper Section 3.3):
/// the one estimate the shard planner sizes shards by and the target
/// selector ranks devices by. A device supports an op exactly when its
/// model prices it (returns `Some`). Planners are built from a device set
/// via [`Device::cost`].
pub trait CostModel: Send {
    /// The device the estimate describes.
    fn target(&self) -> Target;

    /// Estimated seconds and joules of an op (usually one shard of a larger
    /// op), or `None` if the device cannot execute it. Planners sample this
    /// at several shard sizes ([`CnmOp::with_work`]) to separate fixed
    /// per-dispatch overheads from marginal per-unit cost, and place by
    /// seconds or joules (`ShardPolicy::MinimizeEnergy`) from the same call.
    fn price(&self, op: CnmOp) -> Option<Cost>;
}

/// First-order cost model of the UPMEM grid, mirroring the simulator's cost
/// structure: bulk transfers of the sharded operand are rank-parallel, the
/// stationary matmul operand is **broadcast** (replicated through one rank's
/// channel per rank-sized image — shard-size independent, and the dominant
/// fixed cost for wide GEMMs). The kernel term of matmul-like ops is
/// **calibrated against the simulator** (see the
/// [module documentation](self)): the model prices the per-DPU kernel of the
/// op's [`CnmOp::geometry`] — the one the backend launches, with the code the
/// backend generates — with [`upmem_sim::kernel_launch_cost`], so DMA setup
/// inefficiency at low rows/DPU is priced in instead of ignored.
#[derive(Debug)]
pub struct CnmCostModel {
    config: UpmemConfig,
    /// How the priced kernels are generated.
    codegen: KernelCodegen,
}

impl CnmCostModel {
    /// Creates the model of the `cinm-opt` code (locality-optimised, derived
    /// WRAM tile, no instruction overhead) from a machine configuration.
    pub fn new(config: UpmemConfig) -> Self {
        let codegen = KernelCodegen::new(true, 1.0, None, config.tasklets, config.wram_bytes);
        CnmCostModel { config, codegen }
    }

    /// The model of the kernels `backend` launches, on its machine.
    pub(crate) fn of(backend: &UpmemBackend) -> Self {
        let config = backend.system().config().clone();
        let codegen = backend.codegen();
        CnmCostModel { config, codegen }
    }

    /// `(seconds, joules)` of the op's kernel term. Matmul-like ops take the
    /// calibrated path: the geometry's per-DPU kernel under this model's
    /// code generation (buffer ids are placeholders the cost is independent
    /// of), priced by the simulator's own launch cost on every DPU of the
    /// grid with the launch's tasklets — bit for bit what a launch bills.
    /// Streaming ops use the first-order closed form: one load-op-store
    /// stream per element on the slowest DPU; per-unit cycles approximate
    /// retired instructions (single-issue pipeline), each element crosses
    /// the MRAM↔WRAM interface three times, and every DPU burns leakage
    /// while the slowest finishes.
    fn kernel(&self, op: CnmOp) -> (f64, f64) {
        let cfg = &self.config;
        let i = &cfg.instr;
        let dpus = cfg.num_dpus().max(1);
        let geometry = op.geometry(dpus);
        if matches!(op, CnmOp::Gemm { .. } | CnmOp::Gemv { .. }) {
            let spec = self.codegen.spec(geometry.kernel, vec![0, 0], 1);
            let tasklets = spec.tasklets.unwrap_or(cfg.tasklets);
            let launch = kernel_launch_cost(cfg, &spec, tasklets, dpus);
            return (launch.seconds, launch.energy_j);
        }
        let work = op.work() as f64;
        let (MramLayout::Chunk(units) | MramLayout::Broadcast(units)) = geometry.inputs[0];
        let cycles_per_unit = 3.0 * i.wram_access + i.alu + 0.5 * i.branch;
        let seconds = units as f64 * cycles_per_unit / cfg.dpu_freq_hz;
        let joules = work * cycles_per_unit * cfg.energy.pipeline_j_per_instr
            + 3.0 * work * 4.0 * cfg.energy.dma_j_per_byte
            + seconds * cfg.energy.static_w_per_dpu * dpus as f64;
        (seconds, joules)
    }
}

impl CostModel for CnmCostModel {
    fn target(&self) -> Target {
        Target::Cnm
    }

    /// The kernel term (see `CnmCostModel::kernel`) of a shardable op plus
    /// its transfers.
    ///
    /// Transfers: the sharded operand in and the result out are
    /// rank-parallel (reductions and histograms gather only small per-DPU
    /// partials; element-wise ops read two operands); the stationary
    /// operand of matmul-like ops is broadcast — every DPU receives its own
    /// copy, and the interface energy bills each one, exactly as
    /// [`upmem_sim::SystemStats`] accounts it.
    fn price(&self, op: CnmOp) -> Option<Cost> {
        let cfg = &self.config;
        let dpus = cfg.num_dpus().max(1);
        let rank_bw = cfg.host_bandwidth_per_rank_bytes_per_s * cfg.ranks.max(1) as f64;
        let shape = op.shard_shape()?;
        let work = shape.work as f64;
        let matmul_like = matches!(op, CnmOp::Gemm { .. } | CnmOp::Gemv { .. });
        let (kernel_s, kernel_j) = self.kernel(op);
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
        Some(Cost {
            seconds: kernel_s + transfer_s,
            joules: kernel_j + cfg.transfer_energy_j(interface_bytes),
        })
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
}

impl CostModel for CimCostModel {
    fn target(&self) -> Target {
        Target::Cim
    }

    fn price(&self, op: CnmOp) -> Option<Cost> {
        let dims = match op {
            CnmOp::Gemm { m, k, n } => (m, k, n),
            CnmOp::Gemv { rows, cols } => (rows, cols, 1),
            _ => return None,
        };
        let schedule = CimSchedule::new(dims, &self.config, self.flags);
        Some(Cost {
            seconds: schedule.seconds(&self.config),
            joules: schedule.joules(&self.config),
        })
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

    fn price(&self, op: CnmOp) -> Option<Cost> {
        let counts = host_counts(op)?;
        Some(Cost {
            seconds: self.model.execution_seconds(&counts),
            joules: self.model.energy_joules(&counts),
        })
    }
}

// ---------------------------------------------------------------------------
// The Device trait
// ---------------------------------------------------------------------------

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

/// A heterogeneous execution device: a cost hookup and a single execution
/// entry point (see the [module documentation](self)).
pub trait Device: Send {
    /// An owned snapshot of the device's cost model (the "cost hookup"):
    /// planners register this to size shards for the device. The device
    /// supports exactly the ops the model prices.
    fn cost(&self) -> Box<dyn CostModel>;

    /// Runs one op (usually one shard of a larger op) on its operand
    /// slices, returning the result and the simulated seconds it cost. Ops
    /// the cost model does not price return [`ShardError::Unsupported`]; an
    /// empty op (`op.work() == 0`) returns an empty result at zero cost
    /// without touching the device. Execution faults return their typed
    /// error and are recorded in the device's [`health`](Device::health).
    fn run(&mut self, op: CnmOp, operands: &[&[i32]]) -> Result<(Vec<i32>, f64), ShardError>;

    /// The benchmark's pinned form of [`run`](Device::run), kept in the
    /// crate's `pinned` module until the benchmark calls `run` itself.
    #[doc(hidden)]
    fn submit(&mut self, shard: &ShardOp<'_>) -> Result<DeviceFuture, ShardError> {
        crate::pinned::submit(self, shard)
    }

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
    /// *outside* [`run`](Device::run) (the session's resident-tensor
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
        Box::new(CnmCostModel::of(&self.backend))
    }

    fn run(&mut self, op: CnmOp, operands: &[&[i32]]) -> Result<(Vec<i32>, f64), ShardError> {
        if op.shard_shape().is_none() {
            return Err(unsupported(Target::Cnm, op));
        }
        if op.work() == 0 {
            return Ok((Vec::new(), 0.0));
        }
        let before = self.backend.stats().total_seconds();
        match self.backend.run_op(op, operands) {
            Ok(result) => {
                self.health.record_success();
                let sim_seconds = self.backend.stats().total_seconds() - before;
                Ok((result, sim_seconds))
            }
            Err(e) => Err(match e.mram_shortfall() {
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
            }),
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

    fn run(&mut self, op: CnmOp, operands: &[&[i32]]) -> Result<(Vec<i32>, f64), ShardError> {
        if !matches!(op, CnmOp::Gemm { .. } | CnmOp::Gemv { .. }) {
            return Err(unsupported(Target::Cim, op));
        }
        if op.work() == 0 {
            return Ok((Vec::new(), 0.0));
        }
        let before = self.backend.stats().total_seconds();
        let (a, b) = (operands[0], operands[1]);
        let result = match op {
            CnmOp::Gemm { m, k, n } => self.backend.try_gemm(a, b, m, k, n),
            CnmOp::Gemv { rows, cols } => self.backend.try_gemv(a, b, rows, cols),
            _ => unreachable!("the crossbar runs matmul-like ops only"),
        };
        match result {
            Ok(result) => {
                self.health.record_success();
                let sim_seconds = self.backend.stats().total_seconds() - before;
                Ok((result, sim_seconds))
            }
            Err(e) => {
                self.health.record_failure(e.is_permanent_fault());
                Err(ShardError::DeviceFault {
                    device: Target::Cim,
                    permanent: e.is_permanent_fault(),
                    message: e.to_string(),
                })
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
}

impl Device for HostDevice {
    fn cost(&self) -> Box<dyn CostModel> {
        Box::new(HostCostModel::new(self.model.clone()))
    }

    fn run(&mut self, op: CnmOp, operands: &[&[i32]]) -> Result<(Vec<i32>, f64), ShardError> {
        let Some(counts) = host_counts(op) else {
            return Err(unsupported(Target::Host, op));
        };
        if op.work() == 0 {
            return Ok((Vec::new(), 0.0));
        }
        let a = operands[0];
        let result = match op {
            CnmOp::Gemm { m, k, n } => kernels::matmul(a, operands[1], m, k, n),
            CnmOp::Gemv { rows, cols } => kernels::matvec(a, operands[1], rows, cols),
            CnmOp::Elementwise { op, .. } => {
                kernels::elementwise(a, operands[1], |x, y| op.apply(x, y))
            }
            CnmOp::Reduce { op, .. } => {
                vec![a.iter().fold(op.identity(), |acc, &v| op.apply(acc, v))]
            }
            CnmOp::Histogram {
                bins, max_value, ..
            } => kernels::histogram(a, bins, max_value),
            _ => unreachable!("the host prices the shardable ops only"),
        };
        let seconds = self.model.execution_seconds(&counts);
        self.sim_seconds += seconds;
        Ok((result, seconds))
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
    use upmem_sim::BinOp;

    fn small_upmem_device() -> UpmemDevice {
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 8;
        UpmemDevice::new(UpmemBackend::with_config(cfg, UpmemRunOptions::optimized()))
    }

    #[test]
    fn shard_op_metadata_is_consistent() {
        // A shard's op carries its shard shape, work and operand count.
        let gemm = CnmOp::Gemm { m: 3, k: 4, n: 3 };
        assert_eq!(gemm.shard_shape(), Some(ShardShape::matmul(3, 4, 3)));
        assert_eq!((gemm.work(), gemm.arity()), (3, 2));
        assert_eq!(gemm.with_work(7), CnmOp::Gemm { m: 7, k: 4, n: 3 });
        let max = CnmOp::Elementwise {
            op: BinOp::Max,
            len: 12,
        };
        assert_eq!(max.shard_shape(), Some(ShardShape::streaming(12)));
        assert_eq!((max.work(), max.arity()), (12, 2));
        let sum = CnmOp::Reduce {
            op: BinOp::Add,
            len: 12,
        };
        assert_eq!((sum.work(), sum.arity()), (12, 1));
    }

    #[test]
    fn devices_report_their_capabilities() {
        // One support rule: the cost hookup prices an op exactly when `run`
        // accepts it, and `select` (a CNM-only PrIM kernel) is not plannable.
        let v = vec![1i32; 16];
        let ops: [(CnmOp, &[&[i32]]); 4] = [
            (CnmOp::Gemv { rows: 4, cols: 4 }, &[&v, &v[..4]]),
            (
                CnmOp::Reduce {
                    op: BinOp::Add,
                    len: 16,
                },
                &[&v],
            ),
            (
                CnmOp::Elementwise {
                    op: BinOp::Add,
                    len: 16,
                },
                &[&v, &v],
            ),
            (
                CnmOp::Select {
                    threshold: 0,
                    len: 16,
                },
                &[&v],
            ),
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
            for (op, operands) in ops {
                let ran = device.run(op, operands);
                let refused = matches!(ran, Err(ShardError::Unsupported { .. }));
                assert_eq!(cost.price(op).is_some(), !refused, "{target}: {op:?}");
            }
        }
    }

    #[test]
    fn unsupported_submissions_error_and_empty_shards_are_free() {
        let mut cim = CimDevice::new(CimBackend::new(CimRunOptions::optimized()));
        let v = vec![1i32; 8];
        let add = CnmOp::Elementwise {
            op: BinOp::Add,
            len: 8,
        };
        let err = cim.run(add, &[&v, &v]).unwrap_err();
        assert!(matches!(err, ShardError::Unsupported { .. }));
        // Empty shards resolve without touching the device.
        let before = cim.sim_seconds();
        let empty = CnmOp::Gemv { rows: 0, cols: 8 };
        let (result, secs) = cim.run(empty, &[&[], &v]).unwrap();
        assert!(result.is_empty());
        assert_eq!(secs, 0.0);
        assert_eq!(cim.sim_seconds(), before);
    }

    #[test]
    fn cnm_calibration_matches_the_simulated_kernel_time() {
        // A device's model prices the kernel term of gemm and gemv bit for
        // bit as the simulator bills the launch, whatever code the device
        // runs (baseline, `cinm-opt`, PrIM at two overheads) and however the
        // rows fall on the grid: fewer rows than DPUs, one row per DPU, and
        // a row count that is not a multiple of the DPU count.
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 8;
        let prim = |instruction_overhead| UpmemRunOptions {
            instruction_overhead,
            wram_tile_elems: Some(256),
            ..UpmemRunOptions::optimized()
        };
        let options = [
            UpmemRunOptions::default(),
            UpmemRunOptions::optimized(),
            prim(1.7),
            prim(3.4),
        ];
        let (k, n) = (40, 3);
        let b = vec![1i32; k * n];
        for opts in options {
            for rows in [3, 8, 21] {
                let a = vec![1i32; rows * k];
                for op in [CnmOp::Gemm { m: rows, k, n }, CnmOp::Gemv { rows, cols: k }] {
                    let mut backend = UpmemBackend::with_config(cfg.clone(), opts.clone());
                    match op {
                        CnmOp::Gemm { .. } => backend.gemm(&a, &b, rows, k, n),
                        _ => backend.gemv(&a, &b[..k], rows, k),
                    };
                    let billed = backend.stats();
                    assert_eq!(
                        CnmCostModel::of(&backend).kernel(op),
                        (billed.kernel_seconds, billed.kernel_energy_j),
                        "{op:?} under {opts:?}"
                    );
                }
            }
        }
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
            .price(CnmOp::Gemv { rows: dpus, cols })
            .unwrap()
            .seconds;
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
