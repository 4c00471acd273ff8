//! Heterogeneous sharded execution: one `cinm` op across UPMEM + CIM + host.
//!
//! The paper's central claim is that a single abstraction can target
//! heterogeneous CIM *and* CNM devices. [`ShardedBackend`] takes that one
//! step further than per-op target selection: it owns all three device
//! back-ends at once — an [`UpmemBackend`] (CNM), a [`CimBackend`] (CIM) and
//! a host executor running the `cpu_sim` golden kernels under a
//! [`CpuModel`] roofline — and co-executes **a single operation** across
//! them. GEMM/GEMV are sharded by contiguous output-row ranges,
//! element-wise/reduction/histogram ops by contiguous element ranges; the
//! shard sizes come from a [`ShardSplit`] (typically produced by the
//! `cinm-core` shard planner from registered cost models).
//!
//! The non-empty shards of a split over several devices run
//! **concurrently** in one scope of the shared [`cinm_runtime::WorkerPool`],
//! each driving its own device back-end; nested pool scopes are
//! deadlock-free (helping waits), so a device task fanning its functional
//! simulation out over the same pool is fine. An op placed whole on one
//! device — what the planner chooses for every small op — runs on the
//! calling thread without a scope. Each shard writes its part of the
//! caller's result vector, so sharded execution is **bit-identical** to
//! the `cpu_sim::kernels` goldens:
//!
//! * GEMM/GEMV/element-wise: each device writes its row/element range of
//!   the one result — each output element is computed by exactly one device
//!   with the same wrapping `i32` arithmetic.
//! * Reduce: an op on one device is that device's fold; over several
//!   devices the per-shard partials are folded in shard order, which equals
//!   the sequential fold for the associative [`BinOp`]s (wrapping add is
//!   exact mod 2³²) but not for `Sub` and `Div`.
//! * Histogram: per-shard counts summed per bin (addition commutes).

use std::sync::atomic::{AtomicUsize, Ordering};

use cinm_runtime::PoolHandle;
use cpu_sim::model::CpuModel;
use memristor_sim::CrossbarConfig;
use upmem_sim::{BinOp, UpmemConfig};

use crate::backend::{CimBackend, CimRunOptions, UpmemBackend, UpmemRunOptions};
use crate::cnm_op::CnmOp;
use crate::device::{CimDevice, Device, HostDevice, Target, UpmemDevice};

/// Errors of sharded planning/execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// User-forced fractions do not sum to 1 (within `1e-6`). Fractions are
    /// **never silently renormalised** — fix the input instead.
    FractionSum {
        /// The actual sum of the provided fractions.
        sum: f64,
    },
    /// A fraction is negative or not finite.
    InvalidFraction {
        /// The offending value.
        value: f64,
    },
    /// The split covers a different amount of work than the op provides.
    WorkMismatch {
        /// Work units of the operation.
        expected: usize,
        /// Work units covered by the split.
        got: usize,
    },
    /// A non-empty shard was assigned to a device that cannot execute the op
    /// (e.g. an element-wise shard on the MVM-only crossbar backend).
    Unsupported {
        /// The device the shard was assigned to.
        device: Target,
        /// Name of the operation.
        op: &'static str,
    },
    /// An operand does not match the declared op shape (e.g. `a.len()`
    /// disagrees with `m × k`).
    ShapeMismatch {
        /// Name of the operation.
        op: &'static str,
        /// What was mis-shaped (e.g. `"lhs elements"`).
        what: &'static str,
        /// The size the op shape requires.
        expected: usize,
        /// The size actually provided.
        got: usize,
    },
    /// A device reported an execution fault while running its shard: an
    /// injected transient that outlived the per-command retry budget, or a
    /// permanent hardware fault. The device's
    /// [`health`](crate::device::Device::health) records the failure;
    /// permanent faults are what re-planning routes around.
    DeviceFault {
        /// The faulting device.
        device: Target,
        /// Whether the fault is permanent (the device will not recover).
        permanent: bool,
        /// The device's error message.
        message: String,
    },
    /// A device task panicked while executing its shard (a simulator bug,
    /// not a modelled fault). The panic is contained to the shard and
    /// surfaced as a typed error instead of tearing the process down.
    ExecutionPanic {
        /// The panicking device.
        device: Target,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The per-DPU MRAM limit cannot fit the graph's true working set even
    /// after evicting every eviction-eligible resident tensor. Unlike a
    /// [`ShardError::DeviceFault`] this is not recoverable by retrying or
    /// re-planning — the limit (or the graph) has to change.
    MramExhausted {
        /// Per-DPU bytes the failed allocation needed.
        needed_bytes: usize,
        /// Per-DPU bytes still available under the limit after eviction.
        available_bytes: usize,
    },
}

impl ShardError {
    /// The faulting device of a device failure — a
    /// [`ShardError::DeviceFault`] or [`ShardError::ExecutionPanic`], which
    /// re-planning around the device recovers from; `None` for validation
    /// errors, which re-planning cannot recover from.
    pub fn failed_device(&self) -> Option<Target> {
        match self {
            ShardError::DeviceFault { device, .. } | ShardError::ExecutionPanic { device, .. } => {
                Some(*device)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::FractionSum { sum } => write!(
                f,
                "shard fractions must sum to 1 (got {sum}); fractions are not renormalised"
            ),
            ShardError::InvalidFraction { value } => {
                write!(f, "shard fraction {value} is not a finite value in [0, 1]")
            }
            ShardError::WorkMismatch { expected, got } => write!(
                f,
                "shard split covers {got} work units but the op has {expected}"
            ),
            ShardError::Unsupported { device, op } => {
                write!(f, "device '{device}' cannot execute a shard of {op}")
            }
            ShardError::ShapeMismatch {
                op,
                what,
                expected,
                got,
            } => write!(f, "{op}: expected {expected} {what}, got {got}"),
            ShardError::DeviceFault {
                device,
                permanent,
                message,
            } => {
                let kind = if *permanent { "permanent" } else { "transient" };
                write!(f, "device '{device}' hit a {kind} fault: {message}")
            }
            ShardError::ExecutionPanic { device, message } => {
                write!(
                    f,
                    "device '{device}' panicked executing its shard: {message}"
                )
            }
            ShardError::MramExhausted {
                needed_bytes,
                available_bytes,
            } => write!(
                f,
                "MRAM limit cannot fit the working set: an allocation of \
                 {needed_bytes} bytes per DPU found only {available_bytes} \
                 available after eviction"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// How many contiguous work units (GEMM/GEMV rows, element-wise/reduce/
/// histogram elements) each device executes, in the fixed `[cnm, cim, host]`
/// shard order. Shards are contiguous: CNM owns `[0, cnm)`, CIM owns
/// `[cnm, cnm + cim)`, the host owns the tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardSplit {
    /// Work units executed by the UPMEM backend.
    pub cnm: usize,
    /// Work units executed by the crossbar backend.
    pub cim: usize,
    /// Work units executed on the host.
    pub host: usize,
}

impl ShardSplit {
    /// Total work units covered by the split.
    pub fn total(&self) -> usize {
        self.cnm + self.cim + self.host
    }

    /// All work on the UPMEM backend.
    pub fn all_cnm(total: usize) -> Self {
        ShardSplit {
            cnm: total,
            ..Default::default()
        }
    }

    /// All work on the crossbar backend.
    pub fn all_cim(total: usize) -> Self {
        ShardSplit {
            cim: total,
            ..Default::default()
        }
    }

    /// All work on the host.
    pub fn all_host(total: usize) -> Self {
        ShardSplit {
            host: total,
            ..Default::default()
        }
    }

    /// Work units of a device.
    pub fn get(&self, device: Target) -> usize {
        match device {
            Target::Cnm => self.cnm,
            Target::Cim => self.cim,
            Target::Host => self.host,
        }
    }

    /// Work fractions in `[cnm, cim, host]` order (all zero for empty work).
    pub fn fractions(&self) -> [f64; 3] {
        let total = self.total();
        if total == 0 {
            return [0.0; 3];
        }
        [self.cnm, self.cim, self.host].map(|w| w as f64 / total as f64)
    }

    /// Builds a split of `total` work units from user-provided fractions in
    /// `[cnm, cim, host]` order.
    ///
    /// The fractions must be finite, non-negative and sum to 1 within
    /// `1e-6`; anything else is an error — the split is **never silently
    /// renormalised** (a residual within that tolerance is scaled out
    /// before rounding, which can shift at most the rounding of single
    /// units). Work units are apportioned by the largest-remainder method,
    /// so the counts always sum to exactly `total` and the rounding is
    /// deterministic (remainder ties break in `[cnm, cim, host]` order).
    pub fn from_fractions(total: usize, fractions: [f64; 3]) -> Result<ShardSplit, ShardError> {
        for &f in &fractions {
            if !f.is_finite() || !(0.0..=1.0 + 1e-9).contains(&f) {
                return Err(ShardError::InvalidFraction { value: f });
            }
        }
        let sum: f64 = fractions.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(ShardError::FractionSum { sum });
        }
        // Largest-remainder apportionment over fractions scaled by the
        // actual sum: within the accepted tolerance this is a no-op up to
        // float error, but it guarantees the floored units can never exceed
        // `total` (a 1e-7 excess times a large `total` would otherwise
        // round to whole extra units and underflow the leftover).
        let raw: Vec<f64> = fractions.iter().map(|f| f / sum * total as f64).collect();
        let mut units: Vec<usize> = raw.iter().map(|&r| r.floor() as usize).collect();
        let mut leftover = total.saturating_sub(units.iter().sum::<usize>());
        let mut order: Vec<usize> = (0..3).collect();
        order.sort_by(|&i, &j| {
            let ri = raw[i] - raw[i].floor();
            let rj = raw[j] - raw[j].floor();
            rj.partial_cmp(&ri).unwrap().then(i.cmp(&j))
        });
        for &i in &order {
            if leftover == 0 {
                break;
            }
            units[i] += 1;
            leftover -= 1;
        }
        // Mathematically the leftover is < 3; any float-error residue goes
        // to the largest remainder so the split always covers `total`.
        units[order[0]] += leftover;
        debug_assert_eq!(units.iter().sum::<usize>(), total);
        Ok(ShardSplit {
            cnm: units[0],
            cim: units[1],
            host: units[2],
        })
    }
}

/// Options of a [`ShardedBackend`].
#[derive(Debug, Clone)]
pub struct ShardedRunOptions {
    /// DIMMs of the UPMEM machine backing the CNM shard.
    pub ranks: usize,
    /// Code-generation options of the UPMEM shard.
    pub upmem: UpmemRunOptions,
    /// Code-generation options of the crossbar shard.
    pub cim: CimRunOptions,
    /// Explicit crossbar hardware configuration (geometry, fault schedule).
    /// `None` keeps the default [`CrossbarConfig`]; fault-injection harnesses
    /// attach a [`cinm_runtime::FaultConfig`] through this.
    pub cim_config: Option<CrossbarConfig>,
    /// Roofline model timing the host shard.
    pub host_model: CpuModel,
    /// The shared worker pool all three device tasks are dispatched onto
    /// (and which both simulators use internally). The experiment harnesses
    /// pass one pool per sweep.
    pub pool: PoolHandle,
}

impl Default for ShardedRunOptions {
    fn default() -> Self {
        ShardedRunOptions {
            ranks: 16,
            upmem: UpmemRunOptions::optimized(),
            cim: CimRunOptions::optimized(),
            cim_config: None,
            host_model: CpuModel::arm_host(),
            pool: PoolHandle::global(),
        }
    }
}

impl ShardedRunOptions {
    /// Overrides the number of UPMEM DIMMs.
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks;
        self
    }

    /// Attaches a shared worker pool (also handed to both simulators).
    pub fn with_pool(mut self, pool: PoolHandle) -> Self {
        self.pool = pool;
        self
    }

    /// Overrides the host worker threads of both functional simulators.
    pub fn with_host_threads(mut self, host_threads: usize) -> Self {
        self.upmem.host_threads = host_threads;
        self.cim.host_threads = host_threads;
        self
    }

    /// Attaches an explicit crossbar configuration (fault harnesses inject
    /// CIM fault schedules through this).
    pub fn with_cim_config(mut self, config: CrossbarConfig) -> Self {
        self.cim_config = Some(config);
        self
    }
}

/// Accumulated statistics of sharded execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// Sharded operations executed.
    pub ops: u64,
    /// Work units executed per device, `[cnm, cim, host]`.
    pub work: [u64; 3],
    /// Simulated seconds per device.
    pub sim_seconds: [f64; 3],
    /// Accumulated simulated makespan: per op, the slowest device shard
    /// defines the op's completion time (the devices run concurrently).
    pub sim_makespan_seconds: f64,
    /// Maximum number of device tasks observed in flight simultaneously —
    /// ≥ 2 demonstrates the back-ends genuinely overlap on the pool.
    pub max_concurrent: usize,
}

impl ShardStats {
    /// Work fractions per device over everything executed so far.
    pub fn fractions(&self) -> [f64; 3] {
        let total: u64 = self.work.iter().sum();
        if total == 0 {
            return [0.0; 3];
        }
        self.work.map(|w| w as f64 / total as f64)
    }

    /// Per-device utilisation: simulated busy time over the simulated
    /// makespan. A perfectly balanced plan is `1.0` everywhere.
    pub fn utilization(&self) -> [f64; 3] {
        if self.sim_makespan_seconds <= 0.0 {
            return [0.0; 3];
        }
        self.sim_seconds.map(|s| s / self.sim_makespan_seconds)
    }
}

/// Tracks how many device tasks are in flight at once.
#[derive(Default)]
struct ConcurrencyTracker {
    current: AtomicUsize,
    max: AtomicUsize,
}

struct ConcurrencyGuard<'a>(&'a ConcurrencyTracker);

impl ConcurrencyTracker {
    fn enter(&self) -> ConcurrencyGuard<'_> {
        let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        self.max.fetch_max(now, Ordering::SeqCst);
        ConcurrencyGuard(self)
    }
}

impl Drop for ConcurrencyGuard<'_> {
    fn drop(&mut self) {
        self.0.current.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-device outcome of one sharded dispatch.
#[derive(Default)]
struct ShardOutcome {
    /// Why the shard failed, if it did.
    error: Option<ShardError>,
    /// Simulated seconds the shard took on its device.
    sim_seconds: f64,
}

/// One device's shard of a dispatch: the op at the shard's work, its operand
/// slices and its part of the result.
type Shard<'a> = (CnmOp, [&'a [i32]; 2], &'a mut [i32]);

/// Best-effort string of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The heterogeneous sharded execution backend: owns all three devices
/// behind the unified [`Device`] trait and co-executes one operation across
/// them (see the module docs for the sharding and merge rules).
///
/// Every shard is the op's [`CnmOp`] at the shard's work, handed to
/// [`Device::run`] with its operand slices; [`ShardedBackend::run_into`] is
/// the one dispatch (check, slice, run each non-empty shard, merge), and
/// [`ShardedBackend::run`] and the per-op methods wrap it. The wrapped
/// eager back-ends stay reachable ([`ShardedBackend::upmem`],
/// [`ShardedBackend::cim_backend`]) as the equivalence oracle.
#[derive(Debug)]
pub struct ShardedBackend {
    cnm: UpmemDevice,
    cim: CimDevice,
    host: HostDevice,
    pool: PoolHandle,
    stats: ShardStats,
}

impl ShardedBackend {
    /// Creates a backend. All three devices share `options.pool`.
    pub fn new(options: ShardedRunOptions) -> Self {
        let upmem_options = options.upmem.clone().with_pool(options.pool.clone());
        let cim_options = options.cim.clone().with_pool(options.pool.clone());
        let cim_config = options.cim_config.clone().unwrap_or_default();
        ShardedBackend {
            cnm: UpmemDevice::new(UpmemBackend::new(options.ranks, upmem_options)),
            cim: CimDevice::new(CimBackend::with_config(cim_config, cim_options)),
            host: HostDevice::new(options.host_model),
            pool: options.pool,
            stats: ShardStats::default(),
        }
    }

    /// Creates a backend with an explicit UPMEM configuration (test harnesses
    /// use small grids).
    pub fn with_upmem_config(config: UpmemConfig, options: ShardedRunOptions) -> Self {
        let upmem_options = options.upmem.clone().with_pool(options.pool.clone());
        let cim_options = options.cim.clone().with_pool(options.pool.clone());
        let cim_config = options.cim_config.clone().unwrap_or_default();
        ShardedBackend {
            cnm: UpmemDevice::new(UpmemBackend::with_config(config, upmem_options)),
            cim: CimDevice::new(CimBackend::with_config(cim_config, cim_options)),
            host: HostDevice::new(options.host_model),
            pool: options.pool,
            stats: ShardStats::default(),
        }
    }

    /// Accumulated sharded-execution statistics.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Resets all statistics (including the devices').
    pub fn reset_stats(&mut self) {
        self.cnm.reset_stats();
        self.cim.reset_stats();
        self.host.reset_stats();
        self.stats = ShardStats::default();
    }

    /// Number of DPUs backing the CNM shard.
    pub fn num_dpus(&self) -> usize {
        self.cnm.backend().num_dpus()
    }

    /// The device of a shard slot, behind the unified trait.
    pub fn device(&self, device: Target) -> &dyn Device {
        match device {
            Target::Cnm => &self.cnm,
            Target::Cim => &self.cim,
            Target::Host => &self.host,
        }
    }

    /// Mutable access to the device of a shard slot.
    pub fn device_mut(&mut self, device: Target) -> &mut dyn Device {
        match device {
            Target::Cnm => &mut self.cnm,
            Target::Cim => &mut self.cim,
            Target::Host => &mut self.host,
        }
    }

    /// The wrapped eager UPMEM backend (equivalence oracle; the session's
    /// resident-tensor compiler drives its system directly).
    pub fn upmem(&self) -> &UpmemBackend {
        self.cnm.backend()
    }

    /// Mutable access to the wrapped UPMEM backend.
    pub fn upmem_mut(&mut self) -> &mut UpmemBackend {
        self.cnm.backend_mut()
    }

    /// The wrapped eager crossbar backend.
    pub fn cim_backend(&self) -> &CimBackend {
        self.cim.backend()
    }

    /// [`run_into`](Self::run_into) a new vector: what the eager callers
    /// and the per-op methods below wrap.
    ///
    /// # Errors
    ///
    /// Those of `run_into`.
    pub fn run(
        &mut self,
        op: CnmOp,
        operands: &[&[i32]],
        split: &ShardSplit,
    ) -> Result<Vec<i32>, ShardError> {
        let mut out = Vec::new();
        self.run_into(op, operands, split, &mut out)?;
        Ok(out)
    }

    /// Co-executes one shardable op across the device set into `out`, which
    /// it overwrites (resizing it to the result and reusing its storage) —
    /// the one dispatch, which [`run`](Self::run) and the session's planned
    /// ops call.
    ///
    /// A split on one device calls that device's [`Device::run`] straight
    /// into `out` on this thread. A split over several devices slices the
    /// operands by contiguous work ranges in `[cnm, cim, host]` order (the
    /// stationary operand of `gemm`/`gemv` goes to every device whole) and
    /// runs one task per non-empty shard in one pool scope:
    /// `gemm`/`gemv`/element-wise shards write their ranges of the result;
    /// `reduce` partials are folded in shard order into a one-element
    /// result, and `histogram` partials summed per bin. Zero work returns
    /// the op's identity without touching a device.
    ///
    /// A panicking device task is caught and converted to
    /// [`ShardError::ExecutionPanic`], and failures are contained per
    /// shard: the other shards still run (and are accounted) before the
    /// first failing device's error, in `[cnm, cim, host]` order, is
    /// returned; `out` is then unspecified.
    ///
    /// # Errors
    ///
    /// Mis-shaped operands, a split that does not cover the op's work, a
    /// non-empty shard on a device that cannot execute the op (the crossbar
    /// models analog MVM only; `select`/`time_series`/`bfs_step` are not
    /// shardable at all), or the first failing device's execution error.
    pub fn run_into(
        &mut self,
        op: CnmOp,
        operands: &[&[i32]],
        split: &ShardSplit,
        out: &mut Vec<i32>,
    ) -> Result<(), ShardError> {
        let name = op.mnemonic();
        let unsupported = |device| ShardError::Unsupported { device, op: name };
        let mismatch = |what, expected, got| ShardError::ShapeMismatch {
            op: name,
            what,
            expected,
            got,
        };
        let shape = op.shard_shape().ok_or(unsupported(Target::Host))?;
        // The sharded operand holds `inner` elements per work unit; the
        // second one is the stationary `inner × out` operand of a
        // matmul-like op, or the equally sharded rhs of an element-wise op.
        let matmul_like = matches!(op, CnmOp::Gemm { .. } | CnmOp::Gemv { .. });
        let rhs_len = if matmul_like {
            shape.inner * shape.out
        } else {
            shape.work
        };
        let names = match op {
            CnmOp::Gemv { .. } => ["matrix elements", "vector elements"],
            _ => ["lhs elements", "rhs elements"],
        };
        if operands.len() != op.arity() {
            return Err(mismatch("operands", op.arity(), operands.len()));
        }
        for ((data, expected), what) in operands
            .iter()
            .zip([shape.work * shape.inner, rhs_len])
            .zip(names)
        {
            if data.len() != expected {
                return Err(mismatch(what, expected, data.len()));
            }
        }
        if let CnmOp::Histogram { bins: 0, .. } = op {
            return Err(mismatch("bins (at least one)", 1, 0));
        }
        if split.total() != shape.work {
            return Err(ShardError::WorkMismatch {
                expected: shape.work,
                got: split.total(),
            });
        }
        if !matmul_like && split.cim > 0 {
            return Err(unsupported(Target::Cim));
        }
        // A reduction or histogram shard writes a partial of the result's
        // length, the others their range of the result itself.
        let partial = match op {
            CnmOp::Reduce { .. } => Some(1),
            CnmOp::Histogram { bins, .. } => Some(bins),
            _ => None,
        };
        let out_len = partial.unwrap_or(shape.work * shape.out);
        out.clear();
        if shape.work == 0 {
            out.resize(out_len, 0);
            if let CnmOp::Reduce { op, .. } = op {
                out[0] = op.identity();
            }
            return Ok(());
        }
        let run = |device: &mut dyn Device, (op, operands, out): Shard<'_>, slot| {
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                device.run(op, &operands[..op.arity()], out)
            }))
            .unwrap_or_else(|payload| {
                Err(ShardError::ExecutionPanic {
                    device: slot,
                    message: panic_message(payload.as_ref()),
                })
            });
            ShardOutcome {
                sim_seconds: *ran.as_ref().unwrap_or(&0.0),
                error: ran.err(),
            }
        };
        let mut outcomes: [ShardOutcome; 3] = Default::default();
        let lone = Target::ALL
            .into_iter()
            .find(|&t| split.get(t) == shape.work);
        let in_flight = if let Some(device) = lone {
            // The whole op on one device, straight into `out`.
            out.resize(out_len, 0);
            let operands = [operands[0], operands.get(1).copied().unwrap_or(&[])];
            let shard = (op, operands, &mut out[..]);
            outcomes[device.index()] = run(self.device_mut(device), shard, device);
            1
        } else {
            out.resize(out_len * if partial.is_some() { 3 } else { 1 }, 0);
            let (mut lo, mut rest) = (0, &mut out[..]);
            let shards = Target::ALL.map(|device| {
                let hi = lo + split.get(device);
                let len = partial.unwrap_or((hi - lo) * shape.out);
                let (dst, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                let a = &operands[0][lo * shape.inner..hi * shape.inner];
                let b = match operands.get(1) {
                    Some(b) if !matmul_like => &b[lo..hi],
                    b => b.copied().unwrap_or(&[]),
                };
                lo = hi;
                (op.with_work(split.get(device)), [a, b], dst)
            });
            let devices: [&mut dyn Device; 3] = [&mut self.cnm, &mut self.cim, &mut self.host];
            let tracker = ConcurrencyTracker::default();
            let tracker = &tracker;
            let tasks = devices.into_iter().zip(shards).zip(outcomes.iter_mut());
            self.pool.get().scope(|s| {
                for (((device, shard), outcome), slot) in tasks.zip(Target::ALL) {
                    if shard.0.work() > 0 {
                        let label = ["cnm-shard", "cim-shard", "host-shard"][slot.index()];
                        s.spawn_labeled(label, move |_| {
                            let _in_flight = tracker.enter();
                            *outcome = run(device, shard, slot);
                        });
                    }
                }
            });
            tracker.max.load(Ordering::SeqCst)
        };
        self.stats.ops += 1;
        self.stats.max_concurrent = self.stats.max_concurrent.max(in_flight);
        let mut makespan = 0.0f64;
        for (i, device) in Target::ALL.iter().enumerate() {
            // Failed shards contribute no completed work (their partial
            // simulated time is still real and stays accounted).
            if outcomes[i].error.is_none() {
                self.stats.work[i] += split.get(*device) as u64;
            }
            self.stats.sim_seconds[i] += outcomes[i].sim_seconds;
            makespan = makespan.max(outcomes[i].sim_seconds);
        }
        self.stats.sim_makespan_seconds += makespan;
        if let Some(e) = outcomes.into_iter().find_map(|o| o.error) {
            return Err(e);
        }
        match op {
            CnmOp::Reduce { op, .. } if lone.is_none() => {
                let ran = out
                    .iter()
                    .zip(Target::ALL)
                    .filter(|&(_, d)| split.get(d) > 0);
                out[0] = ran.fold(op.identity(), |acc, (&p, _)| op.apply(acc, p));
                out.truncate(1);
            }
            // A shard that did not run left its bins zero.
            CnmOp::Histogram { .. } if lone.is_none() => {
                let (merged, others) = out.split_at_mut(out_len);
                for part in others.chunks_exact(out_len) {
                    for (m, count) in merged.iter_mut().zip(part) {
                        *m += count;
                    }
                }
                out.truncate(out_len);
            }
            _ => {}
        }
        Ok(())
    }

    /// Sharded `C[m×n] = A[m×k] × B[k×n]`: contiguous row ranges of A/C per
    /// device, B replicated to each. Bit-identical to
    /// [`cpu_sim::kernels::matmul`].
    pub fn gemm(
        &mut self,
        a: &[i32],
        b: &[i32],
        m: usize,
        k: usize,
        n: usize,
        split: &ShardSplit,
    ) -> Result<Vec<i32>, ShardError> {
        self.run(CnmOp::Gemm { m, k, n }, &[a, b], split)
    }

    /// Sharded `y[rows] = A[rows×cols] × x[cols]` by contiguous row ranges.
    /// Bit-identical to [`cpu_sim::kernels::matvec`].
    pub fn gemv(
        &mut self,
        a: &[i32],
        x: &[i32],
        rows: usize,
        cols: usize,
        split: &ShardSplit,
    ) -> Result<Vec<i32>, ShardError> {
        self.run(CnmOp::Gemv { rows, cols }, &[a, x], split)
    }

    /// Sharded element-wise binary op by contiguous element ranges. The
    /// crossbar backend models analog MVM only, so a non-empty CIM shard is
    /// an error; the planner's CIM cost model returns `None` for this op and
    /// never produces one. Bit-identical to the golden element-wise kernels.
    pub fn elementwise(
        &mut self,
        op: BinOp,
        a: &[i32],
        b: &[i32],
        split: &ShardSplit,
    ) -> Result<Vec<i32>, ShardError> {
        self.run(CnmOp::Elementwise { op, len: a.len() }, &[a, b], split)
    }

    /// Sharded reduction by contiguous element ranges. An empty input
    /// reduces to `op.identity()`.
    pub fn reduce(&mut self, op: BinOp, a: &[i32], split: &ShardSplit) -> Result<i32, ShardError> {
        Ok(self.run(CnmOp::Reduce { op, len: a.len() }, &[a], split)?[0])
    }

    /// Sharded histogram by contiguous element ranges; per-shard histograms
    /// are summed per bin. Bit-identical to [`cpu_sim::kernels::histogram`].
    pub fn histogram(
        &mut self,
        a: &[i32],
        bins: usize,
        max_value: i32,
        split: &ShardSplit,
    ) -> Result<Vec<i32>, ShardError> {
        let len = a.len();
        let op = CnmOp::Histogram {
            bins,
            max_value,
            len,
        };
        self.run(op, &[a], split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_sim::kernels;

    fn small_options(pool: PoolHandle) -> ShardedRunOptions {
        ShardedRunOptions::default().with_ranks(1).with_pool(pool)
    }

    fn small_backend() -> ShardedBackend {
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 8;
        ShardedBackend::with_upmem_config(cfg, small_options(PoolHandle::global()))
    }

    #[test]
    fn from_fractions_apportions_exactly_and_rejects_bad_input() {
        let s = ShardSplit::from_fractions(100, [0.5, 0.25, 0.25]).unwrap();
        assert_eq!(
            s,
            ShardSplit {
                cnm: 50,
                cim: 25,
                host: 25
            }
        );
        // Largest-remainder: counts always sum to the total.
        for total in [0usize, 1, 7, 97, 1000] {
            let s = ShardSplit::from_fractions(total, [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]).unwrap();
            assert_eq!(s.total(), total, "total {total}");
        }
        // A residual within the 1e-6 tolerance must not break the
        // apportionment at large totals (the floors would otherwise exceed
        // the total and underflow the leftover).
        for fractions in [[0.5, 0.5, 5e-7], [0.4999999, 0.4999999, 0.0]] {
            let s = ShardSplit::from_fractions(10_000_000, fractions).unwrap();
            assert_eq!(s.total(), 10_000_000, "{fractions:?}");
        }
        // Fractions that do not sum to 1 are an error, never renormalised.
        match ShardSplit::from_fractions(10, [0.5, 0.2, 0.2]) {
            Err(ShardError::FractionSum { sum }) => assert!((sum - 0.9).abs() < 1e-9),
            other => panic!("expected FractionSum error, got {other:?}"),
        }
        assert!(matches!(
            ShardSplit::from_fractions(10, [1.5, -0.25, -0.25]),
            Err(ShardError::InvalidFraction { .. })
        ));
        assert!(matches!(
            ShardSplit::from_fractions(10, [f64::NAN, 0.5, 0.5]),
            Err(ShardError::InvalidFraction { .. })
        ));
    }

    #[test]
    fn sharded_gemm_matches_golden_across_all_three_devices() {
        let (m, k, n) = (45, 24, 20);
        let a: Vec<i32> = (0..m * k).map(|i| (i % 13) as i32 - 6).collect();
        let b: Vec<i32> = (0..k * n).map(|i| (i % 7) as i32 - 3).collect();
        let golden = kernels::matmul(&a, &b, m, k, n);
        let mut be = small_backend();
        let split = ShardSplit {
            cnm: 20,
            cim: 15,
            host: 10,
        };
        let c = be.gemm(&a, &b, m, k, n, &split).unwrap();
        assert_eq!(c, golden);
        let stats = be.stats();
        assert_eq!(stats.work, [20, 15, 10]);
        assert!(stats.sim_seconds.iter().all(|&s| s > 0.0));
        assert!(stats.sim_makespan_seconds > 0.0);
        let f = stats.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sharded_streaming_ops_match_goldens() {
        let data: Vec<i32> = (0..999).map(|i| i * 37 % 256).collect();
        let other: Vec<i32> = (0..999).map(|i| 100 - i).collect();
        let mut be = small_backend();
        let split = ShardSplit {
            cnm: 700,
            cim: 0,
            host: 299,
        };
        assert_eq!(
            be.elementwise(BinOp::Add, &data, &other, &split).unwrap(),
            kernels::vector_add(&data, &other)
        );
        assert_eq!(
            be.reduce(BinOp::Add, &data, &split).unwrap(),
            kernels::reduce_add(&data)
        );
        assert_eq!(
            be.histogram(&data, 16, 256, &split).unwrap(),
            kernels::histogram(&data, 16, 256)
        );
    }

    #[test]
    fn zero_work_ops_return_identities_without_touching_devices() {
        let mut be = small_backend();
        let empty = ShardSplit::default();
        assert_eq!(
            be.gemm(&[], &[], 0, 0, 0, &empty).unwrap(),
            Vec::<i32>::new()
        );
        assert_eq!(be.gemv(&[], &[], 0, 0, &empty).unwrap(), Vec::<i32>::new());
        assert_eq!(
            be.elementwise(BinOp::Add, &[], &[], &empty).unwrap(),
            Vec::<i32>::new()
        );
        assert_eq!(be.reduce(BinOp::Add, &[], &empty).unwrap(), 0);
        assert_eq!(be.histogram(&[], 4, 16, &empty).unwrap(), vec![0; 4]);
        assert_eq!(be.stats().sim_makespan_seconds, 0.0);
    }

    #[test]
    fn mismatched_split_and_unsupported_cim_shard_are_errors() {
        let mut be = small_backend();
        let a = vec![1i32; 8 * 4];
        let b = vec![1i32; 4 * 4];
        let bad = ShardSplit {
            cnm: 5,
            cim: 0,
            host: 5,
        };
        assert_eq!(
            be.gemm(&a, &b, 8, 4, 4, &bad),
            Err(ShardError::WorkMismatch {
                expected: 8,
                got: 10
            })
        );
        let v = vec![1i32; 64];
        let with_cim = ShardSplit {
            cnm: 32,
            cim: 16,
            host: 16,
        };
        assert_eq!(
            be.elementwise(BinOp::Add, &v, &v, &with_cim),
            Err(ShardError::Unsupported {
                device: Target::Cim,
                op: "elementwise"
            })
        );
        assert!(be.reduce(BinOp::Add, &v, &with_cim).is_err());
        assert!(be.histogram(&v, 4, 64, &with_cim).is_err());
    }

    /// `run_into` checks what `run` checks: a split short of or past the
    /// op's work and a short operand are typed errors, not a partly filled
    /// result or a slicing panic, and no device runs.
    #[test]
    fn run_into_rejects_a_split_or_operand_that_does_not_fit() {
        let mut be = small_backend();
        let v = vec![3i32; 64];
        let op = CnmOp::Elementwise {
            op: BinOp::Add,
            len: 64,
        };
        let mut out = vec![7; 5];
        for got in [40, 70] {
            let split = ShardSplit::from_fractions(got, [0.25, 0.0, 0.75]).unwrap();
            let ran = be.run_into(op, &[&v, &v], &split, &mut out);
            assert_eq!(ran, Err(ShardError::WorkMismatch { expected: 64, got }));
        }
        assert_eq!(
            be.run_into(op, &[&v, &v[..63]], &ShardSplit::all_host(64), &mut out),
            Err(ShardError::ShapeMismatch {
                op: "elementwise",
                what: "rhs elements",
                expected: 64,
                got: 63
            })
        );
        assert_eq!(be.stats().ops, 0);
    }

    /// A reduction on one device is that device's fold, with no merge
    /// after it: all on the host, it is the sequential fold also for an
    /// operator that does not associate.
    #[test]
    fn a_lone_host_reduction_is_the_sequential_fold() {
        let mut be = small_backend();
        let v: Vec<i32> = (1..=40).collect();
        let sub = v.iter().fold(0i32, |acc, &x| acc.wrapping_sub(x));
        assert_eq!(
            be.reduce(BinOp::Sub, &v, &ShardSplit::all_host(40)),
            Ok(sub)
        );
    }
}
