//! # Multi-tenant session serving: the `SessionServer`
//!
//! The [`session::Session`](crate::session) API is single-owner: one graph,
//! one `run()`, exclusive devices. This module is the serving layer on top —
//! a [`SessionServer`] owns the device set and serves request streams from
//! many tenants at once:
//!
//! * **Admission control against device capacity.** Tenant weights become
//!   resident in DPU MRAM; every shape class accounts its per-DPU footprint
//!   and a load that would exceed the configured MRAM budget (or the grid's
//!   tenant slots) is rejected with a typed [`ServeError`] — never a hang.
//! * **Cross-tenant batching.** Same-shaped `gemv`/`gemm` requests from
//!   different tenants fuse into **one sharded launch** over the grid
//!   ([`cinm_lowering::BatchPlan`]): per-tenant weights stay resident in
//!   their slot's MRAM stripe, only activations move. The batching
//!   compatibility key is the request graph's **canonical replay signature**
//!   — the same hash the session plan cache uses — so "may share a launch"
//!   and "would replay the same compiled plan" are one predicate by
//!   construction.
//! * **Weighted fairness + priorities.** Requests queue per tenant in a
//!   [`FairQueue`] (weighted fair queueing over per-tenant FIFOs; priority
//!   is an exponential weight boost, so no tenant can starve). A scheduling
//!   round picks the fairest head request, then fills its batch with the
//!   fairest *compatible* heads from other tenants.
//! * **Futures over the existing machinery.** [`submit`](SessionServer::submit)
//!   returns a [`RequestTicket`]; execution happens in deterministic
//!   scheduling rounds ([`step`](SessionServer::step), driven on demand by
//!   [`wait_into`](SessionServer::wait_into)). A round runs its batches
//!   one after the other through the allocation-free eager path, whether it
//!   holds one shape class or several.
//! * **Fault isolation.** Batches run under the retrying backend; a
//!   transient fault that outlives the retry budget re-runs the batch (a
//!   faulted command commits nothing), and a permanent grid fault fails
//!   over to a spare built from the still-readable MRAM image
//!   (`fault_free_clone`), which carries every tenant's resident weights.
//!   One tenant's injected device fault therefore never corrupts or aborts
//!   another tenant's request — pinned by `tests/serving.rs` under seeded
//!   fault schedules.
//!
//! Determinism: scheduling depends only on queue state and configured
//! weights (never wall-clock), execution is the deterministic simulator, so
//! every outcome — batch composition, per-tenant service order, results —
//! is reproducible, and per-tenant results are bit-identical to the tenant
//! running alone in its own `Session`.

use std::fmt;
use std::time::Instant;

use cinm_lowering::cnm_op::CnmOp;
use cinm_lowering::{BatchPlan, UpmemBackend, UpmemRunOptions};
use cinm_runtime::{AdmissionError, FairQueue, FaultConfig, FaultStats};
use upmem_sim::{SimError, SystemStats, UpmemConfig};

use crate::session::{dtr_victim, single_op_signature};

/// Recovery attempts per batch before a request is failed (mirrors the
/// session recovery loop's budget).
const MAX_RECOVERY_ATTEMPTS: u32 = 8;

/// Configuration of a [`SessionServer`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Number of PIM DIMMs when no explicit config is given.
    pub ranks: usize,
    /// Code-generation options of the owned UPMEM backend.
    pub upmem: UpmemRunOptions,
    /// Explicit machine configuration (overrides `ranks`).
    pub upmem_config: Option<UpmemConfig>,
    /// Deterministic fault-injection schedule for the owned devices.
    pub fault: Option<FaultConfig>,
    /// Tenant slots the grid is divided into per shape class: each resident
    /// model owns one slot (a contiguous DPU range), and a batch fuses up to
    /// this many tenants into one launch.
    pub tenant_slots: usize,
    /// Cap on requests fused into one batch (clamped to `tenant_slots` by
    /// construction; `usize::MAX` means "as many as fit").
    pub max_batch: usize,
    /// Per-tenant admission-control queue depth.
    pub queue_depth: usize,
    /// Per-DPU MRAM budget in bytes for resident state (`None`: the
    /// machine's MRAM size). Loads beyond it are rejected, typed.
    pub mram_limit_bytes: Option<usize>,
    /// Optional metrics registry. The server threads it into the owned
    /// simulator (per-op `upmem.*` counters) and registers its own series:
    /// server-wide request counters, batch-size and request-latency
    /// histograms (p50/p99 derive from the snapshot), queue depth, pool
    /// occupancy, and per-tenant counters/latency histograms named
    /// `serve.tenant.<name>.*` at registration time. Recording is
    /// atomics-only and allocation-free on the warmed serving path.
    pub telemetry: Option<cinm_telemetry::Telemetry>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            ranks: 16,
            upmem: UpmemRunOptions::optimized(),
            upmem_config: None,
            fault: None,
            tenant_slots: 8,
            max_batch: usize::MAX,
            queue_depth: 64,
            mram_limit_bytes: None,
            telemetry: None,
        }
    }
}

impl ServerOptions {
    /// Overrides the DIMM count of the default machine.
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks;
        self
    }

    /// Overrides the UPMEM code-generation options.
    pub fn with_upmem(mut self, upmem: UpmemRunOptions) -> Self {
        self.upmem = upmem;
        self
    }

    /// Uses an explicit machine configuration.
    pub fn with_upmem_config(mut self, config: UpmemConfig) -> Self {
        self.upmem_config = Some(config);
        self
    }

    /// Enables deterministic fault injection on the owned devices.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Overrides the number of tenant slots per shape class.
    pub fn with_tenant_slots(mut self, slots: usize) -> Self {
        self.tenant_slots = slots.max(1);
        self
    }

    /// Caps the batch size (1 disables cross-tenant batching: one request
    /// per round, as the fairness test in `tests/serving.rs` needs).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Overrides the per-tenant admission queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Overrides the per-DPU MRAM budget for resident tenant state.
    pub fn with_mram_limit_bytes(mut self, bytes: usize) -> Self {
        self.mram_limit_bytes = Some(bytes);
        self
    }

    /// Attaches a metrics registry (see the field documentation).
    pub fn with_telemetry(mut self, telemetry: cinm_telemetry::Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

/// Typed serving-layer error. Admission rejections (`CapacityExhausted`,
/// `SlotsExhausted`, `QueueFull`) are back-pressure the client acts on;
/// `Device` surfaces an unrecoverable device failure of one batch without
/// affecting other requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Loading these weights would exceed the per-DPU MRAM budget.
    CapacityExhausted {
        /// Bytes per DPU the load would add.
        needed_bytes: usize,
        /// Bytes per DPU still available under the budget.
        available_bytes: usize,
    },
    /// Every tenant slot of the shape class is occupied.
    SlotsExhausted {
        /// Slots of the shape class.
        slots: usize,
    },
    /// The tenant's queue is at its admission depth limit.
    QueueFull {
        /// The rejected tenant.
        tenant: TenantId,
        /// The configured depth limit.
        depth: usize,
    },
    /// An operand does not match the model's shape.
    ShapeMismatch {
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        got: usize,
    },
    /// The tenant id was never registered.
    UnknownTenant,
    /// The model id was never loaded.
    UnknownModel,
    /// The model (or tenant) still has queued requests and cannot be
    /// unloaded until they drain.
    ModelBusy,
    /// The ticket does not refer to a live request (already consumed, or
    /// from another server).
    StaleTicket,
    /// A device failure outlived every recovery attempt.
    Device {
        /// Human-readable failure description.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::CapacityExhausted {
                needed_bytes,
                available_bytes,
            } => write!(
                f,
                "admission rejected: load needs {needed_bytes} B/DPU, {available_bytes} B/DPU available"
            ),
            ServeError::SlotsExhausted { slots } => {
                write!(f, "admission rejected: all {slots} tenant slots are occupied")
            }
            ServeError::QueueFull { tenant, depth } => write!(
                f,
                "admission rejected: tenant {} is at its queue depth of {depth}",
                tenant.0
            ),
            ServeError::ShapeMismatch { expected, got } => {
                write!(f, "operand shape mismatch: expected {expected} elements, got {got}")
            }
            ServeError::UnknownTenant => write!(f, "unknown tenant id"),
            ServeError::UnknownModel => write!(f, "unknown model id"),
            ServeError::ModelBusy => {
                write!(f, "cannot unload: queued requests still reference the model")
            }
            ServeError::StaleTicket => write!(f, "stale request ticket"),
            ServeError::Device { message } => write!(f, "device failure: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A device failure that recovery could not (or need not) absorb.
fn device_error(e: SimError) -> ServeError {
    ServeError::Device {
        message: e.to_string(),
    }
}

/// Handle of a registered tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(u32);

/// Handle of a resident weight matrix (bound to one tenant and one shape
/// class slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelId(u32);

/// Future of a submitted request: redeem with
/// [`SessionServer::wait`]/[`wait_into`](SessionServer::wait_into) (which
/// drive scheduling rounds as needed) or poll with
/// [`SessionServer::is_done`]. Consuming the result recycles the slot; a
/// consumed ticket turns stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a request ticket must be waited on to observe its result"]
pub struct RequestTicket {
    req: u32,
    gen: u32,
}

/// Registration-time tenant configuration.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    name: String,
    weight: u32,
    priority: u8,
}

impl TenantSpec {
    /// A tenant with weight 1 and priority 0.
    pub fn new(name: impl Into<String>) -> Self {
        TenantSpec {
            name: name.into(),
            weight: 1,
            priority: 0,
        }
    }

    /// Sets the fair-share weight (minimum 1): long-run service is
    /// proportional to weights among backlogged tenants.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the priority: each level doubles the effective weight. A boost,
    /// not a strict tier — lower-priority tenants keep a proportional share
    /// and never starve.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// Completion report of one served request.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RequestReport {
    /// Wall-clock submit-to-completion latency in seconds.
    pub latency_seconds: f64,
    /// Requests fused into the launch that served this one.
    pub batch_size: u32,
}

/// Cumulative server-wide counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests rejected at admission (typed errors, not queued).
    pub rejected: u64,
    /// Requests failed by an unrecoverable device error.
    pub failed: u64,
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// Batched launches executed.
    pub batches: u64,
    /// Requests served through those launches.
    pub batched_requests: u64,
    /// Largest batch fused so far.
    pub largest_batch: u64,
    /// Batch re-executions after a fault escaped the retry budget.
    pub recoveries: u64,
    /// Spare-grid failovers after a permanent device fault.
    pub failovers: u64,
}

/// Cumulative per-tenant counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TenantStats {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests failed by an unrecoverable device error.
    pub failed: u64,
    /// Logical multiply-accumulates served (the fairness work unit).
    pub served_work: u64,
    /// Sum of completed requests' latencies in seconds.
    pub total_latency_seconds: f64,
    /// Largest completed-request latency in seconds.
    pub max_latency_seconds: f64,
}

impl TenantStats {
    /// Mean completed-request latency in seconds (0 when none completed).
    pub fn mean_latency_seconds(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_latency_seconds / self.completed as f64
        }
    }
}

/// Memory-pressure snapshot of the serving runtime (see
/// [`SessionServer::residency_snapshot`]). Weights always keep a host
/// shadow, so a serving eviction never gathers — the billed traffic is the
/// re-upload when an evicted class is scheduled again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerResidency {
    /// Shape classes whose device buffers were evicted to admit another.
    pub evictions: u64,
    /// Weight re-uploads (rematerialization launches) of evicted classes
    /// that became active again.
    pub reloads: u64,
    /// Host-to-device bytes those re-uploads scattered.
    pub reload_bytes: u64,
    /// High-water mark of per-DPU MRAM bytes ever allocated on the grid.
    pub peak_mram_bytes: usize,
    /// Per-DPU MRAM bytes currently claimed by resident classes.
    pub used_mram_bytes: usize,
    /// The per-DPU admission budget.
    pub limit_bytes: usize,
}

/// Server-wide telemetry series (see [`ServerOptions::telemetry`]):
/// registered once at construction, recorded by atomic operations on the
/// serving hot path.
struct ServerTele {
    submitted: cinm_telemetry::Counter,
    completed: cinm_telemetry::Counter,
    failed: cinm_telemetry::Counter,
    rejected: cinm_telemetry::Counter,
    batch_size: cinm_telemetry::Histogram,
    latency: cinm_telemetry::Histogram,
    pool_workers: cinm_telemetry::Gauge,
    pool_busy: cinm_telemetry::Gauge,
    pool_tasks: cinm_telemetry::Gauge,
}

impl ServerTele {
    fn register(t: &cinm_telemetry::Telemetry) -> Self {
        ServerTele {
            submitted: t.counter("serve.requests.submitted"),
            completed: t.counter("serve.requests.completed"),
            failed: t.counter("serve.requests.failed"),
            rejected: t.counter("serve.admission.rejected"),
            batch_size: t.histogram("serve.batch.size", &cinm_telemetry::BATCH_SIZE_BOUNDS),
            latency: t.histogram(
                "serve.latency.seconds",
                &cinm_telemetry::LATENCY_SECONDS_BOUNDS,
            ),
            pool_workers: t.gauge("runtime.pool.workers"),
            pool_busy: t.gauge("runtime.pool.busy"),
            pool_tasks: t.gauge("runtime.pool.tasks_executed"),
        }
    }
}

/// Per-tenant telemetry series, registered under the tenant's name when the
/// tenant is (the only allocation telemetry ever does per tenant).
struct TenantTele {
    submitted: cinm_telemetry::Counter,
    completed: cinm_telemetry::Counter,
    rejected: cinm_telemetry::Counter,
    failed: cinm_telemetry::Counter,
    latency: cinm_telemetry::Histogram,
}

impl TenantTele {
    fn register(t: &cinm_telemetry::Telemetry, name: &str) -> Self {
        TenantTele {
            submitted: t.counter(&format!("serve.tenant.{name}.submitted")),
            completed: t.counter(&format!("serve.tenant.{name}.completed")),
            rejected: t.counter(&format!("serve.tenant.{name}.rejected")),
            failed: t.counter(&format!("serve.tenant.{name}.failed")),
            latency: t.histogram(
                &format!("serve.tenant.{name}.latency.seconds"),
                &cinm_telemetry::LATENCY_SECONDS_BOUNDS,
            ),
        }
    }
}

struct Tenant {
    name: String,
    stats: TenantStats,
    tele: Option<TenantTele>,
}

struct Model {
    tenant: TenantId,
    group: u32,
    slot: usize,
    /// Cleared by `unload_model`; the id is never reused.
    live: bool,
}

/// One batched shape class: the shared `BatchPlan` plus staging state and
/// the batch under construction of the current round.
struct Group {
    /// Canonical replay signature of the class's request graph — the
    /// batching compatibility key (shared with the session plan cache).
    sig: u64,
    plan: BatchPlan,
    /// Host shadow of the resident weights buffer (re-scattered on loads).
    w_stage: Vec<i32>,
    /// Activation staging for the current batch.
    x_stage: Vec<i32>,
    /// Gather destination of the current batch.
    y_scratch: Vec<i32>,
    /// Slot occupancy.
    occupied: Vec<Option<ModelId>>,
    /// Members (request indices) of the batch under construction.
    batch: Vec<u32>,
    /// Whether this group already has a batch in the current round.
    in_round: bool,
    /// Batched launches executed for this class.
    launches: u64,
    /// Whether the class's device buffers are allocated and its weights
    /// uploaded. An evicted class keeps its slots, signature and host
    /// shadow and is transparently re-admitted when scheduled again.
    resident: bool,
    /// Round of the class's last dispatch: its staleness ([`dtr_victim`]).
    last_round: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqState {
    Free,
    Queued,
    Done,
    Failed,
}

struct RequestSlot {
    gen: u32,
    state: ReqState,
    model: ModelId,
    x: Vec<i32>,
    result: Vec<i32>,
    submitted: Instant,
    report: RequestReport,
    error: Option<ServeError>,
}

/// The multi-tenant serving runtime. See the [module docs](self).
pub struct SessionServer {
    backend: UpmemBackend,
    queue: FairQueue,
    tenants: Vec<Tenant>,
    models: Vec<Model>,
    groups: Vec<Group>,
    requests: Vec<RequestSlot>,
    free_requests: Vec<u32>,
    /// Group indices participating in the current round (scratch).
    round_groups: Vec<u32>,
    tenant_slots: usize,
    max_batch: usize,
    queue_depth: usize,
    stats: ServerStats,
    /// Eviction/reload counters; the snapshot reads MRAM off the allocator.
    res: ServerResidency,
    /// Pre-registered server-wide telemetry series (`None` disables export).
    tele: Option<ServerTele>,
    /// Registry handle for late registrations (per-tenant series).
    telemetry: Option<cinm_telemetry::Telemetry>,
}

impl SessionServer {
    /// Builds a server owning a fresh device set.
    pub fn new(options: ServerOptions) -> Self {
        let mut cfg = options
            .upmem_config
            .clone()
            .unwrap_or_else(|| UpmemConfig::with_ranks(options.ranks));
        if options.fault.is_some() {
            cfg.fault = options.fault.clone();
        }
        // The allocator holds the budget: admission reads its occupancy.
        let limit = options.mram_limit_bytes.unwrap_or(cfg.mram_bytes);
        cfg.mram_bytes = cfg.mram_bytes.min(limit);
        if let Some(t) = &options.telemetry {
            cfg.telemetry = Some(t.clone());
        }
        let backend = UpmemBackend::with_config(cfg, options.upmem.clone());
        let tenant_slots = options.tenant_slots.max(1).min(backend.num_dpus());
        let tele = options.telemetry.as_ref().map(ServerTele::register);
        let mut queue = FairQueue::new();
        if let Some(t) = &options.telemetry {
            queue.attach_depth_gauge(t.gauge("serve.queue.depth"));
        }
        SessionServer {
            backend,
            queue,
            tenants: Vec::new(),
            models: Vec::new(),
            groups: Vec::new(),
            requests: Vec::new(),
            free_requests: Vec::new(),
            round_groups: Vec::new(),
            tenant_slots,
            max_batch: options.max_batch.max(1),
            queue_depth: options.queue_depth.max(1),
            stats: ServerStats::default(),
            res: ServerResidency::default(),
            tele,
            telemetry: options.telemetry.clone(),
        }
    }

    // -- registration & admission -------------------------------------------

    /// Registers a tenant and returns its handle.
    pub fn register_tenant(&mut self, spec: TenantSpec) -> TenantId {
        let lane = self
            .queue
            .add_lane(spec.weight, spec.priority, self.queue_depth);
        debug_assert_eq!(lane, self.tenants.len());
        let tele = self
            .telemetry
            .as_ref()
            .map(|t| TenantTele::register(t, &spec.name));
        self.tenants.push(Tenant {
            name: spec.name,
            stats: TenantStats::default(),
            tele,
        });
        TenantId(lane as u32)
    }

    /// Makes a tenant's `gemv` weight matrix (`rows × cols`) resident on the
    /// grid and returns the model handle requests are submitted against.
    ///
    /// # Errors
    ///
    /// Typed admission rejection when the load would exceed the MRAM budget
    /// or the shape class's tenant slots; `ShapeMismatch` when `a` is not
    /// `rows * cols` elements; `Device` when uploading outlives recovery.
    pub fn load_gemv_weights(
        &mut self,
        tenant: TenantId,
        a: &[i32],
        rows: usize,
        cols: usize,
    ) -> Result<ModelId, ServeError> {
        self.check_tenant(tenant)?;
        if a.len() != rows * cols {
            return Err(ServeError::ShapeMismatch {
                expected: rows * cols,
                got: a.len(),
            });
        }
        let gi = self.ensure_group(CnmOp::Gemv { rows, cols })?;
        self.bind_model(tenant, gi, a)
    }

    /// Makes a tenant's `gemm` left operand (`m × k`) resident; requests
    /// then move only the right operand (`k × n`).
    ///
    /// # Errors
    ///
    /// Same admission/shape/device errors as
    /// [`load_gemv_weights`](Self::load_gemv_weights).
    pub fn load_gemm_weights(
        &mut self,
        tenant: TenantId,
        a: &[i32],
        m: usize,
        k: usize,
        n: usize,
    ) -> Result<ModelId, ServeError> {
        self.check_tenant(tenant)?;
        if a.len() != m * k {
            return Err(ServeError::ShapeMismatch {
                expected: m * k,
                got: a.len(),
            });
        }
        let gi = self.ensure_group(CnmOp::Gemm { m, k, n })?;
        self.bind_model(tenant, gi, a)
    }

    /// Unloads a model: its shape-class slot frees for another tenant and,
    /// when the class empties, its per-DPU MRAM bytes return to the budget.
    /// The handle turns permanently stale (ids are never reused).
    ///
    /// # Errors
    ///
    /// `UnknownModel` for stale/unknown handles; `ModelBusy` while queued
    /// requests still reference the model (drain with
    /// [`run_until_idle`](Self::run_until_idle) first).
    pub fn unload_model(&mut self, model: ModelId) -> Result<(), ServeError> {
        let Some(m) = self.models.get(model.0 as usize) else {
            return Err(ServeError::UnknownModel);
        };
        if !m.live {
            return Err(ServeError::UnknownModel);
        }
        if self
            .requests
            .iter()
            .any(|s| s.state == ReqState::Queued && s.model == model)
        {
            return Err(ServeError::ModelBusy);
        }
        let gi = m.group as usize;
        let slot = m.slot;
        self.models[model.0 as usize].live = false;
        let g = &mut self.groups[gi];
        g.occupied[slot] = None;
        // Zero the vacated stripe of the host shadow so a later reload of
        // the class scatters deterministic contents.
        let zeros = vec![0; g.plan.weights_len()];
        g.plan.stage_weights(slot, &zeros, &mut g.w_stage);
        if g.resident && g.occupied.iter().all(Option::is_none) {
            // Last tenant out: the class's device buffers return to the
            // budget (kept registered — a future load of the same shape
            // re-admits it through the ordinary residency path).
            g.plan.release(&mut self.backend).map_err(device_error)?;
            self.groups[gi].resident = false;
        }
        Ok(())
    }

    /// Unloads every live model of a tenant (atomically: nothing is
    /// unloaded when any of them is busy). The tenant stays registered and
    /// can load models again.
    ///
    /// # Errors
    ///
    /// `UnknownTenant`; `ModelBusy` when queued requests still reference
    /// any of the tenant's models.
    pub fn unload_tenant(&mut self, tenant: TenantId) -> Result<(), ServeError> {
        self.check_tenant(tenant)?;
        let busy = self.requests.iter().any(|s| {
            s.state == ReqState::Queued
                && self
                    .models
                    .get(s.model.0 as usize)
                    .is_some_and(|m| m.live && m.tenant == tenant)
        });
        if busy {
            return Err(ServeError::ModelBusy);
        }
        for id in 0..self.models.len() {
            if self.models[id].live && self.models[id].tenant == tenant {
                self.unload_model(ModelId(id as u32))?;
            }
        }
        Ok(())
    }

    fn check_tenant(&self, tenant: TenantId) -> Result<(), ServeError> {
        if (tenant.0 as usize) < self.tenants.len() {
            Ok(())
        } else {
            Err(ServeError::UnknownTenant)
        }
    }

    /// Evicts the idle resident shape classes [`dtr_victim`] picks (price:
    /// the seconds the re-upload of the weights shadow bills; staleness:
    /// rounds since the last dispatch) until `needed_bytes` fit under the
    /// budget. Classes with a batch in
    /// the current round are part of the true working set and never
    /// victims; when nothing evictable remains the typed capacity error
    /// surfaces.
    fn make_room(&mut self, needed_bytes: usize) -> Result<(), ServeError> {
        loop {
            let (used, limit) = (self.mram_used_bytes(), self.mram_limit_bytes());
            let available = limit.saturating_sub(used);
            if needed_bytes <= available {
                return Ok(());
            }
            let cfg = self.backend.system().config();
            let candidates = self.groups.iter().enumerate().filter_map(|(i, g)| {
                let idle = g.resident && !g.in_round && g.batch.is_empty();
                let reload = cfg.chunked_transfer(g.w_stage.len()).seconds;
                idle.then_some((i, reload, 4 * g.plan.elems_per_dpu(), g.last_round))
            });
            let Some(v) = dtr_victim(candidates, self.stats.rounds) else {
                return Err(ServeError::CapacityExhausted {
                    needed_bytes,
                    available_bytes: available,
                });
            };
            self.groups[v]
                .plan
                .release(&mut self.backend)
                .map_err(device_error)?;
            self.groups[v].resident = false;
            self.res.evictions += 1;
        }
    }

    /// Re-admits an evicted shape class: re-allocates its device buffers
    /// (evicting idle classes as needed) and re-uploads the weight
    /// shadow — the billed rematerialization of reloadable weights.
    fn ensure_resident(&mut self, gi: usize) -> Result<(), ServeError> {
        if self.groups[gi].resident {
            return Ok(());
        }
        let needed_bytes = 4 * self.groups[gi].plan.elems_per_dpu();
        self.make_room(needed_bytes)?;
        self.groups[gi]
            .plan
            .reacquire(&mut self.backend)
            .map_err(device_error)?;
        self.groups[gi].resident = true;
        self.upload_weights(gi)?;
        self.res.reloads += 1;
        self.res.reload_bytes += (self.groups[gi].w_stage.len() * 4) as u64;
        Ok(())
    }

    /// Finds or creates the batched shape class for a signature. Admission
    /// is soft: a new class that does not fit first evicts idle classes'
    /// reloadable weights; the typed capacity error surfaces only
    /// when the active working set truly fills the budget.
    fn ensure_group(&mut self, op: CnmOp) -> Result<usize, ServeError> {
        let sig = single_op_signature(op);
        if let Some(gi) = self.groups.iter().position(|g| g.sig == sig) {
            return Ok(gi);
        }
        let mut plan = BatchPlan::new(&self.backend, self.tenant_slots, op);
        let needed_bytes = 4 * plan.elems_per_dpu();
        self.make_room(needed_bytes)?;
        plan.reacquire(&mut self.backend).map_err(device_error)?;
        let slots = plan.slots();
        self.groups.push(Group {
            sig,
            plan,
            w_stage: Vec::new(),
            x_stage: Vec::new(),
            y_scratch: Vec::new(),
            occupied: vec![None; slots],
            batch: Vec::new(),
            in_round: false,
            launches: 0,
            resident: true,
            last_round: self.stats.rounds,
        });
        Ok(self.groups.len() - 1)
    }

    /// Claims a slot of the group for the tenant's weights and uploads them.
    fn bind_model(
        &mut self,
        tenant: TenantId,
        gi: usize,
        weights: &[i32],
    ) -> Result<ModelId, ServeError> {
        let id = ModelId(self.models.len() as u32);
        let g = &mut self.groups[gi];
        let Some(slot) = g.occupied.iter().position(Option::is_none) else {
            return Err(ServeError::SlotsExhausted {
                slots: g.occupied.len(),
            });
        };
        g.plan.stage_weights(slot, weights, &mut g.w_stage);
        // Binding into an evicted class re-admits it, which re-uploads the
        // whole shadow, staged slot included; a resident class uploads now.
        let uploaded = if self.groups[gi].resident {
            self.upload_weights(gi)
        } else {
            self.ensure_resident(gi)
        };
        if let Err(e) = uploaded {
            // Roll the staged slot back so the class stays coherent.
            let g = &mut self.groups[gi];
            let zeros = vec![0; g.plan.weights_len()];
            g.plan.stage_weights(slot, &zeros, &mut g.w_stage);
            return Err(e);
        }
        self.groups[gi].occupied[slot] = Some(id);
        self.models.push(Model {
            tenant,
            group: gi as u32,
            slot,
            live: true,
        });
        Ok(id)
    }

    // -- request lifecycle --------------------------------------------------

    /// Submits one request: the model's resident weights applied to the
    /// moving `activation` operand (the `x` vector of a gemv model, the `B`
    /// matrix of a gemm model, in row-major order). Returns a ticket future;
    /// execution happens in scheduling rounds driven by
    /// [`wait_into`](Self::wait_into)/[`step`](Self::step).
    ///
    /// # Errors
    ///
    /// `QueueFull` when the tenant is at its admission depth (typed
    /// back-pressure — the request is not queued), `ShapeMismatch`,
    /// `UnknownModel`.
    pub fn submit(
        &mut self,
        model: ModelId,
        activation: &[i32],
    ) -> Result<RequestTicket, ServeError> {
        let Some(m) = self.models.get(model.0 as usize) else {
            return Err(ServeError::UnknownModel);
        };
        if !m.live {
            // Unloaded ids are never reused, so stale handles stay typed.
            return Err(ServeError::UnknownModel);
        }
        let tenant = m.tenant;
        let g = &self.groups[m.group as usize];
        let expected = g.plan.activation_len();
        if activation.len() != expected {
            return Err(ServeError::ShapeMismatch {
                expected,
                got: activation.len(),
            });
        }
        let work = g.plan.work();
        let req = match self.free_requests.pop() {
            Some(r) => r,
            None => {
                self.requests.push(RequestSlot {
                    gen: 0,
                    state: ReqState::Free,
                    model,
                    x: Vec::new(),
                    result: Vec::new(),
                    submitted: Instant::now(),
                    report: RequestReport::default(),
                    error: None,
                });
                (self.requests.len() - 1) as u32
            }
        };
        match self.queue.enqueue(tenant.0 as usize, req, work) {
            Ok(()) => {}
            Err(AdmissionError::QueueFull { depth, .. }) => {
                self.free_requests.push(req);
                self.stats.rejected += 1;
                self.tenants[tenant.0 as usize].stats.rejected += 1;
                if let Some(t) = &self.tele {
                    t.rejected.inc();
                }
                if let Some(tt) = &self.tenants[tenant.0 as usize].tele {
                    tt.rejected.inc();
                }
                return Err(ServeError::QueueFull { tenant, depth });
            }
            Err(AdmissionError::UnknownLane { .. }) => {
                self.free_requests.push(req);
                return Err(ServeError::UnknownTenant);
            }
        }
        let slot = &mut self.requests[req as usize];
        slot.state = ReqState::Queued;
        slot.model = model;
        slot.x.clear();
        slot.x.extend_from_slice(activation);
        slot.submitted = Instant::now();
        slot.error = None;
        self.stats.submitted += 1;
        self.tenants[tenant.0 as usize].stats.submitted += 1;
        if let Some(t) = &self.tele {
            t.submitted.inc();
        }
        if let Some(tt) = &self.tenants[tenant.0 as usize].tele {
            tt.submitted.inc();
        }
        Ok(RequestTicket { req, gen: slot.gen })
    }

    /// Whether a ticket's request has finished (completed or failed) —
    /// non-driving poll.
    pub fn is_done(&self, ticket: RequestTicket) -> bool {
        self.requests.get(ticket.req as usize).is_some_and(|s| {
            s.gen == ticket.gen && matches!(s.state, ReqState::Done | ReqState::Failed)
        })
    }

    /// Redeems a ticket, driving scheduling rounds until its request
    /// finishes. The result replaces the contents of `out` (cleared;
    /// capacity reused — allocation-free once warmed) and the slot is
    /// recycled, turning the ticket stale.
    ///
    /// # Errors
    ///
    /// `StaleTicket` for consumed/foreign tickets; the batch's `Device`
    /// error when the request failed every recovery attempt.
    pub fn wait_into(
        &mut self,
        ticket: RequestTicket,
        out: &mut Vec<i32>,
    ) -> Result<RequestReport, ServeError> {
        loop {
            let Some(slot) = self.requests.get(ticket.req as usize) else {
                return Err(ServeError::StaleTicket);
            };
            if slot.gen != ticket.gen {
                return Err(ServeError::StaleTicket);
            }
            match slot.state {
                ReqState::Done => {
                    let slot = &mut self.requests[ticket.req as usize];
                    out.clear();
                    out.extend_from_slice(&slot.result);
                    let report = slot.report;
                    self.release(ticket.req);
                    return Ok(report);
                }
                ReqState::Failed => {
                    let slot = &mut self.requests[ticket.req as usize];
                    let err = slot.error.take().unwrap_or(ServeError::Device {
                        message: "request failed".into(),
                    });
                    self.release(ticket.req);
                    return Err(err);
                }
                ReqState::Free => return Err(ServeError::StaleTicket),
                ReqState::Queued => {
                    if self.step() == 0 {
                        return Err(ServeError::Device {
                            message: "queued request unreachable by the scheduler".into(),
                        });
                    }
                }
            }
        }
    }

    /// Allocating convenience form of [`wait_into`](Self::wait_into).
    ///
    /// # Errors
    ///
    /// See [`wait_into`](Self::wait_into).
    pub fn wait(&mut self, ticket: RequestTicket) -> Result<Vec<i32>, ServeError> {
        let mut out = Vec::new();
        self.wait_into(ticket, &mut out)?;
        Ok(out)
    }

    /// Drives scheduling rounds until every queued request has finished.
    pub fn run_until_idle(&mut self) {
        while self.step() != 0 {}
    }

    fn release(&mut self, req: u32) {
        let slot = &mut self.requests[req as usize];
        slot.gen = slot.gen.wrapping_add(1);
        slot.state = ReqState::Free;
        self.free_requests.push(req);
    }

    // -- scheduling ---------------------------------------------------------

    /// Executes one scheduling round: picks the fairest head request, fills
    /// its batch with the fairest compatible heads of other tenants (one
    /// batch per shape class per round, one request per tenant per batch),
    /// and dispatches the batches one after the other through the
    /// allocation-free eager path. Returns the number of requests that
    /// finished (0 when idle). Device failures fail the affected batch's
    /// requests, never the server.
    pub fn step(&mut self) -> usize {
        let picked = self.form_round();
        if picked == 0 {
            return 0;
        }
        self.stats.rounds += 1;
        // Re-admit evicted classes scheduled this round (their batches are
        // in_round, so make_room cannot victimize a round participant).
        let mut i = 0;
        while i < self.round_groups.len() {
            let gi = self.round_groups[i] as usize;
            match self.ensure_resident(gi) {
                Ok(()) => {
                    self.groups[gi].last_round = self.stats.rounds;
                    i += 1;
                }
                Err(e) => {
                    self.finish_batch(gi, Err(e));
                    self.round_groups.remove(i);
                }
            }
        }
        if self.round_groups.is_empty() {
            return picked;
        }
        self.stage_round();
        for i in 0..self.round_groups.len() {
            let gi = self.round_groups[i] as usize;
            let result = self.run_batch_direct(gi);
            self.finish_batch(gi, result);
        }
        self.round_groups.clear();
        if let Some(t) = &self.tele {
            let pool = self.backend.system().config().pool.get();
            t.pool_workers.set(pool.workers() as f64);
            t.pool_busy.set(pool.busy_workers() as f64);
            t.pool_tasks.set(pool.tasks_executed() as f64);
        }
        picked
    }

    /// Fills each group's batch from the queue in weighted-fair order.
    fn form_round(&mut self) -> usize {
        let max_batch = self.max_batch;
        let SessionServer {
            queue,
            models,
            groups,
            requests,
            round_groups,
            ..
        } = self;
        let mut picked = 0;
        while let Some((lane, req)) = queue.next_matching(|lane, req| {
            let model = &models[requests[req as usize].model.0 as usize];
            let g = &groups[model.group as usize];
            if !g.in_round {
                return true;
            }
            g.batch.len() < max_batch
                && !g.batch.iter().any(|&r| {
                    models[requests[r as usize].model.0 as usize].tenant.0 as usize == lane
                })
        }) {
            let _ = lane;
            let gi = models[requests[req as usize].model.0 as usize].group as usize;
            let g = &mut groups[gi];
            if !g.in_round {
                g.in_round = true;
                round_groups.push(gi as u32);
            }
            g.batch.push(req);
            picked += 1;
        }
        picked
    }

    /// Stages every batched request's activation into its slot's stripe.
    fn stage_round(&mut self) {
        let SessionServer {
            groups,
            requests,
            models,
            round_groups,
            ..
        } = self;
        for &gi in round_groups.iter() {
            let Group {
                plan,
                x_stage,
                batch,
                ..
            } = &mut groups[gi as usize];
            for &req in batch.iter() {
                let slot = &requests[req as usize];
                let model = &models[slot.model.0 as usize];
                plan.stage_activation(model.slot, &slot.x, x_stage);
            }
        }
    }

    /// Runs a device operation under the recovery loop: a failure is
    /// handed to [`recover`](Self::recover) and the operation re-run, up to
    /// [`MAX_RECOVERY_ATTEMPTS`] times. Every operation passed here is
    /// idempotent and commits nothing when it faults, so re-running is safe.
    fn with_recovery<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, SimError>,
    ) -> Result<T, ServeError> {
        let mut attempts = 0;
        loop {
            match op(self) {
                Ok(done) => return Ok(done),
                Err(e) if attempts < MAX_RECOVERY_ATTEMPTS => {
                    attempts += 1;
                    self.recover(&e);
                }
                Err(e) => return Err(device_error(e)),
            }
        }
    }

    /// Scatters a class's staged weights shadow to the grid.
    fn upload_weights(&mut self, gi: usize) -> Result<(), ServeError> {
        self.with_recovery(|s| {
            let g = &s.groups[gi];
            g.plan.upload_weights(&mut s.backend, &g.w_stage)
        })
    }

    /// Direct eager dispatch of one batch.
    fn run_batch_direct(&mut self, gi: usize) -> Result<(), ServeError> {
        self.with_recovery(|s| {
            let Group {
                plan,
                x_stage,
                y_scratch,
                ..
            } = &mut s.groups[gi];
            plan.execute(&mut s.backend, x_stage, y_scratch)
        })
    }

    /// Distributes one executed (or failed) batch to its member requests.
    fn finish_batch(&mut self, gi: usize, result: Result<(), ServeError>) {
        let SessionServer {
            groups,
            requests,
            models,
            tenants,
            stats,
            tele,
            ..
        } = self;
        let g = &mut groups[gi];
        let size = g.batch.len() as u32;
        match result {
            Ok(()) => {
                for &req in g.batch.iter() {
                    let slot = &mut requests[req as usize];
                    let model = &models[slot.model.0 as usize];
                    g.plan
                        .decode_into(model.slot, &g.y_scratch, &mut slot.result);
                    slot.state = ReqState::Done;
                    let latency = slot.submitted.elapsed().as_secs_f64();
                    slot.report = RequestReport {
                        latency_seconds: latency,
                        batch_size: size,
                    };
                    let tenant = &mut tenants[model.tenant.0 as usize];
                    let ts = &mut tenant.stats;
                    ts.completed += 1;
                    ts.served_work += g.plan.work();
                    ts.total_latency_seconds += latency;
                    ts.max_latency_seconds = ts.max_latency_seconds.max(latency);
                    stats.completed += 1;
                    if let Some(t) = tele {
                        t.completed.inc();
                        t.latency.record(latency);
                    }
                    if let Some(tt) = &tenant.tele {
                        tt.completed.inc();
                        tt.latency.record(latency);
                    }
                }
                g.launches += 1;
                stats.batches += 1;
                stats.batched_requests += u64::from(size);
                stats.largest_batch = stats.largest_batch.max(u64::from(size));
                if let Some(t) = tele {
                    t.batch_size.record(f64::from(size));
                }
            }
            Err(e) => {
                for &req in g.batch.iter() {
                    let slot = &mut requests[req as usize];
                    let model = &models[slot.model.0 as usize];
                    slot.state = ReqState::Failed;
                    slot.error = Some(e.clone());
                    let tenant = &mut tenants[model.tenant.0 as usize];
                    tenant.stats.failed += 1;
                    stats.failed += 1;
                    if let Some(t) = tele {
                        t.failed.inc();
                    }
                    if let Some(tt) = &tenant.tele {
                        tt.failed.inc();
                    }
                }
            }
        }
        g.batch.clear();
        g.in_round = false;
    }

    /// Device recovery: re-execution handles a transient that outlived the
    /// retry budget (faulted commands commit nothing); a permanent grid
    /// fault fails over to a spare built from the still-readable MRAM image
    /// — which carries every tenant's resident weights — exactly the
    /// session recovery loop's spare-grid path.
    fn recover(&mut self, error: &SimError) {
        self.stats.recoveries += 1;
        if error.is_permanent_fault() {
            let spare = self.backend.system().fault_free_clone();
            *self.backend.system_mut() = spare;
            self.stats.failovers += 1;
        }
    }

    // -- introspection ------------------------------------------------------

    /// Cumulative server-wide counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Cumulative counters of one tenant.
    ///
    /// # Panics
    ///
    /// If the tenant was never registered.
    pub fn tenant_stats(&self, tenant: TenantId) -> TenantStats {
        self.tenants[tenant.0 as usize].stats
    }

    /// The registration name of a tenant.
    ///
    /// # Panics
    ///
    /// If the tenant was never registered.
    pub fn tenant_name(&self, tenant: TenantId) -> &str {
        &self.tenants[tenant.0 as usize].name
    }

    /// Number of batched shape classes currently resident.
    pub fn shape_groups(&self) -> usize {
        self.groups.len()
    }

    /// Batched launches executed per shape class, in class creation order —
    /// the serving analogue of the session's plan-cache replay counters
    /// (every launch after a class's first is a signature-keyed replay of
    /// its batch plan).
    pub fn group_launches(&self) -> impl Iterator<Item = u64> + '_ {
        self.groups.iter().map(|g| g.launches)
    }

    /// Requests queued but not yet scheduled.
    pub fn queue_backlog(&self) -> usize {
        self.queue.backlog()
    }

    /// Memory-pressure counters of the serving residency manager: class
    /// evictions, weight reloads and their scattered bytes, plus the
    /// allocator's high-water mark against the admission budget.
    pub fn residency_snapshot(&self) -> ServerResidency {
        let sys = self.backend.system();
        ServerResidency {
            peak_mram_bytes: sys.mram_peak_bytes(),
            used_mram_bytes: sys.mram_used_bytes(),
            limit_bytes: sys.config().mram_bytes,
            ..self.res
        }
    }

    /// Per-DPU MRAM bytes claimed by resident shape classes.
    pub fn mram_used_bytes(&self) -> usize {
        self.backend.system().mram_used_bytes()
    }

    /// Per-DPU MRAM budget for resident state.
    pub fn mram_limit_bytes(&self) -> usize {
        self.backend.system().config().mram_bytes
    }

    /// Accumulated simulated statistics of the owned grid.
    pub fn upmem_stats(&self) -> &SystemStats {
        self.backend.stats()
    }

    /// Fault-tolerance counters of the owned backend (retries, backoff,
    /// permanent faults) plus the server's own recovery counters in
    /// [`stats`](Self::stats).
    pub fn fault_stats(&self) -> FaultStats {
        self.backend.fault_stats()
    }

    /// Number of DPUs in the owned grid.
    pub fn num_dpus(&self) -> usize {
        self.backend.num_dpus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> ServerOptions {
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 8;
        cfg.host_threads = 1;
        ServerOptions::default()
            .with_upmem_config(cfg)
            .with_tenant_slots(4)
    }

    fn host_gemv(a: &[i32], x: &[i32], rows: usize, cols: usize) -> Vec<i32> {
        (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| a[r * cols + c].wrapping_mul(x[c]))
                    .fold(0, i32::wrapping_add)
            })
            .collect()
    }

    fn host_gemm(a: &[i32], b: &[i32], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut y = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc = acc.wrapping_add(a[i * k + p].wrapping_mul(b[p * n + j]));
                }
                y[i * n + j] = acc;
            }
        }
        y
    }

    fn ramp(len: usize, scale: i32, bias: i32) -> Vec<i32> {
        (0..len)
            .map(|i| (i as i32).wrapping_mul(scale) + bias)
            .collect()
    }

    #[test]
    fn a_single_tenant_request_matches_the_host_oracle() {
        let mut server = SessionServer::new(tiny_options());
        let t = server.register_tenant(TenantSpec::new("solo"));
        let (rows, cols) = (11, 7);
        let a = ramp(rows * cols, 3, -5);
        let x = ramp(cols, 2, 1);
        let model = server.load_gemv_weights(t, &a, rows, cols).unwrap();
        let ticket = server.submit(model, &x).unwrap();
        let y = server.wait(ticket).unwrap();
        assert_eq!(y, host_gemv(&a, &x, rows, cols));
        assert_eq!(server.stats().completed, 1);
        assert_eq!(server.stats().batches, 1);
    }

    #[test]
    fn same_shaped_requests_from_four_tenants_fuse_into_one_launch() {
        let mut server = SessionServer::new(tiny_options());
        let (rows, cols) = (9, 6);
        let mut tickets = Vec::new();
        let mut expected = Vec::new();
        for i in 0..4 {
            let t = server.register_tenant(TenantSpec::new(format!("tenant-{i}")));
            let a = ramp(rows * cols, i + 1, i);
            let x = ramp(cols, 2 * i + 1, -i);
            let model = server.load_gemv_weights(t, &a, rows, cols).unwrap();
            tickets.push(server.submit(model, &x).unwrap());
            expected.push(host_gemv(&a, &x, rows, cols));
        }
        let launches_before = server.upmem_stats().launches;
        server.run_until_idle();
        let launches_after = server.upmem_stats().launches;
        // One fused launch served all four tenants.
        assert_eq!(launches_after - launches_before, 1);
        assert_eq!(server.stats().batches, 1);
        assert_eq!(server.stats().largest_batch, 4);
        for (ticket, want) in tickets.into_iter().zip(expected) {
            let mut got = Vec::new();
            let report = server.wait_into(ticket, &mut got).unwrap();
            assert_eq!(got, want);
            assert_eq!(report.batch_size, 4);
        }
    }

    #[test]
    fn a_mixed_shape_round_serves_both_classes_bit_identically() {
        let a = ramp(8 * 5, 2, 3);
        let x = ramp(5, 3, -1);
        let b_w = ramp(6 * 4, 1, -2);
        let b_x = ramp(4 * 3, 2, 5);
        // One round holding a gemv batch and a gemm batch: both results, the
        // simulated device statistics and the retries the round absorbed.
        let serve_round = |options: ServerOptions| {
            let mut server = SessionServer::new(options);
            let ta = server.register_tenant(TenantSpec::new("gemv-tenant"));
            let tb = server.register_tenant(TenantSpec::new("gemm-tenant"));
            let ma = server.load_gemv_weights(ta, &a, 8, 5).unwrap();
            let mb = server.load_gemm_weights(tb, &b_w, 6, 4, 3).unwrap();
            let qa = server.submit(ma, &x).unwrap();
            let qb = server.submit(mb, &b_x).unwrap();
            assert_eq!(server.step(), 2);
            assert_eq!(server.shape_groups(), 2);
            assert_eq!((server.stats().rounds, server.stats().batches), (1, 2));
            let ya = server.wait(qa).unwrap();
            let yb = server.wait(qb).unwrap();
            let retries = server.fault_stats().transient_retries;
            (ya, yb, *server.upmem_stats(), retries)
        };
        let (ya, yb, clean_stats, _) = serve_round(tiny_options());
        assert_eq!(ya, host_gemv(&a, &x, 8, 5));
        assert_eq!(yb, host_gemm(&b_w, &b_x, 6, 4, 3));

        // Seeded transient schedules: wherever in the round a fault falls,
        // results and simulated statistics equal the fault-free round.
        let mut retries = 0;
        for seed in 0..8u64 {
            let fault = FaultConfig::seeded(seed)
                .with_launch_fault_rate(0.3)
                .with_transfer_timeout_rate(0.2);
            let (fa, fb, stats, r) = serve_round(tiny_options().with_fault(fault));
            assert_eq!((&fa, &fb), (&ya, &yb), "seed {seed}");
            assert_eq!(stats, clean_stats, "seed {seed}");
            retries += r;
        }
        assert!(retries > 0, "the schedules should have injected faults");
    }

    #[test]
    fn admission_errors_are_typed_not_hangs() {
        // Queue depth.
        let mut server = SessionServer::new(tiny_options().with_queue_depth(2));
        let t = server.register_tenant(TenantSpec::new("bursty"));
        let a = ramp(4 * 4, 1, 0);
        let model = server.load_gemv_weights(t, &a, 4, 4).unwrap();
        let x = ramp(4, 1, 0);
        let q1 = server.submit(model, &x).unwrap();
        let q2 = server.submit(model, &x).unwrap();
        match server.submit(model, &x) {
            Err(ServeError::QueueFull { tenant, depth }) => {
                assert_eq!(tenant, t);
                assert_eq!(depth, 2);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(server.stats().rejected, 1);
        server.run_until_idle();
        assert!(server.wait(q1).is_ok());
        assert!(server.wait(q2).is_ok());

        // MRAM budget.
        let mut server = SessionServer::new(tiny_options().with_mram_limit_bytes(64));
        let t = server.register_tenant(TenantSpec::new("hungry"));
        match server.load_gemv_weights(t, &ramp(32 * 32, 1, 0), 32, 32) {
            Err(ServeError::CapacityExhausted {
                needed_bytes,
                available_bytes,
            }) => {
                assert!(needed_bytes > available_bytes);
                assert_eq!(available_bytes, 64);
            }
            other => panic!("expected CapacityExhausted, got {other:?}"),
        }

        // Tenant slots.
        let mut server = SessionServer::new(tiny_options().with_tenant_slots(2));
        let t = server.register_tenant(TenantSpec::new("wide"));
        let a = ramp(4 * 4, 1, 0);
        server.load_gemv_weights(t, &a, 4, 4).unwrap();
        server.load_gemv_weights(t, &a, 4, 4).unwrap();
        match server.load_gemv_weights(t, &a, 4, 4) {
            Err(ServeError::SlotsExhausted { slots }) => assert_eq!(slots, 2),
            other => panic!("expected SlotsExhausted, got {other:?}"),
        }

        // Shape mismatch.
        let mut server = SessionServer::new(tiny_options());
        let t = server.register_tenant(TenantSpec::new("sloppy"));
        let model = server
            .load_gemv_weights(t, &ramp(4 * 4, 1, 0), 4, 4)
            .unwrap();
        assert!(matches!(
            server.submit(model, &ramp(3, 1, 0)),
            Err(ServeError::ShapeMismatch {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn telemetry_exports_server_and_tenant_series() {
        let tele = cinm_telemetry::Telemetry::new();
        let mut server = SessionServer::new(
            tiny_options()
                .with_queue_depth(1)
                .with_telemetry(tele.clone()),
        );
        let t = server.register_tenant(TenantSpec::new("alpha"));
        let (rows, cols) = (6, 4);
        let a = ramp(rows * cols, 1, 0);
        let x = ramp(cols, 2, -1);
        let model = server.load_gemv_weights(t, &a, rows, cols).unwrap();
        let q1 = server.submit(model, &x).unwrap();
        assert!(matches!(
            server.submit(model, &x),
            Err(ServeError::QueueFull { .. })
        ));
        server.run_until_idle();
        assert_eq!(server.wait(q1).unwrap(), host_gemv(&a, &x, rows, cols));
        let snap = tele.snapshot();
        assert_eq!(snap.counter("serve.requests.submitted"), Some(1));
        assert_eq!(snap.counter("serve.requests.completed"), Some(1));
        assert_eq!(snap.counter("serve.admission.rejected"), Some(1));
        assert_eq!(snap.counter("serve.tenant.alpha.submitted"), Some(1));
        assert_eq!(snap.counter("serve.tenant.alpha.completed"), Some(1));
        assert_eq!(snap.counter("serve.tenant.alpha.rejected"), Some(1));
        assert_eq!(snap.histogram("serve.latency.seconds").unwrap().count, 1);
        assert_eq!(
            snap.histogram("serve.tenant.alpha.latency.seconds")
                .unwrap()
                .count,
            1
        );
        let bs = snap.histogram("serve.batch.size").unwrap();
        assert_eq!((bs.count, bs.sum), (1, 1.0));
        // The queue backlog gauge drained back to zero after the round.
        assert_eq!(snap.gauge("serve.queue.depth"), Some(0.0));
        // Simulator and pool series flow through the same shared registry.
        assert!(snap.counter("upmem.launches").unwrap_or(0) >= 1);
        assert!(snap.gauge("upmem.energy_j").unwrap_or(0.0) > 0.0);
        assert!(snap.gauge("runtime.pool.workers").unwrap_or(0.0) >= 1.0);
    }

    #[test]
    fn soft_admission_evicts_cold_classes_and_reloads_bit_identically() {
        // 8 DPUs / 4 tenant slots => 2 DPUs per slot: gemv 4x4 is 56 B/DPU
        // and gemv 8x4 is 96 B/DPU, so either class fits under a 128-byte
        // budget alone but never both at once.
        let mut server = SessionServer::new(tiny_options().with_mram_limit_bytes(128));
        let t = server.register_tenant(TenantSpec::new("hot"));
        let u = server.register_tenant(TenantSpec::new("cold"));
        let a = ramp(4 * 4, 3, -5);
        let b = ramp(8 * 4, 2, 1);
        let xa = ramp(4, 1, 2);
        let xb = ramp(4, -1, 7);
        let ma = server.load_gemv_weights(t, &a, 4, 4).unwrap();
        let before = server.submit(ma, &xa).and_then(|q| server.wait(q)).unwrap();
        // The second class does not fit next to the first: admission evicts
        // the idle class's weights instead of returning CapacityExhausted.
        let mb = server.load_gemv_weights(u, &b, 8, 4).unwrap();
        assert!(server.residency_snapshot().evictions >= 1);
        assert!(server.mram_used_bytes() <= 128);
        // Re-admitting the evicted class (evicting the other in turn) bills
        // exactly the price `make_room` ranks it by.
        let cfg = server.backend.system().config();
        let price = cfg.chunked_transfer(server.groups[0].w_stage.len()).seconds;
        server.backend.reset_stats();
        server.ensure_resident(0).unwrap();
        let billed = server.upmem_stats().host_to_dpu_seconds;
        assert_eq!(billed.to_bits(), price.to_bits());
        // Scheduling it serves bit-identical results.
        let after = server.submit(ma, &xa).and_then(|q| server.wait(q)).unwrap();
        assert_eq!(after, before);
        assert_eq!(after, host_gemv(&a, &xa, 4, 4));
        let yb = server.submit(mb, &xb).and_then(|q| server.wait(q)).unwrap();
        assert_eq!(yb, host_gemv(&b, &xb, 8, 4));
        let snap = server.residency_snapshot();
        assert!(snap.reloads >= 2);
        assert!(snap.reload_bytes > 0);
        assert!(snap.peak_mram_bytes <= 128);
        assert_eq!(snap.limit_bytes, 128);
    }

    #[test]
    fn unloading_releases_slots_and_mram_bytes() {
        let mut server = SessionServer::new(tiny_options().with_tenant_slots(2));
        let t = server.register_tenant(TenantSpec::new("a"));
        let u = server.register_tenant(TenantSpec::new("b"));
        let a = ramp(4 * 4, 1, 0);
        let x = ramp(4, 1, 0);
        let m1 = server.load_gemv_weights(t, &a, 4, 4).unwrap();
        let m2 = server.load_gemv_weights(u, &a, 4, 4).unwrap();
        assert!(matches!(
            server.load_gemv_weights(t, &a, 4, 4),
            Err(ServeError::SlotsExhausted { .. })
        ));
        // A queued request pins the model.
        let q = server.submit(m1, &x).unwrap();
        assert_eq!(server.unload_model(m1), Err(ServeError::ModelBusy));
        server.wait(q).unwrap();
        // Draining unblocks the unload; the freed slot is reusable and the
        // stale handle stays typed.
        server.unload_model(m1).unwrap();
        assert_eq!(server.submit(m1, &x), Err(ServeError::UnknownModel));
        assert_eq!(server.unload_model(m1), Err(ServeError::UnknownModel));
        let m3 = server.load_gemv_weights(t, &a, 4, 4).unwrap();
        let y = server.submit(m3, &x).and_then(|q| server.wait(q)).unwrap();
        assert_eq!(y, host_gemv(&a, &x, 4, 4));
        let y2 = server.submit(m2, &x).and_then(|q| server.wait(q)).unwrap();
        assert_eq!(y2, host_gemv(&a, &x, 4, 4));
        // Emptying the class returns its per-DPU bytes to the budget.
        assert!(server.mram_used_bytes() > 0);
        server.unload_tenant(t).unwrap();
        assert!(server.mram_used_bytes() > 0, "class still hosts tenant b");
        server.unload_tenant(u).unwrap();
        assert_eq!(server.mram_used_bytes(), 0);
        // Tenants stay registered and can load again (re-admitting the
        // released class through the residency path).
        let m4 = server.load_gemv_weights(t, &a, 4, 4).unwrap();
        let y = server.submit(m4, &x).and_then(|q| server.wait(q)).unwrap();
        assert_eq!(y, host_gemv(&a, &x, 4, 4));
    }

    #[test]
    fn a_consumed_ticket_turns_stale() {
        let mut server = SessionServer::new(tiny_options());
        let t = server.register_tenant(TenantSpec::new("solo"));
        let model = server
            .load_gemv_weights(t, &ramp(4 * 4, 1, 0), 4, 4)
            .unwrap();
        let ticket = server.submit(model, &ramp(4, 1, 0)).unwrap();
        server.wait(ticket).unwrap();
        assert_eq!(server.wait(ticket), Err(ServeError::StaleTicket));
    }

    #[test]
    fn injected_faults_recover_without_corrupting_any_tenant() {
        let fault = FaultConfig::seeded(0xC1A0)
            .with_launch_fault_rate(0.2)
            .with_transfer_timeout_rate(0.1)
            .with_permanent_after_launches(6);
        let mut server = SessionServer::new(tiny_options().with_fault(fault));
        let (rows, cols) = (7, 5);
        let mut models = Vec::new();
        let mut weights = Vec::new();
        for i in 0..3 {
            let t = server.register_tenant(TenantSpec::new(format!("t{i}")));
            let a = ramp(rows * cols, i + 2, -i);
            models.push(server.load_gemv_weights(t, &a, rows, cols).unwrap());
            weights.push(a);
        }
        for round in 0..6 {
            let x = ramp(cols, round + 1, round);
            let tickets: Vec<_> = models
                .iter()
                .map(|&m| server.submit(m, &x).unwrap())
                .collect();
            for (ticket, a) in tickets.into_iter().zip(&weights) {
                let y = server.wait(ticket).unwrap();
                assert_eq!(y, host_gemv(a, &x, rows, cols), "round {round}");
            }
        }
        let fault_stats = server.fault_stats();
        assert!(
            fault_stats.transient_retries > 0 || fault_stats.permanent_faults > 0,
            "the schedule should have injected faults"
        );
        assert_eq!(server.stats().failed, 0);
    }

    #[test]
    fn weighted_tenants_get_proportional_service_under_backlog() {
        let mut server = SessionServer::new(tiny_options().with_max_batch(1).with_queue_depth(64));
        let heavy = server.register_tenant(TenantSpec::new("heavy").with_weight(3));
        let light = server.register_tenant(TenantSpec::new("light"));
        let a = ramp(6 * 4, 1, 1);
        let mh = server.load_gemv_weights(heavy, &a, 6, 4).unwrap();
        let ml = server.load_gemv_weights(light, &a, 6, 4).unwrap();
        let x = ramp(4, 1, 0);
        let mut tickets = Vec::new();
        for _ in 0..16 {
            tickets.push(server.submit(mh, &x).unwrap());
            tickets.push(server.submit(ml, &x).unwrap());
        }
        // Drain half the backlog: the heavy tenant should have ~3x the
        // completions of the light one (max_batch 1 serializes rounds).
        for _ in 0..16 {
            assert!(server.step() > 0);
        }
        let sh = server.tenant_stats(heavy);
        let sl = server.tenant_stats(light);
        assert_eq!(sh.completed + sl.completed, 16);
        assert!(
            sh.completed >= 11 && sh.completed <= 13,
            "heavy share {} of 16 is not ~3:1",
            sh.completed
        );
        server.run_until_idle();
        for ticket in tickets {
            server.wait(ticket).unwrap();
        }
    }
}
