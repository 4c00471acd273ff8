//! The lazy `Session` graph API with device-resident tensors — the one
//! public execution entry point of the reproduction.
//!
//! The eager per-backend methods force every operation through a full
//! host round-trip: scatter the inputs, launch, gather the output — even
//! when the very next op consumes that output in place. A [`Session`]
//! instead records a **lazy op graph** against typed [`TensorHandle`]s and
//! compiles the whole graph at [`Session::run`]:
//!
//! 1. **Placement, by price.** Each op is placed by the (cached)
//!    [`CachedShardPlanner`] built from the devices' own cost hookups
//!    ([`cinm_lowering::Device::cost`]), told what the session's residency
//!    leaves the op on the grid. The whole op on the grid is priced by the
//!    grid's model over the commands the session would issue there —
//!    [`CnmOp::commands`] less the scatter or broadcast of each operand
//!    already resident in its role, less the gather a resident result
//!    defers; every other plan first pays the gathers that move operands
//!    only the grid holds. The cheaper wins under `Auto` (the more frugal
//!    under `MinimizeEnergy`); forced policies keep their plan. The PrIM
//!    device kernels without a planner model (`select`, `time_series`,
//!    `bfs_step`) run on the grid.
//! 2. **Compilation.** Every op is lowered through the one table
//!    ([`cinm_lowering::cnm_op::CnmOp::geometry`]). Consecutive UPMEM-placed
//!    ops become one **segment**: the commands their price was decided by,
//!    in program order (a zeroing of each output buffer before its launch),
//!    executed through the simulator's eager entry points. Sharded ops
//!    dispatch one `Device::run` per device concurrently on the shared
//!    worker pool via [`ShardedBackend::run`]. The price of the plan is
//!    published per device as the `session.planned.*` gauges of
//!    [`SessionOptions::telemetry`]; on the grid it is one walk over the
//!    commands the run issues (fused launches, gathers, grid shards and the
//!    spills of the residency manager), so it is the run's bill.
//! 3. **Residency.** Intermediate tensors stay in DPU MRAM between ops:
//!    a `gemv → select` chain launches both kernels against the same
//!    resident buffer, skipping the gather + re-scatter the eager API pays.
//!    Unchanged *input* tensors also stay resident across runs — a serving
//!    loop re-broadcasts only the vectors it [`Session::write`]s.
//!    [`Session::fetch`] is the only point data returns to the host.
//! 4. **Fed inputs.** A tensor made by [`Session::input`] has no contents of
//!    its own: [`Session::run_with`] feeds it a slice for one run, read in
//!    place by the scatter, the launches and the host and crossbar shards,
//!    so a cold run copies no input (a written tensor is a copy the session
//!    keeps, and stays resident). Bills and results are those of writing it.
//!
//! # The graph optimizer
//!
//! On a plan-cache miss the session optimizes the graph it recorded, in the
//! form it recorded it — the canonical `OpNode`s, with per-slot scratch kept
//! between calls (`crate::fusion` has the passes and the fusion rule):
//! duplicate ops are CSE'd, dead ops (only possible after
//! [`Session::discard`]) are eliminated, a placement pass marks the
//! element-wise ops that stay on the UPMEM grid, and those are **fused into
//! multi-output kernel launches** (`DpuKernelKind::FusedElementwise`) — the
//! BFS epilogue's three launches per iteration become one. The optimizer
//! never changes results: every constituent's output still materialises
//! under its own handle, bit-identically to the unoptimized program
//! ([`SessionOptions::with_optimizer`]`(false)`, property-tested).
//!
//! # Replay (the allocation-free hot path)
//!
//! `run()` memoizes compiled plans in a small LRU cache keyed by the graph's
//! **canonical signature**: tensor slots are renamed in first-use order, so
//! structurally identical graphs match even when their temporary ids rotate
//! (the steady state of any iterating loop — BFS re-records the same five
//! ops against fresh frontier handles every iteration). On a hit the plan's
//! physical bindings are patched in place (`rebind`) and the session
//! **replays** the compiled plan — the same segment executor a fresh
//! compilation runs, minus the compile — performing **zero heap allocations
//! per op**, pinned by `tests/alloc_regression.rs`. The first iterations of
//! a loop compile
//! (cold transfers, then once more with the inputs observed resident — at
//! most two compilations); every later iteration replays.
//!
//! # Equivalence
//!
//! With residency disabled ([`SessionOptions::with_residency`]`(false)`)
//! the compiled program is command-for-command the eager per-op program:
//! results **and** simulated statistics are bit-identical to calling the
//! backend methods in graph order (property-tested in
//! `tests/properties.rs`). With residency enabled, results stay
//! bit-identical while strictly fewer simulated bytes cross the host
//! interface on multi-op chains.
//!
//! ```
//! use cinm_core::session::{Session, SessionOptions};
//! use cinm_core::{ShardPolicy, Target};
//! use upmem_sim::UpmemConfig;
//!
//! let mut cfg = UpmemConfig::with_ranks(1);
//! cfg.dpus_per_rank = 4;
//! let mut sess = Session::new(
//!     SessionOptions::default()
//!         .with_upmem_config(cfg)
//!         .with_policy(ShardPolicy::Single(Target::Cnm)),
//! );
//! let a = sess.matrix(&vec![1; 8 * 6], 8, 6);
//! let x = sess.vector(&vec![1; 6]);
//! let y = sess.gemv(a, x); // lazy: nothing executed yet
//! let s = sess.select(y, 3); // chained: y stays resident in MRAM
//! sess.run().unwrap();
//! assert_eq!(sess.fetch(y), vec![6; 8]);
//! assert_eq!(sess.fetch(s), vec![6; 8]);
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use cinm_lowering::cnm_op::{CnmGeometry, CnmOp, Command, MramLayout, OutputLayout};
use cinm_lowering::{Cost, ShardError, ShardSplit, ShardedBackend, ShardedRunOptions};
use cinm_runtime::{FaultConfig, FaultStats};
use upmem_sim::{
    BinOp, DpuKernelKind, FusedStage, HostImage, KernelSpec, SimError, SystemStats, UpmemConfig,
    MAX_FUSED_STAGES,
};

use crate::fusion::{self, SchedItem};
use crate::shard::{CachedShardPlanner, OnGrid, ShardPlan, ShardPlanner, ShardPolicy};
use crate::target::Target;

/// Options of a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Device set configuration (ranks, UPMEM/CIM code-generation options,
    /// host roofline, shared pool) — the same options the sharded backend
    /// takes.
    pub sharded: ShardedRunOptions,
    /// The placement policy handed to the shard planner.
    pub policy: ShardPolicy,
    /// Whether intermediate (and unchanged input) tensors stay
    /// device-resident between ops and runs. Disabling reproduces the eager
    /// per-op program exactly — the equivalence-oracle mode.
    pub residency: bool,
    /// Whether the graph optimizer (CSE, DCE, element-wise fusion) runs
    /// between recording and compilation. Only active together with
    /// `residency` (the optimizer reasons about device-resident chains);
    /// disabling compiles every recorded op one-to-one — the oracle mode for
    /// the optimizer-equivalence property tests.
    pub optimizer: bool,
    /// Explicit UPMEM machine configuration (test harnesses use small
    /// grids); `None` uses `sharded.ranks` DIMMs of the default geometry.
    pub upmem_config: Option<UpmemConfig>,
    /// Deterministic fault schedule injected into **both** simulators (the
    /// UPMEM grid and the crossbar). `None` runs fault-free. Under any
    /// schedule that leaves at least one healthy device, session results
    /// stay bit-identical to the fault-free run — the session retries
    /// transients, re-plans around dead devices and falls back to the host.
    pub fault: Option<FaultConfig>,
    /// Per-DPU MRAM budget the session's resident tensors must fit in
    /// (capped at the machine's physical `mram_bytes`). `None` uses the
    /// full physical MRAM. Under pressure the session evicts resident
    /// tensors by cost — spilling to the host or dropping rematerializable
    /// intermediates — and results stay bit-identical to the unlimited run
    /// for any limit that admits the graph's true working set; a limit
    /// below that surfaces as a typed [`ShardError::MramExhausted`].
    pub mram_limit_bytes: Option<usize>,
    /// Optional metrics registry. The session threads it into both
    /// simulators (per-op counters, accumulated joules) and publishes its
    /// own gauges after every run: run/replay counts, plan-cache
    /// hits/misses/hit-rate, residency evictions/spills/remat ops, fault
    /// retries. Recording is atomics-only — results, simulated statistics
    /// and the warmed hot path's zero-allocation guarantee are unaffected.
    pub telemetry: Option<cinm_telemetry::Telemetry>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            sharded: ShardedRunOptions::default(),
            policy: ShardPolicy::Auto,
            residency: true,
            optimizer: true,
            upmem_config: None,
            fault: None,
            mram_limit_bytes: None,
            telemetry: None,
        }
    }
}

impl SessionOptions {
    /// Overrides the placement policy.
    pub fn with_policy(mut self, policy: ShardPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables or disables device residency (see the field documentation).
    pub fn with_residency(mut self, residency: bool) -> Self {
        self.residency = residency;
        self
    }

    /// Enables or disables the graph optimizer (see the field
    /// documentation).
    pub fn with_optimizer(mut self, optimizer: bool) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Overrides the UPMEM machine configuration.
    pub fn with_upmem_config(mut self, config: UpmemConfig) -> Self {
        self.upmem_config = Some(config);
        self
    }

    /// Overrides the full device-set options.
    pub fn with_sharded(mut self, sharded: ShardedRunOptions) -> Self {
        self.sharded = sharded;
        self
    }

    /// Attaches a deterministic fault schedule to both simulators (see the
    /// field documentation).
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Caps the per-DPU MRAM bytes available to resident tensors (see the
    /// field documentation).
    pub fn with_mram_limit_bytes(mut self, limit: usize) -> Self {
        self.mram_limit_bytes = Some(limit);
        self
    }

    /// Attaches a metrics registry (see the field documentation).
    pub fn with_telemetry(mut self, telemetry: cinm_telemetry::Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

/// Logical shape of a session tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TensorShape {
    /// A flat vector of `len` elements.
    Vector {
        /// Element count.
        len: usize,
    },
    /// A row-major matrix.
    Matrix {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// A single scalar (reduction results).
    Scalar,
}

impl TensorShape {
    /// Total element count of the shape. For `select` outputs this is the
    /// *upper bound* (the input length) — the fetched vector carries the
    /// data-dependent actual length.
    pub fn len(&self) -> usize {
        match self {
            TensorShape::Vector { len } => *len,
            TensorShape::Matrix { rows, cols } => rows * cols,
            TensorShape::Scalar => 1,
        }
    }

    /// Whether the shape holds zero elements (sessions reject empty
    /// tensors, so this is always `false` for live handles).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A typed handle to a session tensor — a `Copy` token naming a tensor plus
/// its logical shape.
///
/// Handles of **op outputs** stay fetchable until the *next* [`Session::run`]
/// (at which point unreferenced temporaries are recycled and their handles
/// go stale — using one afterwards panics with a clear message); handles of
/// [`Session::vector`]/[`Session::matrix`]/[`Session::input`] source tensors
/// stay valid for the session's lifetime.
///
/// ```
/// use cinm_core::session::{Session, SessionOptions, TensorShape};
///
/// let mut sess = Session::new(SessionOptions::default());
/// let v = sess.vector(&[1, 2, 3, 4]);
/// assert_eq!(v.shape(), TensorShape::Vector { len: 4 });
/// assert_eq!(v.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorHandle {
    id: u32,
    gen: u32,
    shape: TensorShape,
}

impl TensorHandle {
    /// The logical shape of the tensor.
    pub fn shape(&self) -> TensorShape {
        self.shape
    }

    /// Total element count (see [`TensorShape::len`]).
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// Whether the tensor is empty (never true for live handles).
    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }
}

/// Where a resident tensor's device copy lives and how to decode it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Resident {
    /// The MRAM buffer holding the copy.
    buf: u32,
    /// Per-DPU elements of that buffer (the gather chunk).
    gather_chunk: usize,
    /// How the buffer contents map back to the logical tensor.
    layout: OutputLayout,
}

/// The id-free residency of a tensor — `(gather chunk, layout)` of its
/// device copy, `None` when it has none (or a stale one). Placement,
/// replay preconditions and the compile-time virtual state all reason in
/// these terms; physical buffer ids never enter a decision.
type Residency = Option<(usize, OutputLayout)>;

/// Whether a residency satisfies an operand role without a transfer.
fn residency_matches(resident: Residency, key: MramLayout) -> bool {
    match (resident, key) {
        (Some((c, OutputLayout::Chunked)), MramLayout::Chunk(k)) => c == k,
        (Some((l, OutputLayout::Replicated)), MramLayout::Broadcast(k)) => l == k,
        _ => false,
    }
}

/// Binds an op's `inputs` to their operand roles `keys` against the
/// virtual host validity and residency `state`, input by input as the
/// lowering binds them: a tensor used twice transfers once into one role.
/// Per input: `held` resident in its role, so not transferred (with `keep`
/// off nothing stays resident), and `moves` the per-DPU chunk of a tensor
/// only the grid holds, gathered once — at its first use the grid does not
/// hold, else its first use — and 0 for the others.
fn bind_inputs(
    inputs: &[u32],
    keys: &[MramLayout],
    keep: bool,
    state: impl Fn(usize) -> (bool, Residency),
    held: &mut [bool],
    moves: &mut [usize],
) {
    let mut bound: [Residency; fusion::MAX_FUSED_EXTERNALS] = Default::default();
    for (i, (&t, &key)) in inputs.iter().zip(keys).enumerate() {
        let earlier = (0..i).rev().find(|&j| inputs[j] == t);
        let resident = earlier.map_or_else(|| state(t as usize).1, |j| bound[j]);
        let transferred = keep.then_some(residency_of(key));
        held[i] = residency_matches(resident, key);
        bound[i] = if held[i] { resident } else { transferred };
    }
    for (i, &t) in inputs.iter().enumerate() {
        let (host, resident) = state(t as usize);
        if !host && !inputs[..i].contains(&t) {
            let at = (i..inputs.len()).find(|&k| inputs[k] == t && !held[k]);
            moves[at.unwrap_or(i)] = resident.map_or(0, |(chunk, _)| chunk);
        }
    }
}

/// Places one op by price, against the host validity and residency `state`
/// of its inputs: the planner's plan under what that residency leaves the op
/// of `geometry` on `dpus` DPUs ([`ShardPlanner::plan_on`]), its result kept
/// resident when `keep`. A plan whose work is all on the grid keeps the op
/// in the UPMEM segment; any other plan shard-dispatches it. The single
/// placement rule — the optimizer's placement pass and the lowering place
/// by it, and eviction prices a recompute by it.
fn place(
    planner: &mut CachedShardPlanner,
    node: &OpNode,
    geometry: &CnmGeometry,
    dpus: usize,
    keep: bool,
    state: impl Fn(usize) -> (bool, Residency),
) -> Result<(OnGrid, ShardPlan), ShardError> {
    let mut on = OnGrid {
        dpus,
        keep,
        ..OnGrid::default()
    };
    let inputs = node.inputs();
    let keys = &geometry.inputs[..inputs.len()];
    bind_inputs(inputs, keys, keep, state, &mut on.held, &mut on.moves);
    let plan = planner.plan_on(node.kind, on)?.clone();
    Ok((on, plan))
}

/// Whether a plan keeps all of its op's work on the grid, which runs it in
/// the UPMEM segment.
fn whole_on_grid(plan: &ShardPlan) -> bool {
    plan.split.cnm == plan.split.total()
}

/// The residency a tensor has after being transferred in role `key`.
fn residency_of(key: MramLayout) -> (usize, OutputLayout) {
    match key {
        MramLayout::Chunk(c) => (c, OutputLayout::Chunked),
        MramLayout::Broadcast(l) => (l, OutputLayout::Replicated),
    }
}

/// The command that transfers the tensor of `slot` into role `key`.
fn transfer(key: MramLayout, slot: &Slot) -> Command {
    let elems = slot.shape.map_or(0, |s| s.len());
    match key {
        MramLayout::Chunk(chunk) => Command::Scatter {
            input: 0,
            chunk,
            elems,
        },
        MramLayout::Broadcast(_) => Command::Broadcast { input: 0, elems },
    }
}

/// One tensor slot of the session.
#[derive(Debug, Default)]
struct Slot {
    gen: u32,
    shape: Option<TensorShape>,
    /// Host copy (valid when `host_valid`) — the tensor's one image, which
    /// a cold upload or download shares with the simulator's slab instead of
    /// copying (the rule is `upmem_sim::system`'s). Storage is retained
    /// across recycling so steady-state loops never re-allocate.
    host: HostImage,
    host_valid: bool,
    /// Index of the slice this slot is fed for the run in flight
    /// ([`Session::run_with`]) — its host copy instead of `host` while set.
    feed: Option<u32>,
    /// Whether the resident device copy is current.
    device_valid: bool,
    resident: Option<Resident>,
    /// Whether the tensor may be consumed by further ops (select outputs
    /// have data-dependent length and are fetch-only).
    composable: bool,
    pinned: bool,
    /// Device buffers of this slot, keyed by role layout. Kept across
    /// recycling (same-shaped successors reuse the MRAM).
    bufs: Vec<(MramLayout, u32)>,
    /// The price of transferring `bufs` back in, kept by `ensure_buf_in`:
    /// what evicting a tensor with a host copy costs.
    reload: Cost,
    /// Run token of the last run that bound this slot: its staleness.
    last_use: u64,
    /// Run token of the run currently compiling or replaying against this
    /// slot; a slot whose token matches the in-flight run is never a
    /// victim (its buffer ids are already patched into the plan).
    protected: u64,
    /// The op that produced this tensor, with physical input slots — the
    /// DTR-style recompute recipe a dropped (unspilled) tensor is
    /// rematerialized from. `None` for source tensors.
    recipe: Option<OpNode>,
    /// Generations of the recipe's input slots at recording time; a bumped
    /// generation means an input was recycled and the recipe is dead.
    recipe_gens: [u32; 3],
}

impl Slot {
    /// The effective residency: `None` while the device copy is stale.
    fn residency(&self) -> Residency {
        self.device_valid
            .then_some(self.resident)
            .flatten()
            .map(|r| (r.gather_chunk, r.layout))
    }
}

/// Recycles slot `id`: its handle goes stale and the id returns to the free
/// list; host storage and device buffers stay attached for the next tenant.
/// Its recompute recipe dies with it — a free slot, invalid on both sides,
/// must not look like a dropped tensor to `remat_dependents_of`.
fn recycle_slot(slots: &mut [Slot], free: &mut VecDeque<u32>, id: u32) {
    let slot = &mut slots[id as usize];
    slot.gen = slot.gen.wrapping_add(1);
    slot.host_valid = false;
    slot.device_valid = false;
    slot.resident = None;
    slot.recipe = None;
    free.push_back(id);
}

/// One recorded graph op. `PartialEq` + `Copy` so the replay signature
/// check is a plain slice comparison with no allocation; `Hash` feeds the
/// canonical graph signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct OpNode {
    pub(crate) kind: CnmOp,
    pub(crate) inputs: [u32; 3],
    pub(crate) n_inputs: u8,
    pub(crate) output: u32,
}

impl OpNode {
    pub(crate) fn inputs(&self) -> &[u32] {
        &self.inputs[..self.n_inputs as usize]
    }
}

/// Hashes a canonical op graph (plus the residency mode) into its replay
/// signature. [`Session::canonicalize`] and the serving layer's batching
/// key both call this, so "same compiled plan" and "batch-compatible
/// request" stay the same predicate by construction.
fn canonical_signature(ops: &[OpNode], discards: &[bool], residency: bool) -> u64 {
    let mut hasher = DefaultHasher::new();
    ops.hash(&mut hasher);
    discards.hash(&mut hasher);
    residency.hash(&mut hasher);
    hasher.finish()
}

/// Canonical replay signature of a single-op request graph
/// (`y = gemv(a, x)` or `c = gemm(a, b)`) recorded on a fresh resident
/// session — the batching compatibility key of the serving layer
/// ([`crate::serve`]): two requests may share one fused launch iff their
/// signatures match. A unit test pins this to the signature `canonicalize`
/// computes for the same graph. The canonical form of any fresh two-input
/// single-op graph: inputs intern to canonical slots 0 and 1 (the unused
/// third input stays at its recorded zero padding), the output to slot 2,
/// nothing discarded, residency on.
pub(crate) fn single_op_signature(kind: CnmOp) -> u64 {
    let node = OpNode {
        kind,
        inputs: [0, 1, 0],
        n_inputs: 2,
        output: 2,
    };
    canonical_signature(&[node], &[false], true)
}

/// One compiled UPMEM command of a segment.
///
/// Commands carry both **canonical** fields (`cslot` indices into the plan's
/// `binding`, plus layout keys) and the **physical** fields the executors
/// read (slot ids, buffer ids). On a replay-cache hit `rebind` re-derives
/// every physical field from the canonical ones under the new binding, so
/// one memoized plan serves every graph with the same canonical signature.
#[derive(Debug)]
enum CnmCmd {
    /// A scatter (`Chunk`) or broadcast (`Broadcast`) of the slot.
    Transfer {
        cslot: u32,
        slot: u32,
        buf: u32,
        key: MramLayout,
    },
    Zero {
        cslot: u32,
        key: MramLayout,
        buf: u32,
    },
    Launch {
        spec: KernelSpec,
        /// Canonical sources of the spec's buffer arguments, for rebinding.
        args: Vec<LaunchBind>,
    },
    /// Sets the output slot's resident descriptor after its launch.
    SetOutput {
        cslot: u32,
        slot: u32,
        resident: Resident,
    },
}

/// Canonical source of one buffer argument of a compiled kernel spec.
#[derive(Debug, Clone, Copy)]
struct LaunchBind {
    role: LaunchRole,
    cslot: u32,
    key: MramLayout,
}

/// Which field of the [`KernelSpec`] a [`LaunchBind`] patches.
#[derive(Debug, Clone, Copy)]
enum LaunchRole {
    Input(u8),
    Output,
    Extra(u8),
}

/// One compiled execution step.
#[derive(Debug)]
enum Step {
    /// Gather + decode a resident tensor to the host (segment boundary;
    /// with residency off, after every op, as the eager program gathers)
    /// of `chunk` elements per DPU.
    Materialize { cslot: u32, slot: u32, chunk: usize },
    /// One run of consecutive UPMEM commands, executed in program order.
    Segment { cmds: Range<usize> },
    /// One shard-planned op dispatched across the device set.
    Planned { op: usize, split: ShardSplit },
}

/// Replay precondition of one external input, in canonical terms: the host
/// validity and the *effective* residency shape (`None` when the device
/// copy is stale) of the slot bound to `cslot`. Physical buffer and slot
/// ids deliberately do not appear — plans are data- and id-oblivious.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Precond {
    cslot: u32,
    host_valid: bool,
    resident: Residency,
}

/// Compile-local lowering state of one plan: the virtual state of every
/// canonical slot as placement evolves it (the actual slots only change at
/// execution time), which slots the schedule has produced / recorded
/// preconditions for, and the open segment.
struct Lowering {
    /// The plan-cache entry being built.
    idx: usize,
    /// Canonical slot → physical slot.
    binding: Vec<u32>,
    /// Whether the slot's host copy is (virtually) valid.
    host: Vec<bool>,
    resident: Vec<Residency>,
    produced: Vec<bool>,
    precond_done: Vec<bool>,
    /// First command of the segment under construction.
    seg_start: usize,
}

#[derive(Debug, Default)]
struct Compiled {
    valid: bool,
    residency: bool,
    /// Canonical signature hash (fast reject) of `canon_src` + discards +
    /// residency.
    sig: u64,
    /// LRU stamp (monotonic; refreshed on every hit).
    stamp: u64,
    /// The canonical source graph this plan was compiled from — replay
    /// requires an exact match.
    canon_src: Vec<OpNode>,
    /// Per-source-op discard flags at compile time.
    discards: Vec<bool>,
    /// Post-optimization canonical ops (fused groups flattened back to one
    /// node per stage — valid SSA, used for re-planning recovery and
    /// end-of-run bookkeeping).
    ops: Vec<OpNode>,
    /// Canonical slots of `canon_src` outputs the optimizer eliminated
    /// (discarded duplicates / dead ops) — recycled after every run.
    eliminated: Vec<u32>,
    /// Canonical slot → physical slot binding of the *current* run.
    binding: Vec<u32>,
    preconds: Vec<Precond>,
    steps: Vec<Step>,
    cmds: Vec<CnmCmd>,
    /// The price of a run of the plan, per device `[cnm, cim, host]`: on
    /// the grid the walk of [`Session::grid_price`] (taken only for the
    /// gauges of an attached telemetry registry), elsewhere the shards'
    /// estimates summed over the ops.
    planned: [Cost; 3],
}

/// The graph optimizer of one session: the scratch of an
/// [`Session::optimize`] call, kept between calls so that a cold run pays
/// for the graph it optimizes and not for the optimizer. Nothing here
/// outlives a call as a *result*: every table is cleared and refilled from
/// the graph at hand.
#[derive(Debug, Default)]
struct GraphOptimizer {
    /// CSE, DCE and fusion (`crate::fusion`).
    graph: fusion::Graph,
    /// The placement pass's virtual host validity and residency per
    /// canonical slot, and its verdict per surviving op: may it fuse.
    state: Vec<(bool, Residency)>,
    fusable: Vec<bool>,
}

/// Counters of the graph optimizer (see [`Session::optimizer_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerStats {
    /// Graphs that went through the optimization pipeline at compile time.
    pub graphs_optimized: u64,
    /// Source ops removed by CSE/DCE (discarded duplicates and dead code).
    pub ops_eliminated: u64,
    /// Fused element-wise groups emitted.
    pub fused_groups: u64,
    /// Element-wise ops folded into those groups.
    pub ops_fused: u64,
    /// Kernel launches saved by fusion (`ops_fused - fused_groups`).
    pub launches_saved: u64,
}

/// Counters of the compiled-plan LRU cache (see
/// [`Session::plan_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Runs that replayed a memoized plan.
    pub hits: u64,
    /// Runs that compiled.
    pub misses: u64,
    /// Valid plans evicted to make room.
    pub evictions: u64,
    /// Valid plans currently cached.
    pub entries: usize,
}

/// Counters of the session's residency manager (see
/// [`Session::residency_stats`]). All zero while the working set fits the
/// MRAM budget — the no-pressure hot path never touches the eviction
/// machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidencyStats {
    /// Resident tensors evicted under allocation pressure (any flavour:
    /// spilled, dropped with a recipe, or scratch-buffer reclaims).
    pub evictions: u64,
    /// Evictions that spilled the tensor to the host (no host copy, no
    /// usable recipe — the value had to move).
    pub spills: u64,
    /// Device-to-host bytes those spills gathered.
    pub spilled_bytes: u64,
    /// Evictions that dropped the device copy and recorded nothing — the
    /// tensor is recomputed (DTR-style) when next touched.
    pub remat_drops: u64,
    /// Recompute ops re-injected to rematerialize dropped tensors.
    pub remat_ops: u64,
    /// High-water mark of per-DPU MRAM bytes the session ever held.
    pub peak_mram_bytes: usize,
    /// Per-DPU MRAM bytes currently allocated.
    pub used_mram_bytes: usize,
    /// The per-DPU MRAM budget (the physical capacity when no explicit
    /// limit was set).
    pub limit_bytes: usize,
}

/// The residency manager's counters — a [`ResidencyStats`] whose MRAM
/// bytes are read off the simulator when a snapshot is taken — and the
/// per-DPU chunks the run in flight spilled, in billing order.
#[derive(Debug, Default)]
struct ResidencyCounters {
    stats: ResidencyStats,
    run_spills: Vec<usize>,
}

/// The session's registered telemetry series (see
/// [`SessionOptions::telemetry`]). Gauges are registered once at
/// construction and published by atomic stores after every run — the warmed
/// hot path stays allocation-free.
#[derive(Debug)]
struct SessionTele {
    runs: cinm_telemetry::Gauge,
    replays: cinm_telemetry::Gauge,
    plan_cache_hits: cinm_telemetry::Gauge,
    plan_cache_misses: cinm_telemetry::Gauge,
    plan_cache_evictions: cinm_telemetry::Gauge,
    plan_cache_entries: cinm_telemetry::Gauge,
    plan_cache_hit_rate: cinm_telemetry::Gauge,
    res_evictions: cinm_telemetry::Gauge,
    res_spills: cinm_telemetry::Gauge,
    res_spilled_bytes: cinm_telemetry::Gauge,
    res_remat_ops: cinm_telemetry::Gauge,
    fault_retries: cinm_telemetry::Gauge,
    /// The last run's planned seconds and joules per device `[cnm, cim,
    /// host]` (see `Compiled::planned`).
    planned: [[cinm_telemetry::Gauge; 2]; 3],
}

impl SessionTele {
    fn register(t: &cinm_telemetry::Telemetry) -> Self {
        SessionTele {
            runs: t.gauge("session.runs"),
            replays: t.gauge("session.replays"),
            plan_cache_hits: t.gauge("session.plan_cache.hits"),
            plan_cache_misses: t.gauge("session.plan_cache.misses"),
            plan_cache_evictions: t.gauge("session.plan_cache.evictions"),
            plan_cache_entries: t.gauge("session.plan_cache.entries"),
            plan_cache_hit_rate: t.gauge("session.plan_cache.hit_rate"),
            res_evictions: t.gauge("session.residency.evictions"),
            res_spills: t.gauge("session.residency.spills"),
            res_spilled_bytes: t.gauge("session.residency.spilled_bytes"),
            res_remat_ops: t.gauge("session.residency.remat_ops"),
            fault_retries: t.gauge("session.fault.retries"),
            planned: Target::ALL.map(|d| {
                ["seconds", "joules"].map(|u| t.gauge(&format!("session.planned.{d}.{u}")))
            }),
        }
    }
}

/// How one recovery attempt resumes execution.
#[derive(Debug, Clone, Copy)]
enum Recovery {
    /// The compiled plan is still valid: re-execute from the failed step.
    Resume,
    /// The graph was re-planned across the surviving devices into a new
    /// compiled plan: execute it from the start.
    Replanned(usize),
}

/// The lazy graph execution session (see the [module documentation](self)).
#[derive(Debug)]
pub struct Session {
    backend: ShardedBackend,
    planner: CachedShardPlanner,
    residency: bool,
    /// `None` when [`SessionOptions::optimizer`] is off.
    optimizer: Option<GraphOptimizer>,
    slots: Vec<Slot>,
    free: VecDeque<u32>,
    ops: Vec<OpNode>,
    /// Op-output slots the user marked unobserved (cleared every run).
    discarded: Vec<u32>,
    live_temps: Vec<u32>,
    /// LRU cache of memoized compiled plans (see `COMPILED_CACHE`).
    compiled: Vec<Compiled>,
    /// Monotonic LRU clock.
    stamp_counter: u64,
    /// Canonicalization scratch (reused every run, allocation-free when
    /// warmed): physical slot → canonical slot, canonical slot → physical
    /// slot, canonical ops, per-op discard flags, signature hash.
    slot_to_cslot: Vec<u32>,
    binding_scratch: Vec<u32>,
    canon_scratch: Vec<OpNode>,
    discard_scratch: Vec<bool>,
    sig_scratch: u64,
    runs: u64,
    replays: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    opt_stats: OptimizerStats,
    /// Session-level recovery counters (re-plans, degradations); the
    /// backends' own retry counters are merged in by
    /// [`fault_stats`](Session::fault_stats).
    fault_stats: FaultStats,
    /// Monotonic per-run token driving slot recency and eviction
    /// protection (separate from the LRU `stamp_counter`, which only moves
    /// on cache traffic).
    run_token: u64,
    /// Eviction/spill/remat counters of the residency manager.
    res_counters: ResidencyCounters,
    /// Whether the current `run()` is an injected rematerialization (a
    /// fetch or write forced an evicted tensor back; temp recycling is
    /// suppressed because the caller's pending graph is saved aside).
    in_remat: bool,
    /// Registered telemetry gauges (see [`SessionOptions::telemetry`]).
    tele: Option<SessionTele>,
}

impl Session {
    /// Device failures the session tries to recover from before giving up on
    /// a run. Each attempt either re-executes (transient storms, a swapped-in
    /// spare) or re-plans around a freshly unhealthy device; a graph that
    /// keeps failing past this is surfaced as an error.
    const MAX_RECOVERY_ATTEMPTS: u32 = 8;

    /// Capacity of the compiled-plan LRU cache. Sized for serving loops
    /// that interleave a handful of distinct graph shapes; the least
    /// recently replayed plan is evicted beyond this.
    const COMPILED_CACHE: usize = 8;

    /// Creates a session over the three devices described by `options`; the
    /// shard planner is assembled from the devices' own cost hookups.
    pub fn new(options: SessionOptions) -> Self {
        let SessionOptions {
            mut sharded,
            policy,
            residency,
            optimizer,
            mut upmem_config,
            fault,
            mram_limit_bytes,
            telemetry,
        } = options;
        if let Some(fault) = fault {
            // One schedule drives both simulators (independent event streams:
            // the injectors key draws on their own event counters).
            let cfg = upmem_config
                .take()
                .unwrap_or_else(|| UpmemConfig::with_ranks(sharded.ranks));
            upmem_config = Some(cfg.with_fault(fault.clone()));
            let cim_cfg = sharded.cim_config.take().unwrap_or_default();
            sharded.cim_config = Some(cim_cfg.with_fault(fault));
        }
        if let Some(limit) = mram_limit_bytes {
            // The simulator itself enforces the budget: shrinking its
            // capacity makes every allocation path report typed exhaustion,
            // which the residency manager relieves by evicting.
            let mut cfg = upmem_config
                .take()
                .unwrap_or_else(|| UpmemConfig::with_ranks(sharded.ranks));
            cfg.mram_bytes = limit.min(cfg.mram_bytes);
            upmem_config = Some(cfg);
        }
        if let Some(t) = &telemetry {
            // Both simulators register their per-op counters against the
            // same registry the session publishes its gauges to — one
            // snapshot covers the whole stack.
            let cfg = upmem_config
                .take()
                .unwrap_or_else(|| UpmemConfig::with_ranks(sharded.ranks));
            upmem_config = Some(cfg.with_telemetry(t.clone()));
            let cim_cfg = sharded.cim_config.take().unwrap_or_default();
            sharded.cim_config = Some(cim_cfg.with_telemetry(t.clone()));
        }
        let backend = match upmem_config {
            Some(cfg) => ShardedBackend::with_upmem_config(cfg, sharded),
            None => ShardedBackend::new(sharded),
        };
        let mut planner = ShardPlanner::new().with_policy(policy);
        for device in Target::ALL {
            planner.register_device(backend.device(device));
        }
        Session {
            backend,
            planner: CachedShardPlanner::new(planner),
            residency,
            optimizer: optimizer.then(GraphOptimizer::default),
            slots: Vec::new(),
            free: VecDeque::new(),
            ops: Vec::new(),
            discarded: Vec::new(),
            live_temps: Vec::new(),
            compiled: Vec::new(),
            stamp_counter: 0,
            slot_to_cslot: Vec::new(),
            binding_scratch: Vec::new(),
            canon_scratch: Vec::new(),
            discard_scratch: Vec::new(),
            sig_scratch: 0,
            runs: 0,
            replays: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            opt_stats: OptimizerStats::default(),
            fault_stats: FaultStats::default(),
            run_token: 0,
            res_counters: ResidencyCounters::default(),
            in_remat: false,
            tele: telemetry.as_ref().map(SessionTele::register),
        }
    }

    // -- tensors ------------------------------------------------------------

    fn alloc_slot(&mut self, shape: TensorShape, composable: bool) -> TensorHandle {
        assert!(!shape.is_empty(), "session tensors must be non-empty");
        let id = match self.free.pop_front() {
            Some(id) => {
                let slot = &mut self.slots[id as usize];
                slot.shape = Some(shape);
                slot.host_valid = false;
                slot.device_valid = false;
                slot.resident = None;
                slot.composable = composable;
                slot.pinned = false;
                slot.last_use = 0;
                slot.protected = 0;
                slot.recipe_gens = [0; 3];
                id
            }
            None => {
                let id = self.slots.len() as u32;
                self.slots.push(Slot {
                    shape: Some(shape),
                    composable,
                    ..Slot::default()
                });
                id
            }
        };
        TensorHandle {
            id,
            gen: self.slots[id as usize].gen,
            shape,
        }
    }

    fn check(&self, h: TensorHandle) -> &Slot {
        let slot = &self.slots[h.id as usize];
        assert_eq!(
            slot.gen, h.gen,
            "stale tensor handle: op outputs are recycled at the next run() \
             unless pinned or used as inputs"
        );
        slot
    }

    fn check_input(&self, h: TensorHandle) {
        let slot = self.check(h);
        assert!(
            slot.composable,
            "select outputs have data-dependent length and can only be fetched"
        );
    }

    /// Creates a vector tensor from host data.
    pub fn vector(&mut self, data: &[i32]) -> TensorHandle {
        let h = self.alloc_slot(TensorShape::Vector { len: data.len() }, true);
        self.write(h, data);
        h
    }

    /// Creates a row-major matrix tensor from host data.
    pub fn matrix(&mut self, data: &[i32], rows: usize, cols: usize) -> TensorHandle {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        let h = self.alloc_slot(TensorShape::Matrix { rows, cols }, true);
        self.write(h, data);
        h
    }

    /// Creates a tensor of `shape` with no contents: a **fed input**, whose
    /// contents each [`run_with`](Self::run_with) lends for that run only.
    pub fn input(&mut self, shape: TensorShape) -> TensorHandle {
        self.alloc_slot(shape, true)
    }

    /// Overwrites a tensor's host contents (device copies are invalidated;
    /// the next run re-transfers it). The data length must match the shape.
    /// The session keeps a copy; [`run_with`](Self::run_with) feeds contents
    /// for one run without one.
    pub fn write(&mut self, h: TensorHandle, data: &[i32]) {
        self.check(h);
        assert_eq!(data.len(), h.shape.len(), "write length mismatch");
        self.kill_recipes_reading(h.id);
        let slot = &mut self.slots[h.id as usize];
        slot.recipe = None;
        let host = slot.host.overwrite();
        host.clear();
        host.extend_from_slice(data);
        slot.host_valid = true;
        slot.device_valid = false;
    }

    /// Retires every recompute recipe that reads tensor `id`, whose contents
    /// are about to change or leave the session. An evicted dependent would
    /// later rematerialize from the wrong contents, so it is recomputed
    /// first.
    fn kill_recipes_reading(&mut self, id: u32) {
        self.remat_dependents_of(id);
        for s in self.slots.iter_mut() {
            if s.recipe.is_some_and(|r| r.inputs().contains(&id)) {
                s.recipe = None;
            }
        }
    }

    /// Pins an op output so it survives future runs even when unreferenced.
    pub fn pin(&mut self, h: TensorHandle) {
        self.check(h);
        self.slots[h.id as usize].pinned = true;
    }

    /// Marks a *recorded op output* of the pending graph as unobserved: the
    /// caller promises not to fetch it. The optimizer may then eliminate the
    /// op entirely (if nothing consumes it) or CSE it into a structurally
    /// identical twin; either way the handle goes stale after the next
    /// [`Session::run`]. Discarding a source tensor has no effect.
    pub fn discard(&mut self, h: TensorHandle) {
        self.check(h);
        if !self.discarded.contains(&h.id) {
            self.discarded.push(h.id);
        }
    }

    /// Reinterprets a tensor under a different shape of the same element
    /// count (e.g. an element-wise result viewed as the next layer's matrix).
    /// The returned handle aliases the same tensor — residency is preserved.
    pub fn reshape(&mut self, h: TensorHandle, shape: TensorShape) -> TensorHandle {
        self.check_input(h);
        assert_eq!(h.shape.len(), shape.len(), "reshape must preserve length");
        TensorHandle {
            id: h.id,
            gen: h.gen,
            shape,
        }
    }

    // -- graph building -----------------------------------------------------

    fn push_op(
        &mut self,
        kind: CnmOp,
        inputs: &[TensorHandle],
        out_shape: TensorShape,
        composable: bool,
    ) -> TensorHandle {
        for &h in inputs {
            self.check_input(h);
        }
        let out = self.alloc_slot(out_shape, composable);
        let mut ids = [0u32; 3];
        for (slot, h) in ids.iter_mut().zip(inputs) {
            *slot = h.id;
        }
        self.ops.push(OpNode {
            kind,
            inputs: ids,
            n_inputs: inputs.len() as u8,
            output: out.id,
        });
        out
    }

    fn vec_len(h: TensorHandle) -> usize {
        match h.shape() {
            TensorShape::Vector { len } => len,
            other => panic!("expected a vector tensor, got {other:?}"),
        }
    }

    /// Records `C[m×n] = A[m×k] × B[k×n]`.
    pub fn gemm(&mut self, a: TensorHandle, b: TensorHandle) -> TensorHandle {
        let (TensorShape::Matrix { rows: m, cols: k }, TensorShape::Matrix { rows: kb, cols: n }) =
            (a.shape(), b.shape())
        else {
            panic!("gemm expects two matrix tensors");
        };
        assert_eq!(k, kb, "gemm inner dimensions must match");
        self.push_op(
            CnmOp::Gemm { m, k, n },
            &[a, b],
            TensorShape::Matrix { rows: m, cols: n },
            true,
        )
    }

    /// Records `y[rows] = A[rows×cols] × x[cols]`.
    pub fn gemv(&mut self, a: TensorHandle, x: TensorHandle) -> TensorHandle {
        let TensorShape::Matrix { rows, cols } = a.shape() else {
            panic!("gemv expects a matrix tensor");
        };
        assert_eq!(Self::vec_len(x), cols, "gemv vector length mismatch");
        self.push_op(
            CnmOp::Gemv { rows, cols },
            &[a, x],
            TensorShape::Vector { len: rows },
            true,
        )
    }

    /// Records an element-wise binary op over two equal-length tensors.
    pub fn elementwise(&mut self, op: BinOp, a: TensorHandle, b: TensorHandle) -> TensorHandle {
        let len = a.len();
        assert_eq!(len, b.len(), "element-wise operands must match");
        self.push_op(
            CnmOp::Elementwise { op, len },
            &[a, b],
            TensorShape::Vector { len },
            true,
        )
    }

    /// Records a reduction to a scalar tensor.
    pub fn reduce(&mut self, op: BinOp, a: TensorHandle) -> TensorHandle {
        let len = a.len();
        self.push_op(CnmOp::Reduce { op, len }, &[a], TensorShape::Scalar, true)
    }

    /// Records a histogram over `bins` bins of values in `[0, max_value)`.
    pub fn histogram(&mut self, a: TensorHandle, bins: usize, max_value: i32) -> TensorHandle {
        assert!(bins > 0, "histogram needs at least one bin");
        let len = a.len();
        self.push_op(
            CnmOp::Histogram {
                bins,
                max_value,
                len,
            },
            &[a],
            TensorShape::Vector { len: bins },
            true,
        )
    }

    /// Records a database select (`> threshold`). The output's shape carries
    /// the input length as an *upper bound*; the fetched vector has the
    /// data-dependent actual length, and the handle cannot feed further ops.
    pub fn select(&mut self, a: TensorHandle, threshold: i32) -> TensorHandle {
        let len = a.len();
        self.push_op(
            CnmOp::Select { threshold, len },
            &[a],
            TensorShape::Vector { len },
            false,
        )
    }

    /// Records a partitioned time-series distance profile (each DPU profiles
    /// its chunk against the chunk's leading window).
    pub fn time_series(&mut self, a: TensorHandle, window: usize) -> TensorHandle {
        let len = a.len();
        assert!(window > 0 && window <= len, "invalid time-series window");
        let op = CnmOp::TimeSeries { window, len };
        let out_len = op.geometry(self.backend.num_dpus()).out_len;
        self.push_op(op, &[a], TensorShape::Vector { len: out_len }, true)
    }

    /// Records one BFS frontier expansion over partitioned CSR fragments
    /// (`rows`/`cols`/`frontier` laid out per partition, as
    /// [`crate::runner::bfs_fragments`] builds them). The output frontier
    /// has the same per-partition layout as the input frontier, so iterated
    /// BFS keeps the frontier device-resident across [`Session::run`] calls.
    pub fn bfs_step(
        &mut self,
        rows: TensorHandle,
        cols: TensorHandle,
        frontier: TensorHandle,
        vertices_per_dpu: usize,
        avg_degree: usize,
        used_dpus: usize,
    ) -> TensorHandle {
        assert_eq!(
            Self::vec_len(rows),
            used_dpus * (vertices_per_dpu + 1),
            "row-offset fragment length mismatch"
        );
        assert_eq!(
            Self::vec_len(cols),
            used_dpus * vertices_per_dpu * avg_degree,
            "column fragment length mismatch"
        );
        assert_eq!(
            Self::vec_len(frontier),
            used_dpus * vertices_per_dpu,
            "frontier length mismatch"
        );
        self.push_op(
            CnmOp::BfsStep {
                vertices_per_dpu,
                avg_degree,
                used_dpus,
            },
            &[rows, cols, frontier],
            TensorShape::Vector {
                len: used_dpus * vertices_per_dpu,
            },
            true,
        )
    }

    // -- compilation --------------------------------------------------------

    /// Renames the recorded graph's slots into canonical first-use order.
    ///
    /// Fills the canonicalization scratch: `canon_scratch` holds the ops
    /// with every slot id replaced by its canonical index, `binding_scratch`
    /// maps canonical index → physical slot, `discard_scratch` flags
    /// discarded outputs, and `sig_scratch` hashes the lot (plus the
    /// residency mode). Structurally identical graphs produce identical
    /// canonical forms regardless of which physical slot ids they touch —
    /// the key property that lets iterating loops with rotating temporaries
    /// hit the replay cache. Allocation-free once the scratch capacity is
    /// warmed.
    fn canonicalize(&mut self) {
        let residency = self.residency;
        let Session {
            ops,
            discarded,
            slots,
            slot_to_cslot,
            binding_scratch,
            canon_scratch,
            discard_scratch,
            sig_scratch,
            ..
        } = self;
        slot_to_cslot.clear();
        slot_to_cslot.resize(slots.len(), u32::MAX);
        binding_scratch.clear();
        canon_scratch.clear();
        discard_scratch.clear();
        fn intern(map: &mut [u32], binding: &mut Vec<u32>, slot: u32) -> u32 {
            let entry = &mut map[slot as usize];
            if *entry == u32::MAX {
                *entry = binding.len() as u32;
                binding.push(slot);
            }
            *entry
        }
        for op in ops.iter() {
            let mut node = *op;
            for i in 0..node.n_inputs as usize {
                node.inputs[i] = intern(slot_to_cslot, binding_scratch, node.inputs[i]);
            }
            node.output = intern(slot_to_cslot, binding_scratch, node.output);
            canon_scratch.push(node);
            discard_scratch.push(discarded.contains(&op.output));
        }
        *sig_scratch = canonical_signature(canon_scratch, discard_scratch, residency);
    }

    /// Finds a memoized compiled plan matching the canonicalized graph
    /// (`canonicalize` must have run) and the current residency
    /// preconditions of its external inputs, evaluated through the new
    /// binding. Read-only: on a hit the caller refreshes the entry's
    /// binding and stamps, then `rebind`s the physical fields.
    fn find_compiled(&self) -> Option<usize> {
        self.compiled.iter().position(|c| {
            c.valid
                && c.residency == self.residency
                && c.sig == self.sig_scratch
                && c.canon_src == self.canon_scratch
                && c.discards == self.discard_scratch
                && c.preconds.iter().all(|p| {
                    let phys = self.binding_scratch[p.cslot as usize];
                    let slot = &self.slots[phys as usize];
                    slot.host_valid == p.host_valid && slot.residency() == p.resident
                })
        })
    }

    /// Patches every physical field of plan `idx` (slot ids, buffer ids in
    /// commands and kernel specs) from its canonical fields under the
    /// entry's refreshed binding. Buffers are re-derived by layout key via
    /// `ensure_buf_in` — in the warmed steady state every lookup hits the
    /// slot's existing buffer list and the pass allocates nothing; a slot
    /// evicted under MRAM pressure re-allocates here (possibly evicting
    /// other tensors in turn).
    fn rebind(&mut self, idx: usize) -> Result<(), ShardError> {
        let token = self.run_token;
        let Session {
            backend,
            planner,
            slots,
            live_temps,
            compiled,
            res_counters,
            ..
        } = self;
        let Compiled {
            binding,
            steps,
            cmds,
            ..
        } = &mut compiled[idx];
        for step in steps.iter_mut() {
            if let Step::Materialize { cslot, slot, .. } = step {
                *slot = binding[*cslot as usize];
            }
        }
        let mut buf_of = |phys: u32, key: MramLayout| {
            ensure_buf_in(
                backend,
                planner,
                slots,
                live_temps,
                phys,
                key,
                token,
                res_counters,
            )
        };
        for cmd in cmds.iter_mut() {
            match cmd {
                CnmCmd::Transfer {
                    cslot,
                    slot,
                    buf,
                    key,
                } => {
                    *slot = binding[*cslot as usize];
                    *buf = buf_of(*slot, *key)?;
                }
                CnmCmd::Zero { cslot, key, buf } => {
                    *buf = buf_of(binding[*cslot as usize], *key)?;
                }
                CnmCmd::Launch { spec, args } => {
                    for bind in args.iter() {
                        let buf = buf_of(binding[bind.cslot as usize], bind.key)?;
                        match bind.role {
                            LaunchRole::Input(i) => spec.inputs[i as usize] = buf,
                            LaunchRole::Output => spec.output = buf,
                            LaunchRole::Extra(j) => spec.extra_outputs[j as usize] = buf,
                        }
                    }
                }
                CnmCmd::SetOutput {
                    cslot,
                    slot,
                    resident,
                } => {
                    *slot = binding[*cslot as usize];
                    resident.buf = buf_of(*slot, MramLayout::Chunk(resident.gather_chunk))?;
                }
            }
        }
        Ok(())
    }

    /// Recycles temporaries of the previous run that the current graph does
    /// not reference (and that are not pinned). Their handles go stale;
    /// slot storage (host vector, device buffers) is retained for reuse.
    fn recycle_unreferenced_temps(&mut self) {
        let mut live = std::mem::take(&mut self.live_temps);
        let slots = &mut self.slots;
        let free = &mut self.free;
        let ops = &self.ops;
        live.retain(|&t| {
            let referenced = ops.iter().any(|o| o.inputs().contains(&t));
            if slots[t as usize].pinned || referenced {
                true
            } else {
                recycle_slot(slots, free, t);
                false
            }
        });
        self.live_temps = live;
    }

    /// Prepends the recompute recipes of evicted graph inputs to the
    /// recorded ops: a referenced tensor left with no valid copy on either
    /// side (dropped under MRAM pressure) is re-derived DTR-style as extra
    /// ops of the same run, so eviction stays transparent to compile and
    /// replay. Allocation-free when nothing was dropped.
    fn remat_evicted_inputs(&mut self) {
        let mut injected: Vec<OpNode> = Vec::new();
        for oi in 0..self.ops.len() {
            let op = self.ops[oi];
            for &inp in op.inputs() {
                let s = &self.slots[inp as usize];
                if s.host_valid
                    || s.device_valid
                    || self.ops.iter().any(|o| o.output == inp)
                    || injected.iter().any(|r| r.output == inp)
                {
                    continue;
                }
                let recipe = s.recipe.expect(
                    "tensor has no valid copy and no recompute recipe (an input must be fed)",
                );
                for (i, &rin) in recipe.inputs().iter().enumerate() {
                    let rs = &self.slots[rin as usize];
                    assert!(
                        rs.gen == s.recipe_gens[i] && rs.host_valid,
                        "recompute recipe input went stale"
                    );
                }
                self.res_counters.stats.remat_ops += 1;
                injected.push(recipe);
            }
        }
        if !injected.is_empty() {
            injected.extend_from_slice(&self.ops);
            self.ops = injected;
        }
    }

    /// Rematerializes one evicted tensor by running its recorded recipe as
    /// a one-op graph; the pending recorded graph is saved and restored
    /// around the injected run.
    fn remat_slot(&mut self, id: u32) {
        let recipe = self.slots[id as usize]
            .recipe
            .expect("tensor has no valid copy; run() the graph that produces it first");
        let saved_ops = std::mem::take(&mut self.ops);
        let saved_discarded = std::mem::take(&mut self.discarded);
        self.ops.push(recipe);
        self.res_counters.stats.remat_ops += 1;
        self.in_remat = true;
        let outcome = self.run();
        self.in_remat = false;
        outcome.expect("rematerialization run failed");
        self.ops = saved_ops;
        self.discarded = saved_discarded;
    }

    /// Recomputes every evicted tensor whose (current) recipe reads `id`,
    /// before that tensor's contents change under it. Scanning is
    /// allocation-free when nothing was evicted.
    fn remat_dependents_of(&mut self, id: u32) {
        loop {
            let dep = self.slots.iter().position(|s| {
                !s.host_valid
                    && !s.device_valid
                    && s.recipe.is_some_and(|r| {
                        r.inputs().contains(&id)
                            && r.inputs()
                                .iter()
                                .enumerate()
                                .all(|(i, &inp)| self.slots[inp as usize].gen == s.recipe_gens[i])
                    })
            });
            let Some(dep) = dep else { break };
            self.remat_slot(dep as u32);
            // The recipe reads the tensor about to be overwritten, so it
            // dies here: a later eviction of this value must spill it, not
            // drop it (guaranteeing this loop visits each dependent once).
            self.slots[dep].recipe = None;
        }
    }

    fn ensure_buf(&mut self, slot: u32, key: MramLayout) -> Result<u32, ShardError> {
        ensure_buf_in(
            &mut self.backend,
            &mut self.planner,
            &mut self.slots,
            &self.live_temps,
            slot,
            key,
            self.run_token,
            &mut self.res_counters,
        )
    }

    /// Marks every physical slot bound by the canonicalized graph as part
    /// of the in-flight run: it cannot be an eviction victim (plan commands
    /// may already hold its buffer ids) and its staleness restarts.
    fn protect_bound_slots(&mut self) {
        let token = self.run_token;
        let Session {
            binding_scratch,
            slots,
            ..
        } = self;
        for &phys in binding_scratch.iter() {
            let s = &mut slots[phys as usize];
            s.protected = token;
            s.last_use = token;
        }
    }

    /// Discards a failed compilation: the graph's output slots are recycled
    /// (their handles go stale — the outputs never materialised) and the
    /// cache entry is cleared (stamp zero, so the LRU reuses it first),
    /// so retrying under a fixed policy neither leaks slots nor replays a
    /// half-built plan. Device buffers already allocated stay attached to
    /// the recycled slots and are reused by their next tenants, exactly
    /// like normal recycling.
    fn abort_compile(&mut self, idx: usize) {
        let failed = std::mem::take(&mut self.compiled[idx]);
        for op in &failed.canon_src {
            recycle_slot(
                &mut self.slots,
                &mut self.free,
                failed.binding[op.output as usize],
            );
        }
    }

    /// Optimizes the recorded (canonical) graph as recorded: CSE + DCE
    /// first, then a placement pass that marks the segment-placed
    /// element-wise ops fusable, then element-wise fusion (`crate::fusion`
    /// states the rule). Returns the post-optimization canonical ops (fused
    /// groups flattened to one node per stage), the lowering schedule, and
    /// the canonical slots of eliminated source outputs — or `None` to fall
    /// back to the identity schedule (planner errors resurface identically
    /// through the plain path).
    fn optimize(
        &mut self,
        opt: &mut GraphOptimizer,
        canon: &[OpNode],
        discards: &[bool],
        binding: &[u32],
    ) -> Option<(Vec<OpNode>, Vec<SchedItem>, Vec<u32>)> {
        if canon.is_empty() {
            return None;
        }
        let GraphOptimizer {
            graph,
            state,
            fusable,
        } = opt;
        let eliminated = graph.eliminate(canon, discards, binding.len());

        // Placement pass: place the cleaned graph exactly as `compile` will
        // (same `place`, same transitions); an element-wise op left in the
        // UPMEM segment may fuse.
        let dpus = self.backend.num_dpus();
        state.clear();
        state.extend(binding.iter().map(|&p| {
            let slot = &self.slots[p as usize];
            (slot.host_valid, slot.residency())
        }));
        fusable.clear();
        for node in graph.ops() {
            let geometry = node.kind.geometry(dpus);
            let (keep, at) = (self.residency, |t: usize| state[t]);
            let (on, plan) = place(&mut self.planner, node, &geometry, dpus, keep, at).ok()?;
            let segment = whole_on_grid(&plan);
            fusable.push(segment && matches!(node.kind, CnmOp::Elementwise { .. }));
            for (i, (&inp, key)) in node.inputs().iter().zip(geometry.inputs).enumerate() {
                if !segment || !on.held[i] {
                    let resident = segment.then_some(residency_of(key));
                    state[inp as usize] = (true, resident.or(state[inp as usize].1));
                }
            }
            let out = (geometry.out_chunk, geometry.out_layout);
            state[node.output as usize] = (!segment, segment.then_some(out));
        }

        let (ops, sched) = graph.fuse(fusable);
        let mut fused_groups = 0u64;
        let mut ops_fused = 0u64;
        for item in &sched {
            if let SchedItem::Fused { ops, .. } = item {
                fused_groups += 1;
                ops_fused += ops.len() as u64;
            }
        }
        self.opt_stats.graphs_optimized += 1;
        self.opt_stats.ops_eliminated += eliminated.len() as u64;
        self.opt_stats.fused_groups += fused_groups;
        self.opt_stats.ops_fused += ops_fused;
        self.opt_stats.launches_saved += ops_fused.saturating_sub(fused_groups);
        Some((ops, sched, eliminated))
    }

    /// Compiles the recorded graph into a fresh LRU cache entry (placement,
    /// optimization, buffers, per-segment command lists). No command is
    /// executed here; buffer allocation is the only device side effect
    /// (untimed, like the eager backends' context allocation).
    fn compile(&mut self) -> Result<usize, ShardError> {
        let residency = self.residency;
        self.canonicalize();
        self.protect_bound_slots();
        let canon_src = self.canon_scratch.clone();
        let discards = self.discard_scratch.clone();
        let binding = self.binding_scratch.clone();
        let sig = self.sig_scratch;
        self.ops.clear();
        self.discarded.clear();

        let optimized = if residency {
            // Detached while it runs: it calls back into the session's own
            // placement.
            let mut opt = self.optimizer.take();
            let optimized = opt
                .as_mut()
                .and_then(|opt| self.optimize(opt, &canon_src, &discards, &binding));
            self.optimizer = opt;
            optimized
        } else {
            None
        };
        let (ops, sched, eliminated) = match optimized {
            Some(result) => result,
            None => (
                canon_src.clone(),
                (0..canon_src.len()).map(SchedItem::Plain).collect(),
                Vec::new(),
            ),
        };

        // LRU entry selection: evict the least recently used plan (aborted
        // entries carry stamp zero and are reused first).
        let idx = if self.compiled.len() < Self::COMPILED_CACHE {
            self.compiled.push(Compiled::default());
            self.compiled.len() - 1
        } else {
            let (idx, was_valid) = self
                .compiled
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.stamp)
                .map(|(i, c)| (i, c.valid))
                .expect("plan cache is non-empty");
            if was_valid {
                self.cache_evictions += 1;
            }
            idx
        };
        self.stamp_counter += 1;
        self.compiled[idx] = Compiled {
            valid: false,
            residency,
            sig,
            stamp: self.stamp_counter,
            canon_src,
            discards,
            ops,
            eliminated,
            binding: binding.clone(),
            preconds: Vec::new(),
            steps: Vec::new(),
            cmds: Vec::new(),
            planned: [Cost::default(); 3],
        };
        let slot_of = |&p: &u32| &self.slots[p as usize];
        let mut low = Lowering {
            idx,
            host: binding.iter().map(|p| slot_of(p).host_valid).collect(),
            resident: binding.iter().map(|p| slot_of(p).residency()).collect(),
            produced: vec![false; binding.len()],
            precond_done: vec![false; binding.len()],
            seg_start: 0,
            binding,
        };
        for item in &sched {
            let lowered = match item {
                SchedItem::Plain(oi) => self.lower_plain(&mut low, *oi),
                SchedItem::Fused {
                    ops,
                    stages,
                    externals,
                } => self.lower_fused(&mut low, ops.clone(), stages, externals),
            };
            if let Err(e) = lowered {
                self.abort_compile(idx);
                return Err(e);
            }
        }
        self.flush_segment(&mut low);
        if self.tele.is_some() {
            self.compiled[idx].planned[0] = self.grid_price(idx, &[]);
        }
        self.compiled[idx].valid = true;
        Ok(idx)
    }

    /// The grid's price of a run of plan `idx` after the spill gathers of
    /// `spills` (per-DPU chunks, in billing order): one walk of the grid's
    /// model ([`CostModel::price_commands`]) over the grid commands the run
    /// issues, in issue order — the spills, then per step the gather of a
    /// `Materialize`, the transfers and launches of a segment (fused ones
    /// included) or the grid shard of a planned op. It adds its terms up as
    /// the grid bills them, so it is the run's bill, bit for bit.
    ///
    /// [`CostModel::price_commands`]: cinm_lowering::CostModel::price_commands
    fn grid_price(&self, idx: usize, spills: &[usize]) -> Cost {
        let (plan, dpus) = (&self.compiled[idx], self.backend.num_dpus());
        let issued = |cmd: &CnmCmd| match *cmd {
            CnmCmd::Transfer { slot, key, .. } => Some(transfer(key, &self.slots[slot as usize])),
            CnmCmd::Launch { ref spec, .. } => Some(Command::Launch(spec.kind.clone())),
            CnmCmd::Zero { .. } | CnmCmd::SetOutput { .. } => None,
        };
        let steps = plan.steps.iter().flat_map(|step| {
            let (gather, cmds, shard) = match *step {
                Step::Materialize { chunk, .. } => (Some(Command::Gather { chunk }), 0..0, None),
                Step::Segment { ref cmds } => (None, cmds.clone(), None),
                Step::Planned { op, split } => {
                    (None, 0..0, Some(plan.ops[op].kind.with_work(split.cnm)))
                }
            };
            let shard = shard.into_iter().flat_map(|op| op.commands(dpus));
            let segment = plan.cmds[cmds].iter().filter_map(issued);
            gather.into_iter().chain(segment).chain(shard)
        });
        let spills = spills.iter().map(|&chunk| Command::Gather { chunk });
        let price = self.planner.planner().grid_price(spills.chain(steps));
        price.unwrap_or_default()
    }

    /// Closes the current UPMEM segment (if it holds any command).
    fn flush_segment(&mut self, low: &mut Lowering) {
        let entry = &mut self.compiled[low.idx];
        let end = entry.cmds.len();
        if end > low.seg_start {
            entry.steps.push(Step::Segment {
                cmds: low.seg_start..end,
            });
        }
        low.seg_start = end;
    }

    /// Records the replay precondition of an external input (a canonical
    /// slot not produced earlier in the schedule) at its first use.
    fn note_external(&mut self, low: &mut Lowering, c: u32) {
        if low.produced[c as usize] || low.precond_done[c as usize] {
            return;
        }
        low.precond_done[c as usize] = true;
        let slot = &self.slots[low.binding[c as usize] as usize];
        let precond = Precond {
            cslot: c,
            host_valid: slot.host_valid,
            resident: slot.residency(),
        };
        self.compiled[low.idx].preconds.push(precond);
    }

    /// Makes canonical slot `c`'s host copy valid, when needed by a step of
    /// its own between segments that gathers its `chunk` elements per DPU
    /// (by default those of its resident copy).
    fn need_host(&mut self, low: &mut Lowering, c: u32, chunk: Option<usize>) {
        if !low.host[c as usize] {
            let chunk = chunk.or(low.resident[c as usize].map(|r| r.0));
            let (slot, chunk) = (low.binding[c as usize], chunk.expect("a resident copy"));
            self.flush_segment(low);
            let step = Step::Materialize {
                cslot: c,
                slot,
                chunk,
            };
            self.compiled[low.idx].steps.push(step);
            low.host[c as usize] = true;
        }
    }

    /// Scatters or broadcasts canonical slot `inp` into `buf` in operand
    /// role `key` from its host copy (materialized first when only the grid
    /// holds it).
    fn lower_transfer(&mut self, low: &mut Lowering, inp: u32, key: MramLayout, buf: u32) {
        self.need_host(low, inp, None);
        let slot = low.binding[inp as usize];
        self.compiled[low.idx].cmds.push(CnmCmd::Transfer {
            cslot: inp,
            slot,
            buf,
            key,
        });
        low.resident[inp as usize] = self.residency.then_some(residency_of(key));
    }

    /// Allocates (and schedules the zeroing of) the output buffer of
    /// canonical slot `out` in a segment launch.
    fn lower_output(
        &mut self,
        low: &mut Lowering,
        out: u32,
        key: MramLayout,
    ) -> Result<u32, ShardError> {
        let buf = self.ensure_buf(low.binding[out as usize], key)?;
        self.compiled[low.idx].cmds.push(CnmCmd::Zero {
            cslot: out,
            key,
            buf,
        });
        Ok(buf)
    }

    /// Records that a segment launch produced canonical slot `out`.
    fn lower_set_output(&mut self, low: &mut Lowering, out: u32, resident: Resident) {
        self.compiled[low.idx].cmds.push(CnmCmd::SetOutput {
            cslot: out,
            slot: low.binding[out as usize],
            resident,
        });
        low.host[out as usize] = false;
        low.resident[out as usize] = self
            .residency
            .then_some((resident.gather_chunk, resident.layout));
        low.produced[out as usize] = true;
    }

    /// Lowers `ops[oi]` of the plan where [`place`](Self::place) puts it:
    /// shard-dispatched as a step of its own, or in the current segment as
    /// the op's [`CnmOp::commands`] less what its residency saves — the list
    /// its price was decided by. The zeroing of the output buffer precedes
    /// the launch; a gather (residency off) materializes the output.
    fn lower_plain(&mut self, low: &mut Lowering, oi: usize) -> Result<(), ShardError> {
        let node = self.compiled[low.idx].ops[oi];
        let dpus = self.backend.num_dpus();
        let geometry = node.kind.geometry(dpus);
        let state = |t: usize| (low.host[t], low.resident[t]);
        let keep = self.residency;
        let (on, plan) = place(&mut self.planner, &node, &geometry, dpus, keep, state)?;
        let planned = &mut self.compiled[low.idx].planned;
        for (i, cost) in planned.iter_mut().enumerate().skip(1) {
            cost.seconds += plan.estimated_seconds[i];
            cost.joules += plan.estimated_joules[i];
        }
        let out = node.output;
        if !whole_on_grid(&plan) {
            for &inp in node.inputs() {
                self.note_external(low, inp);
            }
            self.flush_segment(low);
            for &inp in node.inputs() {
                self.need_host(low, inp, None);
            }
            let split = plan.split;
            self.compiled[low.idx]
                .steps
                .push(Step::Planned { op: oi, split });
            low.host[out as usize] = true;
            low.resident[out as usize] = None;
            low.produced[out as usize] = true;
            return Ok(());
        }
        let keys = &geometry.inputs[..node.inputs().len()];
        let commands = node.kind.commands(dpus).filter(|c| on.issues(c));
        let (chunk, layout) = (geometry.out_chunk, geometry.out_layout);
        self.lower_launch(low, node.inputs(), keys, commands, &[out], chunk, layout)
    }

    /// Lowers a fused element-wise group (`ops` indexes the plan's flattened
    /// per-stage nodes) into one multi-output kernel launch in the current
    /// segment, scattering the externals not already resident. Only emitted
    /// with residency on.
    fn lower_fused(
        &mut self,
        low: &mut Lowering,
        ops: Range<usize>,
        stages: &[FusedStage],
        externals: &[u32],
    ) -> Result<(), ShardError> {
        // Every stage is an element-wise op of the group's length: the
        // first one's geometry is the whole group's.
        let stage_outs: Vec<u32> = self.compiled[low.idx].ops[ops.clone()]
            .iter()
            .map(|o| o.output)
            .collect();
        let first = self.compiled[low.idx].ops[ops.start].kind;
        let geometry = first.geometry(self.backend.num_dpus());
        let (key, chunk) = (geometry.inputs[0], geometry.out_chunk);
        let keys = [key; fusion::MAX_FUSED_EXTERNALS];
        let mut held = [false; fusion::MAX_FUSED_EXTERNALS];
        let mut moves = [0; fusion::MAX_FUSED_EXTERNALS];
        let (keep, state) = (self.residency, |t: usize| (low.host[t], low.resident[t]));
        bind_inputs(externals, &keys, keep, state, &mut held, &mut moves);
        let scatters = (0..externals.len()).filter(move |&i| !held[i]);
        let kernel = DpuKernelKind::FusedElementwise {
            stages: stages.to_vec(),
            len: chunk,
            arity: externals.len(),
        };
        let elems = first.work();
        let commands = scatters
            .map(|input| Command::Scatter {
                input,
                chunk,
                elems,
            })
            .chain([Command::Launch(kernel)]);
        let layout = OutputLayout::Chunked;
        self.lower_launch(low, externals, &keys, commands, &stage_outs, chunk, layout)
    }

    /// Lowers one launch into the current segment by walking its host
    /// program `commands`: a transfer binds its operand (of `inputs`, in
    /// role `keys`), the launch zeroes and writes the `outs` (`chunk`
    /// elements per DPU decoded by `layout`; the first is the spec's output)
    /// and a gather materializes the output.
    #[allow(clippy::too_many_arguments)]
    fn lower_launch(
        &mut self,
        low: &mut Lowering,
        inputs: &[u32],
        keys: &[MramLayout],
        commands: impl Iterator<Item = Command>,
        outs: &[u32],
        chunk: usize,
        layout: OutputLayout,
    ) -> Result<(), ShardError> {
        let mut args: Vec<LaunchBind> = Vec::with_capacity(inputs.len() + outs.len());
        let mut bufs: Vec<u32> = Vec::with_capacity(inputs.len());
        for (pos, (&inp, &key)) in inputs.iter().zip(keys).enumerate() {
            self.note_external(low, inp);
            bufs.push(self.ensure_buf(low.binding[inp as usize], key)?);
            args.push(LaunchBind {
                role: LaunchRole::Input(pos as u8),
                cslot: inp,
                key,
            });
        }
        for command in commands {
            let kernel = match command {
                Command::Scatter { input, .. } | Command::Broadcast { input, .. } => {
                    self.lower_transfer(low, inputs[input], keys[input], bufs[input]);
                    continue;
                }
                Command::Gather { chunk } => {
                    self.need_host(low, outs[0], Some(chunk));
                    continue;
                }
                Command::Launch(kernel) => kernel,
            };
            let key = MramLayout::Chunk(chunk);
            let mut out_bufs = [0; MAX_FUSED_STAGES];
            for (j, &out) in outs.iter().enumerate() {
                out_bufs[j] = self.lower_output(low, out, key)?;
                let role = match j {
                    0 => LaunchRole::Output,
                    _ => LaunchRole::Extra(j as u8 - 1),
                };
                args.push(LaunchBind {
                    role,
                    cslot: out,
                    key,
                });
            }
            let spec = self
                .backend
                .upmem()
                .kernel_spec(kernel, std::mem::take(&mut bufs), out_bufs[0])
                .with_extra_outputs(out_bufs[1..outs.len()].to_vec());
            let args = std::mem::take(&mut args);
            self.compiled[low.idx]
                .cmds
                .push(CnmCmd::Launch { spec, args });
            for (&out, &buf) in outs.iter().zip(&out_bufs) {
                let resident = Resident {
                    buf,
                    gather_chunk: chunk,
                    layout,
                };
                self.lower_set_output(low, out, resident);
            }
        }
        Ok(())
    }

    // -- execution ----------------------------------------------------------

    /// Executes the recorded graph: compiles it (or replays the memoized
    /// compilation when the graph and its residency preconditions are
    /// unchanged) and runs every step in program order. After `run`,
    /// op-output handles are fetchable until the next `run`.
    ///
    /// `run()` is [`run_with`](Self::run_with) with nothing fed.
    ///
    /// Device failures are recovered in place (up to
    /// 8 attempts per run):
    /// transient storms re-execute from the failed step, a permanently
    /// failed device is either dropped from the shard plan (the graph is
    /// re-planned across the surviving devices, degrading to host-only) or
    /// — when the graph needs the UPMEM grid itself — replaced by a spare
    /// carrying the rescued memory image. Recovered runs stay bit-identical
    /// to a fault-free run; [`fault_stats`](Self::fault_stats) counts the
    /// retries, re-plans and degradations taken.
    ///
    /// # Errors
    ///
    /// Propagates shard-planning errors (infeasible forced policies) and
    /// device failures that outlive the recovery budget; the recorded graph
    /// is discarded and the session stays usable.
    pub fn run(&mut self) -> Result<(), ShardError> {
        self.run_with(&[])
    }

    /// [`run`](Self::run) with each `(handle, data)` of `feeds` **fed**: for
    /// this run the tensor's contents are `data`, read in place — a
    /// scattered operand is lent to every launch that reads it
    /// ([`UpmemSystem::scatter_lent`](upmem_sim::UpmemSystem::scatter_lent)),
    /// and host and crossbar shards read the slice — so the session copies
    /// no input. Bills, faults and results are those of
    /// [`write`](Self::write)`(handle, data)` before the run. Afterwards a
    /// fed tensor holds no copy on either side (fetching it panics as for
    /// any tensor with no valid copy), and it may be fed again: a loop that
    /// feeds the same graph replays one plan. Any source tensor may be fed,
    /// usually one made by [`input`](Self::input).
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// On a stale or select handle, a feed whose length is not the tensor's,
    /// a tensor fed twice, and a fed output of the pending graph.
    pub fn run_with(&mut self, feeds: &[(TensorHandle, &[i32])]) -> Result<(), ShardError> {
        for (i, &(h, data)) in feeds.iter().enumerate() {
            self.check_input(h);
            assert_eq!(data.len(), h.shape.len(), "feed length mismatch");
            assert!(
                feeds[..i].iter().all(|(g, _)| g.id != h.id),
                "a tensor is fed twice"
            );
            assert!(
                !self.ops.iter().any(|o| o.output == h.id),
                "a fed tensor is an output of the pending graph"
            );
        }
        // The contents change as under `write` (recomputing dependents may
        // run, so it finishes before any slot is bound).
        for &(h, _) in feeds {
            self.kill_recipes_reading(h.id);
        }
        for (i, &(h, _)) in feeds.iter().enumerate() {
            let slot = &mut self.slots[h.id as usize];
            slot.recipe = None;
            slot.feed = Some(i as u32);
            slot.host_valid = true;
            slot.device_valid = false;
        }
        let outcome = self.run_fed(feeds);
        for &(h, _) in feeds {
            let slot = &mut self.slots[h.id as usize];
            slot.feed = None;
            slot.host_valid = false;
            slot.device_valid = false;
            slot.resident = None;
        }
        outcome
    }

    /// The one run body, with `feeds` bound to their slots.
    fn run_fed(&mut self, feeds: &[Feed<'_>]) -> Result<(), ShardError> {
        if self.ops.is_empty() {
            self.discarded.clear();
            return Ok(());
        }
        self.run_token += 1;
        self.res_counters.run_spills.clear();
        self.remat_evicted_inputs();
        if !self.in_remat {
            // A rematerialization run must not recycle temps that only the
            // caller's saved (pending) graph references.
            self.recycle_unreferenced_temps();
        }
        self.canonicalize();
        self.protect_bound_slots();
        let mut idx = match self.find_compiled() {
            Some(idx) => {
                self.replays += 1;
                self.cache_hits += 1;
                self.ops.clear();
                self.discarded.clear();
                self.stamp_counter += 1;
                let Session {
                    compiled,
                    binding_scratch,
                    stamp_counter,
                    ..
                } = self;
                let entry = &mut compiled[idx];
                entry.stamp = *stamp_counter;
                entry.binding.clear();
                entry.binding.extend_from_slice(binding_scratch);
                // An eviction during the rebind invalidates bindings, never
                // the signature: buffer ids are always re-derived on the
                // next replay, so the entry stays cached.
                self.rebind(idx)?;
                idx
            }
            None => {
                self.cache_misses += 1;
                match self.compile() {
                    Ok(idx) => idx,
                    Err(e) => {
                        self.ops.clear();
                        self.discarded.clear();
                        return Err(e);
                    }
                }
            }
        };
        self.runs += 1;
        let mut from = 0usize;
        let mut attempts = 0u32;
        let outcome = loop {
            match self.execute(idx, from, feeds) {
                Ok(()) => break Ok(()),
                Err((step, error)) => {
                    // Panics and validation errors are bugs, not faults: no
                    // amount of re-planning makes them succeed.
                    let recoverable = matches!(error, ShardError::DeviceFault { .. })
                        && attempts < Self::MAX_RECOVERY_ATTEMPTS;
                    if !recoverable {
                        break Err(error);
                    }
                    attempts += 1;
                    let device = error
                        .failed_device()
                        .expect("device faults name their device");
                    match self.recover(device, idx) {
                        Ok(Recovery::Resume) => {
                            // The device set is whole again (the transient
                            // storm passed, or a spare was swapped in):
                            // re-execute from the failed step — every step
                            // before it committed, and failed steps commit
                            // nothing.
                            from = step;
                        }
                        Ok(Recovery::Replanned(new_idx)) => {
                            idx = new_idx;
                            from = 0;
                        }
                        Err(e) => break Err(e),
                    }
                }
            }
        };
        // Track this graph's surviving outputs as live temporaries (unless a
        // failed re-plan already discarded the graph and recycled them).
        // Discarded survivors and optimizer-eliminated outputs are recycled
        // immediately — their handles go stale by contract.
        if idx < self.compiled.len() {
            if let Some(t) = &self.tele {
                let mut planned = self.compiled[idx].planned;
                let spills = &self.res_counters.run_spills;
                if !spills.is_empty() {
                    planned[0] = self.grid_price(idx, spills);
                }
                for (g, cost) in t.planned.iter().zip(&planned) {
                    g[0].set(cost.seconds);
                    g[1].set(cost.joules);
                }
            }
            for oi in 0..self.compiled[idx].ops.len() {
                let c = &self.compiled[idx];
                let out_c = c.ops[oi].output;
                let phys = c.binding[out_c as usize];
                let discarded = c
                    .canon_src
                    .iter()
                    .zip(&c.discards)
                    .any(|(o, &d)| d && o.output == out_c);
                let mut recipe = c.ops[oi];
                for i in 0..recipe.n_inputs as usize {
                    recipe.inputs[i] = c.binding[recipe.inputs[i] as usize];
                }
                recipe.output = phys;
                if discarded && !self.slots[phys as usize].pinned {
                    recycle_slot(&mut self.slots, &mut self.free, phys);
                } else {
                    if !self.live_temps.contains(&phys) {
                        self.live_temps.push(phys);
                    }
                    // Record the DTR recompute recipe — the producing op
                    // with physical input slots, their generations pinned —
                    // so a drop under MRAM pressure can re-derive the value.
                    let mut gens = [0u32; 3];
                    for (i, &inp) in recipe.inputs().iter().enumerate() {
                        gens[i] = self.slots[inp as usize].gen;
                    }
                    let slot = &mut self.slots[phys as usize];
                    slot.recipe = Some(recipe);
                    slot.recipe_gens = gens;
                    slot.last_use = self.run_token;
                }
            }
            for k in 0..self.compiled[idx].eliminated.len() {
                let c = self.compiled[idx].eliminated[k];
                let phys = self.compiled[idx].binding[c as usize];
                if !self.slots[phys as usize].pinned {
                    recycle_slot(&mut self.slots, &mut self.free, phys);
                }
            }
        }
        self.publish_telemetry();
        outcome
    }

    /// Publishes the session's gauges to the attached registry (no-op
    /// without one). Pure atomic stores on pre-registered series — no
    /// allocations, no locks.
    fn publish_telemetry(&self) {
        let Some(t) = &self.tele else { return };
        t.runs.set(self.runs as f64);
        t.replays.set(self.replays as f64);
        t.plan_cache_hits.set(self.cache_hits as f64);
        t.plan_cache_misses.set(self.cache_misses as f64);
        t.plan_cache_evictions.set(self.cache_evictions as f64);
        t.plan_cache_entries
            .set(self.compiled.iter().filter(|c| c.valid).count() as f64);
        let lookups = self.cache_hits + self.cache_misses;
        t.plan_cache_hit_rate.set(if lookups > 0 {
            self.cache_hits as f64 / lookups as f64
        } else {
            0.0
        });
        t.res_evictions
            .set(self.res_counters.stats.evictions as f64);
        t.res_spills.set(self.res_counters.stats.spills as f64);
        t.res_spilled_bytes
            .set(self.res_counters.stats.spilled_bytes as f64);
        t.res_remat_ops
            .set(self.res_counters.stats.remat_ops as f64);
        t.fault_retries
            .set(self.fault_stats().transient_retries as f64);
    }

    /// Executes the compiled plan `idx` from step `from`; a failure reports
    /// the step it happened in so recovery can resume there.
    fn execute(
        &mut self,
        idx: usize,
        from: usize,
        feeds: &[Feed<'_>],
    ) -> Result<(), (usize, ShardError)> {
        let residency = self.residency;
        let dpus = self.backend.num_dpus();
        let Session {
            backend,
            slots,
            compiled,
            ..
        } = self;
        let compiled = &compiled[idx];
        for (si, step) in compiled.steps.iter().enumerate().skip(from) {
            let step_result = match step {
                Step::Materialize { slot, .. } => {
                    materialize_slot(backend, &mut slots[*slot as usize], dpus)
                }
                Step::Segment { cmds } => run_segment(
                    backend,
                    slots,
                    &compiled.cmds[cmds.clone()],
                    &compiled.binding,
                    feeds,
                    residency,
                ),
                Step::Planned { op, split } => {
                    let node = &compiled.ops[*op];
                    let phys = |c: u32| compiled.binding[c as usize] as usize;
                    // The output's image, held apart while the inputs are read.
                    let mut out = std::mem::take(&mut slots[phys(node.output)].host);
                    let host = |i: usize| host_of(&slots[phys(node.inputs[i])], feeds);
                    let operands = [host(0), host(1)];
                    let operands = &operands[..node.inputs().len()];
                    let ran = backend.run_into(node.kind, operands, split, out.overwrite());
                    let slot = &mut slots[phys(node.output)];
                    slot.host = out;
                    // A failed shard leaves the image unspecified.
                    slot.host_valid = ran.is_ok();
                    ran.map(|()| (slot.device_valid, slot.resident) = (false, None))
                }
            };
            if let Err(e) = step_result {
                return Err((si, e));
            }
        }
        Ok(())
    }

    /// Recovers from one device failure. A failed command commits nothing
    /// (one command is the unit of fault atomicity, and shard dispatch discards
    /// partial merges) and the commands of its segment that did run are
    /// idempotent, so re-executing the failed step from its start is safe —
    /// external inputs keep their host copies, and every transfer/launch
    /// rewrites its own buffers with the same data.
    fn recover(&mut self, device: Target, idx: usize) -> Result<Recovery, ShardError> {
        self.fault_stats.replans += 1;
        if self.backend.device(device).is_healthy() {
            // A transient fault outlived the per-command retry budget but
            // the device is still below its failure limit: re-execute.
            return Ok(Recovery::Resume);
        }
        // The device is out of service (permanent fault, or a transient
        // storm past the consecutive-failure limit).
        self.fault_stats.degradations += 1;
        if device == Target::Cnm && self.graph_needs_cnm(idx) {
            // The graph cannot leave the grid (non-plannable ops, or a
            // CNM-forced policy): swap in a spare. The replacement carries
            // the failed grid's memory image — resident tensors survive
            // (the fault model kills compute, not MRAM) — so the compiled
            // plan resumes unchanged.
            let spare = self.backend.upmem().system().fault_free_clone();
            *self.backend.upmem_mut().system_mut() = spare;
            self.backend.device_mut(Target::Cnm).reset_health();
            return Ok(Recovery::Resume);
        }
        // Re-plan the graph across the surviving devices (degrading to
        // host-only when the host is the last one standing). Compiled plans
        // embed shard splits of the old device set, so all of them go. The
        // surviving (post-optimization) ops are decanonicalized back to
        // physical slots and re-recorded; the doomed entry's eliminated
        // slots are recycled here — the re-plan never produces them.
        self.rebuild_planner();
        let entry = &self.compiled[idx];
        let mut ops: Vec<OpNode> = Vec::with_capacity(entry.ops.len());
        for op in &entry.ops {
            let mut node = *op;
            for i in 0..node.n_inputs as usize {
                node.inputs[i] = entry.binding[node.inputs[i] as usize];
            }
            node.output = entry.binding[node.output as usize];
            ops.push(node);
        }
        let stale: Vec<u32> = entry
            .eliminated
            .iter()
            .map(|&c| entry.binding[c as usize])
            .collect();
        for phys in stale {
            if !self.slots[phys as usize].pinned {
                recycle_slot(&mut self.slots, &mut self.free, phys);
            }
        }
        self.compiled.clear();
        self.ops = ops;
        self.discarded.clear();
        match self.compile() {
            Ok(new_idx) => Ok(Recovery::Replanned(new_idx)),
            Err(e) => {
                self.ops.clear();
                Err(e)
            }
        }
    }

    /// Whether plan `idx` must execute on the UPMEM grid: it contains ops
    /// outside the plannable subset (their only lowering is the resident
    /// UPMEM segment path), or the placement policy forces CNM work.
    fn graph_needs_cnm(&self, idx: usize) -> bool {
        let forced = match self.planner.planner().policy {
            ShardPolicy::Single(Target::Cnm) => true,
            ShardPolicy::Fractions(f) => f[0] > 0.0,
            _ => false,
        };
        forced
            || self.compiled[idx]
                .ops
                .iter()
                .any(|op| op.kind.shard_shape().is_none())
    }

    /// Rebuilds the shard planner over the devices that are still healthy,
    /// keeping the policy.
    /// Unhealthy devices simply stop being registered, so `Auto` plans
    /// route their work to the survivors.
    fn rebuild_planner(&mut self) {
        let mut planner = ShardPlanner::new().with_policy(self.planner.planner().policy);
        for device in Target::ALL {
            let d = self.backend.device(device);
            if d.is_healthy() {
                planner.register_device(d);
            }
        }
        self.planner.set_planner(planner);
    }

    // -- results ------------------------------------------------------------

    /// Makes the host copy of `h` current — rematerialising a tensor dropped
    /// under MRAM pressure from its recipe, then gathering the device copy —
    /// and returns its slot. A host copy that is already current bills
    /// nothing.
    fn host_copy(&mut self, h: TensorHandle) -> &mut Slot {
        self.check(h);
        let dpus = self.backend.num_dpus();
        let slot = &self.slots[h.id as usize];
        if !slot.host_valid && !slot.device_valid && slot.recipe.is_some() {
            // Dropped under MRAM pressure: recompute it from its recipe.
            self.remat_slot(h.id);
        }
        let slot = &mut self.slots[h.id as usize];
        if !slot.host_valid {
            assert!(
                slot.device_valid,
                "tensor has no valid copy; run() the graph that produces it first"
            );
            // Rescue gathers are pure transfers: the fault model never fails
            // them permanently, and transients are retried by the backend.
            materialize_slot(&mut self.backend, slot, dpus)
                .expect("rescue gather outlived the transient retry budget");
        }
        slot
    }

    /// Fetches a tensor to the host, materialising it from its device copy
    /// if needed — **the only point data returns to the host**. For select
    /// outputs the returned vector has the data-dependent actual length. The
    /// session keeps its host copy (a second fetch gathers nothing), so the
    /// value is copied out; [`take`](Self::take) moves it out instead.
    pub fn fetch(&mut self, h: TensorHandle) -> Vec<i32> {
        self.host_copy(h).host.to_vec()
    }

    /// The allocation-reusing form of [`Session::fetch`]: the result
    /// replaces the contents of `out` (a vector reused across fetches of the
    /// same shape never re-allocates).
    pub fn fetch_into(&mut self, h: TensorHandle, out: &mut Vec<i32>) {
        self.host_copy(h).host[..].clone_into(out);
    }

    /// Fetches a tensor and releases it: the session's host vector is moved
    /// out instead of copied, so a result gathered from the device crosses
    /// host memory once. The handle (and every reshape of it) goes stale and
    /// the slot is recycled; recompute recipes reading the tensor die as in
    /// [`write`](Self::write).
    ///
    /// # Panics
    ///
    /// Panics on a stale handle, on a tensor with no valid copy (an output of
    /// the pending graph included), and when an op of the pending (not yet
    /// run) graph reads the tensor.
    pub fn take(&mut self, h: TensorHandle) -> Vec<i32> {
        self.host_copy(h);
        assert!(
            !self.ops.iter().any(|o| o.inputs().contains(&h.id)),
            "take of a tensor the pending graph reads; run() it first"
        );
        self.kill_recipes_reading(h.id);
        self.live_temps.retain(|&t| t != h.id);
        self.discarded.retain(|&d| d != h.id);
        let slot = &mut self.slots[h.id as usize];
        if let (true, Some(resident)) = (slot.host.is_shared(), slot.resident) {
            // The device copy dies with the handle: its buffer goes back to
            // the fresh form (untimed, as the zeroing its next tenant starts
            // with), so the image is the slot's alone and moves out.
            self.backend
                .upmem_mut()
                .system_mut()
                .zero_buffer(resident.buf)
                .expect("resident buffer of a live slot");
        }
        let out = std::mem::take(&mut slot.host).into_vec();
        recycle_slot(&mut self.slots, &mut self.free, h.id);
        out
    }

    /// Fetches a scalar tensor (reduction results).
    pub fn fetch_scalar(&mut self, h: TensorHandle) -> i32 {
        assert_eq!(h.shape(), TensorShape::Scalar, "not a scalar tensor");
        self.host_copy(h).host[0]
    }

    // -- introspection ------------------------------------------------------

    /// Accumulated UPMEM simulator statistics (transfers, kernel time) of
    /// everything this session executed on the grid.
    pub fn upmem_stats(&self) -> &SystemStats {
        self.backend.upmem().stats()
    }

    /// Statistics of the shard-dispatched (multi-device) steps.
    pub fn shard_stats(&self) -> &cinm_lowering::ShardStats {
        self.backend.stats()
    }

    /// Accumulated memory-pressure counters of the residency manager
    /// (evictions, spills and their billed bytes, DTR drops and
    /// rematerialized ops) together with the simulator's per-DPU MRAM
    /// occupancy: current, peak, and the configured limit.
    pub fn residency_stats(&self) -> ResidencyStats {
        let sys = self.backend.upmem().system();
        ResidencyStats {
            peak_mram_bytes: sys.mram_peak_bytes(),
            used_mram_bytes: sys.mram_used_bytes(),
            limit_bytes: sys.config().mram_bytes,
            ..self.res_counters.stats
        }
    }

    /// The wrapped device set.
    pub fn backend(&self) -> &ShardedBackend {
        &self.backend
    }

    /// Number of DPUs in the UPMEM grid.
    pub fn num_dpus(&self) -> usize {
        self.backend.num_dpus()
    }

    /// Resets all device statistics (the compiled plan stays valid).
    pub fn reset_stats(&mut self) {
        self.backend.reset_stats();
    }

    /// Replaces the placement policy (invalidates the compiled plan and the
    /// planner's memoized plans).
    pub fn set_policy(&mut self, policy: ShardPolicy) {
        self.planner.set_policy(policy);
        self.compiled.clear();
    }

    /// How many times `run()` executed a graph / replayed a memoized
    /// compilation. In a steady serving loop `replays` trails `runs` by the
    /// (at most two) warm-up compilations.
    pub fn run_counts(&self) -> (u64, u64) {
        (self.runs, self.replays)
    }

    /// Accumulated graph-optimizer counters: graphs run through the pass
    /// pipeline, ops removed by CSE/DCE, fused groups emitted and the
    /// kernel launches they saved.
    pub fn optimizer_stats(&self) -> OptimizerStats {
        self.opt_stats
    }

    /// Compiled-plan cache counters: canonical-signature hits and misses,
    /// LRU evictions, and the currently valid entries.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.cache_hits,
            misses: self.cache_misses,
            evictions: self.cache_evictions,
            entries: self.compiled.iter().filter(|c| c.valid).count(),
        }
    }

    /// Cumulative fault-tolerance counters of everything this session
    /// executed: the backends' per-command retries and simulated backoff,
    /// permanent faults observed, and the session's own re-plans and
    /// degradations. All zero on a fault-free run.
    pub fn fault_stats(&self) -> FaultStats {
        let mut stats = self.fault_stats;
        stats.merge(&self.backend.upmem().fault_stats());
        stats.merge(&self.backend.cim_backend().fault_stats());
        stats
    }
}

/// The device buffer backing `slot` under role `key`, allocating it on first
/// use. Buffers stay attached to the slot across recycling, so a replayed
/// plan's lookups are allocation-free. Under MRAM pressure cold resident
/// tensors are evicted (spill-to-host or drop-and-rematerialize) one at a
/// time *before* the allocation, until the request fits — so the simulator
/// never builds an error for the expected case; the typed
/// [`ShardError::MramExhausted`] surfaces only when every remaining
/// resident is part of the in-flight run's working set.
#[allow(clippy::too_many_arguments)]
fn ensure_buf_in(
    backend: &mut ShardedBackend,
    planner: &mut CachedShardPlanner,
    slots: &mut [Slot],
    live_temps: &[u32],
    slot: u32,
    key: MramLayout,
    protect: u64,
    counters: &mut ResidencyCounters,
) -> Result<u32, ShardError> {
    if let Some(&(_, buf)) = slots[slot as usize].bufs.iter().find(|(k, _)| *k == key) {
        return Ok(buf);
    }
    let (MramLayout::Chunk(elems) | MramLayout::Broadcast(elems)) = key;
    let needed_bytes = elems * 4;
    loop {
        let sys = backend.upmem().system();
        let available_bytes = sys
            .config()
            .mram_bytes
            .saturating_sub(sys.mram_used_bytes());
        if needed_bytes <= available_bytes {
            break;
        }
        let evicted = evict_one(backend, planner, slots, live_temps, slot, protect, counters)?;
        if !evicted {
            return Err(ShardError::MramExhausted {
                needed_bytes,
                available_bytes,
            });
        }
    }
    // The request fits, so a failure here is a compiler bug, exactly as
    // before the capacity layer.
    let buf = backend
        .upmem_mut()
        .system_mut()
        .alloc_buffer(elems)
        .unwrap_or_else(|e| panic!("MRAM alloc: {e}"));
    let s = &mut slots[slot as usize];
    s.bufs.push((key, buf));
    let back = s.bufs.iter().map(|&(k, _)| transfer(k, s));
    s.reload = planner.planner().grid_price(back).unwrap_or_default();
    Ok(buf)
}

/// DTR's eviction rule (Kirisame et al., "Dynamic Tensor
/// Rematerialization", ICLR 2021), shared by the session's slots and the
/// server's shape classes: of `(id, price, per-DPU bytes freed, last use)`
/// candidates, the one with the smallest `price / (bytes × staleness)`,
/// staleness being `now − last use` and at least 1. Ties go to the older
/// last use, then to the earlier candidate.
pub(crate) fn dtr_victim<T>(
    candidates: impl Iterator<Item = (T, f64, usize, u64)>,
    now: u64,
) -> Option<T> {
    let mut best: Option<(f64, u64, T)> = None;
    for (id, price, bytes, last) in candidates {
        let score = price / (bytes.max(1) as f64 * now.saturating_sub(last).max(1) as f64);
        if best.as_ref().is_none_or(|b| (score, last) < (b.0, b.1)) {
            best = Some((score, last, id));
        }
    }
    best.map(|b| b.2)
}

/// Evicts the unprotected tensor [`dtr_victim`] picks to relieve MRAM
/// pressure, priced in seconds (joules under `MinimizeEnergy`): a value
/// only the device holds at the cheaper of a **spill** (its billed gather
/// plus the transfer back) and a **drop** for a DTR-style recompute (the
/// recipe's [`place`] plan; only when every recipe input is a stable
/// host-valid source, so the later replay is bit-identical) — priced per
/// scan, and the action taken if it is picked — any other tensor at its
/// `reload`. Returns whether a victim was evicted.
fn evict_one(
    backend: &mut ShardedBackend,
    planner: &mut CachedShardPlanner,
    slots: &mut [Slot],
    live_temps: &[u32],
    requester: u32,
    protect: u64,
    counters: &mut ResidencyCounters,
) -> Result<bool, ShardError> {
    // Pinning is a lifetime promise, not a residency one: pinned tensors
    // are evictable (their value survives via spill or recipe), only the
    // in-flight run's bound slots are untouchable.
    let dpus = backend.num_dpus();
    let energy = planner.planner().policy == ShardPolicy::MinimizeEnergy;
    let unit = |c: Cost| if energy { c.joules } else { c.seconds };
    // `((slot, dropped for a recompute), price, bytes freed, last use)`.
    let candidate = |(i, s): (usize, &Slot)| {
        if i as u32 == requester || s.bufs.is_empty() || s.protected == protect {
            return None;
        }
        let bytes = s.bufs.iter().map(|&(k, _)| residency_of(k).0 * 4).sum();
        if !s.device_valid || s.host_valid {
            return Some(((i, false), unit(s.reload), bytes, s.last_use));
        }
        // A value only the grid holds is an op output, in a chunk buffer.
        let chunk = s.resident.map_or(0, |r| r.gather_chunk);
        let back = transfer(MramLayout::Chunk(chunk), s);
        let spill = [Command::Gather { chunk }, back].into_iter();
        let spill = unit(planner.planner().grid_price(spill).unwrap_or_default());
        let stable = |(i, &inp): (usize, &u32)| {
            let rs = &slots[inp as usize];
            rs.gen == s.recipe_gens[i] && rs.host_valid && (rs.pinned || !live_temps.contains(&inp))
        };
        let state = |t: usize| (slots[t].host_valid, slots[t].residency());
        let remat = s.recipe.and_then(|r| {
            r.inputs().iter().enumerate().all(stable).then_some(())?;
            let (_, plan) = place(planner, &r, &r.kind.geometry(dpus), dpus, true, state).ok()?;
            let seconds = plan.estimated_seconds.into_iter().fold(0.0, f64::max);
            let joules = plan.total_estimated_joules();
            Some(unit(Cost { seconds, joules })).filter(|&remat| remat < spill)
        });
        let price = remat.unwrap_or(spill);
        Some(((i, remat.is_some()), price, bytes, s.last_use))
    };
    let victim = dtr_victim(slots.iter().enumerate().filter_map(candidate), protect);
    let Some((v, remat)) = victim else {
        return Ok(false);
    };
    let s = &slots[v];
    let chunk = s.resident.map_or(0, |r| r.gather_chunk);
    if s.device_valid && !s.host_valid && !remat {
        // Spill: bill the rescue gather and keep the decoded host value.
        materialize_slot(backend, &mut slots[v], dpus)?;
        counters.stats.spills += 1;
        counters.stats.spilled_bytes += (chunk * dpus * 4) as u64;
        counters.run_spills.push(chunk);
    }
    let (s, sys) = (&mut slots[v], backend.upmem_mut().system_mut());
    for &(_, buf) in &s.bufs {
        sys.free_buffer(buf).expect("free evicted buffer");
    }
    s.bufs.clear();
    s.reload = Cost::default();
    s.resident = None;
    s.device_valid = false;
    counters.stats.evictions += 1;
    counters.stats.remat_drops += remat as u64;
    Ok(true)
}

/// Converts a simulator error of the session's direct UPMEM path into the
/// typed shard error, recording the failure on the CNM device's health (the
/// session bypasses `Device::run`, which would otherwise record it).
/// Non-fault errors are session/compiler invariant violations and stay
/// loud panics, exactly as before the fault layer.
fn cnm_failure(backend: &mut ShardedBackend, context: &str, e: SimError) -> ShardError {
    if e.fault_kind().is_none() {
        panic!("{context}: {e}");
    }
    let permanent = e.is_permanent_fault();
    backend.device_mut(Target::Cnm).note_failure(permanent);
    ShardError::DeviceFault {
        device: Target::Cnm,
        permanent,
        message: e.to_string(),
    }
}

/// Gathers a resident tensor into the slot's host copy — the one body of
/// `fetch`/`take`, the `Materialize` step (at a segment boundary, and after
/// every op with residency off) and the spill. A [prefix](OutputLayout::is_prefix) layout is
/// gathered straight into `slot.host` at the logical length — a slot with no
/// storage of that size shares the slab's image instead of receiving a copy
/// (`UpmemSystem::gather_image`), so a spill followed by the buffer's
/// release moves no bytes on the host; the partial layouts decode straight
/// from the gathered elements `UpmemSystem::gather_with` lends. The host copy
/// is stale on entry, so a gather that fails has clobbered nothing that was
/// valid.
fn materialize_slot(
    backend: &mut ShardedBackend,
    slot: &mut Slot,
    dpus: usize,
) -> Result<(), ShardError> {
    let resident = slot.resident.expect("materialize needs a resident copy");
    let len = slot.shape.expect("live slot has a shape").len();
    let (buf, chunk, layout) = (resident.buf, resident.gather_chunk, resident.layout);
    let host = &mut slot.host;
    backend
        .upmem_mut()
        .try_op(|sys| {
            if layout.is_prefix() {
                sys.gather_image(buf, chunk, len, host).map(|_| ())
            } else {
                sys.gather_with(buf, chunk, |raw| {
                    layout.decode_into(raw, dpus, len, host.overwrite())
                })
            }
        })
        .map_err(|e| cnm_failure(backend, "resident gather", e))?;
    slot.host_valid = true;
    Ok(())
}

/// Applies the state effect of one command to its slot (runs in command
/// order).
fn apply_effect(slots: &mut [Slot], cmd: &CnmCmd, residency: bool) {
    match cmd {
        CnmCmd::Transfer { slot, buf, key, .. } => {
            let (gather_chunk, layout) = residency_of(*key);
            let s = &mut slots[*slot as usize];
            s.resident = Some(Resident {
                buf: *buf,
                gather_chunk,
                layout,
            });
            s.device_valid = residency;
        }
        CnmCmd::SetOutput { slot, resident, .. } => {
            let s = &mut slots[*slot as usize];
            s.resident = Some(*resident);
            s.device_valid = residency;
            s.host_valid = false;
        }
        CnmCmd::Zero { .. } | CnmCmd::Launch { .. } => {}
    }
}

/// A fed tensor of [`Session::run_with`] and the slice it is fed.
type Feed<'a> = (TensorHandle, &'a [i32]);

/// The host copy of `slot`: the slice it is fed in this run, or its image.
fn host_of<'a>(slot: &'a Slot, feeds: &[Feed<'a>]) -> &'a [i32] {
    match slot.feed {
        Some(i) => feeds[i as usize].1,
        None => &slot.host,
    }
}

/// Executes one segment through the simulator's eager entry points in the
/// recorded (program) order — allocation-free in the steady state. A fed
/// tensor's scatter is lent and every launch reading it lends its slice
/// (`binding` maps a launch argument to its slot), so its buffer is never
/// read; a run with nothing fed pays one check per scatter and launch.
fn run_segment(
    backend: &mut ShardedBackend,
    slots: &mut [Slot],
    cmds: &[CnmCmd],
    binding: &[u32],
    feeds: &[Feed<'_>],
    residency: bool,
) -> Result<(), ShardError> {
    for cmd in cmds {
        // Each command runs under the backend's transient-retry policy
        // (`try_op`); retries stay allocation-free on the warmed path. A
        // command that still fails commits nothing, so recovery can re-run
        // the segment from its start.
        let executed: Result<(), SimError> = match cmd {
            CnmCmd::Transfer {
                slot,
                buf,
                key: MramLayout::Chunk(chunk),
                ..
            } => {
                // A fed tensor is lent (its `Chunk(chunk)` buffer holds
                // exactly `chunk` elements, as a lent scatter requires). A
                // cold upload (and the re-upload of a free-dropped tensor)
                // hands the image over; a warmed one copies into the slab.
                let s = &mut slots[*slot as usize];
                match s.feed {
                    Some(f) => {
                        let data = feeds[f as usize].1;
                        backend
                            .upmem_mut()
                            .try_op(|sys| sys.scatter_lent(*buf, data, *chunk))
                    }
                    None => {
                        let host = &mut s.host;
                        backend
                            .upmem_mut()
                            .try_op(|sys| sys.scatter_image(*buf, host, *chunk))
                    }
                }
                .map(|_| ())
            }
            CnmCmd::Transfer { slot, buf, .. } => {
                let host = host_of(&slots[*slot as usize], feeds);
                backend
                    .upmem_mut()
                    .try_op(|sys| sys.broadcast_i32(*buf, host))
                    .map(|_| ())
            }
            CnmCmd::Zero { buf, .. } => {
                // Uninjectable (untimed fresh-allocation semantics): only
                // invariant violations can surface here.
                backend
                    .upmem_mut()
                    .system_mut()
                    .zero_buffer(*buf)
                    .expect("zero output buffer");
                Ok(())
            }
            CnmCmd::Launch { spec, .. } if feeds.is_empty() => backend
                .upmem_mut()
                .try_op(|sys| sys.launch(spec))
                .map(|_| ()),
            CnmCmd::Launch { spec, args } => {
                let mut lent = [None; fusion::MAX_FUSED_EXTERNALS];
                for arg in args {
                    let slot = &slots[binding[arg.cslot as usize] as usize];
                    if let (LaunchRole::Input(i), MramLayout::Chunk(_), Some(f)) =
                        (arg.role, arg.key, slot.feed)
                    {
                        lent[i as usize] = Some(feeds[f as usize].1);
                    }
                }
                let lent = &lent[..spec.inputs.len()];
                backend
                    .upmem_mut()
                    .try_op(|sys| sys.launch_lent(spec, lent, None))
                    .map(|_| ())
            }
            CnmCmd::SetOutput { .. } => Ok(()),
        };
        if let Err(e) = executed {
            return Err(cnm_failure(backend, "segment replay", e));
        }
        apply_effect(slots, cmd, residency);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinm_lowering::{UpmemBackend, UpmemRunOptions};
    use cpu_sim::kernels;

    fn small_cfg() -> UpmemConfig {
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 8;
        cfg
    }

    fn cnm_session(residency: bool) -> Session {
        Session::new(
            SessionOptions::default()
                .with_upmem_config(small_cfg())
                .with_policy(ShardPolicy::Single(Target::Cnm))
                .with_residency(residency),
        )
    }

    fn oracle() -> UpmemBackend {
        UpmemBackend::with_config(small_cfg(), UpmemRunOptions::optimized())
    }

    fn capped_cnm_session(limit: usize) -> Session {
        Session::new(
            SessionOptions::default()
                .with_upmem_config(small_cfg())
                .with_policy(ShardPolicy::Single(Target::Cnm))
                .with_residency(true)
                .with_mram_limit_bytes(limit),
        )
    }

    #[test]
    fn capped_sessions_evict_and_stay_bit_identical() {
        let len = 256usize;
        let sources: Vec<Vec<i32>> = (0..4)
            .map(|r| (0..len).map(|i| ((i * (r + 3)) % 17) as i32 - 8).collect())
            .collect();
        let run_all = |sess: &mut Session| -> Vec<Vec<i32>> {
            let mut outs = Vec::new();
            for src in &sources {
                let x = sess.vector(src);
                let z = sess.elementwise(BinOp::Add, x, x);
                sess.pin(z);
                sess.run().unwrap();
                outs.push(z);
            }
            outs.iter().map(|&z| sess.fetch(z)).collect()
        };
        let mut unlimited = cnm_session(true);
        let expected = run_all(&mut unlimited);
        assert_eq!(unlimited.residency_stats().evictions, 0);

        // Room for four chunk buffers (256/8 elems * 4 B = 128 B each): the
        // eight live buffers of the four rounds cannot all stay resident.
        let mut capped = capped_cnm_session(512);
        let got = run_all(&mut capped);
        assert_eq!(got, expected, "eviction must stay bit-transparent");
        let stats = capped.residency_stats();
        assert!(
            stats.evictions > 0,
            "the cap must force evictions: {stats:?}"
        );
        assert_eq!(stats.limit_bytes, 512);
        assert!(stats.peak_mram_bytes <= 512, "{stats:?}");
    }

    #[test]
    fn limits_below_the_working_set_are_typed_errors_and_the_session_survives() {
        let mut sess = capped_cnm_session(64);
        let (rows, cols) = (64, 32);
        let a: Vec<i32> = (0..rows * cols).map(|i| (i % 7) as i32 - 3).collect();
        let x: Vec<i32> = (0..cols).map(|i| (i % 5) as i32 - 2).collect();
        let at = sess.matrix(&a, rows, cols);
        let xt = sess.vector(&x);
        let _yt = sess.gemv(at, xt);
        let err = sess.run().unwrap_err();
        match err {
            ShardError::MramExhausted {
                needed_bytes,
                available_bytes,
            } => assert!(needed_bytes > available_bytes, "{err}"),
            other => panic!("expected MramExhausted, got {other}"),
        }

        // A graph whose working set fits the 64-byte budget still runs.
        let len = 64usize; // 8 elems/DPU = 32 B per buffer, two buffers
        let v: Vec<i32> = (0..len).map(|i| i as i32 % 9 - 4).collect();
        let vt = sess.vector(&v);
        let zt = sess.elementwise(BinOp::Add, vt, vt);
        sess.run().unwrap();
        let expect: Vec<i32> = v.iter().map(|&e| e + e).collect();
        assert_eq!(sess.fetch(zt), expect);
    }

    #[test]
    fn device_only_temps_with_resident_inputs_are_dropped_and_rematerialized() {
        let len = 256usize;
        let x_src: Vec<i32> = (0..len).map(|i| (i % 23) as i32 - 11).collect();
        // Two 128-byte chunk buffers fit next to the input's; the third
        // output allocation must evict.
        let mut sess = capped_cnm_session(320);
        let xt = sess.vector(&x_src);
        let z1 = sess.elementwise(BinOp::Add, xt, xt);
        sess.pin(z1);
        sess.run().unwrap();
        let z2 = sess.elementwise(BinOp::Mul, xt, xt);
        sess.pin(z2);
        sess.run().unwrap();
        let stats = sess.residency_stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(
            stats.remat_drops >= 1,
            "the add output must be dropped, not spilled — its input is resident: {stats:?}"
        );
        assert_eq!(stats.spilled_bytes, 0, "{stats:?}");
        let got1 = sess.fetch(z1);
        let got2 = sess.fetch(z2);
        let expect1: Vec<i32> = x_src.iter().map(|&e| e + e).collect();
        let expect2: Vec<i32> = x_src.iter().map(|&e| e.wrapping_mul(e)).collect();
        assert_eq!(got1, expect1, "rematerialized fetch must be bit-identical");
        assert_eq!(got2, expect2);
        assert!(sess.residency_stats().remat_ops >= 1);
    }

    #[test]
    fn a_recompute_that_costs_more_than_its_round_trip_spills() {
        // `y = gemv(a, x)` only the grid holds, its weights and `x`
        // resident: recomputing it moves no operand, so counting bytes
        // dropped it. But the recompute, a launch of 4096 MACs per DPU, is
        // priced 146.5 µs (190.9 µJ), and the spill, the gather of 8
        // elements per DPU and the scatter that brings `y` back, 80.5 µs
        // (0.03 µJ), so it spills.
        let (rows, cols) = (64, 512);
        let a: Vec<i32> = (0..rows * cols).map(|i| (i % 7) as i32 - 3).collect();
        let x: Vec<i32> = (0..cols).map(|i| (i % 5) as i32 - 2).collect();
        let first_run = |sess: &mut Session| {
            let (at, xt) = (sess.matrix(&a, rows, cols), sess.vector(&x));
            let y = sess.gemv(at, xt);
            sess.pin(y);
            sess.run().unwrap();
            (at, xt, y)
        };
        let mut unlimited = cnm_session(true);
        first_run(&mut unlimited);
        // Room for what the first run leaves resident and nothing more.
        let mut sess = capped_cnm_session(unlimited.residency_stats().used_mram_bytes);
        let (at, xt, y) = first_run(&mut sess);
        let w = sess.gemv(at, xt);
        sess.run().unwrap();
        let stats = sess.residency_stats();
        assert_eq!((stats.spills, stats.remat_drops), (1, 0), "{stats:?}");
        let expect = kernels::matvec(&a, &x, rows, cols);
        assert_eq!(sess.fetch(y), expect, "the spilled value");
        assert_eq!(sess.fetch(w), expect);
    }

    #[test]
    fn taking_a_recipe_input_rematerializes_its_dropped_dependents_first() {
        // The scenario above, but the source the dropped output would be
        // recomputed from leaves the session.
        let len = 256usize;
        let x_src: Vec<i32> = (0..len).map(|i| (i % 23) as i32 - 11).collect();
        let mut sess = capped_cnm_session(320);
        let xt = sess.vector(&x_src);
        let z1 = sess.elementwise(BinOp::Add, xt, xt);
        sess.pin(z1);
        sess.run().unwrap();
        let z2 = sess.elementwise(BinOp::Mul, xt, xt);
        sess.pin(z2);
        sess.run().unwrap();
        assert!(sess.residency_stats().remat_drops >= 1);
        let before = sess.residency_stats().remat_ops;
        assert_eq!(sess.take(xt), x_src);
        assert!(sess.residency_stats().remat_ops > before);
        let expect1: Vec<i32> = x_src.iter().map(|&e| e + e).collect();
        assert_eq!(sess.take(z1), expect1);
        // The freed slots serve the next tensors.
        let y = sess.vector(&[7; 4]);
        assert_eq!(sess.fetch(y), vec![7; 4]);
    }

    #[test]
    fn a_recycled_slot_keeps_no_recipe_for_a_later_write_to_rematerialize() {
        // `write(x); z = op(x, w); run(); take(z)` in a loop: the slot `take`
        // frees must not answer the next `write(x)` as a dropped dependent.
        let len = 256usize;
        let w_src: Vec<i32> = (0..len).map(|i| (i % 13) as i32 - 6).collect();
        let rounds = |take: bool| {
            let mut sess = cnm_session(true);
            let x = sess.vector(&vec![0; len]);
            let w = sess.vector(&w_src);
            let mut outs = Vec::new();
            for round in 0..3 {
                let x_src: Vec<i32> = (0..len).map(|i| (i % 11) as i32 - round).collect();
                sess.write(x, &x_src);
                let z = sess.elementwise(BinOp::Add, x, w);
                sess.run().unwrap();
                let got = if take { sess.take(z) } else { sess.fetch(z) };
                let expect: Vec<i32> = x_src.iter().zip(&w_src).map(|(a, b)| a + b).collect();
                assert_eq!(got, expect, "round {round} take={take}");
                outs.push(got);
            }
            assert_eq!(sess.residency_stats().remat_ops, 0, "take={take}");
            (outs, *sess.upmem_stats())
        };
        assert_eq!(rounds(true), rounds(false));
    }

    #[test]
    #[should_panic(expected = "the pending graph reads")]
    fn taking_an_input_of_the_pending_graph_panics() {
        let mut sess = cnm_session(true);
        let a = sess.vector(&[1, 2, 3]);
        let _sum = sess.elementwise(BinOp::Add, a, a);
        sess.take(a);
    }

    #[test]
    fn residency_off_is_bit_identical_to_the_eager_backend_including_stats() {
        let (rows, cols) = (50, 24);
        let a: Vec<i32> = (0..rows * cols).map(|i| (i % 11) as i32 - 5).collect();
        let x: Vec<i32> = (0..cols).map(|i| (i % 5) as i32 - 2).collect();

        let mut sess = cnm_session(false);
        let at = sess.matrix(&a, rows, cols);
        let xt = sess.vector(&x);
        let yt = sess.gemv(at, xt);
        let st = sess.select(yt, 0);
        sess.run().unwrap();
        let y = sess.fetch(yt);
        let s = sess.fetch(st);

        let mut eager = oracle();
        let y_ref = eager.gemv(&a, &x, rows, cols);
        let s_ref = eager.select(&y_ref, 0);
        assert_eq!(y, y_ref);
        assert_eq!(s, s_ref);
        assert_eq!(
            sess.upmem_stats(),
            eager.stats(),
            "stats must fold identically"
        );
    }

    #[test]
    fn residency_keeps_results_identical_and_moves_strictly_fewer_bytes() {
        let (rows, cols) = (64, 32);
        let a: Vec<i32> = (0..rows * cols).map(|i| (i % 13) as i32 - 6).collect();
        let x: Vec<i32> = (0..cols).map(|i| (i % 7) as i32 - 3).collect();

        let mut sess = cnm_session(true);
        let at = sess.matrix(&a, rows, cols);
        let xt = sess.vector(&x);
        let yt = sess.gemv(at, xt);
        let st = sess.select(yt, 0);
        sess.run().unwrap();
        let s = sess.fetch(st);

        let mut eager = oracle();
        let y_ref = eager.gemv(&a, &x, rows, cols);
        let s_ref = eager.select(&y_ref, 0);
        assert_eq!(s, s_ref);
        let sess_stats = sess.upmem_stats();
        let eager_stats = eager.stats();
        let sess_bytes = sess_stats.host_to_dpu_bytes + sess_stats.dpu_to_host_bytes;
        let eager_bytes = eager_stats.host_to_dpu_bytes + eager_stats.dpu_to_host_bytes;
        assert!(
            sess_bytes < eager_bytes,
            "resident chain must move fewer simulated bytes ({sess_bytes} vs {eager_bytes})"
        );
        assert_eq!(sess_stats.kernel_seconds, eager_stats.kernel_seconds);
    }

    #[test]
    fn warmed_loops_replay_the_compiled_plan_and_skip_unchanged_inputs() {
        let (rows, cols) = (48, 16);
        let a: Vec<i32> = (0..rows * cols).map(|i| (i % 9) as i32 - 4).collect();
        let mut sess = cnm_session(true);
        let at = sess.matrix(&a, rows, cols);
        let xt = sess.vector(&vec![0i32; cols]);
        let mut bytes_per_iter = Vec::new();
        for round in 0..5 {
            let x: Vec<i32> = (0..cols)
                .map(|i| (i as i32 * (round + 1)) % 5 - 2)
                .collect();
            sess.write(xt, &x);
            let before = sess.upmem_stats().host_to_dpu_bytes;
            let yt = sess.gemv(at, xt);
            let st = sess.select(yt, 1);
            sess.run().unwrap();
            let got = sess.fetch(st);
            let mut eager = oracle();
            let y_ref = eager.gemv(&a, &x, rows, cols);
            assert_eq!(got, eager.select(&y_ref, 1), "round {round}");
            bytes_per_iter.push(sess.upmem_stats().host_to_dpu_bytes - before);
        }
        let (runs, replays) = sess.run_counts();
        assert_eq!(runs, 5);
        // Iterations 1-2 compile (cold, then once more with A observed
        // resident); iterations 3+ replay memoized plans — canonical
        // signatures make the rotating temporary ids irrelevant.
        assert_eq!(replays, 3, "{bytes_per_iter:?}");
        // Warm iterations skip the matrix transfer entirely.
        assert!(
            bytes_per_iter[2] < bytes_per_iter[0] / 4,
            "{bytes_per_iter:?}"
        );
        assert_eq!(bytes_per_iter[2], bytes_per_iter[4]);
    }

    /// Records a graph on the session and returns the handles to fetch
    /// after the run.
    type Recording = fn(&mut Session) -> Vec<TensorHandle>;

    /// A vector of `len` elements cycling through `period` values.
    fn ramp(sess: &mut Session, len: i32, period: i32) -> TensorHandle {
        let v: Vec<i32> = (0..len).map(|i| i % period - period / 2).collect();
        sess.vector(&v)
    }

    /// Runs `graph` once with the optimizer and once without it (the
    /// oracle), checks that every handle it returns fetches the same values,
    /// and returns the optimizer's counters and the launches of both runs.
    fn optimized(graph: Recording) -> (OptimizerStats, u64, u64) {
        let run = |optimizer: bool| {
            let mut sess = Session::new(
                SessionOptions::default()
                    .with_upmem_config(small_cfg())
                    .with_policy(ShardPolicy::Single(Target::Cnm))
                    .with_optimizer(optimizer),
            );
            let handles = graph(&mut sess);
            sess.run().unwrap();
            let values: Vec<Vec<i32>> = handles.iter().map(|&h| sess.fetch(h)).collect();
            (values, sess.optimizer_stats(), sess.upmem_stats().launches)
        };
        let (want, _, unfused) = run(false);
        let (got, stats, launches) = run(true);
        assert_eq!(got, want, "the optimizer changed a result");
        (stats, launches, unfused)
    }

    #[test]
    fn elementwise_chains_fuse_into_one_launch() {
        // (case, graph, fused groups, ops fused, launches with / without
        // the optimizer)
        let cases: [(&str, Recording, u64, u64, u64, u64); 5] = [
            (
                "three-op chain",
                |s| {
                    let [a, b, c, d] = [17, 13, 7, 5].map(|p| ramp(s, 96, p));
                    let t0 = s.elementwise(BinOp::Xor, a, b);
                    let t1 = s.elementwise(BinOp::And, t0, c);
                    let t2 = s.elementwise(BinOp::Or, t1, d);
                    // Every fused stage's output stays observable.
                    vec![t0, t1, t2]
                },
                1,
                3,
                1,
                3,
            ),
            (
                "BFS epilogue: one three-stage group over three inputs",
                |s| {
                    let [visited, ones, raw] = [3, 1, 5].map(|p| ramp(s, 64, p));
                    let nv = s.elementwise(BinOp::Xor, visited, ones);
                    let fresh = s.elementwise(BinOp::And, raw, nv);
                    let vnext = s.elementwise(BinOp::Or, visited, raw);
                    vec![nv, fresh, vnext]
                },
                1,
                3,
                1,
                3,
            ),
            (
                "five-op chain: a four-stage group plus one launch",
                |s| {
                    let (x, y) = (ramp(s, 40, 9), ramp(s, 40, 4));
                    let mut t = x;
                    (0..5)
                        .map(|_| {
                            t = s.elementwise(BinOp::Add, t, y);
                            t
                        })
                        .collect()
                },
                1,
                4,
                2,
                5,
            ),
            (
                "ops of different lengths never merge",
                |s| {
                    let [a, b] = [7, 3].map(|p| ramp(s, 96, p));
                    let [c, d] = [5, 11].map(|p| ramp(s, 64, p));
                    vec![
                        s.elementwise(BinOp::Add, a, b),
                        s.elementwise(BinOp::Mul, c, d),
                    ]
                },
                0,
                0,
                2,
                2,
            ),
            (
                "an operand defined after the producer blocks the chain",
                |s| {
                    let [a, b] = [7, 3].map(|p| ramp(s, 32, p));
                    let m = s.matrix(&[1; 32 * 4], 32, 4);
                    let x = ramp(s, 4, 3);
                    let p = s.elementwise(BinOp::Add, a, b);
                    let r = s.gemv(m, x);
                    vec![s.elementwise(BinOp::Sub, p, r)]
                },
                0,
                0,
                3,
                3,
            ),
        ];
        for (case, graph, groups, fused, launches, unfused) in cases {
            let (stats, got_launches, got_unfused) = optimized(graph);
            assert_eq!(
                (stats.graphs_optimized, stats.fused_groups, stats.ops_fused),
                (1, groups, fused),
                "{case}"
            );
            assert_eq!(stats.launches_saved, fused - groups, "{case}");
            assert_eq!((got_launches, got_unfused), (launches, unfused), "{case}");
        }
    }

    #[test]
    fn duplicate_and_dead_ops_are_eliminated() {
        // (case, graph, ops eliminated, launches)
        let cases: [(&str, Recording, u64, u64); 3] = [
            (
                "a discarded twin and a dead op",
                |s| {
                    let (a, b) = (ramp(s, 64, 11), ramp(s, 64, 9));
                    let s1 = s.elementwise(BinOp::Add, a, b);
                    // A structural twin of s1 whose output the caller gives
                    // up on: CSE folds it into s1.
                    let s2 = s.elementwise(BinOp::Add, a, b);
                    s.discard(s2);
                    // Dead: discarded and unconsumed, DCE erases it.
                    let dead = s.elementwise(BinOp::Mul, a, b);
                    s.discard(dead);
                    let keep = s.elementwise(BinOp::Sub, s1, b);
                    vec![keep, s1]
                },
                2,
                1,
            ),
            (
                "a fetched duplicate survives CSE",
                |s| {
                    let (a, b) = (ramp(s, 64, 11), ramp(s, 64, 9));
                    let s1 = s.elementwise(BinOp::Add, a, b);
                    let s2 = s.elementwise(BinOp::Add, a, b);
                    let k = s.elementwise(BinOp::Sub, s2, b);
                    vec![s1, s2, k]
                },
                0,
                1,
            ),
            (
                "a discarded dead chain is erased",
                |s| {
                    let a = ramp(s, 64, 11);
                    let d1 = s.elementwise(BinOp::Add, a, a);
                    let d2 = s.elementwise(BinOp::Mul, d1, a);
                    s.discard(d1);
                    s.discard(d2);
                    vec![s.elementwise(BinOp::Sub, a, a)]
                },
                2,
                1,
            ),
        ];
        for (case, graph, eliminated, launches) in cases {
            let (stats, got_launches, _) = optimized(graph);
            assert_eq!(stats.ops_eliminated, eliminated, "{case}");
            assert_eq!(got_launches, launches, "{case}");
        }
    }

    #[test]
    #[should_panic(expected = "stale tensor handle")]
    fn fetching_a_discarded_tensor_panics() {
        let len = 32;
        let a: Vec<i32> = (0..len).collect();
        let mut sess = cnm_session(true);
        let at = sess.vector(&a);
        let bt = sess.vector(&a);
        let kept = sess.elementwise(BinOp::Add, at, bt);
        let gone = sess.elementwise(BinOp::Mul, at, bt);
        sess.discard(gone);
        sess.run().unwrap();
        let _ = sess.fetch(kept);
        let _ = sess.fetch(gone); // stale: the discarded output was recycled
    }

    #[test]
    fn rotating_temporaries_replay_via_canonical_signatures() {
        let (rows, cols) = (40, 16);
        let a: Vec<i32> = (0..rows * cols).map(|i| (i % 9) as i32 - 4).collect();
        let mut sess = cnm_session(true);
        let at = sess.matrix(&a, rows, cols);
        let xt = sess.vector(&vec![0i32; cols]);
        for round in 0..10 {
            let x: Vec<i32> = (0..cols).map(|i| (i as i32 + round) % 5 - 2).collect();
            sess.write(xt, &x);
            // Fresh temporary handles every iteration: structurally the
            // same graph, so canonical signatures hit the cache anyway.
            let yt = sess.gemv(at, xt);
            let st = sess.select(yt, 0);
            sess.run().unwrap();
            let got = sess.fetch(st);
            let mut eager = oracle();
            let y_ref = eager.gemv(&a, &x, rows, cols);
            assert_eq!(got, eager.select(&y_ref, 0), "round {round}");
        }
        let (runs, replays) = sess.run_counts();
        assert_eq!(runs, 10);
        assert_eq!(replays, 8, "everything after the two warm-up compiles");
        let pc = sess.plan_cache_stats();
        assert_eq!((pc.hits, pc.misses, pc.evictions), (8, 2, 0));
        assert_eq!(pc.entries, 2);
    }

    #[test]
    fn the_plan_cache_is_a_bounded_lru() {
        let mut sess = cnm_session(true);
        for i in 0..10usize {
            // Ten structurally distinct graphs (the length differs), each
            // compiled once: the ninth and tenth evict the two oldest.
            let len = 16 + 8 * i;
            let v: Vec<i32> = (0..len).map(|j| (j % 7) as i32 - 3).collect();
            let at = sess.vector(&v);
            let bt = sess.vector(&v);
            let h = sess.elementwise(BinOp::Add, at, bt);
            sess.run().unwrap();
            let want: Vec<i32> = v.iter().map(|&e| e + e).collect();
            assert_eq!(sess.fetch(h), want, "graph {i}");
        }
        let pc = sess.plan_cache_stats();
        assert_eq!(pc.misses, 10);
        assert_eq!(pc.hits, 0);
        assert_eq!(pc.evictions, 2);
        assert_eq!(pc.entries, Session::COMPILED_CACHE);
    }

    #[test]
    fn shard_planned_loops_replay_once_warm() {
        // Forced fractions guarantee shard-planned (multi-device) steps.
        let (rows, cols) = (60, 24);
        let a: Vec<i32> = (0..rows * cols).map(|i| (i % 13) as i32 - 6).collect();
        let mut sess = Session::new(
            SessionOptions::default()
                .with_upmem_config(small_cfg())
                .with_policy(ShardPolicy::Fractions([0.5, 0.3, 0.2]))
                .with_residency(true),
        );
        let at = sess.matrix(&a, rows, cols);
        let xt = sess.vector(&vec![0i32; cols]);
        for round in 0..12 {
            let x: Vec<i32> = (0..cols)
                .map(|i| (i as i32 * (round + 1)) % 7 - 3)
                .collect();
            sess.write(xt, &x);
            let yt = sess.gemv(at, xt);
            sess.run().unwrap();
            let got = sess.fetch(yt);
            let want = kernels::matvec(&a, &x, rows, cols);
            assert_eq!(got, want, "round {round}");
        }
        // The first run compiles; every later one replays its plan.
        assert_eq!(sess.run_counts(), (12, 11));
    }

    #[test]
    fn shard_plans_do_not_depend_on_session_history() {
        // A shard plan is a function of the op, its shape, the policy and
        // the registered devices: what the session ran before moves nothing.
        fn gemv_work(sess: &mut Session, rows: usize, cols: usize) -> [u64; 3] {
            let a: Vec<i32> = (0..rows * cols).map(|i| (i % 11) as i32 - 5).collect();
            let x: Vec<i32> = (0..cols).map(|i| (i % 5) as i32 - 2).collect();
            let before = sess.shard_stats().work;
            let at = sess.matrix(&a, rows, cols);
            let xt = sess.vector(&x);
            let yt = sess.gemv(at, xt);
            sess.run().unwrap();
            assert_eq!(sess.fetch(yt), kernels::matvec(&a, &x, rows, cols));
            let after = sess.shard_stats().work;
            [0, 1, 2].map(|d| after[d] - before[d])
        }
        let auto = || {
            Session::new(
                SessionOptions::default()
                    .with_upmem_config(small_cfg())
                    .with_policy(ShardPolicy::Auto),
            )
        };
        let fresh = gemv_work(&mut auto(), 800, 96);
        assert_eq!(fresh, [48, 80, 672]);
        let mut warmed = auto();
        for _ in 0..6 {
            gemv_work(&mut warmed, 640, 96);
        }
        assert_eq!(gemv_work(&mut warmed, 800, 96), fresh);
    }

    #[test]
    fn histogram_plans_are_keyed_by_bin_count() {
        // Two histograms of one length with 16 and 4096 bins are two ops:
        // each has its own plan, priced with its own bins (the host writes
        // `bins × 4` bytes).
        let mut sess = Session::new(
            SessionOptions::default()
                .with_upmem_config(small_cfg())
                .with_policy(ShardPolicy::Auto),
        );
        let (len, max_value) = (256, 4096);
        let v: Vec<i32> = (0..len).map(|i| (i * 37 % 4096) as i32).collect();
        let (at, bt) = (sess.vector(&v), sess.vector(&v));
        let small = sess.histogram(at, 16, max_value);
        let large = sess.histogram(bt, 4096, max_value);
        sess.run().unwrap();
        assert_eq!(sess.fetch(small), kernels::histogram(&v, 16, max_value));
        assert_eq!(sess.fetch(large), kernels::histogram(&v, 4096, max_value));
        assert_eq!(sess.planner.cached_plans(), 2);
        let [small_host, large_host] = [16, 4096].map(|bins| {
            let op = CnmOp::Histogram {
                bins,
                max_value,
                len,
            };
            sess.planner.plan_op(op).unwrap().estimated_seconds[Target::Host.index()]
        });
        assert!(
            small_host > 0.0 && large_host > small_host,
            "host seconds: {small_host} (16 bins), {large_host} (4096 bins)"
        );
    }

    #[test]
    fn chained_gemms_and_streaming_ops_match_the_goldens() {
        let (m, k, n, p) = (24, 16, 12, 8);
        let a: Vec<i32> = (0..m * k).map(|i| (i % 7) as i32 - 3).collect();
        let b: Vec<i32> = (0..k * n).map(|i| (i % 5) as i32 - 2).collect();
        let c: Vec<i32> = (0..n * p).map(|i| (i % 3) as i32 - 1).collect();
        let mut sess = cnm_session(true);
        let at = sess.matrix(&a, m, k);
        let bt = sess.matrix(&b, k, n);
        let ct = sess.matrix(&c, n, p);
        let d = sess.gemm(at, bt);
        let e = sess.gemm(d, ct);
        sess.run().unwrap();
        let d_ref = kernels::matmul(&a, &b, m, k, n);
        assert_eq!(sess.fetch(e), kernels::matmul(&d_ref, &c, m, n, p));
        assert_eq!(sess.fetch(d), d_ref);

        let v: Vec<i32> = (0..500).map(|i| i * 37 % 256).collect();
        let w: Vec<i32> = (0..500).map(|i| 100 - i).collect();
        let vt = sess.vector(&v);
        let wt = sess.vector(&w);
        let sum = sess.elementwise(BinOp::Add, vt, wt);
        let red = sess.reduce(BinOp::Add, sum);
        let hist = sess.histogram(vt, 16, 256);
        sess.run().unwrap();
        assert_eq!(sess.fetch(sum), kernels::vector_add(&v, &w));
        assert_eq!(
            sess.fetch_scalar(red),
            kernels::reduce_add(&kernels::vector_add(&v, &w))
        );
        assert_eq!(sess.fetch(hist), kernels::histogram(&v, 16, 256));
    }

    #[test]
    fn auto_policy_plans_across_devices_and_matches_goldens() {
        let (rows, cols) = (640, 96);
        let a: Vec<i32> = (0..rows * cols).map(|i| (i % 11) as i32 - 5).collect();
        let x: Vec<i32> = (0..cols).map(|i| (i % 5) as i32 - 2).collect();
        let mut sess = Session::new(
            SessionOptions::default()
                .with_upmem_config(small_cfg())
                .with_policy(ShardPolicy::Auto),
        );
        let at = sess.matrix(&a, rows, cols);
        let xt = sess.vector(&x);
        let yt = sess.gemv(at, xt);
        sess.run().unwrap();
        assert_eq!(sess.fetch(yt), kernels::matvec(&a, &x, rows, cols));

        let v: Vec<i32> = (0..4096).map(|i| i * 31 % 97 - 40).collect();
        let vt = sess.vector(&v);
        let wt = sess.vector(&v);
        let sum = sess.elementwise(BinOp::Add, vt, wt);
        sess.run().unwrap();
        assert_eq!(sess.fetch(sum), kernels::vector_add(&v, &v));
    }

    #[test]
    #[should_panic(expected = "stale tensor handle")]
    fn unreferenced_temporaries_go_stale_after_the_next_run() {
        let mut sess = cnm_session(true);
        let v = sess.vector(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let w = sess.vector(&[1; 8]);
        let first = sess.elementwise(BinOp::Add, v, w);
        sess.run().unwrap();
        // A second run that does not reference `first` recycles it.
        let second = sess.elementwise(BinOp::Mul, v, w);
        sess.run().unwrap();
        let _ = sess.fetch(second);
        let _ = sess.fetch(first); // panics: stale
    }

    #[test]
    fn failed_plans_recycle_their_outputs_and_leave_the_session_usable() {
        let mut sess = Session::new(
            SessionOptions::default()
                .with_upmem_config(small_cfg())
                // Infeasible: fractions do not sum to 1.
                .with_policy(ShardPolicy::Fractions([0.5, 0.2, 0.2])),
        );
        let v = sess.vector(&[1i32; 64]);
        let w = sess.vector(&[2i32; 64]);
        let mut failed = Vec::new();
        for _ in 0..3 {
            let out = sess.elementwise(BinOp::Add, v, w);
            assert!(matches!(sess.run(), Err(ShardError::FractionSum { .. })));
            failed.push(out);
        }
        // The failed graphs' output slots were recycled: a fixed policy
        // reuses them and the session works normally.
        sess.set_policy(ShardPolicy::Single(Target::Cnm));
        let ok = sess.elementwise(BinOp::Add, v, w);
        sess.run().unwrap();
        assert_eq!(sess.fetch(ok), vec![3i32; 64]);
        // Handles of the failed graphs are stale.
        let stale = failed[0];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = sess.fetch(stale);
        }));
        assert!(caught.is_err(), "failed-run outputs must be stale");
    }

    /// A host-placed op runs straight into its output slot, and bills what
    /// the shard dispatch bills: its results and the simulated fields of
    /// `shard_stats()` equal, bit for bit, those of the same ops and splits
    /// through `ShardedBackend::run` on a fresh backend.
    #[test]
    fn host_placed_ops_bill_what_the_shard_dispatch_bills() {
        let options = || ShardedRunOptions::default().with_ranks(2);
        let mut sess = Session::new(
            SessionOptions::default()
                .with_policy(ShardPolicy::Auto)
                .with_sharded(options()),
        );
        let (rows, cols) = (64, 16);
        let w: Vec<i32> = (0..rows * cols).map(|e| (e % 17) as i32 - 8).collect();
        let x: Vec<i32> = (0..cols).map(|e| e as i32 - 7).collect();
        let mask: Vec<i32> = (0..rows).map(|e| (e * 5) as i32).collect();
        let (wt, xt) = (sess.matrix(&w, rows, cols), sess.vector(&x));
        let mt = sess.vector(&mask);
        let y = sess.gemv(wt, xt);
        let z = sess.elementwise(BinOp::Xor, y, mt);
        let sum = sess.reduce(BinOp::Add, z);
        sess.run().unwrap();

        let mut be = ShardedBackend::new(options());
        let host = ShardSplit::all_host(rows);
        let want_y = be.gemv(&w, &x, rows, cols, &host).unwrap();
        let want_z = be.elementwise(BinOp::Xor, &want_y, &mask, &host).unwrap();
        let want_sum = be.reduce(BinOp::Add, &want_z, &host).unwrap();
        let got = (sess.fetch(y), sess.fetch(z), sess.fetch_scalar(sum));
        assert_eq!(got, (want_y, want_z, want_sum));
        let (got, want) = (sess.shard_stats(), be.stats());
        assert_eq!((got.ops, got.work), (3, [0, 0, 3 * rows as u64]));
        assert_eq!((got.ops, got.work), (want.ops, want.work));
        let bits = |s: &cinm_lowering::ShardStats| {
            (
                s.sim_seconds.map(f64::to_bits),
                s.sim_makespan_seconds.to_bits(),
            )
        };
        assert_eq!(bits(got), bits(want));
    }

    #[test]
    fn pinned_outputs_survive_unrelated_runs() {
        let mut sess = cnm_session(true);
        let v = sess.vector(&[5; 16]);
        let w = sess.vector(&[3; 16]);
        let kept = sess.elementwise(BinOp::Sub, v, w);
        sess.pin(kept);
        sess.run().unwrap();
        let _other = sess.elementwise(BinOp::Add, v, w);
        sess.run().unwrap();
        assert_eq!(sess.fetch(kept), vec![2; 16]);
    }

    /// The serving layer's batching keys must be *exactly* the canonical
    /// replay signatures a session computes for the same request graphs —
    /// this is the contract that lets the server reuse the plan-cache
    /// compatibility predicate as its batch-compatibility predicate.
    #[test]
    fn serve_request_signatures_match_the_session_canonical_form() {
        let mut sess = cnm_session(true);
        let a = sess.matrix(&[2; 12], 3, 4);
        let x = sess.vector(&[1; 4]);
        let _y = sess.gemv(a, x);
        sess.canonicalize();
        let gemv = |rows, cols| single_op_signature(CnmOp::Gemv { rows, cols });
        assert_eq!(sess.sig_scratch, gemv(3, 4));
        assert_ne!(sess.sig_scratch, gemv(4, 3));

        let mut sess = cnm_session(true);
        let a = sess.matrix(&[2; 12], 3, 4);
        let b = sess.matrix(&[1; 8], 4, 2);
        let _c = sess.gemm(a, b);
        sess.canonicalize();
        assert_eq!(
            sess.sig_scratch,
            single_op_signature(CnmOp::Gemm { m: 3, k: 4, n: 2 })
        );
        assert_ne!(sess.sig_scratch, gemv(3, 4));
    }
}
