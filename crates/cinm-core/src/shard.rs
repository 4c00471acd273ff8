//! The shard planner: cost-model-driven work splitting across devices.
//!
//! Where [`crate::target::TargetSelector`] places each `cinm` op on exactly
//! one device, [`ShardPlanner`] splits **one** op across all of them: it
//! asks the registered [`CostModel`]s for per-device time estimates and
//! produces a [`ShardPlan`] whose per-device shard sizes minimise the
//! estimated makespan (the ROADMAP's "heterogeneous serving" item;
//! TDO-CIM's runtime kernel-slice offloading and CIM-MLC's multi-tier
//! scheduling are the CIM-only precedents).
//!
//! ## The search
//!
//! The `Auto` policy plans the split of least makespan (the largest priced
//! shard) among the splits a plan can take: every non-empty shard holds
//! whole granules of 16 work units, and one of them also holds the
//! `work mod 16` remainder. An op under two granules is not split.
//!
//! The search is exact because every price is non-decreasing in work
//! (`tests/properties.rs` checks it for every model and op kind). So the
//! granules a device finishes within a makespan `T` are `0..=g` for one `g`,
//! found by binary search over its prices, and `T` is feasible when these
//! counts cover the op. Feasibility is monotone in `T`: the planner bisects
//! the ordered bit patterns of `f64` between 0 and the fastest device's
//! price ([`CostModel::price`]) of the whole op, and the least feasible `T`
//! is the optimum. A device whose model does not price the op (e.g. the
//! MVM-only crossbar on an element-wise op) takes nothing.
//!
//! ## Single-target fallback
//!
//! [`ShardPlan::fallback`] names the one device that gets **all** the work
//! when:
//!
//! * the op has fewer than two granules of work (the fastest device), or
//! * no split finishes before the fastest device alone (in particular when
//!   only one device prices the op), or
//! * the policy forces a single target ([`ShardPolicy::Single`]) or picks
//!   one ([`ShardPolicy::MinimizeEnergy`]).
//!
//! Zero-work ops produce an all-empty plan with no fallback. User-forced
//! fractions that do not sum to 1 are an **error** ([`ShardError`]), never
//! silently renormalised, and so is forcing work onto an accelerator whose
//! model does not price the op.
//!
//! The planner has one entry, [`ShardPlanner::plan_op`] (memoized by
//! [`CachedShardPlanner::plan_op`]): it plans one typed [`CnmOp`] and prices
//! it once per (device, shard size); a session's crate-private `plan_on`
//! weighs that plan against the op whole on the grid under its operands'
//! residency. The entries `benchmark/` still calls by `cinm` name and
//! [`ShardShape`] live in the crate's private `pinned` module.

use std::collections::{hash_map::Entry, HashMap};

use cinm_lowering::cnm_op::{CnmOp, Command};
use cinm_lowering::{Cost, Device, ShardError, ShardSplit};
use cpu_sim::model::CpuModel;
use memristor_sim::CrossbarConfig;
use upmem_sim::UpmemConfig;

use crate::target::{CostModel, Target};

// The shard shapes and the per-device cost models moved into
// `cinm_lowering::device` with the unified `Device` trait (so devices can
// expose their own cost hookup without a crate cycle); they are re-exported
// here so planner users keep their import paths.
pub use cinm_lowering::device::{CimCostModel, CnmCostModel, HostCostModel, ShardShape};

/// How the planner assigns work to devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardPolicy {
    /// The split of least estimated makespan across the supporting devices
    /// (see the module docs).
    Auto,
    /// Minimise estimated *energy* instead of makespan: place all work on
    /// the device whose full-work joule estimate ([`CostModel::price`]) is
    /// smallest. Single-device placement is provably optimal here — every
    /// model's fixed energy (broadcasts, tile programming, static leakage
    /// over the launch) is non-negative and amortises with shard size, so
    /// `e_i(w) ≥ (w/W)·e_i(W)` and any split's total energy
    /// `Σ e_i(w_i) ≥ min_i e_i(W)`. Splitting can only add fixed costs;
    /// unlike makespan, energy gains nothing from concurrency.
    MinimizeEnergy,
    /// Place all work on one device (the `--shard cnm-only` / `cim-only` /
    /// `host-only` knobs).
    Single(Target),
    /// User-forced work fractions in `[cnm, cim, host]` order. Must sum to 1
    /// — the planner errors instead of renormalising.
    Fractions([f64; 3]),
}

impl ShardPolicy {
    /// Parses the `--shard` CLI grammar of `cinm-experiments`: `value` is
    /// the flag's argument (`auto|cnm-only|cim-only|host-only|fractions`),
    /// `next` the following token when `value` is `fractions` (`"a,b,c"`).
    pub fn parse_cli(value: &str, next: Option<&str>) -> Result<ShardPolicy, String> {
        match value {
            "auto" => Ok(ShardPolicy::Auto),
            "min-energy" => Ok(ShardPolicy::MinimizeEnergy),
            "cnm-only" => Ok(ShardPolicy::Single(Target::Cnm)),
            "cim-only" => Ok(ShardPolicy::Single(Target::Cim)),
            "host-only" => Ok(ShardPolicy::Single(Target::Host)),
            "fractions" => {
                let raw = next
                    .ok_or_else(|| "--shard fractions requires a value 'cnm,cim,host'".to_string())?;
                let mut parts = Vec::new();
                for p in raw.split(',') {
                    let p = p.trim();
                    parts.push(p.parse::<f64>().map_err(|_| {
                        format!("invalid shard fraction '{p}' in '{raw}'")
                    })?);
                }
                if parts.len() != 3 {
                    return Err(format!(
                        "--shard fractions expects exactly three values 'cnm,cim,host' (got '{raw}')"
                    ));
                }
                Ok(ShardPolicy::Fractions([parts[0], parts[1], parts[2]]))
            }
            other => Err(format!(
                "invalid --shard value '{other}'; expected auto|min-energy|cnm-only|cim-only|host-only|fractions a,b,c"
            )),
        }
    }

    /// Whether the policy necessarily places work on the crossbar — such
    /// policies cannot execute ops outside the MVM-only backend's support,
    /// so harnesses skip those ops instead of failing the whole sweep.
    pub fn requires_cim(&self) -> bool {
        match self {
            ShardPolicy::Single(Target::Cim) => true,
            ShardPolicy::Fractions(f) => f[1] > 0.0,
            _ => false,
        }
    }
}

/// A computed shard assignment for one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Total work units (rows or elements).
    pub work: usize,
    /// Work units per device.
    pub split: ShardSplit,
    /// Work fractions per device, `[cnm, cim, host]`.
    pub fractions: [f64; 3],
    /// Estimated completion seconds per device at the planned split (zero
    /// for empty shards or devices without a model).
    pub estimated_seconds: [f64; 3],
    /// Estimated joules per device at the planned split (zero for empty
    /// shards or devices whose model carries no energy calibration) — filled
    /// for *every* policy, so energy-aware and makespan-optimal plans can be
    /// compared on the same estimates.
    pub estimated_joules: [f64; 3],
    /// `Some(target)` when the planner fell back to a single device (op too
    /// small to shard, only one supporting device, or a forced policy).
    pub fallback: Option<Target>,
}

impl ShardPlan {
    /// Whether the plan actually uses more than one device.
    pub fn is_sharded(&self) -> bool {
        ShardPlanner::split_device_count(&self.split) > 1
    }

    /// Total estimated energy of the plan across all devices, in joules.
    pub fn total_estimated_joules(&self) -> f64 {
        self.estimated_joules.iter().sum()
    }
}

/// Work units per granule: every non-empty shard of an `Auto` plan holds
/// whole granules (one of them also the remainder), and an op under two
/// granules is not split.
const GRANULE: usize = 16;

/// Plans work splits across `Cnm`, `Cim` and `Host` from registered
/// [`CostModel`] estimates (see the module docs for the search and the
/// fallback conditions).
pub struct ShardPlanner {
    models: Vec<Box<dyn CostModel>>,
    /// The assignment policy.
    pub policy: ShardPolicy,
}

impl std::fmt::Debug for ShardPlanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPlanner")
            .field("models", &self.models.len())
            .field("policy", &self.policy)
            .finish()
    }
}

impl Default for ShardPlanner {
    fn default() -> Self {
        ShardPlanner::new()
    }
}

impl ShardPlanner {
    /// Creates an empty planner (register models before planning) with the
    /// `Auto` policy.
    pub fn new() -> Self {
        ShardPlanner {
            models: Vec::new(),
            policy: ShardPolicy::Auto,
        }
    }

    /// Creates a planner with the default cost models of all
    /// three devices: [`CnmCostModel`] for a machine with `ranks` DIMMs,
    /// [`CimCostModel`] for the default four-tile crossbar and
    /// [`HostCostModel`] for the in-order ARM host.
    pub fn with_default_models(ranks: usize) -> Self {
        let mut planner = ShardPlanner::new();
        planner.register_model(Box::new(CnmCostModel::new(UpmemConfig::with_ranks(ranks))));
        planner.register_model(Box::new(CimCostModel::new(CrossbarConfig::default())));
        planner.register_model(Box::new(HostCostModel::new(CpuModel::arm_host())));
        planner
    }

    /// Overrides the policy.
    pub fn with_policy(mut self, policy: ShardPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Registers a device cost model.
    pub fn register_model(&mut self, model: Box<dyn CostModel>) {
        self.models.push(model);
    }

    /// Registers the cost hookup of a [`Device`] ([`Device::cost`]): the
    /// planner sizes shards for exactly the device set that will execute
    /// them.
    pub fn register_device(&mut self, device: &dyn Device) {
        self.register_model(device.cost());
    }

    /// Number of registered cost models.
    pub(crate) fn num_models(&self) -> usize {
        self.models.len()
    }

    /// The target's price of an op: the smallest seconds and the smallest
    /// joules its registered models answer — the one place model outputs
    /// enter the planner. A price whose seconds or joules are not finite and
    /// non-negative counts as none, so a broken model can neither panic a
    /// comparison nor win one.
    pub(crate) fn estimate(&self, target: Target, op: CnmOp) -> Option<Cost> {
        let valid = |v: f64| v.is_finite() && v >= 0.0;
        self.models
            .iter()
            .filter(|m| m.target() == target)
            .filter_map(|m| m.price(op))
            .filter(|c| valid(c.seconds) && valid(c.joules))
            .reduce(|a, b| Cost {
                seconds: a.seconds.min(b.seconds),
                joules: a.joules.min(b.joules),
            })
    }

    /// The price of a list of grid commands by the first grid model that
    /// prices it, `None` without one.
    fn grid_price(&self, mut list: impl Iterator<Item = Command>) -> Option<Cost> {
        let mut grid = self.models.iter().filter(|m| m.target() == Target::Cnm);
        grid.find_map(|m| m.price_commands(&mut list))
    }

    /// Full-shard prices of every target, in `[cnm, cim, host]` order.
    fn estimates(&self, op: CnmOp) -> [Option<Cost>; 3] {
        Target::ALL.map(|target| self.estimate(target, op))
    }

    /// The device with the fastest full-shard estimate for the op, or `None`
    /// when no registered model prices it — the single-target choice of the
    /// `Auto` policy, and what [`crate::target::TargetSelector`] selects.
    pub(crate) fn fastest(&self, op: CnmOp) -> Option<Target> {
        ranked(&self.estimates(op)).first().copied()
    }

    fn split_device_count(split: &ShardSplit) -> usize {
        [split.cnm, split.cim, split.host]
            .iter()
            .filter(|&&w| w > 0)
            .count()
    }

    /// Plans a shard assignment for one op. An op no registered model
    /// prices stays on the host, unless the policy forces it elsewhere.
    pub fn plan_op(&self, op: CnmOp) -> Result<ShardPlan, ShardError> {
        let work = op.work();
        let mut prices = Prices {
            planner: self,
            op,
            memo: HashMap::new(),
        };
        let estimates = Target::ALL.map(|target| prices.cost(target, work));
        let (split, fallback) = match self.policy {
            // Zero-work ops plan to empty splits, but an infeasible forced
            // policy is still an error (fractions are validated even when
            // they apportion nothing).
            ShardPolicy::Fractions(fractions) => {
                let split = ShardSplit::from_fractions(work, fractions)?;
                if split.cim > 0 && estimates[1].is_none() {
                    return Err(ShardError::Unsupported {
                        device: Target::Cim,
                        op: "forced-fraction shard",
                    });
                }
                (split, None)
            }
            ShardPolicy::Single(target) => {
                let split = Self::single_split(work, target, &estimates)?;
                (split, (work > 0).then_some(target))
            }
            _ if work == 0 => (ShardSplit::default(), None),
            ShardPolicy::Auto => prices.plan_auto(&estimates),
            ShardPolicy::MinimizeEnergy => Self::plan_min_energy(work, &estimates),
        };
        Ok(prices.finish(split, fallback))
    }

    /// Plans one op of a session under the residency `on`: the session's
    /// one placement rule. A PrIM kernel no model prices runs whole on the
    /// grid. Any other op's plan ([`plan_op`](Self::plan_op)) first gathers
    /// its operands off the grid ([`OnGrid::moves`]) and competes with the
    /// whole op on the grid, priced by the grid's model over the commands
    /// the session issues there ([`OnGrid::segment`]): `Auto` takes the
    /// faster, `MinimizeEnergy` the more frugal, a forced policy its plan.
    /// Each device's estimate is its bill. Outside a session (`on.dpus ==
    /// 0`) this is [`plan_op`](Self::plan_op).
    pub(crate) fn plan_on(&self, op: CnmOp, on: OnGrid) -> Result<ShardPlan, ShardError> {
        if on.dpus == 0 {
            return self.plan_op(op);
        }
        let grid = self.grid_price(on.segment(op));
        if op.shard_shape().is_none() {
            return Ok(on_grid(op.work(), grid));
        }
        let mut plan = self.plan_op(op)?;
        let moves = self.grid_price(gathers(on.moves)).unwrap_or_default();
        let seconds = plan.estimated_seconds.into_iter().fold(0.0, f64::max);
        let cheaper = |g: Cost| match self.policy {
            ShardPolicy::Auto => g.seconds < moves.seconds + seconds,
            ShardPolicy::MinimizeEnergy => g.joules < moves.joules + plan.total_estimated_joules(),
            _ => false,
        };
        if plan.split.cnm == plan.split.total() || grid.is_some_and(cheaper) {
            return Ok(on_grid(plan.work, grid));
        }
        if on.moves != [0; 3] {
            let shard = op.with_work(plan.split.cnm).commands(on.dpus);
            let cost = self
                .grid_price(gathers(on.moves).chain(shard))
                .unwrap_or_default();
            (plan.estimated_seconds[0], plan.estimated_joules[0]) = (cost.seconds, cost.joules);
        }
        Ok(plan)
    }

    /// The `MinimizeEnergy` policy: all work goes to the device with the
    /// smallest full-work joule estimate (see [`ShardPolicy::MinimizeEnergy`]
    /// for why single-device placement is optimal under amortising fixed
    /// energy costs). Devices without support for the op drop out; with no
    /// priced device the op stays on the host, the catch-all target.
    fn plan_min_energy(work: usize, estimates: &[Option<Cost>; 3]) -> (ShardSplit, Option<Target>) {
        let target = Target::ALL
            .into_iter()
            .zip(estimates)
            .filter_map(|(target, c)| c.map(|c| (target, c.joules)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(Target::Host, |(target, _)| target);
        (all_on(target, work), Some(target))
    }

    /// Checks a forced single-target placement: an accelerator must price
    /// the op (a registered model's price is the support rule); the host
    /// executes anything.
    fn single_split(
        work: usize,
        target: Target,
        estimates: &[Option<Cost>; 3],
    ) -> Result<ShardSplit, ShardError> {
        if target != Target::Host && estimates[target.index()].is_none() {
            return Err(ShardError::Unsupported {
                device: target,
                op: "forced single-target shard",
            });
        }
        Ok(all_on(target, work))
    }
}

/// The prices one plan reads: each (device, shard size) is priced once.
struct Prices<'a> {
    planner: &'a ShardPlanner,
    op: CnmOp,
    memo: HashMap<(Target, usize), Option<Cost>>,
}

impl Prices<'_> {
    /// The price of a shard of `work` units of the op on `target`.
    fn cost(&mut self, target: Target, work: usize) -> Option<Cost> {
        let (planner, op) = (self.planner, self.op);
        *self
            .memo
            .entry((target, work))
            .or_insert_with(|| planner.estimate(target, op.with_work(work)))
    }

    /// The `Auto` policy: the split of least makespan (see the module docs).
    fn plan_auto(&mut self, estimates: &[Option<Cost>; 3]) -> (ShardSplit, Option<Target>) {
        let work = self.op.work();
        let order = ranked(estimates);
        // No model supports the op: everything stays on the host (the
        // paper's catch-all for ops outside the offloadable set).
        let Some(&fastest) = order.first() else {
            return (ShardSplit::all_host(work), Some(Target::Host));
        };
        if work < 2 * GRANULE {
            return (all_on(fastest, work), Some(fastest));
        }
        // Bisect for the least feasible makespan; the fastest device alone
        // is feasible. Counts only grow with the makespan, so those at the
        // bounds bracket every count in between.
        let alone = estimates[fastest.index()].map_or(f64::MAX, |c| c.seconds);
        let (mut lo, mut hi) = (0, alone.to_bits());
        let (mut below, mut above) = ([[0; 2]; 3], [[work / GRANULE; 2]; 3]);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let counts = self.counts(&order, f64::from_bits(mid), &below, &above);
            if fill(&order, &counts, work).is_some() {
                (hi, above) = (mid, counts);
            } else {
                (lo, below) = (mid + 1, counts);
            }
        }
        let counts = self.counts(&order, f64::from_bits(hi), &below, &above);
        // Only a price that falls with work can leave the bound uncovered.
        let Some(units) = fill(&order, &counts, work) else {
            return (all_on(fastest, work), Some(fastest));
        };
        let split = ShardSplit {
            cnm: units[0],
            cim: units[1],
            host: units[2],
        };
        let mut used = Target::ALL.into_iter().filter(|&t| split.get(t) > 0);
        let fallback = match (used.next(), used.next()) {
            (only, None) => only,
            _ => None,
        };
        (split, fallback)
    }

    /// The [`Counts`] of the devices of `order` within the makespan `t`,
    /// each found by binary search over its monotone prices. Counts known
    /// from `at_least` and `at_most` are not priced again.
    fn counts(&mut self, order: &[Target], t: f64, at_least: &Counts, at_most: &Counts) -> Counts {
        let (granules, rest) = (self.op.work() / GRANULE, self.op.work() % GRANULE);
        let mut counts = [[0; 2]; 3];
        for &target in order {
            let i = target.index();
            for (k, extra) in [0, rest].into_iter().enumerate() {
                let (mut lo, mut hi) = (0, granules);
                while lo < hi {
                    let mid = hi - (hi - lo) / 2;
                    let within = mid <= at_least[i][k]
                        || mid <= at_most[i][k]
                            && self
                                .cost(target, mid * GRANULE + extra)
                                .is_some_and(|c| c.seconds <= t);
                    if within {
                        lo = mid;
                    } else {
                        hi = mid - 1;
                    }
                }
                counts[i][k] = lo;
            }
        }
        counts
    }

    /// The plan of a split, with the price of every device's shard.
    fn finish(&mut self, split: ShardSplit, fallback: Option<Target>) -> ShardPlan {
        let mut estimated_seconds = [0.0f64; 3];
        let mut estimated_joules = [0.0f64; 3];
        for target in Target::ALL {
            let (i, w) = (target.index(), split.get(target));
            if let Some(c) = (w > 0).then(|| self.cost(target, w)).flatten() {
                estimated_seconds[i] = c.seconds;
                estimated_joules[i] = c.joules;
            }
        }
        ShardPlan {
            work: self.op.work(),
            fractions: split.fractions(),
            split,
            estimated_seconds,
            estimated_joules,
            fallback,
        }
    }
}

/// A memoizing wrapper around [`ShardPlanner`].
///
/// Re-planning the same op is pure repeated work — the search prices it at
/// up to a few hundred shard sizes (388 for a 4 Mi-element `va` over three
/// devices) — yet exactly that happens in any serving loop issuing
/// same-shaped ops. `CachedShardPlanner` caches each
/// computed [`ShardPlan`] keyed by the [`CnmOp`] itself (shape and value
/// parameters: histograms of different bin counts are different plans) and
/// the residency a session plans it under; lookups are allocation-free. The
/// policy and the registered device set are fixed per wrapped planner —
/// together with those they fully determine the plan — so they are
/// invalidation events, not key fields.
///
/// **Invalidation rule:** any reconfiguration of the planning inputs — a
/// policy change ([`set_policy`](Self::set_policy)), a newly registered cost
/// model ([`register_model`](Self::register_model)), or swapping the whole
/// planner ([`set_planner`](Self::set_planner)) — clears the cache. Those
/// are the only ways cost-model configuration can change, so a cached plan
/// can never go stale. Planning *errors* (infeasible forced policies) are
/// not cached.
pub struct CachedShardPlanner {
    planner: ShardPlanner,
    cache: HashMap<(CnmOp, OnGrid), ShardPlan>,
    hits: u64,
    misses: u64,
}
impl std::fmt::Debug for CachedShardPlanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedShardPlanner")
            .field("planner", &self.planner)
            .field("cached_plans", &self.cache.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

impl CachedShardPlanner {
    /// Wraps a planner.
    pub fn new(planner: ShardPlanner) -> Self {
        CachedShardPlanner {
            planner,
            cache: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Wraps a planner with the default device cost models (see
    /// [`ShardPlanner::with_default_models`]).
    pub fn with_default_models(ranks: usize) -> Self {
        CachedShardPlanner::new(ShardPlanner::with_default_models(ranks))
    }

    /// The wrapped planner (read-only; mutation goes through the
    /// invalidating setters).
    pub fn planner(&self) -> &ShardPlanner {
        &self.planner
    }

    /// Replaces the policy and invalidates every cached plan.
    pub fn set_policy(&mut self, policy: ShardPolicy) {
        self.planner.policy = policy;
        self.cache.clear();
    }

    /// Registers an additional cost model and invalidates every cached plan.
    pub fn register_model(&mut self, model: Box<dyn CostModel>) {
        self.planner.register_model(model);
        self.cache.clear();
    }

    /// Replaces the wrapped planner wholesale and invalidates every cached
    /// plan.
    pub fn set_planner(&mut self, planner: ShardPlanner) {
        self.planner = planner;
        self.cache.clear();
    }

    /// Cache hits / misses so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of memoized plans.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Plans a shard assignment for one op, returning the memoized plan
    /// when the same op was planned before under the current configuration
    /// — bit-identical to calling [`ShardPlanner::plan_op`] directly (the
    /// planner is deterministic; `tests/properties.rs` asserts the
    /// equivalence over randomized op streams with repeats).
    ///
    /// # Errors
    ///
    /// Propagates [`ShardPlanner::plan_op`] errors, which are never cached.
    pub fn plan_op(&mut self, op: CnmOp) -> Result<&ShardPlan, ShardError> {
        self.plan_on(op, OnGrid::default())
    }

    /// [`ShardPlanner::plan_on`], memoized like [`plan_op`](Self::plan_op).
    pub(crate) fn plan_on(&mut self, op: CnmOp, on: OnGrid) -> Result<&ShardPlan, ShardError> {
        Ok(match self.cache.entry((op, on)) {
            Entry::Occupied(hit) => {
                self.hits += 1;
                hit.into_mut()
            }
            Entry::Vacant(miss) => {
                let plan = self.planner.plan_on(op, on)?;
                self.misses += 1;
                miss.insert(plan)
            }
        })
    }
}

/// `work` units whole on the grid, at the grid's price (zero unpriced).
fn on_grid(work: usize, grid: Option<Cost>) -> ShardPlan {
    let (grid, split) = (grid.unwrap_or_default(), ShardSplit::all_cnm(work));
    ShardPlan {
        work,
        fractions: split.fractions(),
        split,
        estimated_seconds: [grid.seconds, 0.0, 0.0],
        estimated_joules: [grid.joules, 0.0, 0.0],
        fallback: (work > 0).then_some(Target::Cnm),
    }
}

/// What a session's residency leaves one op on a grid of `dpus` DPUs. Per
/// operand: `held` resident in its role, so not transferred; `moves` the
/// per-DPU chunk to gather before the op runs anywhere but the grid, 0 for
/// none (a tensor only the grid holds moves once, at its first use the
/// grid does not hold, which the grid gathers before transferring it).
/// `keep`: the result stays resident, deferring its gather.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub(crate) struct OnGrid {
    pub(crate) dpus: usize,
    pub(crate) held: [bool; 3],
    pub(crate) moves: [usize; 3],
    pub(crate) keep: bool,
}

impl OnGrid {
    /// Whether the session issues `command` when the op runs on the grid.
    pub(crate) fn issues(&self, command: &Command) -> bool {
        match *command {
            Command::Scatter { input, .. } | Command::Broadcast { input, .. } => !self.held[input],
            Command::Launch(_) => true,
            Command::Gather { .. } => !self.keep,
        }
    }

    /// The grid's commands of the op run whole there, in issue order: the
    /// gathers of the `moves` it transfers, then the [`CnmOp::commands`] it
    /// [`issues`](Self::issues).
    fn segment(self, op: CnmOp) -> impl Iterator<Item = Command> {
        let fetch = std::array::from_fn(|i| if self.held[i] { 0 } else { self.moves[i] });
        gathers(fetch).chain(op.commands(self.dpus).filter(move |c| self.issues(c)))
    }
}

/// A gather per non-zero per-DPU chunk, in operand order.
fn gathers(chunks: [usize; 3]) -> impl Iterator<Item = Command> {
    chunks
        .into_iter()
        .filter(|&c| c > 0)
        .map(|chunk| Command::Gather { chunk })
}

/// All `work` units on one device.
fn all_on(target: Target, work: usize) -> ShardSplit {
    match target {
        Target::Cnm => ShardSplit::all_cnm(work),
        Target::Cim => ShardSplit::all_cim(work),
        Target::Host => ShardSplit::all_host(work),
    }
}

/// Per device (`[cnm, cim, host]`), the most granules it finishes within
/// a makespan: `[alone, with the remainder]`, 0 when none.
type Counts = [[usize; 2]; 3];

/// A split (`[cnm, cim, host]` units) of `work` within the [`Counts`], or
/// `None` when they cannot cover it. The first device of `order` that can
/// hold the remainder takes its shard first, then the others in `order`,
/// each as many of the granules left as it finishes.
fn fill(order: &[Target], counts: &Counts, work: usize) -> Option<[usize; 3]> {
    let (granules, rest) = (work / GRANULE, work % GRANULE);
    let total: usize = counts.iter().map(|c| c[0]).sum();
    let holder = order.iter().copied().find(|t| {
        let [alone, held] = counts[t.index()];
        held > 0 && total - alone + held >= granules
    })?;
    let (mut units, mut left) = ([0; 3], granules);
    for target in std::iter::once(holder).chain(order.iter().copied().filter(|&t| t != holder)) {
        let g = counts[target.index()][usize::from(target == holder)].min(left);
        units[target.index()] = g * GRANULE;
        left -= g;
    }
    units[holder.index()] += rest;
    Some(units)
}

/// The devices with an estimate, fastest first: `[cnm, cim, host]` seconds
/// clamped to 1 ps so sub-picosecond estimates tie, the earlier device on
/// ties.
fn ranked(estimates: &[Option<Cost>; 3]) -> Vec<Target> {
    let mut ranked: Vec<(Target, f64)> = Target::ALL
        .into_iter()
        .zip(estimates)
        .filter_map(|(target, c)| Some((target, c.as_ref()?.seconds.max(1e-12))))
        .collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    ranked.into_iter().map(|(target, _)| target).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use upmem_sim::BinOp;

    fn planner() -> ShardPlanner {
        ShardPlanner::with_default_models(4)
    }

    fn gemm(m: usize, k: usize, n: usize) -> CnmOp {
        CnmOp::Gemm { m, k, n }
    }

    fn gemv(rows: usize, cols: usize) -> CnmOp {
        CnmOp::Gemv { rows, cols }
    }

    fn add(len: usize) -> CnmOp {
        CnmOp::Elementwise {
            op: BinOp::Add,
            len,
        }
    }

    fn reduce(len: usize) -> CnmOp {
        CnmOp::Reduce {
            op: BinOp::Add,
            len,
        }
    }

    /// A linear-cost model with a fixed per-element rate, for planner tests
    /// that need controlled estimates.
    struct FlatRate {
        target: Target,
        seconds_per_element: f64,
    }

    impl CostModel for FlatRate {
        fn target(&self) -> Target {
            self.target
        }
        fn price(&self, op: CnmOp) -> Option<Cost> {
            let shape = op.shard_shape()?;
            let seconds = (shape.work * shape.inner) as f64 * self.seconds_per_element;
            Some(Cost {
                seconds,
                joules: seconds,
            })
        }
    }

    #[test]
    fn all_subgranule_shards_collapse_onto_the_fastest_device_not_the_last() {
        // An op under two granules is not split: all of it lands on the
        // *fastest* of three near-equal devices (here the middle one), and
        // on exactly equal prices on the earliest in planning order.
        let flat = |rates: [f64; 3]| {
            let mut p = ShardPlanner::new();
            for (target, seconds_per_element) in Target::ALL.into_iter().zip(rates) {
                p.register_model(Box::new(FlatRate {
                    target,
                    seconds_per_element,
                }));
            }
            p.plan_op(gemm(2 * GRANULE - 1, 1, 1)).unwrap()
        };
        let plan = flat([1.01e-6, 1.0e-6, 1.02e-6]);
        assert_eq!(plan.split, ShardSplit::all_cim(31), "{plan:?}");
        assert_eq!(plan.fallback, Some(Target::Cim), "{plan:?}");
        let plan = flat([1.0e-6; 3]);
        assert_eq!(plan.split, ShardSplit::all_cnm(31), "{plan:?}");
        assert_eq!(plan.fallback, Some(Target::Cnm), "{plan:?}");
    }

    #[test]
    fn auto_plans_use_multiple_devices_and_cover_all_work() {
        let p = planner();
        let plan = p.plan_op(gemm(4096, 256, 128)).unwrap();
        assert_eq!(plan.split.total(), 4096);
        assert!(plan.is_sharded(), "{plan:?}");
        assert!(plan.fallback.is_none());
        assert!((plan.fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Shards are whole granules (the remainder lands on one device).
        let granule_sized = [plan.split.cnm, plan.split.cim, plan.split.host]
            .iter()
            .filter(|&&w| w > 0 && w % GRANULE == 0)
            .count();
        assert!(granule_sized >= 1, "{plan:?}");
    }

    #[test]
    fn devices_estimating_none_get_zero_work() {
        // The crossbar backend cannot execute element-wise ops: its model
        // returns None and the plan must give it nothing.
        let plan = planner().plan_op(add(1 << 21)).unwrap();
        assert_eq!(plan.split.cim, 0);
        assert_eq!(plan.split.total(), 1 << 21);
        assert!(plan.split.cnm > 0, "{plan:?}");
    }

    #[test]
    fn zero_work_ops_plan_to_empty_splits() {
        let plan = planner().plan_op(gemm(0, 0, 0)).unwrap();
        assert_eq!(plan.split, ShardSplit::default());
        assert_eq!(plan.fractions, [0.0; 3]);
        assert!(plan.fallback.is_none());
        assert!(!plan.is_sharded());
        // Infeasible forced policies are rejected even with nothing to
        // apportion.
        assert!(matches!(
            planner()
                .with_policy(ShardPolicy::Fractions([0.8, 0.0, 0.1]))
                .plan_op(gemm(0, 0, 0)),
            Err(ShardError::FractionSum { .. })
        ));
        assert!(matches!(
            planner()
                .with_policy(ShardPolicy::Single(Target::Cim))
                .plan_op(reduce(0)),
            Err(ShardError::Unsupported { .. })
        ));
    }

    #[test]
    fn cached_planner_memoizes_and_invalidates_on_reconfiguration() {
        let mut cached = CachedShardPlanner::with_default_models(4);
        let op = gemm(4096, 256, 128);
        let fresh = planner().plan_op(op).unwrap();
        let first = cached.plan_op(op).unwrap().clone();
        assert_eq!(first, fresh);
        // Second identical request is a hit and returns the same plan.
        let second = cached.plan_op(op).unwrap().clone();
        assert_eq!(second, fresh);
        assert_eq!(cached.cache_stats(), (1, 1));
        assert_eq!(cached.cached_plans(), 1);
        // A different shape is a distinct entry, and the first still hits.
        cached.plan_op(gemm(128, 64, 64)).unwrap();
        assert_eq!(cached.plan_op(op).unwrap(), &fresh);
        assert_eq!((cached.cache_stats(), cached.cached_plans()), ((2, 2), 2));
        // Policy changes invalidate: the new plan reflects the new policy.
        cached.set_policy(ShardPolicy::Single(Target::Host));
        assert_eq!(cached.cached_plans(), 0);
        let host_only = cached.plan_op(op).unwrap();
        assert_eq!(host_only.split, ShardSplit::all_host(4096));
        // Registering a model invalidates too.
        cached.register_model(Box::new(FlatRate {
            target: Target::Cnm,
            seconds_per_element: 1e-9,
        }));
        assert_eq!(cached.cached_plans(), 0);
        // Errors are propagated and never cached.
        cached.set_policy(ShardPolicy::Fractions([0.5, 0.2, 0.2]));
        assert!(cached.plan_op(op).is_err());
        assert_eq!(cached.cached_plans(), 0);
    }

    #[test]
    fn shard_policy_cli_grammar_round_trips() {
        for (value, policy) in [
            ("auto", ShardPolicy::Auto),
            ("min-energy", ShardPolicy::MinimizeEnergy),
            ("cnm-only", ShardPolicy::Single(Target::Cnm)),
            ("cim-only", ShardPolicy::Single(Target::Cim)),
            ("host-only", ShardPolicy::Single(Target::Host)),
        ] {
            assert_eq!(ShardPolicy::parse_cli(value, None).unwrap(), policy);
        }
        assert_eq!(
            ShardPolicy::parse_cli("fractions", Some("0.5, 0.25,0.25")).unwrap(),
            ShardPolicy::Fractions([0.5, 0.25, 0.25])
        );
        // Unparseable tokens are reported, not silently dropped.
        let err = ShardPolicy::parse_cli("fractions", Some("0.5,abc,0.5")).unwrap_err();
        assert!(err.contains("'abc'"), "{err}");
        assert!(ShardPolicy::parse_cli("fractions", Some("0.5,0.5")).is_err());
        assert!(ShardPolicy::parse_cli("fractions", None).is_err());
        assert!(ShardPolicy::parse_cli("bogus", None).is_err());
        // Only CIM-placing policies restrict the op set.
        assert!(ShardPolicy::Single(Target::Cim).requires_cim());
        assert!(ShardPolicy::Fractions([0.5, 0.25, 0.25]).requires_cim());
        assert!(!ShardPolicy::Fractions([0.5, 0.0, 0.5]).requires_cim());
        assert!(!ShardPolicy::Auto.requires_cim());
        assert!(!ShardPolicy::MinimizeEnergy.requires_cim());
        assert!(!ShardPolicy::Single(Target::Cnm).requires_cim());
    }

    #[test]
    fn min_energy_plans_never_exceed_makespan_plan_joules() {
        // The energy policy's contract over a grid of ops and shapes: the
        // MinimizeEnergy plan's estimated joules are ≤ the
        // makespan-optimal (Auto) plan's joules on the same estimates.
        let auto = planner();
        let energy = planner().with_policy(ShardPolicy::MinimizeEnergy);
        let histogram = CnmOp::Histogram {
            bins: 256,
            max_value: 0,
            len: 1 << 20,
        };
        let ops = [
            gemv(4096, 1024),
            gemv(256, 256),
            gemm(4096, 256, 128),
            gemm(64, 64, 64),
            add(1 << 21),
            add(1 << 12),
            reduce(1 << 20),
            histogram,
        ];
        for op in ops {
            let auto_plan = auto.plan_op(op).unwrap();
            let energy_plan = energy.plan_op(op).unwrap();
            assert_eq!(energy_plan.split.total(), op.work());
            assert!(
                !energy_plan.is_sharded(),
                "energy placement is single-device by construction: {energy_plan:?}"
            );
            let (e, a) = (
                energy_plan.total_estimated_joules(),
                auto_plan.total_estimated_joules(),
            );
            assert!(e > 0.0, "{op:?}: energy plan must carry a joule estimate");
            assert!(
                e <= a * (1.0 + 1e-9),
                "{op:?}: min-energy {e} J must not exceed auto {a} J"
            );
        }
    }

    #[test]
    fn energy_estimates_exist_for_every_supporting_device() {
        // Every price carries seconds and joules, both positive.
        let p = planner();
        for op in [
            gemm(1024, 256, 128),
            gemv(4096, 1024),
            add(1 << 16),
            reduce(1 << 16),
        ] {
            for target in Target::ALL {
                if let Some(c) = p.estimate(target, op) {
                    assert!(
                        c.seconds > 0.0 && c.joules > 0.0,
                        "{op:?} on {target}: {c:?}"
                    );
                }
            }
        }
    }

    /// A cost model logging the (device, work) of every price it answers.
    struct Counting(Box<dyn CostModel>, Arc<Mutex<Vec<(Target, usize)>>>);

    impl CostModel for Counting {
        fn target(&self) -> Target {
            self.0.target()
        }
        fn price(&self, op: CnmOp) -> Option<Cost> {
            self.1.lock().unwrap().push((self.0.target(), op.work()));
            self.0.price(op)
        }
    }

    #[test]
    fn an_auto_plan_prices_each_device_and_shard_size_once() {
        // The search and the plan's shard estimates read each (device,
        // shard size) price once: 69 prices for this op over three devices.
        let (priced, op) = (Arc::new(Mutex::new(Vec::new())), gemm(4096, 256, 128));
        let mut p = ShardPlanner::new();
        for model in planner().models {
            p.register_model(Box::new(Counting(model, priced.clone())));
        }
        let plan = p.plan_op(op).unwrap();
        assert_eq!(plan, planner().plan_op(op).unwrap());
        assert!(plan.is_sharded(), "{plan:?}");
        let mut priced = priced.lock().unwrap().clone();
        let count = priced.len();
        priced.sort();
        priced.dedup();
        assert_eq!(priced.len(), count, "a (device, work) was priced twice");
        assert_eq!(count, 69);
    }

    #[test]
    fn ops_under_the_granularity_fall_back_to_one_device() {
        let p = planner();
        let work = GRANULE * 2 - 1;
        let plan = p.plan_op(gemm(work, 64, 64)).unwrap();
        assert!(!plan.is_sharded());
        assert!(plan.fallback.is_some(), "{plan:?}");
        assert_eq!(plan.split.total(), work);
    }

    #[test]
    fn small_streaming_ops_collapse_onto_the_cheapest_device() {
        // At tiny sizes the grid's fixed transfer latencies dominate: even
        // one granule on the CNM grid outlasts the host's whole op.
        let plan = planner().plan_op(add(1 << 12)).unwrap();
        assert_eq!(plan.split.cnm, 0, "{plan:?}");
        assert_eq!(plan.split.host, 1 << 12);
    }

    #[test]
    fn forced_fractions_must_sum_to_one() {
        let p = planner().with_policy(ShardPolicy::Fractions([0.6, 0.3, 0.3]));
        match p.plan_op(gemm(100, 64, 64)) {
            Err(ShardError::FractionSum { sum }) => assert!((sum - 1.2).abs() < 1e-9),
            other => panic!("expected FractionSum, got {other:?}"),
        }
        let ok = planner()
            .with_policy(ShardPolicy::Fractions([0.5, 0.25, 0.25]))
            .plan_op(gemm(100, 64, 64))
            .unwrap();
        assert_eq!(ok.split.total(), 100);
        assert_eq!(ok.split.cnm, 50);
    }

    #[test]
    fn forced_cim_work_on_unsupported_ops_is_an_error() {
        let p = planner().with_policy(ShardPolicy::Fractions([0.5, 0.25, 0.25]));
        assert!(matches!(
            p.plan_op(add(100)),
            Err(ShardError::Unsupported { .. })
        ));
        let single = planner().with_policy(ShardPolicy::Single(Target::Cim));
        assert!(matches!(
            single.plan_op(reduce(100)),
            Err(ShardError::Unsupported { .. })
        ));
        // Ops no model prices cannot be forced onto the grid either.
        let cnm = planner().with_policy(ShardPolicy::Single(Target::Cnm));
        for op in [
            CnmOp::Select {
                threshold: 0,
                len: 100,
            },
            CnmOp::TimeSeries {
                window: 4,
                len: 100,
            },
        ] {
            assert!(
                matches!(
                    cnm.plan_op(op),
                    Err(ShardError::Unsupported {
                        device: Target::Cnm,
                        ..
                    })
                ),
                "{op:?}"
            );
        }
        // Single-target CNM/host placements of supported ops are fine.
        for target in [Target::Cnm, Target::Host] {
            let plan = planner()
                .with_policy(ShardPolicy::Single(target))
                .plan_op(reduce(100))
                .unwrap();
            assert_eq!(plan.fallback, Some(target));
            assert_eq!(plan.split.total(), 100);
        }
    }

    /// An op no model prices stays on the host, the catch-all target.
    #[test]
    fn unknown_ops_stay_on_the_host() {
        let select = CnmOp::Select {
            threshold: 0,
            len: 4096,
        };
        for policy in [ShardPolicy::Auto, ShardPolicy::MinimizeEnergy] {
            let plan = planner().with_policy(policy).plan_op(select).unwrap();
            assert_eq!(plan.split, ShardSplit::all_host(4096), "{policy:?}");
            assert_eq!(plan.fallback, Some(Target::Host), "{policy:?}");
            assert_eq!(plan.estimated_seconds, [0.0; 3], "{policy:?}");
        }
    }

    /// A broken cost model answering every estimate with one fixed value.
    struct Broken(Target, f64);

    impl CostModel for Broken {
        fn target(&self) -> Target {
            self.0
        }
        fn price(&self, _op: CnmOp) -> Option<Cost> {
            Some(Cost {
                seconds: self.1,
                joules: self.1,
            })
        }
    }

    #[test]
    fn estimates_that_are_not_finite_and_non_negative_count_as_none() {
        // A second CNM model returning NaN (or a negative or infinite
        // value) beside the defaults changes no plan under any policy.
        let ops = [
            gemm(4096, 256, 128),
            gemv(4096, 1024),
            add(1 << 21),
            reduce(100),
        ];
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            for policy in [
                ShardPolicy::Auto,
                ShardPolicy::MinimizeEnergy,
                ShardPolicy::Single(Target::Cnm),
                ShardPolicy::Fractions([0.5, 0.0, 0.5]),
            ] {
                let reference = planner().with_policy(policy);
                let mut broken = planner().with_policy(policy);
                broken.register_model(Box::new(Broken(Target::Cnm, bad)));
                for op in ops {
                    assert_eq!(
                        broken.plan_op(op),
                        reference.plan_op(op),
                        "{bad} under {policy:?}: {op:?}"
                    );
                }
            }
            // As the only model of its device, a broken model must not make
            // that device the fastest.
            let mut p = ShardPlanner::new();
            p.register_model(Box::new(Broken(Target::Cnm, bad)));
            p.register_model(Box::new(HostCostModel::new(CpuModel::arm_host())));
            let plan = p.plan_op(gemm(8, 8, 8)).unwrap();
            assert_eq!(plan.split, ShardSplit::all_host(8), "{bad}");
            assert_eq!(plan.fallback, Some(Target::Host), "{bad}");
        }
    }

    fn shard_est(m: &dyn CostModel, op: CnmOp) -> Option<f64> {
        Some(m.price(op)?.seconds)
    }

    #[test]
    fn estimates_scale_with_problem_size_and_rank_count() {
        let small = CnmCostModel::new(UpmemConfig::with_ranks(4));
        let big = CnmCostModel::new(UpmemConfig::with_ranks(16));
        let long = add(1 << 22);
        let t_small = shard_est(&small, long).unwrap();
        let t_big = shard_est(&big, long).unwrap();
        assert!(t_big < t_small, "more ranks must be faster");
        let host = HostCostModel::new(CpuModel::arm_host());
        let (tall, short) = (gemm(4096, 64, 64), gemm(64, 64, 64));
        assert!(shard_est(&host, tall).unwrap() > shard_est(&host, short).unwrap());
        let cim = CimCostModel::new(CrossbarConfig::default());
        assert!(shard_est(&cim, gemm(1024, 256, 128)).is_some());
        assert!(shard_est(&cim, long).is_none());
    }

    #[test]
    fn cnm_broadcast_cost_is_shard_size_independent() {
        // The stationary-operand broadcast must appear as a *fixed* cost:
        // halving the shard must less-than-halve the estimate.
        let m = CnmCostModel::new(UpmemConfig::with_ranks(16));
        let full = shard_est(&m, gemm(1024, 256, 128)).unwrap();
        let half = shard_est(&m, gemm(512, 256, 128)).unwrap();
        assert!(half > full / 2.0, "full {full} half {half}");
    }

    #[test]
    fn bench_scale_mv_auto_plan_balances_on_calibrated_estimates() {
        // ROADMAP item: the first-order CnmCostModel used to underestimate
        // per-DPU DMA inefficiency for matmul-like ops at low rows/DPU, so
        // auto plans had to be validated against measured single-device
        // times. With every price the simulator's bill, the bench-scale `mv`
        // plan stands on its own estimates: it genuinely shards, and the
        // estimated completion times of the active devices balance to
        // within a factor of two.
        let plan = planner().plan_op(gemv(4096, 1024)).unwrap(); // 4 ranks
        assert!(plan.is_sharded(), "{plan:?}");
        let active: Vec<f64> = plan
            .estimated_seconds
            .iter()
            .zip([plan.split.cnm, plan.split.cim, plan.split.host])
            .filter(|&(_, w)| w > 0)
            .map(|(&t, _)| t)
            .collect();
        assert!(active.len() >= 2, "{plan:?}");
        let (min, max) = active.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| {
            (lo.min(t), hi.max(t))
        });
        assert!(
            max / min < 2.0,
            "active-device estimates must balance: {active:?} ({plan:?})"
        );
    }

    #[test]
    fn planners_can_be_assembled_from_a_device_set() {
        use cinm_lowering::{CimRunOptions, UpmemRunOptions};
        // A planner registered from Device::cost hookups plans exactly like
        // one built from the hard-coded default models.
        let reference = planner();
        let mut from_devices = ShardPlanner::new();
        let upmem = cinm_lowering::UpmemDevice::new(cinm_lowering::UpmemBackend::new(
            4,
            UpmemRunOptions::optimized(),
        ));
        let cim = cinm_lowering::CimDevice::new(cinm_lowering::CimBackend::new(
            CimRunOptions::optimized(),
        ));
        let host = cinm_lowering::HostDevice::new(CpuModel::arm_host());
        from_devices.register_device(&upmem);
        from_devices.register_device(&cim);
        from_devices.register_device(&host);
        for op in [gemm(4096, 256, 128), gemm(64, 64, 64), add(1 << 21)] {
            assert_eq!(
                from_devices.plan_op(op).unwrap(),
                reference.plan_op(op).unwrap(),
                "{op:?}"
            );
        }
    }
}
