//! The shard planner: cost-model-driven work splitting across devices.
//!
//! Where [`crate::target::TargetSelector`] places each `cinm` op on exactly
//! one device, [`ShardPlanner`] splits **one** op across all of them: it
//! asks the registered [`CostModel`]s for per-device time estimates and
//! produces a [`ShardPlan`] whose per-device shard sizes balance the
//! estimated completion times (the ROADMAP's "heterogeneous serving" item;
//! TDO-CIM's runtime kernel-slice offloading and CIM-MLC's multi-tier
//! scheduling are the CIM-only precedents).
//!
//! ## The balancing rule
//!
//! Every supported shardable op costs time (near-)linearly in its sharded
//! work dimension (GEMM/GEMV rows, element-wise/reduce/histogram elements),
//! plus a fixed per-device overhead that does *not* shrink with the shard —
//! broadcasting the stationary GEMM operand to every DPU, programming
//! crossbar tiles, bulk-transfer driver latency. The planner recovers both
//! terms by pricing the op on each device ([`CostModel::price`]) at the full
//! and at half the shard size, fitting the affine cost
//! `t_i(w) = a_i + b_i·w`, and then **water-fills**: the balanced makespan
//! over the active device set `S` is
//!
//! ```text
//! T = (W + Σ_{i∈S} a_i/b_i) / (Σ_{i∈S} 1/b_i),    w_i = (T - a_i) / b_i
//! ```
//!
//! and any device whose fixed overhead alone exceeds `T` (`a_i ≥ T`) is
//! dropped from `S` and the makespan recomputed — so small ops naturally
//! collapse onto the single cheapest device instead of paying three setup
//! costs. Devices estimating `None` (e.g. the MVM-only crossbar on an
//! element-wise op) are never in `S`. Final shard sizes are rounded to
//! whole multiples of [`ShardPlanner::granularity`] work units, a shard
//! smaller than one granule is folded away, and the rounding remainder goes
//! to the device with the largest shard.
//!
//! ## Single-target fallback
//!
//! The planner falls back to placing **all** work on the fastest supporting
//! device (recorded in [`ShardPlan::fallback`]) when sharding cannot help:
//!
//! * the op has fewer than two granules of work
//!   (`work < 2 × granularity`), or
//! * only one device supports the op, or
//! * water-filling drops every other device (their fixed overheads exceed
//!   the balanced makespan), or
//! * the policy forces a single target ([`ShardPolicy::Single`]).
//!
//! Zero-work ops produce an all-empty plan with no fallback. User-forced
//! fractions that do not sum to 1 are an **error** ([`ShardError`]), never
//! silently renormalised, and so is forcing work onto an accelerator whose
//! model does not price the op.
//!
//! The planner has one entry, [`ShardPlanner::plan_op`] (memoized by
//! [`CachedShardPlanner::plan_op`]): it plans one typed [`CnmOp`] and prices
//! it once per (device, shard size). The entries `benchmark/` still calls by
//! `cinm` name and [`ShardShape`] live in the crate's private `pinned` module.

use std::collections::HashMap;

use cinm_lowering::cnm_op::CnmOp;
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
    /// Balance estimated completion times across all supporting devices.
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

/// Plans work splits across `Cnm`, `Cim` and `Host` from registered
/// [`CostModel`] estimates (see the module docs for the balancing rule and
/// the fallback conditions).
pub struct ShardPlanner {
    models: Vec<Box<dyn CostModel>>,
    /// Minimum shard size in work units; shards are whole multiples of this
    /// granule and ops under two granules are not sharded at all.
    pub granularity: usize,
    /// The assignment policy.
    pub policy: ShardPolicy,
}

impl std::fmt::Debug for ShardPlanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPlanner")
            .field("models", &self.models.len())
            .field("granularity", &self.granularity)
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
    /// default granularity of 16 work units and the `Auto` policy.
    pub fn new() -> Self {
        ShardPlanner {
            models: Vec::new(),
            granularity: 16,
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

    /// Full-shard prices of every target, in `[cnm, cim, host]` order.
    fn estimates(&self, op: CnmOp) -> [Option<Cost>; 3] {
        Target::ALL.map(|target| self.estimate(target, op))
    }

    /// The device with the fastest full-shard estimate for the op, or `None`
    /// when no registered model prices it — the single-target choice of the
    /// `Auto` policy, and what [`crate::target::TargetSelector`] selects.
    pub(crate) fn fastest(&self, op: CnmOp) -> Option<Target> {
        fastest_of(&self.estimates(op))
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
        let estimates = self.estimates(op);
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
            ShardPolicy::Auto => self.plan_auto(op, &estimates),
            ShardPolicy::MinimizeEnergy => Self::plan_min_energy(work, &estimates),
        };
        Ok(self.finish(op, split, fallback, &estimates))
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

    /// Fits the affine cost `t_i(w) = fixed + per_unit · w` (seconds over
    /// work units) of one device from its full-shard price `full` and a
    /// price at half the shard size.
    fn affine_estimate(&self, target: Target, op: CnmOp, full: Cost) -> AffineCost {
        let work = op.work();
        let t_full = full.seconds;
        let half = work / 2;
        let t_half = if half > 0 {
            self.estimate(target, op.with_work(half))
                .map_or(t_full / 2.0, |c| c.seconds)
        } else {
            t_full / 2.0
        };
        let per_unit = if work > half {
            ((t_full - t_half) / (work - half) as f64).max(1e-15)
        } else {
            1e-15
        };
        let fixed = (t_full - per_unit * work as f64).max(0.0);
        AffineCost { fixed, per_unit }
    }

    /// The `Auto` policy: balance estimated completion times with affine
    /// per-device costs (water-filling; see the module docs).
    fn plan_auto(&self, op: CnmOp, estimates: &[Option<Cost>; 3]) -> (ShardSplit, Option<Target>) {
        let (work, granularity) = (op.work(), self.granularity.max(1));
        // No model supports the op: everything stays on the host (the
        // paper's catch-all for ops outside the offloadable set).
        let Some(fastest) = fastest_of(estimates) else {
            return (ShardSplit::all_host(work), Some(Target::Host));
        };
        // Candidate devices: those with a model-backed estimate.
        let candidates: Vec<(Target, Cost)> = Target::ALL
            .into_iter()
            .zip(estimates)
            .filter_map(|(target, c)| Some((target, (*c)?)))
            .collect();
        // Too small to shard, or nothing to share it with.
        if work < 2 * granularity || candidates.len() == 1 {
            return (all_on(fastest, work), Some(fastest));
        }
        // Water-fill over affine costs: drop every device whose fixed
        // overhead exceeds the balanced makespan of the remaining set.
        let mut active: Vec<(usize, AffineCost)> = candidates
            .iter()
            .map(|&(target, full)| (target.index(), self.affine_estimate(target, op, full)))
            .collect();
        let makespan = loop {
            let inv_sum: f64 = active.iter().map(|(_, a)| 1.0 / a.per_unit).sum();
            let fixed_sum: f64 = active.iter().map(|(_, a)| a.fixed / a.per_unit).sum();
            let t = (work as f64 + fixed_sum) / inv_sum;
            if active.len() > 1 {
                // Remove the device with the largest fixed overhead if that
                // overhead alone exceeds the balanced makespan.
                let (worst_pos, worst) = active
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1 .1.fixed.total_cmp(&b.1 .1.fixed))
                    .map(|(p, &(_, a))| (p, a))
                    .unwrap();
                if worst.fixed >= t {
                    active.remove(worst_pos);
                    continue;
                }
            }
            break t;
        };
        let mut units = [0usize; 3];
        let mut assigned = 0usize;
        for &(i, a) in &active {
            let w = ((makespan - a.fixed) / a.per_unit).max(0.0);
            let granules = (w / granularity as f64).floor() as usize;
            units[i] = (granules * granularity).min(work);
            assigned += units[i];
        }
        // Sub-granule shards fold away.
        for u in units.iter_mut() {
            if *u < granularity {
                assigned -= *u;
                *u = 0;
            }
        }
        // Guard against over-assignment from independent rounding.
        if assigned > work {
            let over = assigned - work;
            for &(i, _) in active.iter().rev() {
                let take = over.min(units[i]);
                units[i] -= take;
                assigned -= take;
                if assigned <= work {
                    break;
                }
            }
        }
        // The rounding remainder goes to the active device with the largest
        // shard (the one best equipped to absorb extra work); units ties —
        // in particular the all-folded case where every balanced shard was
        // sub-granule — resolve to the device with the smallest estimate,
        // not to whichever device happens to iterate last.
        let remainder_to = active
            .iter()
            .map(|&(i, _)| i)
            .max_by(|&a, &b| {
                units[a].cmp(&units[b]).then_with(|| {
                    let seconds = |i: usize| estimates[i].map_or(f64::INFINITY, |c| c.seconds);
                    let (ta, tb) = (seconds(a), seconds(b));
                    tb.total_cmp(&ta)
                })
            })
            .unwrap_or(fastest.index());
        units[remainder_to] += work - assigned;
        debug_assert_eq!(units.iter().sum::<usize>(), work);
        let split = ShardSplit {
            cnm: units[0],
            cim: units[1],
            host: units[2],
        };
        let fallback = if Self::split_device_count(&split) > 1 {
            None
        } else {
            Some(
                units
                    .iter()
                    .position(|&u| u > 0)
                    .map_or(fastest, |i| Target::ALL[i]),
            )
        };
        (split, fallback)
    }

    /// The plan of a split: the estimates of every device's shard (a shard
    /// of the whole work reuses its full-shard price).
    fn finish(
        &self,
        op: CnmOp,
        split: ShardSplit,
        fallback: Option<Target>,
        estimates: &[Option<Cost>; 3],
    ) -> ShardPlan {
        let work = op.work();
        let mut estimated_seconds = [0.0f64; 3];
        let mut estimated_joules = [0.0f64; 3];
        for target in Target::ALL {
            let (i, w) = (target.index(), split.get(target));
            let cost = match w {
                0 => None,
                _ if w == work => estimates[i],
                _ => self.estimate(target, op.with_work(w)),
            };
            if let Some(c) = cost {
                estimated_seconds[i] = c.seconds;
                estimated_joules[i] = c.joules;
            }
        }
        ShardPlan {
            work,
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
/// Re-planning the same op is pure repeated work — the planner prices it on
/// every device twice and water-fills — yet exactly that happens in any
/// serving loop issuing same-shaped ops. `CachedShardPlanner` caches each
/// computed [`ShardPlan`] keyed by the [`CnmOp`] itself (shape and value
/// parameters: histograms of different bin counts are different plans);
/// lookups are allocation-free. The policy and the registered device set are
/// fixed per wrapped planner — together with the op they fully determine
/// the plan — so they are invalidation events, not key fields.
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
    cache: HashMap<CnmOp, ShardPlan>,
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
        if self.cache.contains_key(&op) {
            self.hits += 1;
        } else {
            let plan = self.planner.plan_op(op)?;
            self.misses += 1;
            self.cache.insert(op, plan);
        }
        Ok(&self.cache[&op])
    }
}

/// All `work` units on one device.
fn all_on(target: Target, work: usize) -> ShardSplit {
    match target {
        Target::Cnm => ShardSplit::all_cnm(work),
        Target::Cim => ShardSplit::all_cim(work),
        Target::Host => ShardSplit::all_host(work),
    }
}

/// Affine per-device shard cost in seconds over *work units*.
#[derive(Debug, Clone, Copy)]
struct AffineCost {
    /// Fixed overhead (transfers, launch, tile programming).
    fixed: f64,
    /// Marginal seconds per work unit.
    per_unit: f64,
}

/// The device with the smallest of `estimates` (`[cnm, cim, host]`
/// seconds, clamped to 1 ps so sub-picosecond estimates tie), the earlier
/// device on ties; `None` when no device has an estimate.
fn fastest_of(estimates: &[Option<Cost>; 3]) -> Option<Target> {
    Target::ALL
        .into_iter()
        .zip(estimates)
        .filter_map(|(target, c)| c.map(|c| (target, c.seconds.max(1e-12))))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(target, _)| target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
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
        // Three near-equal devices balance ~15 units each at granularity 16:
        // every shard folds away sub-granule and the whole op must land on
        // the *fastest* device, not on whichever iterates last (host).
        let mut p = ShardPlanner::new();
        for (target, rate) in [
            (Target::Cnm, 1.0e-6),
            (Target::Cim, 1.01e-6),
            (Target::Host, 1.02e-6),
        ] {
            p.register_model(Box::new(FlatRate {
                target,
                seconds_per_element: rate,
            }));
        }
        let plan = p.plan_op(gemm(45, 1, 1)).unwrap();
        assert_eq!(plan.split.total(), 45);
        assert_eq!(plan.split.cnm, 45, "{plan:?}");
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
            .filter(|&&w| w > 0 && w % p.granularity == 0)
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

    /// A cost model counting the prices it answers.
    struct Counting(Box<dyn CostModel>, Arc<AtomicUsize>);

    impl CostModel for Counting {
        fn target(&self) -> Target {
            self.0.target()
        }
        fn price(&self, op: CnmOp) -> Option<Cost> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.price(op)
        }
    }

    #[test]
    fn an_auto_plan_prices_each_device_and_shard_size_once() {
        // Per device: the whole op, half of it (the affine fit) and its
        // planned shard unless that is the whole op: at most 9 prices.
        let (priced, op) = (Arc::new(AtomicUsize::new(0)), gemm(4096, 256, 128));
        let mut p = ShardPlanner::new();
        for model in planner().models {
            p.register_model(Box::new(Counting(model, priced.clone())));
        }
        let plan = p.plan_op(op).unwrap();
        assert_eq!(plan, planner().plan_op(op).unwrap());
        let devices = ShardPlanner::split_device_count(&plan.split);
        assert!(devices > 1, "{plan:?}");
        assert_eq!(priced.load(Ordering::Relaxed), 3 + 3 + devices);
    }

    #[test]
    fn ops_under_the_granularity_fall_back_to_one_device() {
        let p = planner();
        let work = p.granularity * 2 - 1;
        let plan = p.plan_op(gemm(work, 64, 64)).unwrap();
        assert!(!plan.is_sharded());
        assert!(plan.fallback.is_some(), "{plan:?}");
        assert_eq!(plan.split.total(), work);
    }

    #[test]
    fn small_streaming_ops_collapse_onto_the_cheapest_device() {
        // At tiny sizes the grid's fixed transfer latencies dominate: the
        // water-filling step must drop the CNM device entirely.
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
        // times. With the model calibrated against
        // `upmem_sim::kernel_launch_cost`, the bench-scale `mv` plan stands
        // on its own estimates: it genuinely shards, and the estimated
        // completion times of the active devices balance (water-filling
        // succeeded on trustworthy numbers).
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
