//! Single-target selection (paper Sections 3.2.2, 3.3).
//!
//! The `cinm` abstraction delegates each kernel to a suitable device — or,
//! since the sharded execution layer, to **several at once**. Both policies
//! ask one [`ShardPlanner`] over the same [`CostModel`] registry (the
//! [`Target`] enum and the cost-model trait live with the devices in
//! `cinm_lowering::device`; this module re-exports them):
//!
//! * **Single-target selection** ([`TargetSelector`], this module): each op
//!   goes to exactly one device. With registered cost models, the selector
//!   decodes the op's [`CnmOp`] ([`CnmOp::from_cinm`]) and returns
//!   the device the planner estimates fastest — the rule the planner's own
//!   single-device fallback uses. For ops no model prices (and with no
//!   models at all) the greedy default policy of the paper applies —
//!   matmul-like operations whose dimensions exceed a threshold go to the
//!   CIM crossbar, every other operation in the `cinm` op set goes to UPMEM,
//!   and anything that cannot be expressed in the Table 1 op set stays on
//!   the host.
//! * **Sharded placement** ([`ShardPlanner`]): one op is split into
//!   per-device shards (GEMM/GEMV by output rows, element-wise/reduce/
//!   histogram by elements), sized so all devices are predicted to finish
//!   simultaneously; see [`crate::shard`].

use std::collections::BTreeMap;

use cinm_dialects::cinm;
use cinm_ir::prelude::*;
use cinm_lowering::cnm_op::CnmOp;

pub use cinm_lowering::device::{CostModel, Target};

use crate::shard::ShardPlanner;

/// Registry of cost models plus the greedy fallback policy.
#[derive(Debug, Default)]
pub struct TargetSelector {
    planner: ShardPlanner,
    /// Minimum matmul-like operand elements for greedy CIM offload.
    pub cim_threshold_elements: i64,
    /// Optional user override (the "command line" option of the paper).
    pub user_override: Option<Target>,
}

impl TargetSelector {
    /// Creates a selector with the default threshold (a 64×64 operand).
    pub fn new() -> Self {
        TargetSelector {
            planner: ShardPlanner::new(),
            cim_threshold_elements: 64 * 64,
            user_override: None,
        }
    }

    /// Registers a device cost model.
    pub fn register_model(&mut self, model: Box<dyn CostModel>) {
        self.planner.register_model(model);
    }

    /// Number of registered cost models.
    pub fn num_models(&self) -> usize {
        self.planner.num_models()
    }

    /// Selects a target for one `cinm` operation.
    pub fn select_for_op(&self, body: &Body, op: OpId) -> Target {
        if let Some(t) = self.user_override {
            return t;
        }
        // Registered cost models take precedence: the planner's fastest
        // estimate for the op.
        if let Some(target) = CnmOp::from_cinm(body, op).and_then(|op| self.planner.fastest(op)) {
            return target;
        }
        // Greedy default policy, on the op's largest operand.
        let operation = body.op(op);
        let elements = |v: &ValueId| body.value_type(*v).num_elements();
        let elements = operation.operands.iter().map(elements).max().unwrap_or(0);
        match cinm::paradigm_support(&operation.name) {
            Some(support) => {
                let matmul_like = operation.name == cinm::GEMM || operation.name == cinm::GEMV;
                if matmul_like && support.cim && elements >= self.cim_threshold_elements {
                    Target::Cim
                } else if support.cnm {
                    Target::Cnm
                } else if support.cim {
                    Target::Cim
                } else {
                    Target::Host
                }
            }
            None => Target::Host,
        }
    }

    /// Selects targets for every `cinm` op of a function and returns the
    /// per-target op counts (the kernel/region partitioning summary).
    pub fn select_for_func(&self, func: &Func) -> BTreeMap<Target, usize> {
        let mut counts = BTreeMap::new();
        for op in func.body.walk() {
            if func.body.op(op).dialect() != "cinm" {
                continue;
            }
            let t = self.select_for_op(&func.body, op);
            *counts.entry(t).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinm_dialects::cinm as cinm_ops;
    use cinm_workloads::{build_func, Scale, WorkloadId};
    use cpu_sim::model::CpuModel;
    use memristor_sim::CrossbarConfig;
    use upmem_sim::UpmemConfig;

    use crate::shard::{CimCostModel, CnmCostModel, HostCostModel};
    use cinm_lowering::Cost;

    struct AlwaysCheapCnm;

    impl CostModel for AlwaysCheapCnm {
        fn target(&self) -> Target {
            Target::Cnm
        }
        fn price(&self, _op: CnmOp) -> Option<Cost> {
            Some(Cost {
                seconds: 1e-9,
                joules: 1e-9,
            })
        }
    }

    fn gemm_func(dim: i64) -> Func {
        let t = Type::tensor(&[dim, dim], ScalarType::I32);
        let mut f = Func::new("g", vec![t, t], vec![t]);
        let args = f.arguments();
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        cinm_ops::gemm(&mut b, args[0], args[1]);
        f
    }

    #[test]
    fn large_gemms_go_to_cim_small_ones_to_cnm() {
        let selector = TargetSelector::new();
        let big = gemm_func(128);
        let small = gemm_func(16);
        let big_op = big.body.ops_with_name(cinm_ops::GEMM)[0];
        let small_op = small.body.ops_with_name(cinm_ops::GEMM)[0];
        assert_eq!(selector.select_for_op(&big.body, big_op), Target::Cim);
        assert_eq!(selector.select_for_op(&small.body, small_op), Target::Cnm);
    }

    #[test]
    fn cnm_only_and_cim_only_ops_respect_the_support_matrix() {
        let t = Type::tensor(&[1024], ScalarType::I32);
        let mut f = Func::new("x", vec![t], vec![]);
        let a = f.argument(0);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let h = cinm_ops::histogram(&mut b, a, 64, 256);
        let _ = cinm_ops::pop_count(&mut b, h);
        let selector = TargetSelector::new();
        let hist = f.body.ops_with_name(cinm_ops::HISTOGRAM)[0];
        let pc = f.body.ops_with_name(cinm_ops::POP_COUNT)[0];
        assert_eq!(selector.select_for_op(&f.body, hist), Target::Cnm);
        assert_eq!(selector.select_for_op(&f.body, pc), Target::Cim);
    }

    #[test]
    fn user_override_and_cost_models_take_precedence() {
        let mut selector = TargetSelector::new();
        let f = gemm_func(256);
        let op = f.body.ops_with_name(cinm_ops::GEMM)[0];
        // Registered model wins over the greedy policy.
        selector.register_model(Box::new(AlwaysCheapCnm));
        assert_eq!(selector.num_models(), 1);
        assert_eq!(selector.select_for_op(&f.body, op), Target::Cnm);
        // Explicit user choice wins over everything.
        selector.user_override = Some(Target::Host);
        assert_eq!(selector.select_for_op(&f.body, op), Target::Host);
    }

    #[test]
    fn func_level_summary_counts_cinm_ops() {
        let selector = TargetSelector::new();
        let f = gemm_func(128);
        let counts = selector.select_for_func(&f);
        assert_eq!(counts.get(&Target::Cim), Some(&1));
        assert_eq!(counts.values().sum::<usize>(), 1);
    }

    #[test]
    fn selection_with_models_picks_the_planners_fastest_device() {
        // With the three default models, every cinm op of every workload
        // goes to the device whose model estimates its real shape fastest;
        // ops no model prices keep the greedy choice.
        let models = || -> [Box<dyn CostModel>; 3] {
            [
                Box::new(CnmCostModel::new(UpmemConfig::with_ranks(4))),
                Box::new(CimCostModel::new(CrossbarConfig::default())),
                Box::new(HostCostModel::new(CpuModel::arm_host())),
            ]
        };
        let mut selector = TargetSelector::new();
        for model in models() {
            selector.register_model(model);
        }
        let oracle = models();
        let greedy = TargetSelector::new();
        let mut priced = 0;
        for id in WorkloadId::all() {
            let mut module = Module::new("m");
            module.add_func(build_func(id, Scale::Test));
            crate::compile(&mut module, &crate::cinm_pipeline()).unwrap();
            let body = &module.funcs[0].body;
            for op in body.walk() {
                let operation = body.op(op);
                if operation.dialect() != "cinm" {
                    continue;
                }
                let fastest = CnmOp::from_cinm(body, op).and_then(|op| {
                    oracle
                        .iter()
                        .filter_map(|m| Some((m.target(), m.price(op)?.seconds)))
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .map(|(t, _)| t)
                });
                let chosen = selector.select_for_op(body, op);
                match fastest {
                    Some(t) => {
                        priced += 1;
                        assert_eq!(chosen, t, "{id:?}: {}", operation.name);
                    }
                    None => assert_eq!(chosen, greedy.select_for_op(body, op)),
                }
            }
        }
        assert!(priced > 0, "some workload op must be priced");
    }
}
