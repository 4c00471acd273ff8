//! Pre-assembled lowering pipelines (paper Figure 4) and compilation entry
//! points.

use cinm_dialects::register_all_dialects;
use cinm_ir::pass::PipelineStats;
use cinm_ir::prelude::*;
use cinm_lowering::{
    CimLoweringOptions, CimToMemristorPass, CinmToCimPass, CinmToCnmPass, CnmLoweringOptions,
    CnmToUpmemPass, LinalgToCinmPass, TosaToLinalgPass, UpmemLoweringOptions,
};
use upmem_sim::UpmemConfig;

/// Builds the `tosa/linalg → cinm → cnm → upmem` pipeline onto every DPU
/// of a machine of `ranks` ranks, with the machine's tasklets.
pub fn cnm_pipeline(ranks: i64, optimize_locality: bool) -> PassManager {
    let machine = UpmemConfig::with_ranks(ranks as usize);
    let tasklets = machine.tasklets as i64;
    let mut pm = PassManager::new();
    pm.add_pass(Box::new(TosaToLinalgPass));
    pm.add_pass(Box::new(LinalgToCinmPass));
    pm.add_pass(Box::new(CinmToCnmPass::new(CnmLoweringOptions {
        workgroup: vec![machine.num_dpus() as i64, tasklets],
        optimize_locality,
        wram_bytes: machine.wram_bytes,
    })));
    let upmem = UpmemLoweringOptions { ranks, tasklets };
    pm.add_pass(Box::new(CnmToUpmemPass::new(upmem)));
    pm
}

/// Builds the `tosa/linalg → cinm → cim → memristor` pipeline.
pub fn cim_pipeline(options: CimLoweringOptions) -> PassManager {
    let mut pm = PassManager::new();
    pm.add_pass(Box::new(TosaToLinalgPass));
    pm.add_pass(Box::new(LinalgToCinmPass));
    pm.add_pass(Box::new(CinmToCimPass::new(options)));
    pm.add_pass(Box::new(CimToMemristorPass));
    pm
}

/// Builds the front-end-only pipeline that stops at the `cinm` abstraction
/// (used for target selection and the Table 4 line counts).
pub fn cinm_pipeline() -> PassManager {
    let mut pm = PassManager::new();
    pm.add_pass(Box::new(TosaToLinalgPass));
    pm.add_pass(Box::new(LinalgToCinmPass));
    pm
}

/// Runs a pipeline over a module and verifies the result strictly against
/// the full dialect registry: an op no dialect table declares is an error.
///
/// # Errors
///
/// Returns the first pass or verification error.
pub fn compile(module: &mut Module, pm: &PassManager) -> IrResult<PipelineStats> {
    let stats = pm.run(module)?;
    verify_module(module, &register_all_dialects())?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinm_workloads::{build_func, Scale, WorkloadId};

    #[test]
    fn cnm_pipeline_lowers_every_idiomatic_workload() {
        for id in WorkloadId::upmem_opt_suite() {
            let mut module = Module::new(id.name());
            module.add_func(build_func(id, Scale::Test));
            let pm = cnm_pipeline(4, true);
            compile(&mut module, &pm).unwrap_or_else(|e| panic!("{}: {e}", id.name()));
            let f = &module.funcs[0];
            assert!(
                !f.body.ops_with_name("upmem.launch").is_empty(),
                "{} should contain at least one upmem.launch",
                id.name()
            );
            // Operators with no cinm counterpart (the bias-add generic and the
            // clamp of the MLP, plus the im2col data rearrangement) remain for
            // the host, exactly as described in Section 3.2.2.
            assert!(f.body.ops_in_dialect("linalg").iter().all(|&op| {
                matches!(
                    f.body.op(op).name.as_str(),
                    "linalg.im2col" | "linalg.generic" | "linalg.elemwise_unary"
                )
            }));
        }
    }

    #[test]
    fn cim_pipeline_lowers_matmul_like_workloads() {
        for id in [
            WorkloadId::Mm,
            WorkloadId::Conv,
            WorkloadId::Contrs2,
            WorkloadId::Mlp,
        ] {
            let mut module = Module::new(id.name());
            module.add_func(build_func(id, Scale::Test));
            let pm = cim_pipeline(CimLoweringOptions::optimized());
            compile(&mut module, &pm).unwrap_or_else(|e| panic!("{}: {e}", id.name()));
            let f = &module.funcs[0];
            assert!(
                !f.body.ops_with_name("memristor.gemm_tile").is_empty(),
                "{} should target the crossbar",
                id.name()
            );
            assert!(
                !f.body.ops_with_name("memristor.configure").is_empty(),
                "{} should configure the device",
                id.name()
            );
        }
    }

    #[test]
    fn pipelines_report_their_pass_order() {
        let pm = cnm_pipeline(4, false);
        let names = pm.pass_names();
        assert_eq!(
            names,
            vec![
                "convert-tosa-to-linalg",
                "convert-linalg-to-cinm",
                "convert-cinm-to-cnm",
                "convert-cnm-to-upmem"
            ]
        );
        let pm = cim_pipeline(CimLoweringOptions::default());
        assert_eq!(pm.pass_names().last(), Some(&"convert-cim-to-memristor"));
    }
}
