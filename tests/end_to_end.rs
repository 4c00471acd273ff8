//! End-to-end integration tests: every workload is lowered through the CINM
//! pipelines and executed on the simulated devices, and the results are
//! checked against the host reference implementations.

use cinm::core::runner;
use cinm::core::{cim_pipeline, cinm_pipeline, cnm_pipeline, compile, Target, TargetSelector};
use cinm::ir::prelude::*;
use cinm::lowering::{CimBackend, CimRunOptions, UpmemBackend, UpmemRunOptions};
use cinm::upmem::DpuKernelKind;
use cinm::workloads::{build_func, Scale, WorkloadId};
use cinm_lowering::CimLoweringOptions;

fn small_upmem_backend(options: UpmemRunOptions) -> UpmemBackend {
    let mut cfg = cinm::upmem::UpmemConfig::with_ranks(1);
    cfg.dpus_per_rank = 16;
    UpmemBackend::with_config(cfg, options)
}

#[test]
fn every_workload_runs_correctly_on_the_upmem_backend() {
    for id in WorkloadId::all() {
        let inp = runner::inputs(id, Scale::Test);
        let mut backend = small_upmem_backend(UpmemRunOptions::optimized());
        let got = runner::run_upmem(id, Scale::Test, &inp, &mut backend);
        let want = runner::reference(id, Scale::Test, &inp, backend.num_dpus());
        assert_eq!(got, want, "workload {}", id.name());
        assert!(backend.total_ms() > 0.0, "workload {}", id.name());
    }
}

#[test]
fn every_cim_workload_runs_correctly_on_the_crossbar_backend() {
    for id in WorkloadId::cim_suite() {
        let inp = runner::inputs(id, Scale::Test);
        let mut backend = CimBackend::new(CimRunOptions::optimized());
        let got = runner::run_cim(id, Scale::Test, &inp, &mut backend);
        let want = runner::reference(id, Scale::Test, &inp, 1);
        assert_eq!(got, want, "workload {}", id.name());
        assert!(backend.stats().xbar.mvm_ops > 0, "workload {}", id.name());
    }
}

#[test]
fn pipelines_lower_every_idiomatic_workload_to_device_dialects() {
    for id in WorkloadId::upmem_opt_suite() {
        let mut module = Module::new(id.name());
        module.add_func(build_func(id, Scale::Test));
        compile(&mut module, &cnm_pipeline(4, true)).expect("cnm pipeline");
        let f = &module.funcs[0];
        assert!(
            !f.body.ops_with_name("upmem.launch").is_empty(),
            "{}",
            id.name()
        );
        assert!(
            !f.body.ops_with_name("upmem.scatter").is_empty(),
            "{}",
            id.name()
        );
        assert!(f.body.ops_in_dialect("cinm").is_empty(), "{}", id.name());
    }
    for id in WorkloadId::cim_suite() {
        let mut module = Module::new(id.name());
        module.add_func(build_func(id, Scale::Test));
        compile(&mut module, &cim_pipeline(CimLoweringOptions::optimized())).expect("cim pipeline");
        let f = &module.funcs[0];
        assert!(
            !f.body.ops_with_name("memristor.configure").is_empty(),
            "{}",
            id.name()
        );
    }
}

/// The first place the lowered IR meets the simulator: every `upmem.launch`
/// of the upmem-route programs carries the WRAM tile, locality flag and
/// tasklets of the kernel spec `UpmemBackend` launches under the matching
/// options — the `cinm-opt` lowering with `optimized()`, the baseline
/// lowering with `default()`.
#[test]
fn every_upmem_launch_carries_the_kernel_spec_the_backend_launches() {
    let lowerings = [
        (true, UpmemRunOptions::optimized()),
        (false, UpmemRunOptions::default()),
    ];
    for (optimize_locality, options) in lowerings {
        let spec = UpmemBackend::new(8, options).kernel_spec(
            DpuKernelKind::Gemv { rows: 1, cols: 1 },
            vec![0, 1],
            2,
        );
        let want = (
            Some(spec.wram_tile_elems as i64),
            spec.locality_optimized,
            spec.tasklets.map(|t| t as i64),
        );
        let pm = cnm_pipeline(8, optimize_locality);
        for id in WorkloadId::upmem_opt_suite() {
            let mut module = Module::new(id.name());
            module.add_func(build_func(id, Scale::Test));
            compile(&mut module, &pm).expect("cnm pipeline");
            let f = &module.funcs[0];
            let launches = f.body.ops_with_name("upmem.launch");
            assert!(!launches.is_empty(), "{}", id.name());
            for launch in launches {
                let op = f.body.op(launch);
                let got = (
                    op.int_attr("cnm.wram_tile"),
                    op.has_attr("cnm.locality_optimized"),
                    op.int_attr("tasklets"),
                );
                assert_eq!(got, want, "{} (locality {optimize_locality})", id.name());
            }
        }
    }
}

/// `compile` verifies strictly: every program of the suite lowers through
/// every pipeline into ops some dialect table declares — the benchmark's 33
/// (program, route) pairs and the 12 it leaves out — and a misspelled op is
/// an error, not a silently accepted unregistered one.
#[test]
fn every_lowered_program_verifies_without_unregistered_ops() {
    let registry = cinm::dialects::register_all_dialects();
    assert!(!registry.allow_unregistered);
    let pipelines = [
        ("cinm", cinm_pipeline()),
        ("upmem", cnm_pipeline(8, true)),
        ("memristor", cim_pipeline(CimLoweringOptions::optimized())),
    ];
    for scale in [Scale::Test, Scale::Bench] {
        for id in WorkloadId::all() {
            for (route, pm) in &pipelines {
                let mut module = Module::new(id.name());
                module.add_func(build_func(id, scale));
                pm.run(&mut module)
                    .unwrap_or_else(|e| panic!("{} -> {route} at {scale:?}: {e}", id.name()));
                verify_module(&module, &registry)
                    .unwrap_or_else(|e| panic!("{} -> {route} at {scale:?}: {e}", id.name()));
            }
        }
    }

    let t = Type::tensor(&[8, 8], ScalarType::I32);
    let mut f = Func::new("typo", vec![t, t], vec![t]);
    let (a, b) = (f.argument(0), f.argument(1));
    let entry = f.body.entry_block();
    let mut builder = OpBuilder::at_end(&mut f.body, entry);
    let c = builder.op("cinm.gemmm").operands([a, b]).result(t).push();
    cinm::dialects::func::ret(&mut builder, &[c.result()]);
    let mut module = Module::new("typo");
    module.add_func(f);
    let err = compile(&mut module, &cinm_pipeline()).unwrap_err();
    assert!(
        err.to_string()
            .contains("unknown op 'cinm.gemmm' in registered dialect 'cinm'"),
        "{err}"
    );
}

#[test]
fn greedy_target_selection_sends_large_gemms_to_cim_and_the_rest_to_cnm() {
    let selector = TargetSelector::new();
    // Large matmul => CIM.
    let mut module = Module::new("mm");
    module.add_func(build_func(WorkloadId::Mm, Scale::Bench));
    compile(&mut module, &cinm_pipeline()).unwrap();
    let counts = selector.select_for_func(&module.funcs[0]);
    assert!(counts.get(&Target::Cim).copied().unwrap_or(0) >= 1);
    // Histogram (CNM-only op) => UPMEM.
    let mut module = Module::new("hst");
    module.add_func(build_func(WorkloadId::HstL, Scale::Test));
    compile(&mut module, &cinm_pipeline()).unwrap();
    let counts = selector.select_for_func(&module.funcs[0]);
    assert!(counts.get(&Target::Cnm).copied().unwrap_or(0) >= 1);
}

#[test]
fn optimizations_follow_the_papers_direction_on_dense_kernels() {
    // Figure 11 direction: the WRAM-locality optimisation helps the GEMM-like
    // kernels substantially.
    let inp = runner::inputs(WorkloadId::Mm, Scale::Test);
    let mut base = small_upmem_backend(UpmemRunOptions::default());
    let mut opt = small_upmem_backend(UpmemRunOptions::optimized());
    runner::run_upmem(WorkloadId::Mm, Scale::Test, &inp, &mut base);
    runner::run_upmem(WorkloadId::Mm, Scale::Test, &inp, &mut opt);
    assert!(opt.stats().kernel_seconds < base.stats().kernel_seconds);

    // Figure 10 direction: min-writes cuts crossbar writes and time.
    let inp = runner::inputs(WorkloadId::Mm, Scale::Test);
    let mut naive = CimBackend::new(CimRunOptions::default());
    let mut minw = CimBackend::new(CimRunOptions {
        min_writes: true,
        parallel_tiles: false,
        ..Default::default()
    });
    runner::run_cim(WorkloadId::Mm, Scale::Test, &inp, &mut naive);
    runner::run_cim(WorkloadId::Mm, Scale::Test, &inp, &mut minw);
    assert!(minw.stats().xbar.tile_writes <= naive.stats().xbar.tile_writes);
    assert!(minw.stats().total_seconds() <= naive.stats().total_seconds());
}

#[test]
fn lines_of_code_table_shows_conciseness_of_the_cinm_representation() {
    for id in WorkloadId::all() {
        let func = build_func(id, Scale::Paper);
        let loc = cinm::ir::func_lines_of_code(&func);
        assert!(
            loc * 2 < id.upmem_c_loc(),
            "{}: CINM {} lines vs UPMEM C {} lines",
            id.name(),
            loc,
            id.upmem_c_loc()
        );
    }
}

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `print_module` of the benchmark's 33 lowered (program, route) pairs at
/// its scale, hashed at the commit before attribute maps became sorted lists
/// and op names `'static`: the printer's attribute order and every name are
/// byte-identical to it.
const PRINTED_IR_HASHES: [(&str, &str, u64); 33] = [
    ("cinm", "mm", 0xe3130ac72b5877e1),
    ("cinm", "2mm", 0x760d063546d5732e),
    ("cinm", "3mm", 0x581561b9dde76480),
    ("cinm", "conv", 0x7fa9f48fe9bb08f1),
    ("cinm", "contrl", 0xad89207dcd881ec3),
    ("cinm", "contrs1", 0x14564e65cd375a77),
    ("cinm", "contrs2", 0x2217fb1da9831a32),
    ("cinm", "mlp", 0x57912e87052ae7e1),
    ("cinm", "mv", 0x14072094c82d2eef),
    ("cinm", "va", 0x55ea5b130ea3d65b),
    ("cinm", "sel", 0x3ec5a6c7b85f2f85),
    ("cinm", "bfs", 0xfec8a8d20eec03da),
    ("cinm", "hst-l", 0x95cbe0b6d19b8b7c),
    ("cinm", "red", 0x167b89febae55be1),
    ("cinm", "ts", 0x8f55b72a7c6ec3db),
    ("upmem", "mm", 0x1deb2e243ce83642),
    ("upmem", "2mm", 0x3e35ffb80170349d),
    ("upmem", "3mm", 0x1ff995800be9d4a6),
    ("upmem", "conv", 0xab71d18923d5cecb),
    ("upmem", "contrl", 0xd95f9a764a3cf244),
    ("upmem", "contrs1", 0x2495abef4ac6cb85),
    ("upmem", "contrs2", 0x964e251c572a576c),
    ("upmem", "mlp", 0x8253f69f7eb7c7b0),
    ("upmem", "mv", 0xceeeb7baaa67192d),
    ("memristor", "mv", 0xab9eb59826073c20),
    ("memristor", "mm", 0x1220be813bc16cff),
    ("memristor", "2mm", 0xbd281db3cad67e88),
    ("memristor", "3mm", 0x0a1b7e4f53912b14),
    ("memristor", "conv", 0x8490b2582125a5c1),
    ("memristor", "contrl", 0x523aa9bf35dd9986),
    ("memristor", "contrs1", 0x2117b4ccd1b30706),
    ("memristor", "contrs2", 0x7dfced301d5f0aa1),
    ("memristor", "mlp", 0x7562a9f67b7b04a0),
];

#[test]
fn printed_ir_of_every_lowered_program_is_byte_identical_to_the_pinned_hashes() {
    let routes = [
        ("cinm", WorkloadId::all(), cinm_pipeline()),
        (
            "upmem",
            WorkloadId::upmem_opt_suite(),
            cnm_pipeline(8, true),
        ),
        (
            "memristor",
            WorkloadId::cim_suite(),
            cim_pipeline(CimLoweringOptions::optimized()),
        ),
    ];
    let mut got = Vec::new();
    for (route, ids, pm) in &routes {
        for &id in ids {
            let mut module = Module::new(id.name());
            module.add_func(build_func(id, Scale::Bench));
            compile(&mut module, pm).unwrap_or_else(|e| panic!("{} -> {route}: {e}", id.name()));
            got.push((*route, id.name(), fnv1a(&print_module(&module))));
        }
    }
    assert_eq!(got, PRINTED_IR_HASHES);
}
