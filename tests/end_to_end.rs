//! End-to-end integration tests: every workload is lowered through the CINM
//! pipelines and executed on the simulated devices, and the results are
//! checked against the host reference implementations.

use cinm::core::runner;
use cinm::core::{cim_pipeline, cinm_pipeline, cnm_pipeline, compile, Target, TargetSelector};
use cinm::ir::prelude::*;
use cinm::lowering::cnm_op::{CnmOp, MramLayout, OutputLayout};
use cinm::lowering::{
    CimBackend, CimRunOptions, CinmToCnmPass, CnmLoweringOptions, UpmemBackend, UpmemRunOptions,
};
use cinm::upmem::{BinOp, DpuKernelKind};
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

/// What the one lowering table decodes each `cinm` op of a program at the
/// `cinm` level to, in walk order (`None`: the op stays at the `cinm` level
/// for the host).
fn decoded_cinm_ops(id: WorkloadId, scale: Scale) -> Vec<Option<CnmOp>> {
    let mut module = Module::new(id.name());
    module.add_func(build_func(id, scale));
    compile(&mut module, &cinm_pipeline()).expect("cinm pipeline");
    let body = &module.funcs[0].body;
    let ops = body.walk().into_iter();
    ops.filter(|&op| body.op(op).dialect() == "cinm")
        .map(|op| CnmOp::from_cinm(body, op))
        .collect()
}

/// Both sides of the `cinm → cnm` lowering: every op the table decodes
/// became a launch, and every `cinm` op left is one the table refuses. Ops
/// with no `cinm` counterpart (the MLP's bias-add generic and clamp, the
/// im2col rearrangement) stay for the host on both routes, as in Section
/// 3.2.2, and every matmul-like program reaches the crossbar's dialect.
#[test]
fn pipelines_lower_every_idiomatic_workload_to_device_dialects() {
    let host_residue = |f: &Func| {
        f.body.ops_in_dialect("linalg").iter().all(|&op| {
            let name = f.body.op(op).name;
            ["linalg.im2col", "linalg.generic", "linalg.elemwise_unary"].contains(&name.as_str())
        })
    };
    for id in WorkloadId::upmem_opt_suite() {
        let mut module = Module::new(id.name());
        module.add_func(build_func(id, Scale::Test));
        compile(&mut module, &cnm_pipeline(4, true)).expect("cnm pipeline");
        let f = &module.funcs[0];
        let decoded = decoded_cinm_ops(id, Scale::Test)
            .into_iter()
            .flatten()
            .count();
        assert!(decoded > 0 && host_residue(f), "{}", id.name());
        let launches = f.body.ops_with_name("upmem.launch").len();
        assert_eq!(launches, decoded, "{}", id.name());
        assert!(
            !f.body.ops_with_name("upmem.scatter").is_empty(),
            "{}",
            id.name()
        );
        for op in f.body.ops_in_dialect("cinm") {
            let left = CnmOp::from_cinm(&f.body, op);
            assert_eq!(left, None, "{}: {}", id.name(), f.body.op(op).name);
        }
    }
    for id in WorkloadId::cim_suite() {
        let mut module = Module::new(id.name());
        module.add_func(build_func(id, Scale::Test));
        compile(&mut module, &cim_pipeline(CimLoweringOptions::optimized())).expect("cim pipeline");
        let f = &module.funcs[0];
        assert!(host_residue(f), "{}", id.name());
        for device_op in ["memristor.configure", "memristor.gemm_tile"] {
            assert!(!f.body.ops_with_name(device_op).is_empty(), "{}", id.name());
        }
    }
}

/// The per-DPU kernel a lowered launch states: its name, integer arguments
/// and operator (`None` when they are missing or name no kernel).
fn launch_kernel(launch: &Operation<'_>) -> Option<DpuKernelKind> {
    let a = launch.int_array_attr("cnm.kernel_args")?;
    let u = |i: usize| a.get(i).map(|&v| v as usize);
    let op = || BinOp::parse(launch.str_attr("cnm.kernel_op")?);
    Some(match launch.str_attr("kernel")? {
        "gemm" => DpuKernelKind::Gemm {
            m: u(0)?,
            k: u(1)?,
            n: u(2)?,
        },
        "gemv" => DpuKernelKind::Gemv {
            rows: u(0)?,
            cols: u(1)?,
        },
        "elementwise" => DpuKernelKind::Elementwise {
            op: op()?,
            len: u(0)?,
        },
        "reduce" => DpuKernelKind::Reduce {
            op: op()?,
            len: u(0)?,
        },
        "histogram" => DpuKernelKind::Histogram {
            bins: u(0)?,
            len: u(1)?,
            max_value: *a.get(2)? as i32,
        },
        "select" => DpuKernelKind::Select {
            len: u(0)?,
            threshold: *a.get(1)? as i32,
        },
        _ => return None,
    })
}

/// The grid ops a workload's lowered program launches, in order, from its
/// parameters: the ops `runner::run_upmem` issues, with two differences.
/// The MLP's bias-add and ReLU launches are not there (the IR keeps them on
/// the host: `linalg.generic`, `linalg.elemwise_unary`), and every
/// `linalg.matmul`/`matvec` of `mm`, `2mm`, `3mm` and `mv` adds its init
/// accumulator, a function argument, in one more element-wise launch (the
/// runner's inputs carry no accumulator). `ts` and `bfs` launch nothing:
/// their kernels' results depend on the DPU count, so their `cinm` ops are
/// not lowered.
fn lowered_ops(id: WorkloadId, scale: Scale) -> Vec<CnmOp> {
    use cinm::workloads::WorkloadParams as P;
    let gemm = |m, k, n| CnmOp::Gemm { m, k, n };
    let add = |len| CnmOp::Elementwise {
        op: BinOp::Add,
        len,
    };
    let acc = |m, k, n| [gemm(m, k, n), add(m * n)];
    match id.params(scale) {
        P::Gemm { m, k, n } => acc(m, k, n).to_vec(),
        P::Gemm2 { m, k, n, p } => [acc(m, k, n), acc(m, n, p)].concat(),
        P::Gemm3 { m, k, n, p } => [acc(m, k, n), acc(n, k, p), acc(m, n, p)].concat(),
        P::Conv2d { h, w, c, kh, kw, f } => {
            vec![gemm((h - kh + 1) * (w - kw + 1), kh * kw * c, f)]
        }
        P::ContractL { a, b, c, d, e, f } => vec![gemm(a * b, e * f, c * d)],
        P::ContractS1 { a, b, c, d } => vec![gemm(a, c * d, b)],
        P::ContractS2 { a, b, c, d } => vec![gemm(a * c, d, b)],
        P::Mlp { batch, layers } => (0..3)
            .map(|i| gemm(batch, layers[i], layers[i + 1]))
            .collect(),
        P::Gemv { rows, cols } => vec![CnmOp::Gemv { rows, cols }, add(rows)],
        P::Vector { len } if id == WorkloadId::Red => vec![CnmOp::Reduce {
            op: BinOp::Add,
            len,
        }],
        P::Vector { len } => vec![add(len)],
        P::Select { len, threshold } => vec![CnmOp::Select { threshold, len }],
        P::Histogram {
            len,
            bins,
            max_value,
        } => vec![CnmOp::Histogram {
            bins,
            max_value,
            len,
        }],
        P::Bfs { .. } | P::TimeSeries { .. } => Vec::new(),
    }
}

/// Where the lowered IR meets the simulator: every `upmem.launch` states the
/// program `UpmemBackend` runs for the op the workload's parameters put
/// there (`lowered_ops`), parameters included. Its operand buffers (a per-DPU
/// chunk, or the whole operand where the scatter broadcasts), its output
/// chunk, its kernel and the partials its gather names are
/// `CnmOp::geometry` of that op on the workgroup's DPUs, and its WRAM tile,
/// locality flag and tasklets are those of the kernel spec the backend
/// launches under the matching options — the `cinm-opt` lowering with
/// `optimized()`, the baseline lowering with `default()`. The programs are
/// the upmem route's and the PrIM comparison's at the benchmark's scale;
/// `ts` and `bfs` launch nothing, and the table refuses their `cinm` op.
#[test]
fn every_upmem_launch_carries_the_kernel_spec_the_backend_launches() {
    let mut programs = WorkloadId::upmem_opt_suite();
    for id in WorkloadId::prim_suite() {
        if !programs.contains(&id) {
            programs.push(id);
        }
    }
    let scale = Scale::Bench;
    let lowerings = [
        (true, UpmemRunOptions::optimized()),
        (false, UpmemRunOptions::default()),
    ];
    let mut wrong = Vec::new();
    for id in programs {
        let expected = lowered_ops(id, scale);
        if expected.is_empty() {
            let decoded = decoded_cinm_ops(id, scale);
            let refused = !decoded.is_empty() && decoded.iter().all(Option::is_none);
            assert!(refused, "{}: {decoded:?}", id.name());
        }
        for (optimize_locality, options) in lowerings.clone() {
            let backend = UpmemBackend::new(8, options);
            let mut module = Module::new(id.name());
            module.add_func(build_func(id, scale));
            compile(&mut module, &cnm_pipeline(8, optimize_locality)).expect("cnm pipeline");
            let body = &module.funcs[0].body;
            let launches = body.ops_with_name("upmem.launch");
            if launches.len() != expected.len() {
                let (got, want) = (launches.len(), expected.len());
                wrong.push(format!("{}: {got} launches for {want} ops", id.name()));
                continue;
            }
            for (&launch, &cnm_op) in launches.iter().zip(&expected) {
                let at = format!(
                    "{} ({scale:?}, locality {optimize_locality}) {cnm_op:?}",
                    id.name()
                );
                let op = body.op(launch);
                let buffers = &op.operands[1..];
                let Type::CnmWorkgroup(wg) = *body.value_type(op.operands[0]) else {
                    panic!("{at}: a launch runs on a workgroup");
                };
                let dpus = wg.shape[0] as usize;
                assert_eq!(dpus, backend.num_dpus(), "{at}");
                let geometry = cnm_op.geometry(dpus);
                let elements = |v: ValueId| body.value_type(v).num_elements() as usize;
                let writes =
                    |v: ValueId, name| body.users(v).into_iter().find(|&u| body.op(u).name == name);
                let layouts: Vec<MramLayout> = buffers[..buffers.len() - 1]
                    .iter()
                    .map(|&buf| {
                        let scatter = writes(buf, "upmem.scatter").map(|s| body.op(s));
                        match scatter.is_some_and(|s| s.has_attr("cnm.broadcast")) {
                            true => MramLayout::Broadcast(elements(buf)),
                            false => MramLayout::Chunk(elements(buf)),
                        }
                    })
                    .collect();
                if layouts != geometry.inputs[..layouts.len()] {
                    wrong.push(format!(
                        "{at}: operand buffers {layouts:?}, geometry {:?}",
                        geometry.inputs
                    ));
                }
                let out = *buffers.last().unwrap();
                if elements(out) != geometry.out_chunk {
                    wrong.push(format!(
                        "{at}: output chunk {}, geometry {}",
                        elements(out),
                        geometry.out_chunk
                    ));
                }
                if launch_kernel(&op).as_ref() != Some(&geometry.kernel) {
                    wrong.push(format!(
                        "{at}: kernel {:?}, geometry {:?}",
                        launch_kernel(&op),
                        geometry.kernel
                    ));
                }
                let gather = writes(out, "upmem.gather").map(|g| body.op(g));
                let partials = gather.and_then(|g| g.str_attr("cnm.partials"));
                let want = match geometry.out_layout {
                    OutputLayout::ReducePartials { .. } => Some("reduce"),
                    OutputLayout::HistPartials { .. } => Some("histogram"),
                    OutputLayout::SelectRaw { .. } => Some("select"),
                    _ => None,
                };
                if partials != want {
                    wrong.push(format!(
                        "{at}: gather partials {partials:?}, geometry {want:?}"
                    ));
                }
                let inputs = geometry.kernel.num_inputs() as u32;
                let spec = backend.kernel_spec(geometry.kernel, (0..inputs).collect(), inputs);
                let got = (
                    op.int_attr("cnm.wram_tile"),
                    op.has_attr("cnm.locality_optimized"),
                    op.int_attr("tasklets"),
                );
                let want = (
                    Some(spec.wram_tile_elems as i64),
                    spec.locality_optimized,
                    spec.tasklets.map(|t| t as i64),
                );
                assert_eq!(got, want, "{at}");
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// A chunked operand's scatter map, and the output's gather map, put
/// `chunk` consecutive row-major elements on each PU at consecutive buffer
/// positions, and the buffer holds one chunk — whether the chunk is a block
/// of the tensor (a tiling map) or not (a split of the row-major position).
/// An element-wise op over a 4×6 tensor on 1 to 24 DPUs takes both forms.
#[test]
fn chunk_maps_put_consecutive_row_major_elements_on_one_pu() {
    let row_major = |coords: &[i64], extents: &[i64]| {
        coords.iter().zip(extents).fold(0, |at, (c, e)| at * e + c)
    };
    let (shape, t) = ([4, 6], Type::tensor(&[4, 6], ScalarType::I32));
    let mut map_forms = [0, 0];
    for dpus in 1..=24 {
        let mut f = Func::new("add", vec![t, t], vec![t]);
        let (a, b) = (f.argument(0), f.argument(1));
        let entry = f.body.entry_block();
        let mut builder = OpBuilder::at_end(&mut f.body, entry);
        let sum = builder.op("cinm.add").operands([a, b]).result(t).push();
        cinm::dialects::func::ret(&mut builder, &[sum.result()]);
        let options = CnmLoweringOptions {
            workgroup: vec![dpus, 1],
            ..Default::default()
        };
        CinmToCnmPass::new(options).run_on_func(&mut f).unwrap();
        let chunk = 24 / dpus + i64::from(24 % dpus != 0);
        let scatters = f
            .body
            .ops_with_name("cnm.scatter")
            .into_iter()
            .map(|op| (op, 1));
        let gathers = f
            .body
            .ops_with_name("cnm.gather")
            .into_iter()
            .map(|op| (op, 0));
        for (op, buffer) in scatters.chain(gathers) {
            let op = f.body.op(op);
            let map = op.attr("scatter_map").and_then(Attribute::as_map).unwrap();
            let buffer = f.body.value_type(op.operands[buffer]).shape().unwrap();
            assert_eq!(buffer.iter().product::<i64>(), chunk, "{dpus} DPUs");
            // A block's PU is its row-major place in the grid of blocks.
            let blocks: Vec<i64> = match buffer.len() {
                2 => (0..2)
                    .map(|d| shape[d] / buffer[d] + i64::from(shape[d] % buffer[d] != 0))
                    .collect(),
                _ => vec![dpus],
            };
            map_forms[buffer.len() - 1] += 1;
            for at in 0..24 {
                let image = map.eval(&[at / 6, at % 6]);
                let (pu, offset) = image.split_at(image.len() / 2);
                let got = (row_major(pu, &blocks), row_major(offset, buffer));
                assert_eq!(got, (at / chunk, at % chunk), "{dpus} DPUs, element {at}");
            }
        }
    }
    assert!(
        map_forms.iter().all(|&n| n > 0),
        "both map forms: {map_forms:?}"
    );
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
/// its scale. The `cinm` and `memristor` entries were hashed at the commit
/// before attribute maps became sorted lists and op names `'static`: the
/// printer's attribute order and every name are byte-identical to it. The
/// `upmem` entries were re-pinned when `cinm → cnm` began lowering each op
/// from `CnmOp::geometry`: broadcast operands, per-DPU chunks of the
/// workgroup's DPUs, the kernel on the launch and `mlp`'s transposes left
/// for the host. The `cinm` entries of `sel` and `hst-l` were re-pinned when
/// the IR began stating `select` as one `cinm.select` and the histogram's
/// `max` range.
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
    ("cinm", "sel", 0x09c230191e1a06ac),
    ("cinm", "bfs", 0xfec8a8d20eec03da),
    ("cinm", "hst-l", 0x98ed52f591454b18),
    ("cinm", "red", 0x167b89febae55be1),
    ("cinm", "ts", 0x8f55b72a7c6ec3db),
    ("upmem", "mm", 0x9ce3e1da3e9b631c),
    ("upmem", "2mm", 0x2f5c7864c9cdcfaa),
    ("upmem", "3mm", 0xd571f16f51e4d2f7),
    ("upmem", "conv", 0xb4998d1fc8062f82),
    ("upmem", "contrl", 0xa3784b2237f703c7),
    ("upmem", "contrs1", 0x7a698a5404e77abf),
    ("upmem", "contrs2", 0x4b0473dde0400071),
    ("upmem", "mlp", 0x8f54ac9c03f45191),
    ("upmem", "mv", 0x57c5693764a44888),
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
