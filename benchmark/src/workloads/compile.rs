//! `compile`: programs built, lowered through one pipeline and verified.
//!
//! Only `cinm-workloads`, `cinm-ir`, `cinm-dialects`, `cinm-lowering::convert`
//! and `cinm-core::{pipeline, target}` run here.

use cinm::core::pipeline;
use cinm::core::shard::{CimCostModel, CnmCostModel, HostCostModel};
use cinm::core::TargetSelector;
use cinm::cpu::CpuModel;
use cinm::dialects::register_all_dialects;
use cinm::ir::{print_module, verify_module, Module, Pass, PassManager};
use cinm::lowering::{
    CimLoweringOptions, CimToMemristorPass, CinmToCimPass, CinmToCnmPass, CnmLoweringOptions,
    CnmToUpmemPass, LinalgToCinmPass, TosaToLinalgPass, UpmemLoweringOptions,
};
use cinm::memristor::CrossbarConfig;
use cinm::runtime::alloc_count;
use cinm::upmem::UpmemConfig;
use cinm::workloads::{build_func, Scale, WorkloadId};
use std::time::Instant;

use crate::harness::{Checks, Metrics, RunConfig, Sample, SetupBreakdown, Workload};
use crate::manifest::{Kind, Sizes};
use crate::stats::SplitMix64;
use crate::timed;
use crate::trace::Tracer;

const RANKS: i64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Front end only, then target selection over the `cinm` ops.
    Cinm,
    /// `cinm -> cnm -> upmem`.
    Upmem,
    /// `cinm -> cim -> memristor`.
    Memristor,
}

/// A pass with the span it is traced under and the stage counter it feeds.
struct Stage {
    span: &'static str,
    pm: PassManager,
    ops_after: Option<usize>,
}

fn stage(span: &'static str, pass: Box<dyn Pass>, ops_after: Option<usize>) -> Stage {
    let mut pm = PassManager::new();
    pm.add_pass(pass);
    Stage {
        span,
        pm,
        ops_after,
    }
}

// Indices into `Counted::ops_after`.
const AFTER_CINM: usize = 0;
const AFTER_CNM: usize = 1;
const AFTER_UPMEM: usize = 2;
const AFTER_CIM: usize = 3;
const AFTER_MEMRISTOR: usize = 4;
const STAGE_METRICS: [&str; 5] = [
    "ir.ops_after_cinm",
    "ir.ops_after_cnm",
    "ir.ops_after_upmem",
    "ir.ops_after_cim",
    "ir.ops_after_memristor",
];

fn stages(route: Route) -> Vec<Stage> {
    let mut v = vec![
        stage("convert.tosa_to_linalg", Box::new(TosaToLinalgPass), None),
        stage(
            "convert.linalg_to_cinm",
            Box::new(LinalgToCinmPass),
            Some(AFTER_CINM),
        ),
    ];
    match route {
        Route::Cinm => {}
        Route::Upmem => {
            let cnm = CnmLoweringOptions {
                workgroup: vec![RANKS * 128, 16],
                optimize_locality: true,
                ..Default::default()
            };
            v.push(stage(
                "convert.cinm_to_cnm",
                Box::new(CinmToCnmPass::new(cnm)),
                Some(AFTER_CNM),
            ));
            let upmem = UpmemLoweringOptions {
                ranks: RANKS,
                tasklets: 16,
            };
            v.push(stage(
                "convert.cnm_to_upmem",
                Box::new(CnmToUpmemPass::new(upmem)),
                Some(AFTER_UPMEM),
            ));
        }
        Route::Memristor => {
            let cim = CimLoweringOptions::optimized();
            v.push(stage(
                "convert.cinm_to_cim",
                Box::new(CinmToCimPass::new(cim)),
                Some(AFTER_CIM),
            ));
            v.push(stage(
                "convert.cim_to_memristor",
                Box::new(CimToMemristorPass),
                Some(AFTER_MEMRISTOR),
            ));
        }
    }
    v
}

/// What the counted pass adds up over its programs.
#[derive(Default)]
struct Counted {
    programs: usize,
    ops_in: usize,
    ops_out: usize,
    ops_after: [(usize, usize); 5],
    pattern_changes: usize,
    allocs: u64,
    print_seconds: f64,
}

pub struct Compile {
    /// `(program, route)` in the seeded order one cycle runs them.
    programs: Vec<(WorkloadId, Route)>,
    whole: [PassManager; 3],
    split: [Vec<Stage>; 3],
    selector: TargetSelector,
    sizes: Sizes,
    next: usize,
}

impl Compile {
    fn route_index(route: Route) -> usize {
        match route {
            Route::Cinm => 0,
            Route::Upmem => 1,
            Route::Memristor => 2,
        }
    }

    /// Hand-written expectations on a lowered module — never the compiler's
    /// own opinion of itself: nothing above the target level survives except
    /// the documented host residue, and the device ops exist.
    fn lowered_as_expected(module: &Module, route: Route, selected: usize) -> bool {
        let body = &module.funcs[0].body;
        let host_residue = |dialect: &str| {
            body.ops_in_dialect(dialect).iter().all(|&op| {
                matches!(
                    body.op(op).name.as_str(),
                    "linalg.im2col" | "linalg.generic" | "linalg.elemwise_unary"
                )
            })
        };
        let none_of = |dialect: &str| body.ops_in_dialect(dialect).is_empty();
        let has = |name: &str| !body.ops_with_name(name).is_empty();
        none_of("tosa")
            && host_residue("linalg")
            && match route {
                Route::Cinm => {
                    let cinm_ops = body.ops_in_dialect("cinm").len();
                    cinm_ops > 0 && selected == cinm_ops
                }
                Route::Upmem => none_of("cnm") && has("upmem.launch"),
                Route::Memristor => {
                    // `cim.yield` terminates the tile-loop regions that survive.
                    let only_yields = body
                        .ops_in_dialect("cim")
                        .iter()
                        .all(|&op| body.op(op).name == "cim.yield");
                    only_yields && has("memristor.gemm_tile") && has("memristor.configure")
                }
            }
    }

    /// One op: build, lower, verify (and select targets on the cinm route).
    /// Traced, the pipeline runs pass by pass; untraced, it is one
    /// `pipeline::compile` call, as a user would make it.
    fn op(&mut self, t: &mut Tracer, counted: Option<&mut Counted>) -> bool {
        let (id, route) = self.programs[self.next % self.programs.len()];
        self.next += 1;
        let r = Self::route_index(route);
        let allocs_before = alloc_count::thread_allocations();
        t.next_op();
        let root = t.begin("harness.op");

        let s = t.begin("workloads.build_func");
        let mut module = Module::new(id.name());
        module.add_func(build_func(id, Scale::Bench));
        t.end(s);

        let split_run = t.is_on() || counted.is_some();
        let mut counted = counted;
        if let Some(c) = counted.as_deref_mut() {
            c.programs += 1;
            c.ops_in += module.funcs[0].body.num_live_ops();
        }
        let lowered = if split_run {
            let mut ok = true;
            for st in &self.split[r] {
                let s = t.begin(st.span);
                let stats = st.pm.run(&mut module);
                t.end(s);
                match (stats, counted.as_deref_mut()) {
                    (Err(_), _) => {
                        ok = false;
                        break;
                    }
                    (Ok(stats), Some(c)) => {
                        c.pattern_changes += stats.total_changes();
                        if let Some(i) = st.ops_after {
                            c.ops_after[i].0 += module.funcs[0].body.num_live_ops();
                            c.ops_after[i].1 += 1;
                        }
                    }
                    (Ok(_), None) => {}
                }
            }
            let s = t.begin("dialects.register");
            let mut registry = register_all_dialects();
            registry.allow_unregistered = true;
            t.end(s);
            let s = t.begin("ir.verify");
            ok &= verify_module(&module, &registry).is_ok();
            t.end(s);
            // Tearing the registry down is part of what registering costs.
            let s = t.begin("dialects.register");
            drop(registry);
            t.end(s);
            ok
        } else {
            pipeline::compile(&mut module, &self.whole[r]).is_ok()
        };

        let mut selected = 0;
        if route == Route::Cinm {
            let s = t.begin("target.select");
            selected = self
                .selector
                .select_for_func(&module.funcs[0])
                .values()
                .sum();
            t.end(s);
        }
        t.end(root);

        if let Some(c) = counted {
            c.allocs += alloc_count::thread_allocations() - allocs_before;
            c.ops_out += module.funcs[0].body.num_live_ops();
            let start = Instant::now();
            std::hint::black_box(print_module(&module));
            c.print_seconds += start.elapsed().as_secs_f64();
        }
        lowered && Self::lowered_as_expected(&module, route, selected)
    }
}

impl Workload for Compile {
    const KIND: Kind = Kind::Compile;

    fn cold_setup(seed: u64, sizes: Sizes, b: &mut SetupBreakdown) -> Result<Self, String> {
        // Inputs: which programs, in which order (a seeded shuffle of the
        // fixed set of 33 — the programs themselves are the paper's).
        let programs = timed!(b.inputs, {
            let mut programs: Vec<(WorkloadId, Route)> = WorkloadId::all()
                .into_iter()
                .map(|id| (id, Route::Cinm))
                .chain(
                    WorkloadId::upmem_opt_suite()
                        .into_iter()
                        .map(|id| (id, Route::Upmem)),
                )
                .chain(
                    WorkloadId::cim_suite()
                        .into_iter()
                        .map(|id| (id, Route::Memristor)),
                )
                .collect();
            SplitMix64::stream(seed, "compile.order").shuffle(&mut programs);
            programs
        });
        let mut w = timed!(b.construct, {
            let mut selector = TargetSelector::new();
            selector.register_model(Box::new(CnmCostModel::new(UpmemConfig::with_ranks(
                RANKS as usize,
            ))));
            selector.register_model(Box::new(CimCostModel::new(CrossbarConfig::default())));
            selector.register_model(Box::new(HostCostModel::new(CpuModel::arm_host())));
            Compile {
                programs,
                whole: [
                    pipeline::cinm_pipeline(),
                    pipeline::cnm_pipeline(RANKS, true),
                    pipeline::cim_pipeline(CimLoweringOptions::optimized()),
                ],
                split: [
                    stages(Route::Cinm),
                    stages(Route::Upmem),
                    stages(Route::Memristor),
                ],
                selector,
                sizes,
                next: 0,
            }
        });
        // First result: every program lowered and checked once.
        let all = timed!(b.first_result, {
            let mut off = Tracer::off();
            (0..w.programs.len()).fold(true, |ok, _| w.op(&mut off, None) && ok)
        });
        w.next = 0;
        if all {
            Ok(w)
        } else {
            Err("compile: a program did not lower as expected".into())
        }
    }

    fn sample(&mut self, t: &mut Tracer, checks: &mut Checks) -> Sample {
        let ops = self.sizes.batch_ops;
        let mut ok = true;
        let start = Instant::now();
        for _ in 0..ops {
            // The structural check walks the module: a few percent of the op,
            // the same on every commit, and it keeps every output checked.
            ok &= self.op(t, None);
        }
        let seconds = start.elapsed().as_secs_f64();
        checks.record(ok);
        Sample {
            ops,
            seconds,
            parts: Vec::new(),
        }
    }

    fn counted_pass(&mut self, metrics: &mut Metrics, checks: &mut Checks) {
        let mut c = Counted::default();
        self.next = 0;
        let mut off = Tracer::off();
        for _ in 0..self.sizes.counted_ops {
            let ok = self.op(&mut off, Some(&mut c));
            checks.record(ok);
        }
        let n = c.programs.max(1) as f64;
        metrics.set("gen_ops_per_program", c.ops_out as f64 / n);
        metrics.set("ir.ops_in", c.ops_in as f64 / n);
        for (name, (ops, programs)) in STAGE_METRICS.iter().zip(c.ops_after) {
            metrics.set(name, ops as f64 / programs.max(1) as f64);
        }
        metrics.set("convert.pattern_changes", c.pattern_changes as f64 / n);
        metrics.set("ir.print_us", c.print_seconds * 1e6 / n);
        metrics.set("runtime.allocs_per_op", c.allocs as f64 / n);
        self.next = 0;
    }

    fn layer_extras(&mut self, _: &RunConfig, _: &mut Metrics, _: &mut Checks) {}
}
