//! `figures`: cold paper runs on fresh contexts — 12 UPMEM-suite programs
//! through a CNM session, 9 crossbar programs under cim-opt, 5 sharded ops
//! under the auto policy, all at bench scale with pre-generated inputs.

use std::rc::Rc;
use std::time::Instant;

use cinm::core::runner::{self, WorkloadInputs};
use cinm::core::shard::ShardShape;
use cinm::core::{ShardPlanner, ShardPolicy};
use cinm::dialects::cinm as cinm_ops;
use cinm::lowering::{
    CimBackend, CimRunOptions, ShardError, ShardSplit, ShardedBackend, ShardedRunOptions,
    UpmemRunOptions,
};
use cinm::runtime::{alloc_count, PoolHandle};
use cinm::upmem::{BinOp, SystemStats, UpmemConfig};
use cinm::workloads::{Scale, WorkloadId, WorkloadParams};

use super::direct::{self, Direct};
use super::probes;
use crate::harness::{Checks, Metrics, RunConfig, Sample, SetupBreakdown, Workload};
use crate::manifest::{Kind, Sizes};
use crate::stats::SplitMix64;
use crate::timed;
use crate::trace::Tracer;

const SCALE: Scale = Scale::Bench;
/// DIMMs of the CNM sessions: the smallest of the figure sweeps' 4/8/16. A
/// broadcast operand takes one slab per DPU, so at 8 DIMMs contrs1's B
/// matrix alone is 256 MB and the process peaks at 412 MB; at 4 it stays
/// under 300 MB, which a shared host can spare.
const RANKS: usize = 4;
/// DIMMs behind the sharded runs, as in `cinm-experiments sharded`.
const SHARDED_RANKS: usize = 16;

/// 2mm, 3mm and mlp are left out of the UPMEM list: their broadcast weight
/// slabs take 0.5-2.7 GB of host memory (measured at 8 DIMMs). They still
/// run on the crossbar.
fn upmem_list() -> Vec<WorkloadId> {
    WorkloadId::all()
        .into_iter()
        .filter(|id| !matches!(id, WorkloadId::Mm2 | WorkloadId::Mm3 | WorkloadId::Mlp))
        .collect()
}

fn sharded_list() -> [WorkloadId; 5] {
    use WorkloadId::*;
    [Mm, Mv, Va, Red, HstL]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Device {
    Upmem,
    Crossbar,
    Sharded,
}

/// Inputs of one workload from the seed: the shapes are the paper's, the
/// values and the BFS graph are generated here.
fn generate(id: WorkloadId, seed: u64) -> WorkloadInputs {
    let mut rng = SplitMix64::stream(seed, id.name());
    let mut g = |len: usize| rng.vec_i32(len, -8, 8);
    let buffers = match id.params(SCALE) {
        WorkloadParams::Gemm { m, k, n } => vec![g(m * k), g(k * n)],
        WorkloadParams::Gemm2 { m, k, n, p } => vec![g(m * k), g(k * n), g(n * p)],
        WorkloadParams::Gemm3 { m, k, n, p } => vec![g(m * k), g(k * n), g(n * k), g(k * p)],
        WorkloadParams::Conv2d { h, w, c, kh, kw, f } => vec![g(h * w * c), g(kh * kw * c * f)],
        WorkloadParams::ContractL { a, b, c, d, e, f } => {
            vec![g(a * e * b * f), g(d * f * c * e)]
        }
        WorkloadParams::ContractS1 { a, b, c, d } => vec![g(a * c * d), g(d * b * c)],
        WorkloadParams::ContractS2 { a, b, c, d } => vec![g(a * c * d), g(d * b)],
        WorkloadParams::Mlp { batch, layers } => vec![
            g(batch * layers[0]),
            g(layers[1] * layers[0]),
            g(layers[1]),
            g(layers[2] * layers[1]),
            g(layers[2]),
            g(layers[3] * layers[2]),
            g(layers[3]),
        ],
        WorkloadParams::Gemv { rows, cols } => vec![g(rows * cols), g(cols)],
        WorkloadParams::Vector { len } => vec![g(len), g(len)],
        WorkloadParams::Select { len, .. } => vec![rng.vec_i32(len, 0, 1 << 21)],
        WorkloadParams::Histogram { len, max_value, .. } => vec![rng.vec_i32(len, 0, max_value)],
        WorkloadParams::TimeSeries { len, .. } => vec![rng.vec_i32(len, -64, 64)],
        WorkloadParams::Bfs { vertices, degree } => {
            let cols = rng.vec_i32(vertices * degree, 0, vertices as i32);
            let rows = (0..=vertices).map(|v| (v * degree) as i32).collect();
            let mut frontier = vec![0i32; vertices];
            let first = rng.below(97) as usize;
            for f in frontier.iter_mut().skip(first).step_by(97) {
                *f = 1;
            }
            vec![rows, cols, frontier]
        }
    };
    WorkloadInputs { buffers }
}

/// Simulated cost and counts of one pass, by device.
#[derive(Default)]
struct PassStats {
    upmem: SystemStats,
    crossbar_seconds: f64,
    crossbar_joules: f64,
    mvm_ops: u64,
    tile_writes: u64,
    sharded_makespan: f64,
    sharded_joules: f64,
    sharded_work: [u64; 3],
    max_concurrent: usize,
    upmem_wall: f64,
}

pub struct Figures {
    pool: PoolHandle,
    /// Inputs and golden result per workload, indexed by position in
    /// `WorkloadId::all()`. `red` reduces the vector `va` adds (as in the
    /// repository's own generator), so the two share one allocation.
    data: Vec<(WorkloadId, Rc<WorkloadInputs>, Vec<i32>)>,
    /// The 26 runs, in a fixed order: the seed drives the data only, because
    /// the order decides how the allocator's heap is laid out and with it the
    /// peak resident set.
    programs: Vec<(Device, usize)>,
    planner: ShardPlanner,
    next: usize,
}

impl Figures {
    fn upmem_options(&self) -> UpmemRunOptions {
        UpmemRunOptions::optimized()
            .with_host_threads(1)
            .with_pool(self.pool.clone())
    }

    fn run_sharded(
        &self,
        id: WorkloadId,
        inp: &WorkloadInputs,
        t: &mut Tracer,
        stats: Option<&mut PassStats>,
    ) -> Result<Vec<i32>, ShardError> {
        let b = &inp.buffers;
        let params = id.params(SCALE);
        let (op, shape) = match params {
            WorkloadParams::Gemm { m, k, n } => (cinm_ops::GEMM, ShardShape::matmul(m, k, n)),
            WorkloadParams::Gemv { rows, cols } => {
                (cinm_ops::GEMV, ShardShape::matmul(rows, cols, 1))
            }
            WorkloadParams::Vector { len } if id == WorkloadId::Red => {
                (cinm_ops::REDUCE, ShardShape::streaming(len))
            }
            WorkloadParams::Vector { len } => ("cinm.add", ShardShape::streaming(len)),
            WorkloadParams::Histogram { len, .. } => {
                (cinm_ops::HISTOGRAM, ShardShape::streaming(len))
            }
            other => unreachable!("{other:?} is not in the sharded list"),
        };
        let s = t.begin("shard.plan_cold");
        let split: ShardSplit = self.planner.plan(op, shape)?.split;
        t.end(s);
        let s = t.begin("sharded.construct");
        let mut be = ShardedBackend::new(
            ShardedRunOptions::default()
                .with_ranks(SHARDED_RANKS)
                .with_pool(self.pool.clone())
                .with_host_threads(1),
        );
        t.end(s);
        let s = t.begin("sharded.run");
        let out = match params {
            WorkloadParams::Gemm { m, k, n } => be.gemm(&b[0], &b[1], m, k, n, &split),
            WorkloadParams::Gemv { rows, cols } => be.gemv(&b[0], &b[1], rows, cols, &split),
            WorkloadParams::Vector { .. } if id == WorkloadId::Red => {
                be.reduce(BinOp::Add, &b[0], &split).map(|v| vec![v])
            }
            WorkloadParams::Vector { .. } => be.elementwise(BinOp::Add, &b[0], &b[1], &split),
            WorkloadParams::Histogram {
                bins, max_value, ..
            } => be.histogram(&b[0], bins, max_value, &split),
            other => unreachable!("{other:?} is not in the sharded list"),
        };
        t.end(s);
        if let Some(p) = stats {
            let st = be.stats();
            p.sharded_makespan += st.sim_makespan_seconds;
            for (acc, w) in p.sharded_work.iter_mut().zip(st.work) {
                *acc += w;
            }
            p.max_concurrent = p.max_concurrent.max(st.max_concurrent);
            p.sharded_joules +=
                be.upmem().stats().total_energy_j() + be.cim_backend().stats().total_energy_j();
        }
        out
    }

    /// One cold run on a fresh context; returns whether its output equals
    /// the golden. The comparison is outside `seconds`.
    fn op(&mut self, t: &mut Tracer, stats: Option<&mut PassStats>, seconds: &mut f64) -> bool {
        let (device, index) = self.programs[self.next % self.programs.len()];
        self.next += 1;
        let (id, inp, golden) = &self.data[index];
        let mut stats = stats;
        let start = Instant::now();
        t.next_op();
        let root = t.begin("harness.op");
        let out = match device {
            Device::Upmem => {
                let s = t.begin("session.construct");
                let mut session = runner::cnm_session(RANKS, self.upmem_options());
                t.end(s);
                let s = t.begin("runner.upmem_run");
                let out = runner::run_session(*id, SCALE, inp, &mut session);
                t.end(s);
                if let Some(p) = stats.as_deref_mut() {
                    p.upmem.merge(session.upmem_stats());
                }
                out
            }
            Device::Crossbar => {
                let s = t.begin("backend.cim_construct");
                let mut backend = CimBackend::new(
                    CimRunOptions::optimized()
                        .with_host_threads(1)
                        .with_pool(self.pool.clone()),
                );
                t.end(s);
                let s = t.begin("runner.cim_run");
                let out = runner::run_cim(*id, SCALE, inp, &mut backend);
                t.end(s);
                if let Some(p) = stats.as_deref_mut() {
                    let st = backend.stats();
                    p.crossbar_seconds += st.total_seconds();
                    p.crossbar_joules += st.total_energy_j();
                    p.mvm_ops += st.xbar.mvm_ops;
                    p.tile_writes += st.xbar.tile_writes;
                }
                out
            }
            Device::Sharded => match self.run_sharded(*id, inp, t, stats.as_deref_mut()) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("figures: sharded {} failed: {e}", id.name());
                    Vec::new()
                }
            },
        };
        // The context was dropped inside the match arm: construction and
        // teardown of slabs both belong to a cold run.
        t.end(root);
        let elapsed = start.elapsed().as_secs_f64();
        *seconds += elapsed;
        if let (Device::Upmem, Some(p)) = (device, stats) {
            p.upmem_wall += elapsed;
        }
        out == *golden
    }

    fn pass(
        &mut self,
        t: &mut Tracer,
        checks: &mut Checks,
        stats: Option<&mut PassStats>,
    ) -> Sample {
        let mut stats = stats;
        self.next = 0;
        let ops = self.programs.len();
        let mut parts = Vec::with_capacity(ops);
        for _ in 0..ops {
            let mut seconds = 0.0;
            let ok = self.op(t, stats.as_deref_mut(), &mut seconds);
            checks.record(ok);
            parts.push(seconds);
        }
        Sample {
            ops,
            seconds: parts.iter().sum(),
            parts,
        }
    }
}

impl Workload for Figures {
    const KIND: Kind = Kind::Figures;

    fn cold_setup(seed: u64, _: Sizes, b: &mut SetupBreakdown) -> Result<Self, String> {
        let partitions = UpmemConfig::with_ranks(RANKS).num_dpus();
        let data: Vec<(WorkloadId, Rc<WorkloadInputs>, Vec<i32>)> = timed!(b.inputs, {
            let mut vector_inputs: Option<Rc<WorkloadInputs>> = None;
            WorkloadId::all()
                .into_iter()
                .map(|id| {
                    let inp = match (id, &vector_inputs) {
                        (WorkloadId::Red, Some(shared)) => Rc::clone(shared),
                        _ => Rc::new(generate(id, seed)),
                    };
                    if id == WorkloadId::Va {
                        vector_inputs = Some(Rc::clone(&inp));
                    }
                    // Goldens come from cpu_sim::kernels, never from a device.
                    let golden = runner::reference(id, SCALE, &inp, partitions);
                    (id, inp, golden)
                })
                .collect()
        });
        let index_of = |id: WorkloadId| {
            data.iter()
                .position(|(d, _, _)| *d == id)
                .expect("every workload has inputs")
        };
        let programs: Vec<(Device, usize)> = upmem_list()
            .into_iter()
            .map(|id| (Device::Upmem, index_of(id)))
            .chain(
                WorkloadId::cim_suite()
                    .into_iter()
                    .map(|id| (Device::Crossbar, index_of(id))),
            )
            .chain(
                sharded_list()
                    .into_iter()
                    .map(|id| (Device::Sharded, index_of(id))),
            )
            .collect();
        let mut w = timed!(
            b.construct,
            Figures {
                pool: PoolHandle::with_threads(1),
                data,
                programs,
                planner: ShardPlanner::with_default_models(SHARDED_RANKS)
                    .with_policy(ShardPolicy::Auto),
                next: 0,
            }
        );
        // First result: the first cold run of each device kind.
        let ok = timed!(b.first_result, {
            let mut ok = true;
            for device in [Device::Upmem, Device::Crossbar, Device::Sharded] {
                w.next = w
                    .programs
                    .iter()
                    .position(|(d, _)| *d == device)
                    .expect("every device kind has a program");
                ok &= w.op(&mut Tracer::off(), None, &mut 0.0);
            }
            ok
        });
        w.next = 0;
        if ok {
            Ok(w)
        } else {
            Err("figures: a first run did not match its golden".into())
        }
    }

    fn sample(&mut self, t: &mut Tracer, checks: &mut Checks) -> Sample {
        self.pass(t, checks, None)
    }

    fn counted_pass(&mut self, metrics: &mut Metrics, checks: &mut Checks) {
        let mut p = PassStats::default();
        let (sample, allocs) =
            alloc_count::count_in(|| self.pass(&mut Tracer::off(), checks, Some(&mut p)));
        let n = sample.ops as f64;
        let us = 1e6 / n;
        let transfer = p.upmem.host_to_dpu_seconds + p.upmem.dpu_to_host_seconds;
        metrics.set(
            "sim_us_per_op",
            (p.upmem.total_seconds() + p.crossbar_seconds + p.sharded_makespan) * us,
        );
        metrics.set(
            "sim_uj_per_op",
            (p.upmem.total_energy_j() + p.crossbar_joules + p.sharded_joules) * us,
        );
        metrics.set("upmem.launches_per_op", p.upmem.launches as f64 / n);
        metrics.set(
            "upmem.h2d_bytes_per_op",
            p.upmem.host_to_dpu_bytes as f64 / n,
        );
        metrics.set(
            "upmem.d2h_bytes_per_op",
            p.upmem.dpu_to_host_bytes as f64 / n,
        );
        metrics.set("upmem.kernel_sim_us_per_op", p.upmem.kernel_seconds * us);
        metrics.set("upmem.transfer_sim_us_per_op", transfer * us);
        metrics.set("upmem.energy_uj_per_op", p.upmem.total_energy_j() * us);
        metrics.set(
            "upmem.sim_us_per_wall_us",
            p.upmem.total_seconds() / p.upmem_wall.max(f64::MIN_POSITIVE),
        );
        metrics.set("memristor.mvm_ops_per_op", p.mvm_ops as f64 / n);
        metrics.set("memristor.tile_writes_per_op", p.tile_writes as f64 / n);
        metrics.set("memristor.sim_us_per_op", p.crossbar_seconds * us);
        metrics.set("memristor.energy_uj_per_op", p.crossbar_joules * us);
        let work: u64 = p.sharded_work.iter().sum();
        for (name, w) in [
            "shard.cnm_fraction",
            "shard.cim_fraction",
            "shard.host_fraction",
        ]
        .iter()
        .zip(p.sharded_work)
        {
            metrics.set(name, w as f64 / work.max(1) as f64);
        }
        metrics.set("shard.makespan_sim_us", p.sharded_makespan * us);
        metrics.set("sharded.max_concurrent", p.max_concurrent as f64);
        metrics.set("runtime.allocs_per_op", allocs as f64 / n);
    }

    fn layer_extras(&mut self, config: &RunConfig, metrics: &mut Metrics, _: &mut Checks) {
        // The simulator floor of the five UPMEM programs that are one kernel
        // with no host-side preparation, driven on a bare `UpmemSystem`,
        // against the same programs through the session: three rounds back
        // to back, the fastest of each program on either side.
        let rounds = if config.smoke { 1 } else { 3 };
        let (mut direct_s, mut session_s, mut programs) = (0.0, 0.0, 0usize);
        for (id, inp, _) in &self.data {
            let Some(program) = direct::program_of(*id, SCALE, inp) else {
                continue;
            };
            let (mut direct, mut session) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..rounds {
                let start = Instant::now();
                let mut d = Direct::new(RANKS, &self.pool);
                std::hint::black_box(d.run(&program));
                drop(d);
                direct = direct.min(start.elapsed().as_secs_f64());
                let start = Instant::now();
                let mut s = runner::cnm_session(RANKS, self.upmem_options());
                std::hint::black_box(runner::run_session(*id, SCALE, inp, &mut s));
                drop(s);
                session = session.min(start.elapsed().as_secs_f64());
            }
            direct_s += direct;
            session_s += session;
            programs += 1;
        }
        metrics.set(
            "upmem.direct_us_per_op",
            direct_s * 1e6 / programs.max(1) as f64,
        );
        metrics.set("sim.direct_share_pct", 100.0 * direct_s / session_s);
        probes::simulators(config, &self.pool, metrics);
    }

    fn trace_capacity(&self) -> usize {
        100_000
    }
}
