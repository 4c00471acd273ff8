//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (Section 4), plus the heterogeneous-sharding study
//! (`EXPERIMENTS.md`).

use cinm_ir::printer::func_lines_of_code;
use cinm_lowering::cnm_op::CnmOp;
use cinm_lowering::{
    CimRunOptions, ShardError, ShardSplit, ShardedBackend, ShardedRunOptions, UpmemBackend,
    UpmemRunOptions,
};
use cinm_runtime::PoolHandle;
use cinm_workloads::{build_func, data, Scale, WorkloadId, WorkloadParams};
use cpu_sim::kernels;
use cpu_sim::model::CpuModel;
use upmem_sim::BinOp;

use crate::runner;
use crate::serve::{ServeError, ServerOptions, SessionServer, TenantSpec};
use crate::session::{Session, SessionOptions};
use crate::shard::{ShardPlanner, ShardPolicy};
use crate::target::Target;

/// Geometric mean of a slice of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

// ---------------------------------------------------------------------------
// Figure 10: CIM configurations vs the ARM host
// ---------------------------------------------------------------------------

/// One row of the Figure 10 reproduction.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Workload name.
    pub workload: String,
    /// Speedup of the plain `cim` configuration over the ARM host.
    pub cim: f64,
    /// Speedup of `cim-min-writes`.
    pub cim_min_writes: f64,
    /// Speedup of `cim-parallel`.
    pub cim_parallel: f64,
    /// Speedup of `cim-opt`.
    pub cim_opt: f64,
    /// Tile-write reduction of min-writes over the baseline.
    pub write_reduction: f64,
    /// Energy of `cim-opt` relative to the ARM host (host / cim-opt; > 1 is
    /// better).
    pub energy_gain: f64,
}

/// The Figure 10 reproduction: speedups of the four CIM configurations over
/// the ARM in-order host, plus write-reduction and energy columns.
pub fn figure10(scale: Scale) -> Vec<Fig10Row> {
    figure10_with_runtime(scale, 1, &PoolHandle::with_threads(1))
}

/// [`figure10`] with an explicit host-thread count for the functional
/// simulation, on an explicit shared worker pool (the `cinm-experiments`
/// binary constructs one pool for all figures): the sweep runs faster on
/// multicore hosts, the reproduced numbers are bit-identical.
pub fn figure10_with_runtime(
    scale: Scale,
    host_threads: usize,
    pool: &PoolHandle,
) -> Vec<Fig10Row> {
    let arm = CpuModel::arm_host();
    let mut rows = Vec::new();
    for id in WorkloadId::cim_suite() {
        let arm_seconds = runner::cpu_seconds(id, scale, &arm);
        let arm_energy = arm.energy_joules(&runner::cpu_op_counts(id, scale));
        let configs = [
            CimRunOptions::default()
                .with_host_threads(host_threads)
                .with_pool(pool.clone()),
            CimRunOptions {
                min_writes: true,
                parallel_tiles: false,
                host_threads,
                pool: pool.clone(),
            },
            CimRunOptions {
                min_writes: false,
                parallel_tiles: true,
                host_threads,
                pool: pool.clone(),
            },
            CimRunOptions::optimized()
                .with_host_threads(host_threads)
                .with_pool(pool.clone()),
        ];
        let mut speedups = [0.0f64; 4];
        let mut writes = [0u64; 4];
        let mut opt_energy = 0.0;
        for (i, cfg) in configs.iter().enumerate() {
            let (_, stats) = runner::run_cim_with_stats(id, scale, cfg.clone());
            speedups[i] = arm_seconds / stats.total_seconds();
            writes[i] = stats.xbar.tile_writes;
            if i == 3 {
                opt_energy = stats.total_energy_j();
            }
        }
        rows.push(Fig10Row {
            workload: id.name().to_string(),
            cim: speedups[0],
            cim_min_writes: speedups[1],
            cim_parallel: speedups[2],
            cim_opt: speedups[3],
            write_reduction: writes[0] as f64 / writes[1].max(1) as f64,
            energy_gain: arm_energy / opt_energy.max(1e-30),
        });
    }
    rows
}

/// Formats the Figure 10 rows as a printable table, with the geomean row the
/// paper reports.
pub fn format_figure10(rows: &[Fig10Row]) -> String {
    let mut out = String::from(
        "Figure 10 — speedup over the ARM host (and write reduction / energy gain of cim-opt)\n",
    );
    out.push_str("workload     cim   min-writes  parallel   cim-opt   writes/  energy\n");
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>6.1}x {:>9.1}x {:>9.1}x {:>9.1}x {:>8.1}x {:>7.2}x\n",
            r.workload,
            r.cim,
            r.cim_min_writes,
            r.cim_parallel,
            r.cim_opt,
            r.write_reduction,
            r.energy_gain
        ));
    }
    let gm = |f: fn(&Fig10Row) -> f64| geomean(&rows.iter().map(f).collect::<Vec<_>>());
    out.push_str(&format!(
        "{:<10} {:>6.1}x {:>9.1}x {:>9.1}x {:>9.1}x {:>8.1}x {:>7.2}x\n",
        "geomean",
        gm(|r| r.cim),
        gm(|r| r.cim_min_writes),
        gm(|r| r.cim_parallel),
        gm(|r| r.cim_opt),
        gm(|r| r.write_reduction),
        gm(|r| r.energy_gain),
    ));
    out
}

// ---------------------------------------------------------------------------
// Energy study: per-workload joules on host, CNM and CIM
// ---------------------------------------------------------------------------

/// One row of the energy study: joules of the same workload on the ARM
/// host (the Figure 10 baseline), the optimised UPMEM configuration
/// (pipeline + DMA + static + transfer energy) and the optimised CIM
/// configuration (tile programming + analog MVMs + transfers). See
/// `EXPERIMENTS.md` for the paper-side figures these reproduce.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Workload name.
    pub workload: String,
    /// ARM host energy in joules.
    pub host_j: f64,
    /// `cinm-opt` UPMEM energy in joules (16 ranks).
    pub cnm_j: f64,
    /// `cim-opt` crossbar energy in joules.
    pub cim_j: f64,
}

impl EnergyRow {
    /// Host-over-CNM energy gain (> 1 means CNM spends fewer joules).
    pub fn cnm_gain(&self) -> f64 {
        self.host_j / self.cnm_j.max(1e-30)
    }

    /// Host-over-CIM energy gain (> 1 means CIM spends fewer joules).
    pub fn cim_gain(&self) -> f64 {
        self.host_j / self.cim_j.max(1e-30)
    }
}

/// The energy study over the Figure 10 workload suite.
pub fn energy(scale: Scale) -> Vec<EnergyRow> {
    energy_with_runtime(scale, 1, &PoolHandle::with_threads(1))
}

/// [`energy`] with an explicit host-thread count for the functional
/// simulation, on an explicit shared worker pool; the reproduced joule
/// figures are bit-identical.
pub fn energy_with_runtime(scale: Scale, host_threads: usize, pool: &PoolHandle) -> Vec<EnergyRow> {
    let arm = CpuModel::arm_host();
    WorkloadId::cim_suite()
        .into_iter()
        .map(|id| {
            let host_j = arm.energy_joules(&runner::cpu_op_counts(id, scale));
            let (_, cnm) = runner::run_upmem_with_stats(
                id,
                scale,
                16,
                UpmemRunOptions::optimized()
                    .with_host_threads(host_threads)
                    .with_pool(pool.clone()),
            );
            let (_, cim) = runner::run_cim_with_stats(
                id,
                scale,
                CimRunOptions::optimized()
                    .with_host_threads(host_threads)
                    .with_pool(pool.clone()),
            );
            EnergyRow {
                workload: id.name().to_string(),
                host_j,
                cnm_j: cnm.total_energy_j(),
                cim_j: cim.total_energy_j(),
            }
        })
        .collect()
}

/// Formats the energy rows as a printable table with geomean gains.
pub fn format_energy(rows: &[EnergyRow]) -> String {
    let mut out = String::from("Energy — joules per workload (host vs cinm-opt CNM vs cim-opt)\n");
    out.push_str("workload    host [J]     cnm [J]     cim [J]   host/cnm  host/cim\n");
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>9.3e} {:>11.3e} {:>11.3e} {:>9.2}x {:>8.2}x\n",
            r.workload,
            r.host_j,
            r.cnm_j,
            r.cim_j,
            r.cnm_gain(),
            r.cim_gain()
        ));
    }
    let gm = |f: fn(&EnergyRow) -> f64| geomean(&rows.iter().map(f).collect::<Vec<_>>());
    out.push_str(&format!(
        "{:<10} {:>9} {:>11} {:>11} {:>9.2}x {:>8.2}x\n",
        "geomean",
        "",
        "",
        "",
        gm(EnergyRow::cnm_gain),
        gm(EnergyRow::cim_gain),
    ));
    out
}

// ---------------------------------------------------------------------------
// Figure 11: impact of the CINM device-aware optimisations on UPMEM
// ---------------------------------------------------------------------------

/// One row of the Figure 11 reproduction.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Workload name.
    pub workload: String,
    /// Number of DIMMs.
    pub ranks: usize,
    /// Execution time of the `cinm-nd` configuration in milliseconds.
    pub cinm_ms: f64,
    /// Execution time of the `cinm-opt-nd` configuration in milliseconds.
    pub cinm_opt_ms: f64,
}

impl Fig11Row {
    /// Relative improvement of the optimised configuration.
    pub fn improvement(&self) -> f64 {
        1.0 - self.cinm_opt_ms / self.cinm_ms
    }
}

/// The Figure 11 reproduction: `cinm-{4,8,16}d` vs `cinm-opt-{4,8,16}d`.
pub fn figure11(scale: Scale) -> Vec<Fig11Row> {
    figure11_with_runtime(scale, 1, &PoolHandle::with_threads(1))
}

/// [`figure11`] with an explicit host-thread count for the functional
/// simulation, on an explicit shared worker pool: the sweep runs faster on
/// multicore hosts, the reproduced numbers are bit-identical.
pub fn figure11_with_runtime(
    scale: Scale,
    host_threads: usize,
    pool: &PoolHandle,
) -> Vec<Fig11Row> {
    let mut rows = Vec::new();
    for id in WorkloadId::upmem_opt_suite() {
        for ranks in [4usize, 8, 16] {
            let (_, base) = runner::run_upmem_with_stats(
                id,
                scale,
                ranks,
                UpmemRunOptions::default()
                    .with_host_threads(host_threads)
                    .with_pool(pool.clone()),
            );
            let (_, opt) = runner::run_upmem_with_stats(
                id,
                scale,
                ranks,
                UpmemRunOptions::optimized()
                    .with_host_threads(host_threads)
                    .with_pool(pool.clone()),
            );
            // As in the PrIM methodology the figures report DPU kernel
            // execution time; bulk host<->MRAM loads are reported separately
            // by the simulator statistics.
            rows.push(Fig11Row {
                workload: id.name().to_string(),
                ranks,
                cinm_ms: base.kernel_seconds * 1e3,
                cinm_opt_ms: opt.kernel_seconds * 1e3,
            });
        }
    }
    rows
}

/// Formats the Figure 11 rows, including the per-rank geometric-mean
/// improvement the paper reports (47 % / 42 % / 40 %).
pub fn format_figure11(rows: &[Fig11Row]) -> String {
    let mut out = String::from("Figure 11 — execution time (ms), cinm vs cinm-opt\n");
    out.push_str("workload   ranks   cinm [ms]   cinm-opt [ms]   improvement\n");
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>4}d {:>11.3} {:>15.3} {:>12.1}%\n",
            r.workload,
            r.ranks,
            r.cinm_ms,
            r.cinm_opt_ms,
            100.0 * r.improvement()
        ));
    }
    for ranks in [4usize, 8, 16] {
        let gains: Vec<f64> = rows
            .iter()
            .filter(|r| r.ranks == ranks)
            .map(|r| r.cinm_ms / r.cinm_opt_ms)
            .collect();
        out.push_str(&format!(
            "geomean speedup of cinm-opt-{}d over cinm-{}d: {:.2}x ({:.0}% faster)\n",
            ranks,
            ranks,
            geomean(&gains),
            100.0 * (1.0 - 1.0 / geomean(&gains)),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 12: CPU vs PrIM vs CINM on the PrIM suite
// ---------------------------------------------------------------------------

/// One row of the Figure 12 reproduction.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Workload name.
    pub workload: String,
    /// Number of DIMMs.
    pub ranks: usize,
    /// Optimised CPU baseline in milliseconds.
    pub cpu_opt_ms: f64,
    /// Hand-optimised PrIM DPU code in milliseconds.
    pub prim_ms: f64,
    /// CINM-generated code in milliseconds.
    pub cinm_opt_ms: f64,
}

/// Per-workload model of the PrIM hand-written kernels relative to the
/// CINM-generated ones (documented in EXPERIMENTS.md): PrIM also blocks into
/// WRAM, but with fixed 256-element tiles, and its histogram kernel updates a
/// shared copy, which is where the paper observes CINM's largest win.
fn prim_options(id: WorkloadId, host_threads: usize, pool: &PoolHandle) -> UpmemRunOptions {
    let overhead = match id {
        WorkloadId::HstL => 3.4,
        WorkloadId::Mlp => 1.7,
        WorkloadId::Red => 1.4,
        WorkloadId::Sel => 1.3,
        WorkloadId::Va => 1.2,
        WorkloadId::Bfs => 1.15,
        WorkloadId::Mv => 1.0,
        WorkloadId::Ts => 0.93,
        _ => 1.0,
    };
    UpmemRunOptions {
        locality_optimized: true,
        instruction_overhead: overhead,
        wram_tile_elems: Some(256),
        host_threads,
        pool: pool.clone(),
    }
}

/// The Figure 12 reproduction.
pub fn figure12(scale: Scale) -> Vec<Fig12Row> {
    figure12_with_runtime(scale, 1, &PoolHandle::with_threads(1))
}

/// [`figure12`] with an explicit host-thread count for the functional
/// simulation, on an explicit shared worker pool: the sweep runs faster on
/// multicore hosts, the reproduced numbers are bit-identical.
pub fn figure12_with_runtime(
    scale: Scale,
    host_threads: usize,
    pool: &PoolHandle,
) -> Vec<Fig12Row> {
    let xeon = CpuModel::xeon_opt();
    let mut rows = Vec::new();
    for id in WorkloadId::prim_suite() {
        let cpu_ms = runner::cpu_seconds(id, scale, &xeon) * 1e3;
        for ranks in [4usize, 8, 16] {
            let (_, prim) = runner::run_upmem_with_stats(
                id,
                scale,
                ranks,
                prim_options(id, host_threads, pool),
            );
            let (_, cinm) = runner::run_upmem_with_stats(
                id,
                scale,
                ranks,
                UpmemRunOptions::optimized()
                    .with_host_threads(host_threads)
                    .with_pool(pool.clone()),
            );
            rows.push(Fig12Row {
                workload: id.name().to_string(),
                ranks,
                cpu_opt_ms: cpu_ms,
                prim_ms: prim.kernel_seconds * 1e3,
                cinm_opt_ms: cinm.kernel_seconds * 1e3,
            });
        }
    }
    rows
}

/// Formats the Figure 12 rows with the aggregate ratios the paper reports.
pub fn format_figure12(rows: &[Fig12Row]) -> String {
    let mut out =
        String::from("Figure 12 — execution time (ms), cpu-opt vs prim-nd vs cinm-opt-nd\n");
    out.push_str("workload   ranks   cpu-opt [ms]   prim [ms]   cinm-opt [ms]\n");
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>4}d {:>13.3} {:>11.3} {:>14.3}\n",
            r.workload, r.ranks, r.cpu_opt_ms, r.prim_ms, r.cinm_opt_ms
        ));
    }
    for ranks in [4usize, 8, 16] {
        let sel: Vec<&Fig12Row> = rows.iter().filter(|r| r.ranks == ranks).collect();
        let prim_vs_cpu = geomean(
            &sel.iter()
                .map(|r| r.cpu_opt_ms / r.prim_ms)
                .collect::<Vec<_>>(),
        );
        let cinm_vs_prim = geomean(
            &sel.iter()
                .map(|r| r.prim_ms / r.cinm_opt_ms)
                .collect::<Vec<_>>(),
        );
        out.push_str(&format!(
            "{}d: prim is {:.1}x faster than cpu-opt; cinm-opt is {:.2}x faster than prim\n",
            ranks, prim_vs_cpu, cinm_vs_prim
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Heterogeneous sharding: one op across UPMEM + CIM + host
// ---------------------------------------------------------------------------

/// One row of the heterogeneous-sharding study: a single op executed on
/// each device alone and co-executed across all of them.
#[derive(Debug, Clone)]
pub struct ShardedRow {
    /// Workload name.
    pub workload: String,
    /// Simulated milliseconds with all work on the UPMEM grid.
    pub cnm_ms: f64,
    /// Simulated milliseconds with all work on the crossbar (`None` for ops
    /// the MVM-only crossbar backend cannot execute).
    pub cim_ms: Option<f64>,
    /// Simulated milliseconds with all work on the host.
    pub host_ms: f64,
    /// Simulated makespan milliseconds of the sharded run (devices execute
    /// concurrently; the slowest shard defines completion).
    pub sharded_ms: f64,
    /// Work fractions of the sharded run, `[cnm, cim, host]`.
    pub fractions: [f64; 3],
    /// Per-device utilisation of the sharded run (busy time / makespan).
    pub utilization: [f64; 3],
    /// Maximum device tasks observed in flight simultaneously.
    pub max_concurrent: usize,
}

impl ShardedRow {
    /// The fastest single-device time.
    pub fn best_single_ms(&self) -> f64 {
        let mut best = self.cnm_ms.min(self.host_ms);
        if let Some(cim) = self.cim_ms {
            best = best.min(cim);
        }
        best
    }

    /// Speedup of the sharded run over the best single device.
    pub fn speedup_vs_best_single(&self) -> f64 {
        self.best_single_ms() / self.sharded_ms.max(1e-30)
    }
}

/// The shardable subset of the suite: one representative per sharded work
/// dimension (GEMM/GEMV rows; element-wise, reduction and histogram
/// elements).
pub fn sharded_suite() -> Vec<WorkloadId> {
    vec![
        WorkloadId::Mm,
        WorkloadId::Mv,
        WorkloadId::Va,
        WorkloadId::Red,
        WorkloadId::HstL,
    ]
}

/// The heterogeneous-sharding study with the auto-balancing policy.
pub fn sharded(scale: Scale) -> Vec<ShardedRow> {
    sharded_with_runtime(scale, 1, &PoolHandle::with_threads(1), ShardPolicy::Auto)
        .expect("auto policy never fails")
}

/// [`sharded`] with an explicit host-thread count, shared worker pool and
/// shard policy. Every sharded (and single-device) result is checked
/// bit-identical against the `cpu_sim::kernels` golden before timing is
/// reported. A user-forced policy whose fractions do not sum to 1 is an
/// error; a policy that necessarily places work on the crossbar
/// ([`ShardPolicy::requires_cim`]) skips the streaming ops the MVM-only
/// backend cannot execute instead of failing the whole sweep.
pub fn sharded_with_runtime(
    scale: Scale,
    host_threads: usize,
    pool: &PoolHandle,
    policy: ShardPolicy,
) -> Result<Vec<ShardedRow>, ShardError> {
    const RANKS: usize = 16;
    let planner = ShardPlanner::with_default_models(RANKS).with_policy(policy);
    let options = || {
        ShardedRunOptions::default()
            .with_ranks(RANKS)
            .with_pool(pool.clone())
            .with_host_threads(host_threads)
    };
    let mut rows = Vec::new();
    for id in sharded_suite() {
        let inp = runner::inputs(id, scale);
        let b = &inp.buffers;
        let (a, rhs) = (&b[0][..], b.get(1).map_or(&[][..], Vec::as_slice));
        let (op, golden, operands): (CnmOp, Vec<i32>, Vec<&[i32]>) = match id.params(scale) {
            WorkloadParams::Gemm { m, k, n } => (
                CnmOp::Gemm { m, k, n },
                kernels::matmul(a, rhs, m, k, n),
                vec![a, rhs],
            ),
            WorkloadParams::Gemv { rows, cols } => (
                CnmOp::Gemv { rows, cols },
                kernels::matvec(a, rhs, rows, cols),
                vec![a, rhs],
            ),
            WorkloadParams::Vector { len } => match id {
                WorkloadId::Red => (
                    CnmOp::Reduce {
                        op: BinOp::Add,
                        len,
                    },
                    vec![kernels::reduce_add(a)],
                    vec![a],
                ),
                _ => (
                    CnmOp::Elementwise {
                        op: BinOp::Add,
                        len,
                    },
                    kernels::vector_add(a, rhs),
                    vec![a, rhs],
                ),
            },
            WorkloadParams::Histogram {
                len,
                bins,
                max_value,
            } => (
                CnmOp::Histogram {
                    bins,
                    max_value,
                    len,
                },
                kernels::histogram(a, bins, max_value),
                vec![a],
            ),
            other => panic!("{} ({other:?}) is not in the sharded suite", id.name()),
        };
        let run = |be: &mut ShardedBackend, split: &ShardSplit| be.run(op, &operands, split);
        // The crossbar runs exactly the ops its cost model prices.
        let cim_supported = planner.estimate(Target::Cim, op).is_some();
        if policy.requires_cim() && !cim_supported {
            continue;
        }
        let work = op.work();

        // Single-device baselines (each on a fresh backend for clean stats).
        let single_ms = |split: ShardSplit| -> f64 {
            let mut be = ShardedBackend::new(options());
            let got = run(&mut be, &split).expect("single-device shard");
            assert_eq!(got, golden, "{} single-device result", id.name());
            be.stats().sim_makespan_seconds * 1e3
        };
        let cnm_ms = single_ms(ShardSplit::all_cnm(work));
        let host_ms = single_ms(ShardSplit::all_host(work));
        let cim_ms = cim_supported.then(|| single_ms(ShardSplit::all_cim(work)));

        // The sharded run under the requested policy.
        let plan = planner.plan_op(op)?;
        let mut be = ShardedBackend::new(options());
        let got = run(&mut be, &plan.split)?;
        assert_eq!(got, golden, "{} sharded result", id.name());
        let stats = *be.stats();
        rows.push(ShardedRow {
            workload: id.name().to_string(),
            cnm_ms,
            cim_ms,
            host_ms,
            sharded_ms: stats.sim_makespan_seconds * 1e3,
            fractions: stats.fractions(),
            utilization: stats.utilization(),
            max_concurrent: stats.max_concurrent,
        });
    }
    Ok(rows)
}

/// Formats the sharded rows as a printable table.
pub fn format_sharded(rows: &[ShardedRow]) -> String {
    let mut out = String::from(
        "Heterogeneous sharding — one op across UPMEM (cnm) + crossbar (cim) + host\n",
    );
    out.push_str(
        "workload   cnm [ms]   cim [ms]  host [ms]  sharded [ms]  frac cnm/cim/host   vs best\n",
    );
    for r in rows {
        let cim = r
            .cim_ms
            .map(|v| format!("{v:>9.3}"))
            .unwrap_or_else(|| format!("{:>9}", "-"));
        out.push_str(&format!(
            "{:<10} {:>8.3} {} {:>10.3} {:>13.3}   {:.2}/{:.2}/{:.2}      {:>6.2}x\n",
            r.workload,
            r.cnm_ms,
            cim,
            r.host_ms,
            r.sharded_ms,
            r.fractions[0],
            r.fractions[1],
            r.fractions[2],
            r.speedup_vs_best_single(),
        ));
    }
    let speedups: Vec<f64> = rows
        .iter()
        .map(ShardedRow::speedup_vs_best_single)
        .collect();
    out.push_str(&format!(
        "geomean speedup of auto-sharding over the best single device: {:.2}x\n",
        geomean(&speedups)
    ));
    out
}

// ---------------------------------------------------------------------------
// Multi-step BFS to convergence (Session residency showcase)
// ---------------------------------------------------------------------------

/// Result of running breadth-first search to convergence, comparing the
/// resident [`Session`] loop against the eager per-op loop.
#[derive(Debug, Clone)]
pub struct BfsConvergence {
    /// Vertices of the graph.
    pub vertices: usize,
    /// Average degree.
    pub degree: usize,
    /// Frontier expansions until the frontier emptied.
    pub iterations: usize,
    /// Vertices reached (including the seed frontier).
    pub reached: usize,
    /// Simulated milliseconds of the session loop.
    pub session_sim_ms: f64,
    /// Simulated milliseconds of the eager per-op loop.
    pub eager_sim_ms: f64,
    /// Host-interface bytes of the session loop.
    pub session_bytes: u64,
    /// Host-interface bytes of the eager loop.
    pub eager_bytes: u64,
    /// Memoized-plan replays of the session loop (steady-state iterations
    /// that paid no compilation).
    pub replays: u64,
    /// Session `run()` calls of the session loop (one per frontier
    /// expansion).
    pub runs: u64,
    /// Kernel launches of the (optimizer-on) session loop.
    pub session_launches: u64,
    /// Kernel launches of the same loop with the graph optimizer disabled —
    /// the pre-optimizer baseline.
    pub unopt_launches: u64,
    /// Fused element-wise groups the optimizer emitted while compiling the
    /// session loop.
    pub fused_groups: u64,
}

impl BfsConvergence {
    /// How many times fewer bytes the resident loop moved.
    pub fn byte_reduction(&self) -> f64 {
        self.eager_bytes as f64 / (self.session_bytes.max(1)) as f64
    }

    /// Simulated-time speedup of the resident loop.
    pub fn sim_speedup(&self) -> f64 {
        self.eager_sim_ms / self.session_sim_ms.max(1e-30)
    }

    /// Fraction of `run()` calls that replayed a memoized plan.
    pub fn replay_rate(&self) -> f64 {
        self.replays as f64 / (self.runs.max(1)) as f64
    }
}

/// Runs partitioned BFS to convergence (the `bfs` experiment).
///
/// The frontier, visited bitmap and CSR fragments live as session tensors:
/// each iteration records `bfs_step → xor → and → or → reduce` and only the
/// reduced new-frontier count returns to the host, so the CSR fragments are
/// scattered **once** and the frontier never round-trips. The eager loop
/// pays the full scatter + gather of every operand on every iteration.
/// Results (the reached set and the iteration count) are asserted identical
/// between the session loop, the eager loop and a pure-host reference.
pub fn bfs_convergence(scale: Scale, host_threads: usize, pool: &PoolHandle) -> BfsConvergence {
    const RANKS: usize = 16;
    let WorkloadParams::Bfs { vertices, degree } = WorkloadId::Bfs.params(scale) else {
        unreachable!("bfs params");
    };
    let inp = runner::inputs(WorkloadId::Bfs, scale);
    let b = &inp.buffers;
    let options = ShardedRunOptions::default()
        .with_ranks(RANKS)
        .with_pool(pool.clone())
        .with_host_threads(host_threads);
    let dpus = upmem_sim::UpmemConfig::with_ranks(RANKS).num_dpus();
    let f = runner::bfs_fragments(&b[0], &b[1], &b[2], vertices, degree, dpus);
    let (vp, used) = (f.vertices_per_dpu, f.used_dpus);
    let n = used * vp;
    let max_iters = vp + 2; // partitioned reachability converges within the
                            // partition diameter
    let ones_host = vec![1i32; n];

    // Pure-host reference (partitioned semantics, plain Rust).
    let (host_visited, host_iters) = {
        let mut frontier = f.frontier.clone();
        let mut visited = f.frontier.clone();
        let mut iters = 0usize;
        loop {
            let mut raw = Vec::with_capacity(n);
            for part in 0..used {
                raw.extend_from_slice(&kernels::bfs_step(
                    &f.rows[part * (vp + 1)..(part + 1) * (vp + 1)],
                    &f.cols[part * vp * degree..(part + 1) * vp * degree],
                    &frontier[part * vp..(part + 1) * vp],
                    vp,
                ));
            }
            let fresh: Vec<i32> = raw
                .iter()
                .zip(&visited)
                .map(|(&r, &v)| r & (v ^ 1))
                .collect();
            for (v, &r) in visited.iter_mut().zip(&raw) {
                *v |= r;
            }
            iters += 1;
            let count: i32 = fresh.iter().sum();
            frontier = fresh;
            if count == 0 || iters >= max_iters {
                break;
            }
        }
        (visited, iters)
    };

    // Resident session loop, run twice: once with the graph optimizer (the
    // chain's `xor → and → or` collapses into one fused launch per
    // iteration) and once without it (the pre-optimizer baseline, one
    // launch per element-wise op).
    let run_session = |optimizer: bool| {
        let mut sess = Session::new(
            SessionOptions::default()
                .with_policy(ShardPolicy::Single(Target::Cnm))
                .with_sharded(options.clone())
                .with_optimizer(optimizer),
        );
        let rows_t = sess.vector(&f.rows);
        let cols_t = sess.vector(&f.cols);
        let ones_t = sess.vector(&ones_host);
        let mut frontier_t = sess.vector(&f.frontier);
        let mut visited_t = sess.vector(&f.frontier);
        let mut iterations = 0usize;
        loop {
            let raw = sess.bfs_step(rows_t, cols_t, frontier_t, vp, degree, used);
            let not_visited = sess.elementwise(BinOp::Xor, visited_t, ones_t);
            let fresh = sess.elementwise(BinOp::And, raw, not_visited);
            let visited_next = sess.elementwise(BinOp::Or, visited_t, raw);
            let count = sess.reduce(BinOp::Add, fresh);
            sess.run().expect("cnm placement never fails to plan");
            iterations += 1;
            let c = sess.fetch_scalar(count);
            frontier_t = fresh;
            visited_t = visited_next;
            if c == 0 || iterations >= max_iters {
                break;
            }
        }
        let visited = sess.fetch(visited_t);
        let stats = *sess.upmem_stats();
        let (runs, replays) = sess.run_counts();
        (
            visited,
            stats,
            iterations,
            runs,
            replays,
            sess.optimizer_stats(),
        )
    };
    let (unopt_visited, unopt_stats, unopt_iters, ..) = run_session(false);
    let (session_visited, session_stats, iterations, runs, replays, opt) = run_session(true);
    assert_eq!(session_visited, unopt_visited, "optimizer on vs off");
    assert_eq!(iterations, unopt_iters, "optimizer on vs off iterations");

    // Eager per-op loop (the oracle): same computation, full round-trips.
    let mut be = UpmemBackend::new(RANKS, {
        let mut o = options.upmem.clone();
        o.pool = pool.clone();
        o.host_threads = host_threads;
        o
    });
    let mut frontier = f.frontier.clone();
    let mut visited = f.frontier.clone();
    let mut eager_iters = 0usize;
    loop {
        let raw = be.bfs_step(&f.rows, &f.cols, &frontier, vp, degree, used);
        let not_visited = be.elementwise(BinOp::Xor, &visited, &ones_host);
        let fresh = be.elementwise(BinOp::And, &raw, &not_visited);
        visited = be.elementwise(BinOp::Or, &visited, &raw);
        let count = be.reduce(BinOp::Add, &fresh);
        eager_iters += 1;
        frontier = fresh;
        if count == 0 || eager_iters >= max_iters {
            break;
        }
    }

    assert_eq!(session_visited, host_visited, "session vs host reference");
    assert_eq!(visited, host_visited, "eager vs host reference");
    assert_eq!(iterations, host_iters, "iteration counts");
    assert_eq!(iterations, eager_iters, "iteration counts");
    let eager_stats = be.stats();
    BfsConvergence {
        vertices,
        degree,
        iterations,
        reached: host_visited.iter().filter(|&&v| v != 0).count(),
        session_sim_ms: session_stats.total_ms(),
        eager_sim_ms: eager_stats.total_ms(),
        session_bytes: session_stats.host_to_dpu_bytes + session_stats.dpu_to_host_bytes,
        eager_bytes: eager_stats.host_to_dpu_bytes + eager_stats.dpu_to_host_bytes,
        replays,
        runs,
        session_launches: session_stats.launches,
        unopt_launches: unopt_stats.launches,
        fused_groups: opt.fused_groups,
    }
}

/// Formats the BFS convergence study.
pub fn format_bfs(r: &BfsConvergence) -> String {
    format!(
        "Multi-step BFS to convergence — resident Session loop vs eager per-op loop\n\
         vertices {} (degree {}): {} iterations, {} vertices reached\n\
         session: {:.3} ms simulated, {} host-interface bytes ({} plan replays)\n\
         eager:   {:.3} ms simulated, {} host-interface bytes\n\
         residency moves {:.1}x fewer bytes; simulated speedup {:.2}x\n\
         optimizer: {} launches vs {} unoptimized ({} fused groups); \
         replay rate {:.0}% ({}/{} runs)\n",
        r.vertices,
        r.degree,
        r.iterations,
        r.reached,
        r.session_sim_ms,
        r.session_bytes,
        r.replays,
        r.eager_sim_ms,
        r.eager_bytes,
        r.byte_reduction(),
        r.sim_speedup(),
        r.session_launches,
        r.unopt_launches,
        r.fused_groups,
        r.replay_rate() * 100.0,
        r.replays,
        r.runs,
    )
}

// ---------------------------------------------------------------------------
// Memory pressure: bounded MRAM on BFS and a two-class serving mix
// ---------------------------------------------------------------------------

/// Outcome of running a workload under one MRAM-limit tier.
#[derive(Debug, Clone)]
pub enum PressureOutcome {
    /// The tier ran to completion, bit-identical to the unlimited run.
    Completed {
        /// Evictions the residency layer performed (any flavour).
        evictions: u64,
        /// Evictions that moved data: session spills / serving weight
        /// reloads.
        restores: u64,
        /// Bytes that traffic moved (session device→host spill bytes;
        /// serving host→device weight re-upload bytes).
        traffic_bytes: u64,
        /// Peak per-DPU bytes actually reached (within the limit).
        peak_bytes: usize,
    },
    /// The limit is below the minimal working set: a typed refusal, never
    /// a hang or a wrong answer.
    Refused {
        /// Bytes per DPU the failing allocation needed.
        needed_bytes: usize,
        /// Bytes per DPU that were still available.
        available_bytes: usize,
    },
}

/// One MRAM-limit tier of the memory-pressure study.
#[derive(Debug, Clone)]
pub struct PressureTier {
    /// Limit as a percentage of the workload's unlimited footprint.
    pub percent: u32,
    /// The per-DPU byte limit this tier ran under.
    pub limit_bytes: usize,
    /// What happened.
    pub outcome: PressureOutcome,
}

/// Result of the `pressure` experiment: the BFS session loop and a
/// two-class four-tenant serving mix re-run under shrinking MRAM limits.
#[derive(Debug, Clone)]
pub struct MemoryPressureStudy {
    /// Peak per-DPU bytes of the unlimited BFS run.
    pub bfs_peak_bytes: usize,
    /// BFS tiers (percent of the unlimited peak).
    pub bfs: Vec<PressureTier>,
    /// Per-DPU footprint of the two serving shape classes.
    pub serving_class_bytes: [usize; 2],
    /// Serving tiers (percent of the two classes' combined footprint).
    pub serving: Vec<PressureTier>,
}

/// Runs the memory-pressure study (the `pressure` experiment).
///
/// **BFS** is all-hot: every device tensor (CSR fragments, frontier,
/// visited bitmap) is touched on every iteration, so the only slack below
/// the peak is free drops of host-backed tensors (re-scattered on the next
/// run, no spill traffic) — and once that slack is gone a tighter limit
/// refuses with a typed error instead of computing wrong results.
/// **Serving** has cold state: four tenants over two gemv shape
/// classes, rounds alternating between the classes, so a budget that fits
/// either class alone (but not both) evicts and reloads the idle class's
/// weights every round — bit-identical results, billed reload traffic.
pub fn memory_pressure(
    scale: Scale,
    host_threads: usize,
    pool: &PoolHandle,
) -> MemoryPressureStudy {
    const RANKS: usize = 16;
    let WorkloadParams::Bfs { vertices, degree } = WorkloadId::Bfs.params(scale) else {
        unreachable!("bfs params");
    };
    let inp = runner::inputs(WorkloadId::Bfs, scale);
    let b = &inp.buffers;
    let options = ShardedRunOptions::default()
        .with_ranks(RANKS)
        .with_pool(pool.clone())
        .with_host_threads(host_threads);
    let dpus = upmem_sim::UpmemConfig::with_ranks(RANKS).num_dpus();
    let f = runner::bfs_fragments(&b[0], &b[1], &b[2], vertices, degree, dpus);
    let (vp, used) = (f.vertices_per_dpu, f.used_dpus);
    let n = used * vp;
    let max_iters = vp + 2;
    let ones_host = vec![1i32; n];

    // The BFS session loop under an optional limit. Identical to the `bfs`
    // experiment's loop, with run errors surfaced instead of expected away.
    let run_bfs = |limit: Option<usize>| -> Result<
        (Vec<i32>, usize, crate::session::ResidencyStats),
        ShardError,
    > {
        let mut o = SessionOptions::default()
            .with_policy(ShardPolicy::Single(Target::Cnm))
            .with_sharded(options.clone());
        if let Some(bytes) = limit {
            o = o.with_mram_limit_bytes(bytes);
        }
        let mut sess = Session::new(o);
        let rows_t = sess.vector(&f.rows);
        let cols_t = sess.vector(&f.cols);
        let ones_t = sess.vector(&ones_host);
        let mut frontier_t = sess.vector(&f.frontier);
        let mut visited_t = sess.vector(&f.frontier);
        let mut iterations = 0usize;
        loop {
            let raw = sess.bfs_step(rows_t, cols_t, frontier_t, vp, degree, used);
            let not_visited = sess.elementwise(BinOp::Xor, visited_t, ones_t);
            let fresh = sess.elementwise(BinOp::And, raw, not_visited);
            let visited_next = sess.elementwise(BinOp::Or, visited_t, raw);
            let count = sess.reduce(BinOp::Add, fresh);
            sess.run()?;
            iterations += 1;
            let c = sess.fetch_scalar(count);
            frontier_t = fresh;
            visited_t = visited_next;
            if c == 0 || iterations >= max_iters {
                break;
            }
        }
        let visited = sess.fetch(visited_t);
        Ok((visited, iterations, sess.residency_stats()))
    };

    let (bfs_visited, bfs_iters, bfs_unlimited) =
        run_bfs(None).expect("the unlimited BFS run cannot hit capacity");
    let bfs_peak_bytes = bfs_unlimited.peak_mram_bytes;
    let mut bfs_tiers = Vec::new();
    for percent in [100u32, 75, 50] {
        let limit_bytes = bfs_peak_bytes * percent as usize / 100;
        let outcome = match run_bfs(Some(limit_bytes)) {
            Ok((visited, iterations, res)) => {
                assert_eq!(visited, bfs_visited, "capped BFS diverged at {percent}%");
                assert_eq!(iterations, bfs_iters, "capped BFS iterations at {percent}%");
                assert!(res.peak_mram_bytes <= limit_bytes);
                PressureOutcome::Completed {
                    evictions: res.evictions,
                    restores: res.spills,
                    traffic_bytes: res.spilled_bytes,
                    peak_bytes: res.peak_mram_bytes,
                }
            }
            Err(ShardError::MramExhausted {
                needed_bytes,
                available_bytes,
            }) => PressureOutcome::Refused {
                needed_bytes,
                available_bytes,
            },
            Err(e) => panic!("capped BFS failed with a non-capacity error: {e}"),
        };
        bfs_tiers.push(PressureTier {
            percent,
            limit_bytes,
            outcome,
        });
    }

    // Serving mix: four tenants over two gemv shape classes, rounds
    // alternating between the classes so the idle class is always a cold
    // eviction candidate.
    const ROUNDS: usize = 12;
    let cols = 128usize;
    let class_rows = [256usize, 192];
    let tenant_rows = |i: usize| class_rows[i / 2];
    let weights: Vec<Vec<i32>> = (0..4)
        .map(|i| data::i32_matrix(50 + i as u64, tenant_rows(i), cols, -8, 8))
        .collect();
    let xs: Vec<Vec<i32>> = (0..4)
        .map(|i| data::i32_vec(60 + i as u64, cols, -8, 8))
        .collect();

    struct ServingRun {
        outs: Vec<Vec<i32>>,
        residency: crate::serve::ServerResidency,
        class_bytes: [usize; 2],
    }
    let run_serving = |limit: Option<usize>| -> Result<ServingRun, ServeError> {
        let mut o = ServerOptions::default().with_tenant_slots(4);
        if let Some(bytes) = limit {
            o = o.with_mram_limit_bytes(bytes);
        }
        let mut server = SessionServer::new(o);
        let mut models = Vec::new();
        let mut class_bytes = [0usize; 2];
        for i in 0..4 {
            let t = server.register_tenant(TenantSpec::new(["s0", "s1", "s2", "s3"][i]));
            models.push(server.load_gemv_weights(t, &weights[i], tenant_rows(i), cols)?);
            if i == 1 {
                class_bytes[0] = server.mram_used_bytes();
            }
        }
        class_bytes[1] = server.mram_used_bytes().saturating_sub(class_bytes[0]);
        let mut outs = Vec::new();
        let mut buf = Vec::new();
        for round in 0..ROUNDS {
            let pair = if round % 2 == 0 {
                &models[0..2]
            } else {
                &models[2..4]
            };
            let mut tickets = Vec::new();
            for (k, &m) in pair.iter().enumerate() {
                tickets.push(server.submit(m, &xs[(round + k) % 4])?);
            }
            for &ticket in &tickets {
                server.wait_into(ticket, &mut buf)?;
                outs.push(buf.clone());
            }
        }
        Ok(ServingRun {
            outs,
            residency: server.residency_snapshot(),
            class_bytes,
        })
    };

    let unlimited = run_serving(None).expect("the unlimited serving mix cannot hit capacity");
    let (serving_outs, serving_class_bytes) = (unlimited.outs, unlimited.class_bytes);
    let total = serving_class_bytes[0] + serving_class_bytes[1];
    let (larger, smaller) = (
        serving_class_bytes[0].max(serving_class_bytes[1]),
        serving_class_bytes[0].min(serving_class_bytes[1]),
    );
    // Both classes resident / one class plus slack (thrash) / below either
    // class alone (typed refusal).
    let serving_limits = [total, larger + smaller / 2, smaller / 2];
    let mut serving_tiers = Vec::new();
    for limit_bytes in serving_limits {
        let outcome = match run_serving(Some(limit_bytes)) {
            Ok(ServingRun {
                outs,
                residency: res,
                ..
            }) => {
                assert_eq!(outs, serving_outs, "capped serving mix diverged");
                assert!(res.peak_mram_bytes <= limit_bytes);
                PressureOutcome::Completed {
                    evictions: res.evictions,
                    restores: res.reloads,
                    traffic_bytes: res.reload_bytes,
                    peak_bytes: res.peak_mram_bytes,
                }
            }
            Err(ServeError::CapacityExhausted {
                needed_bytes,
                available_bytes,
            }) => PressureOutcome::Refused {
                needed_bytes,
                available_bytes,
            },
            Err(e) => panic!("capped serving mix failed with a non-capacity error: {e}"),
        };
        serving_tiers.push(PressureTier {
            percent: (limit_bytes * 100 / total.max(1)) as u32,
            limit_bytes,
            outcome,
        });
    }

    MemoryPressureStudy {
        bfs_peak_bytes,
        bfs: bfs_tiers,
        serving_class_bytes,
        serving: serving_tiers,
    }
}

/// Formats the memory-pressure study.
pub fn format_pressure(r: &MemoryPressureStudy) -> String {
    let mut out = String::from(
        "Bounded MRAM — spill/reload traffic vs capacity limit\n\
         BFS session loop (every tensor touched each iteration: slack comes only\n\
         from free drops of host-backed tensors, re-scattered on the next run)\n",
    );
    let fmt_tier = |t: &PressureTier| -> String {
        match &t.outcome {
            PressureOutcome::Completed {
                evictions,
                restores,
                traffic_bytes,
                peak_bytes,
            } => format!(
                "  {:>3}% ({:>6} B/DPU): completed bit-identically — {} evictions, {} restores, {} B traffic, peak {} B/DPU\n",
                t.percent, t.limit_bytes, evictions, restores, traffic_bytes, peak_bytes,
            ),
            PressureOutcome::Refused {
                needed_bytes,
                available_bytes,
            } => format!(
                "  {:>3}% ({:>6} B/DPU): typed refusal — needed {} B, {} B available\n",
                t.percent, t.limit_bytes, needed_bytes, available_bytes,
            ),
        }
    };
    out.push_str(&format!("  unlimited peak: {} B/DPU\n", r.bfs_peak_bytes));
    for t in &r.bfs {
        out.push_str(&fmt_tier(t));
    }
    out.push_str(&format!(
        "4-tenant serving mix, two gemv shape classes ({} + {} B/DPU), rounds alternating classes\n",
        r.serving_class_bytes[0], r.serving_class_bytes[1],
    ));
    for t in &r.serving {
        out.push_str(&fmt_tier(t));
    }
    out
}

// ---------------------------------------------------------------------------
// Table 4: lines of code
// ---------------------------------------------------------------------------

/// One row of the Table 4 reproduction.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Application name.
    pub application: String,
    /// Lines of the CINM (high-level IR) representation.
    pub cinm_loc: usize,
    /// Lines of the hand-written UPMEM C/C++ implementation (from the paper).
    pub upmem_loc: usize,
}

impl Table4Row {
    /// LoC reduction factor.
    pub fn reduction(&self) -> f64 {
        self.upmem_loc as f64 / self.cinm_loc.max(1) as f64
    }
}

/// The Table 4 reproduction: counts the printed high-level IR of every
/// application against the paper's UPMEM C/C++ line counts.
pub fn table4() -> Vec<Table4Row> {
    WorkloadId::all()
        .into_iter()
        .map(|id| {
            let func = build_func(id, Scale::Paper);
            Table4Row {
                application: id.name().to_string(),
                cinm_loc: func_lines_of_code(&func),
                upmem_loc: id.upmem_c_loc(),
            }
        })
        .collect()
}

/// Formats the Table 4 rows.
pub fn format_table4(rows: &[Table4Row]) -> String {
    let mut out = String::from("Table 4 — lines of code, CINM vs hand-written UPMEM C/C++\n");
    out.push_str("application   CINM (IR)   UPMEM (C/C++)   reduction\n");
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>10} {:>15} {:>10.0}x\n",
            r.application,
            r.cinm_loc,
            r.upmem_loc,
            r.reduction()
        ));
    }
    let avg = geomean(&rows.iter().map(Table4Row::reduction).collect::<Vec<_>>());
    out.push_str(&format!("average reduction (geomean): {avg:.1}x\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn figure10_shape_holds_at_test_scale() {
        let rows = figure10(Scale::Test);
        assert_eq!(rows.len(), WorkloadId::cim_suite().len());
        for r in &rows {
            assert!(r.cim > 0.0, "{}", r.workload);
            // min-writes never increases the number of tile writes.
            assert!(r.write_reduction >= 1.0, "{}", r.workload);
            // The fully optimised configuration is at least as fast as the
            // baseline crossbar mapping.
            assert!(r.cim_opt >= r.cim * 0.99, "{}", r.workload);
        }
        let text = format_figure10(&rows);
        assert!(text.contains("geomean"));
    }

    #[test]
    fn figure11_opt_is_never_slower() {
        let rows = figure11(Scale::Test);
        assert_eq!(rows.len(), WorkloadId::upmem_opt_suite().len() * 3);
        for r in &rows {
            assert!(
                r.cinm_opt_ms <= r.cinm_ms * 1.001,
                "{} {}d",
                r.workload,
                r.ranks
            );
        }
        assert!(format_figure11(&rows).contains("geomean"));
    }

    #[test]
    fn figure12_produces_all_rows() {
        let rows = figure12(Scale::Test);
        assert_eq!(rows.len(), WorkloadId::prim_suite().len() * 3);
        for r in &rows {
            assert!(r.cpu_opt_ms > 0.0 && r.prim_ms > 0.0 && r.cinm_opt_ms > 0.0);
        }
        assert!(format_figure12(&rows).contains("cinm-opt is"));
    }

    #[test]
    fn sharded_study_covers_the_suite_and_balances_work() {
        let pool = PoolHandle::with_threads(2);
        let rows = sharded_with_runtime(Scale::Test, 1, &pool, ShardPolicy::Auto).unwrap();
        assert_eq!(rows.len(), sharded_suite().len());
        for r in &rows {
            // Result equality with the golden is asserted inside the runner;
            // here we check the reported accounting is sane.
            assert!(r.sharded_ms > 0.0, "{}", r.workload);
            assert!(
                (r.fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                "{}",
                r.workload
            );
            // The MVM-only crossbar never reports a time for streaming ops.
            match r.workload.as_str() {
                "mm" | "mv" => assert!(r.cim_ms.is_some(), "{}", r.workload),
                _ => {
                    assert!(r.cim_ms.is_none(), "{}", r.workload);
                    assert_eq!(r.fractions[1], 0.0, "{}", r.workload);
                }
            }
        }
        let text = format_sharded(&rows);
        assert!(text.contains("geomean speedup"));
    }

    #[test]
    fn sharded_study_supports_forced_policies() {
        let pool = PoolHandle::with_threads(2);
        // Forcing everything onto the CNM grid must match its baseline.
        let rows = sharded_with_runtime(
            Scale::Test,
            1,
            &pool,
            ShardPolicy::Single(crate::Target::Cnm),
        )
        .unwrap();
        for r in &rows {
            assert_eq!(r.fractions, [1.0, 0.0, 0.0], "{}", r.workload);
            assert!((r.sharded_ms - r.cnm_ms).abs() < 1e-9, "{}", r.workload);
        }
        // Fractions that do not sum to 1 must error, not renormalise.
        assert!(sharded_with_runtime(
            Scale::Test,
            1,
            &pool,
            ShardPolicy::Fractions([0.8, 0.0, 0.1])
        )
        .is_err());
    }

    #[test]
    fn memory_pressure_tiers_are_refusals_or_bit_identical() {
        let pool = PoolHandle::with_threads(2);
        // Bit-identity of completed tiers is asserted inside; check the
        // expected regimes here.
        let r = memory_pressure(Scale::Test, 1, &pool);
        assert!(r.bfs_peak_bytes > 0);
        // BFS is all-hot: the 100% tier completes without churn, tighter
        // tiers refuse with a typed error (never a hang or wrong answer).
        assert!(matches!(
            r.bfs[0].outcome,
            PressureOutcome::Completed { evictions: 0, .. }
        ));
        for t in &r.bfs[1..] {
            assert!(
                matches!(
                    t.outcome,
                    PressureOutcome::Refused { needed_bytes, available_bytes }
                        if needed_bytes > available_bytes
                ),
                "BFS at {}% must refuse: {:?}",
                t.percent,
                t.outcome
            );
        }
        // Serving has cold state: both classes fit at 100%, the middle tier
        // thrashes (evict + reload every class switch, bit-identical), and
        // a budget below either class alone refuses.
        assert!(matches!(
            r.serving[0].outcome,
            PressureOutcome::Completed { evictions: 0, .. }
        ));
        assert!(
            matches!(
                r.serving[1].outcome,
                PressureOutcome::Completed { evictions, restores, traffic_bytes, .. }
                    if evictions > 0 && restores > 0 && traffic_bytes > 0
            ),
            "the middle serving tier must thrash: {:?}",
            r.serving[1].outcome
        );
        assert!(matches!(
            r.serving[2].outcome,
            PressureOutcome::Refused { .. }
        ));
    }

    #[test]
    fn bfs_converges_and_residency_moves_fewer_bytes() {
        let pool = PoolHandle::with_threads(2);
        let r = bfs_convergence(Scale::Test, 1, &pool);
        // Result equality with the host reference and the eager loop is
        // asserted inside; check the accounting here.
        assert!(r.iterations >= 1);
        assert!(r.reached > 0 && r.reached <= r.vertices);
        assert!(
            r.session_bytes < r.eager_bytes,
            "resident BFS must move fewer bytes ({} vs {})",
            r.session_bytes,
            r.eager_bytes
        );
        assert!(r.session_sim_ms <= r.eager_sim_ms);
        // The graph optimizer fuses the per-iteration `xor → and → or`
        // chain: strictly fewer launches than the unoptimized loop, with a
        // bounded number of compilations (canonical signatures make the
        // rotating frontier/visited temporaries replay).
        assert!(
            r.session_launches < r.unopt_launches,
            "fusion must save launches ({} vs {})",
            r.session_launches,
            r.unopt_launches
        );
        assert!(r.fused_groups >= 1, "the chain must fuse");
        assert!(
            r.runs - r.replays <= 2,
            "at most two compilations ({} runs, {} replays)",
            r.runs,
            r.replays
        );
        assert!(format_bfs(&r).contains("fewer bytes"));
    }

    #[test]
    fn table4_reports_substantial_reduction() {
        let rows = table4();
        assert_eq!(rows.len(), 15);
        for r in &rows {
            assert!(
                r.cinm_loc > 0 && r.cinm_loc < 80,
                "{}: {}",
                r.application,
                r.cinm_loc
            );
            assert!(r.reduction() > 1.5, "{}", r.application);
        }
        let avg = geomean(&rows.iter().map(Table4Row::reduction).collect::<Vec<_>>());
        assert!(avg > 5.0, "average reduction {avg}");
        // `sel` is one `cinm.select`: the function's header, the op, the
        // return and the closing brace.
        let sel = rows.iter().find(|r| r.application == "sel").unwrap();
        assert_eq!(sel.cinm_loc, 4);
    }
}
