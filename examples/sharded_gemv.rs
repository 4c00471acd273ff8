//! One GEMV co-executed across UPMEM + the crossbar + the host.
//!
//! Demonstrates the heterogeneous sharded execution layer: the shard
//! planner searches the three devices' prices for the split of least
//! makespan, then the sharded backend dispatches the
//! per-device row shards concurrently onto one shared worker pool and
//! concatenates the results — bit-identical to the single-threaded golden
//! kernel. Every device's planned seconds must be the seconds its shard
//! billed (relative 1e-12): the example fails otherwise.
//!
//! Run with `cargo run --release --example sharded_gemv`.

use cinm::core::shard::ShardPlanner;
use cinm::cpu::kernels;
use cinm::lowering::cnm_op::CnmOp;
use cinm::lowering::{ShardedBackend, ShardedRunOptions, Target};
use cinm::runtime::PoolHandle;

fn main() -> Result<(), String> {
    // One persistent pool shared by the dispatcher and both simulators.
    let pool = PoolHandle::with_threads(4);
    let ranks = 16;
    let (m, k) = (8192usize, 1024usize);
    let a: Vec<i32> = (0..m * k).map(|i| (i % 17) as i32 - 8).collect();
    let x: Vec<i32> = (0..k).map(|i| (i % 13) as i32 - 6).collect();

    // Plan: the split of least estimated makespan across the devices.
    let planner = ShardPlanner::with_default_models(ranks);
    let plan = planner
        .plan_op(CnmOp::Gemv { rows: m, cols: k })
        .expect("auto policy always plans");
    println!(
        "plan for {}x{} gemv: cnm {} rows, cim {} rows, host {} rows{}",
        m,
        k,
        plan.split.cnm,
        plan.split.cim,
        plan.split.host,
        match plan.fallback {
            Some(t) => format!(" (single-target fallback: {t})"),
            None => String::new(),
        }
    );

    // Execute: the three shards run concurrently on the shared pool.
    let mut backend = ShardedBackend::new(
        ShardedRunOptions::default()
            .with_ranks(ranks)
            .with_pool(pool),
    );
    let y = backend
        .gemv(&a, &x, m, k, &plan.split)
        .expect("sharded gemv");
    assert_eq!(y, kernels::matvec(&a, &x, m, k), "bit-identical merge");

    let stats = backend.stats();
    let f = stats.fractions();
    let u = stats.utilization();
    println!(
        "work fractions   cnm/cim/host: {:.2}/{:.2}/{:.2}",
        f[0], f[1], f[2]
    );
    println!(
        "utilisation      cnm/cim/host: {:.2}/{:.2}/{:.2}",
        u[0], u[1], u[2]
    );
    // Simulated seconds only: the output is the same on every machine.
    let (planned, billed) = (plan.estimated_seconds, stats.sim_seconds);
    println!(
        "simulated makespan: {:.3} ms; planned/billed per device: cnm {:.3}/{:.3}, \
         cim {:.3}/{:.3}, host {:.3}/{:.3} ms",
        stats.sim_makespan_seconds * 1e3,
        planned[0] * 1e3,
        billed[0] * 1e3,
        planned[1] * 1e3,
        billed[1] * 1e3,
        planned[2] * 1e3,
        billed[2] * 1e3,
    );
    for (target, (p, b)) in Target::ALL.iter().zip(planned.iter().zip(billed)) {
        if (p - b).abs() > 1e-12 * b.abs() {
            return Err(format!("{target}: planned {p} s, billed {b} s"));
        }
    }
    println!("result verified against the golden host kernel ✔");
    Ok(())
}
