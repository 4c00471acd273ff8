//! A session surviving injected device faults without changing its answer.
//!
//! Demonstrates the fault-tolerance layer end to end: a deterministic
//! fault schedule makes launches abort transiently, then kills the UPMEM
//! grid for good and sticks every crossbar tile — and the session retries,
//! re-plans across the surviving devices and degrades to host-only
//! execution, producing results bit-identical to the fault-free run.
//!
//! Run with `cargo run --release --example fault_tolerant_gemv`.

use cinm::core::{Session, SessionOptions, ShardPolicy, Target};
use cinm::runtime::FaultConfig;
use cinm::telemetry::Telemetry;
use cinm::upmem::UpmemConfig;

fn run(fault: Option<FaultConfig>, telemetry: Option<Telemetry>) -> (Vec<Vec<i32>>, Session) {
    let (rows, cols) = (2048usize, 512usize);
    let a: Vec<i32> = (0..rows * cols).map(|i| (i % 17) as i32 - 8).collect();
    let x: Vec<i32> = (0..cols).map(|i| (i % 13) as i32 - 6).collect();

    let mut options = SessionOptions::default()
        .with_upmem_config(UpmemConfig::with_ranks(2))
        .with_policy(ShardPolicy::Auto);
    if let Some(fault) = fault {
        // One schedule drives BOTH simulators deterministically.
        options = options.with_fault(fault);
    }
    if let Some(t) = telemetry {
        options = options.with_telemetry(t);
    }
    let mut sess = Session::new(options);
    let at = sess.matrix(&a, rows, cols);
    let xt = sess.vector(&x);
    let mut outs = Vec::new();
    for _ in 0..4 {
        let yt = sess.gemv(at, xt);
        sess.run().expect("the host always survives");
        outs.push(sess.fetch(yt));
    }
    (outs, sess)
}

fn main() {
    // The oracle: the same graph with no faults injected.
    let (baseline, _) = run(None, None);

    // The gauntlet: 10% of launches abort transiently, the grid dies
    // permanently after 2 successful launches, and every default crossbar
    // tile is stuck-at from the start. Telemetry observes the whole ordeal
    // through one shared registry (results stay bit-identical either way).
    let telemetry = Telemetry::new();
    let schedule = FaultConfig::seeded(7)
        .with_launch_fault_rate(0.10)
        .with_transfer_timeout_rate(0.02)
        .with_permanent_after_launches(2)
        .with_stuck_tiles(vec![0, 1, 2, 3]);
    let (faulted, sess) = run(Some(schedule), Some(telemetry.clone()));

    assert_eq!(baseline, faulted, "recovered runs are bit-identical");

    let stats = sess.fault_stats();
    println!("survived the schedule with bit-identical results ✔");
    println!("  transient retries : {}", stats.transient_retries);
    println!(
        "  backoff simulated : {:.3} ms",
        stats.backoff_seconds * 1e3
    );
    println!("  permanent faults  : {}", stats.permanent_faults);
    println!("  re-plans          : {}", stats.replans);
    println!("  degradations      : {}", stats.degradations);
    for device in Target::ALL {
        let h = sess.backend().device(device).health();
        println!(
            "  {device:?}: healthy={} total_failures={} permanent={}",
            sess.backend().device(device).is_healthy(),
            h.total_failures,
            h.permanent
        );
    }

    // The unified snapshot: session run/replay and retry gauges next to the
    // simulators' per-op counters, injected-fault counts and modeled joules
    // — one registry across every layer (`snapshot.to_json()` for export).
    let snap = telemetry.snapshot();
    println!("\nunified telemetry snapshot:\n{}", snap.format_text());
}
