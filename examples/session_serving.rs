//! Multi-tenant serving through the `SessionServer`: several tenants with
//! their own resident weights, weighted-fair scheduling, and same-shaped
//! requests from different tenants fused into one sharded launch per round
//! (only activations move). A solo-`Session`-per-tenant baseline serves the
//! same request streams serially for comparison — bit-identity is asserted,
//! and its plan-cache/optimizer counters show what the server's batched
//! replay path amortises.
//!
//! ```text
//! cargo run --release --example session_serving
//! ```

use std::time::Instant;

use cinm::core::serve::{RequestTicket, ServerOptions, SessionServer, TenantSpec};
use cinm::core::session::{Session, SessionOptions};
use cinm::core::{ShardPolicy, Target};
use cinm::telemetry::Telemetry;
use cinm::workloads::data;

fn main() {
    let (rows, cols) = (512usize, 256usize);
    let rounds = 24usize;
    // One shared registry: the server, its simulator and its worker pool all
    // export into it, and the snapshot at the end unifies every layer.
    let telemetry = Telemetry::new();

    // Four tenants share one gemv shape class (their requests fuse into one
    // launch per round); weights skew the schedule 4:2:1:1 under backlog.
    let tenant_specs = [
        ("search", 4u32, 1u8),
        ("ads", 2, 0),
        ("feed", 1, 0),
        ("batch-jobs", 1, 0),
    ];
    let weights_data: Vec<Vec<i32>> = (0..tenant_specs.len())
        .map(|i| data::i32_matrix(1 + i as u64, rows, cols, -8, 8))
        .collect();
    let xs: Vec<Vec<i32>> = (0..4)
        .map(|i| data::i32_vec(10 + i as u64, cols, -8, 8))
        .collect();

    // ---- the server: one device set, every tenant's weights resident ----
    let mut server = SessionServer::new(
        ServerOptions::default()
            .with_tenant_slots(4)
            .with_telemetry(telemetry.clone()),
    );
    let mut tenants = Vec::new();
    let mut models = Vec::new();
    for ((name, weight, priority), a) in tenant_specs.iter().zip(&weights_data) {
        let t = server.register_tenant(
            TenantSpec::new(*name)
                .with_weight(*weight)
                .with_priority(*priority),
        );
        models.push(
            server
                .load_gemv_weights(t, a, rows, cols)
                .expect("admitted: fits MRAM budget and tenant slots"),
        );
        tenants.push(t);
    }
    println!(
        "server: {} DPUs, {} shape class(es), {} B/DPU resident of {} B/DPU budget",
        server.num_dpus(),
        server.shape_groups(),
        server.mram_used_bytes(),
        server.mram_limit_bytes(),
    );

    let mut out = Vec::new();
    let mut tickets: Vec<RequestTicket> = Vec::new();
    let mut results: Vec<Vec<i32>> = vec![Vec::new(); tenants.len()];
    let served = Instant::now();
    for round in 0..rounds {
        tickets.clear();
        for &model in &models {
            tickets.push(
                server
                    .submit(model, &xs[round % xs.len()])
                    .expect("admitted: queue has room"),
            );
        }
        // One scheduling round: all four compatible requests fuse into one
        // sharded launch (per-tenant weights resident, activations move).
        server.step();
        for (ti, &ticket) in tickets.iter().enumerate() {
            server.wait_into(ticket, &mut out).expect("served");
            results[ti].clone_from(&out);
        }
    }
    let batched_seconds = served.elapsed().as_secs_f64();

    let stats = server.stats();
    println!(
        "served {} requests in {} launches (largest batch {}, {} recoveries)",
        stats.completed, stats.batches, stats.largest_batch, stats.recoveries,
    );
    for &t in &tenants {
        let s = server.tenant_stats(t);
        println!(
            "  tenant {:<10} completed {:>3}, latency mean {:>7.3} ms, max {:>7.3} ms",
            server.tenant_name(t),
            s.completed,
            s.mean_latency_seconds() * 1e3,
            s.max_latency_seconds * 1e3,
        );
    }
    let launches: Vec<u64> = server.group_launches().collect();
    println!("  per-class batched-plan replays: {launches:?}");
    let snap = server.residency_snapshot();
    println!(
        "  residency: {} evictions, {} weight reloads, peak {} B/DPU of {} B/DPU",
        snap.evictions, snap.reloads, snap.peak_mram_bytes, snap.limit_bytes,
    );

    // ---- the unified telemetry snapshot: every layer, one registry ----
    // Per-tenant serving series, server-wide latency/batch histograms with
    // derived p50/p99, simulator per-op counters with modeled joules, and
    // worker-pool occupancy — all from the one registry threaded through
    // `ServerOptions::with_telemetry` (JSON export: `snapshot.to_json()`).
    let snap = telemetry.snapshot();
    println!("\nunified telemetry snapshot:\n{}", snap.format_text());

    // ---- bounded MRAM: a capped server evicts & reloads cold weights ----
    // The budget admits the four-tenant class alone but not a second shape
    // class next to it: loading the newcomer softly evicts the idle class's
    // reloadable weights, and scheduling the evicted class re-admits it
    // transparently — results stay bit-identical across the round trip.
    let class_bytes = server.mram_used_bytes();
    let mut capped = SessionServer::new(
        ServerOptions::default()
            .with_tenant_slots(4)
            .with_mram_limit_bytes(class_bytes + class_bytes / 4),
    );
    let t0 = capped.register_tenant(TenantSpec::new("resident"));
    let m0 = capped
        .load_gemv_weights(t0, &weights_data[0], rows, cols)
        .expect("fits the budget alone");
    let t1 = capped.register_tenant(TenantSpec::new("newcomer"));
    let half = data::i32_matrix(99, rows / 2, cols, -8, 8);
    let m1 = capped
        .load_gemv_weights(t1, &half, rows / 2, cols)
        .expect("soft admission evicts the idle class instead of failing");
    let x_last = &xs[(rounds - 1) % xs.len()];
    let ticket = capped.submit(m0, x_last).expect("admitted");
    capped.wait_into(ticket, &mut out).expect("served");
    assert_eq!(out, results[0], "evicted-and-reloaded weights diverged");
    let ticket = capped.submit(m1, x_last).expect("admitted");
    capped.wait_into(ticket, &mut out).expect("served");
    let snap = capped.residency_snapshot();
    println!(
        "capped server ({} B/DPU budget): {} evictions, {} reloads ({} B re-scattered), peak {} B/DPU — bit-identical ✔",
        snap.limit_bytes, snap.evictions, snap.reloads, snap.reload_bytes, snap.peak_mram_bytes,
    );
    let used_before = capped.mram_used_bytes();
    capped.unload_tenant(t1).expect("drained tenants unload");
    println!(
        "  unload_tenant(newcomer): {} → {} B/DPU resident",
        used_before,
        capped.mram_used_bytes(),
    );

    // ---- the serial baseline: one private warmed Session per tenant ----
    let mut sessions: Vec<_> = weights_data
        .iter()
        .map(|a| {
            let mut sess = Session::new(
                SessionOptions::default().with_policy(ShardPolicy::Single(Target::Cnm)),
            );
            let at = sess.matrix(a, rows, cols);
            let xt = sess.vector(&xs[0]);
            (sess, at, xt)
        })
        .collect();
    let serial = Instant::now();
    for round in 0..rounds {
        for (ti, (sess, at, xt)) in sessions.iter_mut().enumerate() {
            sess.write(*xt, &xs[round % xs.len()]);
            let y = sess.gemv(*at, *xt);
            sess.run().expect("cnm placement");
            sess.fetch_into(y, &mut out);
            // Every tenant's batched result is bit-identical to its solo
            // session (the rows of a slot stripe are the same sequential
            // dot products the solo plan computes). `results` holds the
            // server's final-round outputs, so compare on the rounds that
            // used the same activation.
            if round % xs.len() == (rounds - 1) % xs.len() {
                assert_eq!(out, results[ti], "tenant {ti} diverged");
            }
        }
    }
    let serial_seconds = serial.elapsed().as_secs_f64();
    println!("results bit-identical to one solo session per tenant ✔");

    let (runs, replays) = sessions[0].0.run_counts();
    let pc = sessions[0].0.plan_cache_stats();
    let opt = sessions[0].0.optimizer_stats();
    println!(
        "solo session (per tenant): {replays}/{runs} plan replays; cache {} entries, {} hits / {} misses; {} graphs optimized",
        pc.entries, pc.hits, pc.misses, opt.graphs_optimized,
    );
    println!(
        "wall-clock: serial {:.4}s vs batched {:.4}s — {:.2}x from cross-tenant fusion",
        serial_seconds,
        batched_seconds,
        serial_seconds / batched_seconds.max(1e-12),
    );
}
