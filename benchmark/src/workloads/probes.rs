//! Fixed-shape probes of single layers, run after the traced window. Each
//! times one public call in a tight loop; the shapes never change, so a
//! probe moves only when its layer does.

use std::time::Instant;

use cinm::core::shard::{CachedShardPlanner, ShardShape};
use cinm::core::{ShardPlanner, ShardPolicy, Target};
use cinm::cpu::kernels;
use cinm::dialects::cinm as cinm_ops;
use cinm::lowering::{BatchPlan, Device, ShardOp, UpmemBackend, UpmemDevice, UpmemRunOptions};
use cinm::memristor::{CrossbarAccelerator, CrossbarConfig};
use cinm::runtime::{hazard_deps, Access, FairQueue, PoolHandle};
use cinm::telemetry::{Telemetry, LATENCY_SECONDS_BOUNDS};
use cinm::upmem::{BinOp, DpuKernelKind};

use super::direct::Direct;
use crate::harness::{Metrics, RunConfig};
use crate::stats::{self, SplitMix64};

/// The fastest of five rounds of the mean seconds per call of `f`.
fn seconds_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    stats::fast(&rounds)
}

/// Smoke runs keep every probe but shorten its loop.
fn calls(config: &RunConfig, full: usize) -> usize {
    if config.smoke {
        (full / 10).max(2)
    } else {
        full
    }
}

/// Both simulators, the golden kernel and the pool: what `figures` rests on.
pub fn simulators(config: &RunConfig, pool: &PoolHandle, m: &mut Metrics) {
    let mut rng = SplitMix64::stream(config.seed, "probes.simulators");
    // UPMEM: 2 DIMMs, 1 Ki elements per DPU.
    const RANKS: usize = 2;
    const PER_DPU: usize = 1024;
    let mut d = Direct::new(RANKS, pool);
    let dpus = d.dpus();
    let data = rng.vec_i32(PER_DPU * dpus, -8, 8);
    let bytes = (data.len() * 4) as f64;
    let t = seconds_per_call(calls(config, 200), || {
        let buf = d.alloc(PER_DPU);
        d.system().free_buffer(buf).expect("free");
    });
    m.set("upmem.alloc_buffer_us", t * 1e6);
    let (a, b, c) = (d.alloc(PER_DPU), d.alloc(PER_DPU), d.alloc(PER_DPU));
    let t = seconds_per_call(calls(config, 50), || {
        d.system().scatter_i32(a, &data, PER_DPU).expect("scatter");
    });
    m.set("upmem.scatter_ns_per_byte", t * 1e9 / bytes);
    let t = seconds_per_call(calls(config, 50), || {
        d.system()
            .broadcast_i32(b, &data[..PER_DPU])
            .expect("broadcast");
    });
    // A broadcast writes PER_DPU elements into every DPU's slab.
    m.set("upmem.broadcast_ns_per_byte", t * 1e9 / bytes);
    let mut out = Vec::new();
    let t = seconds_per_call(calls(config, 50), || {
        d.system()
            .gather_i32_into(a, PER_DPU, &mut out)
            .expect("gather");
    });
    m.set("upmem.gather_ns_per_byte", t * 1e9 / bytes);
    let t = seconds_per_call(calls(config, 50), || {
        let kind = DpuKernelKind::Elementwise {
            op: BinOp::Add,
            len: PER_DPU,
        };
        d.launch(kind, vec![a, b], c);
    });
    m.set("upmem.launch_us", t * 1e6);

    // Crossbar: program one full tile, then one MVM on it.
    let xcfg = CrossbarConfig::default()
        .with_host_threads(1)
        .with_pool(pool.clone());
    let (rows, cols) = (xcfg.tile_rows, xcfg.tile_cols);
    let mut xbar = CrossbarAccelerator::new(xcfg);
    let weights = rng.vec_i32(rows * cols, -8, 8);
    let input = rng.vec_i32(rows, -8, 8);
    let t = seconds_per_call(calls(config, 50), || {
        xbar.write_tile(0, &weights, rows, cols)
            .expect("tile write");
    });
    m.set("memristor.write_tile_us", t * 1e6);
    let mut y = vec![0i32; cols];
    let t = seconds_per_call(calls(config, 200), || {
        xbar.mvm_into(0, &input, &mut y).expect("mvm");
    });
    m.set("memristor.mvm_us", t * 1e6);

    // The golden all results are checked against.
    let (grows, gcols) = (1024, 256);
    let ga = rng.vec_i32(grows * gcols, -8, 8);
    let gx = rng.vec_i32(gcols, -8, 8);
    let t = seconds_per_call(calls(config, 50), || {
        std::hint::black_box(kernels::matvec(&ga, &gx, grows, gcols));
    });
    m.set("cpu.gemv_golden_us", t * 1e6);

    // An empty scope with one spawned no-op: pure dispatch cost.
    let t = seconds_per_call(calls(config, 2000), || {
        pool.get().scope(|s| s.spawn(|_| {}));
    });
    m.set("runtime.pool_scope_ns", t * 1e9);
}

/// Shard planner, device submit and hazard analysis: what a plan-cache miss
/// pays for besides the optimizer.
pub fn session_layers(config: &RunConfig, pool: &PoolHandle, m: &mut Metrics) {
    let shape = ShardShape::matmul(4096, 1024, 1);
    let planner = ShardPlanner::with_default_models(2).with_policy(ShardPolicy::Auto);
    let t = seconds_per_call(calls(config, 200), || {
        std::hint::black_box(planner.plan(cinm_ops::GEMV, shape).expect("plan"));
    });
    m.set("shard.plan_cold_us", t * 1e6);
    let mut cached = CachedShardPlanner::with_default_models(2);
    cached.plan(cinm_ops::GEMV, shape).expect("plan");
    let t = seconds_per_call(calls(config, 20_000), || {
        std::hint::black_box(cached.plan(cinm_ops::GEMV, shape).expect("plan"));
    });
    m.set("shard.plan_cached_ns", t * 1e9);
    let t = seconds_per_call(calls(config, 2000), || {
        std::hint::black_box(planner.estimate_joules(Target::Cnm, cinm_ops::GEMV, &shape));
    });
    m.set("shard.estimate_joules_ns", t * 1e9);

    let mut rng = SplitMix64::stream(config.seed, "probes.session");
    let (rows, cols) = (512, 64);
    let a = rng.vec_i32(rows * cols, -8, 8);
    let x = rng.vec_i32(cols, -8, 8);
    let mut device = UpmemDevice::new(UpmemBackend::new(
        2,
        UpmemRunOptions::optimized()
            .with_host_threads(1)
            .with_pool(pool.clone()),
    ));
    let op = ShardOp::Gemv {
        a: &a,
        x: &x,
        rows,
        cols,
    };
    let t = seconds_per_call(calls(config, 200), || {
        let future = device.submit(&op).expect("submit");
        std::hint::black_box(future.wait().expect("gemv shard"));
    });
    m.set("device.submit_us", t * 1e6);

    // A 64-command stream over 16 buffers, reads and writes interleaved.
    let accesses: Vec<Access> = (0..64u32)
        .map(|i| Access {
            reads: vec![i % 16, (i * 7 + 3) % 16],
            writes: vec![(i * 5 + 1) % 16],
        })
        .collect();
    let t = seconds_per_call(calls(config, 2000), || {
        std::hint::black_box(hazard_deps(&accesses));
    });
    m.set("runtime.hazard_deps_us", t * 1e6);
}

/// Batch-plan construction and the fair queue: the serve set-up and hot path.
pub fn serve_layers(config: &RunConfig, pool: &PoolHandle, m: &mut Metrics) {
    let t = seconds_per_call(calls(config, 20), || {
        let mut backend = UpmemBackend::new(
            2,
            UpmemRunOptions::optimized()
                .with_host_threads(1)
                .with_pool(pool.clone()),
        );
        std::hint::black_box(BatchPlan::gemv(&mut backend, 4, 512, 64).expect("batch plan"));
    });
    m.set("batch.compile_us", t * 1e6);

    let mut queue = FairQueue::new();
    for lane in 0..6u32 {
        queue.add_lane(if lane == 0 { 3 } else { 1 }, u8::from(lane == 3), 64);
    }
    let mut item = 0u32;
    let t = seconds_per_call(calls(config, 20_000), || {
        for lane in 0..6 {
            queue.enqueue(lane, item, 512).expect("below depth");
            item = item.wrapping_add(1);
        }
        while let Some(popped) = queue.pop() {
            std::hint::black_box(popped);
        }
    });
    m.set("runtime.queue_push_pop_ns", t * 1e9 / 6.0);
}

/// The registry's recording primitives (off in every gated run).
pub fn telemetry_primitives(config: &RunConfig, m: &mut Metrics) {
    let registry = Telemetry::new();
    let counter = registry.counter("probe.counter");
    let t = seconds_per_call(calls(config, 200_000), || counter.inc());
    m.set("telemetry.counter_inc_ns", t * 1e9);
    let histogram = registry.histogram("probe.latency", &LATENCY_SECONDS_BOUNDS);
    let mut v = 1e-6;
    let t = seconds_per_call(calls(config, 200_000), || {
        histogram.record(v);
        v = if v > 1.0 { 1e-6 } else { v * 1.7 };
    });
    m.set("telemetry.histogram_record_ns", t * 1e9);
    for i in 0..64 {
        registry.counter(&format!("probe.series.{i}")).inc();
    }
    let t = seconds_per_call(calls(config, 200), || {
        std::hint::black_box(registry.snapshot());
    });
    m.set("telemetry.snapshot_us", t * 1e6);
}
