//! Allocation-regression tests of the simulation hot path.
//!
//! This binary installs `cinm_runtime::alloc_count::CountingAllocator` as
//! its global allocator and asserts that the steady-state launch+MVM loop —
//! warmed-up kernel launches on the flat-slab `UpmemSystem` (including the
//! aliased slow path on its scratch arena), scatter/gather transfers with a
//! reused gather vector, and scratch-writing crossbar MVMs — performs
//! **zero** heap allocations. Reintroducing a per-op `Vec` (a cloned stride,
//! a fresh result buffer, a per-launch `available_parallelism` probe)
//! makes these tests fail; the canary test proves the harness would see it.
//!
//! Counters are per-thread, so the default multi-threaded test harness
//! cannot perturb a measurement window; every measured loop runs with
//! `host_threads = 1` so no work escapes to pool workers.

use cinm_core::session::{Session, SessionOptions};
use cinm_core::{ShardPolicy, Target};
use cinm_runtime::alloc_count::{self, CountingAllocator};
use memristor_sim::{CrossbarAccelerator, CrossbarConfig};
use upmem_sim::{BinOp, DpuKernelKind, KernelSpec, UpmemConfig, UpmemSystem};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The harness actually intercepts allocations: a deliberately reintroduced
/// `Vec` allocation is counted. If this test fails, the zero-allocation
/// assertions below are vacuous — never delete it.
#[test]
fn canary_counting_allocator_detects_reintroduced_vecs() {
    assert!(alloc_count::installed(), "counting allocator not installed");
    let ((), allocs) = alloc_count::count_in(|| {
        let v: Vec<i32> = Vec::with_capacity(64);
        std::hint::black_box(&v);
    });
    assert!(
        allocs >= 1,
        "a Vec allocation must be counted, saw {allocs}"
    );
    // Growing an existing vector (realloc) is counted too.
    let mut v = vec![0u8; 16];
    let ((), allocs) = alloc_count::count_in(|| {
        v.reserve(1 << 16);
        std::hint::black_box(&v);
    });
    assert!(allocs >= 1, "a realloc must be counted, saw {allocs}");
}

fn sequential_system() -> UpmemSystem {
    let mut cfg = UpmemConfig::with_ranks(1).with_host_threads(1);
    cfg.dpus_per_rank = 8;
    UpmemSystem::new(cfg)
}

/// Steady-state kernel launches allocate nothing: the slab layout borrows
/// input strides and splits the output in place. The broadcast operand is
/// rewritten inside the loop: it stays one replicated stride, and the
/// output (expanded by the warm-up launch) never collapses back.
#[test]
fn steady_state_launch_loop_is_allocation_free() {
    let mut sys = sequential_system();
    let a = sys.alloc_buffer(64).unwrap();
    let b = sys.alloc_buffer(64).unwrap();
    let c = sys.alloc_buffer(64).unwrap();
    let data: Vec<i32> = (0..64 * 8).map(|i| i * 31 % 97 - 40).collect();
    sys.scatter_i32(a, &data, 64).unwrap();
    sys.broadcast_i32(b, &data[..64]).unwrap();
    let gemm = KernelSpec::new(DpuKernelKind::Gemm { m: 8, k: 8, n: 8 }, vec![a, b], c);
    let reduce = KernelSpec::new(
        DpuKernelKind::Reduce {
            op: BinOp::Add,
            len: 64,
        },
        vec![a],
        c,
    );
    // Warm-up: first launches may lazily resolve the per-process core count.
    sys.launch(&gemm).unwrap();
    sys.launch(&reduce).unwrap();
    let ((), allocs) = alloc_count::count_in(|| {
        for i in 0..100 {
            sys.broadcast_i32(b, &data[i..i + 64]).unwrap();
            sys.launch(&gemm).unwrap();
            sys.launch(&reduce).unwrap();
        }
    });
    assert_eq!(allocs, 0, "steady-state launches must not allocate");
}

/// The narrow multiply-accumulate keeps its `i16` operand in scratch the
/// system owns: once the first launch has grown it, a narrow gemm (every
/// operand fits `i16`), a wide one (one `B` element does not) and a narrow
/// gemv with a smaller operand launch without allocating. The rows are as
/// long as each kernel's narrow crossover (`k` = 16, `cols` = 40), and one
/// output buffer serves all three, so the first launch also expands the
/// only output.
#[test]
fn steady_state_narrow_and_wide_launches_are_allocation_free() {
    let mut sys = sequential_system();
    let a = sys.alloc_buffer(64).unwrap();
    let b = sys.alloc_buffer(64).unwrap();
    let x = sys.alloc_buffer(40).unwrap();
    let c = sys.alloc_buffer(8).unwrap();
    let data: Vec<i32> = (0..64 * 8).map(|i| i * 31 % 97 - 40).collect();
    let mut wide = data[..64].to_vec();
    wide[17] = 1 << 20;
    sys.scatter_i32(a, &data, 64).unwrap();
    sys.broadcast_i32(b, &data[..64]).unwrap();
    sys.broadcast_i32(x, &data[..40]).unwrap();
    let gemm = KernelSpec::new(DpuKernelKind::Gemm { m: 2, k: 16, n: 4 }, vec![a, b], c);
    let gemv = KernelSpec::new(DpuKernelKind::Gemv { rows: 1, cols: 40 }, vec![a, x], c);
    sys.launch(&gemm).unwrap();
    let ((), allocs) = alloc_count::count_in(|| {
        for i in 0..50 {
            sys.broadcast_i32(b, &data[i..i + 64]).unwrap();
            sys.launch(&gemm).unwrap();
            sys.launch(&gemv).unwrap();
            sys.broadcast_i32(b, &wide).unwrap();
            sys.launch(&gemm).unwrap();
        }
    });
    assert_eq!(allocs, 0, "narrow and wide launches must not allocate");
}

/// The aliased-launch slow path stages its inputs in the reusable scratch
/// arena: after the arena has grown once, repeated aliased launches are
/// allocation-free too.
#[test]
fn steady_state_aliased_launch_is_allocation_free() {
    let mut sys = sequential_system();
    let a = sys.alloc_buffer(32).unwrap();
    sys.broadcast_i32(a, &(0..32).collect::<Vec<i32>>())
        .unwrap();
    let scan = KernelSpec::new(
        DpuKernelKind::Scan {
            op: BinOp::Add,
            len: 32,
        },
        vec![a],
        a,
    );
    sys.launch(&scan).unwrap(); // grows the scratch arena
    let ((), allocs) = alloc_count::count_in(|| {
        for _ in 0..50 {
            sys.launch(&scan).unwrap();
        }
    });
    assert_eq!(allocs, 0, "aliased launches must reuse the scratch arena");
}

/// Transfers with reused host buffers allocate nothing: scatter/broadcast
/// write into the slabs, and `gather_i32_into` reuses the caller's vector —
/// on a per-DPU slab (`a`, expanded by its first scatter and zeroed in
/// place) and on one only ever broadcast to (`b`, a single stride).
#[test]
fn steady_state_transfer_loop_is_allocation_free() {
    let mut sys = sequential_system();
    let a = sys.alloc_buffer(256).unwrap();
    let b = sys.alloc_buffer(256).unwrap();
    let data: Vec<i32> = (0..256 * 8).collect();
    let mut gathered = Vec::new();
    sys.scatter_i32(a, &data, 256).unwrap();
    sys.gather_i32_into(a, 256, &mut gathered).unwrap(); // sizes the vector
    let ((), allocs) = alloc_count::count_in(|| {
        for i in 0..50 {
            sys.zero_buffer(a).unwrap();
            sys.scatter_i32(a, &data, 256).unwrap();
            sys.broadcast_i32(a, &data[..256]).unwrap();
            sys.gather_i32_into(a, 256, &mut gathered).unwrap();
            sys.zero_buffer(b).unwrap();
            sys.broadcast_i32(b, &data[i..i + 256]).unwrap();
            sys.gather_i32_into(b, 256, &mut gathered).unwrap();
        }
    });
    assert_eq!(allocs, 0, "steady-state transfers must not allocate");
    assert_eq!(gathered.len(), 256 * 8);
}

/// The warmed `Session` serving loop — write the request vector, record the
/// `gemv → select` graph, `run()` (replaying the memoized compiled plan
/// through the simulator's eager entry points), `fetch_into` the result —
/// performs **zero** heap allocations per iteration. This is the steady
/// state of the session's replay fast path: the matrix stays resident in
/// MRAM, the request vector is re-broadcast into its replicated slab every
/// iteration, temporaries recycle through the slot free-list, and the
/// gather scratch and host vectors are reused.
#[test]
fn steady_state_session_loop_is_allocation_free() {
    let mut cfg = UpmemConfig::with_ranks(1).with_host_threads(1);
    cfg.dpus_per_rank = 8;
    let mut sess = Session::new(
        SessionOptions::default()
            .with_upmem_config(cfg)
            .with_policy(ShardPolicy::Single(Target::Cnm)),
    );
    let (rows, cols) = (64usize, 32usize);
    let a: Vec<i32> = (0..rows * cols).map(|i| (i % 13) as i32 - 6).collect();
    let xs: Vec<Vec<i32>> = (0..4)
        .map(|s| (0..cols).map(|i| ((i + s) % 7) as i32 - 3).collect())
        .collect();
    let at = sess.matrix(&a, rows, cols);
    let xt = sess.vector(&xs[0]);
    let mut out = Vec::new();
    let iteration = |sess: &mut Session, x: &[i32], out: &mut Vec<i32>| {
        sess.write(xt, x);
        let y = sess.gemv(at, xt);
        let s = sess.select(y, 0);
        sess.run().expect("cnm placement");
        sess.fetch_into(s, out);
    };
    // Warm-up: compile once cold, once more with the matrix observed
    // resident — canonical signatures make the rotating temporary ids
    // irrelevant, so iterations 3+ replay the memoized plan.
    for i in 0..4 {
        iteration(&mut sess, &xs[i % 4], &mut out);
    }
    let (_, replays_before) = sess.run_counts();
    let ((), allocs) = alloc_count::count_in(|| {
        for i in 0..40 {
            iteration(&mut sess, &xs[i % 4], &mut out);
        }
    });
    assert_eq!(allocs, 0, "the warmed session loop must not allocate");
    let (_, replays_after) = sess.run_counts();
    assert_eq!(
        replays_after - replays_before,
        40,
        "every measured iteration must replay the compiled plan"
    );
    assert!(!out.is_empty(), "the chain produced selections");
}

/// The warmed *fused-chain* serving loop — three element-wise ops that the
/// graph optimizer fuses into one `FusedElementwise` launch — is
/// allocation-free per iteration too: canonicalization reuses the session's
/// scratch vectors, the replay rebind patches the compiled commands in
/// place, and the fused kernel stages its per-DPU output views on the
/// stack.
#[test]
fn steady_state_fused_chain_loop_is_allocation_free() {
    let mut cfg = UpmemConfig::with_ranks(1).with_host_threads(1);
    cfg.dpus_per_rank = 8;
    let mut sess = Session::new(
        SessionOptions::default()
            .with_upmem_config(cfg)
            .with_policy(ShardPolicy::Single(Target::Cnm)),
    );
    let len = 128usize;
    let base: Vec<i32> = (0..len).map(|i| (i % 19) as i32 - 9).collect();
    let mask: Vec<i32> = (0..len).map(|i| (i % 3) as i32).collect();
    let xs: Vec<Vec<i32>> = (0..4)
        .map(|s| (0..len).map(|i| ((i * 7 + s) % 23) as i32 - 11).collect())
        .collect();
    let at = sess.vector(&base);
    let bt = sess.vector(&mask);
    let xt = sess.vector(&xs[0]);
    let mut out = Vec::new();
    let iteration = |sess: &mut Session, x: &[i32], out: &mut Vec<i32>| {
        sess.write(xt, x);
        let t0 = sess.elementwise(BinOp::Xor, xt, at);
        let t1 = sess.elementwise(BinOp::And, t0, bt);
        let t2 = sess.elementwise(BinOp::Or, t1, at);
        sess.run().expect("cnm placement");
        sess.fetch_into(t2, out);
    };
    for i in 0..4 {
        iteration(&mut sess, &xs[i % 4], &mut out);
    }
    // The optimizer actually fused the chain (otherwise this pins the
    // wrong path).
    assert!(sess.optimizer_stats().fused_groups >= 1);
    let (_, replays_before) = sess.run_counts();
    let ((), allocs) = alloc_count::count_in(|| {
        for i in 0..40 {
            iteration(&mut sess, &xs[i % 4], &mut out);
        }
    });
    assert_eq!(allocs, 0, "the warmed fused loop must not allocate");
    let (_, replays_after) = sess.run_counts();
    assert_eq!(
        replays_after - replays_before,
        40,
        "every measured iteration must replay the fused plan"
    );
    assert_eq!(out.len(), len);
}

/// The warmed `Auto` loop of the benchmark's cold op, one shape: placed by
/// price on 128 DPUs, `gemv`, the `xor → and → or` chain and `reduce` run
/// on the host. Each such op runs straight into its output slot's retained
/// vector, so the replay performs **zero** heap allocations per iteration —
/// a fresh result vector per host op (six per replay, once) fails here.
#[test]
fn steady_state_auto_loop_with_host_placed_ops_is_allocation_free() {
    use cinm_lowering::ShardedRunOptions;
    use cinm_runtime::PoolHandle;

    let mut sess = Session::new(
        SessionOptions::default()
            .with_policy(ShardPolicy::Auto)
            .with_sharded(
                ShardedRunOptions::default()
                    .with_ranks(2)
                    .with_pool(PoolHandle::with_threads(1))
                    .with_host_threads(1),
            ),
    );
    let (rows, cols) = (64usize, 16usize);
    let w: Vec<i32> = (0..rows * cols).map(|e| (e % 17) as i32 - 8).collect();
    let masks: Vec<Vec<i32>> = (0..3)
        .map(|m| (0..rows).map(|e| ((e * 5 + m) % 4096) as i32).collect())
        .collect();
    let xs: Vec<Vec<i32>> = (0..4)
        .map(|s| (0..cols).map(|e| ((e + s) % 5) as i32 - 2).collect())
        .collect();
    let wt = sess.matrix(&w, rows, cols);
    let xt = sess.vector(&xs[0]);
    let mt = masks.iter().map(|m| sess.vector(m)).collect::<Vec<_>>();
    let mut chain = Vec::new();
    let mut iteration = |sess: &mut Session, x: &[i32]| {
        sess.write(xt, x);
        let y = sess.gemv(wt, xt);
        let t1 = sess.elementwise(BinOp::Xor, y, mt[0]);
        let t2 = sess.elementwise(BinOp::And, t1, mt[1]);
        let ch = sess.elementwise(BinOp::Or, t2, mt[2]);
        let sum = sess.reduce(BinOp::Add, ch);
        sess.run().expect("the graph places");
        sess.fetch_into(ch, &mut chain);
        sess.fetch_scalar(sum)
    };
    for i in 0..4 {
        iteration(&mut sess, &xs[i % 4]);
    }
    let (_, replays_before) = sess.run_counts();
    let host_before = sess.shard_stats().work[2];
    let ((), allocs) = alloc_count::count_in(|| {
        for i in 0..40 {
            std::hint::black_box(iteration(&mut sess, &xs[i % 4]));
        }
    });
    assert_eq!(allocs, 0, "the warmed Auto loop must not allocate");
    let (_, replays_after) = sess.run_counts();
    assert_eq!(
        replays_after - replays_before,
        40,
        "every iteration replays"
    );
    // Every op of the graph ran on the host, every iteration (otherwise
    // this pins the wrong path).
    let host_work = 5 * rows as u64 * 40;
    assert_eq!(sess.shard_stats().work[2] - host_before, host_work);
    assert_eq!(chain.len(), rows);
}

/// The warmed session loop under a finite MRAM limit that admits the
/// working set — capacity accounting, staleness tokens and eviction scans
/// are active on every allocation, but with no pressure the steady state
/// still performs **zero** heap allocations per iteration.
#[test]
fn steady_state_session_loop_under_a_limit_is_allocation_free() {
    let mut cfg = UpmemConfig::with_ranks(1).with_host_threads(1);
    cfg.dpus_per_rank = 8;
    let mut sess = Session::new(
        SessionOptions::default()
            .with_upmem_config(cfg)
            .with_policy(ShardPolicy::Single(Target::Cnm))
            // gemv 64x32 over 8 DPUs: ~1.2 KB/DPU working set — 4 KB admits
            // it without eviction while keeping the capacity path live.
            .with_mram_limit_bytes(4096),
    );
    let (rows, cols) = (64usize, 32usize);
    let a: Vec<i32> = (0..rows * cols).map(|i| (i % 13) as i32 - 6).collect();
    let xs: Vec<Vec<i32>> = (0..4)
        .map(|s| (0..cols).map(|i| ((i + s) % 7) as i32 - 3).collect())
        .collect();
    let at = sess.matrix(&a, rows, cols);
    let xt = sess.vector(&xs[0]);
    let mut out = Vec::new();
    let iteration = |sess: &mut Session, x: &[i32], out: &mut Vec<i32>| {
        sess.write(xt, x);
        let y = sess.gemv(at, xt);
        let s = sess.select(y, 0);
        sess.run().expect("cnm placement");
        sess.fetch_into(s, out);
    };
    for i in 0..4 {
        iteration(&mut sess, &xs[i % 4], &mut out);
    }
    let ((), allocs) = alloc_count::count_in(|| {
        for i in 0..40 {
            iteration(&mut sess, &xs[i % 4], &mut out);
        }
    });
    assert_eq!(allocs, 0, "the capped warmed loop must not allocate");
    let res = sess.residency_stats();
    assert_eq!(res.limit_bytes, 4096, "the limit reached the allocator");
    assert_eq!(res.evictions, 0, "the working set fits — no pressure");
    assert!(res.peak_mram_bytes <= 4096);
    assert!(!out.is_empty());
}

/// The benchmark's `session_pressure` op in small: six weight matrices under
/// half the MRAM they need, so every op evicts. Each eviction here drops a
/// tensor whose host copy is current, and bringing one back costs exactly
/// one allocation — the restored slab's zeroed stride; the upload adopts the
/// session's image. So an op allocates once per eviction and for nothing
/// else: a failed allocation that formats its error before the session
/// evicts would double the count.
#[test]
fn an_op_that_evicts_under_a_limit_allocates_only_the_slabs_it_restores() {
    use cinm_core::session::TensorHandle;

    let (rows, cols, ring) = (64usize, 32usize, 6usize);
    let session = |limit: Option<usize>| {
        let mut cfg = UpmemConfig::with_ranks(1).with_host_threads(1);
        cfg.dpus_per_rank = 8;
        let opts = SessionOptions::default()
            .with_upmem_config(cfg)
            .with_policy(ShardPolicy::Single(Target::Cnm));
        let mut sess = Session::new(match limit {
            Some(bytes) => opts.with_mram_limit_bytes(bytes),
            None => opts,
        });
        let models: Vec<(TensorHandle, TensorHandle, [TensorHandle; 3])> = (0..ring)
            .map(|m| {
                let w: Vec<i32> = (0..rows * cols)
                    .map(|i| ((i + m) % 13) as i32 - 6)
                    .collect();
                let mask = |j: usize| -> Vec<i32> {
                    (0..rows).map(|i| ((i * 5 + j + m) % 4096) as i32).collect()
                };
                (
                    sess.matrix(&w, rows, cols),
                    sess.vector(&vec![1; cols]),
                    [
                        sess.vector(&mask(0)),
                        sess.vector(&mask(1)),
                        sess.vector(&mask(2)),
                    ],
                )
            })
            .collect();
        (sess, models)
    };
    let x: Vec<i32> = (0..cols).map(|e| (e % 5) as i32 - 2).collect();
    let (mut selected, mut chain) = (Vec::new(), Vec::new());
    let mut op = |sess: &mut Session,
                  models: &[(TensorHandle, TensorHandle, [TensorHandle; 3])],
                  tick: usize| {
        let (weights, xt, masks) = models[tick % ring];
        sess.write(xt, &x);
        let y = sess.gemv(weights, xt);
        let sel = sess.select(y, 0);
        let t1 = sess.elementwise(BinOp::Xor, y, masks[0]);
        let t2 = sess.elementwise(BinOp::And, t1, masks[1]);
        let ch = sess.elementwise(BinOp::Or, t2, masks[2]);
        let sum = sess.reduce(BinOp::Add, ch);
        sess.run().expect("cnm placement");
        sess.fetch_into(sel, &mut selected);
        sess.fetch_into(ch, &mut chain);
        std::hint::black_box(sess.fetch_scalar(sum));
    };
    // Half of what the ring peaks at with no limit, as the benchmark sets it.
    let (mut unlimited, models) = session(None);
    for tick in 0..ring {
        op(&mut unlimited, &models, tick);
    }
    let peak = unlimited.residency_stats().peak_mram_bytes;
    let (mut sess, models) = session(Some(peak / 2));
    for tick in 0..2 * ring {
        op(&mut sess, &models, tick);
    }
    for tick in 0..2 * ring {
        let before = sess.residency_stats();
        let ((), allocs) = alloc_count::count_in(|| op(&mut sess, &models, tick));
        let after = sess.residency_stats();
        let evictions = after.evictions - before.evictions;
        assert!(evictions > 0, "op {tick} ran without pressure");
        assert_eq!(after.spills, before.spills, "every victim has a host copy");
        assert_eq!(
            allocs, evictions,
            "op {tick}: {allocs} allocations for {evictions} restored slabs"
        );
    }
}

/// The warmed multi-tenant *serving* loop — two tenants submitting
/// same-shaped gemv requests that the `SessionServer` fuses into one
/// batched launch per round, then redeeming their tickets — performs
/// **zero** heap allocations per iteration. This is the serving steady
/// state: request slots recycle through the free list (activation and
/// result vectors keep their capacity), the fair queue's per-lane deques
/// are warm, the batch staging/gather vectors are reused, and the batched
/// launch runs the simulator's eager allocation-free entry points.
#[test]
fn steady_state_serving_loop_is_allocation_free() {
    use cinm_core::serve::{ServerOptions, SessionServer, TenantSpec};

    let mut cfg = UpmemConfig::with_ranks(1).with_host_threads(1);
    cfg.dpus_per_rank = 8;
    let mut server = SessionServer::new(
        ServerOptions::default()
            .with_upmem_config(cfg)
            .with_tenant_slots(2),
    );
    let (rows, cols) = (16usize, 8usize);
    let mut models = Vec::new();
    for i in 0..2i32 {
        let t = server.register_tenant(TenantSpec::new(format!("tenant-{i}")));
        let a: Vec<i32> = (0..rows * cols)
            .map(|e| ((e as i32) * (i + 3)) % 23 - 11)
            .collect();
        models.push(server.load_gemv_weights(t, &a, rows, cols).unwrap());
    }
    let xs: Vec<Vec<i32>> = (0..4)
        .map(|s| (0..cols).map(|e| ((e + s) % 9) as i32 - 4).collect())
        .collect();
    let mut outs = [Vec::new(), Vec::new()];
    let iteration = |server: &mut SessionServer, x: &[i32], outs: &mut [Vec<i32>; 2]| {
        let t0 = server.submit(models[0], x).unwrap();
        let t1 = server.submit(models[1], x).unwrap();
        assert_eq!(server.step(), 2, "both tenants served in one round");
        server.wait_into(t0, &mut outs[0]).unwrap();
        server.wait_into(t1, &mut outs[1]).unwrap();
    };
    // Warm-up: sizes the request slots, staging shadows, gather scratch and
    // queue deques.
    for i in 0..4 {
        iteration(&mut server, &xs[i % 4], &mut outs);
    }
    let batches_before = server.stats().batches;
    let ((), allocs) = alloc_count::count_in(|| {
        for i in 0..40 {
            iteration(&mut server, &xs[i % 4], &mut outs);
        }
    });
    assert_eq!(allocs, 0, "the warmed serving loop must not allocate");
    let stats = server.stats();
    assert_eq!(
        stats.batches - batches_before,
        40,
        "every measured round must be one fused batch"
    );
    assert_eq!(stats.largest_batch, 2, "both tenants fused per round");
    assert!(!outs[0].is_empty() && !outs[1].is_empty());
}

/// The same warmed serving loop with **telemetry enabled** stays at zero
/// allocations per iteration: every metric series (server counters,
/// latency/batch histograms, queue-depth and pool gauges, per-tenant
/// series, simulator per-op counters and the energy gauge) is registered
/// once up front, and recording is atomics-only on the hot path.
#[test]
fn steady_state_serving_loop_with_telemetry_is_allocation_free() {
    use cinm_core::serve::{ServerOptions, SessionServer, TenantSpec};

    let telemetry = cinm_telemetry::Telemetry::new();
    let mut cfg = UpmemConfig::with_ranks(1).with_host_threads(1);
    cfg.dpus_per_rank = 8;
    let mut server = SessionServer::new(
        ServerOptions::default()
            .with_upmem_config(cfg)
            .with_tenant_slots(2)
            .with_telemetry(telemetry.clone()),
    );
    let (rows, cols) = (16usize, 8usize);
    let mut models = Vec::new();
    for i in 0..2i32 {
        let t = server.register_tenant(TenantSpec::new(format!("tenant-{i}")));
        let a: Vec<i32> = (0..rows * cols)
            .map(|e| ((e as i32) * (i + 3)) % 23 - 11)
            .collect();
        models.push(server.load_gemv_weights(t, &a, rows, cols).unwrap());
    }
    let xs: Vec<Vec<i32>> = (0..4)
        .map(|s| (0..cols).map(|e| ((e + s) % 9) as i32 - 4).collect())
        .collect();
    let mut outs = [Vec::new(), Vec::new()];
    let iteration = |server: &mut SessionServer, x: &[i32], outs: &mut [Vec<i32>; 2]| {
        let t0 = server.submit(models[0], x).unwrap();
        let t1 = server.submit(models[1], x).unwrap();
        assert_eq!(server.step(), 2, "both tenants served in one round");
        server.wait_into(t0, &mut outs[0]).unwrap();
        server.wait_into(t1, &mut outs[1]).unwrap();
    };
    for i in 0..4 {
        iteration(&mut server, &xs[i % 4], &mut outs);
    }
    let snap_before = telemetry.snapshot();
    let ((), allocs) = alloc_count::count_in(|| {
        for i in 0..40 {
            iteration(&mut server, &xs[i % 4], &mut outs);
        }
    });
    assert_eq!(allocs, 0, "telemetry recording must not allocate");
    // The measured window was actually observed, not silently dropped.
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.counter("serve.requests.completed").unwrap()
            - snap_before.counter("serve.requests.completed").unwrap(),
        80,
        "all 40 rounds x 2 tenants recorded"
    );
    assert_eq!(
        snap.histogram("serve.batch.size").unwrap().count
            - snap_before.histogram("serve.batch.size").unwrap().count,
        40,
    );
    assert!(
        snap.counter("upmem.launches").unwrap() > snap_before.counter("upmem.launches").unwrap()
    );
    assert!(!outs[0].is_empty() && !outs[1].is_empty());
}

/// Scratch-writing MVMs allocate nothing once the tile is programmed and the
/// output scratch exists; `mvm_parallel_into` covers the batched form.
#[test]
fn steady_state_mvm_loop_is_allocation_free() {
    let mut xbar = CrossbarAccelerator::new(CrossbarConfig::default().with_host_threads(1));
    let dim = xbar.config().tile_rows;
    let w: Vec<i32> = (0..dim * dim).map(|i| (i % 17) as i32 - 8).collect();
    xbar.write_tile(0, &w, dim, dim).unwrap();
    xbar.write_tile(1, &w, dim, dim).unwrap();
    let input: Vec<i32> = (0..dim).map(|i| (i % 5) as i32 - 2).collect();
    let mut out = vec![0i32; xbar.config().tile_cols];
    xbar.mvm_into(0, &input, &mut out).unwrap(); // warm-up
    let ((), allocs) = alloc_count::count_in(|| {
        for _ in 0..200 {
            xbar.mvm_into(0, &input, &mut out).unwrap();
            xbar.mvm_into(1, &input, &mut out).unwrap();
        }
    });
    assert_eq!(allocs, 0, "steady-state MVMs must not allocate");

    let requests: Vec<(usize, &[i32])> = vec![(0, &input), (1, &input)];
    let mut batch_out = vec![0i32; requests.len() * xbar.config().tile_cols];
    xbar.mvm_parallel_into(&requests, &mut batch_out).unwrap();
    let ((), allocs) = alloc_count::count_in(|| {
        for _ in 0..100 {
            xbar.mvm_parallel_into(&requests, &mut batch_out).unwrap();
        }
    });
    assert_eq!(allocs, 0, "steady-state MVM batches must not allocate");
}

/// Every MVM form of the crossbar — a tile with an `i16` copy against an
/// input that fits and one that does not, and a tile whose weights do not
/// fit — runs on the weights programmed once: no form builds a vector.
#[test]
fn steady_state_narrow_and_wide_mvms_are_allocation_free() {
    let mut xbar = CrossbarAccelerator::new(CrossbarConfig::default().with_host_threads(1));
    let dim = xbar.config().tile_rows;
    let mut w: Vec<i32> = (0..dim * dim).map(|i| (i % 17) as i32 - 8).collect();
    xbar.write_tile(0, &w, dim, dim).unwrap();
    w[5] = i32::MIN;
    xbar.write_tile(1, &w, dim, dim).unwrap();
    let narrow: Vec<i32> = (0..dim).map(|i| (i % 5) as i32 - 2).collect();
    let mut wide = narrow.clone();
    wide[3] = 40_000;
    let mut out = vec![0i32; 2 * xbar.config().tile_cols];
    xbar.mvm_into(0, &narrow, &mut out).unwrap(); // warm-up
    let ((), allocs) = alloc_count::count_in(|| {
        for input in [&narrow, &wide, &narrow] {
            for tile in 0..2 {
                xbar.mvm_into(tile, input, &mut out).unwrap();
            }
            xbar.mvm_parallel_into(&[(0, input), (1, input)], &mut out)
                .unwrap();
        }
    });
    assert_eq!(allocs, 0, "narrow and wide MVMs must not allocate");
}

/// The compiler's front half: a dialect registry is references to `static`
/// tables (one vector holds them), and the verifier keeps one flag and at
/// most one log entry per value — two vectors sized up front, nothing per op
/// and nothing per region.
#[test]
fn registry_and_verifier_allocations_do_not_grow_with_the_program() {
    let (registry, allocs) = alloc_count::count_in(cinm_dialects::register_all_dialects);
    assert!(
        allocs <= 1,
        "building the registry allocated {allocs} times"
    );

    let lowered = |id| {
        let mut module = cinm_ir::Module::new("m");
        module.add_func(cinm_workloads::build_func(id, cinm_workloads::Scale::Test));
        cinm_core::compile(&mut module, &cinm_core::cnm_pipeline(4, true)).unwrap();
        module
    };
    let (mm, mm3) = (
        lowered(cinm_workloads::WorkloadId::Mm),
        lowered(cinm_workloads::WorkloadId::Mm3),
    );
    let ops = |m: &cinm_ir::Module| m.funcs[0].body.num_live_ops();
    assert!(
        ops(&mm3) >= 2 * ops(&mm) && !mm.funcs[0].body.ops_with_name("upmem.launch").is_empty()
    );
    for module in [&mm, &mm3] {
        let (result, allocs) = alloc_count::count_in(|| cinm_ir::verify_module(module, &registry));
        result.unwrap();
        assert_eq!(allocs, 2, "verifying {} ops", ops(module));
    }
}

/// The benchmark's `session_cold` op — write an activation, record `gemv →
/// select`, `xor → and → or`, `reduce`, run, fetch — over more shapes than
/// the plan cache holds, on 256 DPUs: every run misses, so the graph
/// optimizer, the shard planner and compile all run. Under `policy`
/// `Single(Cnm)` the chain compiles as a fused group; under `Auto`, placed
/// by price, the streaming ops run on the host (each far cheaper there than
/// a launch on 256 DPUs), so the shard dispatch runs instead.
/// Returns the heap allocations of one such op on this thread.
fn cold_session_op_allocations(policy: ShardPolicy) -> u64 {
    use cinm_lowering::ShardedRunOptions;
    use cinm_runtime::PoolHandle;

    const SHAPES: usize = 12;
    let pool = PoolHandle::with_threads(1);
    let mut sess = Session::new(
        SessionOptions::default().with_policy(policy).with_sharded(
            ShardedRunOptions::default()
                .with_ranks(2)
                .with_pool(pool)
                .with_host_threads(1),
        ),
    );
    let cols = 16usize;
    let models: Vec<_> = (0..SHAPES)
        .map(|i| {
            let rows = 32 + 16 * i;
            let w: Vec<i32> = (0..rows * cols).map(|e| (e % 17) as i32 - 8).collect();
            let masks: Vec<Vec<i32>> = (0..3)
                .map(|m| (0..rows).map(|e| ((e * 5 + m) % 4096) as i32).collect())
                .collect();
            (
                sess.matrix(&w, rows, cols),
                sess.vector(&vec![1; cols]),
                [
                    sess.vector(&masks[0]),
                    sess.vector(&masks[1]),
                    sess.vector(&masks[2]),
                ],
            )
        })
        .collect();
    let x: Vec<i32> = (0..cols).map(|e| (e % 5) as i32 - 2).collect();
    let (mut selected, mut chain) = (Vec::new(), Vec::new());
    let mut op = |sess: &mut Session, tick: usize| {
        let (weights, xt, masks) = models[tick % SHAPES];
        sess.write(xt, &x);
        let y = sess.gemv(weights, xt);
        let sel = sess.select(y, 0);
        let t1 = sess.elementwise(BinOp::Xor, y, masks[0]);
        let t2 = sess.elementwise(BinOp::And, t1, masks[1]);
        let ch = sess.elementwise(BinOp::Or, t2, masks[2]);
        let sum = sess.reduce(BinOp::Add, ch);
        sess.run().expect("the graph places");
        sess.fetch_into(sel, &mut selected);
        sess.fetch_into(ch, &mut chain);
        std::hint::black_box(sess.fetch_scalar(sum));
    };
    // Two cycles: buffers exist, inputs are resident, host vectors are sized.
    for tick in 0..2 * SHAPES {
        op(&mut sess, tick);
    }
    let before = sess.plan_cache_stats();
    let ((), allocs) = alloc_count::count_in(|| {
        for tick in 0..SHAPES {
            op(&mut sess, tick);
        }
    });
    let after = sess.plan_cache_stats();
    assert_eq!(
        after.misses - before.misses,
        SHAPES as u64,
        "every run is cold"
    );
    if policy == ShardPolicy::Auto {
        assert!(sess.upmem_stats().launches > 0 && sess.shard_stats().work[2] > 0);
    } else {
        assert!(sess.optimizer_stats().fused_groups >= 1);
    }
    allocs / SHAPES as u64
}

/// The benchmark's 33 (program, route) pairs at its scale: every workload
/// through the front end, the UPMEM optimisation suite through
/// `cinm -> cnm -> upmem` on 8 ranks, and the CIM suite through
/// `cinm -> cim -> memristor`.
fn compile_routes() -> [(Vec<cinm_workloads::WorkloadId>, cinm_ir::PassManager); 3] {
    use cinm_core::{cim_pipeline, cinm_pipeline, cnm_pipeline};
    use cinm_lowering::CimLoweringOptions;
    use cinm_workloads::WorkloadId;
    [
        (WorkloadId::all(), cinm_pipeline()),
        (WorkloadId::upmem_opt_suite(), cnm_pipeline(8, true)),
        (
            WorkloadId::cim_suite(),
            cim_pipeline(CimLoweringOptions::optimized()),
        ),
    ]
}

fn build(id: cinm_workloads::WorkloadId) -> cinm_ir::Module {
    let mut module = cinm_ir::Module::new(id.name());
    module.add_func(cinm_workloads::build_func(id, cinm_workloads::Scale::Bench));
    module
}

/// Heap allocations per program of building and `pipeline::compile`-ing the
/// benchmark's 33 (program, route) pairs.
fn compile_allocations_per_program() -> u64 {
    let (mut programs, mut allocs) = (0, 0);
    for (ids, pm) in &compile_routes() {
        for &id in ids {
            let (result, n) = alloc_count::count_in(|| {
                let mut module = build(id);
                cinm_core::compile(&mut module, pm).map(|_| module)
            });
            result.unwrap();
            programs += 1;
            allocs += n;
        }
    }
    assert_eq!(programs, 33);
    allocs / programs
}

/// The same 33 programs stage by stage, each stage summed over the programs
/// that run it: building, each of the six passes run alone through a
/// `PassManager`, and verifying against the full registry.
fn compile_allocations_by_stage() -> [(&'static str, u64); 8] {
    use cinm_ir::{Pass, PassManager};
    use cinm_lowering::*;
    let pass = |pass: Box<dyn Pass>| {
        let mut pm = PassManager::new();
        pm.add_pass(pass);
        pm
    };
    let front = || {
        [
            pass(Box::new(TosaToLinalgPass)),
            pass(Box::new(LinalgToCinmPass)),
        ]
    };
    let [tosa, linalg] = front();
    let cnm = CnmLoweringOptions {
        workgroup: vec![8 * 128, 16],
        optimize_locality: true,
        ..Default::default()
    };
    let upmem = UpmemLoweringOptions {
        ranks: 8,
        tasklets: 16,
    };
    let routes = [
        (WorkloadId::all(), vec![tosa, linalg]),
        (WorkloadId::upmem_opt_suite(), {
            let [tosa, linalg] = front();
            let cnm = pass(Box::new(CinmToCnmPass::new(cnm)));
            vec![
                tosa,
                linalg,
                cnm,
                pass(Box::new(CnmToUpmemPass::new(upmem))),
            ]
        }),
        (WorkloadId::cim_suite(), {
            let [tosa, linalg] = front();
            let cim = CinmToCimPass::new(CimLoweringOptions::optimized());
            vec![
                tosa,
                linalg,
                pass(Box::new(cim)),
                pass(Box::new(CimToMemristorPass)),
            ]
        }),
    ];
    use cinm_workloads::WorkloadId;
    let mut stages = STAGES.map(|stage| (stage, 0));
    let mut add = |stage: &str, n: u64| {
        let i = STAGES.iter().position(|s| *s == stage).unwrap();
        stages[i].1 += n;
    };
    for (ids, passes) in &routes {
        for &id in ids {
            let (mut module, n) = alloc_count::count_in(|| build(id));
            add("build", n);
            for pm in passes {
                let (result, n) = alloc_count::count_in(|| pm.run(&mut module));
                result.unwrap();
                add(pm.pass_names()[0], n);
            }
            let (result, n) = alloc_count::count_in(|| {
                cinm_ir::verify_module(&module, &cinm_dialects::register_all_dialects())
            });
            result.unwrap();
            add("verify", n);
        }
    }
    stages
}

/// The stages of [`compile_allocations_by_stage`], in pipeline order.
const STAGES: [&str; 8] = [
    "build",
    "convert-tosa-to-linalg",
    "convert-linalg-to-cinm",
    "convert-cinm-to-cnm",
    "convert-cnm-to-upmem",
    "convert-cinm-to-cim",
    "convert-cim-to-memristor",
    "verify",
];

/// Two ceilings. A built and compiled program fell from 258 allocations to
/// 151 when the IR became allocation-light (static op names, one sorted
/// attribute list, per-session pass managers), and to 36 when
/// it stopped allocating per op at all (inline shapes, `Copy` types, operand
/// and attribute lists in per-body pools, borrowed `'static` strings): a
/// per-op vector or `String` coming back shows here before it shows on a
/// clock. A cold session op fell from 247 to 112 with it, to 110 when its
/// one-shard dispatch moved onto this thread (wherever the shard runs, it
/// is counted here), and to 31 when the optimizer stopped encoding every
/// cold graph into a throwaway IR function and ran on the recorded ops
/// instead: an IR copy, or a vector per recorded op, coming back fails here.
/// Under `Auto` the op fell from 23 to 17 when each host-placed op stopped
/// allocating its result and wrote into its output slot instead.
#[test]
fn cold_runs_and_compiles_stay_under_their_allocation_ceilings() {
    for (policy, ceiling) in [
        (ShardPolicy::Single(Target::Cnm), 39),
        (ShardPolicy::Auto, 17),
    ] {
        let cold = cold_session_op_allocations(policy);
        assert!(
            cold <= ceiling,
            "a cold {policy:?} session op allocated {cold} times"
        );
    }
    let compile = compile_allocations_per_program();
    assert!(
        compile <= PROGRAM_CEILING,
        "building and compiling allocated {compile} times per program"
    );
}

/// The whole-program ceiling of building and compiling one of the 33.
const PROGRAM_CEILING: u64 = 36;

/// Each stage of the 33 programs, summed over the programs that run it, is
/// pinned at its measured count plus at most 5 %: which stage a
/// reintroduced allocation sits in shows by name.
#[test]
fn every_compiler_stage_stays_under_its_allocation_pin() {
    const PINS: [u64; 8] = [502, 69, 69, 464, 22, 81, 19, 103];
    for ((stage, got), pin) in compile_allocations_by_stage().into_iter().zip(PINS) {
        assert!(
            got <= pin,
            "{stage} allocated {got} times over its programs, pinned at {pin}"
        );
    }
}

/// Once a body's arenas have grown, creating an op is writes into them: a
/// one-result op with four operands and `'static` attributes (a literal
/// string, an integer, an inline integer array and a flag) allocates
/// nothing, and neither does reading it back.
#[test]
fn pushing_an_op_into_a_body_with_room_allocates_nothing() {
    use cinm_ir::{Func, OpBuilder, ScalarType, Type};
    let t = Type::tensor(&[64, 64], ScalarType::I32);
    let mut f = Func::new("room", [t; 4], vec![]);
    let args = f.arguments();
    let entry = f.body.entry_block();
    let push = |f: &mut Func| {
        OpBuilder::at_end(&mut f.body, entry)
            .op("t.op")
            .operands([args[0], args[1], args[2], args[3]])
            .attr("kind", "select")
            .attr("n", 4_i64)
            .attr("tile", [8, 2])
            .flag("t.flag")
            .result(t)
            .push()
    };
    // 40 ops grow every arena to twice what 40 ops need (4 operands and 4
    // attributes each; 44 values): the next 8 ops fit.
    for _ in 0..40 {
        push(&mut f);
    }
    let (last, allocs) = alloc_count::count_in(|| {
        let mut last = push(&mut f);
        for _ in 1..8 {
            last = push(&mut f);
        }
        let op = f.body.op(last.id);
        assert_eq!(op.str_attr("kind"), Some("select"));
        assert_eq!(op.int_array_attr("tile"), Some(&[8_i64, 2][..]));
        last
    });
    assert_eq!(allocs, 0, "pushing 8 ops into a body with room");
    assert_eq!(f.body.op(last.id).operands, &args[..]);
}

/// A crossbar `gemm` issues one band command per (tile batch × 64 output
/// rows); its MVMs read their input rows in place and accumulate into `C`.
/// Eight times the rows is eight times the MVMs and not one allocation more:
/// a vector per MVM, per row group or per band coming back fails here.
#[test]
fn crossbar_gemm_allocations_do_not_grow_with_the_mvm_count() {
    use cinm_lowering::{CimBackend, CimRunOptions};

    let gemm = |m: usize| {
        let (k, n) = (128usize, 96usize);
        let a: Vec<i32> = (0..m * k).map(|i| (i % 13) as i32 - 6).collect();
        let b: Vec<i32> = (0..k * n).map(|i| (i % 7) as i32 - 3).collect();
        let mut be = CimBackend::new(CimRunOptions::optimized().with_host_threads(1));
        let (c, allocs) = alloc_count::count_in(|| be.gemm(&a, &b, m, k, n));
        assert_eq!(c, cpu_sim::kernels::matmul(&a, &b, m, k, n));
        (allocs, be.stats().xbar.mvm_ops)
    };
    gemm(1); // process-wide one-time set-up (the core-count probe) is not the op's
    let (small, small_mvms) = gemm(64);
    let (large, large_mvms) = gemm(512);
    assert_eq!(large_mvms, 8 * small_mvms);
    assert_eq!(
        large, small,
        "{large_mvms} MVMs allocated {large} times, {small_mvms} MVMs {small} times"
    );
}

/// A cold one-kernel paper run — a fresh CNM session on one DIMM, `va` over
/// `1 << 16` elements recorded, compiled, run and its result taken — measured
/// at 58 allocations and 1.09 vectors' worth of bytes: the operands are fed
/// (`Session::run_with` lends them to the scatters and the launch), so the
/// run allocates the one result slab (which `take` moves out) and strides.
/// With the two inputs mirrored by `write` it was 61 allocations and 3.06
/// vectors, and 6.06 vectors when every transfer copied. The count was 91
/// while the optimizer encoded the one-op graph into an IR function, and 90
/// before that. A copy per upload, fetch or gather coming back shows as a
/// vector's worth of bytes before it shows on a clock (six vectors' worth
/// when scatter, launch and gather each faulted in a slab of their own).
#[test]
fn a_cold_session_run_stays_under_its_allocation_ceiling() {
    use cinm_core::runner::{self, WorkloadInputs};
    use cinm_lowering::UpmemRunOptions;
    use cinm_workloads::{Scale, WorkloadId};

    let len = 1usize << 16;
    let inp = WorkloadInputs {
        buffers: vec![
            (0..len).map(|i| (i % 29) as i32 - 14).collect(),
            (0..len).map(|i| (i % 31) as i32 - 15).collect(),
        ],
    };
    let want: Vec<i32> = (0..len)
        .map(|i| inp.buffers[0][i] + inp.buffers[1][i])
        .collect();
    let cold_run = || {
        let mut s = runner::cnm_session(1, UpmemRunOptions::optimized().with_host_threads(1));
        // The vector workloads take their length from the inputs.
        runner::run_session(WorkloadId::Va, Scale::Test, &inp, &mut s)
    };
    cold_run(); // process-wide one-time set-up is not the run's
    let ((out, bytes), allocs) = alloc_count::count_in(|| alloc_count::bytes_in(cold_run));
    assert_eq!(out, want);
    assert!(allocs <= 58, "a cold va run allocated {allocs} times");
    let vector = (len * 4) as f64;
    assert!(
        bytes as f64 <= 1.25 * vector,
        "a cold va run allocated {:.2} vectors' worth of bytes",
        bytes as f64 / vector
    );
}

/// One image per tensor, seen through the allocator: with 128 DPUs and
/// `1 << 16` elements (a 256 KB vector filling the grid exactly) an upload
/// hands the session's mirror to the device, `take` moves the result slab out,
/// and under an MRAM limit neither a spill nor the re-upload of a tensor that
/// was dropped for free allocates a vector — each step stays within a quarter
/// of a vector of what it must allocate (a result slab per run, a mirror per
/// new tensor). A length that leaves a padded tail is copied as before: two
/// more slabs for the two operands, a gathered vector for the result.
#[test]
fn an_operand_the_device_stores_verbatim_is_never_copied() {
    let src =
        |len: usize, k: usize| -> Vec<i32> { (0..len).map(|i| ((i * k) % 29) as i32).collect() };
    let session = |limit: Option<usize>| {
        let cfg = UpmemConfig::with_ranks(1).with_host_threads(1);
        let opts = SessionOptions::default()
            .with_upmem_config(cfg)
            .with_policy(ShardPolicy::Single(Target::Cnm));
        Session::new(match limit {
            Some(bytes) => opts.with_mram_limit_bytes(bytes),
            None => opts,
        })
    };
    let vectors = |bytes: u64| bytes as f64 / (4 << 16) as f64;
    // The bytes a cold `z = x + w; run(); take(z)` allocates, step by step.
    let cold = |len: usize| {
        let mut sess = session(None);
        let (x, w) = (sess.vector(&src(len, 3)), sess.vector(&src(len, 5)));
        let z = sess.elementwise(BinOp::Add, x, w);
        let ((), run) = alloc_count::bytes_in(|| sess.run().expect("cnm placement"));
        let (out, take) = alloc_count::bytes_in(|| sess.take(z));
        assert_eq!(out[7], 21 + 6, "7 * 3 % 29 + 7 * 5 % 29");
        (vectors(run), vectors(take))
    };
    cold(1 << 16); // process-wide one-time set-up is not the run's
    let (run, take) = cold(1 << 16);
    assert!(run <= 1.25 && take <= 0.25, "exact: {run:.2} + {take:.2}");
    let (run, take) = cold((1 << 16) - 3);
    assert!(run >= 3.0 && take >= 1.0, "padded: {run:.2} + {take:.2}");

    // Room for two and a half of the 2 KB per-DPU chunk buffers.
    let mut sess = session(Some(5 << 10));
    let y = sess.vector(&src(1 << 16, 7));
    let z1 = sess.elementwise(BinOp::Add, y, y);
    sess.pin(z1);
    sess.run().expect("cnm placement");
    // Rewriting `y` with its own contents retires `z1`'s recipe, so `z1`
    // must spill: recomputing it from `y` is cheaper than a spill.
    sess.write(y, &src(1 << 16, 7));
    let x = sess.vector(&src(1 << 16, 3));
    let z2 = sess.elementwise(BinOp::Mul, x, x);
    sess.pin(z2);
    // `y` is dropped for free and `z1` spilled to make room for `x`, `z2`.
    let ((), spilling) = alloc_count::bytes_in(|| sess.run().expect("cnm placement"));
    let stats = sess.residency_stats();
    assert_eq!((stats.evictions, stats.spills), (2, 1), "{stats:?}");
    let z3 = sess.elementwise(BinOp::Sub, y, y);
    let ((), reupload) = alloc_count::bytes_in(|| sess.run().expect("cnm placement"));
    assert!(sess.residency_stats().evictions > 2);
    let (spilling, reupload) = (vectors(spilling), vectors(reupload));
    assert!(
        spilling <= 1.25 && reupload <= 1.25,
        "{spilling:.2}, {reupload:.2}"
    );
    assert_eq!(sess.fetch(z3), vec![0; 1 << 16]);
    assert_eq!(sess.fetch(z1)[5], 2 * (5 * 7 % 29));
}

/// A cold sharded element-wise op moves each byte once. On one DIMM, with
/// every element on the grid or three quarters of them (the rest on the
/// host), at an exact and a padded length, the op allocates the result and
/// nothing else of its size, within an eighth of a vector: the scattered
/// operands are lent to the launch, the launch writes straight into the
/// CNM shard's range of the result (its output buffer keeps one stride),
/// and the host shard writes its own range: 1.06 vectors' worth on the
/// grid alone, 1.04 split (1.06 and 1.05 at the padded length). With an
/// output slab the same runs allocated 2.03 and 1.77, and copying
/// everything 4.03 and 3.27 — a slab per operand and the gathered vector
/// besides, and the grid's part grown into the whole result.
#[test]
fn a_cold_sharded_elementwise_allocates_only_the_result() {
    use cinm_lowering::{ShardSplit, ShardedBackend, ShardedRunOptions};
    use cinm_runtime::PoolHandle;

    let pool = PoolHandle::with_threads(1);
    let cold = |a: &[i32], b: &[i32], split: &ShardSplit| {
        let mut be = ShardedBackend::new(
            ShardedRunOptions::default()
                .with_ranks(1)
                .with_pool(pool.clone())
                .with_host_threads(1),
        );
        alloc_count::bytes_in(|| be.elementwise(BinOp::Add, a, b, split).unwrap())
    };
    for len in [1usize << 16, (1 << 16) - 3] {
        let a: Vec<i32> = (0..len).map(|i| (i % 29) as i32 - 14).collect();
        let b: Vec<i32> = (0..len).map(|i| (i % 31) as i32 - 15).collect();
        let want: Vec<i32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        for cnm in [len, len / 4 * 3] {
            let split = ShardSplit {
                cnm,
                cim: 0,
                host: len - cnm,
            };
            cold(&a, &b, &split); // process-wide one-time set-up is not the op's
            let (out, bytes) = cold(&a, &b, &split);
            assert_eq!(out, want, "{len} elements, {split:?}");
            let vector = (len * 4) as f64;
            assert!(
                bytes as f64 <= vector * 1.125,
                "{len} elements, {split:?}: {:.2} vectors' worth",
                bytes as f64 / vector
            );
        }
    }
}

/// A cold eager time series writes its profiles straight into the result:
/// the profiles are a prefix of the gather (whole strides of the used
/// DPUs), so the launch is lent the result and the op allocates it and
/// nothing else of its size, within an eighth of the result: 1.03 results'
/// worth on one DIMM. Decoded from an output slab, the same run allocated
/// 2.03.
#[test]
fn a_cold_eager_time_series_allocates_only_the_result() {
    use cinm_lowering::{UpmemBackend, UpmemRunOptions};

    let cold = |a: &[i32], window: usize| {
        let options = UpmemRunOptions::optimized().with_host_threads(1);
        let mut be = UpmemBackend::new(1, options);
        alloc_count::bytes_in(|| be.time_series(a, window))
    };
    for (len, window) in [(1usize << 16, 8), ((1 << 16) - 3, 5)] {
        let a: Vec<i32> = (0..len).map(|i| (i % 29) as i32 - 14).collect();
        cold(&a, window); // process-wide one-time set-up is not the op's
        let (out, bytes) = cold(&a, window);
        let result = (out.len() * 4) as f64;
        assert!(
            out.len() > len / 2,
            "{len} elements: {} profiles",
            out.len()
        );
        assert!(
            bytes as f64 <= result * 1.125,
            "{len} elements, window {window}: {:.2} results' worth",
            bytes as f64 / result
        );
    }
}
