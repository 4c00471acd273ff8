//! Generic conformance suite of the unified `Device` trait, run against all
//! three implementations (UPMEM grid, memristive crossbar, host roofline).
//!
//! Every device must: obey the one support rule (its cost hookup prices an op
//! exactly when `submit` accepts it), resolve empty shards for
//! free without touching statistics, execute supported shards bit-identically
//! to the `cpu_sim` goldens while accumulating simulated seconds, reject
//! unsupported shards with `ShardError::Unsupported` without side effects,
//! and fully clear its statistics on `reset_stats`.

use cinm::cpu::kernels;
use cinm::cpu::model::CpuModel;
use cinm::lowering::{
    CimBackend, CimDevice, CimRunOptions, Device, HostDevice, ShardError, ShardOp, ShardShape,
    UpmemBackend, UpmemDevice, UpmemRunOptions,
};
use cinm::upmem::{BinOp, UpmemConfig};
use cinm::workloads::data;

/// The op sample the suite probes: one representative shard per shardable
/// kind, with its name and matching [`ShardShape`].
fn probe_ops<'a>(a: &'a [i32], b: &'a [i32]) -> [(&'static str, ShardShape, ShardOp<'a>); 5] {
    let add = BinOp::Add;
    [
        ("cinm.gemm", ShardShape::matmul(16, 8, 8), {
            let (m, k, n) = (16, 8, 8);
            ShardOp::Gemm { a, b, m, k, n }
        }),
        ("cinm.gemv", ShardShape::matmul(16, 8, 1), {
            let x = &b[..8];
            ShardOp::Gemv {
                a,
                x,
                rows: 16,
                cols: 8,
            }
        }),
        ("cinm.add", ShardShape::streaming(64), {
            ShardOp::Elementwise {
                op: add,
                a: &a[..64],
                b,
            }
        }),
        ("cinm.reduce", ShardShape::streaming(64), {
            ShardOp::Reduce {
                op: add,
                a: &a[..64],
            }
        }),
        ("cinm.histogram", ShardShape::streaming(64), {
            ShardOp::Histogram {
                a: &a[..64],
                bins: 8,
                max_value: 8,
            }
        }),
    ]
}

/// Runs the whole conformance suite against one device.
fn conformance(device: &mut dyn Device) {
    let cost = device.cost();
    let name = cost.target();

    // 1. The one support rule: the cost hookup prices an op exactly when
    //    `submit` accepts it, and every price is positive.
    let (a, b) = (data::i32_vec(5, 128, 0, 8), data::i32_vec(6, 64, 0, 8));
    for (op, shape, shard) in probe_ops(&a, &b) {
        let priced = cost.estimate_shard_seconds(op, &shape);
        if let Some(t) = priced {
            assert!(t > 0.0, "{name}: {op} estimate must be positive");
        }
        assert_eq!(
            device.submit(&shard).is_ok(),
            priced.is_some(),
            "{name}: cost hookup and submit disagree on {op}"
        );
    }

    // 2. Empty-shard submit: resolved immediately, no statistics.
    let x = data::i32_vec(7, 8, -4, 4);
    let before = device.sim_seconds();
    let future = device
        .submit(&ShardOp::Gemv {
            a: &[],
            x: &x,
            rows: 0,
            cols: 8,
        })
        .expect("empty shards always succeed");
    let (result, seconds) = future.wait().expect("empty shards never fault");
    assert!(result.is_empty(), "{name}: empty shard result");
    assert_eq!(seconds, 0.0, "{name}: empty shard cost");
    assert_eq!(before, device.sim_seconds(), "{name}: empty shard stats");

    // 3. A supported shard executes bit-identically to the golden and
    //    accumulates simulated time.
    let (rows, cols) = (16usize, 8usize);
    let a = data::i32_vec(8, rows * cols, -8, 8);
    let future = device
        .submit(&ShardOp::Gemv {
            a: &a,
            x: &x,
            rows,
            cols,
        })
        .expect("gemv is universally supported");
    let (result, seconds) = future.wait().expect("fault-free gemv shard");
    assert_eq!(
        result,
        kernels::matvec(&a, &x, rows, cols),
        "{name}: gemv shard result"
    );
    assert!(seconds > 0.0, "{name}: gemv shard must cost time");
    assert!(
        device.sim_seconds() > before,
        "{name}: statistics must accumulate"
    );

    // 4. Unsupported shards error without touching statistics.
    let v = data::i32_vec(9, 32, -4, 4);
    if cost
        .estimate_shard_seconds("cinm.add", &ShardShape::streaming(v.len()))
        .is_none()
    {
        let before = device.sim_seconds();
        let err = device
            .submit(&ShardOp::Elementwise {
                op: BinOp::Add,
                a: &v,
                b: &v,
            })
            .unwrap_err();
        assert!(
            matches!(err, ShardError::Unsupported { .. }),
            "{name}: wrong error kind"
        );
        assert_eq!(before, device.sim_seconds(), "{name}: failed submit stats");
    } else {
        let (result, _) = device
            .submit(&ShardOp::Elementwise {
                op: BinOp::Add,
                a: &v,
                b: &v,
            })
            .expect("supported elementwise")
            .wait()
            .expect("fault-free elementwise shard");
        assert_eq!(result, kernels::vector_add(&v, &v), "{name}: elementwise");
    }

    // 5. reset_stats clears the accumulated simulated time.
    device.reset_stats();
    assert_eq!(device.sim_seconds(), 0.0, "{name}: reset_stats");
}

fn upmem_device() -> UpmemDevice {
    let mut cfg = UpmemConfig::with_ranks(1);
    cfg.dpus_per_rank = 8;
    UpmemDevice::new(UpmemBackend::with_config(cfg, UpmemRunOptions::optimized()))
}

#[test]
fn upmem_device_conforms() {
    conformance(&mut upmem_device());
}

#[test]
fn cim_device_conforms() {
    conformance(&mut CimDevice::new(CimBackend::new(
        CimRunOptions::optimized(),
    )));
}

#[test]
fn host_device_conforms() {
    conformance(&mut HostDevice::new(CpuModel::arm_host()));
}

/// The three devices price the expected capability matrix.
#[test]
fn capability_matrix_matches_the_paper() {
    use cinm::lowering::Target;
    let up = upmem_device().cost();
    let cim = CimDevice::new(CimBackend::new(CimRunOptions::optimized())).cost();
    let host = HostDevice::new(CpuModel::arm_host()).cost();
    assert_eq!(up.target(), Target::Cnm);
    assert_eq!(cim.target(), Target::Cim);
    assert_eq!(host.target(), Target::Host);
    // MVM-only crossbar; the grid and the host run every shardable op.
    let (hist, gemv) = (ShardShape::streaming(64), ShardShape::matmul(16, 8, 1));
    assert!(cim
        .estimate_shard_seconds("cinm.histogram", &hist)
        .is_none());
    assert!(cim.estimate_shard_seconds("cinm.gemv", &gemv).is_some());
    assert!(up.estimate_shard_seconds("cinm.histogram", &hist).is_some());
    assert!(host
        .estimate_shard_seconds("cinm.histogram", &hist)
        .is_some());
}

/// A full MRAM is a typed refusal on every eager surface, never a panic
/// (regression: `UpmemBackend::context` used to `expect` its allocations).
/// The refused context leaves nothing allocated, the refusal does not count
/// against device health, and a shard-planned op in a capped session
/// surfaces the same typed error instead of an `ExecutionPanic`.
#[test]
fn a_full_mram_is_a_typed_refusal_on_the_eager_paths() {
    use cinm::core::{Session, SessionOptions, ShardPolicy};
    let mut cfg = UpmemConfig::with_ranks(1);
    cfg.dpus_per_rank = 8;
    cfg.mram_bytes = 256;
    let mut device = UpmemDevice::new(UpmemBackend::with_config(
        cfg.clone(),
        UpmemRunOptions::optimized(),
    ));
    // 40 elements (160 B) per DPU and buffer: the first input fits, the
    // second does not.
    let v = data::i32_vec(1, 320, -9, 9);
    let err = device
        .backend_mut()
        .try_elementwise(BinOp::Add, &v, &v)
        .unwrap_err();
    assert_eq!(err.mram_shortfall(), Some((160, 96)));
    assert_eq!(device.backend().system().mram_used_bytes(), 0);
    assert_eq!(device.backend().cached_contexts(), 0);

    let shard = ShardOp::Elementwise {
        op: BinOp::Add,
        a: &v,
        b: &v,
    };
    let refused = device.submit(&shard).unwrap().wait().unwrap_err();
    assert_eq!(
        refused,
        ShardError::MramExhausted {
            needed_bytes: 160,
            available_bytes: 96
        }
    );
    assert!(device.is_healthy());
    assert_eq!(device.health().total_failures, 0);

    // Three 32-byte buffers fit: the device is still usable.
    let w = &v[..64];
    assert_eq!(
        device.backend_mut().elementwise(BinOp::Add, w, w),
        kernels::vector_add(w, w)
    );

    // Half of the op is planned onto the grid's eager context (20 elements
    // = 80 B per DPU), which the 64-byte session budget cannot hold.
    let mut sess = Session::new(
        SessionOptions::default()
            .with_upmem_config(cfg)
            .with_policy(ShardPolicy::Fractions([0.5, 0.0, 0.5]))
            .with_mram_limit_bytes(64),
    );
    let vt = sess.vector(&v);
    let _sum = sess.elementwise(BinOp::Add, vt, vt);
    let err = sess.run().unwrap_err();
    assert!(matches!(err, ShardError::MramExhausted { .. }), "{err}");
}
