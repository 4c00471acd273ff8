//! Generic conformance suite of the unified `Device` trait, run against all
//! three implementations (UPMEM grid, memristive crossbar, host roofline).
//!
//! Every device must: obey the one support rule (its cost hookup prices an op
//! exactly when `run` accepts it), resolve empty shards for free without
//! touching statistics, execute supported shards bit-identically to the
//! `cpu_sim` goldens while accumulating simulated seconds, reject
//! unsupported shards with `ShardError::Unsupported` without side effects,
//! and fully clear its statistics on `reset_stats`.

use cinm::cpu::kernels;
use cinm::cpu::model::CpuModel;
use cinm::lowering::cnm_op::CnmOp;
use cinm::lowering::{
    CimBackend, CimDevice, CimRunOptions, Device, HostDevice, ShardError, UpmemBackend,
    UpmemDevice, UpmemRunOptions,
};
use cinm::upmem::{BinOp, UpmemConfig};
use cinm::workloads::data;

/// The op sample the suite probes: one representative shard per shardable
/// kind, with its operand slices in the order [`Device::run`] takes them.
fn probe_ops<'a>(a: &'a [i32], b: &'a [i32]) -> [(CnmOp, Vec<&'a [i32]>); 5] {
    let (add, a64) = (BinOp::Add, &a[..64]);
    [
        (CnmOp::Gemm { m: 16, k: 8, n: 8 }, vec![a, b]),
        (CnmOp::Gemv { rows: 16, cols: 8 }, vec![a, &b[..8]]),
        (CnmOp::Elementwise { op: add, len: 64 }, vec![a64, b]),
        (CnmOp::Reduce { op: add, len: 64 }, vec![a64]),
        (
            CnmOp::Histogram {
                bins: 8,
                max_value: 8,
                len: 64,
            },
            vec![a64],
        ),
    ]
}

/// Runs the whole conformance suite against one device.
fn conformance(device: &mut dyn Device) {
    let cost = device.cost();
    let name = cost.target();

    // 1. The one support rule: the cost hookup prices an op exactly when
    //    `run` accepts it, and every price is positive.
    let (a, b) = (data::i32_vec(5, 128, 0, 8), data::i32_vec(6, 64, 0, 8));
    for (op, operands) in probe_ops(&a, &b) {
        let priced = cost.price(op);
        if let Some(c) = priced {
            assert!(
                c.seconds > 0.0 && c.joules > 0.0,
                "{name}: {op:?} price must be positive"
            );
        }
        let ran = device.run(op, &operands);
        let refused = matches!(ran, Err(ShardError::Unsupported { .. }));
        assert_eq!(
            priced.is_some(),
            !refused,
            "{name}: cost hookup and run disagree on {op:?}"
        );
    }

    // 2. An empty shard: resolved immediately, no statistics.
    let x = data::i32_vec(7, 8, -4, 4);
    let before = device.sim_seconds();
    let (result, seconds) = device
        .run(CnmOp::Gemv { rows: 0, cols: 8 }, &[&[], &x])
        .expect("empty shards always succeed");
    assert!(result.is_empty(), "{name}: empty shard result");
    assert_eq!(seconds, 0.0, "{name}: empty shard cost");
    assert_eq!(before, device.sim_seconds(), "{name}: empty shard stats");

    // 3. A supported shard executes bit-identically to the golden and
    //    accumulates simulated time.
    let (rows, cols) = (16usize, 8usize);
    let a = data::i32_vec(8, rows * cols, -8, 8);
    let (result, seconds) = device
        .run(CnmOp::Gemv { rows, cols }, &[&a, &x])
        .expect("gemv is universally supported and fault-free");
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
    let add = CnmOp::Elementwise {
        op: BinOp::Add,
        len: v.len(),
    };
    if cost.price(add).is_none() {
        let before = device.sim_seconds();
        let err = device.run(add, &[&v, &v]).unwrap_err();
        assert!(
            matches!(err, ShardError::Unsupported { .. }),
            "{name}: wrong error kind"
        );
        assert_eq!(before, device.sim_seconds(), "{name}: failed run stats");
    } else {
        let (result, _) = device
            .run(add, &[&v, &v])
            .expect("supported, fault-free elementwise shard");
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
    let hist = CnmOp::Histogram {
        bins: 8,
        max_value: 8,
        len: 64,
    };
    assert!(cim.price(hist).is_none());
    assert!(cim.price(CnmOp::Gemv { rows: 16, cols: 8 }).is_some());
    assert!(up.price(hist).is_some());
    assert!(host.price(hist).is_some());
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

    let add = CnmOp::Elementwise {
        op: BinOp::Add,
        len: v.len(),
    };
    let refused = device.run(add, &[&v, &v]).unwrap_err();
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
