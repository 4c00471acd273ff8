//! The benchmark's pins against their typed twins. `benchmark/` compiles
//! against the shims in `cinm-core`'s and `cinm-lowering`'s `pinned`
//! modules; nothing else may call them (`tools/check_pins.sh`), so this is
//! the one test that does. It goes together with those modules (ROADMAP
//! item 1(d)).

use cinm::core::shard::{CachedShardPlanner, ShardPlanner, ShardPolicy, ShardShape};
use cinm::core::Target;
use cinm::cpu::model::CpuModel;
use cinm::dialects::cinm as cinm_ops;
use cinm::lowering::cnm_op::CnmOp;
use cinm::lowering::{
    CimBackend, CimDevice, CimRunOptions, Device, HostDevice, ShardError, ShardOp, UpmemBackend,
    UpmemDevice, UpmemRunOptions,
};
use cinm::upmem::{BinOp, UpmemConfig};

/// Each pin answers bit for bit what its typed twin does: the string planner
/// entries against `plan_op`, `Device::submit` and `DeviceFuture::wait`
/// against `Device::run`.
#[test]
fn pinned_shims_agree_with_the_typed_path() {
    let planner = ShardPlanner::with_default_models(4);
    let mut cached = CachedShardPlanner::with_default_models(4);
    let len = 1 << 20;
    let stream = ShardShape::streaming(len);
    let elementwise = |op| CnmOp::Elementwise { op, len };
    let named = [
        (
            cinm_ops::GEMM,
            ShardShape::matmul(4096, 256, 128),
            CnmOp::Gemm {
                m: 4096,
                k: 256,
                n: 128,
            },
        ),
        (
            cinm_ops::GEMV,
            ShardShape::matmul(4096, 1024, 1),
            CnmOp::Gemv {
                rows: 4096,
                cols: 1024,
            },
        ),
        (
            cinm_ops::REDUCE,
            stream,
            CnmOp::Reduce {
                op: BinOp::Add,
                len,
            },
        ),
        ("cinm.add", stream, elementwise(BinOp::Add)),
        ("cinm.xor", stream, elementwise(BinOp::Xor)),
        (
            cinm_ops::HISTOGRAM,
            stream,
            CnmOp::Histogram {
                bins: 256,
                max_value: 0,
                len,
            },
        ),
    ];
    for (name, shape, op) in named {
        let typed = planner.plan_op(op);
        assert_eq!(planner.plan(name, shape), typed, "{name}");
        assert_eq!(cached.plan(name, shape).cloned(), typed, "{name}");
        // The string entry memoized the op's own entry.
        let (hits, _) = cached.cache_stats();
        assert_eq!(cached.plan_op(op).cloned(), typed, "{name}");
        assert_eq!(cached.cache_stats().0, hits + 1, "{name}");
        // A single-target plan carries the target's full-shard joules.
        for target in Target::ALL {
            let single = ShardPlanner::with_default_models(4)
                .with_policy(ShardPolicy::Single(target))
                .plan_op(op);
            let joules = single.ok().map(|p| p.estimated_joules[target.index()]);
            let pinned = planner.estimate_joules(target, name, &shape);
            assert_eq!(pinned, joules, "{name} on {target}");
        }
    }
    // Both string entries refuse a name no op stands for.
    for name in [cinm_ops::SIM_SEARCH, cinm_ops::TOPK, cinm_ops::NOT] {
        let unsupported = Err(ShardError::Unsupported {
            device: Target::Host,
            op: name,
        });
        assert_eq!(planner.plan(name, stream), unsupported, "{name}");
        assert_eq!(cached.plan(name, stream).cloned(), unsupported, "{name}");
        assert_eq!(planner.estimate_joules(Target::Host, name, &stream), None);
    }

    // The device entry, on all three devices: `submit` then `wait` answers
    // what `run` does, and `submit` itself refuses an op the device does not
    // run.
    let a: Vec<i32> = (0..128).map(|i| i % 8 - 4).collect();
    let b: Vec<i32> = (0..64).map(|i| i % 5 - 2).collect();
    let (a64, x, add) = (&a[..64], &b[..8], BinOp::Add);
    let (m, k, n) = (16, 8, 8);
    let (bins, max_value) = (8, 8);
    let shards: [(ShardOp<'_>, CnmOp, Vec<&[i32]>); 6] = [
        (
            ShardOp::Gemm {
                a: &a,
                b: &b,
                m,
                k,
                n,
            },
            CnmOp::Gemm { m, k, n },
            vec![&a, &b],
        ),
        (
            ShardOp::Gemv {
                a: &a,
                x,
                rows: m,
                cols: k,
            },
            CnmOp::Gemv { rows: m, cols: k },
            vec![&a, x],
        ),
        (
            ShardOp::Elementwise {
                op: add,
                a: a64,
                b: &b,
            },
            CnmOp::Elementwise { op: add, len: 64 },
            vec![a64, &b],
        ),
        (
            ShardOp::Reduce { op: add, a: a64 },
            CnmOp::Reduce { op: add, len: 64 },
            vec![a64],
        ),
        (
            ShardOp::Histogram {
                a: a64,
                bins,
                max_value,
            },
            CnmOp::Histogram {
                bins,
                max_value,
                len: 64,
            },
            vec![a64],
        ),
        (
            ShardOp::Gemv {
                a: &[],
                x,
                rows: 0,
                cols: k,
            },
            CnmOp::Gemv { rows: 0, cols: k },
            vec![&[], x],
        ),
    ];
    let mut cfg = UpmemConfig::with_ranks(1);
    cfg.dpus_per_rank = 8;
    let devices: [Box<dyn Device>; 3] = [
        Box::new(UpmemDevice::new(UpmemBackend::with_config(
            cfg,
            UpmemRunOptions::optimized(),
        ))),
        Box::new(CimDevice::new(CimBackend::new(CimRunOptions::optimized()))),
        Box::new(HostDevice::new(CpuModel::arm_host())),
    ];
    for mut device in devices {
        let target = device.cost().target();
        for (shard, op, operands) in &shards {
            device.reset_stats();
            let mut out = vec![0; op.geometry(1).out_len];
            let ran = device.run(*op, operands, &mut out).map(|s| (out, s));
            device.reset_stats();
            let submitted = device.submit(shard);
            if matches!(ran, Err(ShardError::Unsupported { .. })) {
                assert_eq!(submitted.err(), ran.err(), "{target}: {op:?}");
            } else {
                let waited = submitted.expect("submit refuses only unsupported ops");
                assert_eq!(waited.wait(), ran, "{target}: {op:?}");
            }
        }
    }
}
