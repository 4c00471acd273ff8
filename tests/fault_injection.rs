//! Fault-injection integration tests: typed errors when the retry budget is
//! exhausted, degraded re-planning around permanently failed devices,
//! host-only fallback when every accelerator dies, and bit-identical results
//! for the full workload suite under deterministic fault schedules.

use cinm::core::{runner, Session, SessionOptions, ShardPolicy, Target};
use cinm::lowering::cnm_op::CnmOp;
use cinm::lowering::{
    Device, ShardError, ShardedRunOptions, UpmemBackend, UpmemDevice, UpmemRunOptions,
};
use cinm::memristor::CrossbarConfig;
use cinm::runtime::FaultConfig;
use cinm::upmem::UpmemConfig;
use cinm::workloads::{data, Scale, WorkloadId};

fn small_cfg() -> UpmemConfig {
    let mut cfg = UpmemConfig::with_ranks(1);
    cfg.dpus_per_rank = 8;
    cfg
}

fn session_with(policy: ShardPolicy, cfg: UpmemConfig) -> Session {
    Session::new(
        SessionOptions::default()
            .with_upmem_config(cfg)
            .with_policy(policy),
    )
}

/// A transient fault storm that outlives the retry budget surfaces as a
/// typed, non-permanent `DeviceFault` from `Device::run` — never a
/// panic — and the retries taken are accounted in the fault counters.
#[test]
fn retry_exhaustion_surfaces_a_typed_error() {
    let cfg = small_cfg().with_fault(FaultConfig::seeded(7).with_launch_fault_rate(1.0));
    let backend = UpmemBackend::with_config(cfg, UpmemRunOptions::optimized());
    let max_attempts = backend.retry_policy().max_attempts;
    let mut device = UpmemDevice::new(backend);

    let rows = 16usize;
    let cols = 8usize;
    let a = data::i32_vec(1, rows * cols, -8, 8);
    let x = data::i32_vec(2, cols, -8, 8);
    let err = device
        .run(CnmOp::Gemv { rows, cols }, &[&a, &x])
        .expect_err("a 100% launch fault rate must exhaust the retry budget");
    match err {
        ShardError::DeviceFault {
            device: d,
            permanent,
            ..
        } => {
            assert_eq!(d, Target::Cnm);
            assert!(!permanent, "transient exhaustion is not a permanent fault");
        }
        other => panic!("wrong error kind: {other:?}"),
    }
    // The failed launch burned the whole budget: max_attempts - 1 retries.
    let stats = device.backend().fault_stats();
    assert_eq!(stats.transient_retries, (max_attempts - 1) as u64);
    assert!(stats.backoff_seconds > 0.0, "backoff must be accounted");
    assert_eq!(device.health().consecutive_failures, 1);
    assert!(device.is_healthy(), "one failure is below the health limit");
}

/// A permanently failed crossbar is dropped from the shard plan: the session
/// re-plans across the surviving devices and keeps producing bit-identical
/// results.
#[test]
fn permanent_cim_failure_replans_around_the_crossbar() {
    let m = 64usize;
    let k = 64usize;
    let n = 64usize;
    let a = data::i32_vec(3, m * k, -6, 6);
    let b = data::i32_vec(4, k * n, -6, 6);

    let run = |cim_fault: Option<FaultConfig>| -> (Vec<Vec<i32>>, Session) {
        let mut sharded = ShardedRunOptions::default().with_ranks(1);
        if let Some(fault) = cim_fault {
            sharded = sharded.with_cim_config(CrossbarConfig::default().with_fault(fault));
        }
        let mut sess = Session::new(
            SessionOptions::default()
                .with_upmem_config(small_cfg())
                .with_policy(ShardPolicy::Auto)
                .with_sharded(sharded),
        );
        let mut outs = Vec::new();
        for _ in 0..3 {
            let at = sess.matrix(&a, m, k);
            let bt = sess.matrix(&b, k, n);
            let ct = sess.gemm(at, bt);
            sess.run().expect("the CNM grid and the host survive");
            outs.push(sess.fetch(ct));
        }
        (outs, sess)
    };

    let (baseline, baseline_sess) = run(None);
    assert!(
        !baseline_sess.fault_stats().any(),
        "fault-free runs must not touch the fault counters"
    );
    // Every crossbar tile is stuck-at: the first programming attempt fails
    // permanently (the default crossbar has 4 tiles).
    let (faulted, sess) = run(Some(
        FaultConfig::seeded(11).with_stuck_tiles(vec![0, 1, 2, 3]),
    ));
    assert_eq!(baseline, faulted, "re-planned runs must stay bit-identical");
    let stats = sess.fault_stats();
    assert!(
        stats.permanent_faults >= 1 && stats.replans >= 1 && stats.degradations >= 1,
        "the CIM death must be counted: {stats:?}"
    );
    assert!(
        !sess.backend().device(Target::Cim).is_healthy(),
        "the dead crossbar must be marked unhealthy"
    );
    assert!(sess.backend().device(Target::Cnm).is_healthy());
}

/// A permanently failed UPMEM grid under a CNM-forced policy (including
/// non-plannable ops that only lower to the grid) is replaced by a spare
/// carrying the rescued memory image; results stay bit-identical.
#[test]
fn permanent_cnm_failure_fails_over_to_a_spare_grid() {
    let len = 160usize;
    let v = data::i32_vec(5, len, -64, 64);

    let run = |fault: Option<FaultConfig>| -> (Vec<Vec<i32>>, Session) {
        let mut cfg = small_cfg();
        if let Some(fault) = fault {
            cfg = cfg.with_fault(fault);
        }
        let mut sess = session_with(ShardPolicy::Single(Target::Cnm), cfg);
        let vt = sess.vector(&v);
        let mut outs = Vec::new();
        for run_i in 0i32..4 {
            let doubled = sess.elementwise(cinm::upmem::BinOp::Add, vt, vt);
            // `select` has no host lowering: the grid itself must keep working.
            let sel = sess.select(doubled, run_i - 2);
            sess.run().expect("the spare grid takes over");
            outs.push(sess.fetch(sel));
        }
        (outs, sess)
    };

    let (baseline, _) = run(None);
    let (faulted, sess) = run(Some(
        FaultConfig::seeded(23).with_permanent_after_launches(2),
    ));
    assert_eq!(baseline, faulted, "failover must stay bit-identical");
    let stats = sess.fault_stats();
    assert!(
        stats.permanent_faults >= 1 && stats.degradations >= 1,
        "the grid death and failover must be counted: {stats:?}"
    );
    assert!(
        sess.backend().device(Target::Cnm).is_healthy(),
        "the swapped-in spare starts healthy"
    );
}

/// When every accelerator dies permanently, plannable graphs degrade to
/// host-only execution and still produce bit-identical results.
#[test]
fn dead_accelerators_degrade_to_host_only_execution() {
    // Large enough that the auto planner shards the work across all three
    // devices — both accelerators hold live shards when they die.
    let rows = 1024usize;
    let cols = 512usize;
    let a = data::i32_vec(6, rows * cols, -7, 7);
    let x = data::i32_vec(7, cols, -7, 7);

    let run = |fault: Option<FaultConfig>| -> (Vec<Vec<i32>>, Session) {
        let mut opts = SessionOptions::default()
            .with_upmem_config(small_cfg())
            .with_policy(ShardPolicy::Auto);
        if let Some(fault) = fault {
            opts = opts.with_fault(fault);
        }
        let mut sess = Session::new(opts);
        let at = sess.matrix(&a, rows, cols);
        let xt = sess.vector(&x);
        let mut outs = Vec::new();
        for _ in 0..5 {
            let yt = sess.gemv(at, xt);
            sess.run().expect("the host always survives");
            outs.push(sess.fetch(yt));
        }
        (outs, sess)
    };

    let (baseline, _) = run(None);
    // Both simulators run the same schedule: the grid dies on its first
    // launch, every crossbar tile is stuck-at — only the host survives.
    let (faulted, sess) = run(Some(
        FaultConfig::seeded(31)
            .with_permanent_after_launches(0)
            .with_stuck_tiles(vec![0, 1, 2, 3]),
    ));
    assert_eq!(baseline, faulted, "host-only runs must stay bit-identical");
    let stats = sess.fault_stats();
    assert!(
        stats.degradations >= 1 && stats.replans >= stats.degradations,
        "the degradation chain must be counted: {stats:?}"
    );
    assert!(
        !sess.backend().device(Target::Cnm).is_healthy(),
        "the grid died for good — no spare exists for plannable graphs"
    );
}

/// Every workload of the suite completes bit-identically under (a) a
/// transient fault schedule at realistic rates and (b) a schedule that
/// permanently kills the grid mid-run — the acceptance bar of the fault
/// layer.
#[test]
fn every_workload_is_bit_identical_under_fault_schedules() {
    let schedules: Vec<(&str, FaultConfig)> = vec![
        (
            "transient",
            FaultConfig::seeded(41)
                .with_launch_fault_rate(0.10)
                .with_transfer_timeout_rate(0.05)
                .with_transfer_corruption_rate(0.05),
        ),
        (
            "permanent-cnm",
            FaultConfig::seeded(43).with_permanent_after_launches(3),
        ),
    ];
    for id in WorkloadId::all() {
        let inp = runner::inputs(id, Scale::Test);
        let mut clean = session_with(ShardPolicy::Single(Target::Cnm), small_cfg());
        let want = runner::run_session(id, Scale::Test, &inp, &mut clean);
        for (label, schedule) in &schedules {
            let cfg = small_cfg().with_fault(schedule.clone());
            let mut sess = session_with(ShardPolicy::Single(Target::Cnm), cfg);
            let got = runner::run_session(id, Scale::Test, &inp, &mut sess);
            assert_eq!(
                got,
                want,
                "workload {} under the {label} schedule",
                id.name()
            );
        }
    }
}

/// Fault schedules are deterministic: the same seed reproduces the same
/// faults, the same recovery path and the same counters.
#[test]
fn fault_schedules_are_deterministic() {
    let schedule = FaultConfig::seeded(59)
        .with_launch_fault_rate(0.15)
        .with_transfer_timeout_rate(0.08);
    let run = || {
        let cfg = small_cfg().with_fault(schedule.clone());
        let mut sess = session_with(ShardPolicy::Single(Target::Cnm), cfg);
        let inp = runner::inputs(WorkloadId::Mlp, Scale::Test);
        let out = runner::run_session(WorkloadId::Mlp, Scale::Test, &inp, &mut sess);
        (out, sess.fault_stats())
    };
    let (out_a, stats_a) = run();
    let (out_b, stats_b) = run();
    assert_eq!(out_a, out_b);
    assert_eq!(stats_a.transient_retries, stats_b.transient_retries);
    assert_eq!(stats_a.permanent_faults, stats_b.permanent_faults);
    assert_eq!(stats_a.replans, stats_b.replans);
    assert_eq!(stats_a.degradations, stats_b.degradations);
    assert!(
        stats_a.transient_retries > 0,
        "the schedule must actually fire at these rates: {stats_a:?}"
    );
}
