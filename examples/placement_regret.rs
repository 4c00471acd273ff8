//! Placement regret of the session's rule on seeded `Auto` graphs.
//!
//! Each graph is two to five ops (`gemv`, element-wise, `reduce`,
//! `histogram`, `select`) over a pool of earlier results at test scale,
//! run one op per `Session::run` with residency on, so every rule decides
//! op by op against the same residency. Its placement makespan is the
//! simulated time of the runs: the grid's bill outside sharded ops plus
//! each sharded op's makespan. The session's own rule (`Auto`) is compared
//! with brute force over the per-op choices {grid segment, crossbar, host,
//! the planner's split}, each forced with `Session::set_policy`; infeasible
//! choices (the crossbar on a streaming op) drop out. Regret is the rule's
//! makespan over the best one, less one.
//!
//! Run with `cargo run --release --example placement_regret [graphs] [dpus]`
//! (defaults 200 and 64). Built at an earlier commit, it measures that
//! commit's rule on the same graphs.

use cinm::core::shard::ShardPlanner;
use cinm::core::{Session, SessionOptions, ShardPolicy, Target, TensorHandle};
use cinm::lowering::cnm_op::CnmOp;
use cinm::lowering::ShardedRunOptions;
use cinm::runtime::PoolHandle;
use cinm::upmem::{BinOp, UpmemConfig};
use cinm::workloads::data::{self, SplitMix64};

#[derive(Clone, Copy, Debug)]
enum Op {
    Gemv,
    Elementwise(usize, usize, BinOp),
    Reduce(usize),
    Histogram(usize),
    Select(usize),
}

struct Graph {
    len: usize,
    cols: usize,
    a: Vec<i32>,
    x: Vec<i32>,
    v: Vec<i32>,
    ops: Vec<Op>,
}

const CHOICES: [Option<Target>; 4] = [
    Some(Target::Cnm),
    Some(Target::Cim),
    Some(Target::Host),
    None,
];

fn graph(seed: u64) -> Graph {
    let mut rng = SplitMix64::seed_from_u64(1000 + seed);
    let mut draw = |lo: usize, hi: usize| rng.gen_range_i32(lo as i32, hi as i32) as usize;
    let len = [16, 64, 256, 1024, 4096][draw(0, 5)];
    let cols = [8, 32, 128][draw(0, 3)];
    let bin_ops = [BinOp::Add, BinOp::Xor, BinOp::Max];
    let ops = (0..draw(2, 6))
        .map(|_| match (draw(0, 6), draw(0, 100), draw(0, 100)) {
            (0, _, _) => Op::Gemv,
            (1 | 2, i, j) => Op::Elementwise(i, j, bin_ops[j % 3]),
            (3, i, _) => Op::Reduce(i),
            (4, i, _) => Op::Histogram(i),
            (_, i, _) => Op::Select(i),
        })
        .collect();
    Graph {
        len,
        cols,
        a: data::i32_vec(seed, len * cols, -8, 8),
        x: data::i32_vec(seed + 1, cols, -8, 8),
        v: data::i32_vec(seed + 2, len, 0, 127),
        ops,
    }
}

/// The simulated makespan of `g` placed by the session's rule (`forced ==
/// None`) or by one choice of `CHOICES` per op; `None` when a forced
/// choice cannot run.
fn makespan(g: &Graph, pool: &PoolHandle, dpus: usize, forced: Option<&[usize]>) -> Option<f64> {
    let mut cfg = UpmemConfig::with_ranks(1);
    cfg.dpus_per_rank = dpus;
    let sharded = ShardedRunOptions::default()
        .with_pool(pool.clone())
        .with_host_threads(1);
    let mut sess = Session::new(
        SessionOptions::default()
            .with_upmem_config(cfg)
            .with_sharded(sharded)
            .with_policy(ShardPolicy::Auto),
    );
    let (a, x) = (sess.matrix(&g.a, g.len, g.cols), sess.vector(&g.x));
    let mut pool: Vec<TensorHandle> = vec![sess.vector(&g.v)];
    let mut total = 0.0;
    for (k, &op) in g.ops.iter().enumerate() {
        let kind = match op {
            Op::Gemv => CnmOp::Gemv {
                rows: g.len,
                cols: g.cols,
            },
            Op::Elementwise(_, _, op) => CnmOp::Elementwise { op, len: g.len },
            Op::Reduce(_) => CnmOp::Reduce {
                op: BinOp::Add,
                len: g.len,
            },
            Op::Histogram(_) => CnmOp::Histogram {
                bins: 16,
                max_value: 128,
                len: g.len,
            },
            Op::Select(_) => CnmOp::Select {
                threshold: 0,
                len: g.len,
            },
        };
        if let Some(forced) = forced {
            sess.set_policy(match CHOICES[forced[k]] {
                Some(target) => ShardPolicy::Single(target),
                None => {
                    let mut planner = ShardPlanner::new();
                    for target in Target::ALL {
                        planner.register_device(sess.backend().device(target));
                    }
                    ShardPolicy::Fractions(planner.plan_op(kind).ok()?.fractions)
                }
            });
        }
        sess.reset_stats();
        let pick = |i: usize| pool[i % pool.len()];
        let (h, pooled) = match op {
            Op::Gemv => (sess.gemv(a, x), true),
            Op::Elementwise(i, j, op) => (sess.elementwise(op, pick(i), pick(j)), true),
            Op::Reduce(i) => (sess.reduce(BinOp::Add, pick(i)), false),
            Op::Histogram(i) => (sess.histogram(pick(i), 16, 128), false),
            Op::Select(i) => (sess.select(pick(i), 0), false),
        };
        sess.run().ok()?;
        let shards = sess.shard_stats();
        let cnm_shards = shards.sim_seconds[Target::Cnm.index()];
        total += sess.upmem_stats().total_seconds() - cnm_shards + shards.sim_makespan_seconds;
        sess.pin(h);
        if pooled {
            pool.push(h);
        }
    }
    Some(total)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let graphs: u64 = args.next().map_or(200, |s| s.parse().expect("graphs"));
    let dpus: usize = args.next().map_or(64, |s| s.parse().expect("dpus"));
    let pool = PoolHandle::with_threads(1);
    let mut regrets = Vec::new();
    let (mut rule_total, mut best_total) = (0.0, 0.0);
    for seed in 0..graphs {
        let g = graph(seed);
        let rule = makespan(&g, &pool, dpus, None).expect("the rule places every graph");
        let n = g.ops.len();
        let best = (0..CHOICES.len().pow(n as u32))
            .filter_map(|code| {
                let forced: Vec<usize> = (0..n)
                    .map(|k| code / CHOICES.len().pow(k as u32) % CHOICES.len())
                    .collect();
                makespan(&g, &pool, dpus, Some(&forced))
            })
            .fold(f64::INFINITY, f64::min);
        let (len, cols, ops) = (g.len, g.cols, &g.ops);
        println!("{seed} len={len} cols={cols} {ops:?}: rule {rule:.6e} s, best {best:.6e} s");
        regrets.push(rule / best - 1.0);
        (rule_total, best_total) = (rule_total + rule, best_total + best);
    }
    regrets.sort_by(f64::total_cmp);
    let at = |q: f64| 100.0 * regrets[((regrets.len() - 1) as f64 * q) as usize];
    let optimal = regrets.iter().filter(|&&r| r < 1e-9).count();
    let mean = 100.0 * regrets.iter().sum::<f64>() / regrets.len() as f64;
    println!(
        "{dpus} DPUs, {graphs} graphs: optimal {optimal}, regret mean {mean:.1} %, \
         median {:.1} %, p90 {:.1} %, max {:.1} %; total makespan {:.3} ms (best {:.3} ms)",
        at(0.5),
        at(0.9),
        at(1.0),
        rule_total * 1e3,
        best_total * 1e3
    );
}
