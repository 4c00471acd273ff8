//! The three `Session` workloads share one graph — write an activation,
//! `gemv`, `select` plus an `xor -> and -> or` chain, `reduce`, `run`, fetch —
//! and differ in what they make the session do around it:
//!
//! * `session_replay`: one shape, everything resident: 100% plan-cache hits.
//! * `session_cold`: 24 shapes against the 8-entry plan cache under the auto
//!   policy: every run misses and recompiles.
//! * `session_pressure`: 16 weight matrices under half the MRAM they need:
//!   every op evicts and restores.

use std::marker::PhantomData;
use std::time::Instant;

use cinm::core::session::{Session, SessionOptions, TensorHandle};
use cinm::core::{ShardPolicy, Target};
use cinm::cpu::kernels;
use cinm::lowering::{ShardedRunOptions, UpmemBackend, UpmemRunOptions};
use cinm::runtime::{alloc_count, PoolHandle};
use cinm::telemetry::Telemetry;
use cinm::upmem::BinOp;

use super::direct::GraphProgram;
use super::probes;
use crate::harness::{Checks, Metrics, RunConfig, Sample, SetupBreakdown, Workload};
use crate::manifest::{Kind, Sizes};
use crate::stats::{self, SplitMix64};
use crate::timed;
use crate::trace::Tracer;

const RANKS: usize = 2;
/// Activations per shape; each op writes the next one.
const ACTIVATIONS: usize = 8;
/// Replay and pressure shape: one row per DPU on 256 DPUs; the activation
/// broadcast moves 64 KB per op.
const ROWS: usize = 256;
const COLS: usize = 64;
/// Shapes of `session_cold`: three times the plan cache's 8 entries, visited
/// round-robin, so the least-recently-used entry is always the next one needed.
const COLD_SHAPES: usize = 24;
/// Weight matrices of `session_pressure`.
const RING: usize = 16;

pub trait Variant {
    const KIND: Kind;
}
pub struct Replay;
pub struct Cold;
pub struct Pressure;
impl Variant for Replay {
    const KIND: Kind = Kind::SessionReplay;
}
impl Variant for Cold {
    const KIND: Kind = Kind::SessionCold;
}
impl Variant for Pressure {
    const KIND: Kind = Kind::SessionPressure;
}

/// Expected outputs of one (weights, activation) pair, from `cpu_sim`.
struct Golden {
    selected: Vec<i32>,
    chain: Vec<i32>,
    sum: i32,
}

/// One weight matrix with its masks, activations and goldens.
struct Model {
    rows: usize,
    cols: usize,
    threshold: i32,
    weights: Vec<i32>,
    masks: [Vec<i32>; 3],
    activations: Vec<Vec<i32>>,
    goldens: Vec<Golden>,
}

impl Model {
    fn generate(rng: &mut SplitMix64, rows: usize, cols: usize) -> Self {
        let weights = rng.vec_i32(rows * cols, -8, 8);
        let masks = [
            rng.vec_i32(rows, 0, 1 << 12),
            rng.vec_i32(rows, 0, 1 << 12),
            rng.vec_i32(rows, 0, 1 << 12),
        ];
        let activations: Vec<Vec<i32>> =
            (0..ACTIVATIONS).map(|_| rng.vec_i32(cols, -8, 8)).collect();
        let threshold = 0;
        let goldens = activations
            .iter()
            .map(|x| {
                let y = kernels::matvec(&weights, x, rows, cols);
                let t1 = kernels::elementwise(&y, &masks[0], |a, b| a ^ b);
                let t2 = kernels::elementwise(&t1, &masks[1], |a, b| a & b);
                let chain = kernels::elementwise(&t2, &masks[2], |a, b| a | b);
                Golden {
                    selected: kernels::select_gt(&y, threshold),
                    sum: kernels::reduce_add(&chain),
                    chain,
                }
            })
            .collect();
        Model {
            rows,
            cols,
            threshold,
            weights,
            masks,
            activations,
            goldens,
        }
    }
}

/// The device-resident tensors of one model inside a session.
#[derive(Clone, Copy)]
struct Resident {
    weights: TensorHandle,
    x: TensorHandle,
    masks: [TensorHandle; 3],
}

/// Cumulative counters of a session, for deltas over the counted pass.
#[derive(Clone, Copy)]
struct Counters {
    sim_seconds: f64,
    sim_joules: f64,
    kernel_seconds: f64,
    transfer_seconds: f64,
    upmem_joules: f64,
    launches: u64,
    h2d: u64,
    d2h: u64,
    hits: u64,
    misses: u64,
    fused_groups: u64,
    launches_saved: u64,
    evictions: u64,
    spilled_bytes: u64,
    remat_ops: u64,
}

fn counters(s: &Session) -> Counters {
    let u = *s.upmem_stats();
    let cim = s.backend().cim_backend().stats();
    let (plan, opt, res) = (
        s.plan_cache_stats(),
        s.optimizer_stats(),
        s.residency_stats(),
    );
    Counters {
        sim_seconds: u.total_seconds() + cim.total_seconds(),
        sim_joules: u.total_energy_j() + cim.total_energy_j(),
        kernel_seconds: u.kernel_seconds,
        transfer_seconds: u.host_to_dpu_seconds + u.dpu_to_host_seconds,
        upmem_joules: u.total_energy_j(),
        launches: u.launches,
        h2d: u.host_to_dpu_bytes,
        d2h: u.dpu_to_host_bytes,
        hits: plan.hits,
        misses: plan.misses,
        fused_groups: opt.fused_groups,
        launches_saved: opt.launches_saved,
        evictions: res.evictions,
        spilled_bytes: res.spilled_bytes,
        remat_ops: res.remat_ops,
    }
}

pub struct SessionLoop<V: Variant> {
    pool: PoolHandle,
    session: Session,
    models: Vec<Model>,
    resident: Vec<Resident>,
    sizes: Sizes,
    /// Ops done so far: picks the model and the activation.
    tick: usize,
    out_selected: Vec<i32>,
    out_chain: Vec<i32>,
    out_sum: i32,
    variant: PhantomData<V>,
}

fn options(pool: &PoolHandle, policy: ShardPolicy) -> SessionOptions {
    SessionOptions::default().with_policy(policy).with_sharded(
        ShardedRunOptions::default()
            .with_ranks(RANKS)
            .with_pool(pool.clone())
            .with_host_threads(1),
    )
}

fn upload(session: &mut Session, models: &[Model]) -> Vec<Resident> {
    models
        .iter()
        .map(|m| Resident {
            weights: session.matrix(&m.weights, m.rows, m.cols),
            x: session.vector(&m.activations[0]),
            masks: [
                session.vector(&m.masks[0]),
                session.vector(&m.masks[1]),
                session.vector(&m.masks[2]),
            ],
        })
        .collect()
}

impl<V: Variant> SessionLoop<V> {
    fn build(
        pool: PoolHandle,
        models: Vec<Model>,
        sizes: Sizes,
        mram_limit: Option<usize>,
    ) -> Self {
        let policy = match V::KIND {
            Kind::SessionCold => ShardPolicy::Auto,
            _ => ShardPolicy::Single(Target::Cnm),
        };
        let mut opts = options(&pool, policy);
        if let Some(bytes) = mram_limit {
            opts = opts.with_mram_limit_bytes(bytes);
        }
        let mut session = Session::new(opts);
        let resident = upload(&mut session, &models);
        SessionLoop {
            pool,
            session,
            models,
            resident,
            sizes,
            tick: 0,
            out_selected: Vec::new(),
            out_chain: Vec::new(),
            out_sum: 0,
            variant: PhantomData::<V>,
        }
    }

    /// One op. Returns `(model, activation)` so the caller can check the
    /// outputs left in `out_*`.
    fn op(&mut self, t: &mut Tracer) -> (usize, usize) {
        let model = self.tick % self.models.len();
        let activation = (self.tick / self.models.len()) % ACTIVATIONS;
        self.tick += 1;
        let r = self.resident[model];
        let m = &self.models[model];
        let s = &mut self.session;
        t.next_op();
        let root = t.begin("harness.op");
        let span = t.begin("session.record");
        s.write(r.x, &m.activations[activation]);
        let y = s.gemv(r.weights, r.x);
        let selected = s.select(y, m.threshold);
        let t1 = s.elementwise(BinOp::Xor, y, r.masks[0]);
        let t2 = s.elementwise(BinOp::And, t1, r.masks[1]);
        let chain = s.elementwise(BinOp::Or, t2, r.masks[2]);
        let sum = s.reduce(BinOp::Add, chain);
        t.end(span);
        let span = t.begin("session.run");
        s.run().expect("the graph places on the configured devices");
        t.end(span);
        let span = t.begin("session.fetch");
        s.fetch_into(selected, &mut self.out_selected);
        s.fetch_into(chain, &mut self.out_chain);
        self.out_sum = s.fetch_scalar(sum);
        t.end(span);
        t.end(root);
        (model, activation)
    }

    fn outputs_match(&self, (model, activation): (usize, usize)) -> bool {
        let g = &self.models[model].goldens[activation];
        self.out_selected == g.selected && self.out_chain == g.chain && self.out_sum == g.sum
    }

    /// Wall seconds per op of a loop of plain ops on `self`.
    fn plain_seconds_per_op(&mut self, ops: usize) -> f64 {
        let mut off = Tracer::off();
        let start = Instant::now();
        for _ in 0..ops {
            self.op(&mut off);
        }
        start.elapsed().as_secs_f64() / ops as f64
    }
}

impl<V: Variant> Workload for SessionLoop<V> {
    const KIND: Kind = V::KIND;

    fn cold_setup(seed: u64, sizes: Sizes, b: &mut SetupBreakdown) -> Result<Self, String> {
        let models: Vec<Model> = timed!(b.inputs, {
            let mut rng = SplitMix64::stream(seed, V::KIND.name());
            match V::KIND {
                Kind::SessionCold => (0..COLD_SHAPES)
                    .map(|i| Model::generate(&mut rng, 32 + 16 * i, 16))
                    .collect(),
                Kind::SessionPressure => (0..RING)
                    .map(|_| Model::generate(&mut rng, ROWS, COLS))
                    .collect(),
                _ => vec![Model::generate(&mut rng, ROWS, COLS)],
            }
        });
        let mut w = timed!(b.construct, {
            let pool = PoolHandle::with_threads(1);
            if V::KIND == Kind::SessionPressure {
                // Half of what the loop needs with no limit, measured on an
                // unlimited session running the same ring once.
                let mut unlimited = Self::build(pool.clone(), models, sizes, None);
                for _ in 0..RING {
                    unlimited.op(&mut Tracer::off());
                }
                let peak = unlimited.session.residency_stats().peak_mram_bytes;
                Self::build(pool, unlimited.models, sizes, Some(peak / 2))
            } else {
                Self::build(pool, models, sizes, None)
            }
        });
        let ok = timed!(b.first_result, {
            let which = w.op(&mut Tracer::off());
            w.outputs_match(which)
        });
        if ok {
            Ok(w)
        } else {
            Err(format!(
                "{}: the first result did not match its golden",
                V::KIND.name()
            ))
        }
    }

    fn sample(&mut self, t: &mut Tracer, checks: &mut Checks) -> Sample {
        let ops = self.sizes.batch_ops;
        let mut last = (0, 0);
        let start = Instant::now();
        for _ in 0..ops {
            last = self.op(t);
        }
        let seconds = start.elapsed().as_secs_f64();
        // The last op's outputs, checked outside the clock; the counted pass
        // checks every op.
        checks.record(self.outputs_match(last));
        Sample {
            ops,
            seconds,
            parts: Vec::new(),
        }
    }

    fn counted_pass(&mut self, metrics: &mut Metrics, checks: &mut Checks) {
        let mut off = Tracer::off();
        let ops = self.sizes.counted_ops;
        let before = counters(&self.session);
        let mut allocs = 0;
        for _ in 0..ops {
            let (which, n) = alloc_count::count_in(|| self.op(&mut off));
            allocs += n;
            checks.record(self.outputs_match(which));
        }
        let after = counters(&self.session);
        let n = ops as f64;
        let us = 1e6 / n;
        metrics.set(
            "sim_us_per_op",
            (after.sim_seconds - before.sim_seconds) * us,
        );
        metrics.set("sim_uj_per_op", (after.sim_joules - before.sim_joules) * us);
        metrics.set(
            "upmem.kernel_sim_us_per_op",
            (after.kernel_seconds - before.kernel_seconds) * us,
        );
        metrics.set(
            "upmem.transfer_sim_us_per_op",
            (after.transfer_seconds - before.transfer_seconds) * us,
        );
        metrics.set(
            "upmem.energy_uj_per_op",
            (after.upmem_joules - before.upmem_joules) * us,
        );
        let per_op = |a: u64, b: u64| (a - b) as f64 / n;
        metrics.set(
            "upmem.launches_per_op",
            per_op(after.launches, before.launches),
        );
        metrics.set("upmem.h2d_bytes_per_op", per_op(after.h2d, before.h2d));
        metrics.set("upmem.d2h_bytes_per_op", per_op(after.d2h, before.d2h));
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        metrics.set(
            "session.plan_hit_pct",
            100.0 * hits as f64 / (hits + misses).max(1) as f64,
        );
        metrics.set("session.plan_misses_per_op", misses as f64 / n);
        metrics.set(
            "session.fused_groups_per_op",
            per_op(after.fused_groups, before.fused_groups),
        );
        metrics.set(
            "session.launches_saved_per_op",
            per_op(after.launches_saved, before.launches_saved),
        );
        metrics.set(
            "session.evictions_per_op",
            per_op(after.evictions, before.evictions),
        );
        metrics.set(
            "session.spilled_bytes_per_op",
            per_op(after.spilled_bytes, before.spilled_bytes),
        );
        metrics.set(
            "session.remat_ops_per_op",
            per_op(after.remat_ops, before.remat_ops),
        );
        metrics.set("runtime.allocs_per_op", allocs as f64 / n);
    }

    fn layer_extras(&mut self, config: &RunConfig, metrics: &mut Metrics, _: &mut Checks) {
        // Session, bare simulator and eager lowering on the same ops, in
        // alternating blocks, each reported by its fastest block like every
        // other host-clock time.
        let (rounds, block) = if config.smoke { (3, 48) } else { (9, 240) };
        let mut programs: Vec<GraphProgram> = match V::KIND {
            // The floor of the pressure loop is the loop with enough memory.
            Kind::SessionPressure => &self.models[..1],
            _ => &self.models[..],
        }
        .iter()
        .map(|m| {
            let masks = [&m.masks[0][..], &m.masks[1][..], &m.masks[2][..]];
            GraphProgram::new(
                RANKS,
                &self.pool,
                &m.weights,
                masks,
                m.rows,
                m.cols,
                m.threshold,
            )
        })
        .collect();
        let mut eager = UpmemBackend::new(
            RANKS,
            UpmemRunOptions::optimized()
                .with_host_threads(1)
                .with_pool(self.pool.clone()),
        );
        let (mut session_s, mut direct_s, mut eager_s) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..=rounds {
            let s = self.plain_seconds_per_op(block);
            let start = Instant::now();
            let shapes = programs.len();
            for i in 0..block {
                let m = i % shapes;
                programs[m].op(&self.models[m].activations[(i / shapes) % ACTIVATIONS]);
            }
            let d = start.elapsed().as_secs_f64() / block as f64;
            // Every operand of the eager ops makes a full host round trip,
            // which is what the session's residency saves.
            let eager_ops = block / 8;
            let start = Instant::now();
            for i in 0..eager_ops {
                let m = &self.models[i % self.models.len()];
                let y = eager.gemv(&m.weights, &m.activations[i % ACTIVATIONS], m.rows, m.cols);
                std::hint::black_box(eager.select(&y, m.threshold));
                let t1 = eager.elementwise(BinOp::Xor, &y, &m.masks[0]);
                let t2 = eager.elementwise(BinOp::And, &t1, &m.masks[1]);
                let chain = eager.elementwise(BinOp::Or, &t2, &m.masks[2]);
                std::hint::black_box(eager.reduce(BinOp::Add, &chain));
            }
            let e = start.elapsed().as_secs_f64() / eager_ops as f64;
            if round > 0 {
                // Round 0 warms the bare systems and the eager contexts.
                session_s.push(s);
                direct_s.push(d);
                eager_s.push(e);
            }
        }
        let (session_s, direct_s) = (stats::fast(&session_s), stats::fast(&direct_s));
        metrics.set(
            "upmem.sim_us_per_wall_us",
            metrics.get("sim_us_per_op").unwrap_or(0.0) / (session_s * 1e6),
        );
        metrics.set("upmem.direct_us_per_op", direct_s * 1e6);
        metrics.set("sim.direct_share_pct", 100.0 * direct_s / session_s);
        metrics.set("session.overhead_us_per_op", (session_s - direct_s) * 1e6);
        metrics.set("backend.eager_us_per_op", stats::fast(&eager_s) * 1e6);
        let ops = 4 * block;

        match V::KIND {
            Kind::SessionCold => probes::session_layers(config, &self.pool, metrics),
            Kind::SessionReplay => {
                probes::telemetry_primitives(config, metrics);
                // The same loop with a registry attached, alternating with
                // the plain one so host drift hits both.
                let mut other = Session::new(
                    options(&self.pool, ShardPolicy::Single(Target::Cnm))
                        .with_telemetry(Telemetry::new()),
                );
                let mut other_resident = upload(&mut other, &self.models);
                let mut swap = |w: &mut Self| {
                    std::mem::swap(&mut w.session, &mut other);
                    std::mem::swap(&mut w.resident, &mut other_resident);
                };
                swap(self);
                self.plain_seconds_per_op(ops / 4); // warm the instrumented session
                let (mut with, mut without) = (Vec::new(), Vec::new());
                for _ in 0..5 {
                    with.push(self.plain_seconds_per_op(ops / 4));
                    swap(self);
                    without.push(self.plain_seconds_per_op(ops / 4));
                    swap(self);
                }
                swap(self);
                metrics.set(
                    "telemetry.on_overhead_pct",
                    100.0 * (stats::fast(&with) / stats::fast(&without) - 1.0),
                );
            }
            _ => {}
        }
    }
}
