//! `serve`: a `SessionServer` with six weighted tenants in two gemv shape
//! classes.
//!
//! Phase B (the timed windows) is a **closed loop on the host clock**: each
//! tenant keeps one request outstanding, six clients in all, and an op is one
//! completed request. Phase A (`layer_extras`) is an **open loop in simulated
//! time**: seeded Poisson arrivals at six fixed rates, latency counted from
//! the instant a request was due, so the generator never lags.

use std::collections::VecDeque;
use std::time::Instant;

use cinm::core::serve::{ModelId, RequestTicket, ServerOptions, SessionServer, TenantSpec};
use cinm::cpu::kernels;
use cinm::lowering::UpmemRunOptions;
use cinm::runtime::{alloc_count, PoolHandle};

use super::direct::Direct;
use super::probes;
use crate::harness::{Checks, Metrics, RunConfig, Sample, SetupBreakdown, Workload};
use crate::manifest::{
    Kind, Sizes, SERVE_P99_LIMIT_US, SERVE_RATE_FRACTIONS, SERVE_RATE_MID, SERVE_SATURATION_RPS,
    SERVE_SWEEP_REQUESTS,
};
use crate::stats::{self, poisson_arrivals, SplitMix64};
use crate::timed;
use crate::trace::Tracer;

const RANKS: usize = 2;
pub const TENANTS: usize = 6;
const ACTIVATIONS: usize = 8;
/// `(rows, cols)` of the two shape classes; tenants 0-2 serve the first.
const CLASSES: [(usize, usize); 2] = [(128, 32), (64, 64)];
/// Fair-share weights 3:1:1:1:1:1; tenant 3 also has a raised priority.
const WEIGHTS: [u32; TENANTS] = [3, 1, 1, 1, 1, 1];
const RAISED_PRIORITY: usize = 3;

fn class_of(tenant: usize) -> usize {
    tenant / 3
}

/// Weights, activations and goldens of one run, generated from the seed.
struct Inputs {
    weights: Vec<Vec<i32>>,
    /// Per shape class.
    activations: [Vec<Vec<i32>>; 2],
    /// `goldens[tenant][activation]`, from `cpu_sim::kernels::matvec`.
    goldens: Vec<Vec<Vec<i32>>>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::stream(seed, "serve.inputs");
        let activations = CLASSES.map(|(_, cols)| {
            (0..ACTIVATIONS)
                .map(|_| rng.vec_i32(cols, -8, 8))
                .collect::<Vec<_>>()
        });
        let weights: Vec<Vec<i32>> = (0..TENANTS)
            .map(|t| {
                let (rows, cols) = CLASSES[class_of(t)];
                rng.vec_i32(rows * cols, -8, 8)
            })
            .collect();
        let goldens = (0..TENANTS)
            .map(|t| {
                let (rows, cols) = CLASSES[class_of(t)];
                activations[class_of(t)]
                    .iter()
                    .map(|x| kernels::matvec(&weights[t], x, rows, cols))
                    .collect()
            })
            .collect();
        Inputs {
            weights,
            activations,
            goldens,
        }
    }
}

fn new_server(
    pool: &PoolHandle,
    inputs: &Inputs,
    queue_depth: usize,
) -> Result<(SessionServer, Vec<ModelId>), String> {
    let mut server = SessionServer::new(
        ServerOptions::default()
            .with_ranks(RANKS)
            .with_upmem(
                UpmemRunOptions::optimized()
                    .with_host_threads(1)
                    .with_pool(pool.clone()),
            )
            .with_tenant_slots(4)
            .with_queue_depth(queue_depth),
    );
    let mut models = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let spec = TenantSpec::new(format!("tenant-{t}"))
            .with_weight(WEIGHTS[t])
            .with_priority(u8::from(t == RAISED_PRIORITY));
        let tenant = server.register_tenant(spec);
        let (rows, cols) = CLASSES[class_of(t)];
        let model = server
            .load_gemv_weights(tenant, &inputs.weights[t], rows, cols)
            .map_err(|e| format!("serve: loading tenant {t}: {e}"))?;
        models.push(model);
    }
    Ok((server, models))
}

// --- phase A: open loop in simulated time -----------------------------------------

/// What the simulated-time driver needs from a server. The real server is
/// adapted below; the unit tests drive a stub.
pub trait SimServer {
    /// Device clock: simulated seconds the device has been busy so far.
    fn busy_seconds(&self) -> f64;
    /// Queues request `id` for `tenant`; `false` when admission refuses it.
    fn submit(&mut self, tenant: usize, id: usize) -> bool;
    /// Runs one scheduling round, pushing the ids it completed.
    fn step(&mut self, completed: &mut Vec<usize>);
    /// Requests queued and not yet served.
    fn backlog(&self) -> usize;
}

/// Outcome of one open-loop run at one rate.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Due time to completion, simulated seconds, per served request.
    pub latencies: Vec<f64>,
    /// Due time to the start of the round that served the request.
    pub queue_waits: Vec<f64>,
    pub rejected: usize,
    pub rounds: usize,
    /// Requests still queued when the last arrival had been submitted.
    pub backlog_end: usize,
    /// Simulated seconds the device was busy.
    pub busy_seconds: f64,
}

/// Submits every request whose due time has passed on the simulated clock,
/// runs a round, and jumps the clock to the next arrival when the server is
/// idle. The clock is `busy_seconds() + idle`, so it only ever moves by
/// device work or by waiting for an arrival; latency runs from the due time.
pub fn drive_open_loop(server: &mut impl SimServer, due: &[f64], tenants: &[usize]) -> OpenLoop {
    let mut out = OpenLoop::default();
    let mut idle = 0.0;
    let mut next = 0;
    let mut completed = Vec::new();
    let busy_at_start = server.busy_seconds();
    loop {
        let now = server.busy_seconds() - busy_at_start + idle;
        while next < due.len() && due[next] <= now {
            if !server.submit(tenants[next], next) {
                out.rejected += 1;
            }
            next += 1;
            if next == due.len() {
                out.backlog_end = server.backlog();
            }
        }
        completed.clear();
        server.step(&mut completed);
        if completed.is_empty() {
            if next == due.len() {
                break;
            }
            // Idle: nothing queued, so wait for the next arrival.
            idle = due[next] - (server.busy_seconds() - busy_at_start);
            continue;
        }
        out.rounds += 1;
        let done = server.busy_seconds() - busy_at_start + idle;
        for &id in &completed {
            out.latencies.push(done - due[id]);
            out.queue_waits.push((now - due[id]).max(0.0));
        }
    }
    out.busy_seconds = server.busy_seconds() - busy_at_start;
    out
}

/// The real server behind [`SimServer`]: per-tenant FIFOs of tickets, since a
/// tenant's requests complete in submission order.
struct RealServer<'a> {
    server: SessionServer,
    models: Vec<ModelId>,
    inputs: &'a Inputs,
    in_flight: Vec<VecDeque<(RequestTicket, usize)>>,
    out: Vec<i32>,
    checks: Checks,
}

impl SimServer for RealServer<'_> {
    fn busy_seconds(&self) -> f64 {
        self.server.upmem_stats().total_seconds()
    }

    fn submit(&mut self, tenant: usize, id: usize) -> bool {
        let x = &self.inputs.activations[class_of(tenant)][id % ACTIVATIONS];
        match self.server.submit(self.models[tenant], x) {
            Ok(ticket) => {
                self.in_flight[tenant].push_back((ticket, id));
                true
            }
            Err(_) => false,
        }
    }

    fn step(&mut self, completed: &mut Vec<usize>) {
        if self.server.step() == 0 {
            return;
        }
        for tenant in 0..TENANTS {
            while let Some(&(ticket, id)) = self.in_flight[tenant].front() {
                if !self.server.is_done(ticket) {
                    break;
                }
                self.in_flight[tenant].pop_front();
                let served = self.server.wait_into(ticket, &mut self.out).is_ok();
                self.checks
                    .record(served && self.out == self.inputs.goldens[tenant][id % ACTIVATIONS]);
                completed.push(id);
            }
        }
    }

    fn backlog(&self) -> usize {
        self.server.queue_backlog()
    }
}

/// One open-loop run of `requests` arrivals at `rate` on a fresh server.
fn open_loop_at(
    pool: &PoolHandle,
    inputs: &Inputs,
    seed: u64,
    rate: f64,
    requests: usize,
    checks: &mut Checks,
) -> Result<OpenLoop, String> {
    // Deep enough that admission never refuses within one sweep: overload
    // shows as backlog and latency, not as failed operations.
    let (server, models) = new_server(pool, inputs, requests)?;
    let mut real = RealServer {
        server,
        models,
        inputs,
        in_flight: (0..TENANTS).map(|_| VecDeque::new()).collect(),
        out: Vec::new(),
        checks: Checks::default(),
    };
    let mut rng = SplitMix64::stream(seed, "serve.arrivals");
    let due = poisson_arrivals(&mut rng, rate, requests);
    let tenants: Vec<usize> = (0..requests)
        .map(|_| rng.below(TENANTS as u64) as usize)
        .collect();
    let result = drive_open_loop(&mut real, &due, &tenants);
    checks.absorb(real.checks);
    Ok(result)
}

/// Simulated requests per second with every tenant always backlogged: the
/// saturation rate the swept rates are fractions of.
pub fn saturation_rps(seed: u64) -> Result<f64, String> {
    let pool = PoolHandle::with_threads(1);
    let inputs = Inputs::generate(seed);
    let (mut server, models) = new_server(&pool, &inputs, 64)?;
    let mut out = Vec::new();
    let mut served = 0usize;
    let mut tickets = Vec::new();
    while served < 6000 {
        for (t, &model) in models.iter().enumerate() {
            for k in 0..4 {
                let x = &inputs.activations[class_of(t)][k];
                tickets.push(server.submit(model, x).map_err(|e| e.to_string())?);
            }
        }
        server.run_until_idle();
        for ticket in tickets.drain(..) {
            server
                .wait_into(ticket, &mut out)
                .map_err(|e| e.to_string())?;
            served += 1;
        }
    }
    Ok(served as f64 / server.upmem_stats().total_seconds())
}

/// The p99 at the lowest swept rate: the limit is frozen at twice this.
pub fn lowest_rate_p99_us(seed: u64) -> Result<f64, String> {
    let pool = PoolHandle::with_threads(1);
    let inputs = Inputs::generate(seed);
    let rate = SERVE_SATURATION_RPS * SERVE_RATE_FRACTIONS[0];
    let run = open_loop_at(
        &pool,
        &inputs,
        seed,
        rate,
        SERVE_SWEEP_REQUESTS,
        &mut Checks::default(),
    )?;
    Ok(stats::percentile(&run.latencies, 99.0) * 1e6)
}

// --- phase B: closed loop on the host clock -------------------------------------------

pub struct Serve {
    pool: PoolHandle,
    inputs: Inputs,
    server: SessionServer,
    models: Vec<ModelId>,
    /// Each tenant's outstanding request and the activation it carries.
    outstanding: [Option<(RequestTicket, usize)>; TENANTS],
    /// Requests submitted so far per tenant: picks the next activation.
    sent: [usize; TENANTS],
    out: Vec<i32>,
    sizes: Sizes,
}

impl Serve {
    /// Runs the closed loop until `requests` have completed; every output is
    /// compared with its golden. Returns how many were correct.
    fn closed_loop(&mut self, requests: usize, t: &mut Tracer) -> usize {
        let (mut done, mut correct) = (0, 0);
        while done < requests {
            let root = t.begin("harness.op");
            let span = t.begin("serve.submit");
            for tenant in 0..TENANTS {
                if self.outstanding[tenant].is_none() {
                    let k = self.sent[tenant] % ACTIVATIONS;
                    self.sent[tenant] += 1;
                    let x = &self.inputs.activations[class_of(tenant)][k];
                    let ticket = self
                        .server
                        .submit(self.models[tenant], x)
                        .expect("one outstanding request per tenant is below any queue depth");
                    self.outstanding[tenant] = Some((ticket, k));
                }
            }
            t.end(span);
            let span = t.begin("serve.step");
            self.server.step();
            t.end(span);
            let span = t.begin("serve.wait");
            for tenant in 0..TENANTS {
                if let Some((ticket, k)) = self.outstanding[tenant] {
                    if self.server.is_done(ticket) {
                        self.outstanding[tenant] = None;
                        let served = self.server.wait_into(ticket, &mut self.out).is_ok();
                        correct +=
                            usize::from(served && self.out == self.inputs.goldens[tenant][k]);
                        done += 1;
                        t.next_op();
                    }
                }
            }
            t.end(span);
            t.end(root);
        }
        correct
    }
}

impl Workload for Serve {
    const KIND: Kind = Kind::Serve;

    fn cold_setup(seed: u64, sizes: Sizes, b: &mut SetupBreakdown) -> Result<Self, String> {
        let inputs = timed!(b.inputs, Inputs::generate(seed));
        let mut w = timed!(b.construct, {
            let pool = PoolHandle::with_threads(1);
            let (server, models) = new_server(&pool, &inputs, 64)?;
            Serve {
                pool,
                inputs,
                server,
                models,
                outstanding: [None; TENANTS],
                sent: [0; TENANTS],
                out: Vec::new(),
                sizes,
            }
        });
        // First result: one request of every tenant, served and checked.
        let correct = timed!(b.first_result, w.closed_loop(TENANTS, &mut Tracer::off()));
        if correct >= TENANTS {
            Ok(w)
        } else {
            Err("serve: a first request did not match its golden".into())
        }
    }

    fn sample(&mut self, t: &mut Tracer, checks: &mut Checks) -> Sample {
        let ops = self.sizes.batch_ops;
        let start = Instant::now();
        // Comparing ~2 KB per request with its golden stays inside the clock:
        // a few hundred nanoseconds, and every output is checked.
        let correct = self.closed_loop(ops, t);
        let seconds = start.elapsed().as_secs_f64();
        checks.record(correct >= ops);
        Sample {
            ops,
            seconds,
            parts: Vec::new(),
        }
    }

    fn counted_pass(&mut self, metrics: &mut Metrics, checks: &mut Checks) {
        let ops = self.sizes.counted_ops;
        let (s0, u0) = (self.server.stats(), *self.server.upmem_stats());
        let (correct, allocs) = alloc_count::count_in(|| self.closed_loop(ops, &mut Tracer::off()));
        let (s1, u1) = (self.server.stats(), *self.server.upmem_stats());
        // The loop may finish a few requests beyond `ops` in its last round.
        let served = (s1.completed - s0.completed) as f64;
        checks.attempted += served as u64;
        checks.failed += (served as u64).saturating_sub(correct as u64);
        let us = 1e6 / served;
        metrics.set(
            "sim_us_per_op",
            (u1.total_seconds() - u0.total_seconds()) * us,
        );
        metrics.set(
            "sim_uj_per_op",
            (u1.total_energy_j() - u0.total_energy_j()) * us,
        );
        metrics.set(
            "upmem.kernel_sim_us_per_op",
            (u1.kernel_seconds - u0.kernel_seconds) * us,
        );
        metrics.set(
            "upmem.transfer_sim_us_per_op",
            (u1.host_to_dpu_seconds + u1.dpu_to_host_seconds
                - u0.host_to_dpu_seconds
                - u0.dpu_to_host_seconds)
                * us,
        );
        metrics.set(
            "upmem.energy_uj_per_op",
            (u1.total_energy_j() - u0.total_energy_j()) * us,
        );
        metrics.set(
            "upmem.launches_per_op",
            (u1.launches - u0.launches) as f64 / served,
        );
        let h2d = (u1.host_to_dpu_bytes - u0.host_to_dpu_bytes) as f64 / served;
        metrics.set("upmem.h2d_bytes_per_op", h2d);
        metrics.set("serve.h2d_bytes_per_op", h2d);
        metrics.set(
            "upmem.d2h_bytes_per_op",
            (u1.dpu_to_host_bytes - u0.dpu_to_host_bytes) as f64 / served,
        );
        metrics.set(
            "serve.mean_batch",
            (s1.batched_requests - s0.batched_requests) as f64
                / ((s1.batches - s0.batches) as f64).max(1.0),
        );
        metrics.set(
            "serve.rounds_per_op",
            (s1.rounds - s0.rounds) as f64 / served,
        );
        metrics.set("runtime.allocs_per_op", allocs as f64 / served);
    }

    fn layer_extras(&mut self, config: &RunConfig, metrics: &mut Metrics, checks: &mut Checks) {
        // Phase A: the open-loop sweep in simulated time.
        let requests = if config.smoke {
            SERVE_SWEEP_REQUESTS / 10
        } else {
            SERVE_SWEEP_REQUESTS
        };
        let mut max_rate = 0.0;
        for (i, fraction) in SERVE_RATE_FRACTIONS.iter().enumerate() {
            let rate = SERVE_SATURATION_RPS * fraction;
            let run = match open_loop_at(
                &self.pool,
                &self.inputs,
                config.seed,
                rate,
                requests,
                checks,
            ) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("serve: sweep at {rate} req/s failed: {e}");
                    checks.record(false);
                    continue;
                }
            };
            let p50 = stats::percentile(&run.latencies, 50.0) * 1e6;
            let p99 = stats::percentile(&run.latencies, 99.0) * 1e6;
            println!(
                "serve sweep: {rate:>9.0} req/s (sim)  p50 {p50:>9.2} us  p99 {p99:>9.2} us  \
                 queue-wait p50 {:>8.2} us  rounds {}  backlog at end {}  rejected {}",
                stats::percentile(&run.queue_waits, 50.0) * 1e6,
                run.rounds,
                run.backlog_end,
                run.rejected
            );
            // A refused request misses any latency limit.
            let meets =
                p99 <= SERVE_P99_LIMIT_US && run.backlog_end <= 2 * TENANTS && run.rejected == 0;
            if meets && rate > max_rate {
                max_rate = rate;
            }
            if i == SERVE_RATE_MID {
                metrics.set("sim_p50_us", p50);
                metrics.set("sim_p99_us", p99);
                metrics.set(
                    "serve.sim_queue_wait_p50_us",
                    stats::percentile(&run.queue_waits, 50.0) * 1e6,
                );
                metrics.set(
                    "serve.sim_service_us_per_round",
                    run.busy_seconds * 1e6 / run.rounds.max(1) as f64,
                );
                metrics.set(
                    "serve.rejected_pct",
                    100.0 * run.rejected as f64 / requests as f64,
                );
            }
            if i + 1 == SERVE_RATE_FRACTIONS.len() {
                metrics.set("serve.backlog_end", run.backlog_end as f64);
            }
        }
        metrics.set("max_rate_rps", max_rate);

        // The simulator floor of one round: per class, stage an activation,
        // one striped gemv launch, one gather — in blocks alternating with
        // the closed loop, each side reported by its fastest block.
        let (blocks, ops) = if config.smoke { (3, 60) } else { (9, 600) };
        let mut direct = Direct::new(RANKS, &self.pool);
        let dpus = direct.dpus();
        let mut stripes = Vec::new();
        for (rows, cols) in CLASSES {
            // Three tenants share the grid: each DPU holds rows/(dpus/3) rows.
            let rpd = rows.div_ceil(dpus / 3).max(1);
            let (a, x, y) = (
                direct.alloc(rpd * cols),
                direct.alloc(cols),
                direct.alloc(rpd),
            );
            stripes.push((rpd, cols, a, x, y));
        }
        let mut out = Vec::new();
        let (mut serve_s, mut direct_s) = (Vec::new(), Vec::new());
        for block in 0..=blocks {
            let start = Instant::now();
            let served = self.closed_loop(ops, &mut Tracer::off());
            let s = start.elapsed().as_secs_f64() / served.max(1) as f64;
            let rounds = ops / TENANTS;
            let start = Instant::now();
            for k in 0..rounds {
                for (class, &(rpd, cols, a, x, y)) in stripes.iter().enumerate() {
                    let stage = &self.inputs.activations[class][k % ACTIVATIONS];
                    let sys = direct.system();
                    sys.scatter_i32(x, stage, cols).expect("scatter");
                    sys.zero_buffer(y).expect("zero");
                    let kind = cinm::upmem::DpuKernelKind::Gemv { rows: rpd, cols };
                    direct.launch(kind, vec![a, x], y);
                    direct
                        .system()
                        .gather_i32_into(y, rpd, &mut out)
                        .expect("gather");
                }
            }
            let d = start.elapsed().as_secs_f64() / (rounds * TENANTS) as f64;
            if block > 0 {
                // Block 0 warms the bare system.
                serve_s.push(s);
                direct_s.push(d);
            }
        }
        let (serve_s, direct_s) = (stats::fast(&serve_s), stats::fast(&direct_s));
        metrics.set(
            "upmem.sim_us_per_wall_us",
            metrics.get("sim_us_per_op").unwrap_or(0.0) / (serve_s * 1e6),
        );
        metrics.set("upmem.direct_us_per_op", direct_s * 1e6);
        metrics.set("sim.direct_share_pct", 100.0 * direct_s / serve_s);

        probes::serve_layers(config, &self.pool, metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves up to `batch` queued requests per round; a round takes
    /// `round_seconds` of device time whatever its size.
    struct Stub {
        queue: VecDeque<usize>,
        busy: f64,
        batch: usize,
        round_seconds: f64,
        depth: usize,
    }

    impl SimServer for Stub {
        fn busy_seconds(&self) -> f64 {
            self.busy
        }
        fn submit(&mut self, _tenant: usize, id: usize) -> bool {
            if self.queue.len() >= self.depth {
                return false;
            }
            self.queue.push_back(id);
            true
        }
        fn step(&mut self, completed: &mut Vec<usize>) {
            let n = self.queue.len().min(self.batch);
            if n > 0 {
                self.busy += self.round_seconds;
                completed.extend(self.queue.drain(..n));
            }
        }
        fn backlog(&self) -> usize {
            self.queue.len()
        }
    }

    fn stub(batch: usize, round_seconds: f64, depth: usize) -> Stub {
        Stub {
            queue: VecDeque::new(),
            busy: 0.0,
            batch,
            round_seconds,
            depth,
        }
    }

    #[test]
    fn latency_runs_from_the_due_time_not_from_submission() {
        // Rounds take 10 ms. Requests due at 0, 1 and 25 ms: the second is
        // due while the first is being served, so it is submitted late (at
        // 10 ms) but its latency still counts from 1 ms.
        let due = [0.0, 0.001, 0.025];
        let run = drive_open_loop(&mut stub(1, 0.010, 8), &due, &[0, 0, 0]);
        let ms: Vec<f64> = run
            .latencies
            .iter()
            .map(|l| (l * 1e6).round() / 1e3)
            .collect();
        assert_eq!(ms, [10.0, 19.0, 10.0]);
        let waits: Vec<f64> = run
            .queue_waits
            .iter()
            .map(|l| (l * 1e6).round() / 1e3)
            .collect();
        assert_eq!(waits, [0.0, 9.0, 0.0]);
        assert_eq!((run.rounds, run.rejected, run.backlog_end), (3, 0, 1));
        assert!((run.busy_seconds - 0.030).abs() < 1e-12);
    }

    #[test]
    fn overload_shows_as_backlog_and_growing_latency() {
        // 1000 req/s offered, 500 req/s served (one request per 2 ms round).
        let due: Vec<f64> = (1..=400).map(|i| f64::from(i) * 1e-3).collect();
        let tenants = vec![0; due.len()];
        let over = drive_open_loop(&mut stub(1, 0.002, 10_000), &due, &tenants);
        assert_eq!(over.latencies.len(), 400);
        assert!(over.backlog_end >= 150, "backlog {}", over.backlog_end);
        assert!(over.latencies[399] > 50.0 * over.latencies[0]);
        // The same arrivals against a server twice as fast as the offered
        // load: no backlog, flat latency.
        let under = drive_open_loop(&mut stub(1, 0.0005, 10_000), &due, &tenants);
        assert!(under.backlog_end <= 1);
        assert!(under.latencies.iter().all(|&l| l < 0.0011));
        // Batching absorbs the overload: four per round is 2000 req/s.
        let batched = drive_open_loop(&mut stub(4, 0.002, 10_000), &due, &tenants);
        assert!(batched.backlog_end <= 4);
    }

    #[test]
    fn refused_requests_are_counted_not_served() {
        let due: Vec<f64> = (1..=100).map(|i| f64::from(i) * 1e-4).collect();
        let run = drive_open_loop(&mut stub(1, 0.010, 2), &due, &vec![0; 100]);
        assert!(run.rejected > 0);
        assert_eq!(run.latencies.len() + run.rejected, 100);
    }
}
