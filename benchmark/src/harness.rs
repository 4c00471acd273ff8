//! The measurement procedure shared by all workloads: set-up phase, counted
//! pass, timed window of fixed-size batches, traced window, noise
//! indicators, and the result record.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::host::{self, BlockId, Gauge};
use crate::json::Json;
use crate::manifest::{self, Kind, MetricDef, MIN_SAMPLES};
use crate::stats::{self, Summary};
use crate::trace::Tracer;

/// Samples run and thrown away before anything is measured: caches, lazy
/// set-up and the host's clock ramp settle in this time.
const WARM_UP_MS: u64 = 500;

/// Room for the samples of a window: 60 s of 1 ms batches.
const MAX_SAMPLES: usize = 1 << 16;

/// Samples a window needs when nothing gated is read from it.
const UNGATED_MIN_SAMPLES: usize = 3;

/// A run is flagged noisy when less than this share of its window was quiet.
const NOISY_BELOW_QUIET_SHARE: f64 = 0.3;

/// What a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: set-up phase, counted pass, untraced window.
    EndToEnd,
    /// `--trace 1`: the same with shorter windows, plus the traced window,
    /// probes and the serve sweep.
    Traced,
    /// No `--trace`: everything at full length (the human-facing run).
    Full,
}

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub mode: Mode,
    pub smoke: bool,
}

impl RunConfig {
    pub fn untraced_seconds(&self) -> f64 {
        match self.mode {
            Mode::Traced => self.seconds * 0.4,
            _ => self.seconds,
        }
    }

    /// Never more than four seconds: the trace buffer is sized for that.
    pub fn traced_seconds(&self) -> f64 {
        match self.mode {
            Mode::EndToEnd => 0.0,
            Mode::Traced => (self.seconds * 0.4).min(4.0),
            Mode::Full => (self.seconds / 3.0).min(4.0),
        }
    }

    pub fn wants_layers(&self) -> bool {
        self.mode != Mode::EndToEnd
    }
}

/// Where the crate lives; `out/` and `results/` sit beside `src/`.
pub fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Outcome counts of output checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The metrics of one run, keyed by manifest name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, Summary>,
}

impl Metrics {
    fn def(name: &str) -> &'static MetricDef {
        manifest::metric(name).unwrap_or_else(|| panic!("metric {name} is not in the manifest"))
    }

    /// A value counted or computed once.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values
            .insert(Self::def(name).name, Summary::exact(value));
    }

    /// A value reported from samples, with their count and quartiles.
    pub fn set_summary(&mut self, name: &str, summary: Summary) {
        self.values.insert(Self::def(name).name, summary);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|s| s.value)
    }

    pub fn summary(&self, name: &str) -> Option<&Summary> {
        self.values.get(name)
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.keys().copied()
    }
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Record {
    pub kind: Kind,
    pub seed: u64,
    pub mode: Mode,
    pub noisy: bool,
    pub checks: Checks,
    pub metrics: Metrics,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`,
    /// `metrics`. `--trace 0` carries every end-to-end metric, `--trace 1`
    /// every per-layer metric (0 where a metric is not measured on this
    /// workload), a full run both.
    pub fn contract_line(&self) -> String {
        let mut metrics = Json::obj();
        for d in manifest::METRICS {
            let end_to_end = matches!(d.gate, manifest::Gate::EndToEnd(_));
            let wanted = match self.mode {
                Mode::EndToEnd => end_to_end,
                Mode::Traced => !end_to_end,
                Mode::Full => true,
            };
            if wanted {
                let value = self.metrics.get(d.name).unwrap_or(0.0);
                metrics = metrics.with(
                    d.name,
                    Json::obj().with("value", value).with("unit", d.unit),
                );
            }
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.checks.attempted)
            .with("failed", self.checks.failed)
            .with("metrics", metrics)
            .to_line()
    }

    /// The richer line `compare` and `selfcheck` read: every measured metric
    /// with its spread inside the run.
    pub fn record_json(&self) -> Json {
        let mut metrics = Json::obj();
        for name in self.metrics.names() {
            let s = self.metrics.summary(name).expect("listed name");
            let d = manifest::metric(name).expect("recorded metrics are in the manifest");
            metrics = metrics.with(
                name,
                Json::obj()
                    .with("value", s.value)
                    .with("unit", d.unit)
                    .with("clock", d.clock.name())
                    .with("n", s.n)
                    .with("q1", s.q1)
                    .with("q3", s.q3),
            );
        }
        Json::obj()
            .with("workload", self.kind.name())
            .with("seed", self.seed)
            .with(
                "mode",
                match self.mode {
                    Mode::EndToEnd => "end_to_end",
                    Mode::Traced => "traced",
                    Mode::Full => "full",
                },
            )
            .with("noisy", self.noisy)
            .with("correct", self.correct())
            .with("attempted", self.checks.attempted)
            .with("failed", self.checks.failed)
            .with("metrics", metrics)
    }

    /// Every metric by name with unit, clock, n and quartiles.
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}) — op: {}",
            self.kind.name(),
            self.seed,
            self.kind.op()
        );
        println!(
            "{:<34} {:>16} {:<6} {:<6} {:>6} {:>14} {:>14}",
            "metric", "value", "unit", "clock", "n", "q1", "q3"
        );
        for d in manifest::METRICS {
            if let Some(s) = self.metrics.summary(d.name) {
                println!(
                    "{:<34} {:>16.6} {:<6} {:<6} {:>6} {:>14.6} {:>14.6}",
                    d.name,
                    s.value,
                    d.unit,
                    d.clock.name(),
                    s.n,
                    s.q1,
                    s.q3
                );
            }
        }
    }
}

// --- the timed window ----------------------------------------------------------

/// One timed sample: `ops` operations took `seconds`.
#[derive(Debug, Clone)]
pub struct Sample {
    pub ops: usize,
    pub seconds: f64,
    /// Seconds of each part of the sample, when the sample is made of parts
    /// that differ (the 26 runs of a `figures` pass); empty otherwise.
    pub parts: Vec<f64>,
}

/// How long a window runs: `seconds`, and on until it has `min_samples`. Its
/// length never depends on what the host is doing, so the time a run takes
/// can be planned.
#[derive(Debug, Clone, Copy)]
pub struct WindowPlan {
    pub seconds: f64,
    pub min_samples: usize,
}

impl WindowPlan {
    /// A window whose numbers are gated: at least [`MIN_SAMPLES`].
    pub fn gated(seconds: f64) -> Self {
        WindowPlan {
            seconds,
            min_samples: MIN_SAMPLES,
        }
    }

    /// A window nothing gated is read from.
    pub fn ungated(seconds: f64) -> Self {
        WindowPlan {
            seconds,
            min_samples: UNGATED_MIN_SAMPLES,
        }
    }
}

/// Result of one window.
pub struct Window {
    /// Microseconds per op of each sample (batch mean).
    pub us_per_op: Vec<f64>,
    /// The gauge block each sample fell into.
    blocks: Vec<BlockId>,
    /// Seconds of each part across the samples, `parts[part][sample]`.
    parts: Vec<Vec<f64>>,
    /// Ops per sample.
    ops: usize,
    pub elapsed_seconds: f64,
    pub steal_pct: f64,
}

impl Window {
    /// Indices of the samples taken while the host was quiet — all samples
    /// when none was (the run is then flagged noisy).
    fn quiet_samples(&self, gauge: &Gauge) -> Vec<usize> {
        let quiet: Vec<usize> = (0..self.us_per_op.len())
            .filter(|&i| gauge.is_quiet(self.blocks[i]))
            .collect();
        if quiet.is_empty() {
            (0..self.us_per_op.len()).collect()
        } else {
            quiet
        }
    }

    /// Share of the window's samples taken while the host was quiet.
    pub fn quiet_share(&self, gauge: &Gauge) -> f64 {
        let quiet = self.blocks.iter().filter(|&&b| gauge.is_quiet(b)).count();
        quiet as f64 / self.blocks.len().max(1) as f64
    }

    /// The undisturbed time per op of the window: [`stats::fast`] over the
    /// samples taken while the host was quiet. A sample made of differing
    /// parts is put together from the undisturbed time of each part, so one
    /// burst does not spoil a whole pass.
    pub fn fast_us_per_op(&self, gauge: &Gauge) -> f64 {
        let keep = self.quiet_samples(gauge);
        let pick = |series: &[f64]| -> Vec<f64> { keep.iter().map(|&i| series[i]).collect() };
        if self.parts.is_empty() {
            stats::fast(&pick(&self.us_per_op))
        } else {
            let seconds: f64 = self
                .parts
                .iter()
                .map(|series| stats::fast(&pick(series)))
                .sum();
            seconds * 1e6 / self.ops as f64
        }
    }
}

/// Fills the window with samples. `sample` runs one fixed-size batch and
/// returns its own timing, so a workload can leave output checks outside the
/// clock; the gauge is read beside every sample.
pub fn run_window(
    plan: WindowPlan,
    gauge: &mut Gauge,
    mut sample: impl FnMut() -> Sample,
) -> Window {
    let jiffies = host::cpu_jiffies();
    // Allocated and written up front (a zeroed allocation would stay
    // untouched), so the resident set does not depend on how many samples a
    // faster or slower host fits into the window.
    let mut us_per_op = vec![f64::NAN; MAX_SAMPLES];
    us_per_op.clear();
    let mut blocks = vec![gauge.open_block(); MAX_SAMPLES];
    blocks.clear();
    let mut parts: Vec<Vec<f64>> = Vec::new();
    let mut ops = 1;
    gauge.close_if_due(true);
    let start = Instant::now();
    loop {
        let s = sample();
        if us_per_op.len() == MAX_SAMPLES {
            break;
        }
        us_per_op.push(s.seconds * 1e6 / s.ops.max(1) as f64);
        blocks.push(gauge.open_block());
        ops = s.ops.max(1);
        parts.resize_with(s.parts.len(), Vec::new);
        for (series, seconds) in parts.iter_mut().zip(&s.parts) {
            series.push(*seconds);
        }
        // A long sample is a block of its own and needs enough readings.
        let long = s.seconds > 0.05;
        gauge.read(if long { 32 } else { 1 });
        gauge.close_if_due(long);
        if start.elapsed().as_secs_f64() >= plan.seconds && us_per_op.len() >= plan.min_samples {
            break;
        }
    }
    gauge.close_if_due(true);
    Window {
        us_per_op,
        blocks,
        parts,
        ops,
        elapsed_seconds: start.elapsed().as_secs_f64(),
        steal_pct: host::steal_pct_since(jiffies),
    }
}

/// Wall time of the phases of the set-up, summed over the repetitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupBreakdown {
    pub inputs: Duration,
    pub construct: Duration,
    pub first_result: Duration,
}

/// Times `$body` into one field of a [`SetupBreakdown`].
#[macro_export]
macro_rules! timed {
    ($slot:expr, $body:expr) => {{
        let __start = std::time::Instant::now();
        let __value = $body;
        $slot += __start.elapsed();
        __value
    }};
}

/// What a workload provides; [`run`] owns the procedure. The implementing
/// type is the workload's measured context.
pub trait Workload: Sized {
    const KIND: Kind;

    /// One complete cold set-up: inputs from the seed, devices / session /
    /// pipelines, cold compile, first result checked against its golden.
    fn cold_setup(
        seed: u64,
        sizes: manifest::Sizes,
        breakdown: &mut SetupBreakdown,
    ) -> Result<Self, String>;

    /// One fixed-size batch, timed by the workload itself so that checks of
    /// the outputs stay outside the clock.
    fn sample(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Sample;

    /// The counted pass: exactly `sizes.counted_ops` ops, every output
    /// checked, every simulated-clock and count metric recorded.
    fn counted_pass(&mut self, metrics: &mut Metrics, checks: &mut Checks);

    /// Probes and anything else only the traced run needs.
    fn layer_extras(&mut self, config: &RunConfig, metrics: &mut Metrics, checks: &mut Checks);

    /// Spans the traced window may record (40 bytes each, allocated after
    /// `peak_rss_mb` is read): four seconds of the fastest workload.
    fn trace_capacity(&self) -> usize {
        2_000_000
    }
}

/// Runs one workload through every phase of `config.mode`.
pub fn run<W: Workload>(config: &RunConfig) -> Result<Record, String> {
    // Before any worker pool exists: its threads inherit the affinity.
    if host::pin_to_current_cpu().is_none() {
        eprintln!("note: could not pin to one CPU; thread placement is the scheduler's");
    }
    let sizes = manifest::sizes(W::KIND, config.smoke);
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let mut gauge = Gauge::new();

    // 1. Set-up phase: `setup_reps` complete cold set-ups, each timed; the
    //    last one is the context everything below measures.
    let mut breakdown = SetupBreakdown::default();
    let mut setup_seconds = Vec::with_capacity(sizes.setup_reps);
    let mut setup_blocks = Vec::with_capacity(sizes.setup_reps);
    let mut context = None;
    for _ in 0..sizes.setup_reps.max(1) {
        drop(context.take());
        let start = Instant::now();
        context = Some(W::cold_setup(config.seed, sizes, &mut breakdown)?);
        let seconds = start.elapsed().as_secs_f64();
        setup_seconds.push(seconds);
        setup_blocks.push(gauge.open_block());
        let long = seconds > 0.05;
        gauge.read(if long { 32 } else { 1 });
        gauge.close_if_due(long);
        checks.record(true);
    }
    gauge.close_if_due(true);
    let reps = setup_seconds.len() as f64;
    metrics.set("harness.setup_phase_s", setup_seconds.iter().sum::<f64>());
    metrics.set(
        "harness.setup_inputs_ms",
        breakdown.inputs.as_secs_f64() * 1e3 / reps,
    );
    metrics.set(
        "harness.setup_construct_ms",
        breakdown.construct.as_secs_f64() * 1e3 / reps,
    );
    metrics.set(
        "harness.setup_first_result_ms",
        breakdown.first_result.as_secs_f64() * 1e3 / reps,
    );
    let mut w = context.expect("at least one set-up ran");

    // 2. The counted pass (deterministic metrics), straight after the set-up:
    //    the simulators' statistics are running sums, so the ops done before
    //    the pass must be a fixed number too or its differences would round
    //    differently from run to run.
    let mut off = Tracer::off();
    w.counted_pass(&mut metrics, &mut checks);
    // Peak memory is read here, after a fixed number of ops, not at the end
    // of the window: how many ops fit into a window depends on the host's
    // speed, and the heap of a long-running loop creeps with them.
    metrics.set("peak_rss_mb", host::peak_rss_mb());
    // Warm-up: samples run and thrown away.
    let warm_up = Instant::now();
    while warm_up.elapsed() < Duration::from_millis(WARM_UP_MS) {
        w.sample(&mut off, &mut checks);
    }

    // 3. The untraced window: every host-clock end-to-end number. A traced
    //    run reads nothing gated from it, so it is shorter.
    let plan = match config.mode {
        Mode::Traced => WindowPlan::ungated(config.untraced_seconds()),
        _ => WindowPlan::gated(config.untraced_seconds()),
    };
    let window = run_window(plan, &mut gauge, || w.sample(&mut off, &mut checks));
    let wall = Summary::sampled(window.fast_us_per_op(&gauge), &window.us_per_op);
    metrics.set_summary("wall_us_per_op", wall);
    metrics.set(
        "harness.wall_median_us_per_op",
        stats::median(&window.us_per_op),
    );
    metrics.set("harness.samples", window.us_per_op.len() as f64);
    metrics.set(
        "harness.batch_iqr_pct",
        100.0 * stats::iqr_share(&window.us_per_op),
    );
    if let Some(p) = stats::highest_supported_percentile(window.us_per_op.len()) {
        metrics.set(
            "harness.wall_tail_us_per_op",
            stats::percentile(&window.us_per_op, p),
        );
    }
    let quiet_share = window.quiet_share(&gauge);
    metrics.set("harness.quiet_pct", 100.0 * quiet_share);
    metrics.set("harness.window_s", window.elapsed_seconds);
    metrics.set("harness.steal_pct", window.steal_pct);
    // Too little of the window was quiet, or the hypervisor took more than 5%
    // of the CPU: the run is reported, flagged, never dropped.
    let noisy = quiet_share < NOISY_BELOW_QUIET_SHARE || window.steal_pct > 5.0;

    // 4. The traced window and the probes.
    if config.wants_layers() {
        let mut tracer = Tracer::with_capacity(w.trace_capacity());
        let traced = run_window(
            WindowPlan::ungated(config.traced_seconds()),
            &mut gauge,
            || w.sample(&mut tracer, &mut checks),
        );
        // Layer times are each layer's share of the traced time, applied to
        // the undisturbed traced time per op: a slow spell of the host slows
        // every layer alike, so the shares hold and the parts sum to a whole
        // that is as steady as `wall_us_per_op`.
        let self_times = tracer.self_times();
        let total_ns: u64 = self_times.values().map(|v| v.0).sum();
        let traced_us = traced.fast_us_per_op(&gauge);
        for (name, (self_ns, _count)) in self_times {
            let us = traced_us * self_ns as f64 / total_ns.max(1) as f64;
            match name {
                "harness.op" => metrics.set("harness.unattributed_us", us),
                _ => metrics.set(&format!("{name}_us"), us),
            }
        }
        metrics.set(
            "harness.trace_overhead_pct",
            100.0 * (traced_us / wall.value - 1.0),
        );
        if tracer.dropped() > 0 {
            eprintln!(
                "note: trace buffer full, {} spans not recorded",
                tracer.dropped()
            );
        }
        let path = crate_dir()
            .join("out")
            .join(format!("trace_{}.json", W::KIND.name()));
        tracer
            .write_chrome(&path, 200_000)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        drop(tracer);
        w.layer_extras(config, &mut metrics, &mut checks);
    }

    // `setup_s` last: which set-ups ran on a quiet host is only known once
    // the whole run has shown how fast the host gets.
    let quiet_setups: Vec<f64> = setup_seconds
        .iter()
        .zip(&setup_blocks)
        .filter(|(_, &b)| gauge.is_quiet(b))
        .map(|(&s, _)| s)
        .collect();
    let setup = stats::fast(if quiet_setups.is_empty() {
        &setup_seconds
    } else {
        &quiet_setups
    });
    metrics.set_summary("setup_s", Summary::sampled(setup, &setup_seconds));
    metrics.set("harness.ref_kernel_us", gauge.quiet_level());

    Ok(Record {
        kind: W::KIND,
        seed: config.seed,
        mode: config.mode,
        noisy,
        checks,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_takes_at_least_the_minimum_number_of_samples() {
        let mut calls = 0;
        let mut gauge = Gauge::new();
        let w = run_window(WindowPlan::gated(0.0), &mut gauge, || {
            calls += 1;
            Sample {
                ops: 10,
                seconds: 0.06,
                parts: vec![0.02, 0.04],
            }
        });
        // A window of no length ends as soon as it has the minimum.
        assert_eq!(calls, MIN_SAMPLES);
        assert_eq!(w.us_per_op.len(), MIN_SAMPLES);
        assert!((w.fast_us_per_op(&gauge) - 6000.0).abs() < 1e-6);
        assert!(gauge.quiet_level() > 0.0);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_the_modes_metrics() {
        let mut metrics = Metrics::default();
        metrics.set("wall_us_per_op", 12.5);
        metrics.set("sim_us_per_op", 3.25);
        let mut record = Record {
            kind: Kind::Compile,
            seed: 1,
            mode: Mode::EndToEnd,
            noisy: false,
            checks: Checks {
                attempted: 5,
                failed: 0,
            },
            metrics,
        };
        let parse = |r: &Record| Json::parse(&r.contract_line()).unwrap();
        let line = parse(&record);
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names = |j: &Json| -> Vec<String> {
            j.get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(names(&line), ["wall_us_per_op", "peak_rss_mb", "setup_s"]);
        record.mode = Mode::Traced;
        let line = parse(&record);
        assert_eq!(names(&line).len(), manifest::per_layer().count());
        assert!(!names(&line).contains(&"wall_us_per_op".to_string()));
        let sim = line.get("metrics").unwrap().get("sim_us_per_op").unwrap();
        assert_eq!(sim.get("value").and_then(Json::as_f64), Some(3.25));
        assert_eq!(sim.get("unit").and_then(Json::as_str), Some("us"));
        record.checks.failed = 1;
        assert_eq!(
            parse(&record).get("correct").and_then(Json::as_bool),
            Some(false)
        );
    }
}
