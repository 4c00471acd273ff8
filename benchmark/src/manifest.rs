//! What the benchmark measures: the six workloads, every metric with its
//! unit, clock and layer, the frozen sizes, and the `BENCHMARK.json` that is
//! generated from these tables (`cinm-benchmark manifest`).

use crate::json::Json;

/// Seconds of the untraced measurement window the driver asks for.
pub const RUN_SECONDS: u64 = 16;
/// A gated host-clock number never rests on fewer samples than this.
pub const MIN_SAMPLES: usize = 12;
/// Relative bound of a deterministic (simulated-clock or count) metric in
/// `compare`; `selfcheck` demands bit-equality.
pub const EXACT_BOUND: f64 = 0.001;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Compile,
    Figures,
    SessionReplay,
    SessionCold,
    SessionPressure,
    Serve,
}

use Kind::*;

pub const ALL_KINDS: [Kind; 6] = [
    Compile,
    Figures,
    SessionReplay,
    SessionCold,
    SessionPressure,
    Serve,
];
const SESSIONS: &[Kind] = &[SessionReplay, SessionCold, SessionPressure];
const SIMULATED: &[Kind] = &[Figures, SessionReplay, SessionCold, SessionPressure, Serve];
const EVERY: &[Kind] = &ALL_KINDS;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Compile => "compile",
            Figures => "figures",
            SessionReplay => "session_replay",
            SessionCold => "session_cold",
            SessionPressure => "session_pressure",
            Serve => "serve",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        ALL_KINDS.into_iter().find(|k| k.name() == name)
    }

    /// One sentence: why the workload exists and which layer it stresses.
    pub fn why(self) -> &'static str {
        match self {
            Compile => "33 programs built and lowered through cinm, cnm->upmem and cim->memristor: only the compiler runs, so simulator or runtime changes must leave it flat",
            Figures => "26 cold paper runs (12 UPMEM, 9 crossbar, 5 sharded) on fresh contexts: simulator kernels, transfers and slab construction dominate",
            SessionReplay => "one warmed Session loop, 100% plan-cache hits and 0 allocs/op: record, signature, rebind and replay overhead are a large share",
            SessionCold => "24 rotating shape signatures against an 8-entry plan cache: every run misses, so optimizer, shard planner and compile dominate",
            SessionPressure => "the replay graph over 16 weight matrices under half the MRAM they need: every op evicts and restores through the residency manager",
            Serve => "SessionServer with 6 weighted tenants in two gemv classes, closed loop of 6 clients: admission, fair queue, batching and BatchPlan replay",
        }
    }

    /// What one op of `*_per_op` is.
    pub fn op(self) -> &'static str {
        match self {
            Compile => "one program built, lowered through one pipeline and verified",
            Figures => "one cold paper run on a fresh context",
            SessionReplay | SessionPressure => {
                "one write -> gemv -> select + xor/and/or -> reduce -> run -> fetch iteration"
            }
            SessionCold => "one iteration of the same graph on the next of 24 shapes",
            Serve => "one completed request",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock: noisy, gated with a bound.
    Wall,
    /// Simulated device clock or energy model: repeats exactly.
    Sim,
    /// A count made by the benchmark or the program: repeats exactly.
    Count,
    /// A property of the run itself (noise indicators, memory).
    Host,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
            Clock::Count => "count",
            Clock::Host => "host",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a change in the metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// End-to-end, on every workload, gated by the driver with this bound.
    EndToEnd(f64),
    /// End-to-end on the workloads it applies to; deterministic, so
    /// `compare` uses [`EXACT_BOUND`] and `selfcheck` demands bit-equality.
    Exact,
    /// Per-layer: reported, explains the end-to-end numbers, never gated.
    Layer,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    pub gate: Gate,
    /// Workloads on which the metric is measured; elsewhere it reads 0.
    pub on: &'static [Kind],
    /// The end-to-end metric it should move, and where.
    pub moves: &'static str,
}

impl MetricDef {
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "end-to-end",
        }
    }

    /// Deterministic by construction: must be bit-equal between runs of one
    /// build on one seed.
    pub fn repeats_exactly(&self) -> bool {
        matches!(self.clock, Clock::Sim | Clock::Count)
    }
}

const fn m(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    gate: Gate,
    on: &'static [Kind],
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        gate,
        on,
        moves,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Sim, Wall};
use Gate::{EndToEnd, Exact, Layer};

const W_COMPILE: &str = "wall_us_per_op on compile";
const W_FIGURES: &str = "wall_us_per_op on figures";
const W_SESSION: &str = "wall_us_per_op on session_*";
const W_SERVE: &str = "wall_us_per_op on serve";

/// Every metric the benchmark prints. Order is the print order.
#[rustfmt::skip] // one metric per line reads as the table it is
pub const METRICS: &[MetricDef] = &[
    // --- end to end: what a user of the system sees -------------------------
    m("wall_us_per_op", "us", Wall, Lower, EndToEnd(0.25), EVERY, "-"),
    m("peak_rss_mb", "MB", Host, Lower, EndToEnd(0.15), EVERY, "-"),
    m("setup_s", "s", Wall, Lower, EndToEnd(0.25), EVERY, "-"),
    m("sim_us_per_op", "us", Sim, Lower, Exact, SIMULATED, "-"),
    m("sim_uj_per_op", "uJ", Sim, Lower, Exact, SIMULATED, "-"),
    m("gen_ops_per_program", "count", Count, Lower, Exact, &[Compile], "-"),
    m("sim_p50_us", "us", Sim, Lower, Exact, &[Serve], "-"),
    m("sim_p99_us", "us", Sim, Lower, Exact, &[Serve], "-"),
    m("max_rate_rps", "1/s", Sim, Higher, Exact, &[Serve], "-"),
    // --- compiler ------------------------------------------------------------
    m("workloads.build_func_us", "us", Wall, Lower, Layer, &[Compile], W_COMPILE),
    m("dialects.register_us", "us", Wall, Lower, Layer, &[Compile], W_COMPILE),
    m("convert.tosa_to_linalg_us", "us", Wall, Lower, Layer, &[Compile], W_COMPILE),
    m("convert.linalg_to_cinm_us", "us", Wall, Lower, Layer, &[Compile], W_COMPILE),
    m("convert.cinm_to_cnm_us", "us", Wall, Lower, Layer, &[Compile], W_COMPILE),
    m("convert.cnm_to_upmem_us", "us", Wall, Lower, Layer, &[Compile], W_COMPILE),
    m("convert.cinm_to_cim_us", "us", Wall, Lower, Layer, &[Compile], W_COMPILE),
    m("convert.cim_to_memristor_us", "us", Wall, Lower, Layer, &[Compile], W_COMPILE),
    m("convert.pattern_changes", "count", Count, Lower, Layer, &[Compile], "later passes' time on compile"),
    m("ir.verify_us", "us", Wall, Lower, Layer, &[Compile], W_COMPILE),
    m("ir.print_us", "us", Wall, Lower, Layer, &[Compile], "none (printing is outside the op)"),
    m("target.select_us", "us", Wall, Lower, Layer, &[Compile], W_COMPILE),
    m("ir.ops_in", "count", Count, Lower, Layer, &[Compile], "every pass's time on compile"),
    m("ir.ops_after_cinm", "count", Count, Lower, Layer, &[Compile], "later passes' time on compile"),
    m("ir.ops_after_cnm", "count", Count, Lower, Layer, &[Compile], "cnm_to_upmem time on compile"),
    m("ir.ops_after_upmem", "count", Count, Lower, Layer, &[Compile], "gen_ops_per_program"),
    m("ir.ops_after_cim", "count", Count, Lower, Layer, &[Compile], "cim_to_memristor time on compile"),
    m("ir.ops_after_memristor", "count", Count, Lower, Layer, &[Compile], "gen_ops_per_program"),
    // --- simulators and back-ends -------------------------------------------
    m("session.construct_us", "us", Wall, Lower, Layer, &[Figures], W_FIGURES),
    m("backend.cim_construct_us", "us", Wall, Lower, Layer, &[Figures], W_FIGURES),
    m("sharded.construct_us", "us", Wall, Lower, Layer, &[Figures], W_FIGURES),
    m("runner.upmem_run_us", "us", Wall, Lower, Layer, &[Figures], W_FIGURES),
    m("runner.cim_run_us", "us", Wall, Lower, Layer, &[Figures], W_FIGURES),
    m("sharded.run_us", "us", Wall, Lower, Layer, &[Figures], W_FIGURES),
    m("upmem.launches_per_op", "count", Count, Lower, Layer, SIMULATED, "sim_us_per_op"),
    m("upmem.h2d_bytes_per_op", "B", Count, Lower, Layer, SIMULATED, "sim_us_per_op, sim_uj_per_op"),
    m("upmem.d2h_bytes_per_op", "B", Count, Lower, Layer, SIMULATED, "sim_us_per_op, sim_uj_per_op"),
    m("upmem.kernel_sim_us_per_op", "us", Sim, Lower, Layer, SIMULATED, "sim_us_per_op"),
    m("upmem.transfer_sim_us_per_op", "us", Sim, Lower, Layer, SIMULATED, "sim_us_per_op"),
    m("upmem.energy_uj_per_op", "uJ", Sim, Lower, Layer, SIMULATED, "sim_uj_per_op"),
    m("upmem.sim_us_per_wall_us", "ratio", Wall, Higher, Layer, SIMULATED, "wall_us_per_op (simulator speed)"),
    m("memristor.mvm_ops_per_op", "count", Count, Lower, Layer, &[Figures], "sim_us_per_op on figures"),
    m("memristor.tile_writes_per_op", "count", Count, Lower, Layer, &[Figures], "sim_us_per_op, sim_uj_per_op on figures"),
    m("memristor.sim_us_per_op", "us", Sim, Lower, Layer, &[Figures], "sim_us_per_op on figures"),
    m("memristor.energy_uj_per_op", "uJ", Sim, Lower, Layer, &[Figures], "sim_uj_per_op on figures"),
    m("shard.cnm_fraction", "ratio", Count, Higher, Layer, &[Figures], "shard.makespan_sim_us"),
    m("shard.cim_fraction", "ratio", Count, Higher, Layer, &[Figures], "shard.makespan_sim_us"),
    m("shard.host_fraction", "ratio", Count, Lower, Layer, &[Figures], "shard.makespan_sim_us"),
    m("shard.makespan_sim_us", "us", Sim, Lower, Layer, &[Figures], "sim_us_per_op on figures"),
    m("sharded.max_concurrent", "count", Host, Higher, Layer, &[Figures], "sharded.run_us on >= 2 free cores"),
    m("upmem.direct_us_per_op", "us", Wall, Lower, Layer, SIMULATED, "wall_us_per_op everywhere (the simulator floor)"),
    m("sim.direct_share_pct", "%", Wall, Higher, Layer, SIMULATED, "bounds what a simulator speed-up can save"),
    m("upmem.alloc_buffer_us", "us", Wall, Lower, Layer, &[Figures], W_FIGURES),
    m("upmem.scatter_ns_per_byte", "ns/B", Wall, Lower, Layer, &[Figures], W_FIGURES),
    m("upmem.broadcast_ns_per_byte", "ns/B", Wall, Lower, Layer, &[Figures], W_FIGURES),
    m("upmem.gather_ns_per_byte", "ns/B", Wall, Lower, Layer, &[Figures], W_FIGURES),
    m("upmem.launch_us", "us", Wall, Lower, Layer, &[Figures], W_FIGURES),
    m("memristor.write_tile_us", "us", Wall, Lower, Layer, &[Figures], W_FIGURES),
    m("memristor.mvm_us", "us", Wall, Lower, Layer, &[Figures], W_FIGURES),
    m("cpu.gemv_golden_us", "us", Wall, Lower, Layer, &[Figures], "setup_s (goldens), sharded host shard"),
    m("runtime.pool_scope_ns", "ns", Wall, Lower, Layer, &[Figures], "sharded.run_us"),
    // --- session ---------------------------------------------------------------
    m("session.record_us", "us", Wall, Lower, Layer, SESSIONS, W_SESSION),
    m("session.run_us", "us", Wall, Lower, Layer, SESSIONS, W_SESSION),
    m("session.fetch_us", "us", Wall, Lower, Layer, SESSIONS, W_SESSION),
    m("backend.eager_us_per_op", "us", Wall, Lower, Layer, SESSIONS, "the lowering share of wall_us_per_op"),
    m("session.overhead_us_per_op", "us", Wall, Lower, Layer, SESSIONS, "wall_us_per_op on session_replay, not session_cold"),
    m("session.plan_hit_pct", "%", Count, Higher, Layer, SESSIONS, W_SESSION),
    m("session.plan_misses_per_op", "count", Count, Lower, Layer, SESSIONS, "wall_us_per_op on session_cold"),
    m("session.fused_groups_per_op", "count", Count, Higher, Layer, SESSIONS, "upmem.launches_per_op -> sim_us_per_op"),
    m("session.launches_saved_per_op", "count", Count, Higher, Layer, SESSIONS, "sim_us_per_op on session_*"),
    m("session.evictions_per_op", "count", Count, Lower, Layer, SESSIONS, "wall and sim_us_per_op on session_pressure"),
    m("session.spilled_bytes_per_op", "B", Count, Lower, Layer, SESSIONS, "sim_us_per_op on session_pressure"),
    m("session.remat_ops_per_op", "count", Count, Lower, Layer, SESSIONS, "sim_us_per_op on session_pressure"),
    // Not `Count`: exact on the allocation-free paths, but hash-map iteration
    // order moves the compile paths of `session_cold` and `figures` by a few
    // in 10 000.
    m("runtime.allocs_per_op", "count", Host, Lower, Layer, EVERY, "wall_us_per_op, mostly session_cold and compile"),
    m("shard.plan_cold_us", "us", Wall, Lower, Layer, &[SessionCold], "wall_us_per_op on session_cold"),
    m("shard.plan_cached_ns", "ns", Wall, Lower, Layer, &[SessionCold], "wall_us_per_op on session_cold"),
    m("shard.estimate_joules_ns", "ns", Wall, Lower, Layer, &[SessionCold], "none today (MinimizeEnergy only)"),
    m("device.submit_us", "us", Wall, Lower, Layer, &[SessionCold], "wall_us_per_op on session_cold (sharded steps)"),
    m("runtime.hazard_deps_us", "us", Wall, Lower, Layer, &[SessionCold], "wall_us_per_op on session_cold (stream build)"),
    // --- serve -------------------------------------------------------------------
    m("serve.submit_us", "us", Wall, Lower, Layer, &[Serve], W_SERVE),
    m("serve.step_us", "us", Wall, Lower, Layer, &[Serve], W_SERVE),
    m("serve.wait_us", "us", Wall, Lower, Layer, &[Serve], W_SERVE),
    m("serve.mean_batch", "count", Count, Higher, Layer, &[Serve], "sim_p50_us, sim_p99_us, max_rate_rps"),
    m("serve.rounds_per_op", "count", Count, Lower, Layer, &[Serve], "wall_us_per_op and sim_us_per_op on serve"),
    m("serve.rejected_pct", "%", Count, Lower, Layer, &[Serve], "max_rate_rps"),
    m("serve.sim_queue_wait_p50_us", "us", Sim, Lower, Layer, &[Serve], "sim_p50_us (rises before max_rate_rps is reached)"),
    m("serve.sim_service_us_per_round", "us", Sim, Lower, Layer, &[Serve], "sim_p50_us, max_rate_rps"),
    m("serve.backlog_end", "count", Count, Lower, Layer, &[Serve], "max_rate_rps"),
    m("serve.h2d_bytes_per_op", "B", Count, Lower, Layer, &[Serve], "sim_us_per_op on serve"),
    m("batch.compile_us", "us", Wall, Lower, Layer, &[Serve], "setup_s on serve"),
    m("runtime.queue_push_pop_ns", "ns", Wall, Lower, Layer, &[Serve], W_SERVE),
    // --- telemetry (off in every gated run) ------------------------------------------
    m("telemetry.counter_inc_ns", "ns", Wall, Lower, Layer, &[SessionReplay], "none until spans are turned on"),
    m("telemetry.histogram_record_ns", "ns", Wall, Lower, Layer, &[SessionReplay], "none until spans are turned on"),
    m("telemetry.snapshot_us", "us", Wall, Lower, Layer, &[SessionReplay], "none (off the hot path)"),
    m("telemetry.on_overhead_pct", "%", Wall, Lower, Layer, &[SessionReplay], "wall_us_per_op once telemetry is on by default"),
    // --- the harness itself ---------------------------------------------------------------
    m("harness.ref_kernel_us", "us", Host, Lower, Layer, EVERY, "the host's quiet level (lowest block of gauge readings)"),
    m("harness.quiet_pct", "%", Host, Higher, Layer, EVERY, "flags a run as noisy below 30%"),
    m("harness.window_s", "s", Host, Lower, Layer, EVERY, "longer than --seconds when the window waited for a quiet host"),
    m("harness.steal_pct", "%", Host, Lower, Layer, EVERY, "flags a run as noisy above 5%"),
    m("harness.batch_iqr_pct", "%", Host, Lower, Layer, EVERY, "spread of wall_us_per_op inside the run"),
    m("harness.wall_tail_us_per_op", "us", Wall, Lower, Layer, EVERY, "not gated (tail of the batch means)"),
    m("harness.wall_median_us_per_op", "us", Wall, Lower, Layer, EVERY, "not gated (jumps with the host's state)"),
    m("harness.samples", "count", Host, Higher, Layer, EVERY, "-"),
    m("harness.trace_overhead_pct", "%", Wall, Lower, Layer, EVERY, "-"),
    m("harness.unattributed_us", "us", Wall, Lower, Layer, EVERY, "op time outside every layer span"),
    m("harness.setup_phase_s", "s", Wall, Lower, Layer, EVERY, "-"),
    m("harness.setup_inputs_ms", "ms", Wall, Lower, Layer, EVERY, "setup_s"),
    m("harness.setup_construct_ms", "ms", Wall, Lower, Layer, EVERY, "setup_s"),
    m("harness.setup_first_result_ms", "ms", Wall, Lower, Layer, EVERY, "setup_s"),
];

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|d| d.name == name)
}

/// The metrics the driver gates: on every workload, never zero.
pub fn end_to_end() -> impl Iterator<Item = &'static MetricDef> {
    METRICS
        .iter()
        .filter(|d| matches!(d.gate, Gate::EndToEnd(_)))
}

/// Everything else, reported by the traced run.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    METRICS
        .iter()
        .filter(|d| !matches!(d.gate, Gate::EndToEnd(_)))
}

/// The command the driver appends `--workload .. --seed .. --seconds ..
/// --trace ..` to.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn benchmark_json() -> String {
    let describe = |d: &MetricDef, bound: Option<f64>| {
        let mut o = Json::obj()
            .with("name", d.name)
            .with("unit", d.unit)
            .with("better", d.better.name());
        if let Some(b) = bound {
            o = o.with("bound", b);
        }
        o
    };
    Json::obj()
        .with(
            "command",
            COMMAND.iter().map(|&s| Json::from(s)).collect::<Vec<_>>(),
        )
        .with("paths", vec![Json::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            ALL_KINDS
                .iter()
                .map(|k| Json::obj().with("name", k.name()).with("why", k.why()))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            end_to_end()
                .map(|d| match d.gate {
                    Gate::EndToEnd(bound) => describe(d, Some(bound)),
                    _ => unreachable!("filtered to end-to-end metrics"),
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            per_layer().map(|d| describe(d, None)).collect::<Vec<_>>(),
        )
        .to_pretty()
}

/// The metric glossary of the README, one row per metric.
pub fn glossary_markdown() -> String {
    let mut out = String::from(
        "| metric | unit | clock | layer | gate | measured on | should move |\n|---|---|---|---|---|---|---|\n",
    );
    for d in METRICS {
        let gate = match d.gate {
            Gate::EndToEnd(b) => format!("driver, bound {b}"),
            Gate::Exact => format!("exact (compare bound {EXACT_BOUND})"),
            Gate::Layer => "-".to_string(),
        };
        let on = if d.on.len() == ALL_KINDS.len() {
            "all six".to_string()
        } else {
            d.on.iter().map(|k| k.name()).collect::<Vec<_>>().join(", ")
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} | {} |\n",
            d.name,
            d.unit,
            d.clock.name(),
            d.layer(),
            gate,
            on,
            d.moves
        ));
    }
    out
}

/// Sizes frozen per workload. `counted_ops`, `setup_reps` and `batch_ops`
/// are the repeatability knobs; the rest are the workload's shapes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Ops of the counted pass that yields every simulated-clock and count
    /// metric (never taken from the time-bounded window).
    pub counted_ops: usize,
    /// Complete cold set-ups timed for `setup_s` (phase lasts 2-4 s here).
    pub setup_reps: usize,
    /// Ops per timed sample: about 1 ms and a whole cycle of the workload
    /// (`figures`: one pass, timed run by run).
    pub batch_ops: usize,
}

/// Frozen on this container (2 cores) from `cinm-benchmark calibrate`; see
/// the README for how each was sized.
pub fn sizes(kind: Kind, smoke: bool) -> Sizes {
    let full = match kind {
        // A sample is one cycle of the 33 programs (~2.4 ms); one set-up
        // lowers the full cycle once (~2.3 ms).
        Compile => Sizes {
            counted_ops: 330,
            setup_reps: 1000,
            batch_ops: 33,
        },
        // A sample is one pass of the 26 runs (~0.75 s), timed run by run;
        // one set-up generates ~110 MB of inputs and goldens (~0.27 s).
        Figures => Sizes {
            counted_ops: 26,
            setup_reps: 9,
            batch_ops: 26,
        },
        // ~23 us per op, so 40 ops are ~1 ms; a set-up is one small session
        // (~0.17 ms).
        SessionReplay => Sizes {
            counted_ops: 4000,
            setup_reps: 13_000,
            batch_ops: 40,
        },
        // A sample is one cycle of the 24 shapes (~1 ms); a set-up uploads
        // 24 models (~1.2 ms).
        SessionCold => Sizes {
            counted_ops: 480,
            setup_reps: 1800,
            batch_ops: 24,
        },
        // A sample is two trips round the ring of 16 (~1.3 ms); a set-up runs
        // the ring twice (unlimited, then limited; ~3 ms).
        SessionPressure => Sizes {
            counted_ops: 640,
            setup_reps: 720,
            batch_ops: 32,
        },
        // ~3.6 us per completed request, so 300 requests (50 rounds of the
        // six clients) are ~1.1 ms; a set-up registers six tenants and
        // uploads their weights (~0.2 ms).
        Serve => Sizes {
            counted_ops: 12_000,
            setup_reps: 10_000,
            batch_ops: 300,
        },
    };
    if !smoke {
        return full;
    }
    // Smoke: same code paths, a fraction of the work.
    Sizes {
        counted_ops: match kind {
            Figures => full.counted_ops,
            Compile => 66,
            SessionCold => 96,
            _ => full.counted_ops / 10,
        },
        setup_reps: 2,
        batch_ops: full.batch_ops,
    }
}

/// Serve phase A: requests per swept rate (200 beyond the p99).
pub const SERVE_SWEEP_REQUESTS: usize = 20_000;
/// Simulated saturation rate of the serve set-up, measured once with
/// `cinm-benchmark calibrate` and rounded; the swept rates are these
/// fractions of it.
pub const SERVE_SATURATION_RPS: f64 = 28_000.0;
pub const SERVE_RATE_FRACTIONS: [f64; 6] = [0.25, 0.5, 0.7, 0.85, 1.0, 1.15];
/// Index of `serve_rate_mid`, the rate `sim_p50_us`/`sim_p99_us` are read at.
pub const SERVE_RATE_MID: usize = 2;
/// The p99 limit of `max_rate_rps`: twice the p99 at the lowest rate,
/// measured once and frozen (simulated microseconds).
pub const SERVE_P99_LIMIT_US: f64 = 1000.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn manifest_meets_the_drivers_limits() {
        let mut names: Vec<&str> = METRICS.iter().map(|d| d.name).collect();
        names.extend(ALL_KINDS.iter().map(|k| k.name()));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for d in METRICS {
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}: unit {:?}",
                d.name,
                d.unit
            );
            assert!(!d.on.is_empty(), "{} is measured nowhere", d.name);
        }
        assert!((1..=16).contains(&end_to_end().count()));
        assert!((1..=128).contains(&per_layer().count()));
        for d in end_to_end() {
            assert_eq!(
                d.on.len(),
                ALL_KINDS.len(),
                "{} must exist everywhere",
                d.name
            );
            let Gate::EndToEnd(bound) = d.gate else {
                unreachable!()
            };
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = metric("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(ALL_KINDS
            .iter()
            .all(|k| k.why().len() <= 200 && !k.why().contains('\n')));
        let text = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn kinds_round_trip_by_name() {
        for k in ALL_KINDS {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("all"), None);
    }
}
