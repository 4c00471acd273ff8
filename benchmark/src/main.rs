//! `cinm-benchmark`: six workloads on two clocks.
//!
//! ```text
//! cinm-benchmark run --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]
//!                    [--repeat <k>] [--smoke] [--out <file.json>]
//! cinm-benchmark manifest            # prints BENCHMARK.json
//! cinm-benchmark glossary            # prints the README's metric table
//! cinm-benchmark compare <a.json> <b.json>
//! cinm-benchmark selfcheck [--sets 2] [--runs 5] [--seed <n>] [--seconds <s>]
//! cinm-benchmark calibrate           # re-measures the frozen constants
//! ```
//!
//! Exit codes: 0 success; 1 an output was incorrect, a deterministic metric
//! differed between repeats, or `selfcheck`/`compare` found a regression;
//! 2 bad usage or an I/O failure.

mod compare;
mod harness;
mod host;
mod json;
mod manifest;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::{Mode, Record, RunConfig};
use json::Json;
use manifest::{Kind, ALL_KINDS};

// Counts allocations per thread so `runtime.allocs_per_op` is a measurement;
// a pass-through to the system allocator otherwise.
#[global_allocator]
static ALLOC: cinm::runtime::alloc_count::CountingAllocator =
    cinm::runtime::alloc_count::CountingAllocator;

/// `--key value` pairs and bare flags after the subcommand.
struct Args {
    items: Vec<String>,
}

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        self.items
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.items.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.items.iter().any(|a| a == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: cannot read {v:?}")),
        }
    }

    fn positional(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip = false;
        for a in &self.items {
            if skip {
                skip = false;
            } else if a.starts_with("--") {
                skip = a != "--smoke";
            } else {
                out.push(a.as_str());
            }
        }
        out
    }
}

fn run_config(args: &Args, kind: Kind) -> Result<RunConfig, String> {
    let smoke = args.flag("--smoke");
    let seconds: f64 = args.parsed(
        "--seconds",
        if smoke {
            1.0
        } else {
            manifest::RUN_SECONDS as f64
        },
    )?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let mode = match args.value("--trace") {
        None => Mode::Full,
        Some("0") => Mode::EndToEnd,
        Some("1") => Mode::Traced,
        Some(other) => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    Ok(RunConfig {
        kind,
        seed: args.parsed("--seed", 1u64)?,
        seconds,
        mode,
        smoke,
    })
}

/// Runs one workload in this process, `repeat` times; deterministic metrics
/// must be bit-equal between the repeats.
fn run_one(args: &Args, kind: Kind) -> Result<ExitCode, String> {
    let config = run_config(args, kind)?;
    let repeat: usize = args.parsed("--repeat", 1usize)?;
    let mut first: Option<Record> = None;
    let mut code = ExitCode::SUCCESS;
    for _ in 0..repeat.max(1) {
        let record = workloads::run(&config)?;
        if let Some(f) = &first {
            for diff in compare::deterministic_differences(f, &record) {
                eprintln!("repeat differs: {diff}");
                code = ExitCode::from(1);
            }
        } else {
            first = Some(record);
        }
    }
    let record = first.expect("at least one repeat ran");
    if config.mode == Mode::Full {
        // A full run must produce every metric the manifest promises here.
        // (The tail percentile exists only from 20 samples up.)
        let promised = manifest::METRICS
            .iter()
            .filter(|d| d.on.contains(&kind) && d.name != "harness.wall_tail_us_per_op");
        for d in promised {
            if record.metrics.get(d.name).is_none() {
                eprintln!("missing metric: {} on {}", d.name, kind.name());
                code = ExitCode::from(1);
            }
        }
    }
    record.print_table();
    if record.noisy {
        eprintln!(
            "note: the host was noisy during this run (little of the window was quiet, or steal)"
        );
    }
    println!("{}", record.record_json().to_line());
    println!("{}", record.contract_line());
    if !record.correct() {
        code = ExitCode::from(1);
    }
    Ok(code)
}

/// Runs every workload, each in a fresh process of this binary.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    let mut failed = false;
    if args.flag("--smoke") {
        // The committed manifest must be the generated one.
        let path = harness::crate_dir().join("..").join("BENCHMARK.json");
        let committed =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if committed != manifest::benchmark_json() {
            eprintln!("BENCHMARK.json differs from `cinm-benchmark manifest`; regenerate it");
            failed = true;
        }
    }
    for kind in ALL_KINDS {
        let mut child_args: Vec<String> =
            vec!["run".into(), "--workload".into(), kind.name().into()];
        let mut skip = false;
        for a in &args.items {
            if skip {
                skip = false;
            } else if a == "--workload" || a == "--out" {
                skip = true;
            } else {
                child_args.push(a.clone());
            }
        }
        let (record, ok) = compare::spawn_run(&exe, &child_args, true)?;
        failed |= !ok;
        records.push(record);
    }
    let correct = !failed
        && records
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    let sum = |key: &str| -> f64 {
        records
            .iter()
            .filter_map(|r| r.get(key).and_then(Json::as_f64))
            .sum()
    };
    let mut metrics = Json::obj();
    for r in &records {
        let workload = r.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (name, m) in r.get("metrics").map(Json::members).unwrap_or(&[]) {
            let slim = Json::obj()
                .with("value", m.get("value").cloned().unwrap_or(Json::Null))
                .with("unit", m.get("unit").cloned().unwrap_or(Json::Null));
            metrics = metrics.with(&format!("{workload}.{name}"), slim);
        }
    }
    if let Some(path) = args.value("--out") {
        let doc = Json::obj().with("runs", records.clone());
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "{}",
        Json::obj()
            .with("correct", correct)
            .with("attempted", sum("attempted"))
            .with("failed", sum("failed"))
            .with("metrics", metrics)
            .to_line()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn dispatch(command: &str, args: &Args) -> Result<ExitCode, String> {
    match command {
        "run" => match args.value("--workload") {
            None | Some("all") => run_all(args),
            Some(name) => {
                let kind = Kind::parse(name).ok_or_else(|| {
                    let names: Vec<&str> = ALL_KINDS.iter().map(|k| k.name()).collect();
                    format!("unknown workload {name:?}; one of {names:?} or all")
                })?;
                run_one(args, kind)
            }
        },
        "manifest" => {
            print!("{}", manifest::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        "glossary" => {
            print!("{}", manifest::glossary_markdown());
            Ok(ExitCode::SUCCESS)
        }
        "compare" => match args.positional()[..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare takes two result files".into()),
        },
        "selfcheck" => compare::selfcheck(
            args.parsed("--sets", 2usize)?,
            args.parsed("--runs", 5usize)?,
            args.parsed("--seed", 1u64)?,
            args.parsed("--seconds", manifest::RUN_SECONDS as f64)?,
            args.flag("--smoke"),
        ),
        "calibrate" => workloads::calibrate(args.parsed("--seed", 1u64)?),
        other => Err(format!("unknown command {other:?}; see the crate README")),
    }
}

fn main() -> ExitCode {
    let mut items: Vec<String> = std::env::args().skip(1).collect();
    if items.is_empty() {
        eprintln!("usage: cinm-benchmark <run|manifest|glossary|compare|selfcheck|calibrate> ...");
        return ExitCode::from(2);
    }
    let command = items.remove(0);
    match dispatch(&command, &Args { items }) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("cinm-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
