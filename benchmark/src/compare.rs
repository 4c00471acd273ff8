//! Comparing sets of runs: the verdict rule, `compare`, and `selfcheck`
//! (two sets of runs of the same binary must agree within the benchmark's
//! own bounds).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::harness::{crate_dir, Record};
use crate::json::Json;
use crate::manifest::{self, Better, Gate, MetricDef, ALL_KINDS, EXACT_BOUND};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs overlap and their spread exceeds the bound: no statement.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of a comparison: both medians, the relative worsening of `b`
/// against `a` (positive is worse), the larger run-to-run spread, verdict.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    pub median_a: f64,
    pub median_b: f64,
    pub worsening: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// The rule of the choosing-metrics guide: `b` is worse when its median is
/// worse than `a`'s by more than the bound; better only when every run of
/// `b` beats every run of `a`; otherwise the same — unless the run-to-run
/// spread is wider than the bound, which resolves nothing.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Comparison {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worsening = if ma == 0.0 {
        if mb == ma {
            0.0
        } else {
            f64::INFINITY * sign * (mb - ma).signum()
        }
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let spread = stats::iqr_share(a).max(stats::iqr_share(b));
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let all_better = !a.is_empty() && b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let verdict = if worsening > bound {
        Verdict::Worse
    } else if all_better {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    Comparison {
        median_a: ma,
        median_b: mb,
        worsening,
        spread,
        bound,
        verdict,
    }
}

fn bound_of(d: &MetricDef) -> Option<f64> {
    match d.gate {
        Gate::EndToEnd(bound) => Some(bound),
        Gate::Exact => Some(EXACT_BOUND),
        Gate::Layer => None,
    }
}

/// Deterministic metrics present in both records that are not bit-equal.
pub fn deterministic_differences(a: &Record, b: &Record) -> Vec<String> {
    let mut out = Vec::new();
    for d in manifest::METRICS.iter().filter(|d| d.repeats_exactly()) {
        if let (Some(x), Some(y)) = (a.metrics.get(d.name), b.metrics.get(d.name)) {
            if x.to_bits() != y.to_bits() {
                out.push(format!("{} {}: {x} vs {y}", a.kind.name(), d.name));
            }
        }
    }
    out
}

/// Values of every metric per workload over the runs of one result file.
type RunSet = BTreeMap<(String, String), Vec<f64>>;

fn collect(records: &[Json]) -> RunSet {
    let mut set = RunSet::new();
    for r in records {
        let workload = r.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (name, m) in r.get("metrics").map(Json::members).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    set
}

fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("runs")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))
}

/// The comparison table of two run sets over every gated metric.
fn table(a: &RunSet, b: &RunSet) -> (String, bool) {
    let mut out = String::from(
        "| workload | metric | A median [q1, q3] (n) | B median [q1, q3] (n) | B vs A | spread | bound | verdict |\n|---|---|---|---|---|---|---|---|\n",
    );
    let mut regressed = false;
    for kind in ALL_KINDS {
        for d in manifest::METRICS {
            let Some(bound) = bound_of(d) else { continue };
            let key = (kind.name().to_string(), d.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            if !d.on.contains(&kind) {
                continue;
            }
            let c = judge(d.better, bound, va, vb);
            regressed |= c.verdict == Verdict::Worse;
            let cell = |v: &[f64], m: f64| {
                let (q1, q3) = stats::quartiles(v);
                format!("{m:.6} [{q1:.6}, {q3:.6}] ({})", v.len())
            };
            let _ = writeln!(
                out,
                "| {} | `{}` ({}) | {} | {} | {:+.3}% of {:.6} | {:.3}% | {:.1}% | {} |",
                kind.name(),
                d.name,
                d.unit,
                cell(va, c.median_a),
                cell(vb, c.median_b),
                100.0 * (c.median_b - c.median_a) / c.median_a.abs().max(f64::MIN_POSITIVE),
                c.median_a,
                100.0 * c.spread,
                100.0 * c.bound,
                c.verdict.name()
            );
        }
    }
    (out, regressed)
}

pub fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let (text, regressed) = table(&collect(&ra), &collect(&rb));
    println!("A = {a}\nB = {b}\n\n{text}");
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Runs this binary with `args`, waits for it, and returns its record line
/// (the JSON line carrying `workload`) and whether it exited with 0.
pub fn spawn_run(exe: &Path, args: &[String], echo: bool) -> Result<(Json, bool), String> {
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut record = None;
    for line in stdout.lines() {
        let parsed = line
            .starts_with('{')
            .then(|| Json::parse(line).ok())
            .flatten();
        match parsed {
            Some(j) if j.get("workload").is_some() => record = Some(j),
            Some(_) => {}
            None if echo => println!("{line}"),
            None => {}
        }
    }
    if let (true, Some(r)) = (echo, &record) {
        println!("{}", r.to_line());
    }
    let record = record.ok_or_else(|| format!("{args:?}: the run printed no record"))?;
    Ok((record, output.status.success()))
}

/// Alternates A/B runs of this same binary (`runs` seeds per set, the same
/// seeds in both sets), adds one traced run per set for the per-layer
/// counts, and checks that the benchmark agrees with itself.
pub fn selfcheck(
    sets: usize,
    runs: usize,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<ExitCode, String> {
    if sets != 2 {
        return Err("selfcheck compares exactly two sets (--sets 2)".into());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut records: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    let mut failures: Vec<String> = Vec::new();
    let launch = |set: usize, kind: manifest::Kind, seed: u64, trace: &str| {
        let mut args: Vec<String> = [
            "run",
            "--workload",
            kind.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            trace,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if smoke {
            args.push("--smoke".into());
        }
        eprintln!(
            "selfcheck: set {} {} seed {seed} trace {trace}",
            ["A", "B"][set],
            kind.name()
        );
        spawn_run(&exe, &args, false)
    };
    for i in 0..runs {
        // Alternate which set goes first so drift of the host hits both.
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for kind in ALL_KINDS {
                let (record, ok) = launch(set, kind, seed + i as u64, "0")?;
                if !ok {
                    failures.push(format!(
                        "{} seed {} exited non-zero",
                        kind.name(),
                        seed + i as u64
                    ));
                }
                records[set].push(record);
            }
        }
    }
    let mut traced: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    for set in [0, 1] {
        for kind in ALL_KINDS {
            let (record, ok) = launch(set, kind, seed, "1")?;
            if !ok {
                failures.push(format!("{} traced run exited non-zero", kind.name()));
            }
            traced[set].push(record);
        }
    }

    // 1. Deterministic metrics: bit-equal between the sets, run by run.
    let exact_pairs = records[0]
        .iter()
        .zip(&records[1])
        .chain(traced[0].iter().zip(&traced[1]));
    let mut exact_checked = 0usize;
    for (a, b) in exact_pairs {
        let workload = a.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (name, ma) in a.get("metrics").map(Json::members).unwrap_or(&[]) {
            let exact = manifest::metric(name).is_some_and(MetricDef::repeats_exactly);
            let vb = b
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            if let (true, Some(va), Some(vb)) = (exact, ma.get("value").and_then(Json::as_f64), vb)
            {
                exact_checked += 1;
                if va.to_bits() != vb.to_bits() {
                    failures.push(format!("{workload} {name}: {va} in set A, {vb} in set B"));
                }
            }
        }
    }

    // 2. Host-clock end-to-end metrics: set medians within the bound.
    let (a, b) = (collect(&records[0]), collect(&records[1]));
    let mut noise = String::from(
        "| workload | metric | set A median | A spread | set B median | B spread | B vs A | bound | within |\n|---|---|---|---|---|---|---|---|---|\n",
    );
    for kind in ALL_KINDS {
        for d in manifest::end_to_end() {
            let key = (kind.name().to_string(), d.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let Gate::EndToEnd(bound) = d.gate else {
                continue;
            };
            let c = judge(d.better, bound, va, vb);
            let within = c.worsening.abs() <= bound;
            if !within {
                failures.push(format!(
                    "{} {}: set medians {} and {} differ by more than {}%",
                    kind.name(),
                    d.name,
                    c.median_a,
                    c.median_b,
                    100.0 * bound
                ));
            }
            let _ = writeln!(
                noise,
                "| {} | `{}` ({}) | {:.6} | {:.2}% | {:.6} | {:.2}% | {:+.2}% | {:.0}% | {} |",
                kind.name(),
                d.name,
                d.unit,
                c.median_a,
                100.0 * stats::iqr_share(va),
                c.median_b,
                100.0 * stats::iqr_share(vb),
                100.0 * (c.median_b - c.median_a) / c.median_a,
                100.0 * bound,
                if within { "yes" } else { "NO" }
            );
        }
    }
    let noisy_runs = records
        .iter()
        .flatten()
        .filter(|r| r.get("noisy").and_then(Json::as_bool) == Some(true))
        .count();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# selfcheck: two sets of {runs} runs of one binary\n\nSeeds {seed}..{} (run *i* of both sets uses seed {seed}+*i*, so the spread below is also the spread across inputs), {seconds} s windows{}, sets alternated A/B. Spread is (q3 - q1) / median over the set's runs.\n",
        seed + runs as u64 - 1,
        if smoke { ", smoke sizes" } else { "" }
    );
    let _ = writeln!(report, "## Host-clock end-to-end metrics\n\n{noise}");
    let _ = writeln!(
        report,
        "## Deterministic metrics\n\n{exact_checked} simulated-clock and count values compared pairwise between the sets (same seed, same mode): {}.\n\nRuns flagged noisy by the harness (window less than 30% quiet, or steal > 5%): {noisy_runs} of {}.\n",
        if failures.iter().any(|f| f.contains("in set A")) {
            "DIFFERENCES FOUND"
        } else {
            "all bit-equal"
        },
        records[0].len() + records[1].len()
    );
    if failures.is_empty() {
        let _ = writeln!(report, "Result: **pass**.");
    } else {
        let _ = writeln!(report, "Result: **FAIL**\n");
        for f in &failures {
            let _ = writeln!(report, "- {f}");
        }
    }
    print!("{report}");
    // Only a full selfcheck is a result worth committing.
    let path = crate_dir()
        .join(if smoke { "out" } else { "results" })
        .join("selfcheck.md");
    std::fs::create_dir_all(path.parent().expect("joined above"))
        .and_then(|()| std::fs::write(&path, &report))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_rule() {
        let lower = |a: &[f64], b: &[f64]| judge(Better::Lower, 0.10, a, b).verdict;
        // Median worse by more than the bound.
        assert_eq!(
            lower(&[100.0, 101.0, 99.0], &[112.0, 113.0, 111.0]),
            Verdict::Worse
        );
        // Within the bound, tight runs.
        assert_eq!(
            lower(&[100.0, 101.0, 99.0], &[104.0, 105.0, 103.0]),
            Verdict::Same
        );
        // Every run of B beats every run of A.
        assert_eq!(
            lower(&[100.0, 101.0, 99.0], &[90.0, 98.0, 95.0]),
            Verdict::Better
        );
        // Overlapping runs whose spread exceeds the bound say nothing...
        assert_eq!(
            lower(
                &[100.0, 70.0, 130.0, 100.0, 90.0],
                &[95.0, 60.0, 125.0, 100.0, 97.0]
            ),
            Verdict::Unresolved
        );
        // ...but a median beyond the bound is still a regression,
        assert_eq!(
            lower(
                &[100.0, 70.0, 130.0, 100.0, 90.0],
                &[150.0, 120.0, 170.0, 160.0, 140.0]
            ),
            Verdict::Worse
        );
        // and wide but disjoint runs are still an improvement.
        assert_eq!(
            lower(
                &[100.0, 70.0, 130.0, 100.0, 90.0],
                &[50.0, 40.0, 65.0, 60.0, 45.0]
            ),
            Verdict::Better
        );
        // Higher-is-better flips the direction.
        let higher = |a: &[f64], b: &[f64]| judge(Better::Higher, 0.001, a, b).verdict;
        assert_eq!(higher(&[1000.0], &[1000.0]), Verdict::Same);
        assert_eq!(higher(&[1000.0], &[990.0]), Verdict::Worse);
        assert_eq!(higher(&[1000.0], &[1010.0]), Verdict::Better);
    }

    #[test]
    fn worsening_is_signed_and_relative_to_a() {
        let c = judge(Better::Lower, 0.10, &[200.0], &[210.0]);
        assert!((c.worsening - 0.05).abs() < 1e-12);
        let c = judge(Better::Higher, 0.10, &[200.0], &[210.0]);
        assert!((c.worsening + 0.05).abs() < 1e-12);
        assert_eq!((c.median_a, c.median_b), (200.0, 210.0));
    }

    #[test]
    fn run_sets_group_values_by_workload_and_metric() {
        let record = |v: f64| {
            Json::obj().with("workload", "compile").with(
                "metrics",
                Json::obj().with("wall_us_per_op", Json::obj().with("value", v)),
            )
        };
        let set = collect(&[record(1.0), record(3.0)]);
        assert_eq!(
            set[&("compile".to_string(), "wall_us_per_op".to_string())],
            vec![1.0, 3.0]
        );
        let (text, regressed) = table(&set, &collect(&[record(3.0), record(9.0)]));
        assert!(regressed && text.contains("worse"), "{text}");
    }
}
