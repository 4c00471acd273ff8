//! Command-line harness regenerating the paper's tables and figures.
//!
//! Usage: `cinm-experiments [fig10|fig11|fig12|table4|sharded|bfs|pressure|energy|all]
//!            [--scale test|bench|paper] [--threads N|auto]
//!            [--shard auto|cnm-only|cim-only|host-only|min-energy|fractions a,b,c]`
//!
//! `energy` reports the per-workload joule figures of the UPMEM and CIM
//! energy models next to the ARM host baseline (see EXPERIMENTS.md).
//!
//! `bfs` runs multi-step breadth-first search to convergence through the
//! `Session` graph API with a device-resident frontier, against the eager
//! per-op loop (see EXPERIMENTS.md).
//!
//! `pressure` re-runs the BFS loop and a two-class serving mix under
//! shrinking MRAM limits: completed tiers are bit-identical with their
//! spill/reload traffic reported, limits below the working set refuse with
//! typed errors (see EXPERIMENTS.md).
//!
//! `--threads` sets the number of host worker threads used for the
//! *functional* side of the simulation (`auto` = all available cores). The
//! reproduced numbers are bit-identical for every thread count; only the
//! wall-clock time of the sweep changes. One persistent worker pool is
//! constructed up front and shared by every figure of the sweep.
//!
//! `--shard` selects the policy of the `sharded` experiment: `auto` plans
//! the least estimated makespan across UPMEM + crossbar + host, `cnm-only` /
//! `cim-only` / `host-only` force a single device, and `fractions a,b,c`
//! forces explicit work fractions (must sum to 1 — the harness errors
//! instead of renormalising).

#![forbid(unsafe_code)]

use cinm_core::experiments;
use cinm_core::ShardPolicy;
use cinm_runtime::PoolHandle;
use cinm_workloads::Scale;

/// The tokens after `flag` (at least one): `None` when the flag is absent,
/// an error naming the `expected` grammar when it is the last token.
fn flag_values<'a>(
    args: &'a [String],
    flag: &str,
    expected: &str,
) -> Result<Option<&'a [String]>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match &args[at + 1..] {
        [] => Err(format!("{flag} requires a value ({expected})")),
        rest => Ok(Some(rest)),
    }
}

fn parse_scale(args: &[String]) -> Result<Scale, String> {
    let value = flag_values(args, "--scale", "paper|bench|test")?;
    match value.map(|v| v[0].as_str()) {
        None | Some("bench") => Ok(Scale::Bench),
        Some("paper") => Ok(Scale::Paper),
        Some("test") => Ok(Scale::Test),
        Some(other) => Err(format!(
            "invalid --scale value '{other}'; expected paper|bench|test"
        )),
    }
}

fn parse_threads(args: &[String]) -> Result<usize, String> {
    let value = flag_values(args, "--threads", "a number or 'auto'")?;
    match value.map(|v| v[0].as_str()) {
        None => Ok(1),
        Some("auto") => Ok(0),
        Some(n) => n
            .parse()
            .map_err(|_| format!("invalid --threads value '{n}'; expected a number or 'auto'")),
    }
}

fn parse_shard_policy(args: &[String]) -> Result<ShardPolicy, String> {
    let expected = "auto|cnm-only|cim-only|host-only|fractions a,b,c";
    match flag_values(args, "--shard", expected)? {
        None => Ok(ShardPolicy::Auto),
        Some(v) => ShardPolicy::parse_cli(&v[0], v.get(1).map(String::as_str)),
    }
}

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [&str; 8] = [
    "fig10", "fig11", "fig12", "table4", "sharded", "bfs", "pressure", "energy",
];

fn fail(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

fn main() {
    use experiments as ex;
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A leading flag means no experiment was named: run them all.
    let which = match args.first().map(String::as_str) {
        Some(name) if !name.starts_with("--") => name,
        _ => "all",
    };
    let scale = parse_scale(&args).unwrap_or_else(|e| fail(e));
    let threads = parse_threads(&args).unwrap_or_else(|e| fail(e));
    let shard_policy = parse_shard_policy(&args).unwrap_or_else(|e| fail(e));
    // One persistent pool for the whole sweep: worker threads are spawned
    // once here and reused by every backend of every figure.
    let pool = PoolHandle::with_threads(threads);
    let render = |name: &str| match name {
        "fig10" => ex::format_figure10(&ex::figure10_with_runtime(scale, threads, &pool)),
        "fig11" => ex::format_figure11(&ex::figure11_with_runtime(scale, threads, &pool)),
        "fig12" => ex::format_figure12(&ex::figure12_with_runtime(scale, threads, &pool)),
        "table4" => ex::format_table4(&ex::table4()),
        "sharded" => match ex::sharded_with_runtime(scale, threads, &pool, shard_policy) {
            Ok(rows) => ex::format_sharded(&rows),
            Err(e) => fail(format!("sharded experiment failed: {e}")),
        },
        "bfs" => ex::format_bfs(&ex::bfs_convergence(scale, threads, &pool)),
        "pressure" => ex::format_pressure(&ex::memory_pressure(scale, threads, &pool)),
        "energy" => ex::format_energy(&ex::energy_with_runtime(scale, threads, &pool)),
        other => fail(format!(
            "unknown experiment '{other}'; expected {}|all",
            EXPERIMENTS.join("|")
        )),
    };
    if which == "all" {
        for name in EXPERIMENTS {
            println!("{}", render(name));
        }
    } else {
        println!("{}", render(which));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinm_core::Target;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn scale_accepts_the_three_names_and_rejects_the_rest() {
        assert_eq!(parse_scale(&args("fig10")), Ok(Scale::Bench));
        assert_eq!(parse_scale(&args("--scale bench")), Ok(Scale::Bench));
        assert_eq!(parse_scale(&args("all --scale paper")), Ok(Scale::Paper));
        assert_eq!(
            parse_scale(&args("--scale test --threads 2")),
            Ok(Scale::Test)
        );
        let typo = parse_scale(&args("all --scale tset")).unwrap_err();
        assert!(typo.contains("'tset'"), "{typo}");
        assert!(parse_scale(&args("all --scale")).is_err());
    }

    #[test]
    fn threads_default_to_one_and_reject_non_numbers() {
        assert_eq!(parse_threads(&args("all")), Ok(1));
        assert_eq!(parse_threads(&args("all --threads auto")), Ok(0));
        assert_eq!(parse_threads(&args("--threads 8 --scale test")), Ok(8));
        let bad = parse_threads(&args("--threads many")).unwrap_err();
        assert!(bad.contains("'many'"), "{bad}");
        assert!(parse_threads(&args("--threads")).is_err());
    }

    #[test]
    fn shard_policy_reads_one_or_two_tokens() {
        assert_eq!(parse_shard_policy(&args("sharded")), Ok(ShardPolicy::Auto));
        assert_eq!(
            parse_shard_policy(&args("sharded --shard host-only --scale test")),
            Ok(ShardPolicy::Single(Target::Host))
        );
        assert_eq!(
            parse_shard_policy(&args("sharded --shard fractions 0.5,0.25,0.25")),
            Ok(ShardPolicy::Fractions([0.5, 0.25, 0.25]))
        );
        assert!(parse_shard_policy(&args("--shard fractions")).is_err());
        assert!(parse_shard_policy(&args("--shard bogus")).is_err());
        assert!(parse_shard_policy(&args("--shard")).is_err());
    }
}
