//! The six workloads. Each implements [`crate::harness::Workload`]; the
//! harness owns the procedure, the workload owns what one op is.

mod compile;
mod direct;
mod figures;
mod probes;
mod serve;
mod session;

use std::process::ExitCode;

use crate::harness::{self, Record, RunConfig};
use crate::manifest::{self, Kind};

pub fn run(config: &RunConfig) -> Result<Record, String> {
    match config.kind {
        Kind::Compile => harness::run::<compile::Compile>(config),
        Kind::Figures => harness::run::<figures::Figures>(config),
        Kind::SessionReplay => harness::run::<session::SessionLoop<session::Replay>>(config),
        Kind::SessionCold => harness::run::<session::SessionLoop<session::Cold>>(config),
        Kind::SessionPressure => harness::run::<session::SessionLoop<session::Pressure>>(config),
        Kind::Serve => harness::run::<serve::Serve>(config),
    }
}

/// Re-measures the constants frozen in the manifest, so the README can say
/// how each was sized and a later change of the serve set-up can re-freeze
/// them (as its own change, with a new baseline).
pub fn calibrate(seed: u64) -> Result<ExitCode, String> {
    let saturation = serve::saturation_rps(seed)?;
    println!(
        "serve: simulated saturation {saturation:.1} req/s; frozen SERVE_SATURATION_RPS = {}",
        manifest::SERVE_SATURATION_RPS
    );
    let p99 = serve::lowest_rate_p99_us(seed)?;
    println!(
        "serve: p99 at {} x saturation = {p99:.2} us; twice that is {:.2}; frozen SERVE_P99_LIMIT_US = {}",
        manifest::SERVE_RATE_FRACTIONS[0],
        2.0 * p99,
        manifest::SERVE_P99_LIMIT_US
    );
    Ok(ExitCode::SUCCESS)
}
