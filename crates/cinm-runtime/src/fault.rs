//! Deterministic fault injection and retry policy shared by the simulators
//! and the execution layers above them.
//!
//! Real CNM/CIM deployments treat device faults as a first-class concern:
//! UPMEM ranks fail per-DPU in practice, PCM crossbar cells wear out into
//! stuck-at states, and bulk transfers time out or arrive corrupted. The
//! simulators model these events through a seed-driven [`FaultInjector`]
//! attached to the machine configuration: every fault decision is a pure
//! function of the seed and a monotonically advancing event counter, so a
//! given program sees the *same* fault schedule on every run, for every host
//! thread count (decisions are drawn in the sequential validation phase of
//! each operation, never inside worker tasks).
//!
//! Faults are **injected before any state is touched**: every device
//! command — a transfer, a launch, a tile write, a band of MVMs — validates
//! and draws its fault decisions first, so a faulted command mutates nothing
//! and accounts nothing. One command is the unit of fault atomicity:
//! retrying it is always safe, and results after recovery are bit-identical
//! to a fault-free run.
//!
//! The retry side lives here too: [`RetryPolicy`] implements capped
//! exponential backoff with a bounded attempt budget. Backoff is *simulated*
//! (accounted in seconds, never slept), keeping the harness deterministic.

use std::fmt;

/// Whether a fault clears on retry or marks the resource dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The operation may succeed if re-issued (timeout, corrupted transfer,
    /// spurious launch failure).
    Transient,
    /// The resource is gone; re-issuing the operation can never succeed
    /// (failed rank, stuck-at crossbar tile).
    Permanent,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Transient => f.write_str("transient"),
            FaultKind::Permanent => f.write_str("permanent"),
        }
    }
}

/// One injected fault: the kind plus a human-readable description carried up
/// through the typed error enums of the layers above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Transient or permanent.
    pub kind: FaultKind,
    /// What failed (e.g. `"injected launch fault (event 17)"`).
    pub description: String,
}

/// Seed-driven fault-injection configuration, attached to a simulator
/// configuration (`UpmemConfig::fault`, `CrossbarConfig::fault`). The
/// default injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault schedule; the same seed always produces the same
    /// schedule for the same program.
    pub seed: u64,
    /// Per-launch probability of a transient compute fault (a failed DPU
    /// kernel launch, a failed crossbar MVM batch).
    pub launch_fault_rate: f64,
    /// Per-transfer probability of a transient timeout (scatter, broadcast,
    /// gather, tile programming).
    pub transfer_timeout_rate: f64,
    /// Per-transfer probability of detected payload corruption (checksummed
    /// transfers are re-issued, so corruption is transient).
    pub transfer_corruption_rate: f64,
    /// After this many launches, the device's compute engine fails
    /// **permanently**: every further launch errors with
    /// [`FaultKind::Permanent`]. Memory stays readable — rescue gathers of
    /// already-resident data still succeed, which is what lets the layers
    /// above re-plan from a consistent state.
    pub permanent_after_launches: Option<u64>,
    /// Crossbar tiles with permanent stuck-at cell faults: programming or
    /// reading such a tile fails with [`FaultKind::Permanent`] (write-verify
    /// detects the stuck cells). Ignored by the UPMEM simulator.
    pub stuck_tiles: Vec<usize>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::seeded(0)
    }
}

impl FaultConfig {
    /// A schedule with the given seed and no faults enabled; turn individual
    /// fault classes on with the builder methods.
    pub fn seeded(seed: u64) -> Self {
        FaultConfig {
            seed,
            launch_fault_rate: 0.0,
            transfer_timeout_rate: 0.0,
            transfer_corruption_rate: 0.0,
            permanent_after_launches: None,
            stuck_tiles: Vec::new(),
        }
    }

    /// Sets the per-launch transient fault probability.
    pub fn with_launch_fault_rate(mut self, rate: f64) -> Self {
        self.launch_fault_rate = rate;
        self
    }

    /// Sets the per-transfer transient timeout probability.
    pub fn with_transfer_timeout_rate(mut self, rate: f64) -> Self {
        self.transfer_timeout_rate = rate;
        self
    }

    /// Sets the per-transfer detected-corruption probability.
    pub fn with_transfer_corruption_rate(mut self, rate: f64) -> Self {
        self.transfer_corruption_rate = rate;
        self
    }

    /// Kills the compute engine permanently after `launches` successful
    /// launch attempts (the first faulted launch is launch `launches`).
    pub fn with_permanent_after_launches(mut self, launches: u64) -> Self {
        self.permanent_after_launches = Some(launches);
        self
    }

    /// Marks crossbar tiles as permanently stuck-at.
    pub fn with_stuck_tiles(mut self, tiles: Vec<usize>) -> Self {
        self.stuck_tiles = tiles;
        self
    }

    /// Whether any fault class is enabled at all (lets hot paths skip the
    /// injector entirely when the schedule is empty).
    pub fn any_enabled(&self) -> bool {
        self.launch_fault_rate > 0.0
            || self.transfer_timeout_rate > 0.0
            || self.transfer_corruption_rate > 0.0
            || self.permanent_after_launches.is_some()
            || !self.stuck_tiles.is_empty()
    }
}

/// The runtime state of a fault schedule: the configuration plus the event
/// counters that make every decision reproducible.
///
/// Decisions are drawn from a SplitMix64 stream keyed by
/// `seed + event_index`, so the n-th fault decision of a run is a pure
/// function of the seed — independent of host thread count, retries taken by
/// other operations, or wall-clock time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    config: FaultConfig,
    events: u64,
    launches: u64,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// Creates the injector for a schedule.
    pub fn new(config: FaultConfig) -> Self {
        FaultInjector {
            config,
            events: 0,
            launches: 0,
        }
    }

    /// The schedule configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Fault decisions drawn so far (testing/reporting aid).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The next uniform draw in `[0, 1)`, advancing the event counter.
    fn draw(&mut self) -> f64 {
        let bits = splitmix64(self.config.seed.wrapping_add(self.events));
        self.events += 1;
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fault decision for one kernel launch (or crossbar MVM batch).
    ///
    /// # Errors
    ///
    /// [`FaultKind::Permanent`] once the configured launch budget is
    /// exhausted, [`FaultKind::Transient`] with probability
    /// `launch_fault_rate` otherwise.
    pub fn check_launch(&mut self) -> Result<(), FaultEvent> {
        if let Some(after) = self.config.permanent_after_launches {
            if self.launches >= after {
                return Err(FaultEvent {
                    kind: FaultKind::Permanent,
                    description: format!(
                        "injected permanent compute failure (launch {} >= budget {after})",
                        self.launches
                    ),
                });
            }
        }
        let event = self.events;
        if self.config.launch_fault_rate > 0.0 && self.draw() < self.config.launch_fault_rate {
            return Err(FaultEvent {
                kind: FaultKind::Transient,
                description: format!("injected transient launch fault (event {event})"),
            });
        }
        self.launches += 1;
        Ok(())
    }

    /// Fault decision for one bulk transfer (scatter/broadcast/gather/tile
    /// write): a timeout or a detected corruption, both transient.
    ///
    /// # Errors
    ///
    /// [`FaultKind::Transient`] with the configured timeout/corruption
    /// probabilities.
    pub fn check_transfer(&mut self) -> Result<(), FaultEvent> {
        let event = self.events;
        if self.config.transfer_timeout_rate > 0.0
            && self.draw() < self.config.transfer_timeout_rate
        {
            return Err(FaultEvent {
                kind: FaultKind::Transient,
                description: format!("injected transfer timeout (event {event})"),
            });
        }
        let event = self.events;
        if self.config.transfer_corruption_rate > 0.0
            && self.draw() < self.config.transfer_corruption_rate
        {
            return Err(FaultEvent {
                kind: FaultKind::Transient,
                description: format!("injected transfer corruption (event {event})"),
            });
        }
        Ok(())
    }

    /// Whether a crossbar tile is configured as permanently stuck-at.
    pub fn tile_stuck(&self, tile: usize) -> bool {
        self.config.stuck_tiles.contains(&tile)
    }
}

/// Capped exponential backoff with a bounded attempt budget. Backoff is
/// accounted in *simulated* seconds — the policy never sleeps, so retries
/// stay deterministic and free of wall-clock effects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retrying.
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated seconds.
    pub base_backoff_s: f64,
    /// Backoff cap, in simulated seconds.
    pub max_backoff_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff_s: 100.0e-6,
            max_backoff_s: 10.0e-3,
        }
    }
}

/// What a [`RetryPolicy::run`] spent: attempts made, retries (attempts − 1)
/// and the simulated backoff accumulated between them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetryLog {
    /// Attempts made (≥ 1).
    pub attempts: u32,
    /// Retries taken (`attempts − 1`).
    pub retries: u32,
    /// Simulated seconds of backoff between attempts.
    pub backoff_seconds: f64,
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (1-based), doubled each time
    /// and capped.
    pub fn backoff_seconds(&self, retry: u32) -> f64 {
        let exp = retry.saturating_sub(1).min(52);
        (self.base_backoff_s * (1u64 << exp) as f64).min(self.max_backoff_s)
    }

    /// Runs `op` until it succeeds, fails non-transiently, or the attempt
    /// budget is exhausted. `is_transient` classifies errors; non-transient
    /// errors are returned immediately without consuming the budget.
    ///
    /// # Errors
    ///
    /// The last error observed, alongside the [`RetryLog`] either way.
    pub fn run<T, E>(
        &self,
        mut is_transient: impl FnMut(&E) -> bool,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> (Result<T, E>, RetryLog) {
        let mut log = RetryLog::default();
        let budget = self.max_attempts.max(1);
        loop {
            log.attempts += 1;
            match op() {
                Ok(v) => return (Ok(v), log),
                Err(e) => {
                    if !is_transient(&e) || log.attempts >= budget {
                        return (Err(e), log);
                    }
                    log.retries += 1;
                    log.backoff_seconds += self.backoff_seconds(log.retries);
                }
            }
        }
    }
}

/// Cumulative fault-tolerance counters of one execution layer (backend,
/// sharded dispatcher, session): what recovery cost, kept separate from the
/// simulated run statistics so recovered runs stay bit-identical to
/// fault-free ones in everything but these counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Transient faults absorbed by retrying.
    pub transient_retries: u64,
    /// Simulated seconds of retry backoff.
    pub backoff_seconds: f64,
    /// Permanent faults observed.
    pub permanent_faults: u64,
    /// Times an op was re-planned across the surviving devices.
    pub replans: u64,
    /// Times the device set degraded (a device was taken out of service).
    pub degradations: u64,
}

impl FaultStats {
    /// Folds the retries of one [`RetryPolicy::run`] into the counters.
    pub fn absorb(&mut self, log: &RetryLog) {
        self.transient_retries += u64::from(log.retries);
        self.backoff_seconds += log.backoff_seconds;
    }

    /// Merges another layer's counters into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.transient_retries += other.transient_retries;
        self.backoff_seconds += other.backoff_seconds;
        self.permanent_faults += other.permanent_faults;
        self.replans += other.replans;
        self.degradations += other.degradations;
    }

    /// Whether any fault-tolerance machinery fired at all.
    pub fn any(&self) -> bool {
        self.transient_retries > 0
            || self.permanent_faults > 0
            || self.replans > 0
            || self.degradations > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let cfg = FaultConfig::seeded(42).with_launch_fault_rate(0.3);
        let run = |cfg: &FaultConfig| {
            let mut inj = FaultInjector::new(cfg.clone());
            (0..64)
                .map(|_| inj.check_launch().is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&cfg), run(&cfg));
        let other = FaultConfig::seeded(43).with_launch_fault_rate(0.3);
        assert_ne!(run(&cfg), run(&other));
        // The empirical rate lands in the right ballpark.
        let faults = run(&cfg).iter().filter(|&&f| f).count();
        assert!((5..=30).contains(&faults), "{faults} faults");
    }

    #[test]
    fn permanent_budget_kills_launches_forever() {
        let cfg = FaultConfig::seeded(1).with_permanent_after_launches(3);
        let mut inj = FaultInjector::new(cfg);
        for _ in 0..3 {
            assert!(inj.check_launch().is_ok());
        }
        for _ in 0..4 {
            let err = inj.check_launch().unwrap_err();
            assert_eq!(err.kind, FaultKind::Permanent);
        }
        // Transfers stay up: memory is still readable for rescue gathers.
        assert!(inj.check_transfer().is_ok());
    }

    #[test]
    fn stuck_tiles_are_reported() {
        let inj = FaultInjector::new(FaultConfig::seeded(0).with_stuck_tiles(vec![2, 5]));
        assert!(inj.tile_stuck(2));
        assert!(inj.tile_stuck(5));
        assert!(!inj.tile_stuck(0));
    }

    #[test]
    fn retry_policy_backs_off_exponentially_with_cap() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_s: 1e-4,
            max_backoff_s: 4e-4,
        };
        assert_eq!(p.backoff_seconds(1), 1e-4);
        assert_eq!(p.backoff_seconds(2), 2e-4);
        assert_eq!(p.backoff_seconds(3), 4e-4);
        assert_eq!(p.backoff_seconds(4), 4e-4); // capped
    }

    #[test]
    fn retry_run_retries_transient_until_budget() {
        let p = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        };
        // Succeeds on the third attempt.
        let mut left = 2;
        let (out, log) = p.run(
            |_e: &&str| true,
            || {
                if left > 0 {
                    left -= 1;
                    Err("transient")
                } else {
                    Ok(7)
                }
            },
        );
        assert_eq!(out.unwrap(), 7);
        assert_eq!(log.attempts, 3);
        assert_eq!(log.retries, 2);
        assert!(log.backoff_seconds > 0.0);
        // Budget exhaustion returns the last error.
        let (out, log) = p.run(|_e: &&str| true, || Err::<(), _>("still down"));
        assert!(out.is_err());
        assert_eq!(log.attempts, 4);
        // Permanent errors never consume the budget.
        let (out, log) = p.run(|_e: &&str| false, || Err::<(), _>("dead"));
        assert!(out.is_err());
        assert_eq!(log.attempts, 1);
        assert_eq!(log.retries, 0);
    }

    #[test]
    fn any_enabled_reflects_configured_classes() {
        assert!(!FaultConfig::seeded(9).any_enabled());
        assert!(FaultConfig::seeded(9)
            .with_launch_fault_rate(0.1)
            .any_enabled());
        assert!(FaultConfig::seeded(9)
            .with_stuck_tiles(vec![0])
            .any_enabled());
        assert!(FaultConfig::seeded(9)
            .with_permanent_after_launches(0)
            .any_enabled());
    }
}
