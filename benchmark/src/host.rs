//! What the benchmark knows about the host it runs on: memory, steal, and
//! whether the host is, right now, as fast as it gets.
//!
//! A shared host has spells, lasting a few seconds to half a minute, in which
//! everything runs 1.2-1.6 times slower (a co-tenant on the sibling hardware
//! thread). No statistic over the samples of a run can tell a run that lay
//! entirely inside such a spell from a slower program. A reference kernel
//! read beside every sample can: its own time rises in step with the spell
//! (measured here: 6.6 us quiet; 8.4, 9.4 and 10.5 us in spells that slowed
//! `session_cold` by 1.15, 1.6 and 1.5). The [`Gauge`] groups its readings
//! into blocks of a quarter of a second, calls a block *quiet* when its level
//! is within 5% of the lowest level the run has seen, and only samples from
//! quiet blocks enter a reported time.
//!
//! What the gauge cannot see is where the scheduler puts the threads of the
//! program under test; [`pin_to_current_cpu`] takes that choice away.

use std::time::Instant;

/// A block closes once it is this old.
const BLOCK_SECONDS: f64 = 0.25;
/// A block is quiet when its level is within this factor of the lowest.
const QUIET_TOLERANCE: f64 = 1.05;

/// Pins this thread, and with it every thread it spawns from now on, to the
/// CPU it is running on; returns that CPU, or `None` where that cannot be
/// done (the run then goes on unpinned).
///
/// `cinm_runtime::WorkerPool` has at least one worker thread, and a sharded
/// dispatch hands it a task per op. Left to the scheduler, the worker wakes
/// now on the caller's CPU and now on the other one, which on a virtual
/// machine costs an inter-processor interrupt served by the hypervisor and
/// runs the task on a cold cache: `session_cold` measured 41.2 us per op
/// (median of batches 44) with the worker beside the caller and 44.8
/// (median 64) with it on the other CPU, and which of the two a run gets
/// depends on what else the machine is doing. On one CPU there is one mode,
/// and the other CPU stays free for the OS.
pub fn pin_to_current_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        // std links the C library on Linux; these two are all this crate
        // needs of it, so it stays free of dependencies.
        extern "C" {
            fn sched_getcpu() -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        /// 1024 CPUs, the size of glibc's `cpu_set_t`.
        const WORDS: usize = 16;
        // SAFETY: `sched_getcpu` takes no arguments and returns -1 on failure.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
        let mut mask = [0u64; WORDS];
        *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
        // SAFETY: `mask` is `WORDS * 8` readable bytes; pid 0 is the caller.
        let rc = unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) };
        (rc == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// Share of CPU time stolen by the hypervisor since `before`, in percent.
pub fn steal_pct_since(before: (u64, u64)) -> f64 {
    let (steal, total) = cpu_jiffies();
    let dt = total.saturating_sub(before.1);
    if dt == 0 {
        0.0
    } else {
        100.0 * steal.saturating_sub(before.0) as f64 / dt as f64
    }
}

/// Index of a closed block of gauge readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockId(usize);

pub struct Gauge {
    /// Working set of the reference kernel: 16 KB, resident in L1.
    buf: Vec<u64>,
    /// Readings of the open block, in microseconds.
    open: Vec<f64>,
    opened: Instant,
    /// Level of every closed block.
    levels: Vec<f64>,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge {
            buf: (0..2048).collect(),
            open: Vec::with_capacity(4096),
            opened: Instant::now(),
            levels: Vec::with_capacity(1024),
        }
    }

    /// One run of the reference kernel: four independent integer chains with
    /// loads and stores, about 6.6 us here. It keeps the core's issue ports
    /// busy, so it slows with a busy sibling thread as real code does (a
    /// single dependent chain barely notices one).
    fn kernel(&mut self) -> u64 {
        let buf = &mut self.buf[..];
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for _ in 0..8 {
            for i in (0..buf.len()).step_by(4) {
                a = a.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(buf[i]);
                b = (b ^ buf[i + 1]).rotate_left(7);
                c = c.wrapping_add(buf[i + 2] >> 3);
                d = d.wrapping_mul(3).wrapping_add(buf[i + 3]);
                buf[i] = a ^ d;
                buf[i + 2] = b.wrapping_add(c);
            }
        }
        a ^ b ^ c ^ d
    }

    /// Takes `reads` readings into the open block.
    pub fn read(&mut self, reads: usize) {
        for _ in 0..reads {
            let start = Instant::now();
            std::hint::black_box(self.kernel());
            self.open.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }

    /// The block the next closing will produce.
    pub fn open_block(&self) -> BlockId {
        BlockId(self.levels.len())
    }

    /// Closes the open block if it is old enough (or `force`d) and has
    /// readings. Its level is the 10th percentile of its readings: single
    /// readings are hit by millisecond bursts, a spell lifts all of them.
    pub fn close_if_due(&mut self, force: bool) -> bool {
        let due = force || self.opened.elapsed().as_secs_f64() >= BLOCK_SECONDS;
        if !due || self.open.is_empty() {
            return false;
        }
        self.levels.push(crate::stats::percentile(&self.open, 10.0));
        self.open.clear();
        self.opened = Instant::now();
        true
    }

    /// The lowest block level of the run so far, in microseconds.
    pub fn quiet_level(&self) -> f64 {
        self.levels.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Whether a closed block was read while the host was as fast as this run
    /// has seen it. A block still open counts as not quiet.
    pub fn is_quiet(&self, block: BlockId) -> bool {
        self.levels
            .get(block.0)
            .is_some_and(|&level| level <= QUIET_TOLERANCE * self.quiet_level())
    }

    #[cfg(test)]
    pub fn with_levels(levels: &[f64]) -> Self {
        let mut g = Gauge::new();
        g.levels = levels.to_vec();
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_within_five_percent_of_the_lowest_level_are_quiet() {
        let g = Gauge::with_levels(&[9.4, 9.3, 6.6, 6.7, 6.95, 8.4]);
        let quiet: Vec<bool> = (0..6).map(|b| g.is_quiet(BlockId(b))).collect();
        assert_eq!(quiet, [false, false, true, true, false, false]);
        assert_eq!(g.quiet_level(), 6.6);
        assert!(
            !g.is_quiet(g.open_block()),
            "an open block is not quiet yet"
        );
    }

    #[test]
    fn a_block_closes_when_forced_and_takes_the_tenth_percentile() {
        let mut g = Gauge::new();
        assert!(!g.close_if_due(true), "nothing read yet");
        g.read(50);
        assert!(!g.close_if_due(false), "younger than a quarter second");
        let first = g.open_block();
        assert!(g.close_if_due(true));
        assert_ne!(g.open_block(), first);
        assert!(g.quiet_level() > 0.0 && g.quiet_level().is_finite());
        assert!(g.is_quiet(first));
    }

    #[test]
    fn proc_readers_return_something_sensible() {
        assert!(peak_rss_mb() > 0.5);
        let (steal, total) = cpu_jiffies();
        assert!(total > 0 && steal <= total);
        assert!((0.0..=100.0).contains(&steal_pct_since((steal, total))));
    }
}
