//! Recorded command batches.
//!
//! A [`CommandStream`] records device commands instead of executing them
//! eagerly; the device's `sync` entry point (`UpmemSystem::sync`,
//! `CrossbarAccelerator::sync`) validates the whole batch, draws its fault
//! decisions and then applies the commands **in program order**, each through
//! the body its eager method runs. Order is the recording order, so results
//! and statistics equal the eager call sequence by construction; parallelism
//! lives inside a command (see [`PoolHandle::for_each_band_mut`]).
//!
//! [`hazard_deps`], [`Access`] and [`BufferId`] are what is left of the
//! RAW/WAR/WAW scheduler that used to run batches as a DAG. Nothing in the
//! workspace calls them: they are retained only because
//! `benchmark/src/workloads/probes.rs` times [`hazard_deps`] for its
//! `runtime.hazard_deps_us` row, and go when that probe does (ROADMAP
//! item 1(d)).
//!
//! [`PoolHandle::for_each_band_mut`]: crate::PoolHandle::for_each_band_mut

/// Identifier of a device buffer (matches `upmem_sim::BufferId`). Retained
/// for the benchmark's [`hazard_deps`] probe only.
pub type BufferId = u32;

/// The read/write sets of one command. Retained for the benchmark's
/// [`hazard_deps`] probe only.
#[derive(Debug, Clone, Default)]
pub struct Access {
    /// Buffers the command reads.
    pub reads: Vec<BufferId>,
    /// Buffers the command writes.
    pub writes: Vec<BufferId>,
}

/// An ordered record of device commands awaiting execution.
///
/// `enqueue` records a command and returns its index; the device's `sync`
/// entry point (e.g. `UpmemSystem::sync`) drains the stream, applies it in
/// enqueue order, and returns one output per command in that order.
#[derive(Debug, Default)]
pub struct CommandStream<C> {
    commands: Vec<C>,
}

impl<C> CommandStream<C> {
    /// Creates an empty stream.
    pub fn new() -> Self {
        CommandStream {
            commands: Vec::new(),
        }
    }

    /// Creates an empty stream with room for `commands` commands, so
    /// recording a batch of known size allocates once.
    pub fn with_capacity(commands: usize) -> Self {
        CommandStream {
            commands: Vec::with_capacity(commands),
        }
    }

    /// Records a command, returning its index (the position of its output in
    /// the `sync` result).
    pub fn enqueue(&mut self, command: C) -> usize {
        self.commands.push(command);
        self.commands.len() - 1
    }

    /// Number of recorded commands.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// The recorded commands, in enqueue order.
    pub fn commands(&self) -> &[C] {
        &self.commands
    }

    /// Drains the recorded commands (the stream can be reused afterwards).
    pub fn take_commands(&mut self) -> Vec<C> {
        std::mem::take(&mut self.commands)
    }
}

/// Builds the dependency lists of a recorded program: `deps[i]` holds the
/// indices of earlier commands that must complete before command `i` may
/// start — a read depends on the most recent writer of the buffer (RAW), a
/// write on the most recent writer (WAW) and on every read issued since
/// (WAR). Retained for the benchmark's `runtime.hazard_deps_us` probe only
/// (see the module documentation).
pub fn hazard_deps(accesses: &[Access]) -> Vec<Vec<usize>> {
    use std::collections::HashMap;

    #[derive(Default)]
    struct BufState {
        last_writer: Option<usize>,
        readers_since_write: Vec<usize>,
    }

    let mut bufs: HashMap<BufferId, BufState> = HashMap::new();
    let mut deps = Vec::with_capacity(accesses.len());
    for (i, access) in accesses.iter().enumerate() {
        let mut d: Vec<usize> = Vec::new();
        for b in &access.reads {
            if let Some(w) = bufs.get(b).and_then(|s| s.last_writer) {
                d.push(w); // RAW
            }
        }
        for b in &access.writes {
            if let Some(state) = bufs.get(b) {
                if let Some(w) = state.last_writer {
                    d.push(w); // WAW
                }
                d.extend(state.readers_since_write.iter().copied()); // WAR
            }
        }
        d.retain(|&j| j != i);
        d.sort_unstable();
        d.dedup();
        for b in &access.reads {
            bufs.entry(*b).or_default().readers_since_write.push(i);
        }
        for b in &access.writes {
            let state = bufs.entry(*b).or_default();
            state.last_writer = Some(i);
            state.readers_since_write.clear();
        }
        deps.push(d);
    }
    deps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(reads: &[BufferId], writes: &[BufferId]) -> Access {
        Access {
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        }
    }

    #[test]
    fn hazards_build_raw_war_waw_edges() {
        // 0: write A      (scatter)
        // 1: write B      (scatter, independent of 0)
        // 2: read A,B write C   (launch: RAW on 0 and 1)
        // 3: read C       (gather: RAW on 2)
        // 4: write A      (scatter: WAR on 2, WAW on 0)
        // 5: read A write A     (aliased launch: RAW/WAW on 4)
        let deps = hazard_deps(&[
            cmd(&[], &[0]),
            cmd(&[], &[1]),
            cmd(&[0, 1], &[2]),
            cmd(&[2], &[]),
            cmd(&[], &[0]),
            cmd(&[0], &[0]),
        ]);
        assert_eq!(deps[0], Vec::<usize>::new());
        assert_eq!(deps[1], Vec::<usize>::new());
        assert_eq!(deps[2], vec![0, 1]);
        assert_eq!(deps[3], vec![2]);
        assert_eq!(deps[4], vec![0, 2]);
        assert_eq!(deps[5], vec![4]);
    }

    #[test]
    fn two_readers_share_no_edge_but_order_against_writes() {
        let deps = hazard_deps(&[
            cmd(&[], &[7]), // 0: write
            cmd(&[7], &[]), // 1: read
            cmd(&[7], &[]), // 2: read (no edge to 1)
            cmd(&[], &[7]), // 3: write: WAR on both readers, WAW on 0
        ]);
        assert_eq!(deps[1], vec![0]);
        assert_eq!(deps[2], vec![0]);
        assert_eq!(deps[3], vec![0, 1, 2]);
    }
}
