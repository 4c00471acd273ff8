//! What is left of the RAW/WAW/WAR scheduler that used to run recorded
//! command batches as a DAG: [`hazard_deps`], [`Access`] and [`BufferId`].
//! Nothing in the workspace calls them: they are retained only because
//! `benchmark/src/workloads/probes.rs` times [`hazard_deps`] for its
//! `runtime.hazard_deps_us` row, and go when that probe does (ROADMAP
//! item 1(d)).

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
