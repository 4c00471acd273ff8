//! The session's graph optimizer: common-subexpression elimination, dead-code
//! elimination and element-wise fusion, run directly over the recorded graph.
//!
//! [`Session`](crate::session::Session) optimizes on every plan-cache miss,
//! over the canonical ops `canonicalize` produced: slots renamed in first-use
//! order, so every slot is a graph input or the output of exactly one earlier
//! op. A [`Graph`] holds per-slot scratch only, cleared and refilled by every
//! call; nothing of a call's result is kept.
//!
//! 1. **CSE + DCE** ([`Graph::eliminate`]). An op with the kind and the
//!    (renamed) inputs of an earlier surviving op is a duplicate: its readers
//!    read the earlier op's output instead, and it is erased unless its own
//!    output is observed (not `discard`ed), in which case it still runs to
//!    fill its slot. Then every op whose output is discarded and read by no
//!    surviving op is erased — a dead chain all at once.
//! 2. **Placement annotation** is the session's (it owns placement): it
//!    names the surviving binary element-wise ops that stay in a UPMEM
//!    segment. Only those may fuse.
//! 3. **Element-wise fusion** ([`Graph::fuse`]) groups them into
//!    multi-stage `FusedElementwise` launches by one greedy rule. A *unit*
//!    is a fusable op or a group already formed:
//!    * sweep the units in program order until a sweep changes nothing;
//!    * a unit first chains into the producer of one of its operands, tried
//!      in operand order, otherwise it merges into the nearest earlier unit —
//!      the first legal merge wins;
//!    * the group takes the earlier unit's place (so a group formed in one
//!      sweep is first visited by the next);
//!    * a merge is legal when the group has at most
//!      [`upmem_sim::MAX_FUSED_STAGES`] stages and at most four distinct
//!      external operands, both units have the same `len`, and every operand
//!      of the later unit that is not a result of the earlier one is defined
//!      before the earlier one.

use std::ops::Range;

use cinm_lowering::cnm_op::CnmOp;
use upmem_sim::{BinOp, FusedArg, FusedStage, MAX_FUSED_STAGES};

use crate::session::OpNode;

/// Distinct external operands of one fused group: the simulator's
/// per-kernel input limit.
pub(crate) const MAX_FUSED_EXTERNALS: usize = 4;

/// One schedule item of an optimized graph.
pub(crate) enum SchedItem {
    /// Lower `ops[i]` through the standard per-op path.
    Plain(usize),
    /// Lower a fused element-wise group: `ops` indexes the flattened
    /// per-stage nodes, `stages`/`externals` describe the fused kernel.
    Fused {
        ops: Range<usize>,
        stages: Vec<FusedStage>,
        externals: Vec<u32>,
    },
}

/// A fusion unit: one surviving op, or a group of fused element-wise ops.
#[derive(Debug, Clone, Copy)]
struct Unit {
    /// Whether the unit may merge (a fusable op, or a group), and the
    /// element count of its stages.
    fusable: bool,
    len: usize,
    /// Stage `s` is recorded op `nodes[s]`, computed as `stages[s]`. A unit
    /// that may not merge has its one op and a placeholder stage.
    nodes: [OpNode; MAX_FUSED_STAGES],
    stages: [FusedStage; MAX_FUSED_STAGES],
    n_stages: u8,
    /// `FusedArg::Input(i)` reads slot `externals[i]`.
    externals: [u32; MAX_FUSED_EXTERNALS],
    n_externals: u8,
}

impl Unit {
    fn new(node: OpNode, fusable: bool) -> Self {
        let (fusable, op, len) = match node.kind {
            CnmOp::Elementwise { op, len } if fusable => (true, op, len),
            _ => (false, BinOp::Add, 0),
        };
        let mut externals = [0; MAX_FUSED_EXTERNALS];
        externals[..node.inputs().len()].copy_from_slice(node.inputs());
        let stage = FusedStage {
            op,
            lhs: FusedArg::Input(0),
            rhs: FusedArg::Input(1),
        };
        Unit {
            fusable,
            len,
            nodes: [node; MAX_FUSED_STAGES],
            stages: [stage; MAX_FUSED_STAGES],
            n_stages: 1,
            externals,
            n_externals: node.n_inputs,
        }
    }

    fn nodes(&self) -> &[OpNode] {
        &self.nodes[..self.n_stages as usize]
    }

    fn stages(&self) -> &[FusedStage] {
        &self.stages[..self.n_stages as usize]
    }

    /// The stage of this unit that writes slot `v`.
    fn stage_writing(&self, v: u32) -> Option<usize> {
        self.nodes().iter().position(|n| n.output == v)
    }

    fn externals(&self) -> &[u32] {
        &self.externals[..self.n_externals as usize]
    }

    /// The index of slot `v` among the group's externals, appended if new;
    /// `None` past the cap.
    fn intern(&mut self, v: u32) -> Option<u8> {
        let n = self.n_externals as usize;
        let i = self.externals[..n]
            .iter()
            .position(|&e| e == v)
            .unwrap_or(n);
        if i == MAX_FUSED_EXTERNALS {
            return None;
        }
        if i == n {
            self.externals[n] = v;
            self.n_externals += 1;
        }
        Some(i as u8)
    }
}

/// The group `units[at]` and the later unit `second` merge into, placed at
/// `at`, or `None` when the rule (module doc) forbids the merge. `first`'s
/// stages come first; an operand of `second` that `first` produces becomes a
/// stage reference.
fn merge(units: &[Unit], at: usize, second: &Unit) -> Option<Unit> {
    let first = &units[at];
    let n1 = first.n_stages as usize;
    let n = n1 + second.n_stages as usize;
    if !first.fusable || first.len != second.len || n > MAX_FUSED_STAGES {
        return None;
    }
    let mut group = Unit {
        n_stages: n as u8,
        n_externals: 0,
        ..*first
    };
    let mut first_map = [0u8; MAX_FUSED_EXTERNALS];
    for (i, &v) in first.externals().iter().enumerate() {
        first_map[i] = group.intern(v)?;
    }
    let mut second_map = [FusedArg::Input(0); MAX_FUSED_EXTERNALS];
    for (i, &v) in second.externals().iter().enumerate() {
        second_map[i] = match first.stage_writing(v) {
            Some(k) => FusedArg::Stage(k as u8),
            // Hoisted to `at`, `second` must still read only defined slots.
            None if units[at..].iter().any(|u| u.stage_writing(v).is_some()) => return None,
            None => FusedArg::Input(group.intern(v)?),
        };
    }
    for st in &mut group.stages[..n1] {
        for arg in [&mut st.lhs, &mut st.rhs] {
            if let FusedArg::Input(i) = *arg {
                *arg = FusedArg::Input(first_map[i as usize]);
            }
        }
    }
    let shift = |arg| match arg {
        FusedArg::Input(i) => second_map[i as usize],
        FusedArg::Stage(k) => FusedArg::Stage(k + n1 as u8),
    };
    for (j, st) in second.stages().iter().enumerate() {
        group.stages[n1 + j] = FusedStage {
            op: st.op,
            lhs: shift(st.lhs),
            rhs: shift(st.rhs),
        };
        group.nodes[n1 + j] = second.nodes[j];
    }
    Some(group)
}

/// The scratch of the graph optimizer (module doc), kept between calls so a
/// cold run pays for the graph it optimizes and not for the optimizer.
#[derive(Debug, Default)]
pub(crate) struct Graph {
    /// Per slot: the slot its readers read after CSE.
    rep: Vec<u32>,
    /// Per slot: whether a surviving op reads it (DCE).
    read: Vec<bool>,
    /// Per recorded op: its node with renamed inputs, and whether it
    /// survives.
    renamed: Vec<OpNode>,
    alive: Vec<bool>,
    /// The surviving ops, in program order.
    ops: Vec<OpNode>,
    units: Vec<Unit>,
}

impl Graph {
    /// CSE, then DCE, over `canon` (one discard flag per op, `n_slots`
    /// canonical slots). Returns the output slots of the eliminated ops in
    /// program order and leaves the survivors in [`ops`](Graph::ops).
    pub(crate) fn eliminate(
        &mut self,
        canon: &[OpNode],
        discards: &[bool],
        n_slots: usize,
    ) -> Vec<u32> {
        self.rep.clear();
        self.rep.extend(0..n_slots as u32);
        self.renamed.clear();
        self.alive.clear();
        for (op, &discarded) in canon.iter().zip(discards) {
            let mut node = OpNode {
                inputs: [0; 3],
                ..*op
            };
            for (to, &from) in node.inputs.iter_mut().zip(op.inputs()) {
                *to = self.rep[from as usize];
            }
            let twin = self
                .renamed
                .iter()
                .zip(&self.alive)
                .find(|&(o, &alive)| alive && o.kind == node.kind && o.inputs() == node.inputs())
                .map(|(o, _)| o.output);
            self.rep[op.output as usize] = twin.unwrap_or(op.output);
            self.alive.push(twin.is_none() || !discarded);
            self.renamed.push(node);
        }
        // Back to front: every reader of an op comes after it.
        self.read.clear();
        self.read.resize(n_slots, false);
        for (i, node) in self.renamed.iter().enumerate().rev() {
            if discards[i] && !self.read[node.output as usize] {
                self.alive[i] = false;
            }
            if self.alive[i] {
                for &inp in node.inputs() {
                    self.read[inp as usize] = true;
                }
            }
        }
        self.ops.clear();
        let survivors = self.renamed.iter().zip(&self.alive);
        self.ops
            .extend(survivors.filter(|&(_, &alive)| alive).map(|(o, _)| *o));
        canon
            .iter()
            .zip(&self.alive)
            .filter(|&(_, &alive)| !alive)
            .map(|(o, _)| o.output)
            .collect()
    }

    /// The ops that survived [`eliminate`](Graph::eliminate), in program
    /// order, their inputs renamed by CSE.
    pub(crate) fn ops(&self) -> &[OpNode] {
        &self.ops
    }

    /// Fuses the surviving ops (`fusable[i]` for `ops()[i]`: a binary
    /// element-wise op left in a UPMEM segment) by the module's rule.
    /// Returns the ops in schedule order — a group flattened to one node per
    /// stage — and the lowering schedule over them.
    pub(crate) fn fuse(&mut self, fusable: &[bool]) -> (Vec<OpNode>, Vec<SchedItem>) {
        self.units.clear();
        let units = self.ops.iter().zip(fusable);
        self.units
            .extend(units.map(|(&node, &fusable)| Unit::new(node, fusable)));
        let mut changed = true;
        while changed {
            changed = false;
            let mut i = 0;
            while i < self.units.len() {
                match self.merge_at(i) {
                    Some((at, group)) => {
                        self.units[at] = group;
                        self.units.remove(i);
                        changed = true;
                    }
                    None => i += 1,
                }
            }
        }

        let mut ops = Vec::with_capacity(self.ops.len());
        let mut sched = Vec::with_capacity(self.units.len());
        for unit in &self.units {
            let start = ops.len();
            ops.extend_from_slice(unit.nodes());
            sched.push(match unit.n_stages {
                1 => SchedItem::Plain(start),
                _ => SchedItem::Fused {
                    ops: start..ops.len(),
                    stages: unit.stages().to_vec(),
                    externals: unit.externals().to_vec(),
                },
            });
        }
        (ops, sched)
    }

    /// The merge unit `i` makes, if any: into the producer of one of its
    /// operands, else into the nearest earlier unit. Returns the position
    /// of the earlier unit and the group that replaces it.
    fn merge_at(&self, i: usize) -> Option<(usize, Unit)> {
        let unit = &self.units[i];
        if !unit.fusable {
            return None;
        }
        let into = |at: usize| merge(&self.units, at, unit).map(|group| (at, group));
        let producer = |v| {
            self.units[..i]
                .iter()
                .position(|u| u.stage_writing(v).is_some())
        };
        unit.externals()
            .iter()
            .find_map(|&v| into(producer(v)?))
            .or_else(|| (0..i).rev().find_map(into))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: CnmOp, inputs: &[u32], output: u32) -> OpNode {
        let mut node = OpNode {
            kind,
            inputs: [0; 3],
            n_inputs: inputs.len() as u8,
            output,
        };
        node.inputs[..inputs.len()].copy_from_slice(inputs);
        node
    }

    fn ew(bin: BinOp, len: usize, a: u32, b: u32, output: u32) -> OpNode {
        op(CnmOp::Elementwise { op: bin, len }, &[a, b], output)
    }

    /// Runs the optimizer over `canon` with every element-wise survivor
    /// fusable (`slots` canonical slots, `discarded` output slots).
    fn optimize(
        canon: &[OpNode],
        discarded: &[u32],
        slots: usize,
    ) -> (Vec<u32>, Vec<OpNode>, Vec<SchedItem>) {
        let discards: Vec<bool> = canon
            .iter()
            .map(|o| discarded.contains(&o.output))
            .collect();
        let mut graph = Graph::default();
        let eliminated = graph.eliminate(canon, &discards, slots);
        let fusable: Vec<bool> = graph
            .ops()
            .iter()
            .map(|o| matches!(o.kind, CnmOp::Elementwise { .. }))
            .collect();
        let (ops, sched) = graph.fuse(&fusable);
        (eliminated, ops, sched)
    }

    /// The fused groups of a schedule: (ops range, stages, externals).
    fn groups(sched: &[SchedItem]) -> Vec<(Range<usize>, &[FusedStage], &[u32])> {
        sched
            .iter()
            .filter_map(|item| match item {
                SchedItem::Fused {
                    ops,
                    stages,
                    externals,
                } => Some((ops.clone(), &stages[..], &externals[..])),
                SchedItem::Plain(_) => None,
            })
            .collect()
    }

    /// The BFS epilogue shape: `nv = xor(visited, ones); fresh = and(raw,
    /// nv); vnext = or(visited, raw)` fuses into one three-stage group with
    /// three deduplicated external inputs.
    #[test]
    fn bfs_epilogue_fuses_into_one_group() {
        let (visited, ones, raw) = (0, 1, 2);
        let canon = [
            ew(BinOp::Xor, 8, visited, ones, 3),
            ew(BinOp::And, 8, raw, 3, 4),
            ew(BinOp::Or, 8, visited, raw, 5),
            op(
                CnmOp::Reduce {
                    op: BinOp::Add,
                    len: 8,
                },
                &[4],
                6,
            ),
        ];
        let (eliminated, ops, sched) = optimize(&canon, &[], 7);
        assert!(eliminated.is_empty());
        let groups = groups(&sched);
        assert_eq!(groups.len(), 1, "expected a single fused group");
        let (range, stages, externals) = &groups[0];
        assert_eq!(*range, 0..3);
        assert_eq!(*externals, [visited, ones, raw]);
        use FusedArg::{Input, Stage};
        let stage = |op, lhs, rhs| FusedStage { op, lhs, rhs };
        assert_eq!(
            *stages,
            [
                stage(BinOp::Xor, Input(0), Input(1)),
                stage(BinOp::And, Input(2), Stage(0)),
                stage(BinOp::Or, Input(0), Input(2)),
            ]
        );
        // Flattened, the group is the three recorded ops; the reduce still
        // reads `fresh` and runs after it.
        assert_eq!(ops[..3], canon[..3]);
        assert!(matches!(sched[1], SchedItem::Plain(3)));
        assert_eq!(ops[3], canon[3]);
    }

    /// A five-op chain overflows the stage cap: four stages fuse, the fifth
    /// op survives as a plain consumer of the group.
    #[test]
    fn stage_cap_splits_long_chains() {
        let (x, y) = (0, 1);
        let canon: Vec<OpNode> = (0..5)
            .map(|i| ew(BinOp::Add, 4, if i == 0 { x } else { 1 + i }, y, 2 + i))
            .collect();
        let (_, ops, sched) = optimize(&canon, &[], 7);
        let groups = groups(&sched);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1.len(), MAX_FUSED_STAGES);
        assert_eq!(sched.len(), 2);
        assert!(matches!(sched[1], SchedItem::Plain(4)));
        assert_eq!(ops, canon);
    }

    /// Ops whose lengths differ never merge, and a consumer whose other
    /// operand is defined *after* the producer cannot chain into it.
    #[test]
    fn illegal_merges_are_rejected() {
        let (a, b, c, d, m) = (0, 1, 2, 3, 4);
        let canon = [
            ew(BinOp::Add, 8, a, b, 5),
            // Length-4 op between the two length-8 ops: incompatible.
            ew(BinOp::Mul, 4, c, d, 6),
            // A non-fusable producer defined after the first op.
            op(CnmOp::Gemv { rows: 8, cols: 4 }, &[m, 6], 7),
            // Consumer of both: fusing into the first op would hoist it
            // above its other operand.
            ew(BinOp::Sub, 8, 5, 7, 8),
        ];
        let (_, ops, sched) = optimize(&canon, &[], 9);
        assert!(groups(&sched).is_empty());
        assert_eq!(ops, canon);
    }

    #[test]
    fn cse_redirects_and_erases_duplicates() {
        let (x, y) = (0, 1);
        let canon = [
            ew(BinOp::Add, 4, x, y, 2),
            // A discarded twin: erased, its reader redirected.
            ew(BinOp::Add, 4, x, y, 3),
            // Operands swapped: not a twin.
            ew(BinOp::Add, 4, y, x, 4),
            op(CnmOp::Gemv { rows: 4, cols: 4 }, &[3, 4], 5),
        ];
        let mut graph = Graph::default();
        let eliminated = graph.eliminate(&canon, &[false, true, false, false], 6);
        assert_eq!(eliminated, [3]);
        assert_eq!(
            graph.ops(),
            [canon[0], canon[2], op(canon[3].kind, &[2, 4], 5)]
        );
    }

    #[test]
    fn cse_keeps_live_out_duplicates_but_rewires_uses() {
        let (x, y) = (0, 1);
        let canon = [
            ew(BinOp::Add, 4, x, y, 2),
            // An observed twin: it still fills its own slot.
            ew(BinOp::Add, 4, x, y, 3),
            op(
                CnmOp::Reduce {
                    op: BinOp::Add,
                    len: 4,
                },
                &[3],
                4,
            ),
        ];
        let mut graph = Graph::default();
        let eliminated = graph.eliminate(&canon, &[false; 3], 5);
        assert!(eliminated.is_empty());
        // Both adds survive, but the downstream reader reads the first.
        assert_eq!(
            graph.ops(),
            [canon[0], canon[1], op(canon[2].kind, &[2], 4)]
        );
    }

    #[test]
    fn dce_erases_dead_chains_but_keeps_observed_ops() {
        let x = 0;
        let canon = [
            ew(BinOp::Add, 4, x, x, 1),
            // Dead chain: reads the first op, nothing reads it.
            ew(BinOp::Mul, 4, 1, x, 2),
            ew(BinOp::Sub, 4, x, x, 3),
        ];
        let mut graph = Graph::default();
        let eliminated = graph.eliminate(&canon, &[true, true, false], 4);
        assert_eq!(eliminated, [1, 2]);
        assert_eq!(graph.ops(), [canon[2]]);
        // A discarded op somebody observed reading survives.
        let eliminated = graph.eliminate(&canon, &[true, false, true], 4);
        assert_eq!(eliminated, [3]);
        assert_eq!(graph.ops(), &canon[..2]);
    }
}
