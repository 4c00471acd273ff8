//! Generic graph-optimisation patterns: common-subexpression elimination,
//! dead-code elimination, and element-wise fusion.
//!
//! These rewrites are the IR half of the session graph optimizer: a frontend
//! (e.g. the `cinm-core` session) records its lazy graph as ops in a single
//! block, annotates the ops that are legal to fuse with the `fuse.*`
//! attributes below, and runs these patterns through the standard
//! [`PassManager`](crate::pass::PassManager) /
//! [`PatternRewritePass`](crate::rewrite::PatternRewritePass) machinery.
//! The patterns themselves know nothing about devices or tensors — legality
//! is communicated entirely through attributes, so they work on any dialect.
//!
//! ## The fusion attribute contract
//!
//! A *fusable* op is a pure binary element-wise op (two operands, one
//! result) carrying:
//!
//! * [`ATTR_ELIGIBLE`] — presence marks the op as fusable at its placement;
//! * [`ATTR_CODE`] — integer opcode of the element-wise operation;
//! * [`ATTR_LEN`] — element count; only ops with equal lengths fuse;
//! * [`ATTR_TAG`] — opaque frontend tag (e.g. an output slot id), carried
//!   through fusion per stage so the frontend can map fused results back.
//!
//! Fusion rewrites groups of fusable ops into a single [`FUSED_OP`]
//! (`fuse.group`) op with one operand per distinct external input, one
//! result per constituent stage, and the stage dataflow encoded in the
//! [`ATTR_STAGES`] integer array (see [`stage_encoding`]).

use crate::attributes::{AttrMap, Attribute};
use crate::error::IrResult;
use crate::ir::{BlockId, Body, Func, OpId, ValueId, ValueKind};
use crate::pass::{Pass, PassResult};
use crate::rewrite::RewritePattern;

/// Marks an op as fusable (value: [`Attribute::Int`]`(1)`).
pub const ATTR_ELIGIBLE: &str = "fuse.eligible";
/// Integer opcode of a fusable element-wise op.
pub const ATTR_CODE: &str = "fuse.code";
/// Element count of a fusable op / fused group; lengths must match to fuse.
pub const ATTR_LEN: &str = "fuse.len";
/// Opaque frontend tag on a fusable op, carried per-stage into the group.
pub const ATTR_TAG: &str = "fuse.tag";
/// Per-stage dataflow of a fused group, five integers per stage.
pub const ATTR_STAGES: &str = "fuse.stages";
/// Per-stage frontend tags of a fused group.
pub const ATTR_TAGS: &str = "fuse.tags";
/// Marks an op whose results the frontend observes: CSE keeps the op and
/// DCE never erases it (value: [`Attribute::Int`]`(1)`).
pub const ATTR_LIVE_OUT: &str = "live_out";
/// Name of the fused element-wise group op produced by fusion.
pub const FUSED_OP: &str = "fuse.group";

/// Maximum number of stages in one fused group. Kept in sync with the
/// simulator's fused-kernel stage limit (`upmem_sim::MAX_FUSED_STAGES`);
/// downstream crates that depend on both assert the two are equal.
pub const MAX_FUSED_STAGES: usize = 4;
/// Maximum number of distinct external operands of one fused group,
/// mirroring the simulator's per-kernel input limit.
pub const MAX_FUSED_OPERANDS: usize = 4;

/// Stage-argument kind: the value is an external operand of the group
/// (paired integer indexes the group's operand list).
pub const ARG_INPUT: i64 = 0;
/// Stage-argument kind: the value is the result of an earlier stage
/// (paired integer indexes the group's stage list).
pub const ARG_STAGE: i64 = 1;

/// Documentation anchor for the [`ATTR_STAGES`] encoding.
///
/// Each stage occupies five consecutive integers:
/// `[code, lhs_kind, lhs_index, rhs_kind, rhs_index]`, where `code` is the
/// opcode from [`ATTR_CODE`] and each `(kind, index)` pair is either
/// `(`[`ARG_INPUT`]`, operand index)` or `(`[`ARG_STAGE`]`, earlier stage
/// index)`. Stage `s` produces the group's result `s`. Stage order is
/// dependency order: [`ARG_STAGE`] references only earlier stages.
pub mod stage_encoding {}

/// Number of integers encoding one stage in [`ATTR_STAGES`].
pub const STAGE_WORDS: usize = 5;

/// The stages of a fusable unit: the one implied stage of a plain op, or
/// the attribute arrays of an existing group, borrowed.
enum Stages<'a> {
    Plain {
        words: [i64; STAGE_WORDS],
        tag: [i64; 1],
    },
    Group {
        flat: &'a [i64],
        tags: &'a [i64],
    },
}

/// A fusable op or an existing fused group, normalised to stage form. A view
/// of the op: nothing of it is copied.
struct FusionUnit<'a> {
    op: OpId,
    len: i64,
    stages: Stages<'a>,
    operands: &'a [ValueId],
    results: &'a [ValueId],
}

impl FusionUnit<'_> {
    /// `[code, lhs_kind, lhs_index, rhs_kind, rhs_index]` per stage, with
    /// [`ARG_INPUT`] indices relative to `operands`.
    fn flat(&self) -> &[i64] {
        match &self.stages {
            Stages::Plain { words, .. } => words,
            Stages::Group { flat, .. } => flat,
        }
    }

    fn tags(&self) -> &[i64] {
        match &self.stages {
            Stages::Plain { tag, .. } => tag,
            Stages::Group { tags, .. } => tags,
        }
    }
}

/// Views `op` in stage form if it is fusable: either a binary element-wise
/// op carrying the `fuse.*` attributes, or a previously fused [`FUSED_OP`]
/// group. Most ops a pattern probes are neither, and cost two lookups.
fn unit_of(body: &Body, op: OpId) -> Option<FusionUnit<'_>> {
    let o = body.op(op);
    if !o.regions.is_empty() {
        return None;
    }
    let stages = if o.name == FUSED_OP {
        let flat = o.int_array_attr(ATTR_STAGES)?;
        let tags = o.int_array_attr(ATTR_TAGS)?;
        if flat.len() != tags.len() * STAGE_WORDS || o.results.len() != tags.len() {
            return None;
        }
        Stages::Group { flat, tags }
    } else {
        if !o.has_attr(ATTR_ELIGIBLE) || o.operands.len() != 2 || o.results.len() != 1 {
            return None;
        }
        Stages::Plain {
            words: [o.int_attr(ATTR_CODE)?, ARG_INPUT, 0, ARG_INPUT, 1],
            tag: [o.int_attr(ATTR_TAG).unwrap_or(-1)],
        }
    };
    Some(FusionUnit {
        op,
        len: o.int_attr(ATTR_LEN)?,
        stages,
        operands: &o.operands,
        results: &o.results,
    })
}

/// True if `v` is usable as an operand of an op inserted at `index` in
/// `block`: a block argument, or the result of an earlier op of the block.
fn defined_before(body: &Body, v: ValueId, block: BlockId, index: usize) -> bool {
    match body.value_kind(v) {
        ValueKind::BlockArg { .. } => true,
        ValueKind::OpResult { op, .. } => {
            body.op_block(op) == block && body.op_index_in_block(op) < index
        }
    }
}

/// A legal merge of two units, ready to be applied: the group op's pieces
/// (moved into it) and the ops it replaces.
struct Merge {
    block: BlockId,
    at: usize,
    ops: [OpId; 2],
    externals: Vec<ValueId>,
    old_results: Vec<ValueId>,
    attrs: AttrMap,
}

/// Plans the merge of two fusable units of `block` — `first` at position
/// `at`, `second` somewhere after it — into one [`FUSED_OP`] group placed at
/// `at`, or returns `None` if the merge is illegal (length mismatch,
/// stage/operand caps exceeded, or an operand of `second` not defined before
/// `first`). `second` may consume results of `first` (chain fusion) — those
/// operands become [`ARG_STAGE`] references; a pair with no such dataflow
/// merges too (independent roots sharing one launch). Nothing is allocated
/// before the merge is known to be legal.
fn plan_merge(
    body: &Body,
    block: BlockId,
    at: usize,
    first: &FusionUnit<'_>,
    second: &FusionUnit<'_>,
) -> Option<Merge> {
    if first.len != second.len {
        return None;
    }
    let n_stages = first.tags().len() + second.tags().len();
    if n_stages > MAX_FUSED_STAGES
        || first.operands.len() > MAX_FUSED_OPERANDS
        || second.operands.len() > MAX_FUSED_OPERANDS
    {
        return None;
    }

    // Combined deduplicated external operand list, and per-unit remappings
    // of old operand indices into it. A unit has at most
    // `MAX_FUSED_OPERANDS` operands, so both fit fixed arrays.
    let mut externals = [ValueId(0); 2 * MAX_FUSED_OPERANDS];
    let mut n_externals = 0;
    let mut external_index = |v: ValueId| -> i64 {
        let known = externals[..n_externals].iter().position(|&e| e == v);
        let i = known.unwrap_or_else(|| {
            externals[n_externals] = v;
            n_externals += 1;
            n_externals - 1
        });
        i as i64
    };
    let mut first_map = [0i64; MAX_FUSED_OPERANDS];
    for (slot, &v) in first_map.iter_mut().zip(first.operands) {
        *slot = external_index(v);
    }
    let mut second_map = [(ARG_INPUT, 0i64); MAX_FUSED_OPERANDS];
    for (slot, &v) in second_map.iter_mut().zip(second.operands) {
        *slot = if let Some(k) = first.results.iter().position(|&r| r == v) {
            // Chained operand: reads a stage of `first`.
            (ARG_STAGE, k as i64)
        } else {
            // Hoisting `second` to `first`'s position must not break SSA
            // dominance for its remaining operands.
            if !defined_before(body, v, block, at) {
                return None;
            }
            (ARG_INPUT, external_index(v))
        };
    }
    if n_externals > MAX_FUSED_OPERANDS {
        return None;
    }

    let mut flat: Vec<i64> = Vec::with_capacity(n_stages * STAGE_WORDS);
    for st in first.flat().chunks_exact(STAGE_WORDS) {
        flat.push(st[0]);
        for (kind, val) in [(st[1], st[2]), (st[3], st[4])] {
            if kind == ARG_INPUT {
                flat.extend([ARG_INPUT, *first_map.get(val as usize)?]);
            } else {
                flat.extend([ARG_STAGE, val]);
            }
        }
    }
    let offset = first.tags().len() as i64;
    for st in second.flat().chunks_exact(STAGE_WORDS) {
        flat.push(st[0]);
        for (kind, val) in [(st[1], st[2]), (st[3], st[4])] {
            if kind == ARG_INPUT {
                let (k, v) = *second_map.get(val as usize)?;
                flat.extend([k, v]);
            } else {
                flat.extend([ARG_STAGE, val + offset]);
            }
        }
    }
    let tags: Vec<i64> = first.tags().iter().chain(second.tags()).copied().collect();
    let mut attrs = AttrMap::new();
    attrs.insert(ATTR_STAGES, Attribute::IntArray(flat));
    attrs.insert(ATTR_TAGS, Attribute::IntArray(tags));
    attrs.insert(ATTR_LEN, Attribute::Int(first.len));
    Some(Merge {
        block,
        at,
        ops: [first.op, second.op],
        externals: externals[..n_externals].to_vec(),
        old_results: first
            .results
            .iter()
            .chain(second.results)
            .copied()
            .collect(),
        attrs,
    })
}

/// Applies a planned merge: inserts the group, replaces every old result by
/// the corresponding group result (result order: `first`'s stages, then
/// `second`'s) and erases both original ops.
fn apply_merge(body: &mut Body, merge: Merge) {
    let result_types = merge
        .old_results
        .iter()
        .map(|&r| body.value_type(r).clone())
        .collect();
    let group = body.insert_op(
        merge.block,
        merge.at,
        FUSED_OP,
        merge.externals,
        result_types,
        merge.attrs,
        vec![],
    );
    for (i, &old) in merge.old_results.iter().enumerate() {
        body.replace_all_uses(old, body.result(group, i));
    }
    for op in merge.ops {
        body.erase_op(op);
    }
}

/// Fuses a fusable op into the unit producing one of its operands.
///
/// Matching on the *consumer*, this folds producer→consumer chains (the
/// classic element-wise fusion: `xor` feeding `and` becomes one two-stage
/// group) and grows existing groups stage by stage until the stage or
/// operand cap is hit.
pub struct ElementwiseChainFusion;

impl RewritePattern for ElementwiseChainFusion {
    fn name(&self) -> &'static str {
        "fuse-elementwise-chain"
    }

    fn match_and_rewrite(&self, op: OpId, body: &mut Body) -> IrResult<bool> {
        let view: &Body = body;
        let Some(consumer) = unit_of(view, op) else {
            return Ok(false);
        };
        let block = view.op_block(op);
        let merge = consumer.operands.iter().find_map(|&v| {
            let p = view.defining_op(v)?;
            if view.op_block(p) != block {
                return None;
            }
            let producer = unit_of(view, p)?;
            let at = view.op_index_in_block(p);
            // The group takes the producer's place: the consumer must follow it.
            if at >= view.op_index_in_block(op) {
                return None;
            }
            plan_merge(view, block, at, &producer, &consumer)
        });
        let Some(merge) = merge else {
            return Ok(false);
        };
        apply_merge(body, merge);
        Ok(true)
    }
}

/// Merges a fusable op into the nearest earlier fusable unit of the block,
/// even without a producer→consumer edge, so independent same-length
/// element-wise ops share one launch. Dominance keeps it legal: the later
/// op only hoists if all its operands are defined before the earlier unit.
///
/// Ordered after [`ElementwiseChainFusion`] in a pattern set so true chains
/// fuse along their dataflow first.
pub struct ElementwiseRootMerge;

impl RewritePattern for ElementwiseRootMerge {
    fn name(&self) -> &'static str {
        "fuse-elementwise-roots"
    }

    fn match_and_rewrite(&self, op: OpId, body: &mut Body) -> IrResult<bool> {
        let view: &Body = body;
        let Some(second) = unit_of(view, op) else {
            return Ok(false);
        };
        let block = view.op_block(op);
        let earlier = &view.block_ops(block)[..view.op_index_in_block(op)];
        let merge = earlier.iter().enumerate().rev().find_map(|(at, &cand)| {
            let first = unit_of(view, cand)?;
            plan_merge(view, block, at, &first, &second)
        });
        let Some(merge) = merge else {
            return Ok(false);
        };
        apply_merge(body, merge);
        Ok(true)
    }
}

/// Common-subexpression elimination as a rewrite pattern.
///
/// An op is a duplicate of an earlier op in the same block if name,
/// operands and attributes all match — ignoring [`ATTR_TAG`],
/// [`ATTR_LIVE_OUT`] and any keys the frontend registers via
/// [`CsePattern::ignoring`] (bookkeeping attributes like output-slot ids
/// that differ between structurally identical ops). A duplicate's uses are
/// redirected to the first op; the duplicate itself is erased unless it
/// carries [`ATTR_LIVE_OUT`] (the frontend observes its result, which lives
/// in separate storage, so the op must still execute).
pub struct CsePattern {
    ignored: Vec<&'static str>,
}

impl Default for CsePattern {
    fn default() -> Self {
        Self::new()
    }
}

impl CsePattern {
    /// CSE ignoring only the built-in bookkeeping attributes.
    pub fn new() -> Self {
        CsePattern {
            ignored: Vec::new(),
        }
    }

    /// Adds frontend-specific attribute keys to ignore when comparing ops.
    pub fn ignoring<I>(keys: I) -> Self
    where
        I: IntoIterator<Item = &'static str>,
    {
        CsePattern {
            ignored: keys.into_iter().collect(),
        }
    }

    /// Whether two ops agree on every attribute CSE compares: both sorted
    /// lists walked once, in place.
    fn same_significant_attrs(&self, a: &AttrMap, b: &AttrMap) -> bool {
        let significant = |(k, _): &(&str, &Attribute)| {
            *k != ATTR_TAG && *k != ATTR_LIVE_OUT && !self.ignored.iter().any(|ig| ig == k)
        };
        a.iter()
            .filter(significant)
            .eq(b.iter().filter(significant))
    }
}

impl RewritePattern for CsePattern {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn match_and_rewrite(&self, op: OpId, body: &mut Body) -> IrResult<bool> {
        let o = body.op(op);
        if o.results.is_empty() || !o.regions.is_empty() {
            return Ok(false);
        }
        let block = body.op_block(op);
        let index = body.op_index_in_block(op);
        let found = body.block_ops(block)[..index]
            .iter()
            .copied()
            .find(|&cand| {
                let c = body.op(cand);
                c.name == o.name
                    && c.operands == o.operands
                    && c.results.len() == o.results.len()
                    && c.regions.is_empty()
                    && self.same_significant_attrs(&c.attrs, &o.attrs)
            });
        let Some(first) = found else {
            return Ok(false);
        };
        let live_out = o.has_attr(ATTR_LIVE_OUT);
        let n_results = o.results.len();
        if live_out && !o.results.iter().any(|&r| body.has_uses(r)) {
            // Already rewired on an earlier application; the op survives
            // only to produce its observed output. Nothing left to do.
            return Ok(false);
        }
        for i in 0..n_results {
            body.replace_all_uses(body.result(op, i), body.result(first, i));
        }
        if !live_out {
            body.erase_op(op);
        }
        Ok(true)
    }
}

/// Dead-code elimination: erases value-producing ops none of whose results
/// are used, unless they carry [`ATTR_LIVE_OUT`]. Runs to a fixpoint so
/// whole dead chains disappear. Ops without results (terminators) and ops
/// with regions are never touched.
pub struct DcePass;

impl Pass for DcePass {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run_on_func(&self, func: &mut Func) -> IrResult<PassResult> {
        let mut changed_any = false;
        loop {
            let mut changed = false;
            for op in func.body.walk() {
                if !func.body.is_live(op) {
                    continue;
                }
                let o = func.body.op(op);
                if o.results.is_empty() || !o.regions.is_empty() || o.has_attr(ATTR_LIVE_OUT) {
                    continue;
                }
                let dead = {
                    let results = &func.body.op(op).results;
                    !results.iter().any(|&r| func.body.has_uses(r))
                };
                if dead {
                    func.body.erase_op(op);
                    changed = true;
                }
            }
            changed_any |= changed;
            if !changed {
                break;
            }
        }
        Ok(PassResult::from_changed(changed_any))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{OpBuilder, OpSpec};
    use crate::ir::Func;
    use crate::rewrite::apply_patterns_greedily;
    use crate::types::{ScalarType, Type};

    fn elem_ty(n: i64) -> Type {
        Type::tensor(&[n], ScalarType::I32)
    }

    fn fusable(name: &'static str, code: i64, len: i64, tag: i64) -> OpSpec {
        OpSpec::new(name)
            .attr(ATTR_ELIGIBLE, Attribute::Int(1))
            .attr(ATTR_CODE, Attribute::Int(code))
            .attr(ATTR_LEN, Attribute::Int(len))
            .attr(ATTR_TAG, Attribute::Int(tag))
    }

    fn fusion_patterns() -> Vec<Box<dyn RewritePattern>> {
        vec![
            Box::new(ElementwiseChainFusion),
            Box::new(ElementwiseRootMerge),
        ]
    }

    /// The BFS epilogue shape: `nv = xor(visited, ones); fresh = and(raw,
    /// nv); vnext = or(visited, raw)` fuses into one three-stage group with
    /// three deduplicated external inputs.
    #[test]
    fn bfs_epilogue_fuses_into_one_group() {
        let t = elem_ty(8);
        let mut f = Func::new("bfs", vec![t.clone(), t.clone(), t.clone()], vec![]);
        let (visited, ones, raw) = {
            let a = f.arguments();
            (a[0], a[1], a[2])
        };
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let nv = b.push(
            fusable("ew.xor", 10, 8, 100)
                .operands([visited, ones])
                .result(t.clone()),
        );
        let fresh = b.push(
            fusable("ew.and", 11, 8, 101)
                .operands([raw, nv.result()])
                .result(t.clone()),
        );
        let vnext = b.push(
            fusable("ew.or", 12, 8, 102)
                .operands([visited, raw])
                .result(t.clone()),
        );
        b.push(
            OpSpec::new("use.reduce")
                .operands([fresh.result()])
                .result(elem_ty(1)),
        );
        b.push(OpSpec::new("use.sink").operands([vnext.result()]));

        let stats = apply_patterns_greedily(&mut f.body, &fusion_patterns(), 16).unwrap();
        assert!(stats.converged);
        let groups = f.body.ops_with_name(FUSED_OP);
        assert_eq!(groups.len(), 1, "expected a single fused group");
        let g = groups[0];
        let op = f.body.op(g);
        // Externals deduplicated: visited, ones, raw.
        assert_eq!(op.operands.len(), 3);
        assert_eq!(op.results.len(), 3);
        let stages = op.int_array_attr(ATTR_STAGES).unwrap();
        assert_eq!(stages.len(), 3 * STAGE_WORDS);
        let tags = op.int_array_attr(ATTR_TAGS).unwrap().to_vec();
        // All three original tags survive, in stage order.
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![100, 101, 102]);
        // Consumers read the group's results.
        let reduce = f.body.ops_with_name("use.reduce")[0];
        let sink = f.body.ops_with_name("use.sink")[0];
        let fresh_stage = tags.iter().position(|&t| t == 101).unwrap();
        let vnext_stage = tags.iter().position(|&t| t == 102).unwrap();
        assert_eq!(f.body.op(reduce).operands[0], f.body.result(g, fresh_stage));
        assert_eq!(f.body.op(sink).operands[0], f.body.result(g, vnext_stage));
        // Stage dataflow is internally consistent: every ARG_STAGE
        // reference points to an earlier stage.
        for (s, chunk) in stages.chunks(STAGE_WORDS).enumerate() {
            for pair in [(chunk[1], chunk[2]), (chunk[3], chunk[4])] {
                match pair.0 {
                    ARG_INPUT => assert!((pair.1 as usize) < op.operands.len()),
                    ARG_STAGE => assert!((pair.1 as usize) < s),
                    k => panic!("bad arg kind {k}"),
                }
            }
        }
    }

    /// A five-op chain overflows the stage cap: four stages fuse, the fifth
    /// op survives as a plain consumer of the group.
    #[test]
    fn stage_cap_splits_long_chains() {
        let t = elem_ty(4);
        let mut f = Func::new("chain", vec![t.clone(), t.clone()], vec![]);
        let (x, y) = {
            let a = f.arguments();
            (a[0], a[1])
        };
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let mut prev = x;
        let mut last = None;
        for i in 0..5 {
            let op = b.push(
                fusable("ew.add", 0, 4, i)
                    .operands([prev, y])
                    .result(t.clone()),
            );
            prev = op.result();
            last = Some(op.result());
        }
        b.push(OpSpec::new("use.sink").operands([last.unwrap()]));

        let stats = apply_patterns_greedily(&mut f.body, &fusion_patterns(), 16).unwrap();
        assert!(stats.converged);
        let groups = f.body.ops_with_name(FUSED_OP);
        assert_eq!(groups.len(), 1);
        assert_eq!(
            f.body
                .op(groups[0])
                .int_array_attr(ATTR_STAGES)
                .unwrap()
                .len(),
            MAX_FUSED_STAGES * STAGE_WORDS
        );
        assert_eq!(f.body.ops_with_name("ew.add").len(), 1);
    }

    /// Ops whose lengths differ never merge, and a consumer whose other
    /// operand is defined *after* the producer cannot chain into it.
    #[test]
    fn illegal_merges_are_rejected() {
        let t8 = elem_ty(8);
        let t4 = elem_ty(4);
        let mut f = Func::new(
            "mixed",
            vec![t8.clone(), t8.clone(), t4.clone(), t4.clone()],
            vec![],
        );
        let (a, b_, c, d) = {
            let args = f.arguments();
            (args[0], args[1], args[2], args[3])
        };
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let p = b.push(
            fusable("ew.add", 0, 8, 0)
                .operands([a, b_])
                .result(t8.clone()),
        );
        // Length-4 op between the two length-8 ops: incompatible.
        let q = b.push(
            fusable("ew.mul", 2, 4, 1)
                .operands([c, d])
                .result(t4.clone()),
        );
        // Non-fusable producer defined after `p`.
        let r = b.push(
            OpSpec::new("opaque")
                .operands([q.result()])
                .result(t8.clone()),
        );
        // Consumer of p and r: fusing into `p` would hoist it above `r`.
        let s = b.push(
            fusable("ew.sub", 1, 8, 2)
                .operands([p.result(), r.result()])
                .result(t8),
        );
        b.push(OpSpec::new("use.sink").operands([s.result(), q.result()]));

        let stats = apply_patterns_greedily(&mut f.body, &fusion_patterns(), 16).unwrap();
        assert!(stats.converged);
        assert_eq!(stats.applications, 0);
        assert!(f.body.ops_with_name(FUSED_OP).is_empty());
    }

    #[test]
    fn cse_redirects_and_erases_duplicates() {
        let t = elem_ty(4);
        let mut f = Func::new("dups", vec![t.clone(), t.clone()], vec![]);
        let (x, y) = {
            let a = f.arguments();
            (a[0], a[1])
        };
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let first = b.push(
            OpSpec::new("ew.add")
                .operands([x, y])
                .attr("out_slot", Attribute::Int(3))
                .result(t.clone()),
        );
        let dup = b.push(
            OpSpec::new("ew.add")
                .operands([x, y])
                .attr("out_slot", Attribute::Int(7))
                .result(t.clone()),
        );
        let other = b.push(OpSpec::new("ew.add").operands([y, x]).result(t.clone()));
        b.push(OpSpec::new("use.sink").operands([dup.result(), other.result()]));

        let patterns: Vec<Box<dyn RewritePattern>> =
            vec![Box::new(CsePattern::ignoring(["out_slot"]))];
        let stats = apply_patterns_greedily(&mut f.body, &patterns, 16).unwrap();
        assert!(stats.converged);
        assert_eq!(stats.applications, 1);
        // Duplicate erased, its use redirected; the operand-swapped op stays.
        assert_eq!(f.body.ops_with_name("ew.add").len(), 2);
        let sink = f.body.ops_with_name("use.sink")[0];
        assert_eq!(f.body.op(sink).operands[0], first.result());
    }

    #[test]
    fn cse_keeps_live_out_duplicates_but_rewires_uses() {
        let t = elem_ty(4);
        let mut f = Func::new("live", vec![t.clone(), t.clone()], vec![]);
        let (x, y) = {
            let a = f.arguments();
            (a[0], a[1])
        };
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let first = b.push(OpSpec::new("ew.add").operands([x, y]).result(t.clone()));
        let dup = b.push(
            OpSpec::new("ew.add")
                .operands([x, y])
                .attr(ATTR_LIVE_OUT, Attribute::Int(1))
                .result(t.clone()),
        );
        b.push(OpSpec::new("use.sink").operands([dup.result()]));

        let patterns: Vec<Box<dyn RewritePattern>> = vec![Box::new(CsePattern::new())];
        let stats = apply_patterns_greedily(&mut f.body, &patterns, 16).unwrap();
        assert!(stats.converged, "live-out duplicate must not loop forever");
        assert_eq!(stats.applications, 1);
        // Both ops survive (the duplicate's output is observed), but the
        // downstream use reads the first op.
        assert_eq!(f.body.ops_with_name("ew.add").len(), 2);
        let sink = f.body.ops_with_name("use.sink")[0];
        assert_eq!(f.body.op(sink).operands[0], first.result());
    }

    #[test]
    fn dce_erases_dead_chains_but_keeps_live_out_and_terminators() {
        let t = elem_ty(4);
        let mut f = Func::new("dead", vec![t.clone()], vec![]);
        let x = f.argument(0);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let d1 = b.push(OpSpec::new("ew.add").operands([x, x]).result(t.clone()));
        // Dead chain: d2 uses d1, nothing uses d2.
        b.push(
            OpSpec::new("ew.mul")
                .operands([d1.result(), x])
                .result(t.clone()),
        );
        let kept = b.push(
            OpSpec::new("ew.sub")
                .operands([x, x])
                .attr(ATTR_LIVE_OUT, Attribute::Int(1))
                .result(t.clone()),
        );
        b.push(OpSpec::new("func.return"));

        let pass = DcePass;
        assert_eq!(pass.run_on_func(&mut f).unwrap(), PassResult::Changed);
        assert!(f.body.ops_with_name("ew.add").is_empty());
        assert!(f.body.ops_with_name("ew.mul").is_empty());
        assert!(f.body.is_live(kept.id));
        assert_eq!(f.body.ops_with_name("func.return").len(), 1);
        assert_eq!(pass.run_on_func(&mut f).unwrap(), PassResult::Unchanged);
    }
}
