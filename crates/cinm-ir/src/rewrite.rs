//! Pattern-based rewriting with a greedy driver.
//!
//! The `linalg → cinm` conversion and the canonicalisation steps of the
//! paper (e.g. rewriting `linalg.conv2d` into `im2col` + `cinm.gemm`,
//! Figure 5) are expressed as [`RewritePattern`]s applied until fixpoint by
//! [`apply_patterns_greedily`].

use crate::error::{IrError, IrResult};
use crate::ir::{Body, Func, OpId};
use crate::pass::{Pass, PassResult};

/// A single rewrite rule.
pub trait RewritePattern {
    /// Stable pattern name for diagnostics.
    fn name(&self) -> &'static str;

    /// Attempts to match and rewrite the operation.
    ///
    /// Returns `Ok(true)` if the pattern applied (and modified the IR),
    /// `Ok(false)` if it did not match.
    ///
    /// # Errors
    ///
    /// Returns an error if the op matched but could not be rewritten legally.
    fn match_and_rewrite(&self, op: OpId, body: &mut Body) -> IrResult<bool>;
}

/// Outcome of a greedy rewrite run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Number of successful pattern applications.
    pub applications: usize,
    /// Number of fixpoint iterations executed.
    pub iterations: usize,
    /// Whether the driver reached a fixpoint within the iteration budget.
    pub converged: bool,
}

/// One sweep of the greedy driver: offers every live op to the patterns in
/// order, first match wins. Returns whether any pattern applied.
fn sweep(
    body: &mut Body,
    patterns: &[Box<dyn RewritePattern>],
    stats: &mut RewriteStats,
) -> IrResult<bool> {
    let mut changed = false;
    // Snapshot the ops: patterns may erase/create ops while we iterate.
    for op in body.walk() {
        for pattern in patterns {
            if !body.is_live(op) {
                break;
            }
            let applied = pattern
                .match_and_rewrite(op, body)
                .map_err(|e| e.with_context(format!("pattern '{}'", pattern.name())))?;
            if applied {
                stats.applications += 1;
                changed = true;
                break;
            }
        }
    }
    Ok(changed)
}

/// Applies the patterns to every op of the body until no pattern matches or
/// the iteration budget is exhausted. A pattern set whose last permitted
/// iteration still changed the IR gets one final sweep: it has converged if
/// that sweep finds nothing to do (the sweep is not counted as an iteration;
/// what it applies, if anything, is counted as applications).
///
/// # Errors
///
/// Propagates the first pattern error.
pub fn apply_patterns_greedily(
    body: &mut Body,
    patterns: &[Box<dyn RewritePattern>],
    max_iterations: usize,
) -> IrResult<RewriteStats> {
    let mut stats = RewriteStats::default();
    for _ in 0..max_iterations {
        stats.iterations += 1;
        if !sweep(body, patterns, &mut stats)? {
            stats.converged = true;
            return Ok(stats);
        }
    }
    stats.converged = !sweep(body, patterns, &mut stats)?;
    Ok(stats)
}

/// Wraps a set of rewrite patterns as a [`Pass`].
pub struct PatternRewritePass {
    name: &'static str,
    patterns: Vec<Box<dyn RewritePattern>>,
    max_iterations: usize,
}

impl PatternRewritePass {
    /// Creates a pass from a pattern set.
    pub fn new(name: &'static str, patterns: Vec<Box<dyn RewritePattern>>) -> Self {
        PatternRewritePass {
            name,
            patterns,
            max_iterations: 32,
        }
    }

    /// Overrides the fixpoint iteration budget.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }
}

impl Pass for PatternRewritePass {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run_on_func(&self, func: &mut Func) -> IrResult<PassResult> {
        let stats = apply_patterns_greedily(&mut func.body, &self.patterns, self.max_iterations)?;
        if !stats.converged {
            return Err(IrError::new(format!(
                "pattern set '{}' did not converge after {} iterations",
                self.name, stats.iterations
            )));
        }
        Ok(PassResult::from_changed(stats.applications > 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttrMap;
    use crate::builder::{OpBuilder, OpSpec};
    use crate::ir::Func;
    use crate::types::Type;

    /// Rewrites `x.double` into two chained `x.single` ops.
    struct ExpandDouble;

    impl RewritePattern for ExpandDouble {
        fn name(&self) -> &'static str {
            "expand-double"
        }

        fn match_and_rewrite(&self, op: OpId, body: &mut Body) -> IrResult<bool> {
            if body.op(op).name != "x.double" {
                return Ok(false);
            }
            let block = body.op_block(op);
            let index = body.op_index_in_block(op);
            let operand = body.op(op).operands[0];
            let result = body.op(op).results[0];
            let ty = body.value_type(result).clone();
            let first = body.insert_op(
                block,
                index,
                "x.single",
                vec![operand],
                vec![ty.clone()],
                AttrMap::new(),
                vec![],
            );
            let second = body.insert_op(
                block,
                index + 1,
                "x.single",
                vec![body.result(first, 0)],
                vec![ty],
                AttrMap::new(),
                vec![],
            );
            let new_result = body.result(second, 0);
            body.replace_all_uses(result, new_result);
            body.erase_op(op);
            Ok(true)
        }
    }

    /// A pattern that matches everything and never terminates (renames back
    /// and forth) — used to exercise the non-convergence guard.
    struct PingPong;

    impl RewritePattern for PingPong {
        fn name(&self) -> &'static str {
            "ping-pong"
        }

        fn match_and_rewrite(&self, op: OpId, body: &mut Body) -> IrResult<bool> {
            let name = body.op(op).name;
            let new = if name == "p.ping" {
                "p.pong"
            } else if name == "p.pong" {
                "p.ping"
            } else {
                return Ok(false);
            };
            body.op_mut(op).name = new.into();
            Ok(true)
        }
    }

    fn func_with(name: &'static str) -> Func {
        let mut f = Func::new("t", vec![Type::i32()], vec![]);
        let entry = f.body.entry_block();
        let a = f.argument(0);
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let d = b.push(OpSpec::new(name).operand(a).result(Type::i32()));
        b.push(OpSpec::new("x.use").operand(d.result()));
        f
    }

    #[test]
    fn greedy_driver_applies_and_converges() {
        let mut f = func_with("x.double");
        let patterns: Vec<Box<dyn RewritePattern>> = vec![Box::new(ExpandDouble)];
        let stats = apply_patterns_greedily(&mut f.body, &patterns, 10).unwrap();
        assert!(stats.converged);
        assert_eq!(stats.applications, 1);
        assert_eq!(f.body.ops_with_name("x.single").len(), 2);
        assert!(f.body.ops_with_name("x.double").is_empty());
        // The use op now consumes the result of the second single op.
        let use_op = f.body.ops_with_name("x.use")[0];
        let singles = f.body.ops_with_name("x.single");
        assert_eq!(f.body.op(use_op).operands[0], f.body.result(singles[1], 0));
    }

    #[test]
    fn non_convergence_is_detected() {
        let mut f = func_with("p.ping");
        let patterns: Vec<Box<dyn RewritePattern>> = vec![Box::new(PingPong)];
        let stats = apply_patterns_greedily(&mut f.body, &patterns, 5).unwrap();
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 5);
    }

    /// A set that reaches its fixpoint on the last permitted iteration has
    /// converged: the final sweep finds nothing to do.
    #[test]
    fn a_fixpoint_reached_on_the_last_iteration_is_convergence() {
        let mut f = func_with("x.double");
        let patterns: Vec<Box<dyn RewritePattern>> = vec![Box::new(ExpandDouble)];
        let stats = apply_patterns_greedily(&mut f.body, &patterns, 1).unwrap();
        assert!(stats.converged);
        assert_eq!((stats.iterations, stats.applications), (1, 1));

        let mut f = func_with("x.double");
        let pass =
            PatternRewritePass::new("expand", vec![Box::new(ExpandDouble)]).with_max_iterations(1);
        assert_eq!(pass.run_on_func(&mut f).unwrap(), PassResult::Changed);
        assert_eq!(f.body.ops_with_name("x.single").len(), 2);
    }

    #[test]
    fn pattern_pass_reports_change() {
        let mut f = func_with("x.double");
        let pass = PatternRewritePass::new("expand", vec![Box::new(ExpandDouble)]);
        assert_eq!(pass.run_on_func(&mut f).unwrap(), PassResult::Changed);
        assert_eq!(pass.run_on_func(&mut f).unwrap(), PassResult::Unchanged);
    }

    #[test]
    fn pattern_pass_errors_on_non_convergence() {
        let mut f = func_with("p.ping");
        let pass = PatternRewritePass::new("pp", vec![Box::new(PingPong)]).with_max_iterations(3);
        assert!(pass.run_on_func(&mut f).is_err());
    }
}
