//! The benchmark's pins in this crate: the planner entries that name an op
//! by its `cinm` name and [`ShardShape`] instead of a typed [`CnmOp`].
//!
//! `benchmark/` compiles against them, so they stay until its probes plan
//! through [`ShardPlanner::plan_op`] (ROADMAP item 1(d) deletes this module,
//! `cinm-lowering`'s `pinned` module and `cinm-runtime`'s `stream.rs`).
//! Nothing else calls them: `tools/check_pins.sh` fails when code under
//! `crates/`, `src/`, `tests/` or `examples/` does, and `tests/pinned.rs`
//! checks each against its typed twin. Each entry decodes the name into the
//! op it stands for and calls that twin; a name no [`CnmOp`] stands for is
//! refused.

use cinm_dialects::cinm;
use cinm_lowering::cnm_op::CnmOp;
use cinm_lowering::ShardError;
use upmem_sim::BinOp;

use crate::shard::{CachedShardPlanner, ShardPlan, ShardPlanner, ShardShape};
use crate::target::Target;

impl ShardPlanner {
    /// [`plan_op`](Self::plan_op) of the op `op` and `shape` stand for.
    #[doc(hidden)]
    pub fn plan(&self, op: &'static str, shape: ShardShape) -> Result<ShardPlan, ShardError> {
        self.plan_op(op_from_name(op, &shape)?)
    }

    /// Full-shard joules of `target` for the op `op` and `shape` stand for,
    /// or `None` if the name stands for no op or no model of `target`
    /// prices it.
    #[doc(hidden)]
    pub fn estimate_joules(
        &self,
        target: Target,
        op: &'static str,
        shape: &ShardShape,
    ) -> Option<f64> {
        Some(self.estimate(target, op_from_name(op, shape).ok()?)?.joules)
    }
}

impl CachedShardPlanner {
    /// [`plan_op`](Self::plan_op) of the op `op` and `shape` stand for.
    #[doc(hidden)]
    pub fn plan(&mut self, op: &'static str, shape: ShardShape) -> Result<&ShardPlan, ShardError> {
        self.plan_op(op_from_name(op, &shape)?)
    }
}

/// Bins of a histogram named by its `cinm` name and [`ShardShape`] alone
/// (the pair does not carry the bin count).
const ESTIMATE_BINS: usize = 256;

/// The op a `cinm` name and [`ShardShape`] stand for. Value parameters the
/// pair does not carry take placeholders ([`ESTIMATE_BINS`] bins, the `add`
/// reduction).
///
/// # Errors
///
/// [`ShardError::Unsupported`] for a name no [`CnmOp`] stands for: no
/// device runs it.
fn op_from_name(name: &'static str, shape: &ShardShape) -> Result<CnmOp, ShardError> {
    let (work, device) = (shape.work, Target::Host);
    let unknown = ShardError::Unsupported { device, op: name };
    Ok(match name {
        cinm::GEMM => CnmOp::Gemm {
            m: work,
            k: shape.inner,
            n: shape.out,
        },
        cinm::GEMV => CnmOp::Gemv {
            rows: work,
            cols: shape.inner,
        },
        cinm::REDUCE => CnmOp::Reduce {
            op: BinOp::Add,
            len: work,
        },
        cinm::HISTOGRAM => CnmOp::Histogram {
            bins: ESTIMATE_BINS,
            max_value: 0,
            len: work,
        },
        _ => CnmOp::Elementwise {
            op: name
                .strip_prefix("cinm.")
                .and_then(BinOp::parse)
                .ok_or(unknown)?,
            len: work,
        },
    })
}
