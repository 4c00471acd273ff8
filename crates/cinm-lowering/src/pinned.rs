//! The benchmark's pins in this crate: [`ShardOp`], an op shard bound to its
//! operand slices, and [`DeviceFuture`], its completion handle — the form
//! the hidden `Device::submit` takes instead of a [`CnmOp`] and its slices.
//!
//! `benchmark/` compiles against them, so they stay until its probe calls
//! [`Device::run`] (ROADMAP item 1(d) deletes this module). Nothing else
//! calls them: `tools/check_pins.sh` fails when code under `crates/`,
//! `src/`, `tests/` or `examples/` does. `crate::device` and the crate root
//! re-export both.

use upmem_sim::BinOp;

use crate::cnm_op::CnmOp;
use crate::device::Device;
use crate::sharded::ShardError;

/// One operation shard bound to concrete operand slices, the form
/// `Device::submit` takes. The slices are the *shard's* view (e.g. the
/// contiguous row range of `A` assigned to this device).
#[derive(Debug, Clone, Copy)]
pub enum ShardOp<'a> {
    /// `C[m×n] = A[m×k] × B[k×n]` over the shard's `m` rows.
    Gemm {
        /// Row block of the sharded operand.
        a: &'a [i32],
        /// The stationary operand (replicated to every device).
        b: &'a [i32],
        /// Rows of the shard.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns.
        n: usize,
    },
    /// `y[rows] = A[rows×cols] × x[cols]` over the shard's rows.
    Gemv {
        /// Row block of the sharded matrix.
        a: &'a [i32],
        /// The full input vector.
        x: &'a [i32],
        /// Rows of the shard.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Element-wise binary op over the shard's element range.
    Elementwise {
        /// The operator.
        op: BinOp,
        /// Left operand range.
        a: &'a [i32],
        /// Right operand range.
        b: &'a [i32],
    },
    /// Reduction over the shard's element range (the device returns its
    /// partial as a one-element result).
    Reduce {
        /// The reduction operator.
        op: BinOp,
        /// Element range.
        a: &'a [i32],
    },
    /// Histogram over the shard's element range (a per-device partial
    /// histogram).
    Histogram {
        /// Element range.
        a: &'a [i32],
        /// Number of bins.
        bins: usize,
        /// Upper bound (exclusive) of the input values.
        max_value: i32,
    },
}

impl<'a> ShardOp<'a> {
    /// The op as the lowering table sees it, with the shard's operand
    /// slices (a unary op leaves the second one empty).
    fn lower(&self) -> (CnmOp, [&'a [i32]; 2]) {
        match *self {
            ShardOp::Gemm { a, b, m, k, n } => (CnmOp::Gemm { m, k, n }, [a, b]),
            ShardOp::Gemv { a, x, rows, cols } => (CnmOp::Gemv { rows, cols }, [a, x]),
            ShardOp::Elementwise { op, a, b } => (CnmOp::Elementwise { op, len: a.len() }, [a, b]),
            ShardOp::Reduce { op, a } => (CnmOp::Reduce { op, len: a.len() }, [a, &[]]),
            ShardOp::Histogram { a, bins, max_value } => {
                let len = a.len();
                let op = CnmOp::Histogram {
                    bins,
                    max_value,
                    len,
                };
                (op, [a, &[]])
            }
        }
    }
}

/// The completion handle of one submitted shard: the outcome of
/// [`Device::run`], resolved by the time `Device::submit` returns.
/// Execution faults surface at [`wait`](DeviceFuture::wait), while
/// unsupported ops are refused by `submit` itself.
#[derive(Debug)]
pub struct DeviceFuture {
    result: Result<(Vec<i32>, f64), ShardError>,
}

impl DeviceFuture {
    /// The shard result and the simulated seconds the device spent on it.
    ///
    /// # Errors
    ///
    /// The execution fault that killed the shard.
    pub fn wait(self) -> Result<(Vec<i32>, f64), ShardError> {
        self.result
    }
}

/// The body of `Device::submit`: [`Device::run`] on the lowered shard;
/// [`ShardError::Unsupported`] is returned here, everything else resolves
/// through the future.
pub(crate) fn submit<D: Device + ?Sized>(
    device: &mut D,
    shard: &ShardOp<'_>,
) -> Result<DeviceFuture, ShardError> {
    let (op, operands) = shard.lower();
    let result = device.run(op, &operands[..op.arity()]);
    if let Err(e @ ShardError::Unsupported { .. }) = result {
        return Err(e);
    }
    Ok(DeviceFuture { result })
}
