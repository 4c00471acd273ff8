//! Ergonomic construction of operations.
//!
//! [`OpBuilder`] owns an insertion point inside a [`Body`]; [`OpBuilder::op`]
//! starts an [`OpSpec`], a consuming builder that writes the op's operands,
//! attributes and results straight into the body's arenas, and `push`
//! creates the op.
//!
//! # Examples
//!
//! ```
//! use cinm_ir::prelude::*;
//!
//! let mut func = Func::new(
//!     "matmul",
//!     vec![Type::tensor(&[64, 64], ScalarType::I32); 2],
//!     vec![Type::tensor(&[64, 64], ScalarType::I32)],
//! );
//! let args = func.arguments();
//! let entry = func.body.entry_block();
//! let mut b = OpBuilder::at_end(&mut func.body, entry);
//! let gemm = b
//!     .op("cinm.gemm")
//!     .operands([args[0], args[1]])
//!     .result(Type::tensor(&[64, 64], ScalarType::I32))
//!     .push();
//! b.op("func.return").operand(gemm.result()).push();
//! assert_eq!(func.body.num_live_ops(), 2);
//! ```

use crate::attributes::Attribute;
use crate::ir::{BlockId, Body, IdRange, OpId, PendingOp, ValueId};
use crate::types::Type;

/// An operation under construction, holding its body exclusively: each call
/// appends to the body's arenas (no list of its own), and [`OpSpec::push`] or
/// [`OpSpec::push_at`] creates the op. Results are numbered in the order
/// they are added; regions are created when the op is. A spec dropped
/// without a push leaves what it appended behind, unused.
#[must_use = "an op is created by `push` or `push_at`"]
#[derive(Debug)]
pub struct OpSpec<'a> {
    body: &'a mut Body,
    block: BlockId,
    name: &'static str,
    op: PendingOp,
}

impl OpSpec<'_> {
    /// Adds one operand.
    ///
    /// # Panics
    ///
    /// Panics if the value does not exist in the body.
    pub fn operand(self, v: ValueId) -> Self {
        self.operands([v])
    }

    /// Adds several operands.
    pub fn operands<I: IntoIterator<Item = ValueId>>(self, vs: I) -> Self {
        for v in vs {
            self.body.stage_operand(v);
        }
        self
    }

    /// Adds one result of the given type.
    pub fn result(self, ty: Type) -> Self {
        self.results([ty])
    }

    /// Adds several results.
    pub fn results<I: IntoIterator<Item = Type>>(self, tys: I) -> Self {
        for ty in tys {
            self.body.stage_result(&self.op, ty);
        }
        self
    }

    /// Attaches an attribute.
    pub fn attr(self, key: &'static str, value: impl Into<Attribute>) -> Self {
        self.body.stage_attr(&self.op, key, value.into());
        self
    }

    /// Attaches a unit (flag) attribute.
    pub fn flag(self, key: &'static str) -> Self {
        self.attr(key, Attribute::Unit)
    }

    /// Adds a nested region whose entry block takes arguments of the given
    /// types.
    pub fn region<I: IntoIterator<Item = Type>>(self, entry_arg_types: I) -> Self {
        self.body.stage_region(entry_arg_types);
        self
    }

    /// Creates the op at the end of the insertion block.
    pub fn push(self) -> BuiltOp {
        let id = self.body.finish_op(self.op, self.name, self.block, None);
        BuiltOp::of(self.body, id)
    }

    /// Creates the op at position `index` of the insertion block.
    ///
    /// # Panics
    ///
    /// Panics if `index` is greater than the number of ops in the block.
    pub fn push_at(self, index: usize) -> BuiltOp {
        let id = self
            .body
            .finish_op(self.op, self.name, self.block, Some(index));
        BuiltOp::of(self.body, id)
    }
}

/// The result of creating an op: the op and its result values.
///
/// The results of one op are numbered consecutively, so this is `Copy`, not
/// a copy of the op's result list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuiltOp {
    /// The created operation.
    pub id: OpId,
    results: IdRange<ValueId>,
}

impl BuiltOp {
    fn of(body: &Body, id: OpId) -> Self {
        BuiltOp {
            id,
            results: body.op(id).results,
        }
    }

    /// Number of results of the op.
    pub fn num_results(&self) -> usize {
        self.results.len()
    }

    /// The `index`-th result of the op, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if the op has no such result.
    pub fn result_at(&self, index: usize) -> ValueId {
        self.results.get(index)
    }

    /// The single result of the op.
    ///
    /// # Panics
    ///
    /// Panics if the op does not have exactly one result.
    pub fn result(&self) -> ValueId {
        assert_eq!(
            self.results.len(),
            1,
            "expected exactly one result, found {}",
            self.results.len()
        );
        self.results.get(0)
    }
}

/// A builder holding an insertion block inside a [`Body`].
#[derive(Debug)]
pub struct OpBuilder<'b> {
    body: &'b mut Body,
    block: BlockId,
}

impl<'b> OpBuilder<'b> {
    /// Creates a builder inserting at the end of `block`.
    pub fn at_end(body: &'b mut Body, block: BlockId) -> Self {
        OpBuilder { body, block }
    }

    /// Read access to the underlying body.
    pub fn body(&self) -> &Body {
        self.body
    }

    /// Mutable access to the underlying body (for queries during building).
    pub fn body_mut(&mut self) -> &mut Body {
        self.body
    }

    /// Starts the op with the given fully qualified name, to be created in
    /// the insertion block.
    pub fn op(&mut self, name: &'static str) -> OpSpec<'_> {
        let op = self.body.begin_op();
        OpSpec {
            body: self.body,
            block: self.block,
            name,
            op,
        }
    }

    /// Creates an `arith.constant` with an integer value of the given type.
    pub fn const_int(&mut self, value: i64, ty: Type) -> ValueId {
        self.op("arith.constant")
            .attr("value", value)
            .result(ty)
            .push()
            .result()
    }

    /// Creates an `arith.constant` index value.
    pub fn const_index(&mut self, value: i64) -> ValueId {
        self.const_int(value, Type::index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Func;
    use crate::types::ScalarType;

    #[test]
    fn build_op_with_attrs_and_results() {
        let mut f = Func::new("t", vec![Type::i32()], vec![]);
        let entry = f.body.entry_block();
        let arg = f.argument(0);
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let op = b
            .op("cinm.topk")
            .operand(arg)
            .attr("k", 8_i64)
            .flag("cinm.stable")
            .result(Type::tensor(&[8], ScalarType::I32))
            .result(Type::tensor(&[8], ScalarType::Index))
            .push();
        assert_eq!(op.num_results(), 2);
        assert!(f
            .body
            .op(op.id)
            .results
            .iter()
            .eq([op.result_at(0), op.result_at(1)]));
        assert_eq!(f.body.op(op.id).int_attr("k"), Some(8));
        assert!(f.body.op(op.id).has_attr("cinm.stable"));
    }

    #[test]
    fn build_op_with_region() {
        let mut f = Func::new("t", vec![], vec![]);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let launch = b
            .op("cnm.launch")
            .result(Type::Token)
            .region(vec![Type::memref(&[16], ScalarType::I32)])
            .push();
        let inner = f.body.op_region_entry_block(launch.id, 0);
        assert_eq!(f.body.block_args(inner).len(), 1);
    }

    #[test]
    fn const_helpers() {
        let mut f = Func::new("t", vec![], vec![]);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let c = b.const_index(42);
        let def = f.body.defining_op(c).unwrap();
        assert_eq!(f.body.op(def).name, "arith.constant");
        assert_eq!(f.body.op(def).int_attr("value"), Some(42));
        assert_eq!(f.body.value_type(c), &Type::index());
    }

    #[test]
    #[should_panic(expected = "exactly one result")]
    fn built_op_result_requires_single_result() {
        let mut f = Func::new("t", vec![], vec![]);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let op = b.op("func.return").push();
        let _ = op.result();
    }

    #[test]
    fn push_at_inserts_before() {
        let mut f = Func::new("t", vec![], vec![]);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let second = b.op("b.op").push();
        let first = b.op("a.op").push_at(0);
        assert_eq!(f.body.block_ops(entry), &[first.id, second.id]);
    }
}
