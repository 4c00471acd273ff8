//! Ergonomic construction of operations.
//!
//! [`OpSpec`] is a consuming builder describing one operation; [`OpBuilder`]
//! owns an insertion point inside a [`Body`] and materialises specs into
//! operations.
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
//! let gemm = b.push(
//!     OpSpec::new("cinm.gemm")
//!         .operands([args[0], args[1]])
//!         .result(Type::tensor(&[64, 64], ScalarType::I32)),
//! );
//! b.push(OpSpec::new("func.return").operands([gemm.result()]));
//! assert_eq!(func.body.num_live_ops(), 2);
//! ```

use crate::attributes::{AttrMap, Attribute};
use crate::ir::{BlockId, Body, OpId, ValueId};
use crate::types::Type;

/// A declarative description of an operation about to be created. Pushing
/// the spec moves its operands, result types and attributes into the op.
#[derive(Debug, Clone)]
pub struct OpSpec {
    name: &'static str,
    operands: Vec<ValueId>,
    result_types: Vec<Type>,
    attrs: AttrMap,
    region_entry_args: Vec<Vec<Type>>,
}

impl OpSpec {
    /// Starts a spec for the op with the given fully qualified name.
    pub fn new(name: &'static str) -> Self {
        OpSpec {
            name,
            operands: Vec::new(),
            result_types: Vec::new(),
            attrs: AttrMap::new(),
            region_entry_args: Vec::new(),
        }
    }

    /// Adds one operand.
    pub fn operand(mut self, v: ValueId) -> Self {
        self.operands.push(v);
        self
    }

    /// Adds several operands.
    pub fn operands<I: IntoIterator<Item = ValueId>>(mut self, vs: I) -> Self {
        self.operands.extend(vs);
        self
    }

    /// Adds one result type.
    pub fn result(mut self, ty: Type) -> Self {
        self.result_types.push(ty);
        self
    }

    /// Adds several result types.
    pub fn results<I: IntoIterator<Item = Type>>(mut self, tys: I) -> Self {
        self.result_types.extend(tys);
        self
    }

    /// Attaches an attribute.
    pub fn attr(mut self, key: &'static str, value: impl Into<Attribute>) -> Self {
        self.attrs.insert(key, value.into());
        self
    }

    /// Attaches a unit (flag) attribute.
    pub fn flag(mut self, key: &'static str) -> Self {
        self.attrs.insert(key, Attribute::Unit);
        self
    }

    /// Adds a nested region whose entry block takes arguments of the given
    /// types.
    pub fn region(mut self, entry_arg_types: Vec<Type>) -> Self {
        self.region_entry_args.push(entry_arg_types);
        self
    }

    /// The op name this spec will create.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// The result of materialising an [`OpSpec`]: the op and its result values.
///
/// The results of one op are numbered consecutively, so this is three words
/// and `Copy`, not a copy of the op's result list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuiltOp {
    /// The created operation.
    pub id: OpId,
    first_result: ValueId,
    num_results: usize,
}

impl BuiltOp {
    fn of(body: &Body, id: OpId) -> Self {
        let results = &body.op(id).results;
        // `Body::insert_op` creates the results of an op back to back.
        debug_assert!(results.windows(2).all(|w| w[1].0 == w[0].0 + 1));
        BuiltOp {
            id,
            first_result: results.first().copied().unwrap_or(ValueId(0)),
            num_results: results.len(),
        }
    }

    /// Number of results of the op.
    pub fn num_results(&self) -> usize {
        self.num_results
    }

    /// The `index`-th result of the op, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if the op has no such result.
    pub fn result_at(&self, index: usize) -> ValueId {
        assert!(
            index < self.num_results,
            "result {index} of an op with {} results",
            self.num_results
        );
        ValueId(self.first_result.0 + index as u32)
    }

    /// The single result of the op.
    ///
    /// # Panics
    ///
    /// Panics if the op does not have exactly one result.
    pub fn result(&self) -> ValueId {
        assert_eq!(
            self.num_results, 1,
            "expected exactly one result, found {}",
            self.num_results
        );
        self.first_result
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

    /// The current insertion block.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// Moves the insertion point to the end of another block.
    pub fn set_block(&mut self, block: BlockId) {
        self.block = block;
    }

    /// Read access to the underlying body.
    pub fn body(&self) -> &Body {
        self.body
    }

    /// Mutable access to the underlying body (for queries during building).
    pub fn body_mut(&mut self) -> &mut Body {
        self.body
    }

    /// Materialises the spec at the end of the insertion block.
    pub fn push(&mut self, spec: OpSpec) -> BuiltOp {
        let id = self.body.append_op(
            self.block,
            spec.name,
            spec.operands,
            spec.result_types,
            spec.attrs,
            spec.region_entry_args,
        );
        BuiltOp::of(self.body, id)
    }

    /// Materialises the spec at a specific index inside the insertion block.
    pub fn push_at(&mut self, index: usize, spec: OpSpec) -> BuiltOp {
        let id = self.body.insert_op(
            self.block,
            index,
            spec.name,
            spec.operands,
            spec.result_types,
            spec.attrs,
            spec.region_entry_args,
        );
        BuiltOp::of(self.body, id)
    }

    /// Creates an `arith.constant` with an integer value of the given type.
    pub fn const_int(&mut self, value: i64, ty: Type) -> ValueId {
        self.push(
            OpSpec::new("arith.constant")
                .attr("value", value)
                .result(ty),
        )
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
        let op = b.push(
            OpSpec::new("cinm.topk")
                .operand(arg)
                .attr("k", 8_i64)
                .flag("cinm.stable")
                .result(Type::tensor(&[8], ScalarType::I32))
                .result(Type::tensor(&[8], ScalarType::Index)),
        );
        assert_eq!(op.num_results(), 2);
        assert_eq!(
            [op.result_at(0), op.result_at(1)],
            f.body.op(op.id).results[..]
        );
        assert_eq!(f.body.op(op.id).int_attr("k"), Some(8));
        assert!(f.body.op(op.id).has_attr("cinm.stable"));
    }

    #[test]
    fn build_op_with_region() {
        let mut f = Func::new("t", vec![], vec![]);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let launch = b.push(
            OpSpec::new("cnm.launch")
                .result(Type::Token)
                .region(vec![Type::memref(&[16], ScalarType::I32)]),
        );
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
        let op = b.push(OpSpec::new("func.return"));
        let _ = op.result();
    }

    #[test]
    fn push_at_inserts_before() {
        let mut f = Func::new("t", vec![], vec![]);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let second = b.push(OpSpec::new("b.op"));
        let first = b.push_at(0, OpSpec::new("a.op"));
        assert_eq!(f.body.block_ops(entry), &[first.id, second.id]);
    }
}
