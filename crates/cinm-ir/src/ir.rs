//! Core IR data structures: SSA values, operations, blocks, regions,
//! functions and modules.
//!
//! The design mirrors MLIR's nesting (module → function → region → block →
//! operation → region → ...) with one simplification: every function owns a
//! flat arena ([`Body`]) in which all of its operations, values, blocks and
//! regions live and are addressed by small copyable ids. This keeps rewrites
//! (replace-all-uses, op erasure, op insertion) simple and fast without
//! reference counting.

use std::fmt;
use std::ops::Deref;

use crate::attributes::{AttrMap, Attribute};
use crate::types::Type;

/// Identifier of an SSA value inside a [`Body`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Identifier of an operation inside a [`Body`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

/// Identifier of a block inside a [`Body`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Identifier of a region inside a [`Body`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

/// How an SSA value is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// The `index`-th result of operation `op`.
    OpResult {
        /// Defining operation.
        op: OpId,
        /// Result position.
        index: usize,
    },
    /// The `index`-th argument of block `block`.
    BlockArg {
        /// Owning block.
        block: BlockId,
        /// Argument position.
        index: usize,
    },
}

/// Definition record of an SSA value.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueData {
    /// Static type of the value.
    pub ty: Type,
    /// How the value is produced.
    pub kind: ValueKind,
}

/// The dialect prefix of an op name (`"cinm"` for `"cinm.gemm"`).
pub(crate) fn dialect_of(name: &str) -> &str {
    // A byte scan: a dozen bytes do not repay the general pattern searcher.
    let end = name.bytes().position(|b| b == b'.').unwrap_or(name.len());
    &name[..end]
}

/// The fully qualified name of an operation, e.g. `"cinm.gemm"`.
///
/// Every op name is a dialect `const` (and a row of that dialect's static
/// table), so an op borrows its name for `'static` instead of owning a copy:
/// creating, renaming and comparing ops never touches the heap. Derefs to
/// `str` and compares with string slices directly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpName(&'static str);

impl OpName {
    /// The name as a string slice.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

impl Deref for OpName {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl From<&'static str> for OpName {
    fn from(name: &'static str) -> Self {
        OpName(name)
    }
}

impl PartialEq<&str> for OpName {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl fmt::Debug for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl fmt::Display for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// An operation: the generic unit of computation/abstraction in the IR.
///
/// An op owns its operand and result lists and its attribute values; its
/// name and its attribute keys are `'static`.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// Fully qualified name, e.g. `"cinm.gemm"` or `"cnm.launch"`.
    pub name: OpName,
    /// SSA operands.
    pub operands: Vec<ValueId>,
    /// SSA results.
    pub results: Vec<ValueId>,
    /// Compile-time attributes.
    pub attrs: AttrMap,
    /// Nested regions (e.g. the body of a `cnm.launch`).
    pub regions: Vec<RegionId>,
}

impl Operation {
    /// The dialect prefix of the operation name (`"cinm"` for `"cinm.gemm"`).
    pub fn dialect(&self) -> &'static str {
        dialect_of(self.name.as_str())
    }

    /// The op mnemonic without the dialect prefix (`"gemm"` for `"cinm.gemm"`).
    pub fn mnemonic(&self) -> &'static str {
        let name = self.name.as_str();
        name.split_once('.').map_or(name, |(_, rest)| rest)
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&Attribute> {
        self.attrs.get(key)
    }

    /// Looks up an integer attribute by key.
    pub fn int_attr(&self, key: &str) -> Option<i64> {
        self.attrs.get(key).and_then(Attribute::as_int)
    }

    /// Looks up a string attribute by key.
    pub fn str_attr(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).and_then(Attribute::as_str)
    }

    /// Looks up an integer-array attribute by key.
    pub fn int_array_attr(&self, key: &str) -> Option<&[i64]> {
        self.attrs.get(key).and_then(Attribute::as_int_array)
    }

    /// Returns true if the op carries a unit/flag attribute with this key.
    pub fn has_attr(&self, key: &str) -> bool {
        self.attrs.contains_key(key)
    }
}

/// A basic block: a list of operations plus block arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockData {
    /// Block arguments (SSA values).
    pub args: Vec<ValueId>,
    /// Operations in program order.
    pub ops: Vec<OpId>,
    /// The region this block belongs to.
    pub region: RegionId,
}

/// A region: an ordered list of blocks owned by an operation (or the function
/// entry).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionData {
    /// Blocks of the region; the first one is the entry block.
    pub blocks: Vec<BlockId>,
    /// The operation owning the region, or `None` for the function body.
    pub parent_op: Option<OpId>,
}

/// Internal storage slot of an operation (keeps the owning block).
#[derive(Debug, Clone, PartialEq)]
struct OpSlot {
    op: Operation,
    block: BlockId,
}

/// The arena holding every op/value/block/region of one function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Body {
    ops: Vec<Option<OpSlot>>,
    values: Vec<ValueData>,
    blocks: Vec<BlockData>,
    regions: Vec<RegionData>,
}

impl Body {
    /// Creates a body with an empty entry region and entry block.
    pub fn new() -> Self {
        let mut body = Body::default();
        let region = body.push_region(None);
        body.push_block(region);
        body
    }

    /// The entry region (the function body region).
    pub fn entry_region(&self) -> RegionId {
        RegionId(0)
    }

    /// The entry block of the function body.
    pub fn entry_block(&self) -> BlockId {
        self.regions[0].blocks[0]
    }

    fn push_region(&mut self, parent_op: Option<OpId>) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(RegionData {
            blocks: Vec::new(),
            parent_op,
        });
        id
    }

    fn push_block(&mut self, region: RegionId) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockData {
            args: Vec::new(),
            ops: Vec::new(),
            region,
        });
        self.regions[region.0 as usize].blocks.push(id);
        id
    }

    /// Adds a new (non-entry) block to a region.
    pub fn add_block(&mut self, region: RegionId) -> BlockId {
        assert!((region.0 as usize) < self.regions.len(), "unknown region");
        self.push_block(region)
    }

    /// Appends a block argument of the given type and returns its value id.
    pub fn add_block_arg(&mut self, block: BlockId, ty: Type) -> ValueId {
        let index = self.blocks[block.0 as usize].args.len();
        let v = self.push_value(ty, ValueKind::BlockArg { block, index });
        self.blocks[block.0 as usize].args.push(v);
        v
    }

    fn push_value(&mut self, ty: Type, kind: ValueKind) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(ValueData { ty, kind });
        id
    }

    /// Creates an operation at the end of `block`.
    ///
    /// `region_entry_args` describes, for each nested region to create, the
    /// argument types of its entry block. Result values are created
    /// automatically from `result_types`.
    pub fn append_op(
        &mut self,
        block: BlockId,
        name: &'static str,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: AttrMap,
        region_entry_args: Vec<Vec<Type>>,
    ) -> OpId {
        let index = self.blocks[block.0 as usize].ops.len();
        self.insert_op(
            block,
            index,
            name,
            operands,
            result_types,
            attrs,
            region_entry_args,
        )
    }

    /// Creates an operation at position `index` inside `block`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is greater than the number of ops in the block or if
    /// any operand id is out of range.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_op(
        &mut self,
        block: BlockId,
        index: usize,
        name: &'static str,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: AttrMap,
        region_entry_args: Vec<Vec<Type>>,
    ) -> OpId {
        for v in &operands {
            assert!(
                (v.0 as usize) < self.values.len(),
                "operand {v} does not exist in this body"
            );
        }
        assert!(
            index <= self.blocks[block.0 as usize].ops.len(),
            "insertion index {index} out of range"
        );
        let op_id = OpId(self.ops.len() as u32);
        // Results, numbered consecutively (`BuiltOp` relies on it).
        let mut results = Vec::with_capacity(result_types.len());
        for (i, ty) in result_types.into_iter().enumerate() {
            results.push(self.push_value(
                ty,
                ValueKind::OpResult {
                    op: op_id,
                    index: i,
                },
            ));
        }
        // Reserve the slot before creating regions so region parent ids are valid.
        self.ops.push(Some(OpSlot {
            op: Operation {
                name: OpName(name),
                operands,
                results,
                attrs,
                regions: Vec::new(),
            },
            block,
        }));
        // Regions with their entry blocks and args.
        let mut regions = Vec::with_capacity(region_entry_args.len());
        for arg_tys in region_entry_args {
            let r = self.push_region(Some(op_id));
            let b = self.push_block(r);
            for ty in arg_tys {
                self.add_block_arg(b, ty);
            }
            regions.push(r);
        }
        if let Some(slot) = self.ops[op_id.0 as usize].as_mut() {
            slot.op.regions = regions;
        }
        self.blocks[block.0 as usize].ops.insert(index, op_id);
        op_id
    }

    /// Returns the operation data.
    ///
    /// # Panics
    ///
    /// Panics if the operation has been erased.
    pub fn op(&self, id: OpId) -> &Operation {
        &self
            .ops
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .unwrap_or_else(|| panic!("{id} does not exist (erased?)"))
            .op
    }

    /// Mutable access to an operation.
    ///
    /// # Panics
    ///
    /// Panics if the operation has been erased.
    pub fn op_mut(&mut self, id: OpId) -> &mut Operation {
        &mut self
            .ops
            .get_mut(id.0 as usize)
            .and_then(|s| s.as_mut())
            .unwrap_or_else(|| panic!("{id} does not exist (erased?)"))
            .op
    }

    /// Returns true if the op id refers to a live (non-erased) operation.
    pub fn is_live(&self, id: OpId) -> bool {
        self.ops
            .get(id.0 as usize)
            .map(|s| s.is_some())
            .unwrap_or(false)
    }

    /// The block that contains an operation.
    pub fn op_block(&self, id: OpId) -> BlockId {
        self.ops[id.0 as usize]
            .as_ref()
            .expect("erased op has no block")
            .block
    }

    /// The position of an operation within its block.
    pub fn op_index_in_block(&self, id: OpId) -> usize {
        let block = self.op_block(id);
        self.blocks[block.0 as usize]
            .ops
            .iter()
            .position(|&o| o == id)
            .expect("op not found in its block")
    }

    /// The `index`-th result value of an operation.
    pub fn result(&self, id: OpId, index: usize) -> ValueId {
        self.op(id).results[index]
    }

    /// The type of a value.
    pub fn value_type(&self, v: ValueId) -> &Type {
        &self.values[v.0 as usize].ty
    }

    /// How a value is defined.
    pub fn value_kind(&self, v: ValueId) -> ValueKind {
        self.values[v.0 as usize].kind
    }

    /// The defining operation of a value, if it is an op result.
    pub fn defining_op(&self, v: ValueId) -> Option<OpId> {
        match self.value_kind(v) {
            ValueKind::OpResult { op, .. } => Some(op),
            ValueKind::BlockArg { .. } => None,
        }
    }

    /// Number of values created in this body.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// The arguments of a block.
    pub fn block_args(&self, b: BlockId) -> &[ValueId] {
        &self.blocks[b.0 as usize].args
    }

    /// The operations of a block in program order.
    pub fn block_ops(&self, b: BlockId) -> &[OpId] {
        &self.blocks[b.0 as usize].ops
    }

    /// The region containing a block.
    pub fn block_region(&self, b: BlockId) -> RegionId {
        self.blocks[b.0 as usize].region
    }

    /// The blocks of a region.
    pub fn region_blocks(&self, r: RegionId) -> &[BlockId] {
        &self.regions[r.0 as usize].blocks
    }

    /// The operation owning a region, if any.
    pub fn region_parent(&self, r: RegionId) -> Option<OpId> {
        self.regions[r.0 as usize].parent_op
    }

    /// Entry block of the `region_idx`-th region of an operation.
    pub fn op_region_entry_block(&self, op: OpId, region_idx: usize) -> BlockId {
        let r = self.op(op).regions[region_idx];
        self.regions[r.0 as usize].blocks[0]
    }

    /// Replaces every use of `old` with `new` across all live operations.
    ///
    /// Returns the number of operand slots that were rewritten.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) -> usize {
        let mut count = 0;
        for slot in self.ops.iter_mut().flatten() {
            for operand in slot.op.operands.iter_mut() {
                if *operand == old {
                    *operand = new;
                    count += 1;
                }
            }
        }
        count
    }

    /// Returns the live operations that use a value as an operand.
    pub fn users(&self, v: ValueId) -> Vec<OpId> {
        let mut users = Vec::new();
        for (i, slot) in self.ops.iter().enumerate() {
            if let Some(slot) = slot {
                if slot.op.operands.contains(&v) {
                    users.push(OpId(i as u32));
                }
            }
        }
        users
    }

    /// Erases an operation (and, recursively, every operation nested in its
    /// regions) from the IR.
    ///
    /// The results of the erased op must not have remaining uses; this is not
    /// checked here but will be caught by the verifier.
    pub fn erase_op(&mut self, id: OpId) {
        let Some(slot) = self.ops[id.0 as usize].take() else {
            return;
        };
        // Recursively erase nested ops.
        for r in &slot.op.regions {
            let blocks = self.regions[r.0 as usize].blocks.clone();
            for b in blocks {
                let ops = self.blocks[b.0 as usize].ops.clone();
                for nested in ops {
                    self.erase_op(nested);
                }
            }
        }
        // Unlink from the owning block.
        let block_ops = &mut self.blocks[slot.block.0 as usize].ops;
        if let Some(pos) = block_ops.iter().position(|&o| o == id) {
            block_ops.remove(pos);
        }
    }

    /// Pre-order walk of all live operations reachable from the entry region.
    pub fn walk(&self) -> Vec<OpId> {
        // Sized for every op ever created: one allocation, never a regrowth.
        let mut out = Vec::with_capacity(self.ops.len());
        self.walk_region(self.entry_region(), &mut out);
        out
    }

    /// Pre-order walk of all live operations in one region (recursive).
    pub fn walk_region_ops(&self, region: RegionId) -> Vec<OpId> {
        let mut out = Vec::new();
        self.walk_region(region, &mut out);
        out
    }

    fn walk_region(&self, region: RegionId, out: &mut Vec<OpId>) {
        for &b in &self.regions[region.0 as usize].blocks {
            for &op in &self.blocks[b.0 as usize].ops {
                if !self.is_live(op) {
                    continue;
                }
                out.push(op);
                for &r in &self.op(op).regions {
                    self.walk_region(r, out);
                }
            }
        }
    }

    /// All live ops with the given fully qualified name, in walk order.
    pub fn ops_with_name(&self, name: &str) -> Vec<OpId> {
        self.walk()
            .into_iter()
            .filter(|&op| self.op(op).name == name)
            .collect()
    }

    /// All live ops belonging to the given dialect, in walk order.
    pub fn ops_in_dialect(&self, dialect: &str) -> Vec<OpId> {
        self.walk()
            .into_iter()
            .filter(|&op| self.op(op).dialect() == dialect)
            .collect()
    }

    /// Number of live operations (including nested ones).
    pub fn num_live_ops(&self) -> usize {
        self.walk().len()
    }
}

/// A function: a named body with a signature.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Symbol name.
    pub name: String,
    /// Result types. (The input types are the types of the entry block's
    /// arguments: see [`Func::arguments`].)
    pub result_types: Vec<Type>,
    /// Function-level attributes (e.g. the selected offload target).
    pub attrs: AttrMap,
    /// The function body arena.
    pub body: Body,
}

impl Func {
    /// Creates a function; the entry block receives one argument per input
    /// type.
    pub fn new(name: &str, input_types: Vec<Type>, result_types: Vec<Type>) -> Self {
        let mut body = Body::new();
        let entry = body.entry_block();
        for ty in input_types {
            body.add_block_arg(entry, ty);
        }
        Func {
            name: name.to_string(),
            result_types,
            attrs: AttrMap::new(),
            body,
        }
    }

    /// The entry block arguments (the function arguments).
    pub fn arguments(&self) -> Vec<ValueId> {
        self.body.block_args(self.body.entry_block()).to_vec()
    }

    /// The `i`-th function argument.
    pub fn argument(&self, i: usize) -> ValueId {
        self.body.block_args(self.body.entry_block())[i]
    }

    /// Sets a function attribute, returning `self` for chaining.
    pub fn with_attr(mut self, key: &'static str, value: Attribute) -> Self {
        self.attrs.insert(key, value);
        self
    }
}

/// A module: a named collection of functions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// The functions of the module.
    pub funcs: Vec<Func>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: &str) -> Self {
        Module {
            name: name.to_string(),
            funcs: Vec::new(),
        }
    }

    /// Adds a function and returns its index.
    pub fn add_func(&mut self, func: Func) -> usize {
        self.funcs.push(func);
        self.funcs.len() - 1
    }

    /// Looks up a function by symbol name.
    pub fn func(&self, name: &str) -> Option<&Func> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Mutable lookup of a function by symbol name.
    pub fn func_mut(&mut self, name: &str) -> Option<&mut Func> {
        self.funcs.iter_mut().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ScalarType;

    fn i32_tensor(shape: &[i64]) -> Type {
        Type::tensor(shape, ScalarType::I32)
    }

    #[test]
    fn func_entry_block_has_arguments() {
        let f = Func::new(
            "matmul",
            vec![i32_tensor(&[64, 64]), i32_tensor(&[64, 64])],
            vec![i32_tensor(&[64, 64])],
        );
        assert_eq!(f.arguments().len(), 2);
        assert_eq!(f.body.value_type(f.argument(0)), &i32_tensor(&[64, 64]));
        assert!(matches!(
            f.body.value_kind(f.argument(1)),
            ValueKind::BlockArg { index: 1, .. }
        ));
    }

    #[test]
    fn append_op_creates_results_and_links_block() {
        let mut f = Func::new("t", vec![i32_tensor(&[4])], vec![]);
        let entry = f.body.entry_block();
        let arg = f.argument(0);
        let op = f.body.append_op(
            entry,
            "cinm.add",
            vec![arg, arg],
            vec![i32_tensor(&[4])],
            AttrMap::new(),
            vec![],
        );
        assert_eq!(f.body.op(op).name, "cinm.add");
        assert_eq!(f.body.op(op).dialect(), "cinm");
        assert_eq!(f.body.op(op).mnemonic(), "add");
        assert_eq!(f.body.block_ops(entry), &[op]);
        let res = f.body.result(op, 0);
        assert_eq!(f.body.value_type(res), &i32_tensor(&[4]));
        assert_eq!(f.body.defining_op(res), Some(op));
        assert_eq!(f.body.op_index_in_block(op), 0);
    }

    #[test]
    fn nested_regions_and_walk() {
        let mut f = Func::new("t", vec![], vec![]);
        let entry = f.body.entry_block();
        // Op with one region whose entry block takes a memref argument.
        let launch = f.body.append_op(
            entry,
            "cnm.launch",
            vec![],
            vec![Type::Token],
            AttrMap::new(),
            vec![vec![Type::memref(&[16, 16], ScalarType::I32)]],
        );
        let inner_block = f.body.op_region_entry_block(launch, 0);
        let inner_arg = f.body.block_args(inner_block)[0];
        let inner = f.body.append_op(
            inner_block,
            "arith.addi",
            vec![inner_arg, inner_arg],
            vec![Type::memref(&[16, 16], ScalarType::I32)],
            AttrMap::new(),
            vec![],
        );
        let walked = f.body.walk();
        assert_eq!(walked, vec![launch, inner]);
        assert_eq!(f.body.ops_in_dialect("arith"), vec![inner]);
        assert_eq!(
            f.body.region_parent(f.body.op(launch).regions[0]),
            Some(launch)
        );
        assert_eq!(f.body.num_live_ops(), 2);
    }

    #[test]
    fn erase_op_is_recursive_and_unlinks() {
        let mut f = Func::new("t", vec![], vec![]);
        let entry = f.body.entry_block();
        let launch = f.body.append_op(
            entry,
            "cnm.launch",
            vec![],
            vec![],
            AttrMap::new(),
            vec![vec![]],
        );
        let inner_block = f.body.op_region_entry_block(launch, 0);
        let inner = f.body.append_op(
            inner_block,
            "arith.constant",
            vec![],
            vec![Type::i32()],
            AttrMap::new(),
            vec![],
        );
        assert_eq!(f.body.num_live_ops(), 2);
        f.body.erase_op(launch);
        assert_eq!(f.body.num_live_ops(), 0);
        assert!(!f.body.is_live(launch));
        assert!(!f.body.is_live(inner));
        assert!(f.body.block_ops(entry).is_empty());
        // Erasing twice is a no-op.
        f.body.erase_op(launch);
    }

    #[test]
    fn replace_all_uses_and_users() {
        let mut f = Func::new("t", vec![Type::i32(), Type::i32()], vec![]);
        let entry = f.body.entry_block();
        let (a, b) = (f.argument(0), f.argument(1));
        let add = f.body.append_op(
            entry,
            "arith.addi",
            vec![a, a],
            vec![Type::i32()],
            AttrMap::new(),
            vec![],
        );
        assert_eq!(f.body.users(a), vec![add]);
        assert!(f.body.users(b).is_empty());
        let n = f.body.replace_all_uses(a, b);
        assert_eq!(n, 2);
        assert_eq!(f.body.op(add).operands, vec![b, b]);
        assert!(f.body.users(a).is_empty());
    }

    #[test]
    fn insert_op_positions() {
        let mut f = Func::new("t", vec![Type::i32()], vec![]);
        let entry = f.body.entry_block();
        let a = f.argument(0);
        let second = f.body.append_op(
            entry,
            "arith.muli",
            vec![a, a],
            vec![Type::i32()],
            AttrMap::new(),
            vec![],
        );
        let first = f.body.insert_op(
            entry,
            0,
            "arith.addi",
            vec![a, a],
            vec![Type::i32()],
            AttrMap::new(),
            vec![],
        );
        assert_eq!(f.body.block_ops(entry), &[first, second]);
        assert_eq!(f.body.op_index_in_block(second), 1);
    }

    #[test]
    fn module_function_lookup() {
        let mut m = Module::new("bench");
        m.add_func(Func::new("a", vec![], vec![]));
        m.add_func(Func::new("b", vec![], vec![]));
        assert!(m.func("a").is_some());
        assert!(m.func("c").is_none());
        m.func_mut("b")
            .unwrap()
            .attrs
            .insert("cinm.target", Attribute::Str("upmem".into()));
        assert_eq!(m.func("b").unwrap().attrs.len(), 1);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn accessing_erased_op_panics() {
        let mut f = Func::new("t", vec![], vec![]);
        let entry = f.body.entry_block();
        let op = f.body.append_op(
            entry,
            "arith.constant",
            vec![],
            vec![Type::i32()],
            AttrMap::new(),
            vec![],
        );
        f.body.erase_op(op);
        let _ = f.body.op(op);
    }

    #[test]
    fn the_verifier_rejects_an_erased_op_left_in_a_block() {
        // `erase_op` unlinks what it erases, so only this module can build
        // the inconsistency the verifier guards against.
        let mut f = Func::new("bad", vec![], vec![]);
        let entry = f.body.entry_block();
        let op = f
            .body
            .append_op(entry, "t.op", vec![], vec![], AttrMap::new(), vec![]);
        f.body.ops[op.0 as usize] = None;
        let err =
            crate::registry::verify_func(&f, &crate::registry::DialectRegistry::new()).unwrap_err();
        assert!(err.to_string().contains("block contains erased op"));
    }
}
