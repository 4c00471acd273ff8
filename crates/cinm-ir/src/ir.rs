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
use std::marker::PhantomData;
use std::ops::{Deref, Range};

use crate::attributes::{insert_sorted, lookup, AttrMap, Attribute};
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
#[derive(Debug, Clone, Copy, PartialEq)]
struct ValueData {
    /// Static type of the value.
    ty: Type,
    /// How the value is produced.
    kind: ValueKind,
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

/// Consecutive ids `start .. start + len`: the results of an op (values) or
/// its regions, which [`OpSpec::push`](crate::OpSpec::push) creates back to
/// back. Three words and `Copy`, so an op stores no list of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdRange<T> {
    start: u32,
    len: u32,
    kind: PhantomData<T>,
}

impl<T: From<u32>> IdRange<T> {
    fn new(start: usize, len: usize) -> Self {
        IdRange {
            start: start as u32,
            len: len as u32,
            kind: PhantomData,
        }
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `index`-th id.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`IdRange::len`].
    pub fn get(&self, index: usize) -> T {
        assert!(
            index < self.len(),
            "id {index} of a range of {} ids",
            self.len
        );
        T::from(self.start + index as u32)
    }

    /// The ids as indices.
    fn range(&self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// The ids in order.
    pub fn iter(&self) -> std::iter::Map<Range<u32>, fn(u32) -> T> {
        (self.start..self.start + self.len).map(T::from)
    }
}

impl<T: From<u32>> IntoIterator for IdRange<T> {
    type Item = T;
    type IntoIter = std::iter::Map<Range<u32>, fn(u32) -> T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<u32> for ValueId {
    fn from(id: u32) -> Self {
        ValueId(id)
    }
}

impl From<u32> for RegionId {
    fn from(id: u32) -> Self {
        RegionId(id)
    }
}

/// An operation: the generic unit of computation/abstraction in the IR, as
/// [`Body::op`] shows it — a `Copy` view into the body's arenas.
///
/// The body stores an op as one fixed-size row: its name, ranges into the
/// body's operand and attribute pools, and the id ranges of its results and
/// regions. Nothing of an op lives on the heap by itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Operation<'a> {
    /// Fully qualified name, e.g. `"cinm.gemm"` or `"cnm.launch"`.
    pub name: OpName,
    /// SSA operands.
    pub operands: &'a [ValueId],
    /// SSA results.
    pub results: IdRange<ValueId>,
    /// Compile-time attributes, in ascending key order.
    pub attrs: &'a [(&'static str, Attribute)],
    /// Nested regions (e.g. the body of a `cnm.launch`).
    pub regions: IdRange<RegionId>,
}

impl<'a> Operation<'a> {
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
    pub fn attr(&self, key: &str) -> Option<&'a Attribute> {
        lookup(self.attrs, key)
    }

    /// Looks up an integer attribute by key.
    pub fn int_attr(&self, key: &str) -> Option<i64> {
        self.attr(key).and_then(Attribute::as_int)
    }

    /// Looks up a string attribute by key.
    pub fn str_attr(&self, key: &str) -> Option<&'a str> {
        self.attr(key).and_then(Attribute::as_str)
    }

    /// Looks up an integer-array attribute by key.
    pub fn int_array_attr(&self, key: &str) -> Option<&'a [i64]> {
        self.attr(key).and_then(Attribute::as_int_array)
    }

    /// Returns true if the op carries a unit/flag attribute with this key.
    pub fn has_attr(&self, key: &str) -> bool {
        self.attr(key).is_some()
    }
}

/// The row of one operation in the body arena.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OpData {
    name: OpName,
    /// The block that contains the op.
    block: BlockId,
    /// Range of [`Body::operands`].
    operands: IdRange<u32>,
    /// Range of [`Body::attrs`], sorted by key.
    attrs: IdRange<u32>,
    results: IdRange<ValueId>,
    regions: IdRange<RegionId>,
}

/// A basic block: a list of operations plus block arguments.
#[derive(Debug, Clone, PartialEq)]
struct BlockData {
    /// Block arguments (SSA values).
    args: Vec<ValueId>,
    /// Operations in program order.
    ops: Vec<OpId>,
    /// The region this block belongs to.
    region: RegionId,
}

/// A region: an ordered list of blocks owned by an operation (or the function
/// entry).
#[derive(Debug, Clone, PartialEq)]
struct RegionData {
    /// Blocks of the region; the first one is the entry block.
    blocks: Vec<BlockId>,
    /// The operation owning the region, or `None` for the function body.
    parent_op: Option<OpId>,
}

/// Where the lists of an op under construction start in the body's arenas
/// (see [`Body::begin_op`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingOp {
    operands: usize,
    attrs: usize,
    results: usize,
}

/// The arena holding every op/value/block/region of one function.
///
/// Operand and attribute lists live in two pools shared by every op of the
/// body, each op holding one range of each. A rewrite that adds an attribute
/// to an op moves the op's list to the end of the pool (the old range stays
/// behind, unused) unless it is there already; `replace_all_uses` edits the
/// lists in place. Once the arenas have grown, creating, rewriting and
/// erasing an op allocates nothing. Equality compares the arenas, unused
/// ranges included.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Body {
    ops: Vec<Option<OpData>>,
    values: Vec<ValueData>,
    blocks: Vec<BlockData>,
    regions: Vec<RegionData>,
    operands: Vec<ValueId>,
    attrs: Vec<(&'static str, Attribute)>,
    /// Entry-argument types of the regions of the op under construction, and
    /// how many each region takes.
    region_args: Vec<Type>,
    region_lens: Vec<u32>,
}

impl Body {
    /// Creates a body with an empty entry region and entry block, its arenas
    /// sized for a lowered program of the benchmark suite (up to about 50
    /// ops) so that building and lowering one rarely regrows them.
    pub fn new() -> Self {
        let mut body = Body {
            ops: Vec::with_capacity(64),
            values: Vec::with_capacity(64),
            blocks: Vec::with_capacity(8),
            regions: Vec::with_capacity(8),
            operands: Vec::with_capacity(128),
            attrs: Vec::with_capacity(64),
            ..Body::default()
        };
        let region = body.push_region(None);
        let entry = body.push_block(region);
        body.blocks[entry.0 as usize].ops.reserve(64);
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

    /// Starts an op: its operands, attributes and results are appended to the
    /// arenas by the `stage_*` methods, and [`Body::finish_op`] creates it.
    /// Only [`OpSpec`](crate::OpSpec) calls these, holding the body
    /// exclusively in between, so the lists of one op stay contiguous.
    pub(crate) fn begin_op(&mut self) -> PendingOp {
        self.region_args.clear();
        self.region_lens.clear();
        PendingOp {
            operands: self.operands.len(),
            attrs: self.attrs.len(),
            results: self.values.len(),
        }
    }

    pub(crate) fn stage_operand(&mut self, v: ValueId) {
        assert!(
            (v.0 as usize) < self.values.len(),
            "operand {v} does not exist in this body"
        );
        self.operands.push(v);
    }

    pub(crate) fn stage_attr(&mut self, op: &PendingOp, key: &'static str, value: Attribute) {
        insert_sorted(&mut self.attrs, op.attrs, key, value);
    }

    /// Creates the next result: results are numbered consecutively, and the
    /// op takes the next op id when it is finished.
    pub(crate) fn stage_result(&mut self, op: &PendingOp, ty: Type) {
        let kind = ValueKind::OpResult {
            op: OpId(self.ops.len() as u32),
            index: self.values.len() - op.results,
        };
        self.push_value(ty, kind);
    }

    pub(crate) fn stage_region(&mut self, entry_arg_types: impl IntoIterator<Item = Type>) {
        let before = self.region_args.len();
        self.region_args.extend(entry_arg_types);
        self.region_lens
            .push((self.region_args.len() - before) as u32);
    }

    /// Creates the op staged since `op` at position `index` of `block` (at
    /// its end for `None`), with its regions and their entry blocks.
    ///
    /// # Panics
    ///
    /// Panics if `index` is greater than the number of ops in the block.
    pub(crate) fn finish_op(
        &mut self,
        op: PendingOp,
        name: &'static str,
        block: BlockId,
        index: Option<usize>,
    ) -> OpId {
        let len = self.blocks[block.0 as usize].ops.len();
        let index = index.unwrap_or(len);
        assert!(index <= len, "insertion index {index} out of range");
        let id = OpId(self.ops.len() as u32);
        let regions = IdRange::new(self.regions.len(), self.region_lens.len());
        self.ops.push(Some(OpData {
            name: OpName(name),
            block,
            operands: IdRange::new(op.operands, self.operands.len() - op.operands),
            attrs: IdRange::new(op.attrs, self.attrs.len() - op.attrs),
            results: IdRange::new(op.results, self.values.len() - op.results),
            regions,
        }));
        // Regions are created back to back; their blocks and entry arguments
        // go to the other arenas.
        let mut arg = 0;
        for r in 0..self.region_lens.len() {
            let region = self.push_region(Some(id));
            let entry = self.push_block(region);
            for _ in 0..self.region_lens[r] {
                let ty = self.region_args[arg];
                self.add_block_arg(entry, ty);
                arg += 1;
            }
        }
        self.region_args.clear();
        self.region_lens.clear();
        self.blocks[block.0 as usize].ops.insert(index, id);
        id
    }

    fn data(&self, id: OpId) -> &OpData {
        self.ops
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .unwrap_or_else(|| panic!("{id} does not exist (erased?)"))
    }

    fn data_mut(&mut self, id: OpId) -> &mut OpData {
        self.ops
            .get_mut(id.0 as usize)
            .and_then(|s| s.as_mut())
            .unwrap_or_else(|| panic!("{id} does not exist (erased?)"))
    }

    /// Returns the operation.
    ///
    /// # Panics
    ///
    /// Panics if the operation has been erased.
    pub fn op(&self, id: OpId) -> Operation<'_> {
        let d = self.data(id);
        Operation {
            name: d.name,
            operands: &self.operands[d.operands.range()],
            results: d.results,
            attrs: &self.attrs[d.attrs.range()],
            regions: d.regions,
        }
    }

    /// Renames an operation (the dialect conversions map ops one to one).
    ///
    /// # Panics
    ///
    /// Panics if the operation has been erased.
    pub fn rename_op(&mut self, id: OpId, name: &'static str) {
        self.data_mut(id).name = OpName(name);
    }

    /// Sets attribute `key` of an operation to `value`; returns the value it
    /// replaces, if any. A new key moves the op's attribute list to the end
    /// of the pool, unless it is there already, and inserts it in key order.
    ///
    /// # Panics
    ///
    /// Panics if the operation has been erased.
    pub fn set_attr(&mut self, id: OpId, key: &'static str, value: Attribute) -> Option<Attribute> {
        let span = self.data(id).attrs;
        let entries = &mut self.attrs[span.range()];
        if let Some((_, slot)) = entries.iter_mut().find(|(k, _)| *k == key) {
            return Some(std::mem::replace(slot, value));
        }
        let start = if span.range().end == self.attrs.len() {
            span.start as usize
        } else {
            // Move, not clone: the abandoned entries keep nothing.
            let start = self.attrs.len();
            for i in span.range() {
                let entry = (
                    self.attrs[i].0,
                    std::mem::replace(&mut self.attrs[i].1, Attribute::Unit),
                );
                self.attrs.push(entry);
            }
            start
        };
        insert_sorted(&mut self.attrs, start, key, value);
        self.data_mut(id).attrs = IdRange::new(start, self.attrs.len() - start);
        None
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
        self.data(id).results.get(index)
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
        let r = self.data(op).regions.get(region_idx);
        self.regions[r.0 as usize].blocks[0]
    }

    /// Replaces every use of `old` with `new` across all live operations.
    ///
    /// Returns the number of operand slots that were rewritten.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) -> usize {
        let mut count = 0;
        for d in self.ops.iter().flatten() {
            for operand in &mut self.operands[d.operands.range()] {
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
        for (i, d) in self.ops.iter().enumerate() {
            if let Some(d) = d {
                if self.operands[d.operands.range()].contains(&v) {
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
        let Some(d) = self.ops[id.0 as usize].take() else {
            return;
        };
        // Recursively erase nested ops; their blocks die with the op.
        for r in d.regions {
            for b in 0..self.regions[r.0 as usize].blocks.len() {
                let block = self.regions[r.0 as usize].blocks[b];
                for nested in std::mem::take(&mut self.blocks[block.0 as usize].ops) {
                    self.erase_op(nested);
                }
            }
        }
        // Unlink from the owning block.
        let block_ops = &mut self.blocks[d.block.0 as usize].ops;
        if let Some(pos) = block_ops.iter().position(|&o| o == id) {
            block_ops.remove(pos);
        }
    }

    /// Pre-order walk of all live operations reachable from the entry region.
    pub fn walk(&self) -> Vec<OpId> {
        // Sized for every op ever created: one allocation, never a regrowth.
        let mut out = Vec::with_capacity(self.ops.len());
        self.visit(self.entry_region(), &mut |op| out.push(op));
        out
    }

    /// Calls `f` on every live op of `region` and of the regions nested in
    /// it, in pre-order.
    fn visit(&self, region: RegionId, f: &mut impl FnMut(OpId)) {
        for &b in &self.regions[region.0 as usize].blocks {
            for &op in &self.blocks[b.0 as usize].ops {
                let Some(d) = &self.ops[op.0 as usize] else {
                    continue;
                };
                f(op);
                for r in d.regions {
                    self.visit(r, f);
                }
            }
        }
    }

    /// All live ops with the given fully qualified name, in walk order.
    pub fn ops_with_name(&self, name: &str) -> Vec<OpId> {
        let mut out = Vec::new();
        self.visit(self.entry_region(), &mut |op| {
            if self.data(op).name == name {
                out.push(op);
            }
        });
        out
    }

    /// All live ops belonging to the given dialect, in walk order.
    pub fn ops_in_dialect(&self, dialect: &str) -> Vec<OpId> {
        let mut out = Vec::new();
        self.visit(self.entry_region(), &mut |op| {
            if dialect_of(&self.data(op).name) == dialect {
                out.push(op);
            }
        });
        out
    }

    /// Number of live operations (including nested ones).
    pub fn num_live_ops(&self) -> usize {
        let mut n = 0;
        self.visit(self.entry_region(), &mut |_| n += 1);
        n
    }
}

#[cfg(test)]
impl Body {
    /// An op's result range and operand list, writable, so that tests can
    /// build the inconsistencies the verifier guards against.
    pub(crate) fn raw_parts_mut(&mut self, id: OpId) -> (&mut IdRange<ValueId>, &mut [ValueId]) {
        let d = self.ops[id.0 as usize].as_mut().expect("a live op");
        (&mut d.results, &mut self.operands[d.operands.range()])
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
    pub fn new(
        name: &str,
        input_types: impl IntoIterator<Item = Type>,
        result_types: Vec<Type>,
    ) -> Self {
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
    use crate::builder::OpBuilder;
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
        let op = OpBuilder::at_end(&mut f.body, entry)
            .op("cinm.add")
            .operands([arg, arg])
            .result(i32_tensor(&[4]))
            .push()
            .id;
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
        let launch = OpBuilder::at_end(&mut f.body, entry)
            .op("cnm.launch")
            .result(Type::Token)
            .region([Type::memref(&[16, 16], ScalarType::I32)])
            .push()
            .id;
        let inner_block = f.body.op_region_entry_block(launch, 0);
        let inner_arg = f.body.block_args(inner_block)[0];
        let inner = OpBuilder::at_end(&mut f.body, inner_block)
            .op("arith.addi")
            .operands([inner_arg, inner_arg])
            .result(Type::memref(&[16, 16], ScalarType::I32))
            .push()
            .id;
        let walked = f.body.walk();
        assert_eq!(walked, vec![launch, inner]);
        assert_eq!(f.body.ops_in_dialect("arith"), vec![inner]);
        assert_eq!(
            f.body.region_parent(f.body.op(launch).regions.get(0)),
            Some(launch)
        );
        assert_eq!(f.body.num_live_ops(), 2);
    }

    #[test]
    fn erase_op_is_recursive_and_unlinks() {
        let mut f = Func::new("t", vec![], vec![]);
        let entry = f.body.entry_block();
        let launch = OpBuilder::at_end(&mut f.body, entry)
            .op("cnm.launch")
            .region([])
            .push()
            .id;
        let inner_block = f.body.op_region_entry_block(launch, 0);
        let inner = OpBuilder::at_end(&mut f.body, inner_block)
            .op("arith.constant")
            .result(Type::i32())
            .push()
            .id;
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
        let add = OpBuilder::at_end(&mut f.body, entry)
            .op("arith.addi")
            .operands([a, a])
            .result(Type::i32())
            .push()
            .id;
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
        let second = OpBuilder::at_end(&mut f.body, entry)
            .op("arith.muli")
            .operands([a, a])
            .result(Type::i32())
            .push()
            .id;
        let first = OpBuilder::at_end(&mut f.body, entry)
            .op("arith.addi")
            .operands([a, a])
            .result(Type::i32())
            .push_at(0)
            .id;
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
        let op = OpBuilder::at_end(&mut f.body, entry)
            .op("arith.constant")
            .result(Type::i32())
            .push()
            .id;
        f.body.erase_op(op);
        let _ = f.body.op(op);
    }

    #[test]
    fn the_verifier_rejects_an_erased_op_left_in_a_block() {
        // `erase_op` unlinks what it erases, so only this module can build
        // the inconsistency the verifier guards against.
        let mut f = Func::new("bad", vec![], vec![]);
        let entry = f.body.entry_block();
        let op = OpBuilder::at_end(&mut f.body, entry).op("t.op").push().id;
        f.body.ops[op.0 as usize] = None;
        let err =
            crate::registry::verify_func(&f, &crate::registry::DialectRegistry::new()).unwrap_err();
        assert!(err.to_string().contains("block contains erased op"));
    }
}
