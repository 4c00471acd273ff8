//! Dialect registry and structural verifier.
//!
//! A dialect (defined in the `cinm-dialects` crate) is a `static` table of
//! per-operation constraints; a [`DialectRegistry`] is a view over the tables
//! added to it. The [`verify_func`]/[`verify_module`] entry points check both
//! generic SSA well-formedness and the constraints of the registered tables.
//! This is the mechanism through which device dialects "plug into" the flow,
//! mirroring how MLIR dialects register themselves with the context.

use crate::error::{IrError, IrResult};
use crate::ir::{dialect_of, Body, Func, Module, OpId, RegionId, ValueId, ValueKind};

/// A custom verification hook for a registered operation.
pub type OpVerifier = fn(&crate::ir::Operation, &Body) -> Result<(), String>;

/// Constraints describing one registered operation: one row of a dialect
/// table, built in a `static` by the `const` methods below.
#[derive(Debug, Clone, Copy)]
pub struct OpConstraint {
    /// Fully qualified op name, e.g. `"cnm.scatter"`.
    pub name: &'static str,
    /// Exact number of operands, if fixed.
    pub num_operands: Option<usize>,
    /// Minimum number of operands (used when `num_operands` is `None`).
    pub min_operands: usize,
    /// Exact number of results, if fixed.
    pub num_results: Option<usize>,
    /// Exact number of regions, if fixed.
    pub num_regions: Option<usize>,
    /// Attributes that must be present.
    pub required_attrs: &'static [&'static str],
    /// Whether the op terminates a block.
    pub is_terminator: bool,
    /// Optional custom verifier.
    pub verifier: Option<OpVerifier>,
}

impl OpConstraint {
    /// Creates a permissive constraint for the given op name.
    pub const fn new(name: &'static str) -> Self {
        OpConstraint {
            name,
            num_operands: None,
            min_operands: 0,
            num_results: None,
            num_regions: Some(0),
            required_attrs: &[],
            is_terminator: false,
            verifier: None,
        }
    }

    /// Requires an exact operand count.
    pub const fn operands(mut self, n: usize) -> Self {
        self.num_operands = Some(n);
        self
    }

    /// Requires at least `n` operands (and relaxes the exact count).
    pub const fn min_operands(mut self, n: usize) -> Self {
        self.num_operands = None;
        self.min_operands = n;
        self
    }

    /// Requires an exact result count.
    pub const fn results(mut self, n: usize) -> Self {
        self.num_results = Some(n);
        self
    }

    /// Requires an exact region count.
    pub const fn regions(mut self, n: usize) -> Self {
        self.num_regions = Some(n);
        self
    }

    /// Allows any number of regions.
    pub const fn any_regions(mut self) -> Self {
        self.num_regions = None;
        self
    }

    /// Requires the presence of the given attributes.
    pub const fn required_attrs(mut self, keys: &'static [&'static str]) -> Self {
        self.required_attrs = keys;
        self
    }

    /// Marks the op as a block terminator.
    pub const fn terminator(mut self) -> Self {
        self.is_terminator = true;
        self
    }

    /// Attaches a custom verifier hook.
    pub const fn with_verifier(mut self, v: OpVerifier) -> Self {
        self.verifier = Some(v);
        self
    }

    /// The dialect prefix of the registered op.
    pub fn dialect(&self) -> &'static str {
        dialect_of(self.name)
    }
}

/// Registry of dialects and their operations: references to the `static`
/// dialect tables added to it, nothing owned per op.
#[derive(Debug, Clone, Default)]
pub struct DialectRegistry {
    /// `(dialect, its ops sorted by name)`, in the order the tables were added.
    tables: Vec<(&'static str, &'static [OpConstraint])>,
    /// When true, ops from unregistered dialects are accepted (MLIR's
    /// `allow-unregistered-dialect`).
    pub allow_unregistered: bool,
}

impl DialectRegistry {
    /// Creates an empty registry that rejects unknown dialects.
    pub fn new() -> Self {
        DialectRegistry {
            // Room for the CINM stack and more: building a registry allocates once.
            tables: Vec::with_capacity(16),
            allow_unregistered: false,
        }
    }

    /// Adds one dialect: a table of constraints whose names all carry the same
    /// `dialect.` prefix, sorted by name.
    ///
    /// # Panics
    ///
    /// Panics, naming the op, if the table is empty, its dialect is already
    /// registered, or its names are not one dialect's, each once, in order.
    pub fn add_table(&mut self, ops: &'static [OpConstraint]) {
        let first = ops.first().expect("a dialect table declares an op");
        let dialect = first.dialect();
        assert!(
            !self.has_dialect(dialect),
            "dialect '{dialect}' is already registered (adding '{}')",
            first.name
        );
        for pair in ops.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "op '{}' does not sort after '{}': a table is one dialect's ops by name",
                pair[1].name,
                pair[0].name
            );
        }
        // Names sorted between two names that start with `dialect.` start with
        // it too, and only the smallest could be the bare prefix: checking the
        // two ends checks every row.
        for c in [first, &ops[ops.len() - 1]] {
            let mnemonic = c.name.strip_prefix(dialect).unwrap_or("");
            assert!(
                mnemonic.len() > 1 && mnemonic.starts_with('.'),
                "op '{}' is not prefixed by its table's dialect '{dialect}.'",
                c.name
            );
        }
        self.tables.push((dialect, ops));
    }

    fn table(&self, dialect: &str) -> Option<&'static [OpConstraint]> {
        let &(_, ops) = self.tables.iter().find(|(d, _)| *d == dialect)?;
        Some(ops)
    }

    /// Looks up the constraint for a fully qualified op name: the table of its
    /// dialect prefix first, then the op inside that one table.
    pub fn constraint(&self, name: &str) -> Option<&OpConstraint> {
        let ops = self.table(dialect_of(name))?;
        let i = ops.binary_search_by(|c| c.name.cmp(name)).ok()?;
        Some(&ops[i])
    }

    /// Whether the dialect prefix has any registered op.
    pub fn has_dialect(&self, dialect: &str) -> bool {
        self.table(dialect).is_some()
    }

    /// Registered op names of a dialect, sorted.
    pub fn ops_of_dialect(&self, dialect: &str) -> Vec<&str> {
        let ops = self.table(dialect).unwrap_or_default();
        ops.iter().map(|c| c.name).collect()
    }

    /// Total number of registered ops.
    pub fn num_ops(&self) -> usize {
        self.tables.iter().map(|(_, ops)| ops.len()).sum()
    }
}

/// Verifies a whole module against a registry.
pub fn verify_module(module: &Module, registry: &DialectRegistry) -> IrResult<()> {
    for func in &module.funcs {
        verify_func(func, registry)?;
    }
    Ok(())
}

/// The values an op may use at the current point of the walk: a flag per
/// value of the body, plus the values flagged so far in definition order, so
/// that leaving a region can take back exactly what the region defined.
struct Scope {
    visible: Vec<bool>,
    defined: Vec<ValueId>,
}

impl Scope {
    fn define(&mut self, v: ValueId) {
        if !std::mem::replace(&mut self.visible[v.0 as usize], true) {
            self.defined.push(v);
        }
    }

    /// Hides every value defined since `self.defined` was `mark` long.
    fn leave_region(&mut self, mark: usize) {
        for v in self.defined.drain(mark..) {
            self.visible[v.0 as usize] = false;
        }
    }
}

/// Verifies one function: SSA structure plus registered op constraints.
pub fn verify_func(func: &Func, registry: &DialectRegistry) -> IrResult<()> {
    let body = &func.body;
    // Def-before-use, region nesting and per-op constraints, via a recursive
    // walk that carries the visible values. Each value is logged at most once
    // at a time, so neither vector grows during the walk.
    let mut scope = Scope {
        visible: vec![false; body.num_values()],
        defined: Vec::with_capacity(body.num_values()),
    };
    verify_region(body, body.entry_region(), &mut scope, registry)
        .map_err(|e| e.with_context(format!("verify @{}", func.name)))
}

fn verify_region(
    body: &Body,
    region: RegionId,
    scope: &mut Scope,
    registry: &DialectRegistry,
) -> IrResult<()> {
    // Values defined in a block stay visible for sibling blocks of the same
    // region (we do not model full dominance; single-block regions are the
    // common case in the CINM pipeline).
    for &block in body.region_blocks(region) {
        for &arg in body.block_args(block) {
            scope.define(arg);
        }
        let ops = body.block_ops(block);
        for (i, &op) in ops.iter().enumerate() {
            if !body.is_live(op) {
                return Err(IrError::new(format!("block contains erased op {op}")));
            }
            let constraint = verify_op(body, op, scope, registry)?;
            // Terminators must be last.
            if constraint.is_some_and(|c| c.is_terminator) && i + 1 != ops.len() {
                return Err(IrError::new(format!(
                    "terminator '{}' is not the last op of its block",
                    body.op(op).name
                )));
            }
            for &r in body.op(op).results.iter() {
                scope.define(r);
            }
        }
    }
    Ok(())
}

/// Verifies one op and everything nested in it; returns the constraint the
/// registry holds for it.
fn verify_op<'r>(
    body: &Body,
    op: OpId,
    scope: &mut Scope,
    registry: &'r DialectRegistry,
) -> IrResult<Option<&'r OpConstraint>> {
    let operation = body.op(op);
    // Structural: operands must be defined and visible.
    for &operand in &operation.operands {
        match scope.visible.get(operand.0 as usize) {
            None => {
                return Err(IrError::new(format!(
                    "op '{}' references undefined value {operand}",
                    operation.name
                )))
            }
            // Everything defined on the path so far is visible, so a miss
            // means either use-before-def or a cross-region escape.
            Some(false) => {
                return Err(IrError::new(format!(
                    "op '{}' uses value {operand} before its definition",
                    operation.name
                )))
            }
            Some(true) => {}
        }
    }
    // Results must point back at this op.
    for (i, &r) in operation.results.iter().enumerate() {
        match body.value_kind(r) {
            ValueKind::OpResult { op: def, index } if def == op && index == i => {}
            _ => {
                return Err(IrError::new(format!(
                    "result {i} of op '{}' has inconsistent definition record",
                    operation.name
                )))
            }
        }
    }
    // Registered constraints.
    let constraint = registry.constraint(&operation.name);
    match constraint {
        Some(c) => {
            if let Some(n) = c.num_operands {
                if operation.operands.len() != n {
                    return Err(IrError::new(format!(
                        "op '{}' expects {n} operands, found {}",
                        operation.name,
                        operation.operands.len()
                    )));
                }
            } else if operation.operands.len() < c.min_operands {
                return Err(IrError::new(format!(
                    "op '{}' expects at least {} operands, found {}",
                    operation.name,
                    c.min_operands,
                    operation.operands.len()
                )));
            }
            if let Some(n) = c.num_results {
                if operation.results.len() != n {
                    return Err(IrError::new(format!(
                        "op '{}' expects {n} results, found {}",
                        operation.name,
                        operation.results.len()
                    )));
                }
            }
            if let Some(n) = c.num_regions {
                if operation.regions.len() != n {
                    return Err(IrError::new(format!(
                        "op '{}' expects {n} regions, found {}",
                        operation.name,
                        operation.regions.len()
                    )));
                }
            }
            for &key in c.required_attrs {
                if !operation.attrs.contains_key(key) {
                    return Err(IrError::new(format!(
                        "op '{}' is missing required attribute '{key}'",
                        operation.name
                    )));
                }
            }
            if let Some(v) = c.verifier {
                v(operation, body).map_err(|m| {
                    IrError::new(format!("op '{}' failed verification: {m}", operation.name))
                })?;
            }
        }
        None => {
            let dialect = operation.dialect();
            if !registry.allow_unregistered && registry.has_dialect(dialect) {
                return Err(IrError::new(format!(
                    "unknown op '{}' in registered dialect '{dialect}'",
                    operation.name
                )));
            }
            if !registry.allow_unregistered
                && !registry.has_dialect(dialect)
                && registry.num_ops() > 0
            {
                return Err(IrError::new(format!(
                    "op '{}' belongs to unregistered dialect '{dialect}'",
                    operation.name
                )));
            }
        }
    }
    // Values defined inside a region are not visible outside of it, nor in a
    // sibling region of the same op.
    for &r in &operation.regions {
        let mark = scope.defined.len();
        verify_region(body, r, scope, registry)?;
        scope.leave_region(mark);
    }
    Ok(constraint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttrMap;
    use crate::builder::{OpBuilder, OpSpec};
    use crate::ir::Func;
    use crate::types::Type;

    static TEST_OPS: &[OpConstraint] = &[
        OpConstraint::new("test.binary").operands(2).results(1),
        OpConstraint::new("test.ret")
            .min_operands(0)
            .results(0)
            .terminator(),
        OpConstraint::new("test.tiled")
            .operands(1)
            .results(1)
            .required_attrs(&["tile_sizes"]),
    ];

    fn registry() -> DialectRegistry {
        let mut r = DialectRegistry::new();
        r.add_table(TEST_OPS);
        r
    }

    #[test]
    fn registry_queries() {
        let r = registry();
        assert_eq!(r.num_ops(), 3);
        assert!(r.has_dialect("test"));
        assert!(!r.has_dialect("cinm"));
        assert_eq!(r.ops_of_dialect("test").len(), 3);
        assert!(r.constraint("test.binary").is_some());
    }

    #[test]
    fn verifies_valid_function() {
        let mut f = Func::new("ok", vec![Type::i32(), Type::i32()], vec![Type::i32()]);
        let entry = f.body.entry_block();
        let args = f.arguments();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let add = b.push(
            OpSpec::new("test.binary")
                .operands([args[0], args[1]])
                .result(Type::i32()),
        );
        b.push(OpSpec::new("test.ret").operand(add.result()));
        assert!(verify_func(&f, &registry()).is_ok());
    }

    #[test]
    fn rejects_wrong_operand_count() {
        let mut f = Func::new("bad", vec![Type::i32()], vec![]);
        let entry = f.body.entry_block();
        let a = f.argument(0);
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        b.push(OpSpec::new("test.binary").operand(a).result(Type::i32()));
        let err = verify_func(&f, &registry()).unwrap_err();
        assert!(err.to_string().contains("expects 2 operands"));
    }

    #[test]
    fn rejects_missing_required_attr() {
        let mut f = Func::new("bad", vec![Type::i32()], vec![]);
        let entry = f.body.entry_block();
        let a = f.argument(0);
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        b.push(OpSpec::new("test.tiled").operand(a).result(Type::i32()));
        let err = verify_func(&f, &registry()).unwrap_err();
        assert!(err.to_string().contains("missing required attribute"));
    }

    #[test]
    fn rejects_terminator_in_middle() {
        let mut f = Func::new("bad", vec![], vec![]);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        b.push(OpSpec::new("test.ret"));
        b.push(OpSpec::new("test.ret"));
        let err = verify_func(&f, &registry()).unwrap_err();
        assert!(err.to_string().contains("not the last op"));
    }

    #[test]
    fn rejects_unknown_op_in_registered_dialect() {
        let mut f = Func::new("bad", vec![], vec![]);
        let entry = f.body.entry_block();
        f.body.append_op(
            entry,
            "test.unknown",
            vec![],
            vec![],
            AttrMap::new(),
            vec![],
        );
        let err = verify_func(&f, &registry()).unwrap_err();
        assert!(err.to_string().contains("unknown op"));
    }

    #[test]
    fn allows_unregistered_when_configured() {
        let mut f = Func::new("ok", vec![], vec![]);
        let entry = f.body.entry_block();
        f.body
            .append_op(entry, "other.op", vec![], vec![], AttrMap::new(), vec![]);
        let mut r = registry();
        assert!(verify_func(&f, &r).is_err());
        r.allow_unregistered = true;
        assert!(verify_func(&f, &r).is_ok());
    }

    #[test]
    fn empty_registry_accepts_everything() {
        let mut f = Func::new("ok", vec![], vec![]);
        let entry = f.body.entry_block();
        f.body
            .append_op(entry, "any.op", vec![], vec![], AttrMap::new(), vec![]);
        assert!(verify_func(&f, &DialectRegistry::new()).is_ok());
    }

    #[test]
    fn use_before_def_is_rejected() {
        let mut f = Func::new("bad", vec![], vec![]);
        let entry = f.body.entry_block();
        // Create the def first so the value id exists, then move the use in
        // front of it.
        let def = f.body.append_op(
            entry,
            "test.ret",
            vec![],
            vec![Type::i32()],
            AttrMap::new(),
            vec![],
        );
        let v = f.body.result(def, 0);
        f.body.insert_op(
            entry,
            0,
            "test.binary",
            vec![v, v],
            vec![Type::i32()],
            AttrMap::new(),
            vec![],
        );
        let mut r = DialectRegistry::new();
        r.allow_unregistered = true;
        let err = verify_func(&f, &r).unwrap_err();
        assert!(err.to_string().contains("before its definition"));
    }

    #[test]
    fn lookup_goes_through_the_dialect_prefix() {
        let r = registry();
        for c in TEST_OPS {
            assert!(std::ptr::eq(r.constraint(c.name).unwrap(), c));
        }
        assert_eq!(
            r.ops_of_dialect("test"),
            ["test.binary", "test.ret", "test.tiled"]
        );
        for missing in ["test.binarz", "test.re", "test", "test.", "tes.binary", ""] {
            assert!(r.constraint(missing).is_none(), "{missing:?}");
        }
        assert!(r.ops_of_dialect("other").is_empty());
    }

    #[test]
    #[should_panic(expected = "dialect 'test' is already registered")]
    fn a_dialect_is_added_once() {
        registry().add_table(TEST_OPS);
    }

    #[test]
    #[should_panic(expected = "op 'test.a' does not sort after 'test.a'")]
    fn a_duplicate_name_is_refused_whatever_else_differs() {
        static OPS: &[OpConstraint] = &[
            OpConstraint::new("test.a").operands(2),
            OpConstraint::new("test.a").operands(2).results(1),
        ];
        DialectRegistry::new().add_table(OPS);
    }

    #[test]
    #[should_panic(expected = "op 'test.a' does not sort after 'test.c'")]
    fn a_table_is_sorted_by_name() {
        static OPS: &[OpConstraint] = &[
            OpConstraint::new("test.a"),
            OpConstraint::new("test.c"),
            OpConstraint::new("test.a"),
        ];
        DialectRegistry::new().add_table(OPS);
    }

    #[test]
    #[should_panic(expected = "op 'tesu.b' is not prefixed by its table's dialect 'test.'")]
    fn a_table_holds_one_dialect() {
        static OPS: &[OpConstraint] = &[OpConstraint::new("test.a"), OpConstraint::new("tesu.b")];
        DialectRegistry::new().add_table(OPS);
    }

    #[test]
    #[should_panic(expected = "op 'test.c' does not sort after 'tesu.b'")]
    fn a_foreign_row_in_the_middle_breaks_the_order() {
        static OPS: &[OpConstraint] = &[
            OpConstraint::new("test.a"),
            OpConstraint::new("tesu.b"),
            OpConstraint::new("test.c"),
        ];
        DialectRegistry::new().add_table(OPS);
    }

    #[test]
    #[should_panic(expected = "op 'test' is not prefixed")]
    fn a_bare_dialect_is_not_an_op_name() {
        static OPS: &[OpConstraint] = &[OpConstraint::new("test")];
        DialectRegistry::new().add_table(OPS);
    }

    /// Appends `t.region` with `regions` empty single-block regions.
    fn region_op(f: &mut Func, block: crate::ir::BlockId, regions: usize) -> OpId {
        f.body.append_op(
            block,
            "t.region",
            vec![],
            vec![],
            AttrMap::new(),
            vec![vec![]; regions],
        )
    }

    fn def(f: &mut Func, block: crate::ir::BlockId) -> ValueId {
        let op = f.body.append_op(
            block,
            "t.def",
            vec![],
            vec![Type::i32()],
            AttrMap::new(),
            vec![],
        );
        f.body.result(op, 0)
    }

    fn use_of(f: &mut Func, block: crate::ir::BlockId, v: ValueId) {
        f.body
            .append_op(block, "t.use", vec![v], vec![], AttrMap::new(), vec![]);
    }

    fn scoping_error(f: &Func) -> String {
        verify_func(f, &DialectRegistry::new())
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn a_region_value_does_not_escape_its_region() {
        let mut f = Func::new("bad", vec![], vec![]);
        let entry = f.body.entry_block();
        let holder = region_op(&mut f, entry, 1);
        let inner = f.body.op_region_entry_block(holder, 0);
        let v = def(&mut f, inner);
        use_of(&mut f, inner, v);
        assert!(verify_func(&f, &DialectRegistry::new()).is_ok());
        use_of(&mut f, entry, v);
        let error = scoping_error(&f);
        assert!(error.contains("op 't.use' uses value") && error.contains("before its definition"));
    }

    #[test]
    fn a_region_value_is_not_visible_in_a_sibling_region() {
        let mut f = Func::new("bad", vec![], vec![]);
        let entry = f.body.entry_block();
        let holder = region_op(&mut f, entry, 2);
        let (first, second) = (
            f.body.op_region_entry_block(holder, 0),
            f.body.op_region_entry_block(holder, 1),
        );
        let v = def(&mut f, first);
        use_of(&mut f, second, v);
        assert!(scoping_error(&f).contains("before its definition"));
    }

    #[test]
    fn an_outer_value_is_visible_three_regions_deep_and_after_them() {
        let mut f = Func::new("ok", vec![Type::i32()], vec![]);
        let entry = f.body.entry_block();
        let (arg, v) = (f.argument(0), def(&mut f, entry));
        let mut block = entry;
        for _ in 0..3 {
            let holder = region_op(&mut f, block, 1);
            block = f.body.op_region_entry_block(holder, 0);
            use_of(&mut f, block, v);
        }
        use_of(&mut f, block, arg);
        // Leaving the regions takes back what they defined, not what was
        // visible before them.
        use_of(&mut f, entry, v);
        use_of(&mut f, entry, arg);
        assert!(verify_func(&f, &DialectRegistry::new()).is_ok());
    }

    #[test]
    fn a_block_value_is_visible_in_the_next_block_of_its_region() {
        let mut f = Func::new("ok", vec![], vec![]);
        let entry = f.body.entry_block();
        let holder = region_op(&mut f, entry, 1);
        let block0 = f.body.op_region_entry_block(holder, 0);
        let block1 = f.body.add_block(f.body.block_region(block0));
        let v = def(&mut f, block0);
        let a = f.body.add_block_arg(block1, Type::i32());
        use_of(&mut f, block1, v);
        use_of(&mut f, block1, a);
        assert!(verify_func(&f, &DialectRegistry::new()).is_ok());
        // ... and still not outside that region.
        use_of(&mut f, entry, a);
        assert!(scoping_error(&f).contains("before its definition"));
    }

    #[test]
    fn a_result_defined_elsewhere_is_rejected() {
        let mut f = Func::new("bad", vec![], vec![]);
        let entry = f.body.entry_block();
        let (a, b) = (def(&mut f, entry), def(&mut f, entry));
        let (op_a, op_b) = (
            f.body.defining_op(a).unwrap(),
            f.body.defining_op(b).unwrap(),
        );
        f.body.op_mut(op_a).results = vec![b];
        f.body.op_mut(op_b).results = vec![a];
        assert!(
            scoping_error(&f).contains("result 0 of op 't.def' has inconsistent definition record")
        );
    }

    #[test]
    fn an_out_of_range_operand_is_rejected() {
        let mut f = Func::new("bad", vec![], vec![]);
        let entry = f.body.entry_block();
        let v = def(&mut f, entry);
        use_of(&mut f, entry, v);
        let user = f.body.users(v)[0];
        f.body.op_mut(user).operands = vec![ValueId(99)];
        assert!(scoping_error(&f).contains("op 't.use' references undefined value"));
    }
}
