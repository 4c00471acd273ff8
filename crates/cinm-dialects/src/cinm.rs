//! The `cinm` dialect — the abstraction over all CINM devices (paper
//! Section 3.2.2, Table 1).
//!
//! `cinm` is the entry point of the flow: the `linalg → cinm` conversion
//! rewrites front-end programs into this constrained op set, on which target
//! selection and the cost-model interface operate before lowering to `cnm`,
//! `cim` or `affine`/host code.

use cinm_ir::prelude::*;

/// Element-wise arithmetic: `cinm.add`, `cinm.sub`, ... (`T × T → T`).
pub const ELEMENTWISE_ARITH: &[&str] = &[
    "cinm.add", "cinm.sub", "cinm.mul", "cinm.div", "cinm.min", "cinm.max",
];

/// Element-wise bit-wise logic: `cinm.and`, ... (`T × T → T`; `cinm.not` is unary).
pub const ELEMENTWISE_LOGIC: &[&str] = &["cinm.and", "cinm.or", "cinm.xor"];

/// Op name: `cinm.not` (unary bit-wise negation).
pub const NOT: &str = "cinm.not";
/// Op name: `cinm.gemv` — matrix-vector product (`S^{m×n} × S^n → S^m`).
pub const GEMV: &str = "cinm.gemv";
/// Op name: `cinm.gemm` — matrix-matrix product (`S^{m×k} × S^{k×n} → S^{m×n}`).
pub const GEMM: &str = "cinm.gemm";
/// Op name: `cinm.transpose` (attr `perms`).
pub const TRANSPOSE: &str = "cinm.transpose";
/// Op name: `cinm.histogram` (attrs `bins` and `max`, the exclusive bound
/// of the input values).
pub const HISTOGRAM: &str = "cinm.histogram";
/// Op name: `cinm.majority` — bit-wise majority.
pub const MAJORITY: &str = "cinm.majority";
/// Op name: `cinm.topk` (attr `k`) — k largest values and their indices.
pub const TOPK: &str = "cinm.topk";
/// Op name: `cinm.simSearch` (attrs `metric`, `k`) — similarity search.
pub const SIM_SEARCH: &str = "cinm.simSearch";
/// Op name: `cinm.mergePartial` (attrs `op`, `dir`) — merges partial results.
pub const MERGE_PARTIAL: &str = "cinm.mergePartial";
/// Op name: `cinm.popCount` — counts set bits of a bit vector.
pub const POP_COUNT: &str = "cinm.popCount";
/// Op name: `cinm.reduce` (attr `op`) — group reduction.
pub const REDUCE: &str = "cinm.reduce";
/// Op name: `cinm.scan` (attr `op`) — inclusive scan.
pub const SCAN: &str = "cinm.scan";
/// Op name: `cinm.select` (attr `threshold`) — the elements greater than
/// the threshold, in order (the PrIM database select; not a Table 1 op).
pub const SELECT: &str = "cinm.select";
/// Op name: `cinm.compute` — structural op wrapping a region of cinm ops
/// that should be offloaded as a unit (kernel/region granularity).
pub const COMPUTE: &str = "cinm.compute";
/// Op name: `cinm.yield` — terminates the region of a `cinm.compute`.
pub const YIELD: &str = "cinm.yield";

/// Which paradigms can execute an op (the ✓ columns of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParadigmSupport {
    /// Executable on compute-in-memory devices (crossbars, CAM, logic CIM).
    pub cim: bool,
    /// Executable on compute-near-memory devices (UPMEM, FIMDRAM, AiM).
    pub cnm: bool,
}

impl ParadigmSupport {
    /// Supported on both paradigms.
    pub const BOTH: ParadigmSupport = ParadigmSupport {
        cim: true,
        cnm: true,
    };
    /// Supported only on CNM devices.
    pub const CNM_ONLY: ParadigmSupport = ParadigmSupport {
        cim: false,
        cnm: true,
    };
    /// Supported only on CIM devices.
    pub const CIM_ONLY: ParadigmSupport = ParadigmSupport {
        cim: true,
        cnm: false,
    };
}

/// Returns the Table 1 support matrix entry for a `cinm` op, or `None` if the
/// name is not a `cinm` operation.
pub fn paradigm_support(op_name: &str) -> Option<ParadigmSupport> {
    if ELEMENTWISE_ARITH.contains(&op_name) || ELEMENTWISE_LOGIC.contains(&op_name) {
        return Some(ParadigmSupport::BOTH);
    }
    match op_name {
        NOT => Some(ParadigmSupport::BOTH),
        GEMV | GEMM | SIM_SEARCH | MERGE_PARTIAL => Some(ParadigmSupport::BOTH),
        TRANSPOSE | HISTOGRAM | MAJORITY | TOPK | REDUCE | SCAN | SELECT => {
            Some(ParadigmSupport::CNM_ONLY)
        }
        POP_COUNT => Some(ParadigmSupport::CIM_ONLY),
        COMPUTE => Some(ParadigmSupport::BOTH),
        _ => None,
    }
}

/// All Table 1 op names (excluding the structural `cinm.compute` and
/// `cinm.select`).
pub fn table1_ops() -> Vec<&'static str> {
    let mut ops: Vec<&str> = Vec::new();
    ops.extend_from_slice(ELEMENTWISE_ARITH);
    ops.extend_from_slice(ELEMENTWISE_LOGIC);
    ops.extend_from_slice(&[
        NOT,
        GEMV,
        GEMM,
        TRANSPOSE,
        HISTOGRAM,
        MAJORITY,
        TOPK,
        SIM_SEARCH,
        MERGE_PARTIAL,
        POP_COUNT,
        REDUCE,
        SCAN,
    ]);
    ops
}

/// The `cinm` op constraints, sorted by op name.
pub(crate) static OPS: &[OpConstraint] = &[
    OpConstraint::new("cinm.add").operands(2).results(1),
    OpConstraint::new("cinm.and").operands(2).results(1),
    OpConstraint::new(COMPUTE).min_operands(0).regions(1),
    OpConstraint::new("cinm.div").operands(2).results(1),
    OpConstraint::new(GEMM).operands(2).results(1),
    OpConstraint::new(GEMV).operands(2).results(1),
    OpConstraint::new(HISTOGRAM)
        .operands(1)
        .results(1)
        .required_attrs(&["bins", "max"]),
    OpConstraint::new(MAJORITY).operands(1).results(1),
    OpConstraint::new("cinm.max").operands(2).results(1),
    OpConstraint::new(MERGE_PARTIAL)
        .operands(2)
        .results(1)
        .required_attrs(&["op"]),
    OpConstraint::new("cinm.min").operands(2).results(1),
    OpConstraint::new("cinm.mul").operands(2).results(1),
    OpConstraint::new(NOT).operands(1).results(1),
    OpConstraint::new("cinm.or").operands(2).results(1),
    OpConstraint::new(POP_COUNT).operands(1).results(1),
    OpConstraint::new(REDUCE)
        .operands(1)
        .results(1)
        .required_attrs(&["op"]),
    OpConstraint::new(SCAN)
        .operands(1)
        .results(1)
        .required_attrs(&["op"]),
    OpConstraint::new(SELECT)
        .operands(1)
        .results(1)
        .required_attrs(&["threshold"]),
    OpConstraint::new(SIM_SEARCH)
        .operands(2)
        .results(2)
        .required_attrs(&["metric", "k"]),
    OpConstraint::new("cinm.sub").operands(2).results(1),
    OpConstraint::new(TOPK)
        .operands(1)
        .results(2)
        .required_attrs(&["k"]),
    OpConstraint::new(TRANSPOSE)
        .operands(1)
        .results(1)
        .required_attrs(&["perms"]),
    OpConstraint::new("cinm.xor").operands(2).results(1),
    OpConstraint::new(YIELD)
        .min_operands(0)
        .results(0)
        .terminator(),
];

/// Registers the `cinm` op constraints.
pub fn register(registry: &mut DialectRegistry) {
    registry.add_table(OPS);
}

/// The name of the `cinm` op with the given mnemonic (`"add"` →
/// `"cinm.add"`) as the dialect table holds it, or `None` if the dialect has
/// no such op. This is how a mnemonic read from an attribute becomes an op
/// name: names are `'static`, so it can only name an op that exists.
pub fn op_named(mnemonic: &str) -> Option<&'static str> {
    let rest = |c: &OpConstraint| c.name.strip_prefix("cinm.").unwrap_or("");
    let i = OPS.binary_search_by(|c| rest(c).cmp(mnemonic)).ok()?;
    Some(OPS[i].name)
}

fn shaped(b: &OpBuilder<'_>, v: ValueId) -> (Shape, ScalarType) {
    let ty = b.body().value_type(v);
    (
        Shape::new(ty.shape().expect("cinm operand must be shaped")),
        ty.element_type().expect("shaped type has an element type"),
    )
}

/// Builds an element-wise `cinm` op (`cinm.add`, `cinm.xor`, ...).
///
/// # Panics
///
/// Panics if the op is not element-wise or the shapes differ.
pub fn elementwise(
    b: &mut OpBuilder<'_>,
    name: &'static str,
    lhs: ValueId,
    rhs: ValueId,
) -> ValueId {
    assert!(
        ELEMENTWISE_ARITH.contains(&name) || ELEMENTWISE_LOGIC.contains(&name),
        "'{name}' is not an element-wise cinm op"
    );
    let (sl, el) = shaped(b, lhs);
    let (sr, _) = shaped(b, rhs);
    assert_eq!(sl, sr, "element-wise operands must have identical shapes");
    b.op(name)
        .operands([lhs, rhs])
        .result(Type::tensor(&sl, el))
        .push()
        .result()
}

/// Builds `cinm.gemm %a, %b : (m×k, k×n) -> m×n`.
pub fn gemm(b: &mut OpBuilder<'_>, a: ValueId, rhs: ValueId) -> ValueId {
    let (sa, ea) = shaped(b, a);
    let (sb, _) = shaped(b, rhs);
    assert_eq!(sa.len(), 2, "gemm lhs must be 2-D");
    assert_eq!(sb.len(), 2, "gemm rhs must be 2-D");
    assert_eq!(sa[1], sb[0], "gemm inner dimensions must agree");
    b.op(GEMM)
        .operands([a, rhs])
        .result(Type::tensor(&[sa[0], sb[1]], ea))
        .push()
        .result()
}

/// Builds `cinm.gemv %a, %x : (m×n, n) -> m`.
pub fn gemv(b: &mut OpBuilder<'_>, a: ValueId, x: ValueId) -> ValueId {
    let (sa, ea) = shaped(b, a);
    let (sx, _) = shaped(b, x);
    assert_eq!(sa.len(), 2, "gemv matrix must be 2-D");
    assert_eq!(sx.len(), 1, "gemv vector must be 1-D");
    assert_eq!(sa[1], sx[0], "gemv inner dimensions must agree");
    b.op(GEMV)
        .operands([a, x])
        .result(Type::tensor(&[sa[0]], ea))
        .push()
        .result()
}

/// Builds `cinm.reduce #op (%in)`, producing a single-element tensor.
pub fn reduce(b: &mut OpBuilder<'_>, op: &'static str, input: ValueId) -> ValueId {
    let (_, e) = shaped(b, input);
    b.op(REDUCE)
        .operand(input)
        .attr("op", op)
        .result(Type::tensor(&[1], e))
        .push()
        .result()
}

/// Builds `cinm.scan #op (%in)` (inclusive scan, same shape as input).
pub fn scan(b: &mut OpBuilder<'_>, op: &'static str, input: ValueId) -> ValueId {
    let (s, e) = shaped(b, input);
    b.op(SCAN)
        .operand(input)
        .attr("op", op)
        .result(Type::tensor(&s, e))
        .push()
        .result()
}

/// Builds `cinm.histogram (%in)` with `bins` output buckets over the input
/// range `[0, max)`.
pub fn histogram(b: &mut OpBuilder<'_>, input: ValueId, bins: i64, max: i64) -> ValueId {
    let (_, e) = shaped(b, input);
    b.op(HISTOGRAM)
        .operand(input)
        .attr("bins", bins)
        .attr("max", max)
        .result(Type::tensor(&[bins], e))
        .push()
        .result()
}

/// Builds `cinm.select #threshold (%in)`: the result has the input's shape,
/// an upper bound on the selected elements.
pub fn select(b: &mut OpBuilder<'_>, input: ValueId, threshold: i64) -> ValueId {
    let (s, e) = shaped(b, input);
    b.op(SELECT)
        .operand(input)
        .attr("threshold", threshold)
        .result(Type::tensor(&s, e))
        .push()
        .result()
}

/// Builds `cinm.topk #k (%in)`, returning `(values, indices)`.
pub fn topk(b: &mut OpBuilder<'_>, input: ValueId, k: i64) -> (ValueId, ValueId) {
    let (_, e) = shaped(b, input);
    let built = b
        .op(TOPK)
        .operand(input)
        .attr("k", k)
        .result(Type::tensor(&[k], e))
        .result(Type::tensor(&[k], ScalarType::Index))
        .push();
    (built.result_at(0), built.result_at(1))
}

/// Builds `cinm.simSearch #metric #k (%query, %database)`, returning
/// `(values, indices)`.
pub fn sim_search(
    b: &mut OpBuilder<'_>,
    metric: &'static str,
    k: i64,
    query: ValueId,
    database: ValueId,
) -> (ValueId, ValueId) {
    let (_, e) = shaped(b, query);
    let built = b
        .op(SIM_SEARCH)
        .operands([query, database])
        .attr("metric", metric)
        .attr("k", k)
        .result(Type::tensor(&[k], e))
        .result(Type::tensor(&[k], ScalarType::Index))
        .push();
    (built.result_at(0), built.result_at(1))
}

/// Builds `cinm.mergePartial #op (%lhs, %rhs)`.
pub fn merge_partial(
    b: &mut OpBuilder<'_>,
    op: &'static str,
    lhs: ValueId,
    rhs: ValueId,
) -> ValueId {
    let ty = *b.body().value_type(lhs);
    b.op(MERGE_PARTIAL)
        .operands([lhs, rhs])
        .attr("op", op)
        .result(ty)
        .push()
        .result()
}

/// Builds `cinm.transpose (%in, perms)`.
pub fn transpose(b: &mut OpBuilder<'_>, input: ValueId, perms: &[i64]) -> ValueId {
    let (s, e) = shaped(b, input);
    let out: Vec<i64> = perms.iter().map(|&p| s[p as usize]).collect();
    b.op(TRANSPOSE)
        .operand(input)
        .attr("perms", perms)
        .result(Type::tensor(&out, e))
        .push()
        .result()
}

/// Builds `cinm.popCount (%in)` returning an index count.
pub fn pop_count(b: &mut OpBuilder<'_>, input: ValueId) -> ValueId {
    b.op(POP_COUNT)
        .operand(input)
        .result(Type::tensor(&[1], ScalarType::I64))
        .push()
        .result()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_inventory_is_complete() {
        // 6 arithmetic + 3 binary logic + not + gemv + gemm + transpose +
        // histogram + majority + topk + simSearch + mergePartial + popCount +
        // reduce + scan = 21 operations.
        assert_eq!(table1_ops().len(), 21);
        let mut r = DialectRegistry::new();
        register(&mut r);
        for op in table1_ops() {
            assert!(r.constraint(op).is_some(), "{op} must be registered");
        }
    }

    #[test]
    fn mnemonics_resolve_through_the_table() {
        for c in OPS {
            let mnemonic = c.name.strip_prefix("cinm.").unwrap();
            assert_eq!(op_named(mnemonic), Some(c.name));
        }
        assert_eq!(op_named("xor"), Some("cinm.xor"));
        for absent in ["", "pow", "cinm.add", "ad", "addd"] {
            assert_eq!(op_named(absent), None, "{absent:?}");
        }
    }

    #[test]
    fn paradigm_support_matches_table1() {
        // Element-wise and matmul-like ops run on both paradigms.
        assert_eq!(paradigm_support("cinm.add"), Some(ParadigmSupport::BOTH));
        assert_eq!(paradigm_support(GEMM), Some(ParadigmSupport::BOTH));
        assert_eq!(paradigm_support(GEMV), Some(ParadigmSupport::BOTH));
        // CNM-only ops.
        for op in [TRANSPOSE, HISTOGRAM, MAJORITY, TOPK, REDUCE, SCAN, SELECT] {
            assert_eq!(
                paradigm_support(op),
                Some(ParadigmSupport::CNM_ONLY),
                "{op}"
            );
        }
        // CIM-only op.
        assert_eq!(paradigm_support(POP_COUNT), Some(ParadigmSupport::CIM_ONLY));
        assert_eq!(paradigm_support("linalg.matmul"), None);
    }

    #[test]
    fn gemm_and_gemv_shapes() {
        let mut f = Func::new(
            "t",
            vec![
                Type::tensor(&[64, 32], ScalarType::I32),
                Type::tensor(&[32, 16], ScalarType::I32),
                Type::tensor(&[32], ScalarType::I32),
            ],
            vec![],
        );
        let (a, b_, x) = (f.argument(0), f.argument(1), f.argument(2));
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let c = gemm(&mut b, a, b_);
        assert_eq!(
            b.body().value_type(c),
            &Type::tensor(&[64, 16], ScalarType::I32)
        );
        let y = gemv(&mut b, a, x);
        assert_eq!(f.body.value_type(y), &Type::tensor(&[64], ScalarType::I32));
    }

    #[test]
    fn misc_builders_and_verification() {
        let mut f = Func::new("t", vec![Type::tensor(&[256], ScalarType::I32); 2], vec![]);
        let (a, b_) = (f.argument(0), f.argument(1));
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let _ = elementwise(&mut b, "cinm.add", a, b_);
        let _ = elementwise(&mut b, "cinm.xor", a, b_);
        let r = reduce(&mut b, "add", a);
        assert_eq!(b.body().value_type(r), &Type::tensor(&[1], ScalarType::I32));
        let s = scan(&mut b, "add", a);
        assert_eq!(
            b.body().value_type(s),
            &Type::tensor(&[256], ScalarType::I32)
        );
        let h = histogram(&mut b, a, 64, 256);
        assert_eq!(
            b.body().value_type(h),
            &Type::tensor(&[64], ScalarType::I32)
        );
        let (vals, idxs) = topk(&mut b, a, 8);
        assert_eq!(
            b.body().value_type(vals),
            &Type::tensor(&[8], ScalarType::I32)
        );
        assert_eq!(
            b.body().value_type(idxs),
            &Type::tensor(&[8], ScalarType::Index)
        );
        let (sv, _si) = sim_search(&mut b, "l2", 4, a, b_);
        assert_eq!(
            b.body().value_type(sv),
            &Type::tensor(&[4], ScalarType::I32)
        );
        let m = merge_partial(&mut b, "add", a, b_);
        assert_eq!(b.body().value_type(m), b.body().value_type(a));
        let _ = pop_count(&mut b, a);
        let sel = select(&mut b, a, 7);
        assert_eq!(b.body().value_type(sel), b.body().value_type(a));

        let mut r = DialectRegistry::new();
        register(&mut r);
        verify_func(&f, &r).unwrap();
    }

    #[test]
    #[should_panic(expected = "not an element-wise cinm op")]
    fn elementwise_rejects_non_elementwise() {
        let mut f = Func::new("t", vec![Type::tensor(&[4], ScalarType::I32); 2], vec![]);
        let (a, b_) = (f.argument(0), f.argument(1));
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        elementwise(&mut b, GEMM, a, b_);
    }
}
