//! The `linalg` dialect: the device-agnostic front-end abstraction.
//!
//! This is the entry level of the CINM flow (paper Figure 3b / Section
//! 3.2.1): named structured operations on tensors. The `linalg → cinm`
//! conversion in `cinm-lowering` rewrites these into the Table 1 op set.

use cinm_ir::prelude::*;

/// Op name: `linalg.matmul` — `C += A × B` on 2-D tensors (operands A, B, C).
pub const MATMUL: &str = "linalg.matmul";
/// Op name: `linalg.matvec` — `y += A × x` (operands A, x, y).
pub const MATVEC: &str = "linalg.matvec";
/// Op name: `linalg.conv_2d_nhwc_hwcf` — 2-D convolution (operands img, filter, init).
pub const CONV_2D_NHWC_HWCF: &str = "linalg.conv_2d_nhwc_hwcf";
/// Op name: `linalg.contract` — Einstein-summation tensor contraction
/// (attr `einsum`, operands A, B).
pub const CONTRACT: &str = "linalg.contract";
/// Op name: `linalg.elemwise_binary` — element-wise binary op (attr `fun`).
pub const ELEMWISE_BINARY: &str = "linalg.elemwise_binary";
/// Op name: `linalg.elemwise_unary` — element-wise unary op (attr `fun`).
pub const ELEMWISE_UNARY: &str = "linalg.elemwise_unary";
/// Op name: `linalg.fill` — fill a tensor with a scalar constant (attr `value`).
pub const FILL: &str = "linalg.fill";
/// Op name: `linalg.transpose` — permute tensor dimensions (attr `permutation`).
pub const TRANSPOSE: &str = "linalg.transpose";
/// Op name: `linalg.reduce` — reduction along dimensions (attrs `fun`, `dimensions`).
pub const REDUCE: &str = "linalg.reduce";
/// Op name: `linalg.generic` — catch-all structured op (attr `library_call`).
pub const GENERIC: &str = "linalg.generic";
/// Op name: `linalg.im2col` — image-to-column rewrite helper used by the
/// conv-to-gemm canonicalisation (attr `kernel_shape`).
pub const IM2COL: &str = "linalg.im2col";

/// Element-wise function kinds accepted by [`ELEMWISE_BINARY`].
pub const ELEMWISE_FUNS: &[&str] = &["add", "sub", "mul", "div", "max", "min", "and", "or", "xor"];

/// The `linalg` op constraints, sorted by op name.
pub(crate) static OPS: &[OpConstraint] = &[
    OpConstraint::new(CONTRACT)
        .operands(2)
        .results(1)
        .required_attrs(&["einsum"]),
    OpConstraint::new(CONV_2D_NHWC_HWCF).operands(3).results(1),
    OpConstraint::new(ELEMWISE_BINARY)
        .operands(2)
        .results(1)
        .required_attrs(&["fun"]),
    OpConstraint::new(ELEMWISE_UNARY)
        .operands(1)
        .results(1)
        .required_attrs(&["fun"]),
    OpConstraint::new(FILL)
        .operands(1)
        .results(1)
        .required_attrs(&["value"]),
    OpConstraint::new(GENERIC).min_operands(1),
    OpConstraint::new(IM2COL)
        .operands(1)
        .results(1)
        .required_attrs(&["kernel_shape"]),
    OpConstraint::new(MATMUL).operands(3).results(1),
    OpConstraint::new(MATVEC).operands(3).results(1),
    OpConstraint::new(REDUCE)
        .operands(1)
        .results(1)
        .required_attrs(&["fun", "dimensions"]),
    OpConstraint::new(TRANSPOSE)
        .operands(1)
        .results(1)
        .required_attrs(&["permutation"]),
];

/// Registers the `linalg` op constraints.
pub fn register(registry: &mut DialectRegistry) {
    registry.add_table(OPS);
}

fn shaped(b: &OpBuilder<'_>, v: ValueId) -> (Shape, ScalarType) {
    let ty = b.body().value_type(v);
    (
        Shape::new(ty.shape().expect("linalg operand must be shaped")),
        ty.element_type().expect("shaped type has an element type"),
    )
}

/// Builds `linalg.matmul %a, %b outs(%c)`.
///
/// # Panics
///
/// Panics if the operand shapes are not `(m×k, k×n, m×n)`.
pub fn matmul(b: &mut OpBuilder<'_>, a: ValueId, rhs: ValueId, init: ValueId) -> ValueId {
    let (sa, ea) = shaped(b, a);
    let (sb, _) = shaped(b, rhs);
    let (sc, _) = shaped(b, init);
    assert_eq!(sa.len(), 2, "matmul lhs must be 2-D");
    assert_eq!(sb.len(), 2, "matmul rhs must be 2-D");
    assert_eq!(sa[1], sb[0], "matmul inner dimensions must agree");
    assert_eq!(sc[..], [sa[0], sb[1]], "matmul init shape mismatch");
    b.op(MATMUL)
        .operands([a, rhs, init])
        .result(Type::tensor(&[sa[0], sb[1]], ea))
        .push()
        .result()
}

/// Builds `linalg.matvec %a, %x outs(%y)`.
///
/// # Panics
///
/// Panics if the operand shapes are not `(m×n, n, m)`.
pub fn matvec(b: &mut OpBuilder<'_>, a: ValueId, x: ValueId, init: ValueId) -> ValueId {
    let (sa, ea) = shaped(b, a);
    let (sx, _) = shaped(b, x);
    assert_eq!(sa.len(), 2, "matvec matrix must be 2-D");
    assert_eq!(sx.len(), 1, "matvec vector must be 1-D");
    assert_eq!(sa[1], sx[0], "matvec inner dimensions must agree");
    b.op(MATVEC)
        .operands([a, x, init])
        .result(Type::tensor(&[sa[0]], ea))
        .push()
        .result()
}

/// Builds `linalg.conv_2d_nhwc_hwcf %img, %filter outs(%init)`.
///
/// Shapes follow the paper's Figure 5a: image `N×H×W×C`, filter `KH×KW×C×F`,
/// result `N×(H-KH+1)×(W-KW+1)×F` (valid padding, stride 1).
pub fn conv_2d_nhwc_hwcf(
    b: &mut OpBuilder<'_>,
    img: ValueId,
    filter: ValueId,
    init: ValueId,
) -> ValueId {
    let (si, ei) = shaped(b, img);
    let (sf, _) = shaped(b, filter);
    assert_eq!(si.len(), 4, "conv image must be N×H×W×C");
    assert_eq!(sf.len(), 4, "conv filter must be KH×KW×C×F");
    assert_eq!(si[3], sf[2], "conv channel dimensions must agree");
    let out = [si[0], si[1] - sf[0] + 1, si[2] - sf[1] + 1, sf[3]];
    let (sc, _) = shaped(b, init);
    assert_eq!(sc[..], out, "conv init shape mismatch");
    b.op(CONV_2D_NHWC_HWCF)
        .operands([img, filter, init])
        .result(Type::tensor(&out, ei))
        .push()
        .result()
}

/// Builds `linalg.contract` for the einsum `spec` (e.g. `"aebf,dfce->abcd"`),
/// with an explicitly provided result shape.
pub fn contract(
    b: &mut OpBuilder<'_>,
    spec: &'static str,
    a: ValueId,
    rhs: ValueId,
    result_shape: &[i64],
) -> ValueId {
    let (_, ea) = shaped(b, a);
    b.op(CONTRACT)
        .operands([a, rhs])
        .attr("einsum", spec)
        .result(Type::tensor(result_shape, ea))
        .push()
        .result()
}

/// Builds `linalg.elemwise_binary` with the given function name.
///
/// # Panics
///
/// Panics if `fun` is not in [`ELEMWISE_FUNS`] or the shapes differ.
pub fn elemwise_binary(
    b: &mut OpBuilder<'_>,
    fun: &'static str,
    lhs: ValueId,
    rhs: ValueId,
) -> ValueId {
    assert!(
        ELEMWISE_FUNS.contains(&fun),
        "'{fun}' is not a supported element-wise function"
    );
    let (sl, el) = shaped(b, lhs);
    let (sr, _) = shaped(b, rhs);
    assert_eq!(sl, sr, "element-wise operands must have identical shapes");
    b.op(ELEMWISE_BINARY)
        .operands([lhs, rhs])
        .attr("fun", fun)
        .result(Type::tensor(&sl, el))
        .push()
        .result()
}

/// Builds `linalg.fill` of `init` with constant `value`.
pub fn fill(b: &mut OpBuilder<'_>, value: i64, init: ValueId) -> ValueId {
    let ty = *b.body().value_type(init);
    b.op(FILL)
        .operand(init)
        .attr("value", value)
        .result(ty)
        .push()
        .result()
}

/// Builds `linalg.transpose` with the given permutation.
pub fn transpose(b: &mut OpBuilder<'_>, input: ValueId, permutation: &[i64]) -> ValueId {
    let (s, e) = shaped(b, input);
    assert_eq!(s.len(), permutation.len(), "permutation rank mismatch");
    let mut out = s;
    for (d, &p) in out.iter_mut().zip(permutation) {
        *d = s[p as usize];
    }
    b.op(TRANSPOSE)
        .operand(input)
        .attr("permutation", permutation)
        .result(Type::tensor(&out, e))
        .push()
        .result()
}

/// Builds `linalg.reduce` over the given dimensions.
pub fn reduce(
    b: &mut OpBuilder<'_>,
    fun: &'static str,
    input: ValueId,
    dimensions: &[i64],
) -> ValueId {
    let (s, e) = shaped(b, input);
    let (mut kept, mut rank) = (s, 0);
    for (i, &d) in s.iter().enumerate() {
        if !dimensions.contains(&(i as i64)) {
            kept[rank] = d;
            rank += 1;
        }
    }
    let result_shape = if rank == 0 { &[1][..] } else { &kept[..rank] };
    b.op(REDUCE)
        .operand(input)
        .attr("fun", fun)
        .attr("dimensions", dimensions)
        .result(Type::tensor(result_shape, e))
        .push()
        .result()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func_with_tensors(shapes: &[&[i64]]) -> Func {
        Func::new(
            "t",
            shapes.iter().map(|s| Type::tensor(s, ScalarType::I32)),
            vec![],
        )
    }

    #[test]
    fn matmul_shape_inference() {
        let mut f = func_with_tensors(&[&[64, 32], &[32, 16], &[64, 16]]);
        let (a, b_, c) = (f.argument(0), f.argument(1), f.argument(2));
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let d = matmul(&mut b, a, b_, c);
        assert_eq!(
            f.body.value_type(d),
            &Type::tensor(&[64, 16], ScalarType::I32)
        );
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_mismatched_shapes() {
        let mut f = func_with_tensors(&[&[64, 32], &[31, 16], &[64, 16]]);
        let (a, b_, c) = (f.argument(0), f.argument(1), f.argument(2));
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        matmul(&mut b, a, b_, c);
    }

    #[test]
    fn conv_shape_matches_paper_example() {
        // Figure 5a: 1x128x128x3 image, 3x3x3x8 filter -> 1x126x126x8.
        let mut f = func_with_tensors(&[&[1, 128, 128, 3], &[3, 3, 3, 8], &[1, 126, 126, 8]]);
        let (img, flt, init) = (f.argument(0), f.argument(1), f.argument(2));
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let out = conv_2d_nhwc_hwcf(&mut b, img, flt, init);
        assert_eq!(
            f.body.value_type(out),
            &Type::tensor(&[1, 126, 126, 8], ScalarType::I32)
        );
    }

    #[test]
    fn matvec_transpose_reduce_and_elemwise() {
        let mut f = func_with_tensors(&[&[64, 32], &[32], &[64], &[64, 32]]);
        let (a, x, y, w) = (f.argument(0), f.argument(1), f.argument(2), f.argument(3));
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let mv = matvec(&mut b, a, x, y);
        assert_eq!(
            b.body().value_type(mv),
            &Type::tensor(&[64], ScalarType::I32)
        );
        let t = transpose(&mut b, a, &[1, 0]);
        assert_eq!(
            b.body().value_type(t),
            &Type::tensor(&[32, 64], ScalarType::I32)
        );
        let r = reduce(&mut b, "add", a, &[1]);
        assert_eq!(
            b.body().value_type(r),
            &Type::tensor(&[64], ScalarType::I32)
        );
        let r_all = reduce(&mut b, "add", a, &[0, 1]);
        assert_eq!(
            b.body().value_type(r_all),
            &Type::tensor(&[1], ScalarType::I32)
        );
        let e = elemwise_binary(&mut b, "add", a, w);
        assert_eq!(
            f.body.value_type(e),
            &Type::tensor(&[64, 32], ScalarType::I32)
        );
    }

    #[test]
    #[should_panic(expected = "not a supported element-wise function")]
    fn elemwise_rejects_unknown_fun() {
        let mut f = func_with_tensors(&[&[8], &[8]]);
        let (a, b_) = (f.argument(0), f.argument(1));
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        elemwise_binary(&mut b, "pow", a, b_);
    }

    #[test]
    fn all_built_ops_verify_against_registry() {
        let mut f = func_with_tensors(&[&[16, 16], &[16, 16], &[16, 16], &[16]]);
        let (a, b_, c, x) = (f.argument(0), f.argument(1), f.argument(2), f.argument(3));
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        matmul(&mut b, a, b_, c);
        matvec(&mut b, a, x, x);
        fill(&mut b, 0, c);
        contract(&mut b, "acd,dbc->ab", a, b_, &[16, 16]);
        let mut r = DialectRegistry::new();
        register(&mut r);
        verify_func(&f, &r).unwrap();
        assert_eq!(r.ops_of_dialect("linalg").len(), 11);
    }
}
