//! The `tosa` dialect front-end subset.
//!
//! The paper enters the flow from `linalg`, `tosa` or `torch`. We provide the
//! `tosa` ops its MLP benchmark needs (`fully_connected`, `add`, `matmul`,
//! `conv2d`, `clamp`); `cinm-lowering` decomposes them into `linalg` before
//! the `linalg → cinm` conversion, exactly as described in Section 3.2.2.

use cinm_ir::prelude::*;

/// Op name: `tosa.fully_connected` (operands input, weight, bias).
pub const FULLY_CONNECTED: &str = "tosa.fully_connected";
/// Op name: `tosa.matmul` (operands a, b).
pub const MATMUL: &str = "tosa.matmul";
/// Op name: `tosa.add` (element-wise).
pub const ADD: &str = "tosa.add";
/// Op name: `tosa.conv2d` (operands input, weight, bias).
pub const CONV2D: &str = "tosa.conv2d";
/// Op name: `tosa.clamp` (attrs `min`, `max`) — used for ReLU-style activations.
pub const CLAMP: &str = "tosa.clamp";

/// The `tosa` op constraints, sorted by op name.
pub(crate) static OPS: &[OpConstraint] = &[
    OpConstraint::new(ADD).operands(2).results(1),
    OpConstraint::new(CLAMP)
        .operands(1)
        .results(1)
        .required_attrs(&["min", "max"]),
    OpConstraint::new(CONV2D).operands(3).results(1),
    OpConstraint::new(FULLY_CONNECTED).operands(3).results(1),
    OpConstraint::new(MATMUL).operands(2).results(1),
];

/// Registers the `tosa` op constraints.
pub fn register(registry: &mut DialectRegistry) {
    registry.add_table(OPS);
}

fn shaped(b: &OpBuilder<'_>, v: ValueId) -> (Shape, ScalarType) {
    let ty = b.body().value_type(v);
    (
        Shape::new(ty.shape().expect("tosa operand must be shaped")),
        ty.element_type().expect("shaped type has an element type"),
    )
}

/// Builds `tosa.fully_connected %input, %weight, %bias`.
///
/// Shapes: input `batch×in`, weight `out×in` (TOSA convention), bias `out`;
/// result `batch×out`.
pub fn fully_connected(
    b: &mut OpBuilder<'_>,
    input: ValueId,
    weight: ValueId,
    bias: ValueId,
) -> ValueId {
    let (si, ei) = shaped(b, input);
    let (sw, _) = shaped(b, weight);
    let (sb, _) = shaped(b, bias);
    assert_eq!(si.len(), 2, "fully_connected input must be 2-D");
    assert_eq!(sw.len(), 2, "fully_connected weight must be 2-D");
    assert_eq!(si[1], sw[1], "input feature dim must match weight");
    assert_eq!(sb[..], [sw[0]], "bias must match the output features");
    b.op(FULLY_CONNECTED)
        .operands([input, weight, bias])
        .result(Type::tensor(&[si[0], sw[0]], ei))
        .push()
        .result()
}

/// Builds `tosa.matmul %a, %b` on 2-D tensors.
pub fn matmul(b: &mut OpBuilder<'_>, a: ValueId, rhs: ValueId) -> ValueId {
    let (sa, ea) = shaped(b, a);
    let (sb, _) = shaped(b, rhs);
    assert_eq!(sa[1], sb[0], "matmul inner dimensions must agree");
    b.op(MATMUL)
        .operands([a, rhs])
        .result(Type::tensor(&[sa[0], sb[1]], ea))
        .push()
        .result()
}

/// Builds `tosa.add %a, %b` (element-wise, equal shapes).
pub fn add(b: &mut OpBuilder<'_>, lhs: ValueId, rhs: ValueId) -> ValueId {
    let (sl, el) = shaped(b, lhs);
    let (sr, _) = shaped(b, rhs);
    assert_eq!(sl, sr, "tosa.add operands must have identical shapes");
    b.op(ADD)
        .operands([lhs, rhs])
        .result(Type::tensor(&sl, el))
        .push()
        .result()
}

/// Builds `tosa.clamp` with integer bounds.
pub fn clamp(b: &mut OpBuilder<'_>, input: ValueId, min: i64, max: i64) -> ValueId {
    let ty = *b.body().value_type(input);
    b.op(CLAMP)
        .operand(input)
        .attr("min", min)
        .attr("max", max)
        .result(ty)
        .push()
        .result()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_connected_shapes() {
        let mut f = Func::new(
            "mlp_layer",
            vec![
                Type::tensor(&[8, 256], ScalarType::I32),
                Type::tensor(&[128, 256], ScalarType::I32),
                Type::tensor(&[128], ScalarType::I32),
            ],
            vec![],
        );
        let (x, w, bias) = (f.argument(0), f.argument(1), f.argument(2));
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let y = fully_connected(&mut b, x, w, bias);
        assert_eq!(
            b.body().value_type(y),
            &Type::tensor(&[8, 128], ScalarType::I32)
        );
        let r = clamp(&mut b, y, 0, i64::MAX);
        assert_eq!(f.body.value_type(r), f.body.value_type(y));

        let mut reg = DialectRegistry::new();
        register(&mut reg);
        verify_func(&f, &reg).unwrap();
        assert_eq!(reg.ops_of_dialect("tosa").len(), 5);
    }

    #[test]
    #[should_panic(expected = "identical shapes")]
    fn add_rejects_shape_mismatch() {
        let mut f = Func::new(
            "t",
            vec![
                Type::tensor(&[4], ScalarType::I32),
                Type::tensor(&[5], ScalarType::I32),
            ],
            vec![],
        );
        let (a, b_) = (f.argument(0), f.argument(1));
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        add(&mut b, a, b_);
    }
}
