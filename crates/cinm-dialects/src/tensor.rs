//! The `tensor` dialect: value-semantics tensor manipulation.
//!
//! The CINM lowering uses these ops for padding, tiling (extract/insert
//! slices) and the shape bookkeeping of the `im2col` rewrite (collapse and
//! expand, paper Figure 5b).

use cinm_ir::prelude::*;

/// Op name: `tensor.empty`.
pub const EMPTY: &str = "tensor.empty";
/// Op name: `tensor.extract_slice` (attrs `offsets`, `sizes`, `strides`).
pub const EXTRACT_SLICE: &str = "tensor.extract_slice";
/// Op name: `tensor.insert_slice` (attrs `offsets`, `sizes`, `strides`).
pub const INSERT_SLICE: &str = "tensor.insert_slice";
/// Op name: `tensor.collapse_shape` (attr `reassociation`).
pub const COLLAPSE_SHAPE: &str = "tensor.collapse_shape";
/// Op name: `tensor.expand_shape` (attr `reassociation`).
pub const EXPAND_SHAPE: &str = "tensor.expand_shape";
/// Op name: `tensor.pad` (attrs `low`, `high`).
pub const PAD: &str = "tensor.pad";
/// Op name: `tensor.splat` (attr `value`).
pub const SPLAT: &str = "tensor.splat";

/// The `tensor` op constraints, sorted by op name.
pub(crate) static OPS: &[OpConstraint] = &[
    OpConstraint::new(COLLAPSE_SHAPE).operands(1).results(1),
    OpConstraint::new(EMPTY).operands(0).results(1),
    OpConstraint::new(EXPAND_SHAPE).operands(1).results(1),
    OpConstraint::new(EXTRACT_SLICE)
        .operands(1)
        .results(1)
        .required_attrs(&["offsets", "sizes"]),
    OpConstraint::new(INSERT_SLICE)
        .operands(2)
        .results(1)
        .required_attrs(&["offsets", "sizes"]),
    OpConstraint::new(PAD)
        .operands(1)
        .results(1)
        .required_attrs(&["low", "high"]),
    OpConstraint::new(SPLAT)
        .operands(0)
        .results(1)
        .required_attrs(&["value"]),
];

/// Registers the `tensor` op constraints.
pub fn register(registry: &mut DialectRegistry) {
    registry.add_table(OPS);
}

/// Builds a `tensor.empty` of the given shape.
pub fn empty(b: &mut OpBuilder<'_>, shape: &[i64], elem: ScalarType) -> ValueId {
    b.op(EMPTY)
        .result(Type::tensor(shape, elem))
        .push()
        .result()
}

/// Builds a `tensor.splat` filled with `value`.
pub fn splat(b: &mut OpBuilder<'_>, value: i64, shape: &[i64], elem: ScalarType) -> ValueId {
    b.op(SPLAT)
        .attr("value", value)
        .result(Type::tensor(shape, elem))
        .push()
        .result()
}

/// Builds a static `tensor.extract_slice`.
///
/// # Panics
///
/// Panics if the source is not a tensor or if the slice exceeds its bounds.
pub fn extract_slice(
    b: &mut OpBuilder<'_>,
    source: ValueId,
    offsets: &[i64],
    sizes: &[i64],
) -> ValueId {
    let src_ty = *b.body().value_type(source);
    let shape = src_ty.shape().expect("extract_slice source must be shaped");
    assert_eq!(shape.len(), offsets.len(), "offsets rank mismatch");
    assert_eq!(shape.len(), sizes.len(), "sizes rank mismatch");
    for ((&o, &s), &d) in offsets.iter().zip(sizes).zip(shape) {
        assert!(
            o >= 0 && s >= 0 && o + s <= d,
            "slice [{o}, {o}+{s}) out of bounds for dim {d}"
        );
    }
    let elem = src_ty.element_type().expect("shaped type has element type");
    b.op(EXTRACT_SLICE)
        .operand(source)
        .attr("offsets", offsets)
        .attr("sizes", sizes)
        .result(Type::tensor(sizes, elem))
        .push()
        .result()
}

/// Builds a static `tensor.insert_slice` of `slice` into `dest`.
pub fn insert_slice(
    b: &mut OpBuilder<'_>,
    slice: ValueId,
    dest: ValueId,
    offsets: &[i64],
    sizes: &[i64],
) -> ValueId {
    let dest_ty = *b.body().value_type(dest);
    b.op(INSERT_SLICE)
        .operands([slice, dest])
        .attr("offsets", offsets)
        .attr("sizes", sizes)
        .result(dest_ty)
        .push()
        .result()
}

/// Builds a `tensor.collapse_shape` to the given result shape.
///
/// # Panics
///
/// Panics if the element counts of source and result shapes differ.
pub fn collapse_shape(b: &mut OpBuilder<'_>, source: ValueId, result_shape: &[i64]) -> ValueId {
    reshape(b, COLLAPSE_SHAPE, source, result_shape)
}

/// Builds a `tensor.expand_shape` to the given result shape.
///
/// # Panics
///
/// Panics if the element counts of source and result shapes differ.
pub fn expand_shape(b: &mut OpBuilder<'_>, source: ValueId, result_shape: &[i64]) -> ValueId {
    reshape(b, EXPAND_SHAPE, source, result_shape)
}

fn reshape(
    b: &mut OpBuilder<'_>,
    op: &'static str,
    source: ValueId,
    result_shape: &[i64],
) -> ValueId {
    let src_ty = *b.body().value_type(source);
    let elem = src_ty
        .element_type()
        .expect("reshape source must be shaped");
    assert_eq!(
        src_ty.num_elements(),
        result_shape.iter().product::<i64>(),
        "reshape must preserve the number of elements"
    );
    b.op(op)
        .operand(source)
        .result(Type::tensor(result_shape, elem))
        .push()
        .result()
}

/// Builds a `tensor.pad` with per-dimension low/high padding.
pub fn pad(b: &mut OpBuilder<'_>, source: ValueId, low: &[i64], high: &[i64]) -> ValueId {
    let src_ty = *b.body().value_type(source);
    let shape = src_ty.shape().expect("pad source must be shaped");
    assert_eq!(shape.len(), low.len());
    assert_eq!(shape.len(), high.len());
    let new_shape: Vec<i64> = shape
        .iter()
        .zip(low.iter().zip(high))
        .map(|(&d, (&l, &h))| d + l + h)
        .collect();
    let elem = src_ty.element_type().unwrap();
    b.op(PAD)
        .operand(source)
        .attr("low", low)
        .attr("high", high)
        .result(Type::tensor(&new_shape, elem))
        .push()
        .result()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Func, ValueId) {
        let f = Func::new("t", vec![Type::tensor(&[128, 32], ScalarType::I16)], vec![]);
        let arg = f.argument(0);
        (f, arg)
    }

    #[test]
    fn extract_slice_infers_type_and_checks_bounds() {
        let (mut f, arg) = setup();
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let s = extract_slice(&mut b, arg, &[0, 16], &[16, 16]);
        assert_eq!(
            f.body.value_type(s),
            &Type::tensor(&[16, 16], ScalarType::I16)
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn extract_slice_rejects_out_of_bounds() {
        let (mut f, arg) = setup();
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        extract_slice(&mut b, arg, &[120, 0], &[16, 16]);
    }

    #[test]
    fn reshape_preserves_element_count() {
        let (mut f, arg) = setup();
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let c = collapse_shape(&mut b, arg, &[4096]);
        let e = expand_shape(&mut b, c, &[64, 64]);
        assert_eq!(
            f.body.value_type(e),
            &Type::tensor(&[64, 64], ScalarType::I16)
        );
    }

    #[test]
    #[should_panic(expected = "preserve the number of elements")]
    fn reshape_rejects_mismatched_count() {
        let (mut f, arg) = setup();
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        collapse_shape(&mut b, arg, &[100]);
    }

    #[test]
    fn pad_grows_shape() {
        let (mut f, arg) = setup();
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let p = pad(&mut b, arg, &[0, 0], &[12, 0]);
        assert_eq!(
            f.body.value_type(p),
            &Type::tensor(&[140, 32], ScalarType::I16)
        );
    }

    #[test]
    fn registered_ops_verify() {
        let (mut f, arg) = setup();
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let e = empty(&mut b, &[8], ScalarType::I32);
        let s = splat(&mut b, 1, &[8], ScalarType::I32);
        let sl = extract_slice(&mut b, arg, &[0, 0], &[8, 8]);
        let _ = insert_slice(&mut b, s, e, &[0], &[8]);
        let _ = sl;
        let mut r = DialectRegistry::new();
        register(&mut r);
        verify_func(&f, &r).unwrap();
        assert_eq!(r.ops_of_dialect("tensor").len(), 7);
    }
}
