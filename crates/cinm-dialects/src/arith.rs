//! The `arith` dialect: scalar arithmetic and constants.
//!
//! Mirrors the subset of MLIR's `arith` dialect the CINM pipeline emits in
//! host loops and inside device kernel bodies.

use cinm_ir::prelude::*;

/// Op name: `arith.constant`.
pub const CONSTANT: &str = "arith.constant";
/// Op name: `arith.addi`.
pub const ADDI: &str = "arith.addi";
/// Op name: `arith.subi`.
pub const SUBI: &str = "arith.subi";
/// Op name: `arith.muli`.
pub const MULI: &str = "arith.muli";
/// Op name: `arith.divsi`.
pub const DIVSI: &str = "arith.divsi";
/// Op name: `arith.remsi`.
pub const REMSI: &str = "arith.remsi";
/// Op name: `arith.maxsi`.
pub const MAXSI: &str = "arith.maxsi";
/// Op name: `arith.minsi`.
pub const MINSI: &str = "arith.minsi";
/// Op name: `arith.andi`.
pub const ANDI: &str = "arith.andi";
/// Op name: `arith.ori`.
pub const ORI: &str = "arith.ori";
/// Op name: `arith.xori`.
pub const XORI: &str = "arith.xori";
/// Op name: `arith.addf`.
pub const ADDF: &str = "arith.addf";
/// Op name: `arith.mulf`.
pub const MULF: &str = "arith.mulf";
/// Op name: `arith.cmpi` (predicate attribute `predicate`).
pub const CMPI: &str = "arith.cmpi";
/// Op name: `arith.select`.
pub const SELECT: &str = "arith.select";

/// All binary integer op names of the dialect.
pub const BINARY_INT_OPS: &[&str] = &[
    ADDI, SUBI, MULI, DIVSI, REMSI, MAXSI, MINSI, ANDI, ORI, XORI,
];

/// The `arith` op constraints, sorted by op name.
pub(crate) static OPS: &[OpConstraint] = &[
    OpConstraint::new(ADDF).operands(2).results(1),
    OpConstraint::new(ADDI).operands(2).results(1),
    OpConstraint::new(ANDI).operands(2).results(1),
    OpConstraint::new(CMPI)
        .operands(2)
        .results(1)
        .required_attrs(&["predicate"]),
    OpConstraint::new(CONSTANT)
        .operands(0)
        .results(1)
        .required_attrs(&["value"]),
    OpConstraint::new(DIVSI).operands(2).results(1),
    OpConstraint::new(MAXSI).operands(2).results(1),
    OpConstraint::new(MINSI).operands(2).results(1),
    OpConstraint::new(MULF).operands(2).results(1),
    OpConstraint::new(MULI).operands(2).results(1),
    OpConstraint::new(ORI).operands(2).results(1),
    OpConstraint::new(REMSI).operands(2).results(1),
    OpConstraint::new(SELECT).operands(3).results(1),
    OpConstraint::new(SUBI).operands(2).results(1),
    OpConstraint::new(XORI).operands(2).results(1),
];

/// Registers the `arith` op constraints.
pub fn register(registry: &mut DialectRegistry) {
    registry.add_table(OPS);
}

/// Builds an `arith.constant` of the given type.
pub fn constant(b: &mut OpBuilder<'_>, value: i64, ty: Type) -> ValueId {
    b.op(CONSTANT)
        .attr("value", value)
        .result(ty)
        .push()
        .result()
}

/// Builds a binary integer arithmetic op; the result type is the lhs type.
///
/// # Panics
///
/// Panics if `name` is not one of [`BINARY_INT_OPS`].
pub fn binary(b: &mut OpBuilder<'_>, name: &'static str, lhs: ValueId, rhs: ValueId) -> ValueId {
    assert!(
        BINARY_INT_OPS.contains(&name),
        "'{name}' is not an arith binary op"
    );
    let ty = *b.body().value_type(lhs);
    b.op(name).operands([lhs, rhs]).result(ty).push().result()
}

/// Builds `arith.addi`.
pub fn addi(b: &mut OpBuilder<'_>, lhs: ValueId, rhs: ValueId) -> ValueId {
    binary(b, ADDI, lhs, rhs)
}

/// Builds `arith.muli`.
pub fn muli(b: &mut OpBuilder<'_>, lhs: ValueId, rhs: ValueId) -> ValueId {
    binary(b, MULI, lhs, rhs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_covers_all_ops() {
        let mut r = DialectRegistry::new();
        register(&mut r);
        assert!(r.constraint(CONSTANT).is_some());
        assert!(r.constraint(ADDI).is_some());
        assert!(r.constraint(CMPI).is_some());
        assert_eq!(r.ops_of_dialect("arith").len(), BINARY_INT_OPS.len() + 5);
    }

    #[test]
    fn builders_produce_verified_ir() {
        let mut f = Func::new("t", vec![], vec![]);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let c1 = constant(&mut b, 3, Type::i32());
        let c2 = constant(&mut b, 4, Type::i32());
        let s = addi(&mut b, c1, c2);
        let _p = muli(&mut b, s, c2);
        let mut r = DialectRegistry::new();
        register(&mut r);
        verify_func(&f, &r).unwrap();
    }

    #[test]
    #[should_panic(expected = "is not an arith binary op")]
    fn binary_rejects_unknown_name() {
        let mut f = Func::new("t", vec![Type::i32()], vec![]);
        let entry = f.body.entry_block();
        let a = f.argument(0);
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        binary(&mut b, "arith.bogus", a, a);
    }
}
