//! The `func` dialect: returns and calls.

use cinm_ir::prelude::*;

/// Op name: `func.return`.
pub const RETURN: &str = "func.return";
/// Op name: `func.call` (callee attribute `callee`).
pub const CALL: &str = "func.call";

/// The `func` op constraints, sorted by op name.
pub(crate) static OPS: &[OpConstraint] = &[
    OpConstraint::new(CALL)
        .min_operands(0)
        .required_attrs(&["callee"]),
    OpConstraint::new(RETURN)
        .min_operands(0)
        .results(0)
        .terminator(),
];

/// Registers the `func` op constraints.
pub fn register(registry: &mut DialectRegistry) {
    registry.add_table(OPS);
}

/// Builds a `func.return`.
pub fn ret(b: &mut OpBuilder<'_>, values: &[ValueId]) -> OpId {
    b.push(OpSpec::new(RETURN).operands(values.iter().copied()))
        .id
}

/// Builds a `func.call` to `callee` returning values of `result_types`.
pub fn call(
    b: &mut OpBuilder<'_>,
    callee: &str,
    args: &[ValueId],
    result_types: Vec<Type>,
) -> BuiltOp {
    b.push(
        OpSpec::new(CALL)
            .operands(args.iter().copied())
            .results(result_types)
            .attr("callee", callee),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn return_is_terminator() {
        let mut r = DialectRegistry::new();
        register(&mut r);
        assert!(r.constraint(RETURN).unwrap().is_terminator);
    }

    #[test]
    fn call_requires_callee_attr() {
        let mut f = Func::new("t", vec![Type::i32()], vec![Type::i32()]);
        let entry = f.body.entry_block();
        let a = f.argument(0);
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let c = call(&mut b, "helper", &[a], vec![Type::i32()]);
        ret(&mut b, &[c.result_at(0)]);
        let mut r = DialectRegistry::new();
        register(&mut r);
        verify_func(&f, &r).unwrap();
    }
}
