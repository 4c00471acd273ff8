//! The `scf` dialect: structured control flow.
//!
//! The lowered host code of the paper (Figures 6a/6b) is expressed with
//! `scf.for` loops carrying `iter_args` and terminated by `scf.yield`.

use cinm_ir::prelude::*;

/// Op name: `scf.for`.
///
/// Operands: `[lower, upper, step, init_args...]`; one region whose entry
/// block receives `[induction_variable, iter_args...]`; results are the final
/// values of the iter args.
pub const FOR: &str = "scf.for";
/// Op name: `scf.yield` — terminator of `scf.for` / `scf.if` regions.
pub const YIELD: &str = "scf.yield";
/// Op name: `scf.if` (condition operand, then/else regions).
pub const IF: &str = "scf.if";
/// Op name: `scf.parallel` — a parallel loop nest (attr `num_dims`).
pub const PARALLEL: &str = "scf.parallel";

/// The `scf` op constraints, sorted by op name.
pub(crate) static OPS: &[OpConstraint] = &[
    OpConstraint::new(FOR).min_operands(3).regions(1),
    OpConstraint::new(IF).operands(1).regions(2),
    OpConstraint::new(PARALLEL)
        .min_operands(0)
        .regions(1)
        .required_attrs(&["upper_bounds"]),
    OpConstraint::new(YIELD)
        .min_operands(0)
        .results(0)
        .terminator(),
];

/// Registers the `scf` op constraints.
pub fn register(registry: &mut DialectRegistry) {
    registry.add_table(OPS);
}

/// A built `scf.for` loop.
#[derive(Debug, Clone)]
pub struct ForLoop {
    /// The `scf.for` operation.
    pub op: OpId,
    /// Entry block of the loop body.
    pub body_block: BlockId,
    /// The induction variable (first body block argument).
    pub induction_var: ValueId,
    /// Iteration-carried arguments inside the body.
    pub iter_args: Vec<ValueId>,
    /// Results of the loop (final iter arg values).
    pub results: Vec<ValueId>,
}

/// Builds an `scf.for %iv = %lower to %upper step %step iter_args(...)`.
///
/// The caller fills the body block (available as [`ForLoop::body_block`]) and
/// must terminate it with [`yield_values`].
pub fn for_loop(
    b: &mut OpBuilder<'_>,
    lower: ValueId,
    upper: ValueId,
    step: ValueId,
    init_args: &[ValueId],
) -> ForLoop {
    let iter_types: Vec<Type> = init_args
        .iter()
        .map(|v| b.body().value_type(*v).clone())
        .collect();
    let mut region_args = vec![Type::index()];
    region_args.extend(iter_types.iter().cloned());
    let mut operands = vec![lower, upper, step];
    operands.extend_from_slice(init_args);
    let built = b.push(
        OpSpec::new(FOR)
            .operands(operands)
            .results(iter_types)
            .region(region_args),
    );
    let body_block = b.body().op_region_entry_block(built.id, 0);
    let args = b.body().block_args(body_block).to_vec();
    ForLoop {
        op: built.id,
        body_block,
        induction_var: args[0],
        iter_args: args[1..].to_vec(),
        results: b.body().op(built.id).results.clone(),
    }
}

/// Builds the `scf.yield` terminator.
pub fn yield_values(b: &mut OpBuilder<'_>, values: &[ValueId]) -> OpId {
    b.push(OpSpec::new(YIELD).operands(values.iter().copied()))
        .id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith;

    #[test]
    fn for_loop_structure() {
        let mut f = Func::new("t", vec![Type::tensor(&[16], ScalarType::I32)], vec![]);
        let entry = f.body.entry_block();
        let init = f.argument(0);
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let lo = b.const_index(0);
        let hi = b.const_index(128);
        let st = b.const_index(16);
        let lp = for_loop(&mut b, lo, hi, st, &[init]);
        assert_eq!(lp.iter_args.len(), 1);
        assert_eq!(lp.results.len(), 1);
        assert_eq!(f.body.value_type(lp.induction_var), &Type::index());
        // Fill the body: yield the iter arg unchanged.
        let mut inner = OpBuilder::at_end(&mut f.body, lp.body_block);
        yield_values(&mut inner, &[lp.iter_args[0]]);

        let mut r = DialectRegistry::new();
        register(&mut r);
        arith::register(&mut r);
        verify_func(&f, &r).unwrap();
    }

    #[test]
    fn yield_is_terminator() {
        let mut r = DialectRegistry::new();
        register(&mut r);
        assert!(r.constraint(YIELD).unwrap().is_terminator);
        assert_eq!(r.ops_of_dialect("scf").len(), 4);
    }
}
