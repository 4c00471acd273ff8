//! The `cim` dialect — the abstraction over compute-in-memory devices
//! (paper Section 3.2.4, Table 3).
//!
//! Because most CIM devices are non-volatile and have fixed array sizes, the
//! dialect models explicit device acquisition/release (device locking), data
//! movement to and from the arrays, and a tiled `cim.execute` region that
//! wraps the actual `cinm` compute op.

use cinm_ir::prelude::*;

/// Op name: `cim.acquire` — acquires (and sets up) a CIM device, returns an id.
pub const ACQUIRE: &str = "cim.acquire";
/// Op name: `cim.write` — writes a tensor into the acquired device array.
pub const WRITE: &str = "cim.write";
/// Op name: `cim.execute` — launches execution on the acquired device; its
/// region computes on the operand tensors and ends with `cim.yield`.
pub const EXECUTE: &str = "cim.execute";
/// Op name: `cim.read` — reads result data back from the device.
pub const READ: &str = "cim.read";
/// Op name: `cim.barrier` — waits for outstanding device operations.
pub const BARRIER: &str = "cim.barrier";
/// Op name: `cim.release` — releases the device.
pub const RELEASE: &str = "cim.release";
/// Op name: `cim.yield` — terminator of a `cim.execute` region.
pub const YIELD: &str = "cim.yield";

/// The Table 3 op names.
pub fn table3_ops() -> Vec<&'static str> {
    vec![ACQUIRE, WRITE, EXECUTE, READ, BARRIER, RELEASE]
}

/// The `cim` op constraints, sorted by op name.
pub(crate) static OPS: &[OpConstraint] = &[
    OpConstraint::new(ACQUIRE).operands(0).results(1),
    OpConstraint::new(BARRIER).min_operands(1).results(0),
    OpConstraint::new(EXECUTE)
        .min_operands(1)
        .results(1)
        .regions(1),
    OpConstraint::new(READ).operands(1).results(1),
    OpConstraint::new(RELEASE).operands(1).results(0),
    OpConstraint::new(WRITE).operands(2).results(0),
    OpConstraint::new(YIELD)
        .min_operands(0)
        .results(0)
        .terminator(),
];

/// Registers the `cim` op constraints.
pub fn register(registry: &mut DialectRegistry) {
    registry.add_table(OPS);
}

/// Builds `cim.acquire`, returning the device id value.
pub fn acquire(b: &mut OpBuilder<'_>) -> ValueId {
    b.push(OpSpec::new(ACQUIRE).result(Type::CimDeviceId))
        .result()
}

/// Builds `cim.write %tensor to %device`.
pub fn write(b: &mut OpBuilder<'_>, device: ValueId, tensor: ValueId) -> OpId {
    b.push(OpSpec::new(WRITE).operands([device, tensor])).id
}

/// A built `cim.execute` operation.
#[derive(Debug, Clone)]
pub struct Execute {
    /// The execute operation.
    pub op: OpId,
    /// The result tensor produced by the execution.
    pub result: ValueId,
    /// Entry block of the execute region.
    pub body_block: BlockId,
    /// In-region views of the operand tensors, in operand order
    /// (excluding the device id).
    pub operand_views: Vec<ValueId>,
}

/// Builds `cim.execute (%device, %operands...)` returning a tensor of
/// `result_type`. The region receives one block argument per tensor operand.
pub fn execute(
    b: &mut OpBuilder<'_>,
    device: ValueId,
    operands: &[ValueId],
    result_type: Type,
) -> Execute {
    let region_args: Vec<Type> = operands
        .iter()
        .map(|v| b.body().value_type(*v).clone())
        .collect();
    let mut all_operands = vec![device];
    all_operands.extend_from_slice(operands);
    let built = b.push(
        OpSpec::new(EXECUTE)
            .operands(all_operands)
            .result(result_type)
            .region(region_args),
    );
    let body_block = b.body().op_region_entry_block(built.id, 0);
    let operand_views = b.body().block_args(body_block).to_vec();
    Execute {
        op: built.id,
        result: built.result_at(0),
        body_block,
        operand_views,
    }
}

/// Builds `cim.read %device` returning a tensor of `result_type`.
pub fn read(b: &mut OpBuilder<'_>, device: ValueId, result_type: Type) -> ValueId {
    b.push(OpSpec::new(READ).operand(device).result(result_type))
        .result()
}

/// Builds `cim.barrier` on the device (and optional extra dependency values).
pub fn barrier(b: &mut OpBuilder<'_>, deps: &[ValueId]) -> OpId {
    b.push(OpSpec::new(BARRIER).operands(deps.iter().copied()))
        .id
}

/// Builds `cim.release %device`.
pub fn release(b: &mut OpBuilder<'_>, device: ValueId) -> OpId {
    b.push(OpSpec::new(RELEASE).operand(device)).id
}

/// Builds the `cim.yield` terminator of an execute region.
pub fn yield_op(b: &mut OpBuilder<'_>, values: &[ValueId]) -> OpId {
    b.push(OpSpec::new(YIELD).operands(values.iter().copied()))
        .id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cinm;

    #[test]
    fn table3_inventory_is_registered() {
        let mut r = DialectRegistry::new();
        register(&mut r);
        for op in table3_ops() {
            assert!(r.constraint(op).is_some(), "{op} must be registered");
        }
        assert_eq!(r.ops_of_dialect("cim").len(), 7);
    }

    #[test]
    fn acquire_execute_release_matches_figure_6b() {
        // One tiled iteration of the paper's Figure 6b:
        //   %id = cim.acquire
        //   %c  = cim.execute(%id, %a, %b) { cinm.gemm ...; cim.yield }
        //   cim.release %id
        let t16 = Type::tensor(&[16, 16], ScalarType::I16);
        let mut f = Func::new("tile", vec![t16.clone(), t16.clone()], vec![t16.clone()]);
        let (a, b_) = (f.argument(0), f.argument(1));
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let id = acquire(&mut b);
        assert_eq!(b.body().value_type(id), &Type::CimDeviceId);
        let exec = execute(&mut b, id, &[a, b_], t16.clone());
        assert_eq!(exec.operand_views.len(), 2);
        // Fill the region with the gemm + yield.
        let mut rb = OpBuilder::at_end(&mut f.body, exec.body_block);
        let out = cinm::gemm(&mut rb, exec.operand_views[0], exec.operand_views[1]);
        yield_op(&mut rb, &[out]);
        // Release and return.
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        release(&mut b, id);
        crate::func::ret(&mut b, &[exec.result]);

        let mut r = DialectRegistry::new();
        register(&mut r);
        cinm::register(&mut r);
        crate::func::register(&mut r);
        verify_func(&f, &r).unwrap();
        assert_eq!(f.body.ops_with_name(EXECUTE).len(), 1);
        assert_eq!(f.body.ops_with_name(cinm::GEMM).len(), 1);
    }

    #[test]
    fn write_read_barrier_builders() {
        let t = Type::tensor(&[64, 64], ScalarType::I32);
        let mut f = Func::new("t", vec![t.clone()], vec![]);
        let a = f.argument(0);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let id = acquire(&mut b);
        write(&mut b, id, a);
        let r = read(&mut b, id, t.clone());
        assert_eq!(b.body().value_type(r), &t);
        barrier(&mut b, &[id]);
        release(&mut b, id);
        let mut reg = DialectRegistry::new();
        register(&mut reg);
        verify_func(&f, &reg).unwrap();
    }
}
