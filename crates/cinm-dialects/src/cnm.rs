//! The `cnm` dialect — the abstraction over compute-near-memory devices
//! (paper Section 3.2.3, Table 2).
//!
//! The dialect separates host and device code. Device resources are
//! represented by *workgroups* — logical grids of processing units arranged
//! in a memory tree — and opaque *buffers* that the host fills with
//! `cnm.scatter` and drains with `cnm.gather`. Inside a `cnm.launch` region,
//! the opaque buffers appear as plain memrefs to device memory.

use cinm_ir::prelude::*;

/// Op name: `cnm.workgroup` — allocates a workgroup on a CNM device
/// (attrs `shape`, `cnm.physical_dims`).
pub const WORKGROUP: &str = "cnm.workgroup";
/// Op name: `cnm.alloc` — allocates an opaque buffer for a workgroup
/// (attr `cnm.physical_space`).
pub const ALLOC: &str = "cnm.alloc";
/// Op name: `cnm.scatter` — copies a host tensor into a buffer following a
/// scatter (affine) map; returns a token.
pub const SCATTER: &str = "cnm.scatter";
/// Op name: `cnm.gather` — symmetrical to scatter, copies a buffer back into
/// a host tensor; returns `(tensor, token)`.
pub const GATHER: &str = "cnm.gather";
/// Op name: `cnm.launch` — launches the workgroup execution; its region is
/// the per-PU kernel, whose block arguments are the device views of the
/// buffer operands.
pub const LAUNCH: &str = "cnm.launch";
/// Op name: `cnm.wait` — synchronises on tokens.
pub const WAIT: &str = "cnm.wait";
/// Op name: `cnm.terminator` — terminator of a `cnm.launch` region.
pub const TERMINATOR: &str = "cnm.terminator";
/// Op name: `cnm.free_workgroup` — releases the workgroup.
pub const FREE_WORKGROUP: &str = "cnm.free_workgroup";

/// The Table 2 op names.
pub fn table2_ops() -> Vec<&'static str> {
    vec![WORKGROUP, ALLOC, SCATTER, GATHER, LAUNCH, WAIT]
}

/// The `cnm` op constraints, sorted by op name.
pub(crate) static OPS: &[OpConstraint] = &[
    OpConstraint::new(ALLOC)
        .operands(1)
        .results(1)
        .required_attrs(&["cnm.physical_space"]),
    OpConstraint::new(FREE_WORKGROUP).operands(1).results(0),
    OpConstraint::new(GATHER)
        .operands(2)
        .results(2)
        .required_attrs(&["scatter_map"]),
    OpConstraint::new(LAUNCH)
        .min_operands(1)
        .results(1)
        .regions(1),
    OpConstraint::new(SCATTER)
        .operands(3)
        .results(1)
        .required_attrs(&["scatter_map"]),
    OpConstraint::new(TERMINATOR)
        .min_operands(0)
        .results(0)
        .terminator(),
    OpConstraint::new(WAIT).min_operands(1).results(0),
    OpConstraint::new(WORKGROUP)
        .operands(0)
        .results(1)
        .required_attrs(&["shape"]),
];

/// Registers the `cnm` op constraints.
pub fn register(registry: &mut DialectRegistry) {
    registry.add_table(OPS);
}

/// Builds `cnm.workgroup` with the given logical shape and physical dims.
///
/// `physical_dims` names the hardware level each workgroup dimension maps to,
/// e.g. `["dpu", "thread"]` in the paper's Figure 6a.
pub fn workgroup(b: &mut OpBuilder<'_>, shape: &[i64], physical_dims: &[&str]) -> ValueId {
    assert_eq!(
        shape.len(),
        physical_dims.len(),
        "one physical dimension name per workgroup dimension"
    );
    b.push(
        OpSpec::new(WORKGROUP)
            .attr("shape", shape.to_vec())
            .attr(
                "cnm.physical_dims",
                Attribute::StrArray(physical_dims.iter().map(|s| s.to_string()).collect()),
            )
            .result(Type::cnm_workgroup(shape)),
    )
    .result()
}

/// Builds `cnm.alloc` of a per-PU buffer of `shape`/`elem` at tree `level` in
/// the named physical space (`"global"`, `"wram"`, ...).
pub fn alloc(
    b: &mut OpBuilder<'_>,
    wg: ValueId,
    shape: &[i64],
    elem: ScalarType,
    level: u32,
    physical_space: &str,
) -> ValueId {
    b.push(
        OpSpec::new(ALLOC)
            .operand(wg)
            .attr("cnm.physical_space", physical_space)
            .result(Type::cnm_buffer(shape, elem, level)),
    )
    .result()
}

/// Builds `cnm.scatter %tensor into %buffer of %wg [map]`, returning a token.
pub fn scatter(
    b: &mut OpBuilder<'_>,
    tensor: ValueId,
    buffer: ValueId,
    wg: ValueId,
    map: AffineMap,
) -> ValueId {
    b.push(
        OpSpec::new(SCATTER)
            .operands([tensor, buffer, wg])
            .attr("scatter_map", map)
            .result(Type::Token),
    )
    .result()
}

/// Builds `cnm.gather %buffer of %wg [map]`, returning `(tensor, token)`.
pub fn gather(
    b: &mut OpBuilder<'_>,
    buffer: ValueId,
    wg: ValueId,
    map: AffineMap,
    result_shape: &[i64],
) -> (ValueId, ValueId) {
    let elem = b
        .body()
        .value_type(buffer)
        .element_type()
        .expect("gather source must be a buffer");
    let built = b.push(
        OpSpec::new(GATHER)
            .operands([buffer, wg])
            .attr("scatter_map", map)
            .result(Type::tensor(result_shape, elem))
            .result(Type::Token),
    );
    (built.result_at(0), built.result_at(1))
}

/// A built `cnm.launch` operation.
#[derive(Debug, Clone)]
pub struct Launch {
    /// The launch operation.
    pub op: OpId,
    /// The completion token it returns.
    pub token: ValueId,
    /// Entry block of the kernel region.
    pub body_block: BlockId,
    /// Device-side memref views of the buffer operands, in operand order.
    pub buffer_views: Vec<ValueId>,
}

/// Builds `cnm.launch %wg (%buffers...)` whose region receives one memref
/// block argument per buffer (the device view).
pub fn launch(b: &mut OpBuilder<'_>, wg: ValueId, buffers: &[ValueId]) -> Launch {
    let mut region_args = Vec::with_capacity(buffers.len());
    for &buf in buffers {
        let ty = b.body().value_type(buf).clone();
        let (shape, elem) = match &ty {
            Type::CnmBuffer(t) => (t.shape.clone(), t.elem),
            other => panic!("cnm.launch operand must be a !cnm.buffer, got {other}"),
        };
        region_args.push(Type::memref_in(&shape, elem, MemorySpace::PuPrivate));
    }
    let mut operands = vec![wg];
    operands.extend_from_slice(buffers);
    let built = b.push(
        OpSpec::new(LAUNCH)
            .operands(operands)
            .result(Type::Token)
            .region(region_args),
    );
    let body_block = b.body().op_region_entry_block(built.id, 0);
    let buffer_views = b.body().block_args(body_block).to_vec();
    Launch {
        op: built.id,
        token: built.result_at(0),
        body_block,
        buffer_views,
    }
}

/// Builds `cnm.wait` on the given tokens.
pub fn wait(b: &mut OpBuilder<'_>, tokens: &[ValueId]) -> OpId {
    b.push(OpSpec::new(WAIT).operands(tokens.iter().copied()))
        .id
}

/// Builds the `cnm.terminator` of a launch region.
pub fn terminator(b: &mut OpBuilder<'_>) -> OpId {
    b.push(OpSpec::new(TERMINATOR)).id
}

/// Builds `cnm.free_workgroup %wg`.
pub fn free_workgroup(b: &mut OpBuilder<'_>, wg: ValueId) -> OpId {
    b.push(OpSpec::new(FREE_WORKGROUP).operand(wg)).id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_inventory_is_registered() {
        let mut r = DialectRegistry::new();
        register(&mut r);
        for op in table2_ops() {
            assert!(r.constraint(op).is_some(), "{op} must be registered");
        }
        assert_eq!(r.ops_of_dialect("cnm").len(), 8);
    }

    #[test]
    fn workgroup_scatter_launch_gather_roundtrip_builds_and_verifies() {
        // Mirrors the paper's Figure 6a structure for one tile.
        let t = Type::tensor(&[128, 32], ScalarType::I16);
        let mut f = Func::new("conv_tile", vec![t], vec![]);
        let a_tile = f.argument(0);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);

        let wg = workgroup(&mut b, &[8, 2], &["dpu", "thread"]);
        let a_buf = alloc(&mut b, wg, &[16, 16], ScalarType::I16, 0, "global");
        let map = AffineMap::tiling(&[16, 16]);
        let tok = scatter(&mut b, a_tile, a_buf, wg, map.clone());
        let l = launch(&mut b, wg, &[a_buf]);
        assert_eq!(l.buffer_views.len(), 1);
        assert_eq!(
            f.body.value_type(l.buffer_views[0]),
            &Type::memref_in(&[16, 16], ScalarType::I16, MemorySpace::PuPrivate)
        );
        // Terminate the kernel region.
        let mut kb = OpBuilder::at_end(&mut f.body, l.body_block);
        terminator(&mut kb);
        // Gather the result back and synchronise.
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let (result, g_tok) = gather(&mut b, a_buf, wg, map, &[128, 32]);
        assert_eq!(
            b.body().value_type(result),
            &Type::tensor(&[128, 32], ScalarType::I16)
        );
        wait(&mut b, &[tok, l.token, g_tok]);
        free_workgroup(&mut b, wg);

        let mut r = DialectRegistry::new();
        register(&mut r);
        verify_func(&f, &r).unwrap();
    }

    #[test]
    fn workgroup_type_reflects_shape() {
        let mut f = Func::new("t", vec![], vec![]);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let wg = workgroup(&mut b, &[64, 16], &["dpu", "thread"]);
        assert_eq!(f.body.value_type(wg), &Type::cnm_workgroup(&[64, 16]));
    }

    #[test]
    #[should_panic(expected = "must be a !cnm.buffer")]
    fn launch_rejects_non_buffer_operand() {
        let mut f = Func::new("t", vec![Type::tensor(&[4], ScalarType::I32)], vec![]);
        let arg = f.argument(0);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let wg = workgroup(&mut b, &[2], &["dpu"]);
        launch(&mut b, wg, &[arg]);
    }

    #[test]
    #[should_panic(expected = "one physical dimension name")]
    fn workgroup_requires_matching_physical_dims() {
        let mut f = Func::new("t", vec![], vec![]);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        workgroup(&mut b, &[8, 2], &["dpu"]);
    }
}
