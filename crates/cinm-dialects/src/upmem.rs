//! The `upmem` device dialect (paper Section 3.2.5).
//!
//! Exposes the UPMEM-specific concepts: DPU grid allocation, host↔MRAM
//! transfers, kernel launches with a configurable number of tasklets, and the
//! DPU-side operations (WRAM allocation, MRAM DMA, per-tasklet compute,
//! barriers) that the code generator maps 1:1 onto the UPMEM runtime — here,
//! onto the `upmem-sim` simulator.

use cinm_ir::prelude::*;

// ---------------------------------------------------------------------------
// Host-side operations
// ---------------------------------------------------------------------------

/// Op name: `upmem.alloc_dpus` (attrs `ranks`, `dpus_per_rank`, `tasklets`).
pub const ALLOC_DPUS: &str = "upmem.alloc_dpus";
/// Op name: `upmem.alloc_mram` — allocates a per-DPU MRAM buffer
/// (attrs describing the per-DPU slice shape).
pub const ALLOC_MRAM: &str = "upmem.alloc_mram";
/// Op name: `upmem.scatter` — host tensor → per-DPU MRAM slices (attr `scatter_map`).
pub const SCATTER: &str = "upmem.scatter";
/// Op name: `upmem.gather` — per-DPU MRAM slices → host tensor (attr `scatter_map`).
pub const GATHER: &str = "upmem.gather";
/// Op name: `upmem.launch` — launches the DPU kernel (attrs `kernel`, `tasklets`).
pub const LAUNCH: &str = "upmem.launch";
/// Op name: `upmem.wait` — waits for DPU completion / transfer tokens.
pub const WAIT: &str = "upmem.wait";
/// Op name: `upmem.free_dpus`.
pub const FREE_DPUS: &str = "upmem.free_dpus";

// ---------------------------------------------------------------------------
// DPU-side (kernel) operations
// ---------------------------------------------------------------------------

/// Op name: `upmem.tasklet_id` — the id of the executing tasklet.
pub const TASKLET_ID: &str = "upmem.tasklet_id";
/// Op name: `upmem.wram_alloc` — allocates a WRAM scratchpad buffer.
pub const WRAM_ALLOC: &str = "upmem.wram_alloc";
/// Op name: `upmem.mram_read` — DMA from MRAM into WRAM (attr `bytes`).
pub const MRAM_READ: &str = "upmem.mram_read";
/// Op name: `upmem.mram_write` — DMA from WRAM into MRAM (attr `bytes`).
pub const MRAM_WRITE: &str = "upmem.mram_write";
/// Op name: `upmem.dot_product` — per-tasklet dot-product accumulate.
pub const DOT_PRODUCT: &str = "upmem.dot_product";
/// Op name: `upmem.vector_op` — per-tasklet element-wise op (attr `kind`).
pub const VECTOR_OP: &str = "upmem.vector_op";
/// Op name: `upmem.reduce_op` — per-tasklet reduction (attr `kind`).
pub const REDUCE_OP: &str = "upmem.reduce_op";
/// Op name: `upmem.barrier_wait` — tasklet barrier (attr `barrier`).
pub const BARRIER_WAIT: &str = "upmem.barrier_wait";
/// Op name: `upmem.terminator` — terminator of a launch region.
pub const TERMINATOR: &str = "upmem.terminator";

/// The `upmem` op constraints, sorted by op name.
pub(crate) static OPS: &[OpConstraint] = &[
    OpConstraint::new(ALLOC_DPUS)
        .operands(0)
        .results(1)
        .required_attrs(&["ranks", "dpus_per_rank", "tasklets"]),
    OpConstraint::new(ALLOC_MRAM).operands(1).results(1),
    OpConstraint::new(BARRIER_WAIT)
        .operands(0)
        .results(0)
        .required_attrs(&["barrier"]),
    OpConstraint::new(DOT_PRODUCT).operands(3).results(0),
    OpConstraint::new(FREE_DPUS).operands(1).results(0),
    OpConstraint::new(GATHER)
        .operands(2)
        .results(2)
        .required_attrs(&["scatter_map"]),
    OpConstraint::new(LAUNCH)
        .min_operands(1)
        .results(1)
        .regions(1)
        .required_attrs(&["kernel", "tasklets"]),
    OpConstraint::new(MRAM_READ)
        .operands(3)
        .results(0)
        .required_attrs(&["bytes"]),
    OpConstraint::new(MRAM_WRITE)
        .operands(3)
        .results(0)
        .required_attrs(&["bytes"]),
    OpConstraint::new(REDUCE_OP)
        .operands(2)
        .results(0)
        .required_attrs(&["kind"]),
    OpConstraint::new(SCATTER)
        .operands(3)
        .results(1)
        .required_attrs(&["scatter_map"]),
    OpConstraint::new(TASKLET_ID).operands(0).results(1),
    OpConstraint::new(TERMINATOR)
        .min_operands(0)
        .results(0)
        .terminator(),
    OpConstraint::new(VECTOR_OP)
        .operands(3)
        .results(0)
        .required_attrs(&["kind"]),
    OpConstraint::new(WAIT).min_operands(1).results(0),
    OpConstraint::new(WRAM_ALLOC).operands(0).results(1),
];

/// Registers the `upmem` op constraints.
pub fn register(registry: &mut DialectRegistry) {
    registry.add_table(OPS);
}

/// Builds `upmem.alloc_dpus` and returns the DPU-grid value
/// (`!cnm.workgroup<num_dpus x tasklets>`).
pub fn alloc_dpus(b: &mut OpBuilder<'_>, ranks: i64, dpus_per_rank: i64, tasklets: i64) -> ValueId {
    b.op(ALLOC_DPUS)
        .attr("ranks", ranks)
        .attr("dpus_per_rank", dpus_per_rank)
        .attr("tasklets", tasklets)
        .result(Type::cnm_workgroup(&[ranks * dpus_per_rank, tasklets]))
        .push()
        .result()
}

/// Builds `upmem.alloc_mram` of a per-DPU MRAM slice.
pub fn alloc_mram(
    b: &mut OpBuilder<'_>,
    grid: ValueId,
    shape: &[i64],
    elem: ScalarType,
) -> ValueId {
    b.op(ALLOC_MRAM)
        .operand(grid)
        .result(Type::memref_in(shape, elem, MemorySpace::Mram))
        .push()
        .result()
}

/// Builds `upmem.scatter %tensor into %mram of %grid`, returning a token.
pub fn scatter(
    b: &mut OpBuilder<'_>,
    tensor: ValueId,
    mram: ValueId,
    grid: ValueId,
    map: AffineMap,
) -> ValueId {
    b.op(SCATTER)
        .operands([tensor, mram, grid])
        .attr("scatter_map", map)
        .result(Type::Token)
        .push()
        .result()
}

/// Builds `upmem.gather %mram of %grid`, returning `(tensor, token)`.
pub fn gather(
    b: &mut OpBuilder<'_>,
    mram: ValueId,
    grid: ValueId,
    map: AffineMap,
    result_shape: &[i64],
) -> (ValueId, ValueId) {
    let elem = b
        .body()
        .value_type(mram)
        .element_type()
        .expect("gather source must be shaped");
    let built = b
        .op(GATHER)
        .operands([mram, grid])
        .attr("scatter_map", map)
        .result(Type::tensor(result_shape, elem))
        .result(Type::Token)
        .push();
    (built.result_at(0), built.result_at(1))
}

/// A built `upmem.launch`.
#[derive(Debug, Clone)]
pub struct Launch {
    /// The launch operation.
    pub op: OpId,
    /// Completion token.
    pub token: ValueId,
    /// Entry block of the DPU kernel region.
    pub body_block: BlockId,
    /// MRAM views of the buffer operands inside the kernel.
    pub mram_views: Vec<ValueId>,
}

/// Builds `upmem.launch %grid (%mram_buffers...)` running `kernel` with the
/// given number of tasklets per DPU.
pub fn launch(
    b: &mut OpBuilder<'_>,
    grid: ValueId,
    mram_buffers: &[ValueId],
    kernel: &'static str,
    tasklets: i64,
) -> Launch {
    let region_args: Vec<Type> = mram_buffers
        .iter()
        .map(|v| *b.body().value_type(*v))
        .collect();
    let built = b
        .op(LAUNCH)
        .operand(grid)
        .operands(mram_buffers.iter().copied())
        .attr("kernel", kernel)
        .attr("tasklets", tasklets)
        .result(Type::Token)
        .region(region_args)
        .push();
    let body_block = b.body().op_region_entry_block(built.id, 0);
    let mram_views = b.body().block_args(body_block).to_vec();
    Launch {
        op: built.id,
        token: built.result_at(0),
        body_block,
        mram_views,
    }
}

/// Builds `upmem.wait` on tokens.
pub fn wait(b: &mut OpBuilder<'_>, tokens: &[ValueId]) -> OpId {
    b.op(WAIT).operands(tokens.iter().copied()).push().id
}

/// Builds `upmem.free_dpus %grid`.
pub fn free_dpus(b: &mut OpBuilder<'_>, grid: ValueId) -> OpId {
    b.op(FREE_DPUS).operand(grid).push().id
}

/// Builds `upmem.wram_alloc` of a WRAM scratchpad buffer.
pub fn wram_alloc(b: &mut OpBuilder<'_>, shape: &[i64], elem: ScalarType) -> ValueId {
    b.op(WRAM_ALLOC)
        .result(Type::memref_in(shape, elem, MemorySpace::Wram))
        .push()
        .result()
}

/// Builds `upmem.tasklet_id`.
pub fn tasklet_id(b: &mut OpBuilder<'_>) -> ValueId {
    b.op(TASKLET_ID).result(Type::index()).push().result()
}

/// Builds `upmem.mram_read %mram[%offset] -> %wram` moving `bytes` bytes.
pub fn mram_read(
    b: &mut OpBuilder<'_>,
    mram: ValueId,
    wram: ValueId,
    offset: ValueId,
    bytes: i64,
) -> OpId {
    b.op(MRAM_READ)
        .operands([mram, wram, offset])
        .attr("bytes", bytes)
        .push()
        .id
}

/// Builds `upmem.mram_write %wram -> %mram[%offset]` moving `bytes` bytes.
pub fn mram_write(
    b: &mut OpBuilder<'_>,
    wram: ValueId,
    mram: ValueId,
    offset: ValueId,
    bytes: i64,
) -> OpId {
    b.op(MRAM_WRITE)
        .operands([wram, mram, offset])
        .attr("bytes", bytes)
        .push()
        .id
}

/// Builds `upmem.dot_product %a, %b into %acc`.
pub fn dot_product(b: &mut OpBuilder<'_>, a: ValueId, rhs: ValueId, acc: ValueId) -> OpId {
    b.op(DOT_PRODUCT).operands([a, rhs, acc]).push().id
}

/// Builds `upmem.vector_op #kind %a, %b into %out`.
pub fn vector_op(
    b: &mut OpBuilder<'_>,
    kind: &'static str,
    a: ValueId,
    rhs: ValueId,
    out: ValueId,
) -> OpId {
    b.op(VECTOR_OP)
        .operands([a, rhs, out])
        .attr("kind", kind)
        .push()
        .id
}

/// Builds `upmem.barrier_wait` on the named barrier.
pub fn barrier_wait(b: &mut OpBuilder<'_>, barrier: &'static str) -> OpId {
    b.op(BARRIER_WAIT).attr("barrier", barrier).push().id
}

/// Builds the launch-region terminator.
pub fn terminator(b: &mut OpBuilder<'_>) -> OpId {
    b.op(TERMINATOR).push().id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_host_and_device_ops() {
        let mut r = DialectRegistry::new();
        register(&mut r);
        assert!(r.constraint(ALLOC_DPUS).is_some());
        assert!(r.constraint(MRAM_READ).is_some());
        assert_eq!(r.ops_of_dialect("upmem").len(), 16);
    }

    #[test]
    fn host_kernel_roundtrip_builds_and_verifies() {
        let t = Type::tensor(&[2048, 64], ScalarType::I32);
        let mut f = Func::new("mv_host", vec![t], vec![]);
        let a = f.argument(0);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let grid = alloc_dpus(&mut b, 4, 128, 16);
        assert_eq!(b.body().value_type(grid), &Type::cnm_workgroup(&[512, 16]));
        let mram = alloc_mram(&mut b, grid, &[4, 64], ScalarType::I32);
        let map = AffineMap::tiling(&[4, 64]);
        let tok = scatter(&mut b, a, mram, grid, map.clone());
        let l = launch(&mut b, grid, &[mram], "gemv", 16);
        let mut kb = OpBuilder::at_end(&mut f.body, l.body_block);
        let tid = tasklet_id(&mut kb);
        let wram = wram_alloc(&mut kb, &[64], ScalarType::I32);
        mram_read(&mut kb, l.mram_views[0], wram, tid, 256);
        let acc = wram_alloc(&mut kb, &[1], ScalarType::I32);
        dot_product(&mut kb, wram, wram, acc);
        mram_write(&mut kb, acc, l.mram_views[0], tid, 4);
        barrier_wait(&mut kb, "my_barrier");
        terminator(&mut kb);
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let (_res, gtok) = gather(&mut b, mram, grid, map, &[2048, 64]);
        wait(&mut b, &[tok, l.token, gtok]);
        free_dpus(&mut b, grid);

        let mut r = DialectRegistry::new();
        register(&mut r);
        verify_func(&f, &r).unwrap();
    }
}
