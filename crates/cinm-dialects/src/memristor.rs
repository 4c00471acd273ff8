//! The `memristor` device dialect (paper Section 3.2.5, extending OCC).
//!
//! Exposes the device traits of memristive (PCM/RRAM) crossbar accelerators:
//! controller configuration, programming matrix tiles into crossbars
//! (expensive writes), issuing analog matrix-vector/matrix-matrix products on
//! programmed tiles, reading results back, and merging partial results.
//! Every op maps one-to-one onto a device API call of the `memristor-sim`
//! crossbar simulator.

use cinm_ir::prelude::*;

/// Op name: `memristor.configure` — sets up the controller
/// (attrs `tile_rows`, `tile_cols`, `num_tiles`, `write_mode`).
pub const CONFIGURE: &str = "memristor.configure";
/// Op name: `memristor.write_to_crossbar` — programs a matrix tile into a
/// crossbar tile (attr `tile`). This is the expensive NVM write.
pub const WRITE_TO_CROSSBAR: &str = "memristor.write_to_crossbar";
/// Op name: `memristor.gemm_tile` — analog matrix-matrix product of an input
/// tile against the programmed tile (attr `tile`).
pub const GEMM_TILE: &str = "memristor.gemm_tile";
/// Op name: `memristor.gevm_tile` — analog vector-matrix product (attr `tile`).
pub const GEVM_TILE: &str = "memristor.gevm_tile";
/// Op name: `memristor.read_result` — reads the accumulated result of a tile.
pub const READ_RESULT: &str = "memristor.read_result";
/// Op name: `memristor.merge_partial` — merges partial tile results (attr `op`).
pub const MERGE_PARTIAL: &str = "memristor.merge_partial";
/// Op name: `memristor.barrier` — waits for outstanding tile operations.
pub const BARRIER: &str = "memristor.barrier";
/// Op name: `memristor.release` — releases the accelerator.
pub const RELEASE: &str = "memristor.release";

/// Default crossbar geometry of the paper's evaluation (a PCM-based
/// four-tile accelerator, each tile 64×64).
pub mod arch {
    /// Rows of one crossbar tile.
    pub const TILE_ROWS: usize = 64;
    /// Columns of one crossbar tile.
    pub const TILE_COLS: usize = 64;
    /// Number of crossbar tiles in the accelerator.
    pub const NUM_TILES: usize = 4;
}

/// The `memristor` op constraints, sorted by op name.
pub(crate) static OPS: &[OpConstraint] = &[
    OpConstraint::new(BARRIER).operands(1).results(0),
    OpConstraint::new(CONFIGURE)
        .operands(0)
        .results(1)
        .required_attrs(&["tile_rows", "tile_cols", "num_tiles"]),
    OpConstraint::new(GEMM_TILE)
        .min_operands(2)
        .results(1)
        .any_regions()
        .required_attrs(&["tile"]),
    OpConstraint::new(GEVM_TILE)
        .operands(2)
        .results(1)
        .required_attrs(&["tile"]),
    OpConstraint::new(MERGE_PARTIAL)
        .operands(2)
        .results(1)
        .required_attrs(&["op"]),
    OpConstraint::new(READ_RESULT)
        .operands(1)
        .results(1)
        .required_attrs(&["tile"]),
    OpConstraint::new(RELEASE).operands(1).results(0),
    OpConstraint::new(WRITE_TO_CROSSBAR)
        .operands(2)
        .results(0)
        .required_attrs(&["tile"]),
];

/// Registers the `memristor` op constraints.
pub fn register(registry: &mut DialectRegistry) {
    registry.add_table(OPS);
}

/// Builds `memristor.configure` and returns the device handle.
pub fn configure(
    b: &mut OpBuilder<'_>,
    tile_rows: i64,
    tile_cols: i64,
    num_tiles: i64,
    write_mode: &'static str,
) -> ValueId {
    b.op(CONFIGURE)
        .attr("tile_rows", tile_rows)
        .attr("tile_cols", tile_cols)
        .attr("num_tiles", num_tiles)
        .attr("write_mode", write_mode)
        .result(Type::CimDeviceId)
        .push()
        .result()
}

/// Builds `memristor.write_to_crossbar %device, %matrix_tile {tile}`.
pub fn write_to_crossbar(
    b: &mut OpBuilder<'_>,
    device: ValueId,
    matrix: ValueId,
    tile: i64,
) -> OpId {
    b.op(WRITE_TO_CROSSBAR)
        .operands([device, matrix])
        .attr("tile", tile)
        .push()
        .id
}

/// Builds `memristor.gemm_tile %device, %input {tile}` returning the
/// partial-result tensor (`input_rows × tile_cols`).
pub fn gemm_tile(
    b: &mut OpBuilder<'_>,
    device: ValueId,
    input: ValueId,
    tile: i64,
    result_shape: &[i64],
) -> ValueId {
    let elem = b
        .body()
        .value_type(input)
        .element_type()
        .expect("gemm_tile input must be shaped");
    b.op(GEMM_TILE)
        .operands([device, input])
        .attr("tile", tile)
        .result(Type::tensor(result_shape, elem))
        .push()
        .result()
}

/// Builds `memristor.gevm_tile %device, %input {tile}`.
pub fn gevm_tile(
    b: &mut OpBuilder<'_>,
    device: ValueId,
    input: ValueId,
    tile: i64,
    result_len: i64,
) -> ValueId {
    let elem = b
        .body()
        .value_type(input)
        .element_type()
        .expect("gevm_tile input must be shaped");
    b.op(GEVM_TILE)
        .operands([device, input])
        .attr("tile", tile)
        .result(Type::tensor(&[result_len], elem))
        .push()
        .result()
}

/// Builds `memristor.merge_partial #op (%acc, %partial)`.
pub fn merge_partial(
    b: &mut OpBuilder<'_>,
    op: &'static str,
    acc: ValueId,
    partial: ValueId,
) -> ValueId {
    let ty = *b.body().value_type(acc);
    b.op(MERGE_PARTIAL)
        .operands([acc, partial])
        .attr("op", op)
        .result(ty)
        .push()
        .result()
}

/// Builds `memristor.barrier %device`.
pub fn barrier(b: &mut OpBuilder<'_>, device: ValueId) -> OpId {
    b.op(BARRIER).operand(device).push().id
}

/// Builds `memristor.release %device`.
pub fn release(b: &mut OpBuilder<'_>, device: ValueId) -> OpId {
    b.op(RELEASE).operand(device).push().id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_device_api() {
        let mut r = DialectRegistry::new();
        register(&mut r);
        assert_eq!(r.ops_of_dialect("memristor").len(), 8);
        assert!(r.constraint(WRITE_TO_CROSSBAR).is_some());
    }

    #[test]
    fn default_geometry_matches_paper() {
        assert_eq!(arch::TILE_ROWS, 64);
        assert_eq!(arch::TILE_COLS, 64);
        assert_eq!(arch::NUM_TILES, 4);
    }

    #[test]
    fn tiled_gemm_sequence_builds_and_verifies() {
        let t = Type::tensor(&[64, 64], ScalarType::I32);
        let mut f = Func::new("xbar_gemm", vec![t, t], vec![]);
        let (a, b_mat) = (f.argument(0), f.argument(1));
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let dev = configure(&mut b, 64, 64, 4, "write-verify");
        write_to_crossbar(&mut b, dev, b_mat, 0);
        let p0 = gemm_tile(&mut b, dev, a, 0, &[64, 64]);
        let p1 = gemm_tile(&mut b, dev, a, 0, &[64, 64]);
        let merged = merge_partial(&mut b, "add", p0, p1);
        assert_eq!(b.body().value_type(merged), &t);
        barrier(&mut b, dev);
        release(&mut b, dev);

        let mut r = DialectRegistry::new();
        register(&mut r);
        verify_func(&f, &r).unwrap();
    }
}
