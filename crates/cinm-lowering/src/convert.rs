//! Dialect conversion passes of the CINM lowering pipeline (paper Figure 4).
//!
//! * [`TosaToLinalgPass`] — decomposes `tosa` front-end ops into `linalg`
//!   (e.g. `tosa.fully_connected` → transpose + matmul + bias add).
//! * [`LinalgToCinmPass`] — converts `linalg` named ops into the Table 1
//!   `cinm` op set, rewriting convolutions as `im2col` + `cinm.gemm`
//!   (Figure 5) and contractions as GEMMs.
//! * [`CinmToCnmPass`] — lowers `cinm` compute ops to the `cnm` abstraction:
//!   workgroup allocation, buffer scatter/gather and a kernel launch.
//! * [`CinmToCimPass`] — lowers matmul-like `cinm` ops to the `cim`
//!   abstraction: device acquisition, tiled execution, release (Figure 6b).
//! * [`CnmToUpmemPass`] / [`CimToMemristorPass`] — map the paradigm
//!   abstractions onto the device dialects.

use cinm_dialects::{cim, cinm, cnm, linalg, memristor, tensor, tosa, upmem};
use cinm_ir::prelude::*;

use crate::tiling::wram_tile_elems;

// ---------------------------------------------------------------------------
// tosa -> linalg
// ---------------------------------------------------------------------------

/// Decomposes `tosa` ops into `linalg` ops.
pub struct TosaToLinalgPass;

impl Pass for TosaToLinalgPass {
    fn name(&self) -> &'static str {
        "convert-tosa-to-linalg"
    }

    fn run_on_func(&self, func: &mut Func) -> IrResult<PassResult> {
        let mut changed = false;
        for op in func.body.walk() {
            if !func.body.is_live(op) {
                continue;
            }
            let body = &mut func.body;
            let new_result = match body.op(op).name.as_str() {
                tosa::FULLY_CONNECTED => rewrite_fully_connected(body, op)?,
                tosa::MATMUL => {
                    let ([lhs, rhs], _, ty) = unpack(body, op);
                    let (block, index) = (body.op_block(op), body.op_index_in_block(op));
                    let mut b = OpBuilder::at_end(body, block);
                    let init = b
                        .op(tensor::SPLAT)
                        .attr("value", 0_i64)
                        .result(ty)
                        .push_at(index);
                    b.op(linalg::MATMUL)
                        .operands([lhs, rhs, init.result()])
                        .result(ty)
                        .push_at(index + 1)
                        .result()
                }
                tosa::ADD => {
                    let ([lhs, rhs], _, ty) = unpack(body, op);
                    let (block, index) = (body.op_block(op), body.op_index_in_block(op));
                    OpBuilder::at_end(body, block)
                        .op(linalg::ELEMWISE_BINARY)
                        .operands([lhs, rhs])
                        .attr("fun", "add")
                        .result(ty)
                        .push_at(index)
                        .result()
                }
                tosa::CLAMP => {
                    let ([input], _, ty) = unpack(body, op);
                    let min = body.op(op).int_attr("min").unwrap_or(0);
                    let (block, index) = (body.op_block(op), body.op_index_in_block(op));
                    OpBuilder::at_end(body, block)
                        .op(linalg::ELEMWISE_UNARY)
                        .operand(input)
                        .attr("fun", "clamp_min")
                        .attr("min", min)
                        .result(ty)
                        .push_at(index)
                        .result()
                }
                _ => continue,
            };
            replace_op(body, op, new_result);
            changed = true;
        }
        Ok(PassResult::from_changed(changed))
    }
}

/// The first `N` operands of an op, its first result and that result's type.
fn unpack<const N: usize>(body: &Body, op: OpId) -> ([ValueId; N], ValueId, Type) {
    let operation = body.op(op);
    let operands = std::array::from_fn(|i| operation.operands[i]);
    let result = operation.results.get(0);
    (operands, result, *body.value_type(result))
}

/// Redirects the uses of `op`'s (single) result to `new_result` and erases
/// `op`.
fn replace_op(body: &mut Body, op: OpId, new_result: ValueId) {
    body.replace_all_uses(body.result(op, 0), new_result);
    body.erase_op(op);
}

/// The shape of a shaped value.
fn shape_of(body: &Body, v: ValueId, what: &str) -> IrResult<Shape> {
    let shape = body
        .value_type(v)
        .shape()
        .ok_or_else(|| IrError::new(format!("{what} must be shaped")))?;
    Ok(Shape::new(shape))
}

/// `tosa.fully_connected(x, w, bias)` becomes, as in the paper (Section
/// 3.2.2): transpose of the weights, a matmul and a bias addition.
fn rewrite_fully_connected(body: &mut Body, op: OpId) -> IrResult<ValueId> {
    let ([x, w, bias], result, _) = unpack(body, op);
    let block = body.op_block(op);
    let index = body.op_index_in_block(op);

    let w_shape = shape_of(body, w, "fully_connected weight")?;
    let elem = body
        .value_type(w)
        .element_type()
        .ok_or_else(|| IrError::new("fully_connected weight must have element type"))?;
    let out_shape = shape_of(body, result, "fully_connected result")?;

    let mut b = OpBuilder::at_end(body, block);
    // Transpose OxI -> IxO.
    let wt = b
        .op(linalg::TRANSPOSE)
        .operand(w)
        .attr("permutation", [1, 0])
        .result(Type::tensor(&[w_shape[1], w_shape[0]], elem))
        .push_at(index);
    let init = b
        .op(tensor::SPLAT)
        .attr("value", 0_i64)
        .result(Type::tensor(&out_shape, elem))
        .push_at(index + 1);
    let mm = b
        .op(linalg::MATMUL)
        .operands([x, wt.result(), init.result()])
        .result(Type::tensor(&out_shape, elem))
        .push_at(index + 2);
    // Bias addition expressed as a generic/elementwise op on the broadcast
    // bias, as in the paper's MLP example.
    let bias_add = b
        .op(linalg::GENERIC)
        .operands([mm.result(), bias])
        .attr("library_call", "broadcast_bias_add")
        .result(Type::tensor(&out_shape, elem))
        .push_at(index + 3);
    Ok(bias_add.result())
}

// ---------------------------------------------------------------------------
// linalg -> cinm
// ---------------------------------------------------------------------------

/// Converts `linalg` ops to the `cinm` abstraction.
pub struct LinalgToCinmPass;

impl Pass for LinalgToCinmPass {
    fn name(&self) -> &'static str {
        "convert-linalg-to-cinm"
    }

    fn run_on_func(&self, func: &mut Func) -> IrResult<PassResult> {
        let mut changed = false;
        for op in func.body.walk() {
            if !func.body.is_live(op) {
                continue;
            }
            let body = &mut func.body;
            let operation = body.op(op);
            // The cinm op replacing a one-to-one linalg op, with the attribute
            // it carries over (moved, not copied: a literal stays borrowed).
            let (name, attr) = match operation.name.as_str() {
                linalg::MATMUL => {
                    let ([a, b, init], _, ty) = unpack(body, op);
                    replace_with_gemm_plus_init(body, op, a, b, Some(init), ty);
                    changed = true;
                    continue;
                }
                linalg::MATVEC => {
                    let ([a, x, init], _, ty) = unpack(body, op);
                    let (block, index) = (body.op_block(op), body.op_index_in_block(op));
                    let mut b = OpBuilder::at_end(body, block);
                    let gemv = b.op(cinm::GEMV).operands([a, x]).result(ty).push_at(index);
                    let add = b
                        .op("cinm.add")
                        .operands([gemv.result(), init])
                        .result(ty)
                        .push_at(index + 1);
                    replace_op(body, op, add.result());
                    changed = true;
                    continue;
                }
                linalg::ELEMWISE_BINARY => {
                    let fun = operation.str_attr("fun").unwrap_or("add");
                    let cinm_name = cinm::op_named(fun).ok_or_else(|| {
                        IrError::new(format!(
                            "{}: fun = \"{fun}\" names no op of the cinm dialect",
                            linalg::ELEMWISE_BINARY
                        ))
                    })?;
                    (cinm_name, None)
                }
                linalg::REDUCE => {
                    let fun = operation.attr("fun").cloned();
                    (cinm::REDUCE, Some(("op", fun.unwrap_or("add".into()))))
                }
                linalg::TRANSPOSE => {
                    let perm = operation.int_array_attr("permutation").unwrap_or(&[]);
                    (cinm::TRANSPOSE, Some(("perms", perm.into())))
                }
                linalg::CONV_2D_NHWC_HWCF => {
                    rewrite_conv_as_gemm(body, op)?;
                    changed = true;
                    continue;
                }
                linalg::CONTRACT => {
                    rewrite_contract_as_gemm(body, op)?;
                    changed = true;
                    continue;
                }
                _ => continue,
            };
            // Element-wise ops keep both operands; reduce and transpose have one.
            let ([input], _, ty) = unpack(body, op);
            let rhs = attr.is_none().then(|| body.op(op).operands[1]);
            let (block, index) = (body.op_block(op), body.op_index_in_block(op));
            let mut b = OpBuilder::at_end(body, block);
            let mut spec = b.op(name).operand(input).operands(rhs);
            if let Some((key, value)) = attr {
                spec = spec.attr(key, value);
            }
            let new = spec.result(ty).push_at(index);
            replace_op(body, op, new.result());
            changed = true;
        }
        Ok(PassResult::from_changed(changed))
    }
}

fn replace_with_gemm_plus_init(
    body: &mut Body,
    op: OpId,
    a: ValueId,
    b_val: ValueId,
    init: Option<ValueId>,
    ty: Type,
) {
    let block = body.op_block(op);
    let index = body.op_index_in_block(op);
    let init_is_zero_splat = init
        .and_then(|i| body.defining_op(i))
        .map(|d| body.op(d).name == tensor::SPLAT && body.op(d).int_attr("value") == Some(0))
        .unwrap_or(false);
    let mut builder = OpBuilder::at_end(body, block);
    let gemm = builder
        .op(cinm::GEMM)
        .operands([a, b_val])
        .result(ty)
        .push_at(index);
    let new_result = if let (Some(init), false) = (init, init_is_zero_splat) {
        let add = builder
            .op("cinm.add")
            .operands([gemm.result(), init])
            .result(ty)
            .push_at(index + 1);
        add.result()
    } else {
        gemm.result()
    };
    replace_op(body, op, new_result);
}

/// The Figure 5 rewrite: `conv2d(img, flt)` → `im2col(img)` collapsed to a
/// matrix, `cinm.gemm` against the flattened filter, and an expand back to
/// the NHWC result shape.
fn rewrite_conv_as_gemm(body: &mut Body, op: OpId) -> IrResult<()> {
    let ([img, flt], result, _) = unpack(body, op);
    let out_shape = shape_of(body, result, "conv result")?;
    shape_of(body, img, "conv image")?;
    let flt_shape = shape_of(body, flt, "conv filter")?;
    let elem = body.value_type(img).element_type().unwrap();
    let (n, oh, ow, f) = (out_shape[0], out_shape[1], out_shape[2], out_shape[3]);
    let (kh, kw, c) = (flt_shape[0], flt_shape[1], flt_shape[2]);
    let rows = n * oh * ow;
    let cols = kh * kw * c;

    let block = body.op_block(op);
    let index = body.op_index_in_block(op);
    let mut b = OpBuilder::at_end(body, block);
    let patches = b
        .op(linalg::IM2COL)
        .operand(img)
        .attr("kernel_shape", [kh, kw])
        .result(Type::tensor(&[n, oh, ow, kh, kw, c], elem))
        .push_at(index);
    let collapsed = b
        .op(tensor::COLLAPSE_SHAPE)
        .operand(patches.result())
        .result(Type::tensor(&[rows, cols], elem))
        .push_at(index + 1);
    let flt_mat = b
        .op(tensor::COLLAPSE_SHAPE)
        .operand(flt)
        .result(Type::tensor(&[cols, f], elem))
        .push_at(index + 2);
    let gemm = b
        .op(cinm::GEMM)
        .operands([collapsed.result(), flt_mat.result()])
        .result(Type::tensor(&[rows, f], elem))
        .push_at(index + 3);
    let expanded = b
        .op(tensor::EXPAND_SHAPE)
        .operand(gemm.result())
        .result(Type::tensor(&out_shape, elem))
        .push_at(index + 4);
    replace_op(body, op, expanded.result());
    Ok(())
}

/// Contractions are rewritten as GEMMs over collapsed index groups (the OCC
/// analysis the paper reuses): the free indices of each operand collapse to
/// the GEMM rows/columns and the contracted indices to the shared dimension.
fn rewrite_contract_as_gemm(body: &mut Body, op: OpId) -> IrResult<()> {
    let ([lhs, rhs], result, _) = unpack(body, op);
    let spec = body
        .op(op)
        .attr("einsum")
        .filter(|a| a.as_str().is_some())
        .cloned()
        .ok_or_else(|| IrError::new("contract needs an einsum attribute"))?;
    let out_shape = shape_of(body, result, "contract result")?;
    let elem = body.value_type(result).element_type().unwrap();
    let a_elems = body.value_type(lhs).num_elements();
    let b_elems = body.value_type(rhs).num_elements();
    let out_elems: i64 = out_shape.iter().product();

    // Determine the GEMM dimensions from the element counts: with
    // m·k = |A|, k·n = |B| and m·n = |C| we get k = sqrt(|A|·|B| / |C|).
    let k2 = (a_elems as f64) * (b_elems as f64) / (out_elems as f64);
    let k = k2.sqrt().round() as i64;
    if k <= 0 || a_elems % k != 0 || b_elems % k != 0 {
        return Err(IrError::new(format!(
            "cannot rewrite contraction '{}' as a GEMM (|A|={a_elems}, |B|={b_elems}, |C|={out_elems})",
            spec.as_str().unwrap_or_default()
        )));
    }
    let m = a_elems / k;
    let n = b_elems / k;

    let block = body.op_block(op);
    let index = body.op_index_in_block(op);
    let mut b = OpBuilder::at_end(body, block);
    let a_mat = b
        .op(tensor::COLLAPSE_SHAPE)
        .operand(lhs)
        .result(Type::tensor(&[m, k], elem))
        .push_at(index);
    let b_mat = b
        .op(tensor::COLLAPSE_SHAPE)
        .operand(rhs)
        .result(Type::tensor(&[k, n], elem))
        .push_at(index + 1);
    let gemm = b
        .op(cinm::GEMM)
        .operands([a_mat.result(), b_mat.result()])
        .attr("einsum", spec)
        .result(Type::tensor(&[m, n], elem))
        .push_at(index + 2);
    let expanded = b
        .op(tensor::EXPAND_SHAPE)
        .operand(gemm.result())
        .result(Type::tensor(&out_shape, elem))
        .push_at(index + 3);
    replace_op(body, op, expanded.result());
    Ok(())
}

// ---------------------------------------------------------------------------
// cinm -> cnm
// ---------------------------------------------------------------------------

/// Options of the `cinm → cnm` lowering.
#[derive(Debug, Clone)]
pub struct CnmLoweringOptions {
    /// Workgroup shape: `[dpus, tasklets]`.
    pub workgroup: Vec<i64>,
    /// Whether to apply the WRAM tiling + loop-interchange optimisation
    /// (the `cinm-opt` configuration).
    pub optimize_locality: bool,
    /// WRAM bytes available per DPU (for tile-size selection).
    pub wram_bytes: usize,
}

impl Default for CnmLoweringOptions {
    fn default() -> Self {
        CnmLoweringOptions {
            workgroup: vec![
                (upmem::arch::DPUS_PER_DIMM * 4) as i64,
                upmem::arch::DEFAULT_TASKLETS as i64,
            ],
            optimize_locality: false,
            wram_bytes: upmem::arch::WRAM_BYTES,
        }
    }
}

/// Lowers `cinm` compute ops to the `cnm` abstraction.
pub struct CinmToCnmPass {
    /// Lowering options.
    pub options: CnmLoweringOptions,
}

impl CinmToCnmPass {
    /// Creates the pass with the given options.
    pub fn new(options: CnmLoweringOptions) -> Self {
        CinmToCnmPass { options }
    }
}

impl Pass for CinmToCnmPass {
    fn name(&self) -> &'static str {
        "convert-cinm-to-cnm"
    }

    fn run_on_func(&self, func: &mut Func) -> IrResult<PassResult> {
        let mut changed = false;
        for op in func.body.walk() {
            if !func.body.is_live(op) {
                continue;
            }
            let name = func.body.op(op).name;
            if cinm::paradigm_support(&name).map(|p| p.cnm) != Some(true) {
                continue;
            }
            if func.body.op(op).results.is_empty() {
                continue;
            }
            lower_cinm_op_to_cnm(&mut func.body, op, &self.options)?;
            changed = true;
        }
        Ok(PassResult::from_changed(changed))
    }
}

fn lower_cinm_op_to_cnm(body: &mut Body, op: OpId, options: &CnmLoweringOptions) -> IrResult<()> {
    let op_name = body.op(op).name;
    let num_operands = body.op(op).operands.len();
    let result_ty = *body.value_type(body.result(op, 0));
    let result_shape = result_ty
        .shape()
        .ok_or_else(|| IrError::new(format!("{op_name} result must be shaped")))?;
    let elem = result_ty.element_type().unwrap();
    let block = body.op_block(op);
    let index = body.op_index_in_block(op);
    let num_pus: i64 = options.workgroup.iter().product();

    // Per-PU tile of the result: split the leading dimension across PUs.
    let lead = result_shape[0].max(1);
    let rows_per_pu = (lead + num_pus - 1) / num_pus;
    let mut tile_shape = Shape::new(result_shape);
    tile_shape[0] = rows_per_pu.max(1);

    let wram_tile = if options.optimize_locality {
        wram_tile_elems(
            options.wram_bytes,
            *options.workgroup.last().unwrap_or(&16) as usize,
            elem.byte_width(),
        ) as i64
    } else {
        64
    };

    let mut b = OpBuilder::at_end(body, block);
    let mut at = index;
    let wg = b
        .op(cnm::WORKGROUP)
        .attr("shape", options.workgroup.as_slice())
        .attr("cnm.physical_dims", Attribute::StrArray(&["dpu", "thread"]))
        .result(Type::cnm_workgroup(&options.workgroup))
        .push_at(at);
    at += 1;

    // One buffer and one scatter per operand, created in turn. Values are
    // numbered in creation order, so the buffer of operand `i` is value
    // `first + 2i` and its scatter token `first + 2i + 1`.
    let first = b.body().num_values() as u32;
    let buffer = |i: usize| ValueId(first + 2 * i as u32);
    let token = |i: usize| ValueId(first + 2 * i as u32 + 1);
    for i in 0..num_operands {
        let operand = b.body().op(op).operands[i];
        let ty = *b.body().value_type(operand);
        let mut otile = Shape::new(ty.shape().unwrap_or(&[1]));
        otile[0] = ((otile[0] + num_pus - 1) / num_pus).max(1);
        let buf = b
            .op(cnm::ALLOC)
            .operand(wg.result())
            .attr("cnm.physical_space", "global")
            .result(Type::cnm_buffer(
                &otile,
                ty.element_type().unwrap_or(elem),
                0,
            ))
            .push_at(at);
        let tok = b
            .op(cnm::SCATTER)
            .operands([operand, buf.result(), wg.result()])
            .attr("scatter_map", tiling_map(otile))
            .result(Type::Token)
            .push_at(at + 1);
        at += 2;
        debug_assert!(buf.result() == buffer(i) && tok.result() == token(i));
    }

    // Output buffer.
    let out_buf = b
        .op(cnm::ALLOC)
        .operand(wg.result())
        .attr("cnm.physical_space", "global")
        .result(Type::cnm_buffer(&tile_shape, elem, 0))
        .push_at(at);
    at += 1;

    // Launch with the kernel annotated for the device code generator.
    let mut launch = b
        .op(cnm::LAUNCH)
        .operand(wg.result())
        .operands((0..num_operands).map(buffer))
        .operand(out_buf.result())
        .attr("cnm.op_kind", op_name.as_str())
        .attr("cnm.tile_shape", Attribute::IntArray(tile_shape))
        .attr("cnm.wram_tile", wram_tile)
        .result(Type::Token)
        .region([]);
    if options.optimize_locality {
        launch = launch.flag("cnm.locality_optimized");
    }
    let launch = launch.push_at(at);
    at += 1;
    // The kernel region sees every buffer as PU-private memory, and is
    // terminated.
    let kernel_block = b.body().op_region_entry_block(launch.id, 0);
    for v in (0..num_operands).map(buffer).chain([out_buf.result()]) {
        let ty = match *b.body().value_type(v) {
            Type::CnmBuffer(t) => Type::memref_in(&t.shape, t.elem, MemorySpace::PuPrivate),
            other => other,
        };
        b.body_mut().add_block_arg(kernel_block, ty);
    }
    OpBuilder::at_end(b.body_mut(), kernel_block)
        .op(cnm::TERMINATOR)
        .push();

    // Gather the result and synchronise.
    let gather = b
        .op(cnm::GATHER)
        .operands([out_buf.result(), wg.result()])
        .attr("scatter_map", tiling_map(tile_shape))
        .result(result_ty)
        .result(Type::Token)
        .push_at(at);
    b.op(cnm::WAIT)
        .operands((0..num_operands).map(token))
        .operands([launch.result_at(0), gather.result_at(1)])
        .push_at(at + 1);
    b.op(cnm::FREE_WORKGROUP)
        .operand(wg.result())
        .push_at(at + 2);

    // The original op still references its operands; erase it last.
    replace_op(body, op, gather.result_at(0));
    Ok(())
}

/// The map that tiles a tensor into per-PU tiles of `tile` (an empty extent
/// counts as one).
fn tiling_map(mut tile: Shape) -> AffineMap {
    for d in tile.iter_mut() {
        *d = (*d).max(1);
    }
    AffineMap::tiling(&tile)
}

// ---------------------------------------------------------------------------
// cinm -> cim
// ---------------------------------------------------------------------------

/// Options of the `cinm → cim` lowering.
#[derive(Debug, Clone)]
pub struct CimLoweringOptions {
    /// Crossbar tile edge (compulsory tiling size).
    pub tile_size: i64,
    /// Number of crossbar tiles available for unrolling.
    pub num_tiles: i64,
    /// Interchange the tile loops to minimise crossbar writes
    /// (`cim-min-writes`).
    pub min_writes: bool,
    /// Unroll the inner tile loop across crossbar tiles (`cim-parallel`).
    pub parallel_tiles: bool,
}

impl Default for CimLoweringOptions {
    fn default() -> Self {
        CimLoweringOptions {
            tile_size: memristor::arch::TILE_ROWS as i64,
            num_tiles: memristor::arch::NUM_TILES as i64,
            min_writes: false,
            parallel_tiles: false,
        }
    }
}

impl CimLoweringOptions {
    /// The `cim-opt` configuration: all optimisations enabled.
    pub fn optimized() -> Self {
        CimLoweringOptions {
            min_writes: true,
            parallel_tiles: true,
            ..Default::default()
        }
    }
}

/// Lowers matmul-like `cinm` ops to the `cim` abstraction (Figure 6b).
pub struct CinmToCimPass {
    /// Lowering options.
    pub options: CimLoweringOptions,
}

impl CinmToCimPass {
    /// Creates the pass with the given options.
    pub fn new(options: CimLoweringOptions) -> Self {
        CinmToCimPass { options }
    }
}

impl Pass for CinmToCimPass {
    fn name(&self) -> &'static str {
        "convert-cinm-to-cim"
    }

    fn run_on_func(&self, func: &mut Func) -> IrResult<PassResult> {
        let mut changed = false;
        for op in func.body.walk() {
            if !func.body.is_live(op) {
                continue;
            }
            let name = func.body.op(op).name;
            if name != cinm::GEMM && name != cinm::GEMV {
                continue;
            }
            lower_cinm_op_to_cim(&mut func.body, op, &self.options)?;
            changed = true;
        }
        Ok(PassResult::from_changed(changed))
    }
}

fn lower_cinm_op_to_cim(body: &mut Body, op: OpId, options: &CimLoweringOptions) -> IrResult<()> {
    let op_name = body.op(op).name;
    if body.op(op).operands.len() != 2 {
        return Err(IrError::new(format!("{op_name} expects 2 operands")));
    }
    let (operands, _, result_ty) = unpack::<2>(body, op);
    let arg_types = operands.map(|v| *body.value_type(v));
    let block = body.op_block(op);
    let index = body.op_index_in_block(op);

    let mut b = OpBuilder::at_end(body, block);
    let device = b.op(cim::ACQUIRE).result(Type::CimDeviceId).push_at(index);
    let mut exec = b
        .op(cim::EXECUTE)
        .operand(device.result())
        .operands(operands)
        .attr("cim.kernel", op_name.as_str())
        .attr("cim.tile_size", options.tile_size)
        .attr("cim.num_tiles", options.num_tiles)
        .result(result_ty)
        .region(arg_types);
    if options.min_writes {
        exec = exec.flag("cim.min_writes");
    }
    if options.parallel_tiles {
        exec = exec.flag("cim.parallel_tiles");
    }
    let exec = exec.push_at(index + 1);
    // Region: the original cinm op on the region views, yielded.
    {
        let exec_block = b.body().op_region_entry_block(exec.id, 0);
        let views = b.body().block_args(exec_block);
        let views = [views[0], views[1]];
        let mut eb = OpBuilder::at_end(b.body_mut(), exec_block);
        let inner = eb
            .op(op_name.as_str())
            .operands(views)
            .result(result_ty)
            .push();
        eb.op(cim::YIELD).operand(inner.result()).push();
    }
    b.op(cim::BARRIER)
        .operand(device.result())
        .push_at(index + 2);
    b.op(cim::RELEASE)
        .operand(device.result())
        .push_at(index + 3);

    replace_op(body, op, exec.result_at(0));
    Ok(())
}

// ---------------------------------------------------------------------------
// cnm -> upmem and cim -> memristor
// ---------------------------------------------------------------------------

/// Options of the `cnm → upmem` lowering.
#[derive(Debug, Clone)]
pub struct UpmemLoweringOptions {
    /// Number of DIMMs (ranks).
    pub ranks: i64,
    /// Tasklets per DPU.
    pub tasklets: i64,
}

impl Default for UpmemLoweringOptions {
    fn default() -> Self {
        UpmemLoweringOptions {
            ranks: 4,
            tasklets: 16,
        }
    }
}

/// Maps `cnm` ops onto the `upmem` device dialect.
pub struct CnmToUpmemPass {
    /// Lowering options.
    pub options: UpmemLoweringOptions,
}

impl CnmToUpmemPass {
    /// Creates the pass with the given options.
    pub fn new(options: UpmemLoweringOptions) -> Self {
        CnmToUpmemPass { options }
    }
}

impl Pass for CnmToUpmemPass {
    fn name(&self) -> &'static str {
        "convert-cnm-to-upmem"
    }

    fn run_on_func(&self, func: &mut Func) -> IrResult<PassResult> {
        let mut changed = false;
        for op in func.body.walk() {
            if !func.body.is_live(op) {
                continue;
            }
            let new_name = match func.body.op(op).name.as_str() {
                cnm::WORKGROUP => Some(upmem::ALLOC_DPUS),
                cnm::ALLOC => Some(upmem::ALLOC_MRAM),
                cnm::SCATTER => Some(upmem::SCATTER),
                cnm::GATHER => Some(upmem::GATHER),
                cnm::LAUNCH => Some(upmem::LAUNCH),
                cnm::WAIT => Some(upmem::WAIT),
                cnm::FREE_WORKGROUP => Some(upmem::FREE_DPUS),
                cnm::TERMINATOR => Some(upmem::TERMINATOR),
                _ => None,
            };
            if let Some(new_name) = new_name {
                let body = &mut func.body;
                body.rename_op(op, new_name);
                match new_name {
                    upmem::ALLOC_DPUS => {
                        body.set_attr(op, "ranks", Attribute::Int(self.options.ranks));
                        body.set_attr(
                            op,
                            "dpus_per_rank",
                            Attribute::Int(upmem::arch::DPUS_PER_DIMM as i64),
                        );
                        body.set_attr(op, "tasklets", Attribute::Int(self.options.tasklets));
                    }
                    upmem::LAUNCH => {
                        // The kernel is the op kind the launch carries: its
                        // name is `'static`, so copying the attribute is free.
                        let kernel = body.op(op).attr("cnm.op_kind").cloned();
                        let kernel = kernel.unwrap_or("generic".into());
                        body.set_attr(op, "kernel", kernel);
                        body.set_attr(op, "tasklets", Attribute::Int(self.options.tasklets));
                    }
                    _ => {}
                }
                changed = true;
            }
        }
        Ok(PassResult::from_changed(changed))
    }
}

/// Maps `cim` ops onto the `memristor` device dialect.
pub struct CimToMemristorPass;

impl Pass for CimToMemristorPass {
    fn name(&self) -> &'static str {
        "convert-cim-to-memristor"
    }

    fn run_on_func(&self, func: &mut Func) -> IrResult<PassResult> {
        let mut changed = false;
        for op in func.body.walk() {
            if !func.body.is_live(op) {
                continue;
            }
            let body = &mut func.body;
            match body.op(op).name.as_str() {
                cim::ACQUIRE => {
                    body.rename_op(op, memristor::CONFIGURE);
                    for (key, value) in [
                        ("tile_rows", memristor::arch::TILE_ROWS),
                        ("tile_cols", memristor::arch::TILE_COLS),
                        ("num_tiles", memristor::arch::NUM_TILES),
                    ] {
                        body.set_attr(op, key, Attribute::Int(value as i64));
                    }
                    body.set_attr(op, "write_mode", "write-verify".into());
                }
                cim::EXECUTE => {
                    // The tiled execution is materialised by the device code
                    // generator; at the IR level the op becomes the
                    // memristor GEMM entry point carrying the same attributes.
                    body.rename_op(op, memristor::GEMM_TILE);
                    body.set_attr(op, "tile", Attribute::Int(0));
                }
                cim::BARRIER => body.rename_op(op, memristor::BARRIER),
                cim::RELEASE => body.rename_op(op, memristor::RELEASE),
                _ => continue,
            }
            changed = true;
        }
        Ok(PassResult::from_changed(changed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinm_dialects::register_all_dialects;

    fn i32t(shape: &[i64]) -> Type {
        Type::tensor(shape, ScalarType::I32)
    }

    fn matmul_func() -> Func {
        let mut f = Func::new(
            "mm",
            vec![i32t(&[64, 64]), i32t(&[64, 64]), i32t(&[64, 64])],
            vec![i32t(&[64, 64])],
        );
        let args = f.arguments();
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let mm = linalg::matmul(&mut b, args[0], args[1], args[2]);
        cinm_dialects::func::ret(&mut b, &[mm]);
        f
    }

    #[test]
    fn tosa_fully_connected_decomposes_like_the_paper() {
        let mut f = Func::new(
            "mlp_layer",
            vec![i32t(&[8, 32]), i32t(&[16, 32]), i32t(&[16])],
            vec![i32t(&[8, 16])],
        );
        let args = f.arguments();
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let y = tosa::fully_connected(&mut b, args[0], args[1], args[2]);
        cinm_dialects::func::ret(&mut b, &[y]);

        TosaToLinalgPass.run_on_func(&mut f).unwrap();
        assert!(f.body.ops_with_name(tosa::FULLY_CONNECTED).is_empty());
        assert_eq!(f.body.ops_with_name(linalg::TRANSPOSE).len(), 1);
        assert_eq!(f.body.ops_with_name(linalg::MATMUL).len(), 1);
        assert_eq!(f.body.ops_with_name(linalg::GENERIC).len(), 1);
    }

    #[test]
    fn linalg_matmul_becomes_cinm_gemm() {
        let mut f = matmul_func();
        LinalgToCinmPass.run_on_func(&mut f).unwrap();
        assert!(f.body.ops_with_name(linalg::MATMUL).is_empty());
        assert_eq!(f.body.ops_with_name(cinm::GEMM).len(), 1);
        // Init tensor was a function argument (not a zero splat), so the
        // bias-accumulate survives as cinm.add.
        assert_eq!(f.body.ops_with_name("cinm.add").len(), 1);
    }

    /// An op name is `'static`, so `fun` can only become the name of an op
    /// the `cinm` table declares: anything else is an error at the rewrite
    /// that names the pass, the function and the value — not an unregistered
    /// `cinm.<fun>` left for a later verifier to find, or not.
    #[test]
    fn an_unknown_elemwise_fun_is_an_error_at_the_rewrite() {
        let build = |fun: &'static str| {
            let mut f = Func::new("ew", vec![i32t(&[8]), i32t(&[8])], vec![i32t(&[8])]);
            let args = f.arguments();
            let entry = f.body.entry_block();
            let mut b = OpBuilder::at_end(&mut f.body, entry);
            let r = b
                .op(linalg::ELEMWISE_BINARY)
                .operands([args[0], args[1]])
                .attr("fun", fun)
                .result(i32t(&[8]))
                .push()
                .result();
            cinm_dialects::func::ret(&mut b, &[r]);
            let mut module = Module::new("m");
            module.add_func(f);
            module
        };
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(LinalgToCinmPass));

        let mut known = build("xor");
        pm.run(&mut known).unwrap();
        assert_eq!(known.funcs[0].body.ops_with_name("cinm.xor").len(), 1);

        let mut unknown = build("pow");
        let before = unknown.clone();
        let err = pm.run(&mut unknown).unwrap_err().to_string();
        for part in [
            "convert-linalg-to-cinm",
            "@ew",
            "fun = \"pow\"",
            "cinm dialect",
        ] {
            assert!(err.contains(part), "{err:?} does not mention {part:?}");
        }
        assert_eq!(
            unknown, before,
            "the failed rewrite left the function as it was"
        );
    }

    #[test]
    fn conv_is_rewritten_as_im2col_plus_gemm() {
        // The Figure 5 example: 1x128x128x3 image, 3x3x3x8 filter.
        let mut f = Func::new(
            "conv",
            vec![
                i32t(&[1, 128, 128, 3]),
                i32t(&[3, 3, 3, 8]),
                i32t(&[1, 126, 126, 8]),
            ],
            vec![i32t(&[1, 126, 126, 8])],
        );
        let args = f.arguments();
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let conv = linalg::conv_2d_nhwc_hwcf(&mut b, args[0], args[1], args[2]);
        cinm_dialects::func::ret(&mut b, &[conv]);

        LinalgToCinmPass.run_on_func(&mut f).unwrap();
        assert!(f.body.ops_with_name(linalg::CONV_2D_NHWC_HWCF).is_empty());
        assert_eq!(f.body.ops_with_name(linalg::IM2COL).len(), 1);
        assert_eq!(f.body.ops_with_name(cinm::GEMM).len(), 1);
        assert_eq!(f.body.ops_with_name(tensor::EXPAND_SHAPE).len(), 1);
        // The GEMM operates on the collapsed 15876x27 / 27x8 matrices.
        let gemm = f.body.ops_with_name(cinm::GEMM)[0];
        let lhs = f.body.op(gemm).operands[0];
        assert_eq!(f.body.value_type(lhs), &i32t(&[15876, 27]));
    }

    #[test]
    fn contraction_is_rewritten_as_gemm() {
        // contrs2: C[a,b,c] = A[a,c,d] * B[d,b] with a=8, b=8, c=8, d=16.
        let mut f = Func::new(
            "contrs2",
            vec![i32t(&[8, 8, 16]), i32t(&[16, 8])],
            vec![i32t(&[8, 8, 8])],
        );
        let args = f.arguments();
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let c = linalg::contract(&mut b, "acd,db->abc", args[0], args[1], &[8, 8, 8]);
        cinm_dialects::func::ret(&mut b, &[c]);

        LinalgToCinmPass.run_on_func(&mut f).unwrap();
        assert!(f.body.ops_with_name(linalg::CONTRACT).is_empty());
        let gemms = f.body.ops_with_name(cinm::GEMM);
        assert_eq!(gemms.len(), 1);
        let lhs_ty = *f.body.value_type(f.body.op(gemms[0]).operands[0]);
        assert_eq!(lhs_ty, i32t(&[64, 16]));
    }

    #[test]
    fn cinm_to_cnm_produces_workgroup_scatter_launch_gather() {
        let mut f = matmul_func();
        LinalgToCinmPass.run_on_func(&mut f).unwrap();
        let pass = CinmToCnmPass::new(CnmLoweringOptions {
            workgroup: vec![8, 2],
            optimize_locality: true,
            wram_bytes: 64 * 1024,
        });
        pass.run_on_func(&mut f).unwrap();
        assert!(f.body.ops_with_name(cinm::GEMM).is_empty());
        assert!(!f.body.ops_with_name(cnm::WORKGROUP).is_empty());
        assert!(f.body.ops_with_name(cnm::SCATTER).len() >= 2);
        assert_eq!(
            f.body.ops_with_name(cnm::LAUNCH).len(),
            f.body.ops_with_name(cnm::WORKGROUP).len()
        );
        assert!(!f.body.ops_with_name(cnm::GATHER).is_empty());
        // The launch carries the kernel annotation for codegen.
        let launch = f.body.ops_with_name(cnm::LAUNCH)[0];
        assert_eq!(f.body.op(launch).str_attr("cnm.op_kind"), Some(cinm::GEMM));
        assert!(f.body.op(launch).has_attr("cnm.locality_optimized"));
        verify_func(&f, &register_all_dialects()).unwrap();
    }

    #[test]
    fn cinm_to_cim_produces_acquire_execute_release() {
        let mut f = matmul_func();
        LinalgToCinmPass.run_on_func(&mut f).unwrap();
        let pass = CinmToCimPass::new(CimLoweringOptions::optimized());
        pass.run_on_func(&mut f).unwrap();
        assert!(f.body.ops_with_name(cinm::GEMM).len() == 1); // only inside the execute region
        assert_eq!(f.body.ops_with_name(cim::ACQUIRE).len(), 1);
        assert_eq!(f.body.ops_with_name(cim::EXECUTE).len(), 1);
        assert_eq!(f.body.ops_with_name(cim::RELEASE).len(), 1);
        let exec = f.body.ops_with_name(cim::EXECUTE)[0];
        assert!(f.body.op(exec).has_attr("cim.min_writes"));
        assert!(f.body.op(exec).has_attr("cim.parallel_tiles"));
        verify_func(&f, &register_all_dialects()).unwrap();
    }

    #[test]
    fn cnm_to_upmem_and_cim_to_memristor_rename_with_device_attrs() {
        // CNM path.
        let mut f = matmul_func();
        LinalgToCinmPass.run_on_func(&mut f).unwrap();
        CinmToCnmPass::new(CnmLoweringOptions::default())
            .run_on_func(&mut f)
            .unwrap();
        CnmToUpmemPass::new(UpmemLoweringOptions {
            ranks: 8,
            tasklets: 16,
        })
        .run_on_func(&mut f)
        .unwrap();
        assert!(f.body.ops_in_dialect("cnm").is_empty());
        let alloc = f.body.ops_with_name(upmem::ALLOC_DPUS)[0];
        assert_eq!(f.body.op(alloc).int_attr("ranks"), Some(8));
        let launch = f.body.ops_with_name(upmem::LAUNCH)[0];
        assert_eq!(f.body.op(launch).str_attr("kernel"), Some(cinm::GEMM));

        // CIM path.
        let mut g = matmul_func();
        LinalgToCinmPass.run_on_func(&mut g).unwrap();
        CinmToCimPass::new(CimLoweringOptions::default())
            .run_on_func(&mut g)
            .unwrap();
        CimToMemristorPass.run_on_func(&mut g).unwrap();
        assert!(g.body.ops_with_name(cim::ACQUIRE).is_empty());
        assert_eq!(g.body.ops_with_name(memristor::CONFIGURE).len(), 1);
        assert_eq!(g.body.ops_with_name(memristor::GEMM_TILE).len(), 1);
        assert_eq!(g.body.ops_with_name(memristor::RELEASE).len(), 1);
    }
}
