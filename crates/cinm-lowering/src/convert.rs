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
            match func.body.op(op).name.as_str() {
                tosa::FULLY_CONNECTED => {
                    rewrite_fully_connected(&mut func.body, op)?;
                    changed = true;
                }
                tosa::MATMUL => {
                    let operands = func.body.op(op).operands.clone();
                    let result = func.body.op(op).results[0];
                    let result_ty = func.body.value_type(result).clone();
                    let block = func.body.op_block(op);
                    let index = func.body.op_index_in_block(op);
                    let mut b = OpBuilder::at_end(&mut func.body, block);
                    let (shape, elem) = shaped_of(&b, result);
                    let _ = shape;
                    let init = b.push_at(
                        index,
                        OpSpec::new(tensor::SPLAT)
                            .attr("value", 0_i64)
                            .result(result_ty.clone()),
                    );
                    let mm = b.push_at(
                        index + 1,
                        OpSpec::new(linalg::MATMUL)
                            .operands([operands[0], operands[1], init.result()])
                            .result(result_ty),
                    );
                    let _ = elem;
                    let new_result = mm.result();
                    func.body.replace_all_uses(result, new_result);
                    func.body.erase_op(op);
                    changed = true;
                }
                tosa::ADD => {
                    let operands = func.body.op(op).operands.clone();
                    let result = func.body.op(op).results[0];
                    let result_ty = func.body.value_type(result).clone();
                    let block = func.body.op_block(op);
                    let index = func.body.op_index_in_block(op);
                    let mut b = OpBuilder::at_end(&mut func.body, block);
                    let add = b.push_at(
                        index,
                        OpSpec::new(linalg::ELEMWISE_BINARY)
                            .operands([operands[0], operands[1]])
                            .attr("fun", "add")
                            .result(result_ty),
                    );
                    let new_result = add.result();
                    func.body.replace_all_uses(result, new_result);
                    func.body.erase_op(op);
                    changed = true;
                }
                tosa::CLAMP => {
                    let operands = func.body.op(op).operands.clone();
                    let min = func.body.op(op).int_attr("min").unwrap_or(0);
                    let result = func.body.op(op).results[0];
                    let result_ty = func.body.value_type(result).clone();
                    let block = func.body.op_block(op);
                    let index = func.body.op_index_in_block(op);
                    let mut b = OpBuilder::at_end(&mut func.body, block);
                    let relu = b.push_at(
                        index,
                        OpSpec::new(linalg::ELEMWISE_UNARY)
                            .operand(operands[0])
                            .attr("fun", "clamp_min")
                            .attr("min", min)
                            .result(result_ty),
                    );
                    let new_result = relu.result();
                    func.body.replace_all_uses(result, new_result);
                    func.body.erase_op(op);
                    changed = true;
                }
                _ => {}
            }
        }
        Ok(PassResult::from_changed(changed))
    }
}

fn shaped_of(b: &OpBuilder<'_>, v: ValueId) -> (Vec<i64>, ScalarType) {
    let ty = b.body().value_type(v);
    (
        ty.shape().expect("operand must be shaped").to_vec(),
        ty.element_type().expect("shaped type has element type"),
    )
}

/// `tosa.fully_connected(x, w, bias)` becomes, as in the paper (Section
/// 3.2.2): transpose of the weights, a matmul and a bias addition.
fn rewrite_fully_connected(body: &mut Body, op: OpId) -> IrResult<()> {
    let operands = body.op(op).operands.clone();
    let result = body.op(op).results[0];
    let result_ty = body.value_type(result).clone();
    let block = body.op_block(op);
    let index = body.op_index_in_block(op);
    let (x, w, bias) = (operands[0], operands[1], operands[2]);

    let w_shape = body
        .value_type(w)
        .shape()
        .ok_or_else(|| IrError::new("fully_connected weight must be shaped"))?
        .to_vec();
    let elem = body
        .value_type(w)
        .element_type()
        .ok_or_else(|| IrError::new("fully_connected weight must have element type"))?;
    let out_shape = result_ty
        .shape()
        .ok_or_else(|| IrError::new("fully_connected result must be shaped"))?
        .to_vec();

    let mut b = OpBuilder::at_end(body, block);
    // Transpose OxI -> IxO.
    let wt = b.push_at(
        index,
        OpSpec::new(linalg::TRANSPOSE)
            .operand(w)
            .attr("permutation", vec![1_i64, 0])
            .result(Type::tensor(&[w_shape[1], w_shape[0]], elem)),
    );
    let init = b.push_at(
        index + 1,
        OpSpec::new(tensor::SPLAT)
            .attr("value", 0_i64)
            .result(Type::tensor(&out_shape, elem)),
    );
    let mm = b.push_at(
        index + 2,
        OpSpec::new(linalg::MATMUL)
            .operands([x, wt.result(), init.result()])
            .result(Type::tensor(&out_shape, elem)),
    );
    // Bias addition expressed as a generic/elementwise op on the broadcast
    // bias, as in the paper's MLP example.
    let bias_add = b.push_at(
        index + 3,
        OpSpec::new(linalg::GENERIC)
            .operands([mm.result(), bias])
            .attr("library_call", "broadcast_bias_add")
            .result(Type::tensor(&out_shape, elem)),
    );
    let new_result = bias_add.result();
    body.replace_all_uses(result, new_result);
    body.erase_op(op);
    Ok(())
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
            match func.body.op(op).name.as_str() {
                linalg::MATMUL => {
                    let ops = func.body.op(op).operands.clone();
                    let result = func.body.op(op).results[0];
                    let ty = func.body.value_type(result).clone();
                    replace_with_gemm_plus_init(
                        &mut func.body,
                        op,
                        ops[0],
                        ops[1],
                        Some(ops[2]),
                        result,
                        ty,
                    );
                    changed = true;
                }
                linalg::MATVEC => {
                    let ops = func.body.op(op).operands.clone();
                    let result = func.body.op(op).results[0];
                    let ty = func.body.value_type(result).clone();
                    let block = func.body.op_block(op);
                    let index = func.body.op_index_in_block(op);
                    let mut b = OpBuilder::at_end(&mut func.body, block);
                    let gemv = b.push_at(
                        index,
                        OpSpec::new(cinm::GEMV)
                            .operands([ops[0], ops[1]])
                            .result(ty.clone()),
                    );
                    let add = b.push_at(
                        index + 1,
                        OpSpec::new("cinm.add")
                            .operands([gemv.result(), ops[2]])
                            .result(ty),
                    );
                    let new_result = add.result();
                    func.body.replace_all_uses(result, new_result);
                    func.body.erase_op(op);
                    changed = true;
                }
                linalg::ELEMWISE_BINARY => {
                    let fun = func.body.op(op).str_attr("fun").unwrap_or("add");
                    let cinm_name = cinm::op_named(fun).ok_or_else(|| {
                        IrError::new(format!(
                            "{}: fun = \"{fun}\" names no op of the cinm dialect",
                            linalg::ELEMWISE_BINARY
                        ))
                    })?;
                    let ops = func.body.op(op).operands.clone();
                    let result = func.body.op(op).results[0];
                    let ty = func.body.value_type(result).clone();
                    let block = func.body.op_block(op);
                    let index = func.body.op_index_in_block(op);
                    let mut b = OpBuilder::at_end(&mut func.body, block);
                    let new = b.push_at(
                        index,
                        OpSpec::new(cinm_name).operands([ops[0], ops[1]]).result(ty),
                    );
                    let new_result = new.result();
                    func.body.replace_all_uses(result, new_result);
                    func.body.erase_op(op);
                    changed = true;
                }
                linalg::REDUCE => {
                    let fun = func
                        .body
                        .op(op)
                        .str_attr("fun")
                        .unwrap_or("add")
                        .to_string();
                    let ops = func.body.op(op).operands.clone();
                    let result = func.body.op(op).results[0];
                    let ty = func.body.value_type(result).clone();
                    let block = func.body.op_block(op);
                    let index = func.body.op_index_in_block(op);
                    let mut b = OpBuilder::at_end(&mut func.body, block);
                    let new = b.push_at(
                        index,
                        OpSpec::new(cinm::REDUCE)
                            .operand(ops[0])
                            .attr("op", fun.as_str())
                            .result(ty),
                    );
                    let new_result = new.result();
                    func.body.replace_all_uses(result, new_result);
                    func.body.erase_op(op);
                    changed = true;
                }
                linalg::TRANSPOSE => {
                    let perm = func
                        .body
                        .op(op)
                        .int_array_attr("permutation")
                        .unwrap_or(&[])
                        .to_vec();
                    let ops = func.body.op(op).operands.clone();
                    let result = func.body.op(op).results[0];
                    let ty = func.body.value_type(result).clone();
                    let block = func.body.op_block(op);
                    let index = func.body.op_index_in_block(op);
                    let mut b = OpBuilder::at_end(&mut func.body, block);
                    let new = b.push_at(
                        index,
                        OpSpec::new(cinm::TRANSPOSE)
                            .operand(ops[0])
                            .attr("perms", perm)
                            .result(ty),
                    );
                    let new_result = new.result();
                    func.body.replace_all_uses(result, new_result);
                    func.body.erase_op(op);
                    changed = true;
                }
                linalg::CONV_2D_NHWC_HWCF => {
                    rewrite_conv_as_gemm(&mut func.body, op)?;
                    changed = true;
                }
                linalg::CONTRACT => {
                    rewrite_contract_as_gemm(&mut func.body, op)?;
                    changed = true;
                }
                _ => {}
            }
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
    result: ValueId,
    ty: Type,
) {
    let block = body.op_block(op);
    let index = body.op_index_in_block(op);
    let init_is_zero_splat = init
        .and_then(|i| body.defining_op(i))
        .map(|d| body.op(d).name == tensor::SPLAT && body.op(d).int_attr("value") == Some(0))
        .unwrap_or(false);
    let mut builder = OpBuilder::at_end(body, block);
    let gemm = builder.push_at(
        index,
        OpSpec::new(cinm::GEMM)
            .operands([a, b_val])
            .result(ty.clone()),
    );
    let new_result = if let (Some(init), false) = (init, init_is_zero_splat) {
        let add = builder.push_at(
            index + 1,
            OpSpec::new("cinm.add")
                .operands([gemm.result(), init])
                .result(ty),
        );
        add.result()
    } else {
        gemm.result()
    };
    body.replace_all_uses(result, new_result);
    body.erase_op(op);
}

/// The Figure 5 rewrite: `conv2d(img, flt)` → `im2col(img)` collapsed to a
/// matrix, `cinm.gemm` against the flattened filter, and an expand back to
/// the NHWC result shape.
fn rewrite_conv_as_gemm(body: &mut Body, op: OpId) -> IrResult<()> {
    let operands = body.op(op).operands.clone();
    let (img, flt) = (operands[0], operands[1]);
    let result = body.op(op).results[0];
    let out_shape = body
        .value_type(result)
        .shape()
        .ok_or_else(|| IrError::new("conv result must be shaped"))?
        .to_vec();
    let img_shape = body
        .value_type(img)
        .shape()
        .ok_or_else(|| IrError::new("conv image must be shaped"))?
        .to_vec();
    let flt_shape = body
        .value_type(flt)
        .shape()
        .ok_or_else(|| IrError::new("conv filter must be shaped"))?
        .to_vec();
    let elem = body.value_type(img).element_type().unwrap();
    let (n, oh, ow, f) = (out_shape[0], out_shape[1], out_shape[2], out_shape[3]);
    let (kh, kw, c) = (flt_shape[0], flt_shape[1], flt_shape[2]);
    let rows = n * oh * ow;
    let cols = kh * kw * c;
    let _ = img_shape;

    let block = body.op_block(op);
    let index = body.op_index_in_block(op);
    let mut b = OpBuilder::at_end(body, block);
    let patches = b.push_at(
        index,
        OpSpec::new(linalg::IM2COL)
            .operand(img)
            .attr("kernel_shape", vec![kh, kw])
            .result(Type::tensor(&[n, oh, ow, kh, kw, c], elem)),
    );
    let collapsed = b.push_at(
        index + 1,
        OpSpec::new(tensor::COLLAPSE_SHAPE)
            .operand(patches.result())
            .result(Type::tensor(&[rows, cols], elem)),
    );
    let flt_mat = b.push_at(
        index + 2,
        OpSpec::new(tensor::COLLAPSE_SHAPE)
            .operand(flt)
            .result(Type::tensor(&[cols, f], elem)),
    );
    let gemm = b.push_at(
        index + 3,
        OpSpec::new(cinm::GEMM)
            .operands([collapsed.result(), flt_mat.result()])
            .result(Type::tensor(&[rows, f], elem)),
    );
    let expanded = b.push_at(
        index + 4,
        OpSpec::new(tensor::EXPAND_SHAPE)
            .operand(gemm.result())
            .result(Type::tensor(&out_shape, elem)),
    );
    let new_result = expanded.result();
    body.replace_all_uses(result, new_result);
    body.erase_op(op);
    Ok(())
}

/// Contractions are rewritten as GEMMs over collapsed index groups (the OCC
/// analysis the paper reuses): the free indices of each operand collapse to
/// the GEMM rows/columns and the contracted indices to the shared dimension.
fn rewrite_contract_as_gemm(body: &mut Body, op: OpId) -> IrResult<()> {
    let operands = body.op(op).operands.clone();
    let spec = body
        .op(op)
        .str_attr("einsum")
        .ok_or_else(|| IrError::new("contract needs an einsum attribute"))?
        .to_string();
    let result = body.op(op).results[0];
    let out_shape = body
        .value_type(result)
        .shape()
        .ok_or_else(|| IrError::new("contract result must be shaped"))?
        .to_vec();
    let elem = body.value_type(result).element_type().unwrap();
    let a_elems = body.value_type(operands[0]).num_elements();
    let b_elems = body.value_type(operands[1]).num_elements();
    let out_elems: i64 = out_shape.iter().product();

    // Determine the GEMM dimensions from the element counts: with
    // m·k = |A|, k·n = |B| and m·n = |C| we get k = sqrt(|A|·|B| / |C|).
    let k2 = (a_elems as f64) * (b_elems as f64) / (out_elems as f64);
    let k = k2.sqrt().round() as i64;
    if k <= 0 || a_elems % k != 0 || b_elems % k != 0 {
        return Err(IrError::new(format!(
            "cannot rewrite contraction '{spec}' as a GEMM (|A|={a_elems}, |B|={b_elems}, |C|={out_elems})"
        )));
    }
    let m = a_elems / k;
    let n = b_elems / k;

    let block = body.op_block(op);
    let index = body.op_index_in_block(op);
    let mut b = OpBuilder::at_end(body, block);
    let a_mat = b.push_at(
        index,
        OpSpec::new(tensor::COLLAPSE_SHAPE)
            .operand(operands[0])
            .result(Type::tensor(&[m, k], elem)),
    );
    let b_mat = b.push_at(
        index + 1,
        OpSpec::new(tensor::COLLAPSE_SHAPE)
            .operand(operands[1])
            .result(Type::tensor(&[k, n], elem)),
    );
    let gemm = b.push_at(
        index + 2,
        OpSpec::new(cinm::GEMM)
            .operands([a_mat.result(), b_mat.result()])
            .attr("einsum", spec.as_str())
            .result(Type::tensor(&[m, n], elem)),
    );
    let expanded = b.push_at(
        index + 3,
        OpSpec::new(tensor::EXPAND_SHAPE)
            .operand(gemm.result())
            .result(Type::tensor(&out_shape, elem)),
    );
    let new_result = expanded.result();
    body.replace_all_uses(result, new_result);
    body.erase_op(op);
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
    let operands = body.op(op).operands.clone();
    let result = body.op(op).results[0];
    let result_ty = body.value_type(result).clone();
    let result_shape = result_ty
        .shape()
        .ok_or_else(|| IrError::new(format!("{op_name} result must be shaped")))?
        .to_vec();
    let elem = result_ty.element_type().unwrap();
    let block = body.op_block(op);
    let index = body.op_index_in_block(op);
    let num_pus: i64 = options.workgroup.iter().product();

    // Per-PU tile of the result: split the leading dimension across PUs.
    let lead = result_shape[0].max(1);
    let rows_per_pu = (lead + num_pus - 1) / num_pus;
    let mut tile_shape = result_shape.clone();
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
    let wg = b.push_at(
        at,
        OpSpec::new(cnm::WORKGROUP)
            .attr("shape", options.workgroup.clone())
            .attr(
                "cnm.physical_dims",
                Attribute::StrArray(vec!["dpu".into(), "thread".into()]),
            )
            .result(Type::cnm_workgroup(&options.workgroup)),
    );
    at += 1;

    // One buffer + scatter per operand.
    let mut buffers = Vec::new();
    let mut tokens = Vec::new();
    for &operand in &operands {
        let oshape = b
            .body()
            .value_type(operand)
            .shape()
            .map(|s| s.to_vec())
            .unwrap_or_else(|| vec![1]);
        let oelem = b.body().value_type(operand).element_type().unwrap_or(elem);
        let mut otile = oshape.clone();
        otile[0] = ((oshape[0] + num_pus - 1) / num_pus).max(1);
        let buf = b.push_at(
            at,
            OpSpec::new(cnm::ALLOC)
                .operand(wg.result())
                .attr("cnm.physical_space", "global")
                .result(Type::cnm_buffer(&otile, oelem, 0)),
        );
        at += 1;
        let map = AffineMap::tiling(&otile.iter().map(|&x| x.max(1)).collect::<Vec<_>>());
        let tok = b.push_at(
            at,
            OpSpec::new(cnm::SCATTER)
                .operands([operand, buf.result(), wg.result()])
                .attr("scatter_map", map)
                .result(Type::Token),
        );
        at += 1;
        buffers.push(buf.result());
        tokens.push(tok.result());
    }

    // Output buffer.
    let out_buf = b.push_at(
        at,
        OpSpec::new(cnm::ALLOC)
            .operand(wg.result())
            .attr("cnm.physical_space", "global")
            .result(Type::cnm_buffer(&tile_shape, elem, 0)),
    );
    at += 1;

    // Launch with the kernel annotated for the device code generator.
    let mut launch_operands = vec![wg.result()];
    launch_operands.extend(buffers.iter().copied());
    launch_operands.push(out_buf.result());
    let region_args: Vec<Type> = launch_operands[1..]
        .iter()
        .map(|v| {
            let ty = b.body().value_type(*v).clone();
            match ty {
                Type::CnmBuffer(t) => Type::memref_in(&t.shape, t.elem, MemorySpace::PuPrivate),
                other => other,
            }
        })
        .collect();
    let mut launch_spec = OpSpec::new(cnm::LAUNCH)
        .operands(launch_operands)
        .attr("cnm.op_kind", op_name.as_str())
        .attr("cnm.tile_shape", tile_shape.clone())
        .attr("cnm.wram_tile", wram_tile)
        .result(Type::Token)
        .region(region_args);
    if options.optimize_locality {
        launch_spec = launch_spec.flag("cnm.locality_optimized");
    }
    let launch = b.push_at(at, launch_spec);
    at += 1;
    // Terminate the kernel region.
    {
        let kernel_block = b.body().op_region_entry_block(launch.id, 0);
        let mut kb = OpBuilder::at_end(b.body_mut(), kernel_block);
        kb.push(OpSpec::new(cnm::TERMINATOR));
    }

    // Gather the result and synchronise.
    let gather_map = AffineMap::tiling(&tile_shape.iter().map(|&x| x.max(1)).collect::<Vec<_>>());
    let gather = b.push_at(
        at,
        OpSpec::new(cnm::GATHER)
            .operands([out_buf.result(), wg.result()])
            .attr("scatter_map", gather_map)
            .result(result_ty.clone())
            .result(Type::Token),
    );
    at += 1;
    let mut wait_tokens = tokens;
    wait_tokens.push(launch.result_at(0));
    wait_tokens.push(gather.result_at(1));
    b.push_at(at, OpSpec::new(cnm::WAIT).operands(wait_tokens));
    at += 1;
    b.push_at(at, OpSpec::new(cnm::FREE_WORKGROUP).operand(wg.result()));

    let new_result = gather.result_at(0);
    body.replace_all_uses(result, new_result);
    // The original op still references its operands; erase it last.
    body.erase_op(op);
    Ok(())
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
    let operands = body.op(op).operands.clone();
    let result = body.op(op).results[0];
    let result_ty = body.value_type(result).clone();
    let block = body.op_block(op);
    let index = body.op_index_in_block(op);

    let mut b = OpBuilder::at_end(body, block);
    let device = b.push_at(index, OpSpec::new(cim::ACQUIRE).result(Type::CimDeviceId));
    let mut exec_spec = OpSpec::new(cim::EXECUTE)
        .operand(device.result())
        .operands(operands.iter().copied())
        .attr("cim.kernel", op_name.as_str())
        .attr("cim.tile_size", options.tile_size)
        .attr("cim.num_tiles", options.num_tiles)
        .result(result_ty.clone())
        .region(
            operands
                .iter()
                .map(|v| b.body().value_type(*v).clone())
                .collect(),
        );
    if options.min_writes {
        exec_spec = exec_spec.flag("cim.min_writes");
    }
    if options.parallel_tiles {
        exec_spec = exec_spec.flag("cim.parallel_tiles");
    }
    let exec = b.push_at(index + 1, exec_spec);
    // Region: the original cinm op on the region views, yielded.
    {
        let exec_block = b.body().op_region_entry_block(exec.id, 0);
        let views = b.body().block_args(exec_block).to_vec();
        let mut eb = OpBuilder::at_end(b.body_mut(), exec_block);
        let inner = eb.push(
            OpSpec::new(op_name.as_str())
                .operands(views.iter().copied())
                .result(result_ty.clone()),
        );
        eb.push(OpSpec::new(cim::YIELD).operand(inner.result()));
    }
    b.push_at(
        index + 2,
        OpSpec::new(cim::BARRIER).operand(device.result()),
    );
    b.push_at(
        index + 3,
        OpSpec::new(cim::RELEASE).operand(device.result()),
    );

    let new_result = exec.result_at(0);
    body.replace_all_uses(result, new_result);
    body.erase_op(op);
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
                let operation = func.body.op_mut(op);
                operation.name = new_name.into();
                match new_name {
                    upmem::ALLOC_DPUS => {
                        operation
                            .attrs
                            .insert("ranks", Attribute::Int(self.options.ranks));
                        operation.attrs.insert(
                            "dpus_per_rank",
                            Attribute::Int(upmem::arch::DPUS_PER_DIMM as i64),
                        );
                        operation
                            .attrs
                            .insert("tasklets", Attribute::Int(self.options.tasklets));
                    }
                    upmem::LAUNCH => {
                        let kernel = operation
                            .str_attr("cnm.op_kind")
                            .unwrap_or("generic")
                            .to_string();
                        operation.attrs.insert("kernel", Attribute::Str(kernel));
                        operation
                            .attrs
                            .insert("tasklets", Attribute::Int(self.options.tasklets));
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
            match func.body.op(op).name.as_str() {
                cim::ACQUIRE => {
                    let operation = func.body.op_mut(op);
                    operation.name = memristor::CONFIGURE.into();
                    operation.attrs.insert(
                        "tile_rows",
                        Attribute::Int(memristor::arch::TILE_ROWS as i64),
                    );
                    operation.attrs.insert(
                        "tile_cols",
                        Attribute::Int(memristor::arch::TILE_COLS as i64),
                    );
                    operation.attrs.insert(
                        "num_tiles",
                        Attribute::Int(memristor::arch::NUM_TILES as i64),
                    );
                    operation
                        .attrs
                        .insert("write_mode", Attribute::Str("write-verify".into()));
                    changed = true;
                }
                cim::EXECUTE => {
                    // The tiled execution is materialised by the device code
                    // generator; at the IR level the op becomes the
                    // memristor GEMM entry point carrying the same attributes.
                    let operation = func.body.op_mut(op);
                    operation.name = memristor::GEMM_TILE.into();
                    operation.attrs.insert("tile", Attribute::Int(0));
                    changed = true;
                }
                cim::BARRIER => {
                    func.body.op_mut(op).name = memristor::BARRIER.into();
                    changed = true;
                }
                cim::RELEASE => {
                    func.body.op_mut(op).name = memristor::RELEASE.into();
                    changed = true;
                }
                _ => {}
            }
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
                .push(
                    OpSpec::new(linalg::ELEMWISE_BINARY)
                        .operands([args[0], args[1]])
                        .attr("fun", fun)
                        .result(i32t(&[8])),
                )
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
        let lhs_ty = f.body.value_type(f.body.op(gemms[0]).operands[0]).clone();
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
