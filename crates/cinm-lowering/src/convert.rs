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

use memristor_sim::CrossbarConfig;
use upmem_sim::{BinOp, DpuKernelKind, UpmemConfig};

use crate::cim_schedule::CimSchedule;
use crate::cnm_op::{CnmOp, KernelCodegen, MramLayout, OutputLayout};

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
    /// Every DPU of a 4-rank machine with its tasklets and WRAM.
    fn default() -> Self {
        let machine = UpmemConfig::with_ranks(4);
        CnmLoweringOptions {
            workgroup: vec![machine.num_dpus() as i64, machine.tasklets as i64],
            optimize_locality: false,
            wram_bytes: machine.wram_bytes,
        }
    }
}

/// Lowers every `cinm` op the one lowering table covers
/// ([`CnmOp::from_cinm`]) to the `cnm` program of its
/// [`CnmOp::geometry`] on the workgroup's DPUs; every other op stays at the
/// `cinm` level for the host.
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
        // The kernels are generated for the workgroup's tasklets and the
        // DPU's WRAM by the rule the backend launches them with.
        let o = &self.options;
        let grid @ [_, tasklets] = match o.workgroup[..] {
            [dpus, tasklets] if dpus > 0 && tasklets > 0 => [dpus, tasklets],
            _ => return Err(IrError::new("the workgroup must be [dpus, tasklets]")),
        };
        let wram = o.wram_bytes;
        let codegen = KernelCodegen::new(o.optimize_locality, 1.0, None, tasklets as usize, wram);
        let mut changed = false;
        for op in func.body.walk() {
            if !func.body.is_live(op) {
                continue;
            }
            if let Some(cnm_op) = CnmOp::from_cinm(&func.body, op) {
                lower_cinm_op_to_cnm(&mut func.body, op, cnm_op, grid, codegen);
                changed = true;
            }
        }
        Ok(PassResult::from_changed(changed))
    }
}

/// Replaces `op` with its workgroup / scatter / launch / gather program: one
/// buffer and one scatter per operand in the layout of its geometry — a
/// per-DPU chunk, or the whole operand broadcast to every DPU — an output
/// buffer of the per-DPU output chunk, a launch of the geometry's kernel and
/// a gather that names the partials the host still has to combine.
fn lower_cinm_op_to_cnm(
    body: &mut Body,
    op: OpId,
    cnm_op: CnmOp,
    workgroup: [i64; 2],
    codegen: KernelCodegen,
) {
    let geometry = cnm_op.geometry(workgroup[0] as usize);
    let arity = cnm_op.arity();
    let result_ty = *body.value_type(body.result(op, 0));
    let (block, mut at) = (body.op_block(op), body.op_index_in_block(op));
    let mut b = OpBuilder::at_end(body, block);
    let wg = b
        .op(cnm::WORKGROUP)
        .attr("shape", workgroup)
        .attr("cnm.physical_dims", Attribute::StrArray(&["dpu", "thread"]))
        .result(Type::cnm_workgroup(&workgroup))
        .push_at(at)
        .result();
    // A buffer of `shape` on every PU, for a value of type `ty`.
    let alloc = |b: &mut OpBuilder<'_>, ty: Type, shape: &[i64], at| {
        let elem = ty.element_type().unwrap_or(ScalarType::I32);
        b.op(cnm::ALLOC)
            .operand(wg)
            .attr("cnm.physical_space", "global")
            .result(Type::cnm_buffer(shape, elem, 0))
            .push_at(at)
            .result()
    };

    // One buffer and one scatter per operand, in the layout of its geometry.
    let (mut buffers, mut tokens) = ([wg; 4], [wg; 3]);
    for (i, &layout) in geometry.inputs[..arity].iter().enumerate() {
        let operand = b.body().op(op).operands[i];
        let ty = *b.body().value_type(operand);
        let shape = ty.shape().unwrap_or(&[]);
        let (buffer_shape, map) = match layout {
            MramLayout::Chunk(chunk) => chunk_layout(shape, chunk),
            MramLayout::Broadcast(_) => (Shape::new(shape), AffineMap::identity(shape.len())),
        };
        buffers[i] = alloc(&mut b, ty, &buffer_shape, at + 1);
        let mut scatter = b
            .op(cnm::SCATTER)
            .operands([operand, buffers[i], wg])
            .attr("scatter_map", map)
            .result(Type::Token);
        if matches!(layout, MramLayout::Broadcast(_)) {
            scatter = scatter.flag("cnm.broadcast");
        }
        tokens[i] = scatter.push_at(at + 2).result();
        at += 2;
    }
    let (out_shape, out_map) = chunk_layout(result_ty.shape().unwrap_or(&[]), geometry.out_chunk);
    buffers[arity] = alloc(&mut b, result_ty, &out_shape, at + 1);
    let buffers = &buffers[..=arity];

    // Launch the geometry's kernel, generated by the rule the backend
    // launches it with. The kernel region sees every buffer as PU-private
    // memory, and is terminated.
    let (args, kernel_op) = kernel_args(&geometry.kernel);
    let mut launch = b
        .op(cnm::LAUNCH)
        .operand(wg)
        .operands(buffers.iter().copied())
        .attr("cnm.kernel", geometry.kernel.name())
        .attr("cnm.kernel_args", Attribute::IntArray(args))
        .attr("cnm.wram_tile", codegen.wram_tile as i64)
        .result(Type::Token)
        .region([]);
    if let Some(kernel_op) = kernel_op {
        launch = launch.attr("cnm.kernel_op", kernel_op);
    }
    if codegen.locality_optimized {
        launch = launch.flag("cnm.locality_optimized");
    }
    let launch = launch.push_at(at + 2);
    let kernel_block = b.body().op_region_entry_block(launch.id, 0);
    for &v in buffers {
        let Type::CnmBuffer(t) = *b.body().value_type(v) else {
            unreachable!("an allocated buffer")
        };
        let view = Type::memref_in(&t.shape, t.elem, MemorySpace::PuPrivate);
        b.body_mut().add_block_arg(kernel_block, view);
    }
    let mut kb = OpBuilder::at_end(b.body_mut(), kernel_block);
    kb.op(cnm::TERMINATOR).push();

    // Gather the output chunks and synchronise. Per-PU partials are named:
    // the host folds, merges or concatenates them into the result.
    let partials = match geometry.out_layout {
        OutputLayout::ReducePartials { .. } => Some("reduce"),
        OutputLayout::HistPartials { .. } => Some("histogram"),
        OutputLayout::SelectRaw { .. } => Some("select"),
        _ => None,
    };
    let mut gather = b
        .op(cnm::GATHER)
        .operands([buffers[arity], wg])
        .attr("scatter_map", out_map)
        .result(result_ty)
        .result(Type::Token);
    if let Some(partials) = partials {
        gather = gather.attr("cnm.partials", partials);
    }
    let gather = gather.push_at(at + 3);
    b.op(cnm::WAIT)
        .operands(tokens[..arity].iter().copied())
        .operands([launch.result_at(0), gather.result_at(1)])
        .push_at(at + 4);
    b.op(cnm::FREE_WORKGROUP).operand(wg).push_at(at + 5);

    // The original op still references its operands; erase it last.
    replace_op(body, op, gather.result_at(0));
}

/// The per-PU buffer shape and the scatter map of a tensor of `shape` in
/// chunks of `chunk` elements, PU `p` holding the row-major positions
/// `[p·chunk, (p+1)·chunk)`. When a chunk is a row-major block of the
/// tensor — whole trailing dimensions under a part of one dimension that
/// the part divides (any part of the leading one) — the buffer has the
/// block's shape and the map tiles by it; otherwise the buffer is flat and
/// the map splits the row-major position.
fn chunk_layout(shape: &[i64], chunk: usize) -> (Shape, AffineMap) {
    let (chunk, mut block, mut inner) = (chunk.max(1) as i64, Shape::new(shape), 1);
    for d in (0..shape.len()).rev() {
        let extent = shape[d].max(1);
        if d > 0 && chunk % (inner * extent) == 0 {
            inner *= extent;
            continue;
        }
        let part = chunk / inner;
        if d > 0 && extent % part != 0 {
            break;
        }
        block[d] = part;
        block[..d].fill(1);
        return (block, AffineMap::tiling(&block));
    }
    let position = (1..shape.len()).fold(AffineExpr::dim(0), |i, d| {
        i.mul(AffineExpr::constant(shape[d]))
            .add(AffineExpr::dim(d))
    });
    let exprs = vec![position.clone().floor_div(chunk), position.modulo(chunk)];
    let map = AffineMap::new(shape.len().max(1), exprs);
    (Shape::new(&[chunk]), map)
}

/// What a launch states of its kernel besides the kernel's name: its
/// integer parameters in field order, and the operator of an element-wise or
/// reduction kernel.
fn kernel_args(kernel: &DpuKernelKind) -> (Shape, Option<&'static str>) {
    let funs = linalg::ELEMWISE_FUNS;
    let op_name = |op| funs.iter().copied().find(|f| BinOp::parse(f) == Some(op));
    let u = |v: usize| v as i64;
    match *kernel {
        DpuKernelKind::Gemm { m, k, n } => (Shape::new(&[u(m), u(k), u(n)]), None),
        DpuKernelKind::Gemv { rows, cols } => (Shape::new(&[u(rows), u(cols)]), None),
        DpuKernelKind::Elementwise { op, len } | DpuKernelKind::Reduce { op, len } => {
            (Shape::new(&[u(len)]), op_name(op))
        }
        DpuKernelKind::Histogram {
            bins,
            len,
            max_value,
        } => (Shape::new(&[u(bins), u(len), max_value.into()]), None),
        DpuKernelKind::Select { len, threshold } => (Shape::new(&[u(len), threshold.into()]), None),
        _ => unreachable!("no decoded op runs a {} kernel", kernel.name()),
    }
}

// ---------------------------------------------------------------------------
// cinm -> cim
// ---------------------------------------------------------------------------

/// Options of the `cinm → cim` lowering. The kernels are tiled by the
/// crossbar schedule on the default crossbar (`CrossbarConfig::default()`).
#[derive(Debug, Clone, Default)]
pub struct CimLoweringOptions {
    /// Interchange the tile loops to minimise crossbar writes
    /// (`cim-min-writes`).
    pub min_writes: bool,
    /// Unroll the inner tile loop across crossbar tiles (`cim-parallel`).
    pub parallel_tiles: bool,
}

impl CimLoweringOptions {
    /// The `cim-opt` configuration: all optimisations enabled.
    pub fn optimized() -> Self {
        CimLoweringOptions {
            min_writes: true,
            parallel_tiles: true,
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
            let Some(dims) = CnmOp::from_cinm(&func.body, op).and_then(CnmOp::matmul_dims) else {
                continue;
            };
            let o = &self.options;
            let flags = (o.min_writes, o.parallel_tiles);
            let schedule = CimSchedule::new(dims, &CrossbarConfig::default(), flags);
            lower_cinm_op_to_cim(&mut func.body, op, o, schedule.blocking());
            changed = true;
        }
        Ok(PassResult::from_changed(changed))
    }
}

/// Replaces the matmul-like `op` with its `cim` program, tiled by
/// `(tile rows, tiles per batch)` of its crossbar schedule.
fn lower_cinm_op_to_cim(
    body: &mut Body,
    op: OpId,
    options: &CimLoweringOptions,
    (tile_size, num_tiles): (usize, usize),
) {
    let op_name = body.op(op).name;
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
        .attr("cim.tile_size", tile_size as i64)
        .attr("cim.num_tiles", num_tiles as i64)
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
}

// ---------------------------------------------------------------------------
// cnm -> upmem and cim -> memristor
// ---------------------------------------------------------------------------

/// Options of the `cnm → upmem` lowering. The grid is the workgroup's: the
/// pass writes its DPU and tasklet counts, and these fields must agree with
/// them.
#[derive(Debug, Clone)]
pub struct UpmemLoweringOptions {
    /// Number of DIMMs (ranks).
    pub ranks: i64,
    /// Tasklets per DPU.
    pub tasklets: i64,
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

    /// The grid of the workgroup `v` as `[ranks, DPUs per rank, tasklets]`:
    /// the workgroup is its one statement, and options that disagree with it
    /// are an error.
    fn grid(&self, body: &Body, v: ValueId) -> IrResult<[i64; 3]> {
        let (o, per_rank) = (&self.options, UpmemConfig::default().dpus_per_rank as i64);
        match *body.value_type(v) {
            Type::CnmWorkgroup(wg) if wg.shape[..] == [o.ranks * per_rank, o.tasklets] => {
                Ok([wg.shape[0] / per_rank, per_rank, wg.shape[1]])
            }
            ty => Err(IrError::new(format!(
                "{} ranks of {} tasklets disagree with {ty}",
                o.ranks, o.tasklets
            ))),
        }
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
                cnm::WORKGROUP => upmem::ALLOC_DPUS,
                cnm::ALLOC => upmem::ALLOC_MRAM,
                cnm::SCATTER => upmem::SCATTER,
                cnm::GATHER => upmem::GATHER,
                cnm::LAUNCH => upmem::LAUNCH,
                cnm::WAIT => upmem::WAIT,
                cnm::FREE_WORKGROUP => upmem::FREE_DPUS,
                cnm::TERMINATOR => upmem::TERMINATOR,
                _ => continue,
            };
            let body = &mut func.body;
            body.rename_op(op, new_name);
            match new_name {
                upmem::ALLOC_DPUS => {
                    let grid = self.grid(body, body.result(op, 0))?;
                    for (key, n) in std::iter::zip(["ranks", "dpus_per_rank", "tasklets"], grid) {
                        body.set_attr(op, key, Attribute::Int(n));
                    }
                }
                upmem::LAUNCH => {
                    // The kernel is the one the launch carries: its name is
                    // `'static`, so copying the attribute is free.
                    let [.., tasklets] = self.grid(body, body.op(op).operands[0])?;
                    let kernel = body.op(op).attr("cnm.kernel").cloned();
                    body.set_attr(op, "kernel", kernel.unwrap_or("generic".into()));
                    body.set_attr(op, "tasklets", Attribute::Int(tasklets));
                }
                _ => {}
            }
            changed = true;
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
                    let xbar = CrossbarConfig::default();
                    for (key, value) in [
                        ("tile_rows", xbar.tile_rows),
                        ("tile_cols", xbar.tile_cols),
                        ("num_tiles", xbar.num_tiles),
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
        // The launch carries the geometry's kernel on the workgroup's 8 DPUs
        // (8 rows of A each), and B is broadcast whole.
        let launch = f.body.op(f.body.ops_with_name(cnm::LAUNCH)[0]);
        assert_eq!(launch.str_attr("cnm.kernel"), Some("gemm"));
        assert_eq!(
            launch.int_array_attr("cnm.kernel_args"),
            Some(&[8, 64, 64][..])
        );
        assert!(launch.has_attr("cnm.locality_optimized"));
        let broadcast = |&s: &OpId| f.body.op(s).has_attr("cnm.broadcast");
        let scatters = f.body.ops_with_name(cnm::SCATTER);
        assert_eq!(scatters.iter().filter(|s| broadcast(s)).count(), 1);
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
        assert_eq!(f.body.op(exec).int_attr("cim.num_tiles"), Some(4));
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
        // The default workgroup is 512 DPUs of 16 tasklets: 4 ranks. Options
        // that disagree with it are an error.
        let upmem = |ranks, tasklets| CnmToUpmemPass::new(UpmemLoweringOptions { ranks, tasklets });
        assert!(upmem(8, 16).run_on_func(&mut f.clone()).is_err());
        upmem(4, 16).run_on_func(&mut f).unwrap();
        assert!(f.body.ops_in_dialect("cnm").is_empty());
        let alloc = f.body.ops_with_name(upmem::ALLOC_DPUS)[0];
        assert_eq!(f.body.op(alloc).int_attr("ranks"), Some(4));
        let launch = f.body.ops_with_name(upmem::LAUNCH)[0];
        assert_eq!(f.body.op(launch).str_attr("kernel"), Some("gemm"));

        // CIM path.
        let mut g = matmul_func();
        LinalgToCinmPass.run_on_func(&mut g).unwrap();
        CinmToCimPass::new(CimLoweringOptions::default())
            .run_on_func(&mut g)
            .unwrap();
        // Without `cim-parallel` a batch is one tile.
        let exec = g.body.ops_with_name(cim::EXECUTE)[0];
        assert_eq!(g.body.op(exec).int_attr("cim.num_tiles"), Some(1));
        CimToMemristorPass.run_on_func(&mut g).unwrap();
        assert!(g.body.ops_with_name(cim::ACQUIRE).is_empty());
        assert_eq!(g.body.ops_with_name(memristor::CONFIGURE).len(), 1);
        assert_eq!(g.body.ops_with_name(memristor::GEMM_TILE).len(), 1);
        assert_eq!(g.body.ops_with_name(memristor::RELEASE).len(), 1);
    }
}
