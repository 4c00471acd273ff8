//! Functional semantics of the DPU kernels on the slab layout, executed a
//! *grid* at a time.
//!
//! Every DPU of a launch runs the same kernel on its own strides, so the
//! host need not dispatch it once per DPU: [`execute_grid`] matches the
//! kernel kind once per launch, resolves the operator to a monomorphic
//! closure outside every loop, and then runs one kind-specific loop over the
//! band of DPUs it was given. It is the only implementation of kernel
//! semantics in the slab system — every thread count, every launch and the
//! aliased-output staging all run it; the
//! retained seed executor in [`crate::naive`] is the independent oracle
//! `tests/properties.rs` compares it against.

use std::ops::Range;

use crate::kernel::{BinOp, DpuKernelKind};
use crate::system::Strides;

/// Upper bound on the number of input buffers any kernel kind consumes
/// (see [`DpuKernelKind::num_inputs`]); lets the launch hot path keep its
/// input strides in a stack array instead of a heap allocation.
/// Fused element-wise kernels are validated against this bound too.
pub(crate) const MAX_KERNEL_INPUTS: usize = 4;

/// Evaluates `$body` with `$f` bound to the closure of `$op`, one
/// monomorphic copy per operator: the nine-way `match` of [`BinOp::apply`]
/// runs once here instead of once per element, so the loops in `$body`
/// vectorise.
macro_rules! with_op {
    ($op:expr, |$f:ident| $body:expr) => {
        with_op!(@arms $op, $f, $body, Add Sub Mul Div Max Min And Or Xor)
    };
    (@arms $op:expr, $f:ident, $body:expr, $($variant:ident)*) => {
        match $op {
            $(BinOp::$variant => {
                let $f = |a: i32, b: i32| BinOp::$variant.apply(a, b);
                $body
            })*
        }
    };
}

impl BinOp {
    /// `out[i] = self.apply(a[i], b[i])` over the three slices' common
    /// length, in one monomorphic loop per operator (`with_op!`): the
    /// grid's element-wise launches and the host's kernel.
    pub fn zip_into(self, a: &[i32], b: &[i32], out: &mut [i32]) {
        with_op!(self, |f| {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        })
    }

    /// The fold of `a` from [`identity`](BinOp::identity) in element
    /// order, in one monomorphic loop per operator: the host's reduction.
    pub fn fold(self, a: &[i32]) -> i32 {
        let init = self.identity();
        with_op!(self, |f| a.iter().fold(init, |acc, &v| f(acc, v)))
    }
}

/// Runs `body(inputs, output)` on every DPU of the band: `out` holds the
/// `out_elems`-element output strides of the DPUs `dpus`, and DPU `d` reads
/// input `i` through `ins[i].of(d)`.
#[inline(always)]
fn per_dpu<const N: usize>(
    ins: &[Strides<'_>],
    out: &mut [i32],
    out_elems: usize,
    dpus: Range<usize>,
    mut body: impl FnMut([&[i32]; N], &mut [i32]),
) {
    let ins: [Strides<'_>; N] = std::array::from_fn(|i| ins[i]);
    for (d, out) in dpus.zip(out.chunks_exact_mut(out_elems)) {
        body(ins.map(|s| s.of(d)), out);
    }
}

/// `wide | (v + 2¹⁵)` as `u32`. OR-ed over a row from 0, the result is below
/// 2¹⁶ exactly when every `v` lies in `i16`'s `[−2¹⁵, 2¹⁵)`: adding 2¹⁵ maps
/// that range, and only it, onto `[0, 2¹⁶)`. Branch-free, so it vectorises.
#[inline(always)]
fn or_offset(wide: u32, v: i32) -> u32 {
    wide | (v as u32).wrapping_add(0x8000)
}

/// Whether every element of `v` fits `i16` (see [`or_offset`]).
fn fits_i16(v: &[i32]) -> bool {
    v.iter().fold(0, |wide, &e| or_offset(wide, e)) >> 16 == 0
}

/// [`fits_i16`] of a `gemm` row and whether it is all zero, in one pass.
fn scan_row(row: &[i32]) -> (bool, bool) {
    let (wide, bits) = row
        .iter()
        .fold((0, 0), |(wide, bits), &e| (or_offset(wide, e), bits | e));
    (wide >> 16 == 0, bits == 0)
}

/// The narrow product of one element pair: `a as i16` is exact for an `a`
/// that fits, and no product of two `i16`s overflows `i32`.
#[inline(always)]
fn mul_narrow(a: i32, b: i16) -> i32 {
    a as i16 as i32 * b as i32
}

/// The wrapping dot product of `a` and `b` (of `a`'s length) for an `a`
/// whose elements fit `i16`: the wrapping sum of [`mul_narrow`]s equals the
/// `i32` loop's in any order. LLVM lowers the whole groups of eight to SSE2
/// `pmaddwd` on the low halves of `a`'s lanes. The up to seven elements left
/// over take plain `i32` products, equal for an `a` that fits and cheaper
/// than a truncated scalar one.
fn dot_narrow(a: &[i32], b: &[i16]) -> i32 {
    let body = a.len() / 8 * 8;
    let head = a[..body]
        .iter()
        .zip(b)
        .fold(0, |acc: i32, (&a, &b)| acc.wrapping_add(mul_narrow(a, b)));
    a[body..]
        .iter()
        .zip(&b[body..])
        .fold(head, |acc, (&a, &b)| {
            acc.wrapping_add(a.wrapping_mul(b as i32))
        })
}

/// [`dot_narrow`] and [`fits_i16`] of `a` in one pass, split the same way:
/// the dot product when `a` fits, `None` (and a wasted pass the caller
/// repeats in `i32`) when not. A `gemv` row is used once per launch, so a
/// separate fit test would read every row twice.
fn dot_narrow_checked(a: &[i32], b: &[i16]) -> Option<i32> {
    let body = a.len() / 8 * 8;
    let (acc, wide) = a[..body]
        .iter()
        .zip(b)
        .fold((0, 0), |(acc, wide): (i32, u32), (&a, &b)| {
            (acc.wrapping_add(mul_narrow(a, b)), or_offset(wide, a))
        });
    let (acc, wide) =
        a[body..]
            .iter()
            .zip(&b[body..])
            .fold((acc, wide), |(acc, wide), (&a, &b)| {
                (
                    acc.wrapping_add(a.wrapping_mul(b as i32)),
                    or_offset(wide, a),
                )
            });
    (wide >> 16 == 0).then_some(acc)
}

/// The shortest `gemm` row (`k`) that takes [`dot_narrow`]. Below it the
/// `i32` saxpy over the `n` columns is faster, because every narrow dot
/// product pays a horizontal sum (EXPERIMENTS.md, "Narrow
/// multiply-accumulate").
const NARROW_GEMM_FROM_K: usize = 16;

/// The shortest `gemv` row (`cols`) that takes [`dot_narrow_checked`]. Below
/// it the two horizontal sums of the fused pass cost more than its narrow
/// products save (same measurement).
const NARROW_GEMV_FROM_COLS: usize = 40;

/// Narrows the right-hand operand of a `gemm` or `gemv` launch into
/// `scratch` (grown to fit, never shrunk), once for the whole launch: `B` of
/// a `gemm` is stored transposed, column `j` at `[j · k, (j + 1) · k)`, and
/// `x` of a `gemv` as is. `None` when the kernel has no such operand, its
/// rows are shorter than the kernel's narrow crossover, or the operand is
/// stored per DPU or holds a value outside `i16`; the launch then runs the
/// `i32` loops alone.
pub(crate) fn narrow_operand<'s>(
    kind: &DpuKernelKind,
    ins: &[Strides<'_>],
    scratch: &'s mut Vec<i16>,
) -> Option<&'s [i16]> {
    let (k, n) = match *kind {
        DpuKernelKind::Gemm { k, n, .. } if k >= NARROW_GEMM_FROM_K => (k, n),
        DpuKernelKind::Gemv { cols, .. } if cols >= NARROW_GEMV_FROM_COLS => (cols, 1),
        _ => return None,
    };
    let rhs = &ins[1].replicated()?[..k * n];
    if !fits_i16(rhs) {
        return None;
    }
    if scratch.len() < rhs.len() {
        scratch.resize(rhs.len(), 0);
    }
    let narrow = &mut scratch[..rhs.len()];
    for (j, column) in narrow.chunks_exact_mut(k).enumerate() {
        for (p, v) in column.iter_mut().enumerate() {
            *v = rhs[p * n + j] as i16;
        }
    }
    Some(narrow)
}

/// `out[i] = a[i] op b[i]` for the first `len` elements of every DPU of the
/// band — the body of [`DpuKernelKind::Elementwise`] and of each stage of a
/// [`DpuKernelKind::FusedElementwise`] launch (whose operands are launch
/// inputs or the already-written outputs of earlier stages).
///
/// Where both operands and the output are stored per DPU and *tight*
/// ([`Strides::flat`]) the DPU boundaries carry no meaning and the band is
/// one flat loop over `dpus.len() * len` elements; a padded or replicated
/// operand takes the loop over DPUs.
pub(crate) fn elementwise_grid(
    op: BinOp,
    len: usize,
    a: Strides<'_>,
    b: Strides<'_>,
    out: &mut [i32],
    out_elems: usize,
    dpus: Range<usize>,
) {
    let flat = if out_elems == len {
        a.flat(len, dpus.clone()).zip(b.flat(len, dpus.clone()))
    } else {
        None
    };
    match flat {
        Some((a, b)) => op.zip_into(a, b, out),
        None => per_dpu(&[a, b], out, out_elems, dpus, |[a, b], out| {
            op.zip_into(a, b, &mut out[..len])
        }),
    }
}

/// Functional semantics of the DPUs `dpus` executing the kernel on their
/// local data: `ins` are the launch's input strides, `out` the band of the
/// output slab those DPUs own (`out_elems` elements each), and `narrow` the
/// launch's [`narrow_operand`].
///
/// The dense loop nests are written in an autovectorisation-friendly form
/// (row-wise `zip` iteration, GEMM in i-p-j order). Where this reorders an
/// accumulation relative to the seed implementation the result is still
/// bit-identical, because all arithmetic is wrapping 32-bit (exact mod 2³²,
/// hence order-independent) — `tests/properties.rs` asserts the equivalence
/// against the retained seed executor over randomized cases. A `gemm` or
/// `gemv` row whose elements fit `i16` against a narrowed operand takes
/// [`dot_narrow`], which sums the same products, and an all-zero `gemm` row
/// (the padding past an op's rows, mostly) adds nothing to its output row,
/// so it is skipped.
pub(crate) fn execute_grid(
    kind: &DpuKernelKind,
    ins: &[Strides<'_>],
    narrow: Option<&[i16]>,
    out: &mut [i32],
    out_elems: usize,
    dpus: Range<usize>,
) {
    match *kind {
        DpuKernelKind::Gemm { m, k, n } => per_dpu(ins, out, out_elems, dpus, |[a, b], out| {
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut out[i * n..(i + 1) * n];
                let (fits, zero) = scan_row(a_row);
                if zero {
                    continue;
                }
                if let Some(columns) = narrow.filter(|_| fits) {
                    for (cv, column) in c_row.iter_mut().zip(columns.chunks_exact(k)) {
                        *cv = cv.wrapping_add(dot_narrow(a_row, column));
                    }
                    continue;
                }
                for (p, &av) in a_row.iter().enumerate() {
                    let b_row = &b[p * n..(p + 1) * n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                        *cv = cv.wrapping_add(av.wrapping_mul(bv));
                    }
                }
            }
        }),
        DpuKernelKind::Gemv { rows, cols } => per_dpu(ins, out, out_elems, dpus, |[a, x], out| {
            for (i, o) in out[..rows].iter_mut().enumerate() {
                let a_row = &a[i * cols..(i + 1) * cols];
                let acc = narrow
                    .and_then(|x| dot_narrow_checked(a_row, x))
                    .unwrap_or_else(|| {
                        a_row.iter().zip(x).fold(0, |acc: i32, (&av, &xv)| {
                            acc.wrapping_add(av.wrapping_mul(xv))
                        })
                    });
                *o = o.wrapping_add(acc);
            }
        }),
        DpuKernelKind::Elementwise { op, len } => {
            elementwise_grid(op, len, ins[0], ins[1], out, out_elems, dpus)
        }
        DpuKernelKind::Reduce { op, len } => with_op!(op, |f| {
            per_dpu(ins, out, out_elems, dpus, |[a], out| {
                out[0] = a[..len].iter().fold(op.identity(), |acc, &v| f(acc, v));
            })
        }),
        DpuKernelKind::Histogram {
            bins,
            len,
            max_value,
        } => {
            let max = max_value.max(1) as u64;
            if (bins as u64).saturating_mul(max) <= 1 << 32 {
                // Every numerator `clamped · bins` is below `max · bins ≤ 2³²`
                // and `max < 2³¹`, so the quotient is exactly the high word of
                // the numerator times the reciprocal `⌊(2⁶⁴ − 1) / max⌋ + 1`
                // (Lemire, Kaser & Kurz 2019). For `max = 1` it wraps to 0,
                // which is right: the only numerator is then 0.
                let reciprocal = (u64::MAX / max).wrapping_add(1);
                per_dpu(ins, out, out_elems, dpus, |[a], out| {
                    out[..bins].fill(0);
                    for &v in &a[..len] {
                        let n = (v.max(0) as u64).min(max - 1) * bins as u64;
                        out[((reciprocal as u128 * n as u128) >> 64) as usize] += 1;
                    }
                })
            } else {
                let max = max as i64;
                per_dpu(ins, out, out_elems, dpus, |[a], out| {
                    out[..bins].fill(0);
                    for &v in &a[..len] {
                        let clamped = (v.max(0) as i64).min(max - 1);
                        let bin = (clamped * bins as i64 / max) as usize;
                        out[bin] += 1;
                    }
                })
            }
        }
        DpuKernelKind::Scan { op, len } => with_op!(op, |f| {
            per_dpu(ins, out, out_elems, dpus, |[a], out| {
                let mut acc = op.identity();
                for (o, &v) in out[..len].iter_mut().zip(a) {
                    acc = f(acc, v);
                    *o = acc;
                }
            })
        }),
        DpuKernelKind::Select { len, threshold } => {
            per_dpu(ins, out, out_elems, dpus, |[a], out| {
                // Branch-free: every element is stored at the next free slot
                // and kept only if it passes. `count` never exceeds the
                // element's own index, so the store stays in the stride.
                let (head, kept) = out[..=len].split_at_mut(1);
                let mut count = 0usize;
                for &v in &a[..len] {
                    kept[count] = v;
                    count += (v > threshold) as usize;
                }
                kept[count..].fill(0);
                head[0] = count as i32;
            })
        }
        DpuKernelKind::TimeSeries { len, window } => {
            let positions = len.saturating_sub(window) + 1;
            per_dpu(ins, out, out_elems, dpus, |[a], out| {
                let (a, out) = (&a[..len], &mut out[..positions]);
                let (lo, hi) = a
                    .iter()
                    .fold((i32::MAX, i32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                let spread = (hi as i64 - lo as i64).max(0) as u64;
                let exact = (spread * spread)
                    .checked_mul(window as u64)
                    .is_some_and(|bound| bound <= i32::MAX as u64);
                if exact {
                    // No difference wraps and no sum exceeds `i32::MAX`, so
                    // plain `i32` sums equal the saturating ones below;
                    // position innermost, they vectorise.
                    out.fill(0);
                    for (j, &w) in a[..window].iter().enumerate() {
                        for (o, &v) in out.iter_mut().zip(&a[j..]) {
                            let d = v - w;
                            *o += d * d;
                        }
                    }
                    return;
                }
                for (i, o) in out.iter_mut().enumerate() {
                    let mut acc: i64 = 0;
                    for (&v, &w) in a[i..i + window].iter().zip(a) {
                        let d = v.wrapping_sub(w) as i64;
                        acc = acc.saturating_add(d * d);
                    }
                    *o = acc.min(i32::MAX as i64) as i32;
                }
            })
        }
        DpuKernelKind::BfsStep { vertices, .. } => per_dpu(
            ins,
            out,
            out_elems,
            dpus,
            |[row_off, cols, frontier], out| {
                out[..vertices].fill(0);
                for v in 0..vertices {
                    if frontier[v] == 0 {
                        continue;
                    }
                    let start = row_off[v] as usize;
                    let hi = (row_off[v + 1] as usize).min(cols.len());
                    if start < hi {
                        for &edge in &cols[start..hi] {
                            out[(edge as usize) % vertices] = 1;
                        }
                    }
                }
            },
        ),
        DpuKernelKind::FusedElementwise { .. } => {
            unreachable!("a fused launch runs its stages through elementwise_grid, one output each")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{FusedArg, FusedStage};

    #[test]
    fn max_inputs_covers_every_kernel_kind() {
        for kind in [
            DpuKernelKind::Gemm { m: 1, k: 1, n: 1 },
            DpuKernelKind::Gemv { rows: 1, cols: 1 },
            DpuKernelKind::Elementwise {
                op: BinOp::Add,
                len: 1,
            },
            DpuKernelKind::Reduce {
                op: BinOp::Add,
                len: 1,
            },
            DpuKernelKind::Histogram {
                bins: 1,
                len: 1,
                max_value: 1,
            },
            DpuKernelKind::Scan {
                op: BinOp::Add,
                len: 1,
            },
            DpuKernelKind::Select {
                len: 1,
                threshold: 0,
            },
            DpuKernelKind::TimeSeries { len: 1, window: 1 },
            DpuKernelKind::BfsStep {
                vertices: 1,
                avg_degree: 1,
            },
            DpuKernelKind::FusedElementwise {
                stages: vec![FusedStage {
                    op: BinOp::Add,
                    lhs: FusedArg::Input(0),
                    rhs: FusedArg::Input(3),
                }],
                len: 1,
                arity: MAX_KERNEL_INPUTS,
            },
        ] {
            assert!(kind.num_inputs() <= MAX_KERNEL_INPUTS, "{}", kind.name());
        }
    }

    #[test]
    fn select_writes_its_whole_output_stride_on_both_systems() {
        use crate::naive::NaiveUpmemSystem;
        use crate::system::DpuSystem;
        use crate::{KernelSpec, UpmemConfig, UpmemSystem};
        let (dpus, len) = (3, 5);
        let a = [4, -1, 9, 2, 7, 0, 0, 0, 0, 0, 8, 8, 8, 8, 8];
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = dpus;
        let mut naive = NaiveUpmemSystem::new(cfg.clone());
        let mut slab = UpmemSystem::new(cfg);
        let mut strides = Vec::new();
        for sys in [&mut naive as &mut dyn DpuSystem, &mut slab] {
            let input = sys.alloc_buffer(len).unwrap();
            // One element beyond the kernel's `len + 1`, which it leaves be.
            let output = sys.alloc_buffer(len + 2).unwrap();
            sys.scatter_i32(input, &a, len).unwrap();
            sys.scatter_i32(output, &[-5; 21], len + 2).unwrap();
            let spec = KernelSpec::new(
                DpuKernelKind::Select { len, threshold: 3 },
                vec![input],
                output,
            );
            sys.launch(&spec).unwrap();
            strides.push(sys.gather_i32(output, len + 2).unwrap().0);
        }
        #[rustfmt::skip]
        let want = [
            3, 4, 9, 7, 0, 0, -5,
            0, 0, 0, 0, 0, 0, -5,
            5, 8, 8, 8, 8, 8, -5,
        ];
        assert_eq!(strides[0], want);
        assert_eq!(strides[1], want);
    }

    #[test]
    fn fused_stages_match_separate_elementwise_launches() {
        use crate::{KernelSpec, UpmemConfig, UpmemSystem};
        let (dpus, len) = (4, 8);
        let a: Vec<i32> = (0..(dpus * len) as i32).collect();
        let b: Vec<i32> = (0..len as i32).map(|i| 3 - i).collect();
        // s0 = a + b; s1 = s0 * a; s2 = s1 ^ b
        let stages = [
            (BinOp::Add, FusedArg::Input(0), FusedArg::Input(1)),
            (BinOp::Mul, FusedArg::Stage(0), FusedArg::Input(0)),
            (BinOp::Xor, FusedArg::Stage(1), FusedArg::Input(1)),
        ];
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = dpus;
        let mut sys = UpmemSystem::new(cfg);
        // `a` is per-DPU and tight, `b` replicated: stage 0 takes the loop
        // over DPUs, stage 1 (two tight per-DPU operands) the flat loop.
        let ia = sys.alloc_buffer(len).unwrap();
        let ib = sys.alloc_buffer(len).unwrap();
        sys.scatter_i32(ia, &a, len).unwrap();
        sys.broadcast_i32(ib, &b).unwrap();
        let fused: Vec<_> = (0..3).map(|_| sys.alloc_buffer(len).unwrap()).collect();
        let separate: Vec<_> = (0..3).map(|_| sys.alloc_buffer(len).unwrap()).collect();
        let kind = DpuKernelKind::FusedElementwise {
            stages: stages
                .iter()
                .map(|&(op, lhs, rhs)| FusedStage { op, lhs, rhs })
                .collect(),
            len,
            arity: 2,
        };
        let mut spec = KernelSpec::new(kind, vec![ia, ib], fused[0]);
        spec.extra_outputs = fused[1..].to_vec();
        sys.launch(&spec).unwrap();
        for (s, &(op, lhs, rhs)) in stages.iter().enumerate() {
            let buffer = |arg| match arg {
                FusedArg::Input(i) => [ia, ib][i as usize],
                FusedArg::Stage(t) => separate[t as usize],
            };
            let kind = DpuKernelKind::Elementwise { op, len };
            let spec = KernelSpec::new(kind, vec![buffer(lhs), buffer(rhs)], separate[s]);
            sys.launch(&spec).unwrap();
        }
        for (f, s) in fused.iter().zip(&separate) {
            let (f, _) = sys.gather_i32(*f, len).unwrap();
            let (s, _) = sys.gather_i32(*s, len).unwrap();
            assert_eq!(f, s);
        }
        let (last, _) = sys.gather_i32(fused[2], len).unwrap();
        for (i, &v) in last.iter().enumerate() {
            let (av, bv) = (a[i], b[i % len]);
            assert_eq!(v, av.wrapping_add(bv).wrapping_mul(av) ^ bv);
        }
    }
}
