//! Host reference implementations of every evaluated kernel.
//!
//! These are the "golden" single-threaded implementations used (a) to verify
//! the functional correctness of the code the CINM flow generates for the
//! UPMEM and memristor backends, and (b) as the computation whose operation
//! counts feed the CPU baselines' roofline model.
//!
//! All kernels use two's-complement wrapping arithmetic on `i32`, matching
//! the INT32 data type of the paper's workloads and the device simulators.

/// `C[m×n] = A[m×k] × B[k×n]` (row-major).
///
/// # Panics
///
/// Panics if the input slices do not match the given shapes.
pub fn matmul(a: &[i32], b: &[i32], m: usize, k: usize, n: usize) -> Vec<i32> {
    let mut c = vec![0i32; m * n];
    matmul_into(a, b, m, k, n, &mut c);
    c
}

/// [`matmul`] into `c`, which it overwrites.
///
/// # Panics
///
/// Panics if the slices do not match the given shapes.
pub fn matmul_into(a: &[i32], b: &[i32], m: usize, k: usize, n: usize, c: &mut [i32]) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(c.len(), m * n, "result shape mismatch");
    c.fill(0);
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] = c[i * n + j].wrapping_add(av.wrapping_mul(b[p * n + j]));
            }
        }
    }
}

/// `y[rows] = A[rows×cols] × x[cols]`.
pub fn matvec(a: &[i32], x: &[i32], rows: usize, cols: usize) -> Vec<i32> {
    let mut y = vec![0i32; rows];
    matvec_into(a, x, rows, cols, &mut y);
    y
}

/// [`matvec`] into `y`, which it overwrites.
pub fn matvec_into(a: &[i32], x: &[i32], rows: usize, cols: usize, y: &mut [i32]) {
    assert_eq!(a.len(), rows * cols, "matrix shape mismatch");
    assert_eq!(x.len(), cols, "vector shape mismatch");
    assert_eq!(y.len(), rows, "result shape mismatch");
    if cols == 0 {
        y.fill(0);
        return;
    }
    for (yi, row) in y.iter_mut().zip(a.chunks_exact(cols)) {
        *yi = row.iter().zip(x).fold(0i32, |acc, (&av, &xv)| {
            acc.wrapping_add(av.wrapping_mul(xv))
        });
    }
}

/// Valid-padding, stride-1 2-D convolution in NHWC/HWCF layout:
/// image `n×h×w×c`, filter `kh×kw×c×f`, result `n×(h-kh+1)×(w-kw+1)×f`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_nhwc_hwcf(
    img: &[i32],
    filt: &[i32],
    n: usize,
    h: usize,
    w: usize,
    c: usize,
    kh: usize,
    kw: usize,
    f: usize,
) -> Vec<i32> {
    assert_eq!(img.len(), n * h * w * c, "image shape mismatch");
    assert_eq!(filt.len(), kh * kw * c * f, "filter shape mismatch");
    let oh = h - kh + 1;
    let ow = w - kw + 1;
    let mut out = vec![0i32; n * oh * ow * f];
    for b in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                for of in 0..f {
                    let mut acc = 0i32;
                    for ky in 0..kh {
                        for kx in 0..kw {
                            for ic in 0..c {
                                let iv = img[((b * h + oy + ky) * w + ox + kx) * c + ic];
                                let fv = filt[((ky * kw + kx) * c + ic) * f + of];
                                acc = acc.wrapping_add(iv.wrapping_mul(fv));
                            }
                        }
                    }
                    out[((b * oh + oy) * ow + ox) * f + of] = acc;
                }
            }
        }
    }
    out
}

/// The `im2col` transformation used by the conv→gemm rewrite (Figure 5b):
/// returns a `(n·oh·ow) × (kh·kw·c)` matrix whose rows are flattened patches.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    img: &[i32],
    n: usize,
    h: usize,
    w: usize,
    c: usize,
    kh: usize,
    kw: usize,
) -> Vec<i32> {
    assert_eq!(img.len(), n * h * w * c, "image shape mismatch");
    let oh = h - kh + 1;
    let ow = w - kw + 1;
    let cols = kh * kw * c;
    let mut out = vec![0i32; n * oh * ow * cols];
    let mut row = 0usize;
    for b in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut col = 0usize;
                for ky in 0..kh {
                    for kx in 0..kw {
                        for ic in 0..c {
                            out[row * cols + col] = img[((b * h + oy + ky) * w + ox + kx) * c + ic];
                            col += 1;
                        }
                    }
                }
                row += 1;
            }
        }
    }
    out
}

/// The large contraction of the paper (`contrl`):
/// `C[a,b,c,d] = Σ_{e,f} A[a,e,b,f] · B[d,f,c,e]`.
#[allow(clippy::too_many_arguments)]
pub fn contraction_contrl(
    a: &[i32],
    b: &[i32],
    da: usize,
    db: usize,
    dc: usize,
    dd: usize,
    de: usize,
    df: usize,
) -> Vec<i32> {
    assert_eq!(a.len(), da * de * db * df, "A shape mismatch");
    assert_eq!(b.len(), dd * df * dc * de, "B shape mismatch");
    let mut out = vec![0i32; da * db * dc * dd];
    for ia in 0..da {
        for ib in 0..db {
            for ic in 0..dc {
                for id in 0..dd {
                    let mut acc = 0i32;
                    for ie in 0..de {
                        for if_ in 0..df {
                            let av = a[((ia * de + ie) * db + ib) * df + if_];
                            let bv = b[((id * df + if_) * dc + ic) * de + ie];
                            acc = acc.wrapping_add(av.wrapping_mul(bv));
                        }
                    }
                    out[((ia * db + ib) * dc + ic) * dd + id] = acc;
                }
            }
        }
    }
    out
}

/// The first small contraction (`contrs1`): `C[a,b] = Σ_{c,d} A[a,c,d] · B[d,b,c]`.
pub fn contraction_contrs1(
    a: &[i32],
    b: &[i32],
    da: usize,
    db: usize,
    dc: usize,
    dd: usize,
) -> Vec<i32> {
    assert_eq!(a.len(), da * dc * dd, "A shape mismatch");
    assert_eq!(b.len(), dd * db * dc, "B shape mismatch");
    let mut out = vec![0i32; da * db];
    for ia in 0..da {
        for ib in 0..db {
            let mut acc = 0i32;
            for ic in 0..dc {
                for id in 0..dd {
                    let av = a[(ia * dc + ic) * dd + id];
                    let bv = b[(id * db + ib) * dc + ic];
                    acc = acc.wrapping_add(av.wrapping_mul(bv));
                }
            }
            out[ia * db + ib] = acc;
        }
    }
    out
}

/// The second small contraction (`contrs2`): `C[a,b,c] = Σ_d A[a,c,d] · B[d,b]`.
pub fn contraction_contrs2(
    a: &[i32],
    b: &[i32],
    da: usize,
    db: usize,
    dc: usize,
    dd: usize,
) -> Vec<i32> {
    assert_eq!(a.len(), da * dc * dd, "A shape mismatch");
    assert_eq!(b.len(), dd * db, "B shape mismatch");
    let mut out = vec![0i32; da * db * dc];
    for ia in 0..da {
        for ib in 0..db {
            for ic in 0..dc {
                let mut acc = 0i32;
                for id in 0..dd {
                    let av = a[(ia * dc + ic) * dd + id];
                    let bv = b[id * db + ib];
                    acc = acc.wrapping_add(av.wrapping_mul(bv));
                }
                out[(ia * db + ib) * dc + ic] = acc;
            }
        }
    }
    out
}

/// Element-wise binary operation.
pub fn elementwise(a: &[i32], b: &[i32], op: impl Fn(i32, i32) -> i32) -> Vec<i32> {
    assert_eq!(a.len(), b.len(), "element-wise operands must match");
    a.iter().zip(b).map(|(&x, &y)| op(x, y)).collect()
}

/// Vector addition (the PrIM `va` kernel).
pub fn vector_add(a: &[i32], b: &[i32]) -> Vec<i32> {
    elementwise(a, b, |x, y| x.wrapping_add(y))
}

/// Sum reduction (the PrIM `red` kernel).
pub fn reduce_add(a: &[i32]) -> i32 {
    a.iter().fold(0i32, |acc, &v| acc.wrapping_add(v))
}

/// Histogram with `bins` buckets over values in `[0, max_value)` (the PrIM
/// `hst-l` kernel); negative values land in bin 0.
pub fn histogram(a: &[i32], bins: usize, max_value: i32) -> Vec<i32> {
    let mut out = vec![0i32; bins];
    histogram_into(a, max_value, &mut out);
    out
}

/// [`histogram`] into the bins of `out`, which it overwrites.
pub fn histogram_into(a: &[i32], max_value: i32, out: &mut [i32]) {
    let bins = out.len();
    assert!(bins > 0, "histogram needs at least one bin");
    out.fill(0);
    let max = max_value.max(1) as i64;
    for &v in a {
        let clamped = (v.max(0) as i64).min(max - 1);
        let bin = (clamped * bins as i64 / max) as usize;
        out[bin] += 1;
    }
}

/// Database select: the values strictly greater than `threshold`, in input
/// order (the PrIM `sel` kernel).
pub fn select_gt(a: &[i32], threshold: i32) -> Vec<i32> {
    a.iter().copied().filter(|&v| v > threshold).collect()
}

/// The `k` largest values with their indices, sorted descending by value
/// (ties broken by smaller index first).
pub fn topk(a: &[i32], k: usize) -> (Vec<i32>, Vec<usize>) {
    let mut idx: Vec<usize> = (0..a.len()).collect();
    idx.sort_by(|&i, &j| a[j].cmp(&a[i]).then(i.cmp(&j)));
    idx.truncate(k);
    (idx.iter().map(|&i| a[i]).collect(), idx)
}

/// Time-series distance profile matching the DPU kernel semantics: squared
/// Euclidean distance of every window to the first window.
pub fn time_series_profile(a: &[i32], window: usize) -> Vec<i32> {
    assert!(window > 0 && window <= a.len(), "invalid window");
    let positions = a.len() - window + 1;
    let mut out = vec![0i32; positions];
    for i in 0..positions {
        let mut acc: i64 = 0;
        for j in 0..window {
            let d = a[i + j].wrapping_sub(a[j]) as i64;
            acc = acc.saturating_add(d * d);
        }
        out[i] = acc.min(i32::MAX as i64) as i32;
    }
    out
}

/// One BFS frontier-expansion step over a CSR graph fragment, matching the
/// DPU kernel semantics (destinations are wrapped into the local vertex
/// range).
pub fn bfs_step(row_offsets: &[i32], cols: &[i32], frontier: &[i32], vertices: usize) -> Vec<i32> {
    assert_eq!(
        row_offsets.len(),
        vertices + 1,
        "row offsets shape mismatch"
    );
    assert_eq!(frontier.len(), vertices, "frontier shape mismatch");
    let mut next = vec![0i32; vertices];
    for v in 0..vertices {
        if frontier[v] == 0 {
            continue;
        }
        let start = row_offsets[v] as usize;
        let end = (row_offsets[v + 1] as usize).min(cols.len());
        for e in start..end {
            next[(cols[e] as usize) % vertices] = 1;
        }
    }
    next
}

/// A fully connected layer with bias and optional ReLU:
/// `y[batch×out] = x[batch×in] × Wᵀ[in×out] + bias`, weights given as
/// `out×in` (the TOSA convention).
pub fn fully_connected(
    x: &[i32],
    w: &[i32],
    bias: &[i32],
    batch: usize,
    in_features: usize,
    out_features: usize,
    relu: bool,
) -> Vec<i32> {
    assert_eq!(x.len(), batch * in_features, "input shape mismatch");
    assert_eq!(w.len(), out_features * in_features, "weight shape mismatch");
    assert_eq!(bias.len(), out_features, "bias shape mismatch");
    let mut y = vec![0i32; batch * out_features];
    for b in 0..batch {
        for o in 0..out_features {
            let mut acc = bias[o];
            for i in 0..in_features {
                acc = acc.wrapping_add(x[b * in_features + i].wrapping_mul(w[o * in_features + i]));
            }
            y[b * out_features + o] = if relu { acc.max(0) } else { acc };
        }
    }
    y
}

/// Transposes a row-major `rows×cols` matrix, one 16×16 block at a time so
/// that the strided side of the copy stays in cache.
pub fn transpose(a: &[i32], rows: usize, cols: usize) -> Vec<i32> {
    const BLOCK: usize = 16;
    assert_eq!(a.len(), rows * cols, "matrix shape mismatch");
    let mut out = vec![0i32; rows * cols];
    for r0 in (0..rows).step_by(BLOCK) {
        for c0 in (0..cols).step_by(BLOCK) {
            for r in r0..(r0 + BLOCK).min(rows) {
                for c in c0..(c0 + BLOCK).min(cols) {
                    out[c * rows + r] = a[r * cols + c];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_matches_its_element_definition() {
        for (rows, cols) in [(1, 37), (37, 1), (17, 33), (0, 5)] {
            let a: Vec<i32> = (0..(rows * cols) as i32).map(|i| i * 7 - 100).collect();
            let t = transpose(&a, rows, cols);
            assert_eq!(t.len(), a.len());
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t[c * rows + r], a[r * cols + c], "{rows}x{cols} ({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn matmul_and_matvec_basics() {
        let a = [1, 2, 3, 4]; // 2x2
        let b = [5, 6, 7, 8];
        assert_eq!(matmul(&a, &b, 2, 2, 2), vec![19, 22, 43, 50]);
        assert_eq!(matvec(&a, &[1, 1], 2, 2), vec![3, 7]);
    }

    #[test]
    fn conv_equals_im2col_plus_matmul() {
        // The legality check behind the conv→gemm rewrite of Figure 5.
        let (n, h, w, c, kh, kw, f) = (1, 6, 6, 3, 3, 3, 2);
        let img: Vec<i32> = (0..(n * h * w * c) as i32).map(|i| i % 11 - 5).collect();
        let filt: Vec<i32> = (0..(kh * kw * c * f) as i32).map(|i| i % 7 - 3).collect();
        let direct = conv2d_nhwc_hwcf(&img, &filt, n, h, w, c, kh, kw, f);
        let patches = im2col(&img, n, h, w, c, kh, kw);
        let oh = h - kh + 1;
        let ow = w - kw + 1;
        let gemm = matmul(&patches, &filt, n * oh * ow, kh * kw * c, f);
        assert_eq!(direct, gemm);
    }

    #[test]
    fn contractions_reduce_to_matmul_on_degenerate_shapes() {
        // contrs2 with dc = 1 is exactly a matmul a[da×dd] × b[dd×db].
        let da = 3;
        let db = 4;
        let dd = 5;
        let a: Vec<i32> = (0..(da * dd) as i32).collect();
        let b: Vec<i32> = (0..(dd * db) as i32).collect();
        let contr = contraction_contrs2(&a, &b, da, db, 1, dd);
        let mm = matmul(&a, &b, da, dd, db);
        // contrs2 output is [a,b,c] with c=1 → same linearisation as [a,b].
        assert_eq!(contr, mm);
    }

    #[test]
    fn contraction_shapes_are_checked() {
        let a = vec![0; 2 * 3 * 4];
        let b = vec![0; 4 * 5 * 3];
        let c = contraction_contrs1(&a, &b, 2, 5, 3, 4);
        assert_eq!(c.len(), 10);
        let big_a = vec![1; 2 * 3 * 2 * 2];
        let big_b = vec![1; 2 * 2 * 4 * 3];
        let c = contraction_contrl(&big_a, &big_b, 2, 2, 4, 2, 3, 2);
        assert_eq!(c.len(), 2 * 2 * 4 * 2);
        // All-ones contraction sums de*df terms.
        assert!(c.iter().all(|&v| v == 6));
    }

    #[test]
    fn streaming_kernels() {
        let a = [1, 5, 3, 8, 2, 9, 4, 7];
        let b = [1; 8];
        assert_eq!(vector_add(&a, &b), vec![2, 6, 4, 9, 3, 10, 5, 8]);
        assert_eq!(reduce_add(&a), 39);
        assert_eq!(histogram(&a, 3, 9), vec![2, 3, 3]);
        assert_eq!(select_gt(&a, 4), vec![5, 8, 9, 7]);
        let (vals, idxs) = topk(&a, 3);
        assert_eq!(vals, vec![9, 8, 7]);
        assert_eq!(idxs, vec![5, 3, 7]);
    }

    #[test]
    fn time_series_and_bfs() {
        let ts = time_series_profile(&[1, 2, 3, 4], 2);
        // windows: [1,2] vs [1,2]=0, [2,3] vs [1,2]=2, [3,4] vs [1,2]=8
        assert_eq!(ts, vec![0, 2, 8]);
        let next = bfs_step(&[0, 2, 3, 3], &[1, 2, 0], &[1, 0, 0], 3);
        assert_eq!(next, vec![0, 1, 1]);
    }

    #[test]
    fn fully_connected_with_relu_and_transpose() {
        let x = [1, 2]; // 1x2
        let w = [1, 1, -1, -1]; // 2x2 (out x in)
        let bias = [0, -10];
        let y = fully_connected(&x, &w, &bias, 1, 2, 2, true);
        assert_eq!(y, vec![3, 0]);
        let t = transpose(&[1, 2, 3, 4, 5, 6], 2, 3);
        assert_eq!(t, vec![1, 4, 2, 5, 3, 6]);
    }
}
