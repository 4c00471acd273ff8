//! Property-based tests of the core invariants: workgroup scatter/gather
//! round-trips, affine-map semantics, crossbar MVM exactness,
//! loop-interchange result preservation, and bit-identical equivalence of the
//! flat-slab DPU storage against the retained naive reference path.
//!
//! The crate registry is unreachable in this build environment, so instead of
//! `proptest` the properties are driven by a small deterministic case
//! generator built on the workloads' SplitMix64 PRNG: every test runs a fixed
//! number of randomized cases from fixed seeds, so failures are always
//! reproducible.

use cinm::ir::{AffineExpr, AffineMap};
use cinm::lowering::cnm_op::CnmOp;
use cinm::lowering::{
    CimBackend, CimDevice, CimRunOptions, Cost, Device, UpmemBackend, UpmemDevice, UpmemRunOptions,
};
use cinm::memristor::{CrossbarAccelerator, CrossbarConfig};
use cinm::telemetry::Telemetry;
use cinm::upmem::{
    BinOp, DpuKernelKind, DpuSystem, FusedArg, FusedStage, KernelSpec, LaunchStats,
    NaiveUpmemSystem, TransferStats, UpmemConfig, UpmemSystem, MAX_FUSED_STAGES,
};
use cinm::workloads::data::{self, SplitMix64};
use cpu_sim::kernels;

/// Number of randomized cases per property (mirrors the seed's
/// `ProptestConfig::with_cases(48)`).
const CASES: u64 = 48;

/// Runs `f` once per case with a per-case deterministic PRNG.
fn for_cases(test_seed: u64, mut f: impl FnMut(&mut SplitMix64)) {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(test_seed.wrapping_mul(0x9e37_79b9) + case);
        f(&mut rng);
    }
}

fn gen_usize(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    rng.gen_range_i32(lo as i32, hi as i32) as usize
}

fn small_upmem() -> UpmemBackend {
    upmem_grid(4)
}

fn upmem_grid(dpus: usize) -> UpmemBackend {
    let mut cfg = UpmemConfig::with_ranks(1);
    cfg.dpus_per_rank = dpus;
    UpmemBackend::with_config(cfg, UpmemRunOptions::optimized())
}

/// Grid sizes the shared `CnmOp` lowering table is exercised on: the default
/// four DPUs, a single DPU, a non-power-of-two, and a grid larger than most
/// drawn inputs.
const GRIDS: [usize; 4] = [4, 1, 3, 64];

/// Draws a length covering the table's edge shapes on a grid of `dpus`
/// (`lo` is 0 where empty inputs are legal): the minimum, fewer elements
/// than DPUs, one more than a multiple of the grid, and the generic case.
fn gen_edge_len(rng: &mut SplitMix64, dpus: usize, lo: usize, hi: usize) -> usize {
    match gen_usize(rng, 0, 4) {
        0 => lo,
        1 => gen_usize(rng, lo.max(1), dpus.max(2)),
        2 => dpus * gen_usize(rng, 1, 4) + 1,
        _ => gen_usize(rng, lo.max(1), hi),
    }
}

/// Host reference of the partitioned time-series profile: every chunk is
/// profiled against its own leading window (zero-padded tail).
fn partitioned_time_series(a: &[i32], window: usize, dpus: usize) -> Vec<i32> {
    let chunk = a.len().div_ceil(dpus).max(window);
    let mut padded = a.to_vec();
    padded.resize(chunk * a.len().div_ceil(chunk), 0);
    padded
        .chunks(chunk)
        .flat_map(|part| kernels::time_series_profile(part, window))
        .collect()
}

/// A random BFS step as per-partition CSR fragments for a grid of `dpus`,
/// with its host reference (one golden step per partition).
fn gen_bfs(
    rng: &mut SplitMix64,
    vertices: usize,
    dpus: usize,
) -> (cinm::core::runner::BfsFragments, usize, Vec<i32>) {
    let degree = gen_usize(rng, 1, 4);
    let (row_offsets, cols) = data::csr_graph(rng.next_u64(), vertices, degree);
    let frontier = data::i32_vec(rng.next_u64(), vertices, 0, 2);
    let f =
        cinm::core::runner::bfs_fragments(&row_offsets, &cols, &frontier, vertices, degree, dpus);
    let vp = f.vertices_per_dpu;
    let golden = (0..f.used_dpus)
        .flat_map(|p| {
            kernels::bfs_step(
                &f.rows[p * (vp + 1)..(p + 1) * (vp + 1)],
                &f.cols[p * vp * degree..(p + 1) * vp * degree],
                &f.frontier[p * vp..(p + 1) * vp],
                vp,
            )
        })
        .collect();
    (f, degree, golden)
}

/// The scatter/gather pair of the cnm abstraction is a lossless round-trip
/// for any payload that fits the buffers.
#[test]
fn scatter_gather_roundtrip() {
    for_cases(2, |rng| {
        let len = gen_usize(rng, 1, 512);
        let data = data::i32_vec(rng.next_u64(), len, i32::MIN / 2, i32::MAX / 2);
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 4;
        let mut sys = UpmemSystem::new(cfg);
        let chunk = data.len().div_ceil(sys.num_dpus()).max(1);
        let buf = sys.alloc_buffer(chunk).unwrap();
        sys.scatter_i32(buf, &data, chunk).unwrap();
        let (back, _) = sys.gather_i32(buf, chunk).unwrap();
        assert_eq!(&back[..data.len()], &data[..]);
        // The padding tail is always zero.
        assert!(back[data.len()..].iter().all(|&v| v == 0));
    });
}

/// The affine tiling map assigns every point a valid (tile, offset) pair.
#[test]
fn tiling_affine_map_is_consistent() {
    for_cases(3, |rng| {
        let i = rng.gen_range_i32(0, 10_000) as i64;
        let j = rng.gen_range_i32(0, 10_000) as i64;
        let t0 = rng.gen_range_i32(1, 64) as i64;
        let t1 = rng.gen_range_i32(1, 64) as i64;
        let map = AffineMap::tiling(&[t0, t1]);
        let r = map.eval(&[i, j]);
        assert_eq!(r.len(), 4);
        assert_eq!(r[0] * t0 + r[2], i);
        assert_eq!(r[1] * t1 + r[3], j);
        assert!(r[2] < t0 && r[3] < t1);
    });
}

/// Affine permutation maps are involutive when applied twice with the
/// inverse permutation.
#[test]
fn permutation_roundtrip() {
    for_cases(4, |rng| {
        let v: Vec<i64> = (0..3).map(|_| rng.gen_range_i32(0, 1000) as i64).collect();
        let map = AffineMap::permutation(&[2, 0, 1]);
        let inv = AffineMap::permutation(&[1, 2, 0]);
        let once = map.eval(&v);
        let back = inv.eval(&once);
        assert_eq!(back, v);
        let _ = AffineExpr::dim(0); // keep the import exercised
    });
}

/// The bit-sliced crossbar MVM is exact for arbitrary integer matrices up to
/// the tile geometry. A tile multiplies only the columns it was programmed
/// with: outputs beyond them are zero, and results and `CimStats` equal
/// those of the same matrix programmed at full tile width (explicit zero
/// columns), on the allocating, scratch-writing and batched MVM forms.
#[test]
fn crossbar_mvm_is_exact() {
    for_cases(5, |rng| {
        let cfg = CrossbarConfig::default();
        let (tile_rows, tile_cols) = (cfg.tile_rows, cfg.tile_cols);
        let rows = gen_usize(rng, 1, tile_rows + 1);
        let cols = [1, tile_cols, gen_usize(rng, 1, tile_cols + 1)][gen_usize(rng, 0, 3)];
        let seed = rng.next_u64();
        let w = data::i32_matrix(seed, rows, cols, -100, 100);
        let x = data::i32_vec(seed.wrapping_add(1), rows, -100, 100);
        let mut xbar = CrossbarAccelerator::new(cfg.clone());
        xbar.write_tile(0, &w, rows, cols).unwrap();
        let y = xbar.mvm(0, &x).unwrap();
        assert_eq!(y.len(), tile_cols);
        for c in 0..cols {
            let mut acc = 0i32;
            for r in 0..rows {
                acc = acc.wrapping_add(x[r].wrapping_mul(w[r * cols + c]));
            }
            assert_eq!(y[c], acc);
        }
        assert!(y[cols..].iter().all(|&v| v == 0), "{rows}x{cols}");

        // The scratch-writing forms overwrite stale scratch the same way.
        let mut scratch = vec![-7i32; 2 * tile_cols];
        xbar.mvm_into(0, &x, &mut scratch).unwrap();
        assert_eq!(&scratch[..tile_cols], &y[..]);
        scratch.fill(-7);
        xbar.write_tile(1, &w, rows, cols).unwrap();
        xbar.mvm_parallel_into(&[(0, &x), (1, &x)], &mut scratch)
            .unwrap();
        assert_eq!(&scratch[..tile_cols], &y[..]);
        assert_eq!(&scratch[tile_cols..], &y[..]);

        // Same matrix with its zero columns written out: all of them live.
        let mut wide = vec![0i32; rows * tile_cols];
        for r in 0..rows {
            wide[r * tile_cols..r * tile_cols + cols].copy_from_slice(&w[r * cols..(r + 1) * cols]);
        }
        let mut full = CrossbarAccelerator::new(cfg);
        full.write_tile(0, &wide, rows, tile_cols).unwrap();
        assert_eq!(full.mvm(0, &x).unwrap(), y);
        full.mvm_into(0, &x, &mut scratch).unwrap();
        full.write_tile(1, &wide, rows, tile_cols).unwrap();
        full.mvm_parallel_into(&[(0, &x), (1, &x)], &mut scratch)
            .unwrap();
        assert_eq!(full.stats(), xbar.stats(), "{rows}x{cols}");
    });
}

/// Shift-add recombination of bit-sliced weights is the identity.
#[test]
fn bit_slicing_roundtrip() {
    let xbar = CrossbarAccelerator::new(CrossbarConfig::default());
    for v in [0, 1, -1, 42, -12345, i32::MAX, i32::MIN, 0x7ead_beef] {
        assert_eq!(xbar.shift_add_roundtrip(v), v as i64, "value {v}");
    }
    for_cases(6, |rng| {
        let v = rng.next_u64() as i32;
        assert_eq!(xbar.shift_add_roundtrip(v), v as i64, "value {v}");
    });
}

/// The min-writes loop interchange and tile parallelism never change the
/// GEMM result (they are pure schedule transformations).
#[test]
fn cim_schedules_preserve_results() {
    for_cases(7, |rng| {
        let m = gen_usize(rng, 1, 40);
        let k = gen_usize(rng, 1, 40);
        let n = gen_usize(rng, 1, 40);
        let seed = rng.next_u64();
        let a = data::i32_matrix(seed, m, k, -5, 5);
        let b = data::i32_matrix(seed + 1, k, n, -5, 5);
        let reference = kernels::matmul(&a, &b, m, k, n);
        for opts in [
            CimRunOptions::default(),
            CimRunOptions {
                min_writes: true,
                parallel_tiles: false,
                ..Default::default()
            },
            CimRunOptions::optimized(),
            CimRunOptions::optimized().with_host_threads(3),
        ] {
            let mut be = CimBackend::new(opts);
            assert_eq!(be.gemm(&a, &b, m, k, n), reference);
        }
    });
}

/// The crossbar's planner price is its bill: for gemm and gemv shapes
/// (including no rows, one-column tiles, and `k`/`n` below the tile size or
/// not a multiple of it), all four `{min_writes, parallel_tiles}` schedules
/// and square, non-square and single-tile geometries, the seconds and joules
/// of `CimDevice::cost()` equal the `CimRunStats` totals the backend bills —
/// the crossbar's tile writes and MVMs, the host's command issues and its
/// merge pass. The only slack is f64 summation order (the bill adds one
/// command at a time): relative 1e-12.
#[test]
fn cim_cost_model_prices_what_the_backend_bills() {
    let geometries = [(64, 64, 4), (64, 32, 4), (32, 64, 4), (64, 64, 1)];
    let flags = [(false, false), (true, false), (false, true), (true, true)];
    let close = |priced: f64, billed: f64| (priced - billed).abs() <= 1e-12 * billed.abs();
    // The edges first (no rows, one-column gemms), then random shapes.
    let mut edges = [(false, 0, 64, 64), (true, 0, 30, 1), (false, 9, 20, 1)].into_iter();
    for_cases(41, |rng| {
        let (gemv, m, k, n) = edges.next().unwrap_or_else(|| {
            let gemv = rng.next_u64() % 2 == 0;
            let (m, k) = (gen_usize(rng, 0, 70), gen_usize(rng, 1, 140));
            (gemv, m, k, if gemv { 1 } else { gen_usize(rng, 1, 80) })
        });
        let seed = rng.next_u64();
        let a = data::i32_matrix(seed, m, k, -5, 5);
        let b = data::i32_matrix(seed + 1, k, n, -5, 5);
        for (tile_rows, tile_cols, num_tiles) in geometries {
            for (min_writes, parallel_tiles) in flags {
                let config = CrossbarConfig {
                    tile_rows,
                    tile_cols,
                    num_tiles,
                    ..CrossbarConfig::default()
                };
                let options = CimRunOptions {
                    min_writes,
                    parallel_tiles,
                    ..Default::default()
                };
                let mut device = CimDevice::new(CimBackend::with_config(config, options));
                let cost = device.cost();
                let op = if gemv {
                    CnmOp::Gemv { rows: m, cols: k }
                } else {
                    CnmOp::Gemm { m, k, n }
                };
                let mut c = vec![7; m * n];
                let ran = device.backend_mut().run(op, &[&a, &b], &mut c);
                let what = format!(
                    "{op:?} on {tile_rows}x{tile_cols}x{num_tiles}, \
                     min_writes={min_writes} parallel={parallel_tiles}"
                );
                assert_eq!(ran, Ok(()), "{what}");
                assert_eq!(c, kernels::matmul(&a, &b, m, k, n), "{what}");
                let billed = device.backend().stats();
                let Cost { seconds, joules } = cost.price(op).unwrap();
                assert!(
                    close(seconds, billed.total_seconds()),
                    "{what}: priced {seconds} s, billed {} s",
                    billed.total_seconds()
                );
                assert!(
                    close(joules, billed.total_energy_j()),
                    "{what}: priced {joules} J, billed {} J",
                    billed.total_energy_j()
                );
            }
        }
    });
}

/// The UPMEM grid's planner price is its bill: for every op kind the planner
/// shards, at work sizes 0, 1, fewer units than DPUs, exactly one per DPU
/// and a non-multiple of the DPU count, under the baseline, `cinm-opt` and
/// PrIM code on 1, 4 and 16 ranks, `UpmemDevice::cost()` prices an op at
/// exactly the seconds and joules that running it adds to a fresh device's
/// `SystemStats`, bit for bit. The PrIM-only kernels are not priced.
#[test]
fn cnm_cost_model_prices_what_the_backend_bills() {
    let prim = UpmemRunOptions {
        instruction_overhead: 1.7,
        wram_tile_elems: Some(256),
        ..UpmemRunOptions::optimized()
    };
    let options = [
        UpmemRunOptions::default(),
        UpmemRunOptions::optimized(),
        prim,
    ];
    let (k, n, bins) = (7, 3, 16);
    for ranks in [1, 4, 16] {
        let config = UpmemConfig::with_ranks(ranks);
        let dpus = config.num_dpus();
        for work in [0, 1, dpus / 2 + 1, dpus, 3 * dpus + 5] {
            let a = data::i32_vec(work as u64, work * k, -9, 9);
            let b = data::i32_vec(7, k * n, -9, 9);
            let values = data::i32_vec(work as u64 + 1, work, 0, 64);
            let ops: [(CnmOp, Vec<&[i32]>); 5] = [
                (CnmOp::Gemm { m: work, k, n }, vec![&a, &b]),
                (
                    CnmOp::Gemv {
                        rows: work,
                        cols: k,
                    },
                    vec![&a, &b[..k]],
                ),
                (
                    CnmOp::Elementwise {
                        op: BinOp::Max,
                        len: work,
                    },
                    vec![&a[..work], &values],
                ),
                (
                    CnmOp::Reduce {
                        op: BinOp::Add,
                        len: work,
                    },
                    vec![&values],
                ),
                (
                    CnmOp::Histogram {
                        bins,
                        max_value: 64,
                        len: work,
                    },
                    vec![&values],
                ),
            ];
            for opts in &options {
                for (op, operands) in &ops {
                    let backend = UpmemBackend::with_config(config.clone(), opts.clone());
                    let mut device = UpmemDevice::new(backend);
                    let Cost { seconds, joules } = device.cost().price(*op).unwrap();
                    let before = *device.backend().stats();
                    let mut out = vec![0; op.geometry(1).out_len];
                    device.run(*op, operands, &mut out).unwrap();
                    let after = *device.backend().stats();
                    let what = format!("{op:?} on {ranks} ranks under {opts:?}");
                    let billed = after.total_seconds() - before.total_seconds();
                    assert_eq!(seconds, billed, "{what}: seconds");
                    let billed = after.total_energy_j() - before.total_energy_j();
                    assert_eq!(joules, billed, "{what}: joules");
                }
            }
        }
        let cost = UpmemDevice::new(UpmemBackend::with_config(config, options[1].clone())).cost();
        for op in [
            CnmOp::Select {
                threshold: 0,
                len: 64,
            },
            CnmOp::TimeSeries { window: 4, len: 64 },
            CnmOp::BfsStep {
                vertices_per_dpu: 2,
                avg_degree: 3,
                used_dpus: 4,
            },
        ] {
            assert_eq!(cost.price(op), None, "{op:?}");
        }
    }
}

/// The UPMEM backend's distributed GEMM and GEMV agree with the host
/// reference for arbitrary shapes on every grid size — including no rows,
/// fewer rows than DPUs and row counts the grid does not divide.
#[test]
fn upmem_gemm_is_shape_generic() {
    for_cases(8, |rng| {
        let dpus = GRIDS[gen_usize(rng, 0, GRIDS.len())];
        let m = gen_edge_len(rng, dpus, 0, 48);
        let k = gen_usize(rng, 1, 24);
        let n = gen_usize(rng, 1, 24);
        let seed = rng.next_u64();
        let a = data::i32_matrix(seed, m, k, -6, 6);
        let b = data::i32_matrix(seed + 7, k, n, -6, 6);
        let mut be = upmem_grid(dpus);
        let what = format!("dpus={dpus} m={m} k={k} n={n}");
        assert_eq!(
            be.gemm(&a, &b, m, k, n),
            kernels::matmul(&a, &b, m, k, n),
            "{what}"
        );
        let x = &b[..k];
        assert_eq!(be.gemv(&a, x, m, k), kernels::matvec(&a, x, m, k), "{what}");
    });
}

/// Every streaming op of the lowering table (element-wise, reduce,
/// histogram, select, time series, BFS step) matches its host golden on
/// every grid size — including empty inputs, fewer elements than DPUs and
/// lengths the grid does not divide.
#[test]
fn upmem_reductions_match_host() {
    for_cases(9, |rng| {
        let dpus = GRIDS[gen_usize(rng, 0, GRIDS.len())];
        let len = gen_edge_len(rng, dpus, 0, 400);
        let data = data::i32_vec(rng.next_u64(), len, -1000, 1000);
        let mut be = upmem_grid(dpus);
        let what = format!("dpus={dpus} len={len}");
        assert_eq!(
            be.reduce(BinOp::Add, &data),
            kernels::reduce_add(&data),
            "{what}"
        );
        assert_eq!(
            be.reduce(BinOp::Max, &data),
            data.iter().fold(i32::MIN, |m, &v| m.max(v)),
            "{what}"
        );
        let ones = vec![1i32; data.len()];
        let plus_one = be.elementwise(BinOp::Add, &data, &ones);
        let expected: Vec<i32> = data.iter().map(|&v| v.wrapping_add(1)).collect();
        assert_eq!(plus_one, expected, "{what}");

        let counts = data::i32_vec(rng.next_u64(), len, 0, 128);
        let bins = gen_usize(rng, 1, 17);
        assert_eq!(
            be.histogram(&counts, bins, 128),
            kernels::histogram(&counts, bins, 128),
            "{what} bins={bins}"
        );
        for threshold in [-5, 0, 700] {
            assert_eq!(
                be.select(&data, threshold),
                kernels::select_gt(&data, threshold),
                "{what} threshold={threshold}"
            );
        }
        let window = gen_usize(rng, 1, len.clamp(2, 9));
        assert_eq!(
            be.time_series(&counts, window),
            partitioned_time_series(&counts, window, dpus),
            "{what} window={window}"
        );
        let (f, degree, golden) = gen_bfs(rng, len, dpus);
        assert_eq!(
            be.bfs_step(
                &f.rows,
                &f.cols,
                &f.frontier,
                f.vertices_per_dpu,
                degree,
                f.used_dpus
            ),
            golden,
            "{what} degree={degree}"
        );
    });
}

/// Window differences beyond ±2³⁰ wrap in 32 bits and a window of them
/// saturates its 64-bit sum — in a debug build too, where the plain `i32`
/// subtraction and `i64` addition used to panic — and the eager backend, a
/// session and the host golden agree on the profile.
#[test]
fn time_series_differences_wrap_in_every_build() {
    let a = [
        i32::MIN,
        i32::MAX,
        0,
        -1,
        i32::MAX,
        i32::MIN,
        1 << 30,
        -(1 << 30),
        7,
        i32::MIN,
    ];
    // i32::MAX - i32::MIN wraps to -1: distance 1, not a saturated i32::MAX.
    assert_eq!(kernels::time_series_profile(&a, 1)[..2], [0, 1]);
    // Two differences of -2³¹ (positions 2 and 3 against 0 and 1) sum to 2⁶³.
    assert_eq!(kernels::time_series_profile(&a, 2)[2], i32::MAX);
    for dpus in [1, 4] {
        for window in [1, 2, 3] {
            let golden = partitioned_time_series(&a, window, dpus);
            assert_eq!(
                upmem_grid(dpus).time_series(&a, window),
                golden,
                "dpus={dpus} window={window}"
            );
            let mut sess = cinm::core::Session::new(session_options_on(dpus, true));
            let t = sess.vector(&a);
            let profile = sess.time_series(t, window);
            sess.run().expect("cnm placement");
            assert_eq!(sess.fetch(profile), golden, "dpus={dpus} window={window}");
        }
    }
}

// ---------------------------------------------------------------------------
// Flat-slab vs naive reference equivalence
// ---------------------------------------------------------------------------

/// Picks a random kernel kind with small random shapes, returning the kind
/// plus the required per-DPU input and output buffer lengths.
fn random_kernel(rng: &mut SplitMix64) -> (DpuKernelKind, Vec<usize>, usize) {
    let kind = match gen_usize(rng, 0, 10) {
        // `k` reaches the narrow multiply-accumulate's crossover (16).
        0 => DpuKernelKind::Gemm {
            m: gen_usize(rng, 1, 9),
            k: gen_usize(rng, 1, 25),
            n: gen_usize(rng, 1, 9),
        },
        1 => DpuKernelKind::Gemv {
            rows: gen_usize(rng, 1, 17),
            cols: gen_usize(rng, 1, 17),
        },
        2 => DpuKernelKind::Elementwise {
            op: [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Max][gen_usize(rng, 0, 4)],
            len: gen_usize(rng, 1, 65),
        },
        3 => DpuKernelKind::Reduce {
            op: [BinOp::Add, BinOp::Min, BinOp::Max, BinOp::Xor][gen_usize(rng, 0, 4)],
            len: gen_usize(rng, 1, 65),
        },
        4 => DpuKernelKind::Histogram {
            bins: gen_usize(rng, 1, 17),
            len: gen_usize(rng, 1, 65),
            max_value: rng.gen_range_i32(1, 128),
        },
        5 => DpuKernelKind::Scan {
            op: [BinOp::Add, BinOp::Or, BinOp::And][gen_usize(rng, 0, 3)],
            len: gen_usize(rng, 1, 65),
        },
        6 => DpuKernelKind::Select {
            len: gen_usize(rng, 1, 65),
            threshold: rng.gen_range_i32(-32, 32),
        },
        7 => {
            let window = gen_usize(rng, 1, 9);
            DpuKernelKind::TimeSeries {
                len: window + gen_usize(rng, 0, 32),
                window,
            }
        }
        8 => DpuKernelKind::BfsStep {
            vertices: gen_usize(rng, 1, 17),
            avg_degree: gen_usize(rng, 1, 5),
        },
        _ => {
            // A 1-4-stage chain: every operand is a launch input or the
            // output of an earlier stage.
            let arity = gen_usize(rng, 1, 5);
            let stages = (0..gen_usize(rng, 1, MAX_FUSED_STAGES + 1))
                .map(|s| {
                    let mut arg = || match gen_usize(rng, 0, arity + s) {
                        i if i < arity => FusedArg::Input(i as u8),
                        t => FusedArg::Stage((t - arity) as u8),
                    };
                    let (lhs, rhs) = (arg(), arg());
                    let op = [BinOp::Add, BinOp::Mul, BinOp::Xor, BinOp::Min][gen_usize(rng, 0, 4)];
                    FusedStage { op, lhs, rhs }
                })
                .collect();
            DpuKernelKind::FusedElementwise {
                stages,
                len: gen_usize(rng, 1, 65),
                arity,
            }
        }
    };
    let inputs: Vec<usize> = (0..kind.num_inputs()).map(|i| kind.input_len(i)).collect();
    let out_len = kind.output_len();
    (kind, inputs, out_len)
}

/// Runs one randomized scatter/broadcast → launch* → gather flow on any
/// [`DpuSystem`], returning every observable output: gathered buffers, raw
/// per-DPU buffer contents and the accumulated statistics.
///
/// The storage layout is drawn from `data_seed` (so two systems driven with
/// the same seed see the same flow). A *tight* buffer is exactly as long as
/// the kernel needs and, as an input, scattered; a *loose* one is
/// over-allocated by a pad of 1 or 7 elements and/or, as an input,
/// broadcast — so operands reach the launch tight per-DPU, padded per-DPU
/// and replicated. A third of the flows keep every buffer tight, a third
/// loosen exactly one (the layouts next to the flat fast path), the rest
/// draw each buffer independently; an `Elementwise` launch sometimes writes
/// into its own first input, and a `gemm`'s A sometimes holds all-zero rows.
fn drive_random_flow(
    sys: &mut dyn DpuSystem,
    kind: &DpuKernelKind,
    input_lens: &[usize],
    out_len: usize,
    data_seed: u64,
    launches: usize,
) -> (Vec<Vec<i32>>, cinm::upmem::SystemStats) {
    let rng = &mut SplitMix64::seed_from_u64(data_seed);
    let mode = gen_usize(rng, 0, 3);
    let odd_one = gen_usize(rng, 0, input_lens.len() + kind.num_outputs());
    let loose = |rng: &mut SplitMix64, index: usize| match mode {
        0 => false,
        1 => index == odd_one,
        _ => gen_usize(rng, 0, 2) == 0,
    };
    let mut buffers = Vec::new();
    for (i, &len) in input_lens.iter().enumerate() {
        // (pad, broadcast): a loose input is at least one of the two.
        let (pad, broadcast) = match loose(rng, i) {
            false => (0, false),
            true => [(1, false), (7, false), (0, true), (7, true)][gen_usize(rng, 0, 4)],
        };
        let buf = sys.alloc_buffer(len + pad).unwrap();
        let mut payload = data::i32_vec(data_seed + i as u64, len * sys.num_dpus(), -40, 40);
        if let (0, &DpuKernelKind::Gemm { k, .. }) = (i, kind) {
            // All-zero rows of A, which the grid kernel skips: one inside the
            // data, or every row past the first DPUs' (an op of fewer rows
            // than DPUs).
            let rows = payload.len() / k;
            let zeros = match gen_usize(rng, 0, 3) {
                0 => {
                    let row = gen_usize(rng, 0, rows);
                    row..row + 1
                }
                1 => gen_usize(rng, 0, sys.num_dpus()) * len / k..rows,
                _ => 0..0,
            };
            payload[zeros.start * k..zeros.end * k].fill(0);
        }
        if broadcast {
            sys.broadcast_i32(buf, &payload[..len]).unwrap();
        } else {
            // Sometimes short of the grid: the tail DPUs are zero-filled.
            let short = gen_usize(rng, 0, 2) * (len / 2);
            sys.scatter_i32(buf, &payload[..payload.len() - short], len)
                .unwrap();
        }
        buffers.push(buf);
    }
    let outs: Vec<u32> = (0..kind.num_outputs())
        .map(|s| {
            let pad = match loose(rng, input_lens.len() + s) {
                false => 0,
                true => [1, 7][gen_usize(rng, 0, 2)],
            };
            sys.alloc_buffer(out_len + pad).unwrap()
        })
        .collect();
    let aliased = matches!(kind, DpuKernelKind::Elementwise { .. }) && gen_usize(rng, 0, 3) == 0;
    let out = if aliased { buffers[0] } else { outs[0] };
    let spec =
        KernelSpec::new(kind.clone(), buffers.clone(), out).with_extra_outputs(outs[1..].to_vec());
    for _ in 0..launches {
        sys.launch(&spec).unwrap();
    }
    let observed = buffers
        .iter()
        .zip(input_lens)
        .map(|(&buf, &len)| (buf, len))
        .chain(outs.iter().map(|&buf| (buf, out_len)));
    let mut gathered = Vec::new();
    for (buf, len) in observed {
        // The whole (possibly padded) stride, then the kernel's share of it.
        for chunk in [sys.buffer_len(buf).unwrap(), len] {
            gathered.push(sys.gather_i32(buf, chunk).unwrap().0);
        }
    }
    (gathered, *sys.stats())
}

/// The flat-slab layout produces bit-identical buffers *and* statistics to
/// the retained naive reference path, across randomized shapes, DPU counts,
/// kernel kinds, storage layouts and host-thread counts.
#[test]
fn slab_layout_is_bit_identical_to_the_naive_reference() {
    for_cases(10, |rng| {
        let (kind, input_lens, out_len) = random_kernel(rng);
        let dpus = match gen_usize(rng, 0, 2) {
            0 => gen_usize(rng, 1, 13),
            _ => [1, 3, 64][gen_usize(rng, 0, 3)],
        };
        let launches = gen_usize(rng, 1, 4);
        let threads = [1usize, 2, 3, 5, 8][gen_usize(rng, 0, 5)];
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = dpus;
        // Several storage layouts (and payloads) per kernel and grid.
        for _ in 0..8 {
            let data_seed = rng.next_u64();
            let mut naive = NaiveUpmemSystem::new(cfg.clone());
            let mut slab = UpmemSystem::new(cfg.clone().with_host_threads(threads));

            let (naive_out, naive_stats) =
                drive_random_flow(&mut naive, &kind, &input_lens, out_len, data_seed, launches);
            let (slab_out, slab_stats) =
                drive_random_flow(&mut slab, &kind, &input_lens, out_len, data_seed, launches);

            let what = format!(
                "kind {} dpus {dpus} threads {threads} seed {data_seed}",
                kind.name()
            );
            // Not `assert_eq!`: a mismatch would print every buffer twice.
            assert!(naive_out == slab_out, "{what}: buffers diverged");
            assert_eq!(naive_stats, slab_stats, "{what}: stats diverged");
            // Per-DPU views agree too (exercises the stride indexing directly).
            for d in [0, dpus / 2, dpus - 1] {
                assert_eq!(
                    naive.dpu_buffer(d, 0).unwrap(),
                    slab.dpu_buffer(d, 0).unwrap(),
                    "{what}"
                );
            }
        }
    });
}

/// Every kernel kind is exercised against the naive reference at a fixed
/// grid size (deterministic complement to the randomized equivalence test).
#[test]
fn every_kernel_kind_matches_the_naive_reference() {
    let kinds: Vec<DpuKernelKind> = vec![
        DpuKernelKind::Gemm { m: 4, k: 6, n: 5 },
        DpuKernelKind::Gemv { rows: 9, cols: 7 },
        DpuKernelKind::Elementwise {
            op: BinOp::Mul,
            len: 33,
        },
        DpuKernelKind::Reduce {
            op: BinOp::Add,
            len: 29,
        },
        DpuKernelKind::Histogram {
            bins: 8,
            len: 50,
            max_value: 64,
        },
        DpuKernelKind::Scan {
            op: BinOp::Add,
            len: 21,
        },
        DpuKernelKind::Select {
            len: 40,
            threshold: 3,
        },
        DpuKernelKind::TimeSeries { len: 24, window: 5 },
        DpuKernelKind::BfsStep {
            vertices: 11,
            avg_degree: 2,
        },
        DpuKernelKind::FusedElementwise {
            stages: vec![
                FusedStage {
                    op: BinOp::Sub,
                    lhs: FusedArg::Input(0),
                    rhs: FusedArg::Input(1),
                },
                FusedStage {
                    op: BinOp::Mul,
                    lhs: FusedArg::Stage(0),
                    rhs: FusedArg::Input(0),
                },
                FusedStage {
                    op: BinOp::Max,
                    lhs: FusedArg::Stage(1),
                    rhs: FusedArg::Stage(0),
                },
            ],
            len: 27,
            arity: 2,
        },
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        let mut rng = SplitMix64::seed_from_u64(4242 + i as u64);
        let input_lens: Vec<usize> = (0..kind.num_inputs()).map(|i| kind.input_len(i)).collect();
        let out_len = kind.output_len();
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 8;
        let mut naive = NaiveUpmemSystem::new(cfg.clone());
        let mut slab = UpmemSystem::new(cfg.with_host_threads(3));
        let seed = rng.next_u64();
        let (naive_out, naive_stats) =
            drive_random_flow(&mut naive, &kind, &input_lens, out_len, seed, 2);
        let (slab_out, slab_stats) =
            drive_random_flow(&mut slab, &kind, &input_lens, out_len, seed, 2);
        assert_eq!(naive_out, slab_out, "kind {}", kind.name());
        assert_eq!(naive_stats, slab_stats, "kind {}", kind.name());
    }
}

/// Launches `kind` on a grid whose DPU `d` holds `strides[d]` (all of the
/// kernel's first input length) and every DPU the same `replicated` further
/// inputs (broadcast), into an output buffer pre-filled with garbage, on
/// the naive reference and on the slab system at 1, 2 and 8 host threads.
/// Asserts that every system leaves the same output strides and statistics,
/// and returns the output strides.
fn launch_on_every_system(
    kind: &DpuKernelKind,
    strides: &[Vec<i32>],
    replicated: &[&[i32]],
) -> Vec<Vec<i32>> {
    let (len, out_len) = (kind.input_len(0), kind.output_len());
    let input: Vec<i32> = strides.concat();
    let mut cfg = UpmemConfig::with_ranks(1);
    cfg.dpus_per_rank = strides.len();
    let run = |sys: &mut dyn DpuSystem| {
        let a = sys.alloc_buffer(len).unwrap();
        let out = sys.alloc_buffer(out_len).unwrap();
        sys.scatter_i32(a, &input, len).unwrap();
        let mut inputs = vec![a];
        for data in replicated {
            let b = sys.alloc_buffer(data.len()).unwrap();
            sys.broadcast_i32(b, data).unwrap();
            inputs.push(b);
        }
        sys.scatter_i32(out, &vec![-7; out_len * strides.len()], out_len)
            .unwrap();
        sys.launch(&KernelSpec::new(kind.clone(), inputs, out))
            .unwrap();
        (sys.gather_i32(out, out_len).unwrap().0, *sys.stats())
    };
    let oracle = run(&mut NaiveUpmemSystem::new(cfg.clone()));
    for threads in [1usize, 2, 8] {
        let slab = run(&mut UpmemSystem::new(
            cfg.clone().with_host_threads(threads),
        ));
        assert!(slab == oracle, "{kind:?} at {threads} threads");
    }
    oracle
        .0
        .chunks(out_len.max(1))
        .map(<[i32]>::to_vec)
        .collect()
}

/// The branch-free select writes the whole record: the count, the kept
/// values in input order, then zeros — for all, none, every other and a
/// single element passing.
#[test]
fn select_records_match_the_oracles_at_the_edges() {
    let ramp: Vec<i32> = (0..9).map(|i| i * 3 - 12).collect();
    let cases: [(Vec<Vec<i32>>, i32); 5] = [
        (vec![ramp.clone(), vec![i32::MAX; 9]], i32::MIN),
        (vec![ramp.clone(), vec![i32::MIN; 9]], i32::MAX),
        (vec![(0..9).map(|i| [-1, 1][i % 2]).collect(); 3], 0),
        (vec![vec![5], vec![-5], vec![i32::MAX], vec![i32::MIN]], 0),
        (vec![ramp, (-4..5).collect()], 0),
    ];
    for (strides, threshold) in cases {
        let len = strides[0].len();
        let kind = DpuKernelKind::Select { len, threshold };
        for (stride, record) in strides
            .iter()
            .zip(launch_on_every_system(&kind, &strides, &[]))
        {
            let kept = kernels::select_gt(stride, threshold);
            let mut want = vec![kept.len() as i32];
            want.extend(&kept);
            want.resize(len + 1, 0);
            assert_eq!(record, want, "{stride:?} > {threshold}");
        }
    }
}

/// The reciprocal-multiply histogram bins equal the division on both sides of
/// `bins × max_value = 2³²`, for values below zero, at `max − 1`, at and above
/// `max`, and at the `i32` extremes.
#[test]
fn histogram_bins_match_the_oracles_on_both_sides_of_the_reciprocal_bound() {
    let cases = [
        (256, 1 << 22),
        (1 << 10, 1 << 22),
        ((1 << 10) + 1, 1 << 22),
        (2, i32::MAX),
        (3, i32::MAX),
        (8, i32::MAX),
        (7, 1),
        (5, 0),
        (4, -3),
        (1000, 3),
    ];
    for (bins, max_value) in cases {
        let max = max_value.max(1);
        let edges = vec![
            -5,
            i32::MIN,
            i32::MAX,
            0,
            max - 1,
            max,
            max.saturating_add(1),
            max / 2,
            // The reciprocal bins this one wrong for (8, i32::MAX), past 2³².
            1_879_048_191,
        ];
        let mut rng = SplitMix64::seed_from_u64(bins as u64 ^ max as u64);
        let random: Vec<i32> = (0..9).map(|_| rng.gen_range_i32(0, max)).collect();
        let kind = DpuKernelKind::Histogram {
            bins,
            len: 9,
            max_value,
        };
        let strides = [edges, random];
        for (stride, hist) in strides
            .iter()
            .zip(launch_on_every_system(&kind, &strides, &[]))
        {
            assert_eq!(
                hist,
                kernels::histogram(stride, bins, max_value),
                "bins={bins} max_value={max_value} {stride:?}"
            );
        }
    }
}

/// The plain-`i32` time-series sums equal the saturating ones: window 1 and
/// window = len, strides just inside and just outside `window × spread² ≤
/// i32::MAX`, and strides whose sums saturate.
#[test]
fn time_series_profiles_match_the_oracles_on_both_sides_of_the_exact_bound() {
    // 4 × 23 170² ≤ i32::MAX < 4 × 23 171².
    let (inside, outside) = (23_170, 23_171);
    let strides = vec![
        vec![0, 0, 0, 0, inside, inside, inside, inside],
        vec![0, 0, 0, 0, outside, outside, outside, outside],
        vec![-64, 63, 0, -1, 17, -64, 63, 5],
        vec![
            i32::MIN,
            i32::MAX,
            0,
            -1,
            i32::MAX,
            i32::MIN,
            1 << 30,
            -(1 << 30),
        ],
    ];
    for window in [1, 4, 8] {
        let kind = DpuKernelKind::TimeSeries { len: 8, window };
        for (stride, profile) in strides
            .iter()
            .zip(launch_on_every_system(&kind, &strides, &[]))
        {
            assert_eq!(
                profile,
                kernels::time_series_profile(stride, window),
                "window={window} {stride:?}"
            );
        }
    }
}

/// Rows of `len` elements at the edges of `i16`: a row that fits, with both
/// extremes −32768 and 32767 among small values; a row of −32768 only, whose
/// products with another such row pair up to 2³¹ and must wrap; and rows
/// that mix narrow and wide values — one value outside `i16` at the front,
/// middle or back of a fitting row. Each wide value sits among fitting
/// values of its own sign only (−32769 and `i32::MIN` next to −32768, 32768
/// and `i32::MAX` next to 32767), so a fit bound off by one towards it
/// accepts the whole row.
fn i16_edge_rows(len: usize) -> Vec<Vec<i32>> {
    let row = |lanes: [i32; 7]| -> Vec<i32> { (0..len).map(|i| lanes[i % 7]).collect() };
    let (low, high) = (
        row([-32768, -3, 5, 0, 1, -1, 2]),
        row([32767, -3, 5, 0, 1, -1, 2]),
    );
    let mut rows = vec![row([-32768, 32767, -3, 5, 0, 1, -1]), vec![-32768; len]];
    if len > 0 {
        for (base, wide, at) in [
            (&low, -32769, 0),
            (&high, 32768, len / 2),
            (&low, i32::MIN, len - 1),
            (&high, i32::MAX, 0),
        ] {
            let mut mixed = base.clone();
            mixed[at] = wide;
            rows.push(mixed);
        }
    }
    rows
}

/// A `k × n` matrix whose every row and column cycles through `row`.
fn cycled(row: &[i32], k: usize, n: usize) -> Vec<i32> {
    (0..k * n).map(|i| row[(i / n + i % n) % k]).collect()
}

/// The exact narrow multiply-accumulate of the UPMEM `gemm` and `gemv`
/// equals the naive reference and the `cpu_sim` golden at the `i16` edges
/// ([`i16_edge_rows`] as the rows of `A` — two per DPU, so every DPU mixes
/// two kinds — and as the broadcast `B`/`x`), at 1, 2 and 8 host threads.
/// The row lengths sit on both sides of the two crossovers (`gemm` narrow
/// from `k` = 16, `gemv` from 40), on and off whole 8-element groups, and at
/// zero. The mutations each case kills: −32769 a fit offset of `0x8001`,
/// 32768 one of `0x7fff`, `i32::MIN`/`i32::MAX` a fit test that reads only
/// bits 16–23, a wide value at the front a `gemv` fit test that keeps only
/// the last element's bits, wide `A` rows a `gemm` that tests only `B`, the
/// all −32768 rows a saturating dot product, `k` = 17, 31, 41 and 47 a dot
/// product that drops the elements after the last whole group of eight,
/// `n` = 3 an untransposed `B`, and `k` = 0 a crossover of zero (a
/// zero-length column cannot be split off).
#[test]
fn narrow_gemm_and_gemv_match_the_oracles_at_the_i16_edges() {
    let (m, n) = (2, 3);
    for k in [0, 1, 15, 16, 17, 31, 39, 40, 41, 47] {
        let rows = i16_edge_rows(k);
        let strides: Vec<Vec<i32>> = (0..rows.len())
            .map(|d| [&rows[d][..], &rows[(d + 1) % rows.len()][..]].concat())
            .collect();
        for rhs in &rows {
            let b = cycled(rhs, k, n);
            let kinds = [
                (DpuKernelKind::Gemm { m, k, n }, &b[..]),
                (DpuKernelKind::Gemv { rows: m, cols: k }, &rhs[..]),
            ];
            for (kind, operand) in kinds {
                let outputs = launch_on_every_system(&kind, &strides, &[operand]);
                for (a, out) in strides.iter().zip(outputs) {
                    let product = match kind {
                        DpuKernelKind::Gemm { .. } => kernels::matmul(a, &b, m, k, n),
                        _ => kernels::matvec(a, rhs, m, k),
                    };
                    let want: Vec<i32> = product.iter().map(|v| v.wrapping_add(-7)).collect();
                    assert_eq!(out, want, "{kind:?}: {a:?} x {operand:?}");
                }
            }
        }
    }
}

/// The crossbar's narrow MVMs equal the `cpu_sim` golden at the `i16` edges
/// ([`i16_edge_rows`] as the rows of `A` and as the stationary operand), at
/// 1, 2 and 8 host threads, on tiles one column wide (below the narrow
/// crossover of two columns: no `i16` copy), two, 16 and 64, with inputs on
/// both sides of the narrow crossover of 16 rows, on and off whole 8-element
/// groups; an empty input multiplies to zeros. The mutations each case
/// kills: −32769 and 32768 a fit offset off by one, `i32::MIN`/`i32::MAX` a
/// fit test that reads only bits 16–23, wide weights an `i16` copy
/// programmed without the fit test, wide rows of `A` an MVM that skips the
/// input's fit test, the all −32768 rows a saturating dot product, `k` = 17
/// and 31 a dot product that drops the elements after the last whole group
/// of eight, and two or more columns an `i16` copy stored row-major.
#[test]
fn narrow_crossbar_mvms_match_the_golden_at_the_i16_edges() {
    for n in [1, 2, 16, 64] {
        for k in [1, 15, 16, 17, 31, 64] {
            let rows = i16_edge_rows(k);
            let (a, m) = (rows.concat(), rows.len());
            for rhs in &rows {
                let b = cycled(rhs, k, n);
                let (gemm, gemv) = (
                    kernels::matmul(&a, &b, m, k, n),
                    kernels::matvec(&a, rhs, m, k),
                );
                for threads in [1usize, 2, 8] {
                    let mut be =
                        CimBackend::new(CimRunOptions::optimized().with_host_threads(threads));
                    let case = format!("n={n} k={k} threads={threads} B from {rhs:?}");
                    assert_eq!(be.gemm(&a, &b, m, k, n), gemm, "{case}");
                    assert_eq!(be.gemv(&a, rhs, m, k), gemv, "{case}");
                }
            }
        }
    }
    let mut xbar = CrossbarAccelerator::new(CrossbarConfig::default());
    xbar.write_tile(0, &[-32768, 32767, 3, -4], 2, 2).unwrap();
    assert!(xbar.mvm(0, &[]).unwrap().iter().all(|&v| v == 0));
}

/// Narrow tiles (column-major, one dot product per column) and wide ones
/// (row-major saxpy) multiply bit-identically to the host golden, on both
/// sides of the layout crossover and with zero inputs, at 1, 2 and 8 host
/// threads.
#[test]
fn crossbar_tiles_of_every_width_match_the_golden() {
    let (m, k) = (9, 70);
    let a: Vec<i32> = (0..m * k)
        .map(|i| match (i / k, i % 3) {
            (4, _) | (_, 0) => 0,
            _ => (i as i32 * 7) % 23 - 11,
        })
        .collect();
    for n in [1, 7, 8, 9, 15, 16, 64, 70] {
        let b = data::i32_matrix(n as u64, k, n, -9, 9);
        let golden = kernels::matmul(&a, &b, m, k, n);
        for threads in [1usize, 2, 8] {
            let mut be = CimBackend::new(CimRunOptions::optimized().with_host_threads(threads));
            assert_eq!(be.gemm(&a, &b, m, k, n), golden, "n={n} threads={threads}");
        }
    }
}

/// The UPMEM backend produces identical results and simulated statistics for
/// any host-thread count (the knob only changes simulator wall-clock time).
#[test]
fn backend_results_are_invariant_under_host_threads() {
    for_cases(11, |rng| {
        let m = gen_usize(rng, 1, 32);
        let k = gen_usize(rng, 1, 16);
        let n = gen_usize(rng, 1, 16);
        let seed = rng.next_u64();
        let a = data::i32_matrix(seed, m, k, -6, 6);
        let b = data::i32_matrix(seed + 1, k, n, -6, 6);
        let run = |threads: usize| {
            let mut cfg = UpmemConfig::with_ranks(1);
            cfg.dpus_per_rank = 4;
            let mut be = UpmemBackend::with_config(
                cfg,
                UpmemRunOptions::optimized().with_host_threads(threads),
            );
            let c = be.gemm(&a, &b, m, k, n);
            (c, *be.stats())
        };
        let (ref_c, ref_stats) = run(1);
        for threads in [2usize, 4, 0] {
            let (c, stats) = run(threads);
            assert_eq!(c, ref_c, "threads = {threads}");
            assert_eq!(stats, ref_stats, "threads = {threads}");
        }
    });
}

/// Attaching a telemetry registry is observationally transparent: with and
/// without one, runs produce bit-identical buffers and bit-identical
/// simulated statistics (including the modeled joules) on both the DPU grid
/// and the crossbar, across randomized kernels, shapes and launch counts.
#[test]
fn telemetry_is_observationally_transparent() {
    for_cases(12, |rng| {
        let (kind, input_lens, out_len) = random_kernel(rng);
        let dpus = gen_usize(rng, 1, 9);
        let data_seed = rng.next_u64();
        let launches = gen_usize(rng, 1, 3);

        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = dpus;
        let mut plain = UpmemSystem::new(cfg.clone());
        let mut metered = UpmemSystem::new(cfg.with_telemetry(Telemetry::new()));

        let (plain_out, plain_stats) =
            drive_random_flow(&mut plain, &kind, &input_lens, out_len, data_seed, launches);
        let (metered_out, metered_stats) = drive_random_flow(
            &mut metered,
            &kind,
            &input_lens,
            out_len,
            data_seed,
            launches,
        );
        assert_eq!(plain_out, metered_out, "kind {}", kind.name());
        assert_eq!(
            plain_stats,
            metered_stats,
            "kind {} stats diverged",
            kind.name()
        );

        // The CIM side of the same property: tile writes and MVMs.
        let rows = gen_usize(rng, 1, 12);
        let cols = gen_usize(rng, 1, 12);
        let w = data::i32_matrix(data_seed.wrapping_add(7), rows, cols, -50, 50);
        let x = data::i32_vec(data_seed.wrapping_add(8), rows, -50, 50);
        let mut xbar_plain = CrossbarAccelerator::new(CrossbarConfig::default());
        let mut xbar_metered =
            CrossbarAccelerator::new(CrossbarConfig::default().with_telemetry(Telemetry::new()));
        for xbar in [&mut xbar_plain, &mut xbar_metered] {
            xbar.write_tile(0, &w, rows, cols).unwrap();
        }
        assert_eq!(
            xbar_plain.mvm(0, &x).unwrap(),
            xbar_metered.mvm(0, &x).unwrap()
        );
        assert_eq!(xbar_plain.stats(), xbar_metered.stats());
    });
}

// ---------------------------------------------------------------------------
// Eager host programs vs the naive oracle
// ---------------------------------------------------------------------------

/// One host-runtime call of a randomized program.
#[derive(Debug, Clone)]
enum HostCall {
    Scatter(u32, Vec<i32>, usize),
    Broadcast(u32, Vec<i32>),
    Launch(KernelSpec),
    Gather(u32, usize),
}

/// What one [`HostCall`] returned.
#[derive(Debug, Clone, PartialEq)]
enum CallOutput {
    Transfer(TransferStats),
    Launch(LaunchStats),
    Gather(Vec<i32>, TransferStats),
}

/// Randomized host program over a small buffer pool: interleaved
/// scatter/broadcast/launch/gather calls, including launches whose output
/// aliases an input, so every ordering between two calls on one buffer
/// (read after write, write after read, write after write) occurs.
///
/// Returns the per-buffer lengths and the program.
fn random_program(rng: &mut SplitMix64) -> (Vec<usize>, Vec<HostCall>) {
    let (kind, input_lens, out_len) = random_kernel(rng);
    // Buffer pool: the kernel inputs, its outputs (one per fused stage), and
    // one spare of the same length as the output (gives scatters/gathers
    // unrelated targets).
    let mut buffer_lens = input_lens.clone();
    let out_buf = input_lens.len() as u32;
    let extra_outs: Vec<u32> = (1..kind.num_outputs() as u32)
        .map(|s| out_buf + s)
        .collect();
    buffer_lens.resize(buffer_lens.len() + kind.num_outputs() + 1, out_len);

    // An aliased variant writes into one of its own inputs when the shapes
    // allow it (input long enough to hold the output) and the kind does (a
    // fused launch is validated alias-free).
    let alias_candidate = input_lens
        .iter()
        .position(|&len| len >= out_len)
        .filter(|_| {
            extra_outs.is_empty() && !matches!(kind, DpuKernelKind::FusedElementwise { .. })
        })
        .map(|i| i as u32);

    let inputs: Vec<u32> = (0..input_lens.len() as u32).collect();
    let n_calls = 4 + gen_usize(rng, 0, 8);
    let mut program = Vec::new();
    for _ in 0..n_calls {
        let buf = gen_usize(rng, 0, buffer_lens.len()) as u32;
        let len = buffer_lens[buf as usize];
        program.push(match gen_usize(rng, 0, 6) {
            // Deliberately sometimes shorter / longer than the grid needs,
            // exercising zero padding.
            0 => HostCall::Scatter(
                buf,
                data::i32_vec(rng.next_u64(), gen_usize(rng, 0, 4 * len + 2), -40, 40),
                gen_usize(rng, 0, len + 1),
            ),
            1 => HostCall::Broadcast(
                buf,
                data::i32_vec(rng.next_u64(), gen_usize(rng, 0, len + 1), -40, 40),
            ),
            2 => HostCall::Gather(buf, gen_usize(rng, 0, len + 1)),
            // Aliased launch: output is one of the inputs (RAW + WAW on the
            // same buffer inside one call).
            3 if alias_candidate.is_some() && gen_usize(rng, 0, 2) == 0 => HostCall::Launch(
                KernelSpec::new(kind.clone(), inputs.clone(), alias_candidate.unwrap()),
            ),
            _ => HostCall::Launch(
                KernelSpec::new(kind.clone(), inputs.clone(), out_buf)
                    .with_extra_outputs(extra_outs.clone()),
            ),
        });
    }
    // Always end with a gather of every buffer so the final state is fully
    // observable through call outputs alone.
    for (b, &len) in buffer_lens.iter().enumerate() {
        program.push(HostCall::Gather(b as u32, len));
    }
    (buffer_lens, program)
}

/// Applies a host program, one call at a time, to the given system.
fn run_program(sys: &mut dyn DpuSystem, program: &[HostCall]) -> Vec<CallOutput> {
    program
        .iter()
        .map(|call| match call {
            HostCall::Scatter(buffer, data, chunk) => {
                CallOutput::Transfer(sys.scatter_i32(*buffer, data, *chunk).unwrap())
            }
            HostCall::Broadcast(buffer, data) => {
                CallOutput::Transfer(sys.broadcast_i32(*buffer, data).unwrap())
            }
            HostCall::Launch(spec) => CallOutput::Launch(sys.launch(spec).unwrap()),
            HostCall::Gather(buffer, chunk) => {
                let (data, t) = sys.gather_i32(*buffer, *chunk).unwrap();
                CallOutput::Gather(data, t)
            }
        })
        .collect()
}

/// An untimed host-side operation applied between two calls of a program.
enum HostOp {
    /// `zero_buffer` (the naive oracle has none: it frees and re-allocates,
    /// which yields the same id with fresh zero contents).
    Zero(u32),
    /// `free_buffer` followed by `alloc_buffer` of the same length, which
    /// must hand the freed id back.
    Realloc(u32),
    /// Carry on on a `fault_free_clone` of the system.
    Clone,
}

/// Draws up to three host operations at sorted positions of a program of
/// `n_calls` calls over `n_bufs` buffers.
fn gen_host_ops(rng: &mut SplitMix64, n_calls: usize, n_bufs: usize) -> Vec<(usize, HostOp)> {
    let mut ops: Vec<(usize, HostOp)> = (0..gen_usize(rng, 0, 4))
        .map(|_| {
            let buf = gen_usize(rng, 0, n_bufs) as u32;
            let op = match gen_usize(rng, 0, 3) {
                0 => HostOp::Zero(buf),
                1 => HostOp::Realloc(buf),
                _ => HostOp::Clone,
            };
            (gen_usize(rng, 0, n_calls + 1), op)
        })
        .collect();
    ops.sort_by_key(|(at, _)| *at);
    ops
}

/// Runs `program` in the segments the host operations cut it into, applying
/// each operation with `host` in between.
fn run_with_host_ops<S: DpuSystem>(
    sys: &mut S,
    program: &[HostCall],
    host_ops: &[(usize, HostOp)],
    mut host: impl FnMut(&mut S, &HostOp),
) -> Vec<CallOutput> {
    let mut outputs = Vec::new();
    let mut done = 0;
    for (at, op) in host_ops {
        outputs.extend(run_program(sys, &program[done..*at]));
        done = *at;
        host(sys, op);
    }
    outputs.extend(run_program(sys, &program[done..]));
    outputs
}

/// `UpmemSystem` produces bit-identical buffers, outputs *and* statistics to
/// the `NaiveUpmemSystem` oracle, across randomized interleaved programs
/// with aliasing buffers and thread counts {1, 2, 8}, with buffers zeroed,
/// freed and re-allocated and the system swapped for its `fault_free_clone`
/// mid-program (so every storage form a slab can be in meets every call).
#[test]
fn eager_upmem_system_is_bit_identical_to_the_naive_oracle() {
    for_cases(12, |rng| {
        let (buffer_lens, program) = random_program(rng);
        let dpus = gen_usize(rng, 1, 9);
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = dpus;
        let n_calls = program.len() - buffer_lens.len();
        let host_ops = gen_host_ops(rng, n_calls, buffer_lens.len());

        let mut naive = NaiveUpmemSystem::new(cfg.clone());
        for &len in &buffer_lens {
            naive.alloc_buffer(len).unwrap();
        }
        let oracle = run_with_host_ops(&mut naive, &program, &host_ops, |naive, op| match op {
            HostOp::Zero(b) | HostOp::Realloc(b) => {
                naive.free_buffer(*b).unwrap();
                let again = naive.alloc_buffer(buffer_lens[*b as usize]).unwrap();
                assert_eq!(again, *b);
            }
            HostOp::Clone => {}
        });

        for threads in [1usize, 2, 8] {
            let mut sys = UpmemSystem::new(cfg.clone().with_host_threads(threads));
            for &len in &buffer_lens {
                sys.alloc_buffer(len).unwrap();
            }
            let outputs = run_with_host_ops(&mut sys, &program, &host_ops, |sys, op| match op {
                HostOp::Zero(b) => sys.zero_buffer(*b).unwrap(),
                HostOp::Realloc(b) => {
                    sys.free_buffer(*b).unwrap();
                    assert!(sys.buffer_len(*b).is_err(), "a freed id is unknown");
                    let again = sys.alloc_buffer(buffer_lens[*b as usize]).unwrap();
                    assert_eq!(again, *b, "freed ids are reused");
                }
                HostOp::Clone => *sys = sys.fault_free_clone(),
            });
            let what = format!("threads {threads}, dpus {dpus}");
            assert_eq!(outputs, oracle, "{what}");
            assert_eq!(sys.stats(), naive.stats(), "stats diverged at {what}");
            assert_eq!(sys.mram_used_bytes(), naive.mram_used_bytes(), "{what}");
            // Raw per-DPU views agree too.
            for b in 0..buffer_lens.len() as u32 {
                for d in [0, dpus - 1] {
                    assert_eq!(
                        naive.dpu_buffer(d, b).unwrap(),
                        sys.dpu_buffer(d, b).unwrap(),
                        "buffer {b} dpu {d} {what}"
                    );
                }
            }
        }
    });
}

/// One command is the unit of fault atomicity: every command the eager
/// back-ends issue validates and draws its faults before it mutates
/// anything, so retrying each one in place recovers exactly the fault-free
/// run. Randomized transient schedules — launch and transfer faults up to
/// 10 % on the UPMEM grid, tile-write and MVM faults on the crossbar — over
/// every streaming and dense UPMEM op and the crossbar GEMM/GEMV in all four
/// `min_writes` × `parallel_tiles` configurations: results *and* simulated
/// statistics equal a fault-free backend's, and the sweep really retried.
#[test]
fn every_eager_command_is_atomic_under_transient_faults() {
    use cinm::runtime::{FaultConfig, RetryPolicy};
    // Room for the longest band (40 rows here, one fault draw each) to get
    // through; the budget only changes the recovery counters.
    let patient = RetryPolicy {
        max_attempts: 256,
        ..RetryPolicy::default()
    };
    let mut retries = 0;
    for_cases(29, |rng| {
        let percent = |rng: &mut SplitMix64, hi: usize| gen_usize(rng, 0, hi + 1) as f64 / 100.0;
        let upmem_fault = FaultConfig::seeded(rng.next_u64())
            .with_launch_fault_rate(percent(rng, 10))
            .with_transfer_timeout_rate(percent(rng, 5))
            .with_transfer_corruption_rate(percent(rng, 5));
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = GRIDS[gen_usize(rng, 0, GRIDS.len())];
        let mut clean = UpmemBackend::with_config(cfg.clone(), UpmemRunOptions::optimized());
        let mut faulty =
            UpmemBackend::with_config(cfg.with_fault(upmem_fault), UpmemRunOptions::optimized());
        faulty.set_retry_policy(patient);

        let (m, k, n) = (
            gen_usize(rng, 1, 20),
            gen_usize(rng, 1, 20),
            gen_usize(rng, 1, 20),
        );
        let a = data::i32_vec(rng.next_u64(), m * k, -20, 20);
        let b = data::i32_vec(rng.next_u64(), k * n, -20, 20);
        let v = data::i32_vec(rng.next_u64(), gen_usize(rng, 1, 300), -60, 60);
        let w = data::i32_vec(rng.next_u64(), v.len(), -60, 60);
        let window = gen_usize(rng, 1, v.len().min(8) + 1);
        let upmem_ops = |be: &mut UpmemBackend| {
            vec![
                be.gemm(&a, &b, m, k, n),
                be.gemv(&a, &b[..k], m, k),
                be.elementwise(BinOp::Sub, &v, &w),
                vec![be.reduce(BinOp::Add, &v)],
                be.histogram(&v, 7, 64),
                be.select(&v, 3),
                be.time_series(&v, window),
            ]
        };
        let want = upmem_ops(&mut clean);
        assert_eq!(upmem_ops(&mut faulty), want, "upmem results");
        assert_eq!(faulty.stats(), clean.stats(), "upmem statistics");
        retries += faulty.fault_stats().transient_retries;

        // Several 64×64 tiles in each direction, and bands of up to 40 rows.
        let xbar_fault = FaultConfig::seeded(rng.next_u64())
            .with_transfer_timeout_rate(percent(rng, 3))
            .with_transfer_corruption_rate(percent(rng, 2));
        let (m, k, n) = (
            gen_usize(rng, 1, 41),
            gen_usize(rng, 1, 150),
            gen_usize(rng, 1, 150),
        );
        let a = data::i32_vec(rng.next_u64(), m * k, -20, 20);
        let b = data::i32_vec(rng.next_u64(), k * n, -20, 20);
        for (min_writes, parallel_tiles) in
            [(false, false), (true, false), (false, true), (true, true)]
        {
            let opts = CimRunOptions {
                min_writes,
                parallel_tiles,
                ..Default::default()
            };
            let mut clean = CimBackend::new(opts.clone());
            let mut faulty = CimBackend::with_config(
                CrossbarConfig::default().with_fault(xbar_fault.clone()),
                opts,
            );
            faulty.set_retry_policy(patient);
            let cim_ops =
                |be: &mut CimBackend| [be.gemm(&a, &b, m, k, n), be.gemv(&a, &b[..k], m, k)];
            let what = format!("min_writes {min_writes}, parallel_tiles {parallel_tiles}");
            assert_eq!(
                cim_ops(&mut faulty),
                cim_ops(&mut clean),
                "cim results, {what}"
            );
            assert_eq!(faulty.stats(), clean.stats(), "cim statistics, {what}");
            retries += faulty.fault_stats().transient_retries;
        }
    });
    assert!(retries > 0, "the schedules should inject transient faults");
}

#[test]
fn kernel_spec_validation_is_deterministic() {
    // Not a property, but keeps the file self-contained: a spec with the
    // wrong arity must always panic.
    let result = std::panic::catch_unwind(|| {
        KernelSpec::new(DpuKernelKind::Gemm { m: 2, k: 2, n: 2 }, vec![0], 1)
    });
    assert!(result.is_err());
}

// ---------------------------------------------------------------------------
// Heterogeneous sharded execution (ShardedBackend vs the host goldens)
// ---------------------------------------------------------------------------

/// A sharded backend on a small grid sharing one pool with its devices.
fn small_sharded(pool: &cinm::runtime::PoolHandle) -> cinm::lowering::ShardedBackend {
    let mut cfg = UpmemConfig::with_ranks(1);
    cfg.dpus_per_rank = 4;
    cinm::lowering::ShardedBackend::with_upmem_config(
        cfg,
        cinm::lowering::ShardedRunOptions::default()
            .with_ranks(1)
            .with_pool(pool.clone()),
    )
}

/// A random three-way split of `total` work units (any device may get zero).
fn gen_split(rng: &mut SplitMix64, total: usize) -> cinm::lowering::ShardSplit {
    let a = gen_usize(rng, 0, total + 1).min(total);
    let b = gen_usize(rng, 0, total + 1).min(total);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    cinm::lowering::ShardSplit {
        cnm: lo,
        cim: hi - lo,
        host: total - hi,
    }
}

/// A random two-way (CNM/host) split for ops the crossbar cannot execute.
fn gen_split_no_cim(rng: &mut SplitMix64, total: usize) -> cinm::lowering::ShardSplit {
    let cnm = gen_usize(rng, 0, total + 1).min(total);
    cinm::lowering::ShardSplit {
        cnm,
        cim: 0,
        host: total - cnm,
    }
}

/// Runs `case` on a fresh sharded backend over a pool of one worker and over
/// a pool of three, and asserts the simulated-clock statistics agree: with
/// one worker most shards of a dispatch run on the dispatching thread, with
/// three each can have its own, and neither may change what is accounted.
fn on_pools_of_1_and_3(case: impl Fn(&mut cinm::lowering::ShardedBackend)) {
    let [narrow, wide] = [1, 3].map(|workers| {
        let pool = cinm::runtime::PoolHandle::with_threads(workers);
        let mut be = small_sharded(&pool);
        case(&mut be);
        let stats = be.stats();
        // Work fractions always cover the dispatched work.
        let f = stats.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{f:?}");
        (stats.work, stats.sim_seconds, stats.sim_makespan_seconds)
    });
    assert_eq!(narrow, wide, "1 vs 3 workers");
}

/// Sharded GEMM/GEMV are bit-identical to the golden host kernels for any
/// shape and any three-way split, including empty shards, wherever each
/// shard ran.
#[test]
fn sharded_matmul_matches_golden_over_randomized_shapes_and_fractions() {
    for_cases(21, |rng| {
        let m = gen_usize(rng, 1, 48);
        let k = gen_usize(rng, 1, 24);
        let n = gen_usize(rng, 1, 20);
        let a = data::i32_vec(rng.next_u64(), m * k, -9, 9);
        let b = data::i32_vec(rng.next_u64(), k * n, -9, 9);
        let split = gen_split(rng, m);
        let x = data::i32_vec(rng.next_u64(), k, -9, 9);
        let vsplit = gen_split(rng, m);
        on_pools_of_1_and_3(|be| {
            let c = be.gemm(&a, &b, m, k, n, &split).unwrap();
            assert_eq!(
                c,
                kernels::matmul(&a, &b, m, k, n),
                "gemm {m}x{k}x{n} {split:?}"
            );
            let y = be.gemv(&a, &x, m, k, &vsplit).unwrap();
            assert_eq!(y, kernels::matvec(&a, &x, m, k), "gemv {m}x{k} {vsplit:?}");
        });
    });
}

/// Sharded element-wise/reduce/histogram ops are bit-identical to the
/// goldens for any length and any CNM/host split, wherever each shard ran.
#[test]
fn sharded_streaming_ops_match_golden_over_randomized_splits() {
    for_cases(22, |rng| {
        let len = gen_usize(rng, 1, 700);
        let a = data::i32_vec(rng.next_u64(), len, -100, 400);
        let b = data::i32_vec(rng.next_u64(), len, -100, 400);
        let split = gen_split_no_cim(rng, len);
        let bins = gen_usize(rng, 1, 32);
        on_pools_of_1_and_3(|be| {
            for op in [BinOp::Add, BinOp::Max] {
                let got = be.elementwise(op, &a, &b, &split).unwrap();
                let want = kernels::elementwise(&a, &b, |x, y| op.apply(x, y));
                assert_eq!(got, want, "elementwise {op:?} len {len} {split:?}");
            }
            assert_eq!(
                be.reduce(BinOp::Add, &a, &split).unwrap(),
                kernels::reduce_add(&a),
                "reduce len {len} {split:?}"
            );
            assert_eq!(
                be.histogram(&a, bins, 400, &split).unwrap(),
                kernels::histogram(&a, bins, 400),
                "histogram len {len} bins {bins} {split:?}"
            );
        });
    });
}

/// Planner-produced auto splits execute correctly end-to-end and the
/// stats report the planned fractions.
#[test]
fn planned_auto_shards_execute_bit_identically() {
    use cinm::core::shard::ShardPlanner;
    let pool = cinm::runtime::PoolHandle::with_threads(3);
    let planner = ShardPlanner::with_default_models(1);
    for_cases(23, |rng| {
        let m = gen_usize(rng, 1, 96);
        let k = gen_usize(rng, 1, 32);
        let n = gen_usize(rng, 1, 24);
        let a = data::i32_vec(rng.next_u64(), m * k, -9, 9);
        let b = data::i32_vec(rng.next_u64(), k * n, -9, 9);
        let plan = planner.plan_op(CnmOp::Gemm { m, k, n }).unwrap();
        assert_eq!(plan.split.total(), m, "{plan:?}");
        let mut be = small_sharded(&pool);
        let c = be.gemm(&a, &b, m, k, n, &plan.split).unwrap();
        assert_eq!(c, kernels::matmul(&a, &b, m, k, n), "{plan:?}");
        let f = be.stats().fractions();
        for (got, planned) in f.iter().zip(plan.fractions.iter()) {
            assert!(
                (got - planned).abs() < 1e-9,
                "{f:?} vs {:?}",
                plan.fractions
            );
        }
    });
}

/// The copying issue order of an eager op: the commands
/// `UpmemBackend::run` issues, with every scattered operand copied into its
/// buffer (`scatter_i32`) instead of lent, and the output gathered into a
/// vector of its own (`gather_i32`) and then decoded. Its per-shape buffers
/// are allocated, reused and zeroed as the backend's contexts are, and every
/// command goes through the wrapped backend's `try_op`, so the bill, the
/// fault draws and the MRAM are comparable with a lending backend's.
struct CopyingOracle {
    be: UpmemBackend,
    contexts: std::collections::HashMap<CnmOp, Vec<u32>>,
}

impl CopyingOracle {
    fn new(be: UpmemBackend) -> Self {
        CopyingOracle {
            be,
            contexts: Default::default(),
        }
    }

    fn run(&mut self, op: CnmOp, operands: &[&[i32]]) -> Result<Vec<i32>, cinm::upmem::SimError> {
        use cinm::lowering::cnm_op::MramLayout;
        if let CnmOp::TimeSeries { window, len } = op {
            if len > 0 {
                cinm::upmem::validate_kernel_shape(&DpuKernelKind::TimeSeries { len, window })?;
            }
        }
        let dpus = self.be.num_dpus();
        let g = op.geometry(dpus);
        if g.out_len == 0 || operands.iter().any(|o| o.is_empty()) {
            let fill = match op {
                CnmOp::Reduce { op, .. } => op.identity(),
                _ => 0,
            };
            return Ok(vec![fill; g.out_len]);
        }
        // The backend's context key: the op without the value parameters
        // that do not shape its buffers.
        let key = match op {
            CnmOp::Elementwise { len, .. } => CnmOp::Elementwise {
                op: BinOp::Add,
                len,
            },
            CnmOp::Reduce { len, .. } => CnmOp::Reduce {
                op: BinOp::Add,
                len,
            },
            CnmOp::Histogram { bins, len, .. } => CnmOp::Histogram {
                bins,
                max_value: 0,
                len,
            },
            CnmOp::Select { len, .. } => CnmOp::Select { threshold: 0, len },
            CnmOp::BfsStep {
                vertices_per_dpu,
                avg_degree,
                ..
            } => CnmOp::BfsStep {
                vertices_per_dpu,
                avg_degree,
                used_dpus: 0,
            },
            other => other,
        };
        let sys = self.be.system_mut();
        let bufs = match self.contexts.get(&key) {
            Some(bufs) => {
                sys.zero_buffer(bufs[operands.len()]).unwrap();
                bufs.clone()
            }
            None => {
                let lens = g.inputs[..operands.len()]
                    .iter()
                    .map(|&(MramLayout::Chunk(n) | MramLayout::Broadcast(n))| n);
                let bufs: Vec<u32> = lens
                    .chain([g.out_chunk])
                    .map(|len| sys.alloc_buffer(len).unwrap())
                    .collect();
                self.contexts.insert(key, bufs.clone());
                bufs
            }
        };
        let out = bufs[operands.len()];
        for (i, (&operand, layout)) in operands.iter().zip(g.inputs).enumerate() {
            match layout {
                MramLayout::Chunk(chunk) => {
                    self.be
                        .try_op(|sys| sys.scatter_i32(bufs[i], operand, chunk))?;
                }
                MramLayout::Broadcast(_) => {
                    self.be.try_op(|sys| sys.broadcast_i32(bufs[i], operand))?;
                }
            }
        }
        let spec = self
            .be
            .kernel_spec(g.kernel, bufs[..operands.len()].to_vec(), out);
        self.be.try_op(|sys| sys.launch(&spec))?;
        let (raw, _) = self.be.try_op(|sys| sys.gather_i32(out, g.out_chunk))?;
        let mut result = Vec::new();
        g.out_layout.decode_into(&raw, dpus, g.out_len, &mut result);
        Ok(result)
    }
}

/// A lending `UpmemBackend::run` (its scattered operands read in place by
/// the launch; a chunked result — element-wise, `gemm`, `gemv`, BFS —
/// written by the launch straight into the caller's destination, any other
/// decoded into it) and a `ShardedBackend::run` writing its shards into one
/// result both equal the copying issue order — results, `SystemStats`,
/// `FaultStats`, MRAM used and peak bytes and the cached contexts — for
/// every op kind, at tight, one-partial-DPU and empty-trailing-DPU lengths,
/// into garbage-filled destinations, twice per shape (the second run reuses
/// the context), under transient and permanent fault schedules and on 1, 2
/// and 8 host threads.
#[test]
fn eager_and_sharded_lent_operands_match_the_copying_issue_order() {
    use cinm::lowering::{ShardError, ShardedBackend, ShardedRunOptions, Target};
    use cinm::runtime::{FaultConfig, PoolHandle, RetryPolicy};
    let patient = RetryPolicy {
        max_attempts: 256,
        ..RetryPolicy::default()
    };
    let pool = PoolHandle::with_threads(2);
    let (mut case, mut retries, mut permanent) = (0usize, 0, 0);
    for_cases(43, |rng| {
        case += 1;
        let threads = [1, 2, 8][case % 3];
        let dpus = [4, 3, 8][case / 3 % 3];
        let seed = rng.next_u64();
        let fault = if case % 2 == 0 {
            FaultConfig::seeded(seed)
                .with_launch_fault_rate(0.1)
                .with_transfer_timeout_rate(0.05)
                .with_transfer_corruption_rate(0.05)
        } else {
            FaultConfig::seeded(seed)
                .with_transfer_timeout_rate(0.05)
                .with_permanent_after_launches(gen_usize(rng, 4, 16) as u64)
        };
        let mut cfg = UpmemConfig::with_ranks(1)
            .with_host_threads(threads)
            .with_fault(fault);
        cfg.dpus_per_rank = dpus;
        // Work that fills every DPU tightly, leaves one DPU partial, or
        // leaves trailing DPUs empty.
        let work = |rng: &mut SplitMix64| match gen_usize(rng, 0, 3) {
            0 => dpus * gen_usize(rng, 1, 6),
            1 => {
                let chunk = gen_usize(rng, 2, 6);
                dpus * chunk - gen_usize(rng, 1, chunk)
            }
            _ => [gen_usize(rng, 1, dpus), dpus + 1][gen_usize(rng, 0, 2)],
        };
        let (m, k, n) = (work(rng), gen_usize(rng, 1, 9), gen_usize(rng, 1, 5));
        let mat = data::i32_vec(rng.next_u64(), m * k, -30, 30);
        let rhs = data::i32_vec(rng.next_u64(), k * n, -30, 30);
        let len = work(rng);
        let v = data::i32_vec(rng.next_u64(), len, -40, 200);
        let w = data::i32_vec(rng.next_u64(), len, -40, 200);
        let binop =
            [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Max, BinOp::Xor][gen_usize(rng, 0, 5)];
        let reduce = [BinOp::Add, BinOp::Min, BinOp::Max][gen_usize(rng, 0, 3)];
        let bins = gen_usize(rng, 1, 9);
        let vertices = gen_usize(rng, 1, 3 * dpus);
        let (f, degree, _) = gen_bfs(rng, vertices, dpus);
        let shardable: Vec<(CnmOp, Vec<&[i32]>)> = vec![
            (CnmOp::Gemm { m, k, n }, vec![&mat, &rhs]),
            (CnmOp::Gemv { rows: m, cols: k }, vec![&mat, &rhs[..k]]),
            (CnmOp::Elementwise { op: binop, len }, vec![&v, &w]),
            (CnmOp::Reduce { op: reduce, len }, vec![&v]),
            (
                CnmOp::Histogram {
                    bins,
                    max_value: 160,
                    len,
                },
                vec![&v],
            ),
        ];
        let grid_only: Vec<(CnmOp, Vec<&[i32]>)> = vec![
            (CnmOp::Select { threshold: 60, len }, vec![&v]),
            (
                CnmOp::TimeSeries {
                    window: gen_usize(rng, 1, len.min(4) + 1),
                    len,
                },
                vec![&v],
            ),
            (
                CnmOp::BfsStep {
                    vertices_per_dpu: f.vertices_per_dpu,
                    avg_degree: degree,
                    used_dpus: f.used_dpus,
                },
                vec![&f.rows, &f.cols, &f.frontier],
            ),
        ];
        let what = format!("case {case}: {dpus} DPUs, {threads} threads");

        // The eager backend, op after op.
        let backend = || {
            let mut be = UpmemBackend::with_config(cfg.clone(), UpmemRunOptions::optimized());
            be.set_retry_policy(patient);
            be
        };
        let (mut lent, mut copying) = (backend(), CopyingOracle::new(backend()));
        for (op, operands) in shardable.iter().chain(&grid_only).chain(&shardable) {
            let len = op.geometry(dpus).out_len;
            let mut out = data::i32_vec(rng.next_u64(), len, -1000, 1000);
            let got = lent.run(*op, operands, &mut out).map(|written| {
                out.truncate(written);
                out
            });
            let want = copying.run(*op, operands);
            permanent += want.as_ref().is_err_and(|e| e.is_permanent_fault()) as usize;
            assert_eq!(got, want, "{what}: {op:?}");
        }
        assert_eq!(lent.stats(), copying.be.stats(), "{what}: bill");
        assert_eq!(lent.fault_stats(), copying.be.fault_stats(), "{what}");
        let mram = |be: &UpmemBackend| {
            let sys = be.system();
            (sys.mram_used_bytes(), sys.mram_peak_bytes())
        };
        assert_eq!(mram(&lent), mram(&copying.be), "{what}: MRAM");
        assert_eq!(lent.cached_contexts(), copying.contexts.len(), "{what}");
        retries += lent.fault_stats().transient_retries;

        // The sharded backend: its CNM shard is the copying order's op at
        // the shard's work, and the whole result is the golden's.
        let mut sharded = ShardedBackend::with_upmem_config(
            cfg.clone(),
            ShardedRunOptions::default()
                .with_ranks(1)
                .with_pool(pool.clone())
                .with_host_threads(threads),
        );
        sharded.upmem_mut().set_retry_policy(patient);
        let mut copying = CopyingOracle::new(backend());
        for (op, operands) in &shardable {
            let work = op.work();
            let matmul = matches!(op, CnmOp::Gemm { .. } | CnmOp::Gemv { .. });
            let split = if matmul {
                gen_split(rng, work)
            } else {
                gen_split_no_cim(rng, work)
            };
            let cnm_op = op.with_work(split.cnm);
            let unit = operands[0].len() / work;
            let mut cnm_operands = vec![&operands[0][..split.cnm * unit]];
            cnm_operands.extend(
                operands
                    .get(1)
                    .map(|&b| if matmul { b } else { &b[..split.cnm] }),
            );
            let want = match copying.run(cnm_op, &cnm_operands) {
                Err(e) if split.cnm > 0 => Err(ShardError::DeviceFault {
                    device: Target::Cnm,
                    permanent: e.is_permanent_fault(),
                    message: e.to_string(),
                }),
                _ => Ok(match *op {
                    CnmOp::Gemm { m, k, n } => kernels::matmul(operands[0], operands[1], m, k, n),
                    CnmOp::Gemv { rows, cols } => {
                        kernels::matvec(operands[0], operands[1], rows, cols)
                    }
                    CnmOp::Elementwise { op, .. } => {
                        kernels::elementwise(operands[0], operands[1], |x, y| op.apply(x, y))
                    }
                    CnmOp::Reduce { op, .. } => vec![operands[0]
                        .iter()
                        .fold(op.identity(), |acc, &x| op.apply(acc, x))],
                    CnmOp::Histogram {
                        bins, max_value, ..
                    } => kernels::histogram(operands[0], bins, max_value),
                    _ => unreachable!("shardable ops only"),
                }),
            };
            let got = sharded.run(*op, operands, &split);
            assert_eq!(got, want, "{what}: sharded {op:?} {split:?}");
        }
        let upmem = sharded.upmem();
        assert_eq!(upmem.stats(), copying.be.stats(), "{what}: sharded bill");
        assert_eq!(upmem.fault_stats(), copying.be.fault_stats(), "{what}");
        assert_eq!(mram(upmem), mram(&copying.be), "{what}: sharded MRAM");
        assert_eq!(upmem.cached_contexts(), copying.contexts.len(), "{what}");
    });
    assert!(retries > 0, "the transient schedules should inject faults");
    assert!(
        permanent > 0,
        "the permanent schedules should kill launches"
    );
}

// ---------------------------------------------------------------------------
// Execution contexts & shard-plan cache (reuse vs fresh per-op state)
// ---------------------------------------------------------------------------

/// One warm [`UpmemBackend`] reused over a randomized stream of ops with
/// deliberately repeated shapes is bit-identical — results *and* per-op
/// simulated statistics — to a fresh backend per op (the eager baseline the
/// execution contexts replaced).
#[test]
fn upmem_context_reuse_matches_fresh_backends_over_shape_repeats() {
    for_cases(31, |rng| {
        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = 4;
        let mut reused = UpmemBackend::with_config(cfg.clone(), UpmemRunOptions::optimized());
        // Small pools of shapes, drawn with repeats so contexts get reused.
        let mm_shapes: Vec<(usize, usize, usize)> = (0..2)
            .map(|_| {
                (
                    gen_usize(rng, 1, 24),
                    gen_usize(rng, 1, 12),
                    gen_usize(rng, 1, 12),
                )
            })
            .collect();
        let lens: Vec<usize> = (0..2).map(|_| gen_usize(rng, 1, 200)).collect();
        for step in 0..8 {
            // Per-op stats must be identical to a fresh backend's, so reset
            // the accumulated stats (contexts survive a reset, exactly like
            // programmed state in the simulators).
            reused.reset_stats();
            let mut fresh = UpmemBackend::with_config(cfg.clone(), UpmemRunOptions::optimized());
            match gen_usize(rng, 0, 4) {
                0 => {
                    let (m, k, n) = mm_shapes[gen_usize(rng, 0, mm_shapes.len())];
                    let a = data::i32_vec(rng.next_u64(), m * k, -6, 6);
                    let b = data::i32_vec(rng.next_u64(), k * n, -6, 6);
                    let got = reused.gemm(&a, &b, m, k, n);
                    assert_eq!(got, fresh.gemm(&a, &b, m, k, n), "step {step}");
                    assert_eq!(got, kernels::matmul(&a, &b, m, k, n), "step {step}");
                }
                1 => {
                    let (m, k, _) = mm_shapes[gen_usize(rng, 0, mm_shapes.len())];
                    let a = data::i32_vec(rng.next_u64(), m * k, -6, 6);
                    let x = data::i32_vec(rng.next_u64(), k, -6, 6);
                    let got = reused.gemv(&a, &x, m, k);
                    assert_eq!(got, fresh.gemv(&a, &x, m, k), "step {step}");
                    assert_eq!(got, kernels::matvec(&a, &x, m, k), "step {step}");
                }
                2 => {
                    let len = lens[gen_usize(rng, 0, lens.len())];
                    let a = data::i32_vec(rng.next_u64(), len, -50, 50);
                    let b = data::i32_vec(rng.next_u64(), len, -50, 50);
                    let got = reused.elementwise(BinOp::Mul, &a, &b);
                    assert_eq!(got, fresh.elementwise(BinOp::Mul, &a, &b), "step {step}");
                }
                _ => {
                    let len = lens[gen_usize(rng, 0, lens.len())];
                    let a = data::i32_vec(rng.next_u64(), len, -50, 50);
                    let got = reused.reduce(BinOp::Add, &a);
                    assert_eq!(got, fresh.reduce(BinOp::Add, &a), "step {step}");
                    assert_eq!(got, kernels::reduce_add(&a), "step {step}");
                }
            }
            assert_eq!(reused.stats(), fresh.stats(), "step {step} stats diverged");
        }
    });
}

/// One warm [`CimBackend`] (staging arena, batch scratch) reused over
/// repeated stationary shapes is bit-identical to fresh per-op backends in
/// every schedule configuration.
#[test]
fn cim_context_reuse_matches_fresh_backends_over_shape_repeats() {
    for_cases(32, |rng| {
        let opts = [
            CimRunOptions::default(),
            CimRunOptions {
                min_writes: true,
                parallel_tiles: false,
                ..Default::default()
            },
            CimRunOptions::optimized(),
        ][gen_usize(rng, 0, 3)]
        .clone();
        let mut reused = CimBackend::new(opts.clone());
        let shapes: Vec<(usize, usize, usize)> = (0..2)
            .map(|_| {
                (
                    gen_usize(rng, 1, 32),
                    gen_usize(rng, 1, 32),
                    gen_usize(rng, 1, 32),
                )
            })
            .collect();
        for step in 0..5 {
            let (m, k, n) = shapes[gen_usize(rng, 0, shapes.len())];
            let a = data::i32_vec(rng.next_u64(), m * k, -5, 5);
            let b = data::i32_vec(rng.next_u64(), k * n, -5, 5);
            reused.reset_stats();
            let mut fresh = CimBackend::new(opts.clone());
            let got = reused.gemm(&a, &b, m, k, n);
            assert_eq!(got, fresh.gemm(&a, &b, m, k, n), "step {step}");
            assert_eq!(got, kernels::matmul(&a, &b, m, k, n), "step {step}");
            assert_eq!(reused.stats(), fresh.stats(), "step {step} stats diverged");
        }
    });
}

/// The memoizing shard planner returns plans bit-identical to the uncached
/// planner over randomized op streams with repeats, and actually hits.
#[test]
fn cached_shard_plans_are_identical_to_fresh_plans() {
    use cinm::core::shard::{CachedShardPlanner, ShardPlanner};
    let planner = ShardPlanner::with_default_models(2);
    let mut cached = CachedShardPlanner::with_default_models(2);
    for_cases(33, |rng| {
        let kind = gen_usize(rng, 0, 3);
        // Coarse shape grid so repeats occur across cases.
        let (m, k, n) = (
            gen_usize(rng, 1, 5) * 64,
            gen_usize(rng, 1, 3) * 32,
            gen_usize(rng, 1, 3) * 16,
        );
        let op = [
            CnmOp::Gemm { m, k, n },
            CnmOp::Gemv { rows: m, cols: k },
            CnmOp::Reduce {
                op: BinOp::Add,
                len: m,
            },
        ][kind];
        let fresh = planner.plan_op(op).unwrap();
        let memo = cached.plan_op(op).unwrap();
        assert_eq!(memo, &fresh, "{op:?}");
    });
    let (hits, misses) = cached.cache_stats();
    assert_eq!(hits + misses, CASES);
    assert!(hits > 0, "no repeats hit the cache ({hits}/{misses})");
}

/// Work units per granule of an `Auto` shard plan (the planner's constant
/// is private).
const GRANULE: usize = 16;

/// The ops of the five sharded workloads (`cinm-experiments sharded`).
fn sharded_ops(scale: cinm::workloads::Scale) -> Vec<CnmOp> {
    use cinm::workloads::{WorkloadId, WorkloadParams};
    cinm::core::experiments::sharded_suite()
        .into_iter()
        .map(|id| match id.params(scale) {
            WorkloadParams::Gemm { m, k, n } => CnmOp::Gemm { m, k, n },
            WorkloadParams::Gemv { rows, cols } => CnmOp::Gemv { rows, cols },
            WorkloadParams::Vector { len } if id == WorkloadId::Red => CnmOp::Reduce {
                op: BinOp::Add,
                len,
            },
            WorkloadParams::Vector { len } => CnmOp::Elementwise {
                op: BinOp::Add,
                len,
            },
            WorkloadParams::Histogram {
                len,
                bins,
                max_value,
            } => CnmOp::Histogram {
                bins,
                max_value,
                len,
            },
            other => panic!("{other:?} is not sharded"),
        })
        .collect()
}

/// Every model's price is non-decreasing in work, and whether it prices an
/// op does not depend on the work: the premise that makes the shard
/// planner's search exact. Checked for the sharded workloads' ops at their
/// test and bench shapes, on the UPMEM grid under the baseline, `cinm-opt`
/// and PrIM code on 1, 4 and 16 ranks, on the crossbar under its four flag
/// pairs and on the host, at every work up to 2048 and then in steps of
/// 1/64 up to the largest bench op.
#[test]
fn every_price_is_non_decreasing_in_work() {
    use cinm::core::CostModel;
    use cinm::workloads::Scale;
    let prim = UpmemRunOptions {
        instruction_overhead: 1.7,
        wram_tile_elems: Some(256),
        ..UpmemRunOptions::optimized()
    };
    let mut models: Vec<(String, Box<dyn CostModel>)> = Vec::new();
    for ranks in [1, 4, 16] {
        for opts in [
            UpmemRunOptions::default(),
            UpmemRunOptions::optimized(),
            prim.clone(),
        ] {
            let backend = UpmemBackend::with_config(UpmemConfig::with_ranks(ranks), opts.clone());
            let name = format!("upmem {ranks} ranks {opts:?}");
            models.push((name, UpmemDevice::new(backend).cost()));
        }
    }
    for (min_writes, parallel_tiles) in [(false, false), (true, false), (false, true), (true, true)]
    {
        let options = CimRunOptions {
            min_writes,
            parallel_tiles,
            ..Default::default()
        };
        let name = format!("crossbar min_writes={min_writes} parallel={parallel_tiles}");
        models.push((name, CimDevice::new(CimBackend::new(options)).cost()));
    }
    let host = cinm::lowering::HostDevice::new(cpu_sim::model::CpuModel::arm_host());
    models.push(("host".to_string(), host.cost()));
    let mut works: Vec<usize> = (0..=2048).collect();
    while let Some(&w) = works.last().filter(|&&w| w < 1 << 22) {
        works.push(w + w / 64);
    }
    for op in [Scale::Test, Scale::Bench]
        .into_iter()
        .flat_map(sharded_ops)
    {
        for (name, model) in &models {
            let supported = model.price(op).is_some();
            let mut last = 0.0f64;
            for &work in &works {
                let price = model.price(op.with_work(work));
                assert_eq!(price.is_some(), supported, "{name}: {op:?} at {work}");
                if let Some(Cost { seconds, .. }) = price {
                    assert!(
                        seconds >= last,
                        "{name}: {op:?} at {work} costs {seconds} s, less than {last} s"
                    );
                    last = seconds;
                }
            }
        }
    }
}

/// A fake device billing `fixed + per_step · ⌈work / step⌉` seconds (and
/// nothing for no work): monotone step costs with a fixed overhead.
struct StepCost {
    target: cinm::core::Target,
    fixed: f64,
    per_step: f64,
    step: usize,
}

impl cinm::core::CostModel for StepCost {
    fn target(&self) -> cinm::core::Target {
        self.target
    }
    fn price(&self, op: CnmOp) -> Option<Cost> {
        let work = op.work();
        let seconds = match work {
            0 => 0.0,
            _ => self.fixed + self.per_step * work.div_ceil(self.step) as f64,
        };
        Some(Cost {
            seconds,
            joules: seconds,
        })
    }
}

/// The least makespan over the splits an `Auto` plan can take (every
/// non-empty shard whole granules, one of them also the remainder), by
/// trying every split; `models` are one per device in `[cnm, cim, host]`
/// order.
fn brute_force_makespan(models: &[Box<dyn cinm::core::CostModel>], op: CnmOp) -> f64 {
    let (granules, rest) = (op.work() / GRANULE, op.work() % GRANULE);
    let price = |device: usize, work: usize| match work {
        0 => 0.0,
        _ => models[device]
            .price(op.with_work(work))
            .map_or(f64::INFINITY, |c| c.seconds),
    };
    let plain: Vec<[f64; 3]> = (0..=granules)
        .map(|g| [0, 1, 2].map(|d| price(d, g * GRANULE)))
        .collect();
    let held: Vec<[f64; 3]> = (0..=granules)
        .map(|g| [0, 1, 2].map(|d| price(d, g * GRANULE + rest)))
        .collect();
    let mut best = f64::INFINITY;
    for (holder, others) in [(0, [1, 2]), (1, [0, 2]), (2, [0, 1])] {
        for (a, held) in held.iter().enumerate().skip(1) {
            for b in 0..=granules - a {
                let c = granules - a - b;
                let makespan = held[holder]
                    .max(plain[b][others[0]])
                    .max(plain[c][others[1]]);
                best = best.min(makespan);
            }
        }
    }
    best
}

/// On every op of 2 to 64 granules (every remainder) over three devices, the
/// `Auto` plan's makespan equals the brute-force least makespan exactly —
/// with the real models (one rank) on small gemm and gemv shapes, and with
/// random step-cost fakes whose integral parameters make ties common.
#[test]
fn auto_plans_match_brute_force_on_every_small_op() {
    use cinm::core::{CostModel, ShardPlanner, Target};
    let check = |models: &dyn Fn() -> Vec<Box<dyn CostModel>>, op: CnmOp| {
        for work in 2 * GRANULE..65 * GRANULE {
            let op = op.with_work(work);
            let mut planner = ShardPlanner::new();
            for model in models() {
                planner.register_model(model);
            }
            let plan = planner.plan_op(op).unwrap();
            assert_eq!(plan.split.total(), work, "{op:?}");
            let planned = plan
                .estimated_seconds
                .iter()
                .fold(0.0, |a: f64, &b| a.max(b));
            assert_eq!(
                planned,
                brute_force_makespan(&models(), op),
                "{op:?}: {plan:?}"
            );
        }
    };
    let real = || -> Vec<Box<dyn CostModel>> {
        vec![
            Box::new(cinm::core::shard::CnmCostModel::new(
                UpmemConfig::with_ranks(1),
            )),
            Box::new(cinm::core::shard::CimCostModel::new(
                CrossbarConfig::default(),
            )),
            Box::new(cinm::core::shard::HostCostModel::new(
                cpu_sim::model::CpuModel::arm_host(),
            )),
        ]
    };
    check(&real, CnmOp::Gemm { m: 0, k: 32, n: 24 });
    check(&real, CnmOp::Gemv { rows: 0, cols: 48 });
    let mut rng = SplitMix64::seed_from_u64(39);
    for _ in 0..3 {
        let fakes: Vec<(f64, f64, usize)> = (0..3)
            .map(|_| {
                let fixed = gen_usize(&mut rng, 0, 4) as f64 * 100e-6;
                let per_step = gen_usize(&mut rng, 1, 20) as f64 * 1e-6;
                (fixed, per_step, gen_usize(&mut rng, 1, 40))
            })
            .collect();
        let models = || -> Vec<Box<dyn CostModel>> {
            Target::ALL
                .into_iter()
                .zip(&fakes)
                .map(|(target, &(fixed, per_step, step))| {
                    Box::new(StepCost {
                        target,
                        fixed,
                        per_step,
                        step,
                    }) as Box<dyn CostModel>
                })
                .collect()
        };
        check(&models, CnmOp::Gemv { rows: 0, cols: 1 });
    }
}

/// An `Auto` plan finishes no later than any one device alone on each of
/// the five sharded workloads at test and bench scale (16 ranks, as in
/// `cinm-experiments sharded`).
#[test]
fn auto_plans_are_no_slower_than_the_best_single_device() {
    use cinm::core::{ShardPlanner, ShardPolicy, Target};
    use cinm::workloads::Scale;
    let planner = |policy| ShardPlanner::with_default_models(16).with_policy(policy);
    for op in [Scale::Test, Scale::Bench]
        .into_iter()
        .flat_map(sharded_ops)
    {
        let plan = planner(ShardPolicy::Auto).plan_op(op).unwrap();
        let makespan = plan
            .estimated_seconds
            .iter()
            .fold(0.0, |a: f64, &b| a.max(b));
        for target in Target::ALL {
            if let Ok(single) = planner(ShardPolicy::Single(target)).plan_op(op) {
                let alone = single.estimated_seconds[target.index()];
                assert!(
                    makespan <= alone,
                    "{op:?}: auto {makespan} s, {target} alone {alone} s ({plan:?})"
                );
            }
        }
    }
}

/// One warm [`ShardedBackend`] reused over a randomized stream of sharded
/// ops (warm UPMEM/CIM contexts underneath) stays bit-identical to the host
/// goldens.
#[test]
fn sharded_backend_reuse_matches_goldens_over_repeated_ops() {
    let pool = cinm::runtime::PoolHandle::with_threads(3);
    let mut be = small_sharded(&pool);
    for_cases(34, |rng| {
        let m = gen_usize(rng, 1, 8) * 6;
        let k = gen_usize(rng, 1, 3) * 8;
        let n = gen_usize(rng, 1, 2) * 8;
        let a = data::i32_vec(rng.next_u64(), m * k, -9, 9);
        let b = data::i32_vec(rng.next_u64(), k * n, -9, 9);
        let split = gen_split(rng, m);
        assert_eq!(
            be.gemm(&a, &b, m, k, n, &split).unwrap(),
            kernels::matmul(&a, &b, m, k, n),
            "gemm {m}x{k}x{n} {split:?}"
        );
        let len = gen_usize(rng, 1, 4) * 100;
        let v = data::i32_vec(rng.next_u64(), len, -100, 300);
        let esplit = gen_split_no_cim(rng, len);
        assert_eq!(
            be.reduce(BinOp::Add, &v, &esplit).unwrap(),
            kernels::reduce_add(&v),
            "reduce len {len} {esplit:?}"
        );
    });
    // The whole stream ran on one backend: fractions still normalise.
    let f = be.stats().fractions();
    assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{f:?}");
}

/// User-forced fractions that do not sum to 1 error out of the whole path
/// (planner and split construction), never renormalising silently.
#[test]
fn forced_fractions_error_end_to_end() {
    use cinm::core::shard::{ShardPlanner, ShardPolicy};
    for_cases(24, |rng| {
        let total = gen_usize(rng, 1, 1000);
        let f0 = gen_usize(rng, 0, 100) as f64 / 100.0;
        let f1 = gen_usize(rng, 0, 100) as f64 / 100.0;
        let f2 = gen_usize(rng, 0, 100) as f64 / 100.0;
        let sum = f0 + f1 + f2;
        let split = cinm::lowering::ShardSplit::from_fractions(total, [f0, f1, f2]);
        let planner =
            ShardPlanner::with_default_models(1).with_policy(ShardPolicy::Fractions([f0, f1, f2]));
        let plan = planner.plan_op(CnmOp::Gemm {
            m: total,
            k: 8,
            n: 8,
        });
        if (sum - 1.0).abs() > 1e-6 {
            assert!(split.is_err(), "sum {sum} must be rejected");
            assert!(plan.is_err(), "sum {sum} must be rejected by the planner");
        } else {
            assert_eq!(split.unwrap().total(), total);
            assert_eq!(plan.unwrap().split.total(), total);
        }
    });
}

// ---------------------------------------------------------------------------
// Session graph execution vs the eager per-op oracle
// ---------------------------------------------------------------------------

fn session_options(residency: bool) -> cinm::core::SessionOptions {
    session_options_on(4, residency)
}

fn session_options_on(dpus: usize, residency: bool) -> cinm::core::SessionOptions {
    let mut cfg = UpmemConfig::with_ranks(1);
    cfg.dpus_per_rank = dpus;
    cinm::core::SessionOptions::default()
        .with_upmem_config(cfg)
        .with_policy(cinm::core::ShardPolicy::Single(cinm::core::Target::Cnm))
        .with_residency(residency)
}

/// Randomized multi-op graphs through the `Session` are bit-identical to the
/// eager per-op backend — results always; accumulated simulated statistics
/// too when residency is off (the equivalence-oracle mode). With residency
/// on, chains move at most as many simulated bytes as the eager program.
#[test]
fn session_graphs_are_bit_identical_to_the_eager_oracle() {
    use cinm::core::TensorHandle;
    for_cases(40, |rng| {
        // Every op of the lowering table, on every grid size, over lengths
        // (= gemm/gemv rows) below the DPU count and off its multiples.
        let dpus = GRIDS[gen_usize(rng, 0, GRIDS.len())];
        let len = gen_edge_len(rng, dpus, 1, 300);
        let cols = gen_usize(rng, 4, 48);
        let n = gen_usize(rng, 1, 6);
        let a_mat = data::i32_vec(rng.next_u64(), len * cols, -8, 8);
        let b_mat = data::i32_vec(rng.next_u64(), cols * n, -8, 8);
        let x_vec = data::i32_vec(rng.next_u64(), cols, -8, 8);
        let v0 = data::i32_vec(rng.next_u64(), len, -64, 64);
        let v1 = data::i32_vec(rng.next_u64(), len, -64, 64);
        let (bfs, degree, _) = gen_bfs(rng, len, dpus);
        // One decision tape so both residency modes replay the same graph.
        let n_ops = gen_usize(rng, 1, 7);
        let tape: Vec<(usize, usize, usize, usize)> = (0..n_ops)
            .map(|_| {
                (
                    gen_usize(rng, 0, 9),
                    gen_usize(rng, 0, 1000),
                    gen_usize(rng, 0, 1000),
                    gen_usize(rng, 0, 9),
                )
            })
            .collect();
        let bin_ops = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Max,
            BinOp::Min,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
        ];
        for residency in [false, true] {
            // The optimizer is off: this is the launch-for-launch
            // equivalence oracle against the eager per-op backend (fusion
            // would legitimately change launch counts and kernel time).
            let mut sess =
                cinm::core::Session::new(session_options_on(dpus, residency).with_optimizer(false));
            let mut eager = upmem_grid(dpus);
            let at = sess.matrix(&a_mat, len, cols);
            let bt = sess.matrix(&b_mat, cols, n);
            let xt = sess.vector(&x_vec);
            let bfs_t = [&bfs.rows, &bfs.cols, &bfs.frontier].map(|f| sess.vector(f));
            let t0 = sess.vector(&v0);
            let t1 = sess.vector(&v1);
            let mut pool: Vec<TensorHandle> = vec![t0, t1];
            let mut host_pool: Vec<Vec<i32>> = vec![v0.clone(), v1.clone()];
            let mut fetches: Vec<(TensorHandle, Vec<i32>)> = Vec::new();
            for &(kind, pick_a, pick_b, op_pick) in &tape {
                match kind {
                    0 => {
                        let h = sess.gemv(at, xt);
                        let val = eager.gemv(&a_mat, &x_vec, len, cols);
                        pool.push(h);
                        host_pool.push(val.clone());
                        fetches.push((h, val));
                    }
                    1 | 2 => {
                        let (i, j) = (pick_a % pool.len(), pick_b % pool.len());
                        let op = bin_ops[op_pick % bin_ops.len()];
                        let h = sess.elementwise(op, pool[i], pool[j]);
                        let val = eager.elementwise(op, &host_pool[i], &host_pool[j]);
                        pool.push(h);
                        host_pool.push(val.clone());
                        fetches.push((h, val));
                    }
                    3 => {
                        let i = pick_a % pool.len();
                        let op = bin_ops[op_pick % bin_ops.len()];
                        let h = sess.reduce(op, pool[i]);
                        let val = vec![eager.reduce(op, &host_pool[i])];
                        fetches.push((h, val));
                    }
                    4 => {
                        let i = pick_a % pool.len();
                        let bins = 2 + op_pick % 15;
                        let h = sess.histogram(pool[i], bins, 128);
                        let val = eager.histogram(&host_pool[i], bins, 128);
                        fetches.push((h, val));
                    }
                    5 => {
                        let i = pick_a % pool.len();
                        let thr = (pick_b % 21) as i32 - 10;
                        let h = sess.select(pool[i], thr);
                        let val = eager.select(&host_pool[i], thr);
                        fetches.push((h, val));
                    }
                    6 => {
                        let h = sess.gemm(at, bt);
                        let val = eager.gemm(&a_mat, &b_mat, len, cols, n);
                        fetches.push((h, val));
                    }
                    7 => {
                        let i = pick_a % pool.len();
                        let window = 1 + pick_b % len.min(8);
                        let h = sess.time_series(pool[i], window);
                        let val = eager.time_series(&host_pool[i], window);
                        fetches.push((h, val));
                    }
                    _ => {
                        let (vp, used) = (bfs.vertices_per_dpu, bfs.used_dpus);
                        let h = sess.bfs_step(bfs_t[0], bfs_t[1], bfs_t[2], vp, degree, used);
                        let val =
                            eager.bfs_step(&bfs.rows, &bfs.cols, &bfs.frontier, vp, degree, used);
                        fetches.push((h, val));
                    }
                }
            }
            sess.run().expect("cnm placement");
            for (h, want) in &fetches {
                assert_eq!(
                    sess.fetch(*h),
                    *want,
                    "residency={residency} dpus={dpus} len={len} cols={cols}"
                );
            }
            if residency {
                let s = sess.upmem_stats();
                let e = eager.stats();
                assert_eq!(s.kernel_seconds, e.kernel_seconds, "len={len}");
                assert_eq!(s.launches, e.launches, "len={len}");
                assert!(
                    s.host_to_dpu_bytes + s.dpu_to_host_bytes
                        <= e.host_to_dpu_bytes + e.dpu_to_host_bytes,
                    "resident graphs must not move more bytes"
                );
            } else {
                assert_eq!(
                    sess.upmem_stats(),
                    eager.stats(),
                    "residency-off statistics must fold identically (len={len} cols={cols})"
                );
            }
        }
    });
}

/// A replayed session run (the memoized, stream-free fast path of a warmed
/// loop) is bit-identical to a fresh session compiling the same graph —
/// results and accumulated statistics.
#[test]
fn session_replay_is_bit_identical_to_fresh_compilation() {
    use cinm::core::Session;
    for_cases(41, |rng| {
        let (rows, cols) = (gen_usize(rng, 8, 120), gen_usize(rng, 4, 40));
        let a = data::i32_vec(rng.next_u64(), rows * cols, -8, 8);
        let xs: Vec<Vec<i32>> = (0..6)
            .map(|_| data::i32_vec(rng.next_u64(), cols, -8, 8))
            .collect();
        let thr = (gen_usize(rng, 0, 12) as i32) - 6;
        let run_loop = |iters: usize| -> (Vec<Vec<i32>>, cinm::upmem::SystemStats) {
            let mut sess = Session::new(session_options(true));
            let at = sess.matrix(&a, rows, cols);
            let xt = sess.vector(&xs[0]);
            let mut outs = Vec::new();
            for x in xs.iter().take(iters) {
                sess.write(xt, x);
                let y = sess.gemv(at, xt);
                let s = sess.select(y, thr);
                sess.run().expect("cnm placement");
                outs.push(sess.fetch(s));
            }
            (outs, *sess.upmem_stats())
        };
        let (full, full_stats) = run_loop(6); // iterations 4+ replay
        let (fresh, _) = run_loop(6); // identical loop, fresh session
        assert_eq!(full, fresh);
        // And against a per-iteration eager oracle.
        let mut eager = small_upmem();
        let mut eager_bytes_stats = None;
        for (i, x) in xs.iter().enumerate() {
            let y = eager.gemv(&a, x, rows, cols);
            assert_eq!(full[i], eager.select(&y, thr), "iteration {i}");
            eager_bytes_stats = Some(*eager.stats());
        }
        let e = eager_bytes_stats.unwrap();
        assert_eq!(full_stats.kernel_seconds, e.kernel_seconds);
        assert!(
            full_stats.host_to_dpu_bytes + full_stats.dpu_to_host_bytes
                < e.host_to_dpu_bytes + e.dpu_to_host_bytes,
            "the warmed loop must move strictly fewer bytes"
        );
    });
}

// ---------------------------------------------------------------------------
// The result path: fetch, fetch_into and take
// ---------------------------------------------------------------------------

/// `fetch`, `fetch_into` and `take` are three ways out of the same host copy:
/// for every output layout of the lowering table (element-wise, gemv and gemm
/// chunks, time-series profiles, raw select records, reduce and histogram
/// partials), on grids of 1, 3 and 8 DPUs, over lengths whose gather is longer
/// than the logical value and lengths that fill the grid exactly (where an
/// upload or download hands the image over instead of copying it), with
/// residency on and off, fault-free and under a seeded transient schedule,
/// they return the same vector — the eager backend's — and leave bit-equal
/// simulated statistics and fault counters, over three rounds of `write → run
/// → result` on the same input handles (the first cold, the second detaching
/// what the first shared, the third warm). A second `fetch` bills no second
/// gather.
#[test]
fn fetch_fetch_into_and_take_agree_for_every_output_layout() {
    use cinm::core::{Session, TensorHandle};
    use cinm::runtime::FaultConfig;
    #[derive(Clone, Copy, Debug)]
    enum Via {
        Fetch,
        FetchInto,
        Take,
    }
    const ROUNDS: u64 = 3;
    let mut retries = 0;
    for dpus in [1usize, 3, 8] {
        for len in [1usize, 7, 8, 9, 24, 37, 96, 100] {
            let (cols, n) = (5, 3);
            let a_mat = data::i32_vec(len as u64, len * cols, -8, 8);
            let b_mat = data::i32_vec(11, cols * n, -8, 8);
            let x_vec = data::i32_vec(12, cols, -8, 8);
            let v0 = |round: u64| data::i32_vec(13 + len as u64 + 1000 * round, len, -64, 64);
            let v1 = |round: u64| data::i32_vec(14 + len as u64 + 1000 * round, len, -64, 64);
            let window = len.min(3);
            let mut eager = upmem_grid(dpus);
            let want: Vec<[Vec<i32>; 7]> = (0..ROUNDS)
                .map(|round| {
                    let (v0, v1) = (v0(round), v1(round));
                    [
                        eager.elementwise(BinOp::Add, &v0, &v1),
                        eager.gemv(&a_mat, &x_vec, len, cols),
                        eager.gemm(&a_mat, &b_mat, len, cols, n),
                        eager.time_series(&v0, window),
                        eager.select(&v0, 0),
                        vec![eager.reduce(BinOp::Add, &v1)],
                        eager.histogram(&v0, 7, 128),
                    ]
                })
                .collect();
            for residency in [false, true] {
                for faulted in [false, true] {
                    let run = |via: Via| {
                        let mut opts = session_options_on(dpus, residency);
                        if faulted {
                            opts = opts.with_fault(
                                FaultConfig::seeded(97 + len as u64)
                                    .with_launch_fault_rate(0.08)
                                    .with_transfer_timeout_rate(0.05)
                                    .with_transfer_corruption_rate(0.05),
                            );
                        }
                        let mut sess = Session::new(opts);
                        let at = sess.matrix(&a_mat, len, cols);
                        let bt = sess.matrix(&b_mat, cols, n);
                        let xt = sess.vector(&x_vec);
                        let (t0, t1) = (sess.vector(&v0(0)), sess.vector(&v1(0)));
                        let mut reused = vec![-1; 3];
                        let got: Vec<[Vec<i32>; 7]> = (0..ROUNDS)
                            .map(|round| {
                                if round > 0 {
                                    sess.write(t0, &v0(round));
                                    sess.write(t1, &v1(round));
                                }
                                let outs: [TensorHandle; 7] = [
                                    sess.elementwise(BinOp::Add, t0, t1),
                                    sess.gemv(at, xt),
                                    sess.gemm(at, bt),
                                    sess.time_series(t0, window),
                                    sess.select(t0, 0),
                                    sess.reduce(BinOp::Add, t1),
                                    sess.histogram(t0, 7, 128),
                                ];
                                sess.run().expect("cnm placement");
                                outs.map(|h| match via {
                                    Via::Fetch => {
                                        let first = sess.fetch(h);
                                        let billed = *sess.upmem_stats();
                                        assert_eq!(sess.fetch(h), first);
                                        assert_eq!(
                                            *sess.upmem_stats(),
                                            billed,
                                            "a second fetch gathered"
                                        );
                                        first
                                    }
                                    Via::FetchInto => {
                                        sess.fetch_into(h, &mut reused);
                                        reused.clone()
                                    }
                                    Via::Take => sess.take(h),
                                })
                            })
                            .collect();
                        (got, *sess.upmem_stats(), sess.fault_stats())
                    };
                    let case =
                        format!("dpus={dpus} len={len} residency={residency} faulted={faulted}");
                    let (fetched, stats, faults) = run(Via::Fetch);
                    assert_eq!(fetched, want, "{case}");
                    retries += faults.transient_retries;
                    for via in [Via::FetchInto, Via::Take] {
                        let (got, via_stats, via_faults) = run(via);
                        assert_eq!(got, want, "{case} via {via:?}");
                        assert_eq!(via_stats, stats, "{case} via {via:?}");
                        assert_eq!(via_faults, faults, "{case} via {via:?}");
                    }
                }
            }
        }
    }
    assert!(retries > 0, "the fault schedules never fired");
}

/// `take` releases the tensor: the handle is stale afterwards, exactly like a
/// recycled temporary's.
#[test]
#[should_panic(expected = "stale tensor handle")]
fn a_handle_is_stale_after_take() {
    let mut sess = cinm::core::Session::new(session_options(true));
    let a = sess.vector(&[1, 2, 3, 4, 5]);
    let b = sess.vector(&[5, 4, 3, 2, 1]);
    let sum = sess.elementwise(BinOp::Add, a, b);
    sess.run().expect("cnm placement");
    assert_eq!(sess.take(sum), vec![6; 5]);
    // The source tensors are untouched and the session stays usable.
    let again = sess.elementwise(BinOp::Sub, a, b);
    sess.run().expect("cnm placement");
    assert_eq!(sess.fetch(again), vec![-4, -2, 0, 2, 4]);
    sess.fetch(sum);
}

// ---------------------------------------------------------------------------
// Fault tolerance: recovered session runs vs the fault-free oracle
// ---------------------------------------------------------------------------

/// Randomized fault schedules (transient launch/transfer faults ≤ 10%,
/// sometimes a permanent device death) over randomized multi-op session
/// graphs: as long as at least one device survives — the host always does —
/// every recovered run is bit-identical to the same graph fault-free, for
/// both the CNM-only and the auto-sharded placement policy.
#[test]
fn faulted_session_graphs_match_the_fault_free_oracle() {
    use cinm::core::{Session, ShardPolicy, Target, TensorHandle};
    use cinm::runtime::FaultConfig;
    for_cases(50, |rng| {
        let len = gen_usize(rng, 8, 200);
        let cols = gen_usize(rng, 4, 32);
        let a_mat = data::i32_vec(rng.next_u64(), len * cols, -8, 8);
        let x_vec = data::i32_vec(rng.next_u64(), cols, -8, 8);
        let v0 = data::i32_vec(rng.next_u64(), len, -64, 64);
        let v1 = data::i32_vec(rng.next_u64(), len, -64, 64);
        let n_ops = gen_usize(rng, 1, 6);
        let tape: Vec<(usize, usize, usize, usize)> = (0..n_ops)
            .map(|_| {
                (
                    gen_usize(rng, 0, 5),
                    gen_usize(rng, 0, 1000),
                    gen_usize(rng, 0, 1000),
                    gen_usize(rng, 0, 9),
                )
            })
            .collect();
        let policy = [ShardPolicy::Single(Target::Cnm), ShardPolicy::Auto][gen_usize(rng, 0, 2)];
        // A random schedule: transients at realistic rates, and in a third
        // of the cases a permanent device death after a few launches.
        let mut fault = FaultConfig::seeded(rng.next_u64())
            .with_launch_fault_rate(gen_usize(rng, 0, 11) as f64 / 100.0)
            .with_transfer_timeout_rate(gen_usize(rng, 0, 6) as f64 / 100.0)
            .with_transfer_corruption_rate(gen_usize(rng, 0, 6) as f64 / 100.0);
        if gen_usize(rng, 0, 3) == 0 {
            fault = fault.with_permanent_after_launches(gen_usize(rng, 1, 12) as u64);
        }

        let run_graph = |fault: Option<FaultConfig>| -> Vec<Vec<i32>> {
            let mut opts = session_options(true).with_policy(policy);
            if let Some(f) = fault {
                opts = opts.with_fault(f);
            }
            let mut sess = Session::new(opts);
            let at = sess.matrix(&a_mat, len, cols);
            let xt = sess.vector(&x_vec);
            let t0 = sess.vector(&v0);
            let t1 = sess.vector(&v1);
            let mut pool: Vec<TensorHandle> = vec![t0, t1];
            let mut fetches: Vec<TensorHandle> = Vec::new();
            let bin_ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Max, BinOp::Min];
            for &(kind, pick_a, pick_b, op_pick) in &tape {
                match kind {
                    0 => {
                        let h = sess.gemv(at, xt);
                        pool.push(h);
                        fetches.push(h);
                    }
                    1 | 2 => {
                        let (i, j) = (pick_a % pool.len(), pick_b % pool.len());
                        let h =
                            sess.elementwise(bin_ops[op_pick % bin_ops.len()], pool[i], pool[j]);
                        pool.push(h);
                        fetches.push(h);
                    }
                    3 => {
                        let i = pick_a % pool.len();
                        fetches.push(sess.reduce(bin_ops[op_pick % bin_ops.len()], pool[i]));
                    }
                    4 => {
                        let i = pick_a % pool.len();
                        fetches.push(sess.histogram(pool[i], 2 + op_pick % 15, 128));
                    }
                    _ => {
                        let i = pick_a % pool.len();
                        fetches.push(sess.select(pool[i], (pick_b % 21) as i32 - 10));
                    }
                }
            }
            sess.run()
                .expect("a graph with a surviving device must recover");
            fetches.iter().map(|&h| sess.fetch(h)).collect()
        };

        let baseline = run_graph(None);
        let faulted = run_graph(Some(fault.clone()));
        assert_eq!(
            baseline, faulted,
            "recovered run diverged: policy {policy:?}, schedule {fault:?}"
        );
    });
}

// ---------------------------------------------------------------------------
// Fed session inputs: run_with vs write
// ---------------------------------------------------------------------------

/// One round of a fed-vs-written case: its inputs' contents, and whether the
/// round records fresh input tensors or reuses the previous round's.
struct FedRound {
    data: Vec<Vec<i32>>,
    fresh: bool,
}

/// What a fed-vs-written session run must reproduce: per round the run's
/// outcome and every fetched output, then the session's counters.
type FedOutcome = (
    Vec<Result<Vec<Vec<i32>>, cinm::lowering::ShardError>>,
    cinm::upmem::SystemStats,
    cinm::runtime::FaultStats,
    cinm::core::ResidencyStats,
    [u64; 3],
    u64,
);

/// A run that feeds its inputs (`Session::input` + `run_with`, read in
/// place) is bit-identical to one that writes them first (`write`, a copy
/// the session keeps): each round's results, then the simulator's bill and
/// the fault, residency and MRAM used/peak counters. Cases cover every op
/// kind at tight, one-partial-DPU and empty-trailing lengths; residency on
/// and off; fused chains (their launches lend too); `Single(Cnm)` and `Auto`
/// placement (host and crossbar shards read the fed slices); MRAM limits
/// that evict earlier rounds' fed tensors; transient and permanent fault
/// schedules; and 1/2/8 host threads. Rounds after the first reuse the
/// graph, fresh tensors or the same ones fed again, so plans replay.
#[test]
fn fed_session_runs_match_the_written_session() {
    use cinm::core::{Session, SessionOptions, ShardPolicy, Target, TensorHandle, TensorShape};
    use cinm::lowering::ShardedRunOptions;
    use cinm::runtime::{FaultConfig, PoolHandle};
    let pool = PoolHandle::with_threads(2);
    let (mut case, mut fused, mut sharded, mut evicted, mut faulted) = (0usize, 0, 0, 0, 0);
    for_cases(44, |rng| {
        case += 1;
        let dpus = [4, 3, 8][case % 3];
        let threads = [1, 2, 8][case / 3 % 3];
        let residency = case % 4 != 0;
        let policy = [ShardPolicy::Single(Target::Cnm), ShardPolicy::Auto][case % 2];
        // Lengths (= gemv/gemm rows) that fill every DPU tightly, leave one
        // DPU partial, or leave trailing DPUs empty.
        let len = match gen_usize(rng, 0, 3) {
            0 => dpus * gen_usize(rng, 1, 24),
            1 => {
                let chunk = gen_usize(rng, 2, 24);
                dpus * chunk - gen_usize(rng, 1, chunk)
            }
            _ => gen_usize(rng, 1, dpus),
        };
        let (cols, n) = (gen_usize(rng, 2, 24), gen_usize(rng, 1, 5));
        let (bfs, degree, _) = gen_bfs(rng, len, dpus);
        let matrix = |rows, cols| TensorShape::Matrix { rows, cols };
        let vector = |len| TensorShape::Vector { len };
        let shapes = [
            matrix(len, cols),
            matrix(cols, n),
            vector(cols),
            vector(len),
            vector(len),
            vector(bfs.rows.len()),
            vector(bfs.cols.len()),
            vector(bfs.frontier.len()),
        ];
        let rounds: Vec<FedRound> = (0..3)
            .map(|r| FedRound {
                data: shapes[..5]
                    .iter()
                    .map(|s| data::i32_vec(rng.next_u64(), s.len(), -40, 90))
                    .chain([bfs.rows.clone(), bfs.cols.clone(), bfs.frontier.clone()])
                    .collect(),
                fresh: r == 0 || gen_usize(rng, 0, 2) == 0,
            })
            .collect();
        let tape: Vec<[usize; 3]> = (0..gen_usize(rng, 1, 8))
            .map(|_| [0, 0, 0].map(|_| gen_usize(rng, 0, 1000)))
            .collect();
        let fault = match gen_usize(rng, 0, 3) {
            0 => None,
            1 => Some(
                FaultConfig::seeded(rng.next_u64())
                    .with_launch_fault_rate(0.08)
                    .with_transfer_timeout_rate(0.04)
                    .with_transfer_corruption_rate(0.04),
            ),
            _ => Some(
                FaultConfig::seeded(rng.next_u64())
                    .with_transfer_timeout_rate(0.03)
                    .with_permanent_after_launches(gen_usize(rng, 2, 12) as u64),
            ),
        };
        let bin_ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Max, BinOp::Xor];

        let run = |fed: bool, limit: Option<usize>| -> FedOutcome {
            let mut cfg = UpmemConfig::with_ranks(1).with_host_threads(threads);
            cfg.dpus_per_rank = dpus;
            let mut opts = SessionOptions::default()
                .with_upmem_config(cfg)
                .with_sharded(
                    ShardedRunOptions::default()
                        .with_ranks(1)
                        .with_pool(pool.clone())
                        .with_host_threads(threads),
                )
                .with_policy(policy)
                .with_residency(residency);
            if let Some(bytes) = limit {
                opts = opts.with_mram_limit_bytes(bytes);
            }
            if let Some(f) = &fault {
                opts = opts.with_fault(f.clone());
            }
            let mut sess = Session::new(opts);
            let mut outcomes = Vec::new();
            let mut ins: Vec<TensorHandle> = Vec::new();
            for round in &rounds {
                if round.fresh {
                    ins = shapes
                        .iter()
                        .zip(&round.data)
                        .map(|(&shape, data)| match (fed, shape) {
                            (true, _) => sess.input(shape),
                            (false, TensorShape::Matrix { rows, cols }) => {
                                sess.matrix(data, rows, cols)
                            }
                            (false, _) => sess.vector(data),
                        })
                        .collect();
                } else if !fed {
                    for (&h, data) in ins.iter().zip(&round.data) {
                        sess.write(h, data);
                    }
                }
                let mut pool = vec![ins[3], ins[4]];
                let mut outs = Vec::new();
                for &[kind, pick, arg] in &tape {
                    let v = pool[pick % pool.len()];
                    let h = match kind % 11 {
                        0 => sess.gemv(ins[0], ins[2]),
                        1..=4 => {
                            let w = pool[arg % pool.len()];
                            sess.elementwise(bin_ops[arg % bin_ops.len()], v, w)
                        }
                        5 => sess.reduce(bin_ops[arg % 4], v),
                        6 => sess.histogram(v, 1 + arg % 9, 80),
                        7 => sess.select(v, (arg % 61) as i32 - 10),
                        8 => sess.time_series(v, 1 + arg % len.min(4)),
                        9 => sess.gemm(ins[0], ins[1]),
                        _ => {
                            let (vp, used) = (bfs.vertices_per_dpu, bfs.used_dpus);
                            sess.bfs_step(ins[5], ins[6], ins[7], vp, degree, used)
                        }
                    };
                    if matches!(kind % 11, 0..=4) {
                        pool.push(h);
                    }
                    outs.push(h);
                }
                let ran = if fed {
                    let feeds: Vec<(TensorHandle, &[i32])> = ins
                        .iter()
                        .zip(&round.data)
                        .map(|(&h, d)| (h, &d[..]))
                        .collect();
                    sess.run_with(&feeds)
                } else {
                    sess.run()
                };
                outcomes.push(ran.map(|()| outs.iter().map(|&h| sess.fetch(h)).collect()));
            }
            (
                outcomes,
                *sess.upmem_stats(),
                sess.fault_stats(),
                sess.residency_stats(),
                sess.shard_stats().work,
                sess.optimizer_stats().fused_groups,
            )
        };

        let what = format!(
            "case {case}: {dpus} DPUs, {threads} threads, len {len}, residency {residency}, \
             {policy:?}, {fault:?}"
        );
        let unlimited = run(true, None);
        assert_eq!(unlimited, run(false, None), "{what}");
        // A limit below what the rounds hold together, so a later round
        // evicts an earlier one's tensors (or refuses, the same way on both).
        let peak = unlimited.3.peak_mram_bytes;
        let limit = peak * gen_usize(rng, 35, 100) / 100;
        let capped = run(true, Some(limit));
        assert_eq!(capped, run(false, Some(limit)), "{what}, limit {limit}");
        fused += (unlimited.5 > 0) as usize;
        sharded += (unlimited.4[1] + unlimited.4[2] > 0) as usize;
        evicted += (capped.3.evictions > 0) as usize;
        faulted += (unlimited.2 != Default::default()) as usize;
    });
    assert!(fused > 0, "some graphs should fuse element-wise chains");
    assert!(
        sharded > 0,
        "some Auto plans should run host or crossbar shards"
    );
    assert!(evicted > 0, "some limits should evict");
    assert!(faulted > 0, "some schedules should inject faults");
}

/// An `input` tensor the run does not feed has no contents to run on.
#[test]
#[should_panic(expected = "no valid copy")]
fn fed_inputs_left_unfed_panic() {
    use cinm::core::{Session, TensorShape};
    let mut sess = Session::new(session_options(true));
    let x = sess.input(TensorShape::Vector { len: 8 });
    let w = sess.vector(&[1; 8]);
    sess.elementwise(BinOp::Add, x, w);
    let _ = sess.run_with(&[(w, &[2; 8])]);
}

/// A feed must hold exactly the tensor's elements.
#[test]
#[should_panic(expected = "feed length mismatch")]
fn fed_inputs_of_the_wrong_length_panic() {
    use cinm::core::{Session, TensorShape};
    let mut sess = Session::new(session_options(true));
    let x = sess.input(TensorShape::Vector { len: 8 });
    sess.reduce(BinOp::Add, x);
    let _ = sess.run_with(&[(x, &[1; 7])]);
}

/// A fed tensor is lent for its run only: afterwards it holds no copy on
/// either side, so fetching it panics — while the run's outputs stay
/// fetchable and the tensor can be fed again.
#[test]
fn fed_inputs_hold_no_copy_after_the_run() {
    use cinm::core::{Session, TensorShape};
    let mut sess = Session::new(session_options(true));
    let x = sess.input(TensorShape::Vector { len: 8 });
    let data: Vec<i32> = (0..8).collect();
    let s = sess.reduce(BinOp::Add, x);
    sess.run_with(&[(x, &data)]).expect("cnm placement");
    assert_eq!(sess.fetch_scalar(s), 28);
    let fetched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sess.fetch(x)));
    assert!(fetched.is_err(), "a fed tensor has no copy after its run");
    let s = sess.reduce(BinOp::Add, x);
    sess.run_with(&[(x, &[1; 8])]).expect("cnm placement");
    assert_eq!(sess.fetch_scalar(s), 8);
    assert_eq!(
        sess.run_counts(),
        (2, 1),
        "the second feed replays the plan"
    );
}

/// Feeding a tensor changes its contents as `write` does: an earlier output
/// computed from it can no longer be recomputed from it, so when MRAM
/// pressure evicts that output it is spilled, never dropped, and stays
/// fetchable after the tensor is fed other data.
#[test]
fn fed_inputs_fed_again_keep_earlier_outputs_fetchable() {
    use cinm::core::{Session, TensorShape};
    // gemm(8×1, 1×16) on 4 DPUs: per DPU 8 B of A, 64 B of B and 128 B of
    // C, so a second C does not fit beside the first under 200 B.
    let mut sess = Session::new(session_options(true).with_mram_limit_bytes(200));
    let a = sess.input(TensorShape::Matrix { rows: 8, cols: 1 });
    let b = sess.input(TensorShape::Matrix { rows: 1, cols: 16 });
    let (a1, b1): (Vec<i32>, Vec<i32>) = ((1..=8).collect(), (1..=16).collect());
    let c1 = sess.gemm(a, b);
    sess.pin(c1);
    sess.run_with(&[(a, &a1), (b, &b1)]).expect("fits");
    let (a2, b2) = (vec![-1; 8], vec![3; 16]);
    let c2 = sess.gemm(a, b);
    sess.run_with(&[(a, &a2), (b, &b2)])
        .expect("fits after evicting c1");
    assert_eq!(
        sess.residency_stats().spills,
        1,
        "c1 is spilled, not dropped"
    );
    assert_eq!(sess.fetch(c1), kernels::matmul(&a1, &b1, 8, 1, 16));
    assert_eq!(sess.fetch(c2), kernels::matmul(&a2, &b2, 8, 1, 16));
}

// ---------------------------------------------------------------------------
// Graph optimizer: optimized runs vs the unoptimized oracle
// ---------------------------------------------------------------------------

/// The graph optimizer (CSE, DCE, element-wise fusion) never changes
/// results: randomized multi-op graphs — element-wise chains, duplicated
/// ops, some intermediates discarded — run bit-identically with the
/// optimizer on and off, across host thread counts {1, 8}, over repeated
/// runs (so optimized plans replay), and under transient fault schedules.
#[test]
fn optimized_session_graphs_match_the_unoptimized_oracle() {
    use cinm::core::{Session, TensorHandle};
    use cinm::runtime::FaultConfig;
    for_cases(60, |rng| {
        let len = gen_usize(rng, 8, 200);
        let cols = gen_usize(rng, 4, 32);
        let a_mat = data::i32_vec(rng.next_u64(), len * cols, -8, 8);
        let x_vec = data::i32_vec(rng.next_u64(), cols, -8, 8);
        let v0 = data::i32_vec(rng.next_u64(), len, -64, 64);
        let v1 = data::i32_vec(rng.next_u64(), len, -64, 64);
        let n_ops = gen_usize(rng, 2, 9);
        // (kind, pick_a, pick_b, op_pick); element-wise ops dominate so
        // chains long enough to fuse appear regularly. pick_b % 4 == 0
        // discards an element-wise intermediate.
        let tape: Vec<(usize, usize, usize, usize)> = (0..n_ops)
            .map(|_| {
                (
                    gen_usize(rng, 0, 7),
                    gen_usize(rng, 0, 1000),
                    gen_usize(rng, 0, 1000),
                    gen_usize(rng, 0, 9),
                )
            })
            .collect();
        let threads = [1usize, 8][gen_usize(rng, 0, 2)];
        let fault = (gen_usize(rng, 0, 2) == 1).then(|| {
            FaultConfig::seeded(rng.next_u64())
                .with_launch_fault_rate(gen_usize(rng, 0, 9) as f64 / 100.0)
                .with_transfer_timeout_rate(gen_usize(rng, 0, 5) as f64 / 100.0)
        });
        let bin_ops = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Max,
            BinOp::Min,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
        ];

        // Two identical rounds per session: round two replays the
        // (optimized) compiled plan.
        let run_graph = |optimizer: bool| -> Vec<Vec<Vec<i32>>> {
            let mut cfg = UpmemConfig::with_ranks(1);
            cfg.dpus_per_rank = 4;
            let mut opts = cinm::core::SessionOptions::default()
                .with_upmem_config(cfg.with_host_threads(threads))
                .with_policy(cinm::core::ShardPolicy::Single(cinm::core::Target::Cnm))
                .with_residency(true)
                .with_optimizer(optimizer);
            if let Some(f) = &fault {
                opts = opts.with_fault(f.clone());
            }
            let mut sess = Session::new(opts);
            let at = sess.matrix(&a_mat, len, cols);
            let xt = sess.vector(&x_vec);
            let t0 = sess.vector(&v0);
            let t1 = sess.vector(&v1);
            let mut rounds = Vec::new();
            for round in 0..2 {
                let mut pool: Vec<TensorHandle> = vec![t0, t1];
                let mut fetches: Vec<TensorHandle> = Vec::new();
                for &(kind, pick_a, pick_b, op_pick) in &tape {
                    match kind {
                        0 => {
                            let h = sess.gemv(at, xt);
                            pool.push(h);
                            fetches.push(h);
                        }
                        1..=4 => {
                            let (i, j) = (pick_a % pool.len(), pick_b % pool.len());
                            let h = sess.elementwise(
                                bin_ops[op_pick % bin_ops.len()],
                                pool[i],
                                pool[j],
                            );
                            pool.push(h);
                            if pick_b % 4 == 0 {
                                sess.discard(h);
                            } else {
                                fetches.push(h);
                            }
                        }
                        5 => {
                            let i = pick_a % pool.len();
                            fetches.push(sess.reduce(bin_ops[op_pick % bin_ops.len()], pool[i]));
                        }
                        _ => {
                            let i = pick_a % pool.len();
                            fetches.push(sess.select(pool[i], (pick_b % 21) as i32 - 10));
                        }
                    }
                }
                sess.run().expect("cnm graph must run");
                rounds.push(fetches.iter().map(|&h| sess.fetch(h)).collect());
                let _ = round;
            }
            rounds
        };

        let unoptimized = run_graph(false);
        let optimized = run_graph(true);
        assert_eq!(
            unoptimized, optimized,
            "optimizer changed results: len={len} cols={cols} threads={threads} fault={fault:?}"
        );
    });
}

// ---------------------------------------------------------------------------
// Bounded MRAM: capped sessions and serving mixes vs the unlimited oracle
// ---------------------------------------------------------------------------

/// Randomized session graphs under randomized per-DPU MRAM limits — with and
/// without a seeded fault schedule — either refuse with the typed
/// `MramExhausted` error (the limit is below the graph's minimal working
/// set) or run bit-identically to the unlimited oracle, rematerializing and
/// spilling as needed. The allocator's high-water mark never exceeds the
/// limit.
#[test]
fn capped_session_graphs_are_typed_errors_or_bit_identical() {
    use cinm::core::{ResidencyStats, Session, TensorHandle};
    use cinm::lowering::ShardError;
    use cinm::runtime::FaultConfig;
    let mut evicted_cases = 0u32;
    let mut refused_cases = 0u32;
    for_cases(70, |rng| {
        let len = gen_usize(rng, 8, 200);
        let cols = gen_usize(rng, 4, 32);
        let a_mat = data::i32_vec(rng.next_u64(), len * cols, -8, 8);
        let x_vec = data::i32_vec(rng.next_u64(), cols, -8, 8);
        let v0 = data::i32_vec(rng.next_u64(), len, -64, 64);
        let v1 = data::i32_vec(rng.next_u64(), len, -64, 64);
        let n_ops = gen_usize(rng, 1, 6);
        let tape: Vec<(usize, usize, usize, usize)> = (0..n_ops)
            .map(|_| {
                (
                    gen_usize(rng, 0, 5),
                    gen_usize(rng, 0, 1000),
                    gen_usize(rng, 0, 1000),
                    gen_usize(rng, 0, 9),
                )
            })
            .collect();
        let fault = (gen_usize(rng, 0, 3) == 0).then(|| {
            FaultConfig::seeded(rng.next_u64())
                .with_launch_fault_rate(gen_usize(rng, 0, 9) as f64 / 100.0)
                .with_transfer_timeout_rate(gen_usize(rng, 0, 5) as f64 / 100.0)
        });
        let bin_ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Max, BinOp::Min];

        let run_graph =
            |limit: Option<usize>| -> Result<(Vec<Vec<i32>>, ResidencyStats), ShardError> {
                let mut opts = session_options(true);
                if let Some(bytes) = limit {
                    opts = opts.with_mram_limit_bytes(bytes);
                }
                if let Some(f) = &fault {
                    opts = opts.with_fault(f.clone());
                }
                let mut sess = Session::new(opts);
                let at = sess.matrix(&a_mat, len, cols);
                let xt = sess.vector(&x_vec);
                let t0 = sess.vector(&v0);
                let t1 = sess.vector(&v1);
                let mut fetches: Vec<TensorHandle> = Vec::new();
                // Two rounds of the tape with a run between them: eviction
                // happens across runs (a running graph's live slots are
                // protected), so round two pressures round one's residents
                // and the final fetches exercise spill/remat readback.
                for _round in 0..2 {
                    let mut pool: Vec<TensorHandle> = vec![t0, t1];
                    for &(kind, pick_a, pick_b, op_pick) in &tape {
                        let h = match kind {
                            0 => {
                                let h = sess.gemv(at, xt);
                                pool.push(h);
                                h
                            }
                            1 | 2 => {
                                let (i, j) = (pick_a % pool.len(), pick_b % pool.len());
                                let h = sess.elementwise(
                                    bin_ops[op_pick % bin_ops.len()],
                                    pool[i],
                                    pool[j],
                                );
                                pool.push(h);
                                h
                            }
                            3 => {
                                let i = pick_a % pool.len();
                                sess.reduce(bin_ops[op_pick % bin_ops.len()], pool[i])
                            }
                            4 => {
                                let i = pick_a % pool.len();
                                sess.histogram(pool[i], 2 + op_pick % 15, 128)
                            }
                            _ => {
                                let i = pick_a % pool.len();
                                sess.select(pool[i], (pick_b % 21) as i32 - 10)
                            }
                        };
                        // Pinned values survive across the two runs (a pin
                        // is a lifetime promise, not a residency one — they
                        // stay evictable under pressure).
                        sess.pin(h);
                        fetches.push(h);
                    }
                    sess.run()?;
                }
                let outs = fetches.iter().map(|&h| sess.fetch(h)).collect();
                Ok((outs, sess.residency_stats()))
            };

        let (baseline, _) = run_graph(None).expect("the unlimited oracle must run");
        let limit = 4 * gen_usize(rng, 8, 600);
        match run_graph(Some(limit)) {
            Ok((outs, res)) => {
                assert_eq!(
                    outs, baseline,
                    "capped run diverged: limit={limit} len={len} cols={cols} fault={fault:?}"
                );
                assert!(
                    res.peak_mram_bytes <= limit,
                    "allocator exceeded the {limit}-byte limit: {res:?}"
                );
                if res.evictions > 0 {
                    evicted_cases += 1;
                }
            }
            Err(ShardError::MramExhausted {
                needed_bytes,
                available_bytes,
            }) => {
                assert!(needed_bytes > available_bytes);
                refused_cases += 1;
            }
            Err(other) => panic!("capacity refusal must be typed, got {other}"),
        }
    });
    // The limit range straddles the workloads' working sets, so both
    // regimes occur (deterministic seeds — this is not flaky).
    assert!(evicted_cases > 0, "no case exercised eviction");
    assert!(refused_cases > 0, "no case exercised the typed refusal");
}

/// A ring of 16 pinned device-only accumulators, each produced by its own
/// run and then touched round-robin twice, under 100 / 50 / 25 % of the
/// unlimited run's peak MRAM. The full tier fits without evicting; the
/// quarter tier evicts pinned values and brings them back by spill or
/// rematerialization (the random graphs above mostly free-drop); no tier
/// overshoots its limit and every touch reads bit-equal to the unlimited
/// run.
#[test]
fn pinned_accumulator_ring_is_bit_identical_at_graded_mram_limits() {
    use cinm::core::{ResidencyStats, Session};
    const RING: usize = 16;
    let len = 1 << 10;
    let base_vec = data::i32_vec(0xA11, len, -64, 64);
    let xs: Vec<Vec<i32>> = (0..4)
        .map(|i| data::i32_vec(90 + i, len, -64, 64))
        .collect();

    let run_tier = |limit: Option<usize>| -> (Vec<Vec<i32>>, ResidencyStats) {
        let mut opts = session_options(true);
        if let Some(bytes) = limit {
            opts = opts.with_mram_limit_bytes(bytes);
        }
        let mut sess = Session::new(opts);
        let x = sess.vector(&xs[0]);
        let base = sess.vector(&base_vec);
        // One run per accumulator: eviction is a between-runs decision, so
        // a run's working set stays small however big the ring is.
        let accs: Vec<_> = (0..RING)
            .map(|j| {
                sess.write(x, &xs[j % xs.len()]);
                let acc = sess.elementwise(BinOp::Add, base, x);
                sess.pin(acc);
                sess.run().expect("one accumulator at a time fits");
                acc
            })
            .collect();
        let touched = (0..2 * RING)
            .map(|i| {
                sess.write(x, &xs[i % xs.len()]);
                let z = sess.elementwise(BinOp::Add, accs[i % RING], x);
                sess.run().expect("a capped ring restores evicted tensors");
                sess.fetch(z)
            })
            .collect();
        (touched, sess.residency_stats())
    };

    let (baseline, unlimited) = run_tier(None);
    let tier = |percent: usize| {
        let limit = unlimited.peak_mram_bytes * percent / 100;
        let (touched, res) = run_tier(Some(limit));
        assert_eq!(touched, baseline, "the {percent}% tier diverged");
        assert!(
            res.peak_mram_bytes <= limit,
            "the {percent}% tier overshot {limit} bytes: {res:?}"
        );
        res
    };
    assert_eq!(tier(100).evictions, 0, "the 100% tier fits the whole ring");
    tier(50);
    let quarter = tier(25);
    assert!(
        quarter.evictions > 0,
        "the 25% tier must evict: {quarter:?}"
    );
    assert!(
        quarter.spilled_bytes > 0 || quarter.remat_ops > 0,
        "the 25% tier must spill or rematerialize: {quarter:?}"
    );
}

/// A multi-tenant serving mix whose shape classes do not fit the MRAM
/// budget together stays bit-identical to the host oracle: admission and
/// scheduling evict cold classes' reloadable weights and transparently
/// re-admit them, with the ledger and allocator never exceeding the limit.
#[test]
fn capped_serving_mixes_stay_bit_identical_under_eviction_pressure() {
    use cinm::core::{ServerOptions, SessionServer, TenantSpec};
    for_cases(71, |rng| {
        let dpus = 8usize;
        let tenant_slots = 4usize;
        let slot_dpus = dpus / tenant_slots;
        // Distinct gemv shapes form distinct shape classes.
        let n_classes = gen_usize(rng, 2, 5);
        let shapes: Vec<(usize, usize)> = (0..n_classes)
            .map(|i| (gen_usize(rng, 1, 9) + 8 * i, gen_usize(rng, 1, 9)))
            .collect();
        let class_bytes: Vec<usize> = shapes
            .iter()
            .map(|&(rows, cols)| {
                let rpd = rows.div_ceil(slot_dpus);
                4 * (rpd * cols + cols + rpd)
            })
            .collect();
        let max_bytes = *class_bytes.iter().max().unwrap();
        let sum_bytes: usize = class_bytes.iter().sum();
        // Every class fits alone, never all at once: eviction pressure is
        // guaranteed while the true working set always fits.
        let limit = max_bytes + gen_usize(rng, 0, sum_bytes - max_bytes);

        let mut cfg = UpmemConfig::with_ranks(1);
        cfg.dpus_per_rank = dpus;
        cfg.host_threads = 1;
        let mut server = SessionServer::new(
            ServerOptions::default()
                .with_upmem_config(cfg)
                .with_tenant_slots(tenant_slots)
                .with_mram_limit_bytes(limit),
        );
        let mut models = Vec::new();
        let mut weights = Vec::new();
        for (i, &(rows, cols)) in shapes.iter().enumerate() {
            let t = server.register_tenant(TenantSpec::new(format!("tenant-{i}")));
            let a = data::i32_vec(rng.next_u64(), rows * cols, -9, 9);
            models.push(server.load_gemv_weights(t, &a, rows, cols).unwrap());
            weights.push(a);
        }
        for round in 0..2 {
            for (i, &(rows, cols)) in shapes.iter().enumerate() {
                let x = data::i32_vec(rng.next_u64(), cols, -9, 9);
                let ticket = server.submit(models[i], &x).unwrap();
                let y = server.wait(ticket).unwrap();
                assert_eq!(
                    y,
                    kernels::matvec(&weights[i], &x, rows, cols),
                    "round {round} class {i} ({rows}x{cols}) limit {limit}"
                );
            }
        }
        let snap = server.residency_snapshot();
        assert!(snap.evictions > 0, "limit {limit} < sum {sum_bytes}");
        assert!(snap.reloads > 0, "evicted classes were reused");
        assert!(server.mram_used_bytes() <= limit);
        assert!(snap.peak_mram_bytes <= limit, "{snap:?}");
        assert_eq!(snap.limit_bytes, limit);
    });
}

/// A limit below the minimal working set is a typed, recoverable error —
/// deterministic complement to the randomized property above.
#[test]
fn limits_below_the_working_set_refuse_with_typed_errors() {
    use cinm::core::Session;
    use cinm::lowering::ShardError;
    let mut sess = Session::new(session_options(true).with_mram_limit_bytes(64));
    let a = data::i32_vec(7, 64 * 32, -8, 8);
    let x = data::i32_vec(8, 32, -8, 8);
    let at = sess.matrix(&a, 64, 32);
    let xt = sess.vector(&x);
    let _y = sess.gemv(at, xt);
    match sess.run() {
        Err(ShardError::MramExhausted {
            needed_bytes,
            available_bytes,
        }) => assert!(needed_bytes > available_bytes),
        other => panic!("expected MramExhausted, got {other:?}"),
    }
}

/// DTR's victim, not the least recently used one: a small vector last used
/// two runs ago and a large matrix used in the last run are resident, and
/// the next op needs room for one more output. Bringing either back costs
/// one latency-bound transfer, so the matrix, which frees 32 times the
/// bytes, is the cheaper victim per byte even though it is fresher. The
/// vector stays resident: an op reading it uploads nothing.
#[test]
fn under_pressure_the_fresher_large_matrix_goes_before_the_stale_small_vector() {
    use cinm::core::Session;
    let (rows, cols) = (64, 32);
    let v = data::i32_vec(1, rows, -8, 8);
    let a = data::i32_vec(2, rows * cols, -8, 8);
    let x = data::i32_vec(3, cols, -8, 8);
    // Per DPU of 8: `v` and each vector output 32 B, `a` 1 KB, `x` 128 B.
    let mut sess = Session::new(session_options_on(8, true).with_mram_limit_bytes(1248 + 16));
    let (vt, at, xt) = (
        sess.vector(&v),
        sess.matrix(&a, rows, cols),
        sess.vector(&x),
    );
    let twice = |t: &[i32]| t.iter().map(|e| e + e).collect::<Vec<i32>>();
    let w = sess.elementwise(BinOp::Add, vt, vt);
    sess.pin(w);
    sess.run().unwrap();
    assert_eq!(sess.fetch(w), twice(&v));
    let y = sess.gemv(at, xt);
    sess.pin(y);
    sess.run().unwrap();
    assert_eq!(sess.residency_stats().used_mram_bytes, 1248);
    let z = sess.elementwise(BinOp::Add, y, y);
    sess.pin(z);
    sess.run().unwrap();
    let res = sess.residency_stats();
    assert_eq!(
        (res.evictions, res.spills, res.remat_drops),
        (1, 0, 0),
        "{res:?}"
    );
    assert_eq!(
        res.used_mram_bytes,
        1248 + 32 - 1024,
        "the matrix went: {res:?}"
    );
    let h2d = sess.upmem_stats().host_to_dpu_bytes;
    let w2 = sess.elementwise(BinOp::Add, vt, vt);
    sess.pin(w2);
    sess.run().unwrap();
    assert_eq!(
        sess.upmem_stats().host_to_dpu_bytes,
        h2d,
        "the vector stayed"
    );
    assert_eq!(sess.fetch(w2), twice(&v));
    assert_eq!(sess.fetch(z), twice(&kernels::matvec(&a, &x, rows, cols)));
}

/// The server ranks idle shape classes by the same rule: of three classes
/// of 20, 176 and 1 152 B per DPU, dispatched smallest first, a fourth
/// class's 56 B evict the large, most recently dispatched one, where the
/// least recently used order would evict the small and then the medium
/// one. The small and the medium class then serve without a reload.
#[test]
fn serving_evicts_the_class_with_the_cheapest_reload_per_byte_and_round() {
    use cinm::core::{ServerOptions, SessionServer, TenantSpec};
    let mut cfg = UpmemConfig::with_ranks(1);
    cfg.dpus_per_rank = 8;
    cfg.host_threads = 1;
    // Four tenant slots of 2 DPUs: gemv `r x c` takes `4 (r c / 2 + c + r / 2)` B.
    let mut server = SessionServer::new(
        ServerOptions::default()
            .with_upmem_config(cfg)
            .with_tenant_slots(4)
            .with_mram_limit_bytes(20 + 176 + 1152 + 16),
    );
    let shapes = [(2, 2), (8, 8), (32, 16), (4, 4)];
    let weights: Vec<Vec<i32>> = (0..4)
        .map(|i| data::i32_vec(10 + i as u64, shapes[i].0 * shapes[i].1, -9, 9))
        .collect();
    let mut models = Vec::new();
    let serve = |server: &mut SessionServer, i: usize, m| {
        let (rows, cols) = shapes[i];
        let x = data::i32_vec(20 + i as u64, cols, -9, 9);
        let y = server.submit(m, &x).and_then(|q| server.wait(q)).unwrap();
        assert_eq!(y, kernels::matvec(&weights[i], &x, rows, cols), "class {i}");
    };
    for (i, &(rows, cols)) in shapes.iter().enumerate() {
        let t = server.register_tenant(TenantSpec::new(format!("tenant-{i}")));
        models.push(
            server
                .load_gemv_weights(t, &weights[i], rows, cols)
                .unwrap(),
        );
        if i < 3 {
            serve(&mut server, i, models[i]);
        }
    }
    let snap = server.residency_snapshot();
    assert_eq!(snap.evictions, 1, "{snap:?}");
    assert_eq!(snap.used_mram_bytes, 20 + 176 + 56, "the large class went");
    for i in [0, 1, 3, 2] {
        serve(&mut server, i, models[i]);
    }
    let snap = server.residency_snapshot();
    assert_eq!(snap.reloads, 1, "only the large class came back: {snap:?}");
}

/// Price is the bill for a session. Seeded random session graphs at test
/// scale — `gemv`, `gemm`, element-wise, `reduce`, `histogram` and `select`
/// over a pool of earlier results, 1–4 ops per run, half of the element-wise
/// ops reading the newest tensor so that chains fuse — run under `Auto`,
/// `Single(Cnm)`, `Single(Host)` and `MinimizeEnergy`, residency on and off,
/// MRAM limited or not; then a ring of accumulators runs under half the MRAM
/// it needs, so that runs spill and rematerialize. The session publishes the
/// price of each run per device
/// (`session.planned.{cnm,cim,host}.{seconds,joules}`); per run it equals
/// the growth of the simulators' statistics: bit for bit on the grid — fused
/// launches, spills and rematerializations included — and on the host,
/// within 1e-12 on the crossbar. Runs an MRAM limit refuses are skipped.
#[test]
fn session_price_is_the_bill_of_every_step() {
    use cinm::core::{Session, ShardPolicy, Target, TensorHandle};
    use cinm::lowering::ShardError;
    /// Checks the last run's published price against its bill and returns
    /// the planned seconds per device.
    fn price_is_bill(sess: &Session, telemetry: &Telemetry, what: &str) -> [f64; 3] {
        let gauge = |d: Target, unit: &str| {
            let name = format!("session.planned.{d}.{unit}");
            telemetry
                .snapshot()
                .gauge(&name)
                .expect("the session publishes its price")
        };
        let grid = sess.upmem_stats();
        assert_eq!(
            gauge(Target::Cnm, "seconds"),
            grid.total_seconds(),
            "{what}: grid"
        );
        assert_eq!(
            gauge(Target::Cnm, "joules"),
            grid.total_energy_j(),
            "{what}: grid"
        );
        let cim = sess.backend().cim_backend().stats();
        let close = |planned: f64, billed: f64| (planned - billed).abs() <= 1e-12 * billed.abs();
        let what = format!("{what}: crossbar");
        assert!(
            close(gauge(Target::Cim, "seconds"), cim.total_seconds()),
            "{what}"
        );
        assert!(
            close(gauge(Target::Cim, "joules"), cim.total_energy_j()),
            "{what}"
        );
        let host = sess.backend().device(Target::Host).sim_seconds();
        assert_eq!(gauge(Target::Host, "seconds"), host, "{what}: host");
        Target::ALL.map(|d| gauge(d, "seconds"))
    }
    let policies = [
        ShardPolicy::Auto,
        ShardPolicy::Single(Target::Cnm),
        ShardPolicy::Single(Target::Host),
        ShardPolicy::MinimizeEnergy,
    ];
    let (mut steps, mut placed_on, mut fused) = (0u32, [0u32; 3], 0u32);
    for_cases(45, |rng| {
        let dpus = [4, 8, 3][gen_usize(rng, 0, 3)];
        let len = gen_edge_len(rng, dpus, 1, 200);
        let (cols, n) = (gen_usize(rng, 4, 40), gen_usize(rng, 1, 5));
        let a_mat = data::i32_vec(rng.next_u64(), len * cols, -8, 8);
        let b_mat = data::i32_vec(rng.next_u64(), cols * n, -8, 8);
        let x_vec = data::i32_vec(rng.next_u64(), cols, -8, 8);
        let v0 = data::i32_vec(rng.next_u64(), len, -64, 64);
        let runs: Vec<Vec<[usize; 3]>> = (0..gen_usize(rng, 2, 7))
            .map(|_| {
                (0..gen_usize(rng, 1, 5))
                    .map(|_| [0, 1, 2].map(|_| gen_usize(rng, 0, 1000)))
                    .collect()
            })
            .collect();
        let policy = policies[gen_usize(rng, 0, policies.len())];
        let residency = rng.next_u64() % 2 == 0;
        let limit = (rng.next_u64() % 3 == 0).then(|| 4 * gen_usize(rng, 40, 2000));
        let telemetry = Telemetry::new();
        let mut opts = session_options_on(dpus, residency)
            .with_policy(policy)
            .with_telemetry(telemetry.clone());
        if let Some(bytes) = limit {
            opts = opts.with_mram_limit_bytes(bytes);
        }
        let mut sess = Session::new(opts);
        let (at, bt, xt) = (
            sess.matrix(&a_mat, len, cols),
            sess.matrix(&b_mat, cols, n),
            sess.vector(&x_vec),
        );
        let mut pool: Vec<TensorHandle> = vec![sess.vector(&v0)];
        let bin_ops = [BinOp::Add, BinOp::Sub, BinOp::Max, BinOp::Xor];
        for run in &runs {
            sess.reset_stats();
            let groups = sess.optimizer_stats().fused_groups;
            // This run's composable outputs join the pool once it succeeds.
            let mut usable = pool.clone();
            for &[kind, pick_a, pick_b] in run {
                let newest = usable.len() - 1;
                let i = if pick_a % 2 == 0 {
                    newest
                } else {
                    pick_a % usable.len()
                };
                let (a, b) = (usable[i], usable[pick_b % usable.len()]);
                let h = match kind % 7 {
                    0 => sess.gemv(at, xt),
                    1 => sess.gemm(at, bt),
                    2 | 3 => sess.elementwise(bin_ops[pick_b % bin_ops.len()], a, b),
                    4 => sess.reduce(bin_ops[pick_b % 3], a),
                    5 => sess.histogram(a, 2 + pick_b % 15, 128),
                    _ => sess.select(a, (pick_b % 21) as i32 - 10),
                };
                if matches!(kind % 7, 0 | 2 | 3) {
                    usable.push(h);
                }
            }
            match sess.run() {
                Ok(()) => {}
                Err(ShardError::MramExhausted { .. }) if limit.is_some() => continue,
                Err(e) => panic!("{policy:?}: {e}"),
            }
            for &h in &usable[pool.len()..] {
                sess.pin(h);
            }
            pool = usable;
            let what = format!(
                "run {run:?} {policy:?} residency={residency} limit={limit:?} dpus={dpus} \
                 len={len} cols={cols} n={n}"
            );
            let planned = price_is_bill(&sess, &telemetry, &what);
            steps += 1;
            fused += u32::from(sess.optimizer_stats().fused_groups > groups);
            for d in Target::ALL {
                placed_on[d.index()] += u32::from(planned[d.index()] > 0.0);
            }
        }
    });
    // The draws place work on every device and fuse.
    assert!(
        steps > 100 && placed_on.iter().all(|&n| n > 0) && fused > 0,
        "{steps} {placed_on:?} fused {fused}"
    );

    // The ring: each run adds a fresh `gemv` result to one of four pinned
    // accumulators, with the `gemv` result it added four runs before. Under
    // half its unlimited MRAM peak the cold accumulators, which only the
    // grid holds and whose recipes read other such tensors, spill, and the
    // cold `gemv` results, recomputable from resident sources, are dropped.
    let ring = |limit: Option<usize>| {
        let telemetry = Telemetry::new();
        let mut opts = session_options_on(8, true).with_telemetry(telemetry.clone());
        if let Some(bytes) = limit {
            opts = opts.with_mram_limit_bytes(bytes);
        }
        let mut sess = Session::new(opts);
        let a = sess.matrix(&data::i32_vec(71, 64 * 8, -8, 8), 64, 8);
        let x = sess.vector(&data::i32_vec(72, 8, -8, 8));
        let mut accs: Vec<TensorHandle> = (0..4).map(|k| sess.vector(&[k; 64])).collect();
        let mut ys: Vec<TensorHandle> = Vec::new();
        for step in 0..16 {
            sess.reset_stats();
            let y = sess.gemv(a, x);
            let old = if step < 4 { y } else { ys[step - 4] };
            let acc = sess.elementwise(BinOp::Add, accs[step % 4], old);
            sess.run().expect("the ring fits half its peak");
            sess.pin(y);
            sess.pin(acc);
            ys.push(y);
            accs[step % 4] = acc;
            price_is_bill(
                &sess,
                &telemetry,
                &format!("ring step {step} limit={limit:?}"),
            );
        }
        let sums: Vec<Vec<i32>> = accs.iter().map(|&h| sess.fetch(h)).collect();
        (sums, sess.residency_stats())
    };
    let (sums, unlimited) = ring(None);
    let (capped, stats) = ring(Some(unlimited.peak_mram_bytes / 2));
    assert_eq!(capped, sums, "eviction changed a result");
    assert!(stats.spills > 0 && stats.remat_ops > 0, "{stats:?}");
}

/// Eager plans stay put: the grid's price of an op's unfiltered command
/// list is its price, bit for bit, for every plannable op on 1, 4 and 16
/// ranks — so a session with nothing resident prices as the planner always
/// did.
#[test]
fn session_price_of_the_eager_command_list_is_the_eager_price() {
    let ops = [
        CnmOp::Gemm { m: 37, k: 7, n: 3 },
        CnmOp::Gemv { rows: 700, cols: 9 },
        CnmOp::Elementwise {
            op: BinOp::Max,
            len: 4099,
        },
        CnmOp::Reduce {
            op: BinOp::Add,
            len: 5,
        },
        CnmOp::Histogram {
            bins: 16,
            max_value: 64,
            len: 999,
        },
    ];
    for ranks in [1, 4, 16] {
        let config = UpmemConfig::with_ranks(ranks);
        let dpus = config.num_dpus();
        let backend = UpmemBackend::with_config(config, UpmemRunOptions::optimized());
        let cost = UpmemDevice::new(backend).cost();
        for op in ops {
            let listed = cost.price_commands(&mut op.commands(dpus));
            assert_eq!(listed, cost.price(op), "{op:?} on {ranks} ranks");
        }
    }
}

/// The host device's kernels — one monomorphic loop per [`BinOp`] for
/// element-wise ops and reductions, a row-by-row `zip` for `gemv` — equal
/// the naive indexed loops written here, bit for bit: every operator
/// (`Div` by 0 and `i32::MIN / -1` included), `reduce`, and `gemv` with
/// `cols` in {0, 1, 7, 16, 40, 65} and `rows` from 0, on values drawn with
/// `i32::MIN`, `i32::MAX`, -1 and 0 frequent, so every wrapping path runs.
#[test]
fn host_kernels_equal_naive_indexed_loops() {
    use BinOp::*;
    fn apply(op: BinOp, x: i32, y: i32) -> i32 {
        match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            Div if y == 0 => 0,
            Div => x.wrapping_div(y),
            Max => x.max(y),
            Min => x.min(y),
            And => x & y,
            Or => x | y,
            Xor => x ^ y,
        }
    }
    let identity = |op| match op {
        Add | Sub | Or | Xor => 0,
        Mul | Div => 1,
        Max => i32::MIN,
        Min => i32::MAX,
        And => -1,
    };
    let draw = |rng: &mut SplitMix64, len: usize| -> Vec<i32> {
        (0..len)
            .map(|_| match rng.gen_range_i32(0, 8) {
                0 => i32::MIN,
                1 => i32::MAX,
                2 => -1,
                3 => 0,
                _ => rng.next_u64() as i32,
            })
            .collect()
    };
    let mut host = cinm::lowering::HostDevice::new(cpu_sim::model::CpuModel::arm_host());
    let mut run = |op: CnmOp, operands: &[&[i32]], out_len: usize| {
        let mut out = vec![0x5a5a; out_len];
        host.run(op, operands, &mut out).expect("the host runs it");
        out
    };
    // The edge quotients, element by element.
    let (a, b) = ([i32::MIN, i32::MIN, 7, -7, 0], [-1, 0, 0, -1, -1]);
    let quotients = run(CnmOp::Elementwise { op: Div, len: 5 }, &[&a, &b], 5);
    assert_eq!(quotients, [i32::MIN, 0, 0, 7, 0]);
    let ops = [Add, Sub, Mul, Div, Max, Min, And, Or, Xor];
    for_cases(0x4057, |rng| {
        let len = gen_usize(rng, 1, 80);
        let (a, b) = (draw(rng, len), draw(rng, len));
        for op in ops {
            let mut want = vec![0; len];
            for i in 0..len {
                want[i] = apply(op, a[i], b[i]);
            }
            let got = run(CnmOp::Elementwise { op, len }, &[&a, &b], len);
            assert_eq!(got, want, "{op:?} over {len}");
            let mut acc = identity(op);
            for &v in &a {
                acc = apply(op, acc, v);
            }
            let got = run(CnmOp::Reduce { op, len }, &[&a], 1);
            assert_eq!(got, [acc], "reduce {op:?} over {len}");
        }
        for cols in [0, 1, 7, 16, 40, 65] {
            for rows in [0, gen_usize(rng, 1, 24)] {
                let (m, x) = (draw(rng, rows * cols), draw(rng, cols));
                let mut want = vec![0i32; rows];
                for r in 0..rows {
                    for c in 0..cols {
                        want[r] = want[r].wrapping_add(m[r * cols + c].wrapping_mul(x[c]));
                    }
                }
                let got = run(CnmOp::Gemv { rows, cols }, &[&m, &x], rows);
                assert_eq!(got, want, "gemv {rows}x{cols}");
            }
        }
    });
}
