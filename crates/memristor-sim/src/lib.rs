//! # memristor-sim — a memristive crossbar CIM accelerator simulator
//!
//! The CINM paper evaluates its CIM backend on a gem5 model of a PCM-based
//! accelerator with four 64×64 crossbar tiles (the OCC setup). This crate
//! stands in for that model: crossbar tiles are programmed with weight
//! matrices (slow, energy-hungry NVM writes with write-verify), analog
//! matrix-vector products execute in near-constant time per tile with
//! bit-sliced operands and shared-ADC readout, and every operation is
//! accounted in time and energy.
//!
//! The `memristor` device dialect of `cinm-dialects` maps 1:1 onto this API:
//! `memristor.write_to_crossbar` → [`CrossbarAccelerator::write_tile`],
//! `memristor.gemm_tile`/`gevm_tile` → [`CrossbarAccelerator::gemm_tile`] /
//! [`CrossbarAccelerator::mvm`], and unrolled parallel tiles →
//! [`CrossbarAccelerator::mvm_parallel`]. A band of output rows against a
//! batch of programmed tiles — what the tiled GEMM issues per step — is one
//! [`CrossbarAccelerator::mvm_band`] call.
//!
//! ```
//! use memristor_sim::{CrossbarAccelerator, CrossbarConfig};
//!
//! # fn main() -> Result<(), memristor_sim::CimError> {
//! let mut xbar = CrossbarAccelerator::new(CrossbarConfig::default());
//! xbar.write_tile(0, &[1, 2, 3, 4], 2, 2)?;
//! let y = xbar.mvm(0, &[10, 1])?;
//! assert_eq!(&y[..2], &[13, 24]);
//! assert_eq!(xbar.stats().tile_writes, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod crossbar;

pub use cinm_runtime::{resolve_threads, FaultConfig, FaultInjector, FaultKind, PoolHandle};

pub use config::CrossbarConfig;
pub use crossbar::{BandTile, CimError, CimResult, CimStats, CrossbarAccelerator};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_matmul_through_tiles_matches_reference() {
        // 128x64 times 64x64 computed tile by tile equals the host reference.
        let m = 128;
        let k = 64;
        let n = 64;
        let a: Vec<i32> = (0..m * k).map(|i| (i % 7) as i32 - 3).collect();
        let b: Vec<i32> = (0..k * n).map(|i| (i % 5) as i32 - 2).collect();

        let mut reference = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc = acc.wrapping_add(a[i * k + p].wrapping_mul(b[p * n + j]));
                }
                reference[i * n + j] = acc;
            }
        }

        let mut xbar = CrossbarAccelerator::new(CrossbarConfig::default());
        xbar.write_tile(0, &b, k, n).unwrap();
        let out = xbar.gemm_tile(0, &a, m, k).unwrap();
        let cols = xbar.config().tile_cols;
        for i in 0..m {
            assert_eq!(&out[i * cols..i * cols + n], &reference[i * n..(i + 1) * n]);
        }
    }
}
