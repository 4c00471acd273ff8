//! # cinm-dialects — the dialect stack of the CINM (Cinnamon) flow
//!
//! This crate defines every abstraction level of the paper's Figure 4 on top
//! of the `cinm-ir` substrate:
//!
//! * front-end dialects: [`linalg`], [`tosa`], plus the supporting [`arith`],
//!   [`tensor`], [`scf`] and [`func`] dialects;
//! * the device-agnostic [`cinm`] abstraction (Table 1) — the entry point of
//!   the flow and the op set cost models reason about;
//! * the paradigm abstractions [`cnm`] (Table 2) and [`cim`] (Table 3);
//! * the device dialects [`upmem`] and [`memristor`] that interface with the
//!   respective runtimes (here: the `upmem-sim` and `memristor-sim`
//!   simulators).
//!
//! Each module provides op-name constants, a `static` table of verification
//! constraints that its `register` function adds to a [`DialectRegistry`] by
//! reference, and typed builder helpers with shape inference.
//!
//! ```
//! use cinm_ir::prelude::*;
//! use cinm_dialects::{cinm, register_all_dialects};
//!
//! let t = Type::tensor(&[64, 64], ScalarType::I32);
//! let mut f = Func::new("gemm", vec![t.clone(), t.clone()], vec![t]);
//! let (a, b_) = (f.argument(0), f.argument(1));
//! let entry = f.body.entry_block();
//! let mut b = OpBuilder::at_end(&mut f.body, entry);
//! let c = cinm::gemm(&mut b, a, b_);
//! cinm_dialects::func::ret(&mut b, &[c]);
//!
//! let registry = register_all_dialects();
//! verify_func(&f, &registry).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arith;
pub mod cim;
pub mod cinm;
pub mod cnm;
pub mod func;
pub mod linalg;
pub mod memristor;
pub mod scf;
pub mod tensor;
pub mod tosa;
pub mod upmem;

use cinm_ir::registry::DialectRegistry;

/// Builds a registry with every dialect of the CINM flow registered.
pub fn register_all_dialects() -> DialectRegistry {
    let mut registry = DialectRegistry::new();
    arith::register(&mut registry);
    func::register(&mut registry);
    tensor::register(&mut registry);
    scf::register(&mut registry);
    linalg::register(&mut registry);
    tosa::register(&mut registry);
    cinm::register(&mut registry);
    cnm::register(&mut registry);
    cim::register(&mut registry);
    upmem::register(&mut registry);
    memristor::register(&mut registry);
    registry
}

/// The names of the dialects in lowering order (host-independent first,
/// device dialects last), as shown in the paper's Figure 4.
pub fn lowering_order() -> Vec<&'static str> {
    vec![
        "tosa",
        "linalg",
        "cinm",
        "cnm",
        "cim",
        "upmem",
        "memristor",
        "scf",
        "arith",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_dialects_register_without_conflicts() {
        let tables = [
            ("arith", arith::OPS),
            ("func", func::OPS),
            ("tensor", tensor::OPS),
            ("scf", scf::OPS),
            ("linalg", linalg::OPS),
            ("tosa", tosa::OPS),
            ("cinm", cinm::OPS),
            ("cnm", cnm::OPS),
            ("cim", cim::OPS),
            ("upmem", upmem::OPS),
            ("memristor", memristor::OPS),
        ];
        let r = register_all_dialects();
        for (dialect, ops) in tables {
            assert!(
                r.has_dialect(dialect),
                "dialect {dialect} must be registered"
            );
            let names: Vec<&str> = ops.iter().map(|c| c.name).collect();
            assert!(names.is_sorted());
            assert_eq!(r.ops_of_dialect(dialect), names);
            for c in ops {
                assert_eq!(c.dialect(), dialect);
                assert!(std::ptr::eq(r.constraint(c.name).unwrap(), c), "{}", c.name);
                // One byte off is no op of any table.
                let mut off = c.name.as_bytes().to_vec();
                *off.last_mut().unwrap() ^= 1;
                let off = String::from_utf8(off).unwrap();
                assert!(r.constraint(&off).is_none(), "{off}");
            }
            assert!(r.constraint(dialect).is_none());
        }
        assert!(r.constraint("").is_none());
        assert!(r.constraint("cinm.").is_none());
        assert!(r.constraint("nosuch.op").is_none());
        // What the per-call registrations added up to, plus `cinm.yield`.
        assert_eq!(r.num_ops(), 106 + 1);
    }

    #[test]
    fn lowering_order_starts_high_and_ends_low() {
        let order = lowering_order();
        assert_eq!(order.first(), Some(&"tosa"));
        assert!(order.iter().position(|&d| d == "cinm") < order.iter().position(|&d| d == "cnm"));
        assert!(order.iter().position(|&d| d == "cnm") < order.iter().position(|&d| d == "upmem"));
    }
}
