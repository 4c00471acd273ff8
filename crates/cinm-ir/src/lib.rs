//! # cinm-ir — the IR substrate of the CINM (Cinnamon) reproduction
//!
//! This crate provides an MLIR-like multi-level intermediate representation:
//! typed SSA values, operations with attributes and nested regions, blocks,
//! functions and modules, plus the infrastructure the Cinnamon compilation
//! flow needs on top of it — a builder, a textual printer, a dialect
//! registry with a structural verifier and a pass manager.
//!
//! The paper's contribution (the `cinm`/`cnm`/`cim` abstractions and their
//! progressive lowering) is defined in the `cinm-dialects` and
//! `cinm-lowering` crates on top of this substrate.
//!
//! ## Quick example
//!
//! ```
//! use cinm_ir::prelude::*;
//!
//! // Build the device-agnostic GEMM of the paper's Figure 3b.
//! let t = Type::tensor(&[64, 64], ScalarType::I32);
//! let mut func = Func::new("matmul", [t, t, t], vec![t]);
//! let args = func.arguments();
//! let entry = func.body.entry_block();
//! let mut b = OpBuilder::at_end(&mut func.body, entry);
//! let d = b
//!     .op("linalg.matmul")
//!     .operands([args[0], args[1], args[2]])
//!     .result(t)
//!     .push();
//! b.op("func.return").operand(d.result()).push();
//!
//! let mut module = Module::new("example");
//! module.add_func(func);
//! let text = print_module(&module);
//! assert!(text.contains("linalg.matmul"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod affine;
pub mod attributes;
pub mod builder;
pub mod error;
pub mod ir;
pub mod pass;
pub mod printer;
pub mod registry;
pub mod types;

pub use affine::{AffineExpr, AffineMap};
pub use attributes::{AttrMap, Attribute};
pub use builder::{BuiltOp, OpBuilder, OpSpec};
pub use error::{IrError, IrResult};
pub use ir::{
    BlockId, Body, Func, IdRange, Module, OpId, OpName, Operation, RegionId, ValueId, ValueKind,
};
pub use pass::{Pass, PassManager, PassResult, PipelineStats};
pub use printer::{func_lines_of_code, print_func, print_module};
pub use registry::{verify_func, verify_module, DialectRegistry, OpConstraint};
pub use types::{
    CnmBufferType, CnmWorkgroupType, MemRefType, MemorySpace, ScalarType, Shape, TensorType, Type,
    MAX_RANK,
};

/// Commonly used items, for glob import in downstream crates and examples.
pub mod prelude {
    pub use crate::affine::{AffineExpr, AffineMap};
    pub use crate::attributes::{AttrMap, Attribute};
    pub use crate::builder::{BuiltOp, OpBuilder, OpSpec};
    pub use crate::error::{IrError, IrResult};
    pub use crate::ir::{
        BlockId, Body, Func, IdRange, Module, OpId, OpName, Operation, RegionId, ValueId, ValueKind,
    };
    pub use crate::pass::{Pass, PassManager, PassResult};
    pub use crate::printer::{func_lines_of_code, print_func, print_module};
    pub use crate::registry::{verify_func, verify_module, DialectRegistry, OpConstraint};
    pub use crate::types::{MemorySpace, ScalarType, Shape, Type};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_core_types() {
        let _ = Type::i32();
        let _ = Module::new("m");
        let _ = DialectRegistry::new();
        let _ = AffineMap::identity(2);
        assert_eq!(ScalarType::I32.byte_width(), 4);
    }
}
