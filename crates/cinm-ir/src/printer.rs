//! Textual printing of the IR in an MLIR-like syntax.
//!
//! The printer is used for debugging, for golden tests of the lowering
//! passes, and to count the lines-of-code of the CINM representation for the
//! paper's Table 4.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::ir::{BlockId, Body, Func, Module, OpId, RegionId, ValueId};

/// Prints a whole module.
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "module @{} {{", module.name);
    for func in &module.funcs {
        let printed = print_func(func);
        for line in printed.lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Prints one function.
pub fn print_func(func: &Func) -> String {
    let mut p = Printer::new(&func.body);
    p.print_func(func);
    p.out
}

/// Counts the non-empty lines of the printed representation of a function.
///
/// This is the metric used to reproduce Table 4 ("CINM (MLIR)" column).
pub fn func_lines_of_code(func: &Func) -> usize {
    print_func(func)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count()
}

struct Printer<'a> {
    body: &'a Body,
    names: HashMap<ValueId, String>,
    next_value: usize,
    out: String,
}

impl<'a> Printer<'a> {
    fn new(body: &'a Body) -> Self {
        Printer {
            body,
            names: HashMap::new(),
            next_value: 0,
            out: String::new(),
        }
    }

    fn name_of(&mut self, v: ValueId) -> String {
        if let Some(n) = self.names.get(&v) {
            return n.clone();
        }
        let n = format!("%{}", self.next_value);
        self.next_value += 1;
        self.names.insert(v, n.clone());
        n
    }

    fn print_func(&mut self, func: &Func) {
        let entry = self.body.entry_block();
        let args = self.body.block_args(entry).to_vec();
        let mut sig = String::new();
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                sig.push_str(", ");
            }
            let name = self.name_of(*a);
            let _ = write!(sig, "{name}: {}", self.body.value_type(*a));
        }
        let mut results = String::new();
        if !func.result_types.is_empty() {
            results.push_str(" -> (");
            for (i, t) in func.result_types.iter().enumerate() {
                if i > 0 {
                    results.push_str(", ");
                }
                let _ = write!(results, "{t}");
            }
            results.push(')');
        }
        let mut attrs = String::new();
        if !func.attrs.is_empty() {
            attrs.push_str(" attributes {");
            for (i, (k, v)) in func.attrs.iter().enumerate() {
                if i > 0 {
                    attrs.push_str(", ");
                }
                let _ = write!(attrs, "{k} = {v}");
            }
            attrs.push('}');
        }
        let _ = writeln!(
            self.out,
            "func.func @{}({sig}){results}{attrs} {{",
            func.name
        );
        self.print_region_body(self.body.block_region(entry), 1, true);
        let _ = writeln!(self.out, "}}");
    }

    fn print_region_body(&mut self, region: RegionId, indent: usize, skip_entry_header: bool) {
        let blocks = self.body.region_blocks(region).to_vec();
        for (bi, block) in blocks.iter().enumerate() {
            if !(bi == 0 && skip_entry_header) {
                self.print_block_header(*block, bi, indent);
            }
            for &op in self.body.block_ops(*block) {
                if self.body.is_live(op) {
                    self.print_op(op, indent);
                }
            }
        }
    }

    fn print_block_header(&mut self, block: BlockId, index: usize, indent: usize) {
        let pad = "  ".repeat(indent);
        let args = self.body.block_args(block).to_vec();
        let mut s = String::new();
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let name = self.name_of(*a);
            let _ = write!(s, "{name}: {}", self.body.value_type(*a));
        }
        let _ = writeln!(self.out, "{pad}^bb{index}({s}):");
    }

    fn print_op(&mut self, op: OpId, indent: usize) {
        let pad = "  ".repeat(indent);
        let operation = self.body.op(op);
        let mut line = String::new();
        // Results.
        if !operation.results.is_empty() {
            for (i, r) in operation.results.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                let name = self.name_of(*r);
                line.push_str(&name);
            }
            line.push_str(" = ");
        }
        line.push_str(&operation.name);
        // Operands.
        if !operation.operands.is_empty() {
            line.push(' ');
            for (i, o) in operation.operands.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                let name = self.name_of(*o);
                line.push_str(&name);
            }
        }
        // Attributes.
        if !operation.attrs.is_empty() {
            line.push_str(" {");
            for (i, (k, v)) in operation.attrs.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                let _ = write!(line, "{k} = {v}");
            }
            line.push('}');
        }
        // Type signature.
        if !operation.operands.is_empty() || !operation.results.is_empty() {
            line.push_str(" : (");
            for (i, o) in operation.operands.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                let _ = write!(line, "{}", self.body.value_type(*o));
            }
            line.push_str(") -> (");
            for (i, r) in operation.results.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                let _ = write!(line, "{}", self.body.value_type(*r));
            }
            line.push(')');
        }
        if operation.regions.is_empty() {
            let _ = writeln!(self.out, "{pad}{line}");
        } else {
            let _ = writeln!(self.out, "{pad}{line} {{");
            for (ri, &region) in operation.regions.iter().enumerate() {
                if ri > 0 {
                    let _ = writeln!(self.out, "{pad}}} {{");
                }
                // An entry block without arguments needs no header.
                let entry = self.body.region_blocks(region)[0];
                let skip_header = self.body.block_args(entry).is_empty();
                self.print_region_body(region, indent + 1, skip_header);
            }
            let _ = writeln!(self.out, "{pad}}}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{OpBuilder, OpSpec};
    use crate::ir::Func;
    use crate::types::{ScalarType, Type};

    fn gemm_func() -> Func {
        let t = Type::tensor(&[64, 64], ScalarType::I32);
        let mut f = Func::new("matmul", vec![t.clone(), t.clone()], vec![t.clone()]);
        let entry = f.body.entry_block();
        let args = f.arguments();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let gemm = b.push(
            OpSpec::new("cinm.gemm")
                .operands([args[0], args[1]])
                .result(t),
        );
        b.push(OpSpec::new("func.return").operand(gemm.result()));
        f
    }

    #[test]
    fn prints_function_signature_and_ops() {
        let f = gemm_func();
        let text = print_func(&f);
        assert!(text.starts_with("func.func @matmul(%0: tensor<64x64xi32>, %1: tensor<64x64xi32>) -> (tensor<64x64xi32>) {"));
        assert!(text.contains(
            "%2 = cinm.gemm %0, %1 : (tensor<64x64xi32>, tensor<64x64xi32>) -> (tensor<64x64xi32>)"
        ));
        assert!(text.contains("func.return %2"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn lines_of_code_counts_nonempty_lines() {
        let f = gemm_func();
        // func header + gemm + return + closing brace = 4
        assert_eq!(func_lines_of_code(&f), 4);
    }

    #[test]
    fn prints_nested_regions_with_block_args() {
        let mut f = Func::new("launch", vec![], vec![]);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let launch = b.push(
            OpSpec::new("cnm.launch")
                .result(Type::Token)
                .attr("cnm.physical_dims", vec![8_i64, 2])
                .region(vec![Type::memref(&[16, 16], ScalarType::I16)]),
        );
        let inner = f.body.op_region_entry_block(launch.id, 0);
        let inner_arg = f.body.block_args(inner)[0];
        let mut bi = OpBuilder::at_end(&mut f.body, inner);
        bi.push(OpSpec::new("cnm.terminator").operand(inner_arg));
        let text = print_func(&f);
        assert!(text.contains("cnm.launch"));
        assert_eq!(text.matches("^bb0(%1: memref<16x16xi16>):").count(), 1);
        assert!(text.contains("cnm.terminator %1"));
    }

    #[test]
    fn prints_module_wrapper() {
        let mut m = crate::ir::Module::new("bench");
        m.add_func(gemm_func());
        let text = print_module(&m);
        assert!(text.starts_with("module @bench {"));
        assert!(text.contains("  func.func @matmul"));
    }
}
