//! Textual printing of the IR in an MLIR-like syntax.
//!
//! The printer is used for debugging, for golden tests of the lowering
//! passes, and to count the lines-of-code of the CINM representation for the
//! paper's Table 4. It writes straight into one buffer: a module's functions
//! are printed at one level of indentation, not printed apart and
//! re-indented.

use std::fmt::Write as _;

use crate::attributes::Attribute;
use crate::ir::{BlockId, Body, Func, Module, OpId, RegionId, ValueId};

/// Prints a whole module.
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "module @{} {{", module.name);
    for func in &module.funcs {
        Printer::new(&func.body, &mut out, 1).print_func(func);
    }
    out.push_str("}\n");
    out
}

/// Prints one function.
pub fn print_func(func: &Func) -> String {
    let mut out = String::new();
    Printer::new(&func.body, &mut out, 0).print_func(func);
    out
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

/// Values are numbered in the order the text first mentions them.
const UNNAMED: u32 = u32::MAX;

struct Printer<'a> {
    body: &'a Body,
    out: &'a mut String,
    /// The printed number of each value of the body, or [`UNNAMED`].
    names: Vec<u32>,
    next_value: u32,
    /// Indentation of the function itself (1 inside a module).
    base: usize,
}

impl<'a> Printer<'a> {
    fn new(body: &'a Body, out: &'a mut String, base: usize) -> Self {
        Printer {
            body,
            out,
            names: vec![UNNAMED; body.num_values()],
            next_value: 0,
            base,
        }
    }

    fn name(&mut self, v: ValueId) {
        let slot = &mut self.names[v.0 as usize];
        if *slot == UNNAMED {
            *slot = self.next_value;
            self.next_value += 1;
        }
        let _ = write!(self.out, "%{}", *slot);
    }

    fn pad(&mut self, indent: usize) {
        for _ in 0..self.base + indent {
            self.out.push_str("  ");
        }
    }

    fn ty(&mut self, v: ValueId) {
        let _ = write!(self.out, "{}", self.body.value_type(v));
    }

    fn attr(&mut self, (key, value): (&str, &Attribute)) {
        let _ = write!(self.out, "{key} = {value}");
    }

    /// Writes `items` separated by `, `, each with `f`.
    fn list<T>(&mut self, items: impl IntoIterator<Item = T>, mut f: impl FnMut(&mut Self, T)) {
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            f(self, item);
        }
    }

    /// `%a: type, %b: type` for block or function arguments.
    fn args(&mut self, args: &[ValueId]) {
        self.list(args.iter().copied(), |p, a| {
            p.name(a);
            p.out.push_str(": ");
            p.ty(a);
        });
    }

    fn print_func(&mut self, func: &Func) {
        let entry = self.body.entry_block();
        self.pad(0);
        let _ = write!(self.out, "func.func @{}(", func.name);
        self.args(self.body.block_args(entry));
        self.out.push(')');
        if !func.result_types.is_empty() {
            self.out.push_str(" -> (");
            self.list(&func.result_types, |p, t| {
                let _ = write!(p.out, "{t}");
            });
            self.out.push(')');
        }
        if !func.attrs.is_empty() {
            self.out.push_str(" attributes {");
            self.list(func.attrs.iter(), Self::attr);
            self.out.push('}');
        }
        self.out.push_str(" {\n");
        self.print_region_body(self.body.block_region(entry), 1, true);
        self.pad(0);
        self.out.push_str("}\n");
    }

    fn print_region_body(&mut self, region: RegionId, indent: usize, skip_entry_header: bool) {
        let body = self.body;
        for (bi, &block) in body.region_blocks(region).iter().enumerate() {
            if !(bi == 0 && skip_entry_header) {
                self.print_block_header(block, bi, indent);
            }
            for &op in body.block_ops(block) {
                if body.is_live(op) {
                    self.print_op(op, indent);
                }
            }
        }
    }

    fn print_block_header(&mut self, block: BlockId, index: usize, indent: usize) {
        self.pad(indent);
        let _ = write!(self.out, "^bb{index}(");
        self.args(self.body.block_args(block));
        self.out.push_str("):\n");
    }

    fn print_op(&mut self, op: OpId, indent: usize) {
        let body = self.body;
        let operation = body.op(op);
        self.pad(indent);
        if !operation.results.is_empty() {
            self.list(operation.results, Self::name);
            self.out.push_str(" = ");
        }
        self.out.push_str(&operation.name);
        if !operation.operands.is_empty() {
            self.out.push(' ');
            self.list(operation.operands.iter().copied(), Self::name);
        }
        if !operation.attrs.is_empty() {
            self.out.push_str(" {");
            self.list(operation.attrs.iter().map(|(k, v)| (*k, v)), Self::attr);
            self.out.push('}');
        }
        // Type signature.
        if !operation.operands.is_empty() || !operation.results.is_empty() {
            self.out.push_str(" : (");
            self.list(operation.operands.iter().copied(), Self::ty);
            self.out.push_str(") -> (");
            self.list(operation.results, Self::ty);
            self.out.push(')');
        }
        if operation.regions.is_empty() {
            self.out.push('\n');
            return;
        }
        self.out.push_str(" {\n");
        for (ri, region) in operation.regions.iter().enumerate() {
            if ri > 0 {
                self.pad(indent);
                self.out.push_str("} {\n");
            }
            // An entry block without arguments needs no header.
            let entry = body.region_blocks(region)[0];
            let skip_header = body.block_args(entry).is_empty();
            self.print_region_body(region, indent + 1, skip_header);
        }
        self.pad(indent);
        self.out.push_str("}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::ir::{Func, OpId};
    use crate::types::{ScalarType, Type};

    fn gemm_func() -> Func {
        let t = Type::tensor(&[64, 64], ScalarType::I32);
        let mut f = Func::new("matmul", vec![t, t], vec![t]);
        let entry = f.body.entry_block();
        let args = f.arguments();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let gemm = b
            .op("cinm.gemm")
            .operands([args[0], args[1]])
            .result(t)
            .push();
        b.op("func.return").operand(gemm.result()).push();
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
        let launch = b
            .op("cnm.launch")
            .result(Type::Token)
            .attr("cnm.physical_dims", [8, 2])
            .region(vec![Type::memref(&[16, 16], ScalarType::I16)])
            .push();
        let inner = f.body.op_region_entry_block(launch.id, 0);
        let inner_arg = f.body.block_args(inner)[0];
        let mut bi = OpBuilder::at_end(&mut f.body, inner);
        bi.op("cnm.terminator").operand(inner_arg).push();
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

    /// An op past every typical size: 9 operands of every type kind, 9
    /// attributes of every kind (inserted out of order), 3 results and 2
    /// regions, between a neighbour and a user.
    fn wide_func() -> (Func, OpId, OpId) {
        use crate::affine::AffineMap;
        use crate::attributes::Attribute;
        use crate::types::MemorySpace;
        let t = Type::tensor(&[4, 8], ScalarType::I32);
        let inputs = [
            t,
            Type::tensor(&[8], ScalarType::I16),
            Type::memref_in(&[2, 2], ScalarType::I32, MemorySpace::Wram),
            Type::i32(),
            Type::index(),
            Type::cnm_buffer(&[16, 16], ScalarType::I32, 0),
            Type::cnm_workgroup(&[8, 2]),
            Type::Token,
            Type::CimDeviceId,
        ];
        let mut f = Func::new("wide", inputs, vec![t]);
        let args = f.arguments();
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let before = b.op("test.before").operand(args[3]).result(Type::i32());
        let before = before.push().id;
        let wide = b
            .op("test.wide")
            .operands(args.iter().copied())
            .attr("zeta", -3_i64)
            .attr("alpha", true)
            .attr("map", AffineMap::tiling(&[4, 2]))
            .attr("cnm.kind", "gemm")
            .attr("ty", t)
            .attr("tile", [8, 2, 1])
            .attr("dims", Attribute::StrArray(&["dpu", "thread"]))
            .attr("rate", 0.5)
            .flag("flag")
            .results([t, Type::Token, Type::index()])
            .region([Type::i32(), Type::memref(&[4], ScalarType::I32)])
            .region([])
            .push();
        let r0 = b.body().op_region_entry_block(wide.id, 0);
        let views = [b.body().block_args(r0)[0], b.body().block_args(r0)[1]];
        let mut rb = OpBuilder::at_end(b.body_mut(), r0);
        let inner = rb.op("test.inner").operands(views).operand(args[0]);
        let inner = inner.result(Type::i32()).push();
        rb.op("test.yield").operand(inner.result()).push();
        let r1 = b.body().op_region_entry_block(wide.id, 1);
        OpBuilder::at_end(b.body_mut(), r1).op("test.yield").push();
        let user = b
            .op("test.user")
            .operands([wide.result_at(0), wide.result_at(2)]);
        let user = user.result(t).push();
        b.op("func.return").operand(user.result()).push();
        (f, wide.id, before)
    }

    /// The text the printer produced for `wide_func` when ops owned their
    /// lists, module wrapper included.
    const WIDE: &str = "module @wide {
  func.func @wide(%0: tensor<4x8xi32>, %1: tensor<8xi16>, %2: memref<2x2xi32, wram>, %3: i32, %4: index, %5: !cnm.buffer<16x16xi32, level 0>, %6: !cnm.workgroup<8x2>, %7: !cnm.token, %8: !cim.device) -> (tensor<4x8xi32>) {
    %9 = test.before %3 : (i32) -> (i32)
    %10, %11, %12 = test.wide %0, %1, %2, %3, %4, %5, %6, %7, %8 {alpha = true, cnm.kind = \"gemm\", dims = [\"dpu\", \"thread\"], flag = unit, map = affine_map<(d0, d1) -> (d0 floordiv 4, d1 floordiv 2, d0 mod 4, d1 mod 2)>, rate = 5e-1, tile = [8, 2, 1], ty = tensor<4x8xi32>, zeta = -3} : (tensor<4x8xi32>, tensor<8xi16>, memref<2x2xi32, wram>, i32, index, !cnm.buffer<16x16xi32, level 0>, !cnm.workgroup<8x2>, !cnm.token, !cim.device) -> (tensor<4x8xi32>, !cnm.token, index) {
      ^bb0(%13: i32, %14: memref<4xi32>):
      %15 = test.inner %13, %14, %0 : (i32, memref<4xi32>, tensor<4x8xi32>) -> (i32)
      test.yield %15 : (i32) -> ()
    } {
      test.yield
    }
    %16 = test.user %10, %12 : (tensor<4x8xi32>, index) -> (tensor<4x8xi32>)
    func.return %16 : (tensor<4x8xi32>) -> ()
  }
}
";

    /// What that printer produced after the rewrites of the test below.
    const WIDE_REWRITTEN: &str = "func.func @wide(%0: tensor<4x8xi32>, %1: tensor<8xi16>, %2: memref<2x2xi32, wram>, %3: i32, %4: index, %5: !cnm.buffer<16x16xi32, level 0>, %6: !cnm.workgroup<8x2>, %7: !cnm.token, %8: !cim.device) -> (tensor<4x8xi32>) {
  %9, %10, %11 = test.wide %0, %1, %2, %4, %4, %5, %6, %7, %8 {alpha = true, beta = 7, cnm.kind = \"gemm\", dims = [\"dpu\", \"thread\"], flag = unit, map = affine_map<(d0, d1) -> (d0 floordiv 4, d1 floordiv 2, d0 mod 4, d1 mod 2)>, rate = 5e-1, tile = [8, 2, 1], ty = tensor<4x8xi32>, zeta = 4} : (tensor<4x8xi32>, tensor<8xi16>, memref<2x2xi32, wram>, index, index, !cnm.buffer<16x16xi32, level 0>, !cnm.workgroup<8x2>, !cnm.token, !cim.device) -> (tensor<4x8xi32>, !cnm.token, index) {
    ^bb0(%12: i32, %13: memref<4xi32>):
    %14 = test.inner %12, %13, %0 : (i32, memref<4xi32>, tensor<4x8xi32>) -> (i32)
    test.yield %14 : (i32) -> ()
  } {
    test.yield
  }
  %15 = test.user %9, %11 : (tensor<4x8xi32>, index) -> (tensor<4x8xi32>)
  func.return %15 : (tensor<4x8xi32>) -> ()
}
";

    #[test]
    fn an_op_past_every_typical_size_prints_as_it_always_did_and_survives_rewrites() {
        let (mut f, wide, before) = wide_func();
        let mut m = crate::ir::Module::new("wide");
        m.add_func(f.clone());
        assert_eq!(print_module(&m), WIDE);
        let args = f.arguments();
        assert_eq!(f.body.replace_all_uses(args[3], args[4]), 2);
        f.body.erase_op(before);
        // A new key moves the list to the end of the pool; an old one is
        // replaced where it is.
        assert_eq!(f.body.set_attr(wide, "beta", 7_i64.into()), None);
        assert!(f.body.set_attr(wide, "zeta", 4_i64.into()).is_some());
        assert_eq!(print_func(&f), WIDE_REWRITTEN);
        crate::registry::verify_func(&f, &crate::registry::DialectRegistry::new()).unwrap();
    }

    #[test]
    fn a_rank_8_tensor_builds_prints_and_verifies() {
        let dims = [2, 1, 3, 1, 2, 1, 1, 2];
        let t = Type::tensor(&dims, ScalarType::I32);
        assert_eq!(t.shape(), Some(&dims[..]));
        let mut f = Func::new("deep", [t], vec![t]);
        let arg = f.argument(0);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        let id = b
            .op("test.id")
            .operand(arg)
            .attr("perm", [7, 6, 5, 4, 3, 2, 1, 0]);
        let id = id.result(t).push();
        b.op("func.return").operand(id.result()).push();
        let text = print_func(&f);
        assert!(text.contains(
            "%1 = test.id %0 {perm = [7, 6, 5, 4, 3, 2, 1, 0]} : (tensor<2x1x3x1x2x1x1x2xi32>)"
        ));
        crate::registry::verify_func(&f, &crate::registry::DialectRegistry::new()).unwrap();
    }
}
