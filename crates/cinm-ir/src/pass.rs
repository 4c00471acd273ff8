//! Pass infrastructure: function passes, module passes and a pass manager.
//!
//! The CINM lowering pipeline ("`linalg` → `cinm` → `cnm`/`cim` → device
//! dialects", paper Figure 4) is assembled as an ordered list of passes run
//! by the [`PassManager`], optionally verifying the IR after each step.

use crate::error::{IrError, IrResult};
use crate::ir::{Func, Module};
use crate::registry::{verify_func, DialectRegistry};

/// Whether a pass changed the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassResult {
    /// The IR was modified.
    Changed,
    /// The IR was left untouched.
    Unchanged,
}

impl PassResult {
    /// Converts from a boolean "changed" flag.
    pub fn from_changed(changed: bool) -> Self {
        if changed {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        }
    }

    /// True if the IR was modified.
    pub fn changed(self) -> bool {
        matches!(self, PassResult::Changed)
    }
}

/// A transformation applied to one function at a time.
pub trait Pass {
    /// Stable pass name used in diagnostics and pipeline descriptions.
    fn name(&self) -> &'static str;

    /// Runs the pass on one function.
    ///
    /// # Errors
    ///
    /// Returns an error if the pass encounters IR it cannot legalise.
    fn run_on_func(&self, func: &mut Func) -> IrResult<PassResult>;
}

/// Statistics collected by a [`PassManager`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// `(pass name, number of functions changed)` per executed pass.
    pub pass_changes: Vec<(&'static str, usize)>,
}

impl PipelineStats {
    /// Total number of function-level changes across all passes.
    pub fn total_changes(&self) -> usize {
        self.pass_changes.iter().map(|(_, n)| n).sum()
    }
}

/// Runs an ordered list of passes over a module.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    registry: Option<DialectRegistry>,
    verify_each: bool,
    print_after_each: bool,
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.pass_names())
            .field("verify_each", &self.verify_each)
            .finish()
    }
}

impl Default for PassManager {
    fn default() -> Self {
        Self::new()
    }
}

impl PassManager {
    /// Creates an empty pass manager.
    pub fn new() -> Self {
        PassManager {
            passes: Vec::new(),
            registry: None,
            verify_each: false,
            print_after_each: false,
        }
    }

    /// Appends a pass to the pipeline.
    pub fn add_pass(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Enables verification after every pass using the given registry.
    pub fn enable_verifier(&mut self, registry: DialectRegistry) -> &mut Self {
        self.registry = Some(registry);
        self.verify_each = true;
        self
    }

    /// Prints every function after every pass (debugging aid).
    pub fn enable_ir_printing(&mut self) -> &mut Self {
        self.print_after_each = true;
        self
    }

    /// The names of the registered passes, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs the pipeline over every function of the module.
    ///
    /// # Errors
    ///
    /// Returns the first pass or verification error encountered, annotated
    /// with the pass and function name.
    pub fn run(&self, module: &mut Module) -> IrResult<PipelineStats> {
        let mut stats = PipelineStats {
            pass_changes: Vec::with_capacity(self.passes.len()),
        };
        for pass in &self.passes {
            let mut changed_funcs = 0;
            for func in module.funcs.iter_mut() {
                let result = pass.run_on_func(func).map_err(|e| {
                    e.with_context(format!("pass '{}' on @{}", pass.name(), func.name))
                })?;
                if result.changed() {
                    changed_funcs += 1;
                }
                if self.verify_each {
                    if let Some(registry) = &self.registry {
                        verify_func(func, registry).map_err(|e| {
                            IrError::new(e.to_string())
                                .with_context(format!("after pass '{}'", pass.name()))
                        })?;
                    }
                }
                if self.print_after_each {
                    eprintln!(
                        "// ----- after pass {} on @{} -----\n{}",
                        pass.name(),
                        func.name,
                        crate::printer::print_func(func)
                    );
                }
            }
            stats.pass_changes.push((pass.name(), changed_funcs));
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::types::Type;

    /// A pass that renames every `a.op` to `b.op`.
    struct RenamePass;

    impl Pass for RenamePass {
        fn name(&self) -> &'static str {
            "rename-a-to-b"
        }

        fn run_on_func(&self, func: &mut Func) -> IrResult<PassResult> {
            let mut changed = false;
            for op in func.body.walk() {
                if func.body.op(op).name == "a.op" {
                    func.body.rename_op(op, "b.op");
                    changed = true;
                }
            }
            Ok(PassResult::from_changed(changed))
        }
    }

    /// A pass that always fails.
    struct FailingPass;

    impl Pass for FailingPass {
        fn name(&self) -> &'static str {
            "always-fail"
        }

        fn run_on_func(&self, _func: &mut Func) -> IrResult<PassResult> {
            Err(IrError::new("boom"))
        }
    }

    fn module_with_a_op() -> Module {
        let mut m = Module::new("m");
        let mut f = Func::new("f", vec![], vec![]);
        let entry = f.body.entry_block();
        let mut b = OpBuilder::at_end(&mut f.body, entry);
        b.op("a.op").result(Type::i32()).push();
        m.add_func(f);
        m
    }

    #[test]
    fn pipeline_applies_passes_in_order_and_reports_stats() {
        let mut m = module_with_a_op();
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(RenamePass));
        pm.add_pass(Box::new(RenamePass));
        let stats = pm.run(&mut m).unwrap();
        assert_eq!(stats.pass_changes.len(), 2);
        assert_eq!(stats.pass_changes[0], ("rename-a-to-b", 1));
        // Second run finds nothing to rename.
        assert_eq!(stats.pass_changes[1], ("rename-a-to-b", 0));
        assert_eq!(stats.total_changes(), 1);
        assert_eq!(m.funcs[0].body.ops_with_name("b.op").len(), 1);
    }

    #[test]
    fn pipeline_error_is_annotated() {
        let mut m = module_with_a_op();
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(FailingPass));
        let err = pm.run(&mut m).unwrap_err();
        assert!(err.to_string().contains("always-fail"));
        assert!(err.to_string().contains("@f"));
    }

    #[test]
    fn pass_names_reflect_pipeline() {
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(RenamePass));
        assert_eq!(pm.pass_names(), vec!["rename-a-to-b"]);
    }
}
