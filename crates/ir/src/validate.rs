//! Structural validation of IL modules.
//!
//! Every pass in the pipeline is expected to keep modules valid; the driver
//! validates after each pass in debug builds.

use crate::function::Module;
use crate::instr::{Callee, FuncId, Instr};
use crate::tag::TagSet;
use std::error::Error;
use std::fmt;

/// A structural defect in a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Function in which the defect was found, if any.
    pub func: Option<String>,
    /// Description of the defect.
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.func {
            Some(name) => write!(f, "invalid IL in @{}: {}", name, self.message),
            None => write!(f, "invalid IL: {}", self.message),
        }
    }
}

impl Error for ValidateError {}

/// Checks structural invariants of `module`.
///
/// Verified properties:
/// - every block ends with exactly one terminator, and terminators appear
///   nowhere else;
/// - branch/jump targets and φ predecessor blocks are in range;
/// - φ-nodes appear only at the start of a block and list each predecessor
///   at most once;
/// - registers are below the function's `next_reg` watermark;
/// - direct call targets exist and argument counts match the callee's arity;
/// - intrinsic calls match the intrinsic's arity and result convention;
/// - tag references are in range of the module tag table.
///
/// # Errors
///
/// Returns the first defect found.
pub fn validate(module: &Module) -> Result<(), ValidateError> {
    for (fi, func) in module.funcs.iter().enumerate() {
        let fail = |message: String| -> Result<(), ValidateError> {
            Err(ValidateError {
                func: Some(func.name.clone()),
                message,
            })
        };
        if func.blocks.is_empty() {
            return fail("function has no blocks".into());
        }
        if func.entry.index() >= func.blocks.len() {
            return fail(format!("entry {} out of range", func.entry));
        }
        for bid in func.block_ids() {
            let block = func.block(bid);
            if block.instrs.is_empty() {
                return fail(format!("{bid} is empty (no terminator)"));
            }
            let last = block.instrs.len() - 1;
            let mut seen_non_phi = false;
            for (i, instr) in block.instrs.iter().enumerate() {
                if instr.is_terminator() != (i == last) {
                    return fail(format!("{bid}[{i}]: terminator placement wrong: {instr:?}"));
                }
                match instr {
                    Instr::Phi { args, .. } => {
                        if seen_non_phi {
                            return fail(format!("{bid}[{i}]: phi after non-phi"));
                        }
                        let mut blocks: Vec<_> = args.iter().map(|(b, _)| *b).collect();
                        blocks.sort();
                        blocks.dedup();
                        if blocks.len() != args.len() {
                            return fail(format!("{bid}[{i}]: duplicate phi predecessor"));
                        }
                        for (b, _) in args {
                            if b.index() >= func.blocks.len() {
                                return fail(format!("{bid}[{i}]: phi block {b} out of range"));
                            }
                        }
                    }
                    _ => seen_non_phi = true,
                }
                if let Some(d) = instr.def() {
                    if d.0 >= func.next_reg {
                        return fail(format!("{bid}[{i}]: def {d} >= next_reg {}", func.next_reg));
                    }
                }
                let mut bad_use = None;
                instr.visit_uses(|r| {
                    if r.0 >= func.next_reg {
                        bad_use = Some(r);
                    }
                });
                if let Some(r) = bad_use {
                    return fail(format!("{bid}[{i}]: use {r} >= next_reg {}", func.next_reg));
                }
                for target in instr.successors() {
                    if target.index() >= func.blocks.len() {
                        return fail(format!("{bid}[{i}]: target {target} out of range"));
                    }
                }
                if let Instr::Call {
                    dst, callee, args, ..
                } = instr
                {
                    match callee {
                        Callee::Direct(FuncId(f)) => {
                            let Some(callee_fn) = module.funcs.get(*f as usize) else {
                                return fail(format!("{bid}[{i}]: call to missing {f}"));
                            };
                            if args.len() != callee_fn.arity {
                                return fail(format!(
                                    "{bid}[{i}]: call to @{} with {} args, arity {}",
                                    callee_fn.name,
                                    args.len(),
                                    callee_fn.arity
                                ));
                            }
                            if dst.is_some() && !callee_fn.has_result {
                                return fail(format!(
                                    "{bid}[{i}]: call result from void @{}",
                                    callee_fn.name
                                ));
                            }
                        }
                        Callee::Intrinsic(intr) => {
                            if args.len() != intr.arity() {
                                return fail(format!(
                                    "{bid}[{i}]: ${} expects {} args, got {}",
                                    intr.name(),
                                    intr.arity(),
                                    args.len()
                                ));
                            }
                            if dst.is_some() && !intr.has_result() {
                                return fail(format!(
                                    "{bid}[{i}]: result from void ${}",
                                    intr.name()
                                ));
                            }
                        }
                        Callee::Indirect(_) => {}
                    }
                }
                // Tag range checks, on the sets in place: a clone of a set
                // of more than 8 tags would allocate.
                let (tag, sets): (_, [Option<&TagSet>; 2]) = match instr {
                    Instr::CLoad { tag, .. }
                    | Instr::SLoad { tag, .. }
                    | Instr::SStore { tag, .. }
                    | Instr::Lea { tag, .. }
                    | Instr::Alloc { site: tag, .. } => (Some(*tag), [None, None]),
                    Instr::Load { tags, .. } | Instr::Store { tags, .. } => {
                        (None, [Some(tags), None])
                    }
                    Instr::Call { effects, .. } => {
                        (None, [Some(&effects.refs), Some(&effects.mods)])
                    }
                    _ => (None, [None, None]),
                };
                let bad_tag = sets
                    .into_iter()
                    .flatten()
                    .flat_map(TagSet::iter)
                    .chain(tag)
                    .filter(|t| t.index() >= module.tags.len())
                    .last();
                if let Some(t) = bad_tag {
                    return fail(format!("{bid}[{i}]: tag {t} out of range"));
                }
                if let Instr::Ret { value } = instr {
                    if value.is_some() != func.has_result {
                        return fail(format!(
                            "{bid}[{i}]: ret value presence disagrees with has_result"
                        ));
                    }
                }
            }
        }
        let _ = fi;
    }
    for g in &module.globals {
        if g.tag.index() >= module.tags.len() {
            return Err(ValidateError {
                func: None,
                message: format!("global tag {} out of range", g.tag),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::{Function, Module};
    use crate::instr::{BlockId, Instr, Reg};
    use crate::tag::TagId;

    fn ok_module() -> Module {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main", 0);
        let r = b.iconst(0);
        b.ret(None);
        let _ = r;
        m.add_func(b.finish());
        m
    }

    #[test]
    fn accepts_valid() {
        assert!(validate(&ok_module()).is_ok());
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut m = Module::new();
        let mut f = Function::new("main", 0);
        f.blocks[0].instrs.push(Instr::Nop);
        m.add_func(f);
        let e = validate(&m).unwrap_err();
        assert!(e.message.contains("terminator"));
    }

    #[test]
    fn rejects_out_of_range_register() {
        let mut m = ok_module();
        m.funcs[0].blocks[0].instrs.insert(
            0,
            Instr::Copy {
                dst: Reg(0),
                src: Reg(99),
            },
        );
        assert!(validate(&m).is_err());
    }

    #[test]
    fn rejects_bad_branch_target() {
        let mut m = ok_module();
        let r = Reg(0);
        *m.funcs[0].blocks[0].instrs.last_mut().unwrap() = Instr::Branch {
            cond: r,
            then_bb: BlockId(7),
            else_bb: BlockId(0),
        };
        let e = validate(&m).unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let mut m = ok_module();
        let callee = m.add_func(Function::new("two", 2));
        m.funcs[callee.index()].blocks[0]
            .instrs
            .push(Instr::Ret { value: None });
        m.funcs[0].blocks[0].instrs.insert(
            0,
            Instr::Call {
                dst: None,
                callee: crate::instr::Callee::Direct(callee),
                args: vec![Reg(0)],
                effects: crate::instr::CallEffects::all(),
            },
        );
        let e = validate(&m).unwrap_err();
        assert!(e.message.contains("arity"));
    }

    #[test]
    fn rejects_an_out_of_range_tag_in_any_set() {
        let set = |tags: &[u32]| {
            let mut s = TagSet::empty();
            for &t in tags {
                s.insert(TagId(t));
            }
            s
        };
        let wide: Vec<u32> = (0..12).chain([40]).collect();
        for (instr, bad) in [
            (
                Instr::Store {
                    src: Reg(0),
                    addr: Reg(0),
                    tags: set(&wide),
                },
                "t40",
            ),
            (
                Instr::Call {
                    dst: None,
                    callee: crate::instr::Callee::Indirect(Reg(0)),
                    args: vec![],
                    effects: Box::new(crate::instr::CallEffects {
                        mods: set(&[7]),
                        refs: set(&[3]),
                    }),
                },
                "t7",
            ),
            (
                Instr::SLoad {
                    dst: Reg(0),
                    tag: TagId(5),
                },
                "t5",
            ),
        ] {
            let mut m = ok_module();
            m.funcs[0].blocks[0].instrs.insert(1, instr);
            let e = validate(&m).unwrap_err();
            assert!(
                e.message.ends_with(&format!("tag {bad} out of range")),
                "{e}"
            );
        }
    }

    #[test]
    fn rejects_phi_after_non_phi() {
        let mut m = ok_module();
        m.funcs[0].blocks[0].instrs.insert(
            1,
            Instr::Phi {
                dst: Reg(0),
                args: vec![],
            },
        );
        let e = validate(&m).unwrap_err();
        assert!(e.message.contains("phi after non-phi"));
    }
}
