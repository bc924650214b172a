//! Textual form of the IL.
//!
//! The printer and [parser](crate::parse) round-trip: for any well-formed
//! module `m`, `parse(&m.to_string())` reproduces `m` exactly. Tags are
//! printed by name in double quotes, `{*}` denotes the conservative
//! [`TagSet::All`](crate::TagSet::All), functions are `@name`, intrinsics
//! `$name`, and indirect call targets `*reg`.
//!
//! Rendering appends to a caller-owned `String` ([`write_instr`],
//! [`write_tagset`]) so that printing a whole module reuses one growing
//! buffer; the `*_to_string` helpers are thin allocating wrappers for
//! one-off callers.

use crate::function::{Function, Global, GlobalInit, Module};
use crate::instr::{Callee, Instr};
use crate::tag::{TagKind, TagSet, TagTable};
use std::fmt::{self, Write as _};

/// Appends a tag set, using tag names from `tags`, to `out`.
pub fn write_tagset(out: &mut String, set: &TagSet, tags: &TagTable) {
    match set {
        TagSet::All => out.push_str("{*}"),
        TagSet::Set(s) => {
            out.push('{');
            for (i, t) in s.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\"", tags.info(t).name);
            }
            out.push('}');
        }
    }
}

/// Prints a tag set using tag names from `tags`.
pub fn tagset_to_string(set: &TagSet, tags: &TagTable) -> String {
    let mut out = String::new();
    write_tagset(&mut out, set, tags);
    out
}

/// Appends one instruction, using tag and function names from the module,
/// to `out`.
pub fn write_instr(out: &mut String, instr: &Instr, module: &Module) {
    let tags = &module.tags;
    macro_rules! w {
        ($($arg:tt)*) => {
            let _ = write!(out, $($arg)*);
        };
    }
    macro_rules! tag {
        ($t:expr) => {
            w!("\"{}\"", tags.info(*$t).name);
        };
    }
    match instr {
        Instr::IConst { dst, value } => {
            w!("{dst} = iconst {value}");
        }
        Instr::FConst { dst, value } => {
            w!("{dst} = fconst {value:?}");
        }
        Instr::FuncAddr { dst, func } => {
            w!("{dst} = funcaddr @{}", module.func(*func).name);
        }
        Instr::Copy { dst, src } => {
            w!("{dst} = copy {src}");
        }
        Instr::Unary { op, dst, src } => {
            w!("{dst} = {} {src}", op.mnemonic());
        }
        Instr::Binary { op, dst, lhs, rhs } => {
            w!("{dst} = {} {lhs}, {rhs}", op.mnemonic());
        }
        Instr::Cmp { op, dst, lhs, rhs } => {
            w!("{dst} = {} {lhs}, {rhs}", op.mnemonic());
        }
        Instr::CLoad { dst, tag } => {
            w!("{dst} = cload ");
            tag!(tag);
        }
        Instr::SLoad { dst, tag } => {
            w!("{dst} = sload ");
            tag!(tag);
        }
        Instr::SStore { src, tag } => {
            w!("sstore {src}, ");
            tag!(tag);
        }
        Instr::Load {
            dst,
            addr,
            tags: ts,
        } => {
            w!("{dst} = load [{addr}] ");
            write_tagset(out, ts, tags);
        }
        Instr::Store {
            src,
            addr,
            tags: ts,
        } => {
            w!("store {src}, [{addr}] ");
            write_tagset(out, ts, tags);
        }
        Instr::Lea { dst, tag } => {
            w!("{dst} = lea ");
            tag!(tag);
        }
        Instr::PtrAdd { dst, base, offset } => {
            w!("{dst} = ptradd {base}, {offset}");
        }
        Instr::Alloc { dst, size, site } => {
            w!("{dst} = alloc {size}, ");
            tag!(site);
        }
        Instr::Call {
            dst,
            callee,
            args,
            effects,
        } => {
            if let Some(d) = dst {
                w!("{d} = ");
            }
            out.push_str("call ");
            match callee {
                Callee::Direct(f) => {
                    w!("@{}", module.func(*f).name);
                }
                Callee::Indirect(r) => {
                    w!("*{r}");
                }
                Callee::Intrinsic(i) => {
                    w!("${}", i.name());
                }
            }
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                w!("{a}");
            }
            out.push(')');
            out.push_str(" mods");
            write_tagset(out, &effects.mods, tags);
            out.push_str(" refs");
            write_tagset(out, &effects.refs, tags);
        }
        Instr::Phi { dst, args } => {
            w!("{dst} = phi [");
            for (i, (b, r)) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                w!("{b}: {r}");
            }
            out.push(']');
        }
        Instr::Jump { target } => {
            w!("jump {target}");
        }
        Instr::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            w!("branch {cond}, {then_bb}, {else_bb}");
        }
        Instr::Ret { value: Some(r) } => {
            w!("ret {r}");
        }
        Instr::Ret { value: None } => out.push_str("ret"),
        Instr::Nop => out.push_str("nop"),
    }
}

/// Prints one instruction using tag and function names from the module.
pub fn instr_to_string(instr: &Instr, module: &Module) -> String {
    let mut out = String::new();
    write_instr(&mut out, instr, module);
    out
}

fn write_function(out: &mut String, f: &Function, module: &Module) {
    let result = if f.has_result { " result" } else { "" };
    let _ = writeln!(out, "func @{}({}){} {{", f.name, f.arity, result);
    for id in f.block_ids() {
        let _ = writeln!(out, "{id}:");
        for instr in &f.block(id).instrs {
            out.push_str("  ");
            write_instr(out, instr, module);
            out.push('\n');
        }
    }
    let _ = writeln!(out, "}}");
}

fn write_tag_decl(out: &mut String, table: &TagTable) {
    for (_, info) in table.iter() {
        out.push_str("tag \"");
        out.push_str(&info.name);
        out.push_str("\" ");
        match info.kind {
            TagKind::Global => out.push_str("global"),
            TagKind::Local { owner } => {
                let _ = write!(out, "local owner={owner}");
            }
            TagKind::Param { owner } => {
                let _ = write!(out, "param owner={owner}");
            }
            TagKind::Heap { site } => {
                let _ = write!(out, "heap site={site}");
            }
            TagKind::Spill { owner } => {
                let _ = write!(out, "spill owner={owner}");
            }
        }
        let addressed = if info.address_taken { " addressed" } else { "" };
        let _ = writeln!(out, " size={}{}", info.size, addressed);
    }
}

fn write_global(out: &mut String, g: &Global, tags: &TagTable) {
    let _ = write!(out, "global \"{}\" ", tags.info(g.tag).name);
    match &g.init {
        GlobalInit::Zero => {
            let _ = writeln!(out, "zero");
        }
        GlobalInit::Ints(vs) => {
            let _ = write!(out, "ints");
            for v in vs {
                let _ = write!(out, " {v}");
            }
            let _ = writeln!(out);
        }
        GlobalInit::Floats(vs) => {
            let _ = write!(out, "floats");
            for v in vs {
                let _ = write!(out, " {v:?}");
            }
            let _ = writeln!(out);
        }
    }
}

/// Renders the whole module in the textual IL syntax.
pub fn module_to_string(module: &Module) -> String {
    let mut out = String::new();
    write_tag_decl(&mut out, &module.tags);
    for g in &module.globals {
        write_global(&mut out, g, &module.tags);
    }
    for f in &module.funcs {
        write_function(&mut out, f, module);
    }
    out
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&module_to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::FunctionBuilder;
    use crate::function::{GlobalInit, Module};
    use crate::instr::BinOp;

    #[test]
    fn prints_module() {
        let mut m = Module::new();
        let g = m.add_global("x", 1, GlobalInit::Zero);
        let mut b = FunctionBuilder::new("main", 0);
        let v = b.sload(g);
        let one = b.iconst(1);
        let s = b.binary(BinOp::Add, v, one);
        b.sstore(s, g);
        b.ret(None);
        m.add_func(b.finish());
        let text = m.to_string();
        assert!(text.contains("tag \"g:x\" global size=1"));
        assert!(text.contains("global \"g:x\" zero"));
        assert!(text.contains("func @main(0) {"));
        assert!(text.contains("r0 = sload \"g:x\""));
        assert!(text.contains("sstore r2, \"g:x\""));
    }

    #[test]
    fn write_forms_match_to_string_forms() {
        let mut m = Module::new();
        let g = m.add_global("x", 4, GlobalInit::Ints(vec![1, 2, 3, 4]));
        let mut b = FunctionBuilder::new("main", 0);
        let base = b.lea(g);
        let idx = b.iconst(2);
        let addr = b.ptr_add(base, idx);
        let v = b.load(addr, crate::TagSet::single(g));
        b.ret(Some(v));
        b.returns_value();
        m.add_func(b.finish());
        for f in &m.funcs {
            for id in f.block_ids() {
                for instr in &f.block(id).instrs {
                    let mut buf = String::from("  ");
                    crate::print::write_instr(&mut buf, instr, &m);
                    assert_eq!(buf[2..], crate::print::instr_to_string(instr, &m));
                }
            }
        }
    }
}
