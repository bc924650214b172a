//! Parser for the textual IL emitted by [`crate::print`].
//!
//! The grammar is line-oriented; `;` starts a comment that runs to end of
//! line. See the crate-level documentation for a full example.

use crate::function::{Function, Global, GlobalInit, Module};
use crate::instr::{
    BinOp, BlockId, CallEffects, Callee, CmpOp, FuncId, Instr, Intrinsic, Reg, UnaryOp,
};
use crate::tag::{TagId, TagKind, TagSet};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An IL parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIlError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for ParseIlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IL parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseIlError {}

type Result<T> = std::result::Result<T, ParseIlError>;

struct Parser<'a> {
    module: Module,
    lines: Vec<(usize, &'a str)>,
    pos: usize,
    /// Function names referenced before definition -> placeholder ids.
    func_ids: HashMap<String, FuncId>,
    /// Calls needing patch-up: (func index, block, instr index, name).
    pending_funcs: Vec<(usize, usize, usize, String)>,
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T> {
    Err(ParseIlError {
        line,
        message: message.into(),
    })
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        let lines = src
            .lines()
            .enumerate()
            .map(|(i, l)| {
                let l = match l.find(';') {
                    Some(p) => &l[..p],
                    None => l,
                };
                (i + 1, l.trim())
            })
            .filter(|(_, l)| !l.is_empty())
            .collect();
        Parser {
            module: Module::new(),
            lines,
            pos: 0,
            func_ids: HashMap::new(),
            pending_funcs: Vec::new(),
        }
    }

    fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let l = self.peek();
        self.pos += 1;
        l
    }

    fn parse(mut self) -> Result<Module> {
        while let Some((lineno, line)) = self.peek() {
            if line.starts_with("tag ") {
                self.next();
                self.parse_tag(lineno, line)?;
            } else if line.starts_with("global ") {
                self.next();
                self.parse_global(lineno, line)?;
            } else if line.starts_with("func ") {
                self.parse_func()?;
            } else {
                return err(lineno, format!("expected tag/global/func, found: {line}"));
            }
        }
        // Patch forward-referenced direct calls.
        for (fi, bi, ii, name) in std::mem::take(&mut self.pending_funcs) {
            let id = match self.module.lookup_func(&name) {
                Some(id) => id,
                None => return err(0, format!("call to undefined function @{name}")),
            };
            if let Instr::Call { callee, .. } = &mut self.module.funcs[fi].blocks[bi].instrs[ii] {
                *callee = Callee::Direct(id);
            }
        }
        Ok(self.module)
    }

    fn parse_tag(&mut self, lineno: usize, line: &str) -> Result<()> {
        // tag "name" <kind> size=N [addressed]
        let rest = &line[4..];
        let (name, rest) = parse_quoted(rest).ok_or_else(|| ParseIlError {
            line: lineno,
            message: "expected quoted tag name".into(),
        })?;
        let mut toks = rest.split_whitespace().peekable();
        let kind_word = toks.next().ok_or_else(|| ParseIlError {
            line: lineno,
            message: "expected tag kind".into(),
        })?;
        let kind = match kind_word {
            "global" => TagKind::Global,
            "local" | "param" | "heap" | "spill" => {
                let attr = toks.next().ok_or_else(|| ParseIlError {
                    line: lineno,
                    message: format!("{kind_word} tag needs owner=/site="),
                })?;
                let value: u32 = attr
                    .split('=')
                    .nth(1)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ParseIlError {
                        line: lineno,
                        message: format!("bad attribute {attr}"),
                    })?;
                match kind_word {
                    "local" => TagKind::Local { owner: value },
                    "param" => TagKind::Param { owner: value },
                    "heap" => TagKind::Heap { site: value },
                    _ => TagKind::Spill { owner: value },
                }
            }
            other => return err(lineno, format!("unknown tag kind {other}")),
        };
        let mut size = 1usize;
        let mut addressed = false;
        for t in toks {
            if let Some(s) = t.strip_prefix("size=") {
                size = s.parse().map_err(|_| ParseIlError {
                    line: lineno,
                    message: format!("bad size {s}"),
                })?;
            } else if t == "addressed" {
                addressed = true;
            } else {
                return err(lineno, format!("unknown tag attribute {t}"));
            }
        }
        if self.module.tags.lookup(&name).is_some() {
            return err(lineno, format!("duplicate tag \"{name}\""));
        }
        let id = self.module.tags.intern(name, kind, size);
        if addressed {
            self.module.tags.mark_address_taken(id);
        }
        Ok(())
    }

    fn parse_global(&mut self, lineno: usize, line: &str) -> Result<()> {
        // global "name" zero | ints v... | floats v...
        let rest = &line[7..];
        let (name, rest) = parse_quoted(rest).ok_or_else(|| ParseIlError {
            line: lineno,
            message: "expected quoted tag name".into(),
        })?;
        let tag = self.module.tags.lookup(&name).ok_or_else(|| ParseIlError {
            line: lineno,
            message: format!("unknown tag \"{name}\""),
        })?;
        let mut toks = rest.split_whitespace();
        let init = match toks.next() {
            Some("zero") => GlobalInit::Zero,
            Some("ints") => {
                let vs: std::result::Result<Vec<i64>, _> = toks.map(|t| t.parse()).collect();
                GlobalInit::Ints(vs.map_err(|_| ParseIlError {
                    line: lineno,
                    message: "bad integer initializer".into(),
                })?)
            }
            Some("floats") => {
                let vs: std::result::Result<Vec<f64>, _> = toks.map(|t| t.parse()).collect();
                GlobalInit::Floats(vs.map_err(|_| ParseIlError {
                    line: lineno,
                    message: "bad float initializer".into(),
                })?)
            }
            _ => return err(lineno, "expected zero/ints/floats"),
        };
        self.module.globals.push(Global { tag, init });
        Ok(())
    }

    fn parse_func(&mut self) -> Result<()> {
        let (lineno, header) = self.next().expect("caller checked");
        // func @name(arity) [result] {
        let rest = header.strip_prefix("func @").ok_or_else(|| ParseIlError {
            line: lineno,
            message: "expected func @name".into(),
        })?;
        let open = rest.find('(').ok_or_else(|| ParseIlError {
            line: lineno,
            message: "expected (arity)".into(),
        })?;
        let name = rest[..open].to_string();
        let close = rest.find(')').ok_or_else(|| ParseIlError {
            line: lineno,
            message: "expected )".into(),
        })?;
        let arity: usize = rest[open + 1..close].parse().map_err(|_| ParseIlError {
            line: lineno,
            message: "bad arity".into(),
        })?;
        let tail = rest[close + 1..].trim();
        let has_result = match tail {
            "{" => false,
            "result {" => true,
            other => return err(lineno, format!("unexpected func header tail: {other}")),
        };
        let mut func = Function::new(name.clone(), arity);
        func.has_result = has_result;
        func.blocks.clear();
        let this_func = self.module.funcs.len();

        let mut current: Option<usize> = None;
        let mut max_reg: u32 = arity as u32;
        loop {
            let (lineno, line) = match self.next() {
                Some(l) => l,
                None => return err(lineno, "unterminated function body"),
            };
            if line == "}" {
                break;
            }
            if let Some(label) = line.strip_suffix(':') {
                let id = parse_block_label(label).ok_or_else(|| ParseIlError {
                    line: lineno,
                    message: format!("bad label {label}"),
                })?;
                while func.blocks.len() <= id.index() {
                    func.blocks.push(crate::function::Block::new());
                }
                current = Some(id.index());
                continue;
            }
            let cur = current.ok_or_else(|| ParseIlError {
                line: lineno,
                message: "instruction before any label".into(),
            })?;
            let instr =
                self.parse_instr(lineno, line, this_func, cur, func.blocks[cur].instrs.len())?;
            if let Some(d) = instr.def() {
                max_reg = max_reg.max(d.0 + 1);
            }
            instr.visit_uses(|r| max_reg = max_reg.max(r.0 + 1));
            func.blocks[cur].instrs.push(instr);
        }
        if func.blocks.is_empty() {
            func.blocks.push(crate::function::Block::new());
        }
        func.next_reg = max_reg;
        if self.module.lookup_func(&func.name).is_some() {
            return err(lineno, format!("duplicate function @{}", func.name));
        }
        let id = self.module.add_func(func);
        self.func_ids.insert(name, id);
        Ok(())
    }

    fn lookup_tag(&self, lineno: usize, name: &str) -> Result<TagId> {
        self.module.tags.lookup(name).ok_or_else(|| ParseIlError {
            line: lineno,
            message: format!("unknown tag \"{name}\""),
        })
    }

    fn parse_tagset(&self, lineno: usize, text: &str) -> Result<TagSet> {
        let inner = text
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or_else(|| ParseIlError {
                line: lineno,
                message: format!("expected tag set, got {text}"),
            })?;
        let inner = inner.trim();
        if inner == "*" {
            return Ok(TagSet::All);
        }
        let mut set = TagSet::empty();
        let mut rest = inner;
        while !rest.is_empty() {
            let (name, r) = parse_quoted(rest).ok_or_else(|| ParseIlError {
                line: lineno,
                message: format!("bad tag set {text}"),
            })?;
            set.insert(self.lookup_tag(lineno, &name)?);
            rest = r.trim_start().trim_start_matches(',').trim_start();
        }
        Ok(set)
    }

    fn parse_instr(
        &mut self,
        lineno: usize,
        line: &str,
        this_func: usize,
        block: usize,
        instr_idx: usize,
    ) -> Result<Instr> {
        // Split an optional "rN = " prefix.
        let (dst, body) = match line.split_once('=') {
            Some((lhs, rhs)) if lhs.trim().starts_with('r') && !lhs.trim().contains(' ') => {
                let d = parse_reg(lhs.trim()).ok_or_else(|| ParseIlError {
                    line: lineno,
                    message: format!("bad register {lhs}"),
                })?;
                (Some(d), rhs.trim())
            }
            _ => (None, line),
        };
        let (op, rest) = match body.split_once(' ') {
            Some((o, r)) => (o, r.trim()),
            None => (body, ""),
        };
        let need_dst = || -> Result<Reg> {
            dst.ok_or_else(|| ParseIlError {
                line: lineno,
                message: format!("{op} needs a destination"),
            })
        };
        let reg = |t: &str| -> Result<Reg> {
            parse_reg(t.trim()).ok_or_else(|| ParseIlError {
                line: lineno,
                message: format!("bad register {t}"),
            })
        };
        let two_regs = |rest: &str| -> Result<(Reg, Reg)> {
            let (a, b) = rest.split_once(',').ok_or_else(|| ParseIlError {
                line: lineno,
                message: format!("{op} needs two operands"),
            })?;
            Ok((reg(a)?, reg(b)?))
        };

        if let Some(bin) = parse_binop(op) {
            let (lhs, rhs) = two_regs(rest)?;
            return Ok(Instr::Binary {
                op: bin,
                dst: need_dst()?,
                lhs,
                rhs,
            });
        }
        if let Some(cmp) = parse_cmpop(op) {
            let (lhs, rhs) = two_regs(rest)?;
            return Ok(Instr::Cmp {
                op: cmp,
                dst: need_dst()?,
                lhs,
                rhs,
            });
        }
        if let Some(un) = parse_unop(op) {
            return Ok(Instr::Unary {
                op: un,
                dst: need_dst()?,
                src: reg(rest)?,
            });
        }

        match op {
            "iconst" => Ok(Instr::IConst {
                dst: need_dst()?,
                value: rest.parse().map_err(|_| ParseIlError {
                    line: lineno,
                    message: format!("bad integer {rest}"),
                })?,
            }),
            "fconst" => Ok(Instr::FConst {
                dst: need_dst()?,
                value: rest.parse().map_err(|_| ParseIlError {
                    line: lineno,
                    message: format!("bad float {rest}"),
                })?,
            }),
            "funcaddr" => {
                let name = rest.strip_prefix('@').ok_or_else(|| ParseIlError {
                    line: lineno,
                    message: "funcaddr needs @name".into(),
                })?;
                // Use a placeholder id; patched after all functions parse.
                let d = need_dst()?;
                if let Some(&id) = self.func_ids.get(name) {
                    Ok(Instr::FuncAddr { dst: d, func: id })
                } else {
                    // Temporary: FuncId(u32::MAX) patched in pass 2 is complex
                    // for funcaddr; require definition-before-use instead.
                    err(
                        lineno,
                        format!("funcaddr to not-yet-defined function @{name} (define it earlier)"),
                    )
                }
            }
            "copy" => Ok(Instr::Copy {
                dst: need_dst()?,
                src: reg(rest)?,
            }),
            "cload" | "sload" => {
                let (name, _) = parse_quoted(rest).ok_or_else(|| ParseIlError {
                    line: lineno,
                    message: "expected tag".into(),
                })?;
                let tag = self.lookup_tag(lineno, &name)?;
                let d = need_dst()?;
                Ok(if op == "cload" {
                    Instr::CLoad { dst: d, tag }
                } else {
                    Instr::SLoad { dst: d, tag }
                })
            }
            "sstore" => {
                let (r, restq) = rest.split_once(',').ok_or_else(|| ParseIlError {
                    line: lineno,
                    message: "sstore needs reg, tag".into(),
                })?;
                let (name, _) = parse_quoted(restq.trim()).ok_or_else(|| ParseIlError {
                    line: lineno,
                    message: "expected tag".into(),
                })?;
                Ok(Instr::SStore {
                    src: reg(r)?,
                    tag: self.lookup_tag(lineno, &name)?,
                })
            }
            "load" => {
                // load [rA] {...}
                let (addr, ts) = parse_bracketed(rest).ok_or_else(|| ParseIlError {
                    line: lineno,
                    message: "load needs [addr] {tags}".into(),
                })?;
                Ok(Instr::Load {
                    dst: need_dst()?,
                    addr: reg(addr)?,
                    tags: self.parse_tagset(lineno, ts.trim())?,
                })
            }
            "store" => {
                // store rS, [rA] {...}
                let (src, rest2) = rest.split_once(',').ok_or_else(|| ParseIlError {
                    line: lineno,
                    message: "store needs src, [addr] {tags}".into(),
                })?;
                let (addr, ts) = parse_bracketed(rest2.trim()).ok_or_else(|| ParseIlError {
                    line: lineno,
                    message: "store needs [addr] {tags}".into(),
                })?;
                Ok(Instr::Store {
                    src: reg(src)?,
                    addr: reg(addr)?,
                    tags: self.parse_tagset(lineno, ts.trim())?,
                })
            }
            "lea" => {
                let (name, _) = parse_quoted(rest).ok_or_else(|| ParseIlError {
                    line: lineno,
                    message: "expected tag".into(),
                })?;
                Ok(Instr::Lea {
                    dst: need_dst()?,
                    tag: self.lookup_tag(lineno, &name)?,
                })
            }
            "ptradd" => {
                let (base, off) = two_regs(rest)?;
                Ok(Instr::PtrAdd {
                    dst: need_dst()?,
                    base,
                    offset: off,
                })
            }
            "alloc" => {
                let (size, restq) = rest.split_once(',').ok_or_else(|| ParseIlError {
                    line: lineno,
                    message: "alloc needs size, site".into(),
                })?;
                let (name, _) = parse_quoted(restq.trim()).ok_or_else(|| ParseIlError {
                    line: lineno,
                    message: "expected site tag".into(),
                })?;
                Ok(Instr::Alloc {
                    dst: need_dst()?,
                    size: reg(size)?,
                    site: self.lookup_tag(lineno, &name)?,
                })
            }
            "call" => self.parse_call(lineno, rest, dst, this_func, block, instr_idx),
            "phi" => {
                let inner = rest
                    .strip_prefix('[')
                    .and_then(|t| t.strip_suffix(']'))
                    .ok_or_else(|| ParseIlError {
                        line: lineno,
                        message: "phi needs [B: r, ...]".into(),
                    })?;
                let mut args = Vec::new();
                for part in inner.split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        continue;
                    }
                    let (b, r) = part.split_once(':').ok_or_else(|| ParseIlError {
                        line: lineno,
                        message: format!("bad phi arg {part}"),
                    })?;
                    let bid = parse_block_label(b.trim()).ok_or_else(|| ParseIlError {
                        line: lineno,
                        message: format!("bad block {b}"),
                    })?;
                    args.push((bid, reg(r)?));
                }
                Ok(Instr::Phi {
                    dst: need_dst()?,
                    args,
                })
            }
            "jump" => {
                let t = parse_block_label(rest).ok_or_else(|| ParseIlError {
                    line: lineno,
                    message: format!("bad block {rest}"),
                })?;
                Ok(Instr::Jump { target: t })
            }
            "branch" => {
                let mut parts = rest.split(',').map(str::trim);
                let cond = reg(parts.next().unwrap_or(""))?;
                let t = parts
                    .next()
                    .and_then(parse_block_label)
                    .ok_or_else(|| ParseIlError {
                        line: lineno,
                        message: "bad then block".into(),
                    })?;
                let e = parts
                    .next()
                    .and_then(parse_block_label)
                    .ok_or_else(|| ParseIlError {
                        line: lineno,
                        message: "bad else block".into(),
                    })?;
                Ok(Instr::Branch {
                    cond,
                    then_bb: t,
                    else_bb: e,
                })
            }
            "ret" => {
                if rest.is_empty() {
                    Ok(Instr::Ret { value: None })
                } else {
                    Ok(Instr::Ret {
                        value: Some(reg(rest)?),
                    })
                }
            }
            "nop" => Ok(Instr::Nop),
            other => err(lineno, format!("unknown opcode {other}")),
        }
    }

    fn parse_call(
        &mut self,
        lineno: usize,
        rest: &str,
        dst: Option<Reg>,
        this_func: usize,
        block: usize,
        instr_idx: usize,
    ) -> Result<Instr> {
        // callee(args) mods{...} refs{...}
        let open = rest.find('(').ok_or_else(|| ParseIlError {
            line: lineno,
            message: "call needs (args)".into(),
        })?;
        let callee_text = rest[..open].trim();
        let close = rest.find(')').ok_or_else(|| ParseIlError {
            line: lineno,
            message: "call needs )".into(),
        })?;
        let args_text = &rest[open + 1..close];
        let mut args = Vec::new();
        for a in args_text.split(',') {
            let a = a.trim();
            if a.is_empty() {
                continue;
            }
            args.push(parse_reg(a).ok_or_else(|| ParseIlError {
                line: lineno,
                message: format!("bad argument {a}"),
            })?);
        }
        let tail = rest[close + 1..].trim();
        let (mods, refs) = if tail.is_empty() {
            (TagSet::All, TagSet::All)
        } else {
            let mods_text = tail.strip_prefix("mods").ok_or_else(|| ParseIlError {
                line: lineno,
                message: "expected mods{...}".into(),
            })?;
            let refs_at = mods_text.find("refs").ok_or_else(|| ParseIlError {
                line: lineno,
                message: "expected refs{...}".into(),
            })?;
            (
                self.parse_tagset(lineno, mods_text[..refs_at].trim())?,
                self.parse_tagset(lineno, mods_text[refs_at + 4..].trim())?,
            )
        };
        let callee = if let Some(name) = callee_text.strip_prefix('@') {
            if let Some(&id) = self.func_ids.get(name) {
                Callee::Direct(id)
            } else {
                // Forward reference: record for patching; use a placeholder.
                self.pending_funcs
                    .push((this_func, block, instr_idx, name.to_string()));
                Callee::Direct(FuncId(u32::MAX))
            }
        } else if let Some(name) = callee_text.strip_prefix('$') {
            Callee::Intrinsic(Intrinsic::from_name(name).ok_or_else(|| ParseIlError {
                line: lineno,
                message: format!("unknown intrinsic ${name}"),
            })?)
        } else if let Some(r) = callee_text.strip_prefix('*') {
            Callee::Indirect(parse_reg(r).ok_or_else(|| ParseIlError {
                line: lineno,
                message: format!("bad indirect target {r}"),
            })?)
        } else {
            return err(lineno, format!("bad callee {callee_text}"));
        };
        Ok(Instr::Call {
            dst,
            callee,
            args,
            effects: Box::new(CallEffects { mods, refs }),
        })
    }
}

fn parse_quoted(text: &str) -> Option<(String, &str)> {
    let text = text.trim_start();
    let rest = text.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some((rest[..end].to_string(), &rest[end + 1..]))
}

fn parse_bracketed(text: &str) -> Option<(&str, &str)> {
    let rest = text.trim_start().strip_prefix('[')?;
    let end = rest.find(']')?;
    Some((&rest[..end], &rest[end + 1..]))
}

fn parse_reg(text: &str) -> Option<Reg> {
    text.strip_prefix('r')?.parse().ok().map(Reg)
}

fn parse_block_label(text: &str) -> Option<BlockId> {
    text.strip_prefix('B')?.parse().ok().map(BlockId)
}

fn parse_binop(op: &str) -> Option<BinOp> {
    Some(match op {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        _ => return None,
    })
}

fn parse_cmpop(op: &str) -> Option<CmpOp> {
    Some(match op {
        "cmpeq" => CmpOp::Eq,
        "cmpne" => CmpOp::Ne,
        "cmplt" => CmpOp::Lt,
        "cmple" => CmpOp::Le,
        "cmpgt" => CmpOp::Gt,
        "cmpge" => CmpOp::Ge,
        _ => return None,
    })
}

fn parse_unop(op: &str) -> Option<UnaryOp> {
    Some(match op {
        "neg" => UnaryOp::Neg,
        "not" => UnaryOp::Not,
        "i2f" => UnaryOp::IntToFloat,
        "f2i" => UnaryOp::FloatToInt,
        _ => return None,
    })
}

/// Parses a textual IL module.
///
/// # Errors
///
/// Returns [`ParseIlError`] with the offending line on any syntax or
/// reference error (unknown tag, undefined function, malformed operand).
pub fn parse_module(src: &str) -> Result<Module> {
    Parser::new(src).parse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::module_to_string;

    const EXAMPLE: &str = r#"
; a tiny module
tag "g:x" global size=1 addressed
tag "main.buf" local owner=0 size=8
tag "heap@0" heap site=0 size=1
global "g:x" ints 41
func @main(0) result {
B0:
  r0 = iconst 1
  r1 = sload "g:x"
  r2 = add r1, r0
  sstore r2, "g:x"
  r3 = lea "main.buf"
  r4 = load [r3] {"g:x", "main.buf"}
  store r4, [r3] {*}
  r5 = alloc r0, "heap@0"
  branch r2, B1, B2
B1:
  r6 = call @helper(r2) mods{} refs{"g:x"}
  jump B2
B2:
  r7 = phi [B0: r2, B1: r6]
  call $print_int(r7) mods{} refs{}
  ret r7
}
func @helper(1) result {
B0:
  ret r0
}
"#;

    #[test]
    fn parses_example() {
        let m = parse_module(EXAMPLE).expect("parse");
        assert_eq!(m.funcs.len(), 2);
        assert_eq!(m.tags.len(), 3);
        assert_eq!(m.globals.len(), 1);
        let main = m.func(m.main().unwrap());
        assert_eq!(main.blocks.len(), 3);
        assert!(main.has_result);
        // Forward call reference was patched.
        let helper = m.lookup_func("helper").unwrap();
        let call = &main.block(BlockId(1)).instrs[0];
        assert_eq!(
            call,
            &Instr::Call {
                dst: Some(Reg(6)),
                callee: Callee::Direct(helper),
                args: vec![Reg(2)],
                effects: Box::new(CallEffects {
                    mods: TagSet::empty(),
                    refs: TagSet::single(TagId(0)),
                }),
            }
        );
    }

    #[test]
    fn roundtrips() {
        let m = parse_module(EXAMPLE).expect("parse");
        let text = module_to_string(&m);
        let m2 = parse_module(&text).expect("reparse");
        assert_eq!(m, m2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_module("tag \"x\" bogus size=1").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("unknown tag kind"));
    }

    #[test]
    fn rejects_unknown_tag_reference() {
        let src = "func @main(0) {\nB0:\n  r0 = sload \"nope\"\n  ret\n}\n";
        let e = parse_module(src).unwrap_err();
        assert!(e.message.contains("unknown tag"));
    }

    #[test]
    fn rejects_undefined_call() {
        let src = "func @main(0) {\nB0:\n  call @ghost() mods{} refs{}\n  ret\n}\n";
        let e = parse_module(src).unwrap_err();
        assert!(e.message.contains("undefined function"));
    }

    #[test]
    fn call_defaults_to_all_sets() {
        let src = "func @main(0) {\nB0:\n  call @main() \n  ret\n}\n";
        let m = parse_module(src).expect("parse");
        let call = &m.func(FuncId(0)).block(BlockId(0)).instrs[0];
        if let Instr::Call { effects, .. } = call {
            assert!(effects.mods.is_all() && effects.refs.is_all());
        } else {
            panic!("expected call");
        }
    }
}
