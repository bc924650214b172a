//! Decoding: a module flattened into one compact op array.
//!
//! Before executing, the VM rewrites every function into [`Op`]s: tags
//! resolve to a global object or a frame slot, block targets resolve to
//! segment numbers, φ-nodes become per-edge parallel moves, and `nop`s
//! vanish. Ops are laid out in *segments*: a run of straight-line ops
//! that ends with a call, a terminator, or a structural [`Op::Trap`].
//! Control enters a segment only at its first op — at a block's entry, or
//! where a call returns — so one counter bump per segment entry counts
//! every op in it, and [`Program::fold`] turns the entry counts back into
//! exact per-block [`ExecCounts`] by walking each entered segment's ops
//! ([`Program::total`] sums them without the per-block split).
//!
//! Where an op reads the result of the op just before it in the same
//! segment, the two are *fused* into one op that runs with one dispatch
//! (see [`fuse`]): `iconst` with the `Binary`/`Cmp` reading it, a `Cmp`
//! with the `If` closing its segment (the `iconst` before it too, when
//! there is one), and `ptradd` with the `load` through it. A fused op
//! still writes every register its instructions wrote, and counts as
//! those instructions.

use crate::counts::ExecCounts;
use crate::machine::VmError;
use ir::{park, take};
use ir::{BinOp, BlockId, Callee, CmpOp, FuncId, Function, Instr, Module, TagId, TagKind, UnaryOp};
use std::cell::Cell;
use std::ops::Deref;

/// "No register" in an optional register operand.
pub(crate) const NONE: u32 = u32::MAX;

/// One decoded operation. Register operands are frame indices.
///
/// An op is 16 bytes: a one-byte tag and at most 15 bytes of fields,
/// 8-aligned. `IConst` and `FConst` (a register and an 8-byte value),
/// the three-operand ops (`Binary`, `Cmp`, `PtrAdd`, `Branch`, `If`) and
/// the fused `CmpImmIf` fill it. The fused ops fit only by taking `u16`
/// registers, an `i32` immediate and `i16` branch targets relative to
/// their own segment; a pair whose operands do not fit stays unfused. A
/// unit test pins the size, since one wider field would make every op
/// bigger.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    IConst {
        dst: u32,
        value: i64,
    },
    FConst {
        dst: u32,
        value: f64,
    },
    FuncAddr {
        dst: u32,
        func: FuncId,
    },
    Copy {
        dst: u32,
        src: u32,
    },
    Unary {
        op: UnaryOp,
        dst: u32,
        src: u32,
    },
    Binary {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    Cmp {
        op: CmpOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// `sload`/`cload` of a global: cell 0 of object `obj`.
    LoadGlobal {
        dst: u32,
        obj: u32,
    },
    StoreGlobal {
        src: u32,
        obj: u32,
    },
    LeaGlobal {
        dst: u32,
        obj: u32,
    },
    /// `sload`/`cload` of the running frame's `slot`-th owned object.
    LoadLocal {
        dst: u32,
        slot: u32,
    },
    StoreLocal {
        src: u32,
        slot: u32,
    },
    LeaLocal {
        dst: u32,
        slot: u32,
    },
    Load {
        dst: u32,
        addr: u32,
    },
    Store {
        src: u32,
        addr: u32,
    },
    PtrAdd {
        dst: u32,
        base: u32,
        offset: u32,
    },
    Alloc {
        dst: u32,
        size: u32,
    },
    /// A counted operation that always fails with `faults[fault]` (a tag
    /// with no object in this function).
    Fault {
        fault: u32,
    },
    /// Ends its segment; execution resumes at the next segment.
    Call {
        site: u32,
    },
    /// A jump through the edge table: along an edge with φ moves, or into
    /// a trap.
    Jump {
        edge: u32,
    },
    /// A jump along an edge without φ moves: straight to segment `seg`.
    Goto {
        seg: u32,
    },
    /// A branch through the edge table (see [`Op::Jump`]).
    Branch {
        cond: u32,
        then_edge: u32,
        else_edge: u32,
    },
    /// A branch without φ moves: straight to either segment.
    If {
        cond: u32,
        then_seg: u32,
        else_seg: u32,
    },
    /// `value` is [`NONE`] for a void return.
    Ret {
        value: u32,
    },
    /// An uncounted structural failure, `faults[fault]`: a block without
    /// a terminator, a φ without an entry for the edge taken, a missing
    /// block.
    Trap {
        fault: u32,
    },
    /// Fused `k = iconst imm; dst = op lhs, k`, with `lhs != k`.
    BinaryImm {
        op: BinOp,
        dst: u16,
        lhs: u16,
        k: u16,
        imm: i32,
    },
    /// Fused `k = iconst imm; dst = op lhs, k`, with `lhs != k`.
    CmpImm {
        op: CmpOp,
        dst: u16,
        lhs: u16,
        k: u16,
        imm: i32,
    },
    /// Fused `dst = op lhs, rhs; branch dst` closing its segment: on to
    /// segment `seg + then_rel` or `seg + else_rel`.
    CmpIf {
        op: CmpOp,
        dst: u16,
        lhs: u16,
        rhs: u16,
        then_rel: i16,
        else_rel: i16,
    },
    /// Fused `k = iconst imm; dst = op lhs, k; branch dst`, with `lhs !=
    /// k`, closing its segment as [`Op::CmpIf`] does.
    CmpImmIf {
        op: CmpOp,
        dst: u16,
        lhs: u16,
        k: u16,
        imm: i32,
        then_rel: i16,
        else_rel: i16,
    },
    /// Fused `ptr = ptradd base, offset; dst = load [ptr]`.
    PtrAddLoad {
        dst: u16,
        ptr: u16,
        base: u16,
        offset: u16,
    },
}

impl Op {
    /// How many instructions the op stands for: several for a fused op,
    /// none for a trap.
    pub(crate) fn width(&self) -> u64 {
        match self {
            Op::Trap { .. } => 0,
            Op::BinaryImm { .. } | Op::CmpImm { .. } | Op::CmpIf { .. } | Op::PtrAddLoad { .. } => {
                2
            }
            Op::CmpImmIf { .. } => 3,
            _ => 1,
        }
    }

    /// The straight-line ops a fused op stands for, in order, leaving out
    /// the `If` that closes a fused compare; a plain op stands for itself.
    pub(crate) fn parts(&self) -> impl Iterator<Item = Op> {
        let iconst = |k: u16, imm: i32| Op::IConst {
            dst: k.into(),
            value: imm.into(),
        };
        let cmp = |op, dst: u16, lhs: u16, rhs: u16| Op::Cmp {
            op,
            dst: dst.into(),
            lhs: lhs.into(),
            rhs: rhs.into(),
        };
        let (parts, n) = match *self {
            Op::BinaryImm {
                op,
                dst,
                lhs,
                k,
                imm,
            } => (
                [
                    iconst(k, imm),
                    Op::Binary {
                        op,
                        dst: dst.into(),
                        lhs: lhs.into(),
                        rhs: k.into(),
                    },
                ],
                2,
            ),
            Op::CmpImm {
                op,
                dst,
                lhs,
                k,
                imm,
            }
            | Op::CmpImmIf {
                op,
                dst,
                lhs,
                k,
                imm,
                ..
            } => ([iconst(k, imm), cmp(op, dst, lhs, k)], 2),
            Op::CmpIf {
                op, dst, lhs, rhs, ..
            } => ([cmp(op, dst, lhs, rhs); 2], 1),
            Op::PtrAddLoad {
                dst,
                ptr,
                base,
                offset,
            } => (
                [
                    Op::PtrAdd {
                        dst: ptr.into(),
                        base: base.into(),
                        offset: offset.into(),
                    },
                    Op::Load {
                        dst: dst.into(),
                        addr: ptr.into(),
                    },
                ],
                2,
            ),
            op => ([op; 2], 1),
        };
        parts.into_iter().take(n)
    }
}

/// `next` fused onto `prev`, the op before it in segment `seg`, when
/// `next` reads `prev`'s result and every operand fits the fused op.
/// Kept out of line: decoding runs before every execution, often with
/// its code out of cache, and most ops fuse with nothing.
#[inline(never)]
fn fuse(prev: Op, next: Op, seg: usize) -> Option<Op> {
    let reg = |r: u32| u16::try_from(r).ok();
    let rel = |to: u32| i16::try_from(to as i64 - seg as i64).ok();
    Some(match (prev, next) {
        (Op::IConst { dst: k, value }, Op::Binary { op, dst, lhs, rhs })
            if rhs == k && lhs != k =>
        {
            Op::BinaryImm {
                op,
                dst: reg(dst)?,
                lhs: reg(lhs)?,
                k: reg(k)?,
                imm: i32::try_from(value).ok()?,
            }
        }
        (Op::IConst { dst: k, value }, Op::Cmp { op, dst, lhs, rhs }) if rhs == k && lhs != k => {
            Op::CmpImm {
                op,
                dst: reg(dst)?,
                lhs: reg(lhs)?,
                k: reg(k)?,
                imm: i32::try_from(value).ok()?,
            }
        }
        (
            Op::Cmp { op, dst, lhs, rhs },
            Op::If {
                cond,
                then_seg,
                else_seg,
            },
        ) if cond == dst => Op::CmpIf {
            op,
            dst: reg(dst)?,
            lhs: reg(lhs)?,
            rhs: reg(rhs)?,
            then_rel: rel(then_seg)?,
            else_rel: rel(else_seg)?,
        },
        (
            Op::CmpImm {
                op,
                dst,
                lhs,
                k,
                imm,
            },
            Op::If {
                cond,
                then_seg,
                else_seg,
            },
        ) if cond == dst.into() => Op::CmpImmIf {
            op,
            dst,
            lhs,
            k,
            imm,
            then_rel: rel(then_seg)?,
            else_rel: rel(else_seg)?,
        },
        (
            Op::PtrAdd {
                dst: ptr,
                base,
                offset,
            },
            Op::Load { dst, addr },
        ) if addr == ptr => Op::PtrAddLoad {
            dst: reg(dst)?,
            ptr: reg(ptr)?,
            base: reg(base)?,
            offset: reg(offset)?,
        },
        _ => return None,
    })
}

/// A straight-line run of ops entered only at `start`.
#[derive(Debug, Clone)]
pub(crate) struct Seg {
    /// Index of the first op. Segments are laid out in order, each one's
    /// ops ending where the next one's begin.
    pub(crate) start: u32,
    /// Counted instructions in the segment: those its ops stand for
    /// ([`Op::width`]).
    pub(crate) steps: u32,
    /// Times the running program entered the segment.
    pub(crate) entries: Cell<u64>,
}

impl Seg {
    fn new(start: usize) -> Seg {
        Seg {
            start: start as u32,
            steps: 0,
            entries: Cell::new(0),
        }
    }
}

/// A resolved control-flow edge: the target segment and the φ moves to
/// perform, in parallel, on the way.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    pub(crate) seg: u32,
    pub(crate) moves_start: u32,
    pub(crate) moves_end: u32,
}

#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    /// [`NONE`] when the result is unused.
    pub(crate) dst: u32,
    pub(crate) callee: Callee,
    pub(crate) args_start: u32,
    pub(crate) args_end: u32,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct FuncCode {
    pub(crate) arity: u32,
    pub(crate) regs: u32,
    /// The segment a call enters (a trap segment for a φ in the entry).
    pub(crate) entry: u32,
    /// The function's owned objects are `local_sizes[locals_start..
    /// locals_end]`, in slot order.
    pub(crate) locals_start: u32,
    pub(crate) locals_end: u32,
    /// Block `b`'s segments are `block_segs[blocks + b]..block_segs[blocks
    /// + b + 1]`.
    pub(crate) blocks: u32,
}

thread_local! {
    static TABLES: Cell<Option<Tables>> = const { Cell::new(None) };
}

/// A decoded module's tables and decoding's working vectors, parked on
/// the thread between runs ([`ir::park`]); sized by the module, uncapped.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    pub(crate) ops: Vec<Op>,
    pub(crate) segs: Vec<Seg>,
    pub(crate) edges: Vec<Edge>,
    /// φ moves, `(dst, src)`.
    pub(crate) moves: Vec<(u32, u32)>,
    pub(crate) calls: Vec<CallSite>,
    pub(crate) args: Vec<u32>,
    pub(crate) funcs: Vec<FuncCode>,
    pub(crate) block_segs: Vec<u32>,
    pub(crate) local_sizes: Vec<usize>,
    pub(crate) faults: Vec<VmError>,
    /// Each tag's home: its global object, or its slot in its owner's
    /// frame (the owner's tags in tag order); else [`NONE`].
    home: Vec<u32>,
    /// Function `f`'s owned objects are `local_sizes[locals[f]..locals[f
    /// + 1]]`.
    locals: Vec<u32>,
    /// Edges into traps, resolved once every function's segments exist.
    pending: Vec<(u32, VmError)>,
}

/// A decoded module: its tables, read through `Deref`, taken from the
/// thread and parked there again on drop.
#[derive(Debug)]
pub(crate) struct Program<'m> {
    pub(crate) module: &'m Module,
    tables: Tables,
}

impl Deref for Program<'_> {
    type Target = Tables;

    fn deref(&self) -> &Tables {
        &self.tables
    }
}

impl Drop for Program<'_> {
    fn drop(&mut self) {
        let tables = std::mem::take(&mut self.tables);
        park(&TABLES, tables, |t| t.ops.capacity());
    }
}

/// Adds `times` executions of `op` to `c`, by the paper's operation
/// classes: an op counts as the instructions it was decoded from.
fn tally(c: &mut ExecCounts, op: &Op, times: u64) {
    match op {
        Op::IConst { .. }
        | Op::FConst { .. }
        | Op::FuncAddr { .. }
        | Op::Unary { .. }
        | Op::Binary { .. }
        | Op::Cmp { .. }
        | Op::LeaGlobal { .. }
        | Op::LeaLocal { .. }
        | Op::PtrAdd { .. } => c.arith += times,
        Op::Copy { .. } => c.copies += times,
        Op::LoadGlobal { .. } | Op::LoadLocal { .. } => {
            c.loads += times;
            c.scalar_loads += times;
        }
        Op::StoreGlobal { .. } | Op::StoreLocal { .. } => {
            c.stores += times;
            c.scalar_stores += times;
        }
        Op::Load { .. } => {
            c.loads += times;
            c.ptr_loads += times;
        }
        Op::Store { .. } => {
            c.stores += times;
            c.ptr_stores += times;
        }
        Op::Alloc { .. } => c.allocs += times,
        Op::Call { .. } => c.calls += times,
        Op::Jump { .. } | Op::Goto { .. } | Op::Branch { .. } | Op::If { .. } | Op::Ret { .. } => {
            c.control += times
        }
        Op::BinaryImm { .. } | Op::CmpImm { .. } => c.arith += 2 * times,
        Op::CmpIf { .. } => {
            c.arith += times;
            c.control += times;
        }
        Op::CmpImmIf { .. } => {
            c.arith += 2 * times;
            c.control += times;
        }
        Op::PtrAddLoad { .. } => {
            c.arith += times;
            c.loads += times;
            c.ptr_loads += times;
        }
        // A segment holding either never completes, so a completed run
        // has entered none.
        Op::Fault { .. } | Op::Trap { .. } => return,
    }
    c.total += op.width() * times;
}

/// The instructions of a block that can execute: its φ-nodes are taken
/// on the edge and everything after the first terminator is dead.
fn body(instrs: &[Instr]) -> &[Instr] {
    let phi_end = instrs
        .iter()
        .position(|i| !matches!(i, Instr::Phi { .. }))
        .unwrap_or(instrs.len());
    let rest = &instrs[phi_end..];
    let end = rest
        .iter()
        .position(Instr::is_terminator)
        .map_or(rest.len(), |i| i + 1);
    &rest[..end]
}

impl<'m> Program<'m> {
    /// Decodes `module` into the thread's parked tables. Globals are
    /// numbered as the VM allocates them: object `i` is the `i`-th entry
    /// of `module.globals`.
    pub(crate) fn decode(module: &'m Module) -> Program<'m> {
        let mut tables = take(&TABLES);
        tables.decode(module);
        Program { module, tables }
    }

    /// Calls `visit(func, block, entries, counts)` for every block the
    /// run entered: how often, and the operations it executed. This is
    /// exact because every entry to a segment of a completed run executed
    /// all of its counted ops.
    pub(crate) fn fold(&self, mut visit: impl FnMut(usize, usize, u64, ExecCounts)) {
        for (f, (func, code)) in self.module.funcs.iter().zip(&self.funcs).enumerate() {
            let bounds = &self.block_segs[code.blocks as usize..];
            for b in 0..func.blocks.len() {
                // A block's later segments are reached only through its first.
                let entries = self.segs[bounds[b] as usize].entries.get();
                if entries == 0 {
                    continue;
                }
                let mut counts = ExecCounts::new();
                for seg in bounds[b]..bounds[b + 1] {
                    self.tally_seg(&mut counts, seg as usize);
                }
                visit(f, b, entries, counts);
            }
        }
    }

    /// The run's counts over every segment it entered; equal to the sum
    /// of [`Program::fold`]'s per-block counts.
    pub(crate) fn total(&self) -> ExecCounts {
        let mut counts = ExecCounts::new();
        for seg in 0..self.segs.len() {
            self.tally_seg(&mut counts, seg);
        }
        counts
    }

    /// Adds segment `seg`'s ops, once per entry, to `c`. They run up to
    /// the next segment's first op.
    fn tally_seg(&self, c: &mut ExecCounts, seg: usize) {
        let times = self.segs[seg].entries.get();
        if times == 0 {
            return;
        }
        let end = self
            .segs
            .get(seg + 1)
            .map_or(self.ops.len(), |s| s.start as usize);
        for op in &self.ops[self.segs[seg].start as usize..end] {
            tally(c, op, times);
        }
    }
}

impl Tables {
    /// Decodes `module` into these tables, clearing each one first.
    fn decode(&mut self, module: &Module) {
        let funcs = module.funcs.len();
        let owner = |kind: TagKind| kind.owner().filter(|&o| (o as usize) < funcs);
        let mut home = std::mem::take(&mut self.home);
        home.clear();
        home.resize(module.tags.len(), NONE);
        for (i, g) in module.globals.iter().enumerate() {
            if module.tags.info(g.tag).kind == TagKind::Global {
                home[g.tag.index()] = i as u32;
            }
        }
        let locals = &mut self.locals;
        locals.clear();
        locals.resize(funcs + 1, 0);
        for (id, info) in module.tags.iter() {
            if let Some(o) = owner(info.kind) {
                home[id.index()] = locals[o as usize + 1];
                locals[o as usize + 1] += 1;
            }
        }
        for f in 0..funcs {
            locals[f + 1] += locals[f];
        }
        self.local_sizes.clear();
        self.local_sizes.resize(locals[funcs] as usize, 0);
        for (id, info) in module.tags.iter() {
            if let Some(o) = owner(info.kind) {
                self.local_sizes[(locals[o as usize] + home[id.index()]) as usize] = info.size;
            }
        }
        // Reserve from the block lengths, so that a module bigger than the
        // parked tables grows each of them once.
        let (mut instrs, mut blocks) = (0, 0);
        for func in &module.funcs {
            blocks += func.blocks.len() + 1;
            instrs += func.blocks.iter().map(|b| b.instrs.len()).sum::<usize>();
        }
        self.ops.clear();
        self.ops.reserve(instrs + blocks);
        self.segs.clear();
        self.segs.reserve(instrs + blocks);
        self.funcs.clear();
        self.funcs.reserve(funcs);
        self.block_segs.clear();
        self.block_segs.reserve(blocks);
        self.edges.clear();
        self.moves.clear();
        self.calls.clear();
        self.args.clear();
        self.faults.clear();
        let mut pending = std::mem::take(&mut self.pending);
        pending.clear();
        for (f, func) in module.funcs.iter().enumerate() {
            let code = self.decode_func(module, f as u32, func, &home, &mut pending);
            self.funcs.push(FuncCode {
                locals_start: self.locals[f],
                locals_end: self.locals[f + 1],
                ..code
            });
        }
        for (edge, err) in pending.drain(..) {
            let seg = self.trap_seg(err);
            self.edges[edge as usize].seg = seg;
        }
        self.home = home;
        self.pending = pending;
    }

    fn fault(&mut self, err: VmError) -> u32 {
        self.faults.push(err);
        (self.faults.len() - 1) as u32
    }

    /// A zero-step segment that fails with `err`.
    fn trap_seg(&mut self, err: VmError) -> u32 {
        let fault = self.fault(err);
        self.segs.push(Seg::new(self.ops.len()));
        self.ops.push(Op::Trap { fault });
        (self.segs.len() - 1) as u32
    }

    fn decode_func(
        &mut self,
        module: &Module,
        f: u32,
        func: &Function,
        home: &[u32],
        pending: &mut Vec<(u32, VmError)>,
    ) -> FuncCode {
        // Number every block's segments first: one, plus one per call.
        // Count the calls' arguments too, to size their tables once.
        let blocks = self.block_segs.len();
        let mut next = self.segs.len() as u32;
        let (mut calls, mut args) = (0, 0);
        for block in &func.blocks {
            self.block_segs.push(next);
            next += 1;
            for instr in body(&block.instrs) {
                if let Instr::Call { args: a, .. } = instr {
                    next += 1;
                    calls += 1;
                    args += a.len();
                }
            }
        }
        self.block_segs.push(next);
        self.calls.reserve(calls);
        self.args.reserve(args);

        let tags = &module.tags;
        let home = |tag: TagId| {
            let info = tags.info(tag);
            match info.kind {
                TagKind::Global if home[tag.index()] != NONE => {
                    Some(Home::Global(home[tag.index()]))
                }
                _ if info.kind.owner() == Some(f) => Some(Home::Local(home[tag.index()])),
                _ => None,
            }
        };
        for (b, block) in func.blocks.iter().enumerate() {
            let from = BlockId(b as u32);
            let mut steps = 0;
            self.segs.push(Seg::new(self.ops.len()));
            let mut terminated = false;
            for instr in body(&block.instrs) {
                let op = match instr {
                    Instr::Nop | Instr::Phi { .. } => continue,
                    Instr::IConst { dst, value } => Op::IConst {
                        dst: dst.0,
                        value: *value,
                    },
                    Instr::FConst { dst, value } => Op::FConst {
                        dst: dst.0,
                        value: *value,
                    },
                    Instr::FuncAddr { dst, func } => Op::FuncAddr {
                        dst: dst.0,
                        func: *func,
                    },
                    Instr::Copy { dst, src } => Op::Copy {
                        dst: dst.0,
                        src: src.0,
                    },
                    Instr::Unary { op, dst, src } => Op::Unary {
                        op: *op,
                        dst: dst.0,
                        src: src.0,
                    },
                    Instr::Binary { op, dst, lhs, rhs } => Op::Binary {
                        op: *op,
                        dst: dst.0,
                        lhs: lhs.0,
                        rhs: rhs.0,
                    },
                    Instr::Cmp { op, dst, lhs, rhs } => Op::Cmp {
                        op: *op,
                        dst: dst.0,
                        lhs: lhs.0,
                        rhs: rhs.0,
                    },
                    Instr::CLoad { dst, tag } | Instr::SLoad { dst, tag } => match home(*tag) {
                        Some(Home::Global(obj)) => Op::LoadGlobal { dst: dst.0, obj },
                        Some(Home::Local(slot)) => Op::LoadLocal { dst: dst.0, slot },
                        None => self.no_object(module, *tag),
                    },
                    Instr::SStore { src, tag } => match home(*tag) {
                        Some(Home::Global(obj)) => Op::StoreGlobal { src: src.0, obj },
                        Some(Home::Local(slot)) => Op::StoreLocal { src: src.0, slot },
                        None => self.no_object(module, *tag),
                    },
                    Instr::Lea { dst, tag } => match home(*tag) {
                        Some(Home::Global(obj)) => Op::LeaGlobal { dst: dst.0, obj },
                        Some(Home::Local(slot)) => Op::LeaLocal { dst: dst.0, slot },
                        None => self.no_object(module, *tag),
                    },
                    Instr::Load { dst, addr, .. } => Op::Load {
                        dst: dst.0,
                        addr: addr.0,
                    },
                    Instr::Store { src, addr, .. } => Op::Store {
                        src: src.0,
                        addr: addr.0,
                    },
                    Instr::PtrAdd { dst, base, offset } => Op::PtrAdd {
                        dst: dst.0,
                        base: base.0,
                        offset: offset.0,
                    },
                    Instr::Alloc { dst, size, .. } => Op::Alloc {
                        dst: dst.0,
                        size: size.0,
                    },
                    Instr::Call {
                        dst, callee, args, ..
                    } => {
                        let args_start = self.args.len() as u32;
                        self.args.extend(args.iter().map(|r| r.0));
                        self.calls.push(CallSite {
                            dst: dst.map_or(NONE, |d| d.0),
                            callee: callee.clone(),
                            args_start,
                            args_end: self.args.len() as u32,
                        });
                        let site = (self.calls.len() - 1) as u32;
                        self.close_seg(steps + 1, Op::Call { site });
                        steps = 0;
                        self.segs.push(Seg::new(self.ops.len()));
                        continue;
                    }
                    Instr::Jump { target } => match self.edge(func, blocks, from, *target, pending)
                    {
                        Dest::Seg(seg) => Op::Goto { seg },
                        Dest::Edge(edge) => Op::Jump { edge },
                    },
                    Instr::Branch {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let cond = cond.0;
                        let then = self.edge(func, blocks, from, *then_bb, pending);
                        let other = self.edge(func, blocks, from, *else_bb, pending);
                        match (then, other) {
                            (Dest::Seg(then_seg), Dest::Seg(else_seg)) => Op::If {
                                cond,
                                then_seg,
                                else_seg,
                            },
                            (then, other) => Op::Branch {
                                cond,
                                then_edge: self.table_edge(then),
                                else_edge: self.table_edge(other),
                            },
                        }
                    }
                    Instr::Ret { value } => Op::Ret {
                        value: value.map_or(NONE, |r| r.0),
                    },
                };
                steps += 1;
                self.push(op);
                if instr.is_terminator() {
                    self.segs.last_mut().expect("a segment is open").steps = steps;
                    terminated = true;
                }
            }
            if !terminated {
                let fault = self.fault(VmError::Malformed(format!(
                    "block {from} of @{} fell through without a terminator",
                    func.name
                )));
                self.close_seg(steps, Op::Trap { fault });
            }
        }
        let entry = match func.blocks.get(func.entry.index()) {
            Some(block) if !matches!(block.instrs.first(), Some(Instr::Phi { .. })) => {
                self.block_segs[blocks + func.entry.index()]
            }
            Some(_) => self.trap_seg(VmError::Malformed(format!(
                "phi in entry block of @{}",
                func.name
            ))),
            None => self.trap_seg(VmError::Malformed(format!(
                "@{} has no entry block {}",
                func.name, func.entry
            ))),
        };
        FuncCode {
            arity: func.arity as u32,
            regs: func.next_reg.max(func.arity as u32),
            entry,
            locals_start: 0,
            locals_end: 0,
            blocks: blocks as u32,
        }
    }

    /// Appends `op` to the open segment, fused with the op before it when
    /// [`fuse`] allows. Only these kinds can be a first or a second half,
    /// and checking them here keeps the call off most ops. The op before
    /// a segment's first closed the segment before it: never a first half.
    fn push(&mut self, op: Op) {
        if let Some(prev) = self.ops.last_mut() {
            let first = matches!(
                prev,
                Op::IConst { .. } | Op::Cmp { .. } | Op::CmpImm { .. } | Op::PtrAdd { .. }
            );
            let second = matches!(
                op,
                Op::Binary { .. } | Op::Cmp { .. } | Op::If { .. } | Op::Load { .. }
            );
            // One branch on both: which ops fuse is data, not a pattern
            // the predictor learns.
            if first & second {
                if let Some(fused) = fuse(*prev, op, self.segs.len() - 1) {
                    *prev = fused;
                    return;
                }
            }
        }
        self.ops.push(op);
    }

    /// Ends the open segment, of `steps` counted instructions, with
    /// `last`: a call or a trap, which fuse with nothing.
    fn close_seg(&mut self, steps: u32, last: Op) {
        self.segs.last_mut().expect("a segment is open").steps = steps;
        self.ops.push(last);
    }

    /// A counted op that fails: `tag` has no object in this function.
    fn no_object(&mut self, module: &Module, tag: TagId) -> Op {
        let info = module.tags.info(tag);
        let msg = match info.kind {
            TagKind::Global => format!("global \"{}\" has no definition", info.name),
            _ => format!("tag \"{}\" not owned by the running function", info.name),
        };
        Op::Fault {
            fault: self.fault(VmError::NoObject(msg)),
        }
    }

    /// Where the edge `from → to` goes: straight to `to`'s first segment
    /// if it needs no φ moves, else through an edge-table entry carrying
    /// the moves of `to`'s leading φ-nodes. An edge that cannot be taken
    /// leads to a trap segment, made once every function's segments are
    /// numbered. `to`'s function's blocks start at `block_segs[blocks]`.
    fn edge(
        &mut self,
        func: &Function,
        blocks: usize,
        from: BlockId,
        to: BlockId,
        pending: &mut Vec<(u32, VmError)>,
    ) -> Dest {
        let moves_start = self.moves.len() as u32;
        let mut broken = None;
        match func.blocks.get(to.index()) {
            None => {
                broken = Some(VmError::Malformed(format!(
                    "@{} branches to missing block {to}",
                    func.name
                )))
            }
            Some(block) => {
                for instr in &block.instrs {
                    let Instr::Phi { dst, args } = instr else {
                        break;
                    };
                    match args.iter().find(|(b, _)| *b == from) {
                        Some((_, src)) => self.moves.push((dst.0, src.0)),
                        None => {
                            broken = Some(VmError::Malformed(format!(
                                "phi in {to} lacks entry for predecessor {from}"
                            )));
                            break;
                        }
                    }
                }
            }
        }
        let seg = match broken {
            Some(err) => {
                self.moves.truncate(moves_start as usize);
                pending.push((self.edges.len() as u32, err));
                NONE
            }
            None if self.moves.len() as u32 == moves_start => {
                return Dest::Seg(self.block_segs[blocks + to.index()]);
            }
            None => self.block_segs[blocks + to.index()],
        };
        self.edges.push(Edge {
            seg,
            moves_start,
            moves_end: self.moves.len() as u32,
        });
        Dest::Edge((self.edges.len() - 1) as u32)
    }

    /// `dest` as an edge-table entry, for a branch whose other edge needs
    /// one.
    fn table_edge(&mut self, dest: Dest) -> u32 {
        match dest {
            Dest::Seg(seg) => {
                let at = self.moves.len() as u32;
                self.edges.push(Edge {
                    seg,
                    moves_start: at,
                    moves_end: at,
                });
                (self.edges.len() - 1) as u32
            }
            Dest::Edge(edge) => edge,
        }
    }
}

/// Where a control transfer goes: straight to a segment, or through an
/// edge-table entry (φ moves, or a trap).
enum Dest {
    Seg(u32),
    Edge(u32),
}

/// Where a tag's object lives while its function runs.
#[derive(Clone, Copy)]
enum Home {
    Global(u32),
    Local(u32),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_keeps_ops_at_sixteen_bytes() {
        // A field that outgrows `IConst`, the three-register ops and the
        // fused `CmpImmIf` makes every op bigger: keep it out of line, as
        // a call's arguments are, or leave the pair it comes from unfused.
        assert_eq!(std::mem::size_of::<Op>(), 16);
    }

    /// The variant names of the ops `src` decodes to.
    fn decoded(src: &str) -> Vec<String> {
        let module = ir::parse_module(src).expect("parse");
        let code = Program::decode(&module);
        code.ops
            .iter()
            .map(|op| format!("{op:?}").split(' ').next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn each_pair_that_reads_the_op_before_it_fuses() {
        let ops = decoded(
            r#"
tag "g:a" global size=4 addressed
global "g:a" ints 1 2 3 4
func @main(0) result {
B0:
  r0 = iconst 0
  r2 = lea "g:a"
  jump B1
B1:
  r3 = iconst 4
  r3 = cmplt r0, r3
  branch r3, B2, B3
B2:
  r4 = ptradd r2, r0
  r5 = load [r4] {"g:a"}
  r6 = iconst 1
  r7 = cmpeq r5, r6
  r0 = add r0, r7
  r1 = cmplt r0, r5
  branch r1, B1, B3
B3:
  ret r0
}
"#,
        );
        let b0 = ["IConst", "LeaGlobal", "Goto"];
        let b2 = ["PtrAddLoad", "CmpImm", "Binary", "CmpIf"];
        assert_eq!(ops, [&b0[..], &["CmpImmIf"], &b2, &["Ret"]].concat());
    }

    #[test]
    fn a_pair_that_does_not_fit_stays_unfused() {
        let ops = decoded(
            r#"
func @main(1) result {
B0:
  r1 = iconst 5000000000
  r2 = add r0, r1
  r3 = iconst 1
  r4 = sub r3, r0
  r70000 = iconst 1
  r5 = add r0, r70000
  r6 = iconst 2
  r6 = mul r6, r6
  ret r6
}
"#,
        );
        // A constant beyond `i32`, a constant on the left, a register
        // beyond `u16`, and a constant read twice.
        let pair = ["IConst", "Binary"];
        assert_eq!(ops, [&pair[..], &pair, &pair, &pair, &["Ret"]].concat());
    }
}
