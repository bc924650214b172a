//! The IL interpreter.
//!
//! Memory is a store of *objects*; every pointer is a fat `(object,
//! generation, offset)` triple, so pointer arithmetic is well defined and
//! use-after-return is detected rather than silently misread.
//!
//! The interpreter runs the module's decoded form (see `decode.rs`) and
//! counts per *segment*, not per operation: entering a segment bumps its
//! frequency counter and charges its length to the step budget, and the
//! run's [`ExecCounts`] are the segment frequencies times each segment's
//! static counts. That is exactly the per-operation count, because a
//! segment is only ever entered at its first op and left at its last;
//! a run that stops inside one — a trap or the step limit — returns an
//! error, and no counts. A fused op runs its instructions with one
//! dispatch, on the values it already holds: the immediate, the compare
//! result it branches on, the pointer it loads through.

use crate::counts::ExecCounts;
use crate::decode::{Op, Program, NONE};
use crate::profile::{BlockProfile, FuncProfile, Profile};
use crate::value::{ObjId, Ptr, Value};
use ir::{park, take, BinOp, Callee, CmpOp, FuncId, GlobalInit, Intrinsic, Module, UnaryOp};
use std::cell::Cell;
use std::cmp::Ordering;
use std::error::Error;
use std::fmt;

/// The most heap cells one run may hold: the sum of every `malloc` so
/// far, since heap objects are never freed. 2^20 cells is over 25,000
/// times the largest heap the programs here use (the benchmark suite never
/// calls `malloc`; the first 1,000 CI fuzz-campaign programs and the edit
/// campaign's 400 use at most 40 cells), and at 24 bytes a cell it keeps
/// a runaway program's heap under 25 MiB.
pub const MAX_HEAP_CELLS: u64 = 1 << 20;

/// The most cells a thread keeps parked between runs (see [`Storage`]),
/// summed over the register files and cell buffers it keeps, smallest
/// buffers first: a buffer that would take the sum past it is freed
/// instead. 2^16 cells is 1.5 MiB at 24 bytes a cell, 16 times under a
/// full heap, and the benchmark suite's programs, run one after another,
/// find every buffer they need parked.
const POOLED_CELLS: usize = 1 << 16;

/// The most objects whose cell buffers a thread keeps parked between
/// runs, and the most entries a parked object, frame or free-slot table
/// may have room for; a larger table is freed. A run that `malloc`s
/// millions of one-cell objects leaves at most 2^12 buffers parked.
const POOLED_OBJECTS: usize = 1 << 12;

/// The most register files a thread keeps parked between runs: one per
/// call depth reached, so a deep recursion frees the rest.
const POOLED_REG_FILES: usize = 64;

/// The most lines one run may print: every `print_int`/`print_float` line
/// is held in [`Outcome::output`] until the run returns. 2^24 lines is 4.7
/// times the largest output the programs here print (an edit-campaign
/// mutant prints 3,596,272 lines; the first 1,000 CI fuzz-campaign
/// programs print at most 996,182, the benchmark suite 5), and at about
/// 55 bytes a short line it keeps a runaway program's output under 1 GiB.
pub const MAX_OUTPUT_LINES: u64 = 1 << 24;

/// The most bytes of text one run may print, summed over its lines. The
/// line bound alone lets long lines through: `print_float` of `-f64::MAX`
/// prints 317 characters, held in about 650 bytes, so 2^24 such lines
/// would take about 11 GB. 2^28 bytes is 62 times the most text the
/// programs here print (an edit-campaign mutant prints 4,309,100 bytes on
/// 3,521,306 lines; none of the first 1,000 CI fuzz-campaign programs
/// prints 4 MB, and no benchmark run prints over 73,803 lines, which at
/// 317 bytes a line is under 24 MB), and it keeps a run of the longest
/// lines to about 0.5 GiB.
pub const MAX_OUTPUT_BYTES: u64 = 1 << 28;

/// Execution limits and switches.
#[derive(Debug, Clone)]
pub struct VmOptions {
    /// Abort after this many executed operations.
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            max_steps: 1 << 33,
            max_depth: 2_000,
        }
    }
}

/// A dynamic execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// Arithmetic on incompatible or uninitialized operands.
    TypeError(String),
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Dereference outside an object's bounds.
    OutOfBounds(String),
    /// Dereference of a pointer whose object has been freed.
    UseAfterFree,
    /// A non-pointer was dereferenced or a non-function was called.
    BadAddress(String),
    /// Reference to a tag with no live object (e.g. another function's
    /// local accessed by name).
    NoObject(String),
    /// The step budget was exhausted.
    StepLimit(u64),
    /// The call-depth budget was exhausted.
    StackOverflow(usize),
    /// `main` is missing or a function fell off its end.
    Malformed(String),
    /// A `malloc` the VM cannot hold: it would take the run's heap past
    /// [`MAX_HEAP_CELLS`], or its cells' storage cannot be reserved. Or a
    /// print that would take the run's output past [`MAX_OUTPUT_LINES`] or
    /// [`MAX_OUTPUT_BYTES`].
    OutOfMemory(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::TypeError(m) => write!(f, "type error: {m}"),
            VmError::DivisionByZero => write!(f, "division by zero"),
            VmError::OutOfBounds(m) => write!(f, "out-of-bounds access: {m}"),
            VmError::UseAfterFree => write!(f, "use after free"),
            VmError::BadAddress(m) => write!(f, "bad address: {m}"),
            VmError::NoObject(m) => write!(f, "no live object: {m}"),
            VmError::StepLimit(n) => write!(f, "step limit of {n} exceeded"),
            VmError::StackOverflow(n) => write!(f, "call depth limit of {n} exceeded"),
            VmError::Malformed(m) => write!(f, "malformed program: {m}"),
            VmError::OutOfMemory(m) => write!(f, "out of memory: {m}"),
        }
    }
}

impl Error for VmError {}

/// The result of a completed execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The value returned by the entry function, if any.
    pub result: Option<Value>,
    /// Exit code (from `$exit`, else the integer result of `main`, else 0).
    pub exit_code: i64,
    /// Lines printed by the `print_*` intrinsics.
    pub output: Vec<String>,
    /// Dynamic instruction counts.
    pub counts: ExecCounts,
}

impl Outcome {
    /// An FNV-1a digest of the printed lines, each ended by a newline.
    pub fn output_digest(&self) -> u64 {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for line in &self.output {
            for b in line.bytes().chain([b'\n']) {
                digest = (digest ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        digest
    }
}

/// Every counter, the exit code and the output digest, on one line.
impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.counts;
        write!(
            f,
            "total={} loads={} stores={} sloads={} sstores={} ploads={} pstores={} \
             copies={} calls={} control={} arith={} allocs={} exit={} out={:016x}",
            c.total,
            c.loads,
            c.stores,
            c.scalar_loads,
            c.scalar_stores,
            c.ptr_loads,
            c.ptr_stores,
            c.copies,
            c.calls,
            c.control,
            c.arith,
            c.allocs,
            self.exit_code,
            self.output_digest(),
        )
    }
}

fn find_main(module: &Module) -> Result<FuncId, VmError> {
    module
        .main()
        .ok_or_else(|| VmError::Malformed("no @main function".into()))
}

/// Why a run ended early. The error is boxed so the hot path's results
/// stay as small as a [`Value`].
enum Stop {
    Error(Box<VmError>),
    Exit(i64),
}

impl From<VmError> for Stop {
    #[cold]
    fn from(e: VmError) -> Self {
        Stop::Error(Box::new(e))
    }
}

type Exec<T> = Result<T, Stop>;

/// The fault of a print past [`MAX_OUTPUT_LINES`] (`lines`) or past
/// [`MAX_OUTPUT_BYTES`]; out of line, so the print path stays small.
#[cold]
#[inline(never)]
fn past_the_output_bound(lines: bool) -> Stop {
    VmError::OutOfMemory(if lines {
        format!("printing past the {MAX_OUTPUT_LINES}-line output bound")
    } else {
        format!("printing past the {MAX_OUTPUT_BYTES}-byte output bound")
    })
    .into()
}

#[derive(Debug, Clone, Copy)]
struct ObjRef {
    id: ObjId,
    gen: u32,
}

#[derive(Debug)]
struct Obj {
    gen: u32,
    live: bool,
    data: Vec<Value>,
}

thread_local! {
    static STORAGE: Cell<Option<Storage>> = const { Cell::new(None) };
}

/// What a VM's run allocates and leaves for the next run on its thread
/// ([`ir::park`]): the [`Vm`] fields of the same names, and the
/// objects' cell buffers.
#[derive(Default)]
pub(crate) struct Storage {
    objects: Vec<Obj>,
    cells: Vec<Vec<Value>>,
    free_slots: Vec<u32>,
    locals: Vec<ObjRef>,
    spare_regs: Vec<Vec<Value>>,
    phi_values: Vec<Value>,
    invocations: Vec<u64>,
}

impl Storage {
    /// Cells held in buffers, for keeping the larger of two parked sets.
    fn cells_held(&self) -> usize {
        self.cells
            .iter()
            .chain(&self.spare_regs)
            .map(Vec::capacity)
            .sum()
    }
}

/// The interpreter's state for one run of a decoded module.
pub struct Vm {
    options: VmOptions,
    objects: Vec<Obj>,
    /// Cell buffers parked for objects not created yet, by capacity,
    /// smallest first: a new object takes the smallest that holds it.
    cells: Vec<Vec<Value>>,
    free_slots: Vec<u32>,
    /// The owned objects of every active frame, innermost last.
    locals: Vec<ObjRef>,
    /// Register files of returned frames, kept for the next call. Each is
    /// empty: [`Vm::call`] clears a file as it returns it, unlike the
    /// other storage, which whoever takes it clears (clearing in
    /// [`Vm::call_with`] instead ran calls 4% slower).
    spare_regs: Vec<Vec<Value>>,
    /// Reusable buffer for parallel φ moves.
    phi_values: Vec<Value>,
    /// Calls per function.
    invocations: Vec<u64>,
    /// Operations charged so far: the segments entered, in full.
    steps: u64,
    /// Cells allocated by `malloc` so far (all still live).
    heap_cells: u64,
    output: Vec<String>,
    /// Bytes of text in `output`.
    output_bytes: u64,
    depth: usize,
}

impl Vm {
    /// Runs `main` with no arguments.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on any dynamic failure, including a missing
    /// `main`.
    pub fn run_main(module: &Module, options: VmOptions) -> Result<Outcome, VmError> {
        let main = find_main(module)?;
        Self::run(module, main, &[], options)
    }

    /// Runs `main` with no arguments and also returns where the
    /// operations went: per function and per block.
    ///
    /// # Errors
    ///
    /// As [`Vm::run_main`].
    pub fn run_main_profiled(
        module: &Module,
        options: VmOptions,
    ) -> Result<(Outcome, Profile), VmError> {
        let main = find_main(module)?;
        Self::run_profiled(module, main, &[], options)
    }

    /// Runs `func` with `args`.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on any dynamic failure (type errors, bounds
    /// violations, step/stack limits, ...).
    pub fn run(
        module: &Module,
        func: FuncId,
        args: &[Value],
        options: VmOptions,
    ) -> Result<Outcome, VmError> {
        let code = Program::decode(module);
        let mut vm = Vm::new(&code, options);
        let mut outcome = vm.start(&code, func, args)?;
        outcome.counts = code.total();
        debug_assert_eq!(outcome.counts.total, vm.steps);
        Ok(outcome)
    }

    /// Runs `func` with `args` and also returns the run's [`Profile`].
    ///
    /// # Errors
    ///
    /// As [`Vm::run`].
    pub fn run_profiled(
        module: &Module,
        func: FuncId,
        args: &[Value],
        options: VmOptions,
    ) -> Result<(Outcome, Profile), VmError> {
        let code = Program::decode(module);
        let mut vm = Vm::new(&code, options);
        let mut outcome = vm.start(&code, func, args)?;
        let mut profile = Profile {
            funcs: module
                .funcs
                .iter()
                .zip(&vm.invocations)
                .map(|(f, &invocations)| FuncProfile {
                    invocations,
                    blocks: vec![BlockProfile::default(); f.blocks.len()],
                })
                .collect(),
        };
        code.fold(|f, b, entries, counts| {
            profile.funcs[f].blocks[b] = BlockProfile { entries, counts };
            outcome.counts += counts;
        });
        debug_assert_eq!(outcome.counts.total, vm.steps);
        Ok((outcome, profile))
    }

    /// Calls `func` and reports how the run ended; its counts are left
    /// in the segment frequencies.
    fn start(&mut self, code: &Program, func: FuncId, args: &[Value]) -> Result<Outcome, VmError> {
        let mut regs = self.spare_regs.pop().unwrap_or_default();
        regs.extend_from_slice(args);
        let (result, exit_code) = match self.call(code, func.0, regs) {
            Ok(result) => {
                let exit_code = match result {
                    Some(Value::Int(v)) => v,
                    _ => 0,
                };
                (result, exit_code)
            }
            Err(Stop::Exit(code)) => (None, code),
            Err(Stop::Error(e)) => return Err(*e),
        };
        Ok(Outcome {
            result,
            exit_code,
            output: std::mem::take(&mut self.output),
            counts: ExecCounts::new(),
        })
    }

    /// Prepares a VM for `code` on the storage parked on the thread:
    /// initializes globals, the `i`-th global as object `i`.
    fn new(code: &Program, options: VmOptions) -> Self {
        let module = code.module;
        let Storage {
            mut objects,
            cells,
            mut free_slots,
            mut locals,
            spare_regs,
            mut phi_values,
            mut invocations,
        } = take(&STORAGE);
        objects.clear();
        objects.reserve(module.globals.len());
        free_slots.clear();
        locals.clear();
        phi_values.clear();
        invocations.clear();
        invocations.resize(code.funcs.len(), 0);
        let mut vm = Vm {
            options,
            objects,
            cells,
            free_slots,
            locals,
            spare_regs,
            phi_values,
            invocations,
            steps: 0,
            heap_cells: 0,
            output: Vec::new(),
            output_bytes: 0,
            depth: 0,
        };
        for g in &module.globals {
            let size = module.tags.info(g.tag).size;
            let mut data = vm.new_cells(size);
            data.resize(
                size,
                match g.init {
                    // A float global is fully float-typed.
                    GlobalInit::Floats(_) => Value::Float(0.0),
                    _ => Value::Int(0),
                },
            );
            match &g.init {
                GlobalInit::Zero => {}
                GlobalInit::Ints(vs) => {
                    for (cell, v) in data.iter_mut().zip(vs) {
                        *cell = Value::Int(*v);
                    }
                }
                GlobalInit::Floats(vs) => {
                    for (cell, v) in data.iter_mut().zip(vs) {
                        *cell = Value::Float(*v);
                    }
                }
            }
            vm.objects.push(Obj {
                gen: 0,
                live: true,
                data,
            });
        }
        vm
    }

    /// An empty buffer for a new object of `size` cells: the smallest
    /// parked one that holds them, else a new one. Fitting by size keeps
    /// a scalar out of a buffer sized for another program's array.
    fn new_cells(&mut self, size: usize) -> Vec<Value> {
        let fits = self.cells.partition_point(|b| b.capacity() < size);
        let mut data = match fits < self.cells.len() {
            true => self.cells.remove(fits),
            false => Vec::new(),
        };
        data.clear();
        data
    }

    /// An object of `size` cells, all `Uninit`, reusing a freed slot and
    /// its storage when one is available.
    fn alloc_object(&mut self, size: usize) -> ObjRef {
        let r = self.alloc_slot(size);
        self.objects[r.id.index()].data.resize(size, Value::Uninit);
        r
    }

    /// A live object with no cells yet, where `size` will fit: a freed
    /// slot with its storage, or a new object number.
    fn alloc_slot(&mut self, size: usize) -> ObjRef {
        if let Some(slot) = self.free_slots.pop() {
            let obj = &mut self.objects[slot as usize];
            obj.live = true;
            ObjRef {
                id: ObjId(slot),
                gen: obj.gen,
            }
        } else {
            let id = ObjId(self.objects.len() as u32);
            let data = self.new_cells(size);
            self.objects.push(Obj {
                gen: 0,
                live: true,
                data,
            });
            ObjRef { id, gen: 0 }
        }
    }

    /// A `malloc` of `cells` cells: refused, not attempted, when it would
    /// take the heap past [`MAX_HEAP_CELLS`] or its storage cannot be
    /// reserved.
    fn alloc_heap(&mut self, cells: u64) -> Exec<ObjRef> {
        if cells > MAX_HEAP_CELLS - self.heap_cells {
            return Err(VmError::OutOfMemory(format!(
                "malloc of {cells} cells with {} already allocated exceeds the \
                 {MAX_HEAP_CELLS}-cell heap",
                self.heap_cells
            ))
            .into());
        }
        let r = self.alloc_slot(cells as usize);
        let data = &mut self.objects[r.id.index()].data;
        if data.try_reserve_exact(cells as usize).is_err() {
            return Err(
                VmError::OutOfMemory(format!("cannot reserve storage for {cells} cells")).into(),
            );
        }
        data.resize(cells as usize, Value::Uninit);
        self.heap_cells += cells;
        Ok(r)
    }

    /// Appends a printed line: refused when it would take the output past
    /// [`MAX_OUTPUT_LINES`] or [`MAX_OUTPUT_BYTES`].
    fn print(&mut self, line: String) -> Exec<()> {
        let bytes = line.len() as u64;
        let lines = self.output.len() as u64 >= MAX_OUTPUT_LINES;
        if lines || bytes > MAX_OUTPUT_BYTES - self.output_bytes {
            return Err(past_the_output_bound(lines));
        }
        self.output_bytes += bytes;
        self.output.push(line);
        Ok(())
    }

    fn free_object(&mut self, r: ObjRef) {
        let obj = &mut self.objects[r.id.index()];
        obj.live = false;
        obj.gen = obj.gen.wrapping_add(1);
        obj.data.clear();
        self.free_slots.push(r.id.0);
    }

    #[inline]
    fn read_cell(&self, p: Ptr) -> Exec<Value> {
        match self.objects.get(p.obj.index()) {
            // A negative offset wraps to beyond any object.
            Some(obj) if obj.live && obj.gen == p.gen => match obj.data.get(p.off as usize) {
                Some(v) => Ok(*v),
                None => Err(out_of_bounds(p.off, obj.data.len())),
            },
            Some(_) => Err(VmError::UseAfterFree.into()),
            None => Err(bad_object(p)),
        }
    }

    #[inline]
    fn write_cell(&mut self, p: Ptr, v: Value) -> Exec<()> {
        match self.objects.get_mut(p.obj.index()) {
            Some(obj) if obj.live && obj.gen == p.gen => match obj.data.get_mut(p.off as usize) {
                Some(cell) => {
                    *cell = v;
                    Ok(())
                }
                None => Err(out_of_bounds(p.off, obj.data.len())),
            },
            Some(_) => Err(VmError::UseAfterFree.into()),
            None => Err(bad_object(p)),
        }
    }

    /// Cell 0 of object `obj`, which the running code names by tag: a
    /// global, never freed, or one of the running frame's objects, freed
    /// only when it returns. Either is live, so only the size is checked.
    #[inline]
    fn tag_cell(&mut self, obj: ObjId) -> Exec<&mut Value> {
        let data = &mut self.objects[obj.index()].data;
        let len = data.len();
        data.first_mut().ok_or_else(|| out_of_bounds(0, len))
    }

    /// The running frame's `slot`-th object.
    #[inline]
    fn local(&self, frame: usize, slot: u32) -> ObjRef {
        self.locals[frame + slot as usize]
    }

    /// Calls `func` with `regs`, the callee's register file holding just
    /// the arguments; it gets fresh owned objects, and both are released
    /// again when it returns.
    fn call(&mut self, code: &Program, func: u32, mut regs: Vec<Value>) -> Exec<Option<Value>> {
        let Some(&f) = code.funcs.get(func as usize) else {
            return Err(VmError::Malformed(format!("call to missing function @{func}")).into());
        };
        if self.depth == self.options.max_depth {
            return Err(VmError::StackOverflow(self.options.max_depth).into());
        }
        if regs.len() != f.arity as usize {
            return Err(VmError::Malformed(format!(
                "@{} called with {} args, arity {}",
                code.module.funcs[func as usize].name,
                regs.len(),
                f.arity
            ))
            .into());
        }
        self.depth += 1;
        self.invocations[func as usize] += 1;
        regs.resize(f.regs as usize, Value::Uninit);
        let frame = self.locals.len();
        for &size in &code.local_sizes[f.locals_start as usize..f.locals_end as usize] {
            let r = self.alloc_object(size);
            self.locals.push(r);
        }
        let result = self.exec(code, f.entry as usize, &mut regs, frame);
        for i in frame..self.locals.len() {
            let r = self.locals[i];
            self.free_object(r);
        }
        self.locals.truncate(frame);
        regs.clear();
        self.spare_regs.push(regs);
        self.depth -= 1;
        result
    }

    /// Takes edge `edge`: its φ moves, in parallel, then its target.
    #[inline]
    fn take(&mut self, code: &Program, edge: u32, regs: &mut [Value]) -> usize {
        let e = code.edges[edge as usize];
        let moves = &code.moves[e.moves_start as usize..e.moves_end as usize];
        if !moves.is_empty() {
            self.phi_values.clear();
            self.phi_values
                .extend(moves.iter().map(|&(_, src)| regs[src as usize]));
            for (&(dst, _), &v) in moves.iter().zip(&self.phi_values) {
                regs[dst as usize] = v;
            }
        }
        e.seg as usize
    }

    /// Runs a function body from segment `seg` until it returns.
    fn exec(
        &mut self,
        code: &Program,
        mut seg: usize,
        regs: &mut [Value],
        frame: usize,
    ) -> Exec<Option<Value>> {
        'seg: loop {
            let s = &code.segs[seg];
            s.entries.set(s.entries.get() + 1);
            self.steps += s.steps as u64;
            let ops = &code.ops[s.start as usize..];
            if self.steps > self.options.max_steps {
                // Per-instruction counting would stop here, after the
                // instructions that still fit; a trap among them comes
                // first. Neither the call nor the terminator closing the
                // segment fits, and of a fused op that straddles the
                // budget only the parts that fit run, unfused.
                let mut fit = s.steps as u64 - (self.steps - self.options.max_steps);
                for op in ops {
                    if fit == 0 {
                        break;
                    }
                    for part in op.parts().take(fit as usize) {
                        self.straight(code, &part, regs, frame)?;
                    }
                    fit = fit.saturating_sub(op.width());
                }
                return Err(VmError::StepLimit(self.options.max_steps).into());
            }
            for op in ops {
                match *op {
                    Op::Goto { seg: next } => {
                        seg = next as usize;
                        continue 'seg;
                    }
                    Op::If {
                        cond,
                        then_seg,
                        else_seg,
                    } => {
                        let taken = truth(regs[cond as usize])?;
                        seg = if taken { then_seg } else { else_seg } as usize;
                        continue 'seg;
                    }
                    Op::CmpIf {
                        op,
                        dst,
                        lhs,
                        rhs,
                        then_rel,
                        else_rel,
                    } => {
                        let taken = compare(op, regs[lhs as usize], regs[rhs as usize])?;
                        regs[dst as usize] = Value::Int(taken as i64);
                        seg = fused_target(seg, taken, then_rel, else_rel);
                        continue 'seg;
                    }
                    Op::CmpImmIf {
                        op,
                        dst,
                        lhs,
                        k,
                        imm,
                        then_rel,
                        else_rel,
                    } => {
                        let c = Value::Int(imm.into());
                        let taken = compare(op, regs[lhs as usize], c)?;
                        regs[k as usize] = c;
                        regs[dst as usize] = Value::Int(taken as i64);
                        seg = fused_target(seg, taken, then_rel, else_rel);
                        continue 'seg;
                    }
                    Op::Call { site } => {
                        let site = &code.calls[site as usize];
                        let args = &code.args[site.args_start as usize..site.args_end as usize];
                        let result = match site.callee {
                            Callee::Direct(f) => self.call_with(code, f.0, args, regs)?,
                            Callee::Indirect(r) => match regs[r.index()] {
                                Value::Func(f) => self.call_with(code, f.0, args, regs)?,
                                other => {
                                    return Err(VmError::BadAddress(format!(
                                        "indirect call through {}",
                                        other.kind_name()
                                    ))
                                    .into())
                                }
                            },
                            Callee::Intrinsic(i) => self.intrinsic(i, args, regs)?,
                        };
                        // The front end gives every indirect call a result
                        // register; a void callee leaves it `Uninit`, so only
                        // a computation on it faults.
                        if site.dst != NONE {
                            regs[site.dst as usize] = result.unwrap_or(Value::Uninit);
                        }
                        seg += 1;
                        continue 'seg;
                    }
                    Op::Jump { edge } => {
                        seg = self.take(code, edge, regs);
                        continue 'seg;
                    }
                    Op::Branch {
                        cond,
                        then_edge,
                        else_edge,
                    } => {
                        let taken = truth(regs[cond as usize])?;
                        seg = self.take(code, if taken { then_edge } else { else_edge }, regs);
                        continue 'seg;
                    }
                    Op::Ret { value } => {
                        return Ok((value != NONE).then(|| regs[value as usize]));
                    }
                    Op::Trap { fault } => {
                        return Err(code.faults[fault as usize].clone().into());
                    }
                    _ => self.straight(code, op, regs, frame)?,
                }
            }
            unreachable!("every segment ends in a call, a terminator or a trap");
        }
    }

    /// Calls `func` with the values of the caller's registers `args`.
    #[inline]
    fn call_with(
        &mut self,
        code: &Program,
        func: u32,
        args: &[u32],
        regs: &[Value],
    ) -> Exec<Option<Value>> {
        let mut callee = self.spare_regs.pop().unwrap_or_default();
        callee.extend(args.iter().map(|&r| regs[r as usize]));
        self.call(code, func, callee)
    }

    /// Executes one op that neither calls nor transfers control.
    #[inline(always)]
    fn straight(&mut self, code: &Program, op: &Op, regs: &mut [Value], frame: usize) -> Exec<()> {
        match *op {
            Op::IConst { dst, value } => regs[dst as usize] = Value::Int(value),
            Op::FConst { dst, value } => regs[dst as usize] = Value::Float(value),
            Op::FuncAddr { dst, func } => regs[dst as usize] = Value::Func(func),
            Op::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
            Op::Unary { op, dst, src } => {
                regs[dst as usize] = eval_unary(op, regs[src as usize])?;
            }
            Op::Binary { op, dst, lhs, rhs } => {
                regs[dst as usize] = binary(op, regs[lhs as usize], regs[rhs as usize])?;
            }
            Op::Cmp { op, dst, lhs, rhs } => {
                let met = compare(op, regs[lhs as usize], regs[rhs as usize])?;
                regs[dst as usize] = Value::Int(met as i64);
            }
            Op::BinaryImm {
                op,
                dst,
                lhs,
                k,
                imm,
            } => {
                let c = Value::Int(imm.into());
                let v = binary(op, regs[lhs as usize], c)?;
                regs[k as usize] = c;
                regs[dst as usize] = v;
            }
            Op::CmpImm {
                op,
                dst,
                lhs,
                k,
                imm,
            } => {
                let c = Value::Int(imm.into());
                let met = compare(op, regs[lhs as usize], c)?;
                regs[k as usize] = c;
                regs[dst as usize] = Value::Int(met as i64);
            }
            Op::LoadGlobal { dst, obj } => regs[dst as usize] = *self.tag_cell(ObjId(obj))?,
            Op::StoreGlobal { src, obj } => *self.tag_cell(ObjId(obj))? = regs[src as usize],
            Op::LeaGlobal { dst, obj } => {
                regs[dst as usize] = Value::Ptr(Ptr {
                    obj: ObjId(obj),
                    gen: 0,
                    off: 0,
                })
            }
            Op::LoadLocal { dst, slot } => {
                let r = self.local(frame, slot);
                regs[dst as usize] = *self.tag_cell(r.id)?;
            }
            Op::StoreLocal { src, slot } => {
                let r = self.local(frame, slot);
                *self.tag_cell(r.id)? = regs[src as usize];
            }
            Op::LeaLocal { dst, slot } => {
                let r = self.local(frame, slot);
                regs[dst as usize] = Value::Ptr(Ptr {
                    obj: r.id,
                    gen: r.gen,
                    off: 0,
                });
            }
            Op::Load { dst, addr } => {
                let p = expect_ptr(regs[addr as usize])?;
                regs[dst as usize] = self.read_cell(p)?;
            }
            Op::PtrAddLoad {
                dst,
                ptr,
                base,
                offset,
            } => {
                let p = ptr_add(regs[base as usize], regs[offset as usize])?;
                regs[ptr as usize] = Value::Ptr(p);
                regs[dst as usize] = self.read_cell(p)?;
            }
            Op::Store { src, addr } => {
                let p = expect_ptr(regs[addr as usize])?;
                self.write_cell(p, regs[src as usize])?;
            }
            Op::PtrAdd { dst, base, offset } => {
                regs[dst as usize] =
                    Value::Ptr(ptr_add(regs[base as usize], regs[offset as usize])?);
            }
            Op::Alloc { dst, size } => {
                let n = regs[size as usize].as_int().ok_or_else(|| {
                    Stop::from(VmError::TypeError("alloc size must be int".into()))
                })?;
                if n < 0 {
                    return Err(VmError::TypeError(format!("negative alloc size {n}")).into());
                }
                let r = self.alloc_heap(n as u64)?;
                regs[dst as usize] = Value::Ptr(Ptr {
                    obj: r.id,
                    gen: r.gen,
                    off: 0,
                });
            }
            Op::Fault { fault } => return Err(code.faults[fault as usize].clone().into()),
            Op::Call { .. }
            | Op::Jump { .. }
            | Op::Goto { .. }
            | Op::Branch { .. }
            | Op::If { .. }
            | Op::CmpIf { .. }
            | Op::CmpImmIf { .. }
            | Op::Ret { .. }
            | Op::Trap { .. } => unreachable!("segment enders are dispatched by `exec`"),
        }
        Ok(())
    }

    fn intrinsic(&mut self, intr: Intrinsic, args: &[u32], regs: &[Value]) -> Exec<Option<Value>> {
        if args.len() < intr.arity() {
            return Err(VmError::Malformed(format!(
                "${} called with {} args, arity {}",
                intr.name(),
                args.len(),
                intr.arity()
            ))
            .into());
        }
        let arg = |i: usize| regs[args[i] as usize];
        let float = |v: Value| {
            v.as_float().ok_or_else(|| {
                Stop::from(VmError::TypeError(format!(
                    "${} expects float, got {}",
                    intr.name(),
                    v.kind_name()
                )))
            })
        };
        let int = |v: Value| {
            v.as_int().ok_or_else(|| {
                Stop::from(VmError::TypeError(format!(
                    "${} expects int, got {}",
                    intr.name(),
                    v.kind_name()
                )))
            })
        };
        Ok(match intr {
            Intrinsic::PrintInt => {
                self.print(int(arg(0))?.to_string())?;
                None
            }
            Intrinsic::PrintFloat => {
                self.print(format!("{:.6}", float(arg(0))?))?;
                None
            }
            Intrinsic::Sqrt => Some(Value::Float(float(arg(0))?.sqrt())),
            Intrinsic::Sin => Some(Value::Float(float(arg(0))?.sin())),
            Intrinsic::Cos => Some(Value::Float(float(arg(0))?.cos())),
            Intrinsic::Pow => Some(Value::Float(float(arg(0))?.powf(float(arg(1))?))),
            Intrinsic::AbsInt => Some(Value::Int(int(arg(0))?.wrapping_abs())),
            Intrinsic::AbsFloat => Some(Value::Float(float(arg(0))?.abs())),
            Intrinsic::Exit => return Err(Stop::Exit(int(arg(0))?)),
        })
    }
}

impl Drop for Vm {
    /// Parks the run's storage on its thread, within the caps, the
    /// smaller cell buffers first.
    fn drop(&mut self) {
        let mut cells = std::mem::take(&mut self.cells);
        let objects = self.objects.iter_mut().take(POOLED_OBJECTS);
        cells.extend(objects.map(|obj| std::mem::take(&mut obj.data)));
        cells.sort_unstable_by_key(Vec::capacity);
        cells.truncate(POOLED_OBJECTS);
        let mut spare_regs = std::mem::take(&mut self.spare_regs);
        spare_regs.truncate(POOLED_REG_FILES);
        let mut room = POOLED_CELLS;
        for buf in spare_regs.iter_mut().chain(&mut cells) {
            match room.checked_sub(buf.capacity()) {
                Some(left) => room = left,
                None => *buf = Vec::new(),
            }
        }
        cells.retain(|buf| buf.capacity() > 0);
        let storage = Storage {
            objects: capped(&mut self.objects),
            cells,
            free_slots: capped(&mut self.free_slots),
            locals: capped(&mut self.locals),
            spare_regs,
            phi_values: std::mem::take(&mut self.phi_values),
            invocations: std::mem::take(&mut self.invocations),
        };
        park(&STORAGE, storage, Storage::cells_held);
    }
}

/// The table `v` for parking, unless it has room for more than
/// [`POOLED_OBJECTS`] entries: then an empty one, and `v` is freed.
fn capped<T>(v: &mut Vec<T>) -> Vec<T> {
    if v.capacity() > POOLED_OBJECTS {
        Vec::new()
    } else {
        std::mem::take(v)
    }
}

/// Where a fused compare closing segment `seg` branches.
#[inline(always)]
fn fused_target(seg: usize, taken: bool, then_rel: i16, else_rel: i16) -> usize {
    seg.wrapping_add_signed(if taken { then_rel } else { else_rel }.into())
}

/// A branch condition.
#[inline]
fn truth(v: Value) -> Exec<bool> {
    match v {
        Value::Int(c) => Ok(c != 0),
        other => Err(VmError::TypeError(format!(
            "branch condition must be int, got {}",
            other.kind_name()
        ))
        .into()),
    }
}

#[cold]
fn out_of_bounds(off: i64, len: usize) -> Stop {
    VmError::OutOfBounds(format!("offset {off} in object of {len} cells")).into()
}

#[cold]
fn bad_object(p: Ptr) -> Stop {
    VmError::BadAddress(format!("object {}", p.obj.0)).into()
}

#[inline]
fn expect_ptr(v: Value) -> Exec<Ptr> {
    match v {
        Value::Ptr(p) => Ok(p),
        other => {
            Err(VmError::BadAddress(format!("expected pointer, got {}", other.kind_name())).into())
        }
    }
}

/// `ptradd base, offset`. Wrapping, like the integer ops: an
/// out-of-range offset is caught when the pointer is dereferenced.
#[inline(always)]
fn ptr_add(base: Value, offset: Value) -> Exec<Ptr> {
    let p = expect_ptr(base)?;
    match offset {
        Value::Int(off) => Ok(Ptr {
            off: p.off.wrapping_add(off),
            ..p
        }),
        other => Err(VmError::TypeError(format!(
            "ptradd offset must be int, got {}",
            other.kind_name()
        ))
        .into()),
    }
}

#[cold]
fn type_err(op: &str, a: Value, b: Value) -> Stop {
    Stop::from(VmError::TypeError(format!(
        "{op} on {} and {}",
        a.kind_name(),
        b.kind_name()
    )))
}

fn eval_unary(op: UnaryOp, v: Value) -> Exec<Value> {
    Ok(match (op, v) {
        (UnaryOp::Neg, Value::Int(a)) => Value::Int(a.wrapping_neg()),
        (UnaryOp::Neg, Value::Float(a)) => Value::Float(-a),
        (UnaryOp::Not, Value::Int(a)) => Value::Int((a == 0) as i64),
        (UnaryOp::IntToFloat, Value::Int(a)) => Value::Float(a as f64),
        (UnaryOp::FloatToInt, Value::Float(a)) => Value::Int(a as i64),
        (op, v) => {
            return Err(Stop::from(VmError::TypeError(format!(
                "{} on {}",
                op.mnemonic(),
                v.kind_name()
            ))))
        }
    })
}

/// A binary operator: two integers inline; anything else through the
/// general evaluator, which also reports the type errors.
#[inline(always)]
fn binary(op: BinOp, a: Value, b: Value) -> Exec<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(Value::Int(int_binary(op, x, y)?)),
        _ => eval_binary(op, a, b),
    }
}

/// A binary operator on two integers.
#[inline(always)]
fn int_binary(op: BinOp, x: i64, y: i64) -> Exec<i64> {
    use BinOp::*;
    Ok(match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div | Rem if y == 0 => return Err(VmError::DivisionByZero.into()),
        Div => x.wrapping_div(y),
        Rem => x.wrapping_rem(y),
        And => x & y,
        Or => x | y,
        Xor => x ^ y,
        Shl => x.wrapping_shl((y & 63) as u32),
        Shr => x.wrapping_shr((y & 63) as u32),
    })
}

/// A binary operator on any operands; [`binary`] handles two integers
/// inline and defers to this for the rest.
#[inline(never)]
fn eval_binary(op: BinOp, a: Value, b: Value) -> Exec<Value> {
    use BinOp::*;
    Ok(match (a, b) {
        (Value::Int(x), Value::Int(y)) => Value::Int(int_binary(op, x, y)?),
        (Value::Float(x), Value::Float(y)) => match op {
            Add => Value::Float(x + y),
            Sub => Value::Float(x - y),
            Mul => Value::Float(x * y),
            Div => Value::Float(x / y),
            Rem => Value::Float(x % y),
            _ => return Err(type_err(op.mnemonic(), a, b)),
        },
        _ => return Err(type_err(op.mnemonic(), a, b)),
    })
}

/// Whether comparison `op` holds for operands ordered `ord`.
#[inline(always)]
fn holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// Whether comparison `op` holds for `a` and `b`: two integers inline,
/// anything else through [`eval_cmp`].
#[inline(always)]
fn compare(op: CmpOp, a: Value, b: Value) -> Exec<bool> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(holds(op, x.cmp(&y))),
        _ => eval_cmp(op, a, b),
    }
}

/// A comparison on any operands; see [`eval_binary`].
#[inline(never)]
fn eval_cmp(op: CmpOp, a: Value, b: Value) -> Exec<bool> {
    // The null-pointer idiom: a pointer may be equality-compared with the
    // integer 0 (and is never equal to it).
    match (op, a, b) {
        (CmpOp::Eq, Value::Ptr(_), Value::Int(0))
        | (CmpOp::Eq, Value::Int(0), Value::Ptr(_))
        | (CmpOp::Eq, Value::Func(_), Value::Int(0))
        | (CmpOp::Eq, Value::Int(0), Value::Func(_)) => return Ok(false),
        (CmpOp::Ne, Value::Ptr(_), Value::Int(0))
        | (CmpOp::Ne, Value::Int(0), Value::Ptr(_))
        | (CmpOp::Ne, Value::Func(_), Value::Int(0))
        | (CmpOp::Ne, Value::Int(0), Value::Func(_)) => return Ok(true),
        _ => {}
    }
    let ord = match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(&y),
        (Value::Float(x), Value::Float(y)) => {
            x.partial_cmp(&y).unwrap_or(Ordering::Greater) // NaN compares greater
        }
        (Value::Ptr(p), Value::Ptr(q)) => (p.obj.0, p.gen, p.off).cmp(&(q.obj.0, q.gen, q.off)),
        (Value::Func(f), Value::Func(g)) => f.0.cmp(&g.0),
        _ => return Err(type_err(op.mnemonic(), a, b)),
    };
    Ok(holds(op, ord))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prints `line` on a VM for an empty module whose output already
    /// holds `bytes` bytes.
    fn print_after(bytes: u64, line: &str) -> Result<(), VmError> {
        let module = Module::default();
        let code = Program::decode(&module);
        let mut vm = Vm::new(&code, VmOptions::default());
        vm.output_bytes = bytes;
        vm.print(line.to_string()).map_err(|stop| match stop {
            Stop::Error(e) => *e,
            Stop::Exit(code) => panic!("exit {code}"),
        })
    }

    #[test]
    fn the_output_bound_counts_every_printed_byte() {
        // The longest line `print_float` makes.
        let line = format!("{:.6}", -f64::MAX);
        assert_eq!(line.len(), 317);
        let room = MAX_OUTPUT_BYTES - line.len() as u64;
        print_after(room, &line).expect("exactly the bound fits");
        let e = print_after(room + 1, &line).expect_err("one byte over");
        assert!(
            matches!(&e, VmError::OutOfMemory(m) if m.contains(&MAX_OUTPUT_BYTES.to_string())),
            "{e}"
        );
        print_after(MAX_OUTPUT_BYTES, "").expect("an empty line adds no byte");
    }

    #[test]
    fn a_run_with_a_full_heap_leaves_only_the_caps_parked() {
        // 10,000 one-cell mallocs, then the rest of the heap in one, then
        // recursion 100 deep: each is over one of the caps.
        let module = ir::parse_module(
            r#"
tag "heap@0" heap site=0 size=1
func @down(1) result {
B0:
  r1 = iconst 0
  r2 = cmpeq r0, r1
  branch r2, B2, B1
B1:
  r3 = iconst 1
  r4 = sub r0, r3
  r5 = call @down(r4) mods{} refs{}
  ret r5
B2:
  ret r0
}
func @main(0) result {
B0:
  r0 = iconst 10000
  r1 = iconst 1
  jump B1
B1:
  r2 = alloc r1, "heap@0"
  r0 = sub r0, r1
  branch r0, B1, B2
B2:
  r3 = iconst 1038576
  r4 = alloc r3, "heap@0"
  r5 = iconst 100
  r6 = call @down(r5) mods{} refs{}
  ret r6
}
"#,
        )
        .expect("parse");
        Vm::run_main(&module, VmOptions::default()).expect("the heap bound fits");
        let parked = take(&STORAGE);
        assert!(
            parked.cells_held() <= POOLED_CELLS,
            "{}",
            parked.cells_held()
        );
        assert_eq!(parked.cells.len(), POOLED_OBJECTS);
        assert_eq!(parked.spare_regs.len(), POOLED_REG_FILES);
        for table in [
            parked.objects.capacity(),
            parked.free_slots.capacity(),
            parked.locals.capacity(),
        ] {
            assert!(table <= POOLED_OBJECTS, "{table}");
        }
    }
}
