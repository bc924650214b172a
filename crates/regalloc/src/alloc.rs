//! Chaitin–Briggs graph-coloring register allocation.
//!
//! The paper's compiler uses "a graph-coloring allocator [Briggs, Cooper &
//! Torczon]" whose copy coalescing "is quite effective at eliminating" the
//! copies promotion introduces, and whose spilling can *undo* a promotion
//! when demand exceeds supply (the `water` anomaly). This allocator
//! reproduces both behaviours:
//!
//! * interference graph from backward liveness (copies interfere with all
//!   of `live-after` except their source);
//! * Briggs-conservative coalescing of register copies;
//! * simplify/select with optimistic coloring and loop-depth-weighted
//!   spill costs;
//! * spill code through compiler-introduced **spill tags**, so spill
//!   traffic shows up in the measured load/store counts exactly as it does
//!   in the paper's figures.
//!
//! Allocation is split into a per-function core ([`allocate_function_in`])
//! that touches only the function body plus a read-only tag-table snapshot,
//! and a sequential commit ([`commit_spills`]) that interns the spill tags
//! the core requested. The core hands out *provisional* tag ids (at or
//! above [`PROVISIONAL_SPILL_BASE`]); committing in function-index order
//! reproduces exactly the tag table a sequential allocation would build,
//! which is what lets the driver fan functions out across threads without
//! perturbing printed IL.
//!
//! The rounds are incremental. A function's liveness is solved once, at
//! its first interference build; the parameter rename, each coalescing
//! sweep and each spill round report the registers they changed to the
//! analysis cache, which keeps liveness current
//! ([`FunctionAnalyses::note_regs_changed`]), and a spill round in a
//! function without parameters patches the interference graph instead of
//! rebuilding it. Debug builds check every such step against a solve and
//! a build from scratch.

use crate::matrix::BitMatrix;
use cfg::{for_each_instr_backwards_in, Cfg, FunctionAnalyses, Liveness, RegSet};
use ir::{BlockId, FuncId, Function, Instr, Module, Reg, RewriteBuf, TagId, TagKind, TagTable};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// "No entry" in the dense per-register tables.
const NONE: u32 = u32::MAX;

/// Reusable allocator state for [`allocate_function_in`]: the
/// interference graph and coalescer's class adjacency (the two big
/// [`BitMatrix`] builds), every per-round simplify/select table, the
/// dense spill bookkeeping, and the [`RewriteBuf`] the spill inserter
/// rebuilds blocks through. One of these lives per pipeline worker; in the
/// steady state a round allocates only where the body grows and where a
/// spill tag is named.
pub struct AllocScratch {
    graph: BitMatrix,
    graph_version: Option<u64>,
    class_adj: BitMatrix,
    significant: Vec<u64>,
    parent: Vec<u32>,
    copies: Vec<(Reg, Reg)>,
    other_adj: Vec<u32>,
    dirty: Vec<BlockId>,
    blocks: Vec<BlockId>,
    changed: RegSet,
    costs: Vec<f64>,
    simplify: Simplify,
    color: Vec<Option<u32>>,
    used_colors: Vec<u64>,
    spill: SpillTables,
    shadows: Vec<Reg>,
    used_regs: Vec<u32>,
    remap_tmp: Vec<Reg>,
    occurs: RegSet,
    rw: RewriteBuf,
    /// Debug builds' rebuild that checks the graph patched after a spill
    /// round.
    check: BitMatrix,
}

impl Default for AllocScratch {
    fn default() -> Self {
        AllocScratch {
            graph: BitMatrix::new(0),
            graph_version: None,
            class_adj: BitMatrix::new(0),
            significant: Vec::new(),
            parent: Vec::new(),
            copies: Vec::new(),
            other_adj: Vec::new(),
            dirty: Vec::new(),
            blocks: Vec::new(),
            changed: RegSet::new(0),
            costs: Vec::new(),
            simplify: Simplify::default(),
            color: Vec::new(),
            used_colors: Vec::new(),
            spill: SpillTables::default(),
            shadows: Vec::new(),
            used_regs: Vec::new(),
            remap_tmp: Vec::new(),
            occurs: RegSet::new(0),
            rw: RewriteBuf::new(),
            check: BitMatrix::new(0),
        }
    }
}

/// Simplify's trivially colorable nodes: the work-list registers not yet
/// removed whose degree is below K. The next pick is the lowest member,
/// the register an ascending scan of the work list would find first.
#[derive(Default)]
struct LowSet {
    words: Vec<u64>,
    /// No word below this one has a member.
    first: usize,
}

impl LowSet {
    fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.first = 0;
    }

    fn insert(&mut self, r: u32) {
        let w = r as usize / 64;
        self.words[w] |= 1 << (r % 64);
        self.first = self.first.min(w);
    }

    fn pop_first(&mut self) -> Option<u32> {
        while let Some(&w) = self.words.get(self.first) {
            if w != 0 {
                self.words[self.first] = w & (w - 1);
                return Some((self.first * 64) as u32 + w.trailing_zeros());
            }
            self.first += 1;
        }
        None
    }
}

/// One entry of simplify's spill heap, ordered field by field: the least
/// entry is the cheapest candidate per neighbor among the
/// non-temporaries, ties to the lowest register, and a spill temporary
/// only once no other node is left. The key is the cost/degree quotient's
/// bit pattern, which for a non-negative `f64` orders as the value does.
/// `degree` is the degree the key was computed at; a node that has lost
/// neighbors since is re-keyed when its entry reaches the top. Keys only
/// grow as degrees fall, so a stale entry surfaces no later than its true
/// key would, and the first fresh top is the true minimum.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Blocked {
    temp: bool,
    key: u64,
    reg: u32,
    degree: usize,
}

impl Blocked {
    fn new(reg: u32, temp: bool, costs: &[f64], degree: &[usize]) -> Reverse<Blocked> {
        let d = degree[reg as usize];
        Reverse(Blocked {
            temp,
            key: (costs[reg as usize] / (d.max(1) as f64)).to_bits(),
            reg,
            degree: d,
        })
    }
}

/// Simplify's working state: the degree of every node as the graph
/// shrinks, the removal flags, the low-degree set, the spill heap and the
/// removal stack that select pops.
#[derive(Default)]
struct Simplify {
    degree: Vec<usize>,
    removed: Vec<bool>,
    low: LowSet,
    /// A min-heap: [`BinaryHeap`] pops its maximum.
    blocked: BinaryHeap<Reverse<Blocked>>,
    stack: Vec<u32>,
}

impl Simplify {
    /// Removes every register of `work` (registers at or above
    /// `precolored`) from `g` onto `self.stack`. Each pick is the lowest
    /// register of degree < `k`; when there is none, it is the least
    /// cost/degree among the non-temporaries left, ties to the lowest
    /// register, and among the temporaries (`no_spill`) only when no other
    /// node is left. `fill_costs` is called at most once, at the first
    /// such blocked pick, to fill `costs`.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        g: &BitMatrix,
        work: &RegSet,
        precolored: u32,
        k: usize,
        no_spill: &[bool],
        costs: &mut Vec<f64>,
        fill_costs: impl FnOnce(&mut Vec<f64>),
    ) {
        let Simplify {
            degree,
            removed,
            low,
            blocked,
            stack,
        } = self;
        let n = g.len();
        degree.clear();
        degree.extend((0..n as u32).map(|r| g.degree(r)));
        removed.clear();
        removed.resize(n, false);
        low.reset(n);
        // Work nodes left with degree >= k.
        let mut high = 0;
        for r in work.iter().map(|r| r.0).filter(|&r| r >= precolored) {
            if degree[r as usize] < k {
                low.insert(r);
            } else {
                high += 1;
            }
        }
        blocked.clear();
        stack.clear();
        let mut fill_costs = Some(fill_costs);
        loop {
            if high == 0 {
                // Every node left is in the low set and stays there, so
                // the remaining picks are its members in ascending order
                // and no degree matters any more.
                while let Some(r) = low.pop_first() {
                    stack.push(r);
                }
                return;
            }
            let r = match low.pop_first() {
                Some(r) => r,
                None => {
                    // Potential spill, pushed optimistically. The costs are
                    // needed only from here on.
                    if let Some(fill) = fill_costs.take() {
                        fill(costs);
                        blocked.extend(
                            work.iter()
                                .map(|r| r.0)
                                .filter(|&r| r >= precolored && !removed[r as usize])
                                .map(|r| Blocked::new(r, no_spill[r as usize], costs, degree)),
                        );
                    }
                    high -= 1;
                    pop_blocked(blocked, removed, degree, costs)
                }
            };
            removed[r as usize] = true;
            stack.push(r);
            for n in g.row_iter(r) {
                let d = &mut degree[n as usize];
                if *d == k && n >= precolored && !removed[n as usize] && work.contains(Reg(n)) {
                    low.insert(n);
                    high -= 1;
                }
                *d = d.saturating_sub(1);
            }
        }
    }
}

/// Takes simplify's blocked pick off the spill heap: discards the entries
/// of nodes already removed and re-keys those whose degree fell since
/// they were pushed, until a fresh entry is on top.
fn pop_blocked(
    heap: &mut BinaryHeap<Reverse<Blocked>>,
    removed: &[bool],
    degree: &[usize],
    costs: &[f64],
) -> u32 {
    loop {
        let Reverse(top) = heap.pop().expect("a node remains, so it has an entry");
        let r = top.reg as usize;
        if removed[r] {
            continue;
        }
        if top.degree != degree[r] {
            heap.push(Blocked::new(top.reg, top.temp, costs, degree));
            continue;
        }
        return top.reg;
    }
}

/// The spill bookkeeping of one function, in tables indexed by register
/// number and walked in ascending register order.
#[derive(Default)]
struct SpillTables {
    /// This round's spill victims, ascending.
    victims: Vec<u32>,
    /// Per register: a victim's rematerializable definition (an index
    /// into `remat_defs`), [`NONE`] while no definition of a victim has
    /// been seen, or [`MANY`] for a register that is not a victim or
    /// cannot be rematerialized.
    remat: Vec<u32>,
    remat_defs: Vec<Instr>,
    /// Per register: the provisional spill tag of a victim, else [`NONE`].
    tag: Vec<u32>,
    /// Per register: is it a temporary that spill code or
    /// rematerialization created? Those are spill candidates only when
    /// nothing else is left, or allocation would not terminate.
    no_spill: Vec<bool>,
}

/// Not a rematerializable victim: not a victim at all, or one with
/// several definitions or a definition that is not constant-like.
const MANY: u32 = NONE - 1;

impl SpillTables {
    /// The instruction that recomputes `r`, if `r` is a rematerializable
    /// victim.
    fn remat_def(&self, r: Reg) -> Option<&Instr> {
        match self.remat.get(r.index()) {
            Some(&i) if i < MANY => Some(&self.remat_defs[i as usize]),
            _ => None,
        }
    }

    /// The provisional spill tag of `r`, if `r` is spilled this round.
    fn tag_of(&self, r: Reg) -> Option<TagId> {
        match self.tag.get(r.index()) {
            Some(&t) if t != NONE => Some(TagId(t)),
            _ => None,
        }
    }
}

/// Allocation parameters.
#[derive(Debug, Clone)]
pub struct AllocOptions {
    /// Number of machine registers (colors).
    pub num_regs: usize,
    /// Safety bound on spill-and-retry rounds.
    pub max_rounds: usize,
}

impl Default for AllocOptions {
    fn default() -> Self {
        AllocOptions {
            num_regs: 32,
            max_rounds: 24,
        }
    }
}

/// What allocation did to one function (or, summed, to a module).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocReport {
    /// Copies removed by coalescing.
    pub coalesced: usize,
    /// Virtual registers spilled to memory.
    pub spilled: usize,
    /// Virtual registers rematerialized instead of spilled (their single
    /// definition is a constant-like instruction that is cheaper to
    /// recompute than to reload).
    pub rematerialized: usize,
    /// Spill loads inserted (static count).
    pub spill_loads: usize,
    /// Spill stores inserted (static count).
    pub spill_stores: usize,
    /// Simplify/select rounds run.
    pub rounds: usize,
}

/// First provisional spill-tag id. Real tag ids are interned densely from
/// zero; anything at or above this base is a placeholder that
/// [`commit_spills`] must replace.
pub const PROVISIONAL_SPILL_BASE: u32 = 0x8000_0000;

/// A spill tag requested by [`allocate_function_in`] but not yet
/// interned in the module's tag table.
#[derive(Debug, Clone)]
pub struct PendingSpill {
    /// The placeholder id the core wrote into the function's spill code.
    pub provisional: TagId,
    /// The name the real tag must be interned under.
    pub name: String,
}

/// Allocation gave up on a function: each of `max_rounds` simplify/select
/// rounds left a register uncolored. Under a starved register file a round
/// can spill the temporary the previous round's rematerialization created
/// and rematerialize it again; the round bound is what stops that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotConverged {
    /// The function allocation gave up on.
    pub func: String,
    /// The register count it was allocated onto.
    pub num_regs: usize,
    /// The round bound it reached ([`AllocOptions::max_rounds`]).
    pub max_rounds: usize,
}

impl fmt::Display for NotConverged {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "register allocation of @{} onto {} registers did not converge within {} rounds",
            self.func, self.num_regs, self.max_rounds
        )
    }
}

impl std::error::Error for NotConverged {}

/// Builds the interference graph as a dense [`BitMatrix`]: parameters
/// interfere pairwise, and every definition interferes with everything
/// live after it — except a copy's own source (so coalescing can merge the
/// pair) and the defined register itself.
///
/// Each def site ORs the whole `live_after` bitset into the def's row in
/// one word-wise pass, then repairs the two exceptions. The repair must be
/// careful about the copy-source bit: a *different* def site of the same
/// register may already have added a legitimate edge to this copy's
/// source, so the bit is only cleared if it was absent before the OR.
pub fn interference_graph(func: &Function, cfg: &Cfg, live: &Liveness) -> BitMatrix {
    let mut g = BitMatrix::new(0);
    interference_graph_in(func, cfg, live, &mut RegSet::new(0), &mut g);
    g
}

/// [`interference_graph`] into a caller-owned matrix, reusing its backing
/// storage (the scratch-arena path). `cursor` is the walk's live-after
/// working set; reusing it across builds keeps the per-block walk
/// allocation-free.
pub fn interference_graph_in(
    func: &Function,
    cfg: &Cfg,
    live: &Liveness,
    cursor: &mut RegSet,
    g: &mut BitMatrix,
) {
    let n = func.next_reg as usize;
    g.reset(n);
    // Parameters all interfere pairwise (they hold distinct incoming
    // values at entry). Directed bits; finalize mirrors them.
    for a in 0..func.arity as u32 {
        for b in (a + 1)..func.arity as u32 {
            g.set_raw(a, b);
        }
    }
    for &b in &cfg.rpo {
        for_each_instr_backwards_in(func, live, b, cursor, |_, instr, live_after| {
            if let Some(d) = instr.def() {
                let skip = match instr {
                    Instr::Copy { src, .. } => Some(*src),
                    _ => None,
                };
                let skip_was_set = skip.map(|s| g.contains(d.0, s.0)).unwrap_or(false);
                g.or_row_words(d.0, live_after.words());
                if let Some(s) = skip {
                    if !skip_was_set && s != d {
                        g.clear_raw(d.0, s.0);
                    }
                }
                // A register never interferes with itself; no def site can
                // have set this bit legitimately.
                g.clear_raw(d.0, d.0);
            }
        });
    }
    g.finalize_symmetric();
}

/// Ensures `graph` holds the interference graph of the current body,
/// keyed on the shared cache's body version. The CFG and liveness come out
/// of `analyses` (warm after the pass chain); only the graph itself is
/// allocator-private. The payoff is the coalescing fixpoint: its final
/// sweep (the one that merges nothing) leaves a fresh graph behind, which
/// the simplify/select phase then reuses instead of rebuilding. A spill
/// round in a function without parameters patches the graph and keys it on
/// the version it leaves, so it is not rebuilt after that either.
fn ensure_graph(
    version: &mut Option<u64>,
    graph: &mut BitMatrix,
    cursor: &mut RegSet,
    func: &Function,
    analyses: &mut FunctionAnalyses,
) {
    let v = analyses.body_version();
    if *version != Some(v) {
        let (cfg, live) = analyses.cfg_liveness(func);
        interference_graph_in(func, cfg, live, cursor, graph);
        *version = Some(v);
    }
}

/// Per-register occurrence costs, weighted 10^loop-depth. The dominator
/// tree and loop forest come from the shared cache: allocation never
/// changes the block structure, so every spill round reuses one build.
fn spill_costs(func: &Function, analyses: &mut FunctionAnalyses, cost: &mut Vec<f64>) {
    let (cfg, _, forest) = analyses.cfg_dom_forest(func);
    cost.clear();
    cost.resize(func.next_reg as usize, 0.0);
    for bid in func.block_ids() {
        if !cfg.is_reachable(bid) {
            continue;
        }
        let depth = forest.block_loop[bid.index()]
            .map(|l| forest.get(l).depth)
            .unwrap_or(0);
        let w = 10f64.powi(depth as i32);
        for instr in &func.block(bid).instrs {
            if let Some(d) = instr.def() {
                cost[d.index()] += w;
            }
            instr.visit_uses(|r| cost[r.index()] += w);
        }
    }
}

/// One conservative-coalescing sweep over a prebuilt interference graph
/// (the caller provides it out of its graph cache, so the sweep that
/// reaches the fixpoint shares its build with the simplify/select phase
/// that follows). Returns copies eliminated; the blocks whose instructions
/// actually changed are appended to `dirty`, and `changed` holds the
/// registers whose occurrences changed: every register that took part in
/// a merge, and the register of an identity copy. No other register is
/// renamed or loses a use or a definition, which is what lets the caller
/// keep liveness ([`FunctionAnalyses::note_regs_changed`]).
#[allow(clippy::too_many_arguments)]
fn coalesce_once(
    func: &mut Function,
    k: usize,
    g: &BitMatrix,
    class_adj: &mut BitMatrix,
    significant: &mut Vec<u64>,
    parent: &mut Vec<u32>,
    copies: &mut Vec<(Reg, Reg)>,
    other_adj: &mut Vec<u32>,
    dirty: &mut Vec<BlockId>,
    changed: &mut RegSet,
) -> usize {
    let nregs = func.next_reg as usize;
    let precolored = func.arity as u32;
    // Collect copies.
    copies.clear();
    copies.extend(
        func.blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter_map(|i| match i {
                Instr::Copy { dst, src } => Some((*dst, *src)),
                _ => None,
            }),
    );
    if copies.is_empty() {
        return 0;
    }
    // Union-find over registers.
    parent.clear();
    parent.extend(0..nregs as u32);
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut merged = 0;
    // Track adjacency unions as we merge (approximation: recompute the
    // union of original neighbor sets of the merged classes). Until the
    // first merge the class adjacency equals `g`, so it is copied only
    // then: the sweep that merges nothing copies no matrix. `significant`
    // marks its nodes of degree >= k, so both tests below are word-wise.
    let mut forked = false;
    changed.reset(nregs);
    g.significant_into(k, significant);
    for ci in 0..copies.len() {
        let (dst, src) = copies[ci];
        let a = find(parent, dst.0);
        let b = find(parent, src.0);
        if a == b {
            merged += 1; // already identical: the copy is removable
            continue;
        }
        if a < precolored && b < precolored {
            continue;
        }
        let adj = if forked { &*class_adj } else { g };
        if adj.contains(a, b) || g.contains(a, b) {
            continue;
        }
        // Conservative-coalescing tests: Briggs (the merged node must have
        // < k neighbors of significant degree) or George (every neighbor
        // of one side either already interferes with the other side or is
        // trivially colorable).
        if !adj.briggs_union_ok(a, b, k, significant)
            && !adj.george_ok(a, b, significant)
            && !adj.george_ok(b, a, significant)
        {
            continue;
        }
        if !forked {
            class_adj.copy_from(g);
            forked = true;
        }
        // Merge b into a, preferring a precolored representative.
        let (rep, other) = if b < precolored { (b, a) } else { (a, b) };
        parent[other as usize] = rep;
        changed.insert(Reg(rep));
        changed.insert(Reg(other));
        other_adj.clear();
        other_adj.extend(class_adj.row_iter(other));
        for &n in other_adj.iter() {
            class_adj.remove_edge(n, other);
            class_adj.insert_edge(n, rep);
        }
        for t in other_adj.iter().copied().chain([rep, other]) {
            let (w, bit) = (t as usize / 64, 1 << (t % 64));
            if class_adj.degree(t) >= k {
                significant[w] |= bit;
            } else {
                significant[w] &= !bit;
            }
        }
        merged += 1;
    }
    if merged == 0 {
        return 0;
    }
    // Rewrite registers to representatives and drop identity copies. A
    // class that merged is already in `changed`; an identity copy that was
    // there before the sweep adds its register.
    for (bi, block) in func.blocks.iter_mut().enumerate() {
        let mut touched = false;
        for instr in &mut block.instrs {
            if let Some(d) = instr.def_mut() {
                let rep = Reg(find(parent, d.0));
                if *d != rep {
                    *d = rep;
                    touched = true;
                }
            }
            instr.visit_uses_mut(|r| {
                let rep = Reg(find(parent, r.0));
                if *r != rep {
                    *r = rep;
                    touched = true;
                }
            });
        }
        let before = block.instrs.len();
        block.instrs.retain(|i| match i {
            Instr::Copy { dst, src } if dst == src => {
                changed.insert(*dst);
                false
            }
            _ => true,
        });
        if touched || block.instrs.len() != before {
            dirty.push(BlockId(bi as u32));
        }
    }
    merged
}

/// Whether `instr` is cheaper to recompute at each use than to reload.
fn is_constant_like(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::IConst { .. } | Instr::FConst { .. } | Instr::FuncAddr { .. } | Instr::Lea { .. }
    )
}

/// A victim whose sole definition is constant-like is *rematerialized*:
/// each use gets a fresh recomputation instead of a memory reload. This is
/// the Chaitin/Briggs treatment of never-killed values and is essential
/// for honest spill counts — most high-degree values in optimized code are
/// loop-hoisted constants and addresses. Rematerialized victims leave
/// `s.victims`; returns how many there were. `blocks` are the blocks that
/// mention a victim; no other block is read or rebuilt.
fn try_rematerialize(
    func: &mut Function,
    s: &mut SpillTables,
    blocks: &[BlockId],
    rw: &mut RewriteBuf,
    used: &mut Vec<u32>,
    remap: &mut Vec<Reg>,
    dirty: &mut Vec<BlockId>,
) -> usize {
    // A victim is rematerializable if it has exactly one definition and
    // that definition is constant-like.
    s.remat.clear();
    s.remat.resize(func.next_reg as usize, MANY);
    for &v in &s.victims {
        s.remat[v as usize] = NONE;
    }
    s.remat_defs.clear();
    for instr in blocks.iter().flat_map(|&b| &func.block(b).instrs) {
        if let Some(d) = instr.def().filter(|d| s.remat[d.index()] != MANY) {
            let slot = &mut s.remat[d.index()];
            *slot = if *slot == NONE && is_constant_like(instr) {
                s.remat_defs.push(instr.clone());
                (s.remat_defs.len() - 1) as u32
            } else {
                MANY
            };
        }
    }
    let n = s
        .victims
        .iter()
        .filter(|&&v| s.remat[v as usize] < MANY)
        .count();
    if n == 0 {
        return 0;
    }
    let s_ro = &*s;
    let mut next_reg = func.next_reg;
    for &b in blocks {
        let mut touched = false;
        rw.rebuild(func.block_mut(b), |mut instr, out| {
            // Drop the original definitions: every use gets a fresh
            // recomputation, so they are dead — and a dead def is not
            // merely wasteful. It keeps its node (and full degree) in the
            // interference graph, so select can pick it as the victim again
            // next round, and rematerialization would "handle" it without
            // touching the body: allocation livelocks re-spilling the same
            // register forever.
            if instr.def().is_some_and(|d| s_ro.remat_def(d).is_some()) {
                touched = true;
                return;
            }
            used.clear();
            instr.visit_uses(|r| {
                if s_ro.remat_def(r).is_some() && !used.contains(&r.0) {
                    used.push(r.0);
                }
            });
            if used.is_empty() {
                out.push(instr);
                return;
            }
            touched = true;
            remap.clear();
            for &v in used.iter() {
                let tmp = Reg(next_reg);
                next_reg += 1;
                let mut clone = s_ro.remat_def(Reg(v)).expect("rematerializable").clone();
                if let Some(d) = clone.def_mut() {
                    *d = tmp;
                }
                out.push(clone);
                remap.push(tmp);
            }
            instr.visit_uses_mut(|r| {
                if let Some(pos) = used.iter().position(|&v| v == r.0) {
                    *r = remap[pos];
                }
            });
            out.push(instr);
        });
        if touched {
            dirty.push(b);
        }
    }
    func.next_reg = next_reg;
    let remat = &s.remat;
    s.victims.retain(|&v| remat[v as usize] >= MANY);
    n
}

/// Inserts spill code for `s.victims`; returns the (loads, stores)
/// inserted. Every register it creates is a temporary defined and used
/// inside one block (the caller marks them in `s.no_spill`). `blocks` are
/// the blocks that mention a victim; no other block is rebuilt.
///
/// Spill tags are *not* interned here: each victim gets a provisional id
/// recorded in `pending`, so the caller (or the driver's parallel commit)
/// can intern the real tags in deterministic function order.
#[allow(clippy::too_many_arguments)]
fn insert_spill_code(
    func: &mut Function,
    s: &mut SpillTables,
    blocks: &[BlockId],
    spill_base: usize,
    pending: &mut Vec<PendingSpill>,
    dirty: &mut Vec<BlockId>,
    rw: &mut RewriteBuf,
    used_regs: &mut Vec<u32>,
    remap_tmp: &mut Vec<Reg>,
) -> (usize, usize) {
    // One spill tag per victim, named sequentially over all spill tags this
    // function has ever received (pre-existing `spill_base` plus the ones
    // requested so far), so names stay unique across spill rounds.
    s.tag.clear();
    s.tag.resize(func.next_reg as usize, NONE);
    for &v in &s.victims {
        let name = format!("{}.spill{}", func.name, spill_base + pending.len());
        let provisional = TagId(PROVISIONAL_SPILL_BASE + pending.len() as u32);
        pending.push(PendingSpill { provisional, name });
        s.tag[v as usize] = provisional.0;
    }
    let s = &*s;
    let mut loads = 0;
    let mut stores = 0;
    // Rebuild each block in one retain-style sweep: reloads go out before
    // the rewritten instruction, the post-def store right after it.
    let mut next_reg = func.next_reg;
    for &b in blocks {
        let mut touched = false;
        rw.rebuild(func.block_mut(b), |mut instr, out| {
            used_regs.clear();
            instr.visit_uses(|r| {
                if s.tag_of(r).is_some() && !used_regs.contains(&r.0) {
                    used_regs.push(r.0);
                }
            });
            let def = instr.def().and_then(|d| s.tag_of(d));
            if used_regs.is_empty() && def.is_none() {
                out.push(instr);
                return;
            }
            touched = true;
            // Loads before: one fresh temp per distinct spilled use.
            remap_tmp.clear();
            for &v in used_regs.iter() {
                let tmp = Reg(next_reg);
                next_reg += 1;
                remap_tmp.push(tmp);
                out.push(Instr::SLoad {
                    dst: tmp,
                    tag: s.tag_of(Reg(v)).expect("victim"),
                });
                loads += 1;
            }
            instr.visit_uses_mut(|r| {
                if let Some(pos) = used_regs.iter().position(|&v| v == r.0) {
                    *r = remap_tmp[pos];
                }
            });
            match def {
                Some(tag) => {
                    let tmp = Reg(next_reg);
                    next_reg += 1;
                    *instr.def_mut().expect("def checked") = tmp;
                    out.push(instr);
                    // A terminator cannot define a register, so storing
                    // after is always legal.
                    out.push(Instr::SStore { src: tmp, tag });
                    stores += 1;
                }
                None => out.push(instr),
            }
        });
        if touched {
            dirty.push(b);
        }
    }
    func.next_reg = next_reg;
    (loads, stores)
}

/// Adds to `g` the interference of every definition in `blocks` of a
/// register at or above `first`: the build's rule (the defined register
/// against everything live after it, except a copy's source) applied to
/// those definitions only. It adds no edge a build would not.
fn add_def_edges(
    g: &mut BitMatrix,
    func: &Function,
    cfg: &Cfg,
    live: &Liveness,
    blocks: &[BlockId],
    first: u32,
    cursor: &mut RegSet,
) {
    for &b in blocks.iter().filter(|&&b| cfg.is_reachable(b)) {
        for_each_instr_backwards_in(func, live, b, cursor, |_, instr, live_after| {
            let Some(d) = instr.def().filter(|d| d.0 >= first) else {
                return;
            };
            let src = match instr {
                Instr::Copy { src, .. } => Some(*src),
                _ => None,
            };
            for x in live_after.iter() {
                if x != d && Some(x) != src {
                    g.insert_edge(d.0, x.0);
                }
            }
        });
    }
}

/// The lowest color below `k` that the mask `used` leaves free.
fn first_free_color(used: &[u64], k: usize) -> Option<u32> {
    let (w, word) = used.iter().enumerate().find(|(_, &w)| w != u64::MAX)?;
    let c = w * 64 + (!word).trailing_zeros() as usize;
    (c < k).then_some(c as u32)
}

/// Allocates one function onto `opts.num_regs` registers, using only a
/// read-only snapshot of the tag table, the caller's analysis cache and
/// the caller's scratch. Spill tags the function needs are returned
/// through `pending` as provisional ids; the caller must intern them with
/// [`commit_spills`] before the module is printed, validated, or run.
/// When `tr` is enabled, each spill victim is reported as a
/// [`trace::Remark::Spilled`] with the simplify/select round that
/// demanded it.
///
/// Each round coalesces (until the first spill), then simplifies: it
/// removes the lowest register of degree < K while there is one, and only
/// when none is left does it compute spill costs (and the loop forest they
/// read) and push the rest onto a heap ordered by cost per neighbor. Select
/// colors in reverse removal order; what it cannot color is
/// rematerialized or spilled, and the next round starts over from the kept
/// liveness and, in a function without parameters, the patched
/// interference graph.
///
/// # Errors
///
/// Returns [`NotConverged`] if allocation has not converged within
/// `opts.max_rounds` rounds. The body is then valid IL that still holds
/// virtual registers, and `pending` names its spill tags so far.
///
/// # Panics
///
/// Panics if the function's arity exceeds the register count.
#[allow(clippy::too_many_arguments)]
pub fn allocate_function_in(
    tags: &TagTable,
    func: &mut Function,
    func_id: FuncId,
    opts: &AllocOptions,
    pending: &mut Vec<PendingSpill>,
    analyses: &mut FunctionAnalyses,
    scratch: &mut AllocScratch,
    tr: &mut trace::FuncTrace,
) -> Result<AllocReport, NotConverged> {
    let AllocScratch {
        graph,
        graph_version,
        class_adj,
        significant,
        parent,
        copies,
        other_adj,
        dirty,
        blocks,
        changed,
        costs,
        simplify,
        color,
        used_colors,
        spill,
        shadows,
        used_regs,
        remap_tmp,
        occurs,
        rw,
        check,
    } = scratch;
    // Versions are per-`FunctionAnalyses`; a cached graph from a previous
    // function must never be mistaken for this one's.
    *graph_version = None;
    let mut report = AllocReport::default();
    let k = opts.num_regs;
    assert!(
        func.arity <= k,
        "@{}: arity {} exceeds {k} registers",
        func.name,
        func.arity
    );
    // No function needs more colors than its registers plus the
    // parameters' shadows: every degree stays below both bounds, so no
    // decision changes, and an oversized register file sizes neither the
    // select mask nor the function's frame.
    let k = k.min(func.next_reg as usize + func.arity);
    // The parameter copies go at the top of the entry block, so they must
    // run once per call: no edge may lead back into it. Loop normalization
    // guarantees that, and nothing before allocation adds an edge.
    debug_assert!(
        func.arity == 0
            || func
                .blocks
                .iter()
                .all(|b| b.successors().all(|s| s != func.entry)),
        "@{}: the entry block of a function with parameters has a predecessor",
        func.name
    );
    // Spill tags this function already owns, counted when it first spills
    // (normally zero; nonzero only if allocation is re-run on an
    // already-allocated module).
    let mut spill_base = None;
    spill.no_spill.clear();
    loop {
        report.rounds += 1;
        // Decouple parameter values from their fixed incoming registers:
        // each param is copied into a fresh allocatable vreg at entry and
        // the body uses only the vreg. Under low pressure coalescing
        // merges the pair back (zero cost); under high pressure the vreg
        // can spill — leaving a precolored register live across the whole
        // function would make tight functions uncolorable. This runs at
        // the start of *every* round because pre-spill coalescing may
        // legitimately undo it; once spilling starts, coalescing freezes
        // and the decoupling sticks. Only the parameters and their shadows
        // change how they occur, so liveness stays solved if it was; the
        // graph is rebuilt from it.
        {
            let arity = func.arity as u32;
            if arity > 0 {
                shadows.clear();
                shadows.extend((0..arity).map(|_| func.new_reg()));
                debug_assert!(dirty.is_empty());
                for (bi, block) in func.blocks.iter_mut().enumerate() {
                    let mut touched = false;
                    for instr in &mut block.instrs {
                        if let Some(d) = instr.def_mut() {
                            if d.0 < arity {
                                *d = shadows[d.0 as usize];
                                touched = true;
                            }
                        }
                        instr.visit_uses_mut(|r| {
                            if r.0 < arity {
                                *r = shadows[r.0 as usize];
                                touched = true;
                            }
                        });
                    }
                    if touched {
                        dirty.push(BlockId(bi as u32));
                    }
                }
                let entry = func.entry;
                // One splice in forward order matches the old reversed
                // `insert(0, ..)` loop exactly.
                func.block_mut(entry).instrs.splice(
                    0..0,
                    shadows.iter().enumerate().map(|(i, &v)| Instr::Copy {
                        dst: v,
                        src: Reg(i as u32),
                    }),
                );
                dirty.push(entry);
                changed.reset(func.next_reg as usize);
                for r in (0..arity).map(Reg).chain(shadows.iter().copied()) {
                    changed.insert(r);
                }
                analyses.note_regs_changed(func, dirty.drain(..), changed);
            }
        }
        if report.rounds > opts.max_rounds {
            return Err(NotConverged {
                func: func.name.clone(),
                num_regs: opts.num_regs,
                max_rounds: opts.max_rounds,
            });
        }
        // Coalesce until stable — but only before any spill round.
        // Iterating coalescing against spilling can oscillate (a merge
        // makes the graph uncolorable, spill code re-enables the merge,
        // ...), so once spill code exists, coalescing is frozen: the
        // classic iterated-coalescing discipline. A sweep that merges
        // keeps liveness solved and leaves the graph to be rebuilt.
        if report.spilled == 0 {
            debug_assert!(dirty.is_empty());
            loop {
                ensure_graph(graph_version, graph, occurs, func, analyses);
                let c = coalesce_once(
                    func,
                    k,
                    graph,
                    class_adj,
                    significant,
                    parent,
                    copies,
                    other_adj,
                    dirty,
                    changed,
                );
                report.coalesced += c;
                if c == 0 {
                    break;
                }
                analyses.note_regs_changed(func, dirty.drain(..), changed);
            }
        }
        // The final coalescing sweep merged nothing, so its graph describes
        // the current body: ensure_graph() is a no-op there and the build
        // is shared with simplify/select below. After a spill round in a
        // function without parameters the graph was patched, and it is a
        // no-op as well.
        ensure_graph(graph_version, graph, occurs, func, analyses);
        let g = &*graph;
        let precolored = func.arity as u32;
        let nregs = func.next_reg as usize;
        // The registers that occur, from the liveness summaries the graph
        // build just used. The rest are parameters or never mentioned.
        analyses.occurring_regs(func, occurs);
        for p in 0..precolored {
            occurs.insert(Reg(p));
        }
        // Simplify. A round that never blocks never computes spill
        // costs, so it never builds the loop forest they read.
        spill.no_spill.resize(nregs, false);
        simplify.run(g, occurs, precolored, k, &spill.no_spill, costs, |costs| {
            spill_costs(func, analyses, costs)
        });
        // Select.
        color.clear();
        color.resize(nregs, None);
        for p in 0..precolored {
            color[p as usize] = Some(p);
        }
        spill.victims.clear();
        used_colors.clear();
        used_colors.resize(k.div_ceil(64), 0);
        while let Some(r) = simplify.stack.pop() {
            used_colors.fill(0);
            for n in g.row_iter(r) {
                if let Some(c) = color[n as usize] {
                    used_colors[c as usize / 64] |= 1 << (c % 64);
                }
            }
            match first_free_color(used_colors, k) {
                Some(c) => color[r as usize] = Some(c),
                None => spill.victims.push(r),
            }
        }
        if spill.victims.is_empty() {
            // Rewrite to physical registers.
            for block in &mut func.blocks {
                for instr in &mut block.instrs {
                    if let Some(d) = instr.def_mut() {
                        *d = Reg(color[d.index()].expect("colored def"));
                    }
                    instr.visit_uses_mut(|r| {
                        *r = Reg(color[r.index()].expect("colored use"));
                    });
                }
                // Coloring can introduce identity copies; drop them.
                block
                    .instrs
                    .retain(|i| !matches!(i, Instr::Copy { dst, src } if dst == src));
            }
            func.next_reg = k as u32;
            // The physical-register rewrite is the last body change.
            analyses.note_body_changed();
            return Ok(report);
        }
        // Spill round. Simplify stacks only registers at or above the
        // arity, so no parameter is a victim. Afterwards no victim occurs,
        // and every new register is a temporary defined and used inside one
        // block, so liveness changes only by losing the victims and the
        // graph only by losing their edges and gaining the temporaries'.
        spill.victims.sort_unstable();
        debug_assert!(spill.victims.iter().all(|&v| v >= precolored));
        changed.reset(nregs);
        for &v in &spill.victims {
            changed.insert(Reg(v));
        }
        analyses.blocks_mentioning(func, changed, blocks);
        let first_temp = func.next_reg;
        report.rematerialized +=
            try_rematerialize(func, spill, blocks, rw, used_regs, remap_tmp, dirty);
        report.spilled += spill.victims.len();
        if tr.enabled() {
            for &r in &spill.victims {
                tr.remark(
                    "regalloc",
                    trace::Remark::Spilled {
                        reg: r,
                        round: report.rounds,
                    },
                );
            }
        }
        if !spill.victims.is_empty() {
            let base = *spill_base.get_or_insert_with(|| {
                tags.iter()
                    .filter(
                        |(_, t)| matches!(t.kind, TagKind::Spill { owner } if owner == func_id.0),
                    )
                    .count()
            });
            let (l, s) = insert_spill_code(
                func, spill, blocks, base, pending, dirty, rw, used_regs, remap_tmp,
            );
            report.spill_loads += l;
            report.spill_stores += s;
        }
        // Every register rematerialization and spill code created is a
        // temporary.
        spill.no_spill.resize(func.next_reg as usize, true);
        dirty.sort_unstable();
        dirty.dedup();
        analyses.note_regs_changed(func, dirty.iter().copied(), changed);
        // A function with parameters renames them at the start of the next
        // round, which leaves any graph stale, so only a function without
        // parameters patches it.
        if func.arity == 0 {
            for v in changed.iter() {
                graph.isolate(v.0, other_adj);
            }
            graph.grow(func.next_reg as usize);
            let version = analyses.body_version();
            let (cfg, live) = analyses.cfg_liveness(func);
            add_def_edges(graph, func, cfg, live, dirty, first_temp, occurs);
            *graph_version = Some(version);
            // Debug builds: the patched graph must equal a build from the
            // kept liveness, which they have already checked against a
            // solve from scratch.
            if cfg!(debug_assertions) {
                interference_graph_in(func, cfg, live, occurs, check);
                assert!(
                    *graph == *check,
                    "@{}: the interference graph patched after a spill round differs from a rebuild",
                    func.name
                );
            }
        }
        dirty.clear();
    }
}

/// Interns the spill tags one function's allocation requested and rewrites
/// its provisional ids to the real ones. Call once per function, in
/// function-index order, so the resulting tag table matches a sequential
/// allocation exactly.
pub fn commit_spills(module: &mut Module, func_id: FuncId, pending: Vec<PendingSpill>) {
    if pending.is_empty() {
        return;
    }
    let mut remap: HashMap<u32, TagId> = HashMap::with_capacity(pending.len());
    for p in pending {
        let real = module
            .tags
            .intern(p.name, TagKind::Spill { owner: func_id.0 }, 1);
        remap.insert(p.provisional.0, real);
    }
    let func = module.func_mut(func_id);
    for block in &mut func.blocks {
        for instr in &mut block.instrs {
            match instr {
                Instr::SLoad { tag, .. } | Instr::SStore { tag, .. } => {
                    if let Some(real) = remap.get(&tag.0) {
                        *tag = *real;
                    }
                }
                _ => {}
            }
        }
    }
}

/// Allocates every function in the module.
///
/// # Errors
///
/// Returns the first function's [`NotConverged`], in function order; the
/// functions before it are allocated and the rest are untouched.
pub fn allocate(module: &mut Module, opts: &AllocOptions) -> Result<AllocReport, NotConverged> {
    let mut total = AllocReport::default();
    let mut scratch = AllocScratch::default();
    for fi in 0..module.funcs.len() {
        let mut pending = Vec::new();
        let r = allocate_function_in(
            &module.tags,
            &mut module.funcs[fi],
            FuncId(fi as u32),
            opts,
            &mut pending,
            &mut FunctionAnalyses::new(),
            &mut scratch,
            &mut trace::FuncTrace::off(),
        );
        commit_spills(module, FuncId(fi as u32), pending);
        let r = r?;
        total.coalesced += r.coalesced;
        total.spilled += r.spilled;
        total.rematerialized += r.rematerialized;
        total.spill_loads += r.spill_loads;
        total.spill_stores += r.spill_stores;
        total.rounds += r.rounds;
    }
    debug_assert!(
        ir::validate(module).is_ok(),
        "allocation produced invalid IL"
    );
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph over `n` nodes with the given undirected edges.
    fn graph(n: usize, edges: &[(u32, u32)]) -> BitMatrix {
        let mut g = BitMatrix::new(n);
        for &(a, b) in edges {
            g.insert_edge(a, b);
        }
        g
    }

    fn all(n: usize) -> RegSet {
        let mut s = RegSet::new(n);
        for r in 0..n as u32 {
            s.insert(Reg(r));
        }
        s
    }

    /// Simplify's removal order, and whether it asked for spill costs.
    fn simplify(
        g: &BitMatrix,
        work: &RegSet,
        precolored: u32,
        k: usize,
        costs: &[f64],
        no_spill: &[bool],
    ) -> (Vec<u32>, bool) {
        let mut s = Simplify::default();
        let mut filled = false;
        let mut c = Vec::new();
        s.run(g, work, precolored, k, no_spill, &mut c, |c| {
            filled = true;
            c.extend_from_slice(costs);
        });
        (s.stack, filled)
    }

    /// The allocator's simplify before the low-degree bitset and the
    /// spill heap: a scan of the ascending work list for the first node
    /// of degree < k, else `min_by` cost/degree over the non-temporaries,
    /// else over everything left.
    fn linear_scan(
        g: &BitMatrix,
        work: &[u32],
        k: usize,
        costs: &[f64],
        no_spill: &[bool],
    ) -> Vec<u32> {
        let mut degree: Vec<usize> = (0..g.len() as u32).map(|r| g.degree(r)).collect();
        let mut removed = vec![false; g.len()];
        let mut stack = Vec::new();
        while stack.len() < work.len() {
            let left = || work.iter().copied().filter(|&r| !removed[r as usize]);
            let ratio = |r: u32| costs[r as usize] / (degree[r as usize].max(1) as f64);
            let cheapest = |rs: &mut dyn Iterator<Item = u32>| {
                rs.min_by(|&a, &b| ratio(a).partial_cmp(&ratio(b)).expect("finite"))
            };
            let r = left()
                .find(|&r| degree[r as usize] < k)
                .or_else(|| cheapest(&mut left().filter(|&r| !no_spill[r as usize])))
                .or_else(|| cheapest(&mut left()))
                .expect("a node is left");
            removed[r as usize] = true;
            stack.push(r);
            for n in g.row_iter(r) {
                degree[n as usize] = degree[n as usize].saturating_sub(1);
            }
        }
        stack
    }

    #[test]
    fn equal_cost_per_degree_ties_go_to_the_lowest_register() {
        // K4 at k = 2: every node is blocked. Nodes 0, 1 and 3 tie at
        // cost/degree 1 (node 2 costs twice as much), so 0 goes first;
        // then 1 and 3 tie again at 1.5, and 1 goes.
        let g = graph(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let costs = [3.0, 3.0, 6.0, 3.0];
        let (order, costed) = simplify(&g, &all(4), 0, 2, &costs, &[false; 4]);
        assert_eq!(order, [0, 1, 2, 3]);
        assert!(costed);
        // Ties between different costs and degrees with the same ratio
        // break the same way: 4/4 against 2/2, the lower register wins
        // whichever side it is on.
        let g = graph(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]);
        let (order, _) = simplify(&g, &all(5), 0, 2, &[4.0, 4.0, 9.0, 9.0, 9.0], &[false; 5]);
        assert_eq!(order[0], 0, "0 (4/4) and 1 (4/4) tie; 0 is lower");
        let (order, _) = simplify(&g, &all(5), 0, 2, &[8.0, 4.0, 9.0, 9.0, 9.0], &[false; 5]);
        assert_eq!(order[0], 1, "1 (4/4) beats 0 (8/4)");
    }

    #[test]
    fn a_blocked_node_that_lost_a_neighbor_is_rekeyed() {
        // k = 2. 0 goes first (1/2). It takes a neighbor from 1, whose
        // cost/degree rises from 3/3 = 1.0 to 3/2 = 1.5, above 2's
        // unchanged 2.4/2 = 1.2: the stale key would pick 1, the true
        // one picks 2. The triangle {1, 3, 4} then blocks again at 1.5.
        let g = graph(5, &[(0, 1), (0, 3), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]);
        let costs = [1.0, 3.0, 2.4, 8.0, 9.0];
        let no_spill = [false; 5];
        let (order, _) = simplify(&g, &all(5), 0, 2, &costs, &no_spill);
        assert_eq!(order, [0, 2, 1, 3, 4]);
        assert_eq!(
            order,
            linear_scan(&g, &[0, 1, 2, 3, 4], 2, &costs, &no_spill)
        );
    }

    #[test]
    fn temporaries_are_victims_only_when_nothing_else_is_left() {
        // A triangle at k = 2: the one non-temporary goes first, however
        // expensive; then the temporaries fall below k.
        let g = graph(3, &[(0, 1), (0, 2), (1, 2)]);
        let (order, _) = simplify(&g, &all(3), 0, 2, &[1.0, 5.0, 1.0], &[true, false, true]);
        assert_eq!(order, [1, 0, 2]);
        // All temporaries: the cheapest of them.
        let (order, _) = simplify(&g, &all(3), 0, 2, &[3.0, 1.0, 2.0], &[true; 3]);
        assert_eq!(order, [1, 0, 2]);
    }

    #[test]
    fn spill_costs_are_computed_only_when_simplify_blocks() {
        // A path is always colorable at k = 2: no blocked pick, no costs.
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let (order, costed) = simplify(&g, &all(4), 0, 2, &[0.0; 4], &[false; 4]);
        assert_eq!(order, [0, 1, 2, 3]);
        assert!(!costed);
        // Precolored nodes are never removed but still count as
        // neighbors: with 0 and 1 precolored, 2 and 3 start at degree 3.
        let g = graph(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let (order, costed) = simplify(&g, &all(4), 2, 3, &[0.0, 0.0, 2.0, 1.0], &[false; 4]);
        assert_eq!(order, [3, 2]);
        assert!(costed);
    }

    #[test]
    fn simplify_matches_the_linear_scan_on_random_graphs_with_ties() {
        let mut state = 0x5EED_0F_A110Cu64;
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for case in 0..2000 {
            let n = 1 + next(90) as usize;
            let precolored = next(4).min(n as u64) as u32;
            let k = 1 + next(6) as usize;
            // Registers that occur: every precolored one, most others.
            let occurs: Vec<bool> = (0..n as u32)
                .map(|r| r < precolored || next(8) != 0)
                .collect();
            let density = 1 + next(10);
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in a + 1..n as u32 {
                    if occurs[a as usize] && occurs[b as usize] && next(10) < density {
                        edges.push((a, b));
                    }
                }
            }
            let g = graph(n, &edges);
            // A few cost levels, zero included, so ratios tie often.
            let costs: Vec<f64> = (0..n)
                .map(|_| [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0][next(7) as usize])
                .collect();
            let no_spill: Vec<bool> = (0..n).map(|_| next(4) == 0).collect();
            let mut work = RegSet::new(n);
            let mut list = Vec::new();
            for r in 0..n as u32 {
                if occurs[r as usize] {
                    work.insert(Reg(r));
                    if r >= precolored {
                        list.push(r);
                    }
                }
            }
            let (order, _) = simplify(&g, &work, precolored, k, &costs, &no_spill);
            assert_eq!(
                order,
                linear_scan(&g, &list, k, &costs, &no_spill),
                "case {case}: n={n} k={k} precolored={precolored}"
            );
        }
    }

    #[test]
    fn an_oversized_register_file_colors_as_the_function_needs() {
        // A module allocated at `usize::MAX` registers must print as at
        // 1,000, and keep each frame to the function's registers plus its
        // arity. `many` has 1,202 registers, so at 1,000 the allocator runs
        // on the count it was given and at `usize::MAX` on the bound.
        let mut src = String::from("int many(int a) { int s = a;\n");
        for i in 1..=300 {
            src += &format!("s = s * 3 + {i};\n");
        }
        src += "return s; }\n\
                int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
                int main() { print_int(many(2) + fib(15)); return 0; }";
        let module = minic::compile(&src).expect("compiles");
        let need = |f: &Function| f.next_reg as usize + f.arity;
        assert!(need(&module.funcs[0]) > 1_000, "@many fits in 1,000");
        let allocated = |num_regs: usize| {
            let mut m = module.clone();
            for (fi, func) in m.funcs.iter_mut().enumerate() {
                let opts = AllocOptions {
                    num_regs,
                    ..Default::default()
                };
                let mut pending = Vec::new();
                allocate_function_in(
                    &module.tags,
                    func,
                    FuncId(fi as u32),
                    &opts,
                    &mut pending,
                    &mut FunctionAnalyses::new(),
                    &mut AllocScratch::default(),
                    &mut trace::FuncTrace::off(),
                )
                .expect("converges");
                assert!(pending.is_empty(), "@{} spilled", func.name);
            }
            m
        };
        let (huge, large) = (allocated(usize::MAX), allocated(1_000));
        assert_eq!(ir::module_to_string(&huge), ir::module_to_string(&large));
        for (after, before) in huge.funcs.iter().zip(&module.funcs) {
            assert!(after.next_reg as usize <= need(before), "@{}", after.name);
        }
    }

    #[test]
    fn the_first_free_color_respects_k() {
        assert_eq!(first_free_color(&[0b1011], 4), Some(2));
        assert_eq!(first_free_color(&[0b1111], 4), None);
        assert_eq!(first_free_color(&[u64::MAX, 0b1], 70), Some(65));
        assert_eq!(first_free_color(&[u64::MAX, 0b11_1111], 70), None);
        assert_eq!(first_free_color(&[u64::MAX], 64), None);
    }
}
