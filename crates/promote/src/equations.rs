//! The promotion data-flow equations (Figure 1 of the paper).
//!
//! For each block `b` the compiler gathers
//!
//! * `B_EXPLICIT(b)` — tags referenced by an explicit memory operation
//!   (`sload`, `sstore`, `cload`), and
//! * `B_AMBIGUOUS(b)` — tags referenced ambiguously, through procedure
//!   calls or pointer-based operations (`load`, `store`);
//!
//! then for each loop `l`
//!
//! ```text
//! L_EXPLICIT(l)   = ⋃ B_EXPLICIT(b)   for b ∈ l          (1)
//! L_AMBIGUOUS(l)  = ⋃ B_AMBIGUOUS(b)  for b ∈ l          (2)
//! L_PROMOTABLE(l) = L_EXPLICIT(l) − L_AMBIGUOUS(l)       (3)
//! L_LIFT(l)       = L_PROMOTABLE(l)                 if l is outermost
//!                 = L_PROMOTABLE(l) − L_PROMOTABLE(parent(l))  otherwise (4)
//! ```
//!
//! Memory operations are classified by opcode alone, exactly as the
//! paper's equations do. A pointer-based operation becomes explicit only
//! by being strengthened up Table 1 after analysis: before promotion runs,
//! `opt::strengthen` rewrites each singleton `load`/`store` that denotes a
//! unique cell (the `analysis` crate decides which) to `sload`/`sstore`,
//! so any singleton pointer operation left in the input is ambiguous.

use cfg::LoopForest;
use ir::{DenseTagSet, Function, Instr, TagSet};

/// The per-block information of step 2 of the algorithm.
#[derive(Debug, Clone, Default)]
pub struct BlockSets {
    /// `B_EXPLICIT`: tags referenced by explicit operations.
    pub explicit: DenseTagSet,
    /// `B_AMBIGUOUS`: tags referenced ambiguously. `TagSet::All` when the
    /// block contains an un-analyzed operation.
    pub ambiguous: TagSet,
}

/// Computes `B_EXPLICIT` and `B_AMBIGUOUS` for every block of `func`.
pub fn block_sets(func: &Function) -> Vec<BlockSets> {
    let mut out = Vec::with_capacity(func.blocks.len());
    for block in &func.blocks {
        let mut sets = BlockSets::default();
        for instr in &block.instrs {
            match instr {
                Instr::SLoad { tag, .. } | Instr::SStore { tag, .. } | Instr::CLoad { tag, .. } => {
                    sets.explicit.insert(*tag);
                }
                Instr::Load { tags, .. } | Instr::Store { tags, .. } => {
                    sets.ambiguous.union_with(tags);
                }
                Instr::Call { effects, .. } => {
                    sets.ambiguous.union_with(&effects.mods);
                    sets.ambiguous.union_with(&effects.refs);
                }
                _ => {}
            }
        }
        out.push(sets);
    }
    out
}

/// The per-loop sets of Figure 1, indexed by [`cfg::LoopId`].
#[derive(Debug, Clone)]
pub struct LoopSets {
    /// `L_EXPLICIT` per loop.
    pub explicit: Vec<DenseTagSet>,
    /// `L_AMBIGUOUS` per loop.
    pub ambiguous: Vec<TagSet>,
    /// `L_PROMOTABLE` per loop.
    pub promotable: Vec<DenseTagSet>,
    /// `L_LIFT` per loop.
    pub lift: Vec<DenseTagSet>,
}

impl LoopSets {
    /// Solves equations (1)–(4) over the loop nest with the word-wise
    /// union/difference kernels of [`DenseTagSet`].
    pub fn solve(blocks: &[BlockSets], forest: &LoopForest) -> LoopSets {
        let nloops = forest.len();
        let mut explicit = vec![DenseTagSet::new(); nloops];
        let mut ambiguous = vec![TagSet::empty(); nloops];
        for (li, l) in forest.loops.iter().enumerate() {
            for &b in &l.blocks {
                explicit[li].union_with(&blocks[b.index()].explicit);
                ambiguous[li].union_with(&blocks[b.index()].ambiguous);
            }
        }
        let mut promotable = vec![DenseTagSet::new(); nloops];
        for li in 0..nloops {
            promotable[li] = match &ambiguous[li] {
                // Equation (3): everything is ambiguous, nothing promotes.
                TagSet::All => DenseTagSet::new(),
                TagSet::Set(amb) => explicit[li].difference(amb),
            };
        }
        let mut lift = vec![DenseTagSet::new(); nloops];
        for li in 0..nloops {
            lift[li] = match forest.loops[li].parent {
                None => promotable[li].clone(),
                Some(p) => promotable[li].difference(&promotable[p.index()]),
            };
        }
        LoopSets {
            explicit,
            ambiguous,
            promotable,
            lift,
        }
    }

    /// Union of `L_PROMOTABLE` over every loop containing `b`.
    pub fn promotable_in_block(&self, forest: &LoopForest, b: ir::BlockId) -> DenseTagSet {
        let mut out = DenseTagSet::new();
        let mut cur = forest.block_loop[b.index()];
        while let Some(l) = cur {
            out.union_with(&self.promotable[l.index()]);
            cur = forest.loops[l.index()].parent;
        }
        out
    }

    /// All tags promotable in at least one loop.
    pub fn all_promotable(&self) -> DenseTagSet {
        let mut out = DenseTagSet::new();
        for p in &self.promotable {
            out.union_with(p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{FuncId, Module};

    /// Hand-build the situation of the paper's Figure 2 and check every
    /// set matches the figure. Loop structure (headers): B1 ⊃ B3 ⊃ B5.
    ///
    /// | block | B_EXPLICIT | B_AMBIGUOUS |
    /// |-------|------------|-------------|
    /// | B0    | C (sload)  |             |
    /// | B1    | C (sstore) | A, B?      | — the JSR in B1 references A ambiguously
    /// | B3    | B (sstore) | B (JSR)     |
    /// | B5    | A (sload)  |             |
    fn figure2_module() -> (Module, FuncId) {
        let src = r#"
tag "A" global size=1 addressed
tag "B" global size=1 addressed
tag "C" global size=1 addressed
global "A" ints 1
global "B" ints 2
global "C" ints 3
func @ext(0) {
B0:
  ret
}
func @main(0) {
B0:
  r0 = sload "C"
  jump B1
B1:
  sstore r0, "C"
  call @ext() mods{"A"} refs{"A"}
  jump B2
B2:
  r1 = sload "A"
  jump B3
B3:
  sstore r1, "B"
  call @ext() mods{"B"} refs{"B"}
  jump B4
B4:
  jump B5
B5:
  r2 = sload "A"
  jump B6
B6:
  r3 = iconst 1
  branch r3, B5, B7
B7:
  branch r3, B3, B8
B8:
  branch r3, B1, B9
B9:
  sstore r2, "C"
  ret
}
"#;
        let m = ir::parse_module(src).expect("parse");
        let f = m.lookup_func("main").unwrap();
        (m, f)
    }

    #[test]
    fn figure2_sets() {
        let (mut m, f) = figure2_module();
        cfg::normalize_loops(&mut m.funcs[f.index()]);
        let mut analyses = cfg::FunctionAnalyses::new();
        let (_, forest, _) = analyses.loop_view(m.func(f));
        assert_eq!(forest.len(), 3);
        let blocks = block_sets(m.func(f));
        let sets = LoopSets::solve(&blocks, forest);
        let a = m.tags.lookup("A").unwrap();
        let b = m.tags.lookup("B").unwrap();
        let c = m.tags.lookup("C").unwrap();
        // Identify loops by nesting depth: outer (B1), middle (B3),
        // inner (B5).
        let order = forest.outer_to_inner();
        let (outer, middle, inner) = (order[0], order[1], order[2]);
        assert_eq!(forest.get(outer).depth, 1);
        assert_eq!(forest.get(inner).depth, 3);

        // The paper's table: PROMOTABLE(B1) = {C}, PROMOTABLE(B3) = {A},
        // PROMOTABLE(B5) = {A}; LIFT(B1) = {C}, LIFT(B3) = {A},
        // LIFT(B5) = {}.
        assert_eq!(sets.promotable[outer.index()], DenseTagSet::singleton(c));
        assert_eq!(sets.promotable[middle.index()], DenseTagSet::singleton(a));
        assert_eq!(sets.promotable[inner.index()], DenseTagSet::singleton(a));
        assert_eq!(sets.lift[outer.index()], DenseTagSet::singleton(c));
        assert_eq!(sets.lift[middle.index()], DenseTagSet::singleton(a));
        assert!(sets.lift[inner.index()].is_empty());
        // B is explicit in the middle loop but ambiguous there too.
        assert!(sets.explicit[middle.index()].contains(b));
        assert!(sets.ambiguous[middle.index()].contains(b));
    }

    #[test]
    fn singleton_array_pointer_ops_are_ambiguous() {
        let src = r#"
tag "a" global size=8 addressed
global "a" zero
func @main(0) {
B0:
  r0 = lea "a"
  r1 = load [r0] {"a"}
  ret
}
"#;
        let m = ir::parse_module(src).unwrap();
        let f = m.lookup_func("main").unwrap();
        let blocks = block_sets(m.func(f));
        let a = m.tags.lookup("a").unwrap();
        assert!(!blocks[0].explicit.contains(a));
        assert!(blocks[0].ambiguous.contains(a));
    }

    #[test]
    fn singleton_local_pointer_ops_are_ambiguous() {
        // Whether `f.x` is a unique cell is `opt::strengthen`'s question;
        // a pointer operation it left alone is ambiguous, recursion or not.
        let src = r#"
tag "f.x" local owner=0 size=1 addressed
func @f(0) {
B0:
  r0 = lea "f.x"
  r1 = load [r0] {"f.x"}
  ret
}
"#;
        let m = ir::parse_module(src).unwrap();
        let f = m.lookup_func("f").unwrap();
        let x = m.tags.lookup("f.x").unwrap();
        let blocks = block_sets(m.func(f));
        assert!(!blocks[0].explicit.contains(x));
        assert!(blocks[0].ambiguous.contains(x));
    }

    #[test]
    fn all_tagset_poisons_ambiguity() {
        let src = r#"
tag "g" global size=1 addressed
global "g" zero
func @main(0) {
B0:
  r0 = sload "g"
  r1 = lea "g"
  store r0, [r1] {*}
  jump B1
B1:
  r2 = sload "g"
  r3 = iconst 0
  branch r3, B1, B2
B2:
  ret
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        let f = m.lookup_func("main").unwrap();
        cfg::normalize_loops(&mut m.funcs[f.index()]);
        let mut analyses = cfg::FunctionAnalyses::new();
        let (_, forest, _) = analyses.loop_view(m.func(f));
        let blocks = block_sets(m.func(f));
        let sets = LoopSets::solve(&blocks, forest);
        // g is explicit in the loop and the {*} store is outside it, so g
        // is promotable in the loop.
        let g = m.tags.lookup("g").unwrap();
        assert_eq!(sets.promotable[0], DenseTagSet::singleton(g));
        // But B0's ambiguity is total.
        assert!(blocks[0].ambiguous.is_all());
    }
}
