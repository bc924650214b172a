//! Content-addressed incremental recompilation.
//!
//! A [`FuncCache`] memoizes each function's trip through the fused
//! intra-procedural pass chain across compiles of the *same*
//! [`crate::Session`]. The key is a 64-bit **fingerprint** of everything
//! the chain's output can depend on that can differ between two compiles
//! of one session (the session's configuration cannot, so it is not part
//! of the key):
//!
//! * the function's canonical post-lowering body ([`ir::hash::body_hash`]
//!   — structural, resolved through tag and function *names*, so arena
//!   index shifts between compiles do not perturb it),
//! * the interprocedural facts the analysis barrier wrote into the body
//!   — call-site MOD/REF lists, refined pointer tag sets, and the
//!   referenced tags' interned attributes ([`ir::hash::facts_hash`]),
//! * the function's transitive MOD/REF summary digest
//!   ([`analysis::modref_summary_hashes`] — the sets include every
//!   callee's effects, so this is what propagates a *callee's* behaviour
//!   change up the call graph even when the caller's own body is
//!   untouched), and
//! * whether the function sits on a call-graph cycle.
//!
//! On a hit the cached function body is *spliced* back into the module:
//! tag and function ids are re-resolved by name against the current
//! module (ids shift when the edit added or removed definitions), the
//! cached chain counters and remark events are replayed, and the cached
//! pending spill tags rejoin the sequential function-index-order commit —
//! so a warm compile's module, report counters, and remark stream are
//! byte-identical to a cold compile's. Only fingerprint misses go through
//! the chain, and the worker pool fans out over exactly that residual
//! set.
//!
//! Entries are evicted least-recently-used when the cache exceeds its
//! byte budget ([`crate::SessionBuilder::cache_budget`]).

use crate::pipeline::FuncOutcome;
use ir::hash::{body_hash, fx_mix};
use ir::{CallEffects, DenseTagSet, Function, Instr, Module, TagId, TagSet};
use regalloc::PROVISIONAL_SPILL_BASE;
use std::collections::HashMap;
use std::mem::{size_of, size_of_val};
use trace::PassEvent;

/// Default cache byte budget: plenty for every in-tree workload while
/// still bounding a long-lived compile service.
pub const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

/// What the incremental layer did during one compile — the per-run view
/// surfaced as [`crate::PipelineReport::incremental`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalReport {
    /// Functions in the module.
    pub funcs_total: usize,
    /// Functions that went through the fused pass chain (fingerprint
    /// misses).
    pub funcs_recompiled: usize,
    /// Functions spliced from the cache.
    pub cache_hits: usize,
    /// Misses whose own body hash was unchanged — the function was
    /// recompiled only because an interprocedural fact changed under it
    /// (a callee's MOD/REF summary, a referenced tag's attributes, its
    /// recursion flag).
    pub summary_invalidated: usize,
    /// Entries evicted by the byte budget after this compile.
    pub evictions: usize,
    /// Cache size in (approximate) bytes after this compile.
    pub cache_bytes: usize,
}

impl IncrementalReport {
    /// Hits over total functions, in `[0, 1]` (1.0 for an empty module).
    pub fn hit_rate(&self) -> f64 {
        if self.funcs_total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / self.funcs_total as f64
        }
    }
}

/// One memoized function: the chain's output plus everything needed to
/// replay it into a later compile of a (possibly edited) module.
struct CacheEntry {
    /// Full fingerprint (body + facts + summary + recursion).
    fp: u64,
    /// The body component alone, kept separate so a miss can be
    /// classified: same body but different `fp` means an interprocedural
    /// fact change invalidated the function.
    h_body: u64,
    /// Post-chain body with provisional spill ids still in place (the
    /// spill commit is replayed per compile so tag ids come out in
    /// function-index order, exactly as a cold compile interns them).
    body: Function,
    /// Names of every non-provisional tag id the body references, for
    /// re-resolution against the next compile's tag table.
    tag_names: Vec<(u32, String)>,
    /// Names of every function id the body references.
    func_names: Vec<(u32, String)>,
    /// Chain counters, allocation report, and pending spills to replay.
    /// Stored without its per-pass timing rows: a hit spends none of that
    /// time, so a warm report must not count it.
    outcome: FuncOutcome,
    /// The chain's trace-event suffix (empty when the config traces
    /// nothing), replayed verbatim so warm remark streams match cold.
    events: Vec<PassEvent>,
    /// Approximate heap footprint, for the eviction budget.
    approx_bytes: usize,
    /// Last compile tick that stored or spliced this entry (LRU clock).
    last_used: u64,
}

/// The per-session function cache. See the module docs for the
/// fingerprint definition and splice semantics.
pub(crate) struct FuncCache {
    entries: HashMap<String, CacheEntry>,
    byte_budget: usize,
    bytes: usize,
    tick: u64,
}

impl FuncCache {
    /// An empty cache with the given eviction budget in bytes.
    pub(crate) fn new(byte_budget: usize) -> FuncCache {
        FuncCache {
            entries: HashMap::new(),
            byte_budget,
            bytes: 0,
            tick: 0,
        }
    }

    /// Approximate bytes held.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Advances the LRU clock; called once per compile.
    pub(crate) fn begin_compile(&mut self) {
        self.tick += 1;
    }

    /// The cached body-hash component for `name`, if any (for miss
    /// classification).
    pub(crate) fn peek_body_hash(&self, name: &str) -> Option<u64> {
        self.entries.get(name).map(|e| e.h_body)
    }

    /// Attempts a cache hit for function `fi` of `module`: the entry must
    /// exist under the function's name, carry fingerprint `fp`, and every
    /// tag and function name it references must resolve in the current
    /// module. On success the cached body (ids remapped) replaces
    /// `module.funcs[fi]` and the chain outcome plus trace-event suffix
    /// are returned; any failure is reported as `None` (a plain miss).
    pub(crate) fn splice(
        &mut self,
        module: &mut Module,
        fi: usize,
        fp: u64,
    ) -> Option<(FuncOutcome, Vec<PassEvent>)> {
        let tick = self.tick;
        let entry = self.entries.get_mut(&module.funcs[fi].name)?;
        if entry.fp != fp {
            return None;
        }
        let body = remap_body(entry, module)?;
        entry.last_used = tick;
        let outcome = entry.outcome.clone();
        let events = entry.events.clone();
        module.funcs[fi] = body;
        Some((outcome, events))
    }

    /// Memoizes function `fi`'s chain output. Must be called *before* the
    /// spill commit mutates the body: the stored copy keeps its
    /// provisional spill ids so the commit can be replayed per compile.
    pub(crate) fn store(
        &mut self,
        module: &Module,
        fi: usize,
        fp: u64,
        h_body: u64,
        outcome: &FuncOutcome,
        events: Vec<PassEvent>,
    ) {
        let func = &module.funcs[fi];
        let mut tag_ids: Vec<u32> = Vec::new();
        let mut func_ids: Vec<u32> = Vec::new();
        for b in &func.blocks {
            for instr in &b.instrs {
                collect_refs(instr, &mut tag_ids, &mut func_ids);
            }
        }
        tag_ids.sort_unstable();
        tag_ids.dedup();
        func_ids.sort_unstable();
        func_ids.dedup();
        let tag_names: Vec<(u32, String)> = tag_ids
            .into_iter()
            .filter(|&id| id < PROVISIONAL_SPILL_BASE)
            .map(|id| (id, module.tags.info(TagId(id)).name.clone()))
            .collect();
        let func_names: Vec<(u32, String)> = func_ids
            .into_iter()
            .map(|id| (id, module.funcs[id as usize].name.clone()))
            .collect();
        let entry = CacheEntry {
            fp,
            h_body,
            body: func.clone(),
            approx_bytes: approx_entry_bytes(func, &tag_names, &func_names, &events),
            tag_names,
            func_names,
            outcome: FuncOutcome {
                timings: Vec::new(),
                ..outcome.clone()
            },
            events,
            last_used: self.tick,
        };
        if let Some(old) = self.entries.insert(func.name.clone(), entry) {
            self.bytes -= old.approx_bytes;
        }
        self.bytes += self.entries[&func.name].approx_bytes;
    }

    /// Evicts least-recently-used entries until the cache fits its byte
    /// budget; returns how many were dropped.
    pub(crate) fn evict_to_budget(&mut self) -> usize {
        let mut evicted = 0;
        while self.bytes > self.byte_budget && !self.entries.is_empty() {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(name, e)| (e.last_used, name.as_str()))
                .map(|(name, _)| name.clone())
                .expect("non-empty cache has a minimum");
            let old = self.entries.remove(&victim).expect("victim exists");
            self.bytes -= old.approx_bytes;
            evicted += 1;
        }
        evicted
    }
}

/// Rough per-entry heap footprint: instruction payloads with each
/// call's out-of-line effects, name tables, and trace events, plus a
/// fixed overhead for the maps and vectors.
fn approx_entry_bytes(
    func: &Function,
    tag_names: &[(u32, String)],
    func_names: &[(u32, String)],
    events: &[PassEvent],
) -> usize {
    let instrs: usize = func
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .map(|i| match i {
            Instr::Call { .. } => size_of::<Instr>() + size_of::<CallEffects>(),
            _ => size_of::<Instr>(),
        })
        .sum();
    let names: usize = tag_names
        .iter()
        .chain(func_names)
        .map(|(_, n)| n.len() + 16)
        .sum();
    instrs
        + func.blocks.len() * size_of::<ir::Block>()
        + size_of_val(events)
        + names
        + func.name.len()
        + 256
}

/// Every tag and function id an instruction references — the identifiers
/// a splice must re-resolve by name in the destination module.
fn collect_refs(instr: &Instr, tags: &mut Vec<u32>, funcs: &mut Vec<u32>) {
    let mut set = |s: &TagSet| {
        if let TagSet::Set(d) = s {
            tags.extend(d.iter().map(|t| t.0));
        }
    };
    match instr {
        Instr::CLoad { tag, .. }
        | Instr::SLoad { tag, .. }
        | Instr::SStore { tag, .. }
        | Instr::Lea { tag, .. } => tags.push(tag.0),
        Instr::Alloc { site, .. } => tags.push(site.0),
        Instr::Load { tags: t, .. } | Instr::Store { tags: t, .. } => set(t),
        Instr::FuncAddr { func, .. } => funcs.push(func.0),
        Instr::Call {
            callee, effects, ..
        } => {
            if let ir::Callee::Direct(f) = callee {
                funcs.push(f.0);
            }
            set(&effects.mods);
            set(&effects.refs);
        }
        _ => {}
    }
}

/// Clones the cached body with every tag and function id re-resolved by
/// name against `module`. Provisional spill ids (>=
/// [`PROVISIONAL_SPILL_BASE`]) pass through untouched — the per-compile
/// spill commit rewrites them. `None` if any name fails to resolve.
fn remap_body(entry: &CacheEntry, module: &Module) -> Option<Function> {
    let mut tag_map: HashMap<u32, TagId> = HashMap::with_capacity(entry.tag_names.len());
    for (old, name) in &entry.tag_names {
        tag_map.insert(*old, module.tags.lookup(name)?);
    }
    let mut func_map: HashMap<u32, ir::FuncId> = HashMap::with_capacity(entry.func_names.len());
    for (old, name) in &entry.func_names {
        func_map.insert(*old, module.lookup_func(name)?);
    }
    let mut body = entry.body.clone();
    for b in &mut body.blocks {
        for instr in &mut b.instrs {
            remap_instr(instr, &tag_map, &func_map)?;
        }
    }
    Some(body)
}

fn remap_tag(tag: &mut TagId, map: &HashMap<u32, TagId>) -> Option<()> {
    if tag.0 >= PROVISIONAL_SPILL_BASE {
        return Some(());
    }
    *tag = *map.get(&tag.0)?;
    Some(())
}

fn remap_set(set: &mut TagSet, map: &HashMap<u32, TagId>) -> Option<()> {
    if let TagSet::Set(d) = set {
        let mut out = DenseTagSet::new();
        for t in d.iter() {
            if t.0 >= PROVISIONAL_SPILL_BASE {
                out.insert(t);
            } else {
                out.insert(*map.get(&t.0)?);
            }
        }
        *d = out;
    }
    Some(())
}

fn remap_instr(
    instr: &mut Instr,
    tag_map: &HashMap<u32, TagId>,
    func_map: &HashMap<u32, ir::FuncId>,
) -> Option<()> {
    match instr {
        Instr::CLoad { tag, .. }
        | Instr::SLoad { tag, .. }
        | Instr::SStore { tag, .. }
        | Instr::Lea { tag, .. } => remap_tag(tag, tag_map),
        Instr::Alloc { site, .. } => remap_tag(site, tag_map),
        Instr::Load { tags, .. } | Instr::Store { tags, .. } => remap_set(tags, tag_map),
        Instr::FuncAddr { func, .. } => {
            *func = *func_map.get(&func.0)?;
            Some(())
        }
        Instr::Call {
            callee, effects, ..
        } => {
            if let ir::Callee::Direct(f) = callee {
                *f = *func_map.get(&f.0)?;
            }
            remap_set(&mut effects.mods, tag_map)?;
            remap_set(&mut effects.refs, tag_map)
        }
        _ => Some(()),
    }
}

/// The full per-function fingerprint. `summary` is the function's own
/// transitive MOD/REF digest, which folds in every callee's memory
/// behaviour — the dependency-aware half of invalidation.
pub(crate) fn fingerprint(h_body: u64, h_facts: u64, summary: u64, recursive: bool) -> u64 {
    fx_mix(
        fx_mix(h_body, h_facts),
        fx_mix(summary, 1 + recursive as u64),
    )
}

/// Computes every function's `(fp, h_body)` pair, in module index
/// order, at the analysis barrier (facts and summaries are only
/// meaningful after it).
pub(crate) fn compute_fingerprints(
    module: &Module,
    summaries: &[u64],
    recursive: &[bool],
) -> Vec<(u64, u64)> {
    module
        .funcs
        .iter()
        .enumerate()
        .map(|(i, func)| {
            let h_body = body_hash(module, func);
            let h_facts = ir::hash::facts_hash(module, func);
            let fp = fingerprint(h_body, h_facts, summaries[i], recursive[i]);
            (fp, h_body)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_is_lru_under_budget() {
        let mut cache = FuncCache::new(1);
        let module = {
            let mut m = Module::new();
            m.add_func(Function::new("a", 0));
            m.add_func(Function::new("b", 0));
            m
        };
        cache.begin_compile();
        let o = FuncOutcome::default();
        cache.store(&module, 0, 1, 1, &o, Vec::new());
        cache.begin_compile();
        cache.store(&module, 1, 2, 2, &o, Vec::new());
        assert_eq!(cache.entries.len(), 2);
        let evicted = cache.evict_to_budget();
        // Budget of one byte cannot hold either entry.
        assert_eq!(evicted, 2);
        assert!(cache.entries.is_empty());
        assert_eq!(cache.bytes(), 0);
    }
}
