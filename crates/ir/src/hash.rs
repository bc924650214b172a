//! Canonical, arena-address-independent hashing of IL.
//!
//! The incremental-recompilation layer keys its per-function cache on
//! *content*, so two structurally identical functions must hash equal no
//! matter which module they live in, which index the module assigned
//! them, or what order the front end's interner saw their names in. The
//! two hashes here achieve that by resolving every cross-function
//! reference to its *name* during the walk:
//!
//! * [`body_hash`] covers the structural body — opcodes, registers,
//!   block edges, constants, and the tags named *directly* by scalar
//!   operations (`cload`/`sload`/`sstore`/`lea`/`alloc`) — but skips the
//!   analysis-written fields (`load`/`store` tag sets, call MOD/REF
//!   sets). It answers "did the function itself change?".
//! * [`facts_hash`] covers exactly those skipped fields plus the
//!   [`crate::TagInfo`] of every tag the function references (kind, owner,
//!   size, address-taken flag). It answers "did the interprocedural
//!   facts feeding this function change?".
//!
//! A function's cache fingerprint mixes both (plus its transitive
//! MOD/REF summary digest and whether it is recursive); keeping them
//! separate lets the driver report *why* a cache miss happened — edited
//! body versus invalidated summary.
//!
//! Tag and function ids are resolved through the owning [`Module`], and
//! ids outside the module's tables (the allocator's provisional spill
//! ids never appear in pre-allocation bodies, but defensiveness is
//! cheap) hash as their raw value.

use crate::function::{Function, Module};
use crate::instr::{Callee, FuncId, Instr};
use crate::tag::{TagId, TagKind, TagSet};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from the Fx (Firefox) hash: a cheap, deterministic,
/// non-cryptographic mix that the rustc ecosystem uses for exactly this
/// kind of content addressing.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A `std`-only implementation of the FxHash word mixer. Deterministic
/// across processes and platforms (unlike [`std::hash::RandomState`]),
/// which is what lets fingerprints persist across compiles in one
/// session and stay comparable between sessions.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// A fresh hasher with the zero state.
    pub fn new() -> FxHasher {
        FxHasher { hash: 0 }
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length in the top byte so "ab" and "ab\0" differ.
            tail[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A `HashMap` keyed through [`FxHasher`]: deterministic, and cheaper than
/// std's SipHash on the small integer and enum keys of the passes'
/// per-block tables. Unlike `RandomState` it has no defence against keys
/// crafted to collide, so a table whose keys the source controls (LVN's
/// constants) can take time quadratic in its size on hostile input.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Combines two hashes order-dependently.
pub fn fx_mix(a: u64, b: u64) -> u64 {
    let mut h = FxHasher::new();
    h.write_u64(a);
    h.write_u64(b);
    h.finish()
}

/// Hashes a tag by name (canonical) or by raw id if it is not in the
/// module's table (provisional spill ids).
fn hash_tag(h: &mut FxHasher, module: &Module, tag: TagId) {
    if (tag.index()) < module.tags.len() {
        h.write(module.tags.info(tag).name.as_bytes());
    } else {
        h.write_u8(0xFF);
        h.write_u32(tag.0);
    }
}

/// Hashes a function reference by name (canonical) or raw id when out of
/// range.
fn hash_func_ref(h: &mut FxHasher, module: &Module, fid: FuncId) {
    match module.funcs.get(fid.index()) {
        Some(f) => h.write(f.name.as_bytes()),
        None => {
            h.write_u8(0xFE);
            h.write_u32(fid.0);
        }
    }
}

/// Hashes a [`TagSet`] canonically: the `All` marker, or the member tags
/// by name in ascending-id order (id order is deterministic per module,
/// and the names themselves make the digest module-independent).
fn hash_tag_set(h: &mut FxHasher, module: &Module, set: &TagSet) {
    match set {
        TagSet::All => h.write_u8(1),
        TagSet::Set(s) => {
            h.write_u8(2);
            h.write_usize(s.len());
            for t in s.iter() {
                hash_tag(h, module, t);
            }
        }
    }
}

/// Opcode discriminants for the canonical walk. Kept explicit (rather
/// than `mem::discriminant`) so the digest is stable across compiler
/// versions and enum reorderings.
fn opcode(instr: &Instr) -> u8 {
    match instr {
        Instr::IConst { .. } => 1,
        Instr::FConst { .. } => 2,
        Instr::FuncAddr { .. } => 3,
        Instr::Copy { .. } => 4,
        Instr::Unary { .. } => 5,
        Instr::Binary { .. } => 6,
        Instr::Cmp { .. } => 7,
        Instr::CLoad { .. } => 8,
        Instr::SLoad { .. } => 9,
        Instr::SStore { .. } => 10,
        Instr::Load { .. } => 11,
        Instr::Store { .. } => 12,
        Instr::Lea { .. } => 13,
        Instr::PtrAdd { .. } => 14,
        Instr::Alloc { .. } => 15,
        Instr::Call { .. } => 16,
        Instr::Phi { .. } => 17,
        Instr::Jump { .. } => 18,
        Instr::Branch { .. } => 19,
        Instr::Ret { .. } => 20,
        Instr::Nop => 21,
    }
}

/// Hashes one instruction's structural content — everything except the
/// analysis-written tag sets (`Load`/`Store` `tags`, `Call` `effects`).
/// `with_facts` selects the complementary projection: *only* those
/// fields (the body walk calls it with `false`, the facts walk with
/// `true`).
fn hash_instr(h: &mut FxHasher, module: &Module, instr: &Instr, with_facts: bool) {
    if with_facts {
        match instr {
            Instr::Load { tags, .. } | Instr::Store { tags, .. } => {
                h.write_u8(opcode(instr));
                hash_tag_set(h, module, tags);
            }
            Instr::Call { effects, .. } => {
                h.write_u8(opcode(instr));
                hash_tag_set(h, module, &effects.mods);
                hash_tag_set(h, module, &effects.refs);
            }
            _ => {}
        }
        return;
    }
    h.write_u8(opcode(instr));
    match instr {
        Instr::IConst { dst, value } => {
            h.write_u32(dst.0);
            h.write_u64(*value as u64);
        }
        Instr::FConst { dst, value } => {
            h.write_u32(dst.0);
            h.write_u64(value.to_bits());
        }
        Instr::FuncAddr { dst, func } => {
            h.write_u32(dst.0);
            hash_func_ref(h, module, *func);
        }
        Instr::Copy { dst, src } => {
            h.write_u32(dst.0);
            h.write_u32(src.0);
        }
        Instr::Unary { op, dst, src } => {
            h.write_u8(*op as u8);
            h.write_u32(dst.0);
            h.write_u32(src.0);
        }
        Instr::Binary { op, dst, lhs, rhs } => {
            h.write_u8(*op as u8);
            h.write_u32(dst.0);
            h.write_u32(lhs.0);
            h.write_u32(rhs.0);
        }
        Instr::Cmp { op, dst, lhs, rhs } => {
            h.write_u8(*op as u8);
            h.write_u32(dst.0);
            h.write_u32(lhs.0);
            h.write_u32(rhs.0);
        }
        Instr::CLoad { dst, tag } | Instr::SLoad { dst, tag } | Instr::Lea { dst, tag } => {
            h.write_u32(dst.0);
            hash_tag(h, module, *tag);
        }
        Instr::SStore { src, tag } => {
            h.write_u32(src.0);
            hash_tag(h, module, *tag);
        }
        Instr::Load { dst, addr, .. } => {
            h.write_u32(dst.0);
            h.write_u32(addr.0);
        }
        Instr::Store { src, addr, .. } => {
            h.write_u32(src.0);
            h.write_u32(addr.0);
        }
        Instr::PtrAdd { dst, base, offset } => {
            h.write_u32(dst.0);
            h.write_u32(base.0);
            h.write_u32(offset.0);
        }
        Instr::Alloc { dst, size, site } => {
            h.write_u32(dst.0);
            h.write_u32(size.0);
            hash_tag(h, module, *site);
        }
        Instr::Call {
            dst, callee, args, ..
        } => {
            match dst {
                Some(d) => {
                    h.write_u8(1);
                    h.write_u32(d.0);
                }
                None => h.write_u8(0),
            }
            match callee {
                Callee::Direct(f) => {
                    h.write_u8(1);
                    hash_func_ref(h, module, *f);
                }
                Callee::Indirect(r) => {
                    h.write_u8(2);
                    h.write_u32(r.0);
                }
                Callee::Intrinsic(i) => {
                    h.write_u8(3);
                    h.write(i.name().as_bytes());
                }
            }
            h.write_usize(args.len());
            for a in args {
                h.write_u32(a.0);
            }
        }
        Instr::Phi { dst, args } => {
            h.write_u32(dst.0);
            h.write_usize(args.len());
            for (b, r) in args {
                h.write_u32(b.0);
                h.write_u32(r.0);
            }
        }
        Instr::Jump { target } => h.write_u32(target.0),
        Instr::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            h.write_u32(cond.0);
            h.write_u32(then_bb.0);
            h.write_u32(else_bb.0);
        }
        Instr::Ret { value } => match value {
            Some(v) => {
                h.write_u8(1);
                h.write_u32(v.0);
            }
            None => h.write_u8(0),
        },
        Instr::Nop => {}
    }
}

/// Canonical hash of a function's structural body: signature, block
/// structure, and every instruction *except* the analysis-written tag
/// sets, with tag and function references resolved to names. Equal for
/// structurally identical functions regardless of module, function
/// index, tag-id assignment, or interner state.
pub fn body_hash(module: &Module, func: &Function) -> u64 {
    let mut h = FxHasher::new();
    h.write(func.name.as_bytes());
    h.write_usize(func.arity);
    h.write_u8(func.has_result as u8);
    h.write_u32(func.entry.0);
    h.write_u32(func.next_reg);
    h.write_usize(func.blocks.len());
    for block in &func.blocks {
        h.write_usize(block.instrs.len());
        for instr in &block.instrs {
            hash_instr(&mut h, module, instr, false);
        }
    }
    h.finish()
}

/// Canonical hash of the analysis-written facts a function's fused-chain
/// trip consumes: the `load`/`store` tag sets and call MOD/REF sets in
/// body order, plus the [`crate::TagInfo`] (kind, owner function by
/// *name*, size, address-taken flag) of every tag the function
/// references, in name order. A change here with an unchanged
/// [`body_hash`] is exactly a "summary invalidation".
pub fn facts_hash(module: &Module, func: &Function) -> u64 {
    let mut h = FxHasher::new();
    let mut referenced: Vec<TagId> = Vec::new();
    let mut note = |t: TagId| {
        if t.index() < module.tags.len() {
            referenced.push(t);
        }
    };
    for block in &func.blocks {
        for instr in &block.instrs {
            hash_instr(&mut h, module, instr, true);
            match instr {
                Instr::CLoad { tag, .. }
                | Instr::SLoad { tag, .. }
                | Instr::SStore { tag, .. }
                | Instr::Lea { tag, .. } => note(*tag),
                Instr::Alloc { site, .. } => note(*site),
                Instr::Load { tags, .. } | Instr::Store { tags, .. } => {
                    if let TagSet::Set(s) = tags {
                        s.iter().for_each(&mut note);
                    }
                }
                Instr::Call { effects, .. } => {
                    for set in [&effects.mods, &effects.refs] {
                        if let TagSet::Set(s) = set {
                            s.iter().for_each(&mut note);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    referenced.sort_unstable_by(|a, b| {
        module
            .tags
            .info(*a)
            .name
            .cmp(&module.tags.info(*b).name)
            .then(a.0.cmp(&b.0))
    });
    referenced.dedup();
    h.write_usize(referenced.len());
    for t in referenced {
        let info = module.tags.info(t);
        h.write(info.name.as_bytes());
        match info.kind {
            TagKind::Global => h.write_u8(1),
            TagKind::Local { owner } => {
                h.write_u8(2);
                hash_func_ref(&mut h, module, FuncId(owner));
            }
            TagKind::Param { owner } => {
                h.write_u8(3);
                hash_func_ref(&mut h, module, FuncId(owner));
            }
            TagKind::Heap { site } => {
                h.write_u8(4);
                h.write_u32(site);
            }
            TagKind::Spill { owner } => {
                h.write_u8(5);
                hash_func_ref(&mut h, module, FuncId(owner));
            }
        }
        h.write_usize(info.size);
        h.write_u8(info.address_taken as u8);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;

    const A: &str = "\
tag \"g\" global size=1
global \"g\" zero
func @main(0) {
B0:
  r0 = cload \"g\"
  r1 = iconst 1
  r2 = add r0, r1
  ret
}
";

    // Same function, but the module carries an extra tag and an extra
    // function *before* it, shifting its index and its tags' ids.
    const B: &str = "\
tag \"pad.x\" local owner=0 size=1
tag \"g\" global size=1
global \"g\" zero
func @pad(0) {
B0:
  r0 = iconst 0
  sstore r0, \"pad.x\"
  ret
}
func @main(0) {
B0:
  r0 = cload \"g\"
  r1 = iconst 1
  r2 = add r0, r1
  ret
}
";

    fn find<'m>(m: &'m Module, name: &str) -> &'m Function {
        m.funcs.iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn body_hash_independent_of_function_index_and_tag_ids() {
        let a = parse_module(A).unwrap();
        let b = parse_module(B).unwrap();
        assert_eq!(
            body_hash(&a, find(&a, "main")),
            body_hash(&b, find(&b, "main"))
        );
        assert_eq!(
            facts_hash(&a, find(&a, "main")),
            facts_hash(&b, find(&b, "main"))
        );
        assert_ne!(
            body_hash(&b, find(&b, "pad")),
            body_hash(&b, find(&b, "main"))
        );
    }

    #[test]
    fn body_hash_sees_structural_edits() {
        let a = parse_module(A).unwrap();
        let edited = parse_module(&A.replace("iconst 1", "iconst 2")).unwrap();
        assert_ne!(
            body_hash(&a, find(&a, "main")),
            body_hash(&edited, find(&edited, "main"))
        );
    }

    #[test]
    fn facts_hash_sees_address_taken_flips_body_hash_does_not() {
        let a = parse_module(A).unwrap();
        let mut b = parse_module(A).unwrap();
        let g = b.tags.lookup("g").unwrap();
        b.tags.mark_address_taken(g);
        assert_eq!(body_hash(&a, find(&a, "main")), {
            let f = find(&b, "main");
            body_hash(&b, f)
        });
        assert_ne!(facts_hash(&a, find(&a, "main")), {
            let f = find(&b, "main");
            facts_hash(&b, f)
        });
    }

    #[test]
    fn fx_hash_is_deterministic_and_length_aware() {
        let bytes = |b: &[u8]| {
            let mut h = FxHasher::new();
            h.write(b);
            h.finish()
        };
        assert_eq!(bytes(b"main"), bytes(b"main"));
        assert_ne!(bytes(b"ab"), bytes(b"ab\0"));
        assert_ne!(fx_mix(1, 2), fx_mix(2, 1));
    }
}
