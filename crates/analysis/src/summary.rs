//! Interprocedural summary fingerprints for incremental recompilation.
//!
//! The driver's per-function cache must notice when a *callee's* memory
//! behaviour changes even though the caller's own body did not: the call
//! sites' MOD/REF tag sets feed promotion, so a stale summary means a
//! stale optimization decision. [`modref_summary_hashes`] digests each
//! function's whole-function MOD and REF sets (by tag *name*, so the
//! digest is independent of tag-id assignment). Those sets are
//! transitive — they include every callee's effects — so a callee's
//! change moves the digest of every function that reaches it, and the
//! driver's fingerprint needs only each function's own digest.

use crate::modref::ModRef;
use ir::hash::FxHasher;
use ir::{DenseTagSet, Module};
use std::hash::Hasher;

/// Hashes one whole-function tag set by member names, in ascending-id
/// order (deterministic per module; the names make it module-portable).
fn hash_set(h: &mut FxHasher, module: &Module, set: &DenseTagSet) {
    h.write_usize(set.len());
    for t in set.iter() {
        if t.index() < module.tags.len() {
            h.write(module.tags.info(t).name.as_bytes());
        } else {
            h.write_u32(t.0);
        }
    }
}

/// Per-function digests of the MOD/REF summaries: index `i` is the hash
/// of function `i`'s may-modify and may-reference tag sets. Two compiles
/// in which a function's summary digests agree present identical
/// interprocedural facts at that function's call sites.
pub fn modref_summary_hashes(module: &Module, modref: &ModRef) -> Vec<u64> {
    (0..module.funcs.len())
        .map(|i| {
            let mut h = FxHasher::new();
            hash_set(&mut h, module, &modref.func_mods[i]);
            h.write_u8(0xAB);
            hash_set(&mut h, module, &modref.func_refs[i]);
            h.finish()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisLevel};

    const SRC: &str = "\
tag \"g\" global size=1
tag \"h\" global size=1
global \"g\" zero
global \"h\" zero
func @leaf(0) {
B0:
  r0 = iconst 1
  sstore r0, \"g\"
  ret
}
func @mid(0) {
B0:
  call @leaf() mods{} refs{}
  ret
}
func @main(0) {
B0:
  call @mid() mods{} refs{}
  ret
}
";

    #[test]
    fn summary_hash_changes_with_callee_mods() {
        let mut a = ir::parse_module(SRC).unwrap();
        let mut b = ir::parse_module(&SRC.replace("sstore r0, \"g\"", "sstore r0, \"h\"")).unwrap();
        let oa = analyze(&mut a, AnalysisLevel::ModRef);
        let ob = analyze(&mut b, AnalysisLevel::ModRef);
        let ha = modref_summary_hashes(&a, &oa.modref);
        let hb = modref_summary_hashes(&b, &ob.modref);
        // The summary change propagates up the call chain (MOD sets are
        // transitive), so every digest on the chain moves.
        assert_ne!(ha[0], hb[0]);
        assert_ne!(ha[1], hb[1]);
    }
}
