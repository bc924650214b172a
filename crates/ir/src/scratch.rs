//! Reusable, epoch-cleared scratch containers for pass-local state.
//!
//! The paper's premise — keep hot values out of memory — applies to the
//! compiler itself: per-invocation `HashMap`/`BTreeMap` tables and
//! `Vec::insert`/`remove` shifts dominate the allocator profile of the hot
//! pass loop. These containers trade a little space for zero steady-state
//! allocation:
//!
//! * [`DenseMap`]/[`DenseSet`] — side tables keyed by a small dense index
//!   (register number, block index, value number). Clearing is an epoch
//!   bump, not a free: each slot carries the epoch stamp it was written
//!   under, and a stale stamp reads as absent. `reset` is O(1) except on
//!   the (rare) epoch-counter wraparound.
//! * [`RewriteBuf`] — a retain-style block rebuilder: the block's
//!   instruction vector is swapped into the buffer and replayed through a
//!   callback that pushes the replacement sequence back, so arbitrary
//!   deletes/expansions cost one pass instead of one shift per edit.
//!
//! All containers keep their capacity across uses; a scratch that has
//! seen the largest function in a module never allocates again.
//!
//! Between uses, warm storage is parked on its thread ([`take`] and
//! [`park`]): the front end, the pass chain's scratch and analysis
//! shells, and the VM's tables. It is freed by [`free_parked`] or when
//! the thread exits; a value dropped by a panic is simply gone, and the
//! next user on the thread takes a default one.

use crate::instr::Instr;
use crate::Block;
use std::cell::Cell;
use std::thread::LocalKey;

/// One parked value per thread, declared with `thread_local!` as
/// `Cell<Option<T>>` starting at `None`.
pub type Slot<T> = LocalKey<Cell<Option<T>>>;

/// Takes the value parked in `slot`, or a default one when there is none
/// (or the thread is exiting).
pub fn take<T: Default>(slot: &'static Slot<T>) -> T {
    slot.try_with(Cell::take).ok().flatten().unwrap_or_default()
}

/// Parks `value` in `slot`, unless the value parked there is larger by
/// `size`; the smaller one is freed. On an exiting thread `value` is freed.
pub fn park<T>(slot: &'static Slot<T>, value: T, size: fn(&T) -> usize) {
    let _ = slot.try_with(|parked| {
        let kept = match parked.take() {
            Some(held) if size(&held) > size(&value) => held,
            _ => value,
        };
        parked.set(Some(kept));
    });
}

/// Frees the value parked in `slot`, if any.
pub fn free_parked<T>(slot: &'static Slot<T>) {
    let _ = slot.try_with(Cell::take);
}

/// A map from a small dense index to `V`, cleared by epoch bump.
///
/// Absence is encoded by a stale epoch stamp, so `reset` does not touch
/// the value storage at all.
#[derive(Debug, Default)]
pub struct DenseMap<V> {
    stamps: Vec<u32>,
    vals: Vec<V>,
    epoch: u32,
}

impl<V: Copy + Default> DenseMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DenseMap {
            stamps: Vec::new(),
            vals: Vec::new(),
            epoch: 1,
        }
    }

    /// Forgets all entries (epoch bump) and ensures capacity for keys
    /// `0..n` without further allocation.
    pub fn reset(&mut self, n: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could now collide with the new epoch.
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
            self.vals.resize(n, V::default());
        }
    }

    /// Inserts `v` at `k`, growing the table if `k` is beyond the reserved
    /// range (grows to the next power of two to amortize).
    pub fn insert(&mut self, k: u32, v: V) {
        let k = k as usize;
        if k >= self.stamps.len() {
            let n = (k + 1).next_power_of_two();
            self.stamps.resize(n, 0);
            self.vals.resize(n, V::default());
        }
        self.stamps[k] = self.epoch;
        self.vals[k] = v;
    }

    /// Looks up `k`.
    pub fn get(&self, k: u32) -> Option<V> {
        let k = k as usize;
        if self.stamps.get(k) == Some(&self.epoch) {
            Some(self.vals[k])
        } else {
            None
        }
    }

    /// Removes `k`, returning whether it was present.
    pub fn remove(&mut self, k: u32) -> bool {
        let k = k as usize;
        if self.stamps.get(k) == Some(&self.epoch) {
            self.stamps[k] = 0;
            true
        } else {
            false
        }
    }
}

/// A set of small dense indices, cleared by epoch bump.
#[derive(Debug, Default)]
pub struct DenseSet {
    stamps: Vec<u32>,
    epoch: u32,
}

impl DenseSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        DenseSet {
            stamps: Vec::new(),
            epoch: 1,
        }
    }

    /// Forgets all members (epoch bump) and reserves `0..n`.
    pub fn reset(&mut self, n: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
    }

    /// Inserts `k`; returns true if it was newly added.
    pub fn insert(&mut self, k: u32) -> bool {
        let k = k as usize;
        if k >= self.stamps.len() {
            self.stamps.resize((k + 1).next_power_of_two(), 0);
        }
        let fresh = self.stamps[k] != self.epoch;
        self.stamps[k] = self.epoch;
        fresh
    }

    /// Membership test.
    pub fn contains(&self, k: u32) -> bool {
        self.stamps.get(k as usize) == Some(&self.epoch)
    }

    /// Removes `k`, returning whether it was present.
    pub fn remove(&mut self, k: u32) -> bool {
        let k = k as usize;
        if self.stamps.get(k) == Some(&self.epoch) {
            self.stamps[k] = 0;
            true
        } else {
            false
        }
    }
}

/// A reusable buffer for rebuilding a block's instruction sequence in one
/// retain-style sweep.
///
/// `rebuild` swaps the block's instructions into the buffer, hands each
/// one to the callback together with the (now empty, capacity-preserving)
/// destination vector, and lets the callback decide what to emit: push the
/// instruction back unchanged, drop it, or surround it with new code. One
/// linear pass replaces any number of `Vec::insert`/`remove` shifts.
#[derive(Debug, Default)]
pub struct RewriteBuf {
    buf: Vec<Instr>,
}

impl RewriteBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds `block.instrs` through `f`, which receives each original
    /// instruction in order plus the destination vector to push into.
    pub fn rebuild(&mut self, block: &mut Block, mut f: impl FnMut(Instr, &mut Vec<Instr>)) {
        debug_assert!(self.buf.is_empty());
        std::mem::swap(&mut self.buf, &mut block.instrs);
        for instr in self.buf.drain(..) {
            f(instr, &mut block.instrs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Reg;

    #[test]
    fn dense_map_epochs() {
        let mut m: DenseMap<u32> = DenseMap::new();
        m.reset(4);
        assert_eq!(m.get(2), None);
        m.insert(2, 7);
        assert_eq!(m.get(2), Some(7));
        // Auto-grow beyond the reserved range.
        m.insert(100, 9);
        assert_eq!(m.get(100), Some(9));
        assert!(m.remove(2));
        assert!(!m.remove(2));
        assert_eq!(m.get(2), None);
        // Epoch bump forgets everything without touching values.
        m.insert(3, 1);
        m.reset(4);
        assert_eq!(m.get(3), None);
        assert_eq!(m.get(100), None);
    }

    #[test]
    fn dense_map_epoch_wraparound_is_safe() {
        let mut m: DenseMap<u32> = DenseMap::new();
        m.reset(2);
        m.insert(0, 5);
        // Force the counter to the wrap point.
        m.epoch = u32::MAX;
        m.insert(1, 6);
        m.reset(2);
        // After wrap, pre-wrap stamps must not alias the fresh epoch.
        assert_eq!(m.get(0), None);
        assert_eq!(m.get(1), None);
        m.insert(1, 8);
        assert_eq!(m.get(1), Some(8));
    }

    #[test]
    fn dense_set_basics() {
        let mut s = DenseSet::new();
        s.reset(4);
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(1));
        assert!(!s.contains(0));
        assert!(s.insert(64)); // auto-grow
        assert!(s.remove(1));
        assert!(!s.remove(1));
        s.reset(4);
        assert!(!s.contains(64));
    }

    #[test]
    fn rewrite_buf_rebuilds_in_one_pass() {
        let mut b = Block::new();
        b.instrs.push(Instr::IConst {
            dst: Reg(0),
            value: 1,
        });
        b.instrs.push(Instr::Nop);
        b.instrs.push(Instr::Ret { value: None });
        let mut rw = RewriteBuf::new();
        rw.rebuild(&mut b, |instr, out| match instr {
            Instr::Nop => {} // drop
            Instr::IConst { dst, value } => {
                // Expand: keep it and append a copy after it.
                out.push(Instr::IConst { dst, value });
                out.push(Instr::Copy {
                    dst: Reg(1),
                    src: dst,
                });
            }
            other => out.push(other),
        });
        assert_eq!(b.instrs.len(), 3);
        assert!(matches!(b.instrs[1], Instr::Copy { .. }));
        assert!(matches!(b.instrs[2], Instr::Ret { .. }));
        // Buffer is drained and reusable.
        rw.rebuild(&mut b, |i, out| out.push(i));
        assert_eq!(b.instrs.len(), 3);
    }
}
