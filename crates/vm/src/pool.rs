//! Storage a run allocates and throws away, kept on its thread for the
//! next run.
//!
//! Each run needs tables for its decoded module and storage for its
//! objects, frames and register files. A caller that runs one program
//! after another on a thread (the benchmark, the fuzz oracle, the tests)
//! would pay for sizing and allocating all of that each time. Instead a
//! dropped [`Program`](crate::decode::Program) parks its [`Tables`] here
//! and a dropped [`Vm`](crate::Vm) its [`Storage`], and the next decode
//! or VM on the thread takes them back.
//!
//! A slot holds one set. Taking it leaves the slot empty, so a second
//! program or VM alive at the same time allocates its own; when both are
//! dropped, the larger set is kept. Whoever takes a set clears each part
//! of it before using it, never the one parking it; register files, which
//! the VM empties as each call returns, are the one exception. What a
//! parked [`Storage`] may hold is capped (see [`crate::machine`]); decode
//! tables are sized by the module, which the caller holds anyway.

use crate::decode::Tables;
use crate::machine::Storage;
use std::cell::Cell;
use std::thread::LocalKey;

/// One parked set per thread.
pub(crate) type Slot<T> = LocalKey<Cell<Option<T>>>;

thread_local! {
    /// The last decode's tables.
    pub(crate) static TABLES: Cell<Option<Tables>> = const { Cell::new(None) };
    /// The last VM's objects, cell buffers, frames and register files.
    pub(crate) static STORAGE: Cell<Option<Storage>> = const { Cell::new(None) };
}

/// Takes the set parked in `slot`, or an empty one when there is none
/// (or the thread is exiting).
pub(crate) fn take<T: Default>(slot: &'static Slot<T>) -> T {
    slot.try_with(Cell::take).ok().flatten().unwrap_or_default()
}

/// Parks `set` in `slot`, unless the set parked there is larger by
/// `size`; the smaller one is freed. On an exiting thread `set` is freed.
pub(crate) fn park<T>(slot: &'static Slot<T>, set: T, size: fn(&T) -> usize) {
    let _ = slot.try_with(|parked| {
        let kept = match parked.take() {
            Some(held) if size(&held) > size(&set) => held,
            _ => set,
        };
        parked.set(Some(kept));
    });
}
