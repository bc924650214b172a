//! `ir::take`, `ir::park` and `ir::free_parked`, the one way warm storage
//! is kept on a thread between uses (the front end, the pass chain's
//! scratch and analysis shells, the VM's tables): a panic loses only what
//! it took, a slot keeps the larger of two values, and nothing outlives
//! its thread.

use ir::{free_parked, park, take};
use std::cell::Cell;
use std::panic::catch_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    static PARKED: Cell<Option<Vec<u32>>> = const { Cell::new(None) };
}

#[test]
fn a_value_dropped_by_a_panic_leaves_its_slot_empty() {
    for fails in [false, true] {
        park(&PARKED, vec![1, 2, 3], Vec::len);
        let unwound = catch_unwind(|| {
            let mut held = take(&PARKED);
            held.push(4);
            assert!(!fails, "a use that fails mid-way");
            park(&PARKED, held, Vec::len);
        });
        assert_eq!(unwound.is_err(), fails);
        let next = take(&PARKED);
        if fails {
            assert_eq!(next.capacity(), 0, "the next use starts from a default");
        } else {
            assert_eq!(next, [1, 2, 3, 4]);
        }
    }
}

#[test]
fn free_parked_empties_the_slot() {
    park(&PARKED, vec![1, 2, 3], Vec::len);
    free_parked(&PARKED);
    assert_eq!(take(&PARKED).capacity(), 0);
}

#[test]
fn park_keeps_the_larger_value() {
    for (first, second) in [(8, 2), (2, 8)] {
        park(&PARKED, vec![0; first], Vec::len);
        park(&PARKED, vec![0; second], Vec::len);
        assert_eq!(take(&PARKED).len(), 8, "{first} then {second}");
    }
}

static PROBES_DROPPED: AtomicUsize = AtomicUsize::new(0);

struct Probe;

impl Drop for Probe {
    fn drop(&mut self) {
        PROBES_DROPPED.fetch_add(1, Ordering::SeqCst);
    }
}

/// Parks a [`Probe`] when its thread drops it, which it does as it exits.
struct ParkOnExit;

impl Drop for ParkOnExit {
    fn drop(&mut self) {
        park(&PROBE, Probe, |_| 0);
    }
}

thread_local! {
    static PROBE: Cell<Option<Probe>> = const { Cell::new(None) };
    static PARK_ON_EXIT: ParkOnExit = const { ParkOnExit };
}

#[test]
fn park_on_an_exiting_thread_frees_the_value() {
    std::thread::spawn(|| {
        // Registered before the slot: where destructors run last-registered
        // first, the slot is already gone when this one parks.
        PARK_ON_EXIT.with(|_| ());
        park(&PROBE, Probe, |_| 0);
    })
    .join()
    .expect("the thread exits cleanly");
    // The probe parked while the thread ran and the one parked as it
    // exited are both freed with it.
    assert_eq!(PROBES_DROPPED.load(Ordering::SeqCst), 2);
}
