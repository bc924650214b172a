//! The supporting optimizer of the register-promotion compiler.
//!
//! The paper optimizes every program version with "value numbering,
//! partial redundancy elimination, constant propagation, loop invariant
//! code motion, dead code elimination, register allocation, and a basic
//! block cleaning pass". This crate provides those scalar passes (register
//! allocation lives in its own crate):
//!
//! * [`lvn`] — local value numbering with constant folding and tag-aware
//!   scalar-memory forwarding;
//! * [`loadelim`] — the tag-aware redundant-load core of PRE;
//! * [`constprop`] — global constant propagation with branch folding;
//! * [`licm`] — loop-invariant code motion (including loads of tags the
//!   loop cannot modify);
//! * [`dce`] — dead-code elimination;
//! * [`clean`] — nop removal, jump threading, empty-block removal;
//! * [`strengthen`] — Table-1 opcode strengthening after analysis.
//!
//! Each pass has two entry points: the module-wide convenience named
//! above, and one per-function entry (`lvn_function_in`, ...,
//! [`strengthen_function`]) that runs against the caller's
//! [`cfg::FunctionAnalyses`] and, where the pass keeps tables, the
//! caller's scratch (see [`OptScratch`]). Both return the number of
//! changes made, and 0 only when the body was left untouched. Passes do
//! not record trace deltas: the driver runs each per-function entry as
//! one `trace::FuncTrace::stage`, which does.
//!
//! ```
//! let mut module = minic::compile(r#"
//!     int main() {
//!         int x = 6 * 7;
//!         return x;
//!     }
//! "#)?;
//! opt::lvn(&mut module);
//! opt::dce(&mut module);
//! opt::clean(&mut module);
//! ir::validate(&module)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod clean;
mod constprop;
mod dce;
mod licm;
mod loadelim;
mod lvn;
mod strengthen;

pub use clean::{clean, clean_function_in, CleanScratch};
pub use constprop::{
    analyze_constants, constprop, constprop_function_in, ConstLattice, ConstScratch, Lat,
};
pub use dce::{dce, dce_function_in, DceScratch};
pub use licm::{licm, licm_function_in, LicmScratch};
pub use loadelim::{loadelim, loadelim_function_in, LoadelimScratch};
pub use lvn::{lvn, lvn_function_in, LvnScratch};
pub use strengthen::{strengthen, strengthen_function};

/// One scratch arena covering every pass in this crate: what a pipeline
/// worker owns (one per thread) and threads through the fused pass chain,
/// so the steady-state hot loop runs without allocating. Each field is the
/// reusable state of one pass's per-function entry point; all of them
/// reset cheaply (epoch bumps and length-resets) at the start of each
/// call.
#[derive(Default)]
pub struct OptScratch {
    /// [`lvn_function_in`] tables.
    pub lvn: LvnScratch,
    /// [`constprop_function_in`] lattice and worklist.
    pub constprop: ConstScratch,
    /// [`loadelim_function_in`] fact maps and worklist.
    pub loadelim: LoadelimScratch,
    /// [`licm_function_in`] hoisting tables.
    pub licm: LicmScratch,
    /// [`dce_function_in`] mark buffers.
    pub dce: DceScratch,
    /// [`clean_function_in`] forwarding table.
    pub clean: CleanScratch,
}
