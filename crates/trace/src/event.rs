//! The event vocabulary: remarks, block reasons, and per-pass deltas.

use std::fmt;

/// A loop, identified the way the paper's figures identify one: by the
/// block id of its header plus its nesting depth (outermost = 1).
///
/// Block ids are stable across worker counts (the pipeline is
/// bit-deterministic), so a `LoopRef` is a stable coordinate for
/// cross-run comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LoopRef {
    /// Block id of the loop header.
    pub header: u32,
    /// Nesting depth; outermost loops are depth 1.
    pub depth: u32,
}

impl fmt::Display for LoopRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loop@B{} (depth {})", self.header, self.depth)
    }
}

/// Why a promotion candidate was rejected — the `L_AMBIGUOUS` membership
/// of Figure 1, decomposed into its concrete causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// A pointer-based reference in the loop may touch the tag along with
    /// others (its tag set is not a provable singleton cell).
    AmbiguousRef,
    /// The only ambiguous references are singleton pointer accesses that
    /// fail the unique-cell test for a storage reason: the tag names an
    /// aggregate, a heap site, or another function's local.
    AddressTaken,
    /// A call in the loop mods or refs the tag (interprocedural MOD/REF).
    CallModRef,
    /// The tag is a local of a function on a call-graph cycle: one tag
    /// names a cell per live activation, so no single register can hold it.
    RecursionFlag,
}

impl BlockReason {
    /// Stable serialization label.
    pub fn label(self) -> &'static str {
        match self {
            BlockReason::AmbiguousRef => "ambiguous-ref",
            BlockReason::AddressTaken => "address-taken",
            BlockReason::CallModRef => "call-mod-ref",
            BlockReason::RecursionFlag => "recursion-flag",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(s: &str) -> Option<BlockReason> {
        Some(match s {
            "ambiguous-ref" => BlockReason::AmbiguousRef,
            "address-taken" => BlockReason::AddressTaken,
            "call-mod-ref" => BlockReason::CallModRef,
            "recursion-flag" => BlockReason::RecursionFlag,
            _ => return None,
        })
    }
}

impl fmt::Display for BlockReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured observation from one pass.
#[derive(Debug, Clone, PartialEq)]
pub enum Remark {
    /// A tag was promoted to a register for the extent of a loop.
    Promoted {
        /// Tag name (tag names are unique per module).
        tag: String,
        /// The loop in which references were rewritten to copies.
        in_loop: LoopRef,
        /// Header block id of the loop at which the lift (the
        /// load-before/store-after pair) was placed — the outermost
        /// enclosing loop where the tag is still promotable, per
        /// equation (4).
        lifted_from: u32,
    },
    /// A tag was referenced explicitly in a loop but stayed in memory.
    Blocked {
        /// Tag name.
        tag: String,
        /// The loop in which the candidate was rejected.
        in_loop: LoopRef,
        /// Why `L_AMBIGUOUS` claimed it.
        reason: BlockReason,
    },
    /// A loop-invariant pointer cell (§3.3) was promoted.
    PointerPromoted {
        /// The loop-invariant base register of the promoted accesses.
        base_reg: u32,
        /// The loop for whose extent the cell is register-resident.
        in_loop: LoopRef,
    },
    /// The allocator spilled a virtual register to memory.
    Spilled {
        /// The spilled virtual register.
        reg: u32,
        /// Which simplify/select round demanded the spill.
        round: usize,
    },
}

/// One event attributed to a pass: a [`Remark`] or a delta counter.
#[derive(Debug, Clone, PartialEq)]
pub enum PassEvent {
    /// A structured remark.
    Remark {
        /// Pass label (`promote`, `regalloc`, ...).
        pass: &'static str,
        /// The observation.
        remark: Remark,
    },
    /// What a pass did to the static shape of the function, as
    /// before-minus-after counts. Negative values mean the pass *inserted*
    /// (spill code, lift code).
    Delta {
        /// Pass label.
        pass: &'static str,
        /// Instructions removed.
        instrs_removed: i64,
        /// Static load operations removed (`sload`/`cload`/`load`).
        loads_removed: i64,
        /// Static store operations removed (`sstore`/`store`).
        stores_removed: i64,
    },
}

impl PassEvent {
    /// The pass that emitted this event.
    pub fn pass(&self) -> &'static str {
        match self {
            PassEvent::Remark { pass, .. } | PassEvent::Delta { pass, .. } => pass,
        }
    }
}

/// A [`PassEvent`] attributed to the function it happened in — the unit a
/// [`crate::TraceLog`] holds and a JSONL line encodes.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Function name (without the `@`).
    pub func: String,
    /// The event.
    pub event: PassEvent,
}

impl TraceRecord {
    /// Renders the record as one LLVM-style remark line (no trailing
    /// newline), e.g.
    /// `remark: @main: promote: 'C' promoted in loop@B1 (depth 1); lifted at B1`.
    pub fn render(&self) -> String {
        let f = &self.func;
        match &self.event {
            PassEvent::Remark { pass, remark } => match remark {
                Remark::Promoted {
                    tag,
                    in_loop,
                    lifted_from,
                } => format!(
                    "remark: @{f}: {pass}: '{tag}' promoted in {in_loop}; lifted at B{lifted_from}"
                ),
                Remark::Blocked {
                    tag,
                    in_loop,
                    reason,
                } => format!("remark: @{f}: {pass}: '{tag}' blocked in {in_loop}: {reason}"),
                Remark::PointerPromoted { base_reg, in_loop } => {
                    format!("remark: @{f}: {pass}: cell [r{base_reg}] promoted in {in_loop}")
                }
                Remark::Spilled { reg, round } => {
                    format!("remark: @{f}: {pass}: r{reg} spilled (round {round})")
                }
            },
            PassEvent::Delta {
                pass,
                instrs_removed,
                loads_removed,
                stores_removed,
            } => format!(
                "remark: @{f}: {pass}: removed {instrs_removed} instrs, \
                 {loads_removed} loads, {stores_removed} stores"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_labels_round_trip() {
        for r in [
            BlockReason::AmbiguousRef,
            BlockReason::AddressTaken,
            BlockReason::CallModRef,
            BlockReason::RecursionFlag,
        ] {
            assert_eq!(BlockReason::from_label(r.label()), Some(r));
        }
        assert_eq!(BlockReason::from_label("nope"), None);
    }

    #[test]
    fn render_is_llvm_style() {
        let rec = TraceRecord {
            func: "main".into(),
            event: PassEvent::Remark {
                pass: "promote",
                remark: Remark::Blocked {
                    tag: "A".into(),
                    in_loop: LoopRef {
                        header: 1,
                        depth: 1,
                    },
                    reason: BlockReason::CallModRef,
                },
            },
        };
        assert_eq!(
            rec.render(),
            "remark: @main: promote: 'A' blocked in loop@B1 (depth 1): call-mod-ref"
        );
    }
}
