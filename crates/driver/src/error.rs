//! The driver's unified error type.

use std::fmt;

/// Everything a [`crate::Session`] can fail with, as one typed enum
/// instead of a `Box<dyn Error>`: callers can match on the phase that
/// failed without downcasting.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The MiniC front end rejected the source.
    Front(minic::FrontError),
    /// The pipeline produced IL that fails validation — always a compiler
    /// bug, surfaced as an error (not a panic) so embedding drivers can
    /// report it.
    Validate(ir::ValidateError),
    /// The VM faulted while executing the compiled program.
    Vm(vm::VmError),
    /// The register allocator's file cannot hold the module: it needs at
    /// least two registers, and at least as many as any function needs at
    /// once (its parameters, or the operands of one instruction). Checked
    /// before the pipeline runs.
    Registers {
        /// The configured register count.
        num_regs: usize,
        /// The smallest register count the module allows.
        needed: usize,
        /// The function that sets `needed`, unless it is the two-register
        /// floor.
        func: Option<String>,
    },
    /// The register allocator gave up on a function: it names the
    /// function, the register count and the round bound it reached.
    Alloc(regalloc::NotConverged),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Front(e) => write!(f, "front end: {e}"),
            Error::Validate(e) => write!(f, "invalid IL: {e}"),
            Error::Vm(e) => write!(f, "vm fault: {e}"),
            Error::Registers {
                num_regs,
                needed,
                func,
            } => {
                write!(f, "register allocation needs at least {needed} registers")?;
                if let Some(func) = func {
                    write!(f, " for @{func}")?;
                }
                write!(f, ", got {num_regs}")
            }
            Error::Alloc(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Front(e) => Some(e),
            Error::Validate(e) => Some(e),
            Error::Vm(e) => Some(e),
            Error::Alloc(e) => Some(e),
            Error::Registers { .. } => None,
        }
    }
}

impl From<minic::FrontError> for Error {
    fn from(e: minic::FrontError) -> Self {
        Error::Front(e)
    }
}

impl From<ir::ValidateError> for Error {
    fn from(e: ir::ValidateError) -> Self {
        Error::Validate(e)
    }
}

impl From<regalloc::NotConverged> for Error {
    fn from(e: regalloc::NotConverged) -> Self {
        Error::Alloc(e)
    }
}

impl From<vm::VmError> for Error {
    fn from(e: vm::VmError) -> Self {
        Error::Vm(e)
    }
}
