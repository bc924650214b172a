//! The reusable front-end driver.
//!
//! A [`Frontend`] owns every allocation the front end makes — the string
//! interner, the token buffer, the AST pools, and the parser/lowering
//! scratch tables — and recycles them across compiles the same way the
//! pass chain recycles its scratch. The first compile pays to grow the
//! arenas; subsequent compiles of similar programs reuse that capacity
//! and allocate close to nothing in the lex/parse path. [`compile`] keeps
//! one warm front end per thread.

use crate::ast::Program;
use crate::error::FrontError;
use crate::intern::{Interner, Symbol};
use crate::lexer::lex_into;
use crate::lower::{lower_program, LowerScratch};
use crate::parser::{parse_tokens, ParseScratch};
use crate::token::Token;
use ir::{free_parked, park, take, Module};
use std::cell::Cell;

/// The most names a parked front end's interner may hold (it keeps every
/// name it has seen); the benchmark suite, 1,000 generated programs and
/// 300 mutants of them intern fewer than 300.
const MAX_PARKED_NAMES: usize = 1 << 16;

thread_local! {
    static FRONTEND: Cell<Option<Frontend>> = const { Cell::new(None) };
}

/// A reusable MiniC front end: interner + token buffer + AST pools +
/// scratch tables, recycled across [`Frontend::compile`] calls.
#[derive(Debug)]
pub struct Frontend {
    interner: Interner,
    tokens: Vec<Token>,
    program: Program,
    parse_scratch: ParseScratch,
    lower_scratch: LowerScratch,
    malloc: Symbol,
}

impl Frontend {
    /// Creates an empty front end.
    #[must_use]
    pub fn new() -> Self {
        let mut interner = Interner::new();
        // Pre-intern `malloc` so the parser can recognize the builtin by
        // symbol comparison instead of a string compare per call site.
        let malloc = interner.intern("malloc");
        Frontend {
            interner,
            tokens: Vec::new(),
            program: Program::default(),
            parse_scratch: ParseScratch::default(),
            lower_scratch: LowerScratch::default(),
            malloc,
        }
    }

    /// Tokenizes `src` into the internal buffer (cleared first).
    ///
    /// # Errors
    ///
    /// Returns the first lex error.
    pub fn lex(&mut self, src: &str) -> Result<(), FrontError> {
        lex_into(src, &mut self.interner, &mut self.tokens)
    }

    /// Parses already-lexed tokens into the internal [`Program`]
    /// (pools are recycled, not reallocated).
    ///
    /// # Errors
    ///
    /// Returns the first parse error.
    pub fn parse_lexed(&mut self) -> Result<(), FrontError> {
        parse_tokens(
            &self.tokens,
            &self.interner,
            self.malloc,
            &mut self.program,
            &mut self.parse_scratch,
        )
    }

    /// Lexes and parses `src`.
    ///
    /// # Errors
    ///
    /// Returns the first lex or parse error.
    pub fn parse(&mut self, src: &str) -> Result<(), FrontError> {
        self.lex(src)?;
        self.parse_lexed()
    }

    /// Lowers the currently parsed program to an IL module.
    ///
    /// # Errors
    ///
    /// Returns the first semantic error.
    pub fn lower_parsed(&mut self) -> Result<Module, FrontError> {
        lower_program(&self.program, &self.interner, &mut self.lower_scratch)
    }

    /// Compiles `src` end to end (lex + parse + lower), reusing every
    /// internal buffer.
    ///
    /// # Errors
    ///
    /// Returns the first front-end error.
    pub fn compile(&mut self, src: &str) -> Result<Module, FrontError> {
        self.parse(src)?;
        self.lower_parsed()
    }

    /// The tokens from the most recent [`Frontend::lex`].
    #[must_use]
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// The program from the most recent [`Frontend::parse`].
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The interner accumulated over all compiles so far.
    #[must_use]
    pub fn interner(&self) -> &Interner {
        &self.interner
    }
}

impl Default for Frontend {
    fn default() -> Self {
        Frontend::new()
    }
}

/// Compiles MiniC source to an IL module on the thread's warm
/// [`Frontend`], so repeated calls on one thread recycle its arenas and
/// tables.
///
/// # Errors
///
/// Returns the first front-end error.
pub fn compile(src: &str) -> Result<Module, FrontError> {
    let mut fe = take(&FRONTEND);
    let module = fe.compile(src);
    park_frontend(fe);
    module
}

/// Frees the front end [`compile`] keeps on this thread; the next call
/// starts from a new one.
pub fn free_parked_frontend() {
    free_parked(&FRONTEND);
}

/// Parks `fe` for the next [`compile`] unless it is over the name cap.
fn park_frontend(fe: Frontend) {
    if fe.interner.len() <= MAX_PARKED_NAMES {
        park(&FRONTEND, fe, |fe| fe.interner.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_smoke() {
        let m = compile("int main() { return 40 + 2; }").unwrap();
        assert_eq!(m.funcs.len(), 1);
        assert_eq!(m.funcs[0].name, "main");
    }

    #[test]
    fn frontend_recycles_across_compiles() {
        let mut fe = Frontend::new();
        let a = fe.compile("int main() { return 1; }").unwrap();
        let b = fe.compile("int main() { return 1; }").unwrap();
        assert_eq!(ir::module_to_string(&a), ir::module_to_string(&b));
        // The interner keeps names across compiles; the pools are recycled.
        assert!(fe.interner().lookup("main").is_some());
    }

    #[test]
    fn warm_compile_reuses_interner_symbols() {
        let mut fe = Frontend::new();
        fe.parse("int alpha() { return 0; }").unwrap();
        let n = fe.interner().len();
        fe.parse("int alpha() { return 0; }").unwrap();
        assert_eq!(fe.interner().len(), n, "warm parse interned new names");
    }

    #[test]
    fn compile_reuses_the_threads_front_end() {
        compile("int alpha() { return 0; } int main() { return alpha(); }").unwrap();
        compile("int main() { return 0; }").unwrap();
        let parked = take(&FRONTEND);
        assert!(parked.interner().lookup("alpha").is_some());
        park_frontend(parked);
        free_parked_frontend();
        assert!(take(&FRONTEND).interner().lookup("alpha").is_none());
    }

    #[test]
    fn a_front_end_over_the_name_cap_is_freed_instead_of_parked() {
        for over in [false, true] {
            let mut fe = Frontend::new(); // `malloc` is its first name
            for i in 1..MAX_PARKED_NAMES + usize::from(over) {
                fe.interner.intern(&format!("n{i}"));
            }
            park_frontend(fe);
            let kept = take(&FRONTEND).interner().lookup("n1").is_some();
            assert_eq!(kept, !over, "over the cap: {over}");
        }
    }

    #[test]
    fn errors_reported_per_phase() {
        let mut fe = Frontend::new();
        assert!(fe.compile("int main() { return $; }").is_err());
        // The frontend stays usable after an error.
        assert!(fe.compile("int main() { return 0; }").is_ok());
    }
}
