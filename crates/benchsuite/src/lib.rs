//! The 14-program benchmark suite of the paper's evaluation (its Figure 4),
//! re-created in MiniC.
//!
//! The paper compiled 14 C programs; we cannot ship those sources, so each
//! entry here is a MiniC program **named after and modeled on** the
//! original, engineered to exhibit the phenomenon the paper reports for
//! it (see each module's documentation and `DESIGN.md` §3). The
//! benchmarks are deterministic — every program prints a checksum-style
//! output that must be identical across all compiler configurations.
//!
//! ```
//! let bench = benchsuite::find("mlink").expect("mlink exists");
//! let module = minic::compile(bench.source)?;
//! assert!(module.main().is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod programs {
    pub mod allroots;
    pub mod bc;
    pub mod bison;
    pub mod clean;
    pub mod compress;
    pub mod dhrystone;
    pub mod fft;
    pub mod go;
    pub mod gzip_dec;
    pub mod gzip_enc;
    pub mod indent;
    pub mod mlink;
    pub mod tsp;
    pub mod water;
}

/// One benchmark program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Benchmark {
    /// Short name, matching the paper's figures (e.g. `"mlink"`).
    pub name: &'static str,
    /// The paper's one-line description (its Figure 4).
    pub description: &'static str,
    /// What the paper measured for this program, i.e. the shape this
    /// model is engineered to reproduce.
    pub paper_expectation: &'static str,
    /// MiniC source text.
    pub source: &'static str,
}

/// The full suite in the paper's presentation order.
pub const SUITE: &[Benchmark] = &[
    Benchmark {
        name: "tsp",
        description: "a traveling salesman problem",
        paper_expectation: "0.00% everywhere: hot state is unaliased locals and arrays",
        source: programs::tsp::SRC,
    },
    Benchmark {
        name: "mlink",
        description: "medical genetics linkage analysis",
        paper_expectation: "the headline win: ~57% of stores and ~23% of loads removed, \
                            no pointer analysis needed",
        source: programs::mlink::SRC,
    },
    Benchmark {
        name: "fft",
        description: "fast Fourier transform",
        paper_expectation: "small overall; promotion of T1 requires pointer analysis; the \
                            one visible pointer-based-promotion success",
        source: programs::fft::SRC,
    },
    Benchmark {
        name: "clean",
        description: "a game program from the SPEC benchmarks",
        paper_expectation: "~3.3% of stores removed under both analyses",
        source: programs::clean::SRC,
    },
    Benchmark {
        name: "compress",
        description: "file compression program",
        paper_expectation: "moderate win in per-symbol statistics traffic",
        source: programs::compress::SRC,
    },
    Benchmark {
        name: "go",
        description: "game program from SPEC benchmarks",
        paper_expectation: "~15% of loads removed; equal under both analyses",
        source: programs::go::SRC,
    },
    Benchmark {
        name: "dhrystone",
        description: "the classic synthetic benchmark",
        paper_expectation: "flat loads/stores; slight total-op degradation from promoting \
                            in a loop that always executes once",
        source: programs::dhrystone::SRC,
    },
    Benchmark {
        name: "water",
        description: "molecular dynamics from SPEC (SPLASH)",
        paper_expectation: "28 values promoted in one nest; spills give the savings back",
        source: programs::water::SRC,
    },
    Benchmark {
        name: "indent",
        description: "prettyprinter for C programs",
        paper_expectation: "~4% of stores removed, identical under both analyses",
        source: programs::indent::SRC,
    },
    Benchmark {
        name: "allroots",
        description: "polynomial root-finder",
        paper_expectation: "nothing to promote: 11 stores in the whole run",
        source: programs::allroots::SRC,
    },
    Benchmark {
        name: "bc",
        description: "calculator language from GNU",
        paper_expectation: "8.8% of stores removed under MOD/REF vs 27.5% under pointer \
                            analysis (function-pointer dispatch resolution)",
        source: programs::bc::SRC,
    },
    Benchmark {
        name: "bison",
        description: "LR(1) parser generator",
        paper_expectation: "flat (±0.04%); promotes values only accessed on an error path",
        source: programs::bison::SRC,
    },
    Benchmark {
        name: "gzip_enc",
        description: "gzip compression",
        paper_expectation: "1.75% (modref) vs 2.15% (pointer) of total ops removed",
        source: programs::gzip_enc::SRC,
    },
    Benchmark {
        name: "gzip_dec",
        description: "gzip decompression",
        paper_expectation: "≈ flat, slightly negative total ops; small load win",
        source: programs::gzip_dec::SRC,
    },
];

/// Looks a benchmark up by name.
pub fn find(name: &str) -> Option<&'static Benchmark> {
    SUITE.iter().find(|b| b.name == name)
}

/// A two-version program for the warm-edit (incremental recompilation)
/// benchmark: `edited` differs from `base` in exactly one function body,
/// with every signature, global, and MOD/REF summary unchanged — the
/// canonical "developer tweaks one function and recompiles" scenario.
/// Kept separate from [`SUITE`] so the paper's 14-program figure stays
/// exactly 14 entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmEditPair {
    /// The suite program the pair is based on.
    pub name: &'static str,
    /// The unedited source, identical to the suite entry.
    pub base: &'static str,
    /// The edited source: one function body changed.
    pub edited: String,
}

/// Builds the warm-edit scenario: `compress` with the byte-skew
/// constants of `next_byte` changed. The edit alters only that
/// function's arithmetic — `next_byte` still touches exactly the same
/// globals — so an incremental compiler should recompile `next_byte`
/// alone and splice every other function from its cache.
pub fn warm_edit_pair() -> WarmEditPair {
    let base = find("compress").expect("compress is in the suite").source;
    let needle = "if (b > 128) b = b % 32;";
    assert!(base.contains(needle), "compress lost its skew line");
    WarmEditPair {
        name: "compress",
        base,
        edited: base.replace(needle, "if (b > 120) b = b % 64;"),
    }
}

/// Ten sources the front end must reject, one per front-end phase and
/// error kind: lex, parse and semantic errors. The root package's
/// `tests/frontend_digest.rs` pins each one's diagnostic, and the
/// driver's `tests/session_recovery.rs` checks that a session compiles
/// as a fresh one would after rejecting each.
pub const MALFORMED: [&str; 10] = [
    "int main() { return 1e; }",
    "int main() { int x = 99999999999999999999; }",
    "int main() { @ }",
    "int main() { /* never closed",
    "int main() { int x; x = y; return 0; }",
    "int main() { return \"no strings\"; }",
    "int x; int x; int main() { return 0; }",
    "void f() {} int main() { return f(); }",
    "int main() { break; }",
    "int main() { 1 = 2; return 0; }",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_the_papers_fourteen_programs() {
        assert_eq!(SUITE.len(), 14);
        let mut names: Vec<_> = SUITE.iter().map(|b| b.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 14, "names are unique");
        assert!(find("mlink").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn every_program_compiles() {
        for b in SUITE {
            let module = minic::compile(b.source)
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", b.name));
            ir::validate(&module).unwrap_or_else(|e| panic!("{}: invalid IL: {e}", b.name));
            assert!(module.main().is_some(), "{} has a main", b.name);
        }
    }

    #[test]
    fn warm_edit_pair_is_a_single_function_edit() {
        let pair = warm_edit_pair();
        assert_ne!(pair.base, pair.edited, "the edit changes the text");
        let [base, edited] =
            [("base", pair.base), ("edited", pair.edited.as_str())].map(|(label, src)| {
                let module = minic::compile(src).unwrap_or_else(|e| panic!("{label}: {e}"));
                ir::validate(&module).unwrap_or_else(|e| panic!("{label}: invalid IL: {e}"));
                let out = vm::Vm::run_main(&module, vm::VmOptions::default())
                    .unwrap_or_else(|e| panic!("{label} failed to run: {e}"));
                assert_eq!(out.exit_code, 0, "{label} exits cleanly");
                module
            });
        // Same functions, signatures and globals: the edit lives inside
        // one body, and only that body's canonical hash moves.
        let shape = |m: &ir::Module| {
            let funcs: Vec<(String, usize)> =
                m.funcs.iter().map(|f| (f.name.clone(), f.arity)).collect();
            let globals: Vec<(String, usize)> = m
                .tags
                .iter()
                .filter(|(_, t)| t.kind == ir::TagKind::Global)
                .map(|(_, t)| (t.name.clone(), t.size))
                .collect();
            (funcs, globals)
        };
        assert_eq!(
            shape(&base),
            shape(&edited),
            "no function or global changed"
        );
        let changed: Vec<&str> = base
            .funcs
            .iter()
            .zip(&edited.funcs)
            .filter(|(b, e)| ir::hash::body_hash(&base, b) != ir::hash::body_hash(&edited, e))
            .map(|(b, _)| b.name.as_str())
            .collect();
        assert_eq!(changed, ["next_byte"], "exactly one body changed");
    }

    #[test]
    fn every_program_runs_and_prints() {
        for b in SUITE {
            let module = minic::compile(b.source).expect(b.name);
            let out = vm::Vm::run_main(&module, vm::VmOptions::default())
                .unwrap_or_else(|e| panic!("{} failed to run: {e}", b.name));
            assert!(!out.output.is_empty(), "{} prints a checksum", b.name);
            assert_eq!(out.exit_code, 0, "{} exits cleanly", b.name);
        }
    }
}
