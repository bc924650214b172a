//! A register file too small for the allocator is a typed
//! [`driver::Error`], reported before the pipeline runs. Below two
//! registers, or below what one function needs at once, the allocator
//! cannot converge: it used to panic, or (with no registers) spill
//! forever.

use driver::{Error, Session};
use regalloc::AllocOptions;
use vm::VmOptions;

const LOOPED: &str = "int g;
int main() { int i; for (i = 0; i < 9; i++) g = g + i; print_int(g); return 0; }";

fn with_regs(num_regs: usize) -> Session {
    Session::builder()
        .threads(Some(1))
        .regalloc(Some(AllocOptions {
            num_regs,
            ..Default::default()
        }))
        .build()
}

fn too_few(num_regs: usize, needed: usize, func: Option<&str>) -> Error {
    Error::Registers {
        num_regs,
        needed,
        func: func.map(str::to_string),
    }
}

#[test]
fn fewer_than_two_registers_is_an_error() {
    for num_regs in [0, 1] {
        let err = with_regs(num_regs).compile(LOOPED).unwrap_err();
        assert_eq!(err, too_few(num_regs, 2, None));
        assert!(err.to_string().contains("at least 2 registers"), "{err}");
    }
}

#[test]
fn fewer_registers_than_a_function_needs_at_once_is_an_error() {
    let session = with_regs(2);
    let three_params = "int f(int a, int b, int c) { return a + b + c; }
int main() { print_int(f(1, 2, 3)); return 0; }";
    let err = session.compile(three_params).unwrap_err();
    assert_eq!(err, too_few(2, 3, Some("f")));
    assert!(err.to_string().contains("3 registers for @f"), "{err}");
    // An indirect call reads its target and both arguments at once.
    let indirect = "int add(int a, int b) { return a + b; }
func op;
int main() { op = add; print_int(op(1, 2)); return 0; }";
    let mut module = minic::compile(indirect).expect("compiles");
    let err = session.optimize(&mut module).unwrap_err();
    assert_eq!(err, too_few(2, 3, Some("main")));
    // The same session still compiles what fits.
    let c = session.compile(LOOPED).expect("two registers suffice");
    assert_eq!(c.run(VmOptions::default()).expect("ran").output, vec!["36"]);
}
