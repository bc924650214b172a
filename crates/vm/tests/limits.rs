//! The VM's resource limits fault instead of aborting: a `malloc` it
//! cannot hold, or a print past the output bound, is a
//! [`VmError::OutOfMemory`], and pointer arithmetic wraps like integer
//! arithmetic, so debug and release builds agree.

use vm::{Value, Vm, VmError, VmOptions, MAX_HEAP_CELLS, MAX_OUTPUT_LINES};

fn run(src: &str) -> Result<vm::Outcome, VmError> {
    let m = ir::parse_module(src).expect("parse");
    Vm::run_main(&m, VmOptions::default())
}

/// `main` allocates `sizes` heap objects in order and returns the
/// number of allocations.
fn mallocs(sizes: &[i64]) -> String {
    let mut body = String::new();
    for (i, n) in sizes.iter().enumerate() {
        body.push_str(&format!(
            "  r{} = iconst {n}\n  r{} = alloc r{}, \"heap@0\"\n",
            2 * i,
            2 * i + 1,
            2 * i
        ));
    }
    format!(
        "tag \"heap@0\" heap site=0 size=1\nfunc @main(0) result {{\nB0:\n{body}  \
         r{n} = iconst {count}\n  ret r{n}\n}}\n",
        n = 2 * sizes.len(),
        count = sizes.len()
    )
}

#[test]
fn a_malloc_beyond_the_heap_bound_is_refused() {
    // 2^62 cells: reserving them overflows `Vec`'s capacity, which used
    // to abort the run with "capacity overflow".
    let e = run(&mallocs(&[4_611_686_018_427_387_904])).expect_err("refused");
    assert!(
        matches!(&e, VmError::OutOfMemory(m) if m.contains("4611686018427387904")),
        "{e}"
    );
    let e = run(&mallocs(&[i64::MAX])).expect_err("refused");
    assert!(matches!(e, VmError::OutOfMemory(_)), "{e}");
}

#[test]
fn the_heap_bound_counts_every_live_malloc() {
    let bound = MAX_HEAP_CELLS as i64;
    // Exactly the bound fits, in one object or spread over several.
    let out = run(&mallocs(&[bound - 1, 1])).expect("fits");
    assert_eq!(out.result, Some(Value::Int(2)));
    assert_eq!(out.counts.allocs, 2);
    // One cell more does not, however it is split.
    for sizes in [
        &[bound + 1][..],
        &[bound - 1, 1, 1],
        &[bound / 2, bound / 2, 1],
    ] {
        let e = run(&mallocs(sizes)).expect_err("over the bound");
        assert!(matches!(e, VmError::OutOfMemory(_)), "{sizes:?}: {e}");
    }
    // A zero-cell malloc is always fine, even at the bound.
    run(&mallocs(&[bound, 0])).expect("zero cells fit");
}

/// `main` prints `0` on `lines` lines.
fn prints(lines: u64) -> String {
    format!(
        "func @main(0) {{\nB0:\n  r0 = iconst {lines}\n  r1 = iconst 1\n  r2 = iconst 0\n  \
         jump B1\nB1:\n  call $print_int(r2) mods{{}} refs{{}}\n  r0 = sub r0, r1\n  \
         branch r0, B1, B2\nB2:\n  ret\n}}\n"
    )
}

#[test]
fn the_output_bound_counts_every_printed_line() {
    // Exactly the bound fits...
    let out = run(&prints(MAX_OUTPUT_LINES)).expect("fits");
    assert_eq!(out.output.len() as u64, MAX_OUTPUT_LINES);
    // Free the first run's 0.9 GiB of lines before the second run.
    drop(out);
    // ...and one line more does not.
    let e = run(&prints(MAX_OUTPUT_LINES + 1)).expect_err("over the bound");
    assert!(
        matches!(&e, VmError::OutOfMemory(m) if m.contains(&MAX_OUTPUT_LINES.to_string())),
        "{e}"
    );
}

#[test]
fn pointer_arithmetic_wraps_like_integer_arithmetic() {
    // a + big + big wraps to a - 2 (big = 2^63 - 1), and + 2 lands back
    // on a[0]. A debug build used to panic with "attempt to add with
    // overflow"; both builds now read a[0].
    let out = run(r#"
tag "g:a" global size=4 addressed
global "g:a" zero
func @main(0) result {
B0:
  r0 = lea "g:a"
  r1 = iconst 7
  store r1, [r0] {"g:a"}
  r2 = iconst 9223372036854775807
  r3 = ptradd r0, r2
  r4 = ptradd r3, r2
  r5 = iconst 2
  r6 = ptradd r4, r5
  r7 = load [r6] {"g:a"}
  ret r7
}
"#)
    .expect("runs");
    assert_eq!(out.result, Some(Value::Int(7)));
}

#[test]
fn a_wrapped_pointer_that_misses_faults_on_dereference() {
    let e = run(r#"
tag "g:a" global size=4 addressed
global "g:a" zero
func @main(0) {
B0:
  r0 = lea "g:a"
  r1 = iconst 9223372036854775807
  r2 = ptradd r0, r1
  r3 = ptradd r2, r1
  r4 = load [r3] {"g:a"}
  ret
}
"#)
    .expect_err("a - 2 is out of bounds");
    assert!(
        matches!(&e, VmError::OutOfBounds(m) if m.contains("-2")),
        "{e}"
    );
}
