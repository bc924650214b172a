//! Nesting is bounded by [`minic::MAX_NESTING`]: a program nested to the
//! bound compiles on a 2 MiB thread stack, even in a debug build, and one
//! nested a level deeper is a parse error where the bound is crossed, not
//! a stack overflow.

use minic::{FrontError, Phase, Pos, MAX_NESTING};

/// A way of nesting: its name, the levels the rest of the program opens
/// around the nest, and its source nested `k` deep.
type Shape = (&'static str, usize, fn(usize) -> String);

const SHAPES: [Shape; 10] = [
    ("parens", 2, |k| {
        format!(
            "int main() {{ return {}1{}; }}",
            "(".repeat(k),
            ")".repeat(k)
        )
    }),
    ("blocks", 0, |k| {
        format!(
            "int main() {{ {}{} return 0; }}",
            "{".repeat(k),
            "}".repeat(k)
        )
    }),
    ("ifs", 3, |k| {
        format!(
            "int main() {{ int x = 1; {}x = 2; return x; }}",
            "if (x) ".repeat(k)
        )
    }),
    ("chain", 2, |k| {
        format!("int main() {{ int x = 1; return x{}; }}", "+x".repeat(k))
    }),
    ("prefix", 2, |k| {
        format!("int main() {{ return {}1; }}", "!".repeat(k))
    }),
    ("subscripts", 2, |k| {
        let (open, close) = ("a[".repeat(k), "]".repeat(k));
        format!("int main() {{ int a[2]; a[0] = 0; return {open}0{close}; }}")
    }),
    ("assignments", 3, |k| {
        format!(
            "int main() {{ int x; x{} = 1; return x; }}",
            " = x".repeat(k)
        )
    }),
    // The deep first operand ends up under the whole chain, twice the
    // bound down.
    ("lopsided", 3, |k| {
        let (nots, rest) = ("!".repeat(k), " + x".repeat(k));
        format!("int main() {{ int x = 1; return x + {nots}x{rest}; }}")
    }),
    ("stars", 1, |k| {
        format!("int main() {{ int {}p; return 0; }}", "*".repeat(k))
    }),
    ("dims", 0, |k| {
        format!("int g{}; int main() {{ return 0; }}", "[1]".repeat(k))
    }),
];

/// Compiles `src` on a thread with a 2 MiB stack.
fn compile_on_a_small_stack(src: String) -> Result<(), FrontError> {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || minic::compile(&src).map(drop))
        .expect("spawn")
        .join()
        .expect("the front end does not panic")
}

#[test]
fn a_program_nested_to_the_bound_compiles_and_one_level_more_does_not() {
    let bound = MAX_NESTING as usize;
    for (name, around, shape) in SHAPES {
        let k = bound - around;
        compile_on_a_small_stack(shape(k)).unwrap_or_else(|e| panic!("{name} at the bound: {e}"));
        let e = compile_on_a_small_stack(shape(k + 1)).expect_err(name);
        assert_eq!(e.phase, Phase::Parse, "{name}: {e}");
        assert_eq!(
            e.message,
            format!("nesting deeper than {MAX_NESTING} levels"),
            "{name}"
        );
    }
}

#[test]
fn the_error_points_where_the_bound_is_crossed() {
    // `int main() { return ` fills 20 columns; the parenthesis after the
    // first 126 opens the 129th level, so the error points at the token
    // after it.
    let opened = MAX_NESTING as usize - 2;
    let src = format!(
        "int main() {{ return {}1{}; }}",
        "(".repeat(opened + 1),
        ")".repeat(opened + 1)
    );
    let e = minic::compile(&src).expect_err("one level too deep");
    assert_eq!(
        e.pos,
        Pos {
            line: 1,
            col: 20 + opened as u32 + 2
        }
    );
}
