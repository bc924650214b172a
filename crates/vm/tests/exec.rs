//! Execution tests for the IL interpreter.

use vm::{Value, Vm, VmError, VmOptions};

fn run(src: &str) -> vm::Outcome {
    let module = ir::parse_module(src).expect("parse");
    ir::validate(&module).expect("valid");
    Vm::run_main(&module, VmOptions::default()).expect("run")
}

fn run_err(src: &str) -> VmError {
    let module = ir::parse_module(src).expect("parse");
    Vm::run_main(&module, VmOptions::default()).expect_err("should fail")
}

#[test]
fn arithmetic_and_output() {
    let out = run(r#"
func @main(0) result {
B0:
  r0 = iconst 7
  r1 = iconst 3
  r2 = mul r0, r1
  r3 = sub r2, r1
  r4 = rem r3, r0
  call $print_int(r4) mods{} refs{}
  ret r4
}
"#);
    assert_eq!(out.output, vec!["4"]); // (7*3-3) % 7 = 18 % 7 = 4
    assert_eq!(out.exit_code, 4);
}

#[test]
fn float_arithmetic() {
    let out = run(r#"
func @main(0) {
B0:
  r0 = fconst 2.0
  r1 = fconst 0.5
  r2 = div r0, r1
  r3 = call $sqrt(r2) mods{} refs{}
  call $print_float(r3) mods{} refs{}
  ret
}
"#);
    assert_eq!(out.output, vec!["2.000000"]);
}

#[test]
fn loop_counts_operations() {
    // 10-iteration countdown: per iteration 1 sub + 1 branch; plus setup.
    let out = run(r#"
func @main(0) {
B0:
  r0 = iconst 10
  r1 = iconst 1
  jump B1
B1:
  r0 = sub r0, r1
  branch r0, B1, B2
B2:
  ret
}
"#);
    // 2 iconst + 1 jump + 10*(sub+branch) + ret = 24
    assert_eq!(out.counts.total, 24);
    assert_eq!(out.counts.loads, 0);
    assert_eq!(out.counts.control, 12);
    assert_eq!(out.counts.arith, 12);
}

#[test]
fn memory_classes_are_counted_separately() {
    let out = run(r#"
tag "g:x" global size=1 addressed
global "g:x" ints 5
func @main(0) {
B0:
  r0 = sload "g:x"
  r1 = lea "g:x"
  r2 = load [r1] {"g:x"}
  store r2, [r1] {"g:x"}
  sstore r0, "g:x"
  ret
}
"#);
    assert_eq!(out.counts.scalar_loads, 1);
    assert_eq!(out.counts.ptr_loads, 1);
    assert_eq!(out.counts.scalar_stores, 1);
    assert_eq!(out.counts.ptr_stores, 1);
    assert_eq!(out.counts.loads, 2);
    assert_eq!(out.counts.stores, 2);
}

#[test]
fn calls_and_recursion() {
    let out = run(r#"
func @fib(1) result {
B0:
  r1 = iconst 2
  r2 = cmplt r0, r1
  branch r2, B1, B2
B1:
  ret r0
B2:
  r3 = iconst 1
  r4 = sub r0, r3
  r5 = call @fib(r4) mods{} refs{}
  r6 = iconst 2
  r7 = sub r0, r6
  r8 = call @fib(r7) mods{} refs{}
  r9 = add r5, r8
  ret r9
}
func @main(0) result {
B0:
  r0 = iconst 12
  r1 = call @fib(r0) mods{} refs{}
  call $print_int(r1) mods{} refs{}
  ret r1
}
"#);
    assert_eq!(out.output, vec!["144"]);
    assert!(out.counts.calls > 100);
}

#[test]
fn recursion_with_addressed_locals_gets_fresh_storage() {
    // Each activation of @f has its own local cell even though one tag
    // names them all.
    let out = run(r#"
tag "f.x" local owner=0 size=1 addressed
func @f(1) result {
B0:
  sstore r0, "f.x"
  branch r0, B1, B2
B1:
  r1 = iconst 1
  r2 = sub r0, r1
  r3 = call @f(r2) mods{"f.x"} refs{"f.x"}
  r4 = sload "f.x"
  r5 = add r3, r4
  ret r5
B2:
  r6 = sload "f.x"
  ret r6
}
func @main(0) result {
B0:
  r0 = iconst 4
  r1 = call @f(r0) mods{"f.x"} refs{"f.x"}
  call $print_int(r1) mods{} refs{}
  ret r1
}
"#);
    // 4+3+2+1+0 = 10; a single shared cell would give a different sum.
    assert_eq!(out.output, vec!["10"]);
}

#[test]
fn heap_allocation_and_pointer_arithmetic() {
    let out = run(r#"
tag "heap@0" heap site=0 size=1
func @main(0) result {
B0:
  r0 = iconst 8
  r1 = alloc r0, "heap@0"
  r2 = iconst 3
  r3 = ptradd r1, r2
  r4 = iconst 99
  store r4, [r3] {"heap@0"}
  r5 = load [r3] {"heap@0"}
  ret r5
}
"#);
    assert_eq!(out.exit_code, 99);
    assert_eq!(out.counts.allocs, 1);
}

#[test]
fn global_arrays_initialize() {
    let out = run(r#"
tag "g:a" global size=4 addressed
global "g:a" ints 10 20 30 40
func @main(0) result {
B0:
  r0 = lea "g:a"
  r1 = iconst 2
  r2 = ptradd r0, r1
  r3 = load [r2] {"g:a"}
  ret r3
}
"#);
    assert_eq!(out.exit_code, 30);
}

#[test]
fn phi_execution() {
    let out = run(r#"
func @main(0) result {
B0:
  r0 = iconst 0
  branch r0, B1, B2
B1:
  r1 = iconst 111
  jump B3
B2:
  r2 = iconst 222
  jump B3
B3:
  r3 = phi [B1: r1, B2: r2]
  ret r3
}
"#);
    assert_eq!(out.exit_code, 222);
}

#[test]
fn function_pointers() {
    let out = run(r#"
func @double(1) result {
B0:
  r1 = iconst 2
  r2 = mul r0, r1
  ret r2
}
func @main(0) result {
B0:
  r0 = funcaddr @double
  r1 = iconst 21
  r2 = call *r0(r1) mods{} refs{}
  ret r2
}
"#);
    assert_eq!(out.exit_code, 42);
}

#[test]
fn void_callee_leaves_an_indirect_result_uninit() {
    // The front end gives every indirect call a result register. A void
    // callee leaves it uninitialized: the call itself runs...
    let bump = r#"
tag "g:g" global size=1
global "g:g" zero
func @bump(0) {
B0:
  r0 = sload "g:g"
  r1 = iconst 1
  r2 = add r0, r1
  sstore r2, "g:g"
  ret
}
"#;
    let out = run(&format!(
        r#"{bump}
func @main(0) result {{
B0:
  r0 = funcaddr @bump
  r1 = call *r0() mods{{}} refs{{}}
  r2 = sload "g:g"
  ret r2
}}
"#
    ));
    assert_eq!(out.exit_code, 1);
    // ...and only a computation on the missing result faults.
    let e = run_err(&format!(
        r#"{bump}
func @main(0) result {{
B0:
  r0 = funcaddr @bump
  r1 = call *r0() mods{{}} refs{{}}
  r2 = iconst 1
  r3 = add r1, r2
  ret r3
}}
"#
    ));
    assert_eq!(e, VmError::TypeError("add on uninit and int".into()));
}

#[test]
fn exit_intrinsic_stops_early() {
    let out = run(r#"
func @main(0) {
B0:
  r0 = iconst 5
  call $exit(r0) mods{} refs{}
  r1 = iconst 0
  call $print_int(r1) mods{} refs{}
  ret
}
"#);
    assert_eq!(out.exit_code, 5);
    assert!(out.output.is_empty());
}

#[test]
fn division_by_zero_is_an_error() {
    let e = run_err(
        r#"
func @main(0) {
B0:
  r0 = iconst 1
  r1 = iconst 0
  r2 = div r0, r1
  ret
}
"#,
    );
    assert_eq!(e, VmError::DivisionByZero);
}

#[test]
fn out_of_bounds_is_an_error() {
    let e = run_err(
        r#"
tag "g:a" global size=2 addressed
global "g:a" zero
func @main(0) {
B0:
  r0 = lea "g:a"
  r1 = iconst 5
  r2 = ptradd r0, r1
  r3 = load [r2] {"g:a"}
  ret
}
"#,
    );
    assert!(matches!(e, VmError::OutOfBounds(_)));
}

#[test]
fn use_after_return_is_detected() {
    // @leak returns the address of its own local.
    let e = run_err(
        r#"
tag "leak.x" local owner=0 size=1 addressed
func @leak(0) result {
B0:
  r0 = lea "leak.x"
  ret r0
}
func @main(0) {
B0:
  r0 = call @leak() mods{} refs{}
  r1 = load [r0] {"leak.x"}
  ret
}
"#,
    );
    assert_eq!(e, VmError::UseAfterFree);
}

#[test]
fn uninit_memory_may_be_moved_but_not_computed() {
    // Promotion-style load/store of never-written memory is fine...
    let ok = run(r#"
tag "g:x" global size=1
tag "g:y" global size=1
global "g:x" zero
global "g:y" zero
func @main(0) {
B0:
  r0 = sload "g:x"
  sstore r0, "g:y"
  ret
}
"#);
    assert_eq!(ok.counts.loads, 1);
    // ...but arithmetic on an uninitialized *register* is a type error.
    let e = run_err(
        r#"
func @main(0) result {
B0:
  r1 = iconst 1
  r2 = add r0, r1
  ret r2
}
"#,
    );
    assert!(matches!(e, VmError::TypeError(_)));
}

#[test]
fn step_limit_enforced() {
    let module = ir::parse_module(
        r#"
func @main(0) {
B0:
  jump B1
B1:
  jump B1
}
"#,
    )
    .unwrap();
    let e = Vm::run_main(
        &module,
        VmOptions {
            max_steps: 100,
            ..Default::default()
        },
    )
    .expect_err("infinite loop");
    assert_eq!(e, VmError::StepLimit(100));
}

#[test]
fn stack_overflow_enforced() {
    let module = ir::parse_module(
        r#"
func @main(0) {
B0:
  call @main() mods{} refs{}
  ret
}
"#,
    )
    .unwrap();
    let e = Vm::run_main(
        &module,
        VmOptions {
            max_depth: 50,
            ..Default::default()
        },
    )
    .expect_err("unbounded recursion");
    assert_eq!(e, VmError::StackOverflow(50));
}

#[test]
fn run_entry_with_arguments() {
    let module = ir::parse_module(
        r#"
func @add(2) result {
B0:
  r2 = add r0, r1
  ret r2
}
"#,
    )
    .unwrap();
    let f = module.lookup_func("add").unwrap();
    let out = Vm::run(
        &module,
        f,
        &[Value::Int(40), Value::Int(2)],
        VmOptions::default(),
    )
    .expect("run");
    assert_eq!(out.result, Some(Value::Int(42)));
}

#[test]
fn nops_and_phis_are_free() {
    let out = run(r#"
func @main(0) {
B0:
  nop
  nop
  ret
}
"#);
    assert_eq!(out.counts.total, 1); // just the ret
}

/// Runs `src` with a step budget of `max_steps`.
fn run_with_budget(src: &str, max_steps: u64) -> Result<vm::Outcome, VmError> {
    let module = ir::parse_module(src).expect("parse");
    Vm::run_main(
        &module,
        VmOptions {
            max_steps,
            ..Default::default()
        },
    )
}

const CALL_LOOP: &str = r#"
tag "g:n" global size=1
global "g:n" ints 0
func @bump(0) {
B0:
  r0 = sload "g:n"
  r1 = iconst 1
  r2 = add r0, r1
  sstore r2, "g:n"
  ret
}
func @main(0) result {
B0:
  r0 = iconst 5
  r1 = iconst 1
  jump B1
B1:
  call @bump() mods{"g:n"} refs{"g:n"}
  r0 = sub r0, r1
  branch r0, B1, B2
B2:
  r2 = sload "g:n"
  ret r2
}
"#;

#[test]
fn step_limit_strikes_exactly_at_the_budget() {
    let full = run_with_budget(CALL_LOOP, u64::MAX).expect("run");
    assert_eq!(full.exit_code, 5);
    // 3 + 5 * (call + 5 in @bump + sub + branch) + 2
    assert_eq!(full.counts.total, 45);
    // Every budget from the exact count up succeeds with the same counts;
    // every smaller one stops, wherever inside a segment it falls.
    assert_eq!(run_with_budget(CALL_LOOP, 45), Ok(full.clone()));
    for budget in 0..45 {
        assert_eq!(
            run_with_budget(CALL_LOOP, budget),
            Err(VmError::StepLimit(budget)),
            "budget {budget}"
        );
    }
}

#[test]
fn a_trap_before_the_budget_runs_out_wins() {
    // The division is the 3rd operation.
    let src = r#"
func @main(0) {
B0:
  r0 = iconst 1
  r1 = iconst 0
  r2 = div r0, r1
  r3 = iconst 2
  ret
}
"#;
    assert_eq!(run_with_budget(src, 2), Err(VmError::StepLimit(2)));
    assert_eq!(run_with_budget(src, 3), Err(VmError::DivisionByZero));
    assert_eq!(run_with_budget(src, 100), Err(VmError::DivisionByZero));
    // The same through a fused `iconst`+`div`: a budget that ends
    // between the two runs out before the division.
    let fused_div = r#"
func @main(0) {
B0:
  r0 = iconst 1
  r1 = iconst 0
  r1 = div r0, r1
  ret
}
"#;
    assert_eq!(run_with_budget(fused_div, 2), Err(VmError::StepLimit(2)));
    assert_eq!(run_with_budget(fused_div, 3), Err(VmError::DivisionByZero));
    // A fused `ptradd`+`load` through a non-pointer faults in its first
    // half, which a budget ending before the load still runs.
    let fused_load = r#"
tag "g:x" global size=1 addressed
global "g:x" ints 0
func @main(0) {
B0:
  r0 = iconst 1
  r1 = iconst 0
  r2 = ptradd r0, r1
  r3 = load [r2] {"g:x"}
  ret
}
"#;
    let not_a_pointer = VmError::BadAddress("expected pointer, got int".into());
    assert_eq!(run_with_budget(fused_load, 2), Err(VmError::StepLimit(2)));
    assert_eq!(run_with_budget(fused_load, 3), Err(not_a_pointer.clone()));
    assert_eq!(run_with_budget(fused_load, 4), Err(not_a_pointer));
}

/// Sums `g:a` in a loop whose header is `iconst; cmplt; branch` and
/// whose body holds `ptradd; load` and `iconst; add`: every pair the
/// decoder fuses.
const FUSED_LOOP: &str = r#"
tag "g:a" global size=4 addressed
global "g:a" ints 1 2 3 4
func @main(0) result {
B0:
  r0 = iconst 0
  r1 = iconst 0
  r2 = lea "g:a"
  jump B1
B1:
  r3 = iconst 4
  r3 = cmplt r0, r3
  branch r3, B2, B3
B2:
  r4 = ptradd r2, r0
  r5 = load [r4] {"g:a"}
  r1 = add r1, r5
  r6 = iconst 1
  r0 = add r0, r6
  jump B1
B3:
  ret r1
}
"#;

#[test]
fn step_limit_strikes_exactly_inside_fused_ops() {
    let full = run_with_budget(FUSED_LOOP, u64::MAX).expect("run");
    assert_eq!(full.exit_code, 10);
    // 4 + 5 * (iconst, cmplt, branch) + 4 * (ptradd, load, add, iconst,
    // add, jump) + ret
    assert_eq!(full.counts.total, 44);
    assert_eq!(full.counts.ptr_loads, 4);
    assert_eq!(full.counts.control, 1 + 5 + 4 + 1);
    assert_eq!(full.counts.arith, 3 + 5 * 2 + 4 * 4);
    assert_eq!(run_with_budget(FUSED_LOOP, 44), Ok(full));
    for budget in 0..44 {
        assert_eq!(
            run_with_budget(FUSED_LOOP, budget),
            Err(VmError::StepLimit(budget)),
            "budget {budget}"
        );
    }
}

#[test]
fn a_fused_compare_keeps_the_unfused_type_error() {
    // `r1 = iconst 2` right before the compare reading it fuses with it
    // (and with the branch); two ops apart, it does not.
    let fused_src = r#"
func @main(0) result {
B0:
  r0 = fconst 1.5
  r1 = iconst 2
  r1 = cmplt r0, r1
  branch r1, B1, B1
B1:
  ret r1
}
"#;
    let fused = run_err(fused_src);
    let unfused = run_err(
        r#"
func @main(0) result {
B0:
  r1 = iconst 2
  r0 = fconst 1.5
  r1 = cmplt r0, r1
  branch r1, B1, B1
B1:
  ret r1
}
"#,
    );
    assert_eq!(fused, VmError::TypeError("cmplt on float and int".into()));
    assert_eq!(fused, unfused);
    // A budget that ends between the compare and the branch still runs
    // the compare, and its error wins.
    assert_eq!(run_with_budget(fused_src, 3), Err(fused));
    assert_eq!(run_with_budget(fused_src, 2), Err(VmError::StepLimit(2)));
}

#[test]
fn a_fused_ptradd_and_load_count_as_one_arith_and_one_pointer_load() {
    let out = run(r#"
tag "g:a" global size=2 addressed
global "g:a" ints 5 7
func @main(0) result {
B0:
  r0 = lea "g:a"
  r1 = iconst 1
  r2 = ptradd r0, r1
  r3 = load [r2] {"g:a"}
  ret r3
}
"#);
    assert_eq!(out.exit_code, 7);
    let c = out.counts;
    // `lea`, `iconst` and `ret` around the pair.
    assert_eq!((c.total, c.arith, c.control), (5, 2 + 1, 1));
    assert_eq!((c.loads, c.ptr_loads, c.scalar_loads), (1, 1, 0));
}

#[test]
fn exit_counts_the_operations_up_to_the_exit_call() {
    let out = run(r#"
func @main(0) {
B0:
  r0 = iconst 5
  r1 = iconst 6
  call $exit(r0) mods{} refs{}
  r2 = iconst 0
  ret
}
"#);
    assert_eq!(out.exit_code, 5);
    assert_eq!(out.counts.total, 3);
    assert_eq!(out.counts.calls, 1);
    assert_eq!(out.counts.control, 0);
}

#[test]
fn structural_faults_are_reported_where_they_are_reached() {
    let missing_phi_entry = run_err(
        r#"
func @main(0) result {
B0:
  r0 = iconst 0
  branch r0, B1, B2
B1:
  jump B2
B2:
  r1 = phi [B1: r0]
  ret r1
}
"#,
    );
    assert_eq!(
        missing_phi_entry,
        VmError::Malformed("phi in B2 lacks entry for predecessor B0".into())
    );
    let phi_in_entry = run_err(
        r#"
func @main(0) result {
B0:
  r0 = phi [B0: r0]
  ret r0
}
"#,
    );
    assert!(matches!(phi_in_entry, VmError::Malformed(m) if m.contains("phi in entry block")));
    let fell_through = run_err(
        r#"
func @main(0) {
B0:
  r0 = iconst 1
}
"#,
    );
    assert!(matches!(fell_through, VmError::Malformed(m) if m.contains("fell through")));
    // A broken edge that is never taken is harmless.
    let ok = run(r#"
func @main(0) result {
B0:
  r0 = iconst 0
  branch r0, B1, B2
B1:
  jump B3
B2:
  r1 = iconst 7
  jump B3
B3:
  r2 = phi [B2: r1]
  ret r2
}
"#);
    assert_eq!(ok.exit_code, 7);
}

#[test]
fn another_functions_local_is_a_counted_fault() {
    let e = run_err(
        r#"
tag "f.x" local owner=0 size=1
func @f(0) {
B0:
  ret
}
func @main(0) {
B0:
  r0 = sload "f.x"
  ret
}
"#,
    );
    assert!(matches!(e, VmError::NoObject(m) if m.contains("f.x")));
}

#[test]
fn the_profile_splits_the_counts_by_block_and_function() {
    let module = ir::parse_module(CALL_LOOP).expect("parse");
    let (out, profile) = Vm::run_main_profiled(&module, VmOptions::default()).expect("run");
    assert_eq!(out, Vm::run_main(&module, VmOptions::default()).unwrap());
    assert_eq!(profile.total(), out.counts);
    let main = profile.func(module.lookup_func("main").unwrap());
    let bump = profile.func(module.lookup_func("bump").unwrap());
    assert_eq!((main.invocations, bump.invocations), (1, 5));
    let entries: Vec<u64> = main.blocks.iter().map(|b| b.entries).collect();
    assert_eq!(entries, vec![1, 5, 1]);
    // The loop block: call, sub and branch, five times; @bump's own
    // operations stay with @bump.
    let body = main.block(ir::BlockId(1)).counts;
    assert_eq!((body.total, body.calls, body.control), (15, 5, 5));
    assert_eq!(bump.counts().loads, 5);
    assert_eq!(bump.counts().stores, 5);
    assert_eq!(main.counts().loads, 1);
    assert_eq!(main.counts() + bump.counts(), out.counts);
}

#[test]
fn phi_moves_are_parallel_on_a_loop_back_edge() {
    // Swapping through φ-nodes: each back edge exchanges r4 and r5, so
    // the two back edges of three iterations swap them back. Sequential
    // moves would copy one value into both (2020).
    let out = run(r#"
func @main(0) result {
B0:
  r0 = iconst 3
  r1 = iconst 10
  r2 = iconst 20
  r9 = iconst 1
  jump B1
B1:
  r3 = phi [B0: r0, B1: r6]
  r4 = phi [B0: r1, B1: r5]
  r5 = phi [B0: r2, B1: r4]
  r6 = sub r3, r9
  branch r6, B1, B2
B2:
  r7 = iconst 100
  r8 = mul r4, r7
  r8 = add r8, r5
  ret r8
}
"#);
    assert_eq!(out.exit_code, 10 * 100 + 20);
}
