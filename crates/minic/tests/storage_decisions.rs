//! Tests of the front end's storage decisions — the paper's premise that
//! the compiler enregisters what it can prove safe and leaves the rest in
//! tagged memory.

use ir::{Instr, TagKind};

fn compile(src: &str) -> ir::Module {
    minic::compile(src).expect("compile")
}

fn count_mem_ops(m: &ir::Module, func: &str) -> (usize, usize) {
    let f = m.func(m.lookup_func(func).unwrap());
    let mut scalar = 0;
    let mut ptr = 0;
    for b in &f.blocks {
        for i in &b.instrs {
            match i {
                Instr::SLoad { .. } | Instr::SStore { .. } | Instr::CLoad { .. } => scalar += 1,
                Instr::Load { .. } | Instr::Store { .. } => ptr += 1,
                _ => {}
            }
        }
    }
    (scalar, ptr)
}

#[test]
fn unaddressed_locals_get_no_tags_or_memory_ops() {
    let m = compile(
        r#"
int main() {
    int a = 1;
    int b = a + 2;
    int c = b * a;
    return c;
}
"#,
    );
    assert_eq!(m.tags.len(), 0, "no storage tags at all");
    assert_eq!(count_mem_ops(&m, "main"), (0, 0));
}

#[test]
fn address_taken_locals_get_local_tags() {
    let m = compile(
        r#"
int main() {
    int a = 1;
    int *p = &a;
    return *p;
}
"#,
    );
    let tag = m.tags.lookup("main.a").expect("a has a tag");
    let info = m.tags.info(tag);
    assert_eq!(
        info.kind,
        TagKind::Local {
            owner: m.main().unwrap().0
        }
    );
    assert!(info.address_taken);
    assert_eq!(info.size, 1);
}

#[test]
fn addressed_params_get_param_tags_and_entry_stores() {
    let m = compile(
        r#"
int deref_arg(int v) {
    int *p = &v;
    return *p;
}
int main() { return deref_arg(41) + 1; }
"#,
    );
    let tag = m.tags.lookup("deref_arg.v").expect("param tag");
    assert!(matches!(m.tags.info(tag).kind, TagKind::Param { .. }));
    // The incoming value is stored to the tag at entry.
    let f = m.func(m.lookup_func("deref_arg").unwrap());
    assert!(matches!(
        f.block(f.entry).instrs.first(),
        Some(Instr::SStore { .. })
    ));
}

#[test]
fn globals_get_global_tags_and_scalar_ops() {
    let m = compile(
        r#"
int counter;
int main() {
    counter = counter + 1;
    return counter;
}
"#,
    );
    let tag = m.tags.lookup("g:counter").expect("global tag");
    assert_eq!(m.tags.info(tag).kind, TagKind::Global);
    let (scalar, ptr) = count_mem_ops(&m, "main");
    assert_eq!(
        (scalar, ptr),
        (3, 0),
        "two loads + one store, all scalar form"
    );
}

#[test]
fn arrays_are_memory_resident_with_singleton_tag_sets() {
    let m = compile(
        r#"
int table[8];
int main() {
    table[3] = 9;
    return table[3];
}
"#,
    );
    let tag = m.tags.lookup("g:table").unwrap();
    assert_eq!(m.tags.info(tag).size, 8);
    let f = m.func(m.main().unwrap());
    let sets: Vec<_> = f
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .filter_map(|i| match i {
            Instr::Load { tags, .. } | Instr::Store { tags, .. } => Some(tags.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(sets.len(), 2);
    for s in sets {
        assert_eq!(
            s.as_singleton(),
            Some(tag),
            "direct indexing keeps {{table}}"
        );
    }
}

#[test]
fn pointer_dereferences_start_conservative() {
    let m = compile(
        r#"
int main() {
    int x = 0;
    int *p = &x;
    *p = 5;
    return x;
}
"#,
    );
    let f = m.func(m.main().unwrap());
    let store_tags = f
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .find_map(|i| match i {
            Instr::Store { tags, .. } => Some(tags.clone()),
            _ => None,
        })
        .expect("store through p");
    assert!(
        store_tags.is_all(),
        "the front end emits {{*}}; analysis shrinks it"
    );
}

#[test]
fn shadowed_locals_get_distinct_tags() {
    let m = compile(
        r#"
int take(int *p, int *q) { return *p + *q; }
int main() {
    int x = 1;
    int *p = &x;
    {
        int x = 2;
        int *q = &x;
        return take(p, q);
    }
}
"#,
    );
    assert!(m.tags.lookup("main.x").is_some());
    assert!(
        m.tags.lookup("main.x.1").is_some(),
        "inner x gets a fresh tag"
    );
}

#[test]
fn each_malloc_site_gets_its_own_heap_tag() {
    let m = compile(
        r#"
int main() {
    int *a = malloc(4);
    int *b = malloc(4);
    a[0] = 1;
    b[0] = 2;
    return a[0] + b[0];
}
"#,
    );
    assert!(m.tags.lookup("heap@0").is_some());
    assert!(m.tags.lookup("heap@1").is_some());
    assert!(m.tags.lookup("heap@2").is_none());
}

#[test]
fn calls_start_with_all_sets_intrinsics_with_empty() {
    let m = compile(
        r#"
void helper() { }
int main() {
    helper();
    print_int(1);
    return 0;
}
"#,
    );
    let f = m.func(m.main().unwrap());
    let calls: Vec<_> = f
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .filter_map(|i| match i {
            Instr::Call { effects, .. } => Some((effects.mods.clone(), effects.refs.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(calls.len(), 2);
    assert!(
        calls[0].0.is_all() && calls[0].1.is_all(),
        "direct call: {{*}}"
    );
    assert!(
        calls[1].0.is_empty() && calls[1].1.is_empty(),
        "intrinsic: {{}}"
    );
}
