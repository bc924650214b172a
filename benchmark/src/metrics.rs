//! The catalog of every metric the benchmark emits: name and unit. A run
//! can only emit names listed here (see [`def`]), and a test holds this
//! catalog equal to `BENCHMARK.json`, which adds each metric's direction
//! and regression bound.

/// One metric's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `true` for values the compiler's determinism fixes (counts and
    /// ratios of counts): two runs over the same inputs and the same
    /// number of compiles give identical values. `false` for times.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: true,
    }
}

/// What a user of the compiler sees, reported by the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    time("setup_s", "s"),
    time("compile_ms_p50", "ms"),
    time("compile_ms_p99", "ms"),
    time("compile_lines_per_s", "lines/s"),
    count("compile_peak_kib", "KiB"),
    time("run_ns_per_ref_op", "ns/op"),
    count("dyn_ops_ratio", "ratio"),
    count("dyn_loads_ratio", "ratio"),
    count("dyn_stores_ratio", "ratio"),
];

/// One layer each, reported by the traced run as per-compile medians
/// unless the README says otherwise.
pub const PER_LAYER: &[MetricDef] = &[
    time("minic.lex_us", "us"),
    time("minic.parse_us", "us"),
    time("minic.lower_us", "us"),
    time("minic.tokens_per_s", "tokens/s"),
    count("minic.allocs", "count"),
    time("cfg.normalize_us", "us"),
    count("cfg.analysis_builds", "count"),
    count("cfg.transfer_evals", "count"),
    time("analysis.barrier_us", "us"),
    time("opt.strengthen_us", "us"),
    time("opt.lvn_us", "us"),
    time("opt.loadelim_us", "us"),
    time("opt.constprop_us", "us"),
    time("opt.licm_us", "us"),
    time("opt.lvn2_us", "us"),
    time("opt.dce_us", "us"),
    time("opt.clean_us", "us"),
    time("opt.clean_final_us", "us"),
    time("promote.promote_us", "us"),
    count("promote.promoted_tags", "count"),
    count("promote.lifts", "count"),
    count("promote.mem_ops_ratio", "ratio"),
    time("regalloc.regalloc_us", "us"),
    count("regalloc.spilled", "count"),
    count("regalloc.spill_ops", "count"),
    count("regalloc.rounds", "count"),
    time("driver.pipeline_us", "us"),
    time("driver.other_us", "us"),
    count("driver.allocs", "count"),
    count("driver.funcs_recompiled", "count"),
    count("driver.cache_hit_rate", "ratio"),
    count("driver.summary_invalidated", "count"),
    count("driver.evictions", "count"),
    count("driver.cache_kib", "KiB"),
    time("ir.validate_us", "us"),
    time("vm.mops_per_s", "Mops/s"),
    time("trace_overhead", "ratio"),
];

/// The catalog entry for `name`.
///
/// # Panics
///
/// Panics if `name` is not in the catalog: emitting an unlisted metric
/// is a bug in the benchmark.
pub fn def(name: &str) -> MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .copied()
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}
