//! The metrics the benchmark declares, and what each layer metric is
//! expected to move. `BENCHMARK.json` at the repository root mirrors
//! these tables; a test keeps the two in step.

/// End-to-end metrics, measured with tracing off.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric from the traced pass.
pub struct Layer {
    /// Metric name, `module.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The module whose work it measures.
    pub module: &'static str,
    /// `(end-to-end metric, workload)` pairs it should move.
    pub moves: &'static [(&'static str, &'static str)],
}

/// The end-to-end metrics. Each bound is at least three times the widest
/// spread (interquartile range over median) measured across ten seeds on
/// a shared two-vCPU VM, where run-to-run drift of the host moves wall
/// times by up to 9%; `setup_s`, the benchmark's set-up time, has the
/// widest bound.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("analyze_s", "s", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("collect_s", "s", "lower", 0.25),
    e2e("collect_slowdown_x", "x", "lower", 0.01),
    e2e("pt_bytes_per_branch", "B/branch", "lower", 0.01),
    e2e("accuracy", "ratio", "higher", 0.03),
    e2e("peak_heap_mib", "MiB", "lower", 0.15),
    e2e("alloc_mib", "MiB", "lower", 0.2),
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    module: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        module,
        moves,
    }
}

const COLLECT_CLEAN: &[(&str, &str)] = &[("collect_s", "clean-lusearch")];
const BYTES: &[(&str, &str)] = &[("pt_bytes_per_branch", "clean-lusearch")];
const ACC_LOSSY: &[(&str, &str)] = &[("accuracy", "lossy-fop")];
const AN_CLEAN: &[(&str, &str)] = &[("analyze_s", "clean-lusearch")];
const AN_JIT: &[(&str, &str)] = &[("analyze_s", "jit-sunflow")];
const AN_LOSSY: &[(&str, &str)] = &[("analyze_s", "lossy-fop")];
const AN_PROJECT: &[(&str, &str)] = &[("analyze_s", "jit-sunflow"), ("analyze_s", "fig7-suite")];
const AN_PAR: &[(&str, &str)] = &[("analyze_s", "clean-lusearch"), ("analyze_s", "lossy-fop")];
const AN_ALL: &[(&str, &str)] = &[
    ("analyze_s", "clean-lusearch"),
    ("analyze_s", "jit-sunflow"),
    ("analyze_s", "lossy-fop"),
    ("analyze_s", "fig7-suite"),
];
const SETUP: &[(&str, &str)] = &[("setup_s", "fig7-suite")];
const MEM: &[(&str, &str)] = &[
    ("alloc_mib", "jit-sunflow"),
    ("peak_heap_mib", "jit-sunflow"),
];

/// The per-layer metrics, grouped by layer.
pub const LAYERS: &[Layer] = &[
    // Collection.
    layer(
        "jvm.run_untraced_s",
        "s",
        "lower",
        "jvm::runtime",
        COLLECT_CLEAN,
    ),
    layer(
        "ipt.collect_overhead_s",
        "s",
        "lower",
        "ipt::encoder",
        COLLECT_CLEAN,
    ),
    layer("ipt.pt_bytes", "B", "lower", "ipt::encoder", BYTES),
    layer("ipt.lost_frac", "ratio", "lower", "ipt::ring", ACC_LOSSY),
    layer("ipt.resync_bytes", "B", "lower", "ipt::decoder", ACC_LOSSY),
    // Packet decode.
    layer("ipt.packets", "count", "lower", "ipt::decoder", AN_CLEAN),
    layer(
        "ipt.packet_decode_s",
        "s",
        "lower",
        "ipt::decoder",
        AN_CLEAN,
    ),
    layer(
        "ipt.packet_decode_mib_per_s",
        "MiB/s",
        "higher",
        "ipt::decoder",
        AN_CLEAN,
    ),
    // Segregation.
    layer("core.segregate_s", "s", "lower", "core::threads", AN_CLEAN),
    layer("core.pieces", "count", "lower", "core::threads", AN_CLEAN),
    // Bytecode decode.
    layer("core.decode_s", "s", "lower", "core::decode", AN_JIT),
    layer(
        "core.decode.events",
        "count",
        "higher",
        "core::decode",
        AN_JIT,
    ),
    layer(
        "core.decode.events_per_s",
        "1/s",
        "higher",
        "core::decode",
        AN_JIT,
    ),
    // Projection.
    layer(
        "core.project_s",
        "s",
        "lower",
        "core::reconstruct",
        AN_PROJECT,
    ),
    layer(
        "core.project.matched",
        "count",
        "higher",
        "core::reconstruct",
        AN_PROJECT,
    ),
    layer(
        "core.project.unmatched",
        "count",
        "lower",
        "core::reconstruct",
        AN_PROJECT,
    ),
    layer(
        "core.project.restarts",
        "count",
        "lower",
        "core::reconstruct",
        AN_PROJECT,
    ),
    layer(
        "core.project.candidates_tried",
        "count",
        "lower",
        "core::reconstruct",
        AN_PROJECT,
    ),
    layer(
        "core.project.candidates_pruned",
        "count",
        "higher",
        "core::reconstruct",
        AN_PROJECT,
    ),
    layer(
        "core.project.summary_pruned",
        "count",
        "higher",
        "core::reconstruct",
        AN_PROJECT,
    ),
    layer("cfg.dfa.misses", "count", "lower", "cfg::abs", AN_PROJECT),
    layer(
        "cfg.dfa.hit_ratio",
        "ratio",
        "higher",
        "cfg::abs",
        AN_PROJECT,
    ),
    // Recovery.
    layer(
        "core.recover.index_s",
        "s",
        "lower",
        "core::recover",
        AN_CLEAN,
    ),
    layer(
        "core.recover.fill_s",
        "s",
        "lower",
        "core::recover",
        AN_LOSSY,
    ),
    layer(
        "core.recover.fill_p50_ms",
        "ms",
        "lower",
        "core::recover",
        AN_LOSSY,
    ),
    layer(
        "core.recover.fill_p90_ms",
        "ms",
        "lower",
        "core::recover",
        AN_LOSSY,
    ),
    layer(
        "core.recover.fill_w2_s",
        "s",
        "lower",
        "core::recover",
        AN_LOSSY,
    ),
    layer(
        "core.recover.holes",
        "count",
        "lower",
        "core::recover",
        ACC_LOSSY,
    ),
    layer(
        "core.recover.filled_from_cs",
        "count",
        "higher",
        "core::recover",
        ACC_LOSSY,
    ),
    layer(
        "core.recover.filled_by_walk",
        "count",
        "lower",
        "core::recover",
        ACC_LOSSY,
    ),
    layer(
        "core.recover.unfilled",
        "count",
        "lower",
        "core::recover",
        ACC_LOSSY,
    ),
    layer(
        "core.recover.candidates",
        "count",
        "lower",
        "core::recover",
        AN_LOSSY,
    ),
    layer(
        "core.recover.pruned_tier1",
        "count",
        "higher",
        "core::recover",
        AN_LOSSY,
    ),
    layer(
        "core.recover.pruned_tier2",
        "count",
        "higher",
        "core::recover",
        AN_LOSSY,
    ),
    layer(
        "core.recover.summary_pruned",
        "count",
        "higher",
        "core::recover",
        AN_LOSSY,
    ),
    layer(
        "core.recover.fallback_walks",
        "count",
        "lower",
        "core::recover",
        ACC_LOSSY,
    ),
    layer(
        "core.recover.cs_fill_rate",
        "ratio",
        "higher",
        "core::recover",
        ACC_LOSSY,
    ),
    // Assembly and lint.
    layer(
        "core.assemble.emit_s",
        "s",
        "lower",
        "core::pipeline",
        AN_JIT,
    ),
    layer("analysis.lint_s", "s", "lower", "analysis::lint", AN_JIT),
    layer(
        "analysis.lint.steps",
        "count",
        "lower",
        "analysis::lint",
        AN_JIT,
    ),
    layer(
        "analysis.lint.diagnostics",
        "count",
        "lower",
        "analysis::lint",
        AN_JIT,
    ),
    // Set-up.
    layer("analysis.rta_s", "s", "lower", "analysis::rta", SETUP),
    layer("cfg.icfg_build_s", "s", "lower", "cfg::icfg", SETUP),
    layer(
        "analysis.summaries_build_s",
        "s",
        "lower",
        "analysis::interproc",
        SETUP,
    ),
    layer("analysis.index_build_s", "s", "lower", "analysis", SETUP),
    // Whole pipeline, worker fan-out and observability.
    layer(
        "pipeline.analyze_w1_s",
        "s",
        "lower",
        "core::pipeline",
        AN_PAR,
    ),
    layer(
        "pipeline.analyze_p90_s",
        "s",
        "lower",
        "core::pipeline",
        AN_ALL,
    ),
    layer(
        "pipeline.analyze_samples",
        "count",
        "higher",
        "core::pipeline",
        AN_ALL,
    ),
    layer(
        "pipeline.unattributed_frac",
        "ratio",
        "lower",
        "core::pipeline",
        AN_ALL,
    ),
    layer("par.speedup", "x", "higher", "par", AN_PAR),
    layer("obs.overhead_frac", "ratio", "lower", "obs", AN_ALL),
    layer(
        "analysis.summaries_overhead_frac",
        "ratio",
        "lower",
        "analysis::interproc",
        AN_ALL,
    ),
    // Memory.
    layer(
        "core.segregate.alloc_mib",
        "MiB",
        "lower",
        "core::threads",
        MEM,
    ),
    layer("core.decode.alloc_mib", "MiB", "lower", "core::decode", MEM),
    layer(
        "core.project.alloc_mib",
        "MiB",
        "lower",
        "core::reconstruct",
        MEM,
    ),
    layer(
        "core.recover.alloc_mib",
        "MiB",
        "lower",
        "core::recover",
        MEM,
    ),
    layer(
        "core.assemble.alloc_mib",
        "MiB",
        "lower",
        "core::pipeline",
        MEM,
    ),
    layer(
        "analysis.lint.alloc_mib",
        "MiB",
        "lower",
        "analysis::lint",
        MEM,
    ),
];

/// Measured metric values by name.
pub type Values = std::collections::BTreeMap<&'static str, f64>;

/// Name, value and unit of every metric of a pass, in declaration order.
///
/// # Panics
///
/// Panics if `values` lacks a declared metric or holds an undeclared one
/// (a bug in the pass, not a measurement outcome).
pub fn ordered(values: &Values, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
    let declared: Vec<(&'static str, &'static str)> = if traced {
        LAYERS.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    assert_eq!(
        values.len(),
        declared.len(),
        "the pass emits exactly the declared metrics"
    );
    declared
        .into_iter()
        .map(|(name, unit)| {
            let v = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect()
}
