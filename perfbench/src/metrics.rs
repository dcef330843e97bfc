//! The benchmark's metric names and units. Every workload reports every
//! metric of the mode it runs in: the end-to-end set without tracing, the
//! per-layer set with it. A per-layer metric whose layer the workload does
//! not exercise reads 0. `BENCHMARK.json` lists the same names; a test
//! keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("compile_ms_geomean", "ms"),
    ("exec_ms_geomean.fused", "ms"),
    ("exec_ms_geomean.vectorized", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics with fixed names: `(name, unit)`.
pub const LAYERS: [(&str, &str); 40] = [
    ("pyparse.parse_ms", "ms"),
    ("translate.translate_ms", "ms"),
    ("tondir.validate_ms", "ms"),
    ("tondir.rules_raw", "count"),
    ("optimizer.optimize_ms", "ms"),
    ("optimizer.rules_o4", "count"),
    ("sqlgen.generate_ms", "ms"),
    ("sqlgen.sql_bytes", "bytes"),
    ("sqldb.lower.prepare_ms", "ms"),
    ("core.compile_at_ms", "ms"),
    ("core.facade_overhead_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.cached_plans", "count"),
    ("sqldb.exec.exec_ms", "ms"),
    ("sqldb.exec.morsels_scanned", "count"),
    ("sqldb.exec.morsels_pruned", "count"),
    ("sqldb.exec.prune_ratio", "ratio"),
    ("sqldb.exec.pipelines", "count"),
    ("sqldb.exec.intermediates_avoided", "count"),
    ("sqldb.exec.joins_flipped", "count"),
    ("sqldb.exec.partitions_built", "count"),
    ("sqldb.exec.dict_probe_pipelines", "count"),
    ("sqldb.exec.dict_decoded_cols", "count"),
    ("sqldb.exec.mem_peak_bytes", "bytes"),
    ("common.pool.queue_wait_ns", "ns"),
    ("common.pool.claim_skew", "ratio"),
    ("common.pool.workers_spawned", "count"),
    ("sqldb.table.register_ms", "ms"),
    ("core.register_view_ms", "ms"),
    ("core.append_ms.p50", "ms"),
    ("core.append_ms.p90", "ms"),
    ("core.read_ms.p50", "ms"),
    ("core.read_ms.p90", "ms"),
    ("sqldb.table.append_self_ms", "ms"),
    ("sqldb.mv.refresh_ms", "ms"),
    ("sqldb.mv.delta_share", "ratio"),
    ("sqldb.mv.rows_propagated", "count"),
    ("trace.overhead_pct.compile_ms_geomean", "%"),
    ("trace.overhead_pct.exec_ms_geomean.fused", "%"),
    ("trace.overhead_pct.ops_per_s", "%"),
];

/// Metric names of the eight notebook and hybrid programs, in
/// `pytond_workloads::all_workloads` order.
pub const NOTEBOOK_PROGRAMS: [&str; 8] = [
    "crime_index",
    "birth_analysis",
    "hybrid_covar_nf",
    "hybrid_covar_f",
    "hybrid_mv_nf",
    "hybrid_mv_f",
    "n3",
    "n9",
];

/// Programs whose execution time is also reported one by one:
/// the 22 TPC-H queries, the notebook and hybrid programs and the two
/// covariance layouts.
pub fn programs() -> Vec<String> {
    let mut out: Vec<String> = (1..=22).map(|i| format!("Q{i}")).collect();
    out.extend(NOTEBOOK_PROGRAMS.iter().map(|p| p.to_string()));
    out.extend(["cov_dense".to_string(), "cov_sparse".to_string()]);
    out
}

/// Metric-name form of a workload program's display name
/// (`Hybrid Covar (NF)` → `hybrid_covar_nf`).
pub fn program_name(display: &str) -> String {
    let mut out = String::new();
    for c in display.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

/// Name of the per-program execution-time metric.
pub fn exec_metric(profile: &str, program: &str) -> String {
    format!("sqldb.exec.ms.{profile}.{program}")
}

/// Every per-layer metric: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> = LAYERS.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for profile in ["fused", "vectorized"] {
        for p in programs() {
            out.push((exec_metric(profile, &p), "ms"));
        }
    }
    out
}

/// Metric values of one run, by name.
pub type Values = BTreeMap<String, f64>;

/// Renders the result line. Every metric in `defs` must be present and
/// finite; a missing or non-finite value is a bug in the benchmark.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[(String, &str)],
    values: &Values,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(defs.len());
    for (name, unit) in defs {
        let v = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not declared"));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}
