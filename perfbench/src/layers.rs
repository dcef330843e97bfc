//! Per-layer metrics of a traced run: times from the spans, counts from
//! the engine's `ExecMetrics` and view states, and the tracing overhead
//! against the untraced half of the same run.

use crate::metrics::{self, Values};
use crate::stats::{geomean, median, quantile};
use crate::trace::Trace;
use crate::{Measured, FUSED, PROFILE_NAMES};
use pytond_sqldb::exec::ExecMetrics;
use std::collections::BTreeMap;

/// Span names of the front-end phases, in the order `Pytond::compile_at`
/// runs them. The benchmark calls each layer itself under a `frontend`
/// span, next to a `core.compile_at` span around the facade call.
pub const PHASES: [(&str, &str); 6] = [
    ("pyparse.parse_module", "pyparse.parse_ms"),
    ("translate.translate_function", "translate.translate_ms"),
    ("tondir.validate", "tondir.validate_ms"),
    ("optimizer.optimize", "optimizer.optimize_ms"),
    ("sqlgen.generate_sql", "sqlgen.generate_ms"),
    ("sqldb.lower.prepare_program", "sqldb.lower.prepare_ms"),
];

/// Largest share by which the summed phase medians may exceed the
/// `compile_at` medians before the trace counts as inconsistent. The two
/// are separate calls, so timer noise can invert a gap near zero.
pub const FACADE_TOLERANCE: f64 = 0.10;

/// One append of `append_views`: the `Pytond::append` span and what the
/// view refreshes inside it reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppendSample {
    /// Duration of the `core.append` span.
    pub append_ns: u64,
    /// Summed `ViewState::refresh_ns` of the refreshes this append ran.
    pub refresh_ns: u64,
    /// Summed `ViewState::rows_propagated`.
    pub rows_propagated: u64,
    /// Refreshes that ran in delta mode.
    pub delta: u64,
    /// Refreshes in total.
    pub refreshes: u64,
}

impl AppendSample {
    /// The append's own time: its span minus the view refreshes inside it.
    pub fn self_ns(&self) -> u64 {
        self.append_ns.saturating_sub(self.refresh_ns)
    }
}

/// Collectors fed by a traced measurement phase.
#[derive(Debug, Default)]
pub struct Layers {
    /// Counters of the first traced execution per (profile, program).
    pub exec_first: BTreeMap<(usize, usize), ExecMetrics>,
    /// Traced execution times (ms) per (profile, program).
    pub exec_ms: BTreeMap<(usize, usize), Vec<f64>>,
    /// Admission queue wait of every traced execution.
    pub queue_wait_ns: Vec<u64>,
    /// Max over mean of the per-worker morsel claims, per parallel
    /// execution.
    pub claim_skew: Vec<f64>,
    /// Largest `ExecMetrics::mem_peak_bytes` seen.
    pub mem_peak_bytes: u64,
    /// Per program: raw TondIR rules, rules after O4, generated SQL bytes.
    pub ir: BTreeMap<usize, (usize, usize, usize)>,
    /// Plans in the facade's cache when the phase ended.
    pub cached_plans: usize,
    /// Every traced append.
    pub appends: Vec<AppendSample>,
    /// Read part of every traced `append_views` step (ms).
    pub read_ms: Vec<f64>,
    /// Metric names of the programs, by program index; programs without
    /// a per-program metric have none.
    pub program_metric: Vec<Option<String>>,
    /// Inconsistencies found while tracing.
    pub problems: Vec<String>,
}

impl Layers {
    /// Records one traced execution.
    pub fn record_exec(&mut self, profile: usize, program: usize, ms: f64, m: &ExecMetrics) {
        self.exec_ms.entry((profile, program)).or_default().push(ms);
        self.exec_first
            .entry((profile, program))
            .or_insert_with(|| m.clone());
        self.queue_wait_ns.push(m.queue_wait_ns);
        let claims = &m.morsels_claimed_per_worker;
        if !claims.is_empty() {
            let mean = claims.iter().sum::<u64>() as f64 / claims.len() as f64;
            let max = claims.iter().copied().max().unwrap_or(0) as f64;
            if mean > 0.0 {
                self.claim_skew.push(max / mean);
            }
        }
        self.mem_peak_bytes = self.mem_peak_bytes.max(m.mem_peak_bytes);
    }

    /// Checks that every traced append was sampled with its span's own
    /// duration, and that the view refreshes fit inside it, so the span
    /// splits into self time plus refresh time.
    pub fn check_appends(&self, trace: &Trace) -> Result<(), String> {
        let mut spans: Vec<u64> = trace
            .named("core.append")
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        let mut sampled: Vec<u64> = self.appends.iter().map(|a| a.append_ns).collect();
        spans.sort_unstable();
        sampled.sort_unstable();
        if spans != sampled {
            return Err(format!(
                "{} core.append spans but {} append samples with other durations",
                spans.len(),
                sampled.len()
            ));
        }
        match self.appends.iter().find(|a| a.refresh_ns > a.append_ns) {
            Some(a) => Err(format!(
                "view refreshes took longer than the append that ran them: {a:?}"
            )),
            None => Ok(()),
        }
    }

    /// Every per-layer metric.
    pub fn values(&self, trace: &Trace, plain: &Measured, traced: &Measured) -> Values {
        let mut v = Values::new();
        for (name, _) in metrics::per_layer() {
            v.insert(name, 0.0);
        }
        let mut set = |k: &str, x: f64| {
            if x.is_finite() {
                v.insert(k.to_string(), x);
            }
        };

        let compile = compile_layers(trace);
        for (metric, x) in &compile.phase_ms {
            set(metric, *x);
        }
        set("core.compile_at_ms", compile.compile_at_ms);
        set("core.facade_overhead_ms", compile.facade_overhead_ms);
        let sum_ir =
            |f: fn(&(usize, usize, usize)) -> usize| self.ir.values().map(f).sum::<usize>() as f64;
        set("tondir.rules_raw", sum_ir(|t| t.0));
        set("optimizer.rules_o4", sum_ir(|t| t.1));
        set("sqlgen.sql_bytes", sum_ir(|t| t.2));

        let prepare: Vec<f64> = trace.named("core.prepare").map(|s| s.ms()).collect();
        set("core.prepare_ms", median(&prepare));
        set("core.cached_plans", self.cached_plans as f64);

        let exec_medians: Vec<f64> = self.exec_ms.values().map(|s| median(s)).collect();
        set("sqldb.exec.exec_ms", geomean(&exec_medians));
        for ((profile, program), samples) in &self.exec_ms {
            if let Some(Some(name)) = self.program_metric.get(*program) {
                set(
                    &metrics::exec_metric(PROFILE_NAMES[*profile], name),
                    median(samples),
                );
            }
        }
        let total =
            |f: fn(&ExecMetrics) -> u64| self.exec_first.values().map(f).sum::<u64>() as f64;
        let scanned = total(|m| m.morsels_scanned);
        let pruned = total(|m| m.morsels_pruned);
        set("sqldb.exec.morsels_scanned", scanned);
        set("sqldb.exec.morsels_pruned", pruned);
        set("sqldb.exec.prune_ratio", pruned / (scanned + pruned));
        set("sqldb.exec.pipelines", total(|m| m.pipelines));
        set(
            "sqldb.exec.intermediates_avoided",
            total(|m| m.intermediates_avoided),
        );
        set("sqldb.exec.joins_flipped", total(|m| m.joins_flipped));
        set("sqldb.exec.partitions_built", total(|m| m.partitions_built));
        set(
            "sqldb.exec.dict_probe_pipelines",
            total(|m| m.dict_probe_pipelines),
        );
        set(
            "sqldb.exec.dict_decoded_cols",
            total(|m| m.dict_decoded_cols),
        );
        set("sqldb.exec.mem_peak_bytes", self.mem_peak_bytes as f64);
        let waits: Vec<f64> = self.queue_wait_ns.iter().map(|&n| n as f64).collect();
        set("common.pool.queue_wait_ns", mean(&waits));
        set("common.pool.claim_skew", mean(&self.claim_skew));
        set(
            "common.pool.workers_spawned",
            pytond_common::pool::pool_workers_spawned() as f64,
        );

        set(
            "sqldb.table.register_ms",
            per_setup_ms(trace, "core.register_table"),
        );
        set(
            "core.register_view_ms",
            per_setup_ms(trace, "core.register_view"),
        );

        let ms = |f: fn(&AppendSample) -> u64| -> Vec<f64> {
            self.appends.iter().map(|a| f(a) as f64 / 1e6).collect()
        };
        let append_ms = ms(|a| a.append_ns);
        set("core.append_ms.p50", median(&append_ms));
        set("core.append_ms.p90", quantile(&append_ms, 0.9));
        set("core.read_ms.p50", median(&self.read_ms));
        set("core.read_ms.p90", quantile(&self.read_ms, 0.9));
        set(
            "sqldb.table.append_self_ms",
            median(&ms(AppendSample::self_ns)),
        );
        set("sqldb.mv.refresh_ms", median(&ms(|a| a.refresh_ns)));
        let refreshes: u64 = self.appends.iter().map(|a| a.refreshes).sum();
        let delta: u64 = self.appends.iter().map(|a| a.delta).sum();
        set("sqldb.mv.delta_share", delta as f64 / refreshes as f64);
        let rows: Vec<f64> = self
            .appends
            .iter()
            .map(|a| a.rows_propagated as f64)
            .collect();
        set("sqldb.mv.rows_propagated", median(&rows));

        let pct = |t: f64, p: f64| (t / p - 1.0) * 100.0;
        set(
            "trace.overhead_pct.compile_ms_geomean",
            pct(traced.compile_geomean(), plain.compile_geomean()),
        );
        set(
            "trace.overhead_pct.exec_ms_geomean.fused",
            pct(traced.exec_geomean(FUSED), plain.exec_geomean(FUSED)),
        );
        // Throughput is higher-is-better: the overhead is the share lost.
        set(
            "trace.overhead_pct.ops_per_s",
            pct(plain.ops_per_s(), traced.ops_per_s()),
        );
        v
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median over set-ups of the summed duration of the `name` spans under
/// each `setup` span.
fn per_setup_ms(trace: &Trace, name: &str) -> f64 {
    let spans = trace.spans();
    let mut per_setup: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        if let Some(p) = s.parent.filter(|&p| spans[p].name == "setup") {
            *per_setup.entry(p).or_default() += s.ms();
        }
    }
    median(&per_setup.into_values().collect::<Vec<_>>())
}

/// Front-end layer times reconstructed from the compile spans.
#[derive(Debug, Default)]
pub struct CompileLayers {
    /// Geomean over programs of the per-program median, per phase metric.
    pub phase_ms: Vec<(&'static str, f64)>,
    /// Geomean over programs of the median `core.compile_at` span.
    pub compile_at_ms: f64,
    /// Per program: median `core.compile_at` span and median summed phase
    /// spans (ms).
    pub per_program: BTreeMap<usize, (f64, f64)>,
    /// Mean over programs of compile_at minus summed phases (ms): the
    /// facade's own work.
    pub facade_overhead_ms: f64,
}

impl CompileLayers {
    /// Whether the summed phase medians stay within the `compile_at`
    /// medians (by at most [`FACADE_TOLERANCE`]).
    pub fn phases_within_facade(&self) -> Result<(), String> {
        let (facade, phases) = self
            .per_program
            .values()
            .fold((0.0, 0.0), |(f, p), (a, b)| (f + a, p + b));
        if phases <= facade * (1.0 + FACADE_TOLERANCE) {
            Ok(())
        } else {
            Err(format!(
                "compile phases sum to {phases:.3} ms, more than the {facade:.3} ms of compile_at"
            ))
        }
    }
}

/// Groups the phase spans by their `frontend` parent and the
/// `core.compile_at` spans by program.
pub fn compile_layers(trace: &Trace) -> CompileLayers {
    let spans = trace.spans();
    // frontend span index → per-phase ns.
    let mut frontends: BTreeMap<usize, [u64; PHASES.len()]> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == "frontend" {
            frontends.entry(i).or_default();
        }
    }
    for s in spans {
        let Some(p) = s.parent else { continue };
        if let (Some(acc), Some(k)) = (
            frontends.get_mut(&p),
            PHASES.iter().position(|(n, _)| *n == s.name),
        ) {
            acc[k] += s.end_ns - s.start_ns;
        }
    }
    let mut phase_samples: BTreeMap<usize, Vec<[u64; PHASES.len()]>> = BTreeMap::new();
    for (i, acc) in frontends {
        phase_samples
            .entry(spans[i].tag.program)
            .or_default()
            .push(acc);
    }
    let mut compile_at: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in trace.named("core.compile_at") {
        compile_at.entry(s.tag.program).or_default().push(s.ms());
    }

    let mut out = CompileLayers::default();
    for (k, (_, metric)) in PHASES.iter().enumerate() {
        let medians: Vec<f64> = phase_samples
            .values()
            .map(|samples| {
                median(
                    &samples
                        .iter()
                        .map(|a| a[k] as f64 / 1e6)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        out.phase_ms.push((metric, geomean(&medians)));
    }
    let at_medians: Vec<f64> = compile_at.values().map(|s| median(s)).collect();
    out.compile_at_ms = geomean(&at_medians);
    for (program, samples) in &phase_samples {
        let Some(at) = compile_at.get(program) else {
            continue;
        };
        let sums: Vec<f64> = samples
            .iter()
            .map(|a| a.iter().sum::<u64>() as f64 / 1e6)
            .collect();
        out.per_program
            .insert(*program, (median(at), median(&sums)));
    }
    let gaps: Vec<f64> = out.per_program.values().map(|(a, p)| a - p).collect();
    out.facade_overhead_ms = mean(&gaps);
    out
}
