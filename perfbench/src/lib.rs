//! End-to-end benchmark of `@pytond` programs, from Python source to result
//! relation, with a traced per-layer breakdown.
//!
//! Three workloads, each a closed loop with one client in one process:
//!
//! * [`tpch`] — the 22 TPC-H queries through `Pytond::run` with a warm
//!   plan cache, on the Fused and the Vectorized profile at 2 threads;
//! * [`datascience`] — the notebook, hybrid and covariance programs,
//!   each compiled cold with `Pytond::compile_at` and run with
//!   `Pytond::execute` at 1 thread;
//! * [`append_views`] — lineitem appends under five standing views, view
//!   reads, and an analytics query after every few appends.
//!
//! A plain run reports the end-to-end metrics. A traced run wraps every
//! call into a layer in a [`trace::Span`], reports the per-layer metrics,
//! and measures the same loop untraced first so that it can report the
//! tracing overhead. Every result is checked against a reference the
//! compiler does not produce, computed outside the timed regions.

pub mod append_views;
pub mod compile;
pub mod datascience;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod tpch;
pub mod trace;

use layers::Layers;
use metrics::Values;
use pytond::Backend;
use pytond_common::Relation;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{Tag, Trace};

/// Variables that silently change the measured program; the benchmark
/// refuses to run while any of them is set.
pub const GUARDED_ENV: [&str; 9] = [
    "PYTOND_NO_FUSE",
    "PYTOND_NO_DICT",
    "PYTOND_NO_IVM",
    "PYTOND_THREADS",
    "PYTOND_QUERY_TIMEOUT_MS",
    "PYTOND_QUERY_MEM_MB",
    "PYTOND_ADMIT",
    "PYTOND_ADMIT_TIMEOUT_MS",
    "PYTOND_FAULT",
];

/// Fails naming every guarded variable that is set.
pub fn guard_env() -> Result<(), String> {
    let set: Vec<&str> = GUARDED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: {} set; these switch the engine to another program than the one measured. Unset them.",
            set.join(", ")
        ))
    }
}

/// Most set-ups per run.
pub const MAX_SETUPS: usize = 15;

/// Index of the Fused profile in per-profile arrays.
pub const FUSED: usize = 0;
/// Index of the Vectorized profile in per-profile arrays.
pub const VECTORIZED: usize = 1;
/// Metric-name form of each profile index.
pub const PROFILE_NAMES: [&str; 2] = ["fused", "vectorized"];

/// The backend of a profile index at `threads` engine threads.
pub fn backend(profile: usize, threads: usize) -> Backend {
    if profile == FUSED {
        Backend::hyper_sim(threads)
    } else {
        Backend::duckdb_sim(threads)
    }
}

/// Input sizes. [`Size::full`] is what the benchmark measures; tests use
/// [`Size::small`].
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// TPC-H scale factor of `tpch` and `append_views`.
    pub tpch_sf: f64,
    /// Rows of the covariance matrices (16 columns).
    pub cov_rows: usize,
    /// Rows per lineitem append.
    pub batch_rows: usize,
    /// Appends before `append_views` restores the base table, which keeps
    /// the growth within a quarter of lineitem. A multiple of
    /// [`append_views::ANALYTICS_EVERY`], so every cycle holds the same
    /// steps.
    pub cycle_appends: usize,
    /// Fewest set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Set-ups go on past `setup_reps` until they have taken this long
    /// together (at most [`MAX_SETUPS`]), so a quick set-up still gives a
    /// steady median.
    pub setup_min_s: f64,
}

impl Size {
    /// The measured sizes.
    pub fn full() -> Size {
        Size {
            tpch_sf: 0.05,
            cov_rows: 20_000,
            batch_rows: 1_000,
            cycle_appends: 60,
            setup_reps: 3,
            setup_min_s: 1.5,
        }
    }

    /// Small inputs for the benchmark's own tests.
    pub fn small() -> Size {
        Size {
            tpch_sf: 0.002,
            cov_rows: 500,
            batch_rows: 50,
            cycle_appends: 10,
            setup_reps: 2,
            setup_min_s: 0.0,
        }
    }
}

/// Samples of one measurement phase.
#[derive(Debug, Default)]
pub struct Measured {
    /// Cold compile times (ms) per program.
    pub compile_ms: BTreeMap<usize, Vec<f64>>,
    /// Execution times (ms) per profile, per program.
    pub exec_ms: [BTreeMap<usize, Vec<f64>>; 2],
    /// Closed-loop operations completed.
    pub ops: usize,
    /// Wall time of the closed loop (s); it ends at a whole pass over the
    /// programs, so every program weighs the same in it.
    pub loop_s: f64,
    /// Operations attempted (compiles, runs, appends, reads).
    pub attempted: u64,
    /// Operations that failed, stale view reads included.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

fn geomean_of_medians(per_program: &BTreeMap<usize, Vec<f64>>) -> f64 {
    let medians: Vec<f64> = per_program.values().map(|s| stats::median(s)).collect();
    stats::geomean(&medians)
}

impl Measured {
    /// Counts a failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Per-program medians and the operation count, one program a line.
    pub fn summary(&self, programs: &[String]) -> String {
        let mut out = format!(
            "{} operations in {:.2} s; per program median ms (compile / fused / vectorized):\n",
            self.ops, self.loop_s
        );
        for (i, name) in programs.iter().enumerate() {
            let med =
                |m: &BTreeMap<usize, Vec<f64>>| m.get(&i).map_or(f64::NAN, |s| stats::median(s));
            out.push_str(&format!(
                "  {name:<16} {:>9.3} {:>9.3} {:>9.3}\n",
                med(&self.compile_ms),
                med(&self.exec_ms[FUSED]),
                med(&self.exec_ms[VECTORIZED])
            ));
        }
        out
    }

    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.loop_s
    }

    fn compile_geomean(&self) -> f64 {
        geomean_of_medians(&self.compile_ms)
    }

    fn exec_geomean(&self, profile: usize) -> f64 {
        geomean_of_medians(&self.exec_ms[profile])
    }

    fn end_to_end(&self, setup_s: f64, peak_rss_mb: f64) -> Values {
        let mut v = Values::new();
        v.insert("setup_s".into(), setup_s);
        v.insert("peak_rss_mb".into(), peak_rss_mb);
        v.insert("compile_ms_geomean".into(), self.compile_geomean());
        v.insert("exec_ms_geomean.fused".into(), self.exec_geomean(FUSED));
        v.insert(
            "exec_ms_geomean.vectorized".into(),
            self.exec_geomean(VECTORIZED),
        );
        v.insert("ops_per_s".into(), self.ops_per_s());
        v
    }
}

/// One workload: set-up, a measured closed loop, and a check against
/// references.
pub trait Workload: Sized {
    /// Generates the inputs from `seed` and registers them. Timed as
    /// `setup_s`.
    fn setup(seed: u64, size: Size, trace: &mut Trace, tag: Tag) -> Result<Self, String>;

    /// Program names, indexed like [`trace::Tag::program`].
    fn programs(&self) -> Vec<String>;

    /// Runs the closed loop for about `budget`, keeping results for
    /// [`Workload::check`]. With tracing on, also feeds `layers`.
    fn measure(&mut self, budget: Duration, trace: &mut Trace, layers: &mut Layers) -> Measured;

    /// Computes the references and compares the kept results; returns
    /// every mismatch.
    fn check(&mut self) -> Vec<String>;
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every kept result matched its reference.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The mode's metrics.
    pub values: Values,
    /// Mismatches and trace inconsistencies, for the error stream.
    pub problems: Vec<String>,
    /// The first few failure messages of the measured operations.
    pub errors: Vec<String>,
    /// The trace of a traced run, with its program names.
    pub trace: Option<(Trace, Vec<String>)>,
    /// The per-layer collectors of a traced run (empty otherwise).
    pub layers: Layers,
}

/// `Relation::approx_eq(1e-6)` after canonicalizing row order, with the
/// first difference on a mismatch.
pub fn compare(expected: &Relation, actual: &Relation) -> Result<(), String> {
    let (e, a) = (expected.canonicalized(), actual.canonicalized());
    if e.approx_eq(&a, 1e-6) {
        Ok(())
    } else {
        Err(e.diff(&a, 1e-6).unwrap_or_else(|| "results differ".into()))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sets up `W` several times (median → `setup_s`), measures
/// for `seconds`, then checks. A traced run spends the first half of
/// `seconds` untraced and the second half traced.
pub fn run<W: Workload>(
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
) -> Result<Outcome, String> {
    let mut trace = Trace::new(traced);
    let mut setup_s = Vec::new();
    let mut state: Option<W> = None;
    let first = Instant::now();
    while setup_s.len() < size.setup_reps.max(1)
        || (setup_s.len() < MAX_SETUPS && first.elapsed().as_secs_f64() < size.setup_min_s)
    {
        // Free the previous set-up before timing the next.
        drop(state.take());
        let tag = trace.tag(0);
        let start = Instant::now();
        let built = trace.span("setup", tag, |t| W::setup(seed, size, t, tag))?;
        setup_s.push(start.elapsed().as_secs_f64());
        state = Some(built);
    }
    let mut w = state.expect("at least one set-up ran");
    let setup_s = stats::median(&setup_s);
    let budget = Duration::from_secs_f64(seconds);

    let mut layers = Layers::default();
    let (values, attempted, failed, errors) = if traced {
        let half = budget / 2;
        let plain = w.measure(half, &mut Trace::new(false), &mut Layers::default());
        let traced_m = w.measure(half, &mut trace, &mut layers);
        let values = layers.values(&trace, &plain, &traced_m);
        (
            values,
            plain.attempted + traced_m.attempted,
            plain.failed + traced_m.failed,
            [plain.errors, traced_m.errors].concat(),
        )
    } else {
        let m = w.measure(budget, &mut trace, &mut layers);
        eprint!("{}", m.summary(&w.programs()));
        let values = m.end_to_end(setup_s, peak_rss_mb());
        (values, m.attempted, m.failed, m.errors)
    };

    let mut problems = w.check();
    if traced {
        if let Err(e) = trace
            .check_nesting()
            .and_then(|_| layers.check_appends(&trace))
        {
            problems.push(format!("trace: {e}"));
        }
        problems.extend(layers.problems.iter().cloned());
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        values,
        problems,
        errors,
        trace: traced.then(|| (trace, w.programs())),
        layers,
    })
}
