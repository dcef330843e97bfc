//! `append_views`: TPC-H lineitem under a stream of appends with five
//! standing views, three of them `@pytond` programs. Each step appends one batch with
//! `Pytond::append` (which refreshes the views), reads every view, and
//! every few steps runs TPC-H Q1 with `Pytond::run` on both profiles
//! against the new snapshot, at 1 engine thread. After a cycle of appends
//! the base lineitem is registered again, so the table grows by at most
//! about a fifth and the samples stay comparable.
//!
//! Why: it covers copy-on-append, incremental statistics, view refresh by
//! delta and by recompute, and plan-cache invalidation, which the other
//! workloads never run. Reads run beside the writes, so a gain on one side
//! that costs the other shows.

use crate::compile::{compile_round, run_program};
use crate::layers::{AppendSample, Layers};
use crate::tpch::register;
use crate::trace::{Tag, Trace};
use crate::{compare, Measured, Size, Workload, FUSED, PROFILE_NAMES, VECTORIZED};
use pytond::{Pytond, RefreshMode};
use pytond_common::Relation;
use pytond_tpch::{generate_seeded, query, TpchData};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Engine threads.
pub const THREADS: usize = 1;

/// Steps between two analytics runs.
pub const ANALYTICS_EVERY: usize = 5;

/// The standing `@pytond` views: a filter, a filtered group-by and a
/// top-N. Every `@pytond` program compiles to `WITH v AS (…) SELECT * FROM
/// v`, and the view maintainer recomputes any plan with CTEs, so all three
/// currently refresh by recompute.
pub const VIEWS: [(&str, &str); 3] = [
    (
        "big_lines",
        r#"
@pytond
def big_lines(lineitem):
    li = lineitem[lineitem.l_quantity >= 49]
    return li[['l_orderkey', 'l_linenumber', 'l_quantity', 'l_extendedprice']]
"#,
    ),
    (
        "flag_totals",
        r#"
@pytond
def flag_totals(lineitem):
    li = lineitem[lineitem.l_discount >= 0.05]
    return li.groupby(['l_returnflag', 'l_linestatus']).agg(
        n=('l_quantity', 'count'),
        qty=('l_quantity', 'sum'),
        price=('l_extendedprice', 'sum'))
"#,
    ),
    (
        "top_prices",
        r#"
@pytond
def top_prices(lineitem):
    li = lineitem[lineitem.l_quantity <= 2]
    return li.sort_values(by=['l_extendedprice', 'l_orderkey', 'l_linenumber'], ascending=[False, True, True]).head(10)
"#,
    ),
];

/// The first two views written as plain SQL and registered with
/// `Database::register_view_with`; without the CTE they refresh by delta
/// (chain and aggregate), so the append stream also runs the delta path.
pub const SQL_VIEWS: [(&str, &str); 2] = [
    (
        "big_lines_sql",
        "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice FROM lineitem WHERE l_quantity >= 49",
    ),
    (
        "flag_totals_sql",
        "SELECT l_returnflag, l_linestatus, COUNT(l_quantity) AS n, SUM(l_quantity) AS qty, \
         SUM(l_extendedprice) AS price FROM lineitem WHERE l_discount >= 0.05 \
         GROUP BY l_returnflag, l_linestatus",
    ),
];

/// Names of every standing view.
fn view_names() -> impl Iterator<Item = &'static str> {
    VIEWS.iter().chain(&SQL_VIEWS).map(|(name, _)| *name)
}

/// The analytics query: TPC-H Q1.
const ANALYTICS_QUERY: usize = 1;

/// Program index of the analytics query; the views come first.
const ANALYTICS: usize = VIEWS.len();

/// Program index of the append steps themselves.
const STEP: usize = ANALYTICS + 1;

/// Seed offset of the generator that produces the append batches.
const BATCH_SEED_SALT: u64 = 0x5eed_ba7c;

/// The `append_views` workload.
pub struct AppendViews {
    size: Size,
    data: TpchData,
    batches: Vec<Relation>,
    py: Pytond,
    /// Appends since the base lineitem was last registered.
    appended: usize,
    /// The latest Q1 result per profile, with the appends it saw.
    kept: BTreeMap<usize, (usize, Relation)>,
    /// View results that differed from `Database::view_oracle`.
    view_problems: Vec<String>,
}

fn slice(rel: &Relation, start: usize, end: usize) -> Relation {
    Relation::new(
        rel.columns()
            .iter()
            .map(|(n, c)| (n.clone(), c.slice(start, end)))
            .collect(),
    )
    .expect("slices of one relation stay rectangular")
}

/// `base` with `batches` appended.
fn concat(base: &Relation, batches: &[Relation]) -> pytond_common::Result<Relation> {
    let mut cols: Vec<(String, pytond_common::Column)> = base.columns().to_vec();
    for b in batches {
        for ((_, col), (_, add)) in cols.iter_mut().zip(b.columns()) {
            col.append(add)?;
        }
    }
    Relation::new(cols)
}

impl AppendViews {
    /// Registers the base lineitem again; the views recompute. Untimed.
    fn restore(&mut self) {
        self.py
            .register_table("lineitem", self.data.lineitem.clone(), &[]);
        self.appended = 0;
    }

    /// Every view against a from-scratch recompute of its plan on the
    /// current snapshot. Untimed.
    fn check_views(&mut self) {
        for name in view_names() {
            let state = self.py.view(name);
            let oracle = self.py.database().view_oracle(name);
            match (state, oracle) {
                (Ok(s), Ok(o)) if s.relation() == &o => {}
                (Ok(_), Ok(_)) => self.view_problems.push(format!(
                    "view {name} differs from its recompute after {} appends",
                    self.appended
                )),
                (s, o) => self.view_problems.push(format!(
                    "view {name} could not be read or recomputed: {:?} / {:?}",
                    s.err(),
                    o.err()
                )),
            }
        }
    }

    /// One step: append, read the views, and every
    /// [`ANALYTICS_EVERY`] steps run Q1 on both profiles.
    fn step(&mut self, step: usize, trace: &mut Trace, layers: &mut Layers, m: &mut Measured) {
        let tag = trace.tag(STEP);
        let batch = &self.batches[self.appended];
        let py = &self.py;
        let (appended, read_ms, states) = trace.span("op", tag, |t| {
            let (appended, append_ns) =
                t.span_timed("core.append", tag, |_| py.append("lineitem", batch));
            let read_start = Instant::now();
            let states = t.span("read", tag, |t| {
                let states: Vec<_> = view_names()
                    .map(|name| (name, t.span("core.view", tag, |_| py.view(name))))
                    .collect();
                if step.is_multiple_of(ANALYTICS_EVERY) {
                    for profile in [FUSED, VECTORIZED] {
                        let qtag = Tag {
                            program: ANALYTICS,
                            ..tag
                        };
                        let q1 = query(ANALYTICS_QUERY).source;
                        let e0 = Instant::now();
                        let out = run_program(py, q1, profile, THREADS, qtag, t, layers);
                        let ms = e0.elapsed().as_secs_f64() * 1e3;
                        m.attempted += 1;
                        match out {
                            Ok(rel) => {
                                m.exec_ms[profile].entry(ANALYTICS).or_default().push(ms);
                                self.kept.insert(profile, (self.appended + 1, rel));
                            }
                            Err(e) => m.fail(format!("Q1 on {}: {e}", PROFILE_NAMES[profile])),
                        }
                    }
                }
                states
            });
            (
                appended.map(|_| append_ns),
                read_start.elapsed().as_secs_f64() * 1e3,
                states,
            )
        });
        m.attempted += 1 + states.len() as u64;
        let mut ok = true;
        match appended {
            Ok(append_ns) => {
                self.appended += 1;
                let version = self.py.database().stats_version();
                let mut sample = AppendSample {
                    append_ns,
                    ..AppendSample::default()
                };
                for (name, state) in states {
                    match state {
                        Ok(s) if s.snapshot_version() == version => {
                            sample.refresh_ns += s.refresh_ns();
                            sample.rows_propagated += s.rows_propagated();
                            sample.refreshes += 1;
                            sample.delta += u64::from(s.mode() == RefreshMode::Delta);
                        }
                        Ok(s) => {
                            ok = false;
                            m.fail(format!(
                                "view {name} read stale at v{} of v{version}",
                                s.snapshot_version()
                            ));
                        }
                        Err(e) => {
                            ok = false;
                            m.fail(format!("view {name}: {e}"));
                        }
                    }
                }
                if trace.enabled() {
                    layers.appends.push(sample);
                    layers.read_ms.push(read_ms);
                }
            }
            Err(e) => {
                ok = false;
                m.fail(format!("append: {e}"));
            }
        }
        if ok {
            m.ops += 1;
        }
    }
}

impl Workload for AppendViews {
    fn setup(seed: u64, size: Size, trace: &mut Trace, tag: Tag) -> Result<Self, String> {
        let data = generate_seeded(size.tpch_sf, seed);
        let needed = size.batch_rows * size.cycle_appends;
        // lineitem holds about 6M rows per unit of scale factor.
        let batch_sf = needed as f64 / 6.0e6 * 1.25;
        let source = generate_seeded(batch_sf, seed ^ BATCH_SEED_SALT).lineitem;
        if source.num_rows() < needed {
            return Err(format!(
                "batch generator gave {} lineitem rows, {needed} needed",
                source.num_rows()
            ));
        }
        let batches = (0..size.cycle_appends)
            .map(|i| slice(&source, i * size.batch_rows, (i + 1) * size.batch_rows))
            .collect();
        let py = Pytond::new();
        register(&py, &data, trace, tag);
        for (name, source) in VIEWS {
            trace
                .span("core.register_view", tag, |_| {
                    py.register_view(name, source, &crate::backend(FUSED, THREADS))
                })
                .map_err(|e| format!("registering view {name}: {e}"))?;
        }
        for (name, sql) in SQL_VIEWS {
            trace
                .span("sqldb.register_view_with", tag, |_| {
                    py.database().register_view_with(
                        name,
                        sql,
                        &crate::backend(FUSED, THREADS).config(),
                    )
                })
                .map_err(|e| format!("registering view {name}: {e}"))?;
        }
        Ok(AppendViews {
            size,
            data,
            batches,
            py,
            appended: 0,
            kept: BTreeMap::new(),
            view_problems: Vec::new(),
        })
    }

    fn programs(&self) -> Vec<String> {
        let mut out: Vec<String> = VIEWS.iter().map(|(n, _)| n.to_string()).collect();
        out.push("Q1".into());
        out.push("step".into());
        out
    }

    fn measure(&mut self, budget: Duration, trace: &mut Trace, layers: &mut Layers) -> Measured {
        let mut m = Measured::default();
        layers.program_metric = vec![None; STEP + 1];
        layers.program_metric[ANALYTICS] = Some("Q1".into());
        self.restore();
        let mut sources: Vec<(usize, &str)> = VIEWS
            .iter()
            .enumerate()
            .map(|(i, (_, s))| (i, *s))
            .collect();
        sources.push((ANALYTICS, query(ANALYTICS_QUERY).source));

        // Restores, view checks and compile rounds are not part of the
        // loop's time.
        let mut paused = Duration::ZERO;
        let loop_start = Instant::now();
        let mut step: usize = 0;
        loop {
            let p0 = Instant::now();
            if self.appended == self.size.cycle_appends {
                // End on a whole cycle, so every run holds the same mix
                // of table sizes and analytics steps.
                if loop_start.elapsed() >= budget {
                    break;
                }
                self.check_views();
                self.restore();
            }
            if step.is_multiple_of(ANALYTICS_EVERY) {
                compile_round(&self.py, &sources, trace, layers, &mut m);
            }
            paused += p0.elapsed();
            self.step(step, trace, layers, &mut m);
            step += 1;
        }
        m.loop_s = (loop_start.elapsed() - paused).as_secs_f64();
        self.check_views();
        layers.cached_plans = self.py.cached_plans();
        m
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = std::mem::take(&mut self.view_problems);
        let q1 = query(ANALYTICS_QUERY);
        for profile in [FUSED, VECTORIZED] {
            let name = PROFILE_NAMES[profile];
            let Some((appended, actual)) = self.kept.get(&profile) else {
                problems.push(format!("Q1 on {name} produced no result"));
                continue;
            };
            let mut data = self.data.clone();
            data.lineitem = match concat(&data.lineitem, &self.batches[..*appended]) {
                Ok(r) => r,
                Err(e) => {
                    problems.push(format!("lineitem with {appended} appends: {e}"));
                    continue;
                }
            };
            match q1.run_baseline(&data) {
                Ok(expected) => {
                    if let Err(d) = compare(&expected, actual) {
                        problems.push(format!(
                            "Q1 on {name} after {appended} appends differs: {d}"
                        ));
                    }
                }
                Err(e) => problems.push(format!("Q1 reference failed: {e}")),
            }
        }
        problems
    }
}
