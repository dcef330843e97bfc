//! `tpch`: the 22 TPC-H `@pytond` queries round-robin through
//! `Pytond::run` with a warm plan cache, alternating the Fused and the
//! Vectorized profile at 2 engine threads.
//!
//! Why: the paper's Fig. 3/4. Execution dominates, lineitem is larger
//! than the CPU caches, and it is the only workload that uses the worker
//! pool. Every pass also compiles all 22 queries cold, timed apart from
//! the runs.

use crate::compile::{compile_round, run_program};
use crate::layers::Layers;
use crate::trace::{Tag, Trace};
use crate::{compare, Measured, Size, Workload, FUSED, VECTORIZED};
use pytond::Pytond;
use pytond_common::Relation;
use pytond_tpch::{all_queries, generate_seeded, Query, TpchData};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Engine threads of both profiles.
pub const THREADS: usize = 2;

/// Registers every TPC-H table, one `core.register_table` span each.
pub fn register(py: &Pytond, data: &TpchData, trace: &mut Trace, tag: Tag) {
    for (name, rel, unique) in data.tables() {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        trace.span("core.register_table", tag, |_| {
            py.register_table(name, rel.clone(), &keys)
        });
    }
}

/// The `tpch` workload.
pub struct Tpch {
    data: TpchData,
    py: Pytond,
    queries: Vec<Query>,
    /// First result per (profile, query index).
    kept: BTreeMap<(usize, usize), Relation>,
}

impl Workload for Tpch {
    fn setup(seed: u64, size: Size, trace: &mut Trace, tag: Tag) -> Result<Self, String> {
        let data = generate_seeded(size.tpch_sf, seed);
        let py = Pytond::new();
        register(&py, &data, trace, tag);
        Ok(Tpch {
            data,
            py,
            queries: all_queries(),
            kept: BTreeMap::new(),
        })
    }

    fn programs(&self) -> Vec<String> {
        self.queries.iter().map(|q| q.name.to_string()).collect()
    }

    fn measure(&mut self, budget: Duration, trace: &mut Trace, layers: &mut Layers) -> Measured {
        let mut m = Measured::default();
        layers.program_metric = self.programs().into_iter().map(Some).collect();
        let sources: Vec<(usize, &str)> = self
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| (i, q.source))
            .collect();
        let mut compiling = Duration::ZERO;
        // Warm the plan cache and the worker pool, untimed.
        for q in &self.queries {
            for profile in [FUSED, VECTORIZED] {
                let _ = self.py.run(q.source, &crate::backend(profile, THREADS));
            }
        }

        let loop_start = Instant::now();
        loop {
            let compile_start = Instant::now();
            compile_round(&self.py, &sources, trace, layers, &mut m);
            compiling += compile_start.elapsed();
            for (i, q) in self.queries.iter().enumerate() {
                for profile in [FUSED, VECTORIZED] {
                    let tag = trace.tag(i);
                    let (out, ns) = trace.span_timed("op", tag, |t| {
                        run_program(&self.py, q.source, profile, THREADS, tag, t, layers)
                    });
                    m.attempted += 1;
                    match out {
                        Ok(rel) => {
                            m.ops += 1;
                            m.exec_ms[profile]
                                .entry(i)
                                .or_default()
                                .push(ns as f64 / 1e6);
                            self.kept.entry((profile, i)).or_insert(rel);
                        }
                        Err(e) => m.fail(format!(
                            "{} on {}: {e}",
                            q.name,
                            crate::PROFILE_NAMES[profile]
                        )),
                    }
                }
            }
            if loop_start.elapsed() >= budget {
                break;
            }
        }
        m.loop_s = (loop_start.elapsed() - compiling).as_secs_f64();
        layers.cached_plans = self.py.cached_plans();
        m
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, q) in self.queries.iter().enumerate() {
            let expected = match q.run_baseline(&self.data) {
                Ok(r) => r,
                Err(e) => {
                    problems.push(format!("{} reference failed: {e}", q.name));
                    continue;
                }
            };
            for profile in [FUSED, VECTORIZED] {
                let name = crate::PROFILE_NAMES[profile];
                match self.kept.get(&(profile, i)) {
                    Some(actual) => {
                        if let Err(d) = compare(&expected, actual) {
                            problems.push(format!(
                                "{} on {name} differs from its reference: {d}",
                                q.name
                            ));
                        }
                    }
                    None => problems.push(format!("{} on {name} produced no result", q.name)),
                }
            }
        }
        problems
    }
}
