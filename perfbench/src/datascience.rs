//! `datascience`: the eight notebook and hybrid programs of Fig. 5/6 and
//! the Fig. 9 covariance in its dense and sparse layout. Every operation
//! compiles one program cold with `Pytond::compile_at` at O4 and runs it
//! with `Pytond::execute` at 1 engine thread, alternating the Fused and the
//! Vectorized profile; both steps are timed apart.
//!
//! Why: compiling a notebook takes about as long as running it, so the
//! front-end layers do most of their work here. Dense covariance runs the
//! 256-SUM wide aggregate. The inputs fit in cache.
//!
//! The notebook and hybrid generators have fixed seeds inside
//! `pytond-workloads`; only the covariance matrices take `--seed`.

use crate::compile::{compile, exec_traced};
use crate::layers::Layers;
use crate::metrics::{program_name, NOTEBOOK_PROGRAMS};
use crate::trace::{Tag, Trace};
use crate::{backend, compare, Measured, Size, Workload, FUSED, PROFILE_NAMES, VECTORIZED};
use pytond::Pytond;
use pytond_common::{Column, Relation};
use pytond_ndarray::{einsum, NdArray};
use pytond_workloads::{all_workloads, covariance as cov, Workload as Notebook};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Engine threads.
pub const THREADS: usize = 1;

/// Columns of the covariance matrices.
const COV_COLS: usize = 16;

/// Non-zero share of the sparse covariance matrix.
const COV_SPARSITY: f64 = 0.001;

/// What a program's result is checked against.
enum Reference {
    /// The interpreted `pytond-frame` baseline.
    Notebook(Notebook),
    /// `pytond_ndarray::einsum("ij,ik->jk")` of the matrix.
    Covariance { matrix: NdArray, sparse: bool },
}

struct Program {
    name: String,
    source: &'static str,
    py: Pytond,
    reference: Reference,
}

/// The `datascience` workload.
pub struct DataScience {
    programs: Vec<Program>,
    /// First result per (profile, program).
    kept: BTreeMap<(usize, usize), Relation>,
}

fn register_tables(
    tables: &[pytond_workloads::WorkloadTable],
    trace: &mut Trace,
    tag: Tag,
) -> Pytond {
    let py = Pytond::new();
    for (name, rel, unique) in tables {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        trace.span("core.register_table", tag, |_| {
            py.register_table(name, rel.clone(), &keys)
        });
    }
    py
}

impl Workload for DataScience {
    fn setup(seed: u64, size: Size, trace: &mut Trace, tag: Tag) -> Result<Self, String> {
        let mut programs = Vec::new();
        for (w, expected) in all_workloads(1).into_iter().zip(NOTEBOOK_PROGRAMS) {
            let name = program_name(w.name);
            if name != expected {
                return Err(format!(
                    "workload {} is not the expected {expected}",
                    w.name
                ));
            }
            programs.push(Program {
                name,
                source: w.source,
                py: register_tables(&w.tables, trace, tag),
                reference: Reference::Notebook(w),
            });
        }
        for (name, sparsity, sparse) in [
            ("cov_dense", 1.0, false),
            ("cov_sparse", COV_SPARSITY, true),
        ] {
            let salt = u64::from(sparse);
            let matrix =
                cov::gen_matrix(size.cov_rows, COV_COLS, sparsity, seed.wrapping_add(salt));
            let (rel, unique, source): (Relation, &[&[&str]], _) = if sparse {
                (
                    cov::sparse_relation(&matrix),
                    &[],
                    cov::covariance_sparse_source(),
                )
            } else {
                (
                    cov::dense_relation(&matrix),
                    &[&["__id"]],
                    cov::covariance_dense_source(),
                )
            };
            let py = Pytond::new();
            trace.span("core.register_table", tag, |_| {
                py.register_table("m", rel, unique)
            });
            programs.push(Program {
                name: name.to_string(),
                source,
                py,
                reference: Reference::Covariance { matrix, sparse },
            });
        }
        Ok(DataScience {
            programs,
            kept: BTreeMap::new(),
        })
    }

    fn programs(&self) -> Vec<String> {
        self.programs.iter().map(|p| p.name.clone()).collect()
    }

    fn measure(&mut self, budget: Duration, trace: &mut Trace, layers: &mut Layers) -> Measured {
        layers.program_metric = self.programs().into_iter().map(Some).collect();
        // One untimed pass: lazy set-up in the engine and the allocator.
        for p in &self.programs {
            for profile in [FUSED, VECTORIZED] {
                if let Ok(c) = p.py.compile_at(
                    p.source,
                    crate::compile::dialect(profile),
                    pytond::OptLevel::O4,
                ) {
                    let _ = p.py.execute(&c, &backend(profile, THREADS));
                }
            }
        }

        let mut m = Measured::default();
        let start = Instant::now();
        loop {
            for (i, p) in self.programs.iter().enumerate() {
                for profile in [FUSED, VECTORIZED] {
                    let tag = trace.tag(i);
                    let backend = backend(profile, THREADS);
                    let (out, exec) = trace.span("op", tag, |t| {
                        let (compiled, compile_ms) =
                            compile(&p.py, p.source, profile, tag, t, layers);
                        let compiled = match compiled {
                            Ok(c) => c,
                            Err(e) => return (Err(e), 0.0),
                        };
                        let t1 = Instant::now();
                        let out = if t.enabled() {
                            exec_traced(
                                &p.py,
                                &compiled.prepared,
                                &backend,
                                profile,
                                tag,
                                t,
                                layers,
                            )
                        } else {
                            p.py.execute(&compiled, &backend)
                        };
                        (
                            out.map(|r| (r, compile_ms)),
                            t1.elapsed().as_secs_f64() * 1e3,
                        )
                    });
                    m.attempted += 1;
                    match out {
                        Ok((rel, compile_ms)) => {
                            m.ops += 1;
                            m.compile_ms.entry(i).or_default().push(compile_ms);
                            m.exec_ms[profile].entry(i).or_default().push(exec);
                            self.kept.entry((profile, i)).or_insert(rel);
                        }
                        Err(e) => m.fail(format!("{} on {}: {e}", p.name, PROFILE_NAMES[profile])),
                    }
                }
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        m.loop_s = start.elapsed().as_secs_f64();
        layers.cached_plans = self.programs.iter().map(|p| p.py.cached_plans()).sum();
        m
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, p) in self.programs.iter().enumerate() {
            let expected = match reference(&p.reference) {
                Ok(r) => r,
                Err(e) => {
                    problems.push(format!("{} reference failed: {e}", p.name));
                    continue;
                }
            };
            for profile in [FUSED, VECTORIZED] {
                let name = PROFILE_NAMES[profile];
                let Some(actual) = self.kept.get(&(profile, i)) else {
                    problems.push(format!("{} on {name} produced no result", p.name));
                    continue;
                };
                let actual = normalize(&p.reference, actual);
                if let Err(d) = actual.and_then(|a| compare(&expected, &a)) {
                    problems.push(format!(
                        "{} on {name} differs from its reference: {d}",
                        p.name
                    ));
                }
            }
        }
        problems
    }
}

/// Drops generated id columns whose numbering differs between the two
/// paths (`row_number()` is 1-based, NumPy indices 0-based).
fn strip_ids(rel: &Relation) -> Relation {
    let cols: Vec<(String, Column)> = rel
        .columns()
        .iter()
        .filter(|(n, _)| n != "__id" && n != "row_id" && n != "col_id")
        .cloned()
        .collect();
    Relation::new(cols).expect("a column subset stays rectangular")
}

/// The reference relation, in the shape [`normalize`] gives results: the
/// baseline (ids stripped where they differ by convention), or the
/// covariance as `(j, k, v)` cells — all of them for the dense layout,
/// the non-zero ones for the sparse layout.
fn reference(r: &Reference) -> Result<Relation, String> {
    match r {
        Reference::Notebook(w) => {
            let out = (w.baseline)(&w.tables).map_err(|e| e.to_string())?;
            Ok(if w.ignore_id_cols {
                strip_ids(&out)
            } else {
                out
            })
        }
        Reference::Covariance { matrix, sparse } => {
            let c = einsum("ij,ik->jk", &[matrix, matrix]).map_err(|e| e.to_string())?;
            let cells = (0..COV_COLS)
                .flat_map(|j| (0..COV_COLS).map(move |k| (j, k)))
                .map(|(j, k)| (j, k, c.get(&[j, k])))
                .filter(|&(_, _, v)| !*sparse || v != 0.0);
            Ok(cells_relation(cells))
        }
    }
}

fn cells_relation(cells: impl Iterator<Item = (usize, usize, f64)>) -> Relation {
    let (mut js, mut ks, mut vs) = (Vec::new(), Vec::new(), Vec::new());
    for (j, k, v) in cells {
        js.push(j as i64);
        ks.push(k as i64);
        vs.push(v);
    }
    Relation::new(vec![
        ("j".into(), Column::from_i64(js)),
        ("k".into(), Column::from_i64(ks)),
        ("v".into(), Column::from_f64(vs)),
    ])
    .expect("equal-length cell columns")
}

/// A result in the reference's shape.
fn normalize(r: &Reference, actual: &Relation) -> Result<Relation, String> {
    match r {
        Reference::Notebook(w) => Ok(if w.ignore_id_cols {
            strip_ids(actual)
        } else {
            actual.clone()
        }),
        Reference::Covariance { sparse: false, .. } => {
            let mut cells = Vec::new();
            for j in 0..actual.num_rows() {
                for k in 0..COV_COLS {
                    let v = actual
                        .get(j, &format!("c{k}"))
                        .and_then(|v| v.as_f64())
                        .ok_or_else(|| format!("dense covariance lacks cell ({j}, c{k})"))?;
                    cells.push((j, k, v));
                }
            }
            Ok(cells_relation(cells.into_iter()))
        }
        Reference::Covariance { sparse: true, .. } => {
            let mut cells = Vec::new();
            for i in 0..actual.num_rows() {
                let get = |c: &str| {
                    actual
                        .get(i, c)
                        .ok_or_else(|| format!("sparse covariance lacks {c}"))
                };
                let j = get("row_id")?.as_i64().ok_or("row_id is not an integer")?;
                let k = get("col_id")?.as_i64().ok_or("col_id is not an integer")?;
                let v = get("val")?.as_f64().ok_or("val is not a number")?;
                if v != 0.0 {
                    cells.push((j as usize, k as usize, v));
                }
            }
            Ok(cells_relation(cells.into_iter()))
        }
    }
}
