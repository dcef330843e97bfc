//! Cold compiles and traced executions shared by the workloads.

use crate::layers::Layers;
use crate::trace::{Tag, Trace};
use crate::{Measured, FUSED, VECTORIZED};
use pytond::{Backend, Compiled, Dialect, OptLevel, PreparedQuery, Pytond};
use pytond_common::{Error, Relation, Result};

/// The SQL dialect paired with a profile index.
pub fn dialect(profile: usize) -> Dialect {
    if profile == FUSED {
        Dialect::Hyper
    } else {
        Dialect::DuckDb
    }
}

/// One cold `Pytond::compile_at` at O4, timed (ms). A traced run then
/// repeats the facade's front-end sequence as separate layer calls under a
/// `frontend` span, so each layer gets its own span; the facade call
/// itself stays whole.
pub fn compile(
    py: &Pytond,
    source: &str,
    profile: usize,
    tag: Tag,
    trace: &mut Trace,
    layers: &mut Layers,
) -> (Result<Compiled>, f64) {
    let (compiled, ns) = trace.span_timed("core.compile_at", tag, |_| {
        py.compile_at(source, dialect(profile), OptLevel::O4)
    });
    let ms = ns as f64 / 1e6;
    if let (true, Ok(c)) = (trace.enabled(), &compiled) {
        layers.ir.entry(tag.program).or_insert((
            c.raw_ir.rules.len(),
            c.optimized_ir.rules.len(),
            c.sql.len(),
        ));
        if let Err(e) = frontend(py, source, profile, tag, trace) {
            layers.problems.push(format!(
                "front-end layers failed where compile_at did not: {e}"
            ));
        }
    }
    (compiled, ms)
}

/// The steps of `Pytond::compile_at`, one span per layer call.
fn frontend(py: &Pytond, source: &str, profile: usize, tag: Tag, trace: &mut Trace) -> Result<()> {
    trace.span("frontend", tag, |t| {
        let catalog = py.catalog();
        let module = t.span("pyparse.parse_module", tag, |_| {
            pytond_pyparse::parse_module(source)
        })?;
        let raw = t.span("translate.translate_function", tag, |_| {
            let funcs = module.decorated_functions("pytond");
            let func = funcs
                .first()
                .ok_or_else(|| Error::Translate("no @pytond-decorated function found".into()))?;
            pytond_translate::translate_function(func, &catalog)
        })?;
        t.span("tondir.validate", tag, |_| {
            pytond_tondir::analysis::validate(&raw, &catalog)
        })?;
        let optimized = t.span("optimizer.optimize", tag, |_| {
            pytond_optimizer::optimize(raw, &catalog, OptLevel::O4)
        });
        t.span("tondir.validate", tag, |_| {
            pytond_tondir::analysis::validate(&optimized, &catalog)
        })?;
        t.span("sqlgen.generate_sql", tag, |_| {
            pytond_sqlgen::generate_sql(&optimized, &catalog, dialect(profile))
        })?;
        t.span("sqldb.lower.prepare_program", tag, |_| {
            pytond_sqldb::lower::prepare_program(
                py.database(),
                &optimized,
                &catalog,
                Backend::profile_for(dialect(profile)),
            )
        })?;
        Ok(())
    })
}

/// Compiles every `(program, source)` once on each dialect; samples go to
/// `m.compile_ms`. Workloads whose loop does not compile run one round per
/// pass, so compile samples spread over the whole run.
pub fn compile_round(
    py: &Pytond,
    sources: &[(usize, &str)],
    trace: &mut Trace,
    layers: &mut Layers,
    m: &mut Measured,
) {
    for &(program, source) in sources {
        for profile in [FUSED, VECTORIZED] {
            let tag = trace.tag(program);
            let (res, ms) = compile(py, source, profile, tag, trace, layers);
            m.attempted += 1;
            match res {
                Ok(_) => m.compile_ms.entry(program).or_default().push(ms),
                Err(e) => m.fail(format!("compile of program {program}: {e}")),
            }
        }
    }
}

/// Executes a prepared plan through `execute_prepared_traced` in a span and
/// records its counters.
pub fn exec_traced(
    py: &Pytond,
    prepared: &PreparedQuery,
    backend: &Backend,
    profile: usize,
    tag: Tag,
    trace: &mut Trace,
    layers: &mut Layers,
) -> Result<Relation> {
    let (out, ns) = trace.span_timed("sqldb.exec.execute_prepared_traced", tag, |_| {
        py.database()
            .execute_prepared_traced(prepared, &backend.config())
    });
    let (rel, qt) = out?;
    layers.record_exec(profile, tag.program, ns as f64 / 1e6, &qt.metrics);
    Ok(rel)
}

/// `Pytond::run` through the plan cache: plain, or in a traced run as a
/// `core.prepare` span and a traced execution.
pub fn run_program(
    py: &Pytond,
    source: &str,
    profile: usize,
    threads: usize,
    tag: Tag,
    trace: &mut Trace,
    layers: &mut Layers,
) -> Result<Relation> {
    let backend = crate::backend(profile, threads);
    if !trace.enabled() {
        return py.run(source, &backend);
    }
    let prepared = trace.span("core.prepare", tag, |_| {
        py.prepare(source, &backend, OptLevel::O4)
    })?;
    exec_traced(py, &prepared, &backend, profile, tag, trace, layers)
}
