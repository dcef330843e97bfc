//! Differential testing of the compile/execute split. TondIR has one
//! lowering (`pytond_sqldb::lower::lower_program`); the engine prepares the
//! lowered AST directly, and `pytond_sqlgen` prints the same AST as the SQL
//! export. Two properties tie the paths together across every TPC-H query,
//! every hybrid workload, and all three dialect/profile pairs:
//!
//! - print → parse is the identity: the exported SQL parses back to exactly
//!   the lowered AST, up to the parser's `SUBSTR`/`CHAR_LENGTH` spelling
//!   aliases;
//! - the reference oracle: preparing the exported text and preparing the
//!   AST directly give equal EXPLAIN plans (join order included) and
//!   bit-identical results.

use pytond::{Backend, Dialect, EngineConfig, OptLevel, Profile, Pytond};
use pytond_sqldb::ast::{Select, SelectItem, SqlExpr, TableRef};
use pytond_sqldb::lower::{lower_program, prepare_program};
use pytond_sqldb::parser::parse_sql;
use pytond_tondir::Program;
use pytond_tpch::{all_queries, generate};
use pytond_workloads::all_workloads;

/// The paper's three backend pairings: SQL dialect × engine profile.
fn pairings() -> [(Dialect, Profile); 3] {
    [
        (Dialect::DuckDb, Profile::Vectorized),
        (Dialect::Hyper, Profile::Fused),
        (Dialect::LingoDb, Profile::Lingo),
    ]
}

/// TPC-H queries also checked unoptimized: O0 keeps every intermediate rule
/// (many more CTEs), which stresses the lowering over the largest programs.
const O0_QUERIES: [usize; 6] = [1, 4, 9, 13, 14, 15];

fn tpch_instance() -> Pytond {
    let data = generate(0.002);
    let py = Pytond::new();
    for (name, rel, unique) in data.tables() {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }
    py
}

/// Optimized TondIR for a source, bypassing the facade so the same program
/// can be pushed through both the text and the direct path.
fn optimize_ir(py: &Pytond, source: &str, level: OptLevel) -> Program {
    let raw = pytond_translate::translate_source(source, &py.catalog()).expect("translate");
    pytond_optimizer::optimize(raw, &py.catalog(), level)
}

/// Every hybrid workload on its own instance, with its optimized TondIR.
fn workload_programs() -> Vec<(Pytond, &'static str, Program)> {
    all_workloads(1)
        .into_iter()
        .map(|w| {
            let py = Pytond::new();
            for (name, rel, unique) in &w.tables {
                let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
                py.register_table(name, rel.clone(), &keys);
            }
            let ir = optimize_ir(&py, w.source, OptLevel::O4);
            (py, w.name, ir)
        })
        .collect()
}

/// Asserts the two paths agree for one program on one dialect/profile pair:
/// both fail (profile gates fire identically), or both succeed with equal
/// EXPLAIN text and bit-identical results.
fn assert_paths_agree(py: &Pytond, name: &str, ir: &Program, dialect: Dialect, profile: Profile) {
    let db = py.database();
    let sql = pytond_sqlgen::generate_sql(ir, &py.catalog(), dialect)
        .unwrap_or_else(|e| panic!("{name}: sqlgen failed: {e}"));
    let text = db.prepare(&sql, profile);
    let direct = prepare_program(db, ir, &py.catalog(), profile);
    match (text, direct) {
        (Err(te), Err(de)) => {
            // Typically the LingoDB profile gates (window functions, Q12's
            // disjunctive CASE aggregates): both paths must reject alike.
            assert_eq!(
                te.stage(),
                de.stage(),
                "{name} on {dialect:?}/{profile:?}: error stages diverge: {te} vs {de}"
            );
        }
        (Ok(text), Ok(direct)) => {
            assert_eq!(
                text.explain(),
                direct.explain(),
                "{name} on {dialect:?}/{profile:?}: EXPLAIN (join order) diverges"
            );
            let config = EngineConfig::new(profile, 1);
            let rt = db
                .execute_prepared(&text, &config)
                .unwrap_or_else(|e| panic!("{name} text path exec: {e}"));
            let rd = db
                .execute_prepared(&direct, &config)
                .unwrap_or_else(|e| panic!("{name} direct path exec: {e}"));
            assert!(
                rt.approx_eq(&rd, 0.0),
                "{name} on {dialect:?}/{profile:?}: results not bit-identical: {:?}",
                rt.diff(&rd, 0.0)
            );
        }
        (Ok(_), Err(e)) => panic!("{name} on {dialect:?}/{profile:?}: only direct failed: {e}"),
        (Err(e), Ok(_)) => panic!("{name} on {dialect:?}/{profile:?}: only text failed: {e}"),
    }
}

/// Asserts that every dialect's export of `ir` parses back to exactly the
/// lowered AST, after undoing the parser's two spelling aliases.
fn assert_round_trip(py: &Pytond, name: &str, ir: &Program) {
    let lowered =
        lower_program(ir, &py.catalog()).unwrap_or_else(|e| panic!("{name}: lowering failed: {e}"));
    for (dialect, _) in pairings() {
        let sql = pytond_sqlgen::generate_sql(ir, &py.catalog(), dialect)
            .unwrap_or_else(|e| panic!("{name} on {dialect:?}: sqlgen failed: {e}"));
        let mut parsed = parse_sql(&sql)
            .unwrap_or_else(|e| panic!("{name} on {dialect:?}: export does not parse: {e}\n{sql}"));
        for cte in &mut parsed.ctes {
            unalias_select(&mut cte.select);
        }
        unalias_select(&mut parsed.body);
        assert!(
            parsed == lowered,
            "{name} on {dialect:?}: print → parse is not the identity\n{sql}"
        );
    }
}

/// Renames the parser's spelling aliases back to the canonical names the
/// lowering emits: `SUBSTR` → `SUBSTRING`, `CHAR_LENGTH` → `LENGTH`.
fn unalias(e: &mut SqlExpr) {
    match e {
        SqlExpr::Func { name, args } => {
            match name.as_str() {
                "SUBSTR" => *name = "SUBSTRING".into(),
                "CHAR_LENGTH" => *name = "LENGTH".into(),
                _ => {}
            }
            args.iter_mut().for_each(unalias);
        }
        SqlExpr::Bin { left, right, .. } => {
            unalias(left);
            unalias(right);
        }
        SqlExpr::Not(x) | SqlExpr::IsNull { expr: x, .. } | SqlExpr::Like { expr: x, .. } => {
            unalias(x)
        }
        SqlExpr::InSubquery { expr, query, .. } => {
            unalias(expr);
            unalias_select(query);
        }
        SqlExpr::Case { arms, else_value } => {
            for (cond, value) in arms {
                unalias(cond);
                unalias(value);
            }
            if let Some(value) = else_value {
                unalias(value);
            }
        }
        SqlExpr::Agg { arg: Some(arg), .. } => unalias(arg),
        SqlExpr::RowNumber { order_by } => order_by.iter_mut().for_each(|(e, _)| unalias(e)),
        _ => {}
    }
}

fn unalias_select(s: &mut Select) {
    for item in &mut s.items {
        if let SelectItem::Expr { expr, .. } = item {
            unalias(expr);
        }
    }
    s.from.iter_mut().for_each(unalias_table);
    s.where_clause.iter_mut().for_each(unalias);
    s.group_by.iter_mut().for_each(unalias);
    s.order_by.iter_mut().for_each(|(e, _)| unalias(e));
    s.values.iter_mut().flatten().flatten().for_each(unalias);
}

fn unalias_table(t: &mut TableRef) {
    if let TableRef::Join {
        left, right, on, ..
    } = t
    {
        unalias_table(left);
        unalias_table(right);
        on.iter_mut().for_each(unalias);
    }
}

#[test]
fn tpch_direct_lowering_matches_sql_text_path_all_profiles() {
    let py = tpch_instance();
    for q in all_queries() {
        let ir = optimize_ir(&py, q.source, OptLevel::O4);
        for (dialect, profile) in pairings() {
            assert_paths_agree(&py, q.name, &ir, dialect, profile);
        }
    }
}

#[test]
fn tpch_unoptimized_ir_also_agrees() {
    let py = tpch_instance();
    for id in O0_QUERIES {
        let q = pytond_tpch::query(id);
        let ir = optimize_ir(&py, q.source, OptLevel::O0);
        for (dialect, profile) in pairings() {
            assert_paths_agree(&py, &format!("{}@O0", q.name), &ir, dialect, profile);
        }
    }
}

#[test]
fn hybrid_workloads_direct_lowering_matches_sql_text_path() {
    for (py, name, ir) in workload_programs() {
        for (dialect, profile) in pairings() {
            assert_paths_agree(&py, name, &ir, dialect, profile);
        }
    }
}

#[test]
fn exported_sql_parses_back_to_the_lowered_ast() {
    let py = tpch_instance();
    for q in all_queries() {
        assert_round_trip(&py, q.name, &optimize_ir(&py, q.source, OptLevel::O4));
    }
    for id in O0_QUERIES {
        let q = pytond_tpch::query(id);
        let name = format!("{}@O0", q.name);
        assert_round_trip(&py, &name, &optimize_ir(&py, q.source, OptLevel::O0));
    }
    for (py, name, ir) in workload_programs() {
        assert_round_trip(&py, name, &ir);
    }
}

#[test]
fn lingo_gated_queries_still_compile_for_export() {
    // The LingoDB profile rejects Q12's SQL shape (aggregates over
    // disjunctive CASE conditions), but `compile` must still produce the
    // SQL export — it targets the paper's real backend; the profile gate
    // fires at execute time, exactly as it did when SQL was the wire format.
    let py = tpch_instance();
    let q12 = pytond_tpch::query(12);
    let compiled = py.compile(q12.source, Dialect::LingoDb).unwrap();
    assert!(compiled.sql.starts_with("WITH"), "export SQL missing");
    let err = py.execute(&compiled, &Backend::lingodb_sim(1));
    assert!(err.is_err(), "lingo gate should fire at execute");
    // The ungated profile runs the same compiled program fine.
    assert!(py.execute(&compiled, &Backend::duckdb_sim(1)).is_ok());
    // And run() on the lingo backend still errors (gate at prepare).
    assert!(py.run(q12.source, &Backend::lingodb_sim(1)).is_err());
}

#[test]
fn facade_run_matches_exported_sql_execution() {
    // End-to-end: `Pytond::run` (cached direct plan) must equal executing
    // the exported SQL text through the engine — the facade-level statement
    // of the same property.
    let py = tpch_instance();
    for id in [3, 6, 12, 18] {
        let q = pytond_tpch::query(id);
        let backend = Backend::duckdb_sim(1);
        let compiled = py.compile(q.source, backend.dialect()).unwrap();
        let via_run = py.run(q.source, &backend).unwrap();
        let via_sql = py
            .database()
            .execute_sql(&compiled.sql, &backend.config())
            .unwrap();
        assert!(
            via_run.approx_eq(&via_sql, 0.0),
            "{}: run() diverges from exported-SQL execution",
            q.name
        );
    }
}
