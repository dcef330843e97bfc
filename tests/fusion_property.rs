//! Differential property tests for fused single-pass pipelines: under the
//! fused profile every query must be **bit-identical** — `Value::total_cmp`
//! per cell, so NaN payloads and `-0.0` count — to the materializing
//! operator-at-a-time path, at every thread count. The fused analogue of
//! `tests/parallel_property.rs`.
//!
//! Why this holds by construction (and what this suite pins): fused scans
//! drive the same zone-aligned morsel grid as materializing scans, chunks
//! merge in ascending morsel order, and aggregate sinks rebuild the narrow
//! key/argument columns in that order before running the *same* fixed-grid
//! accumulation tree (`docs/EXECUTION.md` § Fusion). The materializing
//! reference is selected per query with `Profile::Vectorized`, so both
//! sides run in the same process.
//!
//! Coverage: all 22 TPC-H queries, every hybrid workload, the
//! stats-property corpus (dtypes × clustering × NULL patterns), NULL-heavy
//! and empty-table joins, at threads 1 / 2 / 7 / hardware.

use pytond::{Backend, EngineConfig, OptLevel, Profile, Pytond};
use pytond_common::{pool, Column, DType, Relation, Value};
use pytond_sqldb::Database;

/// The thread counts the fused candidate runs at.
fn thread_counts() -> Vec<usize> {
    vec![1, 2, 7, pool::hardware_threads().max(2)]
}

/// Small morsels so test-sized inputs span many-morsel grids.
const TEST_MORSEL: usize = 1024;

fn config(profile: Profile, threads: usize) -> EngineConfig {
    EngineConfig {
        profile,
        threads,
        morsel: TEST_MORSEL,
        zone_prune: true,
        ..EngineConfig::default()
    }
}

/// Exact equality under `Value::total_cmp` — see
/// `tests/parallel_property.rs` for the rationale.
fn assert_bit_identical(name: &str, reference: &Relation, candidate: &Relation) {
    assert_eq!(
        reference.num_cols(),
        candidate.num_cols(),
        "{name}: column count"
    );
    assert_eq!(
        reference.num_rows(),
        candidate.num_rows(),
        "{name}: row count"
    );
    for ci in 0..reference.num_cols() {
        let a = reference.column_at(ci);
        let b = candidate.column_at(ci);
        for i in 0..a.len() {
            let (va, vb) = (a.get(i), b.get(i));
            assert!(
                va.total_cmp(&vb) == std::cmp::Ordering::Equal,
                "{name}: cell ({i}, {}) differs: {va:?} vs {vb:?}",
                reference.name_at(ci)
            );
        }
    }
}

/// Compiles one source once, runs it materializing (vectorized profile,
/// serial — the oracle) and fused at every thread count, and asserts
/// bit-identity. One prepared plan feeds both paths, so any divergence is
/// the driver's, not the planner's.
fn check_source(name: &str, py: &Pytond, source: &str) {
    let backend = Backend {
        profile: Profile::Fused,
        threads: 1,
        timeout_ms: None,
        mem_budget_mb: None,
    };
    let prepared = py
        .prepare(source, &backend, OptLevel::O4)
        .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let reference = py
        .database()
        .execute_prepared(&prepared, &config(Profile::Vectorized, 1))
        .unwrap_or_else(|e| panic!("{name}: materializing run failed: {e}"));
    for threads in thread_counts() {
        let r = py
            .database()
            .execute_prepared(&prepared, &config(Profile::Fused, threads))
            .unwrap_or_else(|e| panic!("{name}/fused@{threads}t: run failed: {e}"));
        assert_bit_identical(&format!("{name}/fused@{threads}t"), &reference, &r);
    }
}

/// SQL-level variant of [`check_source`].
fn check_sql(name: &str, db: &Database, sql: &str) {
    let reference = db
        .execute_sql(sql, &config(Profile::Vectorized, 1))
        .unwrap_or_else(|e| panic!("{name}: materializing run failed: {e}"));
    for threads in thread_counts() {
        let r = db
            .execute_sql(sql, &config(Profile::Fused, threads))
            .unwrap_or_else(|e| panic!("{name}/fused@{threads}t: run failed: {e}"));
        assert_bit_identical(&format!("{name}/fused@{threads}t"), &reference, &r);
    }
}

#[test]
fn tpch_fused_matches_materializing() {
    let data = pytond_tpch::generate(0.002);
    let py = Pytond::new();
    for (name, rel, unique) in data.tables() {
        let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
        py.register_table(name, rel.clone(), &keys);
    }
    for q in pytond_tpch::all_queries() {
        check_source(q.name, &py, q.source);
    }
}

#[test]
fn hybrid_workloads_fused_matches_materializing() {
    for w in pytond_workloads::all_workloads(1) {
        let py = Pytond::new();
        for (name, rel, unique) in &w.tables {
            let keys: Vec<&[&str]> = unique.iter().map(|k| k.as_slice()).collect();
            py.register_table(name, rel.clone(), &keys);
        }
        check_source(w.name, &py, w.source);
    }
}

// ---------------- the stats-property corpus, re-run fused ----------------

fn key_value(i: usize, n: usize, domain: i64, clustered: bool) -> i64 {
    if clustered {
        (i as i64) * domain / (n as i64).max(1)
    } else {
        ((i as i64).wrapping_mul(2_654_435_761)).rem_euclid(domain)
    }
}

fn key_column(dtype: u8, n: usize, domain: i64, clustered: bool, null_every: usize) -> Column {
    let dt = match dtype {
        0 => DType::Int,
        1 => DType::Float,
        2 => DType::Date,
        _ => DType::Bool,
    };
    let mut col = Column::new(dt);
    for i in 0..n {
        if null_every > 0 && i % (null_every + 3) == 0 {
            col.push_null();
            continue;
        }
        let v = key_value(i, n, domain, clustered);
        let val = match dt {
            DType::Int => Value::Int(v),
            DType::Float => Value::Float(v as f64 + 0.25),
            DType::Date => Value::Date(v as i32),
            DType::Bool => Value::Bool(v % 2 == 0),
            DType::Str => unreachable!(),
        };
        col.push(val).unwrap();
    }
    col
}

fn corpus_db(dtype: u8, n: usize, domain: i64, clustered: bool, null_every: usize) -> Database {
    let k = key_column(dtype, n, domain, clustered, null_every);
    let f: Vec<f64> = (0..n)
        .map(|i| ((i as f64) * 0.618_033_988_749).fract() * 1e6 + 0.1)
        .collect();
    let db = Database::new();
    db.register(
        "t",
        Relation::new(vec![
            ("k".into(), k),
            ("f".into(), Column::from_f64(f)),
            ("v".into(), Column::from_i64((0..n as i64).collect())),
        ])
        .unwrap(),
    );
    db
}

#[test]
fn stats_corpus_fused_matches_materializing() {
    // Float SUM/AVG group-bys are the rounding-sensitive cases: the fused
    // aggregate sink must feed the accumulation grid the exact same rows in
    // the exact same order or low mantissa bits drift. Predicated scans
    // exercise the claim-time zone skip inside the fused source.
    for dtype in 0..4u8 {
        for &clustered in &[true, false] {
            for &null_every in &[0usize, 5] {
                let db = corpus_db(dtype, 12_000, 400, clustered, null_every);
                let label = format!("dtype{dtype}/clustered={clustered}/nulls={null_every}");
                check_sql(
                    &format!("{label}/groupby"),
                    &db,
                    "SELECT k, SUM(f) AS s, AVG(f) AS m, COUNT(*) AS n, \
                     COUNT(DISTINCT v) AS d FROM t GROUP BY k",
                );
                check_sql(
                    &format!("{label}/filtered-groupby"),
                    &db,
                    "SELECT k, SUM(f) AS s FROM t WHERE v >= 1000 AND v < 9000 GROUP BY k",
                );
                check_sql(
                    &format!("{label}/scalar"),
                    &db,
                    "SELECT SUM(f) AS s, AVG(f) AS m, MIN(f) AS lo, MAX(f) AS hi FROM t",
                );
                check_sql(
                    &format!("{label}/pruned-scan"),
                    &db,
                    "SELECT v, f FROM t WHERE v >= 1000 AND v < 3000",
                );
                check_sql(
                    &format!("{label}/projected-filter"),
                    &db,
                    "SELECT v + 1 AS v1, f * 2.0 AS f2 FROM t WHERE v < 5000",
                );
                check_sql(
                    &format!("{label}/distinct"),
                    &db,
                    "SELECT DISTINCT k FROM t",
                );
            }
        }
    }
}

// ---------------- NULL-heavy and empty-table joins, fused probes ---------

fn null_heavy_db(n: usize) -> Database {
    let mut l_key = Column::new(DType::Int);
    let mut r_key = Column::new(DType::Int);
    for i in 0..n {
        if i % 3 == 0 {
            l_key.push_null();
        } else {
            l_key.push(Value::Int((i % 500) as i64)).unwrap();
        }
    }
    for i in 0..n / 2 {
        if i % 4 == 0 {
            r_key.push_null();
        } else {
            r_key.push(Value::Int((i % 700) as i64)).unwrap();
        }
    }
    let db = Database::new();
    db.register(
        "l",
        Relation::new(vec![
            ("k".into(), l_key),
            ("a".into(), Column::from_i64((0..n as i64).collect())),
        ])
        .unwrap(),
    );
    db.register(
        "r",
        Relation::new(vec![
            ("k".into(), r_key),
            (
                "b".into(),
                Column::from_f64((0..n / 2).map(|i| i as f64 * 0.3).collect()),
            ),
        ])
        .unwrap(),
    );
    db.register(
        "empty",
        Relation::new(vec![("k".into(), Column::from_i64(vec![]))]).unwrap(),
    );
    db
}

#[test]
fn null_heavy_and_empty_joins_fused_matches_materializing() {
    let db = null_heavy_db(30_000);
    for sql in [
        // Inner probe feeding a fused aggregate sink.
        "SELECT l.k, COUNT(*) AS n, SUM(r.b) AS s FROM l, r WHERE l.k = r.k GROUP BY l.k",
        // Left probe keeps unmatched rows with NULL fill; full outer breaks
        // the pipeline (build-side backfill) and must still agree.
        "SELECT l.a, r.b FROM l LEFT JOIN r ON l.k = r.k",
        "SELECT l.a, r.b FROM l FULL OUTER JOIN r ON l.k = r.k",
        // Semi/anti probes narrow the selection without moving columns.
        "SELECT a FROM l WHERE k IN (SELECT k FROM r)",
        "SELECT a FROM l WHERE k NOT IN (SELECT k FROM r WHERE k IS NOT NULL)",
        // Empty build side, and an empty probe side.
        "SELECT l.a FROM l, empty WHERE l.k = empty.k",
        "SELECT empty.k FROM empty LEFT JOIN r ON empty.k = r.k",
        // Probe → filter → project → aggregate in one pipeline, with a
        // residual-carrying non-equi conjunct.
        "SELECT l.k, SUM(r.b) AS s FROM l, r WHERE l.k = r.k AND r.b > 10.0 \
         AND l.a < 20000 GROUP BY l.k",
    ] {
        check_sql(sql, &db, sql);
    }
}

// ---------------- pipeline metrics: counted once, shown in traces --------

#[test]
fn fused_traces_report_pipelines_and_scan_zones_once() {
    // 12 000 sequential rows span 3 zone-map zones (⌈12000/4096⌉). The
    // predicate `v >= 1000 AND v < 3000` lives entirely in zone 0, so
    // exactly 1 zone survives and 2 prune — and `morsels_scanned` must
    // report that *per-pipeline* total exactly once, not once per fused
    // operator that touches the scan (the historical double-count).
    let db = corpus_db(0, 12_000, 400, true, 0);
    let sql = "SELECT k, SUM(f) AS s FROM t WHERE v >= 1000 AND v < 3000 GROUP BY k";
    let (_, vec_trace) = db
        .execute_sql_traced(sql, &config(Profile::Vectorized, 1))
        .unwrap();
    assert_eq!(
        (
            vec_trace.metrics.morsels_scanned,
            vec_trace.metrics.morsels_pruned
        ),
        (1, 2),
        "materializing zone counts: {:?}",
        vec_trace.metrics
    );
    assert_eq!(vec_trace.metrics.pipelines, 0);
    assert!(vec_trace.metrics.pipeline_ops.is_empty());
    for threads in [1usize, 7] {
        let (_, fused) = db
            .execute_sql_traced(sql, &config(Profile::Fused, threads))
            .unwrap();
        // The pin: fused and materializing agree on the zone totals.
        assert_eq!(
            (fused.metrics.morsels_scanned, fused.metrics.morsels_pruned),
            (1, 2),
            "fused@{threads}t zone counts: {:?}",
            fused.metrics
        );
        assert!(
            fused.metrics.pipelines >= 1,
            "fused@{threads}t: {:?}",
            fused.metrics
        );
        assert_eq!(
            fused.metrics.pipeline_ops.len(),
            fused.metrics.pipelines as usize
        );
        // scan + aggregate sink, at least; the scan's survivor gather is
        // the avoided intermediate.
        assert!(fused.metrics.pipeline_ops.iter().all(|&ops| ops >= 2));
        assert!(fused.metrics.intermediates_avoided >= 1);
        // EXPLAIN/trace surfaces: plan header shows the decomposition,
        // summary shows the counters.
        assert!(fused.plan.contains("pipelines:"), "{}", fused.plan);
        assert!(fused.plan.contains("aggregate ["), "{}", fused.plan);
        assert!(
            fused.summary().contains("pipelines: "),
            "{}",
            fused.summary()
        );
    }
}

#[test]
fn fused_join_pipeline_probes_without_flipping() {
    let db = null_heavy_db(30_000);
    let sql = "SELECT l.k, SUM(r.b) AS s FROM l, r WHERE l.k = r.k GROUP BY l.k";
    let (_, fused) = db
        .execute_sql_traced(sql, &config(Profile::Fused, 1))
        .unwrap();
    // A fused probe always builds on the plan's right side: no flips.
    assert_eq!(fused.metrics.joins_flipped, 0, "{:?}", fused.metrics);
    assert!(fused.metrics.pipelines >= 1);
    assert!(fused.plan.contains("probe(inner)"), "{}", fused.plan);
}
