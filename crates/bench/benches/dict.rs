//! `dict` microbench: dictionary-encoded string columns vs plain strings,
//! single-threaded, on the three shapes the encoding targets:
//!
//! - **eq_filter** — string equality predicate into a scalar aggregate. The
//!   plain path compares bytes per row; the encoded path evaluates the
//!   literal once per dictionary entry and tests a `u32` code per row.
//! - **join_groupby** — a Q9-style string-keyed join feeding a grouped
//!   aggregate. Plain string keys force the byte-encoded key fallback (and
//!   break the fused pipeline); dictionary keys pack into 64-bit words and
//!   the probe fuses into the scan pipeline.
//! - **groupby** — grouping directly on a string column: packed dictionary
//!   codes vs arena-encoded byte keys.
//!
//! Both sides register the *same* relations — one through
//! [`Database::register`] (dictionary-encoded by default), one through
//! [`Database::register_plain`] — so the comparison isolates the
//! representation. When `PYTOND_DICT_ASSERT=1`, the bench asserts encoded
//! beats plain by ≥ 1.5× on the join and ≥ 2× on the equality filter
//! (min-of-5 wall clock, one clean re-measure before failing — the same
//! protocol as the `fusion` bench gate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pytond_common::{Column, Relation};
use pytond_sqldb::{Database, EngineConfig, Profile};
use std::time::{Duration, Instant};

/// Fact-table rows: enough that per-row string work dominates setup.
const ROWS: usize = 1_000_000;
/// Distinct string keys in the fact table (dimension covers half).
const KEYS: usize = 2_000;

fn smoke() -> bool {
    std::env::var("PYTOND_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn relations() -> (Relation, Relation) {
    let keys: Vec<String> = (0..ROWS)
        .map(|i| format!("supplier-{:06}", i.wrapping_mul(2_654_435_761) % KEYS))
        .collect();
    let fact = Relation::new(vec![
        (
            "s".into(),
            Column::from_strs(&keys.iter().map(String::as_str).collect::<Vec<_>>()),
        ),
        (
            "v".into(),
            Column::from_f64((0..ROWS).map(|i| (i % 9973) as f64 * 0.25).collect()),
        ),
    ])
    .unwrap();
    let dim_keys: Vec<String> = (0..KEYS / 2).map(|k| format!("supplier-{k:06}")).collect();
    let dim = Relation::new(vec![
        (
            "s".into(),
            Column::from_strs(&dim_keys.iter().map(String::as_str).collect::<Vec<_>>()),
        ),
        (
            "w".into(),
            Column::from_i64((0..dim_keys.len() as i64).collect()),
        ),
    ])
    .unwrap();
    (fact, dim)
}

/// `(encoded, plain)` databases over identical data.
fn databases() -> (Database, Database) {
    let (fact, dim) = relations();
    let encoded = Database::new();
    encoded.register("fact", fact.clone());
    encoded.register("dim", dim.clone());
    let plain = Database::new();
    plain.register_plain("fact", fact);
    plain.register_plain("dim", dim);
    (encoded, plain)
}

const EQ_FILTER: &str = "SELECT COUNT(*) AS n, SUM(v) AS sv FROM fact WHERE s = 'supplier-000123'";

const JOIN_GROUPBY: &str = "SELECT dim.s, COUNT(*) AS n, SUM(fact.v) AS sv \
     FROM fact, dim WHERE fact.s = dim.s GROUP BY dim.s";

const GROUPBY: &str = "SELECT s, COUNT(*) AS n, SUM(v) AS sv FROM fact GROUP BY s";

const SHAPES: [(&str, &str); 3] = [
    ("eq_filter", EQ_FILTER),
    ("join_groupby", JOIN_GROUPBY),
    ("groupby", GROUPBY),
];

fn cfg() -> EngineConfig {
    EngineConfig {
        profile: Profile::Fused,
        threads: 1,
        ..EngineConfig::default()
    }
}

/// Min-of-5 wall clock after a warm-up (robust to scheduler noise).
fn time_ns(mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

fn dict(c: &mut Criterion) {
    let (encoded, plain) = databases();
    let rounds = if smoke() { 2 } else { 5 };

    let mut group = c.benchmark_group("dict");
    group.sample_size(rounds);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));

    // (shape, plain ns, encoded ns) for the table and the gate.
    let mut ratios: Vec<(&str, f64, f64)> = Vec::new();
    for (name, sql) in SHAPES {
        let mut pair = [0.0f64; 2];
        for (i, db) in [&plain, &encoded].into_iter().enumerate() {
            let label = if i == 0 { "plain" } else { "encoded" };
            let prepared = db.prepare(sql, Profile::Fused).expect(name);
            let config = cfg();
            group.bench_function(BenchmarkId::new(name, label), |b| {
                b.iter(|| db.execute_prepared(&prepared, &config).unwrap())
            });
            pair[i] = time_ns(|| {
                db.execute_prepared(&prepared, &config).unwrap();
            });
        }
        ratios.push((name, pair[0], pair[1]));
    }
    group.finish();

    println!("\ndict: plain → encoded (single-threaded)");
    for (name, plain_ns, enc_ns) in &ratios {
        println!(
            "  {name:<14} {:>8.2} ms → {:>8.2} ms   {:.2}x",
            plain_ns / 1e6,
            enc_ns / 1e6,
            plain_ns / enc_ns
        );
    }

    // CI gate: encoded must beat plain ≥ 1.5× on the string-keyed join and
    // ≥ 2× on the equality filter; a failing first measurement is re-taken
    // once from scratch before the gate fires.
    if std::env::var("PYTOND_DICT_ASSERT").is_ok_and(|v| v == "1") {
        for (name, need) in [("join_groupby", 1.5f64), ("eq_filter", 2.0f64)] {
            let (_, plain_ns, enc_ns) = ratios.iter().find(|(n, _, _)| *n == name).unwrap();
            let mut speedup = plain_ns / enc_ns;
            if speedup < need {
                let sql = SHAPES.iter().find(|(n, _)| *n == name).unwrap().1;
                let re = |db: &Database| {
                    let prepared = db.prepare(sql, Profile::Fused).unwrap();
                    let config = cfg();
                    time_ns(|| {
                        db.execute_prepared(&prepared, &config).unwrap();
                    })
                };
                speedup = re(&plain) / re(&encoded);
            }
            assert!(
                speedup >= need,
                "{name}: encoded speedup {speedup:.2}x < {need}x required (after one re-measure)"
            );
            println!("dict assertion passed: {name} {speedup:.2}x ≥ {need}x");
        }
    }
}

criterion_group!(benches, dict);
criterion_main!(benches);
