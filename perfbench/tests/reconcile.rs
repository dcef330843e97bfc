//! Traced runs on small inputs: every result matches its reference, the
//! spans nest, the compile phases add up to no more than the facade call,
//! and each append splits into its own time plus the view refreshes.

use pytond_perfbench::append_views::AppendViews;
use pytond_perfbench::datascience::DataScience;
use pytond_perfbench::layers::compile_layers;
use pytond_perfbench::tpch::Tpch;
use pytond_perfbench::{metrics, run, Outcome, Size, Workload};

fn traced<W: Workload>() -> Outcome {
    let out = run::<W>(7, 1.0, true, Size::small()).expect("the run starts");
    assert!(out.problems.is_empty(), "{:#?}", out.problems);
    assert!(out.correct);
    assert_eq!(out.failed, 0, "{:#?}", out.errors);
    let names: Vec<String> = metrics::per_layer().into_iter().map(|(n, _)| n).collect();
    let mut reported: Vec<String> = out.values.keys().cloned().collect();
    reported.sort();
    let mut expected = names.clone();
    expected.sort();
    assert_eq!(
        reported, expected,
        "a traced run reports exactly the per-layer metrics"
    );
    out
}

fn compile_phases_within_facade(out: &Outcome) {
    let (trace, _) = out.trace.as_ref().expect("traced run keeps its trace");
    trace.check_nesting().unwrap();
    let compile = compile_layers(trace);
    assert!(!compile.per_program.is_empty());
    compile.phases_within_facade().unwrap();
}

#[test]
fn tpch_trace_reconciles() {
    let out = traced::<Tpch>();
    compile_phases_within_facade(&out);
    assert!(
        out.values["core.prepare_ms"] > 0.0,
        "warm runs go through Pytond::prepare"
    );
    assert!(out.values["sqldb.exec.ms.fused.Q13"] > 0.0);
    assert_eq!(
        out.values["sqldb.mv.refresh_ms"], 0.0,
        "tpch appends nothing"
    );
}

#[test]
fn datascience_trace_reconciles() {
    let out = traced::<DataScience>();
    compile_phases_within_facade(&out);
    assert!(out.values["sqldb.exec.ms.vectorized.cov_dense"] > 0.0);
    assert_eq!(
        out.values["core.prepare_ms"], 0.0,
        "compiled programs skip the plan cache"
    );
}

#[test]
fn append_views_trace_reconciles() {
    let out = traced::<AppendViews>();
    compile_phases_within_facade(&out);
    let (trace, _) = out.trace.as_ref().unwrap();
    out.layers.check_appends(trace).unwrap();
    assert!(!out.layers.appends.is_empty());
    for a in &out.layers.appends {
        assert_eq!(a.self_ns() + a.refresh_ns, a.append_ns);
    }
    // At least one view refreshes by delta and at least one by recompute.
    let share = out.values["sqldb.mv.delta_share"];
    assert!(share > 0.0 && share < 1.0, "delta share {share}");
}

#[test]
fn plain_runs_report_the_end_to_end_metrics() {
    let out = run::<AppendViews>(3, 0.5, false, Size::small()).unwrap();
    assert!(out.correct, "{:#?}", out.problems);
    let mut reported: Vec<&str> = out.values.keys().map(String::as_str).collect();
    reported.sort();
    let mut expected: Vec<&str> = metrics::END_TO_END.iter().map(|(n, _)| *n).collect();
    expected.sort();
    assert_eq!(reported, expected);
    assert!(
        out.values.values().all(|v| v.is_finite() && *v > 0.0),
        "{:?}",
        out.values
    );
}

#[test]
fn benchmark_json_lists_every_metric() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let defs: Vec<(String, &str)> = metrics::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(metrics::per_layer())
        .collect();
    for (name, unit) in &defs {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(
            json.contains(&entry),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        defs.len(),
        "BENCHMARK.json has metrics the runner does not report"
    );
}
