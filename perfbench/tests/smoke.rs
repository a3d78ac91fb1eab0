//! Smoke test of the benchmark itself, at its smallest size: every
//! workload yields every metric `BENCHMARK.json` names, with its unit
//! and a nonzero op count, and a deliberately corrupted output shows up
//! as a failure.

use perfbench::{measure, measure_traced, workloads, Options, Report, WorkloadKind};

/// The benchmark reads the repository's files relative to the root.
fn at_repo_root() {
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).expect("repo root");
}

fn smallest(workload: WorkloadKind, corrupt: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace: false,
        small: true,
        corrupt,
    }
}

/// The objects of one list section of `BENCHMARK.json`, as text.
fn section(name: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let body = text
        .split_once(&format!("\"{name}\""))
        .expect("section present")
        .1;
    let body = &body[..body.find(']').expect("section ends")];
    body.split('{').skip(1).map(str::to_string).collect()
}

/// The string value of `key` in one object's text.
fn field(obj: &str, key: &str) -> String {
    let rest = obj.split_once(&format!("\"{key}\"")).expect(key).1;
    rest.split('"').nth(1).expect("string value").to_string()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(name: &str) -> Vec<(String, String)> {
    section(name)
        .iter()
        .map(|o| (field(o, "name"), field(o, "unit")))
        .collect()
}

fn produced(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn run(opts: &Options) -> Report {
    let mut w = workloads::setup(opts).expect("set-up");
    let r = if opts.trace {
        measure_traced(w.as_mut(), opts, 1.0).0
    } else {
        measure(w.as_mut(), opts, &[0.5])
    };
    w.shutdown();
    r
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_counts_corruption() {
    at_repo_root();
    let want = declared("end_to_end");
    for w in section("workloads").iter().map(|o| field(o, "name")) {
        assert!(
            WorkloadKind::parse(&w).is_ok(),
            "BENCHMARK.json names unknown workload {w}"
        );
    }
    for kind in WorkloadKind::ALL {
        let r = run(&smallest(kind, false));
        assert_eq!(produced(&r), want, "{}", kind.name());
        assert!(r.attempted > 0, "{}", kind.name());
        assert_eq!(
            r.failed,
            0,
            "{}: unchanged program must pass every check",
            kind.name()
        );
        assert!(r
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0 && m.samples > 0));

        let bad = run(&smallest(kind, true));
        assert!(
            bad.failed > 0,
            "{}: a corrupted output must count as failed",
            kind.name()
        );
        let rate = bad
            .extra
            .iter()
            .find(|m| m.name == "error_rate")
            .expect("error rate");
        assert!(rate.value > 0.0, "{}", kind.name());
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    at_repo_root();
    let want = declared("per_layer");
    for kind in [WorkloadKind::Physics, WorkloadKind::Serve] {
        let r = run(&Options {
            trace: true,
            ..smallest(kind, false)
        });
        assert_eq!(produced(&r), want, "{}", kind.name());
        assert_eq!(r.failed, 0, "{}", kind.name());
        assert!(r.metrics.iter().all(|m| m.value.is_finite()));
    }
}
