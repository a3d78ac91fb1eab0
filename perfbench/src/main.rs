//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload for `S` seconds and prints every metric by name
//! with its unit and sample count, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones, and the spans are written as a Chrome
//! trace under `perfbench/out/`.
//!
//! The process first pins itself to one CPU; every time it reports is
//! scaled to a nominal host speed by a reference loop (see
//! `perfbench::host`), and the unscaled figures are printed beside them.
//!
//! `--small` runs the smallest size (the smoke test's). `--setup-only`
//! is how the benchmark samples its own set-up time: it re-executes
//! itself with this flag, and the child sets the workload up, prints
//! the scaled and the raw seconds that took, and exits.

#![forbid(unsafe_code)]

use std::process::{Command, ExitCode};

use perfbench::clock::Stamp;
use perfbench::stats::{llc_bytes, median, nproc};
use perfbench::{host, measure, measure_traced, workloads, Metric, Options, Report, WorkloadKind};

/// Set-up samples per run: this process plus this many children.
const SETUP_CHILDREN: usize = 10;
const USAGE: &str = "usage: perfbench --workload figures|physics|adaptive|serve \
                     --seed N --seconds S --trace 0|1 [--small]";

struct Args {
    opts: Options,
    setup_only: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut small = false;
    let mut setup_only = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(WorkloadKind::parse(val()?)?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside [0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--small" => small = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        opts: Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace,
            small,
            corrupt: false,
        },
        setup_only,
    })
}

/// Set up one more time in a child process; its seconds from start to
/// first op ready, scaled and raw.
fn child_setup(argv: &[String]) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(argv)
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    text.lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| {
            let (scaled, raw) = v.trim().split_once(' ')?;
            Some((scaled.parse().ok()?, raw.parse().ok()?))
        })
        .ok_or_else(|| format!("set-up child printed no time: {text}"))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result object: the last line the benchmark prints.
fn result_json(r: &Report) -> String {
    let body: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0 && r.attempted > 0,
        r.attempted,
        r.failed,
        body.join(", ")
    )
}

fn run(argv: &[String], start: Stamp) -> Result<(), String> {
    let Args { opts, setup_only } = parse(argv)?;
    let cpu = host::pin_to_one_cpu()?;
    let kind = opts.workload;
    let t_probe = Stamp::now();
    hsim_core::calib::auto_tile_for(workloads::host_threads(kind));
    let calib_probe_ms = t_probe.elapsed_ms();
    let mut w = workloads::setup(&opts)?;
    let setup_raw = start.elapsed_s();
    let setup = (
        setup_raw * host::NOMINAL_REF_MS / host::reference_ms(),
        setup_raw,
    );
    if setup_only {
        w.shutdown();
        println!("setup_s {} {}", setup.0, setup.1);
        return Ok(());
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={} small={}",
        kind.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.small
    );
    let llc = llc_bytes();
    let ws = w.working_set_bytes();
    println!(
        "env cpu={cpu} (pinned) nproc={} llc_bytes={llc} state_working_set_bytes={ws} ({:.2}x the LLC; computed from array \
         sizes of the largest op, which cost-only ops never allocate; no memory-bandwidth claim is made)",
        nproc(),
        ws as f64 / llc.max(1) as f64
    );
    for line in w.describe() {
        println!("{line}");
    }

    let report = if opts.trace {
        let (report, tracer) = measure_traced(w.as_mut(), &opts, calib_probe_ms);
        w.shutdown();
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-seed{}.json", kind.name(), opts.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_chrome_json()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        report
    } else {
        let mut samples = vec![setup];
        for _ in 0..SETUP_CHILDREN {
            samples.push(child_setup(argv)?);
        }
        let (scaled, raw): (Vec<f64>, Vec<f64>) = samples.into_iter().unzip();
        let mut report = measure(w.as_mut(), &opts, &scaled);
        w.shutdown();
        report
            .extra
            .push(Metric::new("raw.setup_s", "s", median(&raw), raw.len()));
        report
    };
    for m in report.metrics.iter().chain(&report.extra) {
        println!(
            "metric {:<30} {:>20} {:<6} (n={})",
            m.name,
            json_num(m.value),
            m.unit,
            m.samples
        );
    }
    println!("{}", result_json(&report));
    Ok(())
}

fn main() -> ExitCode {
    let start = Stamp::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv, start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
