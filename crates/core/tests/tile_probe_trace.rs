//! The wall-clock tile probe must stay out of runs: out of their
//! telemetry and out of their fault plans. The probe is one-shot per
//! process and worker count (`calib::auto_tile_for`), so this file is
//! its own test binary with a single test: each first run below is the
//! one that triggers a probe, as the first run of a fresh `heterosim`
//! process does.

use hsim_core::faults::FaultPlan;
use hsim_core::runner::{run, RunConfig};
use hsim_core::ExecMode;
use hsim_raja::Fidelity;
use hsim_telemetry::{Counter, Summary};

/// A traced full-fidelity CpuOnly run with no pinned tile.
fn traced_run(cfg: &RunConfig) -> Summary {
    assert_eq!(cfg.tile, None, "the probe only runs for an unpinned tile");
    run(cfg)
        .expect("traced run")
        .telemetry
        .expect("telemetry requested")
}

/// Every span a rank records before its `setup` span ends must lie
/// inside it: nothing runs on a rank ahead of its own setup.
fn assert_nothing_precedes_setup(summary: &Summary) {
    let ranks: std::collections::BTreeSet<u32> = summary.spans.iter().map(|s| s.pid).collect();
    for pid in ranks {
        let setup_end = summary
            .spans
            .iter()
            .find(|s| s.pid == pid && s.name == "setup")
            .unwrap_or_else(|| panic!("rank {pid} has no setup span"))
            .end();
        for s in summary.spans.iter().filter(|s| s.pid == pid) {
            assert!(
                s.ts >= setup_end || s.end() <= setup_end,
                "rank {pid}: span `{}` ({:?}) at {:?}..{:?} straddles setup ending at {:?}",
                s.name,
                s.cat,
                s.ts,
                s.end(),
                setup_end
            );
        }
    }
}

fn cpuonly_cfg(host_threads: usize) -> RunConfig {
    let mut cfg = RunConfig::sweep((32, 24, 16), ExecMode::CpuOnly);
    cfg.fidelity = Fidelity::Full;
    cfg.cycles = 1;
    cfg.telemetry = true;
    cfg.host_threads = host_threads;
    cfg
}

/// The first run's trace and fault and launch counts equal a later
/// run's, and no rank records anything ahead of its setup.
fn assert_probe_invisible(cfg: &RunConfig) {
    let first = traced_run(cfg);
    let second = traced_run(cfg);
    assert_nothing_precedes_setup(&first);
    assert_nothing_precedes_setup(&second);
    assert_eq!(
        first.to_chrome_json(),
        second.to_chrome_json(),
        "the probing run's trace differs from a later run's"
    );
    // Not the whole metrics JSON: with a host pool it carries
    // wall-clock pool time.
    for c in [
        Counter::FaultsInjected,
        Counter::FaultRetries,
        Counter::FaultsRecovered,
        Counter::KernelLaunches,
    ] {
        assert_eq!(first.metrics.counter(c), second.metrics.counter(c), "{c:?}");
    }
}

#[test]
fn unpinned_runs_trace_identically_whichever_run_probes_the_tile() {
    // Shared-pool probe first (the serial cache stays unclaimed, so the
    // serial probe still runs below). Every rank plans one pool panic
    // on cycle 0; a probe inside a rank thread would consume that
    // rank's event, so the first run would count one fault fewer.
    let mut pooled = cpuonly_cfg(2);
    let spec: Vec<String> = (0..16)
        .map(|r| format!("pool.panic@rank{r}.cycle0"))
        .collect();
    pooled.faults = Some(FaultPlan::parse(&spec.join(";")).expect("fault spec"));
    assert_probe_invisible(&pooled);
    // Serial probe, no faults.
    assert_probe_invisible(&cpuonly_cfg(1));
}
