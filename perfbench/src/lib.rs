//! Host wall-clock benchmark of real `heterosim` runs.
//!
//! One process runs one workload (see `WORKLOADS.md` beside this
//! crate for why each exists and which layer metric should move which
//! end-to-end metric):
//!
//! * `figures` — cost-only regeneration of every figure sweep through
//!   `run_balanced`, on `nproc` sweep threads;
//! * `physics` — full-fidelity static-split runs of the four scenarios
//!   in all four modes through `runner::run`;
//! * `adaptive` — full-fidelity Heterogeneous runs with the online
//!   rebalancer, a permanent rank loss and a transient transfer delay;
//! * `serve` — a closed loop of `nproc` HTTP clients against an
//!   in-process `hsim-serve` over loopback.
//!
//! The benchmark drives library entry points only, never the CLI. It
//! checks every operation's output and counts failures. A traced run
//! (`--trace 1`) replays the workload's generated inputs through each
//! layer's public functions and reports per-layer numbers; spans are
//! kept in memory and written as a Chrome trace at the end.
//!
//! The process pins itself to one CPU and times a fixed reference loop
//! between ops (see [`host`]); every reported time is scaled to the
//! host speed at which that loop takes [`host::NOMINAL_REF_MS`].

// Only `host`'s CPU-affinity calls are unsafe.
#![deny(unsafe_code)]

pub mod clock;
pub mod host;
mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;

use clock::Stamp;
use host::Speed;
use stats::{median, quantile};
use trace::Tracer;
use workloads::Workload;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    Figures,
    Physics,
    Adaptive,
    Serve,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Figures,
        WorkloadKind::Physics,
        WorkloadKind::Adaptive,
        WorkloadKind::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Figures => "figures",
            WorkloadKind::Physics => "physics",
            WorkloadKind::Adaptive => "adaptive",
            WorkloadKind::Serve => "serve",
        }
    }

    pub fn parse(s: &str) -> Result<WorkloadKind, String> {
        WorkloadKind::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}` (figures, physics, adaptive, serve)"))
    }
}

/// How one benchmark process runs.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: WorkloadKind,
    pub seed: u64,
    /// Wall seconds to measure. Work is done in whole passes over the
    /// workload's input mix, so at least one pass always runs.
    pub seconds: f64,
    /// Replay the inputs through each layer and report per-layer
    /// metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Smallest size: the smoke test's setting (fewer figure sweeps,
    /// fewer serve clients' requests).
    pub small: bool,
    /// Deliberately corrupt one output before it is checked, so a test
    /// can show the checks count it as a failure.
    pub corrupt: bool,
}

/// One completed operation as the load loop saw it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// The loop that ran it (sweep thread or client; 0 when sequential).
    pub worker: usize,
    /// When the operation started.
    pub at: Stamp,
    /// Wall latency of the operation.
    pub ms: f64,
    /// Zone-cycles the operation's result represents.
    pub zone_cycles: u64,
    /// The output passed every check.
    pub ok: bool,
}

impl Op {
    fn end(&self) -> Stamp {
        self.at.plus_ms(self.ms)
    }
}

/// A named measurement with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Everything one measurement reports.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the result object carries.
    pub metrics: Vec<Metric>,
    /// Further figures printed beside them, not part of the result
    /// object (error rate, serve p99, tracing overhead).
    pub extra: Vec<Metric>,
}

/// What a workload did during one timed phase.
struct Phase {
    /// In start order.
    ops: Vec<Op>,
    /// Each op's latency scaled to [`host::NOMINAL_REF_MS`] by the
    /// reference-loop probes around it.
    scaled_ms: Vec<f64>,
    /// Loops that ran ops side by side.
    workers: usize,
    /// Ops per block for the rate medians.
    block: usize,
    /// From the phase start to the last op's end.
    wall_s: f64,
    /// Every reference-loop probe's milliseconds.
    ref_ms: Vec<f64>,
    /// Extra per-workload counts (serve hits, rejections, ...).
    counts: workloads::Counts,
}

impl Phase {
    fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }

    /// Consecutive blocks of [`Phase::block`] ops (one pass for the
    /// workloads that run passes), as index ranges; a phase shorter
    /// than one block is one block.
    fn blocks(&self) -> Vec<std::ops::Range<usize>> {
        let n = self.ops.len();
        let size = self.block.min(n).max(1);
        (0..n / size).map(|b| b * size..(b + 1) * size).collect()
    }

    /// Ops and zone-cycles per scaled second: the medians over
    /// [`Phase::blocks`], each block's rate being `workers` loops
    /// completing its ops in the sum of their scaled latencies.
    fn rates(&self) -> (f64, f64) {
        let (mut ops_rate, mut zc_rate) = (Vec::new(), Vec::new());
        for b in self.blocks() {
            let secs = self.scaled_ms[b.clone()].iter().sum::<f64>() / 1e3;
            let zc: u64 = self.ops[b.clone()].iter().map(|o| o.zone_cycles).sum();
            let per_s = self.workers as f64 / secs.max(1e-9);
            ops_rate.push(b.len() as f64 * per_s);
            zc_rate.push(zc as f64 * per_s);
        }
        (median(&ops_rate), median(&zc_rate))
    }

    /// The `q` quantile of scaled op latency: its median over
    /// [`Phase::blocks`], so a slow stretch of the host shorter than
    /// half the run moves it little.
    fn latency(&self, q: f64) -> f64 {
        let per_block: Vec<f64> = self
            .blocks()
            .into_iter()
            .map(|b| quantile(&self.scaled_ms[b], q))
            .collect();
        median(&per_block)
    }

    fn p50(&self) -> f64 {
        self.latency(0.5)
    }
}

/// The end-to-end metrics of one untraced phase, every time scaled to
/// the nominal host speed; each is a median over [`Phase::blocks`],
/// whose count is its sample count.
fn end_to_end(phase: &Phase, setup_s: f64, setup_samples: usize, rss_mb: f64) -> Vec<Metric> {
    let (ops_per_s, zc_per_s) = phase.rates();
    let blocks = phase.blocks().len();
    vec![
        Metric::new("setup_s", "s", setup_s, setup_samples),
        Metric::new("ops_per_s", "1/s", ops_per_s, blocks),
        Metric::new("op_ms_p50", "ms", phase.latency(0.50), blocks),
        Metric::new("op_ms_p90", "ms", phase.latency(0.90), blocks),
        Metric::new("mzone_cycles_per_s", "Mzc/s", zc_per_s / 1e6, blocks),
        Metric::new("peak_rss_mb", "MB", rss_mb, 1),
    ]
}

/// The unscaled figures and the host speed, printed beside the scaled
/// metrics so the host's effect stays visible.
fn raw(phase: &Phase) -> Vec<Metric> {
    let n = phase.ops.len();
    let ms: Vec<f64> = phase.ops.iter().map(|o| o.ms).collect();
    vec![
        Metric::new("raw.ops_per_s", "1/s", n as f64 / phase.wall_s, n),
        Metric::new("raw.op_ms_p50", "ms", median(&ms), n),
        Metric::new(
            "host.ref_ms",
            "ms",
            median(&phase.ref_ms),
            phase.ref_ms.len(),
        ),
        Metric::new(
            "host.ref_ms_p90",
            "ms",
            quantile(&phase.ref_ms, 0.9),
            phase.ref_ms.len(),
        ),
    ]
}

/// Run the workload's timed phase: whole passes until `seconds` have
/// elapsed (at least one), with reference-loop probes between ops.
fn timed_phase(w: &mut dyn Workload, seconds: f64, tracer: &Tracer, corrupt: bool) -> Phase {
    let speed = Speed::new();
    speed.probe();
    let t0 = Stamp::now();
    let mut ops = Vec::new();
    let mut counts = workloads::Counts::default();
    let mut pass = 0u64;
    loop {
        let remaining = seconds - t0.elapsed_s();
        w.run_pass(
            pass,
            remaining,
            tracer,
            &speed,
            corrupt && pass == 0,
            &mut ops,
            &mut counts,
        );
        pass += 1;
        if t0.elapsed_s() >= seconds {
            break;
        }
    }
    speed.probe();
    ops.sort_by_key(|o| o.at);
    // The ops' span: checks a workload makes after its last op (the
    // serve loop's in-process comparisons) are not part of it.
    let wall_s = ops
        .iter()
        .map(|o| o.end().secs_since(t0))
        .fold(0.0, f64::max);
    let scaled_ms = ops
        .iter()
        .map(|o| o.ms * host::NOMINAL_REF_MS / speed.ref_ms(o.at, o.end()))
        .collect();
    Phase {
        workers: ops.iter().map(|o| o.worker + 1).max().unwrap_or(1),
        block: w.block_ops().max(1),
        ops,
        scaled_ms,
        wall_s,
        ref_ms: speed.all_ms(),
        counts,
    }
}

/// The untraced measurement: the workload's end-to-end metrics over
/// `opts.seconds`, with `setup_samples` (scaled seconds from process
/// start to first op ready) folded into `setup_s` as their median.
pub fn measure(w: &mut dyn Workload, opts: &Options, setup_samples: &[f64]) -> Report {
    let phase = timed_phase(w, opts.seconds, &Tracer::new(false), opts.corrupt);
    let metrics = end_to_end(
        &phase,
        median(setup_samples),
        setup_samples.len(),
        w.peak_rss_mb(),
    );
    let attempted = phase.ops.len() as u64;
    let failed = phase.failed();
    let mut extra = vec![Metric::new(
        "error_rate",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
        attempted as usize,
    )];
    if opts.workload == WorkloadKind::Serve {
        extra.push(Metric::new(
            "op_ms_p99",
            "ms",
            phase.latency(0.99),
            phase.blocks().len(),
        ));
    }
    extra.extend(raw(&phase));
    Report {
        attempted,
        failed,
        metrics,
        extra,
    }
}

/// The traced measurement: an untraced third of `opts.seconds` for the
/// overhead baseline, the traced rest, then the per-layer replay of the
/// workload's inputs. Returns the per-layer report and the spans.
pub fn measure_traced(
    w: &mut dyn Workload,
    opts: &Options,
    calib_probe_ms: f64,
) -> (Report, Tracer) {
    let plain = timed_phase(w, opts.seconds / 3.0, &Tracer::new(false), false);
    let tracer = Tracer::new(true);
    let traced = timed_phase(w, opts.seconds * 2.0 / 3.0, &tracer, opts.corrupt);
    let t_replay = Stamp::now();
    let metrics = layers::replay(&layers::Inputs {
        kind: opts.workload,
        cfgs: w.probe_configs(),
        tracer: &tracer,
        traced_p50_ms: traced.p50(),
        traced_ops: traced.ops.len(),
        counts: &traced.counts,
        calib_probe_ms,
        untraced_p50_ms: plain.p50(),
        server: w.server(),
    });
    let extra = vec![
        Metric::new(
            "trace.untraced_op_ms_p50",
            "ms",
            plain.p50(),
            plain.ops.len(),
        ),
        Metric::new(
            "trace.traced_op_ms_p50",
            "ms",
            traced.p50(),
            traced.ops.len(),
        ),
        Metric::new("trace.replay_s", "s", t_replay.elapsed_s(), 1),
    ];
    let report = Report {
        attempted: (plain.ops.len() + traced.ops.len()) as u64,
        failed: plain.failed() + traced.failed(),
        metrics,
        extra,
    };
    (report, tracer)
}
