//! The four workloads. Each turns `--seed` into its inputs at set-up,
//! then runs whole passes over them; the library receives only the
//! generated inputs.

mod figures;
mod serve;
mod sim;

use hsim_core::runner::{Problem, RunConfig};
use hsim_hydro::HydroState;

use crate::host::Speed;
use crate::trace::Tracer;
use crate::{Op, Options, WorkloadKind};

pub use sim::PARTICLES;

/// Per-workload counts the load loop gathers beside the ops.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Whole-simulation runs behind `run_balanced` results.
    pub balance_runs: u64,
    /// Results `run_balanced` returned.
    pub balance_results: u64,
    /// Serve `/run` responses answered from the cache where a hit was
    /// expected.
    pub hits: u64,
    /// Serve requests (every kind).
    pub requests: u64,
    /// Typed serve rejections (429, 503, 504).
    pub rejected: u64,
}

pub trait Workload {
    /// Run one pass over the input mix, appending one [`Op`] per
    /// operation. `remaining_s` is the measurement time left; only the
    /// serve loop, whose pass is the whole closed loop, uses it. Each
    /// loop calls [`Speed::between_ops`] before each op. `corrupt` flips
    /// one output before it is checked.
    #[allow(clippy::too_many_arguments)]
    fn run_pass(
        &mut self,
        pass: u64,
        remaining_s: f64,
        tracer: &Tracer,
        speed: &Speed,
        corrupt: bool,
        ops: &mut Vec<Op>,
        counts: &mut Counts,
    );

    /// Ops per block of the rate medians: one pass where a pass is a
    /// fixed input mix.
    fn block_ops(&self) -> usize;

    /// The generated run configurations the layer probes replay, in a
    /// seed-independent order (representative first).
    fn probe_configs(&self) -> Vec<RunConfig>;

    /// Computed bytes of the largest simulation state one operation
    /// holds (conserved + scratch fields from the memory scheme).
    fn working_set_bytes(&self) -> u64;

    /// Lines describing the generated inputs, printed with the results.
    fn describe(&self) -> Vec<String>;

    /// The process's peak resident set (MB) as this workload reports
    /// it: `VmHWM` at the end unless the workload fixes the work it is
    /// read at.
    fn peak_rss_mb(&self) -> f64 {
        crate::stats::peak_rss_mb()
    }

    /// The workload's own server and its address, when it has one.
    fn server(&self) -> Option<(std::sync::Arc<hsim_serve::Server>, std::net::SocketAddr)> {
        None
    }

    /// Stop any threads or sockets the workload owns.
    fn shutdown(&mut self) {}
}

/// Host threads per CPU rank in a workload's runs (the tile probe is
/// keyed on it): `nproc` for `adaptive`, whose runs share the host
/// `WorkPool`, 1 for the rest, as the paper's sequential CPU ranks.
pub fn host_threads(kind: WorkloadKind) -> usize {
    match kind {
        WorkloadKind::Adaptive => crate::stats::nproc(),
        _ => 1,
    }
}

/// Generate the workload's inputs from the options and do every piece
/// of one-time set-up (tile probe, host pool, server bind, warm-up)
/// the first operation needs.
pub fn setup(opts: &Options) -> Result<Box<dyn Workload>, String> {
    Ok(match opts.workload {
        WorkloadKind::Figures => Box::new(figures::Figures::new(opts)),
        WorkloadKind::Physics => Box::new(sim::Sim::new(opts, false)?),
        WorkloadKind::Adaptive => Box::new(sim::Sim::new(opts, true)?),
        WorkloadKind::Serve => Box::new(serve::Serve::new(opts)?),
    })
}

/// Initialize `state` with `problem`'s initial condition (the runner's
/// private dispatch, through the hydro crate's public initializers).
pub fn init_problem(problem: &Problem, state: &mut HydroState) {
    match problem {
        Problem::Sedov(c) => hsim_hydro::sedov::init(state, c),
        Problem::Sod(c) => hsim_hydro::sod::init(state, c),
        Problem::Noh(c) => hsim_hydro::noh::init(state, c),
        Problem::TaylorGreen(c) => hsim_hydro::taylor_green::init(state, c),
        Problem::Perturbed(c) => hsim_hydro::workload::init(state, c),
    }
}

/// State bytes of one run of `cfg`: mesh plus temporaries, as the
/// Figure 8 memory scheme sizes them.
pub fn state_bytes(cfg: &RunConfig) -> u64 {
    let zones = (cfg.grid.0 * cfg.grid.1 * cfg.grid.2) as u64;
    hsim_core::memscheme::mesh_bytes(zones) + hsim_core::memscheme::temp_bytes(zones)
}

/// Whole-simulation runs `run_balanced` made: one initial run plus one
/// per recorded fraction change of at least the balance tolerance.
pub fn balance_runs(lb: &hsim_core::LoadBalancer) -> u64 {
    1 + lb
        .history
        .windows(2)
        .filter(|w| (w[1] - w[0]).abs() >= hsim_core::calib::BALANCE_TOL)
        .count() as u64
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(xs: &mut [T], rng: &mut hsim_time::SplitMix64) {
    for i in (1..xs.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        xs.swap(i, j);
    }
}
