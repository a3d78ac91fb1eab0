//! `physics` and `adaptive`: full-fidelity runs of the four scenarios.
//!
//! `physics` runs every scenario in all four modes through
//! `runner::run` with the static split, one host thread per rank and
//! tracer particles on. `adaptive` runs every scenario in the
//! Heterogeneous mode with the online rebalancer, a seeded permanent
//! loss of a CPU rank, a transient transfer delay, particles,
//! telemetry, and `nproc` host threads.
//!
//! Seeded inputs: the op order within each pass, the z extent of each
//! scenario's grid (jittered by up to [`z_jitter`] zones), the particle
//! placement seed, and the fault rank and cycles.

use hsim_core::faults::FaultPlan;
use hsim_core::runner::{self, RunConfig};
use hsim_core::{ExecMode, RebalanceConfig, RunResult, Scenario};
use hsim_hydro::HydroState;
use hsim_mesh::{GlobalGrid, Subdomain};
use hsim_particles::ParticlesConfig;
use hsim_raja::Fidelity;
use hsim_telemetry::Counter;
use hsim_time::SplitMix64;

use super::{init_problem, shuffle, state_bytes, Counts, Workload};
use crate::clock::Stamp;
use crate::host::Speed;
use crate::trace::Tracer;
use crate::{Op, Options, WorkloadKind};

/// Tracer particles per run (the scenario gate's count).
pub const PARTICLES: u64 = 128;
/// Cycles of a `physics` run: the scenario gate's, so its analytic
/// error ceilings apply.
const PHYSICS_CYCLES: u64 = 4;
/// Cycles of an `adaptive` run: controller boundaries at 2 and 4, plus
/// the loss at cycle 2, 3 or 4.
const ADAPTIVE_CYCLES: u64 = 6;
/// Relative mass drift a run may show (reduction order only).
const MASS_TOL: f64 = 1e-10;
/// Scenario gate ceilings are this multiple of the baseline error.
const ERROR_CEILING_FRAC: f64 = 1.05;
/// Where the scenario gate's baseline errors live (read only).
const BASELINE: &str = "ci/perf-baseline.json";

/// The scenario gate's grid for `s` (the grids its error baselines
/// were measured on).
fn scenario_grid(s: Scenario) -> (usize, usize, usize) {
    match s {
        Scenario::Sedov => (40, 36, 32),
        Scenario::Sod => (128, 8, 8),
        Scenario::Noh => (48, 44, 40),
        Scenario::TaylorGreen => (36, 56, 64),
    }
}

/// Most zones `nz` may grow for scenario `s` without moving its
/// analytic error: z must stay below the grid's longest extent (which
/// sets the zone width) and off the axes the metric resolves. Sod and
/// Noh are resolved along x, Sedov has no pointwise metric, and the
/// Taylor-Green grid's longest extent is z itself.
fn z_jitter(s: Scenario) -> u64 {
    match s {
        Scenario::Sedov | Scenario::Noh => 2,
        Scenario::Sod => 1,
        Scenario::TaylorGreen => 0,
    }
}

/// One generated run and what its output must satisfy.
struct Input {
    cfg: RunConfig,
    label: String,
    /// Initial total mass of the configured problem on this grid.
    mass0: f64,
    /// Analytic-error ceiling (`None` when the scenario has no
    /// reference solution).
    ceiling: Option<f64>,
}

pub struct Sim {
    adaptive: bool,
    inputs: Vec<Input>,
    rng: SplitMix64,
    /// Whether this process has made its same-config double run.
    double_done: bool,
}

/// The scenario gate's baseline error for `name`, or `None` when the
/// baseline records no analytic reference (negative sentinel).
fn baseline_error(text: &str, name: &str) -> Result<Option<f64>, String> {
    let block = text
        .split_once("\"scenarios\"")
        .ok_or_else(|| format!("{BASELINE} has no scenarios block"))?
        .1;
    let mut errs = Vec::new();
    for obj in block.split('{').skip(1) {
        let obj = obj.split('}').next().unwrap_or("");
        if !obj.contains(&format!("\"name\": \"{name}\"")) {
            continue;
        }
        let v = obj
            .split_once("\"error\":")
            .and_then(|(_, r)| r.split(',').next())
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("{BASELINE}: {name} row has no error"))?;
        errs.push(v);
    }
    let min = errs
        .iter()
        .copied()
        .reduce(f64::min)
        .ok_or_else(|| format!("{BASELINE}: no {name} rows"))?;
    Ok((min >= 0.0).then_some(min))
}

fn initial_mass(cfg: &RunConfig) -> f64 {
    let (nx, ny, nz) = cfg.grid;
    let grid = GlobalGrid::new(nx, ny, nz);
    let mut st = HydroState::new(
        grid,
        Subdomain::new([0, 0, 0], [nx, ny, nz], 1),
        Fidelity::Full,
    );
    init_problem(&cfg.problem, &mut st);
    st.total_mass()
}

impl Sim {
    pub fn new(opts: &Options, adaptive: bool) -> Result<Sim, String> {
        let baseline =
            std::fs::read_to_string(BASELINE).map_err(|e| format!("read {BASELINE}: {e}"))?;
        let kind = if adaptive {
            WorkloadKind::Adaptive
        } else {
            WorkloadKind::Physics
        };
        let threads = super::host_threads(kind);
        // The runner's one-shot tile probe and the shared host pool.
        hsim_core::calib::auto_tile_for(threads);
        if threads > 1 {
            hsim_raja::WorkPool::shared(threads - 1);
        }
        let mut rng = SplitMix64::new(opts.seed ^ if adaptive { 0xADA } else { 0xF15 });
        let modes: Vec<ExecMode> = if adaptive {
            vec![ExecMode::hetero()]
        } else {
            vec![
                ExecMode::CpuOnly,
                ExecMode::Default,
                ExecMode::mps4(),
                ExecMode::hetero(),
            ]
        };
        let node = hsim_core::NodeConfig::rzhasgpu();
        let mut inputs = Vec::new();
        for s in Scenario::ALL {
            let (nx, ny, nz) = scenario_grid(s);
            // Adaptive runs keep the gate grids' y-z planes (the carve
            // axis and kernel-size regime) but halve the long x extents,
            // so a run stays short enough to sample p90.
            let nx = if adaptive && nx * ny * nz > 50_000 {
                nx / 2
            } else {
                nx
            };
            let grid = (nx, ny, nz + rng.next_below(z_jitter(s) + 1) as usize);
            let ceiling = if adaptive {
                None
            } else {
                baseline_error(&baseline, s.name())?.map(|e| e * ERROR_CEILING_FRAC)
            };
            for &mode in &modes {
                let mut cfg = RunConfig::sweep(grid, mode);
                let mut fault_spec = String::new();
                cfg.problem = s.problem();
                cfg.fidelity = Fidelity::Full;
                cfg.host_threads = threads;
                cfg.particles = Some(ParticlesConfig {
                    count: PARTICLES,
                    seed: rng.next_u64() % 1_000_000,
                    ..ParticlesConfig::default()
                });
                if adaptive {
                    cfg.cycles = ADAPTIVE_CYCLES;
                    cfg.telemetry = true;
                    cfg.rebalance = Some(RebalanceConfig {
                        every: 2,
                        ..RebalanceConfig::default()
                    });
                    // CPU workers follow the GPU drivers in rank order.
                    let cpu_ranks = node.cores - node.gpus;
                    let lost = node.gpus + rng.next_below(cpu_ranks as u64) as usize;
                    let loss_cycle = 2 + rng.next_below(3);
                    let delayed =
                        (lost + 1 + rng.next_below(node.cores as u64 - 1) as usize) % node.cores;
                    let delay_cycle = rng.next_below(loss_cycle);
                    let spec = format!(
                        "xfer.delay@rank{delayed}.cycle{delay_cycle}:ns=200000;\
                         rank.loss@rank{lost}.cycle{loss_cycle}"
                    );
                    cfg.faults = Some(FaultPlan::parse(&spec)?);
                    fault_spec = format!(" faults={spec}");
                } else {
                    cfg.cycles = PHYSICS_CYCLES;
                }
                let label = format!(
                    "{}/{} {}x{}x{}{}",
                    s.name(),
                    mode.key(),
                    grid.0,
                    grid.1,
                    grid.2,
                    fault_spec
                );
                let mass0 = initial_mass(&cfg);
                inputs.push(Input {
                    cfg,
                    label,
                    mass0,
                    ceiling,
                });
            }
        }
        Ok(Sim {
            adaptive,
            inputs,
            rng,
            double_done: false,
        })
    }

    fn name(&self) -> &'static str {
        if self.adaptive {
            WorkloadKind::Adaptive.name()
        } else {
            WorkloadKind::Physics.name()
        }
    }

    /// Every check the run's output must pass; the reason on failure.
    fn check(&self, input: &Input, r: &RunResult) -> Result<(), String> {
        let mass = r.mass.ok_or("full-fidelity run reported no mass")?;
        let drift = ((mass - input.mass0) / input.mass0).abs();
        if drift.is_nan() || drift > MASS_TOL {
            return Err(format!(
                "mass {mass} drifted {drift:e} from {}",
                input.mass0
            ));
        }
        let p = r.particles.as_ref().ok_or("particle phase missing")?;
        if p.count != PARTICLES {
            return Err(format!("particle count {} != {PARTICLES}", p.count));
        }
        if !p.momentum.iter().all(|m| m.is_finite()) {
            return Err(format!("particle momentum not finite: {:?}", p.momentum));
        }
        if let Some(ceiling) = input.ceiling {
            let err = r
                .scenario
                .as_ref()
                .and_then(|s| s.error)
                .ok_or("scenario reported no analytic error")?;
            if err.is_nan() || err > ceiling {
                return Err(format!("analytic error {err} above ceiling {ceiling}"));
            }
        }
        if self.adaptive {
            let t = r.telemetry.as_ref().ok_or("telemetry missing")?;
            if t.metrics.counter(Counter::FaultRankLosses) != 1 {
                return Err("the planned rank loss was not folded back".into());
            }
        }
        Ok(())
    }
}

/// The bytes two same-config runs must agree on.
fn fingerprint(r: &RunResult) -> Vec<u8> {
    let mut out = hsim_serve::render_response(r);
    out.extend(r.mass.map_or(0, f64::to_bits).to_le_bytes());
    for f in &r.balance_history {
        out.extend(f.to_bits().to_le_bytes());
    }
    if let Some(p) = &r.particles {
        out.extend(p.checksum.to_le_bytes());
        out.extend(p.migrated.to_le_bytes());
    }
    if let Some(t) = &r.telemetry {
        // Host wall-clock counters (`host_*_nanos`) differ run to run
        // by design; every other line is virtual-time and must repeat.
        for line in t
            .to_metrics_json()
            .lines()
            .filter(|l| !l.contains("_nanos\""))
        {
            out.extend(line.as_bytes());
        }
    }
    out
}

impl Workload for Sim {
    fn run_pass(
        &mut self,
        pass: u64,
        _remaining_s: f64,
        tracer: &Tracer,
        speed: &Speed,
        corrupt: bool,
        ops: &mut Vec<Op>,
        _counts: &mut Counts,
    ) {
        let mut order: Vec<usize> = (0..self.inputs.len()).collect();
        shuffle(&mut order, &mut self.rng);
        for (k, &i) in order.iter().enumerate() {
            let input = &self.inputs[i];
            let op_id = pass * self.inputs.len() as u64 + k as u64;
            speed.between_ops();
            let t0 = Stamp::now();
            let res = tracer.span("core.run", None, op_id, |_| runner::run(&input.cfg));
            let ms = t0.elapsed_ms();
            let zone_cycles =
                (input.cfg.grid.0 * input.cfg.grid.1 * input.cfg.grid.2) as u64 * input.cfg.cycles;
            let verdict = res.and_then(|mut r| {
                if corrupt && k == 0 {
                    r.mass = r.mass.map(|m| m * 1.5);
                }
                self.check(input, &r)?;
                Ok(r)
            });
            let ok = match &verdict {
                Ok(_) => true,
                Err(e) => {
                    eprintln!("{}: {}: {e}", self.name(), input.label);
                    false
                }
            };
            ops.push(Op {
                worker: 0,
                at: t0,
                ms,
                zone_cycles,
                ok,
            });
            // Once per process: rerun one config and require identical
            // bytes (the rerun is timed as an op of its own).
            if self.adaptive && !self.double_done {
                self.double_done = true;
                speed.between_ops();
                let t1 = Stamp::now();
                let again = tracer.span("core.run", None, op_id, |_| runner::run(&input.cfg));
                let ms = t1.elapsed_ms();
                let same = matches!((&verdict, &again), (Ok(a), Ok(b)) if fingerprint(a) == fingerprint(b));
                if !same {
                    eprintln!("adaptive: {}: same-config double run differs", input.label);
                }
                ops.push(Op {
                    worker: 0,
                    at: t1,
                    ms,
                    zone_cycles,
                    ok: same,
                });
            }
        }
    }

    fn block_ops(&self) -> usize {
        self.inputs.len()
    }

    fn probe_configs(&self) -> Vec<RunConfig> {
        // Heterogeneous inputs first: they hold every rank kind.
        let mut cfgs: Vec<RunConfig> = self
            .inputs
            .iter()
            .filter(|i| matches!(i.cfg.mode, ExecMode::Heterogeneous { .. }))
            .map(|i| i.cfg.clone())
            .collect();
        // Taylor-Green (the fattest grid) leads.
        cfgs.rotate_right(1);
        cfgs
    }

    fn working_set_bytes(&self) -> u64 {
        self.inputs
            .iter()
            .map(|i| state_bytes(&i.cfg))
            .max()
            .unwrap_or(0)
    }

    fn describe(&self) -> Vec<String> {
        let mut out = vec![format!(
            "inputs: {} full-fidelity runner::run ops per pass, {} cycles, {PARTICLES} particles, \
             host_threads={}, grid nz jitter of 0-2 zones where no analytic metric depends on it",
            self.inputs.len(),
            self.inputs[0].cfg.cycles,
            self.inputs[0].cfg.host_threads
        )];
        out.extend(self.inputs.iter().map(|i| format!("  input {}", i.label)));
        out
    }
}
