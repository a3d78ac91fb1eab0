//! Per-layer replay: each layer metric calls that layer's public
//! functions on the inputs the workload generated, inside a span of
//! the benchmark's own tracer. See `WORKLOADS.md` for the end-to-end
//! metric each one should move.

use std::hint::black_box;
use std::sync::Arc;

use hsim_core::coupler::MpiCoupler;
use hsim_core::runner::{self, build_decomposition, hetero_min_fraction, RunConfig};
use hsim_core::{memscheme, ExecMode, LoadBalancer};
use hsim_gpu::Device;
use hsim_hydro::{step, CoupleError, Coupler, HydroState, SoloCoupler, NCONS};
use hsim_mesh::decomp::block::block_decomp;
use hsim_mesh::{Decomposition, HaloPlan};
use hsim_mpi::World;
use hsim_particles::{ParticlesConfig, PhaseState};
use hsim_raja::{Executor, Fidelity, SharedDevice, Target, WorkPool};
use hsim_time::RankClock;

use crate::clock::Stamp;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::workloads::{balance_runs, init_problem, Counts};
use crate::{Metric, WorkloadKind};

/// Largest grid a full-fidelity replay builds; cost-only workloads'
/// grids are shrunk along x to fit.
const FULL_ZONE_CAP: usize = 1 << 18;
/// Cycles each stepping replay advances.
const REPLAY_CYCLES: u64 = 4;

/// What the replay needs from the workload run.
pub struct Inputs<'a> {
    pub kind: WorkloadKind,
    /// Generated run configs, representative first.
    pub cfgs: Vec<RunConfig>,
    pub tracer: &'a Tracer,
    /// Scaled `op_ms_p50` of the traced phase, and its op count.
    pub traced_p50_ms: f64,
    pub traced_ops: usize,
    pub counts: &'a Counts,
    /// Wall time of the first `auto_tile_for` at set-up.
    pub calib_probe_ms: f64,
    /// Untraced `op_ms_p50` of the same process.
    pub untraced_p50_ms: f64,
    /// The workload's own server and address, when it has one.
    pub server: Option<(Arc<hsim_serve::Server>, std::net::SocketAddr)>,
}

/// Time `f` at least `min_reps` times and until `budget_ms` is spent
/// (at most 1000 calls), the batch in one span; returns the mean µs
/// per call.
fn reps<R>(
    tracer: &Tracer,
    name: &'static str,
    parent: u64,
    min_reps: usize,
    budget_ms: f64,
    mut f: impl FnMut() -> R,
) -> f64 {
    tracer.span(name, Some(parent), 0, |_| {
        let t0 = Stamp::now();
        let mut n = 0;
        while n < min_reps || (t0.elapsed_ms() < budget_ms && n < 1000) {
            black_box(f());
            n += 1;
        }
        t0.elapsed_us() / n as f64
    })
}

/// The CPU fraction a heterogeneous run of `cfg` starts from.
fn start_fraction(cfg: &RunConfig) -> f64 {
    match cfg.mode {
        ExecMode::Heterogeneous { .. } => LoadBalancer::new(&cfg.node)
            .fraction
            .max(hetero_min_fraction(cfg)),
        _ => 0.0,
    }
}

/// `cfg` at full fidelity, shrunk along x to at most [`FULL_ZONE_CAP`]
/// zones (a no-op for the full-fidelity workloads).
fn full(cfg: &RunConfig) -> RunConfig {
    let mut c = cfg.clone();
    c.fidelity = Fidelity::Full;
    let plane = c.grid.1 * c.grid.2;
    c.grid.0 = c.grid.0.min((FULL_ZONE_CAP / plane.max(1)).max(8));
    c
}

fn states(cfg: &RunConfig, d: &Decomposition) -> Vec<HydroState> {
    d.domains
        .iter()
        .map(|sub| {
            let mut st = HydroState::new(d.grid, *sub, cfg.fidelity);
            st.tile = cfg
                .tile
                .unwrap_or_else(|| hsim_core::calib::auto_tile_for(1));
            init_problem(&cfg.problem, &mut st);
            st
        })
        .collect()
}

fn cpu_exec(fidelity: Fidelity) -> Executor {
    Executor::new(
        Target::CpuSeq,
        hsim_core::NodeConfig::rzhasgpu().cpu,
        fidelity,
    )
}

/// A [`SoloCoupler`] that counts the exchanges a cycle makes.
#[derive(Default)]
struct CountingSolo {
    exchanges: u64,
}

impl Coupler for CountingSolo {
    fn exchange(&mut self, s: &mut HydroState, c: &mut RankClock) -> Result<(), CoupleError> {
        self.exchanges += 1;
        SoloCoupler.exchange(s, c)
    }

    fn allreduce_min(&mut self, x: f64, c: &mut RankClock) -> Result<f64, CoupleError> {
        SoloCoupler.allreduce_min(x, c)
    }
}

/// Mean wall µs of one `step` per state, each state stepping on its
/// own executor with `SoloCoupler`; also the launches one cycle issues
/// across all states.
fn step_states(
    tracer: &Tracer,
    name: &'static str,
    parent: u64,
    sts: &mut [HydroState],
    execs: &mut [Executor],
) -> (f64, u64) {
    let mut launches = 0;
    let mut clock = RankClock::new(0);
    let t0 = Stamp::now();
    for cycle in 0..REPLAY_CYCLES {
        for (st, ex) in sts.iter_mut().zip(execs.iter_mut()) {
            let stats = tracer
                .span(name, Some(parent), 0, |_| {
                    step(
                        st,
                        ex,
                        &mut clock,
                        &mut SoloCoupler,
                        hsim_core::calib::CFL,
                        hsim_core::calib::COST_ONLY_DT,
                    )
                })
                .expect("replayed step");
            if cycle == 0 {
                launches += stats.launches;
            }
        }
    }
    (t0.elapsed_us() / REPLAY_CYCLES as f64, launches)
}

pub fn replay(inp: &Inputs<'_>) -> Vec<Metric> {
    let t = inp.tracer;
    let cfg = &inp.cfgs[0];
    let node = &cfg.node;
    let fraction = start_fraction(cfg);
    let decomp = build_decomposition(cfg, fraction).expect("probe decomposition");
    let n_ranks = decomp.len();
    let mut m = Vec::new();
    t.span("layers", None, 0, |root| {
        // core
        m.push(Metric::new(
            "core.run_ms",
            "ms",
            inp.traced_p50_ms,
            inp.traced_ops,
        ));
        let per_op = match inp.kind {
            WorkloadKind::Figures => {
                inp.counts.balance_runs as f64 / inp.counts.balance_results.max(1) as f64
            }
            WorkloadKind::Serve => {
                let runs: Vec<f64> = inp
                    .cfgs
                    .iter()
                    .map(|c| {
                        t.span("core.run_balanced", Some(root), 0, |_| {
                            hsim_core::run_balanced(c)
                                .map_or(0.0, |(_, lb)| balance_runs(&lb) as f64)
                        })
                    })
                    .collect();
                mean(&runs)
            }
            // These workloads call `runner::run`: one run per result.
            WorkloadKind::Physics | WorkloadKind::Adaptive => 1.0,
        };
        m.push(Metric::new("core.balance_runs_per_op", "count", per_op, 1));
        let decomp_us = mean(
            &inp.cfgs
                .iter()
                .map(|c| {
                    let f = start_fraction(c);
                    reps(t, "core.build_decomposition", root, 20, 20.0, || {
                        build_decomposition(c, f)
                    })
                })
                .collect::<Vec<_>>(),
        );
        m.push(Metric::new(
            "core.decomp_us",
            "us",
            decomp_us,
            inp.cfgs.len(),
        ));
        m.push(Metric::new(
            "core.segment_overhead_ms",
            "ms",
            segment_overhead(inp, root),
            1,
        ));
        m.push(Metric::new("calib.probe_ms", "ms", inp.calib_probe_ms, 1));

        // mesh
        let plan_us = reps(t, "mesh.HaloPlan::build", root, 20, 20.0, || {
            HaloPlan::build(&decomp)
        });
        m.push(Metric::new("mesh.halo_plan_us", "us", plan_us, 1));
        let plan = HaloPlan::build(&decomp);
        let ghost = decomp.domains[0].ghost;
        let round: u64 = plan
            .exchanges()
            .iter()
            .map(|e| 2 * e.bytes(ghost) * NCONS as u64)
            .sum();
        let exchanges_per_cycle = {
            let mut sts = states(&cfg_cost(cfg), &decomp);
            let mut c = CountingSolo::default();
            let mut clock = RankClock::new(0);
            step(
                &mut sts[0],
                &mut cpu_exec(Fidelity::CostOnly),
                &mut clock,
                &mut c,
                hsim_core::calib::CFL,
                hsim_core::calib::COST_ONLY_DT,
            )
            .expect("counted step");
            c.exchanges
        };
        m.push(Metric::new(
            "mesh.halo_bytes_per_cycle",
            "bytes",
            (round * exchanges_per_cycle) as f64,
            1,
        ));

        // mpisim
        let spawn_us = reps(t, "mpisim.World::run", root, 10, 50.0, || {
            World::run(n_ranks, node.comm.clone(), |c| c.barrier().is_ok())
        });
        m.push(Metric::new("mpisim.world_spawn_us", "us", spawn_us, 1));
        let (ex_us, bytes, msgs) = t.span("mpisim.exchange", Some(root), 0, |_| {
            exchange(cfg, &decomp, &plan)
        });
        m.push(Metric::new(
            "mpisim.exchange_us_per_cycle",
            "us",
            (ex_us - spawn_us).max(0.0) / REPLAY_CYCLES as f64,
            REPLAY_CYCLES as usize,
        ));
        m.push(Metric::new("mpisim.bytes_per_cycle", "bytes", bytes, 1));
        m.push(Metric::new("mpisim.msgs_per_cycle", "count", msgs, 1));

        // hydro
        let fcfg = full(cfg);
        let fdecomp =
            build_decomposition(&fcfg, start_fraction(&fcfg)).expect("full-fidelity decomposition");
        let mut sts = states(&fcfg, &fdecomp);
        let mut execs: Vec<Executor> = sts.iter().map(|_| cpu_exec(Fidelity::Full)).collect();
        let (us, launches) = step_states(t, "hydro.step", root, &mut sts, &mut execs);
        let kzones = fcfg.grid.0 * fcfg.grid.1 * fcfg.grid.2;
        m.push(Metric::new(
            "hydro.step_us_per_kzone",
            "us",
            us / (kzones as f64 / 1e3),
            fdecomp.len(),
        ));
        m.push(Metric::new(
            "hydro.launches_per_cycle",
            "count",
            launches as f64,
            1,
        ));
        let whole = block_decomp(fdecomp.grid, 1, 1);
        let mut solo = states(&fcfg, &whole);
        let mut solo_exec = vec![cpu_exec(Fidelity::Full)];
        let (us, _) = step_states(t, "hydro.step_solo", root, &mut solo, &mut solo_exec);
        m.push(Metric::new(
            "hydro.solo_mzone_cycles_per_s",
            "Mzc/s",
            kzones as f64 / us,
            1,
        ));

        // raja
        let ccfg = cfg_cost(cfg);
        let mut sts = states(&ccfg, &decomp);
        let mut execs: Vec<Executor> = sts.iter().map(|_| cpu_exec(Fidelity::CostOnly)).collect();
        let (us, _) = step_states(t, "raja.costonly_step", root, &mut sts, &mut execs);
        m.push(Metric::new("raja.costonly_step_us", "us", us, n_ranks));
        // The pool the `adaptive` runs share: `nproc` threads.
        let threads = crate::stats::nproc();
        let pool = WorkPool::shared(threads - 1);
        let region_us = reps(t, "raja.WorkPool::for_each", root, 100, 20.0, || {
            pool.for_each(0, 4096, 256, |i| {
                black_box(i);
            })
        });
        m.push(Metric::new("raja.pool_region_us", "us", region_us, threads));

        // gpusim
        let (excl, mps, um) = gpu(t, root, &ccfg, &decomp);
        m.push(Metric::new("gpusim.step_us_exclusive", "us", excl, 1));
        m.push(Metric::new("gpusim.step_us_mps", "us", mps, 4));
        m.push(Metric::new("gpusim.um_touch_us", "us", um, 1));

        // particles
        let (adv, mig, moved) = t.span("particles", Some(root), 0, |_| particles(&fcfg, &fdecomp));
        m.push(Metric::new(
            "particles.advect_us_per_cycle",
            "us",
            adv,
            fdecomp.len(),
        ));
        m.push(Metric::new(
            "particles.migrate_us_per_cycle",
            "us",
            mig,
            fdecomp.len(),
        ));
        m.push(Metric::new(
            "particles.migrated_per_cycle",
            "count",
            moved,
            1,
        ));

        // telemetry
        m.extend(telemetry(t, root, cfg));

        // serve
        m.extend(serve(inp, root));

        m.push(Metric::new(
            "trace.overhead_ms",
            "ms",
            inp.traced_p50_ms - inp.untraced_p50_ms,
            inp.traced_ops,
        ));
    });
    m
}

fn cfg_cost(cfg: &RunConfig) -> RunConfig {
    let mut c = cfg.clone();
    c.fidelity = Fidelity::CostOnly;
    c
}

/// `adaptive` op time minus the same config run as one static segment
/// (no controller, no faults); 0 for workloads whose ops already are
/// single static segments.
fn segment_overhead(inp: &Inputs<'_>, root: u64) -> f64 {
    let t = inp.tracer;
    let diffs: Vec<f64> = inp
        .cfgs
        .iter()
        .filter(|c| matches!(c.mode, ExecMode::Heterogeneous { .. }))
        .take(4)
        .map(|cfg| {
            let mut plain = cfg.clone();
            plain.rebalance = None;
            plain.faults = None;
            // Workloads whose ops are single static segments replay
            // their config segmented the way `adaptive` runs it.
            let mut cfg = cfg.clone();
            if cfg.rebalance.is_none() {
                cfg.rebalance = Some(hsim_core::RebalanceConfig {
                    every: 2,
                    ..Default::default()
                });
                cfg.cycles = cfg.cycles.max(6);
                plain.cycles = cfg.cycles;
                let lost = cfg.node.gpus;
                cfg.faults = Some(
                    hsim_core::faults::FaultPlan::parse(&format!("rank.loss@rank{lost}.cycle2"))
                        .expect("segmenting fault plan"),
                );
            }
            let cfg = &cfg;
            // Alternate the two so host drift hits both alike.
            let (mut seg, mut one) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                seg.push(reps(t, "core.run_segmented", root, 1, 0.0, || {
                    runner::run(cfg).expect("segmented run")
                }));
                one.push(reps(t, "core.run_static", root, 1, 0.0, || {
                    runner::run(&plain).expect("static run")
                }));
            }
            (median(&seg) - median(&one)) / 1e3
        })
        .collect();
    median(&diffs)
}

/// Halo exchange plus the timestep reduction on real rank states, no
/// hydro: total wall µs for [`REPLAY_CYCLES`] cycles, and bytes and
/// messages sent per cycle across ranks.
fn exchange(cfg: &RunConfig, decomp: &Decomposition, plan: &HaloPlan) -> (f64, f64, f64) {
    let sts = std::sync::Mutex::new(
        states(cfg, decomp)
            .into_iter()
            .map(Some)
            .collect::<Vec<_>>(),
    );
    let gpu_spec = cfg.node.gpu_spec.clone();
    let t0 = Stamp::now();
    let sent = World::run(decomp.len(), cfg.node.comm.clone(), |comm| {
        let rank = comm.rank();
        let mut st = sts.lock().expect("state slots")[rank]
            .take()
            .expect("one state per rank");
        let mut clock = RankClock::new(rank);
        let mut c = MpiCoupler {
            comm,
            plan,
            decomp,
            gpu_spec: decomp.owners[rank].is_gpu().then(|| gpu_spec.clone()),
            gpu_direct: cfg.gpu_direct,
        };
        for _ in 0..REPLAY_CYCLES {
            c.exchange(&mut st, &mut clock).expect("replayed exchange");
            c.allreduce_min(1.0, &mut clock)
                .expect("replayed reduction");
        }
        (c.comm.bytes_sent(), c.comm.msgs_sent())
    });
    let us = t0.elapsed_us();
    let cycles = REPLAY_CYCLES as f64;
    let bytes: u64 = sent.iter().map(|s| s.0).sum();
    let msgs: u64 = sent.iter().map(|s| s.1).sum();
    (us, bytes as f64 / cycles, msgs as f64 / cycles)
}

/// Cost-only `step` on a device target: one exclusive client, then four
/// MPS clients stepping together. Also the unified-memory fault-in of
/// the first GPU rank's mesh.
fn gpu(t: &Tracer, root: u64, cfg: &RunConfig, decomp: &Decomposition) -> (f64, f64, f64) {
    let node = &cfg.node;
    let gpu_rank = (0..decomp.len())
        .find(|&r| decomp.owners[r].is_gpu())
        .unwrap_or(0);
    let sub = decomp.domains[gpu_rank];
    let exclusive = {
        let (_dev, client) = SharedDevice::new_exclusive(Device::new(0, node.gpu_spec.clone()), 0)
            .expect("exclusive device");
        let mut st = HydroState::new(decomp.grid, sub, Fidelity::CostOnly);
        init_problem(&cfg.problem, &mut st);
        let mut ex = Executor::new(Target::Gpu(client), node.cpu.clone(), Fidelity::CostOnly);
        let mut clock = RankClock::new(0);
        reps(t, "gpusim.step_exclusive", root, 20, 20.0, || {
            step(
                &mut st,
                &mut ex,
                &mut clock,
                &mut SoloCoupler,
                hsim_core::calib::CFL,
                hsim_core::calib::COST_ONLY_DT,
            )
            .expect("exclusive step")
        })
    };
    let mps = {
        let (_dev, clients) =
            SharedDevice::new_mps(Device::new(0, node.gpu_spec.clone()), &[0, 1, 2, 3])
                .expect("MPS device");
        let parts = sub.split_along(1, 4);
        let t0 = Stamp::now();
        t.span("gpusim.step_mps", Some(root), 0, |_| {
            std::thread::scope(|s| {
                for (client, part) in clients.into_iter().zip(parts) {
                    let cfg = cfg.clone();
                    let grid = decomp.grid;
                    s.spawn(move || {
                        let mut st = HydroState::new(grid, part, Fidelity::CostOnly);
                        init_problem(&cfg.problem, &mut st);
                        let mut ex = Executor::new(
                            Target::Gpu(client),
                            cfg.node.cpu.clone(),
                            Fidelity::CostOnly,
                        );
                        let mut clock = RankClock::new(0);
                        for _ in 0..20 {
                            step(
                                &mut st,
                                &mut ex,
                                &mut clock,
                                &mut SoloCoupler,
                                hsim_core::calib::CFL,
                                hsim_core::calib::COST_ONLY_DT,
                            )
                            .expect("MPS step");
                        }
                    });
                }
            })
        });
        t0.elapsed_us() / 20.0
    };
    let um = {
        let bytes = memscheme::mesh_bytes(sub.zones());
        let mut samples = Vec::new();
        for _ in 0..20 {
            let (dev, _client) =
                SharedDevice::new_exclusive(Device::new(0, node.gpu_spec.clone()), 0)
                    .expect("exclusive device");
            let t0 = Stamp::now();
            t.span("gpusim.um_alloc_and_touch", Some(root), 0, |_| {
                dev.um_alloc_and_touch(bytes)
            })
            .expect("UM fault-in");
            samples.push(t0.elapsed_us());
        }
        mean(&samples)
    };
    (exclusive, mps, um)
}

/// The coupled cycle on every rank of `decomp` through the real
/// coupler: hydro step, then particle advect and migrate. Returns the
/// rank-summed µs per cycle of advect, the wall µs per cycle of the
/// migration collective (entered after a barrier, so it excludes
/// waiting for peers' hydro), and particles shipped per cycle.
fn particles(cfg: &RunConfig, decomp: &Decomposition) -> (f64, f64, f64) {
    let pcfg = cfg.particles.unwrap_or(ParticlesConfig {
        count: crate::workloads::PARTICLES,
        ..ParticlesConfig::default()
    });
    let plan = HaloPlan::build(decomp);
    let sts = std::sync::Mutex::new(
        states(cfg, decomp)
            .into_iter()
            .map(Some)
            .collect::<Vec<_>>(),
    );
    let per_rank = World::run(decomp.len(), cfg.node.comm.clone(), |comm| {
        let rank = comm.rank();
        let mut st = sts.lock().expect("state slots")[rank]
            .take()
            .expect("one state per rank");
        let mut phase = PhaseState::init_owned(pcfg, &decomp.grid, &decomp.domains[rank]);
        let mut ex = cpu_exec(cfg.fidelity);
        let mut clock = RankClock::new(rank);
        let mut c = MpiCoupler {
            comm,
            plan: &plan,
            decomp,
            gpu_spec: None,
            gpu_direct: false,
        };
        let (mut adv, mut mig) = (0.0, 0.0);
        for cycle in 0..REPLAY_CYCLES {
            let dt = step(
                &mut st,
                &mut ex,
                &mut clock,
                &mut c,
                hsim_core::calib::CFL,
                hsim_core::calib::COST_ONLY_DT,
            )
            .expect("coupled step")
            .dt;
            let t0 = Stamp::now();
            hsim_particles::advect(&mut phase, &st, &mut ex, &mut clock, dt, cycle)
                .expect("advect");
            let adv_us = t0.elapsed_us();
            c.comm.barrier().expect("barrier");
            let t1 = Stamp::now();
            hsim_particles::migrate(&mut phase, decomp, rank, &mut c, &mut clock).expect("migrate");
            adv += adv_us;
            mig += t1.elapsed_us();
        }
        (adv, mig, phase.migrated)
    });
    let cycles = REPLAY_CYCLES as f64;
    (
        per_rank.iter().map(|r| r.0).sum::<f64>() / cycles,
        per_rank.iter().map(|r| r.1).fold(0.0, f64::max) / cycles,
        per_rank.iter().map(|r| r.2).sum::<u64>() as f64 / cycles,
    )
}

/// The same run with telemetry on minus off, the cost of rendering the
/// summary, and the spans one run records.
fn telemetry(t: &Tracer, root: u64, cfg: &RunConfig) -> Vec<Metric> {
    let mut on = cfg.clone();
    on.telemetry = true;
    let mut off = cfg.clone();
    off.telemetry = false;
    // Alternate on and off so drift in the host hits both alike.
    let (mut t_on, mut t_off) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        for (c, name, xs) in [
            (&on, "telemetry.run_on", &mut t_on),
            (&off, "telemetry.run_off", &mut t_off),
        ] {
            let t0 = Stamp::now();
            t.span(name, Some(root), 0, |_| {
                runner::run(c).expect("telemetry replay")
            });
            xs.push(t0.elapsed_ms());
        }
    }
    let overhead = median(&t_on) - median(&t_off);
    let summary = runner::run(&on)
        .expect("telemetry run")
        .telemetry
        .expect("telemetry on");
    let render_us = reps(t, "telemetry.render", root, 3, 20.0, || {
        summary.to_chrome_json().len() + summary.to_metrics_json().len()
    });
    vec![
        Metric::new("telemetry.overhead_ms", "ms", overhead, 5),
        Metric::new("telemetry.render_ms", "ms", render_us / 1e3, 1),
        Metric::new(
            "telemetry.spans_per_op",
            "count",
            summary.spans.len() as f64,
            1,
        ),
    ]
}

/// In-process `Server::submit` of a cached key, the same key over
/// loopback HTTP, the useful hit rate and typed rejections. Workloads
/// without a server of their own replay against a fresh one.
fn serve(inp: &Inputs<'_>, root: u64) -> Vec<Metric> {
    use hsim_serve::{Server, ServerConfig};
    let mut cfg = inp.cfgs[0].clone();
    cfg.fidelity = Fidelity::CostOnly;
    cfg.telemetry = false;
    // The HTTP body grammar has no fault, rebalance or host-thread
    // keys, so both paths use the config the body can express.
    cfg.faults = None;
    cfg.rebalance = None;
    cfg.host_threads = 1;
    cfg.particles = None;
    let (submit_us, http_us, stats) = match &inp.server {
        Some((server, addr)) => serve_replay(inp.tracer, root, server, *addr, &cfg),
        None => {
            let server = Server::new(ServerConfig::default());
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind replay server");
            let addr = listener.local_addr().expect("replay server address");
            let out = std::thread::scope(|s| {
                s.spawn(|| {
                    hsim_serve::http::serve(&server, listener, Some(HTTP_REPS))
                        .expect("replay server")
                });
                serve_replay(inp.tracer, root, &server, addr, &cfg)
            });
            server.shutdown();
            out
        }
    };
    let (hit_rate, rejected) = match inp.kind {
        WorkloadKind::Serve => (
            inp.counts.hits as f64 / inp.counts.requests.max(1) as f64,
            inp.counts.rejected as f64,
        ),
        _ => (stats.hit_rate(), stats.rejected as f64),
    };
    vec![
        Metric::new("serve.submit_hit_us", "us", submit_us, 200),
        Metric::new("serve.http_us", "us", http_us - submit_us, HTTP_REPS),
        Metric::new(
            "serve.hit_rate",
            "ratio",
            hit_rate,
            inp.counts.requests.max(1) as usize,
        ),
        Metric::new("serve.rejected", "count", rejected, 1),
    ]
}

/// Warm `cfg`'s key, then time in-process cached submits (mean µs) and
/// [`HTTP_REPS`] loopback requests for it (median µs).
fn serve_replay(
    t: &Tracer,
    root: u64,
    server: &hsim_serve::Server,
    addr: std::net::SocketAddr,
    cfg: &RunConfig,
) -> (f64, f64, hsim_serve::ServeStats) {
    use hsim_serve::Request;
    let mode = match cfg.mode {
        ExecMode::CpuOnly => "cpuonly",
        ExecMode::Default => "default",
        ExecMode::Mps { .. } => "mps",
        ExecMode::Heterogeneous { .. } => "hetero",
    };
    let scenario = hsim_core::Scenario::of_problem(&cfg.problem).map_or("sedov", |s| s.name());
    let body = format!(
        "mode={mode}&scenario={scenario}&grid={},{},{}&cycles={}&balanced=1",
        cfg.grid.0, cfg.grid.1, cfg.grid.2, cfg.cycles
    );
    server
        .submit(Request::balanced(cfg.clone()))
        .expect("warm replay key");
    let submit_us = reps(t, "serve.Server::submit", root, 200, 20.0, || {
        server
            .submit(Request::balanced(cfg.clone()))
            .expect("cached submit")
    });
    let http_us: Vec<f64> = (0..HTTP_REPS)
        .map(|_| {
            let t0 = Stamp::now();
            t.span("serve.http", Some(root), 0, |_| post(addr, &body));
            t0.elapsed_us()
        })
        .collect();
    (submit_us, median(&http_us), server.stats())
}

/// Loopback requests in the `serve.http_us` replay.
const HTTP_REPS: usize = 50;

fn post(addr: std::net::SocketAddr, body: &str) -> usize {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect replay server");
    s.set_nodelay(true).expect("nodelay");
    write!(
        s,
        "POST /run HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send replay request");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read replay reply");
    assert!(out.starts_with(b"HTTP/1.1 200"), "replay request refused");
    out.len()
}
