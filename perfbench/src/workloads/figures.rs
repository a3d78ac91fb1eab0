//! `figures`: a cost-only regeneration of every figure sweep through
//! `run_balanced`, exactly as the `figures` binary runs it, on `nproc`
//! sweep threads. The seed only permutes the order in which threads
//! claim sweep points, so the series bytes (checked against stored
//! digests) never depend on it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hsim_bench::{paper_modes, FigureData, Series, SkippedPoint};
use hsim_core::figures::{all_figures, FigureSpec};
use hsim_core::{run_balanced, ExecMode, RunConfig};
use hsim_time::SplitMix64;

use super::{balance_runs, shuffle, state_bytes, Counts, Workload};
use crate::clock::Stamp;
use crate::host::Speed;
use crate::stats::digest;
use crate::trace::Tracer;
use crate::{Op, Options};

/// FNV-1a digest of each figure's CSV series plus its skipped-point
/// footer, as the unchanged program writes them.
const FIGURE_DIGESTS: [(&str, u64); 11] = [
    ("fig12", 0x6093_f2dd_c8df_a655),
    ("fig13", 0x9bfc_b731_cc0b_c5df),
    ("fig14", 0x554f_8a29_6375_1640),
    ("fig15", 0x5b91_6652_e9a8_0b70),
    ("fig16", 0x1d2a_62ba_95ea_f0e2),
    ("fig17", 0xcd63_d5db_c828_3d24),
    ("fig18", 0xd552_f442_5bd7_8827),
    ("fig-sedov", 0x83f5_7f06_e440_fc0c),
    ("fig-sod", 0x73db_89fc_0f5d_cd7d),
    ("fig-noh", 0x76d3_cb12_1837_1ca9),
    ("fig-taylor-green", 0x5f56_8f9f_4787_2413),
];

/// Figures the smallest size regenerates.
const SMALL_FIGURES: [&str; 1] = ["fig-sod"];

/// One sweep simulation: a (figure, mode, point) triple.
#[derive(Clone, Copy)]
struct Task {
    fig: usize,
    mode: usize,
    point: usize,
}

enum Outcome {
    Point((u64, usize, f64, f64), u64),
    Skip(String),
}

pub struct Figures {
    specs: Vec<FigureSpec>,
    modes: Vec<ExecMode>,
    tasks: Vec<Task>,
    jobs: usize,
    rng: SplitMix64,
}

impl Figures {
    pub fn new(opts: &Options) -> Figures {
        // The runner probes the tile shape on its first call; do it here
        // so the first sweep point does not pay for it.
        hsim_core::calib::auto_tile_for(1);
        let specs: Vec<FigureSpec> = all_figures()
            .into_iter()
            .filter(|s| !opts.small || SMALL_FIGURES.contains(&s.id))
            .collect();
        let modes = paper_modes();
        let mut tasks = Vec::new();
        for (fig, spec) in specs.iter().enumerate() {
            for mode in 0..modes.len() {
                for point in 0..spec.values.len() {
                    tasks.push(Task { fig, mode, point });
                }
            }
        }
        Figures {
            specs,
            modes,
            tasks,
            jobs: crate::stats::nproc(),
            rng: SplitMix64::new(opts.seed ^ 0xF16_0000),
        }
    }

    fn config(&self, t: Task) -> RunConfig {
        let spec = &self.specs[t.fig];
        let mut cfg = RunConfig::sweep(spec.points()[t.point].grid(), self.modes[t.mode]);
        cfg.problem = spec.scenario.problem();
        cfg
    }

    /// Assemble one figure's series in the sweep engine's fixed
    /// mode-major, point-minor order and render the bytes it writes.
    fn figure_bytes(&self, fig: usize, outcomes: &[Outcome]) -> Vec<u8> {
        let spec = &self.specs[fig];
        let mut series = Vec::new();
        let mut skipped = Vec::new();
        for (mi, mode) in self.modes.iter().enumerate() {
            let mut points = Vec::new();
            for (pi, p) in spec.points().iter().enumerate() {
                let idx = self
                    .tasks
                    .iter()
                    .position(|t| t.fig == fig && t.mode == mi && t.point == pi)
                    .expect("every sweep point has a task");
                match &outcomes[idx] {
                    Outcome::Point(pt, _) => points.push(*pt),
                    Outcome::Skip(reason) => skipped.push(SkippedPoint {
                        mode: mode.label(),
                        grid: p.grid(),
                        swept_dim: spec.values[pi],
                        reason: reason.clone(),
                    }),
                }
            }
            series.push(Series {
                mode: *mode,
                label: mode.label(),
                points,
            });
        }
        let data = FigureData {
            id: spec.id,
            caption: spec.caption,
            series,
            skipped,
        };
        let mut bytes = data.to_csv().into_bytes();
        bytes.extend_from_slice(data.skip_footer().as_bytes());
        bytes
    }
}

impl Workload for Figures {
    fn run_pass(
        &mut self,
        pass: u64,
        _remaining_s: f64,
        tracer: &Tracer,
        speed: &Speed,
        corrupt: bool,
        ops: &mut Vec<Op>,
        counts: &mut Counts,
    ) {
        let n = self.tasks.len();
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, &mut self.rng);
        let cursor = AtomicUsize::new(0);
        // Each task's outcome and its op, checks still pending.
        let slots: Vec<Mutex<Option<(Outcome, Op)>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let this = &*self;
        let worker = |id: usize| loop {
            speed.between_ops();
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= n {
                break;
            }
            let t = order[c];
            let cfg = this.config(this.tasks[t]);
            let op_id = pass * n as u64 + t as u64;
            let t0 = Stamp::now();
            let res = tracer.span("core.run_balanced", None, op_id, |_| run_balanced(&cfg));
            let ms = t0.elapsed_ms();
            let outcome = match res {
                Ok((r, lb)) => Outcome::Point(
                    (
                        r.zones,
                        this.specs[this.tasks[t].fig].values[this.tasks[t].point],
                        r.runtime.as_secs_f64(),
                        r.cpu_fraction,
                    ),
                    balance_runs(&lb),
                ),
                Err(e) => Outcome::Skip(e),
            };
            let op = Op {
                worker: id,
                at: t0,
                ms,
                zone_cycles: 0,
                ok: false,
            };
            *slots[t].lock().expect("slot lock") = Some((outcome, op));
        };
        std::thread::scope(|s| {
            for id in 1..self.jobs.max(1) {
                s.spawn(move || worker(id));
            }
            worker(0);
        });

        let (outcomes, mut done): (Vec<Outcome>, Vec<Op>) = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("every sweep task runs exactly once")
            })
            .unzip();
        for fig in 0..self.specs.len() {
            let mut bytes = self.figure_bytes(fig, &outcomes);
            if corrupt && fig == 0 {
                bytes[0] ^= 1;
            }
            let id = self.specs[fig].id;
            let want = FIGURE_DIGESTS
                .iter()
                .find(|(f, _)| *f == id)
                .map_or(0, |d| d.1);
            let got = digest(&bytes);
            let ok = want == got;
            if !ok {
                eprintln!("figures: {id} series digest {got:#018x} != stored {want:#018x}");
            }
            for (i, t) in self.tasks.iter().enumerate().filter(|(_, t)| t.fig == fig) {
                if let Outcome::Point(_, runs) = &outcomes[i] {
                    counts.balance_runs += runs;
                    counts.balance_results += 1;
                    let cfg = self.config(*t);
                    done[i].zone_cycles =
                        (cfg.grid.0 * cfg.grid.1 * cfg.grid.2) as u64 * cfg.cycles;
                }
                done[i].ok = ok;
                ops.push(done[i]);
            }
        }
    }

    fn block_ops(&self) -> usize {
        self.tasks.len()
    }

    fn probe_configs(&self) -> Vec<RunConfig> {
        // The median-size Heterogeneous point of each figure: every
        // layer (GPU drivers, CPU workers, balance loop) is present.
        let hetero = self
            .modes
            .iter()
            .position(|m| matches!(m, ExecMode::Heterogeneous { .. }))
            .expect("paper modes include Heterogeneous");
        self.specs
            .iter()
            .enumerate()
            .map(|(fig, spec)| {
                self.config(Task {
                    fig,
                    mode: hetero,
                    point: spec.values.len() / 2,
                })
            })
            .collect()
    }

    fn working_set_bytes(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| state_bytes(&self.config(*t)))
            .max()
            .unwrap_or(0)
    }

    fn describe(&self) -> Vec<String> {
        vec![format!(
            "inputs: {} figure sweeps x {} modes = {} run_balanced ops per pass, cost-only, jobs={}; \
             seed permutes claim order only",
            self.specs.len(),
            self.modes.len(),
            self.tasks.len(),
            self.jobs
        )]
    }
}
