//! Device rendezvous regression: four MPS clients on one simulated K80,
//! each on its own thread, launch kernels, record timing events and
//! sync over several epochs.
//!
//! Launches go in rank order (a turn counter), so the device's pending
//! queue is the same on every run; the sync leader is whichever thread
//! arrives last and must not matter. The test pins three things:
//!
//! * sync ends, event times and event intervals are identical with
//!   telemetry off, on for every client, and on for half of them;
//! * each client's drained GPU-kernel spans and kernel occupancies are
//!   identical whether or not its peers record telemetry;
//! * all of it equals the values the hashed rendezvous produced before
//!   the per-stream slot layout (the digests below).

use std::sync::{Condvar, Mutex};

use hsim_gpu::{Device, DeviceSpec, KernelDesc, KernelShape};
use hsim_raja::{GpuClient, SharedDevice};
use hsim_telemetry::{Category, Collector};
use hsim_time::SimTime;

const CLIENTS: usize = 4;
const EPOCHS: usize = 5;

/// A drained GPU-kernel span: (name, pid, tid, start ns, dur ns, args).
type Span = (&'static str, u32, u32, u64, u64, Vec<(&'static str, u64)>);

/// One client's (sync ends, event times, event intervals).
type Timing = (Vec<u64>, Vec<Option<u64>>, Vec<Option<u64>>);

/// What one client observed.
#[derive(Debug, Clone, PartialEq)]
struct ClientRun {
    /// `sync` return value per epoch, in ns.
    ends: Vec<u64>,
    /// Resolved event times (two events per epoch), in ns.
    events: Vec<Option<u64>>,
    /// `event_elapsed` over each epoch's bracket, in ns.
    elapsed: Vec<Option<u64>>,
    /// An event recorded after the last sync stays unresolved.
    trailing: Option<u64>,
    /// Drained GPU-kernel spans.
    spans: Vec<Span>,
    /// Per kernel name: (gpu launches, occupancy mean bits).
    occupancy: Vec<(&'static str, u64, u64)>,
}

/// A turn counter: client `r` launches in epoch `e` at turn
/// `e * CLIENTS + r`.
struct Turns {
    turn: Mutex<usize>,
    cv: Condvar,
}

impl Turns {
    fn wait_for(&self, t: usize) {
        let mut g = self.turn.lock().unwrap();
        while *g != t {
            g = self.cv.wait(g).unwrap();
        }
    }

    fn pass(&self) {
        *self.turn.lock().unwrap() += 1;
        self.cv.notify_all();
    }
}

fn client_body(rank: usize, c: &GpuClient, turns: &Turns, telemetry: bool) -> ClientRun {
    let descs = [
        KernelDesc::new("hydro", 60.0, 16.0),
        KernelDesc::new("eos", 20.0, 48.0),
        KernelDesc::new("halo", 2.0, 64.0),
    ];
    if telemetry {
        hsim_telemetry::install(Collector::new(rank));
    }
    let mut at = SimTime::from_nanos(1_000 * rank as u64);
    let (mut ends, mut marks) = (Vec::new(), Vec::new());
    for e in 0..EPOCHS {
        turns.wait_for(e * CLIENTS + rank);
        let before = c.record_event();
        // 0–2 launches: some epochs leave a client's stream empty.
        for k in 0..(rank + e) % 3 {
            let elems = 150_000 * (1 + rank as u64) + 40_000 * (k as u64 + e as u64);
            let shape = KernelShape::new(elems, [40, 96, 320][(rank + k) % 3]);
            at = at + c.launch(&descs[(e + k) % 3], shape, at).unwrap();
        }
        let after = c.record_event();
        turns.pass();
        at = c.sync(at);
        ends.push(at.as_nanos());
        marks.push((before, after));
    }
    let trailing = c.record_event();
    let mut run = ClientRun {
        ends,
        events: marks
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .map(|ev| c.event_time(ev).map(SimTime::as_nanos))
            .collect(),
        elapsed: marks
            .iter()
            .map(|&(a, b)| c.event_elapsed(a, b).map(|d| d.as_nanos()))
            .collect(),
        trailing: c.event_time(trailing).map(SimTime::as_nanos),
        spans: Vec::new(),
        occupancy: Vec::new(),
    };
    if let Some(col) = hsim_telemetry::uninstall() {
        run.spans = col
            .spans
            .iter()
            .filter(|s| s.cat == Category::GpuKernel)
            .map(|s| {
                let ts = s.ts.as_nanos();
                (s.name, s.pid, s.tid, ts, s.dur.as_nanos(), s.args.clone())
            })
            .collect();
        for name in ["hydro", "eos", "halo"] {
            if let Some(p) = col.kernels.get(name) {
                run.occupancy
                    .push((name, p.gpu_launches, p.occupancy.mean().to_bits()));
            }
        }
    }
    run
}

/// Drive the scenario; `telemetry[r]` turns recording on for client `r`.
fn scenario(telemetry: [bool; CLIENTS]) -> Vec<ClientRun> {
    let device = Device::new(0, DeviceSpec::tesla_k80());
    let (dev, clients) = SharedDevice::new_mps(device, &[0, 1, 2, 3]).unwrap();
    let turns = Turns {
        turn: Mutex::new(0),
        cv: Condvar::new(),
    };
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(r, c)| {
                let turns = &turns;
                s.spawn(move || client_body(r, c, turns, telemetry[r]))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert_eq!(dev.epoch(), EPOCHS as u64);
    runs
}

/// FNV-1a over a debug rendering: stable, dependency-free.
fn digest(v: &impl std::fmt::Debug) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{v:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn timing(runs: &[ClientRun]) -> Vec<Timing> {
    runs.iter()
        .map(|r| (r.ends.clone(), r.events.clone(), r.elapsed.clone()))
        .collect()
}

#[test]
fn rendezvous_is_bit_identical_with_and_without_telemetry() {
    let off = scenario([false; CLIENTS]);
    let on = scenario([true; CLIENTS]);
    let mixed = scenario([true, false, true, false]);

    assert_eq!(timing(&off), timing(&on));
    assert_eq!(timing(&off), timing(&mixed));
    for r in 0..CLIENTS {
        assert_eq!(off[r].trailing, None, "client {r}");
        assert!(off[r].spans.is_empty() && off[r].occupancy.is_empty());
        if r % 2 == 0 {
            assert_eq!(on[r], mixed[r], "client {r}: peers' telemetry leaked");
        } else {
            assert!(mixed[r].spans.is_empty());
        }
        let launched: usize = (0..EPOCHS).map(|e| (r + e) % 3).sum();
        assert_eq!(on[r].spans.len(), launched, "client {r}");
    }

    // Sync ends per client and epoch, and digests of the full timing
    // and telemetry records, as the hashed rendezvous produced them.
    let ends: Vec<Vec<u64>> = off.iter().map(|r| r.ends.clone()).collect();
    assert_eq!(ends, PINNED_ENDS);
    assert_eq!(digest(&timing(&off)), PINNED_TIMING_DIGEST);
    assert_eq!(digest(&on), PINNED_TELEMETRY_DIGEST);
}

const PINNED_ENDS: [[u64; EPOCHS]; CLIENTS] = [
    [0, 99196, 254266, 254266, 376266],
    [72942, 373066, 373066, 439673, 728256],
    [244366, 244366, 518427, 785070, 785070],
    [3000, 286394, 717385, 717385, 974385],
];
const PINNED_TIMING_DIGEST: u64 = 10116306886543281000;
const PINNED_TELEMETRY_DIGEST: u64 = 7385800668732067983;
