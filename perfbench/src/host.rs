//! What the benchmark does about the host it shares: it pins itself to
//! one CPU, and it times a fixed reference loop between operations so
//! that every reported time can be scaled to one host speed.
//!
//! On a shared virtual machine the same code runs up to 1.8× slower
//! for tens of seconds at a time while other guests load the physical
//! core, and the guest sees little or none of it as steal. Timing the
//! reference loop on the same CPU, between the same operations, sees
//! the same slowdown; dividing by it leaves the program's own cost.
//! The loop is benchmark code and calls nothing in the program, so a
//! change to the program moves the scaled times as it moves the raw
//! ones. The loop is timed in the CPU time of its own threads, so
//! another thread or process sharing the CPU (a pool thread left
//! spinning, say) cannot make it look slow and the program fast.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench pins itself to one CPU, reads /proc and declares 64-bit C types: it runs on 64-bit Linux only");

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};

use crate::clock::Stamp;
use crate::stats::median;

/// The reference loop's CPU milliseconds at the host speed every
/// scaled time refers to: about its median on a two-vCPU Xeon virtual
/// machine, so scaled and raw times read alike there.
pub const NOMINAL_REF_MS: f64 = 2.1;
/// Runs of the loop in one probe; the probe reports their median, so a
/// single preemption does not count.
const PROBE_REPS: usize = 3;
/// Least time between two probes the load loops ask for.
const PROBE_EVERY_S: f64 = 0.25;
/// Probes within this many seconds either side of an op set its scale.
const WINDOW_S: f64 = 1.0;
/// Threads in the reference ring, as many as the largest rank count of
/// a figure-sweep run.
const RING: usize = 16;
/// Times the token goes round the ring.
const LAPS: usize = 20;

/// A little integer work on a table, for each hop of the ring.
fn compute(seed: u64) -> u64 {
    let mut table = [0u64; 64];
    let mut x = seed | 1;
    for i in 0..400u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & 63;
        table[j] = table[j].wrapping_add(i ^ x);
    }
    table.iter().fold(x, |a, &b| a ^ b)
}

/// One run of the reference loop: spawn a ring of [`RING`] threads and
/// pass a token round it [`LAPS`] times, each hop doing a little
/// integer work, the way a cost-only run spawns its rank threads and
/// passes messages between them. Returns the CPU milliseconds of the
/// spawning thread and the ring's threads.
fn reference_once() -> f64 {
    let ring_ns = AtomicU64::new(0);
    let ring_ns = &ring_ns;
    let spawner = sys::thread_cpu_ns();
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..RING).map(|_| mpsc::channel::<u64>()).unzip();
    std::thread::scope(|s| {
        for (r, rx) in rxs.into_iter().enumerate() {
            let next = txs[(r + 1) % RING].clone();
            s.spawn(move || {
                let start = sys::thread_cpu_ns();
                if r == 0 {
                    let _ = next.send(1);
                }
                for _ in 0..LAPS {
                    let Ok(token) = rx.recv() else { break };
                    // The last hop has no one left to wake.
                    let _ = next.send(black_box(compute(token)));
                }
                ring_ns.fetch_add(sys::thread_cpu_ns() - start, Ordering::Relaxed);
            });
        }
    });
    let ns = ring_ns.load(Ordering::Relaxed) + (sys::thread_cpu_ns() - spawner);
    ns as f64 / 1e6
}

/// CPU milliseconds the reference loop takes now: the median of
/// [`PROBE_REPS`] runs.
pub fn reference_ms() -> f64 {
    let runs: Vec<f64> = (0..PROBE_REPS).map(|_| reference_once()).collect();
    median(&runs)
}

/// The reference-loop times taken during one measurement.
#[derive(Debug, Default)]
pub struct Speed {
    samples: Mutex<Vec<(Stamp, f64)>>,
}

impl Speed {
    pub fn new() -> Speed {
        Speed::default()
    }

    /// Run the reference loop unless a probe ran in the last
    /// [`PROBE_EVERY_S`]. Load loops call this between operations,
    /// never inside one.
    pub fn between_ops(&self) {
        let due = self
            .samples
            .lock()
            .expect("speed samples")
            .last()
            .is_none_or(|(at, _)| at.elapsed_s() >= PROBE_EVERY_S);
        if due {
            self.probe();
        }
    }

    /// Run the reference loop now and record it.
    pub fn probe(&self) {
        let at = Stamp::now();
        let ms = reference_ms();
        self.samples.lock().expect("speed samples").push((at, ms));
    }

    /// Reference milliseconds around `[from, to]`: the median of the
    /// probes within [`WINDOW_S`] of it, else of every probe, else
    /// [`NOMINAL_REF_MS`].
    pub fn ref_ms(&self, from: Stamp, to: Stamp) -> f64 {
        let s = self.samples.lock().expect("speed samples");
        let near: Vec<f64> = s
            .iter()
            .filter(|(at, _)| from.secs_since(*at) <= WINDOW_S && at.secs_since(to) <= WINDOW_S)
            .map(|&(_, ms)| ms)
            .collect();
        if !near.is_empty() {
            median(&near)
        } else if !s.is_empty() {
            median(&s.iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
        } else {
            NOMINAL_REF_MS
        }
    }

    /// Every probe's milliseconds.
    pub fn all_ms(&self) -> Vec<f64> {
        let s = self.samples.lock().expect("speed samples");
        s.iter().map(|&(_, ms)| ms).collect()
    }
}

/// Pin this process to the last CPU it may run on, before it starts
/// any thread (threads inherit the mask). Returns that CPU.
///
/// On one CPU the program's rank threads hand off by context switch,
/// and a host that takes the CPU away slows them by the share it takes.
/// Spread over two vCPUs, the same threads wait on each other's
/// preemptions, which stretched cost-only runs by several times the
/// steal share.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    sys::pin_last_allowed()
}

/// The two C library calls std does not wrap.
#[allow(unsafe_code)]
mod sys {
    /// `cpu_set_t` as glibc sizes it: 1024 bits.
    const WORDS: usize = 16;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    /// CPU time the calling thread has used, in ns.
    pub fn thread_cpu_ns() -> u64 {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux); the clock id is a valid constant.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    }

    pub fn pin_last_allowed() -> Result<usize, String> {
        let size = WORDS * std::mem::size_of::<u64>();
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly `size` bytes;
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let cpu = (0..WORDS * 64)
            .rev()
            .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .ok_or("sched_getaffinity returned an empty CPU set")?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of exactly `size` bytes;
        // pid 0 names the calling thread.
        if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
            return Err(format!(
                "sched_setaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(cpu)
    }
}
