//! The rate-sharing device timeline.
//!
//! A GPU executes concurrent kernels by interleaving their blocks over
//! its SMs. We model the device as a single resource of capacity 1.0
//! "device-rates": each resident kernel is a *malleable job* with
//!
//! * `work` — its roofline execution time in device-seconds (the time
//!   it would take at full efficiency),
//! * `max_rate` — its occupancy (see [`crate::kernel::occupancy`]): the
//!   largest fraction of the device it can use by itself.
//!
//! At any instant the device divides its capacity over the active jobs
//! by **water-filling**: every job gets `min(max_rate, λ)` where λ is
//! the common share that exhausts capacity (or every job gets its cap
//! when the device is underfilled). Consequences, which are exactly the
//! paper's observations about MPS:
//!
//! * one resident kernel with occupancy `e` runs at rate `e` — a small
//!   kernel wastes `1 − e` of the device;
//! * `R` co-resident kernels with occupancy `e` run concurrently at
//!   total rate `min(1, R·e)` — overlap reclaims idle capacity when
//!   `e < 1`, and does nothing (except add launch overhead) when a
//!   single kernel already fills the device.
//!
//! Jobs in the same **stream** serialize (CUDA in-order streams); jobs
//! in different streams may overlap.

use hsim_time::SimTime;

/// One kernel submission to the timeline.
#[derive(Debug, Clone)]
pub struct Job {
    /// Caller-chosen identifier, echoed in the outcome.
    pub id: u64,
    /// Stream the job belongs to; same-stream jobs execute in
    /// submission order.
    pub stream: u64,
    /// Earliest simulated instant the job may start (its launch time).
    pub arrival: SimTime,
    /// Roofline execution time at full device rate, in seconds.
    pub work: f64,
    /// Occupancy cap in `(0, 1]`.
    pub max_rate: f64,
}

/// Completion record for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    pub id: u64,
    pub start: SimTime,
    pub end: SimTime,
}

/// An event-driven rate-sharing simulator for one device.
#[derive(Debug, Clone)]
pub struct RateSharingTimeline {
    /// Device capacity in "device-rates"; 1.0 for a whole GPU.
    capacity: f64,
    /// Per-extra-resident capacity derate (cache/DRAM contention
    /// between co-resident kernels); 0 = ideal sharing.
    contention: f64,
}

#[derive(Debug)]
struct Active {
    idx: usize,
    lane: usize,
    remaining: f64,
    max_rate: f64,
    rate: f64,
}

/// One stream's jobs, threaded through the batch as a list (`next[i]`
/// follows job `i`; `head` is `NONE` once drained). `free` is the
/// head's earliest start: infinite while its predecessor runs.
struct Lane {
    key: u64,
    head: usize,
    tail: usize,
    free: f64,
}

const NONE: usize = usize::MAX;

impl RateSharingTimeline {
    pub fn new() -> Self {
        RateSharingTimeline {
            capacity: 1.0,
            contention: 0.0,
        }
    }

    /// A timeline with non-unit capacity (used in tests and for
    /// modelling partitioned devices).
    pub fn with_capacity(capacity: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        RateSharingTimeline {
            capacity,
            contention: 0.0,
        }
    }

    /// A timeline whose aggregate rate with `n` concurrent jobs is
    /// `capacity · (1 − contention·(n−1))`, floored at 80%.
    pub fn with_contention(capacity: f64, contention: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        RateSharingTimeline {
            capacity,
            contention: contention.clamp(0.0, 0.2),
        }
    }

    /// Simulate a batch of jobs to completion. Returns one outcome per
    /// job, in the input order.
    ///
    /// Same-stream jobs are serialized in their *input order* (their
    /// `arrival` values still apply as lower bounds). `work == 0` jobs
    /// complete instantaneously at their effective start time. A job
    /// with NaN or infinite `work` never completes: it and every job
    /// still waiting behind it end at `u64::MAX` ns. Cost is
    /// O(jobs · streams), with no allocation per timeline event.
    pub fn simulate(&self, jobs: &[Job]) -> Vec<JobOutcome> {
        let n = jobs.len();
        let mut outcomes: Vec<JobOutcome> = jobs
            .iter()
            .map(|j| JobOutcome {
                id: j.id,
                start: j.arrival,
                end: SimTime::from_nanos(u64::MAX),
            })
            .collect();
        // One lane per stream, in order of first appearance.
        let mut lanes: Vec<Lane> = Vec::new();
        let mut next = vec![NONE; n];
        for (i, j) in jobs.iter().enumerate() {
            match lanes.iter_mut().find(|l| l.key == j.stream) {
                Some(l) => {
                    next[l.tail] = i;
                    l.tail = i;
                }
                None => lanes.push(Lane {
                    key: j.stream,
                    head: i,
                    tail: i,
                    free: 0.0,
                }),
            }
        }

        let mut active: Vec<Active> = Vec::with_capacity(lanes.len());
        let mut order: Vec<usize> = Vec::with_capacity(lanes.len());
        let mut done = 0usize;
        let mut now = 0.0f64;

        while done < n {
            let before = (done, active.len());
            // Dispatch every stream head that is ready at `now`.
            for (s, lane) in lanes.iter_mut().enumerate() {
                while lane.head != NONE {
                    let idx = lane.head;
                    let j = &jobs[idx];
                    let ready = (j.arrival.as_nanos() as f64 * 1e-9).max(lane.free);
                    if ready > now + 1e-15 {
                        break;
                    }
                    outcomes[idx].start = SimTime::from_nanos((ready * 1e9).round() as u64);
                    lane.head = next[idx];
                    // Zero-work jobs complete immediately and unblock
                    // their successor in the same pass.
                    if j.work <= 0.0 {
                        outcomes[idx].end = outcomes[idx].start;
                        lane.free = ready;
                        done += 1;
                        continue;
                    }
                    active.push(Active {
                        idx,
                        lane: s,
                        remaining: j.work,
                        max_rate: j.max_rate.clamp(1e-9, self.capacity),
                        rate: 0.0,
                    });
                    // In-order stream: do not dispatch the successor
                    // until this job completes.
                    lane.free = f64::INFINITY;
                    break;
                }
            }

            // The dispatch pass may have retired zero-work jobs.
            if done >= n {
                break;
            }

            // Next horizon: the earliest pending arrival we might need
            // to stop at.
            let mut next_arrival = f64::INFINITY;
            for lane in &lanes {
                if lane.head != NONE && lane.free.is_finite() {
                    let j = &jobs[lane.head];
                    let ready = (j.arrival.as_nanos() as f64 * 1e-9).max(lane.free);
                    next_arrival = next_arrival.min(ready);
                }
            }

            if active.is_empty() {
                // Idle gap: jump to the next arrival.
                debug_assert!(
                    next_arrival.is_finite(),
                    "deadlock: no active jobs and no pending arrivals"
                );
                now = next_arrival.max(now);
                continue;
            }

            // Water-fill rates over the active set, derated for
            // cross-client contention.
            let eff_capacity = if active.len() > 1 {
                let derate = 1.0 - self.contention * (active.len() - 1) as f64;
                self.capacity * derate.max(0.8)
            } else {
                self.capacity
            };
            water_fill(&mut active, eff_capacity, &mut order);

            // Earliest completion under current rates.
            let mut next_completion = f64::INFINITY;
            for a in &active {
                let t = now + a.remaining / a.rate;
                next_completion = next_completion.min(t);
            }
            let horizon = next_completion.min(next_arrival.max(now));
            let dt = (horizon - now).max(0.0);

            // Advance all active jobs.
            for a in &mut active {
                a.remaining -= a.rate * dt;
            }
            now = horizon;

            // No dispatch and no time passed: only jobs whose completion
            // rounds to `now` (a remainder under one ulp) can still retire.
            let stalled = dt == 0.0 && (done, active.len()) == before;

            // Retire completed jobs and release their streams.
            let mut i = 0;
            while i < active.len() {
                let a = &active[i];
                if a.remaining <= 1e-12 || (stalled && now + a.remaining / a.rate <= now) {
                    let a = active.swap_remove(i);
                    outcomes[a.idx].end = SimTime::from_nanos((now * 1e9).round() as u64);
                    lanes[a.lane].free = now;
                    done += 1;
                } else {
                    i += 1;
                }
            }
            // Only never-ending (NaN or infinite) work is left.
            if stalled && active.len() == before.1 {
                break;
            }
        }
        outcomes
    }

    /// Convenience: the makespan (latest end) of a batch.
    pub fn makespan(&self, jobs: &[Job]) -> SimTime {
        self.simulate(jobs)
            .iter()
            .map(|o| o.end)
            .fold(SimTime::ZERO, SimTime::merge)
    }
}

impl Default for RateSharingTimeline {
    fn default() -> Self {
        Self::new()
    }
}

/// Assign each active job a rate `min(max_rate, λ)` such that the total
/// equals `min(capacity, Σ max_rate)`. `order` is scratch space reused
/// across calls.
fn water_fill(active: &mut [Active], capacity: f64, order: &mut Vec<usize>) {
    let total_cap: f64 = active.iter().map(|a| a.max_rate).sum();
    if total_cap <= capacity {
        for a in active.iter_mut() {
            a.rate = a.max_rate;
        }
        return;
    }
    // Sort indices by max_rate ascending (stably: ties keep their
    // active-set order, which the rounding of the fill depends on).
    order.clear();
    order.extend(0..active.len());
    order.sort_by(|&a, &b| active[a].max_rate.total_cmp(&active[b].max_rate));
    let mut remaining = capacity;
    let mut left = active.len();
    // Filling in ascending-cap order: once a job is capped below the
    // fair share, the remainder is redistributed over the larger jobs.
    for &i in order.iter() {
        let fair = remaining / left as f64;
        let r = active[i].max_rate.min(fair);
        active[i].rate = r;
        remaining -= r;
        left -= 1;
    }
}

/// The timeline as it was before the lane rewrite, kept verbatim as a
/// bitwise oracle: per-stream `Vec`s, a linear stream search on every
/// retirement and a fresh sort buffer per water-fill.
#[cfg(test)]
mod reference {
    use super::{Job, JobOutcome, RateSharingTimeline};
    use hsim_time::SimTime;

    #[derive(Debug)]
    struct Active {
        idx: usize,
        remaining: f64,
        max_rate: f64,
        rate: f64,
    }

    impl RateSharingTimeline {
        pub(super) fn simulate_reference(&self, jobs: &[Job]) -> Vec<JobOutcome> {
            let n = jobs.len();
            let mut outcomes: Vec<JobOutcome> = jobs
                .iter()
                .map(|j| JobOutcome {
                    id: j.id,
                    start: j.arrival,
                    end: j.arrival,
                })
                .collect();
            if n == 0 {
                return outcomes;
            }

            // Group job indices per stream, preserving input order.
            let mut streams: Vec<(u64, Vec<usize>)> = Vec::new();
            for (i, j) in jobs.iter().enumerate() {
                match streams.iter_mut().find(|(s, _)| *s == j.stream) {
                    Some((_, v)) => v.push(i),
                    None => streams.push((j.stream, vec![i])),
                }
            }
            // Per-stream cursor: next job position not yet dispatched.
            let mut cursor: Vec<usize> = vec![0; streams.len()];
            // Earliest allowed start of the stream head (predecessor end).
            let mut stream_free: Vec<f64> = vec![0.0; streams.len()];

            let mut active: Vec<Active> = Vec::new();
            let mut done = 0usize;
            let mut now = 0.0f64;

            while done < n {
                // Dispatch every stream head that is ready at `now`.
                for (s, (_, order)) in streams.iter().enumerate() {
                    while cursor[s] < order.len() {
                        let idx = order[cursor[s]];
                        let j = &jobs[idx];
                        let ready = j.arrival.as_nanos() as f64 * 1e-9;
                        let ready = ready.max(stream_free[s]);
                        if ready > now + 1e-15 {
                            break;
                        }
                        // Zero-work jobs complete immediately and unblock
                        // their successor in the same pass.
                        if j.work <= 0.0 {
                            outcomes[idx].start = SimTime::from_nanos((ready * 1e9).round() as u64);
                            outcomes[idx].end = outcomes[idx].start;
                            stream_free[s] = ready;
                            cursor[s] += 1;
                            done += 1;
                            continue;
                        }
                        active.push(Active {
                            idx,
                            remaining: j.work,
                            max_rate: j.max_rate.clamp(1e-9, self.capacity),
                            rate: 0.0,
                        });
                        outcomes[idx].start = SimTime::from_nanos((ready * 1e9).round() as u64);
                        cursor[s] += 1;
                        // In-order stream: do not dispatch the successor
                        // until this job completes.
                        stream_free[s] = f64::INFINITY;
                        break;
                    }
                }

                // The dispatch pass may have retired zero-work jobs.
                if done >= n {
                    break;
                }

                // Next horizon: the earliest pending arrival we might need
                // to stop at.
                let mut next_arrival = f64::INFINITY;
                for (s, (_, order)) in streams.iter().enumerate() {
                    if cursor[s] < order.len() && stream_free[s].is_finite() {
                        let j = &jobs[order[cursor[s]]];
                        let ready = (j.arrival.as_nanos() as f64 * 1e-9).max(stream_free[s]);
                        next_arrival = next_arrival.min(ready);
                    }
                }

                if active.is_empty() {
                    // Idle gap: jump to the next arrival.
                    debug_assert!(
                        next_arrival.is_finite(),
                        "deadlock: no active jobs and no pending arrivals"
                    );
                    now = next_arrival.max(now);
                    continue;
                }

                // Water-fill rates over the active set, derated for
                // cross-client contention.
                let eff_capacity = if active.len() > 1 {
                    let derate = 1.0 - self.contention * (active.len() - 1) as f64;
                    self.capacity * derate.max(0.8)
                } else {
                    self.capacity
                };
                water_fill(&mut active, eff_capacity);

                // Earliest completion under current rates.
                let mut next_completion = f64::INFINITY;
                for a in &active {
                    let t = now + a.remaining / a.rate;
                    next_completion = next_completion.min(t);
                }
                let horizon = next_completion.min(next_arrival.max(now));
                let dt = (horizon - now).max(0.0);

                // Advance all active jobs.
                for a in &mut active {
                    a.remaining -= a.rate * dt;
                }
                now = horizon;

                // Retire completed jobs and release their streams.
                let mut i = 0;
                while i < active.len() {
                    if active[i].remaining <= 1e-12 {
                        let a = active.swap_remove(i);
                        outcomes[a.idx].end = SimTime::from_nanos((now * 1e9).round() as u64);
                        if let Some(s) =
                            streams.iter().position(|(st, _)| *st == jobs[a.idx].stream)
                        {
                            stream_free[s] = now;
                        }
                        done += 1;
                    } else {
                        i += 1;
                    }
                }
            }
            outcomes
        }
    }

    /// Assign each active job a rate `min(max_rate, λ)` such that the total
    /// equals `min(capacity, Σ max_rate)`.
    fn water_fill(active: &mut [Active], capacity: f64) {
        let total_cap: f64 = active.iter().map(|a| a.max_rate).sum();
        if total_cap <= capacity {
            for a in active.iter_mut() {
                a.rate = a.max_rate;
            }
            return;
        }
        // Sort indices by max_rate ascending and fill.
        let mut order: Vec<usize> = (0..active.len()).collect();
        order.sort_by(|&a, &b| active[a].max_rate.total_cmp(&active[b].max_rate));
        let mut remaining = capacity;
        let mut left = active.len();
        // Filling in ascending-cap order: once a job is capped below the
        // fair share, the remainder is redistributed over the larger jobs.
        for &i in &order {
            let fair = remaining / left as f64;
            let r = active[i].max_rate.min(fair);
            active[i].rate = r;
            remaining -= r;
            left -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn job(id: u64, stream: u64, arrival_ns: u64, work: f64, rate: f64) -> Job {
        Job {
            id,
            stream,
            arrival: SimTime::from_nanos(arrival_ns),
            work,
            max_rate: rate,
        }
    }

    fn secs(t: SimTime) -> f64 {
        t.as_secs_f64()
    }

    #[test]
    fn single_full_rate_job_runs_at_capacity() {
        let tl = RateSharingTimeline::new();
        let out = tl.simulate(&[job(1, 0, 0, 2.0, 1.0)]);
        assert!((secs(out[0].end) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_low_occupancy_job_is_slower() {
        let tl = RateSharingTimeline::new();
        let out = tl.simulate(&[job(1, 0, 0, 2.0, 0.5)]);
        assert!((secs(out[0].end) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn co_resident_small_kernels_overlap() {
        // Four kernels of 0.25 device-seconds each, occupancy 0.4:
        // alone they'd serialize to 4 * 0.25/0.4 = 2.5 s; water-filled
        // they run at total rate 1.0 (capped) and finish in 1.0 s.
        let tl = RateSharingTimeline::new();
        let jobs: Vec<Job> = (0..4).map(|i| job(i, i, 0, 0.25, 0.4)).collect();
        let out = tl.simulate(&jobs);
        let makespan = out.iter().map(|o| secs(o.end)).fold(0.0, f64::max);
        assert!((makespan - 1.0).abs() < 1e-6, "makespan {makespan}");
    }

    #[test]
    fn co_resident_large_kernels_gain_nothing() {
        // Occupancy 1.0 kernels cannot overlap usefully: four 0.25 s
        // jobs still take 1.0 s total (fair sharing), the same as
        // serialized execution.
        let tl = RateSharingTimeline::new();
        let jobs: Vec<Job> = (0..4).map(|i| job(i, i, 0, 0.25, 1.0)).collect();
        let makespan = secs(tl.makespan(&jobs));
        assert!((makespan - 1.0).abs() < 1e-6);
    }

    #[test]
    fn same_stream_jobs_serialize() {
        let tl = RateSharingTimeline::new();
        let jobs = vec![job(1, 7, 0, 1.0, 1.0), job(2, 7, 0, 1.0, 1.0)];
        let out = tl.simulate(&jobs);
        assert!((secs(out[0].end) - 1.0).abs() < 1e-9);
        assert!((secs(out[1].start) - 1.0).abs() < 1e-9);
        assert!((secs(out[1].end) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn different_streams_with_low_occupancy_share() {
        // Two streams, each two 0.5-occupancy jobs: the device runs two
        // jobs at rate 0.5 each, so each pair of 1.0-work jobs takes
        // 2.0 s, and both streams finish at 4.0 s.
        let tl = RateSharingTimeline::new();
        let jobs = vec![
            job(1, 0, 0, 1.0, 0.5),
            job(2, 0, 0, 1.0, 0.5),
            job(3, 1, 0, 1.0, 0.5),
            job(4, 1, 0, 1.0, 0.5),
        ];
        let makespan = secs(tl.makespan(&jobs));
        assert!((makespan - 4.0).abs() < 1e-6, "makespan {makespan}");
    }

    #[test]
    fn arrivals_are_respected() {
        let tl = RateSharingTimeline::new();
        let out = tl.simulate(&[job(1, 0, 3_000_000_000, 1.0, 1.0)]);
        assert!((secs(out[0].start) - 3.0).abs() < 1e-9);
        assert!((secs(out[0].end) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn idle_gap_between_arrivals() {
        let tl = RateSharingTimeline::new();
        let jobs = vec![job(1, 0, 0, 0.5, 1.0), job(2, 1, 5_000_000_000, 0.5, 1.0)];
        let out = tl.simulate(&jobs);
        assert!((secs(out[0].end) - 0.5).abs() < 1e-9);
        assert!((secs(out[1].start) - 5.0).abs() < 1e-9);
        assert!((secs(out[1].end) - 5.5).abs() < 1e-9);
    }

    #[test]
    fn zero_work_jobs_complete_instantly_in_order() {
        let tl = RateSharingTimeline::new();
        let jobs = vec![job(1, 0, 0, 0.0, 1.0), job(2, 0, 0, 1.0, 1.0)];
        let out = tl.simulate(&jobs);
        assert_eq!(out[0].start, out[0].end);
        assert!((secs(out[1].end) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_is_fine() {
        let tl = RateSharingTimeline::new();
        assert!(tl.simulate(&[]).is_empty());
        assert_eq!(tl.makespan(&[]), SimTime::ZERO);
    }

    #[test]
    fn preemption_by_later_arrival_shares_fairly() {
        // Job A (rate 1.0, work 2.0) starts alone; at t=1 job B
        // (rate 1.0, work 0.5) arrives. From t=1 they share 0.5/0.5:
        // B finishes at t=2.0, A has 0.5 left and finishes at 2.5.
        let tl = RateSharingTimeline::new();
        let jobs = vec![job(1, 0, 0, 2.0, 1.0), job(2, 1, 1_000_000_000, 0.5, 1.0)];
        let out = tl.simulate(&jobs);
        assert!(
            (secs(out[1].end) - 2.0).abs() < 1e-6,
            "B end {}",
            secs(out[1].end)
        );
        assert!(
            (secs(out[0].end) - 2.5).abs() < 1e-6,
            "A end {}",
            secs(out[0].end)
        );
    }

    #[test]
    fn heterogeneous_caps_water_fill_correctly() {
        // Caps 0.2 and 0.9 with capacity 1.0: total cap 1.1 > 1, so
        // λ solves min(0.2,λ)+min(0.9,λ)=1 → λ=0.8. Job1 runs at 0.2,
        // job2 at 0.8.
        let tl = RateSharingTimeline::new();
        let jobs = vec![job(1, 0, 0, 0.2, 0.2), job(2, 1, 0, 0.8, 0.9)];
        let out = tl.simulate(&jobs);
        // Both should finish at exactly t = 1.0.
        assert!((secs(out[0].end) - 1.0).abs() < 1e-6);
        assert!((secs(out[1].end) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn work_conservation_under_saturation() {
        // Total work 3.0 device-seconds with all caps ≥ capacity: the
        // makespan can never beat work/capacity.
        let tl = RateSharingTimeline::new();
        let jobs: Vec<Job> = (0..6).map(|i| job(i, i, 0, 0.5, 1.0)).collect();
        let makespan = secs(tl.makespan(&jobs));
        assert!((makespan - 3.0).abs() < 1e-6);
    }

    #[test]
    fn with_capacity_scales_throughput() {
        let tl = RateSharingTimeline::with_capacity(2.0);
        let jobs: Vec<Job> = (0..4).map(|i| job(i, i, 0, 1.0, 1.0)).collect();
        let makespan = secs(tl.makespan(&jobs));
        assert!((makespan - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = RateSharingTimeline::with_capacity(0.0);
    }

    #[test]
    fn non_finite_work_terminates_and_spares_finite_streams() {
        // A NaN or infinite job never finishes, but the batch returns:
        // the finite job on the other stream keeps its exact outcome,
        // and the stuck job and its stream successor end at u64::MAX.
        let never = SimTime::from_nanos(u64::MAX);
        for bad in [f64::NAN, f64::INFINITY] {
            let tl = RateSharingTimeline::new();
            let jobs = vec![
                job(1, 0, 0, bad, 0.5),
                job(2, 1, 0, 1.0, 0.5),
                job(3, 0, 0, 1.0, 0.5),
            ];
            let out = tl.simulate(&jobs);
            assert_eq!(out[0].end, never, "work {bad}");
            assert_eq!(out[2].end, never, "work {bad}");
            assert_eq!(out[1], tl.simulate(&jobs[1..2])[0], "work {bad}");
            let alone = tl.simulate(&[job(1, 0, 0, bad, 1.0), job(2, 0, 0, bad, 1.0)]);
            assert!(alone.iter().all(|o| o.end == never), "work {bad}");
        }
    }

    type Shape = (u64, usize, f64, usize);
    type Draw = (u64, u64, u64, f64, f64);

    /// A random batch: `shape` = (streams, capacity pick, contention,
    /// job count), one `draws` entry per job = (stream, arrival slot,
    /// zero-work pick, work, occupancy cap); times scale with `scale`.
    fn batch(shape: Shape, draws: &[Draw], scale: f64) -> (RateSharingTimeline, Vec<Job>) {
        let (streams, cap_pick, contention, n) = shape;
        let tl = match cap_pick {
            0 if n % 2 == 0 => RateSharingTimeline::new(),
            _ => RateSharingTimeline::with_contention([1.0, 0.5, 2.0, 0.75][cap_pick], contention),
        };
        let jobs = draws[..n]
            .iter()
            .enumerate()
            .map(|(i, &(s, arrival, kind, w, rate))| Job {
                id: 1000 + i as u64,
                stream: 40 + s % streams,
                // Coarse arrivals so many tie exactly.
                arrival: SimTime::from_nanos((arrival as f64 * 0.25e9 * scale) as u64),
                work: if kind == 0 { 0.0 } else { w * scale },
                // Half the caps on a coarse grid so co-resident jobs tie.
                max_rate: if kind < 4 {
                    rate
                } else {
                    (rate * 4.0).ceil() / 4.0
                },
            })
            .collect();
        (tl, jobs)
    }

    proptest! {
        /// The lane rewrite returns bit-identical outcomes to the
        /// reference timeline on random batches: 1–6 streams, up to 200
        /// jobs, zero-work jobs, tied arrivals, caps summing above and
        /// below capacity, non-unit capacity and contention up to 0.2.
        /// The longer scales put the rounding to whole nanoseconds where
        /// last-bit differences in the rates can flip it.
        #[test]
        fn simulate_matches_reference_bitwise(
            shape in (1u64..7, 0usize..4, 0.0f64..0.2, 0usize..201),
            scale_pick in 0usize..3,
            draws in prop::collection::vec(
                (0u64..6, 0u64..12, 0u64..8, 0.0f64..1.0, 0.01f64..1.0),
                200..201,
            ),
        ) {
            let (tl, jobs) = batch(shape, &draws, [1e-3, 1.0, 2.0][scale_pick]);
            prop_assert_eq!(tl.simulate(&jobs), tl.simulate_reference(&jobs));
        }

        /// Batches running to ~10⁵ s stall the reference forever: a
        /// remainder above the 1e-12 retire threshold but below one ulp
        /// of `now` never shrinks. They now finish, in stream order.
        #[test]
        fn long_batches_terminate_in_stream_order(
            shape in (1u64..7, 0usize..4, 0.0f64..0.2, 1usize..201),
            draws in prop::collection::vec(
                (0u64..6, 0u64..12, 0u64..8, 0.0f64..1.0, 0.01f64..1.0),
                200..201,
            ),
        ) {
            let (tl, jobs) = batch(shape, &draws, 1e3);
            let out = tl.simulate(&jobs);
            let mut stream_end = std::collections::BTreeMap::new();
            for (j, o) in jobs.iter().zip(&out) {
                prop_assert!(o.end < SimTime::from_nanos(u64::MAX), "job {} never ended", o.id);
                prop_assert!(j.arrival <= o.start && o.start <= o.end, "job {}", o.id);
                let prev = stream_end.insert(j.stream, o.end).unwrap_or(SimTime::ZERO);
                prop_assert!(prev <= o.start, "job {} overtook its stream", o.id);
            }
        }
    }
}
