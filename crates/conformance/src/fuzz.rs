//! The seeded schedule fuzzer.
//!
//! Composes random pipe stacks (Const/Trace base, optional fault and
//! jitter wrappers), random fault schedules, and random transport
//! workloads of every kind the transfer builder runs (UDP, one TCP
//! connection, parallel TCP, two-path MPTCP) over such stacks; drives them
//! deterministically; and asserts every
//! registered invariant after every step. A violation panics with the
//! case seed and a copy-pasteable reproduction command, so any failure
//! found in CI replays locally in milliseconds.

use crate::invariant::{audit_invariants, check_all, pipe_invariants};
use leo_exec::{splitmix64, unit_seed};
use leo_link::mahimahi::MahimahiTrace;
use leo_netsim::{
    CalendarQueue, ConstPipe, FaultPipe, FaultSchedule, JitterPipe, Pipe, PipeStats, SimTime,
    TracePipe,
};
use leo_transport::cc::CcAlgorithm;
use leo_transport::mptcp::{LeoGuard, SchedulerKind};
use leo_transport::transfer::{self, Endpoints, Path, TransferOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Fuzzer configuration.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Number of cases to run.
    pub cases: u64,
    /// Master seed; case `i` runs under [`unit_seed`]`(seed, i)`.
    pub seed: u64,
}

/// What one case exercised.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseReport {
    /// Packets offered to the standalone pipe stack.
    pub offers: u64,
    /// Of those, admitted for delivery.
    pub delivered: u64,
    /// Whether the case also ran a transport workload simulation.
    pub transport: bool,
}

/// Aggregate over a fuzz run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzSummary {
    pub cases: u64,
    pub offers: u64,
    pub delivered: u64,
    pub transport_runs: u64,
}

impl std::fmt::Display for FuzzSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cases: {} offers, {} delivered, {} transport sims, all invariants held",
            self.cases, self.offers, self.delivered, self.transport_runs
        )
    }
}

/// Runs the full campaign of fuzz cases; panics with reproduction
/// instructions on the first violation.
pub fn run(cfg: &FuzzConfig) -> FuzzSummary {
    let mut summary = FuzzSummary::default();
    for i in 0..cfg.cases {
        let r = run_case(unit_seed(cfg.seed, i));
        summary.cases += 1;
        summary.offers += r.offers;
        summary.delivered += r.delivered;
        summary.transport_runs += r.transport as u64;
    }
    summary
}

macro_rules! fail {
    ($seed:expr, $($arg:tt)*) => {
        panic!(
            "conformance fuzz violation (case-seed {seed:#018x}): {detail}\n\
             reproduce with: cargo run --release --example conformance -- --case-seed {seed:#018x}",
            seed = $seed,
            detail = format_args!($($arg)*),
        )
    };
}

/// The randomly composed subject of one case.
struct PipeCase {
    pipe: Box<dyn Pipe>,
    /// Deliveries can arrive out of admission order (jitter wrapper or a
    /// fault window adding extra delay), so the FIFO check is off.
    reorders: bool,
}

/// Builds a random Const/Trace base with optional Fault and Jitter
/// wrappers.
fn random_stack(rng: &mut SmallRng) -> PipeCase {
    let delay = SimTime::from_millis(rng.gen_range(0..=100));
    let queue = rng.gen_range(3_000..=1_000_000u64);
    let mut base: Box<dyn Pipe> = if rng.gen_bool(0.5) {
        Box::new(ConstPipe::new(
            rng.gen_range(0.5..500.0),
            delay,
            rng.gen_range(0.0..0.3),
            queue,
        ))
    } else {
        // A 1 Hz capacity series with deliberate dead seconds, replayed
        // through the wrapping Mahimahi schedule.
        let len = rng.gen_range(1..=40usize);
        let caps: Vec<f64> = (0..len)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    0.0
                } else {
                    rng.gen_range(1.0..200.0)
                }
            })
            .collect();
        let mm = MahimahiTrace::from_capacity_series(&caps);
        if mm.is_empty() {
            // All-dead series yields an empty schedule; fall back to a
            // constant pipe so the case still exercises something.
            Box::new(ConstPipe::new(
                rng.gen_range(0.5..500.0),
                delay,
                rng.gen_range(0.0..0.3),
                queue,
            ))
        } else {
            Box::new(TracePipe::new(mm, delay, queue))
        }
    };
    let mut reorders = false;
    if rng.gen_bool(0.6) {
        let mut sched = FaultSchedule::new();
        for _ in 0..rng.gen_range(1..=3) {
            let a = rng.gen_range(0..=18u64);
            let b = a + rng.gen_range(1..=6);
            sched = match rng.gen_range(0..3) {
                0 => sched.outage_s(a, b),
                1 => sched.loss_s(a, b, rng.gen_range(0.05..0.9)),
                _ => {
                    reorders = true; // extra delay ends abruptly at b
                    sched.extra_delay_s(a, b, rng.gen_range(1..=200))
                }
            };
        }
        base = Box::new(FaultPipe::new(base, sched));
    }
    if rng.gen_bool(0.3) {
        reorders = true;
        base = Box::new(JitterPipe::new(
            base,
            SimTime::from_millis(rng.gen_range(1..=20)),
        ));
    }
    PipeCase {
        pipe: base,
        reorders,
    }
}

fn assert_stats_conserved(seed: u64, stage: &str, stats: &PipeStats) {
    if let Some(v) = check_all(&pipe_invariants(), stats).first() {
        fail!(seed, "{stage}: {v} ({stats:?})");
    }
}

/// Runs one case: a standalone offer-loop over a random pipe stack, plus
/// (for a deterministic subset of seeds) a full transport simulation over
/// another random stack.
pub fn run_case(seed: u64) -> CaseReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut report = CaseReport::default();

    // --- Layer 1: direct offer-loop over a random stack. ---
    let mut case = random_stack(&mut rng);
    let mut offer_rng = SmallRng::seed_from_u64(splitmix64(seed));
    let offers = rng.gen_range(50..=400u64);
    let mut now = SimTime::ZERO;
    let mut last_delivery = SimTime::ZERO;
    // Scheduler equivalence, exercised on this case's real delivery
    // schedule: every admitted delivery is pushed into both the calendar
    // queue the simulator runs on and a reference binary heap, and the two
    // must pop identically — FIFO ties (jittered/faulted stacks collapse
    // many deliveries onto one instant) included. Pops interleave with
    // pushes on a deterministic cadence so the cursor rewinds and rotates
    // mid-stream, not just in one final drain.
    let mut sched_seq = 0u64;
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    let mut heap: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
    let sched_check = |seed: u64,
                       cal: &mut CalendarQueue<u64>,
                       heap: &mut BinaryHeap<Reverse<(SimTime, u64)>>| {
        let want = heap.pop().map(|Reverse((at, s))| (at, s, s));
        let got = cal.pop();
        if got != want {
            fail!(
                seed,
                "scheduler divergence: calendar queue popped {got:?}, reference heap {want:?}"
            );
        }
    };
    for i in 0..offers {
        now += SimTime::from_nanos(rng.gen_range(0..=5_000_000));
        let size = rng.gen_range(40..=1500u32);
        let admitted = case.pipe.offer(size, now, &mut offer_rng);
        report.offers += 1;
        if let Some(at) = admitted {
            report.delivered += 1;
            sched_seq += 1;
            cal.push(at, sched_seq, sched_seq);
            heap.push(Reverse((at, sched_seq)));
            if i % 3 == 0 {
                sched_check(seed, &mut cal, &mut heap);
            }
            if at < now {
                fail!(
                    seed,
                    "offer {i}: delivery at {:?} precedes its offer at {:?}",
                    at,
                    now
                );
            }
            if !case.reorders && at < last_delivery {
                fail!(
                    seed,
                    "offer {i}: FIFO pipe delivered at {:?} before the previous delivery {:?}",
                    at,
                    last_delivery
                );
            }
            last_delivery = last_delivery.max(at);
        }
        // Conservation is exact after *every* offer, not just at the end.
        assert_stats_conserved(seed, &format!("after offer {i}"), &case.pipe.stats());
    }
    // Drain the scheduler pair: the tails must agree to the last event.
    while !heap.is_empty() {
        sched_check(seed, &mut cal, &mut heap);
    }
    if !cal.is_empty() {
        fail!(
            seed,
            "scheduler divergence: calendar queue kept {} event(s) past the reference drain",
            cal.len()
        );
    }
    let final_stats = case.pipe.stats();
    if final_stats.offered_packets != report.offers {
        fail!(
            seed,
            "stats counted {} offers, the harness made {}",
            final_stats.offered_packets,
            report.offers
        );
    }
    if final_stats.delivered_packets != report.delivered {
        fail!(
            seed,
            "stats counted {} deliveries, the harness observed {}",
            final_stats.delivered_packets,
            report.delivered
        );
    }
    if case.pipe.queued_bytes(now) > final_stats.offered_bytes {
        fail!(seed, "queued bytes exceed everything ever offered");
    }

    // --- Layer 2: a transport workload for a subset of seeds. ---
    report.transport = true;
    match rng.gen_range(0..8u32) {
        0 | 1 => run_udp_case(seed, &mut rng),
        2 => run_tcp_case(seed, &mut rng),
        3 => run_mptcp_case(seed, &mut rng),
        4 => run_parallel_tcp_case(seed, &mut rng),
        _ => report.transport = false,
    }
    report
}

/// UDP blast through a random stack: end-to-end counters must reconcile
/// with the pipe's, and the completed run must audit clean.
fn run_udp_case(seed: u64, rng: &mut SmallRng) {
    let case = random_stack(rng);
    let secs = rng.gen_range(2..=6u64);
    let blast = Endpoints::Udp {
        rate_mbps: rng.gen_range(1.0..100.0),
        blast_s: secs,
    };
    let path = Path::one_way(case.pipe);
    let out = transfer::run(splitmix64(seed ^ 0xdeb5), blast, vec![path], secs + 2);
    check_transfer(seed, "udp", &out, 1);
    let stats = out.audit.links[0];
    if stats.offered_packets != out.udp_sent {
        fail!(
            seed,
            "udp sim: pipe saw {} offers, blaster sent {}",
            stats.offered_packets,
            out.udp_sent
        );
    }
    if out.udp_received > stats.delivered_packets {
        fail!(
            seed,
            "udp sim: sink received {} of {} admitted packets",
            out.udp_received,
            stats.delivered_packets
        );
    }
    let loss = out.udp_loss_rate();
    if !(0.0..=1.0).contains(&loss) {
        fail!(seed, "udp sim: loss rate {loss} outside [0, 1]");
    }
}

/// A data pipe drawn like every other stack of the fuzzer (constant or
/// trace base, fault schedule, jitter) and the clean ACK pipe back, so
/// the transports meet dead seconds, outages and reordering.
fn random_path(rng: &mut SmallRng) -> Path {
    let data = random_stack(rng).pipe;
    let ack = ConstPipe::new(100.0, SimTime::from_millis(10), 0.0, 1 << 22);
    Path::new(data, Box::new(ack))
}

/// TCP download over a random pipe stack.
fn run_tcp_case(seed: u64, rng: &mut SmallRng) {
    let secs = rng.gen_range(3..=8u64);
    let tcp = Endpoints::Tcp {
        cc: CcAlgorithm::Cubic,
        rwnd_packets: 1 << 16,
    };
    let out = transfer::run(splitmix64(seed ^ 0x7c9), tcp, vec![random_path(rng)], secs);
    check_transfer(seed, "tcp", &out, 1);
}

/// Two-path MPTCP download over random pipe stacks, under a random
/// scheduler, congestion controller, coupling and receive buffer.
fn run_mptcp_case(seed: u64, rng: &mut SmallRng) {
    let secs = rng.gen_range(3..=8u64);
    let scheduler = SchedulerKind::ALL[rng.gen_range(0..SchedulerKind::ALL.len())];
    let ccs = [CcAlgorithm::Reno, CcAlgorithm::Cubic, CcAlgorithm::BbrLite];
    let mptcp = Endpoints::Mptcp {
        cc: ccs[rng.gen_range(0..ccs.len())],
        coupled: rng.gen_bool(0.5),
        scheduler,
        buffer_packets: rng.gen_range(32..=16_384u64),
        leo_guard: (scheduler == SchedulerKind::LeoAware).then(LeoGuard::starlink_default),
        plugins: Default::default(),
    };
    let paths = vec![random_path(rng), random_path(rng)];
    let out = transfer::run(splitmix64(seed ^ 0x3b7c), mptcp, paths, secs);
    check_transfer(seed, "mptcp", &out, 2);
}

/// iPerf `-P 2..4`: parallel TCP connections sharing one random pipe
/// stack through flow demuxes.
fn run_parallel_tcp_case(seed: u64, rng: &mut SmallRng) {
    let secs = rng.gen_range(3..=8u64);
    let tcp = Endpoints::DemuxedTcp {
        n: rng.gen_range(2..=4),
        cc: CcAlgorithm::Cubic,
        rwnd_packets: 4096,
    };
    let out = transfer::run(splitmix64(seed ^ 0x9a7), tcp, vec![random_path(rng)], secs);
    check_transfer(seed, "parallel tcp", &out, 1);
}

/// The completed run must audit clean, and its receivers cannot have
/// delivered more than the `data_pipes` (the first links) carried.
fn check_transfer(seed: u64, kind: &str, out: &TransferOutcome, data_pipes: usize) {
    if let Some(v) = check_all(&audit_invariants(), &out.audit).first() {
        fail!(seed, "{kind} sim: {v}");
    }
    let goodput: u64 = out.receivers.iter().map(|r| r.delivered_bytes).sum();
    let carried: u64 = out.audit.links[..data_pipes]
        .iter()
        .map(|s| s.delivered_bytes)
        .sum();
    if goodput > carried {
        fail!(
            seed,
            "{kind} sim: receivers delivered {goodput} bytes, the data pipes only carried {carried}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fuzz_holds_invariants() {
        let s = run(&FuzzConfig { cases: 25, seed: 7 });
        assert_eq!(s.cases, 25);
        assert!(s.offers >= 25 * 50);
    }
}
