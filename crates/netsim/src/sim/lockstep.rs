//! Lockstep property test of the link-FIFO merge: random topologies of
//! constant, trace, faulted and jittered pipes, driven by agents that
//! burst, echo ACKs and arm timers (zero-delay ones included), must run
//! exactly as on the single-queue oracle, slice by slice.

use super::*;
use crate::pipe::{
    ConstPipe, FaultKind, FaultPipe, FaultSchedule, FaultWindow, JitterPipe, TracePipe,
};
use leo_link::mahimahi::MahimahiTrace;
use rand::Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// One callback as an agent saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fired {
    Packet { at: SimTime, link: usize, id: u64 },
    Timer { at: SimTime, node: usize, id: u64 },
}

type Log = Rc<RefCell<Vec<Fired>>>;

/// Sends bursts on its timers, echoes an ACK for every data packet,
/// sometimes answers an ACK with more data, and re-arms timers, some with
/// zero delay at the current instant. Its choices come from its own
/// xorshift state, never from the simulator's RNG.
struct Chatter {
    node: usize,
    out: Vec<LinkId>,
    log: Log,
    state: u64,
    next_id: u64,
    /// Data packets it may still send.
    budget: u32,
    /// Timers it may still arm.
    timers: u32,
}

impl Chatter {
    fn draw(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    fn send_data(&mut self, ctx: &mut Context, n: u64) {
        for _ in 0..n {
            if self.budget == 0 || self.out.is_empty() {
                return;
            }
            self.budget -= 1;
            let pick = (self.draw() % self.out.len() as u64) as usize;
            let link = self.out[pick];
            let id = (self.node as u64) << 32 | self.next_id;
            self.next_id += 1;
            ctx.send(link, Packet::data(id, self.node as u32, id, ctx.now()));
        }
    }

    /// Arms a timer: a quarter of them at the current instant, the rest
    /// whole milliseconds ahead, so they tie with trace-pipe deliveries.
    fn arm(&mut self, ctx: &mut Context, id: u64) {
        if self.timers == 0 {
            return;
        }
        self.timers -= 1;
        let delay = match self.draw() % 4 {
            0 => SimTime::ZERO,
            _ => SimTime::from_millis(self.draw() % 25),
        };
        ctx.set_timer(delay, id);
    }
}

impl Agent for Chatter {
    fn on_packet(&mut self, ctx: &mut Context, link: LinkId, packet: Packet) {
        self.log.borrow_mut().push(Fired::Packet {
            at: ctx.now(),
            link: link.0,
            id: packet.id,
        });
        if !packet.is_ack {
            let pick = self.draw() as usize % self.out.len().max(1);
            if let Some(&back) = self.out.get(pick) {
                ctx.send(
                    back,
                    Packet::ack(packet.id, packet.flow, packet.seq + 1, ctx.now()),
                );
            }
        } else if self.draw().is_multiple_of(3) {
            self.send_data(ctx, 1);
        }
        if self.draw().is_multiple_of(16) {
            self.arm(ctx, packet.id);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, timer_id: u64) {
        self.log.borrow_mut().push(Fired::Timer {
            at: ctx.now(),
            node: self.node,
            id: timer_id,
        });
        let burst = 1 + self.draw() % 8;
        self.send_data(ctx, burst);
        self.arm(ctx, timer_id + 1);
        if self.draw().is_multiple_of(5) {
            self.arm(ctx, timer_id + 1_000);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A random constant or trace base, optionally under a fault schedule
/// (outage, loss, extra delay) and jitter.
fn random_pipe(rng: &mut SmallRng) -> Box<dyn Pipe> {
    let delay = SimTime::from_millis(rng.gen_range(0..=20));
    let queue = rng.gen_range(3_000..=300_000u64);
    let mut pipe: Box<dyn Pipe> = if rng.gen_bool(0.5) {
        Box::new(ConstPipe::new(
            rng.gen_range(1.0..200.0),
            delay,
            rng.gen_range(0.0..0.2),
            queue,
        ))
    } else {
        let caps: Vec<f64> = (0..rng.gen_range(1..=6))
            .map(|_| {
                if rng.gen_bool(0.2) {
                    0.0
                } else {
                    rng.gen_range(1.0..100.0)
                }
            })
            .collect();
        let trace = MahimahiTrace::from_capacity_series(&caps);
        if trace.is_empty() {
            Box::new(ConstPipe::new(50.0, delay, 0.0, queue))
        } else {
            let losses = (0..caps.len()).map(|_| rng.gen_range(0.0..0.1)).collect();
            Box::new(TracePipe::new(trace, delay, queue).with_loss_series(losses))
        }
    };
    if rng.gen_bool(0.5) {
        let mut schedule = FaultSchedule::new();
        for _ in 0..rng.gen_range(1..=3) {
            let start_ms = rng.gen_range(0..3_000u64);
            let kind = match rng.gen_range(0..3) {
                0 => FaultKind::Outage,
                1 => FaultKind::Loss(rng.gen_range(0.05..0.9)),
                _ => FaultKind::ExtraDelayMs(rng.gen_range(1..=60)),
            };
            schedule = schedule.with(FaultWindow {
                start_ms,
                end_ms: start_ms + rng.gen_range(50..1_000),
                kind,
            });
        }
        pipe = Box::new(FaultPipe::new(pipe, schedule));
    }
    if rng.gen_bool(0.3) {
        pipe = Box::new(JitterPipe::new(
            pipe,
            SimTime::from_micros(rng.gen_range(1..=8_000)),
        ));
    }
    pipe
}

/// Builds the topology `seed` names on `sim` and kicks every node off.
fn build(mut sim: Simulator, seed: u64) -> (Simulator, Log) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let log = Log::default();
    let nodes = rng.gen_range(1..=3usize);
    let links: Vec<(usize, usize)> = (0..rng.gen_range(1..=4))
        .map(|_| (rng.gen_range(0..nodes), rng.gen_range(0..nodes)))
        .collect();
    for node in 0..nodes {
        let out = (0..links.len())
            .filter(|&l| links[l].0 == node)
            .map(LinkId)
            .collect();
        sim.add_node(Box::new(Chatter {
            node,
            out,
            log: log.clone(),
            state: rng.gen_range(1..u64::MAX),
            next_id: 0,
            budget: rng.gen_range(50..=400),
            timers: rng.gen_range(20..=300),
        }));
    }
    for &(_, dst) in &links {
        sim.add_link(random_pipe(&mut rng), NodeId(dst));
    }
    for node in 0..nodes {
        sim.with_agent(NodeId(node), |a, ctx| a.on_timer(ctx, 0));
    }
    (sim, log)
}

/// Runs the topology of `seed` on both loops over the same `run_until`
/// slices and requires identical runs; returns the fast loop's count of
/// arrivals that took the calendar fallback.
fn check_lockstep(seed: u64) -> u64 {
    let (mut fast, fast_log) = build(Simulator::new(seed ^ 0x5eed), seed);
    let (mut oracle, oracle_log) = build(Simulator::new_reference(seed ^ 0x5eed), seed);
    let mut slice_rng = SmallRng::seed_from_u64(!seed);
    let mut deadline = SimTime::ZERO;
    for slice in 0..slice_rng.gen_range(1..=5) {
        deadline += SimTime::from_micros(slice_rng.gen_range(0..2_000_000));
        assert_eq!(
            fast.run_until(deadline),
            oracle.run_until(deadline),
            "seed {seed:#x}: event counts differ in slice {slice}"
        );
        assert_eq!(fast.now(), oracle.now(), "seed {seed:#x}: clocks differ");
    }
    let (fast_log, oracle_log) = (fast_log.borrow(), oracle_log.borrow());
    if let Some(i) =
        (0..fast_log.len().min(oracle_log.len())).find(|&i| fast_log[i] != oracle_log[i])
    {
        panic!(
            "seed {seed:#x}: callback {i} differs: {:?} vs oracle {:?}",
            fast_log[i], oracle_log[i]
        );
    }
    assert_eq!(
        fast_log.len(),
        oracle_log.len(),
        "seed {seed:#x}: callback counts differ"
    );
    assert_eq!(
        fast.audit(),
        oracle.audit(),
        "seed {seed:#x}: audits differ"
    );
    fast.net.reordered
}

#[test]
fn fifo_merge_runs_in_lockstep_with_the_single_queue_oracle() {
    let mut reordered = 0;
    proptest::run_cases_with("fifo_merge_lockstep", 160, |rng| {
        reordered += check_lockstep(rng.gen());
    });
    assert!(reordered > 0, "no case took the calendar fallback");
}
