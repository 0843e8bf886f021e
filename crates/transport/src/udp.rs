//! UDP blast: the iPerf-UDP equivalent.
//!
//! §4.1 uses UDP transfers to probe the *available bandwidth* of each
//! network, free of congestion-control effects. [`UdpBlaster`] paces
//! MTU-sized datagrams at a configured rate; [`UdpSink`] counts what
//! survives the pipe, yielding delivered throughput and loss.

use crate::throughput::ThroughputMeter;
use leo_netsim::{Agent, Context, LinkId, Packet, SimTime};

/// Constant-rate UDP sender.
pub struct UdpBlaster {
    flow: u32,
    out: LinkId,
    /// Inter-packet gap for the configured rate.
    gap: SimTime,
    /// Stop time (sender-side).
    until: SimTime,
    pub packets_sent: u64,
    next_seq: u64,
    started: bool,
}

impl UdpBlaster {
    /// Blasts at `rate_mbps` until `until` (simulated time).
    pub fn new(flow: u32, out: LinkId, rate_mbps: f64, until: SimTime) -> Self {
        let pps = (rate_mbps.max(0.001) * 1e6 / 8.0) / 1500.0;
        Self {
            flow,
            out,
            gap: SimTime::from_secs_f64(1.0 / pps),
            until,
            packets_sent: 0,
            next_seq: 0,
            started: false,
        }
    }

    /// Starts the blast.
    pub fn start(&mut self, ctx: &mut Context) {
        if !self.started {
            self.started = true;
            self.tick(ctx);
        }
    }

    fn tick(&mut self, ctx: &mut Context) {
        if ctx.now() >= self.until {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        ctx.send(self.out, Packet::data(seq, self.flow, seq, ctx.now()));
        self.packets_sent += 1;
        ctx.set_timer(self.gap, 0);
    }
}

impl Agent for UdpBlaster {
    fn on_packet(&mut self, _ctx: &mut Context, _link: LinkId, _packet: Packet) {}

    fn on_timer(&mut self, ctx: &mut Context, _timer_id: u64) {
        self.tick(ctx);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Counting UDP receiver.
pub struct UdpSink {
    flow: u32,
    pub meter: ThroughputMeter,
    pub packets_received: u64,
}

impl UdpSink {
    /// Creates a sink for `flow`.
    pub fn new(flow: u32) -> Self {
        Self {
            flow,
            meter: ThroughputMeter::new(),
            packets_received: 0,
        }
    }
}

impl Agent for UdpSink {
    fn on_packet(&mut self, ctx: &mut Context, _link: LinkId, packet: Packet) {
        if packet.flow != self.flow {
            return;
        }
        self.packets_received += 1;
        self.meter.record(ctx.now(), packet.size_bytes as u64);
    }

    fn on_timer(&mut self, _ctx: &mut Context, _timer_id: u64) {}

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use crate::transfer::{self, Endpoints, Path};
    use leo_netsim::{ConstPipe, SimTime};

    /// Delivered Mbps over the blast and the share of datagrams lost.
    fn run_udp(blast_mbps: f64, pipe_mbps: f64, loss: f64, secs: u64) -> (f64, f64) {
        let pipe = ConstPipe::new(pipe_mbps, SimTime::from_millis(25), loss, 90_000);
        let blast = Endpoints::Udp {
            rate_mbps: blast_mbps,
            blast_s: secs,
        };
        let out = transfer::run(11, blast, vec![Path::one_way(Box::new(pipe))], secs + 1);
        let delivered_mb = out.receivers[0].delivered_bytes as f64 * 8.0 / 1e6;
        (delivered_mb / secs as f64, out.udp_loss_rate())
    }

    #[test]
    fn undersubscribed_blast_passes_through() {
        let (mbps, loss) = run_udp(20.0, 100.0, 0.0, 5);
        assert!((mbps - 20.0).abs() < 1.0, "delivered {mbps}");
        assert!(loss < 0.01);
    }

    #[test]
    fn oversubscribed_blast_measures_capacity() {
        // Blast 120 Mbps through a 50 Mbps pipe: the sink sees ~50.
        let (mbps, loss) = run_udp(120.0, 50.0, 0.0, 5);
        assert!((mbps - 50.0).abs() < 3.0, "delivered {mbps}");
        assert!(loss > 0.4, "queue drops should show as loss: {loss}");
    }

    #[test]
    fn channel_loss_shows_up() {
        let (mbps, loss) = run_udp(20.0, 100.0, 0.10, 5);
        assert!((0.07..0.13).contains(&loss), "loss {loss}");
        assert!(mbps < 20.0);
    }
}
