//! Fault injection across the measurement suite: iPerf (packet level),
//! UDP-Ping, and the tracker, driven over `FaultPipe` outage and
//! loss-burst windows, with the tools' reported loss/RTT statistics
//! reconciled against the pipes' exact drop counters.
//!
//! The load-bearing reconciliations are *exact*: the blaster's datagram
//! count must equal the pipe's `offered_packets`, every drop must land in
//! a named counter (`is_conserved`), injected-fault drops must appear in
//! `dropped_fault` and nowhere else, and a full-length outage must zero
//! the report, the deliveries, and the sink in lockstep.

use leo_link::condition::LinkCondition;
use leo_link::trace::LinkTrace;
use leo_measure::iperf::{Engine, IperfConfig, IperfRunner};
use leo_measure::tracker::Tracker;
use leo_measure::udp_ping::UdpPing;
use leo_netsim::{FaultKind, FaultSchedule};

fn flat(n: usize, mbps: f64, rtt: f64, loss: f64) -> Vec<LinkCondition> {
    vec![LinkCondition::new(mbps, rtt, loss); n]
}

/// Applies a fault schedule to per-second conditions the way the
/// analytic tools see it: an outage window kills the second, a loss
/// window compounds with the channel's own loss, and extra delay on the
/// (single, data-path) pipe inflates the RTT by its one-way magnitude.
fn apply_schedule(conditions: &[LinkCondition], schedule: &FaultSchedule) -> Vec<LinkCondition> {
    conditions
        .iter()
        .enumerate()
        .map(|(t_s, c)| {
            let mut out = *c;
            let ms = t_s as u64 * 1000;
            for w in schedule.windows() {
                if ms < w.start_ms || ms >= w.end_ms {
                    continue;
                }
                match w.kind {
                    FaultKind::Outage => out = LinkCondition::OUTAGE,
                    FaultKind::Loss(p) => {
                        out = LinkCondition::new(
                            out.capacity_mbps,
                            out.rtt_ms,
                            1.0 - (1.0 - out.loss) * (1.0 - p),
                        )
                    }
                    FaultKind::ExtraDelayMs(extra) => {
                        out = LinkCondition::new(
                            out.capacity_mbps,
                            out.rtt_ms + extra as f64,
                            out.loss,
                        )
                    }
                }
            }
            out
        })
        .collect()
}

// ---------------------------------------------------------------------
// iPerf, packet level.
// ---------------------------------------------------------------------

#[test]
fn udp_outage_window_reconciles_with_drop_counters() {
    let conditions = flat(10, 40.0, 40.0, 0.0);
    let faults = FaultSchedule::new().outage_s(3, 6);
    let cfg = IperfConfig::udp_down()
        .with_engine(Engine::PacketLevel)
        .with_faults(faults);
    let (report, audit) = IperfRunner::new(cfg).run_packet_level_audited(&conditions);

    let stats = audit.link_stats[0];
    // Exact: every datagram the blaster sent was offered to the pipe, and
    // every one of them is accounted for by a delivery or a named drop.
    assert_eq!(stats.offered_packets, audit.packets_sent);
    assert!(stats.is_conserved(), "leaky counters: {stats:?}");
    // The channel itself is lossless, so the only loss mechanisms are the
    // injected outage and the (oversubscribed) queue.
    assert_eq!(stats.dropped_random, 0);
    assert!(stats.dropped_fault > 0, "outage window never fired");
    assert_eq!(
        stats.offered_packets,
        stats.delivered_packets + stats.dropped_queue + stats.dropped_fault
    );
    // The sink cannot see more than the pipe admitted.
    assert!(audit.packets_received <= stats.delivered_packets);
    // Mid-outage seconds deliver nothing: second 4 lies strictly inside
    // the window (second 3 may still drain pre-outage in-flight packets).
    assert_eq!(report.per_second_mbps[4], 0.0);
    assert_eq!(report.per_second_mbps[5], 0.0);
    // And the tool's loss figure reflects the injected faults.
    assert!(report.retrans_rate > 0.15, "loss {}", report.retrans_rate);
}

/// Eight seconds of `LinkCondition::OUTAGE`: nothing crosses the link.
/// Packet-level UDP reads every datagram lost, as the analytic engine
/// does; packet-level TCP transmitted nothing and reads no
/// retransmissions.
#[test]
fn dead_link_reads_total_udp_loss_on_both_engines() {
    let dead = vec![LinkCondition::OUTAGE; 8];
    let analytic = IperfRunner::new(IperfConfig::udp_down()).run_analytic(&dead);
    let packet = IperfRunner::new(IperfConfig::udp_down().with_engine(Engine::PacketLevel))
        .run_packet_level(&dead);
    assert_eq!(analytic.retrans_rate, 1.0);
    assert_eq!(packet.retrans_rate, 1.0);
    assert_eq!(packet.per_second_mbps, vec![0.0; 8]);
    let tcp = IperfRunner::new(IperfConfig::tcp_down_cellular(1).with_engine(Engine::PacketLevel))
        .run_packet_level(&dead);
    assert_eq!(tcp.retrans_rate, 0.0);
    assert_eq!(tcp.mean_mbps, 0.0);
}

#[test]
fn udp_full_outage_zeroes_report_and_counters_in_lockstep() {
    let conditions = flat(8, 30.0, 40.0, 0.0);
    let cfg = IperfConfig::udp_down()
        .with_engine(Engine::PacketLevel)
        .with_faults(FaultSchedule::new().outage_s(0, 8));
    let (report, audit) = IperfRunner::new(cfg).run_packet_level_audited(&conditions);

    let stats = audit.link_stats[0];
    assert_eq!(report.mean_mbps, 0.0);
    assert_eq!(audit.packets_received, 0);
    assert_eq!(stats.delivered_packets, 0);
    // Exact: every single datagram died in the fault window, none leaked
    // into the random or queue counters.
    assert_eq!(stats.dropped_fault, audit.packets_sent);
    assert_eq!(stats.dropped_random + stats.dropped_queue, 0);
    assert!(stats.is_conserved());
    // Nothing arrived, so everything sent was lost.
    assert_eq!(report.retrans_rate, 1.0);
}

#[test]
fn udp_tail_outage_counts_datagrams_lost_after_the_last_arrival() {
    // The outage runs to the end of the test: no datagram arrives after
    // it starts, so no sequence gap can reveal those losses. The report
    // must still count every one of them.
    let conditions = flat(8, 30.0, 40.0, 0.0);
    let cfg = IperfConfig::udp_down()
        .with_engine(Engine::PacketLevel)
        .with_faults(FaultSchedule::new().outage_s(4, 8));
    let (report, audit) = IperfRunner::new(cfg).run_packet_level_audited(&conditions);

    let stats = audit.link_stats[0];
    assert!(stats.dropped_fault > 0, "outage window never fired");
    let fault_share = stats.dropped_fault as f64 / audit.packets_sent as f64;
    assert!(
        report.retrans_rate >= fault_share,
        "reported loss {} below the outage's share {fault_share} of datagrams sent",
        report.retrans_rate
    );
}

#[test]
fn udp_loss_burst_lands_in_dropped_fault_only() {
    let conditions = flat(10, 20.0, 30.0, 0.0);
    let faulted_cfg = IperfConfig::udp_down()
        .with_engine(Engine::PacketLevel)
        .with_faults(FaultSchedule::new().loss_s(2, 8, 0.5));
    let clean_cfg = IperfConfig::udp_down().with_engine(Engine::PacketLevel);

    let (f_rep, f_audit) = IperfRunner::new(faulted_cfg).run_packet_level_audited(&conditions);
    let (c_rep, c_audit) = IperfRunner::new(clean_cfg).run_packet_level_audited(&conditions);

    // The blaster is open-loop and the channel draws no randomness at
    // zero loss, so both runs offer the identical datagram stream.
    assert_eq!(f_audit.packets_sent, c_audit.packets_sent);

    let f = f_audit.link_stats[0];
    let c = c_audit.link_stats[0];
    assert!(f.is_conserved() && c.is_conserved());
    // The burst's casualties are attributed to the fault counter — the
    // channel's own (zero-loss) random counter must stay at zero.
    assert_eq!(f.dropped_random, 0);
    assert_eq!(c.dropped_fault, 0);
    assert!(f.dropped_fault > 0, "loss burst never fired");
    assert!(f_audit.packets_received < c_audit.packets_received);
    assert!(f_rep.mean_mbps < c_rep.mean_mbps);
}

#[test]
fn tcp_outage_window_reconciles_and_recovers() {
    let conditions = flat(12, 30.0, 40.0, 0.0);
    let faults = FaultSchedule::new().outage_s(4, 6);
    let cfg = IperfConfig::tcp_down_starlink(2)
        .with_engine(Engine::PacketLevel)
        .with_faults(faults);
    let (report, audit) = IperfRunner::new(cfg).run_packet_level_audited(&conditions);

    let data = audit.link_stats[0];
    assert!(data.is_conserved(), "leaky counters: {data:?}");
    assert!(data.dropped_fault > 0, "outage window never fired");
    // Receiver-side goodput can never exceed what the data pipe carried.
    let goodput_bytes: f64 = report.per_second_mbps.iter().sum::<f64>() * 1e6 / 8.0;
    assert!(
        goodput_bytes <= data.delivered_bytes as f64,
        "meters claim {goodput_bytes} B, pipe carried {} B",
        data.delivered_bytes
    );
    // TCP must survive a 2-second mid-path outage and resume.
    let after: f64 = report.per_second_mbps[6..].iter().sum();
    assert!(after > 1.0, "no post-outage recovery: {report:?}");

    let clean =
        IperfRunner::new(IperfConfig::tcp_down_starlink(2).with_engine(Engine::PacketLevel))
            .run_packet_level(&conditions);
    assert!(report.mean_mbps < clean.mean_mbps);
}

#[test]
fn empty_schedule_is_transparent_end_to_end() {
    // Wiring the FaultPipe into the engine must not perturb fault-free
    // runs: identical report and identical counters, bit for bit.
    let conditions = flat(8, 25.0, 50.0, 0.01);
    let plain = IperfConfig::udp_down().with_engine(Engine::PacketLevel);
    let wrapped = plain.clone().with_faults(FaultSchedule::new());
    let (a_rep, a_audit) = IperfRunner::new(plain).run_packet_level_audited(&conditions);
    let (b_rep, b_audit) = IperfRunner::new(wrapped).run_packet_level_audited(&conditions);
    assert_eq!(a_rep.per_second_mbps, b_rep.per_second_mbps);
    assert_eq!(a_rep.retrans_rate, b_rep.retrans_rate);
    assert_eq!(a_audit.link_stats, b_audit.link_stats);
    assert_eq!(a_audit.packets_received, b_audit.packets_received);
}

// ---------------------------------------------------------------------
// UDP-Ping over fault windows.
// ---------------------------------------------------------------------

#[test]
fn udp_ping_outage_window_loses_exactly_the_window() {
    let schedule = FaultSchedule::new().outage_s(3, 6);
    let conditions = apply_schedule(&flat(10, 100.0, 60.0, 0.0), &schedule);
    let ping = UdpPing {
        seed: 5,
        rate_hz: 7,
    };
    let rep = ping.run_conditions(&conditions);
    // Exact: the channel is otherwise lossless, so the lost probes are
    // precisely the window's seconds times the probe rate.
    assert_eq!(rep.probes_sent, 70);
    assert_eq!(rep.probes_lost, 3 * 7);
    assert_eq!(rep.rtts_ms.len(), 7 * 7);
    // Surviving probes ride the un-faulted conditions: base RTT plus the
    // (sub-millisecond) serialisation of the 1024-byte probe.
    let mean = rep.mean_rtt_ms().unwrap();
    assert!((mean - 60.16).abs() < 0.1, "mean {mean}");
}

#[test]
fn udp_ping_loss_burst_matches_double_traversal_probability() {
    let schedule = FaultSchedule::new().loss_s(0, 150, 0.3);
    let conditions = apply_schedule(&flat(200, 100.0, 60.0, 0.0), &schedule);
    let ping = UdpPing {
        seed: 11,
        rate_hz: 20,
    };
    let rep = ping.run_conditions(&conditions);
    // 150 s at 1-(0.7)² = 51 % probe loss, 50 s clean → 38.25 % overall.
    let expected = 150.0 / 200.0 * (1.0 - 0.7f64 * 0.7);
    assert!(
        (rep.loss_rate() - expected).abs() < 0.03,
        "loss {} vs expected {expected}",
        rep.loss_rate()
    );
}

#[test]
fn udp_ping_delay_spike_inflates_rtt_by_its_magnitude() {
    let schedule = FaultSchedule::new().extra_delay_s(0, 5, 80);
    let base = flat(10, 100.0, 60.0, 0.0);
    let conditions = apply_schedule(&base, &schedule);
    let spiked = UdpPing::default().run_conditions(&conditions[..5]);
    let calm = UdpPing::default().run_conditions(&conditions[5..]);
    let delta = spiked.mean_rtt_ms().unwrap() - calm.mean_rtt_ms().unwrap();
    assert!((delta - 80.0).abs() < 1e-9, "RTT delta {delta}");
}

// ---------------------------------------------------------------------
// Tracker over fault windows.
// ---------------------------------------------------------------------

#[test]
fn tracker_rows_expose_fault_windows_exactly() {
    use leo_geo::area::AreaType;
    use leo_geo::drive::{DayPhase, EnvironmentSample, Weather};
    use leo_geo::point::GeoPoint;

    let schedule = FaultSchedule::new().outage_s(2, 5).loss_s(7, 9, 0.2);
    let conditions = apply_schedule(&flat(12, 80.0, 55.0, 0.0), &schedule);
    let trace = LinkTrace::new("MOB", 0, conditions);
    let samples: Vec<EnvironmentSample> = (0..12)
        .map(|t| EnvironmentSample {
            t_s: t,
            position: GeoPoint::new(44.0, -93.0),
            speed_kmh: 40.0,
            heading_deg: 0.0,
            day_phase: DayPhase::Day,
            weather: Weather::Clear,
            travelled_km: t as f64 * 0.011,
        })
        .collect();
    let areas = vec![AreaType::Urban; 12];
    let rows = Tracker::log(&samples, &areas, &trace);

    assert_eq!(rows.len(), 12);
    // Exactly the outage window's rows read as dead link context.
    let dead: Vec<u64> = rows
        .iter()
        .filter(|r| r.capacity_mbps == 0.0 && r.loss == 1.0)
        .map(|r| r.t_s)
        .collect();
    assert_eq!(dead, vec![2, 3, 4]);
    // Exactly the loss window's rows carry the injected loss.
    let lossy: Vec<u64> = rows
        .iter()
        .filter(|r| r.loss > 0.0 && r.loss < 1.0)
        .map(|r| r.t_s)
        .collect();
    assert_eq!(lossy, vec![7, 8]);
    for r in &rows {
        if !dead.contains(&r.t_s) {
            assert_eq!(r.capacity_mbps, 80.0, "second {} corrupted", r.t_s);
        }
    }
}
