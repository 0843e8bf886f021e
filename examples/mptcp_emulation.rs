//! The §6 experiment, standalone: replay aligned Starlink + cellular
//! traces through the MpShell-style emulator and compare single-path TCP
//! against MPTCP under every scheduler and both buffer regimes.
//!
//! ```sh
//! cargo run --release --example mptcp_emulation -- --window 300
//! ```

use leo_cell::cli;
use leo_cell::core::campaign;
use leo_cell::core::mptcp_emu::{buffer_packets, run_mptcp, run_single_path, BufferTuning};
use leo_cell::dataset::record::NetworkId;
use leo_cell::transport::mptcp::SchedulerKind;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let window = cli::flag(&args, "--window", |w: &u64| *w > 0).unwrap_or(120);

    eprintln!("Generating campaign traces…");
    let c = campaign(0.08, 7);
    let timeline = c.samples.len() as u64;
    let t0 = (timeline / 3).min(timeline.saturating_sub(window));
    let t1 = t0 + window.min(timeline);

    let mob = c.traces[&NetworkId::Mobility].0.window(t0, t1);
    let att = c.traces[&NetworkId::Att].0.window(t0, t1);
    let vz = c.traces[&NetworkId::Verizon].0.window(t0, t1);

    println!("Replay window: {window}s starting at t={t0}s of the drive");
    for (label, t) in [("MOB", &mob), ("ATT", &att), ("VZ", &vz)] {
        let s = t.stats().expect("non-empty window");
        println!(
            "  {label:<4} capacity mean {:>6.1} Mbps, RTT {:>5.1} ms, loss {:.3}%",
            s.mean_mbps,
            s.mean_rtt_ms,
            s.mean_loss * 100.0
        );
    }

    println!("\nSingle-path TCP downloads:");
    let s_mob = run_single_path(&mob, 1).mean_mbps;
    let s_att = run_single_path(&att, 1).mean_mbps;
    let s_vz = run_single_path(&vz, 1).mean_mbps;
    println!("  MOB {s_mob:>6.1} Mbps   ATT {s_att:>6.1} Mbps   VZ {s_vz:>6.1} Mbps");

    for (cell_label, cell, single_cell) in [("ATT", &att, s_att), ("VZ", &vz, s_vz)] {
        println!("\nMPTCP MOB+{cell_label}:");
        println!(
            "  buffers: default {} pkts, tuned {} pkts",
            buffer_packets(BufferTuning::Default, &mob, cell),
            buffer_packets(BufferTuning::Tuned, &mob, cell)
        );
        for sched in SchedulerKind::ALL {
            let tuned = run_mptcp(&mob, cell, sched, BufferTuning::Tuned, 1).mean_mbps;
            let untuned = run_mptcp(&mob, cell, sched, BufferTuning::Default, 1).mean_mbps;
            let better = s_mob.max(single_cell);
            println!(
                "  {:<10} tuned {tuned:>6.1} Mbps ({:+.0}% vs better path)   untuned {untuned:>6.1} Mbps ({:+.0}%)",
                sched.label(),
                (tuned - better) / better.max(1e-9) * 100.0,
                (untuned - better) / better.max(1e-9) * 100.0,
            );
        }
    }
    println!("\n(paper: tuned MPTCP improved over the better path by 30% and 66%;");
    println!(" with default buffers the gains were marginal)");
}
