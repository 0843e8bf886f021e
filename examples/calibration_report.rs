//! Calibration report: every paper anchor next to its measured value.
//!
//! Prints the table that `EXPERIMENTS.md` summarises — useful after
//! touching any world-model constant to see at a glance what moved.
//!
//! ```sh
//! cargo run --release --example calibration_report -- --scale 0.3
//! ```

use leo_cell::analysis::stats::mean;
use leo_cell::cli;
use leo_cell::core::{campaign, fig10, fig3, fig4, fig5, fig7, fig8, fig9};
use leo_cell::geo::area::AreaType;

struct Row {
    metric: &'static str,
    paper: String,
    measured: String,
    ok: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = cli::flag(&args, "--scale", cli::finite)
        .unwrap_or(0.15)
        .clamp(0.01, 1.0);
    eprintln!("Generating campaign at scale {scale}…");
    let c = campaign(scale, 42);

    let mut rows: Vec<Row> = Vec::new();
    let mut row = |metric: &'static str, paper: String, measured: String, ok: bool| {
        rows.push(Row {
            metric,
            paper,
            measured,
            ok,
        });
    };

    // Figure 3 anchors.
    let d3 = fig3::run(&c);
    let get3 = |sets: &[fig3::LabelledSamples], l: &str| {
        sets.iter()
            .find(|s| s.label == l)
            .and_then(|s| mean(&s.mbps))
            .unwrap_or(0.0)
    };
    let mob_udp = get3(&d3.tcp_vs_udp, "MOB-UDP");
    let mob_tcp = get3(&d3.tcp_vs_udp, "MOB-TCP");
    let rm_udp = get3(&d3.roam_vs_mobility, "RM");
    let up = get3(&d3.up_vs_down, "Uplink");
    row(
        "MOB UDP down mean (Mbps)",
        "128".into(),
        format!("{mob_udp:.0}"),
        (90.0..210.0).contains(&mob_udp),
    );
    row(
        "MOB UDP/TCP ratio",
        "≈5x".into(),
        format!("{:.1}x", mob_udp / mob_tcp.max(1e-9)),
        (2.5..9.0).contains(&(mob_udp / mob_tcp.max(1e-9))),
    );
    row(
        "RM UDP down mean (Mbps)",
        "63".into(),
        format!("{rm_udp:.0}"),
        (35.0..110.0).contains(&rm_udp),
    );
    row(
        "MOB/RM ratio",
        "≈2x".into(),
        format!("{:.1}x", mob_udp / rm_udp.max(1e-9)),
        (1.4..3.5).contains(&(mob_udp / rm_udp.max(1e-9))),
    );
    row(
        "down/up ratio (MOB)",
        "≈10x".into(),
        format!("{:.1}x", mob_udp / up.max(1e-9)),
        (6.0..16.0).contains(&(mob_udp / up.max(1e-9))),
    );

    // Figure 4 anchors.
    let d4 = fig4::run(&c);
    let rtt = |l: &str| fig4::mean_rtt(&d4, l).unwrap_or(f64::NAN);
    row(
        "RTT ordering",
        "VZ≈TM < MOB,RM < ATT".into(),
        format!(
            "VZ {:.0}, TM {:.0}, MOB {:.0}, RM {:.0}, ATT {:.0} ms",
            rtt("VZ"),
            rtt("TM"),
            rtt("MOB"),
            rtt("RM"),
            rtt("ATT")
        ),
        rtt("VZ").min(rtt("TM")) < rtt("MOB") && rtt("ATT") > rtt("MOB"),
    );

    // Figure 5 anchors.
    let d5 = fig5::run(&c);
    let retr = |l: &str| {
        d5.rows
            .iter()
            .find(|(rl, ..)| rl == l)
            .map(|(_, _, down)| *down)
            .unwrap_or(0.0)
    };
    row(
        "Starlink retransmissions (down)",
        "0.3–1.3 %".into(),
        format!("RM {:.1}%, MOB {:.1}%", retr("RM"), retr("MOB")),
        retr("MOB") > 5.0 * retr("VZ").max(0.01),
    );

    // Figure 7 anchors.
    let d7 = fig7::run(&c);
    let (rm4, rm8) = d7
        .rows
        .iter()
        .find(|(l, ..)| l == "Roam")
        .map(|(_, a, b)| (*a, *b))
        .unwrap_or((0.0, 0.0));
    row(
        "Roam parallelism gain 4P/8P",
        ">+50 % / >+130 %".into(),
        format!("+{rm4:.0}% / +{rm8:.0}%"),
        rm4 > 40.0 && rm8 >= rm4,
    );

    // Figure 8 anchors.
    let d8 = fig8::run(&c);
    let g8 = |l: &str, a: AreaType| fig8::group_mean(&d8, l, a).unwrap_or(0.0);
    row(
        "area crossover",
        "cellular wins urban; Starlink wins suburban+rural".into(),
        format!(
            "urban {:.0}/{:.0}, rural {:.0}/{:.0} (cell/MOB)",
            g8("Cellular", AreaType::Urban),
            g8("MOB", AreaType::Urban),
            g8("Cellular", AreaType::Rural),
            g8("MOB", AreaType::Rural)
        ),
        g8("Cellular", AreaType::Urban) > g8("MOB", AreaType::Urban)
            && g8("MOB", AreaType::Rural) > g8("Cellular", AreaType::Rural),
    );

    // Figure 9 anchors.
    let d9 = fig9::run(&c);
    let high = |l: &str| fig9::high_share(&d9, l).unwrap_or(0.0) * 100.0;
    row(
        "MOB high-coverage share",
        "60.61 %".into(),
        format!("{:.0}%", high("MOB")),
        (35.0..80.0).contains(&high("MOB")),
    );
    row(
        "VZ / TM high share",
        "44.39 / 42.47 %".into(),
        format!("{:.0}% / {:.0}%", high("VZ"), high("TM")),
        high("VZ") > 20.0 && high("TM") > 20.0,
    );

    // Figure 10 anchors (packet-level, small windows to stay fast).
    let d10 = fig10::run(
        &c,
        fig10::Fig10Params {
            windows: 3,
            window_s: 90,
            seed: 42,
        },
    );
    for (label, u) in &d10.utilisation {
        let anchors = if label == "MOB+ATT" { "81 %" } else { "84 %" };
        row(
            if label == "MOB+ATT" {
                "MPTCP utilisation MOB+ATT"
            } else {
                "MPTCP utilisation MOB+VZ"
            },
            anchors.into(),
            format!("{:.0}%", u * 100.0),
            (0.4..1.01).contains(u),
        );
    }
    for (label, imp) in &d10.improvement_over_better {
        let anchors = if label == "MOB+ATT" { "+30 %" } else { "+66 %" };
        row(
            if label == "MOB+ATT" {
                "MPTCP gain over better path (ATT pair)"
            } else {
                "MPTCP gain over better path (VZ pair)"
            },
            anchors.into(),
            format!("{imp:+.0}%"),
            *imp > 0.0,
        );
    }

    println!("\n{:<42} {:<28} {:<36} ok", "metric", "paper", "measured");
    println!("{}", "-".repeat(112));
    let mut all_ok = true;
    for r in &rows {
        println!(
            "{:<42} {:<28} {:<36} {}",
            r.metric,
            r.paper,
            r.measured,
            if r.ok { "✔" } else { "✘" }
        );
        all_ok &= r.ok;
    }
    println!("{}", "-".repeat(112));
    println!(
        "{}",
        if all_ok {
            "All calibration anchors hold."
        } else {
            "Some anchors are out of band — see rows marked ✘."
        }
    );
}
