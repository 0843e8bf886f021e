//! Coverage study (§5), interactive form: drives the corridor and prints
//! a geographic strip-map of which network is fastest along the way, plus
//! the Figure 9 coverage table.
//!
//! ```sh
//! cargo run --release --example coverage_map -- --scale 0.15
//! ```

use leo_cell::analysis::coverage::CoverageLevel;
use leo_cell::cli;
use leo_cell::core::{campaign, fig9};
use leo_cell::dataset::record::NetworkId;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = cli::flag(&args, "--scale", cli::finite)
        .unwrap_or(0.1)
        .clamp(0.005, 1.0);

    let c = campaign(scale, 5);
    println!("{}\n", c.summary().render());

    // Strip map: one character per km of drive — which network delivers
    // the most at that point, or '.' when everything is very low.
    println!("Winner strip-map (M=Mobility, R=Roam, a=ATT, t=TM, v=VZ, .=all <20 Mbps):");
    let nets = [
        (NetworkId::Mobility, 'M'),
        (NetworkId::Roam, 'R'),
        (NetworkId::Att, 'a'),
        (NetworkId::TMobile, 't'),
        (NetworkId::Verizon, 'v'),
    ];
    let mut strip = String::new();
    let mut last_km = -1i64;
    for (i, s) in c.samples.iter().enumerate() {
        let km = s.travelled_km.floor() as i64;
        if km == last_km {
            continue;
        }
        last_km = km;
        let mut best = ('.', 20.0);
        for (n, ch) in nets {
            let cap = c.traces[&n]
                .0
                .at(i as u64)
                .map(|cond| cond.capacity_mbps * (1.0 - cond.loss))
                .unwrap_or(0.0);
            if cap > best.1 {
                best = (ch, cap);
            }
        }
        strip.push(best.0);
        if strip.len().is_multiple_of(100) {
            strip.push('\n');
        }
    }
    println!("{strip}\n");

    // The Figure 9 table.
    let data = fig9::run(&c);
    println!("{}", fig9::render(&data));
    println!("(paper anchors: MOB high 60.61%, VZ 44.39%, TM 42.47%; ATT low+very-low 53.45%)");

    // Level legend.
    println!("\nLevels:");
    for level in CoverageLevel::ALL {
        println!(
            "  {:<9} {}",
            level.label(),
            match level {
                CoverageLevel::VeryLow => "< 20 Mbps",
                CoverageLevel::Low => "20–50 Mbps",
                CoverageLevel::Medium => "50–100 Mbps",
                CoverageLevel::High => "> 100 Mbps",
            }
        );
    }
}
