//! Generates a driving campaign and exports the dataset — the §3.3
//! "data collection" pipeline end to end.
//!
//! Writes `campaign.csv` and `campaign.json` into the current directory
//! and prints the dataset summary plus a per-area, per-network breakdown.
//!
//! ```sh
//! cargo run --release --example drive_campaign -- --scale 0.2
//!
//! # With an observability run report (per-stage timings, sim counters):
//! cargo run --release --example drive_campaign -- --metrics-json metrics.json
//! ```

use leo_cell::cli;
use leo_cell::dataset::campaign::{Campaign, CampaignConfig};
use leo_cell::dataset::io;
use leo_cell::dataset::record::{NetworkId, TestKind};
use leo_cell::geo::area::AreaType;
use leo_cell::link::condition::Direction;
use std::fs::File;
use std::io::{BufWriter, Write};

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let scale = cli::flag(&args, "--scale", cli::finite)
        .unwrap_or(0.1)
        .clamp(0.005, 1.0);
    let metrics_json = cli::text(&args, "--metrics-json");
    if metrics_json.is_some() {
        // Force the gate on before the first `enabled()` read caches it.
        std::env::set_var("LEO_OBS", "1");
    }

    eprintln!("Driving the five-state tour at scale {scale}…");
    let campaign = Campaign::generate(CampaignConfig {
        scale,
        ..CampaignConfig::default()
    });
    let summary = campaign.summary();
    println!("{}", summary.render());
    println!("(paper: 1,239 tests, 9,083 trace minutes, >3,800 km, areas 29.78/34.30/35.91%)\n");

    // Export.
    let csv = File::create("campaign.csv")?;
    io::write_csv(BufWriter::new(csv), &campaign.records)?;
    let mut json = BufWriter::new(File::create("campaign.json")?);
    json.write_all(
        io::to_json(&campaign.records)
            .expect("records serialise")
            .as_bytes(),
    )?;
    println!(
        "Exported {} records to campaign.csv and campaign.json",
        campaign.records.len()
    );

    // Mahimahi traces: the same files the paper fed to MpShell.
    std::fs::create_dir_all("traces")?;
    let mahi = io::export_mahimahi(&campaign);
    for (name, text) in &mahi {
        std::fs::write(format!("traces/{name}"), text)?;
    }
    println!("Exported {} Mahimahi traces to traces/*.mahi\n", mahi.len());

    // Per-area, per-network mean UDP downlink throughput (the Figure 8
    // aggregate, as a table).
    println!("Mean UDP downlink Mbps by area type:");
    print!("{:>6}", "");
    for n in NetworkId::ALL {
        print!("{:>8}", n.label());
    }
    println!();
    for area in AreaType::ALL {
        print!("{:>6}", area.label());
        for n in NetworkId::ALL {
            let v: Vec<f64> = campaign
                .records_where(|r| {
                    r.network == n
                        && r.kind == TestKind::Udp
                        && r.direction == Direction::Down
                        && r.area == area
                })
                .iter()
                .map(|r| r.mean_mbps)
                .collect();
            match leo_cell::analysis::stats::mean(&v) {
                Some(m) => print!("{m:>8.1}"),
                None => print!("{:>8}", "-"),
            }
        }
        println!();
    }

    if let Some(path) = metrics_json {
        let json = leo_cell::obs::snapshot().to_json();
        if path == "-" {
            println!("{json}");
        } else {
            std::fs::write(&path, &json)?;
            eprintln!("Wrote obs run report to {path}");
        }
    }
    Ok(())
}
