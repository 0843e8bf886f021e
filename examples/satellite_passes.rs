//! Satellite-pass and dish-plan geometry explorer.
//!
//! Shows the orbital mechanics behind the Roam-vs-Mobility gap (§4.1):
//! the same constellation, seen through two different fields of view,
//! yields different visible-satellite counts, pass lengths, and handover
//! rates — and reproduces the paper's Eq. 1 latency estimate from raw
//! geometry.
//!
//! ```sh
//! cargo run --release --example satellite_passes -- --lat 44.5 --lon -93.0
//! ```

use leo_cell::cli;
use leo_cell::geo::point::GeoPoint;
use leo_cell::orbit::constellation::{Constellation, Shell};
use leo_cell::orbit::dish::DishPlan;
use leo_cell::orbit::fastpath::VisibilitySearcher;
use leo_cell::orbit::ground::eq1_one_way_latency_ms;
use leo_cell::orbit::passes::{coverage_stats_with, passes_of_with, serving_timeline_with};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let lat = cli::flag(&args, "--lat", |v: &f64| (-90.0..=90.0).contains(v)).unwrap_or(44.5);
    let lon = cli::flag(&args, "--lon", |v: &f64| (-180.0..=180.0).contains(v)).unwrap_or(-93.0);
    let ground = GeoPoint::new(lat, lon);
    let constellation = Constellation::starlink();
    let shell = Shell::starlink_shell1();

    println!(
        "Starlink shell 1: {} satellites, {:.1} min period, {:.0} km/h orbital speed",
        shell.total_sats(),
        shell.period_s() / 60.0,
        shell.orbital_speed_km_s() * 3600.0
    );
    println!(
        "Paper Eq. 1: one-way vertical hop latency = {:.3} ms\n",
        eq1_one_way_latency_ms(shell.altitude_km)
    );

    println!(
        "Observer at ({:.2}, {:.2}):\n",
        ground.lat_deg, ground.lon_deg
    );
    // One searcher (and its propagation table) serves every sweep below —
    // the fast path returns bit-identical results to the naive scan.
    let mut searcher = VisibilitySearcher::new(&constellation);
    for plan in DishPlan::ALL {
        let mask = plan.min_elevation_deg();
        let stats = coverage_stats_with(&mut searcher, &ground, mask, 0.0, 1800.0, 15.0);
        let (_, handovers) = serving_timeline_with(&mut searcher, &ground, mask, 0.0, 1800.0, 15.0);
        println!(
            "{} (mask {mask:.0}°): availability {:.1}%, mean visible {:.1} sats, \
             {handovers} handovers / 30 min, longest gap {:.0}s",
            plan.label(),
            stats.availability * 100.0,
            stats.mean_visible,
            stats.longest_gap_s
        );
    }

    // Follow the currently-best satellite through its pass.
    if let Some(view) = searcher.best(&ground, 0.0, 25.0) {
        println!(
            "\nBest satellite now: shell {} plane {} slot {} at {:.1}° elevation, {:.0} km slant range",
            view.sat.shell, view.sat.plane, view.sat.slot, view.elevation_deg, view.range_km
        );
        let passes = passes_of_with(searcher.table(), view.sat, &ground, 25.0, 0.0, 5700.0, 5.0);
        println!("Its passes over the next ~95 min (one orbit):");
        for p in passes {
            println!(
                "  AOS {:>6.0}s  LOS {:>6.0}s  duration {:>4.0}s  peak elevation {:>4.1}°",
                p.aos_s,
                p.los_s,
                p.duration_s(),
                p.max_elevation_deg
            );
        }
    }
}
