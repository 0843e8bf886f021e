//! The figure registry: every experiment, enumerable.

use leo_dataset::campaign::Campaign;

/// One reproducible figure.
pub struct FigureEntry {
    /// Short id ("fig1", "fig3a", …).
    pub id: &'static str,
    /// The paper's caption, abbreviated.
    pub title: &'static str,
    /// Runs the experiment and renders it for the terminal.
    pub render: fn(&Campaign) -> String,
}

/// Every figure of the paper, in order.
///
/// Figures 10 and 11 run packet-level emulation; their registry entries
/// use moderate window settings (four 120-s windows, one 120-s window) so
/// a full sweep stays interactive. These entries are what `figures`, the
/// conformance goldens and `perfbench --workload figures` run; nothing
/// runs the paper-scale `Fig10Params::default()`/`Fig11Params::default()`.
pub fn all_figures() -> Vec<FigureEntry> {
    vec![
        FigureEntry {
            id: "fig1",
            title: "Download throughput of different networks",
            render: |c| crate::fig1::render(&crate::fig1::run(c)),
        },
        FigureEntry {
            id: "fig3",
            title: "Throughput comparison: TCP/UDP, Roam/Mobility, Up/Down",
            render: |c| crate::fig3::render(&crate::fig3::run(c)),
        },
        FigureEntry {
            id: "fig4",
            title: "UDP Ping latency",
            render: |c| crate::fig4::render(&crate::fig4::run(c)),
        },
        FigureEntry {
            id: "fig5",
            title: "Packet loss in TCP transfer",
            render: |c| crate::fig5::render(&crate::fig5::run(c)),
        },
        FigureEntry {
            id: "fig6",
            title: "Impact of speed",
            render: |c| crate::fig6::render(&crate::fig6::run(c)),
        },
        FigureEntry {
            id: "fig7",
            title: "Impact of TCP parallelism",
            render: |c| crate::fig7::render(&crate::fig7::run(c)),
        },
        FigureEntry {
            id: "fig8",
            title: "Downlink throughput at different area types",
            render: |c| crate::fig8::render(&crate::fig8::run(c)),
        },
        FigureEntry {
            id: "fig9",
            title: "Comparison of network performance coverage",
            render: |c| crate::fig9::render(&crate::fig9::run(c)),
        },
        FigureEntry {
            id: "fig10",
            title: "Single-path TCP and MPTCP download performance",
            render: |c| {
                crate::fig10::render(&crate::fig10::run(
                    c,
                    crate::fig10::Fig10Params {
                        windows: 4,
                        window_s: 120,
                        seed: 0xf1610,
                    },
                ))
            },
        },
        FigureEntry {
            id: "fig11",
            title: "Throughput traces for single-path TCP and MPTCP",
            render: |c| {
                crate::fig11::render(&crate::fig11::run(
                    c,
                    crate::fig11::Fig11Params {
                        window_s: 120,
                        seed: 0xf1611,
                    },
                ))
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let figs = all_figures();
        assert_eq!(figs.len(), 10, "figures 1 and 3–11");
        let mut ids: Vec<&str> = figs.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), figs.len(), "duplicate figure ids");
    }

    #[test]
    fn every_entry_renders_nonempty() {
        let c = crate::test_support::small_campaign();
        for f in all_figures() {
            let out = (f.render)(c);
            assert!(
                out.len() > 40,
                "{} rendered suspiciously little: {out:?}",
                f.id
            );
            assert!(out.contains("Figure"), "{} missing caption", f.id);
        }
    }
}
