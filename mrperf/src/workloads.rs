//! The workloads: seeded cell tables and their dispatch order.
//!
//! A cell is one labelled [`BenchConfig`]. The tables are built in the
//! row-major order the figure binaries run them; the seed only sets each
//! job's `seed` field (through [`SeedFactory::seed_for`] on the cell
//! label) and permutes the order workers claim cells in.

use mrbench::{BenchConfig, DataType, MicroBenchmark, ShuffleVolume};
use mrbench_bench::{paper_sizes, quick_sizes, CLUSTER_A_NETWORKS};
use simcore::rng::SeedFactory;
use simcore::units::ByteSize;
use simnet::Interconnect;

/// One unit of benchmark work: a sweep cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Unique label; also the panel title in the pass artifact.
    pub label: String,
    /// The grid row label (shuffle size) of the cell.
    pub shuffle: ByteSize,
    /// The configuration the program under test receives.
    pub config: BenchConfig,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every cell the figure binaries (fig2–fig8 and `summary`) run.
    FigureSweep,
    /// Rack-scale MR-AVG jobs over oversubscribed topologies.
    RackShuffle,
    /// The figure cells relabelled MR-AVG, served from a warm store.
    ResumeSweep,
}

impl Workload {
    /// Every workload, in the order a full run measures them.
    pub const ALL: [Workload; 3] = [
        Workload::FigureSweep,
        Workload::RackShuffle,
        Workload::ResumeSweep,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigureSweep => "figure_sweep",
            Workload::RackShuffle => "rack_shuffle",
            Workload::ResumeSweep => "resume_sweep",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cell table, in row-major order, with job seeds drawn from
    /// `seed`. `quick` swaps in the MiB-scale sizes of `--quick`.
    pub fn cells(self, seed: u64, quick: bool) -> Vec<Cell> {
        let mut cells = match self {
            Workload::FigureSweep => figure_cells(quick),
            Workload::RackShuffle => rack_cells(quick),
            Workload::ResumeSweep => figure_cells(quick)
                .into_iter()
                .map(|mut c| {
                    c.label = format!("{} as MR-AVG", c.label);
                    c.config.benchmark = MicroBenchmark::Avg;
                    c
                })
                .collect(),
        };
        let seeds = SeedFactory::new(seed);
        for c in &mut cells {
            c.config.seed = seeds.seed_for(&c.label);
        }
        cells
    }

    /// Whether the timed phase reads a store filled during set-up (the
    /// resumed sweep) instead of filling a fresh store on every pass.
    pub fn resumes(self) -> bool {
        self == Workload::ResumeSweep
    }
}

/// The order workers claim cells in: a seeded permutation of the table.
pub fn dispatch_order(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SeedFactory::new(seed).stream("dispatch");
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Appends one panel: a (size × interconnect) grid in row-major order.
fn grid(
    out: &mut Vec<Cell>,
    title: &str,
    sizes: &[ByteSize],
    networks: &[Interconnect],
    make: impl Fn(ByteSize, Interconnect) -> BenchConfig,
) {
    for &shuffle in sizes {
        for &ic in networks {
            out.push(Cell {
                label: format!("{title} [{shuffle} over {}]", ic.label()),
                shuffle,
                config: make(shuffle, ic),
            });
        }
    }
}

/// The cells of fig2–fig8 and `summary`, as each binary builds them
/// (without `--resume`, `--trace` or watchdog flags). The drift-guard
/// test pins this table to the binaries' own artifacts.
fn figure_cells(quick: bool) -> Vec<Cell> {
    let sizes = if quick { quick_sizes() } else { paper_sizes() };
    let single = |full: ByteSize| {
        if quick {
            ByteSize::from_mib(512)
        } else {
            full
        }
    };
    let a_nets = &CLUSTER_A_NETWORKS;
    let b_nets = [Interconnect::IpoibFdr, Interconnect::RdmaFdr];
    let mut out = Vec::new();

    for (panel, bench) in ["(a)", "(b)", "(c)"].iter().zip(MicroBenchmark::ALL) {
        grid(
            &mut out,
            &format!("Fig 2{panel} {bench}"),
            &sizes,
            a_nets,
            |s, ic| BenchConfig::cluster_a_default(bench, ic, s),
        );
    }
    for (panel, bench) in ["(a)", "(b)", "(c)"].iter().zip(MicroBenchmark::ALL) {
        grid(
            &mut out,
            &format!("Fig 3{panel} {bench}"),
            &sizes,
            a_nets,
            |s, ic| BenchConfig::yarn_default(bench, ic, s),
        );
    }
    for (kv, panel) in [100usize, 1024, 10240]
        .into_iter()
        .zip(["(a)", "(b)", "(c)"])
    {
        grid(
            &mut out,
            &format!("Fig 4{panel} {kv} B k/v"),
            &sizes,
            a_nets,
            |s, ic| {
                let mut c = BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, s);
                c.key_size = kv;
                c.value_size = kv;
                c
            },
        );
    }
    let fig5_nets = [Interconnect::GigE10, Interconnect::IpoibQdr];
    for (maps, reduces) in [(4u32, 2u32), (8, 4)] {
        grid(
            &mut out,
            &format!("Fig 5 {maps}M-{reduces}R"),
            &sizes,
            &fig5_nets,
            |s, ic| {
                let mut c = BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, s);
                c.num_maps = maps;
                c.num_reduces = reduces;
                c.volume = ShuffleVolume::TotalBytes(s);
                c
            },
        );
    }
    let fig6_sizes = if quick {
        quick_sizes()
    } else {
        [16u64, 32, 48, 64].map(ByteSize::from_gib).to_vec()
    };
    for (dt, panel) in DataType::ALL.into_iter().zip(["(a)", "(b)"]) {
        grid(
            &mut out,
            &format!("Fig 6{panel} {dt}"),
            &fig6_sizes,
            a_nets,
            |s, ic| {
                let mut c = BenchConfig::cluster_a_default(MicroBenchmark::Rand, ic, s);
                c.data_type = dt;
                c
            },
        );
    }
    grid(
        &mut out,
        "Fig 7",
        &[single(ByteSize::from_gib(16))],
        a_nets,
        |s, ic| BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, s),
    );
    for (slaves, panel) in [(8usize, "(a)"), (16, "(b)")] {
        grid(
            &mut out,
            &format!("Fig 8{panel}"),
            &sizes,
            &b_nets,
            |s, ic| BenchConfig::cluster_b_case_study(ic, s, slaves),
        );
    }

    // `summary` re-runs the headline cells at one size each.
    let gb16 = [single(ByteSize::from_gib(16))];
    let ipoib = [Interconnect::IpoibQdr];
    for bench in MicroBenchmark::ALL {
        grid(
            &mut out,
            &format!("summary Fig 2 {bench}"),
            &gb16,
            a_nets,
            |s, ic| BenchConfig::cluster_a_default(bench, ic, s),
        );
    }
    grid(&mut out, "summary Fig 3 MR-AVG", &gb16, a_nets, |s, ic| {
        BenchConfig::yarn_default(MicroBenchmark::Avg, ic, s)
    });
    grid(&mut out, "summary Fig 3 MR-SKEW", &gb16, &ipoib, |s, ic| {
        BenchConfig::yarn_default(MicroBenchmark::Skew, ic, s)
    });
    grid(
        &mut out,
        "summary Fig 4 100 B k/v",
        &gb16,
        &ipoib,
        |s, ic| {
            let mut c = BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, s);
            c.key_size = 100;
            c.value_size = 100;
            c
        },
    );
    grid(&mut out, "summary Fig 7", &gb16, a_nets, |s, ic| {
        BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, s)
    });
    let gb32 = [single(ByteSize::from_gib(32))];
    for slaves in [8usize, 16] {
        grid(
            &mut out,
            &format!("summary Fig 8 {slaves} slaves"),
            &gb32,
            &b_nets,
            |s, ic| BenchConfig::cluster_b_case_study(ic, s, slaves),
        );
    }
    out
}

/// Rack-scale MR-AVG jobs, one per (slaves, racks, oversubscription,
/// Cluster A interconnect) combination: 4 maps and 1 reduce per slave,
/// 1 GiB of shuffle per slave. The mix is the same for every seed, so a
/// pass does the same work on every seed.
fn rack_cells(quick: bool) -> Vec<Cell> {
    let (slaves, per_slave): (&[usize], _) = if quick {
        (&[8, 16], ByteSize::from_mib(128))
    } else {
        (&[16, 24, 32, 40, 48], ByteSize::from_gib(1))
    };
    let mut out = Vec::new();
    for &n in slaves {
        let shuffle = ByteSize::from_bytes(per_slave.as_bytes() * n as u64);
        for racks in [2usize, 4] {
            for factor in [2.0f64, 4.0] {
                for ic in CLUSTER_A_NETWORKS {
                    let mut c = BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, shuffle);
                    c.slaves = n;
                    c.num_maps = 4 * n as u32;
                    c.num_reduces = n as u32;
                    c.racks = racks;
                    c.oversubscription = factor;
                    out.push(Cell {
                        label: format!(
                            "rack {n} slaves in {racks} racks at {factor}:1 [{shuffle} over {}]",
                            ic.label()
                        ),
                        shuffle,
                        config: c,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn figure_table_has_every_figure_cell() {
        assert_eq!(Workload::FigureSweep.cells(1, false).len(), 188);
        assert_eq!(Workload::ResumeSweep.cells(1, false).len(), 188);
        assert_eq!(Workload::FigureSweep.cells(1, true).len(), 106);
        assert_eq!(Workload::RackShuffle.cells(1, false).len(), 60);
        assert_eq!(Workload::RackShuffle.cells(1, true).len(), 24);
    }

    #[test]
    fn labels_are_unique_and_configs_valid() {
        for w in Workload::ALL {
            for quick in [false, true] {
                let cells = w.cells(7, quick);
                let labels: BTreeSet<&str> = cells.iter().map(|c| c.label.as_str()).collect();
                assert_eq!(labels.len(), cells.len(), "{w:?}");
                for c in &cells {
                    c.config
                        .validate()
                        .unwrap_or_else(|e| panic!("{}: {e}", c.label));
                }
            }
        }
    }

    /// Store keys of a table with every job seed set to 0, sorted.
    fn normalised_digests(cells: &[Cell]) -> Vec<String> {
        let mut d: Vec<String> = cells
            .iter()
            .map(|c| {
                let mut config = c.config.clone();
                config.seed = 0;
                mrbench::config_digest(&config)
            })
            .collect();
        d.sort();
        d
    }

    #[test]
    fn the_seed_moves_job_seeds_and_order_but_not_the_table() {
        for w in Workload::ALL {
            let a = w.cells(1, false);
            let again = w.cells(1, false);
            let digest = |cells: &[Cell]| -> Vec<String> {
                cells
                    .iter()
                    .map(|c| mrbench::config_digest(&c.config))
                    .collect()
            };
            assert_eq!(digest(&a), digest(&again), "{w:?}: same seed, same cells");
            let b = w.cells(2, false);
            assert_eq!(normalised_digests(&a), normalised_digests(&b), "{w:?}");
            assert!(
                a.iter()
                    .zip(&b)
                    .all(|(x, y)| x.config.seed != y.config.seed),
                "{w:?}: every job seed moves"
            );
            assert_ne!(dispatch_order(a.len(), 1), dispatch_order(b.len(), 2));
        }
    }

    #[test]
    fn dispatch_order_is_a_seeded_permutation() {
        let a = dispatch_order(188, 1);
        assert_eq!(a, dispatch_order(188, 1));
        assert_ne!(a, dispatch_order(188, 2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..188).collect::<Vec<_>>());
    }
}
