//! The paper's figures, each defined once.
//!
//! A [`FigureSpec`] is one figure of Sects. 5.2 and 6: its shuffle-size
//! axis, interconnects and panels (title, config builder), and the prose
//! claims checked against them. The `fig2` … `fig8` binaries are shims
//! over [`crate::main`], which drives the spec of that name; `summary`
//! tabulates every spec's claims, and the integration tests take their
//! configs from the same panels.
//!
//! Claims read (panel, size, interconnect) cells, found by the config
//! that produced them: the same lookup serves a figure's own sweeps and
//! `summary`'s one-size grids (where Fig. 4's 1 KB anchor is a Fig. 2(a)
//! cell).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mrbench::calib::{claims, ANCHOR_IPOIB_16GB_100B_SECS, ANCHOR_IPOIB_16GB_1KB_SECS};
use mrbench::{
    config_digest, BenchConfig, BenchReport, DataType, Error, MicroBenchmark, ShuffleVolume, Sweep,
};
use simcore::stats::TimeSeries;
use simcore::units::ByteSize;
use simnet::Interconnect::{self, GigE1, GigE10, IpoibFdr, IpoibQdr, RdmaFdr};

use crate::{quick_sizes, run_grid, Harness, CLUSTER_A_NETWORKS, PAPER_GIB};
use Quantity::{Gain, Ratio, Read, Time};

/// One figure of the paper.
#[derive(Debug)]
pub struct FigureSpec {
    /// Binary and artifact name.
    pub(crate) name: &'static str,
    figure: &'static str,
    caption: &'static str,
    /// Paper-scale shuffle sizes, GiB.
    sizes: &'static [u64],
    /// Every panel's columns.
    networks: &'static [Interconnect],
    /// The panels, in the paper's order.
    pub panels: &'static [Panel],
    layout: Layout,
    /// Checked in order at paper scale, then `checks`, then `extra`.
    claims: &'static [Claim],
    checks: &'static [Check],
    /// Figure-specific output after the panels.
    show: Option<fn(&mut String, &[Sweep])>,
    extra: Option<ExtraCheck>,
    /// The cells `summary` re-runs for the claims, at `summary_gib`:
    /// (panel, interconnects, title in `summary`'s artifact).
    summary: &'static [(usize, &'static [Interconnect], &'static str)],
    summary_gib: u64,
}

/// What a spec leaves out: a Cluster A table figure over the paper's
/// sizes, with no claims and no hooks.
const BASE: FigureSpec = FigureSpec {
    name: "",
    figure: "",
    caption: "",
    sizes: &PAPER_GIB,
    networks: &CLUSTER_A_NETWORKS,
    panels: &[],
    layout: Layout::TablesAndGains,
    claims: &[],
    checks: &[],
    show: None,
    extra: None,
    summary: &[],
    summary_gib: 16,
};

/// A check that runs cells outside the figure's grid.
type ExtraCheck = fn(&Harness, &Cells<'_>) -> Result<Verdict, Error>;

/// Cluster B's interconnects (Fig. 8).
const CLUSTER_B: [Interconnect; 2] = [IpoibFdr, RdmaFdr];

/// One panel of a figure.
#[derive(Debug)]
pub struct Panel {
    /// Table heading and artifact title.
    pub title: &'static str,
    /// The config of the cell at (shuffle size, interconnect).
    pub config: fn(ByteSize, Interconnect) -> BenchConfig,
}

/// How a figure's panels are printed and recorded.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// A job-time table per panel, recorded as a sweep.
    Tables,
    /// Tables, each followed by the per-size gain rows the prose quotes.
    TablesAndGains,
    /// No tables; each cell is recorded as its own report titled
    /// `"{panel} — {network}"`. One size, 512 MiB under `--quick`.
    Reports,
}

/// A cell: panel index, paper-scale GiB, interconnect.
#[derive(Clone, Copy, Debug)]
struct At(usize, u64, Interconnect);

/// A number read off a figure's cells.
#[derive(Clone, Copy, Debug)]
enum Quantity {
    /// Job time (s).
    Time(At),
    /// Job-time gain (%) of the second cell over the first.
    Gain(At, At),
    /// Job time of the first cell over the second's.
    Ratio(At, At),
    /// A reading off the cell's report.
    Read(At, fn(&BenchReport) -> f64),
}

/// A paper constant and the quantity that reproduces it.
#[derive(Debug)]
struct Claim {
    /// `summary`'s row: experiment, quantity, unit.
    row: (&'static str, &'static str, &'static str),
    paper: f64,
    measured: Quantity,
    /// The figure's check, label and relative tolerance; `None` when
    /// only `summary` reports the claim.
    check: Option<(&'static str, f64)>,
}

/// A qualitative claim or an informational line.
#[derive(Debug)]
struct Check {
    inputs: &'static [Quantity],
    verdict: fn(&[f64]) -> Verdict,
}

/// One line of a figure's shape checks.
#[derive(Debug)]
pub struct Verdict {
    /// `Some(passed)`, or `None` for an informational line.
    ok: Option<bool>,
    text: String,
}

impl Verdict {
    /// An `ok` or `DEVIATES` line.
    pub fn check(ok: bool, text: String) -> Verdict {
        Verdict { ok: Some(ok), text }
    }

    /// An `info` line.
    pub(crate) fn info(text: String) -> Verdict {
        Verdict { ok: None, text }
    }
}

/// As `  [ok      ] …`, `  [DEVIATES] …` or `  [info    ] …`.
impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = match self.ok {
            Some(true) => "ok      ",
            Some(false) => "DEVIATES",
            None => "info    ",
        };
        write!(f, "  [{tag}] {}", self.text)
    }
}

/// Whether `measured` is within relative tolerance `tol` of `paper`
/// (absolute when the paper's value is zero).
pub(crate) fn within(paper: f64, measured: f64, tol: f64) -> bool {
    if paper == 0.0 {
        measured.abs() < tol
    } else {
        ((measured - paper) / paper).abs() <= tol
    }
}

impl FigureSpec {
    /// The shuffle-size axis: the paper's, or its `--quick` stand-in.
    fn sizes(&self, harness: &Harness) -> Vec<ByteSize> {
        let full = self.sizes.iter().map(|&g| ByteSize::from_gib(g));
        match self.layout {
            Layout::Reports => full.map(|s| harness.shuffle(s)).collect(),
            _ if harness.quick => quick_sizes(),
            _ => full.collect(),
        }
    }

    /// Record a finished panel: one sweep, or one report per cell.
    fn record(&self, harness: &mut Harness, title: &str, sweep: &Sweep) {
        if let Layout::Reports = self.layout {
            for cell in &sweep.cells {
                let title = format!("{title} — {}", cell.interconnect.label());
                harness.artifacts.record_report(&title, cell.report.clone());
            }
        } else {
            harness.artifacts.record_sweep(title, sweep.clone());
        }
    }

    /// The figure binary: run every panel, then check every claim.
    pub(crate) fn run(&self, h: &mut Harness) -> Result<(), Error> {
        h.header(self.figure, self.caption);
        let sizes = self.sizes(h);
        let mut sweeps = Vec::new();
        for p in self.panels {
            let sweep = run_grid(h, &sizes, self.networks, p.config)?;
            if !matches!(self.layout, Layout::Reports) {
                let _ = writeln!(h.text, "{}", sweep.table(p.title));
            }
            self.record(h, p.title, &sweep);
            if let Layout::TablesAndGains = self.layout {
                improvements(&mut h.text, &sweep);
            }
            sweeps.push(sweep);
        }
        if let Some(show) = self.show {
            show(&mut h.text, &sweeps);
        }
        if h.quick {
            h.note_quick();
            return Ok(());
        }
        let _ = writeln!(h.text, "shape checks against the paper's prose:");
        let cells = Cells::new(&sweeps);
        for claim in self.claims {
            if let Some((label, tol)) = claim.check {
                let (paper, measured) = (claim.paper, cells.measure(h, self, claim.measured)?);
                let text = format!("{label}: paper {paper:.1}, measured {measured:.1}");
                let verdict = Verdict::check(within(paper, measured, tol), text);
                let _ = writeln!(h.text, "{verdict}");
            }
        }
        for check in self.checks {
            let inputs = check.inputs.iter().map(|&q| cells.measure(h, self, q));
            let verdict = (check.verdict)(&inputs.collect::<Result<Vec<f64>, Error>>()?);
            let _ = writeln!(h.text, "{verdict}");
        }
        if let Some(extra) = self.extra {
            let verdict = extra(h, &cells)?;
            let _ = writeln!(h.text, "{verdict}");
        }
        Ok(())
    }
}

/// The improvement rows the paper's prose quotes: percentage gain of
/// each faster network over the slowest, per shuffle size.
fn improvements(text: &mut String, sweep: &Sweep) {
    let slowest = sweep.interconnects[0];
    let _ = write!(text, "{:>12}", "improvement");
    for ic in &sweep.interconnects[1..] {
        let _ = write!(text, "{:>18}", format!("vs {}", ic.label()));
    }
    text.push('\n');
    for &size in &sweep.sizes {
        let _ = write!(text, "{:>12}", size.to_string());
        for &ic in &sweep.interconnects[1..] {
            let imp = sweep.improvement_pct(size, slowest, ic).unwrap_or(f64::NAN);
            let _ = write!(text, "{:>17.1}%", imp);
        }
        text.push('\n');
    }
    text.push('\n');
}

/// Finished runs, by the digest of the config that produced them.
#[derive(Debug)]
struct Cells<'a> {
    reports: BTreeMap<String, &'a BenchReport>,
}

impl<'a> Cells<'a> {
    fn new(sweeps: &'a [Sweep]) -> Cells<'a> {
        let cells = sweeps.iter().flat_map(|s| &s.cells);
        let reports = cells
            .map(|c| (config_digest(&c.report.config), &c.report))
            .collect();
        Cells { reports }
    }

    /// The run of `spec`'s cell `a`: the one whose config is what the
    /// panel builds for it, prepared as `harness` prepares every run.
    fn get(&self, harness: &Harness, spec: &FigureSpec, a: At) -> Result<&'a BenchReport, Error> {
        let At(panel, gib, ic) = a;
        let size = harness.shuffle(ByteSize::from_gib(gib));
        let config = harness.prep((spec.panels[panel].config)(size, ic));
        let report = self.reports.get(&config_digest(&config)).copied();
        // Only a resume-store fragment whose report is not the config
        // its key names can miss here.
        report.ok_or_else(|| Error::parse(spec.name, format!("no run matches {a:?}")))
    }

    fn measure(&self, harness: &Harness, spec: &FigureSpec, q: Quantity) -> Result<f64, Error> {
        // As `Sweep::time`: a succeeded run with a positive job time.
        // Figure configs inject no faults, so only a watchdog fails one.
        let time = |a: At| {
            let r = self.get(harness, spec, a)?;
            let t = r.job_time_secs();
            if r.result.succeeded() && t > 0.0 {
                return Ok(t);
            }
            let why = r.result.budget.as_ref().map(|d| d.summary());
            Err(Error::Budget(
                why.unwrap_or(format!("{}: {a:?} failed", spec.name)),
            ))
        };
        Ok(match q {
            Time(a) => time(a)?,
            Gain(slow, fast) => {
                let (s, f) = (time(slow)?, time(fast)?);
                (s - f) / s * 100.0
            }
            Ratio(a, b) => time(a)? / time(b)?,
            Read(a, read) => read(self.get(harness, spec, a)?),
        })
    }
}

/// Every figure with claims, in the paper's order.
pub(crate) static FIGURES: [&FigureSpec; 7] = [&FIG2, &FIG3, &FIG4, &FIG5, &FIG6, &FIG7, &FIG8];

/// The `summary` binary: re-run each figure's headline cells at one size
/// and write every claim as a paper-vs-measured Markdown table.
pub(crate) fn summary(harness: &mut Harness) -> Result<(), Error> {
    let mut sweeps = Vec::new();
    for spec in FIGURES {
        let size = [harness.shuffle(ByteSize::from_gib(spec.summary_gib))];
        for &(panel, networks, title) in spec.summary {
            let sweep = run_grid(harness, &size, networks, spec.panels[panel].config)?;
            spec.record(harness, title, &sweep);
            sweeps.push(sweep);
        }
    }
    let cells = Cells::new(&sweeps);
    let head = "| Experiment | Quantity | Paper | Measured | Δ |\n|---|---|---:|---:|---:|\n";
    harness.text.push_str(head);
    for spec in FIGURES {
        for claim in spec.claims {
            let ((exp, what, unit), paper) = (claim.row, claim.paper);
            let measured = cells.measure(harness, spec, claim.measured)?;
            let delta = if paper != 0.0 {
                format!("{:+.0}%", (measured - paper) / paper * 100.0)
            } else {
                "-".into()
            };
            let _ = writeln!(
                harness.text,
                "| {exp} | {what} | {paper:.1} {unit} | {measured:.1} {unit} | {delta} |"
            );
        }
    }
    if harness.quick {
        harness.text.push('\n');
        harness.note_quick();
    }
    Ok(())
}

/// Figure 2: job time for the three data distribution patterns on
/// Cluster A (MRv1). Sect. 5.2: 16 maps / 8 reduces on 4 slaves, 1 KiB
/// `BytesWritable` pairs, 8–32 GB, 1 GigE vs 10 GigE vs IPoIB QDR.
pub static FIG2: FigureSpec = FigureSpec {
    name: "fig2",
    figure: "Figure 2",
    caption: "Job execution time for different data distribution patterns on Cluster A",
    panels: &[
        Panel {
            title: "Fig 2(a) MR-AVG — 16 maps / 8 reduces on 4 slaves, 1 KiB k/v",
            config: |s, ic| BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, s),
        },
        Panel {
            title: "Fig 2(b) MR-RAND — 16 maps / 8 reduces on 4 slaves, 1 KiB k/v",
            config: |s, ic| BenchConfig::cluster_a_default(MicroBenchmark::Rand, ic, s),
        },
        Panel {
            title: "Fig 2(c) MR-SKEW — 16 maps / 8 reduces on 4 slaves, 1 KiB k/v",
            config: |s, ic| BenchConfig::cluster_a_default(MicroBenchmark::Skew, ic, s),
        },
    ],
    claims: &[
        Claim {
            row: ("Fig 2(a)", "MR-AVG: 10GigE gain over 1GigE", "%"),
            paper: claims::AVG_10GIGE_IMPROVEMENT_PCT,
            measured: Gain(At(0, 16, GigE1), At(0, 16, GigE10)),
            check: Some(("MR-AVG: 10GigE improvement over 1GigE (%)", 0.35)),
        },
        Claim {
            row: ("Fig 2(a)", "MR-AVG: IPoIB QDR gain over 1GigE", "%"),
            paper: claims::AVG_IPOIB_IMPROVEMENT_PCT,
            measured: Gain(At(0, 16, GigE1), At(0, 16, IpoibQdr)),
            check: Some(("MR-AVG: IPoIB QDR improvement over 1GigE (%)", 0.35)),
        },
        Claim {
            row: ("Fig 2(b)", "MR-RAND: 10GigE gain over 1GigE", "%"),
            paper: claims::RAND_10GIGE_IMPROVEMENT_PCT,
            measured: Gain(At(1, 16, GigE1), At(1, 16, GigE10)),
            check: Some(("MR-RAND: 10GigE improvement over 1GigE (%)", 0.35)),
        },
        Claim {
            row: ("Fig 2(b)", "MR-RAND: IPoIB QDR gain over 1GigE", "%"),
            paper: claims::RAND_IPOIB_IMPROVEMENT_PCT,
            measured: Gain(At(1, 16, GigE1), At(1, 16, IpoibQdr)),
            check: Some(("MR-RAND: IPoIB QDR improvement over 1GigE (%)", 0.35)),
        },
        Claim {
            row: ("Fig 2(c)", "MR-SKEW: IPoIB QDR gain over 1GigE", "%"),
            paper: claims::SKEW_IMPROVEMENT_PCT,
            measured: Gain(At(2, 16, GigE1), At(2, 16, IpoibQdr)),
            check: None,
        },
        Claim {
            row: ("Fig 2(c)", "MR-SKEW / MR-AVG job-time factor (IPoIB)", "x"),
            paper: claims::SKEW_VS_AVG_FACTOR_MRV1,
            measured: Ratio(At(2, 16, IpoibQdr), At(0, 16, IpoibQdr)),
            check: Some(("MR-SKEW: job time vs MR-AVG at 16 GB (factor, IPoIB)", 0.35)),
        },
    ],
    checks: &[Check {
        inputs: &[
            Gain(At(0, 8, GigE1), At(0, 8, IpoibQdr)),
            Gain(At(0, 32, GigE1), At(0, 32, IpoibQdr)),
        ],
        verdict: |v| {
            let text = format!(
                "IPoIB improvement grows (or holds) with shuffle size: {:.1}% @8GB -> {:.1}% @32GB",
                v[0], v[1]
            );
            Verdict::check(v[1] >= v[0] - 3.0, text)
        },
    }],
    summary: &[
        (0, &CLUSTER_A_NETWORKS, "Fig 2 MR-AVG (MRv1, Cluster A)"),
        (1, &CLUSTER_A_NETWORKS, "Fig 2 MR-RAND (MRv1, Cluster A)"),
        (2, &CLUSTER_A_NETWORKS, "Fig 2 MR-SKEW (MRv1, Cluster A)"),
    ],
    ..BASE
};

/// Figure 3: the three patterns on Hadoop NextGen (YARN). Sect. 5.2: 32
/// maps / 16 reduces on 8 slaves of Cluster A, 1 KiB pairs.
pub static FIG3: FigureSpec = FigureSpec {
    name: "fig3",
    figure: "Figure 3",
    caption: "Job execution time with different patterns for the YARN architecture on Cluster A",
    panels: &[
        Panel {
            title: "Fig 3(a) MR-AVG — YARN, 32 maps / 16 reduces on 8 slaves",
            config: |s, ic| BenchConfig::yarn_default(MicroBenchmark::Avg, ic, s),
        },
        Panel {
            title: "Fig 3(b) MR-RAND — YARN, 32 maps / 16 reduces on 8 slaves",
            config: |s, ic| BenchConfig::yarn_default(MicroBenchmark::Rand, ic, s),
        },
        Panel {
            title: "Fig 3(c) MR-SKEW — YARN, 32 maps / 16 reduces on 8 slaves",
            config: |s, ic| BenchConfig::yarn_default(MicroBenchmark::Skew, ic, s),
        },
    ],
    claims: &[
        Claim {
            row: ("Fig 3(a)", "YARN MR-AVG: 10GigE gain over 1GigE", "%"),
            paper: claims::YARN_AVG_10GIGE_PCT,
            measured: Gain(At(0, 16, GigE1), At(0, 16, GigE10)),
            check: Some(("YARN MR-AVG: 10GigE improvement over 1GigE (%)", 0.6)),
        },
        Claim {
            row: ("Fig 3(a)", "YARN MR-AVG: IPoIB gain over 1GigE", "%"),
            paper: claims::YARN_AVG_IPOIB_PCT,
            measured: Gain(At(0, 16, GigE1), At(0, 16, IpoibQdr)),
            check: Some(("YARN MR-AVG: IPoIB improvement over 1GigE (%)", 0.6)),
        },
        Claim {
            row: ("Fig 3(c)", "YARN MR-SKEW / MR-AVG factor (IPoIB)", "x"),
            paper: claims::SKEW_VS_AVG_FACTOR_YARN,
            measured: Ratio(At(2, 16, IpoibQdr), At(0, 16, IpoibQdr)),
            check: Some(("YARN MR-SKEW: job time vs MR-AVG (factor, IPoIB)", 0.4)),
        },
    ],
    extra: Some(doubling_the_cluster),
    summary: &[
        (0, &CLUSTER_A_NETWORKS, "Fig 3 MR-AVG (YARN, Cluster A)"),
        (2, &[IpoibQdr], "Fig 3 MR-SKEW (YARN, Cluster A)"),
    ],
    ..BASE
};

/// Sect. 5.2: "increasing cluster size and concurrency significantly
/// benefits average and random data distribution patterns" — Fig. 3(a)
/// against the 4-slave Fig. 2(a) cell of the same size.
fn doubling_the_cluster(harness: &Harness, fig3: &Cells<'_>) -> Result<Verdict, Error> {
    let avg = Time(At(0, 16, IpoibQdr));
    let at = [ByteSize::from_gib(16)];
    let fig2 = [run_grid(harness, &at, &[IpoibQdr], FIG2.panels[0].config)?];
    let t_fig2 = Cells::new(&fig2).measure(harness, &FIG2, avg)?;
    let t_fig3 = fig3.measure(harness, &FIG3, avg)?;
    let text = format!(
        "doubling the cluster speeds up MR-AVG: {t_fig2:.1}s (4 slaves) -> {t_fig3:.1}s (8 slaves)"
    );
    Ok(Verdict::check(t_fig3 < t_fig2, text))
}

/// MR-AVG on Cluster A with `kv`-byte keys and values (Fig. 4).
fn kv_config(kv: usize, shuffle: ByteSize, ic: Interconnect) -> BenchConfig {
    let mut c = BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, shuffle);
    c.key_size = kv;
    c.value_size = kv;
    c
}

/// Figure 4: MR-AVG job time by key/value pair size. Sect. 5.2: 16
/// maps / 8 reduces on 4 slaves of Cluster A, `BytesWritable` pairs of
/// 100 B, 1 KiB and 10 KiB.
pub static FIG4: FigureSpec = FigureSpec {
    name: "fig4",
    figure: "Figure 4",
    caption: "Job execution time with MR-AVG for different key/value pair sizes on Cluster A",
    panels: &[
        Panel {
            title: "Fig 4(a) MR-AVG with key/value size of 100 bytes",
            config: |s, ic| kv_config(100, s, ic),
        },
        Panel {
            title: "Fig 4(b) MR-AVG with key/value size of 1 KB",
            config: |s, ic| kv_config(1024, s, ic),
        },
        Panel {
            title: "Fig 4(c) MR-AVG with key/value size of 10 KB",
            config: |s, ic| kv_config(10240, s, ic),
        },
    ],
    claims: &[
        Claim {
            row: ("Fig 4(a)", "16 GB / IPoIB / 100 B k/v job time", "s"),
            paper: ANCHOR_IPOIB_16GB_100B_SECS,
            measured: Time(At(0, 16, IpoibQdr)),
            check: Some(("16 GB / IPoIB / 100 B k/v job time (s)", 0.25)),
        },
        Claim {
            row: (
                "Fig 4(b)",
                "16 GB / IPoIB / 1 KB k/v job time (anchor)",
                "s",
            ),
            paper: ANCHOR_IPOIB_16GB_1KB_SECS,
            measured: Time(At(1, 16, IpoibQdr)),
            check: Some((
                "16 GB / IPoIB / 1 KB k/v job time (s) [calibration anchor]",
                0.15,
            )),
        },
    ],
    checks: &[Check {
        inputs: &[
            Time(At(0, 16, IpoibQdr)),
            Time(At(1, 16, IpoibQdr)),
            Time(At(2, 16, IpoibQdr)),
        ],
        verdict: |v| {
            let text = format!(
                "larger key/value pairs lower job time at fixed volume: {:.1}s (100B) > {:.1}s (1KB) > {:.1}s (10KB)",
                v[0], v[1], v[2]
            );
            Verdict::check(v[0] > v[1] && v[1] > v[2], text)
        },
    }],
    summary: &[(0, &[IpoibQdr], "Fig 4 MR-AVG with 100 B k/v")],
    ..BASE
};

/// MR-AVG on Cluster A with other task counts (Fig. 5).
fn tasks_config(maps: u32, reduces: u32, shuffle: ByteSize, ic: Interconnect) -> BenchConfig {
    let mut c = BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, shuffle);
    c.num_maps = maps;
    c.num_reduces = reduces;
    // Re-derive pairs for the new task counts.
    c.volume = ShuffleVolume::TotalBytes(shuffle);
    c
}

/// Fig. 5's "doubling tasks helps" line, from one interconnect's 4M-2R
/// and 8M-4R job times at 32 GB.
fn doubling_tasks(v: &[f64], network: &str, paper: f64) -> Verdict {
    let (t42, t84) = (v[0], v[1]);
    let gain = (t42 - t84) / t42 * 100.0;
    let text = format!(
        "doubling tasks helps {network} at 32 GB: paper ~{paper:.0}%, measured {gain:.1}% ({t42:.1}s -> {t84:.1}s)"
    );
    Verdict::check(gain > 0.0, text)
}

/// Figure 5: MR-AVG job time by number of maps and reduces. Sect. 5.2:
/// 4 slaves of Cluster A, 1 KiB pairs, 4 maps + 2 reduces (4M-2R)
/// against 8M-4R over 10 GigE and IPoIB QDR.
pub static FIG5: FigureSpec = FigureSpec {
    name: "fig5",
    figure: "Figure 5",
    caption: "Job execution time with varying number of maps and reduces on Cluster A",
    networks: &[GigE10, IpoibQdr],
    panels: &[
        Panel {
            title: "Fig 5 MR-AVG with 4M-2R",
            config: |s, ic| tasks_config(4, 2, s, ic),
        },
        Panel {
            title: "Fig 5 MR-AVG with 8M-4R",
            config: |s, ic| tasks_config(8, 4, s, ic),
        },
    ],
    layout: Layout::Tables,
    checks: &[
        // "IPoIB (32 Gbps) outperforms 10GigE, by about 13%."
        Check {
            inputs: &[
                Gain(At(0, 32, GigE10), At(0, 32, IpoibQdr)),
                Gain(At(1, 32, GigE10), At(1, 32, IpoibQdr)),
            ],
            verdict: |v| {
                Verdict::info(format!(
                    "IPoIB gain over 10GigE at 32 GB: {:.1}% (4M-2R), {:.1}% (8M-4R) — paper ~13%",
                    v[0], v[1]
                ))
            },
        },
        // "increasing the number of map and reduce tasks improved the
        // performance of the MapReduce job by about 32% for IPoIB, while
        // it improved by only 24% for 10GigE, for a shuffle data size of
        // 32GB."
        Check {
            inputs: &[Time(At(0, 32, IpoibQdr)), Time(At(1, 32, IpoibQdr))],
            verdict: |v| doubling_tasks(v, "IPoIB (32Gbps)", 32.0),
        },
        Check {
            inputs: &[Time(At(0, 32, GigE10)), Time(At(1, 32, GigE10))],
            verdict: |v| doubling_tasks(v, "10GigE", 24.0),
        },
        // The qualitative claim: concurrency helps the faster network more.
        Check {
            inputs: &[
                Time(At(0, 32, IpoibQdr)),
                Time(At(1, 32, IpoibQdr)),
                Time(At(0, 32, GigE10)),
                Time(At(1, 32, GigE10)),
            ],
            verdict: |v| {
                let help_ipoib = (v[0] - v[1]) / v[0];
                let help_10g = (v[2] - v[3]) / v[2];
                let text = format!(
                    "concurrency gains are at least as large on IPoIB as on 10GigE: {:.1}% vs {:.1}%",
                    help_ipoib * 100.0,
                    help_10g * 100.0
                );
                Verdict::check(help_ipoib >= help_10g - 0.03, text)
            },
        },
    ],
    ..BASE
};

/// MR-RAND on Cluster A with data type `dt` (Fig. 6).
fn data_type_config(dt: DataType, shuffle: ByteSize, ic: Interconnect) -> BenchConfig {
    let mut c = BenchConfig::cluster_a_default(MicroBenchmark::Rand, ic, shuffle);
    c.data_type = dt;
    c
}

/// Fig. 6's line for one data type, from its 10GigE and IPoIB gains
/// over 1GigE at 64 GB.
fn data_type_gains(v: &[f64], dt: DataType) -> Verdict {
    Verdict::info(format!(
        "{dt} at 64 GB: 10GigE {:.1}% (paper ~23-25%), IPoIB {:.1}% (paper up to ~28%)",
        v[0], v[1]
    ))
}

/// Figure 6: MR-RAND with `BytesWritable` vs `Text`. Sect. 5.2: 16 maps
/// / 8 reduces on 4 slaves of Cluster A, 1 KiB pairs, "as we scale up to
/// 64 GB".
pub static FIG6: FigureSpec = FigureSpec {
    name: "fig6",
    figure: "Figure 6",
    caption: "Job execution time with BytesWritable and Text data types on Cluster A",
    sizes: &[16, 32, 48, 64],
    panels: &[
        Panel {
            title: "Fig 6(a) MR-RAND with BytesWritable",
            config: |s, ic| data_type_config(DataType::BytesWritable, s, ic),
        },
        Panel {
            title: "Fig 6(b) MR-RAND with Text",
            config: |s, ic| data_type_config(DataType::Text, s, ic),
        },
    ],
    // "job execution time decreases around 23-25% ... 10GigE ... up to
    //  28% ... IPoIB" — both types see similar gains from fast networks.
    checks: &[
        Check {
            inputs: &[
                Gain(At(0, 64, GigE1), At(0, 64, GigE10)),
                Gain(At(0, 64, GigE1), At(0, 64, IpoibQdr)),
            ],
            verdict: |v| data_type_gains(v, DataType::BytesWritable),
        },
        Check {
            inputs: &[
                Gain(At(1, 64, GigE1), At(1, 64, GigE10)),
                Gain(At(1, 64, GigE1), At(1, 64, IpoibQdr)),
            ],
            verdict: |v| data_type_gains(v, DataType::Text),
        },
        Check {
            inputs: &[
                Gain(At(0, 64, GigE1), At(0, 64, IpoibQdr)),
                Gain(At(1, 64, GigE1), At(1, 64, IpoibQdr)),
            ],
            verdict: |v| {
                let text = format!(
                    "high-speed interconnects help both data types similarly: {:.1}% (BytesWritable) vs {:.1}% (Text)",
                    v[0], v[1]
                );
                Verdict::check((v[0] - v[1]).abs() < 6.0, text)
            },
        },
        // Text's smaller framing means slightly less materialized data,
        // so it should never be meaningfully slower at equal payload.
        Check {
            inputs: &[Time(At(0, 64, IpoibQdr)), Time(At(1, 64, IpoibQdr))],
            verdict: |v| {
                let (b, t) = (v[0], v[1]);
                Verdict::info(format!(
                    "64 GB / IPoIB: BytesWritable {b:.1}s vs Text {t:.1}s"
                ))
            },
        },
    ],
    ..BASE
};

/// The slave Fig. 7 plots.
const NODE: usize = 0;

/// Mean CPU utilization (%) of the plotted slave.
fn mean_cpu(r: &BenchReport) -> f64 {
    r.cpu_series(NODE).and_then(TimeSeries::mean).unwrap_or(0.0)
}

/// The samples of one of a report's per-slave series.
type Series = fn(&BenchReport, usize) -> Option<&TimeSeries>;

fn samples(r: &BenchReport, series: Series) -> impl Iterator<Item = f64> + '_ {
    let samples = series(r, NODE).map_or(&[][..], TimeSeries::samples);
    samples.iter().map(|s| s.value)
}

/// Fig. 7's two plots as text: every 5th one-second sample of the
/// plotted slave's series (full resolution is in the artifact).
fn utilization_series(text: &mut String, sweeps: &[Sweep]) {
    let stride = 5;
    let plots: [(&str, Series); 2] = [
        ("Fig 7(a) CPU utilization (%)", BenchReport::cpu_series),
        (
            "Fig 7(b) network throughput (MB/s received)",
            BenchReport::rx_series,
        ),
    ];
    for (plot, series) in plots {
        let _ = writeln!(text, "{plot}, slave {NODE}, every {stride}th second:");
        for cell in &sweeps[0].cells {
            let _ = write!(text, "{:>16}", cell.interconnect.label());
            for v in samples(&cell.report, series).step_by(stride) {
                let _ = write!(text, " {v:>5.0}");
            }
            text.push('\n');
        }
        text.push('\n');
    }
}

/// Figure 7: resource utilization on one slave during MR-AVG. Sect.
/// 5.2: 16 GB, 1 KiB pairs, 16 maps / 8 reduces on 4 slaves; (a) plots
/// CPU % per second, (b) MB received per second, on the same slave.
pub static FIG7: FigureSpec = FigureSpec {
    name: "fig7",
    figure: "Figure 7",
    caption: "Resource utilization on one slave node for MR-AVG (16 GB) on Cluster A",
    sizes: &[16],
    panels: &[Panel {
        title: "Fig 7 MR-AVG utilization",
        config: |s, ic| BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, s),
    }],
    layout: Layout::Reports,
    claims: &[
        Claim {
            row: ("Fig 7(b)", "peak rx throughput, 1GigE", "MB/s"),
            paper: claims::PEAK_RX_MBPS_GIGE1,
            measured: Read(At(0, 16, GigE1), BenchReport::peak_rx_mbps),
            check: Some(("peak rx on 1GigE (MB/s)", 0.2)),
        },
        Claim {
            row: ("Fig 7(b)", "peak rx throughput, 10GigE", "MB/s"),
            paper: claims::PEAK_RX_MBPS_GIGE10,
            measured: Read(At(0, 16, GigE10), BenchReport::peak_rx_mbps),
            check: Some(("peak rx on 10GigE (MB/s)", 0.25)),
        },
        Claim {
            row: ("Fig 7(b)", "peak rx throughput, IPoIB QDR", "MB/s"),
            paper: claims::PEAK_RX_MBPS_IPOIB,
            measured: Read(At(0, 16, IpoibQdr), BenchReport::peak_rx_mbps),
            check: Some(("peak rx on IPoIB QDR (MB/s)", 0.25)),
        },
    ],
    checks: &[
        // "CPU utilization trends of 10GigE and IPoIB are similar to that
        //  of 1GigE": compare mean CPU% over the job.
        Check {
            inputs: &[
                Read(At(0, 16, GigE1), mean_cpu),
                Read(At(0, 16, GigE10), mean_cpu),
                Read(At(0, 16, IpoibQdr), mean_cpu),
            ],
            verdict: |v| {
                let spread = v.iter().fold(0.0f64, |a, &b| a.max(b))
                    - v.iter().fold(f64::INFINITY, |a, &b| a.min(b));
                let text = format!(
                    "CPU trends similar across networks: mean CPU {:.0}% / {:.0}% / {:.0}% (spread {:.0} pts)",
                    v[0], v[1], v[2], spread
                );
                Verdict::check(spread < 20.0, text)
            },
        },
        // Sanity: the byte integral of the rx series matches what the
        // node actually received.
        Check {
            inputs: &[
                Read(At(0, 16, IpoibQdr), |r| {
                    samples(r, BenchReport::rx_series).sum()
                }),
                Read(At(0, 16, IpoibQdr), |r| {
                    r.result.counters.remote_shuffle_bytes as f64 / 1e6 / r.config.slaves as f64
                }),
            ],
            verdict: |v| {
                Verdict::info(format!(
                    "slave {NODE} received ~{:.0} MB over the job (cluster-wide remote shuffle / slaves = {:.0} MB)",
                    v[0], v[1]
                ))
            },
        },
    ],
    show: Some(utilization_series),
    summary: &[(0, &CLUSTER_A_NETWORKS, "Fig 7 utilization")],
    ..BASE
};

/// Figure 8: the RDMA case study on Cluster B (TACC Stampede, FDR
/// InfiniBand). Sect. 6: MR-AVG, 32 maps / 16 reduces, 1 KiB pairs, on
/// 8 and 16 slaves, Hadoop over IPoIB (56 Gbps) against MRoIB.
pub static FIG8: FigureSpec = FigureSpec {
    name: "fig8",
    figure: "Figure 8",
    caption: "MR-AVG with IPoIB vs RDMA (MRoIB) on Cluster B (56 Gbps FDR)",
    networks: &CLUSTER_B,
    panels: &[
        Panel {
            title: "Fig 8(a) MR-AVG with 8 slave nodes",
            config: |s, ic| BenchConfig::cluster_b_case_study(ic, s, 8),
        },
        Panel {
            title: "Fig 8(b) MR-AVG with 16 slave nodes",
            config: |s, ic| BenchConfig::cluster_b_case_study(ic, s, 16),
        },
    ],
    layout: Layout::Tables,
    claims: &[
        Claim {
            row: ("Fig 8(a)", "MRoIB gain over IPoIB FDR, 8 slaves", "%"),
            paper: claims::RDMA_IMPROVEMENT_8SLAVES_PCT,
            measured: Gain(At(0, 32, IpoibFdr), At(0, 32, RdmaFdr)),
            check: Some(("MRoIB improvement over IPoIB FDR, 8 slaves (%)", 0.45)),
        },
        Claim {
            row: ("Fig 8(b)", "MRoIB gain over IPoIB FDR, 16 slaves", "%"),
            paper: claims::RDMA_IMPROVEMENT_16SLAVES_PCT,
            measured: Gain(At(1, 32, IpoibFdr), At(1, 32, RdmaFdr)),
            check: Some(("MRoIB improvement over IPoIB FDR, 16 slaves (%)", 0.45)),
        },
    ],
    // "RDMA-enhanced MapReduce outperforms IPoIB ... even on a larger
    //  cluster": the advantage persists at every size and both scales.
    checks: &[Check {
        inputs: &[
            Gain(At(0, 8, IpoibFdr), At(0, 8, RdmaFdr)),
            Gain(At(0, 16, IpoibFdr), At(0, 16, RdmaFdr)),
            Gain(At(0, 24, IpoibFdr), At(0, 24, RdmaFdr)),
            Gain(At(0, 32, IpoibFdr), At(0, 32, RdmaFdr)),
            Gain(At(1, 8, IpoibFdr), At(1, 8, RdmaFdr)),
            Gain(At(1, 16, IpoibFdr), At(1, 16, RdmaFdr)),
            Gain(At(1, 24, IpoibFdr), At(1, 24, RdmaFdr)),
            Gain(At(1, 32, IpoibFdr), At(1, 32, RdmaFdr)),
        ],
        verdict: |v| {
            let text = "RDMA wins at every shuffle size on both cluster scales";
            Verdict::check(!v.iter().any(|&g| g <= 0.0), text.into())
        },
    }],
    summary: &[
        (0, &CLUSTER_B, "Fig 8 MR-AVG, 8 slaves (Cluster B)"),
        (1, &CLUSTER_B, "Fig 8 MR-AVG, 16 slaves (Cluster B)"),
    ],
    summary_gib: 32,
    ..BASE
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn harness(quick: bool) -> Harness {
        let args = if quick {
            vec!["--quick".to_string()]
        } else {
            vec![]
        };
        Harness::parse("test", "usage", &args, crate::figure_flag).unwrap()
    }

    /// The cells a quantity reads.
    fn reads(q: &Quantity) -> Vec<At> {
        match *q {
            Time(a) | Read(a, _) => vec![a],
            Gain(a, b) | Ratio(a, b) => vec![a, b],
        }
    }

    /// Digest of the config `Cells::get` looks up for `spec`'s cell `a`.
    fn lookup(h: &Harness, spec: &FigureSpec, At(panel, gib, ic): At) -> String {
        let size = h.shuffle(ByteSize::from_gib(gib));
        config_digest(&h.prep((spec.panels[panel].config)(size, ic)))
    }

    /// Digests of every cell of one panel's grid, as a figure run builds it.
    fn grid(h: &Harness, spec: &FigureSpec, panel: &Panel) -> BTreeSet<String> {
        let mut cells = BTreeSet::new();
        for size in spec.sizes(h) {
            for &ic in spec.networks {
                cells.insert(config_digest(&h.prep((panel.config)(size, ic))));
            }
        }
        cells
    }

    #[test]
    fn every_claim_reads_a_cell_of_its_figures_grid() {
        // Paper scale only: the figure binaries skip claims under --quick.
        let h = harness(false);
        for spec in FIGURES {
            let checked = spec.claims.iter().filter(|c| c.check.is_some());
            let quantities = checked
                .map(|c| &c.measured)
                .chain(spec.checks.iter().flat_map(|c| c.inputs));
            for q in quantities {
                for a in reads(q) {
                    assert!(a.0 < spec.panels.len(), "{}: {q:?}", spec.name);
                    let panel = &spec.panels[a.0];
                    assert!(
                        grid(&h, spec, panel).contains(&lookup(&h, spec, a)),
                        "{}: {q:?} reads {a:?}, off the grid of '{}'",
                        spec.name,
                        panel.title
                    );
                }
            }
        }
    }

    #[test]
    fn every_figure_and_rack_shape_keeps_its_shuffle_plan_far_below_the_bound() {
        let h = harness(false);
        let mut shapes = BTreeSet::new();
        for spec in FIGURES {
            for panel in spec.panels {
                for size in spec.sizes(&h) {
                    for &ic in spec.networks {
                        let c = h.prep((panel.config)(size, ic));
                        shapes.insert((c.num_maps, c.num_reduces));
                    }
                }
            }
        }
        // mrperf's `rack_shuffle` cells: 4 maps and 1 reduce per slave,
        // up to 48 slaves.
        shapes.insert((4 * 48, 48));
        for (maps, reduces) in shapes {
            let entries = u64::from(maps) * u64::from(reduces);
            assert!(
                entries <= mapreduce::shuffle::PLAN_LIMIT >> 10,
                "{maps} maps x {reduces} reduces"
            );
        }
    }

    #[test]
    fn summary_runs_figure_cells_and_every_claim_reads_one() {
        for quick in [false, true] {
            let h = harness(quick);
            let mut figure_cells = BTreeSet::new();
            let mut summary = BTreeSet::new();
            for spec in FIGURES {
                for panel in spec.panels {
                    figure_cells.extend(grid(&h, spec, panel));
                }
                for &(panel, networks, title) in spec.summary {
                    assert!(panel < spec.panels.len(), "{}: {title}", spec.name);
                    for &ic in networks {
                        summary.insert(lookup(&h, spec, At(panel, spec.summary_gib, ic)));
                    }
                }
            }
            // Fig. 7's summary cells are Fig. 2(a)'s.
            assert_eq!(summary.len(), 18, "quick={quick}");
            let stray: Vec<_> = summary.difference(&figure_cells).collect();
            assert!(stray.is_empty(), "quick={quick}: in no figure: {stray:?}");
            for spec in FIGURES {
                for claim in spec.claims {
                    for a in reads(&claim.measured) {
                        assert!(
                            summary.contains(&lookup(&h, spec, a)),
                            "quick={quick}: summary has no run for {} {a:?}",
                            spec.name
                        );
                    }
                }
            }
        }
    }
}
