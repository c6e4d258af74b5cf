//! Parameter sweeps: run a family of configurations and tabulate job
//! execution times, as every figure in the paper does.
//!
//! [`run_cells`] runs a list of configs as cells across OS threads;
//! [`Sweep::run_grid`] runs a (size × interconnect) grid of them. Each
//! cell is an independent simulation — it builds its own engine, RNG
//! streams, and monitors from the config seed — so parallel execution
//! produces **bit-identical** per-cell results to running the cells one
//! after another, in the same order (pinned by a test). The thread
//! count is the process's budget, [`mapreduce::threads::budget`]: the
//! `MRBENCH_THREADS` environment variable when set, else
//! [`std::thread::available_parallelism`]. The same budget caps the
//! helper threads that draw each job's shuffle plan.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use simcore::units::ByteSize;
use simnet::Interconnect;

use crate::config::BenchConfig;
use crate::error::Error;
use crate::report::BenchReport;
use crate::runner::run;
use crate::store::{config_digest, ResultStore};

/// Knobs for [`run_cells`] and [`Sweep::run_grid_with`].
#[derive(Clone, Copy, Default)]
pub struct SweepOptions<'a> {
    /// Worker threads; `0` means auto ([`mapreduce::threads::budget`]:
    /// [`std::thread::available_parallelism`], overridden by
    /// `MRBENCH_THREADS`).
    pub threads: usize,
    /// Consult (and fill) this content-addressed store: cells whose
    /// config digest already has a fragment are loaded instead of run,
    /// and freshly run cells are persisted the moment they finish — the
    /// checkpointing that makes a killed sweep resumable.
    pub store: Option<&'a ResultStore>,
    /// Cooperative cancellation, polled between cells. When it returns
    /// true, no new cells start and the sweep fails with
    /// [`Error::Deadline`]; completed cells are already in the store.
    pub cancel: Option<&'a (dyn Fn() -> bool + Sync)>,
}

impl std::fmt::Debug for SweepOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepOptions")
            .field("threads", &self.threads)
            .field("store", &self.store.map(|s| s.dir().to_path_buf()))
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

/// Run one cell, going through the store when one is configured. Traced
/// configs bypass the cache: fragments do not persist span streams, so a
/// cache hit would silently drop the trace the caller asked for. The
/// store counts them, so its report can say why it served nothing.
fn run_cell(config: &BenchConfig, store: Option<&ResultStore>) -> Result<BenchReport, Error> {
    let digest = match store {
        Some(store) if config.trace => {
            store.note_bypass();
            None
        }
        Some(_) => Some(config_digest(config)),
        None => None,
    };
    if let (Some(store), Some(d)) = (store, &digest) {
        if let Some(report) = store.get(d) {
            return Ok(report);
        }
    }
    let report = run(config)?;
    if let (Some(store), Some(d)) = (store, &digest) {
        store.put(d, &report)?;
    }
    Ok(report)
}

/// Run every config as a cell, farming them across threads: one report
/// per config, in order, each bit-identical to a serial run. With a
/// store, a cell whose digest has a fragment is loaded instead of run
/// and a fresh one is persisted the moment it finishes; a cancel stops
/// the run at a cell boundary with [`Error::Deadline`]. Errors surface
/// in config order, as a serial run would meet them.
pub fn run_cells(
    configs: &[BenchConfig],
    opts: &SweepOptions<'_>,
) -> Result<Vec<BenchReport>, Error> {
    let threads = match opts.threads {
        0 => mapreduce::threads::budget(),
        n => n,
    };
    let workers = threads.clamp(1, configs.len().max(1));
    let cancelled = || opts.cancel.is_some_and(|c| c());

    // Work-stealing over a shared cell index; finished cells are
    // written back into their slot. `workers == 1` runs the same claim
    // loop on the calling thread, so the store and cancel semantics are
    // identical at every thread count.
    let next = AtomicUsize::new(0);
    let slots = Mutex::new(Vec::from_iter(configs.iter().map(|_| None)));
    // Workers past the first keep the shuffle plan's draw helpers off
    // their cores; a worker out of cells gives its core back, so the
    // sweep's last cells draw on the cores it leaves idle.
    let busy = mapreduce::threads::occupy(workers - 1);
    let work = || {
        loop {
            // Poll cancellation before claiming, so an expired deadline
            // stops the run at a cell boundary with everything finished
            // so far already persisted.
            if cancelled() {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(config) = configs.get(i) else {
                break;
            };
            let outcome = run_cell(config, opts.store);
            slots.lock().expect("a cell worker panicked")[i] = Some(outcome);
        }
        busy.release_one();
    };
    if workers == 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        });
    }

    let slots = slots.into_inner().expect("a cell worker panicked");
    // Only cancellation leaves unclaimed slots.
    let (completed, total) = (slots.iter().flatten().count(), configs.len());
    if completed < total {
        return Err(Error::Deadline { completed, total });
    }
    slots.into_iter().flatten().collect()
}

/// One cell of a sweep: a configuration and its result.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Shuffle size of this cell.
    pub shuffle: ByteSize,
    /// Interconnect of this cell.
    pub interconnect: Interconnect,
    /// The full report.
    pub report: BenchReport,
}

/// A (shuffle size × interconnect) sweep of one micro-benchmark: exactly
/// the grid each panel of Figs. 2–6 plots.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Row labels.
    pub sizes: Vec<ByteSize>,
    /// Column labels.
    pub interconnects: Vec<Interconnect>,
    /// Cells in row-major order.
    pub cells: Vec<SweepCell>,
}

impl Sweep {
    /// Run the grid, farming cells across threads. `make` builds the
    /// config for one (size, interconnect) pair, letting callers fix
    /// every other parameter. Cells land in row-major order.
    pub fn run_grid(
        sizes: &[ByteSize],
        interconnects: &[Interconnect],
        make: impl Fn(ByteSize, Interconnect) -> BenchConfig + Sync,
    ) -> Result<Sweep, Error> {
        Sweep::run_grid_with(sizes, interconnects, make, &SweepOptions::default())
    }

    /// The fully-optioned grid runner: worker threads, an optional
    /// content-addressed [`ResultStore`] for crash-safe resume, and an
    /// optional cancellation hook (the bench harness wires a wall-clock
    /// deadline through it), all handed to [`run_cells`].
    pub fn run_grid_with(
        sizes: &[ByteSize],
        interconnects: &[Interconnect],
        make: impl Fn(ByteSize, Interconnect) -> BenchConfig + Sync,
        opts: &SweepOptions<'_>,
    ) -> Result<Sweep, Error> {
        Sweep::run_grid_on(sizes, interconnects, make, |c| run_cells(&c, opts))
    }

    /// Run the grid on `run`, which takes the grid's configs in
    /// row-major order and returns one report per config, in order.
    pub fn run_grid_on(
        sizes: &[ByteSize],
        interconnects: &[Interconnect],
        make: impl Fn(ByteSize, Interconnect) -> BenchConfig,
        run: impl FnOnce(Vec<BenchConfig>) -> Result<Vec<BenchReport>, Error>,
    ) -> Result<Sweep, Error> {
        let pairs = sizes
            .iter()
            .flat_map(|&s| interconnects.iter().map(move |&ic| (s, ic)));
        let pairs: Vec<(ByteSize, Interconnect)> = pairs.collect();
        let reports = run(pairs.iter().map(|&(s, ic)| make(s, ic)).collect())?;
        let cells = pairs.into_iter().zip(reports);
        Ok(Sweep {
            sizes: sizes.to_vec(),
            interconnects: interconnects.to_vec(),
            cells: cells
                .map(|((shuffle, interconnect), report)| SweepCell {
                    shuffle,
                    interconnect,
                    report,
                })
                .collect(),
        })
    }

    /// The cell at (`shuffle`, `ic`), located by row-major index — O(grid
    /// edge), not O(cells), so `table()` stays linear in the cell count.
    pub fn cell(&self, shuffle: ByteSize, ic: Interconnect) -> Option<&SweepCell> {
        let row = self.sizes.iter().position(|&s| s == shuffle)?;
        let col = self.interconnects.iter().position(|&i| i == ic)?;
        self.cells.get(row * self.interconnects.len() + col)
    }

    /// Job time (seconds) for a cell. `None` for unknown labels and for
    /// failed/aborted cells (whose job time measures the abort, not the
    /// benchmark).
    pub fn time(&self, shuffle: ByteSize, ic: Interconnect) -> Option<f64> {
        let cell = self.cell(shuffle, ic)?;
        if !cell.report.result.succeeded() {
            return None;
        }
        let t = cell.report.job_time_secs();
        (t > 0.0).then_some(t)
    }

    /// Relative improvement of `fast` over `slow` at `shuffle`, in
    /// percent (positive when `fast` wins). `None` when either cell
    /// failed or has no meaningful job time, so a failed slow cell can
    /// never divide by zero.
    pub fn improvement_pct(
        &self,
        shuffle: ByteSize,
        slow: Interconnect,
        fast: Interconnect,
    ) -> Option<f64> {
        let s = self.time(shuffle, slow)?;
        let f = self.time(shuffle, fast)?;
        Some((s - f) / s * 100.0)
    }

    /// Render the paper-style table: one row per shuffle size, one column
    /// per interconnect, job time in seconds.
    pub fn table(&self, title: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = write!(out, "{:>12}", "shuffle");
        for ic in &self.interconnects {
            let _ = write!(out, "{:>18}", ic.label());
        }
        let _ = writeln!(out);
        for &size in &self.sizes {
            let _ = write!(out, "{:>12}", size.to_string());
            for &ic in &self.interconnects {
                match self.time(size, ic) {
                    Some(t) => {
                        let _ = write!(out, "{:>16.1} s", t);
                    }
                    None => {
                        let _ = write!(out, "{:>18}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::MicroBenchmark;

    fn tiny(shuffle: ByteSize, ic: Interconnect) -> BenchConfig {
        let mut c = BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, shuffle);
        c.slaves = 2;
        c.num_maps = 4;
        c.num_reduces = 4;
        c
    }

    /// The reference semantics for [`Sweep::run_grid`]: the grid on the
    /// calling thread, one cell at a time, in row-major order.
    fn run_grid_serial(
        sizes: &[ByteSize],
        interconnects: &[Interconnect],
        make: impl Fn(ByteSize, Interconnect) -> BenchConfig,
    ) -> Result<Sweep, Error> {
        let mut cells = Vec::with_capacity(sizes.len() * interconnects.len());
        for &shuffle in sizes {
            for &ic in interconnects {
                let report = run(&make(shuffle, ic))?;
                cells.push(SweepCell {
                    shuffle,
                    interconnect: ic,
                    report,
                });
            }
        }
        Ok(Sweep {
            sizes: sizes.to_vec(),
            interconnects: interconnects.to_vec(),
            cells,
        })
    }

    #[test]
    fn grid_runs_and_tabulates() {
        let sizes = [ByteSize::from_mib(128), ByteSize::from_mib(256)];
        let ics = [Interconnect::GigE1, Interconnect::IpoibQdr];
        let sweep = Sweep::run_grid(&sizes, &ics, tiny).unwrap();
        assert_eq!(sweep.cells.len(), 4);
        for &s in &sizes {
            for &ic in &ics {
                assert!(sweep.time(s, ic).unwrap() > 0.0);
            }
        }
        // Faster network never slower.
        let imp = sweep
            .improvement_pct(
                ByteSize::from_mib(256),
                Interconnect::GigE1,
                Interconnect::IpoibQdr,
            )
            .unwrap();
        assert!(imp >= 0.0, "improvement {imp}");
        let table = sweep.table("test table");
        assert!(table.contains("1GigE"));
        assert!(table.contains("128.00MiB"));
    }

    #[test]
    fn parallel_grid_is_bit_identical_to_serial() {
        let sizes = [ByteSize::from_mib(64), ByteSize::from_mib(128)];
        let ics = [Interconnect::GigE1, Interconnect::IpoibQdr];
        let serial = run_grid_serial(&sizes, &ics, tiny).unwrap();
        let opts = SweepOptions {
            threads: 4,
            ..SweepOptions::default()
        };
        let parallel = Sweep::run_grid_with(&sizes, &ics, tiny, &opts).unwrap();
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (s, p) in serial.cells.iter().zip(&parallel.cells) {
            // Same row-major cell order...
            assert_eq!(s.shuffle, p.shuffle);
            assert_eq!(s.interconnect, p.interconnect);
            // ...and bit-identical results: the JSON encoding is exact
            // (nanosecond times, shortest-round-trip floats), so equal
            // text means equal results down to the last sample.
            assert_eq!(
                s.report.result.to_json().to_compact(),
                p.report.result.to_json().to_compact()
            );
        }
    }

    #[test]
    fn failed_cells_yield_none_not_division_by_zero() {
        let sizes = [ByteSize::from_mib(64)];
        let ics = [Interconnect::GigE1, Interconnect::IpoibQdr];
        let sweep = run_grid_serial(&sizes, &ics, |shuffle, ic| {
            let mut c = tiny(shuffle, ic);
            if ic == Interconnect::GigE1 {
                // Every attempt dies: the 1GigE cell aborts.
                c.faults.map_failure_prob = 1.0;
                c.max_attempts = 2;
            }
            c
        })
        .unwrap();
        assert!(!sweep.cells[0].report.result.succeeded());
        assert_eq!(sweep.time(sizes[0], Interconnect::GigE1), None);
        assert!(sweep.time(sizes[0], Interconnect::IpoibQdr).is_some());
        // The failed cell is the denominator: must be None, not inf/NaN.
        assert_eq!(
            sweep.improvement_pct(sizes[0], Interconnect::GigE1, Interconnect::IpoibQdr),
            None
        );
        // Failed cells render as "-" in the table.
        assert!(sweep.table("t").contains('-'));
        // Unknown labels are None, not a panic.
        assert_eq!(
            sweep.time(ByteSize::from_mib(999), Interconnect::GigE1),
            None
        );
    }

    #[test]
    fn store_backed_grid_hits_the_cache_and_stays_identical() {
        let dir = std::env::temp_dir().join(format!("mrbench-sweep-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let sizes = [ByteSize::from_mib(64)];
        let ics = [Interconnect::GigE1, Interconnect::IpoibQdr];
        let opts = SweepOptions {
            threads: 1,
            store: Some(&store),
            cancel: None,
        };
        let first = Sweep::run_grid_with(&sizes, &ics, tiny, &opts).unwrap();
        assert_eq!(store.stats().0, 0, "cold store has no hits");
        let second = Sweep::run_grid_with(&sizes, &ics, tiny, &opts).unwrap();
        assert_eq!(store.stats().0, 2, "warm store serves every cell");
        for (a, b) in first.cells.iter().zip(&second.cells) {
            assert_eq!(
                a.report.to_json().to_compact(),
                b.report.to_json().to_compact()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancellation_surfaces_as_a_deadline_error() {
        let sizes = [ByteSize::from_mib(64)];
        let ics = [Interconnect::GigE1, Interconnect::IpoibQdr];
        let cancel = || true; // already expired
        let opts = SweepOptions {
            threads: 1,
            store: None,
            cancel: Some(&cancel),
        };
        match Sweep::run_grid_with(&sizes, &ics, tiny, &opts) {
            Err(Error::Deadline { completed, total }) => {
                assert_eq!((completed, total), (0, 2));
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
    }

    #[test]
    fn report_types_are_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<BenchConfig>();
        check::<BenchReport>();
        check::<Sweep>();
    }
}
