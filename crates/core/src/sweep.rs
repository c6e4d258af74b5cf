//! Parameter sweeps: run a family of configurations and tabulate job
//! execution times, as every figure in the paper does.
//!
//! [`Sweep::run_grid`] farms cells out across OS threads. Each cell is
//! an independent simulation — it builds its own engine, RNG streams,
//! and monitors from the config seed — so parallel execution produces
//! **bit-identical** per-cell results to running the cells one after
//! another, in the same row-major order (pinned by a test). The
//! thread count comes from the `MRBENCH_THREADS` environment variable
//! when set, else from [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use simcore::units::ByteSize;
use simnet::Interconnect;

use crate::config::BenchConfig;
use crate::error::Error;
use crate::report::BenchReport;
use crate::runner::run;
use crate::store::{config_digest, ResultStore};

/// Knobs for [`Sweep::run_grid_with`].
#[derive(Clone, Copy, Default)]
pub struct SweepOptions<'a> {
    /// Worker threads; `0` means auto ([`std::thread::available_parallelism`],
    /// overridden by `MRBENCH_THREADS`).
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
/// cache hit would silently drop the trace the caller asked for.
fn run_cell(config: &BenchConfig, store: Option<&ResultStore>) -> Result<BenchReport, Error> {
    let digest = match store {
        Some(_) if !config.trace => Some(config_digest(config)),
        _ => None,
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

/// Worker-thread count for [`Sweep::run_grid`]: the `MRBENCH_THREADS`
/// environment variable when set to a positive integer, else the
/// machine's available parallelism.
fn worker_threads() -> usize {
    if let Ok(v) = std::env::var("MRBENCH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Sweep {
    /// Run the grid, farming cells across threads. `make` builds the
    /// config for one (size, interconnect) pair, letting callers fix
    /// every other parameter.
    ///
    /// Cells land in row-major order and each is bit-identical to a
    /// serial run of its config: a cell simulation is a pure function of
    /// its config, sharing no mutable state with its neighbours.
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
    /// deadline through it).
    pub fn run_grid_with(
        sizes: &[ByteSize],
        interconnects: &[Interconnect],
        make: impl Fn(ByteSize, Interconnect) -> BenchConfig + Sync,
        opts: &SweepOptions<'_>,
    ) -> Result<Sweep, Error> {
        let pairs: Vec<(ByteSize, Interconnect)> = sizes
            .iter()
            .flat_map(|&s| interconnects.iter().map(move |&ic| (s, ic)))
            .collect();
        let threads = if opts.threads == 0 {
            worker_threads()
        } else {
            opts.threads
        };
        let workers = threads.clamp(1, pairs.len().max(1));
        let cancelled = || opts.cancel.is_some_and(|c| c());

        // Work-stealing over a shared cell index; finished cells are
        // written back into their row-major slot. `workers == 1` runs the
        // same claim loop on the calling thread, so the store and cancel
        // semantics are identical at every thread count.
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Result<BenchReport, Error>>>> = {
            let mut v = Vec::new();
            v.resize_with(pairs.len(), || None);
            Mutex::new(v)
        };
        let work = || loop {
            // Poll cancellation before claiming, so an expired deadline
            // stops the sweep at a cell boundary with everything finished
            // so far already persisted.
            if cancelled() {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(shuffle, ic)) = pairs.get(i) else {
                break;
            };
            let outcome = run_cell(&make(shuffle, ic), opts.store);
            slots.lock().unwrap()[i] = Some(outcome);
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

        let slots = slots.into_inner().unwrap();
        let completed = slots.iter().filter(|s| s.is_some()).count();
        if completed < pairs.len() {
            // Only cancellation leaves unclaimed slots.
            return Err(Error::Deadline {
                completed,
                total: pairs.len(),
            });
        }
        let mut cells = Vec::with_capacity(pairs.len());
        for ((shuffle, interconnect), slot) in pairs.into_iter().zip(slots) {
            // Errors surface in row-major order, matching the serial path.
            let report = slot.expect("every cell is claimed by a worker")?;
            cells.push(SweepCell {
                shuffle,
                interconnect,
                report,
            });
        }
        Ok(Sweep {
            sizes: sizes.to_vec(),
            interconnects: interconnects.to_vec(),
            cells,
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
