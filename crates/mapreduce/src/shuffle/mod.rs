//! Shuffle bookkeeping: the job's shuffle matrix, the map-output
//! registry and the page-cache model for the map-side shuffle server.
//!
//! A job's partitioners run once, before its event loop, into a
//! [`ShufflePlan`]: how many records every map sends every reducer. A
//! map's records and segments are a function of its index alone, so
//! retries, re-runs and speculative backups all write the plan's row.
//!
//! When a map task commits, the registry records the node holding its
//! output. Reducers consult it to schedule fetches. The registry also
//! models the OS page cache on each slave: map outputs were just
//! written, so shuffle serves hit memory unless a node's total map
//! output exceeds its cache budget — at which point the overflow fraction
//! of every fetch is charged to the local disks, which is exactly the
//! regime the paper's largest (64 GB) runs enter.

pub mod rdma;

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use simcore::rng::SeedFactory;
use simcore::units::ByteSize;

use crate::engine::synthetic_key;
use crate::ifile;
use crate::job::{JobSpec, PartitionerFactory};
use crate::threads::{self, Pool};

/// Entries a shuffle plan may hold (a 2 GiB table of `u64` counts);
/// [`JobSpec::validate`] rejects a job whose maps x reduces pass it.
pub const PLAN_LIMIT: u64 = 1 << 28;

/// The job's shuffle matrix: the records each map sends each reducer.
#[derive(Debug)]
pub struct ShufflePlan {
    n_reduces: usize,
    record_len: u64,
    /// Row-major `maps x reduces` record counts.
    records: Vec<u64>,
}

impl ShufflePlan {
    /// Run the job's partitioner over every map's records — the exact
    /// code path the real suite runs. Map `m`'s partitioner is seeded by
    /// `seeds.seed_for("map-{m}")`, so its row depends on nothing else.
    ///
    /// The rows are independent, as the suite's map tasks are, so they
    /// are drawn on the calling thread plus helper threads on the cores
    /// the process leaves idle: at most `T − 1` ([`threads::budget`])
    /// counted across the process with its busy sweep workers. Each row
    /// lands in its own place: the plan is the same for any number of
    /// helpers. A factory with [`PartitionerFactory::closed_form_rows`]
    /// is drawn on the calling thread alone.
    pub fn draw(spec: &JobSpec, factory: &dyn PartitionerFactory, seeds: &SeedFactory) -> Self {
        Self::draw_on(spec, factory, seeds, &threads::EXTRA, threads::budget() - 1)
    }

    /// [`ShufflePlan::draw`] with helpers claimed from `pool`, at most
    /// `cap` alive there at once.
    fn draw_on(
        spec: &JobSpec,
        factory: &dyn PartitionerFactory,
        seeds: &SeedFactory,
        pool: &Pool,
        cap: usize,
    ) -> Self {
        let n_maps = spec.conf.num_maps;
        let width = spec.conf.num_reduces as usize;
        // A closed-form row costs less than spawning a thread.
        let want = if factory.closed_form_rows() {
            0
        } else {
            n_maps.saturating_sub(1) as usize
        };
        let helpers = pool.claim(want, cap);
        // The counter only hands out indices; rows travel through `join`.
        let next = AtomicUsize::new(0);
        let take = || {
            let map = next.fetch_add(1, Ordering::Relaxed);
            (map < n_maps as usize).then_some(map as u32)
        };
        let row = |map| draw_row(spec, factory, seeds, map);
        let mut records = vec![0; n_maps as usize * width];
        thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers.held())
                .map(|_| {
                    scope.spawn(|| {
                        let mut rows = Vec::new();
                        while let Some(map) = take() {
                            rows.push((map, row(map)));
                        }
                        rows
                    })
                })
                .collect();
            let mut put = |map: u32, counts: &[u64]| {
                records[map as usize * width..][..width].copy_from_slice(counts);
            };
            while let Some(map) = take() {
                put(map, &row(map));
            }
            for handle in handles {
                let rows = handle
                    .join()
                    .unwrap_or_else(|panic| panic::resume_unwind(panic));
                for (map, counts) in rows {
                    put(map, &counts);
                }
            }
        });
        ShufflePlan {
            n_reduces: width,
            record_len: spec.record_ifile_len(),
            records,
        }
    }

    /// Records map `map` sends reducer `reduce`.
    pub fn records(&self, map: u32, reduce: u32) -> u64 {
        self.records[map as usize * self.n_reduces + reduce as usize]
    }

    /// IFile bytes of map `map`'s segment for reducer `reduce`. An empty
    /// segment still carries its EOF marker and checksum, and is fetched
    /// like any other: Hadoop's fetcher requests every assigned segment.
    pub fn bytes(&self, map: u32, reduce: u32) -> u64 {
        self.records(map, reduce) * self.record_len + ifile::SEGMENT_OVERHEAD
    }
}

/// Map `map`'s row of the plan: its partitioner, seeded by
/// `seeds.seed_for("map-{map}")`, over the map's records.
fn draw_row(
    spec: &JobSpec,
    factory: &dyn PartitionerFactory,
    seeds: &SeedFactory,
    map: u32,
) -> Vec<u64> {
    let n_reducers = spec.conf.num_reduces;
    let (key_size, pairs) = (spec.key_size, spec.pairs_per_map);
    let seed = seeds.seed_for(&format!("map-{map}"));
    let mut partitioner = factory.create(map, seed);
    let counts = partitioner.assign_counts(pairs, n_reducers, &mut |ordinal, buf| {
        synthetic_key(ordinal, n_reducers, key_size, buf)
    });
    // Partition-count conservation: one count per reducer, and every
    // record the map emits lands in exactly one of them. Bulk overrides
    // skip the per-record range check, so a partitioner that drops,
    // duplicates or misroutes records is caught here.
    #[cfg(any(test, feature = "invariants"))]
    {
        let total: u64 = counts.iter().sum();
        assert!(
            counts.len() == n_reducers as usize && total == pairs,
            "invariant violated: map {map}'s partitioner returned {} counts summing \
             to {total}, expected {n_reducers} summing to {pairs}",
            counts.len(),
        );
    }
    counts
}

/// Where each committed map output lives, plus the per-node page-cache
/// model.
#[derive(Debug)]
pub struct ShuffleRegistry {
    /// The node holding each map's committed output.
    nodes: Vec<Option<usize>>,
    /// Bytes of one map's output (every map writes the same amount).
    map_output_bytes: u64,
    node_output_bytes: Vec<u64>,
    cache_budget: u64,
}

impl ShuffleRegistry {
    /// Registry for the maps of `spec` over `n_nodes` slaves, each with
    /// `node_memory` of RAM. The shuffle-serve cache budget is the
    /// customary ~60 % of RAM left over after the task JVMs.
    pub fn new(spec: &JobSpec, n_nodes: usize, node_memory: ByteSize) -> Self {
        ShuffleRegistry {
            nodes: vec![None; spec.conf.num_maps as usize],
            map_output_bytes: spec.map_output_bytes(),
            node_output_bytes: vec![0; n_nodes],
            cache_budget: (node_memory.as_bytes() as f64 * 0.60) as u64,
        }
    }

    /// Commit map `map`'s output on `node`. Commit is first-wins: with
    /// speculative execution, the backup attempt can finish close behind
    /// the original, and whichever attempt registers second loses — its
    /// output is dropped (reducers already fetch from the winner) and
    /// `false` is returned so the caller can account for the discarded
    /// attempt.
    pub fn register(&mut self, map: u32, node: usize) -> bool {
        let slot = &mut self.nodes[map as usize];
        if slot.is_some() {
            return false;
        }
        *slot = Some(node);
        self.node_output_bytes[node] += self.map_output_bytes;
        true
    }

    /// The node holding map `map`'s committed output, if any.
    pub fn node_of(&self, map: u32) -> Option<usize> {
        self.nodes[map as usize]
    }

    /// Drop every output stored on `node` (the node crashed and its local
    /// segments are gone). Returns the evicted maps in index order; they
    /// may re-register after re-execution.
    pub fn unregister_node(&mut self, node: usize) -> Vec<u32> {
        let mut lost = Vec::new();
        for (i, slot) in self.nodes.iter_mut().enumerate() {
            if *slot == Some(node) {
                *slot = None;
                lost.push(i as u32);
            }
        }
        self.node_output_bytes[node] = 0;
        lost
    }

    /// Fraction of a shuffle serve from `node` that misses the page cache
    /// and must be read from disk, in `[0, 1]`.
    pub fn disk_miss_fraction(&self, node: usize) -> f64 {
        let total = self.node_output_bytes[node];
        if total <= self.cache_budget || total == 0 {
            0.0
        } else {
            (total - self.cache_budget) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    use simcore::rng::JavaRandom;

    use crate::conf::JobConf;
    use crate::partition::{HashPartitionerFactory, Partitioner};

    /// `maps` maps of about `per_map` output each, over `reduces`
    /// reducers.
    fn spec(maps: u32, reduces: u32, per_map: ByteSize) -> JobSpec {
        let mut spec = JobSpec {
            conf: JobConf::with_tasks(maps, reduces),
            ..JobSpec::default()
        };
        spec.set_shuffle_size(ByteSize::from_bytes(per_map.as_bytes() * u64::from(maps)));
        spec
    }

    #[test]
    fn plan_rows_conserve_each_maps_records() {
        let spec = spec(5, 7, ByteSize::from_mib(8));
        let plan = ShufflePlan::draw(&spec, &HashPartitionerFactory, &SeedFactory::new(3));
        for m in 0..5 {
            let row: u64 = (0..7).map(|r| plan.records(m, r)).sum();
            assert_eq!(row, spec.pairs_per_map);
            let bytes: u64 = (0..7).map(|r| plan.bytes(m, r)).sum();
            assert_eq!(bytes, spec.map_output_bytes());
        }
    }

    #[test]
    fn an_empty_segment_is_its_trailer() {
        // One record over three reducers leaves two segments empty.
        let mut spec = spec(1, 3, ByteSize::from_mib(1));
        spec.pairs_per_map = 1;
        let plan = ShufflePlan::draw(&spec, &HashPartitionerFactory, &SeedFactory::new(0));
        let empty: Vec<u32> = (0..3).filter(|&r| plan.records(0, r) == 0).collect();
        assert_eq!(empty.len(), 2);
        for r in empty {
            assert_eq!(plan.bytes(0, r), ifile::SEGMENT_OVERHEAD);
        }
    }

    /// `maps` maps of `pairs` 12-byte-key records each, over `reduces`
    /// reducers.
    fn job(maps: u32, reduces: u32, pairs: u64) -> JobSpec {
        JobSpec {
            conf: JobConf::with_tasks(maps, reduces),
            pairs_per_map: pairs,
            key_size: 12,
            ..JobSpec::default()
        }
    }

    /// MR-RAND's per-record choice: a `java.util.Random` seeded per map,
    /// so each row depends on its own map's seed.
    struct SeededFactory;

    struct Seeded(JavaRandom);

    impl Partitioner for Seeded {
        fn partition(&mut self, _key: &[u8], _ordinal: u64, n_reducers: u32) -> u32 {
            self.0.next_int_bound(n_reducers as i32) as u32
        }
    }

    impl PartitionerFactory for SeededFactory {
        fn create(&self, _map_index: u32, seed: u64) -> Box<dyn Partitioner> {
            Box::new(Seeded(JavaRandom::new(seed as i64)))
        }
        fn name(&self) -> &str {
            "seeded"
        }
    }

    #[test]
    fn rows_are_the_same_for_any_number_of_helpers() {
        let factories: [&dyn PartitionerFactory; 2] = [&HashPartitionerFactory, &SeededFactory];
        let seeds = SeedFactory::new(0x5EED);
        // Maps past, below and at one helper; power-of-two reducer
        // counts and others.
        for factory in factories {
            for (maps, reduces) in [(13, 8), (3, 8), (1, 8), (13, 6), (5, 7)] {
                let spec = job(maps, reduces, 2_000);
                let serial = ShufflePlan::draw_on(&spec, factory, &seeds, &Pool::new(), 0);
                for m in 0..maps {
                    let row = &serial.records[(m * reduces) as usize..][..reduces as usize];
                    assert_eq!(row, draw_row(&spec, factory, &seeds, m));
                }
                for cap in [1, 3, 7] {
                    let pool = Pool::new();
                    let plan = ShufflePlan::draw_on(&spec, factory, &seeds, &pool, cap);
                    assert_eq!(
                        plan.records,
                        serial.records,
                        "{} {maps}x{reduces} on {cap} helpers",
                        factory.name()
                    );
                    assert_eq!(pool.alive(), 0);
                }
            }
        }
    }

    /// Hash partitioning, declared closed-form, recording the thread that
    /// builds each map's partitioner.
    #[derive(Default)]
    struct ClosedForm(Mutex<Vec<ThreadId>>);

    impl PartitionerFactory for ClosedForm {
        fn create(&self, map_index: u32, seed: u64) -> Box<dyn Partitioner> {
            self.0.lock().unwrap().push(thread::current().id());
            HashPartitionerFactory.create(map_index, seed)
        }
        fn name(&self) -> &str {
            "closed-form"
        }
        fn closed_form_rows(&self) -> bool {
            true
        }
    }

    #[test]
    fn closed_form_rows_are_drawn_on_the_calling_thread() {
        let factory = ClosedForm::default();
        let spec = job(9, 4, 100);
        let seeds = SeedFactory::new(1);
        let plan = ShufflePlan::draw_on(&spec, &factory, &seeds, &Pool::new(), 7);
        let serial = ShufflePlan::draw_on(&spec, &HashPartitionerFactory, &seeds, &Pool::new(), 0);
        assert_eq!(plan.records, serial.records);
        let builders = factory.0.lock().unwrap();
        assert_eq!(builders.len(), 9);
        assert!(builders.iter().all(|&id| id == thread::current().id()));
    }

    /// Hash partitioning that panics building map `bad`'s partitioner.
    struct Refusing {
        bad: u32,
    }

    impl PartitionerFactory for Refusing {
        fn create(&self, map_index: u32, seed: u64) -> Box<dyn Partitioner> {
            assert_ne!(map_index, self.bad, "map {map_index} refused");
            HashPartitionerFactory.create(map_index, seed)
        }
        fn name(&self) -> &str {
            "refusing"
        }
    }

    #[test]
    fn a_partitioner_panic_leaves_the_draw_and_frees_its_helpers() {
        let spec = job(12, 4, 100);
        let seeds = SeedFactory::new(2);
        for cap in [0, 1, 3] {
            for bad in [0, 5, 11] {
                let pool = Pool::new();
                let drawn = panic::catch_unwind(AssertUnwindSafe(|| {
                    ShufflePlan::draw_on(&spec, &Refusing { bad }, &seeds, &pool, cap)
                }));
                let payload = drawn.expect_err("the draw must panic");
                let message = payload.downcast_ref::<String>().expect("a formatted panic");
                assert!(message.contains(&format!("map {bad} refused")), "{message}");
                assert_eq!(pool.alive(), 0, "map {bad} on {cap} helpers");
            }
        }
        // The process-wide draw panics the same way.
        let drawn = panic::catch_unwind(|| ShufflePlan::draw(&spec, &Refusing { bad: 7 }, &seeds));
        assert!(drawn.is_err());
    }

    fn registry(maps: u32, per_map: ByteSize, nodes: usize, memory: ByteSize) -> ShuffleRegistry {
        ShuffleRegistry::new(&spec(maps, 1, per_map), nodes, memory)
    }

    #[test]
    fn register_and_query() {
        let mut r = registry(2, ByteSize::from_mib(1), 2, ByteSize::from_gib(24));
        assert_eq!(r.node_of(0), None);
        assert!(r.register(0, 1));
        assert_eq!(r.node_of(0), Some(1));
        assert_eq!(r.node_of(1), None);
        assert_eq!(r.node_output_bytes, [0, r.map_output_bytes]);
    }

    #[test]
    fn double_commit_is_first_wins() {
        // Speculative execution can have both attempts of a map reach
        // commit; the registry must keep the first and drop the second
        // (this used to be an assert, panicking mid-run).
        let mut r = registry(1, ByteSize::from_mib(1), 2, ByteSize::from_gib(1));
        assert!(r.register(0, 0));
        assert!(!r.register(0, 1));
        // The winner's node is untouched and the loser's bytes are not
        // double-counted into the page-cache model.
        assert_eq!(r.node_of(0), Some(0));
        assert_eq!(r.node_output_bytes, [r.map_output_bytes, 0]);
    }

    #[test]
    fn unregister_node_evicts_and_allows_reregistration() {
        let mut r = registry(3, ByteSize::from_mib(1), 2, ByteSize::from_gib(24));
        r.register(0, 0);
        r.register(1, 1);
        r.register(2, 0);
        assert_eq!(r.unregister_node(0), vec![0, 2]);
        assert_eq!(r.node_of(0), None);
        assert_eq!(r.node_of(1), Some(1));
        assert_eq!(r.node_output_bytes[0], 0);
        // The re-executed map commits again, elsewhere.
        assert!(r.register(0, 1));
        assert_eq!(r.node_output_bytes[1], 2 * r.map_output_bytes);
    }

    #[test]
    fn small_outputs_stay_cached() {
        // 4 GiB of output on a 24 GiB node: well within the 14.4 GiB budget.
        let mut r = registry(4, ByteSize::from_gib(1), 1, ByteSize::from_gib(24));
        for m in 0..4 {
            r.register(m, 0);
        }
        assert_eq!(r.disk_miss_fraction(0), 0.0);
    }

    #[test]
    fn oversized_outputs_spill_to_disk_reads() {
        // 16 GiB of output against a 14.4 GiB budget: ~10 % disk misses.
        let mut r = registry(1, ByteSize::from_gib(16), 1, ByteSize::from_gib(24));
        r.register(0, 0);
        let f = r.disk_miss_fraction(0);
        assert!(f > 0.05 && f < 0.15, "fraction {f}");
    }
}
