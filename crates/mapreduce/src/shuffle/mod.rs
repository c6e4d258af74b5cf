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

use simcore::rng::SeedFactory;
use simcore::units::ByteSize;

use crate::engine::synthetic_key;
use crate::ifile;
use crate::job::{JobSpec, PartitionerFactory};

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
    pub fn draw(spec: &JobSpec, factory: &dyn PartitionerFactory, seeds: &SeedFactory) -> Self {
        let n_maps = spec.conf.num_maps;
        let n_reducers = spec.conf.num_reduces;
        let key_size = spec.key_size;
        let pairs = spec.pairs_per_map;
        let mut records = Vec::with_capacity(n_maps as usize * n_reducers as usize);
        for index in 0..n_maps {
            let seed = seeds.seed_for(&format!("map-{index}"));
            let mut partitioner = factory.create(index, seed);
            let counts = partitioner.assign_counts(pairs, n_reducers, &mut |ordinal, buf| {
                synthetic_key(ordinal, n_reducers, key_size, buf)
            });
            // Partition-count conservation: one count per reducer, and
            // every record the map emits lands in exactly one of them.
            // Bulk overrides skip the per-record range check, so a
            // partitioner that drops, duplicates or misroutes records is
            // caught here.
            #[cfg(any(test, feature = "invariants"))]
            {
                let total: u64 = counts.iter().sum();
                assert!(
                    counts.len() == n_reducers as usize && total == pairs,
                    "invariant violated: map {index}'s partitioner returned {} counts summing \
                     to {total}, expected {n_reducers} summing to {pairs}",
                    counts.len(),
                );
            }
            records.extend_from_slice(&counts);
        }
        ShufflePlan {
            n_reduces: n_reducers as usize,
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
    use crate::conf::JobConf;
    use crate::partition::HashPartitionerFactory;

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
