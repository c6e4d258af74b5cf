//! Partitioners: how intermediate keys map to reducers.
//!
//! Mirrors `org.apache.hadoop.mapred.Partitioner`. Partitioners see the
//! serialized key bytes and the record's ordinal within its map task (the
//! ordinal is what the suite's round-robin partitioner counts). The bulk
//! entry point [`Partitioner::assign_counts`] produces the per-reducer
//! record counts for a whole map task; the default implementation calls
//! [`Partitioner::partition`] once per record — exactly the per-record
//! code path Hadoop runs.
//!
//! A partitioner may override the bulk entry point: a closed form for
//! round-robin, or for the partitioners that never read the key, a
//! key-free draw loop, or draw kernels that walk the generator's state
//! sequence in interleaved lanes by jump-ahead and tally the counts in
//! any order. The override must be bit-identical to the per-record loop,
//! which stays the reference: the same counts, and the partitioner left
//! in the state the loop would leave it in.

/// Assigns each intermediate record to a reduce partition.
pub trait Partitioner {
    /// The partition in `[0, n_reducers)` for the record with serialized
    /// `key`, which is the `ordinal`-th record produced by this map task.
    fn partition(&mut self, key: &[u8], ordinal: u64, n_reducers: u32) -> u32;

    /// Per-reducer record counts for a map task emitting `n_records`
    /// fixed-size records. `key_of(ordinal, buf)` fills `buf` with the
    /// serialized key of the `ordinal`-th record; the buffer is reused
    /// across records so bulk assignment allocates nothing per record.
    ///
    /// The default implementation runs the exact per-record code path
    /// Hadoop runs. Overrides must return exactly what that loop returns
    /// and leave `self` exactly as it would, so a following `partition`
    /// call draws the same value; they may skip `key_of` when the choice
    /// never reads the key. The engine checks the count vector's length
    /// and sum under the `invariants` feature.
    fn assign_counts(
        &mut self,
        n_records: u64,
        n_reducers: u32,
        key_of: &mut dyn FnMut(u64, &mut Vec<u8>),
    ) -> Vec<u64> {
        let mut counts = vec![0u64; n_reducers as usize];
        let mut buf = Vec::new();
        for ordinal in 0..n_records {
            buf.clear();
            key_of(ordinal, &mut buf);
            let p = self.partition(&buf, ordinal, n_reducers);
            assert!(p < n_reducers, "partition {p} out of range");
            counts[p as usize] += 1;
        }
        counts
    }
}

/// Java's `String`/array hash step, as `WritableComparator.hashBytes`.
pub fn hash_bytes(bytes: &[u8]) -> i32 {
    let mut h: i32 = 1;
    for &b in bytes {
        h = h.wrapping_mul(31).wrapping_add(i32::from(b as i8));
    }
    h
}

/// Hadoop's default `HashPartitioner`:
/// `(key.hashCode() & Integer.MAX_VALUE) % numReduceTasks`.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn partition(&mut self, key: &[u8], _ordinal: u64, n_reducers: u32) -> u32 {
        ((hash_bytes(key) & i32::MAX) as u32) % n_reducers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_bytes_matches_java_semantics() {
        // h starts at 1 and folds bytes as signed values.
        assert_eq!(hash_bytes(&[]), 1);
        assert_eq!(hash_bytes(&[0]), 31);
        assert_eq!(hash_bytes(&[1]), 32);
        assert_eq!(hash_bytes(&[0xFF]), 30); // 31 + (-1)
        assert_eq!(hash_bytes(&[1, 2]), 31 * 32 + 2);
    }

    #[test]
    fn hash_partitioner_in_range_and_deterministic() {
        let mut p = HashPartitioner;
        for n in [1u32, 2, 7, 8] {
            for i in 0..500u64 {
                let key = i.to_be_bytes().to_vec();
                let a = p.partition(&key, i, n);
                let b = p.partition(&key, i, n);
                assert!(a < n);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn default_assign_counts_sums_to_total() {
        let mut p = HashPartitioner;
        let counts = p.assign_counts(10_000, 8, &mut |i, buf| {
            buf.extend_from_slice(&i.to_be_bytes());
        });
        assert_eq!(counts.len(), 8);
        assert_eq!(counts.iter().sum::<u64>(), 10_000);
        // Hash distribution is roughly balanced.
        for c in &counts {
            assert!(*c > 800 && *c < 1700, "{counts:?}");
        }
    }

    #[test]
    fn single_reducer_gets_everything() {
        let mut p = HashPartitioner;
        let counts = p.assign_counts(123, 1, &mut |i, buf| buf.push(i as u8));
        assert_eq!(counts, vec![123]);
    }
}

/// Factory producing the stock [`HashPartitioner`] for every map task.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashPartitionerFactory;

impl crate::job::PartitionerFactory for HashPartitionerFactory {
    fn create(&self, _map_index: u32, _seed: u64) -> Box<dyn Partitioner> {
        Box::new(HashPartitioner)
    }
    fn name(&self) -> &str {
        "HashPartitioner"
    }
}
