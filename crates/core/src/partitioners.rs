//! The suite's three custom partitioners (paper Sect. 4.2).
//!
//! Each micro-benchmark is defined by how its partitioner spreads the
//! intermediate key/value pairs over the reducers:
//!
//! * **MR-AVG** — round-robin: every reducer receives the same number of
//!   records (±1).
//! * **MR-RAND** — `new Random().nextInt(numReducers)` per record. The
//!   paper notes that Java's LCG with this limited range makes runs
//!   reproducible; the bit-exact [`JavaRandom`] port preserves that.
//! * **MR-SKEW** — a fixed skew: 50 % of the pairs to reducer 0, 25 % to
//!   reducer 1, 12.5 % to reducer 2, and the remaining 12.5 % spread
//!   randomly. The pattern is the same on every run, so comparisons
//!   across networks stay fair.

use std::hint::select_unpredictable;

use mapreduce::job::PartitionerFactory;
use mapreduce::partition::Partitioner;
use simcore::rng::{JavaJump, JavaRandom};

/// Per-reducer counts of `n_records` reducer choices made by `pick`: the
/// bulk path of the partitioners that never read the key. It builds no
/// key and makes no dynamic call per record; `pick` is the same draw the
/// per-record `partition` makes, so the generator ends where that loop
/// would leave it.
fn count_picks(n_records: u64, n_reducers: u32, mut pick: impl FnMut() -> u32) -> Vec<u64> {
    let mut counts = vec![0u64; n_reducers as usize];
    for _ in 0..n_records {
        counts[pick() as usize] += 1;
    }
    counts
}

// The draw kernels. For a power-of-two bound, `nextInt(2^k)` is the top k
// bits of its draw's state and never rejects, so a record's reducer, and
// how many draws it takes, are functions of the states alone. The kernels
// walk the state sequence in interleaved lanes stepped by `JavaJump`s,
// with states held high (`state << 16`) so a draw's top bits are one
// shift, and tally each lane into its own table: a count does not depend
// on the order it was tallied in. `nextInt`'s rejection loop makes every
// other bound take a data-dependent number of draws; those keep the
// per-record loop, which stays the reference for both.

/// Largest reducer count the kernels run for. They tally each record
/// under its draw's top byte, one 256-counter table per lane, and fold the
/// bytes onto reducers at the end; past it the per-record loop runs.
const KERNEL_MAX_REDUCERS: u32 = 1 << 8;

/// `log2(n_reducers)` when the kernels apply to `nextInt(n_reducers)`.
fn kernel_log2(n_reducers: u32) -> Option<u32> {
    (n_reducers.is_power_of_two() && n_reducers <= KERNEL_MAX_REDUCERS)
        .then(|| n_reducers.trailing_zeros())
}

/// The top byte of the draw that left the generator in `high`.
/// `nextInt(2^k)` for `k <= 8` is its top `k` bits: `(2^k * next(31)) >>
/// 31`, with `next(31) = high >> 33`.
#[inline(always)]
fn top_byte(high: u64) -> usize {
    (high >> 56) as usize
}

/// Adds each top-byte count in `bytes` to its reducer out of `2^log2`.
fn fold_bytes(counts: &mut [u64], bytes: &[u64], log2: u32) {
    for (byte, &count) in bytes.iter().enumerate() {
        counts[byte >> (8 - log2)] += count;
    }
}

/// Interleaved lanes of the MR-RAND kernel.
const RAND_LANES: usize = 8;

/// MR-RAND's counts for `nextInt(2^log2)` per record. Record `i` is draw
/// `i + 1`; lane `l` takes records `l, l + 8, l + 16, ...`, stepping by
/// the 8-draw jump, and the last `n_records % 8` records are the lanes'
/// next states.
fn rand_counts_pow2(rng: &mut JavaRandom, n_records: u64, log2: u32) -> Vec<u64> {
    const STEP: JavaJump = JavaJump::new(RAND_LANES as u64);
    let start = rng.state() << 16;
    let mut lanes: [u64; RAND_LANES] =
        std::array::from_fn(|l| JavaJump::new(l as u64 + 1).apply_high(start));
    let mut tables = [[0u64; 256]; RAND_LANES];
    for _ in 0..n_records / RAND_LANES as u64 {
        for (table, x) in tables.iter_mut().zip(&mut lanes) {
            table[top_byte(*x)] += 1;
            *x = STEP.apply_high(*x);
        }
    }
    let tail = (n_records % RAND_LANES as u64) as usize;
    for (table, &x) in tables.iter_mut().zip(&lanes).take(tail) {
        table[top_byte(x)] += 1;
    }
    rng.skip(n_records);
    let mut counts = vec![0u64; 1 << log2];
    for table in &tables {
        fold_bytes(&mut counts, table, log2);
    }
    counts
}

/// Interleaved lanes of the MR-SKEW kernel. A lane's step is a chain of
/// about seven cycles (multiply, add, shift, compare, select); four lanes
/// cover it, and more spill registers.
const SKEW_LANES: usize = 4;

/// Fewer records than this are left to the per-record loop: a lane
/// round's set-up and fix-ups would cost more than they save.
const SKEW_ROUND_MIN: u64 = 64 * SKEW_LANES as u64;

/// One lane's MR-SKEW tallies: codes `0..8` count [`skew_pick`]'s
/// eighths, code `8 + b` a random pick whose draw has top byte `b`.
type SkewTable = [u64; 8 + 256];

/// One MR-SKEW record, [`skew_pick`]'s draws for a power-of-two bound,
/// from the high state `y` of its first draw: its tally code and the
/// state of the next record's first draw. The record takes three draws
/// when the top three bits of the first are `111`, else two. Its third
/// draw and the next record's first are two and three draws past `y`
/// either way, so both come from `y` in parallel and a select, not a
/// branch, picks: the third draw comes in one record in eight, at random.
#[inline(always)]
fn skew_record(y: u64) -> (usize, u64) {
    const J2: JavaJump = JavaJump::new(2);
    const J3: JavaJump = JavaJump::new(3);
    let (y2, y3) = (J2.apply_high(y), J3.apply_high(y));
    let eighth = (y >> 61) as usize;
    let third = eighth == 7;
    (
        select_unpredictable(third, 8 + top_byte(y2), eighth),
        select_unpredictable(third, y3, y2),
    )
}

/// Draws taken by a record tallied under `code`: three for a random pick.
#[inline(always)]
fn skew_draws(code: usize) -> u64 {
    2 + u64::from(code >= 8)
}

/// Third draws tallied in `table`.
fn third_draws(table: &SkewTable) -> u64 {
    table[8..].iter().sum()
}

/// MR-SKEW's counts for a power-of-two bound.
///
/// A record starting at draw position `p` ends at `p + 2` or `p + 3`, so
/// the records form a parse of the draw sequence that only the first
/// record's position pins down. Each round splits the next `2 * left`
/// draws into [`SKEW_LANES`] segments; at most `left` records start
/// there, as a record takes at least two draws. Lane `l` parses its
/// segment from its first position, a guess of where a record starts,
/// and tallies the records starting in the segment; lane 0's guess is
/// right. Then, segment by segment, the true parse arriving from the
/// previous segment is walked beside the guessed one, replacing guessed
/// records with true ones until both reach a common position, from where
/// they coincide, or the segment's end. Two parses of this sequence meet
/// within a few records, so the fix-ups are short. The last records, fewer
/// than [`SKEW_ROUND_MIN`], run [`skew_pick`].
fn skew_counts_pow2(rng: &mut JavaRandom, n_records: u64, log2: u32) -> Vec<u64> {
    const L: usize = SKEW_LANES;
    // The LCG's period is 2^48, so this jump steps one draw back.
    const BACK: JavaJump = JavaJump::new((1 << 48) - 1);
    let mut tables: [SkewTable; L] = [[0; 8 + 256]; L];
    // The first draw of the next record not yet tallied.
    let mut y = JavaJump::new(1).apply_high(rng.state() << 16);
    let mut left = n_records;
    while left >= SKEW_ROUND_MIN {
        let span = 2 * left;
        let seg = span / L as u64;
        let starts: [u64; L] = std::array::from_fn(|l| l as u64 * seg);
        let ends: [u64; L] =
            std::array::from_fn(|l| if l + 1 < L { starts[l] + seg } else { span });
        let start_ys = starts.map(|p| JavaJump::new(p).apply_high(y));
        let thirds_before = tables.each_ref().map(third_draws);
        let (mut lanes, mut pos, mut records) = (start_ys, starts, [0u64; L]);
        // Steps in chunks no lane can overrun, as a record takes at most
        // three draws; positions are read off the tables between chunks.
        loop {
            let k = (0..L)
                .map(|l| ends[l].saturating_sub(pos[l]).div_ceil(3))
                .min()
                .unwrap_or(0);
            if k == 0 {
                break;
            }
            for _ in 0..k {
                for (table, y) in tables.iter_mut().zip(&mut lanes) {
                    let (code, next) = skew_record(*y);
                    table[code] += 1;
                    *y = next;
                }
            }
            records = records.map(|r| r + k);
            pos = std::array::from_fn(|l| {
                starts[l] + 2 * records[l] + third_draws(&tables[l]) - thirds_before[l]
            });
        }
        for l in 0..L {
            while pos[l] < ends[l] {
                let (code, next) = skew_record(lanes[l]);
                tables[l][code] += 1;
                (pos[l], lanes[l]) = (pos[l] + skew_draws(code), next);
                records[l] += 1;
            }
        }
        let mut round: u64 = records.iter().sum();
        // The true parse enters segment `l` at draw `t`, first draw `ty`.
        let (mut t, mut ty) = (pos[0], lanes[0]);
        for l in 1..L {
            let (mut s, mut sy) = (starts[l], start_ys[l]);
            loop {
                if s == t {
                    (t, ty) = (pos[l], lanes[l]);
                    break;
                }
                if s >= ends[l] && t >= ends[l] {
                    break;
                }
                if s < t {
                    let (code, next) = skew_record(sy);
                    tables[l][code] -= 1;
                    round -= 1;
                    (s, sy) = (s + skew_draws(code), next);
                } else {
                    let (code, next) = skew_record(ty);
                    tables[l][code] += 1;
                    round += 1;
                    (t, ty) = (t + skew_draws(code), next);
                }
            }
        }
        left -= round;
        y = ty;
    }
    rng.set_state(BACK.apply_high(y) >> 16);
    let n_reducers = 1u32 << log2;
    let mut counts = vec![0u64; n_reducers as usize];
    for _ in 0..left {
        counts[skew_pick(rng, n_reducers) as usize] += 1;
    }
    for table in &tables {
        for (&head, &count) in SKEW_HEADS.iter().zip(table) {
            counts[head.min(n_reducers - 1) as usize] += count;
        }
        fold_bytes(&mut counts, &table[8..], log2);
    }
    counts
}

/// MR-AVG: uniform round-robin distribution.
#[derive(Clone, Copy, Debug, Default)]
pub struct AvgPartitioner;

impl Partitioner for AvgPartitioner {
    fn partition(&mut self, _key: &[u8], ordinal: u64, n_reducers: u32) -> u32 {
        (ordinal % u64::from(n_reducers)) as u32
    }

    fn assign_counts(
        &mut self,
        n_records: u64,
        n_reducers: u32,
        _key_of: &mut dyn FnMut(u64, &mut Vec<u8>),
    ) -> Vec<u64> {
        // Exact closed form of the round-robin loop.
        let n = u64::from(n_reducers);
        let base = n_records / n;
        let rem = n_records % n;
        (0..n).map(|r| base + u64::from(r < rem)).collect()
    }
}

/// MR-RAND: pseudo-random reducer choice via `java.util.Random`.
#[derive(Clone, Debug)]
pub struct RandPartitioner {
    rng: JavaRandom,
}

impl RandPartitioner {
    /// One instance per map task, seeded deterministically.
    pub fn new(seed: i64) -> Self {
        RandPartitioner {
            rng: JavaRandom::new(seed),
        }
    }
}

impl Partitioner for RandPartitioner {
    fn partition(&mut self, _key: &[u8], _ordinal: u64, n_reducers: u32) -> u32 {
        self.rng.next_int_bound(n_reducers as i32) as u32
    }

    fn assign_counts(
        &mut self,
        n_records: u64,
        n_reducers: u32,
        _key_of: &mut dyn FnMut(u64, &mut Vec<u8>),
    ) -> Vec<u64> {
        match kernel_log2(n_reducers) {
            Some(log2) => rand_counts_pow2(&mut self.rng, n_records, log2),
            None => count_picks(n_records, n_reducers, || {
                self.rng.next_int_bound(n_reducers as i32) as u32
            }),
        }
    }
}

/// MR-SKEW's head reducer for each of `u`'s eighths below 7/8, before
/// clamping to the last reducer; see [`skew_pick`].
const SKEW_HEADS: [u32; 7] = [0, 0, 0, 0, 1, 1, 2];

/// MR-SKEW's reducer for one record: `u = nextDouble()` picks reducer 0
/// below 0.5, 1 below 0.75 and 2 below 0.875 (clamped to the last
/// reducer), otherwise `nextInt(n_reducers)` draws from all of them.
///
/// The thresholds are multiples of 1/8, so `u < t` depends only on the
/// top three of `u`'s 53 bits, the top three of its high `next(26)`
/// draw: eighths 0–3 are below 0.5, 4–5 below 0.75 and 6 below 0.875.
/// The low `next(27)` draw is still made, as `nextDouble()` makes it, and
/// discarded. A table lookup replaces the three unpredictable branches.
#[inline]
fn skew_pick(rng: &mut JavaRandom, n_reducers: u32) -> u32 {
    let eighth = (rng.next(26) >> 23) as usize;
    rng.next(27);
    match SKEW_HEADS.get(eighth) {
        Some(&head) => head.min(n_reducers - 1),
        None => rng.next_int_bound(n_reducers as i32) as u32,
    }
}

/// MR-SKEW: 50 % / 25 % / 12.5 % to the first three reducers, rest random.
#[derive(Clone, Debug)]
pub struct SkewPartitioner {
    rng: JavaRandom,
}

impl SkewPartitioner {
    /// One instance per map task, seeded deterministically.
    pub fn new(seed: i64) -> Self {
        SkewPartitioner {
            rng: JavaRandom::new(seed),
        }
    }
}

impl Partitioner for SkewPartitioner {
    fn partition(&mut self, _key: &[u8], _ordinal: u64, n_reducers: u32) -> u32 {
        skew_pick(&mut self.rng, n_reducers)
    }

    fn assign_counts(
        &mut self,
        n_records: u64,
        n_reducers: u32,
        _key_of: &mut dyn FnMut(u64, &mut Vec<u8>),
    ) -> Vec<u64> {
        match kernel_log2(n_reducers) {
            Some(log2) => skew_counts_pow2(&mut self.rng, n_records, log2),
            None => count_picks(n_records, n_reducers, || {
                skew_pick(&mut self.rng, n_reducers)
            }),
        }
    }
}

/// Factory for [`AvgPartitioner`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AvgFactory;

impl PartitionerFactory for AvgFactory {
    fn create(&self, _map_index: u32, _seed: u64) -> Box<dyn Partitioner> {
        Box::new(AvgPartitioner)
    }
    fn name(&self) -> &str {
        "MR-AVG"
    }
    fn closed_form_rows(&self) -> bool {
        true
    }
}

/// Factory for [`RandPartitioner`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RandFactory;

impl PartitionerFactory for RandFactory {
    fn create(&self, _map_index: u32, seed: u64) -> Box<dyn Partitioner> {
        Box::new(RandPartitioner::new(seed as i64))
    }
    fn name(&self) -> &str {
        "MR-RAND"
    }
}

/// Factory for [`SkewPartitioner`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SkewFactory;

impl PartitionerFactory for SkewFactory {
    fn create(&self, _map_index: u32, seed: u64) -> Box<dyn Partitioner> {
        Box::new(SkewPartitioner::new(seed as i64))
    }
    fn name(&self) -> &str {
        "MR-SKEW"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_keys(_: u64, _: &mut Vec<u8>) {}

    #[test]
    fn avg_is_perfectly_balanced() {
        let mut p = AvgPartitioner;
        let counts = p.assign_counts(1003, 8, &mut no_keys);
        assert_eq!(counts.iter().sum::<u64>(), 1003);
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "{counts:?}");
        // Matches the per-record loop exactly.
        let mut q = AvgPartitioner;
        let mut loop_counts = vec![0u64; 8];
        for i in 0..1003 {
            loop_counts[q.partition(&[], i, 8) as usize] += 1;
        }
        assert_eq!(counts, loop_counts);
    }

    #[test]
    fn rand_is_statistically_balanced_and_reproducible() {
        let mut p = RandPartitioner::new(42);
        let counts = p.assign_counts(80_000, 8, &mut no_keys);
        assert_eq!(counts.iter().sum::<u64>(), 80_000);
        for c in &counts {
            let dev = (*c as f64 - 10_000.0).abs() / 10_000.0;
            assert!(dev < 0.05, "{counts:?}");
        }
        // Same seed, same mapping — the paper's reproducibility property.
        let mut p2 = RandPartitioner::new(42);
        assert_eq!(p2.assign_counts(80_000, 8, &mut no_keys), counts);
        // Different seed, different mapping.
        let mut p3 = RandPartitioner::new(43);
        assert_ne!(p3.assign_counts(80_000, 8, &mut no_keys), counts);
    }

    #[test]
    fn skew_matches_paper_fractions() {
        let n = 400_000u64;
        let mut p = SkewPartitioner::new(7);
        let counts = p.assign_counts(n, 8, &mut no_keys);
        assert_eq!(counts.iter().sum::<u64>(), n);
        let frac = |i: usize| counts[i] as f64 / n as f64;
        // r0: 50% + 12.5%/8 ≈ 51.6%; r1: 25% + 1.6%; r2: 12.5% + 1.6%.
        assert!((frac(0) - 0.5156).abs() < 0.01, "{counts:?}");
        assert!((frac(1) - 0.2656).abs() < 0.01, "{counts:?}");
        assert!((frac(2) - 0.1406).abs() < 0.01, "{counts:?}");
        for r in 3..8 {
            assert!((frac(r) - 0.0156).abs() < 0.005, "{counts:?}");
        }
    }

    #[test]
    fn skew_with_few_reducers_stays_in_range() {
        for n_red in [1u32, 2, 3] {
            let mut p = SkewPartitioner::new(1);
            let counts = p.assign_counts(10_000, n_red, &mut no_keys);
            assert_eq!(counts.len(), n_red as usize);
            assert_eq!(counts.iter().sum::<u64>(), 10_000);
        }
    }

    #[test]
    fn skew_integer_rule_equals_next_double_rule() {
        // The paper's rule as first written, on the f64 of nextDouble().
        fn by_double(rng: &mut JavaRandom, n_reducers: u32) -> u32 {
            let last = n_reducers - 1;
            let u = rng.next_double();
            if u < 0.50 {
                0
            } else if u < 0.75 {
                1u32.min(last)
            } else if u < 0.875 {
                2u32.min(last)
            } else {
                rng.next_int_bound(n_reducers as i32) as u32
            }
        }
        for (seed, n_red) in [(11i64, 1u32), (12, 2), (13, 3), (14, 8), (15, 12)] {
            let mut a = JavaRandom::new(seed);
            let mut b = JavaRandom::new(seed);
            for _ in 0..20_000 {
                assert_eq!(skew_pick(&mut a, n_red), by_double(&mut b, n_red));
            }
            assert_eq!(a.next_int(), b.next_int(), "n_reducers = {n_red}");
        }
    }

    #[test]
    fn skew_random_tail_is_uniform_across_all_reducers() {
        // The last 12.5 % bucket draws nextInt(n) over ALL reducers, so a
        // reducer past rank 2 sees exactly the tail share: 12.5 % / n.
        let n = 400_000u64;
        let mut p = SkewPartitioner::new(9);
        let counts = p.assign_counts(n, 4, &mut no_keys);
        let frac3 = counts[3] as f64 / n as f64;
        assert!((frac3 - 0.031_25).abs() < 0.005, "{counts:?}");
    }

    #[test]
    fn skew_two_reducers_fold_onto_paper_fractions() {
        // With two reducers the 25 % and 12.5 % buckets both clamp onto
        // reducer 1 and the random tail splits evenly:
        // r0 = 50 % + 6.25 % = 56.25 %, r1 = 25 % + 12.5 % + 6.25 %.
        let n = 200_000u64;
        let mut p = SkewPartitioner::new(5);
        let counts = p.assign_counts(n, 2, &mut no_keys);
        assert_eq!(counts.iter().sum::<u64>(), n);
        let frac = |i: usize| counts[i] as f64 / n as f64;
        assert!((frac(0) - 0.5625).abs() < 0.01, "{counts:?}");
        assert!((frac(1) - 0.4375).abs() < 0.01, "{counts:?}");
    }

    #[test]
    fn skew_three_reducers_match_paper_fractions() {
        // The smallest grid the paper's MR-SKEW definition fully fits:
        // r0 = 50 % + 12.5 %/3, r1 = 25 % + 12.5 %/3, r2 = 12.5 % + 12.5 %/3.
        let n = 300_000u64;
        let mut p = SkewPartitioner::new(13);
        let counts = p.assign_counts(n, 3, &mut no_keys);
        let frac = |i: usize| counts[i] as f64 / n as f64;
        assert!((frac(0) - (0.50 + 0.125 / 3.0)).abs() < 0.01, "{counts:?}");
        assert!((frac(1) - (0.25 + 0.125 / 3.0)).abs() < 0.01, "{counts:?}");
        assert!((frac(2) - (0.125 + 0.125 / 3.0)).abs() < 0.01, "{counts:?}");
    }

    #[test]
    fn skew_single_reducer_takes_everything() {
        let mut p = SkewPartitioner::new(5);
        assert_eq!(p.assign_counts(10_000, 1, &mut no_keys), vec![10_000]);
    }

    #[test]
    fn factories_have_paper_names() {
        assert_eq!(AvgFactory.name(), "MR-AVG");
        assert_eq!(RandFactory.name(), "MR-RAND");
        assert_eq!(SkewFactory.name(), "MR-SKEW");
    }

    #[test]
    fn skew_heavier_than_avg_for_reducer_zero() {
        let mut avg = AvgPartitioner;
        let mut skew = SkewPartitioner::new(3);
        let a = avg.assign_counts(100_000, 8, &mut no_keys);
        let s = skew.assign_counts(100_000, 8, &mut no_keys);
        assert!(s[0] > a[0] * 3, "skew r0 {} vs avg r0 {}", s[0], a[0]);
    }
}

/// MR-ZIPF (extension): keys follow a Zipf distribution over the unique
/// keys, producing the graded, realistic skew the paper's future-work
/// section calls for ("so that users can gain a more concrete
/// understanding of real-world workloads", Sect. 7). Exponent `s = 0`
/// degenerates to uniform; `s = 1` is classic Zipf; larger `s` is
/// heavier-headed.
#[derive(Clone, Debug)]
pub struct ZipfPartitioner {
    rng: JavaRandom,
    exponent: f64,
    /// Cached CDF for the reducer count seen so far.
    cdf: Vec<f64>,
}

impl ZipfPartitioner {
    /// One instance per map task.
    pub fn new(seed: i64, exponent: f64) -> Self {
        assert!(
            exponent >= 0.0 && exponent.is_finite(),
            "exponent must be >= 0"
        );
        ZipfPartitioner {
            rng: JavaRandom::new(seed),
            exponent,
            cdf: Vec::new(),
        }
    }

    fn ensure_cdf(&mut self, n: u32) {
        if self.cdf.len() == n as usize {
            return;
        }
        let mut weights: Vec<f64> = (1..=n)
            .map(|rank| 1.0 / (f64::from(rank)).powf(self.exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        self.cdf = weights;
    }
}

/// First CDF entry `>= u`; the CDF ends at 1.0 so this always hits.
#[inline]
fn zipf_pick(cdf: &[f64], u: f64) -> u32 {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u32
}

impl Partitioner for ZipfPartitioner {
    fn partition(&mut self, _key: &[u8], _ordinal: u64, n_reducers: u32) -> u32 {
        self.ensure_cdf(n_reducers);
        zipf_pick(&self.cdf, self.rng.next_double())
    }

    fn assign_counts(
        &mut self,
        n_records: u64,
        n_reducers: u32,
        _key_of: &mut dyn FnMut(u64, &mut Vec<u8>),
    ) -> Vec<u64> {
        self.ensure_cdf(n_reducers);
        count_picks(n_records, n_reducers, || {
            zipf_pick(&self.cdf, self.rng.next_double())
        })
    }
}

/// Factory for [`ZipfPartitioner`].
#[derive(Clone, Copy, Debug)]
pub struct ZipfFactory {
    /// Zipf exponent `s`.
    pub exponent: f64,
}

impl ZipfFactory {
    /// A factory drawing keys with exponent `s`.
    pub fn new(exponent: f64) -> Self {
        ZipfFactory { exponent }
    }
}

impl PartitionerFactory for ZipfFactory {
    fn create(&self, _map_index: u32, seed: u64) -> Box<dyn Partitioner> {
        Box::new(ZipfPartitioner::new(seed as i64, self.exponent))
    }
    fn name(&self) -> &str {
        "MR-ZIPF"
    }
}

#[cfg(test)]
mod zipf_tests {
    use super::*;

    fn no_keys(_: u64, _: &mut Vec<u8>) {}

    #[test]
    fn zero_exponent_is_uniform() {
        let mut p = ZipfPartitioner::new(1, 0.0);
        let counts = p.assign_counts(80_000, 8, &mut no_keys);
        for c in &counts {
            let dev = (*c as f64 - 10_000.0).abs() / 10_000.0;
            assert!(dev < 0.05, "{counts:?}");
        }
    }

    #[test]
    fn classic_zipf_head_dominates() {
        let mut p = ZipfPartitioner::new(1, 1.0);
        let n = 200_000u64;
        let counts = p.assign_counts(n, 8, &mut no_keys);
        assert_eq!(counts.iter().sum::<u64>(), n);
        // H(8) ~ 2.718; rank-1 share ~ 1/2.718 ~ 36.8%.
        let frac0 = counts[0] as f64 / n as f64;
        assert!((0.34..0.40).contains(&frac0), "frac0 {frac0}");
        // Monotone decreasing by rank.
        for w in counts.windows(2) {
            assert!(w[0] >= w[1], "{counts:?}");
        }
    }

    #[test]
    fn higher_exponent_is_more_skewed() {
        let head_share = |s: f64| {
            let mut p = ZipfPartitioner::new(3, s);
            let counts = p.assign_counts(100_000, 8, &mut no_keys);
            counts[0] as f64 / 100_000.0
        };
        assert!(head_share(1.5) > head_share(1.0));
        assert!(head_share(1.0) > head_share(0.5));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ZipfPartitioner::new(9, 1.0).assign_counts(10_000, 4, &mut no_keys);
        let b = ZipfPartitioner::new(9, 1.0).assign_counts(10_000, 4, &mut no_keys);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn rejects_negative_exponent() {
        let _ = ZipfPartitioner::new(0, -1.0);
    }
}
