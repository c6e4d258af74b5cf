//! Property-style tests for the micro-benchmark suite, run over seeded
//! case grids (the workspace carries no external test dependencies).

use mapreduce::engine::synthetic_key;
use mapreduce::job::{JobSpec, PartitionerFactory};
use mapreduce::partition::Partitioner;
use mapreduce::shuffle::ShufflePlan;
use mapreduce::{HashPartitionerFactory, JobConf};
use mrbench::partitioners::{
    AvgFactory, AvgPartitioner, RandFactory, RandPartitioner, SkewFactory, SkewPartitioner,
    ZipfFactory,
};
use simcore::rng::{JavaRandom, SeedFactory, SplitMix64};

fn no_keys(_: u64, _: &mut Vec<u8>) {}

/// Every partitioner conserves the record mass for any workload shape.
#[test]
fn partitioners_conserve_mass() {
    let mut rng = SplitMix64::new(0x3A55);
    for _ in 0..64 {
        let n_records = 1 + rng.next_below(49_999);
        let n_reducers = 1 + rng.next_below(63) as u32;
        let seed = rng.next_u64() as i64;
        let mut no_keys = no_keys;
        for counts in [
            AvgPartitioner.assign_counts(n_records, n_reducers, &mut no_keys),
            RandPartitioner::new(seed).assign_counts(n_records, n_reducers, &mut no_keys),
            SkewPartitioner::new(seed).assign_counts(n_records, n_reducers, &mut no_keys),
        ] {
            assert_eq!(counts.len(), n_reducers as usize);
            assert_eq!(counts.iter().sum::<u64>(), n_records);
        }
    }
}

/// A job's shuffle plan holds, row by row, what each map's own
/// partitioner returns for that map's seed, whichever thread drew the
/// row: MR-RAND and MR-SKEW on their draw kernels (8 reducers) and on the
/// per-record loop (6, 7), MR-ZIPF, Hadoop's hash partitioner and MR-AVG's
/// closed form, for one map, a few and more than the helper budget.
#[test]
fn shuffle_plan_rows_equal_a_direct_draw() {
    let zipf = ZipfFactory::new(1.0);
    let factories: [&dyn PartitionerFactory; 5] = [
        &RandFactory,
        &SkewFactory,
        &zipf,
        &HashPartitionerFactory,
        &AvgFactory,
    ];
    let seeds = SeedFactory::new(0x51AB);
    for factory in factories {
        for (n_maps, n_reducers) in [(5, 6), (5, 8), (1, 8), (2, 7), (19, 8)] {
            let spec = JobSpec {
                conf: JobConf::with_tasks(n_maps, n_reducers),
                pairs_per_map: 4_321,
                key_size: 12,
                ..JobSpec::default()
            };
            let plan = ShufflePlan::draw(&spec, factory, &seeds);
            for m in 0..n_maps {
                let mut direct = factory.create(m, seeds.seed_for(&format!("map-{m}")));
                let row = direct.assign_counts(spec.pairs_per_map, n_reducers, &mut |i, buf| {
                    synthetic_key(i, n_reducers, spec.key_size, buf)
                });
                let planned: Vec<u64> = (0..n_reducers).map(|r| plan.records(m, r)).collect();
                assert_eq!(
                    planned,
                    row,
                    "{} map {m} of {n_maps}x{n_reducers}",
                    factory.name()
                );
            }
        }
    }
}

/// `factory`'s `assign_counts` against its per-record `partition` loop:
/// the same counts, and the same next draws after them.
fn assert_bulk_equals_loop(
    factory: &dyn PartitionerFactory,
    seed: u64,
    n_records: u64,
    n_reducers: u32,
) {
    let mut bulk = factory.create(0, seed);
    let mut serial = factory.create(0, seed);
    let counts = bulk.assign_counts(n_records, n_reducers, &mut no_keys);
    let mut looped = vec![0u64; n_reducers as usize];
    for i in 0..n_records {
        looped[serial.partition(&[], i, n_reducers) as usize] += 1;
    }
    let case = format!(
        "{} seed={seed} n_records={n_records} n_reducers={n_reducers}",
        factory.name()
    );
    assert_eq!(counts, looped, "{case}");
    for i in n_records..n_records + 3 {
        assert_eq!(
            bulk.partition(&[], i, n_reducers),
            serial.partition(&[], i, n_reducers),
            "next draw after {case}"
        );
    }
}

/// Every partitioner's `assign_counts` equals its per-record `partition`
/// loop exactly, and leaves its generator where the loop leaves it: the
/// closed form (MR-AVG) and the key-free bulk paths (MR-RAND, MR-SKEW,
/// MR-ZIPF) against the reference they must reproduce. Record counts
/// include the empty and one-record maps; reducer counts cover 1..=64,
/// powers of two (no `nextInt` rejection) and the rest.
///
/// MR-RAND and MR-SKEW run draw kernels for power-of-two bounds up to
/// 256, so those get record counts around the kernels' boundaries too:
/// either side of MR-RAND's 8-lane steps, odd counts for MR-SKEW's
/// two-or-three-draw records, a count past 100 000 for several MR-SKEW
/// lane rounds, and 512 reducers, past the kernels, on the per-record
/// loop.
#[test]
fn bulk_assign_counts_equals_per_record_loop() {
    let factories: [&dyn PartitionerFactory; 4] = [
        &AvgFactory,
        &RandFactory,
        &SkewFactory,
        &ZipfFactory::new(1.0),
    ];
    let mut rng = SplitMix64::new(0xA7612);
    for factory in factories {
        for n_reducers in 1..=64u32 {
            let sizes = [0, 1, 2, 1 + rng.next_below(999), 1 + rng.next_below(9_999)];
            for n_records in sizes {
                assert_bulk_equals_loop(factory, rng.next_u64(), n_records, n_reducers);
            }
        }
    }
    let k = 1_250;
    let boundaries = [7, 8, 9, 8 * k - 1, 8 * k, 8 * k + 1, 100_003];
    for factory in [&RandFactory as &dyn PartitionerFactory, &SkewFactory] {
        for n_reducers in [1, 2, 8, 16, 256, 512] {
            for n_records in boundaries {
                assert_bulk_equals_loop(factory, rng.next_u64(), n_records, n_reducers);
            }
        }
    }
}

/// The MR-SKEW kernel hands the generator back at the state after the
/// last record's last draw; here that record takes the third draw, so
/// stopping one draw short shows in the next draws.
#[test]
fn skew_bulk_ends_after_a_last_third_draw() {
    let (seed, n_records) = (1, 100_001);
    let mut rng = JavaRandom::new(seed as i64);
    let mut last_took_third = false;
    for _ in 0..n_records {
        last_took_third = rng.next(26) >> 23 == 7;
        rng.next(27);
        if last_took_third {
            rng.next(31);
        }
    }
    assert!(
        last_took_third,
        "seed {seed} no longer ends on a third draw"
    );
    for n_reducers in [8, 16] {
        assert_bulk_equals_loop(&SkewFactory, seed, n_records, n_reducers);
    }
}

/// MR-SKEW's head reducers dominate in the documented order for any
/// seed, once the sample is large enough for the law of large numbers.
#[test]
fn skew_orders_head_reducers() {
    let mut rng = SplitMix64::new(0x5EE1);
    for _ in 0..24 {
        let seed = rng.next_u64() as i64;
        let n_reducers = 4 + rng.next_below(28) as u32;
        let n = 200_000u64;
        let counts = SkewPartitioner::new(seed).assign_counts(n, n_reducers, &mut no_keys);
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
        for r in 3..n_reducers as usize {
            assert!(
                counts[2] > counts[r],
                "r2 {} vs tail {}",
                counts[2],
                counts[r]
            );
        }
        // Reducer 0 carries roughly half the load.
        let frac0 = counts[0] as f64 / n as f64;
        assert!((0.47..0.57).contains(&frac0), "frac0 = {frac0}");
    }
}

/// MR-RAND is reproducible per seed and near-uniform.
#[test]
fn rand_reproducible_per_seed() {
    let mut rng = SplitMix64::new(0x2A4D);
    for _ in 0..24 {
        let seed = rng.next_u64() as i64;
        let a = RandPartitioner::new(seed).assign_counts(50_000, 8, &mut no_keys);
        let b = RandPartitioner::new(seed).assign_counts(50_000, 8, &mut no_keys);
        assert_eq!(&a, &b);
        for c in &a {
            let dev = (*c as f64 - 6_250.0).abs() / 6_250.0;
            assert!(dev < 0.10, "counts {a:?}");
        }
    }
}
