//! The slab `cluster::CpuSim` checked bit for bit against the original
//! `BTreeMap` simulator (`reference.rs`) over seeded random
//! submit/advance/drain sequences.

mod reference;

use cluster::CpuSim;
use simcore::rng::SplitMix64;
use simcore::time::{SimDuration, SimTime};

/// A work amount: mostly ordinary, sometimes zero or below the
/// completion threshold, so "due at once" paths run too.
fn work(rng: &mut SplitMix64) -> f64 {
    match rng.next_below(10) {
        0 => 0.0,
        1 => 1e-13,
        _ => rng.next_f64() * 5.0,
    }
}

/// Both simulators advanced to `now` must finish the same jobs, on the
/// same nodes, with the same tags, in the same order.
fn advance_both(new: &mut CpuSim, old: &mut reference::CpuSim, now: SimTime, ctx: &str) {
    let a: Vec<String> = new
        .advance_to(now)
        .iter()
        .map(|c| format!("{:?}@{}#{}", c.id, c.node, c.tag))
        .collect();
    let b: Vec<String> = old
        .advance_to(now)
        .iter()
        .map(|c| format!("{:?}@{}#{}", c.id, c.node, c.tag))
        .collect();
    assert_eq!(a, b, "{ctx}: completions differ");
}

#[test]
fn slab_cpu_matches_reference_bit_for_bit() {
    let mut rng = SplitMix64::new(0xC0DE_5EED);
    for case in 0..200 {
        let nodes = 1 + rng.next_below(16) as usize;
        let cores: Vec<u32> = (0..nodes).map(|_| 1 + rng.next_below(8) as u32).collect();
        let speed: Vec<f64> = (0..nodes).map(|_| 0.25 + rng.next_f64() * 2.75).collect();
        let (mut new, mut old) = if rng.next_below(4) == 0 {
            (
                CpuSim::homogeneous(nodes, cores[0], speed[0]),
                reference::CpuSim::homogeneous(nodes, cores[0], speed[0]),
            )
        } else {
            (
                CpuSim::new(cores.clone(), speed.clone()),
                reference::CpuSim::new(cores, speed),
            )
        };
        assert_eq!(new.n_nodes(), old.n_nodes());
        let mut now = SimTime::ZERO;
        for step in 0..300 {
            let ctx = format!("case {case} step {step}");
            match rng.next_below(10) {
                // A burst of submissions, sometimes at a later instant
                // with no advance in between.
                0..=3 => {
                    if rng.next_below(3) == 0 {
                        now += SimDuration::from_nanos(rng.next_below(500_000_000));
                    }
                    for _ in 0..1 + rng.next_below(4) {
                        let node = rng.next_below(nodes as u64) as usize;
                        let w = work(&mut rng);
                        let tag = rng.next_u64();
                        let a = new.submit(now, node, w, tag);
                        let b = old.submit(now, node, w, tag);
                        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{ctx}: job ids");
                    }
                }
                // Step to the next event, as the engine does.
                4..=6 => {
                    if let Some(t) = new.next_event_time() {
                        now = now.max(t);
                    }
                    advance_both(&mut new, &mut old, now, &ctx);
                }
                // Step part-way, or past several events at once.
                7 | 8 => {
                    now += SimDuration::from_nanos(rng.next_below(3_000_000_000));
                    advance_both(&mut new, &mut old, now, &ctx);
                }
                // A monitor drain, at the clock or a little ahead of it.
                _ => {
                    if rng.next_below(2) == 0 {
                        now += SimDuration::from_nanos(rng.next_below(200_000_000));
                    }
                    let node = rng.next_below(nodes as u64) as usize;
                    let a = new.drain_busy_core_seconds(node, now);
                    let b = old.drain_busy_core_seconds(node, now);
                    assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: busy {a} vs {b}");
                }
            }
            assert_eq!(new.next_event_time(), old.next_event_time(), "{ctx}");
            assert_eq!(new.now(), old.now(), "{ctx}");
            for node in 0..nodes {
                assert_eq!(new.runnable(node), old.runnable(node), "{ctx}");
                assert_eq!(new.cores(node), old.cores(node), "{ctx}");
                assert_eq!(
                    new.utilization_pct(node).to_bits(),
                    old.utilization_pct(node).to_bits(),
                    "{ctx}"
                );
            }
        }
        for node in 0..nodes {
            let a = new.drain_busy_core_seconds(node, now);
            let b = old.drain_busy_core_seconds(node, now);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "case {case} final busy {a} vs {b}"
            );
        }
    }
}
