//! The incremental `simnet::FairshareSolver` checked bit for bit against
//! the batch progressive-filling solver (`reference.rs`): fixed tie
//! scenarios, slot reuse, and seeded random arrival/departure churn over
//! flat and racked topologies, with and without a fabric cap.

mod reference;

use reference::{max_min_rates, max_min_rates_racked};
use simcore::rng::SplitMix64;
use simnet::fairshare::{FairshareSolver, FlowKey, FlowSpec, RackCaps};

#[test]
fn racked_call_without_racks_is_bit_identical_to_flat() {
    // The flat entry point delegates; pin that a None rack layer
    // performs the identical float sequence.
    let flows: Vec<FlowSpec> = (1..8).map(|s| FlowSpec { src: s, dst: 0 }).collect();
    let caps = vec![950e6; 8];
    let flat = max_min_rates(&flows, &caps, &caps, Some(4.0e9));
    let racked = max_min_rates_racked(&flows, &caps, &caps, None, Some(4.0e9));
    for (a, b) in flat.iter().zip(&racked) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// A scenario replayed through the incremental solver must give the
/// oracle's rates, bit for bit.
fn check_incremental(flows: &[FlowSpec], egress: &[f64], ingress: &[f64], fabric: Option<f64>) {
    check_incremental_racked(flows, egress, ingress, None, fabric);
}

fn check_incremental_racked(
    flows: &[FlowSpec],
    egress: &[f64],
    ingress: &[f64],
    racks: Option<RackCaps<'_>>,
    fabric: Option<f64>,
) -> Vec<f64> {
    let oracle = max_min_rates_racked(flows, egress, ingress, racks, fabric);
    let mut solver = FairshareSolver::with_racks(egress, ingress, racks, fabric);
    let keys: Vec<FlowKey> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| solver.add_flow(*f, i as u64))
        .collect();
    solver.solve();
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(
            solver.rate(*k).to_bits(),
            oracle[i].to_bits(),
            "flow {i}: incremental {} vs batch {}",
            solver.rate(*k),
            oracle[i]
        );
    }
    // First solve must report every flow as changed (from NaN).
    assert_eq!(solver.changed().len(), flows.len());
    oracle
}

/// A NIC share ties the fabric share. Freezing the NIC first (the
/// lower index) leaves the fabric `(F - F/3) / 2` for the others,
/// which differs from `F/3` in the last bit, so freezing the fabric
/// first would change their rates.
#[test]
fn nic_and_fabric_tie_resolves_to_the_nic() {
    let f = 1e9;
    assert_ne!((f - f / 3.0) / 2.0, f / 3.0, "test premise");
    let mut egress = vec![f; 6];
    egress[0] = f / 3.0;
    let flows = [
        FlowSpec { src: 0, dst: 1 },
        FlowSpec { src: 2, dst: 3 },
        FlowSpec { src: 4, dst: 5 },
    ];
    let rates = check_incremental_racked(&flows, &egress, &[f; 6], None, Some(f));
    assert_eq!(rates[1].to_bits(), ((f - f / 3.0) / 2.0).to_bits());
}

/// A NIC, a rack uplink and the fabric all tie at `F/3`. Lowest
/// index first means NIC, then uplink, then fabric; any other order
/// moves the intra-rack flow's rate by an ulp.
#[test]
fn nic_uplink_and_fabric_tie_resolves_in_index_order() {
    let f = 1e9;
    let third = f / 3.0;
    let rack_of = [0, 0, 1, 1, 2, 2, 3, 3];
    let uplink = [2.0 * third, f, f, f];
    let racks = RackCaps {
        rack_of: &rack_of,
        uplink: &uplink,
    };
    let mut egress = vec![f; 8];
    egress[0] = third;
    let flows = [
        FlowSpec { src: 0, dst: 2 },
        FlowSpec { src: 1, dst: 4 },
        FlowSpec { src: 6, dst: 7 },
    ];
    let rates = check_incremental_racked(&flows, &egress, &[f; 8], Some(racks), Some(f));
    assert_eq!(rates[0].to_bits(), third.to_bits());
    assert_eq!(rates[1].to_bits(), third.to_bits());
    assert_ne!(rates[2].to_bits(), third.to_bits(), "test premise");
}

/// A drifted-negative NIC share clamps to zero and ties a zero-capacity
/// uplink and a zero fabric: every flow freezes at the floor, in the
/// batch solver's order.
#[test]
fn zero_clamped_shares_tie_like_the_batch_solver() {
    let drifted = 0.3_f64 - 0.1 - 0.1 - 0.1;
    assert!(drifted < 0.0, "test premise");
    let rack_of = [0, 0, 1, 1];
    let uplink = [0.0, 100.0];
    let racks = RackCaps {
        rack_of: &rack_of,
        uplink: &uplink,
    };
    let egress = [drifted, 100.0, 100.0, 100.0];
    let flows = [
        FlowSpec { src: 0, dst: 2 },
        FlowSpec { src: 1, dst: 3 },
        FlowSpec { src: 3, dst: 2 },
    ];
    for fabric in [None, Some(0.0)] {
        let rates = check_incremental_racked(&flows, &egress, &[100.0; 4], Some(racks), fabric);
        assert!(rates.iter().all(|&r| r > 0.0), "{rates:?}");
    }
}

#[test]
fn incremental_matches_batch_on_fixed_scenarios() {
    check_incremental(
        &[FlowSpec { src: 0, dst: 1 }],
        &[100.0, 100.0],
        &[80.0, 80.0],
        None,
    );
    check_incremental(
        &[FlowSpec { src: 0, dst: 2 }, FlowSpec { src: 1, dst: 2 }],
        &[100.0; 3],
        &[100.0; 3],
        None,
    );
    check_incremental(
        &[FlowSpec { src: 0, dst: 2 }, FlowSpec { src: 1, dst: 3 }],
        &[100.0; 4],
        &[100.0; 4],
        Some(120.0),
    );
    let incast: Vec<FlowSpec> = (1..8).map(|s| FlowSpec { src: s, dst: 0 }).collect();
    check_incremental(&incast, &[950.0; 8], &[950.0; 8], None);
}

/// Regression: the final freeze round of a solve leaves its touched
/// resources queued as dirty; a later solve must reset those flags
/// when it discards the stale queue, or the resources can never be
/// re-queued and their cached shares go stale mid-solve. Equal
/// capacities make every share a tie, so a single stale ulp changes
/// the freeze cascade — this exact shape caught the bug.
#[test]
fn share_cache_survives_tie_heavy_resolves() {
    let nodes = 8usize;
    let caps = vec![950e6; nodes];
    let mut solver = FairshareSolver::new(&caps, &caps, None);
    let mut live: Vec<(FlowKey, FlowSpec)> = Vec::new();
    for s in 0..nodes {
        for d in 0..nodes {
            if s != d {
                let spec = FlowSpec { src: s, dst: d };
                live.push((solver.add_flow(spec, live.len() as u64), spec));
            }
        }
    }
    // Several rounds of batched removals, bit-comparing after each.
    for round in 0..6 {
        solver.solve();
        let specs: Vec<FlowSpec> = live.iter().map(|(_, s)| *s).collect();
        let oracle = max_min_rates(&specs, &caps, &caps, None);
        for ((k, _), want) in live.iter().zip(&oracle) {
            assert_eq!(
                solver.rate(*k).to_bits(),
                want.to_bits(),
                "round {round}: incremental {} vs batch {want}",
                solver.rate(*k)
            );
        }
        // Remove every 5th surviving flow.
        let mut i = 0;
        live.retain(|(k, _)| {
            let drop = i % 5 == 0;
            i += 1;
            if drop {
                solver.remove_flow(*k);
            }
            !drop
        });
    }
}

/// Seeded random arrival/departure churn, bit-compared against the
/// batch oracle after every solve. Equal capacities keep the shares
/// tie-heavy (the hardest case for cached-share bookkeeping). The
/// node counts give resource counts below, at, and off a multiple of
/// the argmin's chunk width.
#[test]
fn incremental_matches_batch_over_random_churn() {
    let mut rng = SplitMix64::new(0x5eed_7fa1);
    for (nodes, fabric) in [
        (10usize, None),
        (10, Some(4.0e9)),
        (3, Some(4.0e9)),
        (4, None),
        (4, Some(2.0e9)),
    ] {
        let caps = vec![950e6; nodes];
        let mut solver = FairshareSolver::new(&caps, &caps, fabric);
        let mut live: Vec<(FlowKey, FlowSpec)> = Vec::new();
        for step in 0..1_200 {
            let add = live.is_empty() || rng.next_below(10) < 6;
            if add {
                let src = rng.next_below(nodes as u64) as usize;
                let mut dst = rng.next_below(nodes as u64) as usize;
                if dst == src {
                    dst = (dst + 1) % nodes;
                }
                let spec = FlowSpec { src, dst };
                live.push((solver.add_flow(spec, step), spec));
            } else {
                let at = rng.next_below(live.len() as u64) as usize;
                let (k, _) = live.remove(at);
                solver.remove_flow(k);
            }
            solver.solve();
            let specs: Vec<FlowSpec> = live.iter().map(|(_, s)| *s).collect();
            let oracle = max_min_rates(&specs, &caps, &caps, fabric);
            for ((k, _), want) in live.iter().zip(&oracle) {
                assert_eq!(
                    solver.rate(*k).to_bits(),
                    want.to_bits(),
                    "step {step}: incremental {} vs batch {want}",
                    solver.rate(*k)
                );
            }
        }
    }
}

/// The same churn discipline over randomized *rack* topologies: a
/// seeded random rack assignment and tight uplinks (a 2-level
/// resource set), bit-compared against the racked batch oracle after
/// every solve — with and without a fabric cap on top. The
/// `(nodes, racks)` pairs put the resource count (`2·nodes + 2·racks`,
/// plus one with a fabric) on and off multiples of the argmin's chunk
/// width.
#[test]
fn incremental_matches_batch_over_random_rack_churn() {
    let mut rng = SplitMix64::new(0x5eed_7fa2);
    for fabric in [None, Some(3.0e9)] {
        for (nodes, n_racks) in [(12usize, 2usize), (12, 4), (13, 3), (5, 2), (9, 4)] {
            // Random (not necessarily contiguous or balanced) rack
            // assignment; every rack is guaranteed a member by
            // seeding the first n_racks nodes round-robin.
            let rack_of: Vec<usize> = (0..nodes)
                .map(|i| {
                    if i < n_racks {
                        i
                    } else {
                        rng.next_below(n_racks as u64) as usize
                    }
                })
                .collect();
            // Tight uplinks so they genuinely bind: ~1.5 NICs worth
            // per rack regardless of member count.
            let uplink: Vec<f64> = (0..n_racks)
                .map(|r| 950e6 * (1.0 + 0.5 * ((r % 2) as f64)))
                .collect();
            let caps = vec![950e6; nodes];
            let racks = RackCaps {
                rack_of: &rack_of,
                uplink: &uplink,
            };
            let mut solver = FairshareSolver::with_racks(&caps, &caps, Some(racks), fabric);
            let mut live: Vec<(FlowKey, FlowSpec)> = Vec::new();
            for step in 0..600 {
                let add = live.is_empty() || rng.next_below(10) < 6;
                if add {
                    let src = rng.next_below(nodes as u64) as usize;
                    let mut dst = rng.next_below(nodes as u64) as usize;
                    if dst == src {
                        dst = (dst + 1) % nodes;
                    }
                    let spec = FlowSpec { src, dst };
                    live.push((solver.add_flow(spec, step), spec));
                } else {
                    let at = rng.next_below(live.len() as u64) as usize;
                    let (k, _) = live.remove(at);
                    solver.remove_flow(k);
                }
                solver.solve();
                let specs: Vec<FlowSpec> = live.iter().map(|(_, s)| *s).collect();
                let oracle = max_min_rates_racked(&specs, &caps, &caps, Some(racks), fabric);
                for ((k, _), want) in live.iter().zip(&oracle) {
                    assert_eq!(
                        solver.rate(*k).to_bits(),
                        want.to_bits(),
                        "racks {n_racks} step {step}: incremental {} vs batch {want}",
                        solver.rate(*k)
                    );
                }
            }
        }
    }
}

#[test]
fn slot_reuse_keeps_arrival_order() {
    // Remove a middle flow, add a new one: the new flow reuses the
    // slab slot but must sort *after* the survivors (fresh seq), so
    // the freeze order still matches a batch call in arrival order.
    let caps = [100.0f64; 4];
    let mut solver = FairshareSolver::new(&caps, &caps, None);
    let a = solver.add_flow(FlowSpec { src: 0, dst: 2 }, 0);
    let b = solver.add_flow(FlowSpec { src: 1, dst: 2 }, 1);
    let _c = solver.add_flow(FlowSpec { src: 3, dst: 2 }, 2);
    solver.remove_flow(b);
    let _d = solver.add_flow(FlowSpec { src: 1, dst: 2 }, 3);
    solver.solve();
    let oracle = max_min_rates(
        &[
            solver.spec(a),
            FlowSpec { src: 3, dst: 2 },
            FlowSpec { src: 1, dst: 2 },
        ],
        &caps,
        &caps,
        None,
    );
    assert_eq!(solver.rate(a).to_bits(), oracle[0].to_bits());
}
