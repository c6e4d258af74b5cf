//! The batch progressive-filling max-min solver, kept verbatim as the
//! test oracle for the incremental `simnet::FairshareSolver`. It is not
//! part of the library: production code has exactly one max-min solver.
//!
//! It allocates fresh buffers and recounts resource membership on every
//! call, rescanning every flow per freeze round. The resource layout is
//! the one `simnet::fairshare` documents: `[0, n)` egress, `[n, 2n)`
//! ingress, then rack uplinks and downlinks, then the optional fabric.

use simnet::fairshare::{FlowSpec, RackCaps};

/// The solver's strictly positive rate floor (see `simnet::fairshare`).
fn rate_floor_for(max_cap: f64) -> f64 {
    (max_cap * 1e-12).max(f64::MIN_POSITIVE)
}

/// Compute max-min fair rates (bytes/s) for `flows` on a flat crossbar.
///
/// * `egress[n]` / `ingress[n]` — per-direction NIC capacities.
/// * `fabric` — optional aggregate capacity shared by all flows.
///
/// Flows with `src == dst` must be filtered out by the caller (loopback
/// does not cross the fabric).
///
/// This is the batch reference implementation (and test oracle for
/// [`FairshareSolver`]); the network hot path uses the incremental solver.
pub fn max_min_rates(
    flows: &[FlowSpec],
    egress: &[f64],
    ingress: &[f64],
    fabric: Option<f64>,
) -> Vec<f64> {
    max_min_rates_racked(flows, egress, ingress, None, fabric)
}

/// [`max_min_rates`] with an optional rack layer (see the module docs for
/// the resource layout). With `racks: None` this performs the exact same
/// floating-point operations as the flat solver.
pub fn max_min_rates_racked(
    flows: &[FlowSpec],
    egress: &[f64],
    ingress: &[f64],
    racks: Option<RackCaps<'_>>,
    fabric: Option<f64>,
) -> Vec<f64> {
    let nf = flows.len();
    if nf == 0 {
        return Vec::new();
    }
    let n = egress.len();
    assert_eq!(n, ingress.len(), "egress/ingress length mismatch");
    let n_racks = racks.map_or(0, |r| {
        assert_eq!(r.rack_of.len(), n, "rack_of length mismatch");
        r.uplink.len()
    });

    let n_res = 2 * n + 2 * n_racks + usize::from(fabric.is_some());
    let mut remaining = vec![0.0f64; n_res];
    remaining[..n].copy_from_slice(egress);
    remaining[n..2 * n].copy_from_slice(ingress);
    if let Some(r) = racks {
        remaining[2 * n..2 * n + n_racks].copy_from_slice(r.uplink);
        remaining[2 * n + n_racks..2 * n + 2 * n_racks].copy_from_slice(r.uplink);
    }
    if let Some(f) = fabric {
        remaining[2 * n + 2 * n_racks] = f;
    }

    let mut unfrozen_count = vec![0usize; n_res];
    let resources_of = |f: &FlowSpec| -> [usize; 5] {
        let fab = if fabric.is_some() {
            2 * n + 2 * n_racks
        } else {
            usize::MAX
        };
        let (up, down) = match racks {
            Some(r) => {
                let (rs, rd) = (r.rack_of[f.src], r.rack_of[f.dst]);
                if rs != rd {
                    (2 * n + rs, 2 * n + n_racks + rd)
                } else {
                    (usize::MAX, usize::MAX)
                }
            }
            None => (usize::MAX, usize::MAX),
        };
        [f.src, n + f.dst, up, down, fab]
    };
    for f in flows {
        assert!(f.src != f.dst, "loopback flows must not enter the solver");
        assert!(f.src < n && f.dst < n, "flow references unknown node");
        for r in resources_of(f) {
            if r != usize::MAX {
                unfrozen_count[r] += 1;
            }
        }
    }

    let mut rates = vec![f64::NAN; nf];
    let mut frozen = vec![false; nf];
    let mut n_frozen = 0;

    let max_cap = remaining.iter().cloned().fold(0.0f64, f64::max);
    let rate_floor = rate_floor_for(max_cap);

    while n_frozen < nf {
        // Find the bottleneck: the resource with the smallest fair share.
        let mut best_share = f64::INFINITY;
        let mut best_res = usize::MAX;
        for (r, &cnt) in unfrozen_count.iter().enumerate() {
            if cnt > 0 {
                let share = (remaining[r] / cnt as f64).max(0.0);
                if share < best_share {
                    best_share = share;
                    best_res = r;
                }
            }
        }
        if best_res == usize::MAX {
            // No contended resources remain (unreachable while flows are
            // unfrozen, since every flow crosses ≥2 resources), freeze
            // the rest at the floor defensively — with full bookkeeping,
            // so the post-solve invariants below still hold.
            for (i, fz) in frozen.iter_mut().enumerate() {
                if !*fz {
                    *fz = true;
                    rates[i] = rate_floor;
                    for r in resources_of(&flows[i]) {
                        if r != usize::MAX {
                            remaining[r] = (remaining[r] - rate_floor).max(0.0);
                            unfrozen_count[r] -= 1;
                        }
                    }
                }
            }
            break;
        }

        // Freeze every unfrozen flow crossing the bottleneck. The frozen
        // rate (floored) is exactly what is subtracted from the crossed
        // resources, so `remaining` always reflects the allocation and
        // the incremental solver can rely on it.
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let crosses = resources_of(f).contains(&best_res);
            if crosses {
                frozen[i] = true;
                n_frozen += 1;
                let rate = best_share.max(rate_floor);
                rates[i] = rate;
                for r in resources_of(f) {
                    if r != usize::MAX {
                        remaining[r] = (remaining[r] - rate).max(0.0);
                        unfrozen_count[r] -= 1;
                    }
                }
            }
        }
    }

    // Post-solve invariants: every flow frozen exactly once (all
    // per-resource unfrozen counts came back to zero) and the allocation
    // is feasible (no resource over capacity beyond the float tolerance).
    debug_assert!(
        unfrozen_count.iter().all(|&c| c == 0),
        "unfrozen counts must return to zero after the solve"
    );
    #[cfg(debug_assertions)]
    assert_feasible(flows, egress, ingress, racks, fabric, &rates, rate_floor);

    rates
}

/// Debug-only feasibility check: per-resource allocated bandwidth must
/// not exceed capacity beyond float tolerance plus the floor overshoot
/// (flows frozen at the floor can collectively exceed a capacity that
/// itself drifted to ~0).
#[cfg(debug_assertions)]
fn assert_feasible(
    flows: &[FlowSpec],
    egress: &[f64],
    ingress: &[f64],
    racks: Option<RackCaps<'_>>,
    fabric: Option<f64>,
    rates_bps: &[f64],
    rate_floor_bps: f64,
) {
    let n = egress.len();
    let n_racks = racks.map_or(0, |r| r.uplink.len());
    let mut eg = vec![0.0f64; n];
    let mut ing = vec![0.0f64; n];
    let mut up = vec![0.0f64; n_racks];
    let mut down = vec![0.0f64; n_racks];
    let mut fab = 0.0f64;
    for (f, r) in flows.iter().zip(rates_bps) {
        assert!(r.is_finite() && *r > 0.0, "rate must be positive: {r}");
        eg[f.src] += r;
        ing[f.dst] += r;
        if let Some(rc) = racks {
            let (rs, rd) = (rc.rack_of[f.src], rc.rack_of[f.dst]);
            if rs != rd {
                up[rs] += r;
                down[rd] += r;
            }
        }
        fab += r;
    }
    let tol = |cap: f64| cap * 1e-9 + rate_floor_bps * flows.len() as f64 + 1e-9;
    for i in 0..n {
        assert!(eg[i] <= egress[i] + tol(egress[i]), "egress {i} over cap");
        assert!(
            ing[i] <= ingress[i] + tol(ingress[i]),
            "ingress {i} over cap"
        );
    }
    if let Some(rc) = racks {
        for r in 0..n_racks {
            assert!(
                up[r] <= rc.uplink[r] + tol(rc.uplink[r]),
                "uplink {r} over cap"
            );
            assert!(
                down[r] <= rc.uplink[r] + tol(rc.uplink[r]),
                "downlink {r} over cap"
            );
        }
    }
    if let Some(cap) = fabric {
        assert!(fab <= cap + tol(cap), "fabric over cap");
    }
}
