//! Max-min fair bandwidth allocation.
//!
//! The flow-level network model assigns each active flow the rate TCP (or
//! the IB hardware arbiter) would converge to: the *max-min fair*
//! allocation subject to per-NIC egress/ingress capacities, optional
//! per-rack uplink capacities (oversubscribed top-of-rack switches), and
//! an optional aggregate fabric capacity. The classic progressive-filling
//! algorithm is used: repeatedly find the most-contended resource, freeze
//! all flows crossing it at its fair share, subtract, and continue.
//!
//! [`FairshareSolver`] is the one max-min solver in the library. It keeps
//! per-resource membership lists and reusable scratch buffers across
//! calls, so a flow arrival or departure is O(1) bookkeeping and each
//! re-solve touches only the bottleneck sets (resources and the flows
//! frozen at them) instead of rescanning every flow per round.
//!
//! Its freeze order, and therefore every floating-point operation, is
//! that of the textbook batch algorithm run over the flows in arrival
//! order. That batch solver lives under `tests/fairshare_oracle/` as the
//! test oracle, which checks the two bit for bit.
//!
//! Resource layout: `[0, n)` egress, `[n, 2n)` ingress, then (when a rack
//! layer is present) `[2n, 2n+R)` rack uplinks (egress direction) and
//! `[2n+R, 2n+2R)` rack downlinks (ingress direction), and finally the
//! optional fabric resource. A flow whose endpoints sit in different
//! racks consumes src-egress, src-rack-uplink, dst-rack-downlink and
//! dst-ingress; an intra-rack flow only its NIC resources. Callers model
//! a non-blocking rack layer (oversubscription factor 1) by passing no
//! rack layer at all: a factor-1 uplink equals the sum of its member NIC
//! capacities, so it can tie with but never strictly undercut a NIC
//! share, and ties resolve to the lower-indexed NIC resource anyway.

/// A flow as the solver sees it: which resources it crosses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source node index (egress resource).
    pub src: usize,
    /// Destination node index (ingress resource).
    pub dst: usize,
}

/// The rack layer of a topology, as capacities the solver can bind on.
#[derive(Clone, Copy, Debug)]
pub struct RackCaps<'a> {
    /// Rack index per node (`rack_of[node]`, length = node count).
    pub rack_of: &'a [usize],
    /// Per-rack uplink capacity in bytes/s, applied per direction
    /// (full-duplex: the same cap limits traffic leaving and entering
    /// the rack independently). Length = rack count.
    pub uplink: &'a [f64],
}

/// Strictly positive floor for frozen rates. Progressive filling
/// subtracts fair shares from the remaining capacity, and that
/// subtraction can drift a capacity a few ulps below zero; the `.max(0.0)`
/// clamp then freezes every remaining flow at exactly 0 B/s, which the
/// network layer turns into an infinite completion time (the flow is
/// skipped and never finishes). Relative to the largest capacity, 1e-12
/// is far below any real share but keeps every completion time finite.
fn rate_floor_for(max_cap: f64) -> f64 {
    (max_cap * 1e-12).max(f64::MIN_POSITIVE)
}

/// Handle to a flow registered with a [`FairshareSolver`]. Invalidated by
/// [`FairshareSolver::remove_flow`]; using a stale key is a logic error
/// (caught by debug assertions).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowKey(u32);

/// Sentinel for "this flow does not cross that resource" in the per-slot
/// resource quad.
const NO_RES: u32 = u32::MAX;

/// Fair share of a resource with `cnt` unfrozen flows (the batch
/// algorithm's formula), or +inf when it has none so [`argmin`] skips it.
#[inline]
fn share_of(remaining_bps: f64, cnt: usize) -> f64 {
    if cnt > 0 {
        (remaining_bps / cnt as f64).max(0.0)
    } else {
        f64::INFINITY
    }
}

/// Shares per chunk of [`argmin`]'s pass.
const ARGMIN_CHUNK: usize = 8;

/// Index of the smallest finite share, or `None` when every share is
/// +inf. Among equal minima it returns the lowest index, which is what a
/// first-wins strict-`<` scan picks; IEEE `==` ties `±0` the same way.
///
/// One branch-free pass takes each chunk's minimum and keeps the first
/// chunk holding the running minimum (strict `<` never moves to a later
/// equal chunk). The answer is the first share `==` that minimum inside
/// that chunk.
fn argmin(share: &[f64]) -> Option<usize> {
    let mut chunks = share.chunks_exact(ARGMIN_CHUNK);
    let (mut min, mut first) = (f64::INFINITY, 0);
    for (k, chunk) in (&mut chunks).enumerate() {
        let m = chunk_min(chunk.try_into().expect("exact chunk"));
        let lt = m < min;
        min = if lt { m } else { min };
        first = if lt { k * ARGMIN_CHUNK } else { first };
    }
    let tail = chunks.remainder();
    let m = tail.iter().fold(f64::INFINITY, |a, &x| pick_min(a, x));
    if m < min {
        min = m;
        first = share.len() - tail.len();
    }
    if min == f64::INFINITY {
        return None;
    }
    let end = (first + ARGMIN_CHUNK).min(share.len());
    share[first..end]
        .iter()
        .position(|&x| x == min)
        .map(|p| first + p)
}

/// Minimum of one chunk as a tree of pairwise selects, which compiles to
/// packed `min` instructions.
#[inline]
fn chunk_min(c: &[f64; ARGMIN_CHUNK]) -> f64 {
    let q = [
        pick_min(c[0], c[4]),
        pick_min(c[1], c[5]),
        pick_min(c[2], c[6]),
        pick_min(c[3], c[7]),
    ];
    pick_min(pick_min(q[0], q[2]), pick_min(q[1], q[3]))
}

#[inline]
fn pick_min(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// Incremental max-min solver: owns per-resource membership lists and all
/// scratch buffers, so repeated solves over a slowly-changing flow set
/// are allocation-free and skip the full per-round flow rescan of the
/// batch algorithm.
///
/// Usage: [`FairshareSolver::add_flow`] / [`FairshareSolver::remove_flow`]
/// between events, then [`FairshareSolver::solve`]; afterwards
/// [`FairshareSolver::changed`] lists exactly the flows whose rate moved,
/// so callers can leave untouched flows alone.
#[derive(Debug)]
pub struct FairshareSolver {
    n_nodes: usize,
    n_racks: usize,
    /// Rack index per node; empty when the topology has no binding rack
    /// layer.
    rack_of: Vec<usize>,
    /// Fabric resource index, or `usize::MAX` when absent.
    fabric_res: usize,
    /// Static per-resource capacities, in the module's resource layout.
    capacity: Vec<f64>,
    rate_floor_bps: f64,

    // Flow slab (slot-indexed, slots reused LIFO).
    specs: Vec<FlowSpec>,
    users: Vec<u64>,
    seqs: Vec<u64>,
    rates_bps: Vec<f64>,
    frozen_at: Vec<u64>,
    alive: Vec<bool>,
    free: Vec<u32>,
    next_seq: u64,

    /// Precomputed `[egress, ingress, uplink, downlink]` resource indexes
    /// per slot ([`NO_RES`] marks an uncrossed rack resource); the
    /// optional fabric resource is implied by `fabric_res`.
    res_quad: Vec<[u32; 4]>,

    /// Alive slots in arrival (seq) order — the batch algorithm's flow-list
    /// order, which pins the freeze order and float-op sequence.
    active: Vec<u32>,
    /// Per-resource alive slots, each in arrival order.
    res_flows: Vec<Vec<u32>>,

    // Reusable solve scratch.
    remaining: Vec<f64>,
    unfrozen: Vec<usize>,
    /// Cached fair share per resource, recomputed only when the
    /// resource's remaining capacity or unfrozen count changed — the
    /// formula (and therefore the value) is exactly what a per-round
    /// recompute would produce, the cache just skips redundant divisions.
    /// Resources with no unfrozen flow hold +inf.
    share: Vec<f64>,
    res_dirty: Vec<u32>,
    in_dirty: Vec<bool>,
    solve_epoch: u64,
    changed: Vec<(u64, f64)>,
}

impl FairshareSolver {
    /// A solver over flat-crossbar capacities: per-node `egress` and
    /// `ingress`, plus an optional aggregate `fabric` cap.
    pub fn new(egress: &[f64], ingress: &[f64], fabric: Option<f64>) -> Self {
        Self::with_racks(egress, ingress, None, fabric)
    }

    /// A solver with an optional rack layer (see the module docs for the
    /// resource layout).
    pub fn with_racks(
        egress: &[f64],
        ingress: &[f64],
        racks: Option<RackCaps<'_>>,
        fabric: Option<f64>,
    ) -> Self {
        let n = egress.len();
        assert_eq!(n, ingress.len(), "egress/ingress length mismatch");
        let n_racks = racks.map_or(0, |r| {
            assert_eq!(r.rack_of.len(), n, "rack_of length mismatch");
            r.uplink.len()
        });
        let n_res = 2 * n + 2 * n_racks + usize::from(fabric.is_some());
        let mut capacity = vec![0.0f64; n_res];
        capacity[..n].copy_from_slice(egress);
        capacity[n..2 * n].copy_from_slice(ingress);
        if let Some(r) = racks {
            capacity[2 * n..2 * n + n_racks].copy_from_slice(r.uplink);
            capacity[2 * n + n_racks..2 * n + 2 * n_racks].copy_from_slice(r.uplink);
        }
        let fabric_res = if fabric.is_some() {
            2 * n + 2 * n_racks
        } else {
            usize::MAX
        };
        if let Some(f) = fabric {
            capacity[fabric_res] = f;
        }
        let max_cap = capacity.iter().cloned().fold(0.0f64, f64::max);
        FairshareSolver {
            n_nodes: n,
            n_racks,
            rack_of: racks.map_or_else(Vec::new, |r| r.rack_of.to_vec()),
            fabric_res,
            rate_floor_bps: rate_floor_for(max_cap),
            remaining: vec![0.0; n_res],
            unfrozen: vec![0; n_res],
            share: vec![0.0; n_res],
            res_dirty: Vec::new(),
            in_dirty: vec![false; n_res],
            res_flows: (0..n_res).map(|_| Vec::new()).collect(),
            capacity,
            specs: Vec::new(),
            users: Vec::new(),
            seqs: Vec::new(),
            rates_bps: Vec::new(),
            frozen_at: Vec::new(),
            alive: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            res_quad: Vec::new(),
            active: Vec::new(),
            solve_epoch: 0,
            changed: Vec::new(),
        }
    }

    /// Number of registered flows.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// True when no flows are registered.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// The `[egress, ingress, uplink, downlink]` resource quad of a spec
    /// ([`NO_RES`] marks an uncrossed rack resource).
    fn quad_of(&self, spec: FlowSpec) -> [u32; 4] {
        let (up, down) = if self.n_racks > 0 {
            let (rs, rd) = (self.rack_of[spec.src], self.rack_of[spec.dst]);
            if rs != rd {
                (
                    (2 * self.n_nodes + rs) as u32,
                    (2 * self.n_nodes + self.n_racks + rd) as u32,
                )
            } else {
                (NO_RES, NO_RES)
            }
        } else {
            (NO_RES, NO_RES)
        };
        [spec.src as u32, (self.n_nodes + spec.dst) as u32, up, down]
    }

    fn resources_of(&self, spec: FlowSpec) -> [usize; 5] {
        let quad = self.quad_of(spec);
        [
            quad[0] as usize,
            quad[1] as usize,
            if quad[2] == NO_RES {
                usize::MAX
            } else {
                quad[2] as usize
            },
            if quad[3] == NO_RES {
                usize::MAX
            } else {
                quad[3] as usize
            },
            self.fabric_res,
        ]
    }

    /// Register a flow. `user` is an opaque correlation value handed back
    /// by [`FairshareSolver::changed`]. O(1) amortized.
    pub fn add_flow(&mut self, spec: FlowSpec, user: u64) -> FlowKey {
        assert!(
            spec.src != spec.dst,
            "loopback flows must not enter the solver"
        );
        assert!(
            spec.src < self.n_nodes && spec.dst < self.n_nodes,
            "flow references unknown node"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let quad = self.quad_of(spec);
        let slot = match self.free.pop() {
            Some(s) => {
                let i = s as usize;
                self.specs[i] = spec;
                self.users[i] = user;
                self.seqs[i] = seq;
                self.rates_bps[i] = f64::NAN;
                self.frozen_at[i] = 0;
                self.alive[i] = true;
                self.res_quad[i] = quad;
                s
            }
            None => {
                self.specs.push(spec);
                self.users.push(user);
                self.seqs.push(seq);
                self.rates_bps.push(f64::NAN);
                self.frozen_at.push(0);
                self.alive.push(true);
                self.res_quad.push(quad);
                (self.specs.len() - 1) as u32
            }
        };
        // A fresh seq is the largest yet, so push keeps every list in
        // arrival order.
        self.active.push(slot);
        for r in self.resources_of(spec) {
            if r != usize::MAX {
                self.res_flows[r].push(slot);
            }
        }
        FlowKey(slot)
    }

    /// Drop a flow. The key becomes stale. O(flows at its resources).
    pub fn remove_flow(&mut self, key: FlowKey) -> FlowSpec {
        let slot = key.0;
        let i = slot as usize;
        assert!(self.alive[i], "remove_flow on a stale key");
        let spec = self.specs[i];
        let seq = self.seqs[i];
        Self::remove_sorted(&self.seqs, &mut self.active, slot, seq);
        for r in self.resources_of(spec) {
            if r != usize::MAX {
                Self::remove_sorted(&self.seqs, &mut self.res_flows[r], slot, seq);
            }
        }
        self.alive[i] = false;
        self.free.push(slot);
        spec
    }

    /// Remove `slot` from a seq-sorted list via binary search.
    fn remove_sorted(seqs: &[u64], list: &mut Vec<u32>, slot: u32, seq: u64) {
        let pos = list.partition_point(|&s| seqs[s as usize] < seq);
        debug_assert!(list.get(pos) == Some(&slot), "membership list corrupt");
        list.remove(pos);
    }

    /// The spec a key was registered with.
    pub fn spec(&self, key: FlowKey) -> FlowSpec {
        debug_assert!(self.alive[key.0 as usize], "spec() on a stale key");
        self.specs[key.0 as usize]
    }

    /// The rate assigned by the last [`FairshareSolver::solve`].
    pub fn rate(&self, key: FlowKey) -> f64 {
        debug_assert!(self.alive[key.0 as usize], "rate() on a stale key");
        self.rates_bps[key.0 as usize]
    }

    /// Flows whose rate changed in the last solve, as `(user, new_rate)`.
    pub fn changed(&self) -> &[(u64, f64)] {
        &self.changed
    }

    /// Sum of solved rates entering `node`, added in arrival order — the
    /// same order (and therefore the same bits) as summing over an
    /// id-ordered flow list.
    pub fn ingress_rate_sum(&self, node: usize) -> f64 {
        let mut sum = 0.0f64;
        for &s in &self.res_flows[self.n_nodes + node] {
            sum += self.rates_bps[s as usize];
        }
        sum
    }

    /// Recompute the max-min fixed point for the current flow set.
    ///
    /// Bit-identical to the batch progressive-filling algorithm over the
    /// same flows in arrival order: the per-resource membership lists are kept in
    /// arrival order, so bottleneck freezing performs the identical
    /// sequence of floating-point operations — it just skips the
    /// per-round scan of every unrelated flow.
    pub fn solve(&mut self) {
        self.solve_epoch += 1;
        self.changed.clear();
        if self.active.is_empty() {
            return;
        }
        let epoch = self.solve_epoch;
        self.remaining.copy_from_slice(&self.capacity);
        for r in 0..self.unfrozen.len() {
            let cnt = self.res_flows[r].len();
            self.unfrozen[r] = cnt;
            self.share[r] = share_of(self.remaining[r], cnt);
        }
        // The previous solve's final round left its freeze-touched
        // resources queued; drop the stale queue AND reset their flags,
        // or they could never be queued for refresh again.
        for i in 0..self.res_dirty.len() {
            self.in_dirty[self.res_dirty[i] as usize] = false;
        }
        self.res_dirty.clear();

        let mut n_frozen = 0usize;
        let total = self.active.len();
        while n_frozen < total {
            // Refresh the shares of resources touched by the previous
            // round's freezes (deduplicated), then pick the bottleneck
            // from the cache — same values, far fewer divisions than
            // recomputing every share every round.
            for i in 0..self.res_dirty.len() {
                let r = self.res_dirty[i] as usize;
                self.in_dirty[r] = false;
                self.share[r] = share_of(self.remaining[r], self.unfrozen[r]);
            }
            self.res_dirty.clear();
            // Resources without unfrozen flows hold +inf, so an infinite
            // minimum means no contended resource is left.
            let Some(best_res) = argmin(&self.share) else {
                // Defensive: freeze the rest at the floor (same
                // bookkeeping as the batch algorithm).
                for idx in 0..self.active.len() {
                    let fi = self.active[idx] as usize;
                    if self.frozen_at[fi] != epoch {
                        self.freeze(fi, self.rate_floor_bps, epoch, usize::MAX);
                    }
                }
                break;
            };
            let rate = self.share[best_res].max(self.rate_floor_bps);
            // Freeze the bottleneck's members in arrival order. The list
            // is walked by index because `freeze` needs `&mut self`; it
            // only mutates slab columns and scratch, never the lists.
            let before = n_frozen;
            for idx in 0..self.res_flows[best_res].len() {
                let fi = self.res_flows[best_res][idx] as usize;
                if self.frozen_at[fi] != epoch {
                    self.freeze(fi, rate, epoch, best_res);
                    n_frozen += 1;
                }
            }
            // Every unfrozen member froze this round, so the bottleneck
            // is done: its `remaining` (left unsubtracted by `freeze`) is
            // never read again in this solve.
            debug_assert_eq!(n_frozen - before, self.unfrozen[best_res]);
            self.unfrozen[best_res] = 0;
            self.share[best_res] = f64::INFINITY;
        }

        debug_assert!(
            self.unfrozen.iter().all(|&c| c == 0),
            "unfrozen counts must return to zero after the solve"
        );
    }

    /// Freeze flow `fi` at `rate_bps`, charging every resource it crosses
    /// except `bottleneck` (`usize::MAX` for none), whose bookkeeping the
    /// caller settles once for all of its members.
    fn freeze(&mut self, fi: usize, rate_bps: f64, epoch: u64, bottleneck: usize) {
        self.frozen_at[fi] = epoch;
        if self.rates_bps[fi].to_bits() != rate_bps.to_bits() {
            self.changed.push((self.users[fi], rate_bps));
            self.rates_bps[fi] = rate_bps;
        }
        for r in self.res_quad[fi] {
            if r != NO_RES && r as usize != bottleneck {
                self.touch(r as usize, rate_bps);
            }
        }
        if self.fabric_res != usize::MAX && self.fabric_res != bottleneck {
            self.touch(self.fabric_res, rate_bps);
        }
    }

    /// Subtract a frozen rate from resource `r` and queue its share for
    /// recomputation at the next round boundary.
    #[inline]
    fn touch(&mut self, r: usize, rate_bps: f64) {
        self.remaining[r] = (self.remaining[r] - rate_bps).max(0.0);
        self.unfrozen[r] -= 1;
        if !self.in_dirty[r] {
            self.in_dirty[r] = true;
            self.res_dirty.push(r as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * b.abs().max(1.0)
    }

    /// Rates for `flows` from a fresh solver, in flow order.
    fn solve(
        flows: &[FlowSpec],
        egress: &[f64],
        ingress: &[f64],
        racks: Option<RackCaps<'_>>,
        fabric: Option<f64>,
    ) -> Vec<f64> {
        let mut solver = FairshareSolver::with_racks(egress, ingress, racks, fabric);
        let keys: Vec<FlowKey> = flows
            .iter()
            .enumerate()
            .map(|(i, f)| solver.add_flow(*f, i as u64))
            .collect();
        solver.solve();
        keys.iter().map(|&k| solver.rate(k)).collect()
    }

    #[test]
    fn single_flow_gets_bottleneck() {
        let rates = solve(
            &[FlowSpec { src: 0, dst: 1 }],
            &[100.0, 100.0],
            &[80.0, 80.0],
            None,
            None,
        );
        assert!(close(rates[0], 80.0), "{rates:?}");
    }

    #[test]
    fn equal_flows_share_equally() {
        let flows = vec![FlowSpec { src: 0, dst: 2 }, FlowSpec { src: 1, dst: 2 }];
        let rates = solve(&flows, &[100.0; 3], &[100.0; 3], None, None);
        assert!(close(rates[0], 50.0) && close(rates[1], 50.0), "{rates:?}");
    }

    #[test]
    fn max_min_gives_leftover_to_uncontended() {
        // Flows: A: 0->2, B: 1->2, C: 1->3.
        // Ingress 2 is shared by A and B; egress 1 is shared by B and C.
        // Max-min: bottleneck ingress2 share 50 freezes A,B; then C gets
        // egress1's leftover 50... with all caps 100: first bottleneck is
        // ingress2 (2 flows -> 50) and egress1 (2 flows -> 50) tie; after
        // freezing, C gets min(remaining egress1=50, ingress3=100) = 50.
        let flows = vec![
            FlowSpec { src: 0, dst: 2 },
            FlowSpec { src: 1, dst: 2 },
            FlowSpec { src: 1, dst: 3 },
        ];
        let rates = solve(&flows, &[100.0; 4], &[100.0; 4], None, None);
        assert!(close(rates[0], 50.0), "{rates:?}");
        assert!(close(rates[1], 50.0), "{rates:?}");
        assert!(close(rates[2], 50.0), "{rates:?}");
    }

    #[test]
    fn asymmetric_capacities() {
        // Fast sender into slow receiver plus a second fast pair.
        let flows = vec![FlowSpec { src: 0, dst: 1 }, FlowSpec { src: 2, dst: 3 }];
        let egress = [1000.0, 1000.0, 1000.0, 1000.0];
        let ingress = [1000.0, 10.0, 1000.0, 1000.0];
        let rates = solve(&flows, &egress, &ingress, None, None);
        assert!(close(rates[0], 10.0), "{rates:?}");
        assert!(close(rates[1], 1000.0), "{rates:?}");
    }

    #[test]
    fn fabric_cap_limits_aggregate() {
        let flows = vec![FlowSpec { src: 0, dst: 2 }, FlowSpec { src: 1, dst: 3 }];
        let rates = solve(&flows, &[100.0; 4], &[100.0; 4], None, Some(120.0));
        let total: f64 = rates.iter().sum();
        assert!(total <= 120.0 + 1e-6, "{rates:?}");
        assert!(close(rates[0], 60.0) && close(rates[1], 60.0), "{rates:?}");
    }

    #[test]
    fn incast_shares_receiver() {
        // 7 senders to one receiver: classic shuffle incast.
        let flows: Vec<FlowSpec> = (1..8).map(|s| FlowSpec { src: s, dst: 0 }).collect();
        let rates = solve(&flows, &[950.0; 8], &[950.0; 8], None, None);
        for r in &rates {
            assert!(close(*r, 950.0 / 7.0), "{rates:?}");
        }
    }

    #[test]
    fn rack_uplink_limits_cross_rack_flows() {
        // 4 nodes, 2 racks of 2, uplink 100 per direction, NICs 100.
        // Two cross-rack flows (0->2, 1->3) share the rack-0 uplink and
        // the rack-1 downlink: 50 each. An intra-rack flow is untouched.
        let racks = RackCaps {
            rack_of: &[0, 0, 1, 1],
            uplink: &[100.0, 100.0],
        };
        let flows = vec![
            FlowSpec { src: 0, dst: 2 },
            FlowSpec { src: 1, dst: 3 },
            FlowSpec { src: 3, dst: 2 },
        ];
        let rates = solve(&flows, &[100.0; 4], &[100.0; 4], Some(racks), None);
        assert!(close(rates[0], 50.0), "{rates:?}");
        assert!(close(rates[1], 50.0), "{rates:?}");
        // Flow 2 is intra-rack: only contends on ingress 2 with flow 0.
        assert!(close(rates[2], 50.0), "{rates:?}");
    }

    #[test]
    fn intra_rack_flows_ignore_the_uplink() {
        // A starved uplink (1 B/s) must not slow an intra-rack flow.
        let racks = RackCaps {
            rack_of: &[0, 0, 1, 1],
            uplink: &[1.0, 1.0],
        };
        let flows = vec![FlowSpec { src: 0, dst: 1 }, FlowSpec { src: 2, dst: 0 }];
        let rates = solve(&flows, &[100.0; 4], &[100.0; 4], Some(racks), None);
        assert!(close(rates[0], 100.0), "{rates:?}");
        assert!(rates[1] <= 1.0 + 1e-6, "{rates:?}");
    }

    #[test]
    fn work_conservation_and_feasibility() {
        // Random-ish topology, checked for the two fairness invariants:
        // feasibility (no resource over capacity) and work conservation
        // (every flow is bottlenecked somewhere).
        let flows = vec![
            FlowSpec { src: 0, dst: 1 },
            FlowSpec { src: 0, dst: 2 },
            FlowSpec { src: 1, dst: 2 },
            FlowSpec { src: 3, dst: 0 },
            FlowSpec { src: 2, dst: 0 },
            FlowSpec { src: 3, dst: 1 },
        ];
        let egress = [120.0, 90.0, 200.0, 60.0];
        let ingress = [80.0, 150.0, 100.0, 70.0];
        let rates = solve(&flows, &egress, &ingress, None, None);

        let mut eg_used = [0.0; 4];
        let mut in_used = [0.0; 4];
        for (f, r) in flows.iter().zip(&rates) {
            eg_used[f.src] += r;
            in_used[f.dst] += r;
            assert!(*r > 0.0);
        }
        for i in 0..4 {
            assert!(eg_used[i] <= egress[i] + 1e-6);
            assert!(in_used[i] <= ingress[i] + 1e-6);
        }
        // Work conservation: each flow saturates at least one resource.
        for (f, r) in flows.iter().zip(&rates) {
            let eg_full = eg_used[f.src] >= egress[f.src] - 1e-6;
            let in_full = in_used[f.dst] >= ingress[f.dst] - 1e-6;
            assert!(eg_full || in_full, "flow {f:?} rate {r} not bottlenecked");
        }
    }

    #[test]
    fn drifted_negative_capacity_never_freezes_a_flow_at_zero() {
        // Capacities reaching the solver are themselves differences of
        // floats (link rate minus reserved bandwidth, remaining after a
        // partial recompute), so they can drift a few ulps below zero.
        // 0.3 - 0.1 - 0.1 - 0.1 is the classic example: ~-2.8e-17.
        let drifted = 0.3_f64 - 0.1 - 0.1 - 0.1;
        assert!(drifted < 0.0, "test premise: the subtraction must drift");
        let rates = solve(
            &[FlowSpec { src: 0, dst: 1 }, FlowSpec { src: 1, dst: 0 }],
            &[drifted, 100.0],
            &[100.0, 100.0],
            None,
            None,
        );
        // Before the floor, flow 0 froze at exactly 0 B/s — an infinite
        // completion time. Every rate must be strictly positive.
        for r in &rates {
            assert!(*r > 0.0, "{rates:?}");
        }
        // The unaffected flow still gets its real share.
        assert!(close(rates[1], 100.0), "{rates:?}");
    }

    #[test]
    fn empty_input() {
        assert!(solve(&[], &[1.0], &[1.0], None, None).is_empty());
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn rejects_loopback() {
        let _ = solve(
            &[FlowSpec { src: 1, dst: 1 }],
            &[1.0, 1.0],
            &[1.0, 1.0],
            None,
            None,
        );
    }

    #[test]
    fn argmin_takes_the_lowest_index_among_equal_minima() {
        let inf = f64::INFINITY;
        assert_eq!(argmin(&[]), None);
        assert_eq!(argmin(&[inf; 11]), None);
        assert_eq!(argmin(&[inf, 2.0, 1.0, 1.0, 3.0]), Some(2));
        // IEEE `==` ties ±0, so the first zero wins either way round.
        assert_eq!(argmin(&[inf, 0.0, -0.0]), Some(1));
        assert_eq!(argmin(&[inf, -0.0, 0.0]), Some(1));
        // Ties within and across chunks and in the remainder: every
        // length from empty to three chunks plus a partial one, against a
        // strict-`<` first-wins scan.
        let mut rng = simcore::rng::SplitMix64::new(0xA7A1);
        for len in 0..=3 * ARGMIN_CHUNK + 5 {
            for _ in 0..50 {
                let share: Vec<f64> = (0..len)
                    .map(|_| match rng.next_below(4) {
                        0 => inf,
                        1 => 0.0,
                        _ => rng.next_below(3) as f64,
                    })
                    .collect();
                let mut want = None;
                let mut best = inf;
                for (r, &s) in share.iter().enumerate() {
                    if s < best {
                        best = s;
                        want = Some(r);
                    }
                }
                assert_eq!(argmin(&share), want, "{share:?}");
            }
        }
    }

    #[test]
    fn incremental_tracks_arrivals_and_departures() {
        let caps = [100.0f64; 4];
        let mut solver = FairshareSolver::new(&caps, &caps, None);
        let a = solver.add_flow(FlowSpec { src: 0, dst: 2 }, 0);
        let b = solver.add_flow(FlowSpec { src: 1, dst: 2 }, 1);
        solver.solve();
        assert!(close(solver.rate(a), 50.0));
        assert!(close(solver.rate(b), 50.0));

        // B leaves: A takes the whole receiver; only A changes.
        solver.remove_flow(b);
        solver.solve();
        assert!(close(solver.rate(a), 100.0));
        assert_eq!(solver.changed(), &[(0, solver.rate(a))]);

        // A third flow on disjoint resources: A's rate must not change.
        let c = solver.add_flow(FlowSpec { src: 1, dst: 3 }, 2);
        solver.solve();
        assert!(close(solver.rate(a), 100.0));
        assert!(close(solver.rate(c), 100.0));
        assert_eq!(solver.changed().len(), 1, "only the new flow changed");
        assert_eq!(solver.changed()[0].0, 2);
    }

    #[test]
    fn changed_list_is_empty_when_nothing_moves() {
        let caps = [100.0f64; 3];
        let mut solver = FairshareSolver::new(&caps, &caps, None);
        solver.add_flow(FlowSpec { src: 0, dst: 2 }, 0);
        solver.add_flow(FlowSpec { src: 1, dst: 2 }, 1);
        solver.solve();
        assert_eq!(solver.changed().len(), 2);
        solver.solve();
        assert!(solver.changed().is_empty(), "{:?}", solver.changed());
    }
}
