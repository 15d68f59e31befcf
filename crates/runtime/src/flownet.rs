//! Flow-level network model with max-min fair bandwidth sharing.
//!
//! This is the SimGrid-style substrate behind the simulated runtime: every
//! in-flight data transfer is a *flow* crossing a set of *links* (source
//! NIC up, shared backbone, destination NIC down). Whenever a flow starts
//! or finishes, bandwidth is re-allocated by progressive filling: links are
//! saturated in order of their fair share, and the flows bottlenecked there
//! are frozen at that rate.
//!
//! The model is what produces the network-contention "knee" of the paper's
//! response curves: past a certain node count the shared backbone (or the
//! slow partition NICs) saturates and adding nodes stops helping.
//!
//! # Incremental implementation
//!
//! [`FlowNet`] is the production engine: it keeps per-link active-flow
//! counts (`nflows`) and the sorted set of links currently crossed by at
//! least one flow (`touched`) as persistent state updated on flow
//! add/remove, and reuses scratch buffers — the event hot path performs no
//! heap allocation once the buffers have grown. Flow routes live in a
//! shared arena instead of one `Vec` per flow.
//!
//! A rebalance does not re-fill from scratch. The last allocation's rounds
//! are kept — per round its bottleneck, its share, its flows in fix order
//! and a snapshot of its live links as (link, flows fixed in earlier rounds
//! that cross it, residual) — and the next rebalance re-fills from the
//! first round the change can reach, the way SimGrid's max-min solver
//! re-solves only what a change touches:
//! * after completions, from the least round that fixed a finished flow;
//! * after a batch of starts, from the first round where a new flow
//!   crosses the bottleneck, gets a smaller share on one of its links, or
//!   ties the share on a lower link id — or one round earlier if a new flow
//!   crosses a link already dead at that round (every flow on it fixed),
//!   whose residual the snapshot does not hold.
//!
//! Every round before the restart round comes out bit-identical to a
//! re-fill: no removed flow was fixed before it, so the bottleneck keeps
//! its count and share; a removed flow's links can only gain share, so no
//! other link undercuts or ties ahead of the bottleneck; and an added flow
//! is, by the rule above, neither on the bottleneck nor undercutting it.
//! The same flows are fixed at the same share and every residual sees the
//! same subtractions.
//!
//! The two hot loops — the remaining-byte decay of every clock step and
//! the flow-fixing rounds of every rebalance — perform no division per
//! flow. The hot per-flow state (`remaining`, `rate`) lives in dense
//! arrays parallel to `active`; every flow fixed in one progressive-filling
//! round shares one rate, so the round remembers the flow with the least
//! remaining bytes, and both the next completion and the finished flows of
//! a completion instant are found through those few flows. DESIGN.md §5d
//! ("The flow-network arithmetic contract") states which operations are
//! fixed per element and why this yields the same bits as a scan over
//! every flow.
//!
//! `ReferenceFlowNet` is the original from-scratch implementation kept
//! (test builds only) as an executable specification; proptests pin the
//! incremental engine to it with bit-exact (`f64::to_bits`)
//! rate/remaining/busy equality.

/// Identifier of a link inside a [`FlowNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Identifier of a flow inside a [`FlowNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(pub usize);

/// Work done by a [`FlowNet`]'s rebalances since it was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceWork {
    /// Rebalances run.
    pub rebalances: u64,
    /// Flows fixed by re-filled rounds.
    pub flows_fixed: u64,
    /// Flows whose round a rebalance kept from the previous allocation.
    pub flows_kept: u64,
}

/// `Flow::slot` of a flow no rebalance has fixed yet.
const UNFIXED: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Link {
    /// Capacity in bytes per second.
    capacity: f64,
    /// Accumulated time (seconds) with at least one active flow crossing.
    busy: f64,
}

/// The cold part of a flow; its remaining bytes and rate live in
/// `FlowNet::remaining` / `FlowNet::rate` at index `pos` while it is active.
#[derive(Debug, Clone)]
struct Flow {
    /// `route_arena[route_start..route_start + route_len]`.
    route_start: u32,
    route_len: u32,
    /// Index into `active` / `remaining` / `rate` (stale once `done`).
    pos: u32,
    /// Index into `FlowNet::fixed`. The flow is fixed in the current
    /// allocation iff `fixed[slot]` is its id, so truncating `fixed`
    /// unfixes every flow past the cut at once.
    slot: u32,
    done: bool,
}

impl Flow {
    fn route<'a>(&self, arena: &'a [LinkId]) -> &'a [LinkId] {
        &arena[self.route_start as usize..(self.route_start + self.route_len) as usize]
    }
}

/// One progressive-filling round of the current allocation.
///
/// Its flows share `share`, so their completion order is their `remaining`
/// order for as long as the round stands, and the one with the least
/// remaining bytes is the only one the completion fold has to look at.
#[derive(Debug, Clone, Copy)]
struct Round {
    bottleneck: u32,
    /// The round's fair share: the rate of every flow it fixed.
    share: f64,
    /// Id of a flow that held the round's least `remaining` when the round
    /// fixed it.
    min_id: u32,
    /// Start of the round's flows in `FlowNet::fixed` and of its live links
    /// in `FlowNet::snap`; each run ends where the next round's starts.
    fixed_start: u32,
    snap_start: u32,
}

/// A link live (crossed by an unfixed flow) at the start of a round.
#[derive(Debug, Clone, Copy)]
struct SnapLink {
    link: u32,
    /// Route occurrences on the link of flows fixed in earlier rounds: the
    /// round's unfixed count is `nflows - fixed_before` for any flow set
    /// that differs only in flows unfixed at the round.
    fixed_before: u32,
    /// The link's residual capacity at the start of the round.
    resid: f64,
}

/// A set of capacitated links and the flows currently crossing them.
///
/// Time is advanced externally ([`FlowNet::advance_to`]); the structure
/// tracks per-flow remaining bytes and the current max-min fair rates.
#[derive(Debug, Clone, Default)]
pub struct FlowNet {
    links: Vec<Link>,
    flows: Vec<Flow>,
    route_arena: Vec<LinkId>,
    /// Ids of the flows still transferring, in no particular order.
    active: Vec<usize>,
    /// `remaining[k]` / `rate[k]`: bytes left and current rate of flow
    /// `active[k]`. The three are pushed and swap-removed together.
    remaining: Vec<f64>,
    rate: Vec<f64>,
    /// The rounds of the current allocation, in filling order.
    rounds: Vec<Round>,
    /// Flow ids of every round, in fix order (ascending id within a round).
    fixed: Vec<usize>,
    /// Live links of every round, ascending link id within a round.
    snap: Vec<SnapLink>,
    /// Flows with ids at or past this were started after the last
    /// rebalance.
    settled: usize,
    work: RebalanceWork,
    now: f64,
    /// Per link: number of active flow-route occurrences crossing it
    /// (a route listing a link twice counts twice, matching the
    /// progressive-filling share arithmetic).
    nflows: Vec<u32>,
    /// Sorted ids of links with `nflows > 0`. Progressive filling and
    /// busy-time integration walk this instead of all links.
    touched: Vec<usize>,
    // Scratch buffers reused across rebalances (valid only inside one
    // call; `counts`/`resid` are per-link and only read at `live`
    // indices that were initialised this call).
    counts: Vec<u32>,
    resid: Vec<f64>,
    /// Scratch: the links that still carry unfixed flows, ascending,
    /// compacted between progressive-filling rounds.
    live: Vec<usize>,
    /// Scratch: the flows finished at a completion instant.
    finished: Vec<usize>,
    /// Per link: ids of flows whose route crosses it (one entry per route
    /// occurrence), ascending. Entries of finished flows are dropped
    /// lazily, whenever progressive filling walks the list.
    link_flows: Vec<Vec<usize>>,
    /// Deferred-rebalance flag: set by [`FlowNet::start_flow_deferred`],
    /// cleared by [`FlowNet::settle`]. Rates (and the completion cache)
    /// are stale while set; every observation path settles first.
    dirty: bool,
    /// Cached [`FlowNet::next_completion`] value, kept current by
    /// `rebalance` and `integrate_to`: a fold over `rounds`, bit-identical
    /// to an on-demand scan of every active flow.
    next_done: Option<f64>,
}

impl FlowNet {
    /// Empty network at time zero.
    pub fn new() -> Self {
        FlowNet::default()
    }

    /// Add a link with `capacity` bytes/s.
    ///
    /// # Panics
    /// Panics if `capacity` is not positive.
    pub fn add_link(&mut self, capacity: f64) -> LinkId {
        assert!(capacity > 0.0, "link capacity must be positive");
        self.links.push(Link { capacity, busy: 0.0 });
        self.nflows.push(0);
        self.counts.push(0);
        self.resid.push(0.0);
        if self.link_flows.len() < self.links.len() {
            self.link_flows.push(Vec::new());
        }
        LinkId(self.links.len() - 1)
    }

    /// Current simulation time of the network.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of links in the network.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Accumulated busy time of a link: seconds during which at least one
    /// active flow crossed it.
    pub fn link_busy(&self, l: LinkId) -> f64 {
        self.links[l.0].busy
    }

    /// Number of flows still transferring.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// Rebalances run and flows they fixed or kept, since the network was
    /// built (or recycled).
    pub fn work(&self) -> RebalanceWork {
        self.work
    }

    /// Current rate of a flow (0 when done).
    pub fn flow_rate(&self, f: FlowId) -> f64 {
        debug_assert!(!self.dirty, "observed a flow network with deferred starts pending");
        let f = &self.flows[f.0];
        if f.done {
            0.0
        } else {
            self.rate[f.pos as usize]
        }
    }

    /// Remaining bytes of a flow (0 when done).
    #[cfg(test)]
    fn flow_remaining(&self, f: FlowId) -> f64 {
        let f = &self.flows[f.0];
        if f.done {
            0.0
        } else {
            self.remaining[f.pos as usize]
        }
    }

    /// Reset to an empty network at time zero, keeping every allocation
    /// (links, flows, routes, scratch) for reuse.
    pub(crate) fn recycle(&mut self) {
        self.links.clear();
        self.flows.clear();
        self.route_arena.clear();
        self.active.clear();
        self.remaining.clear();
        self.rate.clear();
        self.rounds.clear();
        self.fixed.clear();
        self.snap.clear();
        self.settled = 0;
        self.work = RebalanceWork::default();
        self.now = 0.0;
        self.nflows.clear();
        self.touched.clear();
        self.counts.clear();
        self.resid.clear();
        self.live.clear();
        // Inner per-link lists keep their capacity for the next network.
        for v in &mut self.link_flows {
            v.clear();
        }
        self.dirty = false;
        self.next_done = None;
    }

    /// Start a flow of `bytes` over `route` at the network's current time.
    /// Rates of all flows are re-balanced. A zero-byte flow completes at
    /// the next `advance_to`/`next_completion` query.
    ///
    /// # Panics
    /// Panics if the route references an unknown link or is empty.
    pub fn start_flow(&mut self, route: &[LinkId], bytes: f64) -> FlowId {
        let id = self.start_flow_deferred(route, bytes);
        self.settle();
        id
    }

    /// Like [`FlowNet::start_flow`] but without the rebalance: rates stay
    /// stale until [`FlowNet::settle`] runs. The allocation is a pure
    /// function of the final flow set — it does not depend on intermediate
    /// rates — so batching N same-instant starts under one settle yields a
    /// bit-identical state while paying one rebalance instead of N (the
    /// simulator's event loop relies on this).
    pub(crate) fn start_flow_deferred(&mut self, route: &[LinkId], bytes: f64) -> FlowId {
        assert!(!route.is_empty(), "flow route cannot be empty");
        for l in route {
            assert!(l.0 < self.links.len(), "unknown link in route");
        }
        assert!(bytes >= 0.0, "flow size must be non-negative");
        let id = self.flows.len();
        let route_start = self.route_arena.len() as u32;
        self.route_arena.extend_from_slice(route);
        self.flows.push(Flow {
            route_start,
            route_len: route.len() as u32,
            pos: self.active.len() as u32,
            slot: UNFIXED,
            done: false,
        });
        self.active.push(id);
        self.remaining.push(bytes);
        self.rate.push(0.0);
        for l in route {
            if self.nflows[l.0] == 0 {
                let at = self.touched.partition_point(|&t| t < l.0);
                self.touched.insert(at, l.0);
            }
            self.nflows[l.0] += 1;
            // Flow ids are monotone, so each list stays ascending.
            self.link_flows[l.0].push(id);
        }
        self.dirty = true;
        FlowId(id)
    }

    /// Re-balance if deferred starts are pending.
    pub(crate) fn settle(&mut self) {
        if self.dirty {
            self.dirty = false;
            let from = self.first_round_reached_by_starts();
            self.rebalance(from);
        }
    }

    /// Time at which the next active flow completes, if any.
    pub fn next_completion(&self) -> Option<f64> {
        debug_assert!(!self.dirty, "observed a flow network with deferred starts pending");
        self.next_done
    }

    /// Advance network time to `t`, returning the flows that completed (in
    /// completion order). Rates are re-balanced after each completion.
    ///
    /// Convenience wrapper around [`FlowNet::advance_to_into`]; event
    /// loops should pass their own reusable buffer instead.
    ///
    /// # Panics
    /// Panics if `t` is before the current network time.
    pub fn advance_to(&mut self, t: f64) -> Vec<FlowId> {
        let mut completed = Vec::new();
        self.advance_to_into(t, &mut completed);
        completed
    }

    /// Advance network time to `t`, appending completed flows (in
    /// completion order) to `completed`. Rates are re-balanced after each
    /// completion instant.
    ///
    /// # Panics
    /// Panics if `t` is before the current network time.
    pub fn advance_to_into(&mut self, t: f64, completed: &mut Vec<FlowId>) {
        assert!(t >= self.now - 1e-12, "cannot advance backwards: {t} < {}", self.now);
        self.settle();
        while let Some(next) = self.next_completion() {
            if next > t + 1e-15 {
                break;
            }
            let step = next.max(self.now);
            self.integrate_to(step);
            let from = self.finish_flows(completed);
            self.rebalance(from);
        }
        self.integrate_to(t);
    }

    /// Complete, in ascending id order, every active flow with at most
    /// `1e-9` bytes left — or, if rounding kept every `remaining` above
    /// that, the closest one (least `remaining`, then least id) — and
    /// swap-remove them from the active arrays. Returns the least round
    /// that fixed a finished flow: every round before it stays valid.
    ///
    /// Only rounds whose remembered least-remaining flow is finished can
    /// hold a finished flow (see [`earliest_completion`]), so only their
    /// flows are looked at.
    fn finish_flows(&mut self, completed: &mut Vec<FlowId>) -> usize {
        let FlowNet {
            flows,
            route_arena,
            active,
            remaining,
            rate,
            rounds,
            fixed,
            nflows,
            touched,
            finished,
            ..
        } = self;
        debug_assert!(!active.is_empty(), "a completion instant without active flows");
        finished.clear();
        for (r, g) in rounds.iter().enumerate() {
            if remaining[flows[g.min_id as usize].pos as usize] > 1e-9 {
                continue;
            }
            let end = rounds.get(r + 1).map_or(fixed.len(), |n| n.fixed_start as usize);
            finished.extend(
                fixed[g.fixed_start as usize..end]
                    .iter()
                    .filter(|&&i| remaining[flows[i].pos as usize] <= 1e-9),
            );
        }
        if finished.is_empty() {
            let mut closest = 0;
            for k in 1..active.len() {
                let (rk, rc) = (remaining[k], remaining[closest]);
                if rk < rc || (rk == rc && active[k] < active[closest]) {
                    closest = k;
                }
            }
            finished.push(active[closest]);
        }
        finished.sort_unstable();
        let mut first_slot = usize::MAX;
        for &i in finished.iter() {
            let f = &mut flows[i];
            f.done = true;
            first_slot = first_slot.min(f.slot as usize);
            for l in f.route(route_arena) {
                nflows[l.0] -= 1;
                if nflows[l.0] == 0 {
                    let at = touched.binary_search(&l.0).expect("touched link tracked");
                    touched.remove(at);
                }
            }
            let k = f.pos as usize;
            active.swap_remove(k);
            remaining.swap_remove(k);
            rate.swap_remove(k);
            if let Some(&moved) = active.get(k) {
                flows[moved].pos = k as u32;
            }
            completed.push(FlowId(i));
        }
        rounds.partition_point(|g| g.fixed_start as usize <= first_slot) - 1
    }

    /// The first round of the current allocation that the starts since the
    /// last rebalance can reach; every round before it stays valid.
    ///
    /// At round `r`, a new flow's link `l` leaves the round as it is if it
    /// is not the bottleneck and its share with the new flows counted,
    /// `resid / (nflows − fixed_before)`, is still above the round's share,
    /// or equal to it with `l` after the bottleneck in scan order. If `l`
    /// is dead at `r` (an earlier round fixed every flow on it) its
    /// residual is not in the snapshot, so the restart is `r − 1`, where
    /// it was last live. The result is the least of these over *all* new
    /// links: one link undercutting round `r` does not excuse another that
    /// is dead at `r`.
    fn first_round_reached_by_starts(&mut self) -> usize {
        let FlowNet {
            links,
            flows,
            route_arena,
            rounds,
            fixed,
            snap,
            settled,
            nflows,
            link_flows,
            ..
        } = self;
        // A link shared by several new flows is looked at once per
        // occurrence, which changes nothing but the cost.
        let (new_flows, flows) = (*settled..flows.len(), &flows[..]);
        for r in 0..=rounds.len() {
            let snap_r = round_snap(rounds, snap, r);
            let fixed_end = rounds.get(r).map_or(fixed.len(), |g| g.fixed_start as usize);
            let mut reached = false;
            let new_links = flows[new_flows.clone()].iter().flat_map(|f| f.route(route_arena));
            for l in new_links.map(|l| l.0) {
                let (fixed_before, resid) =
                    match snap_r.binary_search_by_key(&(l as u32), |e| e.link) {
                        Ok(k) => (snap_r[k].fixed_before, snap_r[k].resid),
                        Err(_) if r > 0 && fixed_on(&mut link_flows[l], flows, fixed_end) => {
                            return r - 1
                        }
                        Err(_) => (0, links[l].capacity),
                    };
                let Some(round) = rounds.get(r) else { continue };
                let bl = round.bottleneck as usize;
                let s = resid / (nflows[l] - fixed_before) as f64;
                reached |= l == bl || s < round.share || (s == round.share && l < bl);
            }
            if reached {
                return r;
            }
        }
        rounds.len()
    }

    /// Move the clock to `t` (no completions in between).
    fn integrate_to(&mut self, t: f64) {
        let dt = t - self.now;
        let new_now = self.now.max(t);
        if dt > 0.0 && !self.active.is_empty() {
            // A link is busy for this interval if any active flow crosses
            // it — exactly the touched set (ascending, so busy times
            // accumulate in the same link order as a full scan).
            for &l in &self.touched {
                self.links[l].busy += dt;
            }
            for (rem, &rate) in self.remaining.iter_mut().zip(&self.rate) {
                *rem = (*rem - rate * dt).max(0.0);
            }
            self.next_done =
                earliest_completion(&self.rounds, &self.flows, &self.remaining, new_now);
        }
        self.now = new_now;
    }

    /// Progressive-filling max-min fair allocation, keeping the rounds
    /// before `from` and re-filling the rest.
    ///
    /// Invariants that keep this bit-identical to the from-scratch
    /// reference (`ReferenceFlowNet`):
    /// * the kept rounds are the reference's first rounds (module doc);
    ///   round `from` starts from its snapshot — the unfixed count of a
    ///   link is `nflows − fixed_before`, its residual the snapshot's — and
    ///   from `capacity` on touched links no kept round reached;
    /// * `live` is sorted ascending, so the bottleneck scan considers
    ///   candidate links in the same index order as a full 0..n scan
    ///   (links with zero unfixed flows are skipped in both), and falls
    ///   back to the first live link when every share is infinite, so
    ///   every active flow is fixed;
    /// * each round fixes exactly the unfixed flows crossing the
    ///   bottleneck, visited in ascending flow id — every per-link list is
    ///   id-ascending;
    /// * residual capacities are decremented per route occurrence in the
    ///   same flow-then-link order as the reference — except on the
    ///   bottleneck link itself: its count reaches zero in this round, so
    ///   its residual is never read again;
    /// * each round remembers its least-remaining flow, and the completion
    ///   cache is folded over those (see [`earliest_completion`]).
    fn rebalance(&mut self, from: usize) {
        let FlowNet {
            links,
            flows,
            route_arena,
            active,
            remaining,
            rate,
            rounds,
            fixed,
            snap,
            settled,
            work,
            nflows,
            touched,
            counts,
            resid,
            live,
            link_flows,
            now,
            next_done,
            ..
        } = self;
        let from = from.min(rounds.len());
        let kept = rounds.get(from).map_or(fixed.len(), |g| g.fixed_start as usize);
        // Unfix the flows of the re-filled rounds.
        fixed.truncate(kept);
        // The live links at round `from`: at round 0, every touched link.
        let snap_from = round_snap(rounds, snap, from);
        live.clear();
        let mut k = 0;
        for &l in touched.iter() {
            if from == 0 {
                counts[l] = nflows[l];
                resid[l] = links[l].capacity;
                live.push(l);
                continue;
            }
            while k < snap_from.len() && (snap_from[k].link as usize) < l {
                k += 1;
            }
            let (fixed_before, res) = match snap_from.get(k) {
                Some(e) if e.link as usize == l => (e.fixed_before, e.resid),
                _ if fixed_on(&mut link_flows[l], flows, kept) => continue,
                _ => (0, links[l].capacity),
            };
            counts[l] = nflows[l] - fixed_before;
            resid[l] = res;
            live.push(l);
        }
        let snap_len = rounds.get(from).map_or(snap.len(), |g| g.snap_start as usize);
        rounds.truncate(from);
        snap.truncate(snap_len);
        work.rebalances += 1;
        work.flows_kept += kept as u64;
        work.flows_fixed += (active.len() - kept) as u64;

        let mut unfixed_left = active.len() - kept;
        while unfixed_left > 0 {
            let snap_start = snap.len() as u32;
            // Bottleneck link: minimal fair share among used links (first
            // strict minimum wins, as in the reference — `live` is the
            // ascending `touched` order minus exhausted links, which the
            // reference scan skips too). Links whose last unfixed flow was
            // fixed drop out of `live` here; the others enter the round's
            // snapshot.
            let mut bl = usize::MAX;
            let mut share = f64::INFINITY;
            let mut w = 0;
            for k in 0..live.len() {
                let l = live[k];
                let c = counts[l];
                if c == 0 {
                    continue;
                }
                live[w] = l;
                w += 1;
                snap.push(SnapLink {
                    link: l as u32,
                    fixed_before: nflows[l] - c,
                    resid: resid[l],
                });
                let s = resid[l] / c as f64;
                if s < share {
                    share = s;
                    bl = l;
                }
            }
            live.truncate(w);
            if bl == usize::MAX {
                // Every share is infinite: like the reference, take the
                // first live link.
                bl = live[0];
                share = resid[bl] / counts[bl] as f64;
            }
            // Fix the unfixed flows crossing the bottleneck at the fair
            // share, walking only that link's own (id-ascending) flow
            // list. Finished entries are compacted out in place; repeat
            // occurrences (a route listing `bl` twice, or a flow fixed by
            // an earlier round) are skipped by the round stamp. At least
            // one flow is fixed (`counts[bl]` was positive), so `min_id` is
            // always set; `<=` rather than `<` so that also holds for flows
            // of infinite size.
            let fixed_start = fixed.len() as u32;
            let list = &mut link_flows[bl];
            let mut w = 0;
            let mut min_rem = f64::INFINITY;
            let mut min_id = 0;
            for k in 0..list.len() {
                let i = list[k];
                let f = &mut flows[i];
                if f.done {
                    continue;
                }
                list[w] = i;
                w += 1;
                if fixed.get(f.slot as usize) == Some(&i) {
                    continue;
                }
                f.slot = fixed.len() as u32;
                fixed.push(i);
                unfixed_left -= 1;
                let pos = f.pos as usize;
                rate[pos] = share;
                if remaining[pos] <= min_rem {
                    min_rem = remaining[pos];
                    min_id = i as u32;
                }
                for l in f.route(route_arena) {
                    counts[l.0] -= 1;
                    if l.0 != bl {
                        resid[l.0] = (resid[l.0] - share).max(0.0);
                    }
                }
            }
            list.truncate(w);
            rounds.push(Round { bottleneck: bl as u32, share, min_id, fixed_start, snap_start });
        }
        *settled = flows.len();
        *next_done = earliest_completion(rounds, flows, remaining, *now);
    }
}

/// Whether a flow among `fixed[..fixed_end]` crosses a link missing from
/// a round's snapshot — then the link is dead at that round — or none does
/// and the link is untouched by the earlier rounds. The first active flow
/// on the link decides: a link crossed both by a flow fixed before the
/// round and by one still unfixed at it is live, so it is in the snapshot.
/// The finished flows ahead of it are dropped from the list.
fn fixed_on(list: &mut Vec<usize>, flows: &[Flow], fixed_end: usize) -> bool {
    let done = list.iter().take_while(|&&i| flows[i].done).count();
    if done > 0 {
        list.drain(..done);
    }
    list.first().is_some_and(|&i| (flows[i].slot as usize) < fixed_end)
}

/// The snapshot of round `r`: empty past the last round.
fn round_snap<'a>(rounds: &[Round], snap: &'a [SnapLink], r: usize) -> &'a [SnapLink] {
    match rounds.get(r) {
        Some(g) => {
            let end = rounds.get(r + 1).map_or(snap.len(), |n| n.snap_start as usize);
            &snap[g.snap_start as usize..end]
        }
        None => &[],
    }
}

/// Earliest completion time at clock `now`, folded from one flow per
/// round.
///
/// A flow with `rem` bytes left at rate `r` completes at `now` if
/// `rem <= 0`, at `now + rem / r` if `r > 0`, and never otherwise. Within
/// one round `r` is one value, and `rem ↦ rem / r` and `x ↦ now + x` are
/// monotone under correct rounding, so the round's earliest completion is
/// that of a flow with its least `rem`. The decay step
/// `rem ↦ max(rem − r·dt, 0)` is monotone too and applies one `r·dt` to
/// the whole round, so the flow that held the least `rem` when the round
/// was filled still holds it (possibly tied, then at equal value) after
/// any number of steps, for as long as later rebalances keep the round.
/// `min` over the rounds is `min` over all flows.
fn earliest_completion(
    rounds: &[Round],
    flows: &[Flow],
    remaining: &[f64],
    now: f64,
) -> Option<f64> {
    let mut best: Option<f64> = None;
    for g in rounds {
        let rem = remaining[flows[g.min_id as usize].pos as usize];
        let t = if rem <= 0.0 {
            now
        } else if g.share > 0.0 {
            now + rem / g.share
        } else {
            continue;
        };
        best = Some(match best {
            None => t,
            Some(b) => b.min(t),
        });
    }
    best
}

/// The original from-scratch progressive-filling implementation, kept as
/// the executable specification of [`FlowNet`]: every rebalance rebuilds
/// per-link counts and residual capacities over all links, and every
/// advance step allocates its mark/finish vectors.
///
/// It is exercised by the equivalence proptest (bit-exact rates, remaining
/// bytes, busy times and completion order against the incremental engine).
/// The speed side of the story is the `runtime.flownet_churn_us.16pairs`
/// row of the benchmark ledger (`bash bench/run.sh run --trace`).
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub struct ReferenceFlowNet {
    links: Vec<Link>,
    flows: Vec<RefFlow>,
    active: Vec<usize>,
    now: f64,
}

#[cfg(test)]
#[derive(Debug, Clone)]
struct RefFlow {
    route: Vec<LinkId>,
    remaining: f64,
    rate: f64,
    done: bool,
}

#[cfg(test)]
impl ReferenceFlowNet {
    /// Empty network at time zero.
    pub fn new() -> Self {
        ReferenceFlowNet::default()
    }

    /// Add a link with `capacity` bytes/s.
    ///
    /// # Panics
    /// Panics if `capacity` is not positive.
    pub fn add_link(&mut self, capacity: f64) -> LinkId {
        assert!(capacity > 0.0, "link capacity must be positive");
        self.links.push(Link { capacity, busy: 0.0 });
        LinkId(self.links.len() - 1)
    }

    /// Current simulation time of the network.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Accumulated busy time of a link.
    pub fn link_busy(&self, l: LinkId) -> f64 {
        self.links[l.0].busy
    }

    /// Number of flows still transferring.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// Current rate of a flow (0 when done).
    pub fn flow_rate(&self, f: FlowId) -> f64 {
        if self.flows[f.0].done {
            0.0
        } else {
            self.flows[f.0].rate
        }
    }

    /// Start a flow of `bytes` over `route`; see [`FlowNet::start_flow`].
    ///
    /// # Panics
    /// Panics if the route references an unknown link or is empty.
    pub fn start_flow(&mut self, route: &[LinkId], bytes: f64) -> FlowId {
        assert!(!route.is_empty(), "flow route cannot be empty");
        for l in route {
            assert!(l.0 < self.links.len(), "unknown link in route");
        }
        assert!(bytes >= 0.0, "flow size must be non-negative");
        let id = self.flows.len();
        self.flows.push(RefFlow {
            route: route.to_vec(),
            remaining: bytes,
            rate: 0.0,
            done: false,
        });
        self.active.push(id);
        self.rebalance();
        FlowId(id)
    }

    /// Time at which the next active flow completes, if any.
    pub fn next_completion(&self) -> Option<f64> {
        let mut best: Option<f64> = None;
        for &i in &self.active {
            let f = &self.flows[i];
            let t = if f.remaining <= 0.0 {
                self.now
            } else if f.rate > 0.0 {
                self.now + f.remaining / f.rate
            } else {
                continue;
            };
            best = Some(match best {
                None => t,
                Some(b) => b.min(t),
            });
        }
        best
    }

    /// Advance network time to `t`; see [`FlowNet::advance_to`].
    ///
    /// # Panics
    /// Panics if `t` is before the current network time.
    #[allow(clippy::while_let_loop)] // the two-condition exit reads better spelled out
    pub fn advance_to(&mut self, t: f64) -> Vec<FlowId> {
        assert!(t >= self.now - 1e-12, "cannot advance backwards: {t} < {}", self.now);
        let mut completed = Vec::new();
        loop {
            let Some(next) = self.next_completion() else {
                break;
            };
            if next > t + 1e-15 {
                break;
            }
            let step = next.max(self.now);
            self.integrate_to(step);
            // Collect everything that finished at `step`.
            let finished: Vec<usize> =
                self.active.iter().copied().filter(|&i| self.flows[i].remaining <= 1e-9).collect();
            // Numerical safety: if nothing hit zero, force the closest one.
            let finished = if finished.is_empty() {
                let i = *self
                    .active
                    .iter()
                    .min_by(|&&a, &&b| {
                        self.flows[a].remaining.partial_cmp(&self.flows[b].remaining).unwrap()
                    })
                    .expect("active flows exist");
                vec![i]
            } else {
                finished
            };
            for i in finished {
                self.flows[i].done = true;
                self.flows[i].remaining = 0.0;
                completed.push(FlowId(i));
            }
            self.active.retain(|&i| !self.flows[i].done);
            self.rebalance();
        }
        self.integrate_to(t);
        completed
    }

    fn integrate_to(&mut self, t: f64) {
        let dt = t - self.now;
        if dt > 0.0 && !self.active.is_empty() {
            let mut crossed = vec![false; self.links.len()];
            for &i in &self.active {
                for l in &self.flows[i].route {
                    crossed[l.0] = true;
                }
            }
            for (l, hit) in crossed.into_iter().enumerate() {
                if hit {
                    self.links[l].busy += dt;
                }
            }
            for &i in &self.active {
                let f = &mut self.flows[i];
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        self.now = self.now.max(t);
    }

    fn rebalance(&mut self) {
        for &i in &self.active {
            self.flows[i].rate = 0.0;
        }
        let mut unfixed: Vec<usize> = self.active.clone();
        let mut link_cap: Vec<f64> = self.links.iter().map(|l| l.capacity).collect();
        while !unfixed.is_empty() {
            let mut counts = vec![0usize; self.links.len()];
            for &i in &unfixed {
                for l in &self.flows[i].route {
                    counts[l.0] += 1;
                }
            }
            let mut bottleneck: Option<(usize, f64)> = None;
            for (l, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let share = link_cap[l] / c as f64;
                if bottleneck.is_none_or(|(_, s)| share < s) {
                    bottleneck = Some((l, share));
                }
            }
            let Some((bl, share)) = bottleneck else {
                break;
            };
            let (through, rest): (Vec<usize>, Vec<usize>) =
                unfixed.into_iter().partition(|&i| self.flows[i].route.iter().any(|l| l.0 == bl));
            for &i in &through {
                self.flows[i].rate = share;
                for l in &self.flows[i].route {
                    link_cap[l.0] = (link_cap[l.0] - share).max(0.0);
                }
            }
            unfixed = rest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_flow_gets_bottleneck_bandwidth() {
        let mut net = FlowNet::new();
        let up = net.add_link(100.0);
        let bb = net.add_link(50.0);
        let down = net.add_link(100.0);
        let f = net.start_flow(&[up, bb, down], 500.0);
        assert!((net.flow_rate(f) - 50.0).abs() < 1e-12);
        assert!((net.next_completion().unwrap() - 10.0).abs() < 1e-9);
        let done = net.advance_to(10.0);
        assert_eq!(done, vec![f]);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn two_flows_share_common_link_fairly() {
        let mut net = FlowNet::new();
        let shared = net.add_link(100.0);
        let f1 = net.start_flow(&[shared], 100.0);
        let f2 = net.start_flow(&[shared], 200.0);
        assert!((net.flow_rate(f1) - 50.0).abs() < 1e-12);
        assert!((net.flow_rate(f2) - 50.0).abs() < 1e-12);
        // f1 completes at t=2; f2 then gets the full link, finishing the
        // remaining 100 bytes in 1 s.
        let done = net.advance_to(2.0);
        assert_eq!(done, vec![f1]);
        assert!((net.flow_rate(f2) - 100.0).abs() < 1e-12);
        let done = net.advance_to(3.0);
        assert_eq!(done, vec![f2]);
    }

    #[test]
    fn max_min_respects_per_flow_bottlenecks() {
        // f1: small private link (10) + shared (100); f2: shared only.
        // Max-min: f1 = 10 (bottlenecked privately), f2 = 90.
        let mut net = FlowNet::new();
        let private = net.add_link(10.0);
        let shared = net.add_link(100.0);
        let f1 = net.start_flow(&[private, shared], 1e9);
        let f2 = net.start_flow(&[shared], 1e9);
        assert!((net.flow_rate(f1) - 10.0).abs() < 1e-9);
        assert!((net.flow_rate(f2) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let f = net.start_flow(&[l], 0.0);
        let done = net.advance_to(0.0);
        assert_eq!(done, vec![f]);
    }

    #[test]
    fn completions_are_ordered() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let big = net.start_flow(&[l], 1000.0);
        let small = net.start_flow(&[l], 10.0);
        let done = net.advance_to(100.0);
        assert_eq!(done, vec![small, big]);
    }

    #[test]
    fn advance_without_flows_moves_clock() {
        let mut net = FlowNet::new();
        net.add_link(1.0);
        assert!(net.advance_to(5.0).is_empty());
        assert_eq!(net.now(), 5.0);
        assert_eq!(net.next_completion(), None);
    }

    #[test]
    fn backbone_saturation_caps_aggregate_rate() {
        // 8 node pairs, each NIC 100, backbone only 200: aggregate must be
        // 200, i.e. 25 each — the contention knee of the paper.
        let mut net = FlowNet::new();
        let bb = net.add_link(200.0);
        let mut flows = Vec::new();
        for _ in 0..8 {
            let up = net.add_link(100.0);
            let down = net.add_link(100.0);
            flows.push(net.start_flow(&[up, bb, down], 1e9));
        }
        let total: f64 = flows.iter().map(|&f| net.flow_rate(f)).sum();
        assert!((total - 200.0).abs() < 1e-6);
        for &f in &flows {
            assert!((net.flow_rate(f) - 25.0).abs() < 1e-9);
        }
    }

    #[test]
    fn link_busy_counts_only_active_intervals() {
        let mut net = FlowNet::new();
        let used = net.add_link(100.0);
        let idle = net.add_link(100.0);
        // 1 s idle, then a 2 s transfer on `used`, then 1 s idle again.
        net.advance_to(1.0);
        let f = net.start_flow(&[used], 200.0);
        let done = net.advance_to(4.0);
        assert_eq!(done, vec![f]);
        assert!((net.link_busy(used) - 2.0).abs() < 1e-9, "{}", net.link_busy(used));
        assert_eq!(net.link_busy(idle), 0.0);
        assert_eq!(net.n_links(), 2);
    }

    #[test]
    fn shared_link_busy_is_wall_time_not_per_flow() {
        let mut net = FlowNet::new();
        let shared = net.add_link(100.0);
        net.start_flow(&[shared], 100.0);
        net.start_flow(&[shared], 200.0);
        // Both flows overlap for 2 s, then the second runs alone 1 s:
        // busy time is 3 s of wall time, not 5 s of flow time.
        net.advance_to(3.0);
        assert!((net.link_busy(shared) - 3.0).abs() < 1e-9, "{}", net.link_busy(shared));
    }

    #[test]
    fn recycle_resets_to_empty_network() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        net.start_flow(&[l], 50.0);
        net.advance_to(0.3);
        net.recycle();
        assert_eq!(net.n_links(), 0);
        assert_eq!(net.active_flows(), 0);
        assert_eq!(net.now(), 0.0);
        // Fully usable again.
        let l = net.add_link(100.0);
        let f = net.start_flow(&[l], 100.0);
        assert_eq!(net.advance_to(1.0), vec![f]);
    }

    #[test]
    #[should_panic(expected = "cannot advance backwards")]
    fn backwards_time_panics() {
        let mut net = FlowNet::new();
        net.add_link(1.0);
        net.advance_to(5.0);
        net.advance_to(1.0);
    }

    /// Cases per bitwise pin: few in debug builds, where tier-1 runs them,
    /// and many in release, where CI's flow-network step does, so the
    /// restart paths of the rebalance are covered densely.
    fn bitwise_cases(debug: u32) -> ProptestConfig {
        ProptestConfig::with_cases(if cfg!(debug_assertions) { debug } else { 600 })
    }

    /// Two engines over the same links, fed the same operations.
    struct Pair {
        inc: FlowNet,
        refn: ReferenceFlowNet,
    }

    impl Pair {
        fn new(caps: &[f64]) -> Pair {
            let mut pair = Pair { inc: FlowNet::new(), refn: ReferenceFlowNet::new() };
            for &c in caps {
                pair.inc.add_link(c);
                pair.refn.add_link(c);
            }
            pair
        }

        /// Start flows over `routes` (link ids) as one deferred batch.
        fn start_deferred(&mut self, routes: &[(&[usize], f64)]) {
            for &(route, bytes) in routes {
                let route: Vec<LinkId> = route.iter().map(|&l| LinkId(l)).collect();
                let id = self.inc.start_flow_deferred(&route, bytes);
                assert_eq!(id, self.refn.start_flow(&route, bytes));
            }
        }

        /// Settle, and check every flow's rate and the next completion
        /// against the reference, bit for bit. Returns the work of this
        /// settle.
        fn settle(&mut self) -> RebalanceWork {
            let before = self.inc.work();
            self.inc.settle();
            self.assert_same();
            since(before, self.inc.work())
        }

        fn advance_to_next_completion(&mut self) -> (Vec<FlowId>, RebalanceWork) {
            let before = self.inc.work();
            let t = self.inc.next_completion().expect("a flow in flight");
            let done = self.inc.advance_to(t);
            assert_eq!(done, self.refn.advance_to(t));
            self.assert_same();
            (done, since(before, self.inc.work()))
        }

        fn assert_same(&self) {
            for f in 0..self.inc.flows.len() {
                assert_eq!(
                    self.inc.flow_rate(FlowId(f)).to_bits(),
                    self.refn.flow_rate(FlowId(f)).to_bits(),
                    "flow {f} rate diverged"
                );
            }
            assert_eq!(
                self.inc.next_completion().map(f64::to_bits),
                self.refn.next_completion().map(f64::to_bits)
            );
        }
    }

    fn since(before: RebalanceWork, after: RebalanceWork) -> RebalanceWork {
        RebalanceWork {
            rebalances: after.rebalances - before.rebalances,
            flows_fixed: after.flows_fixed - before.flows_fixed,
            flows_kept: after.flows_kept - before.flows_kept,
        }
    }

    #[test]
    fn completing_a_flow_of_the_last_round_refixes_only_that_round() {
        // Round 0: link 0 (10 B/s) fixes flow 0. Round 1: link 1
        // (100 B/s) fixes flows 1 and 2 at 50 B/s each.
        let mut pair = Pair::new(&[10.0, 100.0]);
        pair.start_deferred(&[(&[0], 1e6), (&[1], 1e6), (&[1], 100.0)]);
        let work = pair.settle();
        assert_eq!(work, RebalanceWork { rebalances: 1, flows_fixed: 3, flows_kept: 0 });
        assert_eq!(pair.inc.rounds.len(), 2);
        // Flow 2 finishes at t = 2; round 0 stays and flow 1 is re-fixed
        // alone, now at 100 B/s.
        let (done, work) = pair.advance_to_next_completion();
        assert_eq!(done, vec![FlowId(2)]);
        assert_eq!(work, RebalanceWork { rebalances: 1, flows_fixed: 1, flows_kept: 1 });
        assert_eq!(pair.inc.flow_rate(FlowId(1)), 100.0);
    }

    #[test]
    fn a_start_that_undercuts_no_round_refixes_only_the_last_round() {
        // Round 0: link 0 (10 B/s) fixes flow 0. Round 1: link 1
        // (100 B/s) fixes flow 1, which also crosses link 2 (1000 B/s).
        let mut pair = Pair::new(&[10.0, 100.0, 1000.0]);
        pair.start_deferred(&[(&[0], 1e6), (&[1, 2], 1e6)]);
        pair.settle();
        // A new flow over link 2 gets 1000/2 there, above both shares, but
        // link 2 is dead once the last round has fixed flow 1: that round
        // is re-filled with the new flow, the first is kept.
        pair.start_deferred(&[(&[2], 1e6)]);
        assert_eq!(pair.inc.first_round_reached_by_starts(), 1);
        let work = pair.settle();
        assert_eq!(work, RebalanceWork { rebalances: 1, flows_fixed: 2, flows_kept: 1 });
        assert_eq!(pair.inc.flow_rate(FlowId(2)), 900.0);
    }

    #[test]
    fn a_start_restarts_where_any_of_its_links_is_dead_not_where_one_undercuts() {
        // Round 0: link 2 (10 B/s) fixes flow 0 over links 1-4. Round 1:
        // link 5 (50 B/s) fixes flow 1.
        let mut pair = Pair::new(&[30.0, 35.0, 10.0, 100.0, 100.0, 50.0]);
        pair.start_deferred(&[(&[1, 2, 3, 4], 1e6), (&[5], 1e6)]);
        pair.settle();
        assert_eq!(pair.inc.rounds.len(), 2);
        // The new flow leaves round 0 alone (30, 35/2, 100/2 and 100/2 are
        // all above 10). At round 1 its fresh link 0 undercuts the share
        // (30 < 50), but links 1, 3 and 4 are dead there, their residuals
        // unknown: link 1's, 35 − 10 = 25, is the new flow's bottleneck. So
        // the restart is round 0, not round 1.
        pair.start_deferred(&[(&[0, 1, 3, 4], 1e6)]);
        assert_eq!(pair.inc.first_round_reached_by_starts(), 0);
        let work = pair.settle();
        assert_eq!(work, RebalanceWork { rebalances: 1, flows_fixed: 3, flows_kept: 0 });
        assert_eq!(pair.inc.flow_rate(FlowId(2)), 25.0);
    }

    #[test]
    fn infinite_shares_fall_back_to_the_first_live_link() {
        // Both shares are infinite, so link 0 is the first bottleneck, as
        // in the reference: flow 1 runs at infinity and leaves link 1 a
        // residual of max(∞ − ∞, 0) = 0 for flow 0.
        let mut pair = Pair::new(&[f64::INFINITY, f64::INFINITY]);
        pair.start_deferred(&[(&[1], 10.0), (&[0, 1], 10.0)]);
        pair.settle();
        assert_eq!(pair.inc.flow_rate(FlowId(1)), f64::INFINITY);
        assert_eq!(pair.inc.flow_rate(FlowId(0)), 0.0);
        // Nothing decays in the zero-length step to `now`, so the
        // closest-flow fallback forces both out, least id first.
        let (done, _) = pair.advance_to_next_completion();
        assert_eq!(done, vec![FlowId(0), FlowId(1)]);
    }

    proptest! {
        #![proptest_config(bitwise_cases(32))]

        /// The incremental engine is bit-identical to the reference
        /// implementation: same rates, same completion order, same busy
        /// times, same clock — compared with `to_bits` after every op.
        /// Each op seed decodes into a flow start (random distinct-link
        /// route, random size — 60%), an advance-to-next-completion, or an
        /// advance-by-random-dt.
        #[test]
        fn prop_incremental_matches_reference_bitwise(
            cap_seed in 0u64..1000,
            n_links in 1usize..7,
            op_seeds in collection::vec(0u64..u64::MAX, 1..40),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(cap_seed);
            let mut inc = FlowNet::new();
            let mut refn = ReferenceFlowNet::new();
            let mut links: Vec<LinkId> = Vec::new();
            for _ in 0..n_links {
                let cap = rng.random_range(1.0..100.0);
                let l = inc.add_link(cap);
                prop_assert_eq!(l, refn.add_link(cap));
                links.push(l);
            }
            let mut n_flows = 0usize;
            for &seed in &op_seeds {
                let mut r = rand::rngs::StdRng::seed_from_u64(seed);
                match seed % 5 {
                    0..=2 => {
                        // Start a flow over a shuffled distinct-link subset.
                        let mut route = links.clone();
                        for i in (1..route.len()).rev() {
                            let j = r.random_range(0..=i);
                            route.swap(i, j);
                        }
                        route.truncate(r.random_range(1..=n_links));
                        let bytes = r.random_range(0.0..500.0);
                        let fi = inc.start_flow(&route, bytes);
                        let fr = refn.start_flow(&route, bytes);
                        prop_assert_eq!(fi, fr);
                        n_flows += 1;
                    }
                    3 => {
                        // Advance to the next completion (or +1.0 if idle).
                        let t = inc.next_completion().unwrap_or(inc.now() + 1.0);
                        prop_assert_eq!(
                            t.to_bits(),
                            refn.next_completion().unwrap_or(refn.now() + 1.0).to_bits()
                        );
                        prop_assert_eq!(inc.advance_to(t), refn.advance_to(t));
                    }
                    _ => {
                        let t = inc.now() + r.random_range(0.001..5.0);
                        prop_assert_eq!(inc.advance_to(t), refn.advance_to(t));
                    }
                }
                prop_assert_eq!(inc.now().to_bits(), refn.now().to_bits());
                prop_assert_eq!(inc.active_flows(), refn.active_flows());
                for f in 0..n_flows {
                    prop_assert_eq!(
                        inc.flow_rate(FlowId(f)).to_bits(),
                        refn.flow_rate(FlowId(f)).to_bits(),
                        "flow {} rate diverged", f
                    );
                }
                for &l in &links {
                    prop_assert_eq!(
                        inc.link_busy(l).to_bits(),
                        refn.link_busy(l).to_bits(),
                        "link {} busy diverged", l.0
                    );
                }
            }
            // Drain: identical completion tails.
            prop_assert_eq!(inc.advance_to(1e9), refn.advance_to(1e9));
            prop_assert_eq!(inc.active_flows(), 0);
        }
    }

    /// A network shaped like the simulator's: link 0 is the backbone, node
    /// `i` owns an up and a down link of one of two NIC speeds, and every
    /// flow goes `[up(src), backbone, down(dst)]`.
    struct Cluster {
        backbone: LinkId,
        up: Vec<LinkId>,
        down: Vec<LinkId>,
    }

    impl Cluster {
        fn build(
            rng: &mut rand::rngs::StdRng,
            n_nodes: usize,
            mut add_link: impl FnMut(f64) -> LinkId,
        ) -> Cluster {
            use rand::Rng;
            // Per-node NICs of 10 or 25 Gb/s under a backbone worth 4-40 of
            // the slow ones: sometimes it is the bottleneck, sometimes not.
            let backbone = add_link(1.25e9 * rng.random_range(4.0..40.0));
            let (mut up, mut down) = (Vec::new(), Vec::new());
            for _ in 0..n_nodes {
                let bps = if rng.random_range(0..3) == 0 { 3.125e9 } else { 1.25e9 };
                up.push(add_link(bps));
                down.push(add_link(bps));
            }
            Cluster { backbone, up, down }
        }

        /// A transfer between two distinct random nodes: a tile (most), a
        /// vector block, or nothing at all.
        fn random_flow(&self, rng: &mut rand::rngs::StdRng) -> ([LinkId; 3], f64) {
            use rand::Rng;
            let src = rng.random_range(0..self.up.len());
            let dst = (src + rng.random_range(1..self.up.len())) % self.up.len();
            let bytes = match rng.random_range(0..16) {
                0 => 0.0,
                1 | 2 => 960.0 * 8.0,
                _ => 960.0 * 960.0 * 8.0,
            };
            ([self.up[src], self.backbone, self.down[dst]], bytes)
        }
    }

    fn ref_remaining(refn: &ReferenceFlowNet, f: usize) -> f64 {
        if refn.flows[f].done {
            0.0
        } else {
            refn.flows[f].remaining
        }
    }

    proptest! {
        #![proptest_config(bitwise_cases(24))]

        /// The bitwise pin again, in the regime the simulator drives the
        /// network in: 8-24 nodes, 100-200 concurrent flows of *equal* size
        /// (ties, several completions per instant), zero-byte flows, starts
        /// in deferred batches settled once. Rates, remaining bytes, busy
        /// times, the clock and `next_completion` are compared after every
        /// operation.
        #[test]
        fn prop_simulator_shaped_traffic_matches_reference_bitwise(
            seed in 0u64..u64::MAX,
            n_nodes in 8usize..25,
            initial in 100usize..201,
            n_ops in 10usize..40,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut inc = FlowNet::new();
            let mut refn = ReferenceFlowNet::new();
            let mut caps = Vec::new();
            let cluster = Cluster::build(&mut rng, n_nodes, |c| {
                caps.push(c);
                inc.add_link(c)
            });
            for &c in &caps {
                refn.add_link(c);
            }
            let mut n_flows = 0usize;
            for op in 0..=n_ops {
                // Operation 0 fills the network; then batches of starts,
                // runs of completion instants, and partial steps alternate.
                match if op == 0 { 0 } else { rng.random_range(0..5) } {
                    0 | 1 => {
                        let batch = if op == 0 { initial } else { rng.random_range(1..30) };
                        for _ in 0..batch {
                            let (route, bytes) = cluster.random_flow(&mut rng);
                            let fi = inc.start_flow_deferred(&route, bytes);
                            prop_assert_eq!(fi, refn.start_flow(&route, bytes));
                            n_flows += 1;
                        }
                        inc.settle();
                    }
                    2 | 3 => {
                        for _ in 0..rng.random_range(1..6) {
                            let Some(t) = inc.next_completion() else { break };
                            prop_assert_eq!(inc.advance_to(t), refn.advance_to(t));
                            prop_assert_eq!(
                                inc.next_completion().map(f64::to_bits),
                                refn.next_completion().map(f64::to_bits)
                            );
                        }
                    }
                    _ => {
                        // A fraction of a tile's transfer time on a slow NIC.
                        let t = inc.now() + rng.random_range(0.0..0.004);
                        prop_assert_eq!(inc.advance_to(t), refn.advance_to(t));
                    }
                }
                prop_assert_eq!(
                    inc.next_completion().map(f64::to_bits),
                    refn.next_completion().map(f64::to_bits),
                    "next completion diverged after op {}", op
                );
                prop_assert_eq!(inc.now().to_bits(), refn.now().to_bits());
                prop_assert_eq!(inc.active_flows(), refn.active_flows());
                for f in 0..n_flows {
                    prop_assert_eq!(
                        inc.flow_rate(FlowId(f)).to_bits(),
                        refn.flow_rate(FlowId(f)).to_bits(),
                        "flow {} rate diverged after op {}", f, op
                    );
                    prop_assert_eq!(
                        inc.flow_remaining(FlowId(f)).to_bits(),
                        ref_remaining(&refn, f).to_bits(),
                        "flow {} remaining bytes diverged after op {}", f, op
                    );
                }
                for l in 0..caps.len() {
                    prop_assert_eq!(
                        inc.link_busy(LinkId(l)).to_bits(),
                        refn.link_busy(LinkId(l)).to_bits(),
                        "link {} busy diverged after op {}", l, op
                    );
                }
            }
            prop_assert_eq!(inc.advance_to(1e9), refn.advance_to(1e9));
            prop_assert_eq!(inc.active_flows(), 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The lemma the completion fold rests on. Under fixed rates, after
        /// any number of decay steps — including steps long enough to clamp
        /// some flows at zero — the flow a round remembered when it was
        /// filled still holds the least `remaining` among the flows at that
        /// rate, so the fold over the rounds equals the fold over every
        /// active flow. The staggered starts keep rounds across rebalances,
        /// so remembered flows outlive the rebalance that chose them.
        #[test]
        fn prop_remembered_flow_keeps_its_groups_least_remaining(
            seed in 0u64..u64::MAX,
            n_nodes in 8usize..25,
            n_flows in 100usize..201,
            steps in collection::vec(0.0f64..1.0, 1..12),
        ) {
            use rand::SeedableRng;
            use std::collections::BTreeMap;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut net = FlowNet::new();
            let cluster = Cluster::build(&mut rng, n_nodes, |c| net.add_link(c));
            // Start staggered, so that flows of one group differ in what
            // they have left when the rates are fixed for good.
            for k in 0..n_flows {
                let (route, bytes) = cluster.random_flow(&mut rng);
                net.start_flow_deferred(&route, bytes);
                if k % 16 == 15 {
                    net.settle();
                    let t = net.now() + 1e-4;
                    net.integrate_to(t);
                }
            }
            net.settle();
            for &u in &steps {
                // Mostly short steps; now and then one that drains whole
                // groups (`remaining / rate` is a few milliseconds here).
                let dt = if u > 0.8 { u * 0.05 } else { u * 1e-3 };
                let t = net.now() + dt;
                net.integrate_to(t);

                let mut least: BTreeMap<u64, f64> = BTreeMap::new();
                for (rem, rate) in net.remaining.iter().zip(&net.rate) {
                    let e = least.entry(rate.to_bits()).or_insert(f64::INFINITY);
                    *e = e.min(*rem);
                }
                let mut remembered: BTreeMap<u64, f64> = BTreeMap::new();
                for g in &net.rounds {
                    let pos = net.flows[g.min_id as usize].pos as usize;
                    prop_assert_eq!(net.rate[pos].to_bits(), g.share.to_bits());
                    let e = remembered.entry(g.share.to_bits()).or_insert(f64::INFINITY);
                    *e = e.min(net.remaining[pos]);
                }
                prop_assert_eq!(
                    least.iter().map(|(r, m)| (*r, m.to_bits())).collect::<Vec<_>>(),
                    remembered.iter().map(|(r, m)| (*r, m.to_bits())).collect::<Vec<_>>()
                );

                // ... and therefore the cached fold is the per-flow fold.
                let mut every_flow: Option<f64> = None;
                for (&rem, &rate) in net.remaining.iter().zip(&net.rate) {
                    let t = if rem <= 0.0 {
                        net.now
                    } else if rate > 0.0 {
                        net.now + rem / rate
                    } else {
                        continue;
                    };
                    every_flow = Some(every_flow.map_or(t, |b: f64| b.min(t)));
                }
                prop_assert_eq!(
                    net.next_completion().map(f64::to_bits),
                    every_flow.map(f64::to_bits)
                );
            }
        }
    }

    proptest! {
        /// Conservation: no link ever carries more than its capacity, and
        /// every flow eventually completes with total bytes accounted.
        #[test]
        fn prop_capacity_respected_and_all_complete(
            seed in 0u64..300,
            n_links in 1usize..6,
            n_flows in 1usize..12,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut net = FlowNet::new();
            let links: Vec<LinkId> =
                (0..n_links).map(|_| net.add_link(rng.random_range(1.0..100.0))).collect();
            let caps: Vec<f64> = (0..n_links).map(|i| net_link_cap(&net, i)).collect();
            let mut flows = Vec::new();
            for _ in 0..n_flows {
                let route_len = rng.random_range(1..=n_links);
                let mut route: Vec<LinkId> = links.clone();
                // Random subset of distinct links.
                for i in (1..route.len()).rev() {
                    let j = rng.random_range(0..=i);
                    route.swap(i, j);
                }
                route.truncate(route_len);
                let bytes = rng.random_range(0.0..500.0);
                flows.push((net.start_flow(&route, bytes), bytes));

                // Capacity check after each start.
                let mut used = vec![0.0; n_links];
                for (fid, _) in &flows {
                    let rate = net.flow_rate(*fid);
                    for l in flow_route(&net, *fid) {
                        used[l] += rate;
                    }
                }
                for (u, c) in used.iter().zip(&caps) {
                    prop_assert!(*u <= c + 1e-6, "link overloaded: {u} > {c}");
                }
            }
            // Everything completes in bounded time.
            let done = net.advance_to(1e7);
            prop_assert_eq!(done.len(), flows.len());
        }
    }

    // Test helpers reaching into the structure.
    fn net_link_cap(net: &FlowNet, l: usize) -> f64 {
        net.links[l].capacity
    }
    fn flow_route(net: &FlowNet, f: FlowId) -> Vec<usize> {
        net.flows[f.0].route(&net.route_arena).iter().map(|l| l.0).collect()
    }
}
