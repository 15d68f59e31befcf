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
//! add/remove, so each progressive-filling pass only walks the populated
//! link set and reuses scratch buffers — the event hot path performs no
//! heap allocation. Flow routes live in a shared arena instead of one
//! `Vec` per flow.
//!
//! The two hot loops — the remaining-byte decay of every clock step and
//! the flow-fixing rounds of every rebalance — perform no division per
//! flow. The hot per-flow state (`remaining`, `rate`) lives in dense
//! arrays parallel to `active`; every flow fixed in one progressive-filling
//! round shares one rate, so the round remembers only the flow with the
//! least remaining bytes (a `RateGroup`) and the next completion is
//! folded from one flow per group. DESIGN.md §5d ("The flow-network
//! arithmetic contract") states which operations are fixed per element and
//! why this fold yields the same bits as one over every flow.
//!
//! `ReferenceFlowNet` is the original from-scratch implementation kept
//! (test builds only) as an executable specification; a proptest pins the
//! incremental engine to it with bit-exact (`f64::to_bits`)
//! rate/remaining/busy equality.

/// Identifier of a link inside a [`FlowNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Identifier of a flow inside a [`FlowNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(pub usize);

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
    done: bool,
    /// Rebalance epoch at which this flow's rate was fixed (0 = never):
    /// lets progressive filling skip already-fixed flows in O(1) without a
    /// per-round membership list.
    fixed_at: u64,
}

/// The flows fixed by one progressive-filling round: they share `rate`, so
/// their completion order is their `remaining` order for as long as the
/// rates stand, and the one with the least remaining bytes is the only
/// one the completion fold has to look at.
#[derive(Debug, Clone, Copy)]
struct RateGroup {
    /// The round's fair share.
    rate: f64,
    /// Dense position of a flow that held the group's least `remaining`
    /// when the round fixed it.
    min_pos: u32,
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
    /// Ids of the flows still transferring, ascending.
    active: Vec<usize>,
    /// `remaining[k]` / `rate[k]`: bytes left and current rate of flow
    /// `active[k]`. The three are pushed and compacted together.
    remaining: Vec<f64>,
    rate: Vec<f64>,
    /// One entry per round of the last rebalance; valid until the next.
    groups: Vec<RateGroup>,
    now: f64,
    /// Per link: number of active flow-route occurrences crossing it
    /// (a route listing a link twice counts twice, matching the
    /// progressive-filling share arithmetic).
    nflows: Vec<u32>,
    /// Sorted ids of links with `nflows > 0`. Progressive filling and
    /// busy-time integration walk this instead of all links.
    touched: Vec<usize>,
    // Scratch buffers reused across rebalances (valid only inside one
    // call; `counts`/`resid` are per-link and only read at `touched`
    // indices that were initialised this call).
    counts: Vec<u32>,
    resid: Vec<f64>,
    /// Scratch: the subset of `touched` whose links still carry unfixed
    /// flows, compacted between progressive-filling rounds.
    live: Vec<usize>,
    /// Per link: ids of flows whose route crosses it (one entry per route
    /// occurrence), ascending. Entries of finished flows are dropped
    /// lazily, whenever progressive filling walks the list.
    link_flows: Vec<Vec<usize>>,
    /// Monotone rebalance counter backing `Flow::fixed_at`.
    epoch: u64,
    /// Deferred-rebalance flag: set by [`FlowNet::start_flow_deferred`],
    /// cleared by [`FlowNet::settle`]. Rates (and the completion cache)
    /// are stale while set; every observation path settles first.
    dirty: bool,
    /// Cached [`FlowNet::next_completion`] value, kept current by
    /// `rebalance` and `integrate_to`: a fold over `groups`, bit-identical
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
        self.groups.clear();
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
        self.epoch = 0;
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
            done: false,
            fixed_at: 0,
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
            self.rebalance();
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
            self.finish_flows(completed);
            self.rebalance();
        }
        self.integrate_to(t);
    }

    /// Complete, in ascending id order, every active flow with at most
    /// `1e-9` bytes left — or, if rounding kept every `remaining` above
    /// that, the closest one (first minimum in id order) — and compact the
    /// active arrays over the survivors.
    fn finish_flows(&mut self, completed: &mut Vec<FlowId>) {
        let FlowNet { flows, route_arena, active, remaining, rate, nflows, touched, .. } = self;
        debug_assert!(!active.is_empty(), "a completion instant without active flows");
        let first = remaining.iter().position(|&r| r <= 1e-9).unwrap_or_else(|| {
            let mut closest = 0;
            for k in 1..remaining.len() {
                if remaining[k] < remaining[closest] {
                    closest = k;
                }
            }
            remaining[closest] = 0.0;
            closest
        });
        let mut w = first;
        for k in first..active.len() {
            let i = active[k];
            let f = &mut flows[i];
            if remaining[k] <= 1e-9 {
                f.done = true;
                let route =
                    &route_arena[f.route_start as usize..(f.route_start + f.route_len) as usize];
                for l in route {
                    nflows[l.0] -= 1;
                    if nflows[l.0] == 0 {
                        let at = touched.binary_search(&l.0).expect("touched link tracked");
                        touched.remove(at);
                    }
                }
                completed.push(FlowId(i));
            } else {
                f.pos = w as u32;
                active[w] = i;
                remaining[w] = remaining[k];
                rate[w] = rate[k];
                w += 1;
            }
        }
        active.truncate(w);
        remaining.truncate(w);
        rate.truncate(w);
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
            self.next_done = earliest_completion(&self.groups, &self.remaining, new_now);
        }
        self.now = new_now;
    }

    /// Progressive-filling max-min fair allocation over the touched links.
    ///
    /// Invariants that keep this bit-identical to the from-scratch
    /// reference (`ReferenceFlowNet`):
    /// * `touched` is sorted ascending, so the bottleneck scan considers
    ///   candidate links in the same index order as a full 0..n scan
    ///   (links with zero unfixed flows are skipped in both);
    /// * each round fixes exactly the unfixed flows crossing the
    ///   bottleneck, visited in ascending flow id — the same order a scan
    ///   over an `active`-ordered unfixed list would visit them, because
    ///   `active` and every per-link list are both id-ascending;
    /// * residual capacities are decremented per route occurrence in the
    ///   same flow-then-link order as the reference — except on the
    ///   bottleneck link itself: its count reaches zero in this round, so
    ///   its residual is never read again;
    /// * each round leaves one [`RateGroup`], and the completion cache is
    ///   folded over those (see [`earliest_completion`]).
    fn rebalance(&mut self) {
        self.epoch += 1;
        let epoch = self.epoch;
        let FlowNet {
            links,
            flows,
            route_arena,
            active,
            remaining,
            rate,
            groups,
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
        for &l in touched.iter() {
            counts[l] = nflows[l];
            resid[l] = links[l].capacity;
        }
        live.clear();
        live.extend_from_slice(touched);
        groups.clear();
        let mut unfixed_left = active.len();
        while unfixed_left > 0 {
            // Bottleneck link: minimal fair share among used links (first
            // strict minimum wins, as in the reference — `live` is the
            // ascending `touched` order minus exhausted links, which the
            // reference scan skips too). Links whose last unfixed flow was
            // fixed drop out of `live` here.
            let mut bl = usize::MAX;
            let mut share = f64::INFINITY;
            let mut w = 0;
            for r in 0..live.len() {
                let l = live[r];
                let c = counts[l];
                if c == 0 {
                    continue;
                }
                live[w] = l;
                w += 1;
                let s = resid[l] / c as f64;
                if s < share {
                    share = s;
                    bl = l;
                }
            }
            live.truncate(w);
            if bl == usize::MAX {
                // Unreachable (every unfixed flow keeps its links' counts
                // positive), but mirror the reference: leftover flows rate
                // to zero and do not enter the completion fold.
                for (k, &i) in active.iter().enumerate() {
                    if flows[i].fixed_at != epoch {
                        rate[k] = 0.0;
                    }
                }
                break;
            }
            // Fix the unfixed flows crossing the bottleneck at the fair
            // share, walking only that link's own (id-ascending) flow
            // list. Finished entries are compacted out in place; repeat
            // occurrences (a route listing `bl` twice, or a flow already
            // fixed via an earlier bottleneck this rebalance) are skipped
            // by the epoch stamp. At least one flow is fixed (`counts[bl]`
            // was positive), so `min_pos` is always set; `<=` rather than
            // `<` so that also holds for flows of infinite size.
            let list = &mut link_flows[bl];
            let mut w = 0;
            let mut min_rem = f64::INFINITY;
            let mut min_pos = u32::MAX;
            for r in 0..list.len() {
                let i = list[r];
                let f = &mut flows[i];
                if f.done {
                    continue;
                }
                list[w] = i;
                w += 1;
                if f.fixed_at == epoch {
                    continue;
                }
                f.fixed_at = epoch;
                unfixed_left -= 1;
                let pos = f.pos as usize;
                rate[pos] = share;
                if remaining[pos] <= min_rem {
                    min_rem = remaining[pos];
                    min_pos = f.pos;
                }
                let route =
                    &route_arena[f.route_start as usize..(f.route_start + f.route_len) as usize];
                for l in route {
                    counts[l.0] -= 1;
                    if l.0 != bl {
                        resid[l.0] = (resid[l.0] - share).max(0.0);
                    }
                }
            }
            list.truncate(w);
            groups.push(RateGroup { rate: share, min_pos });
        }
        *next_done = earliest_completion(groups, remaining, *now);
    }
}

/// Earliest completion time at clock `now`, folded from one flow per rate
/// group.
///
/// A flow with `rem` bytes left at rate `r` completes at `now` if
/// `rem <= 0`, at `now + rem / r` if `r > 0`, and never otherwise. Within
/// one group `r` is one value, and `rem ↦ rem / r` and `x ↦ now + x` are
/// monotone under correct rounding, so the group's earliest completion is
/// that of a flow with its least `rem`. The decay step
/// `rem ↦ max(rem − r·dt, 0)` is monotone too and applies one `r·dt` to
/// the whole group, so the flow that held the least `rem` when the group
/// was formed still holds it (possibly tied, then at equal value) after
/// any number of steps. `min` over the groups is `min` over all flows.
fn earliest_completion(groups: &[RateGroup], remaining: &[f64], now: f64) -> Option<f64> {
    let mut best: Option<f64> = None;
    for g in groups {
        let rem = remaining[g.min_pos as usize];
        let t = if rem <= 0.0 {
            now
        } else if g.rate > 0.0 {
            now + rem / g.rate
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

    proptest! {
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
        #![proptest_config(ProptestConfig::with_cases(24))]

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

        /// The lemma the completion fold rests on. Under fixed rates, after
        /// any number of decay steps — including steps long enough to clamp
        /// some flows at zero — the flow a rate group remembered when it was
        /// formed still holds the least `remaining` among the flows at that
        /// rate, so the fold over the groups equals the fold over every
        /// active flow.
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
                for g in &net.groups {
                    let pos = g.min_pos as usize;
                    prop_assert_eq!(net.rate[pos].to_bits(), g.rate.to_bits());
                    let e = remembered.entry(g.rate.to_bits()).or_insert(f64::INFINITY);
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
        let fl = &net.flows[f.0];
        net.route_arena[fl.route_start as usize..(fl.route_start + fl.route_len) as usize]
            .iter()
            .map(|l| l.0)
            .collect()
    }
}
