//! Incrementally-maintained router indices: O(log n) placement instead
//! of O(hosts) scans.
//!
//! [`RouterIndex`] is a shared handle (cheaply cloneable, disabled by
//! default — the same pattern as [`faasnap_obs::Metrics`]) that every
//! [`HostSim`] notifies whenever its load,
//! admission headroom, warm pool, snapshot registry, or loading-set
//! cache changes. With the index attached, [`RouterIndex::pick`]
//! answers every [`RoutePolicy`] query from precomputed structures:
//!
//! * **Random** — a Fenwick tree over the admittable bit-vector selects
//!   the k-th admittable host (ascending host id) in O(log n), drawing
//!   exactly one random value via `below(count)` — the same draw
//!   `Prng::choose` makes on the materialized scan list, so the random
//!   stream stays byte-identical.
//! * **LeastLoaded** — a segment tree over `(load, host)` keyed with a
//!   sentinel for non-admittable hosts answers the global min in O(1).
//! * **SnapshotLocality** — per-tenant host lists (warm VMs with their
//!   expiries, snapshot residency, cache residency) restrict the
//!   locality classes to the handful of hosts that can possibly match;
//!   the fallback class (no local state anywhere) reuses the
//!   least-loaded root.
//!
//! Exactness: the scan computes `min over admittable hosts of
//! (locality(tenant, now), load, host)`. The index partitions that min
//! by locality class — warm candidates, then snapshot-hot (snapshot
//! registered *and* cache resident), then snapshot-cold, then the
//! global least-loaded — and inside each class minimizes the identical
//! `(load, host)` key, so the argmin is the same host. Warm entries are
//! mirrored verbatim from each host's pool (including not-yet-purged
//! expired VMs) and filtered by `expiry >= now` at query time, exactly
//! like [`HostSim::locality`](crate::hostsim::HostSim::locality). A
//! disabled handle makes every notification a no-op and `pick` falls
//! back to the scan, so unit tests and ad-hoc `HostSim` use are
//! unaffected.

use std::cell::RefCell;
use std::rc::Rc;

use sim_core::detmap::DetMap;
use sim_core::rng::Prng;
use sim_core::time::SimTime;

use crate::arrival::TenantId;
use crate::hostsim::HostSim;
use crate::router::RoutePolicy;

/// Segment-tree sentinel for hosts that cannot admit.
const FULL: (usize, usize) = (usize::MAX, usize::MAX);

/// Shared, optionally-enabled router index handle.
#[derive(Clone, Default)]
pub struct RouterIndex {
    inner: Option<Rc<RefCell<IndexInner>>>,
}

impl std::fmt::Debug for RouterIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterIndex")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl RouterIndex {
    /// A disabled handle: every notification is a no-op and `pick`
    /// falls back to the O(hosts) scan.
    pub fn disabled() -> Self {
        RouterIndex { inner: None }
    }

    /// An enabled index over `n` hosts, all initially unknown (hosts
    /// report their real load/admission state when attached).
    pub fn enabled(n: usize) -> Self {
        RouterIndex {
            inner: Some(Rc::new(RefCell::new(IndexInner::new(n)))),
        }
    }

    /// True if notifications are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records `host`'s current load signal and admission headroom.
    pub fn set_host(&self, host: usize, load: usize, admit: bool) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().set_host(host, load, admit);
        }
    }

    /// Records a warm VM for `tenant` parked on `host` until `expiry`.
    pub fn warm_add(&self, host: usize, tenant: TenantId, expiry: SimTime) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().warm_add(host, tenant, expiry);
        }
    }

    /// Removes one warm-VM record matching `(host, expiry)` exactly.
    pub fn warm_remove(&self, host: usize, tenant: TenantId, expiry: SimTime) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().warm_remove(host, tenant, expiry);
        }
    }

    /// Reconciles `tenant`'s snapshot residency on `host`.
    pub fn set_snapshot(&self, host: usize, tenant: TenantId, present: bool) {
        if let Some(inner) = &self.inner {
            inner
                .borrow_mut()
                .set_member(Kind::Snapshot, host, tenant, present);
        }
    }

    /// Reconciles `tenant`'s loading-set cache residency on `host`.
    pub fn set_cached(&self, host: usize, tenant: TenantId, present: bool) {
        if let Some(inner) = &self.inner {
            inner
                .borrow_mut()
                .set_member(Kind::Cached, host, tenant, present);
        }
    }

    /// Picks a host for `tenant` under `policy`. With the index enabled
    /// this never touches `hosts`; disabled, it delegates to the scan.
    pub fn pick(
        &self,
        policy: RoutePolicy,
        hosts: &[HostSim],
        tenant: TenantId,
        now: SimTime,
        rng: &mut Prng,
    ) -> Option<usize> {
        match &self.inner {
            None => policy.pick(hosts, tenant, now, rng),
            Some(inner) => inner.borrow().pick(policy, tenant, now, rng),
        }
    }
}

/// Which per-tenant membership list a reconciliation targets.
#[derive(Clone, Copy)]
enum Kind {
    Snapshot,
    Cached,
}

struct IndexInner {
    n: usize,
    loads: Vec<usize>,
    admit: Vec<bool>,
    /// Segment tree (1-based, `seg[1]` = root) of `(load, host)` with
    /// [`FULL`] at non-admittable leaves; `size` is the leaf count.
    seg: Vec<(usize, usize)>,
    size: usize,
    /// Fenwick tree (1-based) over the admittable bit-vector.
    fen: Vec<u32>,
    admit_count: usize,
    /// tenant → warm VMs as (host, expiry); duplicates allowed (a host
    /// can park several VMs of one tenant, and two hosts can too).
    warm: DetMap<TenantId, Vec<(usize, SimTime)>>,
    /// tenant → hosts where a snapshot is registered.
    snap: DetMap<TenantId, Vec<usize>>,
    /// tenant → hosts where the loading set is cache-resident.
    cached: DetMap<TenantId, Vec<usize>>,
}

impl IndexInner {
    fn new(n: usize) -> Self {
        let size = n.next_power_of_two().max(1);
        IndexInner {
            n,
            loads: vec![0; n],
            admit: vec![false; n],
            seg: vec![FULL; 2 * size],
            size,
            fen: vec![0; n + 1],
            admit_count: 0,
            warm: DetMap::new(),
            snap: DetMap::new(),
            cached: DetMap::new(),
        }
    }

    fn set_host(&mut self, host: usize, load: usize, admit: bool) {
        self.loads[host] = load;
        if self.admit[host] != admit {
            self.admit[host] = admit;
            if admit {
                self.admit_count += 1;
                self.fen_add(host, 1);
            } else {
                self.admit_count -= 1;
                self.fen_add(host, -1);
            }
        }
        self.seg_set(host, if admit { (load, host) } else { FULL });
    }

    fn seg_set(&mut self, host: usize, v: (usize, usize)) {
        let mut i = self.size + host;
        self.seg[i] = v;
        while i > 1 {
            i /= 2;
            self.seg[i] = self.seg[2 * i].min(self.seg[2 * i + 1]);
        }
    }

    fn fen_add(&mut self, host: usize, delta: i32) {
        let mut i = host + 1;
        while i <= self.n {
            self.fen[i] = (self.fen[i] as i32 + delta) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// The `k`-th (0-based) admittable host in ascending id order.
    /// Requires `k < admit_count`.
    fn fen_select(&self, k: usize) -> usize {
        let mut pos = 0usize;
        let mut rem = (k + 1) as u32;
        let mut mask = self.n.next_power_of_two();
        // next_power_of_two can exceed n; the bound check below handles it.
        while mask > 0 {
            let next = pos + mask;
            if next <= self.n && self.fen[next] < rem {
                rem -= self.fen[next];
                pos = next;
            }
            mask /= 2;
        }
        // `pos` counts the admittable hosts strictly before the answer,
        // which in Fenwick terms is the 0-based host id itself.
        pos
    }

    fn warm_add(&mut self, host: usize, tenant: TenantId, expiry: SimTime) {
        self.warm
            .or_insert_with(tenant, Vec::new)
            .push((host, expiry));
    }

    fn warm_remove(&mut self, host: usize, tenant: TenantId, expiry: SimTime) {
        let Some(list) = self.warm.get_mut(&tenant) else {
            return;
        };
        if let Some(pos) = list.iter().position(|&(h, e)| h == host && e == expiry) {
            list.swap_remove(pos);
        }
        if list.is_empty() {
            self.warm.remove(&tenant);
        }
    }

    fn set_member(&mut self, kind: Kind, host: usize, tenant: TenantId, present: bool) {
        let map = match kind {
            Kind::Snapshot => &mut self.snap,
            Kind::Cached => &mut self.cached,
        };
        if present {
            let list = map.or_insert_with(tenant, Vec::new);
            if !list.contains(&host) {
                list.push(host);
            }
        } else if let Some(list) = map.get_mut(&tenant) {
            if let Some(pos) = list.iter().position(|&h| h == host) {
                list.swap_remove(pos);
            }
            if list.is_empty() {
                map.remove(&tenant);
            }
        }
    }

    fn pick(
        &self,
        policy: RoutePolicy,
        tenant: TenantId,
        now: SimTime,
        rng: &mut Prng,
    ) -> Option<usize> {
        match policy {
            RoutePolicy::Random => {
                // Mirror `Prng::choose` on the scan's admittable list:
                // no draw at all when the list is empty, one `below`
                // draw otherwise.
                if self.admit_count == 0 {
                    None
                } else {
                    Some(self.fen_select(rng.below(self.admit_count as u64) as usize))
                }
            }
            RoutePolicy::LeastLoaded => self.least_loaded(),
            RoutePolicy::SnapshotLocality => self
                .best_warm(tenant, now)
                .or_else(|| self.best_snapshot(tenant))
                .or_else(|| self.least_loaded()),
        }
    }

    fn least_loaded(&self) -> Option<usize> {
        let (load, host) = self.seg[1];
        if (load, host) == FULL {
            None
        } else {
            Some(host)
        }
    }

    /// Min-(load, host) admittable host holding an unexpired warm VM.
    fn best_warm(&self, tenant: TenantId, now: SimTime) -> Option<usize> {
        let list = self.warm.get(&tenant)?;
        list.iter()
            .filter(|&&(h, expiry)| expiry >= now && self.admit[h])
            .map(|&(h, _)| (self.loads[h], h))
            .min()
            .map(|(_, h)| h)
    }

    /// Min-(load, host) admittable host with a registered snapshot,
    /// cache-resident loading sets ranking above cold ones — the
    /// SnapshotHot ≻ SnapshotCold ordering of the scan.
    fn best_snapshot(&self, tenant: TenantId) -> Option<usize> {
        let list = self.snap.get(&tenant)?;
        let hot = self.cached.get(&tenant);
        let is_hot = |h: usize| hot.is_some_and(|v| v.contains(&h));
        let best = |want_hot: bool| {
            list.iter()
                .filter(|&&h| self.admit[h] && is_hot(h) == want_hot)
                .map(|&h| (self.loads[h], h))
                .min()
                .map(|(_, h)| h)
        };
        best(true).or_else(|| best(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_nanos(s * 1_000_000_000)
    }

    #[test]
    fn disabled_handle_is_inert() {
        let idx = RouterIndex::disabled();
        assert!(!idx.is_enabled());
        idx.set_host(0, 3, true);
        idx.warm_add(0, 1, t(5));
        idx.set_snapshot(0, 1, true);
        idx.set_cached(0, 1, true);
        // No panic, no state: pick falls through to the scan (empty
        // fleet here, so every policy sheds).
        let mut rng = Prng::new(1);
        for policy in [
            RoutePolicy::Random,
            RoutePolicy::LeastLoaded,
            RoutePolicy::SnapshotLocality,
        ] {
            assert_eq!(idx.pick(policy, &[], 1, t(0), &mut rng), None);
        }
    }

    #[test]
    fn least_loaded_tracks_updates() {
        let idx = RouterIndex::enabled(4);
        for h in 0..4 {
            idx.set_host(h, 0, true);
        }
        let mut rng = Prng::new(7);
        assert_eq!(
            idx.pick(RoutePolicy::LeastLoaded, &[], 0, t(0), &mut rng),
            Some(0)
        );
        idx.set_host(0, 2, true);
        idx.set_host(1, 1, true);
        assert_eq!(
            idx.pick(RoutePolicy::LeastLoaded, &[], 0, t(0), &mut rng),
            Some(2)
        );
        idx.set_host(2, 9, true);
        idx.set_host(3, 9, true);
        assert_eq!(
            idx.pick(RoutePolicy::LeastLoaded, &[], 0, t(0), &mut rng),
            Some(1)
        );
        for h in 0..4 {
            idx.set_host(h, 9, false);
        }
        assert_eq!(
            idx.pick(RoutePolicy::LeastLoaded, &[], 0, t(0), &mut rng),
            None
        );
    }

    #[test]
    fn random_matches_choose_on_admittable_list() {
        let idx = RouterIndex::enabled(5);
        // Hosts 1, 3, 4 admittable.
        idx.set_host(0, 0, false);
        idx.set_host(1, 0, true);
        idx.set_host(2, 0, false);
        idx.set_host(3, 0, true);
        idx.set_host(4, 0, true);
        let admittable = [1usize, 3, 4];
        let mut a = Prng::new(99);
        let mut b = Prng::new(99);
        for _ in 0..200 {
            let scan = a.choose(&admittable).copied();
            let fast = idx.pick(RoutePolicy::Random, &[], 0, t(0), &mut b);
            assert_eq!(scan, fast);
        }
    }

    #[test]
    fn locality_classes_rank_warm_hot_cold_nothing() {
        let idx = RouterIndex::enabled(4);
        for h in 0..4 {
            idx.set_host(h, 0, true);
        }
        let mut rng = Prng::new(5);
        let tenant = 7;
        // Nothing anywhere: global least-loaded (host 0).
        assert_eq!(
            idx.pick(RoutePolicy::SnapshotLocality, &[], tenant, t(0), &mut rng),
            Some(0)
        );
        // Cold snapshot on 3 beats nothing.
        idx.set_snapshot(3, tenant, true);
        assert_eq!(
            idx.pick(RoutePolicy::SnapshotLocality, &[], tenant, t(0), &mut rng),
            Some(3)
        );
        // Hot snapshot on 2 beats cold on 3.
        idx.set_snapshot(2, tenant, true);
        idx.set_cached(2, tenant, true);
        assert_eq!(
            idx.pick(RoutePolicy::SnapshotLocality, &[], tenant, t(0), &mut rng),
            Some(2)
        );
        // Warm VM on 1 beats everything — until it expires.
        idx.warm_add(1, tenant, t(10));
        assert_eq!(
            idx.pick(RoutePolicy::SnapshotLocality, &[], tenant, t(0), &mut rng),
            Some(1)
        );
        assert_eq!(
            idx.pick(RoutePolicy::SnapshotLocality, &[], tenant, t(11), &mut rng),
            Some(2),
            "expired warm entries are filtered at query time"
        );
        // A full host drops out of every class.
        idx.set_host(2, 0, false);
        assert_eq!(
            idx.pick(RoutePolicy::SnapshotLocality, &[], tenant, t(11), &mut rng),
            Some(3)
        );
        // Cache residency without a snapshot is Nothing, not hot.
        idx.set_snapshot(3, tenant, false);
        idx.set_cached(3, tenant, true);
        assert_eq!(
            idx.pick(RoutePolicy::SnapshotLocality, &[], tenant, t(11), &mut rng),
            Some(0),
            "cached-but-no-snapshot host is plain least-loaded"
        );
    }

    /// The load-bearing equivalence: drive a small fleet with random
    /// arrivals, completions, expiries, and eviction cascades, and at
    /// every routing decision check the indexed pick against the
    /// O(hosts) scan on identical rng clones. Tight budgets force warm
    /// cap evictions, registry evictions, and cache-eviction cascades —
    /// every notification path in `HostSim`.
    #[test]
    fn indexed_pick_matches_scan_over_random_traffic() {
        use crate::hostsim::{Admission, HostConfig, QueuedJob, ServiceTimes};
        use faasnap_obs::TraceContext;
        use sim_core::time::SimDuration;

        let times = ServiceTimes {
            snapshot_bytes: 40,
            loading_set_bytes: 30,
            ..ServiceTimes::default()
        };
        for (pi, policy) in [
            RoutePolicy::Random,
            RoutePolicy::LeastLoaded,
            RoutePolicy::SnapshotLocality,
        ]
        .into_iter()
        .enumerate()
        {
            let cfg = HostConfig {
                slots: 2,
                queue_cap: 1,
                warm_ttl: SimDuration::from_secs(2),
                warm_pool_cap: 2,
                snapshot_budget_bytes: 100,
                cache_budget_bytes: 70,
                store: crate::store::StoreParams::default(),
                branch: false,
            };
            let idx = RouterIndex::enabled(4);
            let mut hosts: Vec<HostSim> = (0..4).map(|_| HostSim::new(cfg)).collect();
            for (i, h) in hosts.iter_mut().enumerate() {
                h.attach_index(idx.clone(), i);
            }
            let mut rng = Prng::new(0xD1FF ^ pi as u64);
            let mut route_rng = Prng::new(0x9A7E);
            // (finish_time, host, tenant), kept sorted by finish_time
            // with FIFO insertion order on ties.
            let mut pending: Vec<(SimTime, usize, TenantId)> = Vec::new();
            let mut now = SimTime::ZERO;
            for step in 0..600 {
                now += SimDuration::from_millis(rng.below(400));
                while pending.first().is_some_and(|&(f, _, _)| f <= now) {
                    let (fin, host, tenant) = pending.remove(0);
                    hosts[host].finish(tenant, fin);
                    if let Some(job) = hosts[host].pop_queued() {
                        let (_, service) =
                            hosts[host].start_service(job.tenant, job.family, fin, &times);
                        let at = fin + service;
                        let pos = pending.partition_point(|&(f, _, _)| f <= at);
                        pending.insert(pos, (at, host, job.tenant));
                    }
                }
                let tenant: TenantId = rng.below(6) as TenantId;
                let mut shadow = route_rng.clone();
                let scan = policy.pick(&hosts, tenant, now, &mut shadow);
                let fast = idx.pick(policy, &hosts, tenant, now, &mut route_rng);
                assert_eq!(scan, fast, "{policy:?} diverged at step {step}");
                let Some(host) = fast else { continue };
                let job = QueuedJob {
                    tenant,
                    family: tenant as u64 % 2,
                    arrived: now,
                    ctx: TraceContext::NONE,
                };
                if let Admission::Started { service, .. } = hosts[host].admit(job, now, &times) {
                    let at = now + service;
                    let pos = pending.partition_point(|&(f, _, _)| f <= at);
                    pending.insert(pos, (at, host, tenant));
                }
            }
        }
    }

    #[test]
    fn warm_duplicates_remove_one_instance() {
        let idx = RouterIndex::enabled(2);
        idx.set_host(0, 0, true);
        idx.set_host(1, 0, true);
        let tenant = 3;
        idx.warm_add(1, tenant, t(10));
        idx.warm_add(1, tenant, t(20));
        idx.warm_remove(1, tenant, t(10));
        let mut rng = Prng::new(2);
        assert_eq!(
            idx.pick(RoutePolicy::SnapshotLocality, &[], tenant, t(15), &mut rng),
            Some(1),
            "the t=20 warm VM survives"
        );
        idx.warm_remove(1, tenant, t(20));
        assert_eq!(
            idx.pick(RoutePolicy::SnapshotLocality, &[], tenant, t(15), &mut rng),
            Some(0)
        );
    }
}
