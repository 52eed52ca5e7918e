//! Store-aware snapshot registry: chunk-level dedup under a byte budget.
//!
//! The whole-file [`crate::hostsim::LruBudget`] registry charges every
//! tenant its full snapshot size, so a 24 GiB budget holds ~12 distinct
//! 2 GiB snapshots and Zipf-tail tenants thrash through cold boots. In
//! reality most of those bytes are identical across snapshots: zero
//! pages, the language runtime, and the function family's shared image.
//! [`StoreRegistry`] keeps the same LRU *policy* surface but accounts
//! residency through a content-addressed [`SnapshotStore`], with chunk
//! identities from a synthetic provenance model. Each tenant snapshot
//! is composed of two accounting layers: the *family layer*
//! ([`family_chunks`]: zero, runtime and family-image chunks), shared by
//! every resident tenant of the same function family and snapshot size,
//! and the *tenant layer* ([`tenant_chunks`]: the private rest). A cold
//! boot therefore inserts only the tenant's own chunk references, plus
//! the family layer when it is the family's first resident tenant, and
//! an eviction releases only those. Eviction drops snapshots until the
//! store's *unique* bytes fit the budget; chunks shared with surviving
//! snapshots stay resident, so evicting a tenant frees only what nobody
//! else references.
//!
//! With `dedup: false` every chunk identity is tenant-unique: there is
//! no family layer, each snapshot is its tenant layer alone, unique
//! bytes equal the sum of snapshot sizes, and the registry reproduces
//! whole-file LRU accounting byte-for-byte — the ablation baseline.
//!
//! Determinism: chunk identities come from [`ChunkHash::synthetic`]
//! (seeded FNV/splitmix over label words, no OS entropy), and all state
//! lives in order-preserving collections.

use std::collections::VecDeque;

use faasnap_store::{ChunkHash, LayerId, LayerKind, SnapshotId, SnapshotStore, StoreConfig};
use sim_core::detmap::{DetMap, DetSet};
use sim_core::units::PAGE_SIZE;

use crate::arrival::TenantId;

/// Fleet-level snapshot-store parameters (one per host config).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoreParams {
    /// Chunk-level dedup across tenants. `false` makes every chunk
    /// identity tenant-unique, reproducing whole-file LRU accounting.
    pub dedup: bool,
    /// Chunk granularity in bytes (must be nonzero).
    pub chunk_bytes: u64,
}

impl Default for StoreParams {
    fn default() -> Self {
        StoreParams {
            dedup: true,
            // 2 MiB: the huge-page-sized extents the restore path favors.
            chunk_bytes: 2 << 20,
        }
    }
}

/// The synthetic chunk provenance of a snapshot of `snapshot_bytes`:
/// `(zero, runtime, family, n)` slot counts out of its
/// `n = ceil(bytes / chunk_bytes)` chunks.
///
/// The partition models the dedup structure FaaSnap snapshots exhibit:
/// `n/5` zero chunks (one shared identity), `n/4` runtime chunks (shared
/// by every tenant), `n/2` family chunks (shared by tenants of the same
/// workload), and the remainder — at least one chunk — tenant-private.
/// With dedup off all `n` chunks are tenant-private.
fn partition(params: StoreParams, snapshot_bytes: u64) -> (u64, u64, u64, u64) {
    assert!(params.chunk_bytes > 0, "chunk_bytes must be nonzero");
    let n = snapshot_bytes.div_ceil(params.chunk_bytes);
    if params.dedup {
        (n / 5, n / 4, n / 2, n)
    } else {
        (0, 0, 0, n)
    }
}

/// The shared slots of a `family` snapshot of `snapshot_bytes`: its
/// zero, runtime and family chunks, slots `0..k`, as `(slot, identity,
/// bytes)` triples for [`SnapshotStore::put_layer_refs`]. Takes no
/// tenant, so every tenant of the family lists the same identities.
/// Empty with dedup off.
pub fn family_chunks(
    params: StoreParams,
    family: u64,
    snapshot_bytes: u64,
) -> Vec<(u64, ChunkHash, u64)> {
    let (zero, runtime, fam, _) = partition(params, snapshot_bytes);
    // The last chunk is always a tenant slot, so every shared slot is a
    // full chunk.
    let bytes = params.chunk_bytes;
    (0..zero + runtime + fam)
        .map(|idx| {
            let hash = if idx < zero {
                ChunkHash::synthetic(&[0, bytes])
            } else if idx < zero + runtime {
                ChunkHash::synthetic(&[1, idx, bytes])
            } else {
                ChunkHash::synthetic(&[2, family, idx, bytes])
            };
            (idx, hash, bytes)
        })
        .collect()
}

/// The private slots of `tenant`'s snapshot: slots `k..n` after
/// [`family_chunks`]' `0..k`, always including the partial final chunk
/// of `bytes - (n-1)·chunk_bytes`. The bytes of both functions' slots
/// sum to exactly `snapshot_bytes`, so with dedup off — where this is
/// every slot — the registry is byte-identical to the whole-file
/// baseline.
pub fn tenant_chunks(
    params: StoreParams,
    family: u64,
    tenant: TenantId,
    snapshot_bytes: u64,
) -> Vec<(u64, ChunkHash, u64)> {
    let (zero, runtime, fam, n) = partition(params, snapshot_bytes);
    // Dedup-off identities carry their own tag: they cover every slot.
    let tag = if params.dedup { 3 } else { 4 };
    (zero + runtime + fam..n)
        .map(|idx| {
            let bytes = if idx + 1 == n {
                snapshot_bytes - idx * params.chunk_bytes
            } else {
                params.chunk_bytes
            };
            let hash = ChunkHash::synthetic(&[tag, family, tenant as u64, idx, bytes]);
            (idx, hash, bytes)
        })
        .collect()
}

/// Byte-budgeted LRU registry over store-backed tenant snapshots.
///
/// Mirrors the [`crate::hostsim::LruBudget`] surface (`contains` /
/// `touch` / `insert` → evicted tenants / `remove`) but charges the
/// budget against the store's unique bytes: inserting a snapshot whose
/// chunks are already resident costs almost nothing, and eviction frees
/// only chunks no surviving snapshot references.
///
/// Each resident snapshot is `[family layer, tenant layer]`. The family
/// layer of a `(family, snapshot_bytes)` pair is created by its first
/// resident tenant and forgotten when the store frees it with its last,
/// so an insert or eviction costs O(tenant slots), not O(snapshot
/// chunks), while the set of resident chunk identities — and with it
/// every byte count and eviction decision — is what one flat layer per
/// snapshot would give.
#[derive(Clone, Debug)]
pub struct StoreRegistry {
    store: SnapshotStore,
    params: StoreParams,
    budget: u64,
    /// LRU order; front is the next eviction victim.
    lru: VecDeque<TenantId>,
    /// Resident tenant → its snapshot and the `(family, snapshot_bytes)`
    /// key of the family layer beneath it.
    resident: DetMap<TenantId, (SnapshotId, (u64, u64))>,
    /// Family layers by `(family, snapshot_bytes)`, present exactly while
    /// some resident snapshot lists the layer. Empty with dedup off.
    families: DetMap<(u64, u64), LayerId>,
}

impl StoreRegistry {
    /// Creates an empty registry with the given unique-byte budget.
    pub fn new(budget: u64, params: StoreParams) -> Self {
        let chunk_pages = (params.chunk_bytes / PAGE_SIZE).max(1);
        StoreRegistry {
            store: SnapshotStore::new(StoreConfig { chunk_pages }),
            params,
            budget,
            lru: VecDeque::new(),
            resident: DetMap::new(),
            families: DetMap::new(),
        }
    }

    /// True if `tenant` has a resident snapshot.
    pub fn contains(&self, tenant: TenantId) -> bool {
        self.resident.contains_key(&tenant)
    }

    /// Unique bytes currently resident (what the budget charges).
    pub fn total_bytes(&self) -> u64 {
        self.store.unique_bytes()
    }

    /// Logical (pre-dedup) bytes of all resident snapshots — what the
    /// whole-file registry would have charged.
    pub fn logical_bytes(&self) -> u64 {
        self.store.logical_bytes()
    }

    /// Logical over unique bytes; 0.0 when empty (fresh registries have
    /// no sharing to report, and 0 stays finite in JSON/Prometheus).
    pub fn dedup_ratio(&self) -> f64 {
        self.store.dedup_ratio()
    }

    /// The configured unique-byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// The store parameters this registry was built with.
    pub fn params(&self) -> StoreParams {
        self.params
    }

    /// Number of resident snapshots.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// The underlying store (inspectable in tests and metrics).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Marks `tenant` most recently used, without inserting.
    pub fn touch(&mut self, tenant: TenantId) {
        if let Some(pos) = self.lru.iter().position(|t| *t == tenant) {
            self.lru.remove(pos);
            self.lru.push_back(tenant);
        }
    }

    /// Inserts (or refreshes) `tenant`'s snapshot, then evicts from the
    /// LRU end until unique bytes fit the budget. Returns the evicted
    /// tenants. A snapshot whose chunks alone exceed the whole budget is
    /// rejected (returned as if evicted immediately), like the
    /// whole-file registry's oversize rule.
    pub fn insert(&mut self, tenant: TenantId, family: u64, snapshot_bytes: u64) -> Vec<TenantId> {
        self.remove(tenant);
        let key = (family, snapshot_bytes);
        // A snapshot's standalone footprint depends only on its family
        // and size, so a resident family layer proves this one fits.
        let base = match self.families.get(&key) {
            Some(&layer) => Some(layer),
            None => {
                let shared = family_chunks(self.params, family, snapshot_bytes);
                // The footprint counts each distinct identity once; only
                // shared slots repeat one (the zero chunks).
                let mut seen = DetSet::new();
                let repeated: u64 = shared
                    .iter()
                    .filter(|&&(_, hash, _)| !seen.insert(hash))
                    .map(|&(_, _, bytes)| bytes)
                    .sum();
                if snapshot_bytes - repeated > self.budget {
                    return vec![tenant];
                }
                if shared.is_empty() {
                    None
                } else {
                    let Ok(layer) = self.store.put_layer_refs(LayerKind::Base, &shared) else {
                        return vec![tenant];
                    };
                    self.families.insert(key, layer);
                    Some(layer)
                }
            }
        };
        let kind = if base.is_some() {
            LayerKind::Delta
        } else {
            LayerKind::Base
        };
        let private = tenant_chunks(self.params, family, tenant, snapshot_bytes);
        // The slot generators list ascending slots and both layers exist
        // once laid down, so neither step can fail. Refuse residency
        // rather than panic.
        let Ok(own) = self.store.put_layer_refs(kind, &private) else {
            return vec![tenant];
        };
        let layers: &[LayerId] = match base {
            Some(base) => &[base, own],
            None => &[own],
        };
        let Ok(id) = self.store.compose_snapshot(layers, snapshot_bytes) else {
            return vec![tenant];
        };
        self.lru.push_back(tenant);
        self.resident.insert(tenant, (id, key));
        let mut evicted = Vec::new();
        // The new snapshot fits alone, so this terminates before
        // reaching it at the back of the queue.
        while self.store.unique_bytes() > self.budget {
            let Some(victim) = self.lru.pop_front() else {
                break;
            };
            self.drop_resident(victim);
            evicted.push(victim);
        }
        evicted
    }

    /// Removes `tenant` outright (deliberate invalidation), freeing only
    /// chunks no surviving snapshot references.
    pub fn remove(&mut self, tenant: TenantId) {
        if self.drop_resident(tenant) {
            if let Some(pos) = self.lru.iter().position(|t| *t == tenant) {
                self.lru.remove(pos);
            }
        }
    }

    /// Drops `tenant`'s snapshot, if resident, and forgets its family
    /// layer once the store reports that layer freed. Leaves the LRU
    /// order to the caller. Returns whether a snapshot was dropped.
    fn drop_resident(&mut self, tenant: TenantId) -> bool {
        let Some((id, key)) = self.resident.remove(&tenant) else {
            return false;
        };
        if let Ok(freed) = self.store.drop_snapshot(id) {
            if self
                .families
                .get(&key)
                .is_some_and(|layer| freed.contains(layer))
            {
                self.families.remove(&key);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn params(dedup: bool) -> StoreParams {
        StoreParams {
            dedup,
            chunk_bytes: 2 * MB,
        }
    }

    #[test]
    fn dedup_off_reproduces_whole_file_accounting() {
        let mut reg = StoreRegistry::new(100 * MB, params(false));
        // Odd size: the partial final chunk must be charged exactly.
        assert!(reg.insert(0, 0, 33 * MB + 5).is_empty());
        assert!(reg.insert(1, 0, 40 * MB).is_empty());
        assert_eq!(reg.total_bytes(), 73 * MB + 5);
        assert_eq!(reg.logical_bytes(), 73 * MB + 5);
        assert!((reg.dedup_ratio() - 1.0).abs() < 1e-12);
        // Third snapshot busts the budget; tenant 0 is LRU.
        assert_eq!(reg.insert(2, 0, 40 * MB), vec![0]);
        assert!(!reg.contains(0) && reg.contains(1) && reg.contains(2));
        assert_eq!(reg.total_bytes(), 80 * MB);
    }

    #[test]
    fn dedup_shares_family_and_runtime_chunks() {
        let mut reg = StoreRegistry::new(1 << 40, params(true));
        assert!(reg.insert(0, 7, 40 * MB).is_empty());
        let one = reg.total_bytes();
        assert!(reg.insert(1, 7, 40 * MB).is_empty());
        let two = reg.total_bytes();
        // Same family: only the private ~5% of chunks is new.
        assert!(
            two - one < (40 * MB) / 10,
            "second same-family snapshot added {} bytes",
            two - one
        );
        assert!(reg.dedup_ratio() > 1.5, "ratio {}", reg.dedup_ratio());
        // A different family still shares zero + runtime chunks.
        assert!(reg.insert(2, 8, 40 * MB).is_empty());
        let three = reg.total_bytes();
        assert!(
            three - two < 40 * MB,
            "cross-family snapshot added {} bytes",
            three - two
        );
        reg.store().debug_validate().expect("refcounts conserved");
    }

    #[test]
    fn eviction_frees_only_unreferenced_chunks() {
        let mut reg = StoreRegistry::new(1 << 40, params(true));
        reg.insert(0, 7, 40 * MB);
        reg.insert(1, 7, 40 * MB);
        let both = reg.total_bytes();
        reg.remove(0);
        let after = reg.total_bytes();
        // Shared zero/runtime/family chunks survive with tenant 1; only
        // tenant 0's private chunks are freed.
        assert!(after > both / 2, "eviction dropped shared chunks");
        assert!(after < both, "eviction freed nothing");
        reg.store().debug_validate().expect("refcounts conserved");
    }

    #[test]
    fn oversized_snapshot_rejected_not_wedged() {
        let mut reg = StoreRegistry::new(10 * MB, params(false));
        assert_eq!(reg.insert(0, 0, 25 * MB), vec![0]);
        assert!(reg.is_empty());
        assert_eq!(reg.total_bytes(), 0);
    }

    #[test]
    fn touch_changes_victim() {
        let mut reg = StoreRegistry::new(100 * MB, params(false));
        assert!(reg.insert(0, 0, 40 * MB).is_empty());
        assert!(reg.insert(1, 0, 40 * MB).is_empty());
        reg.touch(0); // 1 is now LRU
        assert_eq!(reg.insert(2, 0, 40 * MB), vec![1]);
        assert!(reg.contains(0) && reg.contains(2) && !reg.contains(1));
    }

    #[test]
    fn dedup_fits_many_more_snapshots_than_whole_file() {
        // Same budget, same Zipf-ish family mix: count resident
        // snapshots when inserts stop evicting.
        let budget = 200 * MB;
        let fit = |dedup: bool| {
            let mut reg = StoreRegistry::new(budget, params(dedup));
            let mut resident = 0usize;
            for tenant in 0..64 {
                let family = (tenant % 4) as u64;
                reg.insert(tenant, family, 40 * MB);
                resident = resident.max(reg.len());
            }
            resident
        };
        let whole = fit(false);
        let chunked = fit(true);
        assert!(
            chunked >= 5 * whole,
            "dedup fits {chunked}, whole-file fits {whole}"
        );
    }

    #[test]
    fn family_and_tenant_slots_partition_the_snapshot() {
        for dedup in [true, false] {
            let p = params(dedup);
            for n in 1..=1024u64 {
                // Three pages into the last chunk: a partial final chunk.
                let bytes = (n - 1) * p.chunk_bytes + 3 * PAGE_SIZE;
                let shared = family_chunks(p, 5, bytes);
                let own = tenant_chunks(p, 5, 1, bytes);
                let slots: Vec<u64> = shared.iter().chain(&own).map(|c| c.0).collect();
                assert_eq!(slots, (0..n).collect::<Vec<_>>(), "n = {n}");
                let total: u64 = shared.iter().chain(&own).map(|c| c.2).sum();
                assert_eq!(total, bytes, "n = {n}");
                assert_eq!(own.last().map(|c| c.0), Some(n - 1), "n = {n}");
                let other: DetSet<ChunkHash> = tenant_chunks(p, 5, 2, bytes)
                    .into_iter()
                    .map(|c| c.1)
                    .collect();
                assert!(own.iter().all(|c| !other.contains(&c.1)), "n = {n}");
                if !dedup {
                    assert!(shared.is_empty(), "n = {n}");
                }
            }
        }
    }

    #[test]
    fn family_layer_is_shared_and_freed_with_its_last_tenant() {
        let mut reg = StoreRegistry::new(1 << 40, params(true));
        let bytes = 40 * MB;
        let shared = family_chunks(params(true), 7, bytes).len() as u64;
        let own = tenant_chunks(params(true), 7, 0, bytes).len() as u64;
        let inserted = |reg: &StoreRegistry| reg.store().stats().chunks_inserted;
        reg.insert(0, 7, bytes);
        assert_eq!(inserted(&reg), shared + own);
        // Later tenants of the family insert only their own slots, also
        // after an earlier tenant left.
        reg.insert(1, 7, bytes);
        reg.remove(0);
        assert_eq!(reg.store().resident_layers(), 2, "family layer kept");
        reg.insert(2, 7, bytes);
        assert_eq!(inserted(&reg), shared + 3 * own);
        assert_eq!(reg.store().resident_layers(), 3);
        // A different size is a different family layer.
        reg.insert(3, 7, bytes + MB);
        assert_eq!(reg.store().resident_layers(), 5);
        for tenant in 1..=3 {
            reg.remove(tenant);
        }
        assert_eq!(reg.store().resident_layers(), 0);
        assert_eq!(reg.total_bytes(), 0);
        // The family's next tenant lays a fresh family layer down.
        assert!(reg.insert(4, 7, bytes).is_empty());
        assert!(reg.contains(4));
        assert_eq!(reg.store().resident_layers(), 2);
        reg.store().debug_validate().expect("refcounts conserved");
    }

    #[test]
    fn registry_state_is_deterministic() {
        let run = || {
            let mut reg = StoreRegistry::new(150 * MB, params(true));
            let mut log = Vec::new();
            for step in 0..40u64 {
                let tenant = (step * 7 % 11) as TenantId;
                let family = tenant as u64 % 3;
                log.push(reg.insert(tenant, family, (20 + step % 5) * MB));
                if step % 9 == 0 {
                    reg.remove((step % 11) as TenantId);
                }
            }
            (log, reg.total_bytes(), reg.logical_bytes(), reg.len())
        };
        assert_eq!(run(), run());
    }
}
