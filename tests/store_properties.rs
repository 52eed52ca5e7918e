//! Property and acceptance tests for the content-addressed snapshot
//! store (`faasnap-store`) and its fleet integration:
//!
//! - chunk/dechunk identity: a base layer materializes back to exactly
//!   the sparse page image it was recorded from;
//! - delta-over-base equivalence: resolving base+delta yields the same
//!   image as recording the mutated memory flat;
//! - store == reference model: random accounting layers (sharing chunk
//!   identities, some with unordered or repeated slots), compositions
//!   and drops leave the store's byte counts, residency, freed layers
//!   and resolutions equal to an independent refcount model's;
//! - layered registry == flat registry: random insert/touch/remove
//!   sequences, with dedup on and off and 2 or 8 MiB chunks, evict the
//!   same tenants and account the same bytes as a flat oracle (one layer
//!   per snapshot), keep every refcount exact (`debug_validate`) and
//!   never exceed the budget;
//! - fleet determinism: with dedup enabled, a seed produces
//!   byte-identical fleet JSON, and a fleet whose registries evict has
//!   its JSON pinned;
//! - capacity: under the same snapshot budget and a Zipf workload,
//!   chunk dedup keeps ≥5× more distinct function snapshots resident
//!   than whole-file LRU accounting.

use std::collections::{BTreeMap, VecDeque};

use faasnap_cluster::arrival::TenantId;
use faasnap_cluster::{
    family_chunks, run_cluster, tenant_chunks, ClusterConfig, RoutePolicy, StoreParams,
    StoreRegistry, WorkloadSpec,
};
use faasnap_store::{
    ChunkHash, LayerId, LayerKind, SnapshotId, SnapshotStore, StoreConfig, StoreError,
};
use proptest::prelude::*;
use sim_core::time::SimDuration;
use sim_core::units::PAGE_SIZE;

/// A small sparse page image: nonzero `(page, token)` pairs in strictly
/// ascending page order, the form the store ingests. (The in-tree
/// proptest shim has no `btree_map`, so collect pairs through a map.)
fn sparse_image() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..256, 1u64..u64::MAX), 0..64).prop_map(|pairs| {
        pairs
            .into_iter()
            .collect::<BTreeMap<u64, u64>>()
            .into_iter()
            .collect()
    })
}

/// The flat registry the layered [`StoreRegistry`] must agree with: one
/// accounting layer of `family_chunks ++ tenant_chunks` per snapshot,
/// evicted LRU-first until unique bytes fit the budget.
struct FlatRegistry {
    store: SnapshotStore,
    budget: u64,
    params: StoreParams,
    lru: VecDeque<TenantId>,
    resident: BTreeMap<TenantId, SnapshotId>,
}

impl FlatRegistry {
    fn new(budget: u64, params: StoreParams) -> Self {
        let chunk_pages = (params.chunk_bytes / PAGE_SIZE).max(1);
        FlatRegistry {
            store: SnapshotStore::new(StoreConfig { chunk_pages }),
            budget,
            params,
            lru: VecDeque::new(),
            resident: BTreeMap::new(),
        }
    }

    fn touch(&mut self, tenant: TenantId) {
        if let Some(pos) = self.lru.iter().position(|t| *t == tenant) {
            self.lru.remove(pos);
            self.lru.push_back(tenant);
        }
    }

    fn remove(&mut self, tenant: TenantId) {
        if let Some(id) = self.resident.remove(&tenant) {
            self.store.drop_snapshot(id).unwrap();
            self.lru.retain(|t| *t != tenant);
        }
    }

    fn insert(&mut self, tenant: TenantId, family: u64, snapshot_bytes: u64) -> Vec<TenantId> {
        self.remove(tenant);
        let mut chunks = family_chunks(self.params, family, snapshot_bytes);
        chunks.extend(tenant_chunks(self.params, family, tenant, snapshot_bytes));
        let mut solo = BTreeMap::new();
        for &(_, hash, bytes) in &chunks {
            solo.entry(hash).or_insert(bytes);
        }
        if solo.values().sum::<u64>() > self.budget {
            return vec![tenant];
        }
        let layer = self.store.put_layer_refs(LayerKind::Base, &chunks).unwrap();
        let id = self
            .store
            .compose_snapshot(&[layer], snapshot_bytes)
            .unwrap();
        self.lru.push_back(tenant);
        self.resident.insert(tenant, id);
        let mut evicted = Vec::new();
        while self.store.unique_bytes() > self.budget {
            let victim = self.lru.pop_front().unwrap();
            let id = self.resident.remove(&victim).unwrap();
            self.store.drop_snapshot(id).unwrap();
            evicted.push(victim);
        }
        evicted
    }
}

/// An independent model of [`SnapshotStore`]'s reference accounting,
/// built on `BTreeMap`s and never on the store: a layer holds one chunk
/// reference per slot, a snapshot one layer reference per list entry,
/// and the last reference frees (a layer's chunks with it).
#[derive(Default)]
struct StoreModel {
    /// Identity → (references, bytes).
    chunks: BTreeMap<ChunkHash, (u64, u64)>,
    /// Layer → (slot index → identity, references).
    layers: BTreeMap<LayerId, (BTreeMap<u64, ChunkHash>, u64)>,
    /// Snapshot → (layers oldest first, logical bytes).
    snapshots: BTreeMap<SnapshotId, (Vec<LayerId>, u64)>,
}

impl StoreModel {
    fn put_layer(&mut self, id: LayerId, slots: &[(u64, ChunkHash, u64)]) {
        for &(_, hash, bytes) in slots {
            self.chunks.entry(hash).or_insert((0, bytes)).0 += 1;
        }
        let map = slots.iter().map(|&(idx, hash, _)| (idx, hash)).collect();
        assert!(
            self.layers.insert(id, (map, 0)).is_none(),
            "layer id reused"
        );
    }

    fn compose(&mut self, id: SnapshotId, layers: &[LayerId], logical: u64) {
        for layer in layers {
            self.layers.get_mut(layer).unwrap().1 += 1;
        }
        let fresh = self.snapshots.insert(id, (layers.to_vec(), logical));
        assert!(fresh.is_none(), "snapshot id reused");
    }

    /// Drops a snapshot; returns the layers freed, in list order.
    fn drop_snapshot(&mut self, id: SnapshotId) -> Vec<LayerId> {
        let (layers, _) = self.snapshots.remove(&id).unwrap();
        let mut freed = Vec::new();
        for layer in layers {
            let refs = &mut self.layers.get_mut(&layer).unwrap().1;
            *refs -= 1;
            if *refs > 0 {
                continue;
            }
            let (slots, _) = self.layers.remove(&layer).unwrap();
            for hash in slots.values() {
                let refs = &mut self.chunks.get_mut(hash).unwrap().0;
                *refs -= 1;
                if *refs == 0 {
                    self.chunks.remove(hash);
                }
            }
            freed.push(layer);
        }
        freed
    }

    /// Chunk index → identity, newest layer winning.
    fn resolve(&self, id: SnapshotId) -> BTreeMap<u64, ChunkHash> {
        let mut map = BTreeMap::new();
        for layer in self.snapshots[&id].0.iter().rev() {
            for (&idx, &hash) in &self.layers[layer].0 {
                map.entry(idx).or_insert(hash);
            }
        }
        map
    }

    fn unique_bytes(&self) -> u64 {
        self.chunks.values().map(|&(_, bytes)| bytes).sum()
    }

    fn logical_bytes(&self) -> u64 {
        self.snapshots.values().map(|&(_, logical)| logical).sum()
    }
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

proptest! {
    /// Recording a base layer and materializing the composed snapshot
    /// round-trips the sparse image exactly (zero pages stay absent).
    #[test]
    fn base_layer_roundtrips_identity(pages in sparse_image()) {
        let mut store = SnapshotStore::new(StoreConfig { chunk_pages: 16 });
        let base = store.put_base_layer(&pages).unwrap();
        let snap = store.compose_snapshot(&[base], 0).unwrap();
        prop_assert_eq!(store.materialize(snap).unwrap(), pages);
        store.debug_validate().unwrap();
    }

    /// A delta layer over a base resolves to the same image as
    /// recording the mutated memory as a flat base snapshot.
    #[test]
    fn delta_over_base_equals_flat(
        base_pages in sparse_image(),
        write_pairs in proptest::collection::vec((0u64..256, 0u64..u64::MAX), 0..32),
    ) {
        let mut store = SnapshotStore::new(StoreConfig { chunk_pages: 16 });
        let base = store.put_base_layer(&base_pages).unwrap();
        let parent = store.compose_snapshot(&[base], 0).unwrap();

        // Apply the writes (token 0 = page zeroed → removed).
        let writes: BTreeMap<u64, u64> = write_pairs.into_iter().collect();
        let mut mutated: BTreeMap<u64, u64> = base_pages.iter().copied().collect();
        for (&page, &token) in &writes {
            if token == 0 {
                mutated.remove(&page);
            } else {
                mutated.insert(page, token);
            }
        }
        let mutated: Vec<(u64, u64)> = mutated.into_iter().collect();
        let delta = store.put_delta_layer(parent, &mutated).unwrap();
        let layered = store.compose_snapshot(&[base, delta], 0).unwrap();

        let mut flat_store = SnapshotStore::new(StoreConfig { chunk_pages: 16 });
        let flat_base = flat_store.put_base_layer(&mutated).unwrap();
        let flat = flat_store.compose_snapshot(&[flat_base], 0).unwrap();

        prop_assert_eq!(
            store.materialize(layered).unwrap(),
            flat_store.materialize(flat).unwrap()
        );
        store.debug_validate().unwrap();
    }

    /// Random accounting layers, compositions over 1–3 live layers and
    /// drops in random order keep the store equal to [`StoreModel`]
    /// after every step. Six identities with distinct sizes are shared
    /// across layers; slots go in as drawn every other layer, so
    /// unordered and repeated slot indices must be refused whole.
    #[test]
    fn store_matches_reference_model(
        ops in proptest::collection::vec(
            (
                0u8..4,
                proptest::collection::vec((0u64..12, 0u64..6), 0..8),
                proptest::collection::vec(0usize..64, 1..4),
                0u64..1000,
            ),
            1..80,
        ),
    ) {
        let mut store = SnapshotStore::new(StoreConfig { chunk_pages: 4 });
        let mut model = StoreModel::default();
        for (op, raw, picks, logical) in ops {
            let slot = |(idx, identity): (u64, u64)| {
                (idx, ChunkHash::synthetic(&[identity]), 100 * (identity + 1))
            };
            match op {
                // As drawn: accepted only if strictly ascending.
                0 => {
                    let slots: Vec<_> = raw.into_iter().map(slot).collect();
                    let ascending = slots.windows(2).all(|w| w[0].0 < w[1].0);
                    match store.put_layer_refs(LayerKind::Base, &slots) {
                        Ok(id) => {
                            prop_assert!(ascending, "unordered slots accepted: {:?}", slots);
                            model.put_layer(id, &slots);
                        }
                        Err(e) => {
                            prop_assert!(!ascending, "ascending slots refused: {}", e);
                            prop_assert!(matches!(e, StoreError::Invariant(_)));
                        }
                    }
                }
                // Sorted, one identity per index (the last drawn).
                1 => {
                    let sorted: BTreeMap<u64, u64> = raw.into_iter().collect();
                    let slots: Vec<_> = sorted.into_iter().map(slot).collect();
                    let id = store.put_layer_refs(LayerKind::Delta, &slots).unwrap();
                    model.put_layer(id, &slots);
                }
                2 => {
                    let live: Vec<LayerId> = model.layers.keys().copied().collect();
                    if live.is_empty() {
                        continue;
                    }
                    let layers: Vec<LayerId> =
                        picks.iter().map(|&p| live[p % live.len()]).collect();
                    let id = store.compose_snapshot(&layers, logical).unwrap();
                    model.compose(id, &layers, logical);
                }
                _ => {
                    let live: Vec<SnapshotId> = model.snapshots.keys().copied().collect();
                    if live.is_empty() {
                        continue;
                    }
                    let id = live[picks[0] % live.len()];
                    prop_assert_eq!(store.drop_snapshot(id).unwrap(), model.drop_snapshot(id));
                    prop_assert!(store.resolve(id).is_err(), "dropped snapshot resolves");
                }
            }
            prop_assert_eq!(store.unique_bytes(), model.unique_bytes());
            prop_assert_eq!(store.logical_bytes(), model.logical_bytes());
            prop_assert_eq!(store.resident_chunks(), model.chunks.len());
            prop_assert_eq!(store.resident_layers(), model.layers.len());
            for &id in model.snapshots.keys() {
                let resolved = model.resolve(id);
                prop_assert_eq!(&store.resolve(id).unwrap(), &resolved);
                for idx in 0..13 {
                    prop_assert_eq!(
                        store.resolve_chunk(id, idx).unwrap(),
                        resolved.get(&idx).copied()
                    );
                }
            }
            store.debug_validate().unwrap();
        }
    }

    /// Random insert/touch/remove sequences give the layered registry
    /// exactly the flat oracle's evictions, residency and byte counts,
    /// conserve refcounts in both stores, and never exceed the budget.
    /// Two fixed sizes make tenants share family layers; the random one
    /// covers chunk counts and partial final chunks.
    #[test]
    fn registry_refcounts_conserved(
        budget in (20u64..200).prop_map(|mb| mb << 20),
        dedup in any::<bool>(),
        chunk_bytes in prop_oneof![Just(2u64 << 20), Just(8u64 << 20)],
        ops in proptest::collection::vec(
            (
                0usize..12,
                0u64..4,
                prop_oneof![
                    (1u64..64).prop_map(|mb| mb << 20),
                    Just(24u64 << 20),
                    Just((40u64 << 20) + 12_345),
                ],
                0u8..4,
            ),
            1..60,
        ),
    ) {
        let params = StoreParams { dedup, chunk_bytes };
        let mut reg = StoreRegistry::new(budget, params);
        let mut flat = FlatRegistry::new(budget, params);
        for &(tenant, family, size, op) in &ops {
            match op {
                0 => {
                    reg.touch(tenant);
                    flat.touch(tenant);
                }
                1 => {
                    reg.remove(tenant);
                    flat.remove(tenant);
                }
                _ => {
                    let evicted = reg.insert(tenant, family, size);
                    prop_assert_eq!(&evicted, &flat.insert(tenant, family, size));
                    for &t in &evicted {
                        prop_assert!(!reg.contains(t));
                    }
                    prop_assert!(
                        reg.total_bytes() <= budget,
                        "unique {} over budget {}",
                        reg.total_bytes(),
                        budget
                    );
                }
            }
            for t in 0..12 {
                prop_assert_eq!(reg.contains(t), flat.resident.contains_key(&t));
            }
            prop_assert_eq!(reg.len(), flat.resident.len());
            prop_assert_eq!(reg.total_bytes(), flat.store.unique_bytes());
            prop_assert_eq!(reg.logical_bytes(), flat.store.logical_bytes());
            reg.store().debug_validate().unwrap();
            flat.store.debug_validate().unwrap();
            // Unique bytes can never exceed logical bytes.
            prop_assert!(reg.total_bytes() <= reg.logical_bytes());
        }
    }
}

/// The same seed with dedup enabled yields byte-identical fleet JSON —
/// the store integration draws no entropy and iterates no hash maps.
#[test]
fn fleet_json_deterministic_with_dedup() {
    let run = |seed| {
        let mut cfg = ClusterConfig::demo(4, RoutePolicy::SnapshotLocality, seed);
        assert!(cfg.host.store.dedup, "dedup is the default");
        cfg.horizon = sim_core::time::SimDuration::from_secs(60);
        run_cluster(&cfg).to_json().to_string_pretty()
    };
    assert_eq!(run(42), run(42), "same seed, byte-identical fleet JSON");
    assert_ne!(run(42), run(43));
}

/// Under one host's default 24 GiB snapshot budget and a Zipf-skewed
/// 72-tenant workload of 2 GiB snapshots, chunk-level dedup keeps ≥5×
/// more distinct function snapshots resident than whole-file LRU.
#[test]
fn dedup_keeps_5x_more_snapshots_resident_under_zipf() {
    let run = |dedup: bool| {
        let workloads = ["hello-world", "json", "compression", "image"];
        let mut cfg = ClusterConfig::demo(1, RoutePolicy::SnapshotLocality, 42);
        cfg.workload = faasnap_cluster::WorkloadSpec::zipf(72, &workloads, 40.0, 1.2);
        cfg.host.store.dedup = dedup;
        run_cluster(&cfg)
    };
    let whole = run(false);
    let chunked = run(true);
    let (w, c) = (
        whole.snapshots_resident_total(),
        chunked.snapshots_resident_total(),
    );
    assert!(w > 0, "whole-file baseline kept nothing resident");
    assert!(
        c >= 5 * w,
        "dedup resident {c} !>= 5x whole-file resident {w}"
    );
    // Same budget is actually being charged in both runs.
    assert!(whole.store_unique_total() <= 24 << 30);
    assert!(chunked.store_unique_total() <= 24 << 30);
    // The mechanism, reported: logical bytes dwarf unique bytes.
    assert!(
        chunked.store_dedup_ratio() > 4.0,
        "dedup ratio only {}",
        chunked.store_dedup_ratio()
    );
    assert!((whole.store_dedup_ratio() - 1.0).abs() < 1e-9);
}

/// A fleet whose snapshot registries evict: 400 tenants on two hosts
/// outgrow an 8 GiB snapshot budget, so cold boots outnumber tenants and
/// the registries' eviction path shapes the output, which is pinned
/// whole. (The smoke fleet fits all six of its tenants in 24 GiB.)
#[test]
fn churn_fleet_outputs_are_pinned() {
    let workloads = ["hello-world", "json", "compression", "image"];
    let mut cfg = ClusterConfig::demo(2, RoutePolicy::SnapshotLocality, 42);
    cfg.workload = WorkloadSpec::zipf(400, &workloads, 100.0, 0.8);
    cfg.horizon = SimDuration::from_secs(60);
    cfg.host.snapshot_budget_bytes = 8 << 30;
    cfg.host.store.chunk_bytes = 8 << 20;
    let m = run_cluster(&cfg);
    let cold = m.mode_mix()[3];
    assert!(
        cold > cfg.workload.tenants.len() as u64,
        "{cold} cold boots for {} tenants: nothing was evicted",
        cfg.workload.tenants.len()
    );
    let json = m.to_json().to_string_pretty();
    assert_eq!(
        (cold, m.total_served(), fnv1a(json.as_bytes())),
        (947, 1460, 1_023_320_502_225_381_022),
        "churn fleet output drifted"
    );
}
