//! The snapshot store: layers composed over a refcounted chunk table.
//!
//! Object model (see DESIGN.md "Snapshot store"):
//!
//! - **Chunk** — `chunk_pages` consecutive guest pages, identified by a
//!   stable content hash, refcounted, byte-accounted once.
//! - **Layer** — a sparse chunk-index → chunk map. `Base` layers carry a
//!   family's full image (all-zero chunks omitted); `Delta` layers carry
//!   only chunks that differ from the stack beneath (all-zero chunks kept
//!   as tombstones).
//! - **Snapshot** — an ordered list of layers, oldest first. Resolution
//!   walks newest-first; an index absent from every layer is zeros.
//!
//! Reference discipline: a resident layer holds one chunk reference per
//! slot; a resident snapshot holds one layer reference per list entry.
//! Dropping the last snapshot over a layer frees the layer, which in turn
//! releases its chunks — eviction therefore reclaims exactly the bytes no
//! other resident snapshot still needs, never a shared base.
//!
//! The layer and snapshot tables are [`DetMap`]s keyed by id, so every
//! lookup on the insert, compose and drop paths is one O(1) probe;
//! nothing observable iterates them in table order.

use std::cell::Cell;
use std::collections::BTreeMap;

use sim_core::detmap::DetMap;
use sim_core::units::PAGE_SIZE;

use crate::chunk::ChunkTable;
use crate::error::StoreError;
use crate::hash::ChunkHash;
use crate::layer::{Layer, LayerId, LayerKind};

/// Stable identity of a snapshot within one store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotId(pub u64);

/// Store-wide parameters.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Pages per chunk. 512 pages = 2 MiB, matching huge-page-sized
    /// extents the restore path already favors.
    pub chunk_pages: u64,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig { chunk_pages: 512 }
    }
}

impl StoreConfig {
    /// Bytes per full chunk.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_pages * PAGE_SIZE
    }
}

/// Self-statistics of one store: how much work the store did, for the
/// faasnap-obs self-profiler. faasnap-store sits below faasnap-obs in
/// the crate DAG, so this is a plain value snapshot harvested by callers
/// (`SelfProfile::harvest(stats.pairs())`) rather than a profiler handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Chunk/layer map operations (inserts, lookups, walk steps).
    pub map_ops: u64,
    /// Content chunks inserted (data or accounting-only references).
    pub chunks_inserted: u64,
    /// Bytes of chunk content read back by `materialize`.
    pub bytes_materialized: u64,
    /// Snapshot resolutions (`resolve` + `resolve_chunk`).
    pub resolves: u64,
}

impl StoreStats {
    /// The stats as `(counter-name, value)` pairs for profiler harvest.
    pub fn pairs(&self) -> [(&'static str, u64); 4] {
        [
            ("store/map_ops", self.map_ops),
            ("store/chunks_inserted", self.chunks_inserted),
            ("store/bytes_materialized", self.bytes_materialized),
            ("store/resolves", self.resolves),
        ]
    }
}

/// Interior-mutable accumulator behind [`StoreStats`]: read paths
/// (`resolve`, `materialize`) take `&self`, so counts live in `Cell`s.
#[derive(Clone, Debug, Default)]
struct StatCells {
    map_ops: Cell<u64>,
    chunks_inserted: Cell<u64>,
    bytes_materialized: Cell<u64>,
    resolves: Cell<u64>,
}

impl StatCells {
    fn bump(cell: &Cell<u64>, by: u64) {
        cell.set(cell.get() + by);
    }

    fn snapshot(&self) -> StoreStats {
        StoreStats {
            map_ops: self.map_ops.get(),
            chunks_inserted: self.chunks_inserted.get(),
            bytes_materialized: self.bytes_materialized.get(),
            resolves: self.resolves.get(),
        }
    }
}

#[derive(Clone, Debug)]
struct LayerEntry {
    layer: Layer,
    /// Number of resident snapshots listing this layer.
    refs: u64,
}

#[derive(Clone, Debug)]
struct SnapshotEntry {
    /// Layers oldest-first; resolution walks them newest-first.
    layers: Vec<LayerId>,
    /// Logical (pre-dedup) size this snapshot presents to its consumer.
    logical_bytes: u64,
}

/// A content-addressed, layered snapshot store.
#[derive(Clone, Debug, Default)]
pub struct SnapshotStore {
    cfg: StoreConfig,
    chunks: ChunkTable,
    layers: DetMap<LayerId, LayerEntry>,
    snapshots: DetMap<SnapshotId, SnapshotEntry>,
    next_layer: u64,
    next_snapshot: u64,
    stats: StatCells,
}

impl SnapshotStore {
    pub fn new(cfg: StoreConfig) -> SnapshotStore {
        SnapshotStore {
            cfg,
            ..SnapshotStore::default()
        }
    }

    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Builds the full-length token vector for chunk `idx` from sparse
    /// `(page, token)` pairs in ascending page order, found by binary
    /// search.
    fn chunk_tokens(&self, pages: &[(u64, u64)], idx: u64) -> Vec<u64> {
        let start = idx * self.cfg.chunk_pages;
        let end = start + self.cfg.chunk_pages;
        let (_, from) = pages.split_at(pages.partition_point(|&(p, _)| p < start));
        let mut tokens = vec![0u64; self.cfg.chunk_pages as usize];
        for &(page, token) in from.iter().take_while(|&&(p, _)| p < end) {
            if let Some(slot) = tokens.get_mut((page - start) as usize) {
                *slot = token;
            }
        }
        tokens
    }

    fn alloc_layer(&mut self, layer: Layer) -> LayerId {
        let id = LayerId(self.next_layer);
        self.next_layer += 1;
        self.layers.insert(id, LayerEntry { layer, refs: 0 });
        id
    }

    /// Records a base layer from sparse `(page, token)` pairs in strictly
    /// ascending page order: the chunks containing at least one listed
    /// page, content-hashed and refcounted. All-zero chunks are omitted
    /// (absent resolves to zeros). Unordered or repeated pages are an
    /// [`StoreError::Invariant`] and record nothing.
    pub fn put_base_layer(&mut self, pages: &[(u64, u64)]) -> Result<LayerId, StoreError> {
        check_ascending("page", pages, |&(page, _)| page)?;
        let mut layer = Layer::new(LayerKind::Base);
        let mut idxs: Vec<u64> = pages
            .iter()
            .map(|(p, _)| p / self.cfg.chunk_pages)
            .collect();
        idxs.dedup();
        for idx in idxs {
            let tokens = self.chunk_tokens(pages, idx);
            let hash = self.chunks.insert_data(tokens, self.cfg.chunk_bytes());
            layer.chunks.push((idx, hash));
            StatCells::bump(&self.stats.chunks_inserted, 1);
            StatCells::bump(&self.stats.map_ops, 2);
        }
        Ok(self.alloc_layer(layer))
    }

    /// Records a delta layer: the chunks of `pages` (sparse `(page, token)`
    /// pairs in strictly ascending page order) that differ from what
    /// `parent` resolves to. All-zero chunks that overwrite nonzero parent
    /// chunks are kept as explicit tombstones. Requires the parent's
    /// chunks to carry content (data inserts, not accounting-only refs).
    /// Unordered or repeated pages are an [`StoreError::Invariant`].
    pub fn put_delta_layer(
        &mut self,
        parent: SnapshotId,
        pages: &[(u64, u64)],
    ) -> Result<LayerId, StoreError> {
        check_ascending("page", pages, |&(page, _)| page)?;
        let parent_map = self.resolve(parent)?;
        // Union of chunk indices present in either image.
        let mut idxs: Vec<u64> = pages
            .iter()
            .map(|(p, _)| p / self.cfg.chunk_pages)
            .chain(parent_map.keys().copied())
            .collect();
        idxs.sort_unstable();
        idxs.dedup();

        let mut layer = Layer::new(LayerKind::Delta);
        for idx in idxs {
            let new_tokens = self.chunk_tokens(pages, idx);
            let differs = match parent_map.get(&idx) {
                Some(&hash) => {
                    let old = self.chunks.data(hash).ok_or_else(|| {
                        StoreError::Invariant(format!(
                            "delta against accounting-only chunk {:#018x}",
                            hash.0
                        ))
                    })?;
                    old != new_tokens.as_slice()
                }
                None => new_tokens.iter().any(|&t| t != 0),
            };
            if differs {
                let hash = self.chunks.insert_data(new_tokens, self.cfg.chunk_bytes());
                layer.chunks.push((idx, hash));
                StatCells::bump(&self.stats.chunks_inserted, 1);
            }
            StatCells::bump(&self.stats.map_ops, 2);
        }
        Ok(self.alloc_layer(layer))
    }

    /// Records an accounting-only layer from precomputed chunk identities
    /// (the fleet simulator's synthetic provenance model): `(slot index,
    /// identity, bytes)` triples in strictly ascending slot order. Each
    /// slot takes one chunk reference; unseen hashes are admitted at
    /// `bytes` each. Unordered or repeated slot indices are an
    /// [`StoreError::Invariant`] and record nothing: a repeated index
    /// would take a reference the layer could never release.
    pub fn put_layer_refs(
        &mut self,
        kind: LayerKind,
        slots: &[(u64, ChunkHash, u64)],
    ) -> Result<LayerId, StoreError> {
        check_ascending("slot", slots, |&(idx, _, _)| idx)?;
        let mut layer = Layer::new(kind);
        layer.chunks.reserve_exact(slots.len());
        for &(idx, hash, bytes) in slots {
            self.chunks.insert_ref(hash, bytes);
            layer.chunks.push((idx, hash));
            StatCells::bump(&self.stats.chunks_inserted, 1);
            StatCells::bump(&self.stats.map_ops, 2);
        }
        Ok(self.alloc_layer(layer))
    }

    /// Composes a snapshot from `layers` (oldest first), taking one
    /// reference on each. `logical_bytes` is the pre-dedup size the
    /// snapshot presents (what a whole-file registry would have charged).
    pub fn compose_snapshot(
        &mut self,
        layers: &[LayerId],
        logical_bytes: u64,
    ) -> Result<SnapshotId, StoreError> {
        for id in layers {
            let entry = self
                .layers
                .get_mut(id)
                .ok_or(StoreError::UnknownLayer(id.0))?;
            entry.refs += 1;
        }
        let id = SnapshotId(self.next_snapshot);
        self.next_snapshot += 1;
        self.snapshots.insert(
            id,
            SnapshotEntry {
                layers: layers.to_vec(),
                logical_bytes,
            },
        );
        Ok(id)
    }

    /// Drops a snapshot: releases its layer references, frees layers that
    /// reach zero (releasing their chunk references in turn), and frees
    /// chunks no resident layer still needs. Returns the freed layers so
    /// callers keeping layer handles (family base maps) can prune them.
    pub fn drop_snapshot(&mut self, id: SnapshotId) -> Result<Vec<LayerId>, StoreError> {
        let entry = self
            .snapshots
            .remove(&id)
            .ok_or(StoreError::UnknownSnapshot(id.0))?;
        let mut freed = Vec::new();
        for layer_id in entry.layers {
            let le = self
                .layers
                .get_mut(&layer_id)
                .ok_or(StoreError::UnknownLayer(layer_id.0))?;
            le.refs -= 1;
            if le.refs == 0 {
                let le = self
                    .layers
                    .remove(&layer_id)
                    .ok_or(StoreError::UnknownLayer(layer_id.0))?;
                for &(_, hash) in &le.layer.chunks {
                    self.chunks.decref(hash)?;
                }
                freed.push(layer_id);
            }
        }
        Ok(freed)
    }

    /// Resolves a snapshot to its chunk-index → chunk map, newest layer
    /// winning. Indices absent from the result are all-zero chunks.
    pub fn resolve(&self, id: SnapshotId) -> Result<BTreeMap<u64, ChunkHash>, StoreError> {
        let entry = self
            .snapshots
            .get(&id)
            .ok_or(StoreError::UnknownSnapshot(id.0))?;
        StatCells::bump(&self.stats.resolves, 1);
        let mut map = BTreeMap::new();
        for layer_id in entry.layers.iter().rev() {
            let le = self
                .layers
                .get(layer_id)
                .ok_or(StoreError::UnknownLayer(layer_id.0))?;
            for &(idx, hash) in &le.layer.chunks {
                map.entry(idx).or_insert(hash);
                StatCells::bump(&self.stats.map_ops, 1);
            }
        }
        Ok(map)
    }

    /// Resolves one chunk index through a snapshot's layer chain.
    pub fn resolve_chunk(&self, id: SnapshotId, idx: u64) -> Result<Option<ChunkHash>, StoreError> {
        let entry = self
            .snapshots
            .get(&id)
            .ok_or(StoreError::UnknownSnapshot(id.0))?;
        StatCells::bump(&self.stats.resolves, 1);
        for layer_id in entry.layers.iter().rev() {
            let le = self
                .layers
                .get(layer_id)
                .ok_or(StoreError::UnknownLayer(layer_id.0))?;
            StatCells::bump(&self.stats.map_ops, 1);
            if let Some(hash) = le.layer.get(idx) {
                return Ok(Some(hash));
            }
        }
        Ok(None)
    }

    /// Materializes a snapshot into its nonzero `(page, token)` pairs in
    /// ascending page order, by reading chunk content through the layer
    /// chain. Requires content chunks (fails on accounting-only entries).
    pub fn materialize(&self, id: SnapshotId) -> Result<Vec<(u64, u64)>, StoreError> {
        let mut pages = Vec::new();
        for (idx, hash) in self.resolve(id)? {
            let tokens = self.chunks.data(hash).ok_or_else(|| {
                StoreError::Invariant(format!(
                    "materialize hit accounting-only chunk {:#018x}",
                    hash.0
                ))
            })?;
            StatCells::bump(&self.stats.bytes_materialized, self.cfg.chunk_bytes());
            let start = idx * self.cfg.chunk_pages;
            // Chunks resolve in ascending index order, so pages ascend.
            for (off, &token) in tokens.iter().enumerate() {
                if token != 0 {
                    pages.push((start + off as u64, token));
                }
            }
        }
        Ok(pages)
    }

    /// Physical bytes resident (each chunk counted once).
    pub fn unique_bytes(&self) -> u64 {
        self.chunks.unique_bytes()
    }

    /// Sum of logical (pre-dedup) bytes across resident snapshots.
    pub fn logical_bytes(&self) -> u64 {
        self.snapshots.values().map(|s| s.logical_bytes).sum()
    }

    /// Logical / unique — how many times each physical byte is shared.
    /// 0.0 when the store is empty: a fresh store has no sharing to
    /// report, and 0 keeps JSON/Prometheus output finite and unambiguous
    /// (a populated store can never legitimately read 0).
    pub fn dedup_ratio(&self) -> f64 {
        let unique = self.unique_bytes();
        if unique == 0 {
            0.0
        } else {
            self.logical_bytes() as f64 / unique as f64
        }
    }

    /// Snapshot of the store's self-statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }

    /// Number of resident layers.
    pub fn resident_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of resident chunks.
    pub fn resident_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Direct access to the chunk table (read-only).
    pub fn chunks(&self) -> &ChunkTable {
        &self.chunks
    }

    /// Checks global refcount conservation: every chunk's refcount equals
    /// the number of resident layer slots naming it, every layer's
    /// refcount equals the number of resident snapshot entries naming it,
    /// and byte accounting is exact. Used by property tests.
    pub fn debug_validate(&self) -> Result<(), StoreError> {
        self.chunks.debug_validate()?;
        let mut chunk_refs: BTreeMap<ChunkHash, u64> = BTreeMap::new();
        for le in self.layers.values() {
            for &(_, hash) in &le.layer.chunks {
                *chunk_refs.entry(hash).or_insert(0) += 1;
            }
        }
        for (hash, entry) in self.chunks.iter() {
            let expect = chunk_refs.get(hash).copied().unwrap_or(0);
            if entry.refs != expect {
                return Err(StoreError::Invariant(format!(
                    "chunk {:#018x} refs {} but {} layer slots name it",
                    hash.0, entry.refs, expect
                )));
            }
        }
        for hash in chunk_refs.keys() {
            if !self.chunks.contains(*hash) {
                return Err(StoreError::UnknownChunk(*hash));
            }
        }
        let mut layer_refs: BTreeMap<LayerId, u64> = BTreeMap::new();
        for se in self.snapshots.values() {
            for id in &se.layers {
                *layer_refs.entry(*id).or_insert(0) += 1;
            }
        }
        for (id, le) in self.layers.iter() {
            let expect = layer_refs.get(id).copied().unwrap_or(0);
            if le.refs != expect {
                return Err(StoreError::Invariant(format!(
                    "layer {} refs {} but {} snapshots name it",
                    id.0, le.refs, expect
                )));
            }
        }
        for id in layer_refs.keys() {
            if !self.layers.contains_key(id) {
                return Err(StoreError::UnknownLayer(id.0));
            }
        }
        Ok(())
    }
}

/// Rejects lists whose `key` (a page or a slot index) is not strictly
/// ascending: chunking finds each chunk's pages by binary search, and a
/// layer's slots are a sorted vector, so an unordered list would
/// silently mis-chunk and a repeated slot would leak a reference.
fn check_ascending<T>(what: &str, items: &[T], key: impl Fn(&T) -> u64) -> Result<(), StoreError> {
    let mut pairs = items.iter().zip(items.iter().skip(1));
    match pairs.find(|(a, b)| key(a) >= key(b)) {
        Some((a, b)) => Err(StoreError::Invariant(format!(
            "{what}s not strictly ascending: {what} {} before {what} {}",
            key(a),
            key(b)
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg4() -> StoreConfig {
        StoreConfig { chunk_pages: 4 }
    }

    #[test]
    fn base_skips_zero_chunks() {
        let mut s = SnapshotStore::new(cfg4());
        // Pages 0..4 = chunk 0, 8..12 = chunk 2; chunk 1 untouched.
        let base = s.put_base_layer(&[(1, 10), (9, 20)]).expect("base");
        let snap = s
            .compose_snapshot(&[base], 12 * PAGE_SIZE)
            .expect("compose");
        let map = s.resolve(snap).expect("resolve");
        assert_eq!(map.keys().copied().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(s.resident_chunks(), 2);
        s.debug_validate().expect("valid");
    }

    #[test]
    fn delta_stores_only_dirty_chunks_and_tombstones() {
        let mut s = SnapshotStore::new(cfg4());
        let base = s.put_base_layer(&[(1, 10), (9, 20)]).expect("base");
        let parent = s.compose_snapshot(&[base], 0).expect("compose");
        // New image: chunk 0 unchanged, chunk 1 newly dirty, chunk 2 wiped.
        let img = vec![(1, 10), (5, 30)];
        let delta = s.put_delta_layer(parent, &img).expect("delta");
        let child = s.compose_snapshot(&[base, delta], 0).expect("compose");
        let dl = s.resolve(child).expect("resolve");
        // chunk 0 from base; chunk 1 from delta; chunk 2 tombstoned (all
        // zeros — still mapped, to shadow the base's nonzero chunk).
        assert_eq!(dl.keys().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(dl[&2], ChunkHash::of_zeros(4), "tombstone is zero chunk");
        assert_eq!(s.materialize(child).expect("mat"), img);
        s.debug_validate().expect("valid");
    }

    #[test]
    fn base_layer_rejects_unordered_pages() {
        let mut s = SnapshotStore::new(cfg4());
        for bad in [&[(9, 20), (1, 10)][..], &[(1, 10), (1, 11)]] {
            assert!(matches!(
                s.put_base_layer(bad),
                Err(StoreError::Invariant(_))
            ));
        }
        assert_eq!(s.resident_layers(), 0, "nothing recorded");
        assert_eq!(s.resident_chunks(), 0);
    }

    #[test]
    fn delta_layer_rejects_unordered_pages() {
        let mut s = SnapshotStore::new(cfg4());
        let base = s.put_base_layer(&[(1, 10)]).expect("base");
        let parent = s.compose_snapshot(&[base], 0).expect("compose");
        for bad in [&[(5, 30), (1, 10)][..], &[(5, 30), (5, 31)]] {
            assert!(matches!(
                s.put_delta_layer(parent, bad),
                Err(StoreError::Invariant(_))
            ));
        }
        assert_eq!(s.resident_layers(), 1, "nothing recorded");
        assert_eq!(s.resident_chunks(), 1);
        s.debug_validate().expect("valid");
    }

    #[test]
    fn layer_refs_reject_unordered_slots() {
        let mut s = SnapshotStore::new(cfg4());
        let (a, b) = (ChunkHash::synthetic(&[1]), ChunkHash::synthetic(&[2]));
        for bad in [&[(0, a, 100), (0, b, 100)][..], &[(1, a, 100), (0, b, 100)]] {
            assert!(matches!(
                s.put_layer_refs(LayerKind::Base, bad),
                Err(StoreError::Invariant(_))
            ));
        }
        assert_eq!(s.resident_layers(), 0, "nothing recorded");
        assert_eq!(s.resident_chunks(), 0);
        assert_eq!(s.unique_bytes(), 0);
        s.debug_validate().expect("valid");
    }

    #[test]
    fn dropping_child_keeps_shared_base() {
        let mut s = SnapshotStore::new(cfg4());
        let base = s.put_base_layer(&[(0, 1), (4, 2), (8, 3)]).expect("base");
        let parent = s.compose_snapshot(&[base], 100).expect("compose");
        let delta = s
            .put_delta_layer(parent, &[(0, 1), (4, 9), (8, 3)])
            .expect("delta");
        let child = s.compose_snapshot(&[base, delta], 100).expect("compose");
        assert_eq!(s.logical_bytes(), 200);
        let before = s.unique_bytes();
        let freed = s.drop_snapshot(child).expect("drop");
        assert_eq!(freed, vec![delta], "only the delta layer is freed");
        assert!(s.unique_bytes() < before);
        // Base chunks all survive — parent still resolves.
        assert_eq!(
            s.materialize(parent).expect("mat"),
            vec![(0, 1), (4, 2), (8, 3)]
        );
        let freed = s.drop_snapshot(parent).expect("drop");
        assert_eq!(freed, vec![base]);
        assert_eq!(s.unique_bytes(), 0);
        assert_eq!(s.resident_chunks(), 0);
        s.debug_validate().expect("valid");
    }

    #[test]
    fn dedup_ratio_counts_shared_bytes_once() {
        let mut s = SnapshotStore::new(cfg4());
        let base = s.put_base_layer(&[(0, 7)]).expect("base");
        let a = s.compose_snapshot(&[base], 1000).expect("a");
        let _b = s.compose_snapshot(&[base], 1000).expect("b");
        assert_eq!(s.logical_bytes(), 2000);
        assert_eq!(s.unique_bytes(), 4 * PAGE_SIZE);
        assert!(s.dedup_ratio() > 0.0);
        s.drop_snapshot(a).expect("drop");
        assert_eq!(s.unique_bytes(), 4 * PAGE_SIZE, "still referenced");
        s.debug_validate().expect("valid");
    }

    #[test]
    fn accounting_only_layers_dedup_by_hash() {
        let mut s = SnapshotStore::new(StoreConfig::default());
        let shared = ChunkHash::synthetic(&[1]);
        let l1 = s
            .put_layer_refs(
                LayerKind::Base,
                &[(0, shared, 100), (1, ChunkHash::synthetic(&[2]), 100)],
            )
            .expect("ascending slots");
        let l2 = s
            .put_layer_refs(
                LayerKind::Base,
                &[(0, shared, 100), (1, ChunkHash::synthetic(&[3]), 100)],
            )
            .expect("ascending slots");
        let s1 = s.compose_snapshot(&[l1], 200).expect("s1");
        let s2 = s.compose_snapshot(&[l2], 200).expect("s2");
        assert_eq!(s.unique_bytes(), 300, "shared chunk counted once");
        assert_eq!(s.logical_bytes(), 400);
        s.drop_snapshot(s1).expect("drop");
        assert_eq!(s.unique_bytes(), 200);
        s.drop_snapshot(s2).expect("drop");
        assert_eq!(s.unique_bytes(), 0);
        s.debug_validate().expect("valid");
    }

    #[test]
    fn empty_store_dedup_ratio_is_zero() {
        let s = SnapshotStore::new(cfg4());
        assert_eq!(s.dedup_ratio(), 0.0);
        let mut s = SnapshotStore::new(cfg4());
        let base = s.put_base_layer(&[(0, 7)]).expect("base");
        let snap = s.compose_snapshot(&[base], 1000).expect("compose");
        assert!(s.dedup_ratio() > 0.0);
        s.drop_snapshot(snap).expect("drop");
        assert_eq!(s.dedup_ratio(), 0.0, "emptied store reads 0 again");
    }

    #[test]
    fn stats_count_store_work() {
        let mut s = SnapshotStore::new(cfg4());
        assert_eq!(s.stats(), StoreStats::default());
        let base = s.put_base_layer(&[(1, 10), (9, 20)]).expect("base");
        let snap = s.compose_snapshot(&[base], 0).expect("compose");
        assert_eq!(s.stats().chunks_inserted, 2);
        s.resolve(snap).expect("resolve");
        assert_eq!(s.stats().resolves, 1);
        s.materialize(snap).expect("mat");
        // materialize resolves once more and reads both chunks back.
        assert_eq!(s.stats().resolves, 2);
        assert_eq!(s.stats().bytes_materialized, 2 * 4 * PAGE_SIZE);
        assert!(s.stats().map_ops > 0);
        let pairs = s.stats().pairs();
        assert_eq!(pairs[1], ("store/chunks_inserted", 2));
    }

    #[test]
    fn unknown_ids_are_typed_errors() {
        let mut s = SnapshotStore::new(cfg4());
        assert!(matches!(
            s.drop_snapshot(SnapshotId(9)),
            Err(StoreError::UnknownSnapshot(9))
        ));
        assert!(matches!(
            s.compose_snapshot(&[LayerId(5)], 0),
            Err(StoreError::UnknownLayer(5))
        ));
        assert!(matches!(
            s.resolve(SnapshotId(0)),
            Err(StoreError::UnknownSnapshot(0))
        ));
    }
}
