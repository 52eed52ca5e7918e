//! Snapshot layers: a sparse map from chunk index to chunk identity.
//!
//! A **base** layer holds the non-zero chunks of a full memory image;
//! absent indices resolve to zeros. A **delta** layer holds only the
//! chunks that differ from the layers beneath it — including explicit
//! all-zero chunks, which act as tombstones ("this chunk was dirtied back
//! to zeros"). Resolution walks a snapshot's layers newest-first and takes
//! the first hit.
//!
//! A layer is written once, in ascending index order, and never edited,
//! so its slots are a flat sorted vector: appending is free, a point
//! lookup is a binary search, and a walk is a slice scan.

use crate::hash::ChunkHash;

/// Stable identity of a layer within one store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LayerId(pub u64);

/// Whether a layer is a family base or a per-instance delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerKind {
    Base,
    Delta,
}

/// A sparse chunk-index → chunk-hash map.
#[derive(Clone, Debug)]
pub struct Layer {
    pub kind: LayerKind,
    /// `(chunk index, content identity)` slots in strictly ascending
    /// index order (chunk index = page / chunk_pages). Private to the
    /// crate: only the store's `put_*` paths append, each in ascending
    /// order, so [`Layer::get`] may binary-search.
    pub(crate) chunks: Vec<(u64, ChunkHash)>,
}

impl Layer {
    pub fn new(kind: LayerKind) -> Layer {
        Layer {
            kind,
            chunks: Vec::new(),
        }
    }

    /// The identity at chunk index `idx`, if this layer maps it.
    pub fn get(&self, idx: u64) -> Option<ChunkHash> {
        self.chunks
            .binary_search_by_key(&idx, |&(i, _)| i)
            .ok()
            .and_then(|pos| self.chunks.get(pos))
            .map(|&(_, hash)| hash)
    }

    /// Number of chunks this layer pins.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the layer maps no chunks (legal: a delta of an unchanged
    /// memory image is empty).
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}
