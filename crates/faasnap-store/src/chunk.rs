//! Refcounted content-addressed chunk table.
//!
//! The table is the dedup boundary: every layer that references a chunk
//! holds one reference, and a chunk's bytes count toward the host budget
//! exactly once no matter how many snapshots share it. Chunks carry their
//! page tokens optionally — the faasnap restore path needs real content to
//! materialize memory, while the fleet simulator only needs byte
//! accounting and inserts reference-only entries under synthetic hashes.
//!
//! Entries live in a [`DetMap`]: an insert or reference drop is one O(1)
//! probe, and iteration runs in insertion order, not hash order. Nothing
//! observable iterates the table except [`ChunkTable::debug_validate`].

use sim_core::detmap::DetMap;

use crate::error::StoreError;
use crate::hash::ChunkHash;

/// One chunk in the table.
#[derive(Clone, Debug)]
pub struct ChunkEntry {
    /// Number of layer slots referencing this chunk.
    pub refs: u64,
    /// Physical bytes this chunk occupies (counted once, toward
    /// `unique_bytes`).
    pub bytes: u64,
    /// Page tokens, when the chunk was inserted with content.
    pub data: Option<Vec<u64>>,
}

/// Content-addressed, refcounted chunk storage.
#[derive(Clone, Debug, Default)]
pub struct ChunkTable {
    entries: DetMap<ChunkHash, ChunkEntry>,
    unique_bytes: u64,
}

impl ChunkTable {
    pub fn new() -> ChunkTable {
        ChunkTable::default()
    }

    /// Inserts a chunk by content, taking one reference. If the hash is
    /// already present the tokens are dropped (dedup hit) and only the
    /// refcount moves.
    pub fn insert_data(&mut self, tokens: Vec<u64>, bytes: u64) -> ChunkHash {
        let hash = ChunkHash::of_tokens(&tokens);
        self.insert_entry(hash, bytes, Some(tokens));
        hash
    }

    /// Inserts an accounting-only chunk under a caller-supplied (synthetic
    /// or precomputed) hash, taking one reference.
    pub fn insert_ref(&mut self, hash: ChunkHash, bytes: u64) {
        self.insert_entry(hash, bytes, None);
    }

    /// One probe: a new hash is admitted at `bytes`, a present one gains
    /// a reference.
    fn insert_entry(&mut self, hash: ChunkHash, bytes: u64, mut data: Option<Vec<u64>>) {
        let mut fresh = false;
        let e = self.entries.or_insert_with(hash, || {
            fresh = true;
            ChunkEntry {
                refs: 0,
                bytes,
                data: data.take(),
            }
        });
        e.refs += 1;
        if fresh {
            self.unique_bytes += bytes;
        } else if e.data.is_none() {
            // A data insert can fill in content for a chunk first seen
            // as reference-only (same hash ⇒ same logical content).
            e.data = data;
        }
    }

    /// Takes an additional reference on an existing chunk.
    pub fn incref(&mut self, hash: ChunkHash) -> Result<(), StoreError> {
        let e = self
            .entries
            .get_mut(&hash)
            .ok_or(StoreError::UnknownChunk(hash))?;
        e.refs += 1;
        Ok(())
    }

    /// Drops one reference; frees the chunk (and its bytes) when the count
    /// reaches zero. Returns `true` if the chunk was freed.
    pub fn decref(&mut self, hash: ChunkHash) -> Result<bool, StoreError> {
        let e = self
            .entries
            .get_mut(&hash)
            .ok_or(StoreError::UnknownChunk(hash))?;
        e.refs -= 1;
        if e.refs == 0 {
            let bytes = e.bytes;
            self.entries.remove(&hash);
            self.unique_bytes -= bytes;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Page tokens of a chunk, if it was stored with content.
    pub fn data(&self, hash: ChunkHash) -> Option<&[u64]> {
        self.entries.get(&hash).and_then(|e| e.data.as_deref())
    }

    /// The chunk entry, if present.
    pub fn get(&self, hash: ChunkHash) -> Option<&ChunkEntry> {
        self.entries.get(&hash)
    }

    /// Whether the table holds `hash`.
    pub fn contains(&self, hash: ChunkHash) -> bool {
        self.entries.contains_key(&hash)
    }

    /// Physical bytes across all resident chunks (each counted once).
    pub fn unique_bytes(&self) -> u64 {
        self.unique_bytes
    }

    /// Number of resident chunks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&ChunkHash, &ChunkEntry)> {
        self.entries.iter()
    }

    /// Checks internal invariants: no zero-ref entries, `unique_bytes`
    /// equals the sum over entries. Used by property tests.
    pub fn debug_validate(&self) -> Result<(), StoreError> {
        let mut sum = 0u64;
        for (h, e) in self.entries.iter() {
            if e.refs == 0 {
                return Err(StoreError::Invariant(format!(
                    "chunk {h:?} resident with zero refs"
                )));
            }
            sum += e.bytes;
        }
        if sum != self.unique_bytes {
            return Err(StoreError::Invariant(format!(
                "unique_bytes {} != sum of entries {}",
                self.unique_bytes, sum
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_counts_bytes_once() {
        let mut t = ChunkTable::new();
        let a = t.insert_data(vec![1, 2, 3], 100);
        let b = t.insert_data(vec![1, 2, 3], 100);
        assert_eq!(a, b);
        assert_eq!(t.unique_bytes(), 100);
        assert_eq!(t.get(a).map(|e| e.refs), Some(2));
        assert!(!t.decref(a).expect("resident"));
        assert!(t.decref(a).expect("resident"));
        assert_eq!(t.unique_bytes(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn ref_then_data_fills_content() {
        let mut t = ChunkTable::new();
        let h = ChunkHash::of_tokens(&[9, 9]);
        t.insert_ref(h, 50);
        assert!(t.data(h).is_none());
        t.insert_data(vec![9, 9], 50);
        assert_eq!(t.data(h), Some(&[9, 9][..]));
        assert_eq!(t.unique_bytes(), 50);
    }

    #[test]
    fn unknown_chunk_is_typed_error() {
        let mut t = ChunkTable::new();
        let h = ChunkHash(123);
        assert!(matches!(t.incref(h), Err(StoreError::UnknownChunk(_))));
        assert!(matches!(t.decref(h), Err(StoreError::UnknownChunk(_))));
    }

    #[test]
    fn validate_catches_nothing_on_healthy_table() {
        let mut t = ChunkTable::new();
        t.insert_data(vec![1], 10);
        t.insert_ref(ChunkHash(7), 20);
        t.debug_validate().expect("healthy");
        assert_eq!(t.unique_bytes(), 30);
    }
}
