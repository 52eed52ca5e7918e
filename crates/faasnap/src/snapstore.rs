//! Family-aware snapshot recording over the content-addressed store.
//!
//! The record phase produces one full memory image per (function, label)
//! pair. Instances of the same function *family* differ only in the pages
//! the record invocation dirtied — runtime, guest kernel, and heap layout
//! pages are identical. [`FamilyStore`] exploits that: the first record of
//! a family emits a **base layer** (its non-zero chunks, content-hashed
//! into the store); every later record emits a **delta layer** holding
//! only the chunks that differ from the base, and the snapshot resolves
//! through the `[base, delta]` chain. Identical chunks — zero pages,
//! shared runtime pages, even cross-family coincidences — are stored
//! once, host-wide.
//!
//! The store also owns the *physical* layout: each distinct chunk gets a
//! stable slot in a single chunk-store file, and [`FamilyStore::layout`]
//! renders any snapshot as a [`ChunkedFile`] extent map. Handing that map
//! to [`crate::runtime::Host::map_chunked_file`] turns restore reads of
//! the logical memory file into per-chunk reads of the store file, with
//! device timing and fault injection operating on the deduplicated
//! layout.

use std::collections::BTreeMap;

use faasnap_store::{ChunkHash, LayerId, SnapshotId, SnapshotStore, StoreConfig, StoreError};
use sim_core::detmap::DetMap;
use sim_core::units::PAGE_SIZE;
use sim_storage::chunked::{ChunkExtent, ChunkedFile};
use sim_storage::file::{DeviceId, FileId, FileKind, SimFs};
use sim_vm::guest_memory::GuestMemory;

/// Per-family base bookkeeping.
#[derive(Clone, Debug)]
struct FamilyBase {
    /// The shared base layer.
    layer: LayerId,
    /// A base-only snapshot deltas are computed against. Carries zero
    /// logical bytes; exists so the base stays resolvable (and resident)
    /// while the family has members.
    anchor: SnapshotId,
    /// Named snapshots currently composed over this base.
    members: u64,
}

/// One recorded snapshot as the store tracks it.
#[derive(Clone, Debug)]
pub struct NamedSnapshot {
    /// Owning family (function name).
    pub family: String,
    /// Store identity.
    pub id: SnapshotId,
    /// Guest memory size in pages.
    pub total_pages: u64,
    /// True if this snapshot rides a delta layer (not the family's first).
    pub is_delta: bool,
}

/// Base+delta snapshot recording with host-wide chunk dedup.
#[derive(Clone, Debug)]
pub struct FamilyStore {
    store: SnapshotStore,
    /// The single physical extent file all chunks live in.
    store_file: FileId,
    bases: BTreeMap<String, FamilyBase>,
    named: BTreeMap<String, NamedSnapshot>,
    /// Chunk → physical slot. Append-only: a slot, once assigned, is
    /// never reused, so every layout ever handed out stays valid and the
    /// placement is a pure function of insertion order (deterministic).
    placements: DetMap<ChunkHash, u64>,
    next_slot: u64,
}

impl FamilyStore {
    /// Creates an empty store, registering its chunk extent file on
    /// `device`.
    pub fn new(cfg: StoreConfig, fs: &mut SimFs, device: DeviceId) -> FamilyStore {
        let store_file = fs.create("chunkstore", FileKind::ChunkStore, 0, device);
        FamilyStore {
            store: SnapshotStore::new(cfg),
            store_file,
            bases: BTreeMap::new(),
            named: BTreeMap::new(),
            placements: DetMap::new(),
            next_slot: 0,
        }
    }

    /// The physical chunk extent file.
    pub fn store_file(&self) -> FileId {
        self.store_file
    }

    /// Records `memory` as snapshot `name` in `family`: a base layer if
    /// the family is new, a dirty-chunk delta over the family base
    /// otherwise. Chunk placements are assigned and the store file grown
    /// via `fs`.
    pub fn record(
        &mut self,
        fs: &mut SimFs,
        family: &str,
        name: &str,
        memory: &GuestMemory,
    ) -> Result<SnapshotId, StoreError> {
        let logical_bytes = memory.total_pages() * PAGE_SIZE;
        let (id, is_delta) = match self.bases.get_mut(family) {
            Some(base) => {
                let delta = self.store.put_delta_layer(base.anchor, memory.tokens())?;
                let id = self
                    .store
                    .compose_snapshot(&[base.layer, delta], logical_bytes)?;
                base.members += 1;
                (id, true)
            }
            None => {
                let layer = self.store.put_base_layer(memory.tokens())?;
                let anchor = self.store.compose_snapshot(&[layer], 0)?;
                let id = self.store.compose_snapshot(&[layer], logical_bytes)?;
                self.bases.insert(
                    family.to_string(),
                    FamilyBase {
                        layer,
                        anchor,
                        members: 1,
                    },
                );
                (id, false)
            }
        };
        // Give every chunk the snapshot resolves to a physical slot.
        let chunk_pages = self.store.config().chunk_pages;
        for hash in self.store.resolve(id)?.into_values() {
            let next = &mut self.next_slot;
            self.placements.or_insert_with(hash, || {
                let slot = *next;
                *next += 1;
                slot
            });
        }
        fs.set_len_pages(self.store_file, self.next_slot * chunk_pages);
        self.named.insert(
            name.to_string(),
            NamedSnapshot {
                family: family.to_string(),
                id,
                total_pages: memory.total_pages(),
                is_delta,
            },
        );
        Ok(id)
    }

    /// Drops snapshot `name`, releasing its layers and chunks. When the
    /// family's last member goes, the base anchor goes with it and the
    /// base chunks are reclaimed too.
    pub fn drop_named(&mut self, name: &str) -> Result<(), StoreError> {
        let entry = self
            .named
            .remove(name)
            .ok_or_else(|| StoreError::Invariant(format!("unknown snapshot name {name}")))?;
        self.store.drop_snapshot(entry.id)?;
        let emptied = match self.bases.get_mut(&entry.family) {
            Some(base) => {
                base.members -= 1;
                base.members == 0
            }
            None => false,
        };
        if emptied {
            if let Some(base) = self.bases.remove(&entry.family) {
                self.store.drop_snapshot(base.anchor)?;
            }
        }
        Ok(())
    }

    /// The store's record of snapshot `name`, if present.
    pub fn named(&self, name: &str) -> Option<&NamedSnapshot> {
        self.named.get(name)
    }

    /// Rebuilds snapshot `name`'s full guest memory through its layer
    /// chain. Byte-equivalent to the memory the record phase captured.
    pub fn materialize(&self, name: &str) -> Result<GuestMemory, StoreError> {
        let entry = self
            .named
            .get(name)
            .ok_or_else(|| StoreError::Invariant(format!("unknown snapshot name {name}")))?;
        let pages = self.store.materialize(entry.id)?;
        Ok(GuestMemory::from_writes(entry.total_pages, pages))
    }

    /// Renders snapshot `name` as a logical→physical extent map over the
    /// chunk-store file, for store-backed reads through
    /// [`crate::runtime::Host::map_chunked_file`].
    pub fn layout(&self, name: &str) -> Result<ChunkedFile, StoreError> {
        let entry = self
            .named
            .get(name)
            .ok_or_else(|| StoreError::Invariant(format!("unknown snapshot name {name}")))?;
        let chunk_pages = self.store.config().chunk_pages;
        let mut cf = ChunkedFile::new(chunk_pages);
        for (idx, hash) in self.store.resolve(entry.id)? {
            let slot = self
                .placements
                .get(&hash)
                .copied()
                .ok_or(StoreError::UnknownChunk(hash))?;
            cf.map_chunk(
                idx,
                ChunkExtent {
                    file: self.store_file,
                    page: slot * chunk_pages,
                },
            );
        }
        Ok(cf)
    }

    /// Physical bytes resident (each chunk once).
    pub fn unique_bytes(&self) -> u64 {
        self.store.unique_bytes()
    }

    /// Logical bytes across resident named snapshots (what whole-file
    /// registries would charge).
    pub fn logical_bytes(&self) -> u64 {
        self.store.logical_bytes()
    }

    /// Logical / unique.
    pub fn dedup_ratio(&self) -> f64 {
        self.store.dedup_ratio()
    }

    /// Resident named snapshots.
    pub fn resident(&self) -> usize {
        self.named.len()
    }

    /// The underlying store (read-only, for accounting and validation).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Host;
    use sim_storage::device::{IoKind, IoRequest};
    use sim_storage::faults::{FaultPlan, FaultRule, InjectedFaultKind};
    use sim_storage::profiles::DiskProfile;

    fn cfg() -> StoreConfig {
        StoreConfig { chunk_pages: 8 }
    }

    #[test]
    fn base_then_delta_shares_chunks() {
        let mut fs = SimFs::new();
        let mut st = FamilyStore::new(cfg(), &mut fs, DeviceId(0));
        let mut a = GuestMemory::new(256);
        for p in 0..64 {
            a.write(p, 1000 + p);
        }
        st.record(&mut fs, "f", "f.a", &a).expect("record a");
        let base_bytes = st.unique_bytes();

        // Second instance: same base pages, 8 extra dirty pages (1 chunk).
        let mut b = a.clone();
        for p in 128..136 {
            b.write(p, 2000 + p);
        }
        st.record(&mut fs, "f", "f.b", &b).expect("record b");
        assert_eq!(
            st.unique_bytes() - base_bytes,
            8 * PAGE_SIZE,
            "delta adds exactly one dirty chunk"
        );
        assert!(st.named("f.b").expect("named").is_delta);
        assert!(!st.named("f.a").expect("named").is_delta);
        assert!(st.dedup_ratio() > 1.5, "ratio {}", st.dedup_ratio());
        st.store().debug_validate().expect("valid");
    }

    #[test]
    fn materialize_round_trips_exactly() {
        let mut fs = SimFs::new();
        let mut st = FamilyStore::new(cfg(), &mut fs, DeviceId(0));
        let mut a = GuestMemory::new(256);
        for p in (0..256).step_by(3) {
            a.write(p, p * 7 + 1);
        }
        st.record(&mut fs, "f", "f.a", &a).expect("record");
        let mut b = a.clone();
        b.write(5, 0xBEEF);
        b.zero(9); // dirtied back to zero — needs a tombstone
        st.record(&mut fs, "f", "f.b", &b).expect("record");
        assert_eq!(
            st.materialize("f.a").expect("mat a").checksum(),
            a.checksum()
        );
        assert_eq!(
            st.materialize("f.b").expect("mat b").checksum(),
            b.checksum()
        );
    }

    #[test]
    fn dropping_last_member_reclaims_base() {
        let mut fs = SimFs::new();
        let mut st = FamilyStore::new(cfg(), &mut fs, DeviceId(0));
        let mut a = GuestMemory::new(256);
        a.write(0, 1);
        st.record(&mut fs, "f", "f.a", &a).expect("record");
        let mut b = a.clone();
        b.write(200, 2);
        st.record(&mut fs, "f", "f.b", &b).expect("record");
        st.drop_named("f.b").expect("drop b");
        assert!(st.unique_bytes() > 0, "base still held by f.a");
        st.drop_named("f.a").expect("drop a");
        assert_eq!(st.unique_bytes(), 0, "last member reclaims base");
        assert_eq!(st.resident(), 0);
        st.store().debug_validate().expect("valid");
    }

    #[test]
    fn store_backed_reads_resolve_through_host_choke_point() {
        let mut host = Host::new(DiskProfile::nvme_c5d(), 3);
        let dev = host.primary_device();
        let mut st = FamilyStore::new(cfg(), &mut host.fs, dev);
        let mut mem = GuestMemory::new(64);
        for p in 0..16 {
            mem.write(p, 42 + p);
        }
        st.record(&mut host.fs, "f", "f.a", &mem).expect("record");
        // A stand-in logical memory file, backed by the store layout.
        let mem_file = host.fs.create(
            "f.a.mem",
            sim_storage::file::FileKind::SnapshotMemory,
            64,
            dev,
        );
        let layout = st.layout("f.a").expect("layout");
        host.map_chunked_file(mem_file, layout);

        // Fault injection keyed on the *store file* fires for logical
        // reads of the mapped file.
        let mut plan = FaultPlan::new(1);
        plan.push_rule(FaultRule::on_file(
            st.store_file(),
            InjectedFaultKind::ReadError,
            1,
        ));
        host.disks[0].set_fault_plan(plan);
        let c = host.submit_checked(
            sim_core::time::SimTime::ZERO,
            IoRequest {
                file: mem_file,
                page: 0,
                pages: 16,
                kind: IoKind::FaultRead,
            },
        );
        assert_eq!(c.fault.map(|f| f.kind), Some(InjectedFaultKind::ReadError));
        // Device stats show traffic against the store file's layout, and a
        // hole region costs nothing.
        let before = host.disks[0].stats().requests;
        let c2 = host.submit_checked(
            sim_core::time::SimTime::ZERO,
            IoRequest {
                file: mem_file,
                page: 32,
                pages: 8,
                kind: IoKind::FaultRead,
            },
        );
        assert!(c2.fault.is_none());
        assert_eq!(
            host.disks[0].stats().requests,
            before,
            "unmapped (all-zero) chunks cost no I/O"
        );
    }
}
