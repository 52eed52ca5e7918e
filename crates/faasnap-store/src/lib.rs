//! faasnap-store: deterministic content-addressed snapshot storage.
//!
//! FaaSnap's per-host registry originally budgeted *whole* snapshot
//! files, so capacity scaled linearly with tenant count. This crate is
//! the fix argued by ADR-004-style pool-level base snapshots: one shared
//! **base** image per function family plus per-instance **delta** layers,
//! with identical chunks (zero pages, shared runtime/guest-kernel pages)
//! deduplicated host-wide through a refcounted content-addressed chunk
//! table.
//!
//! Determinism contract: chunk identity is a pure function of content
//! under an in-tree seeded hash ([`hash::HASH_SEED`]) — no OS entropy, no
//! per-process hasher state — and every container is insertion-ordered
//! (`sim_core::detmap::DetMap`) or sorted (a layer's slot vector, the
//! `BTreeMap` that `resolve` returns), so all iteration orders,
//! accounting totals, and eviction decisions are byte-reproducible per
//! seed. Enforced by faasnap-lint.
//!
//! The crate deliberately depends only on `sim-core`: the storage layer
//! (`sim-storage`) stays below it in the crate DAG, and the integration
//! glue lives in `faasnap` (restore paths) and `faasnap-cluster` (fleet
//! accounting).

#![forbid(unsafe_code)]

pub mod chunk;
pub mod error;
pub mod hash;
pub mod layer;
pub mod store;

pub use chunk::{ChunkEntry, ChunkTable};
pub use error::StoreError;
pub use hash::{mix64, mix_words, ChunkHash, HASH_SEED};
pub use layer::{Layer, LayerId, LayerKind};
pub use store::{SnapshotId, SnapshotStore, StoreConfig, StoreStats};
