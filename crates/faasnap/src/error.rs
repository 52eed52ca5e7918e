//! Typed restore-stack errors.
//!
//! The restore stack's failure policy is *fail closed*: an injected (or,
//! in a real deployment, physical) storage fault either heals within the
//! bounded retry budget, degrades to a strictly-safer strategy that still
//! hands the guest byte-identical snapshot contents, or surfaces as a
//! [`RestoreError`] — never as silently corrupt guest memory.

use std::fmt;

use sim_storage::file::FileId;

/// Where in the restore stack a retried read lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RetrySite {
    /// Kernel demand read on a guest fault (plus readahead).
    GuestFault,
    /// FaaSnap daemon loader prefetch.
    Loader,
    /// REAP user-level handler read for an out-of-set fault.
    ReapMiss,
    /// REAP's blocking working-set fetch at setup.
    ReapFetch,
}

impl RetrySite {
    /// Stable label for metrics and retry traces.
    pub fn label(self) -> &'static str {
        match self {
            RetrySite::GuestFault => "guest_fault",
            RetrySite::Loader => "loader",
            RetrySite::ReapMiss => "reap_miss",
            RetrySite::ReapFetch => "reap_fetch",
        }
    }

    /// Reads (the first plus its retries) a consumer at this site makes
    /// before giving up. A guest fault and a REAP miss then fail the
    /// invocation closed, since the guest must never see a partial page;
    /// the loader and REAP's working-set fetch are optimizations and
    /// degrade instead.
    pub fn max_attempts(self) -> u32 {
        match self {
            RetrySite::GuestFault => 4,
            RetrySite::Loader | RetrySite::ReapMiss | RetrySite::ReapFetch => 3,
        }
    }
}

impl fmt::Display for RetrySite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A restore that could not complete safely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// A read kept failing past its retry budget. The invocation is
    /// abandoned with the guest untouched past the last installed page.
    ReadRetriesExhausted {
        /// Which consumer was retrying.
        site: RetrySite,
        /// The file whose read failed.
        file: FileId,
        /// First file page of the failing read.
        page: u64,
        /// Attempts made (initial read + retries).
        attempts: u32,
    },
    /// The record phase finished without producing a required artifact
    /// (e.g. the recording run was itself aborted by a storage fault).
    RecordIncomplete {
        /// Which artifact is missing.
        what: &'static str,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::ReadRetriesExhausted {
                site,
                file,
                page,
                attempts,
            } => write!(
                f,
                "read retries exhausted at {site}: file {} page {page} failed {attempts} attempts",
                file.0
            ),
            RestoreError::RecordIncomplete { what } => {
                write!(f, "record phase incomplete: missing {what}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = RestoreError::ReadRetriesExhausted {
            site: RetrySite::Loader,
            file: FileId(3),
            page: 128,
            attempts: 4,
        };
        let s = e.to_string();
        assert!(s.contains("loader"));
        assert!(s.contains("file 3"));
        assert!(s.contains("page 128"));
        assert!(s.contains("4 attempts"));
        assert!(RestoreError::RecordIncomplete {
            what: "working set"
        }
        .to_string()
        .contains("working set"));
    }

    #[test]
    fn site_labels_are_stable() {
        assert_eq!(RetrySite::GuestFault.label(), "guest_fault");
        assert_eq!(RetrySite::ReapFetch.to_string(), "reap_fetch");
    }
}
