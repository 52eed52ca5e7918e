//! Function and artifact registry.
//!
//! The daemon keeps, per registered function: its calibrated model, and —
//! once the record phase has run — the snapshot artifacts (warm snapshot,
//! working sets, loading-set file) used by test-phase invocations.

use std::collections::BTreeMap;

use faas_workloads::{Function, Input};
use faasnap::artifacts::{record_phase, RecordOptions, SnapshotArtifacts};
use faasnap::runtime::Host;
use sim_storage::file::DeviceId;

/// A registered function plus its recorded artifacts.
pub struct FunctionEntry {
    /// The function model.
    pub function: Function,
    /// Artifacts from the most recent record phase, keyed by a label
    /// (different record inputs produce different artifacts).
    pub artifacts: BTreeMap<String, SnapshotArtifacts>,
}

/// The daemon's function registry.
#[derive(Default)]
pub struct FunctionRegistry {
    entries: BTreeMap<String, FunctionEntry>,
}

impl FunctionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a function (replacing any same-named entry).
    pub fn register(&mut self, function: Function) {
        self.entries.insert(
            function.name().to_string(),
            FunctionEntry {
                function,
                artifacts: BTreeMap::new(),
            },
        );
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// The function model for `name`.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.entries.get(name).map(|e| &e.function)
    }

    /// Runs the record phase for `name` with `record_input`, storing the
    /// artifacts under `label`. Returns an error for unknown functions and
    /// for record runs aborted by storage faults — in the latter case no
    /// artifacts are stored under `label` (complete or cleanly absent,
    /// never half-written).
    pub fn record(
        &mut self,
        host: &mut Host,
        name: &str,
        label: &str,
        record_input: &Input,
        device: DeviceId,
    ) -> Result<(), String> {
        let entry = self
            .entries
            .get_mut(name)
            .ok_or_else(|| format!("unknown function {name}"))?;
        let trace = entry.function.trace(record_input);
        let image = entry.function.boot_image();
        let artifacts = record_phase(
            host,
            &format!("{name}.{label}"),
            image,
            trace,
            device,
            RecordOptions::default(),
        )
        .map_err(|e| format!("record {name}.{label}: {e}"))?;
        entry.artifacts.insert(label.to_string(), artifacts);
        Ok(())
    }

    /// Fetches recorded artifacts.
    pub fn artifacts(&self, name: &str, label: &str) -> Option<&SnapshotArtifacts> {
        self.entries.get(name).and_then(|e| e.artifacts.get(label))
    }

    /// Registered function names (sorted).
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.entries.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_storage::profiles::DiskProfile;

    #[test]
    fn register_and_lookup() {
        let mut r = FunctionRegistry::new();
        r.register(faas_workloads::by_name("hello-world").unwrap());
        assert!(r.contains("hello-world"));
        assert!(!r.contains("nope"));
        assert_eq!(r.names(), vec!["hello-world"]);
        assert!(r.function("hello-world").is_some());
    }

    #[test]
    fn record_unknown_function_errors() {
        let mut r = FunctionRegistry::new();
        let mut host = Host::new(DiskProfile::nvme_c5d(), 1);
        let dev = host.primary_device();
        let input = Input::new(1.0, 0, 1);
        assert!(r.record(&mut host, "ghost", "a", &input, dev).is_err());
    }

    #[test]
    fn record_stores_artifacts() {
        let mut r = FunctionRegistry::new();
        let f = faas_workloads::by_name("hello-world").unwrap();
        let input = f.input_a();
        r.register(f);
        let mut host = Host::new(DiskProfile::nvme_c5d(), 1);
        let dev = host.primary_device();
        r.record(&mut host, "hello-world", "a", &input, dev)
            .unwrap();
        let a = r.artifacts("hello-world", "a").expect("artifacts stored");
        assert!(!a.ws.is_empty());
        assert!(r.artifacts("hello-world", "b").is_none());
    }
}
