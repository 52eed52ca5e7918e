//! Benchmark harness regenerating every table and figure of the paper.
//!
//! One bench target, `figures`, runs the drivers in [`figures`] by name:
//! `cargo bench -p faasnap-bench` regenerates them all, in the order of
//! [`DRIVERS`], and `cargo bench -p faasnap-bench -- fig6_exec_time
//! tbl_merge` only the named ones. `FAASNAP_QUICK=1` runs them at
//! [`Effort::Quick`]; an unknown name exits with status 2.
//!
//! | name                 | paper artifact | driver |
//! |----------------------|----------------|--------|
//! | `fig1_breakdown`     | Figure 1       | [`figures::fig1_breakdown`] |
//! | `fig2_fault_dist`    | Figure 2       | [`figures::fig2_fault_dist`] |
//! | `table2_workingsets` | Table 2        | [`figures::table2_workingsets`] |
//! | `fig6_exec_time`     | Figure 6       | [`figures::fig6_exec_time`] |
//! | `fig7_synthetic`     | Figure 7       | [`figures::fig7_synthetic`] |
//! | `fig8_input_sweep`   | Figure 8       | [`figures::fig8_input_sweep`] |
//! | `table3_analysis`    | Table 3        | [`figures::table3_analysis`] |
//! | `fig9_ablation`      | Figure 9       | [`figures::fig9_ablation`] |
//! | `fig10_burst`        | Figure 10      | [`figures::fig10_burst`] |
//! | `fig11_remote`       | Figure 11      | [`figures::fig11_remote`] |
//! | `tbl_footprint`      | §7.3           | [`figures::tbl_footprint`] |
//! | `tbl_merge`          | §4.6           | [`figures::tbl_merge`] |
//! | `tbl_sensitivity`    | §4.3, §4.6     | [`figures::tbl_sensitivity`] |
//! | `tbl_policy`         | §7.1           | [`figures::tbl_policy`] |
//! | `tbl_cache_pressure` | cache pressure | [`figures::tbl_cache_pressure`] |
//! | `fig_cluster`        | fleet SLOs     | [`figures::fig_cluster`] |
//! | `fig_fork`           | branching      | [`figures::fig_fork`] |
//!
//! Drivers accept an [`Effort`] so smoke tests can run the same code
//! cheaply; a full `cargo bench` uses [`Effort::Full`]. The drivers
//! report the modeled system's simulated time; the simulator's own speed
//! is the repository benchmark's (`benchmark/`, via
//! `scripts/trajectory.py`).

#![forbid(unsafe_code)]
pub mod figures;
pub mod runner;

use faasnap_daemon::metrics::TextTable;

/// A driver as the `figures` bench target runs it: its tables at one
/// effort.
pub type Driver = fn(Effort) -> Vec<TextTable>;

/// Every driver by name, in the order a full `cargo bench` runs them.
pub const DRIVERS: &[(&str, Driver)] = &[
    ("fig1_breakdown", |e| vec![figures::fig1_breakdown(e)]),
    ("fig2_fault_dist", |e| vec![figures::fig2_fault_dist(e)]),
    ("table2_workingsets", |e| {
        vec![figures::table2_workingsets(e)]
    }),
    ("fig6_exec_time", figures::fig6_exec_time),
    ("fig7_synthetic", |e| vec![figures::fig7_synthetic(e)]),
    ("fig8_input_sweep", |e| vec![figures::fig8_input_sweep(e)]),
    ("table3_analysis", |e| vec![figures::table3_analysis(e)]),
    ("fig9_ablation", |e| vec![figures::fig9_ablation(e)]),
    ("fig10_burst", |e| vec![figures::fig10_burst(e)]),
    ("fig11_remote", |e| vec![figures::fig11_remote(e)]),
    ("tbl_footprint", |e| vec![figures::tbl_footprint(e)]),
    ("tbl_merge", |e| vec![figures::tbl_merge(e)]),
    ("tbl_sensitivity", |e| vec![figures::tbl_sensitivity(e)]),
    ("tbl_policy", |e| vec![figures::tbl_policy(e)]),
    ("tbl_cache_pressure", |e| {
        vec![figures::tbl_cache_pressure(e)]
    }),
    ("fig_cluster", |e| vec![figures::fig_cluster(e)]),
    ("fig_fork", |e| vec![figures::fig_fork(e)]),
];

/// How much work to spend on an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    /// Few functions, one repetition (CI smoke tests).
    Quick,
    /// The paper's protocol (all functions, full repetitions).
    Full,
}

impl Effort {
    /// Repetitions for a `paper_reps`-rep experiment.
    pub fn reps(self, paper_reps: u32) -> u32 {
        match self {
            Effort::Quick => 1,
            Effort::Full => paper_reps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_doc_table_is_the_driver_list() {
        let rows: Vec<&str> = include_str!("lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `"))
            .filter_map(|l| l.split('`').next())
            .collect();
        let names: Vec<&str> = DRIVERS.iter().map(|(name, _)| *name).collect();
        assert_eq!(rows, names);
    }

    #[test]
    fn effort_reps() {
        assert_eq!(Effort::Quick.reps(5), 1);
        assert_eq!(Effort::Full.reps(5), 5);
    }

    #[test]
    fn table2_driver_runs_quick() {
        let t = figures::table2_workingsets(Effort::Quick);
        assert!(!t.is_empty());
        let s = format!("{t}");
        assert!(s.contains("hello-world"));
        assert!(s.contains("11.8"));
    }

    #[test]
    fn merge_driver_runs_quick() {
        let t = figures::tbl_merge(Effort::Quick);
        assert_eq!(t.len(), 1);
        assert!(format!("{t}").contains("hello-world"));
    }

    #[test]
    fn fig_cluster_driver_runs_quick() {
        let t = figures::fig_cluster(Effort::Quick);
        let s = format!("{t}");
        assert!(s.contains("random"));
        assert!(s.contains("snapshot-locality"));
    }

    #[test]
    fn fig_fork_driver_runs_quick() {
        let t = figures::fig_fork(Effort::Quick);
        let s = format!("{t}");
        assert!(s.contains("Snapshot branching"));
        assert!(s.contains("100"));
    }

    #[test]
    fn fig7_driver_runs_quick() {
        let t = figures::fig7_synthetic(Effort::Quick);
        let s = format!("{t}");
        assert!(s.contains("hello-world"));
        assert!(s.contains("FaaSnap"));
    }
}
