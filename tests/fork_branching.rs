//! Snapshot-branching acceptance: read amplification of N-way fan-out.
//!
//! The headline claim of the branching refactor: forking N concurrent
//! siblings from one snapshot issues close to the disk reads of a
//! *single* restore, not N of them — sibling faults on a page already
//! in flight coalesce onto one read, and later siblings hit the cache
//! the earlier ones loaded. The acceptance bar pinned here is ≥10×
//! fewer disk-read pages at N = 1000 than 1000 independent restores;
//! the realized ratio is close to 1000×.

use faasnap::strategy::RestoreStrategy;
use faasnap_daemon::platform::Platform;
use sim_storage::profiles::DiskProfile;

fn recorded(name: &str) -> Platform {
    let mut p = Platform::new(DiskProfile::nvme_c5d(), 0xF04C);
    let f = faas_workloads::by_name(name).unwrap();
    p.register(f.clone());
    p.record(name, "t", &f.input_a()).unwrap();
    p
}

#[test]
fn thousand_way_fork_beats_independent_restores_by_10x() {
    let mut p = recorded("hello-world");
    let f = faas_workloads::by_name("hello-world").unwrap();
    for strategy in [RestoreStrategy::Vanilla, RestoreStrategy::faasnap()] {
        // Every fork call drops the caches first, so the N = 1 fork is
        // exactly the cost of one independent cold restore.
        let solo = p
            .try_fork("hello-world", "t", &f.input_b(), strategy, 1)
            .unwrap();
        let fork = p
            .try_fork("hello-world", "t", &f.input_b(), strategy, 1000)
            .unwrap();
        assert_eq!(fork.outcomes.len(), 1000);
        let independent = solo.disk_read_pages * 1000;
        assert!(
            independent >= 10 * fork.disk_read_pages,
            "{}: 1000-way fork read {} pages, 1000 independent restores read {} \
             — less than the 10x acceptance bar",
            strategy.label(),
            fork.disk_read_pages,
            independent
        );
        // Sharing is visible in the memory accounting too: the base
        // image is counted once, and per-sibling private overlays stay
        // far smaller than the base. (hello-world's scratch pages sit
        // over zero base pages and are sanitized back at guest exit, so
        // its overlays end empty — COW cost is bounded by the dirty
        // set, not the working set.)
        assert!(fork.shared_pages > 0);
        assert!(
            fork.private_pages / 1000 < fork.shared_pages,
            "per-sibling private pages ({} total) should be far below the \
             shared base ({} pages)",
            fork.private_pages,
            fork.shared_pages
        );
        // And it never trades correctness: all siblings end byte-equal
        // to the independent restore.
        let independent_sum = solo.outcomes[0].final_memory.checksum();
        for o in &fork.outcomes {
            assert_eq!(o.final_memory.checksum(), independent_sum);
        }
    }
}
