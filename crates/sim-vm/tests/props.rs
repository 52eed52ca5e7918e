//! Property tests for the vCPU interpreter and guest memory.

use std::collections::BTreeMap;

use proptest::prelude::*;

use sim_core::time::SimDuration;
use sim_mm::addr::PageRange;
use sim_vm::guest_memory::GuestMemory;
use sim_vm::trace::{Trace, TraceOp};
use sim_vm::vcpu::{Step, Vcpu};

/// Pages of the differential images below: few enough that writes repeat
/// pages often.
const DIFF_PAGES: u64 = 256;

/// A write: page and token, with zero tokens (erasures) and small
/// repeated tokens both common.
fn arb_write() -> impl Strategy<Value = (u64, u64)> {
    (
        0u64..DIFF_PAGES,
        prop_oneof![Just(0u64), 1u64..4, any::<u64>()],
    )
}

/// A single-page or range edit of a built image.
#[derive(Clone, Debug)]
enum Edit {
    Write(u64, u64),
    Zero(u64),
    ZeroRange(u64, u64),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        arb_write().prop_map(|(p, t)| Edit::Write(p, t)),
        (0u64..DIFF_PAGES).prop_map(Edit::Zero),
        (0u64..DIFF_PAGES, 0u64..40)
            .prop_map(|(s, len)| Edit::ZeroRange(s, (s + len).min(DIFF_PAGES))),
    ]
}

/// Applies one write to the `BTreeMap` oracle: a zero token erases.
fn oracle_write(map: &mut BTreeMap<u64, u64>, page: u64, token: u64) {
    if token == 0 {
        map.remove(&page);
    } else {
        map.insert(page, token);
    }
}

/// The checksum fold over the oracle's pages in ascending order.
fn oracle_checksum(map: &BTreeMap<u64, u64>) -> u64 {
    let mut acc: u64 = 0xcbf29ce484222325;
    for (&p, &token) in map {
        acc ^= p.wrapping_mul(0x100000001b3);
        acc = acc.rotate_left(17) ^ token;
    }
    acc
}

/// Maximal runs of consecutive pages of the oracle, ascending.
fn oracle_regions(map: &BTreeMap<u64, u64>) -> Vec<PageRange> {
    let mut out: Vec<PageRange> = Vec::new();
    for &p in map.keys() {
        match out.last_mut() {
            Some(run) if run.end == p => run.end += 1,
            _ => out.push(PageRange::new(p, p + 1)),
        }
    }
    out
}

/// Asserts `mem` holds exactly the oracle's image.
fn assert_matches_oracle(mem: &GuestMemory, map: &BTreeMap<u64, u64>) {
    let expected: Vec<(u64, u64)> = map.iter().map(|(&p, &t)| (p, t)).collect();
    assert_eq!(mem.tokens(), expected.as_slice());
    assert!(
        mem.tokens().windows(2).all(|w| w[0].0 < w[1].0),
        "pages strictly ascend"
    );
    assert!(mem.tokens().iter().all(|&(_, t)| t != 0), "no zero token");
    for p in 0..DIFF_PAGES {
        assert_eq!(mem.read(p), map.get(&p).copied().unwrap_or(0));
    }
    assert_eq!(mem.checksum(), oracle_checksum(map));
    assert_eq!(mem.nonzero_regions(), oracle_regions(map));
}

/// Arbitrary small trace over pages < 2000.
fn arb_trace() -> impl Strategy<Value = Trace> {
    let op = prop_oneof![
        (0u64..5_000).prop_map(|us| TraceOp::Compute(SimDuration::from_micros(us))),
        (0u64..1_900, 1u64..100, 1u64..4, any::<bool>(), 0u64..50).prop_map(
            |(start, len, stride, write, seed)| TraceOp::Touch {
                range: PageRange::with_len(start, len.min(2_000 - start)),
                stride,
                write,
                per_page_compute: SimDuration::from_nanos(500),
                token_seed: seed,
            }
        ),
        proptest::collection::vec(0u64..2_000, 0..40).prop_map(|pages| TraceOp::TouchList {
            pages,
            write: false,
            per_page_compute: SimDuration::ZERO,
            token_seed: 0,
        }),
        (0u64..1_900, 1u64..100).prop_map(|(s, l)| TraceOp::Free {
            range: PageRange::with_len(s, l.min(2_000 - s))
        }),
    ];
    proptest::collection::vec(op, 0..20).prop_map(|ops| Trace { ops })
}

proptest! {
    /// The interpreter performs exactly `access_count()` accesses, in the
    /// order the trace specifies, and always terminates with `Done`.
    #[test]
    fn vcpu_access_count_matches_trace(trace in arb_trace()) {
        let expected = trace.access_count();
        let mut vcpu = Vcpu::new(trace);
        let mut accesses = 0u64;
        let mut steps = 0u64;
        loop {
            match vcpu.next_step() {
                Step::Done => break,
                Step::Access { .. } => accesses += 1,
                Step::Compute(_) | Step::Free { .. } => {}
            }
            steps += 1;
            prop_assert!(steps < 2_000_000, "interpreter diverged");
        }
        prop_assert_eq!(accesses, expected);
        prop_assert_eq!(vcpu.accesses(), expected);
        prop_assert!(vcpu.is_done());
        // Done is sticky.
        prop_assert_eq!(vcpu.next_step(), Step::Done);
    }

    /// Replaying a trace's writes against guest memory is equivalent to
    /// directly applying the trace token function.
    #[test]
    fn vcpu_writes_equal_token_function(trace in arb_trace()) {
        let mut via_vcpu = GuestMemory::new(2_000);
        let mut vcpu = Vcpu::new(trace.clone());
        loop {
            match vcpu.next_step() {
                Step::Done => break,
                Step::Access { page, write, token } => {
                    if write {
                        via_vcpu.write(page, token);
                    }
                }
                Step::Free { range } => via_vcpu.zero_range(range),
                Step::Compute(_) => {}
            }
        }
        // Direct application.
        let mut direct = GuestMemory::new(2_000);
        for op in &trace.ops {
            match op {
                TraceOp::Touch { range, stride, write: true, token_seed, .. } => {
                    let mut p = range.start;
                    while p < range.end {
                        direct.write(p, Trace::token_for(*token_seed, p));
                        p += stride;
                    }
                }
                TraceOp::Free { range } => direct.zero_range(*range),
                _ => {}
            }
        }
        prop_assert_eq!(via_vcpu.checksum(), direct.checksum());
    }

    /// A bulk build equals the writes applied in order to a `BTreeMap`
    /// (last write wins, a zero token erases), and single-page and range
    /// edits of the built image keep matching the oracle.
    #[test]
    fn from_writes_matches_btree_oracle(
        writes in proptest::collection::vec(arb_write(), 0..300),
        edits in proptest::collection::vec(arb_edit(), 0..40),
    ) {
        let mut mem = GuestMemory::from_writes(DIFF_PAGES, writes.iter().copied());
        let mut map = BTreeMap::new();
        for &(p, t) in &writes {
            oracle_write(&mut map, p, t);
        }
        assert_matches_oracle(&mem, &map);
        for edit in edits {
            match edit {
                Edit::Write(p, t) => {
                    mem.write(p, t);
                    oracle_write(&mut map, p, t);
                }
                Edit::Zero(p) => {
                    mem.zero(p);
                    map.remove(&p);
                }
                Edit::ZeroRange(s, e) => {
                    mem.zero_range(PageRange::new(s, e));
                    map.retain(|&p, _| !(s..e).contains(&p));
                }
            }
        }
        assert_matches_oracle(&mem, &map);
    }

    /// Guest memory write/zero/read round trips for arbitrary operations.
    #[test]
    fn guest_memory_ops(ops in proptest::collection::vec((0u64..500, any::<u64>()), 0..200)) {
        let mut mem = GuestMemory::new(500);
        let mut model = std::collections::BTreeMap::new();
        for (page, token) in ops {
            mem.write(page, token);
            if token == 0 {
                model.remove(&page);
            } else {
                model.insert(page, token);
            }
        }
        for p in 0..500 {
            prop_assert_eq!(mem.read(p), model.get(&p).copied().unwrap_or(0));
        }
        prop_assert_eq!(mem.nonzero_count(), model.len() as u64);
        // Region scan covers exactly the non-zero pages.
        let from_regions: u64 = mem.nonzero_regions().iter().map(|r| r.len()).sum();
        prop_assert_eq!(from_regions, model.len() as u64);
    }
}
