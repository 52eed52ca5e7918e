//! Property-based tests over cross-crate invariants.

use proptest::prelude::*;

use faasnap::loadingset::LoadingSet;
use faasnap::mapper;
use faasnap::wset::WorkingSet;
use sim_mm::addr::{normalize, PageRange};
use sim_mm::vma::{AddressSpace, Backing, Resolved};
use sim_storage::file::FileId;
use sim_vm::guest_memory::GuestMemory;
use sim_vm::{CowMemory, GuestMem};

/// Pages the naive address-space model tracks (mappings stay below 260).
const NAIVE_PAGES: u64 = 270;

/// Holds `aspace`'s view of `page` to the naive per-page model, which
/// names for each page the mapping call that last covered it: `resolve`
/// must give the model's location and `lookup` the VMA spanning exactly
/// the run of pages around `page` that the same call still covers (no
/// two pieces of one call are ever adjacent, so that run is one VMA).
fn check_lookup(aspace: &AddressSpace, naive: &[Option<(usize, Resolved)>], page: u64) {
    let at = |p: u64| naive.get(p as usize).copied().flatten();
    let want = at(page);
    prop_assert_eq!(
        aspace.resolve(page),
        want.map(|(_, r)| r),
        "resolve {}",
        page
    );
    let extent = want.map(|(call, _)| {
        let same = |p: u64| at(p).is_some_and(|(c, _)| c == call);
        let start = (0..page)
            .rev()
            .take_while(|&p| same(p))
            .last()
            .unwrap_or(page);
        let end = (page..NAIVE_PAGES)
            .take_while(|&p| same(p))
            .last()
            .unwrap_or(page)
            + 1;
        PageRange::new(start, end)
    });
    prop_assert_eq!(
        aspace.lookup(page).map(|v| v.range),
        extent,
        "lookup {}",
        page
    );
}

/// A small arbitrary set of distinct pages below `max`.
fn arb_pages(max: u64) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::btree_set(0..max, 0..120).prop_map(|s| s.into_iter().collect())
}

proptest! {
    /// MAP_FIXED overlay semantics: the address space must agree with a
    /// naive "last mapping wins per page" model for any mapping sequence.
    /// Lookups of random pages in random order run between the mappings,
    /// so the last-hit cursor hits, misses and goes stale after a remap;
    /// `resolve`, `lookup`'s extent and `covers` all match the model.
    #[test]
    fn vma_overlay_matches_naive_model(
        ops in proptest::collection::vec(
            (
                0u64..200,
                1u64..60,
                0u8..3,
                proptest::collection::vec((0u64..NAIVE_PAGES, 0u64..40), 0..12),
            ),
            1..25,
        )
    ) {
        let total = 260u64;
        let mut aspace = AddressSpace::new();
        let mut naive: Vec<Option<(usize, Resolved)>> = vec![None; NAIVE_PAGES as usize];
        for (i, (start, len, kind, probes)) in ops.into_iter().enumerate() {
            let end = (start + len).min(total);
            let range = PageRange::new(start, end);
            let backing = match kind {
                0 => Backing::Anonymous,
                1 => Backing::File { file: FileId(1), offset_page: start },
                _ => Backing::File { file: FileId(2), offset_page: 1000 + start },
            };
            aspace.map_fixed(range, backing);
            for p in start..end {
                naive[p as usize] = Some((i, match kind {
                    0 => Resolved::Anonymous,
                    1 => Resolved::File { file: FileId(1), file_page: p },
                    _ => Resolved::File { file: FileId(2), file_page: 1000 + p },
                }));
            }
            for (p, len) in probes {
                check_lookup(&aspace, &naive, p);
                let range = PageRange::new(p, (p + len).min(NAIVE_PAGES));
                let covered = range.iter().all(|q| naive[q as usize].is_some());
                prop_assert_eq!(aspace.covers(range), covered, "covers {:?}", range);
            }
        }
        // Every page forward, then backward.
        for p in (0..NAIVE_PAGES).chain((0..NAIVE_PAGES).rev()) {
            check_lookup(&aspace, &naive, p);
        }
    }

    /// normalize() produces sorted, disjoint, non-adjacent ranges covering
    /// exactly the input's page set.
    #[test]
    fn normalize_preserves_page_set(
        ranges in proptest::collection::vec((0u64..500, 0u64..40), 0..30)
    ) {
        let input: Vec<PageRange> =
            ranges.iter().map(|&(s, l)| PageRange::with_len(s, l)).collect();
        let mut expected: Vec<bool> = vec![false; 600];
        for r in &input {
            for p in r.iter() {
                expected[p as usize] = true;
            }
        }
        let out = normalize(input);
        // Coverage identical.
        let mut got = vec![false; 600];
        for r in &out {
            for p in r.iter() {
                prop_assert!(!got[p as usize], "overlap in output");
                got[p as usize] = true;
            }
        }
        prop_assert_eq!(got, expected);
        // Sorted and non-adjacent.
        for w in out.windows(2) {
            prop_assert!(w[0].end < w[1].start);
        }
    }

    /// Loading set = working set ∩ non-zero pages, modulo merged gaps:
    /// every proper loading-set page is covered; no covered page lies
    /// outside [min, max] of proper pages; zero pages only appear as gap
    /// filler inside merged regions.
    #[test]
    fn loading_set_invariants(
        ws_pages in arb_pages(4000),
        nonzero in arb_pages(4000),
        gap in 0u64..64
    ) {
        let mut ws = WorkingSet::with_group_size(64);
        ws.extend(&ws_pages);
        let mut mem = GuestMemory::new(4096);
        for &p in &nonzero {
            mem.write(p, p + 1);
        }
        let ls = LoadingSet::build(&ws, &mem, gap);

        let proper: std::collections::BTreeSet<u64> = ws_pages
            .iter()
            .copied()
            .filter(|p| mem.is_nonzero(*p))
            .collect();
        // Every proper page is covered with a valid file offset.
        for &p in &proper {
            prop_assert!(ls.covers(p), "proper page {} uncovered", p);
            prop_assert!(ls.file_page_of(p).is_some());
        }
        prop_assert_eq!(ls.core_pages(), proper.len() as u64);
        // File layout is a bijection: offsets are dense and unique.
        let mut seen = vec![false; ls.file_pages() as usize];
        for r in ls.regions() {
            for (i, _) in r.guest.iter().enumerate() {
                let fp = (r.file_start + i as u64) as usize;
                prop_assert!(!seen[fp], "file page reused");
                seen[fp] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b), "file has holes");
        // Regions sorted by (group, address).
        for w in ls.regions().windows(2) {
            prop_assert!(
                (w[0].group, w[0].guest.start) < (w[1].group, w[1].guest.start)
            );
        }
        // Merging respects the gap threshold: consecutive regions in
        // address order are separated by more than `gap` pages.
        let mut by_addr: Vec<_> = ls.regions().to_vec();
        by_addr.sort_by_key(|r| r.guest.start);
        for w in by_addr.windows(2) {
            prop_assert!(w[1].guest.start - w[0].guest.end > gap);
        }
    }

    /// `covers` and `file_page_of` (binary searches of the guest-ordered
    /// index) agree with a linear scan of the file-ordered `regions()` on
    /// every page. Pages arrive in random order and groups are small, so
    /// the file order differs from the guest order.
    #[test]
    fn loading_set_lookups_match_linear_scan(
        accesses in proptest::collection::vec(0u64..1000, 0..150),
        nonzero in arb_pages(1000),
        group_size in 1u64..32,
        gap in 0u64..40
    ) {
        let mut order: Vec<u64> = Vec::new();
        for &p in &accesses {
            if !order.contains(&p) {
                order.push(p);
            }
        }
        let mut ws = WorkingSet::with_group_size(group_size);
        ws.extend(&order);
        let mut mem = GuestMemory::new(1024);
        for &p in &nonzero {
            mem.write(p, p + 1);
        }
        let ls = LoadingSet::build(&ws, &mem, gap);
        for p in 0..1024 {
            let scan = ls
                .regions()
                .iter()
                .find(|r| r.guest.contains(p))
                .map(|r| r.file_start + (p - r.guest.start));
            prop_assert_eq!(ls.file_page_of(p), scan, "file_page_of {}", p);
            prop_assert_eq!(ls.covers(p), scan.is_some(), "covers {}", p);
        }
    }

    /// Working-set groups are access-order-major: `pages()` preserves
    /// scan order, and the `i`-th recorded page lands in group
    /// `i / group_size`, so group numbers are non-decreasing in scan
    /// order (§4.3's prioritization signal).
    #[test]
    fn wset_groups_follow_access_order(
        accesses in proptest::collection::vec(0u64..300, 1..400),
        group_size in 1u64..65
    ) {
        // First-touch order with duplicates removed models one page
        // appearing across repeated mincore scans.
        let mut order: Vec<u64> = Vec::new();
        for &p in &accesses {
            if !order.contains(&p) {
                order.push(p);
            }
        }
        let mut ws = WorkingSet::with_group_size(group_size);
        ws.extend(&order);
        prop_assert_eq!(ws.pages(), &order[..]);
        let mut prev_group = 0u32;
        for (idx, (page, group)) in ws.pages_with_groups().enumerate() {
            prop_assert_eq!(page, order[idx]);
            prop_assert_eq!(u64::from(group), idx as u64 / group_size);
            prop_assert_eq!(ws.group_of_index(idx as u64), group);
            prop_assert!(group >= prev_group, "groups non-decreasing in scan order");
            prev_group = group;
        }
        prop_assert_eq!(ws.group_count(), (order.len() as u64).div_ceil(group_size));
    }

    /// Merged loading-set regions respect the gap bound: region
    /// endpoints are always *core* pages (working set ∩ non-zero), and
    /// any interior run of non-core filler spans at most `gap` pages —
    /// merging never bridges a hole wider than the threshold (§4.6).
    /// With `gap = 0` this degenerates to: the loading set contains no
    /// zero page at all.
    #[test]
    fn merged_regions_respect_gap_bound(
        ws_pages in arb_pages(4000),
        nonzero in arb_pages(4000),
        gap in 0u64..64
    ) {
        let mut ws = WorkingSet::with_group_size(64);
        ws.extend(&ws_pages);
        let mut mem = GuestMemory::new(4096);
        for &p in &nonzero {
            mem.write(p, p + 1);
        }
        let ls = LoadingSet::build(&ws, &mem, gap);
        let core: std::collections::BTreeSet<u64> = ws_pages
            .iter()
            .copied()
            .filter(|p| mem.is_nonzero(*p))
            .collect();
        for r in ls.regions() {
            prop_assert!(core.contains(&r.guest.start), "region starts on a core page");
            prop_assert!(core.contains(&(r.guest.end - 1)), "region ends on a core page");
            // Consecutive core pages inside a region are separated by at
            // most `gap` filler pages.
            let members: Vec<u64> = r.guest.iter().filter(|p| core.contains(p)).collect();
            for w in members.windows(2) {
                prop_assert!(
                    w[1] - w[0] <= gap + 1,
                    "interior hole of {} pages exceeds gap {}",
                    w[1] - w[0] - 1,
                    gap
                );
            }
        }
        if gap == 0 {
            for r in ls.regions() {
                for p in r.guest.iter() {
                    prop_assert!(mem.is_nonzero(p), "zero page {} in unmerged loading set", p);
                }
            }
        }
    }

    /// Hierarchical and flat FaaSnap mappings are observationally
    /// identical for arbitrary loading sets.
    #[test]
    fn mapping_variants_agree(
        ws_pages in arb_pages(1500),
        nonzero_extra in arb_pages(1500)
    ) {
        let total = 1600u64;
        let mut mem = GuestMemory::new(total);
        for &p in ws_pages.iter().chain(nonzero_extra.iter()) {
            mem.write(p, p + 1);
        }
        let mut ws = WorkingSet::new();
        ws.extend(&ws_pages);
        let ls = LoadingSet::build(&ws, &mem, 8);
        let nz = mem.nonzero_regions();
        let mut h = AddressSpace::new();
        mapper::map_faasnap_hierarchical(&mut h, total, &nz, &ls, FileId(1), FileId(2));
        let mut fl = AddressSpace::new();
        mapper::map_faasnap_flat(&mut fl, total, &nz, &ls, FileId(1), FileId(2));
        for p in 0..total {
            prop_assert_eq!(h.resolve(p), fl.resolve(p), "page {} differs", p);
        }
    }

    /// The guest-memory zero/non-zero scan partitions the address space.
    #[test]
    fn region_scan_partitions(pages in arb_pages(2000)) {
        let mut mem = GuestMemory::new(2048);
        for &p in &pages {
            mem.write(p, 1);
        }
        let nz = mem.nonzero_regions();
        let z = mem.zero_regions();
        let mut covered = vec![0u8; 2048];
        for r in nz.iter().chain(z.iter()) {
            for p in r.iter() {
                covered[p as usize] += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
        for r in &nz {
            for p in r.iter() {
                prop_assert!(mem.is_nonzero(p));
            }
        }
    }
}

proptest! {
    /// COW overlay conservation over random fork trees. N siblings'
    /// N× logical pages are physically backed by exactly one shared
    /// base plus each sibling's private overlay, and the accounting is
    /// exact: every sibling's `private_pages()` equals an independent
    /// replay model of its own write history (the inherited prefix
    /// included), while the base never changes. Because each sibling's
    /// materialized image equals its own replay, no sibling ever
    /// observes another's dirty write. The read-through views agree with
    /// the materialized image: each sibling's `checksum()` equals its
    /// materialized checksum, and two siblings compare equal exactly
    /// when their materialized images do.
    #[test]
    fn cow_fork_tree_conservation_and_isolation(
        base_pages in arb_pages(200),
        // Each op: (kind, sibling selector, page, token). kind % 4 == 0
        // forks a new sibling off an existing one (a clone of its
        // overlay) while fewer than 8 exist. Otherwise it changes a page
        // of an existing sibling: kind 1 zeroes it through `zero_range`,
        // kind 2 writes token 0 through `write`, kind 3 writes back the
        // base's own token, and anything else writes the token (0
        // included).
        ops in proptest::collection::vec((0u8..8, 0usize..64, 0u64..200, 0u64..40), 1..160)
    ) {
        let mut base = GuestMemory::new(200);
        for &p in &base_pages {
            base.write(p, p * 7 + 1);
        }
        let base_sum = base.checksum();
        let base = std::rc::Rc::new(base);
        let mut siblings = vec![CowMemory::new(base.clone())];
        // The replay model: per sibling, the overlay an independent
        // bookkeeper expects — a write inserts its token (a zero token
        // too), a zero over a non-zero base page tombstones, a zero over
        // a zero base page erases.
        let mut model: Vec<std::collections::BTreeMap<u64, u64>> = vec![Default::default()];
        for (kind, sel, page, token) in ops {
            let i = sel % siblings.len();
            if kind % 4 == 0 && siblings.len() < 8 {
                siblings.push(siblings[i].clone());
                model.push(model[i].clone());
            } else if kind == 1 {
                siblings[i].zero_range(PageRange::new(page, page + 1));
                if base.is_nonzero(page) {
                    model[i].insert(page, 0);
                } else {
                    model[i].remove(&page);
                }
            } else {
                let token = match kind {
                    2 => 0,
                    3 => base.read(page),
                    _ => token,
                };
                siblings[i].write(page, token);
                model[i].insert(page, token);
            }
        }
        // Physical sharing: every sibling holds the one base (plus our
        // local handle), never a copy.
        prop_assert_eq!(
            std::rc::Rc::strong_count(&base),
            siblings.len() + 1,
            "fork tree must share a single base image"
        );
        prop_assert_eq!(base.checksum(), base_sum, "base mutated by a sibling");
        // Conservation: shared + Σ private == base pages + exactly the
        // distinct pages each sibling dirtied, nothing double-counted.
        let shared = base.nonzero_count();
        let private: u64 = siblings.iter().map(CowMemory::private_pages).sum();
        let expected_private: u64 = model.iter().map(|m| m.len() as u64).sum();
        prop_assert_eq!(private, expected_private);
        prop_assert_eq!(shared + private, base.nonzero_count() + expected_private);
        // Isolation: each sibling materializes to its own replay, and its
        // read-through checksum equals the materialized image's.
        let images: Vec<GuestMemory> = siblings.iter().map(CowMemory::materialize).collect();
        for (i, ((sib, m), image)) in siblings.iter().zip(&model).zip(&images).enumerate() {
            let mut expect = (*base).clone();
            for (&p, &t) in m {
                expect.write(p, t);
            }
            prop_assert_eq!(
                image,
                &expect,
                "sibling {} observed foreign dirty state",
                i
            );
            prop_assert_eq!(sib.checksum(), image.checksum(), "sibling {} checksum", i);
        }
        // Logical equality: overlays compare equal exactly when their
        // images do, however their pages split between base and overlay.
        for (i, a) in siblings.iter().enumerate() {
            for (j, b) in siblings.iter().enumerate() {
                prop_assert_eq!(
                    a == b,
                    images[i] == images[j],
                    "siblings {} and {}",
                    i,
                    j
                );
            }
        }
    }
}
