//! Per-file page state in 64-page blocks.
//!
//! The page cache and the in-flight registry both keep one value per file
//! page — a recency stamp, a completion instant — plus which pages have
//! one. [`PageBlocks`] stores that state per file in blocks of 64
//! consecutive pages: a presence word and the 64 pages' values. A file's
//! blocks are indexed densely by block number behind one small per-file
//! map, so a per-page operation costs one map lookup and an array index,
//! and a window operation touches each block once.

use sim_core::detmap::DetMap;
use sim_storage::file::FileId;

/// Pages per block: one presence word's worth.
pub(crate) const BLOCK_PAGES: u64 = 64;

/// 64 consecutive pages of one file: which are present, and a value for
/// each present page.
#[derive(Clone, Debug)]
pub(crate) struct Block<T> {
    /// Bit `i` is set iff page `i` of the block is present.
    pub(crate) bits: u64,
    /// Page `i`'s value; meaningless while bit `i` is clear.
    vals: [T; BLOCK_PAGES as usize],
}

impl<T: Copy + Default> Block<T> {
    /// The value of page `i` of the block, if present.
    pub(crate) fn get(&self, i: u64) -> Option<T> {
        if self.bits >> i & 1 == 1 {
            self.vals.get(i as usize).copied()
        } else {
            None
        }
    }

    /// Stores `val` for page `i`; true if the page was absent.
    pub(crate) fn set(&mut self, i: u64, val: T) -> bool {
        if let Some(v) = self.vals.get_mut(i as usize) {
            *v = val;
        }
        let fresh = self.bits >> i & 1 == 0;
        self.bits |= 1 << i;
        fresh
    }

    /// Marks page `i` absent.
    pub(crate) fn clear(&mut self, i: u64) {
        self.bits &= !(1 << i);
    }
}

/// One file's blocks, indexed densely by block number.
#[derive(Clone, Debug)]
pub(crate) struct FileBlocks<T> {
    blocks: Vec<Option<Box<Block<T>>>>,
}

impl<T> FileBlocks<T> {
    fn block(&self, idx: u64) -> Option<&Block<T>> {
        self.blocks.get(usize::try_from(idx).ok()?)?.as_deref()
    }

    fn block_mut(&mut self, idx: u64) -> Option<&mut Block<T>> {
        self.blocks
            .get_mut(usize::try_from(idx).ok()?)?
            .as_deref_mut()
    }

    /// The presence word of block `idx` (0 if the block does not exist).
    pub(crate) fn word(&self, idx: u64) -> u64 {
        self.block(idx).map_or(0, |b| b.bits)
    }

    /// The existing blocks overlapping pages `[start, end)` as
    /// `(first page, bits)` pairs, with bits outside the window masked
    /// off.
    fn window(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let first = start / BLOCK_PAGES;
        let last = end.div_ceil(BLOCK_PAGES);
        let blocks = usize::try_from(first)
            .ok()
            .and_then(|lo| self.blocks.get(lo..))
            .unwrap_or_default();
        (first..last).zip(blocks).filter_map(move |(idx, b)| {
            let base = idx * BLOCK_PAGES;
            b.as_ref()
                .map(|b| (base, b.bits & span_mask(start.max(base), end, base)))
        })
    }
}

/// Page state of many files in 64-page blocks, reached through one small
/// per-file map. A block, once created, lives until [`PageBlocks::clear`];
/// removing pages only clears their bits.
#[derive(Clone, Debug)]
pub(crate) struct PageBlocks<T> {
    files: DetMap<FileId, FileBlocks<T>>,
}

impl<T> Default for PageBlocks<T> {
    fn default() -> Self {
        PageBlocks {
            files: DetMap::new(),
        }
    }
}

impl<T: Copy + Default> PageBlocks<T> {
    /// The blocks of `file`, if it has any.
    pub(crate) fn file(&self, file: FileId) -> Option<&FileBlocks<T>> {
        self.files.get(&file)
    }

    /// Block `idx` of `file`, if it exists.
    pub(crate) fn block_mut(&mut self, file: FileId, idx: u64) -> Option<&mut Block<T>> {
        self.files.get_mut(&file)?.block_mut(idx)
    }

    /// Block `idx` of `file`, created empty if it does not exist. `None`
    /// only if `idx` does not fit the host's address space.
    pub(crate) fn block_or_insert(&mut self, file: FileId, idx: u64) -> Option<&mut Block<T>> {
        let at = usize::try_from(idx).ok()?;
        let blocks = &mut self
            .files
            .or_insert_with(file, || FileBlocks { blocks: Vec::new() })
            .blocks;
        if blocks.len() <= at {
            blocks.resize_with(at + 1, || None);
        }
        let slot = blocks.get_mut(at)?;
        Some(slot.get_or_insert_with(|| {
            Box::new(Block {
                bits: 0,
                vals: [T::default(); BLOCK_PAGES as usize],
            })
        }))
    }

    /// The value of `page` of `file`, if present.
    pub(crate) fn get(&self, file: FileId, page: u64) -> Option<T> {
        self.files
            .get(&file)?
            .block(page / BLOCK_PAGES)?
            .get(page % BLOCK_PAGES)
    }

    /// Number of present pages of `file` within `[start, end)`.
    pub(crate) fn count_in(&self, file: FileId, start: u64, end: u64) -> u64 {
        self.files.get(&file).map_or(0, |fb| {
            fb.window(start, end)
                .map(|(_, w)| u64::from(w.count_ones()))
                .sum()
        })
    }

    /// Number of present pages of every file.
    pub(crate) fn count(&self) -> u64 {
        self.files
            .values()
            .flat_map(|fb| fb.blocks.iter().flatten())
            .map(|b| u64::from(b.bits.count_ones()))
            .sum()
    }

    /// Calls `f` with every present page of `file` within `[start, end)`,
    /// in ascending order.
    pub(crate) fn for_each_in(&self, file: FileId, start: u64, end: u64, mut f: impl FnMut(u64)) {
        if let Some(fb) = self.files.get(&file) {
            for (base, w) in fb.window(start, end) {
                for_each_bit(w, |i| f(base + i));
            }
        }
    }

    /// Calls `f(file, page, value)` for every present page.
    pub(crate) fn for_each_present(&self, mut f: impl FnMut(FileId, u64, T)) {
        for (&file, fb) in self.files.iter() {
            for (idx, b) in fb.blocks.iter().enumerate() {
                let Some(b) = b else { continue };
                let base = idx as u64 * BLOCK_PAGES;
                for_each_bit(b.bits, |i| {
                    if let Some(&v) = b.vals.get(i as usize) {
                        f(file, base + i, v);
                    }
                });
            }
        }
    }

    /// Drops every file's blocks.
    pub(crate) fn clear(&mut self) {
        self.files.clear();
    }
}

/// The bits of the block starting at page `base` that lie in
/// `[start, end)`, where `base <= start < base + 64`.
fn span_mask(start: u64, end: u64, base: u64) -> u64 {
    let lo = start - base;
    let hi = end.saturating_sub(base).min(BLOCK_PAGES);
    let below_hi = if hi == BLOCK_PAGES {
        !0
    } else {
        (1u64 << hi) - 1
    };
    below_hi & (!0u64 << lo)
}

/// Splits `[start, start + len)` at block boundaries: calls `f(idx, mask)`
/// with each block number the window touches and the bits of its pages
/// inside the window, in block order.
pub(crate) fn for_each_span(start: u64, len: u64, mut f: impl FnMut(u64, u64)) {
    let end = start + len;
    let mut page = start;
    while page < end {
        let idx = page / BLOCK_PAGES;
        let base = idx * BLOCK_PAGES;
        f(idx, span_mask(page, end, base));
        page = base + BLOCK_PAGES;
    }
}

/// Calls `f` with the index of every set bit of `w`, lowest first.
pub(crate) fn for_each_bit(mut w: u64, mut f: impl FnMut(u64)) {
    while w != 0 {
        f(u64::from(w.trailing_zeros()));
        w &= w - 1;
    }
}

/// Length of the leading run of pages `[start, start + len)` whose bits
/// in `word(block)` all equal `set`.
pub(crate) fn leading_run(
    start: u64,
    len: u64,
    set: bool,
    mut word: impl FnMut(u64) -> u64,
) -> u64 {
    let end = start + len;
    let mut page = start;
    while page < end {
        let off = page % BLOCK_PAGES;
        let w = word(page / BLOCK_PAGES);
        // Bits that break the run, from `page` on.
        let breaks = if set { !w >> off } else { w >> off };
        let span = (BLOCK_PAGES - off).min(end - page);
        let run = u64::from(breaks.trailing_zeros()).min(span);
        if run < span {
            return page + run - start;
        }
        page += span;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_masks_split_at_block_boundaries() {
        let mut spans = Vec::new();
        for_each_span(60, 70, |idx, mask| spans.push((idx, mask)));
        assert_eq!(
            spans,
            vec![(0, 0xF << 60), (1, !0), (2, 0b11)],
            "pages 60..64, 64..128, 128..130"
        );
    }

    #[test]
    fn leading_runs_count_across_blocks() {
        // Pages 0..70 set, 70 clear, 71.. set again.
        let word = |idx: u64| match idx {
            0 => !0,
            1 => !(1 << 6),
            _ => !0,
        };
        assert_eq!(leading_run(3, 100, true, word), 67);
        assert_eq!(leading_run(70, 10, false, word), 1);
        assert_eq!(leading_run(71, 200, true, word), 200);
        assert_eq!(leading_run(5, 0, true, word), 0);
    }

    #[test]
    fn windows_count_and_list_present_pages() {
        let mut b: PageBlocks<u64> = PageBlocks::default();
        let f = FileId(3);
        for p in [1, 63, 64, 200] {
            let blk = b.block_or_insert(f, p / BLOCK_PAGES).expect("addressable");
            assert!(blk.set(p % BLOCK_PAGES, p * 10), "page {p} was absent");
        }
        assert_eq!(b.count_in(f, 0, u64::MAX), 4);
        assert_eq!(b.count_in(f, 2, 200), 2);
        let mut seen = Vec::new();
        b.for_each_in(f, 63, 201, |p| seen.push(p));
        assert_eq!(seen, vec![63, 64, 200]);
        let mut all = Vec::new();
        b.for_each_present(|file, p, v| all.push((file, p, v)));
        assert_eq!(all.len(), 4);
        assert!(all.iter().all(|&(file, p, v)| file == f && v == p * 10));
        assert_eq!(b.get(f, 64), Some(640));
        assert_eq!(b.get(f, 65), None);
    }
}
