//! A generic sparse page table with a one-entry page cache — the shared
//! mechanism behind [`MemImage`](crate::MemImage) and the simulator's
//! streaming dependence oracle.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};

use sqip_snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Bytes per data page of [`MemImage`](crate::MemImage) (4 KiB).
pub const PAGE_ENTRIES: usize = 4096;

/// A sparse array of pages of type `P`, keyed by page number and
/// allocated (as `P::default()`) on first write.
///
/// The page type is the table's unit of allocation, so it should match
/// how densely the table is written. [`MemImage`](crate::MemImage) keeps
/// 4 KiB pages of data bytes. The dependence oracle's stores scatter
/// across lines, so its pages are single 64-B cache lines, each a
/// byte-to-writer map plus the line's live writers (88 B inline and one
/// small writer list per line, where a 16-B entry per byte would cost
/// 1 KiB).
///
/// Two properties make it fit the simulator's per-memory-access hot
/// path:
///
/// * callers resolve a page **once per span** (via [`PageTable::page`] /
///   [`PageTable::page_mut_or_alloc`]) and then index into it directly,
///   instead of paying a map lookup per entry;
/// * a one-entry most-recently-resolved cache short-circuits the hash
///   lookup for the common case of repeated traffic to one page. Pages
///   are never deallocated, so the cached slot stays valid for the
///   table's lifetime. (`u64::MAX` is not a reachable page number —
///   page numbers are addresses divided by the page size — so it
///   doubles as the empty sentinel.)
#[derive(Debug, Clone)]
pub struct PageTable<P> {
    /// Page number -> slot in `pages`.
    index: HashMap<u64, u32>,
    pages: Vec<P>,
    /// Most recently resolved (page number, slot).
    last: Cell<(u64, u32)>,
}

impl<P: Default> Default for PageTable<P> {
    fn default() -> PageTable<P> {
        PageTable::new()
    }
}

impl<P: Default> PageTable<P> {
    /// An empty table: every page reads as absent until written.
    #[must_use]
    pub fn new() -> PageTable<P> {
        PageTable {
            index: HashMap::new(),
            pages: Vec::new(),
            last: Cell::new((u64::MAX, 0)),
        }
    }

    /// Number of pages that have been touched by writes.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The page `page_no`, if resident (reads never allocate).
    #[inline]
    #[must_use]
    pub fn page(&self, page_no: u64) -> Option<&P> {
        let (lp, li) = self.last.get();
        if lp == page_no {
            return Some(&self.pages[li as usize]);
        }
        let i = *self.index.get(&page_no)?;
        self.last.set((page_no, i));
        Some(&self.pages[i as usize])
    }

    /// The page `page_no`, allocated (as `P::default()`) on first touch.
    #[inline]
    pub fn page_mut_or_alloc(&mut self, page_no: u64) -> &mut P {
        let (lp, li) = self.last.get();
        if lp == page_no {
            return &mut self.pages[li as usize];
        }
        let next = self.pages.len() as u32;
        let i = *self.index.entry(page_no).or_insert(next);
        if i == next {
            self.pages.push(P::default());
        }
        self.last.set((page_no, i));
        &mut self.pages[i as usize]
    }
}

impl<P: Snapshot> Snapshot for PageTable<P> {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        // Pages in slot order (slot numbering must survive, the index
        // maps into it), then the index as sorted pairs so the encoding
        // is independent of HashMap iteration order. Each page type
        // encodes (and on load validates) its own layout.
        self.pages.save(w)?;
        let mut pairs: Vec<(u64, u32)> = self.index.iter().map(|(&p, &s)| (p, s)).collect();
        pairs.sort_unstable();
        pairs.save(w)
    }
    fn load(r: &mut SnapReader) -> Result<PageTable<P>, SnapError> {
        let pages = Vec::<P>::load(r)?;
        let n_pages = pages.len();
        let pairs = Vec::<(u64, u32)>::load(r)?;
        if pairs.len() != n_pages {
            return Err(SnapError::Corrupt(format!(
                "page index has {} entries for {} pages",
                pairs.len(),
                n_pages
            )));
        }
        let mut index = HashMap::with_capacity(n_pages);
        for (page_no, slot) in pairs {
            if slot as usize >= n_pages || index.insert(page_no, slot).is_some() {
                return Err(SnapError::Corrupt(format!(
                    "page index entry ({page_no}, {slot}) invalid"
                )));
            }
        }
        Ok(PageTable {
            index,
            pages,
            // The one-entry lookup cache is a pure accelerator; restore
            // it to the empty sentinel.
            last: Cell::new((u64::MAX, 0)),
        })
    }
}

/// A 4 KiB page of data bytes, born zero-filled (the page type of
/// [`MemImage`](crate::MemImage)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BytePage(Box<[u8; PAGE_ENTRIES]>);

impl Default for BytePage {
    fn default() -> BytePage {
        BytePage(Box::new([0; PAGE_ENTRIES]))
    }
}

impl Deref for BytePage {
    type Target = [u8; PAGE_ENTRIES];
    fn deref(&self) -> &[u8; PAGE_ENTRIES] {
        &self.0
    }
}

impl DerefMut for BytePage {
    fn deref_mut(&mut self) -> &mut [u8; PAGE_ENTRIES] {
        &mut self.0
    }
}

impl Snapshot for BytePage {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        // Length-prefixed, so a page of another size is refused on load
        // rather than parsed as garbage.
        w.put_u64(PAGE_ENTRIES as u64);
        w.put_bytes(&self.0[..]);
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<BytePage, SnapError> {
        let len = u64::load(r)?;
        if len != PAGE_ENTRIES as u64 {
            return Err(SnapError::Corrupt(format!(
                "data page of {len} bytes (pages hold {PAGE_ENTRIES})"
            )));
        }
        let mut page = BytePage::default();
        page.copy_from_slice(r.take_bytes(PAGE_ENTRIES)?);
        Ok(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_never_allocate_and_writes_do() {
        let mut t: PageTable<BytePage> = PageTable::new();
        assert!(t.page(3).is_none());
        assert_eq!(t.resident_pages(), 0);
        t.page_mut_or_alloc(3)[17] = 99;
        assert_eq!(t.resident_pages(), 1);
        assert_eq!(t.page(3).unwrap()[17], 99);
        assert_eq!(t.page(3).unwrap()[18], 0, "untouched entries read empty");
    }

    #[test]
    fn page_cache_survives_interleaving_and_growth() {
        let mut t: PageTable<BytePage> = PageTable::new();
        for p in 0..32u64 {
            t.page_mut_or_alloc(p)[0] = p as u8;
        }
        for p in (0..32u64).rev() {
            assert_eq!(t.page(p).unwrap()[0], p as u8);
        }
        assert_eq!(t.resident_pages(), 32);
    }

    fn snapshot_bytes<S: Snapshot>(value: &S) -> Vec<u8> {
        let mut w = SnapWriter::new();
        value.save(&mut w).unwrap();
        let mut bytes = Vec::new();
        w.finish(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn line_sized_pages_round_trip_through_a_snapshot() {
        // Any snapshot-able page type rides the table: here a 64-entry
        // line of (u64, u64) pairs.
        let mut t: PageTable<Vec<(u64, u64)>> = PageTable::new();
        for (i, p) in [9u64, 2, 1 << 40, 3].into_iter().enumerate() {
            let page = t.page_mut_or_alloc(p);
            page.resize(64, (0, 0));
            page[i] = (p, i as u64 + 1);
            page[63] = (p, 99);
        }
        let bytes = snapshot_bytes(&t);
        let mut r = SnapReader::new(&mut bytes.as_slice()).unwrap();
        let back = PageTable::<Vec<(u64, u64)>>::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.resident_pages(), 4);
        for (i, p) in [9u64, 2, 1 << 40, 3].into_iter().enumerate() {
            assert_eq!(back.page(p).unwrap()[i], (p, i as u64 + 1));
            assert_eq!(back.page(p).unwrap()[63], (p, 99));
        }
        assert!(back.page(4).is_none());
        assert_eq!(
            snapshot_bytes(&back),
            bytes,
            "save -> load -> save is stable"
        );
    }

    #[test]
    fn a_snapshot_of_another_page_size_is_corrupt() {
        // A 64-byte page has the same length-prefixed encoding as a data
        // page, so only the length tells them apart.
        let mut t: PageTable<Vec<u8>> = PageTable::new();
        t.page_mut_or_alloc(5).resize(64, 1);
        let bytes = snapshot_bytes(&t);
        let mut r = SnapReader::new(&mut bytes.as_slice()).unwrap();
        match PageTable::<BytePage>::load(&mut r) {
            Err(SnapError::Corrupt(detail)) => assert!(detail.contains("64"), "{detail}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
