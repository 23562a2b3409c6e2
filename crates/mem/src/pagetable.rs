//! A generic sparse page table with a one-entry page cache — the shared
//! mechanism behind [`MemImage`](crate::MemImage) and the simulator's
//! streaming dependence oracle.

use std::cell::Cell;
use std::collections::HashMap;

use sqip_snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Default entries per page (4KB pages for byte-granular tables).
pub const PAGE_ENTRIES: usize = 4096;

/// A sparse array of `T` organised as `N`-entry pages allocated on first
/// write (`N` defaults to [`PAGE_ENTRIES`]).
///
/// The page size is the table's unit of allocation, so it should match
/// how densely the table is written. [`MemImage`](crate::MemImage) keeps
/// the default 4096-entry pages: its entries are the data bytes
/// themselves. The dependence oracle stores 16 B per byte of memory and
/// its stores scatter across lines, so it uses 64-entry pages (one cache
/// line per 1 KiB page) rather than paying 64 KiB for the first store
/// into each 4 KiB of memory.
///
/// Two properties make it fit the simulator's per-memory-access hot
/// path:
///
/// * callers resolve a page **once per span** (via [`PageTable::page`] /
///   [`PageTable::page_mut_or_alloc`]) and then index the returned
///   array directly, instead of paying a map lookup per entry;
/// * a one-entry most-recently-resolved cache short-circuits the hash
///   lookup for the common case of repeated traffic to one page. Pages
///   are never deallocated, so the cached slot stays valid for the
///   table's lifetime. (`u64::MAX` is not a reachable page number —
///   page numbers are addresses divided by the page size — so it
///   doubles as the empty sentinel.)
#[derive(Debug, Clone)]
pub struct PageTable<T, const N: usize = PAGE_ENTRIES> {
    /// The value unwritten entries read as (pages are born filled with
    /// it).
    empty: T,
    /// Page number -> slot in `pages`.
    index: HashMap<u64, u32>,
    pages: Vec<Box<[T; N]>>,
    /// Most recently resolved (page number, slot).
    last: Cell<(u64, u32)>,
}

impl<T: Copy, const N: usize> PageTable<T, N> {
    /// An empty table whose entries read as `empty`.
    pub fn new(empty: T) -> PageTable<T, N> {
        PageTable {
            empty,
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
    pub fn page(&self, page_no: u64) -> Option<&[T; N]> {
        let (lp, li) = self.last.get();
        if lp == page_no {
            return Some(&self.pages[li as usize]);
        }
        let i = *self.index.get(&page_no)?;
        self.last.set((page_no, i));
        Some(&self.pages[i as usize])
    }

    /// The page `page_no`, allocated (filled with the empty value) on
    /// first touch.
    #[inline]
    pub fn page_mut_or_alloc(&mut self, page_no: u64) -> &mut [T; N] {
        let (lp, li) = self.last.get();
        if lp == page_no {
            return &mut self.pages[li as usize];
        }
        let next = self.pages.len() as u32;
        let i = *self.index.entry(page_no).or_insert(next);
        if i == next {
            self.pages.push(Box::new([self.empty; N]));
        }
        self.last.set((page_no, i));
        &mut self.pages[i as usize]
    }
}

impl<T: Snapshot + Copy, const N: usize> Snapshot for PageTable<T, N> {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.empty.save(w)?;
        // The page geometry comes first: a table of another page size
        // would otherwise parse as garbage.
        w.put_u64(N as u64);
        // Pages in slot order (slot numbering must survive, the index
        // maps into it), then the index as sorted pairs so the encoding
        // is independent of HashMap iteration order.
        w.put_u64(self.pages.len() as u64);
        for page in &self.pages {
            for entry in page.iter() {
                entry.save(w)?;
            }
        }
        let mut pairs: Vec<(u64, u32)> = self.index.iter().map(|(&p, &s)| (p, s)).collect();
        pairs.sort_unstable();
        pairs.save(w)
    }
    fn load(r: &mut SnapReader) -> Result<PageTable<T, N>, SnapError> {
        let empty = T::load(r)?;
        let entries = u64::load(r)?;
        if entries != N as u64 {
            return Err(SnapError::Corrupt(format!(
                "page table of {entries} entries per page (this table has {N})"
            )));
        }
        let n_pages = usize::load(r)?;
        let mut pages = Vec::with_capacity(n_pages.min(64));
        for _ in 0..n_pages {
            let mut page = Vec::with_capacity(N);
            for _ in 0..N {
                page.push(T::load(r)?);
            }
            let boxed: Box<[T; N]> = page
                .into_boxed_slice()
                .try_into()
                .map_err(|_| SnapError::Corrupt("page size mismatch".into()))?;
            pages.push(boxed);
        }
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
            empty,
            index,
            pages,
            // The one-entry lookup cache is a pure accelerator; restore
            // it to the empty sentinel.
            last: Cell::new((u64::MAX, 0)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_never_allocate_and_writes_do() {
        let mut t: PageTable<u32> = PageTable::new(7);
        assert!(t.page(3).is_none());
        assert_eq!(t.resident_pages(), 0);
        t.page_mut_or_alloc(3)[17] = 99;
        assert_eq!(t.resident_pages(), 1);
        assert_eq!(t.page(3).unwrap()[17], 99);
        assert_eq!(t.page(3).unwrap()[18], 7, "untouched entries read empty");
    }

    #[test]
    fn page_cache_survives_interleaving_and_growth() {
        let mut t: PageTable<u8> = PageTable::new(0);
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
        let mut t: PageTable<(u64, u64), 64> = PageTable::new((0, 0));
        for (i, p) in [9u64, 2, 1 << 40, 3].into_iter().enumerate() {
            let page = t.page_mut_or_alloc(p);
            page[i] = (p, i as u64 + 1);
            page[63] = (p, 99);
        }
        let bytes = snapshot_bytes(&t);
        let mut r = SnapReader::new(&mut bytes.as_slice()).unwrap();
        let back = PageTable::<(u64, u64), 64>::load(&mut r).unwrap();
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
        let mut t: PageTable<u8, 64> = PageTable::new(0);
        t.page_mut_or_alloc(5)[1] = 1;
        let bytes = snapshot_bytes(&t);
        let mut r = SnapReader::new(&mut bytes.as_slice()).unwrap();
        match PageTable::<u8>::load(&mut r) {
            Err(SnapError::Corrupt(detail)) => assert!(detail.contains("64"), "{detail}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
