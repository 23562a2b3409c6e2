//! A sparse, byte-addressable memory image.

use sqip_types::{Addr, DataSize};

use crate::pagetable::{BytePage, PageTable, PAGE_ENTRIES};

const PAGE_BYTES: usize = PAGE_ENTRIES;

/// A sparse 64-bit byte-addressable memory, allocated in 4KB pages on first
/// touch. Unwritten bytes read as zero, like a fresh zero-filled process
/// image.
///
/// Two images are kept by the timing simulator: the functional executor's
/// architectural image and the commit-time image that backs the data cache,
/// so that a load that wrongly skips forwarding really does observe the
/// stale committed value.
///
/// The image sits on the simulator's per-load and per-store hot path, so
/// it rides on [`PageTable`]: an access resolves its page **once per
/// span** (not per byte), with the table's one-entry page cache
/// short-circuiting the hash lookup for repeated traffic to one page.
#[derive(Debug, Clone)]
pub struct MemImage {
    pages: PageTable<BytePage>,
}

impl Default for MemImage {
    fn default() -> MemImage {
        MemImage::new()
    }
}

impl MemImage {
    /// Creates an empty (all-zero) image.
    #[must_use]
    pub fn new() -> MemImage {
        MemImage {
            pages: PageTable::new(),
        }
    }

    /// Number of 4KB pages that have been touched.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.resident_pages()
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_byte(&self, addr: Addr) -> u8 {
        let (page, off) = split(addr);
        self.pages.page(page).map_or(0, |p| p[off])
    }

    /// Writes one byte, allocating the page if needed.
    pub fn write_byte(&mut self, addr: Addr, value: u8) {
        let (page, off) = split(addr);
        self.pages.page_mut_or_alloc(page)[off] = value;
    }

    /// Reads a little-endian value of the given size.
    #[must_use]
    pub fn read(&self, addr: Addr, size: DataSize) -> u64 {
        let (page, off) = split(addr);
        let n = size.bytes() as usize;
        if off + n <= PAGE_BYTES {
            // Fast path: the span lives in one page, resolved once.
            let Some(p) = self.pages.page(page) else {
                return 0;
            };
            let mut v: u64 = 0;
            for (k, &b) in p[off..off + n].iter().enumerate() {
                v |= u64::from(b) << (8 * k);
            }
            v
        } else {
            // Page-straddling access: byte-wise fallback.
            let mut v: u64 = 0;
            for (k, byte_addr) in addr.span(size).byte_addrs().enumerate() {
                v |= u64::from(self.read_byte(byte_addr)) << (8 * k);
            }
            v
        }
    }

    /// Writes a little-endian value of the given size (truncating `value`
    /// to the access width, as store datapaths do).
    pub fn write(&mut self, addr: Addr, size: DataSize, value: u64) {
        let (page, off) = split(addr);
        let n = size.bytes() as usize;
        if off + n <= PAGE_BYTES {
            let p = self.pages.page_mut_or_alloc(page);
            for (k, b) in p[off..off + n].iter_mut().enumerate() {
                *b = (value >> (8 * k)) as u8;
            }
        } else {
            for (k, byte_addr) in addr.span(size).byte_addrs().enumerate() {
                self.write_byte(byte_addr, (value >> (8 * k)) as u8);
            }
        }
    }
}

fn split(addr: Addr) -> (u64, usize) {
    (
        addr.0 / PAGE_BYTES as u64,
        (addr.0 % PAGE_BYTES as u64) as usize,
    )
}

sqip_snapshot::snapshot_struct!(MemImage { pages });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = MemImage::new();
        assert_eq!(m.read(Addr::new(0x7fff_0000), DataSize::Quad), 0);
        assert_eq!(m.resident_pages(), 0, "reads do not allocate");
    }

    #[test]
    fn read_back_each_size() {
        let mut m = MemImage::new();
        for (i, size) in DataSize::ALL.iter().enumerate() {
            let a = Addr::new(0x100 + 16 * i as u64);
            m.write(a, *size, 0x1122_3344_5566_7788);
            assert_eq!(m.read(a, *size), size.truncate(0x1122_3344_5566_7788));
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = MemImage::new();
        m.write(Addr::new(0x10), DataSize::Word, 0xA1B2_C3D4);
        assert_eq!(m.read_byte(Addr::new(0x10)), 0xD4);
        assert_eq!(m.read_byte(Addr::new(0x13)), 0xA1);
        assert_eq!(m.read(Addr::new(0x12), DataSize::Half), 0xA1B2);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MemImage::new();
        let a = Addr::new(PAGE_BYTES as u64 - 4); // quad straddles page 0 / page 1
        m.write(a, DataSize::Quad, 0x0102_0304_0506_0708);
        assert_eq!(m.read(a, DataSize::Quad), 0x0102_0304_0506_0708);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn narrow_write_leaves_neighbours() {
        let mut m = MemImage::new();
        m.write(Addr::new(0x20), DataSize::Quad, u64::MAX);
        m.write(Addr::new(0x22), DataSize::Byte, 0);
        assert_eq!(
            m.read(Addr::new(0x20), DataSize::Quad),
            0xFFFF_FFFF_FF00_FFFF
        );
    }

    #[test]
    fn clone_is_deep() {
        let mut m = MemImage::new();
        m.write(Addr::new(0x30), DataSize::Word, 7);
        let snapshot = m.clone();
        m.write(Addr::new(0x30), DataSize::Word, 9);
        assert_eq!(snapshot.read(Addr::new(0x30), DataSize::Word), 7);
    }

    #[test]
    fn page_cache_tracks_interleaved_pages() {
        // Alternating traffic to two pages exercises the one-entry cache's
        // replacement; values must stay exact.
        let mut m = MemImage::new();
        let a = Addr::new(0x1000);
        let b = Addr::new(0x9000);
        m.write(a, DataSize::Quad, 0xAAAA);
        m.write(b, DataSize::Quad, 0xBBBB);
        for _ in 0..4 {
            assert_eq!(m.read(a, DataSize::Quad), 0xAAAA);
            assert_eq!(m.read(b, DataSize::Quad), 0xBBBB);
        }
        assert_eq!(m.resident_pages(), 2);
    }
}
