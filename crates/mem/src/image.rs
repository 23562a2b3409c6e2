//! A sparse, byte-addressable memory image.

use sqip_snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use sqip_types::{Addr, DataSize};

use crate::linestore::{line_parts, LineStore, LINE_BYTES};

/// A sparse 64-bit byte-addressable memory, allocated one 64-B line at a
/// time on first write. Unwritten bytes read as zero, like a fresh
/// zero-filled process image.
///
/// Two images are kept by the timing simulator: the functional executor's
/// architectural image and the commit-time image that backs the data cache,
/// so that a load that wrongly skips forwarding really does observe the
/// stale committed value.
///
/// The image sits on the simulator's per-load and per-store hot path, so
/// it rides on [`LineStore`]: an access splits into its one or two line
/// parts ([`line_parts`]) and resolves each line directly, with the
/// store's small frame cache short-circuiting the hash lookup for traffic
/// among a few 4 KiB frames. A touched frame costs 256 B of line slots
/// and a touched line 64 B.
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    lines: LineStore<DataLine>,
}

/// One 64-B line of data bytes, born zero-filled.
#[derive(Debug, Clone, Copy)]
struct DataLine([u8; LINE_BYTES]);

impl Default for DataLine {
    fn default() -> DataLine {
        DataLine([0; LINE_BYTES])
    }
}

impl Snapshot for DataLine {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.put_bytes(&self.0);
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<DataLine, SnapError> {
        let mut line = DataLine::default();
        line.0.copy_from_slice(r.take_bytes(LINE_BYTES)?);
        Ok(line)
    }
}

impl MemImage {
    /// Creates an empty (all-zero) image.
    #[must_use]
    pub fn new() -> MemImage {
        MemImage::default()
    }

    /// Number of 64-B lines that have been written.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.lines.resident_lines()
    }

    /// Number of 4 KiB frames that hold a written line.
    #[must_use]
    pub fn resident_frames(&self) -> usize {
        self.lines.resident_frames()
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_byte(&self, addr: Addr) -> u8 {
        self.read(addr, DataSize::Byte) as u8
    }

    /// Writes one byte, allocating its line if needed.
    pub fn write_byte(&mut self, addr: Addr, value: u8) {
        self.write(addr, DataSize::Byte, u64::from(value));
    }

    /// Reads a little-endian value of the given size.
    #[must_use]
    pub fn read(&self, addr: Addr, size: DataSize) -> u64 {
        let mut value = [0u8; 8];
        let mut k = 0;
        for (line, bytes) in line_parts(addr.0, size.bytes() as usize) {
            let n = bytes.len();
            if let Some(line) = self.lines.line(line) {
                value[k..k + n].copy_from_slice(&line.0[bytes]);
            }
            k += n;
        }
        u64::from_le_bytes(value)
    }

    /// Writes a little-endian value of the given size (truncating `value`
    /// to the access width, as store datapaths do).
    pub fn write(&mut self, addr: Addr, size: DataSize, value: u64) {
        let value = value.to_le_bytes();
        let mut k = 0;
        for (line, bytes) in line_parts(addr.0, size.bytes() as usize) {
            let n = bytes.len();
            self.lines.line_mut_or_alloc(line).0[bytes].copy_from_slice(&value[k..k + n]);
            k += n;
        }
    }
}

sqip_snapshot::snapshot_struct!(MemImage { lines });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = MemImage::new();
        assert_eq!(m.read(Addr::new(0x7fff_0000), DataSize::Quad), 0);
        assert_eq!(m.resident_lines(), 0, "reads do not allocate");
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
        let a = Addr::new(4096 - 4); // quad straddles frame 0 / frame 1
        m.write(a, DataSize::Quad, 0x0102_0304_0506_0708);
        assert_eq!(m.read(a, DataSize::Quad), 0x0102_0304_0506_0708);
        assert_eq!(m.read_byte(Addr::new(4096)), 0x04);
        assert_eq!((m.resident_lines(), m.resident_frames()), (2, 2));
    }

    #[test]
    fn cross_line_access_stays_in_one_frame() {
        let mut m = MemImage::new();
        let a = Addr::new(0x13e); // word straddles lines 4 / 5
        m.write(a, DataSize::Word, 0xA1B2_C3D4);
        assert_eq!(m.read(a, DataSize::Word), 0xA1B2_C3D4);
        assert_eq!(m.read(Addr::new(0x140), DataSize::Half), 0xA1B2);
        assert_eq!((m.resident_lines(), m.resident_frames()), (2, 1));
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
        // Alternating traffic to two frames exercises the frame cache;
        // values must stay exact.
        let mut m = MemImage::new();
        let a = Addr::new(0x1000);
        let b = Addr::new(0x9000);
        m.write(a, DataSize::Quad, 0xAAAA);
        m.write(b, DataSize::Quad, 0xBBBB);
        for _ in 0..4 {
            assert_eq!(m.read(a, DataSize::Quad), 0xAAAA);
            assert_eq!(m.read(b, DataSize::Quad), 0xBBBB);
        }
        assert_eq!((m.resident_lines(), m.resident_frames()), (2, 2));
    }
}
