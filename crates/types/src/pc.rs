//! Program counters.

/// A static instruction address.
///
/// Predictor tables in the paper are PC-indexed and store *partial* PCs
/// (1 byte in the paper's cost accounting); [`Pc::partial`] exposes that
/// truncation so the tables can model aliasing faithfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(pub u64);

impl Pc {
    /// Creates a PC.
    #[must_use]
    pub fn new(raw: u64) -> Pc {
        Pc(raw)
    }

    /// The PC of the sequentially next instruction (4-byte fixed encoding,
    /// matching the Alpha ISA the paper simulates). Wraps at the top of
    /// the address space, so any PC a trace file names has a successor.
    #[must_use]
    pub fn next(self) -> Pc {
        Pc(self.0.wrapping_add(4))
    }

    /// The instruction index for a PC within a program whose first
    /// instruction sits at address 0.
    #[must_use]
    pub fn index(self) -> usize {
        (self.0 / 4) as usize
    }

    /// Builds the PC of the instruction with the given index.
    #[must_use]
    pub fn from_index(index: usize) -> Pc {
        Pc(index as u64 * 4)
    }

    /// A table index derived from the PC for a power-of-two table.
    ///
    /// Uses the word-aligned bits (PC >> 2), as real PC-indexed predictor
    /// tables do.
    #[must_use]
    pub fn table_index(self, table_size: usize) -> usize {
        debug_assert!(table_size.is_power_of_two());
        ((self.0 >> 2) as usize) & (table_size - 1)
    }

    /// A partial tag of `bits` bits taken above the index bits of a table of
    /// `table_size` entries.
    #[must_use]
    pub fn partial_tag(self, table_size: usize, bits: u32) -> u64 {
        let shifted = (self.0 >> 2) >> table_size.trailing_zeros();
        shifted & ((1u64 << bits) - 1)
    }

    /// The low `bits` bits of the word-aligned PC — the "partial store PC"
    /// representation used by FSP entries and the SPCT.
    #[must_use]
    pub fn partial(self, bits: u32) -> u64 {
        (self.0 >> 2) & ((1u64 << bits) - 1)
    }
}

impl std::fmt::Display for Pc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pc:0x{:x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_and_index_round_trip() {
        let p = Pc::from_index(10);
        assert_eq!(p, Pc(40));
        assert_eq!(p.index(), 10);
        assert_eq!(p.next().index(), 11);
    }

    #[test]
    fn next_wraps_at_the_top_of_the_address_space() {
        assert_eq!(Pc(u64::MAX - 3).next(), Pc(0));
        assert_eq!(Pc(u64::MAX).next(), Pc(3));
    }

    #[test]
    fn table_index_uses_word_bits() {
        // PCs 4 apart should hit adjacent table sets.
        let a = Pc::new(0x1000);
        let b = Pc::new(0x1004);
        assert_eq!(b.table_index(256), (a.table_index(256) + 1) % 256);
    }

    #[test]
    fn partial_tag_differs_for_aliasing_pcs() {
        let size = 16usize;
        let a = Pc::from_index(5);
        let b = Pc::from_index(5 + size); // same index, different tag
        assert_eq!(a.table_index(size), b.table_index(size));
        assert_ne!(a.partial_tag(size, 8), b.partial_tag(size, 8));
    }

    #[test]
    fn partial_pc_truncates() {
        let a = Pc::from_index(3);
        let b = Pc::from_index(3 + 256); // aliases in an 8-bit partial PC
        assert_eq!(a.partial(8), b.partial(8));
        assert_ne!(a.partial(16), b.partial(16));
    }
}
