//! Fundamental value types shared by every crate in the SQIP reproduction.
//!
//! The types here are deliberately small, `Copy` newtypes ([`Pc`], [`Addr`],
//! [`Ssn`], [`DataSize`], ...) that make interfaces self-describing and make
//! it impossible to, say, index a store queue with a program counter.
//!
//! # Example
//!
//! ```
//! use sqip_types::{Addr, DataSize, Ssn};
//!
//! let ssn = Ssn::new(34);
//! assert_eq!(ssn.sq_index(4), 2); // 34 mod 4, as in the paper's Figure 3
//!
//! let a = Addr::new(0x1000);
//! assert!(a.span(DataSize::Word).overlaps(a.span(DataSize::Byte)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod pc;
mod size;
mod ssn;

pub use addr::{Addr, AddrSpan};
pub use pc::Pc;
pub use size::DataSize;
pub use ssn::Ssn;

/// A monotonically increasing identifier for a dynamic instruction.
///
/// Sequence numbers are assigned in fetch order and never recycled within a
/// simulation, which makes age comparisons between any two in-flight
/// instructions a plain integer comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Seq(pub u64);

impl Seq {
    /// First sequence number handed out by a fresh simulation.
    pub const ZERO: Seq = Seq(0);

    /// The sequence number that follows this one in fetch order.
    #[must_use]
    pub fn next(self) -> Seq {
        Seq(self.0 + 1)
    }

    /// Whether `self` is older (fetched earlier) than `other`.
    #[must_use]
    pub fn is_older_than(self, other: Seq) -> bool {
        self.0 < other.0
    }
}

impl std::fmt::Display for Seq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_ordering_is_fetch_order() {
        let a = Seq(3);
        let b = a.next();
        assert!(a.is_older_than(b));
        assert!(!b.is_older_than(a));
        assert!(!a.is_older_than(a));
        assert_eq!(b, Seq(4));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Seq(7).to_string(), "#7");
    }
}
