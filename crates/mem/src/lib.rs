//! Memory substrate for the SQIP reproduction: a sparse byte-addressable
//! memory image, set-associative cache models, a TLB model, and the
//! two-level hierarchy used by the paper's processor configuration
//! (64KB 2-way 3-cycle L1D, 1MB 8-way 10-cycle L2, 150-cycle memory).
//!
//! Sparse memory state lives in a [`LineStore`]: 64-B lines found
//! through a hash index of 4 KiB frames. It backs the [`MemImage`] and
//! the simulator's dependence oracle, and it costs 256 B of line slots
//! per touched frame plus one line per touched line (64 B of data in a
//! memory image), never a whole page.
//!
//! The cache models are *timing* models: they track tags and replacement
//! state and answer "how many cycles does this access take", while actual
//! data lives in the flat [`MemImage`]. This mirrors how trace-driven
//! simulators of the paper's era were built and keeps data correctness
//! questions (the whole point of store-load forwarding) in one place.
//!
//! # Example
//!
//! ```
//! use sqip_mem::{Hierarchy, HierarchyConfig, MemImage};
//! use sqip_types::{Addr, DataSize};
//!
//! let mut mem = MemImage::new();
//! mem.write(Addr::new(0x1000), DataSize::Quad, 0xdead_beef);
//! assert_eq!(mem.read(Addr::new(0x1000), DataSize::Quad), 0xdead_beef);
//!
//! let mut hier = Hierarchy::new(HierarchyConfig::default());
//! let cold = hier.access(Addr::new(0x1000));
//! let warm = hier.access(Addr::new(0x1000));
//! assert!(cold.total_latency() > warm.total_latency());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod image;
mod linestore;
mod tlb;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{AccessOutcome, Hierarchy, HierarchyConfig, MemLevel};
pub use image::MemImage;
pub use linestore::{line_parts, LineStore, FRAME_BYTES, LINE_BYTES};
pub use tlb::{Tlb, TlbConfig};
