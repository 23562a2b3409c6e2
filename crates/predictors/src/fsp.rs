//! The Forwarding Store Predictor (FSP), §3.2.

use sqip_types::Pc;

use crate::counter::SatCounter;
use crate::TrainRatio;

use serde::{Deserialize, Serialize};

/// FSP geometry and training parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FspConfig {
    /// Total entries (the paper's default is 4K; Figure 5 sweeps 512–8K).
    pub entries: usize,
    /// Set associativity (default 2; Figure 5 sweeps 1–32). This bounds how
    /// many static store dependences one load can represent.
    pub ways: usize,
    /// Partial tag width in bits (the paper budgets 1 byte).
    pub tag_bits: u32,
    /// Partial store-PC width in bits (1 byte; also the SAT index width).
    pub store_pc_bits: u32,
    /// Positive:negative training weights (default 8:1).
    pub ratio: TrainRatio,
    /// Counter prediction threshold (counter max is 15, 4 bits).
    pub threshold: u8,
    /// Path-history bits XORed into the set index (0 disables). This is
    /// the paper's §6 future-work suggestion: "path-based information
    /// might increase both forwarding prediction and delay prediction
    /// accuracy" — it lets one static load whose producer depends on the
    /// control path (e.g. stores selected by branches) occupy a different
    /// set per path instead of thrashing one set.
    pub path_bits: u32,
}

impl Default for FspConfig {
    fn default() -> FspConfig {
        FspConfig {
            entries: 4096,
            ways: 2,
            tag_bits: 8,
            store_pc_bits: 8,
            ratio: TrainRatio::new(8, 1),
            threshold: 8,
            path_bits: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct FspEntry {
    valid: bool,
    tag: u64,
    store_pc: u64,
    counter: SatCounter,
    lru: u64,
}

/// The PC-indexed, set-associative table mapping each load PC to the store
/// PCs it recently forwarded from.
///
/// Entries hold *partial* store PCs (default 8 bits), which double as SAT
/// indices; partial tags model the aliasing a real 10KB structure has.
///
/// # Example
///
/// ```
/// use sqip_predictors::Fsp;
/// use sqip_types::Pc;
///
/// let mut fsp = Fsp::default();
/// let (ld, st) = (Pc::new(0x100), Pc::new(0x40));
/// fsp.learn(ld, fsp.partial_store_pc(st), 0);
/// assert_eq!(fsp.predict(ld, 0), vec![fsp.partial_store_pc(st)]);
/// ```
#[derive(Debug, Clone)]
pub struct Fsp {
    config: FspConfig,
    sets: Vec<FspEntry>,
    tick: u64,
}

impl Default for Fsp {
    fn default() -> Fsp {
        Fsp::new(FspConfig::default())
    }
}

impl Fsp {
    /// Builds an FSP.
    ///
    /// # Panics
    ///
    /// Panics if geometry is degenerate (entries not divisible into a
    /// power-of-two set count, or zero ways).
    #[must_use]
    pub fn new(config: FspConfig) -> Fsp {
        assert!(config.ways > 0, "FSP must have at least one way");
        let sets = config.entries / config.ways;
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "FSP set count must be a power of two (got {sets})"
        );
        let empty = FspEntry {
            valid: false,
            tag: 0,
            store_pc: 0,
            counter: SatCounter::four_bit(config.threshold),
            lru: 0,
        };
        Fsp {
            config,
            sets: vec![empty; config.entries],
            tick: 0,
        }
    }

    /// The configured parameters.
    #[must_use]
    pub fn config(&self) -> FspConfig {
        self.config
    }

    /// The partial store-PC representation used inside the table and as the
    /// SAT index.
    #[must_use]
    pub fn partial_store_pc(&self, store_pc: Pc) -> u64 {
        store_pc.partial(self.config.store_pc_bits)
    }

    /// All confident store (partial) PCs for this load on `path`, in no
    /// particular order. At most `ways` results.
    ///
    /// Every method takes the load's path history; its low
    /// [`FspConfig::path_bits`] select the set, so a dependence is only
    /// found on the path it was trained on. With `path_bits == 0` the
    /// path is ignored.
    #[must_use]
    pub fn predict(&self, load_pc: Pc, path: u64) -> Vec<u64> {
        let (base, tag) = self.slice(load_pc, path);
        self.sets[base..base + self.config.ways]
            .iter()
            .filter(|e| e.valid && e.tag == tag && e.counter.predicts())
            .map(|e| e.store_pc)
            .collect()
    }

    /// Inserts (or re-saturates) the dependence `load_pc → store partial
    /// PC`. Called when a mis-forwarding flush reveals a dependence the
    /// table did not represent. The victim is the invalid way, else the way
    /// with a zero counter, else the LRU way.
    pub fn learn(&mut self, load_pc: Pc, store_partial_pc: u64, path: u64) {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.config.ways;
        let (base, tag) = self.slice(load_pc, path);
        let set = &mut self.sets[base..base + ways];

        if let Some(e) = set
            .iter_mut()
            .find(|e| e.valid && e.tag == tag && e.store_pc == store_partial_pc)
        {
            e.counter.saturate();
            e.lru = tick;
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|e| (e.valid, !e.counter.is_zero(), e.lru))
            .expect("at least one way");
        victim.valid = true;
        victim.tag = tag;
        victim.store_pc = store_partial_pc;
        victim.counter = SatCounter::four_bit(self.config.threshold);
        victim.counter.saturate();
        victim.lru = tick;
    }

    /// Reinforces an existing dependence (correct forwarding at commit).
    /// Does nothing if the entry is not present or the ratio is 0:1.
    pub fn strengthen(&mut self, load_pc: Pc, store_partial_pc: u64, path: u64) {
        self.tick += 1;
        let tick = self.tick;
        let positive = self.config.ratio.positive;
        if let Some(e) = self.entry_mut(load_pc, store_partial_pc, path) {
            e.counter.strengthen(positive);
            e.lru = tick;
        }
    }

    /// Weakens a dependence (the load and the store turned out to be too
    /// far apart for forwarding, or the prediction named the right PC but
    /// the wrong dynamic instance).
    pub fn weaken(&mut self, load_pc: Pc, store_partial_pc: u64, path: u64) {
        let negative = self.config.ratio.negative;
        if let Some(e) = self.entry_mut(load_pc, store_partial_pc, path) {
            e.counter.weaken(negative);
        }
    }

    /// Clears the whole table (SSN wrap-around drain).
    pub fn clear(&mut self) {
        for e in &mut self.sets {
            e.valid = false;
            e.counter.clear();
        }
    }

    /// Number of valid entries (diagnostics).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.sets.iter().filter(|e| e.valid).count()
    }

    fn slice(&self, pc: Pc, path: u64) -> (usize, u64) {
        let sets = self.config.entries / self.config.ways;
        let path_mask = if self.config.path_bits == 0 {
            0
        } else {
            (1u64 << self.config.path_bits.min(63)) - 1
        };
        let set = (pc.table_index(sets) ^ (path & path_mask) as usize) & (sets - 1);
        (
            set * self.config.ways,
            pc.partial_tag(sets, self.config.tag_bits),
        )
    }

    fn entry_mut(
        &mut self,
        load_pc: Pc,
        store_partial_pc: u64,
        path: u64,
    ) -> Option<&mut FspEntry> {
        let ways = self.config.ways;
        let (base, tag) = self.slice(load_pc, path);
        self.sets[base..base + ways]
            .iter_mut()
            .find(|e| e.valid && e.tag == tag && e.store_pc == store_partial_pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fsp {
        Fsp::new(FspConfig {
            entries: 32,
            ways: 2,
            ..FspConfig::default()
        })
    }

    #[test]
    fn empty_table_predicts_nothing() {
        let fsp = Fsp::default();
        assert!(fsp.predict(Pc::new(0x40), 0).is_empty());
        assert_eq!(fsp.occupancy(), 0);
    }

    #[test]
    fn learn_then_predict() {
        let mut fsp = small();
        let ld = Pc::new(0x100);
        fsp.learn(ld, 0x17, 0);
        assert_eq!(fsp.predict(ld, 0), vec![0x17]);
        assert_eq!(fsp.occupancy(), 1);
    }

    #[test]
    fn associativity_bounds_dependences() {
        let mut fsp = small();
        let ld = Pc::new(0x100);
        fsp.learn(ld, 1, 0);
        fsp.learn(ld, 2, 0);
        fsp.learn(ld, 3, 0); // evicts one of the first two
        let preds = fsp.predict(ld, 0);
        assert_eq!(preds.len(), 2, "2-way FSP represents at most 2 stores");
        assert!(preds.contains(&3), "newly learned dependence is present");
    }

    #[test]
    fn negative_training_unlearns_slowly() {
        let mut fsp = small();
        let ld = Pc::new(0x100);
        fsp.learn(ld, 9, 0); // counter = 15
        for _ in 0..7 {
            fsp.weaken(ld, 9, 0);
        }
        assert_eq!(fsp.predict(ld, 0), vec![9], "still above threshold at 8");
        fsp.weaken(ld, 9, 0);
        assert!(fsp.predict(ld, 0).is_empty(), "crossed below threshold");
    }

    #[test]
    fn strengthen_recovers_confidence() {
        let mut fsp = small();
        let ld = Pc::new(0x100);
        fsp.learn(ld, 9, 0);
        for _ in 0..8 {
            fsp.weaken(ld, 9, 0);
        }
        assert!(fsp.predict(ld, 0).is_empty());
        fsp.strengthen(ld, 9, 0); // +8 with the default ratio
        assert_eq!(fsp.predict(ld, 0), vec![9]);
    }

    #[test]
    fn strengthen_of_absent_entry_is_noop() {
        let mut fsp = small();
        fsp.strengthen(Pc::new(0x100), 5, 0);
        assert_eq!(fsp.occupancy(), 0);
    }

    #[test]
    fn tag_mismatch_is_a_miss() {
        let mut fsp = small();
        let sets = 16; // 32 entries / 2 ways
        let ld_a = Pc::from_index(3);
        let ld_b = Pc::from_index(3 + sets); // same set, different tag
        fsp.learn(ld_a, 0x11, 0);
        assert!(fsp.predict(ld_b, 0).is_empty());
    }

    #[test]
    fn aliasing_loads_share_entries() {
        let mut fsp = small();
        let sets = 16;
        let tag_space = 256usize; // 8-bit tags
        let ld_a = Pc::from_index(3);
        let ld_alias = Pc::from_index(3 + sets * tag_space); // same set AND tag
        fsp.learn(ld_a, 0x11, 0);
        assert_eq!(fsp.predict(ld_alias, 0), vec![0x11], "partial tags alias");
    }

    #[test]
    fn clear_empties_table() {
        let mut fsp = small();
        fsp.learn(Pc::new(0x100), 1, 0);
        fsp.clear();
        assert_eq!(fsp.occupancy(), 0);
        assert!(fsp.predict(Pc::new(0x100), 0).is_empty());
    }

    #[test]
    fn direct_mapped_works() {
        let mut fsp = Fsp::new(FspConfig {
            entries: 16,
            ways: 1,
            ..FspConfig::default()
        });
        let ld = Pc::new(0x100);
        fsp.learn(ld, 1, 0);
        fsp.learn(ld, 2, 0);
        assert_eq!(fsp.predict(ld, 0), vec![2], "direct-mapped holds one store");
    }

    #[test]
    fn partial_store_pc_width() {
        let fsp = Fsp::default();
        let a = Pc::from_index(7);
        let b = Pc::from_index(7 + 256);
        assert_eq!(
            fsp.partial_store_pc(a),
            fsp.partial_store_pc(b),
            "8-bit partial PCs alias"
        );
    }
}

sqip_snapshot::snapshot_struct!(FspConfig {
    entries,
    ways,
    tag_bits,
    store_pc_bits,
    ratio,
    threshold,
    path_bits,
});
sqip_snapshot::snapshot_struct!(FspEntry {
    valid,
    tag,
    store_pc,
    counter,
    lru,
});
sqip_snapshot::snapshot_struct!(Fsp { config, sets, tick });
