//! Property-based tests for the prediction structures.

use proptest::prelude::*;
use sqip_predictors::{Sat, Ssbf};
use sqip_types::{Addr, DataSize, Pc, Seq, Ssn};

proptest! {
    /// Rolling the SAT back to a squash point must yield exactly the state
    /// produced by replaying only the older writes.
    #[test]
    fn sat_rollback_equals_replay_of_older_writes(
        writes in proptest::collection::vec((0u64..32, 1u64..1000), 1..40),
        squash_sel in any::<proptest::sample::Index>(),
    ) {
        let squash = squash_sel.index(writes.len());
        let mut sat = Sat::new(32);
        for (seq, &(pc, ssn)) in writes.iter().enumerate() {
            sat.update(pc, Ssn::new(ssn), Seq(seq as u64));
        }
        sat.rollback_younger(Seq(squash as u64));

        let mut reference = Sat::new(32);
        for (seq, &(pc, ssn)) in writes.iter().take(squash).enumerate() {
            reference.update(pc, Ssn::new(ssn), Seq(seq as u64));
        }
        for pc in 0..32u64 {
            prop_assert_eq!(sat.lookup(pc), reference.lookup(pc), "pc {}", pc);
        }
    }

    /// The SSBF is a conservative filter: for the true last writer of any
    /// byte, the filter's answer is never older than that writer.
    #[test]
    fn ssbf_never_understates(
        stores in proptest::collection::vec((0u64..512, 0usize..4), 1..60),
        probe in 0u64..512,
    ) {
        let sizes = [DataSize::Byte, DataSize::Half, DataSize::Word, DataSize::Quad];
        let mut ssbf = Ssbf::new(256);
        let mut true_last: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (i, &(addr, szi)) in stores.iter().enumerate() {
            let ssn = i as u64 + 1;
            let span = Addr::new(addr).span(sizes[szi]);
            ssbf.update(span, Ssn::new(ssn));
            for b in span.byte_addrs() {
                true_last.insert(b.0, ssn);
            }
        }
        let got = ssbf.newest(Addr::new(probe).span(DataSize::Byte));
        let truth = true_last.get(&probe).copied().unwrap_or(0);
        prop_assert!(got.0 >= truth, "filter {} vs truth {}", got.0, truth);
    }

    /// SAT lookups only depend on the low index bits of the partial PC.
    #[test]
    fn sat_indexing_is_modular(pc in 0u64..4096, ssn in 1u64..1000) {
        let mut sat = Sat::new(256);
        sat.update(pc, Ssn::new(ssn), Seq(0));
        prop_assert_eq!(sat.lookup(pc % 256), Ssn::new(ssn));
    }

    /// An FSP never predicts more stores than its associativity.
    #[test]
    fn fsp_prediction_bounded_by_ways(
        deps in proptest::collection::vec((0u64..64, 0u64..256), 1..30),
    ) {
        use sqip_predictors::{Fsp, FspConfig};
        let mut fsp = Fsp::new(FspConfig { entries: 64, ways: 2, ..FspConfig::default() });
        for &(ld, st) in &deps {
            fsp.learn(Pc::from_index(ld as usize), st, 0);
        }
        for &(ld, _) in &deps {
            prop_assert!(fsp.predict(Pc::from_index(ld as usize), 0).len() <= 2);
        }
    }
}
