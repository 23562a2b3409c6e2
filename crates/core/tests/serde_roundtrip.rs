//! JSON round-trip coverage for the serializable simulation types:
//! `SimStats`, `SimConfig` (with every nested config), `SqDesign` and
//! `CacheStats`.

use sqip_core::{SimConfig, SimStats, SqDesign};
use sqip_mem::CacheStats;

#[test]
fn sim_stats_round_trip_through_json() {
    let stats = SimStats {
        cycles: 123_456_789,
        committed: 42,
        loads: 7,
        stores: 3,
        mis_forwards: 1,
        delay_cycles: 99,
        l1: CacheStats {
            hits: u64::MAX - 5,
            misses: 17,
        },
        ..SimStats::default()
    };
    let json = serde_json::to_string(&stats).unwrap();
    let back: SimStats = serde_json::from_str(&json).unwrap();
    assert_eq!(back, stats);
    // Spot-check the wire format is a plain object with named counters.
    assert!(json.contains("\"cycles\":123456789"), "{json}");
    assert!(json.contains("\"hits\":18446744073709551610"), "{json}");
}

#[test]
fn cache_stats_round_trip_through_json() {
    let stats = CacheStats {
        hits: 10,
        misses: 3,
    };
    let json = serde_json::to_string(&stats).unwrap();
    let back: CacheStats = serde_json::from_str(&json).unwrap();
    assert_eq!(back, stats);
}

#[test]
fn every_design_round_trips_through_json() {
    for design in SqDesign::ALL {
        let json = serde_json::to_string(&design).unwrap();
        // Designs serialize as their registry name (== Display label).
        assert_eq!(json, format!("\"{design}\""));
        let back: SqDesign = serde_json::from_str(&json).unwrap();
        assert_eq!(back, design);
    }
    // Registry extensions serialize the same way.
    let ext: SqDesign = "indexed-5-fwd+dly".parse().unwrap();
    let json = serde_json::to_string(&ext).unwrap();
    assert_eq!(json, "\"indexed-5-fwd+dly\"");
    assert_eq!(serde_json::from_str::<SqDesign>(&json).unwrap(), ext);
    assert!(serde_json::from_str::<SqDesign>("\"NotADesign\"").is_err());
}

#[test]
fn full_config_round_trips_through_json() {
    for design in SqDesign::ALL {
        let mut cfg = SimConfig::with_design(design);
        cfg.fsp.entries = 512;
        cfg.fsp.path_bits = 4;
        cfg.ssn_bits = 10;
        cfg.hierarchy.memory_latency = 250;
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        // SimConfig has no PartialEq (it holds nested config structs from
        // several crates); compare the canonical JSON forms instead.
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&cfg).unwrap()
        );
        back.validate();
    }
}
