//! Integration tests over the 47 synthetic Table 3 workloads: every model
//! must build, trace, and simulate to completion, with its measured
//! memory-dependence character in the regime the paper reports.

use sqip::{all_workloads, by_name, mediabench, specfp, specint, SqDesign};

#[test]
fn the_full_table3_roster_exists() {
    assert_eq!(mediabench().len(), 18);
    assert_eq!(specint().len(), 16);
    assert_eq!(specfp().len(), 13);
    let names: std::collections::HashSet<_> = all_workloads().into_iter().map(|w| w.name).collect();
    assert_eq!(names.len(), 47);
}

#[test]
fn forwarding_rates_match_targets_across_the_roster() {
    // Spot-check a spread of forwarding regimes (full-roster tracing is
    // covered by unit tests; here we verify the measured architectural
    // rate against each spec's target).
    for name in [
        "adpcm.d", "gsm.e", "gzip", "vortex", "mesa.m", "sixtrack", "mcf",
    ] {
        let spec = by_name(name).unwrap();
        let trace = spec.trace().unwrap();
        let measured = trace.oracle_forwarding_rate(64);
        let target = spec.target_forwarding_rate();
        assert!(
            (measured - target).abs() < 0.08,
            "{name}: measured {measured:.3} vs target {target:.3}"
        );
    }
}

#[test]
fn representative_workloads_simulate_under_all_designs() {
    for name in ["gzip", "mesa.t", "eon.c", "mcf"] {
        let spec = by_name(name).unwrap();
        let expected = spec.trace().unwrap().len() as u64;
        for design in SqDesign::ALL {
            let stats = sqip::simulate(&spec, design).unwrap();
            assert_eq!(stats.committed, expected, "{name}/{design}");
        }
    }
}

#[test]
fn pathology_profiles_land_in_the_papers_regimes() {
    // eon: FSP-conflict thrash that delay prediction cures.
    let eon_fwd = sqip::simulate(&by_name("eon.k").unwrap(), SqDesign::Indexed3Fwd).unwrap();
    let eon_dly = sqip::simulate(&by_name("eon.k").unwrap(), SqDesign::Indexed3FwdDly).unwrap();
    assert!(
        eon_fwd.mis_forwards_per_1000() > 5.0,
        "eon.k must thrash without delay, got {:.1}",
        eon_fwd.mis_forwards_per_1000()
    );
    assert!(
        eon_dly.mis_forwards_per_1000() < eon_fwd.mis_forwards_per_1000() / 3.0,
        "delay must cure most of it: {:.2} vs {:.2}",
        eon_dly.mis_forwards_per_1000(),
        eon_fwd.mis_forwards_per_1000()
    );
    assert!(eon_dly.pct_loads_delayed() > 2.0, "delays must be applied");

    // adpcm: no forwarding at all, so prediction must be free.
    let adpcm = sqip::simulate(&by_name("adpcm.d").unwrap(), SqDesign::Indexed3FwdDly).unwrap();
    assert_eq!(adpcm.mis_forwards, 0);
    assert!(adpcm.pct_loads_delayed() < 1.0);

    // mcf: memory bound, low IPC.
    let mcf = sqip::simulate(&by_name("mcf").unwrap(), SqDesign::IdealOracle).unwrap();
    assert!(
        mcf.ipc() < 0.5,
        "mcf is memory-bound, got IPC {:.2}",
        mcf.ipc()
    );
    assert!(mcf.l1.misses > 5_000);
}

#[test]
fn suite_averages_track_the_paper() {
    // Sample three per suite and check the forwarding-rate ordering the
    // paper reports (Media ~14%, Int ~13%, FP ~11%).
    let sample = |names: [&str; 3]| -> f64 {
        names
            .iter()
            .map(|n| {
                let spec = by_name(n).unwrap();
                spec.trace().unwrap().oracle_forwarding_rate(64)
            })
            .sum::<f64>()
            / 3.0
    };
    let media = sample(["mesa.m", "mpeg2.d", "gsm.d"]);
    let fp = sample(["art", "swim", "lucas"]);
    assert!(
        media > 0.15,
        "forwarding-heavy Media sample, got {media:.3}"
    );
    assert!(fp < 0.05, "forwarding-light FP sample, got {fp:.3}");
}
