//! The versioned `ExperimentSpec` wire schema: canonical round-trips,
//! registry-name resolution, and strict rejection of anything the schema
//! does not know (unknown fields, unknown names, unknown knobs, foreign
//! versions).

use sqip::{
    DesignRegistry, ExperimentSpec, SimConfig, SimError, SqipError, WorkloadRegistry, KNOBS,
    SPEC_VERSION,
};

const CANONICAL: &str = r#"{"version":1,"workloads":["mix:0xfeed:20k","gzip"],"designs":["ideal-oracle","indexed-3-fwd+dly"],"variants":[{"name":"small-fsp","set":{"fsp_entries":512}}]}"#;

#[test]
fn canonical_json_round_trips_byte_identically() {
    let spec = ExperimentSpec::from_json(CANONICAL).unwrap();
    assert_eq!(spec.to_json(), CANONICAL);
    // And the pretty form parses back to the same spec.
    assert_eq!(
        ExperimentSpec::from_json(&spec.to_json_pretty()).unwrap(),
        spec
    );
    // A spec built through the API serializes to the same canonical form.
    let built = ExperimentSpec::new(
        ["mix:0xfeed:20k", "gzip"],
        ["ideal-oracle", "indexed-3-fwd+dly"],
    )
    .variant("small-fsp", vec![("fsp_entries".to_string(), 512)]);
    assert_eq!(built.to_json(), CANONICAL);
}

#[test]
fn variants_field_is_optional_and_canonicalized() {
    let spec = ExperimentSpec::from_json(
        r#"{"version":1,"workloads":["gzip"],"designs":["ideal-oracle"]}"#,
    )
    .unwrap();
    assert!(spec.variants.is_empty());
    // `to_json` always emits the field: one canonical form.
    assert_eq!(
        spec.to_json(),
        r#"{"version":1,"workloads":["gzip"],"designs":["ideal-oracle"],"variants":[]}"#
    );
}

#[test]
fn to_experiment_resolves_every_registry_name() {
    // Every registered workload name and every registered design name is
    // accepted — the spec surface covers the full registries.
    let workloads: Vec<String> = WorkloadRegistry::global()
        .names()
        .iter()
        .take(6)
        .map(|n| n.to_string())
        .collect();
    let designs: Vec<String> = DesignRegistry::global()
        .names()
        .iter()
        .map(|n| n.to_string())
        .collect();
    let n_cells = workloads.len() * designs.len();
    let spec = ExperimentSpec::new(workloads, designs);
    let experiment = spec.to_experiment().unwrap();
    assert_eq!(experiment.cells().unwrap().len(), n_cells);
}

#[test]
fn variant_knobs_reach_the_cell_configs() {
    let spec = ExperimentSpec::new(["mix:1:10k"], ["indexed-3-fwd+dly"]).variant(
        "tiny",
        vec![
            ("fsp_entries".to_string(), 512),
            ("sq_size".to_string(), 32),
        ],
    );
    let cells = spec.to_experiment().unwrap().cells().unwrap();
    assert_eq!(cells.len(), 1);
    assert_eq!(cells[0].config.fsp.entries, 512);
    assert_eq!(cells[0].config.sq_size, 32);
    // The coupled invariant: sq_size drags ddp.max_distance along, so the
    // cell still validates.
    assert_eq!(cells[0].config.ddp.max_distance, 32);
}

#[test]
fn unknown_fields_are_rejected_at_parse_time() {
    let err = ExperimentSpec::from_json(
        r#"{"version":1,"workloads":["gzip"],"designs":["ideal-oracle"],"bogus":1}"#,
    )
    .unwrap_err();
    assert!(matches!(err, SqipError::Parse(_)), "{err}");
    assert!(err.to_string().contains("unknown field `bogus`"), "{err}");

    let err = ExperimentSpec::from_json(
        r#"{"version":1,"workloads":["gzip"],"designs":["ideal-oracle"],"variants":[{"name":"v","extra":true}]}"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("unknown field `extra`"), "{err}");
}

#[test]
fn unknown_names_and_knobs_error_with_context() {
    let spec = ExperimentSpec::new(["no-such-workload"], ["ideal-oracle"]);
    let err = spec.to_experiment().unwrap_err();
    assert!(matches!(err, SqipError::UnknownWorkload(_)), "{err}");

    let spec = ExperimentSpec::new(["gzip"], ["no-such-design"]);
    let err = spec.to_experiment().unwrap_err();
    assert!(matches!(err, SqipError::UnknownDesign(_)), "{err}");
    assert!(err.to_string().contains("no-such-design"), "{err}");

    let spec = ExperimentSpec::new(["gzip"], ["ideal-oracle"])
        .variant("v", vec![("warp_factor".to_string(), 9)]);
    let err = spec.to_experiment().unwrap_err();
    assert!(matches!(err, SqipError::Config(_)), "{err}");
    assert!(
        err.to_string().contains("unknown knob `warp_factor`"),
        "{err}"
    );
}

#[test]
fn foreign_versions_are_rejected() {
    let spec = ExperimentSpec {
        version: SPEC_VERSION + 1,
        ..ExperimentSpec::new(["gzip"], ["ideal-oracle"])
    };
    let err = spec.to_experiment().unwrap_err();
    assert!(
        err.to_string().contains("unsupported spec version"),
        "{err}"
    );
}

#[test]
fn specs_run_end_to_end() {
    let spec = ExperimentSpec::new(["mix:0xfeed:10k"], ["ideal-oracle", "indexed-3-fwd+dly"]);
    let results = spec.to_experiment().unwrap().run().unwrap();
    assert_eq!(results.len(), 2);
    assert!(results.records().iter().all(|r| r.stats.committed > 0));
}

/// The largest value `SimConfig::try_validate` accepts for each knob.
fn knob_bound(knob: &str) -> u64 {
    match knob {
        "rob_size" | "iq_size" | "lq_size" | "sq_size" => SimConfig::MAX_WINDOW_ENTRIES as u64,
        "fetch_width" | "rename_width" | "commit_width" | "reexec_ports" => {
            SimConfig::MAX_WIDTH as u64
        }
        "front_latency" | "issue_to_exec" | "post_exec_depth" => SimConfig::MAX_LATENCY,
        "fsp_entries" | "fsp_ways" | "ddp_entries" | "sat_entries" | "ssbf_entries"
        | "spct_entries" => SimConfig::MAX_TABLE_ENTRIES as u64,
        "ssn_bits" => u64::from(SimConfig::MAX_SSN_BITS),
        other => panic!("knob `{other}` has no documented bound"),
    }
}

/// Every knob value a spec can carry either fails admission with a typed
/// error naming the knob, or runs to completion: nothing that passes
/// `to_experiment` and `cells` (the `sqipd` admission check) may panic
/// or deadlock inside the sweep.
#[test]
fn every_knob_value_is_refused_up_front_or_runs_to_completion() {
    for &(knob, _) in KNOBS {
        let bound = knob_bound(knob);
        for value in [0, 3, bound, bound + 1, 1 << 62, u64::MAX] {
            let label = format!("{knob} = {value}");
            let spec = ExperimentSpec::new(["mix:1:1k"], ["associative-3"])
                .variant("v", vec![(knob.to_string(), value)]);
            let experiment = match spec.to_experiment() {
                Ok(experiment) => experiment,
                Err(err) => {
                    assert!(matches!(err, SqipError::Config(_)), "{label}: {err}");
                    continue;
                }
            };
            let refused = match experiment.cells() {
                Ok(_) => false,
                Err(SqipError::Sim {
                    source: SimError::InvalidConfig(msg),
                    ..
                }) => {
                    let field = knob.split('_').next().unwrap();
                    assert!(msg.contains(field), "{label}: `{msg}` names no field");
                    true
                }
                Err(err) => panic!("{label}: untyped refusal {err}"),
            };
            assert!(
                refused || value <= bound,
                "{label} is past the bound {bound} but was admitted"
            );
            if !refused {
                let results = experiment
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: admitted but failed: {e}"));
                assert_eq!(results.len(), 1, "{label}");
            }
        }
    }
}
