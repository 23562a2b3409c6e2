//! The `cargo test` gate: runs the full `sqip-lint` pass over the real
//! workspace and fails on any error-severity finding — the same pass
//! the `sqip-lint` binary and the CI `conformance` job run.

use sqip_analysis::walker::{self, path_has_prefix};
use sqip_analysis::{engine, rules, workspace_root, Severity};

#[test]
fn workspace_is_lint_clean() {
    let report = engine::run(workspace_root()).expect("lint pass runs");

    // The walker must actually be walking the workspace: every
    // first-party crate root plus module files. A collapse of this
    // number would mean the gate silently stopped gating.
    assert!(
        report.files > 50,
        "suspiciously few files walked: {}",
        report.files
    );

    let errors: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(ToString::to_string)
        .collect();
    assert!(
        errors.is_empty(),
        "sqip-lint found {} error(s) in the workspace:\n{}",
        errors.len(),
        errors.join("\n")
    );
}

#[test]
fn the_pass_is_deterministic() {
    let a = engine::run(workspace_root()).expect("first run");
    let b = engine::run(workspace_root()).expect("second run");
    assert_eq!(a.findings, b.findings);
    assert_eq!(a.files, b.files);
    assert_eq!(a.suppressed, b.suppressed);
}

#[test]
fn every_configured_rule_scope_resolves() {
    // Each of a rule's paths and exemptions must name at least one
    // walked production file: a stale path silently narrows the rule,
    // a stale exemption silently does nothing. An exemption without a
    // reason documents nothing.
    let files = walker::walk(workspace_root()).expect("walk");
    let names_a_file = |prefix: &str| {
        files
            .iter()
            .any(|f| !f.is_test_file && path_has_prefix(&f.rel, prefix))
    };
    for rule in rules::all() {
        for path in rule.paths {
            assert!(
                names_a_file(path),
                "rule `{}` path `{path}` names no walked file",
                rule.name
            );
        }
        for (path, reason) in rule.exempt {
            assert!(
                names_a_file(path),
                "rule `{}` exemption `{path}` names no walked file",
                rule.name
            );
            assert!(
                !reason.trim().is_empty(),
                "rule `{}` exemption `{path}` has no reason",
                rule.name
            );
        }
    }
}
