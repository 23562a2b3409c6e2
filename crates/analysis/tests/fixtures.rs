//! Per-rule fixture self-tests: every rule must fire on its `hit.rs`
//! fixture (on exactly the lines marked `// HIT`) and stay silent on
//! its `clean.rs` fixture.
//!
//! The fixtures live under `crates/analysis/fixtures/<rule>/` — a
//! directory `lint.toml` excludes from the real workspace walk, since
//! the hit files violate the rules on purpose.

use std::path::Path;

use sqip_analysis::lint_source_with_rule;

/// `(rule name, lint the fixture as a crate root?)`.
const CASES: [(&str, bool); 7] = [
    ("wall-clock-in-sim", false),
    ("ambient-randomness", false),
    ("unordered-iteration", false),
    ("panic-in-service", false),
    ("guard-across-send", false),
    ("forbid-unsafe", true),
    ("unbounded-read", false),
];

fn read_fixture(rule: &str, which: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule)
        .join(which);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// Lines (1-based) carrying a `// HIT` marker; a fixture with no
/// markers expects exactly one finding at line 1 (file-level rules).
fn expected_lines(src: &str) -> Vec<u32> {
    let marked: Vec<u32> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("// HIT"))
        .map(|(i, _)| u32::try_from(i).unwrap() + 1)
        .collect();
    if marked.is_empty() {
        vec![1]
    } else {
        marked
    }
}

#[test]
fn every_rule_fires_on_its_hit_fixture_at_the_marked_lines() {
    for (rule, as_crate_root) in CASES {
        let src = read_fixture(rule, "hit.rs");
        let rel = format!("crates/analysis/fixtures/{rule}/hit.rs");
        let findings = lint_source_with_rule(&rel, &src, as_crate_root, rule);
        assert!(
            !findings.is_empty(),
            "rule `{rule}` produced no findings on its hit fixture"
        );
        for f in &findings {
            assert_eq!(f.rule, rule, "unexpected rule in findings: {f}");
        }
        let mut got: Vec<u32> = findings.iter().map(|f| f.line).collect();
        got.dedup();
        assert_eq!(
            got,
            expected_lines(&src),
            "rule `{rule}` fired on the wrong lines:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn every_rule_stays_silent_on_its_clean_fixture() {
    for (rule, as_crate_root) in CASES {
        let src = read_fixture(rule, "clean.rs");
        let rel = format!("crates/analysis/fixtures/{rule}/clean.rs");
        let findings = lint_source_with_rule(&rel, &src, as_crate_root, rule);
        assert!(
            findings.is_empty(),
            "rule `{rule}` fired on its clean fixture:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn hit_fixtures_are_silenceable_with_a_reasoned_suppression() {
    // Take the unordered-iteration hit fixture and suppress every
    // marked line: the rule must honour each reasoned directive.
    let src = read_fixture("unordered-iteration", "hit.rs");
    let suppressed: String = src
        .lines()
        .map(|l| {
            if l.contains("// HIT") {
                format!("{l} // sqip-lint: allow(unordered-iteration, reason = \"fixture demo\")\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let findings = lint_source_with_rule(
        "crates/analysis/fixtures/unordered-iteration/hit.rs",
        &suppressed,
        false,
        "unordered-iteration",
    );
    assert!(
        findings.is_empty(),
        "suppressions were not honoured:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
