//! The rule engine: drives every rule over the files in its scope,
//! applies inline suppressions, and produces a deterministic, sorted
//! report. Rule findings are errors; unused suppressions are warnings.
//!
//! # Suppressions
//!
//! A finding is silenced by a line comment **on the same line or the
//! line directly above it**, and the reason is *mandatory*:
//!
//! ```text
//! // sqip-lint: allow(unordered-iteration, reason = "probe-only map, never iterated")
//! ```
//!
//! A directive with a missing or empty reason, or naming an unknown
//! rule, is itself an **error** finding (`lint-directive`); a directive
//! that silences nothing is a warning. Doc comments are never parsed as
//! directives, so rule documentation can quote the syntax freely.
//!
//! # Test code
//!
//! All rules lint production code only. Files under a `tests/`
//! directory are skipped wholesale; within other files, items annotated
//! `#[test]` (or `#[…::test]`) and items/regions under `#[cfg(test)]`
//! are masked out token-by-token.

use std::fmt;
use std::io;
use std::path::Path;

use crate::lexer::{lex, TokKind, Token};
use crate::rules::{self, Rule};
use crate::walker;

/// The pseudo-rule name carried by findings about the lint directives
/// themselves (malformed / unknown-rule / unused suppressions).
pub const DIRECTIVE_RULE: &str = "lint-directive";

/// The marker that introduces an inline suppression comment.
pub const DIRECTIVE_MARKER: &str = "sqip-lint:";

/// How a finding is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, but does not fail the run.
    Warn,
    /// Fails the run (exit code 1 / test failure).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// One reported finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// The rule that fired (or [`DIRECTIVE_RULE`]).
    pub rule: &'static str,
    /// Report severity.
    pub severity: Severity,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}:{}: {}",
            self.severity, self.rule, self.path, self.line, self.message
        )
    }
}

/// The outcome of a full run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every finding, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files: usize,
    /// Number of findings silenced by (reasoned) suppressions.
    pub suppressed: usize,
}

impl Report {
    /// Number of error-severity findings — the run fails if non-zero.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }
}

/// Everything a rule sees about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub rel_path: &'a str,
    /// The full token stream (comments included).
    pub tokens: &'a [Token<'a>],
    /// Per-token curly-brace depth (a `{` is *inside* the block it
    /// opens, a `}` still inside the block it closes).
    pub depth: &'a [u32],
    /// Per-token "this is test code" mask.
    pub test_mask: &'a [bool],
    /// Whether the file is a crate root.
    pub is_crate_root: bool,
}

impl FileCtx<'_> {
    /// Indices of the production-code tokens: comments and test-masked
    /// tokens removed. Rules pattern-match over this.
    #[must_use]
    pub fn code_indices(&self) -> Vec<usize> {
        (0..self.tokens.len())
            .filter(|&i| !self.tokens[i].kind.is_comment() && !self.test_mask[i])
            .collect()
    }
}

/// A parsed inline suppression.
#[derive(Debug, Clone)]
struct Directive {
    rule: String,
    line: u32,
    used: bool,
}

/// Runs the full pass over the workspace at `root`.
///
/// # Errors
///
/// Propagates walker/IO failures.
pub fn run(root: &Path) -> Result<Report, String> {
    let files = walker::walk(root).map_err(|e| e.to_string())?;
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for file in &files {
        let src = read_source(&file.path)?;
        let (mut file_findings, file_suppressed) =
            lint_source(&file.rel, &src, file.is_crate_root, file.is_test_file);
        findings.append(&mut file_findings);
        suppressed += file_suppressed;
    }
    findings.sort();
    Ok(Report {
        findings,
        files: files.len(),
        suppressed,
    })
}

fn read_source(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e: io::Error| format!("reading {}: {e}", path.display()))
}

/// Lints one source text with every rule whose scope covers
/// `rel_path`; returns the findings plus the number of suppressed ones.
#[must_use]
pub fn lint_source(
    rel_path: &str,
    src: &str,
    is_crate_root: bool,
    is_test_file: bool,
) -> (Vec<Finding>, usize) {
    if is_test_file {
        return (Vec::new(), 0);
    }
    let in_scope = rules::all().iter().filter(|rule| rule.scopes(rel_path));
    lint_with(rel_path, src, is_crate_root, in_scope)
}

/// Runs exactly one rule, unscoped, over a source text — the harness
/// the per-rule fixture tests use. Suppressions still apply.
///
/// # Panics
///
/// Panics if `rule_name` does not exist (a fixture-test bug).
#[must_use]
pub fn lint_source_with_rule(
    rel_path: &str,
    src: &str,
    is_crate_root: bool,
    rule_name: &str,
) -> Vec<Finding> {
    let rule = rules::by_name(rule_name).unwrap_or_else(|| panic!("no such rule `{rule_name}`"));
    lint_with(rel_path, src, is_crate_root, std::iter::once(rule)).0
}

/// Runs `rules` over one source text and applies its suppressions.
fn lint_with<'r>(
    rel_path: &str,
    src: &str,
    is_crate_root: bool,
    rules: impl Iterator<Item = &'r Rule>,
) -> (Vec<Finding>, usize) {
    let tokens = lex(src);
    let depth = brace_depth(&tokens);
    let test_mask = test_mask(&tokens);
    let ctx = FileCtx {
        rel_path,
        tokens: &tokens,
        depth: &depth,
        test_mask: &test_mask,
        is_crate_root,
    };

    let (mut directives, mut findings) = parse_directives(rel_path, &tokens);

    for rule in rules {
        if rule.crate_root_only && !is_crate_root {
            continue;
        }
        let mut emit = |line: u32, message: String| {
            findings.push(Finding {
                path: rel_path.to_string(),
                line,
                rule: rule.name,
                severity: Severity::Error,
                message,
            });
        };
        (rule.check)(&ctx, &mut emit);
    }

    // Apply suppressions: a directive covers its own line and the next.
    let mut suppressed = 0usize;
    findings.retain(|f| {
        if f.rule == DIRECTIVE_RULE {
            return true;
        }
        let mut covered = false;
        // Credit every directive in range (same line or the line
        // above), so adjacent suppressed lines don't report each
        // other's directives as unused.
        for d in &mut directives {
            if d.rule == f.rule && (d.line == f.line || d.line + 1 == f.line) {
                d.used = true;
                covered = true;
            }
        }
        if covered {
            suppressed += 1;
        }
        !covered
    });
    for d in &directives {
        if !d.used {
            findings.push(Finding {
                path: rel_path.to_string(),
                line: d.line,
                rule: DIRECTIVE_RULE,
                severity: Severity::Warn,
                message: format!(
                    "suppression for `{}` silences nothing on this or the next line",
                    d.rule
                ),
            });
        }
    }
    findings.sort();
    (findings, suppressed)
}

/// Per-token `{}` depth. Tokens are already string/char/comment-aware,
/// so braces inside literals never count.
fn brace_depth(tokens: &[Token<'_>]) -> Vec<u32> {
    let mut depth = 0u32;
    let mut out = Vec::with_capacity(tokens.len());
    for t in tokens {
        if t.is_punct('{') {
            depth += 1;
            out.push(depth);
        } else if t.is_punct('}') {
            out.push(depth);
            depth = depth.saturating_sub(1);
        } else {
            out.push(depth);
        }
    }
    out
}

/// Marks the token ranges of test-only items: `#[test]`-like attributes
/// and `#[cfg(test)]`/`#[cfg(all(test, …))]` items (but **not**
/// `#[cfg(not(test))]`). The marked item extends from the attribute to
/// the matching `}` of its first block, or to a top-level-of-item `;`.
fn test_mask(tokens: &[Token<'_>]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].kind.is_comment())
        .collect();
    let mut ci = 0usize;
    while ci < code.len() {
        if !tokens[code[ci]].is_punct('#')
            || ci + 1 >= code.len()
            || !tokens[code[ci + 1]].is_punct('[')
        {
            ci += 1;
            continue;
        }
        let Some((attr_end, attr_text)) = scan_attribute(tokens, &code, ci) else {
            break;
        };
        if !is_test_attribute(&attr_text) {
            ci = attr_end + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut cj = attr_end + 1;
        while cj + 1 < code.len()
            && tokens[code[cj]].is_punct('#')
            && tokens[code[cj + 1]].is_punct('[')
        {
            match scan_attribute(tokens, &code, cj) {
                Some((end, _)) => cj = end + 1,
                None => break,
            }
        }
        // The item body: up to the matching `}` of the first `{`, or an
        // item-level `;` (e.g. `#[cfg(test)] use …;`).
        let mut brace = 0i64;
        let mut k = cj;
        let mut end_tok = *code.last().unwrap_or(&0);
        while k < code.len() {
            let t = &tokens[code[k]];
            if t.is_punct('{') {
                brace += 1;
            } else if t.is_punct('}') {
                brace -= 1;
                if brace <= 0 {
                    end_tok = code[k];
                    break;
                }
            } else if t.is_punct(';') && brace == 0 {
                end_tok = code[k];
                break;
            }
            k += 1;
        }
        for m in mask.iter_mut().take(end_tok + 1).skip(code[ci]) {
            *m = true;
        }
        ci = k.saturating_add(1);
    }
    mask
}

/// From `code[ci]` pointing at `#`, scans the `[…]` attribute; returns
/// the code-index of the closing `]` and the attribute's flat text.
fn scan_attribute(tokens: &[Token<'_>], code: &[usize], ci: usize) -> Option<(usize, String)> {
    let mut text = String::new();
    let mut depth = 0i64;
    let mut cj = ci;
    while cj < code.len() {
        let t = &tokens[code[cj]];
        text.push_str(t.text);
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some((cj, text));
            }
        }
        cj += 1;
    }
    None
}

fn is_test_attribute(attr: &str) -> bool {
    if attr == "#[test]" || attr.ends_with("::test]") {
        return true;
    }
    attr.starts_with("#[cfg(") && attr.contains("test") && !attr.contains("not(")
}

/// Extracts suppression directives from line/block comments. Malformed
/// directives become error findings. Doc comments are ignored.
fn parse_directives(rel_path: &str, tokens: &[Token<'_>]) -> (Vec<Directive>, Vec<Finding>) {
    let mut directives = Vec::new();
    let mut findings = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let Some(pos) = t.text.find(DIRECTIVE_MARKER) else {
            continue;
        };
        let mut body = t.text[pos + DIRECTIVE_MARKER.len()..].trim();
        if t.kind == TokKind::BlockComment {
            body = body.trim_end_matches("*/").trim();
        }
        match parse_allow(body) {
            Ok((rule, _reason)) => {
                if rules::by_name(&rule).is_none() {
                    findings.push(Finding {
                        path: rel_path.to_string(),
                        line: t.line,
                        rule: DIRECTIVE_RULE,
                        severity: Severity::Error,
                        message: format!("suppression names unknown rule `{rule}`"),
                    });
                } else {
                    directives.push(Directive {
                        rule,
                        line: t.line,
                        used: false,
                    });
                }
            }
            Err(msg) => findings.push(Finding {
                path: rel_path.to_string(),
                line: t.line,
                rule: DIRECTIVE_RULE,
                severity: Severity::Error,
                message: msg,
            }),
        }
    }
    (directives, findings)
}

/// Parses `allow(<rule>, reason = "…")`; the reason is mandatory and
/// must be non-empty.
fn parse_allow(body: &str) -> Result<(String, String), String> {
    const SHAPE: &str = "expected `allow(<rule>, reason = \"…\")`";
    let inner = body
        .strip_prefix("allow(")
        .ok_or_else(|| SHAPE.to_string())?;
    let inner = inner.strip_suffix(')').ok_or_else(|| SHAPE.to_string())?;
    let Some((rule, rest)) = inner.split_once(',') else {
        return Err("suppression is missing its mandatory reason".to_string());
    };
    let rest = rest.trim();
    let reason = rest
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim)
        .ok_or_else(|| SHAPE.to_string())?;
    let reason = reason
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| SHAPE.to_string())?;
    if reason.trim().is_empty() {
        return Err("suppression reason must not be empty".to_string());
    }
    Ok((rule.trim().to_string(), reason.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_rule(src: &str, rule: &str) -> Vec<Finding> {
        lint_source_with_rule("crates/x/src/a.rs", src, false, rule)
    }

    #[test]
    fn suppression_with_reason_silences_same_and_next_line() {
        let above = "\
fn f() {
    // sqip-lint: allow(unordered-iteration, reason = \"probe-only map\")
    let m: HashMap<u32, u32> = make();
}
";
        assert!(run_rule(above, "unordered-iteration").is_empty());

        let trailing = "\
fn f() {
    let m: HashMap<u32, u32> = make(); // sqip-lint: allow(unordered-iteration, reason = \"probe-only map\")
}
";
        assert!(run_rule(trailing, "unordered-iteration").is_empty());
    }

    #[test]
    fn suppression_does_not_reach_two_lines_down() {
        let src = "\
fn f() {
    // sqip-lint: allow(unordered-iteration, reason = \"too far away\")
    let unrelated = 1;
    let m: HashMap<u32, u32> = make();
}
";
        let findings = run_rule(src, "unordered-iteration");
        // The real finding survives, and the directive is flagged as
        // unused.
        assert!(findings.iter().any(|f| f.rule == "unordered-iteration"));
        assert!(findings
            .iter()
            .any(|f| f.rule == DIRECTIVE_RULE && f.message.contains("silences nothing")));
    }

    #[test]
    fn suppression_without_reason_is_an_error() {
        for bad in [
            "// sqip-lint: allow(unordered-iteration)",
            "// sqip-lint: allow(unordered-iteration, reason = \"\")",
            "// sqip-lint: allow(unordered-iteration, reason = \"  \")",
            "// sqip-lint: allow()",
        ] {
            let src = format!("fn f() {{\n    {bad}\n    let m: HashMap<u32, u32> = make();\n}}\n");
            let findings = run_rule(&src, "unordered-iteration");
            assert!(
                findings
                    .iter()
                    .any(|f| f.rule == DIRECTIVE_RULE && f.severity == Severity::Error),
                "`{bad}` must be a directive error, got {findings:?}"
            );
            // And the underlying finding is NOT silenced.
            assert!(findings.iter().any(|f| f.rule == "unordered-iteration"));
        }
    }

    #[test]
    fn suppression_for_unknown_rule_is_an_error() {
        let src = "// sqip-lint: allow(no-such-rule, reason = \"hm\")\n";
        let (findings, _) = lint_source("crates/x/src/a.rs", src, false, false);
        assert!(findings
            .iter()
            .any(|f| f.rule == DIRECTIVE_RULE && f.message.contains("unknown rule")));
    }

    #[test]
    fn doc_comments_never_parse_as_directives() {
        let src = "/// Write `// sqip-lint: allow(x, reason = \"…\")` above the line.\nfn f() {}\n";
        let (findings, _) = lint_source("crates/x/src/a.rs", src, false, false);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cfg_test_items_are_masked() {
        let src = "\
fn prod() {
    let m: HashMap<u32, u32> = make();
}

#[cfg(test)]
mod tests {
    fn t() {
        let m: HashMap<u32, u32> = make();
    }
}
";
        let findings = run_rule(src, "unordered-iteration");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn test_fn_attributes_are_masked_but_not_cfg_not_test() {
        let src = "\
#[test]
fn unit() {
    opt.unwrap();
}

#[cfg(not(test))]
fn prod() {
    opt.unwrap();
}
";
        let findings = run_rule(src, "panic-in-service");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 8);
    }

    #[test]
    fn test_files_are_skipped_wholesale() {
        let src = "fn f() { opt.unwrap(); }\n";
        let (findings, _) = lint_source("crates/service/src/a.rs", src, false, true);
        assert!(findings.is_empty());
        let (findings, _) = lint_source("crates/service/src/a.rs", src, false, false);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn severity_is_error_for_rules_and_warn_for_unused_suppressions() {
        let src = "\
fn f() {
    // sqip-lint: allow(unordered-iteration, reason = \"too far away\")
    let unrelated = 1;
    let m: HashMap<u32, u32> = make();
}
";
        let findings = run_rule(src, "unordered-iteration");
        let severity_of = |rule: &str| findings.iter().find(|f| f.rule == rule).map(|f| f.severity);
        assert_eq!(severity_of("unordered-iteration"), Some(Severity::Error));
        assert_eq!(severity_of(DIRECTIVE_RULE), Some(Severity::Warn));
    }

    #[test]
    fn exemptions_skip_the_rule_for_matching_paths() {
        let src = "fn f() { let m: HashMap<u32, u32> = make(); }\n";
        let (findings, _) = lint_source("crates/core/src/pipeline/event.rs", src, false, false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "unordered-iteration");
        // Inside the rule's one exemption, and outside its paths.
        for rel in [
            "crates/core/src/pipeline/reference.rs",
            "crates/bench/src/a.rs",
        ] {
            let (findings, _) = lint_source(rel, src, false, false);
            assert!(findings.is_empty(), "{rel}: {findings:?}");
        }
    }
}
