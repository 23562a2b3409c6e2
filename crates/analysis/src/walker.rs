//! Finds the workspace's Rust sources.
//!
//! Walks [`ROOT`] (`crates/`) recursively, in sorted order so the
//! report is deterministic, and classifies each `.rs` file:
//!
//! - **crate roots** (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`,
//!   `examples/*.rs`) — the files the `forbid-unsafe` rule applies to;
//!   every one of them starts a distinct crate as far as `#![…]` inner
//!   attributes are concerned,
//! - **test files** (any path containing a `tests/` component) —
//!   skipped by every rule: `sqip-lint` lints production code.
//!
//! `vendor/` is not walked at all (third-party stand-ins: only
//! first-party code is linted), and [`EXCLUDE`] — the lint's own rule
//! fixtures, which *deliberately* violate the rules — is skipped.

use std::io;
use std::path::{Path, PathBuf};

/// The workspace-relative directory walked for `.rs` sources.
pub const ROOT: &str = "crates";

/// The workspace-relative prefix never walked: the rule fixtures.
pub const EXCLUDE: &str = "crates/analysis/fixtures";

/// One source file the linter will scan.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across
    /// platforms; all reporting uses this).
    pub rel: String,
    /// Absolute path for reading.
    pub path: PathBuf,
    /// Whether this file is a crate root (see module docs).
    pub is_crate_root: bool,
    /// Whether this file is test-only code.
    pub is_test_file: bool,
}

/// Walks [`ROOT`] under the workspace at `root` and returns the
/// sources, sorted by relative path.
///
/// # Errors
///
/// Propagates directory-read failures; a missing [`ROOT`] is an error
/// (a silently-skipped root would quietly disable every rule).
pub fn walk(root: &Path) -> io::Result<Vec<SourceFile>> {
    let dir = root.join(ROOT);
    if !dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("`{ROOT}` is not a directory under {}", root.display()),
        ));
    }
    let mut out = Vec::new();
    walk_dir(&dir, ROOT, &mut out)?;
    out.sort();
    Ok(out)
}

/// Whether `rel` equals `prefix` or starts with it at a `/` boundary.
#[must_use]
pub fn path_has_prefix(rel: &str, prefix: &str) -> bool {
    rel == prefix
        || (rel.len() > prefix.len()
            && rel.starts_with(prefix)
            && rel.as_bytes()[prefix.len()] == b'/')
}

fn walk_dir(dir: &Path, rel: &str, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let child_rel = format!("{rel}/{name}");
        if path_has_prefix(&child_rel, EXCLUDE) {
            continue;
        }
        if path.is_dir() {
            // Build output and VCS metadata are never sources.
            if name == "target" || name == ".git" {
                continue;
            }
            walk_dir(&path, &child_rel, out)?;
        } else if name.ends_with(".rs") {
            out.push(SourceFile {
                is_crate_root: classify_crate_root(&child_rel),
                is_test_file: child_rel.split('/').any(|c| c == "tests"),
                rel: child_rel,
                path,
            });
        }
    }
    Ok(())
}

fn classify_crate_root(rel: &str) -> bool {
    let comps: Vec<&str> = rel.split('/').collect();
    let n = comps.len();
    if n < 2 {
        return false;
    }
    let file = comps[n - 1];
    let parent = comps[n - 2];
    (parent == "src" && (file == "lib.rs" || file == "main.rs"))
        || (parent == "bin" && n >= 3 && comps[n - 3] == "src")
        || parent == "examples"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_root_classification() {
        assert!(classify_crate_root("crates/core/src/lib.rs"));
        assert!(classify_crate_root("crates/bench/src/main.rs"));
        assert!(classify_crate_root("crates/bench/src/bin/figure4.rs"));
        assert!(classify_crate_root("crates/sqip/examples/quickstart.rs"));
        assert!(!classify_crate_root("crates/core/src/pipeline/mod.rs"));
        assert!(!classify_crate_root("crates/sqip/tests/sweep.rs"));
        assert!(!classify_crate_root("lib.rs"));
    }

    #[test]
    fn prefix_matching_respects_component_boundaries() {
        assert!(path_has_prefix("crates/core/src/lib.rs", "crates/core"));
        assert!(path_has_prefix("crates/core", "crates/core"));
        assert!(!path_has_prefix("crates/core2/src/lib.rs", "crates/core"));
    }

    #[test]
    fn walks_this_crate() {
        // The analysis crate's own sources are a stable walk target.
        let files = walk(crate::workspace_root()).unwrap();
        let lib = files
            .iter()
            .find(|f| f.rel == "crates/analysis/src/lib.rs")
            .expect("walker must find its own lib.rs");
        assert!(lib.is_crate_root);
        assert!(!lib.is_test_file);
        assert!(files.iter().all(|f| !path_has_prefix(&f.rel, EXCLUDE)));
        let test_file = files
            .iter()
            .find(|f| f.rel.starts_with("crates/analysis/tests/"))
            .expect("walker must find the integration tests");
        assert!(test_file.is_test_file);
        // Sorted output: determinism of the report depends on it.
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }

    #[test]
    fn missing_root_is_an_error() {
        // crates/analysis has no `crates/` directory of its own.
        assert!(walk(Path::new(env!("CARGO_MANIFEST_DIR"))).is_err());
    }
}
