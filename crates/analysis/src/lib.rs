//! `sqip-analysis` — first-party static analysis for the sqip
//! workspace.
//!
//! Every pin this repo ships — golden fixture bytes, shared≡per-cell
//! sweep identity, the loader's bit-identical repeat digest — rests on
//! invariants that dynamic tests can only spot-check: no ambient time
//! or randomness in simulation crates, no unordered-map iteration
//! feeding serialized results, no panics or lock-held socket writes in
//! the `sqipd` hot path. This crate turns those invariants into a
//! **static** pass, `sqip-lint`, that runs three ways:
//!
//! - `cargo run -p sqip-analysis --bin sqip-lint` for humans,
//! - the `tests/workspace_lint.rs` wrapper, so `cargo test` gates it,
//! - the CI `conformance` job.
//!
//! The pass is dependency-free: a small hand-rolled Rust [`lexer`]
//! (comments, raw strings, char-vs-lifetime disambiguation), a
//! workspace [`walker`], and a rule [`engine`] with inline suppressions
//! that *require* a reason. The [`rules`] module is the catalogue: each
//! rule carries its own scope (the paths it runs on and its reasoned
//! exemptions), and the module documents how to add one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod rules;
pub mod walker;

pub use engine::{lint_source, lint_source_with_rule, run, Finding, Report, Severity};

use std::path::Path;

/// The root of the workspace this crate was built from (two levels
/// above `crates/analysis`): the pass's default target.
#[must_use]
pub fn workspace_root() -> &'static Path {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).unwrap_or(manifest)
}
