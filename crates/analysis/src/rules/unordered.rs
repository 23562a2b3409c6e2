//! `unordered-iteration` — no `HashMap`/`HashSet` on result or
//! serialization paths.
//!
//! Iterating a hash container feeds `RandomState`-dependent order into
//! whatever consumes the iteration; on a path that produces result
//! rows, JSON, CSV, or wire messages, that is a silent determinism
//! bug of exactly the kind the golden fixtures and the loader's repeat
//! digest exist to catch.
//!
//! Iteration cannot be proven absent lexically, so on the scoped paths
//! the rule is deliberately conservative: it flags **every** mention of
//! the two types and demands `BTreeMap`/`BTreeSet` (or an explicit sort
//! before emitting). A genuinely probe-only map on a scoped path can
//! carry an inline suppression with its reason.
//!
//! Scope: the paths that produce result rows, JSON/CSV artifacts, wire
//! messages or snapshot bytes. `crates/isa/src` is in scope because the
//! tee's block pulls and the SQTR trace codec both promise exactly-once,
//! in-order record delivery. `crates/core/src` is in scope because the
//! event engine's snapshot bytes and stats are bit-pinned against the
//! reference, so any hash-ordered walk in the simulator proper is a
//! latent determinism bug. The reference scheduler alone is exempt; the
//! shared pipeline stages (`crates/core/src/pipeline/stages`) are not.

use crate::engine::FileCtx;
use crate::lexer::TokKind;
use crate::rules::{Emit, Rule};

/// The rule value registered in [`crate::rules::all`].
pub const RULE: Rule = Rule {
    name: "unordered-iteration",
    summary: "no HashMap/HashSet on result/serialization paths; use BTree* or sort",
    paths: &[
        "crates/isa/src",
        "crates/sqip/src",
        "crates/service/src",
        "crates/snapshot/src",
        "crates/core/src",
    ],
    exempt: &[(
        "crates/core/src/pipeline/reference.rs",
        "the reference scheduler's HashMaps are the plain structures the \
         differential tests check the event scheduler against; they never \
         iterate unordered into an artifact (snapshots key-sort via \
         sorted_pairs) and the shared pipeline stages they serve are in scope",
    )],
    crate_root_only: false,
    check,
};

fn check(ctx: &FileCtx<'_>, emit: &mut Emit<'_>) {
    for &i in &ctx.code_indices() {
        let t = &ctx.tokens[i];
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            let ordered = if t.text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            emit(
                t.line,
                format!(
                    "`{}` iteration order is randomized and this path feeds \
                     results/serialization; use `{ordered}` or sort explicitly \
                     before emitting",
                    t.text
                ),
            );
        }
    }
}
