//! `forbid-unsafe` — every crate root carries `#![forbid(unsafe_code)]`.
//!
//! The whole workspace is safe Rust, and `forbid` (unlike `deny`)
//! cannot be overridden further down the tree. Library roots have
//! carried the attribute since PR 1; this rule exists because **binary
//! and example roots are separate crates** — `src/bin/*.rs` and
//! `examples/*.rs` each start their own crate, and an attribute in the
//! sibling `lib.rs` does nothing for them.
//!
//! Scope: every crate. A crate that genuinely cannot forbid unsafe code
//! would be listed in the rule's `exempt` as `("crates/<name>", reason)`
//! (none today).

use crate::engine::FileCtx;
use crate::rules::{Emit, Rule};

/// The rule value registered in [`crate::rules::all`].
pub const RULE: Rule = Rule {
    name: "forbid-unsafe",
    summary: "every crate root (lib, bin, example) carries #![forbid(unsafe_code)]",
    paths: &["crates"],
    exempt: &[],
    crate_root_only: true,
    check,
};

fn check(ctx: &FileCtx<'_>, emit: &mut Emit<'_>) {
    let code = ctx.code_indices();
    // Look for `# ! [ forbid ( … unsafe_code … ) ]`.
    for (k, &i) in code.iter().enumerate() {
        if !ctx.tokens[i].is_punct('#') {
            continue;
        }
        if !code
            .get(k + 1)
            .is_some_and(|&j| ctx.tokens[j].is_punct('!'))
        {
            continue;
        }
        if !code
            .get(k + 2)
            .is_some_and(|&j| ctx.tokens[j].is_punct('['))
        {
            continue;
        }
        if !code
            .get(k + 3)
            .is_some_and(|&j| ctx.tokens[j].is_ident("forbid"))
        {
            continue;
        }
        // Scan the attribute's argument list for `unsafe_code`.
        let mut j = k + 4;
        while j < code.len() && !ctx.tokens[code[j]].is_punct(']') {
            if ctx.tokens[code[j]].is_ident("unsafe_code") {
                return; // satisfied
            }
            j += 1;
        }
    }
    emit(
        1,
        "crate root is missing `#![forbid(unsafe_code)]` (bins and examples are \
         their own crates; the attribute in lib.rs does not cover them)"
            .to_string(),
    );
}
