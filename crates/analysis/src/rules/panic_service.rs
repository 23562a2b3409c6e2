//! `panic-in-service` — no panicking constructs in service code.
//!
//! `sqipd` is the long-running piece of this repo: a panic in a worker,
//! reader or writer thread kills jobs other clients are waiting on (or
//! poisons a lock every other thread then trips over). Service code
//! must degrade — report the error to the one affected client and keep
//! serving.
//!
//! Flagged in scoped, non-test code:
//!
//! - `.unwrap(` / `.expect(` method calls (`unwrap_or`,
//!   `unwrap_or_else`, `unwrap_or_default` are recovery, not panics,
//!   and are *not* flagged),
//! - the `panic!`, `unreachable!`, `todo!`, `unimplemented!` macros.
//!
//! `assert!`-family macros are deliberately not flagged: the service
//! uses `debug_assert!` for hot-path invariants, which compiles out of
//! release builds.
//!
//! Scope: `crates/service/src`.

use crate::engine::FileCtx;
use crate::lexer::TokKind;
use crate::rules::{Emit, Rule};

/// The rule value registered in [`crate::rules::all`].
pub const RULE: Rule = Rule {
    name: "panic-in-service",
    summary: "no unwrap/expect/panic!/unreachable! in service code; degrade gracefully",
    paths: &["crates/service/src"],
    exempt: &[],
    crate_root_only: false,
    check,
};

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn check(ctx: &FileCtx<'_>, emit: &mut Emit<'_>) {
    let code = ctx.code_indices();
    for (k, &i) in code.iter().enumerate() {
        let t = &ctx.tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `.unwrap(` / `.expect(`
        if (t.text == "unwrap" || t.text == "expect")
            && k >= 1
            && ctx.tokens[code[k - 1]].is_punct('.')
            && k + 1 < code.len()
            && ctx.tokens[code[k + 1]].is_punct('(')
        {
            emit(
                t.line,
                format!(
                    "`.{}()` can panic the service; match on the error (or recover \
                     from lock poisoning) and keep serving",
                    t.text
                ),
            );
            continue;
        }
        // `panic!(` etc.
        if PANIC_MACROS.contains(&t.text)
            && k + 1 < code.len()
            && ctx.tokens[code[k + 1]].is_punct('!')
        {
            emit(
                t.line,
                format!(
                    "`{}!` aborts the thread and strands in-flight jobs; return an \
                     error response instead",
                    t.text
                ),
            );
        }
    }
}
