//! `guard-across-send` — no lock guard held across a channel send or
//! socket write.
//!
//! The stalled-client hazard the service was designed around (PR 6): a
//! bounded channel `.send(…)` or a socket write can block for as long
//! as the slowest consumer; holding a `MutexGuard` across that block
//! turns one stalled client into a server-wide stall the moment any
//! other thread touches the same lock.
//!
//! # Heuristic
//!
//! This is the one deliberately *heuristic* rule. It flags a pattern:
//!
//! 1. a `let` statement that binds the result of a lock acquisition —
//!    any call of an identifier named `lock`, `lock_*` or `try_lock`
//!    in the initializer (so guards obtained through poison-recovery
//!    helpers are still seen),
//! 2. followed, while that binding is still in scope (same or deeper
//!    brace depth, no `drop(<binding>)` yet), by a `.send(`,
//!    `.try_send(`, `.write_all(` or `.flush(` call.
//!
//! It cannot see guards returned from functions that do not say "lock",
//! guards bound by `if let`/`while let` patterns, or guards threaded
//! through fields — the integration tests and the
//! bounded-channel design remain the backstop for those. False
//! positives (the binding was a value copied *out* of the guard, not
//! the guard itself) carry an inline suppression with the reason.
//!
//! Scope: `crates/service/src`.

use crate::engine::FileCtx;
use crate::lexer::TokKind;
use crate::rules::{Emit, Rule};

/// The rule value registered in [`crate::rules::all`].
pub const RULE: Rule = Rule {
    name: "guard-across-send",
    summary: "no lock guard live across channel sends or socket writes",
    paths: &["crates/service/src"],
    exempt: &[],
    crate_root_only: false,
    check,
};

const BLOCKING_CALLS: [&str; 4] = ["send", "try_send", "write_all", "flush"];

fn is_lock_call(name: &str) -> bool {
    name == "lock" || name == "try_lock" || name.starts_with("lock_")
}

fn check(ctx: &FileCtx<'_>, emit: &mut Emit<'_>) {
    let code = ctx.code_indices();
    let mut k = 0usize;
    while k < code.len() {
        if !ctx.tokens[code[k]].is_ident("let") {
            k += 1;
            continue;
        }
        // `if let` / `while let` are pattern matches, not guard
        // bindings, and have no terminating `;` — skip them so the
        // statement scan below cannot run past the conditional.
        if k >= 1 {
            let prev = &ctx.tokens[code[k - 1]];
            if prev.is_ident("if") || prev.is_ident("while") {
                k += 1;
                continue;
            }
        }
        let let_depth = ctx.depth[code[k]];
        // Binder: the first identifier after `let`, skipping `mut`.
        let mut b = k + 1;
        while b < code.len() && ctx.tokens[code[b]].is_ident("mut") {
            b += 1;
        }
        let Some(binder) = code
            .get(b)
            .map(|&i| &ctx.tokens[i])
            .filter(|t| t.kind == TokKind::Ident)
        else {
            k += 1;
            continue;
        };
        let binder_name = binder.text;
        // Statement end: the `;` back at the `let`'s depth.
        let mut stmt_end = b;
        let mut has_lock = false;
        while stmt_end < code.len() {
            let t = &ctx.tokens[code[stmt_end]];
            if t.kind == TokKind::Ident
                && is_lock_call(t.text)
                && stmt_end + 1 < code.len()
                && ctx.tokens[code[stmt_end + 1]].is_punct('(')
            {
                has_lock = true;
            }
            if t.is_punct(';') && ctx.depth[code[stmt_end]] <= let_depth {
                break;
            }
            if ctx.depth[code[stmt_end]] < let_depth {
                // The enclosing block closed before any `;` — this was
                // not a plain `let` statement after all.
                has_lock = false;
                break;
            }
            stmt_end += 1;
        }
        if !has_lock {
            k += 1;
            continue;
        }
        // The guard is live from the end of the statement until the
        // enclosing block closes or it is explicitly dropped.
        let mut j = stmt_end + 1;
        while j < code.len() {
            let t = &ctx.tokens[code[j]];
            if ctx.depth[code[j]] < let_depth {
                break;
            }
            if t.is_ident("drop")
                && j + 2 < code.len()
                && ctx.tokens[code[j + 1]].is_punct('(')
                && ctx.tokens[code[j + 2]].is_ident(binder_name)
            {
                break;
            }
            if t.kind == TokKind::Ident
                && BLOCKING_CALLS.contains(&t.text)
                && j >= 1
                && ctx.tokens[code[j - 1]].is_punct('.')
                && j + 1 < code.len()
                && ctx.tokens[code[j + 1]].is_punct('(')
            {
                emit(
                    t.line,
                    format!(
                        "`{binder_name}` (bound from a lock acquisition) is still live \
                         across this `.{}()`; a blocked consumer would hold the lock — \
                         drop the guard first",
                        t.text
                    ),
                );
            }
            j += 1;
        }
        k = stmt_end + 1;
    }
}
