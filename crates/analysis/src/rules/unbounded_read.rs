//! `unbounded-read` — no line or whole-stream read without a length
//! limit in service code.
//!
//! `sqipd` reads bytes it does not control: request lines from any
//! client, response lines from a server, and a journal file that may
//! have been damaged. `read_line`, `read_until` and `BufRead::lines`
//! buffer until they see a newline, and `read_to_end` /
//! `read_to_string` until the stream ends, so one peer or file with no
//! newline can make the process allocate without bound. Service code
//! caps every such read with `Read::take` (the crate's
//! `read_bounded_line` does this for line framing).
//!
//! Flagged in scoped, non-test code: a call of `read_line`,
//! `read_until`, `lines`, `read_to_end` or `read_to_string`, as a method
//! (`.read_line(`) or a path (`fs::read_to_string(`), unless a `take(`
//! call appears earlier in the same statement
//! (`Read::take(&mut *r, cap).read_until(…)`).
//!
//! The rule is lexical, so it cannot tell `BufRead::lines` from
//! `str::lines` on text already in memory; such a call (none today)
//! takes an inline suppression with its reason.
//!
//! Scope: `crates/service/src`.

use crate::engine::FileCtx;
use crate::lexer::TokKind;
use crate::rules::{Emit, Rule};

/// The rule value registered in [`crate::rules::all`].
pub const RULE: Rule = Rule {
    name: "unbounded-read",
    summary: "no read_line/read_until/lines/read_to_end/read_to_string without a take limit",
    paths: &["crates/service/src"],
    exempt: &[],
    crate_root_only: false,
    check,
};

const UNBOUNDED_READS: [&str; 5] = [
    "read_line",
    "read_until",
    "lines",
    "read_to_end",
    "read_to_string",
];

fn check(ctx: &FileCtx<'_>, emit: &mut Emit<'_>) {
    let code = ctx.code_indices();
    for (k, &i) in code.iter().enumerate() {
        let t = &ctx.tokens[i];
        if t.kind != TokKind::Ident || !UNBOUNDED_READS.contains(&t.text) {
            continue;
        }
        // A call (`name(`) reached through `.` or `::` — not a
        // definition (`fn read_line(`) or a bare local of that name.
        let called = k + 1 < code.len() && ctx.tokens[code[k + 1]].is_punct('(');
        let reached = k >= 1 && {
            let prev = &ctx.tokens[code[k - 1]];
            prev.is_punct('.') || prev.is_punct(':')
        };
        if !called || !reached {
            continue;
        }
        // Bounded if a `take(` call precedes it in the same statement.
        let mut bounded = false;
        for j in (0..k).rev() {
            let b = &ctx.tokens[code[j]];
            if b.is_punct(';') || b.is_punct('{') || b.is_punct('}') {
                break;
            }
            if b.is_ident("take") && ctx.tokens[code[j + 1]].is_punct('(') {
                bounded = true;
                break;
            }
        }
        if !bounded {
            emit(
                t.line,
                format!(
                    "`{}` reads until a newline or end of stream with no length limit; \
                     cap it with `Read::take` so hostile input cannot grow it without bound",
                    t.text
                ),
            );
        }
    }
}
