//! `ambient-randomness` — no unseeded randomness anywhere.
//!
//! Workloads, sweeps and the loader all take explicit seeds so that any
//! run can be reproduced bit-for-bit from its report. `thread_rng()`,
//! `rand::random()`, `from_entropy()` and OS entropy sources
//! (`OsRng`, `getrandom`) break that: their output cannot be replayed.
//! Seeded construction (`seed_from_u64`, `from_seed`) is the sanctioned
//! path and is not flagged.
//!
//! Scope: every crate, the bench and service crates included (the
//! loader's repeatability SLO depends on it).

use crate::engine::FileCtx;
use crate::lexer::TokKind;
use crate::rules::{Emit, Rule};

/// The rule value registered in [`crate::rules::all`].
pub const RULE: Rule = Rule {
    name: "ambient-randomness",
    summary: "no thread_rng/rand::random/OS entropy; randomness must be seeded",
    paths: &["crates"],
    exempt: &[],
    crate_root_only: false,
    check,
};

const AMBIENT: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "getrandom"];

fn check(ctx: &FileCtx<'_>, emit: &mut Emit<'_>) {
    let code = ctx.code_indices();
    for (k, &i) in code.iter().enumerate() {
        let t = &ctx.tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if AMBIENT.contains(&t.text) {
            emit(
                t.line,
                format!(
                    "`{}` is ambient randomness; construct a seeded RNG \
                     (e.g. `seed_from_u64`) so runs replay bit-for-bit",
                    t.text
                ),
            );
            continue;
        }
        // `rand::random` — three tokens back: `rand` `:` `:` `random`.
        if t.text == "random"
            && k >= 3
            && ctx.tokens[code[k - 1]].is_punct(':')
            && ctx.tokens[code[k - 2]].is_punct(':')
            && ctx.tokens[code[k - 3]].is_ident("rand")
        {
            emit(
                t.line,
                "`rand::random` draws from the ambient thread RNG; construct a \
                 seeded RNG so runs replay bit-for-bit"
                    .to_string(),
            );
        }
    }
}
