//! `wall-clock-in-sim` — no ambient wall-clock time in simulation
//! crates.
//!
//! Every result this repo pins — golden fixture bytes, shared≡per-cell
//! sweeps, the loader's repeat digest — depends on simulation being a
//! pure function of (trace, config, seed). `Instant::now()` or
//! `SystemTime` anywhere in the simulation crates would thread host
//! time into that function. The rule flags **any** mention of the two
//! types in scoped code: in a crate where time must be simulated
//! cycles, even holding an `Instant` in a struct is a smell.
//!
//! Scope: the ten simulation crates. `crates/bench` and `crates/service`
//! measure real time on purpose and are out of scope.

use crate::engine::FileCtx;
use crate::lexer::TokKind;
use crate::rules::{Emit, Rule};

/// The rule value registered in [`crate::rules::all`].
pub const RULE: Rule = Rule {
    name: "wall-clock-in-sim",
    summary: "no Instant/SystemTime in simulation crates; time is simulated cycles",
    paths: &[
        "crates/types",
        "crates/isa",
        "crates/mem",
        "crates/queues",
        "crates/predictors",
        "crates/cacti",
        "crates/core",
        "crates/workloads",
        "crates/snapshot",
        "crates/sqip",
    ],
    exempt: &[],
    crate_root_only: false,
    check,
};

fn check(ctx: &FileCtx<'_>, emit: &mut Emit<'_>) {
    for &i in &ctx.code_indices() {
        let t = &ctx.tokens[i];
        if t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            emit(
                t.line,
                format!(
                    "`{}` is ambient wall-clock time; simulation code must derive time \
                     from simulated cycles",
                    t.text
                ),
            );
        }
    }
}
