//! The rule catalogue.
//!
//! Each rule is a pure function over a lexed [`FileCtx`]: no type
//! information, no macro expansion — these are *lexical* rules, chosen
//! so that the pattern they match is a reliable signal at the paths the
//! rule scopes itself to. Where a rule is a heuristic (see
//! [`guard_send`]) its module documents exactly what it can and cannot
//! see.
//!
//! A rule carries its own scope: the workspace-relative path prefixes it
//! runs on ([`Rule::paths`]) and the prefixes excused from it, each with
//! its reason ([`Rule::exempt`]). Each module's docs say why its scope is
//! what it is. Every rule finding is an error.
//!
//! Adding a rule:
//!
//! 1. add a module with a `RULE` constant (name, summary, `paths`,
//!    `exempt`) and a `check` function,
//! 2. list it in [`all`],
//! 3. give it `hit.rs`/`clean.rs` fixtures under `fixtures/<rule>/`
//!    and a case in `tests/fixtures.rs`,
//! 4. document it in the README's rule catalogue.

pub mod forbid_unsafe;
pub mod guard_send;
pub mod panic_service;
pub mod randomness;
pub mod unbounded_read;
pub mod unordered;
pub mod wall_clock;

use crate::engine::FileCtx;
use crate::walker::path_has_prefix;

/// Callback rules use to report: `(line, message)`.
pub type Emit<'e> = dyn FnMut(u32, String) + 'e;

/// One registered rule.
pub struct Rule {
    /// Rule name as used in suppressions.
    pub name: &'static str,
    /// One-line description for `--list-rules` and the README.
    pub summary: &'static str,
    /// Workspace-relative path prefixes the rule runs on. Scope is
    /// always explicit: a file under none of them is never checked.
    pub paths: &'static [&'static str],
    /// `(path prefix, reason)` pairs excused from the rule inside its
    /// `paths`. The reason is the documentation and must not be empty.
    pub exempt: &'static [(&'static str, &'static str)],
    /// When set, the rule only runs on crate-root files.
    pub crate_root_only: bool,
    /// The check itself.
    pub check: fn(&FileCtx<'_>, &mut Emit<'_>),
}

impl Rule {
    /// Whether the workspace-relative `rel` is in this rule's scope:
    /// under one of its [`paths`](Rule::paths) and under no exemption.
    #[must_use]
    pub fn scopes(&self, rel: &str) -> bool {
        self.paths.iter().any(|p| path_has_prefix(rel, p))
            && !self.exempt.iter().any(|(p, _)| path_has_prefix(rel, p))
    }
}

static ALL: [Rule; 7] = [
    wall_clock::RULE,
    randomness::RULE,
    unordered::RULE,
    panic_service::RULE,
    guard_send::RULE,
    forbid_unsafe::RULE,
    unbounded_read::RULE,
];

/// Every rule, in report order.
#[must_use]
pub fn all() -> &'static [Rule] {
    &ALL
}

/// Looks a rule up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Rule> {
    all().iter().find(|r| r.name == name)
}
