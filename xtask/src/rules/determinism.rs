//! Rule: the simulation and analysis crates must be bit-reproducible.
//!
//! Every figure and table in this repo is regenerated from seeded
//! simulation; a single wall-clock read or entropy-seeded RNG makes a
//! run unreproducible and silently invalidates cross-run comparisons.
//! This rule bans the constructs that smuggle nondeterminism in:
//!
//! - `thread_rng` / `from_entropy` / `OsRng` / `rand::random` — RNGs
//!   without an explicit caller-supplied seed;
//! - `SystemTime::now` / `Instant::now` — wall-clock reads (timing
//!   *outputs* belong in the `benchmark/` harness, not in sim/analysis).
//!
//! Scope: non-test code in `crates/sim/src` and `crates/analysis/src`.

use crate::lex;
use crate::source;
use crate::violation::Violation;
use crate::workspace::{rel, rust_files};
use std::path::Path;

const RULE: &str = "determinism";

/// Path → why it is banned. Paths are matched as token sequences via
/// [`lex::find_path`] over comment/string-stripped, test-stripped
/// source, so a longer identifier (`my_thread_rng`) never matches.
const BANNED: &[(&str, &str)] = &[
    (
        "thread_rng",
        "entropy-seeded RNG; take an explicit seed instead",
    ),
    (
        "from_entropy",
        "entropy-seeded RNG; use SeedableRng::seed_from_u64",
    ),
    (
        "OsRng",
        "OS entropy source; deterministic crates must not read it",
    ),
    (
        "rand::random",
        "implicit thread-local RNG; take an explicit seed",
    ),
    ("SystemTime::now", "wall-clock read; pass times in as data"),
    (
        "Instant::now",
        "wall-clock read; timing belongs in the benchmark/ harness",
    ),
];

/// Directories whose non-test code must be deterministic.
pub const SCOPED_DIRS: &[&str] = &["crates/sim/src", "crates/analysis/src"];

/// Runs the rule over `root` and returns every finding.
pub fn check(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    for dir in SCOPED_DIRS {
        let dir_path = root.join(dir);
        for file in rust_files(&dir_path) {
            let Ok(text) = std::fs::read_to_string(&file) else {
                out.push(Violation::internal(
                    RULE,
                    rel(root, &file),
                    0,
                    "unreadable file",
                ));
                continue;
            };
            let masked = source::mask_cfg_test_items(&source::mask_comments_and_strings(&text));
            let toks = lex::lex(&masked);
            for (token, why) in BANNED {
                for idx in lex::find_path(&toks, token) {
                    out.push(Violation::new(
                        RULE,
                        rel(root, &file),
                        toks[idx].line,
                        format!("`{token}` in deterministic crate: {why}"),
                    ));
                }
            }
        }
    }
    out
}
