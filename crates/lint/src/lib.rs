//! `rds-lint`: a workspace-aware static-analysis pass for the repo
//! invariants clippy cannot express — indexing by literal on the serving
//! path (L1), the fallible-construction contract (L4), the one
//! checkpoint-error constructor (L5), lock-free publication (L6), the
//! tenant registry's locking discipline (L9) and the allocation-free
//! arrival path (L10).
//!
//! The rest of the invariants live in toolchain config: the root
//! `clippy.toml` bans raw writes and ambient clocks
//! (`disallowed_methods`, formerly L2/L3), and each serving crate root
//! denies clippy's panic and truncating-cast lints (formerly L1's panic
//! half, L7, L8 and L9's panic half). `tests/clippy_rules.rs` pins both.
//!
//! The crate is deliberately dependency-free: a hand-rolled Rust lexer
//! ([`lexer`]) feeds a token-stream rule engine ([`rules`]) that knows
//! which crates each rule scopes to and which `#[cfg(test)]`/`#[test]`
//! regions are exempt. The binary (`cargo run -p rds-lint`) scans every
//! first-party `.rs` file, prints `file:line:col: rule-id message`
//! diagnostics, writes a machine-readable `LINT_report.json`, and exits
//! nonzero on any finding — `ci.sh` gates on it between clippy and the
//! doc build.
//!
//! Escape hatch: `// lint:allow(<rule>) <justification>` on the
//! offending line or the line above suppresses one rule there; an empty
//! justification invalidates the allow and is itself reported (L0), as
//! is an allow naming a rule that moved to clippy (those sites write
//! `#[expect(<lint>, reason = "...")]`).

pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

pub use rules::{check_file, Finding, RULES};

use std::path::Path;

/// Scans the workspace rooted at `root`; returns the sorted findings and
/// the number of files scanned.
pub fn scan_workspace(root: &Path) -> (Vec<Finding>, usize) {
    let files = workspace::source_files(root);
    let n = files.len();
    let mut findings = Vec::new();
    for (rel, abs) in files {
        let Ok(src) = std::fs::read_to_string(&abs) else {
            continue;
        };
        findings.extend(check_file(&rel, &src));
    }
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    (findings, n)
}
