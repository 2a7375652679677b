//! The invariants the workspace hands to clippy, pinned end to end.
//!
//! `clippy_fixture/` is a standalone crate (its own `[workspace]`) that
//! carries the serving crates' lint header and every true positive of
//! the retired rds-lint rules. Clippy runs on it under the repo's root
//! `clippy.toml` and must report exactly the expected (line, lint)
//! findings. Every serving crate root must carry the fixture's header
//! verbatim, and the workspace must deny `#[allow]` the way the fixture
//! does, so dropping a lint anywhere fails here.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Short-format diagnostics carry no lint name; each known message
/// prefix maps to the lint that emits it.
const MESSAGES: &[(&str, &str)] = &[
    ("used `unwrap()` on", "clippy::unwrap_used"),
    ("used `expect()` on", "clippy::expect_used"),
    ("`panic` should not be present", "clippy::panic"),
    ("usage of the `unreachable!` macro", "clippy::unreachable"),
    ("`todo` should not be present", "clippy::todo"),
    (
        "`unimplemented` should not be present",
        "clippy::unimplemented",
    ),
    ("casting `", "clippy::cast_possible_truncation"),
    ("use of a disallowed method ", "clippy::disallowed_methods"),
    ("#[allow] attribute found", "clippy::allow_attributes"),
    (
        "`allow` attribute without specifying a reason",
        "clippy::allow_attributes_without_reason",
    ),
    (
        "this lint expectation is unfulfilled",
        "unfulfilled_lint_expectations",
    ),
];

/// Every finding the fixture must produce, by line. A disallowed method
/// is named with its path, so each `clippy.toml` entry is pinned.
const EXPECTED: &[(u32, &str)] = &[
    (26, "clippy::unwrap_used"),
    (30, "clippy::expect_used"),
    (34, "clippy::panic"),
    (40, "clippy::unreachable"),
    (45, "clippy::todo"),
    (49, "clippy::unimplemented"),
    (53, "clippy::unwrap_used"),
    (74, "clippy::allow_attributes"),
    (74, "clippy::allow_attributes_without_reason"),
    (80, "unfulfilled_lint_expectations"),
    (86, "unfulfilled_lint_expectations"),
    (88, "clippy::unwrap_used"),
    (94, "clippy::disallowed_methods `std::fs::write`"),
    (98, "clippy::disallowed_methods `std::fs::File::create`"),
    (102, "clippy::disallowed_methods `std::fs::rename`"),
    (
        106,
        "clippy::disallowed_methods `std::fs::OpenOptions::new`",
    ),
    (119, "clippy::disallowed_methods `std::time::Instant::now`"),
    (
        123,
        "clippy::disallowed_methods `std::time::SystemTime::now`",
    ),
    (143, "clippy::cast_possible_truncation"),
    (147, "clippy::cast_possible_truncation"),
    (151, "clippy::cast_possible_truncation"),
    (155, "clippy::cast_possible_truncation"),
];

/// The serving crate roots, and whether each denies truncating casts.
const SERVING_ROOTS: &[(&str, bool)] = &[
    ("crates/core/src/lib.rs", true),
    ("crates/engine/src/lib.rs", true),
    ("src/lib.rs", true),
    ("crates/server/src/lib.rs", false),
    ("crates/tenant/src/lib.rs", true),
];

const CAST_LINE: &str = "        clippy::cast_possible_truncation,\n";

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("clippy_fixture")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `#![cfg_attr(not(test), deny(...))]` block of a crate root.
fn lint_header(src: &str) -> Option<&str> {
    let start = src.find("#![cfg_attr(\n    not(test),")?;
    let len = src[start..].find("\n)]\n")? + "\n)]\n".len();
    Some(&src[start..start + len])
}

/// The `key = value` lines of the TOML table headed `name`.
fn toml_table<'a>(toml: &'a str, name: &str) -> Vec<&'a str> {
    toml.lines()
        .skip_while(|l| l.trim() != name)
        .skip(1)
        .take_while(|l| !l.trim().is_empty() && !l.starts_with('['))
        .collect()
}

fn label(message: &str) -> Option<String> {
    let (_, lint) = MESSAGES
        .iter()
        .find(|(prefix, _)| message.starts_with(prefix))?;
    let detail = message
        .strip_prefix("use of a disallowed method ")
        .map(|method| format!(" {method}"))
        .unwrap_or_default();
    Some(format!("{lint}{detail}"))
}

#[test]
fn clippy_reports_exactly_the_fixture_true_positives() {
    let out = Command::new(env!("CARGO"))
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--message-format=short",
            "--target-dir",
        ])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy_fixture"))
        .current_dir(fixture_dir())
        .output()
        .expect("cargo clippy runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut found = Vec::new();
    let mut unknown = Vec::new();
    for line in stderr.lines() {
        let Some(rest) = line.strip_prefix("src/lib.rs:") else {
            continue;
        };
        let mut parts = rest.splitn(3, ':');
        let (Some(line_no), Some(_col), Some(diag)) = (parts.next(), parts.next(), parts.next())
        else {
            unknown.push(line);
            continue;
        };
        let message = diag
            .trim_start()
            .strip_prefix("error: ")
            .or_else(|| diag.trim_start().strip_prefix("warning: "))
            .unwrap_or(diag);
        match (line_no.parse::<u32>(), label(message)) {
            (Ok(n), Some(lint)) => found.push((n, lint)),
            _ => unknown.push(line),
        }
    }
    assert!(
        unknown.is_empty(),
        "unrecognized diagnostics: {unknown:#?}\n{stderr}"
    );
    found.sort();
    let mut expected: Vec<(u32, String)> = EXPECTED
        .iter()
        .map(|&(n, lint)| (n, lint.to_string()))
        .collect();
    expected.sort();
    assert_eq!(found, expected, "{stderr}");
}

#[test]
fn every_serving_crate_root_carries_the_fixture_lint_header() {
    let fixture = read(&fixture_dir().join("src/lib.rs"));
    let header = lint_header(&fixture).expect("fixture carries the lint header");
    assert!(header.contains(CAST_LINE), "{header}");
    for &(root, casts) in SERVING_ROOTS {
        let want = if casts {
            header.to_string()
        } else {
            header.replace(CAST_LINE, "")
        };
        let src = read(&repo_root().join(root));
        assert_eq!(lint_header(&src), Some(want.as_str()), "{root}");
    }
}

#[test]
fn the_workspace_denies_allow_the_way_the_fixture_does() {
    let fixture = read(&fixture_dir().join("Cargo.toml"));
    let workspace = read(&repo_root().join("Cargo.toml"));
    let wanted = toml_table(&fixture, "[lints.clippy]");
    let have = toml_table(&workspace, "[workspace.lints.clippy]");
    assert!(!wanted.is_empty());
    for entry in wanted {
        assert!(
            have.contains(&entry),
            "`{entry}` missing from [workspace.lints.clippy]"
        );
    }
}
