//! Fixture-driven integration tests: every rds-lint rule gets at least
//! one true positive and one false-positive guard, the allow comment
//! gets its full matrix, and the lexer edge cases prove strings,
//! comments and test regions never leak findings. The rules that moved
//! to clippy are pinned by `clippy_rules.rs`.

use rds_lint::{check_file, Finding};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Scans a fixture as if it lived at `path` in the workspace.
fn scan_as(name: &str, path: &str) -> Vec<Finding> {
    check_file(path, &fixture(name))
}

fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

const CORE_PATH: &str = "crates/core/src/fixture_under_test.rs";

#[test]
fn l1_flags_indexing_by_literal_and_spares_the_guards() {
    let f = scan_as("l1_cases.rs", CORE_PATH);
    // xs[0], a call result's [1], and both subscripts of grid[0][1]
    assert_eq!(lines_of(&f, "L1"), vec![6, 10, 14, 14], "{f:?}");
    // nothing else fires: the .get(0), the pattern, the array type and
    // literal, and the whole #[cfg(test)] mod are guards
    assert_eq!(f.len(), 4, "{f:?}");
    assert!(f.iter().all(|x| x.message.contains(".get(")), "{f:?}");
}

#[test]
fn l1_is_scoped_to_the_serving_crates() {
    // same content in a non-serving crate or a test tree: silent
    assert!(scan_as("l1_cases.rs", "crates/hashing/src/lib.rs").is_empty());
    assert!(scan_as("l1_cases.rs", "crates/cli/src/lib.rs").is_empty());
    assert!(scan_as("l1_cases.rs", "tests/integration.rs").is_empty());
    assert!(scan_as("l1_cases.rs", "crates/core/benches/speed.rs").is_empty());
    assert!(scan_as("l1_cases.rs", "crates/server/tests/http_robustness.rs").is_empty());
    // ... but the engine, the facade, the server and the tenant registry
    // are serving paths
    for path in [
        "crates/engine/src/lib.rs",
        "src/facade.rs",
        "crates/server/src/handlers/ingest.rs",
        "crates/tenant/src/registry.rs",
    ] {
        assert_eq!(lines_of(&scan_as("l1_cases.rs", path), "L1").len(), 4, "{path}");
    }
}

#[test]
fn allow_comments_suppress_bind_and_misfire_exactly_as_specified() {
    let f = scan_as("allow_cases.rs", CORE_PATH);
    // trailing, standalone and multi-line-standalone allows suppress
    // their target; the empty-justification and unknown-rule allows are
    // themselves L0 findings AND leave the violation standing; an allow
    // for the wrong rule suppresses nothing; an allow naming a rule that
    // moved to clippy is an L0 finding pointing at #[expect]
    assert_eq!(lines_of(&f, "L0"), vec![20, 25, 35], "{f:?}");
    assert_eq!(lines_of(&f, "L1"), vec![21, 26, 31], "{f:?}");
    assert_eq!(f.len(), 6, "{f:?}");
    let moved = f.iter().find(|x| x.line == 35).map(|x| x.message.as_str());
    assert!(moved.is_some_and(|m| m.contains("#[expect(")), "{f:?}");
}

#[test]
fn l4_requires_a_fallible_sibling_and_a_panic_free_body() {
    let missing = scan_as("l4_missing_sibling.rs", CORE_PATH);
    assert_eq!(lines_of(&missing, "L4"), vec![8], "{missing:?}");

    let with = scan_as("l4_with_sibling.rs", CORE_PATH);
    // the sibling exists, so only the assert! in the body fires; the
    // panic-free delegating new is a guard
    assert_eq!(lines_of(&with, "L4"), vec![10], "{with:?}");

    // L4 is a core-only contract
    assert!(scan_as("l4_missing_sibling.rs", "crates/engine/src/lib.rs").is_empty());
}

#[test]
fn l5_flags_literal_construction_but_not_patterns() {
    let f = scan_as("l5_cases.rs", CORE_PATH);
    assert_eq!(lines_of(&f, "L5"), vec![5, 9], "{f:?}");
    assert_eq!(f.len(), 2, "matches!/match-arm/if-let are guards: {f:?}");
    // the error module itself defines RdsError::checkpoint() and is blessed
    assert!(scan_as("l5_cases.rs", "crates/core/src/error.rs").is_empty());
}

#[test]
fn l6_flags_locks_in_frozen_impls_and_the_publication_path() {
    let f = scan_as("l6_cases.rs", CORE_PATH);
    // 11/25/26: locks inside frozen reader impls; 52/53: locks inside
    // impl SnapshotCell; 59/65/74: full-summary clones inside
    // SnapshotCell, fn freeze and RdsWriter::publish
    assert_eq!(lines_of(&f, "L6"), vec![11, 25, 26, 52, 53, 59, 65, 74], "{f:?}");
    // guards: WriterCell::publish locks freely (not RdsWriter), and
    // summary clones outside the publication path never fire
    assert_eq!(f.len(), 8, "{f:?}");
}

#[test]
fn l9_flags_spill_io_under_registry_wide_guards() {
    let f = scan_as("l9_cases.rs", "crates/tenant/src/registry.rs");
    // 7: write_container under the map guard; 13: spill_slot under the
    // ring guard. Guards: I/O after drop(guard), outside a scoped
    // temporary, under a per-tenant slot lock, after the guard's block
    // closes, and the test mod.
    assert_eq!(lines_of(&f, "L9"), vec![7, 13], "{f:?}");
    assert_eq!(f.len(), 2, "{f:?}");
    // the lock-discipline message names the remedy
    assert!(f.iter().all(|x| x.message.contains("drop the guard")), "{f:?}");
}

#[test]
fn l9_is_scoped_to_the_tenant_crate() {
    // the same content in core, in tenant test trees or in unrelated
    // crates stays silent
    assert!(scan_as("l9_cases.rs", CORE_PATH).is_empty());
    assert!(scan_as("l9_cases.rs", "crates/tenant/tests/registry.rs").is_empty());
    assert!(scan_as("l9_cases.rs", "crates/hashing/src/lib.rs").is_empty());
}

#[test]
fn l10_flags_maps_and_allocation_in_hot_path_fns_only() {
    let f = scan_as("l10_cases.rs", CORE_PATH);
    // 5/6: std maps; 7: Vec::new; 8: vec!; 13: format!; 14: .collect();
    // 20: Box::new; 21: .to_vec(). Guards: the p.clone() on the hot
    // path, the allocating process_batch_keyed and double_rate bodies
    // (cold/amortized paths, not in the scanned name set) and the test
    // mod.
    assert_eq!(lines_of(&f, "L10"), vec![5, 6, 7, 8, 13, 14, 20, 21], "{f:?}");
    assert_eq!(f.len(), 8, "{f:?}");
    // the map message names the blessed index, the allocation messages
    // name the remedy
    assert!(
        f.iter().all(|x| {
            x.message.contains("CandidateStore") || x.message.contains("the sampler")
        }),
        "{f:?}"
    );
}

#[test]
fn l10_flags_scratch_allocating_adjacency_wrappers_on_the_hot_path() {
    let f = scan_as("l10_adjacency_tp.rs", CORE_PATH);
    // 6: any_adjacent_sampled in process_point; 13: for_each_adjacent_cell_fold
    // and 14: for_each_adjacent_cell in insert_first_point
    assert_eq!(lines_of(&f, "L10"), vec![6, 13, 14], "{f:?}");
    assert_eq!(f.len(), 3, "{f:?}");
    assert!(f.iter().all(|x| x.message.contains("_with")), "{f:?}");
}

#[test]
fn l10_spares_the_with_forms_cold_paths_and_mentions() {
    let f = scan_as("l10_adjacency_fp.rs", CORE_PATH);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn l10_is_scoped_to_core_library_code() {
    // the same content outside rds-core, or in any test tree, is silent
    assert!(lines_of(&scan_as("l10_cases.rs", "crates/engine/src/lib.rs"), "L10").is_empty());
    assert!(scan_as("l10_cases.rs", "crates/hashing/src/lib.rs").is_empty());
    assert!(scan_as("l10_cases.rs", "crates/core/tests/hot_path.rs").is_empty());
    assert!(scan_as("l10_cases.rs", "crates/core/benches/speed.rs").is_empty());
}

#[test]
fn lexer_edges_hide_everything_except_the_live_violation() {
    let f = scan_as("lexer_edges.rs", CORE_PATH);
    // raw/nested-raw/byte strings, block comments, lifetimes, char
    // literals, raw identifiers and the test mod all stay silent; the
    // indexing under the multi-line attribute is the one real finding
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "L1");
    assert_eq!(f[0].line, 56);
}

#[test]
fn fixture_paths_are_exempt_wholesale() {
    // the fixtures directory itself is never scanned as library code
    for name in [
        "l1_cases.rs",
        "l4_missing_sibling.rs",
        "l5_cases.rs",
        "l6_cases.rs",
        "l9_cases.rs",
        "l10_cases.rs",
        "l10_adjacency_tp.rs",
        "lexer_edges.rs",
    ] {
        let path = format!("crates/lint/tests/fixtures/{name}");
        assert!(scan_as(name, &path).is_empty(), "{name} leaked findings");
    }
}

#[test]
fn findings_render_as_file_line_col_diagnostics() {
    let f = scan_as("l1_cases.rs", CORE_PATH);
    let text = rds_lint::report::render_text(&f);
    assert!(
        text.lines().next().unwrap_or_default().starts_with("crates/core/src/fixture_under_test.rs:6:"),
        "{text}"
    );
    let json = rds_lint::report::render_json("/repo", 1, &f);
    assert!(json.contains("\"finding_count\": 4"), "{json}");
}
