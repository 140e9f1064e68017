//! plwg-tidy's own test suite.
//!
//! The fixture mini-workspace under `tests/fixtures/ws/` seeds at least
//! one violation of every check category *and* one `tidy-allow`-silenced
//! variant of each that takes a waiver, so these tests prove both
//! directions: every check fires at the exact file:line it should, and the
//! annotation is honoured. (The module-size budget is tested in-memory in
//! `checks/module_size.rs`; neither it nor the manifest rule of `deps` takes
//! a waiver.) The final test runs the real workspace through the same pass
//! and requires it clean — the invariant CI enforces.

use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/tidy sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn every_check_fires_at_the_seeded_site() {
    let diags = plwg_tidy::run(&fixture_root()).expect("fixture workspace loads");
    let got: Vec<(&str, usize, &str)> = diags
        .iter()
        .map(|d| (d.rel.as_str(), d.line, d.check))
        .collect();
    let want: Vec<(&str, usize, &str)> = vec![
        ("crates/core/Cargo.toml", 6, "deps"),
        ("crates/core/src/dir_scan.rs", 4, "directory-hygiene"),
        ("crates/core/src/dir_scan.rs", 7, "directory-hygiene"),
        ("crates/core/src/hygiene.rs", 3, "tidy-allow"),
        ("crates/core/src/hygiene.rs", 4, "tidy-allow"),
        ("crates/core/src/hygiene.rs", 5, "tidy-allow"),
        ("crates/core/src/keys.rs", 7, "metric-keys"),
        ("crates/core/src/metrics_use.rs", 6, "metric-keys"),
        ("crates/core/src/protocol_events.rs", 15, "event-coverage"),
        ("crates/hwg/Cargo.toml", 5, "deps"),
    ];
    let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert_eq!(got, want, "full fixture output:\n{}", rendered.join("\n"));
}

#[test]
fn messages_name_the_remedy() {
    let diags = plwg_tidy::run(&fixture_root()).expect("fixture workspace loads");
    let msg_at = |rel: &str, line: usize| -> &str {
        &diags
            .iter()
            .find(|d| d.rel == rel && d.line == line)
            .unwrap_or_else(|| panic!("no diagnostic at {rel}:{line}"))
            .msg
    };
    assert!(msg_at("crates/core/src/dir_scan.rs", 4).contains("indexed query"));
    assert!(msg_at("crates/core/src/dir_scan.rs", 7).contains("GroupDirectory"));
    assert!(msg_at("crates/core/src/keys.rs", 7).contains("dead metric key `DEAD_KEY`"));
    assert!(msg_at("crates/core/src/metrics_use.rs", 6).contains("inline `CounterKey::new"));
    assert!(
        msg_at("crates/core/src/protocol_events.rs", 15).contains("`fx.ghost` (FxEvent::Ghost)")
    );
    assert!(msg_at("crates/core/src/hygiene.rs", 3).contains("unknown check `no-such-check`"));
    assert!(msg_at("crates/core/src/hygiene.rs", 4).contains("needs a justification"));
    assert!(msg_at("crates/core/src/hygiene.rs", 5).contains("stale annotation"));
    assert!(msg_at("crates/hwg/Cargo.toml", 5).contains("must not depend on `plwg-naming`"));
}

/// Every allow annotation the fixtures use to *silence* a violation must
/// actually silence it: none of those sites may appear in the output.
#[test]
fn allow_annotations_are_honoured() {
    let diags = plwg_tidy::run(&fixture_root()).expect("fixture workspace loads");
    let silenced: [(&str, usize); 4] = [
        ("crates/core/src/dir_scan.rs", 10),   // allowed directory walk
        ("crates/core/src/keys.rs", 9),        // allowed-dead key
        ("crates/core/src/metrics_use.rs", 8), // allowed inline key
        ("crates/core/src/protocol_events.rs", 17), // allowed uncovered kind
    ];
    for (rel, line) in silenced {
        assert!(
            !diags.iter().any(|d| d.rel == rel && d.line == line),
            "tidy-allow at {rel}:{line} was not honoured"
        );
    }
}

/// The gate CI relies on: the real workspace passes its own tidy.
#[test]
fn real_workspace_is_clean() {
    let diags = plwg_tidy::run(&workspace_root()).expect("workspace loads");
    let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert!(
        diags.is_empty(),
        "plwg-tidy found {} diagnostic(s) in the tree:\n{}",
        diags.len(),
        rendered.join("\n")
    );
}
