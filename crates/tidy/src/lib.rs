//! `plwg-tidy` — the workspace's in-tree static-analysis pass.
//!
//! A rustc-`tidy`-style token scanner (pure `std`, no external
//! dependencies) that enforces the project invariants neither the type
//! system nor clippy can: metric-key liveness, protocol-event coverage,
//! dependency direction, directory hygiene and the module-size budget.
//! (Determinism and hot-path panic-freedom are clippy lints; see
//! DESIGN.md, "Static guarantees".) Run it with `cargo run -p plwg-tidy`;
//! CI fails on any diagnostic.
//!
//! Violations that are intentional carry an annotation in the source:
//!
//! ```text
//! // tidy-allow(<check>): <reason>          covers this line and the next
//! ```
//!
//! Annotations must name a real check and give a non-empty reason; stale
//! (unused) annotations are themselves diagnostics, so the allowlist can
//! only shrink over time. The check catalog lives in [`checks`].

pub mod checks;
pub mod diag;
pub mod source;
pub mod walk;

use diag::Diagnostic;
use std::path::Path;

/// Runs every check over the workspace rooted at `root` and returns the
/// surviving diagnostics, sorted by file and line.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let ws = walk::Workspace::load(root)?;
    let mut out = Vec::new();
    for check in checks::all() {
        (check.run)(&ws, &mut out);
    }
    // Allowlist hygiene runs last: it needs to know which annotations the
    // checks above consumed.
    checks::allow_hygiene(&ws, &mut out);
    out.sort();
    Ok(out)
}
