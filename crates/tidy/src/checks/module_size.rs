//! `module-size` — protocol modules stay under 700 lines.
//!
//! PR 4 split the 2,058-line `service.rs` into per-concern modules and
//! set a 700-line budget so no module regrows into a god-file. The budget
//! applies to the protocol crates' `src/` trees and cannot be waived: the
//! check consults no annotation, so a `tidy-allow` naming it is itself
//! reported, as a stale annotation.

use crate::diag::Diagnostic;
use crate::walk::Workspace;

pub const NAME: &str = "module-size";

pub const BUDGET: usize = 700;

/// The crates whose `src/` trees carry protocol logic.
const PROTOCOL_CRATES: [&str; 6] = ["core", "hwg", "naming", "net", "sim", "vsync"];

pub fn run(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for dir in PROTOCOL_CRATES {
        for file in ws.crate_files(dir) {
            let lines = file.raw.lines().count();
            if lines > BUDGET {
                out.push(Diagnostic {
                    rel: file.rel.clone(),
                    line: 1,
                    check: NAME,
                    msg: format!(
                        "{lines} lines exceeds the {BUDGET}-line module budget; \
                         split by concern (see DESIGN.md, \"Static guarantees\")"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn file_of(rel: &str, lines: usize) -> SourceFile {
        SourceFile::new(rel.into(), Some("core".into()), "fn f() {}\n".repeat(lines))
    }

    #[test]
    fn the_budget_is_inclusive() {
        let ws = Workspace {
            files: vec![
                file_of("crates/core/src/at_budget.rs", BUDGET),
                file_of("crates/core/src/over.rs", BUDGET + 1),
            ],
            corpus: Vec::new(),
            golden: Vec::new(),
            manifests: Vec::new(),
        };
        let mut out = Vec::new();
        run(&ws, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rel, "crates/core/src/over.rs");
        assert!(out[0].msg.contains("701 lines"), "{}", out[0].msg);
    }
}
