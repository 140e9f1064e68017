//! `module-size` — protocol modules stay under 700 lines.
//!
//! PR 4 split the 2,058-line `service.rs` into per-concern modules and
//! set a 700-line budget so no module regrows into a god-file. The budget
//! applies to the protocol crates' `src/` trees and cannot be waived: the
//! check consults no annotation, so a file-scope `tidy-allow` naming it is
//! itself reported, as a stale annotation.

use crate::diag::Diagnostic;
use crate::walk::Workspace;

pub const NAME: &str = "module-size";

pub const BUDGET: usize = 700;

pub fn run(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for dir in super::PROTOCOL_CRATES {
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
