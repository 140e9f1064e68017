//! The check catalog.
//!
//! Each check is a pure function over the loaded [`Workspace`] that pushes
//! [`Diagnostic`]s. To add one: write a module here, give it a kebab-case
//! name (that name is what `tidy-allow(<name>)` silences), list it in
//! [`all`], document it in DESIGN.md, and seed a fixture under
//! `crates/tidy/tests/fixtures/` proving it both fires and respects an
//! allow annotation. What clippy or the type system can say does not
//! belong here (see DESIGN.md, "Static guarantees").

pub mod deps;
pub mod directory_hygiene;
pub mod events;
pub mod metric_keys;
pub mod module_size;

use crate::diag::Diagnostic;
use crate::walk::Workspace;

/// A registered check.
pub struct Check {
    /// The name `tidy-allow(<name>)` refers to.
    pub name: &'static str,
    /// One-line description (shown by `--list`).
    pub desc: &'static str,
    pub run: fn(&Workspace, &mut Vec<Diagnostic>),
}

/// Every check, in execution order.
pub fn all() -> Vec<Check> {
    vec![
        Check {
            name: metric_keys::NAME,
            desc: "metric keys are declared once in keys.rs and actually used",
            run: metric_keys::run,
        },
        Check {
            name: events::NAME,
            desc: "every protocol-event kind is exercised by a test or golden snapshot",
            run: events::run,
        },
        Check {
            name: deps::NAME,
            desc: "crate dependencies point down the layering",
            run: deps::run,
        },
        Check {
            name: module_size::NAME,
            desc: "protocol modules stay under the 700-line budget (no waiver)",
            run: module_size::run,
        },
        Check {
            name: directory_hygiene::NAME,
            desc: "LWG lookups go through the GroupDirectory's indexes: no \
                   full-table walks or raw record maps outside the directory \
                   module",
            run: directory_hygiene::run,
        },
    ]
}

/// Is `name` a check the allowlist may reference?
pub fn known(name: &str) -> bool {
    all().iter().any(|c| c.name == name)
}

/// Allowlist hygiene, run after every check: annotations must name a real
/// check, justify themselves, and actually silence something.
pub fn allow_hygiene(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        for a in &file.allows {
            let msg = if !known(&a.check) {
                format!("annotation names unknown check `{}`", a.check)
            } else if a.reason.is_empty() {
                format!(
                    "tidy-allow({}) needs a justification: `// tidy-allow({}): <reason>`",
                    a.check, a.check
                )
            } else if !a.used.get() {
                format!(
                    "stale annotation: tidy-allow({}) silences nothing — remove it",
                    a.check
                )
            } else {
                continue;
            };
            out.push(Diagnostic {
                rel: file.rel.clone(),
                line: a.line,
                check: "tidy-allow",
                msg,
            });
        }
    }
}
