//! The check catalog.
//!
//! Each check is a pure function over the loaded [`Workspace`] that pushes
//! [`Diagnostic`]s. To add one: write a module here, give it a kebab-case
//! name (that name is what `tidy-allow(<name>)` silences), list it in
//! [`all`], document it in DESIGN.md, and seed a fixture under
//! `crates/tidy/tests/fixtures/` proving it both fires and respects an
//! allow annotation.

pub mod deps;
pub mod determinism;
pub mod directory_hygiene;
pub mod events;
pub mod metric_keys;
pub mod module_size;
pub mod panics;
pub mod wire_hygiene;

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
            name: determinism::NAME,
            desc: "protocol crates must stay deterministic: no HashMap/HashSet, \
                   Instant/SystemTime, thread_rng, or float-keyed maps",
            run: determinism::run,
        },
        Check {
            name: panics::NAME,
            desc: "hot-path modules must not panic: no unwrap/expect/panic!/indexing",
            run: panics::run,
        },
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
            desc: "crate dependencies point down the layering; only the facade and \
                   harness crates pin VsyncStack",
            run: deps::run,
        },
        Check {
            name: module_size::NAME,
            desc: "protocol modules stay under the 700-line budget (no waiver)",
            run: module_size::run,
        },
        Check {
            name: wire_hygiene::NAME,
            desc: "payloads are wire frames, never type-erased values: no \
                   Rc<dyn Any>, downcast, or payload::<T> in the data plane",
            run: wire_hygiene::run,
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
    let rs = ws.files.iter().map(|f| (f.rel.as_str(), &f.allows));
    let toml = ws.manifests.iter().map(|m| (m.rel.as_str(), &m.allows));
    for (rel, allows) in rs.chain(toml) {
        for a in allows {
            if !known(&a.check) {
                out.push(Diagnostic {
                    rel: rel.to_string(),
                    line: a.line,
                    check: "tidy-allow",
                    msg: format!("annotation names unknown check `{}`", a.check),
                });
            } else if a.reason.is_empty() {
                out.push(Diagnostic {
                    rel: rel.to_string(),
                    line: a.line,
                    check: "tidy-allow",
                    msg: format!(
                        "tidy-allow({}) needs a justification: `// tidy-allow({}): <reason>`",
                        a.check, a.check
                    ),
                });
            } else if !a.used.get() {
                out.push(Diagnostic {
                    rel: rel.to_string(),
                    line: a.line,
                    check: "tidy-allow",
                    msg: format!(
                        "stale annotation: tidy-allow({}) silences nothing — remove it",
                        a.check
                    ),
                });
            }
        }
    }
}

/// The crates whose `src/` trees carry protocol logic and therefore the
/// determinism and module-size obligations.
pub const PROTOCOL_CRATES: [&str; 6] = ["core", "hwg", "naming", "net", "sim", "vsync"];
