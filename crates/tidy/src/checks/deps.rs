//! `deps` — dependencies point down the layering.
//!
//! PR 4's substrate extraction established the layering (PR 8 slotted the
//! codec crate underneath the simulator)
//!
//! ```text
//! wire  →  sim  →  hwg  →  { vsync, naming }  →  core  →  facade / obs / bench
//! ```
//!
//! and made `plwg-core` generic over `HwgSubstrate` precisely so the
//! protocol layer never names `VsyncStack`. A protocol crate's
//! `[dependencies]` may therefore only contain the `plwg-*` crates below
//! it (dev-dependencies are free: tests may close the loop, e.g. core's
//! integration tests run over the real stack). The compiler does the rest:
//! a crate that cannot depend on `plwg-vsync` cannot name `VsyncStack`.

use crate::diag::Diagnostic;
use crate::walk::{DepSection, Workspace};

pub const NAME: &str = "deps";

/// `crates/<dir>` → the `plwg-*` crates its `[dependencies]` may name.
/// Crates absent from this table (obs, bench, tidy) sit above the facade
/// line and are unconstrained.
const ALLOWED: [(&str, &[&str]); 7] = [
    ("wire", &[]),
    ("sim", &["plwg-wire"]),
    ("hwg", &["plwg-wire", "plwg-sim"]),
    ("vsync", &["plwg-wire", "plwg-sim", "plwg-hwg"]),
    ("naming", &["plwg-wire", "plwg-sim", "plwg-hwg"]),
    (
        "core",
        &["plwg-wire", "plwg-sim", "plwg-hwg", "plwg-naming"],
    ),
    // The net runtime sits beside the facade: it may pin the concrete
    // vsync substrate (it exists to run it over real sockets) but must
    // not reach into the LWG service layer.
    ("net", &["plwg-wire", "plwg-sim", "plwg-hwg", "plwg-vsync"]),
];

pub fn run(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for m in &ws.manifests {
        let Some((_, allowed)) = ALLOWED.iter().find(|(d, _)| *d == m.crate_dir) else {
            continue;
        };
        for (sec, name, line) in &m.deps {
            if *sec != DepSection::Normal || !name.starts_with("plwg-") {
                continue;
            }
            if !allowed.contains(&name.as_str()) {
                out.push(Diagnostic {
                    rel: m.rel.clone(),
                    line: *line,
                    check: NAME,
                    msg: format!(
                        "`{}` must not depend on `{name}` (layering: sim → hwg → \
                         vsync/naming → core); move it to [dev-dependencies] or \
                         invert the dependency",
                        m.crate_dir
                    ),
                });
            }
        }
    }
}
