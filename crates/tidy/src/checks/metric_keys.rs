//! `metric-keys` — one typed spelling per metric, and no dead metrics.
//!
//! Every counter/gauge/histogram name lives in a per-crate `keys.rs`
//! module as a typed `CounterKey`/`GaugeKey`/`HistogramKey` constant,
//! declared one per line (`pub const NAME: CounterKey = "dotted.name";`)
//! inside a `plwg_sim::metric_keys!` invocation, so that emitters and
//! readers (benches, workloads, tests) cannot drift apart on a string.
//! This check keeps that closed world closed:
//!
//! - **dead key**: a constant declared in a `keys.rs` that nothing else
//!   references — delete it (or wire up the reader that was meant to
//!   exist).
//! - **undeclared emission**: constructing a key inline (`CounterKey::
//!   new(…)` outside `keys.rs`) bypasses the shared spelling. (A bare
//!   string literal cannot reach a metrics call at all: the registry takes
//!   the key types themselves, and they have no `From<&str>`.)
//!
//! Known limitation (documented, accepted): references are matched by
//! constant *name*, so two crates declaring the same constant name can
//! shadow each other's liveness. Keep key constants distinct per layer.

use crate::diag::Diagnostic;
use crate::source::{word_matches, SourceFile};
use crate::walk::Workspace;

pub const NAME: &str = "metric-keys";

const KEY_TYPES: [&str; 3] = ["CounterKey", "GaugeKey", "HistogramKey"];

pub fn run(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let mut declared: Vec<(&SourceFile, usize, String)> = Vec::new();
    for file in &ws.files {
        if !is_keys_module(&file.rel) {
            continue;
        }
        for (line_no, line) in file.raw_lines() {
            let Some(name) = key_decl(line) else { continue };
            declared.push((file, line_no, name));
        }
    }

    // Dead keys: the constant's name appears nowhere outside its keys.rs.
    for (file, line_no, name) in &declared {
        let referenced = ws
            .files
            .iter()
            .chain(ws.corpus.iter())
            .filter(|f| f.rel != file.rel)
            .any(|f| word_matches(&f.scrubbed, name).next().is_some());
        if !referenced && !file.allowed(*line_no, NAME) {
            out.push(Diagnostic {
                rel: file.rel.clone(),
                line: *line_no,
                check: NAME,
                msg: format!(
                    "dead metric key `{name}`: declared but never emitted or read \
                     outside {}",
                    file.rel
                ),
            });
        }
    }

    // Undeclared emissions: inline key construction outside the keys
    // modules (the metrics registry itself defines the types and is
    // exempt).
    for file in &ws.files {
        if is_keys_module(&file.rel) || file.rel.ends_with("sim/src/metrics.rs") {
            continue;
        }
        for (line_no, line) in file.scrubbed_lines() {
            let squeezed: String = line.chars().filter(|c| !c.is_whitespace()).collect();
            for ty in KEY_TYPES {
                if squeezed.contains(&format!("{ty}::new(")) && !file.allowed(line_no, NAME) {
                    out.push(Diagnostic {
                        rel: file.rel.clone(),
                        line: line_no,
                        check: NAME,
                        msg: format!(
                            "inline `{ty}::new(…)` bypasses the crate's keys.rs; \
                             declare the key there"
                        ),
                    });
                }
            }
        }
    }
}

fn is_keys_module(rel: &str) -> bool {
    rel.ends_with("/keys.rs")
}

/// `pub const NAME: CounterKey = …` → `NAME`.
fn key_decl(line: &str) -> Option<String> {
    let t = line.trim_start();
    let rest = t.strip_prefix("pub const ")?;
    let colon = rest.find(':')?;
    let name = rest[..colon].trim();
    let ty = rest[colon + 1..].trim_start();
    KEY_TYPES
        .iter()
        .any(|k| ty.starts_with(k))
        .then(|| name.to_string())
}

#[cfg(test)]
mod tests {
    use super::key_decl;

    #[test]
    fn decl_parsing() {
        assert_eq!(
            key_decl("    pub const NET_SENT: CounterKey = \"net.sent\";"),
            Some("NET_SENT".to_string())
        );
        assert_eq!(key_decl("pub const N: usize = 3;"), None);
        assert_eq!(key_decl("const PRIVATE: CounterKey = …;"), None);
    }
}
