//! Workspace rules the types and clippy cannot state (DESIGN.md, "Static
//! guarantees"): plain `std`, substring and word matching, file-named failures.

use std::{collections::BTreeMap, fs, path::Path};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// `crates/<dir>` → the `plwg-*` crates its `[dependencies]` may name; others are free.
#[rustfmt::skip]
const ALLOWED: [(&str, &[&str]); 7] = [
    ("wire", &[]),
    ("sim", &["plwg-wire"]),
    ("hwg", &["plwg-wire", "plwg-sim"]),
    ("vsync", &["plwg-wire", "plwg-sim", "plwg-hwg"]),
    ("naming", &["plwg-wire", "plwg-sim", "plwg-hwg"]),
    ("core", &["plwg-wire", "plwg-sim", "plwg-hwg", "plwg-naming"]),
    // net may pin the vsync substrate it runs over sockets, not the LWG layer.
    ("net", &["plwg-wire", "plwg-sim", "plwg-hwg", "plwg-vsync"]),
];

/// `(path from the root, text)` pairs, sorted by path.
type Files = Vec<(String, String)>;

/// Every UTF-8 file under `dir`; a missing `dir` has none.
fn files(dir: &str) -> Files {
    let mut out = Vec::new();
    let entries = fs::read_dir(Path::new(ROOT).join(dir));
    for entry in entries.into_iter().flatten().flatten() {
        let rel = format!("{dir}/{}", entry.file_name().to_string_lossy());
        if entry.path().is_dir() {
            out.extend(files(&rel));
        } else if let Ok(text) = fs::read_to_string(entry.path()) {
            out.push((rel, text));
        }
    }
    out.sort();
    out
}

/// Every `.rs` file, split into sources and the tests, benches and examples.
fn sources_and_observers() -> (Files, Files) {
    let roots = ["crates", "src", "tests", "examples"];
    let all = roots.iter().flat_map(|root| files(root));
    let all = all.filter(|(rel, _)| rel.ends_with(".rs"));
    all.partition(|(rel, _)| rel.starts_with("src/") || rel.split('/').nth(2) == Some("src"))
}

/// The lines of `text`, each cut at its first `//`.
fn code(text: &str) -> impl Iterator<Item = &str> {
    text.lines().map(|l| l.split("//").next().unwrap_or(l))
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `word` occurs in `hay` other than inside a longer identifier.
fn has_word(hay: &str, word: &str) -> bool {
    hay.match_indices(word).any(|(at, _)| {
        !hay[..at].ends_with(is_ident) && !hay[at + word.len()..].starts_with(is_ident)
    })
}

fn assert_none(rule: &str, violations: &[String]) {
    assert!(violations.is_empty(), "{rule}:\n{}", violations.join("\n"));
}

/// No protocol module regrows into a god-file; there is no waiver.
#[test]
fn protocol_modules_stay_within_700_lines() {
    let over: Vec<String> = ["core", "hwg", "naming", "net", "sim", "vsync"]
        .iter()
        .flat_map(|krate| files(&format!("crates/{krate}/src")))
        .filter(|(_, text)| text.lines().count() > 700)
        .map(|(rel, text)| format!("{rel}: {} lines", text.lines().count()))
        .collect();
    assert_none("modules over 700 lines; split them by concern", &over);
}

/// `[dependencies]` point down `wire → sim → hwg → vsync/naming → core`;
/// `[dev-dependencies]` are free, so tests may close the loop.
#[test]
fn dependencies_point_down_the_layering() {
    let mut bad = Vec::new();
    for (dir, allowed) in ALLOWED {
        let rel = format!("crates/{dir}/Cargo.toml");
        let toml = fs::read_to_string(Path::new(ROOT).join(&rel)).expect("manifest");
        let section = toml.split("\n[").find(|s| s.starts_with("dependencies]"));
        for line in section.unwrap_or_default().lines().skip(1) {
            // `plwg-sim.workspace = true` names the dependency before the dot.
            let dep = line.split(['=', '.']).next().unwrap_or_default().trim();
            if dep.starts_with("plwg-") && !allowed.contains(&dep) {
                bad.push(format!("{rel}: `{dir}` must not depend on `{dep}`"));
            }
        }
    }
    assert_none("layering; move these to [dev-dependencies]", &bad);
}

/// Every dependency of the workspace and of the benchmark is a `plwg-*`
/// crate, and no lock file pins a registry or git source: nothing can bring
/// in `rand` or any other ambient randomness.
#[test]
fn the_build_is_hermetic() {
    let crates = fs::read_dir(Path::new(ROOT).join("crates")).expect("crates/");
    let mut manifests = vec!["Cargo.toml".to_owned(), "benchmark/Cargo.toml".to_owned()];
    manifests.extend(
        crates
            .flatten()
            .map(|e| format!("crates/{}/Cargo.toml", e.file_name().to_string_lossy())),
    );
    let mut bad = Vec::new();
    for rel in &manifests {
        let toml = fs::read_to_string(Path::new(ROOT).join(rel)).expect("manifest");
        for section in format!("\n{toml}").split("\n[").skip(1) {
            let (header, body) = section.split_once(']').unwrap_or_default();
            let deps = match header.rsplit_once("dependencies.") {
                // `[dependencies.rand]` names the dependency in its header.
                Some((_, dep)) => vec![dep],
                None if header.ends_with("dependencies") => body
                    .lines()
                    .map(|l| l.split(['=', '.']).next().unwrap_or_default().trim())
                    .filter(|dep| !dep.is_empty() && !dep.starts_with('#'))
                    .collect(),
                None => vec![],
            };
            let foreign = deps.into_iter().filter(|dep| !dep.starts_with("plwg-"));
            bad.extend(foreign.map(|dep| format!("{rel}: [{header}] lists `{dep}`")));
        }
    }
    for rel in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let lock = fs::read_to_string(Path::new(ROOT).join(rel)).expect("lock file");
        let sources = lock.lines().filter(|l| l.starts_with("source = "));
        bad.extend(sources.map(|l| format!("{rel}: `{l}`")));
    }
    assert_none("the build must stay std-only and offline", &bad);
}

/// `pub const IDENT: CounterKey = "dotted.name";` → `(IDENT, dotted.name)`.
fn key_decl(line: &str) -> Option<(&str, &str)> {
    let decl = line.trim_start().strip_prefix("pub const ")?;
    let (ident, ty) = decl.split_once(": ")?;
    let types = ["CounterKey", "GaugeKey", "HistogramKey"];
    let is_key = types.iter().any(|k| ty.starts_with(k));
    is_key.then_some((ident, ty.split('"').nth(1)?))
}

/// Every key a `keys.rs` declares is named, as a whole word outside `//`
/// comments, in a file that is not a `keys.rs`; no dotted name is declared
/// twice; and no key is built inline.
///
/// Liveness matches identifiers, not paths. `DATA_SENT`, `DATA_DELIVERED`,
/// `FLUSHES`, `SUBSET_SENDS`, `VIEWS_INSTALLED`, `RECONCILIATIONS` and
/// `DECODE_ERRORS` are each declared in two crates, so one crate's use of
/// such a name hides the other crate's key if that one goes dead.
#[test]
fn metric_keys_are_live_spelt_once_and_declared_in_keys_modules() {
    let (sources, observers) = sources_and_observers();
    let is_keys = |rel: &str| rel.ends_with("/keys.rs");
    let users: Vec<&str> = (sources.iter().chain(&observers))
        .filter(|(rel, _)| !is_keys(rel))
        .flat_map(|(_, text)| code(text))
        .collect();
    let (mut declared, mut bad) = (BTreeMap::new(), Vec::new());
    for (rel, text) in sources.iter().filter(|(rel, _)| is_keys(rel)) {
        for (ident, name) in code(text).filter_map(key_decl) {
            if let Some(first) = declared.insert(name, rel) {
                bad.push(format!("{rel}: \"{name}\" is also declared in {first}"));
            }
            if !users.iter().any(|line| has_word(line, ident)) {
                bad.push(format!("{rel}: dead metric key `{ident}`"));
            }
        }
    }
    assert!(!declared.is_empty(), "found no metric key declarations");
    for (rel, text) in &sources {
        let exempt = is_keys(rel) || rel == "crates/sim/src/metrics.rs";
        for line in code(text).filter(|l| !exempt && l.contains("Key::new(")) {
            bad.push(format!("{rel}: `{}`; declare it in keys.rs", line.trim()));
        }
    }
    assert_none("metric keys", &bad);
}

/// The enum of an `impl ProtocolEvent for` block, and `(Enum::Variant, kind)`
/// for each `Enum::Variant … => "kind"` arm of its `fn kind`.
fn kind_arms(block: &str) -> (&str, Vec<(String, &str)>) {
    let enum_name = block.split(|c| !is_ident(c)).next().unwrap_or_default();
    let body = block.split_once("fn kind(").map_or("", |(_, body)| body);
    let arms = body.lines().skip(1).take_while(|l| !l.contains("fn "));
    let arms = arms.filter_map(|arm| {
        let (pat, val) = arm.split_once("=>")?;
        let variant = pat.trim().strip_prefix(enum_name)?.strip_prefix("::")?;
        let variant = variant.split(|c| !is_ident(c)).next()?;
        Some((format!("{enum_name}::{variant}"), val.split('"').nth(1)?))
    });
    (enum_name, arms.collect())
}

/// Every kind an `impl ProtocolEvent` can return (outside the file's
/// `#[cfg(test)]` tail) is observed: a test, bench, example or golden
/// snapshot holds the kind or names its `Enum::Variant`.
#[test]
fn every_protocol_event_kind_is_observed_by_a_test() {
    let (sources, mut observers) = sources_and_observers();
    observers.extend(files("tests/golden"));
    let (mut kinds_per_enum, mut unseen) = (Vec::new(), Vec::new());
    for (rel, text) in sources {
        let text = text.split("#[cfg(test)]").next().unwrap_or_default();
        for (enum_name, arms) in text.split("impl ProtocolEvent for ").skip(1).map(kind_arms) {
            kinds_per_enum.push(format!("{enum_name} {}", arms.len()));
            for (path, kind) in arms {
                let seen = |t: &String| t.contains(kind) || t.contains(&path);
                if !observers.iter().any(|(_, text)| seen(text)) {
                    unseen.push(format!("{rel}: `{kind}` ({path}); test it or drop it"));
                }
            }
        }
    }
    let want = "LwgProtocolEvent 20, HwgTraceEvent 15, NamingEvent 2, NetEvent 5, SimEvent 4";
    assert_eq!(kinds_per_enum.join(", "), want, "all 46 event kinds");
    assert_none("event kinds nothing observes", &unseen);
}

/// LWG lookups use the directory's indexes (`mapped_on`, `in_phase`, …):
/// outside `directory.rs`, `plwg-core` holds no raw record table, and its
/// one full walk is the operator status iterator in `service.rs`.
#[test]
fn lwg_lookups_go_through_the_directory_indexes() {
    let (patterns, mut hits) = ([".iter_all(", "BTreeMap<LwgId, LwgState"], Vec::new());
    for (rel, text) in files("crates/core/src") {
        for line in code(&text).filter(|_| rel != "crates/core/src/directory.rs") {
            let found = patterns.iter().filter(|p| line.contains(*p));
            hits.extend(found.map(|p| format!("{rel}: `{p}`")));
        }
    }
    let want = ["crates/core/src/service.rs: `.iter_all(`"];
    assert_eq!(hits, want, "use the directory's indexes");
}
