//! Workspace discovery: which files each check scans.
//!
//! The walker is deliberately structural, not `cargo`-driven: it reads
//! directories in sorted order (deterministic output) and classifies by
//! path, so it works unchanged on the fixture mini-workspaces under
//! `crates/tidy/tests/fixtures/`.

use crate::source::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// A parsed-enough `Cargo.toml`: the crate's directory name and its
/// dependency section contents with line numbers.
#[derive(Debug)]
pub struct Manifest {
    /// `crates/<dir>` component.
    pub crate_dir: String,
    /// Workspace-relative path of the manifest.
    pub rel: String,
    /// `(section, dependency name, 1-based line)` for every dep entry.
    pub deps: Vec<(DepSection, String, usize)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepSection {
    Normal,
    Dev,
    Build,
}

/// Everything the checks need, loaded once.
#[derive(Debug)]
pub struct Workspace {
    /// Library/binary sources: `crates/*/src/**/*.rs` and the facade's
    /// `src/**/*.rs`.
    pub files: Vec<SourceFile>,
    /// Test-ish corpus: `crates/*/tests/**/*.rs`, root `tests/**/*.rs`,
    /// `crates/*/benches/**/*.rs`, `examples/**/*.rs`.
    pub corpus: Vec<SourceFile>,
    /// Golden snapshot contents under `tests/golden/`.
    pub golden: Vec<(String, String)>,
    /// Per-crate manifests.
    pub manifests: Vec<Manifest>,
}

impl Workspace {
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let root = root
            .canonicalize()
            .map_err(|e| format!("{}: {e}", root.display()))?;
        let mut files = Vec::new();
        let mut corpus = Vec::new();
        let mut golden = Vec::new();
        let mut manifests = Vec::new();

        for crate_path in sorted_dirs(&root.join("crates"))? {
            let dir_name = file_name(&crate_path);
            let manifest_path = crate_path.join("Cargo.toml");
            if manifest_path.is_file() {
                manifests.push(load_manifest(&root, &manifest_path, &dir_name)?);
            }
            collect_rs(&crate_path.join("src"), &root, Some(&dir_name), &mut files)?;
            // Fixture mini-workspaces are inputs for tidy's own tests, not
            // part of this workspace.
            if dir_name != "tidy" {
                collect_rs(
                    &crate_path.join("tests"),
                    &root,
                    Some(&dir_name),
                    &mut corpus,
                )?;
            }
            collect_rs(
                &crate_path.join("benches"),
                &root,
                Some(&dir_name),
                &mut corpus,
            )?;
        }
        collect_rs(&root.join("src"), &root, None, &mut files)?;
        collect_rs(&root.join("tests"), &root, None, &mut corpus)?;
        collect_rs(&root.join("examples"), &root, None, &mut corpus)?;

        let golden_dir = root.join("tests").join("golden");
        if golden_dir.is_dir() {
            for p in sorted_entries(&golden_dir)? {
                if p.is_file() {
                    let text =
                        fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
                    golden.push((rel_of(&root, &p), text));
                }
            }
        }

        Ok(Workspace {
            files,
            corpus,
            golden,
            manifests,
        })
    }

    /// Sources belonging to `crates/<dir>/src`.
    pub fn crate_files<'a>(&'a self, dir: &'a str) -> impl Iterator<Item = &'a SourceFile> {
        self.files
            .iter()
            .filter(move |f| f.crate_dir.as_deref() == Some(dir))
    }
}

fn file_name(p: &Path) -> String {
    p.file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default()
}

fn rel_of(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let rd = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in rd {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, String> {
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    Ok(sorted_entries(dir)?
        .into_iter()
        .filter(|p| p.is_dir())
        .collect())
}

/// Recursively collects `.rs` files under `dir` (skipping fixture trees).
fn collect_rs(
    dir: &Path,
    root: &Path,
    crate_dir: Option<&str>,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    for p in sorted_entries(dir)? {
        if p.is_dir() {
            if file_name(&p) == "fixtures" {
                continue;
            }
            collect_rs(&p, root, crate_dir, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let raw = fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            out.push(SourceFile::new(
                rel_of(root, &p),
                crate_dir.map(str::to_string),
                raw,
            ));
        }
    }
    Ok(())
}

/// Line-oriented `Cargo.toml` parse: section headers and `name = …` /
/// `name.workspace = true` dependency entries.
fn load_manifest(root: &Path, path: &Path, crate_dir: &str) -> Result<Manifest, String> {
    let raw = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut deps = Vec::new();
    let mut section: Option<DepSection> = None;
    for (idx, line) in raw.lines().enumerate() {
        let t = line.trim();
        if t.starts_with('[') {
            section = match t {
                "[dependencies]" => Some(DepSection::Normal),
                "[dev-dependencies]" => Some(DepSection::Dev),
                "[build-dependencies]" => Some(DepSection::Build),
                _ => None,
            };
            continue;
        }
        let Some(sec) = section else { continue };
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if let Some(eq) = t.find('=') {
            let name = t[..eq].trim().trim_matches('"');
            // `plwg-sim.workspace = true` spells the dep before the dot.
            let name = name.split('.').next().unwrap_or(name);
            if !name.is_empty() {
                deps.push((sec, name.to_string(), idx + 1));
            }
        }
    }
    Ok(Manifest {
        crate_dir: crate_dir.to_string(),
        rel: rel_of(root, path),
        deps,
    })
}
