//! Source model: a loaded file, its comment/string-scrubbed text, and its
//! `tidy-allow` annotations.
//!
//! Checks scan the **scrubbed** text — a copy of the source in which every
//! comment and every string/char-literal *body* has been blanked to spaces
//! (delimiters and newlines kept, so byte offsets and line numbers line
//! up). That way a forbidden token mentioned in a doc comment or inside a
//! string (including this tool's own pattern tables) never false-positives.

use std::cell::Cell;

/// One `tidy-allow` annotation.
#[derive(Debug)]
pub struct Allow {
    /// 1-based line the annotation sits on.
    pub line: usize,
    /// The check it silences.
    pub check: String,
    /// Justification text after the colon.
    pub reason: String,
    /// Set once a check consults and honours this annotation.
    pub used: Cell<bool>,
}

/// A workspace source file ready for scanning.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// `crates/<name>/…` → `<name>`; `None` for the facade's `src/`.
    pub crate_dir: Option<String>,
    /// The file as read.
    pub raw: String,
    /// Comments and literal bodies blanked (same length/lines as `raw`).
    pub scrubbed: String,
    /// Parsed `tidy-allow` annotations.
    pub allows: Vec<Allow>,
}

impl SourceFile {
    pub fn new(rel: String, crate_dir: Option<String>, raw: String) -> Self {
        let scrubbed = scrub(&raw);
        let allows = parse_allows(&raw);
        SourceFile {
            rel,
            crate_dir,
            raw,
            scrubbed,
            allows,
        }
    }

    /// Whether a violation of `check` at `line` is covered by an
    /// annotation (same line or the line above). Consulting an annotation
    /// marks it used.
    pub fn allowed(&self, line: usize, check: &str) -> bool {
        let mut hit = false;
        for a in &self.allows {
            if a.check != check {
                continue;
            }
            if a.line == line || a.line + 1 == line {
                a.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// Iterates `(1-based line number, scrubbed line)`.
    pub fn scrubbed_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.scrubbed.lines().enumerate().map(|(i, l)| (i + 1, l))
    }

    /// Iterates `(1-based line number, raw line)`.
    pub fn raw_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.raw.lines().enumerate().map(|(i, l)| (i + 1, l))
    }
}

/// Blanks comments and string/char-literal bodies, preserving newlines,
/// string delimiters, and overall length.
pub fn scrub(src: &str) -> String {
    scrub_inner(src, true)
}

/// Blanks string/char-literal bodies only; comments pass through (used
/// when parsing annotations, which *live* in comments).
pub fn scrub_strings(src: &str) -> String {
    scrub_inner(src, false)
}

fn scrub_inner(src: &str, blank_comments: bool) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                out.push(if blank_comments { ' ' } else { b[i] });
                i += 1;
            }
            continue;
        }
        // Block comment (nesting, as in Rust).
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    for k in 0..2 {
                        out.push(if blank_comments { ' ' } else { b[i + k] });
                    }
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    for k in 0..2 {
                        out.push(if blank_comments { ' ' } else { b[i + k] });
                    }
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(if blank_comments { blank(b[i]) } else { b[i] });
                    i += 1;
                }
            }
            continue;
        }
        // Raw string: r"…", r#"…"#, br#"…"# etc. (`r#ident` raw
        // identifiers have no quote after the hashes and fall through).
        if c == 'r' || (c == 'b' && b.get(i + 1) == Some(&'r')) {
            let start = if c == 'b' { i + 2 } else { i + 1 };
            let mut j = start;
            while b.get(j) == Some(&'#') {
                j += 1;
            }
            if b.get(j) == Some(&'"') {
                let hashes = j - start;
                out.extend_from_slice(&b[i..=j]);
                i = j + 1;
                // Scan for `"` followed by `hashes` hashes.
                'raw: while i < b.len() {
                    if b[i] == '"' {
                        let mut h = 0;
                        while b.get(i + 1 + h) == Some(&'#') && h < hashes {
                            h += 1;
                        }
                        if h == hashes {
                            out.extend_from_slice(&b[i..=i + hashes]);
                            i += hashes + 1;
                            break 'raw;
                        }
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        // Ordinary string (also covers b"…" via the prefix byte staying
        // plain code).
        if c == '"' {
            out.push('"');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' && i + 1 < b.len() {
                    out.push(' ');
                    out.push(if b[i + 1] == '\n' { '\n' } else { ' ' });
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    out.push('"');
                    i += 1;
                    break;
                }
                out.push(blank(b[i]));
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime: `'x'` / `'\n'` are literals; `'a` in
        // `<'a>` is a lifetime and stays code.
        if c == '\'' {
            let is_char = match b.get(i + 1) {
                Some('\\') => true,
                Some(_) => b.get(i + 2) == Some(&'\''),
                None => false,
            };
            if is_char {
                out.push('\'');
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' && i + 1 < b.len() {
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                        continue;
                    }
                    if b[i] == '\'' {
                        out.push('\'');
                        i += 1;
                        break;
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out.into_iter().collect()
}

/// Extracts `// tidy-allow(check): reason` annotations.
///
/// Only a **plain** comment whose content *starts* with `tidy-allow` is an
/// annotation. Doc comments (`///`, `//!`) and prose that merely mentions
/// the syntax are not, and string literals are blanked before parsing —
/// so documenting the annotation (as this file does) never creates one.
pub fn parse_allows(raw: &str) -> Vec<Allow> {
    let scrubbed = scrub_strings(raw);
    let mut out = Vec::new();
    for (idx, line) in scrubbed.lines().enumerate() {
        let Some(s) = line.find("//") else { continue };
        let comment = &line[s + 2..];
        // `///` and `//!` are documentation, not annotations.
        if comment.starts_with('/') || comment.starts_with('!') {
            continue;
        }
        let Some(rest) = comment.trim_start().strip_prefix("tidy-allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let check = rest[..close].trim().to_string();
        let after = &rest[close + 1..];
        let reason = after
            .strip_prefix(':')
            .map(|r| r.trim().to_string())
            .unwrap_or_default();
        out.push(Allow {
            line: idx + 1,
            check,
            reason,
            used: Cell::new(false),
        });
    }
    out
}

/// All whole-word occurrences of the identifier `needle` in `hay` (byte
/// offsets): `KEY` does not match inside `MY_KEY` or `KEYS`.
pub fn word_matches<'a>(hay: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    hay.match_indices(needle)
        .filter(move |(pos, _)| {
            !hay[..*pos].chars().next_back().is_some_and(ident)
                && !hay[pos + needle.len()..].chars().next().is_some_and(ident)
        })
        .map(|(pos, _)| pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let src = "let x = \"HashMap\"; // HashMap here\nlet y = 1;\n";
        let s = scrub(src);
        assert!(!s.contains("HashMap"));
        assert!(s.contains("let y = 1;"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn scrub_keeps_lifetimes_handles_chars_and_raw_strings() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }\nlet r = r#\"Instant\"#;\n";
        let s = scrub(src);
        assert!(s.contains("<'a>"));
        assert!(!s.contains("'x'"));
        assert!(!s.contains("Instant"));
    }

    #[test]
    fn scrub_nested_block_comment() {
        let src = "a /* x /* y */ z */ b\n";
        assert_eq!(scrub(src), "a                   b\n");
    }

    #[test]
    fn allow_parsing() {
        let src = "x\n// tidy-allow(deps): harness crate\n/// tidy-allow(deps): docs\n";
        let allows = parse_allows(src);
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].line, 2);
        assert_eq!(allows[0].check, "deps");
        assert_eq!(allows[0].reason, "harness crate");
    }

    #[test]
    fn word_matching() {
        assert_eq!(word_matches("KEY, MY_KEY, KEYS, f(KEY)", "KEY").count(), 2);
    }
}
