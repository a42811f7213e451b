//! The retired substring lint engine, kept verbatim as the
//! **differential oracle** for the token engine that replaced it.
//!
//! Every rule here scans a comment/string-stripped *code view* of each
//! file for needle substrings. The token engine
//! ([`crate::engine`] + [`crate::rules`]) reimplements all nine of
//! these rules over a real token stream; the self-test suite
//! (`xtask/tests/selftest.rs`) runs both engines over the live corpus
//! and over every fixture and asserts they report the same
//! `(file, line, rule)` findings. When the two engines disagree, one of
//! them is wrong — that is the whole value of keeping this module.
//!
//! Shared tables ([`NO_UNWRAP_CRATES`], the sanctuary lists) live in
//! [`crate::rules`] so the oracle and the live engine cannot drift on
//! *scope*; only the matching machinery is duplicated, deliberately.
//!
//! Do not add rules here: new rules are token-engine-only.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::engine::rust_files;
pub use crate::rules::{
    NO_UNWRAP_CRATES, PANIC_SANCTUARIES, PRINTLN_SANCTUARIES, WALLCLOCK_SANCTUARIES,
};

/// The one module allowed to do float arithmetic on raw tick counts
/// (the substring era's name for [`crate::rules::TIME_SANCTUARY`]).
pub const FLOAT_TIME_SANCTUARY: &str = crate::rules::TIME_SANCTUARY;

/// One lint finding, printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (also the name accepted by `lint:allow(...)`).
    pub rule: &'static str,
    /// Human-oriented explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Source transforms
// ---------------------------------------------------------------------------

/// Replace every comment and string/char-literal byte with a space,
/// preserving newlines (and therefore line numbers and byte offsets).
///
/// Handles line comments (incl. `///` docs), nested block comments,
/// ordinary strings with escapes, raw strings (`r"…"`, `r#"…"#`, …),
/// char literals, and distinguishes lifetimes (`'a`) from char literals
/// (`'a'`, `'\n'`).
pub fn code_view(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;

    // Copy `n` source bytes verbatim.
    macro_rules! keep {
        ($n:expr) => {{
            for k in 0..$n {
                out.push(b[i + k]);
            }
            i += $n;
        }};
    }
    // Blank `n` source bytes (newlines survive).
    macro_rules! blank {
        ($n:expr) => {{
            for k in 0..$n {
                out.push(if b[i + k] == b'\n' { b'\n' } else { b' ' });
            }
            i += $n;
        }};
    }

    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                // Line comment (incl. doc comments): blank to end of line.
                let end = src[i..].find('\n').map_or(b.len(), |n| i + n);
                blank!(end - i);
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Block comment, possibly nested.
                let mut depth = 0usize;
                let mut j = i;
                while j < b.len() {
                    if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        j += 1;
                    }
                }
                blank!(j - i);
            }
            b'r' if raw_string_hashes(b, i).is_some() => {
                // Raw string r"…" / r#"…"# — no escapes; ends at "#…# with
                // the same number of hashes.
                let hashes = raw_string_hashes(b, i).unwrap_or(0);
                keep!(1 + hashes + 1); // r, hashes, opening quote
                let closer = close_raw(b, i, hashes);
                blank!(closer - i);
                if i < b.len() {
                    keep!(1 + hashes); // closing quote + hashes
                }
            }
            b'"' => {
                keep!(1);
                let mut j = i;
                while j < b.len() {
                    match b[j] {
                        b'\\' => j += 2,
                        b'"' => break,
                        _ => j += 1,
                    }
                }
                blank!(j.min(b.len()) - i);
                if i < b.len() {
                    keep!(1);
                }
            }
            b'\'' => {
                // Lifetime or char literal?
                if is_char_literal(b, i) {
                    keep!(1);
                    let mut j = i;
                    while j < b.len() {
                        match b[j] {
                            b'\\' => j += 2,
                            b'\'' => break,
                            _ => j += 1,
                        }
                    }
                    blank!(j.min(b.len()) - i);
                    if i < b.len() {
                        keep!(1);
                    }
                } else {
                    keep!(1);
                }
            }
            _ => keep!(1),
        }
    }
    // blank! preserved newlines byte-for-byte, so this is valid UTF-8 as
    // long as the input was (multibyte chars only ever appear inside the
    // kept spans or get blanked whole).
    String::from_utf8_lossy(&out).into_owned()
}

/// If `b[i]` starts a raw string literal (`r"`, `r#"`, `br"`, …),
/// returns the number of `#`s; otherwise `None`. We only check plain
/// `r…` — a preceding identifier byte means `r` is part of a name.
fn raw_string_hashes(b: &[u8], i: usize) -> Option<usize> {
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return None;
    }
    let mut j = i + 1;
    let mut hashes = 0;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    (j < b.len() && b[j] == b'"').then_some(hashes)
}

/// Byte offset of the closing quote of a raw string whose contents start
/// at `start` (the position of `r`). Returns the index of the `"` in the
/// closing `"##…`.
fn close_raw(b: &[u8], start: usize, hashes: usize) -> usize {
    let mut j = start;
    while j < b.len() {
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut h = 0;
            while k < b.len() && b[k] == b'#' && h < hashes {
                h += 1;
                k += 1;
            }
            if h == hashes && j > start {
                return j;
            }
        }
        j += 1;
    }
    b.len()
}

/// True if the `'` at `b[i]` opens a char literal rather than a
/// lifetime. `'\…'` is always a char; `'x'` is a char; `'abc` is a
/// lifetime.
fn is_char_literal(b: &[u8], i: usize) -> bool {
    match b.get(i + 1) {
        Some(b'\\') => true,
        Some(&c) if c != b'\'' => b.get(i + 2) == Some(&b'\''),
        _ => false,
    }
}

/// 1-based line ranges (inclusive) of `#[cfg(test)]`-gated `mod` blocks,
/// computed on the *code view* so braces in comments/strings don't skew
/// the count.
pub fn test_spans(view: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let lines: Vec<&str> = view.lines().collect();
    let mut l = 0;
    while l < lines.len() {
        if lines[l].trim_start().starts_with("#[cfg(test)]") {
            // Find the mod declaration within the next few lines (other
            // attributes may intervene) and brace-track from its `{`.
            let mut m = l + 1;
            while m < lines.len() && !lines[m].contains("mod ") {
                if !lines[m].trim_start().starts_with("#[") && !lines[m].trim().is_empty() {
                    break;
                }
                m += 1;
            }
            if m < lines.len() && lines[m].contains("mod ") {
                let mut depth = 0i64;
                let mut opened = false;
                let mut end = m;
                'outer: for (k, line) in lines.iter().enumerate().skip(m) {
                    for ch in line.chars() {
                        match ch {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => {
                                depth -= 1;
                                if opened && depth == 0 {
                                    end = k;
                                    break 'outer;
                                }
                            }
                            _ => {}
                        }
                    }
                    end = k;
                }
                spans.push((l + 1, end + 1));
                l = end + 1;
                continue;
            }
        }
        l += 1;
    }
    spans
}

fn in_spans(line: usize, spans: &[(usize, usize)]) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Scan the *raw* source line for a `lint:allow(<rule>)` escape. Returns
/// `Some(true)` for a justified allow, `Some(false)` for a bare one
/// (missing or trivial justification — itself reported by the caller).
pub fn allow_on_line(raw_line: &str, rule: &str) -> Option<bool> {
    let needle = format!("lint:allow({rule})");
    let at = raw_line.find(&needle)?;
    let rest = &raw_line[at + needle.len()..];
    let justification = rest.strip_prefix(':').map(str::trim).unwrap_or("");
    Some(justification.len() >= 10)
}

// ---------------------------------------------------------------------------
// Rules (each takes (path, raw source) so they are unit-testable without
// touching the filesystem)
// ---------------------------------------------------------------------------

/// Report `needle` occurrences in the code view of `raw`, skipping test
/// spans when `exempt_tests` and honouring `lint:allow` escapes on the
/// raw source.
fn scan_needles(
    path: &Path,
    raw: &str,
    exempt_tests: bool,
    rule: &'static str,
    needles: &[&str],
    message: impl Fn(&str) -> String,
) -> Vec<Diagnostic> {
    let view = code_view(raw);
    let spans = if exempt_tests {
        test_spans(&view)
    } else {
        Vec::new()
    };
    let mut out = Vec::new();
    let raw_lines: Vec<&str> = raw.lines().collect();
    for (idx, line) in view.lines().enumerate() {
        let lineno = idx + 1;
        if in_spans(lineno, &spans) {
            continue;
        }
        for needle in needles {
            if !line.contains(needle) {
                continue;
            }
            match allow_on_line(raw_lines.get(idx).copied().unwrap_or(""), rule) {
                Some(true) => {}
                Some(false) => out.push(Diagnostic {
                    file: path.to_path_buf(),
                    line: lineno,
                    rule,
                    message: format!(
                        "lint:allow({rule}) needs a `: <justification>` (>= 10 chars)"
                    ),
                }),
                None => out.push(Diagnostic {
                    file: path.to_path_buf(),
                    line: lineno,
                    rule,
                    message: message(needle),
                }),
            }
            break; // one diagnostic per line is enough
        }
    }
    out
}

/// `no-unwrap`: no `.unwrap()` / `.expect(` in library production code.
pub fn check_no_unwrap(path: &Path, raw: &str) -> Vec<Diagnostic> {
    scan_needles(
        path,
        raw,
        true,
        "no-unwrap",
        &[".unwrap()", ".expect("],
        |n| {
            format!(
                "`{n}…` in library code: return an error, restructure with \
                 let-else/match, or append `lint:allow(no-unwrap): <why>`"
            )
        },
    )
}

/// `no-panic-in-lib`: no `panic!` in library production code — a panic
/// in a library crate aborts whichever sweep cell was executing it,
/// turning one bad configuration into a dead suite, while a typed
/// [`TcnError`] keeps the failure attributable and quarantinable. When
/// `include_unwrap` is set (crates outside [`NO_UNWRAP_CRATES`], whose
/// unwraps the `no-unwrap` rule does not already police) the rule also
/// catches `.unwrap()` / `.expect(`.
pub fn check_no_panic(path: &Path, raw: &str, include_unwrap: bool) -> Vec<Diagnostic> {
    let needles: &[&str] = if include_unwrap {
        &["panic!", ".unwrap()", ".expect("]
    } else {
        &["panic!"]
    };
    scan_needles(path, raw, true, "no-panic-in-lib", needles, |n| {
        format!(
            "`{n}…` in library code can abort a whole sweep: return a \
             TcnError (the cell runner quarantines it), or append \
             `lint:allow(no-panic-in-lib): <why>`"
        )
    })
}

/// `no-float-time`: raw tick counts must not be cast to floats outside
/// the `Time` module — use `as_secs_f64()` / `as_us_f64()` which carry
/// their unit in the name.
pub fn check_no_float_time(path: &Path, raw: &str) -> Vec<Diagnostic> {
    scan_needles(
        path,
        raw,
        true,
        "no-float-time",
        &[
            ".as_ps() as f64",
            ".as_ns() as f64",
            ".as_us() as f64",
            ".as_ms() as f64",
            ".as_ps() as f32",
            ".as_ns() as f32",
            ".as_us() as f32",
            ".as_ms() as f32",
        ],
        |n| {
            format!(
                "`{n}` casts a raw tick count to float; use Time::as_secs_f64()/\
                 as_us_f64() (only sim/src/time.rs may do raw conversions)"
            )
        },
    )
}

/// `no-wallclock`: host-clock reads outside [`WALLCLOCK_SANCTUARIES`].
/// Applies to test code too — tests must be as deterministic as the
/// simulator they check.
pub fn check_no_wallclock(path: &Path, raw: &str) -> Vec<Diagnostic> {
    scan_needles(
        path,
        raw,
        false, // no test-span exemption
        "no-wallclock",
        &["std::time::Instant", "Instant::now", "SystemTime"],
        |n| {
            format!(
                "`{n}` reads the host clock; simulation code runs on virtual \
                 Time only (wall-clock timing belongs in crates/bench or xtask)"
            )
        },
    )
}

/// `no-println-in-lib`: no `println!` / `eprintln!` in library
/// production code. A library that prints hardcodes one consumer and
/// one format; this repo's answer to "I want to see what the simulator
/// did" is a [`tcn-telemetry`] sink, which callers can point at memory,
/// a JSONL trace, or a summary report. Tests may print (cargo captures
/// it); binaries are exempt by scope.
pub fn check_no_println(path: &Path, raw: &str) -> Vec<Diagnostic> {
    scan_needles(
        path,
        raw,
        true,
        "no-println-in-lib",
        &["println!", "eprintln!"],
        |n| {
            format!(
                "`{n}` in library code: emit a tcn-telemetry event (or return \
                 the data) instead of printing, or append \
                 `lint:allow(no-println-in-lib): <why>`"
            )
        },
    )
}

/// `no-unsafe`: the `unsafe` keyword anywhere (even in tests — a
/// simulator has no business with it).
pub fn check_no_unsafe(path: &Path, raw: &str) -> Vec<Diagnostic> {
    let view = code_view(raw);
    let mut out = Vec::new();
    for (idx, line) in view.lines().enumerate() {
        // Word-boundary check without regex: find "unsafe" not glued to
        // identifier chars ("unsafe_code" in the forbid attr is fine).
        let mut start = 0;
        while let Some(pos) = line[start..].find("unsafe") {
            let at = start + pos;
            let before_ok = at == 0
                || !line.as_bytes()[at - 1].is_ascii_alphanumeric()
                    && line.as_bytes()[at - 1] != b'_';
            let after = at + "unsafe".len();
            let after_ok = after >= line.len()
                || !line.as_bytes()[after].is_ascii_alphanumeric()
                    && line.as_bytes()[after] != b'_';
            if before_ok && after_ok {
                out.push(Diagnostic {
                    file: path.to_path_buf(),
                    line: idx + 1,
                    rule: "no-unsafe",
                    message: "`unsafe` is banned everywhere in this repo".into(),
                });
                break;
            }
            start = after;
        }
    }
    out
}

/// `forbid-unsafe-attr`: a crate root must carry `#![forbid(unsafe_code)]`.
pub fn check_forbid_attr(path: &Path, raw: &str) -> Vec<Diagnostic> {
    if raw.contains("#![forbid(unsafe_code)]") {
        Vec::new()
    } else {
        vec![Diagnostic {
            file: path.to_path_buf(),
            line: 1,
            rule: "forbid-unsafe-attr",
            message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
        }]
    }
}

/// `aqm-doc-cite`: every type with an `impl Aqm for X` in this file must
/// have a `pub struct X` whose doc comment cites a paper section (`§`).
/// The struct is looked up in the same file — all AQMs in this repo are
/// defined beside their impl.
pub fn check_aqm_doc_cite(path: &Path, raw: &str) -> Vec<Diagnostic> {
    let view = code_view(raw);
    let spans = test_spans(&view);
    let raw_lines: Vec<&str> = raw.lines().collect();
    let view_lines: Vec<&str> = view.lines().collect();
    let mut out = Vec::new();

    for (idx, line) in view_lines.iter().enumerate() {
        let lineno = idx + 1;
        if in_spans(lineno, &spans) {
            continue;
        }
        let Some(pos) = line.find("impl Aqm for ") else {
            continue;
        };
        let ty: String = line[pos + "impl Aqm for ".len()..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if ty.is_empty() {
            continue;
        }
        // Find `pub struct <ty>` (or `struct <ty>`) in the same file.
        let decl = format!("struct {ty}");
        let Some(struct_idx) = view_lines.iter().position(|l| {
            l.contains(&decl)
                && l[l.find(&decl).unwrap_or(0) + decl.len()..]
                    .chars()
                    .next()
                    .is_none_or(|c| !c.is_alphanumeric() && c != '_')
        }) else {
            continue; // type defined elsewhere; out of this rule's reach
        };
        // Walk upward over attributes and `///` lines collecting the doc.
        let mut cited = false;
        let mut k = struct_idx;
        while k > 0 {
            k -= 1;
            let l = raw_lines.get(k).copied().unwrap_or("").trim_start();
            if l.starts_with("///") {
                if l.contains('§') {
                    cited = true;
                }
            } else if l.starts_with("#[") || l.starts_with("#![") {
                continue;
            } else {
                break;
            }
        }
        if !cited {
            out.push(Diagnostic {
                file: path.to_path_buf(),
                line: struct_idx + 1,
                rule: "aqm-doc-cite",
                message: format!(
                    "`{ty}` implements Aqm but its doc comment never cites a \
                     paper section (add a `§n.m` reference)"
                ),
            });
        }
    }
    out
}

/// `fault-kind-doc`: every variant of the `FaultKind` enum must carry a
/// doc comment naming the real-world failure mode it models (at least
/// 10 characters of prose). Fault taxonomies rot fastest: an undocumented
/// variant forces every reader back to the injection site to learn what
/// a counter means.
pub fn check_fault_kind_doc(path: &Path, raw: &str) -> Vec<Diagnostic> {
    let view = code_view(raw);
    let raw_lines: Vec<&str> = raw.lines().collect();
    let view_lines: Vec<&str> = view.lines().collect();
    let mut out = Vec::new();

    let Some(start) = view_lines.iter().position(|l| {
        l.find("enum FaultKind").is_some_and(|at| {
            l[at + "enum FaultKind".len()..]
                .chars()
                .next()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_')
        })
    }) else {
        return out;
    };

    // Brace-track to the end of the enum body.
    let mut depth = 0i64;
    let mut opened = false;
    let mut end = start;
    'outer: for (k, line) in view_lines.iter().enumerate().skip(start) {
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth -= 1;
                    if opened && depth == 0 {
                        end = k;
                        break 'outer;
                    }
                }
                _ => {}
            }
        }
        end = k;
    }

    for idx in start + 1..end {
        let trimmed = view_lines[idx].trim_start();
        // A variant line starts with an uppercase identifier at brace
        // depth 1; attributes, docs (blanked in the view) and field
        // lines of brace-variants don't.
        let is_variant = trimmed
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
            && !trimmed.starts_with("Self");
        if !is_variant || !variant_depth_one(&view_lines[start..idx]) {
            continue;
        }
        let name: String = trimmed
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        // Walk upward over attributes to the doc comment.
        let mut documented = false;
        let mut k = idx;
        while k > start + 1 {
            k -= 1;
            let l = raw_lines.get(k).copied().unwrap_or("").trim_start();
            if let Some(text) = l.strip_prefix("///") {
                if text.trim().len() >= 10 {
                    documented = true;
                }
                break;
            } else if l.starts_with("#[") {
                continue;
            } else {
                break;
            }
        }
        if !documented {
            out.push(Diagnostic {
                file: path.to_path_buf(),
                line: idx + 1,
                rule: "fault-kind-doc",
                message: format!(
                    "`FaultKind::{name}` has no doc comment naming the \
                     real-world failure mode it models"
                ),
            });
        }
    }
    out
}

/// True when the line after `prefix` sits at brace depth 1 (directly in
/// the enum body, not inside a struct-variant's field block).
fn variant_depth_one(prefix: &[&str]) -> bool {
    let mut depth = 0i64;
    for line in prefix {
        for ch in line.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
    }
    depth == 1
}

// ---------------------------------------------------------------------------
// Repo walk + driver
// ---------------------------------------------------------------------------

/// Crate roots: `src/lib.rs` or `src/main.rs` of every workspace member.
fn crate_roots(repo: &Path) -> Vec<PathBuf> {
    let mut roots = Vec::new();
    for candidate in ["src/lib.rs", "src/main.rs", "xtask/src/lib.rs", "xtask/src/main.rs"] {
        let p = repo.join(candidate);
        if p.is_file() {
            roots.push(p);
        }
    }
    if let Ok(entries) = fs::read_dir(repo.join("crates")) {
        for entry in entries.flatten() {
            for leaf in ["src/lib.rs", "src/main.rs"] {
                let p = entry.path().join(leaf);
                if p.is_file() {
                    roots.push(p);
                }
            }
        }
    }
    roots.sort();
    roots
}

fn rel(repo: &Path, p: &Path) -> PathBuf {
    p.strip_prefix(repo).unwrap_or(p).to_path_buf()
}

/// Run every rule over the repository rooted at `repo`. Returns all
/// diagnostics, sorted by (file, line).
pub fn lint_repo(repo: &Path) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // no-unwrap over the library crates' src trees.
    for krate in NO_UNWRAP_CRATES {
        for f in rust_files(&repo.join(krate).join("src")) {
            if let Ok(raw) = fs::read_to_string(&f) {
                out.extend(check_no_unwrap(&rel(repo, &f), &raw));
            }
        }
    }

    // no-float-time + no-unsafe over every .rs file in the repo
    // (src, tests, benches, xtask — everything we own).
    for f in rust_files(repo) {
        let Ok(raw) = fs::read_to_string(&f) else {
            continue;
        };
        let r = rel(repo, &f);
        if r != Path::new(FLOAT_TIME_SANCTUARY) {
            out.extend(check_no_float_time(&r, &raw));
        }
        if !WALLCLOCK_SANCTUARIES.iter().any(|s| r.starts_with(s)) {
            out.extend(check_no_wallclock(&r, &raw));
        }
        // no-println-in-lib over library src trees: everything under
        // crates/*/src and the facade's src/, minus src/bin/ and the
        // print-by-design sanctuaries.
        let in_lib_src = (r.starts_with("crates") || r.starts_with("src"))
            && r.components().any(|c| c.as_os_str() == "src")
            && !r.components().any(|c| c.as_os_str() == "bin");
        if in_lib_src && !PRINTLN_SANCTUARIES.iter().any(|s| r.starts_with(s)) {
            out.extend(check_no_println(&r, &raw));
        }
        // no-panic-in-lib over the same library src trees; crates the
        // no-unwrap rule already polices only get the panic! needle
        // (their unwraps are no-unwrap's findings, not duplicates here).
        if in_lib_src && !PANIC_SANCTUARIES.iter().any(|s| r.starts_with(s)) {
            let unwrap_covered = NO_UNWRAP_CRATES.iter().any(|s| r.starts_with(s));
            out.extend(check_no_panic(&r, &raw, !unwrap_covered));
        }
        out.extend(check_no_unsafe(&r, &raw));
        out.extend(check_fault_kind_doc(&r, &raw));
    }

    // forbid-unsafe-attr on crate roots.
    for f in crate_roots(repo) {
        if let Ok(raw) = fs::read_to_string(&f) {
            out.extend(check_forbid_attr(&rel(repo, &f), &raw));
        }
    }

    // aqm-doc-cite where AQMs live.
    for krate in ["crates/core", "crates/baselines"] {
        for f in rust_files(&repo.join(krate).join("src")) {
            if let Ok(raw) = fs::read_to_string(&f) {
                out.extend(check_aqm_doc_cite(&rel(repo, &f), &raw));
            }
        }
    }

    out.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    out
}

// ---------------------------------------------------------------------------
// Seeded-violation tests: every rule must fire on a planted violation and
// stay silent on the clean equivalent.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> PathBuf {
        PathBuf::from("crates/fake/src/x.rs")
    }

    #[test]
    fn code_view_strips_comments_and_strings() {
        let src = "let a = \"has .unwrap() inside\"; // and .unwrap() here\nlet b = 1;\n";
        let v = code_view(src);
        assert!(!v.contains(".unwrap()"), "view: {v}");
        assert!(v.contains("let a ="));
        assert!(v.contains("let b = 1;"));
        assert_eq!(v.lines().count(), src.lines().count());
    }

    #[test]
    fn code_view_handles_raw_strings_and_chars() {
        let src = "let s = r#\"raw .expect( text\"#;\nlet c = '\\n';\nlet lt: &'static str = \"x\";\n";
        let v = code_view(src);
        assert!(!v.contains(".expect("));
        assert!(v.contains("&'static str"), "lifetime mangled: {v}");
        assert_eq!(v.lines().count(), 3);
    }

    #[test]
    fn code_view_handles_nested_block_comments() {
        let src = "/* outer /* inner .unwrap() */ still comment */ let x = 2;\n";
        let v = code_view(src);
        assert!(!v.contains(".unwrap()"));
        assert!(v.contains("let x = 2;"));
    }

    #[test]
    fn seeded_unwrap_is_caught() {
        let src = "pub fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
        let d = check_no_unwrap(&p(), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[0].rule, "no-unwrap");
    }

    #[test]
    fn seeded_expect_is_caught() {
        let src = "pub fn f(o: Option<u32>) -> u32 {\n    o.expect(\"boom\")\n}\n";
        let d = check_no_unwrap(&p(), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn unwrap_in_test_mod_is_ignored() {
        let src = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n";
        assert!(check_no_unwrap(&p(), src).is_empty());
    }

    #[test]
    fn unwrap_after_test_mod_is_still_caught() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n\npub fn g(o: Option<u32>) -> u32 { o.unwrap() }\n";
        let d = check_no_unwrap(&p(), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 6);
    }

    #[test]
    fn justified_allow_suppresses() {
        let src = "pub fn f(o: Option<u32>) -> u32 {\n    o.expect(\"x\") // lint:allow(no-unwrap): overflow must abort, wraparound corrupts clock\n}\n";
        assert!(check_no_unwrap(&p(), src).is_empty());
    }

    #[test]
    fn bare_allow_is_itself_flagged() {
        let src = "pub fn f(o: Option<u32>) -> u32 {\n    o.unwrap() // lint:allow(no-unwrap)\n}\n";
        let d = check_no_unwrap(&p(), src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("justification"), "{}", d[0].message);
    }

    #[test]
    fn seeded_panic_is_caught() {
        let src = "pub fn f(x: u32) {\n    if x > 3 {\n        panic!(\"x too big\");\n    }\n}\n";
        let d = check_no_panic(&p(), src, false);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-panic-in-lib");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn panic_in_test_mod_is_ignored() {
        let src = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        panic!(\"assertion helpers may panic\");\n    }\n}\n";
        assert!(check_no_panic(&p(), src, true).is_empty());
    }

    #[test]
    fn unwrap_needle_only_when_not_covered_by_no_unwrap() {
        let src = "pub fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
        assert!(
            check_no_panic(&p(), src, false).is_empty(),
            "covered crates leave unwraps to the no-unwrap rule"
        );
        let d = check_no_panic(&p(), src, true);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn justified_panic_allow_suppresses() {
        let src = "panic!(\"{v}\"); // lint:allow(no-panic-in-lib): strict audit mode must abort on violation\n";
        assert!(check_no_panic(&p(), src, false).is_empty());
    }

    #[test]
    fn panic_in_comment_or_string_is_clean() {
        let src = "// panic! is banned here\nlet s = \"panic!(no)\";\n";
        assert!(check_no_panic(&p(), src, true).is_empty());
    }

    #[test]
    fn seeded_float_time_is_caught() {
        let src = "pub fn f(t: Time) -> f64 {\n    t.as_ps() as f64\n}\n";
        let d = check_no_float_time(&p(), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-float-time");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn sanctioned_float_accessor_is_clean() {
        let src = "pub fn f(t: Time) -> f64 {\n    t.as_us_f64()\n}\n";
        assert!(check_no_float_time(&p(), src).is_empty());
    }

    #[test]
    fn seeded_wallclock_is_caught() {
        let src = "pub fn f() {\n    let t0 = std::time::Instant::now();\n    let _ = t0;\n}\n";
        let d = check_no_wallclock(&p(), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-wallclock");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn seeded_wallclock_in_test_mod_is_still_caught() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::SystemTime::now(); }\n}\n";
        let d = check_no_wallclock(&p(), src);
        assert_eq!(d.len(), 1, "tests get no wallclock exemption");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn wallclock_in_comment_or_string_is_clean() {
        let src = "// Instant::now is banned\nlet s = \"std::time::Instant\";\n";
        assert!(check_no_wallclock(&p(), src).is_empty());
    }

    #[test]
    fn justified_wallclock_allow_suppresses() {
        let src = "let t0 = std::time::Instant::now(); // lint:allow(no-wallclock): CLI convenience print of elapsed wall time\n";
        assert!(check_no_wallclock(&p(), src).is_empty());
    }

    #[test]
    fn seeded_println_is_caught() {
        let src = "pub fn f(x: u32) {\n    println!(\"x = {x}\");\n}\n";
        let d = check_no_println(&p(), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-println-in-lib");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn seeded_eprintln_is_caught() {
        let src = "pub fn f() {\n    eprintln!(\"warning\");\n}\n";
        let d = check_no_println(&p(), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn println_in_test_mod_is_ignored() {
        let src = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        println!(\"debugging a test is fine\");\n    }\n}\n";
        assert!(check_no_println(&p(), src).is_empty());
    }

    #[test]
    fn println_in_comment_or_string_is_clean() {
        let src = "// println! is banned in libs\nlet s = \"println!\";\n";
        assert!(check_no_println(&p(), src).is_empty());
    }

    #[test]
    fn justified_println_allow_suppresses() {
        let src = "println!(\"{report}\"); // lint:allow(no-println-in-lib): the run-report sink's whole job is printing\n";
        assert!(check_no_println(&p(), src).is_empty());
    }

    #[test]
    fn seeded_unsafe_is_caught_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { unsafe { std::hint::unreachable_unchecked() } }\n}\n";
        let d = check_no_unsafe(&p(), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn unsafe_in_word_or_comment_is_clean() {
        let src = "#![forbid(unsafe_code)]\n// the word unsafe in a comment\nlet not_unsafe_ident = 1;\n";
        assert!(check_no_unsafe(&p(), src).is_empty());
    }

    #[test]
    fn missing_forbid_attr_is_caught() {
        let d = check_forbid_attr(&p(), "//! docs only\npub fn f() {}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "forbid-unsafe-attr");
        assert!(check_forbid_attr(&p(), "#![forbid(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn aqm_without_citation_is_caught() {
        let src = "/// A marking scheme with no citation.\npub struct Foo;\n\nimpl Aqm for Foo {\n}\n";
        let d = check_aqm_doc_cite(&p(), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "aqm-doc-cite");
        assert!(d[0].message.contains("Foo"));
    }

    #[test]
    fn aqm_with_citation_is_clean() {
        let src = "/// Sojourn marking per the paper (§4.2).\npub struct Foo;\n\nimpl Aqm for Foo {\n}\n";
        assert!(check_aqm_doc_cite(&p(), src).is_empty());
    }

    #[test]
    fn aqm_citation_may_sit_above_derive() {
        let src = "/// Cited scheme (§3.2).\n#[derive(Debug, Clone)]\npub struct Foo;\n\nimpl Aqm for Foo {\n}\n";
        assert!(check_aqm_doc_cite(&p(), src).is_empty());
    }

    #[test]
    fn undocumented_fault_kind_variant_is_caught() {
        let src = "pub enum FaultKind {\n    /// A flaky optic silently eating frames on the wire.\n    Loss,\n    Corrupt,\n}\n";
        let d = check_fault_kind_doc(&p(), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "fault-kind-doc");
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("Corrupt"), "{}", d[0].message);
    }

    #[test]
    fn trivial_fault_kind_doc_is_caught() {
        // A doc comment that names nothing ("/// Loss.") is as useless
        // as no doc at all.
        let src = "pub enum FaultKind {\n    /// Loss.\n    Loss,\n}\n";
        let d = check_fault_kind_doc(&p(), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn documented_fault_kind_is_clean() {
        let src = "pub enum FaultKind {\n    /// A flaky optic silently eating frames on the wire.\n    Loss,\n    /// Bit errors past the FEC budget; receiver drops on bad CRC.\n    #[allow(dead_code)]\n    Corrupt,\n}\n";
        assert!(check_fault_kind_doc(&p(), src).is_empty());
    }

    #[test]
    fn fault_kind_struct_variant_fields_are_not_variants() {
        let src = "pub enum FaultKind {\n    /// Maintenance pulling the wrong cable: the link goes dark.\n    LinkDown {\n        Link: u32,\n    },\n}\n";
        assert!(check_fault_kind_doc(&p(), src).is_empty());
    }

    #[test]
    fn other_enums_are_out_of_scope() {
        let src = "pub enum FaultKindred {\n    Undocumented,\n}\npub enum Other {\n    AlsoUndocumented,\n}\n";
        assert!(check_fault_kind_doc(&p(), src).is_empty());
    }

    #[test]
    fn diagnostic_formats_as_file_line_rule() {
        let d = Diagnostic {
            file: PathBuf::from("crates/core/src/x.rs"),
            line: 7,
            rule: "no-unwrap",
            message: "msg".into(),
        };
        assert_eq!(d.to_string(), "crates/core/src/x.rs:7: [no-unwrap] msg");
    }
}
