//! The token-level lint engine: rule trait, registry plumbing, the
//! suppression ledger, and structured diagnostics.
//!
//! Responsibilities are split so each rule stays a pure function over
//! one file's tokens:
//!
//! * [`SourceFile`] lexes a file once and precomputes what every rule
//!   wants: the comment-free token view, `#[cfg(test)]` mod spans, and
//!   the `lint:allow(...)` escape sites found in comments.
//! * [`Rule`] is the table-driven interface: an id, a severity, a
//!   human summary, a path [`Scope`], a test-span policy, and `check`.
//! * [`run`] executes every rule over every in-scope file, then applies
//!   the escape-hatch protocol centrally: a justified
//!   `lint:allow(<rule>): <why>` on the offending line suppresses the
//!   diagnostic and marks the site *used*; a bare allow becomes a
//!   "needs justification" diagnostic; an allow that suppressed nothing
//!   anywhere becomes an `unused-allow` diagnostic — stale escapes rot
//!   into lies, so the engine deletes their license to exist.
//!
//! Diagnostics carry `file:line:col`, the rule id, a severity, and a
//! message, and render as text or as the JSON schema `lint --format
//! json` validates (see [`to_json`] / [`crate::jsonck`]).

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lex::{lex, Token};

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// How a finding affects the exit code: `Deny` findings fail the lint
/// gate; `Warn` findings are printed (and serialized) but do not fail.
/// Every shipped rule currently denies — the variant exists so a rule
/// can be landed in observation mode before it starts gating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails `cargo xtask lint` (and therefore `ci`).
    Deny,
    /// Reported but never fails the gate.
    Warn,
}

impl Severity {
    /// Lowercase name used in JSON output and the rule table.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One lint finding, printed as `file:line:col: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column (0 when the finding is file-scoped).
    pub col: usize,
    /// Rule identifier (also the name accepted by `lint:allow(...)`).
    pub rule: &'static str,
    /// Whether this finding fails the gate.
    pub severity: Severity,
    /// Human-oriented explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.col,
            self.rule,
            self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Source files
// ---------------------------------------------------------------------------

/// A `lint:allow(<rule>)` escape comment found in a source file.
#[derive(Debug, Clone)]
pub struct AllowSite {
    /// 1-based line the comment starts on (the line it suppresses).
    pub line: usize,
    /// The rule name inside the parentheses (not validated here).
    pub rule: String,
    /// True when a `: <justification>` of at least 10 chars follows.
    pub justified: bool,
}

/// One lexed source file plus the precomputed views rules share.
pub struct SourceFile {
    /// Repo-relative path (rules scope on this).
    pub path: PathBuf,
    /// Raw source text.
    pub raw: String,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Comment-free token stream (what pattern rules iterate).
    pub code: Vec<Token>,
    /// 1-based inclusive line ranges of `#[cfg(test)] mod … { … }`.
    pub test_spans: Vec<(usize, usize)>,
    /// Escape-hatch comments, in file order.
    pub allows: Vec<AllowSite>,
}

impl SourceFile {
    /// Lex `raw` and precompute the shared views.
    pub fn new(path: PathBuf, raw: String) -> Self {
        let tokens = lex(&raw);
        let code: Vec<Token> = tokens.iter().filter(|t| !t.is_comment()).cloned().collect();
        let test_spans = test_spans(&code);
        let allows = collect_allows(&tokens);
        SourceFile { path, raw, tokens, code, test_spans, allows }
    }

    /// True if `line` falls inside a `#[cfg(test)]` mod block.
    pub fn in_test_span(&self, line: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

/// 1-based inclusive line ranges of `#[cfg(test)]`-gated `mod` blocks,
/// computed by brace-tracking the comment-free token stream.
fn test_spans(code: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < code.len() {
        let attr = code[i].is_punct("#")
            && code[i + 1].is_punct("[")
            && code[i + 2].is_ident("cfg")
            && code[i + 3].is_punct("(")
            && code[i + 4].is_ident("test")
            && code[i + 5].is_punct(")")
            && code[i + 6].is_punct("]");
        if !attr {
            i += 1;
            continue;
        }
        let start_line = code[i].line;
        // Skip further attributes and visibility to the `mod` keyword.
        let mut j = i + 7;
        loop {
            if j >= code.len() {
                break;
            }
            if code[j].is_punct("#") && code.get(j + 1).is_some_and(|t| t.is_punct("[")) {
                // Skip a balanced attribute group.
                let mut depth = 0i64;
                j += 1;
                while j < code.len() {
                    if code[j].is_punct("[") {
                        depth += 1;
                    } else if code[j].is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
                continue;
            }
            if code[j].is_ident("pub") {
                j += 1;
                // Skip a `(crate)` / `(super)` / `(in path)` restriction.
                if code.get(j).is_some_and(|t| t.is_punct("(")) {
                    let mut depth = 0i64;
                    while j < code.len() {
                        if code[j].is_punct("(") {
                            depth += 1;
                        } else if code[j].is_punct(")") {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                }
                continue;
            }
            break;
        }
        if !code.get(j).is_some_and(|t| t.is_ident("mod")) {
            i += 1;
            continue;
        }
        // Find the opening brace (an external `mod x;` has none).
        while j < code.len() && !code[j].is_punct("{") && !code[j].is_punct(";") {
            j += 1;
        }
        if !code.get(j).is_some_and(|t| t.is_punct("{")) {
            i = j;
            continue;
        }
        let mut depth = 0i64;
        let mut end_line = code[j].line;
        while j < code.len() {
            if code[j].is_punct("{") {
                depth += 1;
            } else if code[j].is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    end_line = code[j].line;
                    break;
                }
            }
            end_line = code[j].line;
            j += 1;
        }
        spans.push((start_line, end_line));
        i = j + 1;
    }
    spans
}

/// Scan comment tokens for `lint:allow(<rule>)` escapes. A justified
/// allow carries `: <why>` with at least 10 characters of prose.
///
/// Only a kebab-case rule name registers as an escape site: prose that
/// *talks about* the protocol (`lint:allow(<rule>)`, `lint:allow(...)`
/// in rule docs and messages) is not an escape.
fn collect_allows(tokens: &[Token]) -> Vec<AllowSite> {
    let mut out = Vec::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        let mut rest = t.text.as_str();
        while let Some(at) = rest.find("lint:allow(") {
            rest = &rest[at + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let rule = rest[..close].trim().to_string();
            rest = &rest[close + 1..];
            if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
                continue;
            }
            let justification = rest.strip_prefix(':').map(str::trim).unwrap_or("");
            out.push(AllowSite {
                line: t.line,
                rule,
                justified: justification.len() >= 10,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Which files a rule runs on: a predicate over the repo-relative path
/// plus the human description printed by `--list` and the doc tables.
#[derive(Clone, Copy)]
pub struct Scope {
    /// Short description for the rule table (e.g. "library `src/` trees").
    pub desc: &'static str,
    /// Path predicate (repo-relative paths, `/`-separated components).
    pub applies: fn(&Path) -> bool,
}

/// A lint rule on the token engine.
///
/// Implementations must be pure functions of the [`SourceFile`]: no
/// filesystem access, no cross-file state. Cross-file concerns
/// (suppression bookkeeping, `unused-allow`) live in [`run`].
pub trait Rule {
    /// Stable identifier — the `--rule` argument and `lint:allow` name.
    fn id(&self) -> &'static str;
    /// Whether findings fail the gate.
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    /// One-line description for `--list` and the doc tables.
    fn summary(&self) -> &'static str;
    /// Which files the rule runs on.
    fn scope(&self) -> Scope;
    /// True when `#[cfg(test)]` mod blocks are exempt.
    fn exempts_tests(&self) -> bool {
        false
    }
    /// Append findings for one file. Implementations need not handle
    /// test spans (use [`SourceFile::in_test_span`] when
    /// [`Rule::exempts_tests`]), `lint:allow` escapes, or severity —
    /// the engine applies those.
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>);
}

/// The rule id reserved for the engine-level stale-escape check; see
/// [`run`] and `rules::UnusedAllow`.
pub const UNUSED_ALLOW: &str = "unused-allow";

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Run `rules` over `files`, apply the suppression protocol, and return
/// diagnostics sorted by `(file, line, col, rule)`.
///
/// All rules always execute (allow-site usage is only meaningful
/// against the full rule set); use [`filter_rules`] afterwards to
/// narrow *output* to selected rules.
pub fn run(files: &[SourceFile], rules: &[Box<dyn Rule>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // (file index, line, rule) sites consumed by a suppression.
    let mut used: Vec<(usize, usize, String)> = Vec::new();

    for rule in rules {
        for (fi, file) in files.iter().enumerate() {
            if !(rule.scope().applies)(&file.path) {
                continue;
            }
            let mut raw = Vec::new();
            rule.check(file, &mut raw);
            if rule.exempts_tests() {
                raw.retain(|d| !file.in_test_span(d.line));
            }
            // One finding per (line, rule): the first by column wins —
            // a second hit on the same line adds noise, not signal.
            raw.sort_by_key(|d| (d.line, d.col));
            raw.dedup_by_key(|d| d.line);
            for mut d in raw {
                d.severity = rule.severity();
                match file
                    .allows
                    .iter()
                    .find(|a| a.line == d.line && a.rule == rule.id())
                {
                    Some(a) => {
                        used.push((fi, d.line, rule.id().to_string()));
                        if !a.justified {
                            d.message = format!(
                                "lint:allow({}) needs a `: <justification>` (>= 10 chars)",
                                rule.id()
                            );
                            out.push(d);
                        }
                    }
                    None => out.push(d),
                }
            }
        }
    }

    // Stale escapes: an allow that suppressed nothing is itself a
    // violation — it documents a hazard that no longer exists (or
    // never did) and would silently license a future one.
    let known: Vec<&str> = rules.iter().map(|r| r.id()).collect();
    for (fi, file) in files.iter().enumerate() {
        for a in &file.allows {
            if a.rule == UNUSED_ALLOW {
                continue; // allowing the allow-checker is not a thing
            }
            let consumed = used
                .iter()
                .any(|(ufi, line, rule)| *ufi == fi && *line == a.line && *rule == a.rule);
            if consumed {
                continue;
            }
            let message = if known.contains(&a.rule.as_str()) {
                format!(
                    "lint:allow({}) suppresses no diagnostic on this line — delete the stale escape",
                    a.rule
                )
            } else {
                format!(
                    "lint:allow({}) names an unknown rule (see `cargo xtask lint --list`)",
                    a.rule
                )
            };
            out.push(Diagnostic {
                file: file.path.clone(),
                line: a.line,
                col: 0,
                rule: UNUSED_ALLOW,
                severity: Severity::Deny,
                message,
            });
        }
    }

    out.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.col.cmp(&b.col))
            .then(a.rule.cmp(b.rule))
    });
    out
}

/// Keep only diagnostics for the named rules (used by `--rule`).
pub fn filter_rules(diags: Vec<Diagnostic>, only: &[String]) -> Vec<Diagnostic> {
    if only.is_empty() {
        return diags;
    }
    diags
        .into_iter()
        .filter(|d| only.iter().any(|r| r == d.rule))
        .collect()
}

// ---------------------------------------------------------------------------
// Repo walk
// ---------------------------------------------------------------------------

/// All `.rs` files under `dir`, recursively, sorted for deterministic
/// output. Skips `target/`, hidden directories, and `fixtures/` trees
/// (the lint test corpus contains planted violations by design).
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if name != "target" && name != "fixtures" && !name.starts_with('.') {
                    stack.push(p);
                }
            } else if name.ends_with(".rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Load every repo `.rs` file as a [`SourceFile`] with repo-relative
/// paths (unreadable files are skipped — the build would fail anyway).
pub fn load_repo(repo: &Path) -> Vec<SourceFile> {
    rust_files(repo)
        .into_iter()
        .filter_map(|f| {
            let raw = fs::read_to_string(&f).ok()?;
            let rel = f.strip_prefix(repo).unwrap_or(&f).to_path_buf();
            Some(SourceFile::new(rel, raw))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

/// Serialize diagnostics as the versioned JSON document downstream
/// tooling parses (schema checked by [`crate::jsonck::validate_lint_json`]):
///
/// ```json
/// {"version":1,"count":N,"diagnostics":[
///   {"file":"…","line":1,"col":2,"rule":"…","severity":"deny","message":"…"}
/// ]}
/// ```
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut s = String::new();
    s.push_str("{\"version\":1,\"count\":");
    s.push_str(&diags.len().to_string());
    s.push_str(",\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"file\":");
        json_string(&mut s, &d.file.display().to_string());
        s.push_str(",\"line\":");
        s.push_str(&d.line.to_string());
        s.push_str(",\"col\":");
        s.push_str(&d.col.to_string());
        s.push_str(",\"rule\":");
        json_string(&mut s, d.rule);
        s.push_str(",\"severity\":");
        json_string(&mut s, d.severity.as_str());
        s.push_str(",\"message\":");
        json_string(&mut s, &d.message);
        s.push('}');
    }
    s.push_str("]}");
    s
}

/// Append `v` as a JSON string literal (escaping quotes, backslashes,
/// and control characters).
fn json_string(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NeedleRule {
        id: &'static str,
        needle: &'static str,
        severity: Severity,
        exempt_tests: bool,
    }

    impl Rule for NeedleRule {
        fn id(&self) -> &'static str {
            self.id
        }
        fn severity(&self) -> Severity {
            self.severity
        }
        fn summary(&self) -> &'static str {
            "test rule"
        }
        fn scope(&self) -> Scope {
            Scope { desc: "everywhere", applies: |_| true }
        }
        fn exempts_tests(&self) -> bool {
            self.exempt_tests
        }
        fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
            for t in &file.code {
                if t.is_ident(self.needle) {
                    out.push(Diagnostic {
                        file: file.path.clone(),
                        line: t.line,
                        col: t.col,
                        rule: self.id,
                        severity: Severity::Deny,
                        message: format!("found {}", self.needle),
                    });
                }
            }
        }
    }

    fn needle_rule(id: &'static str, needle: &'static str) -> Box<dyn Rule> {
        Box::new(NeedleRule { id, needle, severity: Severity::Deny, exempt_tests: false })
    }

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(PathBuf::from(path), src.to_string())
    }

    #[test]
    fn justified_allow_suppresses_and_is_used() {
        let f = file(
            "a.rs",
            "badword(); // lint:allow(rule-x): this occurrence is provably fine here\n",
        );
        let d = run(&[f], &[needle_rule("rule-x", "badword")]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn bare_allow_is_flagged_for_justification() {
        let f = file("a.rs", "badword(); // lint:allow(rule-x)\n");
        let d = run(&[f], &[needle_rule("rule-x", "badword")]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("justification"), "{}", d[0].message);
    }

    #[test]
    fn unused_allow_is_flagged() {
        let f = file(
            "a.rs",
            "fine(); // lint:allow(rule-x): nothing here actually trips the rule\n",
        );
        let d = run(&[f], &[needle_rule("rule-x", "badword")]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, UNUSED_ALLOW);
        assert!(d[0].message.contains("stale"), "{}", d[0].message);
    }

    #[test]
    fn unknown_rule_allow_is_flagged() {
        let f = file("a.rs", "x(); // lint:allow(no-such-rule): pointless but confident\n");
        let d = run(&[f], &[needle_rule("rule-x", "badword")]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, UNUSED_ALLOW);
        assert!(d[0].message.contains("unknown rule"), "{}", d[0].message);
    }

    #[test]
    fn one_diagnostic_per_line_per_rule() {
        let f = file("a.rs", "badword(); badword(); badword();\n");
        let d = run(&[f], &[needle_rule("rule-x", "badword")]);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn test_span_exemption_is_per_rule() {
        let src = "fn f() { badword(); }\n#[cfg(test)]\nmod tests {\n    fn t() { badword(); }\n}\n";
        let strict = run(&[file("a.rs", src)], &[needle_rule("rule-x", "badword")]);
        assert_eq!(strict.len(), 2, "{strict:?}");
        let lenient = run(
            &[file("a.rs", src)],
            &[Box::new(NeedleRule {
                id: "rule-x",
                needle: "badword",
                severity: Severity::Deny,
                exempt_tests: true,
            }) as Box<dyn Rule>],
        );
        assert_eq!(lenient.len(), 1, "{lenient:?}");
        assert_eq!(lenient[0].line, 1);
    }

    #[test]
    fn test_spans_via_tokens() {
        let src = "pub fn f() {}\n\n#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n    fn t() {}\n}\nfn g() {}\n";
        let f = file("a.rs", src);
        assert_eq!(f.test_spans, vec![(3, 7)]);
        assert!(f.in_test_span(6));
        assert!(!f.in_test_span(8));
    }

    #[test]
    fn restricted_visibility_test_mod_is_spanned() {
        let src = "fn f() {}\n#[cfg(test)]\npub(crate) mod test_util {\n    fn t() {}\n}\n";
        let f = file("a.rs", src);
        assert_eq!(f.test_spans, vec![(2, 5)]);
    }

    #[test]
    fn allow_placeholders_in_docs_are_not_escape_sites() {
        let src = "/// append `lint:allow(<rule>): <why>` or `lint:allow(...)`\nfn f() {}\n";
        let f = file("a.rs", src);
        assert!(f.allows.is_empty(), "{:?}", f.allows);
    }

    #[test]
    fn braces_in_strings_do_not_skew_test_spans() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}}}{\";\n    fn t() {}\n}\nfn g() {}\n";
        let f = file("a.rs", src);
        assert_eq!(f.test_spans, vec![(1, 5)]);
    }

    #[test]
    fn warn_severity_is_stamped() {
        let f = file("a.rs", "badword();\n");
        let d = run(
            &[f],
            &[Box::new(NeedleRule {
                id: "rule-w",
                needle: "badword",
                severity: Severity::Warn,
                exempt_tests: false,
            }) as Box<dyn Rule>],
        );
        assert_eq!(d[0].severity, Severity::Warn);
    }

    #[test]
    fn filter_rules_narrows_output() {
        let f = file("a.rs", "alpha(); beta();\n");
        let d = run(
            &[f],
            &[needle_rule("rule-a", "alpha"), needle_rule("rule-b", "beta")],
        );
        assert_eq!(d.len(), 2);
        let only = filter_rules(d, &["rule-b".to_string()]);
        assert_eq!(only.len(), 1);
        assert_eq!(only[0].rule, "rule-b");
    }

    #[test]
    fn json_escapes_and_counts() {
        let d = vec![Diagnostic {
            file: PathBuf::from("a.rs"),
            line: 3,
            col: 7,
            rule: "rule-x",
            severity: Severity::Deny,
            message: "say \"hi\"\\\n".into(),
        }];
        let j = to_json(&d);
        assert!(j.starts_with("{\"version\":1,\"count\":1,"), "{j}");
        assert!(j.contains("\"say \\\"hi\\\"\\\\\\n\""), "{j}");
        assert!(crate::jsonck::validate_lint_json(&j).is_ok());
        assert!(crate::jsonck::validate_lint_json(&to_json(&[])).is_ok());
    }

    #[test]
    fn diagnostic_formats_with_col() {
        let d = Diagnostic {
            file: PathBuf::from("crates/core/src/x.rs"),
            line: 7,
            col: 12,
            rule: "no-unwrap",
            severity: Severity::Deny,
            message: "msg".into(),
        };
        assert_eq!(d.to_string(), "crates/core/src/x.rs:7:12: [no-unwrap] msg");
    }
}
