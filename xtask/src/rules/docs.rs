//! Provenance / taxonomy documentation rules: AQMs must cite the paper
//! section they implement, fault kinds must name the real-world failure
//! they model, and the `TcnError` taxonomy must stay exhaustively
//! tagged. These are the rules that need the lexer's comment trivia —
//! a substring scan cannot ask "is there a doc comment above this
//! token".

use crate::engine::{Diagnostic, Rule, Scope, SourceFile};
use crate::lex::{Token, TokenKind};
use crate::rules::{aqm_scope, diag_at, every_file, seq_at, transport_scope, Pat};

/// Nearest-first doc comments directly above `tokens[idx]`, skipping
/// attribute groups (`#[…]`, `#![…]`), visibility modifiers
/// (`pub`, `pub(crate)`), and plain (non-doc) comments on the walk.
fn docs_above(tokens: &[Token], idx: usize) -> Vec<&Token> {
    let mut out = Vec::new();
    let mut k = idx;
    while k > 0 {
        let t = &tokens[k - 1];
        if t.is_doc_comment() {
            out.push(t);
            k -= 1;
        } else if t.is_comment()
            || t.is_ident("pub")
            || t.is_ident("crate")
            || t.is_ident("super")
            || t.is_ident("in")
            || t.is_punct("(")
            || t.is_punct(")")
        {
            k -= 1;
        } else if t.is_punct("]") {
            // Skip a balanced attribute group back to its `#`.
            let mut depth = 0i64;
            let mut j = k - 1;
            loop {
                if tokens[j].is_punct("]") {
                    depth += 1;
                } else if tokens[j].is_punct("[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            if j > 0 && tokens[j - 1].is_punct("!") {
                j -= 1;
            }
            if j > 0 && tokens[j - 1].is_punct("#") {
                k = j - 1;
            } else {
                break;
            }
        } else {
            break;
        }
    }
    out
}

/// One enum variant found by [`enum_variants`].
struct VariantInfo {
    name: String,
    line: usize,
    col: usize,
    /// True when the nearest doc comment above carries >= 10 chars of
    /// prose (a `/// Loss.` stub is as useless as nothing).
    documented: bool,
    /// The variant's full doc prose, top line first (rules that look
    /// for markers must see every line, not just the nearest).
    doc: String,
}

/// The variants of `enum <name>` in this file, or `None` when the file
/// does not define it. Brace-tracks the token stream, so braces in
/// strings or comments never skew the walk.
fn enum_variants(file: &SourceFile, name: &str) -> Option<(usize, Vec<VariantInfo>)> {
    let toks = &file.tokens;
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    // Find `enum <name>` among significant tokens.
    let pos = sig.windows(2).position(|w| {
        toks[w[0]].is_ident("enum") && toks[w[1]].is_ident(name)
    })?;
    let enum_line = toks[sig[pos]].line;
    // Advance to the opening brace.
    let mut s = pos + 2;
    while s < sig.len() && !toks[sig[s]].is_punct("{") {
        if toks[sig[s]].is_punct(";") {
            return Some((enum_line, Vec::new()));
        }
        s += 1;
    }
    let mut depth = 0i64;
    let mut variants = Vec::new();
    let mut prev: Option<&Token> = None;
    for &ti in &sig[s..] {
        let t = &toks[ti];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1
            && t.kind == TokenKind::Ident
            && t.text.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            && prev.is_some_and(|p| p.is_punct("{") || p.is_punct(",") || p.is_punct("]"))
        {
            let docs = docs_above(toks, ti);
            let documented = docs.first().is_some_and(|d| d.doc_text().len() >= 10);
            // `docs_above` walks upward, so reverse for reading order.
            let doc = docs
                .iter()
                .rev()
                .map(|d| d.doc_text())
                .collect::<Vec<_>>()
                .join("\n");
            variants.push(VariantInfo {
                name: t.text.clone(),
                line: t.line,
                col: t.col,
                documented,
                doc,
            });
        }
        prev = Some(t);
    }
    Some((enum_line, variants))
}

/// `aqm-doc-cite`: every type with an `impl Aqm for X` in this file
/// must have a `struct X` whose doc comment cites a paper section
/// (`§`). The struct is looked up in the same file — all AQMs in this
/// repo are defined beside their impl.
pub struct AqmDocCite;

impl Rule for AqmDocCite {
    fn id(&self) -> &'static str {
        "aqm-doc-cite"
    }
    fn summary(&self) -> &'static str {
        "a public AQM whose doc comment never cites a paper section (`§`)"
    }
    fn scope(&self) -> Scope {
        Scope { desc: "`crates/core/src`, `crates/baselines/src`", applies: aqm_scope }
    }
    fn exempts_tests(&self) -> bool {
        true
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let code = &file.code;
        for i in 0..code.len() {
            if !seq_at(code, i, &[Pat::Id("impl"), Pat::Id("Aqm"), Pat::Id("for"), Pat::AnyId]) {
                continue;
            }
            let ty = &code[i + 3].text;
            // Find `struct <ty>` in the full token stream.
            let toks = &file.tokens;
            let sig: Vec<usize> = (0..toks.len()).filter(|&k| !toks[k].is_comment()).collect();
            let Some(w) = sig.windows(2).find(|w| {
                toks[w[0]].is_ident("struct") && toks[w[1]].is_ident(ty)
            }) else {
                continue; // type defined elsewhere; out of this rule's reach
            };
            let cited = docs_above(toks, w[0])
                .iter()
                .any(|d| d.doc_text().contains('§'));
            if !cited {
                out.push(diag_at(
                    file,
                    &toks[w[0]],
                    self.id(),
                    format!(
                        "`{ty}` implements Aqm but its doc comment never cites a \
                         paper section (add a `§n.m` reference)"
                    ),
                ));
            }
        }
    }
}

/// `cc-doc-cite`: every type with an `impl CongestionControl for X` in
/// this file must have a `struct X` whose doc comment cites the RFC or
/// paper section it implements (`§`) — the same provenance discipline
/// `aqm-doc-cite` imposes on marking schemes. A congestion controller
/// is a transcription of a published algorithm; a reader auditing the
/// window arithmetic needs the section to diff against. The enum
/// dispatcher (`CcAlgo`) is out of reach by construction: the lookup
/// only finds `struct` definitions.
pub struct CcDocCite;

impl Rule for CcDocCite {
    fn id(&self) -> &'static str {
        "cc-doc-cite"
    }
    fn summary(&self) -> &'static str {
        "a congestion controller whose doc comment never cites its source RFC/paper section (`§`)"
    }
    fn scope(&self) -> Scope {
        Scope { desc: "`crates/transport/src`", applies: transport_scope }
    }
    fn exempts_tests(&self) -> bool {
        true
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let code = &file.code;
        for i in 0..code.len() {
            if !seq_at(
                code,
                i,
                &[Pat::Id("impl"), Pat::Id("CongestionControl"), Pat::Id("for"), Pat::AnyId],
            ) {
                continue;
            }
            let ty = &code[i + 3].text;
            // Find `struct <ty>` in the full token stream.
            let toks = &file.tokens;
            let sig: Vec<usize> = (0..toks.len()).filter(|&k| !toks[k].is_comment()).collect();
            let Some(w) = sig.windows(2).find(|w| {
                toks[w[0]].is_ident("struct") && toks[w[1]].is_ident(ty)
            }) else {
                continue; // enum dispatcher or foreign type; out of reach
            };
            let cited = docs_above(toks, w[0])
                .iter()
                .any(|d| d.doc_text().contains('§'));
            if !cited {
                out.push(diag_at(
                    file,
                    &toks[w[0]],
                    self.id(),
                    format!(
                        "`{ty}` implements CongestionControl but its doc comment \
                         never cites the RFC/paper section it transcribes (add a \
                         `§n.m` reference)"
                    ),
                ));
            }
        }
    }
}

/// `fault-kind-doc`: every variant of the `FaultKind` enum must carry a
/// doc comment naming the real-world failure mode it models (at least
/// 10 characters of prose). Fault taxonomies rot fastest: an
/// undocumented variant forces every reader back to the injection site
/// to learn what a counter means.
pub struct FaultKindDoc;

impl Rule for FaultKindDoc {
    fn id(&self) -> &'static str {
        "fault-kind-doc"
    }
    fn summary(&self) -> &'static str {
        "a `FaultKind` variant without a doc comment naming its real-world failure mode"
    }
    fn scope(&self) -> Scope {
        Scope { desc: "every `.rs` file", applies: every_file }
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let Some((_, variants)) = enum_variants(file, "FaultKind") else {
            return;
        };
        for v in variants.iter().filter(|v| !v.documented) {
            out.push(Diagnostic {
                file: file.path.clone(),
                line: v.line,
                col: v.col,
                rule: self.id(),
                severity: crate::engine::Severity::Deny,
                message: format!(
                    "`FaultKind::{}` has no doc comment naming the \
                     real-world failure mode it models",
                    v.name
                ),
            });
        }
    }
}

/// `exhaustive-kind-tags`: the `TcnError` taxonomy must stay stable and
/// self-describing — every variant carries a doc comment, and the
/// `kind()` method maps every variant to a string tag through an
/// explicit arm (`TcnError::X { .. } => "x"`), with no `_` wildcard
/// (which would let a new variant silently inherit someone else's tag)
/// and no duplicate tags (quarantine lists and telemetry key on them).
pub struct ExhaustiveKindTags;

impl Rule for ExhaustiveKindTags {
    fn id(&self) -> &'static str {
        "exhaustive-kind-tags"
    }
    fn summary(&self) -> &'static str {
        "a `TcnError` variant without a doc comment or without an explicit stable string tag in `kind()`"
    }
    fn scope(&self) -> Scope {
        Scope { desc: "every `.rs` file (fires where `enum TcnError` is defined)", applies: every_file }
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let Some((enum_line, variants)) = enum_variants(file, "TcnError") else {
            return;
        };
        for v in variants.iter().filter(|v| !v.documented) {
            out.push(Diagnostic {
                file: file.path.clone(),
                line: v.line,
                col: v.col,
                rule: self.id(),
                severity: crate::engine::Severity::Deny,
                message: format!(
                    "`TcnError::{}` needs a doc comment: the error taxonomy is \
                     the map readers navigate failures by",
                    v.name
                ),
            });
        }

        // Locate the body of `fn kind`.
        let code = &file.code;
        let Some(fnpos) = (0..code.len())
            .find(|&i| seq_at(code, i, &[Pat::Id("fn"), Pat::Id("kind"), Pat::Pu("(")]))
        else {
            out.push(Diagnostic {
                file: file.path.clone(),
                line: enum_line,
                col: 0,
                rule: self.id(),
                severity: crate::engine::Severity::Deny,
                message: "`TcnError` has no `kind()` method returning a stable \
                          machine-readable tag per variant"
                    .to_string(),
            });
            return;
        };
        let mut body_start = fnpos;
        while body_start < code.len() && !code[body_start].is_punct("{") {
            body_start += 1;
        }
        let mut depth = 0i64;
        let mut body_end = body_start;
        for (k, t) in code.iter().enumerate().skip(body_start) {
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    body_end = k;
                    break;
                }
            }
        }
        let body = &code[body_start..body_end];

        // No wildcard arm: `_ =>` anywhere in the body.
        for i in 0..body.len() {
            if seq_at(body, i, &[Pat::Id("_"), Pat::Pu("=>")]) {
                out.push(diag_at(
                    file,
                    &body[i],
                    self.id(),
                    "`kind()` must match `TcnError` variants exhaustively — a `_` \
                     arm lets a new variant silently share another's tag"
                        .to_string(),
                ));
            }
        }

        // Every variant: an explicit arm whose `=>` yields a string tag.
        let mut tags: Vec<(String, String)> = Vec::new(); // (tag, variant)
        for v in &variants {
            let arm = (0..body.len()).find(|&i| {
                (seq_at(body, i, &[Pat::Id("TcnError"), Pat::Pu("::")])
                    || seq_at(body, i, &[Pat::Id("Self"), Pat::Pu("::")]))
                    && body.get(i + 2).is_some_and(|t| t.is_ident(&v.name))
            });
            let Some(arm) = arm else {
                out.push(Diagnostic {
                    file: file.path.clone(),
                    line: v.line,
                    col: v.col,
                    rule: self.id(),
                    severity: crate::engine::Severity::Deny,
                    message: format!(
                        "`TcnError::{}` has no explicit arm in `kind()` — every \
                         variant needs a stable string tag",
                        v.name
                    ),
                });
                continue;
            };
            // Scan this arm: the token after its `=>` must be a string
            // literal (the tag convention: `… => "tag",`).
            let tag = (arm..body.len())
                .find(|&i| body[i].is_punct("=>"))
                .and_then(|i| body.get(i + 1))
                .filter(|t| t.kind == TokenKind::Str);
            match tag {
                Some(t) => tags.push((t.text.clone(), v.name.clone())),
                None => out.push(Diagnostic {
                    file: file.path.clone(),
                    line: v.line,
                    col: v.col,
                    rule: self.id(),
                    severity: crate::engine::Severity::Deny,
                    message: format!(
                        "`TcnError::{}`'s `kind()` arm does not yield a string \
                         literal tag directly (`… => \"tag\"`)",
                        v.name
                    ),
                }),
            }
        }

        // Tags must be unique.
        for (i, (tag, name)) in tags.iter().enumerate() {
            if tags[..i].iter().any(|(t, _)| t == tag) {
                out.push(Diagnostic {
                    file: file.path.clone(),
                    line: enum_line,
                    col: 0,
                    rule: self.id(),
                    severity: crate::engine::Severity::Deny,
                    message: format!(
                        "`TcnError::{name}` reuses the kind tag {tag} — tags key \
                         quarantine lists and telemetry, they must be unique"
                    ),
                });
            }
        }
    }
}

/// The `step:<tag>` marker inside a backticked span of a doc comment,
/// if any. Tags are kebab-case: anything else is treated as absent so
/// the diagnostic points at the malformed marker.
fn step_marker(doc: &str) -> Option<&str> {
    let start = doc.find("`step:")?;
    let rest = &doc[start + "`step:".len()..];
    let tag = &rest[..rest.find('`')?];
    (!tag.is_empty() && tag.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
        .then_some(tag)
}

/// `scenario-step-doc`: every variant of the scenario DSL's
/// `StepMutation` enum must carry a doc comment with a unique
/// backticked `step:<tag>` marker — the same tag discipline
/// `exhaustive-kind-tags` imposes on the error taxonomy. The tags name
/// mutation kinds in scenario files, fuzzer repros, and the
/// reconfiguration audit log, so a variant without one (or two variants
/// sharing one) breaks the map from a step on disk to the code that
/// applies it.
pub struct ScenarioStepDoc;

impl Rule for ScenarioStepDoc {
    fn id(&self) -> &'static str {
        "scenario-step-doc"
    }
    fn summary(&self) -> &'static str {
        "a `StepMutation` variant whose doc comment lacks a unique backticked `step:<tag>` marker"
    }
    fn scope(&self) -> Scope {
        Scope { desc: "every `.rs` file (fires where `enum StepMutation` is defined)", applies: every_file }
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let Some((enum_line, variants)) = enum_variants(file, "StepMutation") else {
            return;
        };
        let mut tags: Vec<(&str, &str)> = Vec::new(); // (tag, variant)
        for v in &variants {
            // Judge the whole doc block, not just the nearest line —
            // a marker plus prose often wraps across lines.
            if v.doc.len() < 10 {
                out.push(Diagnostic {
                    file: file.path.clone(),
                    line: v.line,
                    col: v.col,
                    rule: self.id(),
                    severity: crate::engine::Severity::Deny,
                    message: format!(
                        "`StepMutation::{}` needs a doc comment describing the \
                         chaos step it applies",
                        v.name
                    ),
                });
                continue;
            }
            match step_marker(&v.doc) {
                Some(tag) => tags.push((tag, &v.name)),
                None => out.push(Diagnostic {
                    file: file.path.clone(),
                    line: v.line,
                    col: v.col,
                    rule: self.id(),
                    severity: crate::engine::Severity::Deny,
                    message: format!(
                        "`StepMutation::{}`'s doc comment carries no backticked \
                         `step:<tag>` marker naming its mutation kind",
                        v.name
                    ),
                }),
            }
        }
        for (i, (tag, name)) in tags.iter().enumerate() {
            if tags[..i].iter().any(|(t, _)| t == tag) {
                out.push(Diagnostic {
                    file: file.path.clone(),
                    line: enum_line,
                    col: 0,
                    rule: self.id(),
                    severity: crate::engine::Severity::Deny,
                    message: format!(
                        "`StepMutation::{name}` reuses the step tag `{tag}` — tags \
                         key scenario files and fuzzer repros, they must be unique"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use std::path::PathBuf;

    fn lint_one(path: &str, src: &str, rule: Box<dyn Rule>) -> Vec<Diagnostic> {
        run(
            &[SourceFile::new(PathBuf::from(path), src.to_string())],
            &[rule],
        )
    }

    #[test]
    fn aqm_without_citation_is_caught() {
        let src = "/// A marking scheme with no citation.\npub struct Foo;\n\nimpl Aqm for Foo {\n}\n";
        let d = lint_one("crates/baselines/src/x.rs", src, Box::new(AqmDocCite));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("Foo"));
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn aqm_with_citation_above_derive_is_clean() {
        let src = "/// Cited scheme (§3.2).\n#[derive(Debug, Clone)]\npub struct Foo;\n\nimpl Aqm for Foo {\n}\n";
        assert!(lint_one("crates/baselines/src/x.rs", src, Box::new(AqmDocCite)).is_empty());
    }

    #[test]
    fn cc_without_citation_is_caught() {
        let src = "/// A window law described nowhere.\npub struct FooCc {\n    cwnd: f64,\n}\n\nimpl CongestionControl for FooCc {\n}\n";
        let d = lint_one("crates/transport/src/cc.rs", src, Box::new(CcDocCite));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("FooCc"));
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn cc_with_citation_is_clean() {
        let src = "/// Cubic window growth (RFC 8312 §4.1).\n#[derive(Debug)]\npub struct FooCc;\n\nimpl CongestionControl for FooCc {\n}\n";
        assert!(lint_one("crates/transport/src/cc.rs", src, Box::new(CcDocCite)).is_empty());
    }

    #[test]
    fn cc_enum_dispatcher_is_out_of_reach() {
        // `CcAlgo` is an enum, not a struct: the lookup finds nothing
        // and the rule stays silent rather than demanding a citation
        // on plumbing.
        let src = "pub enum CcAlgo {\n    Dctcp(DctcpCc),\n}\n\nimpl CongestionControl for CcAlgo {\n}\n";
        assert!(lint_one("crates/transport/src/cc.rs", src, Box::new(CcDocCite)).is_empty());
    }

    #[test]
    fn cc_rule_is_scoped_to_transport() {
        let src = "pub struct FooCc;\n\nimpl CongestionControl for FooCc {\n}\n";
        assert!(lint_one("crates/net/src/x.rs", src, Box::new(CcDocCite)).is_empty());
    }

    #[test]
    fn undocumented_fault_kind_variant_is_caught() {
        let src = "pub enum FaultKind {\n    /// A flaky optic silently eating frames on the wire.\n    Loss,\n    Corrupt,\n}\n";
        let d = lint_one("crates/sim/src/x.rs", src, Box::new(FaultKindDoc));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("Corrupt"));
    }

    #[test]
    fn trivial_fault_kind_doc_is_caught() {
        let src = "pub enum FaultKind {\n    /// Loss.\n    Loss,\n}\n";
        let d = lint_one("crates/sim/src/x.rs", src, Box::new(FaultKindDoc));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn fault_kind_struct_variant_fields_and_other_enums_are_ignored() {
        let src = "pub enum FaultKind {\n    /// Maintenance pulling the wrong cable: the link goes dark.\n    LinkDown {\n        Link: u32,\n    },\n}\npub enum Other { Undocumented }\n";
        assert!(lint_one("crates/sim/src/x.rs", src, Box::new(FaultKindDoc)).is_empty());
    }

    #[test]
    fn fault_kind_tuple_variant_payload_is_not_a_variant() {
        let src = "pub enum FaultKind {\n    /// Bit errors past the FEC budget on the wire.\n    Corrupt(CorruptSpec),\n}\n";
        assert!(lint_one("crates/sim/src/x.rs", src, Box::new(FaultKindDoc)).is_empty());
    }

    const GOOD_TCN_ERROR: &str = "pub enum TcnError {\n    /// The topology cannot route between two hosts.\n    Topology { detail: String },\n    /// The liveness watchdog aborted the run.\n    Stall(StallReport),\n}\nimpl TcnError {\n    pub fn kind(&self) -> &'static str {\n        match self {\n            TcnError::Topology { .. } => \"topology\",\n            TcnError::Stall(_) => \"stall\",\n        }\n    }\n}\n";

    #[test]
    fn complete_tcn_error_taxonomy_is_clean() {
        let d = lint_one("crates/core/src/x.rs", GOOD_TCN_ERROR, Box::new(ExhaustiveKindTags));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn missing_kind_arm_is_caught() {
        let src = GOOD_TCN_ERROR.replace("            TcnError::Stall(_) => \"stall\",\n", "");
        let d = lint_one("crates/core/src/x.rs", &src, Box::new(ExhaustiveKindTags));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Stall"), "{}", d[0].message);
        assert!(d[0].message.contains("stable string tag"));
    }

    #[test]
    fn wildcard_arm_is_caught() {
        let src = GOOD_TCN_ERROR.replace(
            "TcnError::Stall(_) => \"stall\",",
            "_ => \"stall\",",
        );
        let d = lint_one("crates/core/src/x.rs", &src, Box::new(ExhaustiveKindTags));
        assert!(
            d.iter().any(|d| d.message.contains("`_` arm")),
            "{d:?}"
        );
    }

    #[test]
    fn undocumented_error_variant_is_caught() {
        let src = GOOD_TCN_ERROR.replace("    /// The liveness watchdog aborted the run.\n", "");
        let d = lint_one("crates/core/src/x.rs", &src, Box::new(ExhaustiveKindTags));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("doc comment"));
    }

    #[test]
    fn duplicate_tags_are_caught() {
        let src = GOOD_TCN_ERROR.replace("\"stall\"", "\"topology\"");
        let d = lint_one("crates/core/src/x.rs", &src, Box::new(ExhaustiveKindTags));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("reuses"), "{}", d[0].message);
    }

    #[test]
    fn missing_kind_method_is_caught() {
        let src = "pub enum TcnError {\n    /// The topology cannot route between two hosts.\n    Topology { detail: String },\n}\n";
        let d = lint_one("crates/core/src/x.rs", src, Box::new(ExhaustiveKindTags));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("no `kind()`"), "{}", d[0].message);
    }

    #[test]
    fn files_without_tcn_error_are_out_of_scope() {
        assert!(lint_one(
            "crates/net/src/x.rs",
            "pub enum Other { A, B }\n",
            Box::new(ExhaustiveKindTags)
        )
        .is_empty());
    }

    const GOOD_STEP_MUTATION: &str = "pub enum StepMutation {\n    /// `step:drain` — drain every egress queue of the switch.\n    Drain,\n    /// `step:link-down` — administratively down one link (the\n    /// marker may sit on any doc line).\n    LinkDown {\n        link: u32,\n    },\n}\n";

    #[test]
    fn tagged_step_mutation_variants_are_clean() {
        let d = lint_one("crates/experiments/src/scenario/mod.rs", GOOD_STEP_MUTATION, Box::new(ScenarioStepDoc));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn step_variant_without_marker_is_caught() {
        let src = GOOD_STEP_MUTATION.replace("`step:drain` — drain", "Drains");
        let d = lint_one("crates/experiments/src/scenario/mod.rs", &src, Box::new(ScenarioStepDoc));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Drain"), "{}", d[0].message);
        assert!(d[0].message.contains("`step:<tag>`"), "{}", d[0].message);
    }

    #[test]
    fn undocumented_step_variant_is_caught() {
        let src = GOOD_STEP_MUTATION
            .replace("    /// `step:drain` — drain every egress queue of the switch.\n", "");
        let d = lint_one("crates/experiments/src/scenario/mod.rs", &src, Box::new(ScenarioStepDoc));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("doc comment"), "{}", d[0].message);
    }

    #[test]
    fn duplicate_step_tags_are_caught() {
        let src = GOOD_STEP_MUTATION.replace("step:link-down", "step:drain");
        let d = lint_one("crates/experiments/src/scenario/mod.rs", &src, Box::new(ScenarioStepDoc));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("reuses"), "{}", d[0].message);
    }

    #[test]
    fn malformed_step_marker_is_caught() {
        // Uppercase inside the marker: treated as absent, not silently
        // accepted as a tag.
        let src = GOOD_STEP_MUTATION.replace("step:drain", "step:Drain");
        let d = lint_one("crates/experiments/src/scenario/mod.rs", &src, Box::new(ScenarioStepDoc));
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn files_without_step_mutation_are_out_of_scope() {
        assert!(lint_one(
            "crates/net/src/x.rs",
            "pub enum Other { A, B }\n",
            Box::new(ScenarioStepDoc)
        )
        .is_empty());
    }
}
