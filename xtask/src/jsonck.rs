//! Schema check for the lint engine's `--format json` output, run on
//! the exact bytes before downstream tooling sees them.
//!
//! The document is read by the repo's one JSON reader
//! ([`crate::json`], the experiments crate's `json.rs` mounted with
//! `#[path]`, so `xtask` stays dependency-free) and then held to the
//! schema the engine promises:
//! `{"version":1,"count":N,"diagnostics":[…]}` where every diagnostic
//! carries `file`/`line`/`col`/`rule`/`severity`/`message` of the right
//! types and `count` equals the array length. The `ci` lint stage runs
//! [`validate_lint_json`] on the bytes it prints, so a malformed
//! document fails the gate rather than some consumer's parser at 2 a.m.

use crate::json::Json;

/// Validate a lint `--format json` document against the schema the
/// engine promises (see [`crate::engine::to_json`]).
pub fn validate_lint_json(src: &str) -> Result<(), String> {
    let doc = Json::parse(src)?;
    if doc.u64_field("version")? != 1 {
        return Err(format!("unsupported version {:?}", doc.get("version")));
    }
    let count = doc.u64_field("count")? as usize;
    let diags = doc
        .get("diagnostics")
        .and_then(Json::as_arr)
        .ok_or("field `diagnostics` must be an array")?;
    if diags.len() != count {
        return Err(format!(
            "`count` is {count} but `diagnostics` has {} entries",
            diags.len()
        ));
    }
    for (idx, d) in diags.iter().enumerate() {
        let check = || {
            for key in ["file", "rule", "message"] {
                if d.str_field(key)?.is_empty() {
                    return Err(format!("field `{key}` is empty"));
                }
            }
            d.u64_field("line")?;
            d.u64_field("col")?;
            match d.str_field("severity")? {
                "deny" | "warn" => Ok(()),
                sev => Err(format!("bad severity `{sev}`")),
            }
        };
        check().map_err(|e| format!("diagnostic {idx}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_accepts_valid_and_rejects_drift() {
        let ok = r#"{"version":1,"count":1,"diagnostics":[{"file":"a.rs","line":1,"col":2,"rule":"r","severity":"deny","message":"m"}]}"#;
        assert!(validate_lint_json(ok).is_ok());
        let wrong_count = ok.replace("\"count\":1", "\"count\":2");
        assert!(validate_lint_json(&wrong_count).is_err());
        let bad_sev = ok.replace("\"deny\"", "\"fatal\"");
        assert!(validate_lint_json(&bad_sev).is_err());
        let missing = ok.replace("\"rule\":\"r\",", "");
        assert!(validate_lint_json(&missing).is_err());
        let bad_version = ok.replace("\"version\":1", "\"version\":2");
        assert!(validate_lint_json(&bad_version).is_err());
    }
}
