//! The named chaos library: every scenario file under `scenarios/` is
//! embedded at compile time, so `figs scenario <id>` works from any
//! working directory and the binary can never drift from the files.
//!
//! The registry also carries the raw source bytes — the checkpoint
//! layer folds those bytes (not the path) into its config hash, so
//! editing a scenario file invalidates exactly the cells built from
//! the old bytes.

use super::{parse_scenario, Scenario};
use crate::json::Json;

/// One embedded scenario: its id and the raw `scenarios/<id>.json5`
/// source bytes.
#[derive(Debug, Clone, Copy)]
pub struct NamedScenario {
    /// The scenario id (`figs scenario <id>`), equal to the file stem.
    pub id: &'static str,
    /// The file's source text, embedded verbatim.
    pub source: &'static str,
}

macro_rules! named {
    ($id:literal) => {
        NamedScenario {
            id: $id,
            source: include_str!(concat!("../../../../scenarios/", $id, ".json5")),
        }
    };
}

/// Every named scenario, in menu order.
pub const LIBRARY: &[NamedScenario] = &[
    named!("quiet-baseline"),
    named!("incast-storm"),
    named!("microburst-train"),
    named!("rolling-switch-upgrade"),
    named!("diurnal-load-swing"),
    named!("partial-partition"),
    named!("flap-storm"),
    named!("ecn-mark-mangling"),
    named!("buffer-squeeze"),
    named!("jitter-storm"),
    named!("lossy-uplink"),
    named!("rate-brownout"),
    named!("codel-retune"),
    named!("red-band-sweep"),
    named!("drain-cascade"),
    named!("tcn-threshold-ladder"),
    named!("cc-rollout"),
];

/// Look up a named scenario by id.
pub fn find(id: &str) -> Option<&'static NamedScenario> {
    LIBRARY.iter().find(|n| n.id == id)
}

/// Parse a named scenario's embedded source.
///
/// # Errors
/// The parse error, prefixed with the scenario id (only reachable if
/// an embedded file is edited into invalidity — the library self-test
/// catches that in CI).
pub fn load(id: &str) -> Result<Scenario, String> {
    let named = find(id).ok_or_else(|| format!("unknown scenario `{id}`"))?;
    Json::parse_json5(named.source)
        .and_then(|v| parse_scenario(&v))
        .map_err(|e| format!("scenario `{id}`: {e}"))
}

/// Levenshtein edit distance — small inputs only (id suggestions).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The candidate closest to `word` by edit distance, for "unknown …,
/// did you mean …" suggestions. `None` when nothing is plausibly close
/// (distance > half the input's length + 2).
pub fn nearest_of<'a>(word: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    let (best, dist) = candidates
        .into_iter()
        .map(|c| (c, edit_distance(word, c)))
        .min_by_key(|&(name, d)| (d, name))?;
    (dist <= word.len() / 2 + 2).then_some(best)
}

/// The library id closest to a mistyped `id`, if any is close.
pub fn nearest(id: &str) -> Option<&'static str> {
    nearest_of(id, LIBRARY.iter().map(|n| n.id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_cells_with;
    use crate::scenario::engine::run_scenario;

    #[test]
    fn library_has_at_least_fifteen_scenarios() {
        assert!(LIBRARY.len() >= 15, "only {} scenarios", LIBRARY.len());
    }

    #[test]
    fn every_scenario_parses_and_matches_its_filename() {
        for named in LIBRARY {
            let sc = load(named.id).expect(named.id);
            assert_eq!(sc.id, named.id, "id field must equal the file stem");
            assert!(!sc.about.is_empty(), "{}: empty about", named.id);
            assert!(!sc.tags.is_empty(), "{}: untagged", named.id);
        }
    }

    #[test]
    fn ids_are_unique() {
        for (i, a) in LIBRARY.iter().enumerate() {
            for b in &LIBRARY[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }

    /// The acceptance bar: every named scenario completes (quick mode)
    /// with all flows finishing and the audit invariants holding —
    /// `run_scenario` errors on either.
    #[test]
    fn every_scenario_completes_under_audit_quick() {
        let reports = run_cells_with(crate::runner::default_threads(), LIBRARY.len(), |i| {
            let sc = load(LIBRARY[i].id).expect(LIBRARY[i].id);
            run_scenario(&sc, true)
        });
        for (named, report) in LIBRARY.iter().zip(reports) {
            let report = report.unwrap_or_else(|e| panic!("{}: {e}", named.id));
            assert_eq!(report.completed, report.flows, "{}", named.id);
        }
    }

    #[test]
    fn nearest_suggests_close_ids_only() {
        assert_eq!(nearest("incast-strom"), Some("incast-storm"));
        assert_eq!(nearest("flapstorm"), Some("flap-storm"));
        assert_eq!(nearest("drain-cascde"), Some("drain-cascade"));
        assert_eq!(nearest("zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz"), None);
    }

    #[test]
    fn edit_distance_is_sane() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
    }
}
