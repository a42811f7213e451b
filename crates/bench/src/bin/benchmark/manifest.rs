//! The manifest every result file starts with: what produced it, on
//! what, and how busy the host was.

use std::process::Command;

use tcn_experiments::json::{Json, ToJson};

use crate::workloads::Workload;

/// First line of `cmd`'s standard output, if it ran and succeeded.
fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// The manifest of a result file measured at `seed` for `seconds` per
/// workload. Outside a git checkout the revision reads `unknown`.
pub fn manifest(seed: u64, seconds: u64) -> Json {
    let unknown = || "unknown".to_string();
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty());
    let load_1m = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok());
    let constants = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.constants()))
        .collect();
    Json::obj(vec![
        (
            "git_rev",
            first_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(unknown)
                .to_json(),
        ),
        ("git_dirty", dirty.to_json()),
        ("seed", seed.to_json()),
        ("seconds_per_workload", seconds.to_json()),
        ("workload_constants", Json::Obj(constants)),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .to_json(),
        ),
        ("load_avg_1m_at_start", load_1m.to_json()),
        (
            "rustc",
            first_line("rustc", &["-V"])
                .unwrap_or_else(unknown)
                .to_json(),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_json(),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_the_json_layer() {
        let m = manifest(7, 15);
        let back = Json::parse(&m.pretty()).expect("manifest parses back");
        assert_eq!(m, back);
        assert_eq!(back.u64_field("seed"), Ok(7));
        let sizes = back.get("workload_constants").expect("constants present");
        for w in Workload::ALL {
            assert!(
                sizes.get(w.name()).is_some(),
                "{} constants missing",
                w.name()
            );
        }
        assert!(back.u64_field("nproc").expect("nproc") >= 1);
    }
}
