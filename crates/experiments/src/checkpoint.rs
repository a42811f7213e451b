//! JSONL checkpoint/resume for interrupted sweeps.
//!
//! A checkpointed sweep appends one line per completed cell to a
//! sidecar file: a header line fingerprinting the sweep configuration,
//! then `{"kind":"cell","cell":i,"attempts":k,"payload":{...}}` records
//! in completion order. On restart the harness replays the file — if
//! the header's config hash and cell count match, finished cells are
//! skipped and their payloads reused verbatim, so the merged result is
//! **byte-identical** to an uninterrupted run; if anything mismatches
//! (different sweep, different scale, corrupt header) the file is
//! truncated and the sweep starts fresh. A torn trailing line — the
//! normal signature of a killed process — is ignored.
//!
//! Payload round-tripping is exact: the JSON writer renders floats with
//! Rust's shortest-round-trip formatting, so parse→render of a recorded
//! cell reproduces the original bytes.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

use crate::json::Json;

/// FNV-1a 64-bit hash, used to fingerprint sweep configurations.
pub fn fnv1a(data: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Version stamp of the checkpoint format.
const VERSION: u64 = 1;

/// An append-only cell checkpoint (see the module docs).
pub struct Checkpoint {
    file: Mutex<File>,
}

/// Cells already completed in a previous run: index → (attempts used,
/// recorded payload).
pub type DoneCells = BTreeMap<usize, (u32, Json)>;

impl Checkpoint {
    /// Open `path` for a sweep with fingerprint `config_hash` over
    /// `cells` cells. Returns the handle plus the completed cells
    /// recovered from a compatible previous run (empty when starting
    /// fresh).
    ///
    /// # Errors
    /// Propagates I/O errors creating or writing the file; an existing
    /// file that is unreadable or incompatible is *not* an error — it is
    /// truncated and the sweep starts over.
    pub fn open(
        path: &Path,
        config_hash: u64,
        cells: usize,
    ) -> std::io::Result<(Checkpoint, DoneCells)> {
        let done = match std::fs::read_to_string(path) {
            Ok(text) => parse_done(&text, config_hash, cells),
            Err(_) => None,
        };
        match done {
            Some(done) => {
                let file = OpenOptions::new().append(true).open(path)?;
                Ok((
                    Checkpoint {
                        file: Mutex::new(file),
                    },
                    done,
                ))
            }
            None => {
                let mut file = File::create(path)?;
                let header = Json::obj(vec![
                    ("kind", Json::Str("header".into())),
                    ("version", Json::Num(VERSION as f64)),
                    ("config_hash", Json::Str(format!("{config_hash:016x}"))),
                    ("cells", Json::Num(cells as f64)),
                ]);
                writeln!(file, "{}", header.compact())?;
                file.flush()?;
                Ok((
                    Checkpoint {
                        file: Mutex::new(file),
                    },
                    BTreeMap::new(),
                ))
            }
        }
    }

    /// Append one completed cell and flush, so a kill immediately after
    /// loses at most the line being written.
    ///
    /// # Errors
    /// Propagates I/O errors from the append.
    pub fn record(&self, cell: usize, attempts: u32, payload: &Json) -> std::io::Result<()> {
        let line = Json::obj(vec![
            ("kind", Json::Str("cell".into())),
            ("cell", Json::Num(cell as f64)),
            ("attempts", Json::Num(f64::from(attempts))),
            ("payload", payload.clone()),
        ]);
        let mut f = self.file.lock().expect("checkpoint file lock poisoned");
        writeln!(f, "{}", line.compact())?;
        f.flush()
    }
}

/// Replay checkpoint text; `None` means incompatible → start fresh.
pub fn parse_done(text: &str, config_hash: u64, cells: usize) -> Option<DoneCells> {
    let mut lines = text.lines();
    let header = Json::parse(lines.next()?).ok()?;
    if header.kind().ok()? != "header"
        || header.u64_field("version").ok()? != VERSION
        || header.str_field("config_hash").ok()? != format!("{config_hash:016x}")
        || header.u64_field("cells").ok()? != cells as u64
    {
        return None;
    }
    let mut done = BTreeMap::new();
    for line in lines {
        // A torn trailing line (killed mid-write) parses as garbage:
        // stop replaying there, keeping everything before it.
        let Ok(rec) = Json::parse(line) else { break };
        let ok = (|| {
            if rec.kind()? != "cell" {
                return Err("not a cell record".to_string());
            }
            let cell: usize = rec.int_field("cell")?;
            if cell >= cells {
                return Err(format!("cell {cell} out of range"));
            }
            let attempts = rec.int_field("attempts")?;
            let payload = rec
                .get("payload")
                .ok_or_else(|| "missing payload".to_string())?;
            done.insert(cell, (attempts, payload.clone()));
            Ok(())
        })();
        if ok.is_err() {
            break;
        }
    }
    Some(done)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tcn-checkpoint-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(format!("{}-{name}", std::process::id()))
    }

    fn payload(x: u64) -> Json {
        Json::obj(vec![("x", Json::Num(x as f64))])
    }

    #[test]
    fn fresh_then_resume_recovers_cells() {
        let path = tmp("resume.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let (ck, done) = Checkpoint::open(&path, 0xABCD, 4).expect("open");
            assert!(done.is_empty());
            ck.record(0, 1, &payload(10)).expect("record");
            ck.record(2, 3, &payload(30)).expect("record");
        }
        let (_ck, done) = Checkpoint::open(&path, 0xABCD, 4).expect("reopen");
        assert_eq!(done.len(), 2);
        assert_eq!(done[&0].0, 1);
        assert_eq!(done[&2], (3, payload(30)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_hash_mismatch_starts_fresh() {
        let path = tmp("mismatch.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let (ck, _) = Checkpoint::open(&path, 1, 4).expect("open");
            ck.record(0, 1, &payload(10)).expect("record");
        }
        let (_ck, done) = Checkpoint::open(&path, 2, 4).expect("reopen");
        assert!(done.is_empty(), "different sweep must not reuse cells");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cell_count_mismatch_starts_fresh() {
        let path = tmp("count.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let (ck, _) = Checkpoint::open(&path, 1, 4).expect("open");
            ck.record(1, 1, &payload(1)).expect("record");
        }
        let (_ck, done) = Checkpoint::open(&path, 1, 5).expect("reopen");
        assert!(done.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_trailing_line_is_dropped() {
        let path = tmp("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let (ck, _) = Checkpoint::open(&path, 7, 4).expect("open");
            ck.record(0, 1, &payload(10)).expect("record");
            ck.record(1, 1, &payload(20)).expect("record");
        }
        // Simulate a kill mid-write: append half a record.
        let mut f = OpenOptions::new().append(true).open(&path).expect("append");
        write!(f, "{{\"kind\":\"cell\",\"cell\":2,\"att").expect("write");
        drop(f);
        let (_ck, done) = Checkpoint::open(&path, 7, 4).expect("reopen");
        assert_eq!(done.len(), 2, "complete records survive, torn one dropped");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fnv1a_is_stable_and_sensitive() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a("fig6|0.8"), fnv1a("fig6|0.9"));
        assert_eq!(fnv1a("abc"), fnv1a("abc"));
    }
}
