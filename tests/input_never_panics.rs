//! No file a user can hand the program may take it down: every
//! user-supplied text format — scenario documents (which `tcnsim` also
//! reads), checkpoint lines, trace lines — is mutated byte-wise from a seeded
//! `Rng` and pushed through the one JSON reader and then its typed
//! reader. Each input must come back `Ok` or `Err`; a panic (a failed
//! `assert!`, an arithmetic overflow under the test profile's overflow
//! checks, a slice out of range) fails the test with the input shown.
//!
//! Parse layer only: building and running what parsed is the scenario
//! fuzzer's job (`figs fuzz`).

use std::panic::catch_unwind;

use tcn_experiments::checkpoint::{parse_done, Checkpoint};
use tcn_experiments::config::example_json;
use tcn_experiments::fct_sweep::SweepCell;
use tcn_experiments::json::Json;
use tcn_experiments::scenario::{parse_scenario, LIBRARY};
use tcn_experiments::trace::{validate_trace, JsonlSink};
use tcn_sim::Rng;
use tcn_telemetry::{Event, Sink};

/// Mutated inputs per seed document; 20 documents make 20 000 inputs
/// (a tenth of a second under the test profile).
const MUTANTS_PER_DOC: u64 = 1_000;

/// Flip a bit, delete a span, duplicate a span, or truncate.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    let at = rng.gen_range(bytes.len() as u64) as usize;
    let end = (at + 1 + rng.gen_range(16) as usize).min(bytes.len());
    match rng.gen_range(4) {
        0 => bytes[at] ^= 1 << rng.gen_range(8),
        1 => drop(bytes.drain(at..end)),
        2 => {
            let span = bytes[at..end].to_vec();
            bytes.splice(at..at, span);
        }
        _ => bytes.truncate(at),
    }
}

const CKPT_HASH: u64 = 0xC0FFEE;
const CKPT_CELLS: usize = 4;

/// A checkpoint as the sweep harness writes it: header plus one cell.
fn checkpoint_text() -> String {
    let path = std::env::temp_dir().join(format!("tcn-never-panic-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cell = r#"{"scheme":"TCN","load":0.5,"completed":600,"flows":600,"overall_avg_us":8150.25,
        "small_avg_us":1200.5,"small_p99_us":9000,"large_avg_us":52000.75,"small_timeouts":2,"drops":17}"#;
    let (ck, _) = Checkpoint::open(&path, CKPT_HASH, CKPT_CELLS).expect("open checkpoint");
    ck.record(2, 1, &Json::parse(cell).expect("cell payload")).expect("record cell");
    let text = std::fs::read_to_string(&path).expect("read checkpoint back");
    let _ = std::fs::remove_file(&path);
    text
}

/// A trace as `figs trace` writes it: events of two kinds and an epoch.
fn trace_text() -> String {
    let mut buf = Vec::new();
    {
        let mut sink = JsonlSink::new(&mut buf);
        sink.record(&Event::Enqueue { at_ps: 7_252_414_434, port: 2, queue: 0, bytes: 1500, dscp: 2 });
        sink.record(&Event::Dequeue { at_ps: 7_252_414_434, port: 2, queue: 0, bytes: 1500, sojourn_ps: 0 });
        sink.on_epoch();
    }
    String::from_utf8(buf).expect("traces are UTF-8")
}

/// `true` when the mutant survived the JSON layer and its typed reader.
type Reader = fn(&str) -> bool;

fn read_scenario(text: &str) -> bool {
    Json::parse_json5(text).and_then(|v| parse_scenario(&v)).is_ok()
}

fn read_checkpoint(text: &str) -> bool {
    parse_done(text, CKPT_HASH, CKPT_CELLS)
        .is_some_and(|done| done.values().all(|(_, payload)| SweepCell::from_json(payload).is_ok()))
}

fn read_trace(text: &str) -> bool {
    validate_trace(text.as_bytes()).is_ok()
}

#[test]
fn mutated_input_files_are_ok_or_err_never_a_panic() {
    let mut docs: Vec<(String, String, Reader)> = LIBRARY
        .iter()
        .map(|n| (format!("scenarios/{}.json5", n.id), n.source.to_string(), read_scenario as Reader))
        .collect();
    docs.push(("tcnsim --example".into(), example_json(), read_scenario));
    docs.push(("checkpoint".into(), checkpoint_text(), read_checkpoint));
    docs.push(("trace".into(), trace_text(), read_trace));
    assert_eq!(docs.len(), 20);

    let (mut inputs, mut accepted) = (0u64, 0u64);
    for (d, (label, original, reader)) in docs.iter().enumerate() {
        assert!(reader(original), "{label}: the unmutated document must be accepted");
        for m in 0..MUTANTS_PER_DOC {
            let mut rng = Rng::stream(0x5EED_F11E + d as u64, m);
            let mut bytes = original.clone().into_bytes();
            for _ in 0..1 + rng.gen_range(3) {
                mutate(&mut rng, &mut bytes);
            }
            // The binaries read files with `read_to_string`, so the
            // readers only ever see valid UTF-8.
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let outcome = catch_unwind(|| reader(&text));
            assert!(outcome.is_ok(), "{label}: mutant {m} panicked its reader; input:\n{text}");
            inputs += 1;
            accepted += u64::from(outcome.unwrap_or(false));
        }
    }
    assert_eq!(inputs, 20_000);
    // The loop only proves something if mutants get past the JSON layer
    // into the typed readers, and if most of them are rejected.
    assert!(accepted > inputs / 50 && accepted < inputs / 2, "{accepted} of {inputs} accepted");
}
