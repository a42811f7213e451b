//! The binaries driven as processes: strict option parsing exits 2
//! before anything runs, a bad file exits 1 with a message and never
//! crashes, `--threads` reaches every parallel runner without going
//! through the environment, a killed sweep resumes to the bytes of an
//! uninterrupted one, every trace writer's output passes `figs
//! check-trace`, and eight fuzzer seeds survive.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use tcn_experiments::config::example_json;

const FIGS: &str = env!("CARGO_BIN_EXE_figs");
const TCNSIM: &str = env!("CARGO_BIN_EXE_tcnsim");

/// A fresh directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("tcn-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `TCN_*` variables of one run, as `(name, value)` pairs.
type Env = [(&'static str, &'static str)];

/// Run `bin args` in `dir` with exactly the `TCN_*` variables in `env`.
fn run(bin: &str, dir: &Path, args: &[&str], env: &Env) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args).current_dir(dir);
    for (name, _) in std::env::vars().filter(|(name, _)| name.starts_with("TCN_")) {
        cmd.env_remove(name);
    }
    cmd.envs(env.iter().copied()).output().expect("spawn")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn a_misspelt_flag_exits_2_before_simulating() {
    let dir = Scratch::new("typo");
    let cases: [(&[&str], &Env, &str); 5] = [
        (&["fig6", "--flws", "10"], &[], "unknown flag `--flws` — did you mean `--flows`?"),
        (&["fig6", "--flws", "10", "--flows", "abc"], &[], "unknown flag `--flws`"),
        (&["fig6", "--flows"], &[], "--flows needs a value"),
        (&["fig1", "--nonsense"], &[("TCN_RETRY_ATTEMPTS", "abc")], "unknown flag `--nonsense`"),
        (&["fig1"], &[("TCN_THREADS", "zero")], "TCN_THREADS: `zero` is not"),
    ];
    for (args, env, want) in cases {
        let out = run(FIGS, &dir.0, args, env);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed {:?}", text(&out.stdout));
        assert!(text(&out.stderr).contains(want), "{args:?}: {}", text(&out.stderr));
    }
    assert!(!dir.0.join("results").exists(), "nothing ran, nothing was written");
}

/// `--seeds` beats `TCN_FUZZ_SEEDS`, and eight fixed fuzzer seeds
/// survive: the generator only emits survivable chaos, so a violation
/// is a bug in the system.
#[test]
fn the_seeds_flag_beats_its_environment_spelling() {
    let dir = Scratch::new("seeds");
    let out = run(FIGS, &dir.0, &["fuzz", "--seeds", "8"], &[("TCN_FUZZ_SEEDS", "9")]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(text(&out.stdout).ends_with("fuzz: 8 seeds, zero violations\n"), "{}", text(&out.stdout));
    let out = run(FIGS, &dir.0, &["fuzz"], &[("TCN_FUZZ_SEEDS", "2")]);
    assert!(text(&out.stdout).ends_with("fuzz: 2 seeds, zero violations\n"), "{}", text(&out.stdout));
}

/// Kill a checkpointed sweep after two cells (exit 3, the simulated
/// kill), resume it, and the merged `results/fig6.json` is the same
/// bytes as an uninterrupted run's.
#[test]
fn a_killed_sweep_resumes_to_the_bytes_of_an_uninterrupted_one() {
    let args = ["fig6", "--flows", "60", "--loads", "0.5", "--json"];
    let control = Scratch::new("resume-control");
    let out = run(FIGS, &control.0, &args, &[]);
    assert!(out.status.success(), "control run: {}", text(&out.stderr));

    let dir = Scratch::new("resume");
    let ck = ("TCN_CHECKPOINT", "fig6.ck.jsonl");
    let out = run(FIGS, &dir.0, &args, &[ck, ("TCN_ABORT_AFTER_CELLS", "2")]);
    assert_eq!(out.status.code(), Some(3), "killed run: {}", text(&out.stderr));
    assert!(!dir.0.join("results").exists(), "a killed run writes no result");
    let out = run(FIGS, &dir.0, &args, &[ck]);
    assert!(out.status.success(), "resumed run: {}", text(&out.stderr));

    let read = |d: &Path| std::fs::read(d.join("results").join("fig6.json")).expect("fig6.json");
    assert!(read(&dir.0) == read(&control.0), "resumed fig6.json differs from the control run's");
}

/// Each way a run writes a JSONL trace — a traced figure cell, two chaos
/// scenarios, the mixed-congestion-control figure — writes one that
/// `figs check-trace` accepts.
#[test]
fn every_trace_writer_passes_check_trace() {
    let dir = Scratch::new("traces");
    let writers: [&[&str]; 4] = [
        &["trace", "fig6", "--flows", "60", "--loads", "0.5", "--out", "t.jsonl"],
        &["scenario", "quiet-baseline", "--quick", "--trace-out", "t.jsonl"],
        &["scenario", "incast-storm", "--quick", "--trace-out", "t.jsonl"],
        &["mixed", "--quick", "--trace-out", "t.jsonl"],
    ];
    for args in writers {
        let _ = std::fs::remove_file(dir.0.join("t.jsonl"));
        let out = run(FIGS, &dir.0, args, &[]);
        assert!(out.status.success(), "{args:?}: {}", text(&out.stderr));
        let out = run(FIGS, &dir.0, &["check-trace", "t.jsonl"], &[]);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", text(&out.stderr));
        assert!(text(&out.stdout).contains("OK —"), "{args:?}: {}", text(&out.stdout));
    }
}

/// Every file that used to take the process down — an `assert!` deep in
/// a simulator crate (exit 101), a stack overflow in the parser (134) —
/// is now exit 1 with a message that names the problem.
#[test]
fn a_bad_file_is_exit_1_with_a_message_never_a_crash() {
    let dir = Scratch::new("badfile");
    let example = example_json();
    let prob = r#""kind": "tcn_prob", "t_min": "400us", "t_max": "300us", "p_max": 0.5"#;
    let flaps = |windows: &str| format!(r#""faults": {{ "flaps": [{windows}] }}, "seed": 1"#);
    let edits: [(&str, &str, &str); 12] = [
        ("\"receiver\": 8", "\"receiver\": 99", "invalid configuration: workload.receiver"),
        ("\"queues\": 4", "\"queues\": 0", "invalid configuration: port.queues"),
        ("\"load\": 0.6", "\"load\": 0", "invalid configuration: workload.load"),
        ("\"quantum\": 1500", "\"quantum\": 0", "invalid configuration: port.sched.quantum"),
        ("\"kind\": \"tcn\",\n        \"threshold\": \"256us\"", prob, "invalid configuration: port.scheme.t_min"),
        ("\"rate_gbps\": 1", "\"rate_gbps\": 0", "invalid configuration: topology.rate_gbps"),
        // Each of these used to run, as seed 1 or as a healthy fabric.
        ("\"seed\": 1", "\"sede\": 7", "invalid configuration: base: unknown key `sede`"),
        ("\"seed\": 1", r#""faults": { "los": 0.05 }, "seed": 1"#, "invalid configuration: faults: unknown key `los`"),
        ("\"seed\": 1", r#""faults": { "loss": 2.0 }, "seed": 1"#, "invalid configuration: field `loss`"),
        // Each of these used to panic (exit 101) or, overlapping, run.
        ("\"seed\": 1", &flaps(r#"{ "link": 9999, "down_at": "1ms" }"#), "invalid configuration: faults.flaps: flap on unknown link 9999"),
        ("\"seed\": 1", &flaps(r#"{ "link": 0, "down_at": "2ms", "up_at": "1ms" }"#), "invalid configuration: faults.flaps: flap window on link 0 is empty or inverted"),
        (
            "\"seed\": 1",
            &flaps(r#"{ "link": 0, "down_at": "1ms", "up_at": "3ms" }, { "link": 0, "down_at": "2ms", "up_at": "4ms" }"#),
            "invalid configuration: faults.flaps: overlapping flap windows on link 0",
        ),
    ];
    for (from, to, want) in edits {
        assert!(example.contains(from), "the example no longer contains `{from}`");
        std::fs::write(dir.0.join("cfg.json"), example.replace(from, to)).expect("write config");
        let out = run(TCNSIM, &dir.0, &["cfg.json"], &[]);
        assert_eq!(out.status.code(), Some(1), "{to}: {}", text(&out.stderr));
        assert!(text(&out.stderr).starts_with(&format!("cfg.json: {want}")), "{}", text(&out.stderr));
    }
    std::fs::write(dir.0.join("deep.json"), "[".repeat(200_000)).expect("write deep file");
    for (bin, args) in [(TCNSIM, &["deep.json"][..]), (FIGS, &["check-trace", "deep.json"])] {
        let out = run(bin, &dir.0, args, &[]);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", text(&out.stderr));
        assert!(text(&out.stderr).contains("1:129: nested deeper than 128 levels"), "{}", text(&out.stderr));
    }
}

/// Every file under `dir`, by relative path, with its bytes.
fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in std::fs::read_dir(&d).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let rel = path.strip_prefix(dir).expect("under dir").to_path_buf();
                files.push((rel, std::fs::read(&path).expect("read file")));
            }
        }
    }
    files.sort();
    files
}

/// `figs all` — every figure, then the scenario library — prints and
/// writes the same bytes on one worker and on two. The thread count
/// arrives by flag alone: the environment names a third value that the
/// flag must beat, and nothing sets a variable on the way down.
#[test]
fn figs_all_is_byte_identical_at_one_and_two_threads() {
    let run_all = |threads: &str| {
        let dir = Scratch::new(&format!("all-{threads}"));
        let args = ["all", "--flows", "30", "--loads", "0.5", "--json", "--threads", threads];
        let out = run(FIGS, &dir.0, &args, &[("TCN_THREADS", "7")]);
        assert!(out.status.success(), "--threads {threads}: {}", text(&out.stderr));
        (text(&out.stdout), tree(&dir.0))
    };
    let (one, two) = (run_all("1"), run_all("2"));
    assert!(one.0.ends_with("all 18 figures and 17 scenarios succeeded\n"));
    assert_eq!((one.1.len(), two.1.len()), (18, 18), "one result file per figure");
    assert_eq!(one.0, two.0, "stdout differs between --threads 1 and --threads 2");
    for ((path, a), (path2, b)) in one.1.iter().zip(&two.1) {
        let same = path == path2 && a == b;
        assert!(same, "{} differs between --threads 1 and --threads 2", path.display());
    }
}
