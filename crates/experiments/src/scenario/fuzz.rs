//! The seeded scenario fuzzer behind `figs fuzz`: random-but-valid
//! step sequences generated from [`Rng::stream`] sub-streams, run in
//! [`run_isolated`] cells under the audit invariants, the
//! flow-completion check, and the conservation ledger — with failures
//! shrunk to a minimal repro and quarantined as a scenario file.
//!
//! Determinism contract: for a fixed master seed the whole report —
//! every per-seed line, every shrunk repro — is byte-identical at any
//! thread count, because cells merge in canonical order and shrinking
//! replays serially.

use std::path::PathBuf;

use super::engine::run_scenario;
use super::parse::scenario_to_json5;
use super::{LinkSel, Scenario, Step, StepMutation};
use crate::common::{SchedKind, Scheme};
use crate::config::{ExperimentCfg, TopologyCfg, WorkloadCfg};
use crate::json::{Json, ToJson};
use crate::runner::{default_threads, run_cell_outcomes_with, run_isolated, CellOutcome};
use crate::vocab::PortPolicy;
use tcn_sim::{LinkFaultProfile, Rng, Time};

/// Fuzzer configuration (`figs fuzz` derives it from the process
/// options: [`crate::options::RunOptions::fuzz`]).
#[derive(Debug, Clone)]
pub struct FuzzOpts {
    /// How many seeds (= generated scenarios) to run.
    pub seeds: usize,
    /// Master seed; each scenario draws from `Rng::stream(master, seed)`.
    pub master_seed: u64,
    /// Maximum steps per generated scenario.
    pub step_budget: usize,
    /// Worker threads for the seed sweep.
    pub threads: usize,
    /// Where shrunk repros land (`None` disables writing).
    pub quarantine_dir: Option<PathBuf>,
}

impl FuzzOpts {
    /// Defaults for `seeds` seeds: master seed fixed, budget 6, the
    /// host's parallelism, quarantine under `results/`.
    pub fn new(seeds: usize) -> Self {
        FuzzOpts {
            seeds,
            master_seed: 0xC4A0_5EED,
            step_budget: 6,
            threads: default_threads(),
            quarantine_dir: Some(PathBuf::from("results/quarantine")),
        }
    }

}

/// One fuzz failure: the seed, the error, and the shrunk repro.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The failing seed.
    pub seed: usize,
    /// The final error message (after shrinking, the repro's error).
    pub error: String,
    /// Steps in the originally generated scenario.
    pub original_steps: usize,
    /// The minimized scenario.
    pub shrunk: Scenario,
    /// Where the repro was written, if quarantining is enabled.
    pub repro_path: Option<String>,
}

/// The full fuzz report: one line per seed plus structured failures.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Seeds run.
    pub seeds: usize,
    /// One human-readable line per seed, in seed order.
    pub lines: Vec<String>,
    /// Failures, in seed order.
    pub failures: Vec<FuzzFailure>,
}

impl ToJson for FuzzReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seeds", Json::Num(self.seeds as f64)),
            (
                "lines",
                Json::Arr(self.lines.iter().map(|l| Json::Str(l.clone())).collect()),
            ),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("seed", Json::Num(f.seed as f64)),
                                ("error", Json::Str(f.error.clone())),
                                ("original_steps", Json::Num(f.original_steps as f64)),
                                ("shrunk_steps", Json::Num(f.shrunk.steps.len() as f64)),
                                (
                                    "repro",
                                    f.repro_path
                                        .clone()
                                        .map_or(Json::Null, Json::Str),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn random_duration_us(rng: &mut Rng, lo: u64, hi: u64) -> Time {
    Time::from_us(lo + rng.gen_range(hi - lo + 1))
}

/// Generate one random-but-valid scenario for `seed`. Parameters stay
/// inside ranges a healthy run survives (mild loss, paired flaps,
/// AQM retunes matching the base scheme's family), so a failure means
/// the *system* broke an invariant, not that the dice rolled an
/// impossible workload.
pub fn gen_scenario(master_seed: u64, seed: usize, step_budget: usize) -> Scenario {
    let mut rng = Rng::stream(master_seed, seed as u64);
    let hosts = 4 + rng.gen_range(3) as usize; // 4..=6
    let scheme = match rng.gen_range(4) {
        0 => Scheme::Tcn {
            threshold: random_duration_us(&mut rng, 64, 384),
        },
        1 => Scheme::RedQueue {
            threshold: 16_000 + rng.gen_range(32_000),
        },
        2 => Scheme::CoDel {
            target: random_duration_us(&mut rng, 30, 120),
            interval: Time::from_ms(1),
        },
        _ => Scheme::DropTail,
    };
    let sched = match rng.gen_range(4) {
        0 => SchedKind::Dwrr { quantum: 1500 },
        1 => SchedKind::Wfq,
        2 => SchedKind::Sp,
        _ => SchedKind::Wrr,
    };
    let base = ExperimentCfg {
        topology: TopologyCfg::SingleSwitch { hosts, rate_gbps: 1, delay: Time::from_us(25) },
        port: PortPolicy {
            queues: 2,
            buffer: 96_000 + rng.gen_range(3) * 64_000,
            sched,
            scheme,
        },
        workload: WorkloadCfg::Background {
            flows: 12 + rng.gen_range(19) as usize, // 12..=30
            mean_flow_bytes: 30_000,
            horizon: Time::from_ms(1),
        },
        // 32 bits so the seed survives a JSON f64 round-trip exactly.
        seed: rng.next_u64() & 0xFFFF_FFFF,
        ..ExperimentCfg::default()
    };

    let n_links = 2 * hosts as u64;
    let any_link = |rng: &mut Rng| LinkSel::One(rng.gen_range(n_links) as u32);
    let downlink = |rng: &mut Rng| (rng.gen_range(hosts as u64) * 2 + 1) as u32;
    let mut steps = Vec::new();
    let want = 1 + rng.gen_range(step_budget as u64) as usize;
    while steps.len() < want {
        let at = random_duration_us(&mut rng, 0, 1500);
        match rng.gen_range(7) {
            0 => steps.push(Step {
                at,
                about: "fuzz: fault window".into(),
                change: StepMutation::Conditions {
                    link: any_link(&mut rng),
                    profile: LinkFaultProfile {
                        loss: rng.uniform(0.0, 0.08),
                        corrupt: rng.uniform(0.0, 0.02),
                        jitter_prob: rng.uniform(0.0, 0.25),
                        jitter_max: random_duration_us(&mut rng, 0, 60),
                        ..LinkFaultProfile::NONE
                    },
                },
            }),
            1 => {
                // A paired flap: down, then up 100–400us later, so a
                // random scenario can never strand a host forever.
                let link = downlink(&mut rng);
                let up_at = at.saturating_add(random_duration_us(&mut rng, 100, 400));
                steps.push(Step {
                    at,
                    about: "fuzz: flap down".into(),
                    change: StepMutation::LinkDown { link },
                });
                steps.push(Step {
                    at: up_at,
                    about: "fuzz: flap up".into(),
                    change: StepMutation::LinkUp { link },
                });
            }
            2 => steps.push(Step {
                at,
                about: "fuzz: drain".into(),
                change: StepMutation::Drain,
            }),
            3 => {
                // Retune the AQM the base actually runs; NoAqm ports
                // reject every parameter family, so DropTail bases get
                // a rate change instead.
                let link = LinkSel::All;
                let change = match base.port.scheme {
                    Scheme::Tcn { .. } => StepMutation::AqmTcn {
                        link,
                        threshold: random_duration_us(&mut rng, 48, 512),
                    },
                    Scheme::RedQueue { .. } => {
                        let min = 8_000 + rng.gen_range(24_000);
                        StepMutation::AqmRed {
                            link,
                            min,
                            max: min + rng.gen_range(24_000),
                        }
                    }
                    Scheme::CoDel { .. } => StepMutation::AqmCodel {
                        link,
                        target: random_duration_us(&mut rng, 20, 200),
                    },
                    _ => StepMutation::LinkRate {
                        link,
                        mbps: 500 + rng.gen_range(501),
                    },
                };
                steps.push(Step {
                    at,
                    about: "fuzz: aqm retune".into(),
                    change,
                });
            }
            4 => steps.push(Step {
                at,
                about: "fuzz: rate change".into(),
                change: StepMutation::LinkRate {
                    link: LinkSel::One(downlink(&mut rng)),
                    mbps: 300 + rng.gen_range(701),
                },
            }),
            5 => {
                let dst = rng.gen_range(hosts as u64) as u32;
                steps.push(Step {
                    at,
                    about: "fuzz: incast".into(),
                    change: StepMutation::Burst {
                        dst,
                        senders: 2 + rng.gen_range(hosts as u64 - 2) as u32,
                        bytes: 10_000 + rng.gen_range(60_000),
                    },
                });
            }
            _ => steps.push(Step {
                at,
                about: "fuzz: fault cleared".into(),
                change: StepMutation::Conditions {
                    link: any_link(&mut rng),
                    profile: LinkFaultProfile::NONE,
                },
            }),
        }
    }
    steps.sort_by_key(|s| s.at); // stable: same-time steps keep gen order

    Scenario {
        id: format!("fuzz-{seed}"),
        about: format!("generated by `figs fuzz` from master seed {master_seed:#x}"),
        tags: vec!["fuzz".to_string()],
        base,
        loops: 1,
        period: Time::from_ms(1),
        steps,
    }
}

fn halve_time(t: Time) -> Time {
    Time::from_ns(t.as_ns() / 2)
}

/// One weakening pass over a mutation: scale the chaos toward a no-op.
/// Returns `true` if anything changed.
fn weaken(m: &mut StepMutation) -> bool {
    match m {
        StepMutation::Conditions { profile: p, .. } => {
            let before = *p;
            p.loss /= 2.0;
            p.corrupt /= 2.0;
            p.jitter_prob /= 2.0;
            p.jitter_max = halve_time(p.jitter_max);
            before != *p
        }
        StepMutation::Burst { senders, bytes, .. } => {
            let before = (*senders, *bytes);
            *senders = (*senders / 2).max(1);
            *bytes = (*bytes / 2).max(1_500);
            before != (*senders, *bytes)
        }
        _ => false,
    }
}

/// Greedily shrink a failing scenario while `fails` keeps returning
/// `true`: drop steps one at a time, halve step offsets, weaken
/// mutations, and halve the background flow count — repeating to a
/// fixpoint under a bounded evaluation budget.
pub fn shrink(sc: &Scenario, fails: &mut dyn FnMut(&Scenario) -> bool) -> Scenario {
    let mut cur = sc.clone();
    let mut evals = 0usize;
    const MAX_EVALS: usize = 200;
    let mut try_cand = |cur: &mut Scenario, cand: Scenario, evals: &mut usize| -> bool {
        if cand == *cur || *evals >= MAX_EVALS {
            return false;
        }
        *evals += 1;
        if fails(&cand) {
            *cur = cand;
            true
        } else {
            false
        }
    };
    loop {
        let mut improved = false;
        // Drop-step: remove one step at a time, highest index first so
        // removals do not reshuffle the indices still to try.
        let mut i = cur.steps.len();
        while i > 0 {
            i -= 1;
            let mut cand = cur.clone();
            cand.steps.remove(i);
            improved |= try_cand(&mut cur, cand, &mut evals);
        }
        // Halve-duration: pull each step toward t=0.
        for i in 0..cur.steps.len() {
            let mut cand = cur.clone();
            cand.steps[i].at = halve_time(cand.steps[i].at);
            improved |= try_cand(&mut cur, cand, &mut evals);
        }
        // Weaken-mutation: scale the chaos down.
        for i in 0..cur.steps.len() {
            let mut cand = cur.clone();
            if weaken(&mut cand.steps[i].change) {
                improved |= try_cand(&mut cur, cand, &mut evals);
            }
        }
        // Shrink the background workload too.
        let mut cand = cur.clone();
        if let WorkloadCfg::Background { flows: flows @ 2.., .. } = &mut cand.base.workload {
            *flows /= 2;
            improved |= try_cand(&mut cur, cand, &mut evals);
        }
        if !improved || evals >= MAX_EVALS {
            return cur;
        }
    }
}

/// Does this scenario fail (typed error, audit violation, panic, or
/// missed completion) when run quick under isolation?
fn scenario_fails(sc: &Scenario) -> bool {
    run_isolated(|| run_scenario(sc, true)).is_err()
}

/// Run the fuzzer: `seeds` generated scenarios in isolated cells,
/// failures shrunk to minimal repros and (optionally) quarantined at
/// `<quarantine_dir>/<seed>.json5`.
pub fn run_fuzz(opts: &FuzzOpts) -> FuzzReport {
    let outcomes = run_cell_outcomes_with(opts.threads, opts.seeds, 1, |i, _| {
        let sc = gen_scenario(opts.master_seed, i, opts.step_budget);
        run_scenario(&sc, true)
    });
    let mut lines = Vec::with_capacity(opts.seeds);
    let mut failures = Vec::new();
    for (seed, outcome) in outcomes.iter().enumerate() {
        match outcome {
            CellOutcome::Ok(r) => lines.push(format!(
                "seed {seed}: ok — {}/{} flows, {} steps applied, drops {}, marks {}",
                r.completed,
                r.flows,
                r.reconfigs.len(),
                r.drops,
                r.marks
            )),
            CellOutcome::Failed { error, .. } => {
                // Shrinking replays serially here, after the parallel
                // sweep merged, so the repro bytes are thread-invariant.
                let original = gen_scenario(opts.master_seed, seed, opts.step_budget);
                let shrunk = shrink(&original, &mut scenario_fails);
                let repro_path = opts.quarantine_dir.as_ref().and_then(|dir| {
                    let path = dir.join(format!("{seed}.json5"));
                    std::fs::create_dir_all(dir).ok()?;
                    std::fs::write(&path, scenario_to_json5(&shrunk)).ok()?;
                    Some(path.display().to_string())
                });
                lines.push(format!(
                    "seed {seed}: FAIL — {error} (shrunk {} → {} steps{})",
                    original.steps.len(),
                    shrunk.steps.len(),
                    repro_path
                        .as_deref()
                        .map(|p| format!(", repro at {p}"))
                        .unwrap_or_default()
                ));
                failures.push(FuzzFailure {
                    seed,
                    error: error.to_string(),
                    original_steps: original.steps.len(),
                    shrunk,
                    repro_path,
                });
            }
        }
    }
    FuzzReport {
        seeds: opts.seeds,
        lines,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenarios_are_valid_and_deterministic() {
        for seed in 0..12 {
            let a = gen_scenario(0xC4A0_5EED, seed, 6);
            let b = gen_scenario(0xC4A0_5EED, seed, 6);
            assert_eq!(a, b, "seed {seed} must regenerate identically");
            assert!(!a.steps.is_empty());
            assert!(a.base.topology.hosts() >= 4);
            // Every generated scenario round-trips through the DSL.
            let text = scenario_to_json5(&a);
            let back = crate::scenario::parse_scenario(
                &Json::parse_json5(&text).expect("repro parses"),
            )
            .expect("repro validates");
            assert_eq!(a, back, "seed {seed} repro must round-trip");
        }
    }

    #[test]
    fn different_seeds_draw_different_scenarios() {
        let a = gen_scenario(0xC4A0_5EED, 0, 6);
        let b = gen_scenario(0xC4A0_5EED, 1, 6);
        assert_ne!(a, b);
    }

    /// The acceptance tripwire: a synthetic failure predicate (any
    /// drain step present) must shrink an 8-step scenario down to the
    /// single guilty step.
    #[test]
    fn shrinker_reduces_an_injected_failure_to_a_minimal_repro() {
        let mut sc = gen_scenario(0xC4A0_5EED, 3, 6);
        sc.steps = (0..7)
            .map(|i| Step {
                at: Time::from_us(100 * (i + 1)),
                about: format!("filler {i}"),
                change: StepMutation::Conditions {
                    link: LinkSel::All,
                    profile: LinkFaultProfile::loss(0.01),
                },
            })
            .collect();
        sc.steps.insert(
            4,
            Step {
                at: Time::from_us(777),
                about: "the tripwire".into(),
                change: StepMutation::Drain,
            },
        );
        assert_eq!(sc.steps.len(), 8);
        let mut fails =
            |s: &Scenario| s.steps.iter().any(|st| st.change == StepMutation::Drain);
        let shrunk = shrink(&sc, &mut fails);
        assert!(
            shrunk.steps.len() <= 3,
            "shrunk to {} steps, want ≤ 3",
            shrunk.steps.len()
        );
        assert!(fails(&shrunk), "the repro must still fail");
        assert!(shrunk
            .steps
            .iter()
            .any(|st| st.change == StepMutation::Drain));
    }

    #[test]
    fn shrinker_halves_durations_and_weakens_mutations() {
        let mut sc = gen_scenario(0xC4A0_5EED, 5, 4);
        sc.steps = vec![Step {
            at: Time::from_us(800),
            about: "loss window".into(),
            change: StepMutation::Conditions {
                link: LinkSel::All,
                profile: LinkFaultProfile {
                    loss: 0.8,
                    jitter_max: Time::from_us(64),
                    ..LinkFaultProfile::NONE
                },
            },
        }];
        // Fails as long as there is any conditions step with loss > 0.05.
        let mut fails = |s: &Scenario| {
            s.steps.iter().any(|st| {
                matches!(st.change, StepMutation::Conditions { profile, .. } if profile.loss > 0.05)
            })
        };
        let shrunk = shrink(&sc, &mut fails);
        assert_eq!(shrunk.steps.len(), 1);
        let StepMutation::Conditions { profile, .. } = shrunk.steps[0].change else {
            panic!("the conditions step must survive");
        };
        let (loss, jitter_max) = (profile.loss, profile.jitter_max);
        assert!(loss > 0.05 && loss < 0.15, "weakened to just above the tripwire: {loss}");
        assert!(jitter_max < Time::from_us(64), "jitter halved along the way");
        assert!(shrunk.steps[0].at < Time::from_us(800), "offset halved");
    }

    /// Thread invariance: the merged report lines
    /// are identical when the seed sweep runs serially vs 4-wide.
    #[test]
    fn fuzz_report_is_thread_invariant() {
        let mk = |threads| FuzzOpts {
            threads,
            quarantine_dir: None,
            ..FuzzOpts::new(6)
        };
        let a = run_fuzz(&mk(1));
        let b = run_fuzz(&mk(4));
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.failures.len(), b.failures.len());
        assert!(a.failures.is_empty(), "{:?}", a.failures);
    }
}
