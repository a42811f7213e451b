//! The scenario engine: compile a [`Scenario`] onto a live
//! [`NetworkSim`] and run it to completion under the audit invariants.
//!
//! Steps become [`NetMutation`]s scheduled on the calendar queue
//! *before* the run starts, so a step at `t` fires before any packet
//! event scheduled at `t` during the run — the exactly-once step-edge
//! semantics the `mutations` integration tests pin down. Bursts are
//! not mutations at all: they are extra flows with `start` at the step
//! instant, so they flow through the normal flow bookkeeping (and the
//! completion check counts them).

use super::{LinkSel, Scenario, StepMutation};
use crate::config::WorkloadCfg;
use crate::impl_to_json;
use crate::json::Json;
use tcn_core::{AqmParams, TcnError};
use tcn_net::{FlowSpec, NetMutation, NetworkSim};
use tcn_sim::{Rate, Time};

/// What one scenario run produced: completion counts, mark/drop
/// accounting, fault-injection totals, FCT stats, and the reconfig log.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario id.
    pub id: String,
    /// Flows the run contained (base traffic + bursts × loops).
    pub flows: usize,
    /// Flows that finished by the deadline (== `flows` on success).
    pub completed: usize,
    /// ECN marks across every port.
    pub marks: u64,
    /// Drops across every port (AQM + overflow + drains).
    pub drops: u64,
    /// Packets discarded by administrative switch drains.
    pub drain_drops: u64,
    /// Packets claimed by injected loss.
    pub loss_drops: u64,
    /// Packets claimed by injected corruption.
    pub corrupt_drops: u64,
    /// Administrative link-down edges observed.
    pub link_downs: u64,
    /// Mean flow completion time, microseconds.
    pub avg_fct_us: f64,
    /// 99th-percentile flow completion time, microseconds.
    pub p99_fct_us: f64,
    /// The sim's reconfiguration log: one `"<time>: <what>"` per
    /// applied mutation, in apply order.
    pub reconfigs: Vec<String>,
}

impl_to_json!(ScenarioReport {
    id,
    flows,
    completed,
    marks,
    drops,
    drain_drops,
    loss_drops,
    corrupt_drops,
    link_downs,
    avg_fct_us,
    p99_fct_us,
    reconfigs,
});

impl ScenarioReport {
    /// Parse back from a checkpoint payload — the exact inverse of
    /// [`crate::json::ToJson::to_json`], used by the batch runner's resume path.
    ///
    /// # Errors
    /// A message naming the missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<ScenarioReport, String> {
        Ok(ScenarioReport {
            id: v.str_field("id")?.to_string(),
            flows: v.int_field("flows")?,
            completed: v.int_field("completed")?,
            marks: v.u64_field("marks")?,
            drops: v.u64_field("drops")?,
            drain_drops: v.u64_field("drain_drops")?,
            loss_drops: v.u64_field("loss_drops")?,
            corrupt_drops: v.u64_field("corrupt_drops")?,
            link_downs: v.u64_field("link_downs")?,
            avg_fct_us: v.f64_field("avg_fct_us")?,
            p99_fct_us: v.f64_field("p99_fct_us")?,
            reconfigs: v
                .get("reconfigs")
                .and_then(Json::as_arr)
                .ok_or("missing field `reconfigs`")?
                .iter()
                .map(|r| {
                    r.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "reconfigs must be strings".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

/// Background flows under `--quick` are capped here so quick runs, and
/// the tests that drive them, stay fast; full runs use the scenario's
/// own `flows`.
const QUICK_FLOW_CAP: usize = 24;

/// The mutations one step compiles to: `all` is what `link: "all"`
/// names, `switch` the node a drain empties.
fn mutation_events(change: &StepMutation, all: &[u32], switch: u32) -> Vec<NetMutation> {
    let each = |sel: LinkSel, make: &dyn Fn(u32) -> NetMutation| match sel {
        LinkSel::One(l) => vec![make(l)],
        LinkSel::All => all.iter().map(|&l| make(l)).collect(),
    };
    match change {
        StepMutation::Conditions { link, profile } => {
            each(*link, &|l| NetMutation::LinkConditions { link: l, profile: *profile })
        }
        StepMutation::LinkDown { link } => vec![NetMutation::LinkAdmin { link: *link, up: false }],
        StepMutation::LinkUp { link } => vec![NetMutation::LinkAdmin { link: *link, up: true }],
        StepMutation::LinkRate { link, mbps } => {
            each(*link, &|l| NetMutation::LinkRate { link: l, rate: Rate::from_mbps(*mbps) })
        }
        StepMutation::Drain => vec![NetMutation::DrainSwitch { node: switch }],
        StepMutation::AqmTcn { link, threshold } => each(*link, &|l| NetMutation::AqmParams {
            link: l,
            params: AqmParams::Tcn { threshold: *threshold },
        }),
        StepMutation::AqmRed { link, min, max } => each(*link, &|l| NetMutation::AqmParams {
            link: l,
            params: AqmParams::Red { min: *min, max: *max },
        }),
        StepMutation::AqmCodel { link, target } => each(*link, &|l| NetMutation::AqmParams {
            link: l,
            params: AqmParams::CoDel { target: *target },
        }),
        StepMutation::CcSwitch { service, cc } => {
            vec![NetMutation::CcSwitch { service: *service, cc: *cc }]
        }
        StepMutation::Burst { .. } => Vec::new(), // handled as flows
    }
}

/// Build the sim for a scenario: the base ([`crate::config::ExperimentCfg::build`]:
/// topology, traffic, faults), every step compiled onto the calendar
/// queue, and the burst flows registered at their step instants.
/// `quick` caps a background workload at [`QUICK_FLOW_CAP`] flows.
///
/// Steps resolve against the built topology: `link: "all"` is every
/// link except the host NICs (`2h`), a drain empties node `hosts` (the
/// star's switch; leaf 0 or edge 0 of a fabric), and a burst's `dst`
/// must be a host.
///
/// # Errors
/// The base's build errors, and [`TcnError::Config`] when a step
/// targets a link or node outside the topology (surfaced at schedule
/// time, before any packet moves).
pub fn build_sim(sc: &Scenario, quick: bool) -> Result<NetworkSim, TcnError> {
    let mut base = sc.base.clone();
    if let (true, WorkloadCfg::Background { flows, .. }) = (quick, &mut base.workload) {
        *flows = (*flows).min(QUICK_FLOW_CAP);
    }
    let mut sim = base.build()?;
    let hosts = base.topology.hosts() as u32;
    let queues = base.port.queues;
    let all: Vec<u32> =
        (0..sim.num_links() as u32).filter(|&l| l % 2 == 1 || l >= 2 * hosts).collect();

    // Steps, expanded across loop iterations.
    for iter in 0..sc.loops {
        let origin = sc.period.saturating_mul(u64::from(iter));
        for step in &sc.steps {
            let at = origin.saturating_add(step.at);
            if let StepMutation::Burst { dst, senders, bytes } = step.change {
                if dst >= hosts {
                    return Err(TcnError::config(format!(
                        "scenario `{}`: burst dst {dst} outside {hosts} hosts",
                        sc.id
                    )));
                }
                // Senders cycle through the other hosts, so an incast
                // wider than the topology reuses senders round-robin.
                let mut sender = 0u32;
                for k in 0..senders {
                    if sender == dst {
                        sender = (sender + 1) % hosts;
                    }
                    sim.add_flow(FlowSpec {
                        src: sender,
                        dst,
                        size: bytes,
                        start: at,
                        service: (k as usize % queues) as u8,
                    });
                    sender = (sender + 1) % hosts;
                }
            } else {
                for m in mutation_events(&step.change, &all, hosts) {
                    sim.schedule_mutation(at, m).map_err(|e| {
                        TcnError::config(format!(
                            "scenario `{}` step at {at:?} ({}): {e}",
                            sc.id,
                            step.change.tag()
                        ))
                    })?;
                }
            }
        }
    }
    Ok(sim)
}

fn finish(sc: &Scenario, mut sim: NetworkSim) -> Result<ScenarioReport, TcnError> {
    let done = sim.run_to_completion(sc.base.deadline)?;
    if !done {
        return Err(TcnError::audit(format!(
            "scenario `{}`: {}/{} flows unfinished at deadline {:?}",
            sc.id,
            sim.num_flows() - sim.completed_flows(),
            sim.num_flows(),
            sc.base.deadline
        )));
    }
    let (mut marks, mut drops, mut drain_drops) = (0u64, 0u64, 0u64);
    for l in 0..sim.num_links() {
        let st = sim.port(l).stats();
        marks += st.total_marks();
        drops += st.total_drops();
        drain_drops += st.drain_drops;
    }
    let fcts: Vec<Time> = sim.fct_records().iter().map(|r| r.fct).collect();
    let (avg, p99) = fct_stats(&fcts);
    let fs = sim.fault_stats();
    Ok(ScenarioReport {
        id: sc.id.clone(),
        flows: sim.num_flows(),
        completed: sim.completed_flows(),
        marks,
        drops,
        drain_drops,
        loss_drops: fs.loss_drops,
        corrupt_drops: fs.corrupt_drops,
        link_downs: fs.link_downs,
        avg_fct_us: avg,
        p99_fct_us: p99,
        reconfigs: sim
            .reconfig_log()
            .iter()
            .map(|(t, what)| format!("{t:?}: {what}"))
            .collect(),
    })
}

fn fct_stats(fcts: &[Time]) -> (f64, f64) {
    if fcts.is_empty() {
        return (0.0, 0.0);
    }
    let mut us: Vec<f64> = fcts.iter().map(|t| t.as_us_f64()).collect();
    us.sort_by(|a, b| a.partial_cmp(b).expect("FCTs are finite"));
    let avg = us.iter().sum::<f64>() / us.len() as f64;
    let p99 = us[((us.len() - 1) * 99) / 100];
    (avg, p99)
}

/// Run a scenario end-to-end: build, schedule, run, audit, report.
///
/// # Errors
/// Step-target errors at build time; [`TcnError::AuditViolation`] when
/// flows miss the deadline; any audit/watchdog error from the run.
pub fn run_scenario(sc: &Scenario, quick: bool) -> Result<ScenarioReport, TcnError> {
    finish(sc, build_sim(sc, quick)?)
}

/// [`run_scenario`] with a telemetry bus installed, for
/// `figs scenario <id> --trace-out <file>` JSONL traces.
///
/// # Errors
/// As [`run_scenario`].
pub fn run_scenario_traced(
    sc: &Scenario,
    quick: bool,
    bus: &tcn_telemetry::Telemetry,
) -> Result<ScenarioReport, TcnError> {
    let mut sim = build_sim(sc, quick)?;
    sim.install_telemetry(bus);
    let report = finish(sc, sim);
    bus.flush();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scheme;
    use crate::config::{ExperimentCfg, TopologyCfg};
    use crate::scenario::{parse_scenario, Step};
    use crate::vocab::PortPolicy;
    use tcn_sim::LinkFaultProfile;

    fn background(flows: usize) -> WorkloadCfg {
        WorkloadCfg::Background { flows, mean_flow_bytes: 50_000, horizon: Time::from_ms(1) }
    }

    fn tiny(steps: Vec<Step>) -> Scenario {
        let d = ExperimentCfg::default();
        Scenario {
            id: "tiny".into(),
            about: String::new(),
            tags: Vec::new(),
            base: ExperimentCfg {
                topology: TopologyCfg::SingleSwitch { hosts: 4, rate_gbps: 1, delay: Time::from_us(25) },
                port: PortPolicy { scheme: Scheme::Tcn { threshold: Time::from_us(100) }, ..d.port },
                workload: background(12),
                seed: 9,
                deadline: Time::from_secs(10),
                ..d
            },
            loops: 1,
            period: Time::from_ms(1),
            steps,
        }
    }

    #[test]
    fn plain_scenario_completes_and_reports() {
        let report = run_scenario(&tiny(Vec::new()), false).expect("clean run");
        assert_eq!(report.flows, 12);
        assert_eq!(report.completed, 12);
        assert!(report.avg_fct_us > 0.0);
        assert!(report.p99_fct_us >= report.avg_fct_us);
        assert!(report.reconfigs.is_empty());
    }

    #[test]
    fn burst_steps_add_flows_and_all_still_finish() {
        let sc = tiny(vec![Step {
            at: Time::from_us(300),
            about: "incast".into(),
            change: StepMutation::Burst { dst: 0, senders: 3, bytes: 40_000 },
        }]);
        let report = run_scenario(&sc, false).expect("burst run");
        assert_eq!(report.flows, 15, "12 base + 3 burst");
        assert_eq!(report.completed, 15);
    }

    #[test]
    fn loops_replay_steps_at_period_offsets() {
        let mut sc = tiny(vec![Step {
            at: Time::from_us(100),
            about: String::new(),
            change: StepMutation::AqmTcn { link: LinkSel::All, threshold: Time::from_us(150) },
        }]);
        sc.loops = 3;
        sc.period = Time::from_us(400);
        let report = run_scenario(&sc, false).expect("looped run");
        // 4 downlinks × 3 iterations.
        assert_eq!(report.reconfigs.len(), 12);
        assert!(report.reconfigs[0].contains("aqm"), "{}", report.reconfigs[0]);
    }

    #[test]
    fn bad_step_targets_fail_at_build_time() {
        let sc = tiny(vec![Step {
            at: Time::ZERO,
            about: String::new(),
            change: StepMutation::LinkDown { link: 99 },
        }]);
        let err = run_scenario(&sc, false).expect_err("link 99 is outside the star");
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("link-down"), "{err}");
    }

    #[test]
    fn missed_deadline_is_an_audit_error() {
        let mut sc = tiny(Vec::new());
        sc.base.deadline = Time::from_us(200); // far too tight for 12 flows
        let err = run_scenario(&sc, false).expect_err("deadline must fail");
        assert_eq!(err.kind(), "audit");
        assert!(err.to_string().contains("unfinished"), "{err}");
    }

    #[test]
    fn quick_mode_caps_background_flows() {
        let mut sc = tiny(Vec::new());
        sc.base.workload = background(200);
        let report = run_scenario(&sc, true).expect("quick run");
        assert_eq!(report.flows, QUICK_FLOW_CAP);
    }

    /// Step-boundary determinism: the whole report — FCTs, counters,
    /// reconfig log — is byte-stable across repeated runs, including a
    /// drain and a conditions swap landing mid-traffic.
    #[test]
    fn scenario_runs_are_deterministic() {
        let sc = tiny(vec![
            Step {
                at: Time::from_us(250),
                about: "lossy window".into(),
                change: StepMutation::Conditions {
                    link: LinkSel::One(5),
                    profile: LinkFaultProfile::loss(0.05),
                },
            },
            Step {
                at: Time::from_us(500),
                about: "reboot".into(),
                change: StepMutation::Drain,
            },
        ]);
        let a = run_scenario(&sc, false).expect("run a");
        let b = run_scenario(&sc, false).expect("run b");
        assert_eq!(a, b);
        assert!(a.loss_drops > 0 || a.drain_drops > 0, "chaos must bite");
    }

    /// Two steps at the same instant apply in declaration order —
    /// the engine preserves the calendar queue's same-time FIFO.
    #[test]
    fn same_instant_steps_apply_in_declaration_order() {
        let at = Time::from_us(400);
        let mk = |threshold| Step {
            at,
            about: String::new(),
            change: StepMutation::AqmTcn { link: LinkSel::One(1), threshold },
        };
        let sc = tiny(vec![mk(Time::from_us(11)), mk(Time::from_us(13))]);
        let report = run_scenario(&sc, false).expect("run");
        assert_eq!(report.reconfigs.len(), 2);
        assert!(report.reconfigs[0].contains("11"), "{}", report.reconfigs[0]);
        assert!(report.reconfigs[1].contains("13"), "{}", report.reconfigs[1]);
    }

    /// On a fabric, `link: "all"` is every link but the host NICs, and a
    /// drain empties node `hosts` (leaf 0).
    #[test]
    fn steps_resolve_against_a_leaf_spine_base() {
        let doc = r#"{
            id: "fabric-steps",
            base: {
                topology: { kind: "leaf_spine", leaves: 2, spines: 2, hosts_per_leaf: 2, rate_gbps: 10 },
                workload: { kind: "background", flows: 16, mean_flow_bytes: 30000, horizon: "1ms" },
            },
            steps: [
                { at: "200us", do: { kind: "aqm-tcn", link: "all", threshold: "100us" } },
                { at: "300us", do: { kind: "drain" } },
            ],
        }"#;
        let sc = parse_scenario(&Json::parse_json5(doc).expect("JSON5")).expect("scenario");
        let report = run_scenario(&sc, false).expect("fabric run");
        assert_eq!(report.completed, 16);
        // 4 hosts: NICs 0, 2, 4, 6; leaf→host 1, 3, 5, 7; 8 leaf↔spine links.
        let links: Vec<String> = [1, 3, 5, 7].into_iter().chain(8..16).map(|l| format!("aqm link={l} ")).collect();
        assert_eq!(report.reconfigs.len(), links.len() + 1, "{:?}", report.reconfigs);
        for (line, want) in report.reconfigs.iter().zip(&links) {
            assert!(line.contains(want), "{line} lacks `{want}`");
        }
        assert!(report.reconfigs[links.len()].contains("drain-switch node=4 "), "{:?}", report.reconfigs);
    }
}
