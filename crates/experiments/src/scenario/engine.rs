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

use super::{BaseConfig, LinkSel, Scenario, Step, StepMutation};
use crate::json::{Json, ToJson};
use tcn_core::{AqmParams, TcnError};
use tcn_net::{single_switch, single_switch_downlink, FlowSpec, NetMutation, NetworkSim, TaggingPolicy};
use tcn_sim::{Rate, Rng, Time};
use tcn_transport::{Cc, TcpConfig};

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

impl ToJson for ScenarioReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("flows", Json::Num(self.flows as f64)),
            ("completed", Json::Num(self.completed as f64)),
            ("marks", Json::Num(self.marks as f64)),
            ("drops", Json::Num(self.drops as f64)),
            ("drain_drops", Json::Num(self.drain_drops as f64)),
            ("loss_drops", Json::Num(self.loss_drops as f64)),
            ("corrupt_drops", Json::Num(self.corrupt_drops as f64)),
            ("link_downs", Json::Num(self.link_downs as f64)),
            ("avg_fct_us", Json::Num(self.avg_fct_us)),
            ("p99_fct_us", Json::Num(self.p99_fct_us)),
            (
                "reconfigs",
                Json::Arr(self.reconfigs.iter().map(|r| Json::Str(r.clone())).collect()),
            ),
        ])
    }
}

impl ScenarioReport {
    /// Parse back from a checkpoint payload — the exact inverse of
    /// [`ToJson::to_json`], used by the batch runner's resume path.
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

/// The fixed fabric the scenario DSL scripts against: 1 Gbit/s links,
/// 25 µs per-hop propagation (testbed-like RTT), DCTCP transports.
const LINK_RATE_GBPS: u64 = 1;
const HOP_DELAY_US: u64 = 25;

fn expand_links(base: &BaseConfig, sel: LinkSel) -> Vec<u32> {
    match sel {
        LinkSel::One(l) => vec![l],
        LinkSel::All => (0..base.hosts as u32)
            .map(|h| single_switch_downlink(h) as u32)
            .collect(),
    }
}

fn mutation_events(
    base: &BaseConfig,
    step: &Step,
) -> Result<Vec<NetMutation>, TcnError> {
    let muts = match &step.change {
        StepMutation::Conditions { link, profile } => expand_links(base, *link)
            .into_iter()
            .map(|l| NetMutation::LinkConditions { link: l, profile: *profile })
            .collect(),
        StepMutation::LinkDown { link } => {
            vec![NetMutation::LinkAdmin { link: *link, up: false }]
        }
        StepMutation::LinkUp { link } => {
            vec![NetMutation::LinkAdmin { link: *link, up: true }]
        }
        StepMutation::LinkRate { link, mbps } => expand_links(base, *link)
            .into_iter()
            .map(|l| NetMutation::LinkRate {
                link: l,
                rate: Rate::from_mbps(*mbps),
            })
            .collect(),
        StepMutation::Drain => vec![NetMutation::DrainSwitch {
            node: base.hosts as u32,
        }],
        StepMutation::AqmTcn { link, threshold } => expand_links(base, *link)
            .into_iter()
            .map(|l| NetMutation::AqmParams {
                link: l,
                params: AqmParams::Tcn { threshold: *threshold },
            })
            .collect(),
        StepMutation::AqmRed { link, min, max } => expand_links(base, *link)
            .into_iter()
            .map(|l| NetMutation::AqmParams {
                link: l,
                params: AqmParams::Red { min: *min, max: *max },
            })
            .collect(),
        StepMutation::AqmCodel { link, target } => expand_links(base, *link)
            .into_iter()
            .map(|l| NetMutation::AqmParams {
                link: l,
                params: AqmParams::CoDel { target: *target },
            })
            .collect(),
        StepMutation::CcSwitch { service, cc } => vec![NetMutation::CcSwitch {
            service: *service,
            cc: *cc,
        }],
        StepMutation::Burst { .. } => Vec::new(), // handled as flows
    };
    Ok(muts)
}

/// Build the sim for a scenario: the base star, the background
/// traffic, every step compiled onto the calendar queue, and the burst
/// flows registered at their step instants.
///
/// # Errors
/// [`TcnError::Config`] when a step targets a link or node outside the
/// star (surfaced at schedule time, before any packet moves).
pub fn build_sim(sc: &Scenario, quick: bool) -> Result<NetworkSim, TcnError> {
    let base = &sc.base;
    let link = Rate::from_gbps(LINK_RATE_GBPS);
    let mtu = 1500u32;
    let mut sim = single_switch(
        base.hosts,
        link,
        Time::from_us(HOP_DELAY_US),
        TcpConfig::preset(Cc::Dctcp).sim(),
        TaggingPolicy::Fixed,
        || base.port.setup(link, mtu, base.seed),
    )?;

    // Background traffic: exponential sizes, uniform starts over the
    // horizon, uniformly random (src, dst) pairs. One dedicated RNG
    // stream, so step edits never reshuffle the base workload.
    let flows = if quick {
        base.flows.min(QUICK_FLOW_CAP)
    } else {
        base.flows
    };
    let mut rng = Rng::stream(base.seed, 0x5ce7a510);
    let horizon_ps = sc.base.horizon.as_ps().max(1);
    for i in 0..flows {
        let src = rng.gen_range(base.hosts as u64) as u32;
        let dst = rng.pick_other(base.hosts as u64, u64::from(src)) as u32;
        let size = (rng.exp(base.mean_flow_bytes as f64) as u64).clamp(1_500, 10 * base.mean_flow_bytes);
        sim.add_flow(FlowSpec {
            src,
            dst,
            size,
            start: Time::from_ps(rng.gen_range(horizon_ps)),
            service: (i % base.port.queues) as u8,
        });
    }

    // Steps, expanded across loop iterations.
    for iter in 0..sc.loops {
        let origin = sc.period.saturating_mul(u64::from(iter));
        for step in &sc.steps {
            let at = origin.saturating_add(step.at);
            if let StepMutation::Burst { dst, senders, bytes } = step.change {
                if dst as usize >= base.hosts {
                    return Err(TcnError::config(format!(
                        "scenario `{}`: burst dst {dst} outside {} hosts",
                        sc.id, base.hosts
                    )));
                }
                // Senders cycle through the other hosts, so an incast
                // wider than the star reuses senders round-robin.
                let mut sender = 0u32;
                for k in 0..senders {
                    if sender == dst {
                        sender = (sender + 1) % base.hosts as u32;
                    }
                    sim.add_flow(FlowSpec {
                        src: sender,
                        dst,
                        size: bytes,
                        start: at,
                        service: (k as usize % base.port.queues) as u8,
                    });
                    sender = (sender + 1) % base.hosts as u32;
                }
            } else {
                for m in mutation_events(base, step)? {
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
    use crate::common::{SchedKind, Scheme};
    use crate::scenario::Scenario;
    use crate::vocab::PortPolicy;
    use tcn_sim::LinkFaultProfile;

    fn tiny(steps: Vec<Step>) -> Scenario {
        Scenario {
            id: "tiny".into(),
            about: String::new(),
            tags: Vec::new(),
            base: BaseConfig {
                hosts: 4,
                flows: 12,
                seed: 9,
                horizon: Time::from_ms(1),
                deadline: Time::from_secs(10),
                port: PortPolicy {
                    scheme: Scheme::Tcn { threshold: Time::from_us(100) },
                    sched: SchedKind::Dwrr { quantum: 1500 },
                    ..BaseConfig::default().port
                },
                ..BaseConfig::default()
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
        sc.base.flows = 200;
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
}
