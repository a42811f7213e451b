//! Declarative experiment configuration for the `tcnsim` binary: a JSON
//! document describing topology, port policy (scheduler + AQM),
//! transport, tagging and workload, turned into a run and an FCT report.
//!
//! This is the "bring your own scenario" entry point for downstream
//! users — everything the figure binaries hard-code is expressible here.
//!
//! ```json
//! {
//!   "topology": { "kind": "single_switch", "hosts": 9, "rate_gbps": 1, "delay_us": 62 },
//!   "port": {
//!     "queues": 4, "buffer_bytes": 96000,
//!     "scheduler": { "kind": "dwrr", "quantum": 1500 },
//!     "aqm": { "kind": "tcn", "threshold_us": 256 }
//!   },
//!   "transport": "testbed_dctcp",
//!   "tagging": { "kind": "fixed" },
//!   "workload": { "kind": "many_to_one", "flows": 1000, "load": 0.6,
//!                 "cdf": "web_search", "receiver": 8, "services": [0,1,2,3] },
//!   "seed": 1
//! }
//! ```

use crate::impl_to_json;
use crate::json::{Json, ToJson};
use tcn_core::TcnError;
use tcn_net::{
    fat_tree, leaf_spine, single_switch, LeafSpineConfig, NetworkSim, PortSetup, TaggingPolicy,
    TransportChoice,
};
use tcn_sim::{FaultPlan, LinkFaultProfile, LinkFlap, Rate, Rng, Time};
use tcn_stats::FctBreakdown;
use tcn_workloads::{gen_all_to_all, gen_incast, gen_many_to_one, Workload};

use crate::common::{Scheme, SchedKind};

/// Topology description.
#[derive(Debug, Clone)]
pub enum TopologyCfg {
    /// Star around one switch.
    SingleSwitch {
        /// Number of hosts.
        hosts: usize,
        /// Link rate in Gb/s.
        rate_gbps: u64,
        /// Per-link propagation in µs (base RTT = 4×).
        delay_us: u64,
    },
    /// Leaf-spine fabric.
    LeafSpine {
        /// Leaf switches.
        leaves: usize,
        /// Spine switches.
        spines: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
        /// Link rate in Gb/s.
        rate_gbps: u64,
    },
    /// k-ary fat-tree.
    FatTree {
        /// Arity (even).
        k: usize,
        /// Link rate in Gb/s.
        rate_gbps: u64,
    },
}

impl TopologyCfg {
    /// Number of hosts this topology exposes.
    pub fn hosts(&self) -> usize {
        match *self {
            TopologyCfg::SingleSwitch { hosts, .. } => hosts,
            TopologyCfg::LeafSpine {
                leaves,
                hosts_per_leaf,
                ..
            } => leaves.saturating_mul(hosts_per_leaf),
            TopologyCfg::FatTree { k, .. } => k.saturating_pow(3) / 4,
        }
    }

    /// The reference link rate (for load computations).
    pub fn rate(&self) -> Rate {
        let gbps = match *self {
            TopologyCfg::SingleSwitch { rate_gbps, .. } => rate_gbps,
            TopologyCfg::LeafSpine { rate_gbps, .. } => rate_gbps,
            TopologyCfg::FatTree { rate_gbps, .. } => rate_gbps,
        };
        Rate::from_gbps(gbps)
    }
}

/// AQM description.
#[derive(Debug, Clone)]
pub enum AqmCfg {
    /// TCN at the given sojourn threshold.
    Tcn {
        /// `T` in µs.
        threshold_us: u64,
    },
    /// Probabilistic TCN.
    TcnProb {
        /// Lower threshold (µs).
        t_min_us: u64,
        /// Upper threshold (µs).
        t_max_us: u64,
        /// Max marking probability.
        p_max: f64,
    },
    /// CoDel (marking mode).
    Codel {
        /// Target (µs).
        target_us: u64,
        /// Interval (µs).
        interval_us: u64,
    },
    /// MQ-ECN.
    MqEcn {
        /// `RTT × λ` (µs).
        rtt_lambda_us: u64,
    },
    /// Per-queue static RED.
    RedQueue {
        /// K in bytes.
        threshold_bytes: u64,
    },
    /// Per-port static RED.
    RedPort {
        /// K in bytes.
        threshold_bytes: u64,
    },
    /// No AQM (drop-tail).
    DropTail,
}

impl AqmCfg {
    fn scheme(&self) -> Scheme {
        match *self {
            AqmCfg::Tcn { threshold_us } => Scheme::Tcn {
                threshold: Time::from_us(threshold_us),
            },
            AqmCfg::TcnProb {
                t_min_us,
                t_max_us,
                p_max,
            } => Scheme::TcnProb {
                t_min: Time::from_us(t_min_us),
                t_max: Time::from_us(t_max_us),
                p_max,
            },
            AqmCfg::Codel {
                target_us,
                interval_us,
            } => Scheme::CoDel {
                target: Time::from_us(target_us),
                interval: Time::from_us(interval_us),
            },
            AqmCfg::MqEcn { rtt_lambda_us } => Scheme::MqEcn {
                rtt_lambda: Time::from_us(rtt_lambda_us),
            },
            AqmCfg::RedQueue { threshold_bytes } => Scheme::RedQueue {
                threshold: threshold_bytes,
            },
            AqmCfg::RedPort { threshold_bytes } => Scheme::RedPort {
                threshold: threshold_bytes,
            },
            AqmCfg::DropTail => Scheme::DropTail,
        }
    }
}

/// Port policy.
#[derive(Debug, Clone)]
pub struct PortCfg {
    /// Queues per port.
    pub queues: usize,
    /// Shared buffer per port in bytes.
    pub buffer_bytes: u64,
    /// Scheduler.
    pub scheduler: SchedKind,
    /// AQM.
    pub aqm: AqmCfg,
}

/// Transport choice (mirrors [`TransportChoice`]).
#[derive(Debug, Clone, Copy)]
pub enum TransportCfg {
    /// DCTCP, simulation parameters.
    SimDctcp,
    /// ECN*, simulation parameters.
    SimEcnStar,
    /// DCTCP, testbed parameters.
    TestbedDctcp,
}

/// Workload description.
#[derive(Debug, Clone)]
pub enum WorkloadCfg {
    /// Poisson many-to-one toward `receiver`.
    ManyToOne {
        /// Number of flows.
        flows: usize,
        /// Offered load of the receiver link.
        load: f64,
        /// Flow-size distribution.
        cdf: Workload,
        /// Receiving host (all others send).
        receiver: u32,
        /// Service classes to draw from.
        services: Vec<u8>,
    },
    /// Poisson all-to-all over `services` service classes (all four
    /// paper CDFs, service s → cdf s mod 4).
    AllToAll {
        /// Number of flows.
        flows: usize,
        /// Offered per-host load.
        load: f64,
        /// Number of services (DSCPs 1..=services).
        services: u8,
    },
    /// Synchronized incast waves into host `receiver`.
    Incast {
        /// Senders per wave.
        fanout: usize,
        /// Bytes per sender per wave.
        size: u64,
        /// Number of waves (2 ms apart).
        waves: usize,
        /// Receiving host.
        receiver: u32,
    },
}

/// One scheduled link flap (times in µs; `up_at_us` absent = stays
/// down for the rest of the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapCfg {
    /// Link index to flap (see the topology's link-layout docs).
    pub link: u32,
    /// When the link goes dark.
    pub down_at_us: u64,
    /// When it comes back, if ever.
    pub up_at_us: Option<u64>,
}

/// Optional fault-injection section (`"faults"`). Every field defaults
/// to "off", so `{ "faults": { "loss": 0.001 } }` is a valid minimal
/// chaos config; omitting the section entirely runs a healthy fabric
/// with zero fault-RNG draws.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsCfg {
    /// Bernoulli per-packet loss probability on every link.
    pub loss: f64,
    /// Bernoulli per-packet corruption probability (dropped at the
    /// receiving NIC, counted separately from loss).
    pub corrupt: f64,
    /// Probability a packet is held back by extra jitter delay.
    pub jitter_prob: f64,
    /// Upper bound on the injected jitter delay (µs).
    pub jitter_max_us: u64,
    /// Delay between a link state change and routing reconvergence (µs).
    pub detection_delay_us: u64,
    /// Scheduled link flaps.
    pub flaps: Vec<FlapCfg>,
}

impl FaultsCfg {
    /// Lower to the simulator's [`FaultPlan`]. The fault RNG seed is
    /// decorrelated from the workload seed so adding faults never
    /// reshuffles arrivals.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan {
            default_profile: LinkFaultProfile {
                loss: self.loss,
                corrupt: self.corrupt,
                jitter_prob: self.jitter_prob,
                jitter_max: Time::from_us(self.jitter_max_us),
                ..LinkFaultProfile::NONE
            },
            ..FaultPlan::quiet(seed ^ 0xFA_0717)
        };
        plan = plan.with_detection_delay(Time::from_us(self.detection_delay_us));
        for f in &self.flaps {
            plan = plan.with_flap(LinkFlap {
                link: f.link,
                down_at: Time::from_us(f.down_at_us),
                up_at: f.up_at_us.map(Time::from_us),
            });
        }
        plan
    }
}

/// The whole experiment.
#[derive(Debug, Clone)]
pub struct ExperimentCfg {
    /// Topology.
    pub topology: TopologyCfg,
    /// Per-switch-port policy.
    pub port: PortCfg,
    /// Transport.
    pub transport: TransportCfg,
    /// DSCP tagging.
    pub tagging: TaggingPolicy,
    /// Workload.
    pub workload: WorkloadCfg,
    /// Fault injection (absent = healthy fabric).
    pub faults: Option<FaultsCfg>,
    /// Random seed (defaults to 1 when absent from the JSON).
    pub seed: u64,
}

/// The report `tcnsim` prints/serializes.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Flows completed / registered.
    pub completed: usize,
    /// Registered flows.
    pub flows: usize,
    /// Overall average FCT (µs).
    pub overall_avg_us: f64,
    /// Small-flow average (µs).
    pub small_avg_us: f64,
    /// Small-flow p99 (µs).
    pub small_p99_us: f64,
    /// Large-flow average (µs).
    pub large_avg_us: f64,
    /// Total RTO expiries.
    pub timeouts: u64,
    /// Total drops across ports.
    pub drops: u64,
    /// Drops injected by the fault plan (loss + corruption + dead-link
    /// + no-route); 0 when no `faults` section is configured.
    pub fault_drops: u64,
    /// Events processed.
    pub events: u64,
}

impl_to_json!(RunReport {
    completed,
    flows,
    overall_avg_us,
    small_avg_us,
    small_p99_us,
    large_avg_us,
    timeouts,
    drops,
    fault_drops,
    events,
});

// --- Hand-written JSON (de)serialization -------------------------------
//
// The workspace builds offline with zero external crates, so the config
// format is read and written through `crate::json` instead of serde.
// The wire format is unchanged: tagged objects (`"kind"`) with
// snake_case tags and field names.

/// Optional microsecond field of an object, small enough for the
/// picosecond clock (`Time::from_us` multiplies unchecked).
fn opt_us_field(v: &Json, key: &str) -> Result<Option<u64>, String> {
    let Some(x) = v.get(key) else { return Ok(None) };
    x.as_u64()
        .filter(|us| us.checked_mul(1_000_000).is_some())
        .map(Some)
        .ok_or_else(|| format!("field `{key}` must be a whole number of µs inside the picosecond clock"))
}

/// Required microsecond field of an object.
fn us_field(v: &Json, key: &str) -> Result<u64, String> {
    opt_us_field(v, key)?.ok_or_else(|| format!("missing field `{key}`"))
}

fn unknown(what: &str, got: &str, expect: &[&str]) -> String {
    format!("unknown {what} `{got}` (expected one of: {})", expect.join(", "))
}

impl TopologyCfg {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.kind().map_err(|e| format!("topology: {e}"))? {
            "single_switch" => Ok(TopologyCfg::SingleSwitch {
                hosts: v.int_field("hosts")?,
                rate_gbps: v.u64_field("rate_gbps")?,
                delay_us: us_field(v, "delay_us")?,
            }),
            "leaf_spine" => Ok(TopologyCfg::LeafSpine {
                leaves: v.int_field("leaves")?,
                spines: v.int_field("spines")?,
                hosts_per_leaf: v.int_field("hosts_per_leaf")?,
                rate_gbps: v.u64_field("rate_gbps")?,
            }),
            "fat_tree" => Ok(TopologyCfg::FatTree {
                k: v.int_field("k")?,
                rate_gbps: v.u64_field("rate_gbps")?,
            }),
            other => Err(unknown(
                "topology kind",
                other,
                &["single_switch", "leaf_spine", "fat_tree"],
            )),
        }
    }
}

impl ToJson for TopologyCfg {
    fn to_json(&self) -> Json {
        match *self {
            TopologyCfg::SingleSwitch {
                hosts,
                rate_gbps,
                delay_us,
            } => Json::obj(vec![
                ("kind", "single_switch".to_json()),
                ("hosts", hosts.to_json()),
                ("rate_gbps", rate_gbps.to_json()),
                ("delay_us", delay_us.to_json()),
            ]),
            TopologyCfg::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
                rate_gbps,
            } => Json::obj(vec![
                ("kind", "leaf_spine".to_json()),
                ("leaves", leaves.to_json()),
                ("spines", spines.to_json()),
                ("hosts_per_leaf", hosts_per_leaf.to_json()),
                ("rate_gbps", rate_gbps.to_json()),
            ]),
            TopologyCfg::FatTree { k, rate_gbps } => Json::obj(vec![
                ("kind", "fat_tree".to_json()),
                ("k", k.to_json()),
                ("rate_gbps", rate_gbps.to_json()),
            ]),
        }
    }
}

fn sched_from_json(v: &Json) -> Result<SchedKind, String> {
    match v.kind().map_err(|e| format!("scheduler: {e}"))? {
        "fifo" => Ok(SchedKind::Fifo),
        "sp" => Ok(SchedKind::Sp),
        "wrr" => Ok(SchedKind::Wrr),
        "dwrr" => Ok(SchedKind::Dwrr {
            quantum: v.u64_field("quantum")?,
        }),
        "wfq" => Ok(SchedKind::Wfq),
        "sp_dwrr" => Ok(SchedKind::SpDwrr {
            quantum: v.u64_field("quantum")?,
        }),
        "sp_wfq" => Ok(SchedKind::SpWfq),
        "pifo_stfq" => Ok(SchedKind::PifoStfq),
        other => Err(unknown(
            "scheduler kind",
            other,
            &["fifo", "sp", "wrr", "dwrr", "wfq", "sp_dwrr", "sp_wfq", "pifo_stfq"],
        )),
    }
}

impl ToJson for SchedKind {
    fn to_json(&self) -> Json {
        let (kind, quantum) = match *self {
            SchedKind::Fifo => ("fifo", None),
            SchedKind::Sp => ("sp", None),
            SchedKind::Wrr => ("wrr", None),
            SchedKind::Dwrr { quantum } => ("dwrr", Some(quantum)),
            SchedKind::Wfq => ("wfq", None),
            SchedKind::SpDwrr { quantum } => ("sp_dwrr", Some(quantum)),
            SchedKind::SpWfq => ("sp_wfq", None),
            SchedKind::PifoStfq => ("pifo_stfq", None),
            // The demo's fixed-weight preset is not part of the config
            // format: it prints, and reading it back is an unknown kind.
            SchedKind::PifoStfq4211 => ("pifo_stfq_4211", None),
        };
        let mut fields = vec![("kind", kind.to_json())];
        if let Some(q) = quantum {
            fields.push(("quantum", q.to_json()));
        }
        Json::obj(fields)
    }
}

impl AqmCfg {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.kind().map_err(|e| format!("aqm: {e}"))? {
            "tcn" => Ok(AqmCfg::Tcn {
                threshold_us: us_field(v, "threshold_us")?,
            }),
            "tcn_prob" => Ok(AqmCfg::TcnProb {
                t_min_us: us_field(v, "t_min_us")?,
                t_max_us: us_field(v, "t_max_us")?,
                p_max: v.f64_field("p_max")?,
            }),
            "codel" => Ok(AqmCfg::Codel {
                target_us: us_field(v, "target_us")?,
                interval_us: us_field(v, "interval_us")?,
            }),
            "mq_ecn" => Ok(AqmCfg::MqEcn {
                rtt_lambda_us: us_field(v, "rtt_lambda_us")?,
            }),
            "red_queue" => Ok(AqmCfg::RedQueue {
                threshold_bytes: v.u64_field("threshold_bytes")?,
            }),
            "red_port" => Ok(AqmCfg::RedPort {
                threshold_bytes: v.u64_field("threshold_bytes")?,
            }),
            "drop_tail" => Ok(AqmCfg::DropTail),
            other => Err(unknown(
                "aqm kind",
                other,
                &["tcn", "tcn_prob", "codel", "mq_ecn", "red_queue", "red_port", "drop_tail"],
            )),
        }
    }
}

impl ToJson for AqmCfg {
    fn to_json(&self) -> Json {
        match *self {
            AqmCfg::Tcn { threshold_us } => Json::obj(vec![
                ("kind", "tcn".to_json()),
                ("threshold_us", threshold_us.to_json()),
            ]),
            AqmCfg::TcnProb {
                t_min_us,
                t_max_us,
                p_max,
            } => Json::obj(vec![
                ("kind", "tcn_prob".to_json()),
                ("t_min_us", t_min_us.to_json()),
                ("t_max_us", t_max_us.to_json()),
                ("p_max", p_max.to_json()),
            ]),
            AqmCfg::Codel {
                target_us,
                interval_us,
            } => Json::obj(vec![
                ("kind", "codel".to_json()),
                ("target_us", target_us.to_json()),
                ("interval_us", interval_us.to_json()),
            ]),
            AqmCfg::MqEcn { rtt_lambda_us } => Json::obj(vec![
                ("kind", "mq_ecn".to_json()),
                ("rtt_lambda_us", rtt_lambda_us.to_json()),
            ]),
            AqmCfg::RedQueue { threshold_bytes } => Json::obj(vec![
                ("kind", "red_queue".to_json()),
                ("threshold_bytes", threshold_bytes.to_json()),
            ]),
            AqmCfg::RedPort { threshold_bytes } => Json::obj(vec![
                ("kind", "red_port".to_json()),
                ("threshold_bytes", threshold_bytes.to_json()),
            ]),
            AqmCfg::DropTail => Json::obj(vec![("kind", "drop_tail".to_json())]),
        }
    }
}

impl PortCfg {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(PortCfg {
            queues: v.int_field("queues")?,
            buffer_bytes: v.u64_field("buffer_bytes")?,
            scheduler: sched_from_json(
                v.get("scheduler").ok_or("port: missing field `scheduler`")?,
            )?,
            aqm: AqmCfg::from_json(v.get("aqm").ok_or("port: missing field `aqm`")?)?,
        })
    }
}

impl ToJson for PortCfg {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("queues", self.queues.to_json()),
            ("buffer_bytes", self.buffer_bytes.to_json()),
            ("scheduler", self.scheduler.to_json()),
            ("aqm", self.aqm.to_json()),
        ])
    }
}

impl TransportCfg {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.as_str().ok_or("transport must be a string")? {
            "sim_dctcp" => Ok(TransportCfg::SimDctcp),
            "sim_ecn_star" => Ok(TransportCfg::SimEcnStar),
            "testbed_dctcp" => Ok(TransportCfg::TestbedDctcp),
            other => Err(unknown(
                "transport",
                other,
                &["sim_dctcp", "sim_ecn_star", "testbed_dctcp"],
            )),
        }
    }
}

impl ToJson for TransportCfg {
    fn to_json(&self) -> Json {
        match self {
            TransportCfg::SimDctcp => "sim_dctcp".to_json(),
            TransportCfg::SimEcnStar => "sim_ecn_star".to_json(),
            TransportCfg::TestbedDctcp => "testbed_dctcp".to_json(),
        }
    }
}

fn tagging_from_json(v: &Json) -> Result<TaggingPolicy, String> {
    match v.kind().map_err(|e| format!("tagging: {e}"))? {
        "fixed" => Ok(TaggingPolicy::Fixed),
        "pias" => Ok(TaggingPolicy::Pias {
            threshold: v.u64_field("threshold")?,
        }),
        other => Err(unknown("tagging kind", other, &["fixed", "pias"])),
    }
}

impl ToJson for TaggingPolicy {
    fn to_json(&self) -> Json {
        match *self {
            TaggingPolicy::Fixed => Json::obj(vec![("kind", "fixed".to_json())]),
            TaggingPolicy::Pias { threshold } => Json::obj(vec![
                ("kind", "pias".to_json()),
                ("threshold", threshold.to_json()),
            ]),
        }
    }
}

/// A workload CDF's name in the config format.
fn cdf_name(w: Workload) -> &'static str {
    match w {
        Workload::WebSearch => "web_search",
        Workload::DataMining => "data_mining",
        Workload::Hadoop => "hadoop",
        Workload::Cache => "cache",
    }
}

fn cdf_from_json(v: &Json) -> Result<Workload, String> {
    let name = v.as_str().ok_or("cdf must be a string")?;
    Workload::ALL
        .into_iter()
        .find(|&w| cdf_name(w) == name)
        .ok_or_else(|| unknown("workload cdf", name, &Workload::ALL.map(cdf_name)))
}

impl ToJson for Workload {
    fn to_json(&self) -> Json {
        cdf_name(*self).to_json()
    }
}

impl WorkloadCfg {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.kind().map_err(|e| format!("workload: {e}"))? {
            "many_to_one" => {
                let services = v
                    .get("services")
                    .ok_or("workload: missing field `services`")?
                    .as_arr()
                    .ok_or("workload: `services` must be an array")?
                    .iter()
                    .map(|s| {
                        s.as_u64()
                            .filter(|&x| x <= u64::from(u8::MAX))
                            .map(|x| x as u8)
                            .ok_or_else(|| "workload: `services` entries must be 0-255".to_string())
                    })
                    .collect::<Result<Vec<u8>, String>>()?;
                Ok(WorkloadCfg::ManyToOne {
                    flows: v.int_field("flows")?,
                    load: v.f64_field("load")?,
                    cdf: cdf_from_json(v.get("cdf").ok_or("workload: missing field `cdf`")?)?,
                    receiver: v.int_field("receiver")?,
                    services,
                })
            }
            "all_to_all" => Ok(WorkloadCfg::AllToAll {
                flows: v.int_field("flows")?,
                load: v.f64_field("load")?,
                services: v.int_field("services")?,
            }),
            "incast" => Ok(WorkloadCfg::Incast {
                fanout: v.int_field("fanout")?,
                size: v.u64_field("size")?,
                waves: v.int_field("waves")?,
                receiver: v.int_field("receiver")?,
            }),
            other => Err(unknown(
                "workload kind",
                other,
                &["many_to_one", "all_to_all", "incast"],
            )),
        }
    }
}

impl ToJson for WorkloadCfg {
    fn to_json(&self) -> Json {
        match self {
            WorkloadCfg::ManyToOne {
                flows,
                load,
                cdf,
                receiver,
                services,
            } => Json::obj(vec![
                ("kind", "many_to_one".to_json()),
                ("flows", flows.to_json()),
                ("load", load.to_json()),
                ("cdf", cdf.to_json()),
                ("receiver", receiver.to_json()),
                ("services", services.to_json()),
            ]),
            WorkloadCfg::AllToAll {
                flows,
                load,
                services,
            } => Json::obj(vec![
                ("kind", "all_to_all".to_json()),
                ("flows", flows.to_json()),
                ("load", load.to_json()),
                ("services", services.to_json()),
            ]),
            WorkloadCfg::Incast {
                fanout,
                size,
                waves,
                receiver,
            } => Json::obj(vec![
                ("kind", "incast".to_json()),
                ("fanout", fanout.to_json()),
                ("size", size.to_json()),
                ("waves", waves.to_json()),
                ("receiver", receiver.to_json()),
            ]),
        }
    }
}

impl FlapCfg {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(FlapCfg {
            link: v.int_field("link")?,
            down_at_us: us_field(v, "down_at_us")?,
            up_at_us: opt_us_field(v, "up_at_us")?,
        })
    }
}

impl ToJson for FlapCfg {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("link", self.link.to_json()),
            ("down_at_us", self.down_at_us.to_json()),
        ];
        if let Some(up) = self.up_at_us {
            fields.push(("up_at_us", up.to_json()));
        }
        Json::obj(fields)
    }
}

impl FaultsCfg {
    fn from_json(v: &Json) -> Result<Self, String> {
        let opt_f64 = |key: &str| -> Result<f64, String> {
            match v.get(key) {
                Some(x) => x
                    .as_f64()
                    .ok_or_else(|| format!("faults: `{key}` must be a number")),
                None => Ok(0.0),
            }
        };
        let flaps = match v.get("flaps") {
            Some(a) => a
                .as_arr()
                .ok_or("faults: `flaps` must be an array")?
                .iter()
                .map(FlapCfg::from_json)
                .collect::<Result<Vec<_>, String>>()?,
            None => Vec::new(),
        };
        Ok(FaultsCfg {
            loss: opt_f64("loss")?,
            corrupt: opt_f64("corrupt")?,
            jitter_prob: opt_f64("jitter_prob")?,
            jitter_max_us: opt_us_field(v, "jitter_max_us")?.unwrap_or(0),
            detection_delay_us: opt_us_field(v, "detection_delay_us")?.unwrap_or(0),
            flaps,
        })
    }
}

impl ToJson for FaultsCfg {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("loss", self.loss.to_json()),
            ("corrupt", self.corrupt.to_json()),
            ("jitter_prob", self.jitter_prob.to_json()),
            ("jitter_max_us", self.jitter_max_us.to_json()),
            ("detection_delay_us", self.detection_delay_us.to_json()),
            ("flaps", self.flaps.to_json()),
        ])
    }
}

impl ToJson for ExperimentCfg {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("topology", self.topology.to_json()),
            ("port", self.port.to_json()),
            ("transport", self.transport.to_json()),
            ("tagging", self.tagging.to_json()),
            ("workload", self.workload.to_json()),
        ];
        if let Some(f) = &self.faults {
            fields.push(("faults", f.to_json()));
        }
        fields.push(("seed", self.seed.to_json()));
        Json::obj(fields)
    }
}

impl ExperimentCfg {
    /// Parse from JSON and validate: every value the simulator crates
    /// would reject with an assertion (or silently run nonsense on) is
    /// an error here.
    ///
    /// # Errors
    /// `line:col: message` for malformed JSON, otherwise
    /// `invalid configuration: <field>: <what is wrong>`.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let v = Json::parse(s)?;
        Self::from_value(&v)
            .and_then(|cfg| cfg.validate().map(|()| cfg))
            .map_err(|e| format!("invalid configuration: {e}"))
    }

    fn from_value(v: &Json) -> Result<Self, String> {
        Ok(ExperimentCfg {
            topology: TopologyCfg::from_json(
                v.get("topology").ok_or("missing field `topology`")?,
            )?,
            port: PortCfg::from_json(v.get("port").ok_or("missing field `port`")?)?,
            transport: TransportCfg::from_json(
                v.get("transport").ok_or("missing field `transport`")?,
            )?,
            tagging: tagging_from_json(v.get("tagging").ok_or("missing field `tagging`")?)?,
            workload: WorkloadCfg::from_json(
                v.get("workload").ok_or("missing field `workload`")?,
            )?,
            faults: match v.get("faults") {
                Some(f) => Some(FaultsCfg::from_json(f)?),
                None => None,
            },
            seed: match v.get("seed") {
                Some(s) => s.as_u64().ok_or("field `seed` must be a non-negative integer")?,
                None => 1,
            },
        })
    }

    /// Check the values against each other and against what the
    /// simulator crates assert.
    fn validate(&self) -> Result<(), String> {
        let ensure = |ok: bool, problem: String| if ok { Ok(()) } else { Err(problem) };
        let (TopologyCfg::SingleSwitch { rate_gbps, .. }
        | TopologyCfg::LeafSpine { rate_gbps, .. }
        | TopologyCfg::FatTree { rate_gbps, .. }) = self.topology;
        ensure(
            rate_gbps > 0 && rate_gbps.checked_mul(1_000_000_000).is_some(),
            format!("topology.rate_gbps: {rate_gbps} is not a positive rate in range"),
        )?;
        let hosts = self.topology.hosts();
        ensure(hosts >= 2, format!("topology: {hosts} host(s), traffic needs at least 2"))?;

        let sched = self.port.scheduler;
        let min_queues = if matches!(sched, SchedKind::SpDwrr { .. } | SchedKind::SpWfq) { 2 } else { 1 };
        ensure(
            self.port.queues >= min_queues,
            format!("port.queues: the {} scheduler needs at least {min_queues}", sched.name()),
        )?;
        ensure(
            !matches!(sched, SchedKind::Dwrr { quantum: 0 } | SchedKind::SpDwrr { quantum: 0 }),
            "port.scheduler.quantum: must be positive".into(),
        )?;
        if let AqmCfg::TcnProb { t_min_us, t_max_us, p_max } = self.port.aqm {
            ensure(
                t_min_us <= t_max_us,
                format!("port.aqm.t_min_us: {t_min_us} exceeds t_max_us {t_max_us}"),
            )?;
            ensure(p_max > 0.0 && p_max <= 1.0, format!("port.aqm.p_max: {p_max} is not in (0, 1]"))?;
        }

        let (load, receiver, sources) = match &self.workload {
            WorkloadCfg::ManyToOne { load, receiver, services, .. } => {
                (Some(*load), Some(*receiver), ("services", services.len()))
            }
            WorkloadCfg::AllToAll { load, services, .. } => {
                (Some(*load), None, ("services", usize::from(*services)))
            }
            WorkloadCfg::Incast { fanout, receiver, .. } => {
                (None, Some(*receiver), ("fanout", *fanout))
            }
        };
        if let Some(load) = load {
            ensure(load > 0.0, format!("workload.load: {load} is not a positive number"))?;
        }
        if let Some(r) = receiver {
            ensure(
                (r as usize) < hosts,
                format!("workload.receiver: {r} is not one of the {hosts} hosts"),
            )?;
        }
        ensure(sources.1 > 0, format!("workload.{}: needs at least one", sources.0))
    }

    /// Build the simulation and register the workload.
    ///
    /// # Errors
    /// Returns [`TcnError::Topology`] / [`TcnError::Config`] when the
    /// configured topology cannot be realized.
    pub fn build(&self) -> Result<NetworkSim, TcnError> {
        let tcp = match self.transport {
            TransportCfg::SimDctcp => TransportChoice::SimDctcp,
            TransportCfg::SimEcnStar => TransportChoice::SimEcnStar,
            TransportCfg::TestbedDctcp => TransportChoice::TestbedDctcp,
        }
        .config();
        let tagging = self.tagging;
        let rate = self.topology.rate();
        let port = self.port.clone();
        let seed = self.seed;
        let sched = port.scheduler;
        let scheme = port.aqm.scheme();
        let mk = move || PortSetup {
            nqueues: port.queues,
            buffer: Some(port.buffer_bytes),
            tx_rate: None,
            make_sched: {
                let nq = port.queues;
                Box::new(move || sched.make(nq))
            },
            make_aqm: Box::new(move || scheme.make_aqm(rate, 1500, seed)),
        };
        let mut sim = match self.topology {
            TopologyCfg::SingleSwitch {
                hosts, delay_us, ..
            } => single_switch(hosts, rate, Time::from_us(delay_us), tcp, tagging, mk)?,
            TopologyCfg::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
                ..
            } => leaf_spine(
                LeafSpineConfig {
                    leaves,
                    spines,
                    hosts_per_leaf,
                    rate,
                    host_delay: Time::from_us(20),
                    fabric_delay: Time::from_ns(1300),
                },
                tcp,
                tagging,
                mk,
            )?,
            TopologyCfg::FatTree { k, .. } => fat_tree(
                k,
                rate,
                Time::from_us(20),
                Time::from_ns(1300),
                tcp,
                tagging,
                mk,
            )?,
        };

        let mut rng = Rng::new(self.seed);
        let hosts = self.topology.hosts() as u32;
        let specs = match &self.workload {
            WorkloadCfg::ManyToOne {
                flows,
                load,
                cdf,
                receiver,
                services,
            } => {
                let senders: Vec<u32> = (0..hosts).filter(|h| h != receiver).collect();
                gen_many_to_one(
                    &mut rng,
                    *flows,
                    &senders,
                    *receiver,
                    &cdf.cdf(),
                    *load,
                    rate,
                    services,
                    Time::ZERO,
                )
            }
            WorkloadCfg::AllToAll {
                flows,
                load,
                services,
            } => {
                let cdfs: Vec<_> = Workload::ALL.iter().map(|w| w.cdf()).collect();
                gen_all_to_all(
                    &mut rng, *flows, hosts, &cdfs, *load, rate, *services, Time::ZERO,
                )
            }
            WorkloadCfg::Incast {
                fanout,
                size,
                waves,
                receiver,
            } => {
                let senders: Vec<u32> = (0..hosts)
                    .filter(|h| h != receiver)
                    .take(*fanout)
                    .collect();
                let mut all = Vec::new();
                for w in 0..*waves {
                    all.extend(gen_incast(
                        &mut rng,
                        &senders,
                        *receiver,
                        *size,
                        Time::from_ms(1 + 2 * w as u64),
                        Time::from_us(5),
                        0,
                    ));
                }
                all
            }
        };
        for spec in specs {
            sim.add_flow(spec);
        }
        if let Some(f) = &self.faults {
            sim.install_faults(&f.plan(self.seed));
        }
        Ok(sim)
    }

    /// Build, run to completion, and report.
    ///
    /// # Errors
    /// Propagates build failures and any [`TcnError`] raised by the
    /// event loop (including watchdog stalls).
    pub fn run(&self) -> Result<RunReport, TcnError> {
        let mut sim = self.build()?;
        let done = sim.run_to_completion(Time::from_secs(10_000))?;
        let b = FctBreakdown::from_records(&sim.fct_records());
        let report = RunReport {
            completed: sim.completed_flows(),
            flows: sim.num_flows(),
            overall_avg_us: b.overall_avg_us,
            small_avg_us: b.small_avg_us,
            small_p99_us: b.small_p99_us,
            large_avg_us: b.large_avg_us,
            timeouts: sim.total_timeouts(),
            drops: sim.total_drops(),
            fault_drops: sim.fault_stats().total_drops(),
            events: sim.events_processed(),
        };
        debug_assert!(done || report.completed < report.flows);
        Ok(report)
    }
}

/// A ready-to-edit example configuration (printed by `tcnsim --example`).
pub fn example_json() -> String {
    let cfg = ExperimentCfg {
        topology: TopologyCfg::SingleSwitch {
            hosts: 9,
            rate_gbps: 1,
            delay_us: 62,
        },
        port: PortCfg {
            queues: 4,
            buffer_bytes: 96_000,
            scheduler: SchedKind::Dwrr { quantum: 1_500 },
            aqm: AqmCfg::Tcn { threshold_us: 256 },
        },
        transport: TransportCfg::TestbedDctcp,
        tagging: TaggingPolicy::Fixed,
        workload: WorkloadCfg::ManyToOne {
            flows: 1_000,
            load: 0.6,
            cdf: Workload::WebSearch,
            receiver: 8,
            services: vec![0, 1, 2, 3],
        },
        faults: None,
        seed: 1,
    };
    cfg.to_json().pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_roundtrips_and_runs() {
        let json = example_json();
        let mut cfg = ExperimentCfg::from_json(&json).expect("parse example");
        // Shrink for test speed.
        if let WorkloadCfg::ManyToOne { flows, .. } = &mut cfg.workload {
            *flows = 120;
        }
        let report = cfg.run().expect("run");
        assert_eq!(report.completed, 120);
        assert!(report.overall_avg_us > 0.0);
        assert!(report.events > 0);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(ExperimentCfg::from_json("{").is_err());
        assert!(ExperimentCfg::from_json("{\"topology\":{\"kind\":\"ring\"}}").is_err());
    }

    /// Each single-value edit of the example is an error naming the
    /// field — every one of these used to reach an `assert!` in a
    /// simulator crate, or ran a simulation of nothing.
    #[test]
    fn single_field_edits_of_the_example_are_field_named_errors() {
        let tcn = "\"kind\": \"tcn\",\n      \"threshold_us\": 256";
        let prob = |t_min: u64, p_max: f64| {
            format!(r#""kind": "tcn_prob", "t_min_us": {t_min}, "t_max_us": 300, "p_max": {p_max}"#)
        };
        let edits: Vec<(&str, String, &str)> = vec![
            ("\"receiver\": 8", "\"receiver\": 99".into(), "workload.receiver"),
            ("\"queues\": 4", "\"queues\": 0".into(), "port.queues"),
            ("\"load\": 0.6", "\"load\": 0".into(), "workload.load"),
            ("\"load\": 0.6", "\"load\": -0.5".into(), "workload.load"),
            ("\"quantum\": 1500", "\"quantum\": 0".into(), "port.scheduler.quantum"),
            (tcn, prob(400, 0.5), "port.aqm.t_min_us"),
            (tcn, prob(100, 0.0), "port.aqm.p_max"),
            (tcn, prob(100, 1.5), "port.aqm.p_max"),
            ("\"rate_gbps\": 1", "\"rate_gbps\": 0".into(), "topology.rate_gbps"),
            ("\"delay_us\": 62", "\"delay_us\": 99999999999999".into(), "field `delay_us`"),
            ("\"hosts\": 9", "\"hosts\": 1".into(), "topology"),
            ("0,\n      1,\n      2,\n      3\n    ]", "]".into(), "workload.services"),
            // Past the field's integer type: wrapped, these would be a valid
            // receiver 8 and link 1.
            ("\"receiver\": 8", "\"receiver\": 4294967304".into(), "field `receiver`"),
            (
                "\"seed\": 1",
                r#""faults": { "flaps": [{ "link": 4294967297, "down_at_us": 10 }] }, "seed": 1"#
                    .into(),
                "field `link`",
            ),
        ];
        let example = example_json();
        for (from, to, field) in edits {
            assert!(example.contains(from), "the example no longer contains `{from}`");
            let err = ExperimentCfg::from_json(&example.replace(from, &to)).expect_err(&to);
            assert!(err.starts_with(&format!("invalid configuration: {field}")), "`{to}`: {err}");
        }
        // The strict-priority hybrids need a queue below the strict one.
        let sp = example.replace("\"kind\": \"dwrr\"", "\"kind\": \"sp_dwrr\"");
        assert!(ExperimentCfg::from_json(&sp).is_ok());
        let err = ExperimentCfg::from_json(&sp.replace("\"queues\": 4", "\"queues\": 1"));
        let err = err.expect_err("one queue under sp_dwrr");
        assert!(err.starts_with("invalid configuration: port.queues"), "{err}");
        // `all_to_all` counts its services in a `u8`: wrapped, 256 and 260
        // would be 0 and 4.
        let a2a = example
            .replace("many_to_one", "all_to_all")
            .replace("[\n      0,\n      1,\n      2,\n      3\n    ]", "4");
        assert!(ExperimentCfg::from_json(&a2a).is_ok());
        for n in ["256", "260"] {
            let err = ExperimentCfg::from_json(&a2a.replace("\"services\": 4", &format!("\"services\": {n}")));
            let err = err.expect_err(n);
            assert!(err.starts_with("invalid configuration: field `services`"), "{err}");
        }
    }

    #[test]
    fn fat_tree_incast_config_runs() {
        let cfg = ExperimentCfg {
            topology: TopologyCfg::FatTree { k: 4, rate_gbps: 10 },
            port: PortCfg {
                queues: 2,
                buffer_bytes: 300_000,
                scheduler: SchedKind::Wfq,
                aqm: AqmCfg::Tcn { threshold_us: 78 },
            },
            transport: TransportCfg::SimDctcp,
            tagging: TaggingPolicy::Fixed,
            workload: WorkloadCfg::Incast {
                fanout: 8,
                size: 32_000,
                waves: 2,
                receiver: 0,
            },
            faults: None,
            seed: 7,
        };
        let report = cfg.run().expect("run");
        assert_eq!(report.completed, 16);
    }

    #[test]
    fn all_to_all_pias_leaf_spine_runs() {
        let cfg = ExperimentCfg {
            topology: TopologyCfg::LeafSpine {
                leaves: 3,
                spines: 3,
                hosts_per_leaf: 3,
                rate_gbps: 10,
            },
            port: PortCfg {
                queues: 8,
                buffer_bytes: 300_000,
                scheduler: SchedKind::SpDwrr { quantum: 1_500 },
                aqm: AqmCfg::Codel {
                    target_us: 16,
                    interval_us: 340,
                },
            },
            transport: TransportCfg::SimEcnStar,
            tagging: TaggingPolicy::Pias { threshold: 100_000 },
            workload: WorkloadCfg::AllToAll {
                flows: 200,
                load: 0.5,
                services: 7,
            },
            faults: None,
            seed: 2,
        };
        let report = cfg.run().expect("run");
        assert_eq!(report.completed, 200);
    }

    #[test]
    fn faults_section_roundtrips_and_runs() {
        let json = r#"{
            "topology": { "kind": "leaf_spine", "leaves": 3, "spines": 3,
                          "hosts_per_leaf": 3, "rate_gbps": 10 },
            "port": { "queues": 2, "buffer_bytes": 300000,
                      "scheduler": { "kind": "dwrr", "quantum": 1500 },
                      "aqm": { "kind": "tcn", "threshold_us": 78 } },
            "transport": "sim_dctcp",
            "tagging": { "kind": "fixed" },
            "workload": { "kind": "all_to_all", "flows": 100, "load": 0.4, "services": 1 },
            "faults": { "loss": 0.005, "detection_delay_us": 100,
                        "flaps": [ { "link": 18, "down_at_us": 500, "up_at_us": 3000 } ] },
            "seed": 4
        }"#;
        let cfg = ExperimentCfg::from_json(json).expect("parse faults config");
        let f = cfg.faults.as_ref().expect("faults parsed");
        assert_eq!(f.loss, 0.005);
        assert_eq!(f.corrupt, 0.0, "absent knobs default to off");
        assert_eq!(f.flaps, vec![FlapCfg { link: 18, down_at_us: 500, up_at_us: Some(3000) }]);
        // Serialize → reparse → identical section.
        let back = ExperimentCfg::from_json(&cfg.to_json().pretty()).expect("reparse");
        assert_eq!(back.faults.as_ref(), Some(f));
        // And it actually injects: flows still complete, faults counted.
        let report = cfg.run().expect("run");
        assert_eq!(report.completed, report.flows);
        assert!(report.fault_drops > 0, "0.5% loss drew nothing");
    }

    #[test]
    fn omitted_faults_section_is_a_healthy_fabric() {
        let json = example_json();
        let cfg = ExperimentCfg::from_json(&json).expect("parse example");
        assert!(cfg.faults.is_none());
        assert!(!json.contains("faults"), "example stays minimal");
    }

    #[test]
    fn seed_changes_results() {
        let json = example_json();
        let mut a = ExperimentCfg::from_json(&json).unwrap();
        if let WorkloadCfg::ManyToOne { flows, .. } = &mut a.workload {
            *flows = 80;
        }
        let mut b = a.clone();
        b.seed = 99;
        let (ra, rb) = (a.run().expect("run"), b.run().expect("run"));
        assert_ne!(
            (ra.overall_avg_us, ra.events),
            (rb.overall_avg_us, rb.events)
        );
        // And equal seeds replay identically.
        let ra2 = a.run().expect("run");
        assert_eq!(ra.overall_avg_us, ra2.overall_avg_us);
        assert_eq!(ra.events, ra2.events);
    }
}
