//! The run description: topology, port policy (scheduler + AQM),
//! transport, tagging, workload, faults, seed and deadline. It is the
//! `base` of a scenario document ([`crate::scenario`]), which is what
//! both `tcnsim` and `figs scenario` read; [`ExperimentCfg::build`]
//! turns it into a simulation with its traffic registered.
//!
//! Every section may be omitted and takes the default of
//! [`ExperimentCfg::default`]; `port` keys default one at a time. A
//! `{ "kind": … }` object states every parameter of its kind. The port,
//! every duration and the fault knobs are spelled by [`crate::vocab`],
//! and every object rejects a key it does not know.
//!
//! ```json5
//! base: {
//!   topology: { kind: "single_switch", hosts: 9, rate_gbps: 1, delay: "62us" },
//!   port: {
//!     queues: 4, buffer: 96000,
//!     sched: { kind: "dwrr", quantum: 1500 },
//!     scheme: { kind: "tcn", threshold: "256us" },
//!   },
//!   transport: "testbed_dctcp",
//!   tagging: { kind: "fixed" },
//!   workload: { kind: "many_to_one", flows: 1000, load: 0.6,
//!               cdf: "web_search", receiver: 8, services: [0, 1, 2, 3] },
//!   seed: 1,
//!   deadline: "10000s",
//! }
//! ```

use crate::common::{SchedKind, Scheme};
use crate::impl_to_json;
use crate::json::{Json, ToJson};
use crate::vocab::{
    check_keys, duration_field, duration_json, fault_profile, fault_profile_fields, field, unknown,
    PortPolicy, FAULT_KEYS,
};
use tcn_core::TcnError;
use crate::scenario::{scenario_to_json5, Scenario};
use tcn_net::{
    fat_tree, leaf_spine, single_switch, FlowSpec, LeafSpineConfig, NetworkSim, TaggingPolicy,
    TransportChoice,
};
use tcn_sim::{FaultPlan, LinkFaultProfile, LinkFlap, Rate, Rng, Time};
use tcn_stats::FctBreakdown;
use tcn_workloads::{gen_all_to_all, gen_incast, gen_many_to_one, Workload};

/// Topology description.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyCfg {
    /// Star around one switch.
    SingleSwitch {
        /// Number of hosts.
        hosts: usize,
        /// Link rate in Gb/s.
        rate_gbps: u64,
        /// Per-link propagation (base RTT = 4×).
        delay: Time,
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

    /// The link rate in Gb/s.
    fn rate_gbps(&self) -> u64 {
        let (TopologyCfg::SingleSwitch { rate_gbps, .. }
        | TopologyCfg::LeafSpine { rate_gbps, .. }
        | TopologyCfg::FatTree { rate_gbps, .. }) = *self;
        rate_gbps
    }

    /// The reference link rate (for load computations).
    pub fn rate(&self) -> Rate {
        Rate::from_gbps(self.rate_gbps())
    }
}

/// Workload description.
#[derive(Debug, Clone, PartialEq)]
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
    /// Background traffic between uniformly random host pairs, starting
    /// uniformly over `[0, horizon)`; flow `i` rides service `i` mod the
    /// port's queue count.
    Background {
        /// Number of flows.
        flows: usize,
        /// Mean flow size, bytes (exponential sizes, clamped to
        /// `[1500, 10 × mean]`).
        mean_flow_bytes: u64,
        /// Start times are uniform below this.
        horizon: Time,
    },
}

/// Optional fault-injection section (`"faults"`). Every field defaults
/// to "off", so `{ "faults": { "loss": 0.001 } }` is a valid minimal
/// chaos config; omitting the section entirely runs a healthy fabric
/// with zero fault-RNG draws.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsCfg {
    /// Loss, corruption (dropped at the receiving NIC, counted apart
    /// from loss) and jitter on every link.
    pub profile: LinkFaultProfile,
    /// Delay between a link state change and routing reconvergence.
    pub detection_delay: Time,
    /// Scheduled link flaps (`up_at` absent = down for the rest of the
    /// run).
    pub flaps: Vec<LinkFlap>,
}

impl FaultsCfg {
    /// Lower to the simulator's [`FaultPlan`]. The fault RNG seed is
    /// decorrelated from the workload seed so adding faults never
    /// reshuffles arrivals.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        FaultPlan {
            default_profile: self.profile,
            flaps: self.flaps.clone(),
            detection_delay: self.detection_delay,
            ..FaultPlan::quiet(seed ^ 0xFA_0717)
        }
    }
}

/// The whole experiment: a scenario's `base`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentCfg {
    /// Topology.
    pub topology: TopologyCfg,
    /// Per-switch-port policy.
    pub port: PortPolicy,
    /// Transport.
    pub transport: TransportChoice,
    /// DSCP tagging.
    pub tagging: TaggingPolicy,
    /// Workload.
    pub workload: WorkloadCfg,
    /// Fault injection (absent = healthy fabric).
    pub faults: Option<FaultsCfg>,
    /// Random seed.
    pub seed: u64,
    /// Completion deadline: every flow must finish by here.
    pub deadline: Time,
}

impl Default for ExperimentCfg {
    /// What an omitted section means: background traffic on an 8-host
    /// 1 Gbps star under two-queue DWRR with TCN, DCTCP transports.
    fn default() -> Self {
        ExperimentCfg {
            topology: TopologyCfg::SingleSwitch { hosts: 8, rate_gbps: 1, delay: Time::from_us(25) },
            port: PortPolicy {
                queues: 2,
                buffer: 96_000,
                sched: SchedKind::Dwrr { quantum: 1500 },
                scheme: Scheme::Tcn { threshold: Time::from_us(256) },
            },
            transport: TransportChoice::SimDctcp,
            tagging: TaggingPolicy::Fixed,
            workload: WorkloadCfg::Background { flows: 60, mean_flow_bytes: 50_000, horizon: Time::from_ms(2) },
            faults: None,
            seed: 1,
            deadline: Time::from_secs(20),
        }
    }
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

impl RunReport {
    /// The report of a simulation that has run.
    pub fn of(sim: &NetworkSim) -> RunReport {
        let b = FctBreakdown::from_records(&sim.fct_records());
        RunReport {
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
        }
    }
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
// format is read and written through `crate::json` instead of serde:
// tagged objects (`"kind"`) with snake_case tags and field names.

/// `check_keys` for a tagged object: `kind`, `common` and `params`.
fn kind_keys(v: &Json, ctx: &str, common: &[&str], params: &[&str]) -> Result<(), String> {
    check_keys(v, &[&["kind"], common, params].concat(), ctx)
}

impl TopologyCfg {
    fn from_json(v: &Json) -> Result<Self, String> {
        let keys = |params: &[&str]| kind_keys(v, "topology", &["rate_gbps"], params);
        match v.kind().map_err(|e| format!("topology: {e}"))? {
            "single_switch" => {
                keys(&["hosts", "delay"])?;
                Ok(TopologyCfg::SingleSwitch {
                    hosts: v.int_field("hosts")?,
                    rate_gbps: v.u64_field("rate_gbps")?,
                    delay: duration_field(v, "delay", None)?,
                })
            }
            "leaf_spine" => {
                keys(&["leaves", "spines", "hosts_per_leaf"])?;
                Ok(TopologyCfg::LeafSpine {
                    leaves: v.int_field("leaves")?,
                    spines: v.int_field("spines")?,
                    hosts_per_leaf: v.int_field("hosts_per_leaf")?,
                    rate_gbps: v.u64_field("rate_gbps")?,
                })
            }
            "fat_tree" => {
                keys(&["k"])?;
                Ok(TopologyCfg::FatTree {
                    k: v.int_field("k")?,
                    rate_gbps: v.u64_field("rate_gbps")?,
                })
            }
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
                delay,
            } => Json::obj(vec![
                ("kind", "single_switch".to_json()),
                ("hosts", hosts.to_json()),
                ("rate_gbps", rate_gbps.to_json()),
                ("delay", duration_json(delay)),
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

/// A transport's name in the config format.
fn transport_name(t: TransportChoice) -> &'static str {
    match t {
        TransportChoice::SimDctcp => "sim_dctcp",
        TransportChoice::SimEcnStar => "sim_ecn_star",
        TransportChoice::TestbedDctcp => "testbed_dctcp",
        // Write-only: the mixed-tenant figure's transports.
        TransportChoice::SimCubic => "sim_cubic",
        TransportChoice::SimBbr => "sim_bbr",
    }
}

/// The transports a config may name.
const TRANSPORTS: [TransportChoice; 3] = [
    TransportChoice::SimDctcp,
    TransportChoice::SimEcnStar,
    TransportChoice::TestbedDctcp,
];

fn transport_from_json(v: &Json) -> Result<TransportChoice, String> {
    let name = v.as_str().ok_or("transport must be a string")?;
    TRANSPORTS
        .into_iter()
        .find(|&t| transport_name(t) == name)
        .ok_or_else(|| unknown("transport", name, &TRANSPORTS.map(transport_name)))
}

impl ToJson for TransportChoice {
    fn to_json(&self) -> Json {
        transport_name(*self).to_json()
    }
}

fn tagging_from_json(v: &Json) -> Result<TaggingPolicy, String> {
    match v.kind().map_err(|e| format!("tagging: {e}"))? {
        "fixed" => {
            kind_keys(v, "tagging", &[], &[])?;
            Ok(TaggingPolicy::Fixed)
        }
        "pias" => {
            kind_keys(v, "tagging", &[], &["threshold"])?;
            Ok(TaggingPolicy::Pias {
                threshold: v.u64_field("threshold")?,
            })
        }
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
        let keys = |params: &[&str]| kind_keys(v, "workload", &[], params);
        match v.kind().map_err(|e| format!("workload: {e}"))? {
            "many_to_one" => {
                keys(&["flows", "load", "cdf", "receiver", "services"])?;
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
            "all_to_all" => {
                keys(&["flows", "load", "services"])?;
                Ok(WorkloadCfg::AllToAll {
                    flows: v.int_field("flows")?,
                    load: v.f64_field("load")?,
                    services: v.int_field("services")?,
                })
            }
            "incast" => {
                keys(&["fanout", "size", "waves", "receiver"])?;
                Ok(WorkloadCfg::Incast {
                    fanout: v.int_field("fanout")?,
                    size: v.u64_field("size")?,
                    waves: v.int_field("waves")?,
                    receiver: v.int_field("receiver")?,
                })
            }
            "background" => {
                keys(&["flows", "mean_flow_bytes", "horizon"])?;
                Ok(WorkloadCfg::Background {
                    flows: v.int_field("flows")?,
                    mean_flow_bytes: v.u64_field("mean_flow_bytes")?,
                    horizon: duration_field(v, "horizon", None)?,
                })
            }
            other => Err(unknown(
                "workload kind",
                other,
                &["many_to_one", "all_to_all", "incast", "background"],
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
            WorkloadCfg::Background { flows, mean_flow_bytes, horizon } => Json::obj(vec![
                ("kind", "background".to_json()),
                ("flows", flows.to_json()),
                ("mean_flow_bytes", mean_flow_bytes.to_json()),
                ("horizon", duration_json(*horizon)),
            ]),
        }
    }
}

fn flap_from_json(v: &Json) -> Result<LinkFlap, String> {
    check_keys(v, &["link", "down_at", "up_at"], "faults.flaps")?;
    Ok(LinkFlap {
        link: v.int_field("link")?,
        down_at: duration_field(v, "down_at", None)?,
        up_at: v.get("up_at").map(|_| duration_field(v, "up_at", None)).transpose()?,
    })
}

fn flap_json(f: &LinkFlap) -> Json {
    let mut fields = vec![("link", f.link.to_json()), ("down_at", duration_json(f.down_at))];
    if let Some(up) = f.up_at {
        fields.push(("up_at", duration_json(up)));
    }
    Json::obj(fields)
}

impl FaultsCfg {
    fn from_json(v: &Json) -> Result<Self, String> {
        check_keys(v, &[&FAULT_KEYS[..], &["detection_delay", "flaps"]].concat(), "faults")?;
        let flaps = match v.get("flaps") {
            Some(a) => a
                .as_arr()
                .ok_or("faults: `flaps` must be an array")?
                .iter()
                .map(flap_from_json)
                .collect::<Result<Vec<_>, String>>()?,
            None => Vec::new(),
        };
        Ok(FaultsCfg {
            profile: fault_profile(v)?,
            detection_delay: duration_field(v, "detection_delay", Some(Time::ZERO))?,
            flaps,
        })
    }
}

impl ToJson for FaultsCfg {
    fn to_json(&self) -> Json {
        let mut fields = Vec::from(fault_profile_fields(&self.profile));
        fields.push(("detection_delay", duration_json(self.detection_delay)));
        fields.push(("flaps", Json::Arr(self.flaps.iter().map(flap_json).collect())));
        Json::obj(fields)
    }
}

impl ToJson for ExperimentCfg {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("topology", self.topology.to_json()),
            ("port", Json::obj(self.port.fields().into())),
            ("transport", self.transport.to_json()),
            ("tagging", self.tagging.to_json()),
            ("workload", self.workload.to_json()),
        ];
        if let Some(f) = &self.faults {
            fields.push(("faults", f.to_json()));
        }
        fields.push(("seed", self.seed.to_json()));
        fields.push(("deadline", duration_json(self.deadline)));
        Json::obj(fields)
    }
}

impl ExperimentCfg {
    /// The keys of a scenario's `base`.
    const KEYS: [&'static str; 8] =
        ["topology", "port", "transport", "tagging", "workload", "faults", "seed", "deadline"];

    /// Read a scenario's `base` and validate it: a key the format does
    /// not know, and every value the simulator crates would reject with
    /// an assertion (or silently run nonsense on), is an error here. An
    /// absent section takes its [`Default`].
    ///
    /// # Errors
    /// A message naming the field.
    pub fn from_value(v: &Json) -> Result<Self, String> {
        check_keys(v, &Self::KEYS, "base")?;
        let d = ExperimentCfg::default();
        let cfg = ExperimentCfg {
            topology: field(v, "topology", Some(d.topology), TopologyCfg::from_json)?,
            port: field(v, "port", Some(d.port), |p| {
                check_keys(p, &PortPolicy::KEYS, "port")?;
                PortPolicy::from_json(p, "port", Some(d.port))
            })?,
            transport: field(v, "transport", Some(d.transport), transport_from_json)?,
            tagging: field(v, "tagging", Some(d.tagging), tagging_from_json)?,
            workload: field(v, "workload", Some(d.workload), WorkloadCfg::from_json)?,
            faults: v.get("faults").map(FaultsCfg::from_json).transpose()?,
            seed: field(v, "seed", Some(d.seed), |_| v.u64_field("seed"))?,
            deadline: duration_field(v, "deadline", Some(d.deadline))?,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Check the values against each other and against what the
    /// simulator crates assert (the port's own checks run as it is read).
    fn validate(&self) -> Result<(), String> {
        let ensure = |ok: bool, problem: String| if ok { Ok(()) } else { Err(problem) };
        let rate_gbps = self.topology.rate_gbps();
        ensure(
            rate_gbps > 0 && rate_gbps.checked_mul(1_000_000_000).is_some(),
            format!("topology.rate_gbps: {rate_gbps} is not a positive rate in range"),
        )?;
        let hosts = self.topology.hosts();
        ensure(hosts >= 2, format!("topology: {hosts} host(s), traffic needs at least 2"))?;

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
            WorkloadCfg::Background { mean_flow_bytes: m, .. } => {
                return ensure(
                    (150..=u64::MAX / 10).contains(m),
                    format!("workload.mean_flow_bytes: {m} cannot bound sizes to [1500, 10 × {m}]"),
                );
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

    /// Build the simulation, register the workload, then install the
    /// fault plan.
    ///
    /// # Errors
    /// Returns [`TcnError::Topology`] / [`TcnError::Config`] when the
    /// configured topology cannot be realized, and [`TcnError::Config`]
    /// when a flap names a link the topology lacks or its windows
    /// contradict each other.
    pub fn build(&self) -> Result<NetworkSim, TcnError> {
        let tcp = self.transport.config();
        let tagging = self.tagging;
        let rate = self.topology.rate();
        let (port, seed) = (self.port, self.seed);
        let mk = move || port.setup(rate, 1500, seed);
        let mut sim = match self.topology {
            TopologyCfg::SingleSwitch { hosts, delay, .. } => {
                single_switch(hosts, rate, delay, tcp, tagging, mk)?
            }
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
            WorkloadCfg::Background {
                flows,
                mean_flow_bytes,
                horizon,
            } => {
                // Exponential sizes, uniform starts over the horizon,
                // uniformly random (src, dst) pairs, from a dedicated RNG
                // stream.
                let mut rng = Rng::stream(self.seed, 0x5ce7a510);
                let horizon_ps = horizon.as_ps().max(1);
                let mean = *mean_flow_bytes;
                (0..*flows)
                    .map(|i| {
                        let src = rng.gen_range(u64::from(hosts)) as u32;
                        let dst = rng.pick_other(u64::from(hosts), u64::from(src)) as u32;
                        let size = (rng.exp(mean as f64) as u64).clamp(1_500, 10 * mean);
                        FlowSpec {
                            src,
                            dst,
                            size,
                            start: Time::from_ps(rng.gen_range(horizon_ps)),
                            service: (i % self.port.queues) as u8,
                        }
                    })
                    .collect()
            }
        };
        for spec in specs {
            sim.add_flow(spec);
        }
        if let Some(f) = &self.faults {
            let plan = f.plan(self.seed);
            let bad = |e| TcnError::config(format!("faults.flaps: {e}"));
            plan.check_flaps(sim.num_links()).map_err(bad)?;
            sim.install_faults(&plan);
        }
        Ok(sim)
    }
}

/// A ready-to-edit example document (printed by `tcnsim --example`).
pub fn example_json() -> String {
    let base = ExperimentCfg {
        topology: TopologyCfg::SingleSwitch { hosts: 9, rate_gbps: 1, delay: Time::from_us(62) },
        port: PortPolicy {
            queues: 4,
            buffer: 96_000,
            sched: SchedKind::Dwrr { quantum: 1_500 },
            scheme: Scheme::Tcn { threshold: Time::from_us(256) },
        },
        transport: TransportChoice::TestbedDctcp,
        workload: WorkloadCfg::ManyToOne {
            flows: 1_000,
            load: 0.6,
            cdf: Workload::WebSearch,
            receiver: 8,
            services: vec![0, 1, 2, 3],
        },
        deadline: Time::from_secs(10_000),
        ..ExperimentCfg::default()
    };
    scenario_to_json5(&Scenario {
        id: "tcnsim-example".into(),
        about: "web-search many-to-one at load 0.6, four DWRR queues under TCN".into(),
        tags: vec!["example".into()],
        base,
        loops: 1,
        period: Time::ZERO,
        steps: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::parse_scenario;

    /// The `base` of a scenario document.
    fn read(text: &str) -> Result<ExperimentCfg, String> {
        Json::parse_json5(text).and_then(|v| parse_scenario(&v)).map(|sc| sc.base)
    }

    /// A document whose `base` is `cfg`.
    fn doc(cfg: &ExperimentCfg) -> String {
        format!(r#"{{ "id": "x", "base": {} }}"#, cfg.to_json().pretty())
    }

    /// Build, run to the deadline, report.
    fn run(cfg: &ExperimentCfg) -> RunReport {
        let mut sim = cfg.build().expect("build");
        sim.run_to_completion(cfg.deadline).expect("run");
        RunReport::of(&sim)
    }

    #[test]
    fn example_roundtrips_and_runs() {
        let mut cfg = read(&example_json()).expect("parse example");
        // Shrink for test speed.
        if let WorkloadCfg::ManyToOne { flows, .. } = &mut cfg.workload {
            *flows = 120;
        }
        let report = run(&cfg);
        assert_eq!(report.completed, 120);
        assert!(report.overall_avg_us > 0.0);
        assert!(report.events > 0);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(read("{").is_err());
        assert!(read(r#"{"id": "x", "base": {"topology": {"kind": "ring"}}}"#).is_err());
    }

    /// Every section of `base`, and `base` itself, may be omitted.
    #[test]
    fn an_omitted_section_is_its_default() {
        assert_eq!(read(r#"{"id": "x"}"#), Ok(ExperimentCfg::default()));
        assert_eq!(read(r#"{"id": "x", "base": {"port": {}}}"#), Ok(ExperimentCfg::default()));
        let cfg = read(r#"{"id": "x", "base": {"port": {"queues": 3}, "seed": 5}}"#).expect("parses");
        let d = ExperimentCfg::default();
        assert_eq!(cfg, ExperimentCfg { port: PortPolicy { queues: 3, ..d.port }, seed: 5, ..d });
    }

    /// Each single-value edit of the example is an error naming the
    /// field — every one of these used to reach an `assert!` in a
    /// simulator crate, or ran a simulation of nothing.
    #[test]
    fn single_field_edits_of_the_example_are_field_named_errors() {
        let tcn = "\"kind\": \"tcn\",\n        \"threshold\": \"256us\"";
        let prob = |t_min: u64, p_max: f64| {
            format!(r#""kind": "tcn_prob", "t_min": "{t_min}us", "t_max": "300us", "p_max": {p_max}"#)
        };
        let services = "[\n        0,\n        1,\n        2,\n        3\n      ]";
        let edits: Vec<(&str, String, &str)> = vec![
            ("\"receiver\": 8", "\"receiver\": 99".into(), "workload.receiver"),
            ("\"queues\": 4", "\"queues\": 0".into(), "port.queues"),
            ("\"load\": 0.6", "\"load\": 0".into(), "workload.load"),
            ("\"load\": 0.6", "\"load\": -0.5".into(), "workload.load"),
            ("\"quantum\": 1500", "\"quantum\": 0".into(), "port.sched.quantum"),
            (tcn, prob(400, 0.5), "port.scheme.t_min"),
            (tcn, prob(100, 0.0), "port.scheme.p_max"),
            (tcn, prob(100, 1.5), "port.scheme.p_max"),
            ("\"rate_gbps\": 1", "\"rate_gbps\": 0".into(), "topology.rate_gbps"),
            ("\"delay\": \"62us\"", "\"delay\": \"99999999999999us\"".into(), "field `delay`"),
            ("\"hosts\": 9", "\"hosts\": 1".into(), "topology"),
            (services, "[]".into(), "workload.services"),
            // Past the field's integer type: wrapped, these would be a valid
            // receiver 8 and link 1.
            ("\"receiver\": 8", "\"receiver\": 4294967304".into(), "field `receiver`"),
            (
                "\"seed\": 1",
                r#""faults": { "flaps": [{ "link": 4294967297, "down_at": "10us" }] }, "seed": 1"#
                    .into(),
                "field `link`",
            ),
        ];
        let example = example_json();
        for (from, to, field) in edits {
            assert!(example.contains(from), "the example no longer contains `{from}`");
            let err = read(&example.replace(from, &to)).expect_err(&to);
            assert!(err.starts_with(field), "`{to}`: {err}");
        }
        // The strict-priority hybrids need a queue below the strict one.
        let sp = example.replace("\"kind\": \"dwrr\"", "\"kind\": \"sp_dwrr\"");
        assert!(read(&sp).is_ok());
        let err = read(&sp.replace("\"queues\": 4", "\"queues\": 1"));
        let err = err.expect_err("one queue under sp_dwrr");
        assert!(err.starts_with("port.queues"), "{err}");
        // `all_to_all` counts its services in a `u8`: wrapped, 256 and 260
        // would be 0 and 4.
        let a2a = example
            .replace("many_to_one", "all_to_all")
            .replace("\n      \"cdf\": \"web_search\",\n      \"receiver\": 8,", "")
            .replace(services, "4");
        assert!(read(&a2a).is_ok(), "{a2a}");
        for n in ["256", "260"] {
            let err = read(&a2a.replace("\"services\": 4", &format!("\"services\": {n}")));
            let err = err.expect_err(n);
            assert!(err.starts_with("field `services`"), "{err}");
        }
    }

    #[test]
    fn fat_tree_incast_config_runs() {
        let cfg = read(
            r#"{ id: "x", base: {
                topology: { kind: "fat_tree", k: 4, rate_gbps: 10 },
                port: { queues: 2, buffer: 300000, sched: { kind: "wfq" },
                        scheme: { kind: "tcn", threshold: "78us" } },
                workload: { kind: "incast", fanout: 8, size: 32000, waves: 2, receiver: 0 },
                seed: 7,
            } }"#,
        );
        assert_eq!(run(&cfg.expect("parses")).completed, 16);
    }

    #[test]
    fn all_to_all_pias_leaf_spine_runs() {
        let cfg = read(
            r#"{ id: "x", base: {
                topology: { kind: "leaf_spine", leaves: 3, spines: 3, hosts_per_leaf: 3, rate_gbps: 10 },
                port: { queues: 8, buffer: 300000, sched: { kind: "sp_dwrr", quantum: 1500 },
                        scheme: { kind: "codel", target: "16us", interval: "340us" } },
                transport: "sim_ecn_star",
                tagging: { kind: "pias", threshold: 100000 },
                workload: { kind: "all_to_all", flows: 200, load: 0.5, services: 7 },
                seed: 2,
            } }"#,
        );
        assert_eq!(run(&cfg.expect("parses")).completed, 200);
    }

    #[test]
    fn faults_section_roundtrips_and_runs() {
        let json = r#"{ "id": "x", "base": {
            "topology": { "kind": "leaf_spine", "leaves": 3, "spines": 3,
                          "hosts_per_leaf": 3, "rate_gbps": 10 },
            "port": { "queues": 2, "buffer": 300000,
                      "sched": { "kind": "dwrr", "quantum": 1500 },
                      "scheme": { "kind": "tcn", "threshold": "78us" } },
            "transport": "sim_dctcp",
            "tagging": { "kind": "fixed" },
            "workload": { "kind": "all_to_all", "flows": 100, "load": 0.4, "services": 1 },
            "faults": { "loss": 0.005, "detection_delay": "100us",
                        "flaps": [ { "link": 18, "down_at": "500us", "up_at": "3ms" } ] },
            "seed": 4
        } }"#;
        let cfg = read(json).expect("parse faults config");
        let f = cfg.faults.as_ref().expect("faults parsed");
        assert_eq!(f.profile, LinkFaultProfile::loss(0.005), "absent knobs default to off");
        let flap = LinkFlap { link: 18, down_at: Time::from_us(500), up_at: Some(Time::from_ms(3)) };
        assert_eq!(f.flaps, vec![flap]);
        // Serialize → reparse → identical section.
        let back = read(&doc(&cfg)).expect("reparse");
        assert_eq!(back.faults.as_ref(), Some(f));
        // And it actually injects: flows still complete, faults counted.
        let report = run(&cfg);
        assert_eq!(report.completed, report.flows);
        assert!(report.fault_drops > 0, "0.5% loss drew nothing");
    }

    #[test]
    fn omitted_faults_section_is_a_healthy_fabric() {
        let json = example_json();
        let cfg = read(&json).expect("parse example");
        assert!(cfg.faults.is_none());
        assert!(!json.contains("faults"), "example stays minimal");
    }

    #[test]
    fn seed_changes_results() {
        let mut a = read(&example_json()).unwrap();
        if let WorkloadCfg::ManyToOne { flows, .. } = &mut a.workload {
            *flows = 80;
        }
        let mut b = a.clone();
        b.seed = 99;
        let (ra, rb) = (run(&a), run(&b));
        assert_ne!(
            (ra.overall_avg_us, ra.events),
            (rb.overall_avg_us, rb.events)
        );
        // And equal seeds replay identically.
        let ra2 = run(&a);
        assert_eq!(ra.overall_avg_us, ra2.overall_avg_us);
        assert_eq!(ra.events, ra2.events);
    }
}
