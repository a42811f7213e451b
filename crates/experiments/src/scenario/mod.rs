//! Timed-scenario DSL, named chaos library, and seeded scenario fuzzer.
//!
//! A *scenario* is the one run document: a base run description
//! ([`ExperimentCfg`]: any topology, port, transport and workload) plus
//! an ordered list of timed steps, each mutating link conditions, AQM
//! parameters, link rates, topology (admin up/down, switch drains) or
//! the traffic mix. `tcnsim` and `figs scenario` both read it. Scenario
//! files are written in the JSON5 dialect of [`crate::json`] with
//! duration strings (`"500ms"`, `"2s"`) resolved to picosecond [`Time`]
//! values, and compile down to [`tcn_net::NetMutation`]s scheduled on
//! the simulator's calendar queue — so a step lands with exactly the
//! same determinism guarantees as any packet event.
//!
//! The pieces:
//!
//! * [`parse`] — `Json` → [`Scenario`] (and back, for quarantine
//!   repros); the `base` is read by [`ExperimentCfg::from_value`];
//! * [`engine`] — builds the base, expands loops, schedules the steps,
//!   runs to completion under the audit invariants, and reports;
//! * [`library`] — the 15+ named scenarios embedded from `scenarios/`,
//!   runnable via `figs scenario <id>`;
//! * [`fuzz`] — the seeded scenario fuzzer behind `figs fuzz`, with a
//!   greedy shrinker that reduces failures to minimal repros.

pub mod batch;
pub mod engine;
pub mod fuzz;
pub mod library;
pub mod parse;

pub use batch::{library_fingerprint, run_library, BatchOutcome};
pub use engine::{run_scenario, ScenarioReport};
pub use fuzz::{run_fuzz, shrink, FuzzOpts, FuzzReport};
pub use library::{find, load, nearest, NamedScenario, LIBRARY};
pub use parse::{parse_scenario, scenario_to_json5};

use crate::config::ExperimentCfg;
use tcn_net::Cc;
use tcn_sim::{LinkFaultProfile, Time};

/// A parsed scenario: metadata, the base workload, and the timed steps.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable identifier (`figs scenario <id>` and quarantine names).
    pub id: String,
    /// One-line human description.
    pub about: String,
    /// Free-form tags for `figs scenario list --tag <t>` filtering.
    pub tags: Vec<String>,
    /// The run the steps perturb.
    pub base: ExperimentCfg,
    /// How many times the step list repeats (`loop_scenario` in files).
    pub loops: u32,
    /// Offset between loop iterations (defaults to a background
    /// workload's horizon, else zero).
    pub period: Time,
    /// The ordered timed steps.
    pub steps: Vec<Step>,
}

/// One timed step of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// When the step fires, relative to the start of its loop iteration.
    pub at: Time,
    /// Per-step description (shows up in reports and repros).
    pub about: String,
    /// What the step does.
    pub change: StepMutation,
}

/// Which link(s) a step targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkSel {
    /// Every switch egress port: every link except the host NICs
    /// (host `h`'s NIC is link `2h` in every topology, so on the star
    /// these are the downlinks `2h + 1`).
    All,
    /// One link by raw link index.
    One(u32),
}

/// The mutation a step applies. Every variant carries a unique
/// backticked `step:<tag>` marker in its doc comment — the
/// `scenario-step-doc` lint holds this enum to the same tag discipline
/// as the error and event kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StepMutation {
    /// `step:conditions` — swap a link's fault profile: loss and
    /// corruption probabilities plus delay jitter, all in one step.
    Conditions {
        /// Target link(s).
        link: LinkSel,
        /// Loss, corruption and jitter; the ECN-mangling knobs stay off.
        profile: LinkFaultProfile,
    },
    /// `step:link-down` — administratively down one link (the flap's
    /// falling edge; transports see it after the detection delay).
    LinkDown {
        /// Raw link index.
        link: u32,
    },
    /// `step:link-up` — administratively restore one link (the flap's
    /// rising edge).
    LinkUp {
        /// Raw link index.
        link: u32,
    },
    /// `step:link-rate` — renegotiate a link's rate downward or back
    /// up, as in an auto-negotiation downshift or brown-out.
    LinkRate {
        /// Target link(s).
        link: LinkSel,
        /// New rate in Mbit/s (must be positive).
        mbps: u64,
    },
    /// `step:drain` — administratively drain every egress queue of node
    /// `hosts` (the star's switch; leaf 0 or edge 0 of a fabric),
    /// discarding the backlog (a rolling-upgrade reboot).
    Drain,
    /// `step:aqm-tcn` — retune the TCN sojourn-time threshold on a
    /// TCN-family port.
    AqmTcn {
        /// Target link(s).
        link: LinkSel,
        /// New sojourn threshold.
        threshold: Time,
    },
    /// `step:aqm-red` — retune RED's min/max byte thresholds on a
    /// RED-family port.
    AqmRed {
        /// Target link(s).
        link: LinkSel,
        /// New min threshold, bytes.
        min: u64,
        /// New max threshold, bytes.
        max: u64,
    },
    /// `step:aqm-codel` — retune the CoDel sojourn target on a CoDel
    /// port.
    AqmCodel {
        /// Target link(s).
        link: LinkSel,
        /// New sojourn target.
        target: Time,
    },
    /// `step:cc-switch` — hot-swap the congestion controller of every
    /// live flow in one service class (an orchestrated fleet rollout:
    /// connections migrate algorithms without restarting). Window and
    /// RTT state carry over; the new controller picks up mid-stream.
    CcSwitch {
        /// Service class whose flows switch.
        service: u8,
        /// The controller to switch to.
        cc: Cc,
    },
    /// `step:burst` — inject a synchronized incast: `senders` hosts
    /// each open one `bytes`-sized flow to `dst` at the step instant.
    Burst {
        /// Receiving host.
        dst: u32,
        /// How many distinct senders join the incast.
        senders: u32,
        /// Bytes per sender flow.
        bytes: u64,
    },
}

impl StepMutation {
    /// The `step:<tag>` marker naming this mutation kind.
    pub fn tag(&self) -> &'static str {
        match self {
            StepMutation::Conditions { .. } => "conditions",
            StepMutation::LinkDown { .. } => "link-down",
            StepMutation::LinkUp { .. } => "link-up",
            StepMutation::LinkRate { .. } => "link-rate",
            StepMutation::Drain => "drain",
            StepMutation::AqmTcn { .. } => "aqm-tcn",
            StepMutation::AqmRed { .. } => "aqm-red",
            StepMutation::AqmCodel { .. } => "aqm-codel",
            StepMutation::CcSwitch { .. } => "cc-switch",
            StepMutation::Burst { .. } => "burst",
        }
    }
}
