//! The one vocabulary of run inputs. A scenario document's `base`
//! ([`crate::config`]) and its steps ([`crate::scenario::parse`]) spell
//! four things the same way, because both read and write them through
//! this module:
//!
//! * **a switch port** — `queues`, `buffer`, `sched`, `scheme`
//!   ([`PortPolicy`]), the keys of `base.port`;
//! * **a duration** — a string of an integer count and a unit,
//!   `"256us"` ([`parse_duration`]); byte counts are bare integers;
//! * **a link-fault profile** — `loss`, `corrupt`, `jitter_prob`,
//!   `jitter_max` ([`fault_profile`]);
//! * **the unknown-key rule** — every object names its allowed keys,
//!   and a stray one is an error that names it ([`check_keys`]).
//!
//! A scheme or scheduler is always an object tagged by a snake_case
//! `kind`, and every parameter of its kind is required:
//! `{ "kind": "tcn", "threshold": "256us" }`,
//! `{ "kind": "dwrr", "quantum": 1500 }`. The writer spells every
//! [`Scheme`] and [`SchedKind`]; the reader accepts the kinds a run file
//! may name ([`SCHEME_KINDS`], [`SCHED_KINDS`]), so a write-only value —
//! the Fig. 5 oracle, the `pifo_demo` preset — reads back as an unknown
//! kind, never as a different value.

use crate::common::{switch_port, SchedKind, Scheme};
use crate::json::{Json, ToJson};
use tcn_net::PortSetup;
use tcn_sim::{LinkFaultProfile, Rate, Time};

const PS_PER_NS: u64 = 1_000;
const PS_PER_US: u64 = 1_000_000;
const PS_PER_MS: u64 = 1_000_000_000;
const PS_PER_SEC: u64 = 1_000_000_000_000;
const PS_PER_MIN: u64 = 60 * PS_PER_SEC;

/// Parse a duration string — an integer count plus a unit suffix from
/// `ns` / `us` / `ms` / `s` / `m` — into a picosecond [`Time`].
///
/// `"0ms"` is [`Time::ZERO`]; counts that overflow the u64 picosecond
/// clock are errors, as are floats (`"1.5ms"`) and missing units.
///
/// # Errors
/// A human-readable message naming the offending input.
pub fn parse_duration(s: &str) -> Result<Time, String> {
    let t = s.trim();
    let digits_end = t
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(t.len());
    let (digits, unit) = t.split_at(digits_end);
    if digits.is_empty() {
        return Err(format!("duration `{s}` must start with a digit"));
    }
    if unit.starts_with('.') {
        return Err(format!(
            "duration `{s}` must be an integer count — floats are not supported \
             (write `1500us` instead of `1.5ms`)"
        ));
    }
    let count: u64 = digits
        .parse()
        .map_err(|_| format!("duration `{s}`: count does not fit in u64"))?;
    let ps_per = match unit {
        "ns" => PS_PER_NS,
        "us" => PS_PER_US,
        "ms" => PS_PER_MS,
        "s" => PS_PER_SEC,
        "m" => PS_PER_MIN,
        "" => return Err(format!("duration `{s}` is missing a unit (ns/us/ms/s/m)")),
        other => {
            return Err(format!(
                "duration `{s}`: unknown unit `{other}` (expected ns/us/ms/s/m)"
            ))
        }
    };
    count
        .checked_mul(ps_per)
        .map(Time::from_ps)
        .ok_or_else(|| format!("duration `{s}` overflows the picosecond clock"))
}

/// A [`Time`] as the shortest duration string that round-trips through
/// [`parse_duration`]. Sub-nanosecond residue (unreachable from parsed
/// files) floors to nanoseconds.
pub fn duration_json(t: Time) -> Json {
    let ps = t.as_ps();
    if ps == 0 {
        return Json::Str("0ms".to_string());
    }
    for (per, unit) in [
        (PS_PER_MIN, "m"),
        (PS_PER_SEC, "s"),
        (PS_PER_MS, "ms"),
        (PS_PER_US, "us"),
    ] {
        if ps.is_multiple_of(per) {
            return Json::Str(format!("{}{unit}", ps / per));
        }
    }
    Json::Str(format!("{}ns", ps / PS_PER_NS))
}

/// Reject object keys outside `allowed`, naming the stray key.
///
/// # Errors
/// `<ctx>: unknown key `…``, or `<ctx>: expected an object`.
pub fn check_keys(v: &Json, allowed: &[&str], ctx: &str) -> Result<(), String> {
    let Json::Obj(fields) = v else {
        return Err(format!("{ctx}: expected an object"));
    };
    match fields.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
        Some((k, _)) => Err(format!("{ctx}: unknown key `{k}`")),
        None => Ok(()),
    }
}

/// `unknown <what> `<got>` (expected one of: …)`.
pub fn unknown(what: &str, got: &str, expect: &[&str]) -> String {
    format!("unknown {what} `{got}` (expected one of: {})", expect.join(", "))
}

/// Field `key` of `v` through `read`; when absent, `default`, or a
/// missing-field error if there is none.
///
/// # Errors
/// `read`'s error, or `missing field `<key>``.
pub fn field<T>(
    v: &Json,
    key: &str,
    default: Option<T>,
    read: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<T, String> {
    match (v.get(key), default) {
        (Some(x), _) => read(x),
        (None, Some(d)) => Ok(d),
        (None, None) => Err(format!("missing field `{key}`")),
    }
}

/// Duration field `key`, or `default` when absent (`None`: required).
///
/// # Errors
/// A message naming the field: not a string, or not a duration.
pub fn duration_field(v: &Json, key: &str, default: Option<Time>) -> Result<Time, String> {
    field(v, key, default, |x| {
        let s = x
            .as_str()
            .ok_or_else(|| format!("field `{key}` must be a duration string like \"500us\""))?;
        parse_duration(s).map_err(|e| format!("field `{key}`: {e}"))
    })
}

/// A probability field: a number in `[0, 1]`, 0 when absent.
///
/// # Errors
/// A message naming the field.
fn prob_field(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key, Some(0.0), |x| {
        x.as_f64()
            .filter(|p| (0.0..=1.0).contains(p))
            .ok_or_else(|| format!("field `{key}` must be a probability in [0, 1]"))
    })
}

/// The keys of a link-fault profile, each optional (absent = off).
pub const FAULT_KEYS: [&str; 4] = ["loss", "corrupt", "jitter_prob", "jitter_max"];

/// Read a link-fault profile from the [`FAULT_KEYS`] of `v`. The caller
/// checks the object's keys, which include its own.
///
/// # Errors
/// A message naming the field: a probability outside `[0, 1]` or a
/// malformed duration.
pub fn fault_profile(v: &Json) -> Result<LinkFaultProfile, String> {
    Ok(LinkFaultProfile {
        loss: prob_field(v, "loss")?,
        corrupt: prob_field(v, "corrupt")?,
        jitter_prob: prob_field(v, "jitter_prob")?,
        jitter_max: duration_field(v, "jitter_max", Some(Time::ZERO))?,
        ..LinkFaultProfile::NONE
    })
}

/// The [`FAULT_KEYS`] fields of `p`, in key order.
pub fn fault_profile_fields(p: &LinkFaultProfile) -> [(&'static str, Json); 4] {
    [
        ("loss", p.loss.to_json()),
        ("corrupt", p.corrupt.to_json()),
        ("jitter_prob", p.jitter_prob.to_json()),
        ("jitter_max", duration_json(p.jitter_max)),
    ]
}

/// Every scheme kind a run file may name.
pub const SCHEME_KINDS: [&str; 7] =
    ["tcn", "tcn_prob", "codel", "mq_ecn", "red_queue", "red_port", "drop_tail"];

/// Every scheduler kind a run file may name.
pub const SCHED_KINDS: [&str; 8] =
    ["fifo", "sp", "wrr", "dwrr", "wfq", "sp_dwrr", "sp_wfq", "pifo_stfq"];

impl Scheme {
    /// Read a `{ "kind": …, <parameters> }` object; `ctx` prefixes the
    /// errors that are not about one field.
    ///
    /// # Errors
    /// An unknown kind, a stray or missing parameter, or a malformed one.
    pub fn from_json(v: &Json, ctx: &str) -> Result<Scheme, String> {
        let kind = v.kind().map_err(|e| format!("{ctx}: {e}"))?;
        let keys = |params: &[&str]| check_keys(v, &[&["kind"], params].concat(), ctx);
        let time = |key| duration_field(v, key, None);
        match kind {
            "tcn" => {
                keys(&["threshold"])?;
                Ok(Scheme::Tcn { threshold: time("threshold")? })
            }
            "tcn_prob" => {
                keys(&["t_min", "t_max", "p_max"])?;
                Ok(Scheme::TcnProb {
                    t_min: time("t_min")?,
                    t_max: time("t_max")?,
                    p_max: v.f64_field("p_max")?,
                })
            }
            "codel" => {
                keys(&["target", "interval"])?;
                Ok(Scheme::CoDel { target: time("target")?, interval: time("interval")? })
            }
            "mq_ecn" => {
                keys(&["rtt_lambda"])?;
                Ok(Scheme::MqEcn { rtt_lambda: time("rtt_lambda")? })
            }
            "red_queue" => {
                keys(&["threshold"])?;
                Ok(Scheme::RedQueue { threshold: v.u64_field("threshold")? })
            }
            "red_port" => {
                keys(&["threshold"])?;
                Ok(Scheme::RedPort { threshold: v.u64_field("threshold")? })
            }
            "drop_tail" => {
                keys(&[])?;
                Ok(Scheme::DropTail)
            }
            other => Err(format!("{ctx}: {}", unknown("scheme kind", other, &SCHEME_KINDS))),
        }
    }
}

impl ToJson for Scheme {
    fn to_json(&self) -> Json {
        let d = duration_json;
        let (kind, params) = match *self {
            Scheme::Tcn { threshold } => ("tcn", vec![("threshold", d(threshold))]),
            Scheme::TcnProb { t_min, t_max, p_max } => (
                "tcn_prob",
                vec![("t_min", d(t_min)), ("t_max", d(t_max)), ("p_max", p_max.to_json())],
            ),
            Scheme::CoDel { target, interval } => {
                ("codel", vec![("target", d(target)), ("interval", d(interval))])
            }
            Scheme::MqEcn { rtt_lambda } => ("mq_ecn", vec![("rtt_lambda", d(rtt_lambda))]),
            Scheme::RedQueue { threshold } => ("red_queue", vec![("threshold", threshold.to_json())]),
            Scheme::RedPort { threshold } => ("red_port", vec![("threshold", threshold.to_json())]),
            Scheme::DropTail => ("drop_tail", vec![]),
            // Write-only: the figures build these, no run file names them.
            Scheme::RedQueueDequeue { threshold } => {
                ("red_queue_dequeue", vec![("threshold", threshold.to_json())])
            }
            Scheme::IdealDq { rtt_lambda, dq_thresh } => (
                "ideal_dq",
                vec![("rtt_lambda", d(rtt_lambda)), ("dq_thresh", dq_thresh.to_json())],
            ),
            Scheme::Oracle { thresholds } => ("oracle", vec![("thresholds", thresholds.to_json())]),
            Scheme::Pie { target } => ("pie", vec![("target", d(target))]),
        };
        let mut fields = vec![("kind", kind.to_json())];
        fields.extend(params);
        Json::obj(fields)
    }
}

impl SchedKind {
    /// Read a `{ "kind": … }` object (`dwrr` and `sp_dwrr` also take a
    /// `quantum` in bytes); `ctx` prefixes the errors that are not about
    /// one field.
    ///
    /// # Errors
    /// An unknown kind, a stray or missing parameter, or a malformed one.
    pub fn from_json(v: &Json, ctx: &str) -> Result<SchedKind, String> {
        let kind = v.kind().map_err(|e| format!("{ctx}: {e}"))?;
        let with_quantum = |make: fn(u64) -> SchedKind| {
            check_keys(v, &["kind", "quantum"], ctx)?;
            Ok(make(v.u64_field("quantum")?))
        };
        let plain = match kind {
            "dwrr" => return with_quantum(|quantum| SchedKind::Dwrr { quantum }),
            "sp_dwrr" => return with_quantum(|quantum| SchedKind::SpDwrr { quantum }),
            "fifo" => SchedKind::Fifo,
            "sp" => SchedKind::Sp,
            "wrr" => SchedKind::Wrr,
            "wfq" => SchedKind::Wfq,
            "sp_wfq" => SchedKind::SpWfq,
            "pifo_stfq" => SchedKind::PifoStfq,
            other => {
                return Err(format!("{ctx}: {}", unknown("scheduler kind", other, &SCHED_KINDS)))
            }
        };
        check_keys(v, &["kind"], ctx)?;
        Ok(plain)
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
            // Write-only: the `pifo_demo` preset is not a run-file kind.
            SchedKind::PifoStfq4211 => ("pifo_stfq_4211", None),
        };
        let mut fields = vec![("kind", kind.to_json())];
        if let Some(q) = quantum {
            fields.push(("quantum", q.to_json()));
        }
        Json::obj(fields)
    }
}

/// A switch egress port's policy: how many queues, how much shared
/// buffer, which scheduler and which marking scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortPolicy {
    /// Queues per port.
    pub queues: usize,
    /// Shared buffer per port, bytes.
    pub buffer: u64,
    /// The packet scheduler.
    pub sched: SchedKind,
    /// The ECN/AQM scheme.
    pub scheme: Scheme,
}

impl PortPolicy {
    /// The four port keys, in the order the writer emits them.
    pub const KEYS: [&'static str; 4] = ["queues", "buffer", "sched", "scheme"];

    /// Read the [`KEYS`](Self::KEYS) of `v`, each taken from `defaults`
    /// when absent (`None`: all four are required), then run the checks
    /// the scheduler and AQM constructors would otherwise `assert!`. The
    /// caller checks the object's keys, which may include its own; `ctx`
    /// (`port`, `base`) prefixes the errors that are not about one field.
    ///
    /// # Errors
    /// A message naming the field.
    pub fn from_json(v: &Json, ctx: &str, defaults: Option<PortPolicy>) -> Result<PortPolicy, String> {
        let port = PortPolicy {
            queues: field(v, "queues", defaults.map(|d| d.queues), |_| v.int_field("queues"))?,
            buffer: field(v, "buffer", defaults.map(|d| d.buffer), |_| v.u64_field("buffer"))?,
            sched: field(v, "sched", defaults.map(|d| d.sched), |x| {
                SchedKind::from_json(x, &format!("{ctx}.sched"))
            })?,
            scheme: field(v, "scheme", defaults.map(|d| d.scheme), |x| {
                Scheme::from_json(x, &format!("{ctx}.scheme"))
            })?,
        };
        let ensure = |ok: bool, problem: String| if ok { Ok(()) } else { Err(format!("{ctx}.{problem}")) };
        let sched = port.sched;
        let min_queues = if matches!(sched, SchedKind::SpDwrr { .. } | SchedKind::SpWfq) { 2 } else { 1 };
        ensure(
            port.queues >= min_queues,
            format!("queues: the {} scheduler needs at least {min_queues}", sched.name()),
        )?;
        ensure(
            !matches!(sched, SchedKind::Dwrr { quantum: 0 } | SchedKind::SpDwrr { quantum: 0 }),
            "sched.quantum: must be positive".into(),
        )?;
        if let Scheme::TcnProb { t_min, t_max, p_max } = port.scheme {
            ensure(t_min <= t_max, "scheme.t_min: exceeds t_max".into())?;
            ensure(p_max > 0.0 && p_max <= 1.0, format!("scheme.p_max: {p_max} is not in (0, 1]"))?;
        }
        Ok(port)
    }

    /// The [`KEYS`](Self::KEYS) fields, in key order.
    pub fn fields(&self) -> [(&'static str, Json); 4] {
        [
            ("queues", self.queues.to_json()),
            ("buffer", self.buffer.to_json()),
            ("sched", self.sched.to_json()),
            ("scheme", self.scheme.to_json()),
        ]
    }

    /// The [`PortSetup`] of one switch port under this policy.
    pub fn setup(&self, link: Rate, mtu: u32, seed: u64) -> PortSetup {
        switch_port(self.queues, Some(self.buffer), None, self.sched, self.scheme, link, mtu, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::example_json;
    use crate::scenario::{load, parse_scenario, scenario_to_json5, LIBRARY};

    /// Every shipped document goes read → write → read and comes back
    /// equal, and so does a port of every readable scheduler and scheme
    /// kind with parameters off their defaults — a writer that drops a
    /// parameter (a DWRR quantum, say) cannot pass.
    #[test]
    fn every_document_and_port_kind_round_trips() {
        for named in LIBRARY {
            let sc = load(named.id).expect(named.id);
            let back = Json::parse_json5(&scenario_to_json5(&sc)).and_then(|v| parse_scenario(&v));
            assert_eq!(back.as_ref(), Ok(&sc), "{}", named.id);
        }
        let example = example_json();
        let sc = Json::parse_json5(&example).and_then(|v| parse_scenario(&v)).expect("the example parses");
        assert_eq!(scenario_to_json5(&sc), example, "the example is the writer's own output");

        let t = Time::from_us;
        let scheds = [
            SchedKind::Fifo,
            SchedKind::Sp,
            SchedKind::Wrr,
            SchedKind::Dwrr { quantum: 9_000 },
            SchedKind::Wfq,
            SchedKind::SpDwrr { quantum: 4_500 },
            SchedKind::SpWfq,
            SchedKind::PifoStfq,
        ];
        let schemes = [
            Scheme::Tcn { threshold: Time::from_ns(78_500) },
            Scheme::TcnProb { t_min: t(100), t_max: t(300), p_max: 0.3 },
            Scheme::CoDel { target: Time::from_ns(51_200), interval: t(1024) },
            Scheme::MqEcn { rtt_lambda: t(85) },
            Scheme::RedQueue { threshold: 97_500 },
            Scheme::RedPort { threshold: 65_000 },
            Scheme::DropTail,
        ];
        let kind = |v: Json| v.kind().map(str::to_string).expect("tagged");
        assert_eq!(scheds.map(|s| kind(s.to_json())), SCHED_KINDS, "one value per readable kind");
        assert_eq!(schemes.map(|s| kind(s.to_json())), SCHEME_KINDS, "one value per readable kind");
        for sched in scheds {
            for scheme in schemes {
                let port = PortPolicy { queues: 3, buffer: 123_456, sched, scheme };
                let text = Json::obj(port.fields().into()).pretty();
                let back = Json::parse(&text).and_then(|v| PortPolicy::from_json(&v, "port", None));
                assert_eq!(back, Ok(port), "{text}");
            }
        }
    }

    /// Values no run file names are still spelled — the writer is total —
    /// and read back as an unknown kind, not as some other value.
    #[test]
    fn write_only_values_read_back_as_unknown_kinds() {
        let t = Time::from_us(1);
        for scheme in [
            Scheme::RedQueueDequeue { threshold: 1 },
            Scheme::IdealDq { rtt_lambda: t, dq_thresh: 2 },
            Scheme::Oracle { thresholds: &[1, 2] },
            Scheme::Pie { target: t },
        ] {
            let err = Scheme::from_json(&scheme.to_json(), "scheme").expect_err(scheme.name());
            assert!(err.starts_with("scheme: unknown scheme kind"), "{err}");
        }
        let err = SchedKind::from_json(&SchedKind::PifoStfq4211.to_json(), "sched");
        let err = err.expect_err("the 4:2:1:1 preset");
        assert!(err.starts_with("sched: unknown scheduler kind `pifo_stfq_4211`"), "{err}");
    }

    #[test]
    fn port_errors_name_the_field() {
        let sched = |s: &str| {
            format!(r#"{{"queues": 1, "buffer": 1, "sched": {s}, "scheme": {{"kind": "drop_tail"}}}}"#)
        };
        let prob = |t_min: u64, p_max: f64| {
            format!(
                r#"{{"queues": 1, "buffer": 1, "sched": {{"kind": "fifo"}}, "scheme":
                    {{"kind": "tcn_prob", "t_min": "{t_min}us", "t_max": "300us", "p_max": {p_max}}}}}"#
            )
        };
        for (text, want) in [
            (sched(r#"{"kind": "sp_dwrr", "quantum": 1500}"#), "base.queues: the SP/DWRR"),
            (sched(r#"{"kind": "sp_wfq"}"#), "base.queues: the SP/WFQ"),
            (sched(r#"{"kind": "dwrr", "quantum": 0}"#), "base.sched.quantum: must be positive"),
            (sched(r#"{"kind": "dwrr"}"#), "missing field `quantum`"),
            (sched(r#"{"kind": "wfq", "quantum": 1500}"#), "base.sched: unknown key `quantum`"),
            (sched(r#""dwrr""#), "base.sched: missing field `kind`"),
            (sched(r#"{"kind": "sp-dwrr"}"#), "base.sched: unknown scheduler kind `sp-dwrr`"),
            (prob(400, 0.5), "base.scheme.t_min"),
            (prob(100, 0.0), "base.scheme.p_max"),
            (prob(100, 1.5), "base.scheme.p_max"),
            (r#"{"queues": 1}"#.into(), "missing field `buffer`"),
        ] {
            let err = Json::parse(&text).and_then(|v| PortPolicy::from_json(&v, "base", None));
            let err = err.expect_err(&text);
            assert!(err.starts_with(want), "{text}: {err}");
        }
    }

    #[test]
    fn fault_profiles_are_read_in_range() {
        let read = |text: &str| Json::parse(text).and_then(|v| fault_profile(&v));
        let p = read(r#"{"loss": 0.25, "jitter_max": "60us"}"#).expect("in range");
        assert_eq!(p, LinkFaultProfile { loss: 0.25, jitter_max: Time::from_us(60), ..LinkFaultProfile::NONE });
        assert_eq!(read("{}"), Ok(LinkFaultProfile::NONE), "absent knobs are off");
        for (text, key) in [
            (r#"{"loss": 2.0}"#, "`loss`"),
            (r#"{"corrupt": -0.5}"#, "`corrupt`"),
            (r#"{"jitter_prob": "high"}"#, "`jitter_prob`"),
            (r#"{"jitter_max": 60}"#, "`jitter_max`"),
        ] {
            let err = read(text).expect_err(text);
            assert!(err.starts_with(&format!("field {key}")), "{text}: {err}");
        }
    }
}
