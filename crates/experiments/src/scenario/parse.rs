//! `Json` → [`Scenario`] (and back).
//!
//! The `base` is an [`ExperimentCfg`], read and written by its own
//! impls; the port, every duration and the fault knobs are spelled
//! through [`crate::vocab`]: a duration is a string — `"500ms"`,
//! `"2s"`, `"90us"` — resolved to a picosecond [`Time`] with checked
//! arithmetic, so a typo'd `"999999999m"` is a parse error instead of a
//! silent wrap. Field checking is strict: an unknown key anywhere in
//! the document names itself in the error, so a misspelled knob cannot
//! be silently ignored.

use super::{LinkSel, Scenario, Step, StepMutation};
use crate::config::{ExperimentCfg, WorkloadCfg};
use crate::json::{Json, ToJson};
use crate::vocab::{
    check_keys, duration_field, duration_json, fault_profile, fault_profile_fields, field,
    FAULT_KEYS,
};
use tcn_sim::Time;

fn opt_str(v: &Json, key: &str, default: &str) -> Result<String, String> {
    match v.get(key) {
        None => Ok(default.to_string()),
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("field `{key}` must be a string")),
    }
}

fn opt_int<T: TryFrom<u64>>(v: &Json, key: &str, default: T) -> Result<T, String> {
    field(v, key, Some(default), |_| v.int_field(key))
}

/// `link: 3` or `link: "all"` (default: every switch egress port).
fn link_sel(v: &Json) -> Result<LinkSel, String> {
    match v.get("link") {
        None => Ok(LinkSel::All),
        Some(Json::Str(s)) if s == "all" => Ok(LinkSel::All),
        Some(j) if j.as_u64().is_some() => v.int_field("link").map(LinkSel::One),
        Some(_) => Err("field `link` must be a link index or \"all\"".to_string()),
    }
}

fn parse_step(v: &Json, idx: usize) -> Result<Step, String> {
    let ctx = format!("steps[{idx}]");
    check_keys(v, &["at", "about", "do"], &ctx)?;
    let at = duration_field(v, "at", None).map_err(|e| format!("{ctx}: {e}"))?;
    let about = opt_str(v, "about", "").map_err(|e| format!("{ctx}: {e}"))?;
    let action = v
        .get("do")
        .ok_or_else(|| format!("{ctx}: missing field `do`"))?;
    let change = parse_mutation(action).map_err(|e| format!("{ctx}: {e}"))?;
    Ok(Step { at, about, change })
}

fn parse_mutation(v: &Json) -> Result<StepMutation, String> {
    let kind = v.kind()?;
    match kind {
        "conditions" => {
            check_keys(v, &[&["kind", "link"], &FAULT_KEYS[..]].concat(), "do")?;
            Ok(StepMutation::Conditions {
                link: link_sel(v)?,
                profile: fault_profile(v)?,
            })
        }
        "link-down" => {
            check_keys(v, &["kind", "link"], "do")?;
            Ok(StepMutation::LinkDown { link: v.int_field("link")? })
        }
        "link-up" => {
            check_keys(v, &["kind", "link"], "do")?;
            Ok(StepMutation::LinkUp { link: v.int_field("link")? })
        }
        "link-rate" => {
            check_keys(v, &["kind", "link", "mbps"], "do")?;
            let mbps = v.u64_field("mbps")?;
            if mbps == 0 {
                return Err("do: link-rate mbps must be positive".to_string());
            }
            Ok(StepMutation::LinkRate { link: link_sel(v)?, mbps })
        }
        "drain" => {
            check_keys(v, &["kind"], "do")?;
            Ok(StepMutation::Drain)
        }
        "aqm-tcn" => {
            check_keys(v, &["kind", "link", "threshold"], "do")?;
            Ok(StepMutation::AqmTcn {
                link: link_sel(v)?,
                threshold: duration_field(v, "threshold", None)?,
            })
        }
        "aqm-red" => {
            check_keys(v, &["kind", "link", "min", "max"], "do")?;
            let min = v.u64_field("min")?;
            let max = v.u64_field("max")?;
            if min > max {
                return Err("do: aqm-red min must not exceed max".to_string());
            }
            Ok(StepMutation::AqmRed { link: link_sel(v)?, min, max })
        }
        "aqm-codel" => {
            check_keys(v, &["kind", "link", "target"], "do")?;
            Ok(StepMutation::AqmCodel {
                link: link_sel(v)?,
                target: duration_field(v, "target", None)?,
            })
        }
        "cc-switch" => {
            check_keys(v, &["kind", "service", "cc"], "do")?;
            let service = v.int_field("service")?;
            let name = v.str_field("cc")?;
            let cc = tcn_net::Cc::from_name(name).ok_or_else(|| {
                format!("do: cc-switch unknown controller `{name}`")
            })?;
            Ok(StepMutation::CcSwitch { service, cc })
        }
        "burst" => {
            check_keys(v, &["kind", "dst", "senders", "bytes"], "do")?;
            let senders: u32 = opt_int(v, "senders", 4)?;
            let bytes = opt_int(v, "bytes", 64_000)?;
            if senders == 0 || bytes == 0 {
                return Err("do: burst needs positive senders and bytes".to_string());
            }
            Ok(StepMutation::Burst {
                dst: v.int_field("dst")?,
                senders,
                bytes,
            })
        }
        other => Err(format!("do: unknown step kind `{other}`")),
    }
}

/// Parse a whole scenario document (already through [`Json::parse_json5`]).
///
/// # Errors
/// A message naming the offending field, with `steps[i]` context.
pub fn parse_scenario(v: &Json) -> Result<Scenario, String> {
    check_keys(
        v,
        &["id", "about", "tags", "base", "loop_scenario", "period", "steps"],
        "scenario",
    )?;
    let id = v.str_field("id")?.to_string();
    if id.is_empty() || !id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
        return Err(format!(
            "id `{id}` must be non-empty lowercase-kebab ([a-z0-9-])"
        ));
    }
    let about = opt_str(v, "about", "")?;
    let tags = match v.get("tags") {
        None => Vec::new(),
        Some(j) => j
            .as_arr()
            .ok_or_else(|| "field `tags` must be an array".to_string())?
            .iter()
            .map(|t| {
                t.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "tags must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let base = field(v, "base", Some(ExperimentCfg::default()), ExperimentCfg::from_value)?;
    let loops: u32 = opt_int(v, "loop_scenario", 1)?;
    if loops == 0 {
        return Err("loop_scenario must be at least 1".to_string());
    }
    let horizon = match base.workload {
        WorkloadCfg::Background { horizon, .. } => horizon,
        _ => Time::ZERO,
    };
    let period = duration_field(v, "period", Some(horizon))?;
    if loops > 1 && period.is_zero() {
        return Err("a looping scenario needs a positive period".to_string());
    }
    let steps = match v.get("steps") {
        None => Vec::new(),
        Some(j) => j
            .as_arr()
            .ok_or_else(|| "field `steps` must be an array".to_string())?
            .iter()
            .enumerate()
            .map(|(i, s)| parse_step(s, i))
            .collect::<Result<Vec<_>, _>>()?,
    };
    if matches!(base.workload, WorkloadCfg::Background { flows: 0, .. })
        && !steps
            .iter()
            .any(|s| matches!(s.change, StepMutation::Burst { .. }))
    {
        return Err("scenario has no traffic: zero background flows and no burst steps".to_string());
    }
    Ok(Scenario {
        id,
        about,
        tags,
        base,
        loops,
        period,
        steps,
    })
}

fn link_sel_json(l: LinkSel) -> Json {
    match l {
        LinkSel::All => Json::Str("all".into()),
        LinkSel::One(i) => Json::Num(f64::from(i)),
    }
}

fn mutation_json(m: &StepMutation) -> Json {
    let mut fields: Vec<(&str, Json)> = vec![("kind", Json::Str(m.tag().into()))];
    match m {
        StepMutation::Conditions { link, profile } => {
            fields.push(("link", link_sel_json(*link)));
            fields.extend(fault_profile_fields(profile));
        }
        StepMutation::LinkDown { link } | StepMutation::LinkUp { link } => {
            fields.push(("link", Json::Num(f64::from(*link))));
        }
        StepMutation::LinkRate { link, mbps } => {
            fields.push(("link", link_sel_json(*link)));
            fields.push(("mbps", Json::Num(*mbps as f64)));
        }
        StepMutation::Drain => {}
        StepMutation::AqmTcn { link, threshold } => {
            fields.push(("link", link_sel_json(*link)));
            fields.push(("threshold", duration_json(*threshold)));
        }
        StepMutation::AqmRed { link, min, max } => {
            fields.push(("link", link_sel_json(*link)));
            fields.push(("min", Json::Num(*min as f64)));
            fields.push(("max", Json::Num(*max as f64)));
        }
        StepMutation::AqmCodel { link, target } => {
            fields.push(("link", link_sel_json(*link)));
            fields.push(("target", duration_json(*target)));
        }
        StepMutation::CcSwitch { service, cc } => {
            fields.push(("service", Json::Num(f64::from(*service))));
            fields.push(("cc", Json::Str(cc.name().into())));
        }
        StepMutation::Burst { dst, senders, bytes } => {
            fields.push(("dst", Json::Num(f64::from(*dst))));
            fields.push(("senders", Json::Num(f64::from(*senders))));
            fields.push(("bytes", Json::Num(*bytes as f64)));
        }
    }
    Json::obj(fields)
}

/// Serialize a scenario back to scenario-file text (strict JSON, which
/// is inside the JSON5 subset) — the format quarantined fuzzer repros
/// are written in, and the bytes [`parse_scenario`] reads back.
pub fn scenario_to_json5(sc: &Scenario) -> String {
    let steps = sc
        .steps
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("at", duration_json(s.at)),
                ("about", Json::Str(s.about.clone())),
                ("do", mutation_json(&s.change)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("id", Json::Str(sc.id.clone())),
        ("about", Json::Str(sc.about.clone())),
        (
            "tags",
            Json::Arr(sc.tags.iter().map(|t| Json::Str(t.clone())).collect()),
        ),
        ("base", sc.base.to_json()),
        ("loop_scenario", Json::Num(f64::from(sc.loops))),
        ("period", duration_json(sc.period)),
        ("steps", Json::Arr(steps)),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scheme;
    use crate::vocab::parse_duration;

    #[test]
    fn duration_units_resolve_to_picoseconds() {
        assert_eq!(parse_duration("7ns").unwrap(), Time::from_ns(7));
        assert_eq!(parse_duration("90us").unwrap(), Time::from_us(90));
        assert_eq!(parse_duration("500ms").unwrap(), Time::from_ms(500));
        assert_eq!(parse_duration("2s").unwrap(), Time::from_secs(2));
        assert_eq!(parse_duration("2m").unwrap(), Time::from_secs(120));
        assert_eq!(parse_duration("  15us  ").unwrap(), Time::from_us(15));
    }

    #[test]
    fn zero_durations_are_time_zero() {
        assert_eq!(parse_duration("0ms").unwrap(), Time::ZERO);
        assert_eq!(parse_duration("0ns").unwrap(), Time::ZERO);
    }

    #[test]
    fn overflow_near_time_max_is_an_error() {
        // Time::MAX is u64::MAX picoseconds ≈ 18_446_744 seconds.
        assert_eq!(
            parse_duration("18446744s").unwrap(),
            Time::from_secs(18_446_744)
        );
        let err = parse_duration("18446745s").expect_err("one past the clock");
        assert!(err.contains("overflows"), "{err}");
        let err = parse_duration("307446m").expect_err("minutes overflow too");
        assert!(err.contains("overflows"), "{err}");
        // A count that does not even fit in u64.
        let err = parse_duration("99999999999999999999ns").expect_err("u64 overflow");
        assert!(err.contains("does not fit"), "{err}");
    }

    #[test]
    fn float_durations_are_rejected() {
        let err = parse_duration("1.5ms").expect_err("floats rejected");
        assert!(err.contains("floats are not supported"), "{err}");
    }

    #[test]
    fn malformed_durations_are_rejected() {
        assert!(parse_duration("ms").is_err());
        assert!(parse_duration("").is_err());
        assert!(parse_duration("-5ms").is_err());
        assert!(parse_duration("500").unwrap_err().contains("missing a unit"));
        assert!(parse_duration("5sec").unwrap_err().contains("unknown unit"));
    }

    fn demo_source() -> &'static str {
        r#"{
            id: "demo-burst",
            about: "one incast against a retuned TCN port",
            tags: ["demo", "incast"],
            base: {
                topology: { kind: "single_switch", hosts: 4, rate_gbps: 1, delay: "25us" },
                port: {
                    scheme: { kind: "tcn", threshold: "100us" },
                    sched: { kind: "dwrr", quantum: 3000 },
                },
                workload: { kind: "background", flows: 10, mean_flow_bytes: 50000, horizon: "1ms" },
                seed: 42,
                deadline: "5s",
            },
            steps: [
                { at: "200us", about: "storm", do: { kind: "burst", dst: 0, senders: 3, bytes: 30000 } },
                { at: "400us", do: { kind: "aqm-tcn", link: "all", threshold: "400us" } },
                { at: "600us", do: { kind: "drain" } },
            ],
        }"#
    }

    #[test]
    fn full_scenario_parses() {
        let sc = parse_scenario(&Json::parse_json5(demo_source()).unwrap()).unwrap();
        assert_eq!(sc.id, "demo-burst");
        assert_eq!(sc.base.topology.hosts(), 4);
        assert_eq!(sc.base.port.scheme, Scheme::Tcn { threshold: Time::from_us(100) });
        assert_eq!(sc.loops, 1);
        assert_eq!(sc.period, Time::from_ms(1), "period defaults to the horizon");
        assert_eq!(sc.steps.len(), 3);
        assert_eq!(sc.steps[0].at, Time::from_us(200));
        assert_eq!(
            sc.steps[0].change,
            StepMutation::Burst { dst: 0, senders: 3, bytes: 30_000 }
        );
        assert_eq!(
            sc.steps[1].change,
            StepMutation::AqmTcn { link: LinkSel::All, threshold: Time::from_us(400) }
        );
        assert_eq!(sc.steps[2].change, StepMutation::Drain);
    }

    #[test]
    fn scenarios_round_trip_through_serialization() {
        let sc = parse_scenario(&Json::parse_json5(demo_source()).unwrap()).unwrap();
        let text = scenario_to_json5(&sc);
        let back = parse_scenario(&Json::parse_json5(&text).unwrap()).unwrap();
        assert_eq!(sc, back);
    }

    /// The port reader runs the scheduler's own checks, so a port the
    /// simulator would `assert!` on is a parse error naming the field.
    #[test]
    fn one_queue_under_sp_dwrr_is_a_parse_error_naming_queues() {
        let doc = r#"{ id: "x", base: { port: { queues: 1, sched: { kind: "sp_dwrr", quantum: 1500 } } } }"#;
        let err = parse_scenario(&Json::parse_json5(doc).unwrap()).expect_err("one queue under SP/DWRR");
        assert!(err.starts_with("port.queues: the SP/DWRR scheduler needs at least 2"), "{err}");
        // MQ-ECN, the paper's main comparator, is a scenario scheme too.
        let mq = r#"{ id: "x", base: { port: { scheme: { kind: "mq_ecn", rtt_lambda: "85us" } } } }"#;
        let sc = parse_scenario(&Json::parse_json5(mq).unwrap()).expect("MQ-ECN parses");
        assert_eq!(sc.base.port.scheme, Scheme::MqEcn { rtt_lambda: Time::from_us(85) });
    }

    #[test]
    fn unknown_keys_are_named_in_errors() {
        let err = parse_scenario(&Json::parse_json5(r#"{ id: "x", flows: 3 }"#).unwrap())
            .expect_err("flows belongs under base");
        assert!(err.contains("unknown key `flows`"), "{err}");
        let err = parse_scenario(
            &Json::parse_json5(r#"{ id: "x", steps: [{ at: "1ms", do: { kind: "warp" } }] }"#).unwrap(),
        )
        .expect_err("unknown step kind");
        assert!(err.contains("steps[0]") && err.contains("warp"), "{err}");
    }

    #[test]
    fn degenerate_scenarios_are_rejected() {
        let no_traffic = r#"{ id: "x", base: { workload:
            { kind: "background", flows: 0, mean_flow_bytes: 50000, horizon: "2ms" } } }"#;
        let err = parse_scenario(&Json::parse_json5(no_traffic).unwrap()).unwrap_err();
        assert!(err.contains("no traffic"), "{err}");
        // Sizes are clamped to [1500, 10 × mean]: a mean under 150 bytes
        // would hand `clamp` an inverted range.
        let tiny_flows = r#"{ id: "x", base: { workload:
            { kind: "background", flows: 10, mean_flow_bytes: 100, horizon: "2ms" } } }"#;
        let err = parse_scenario(&Json::parse_json5(tiny_flows).unwrap()).unwrap_err();
        assert!(err.starts_with("workload.mean_flow_bytes: 100"), "{err}");
        let bad_loop = r#"{ id: "x", loop_scenario: 0 }"#;
        let err = parse_scenario(&Json::parse_json5(bad_loop).unwrap()).unwrap_err();
        assert!(err.contains("loop_scenario"), "{err}");
        let zero_rate = r#"{ id: "x", steps: [{ at: "0ms", do: { kind: "link-rate", link: 1, mbps: 0 } }] }"#;
        let err = parse_scenario(&Json::parse_json5(zero_rate).unwrap()).unwrap_err();
        assert!(err.contains("mbps must be positive"), "{err}");
    }

    #[test]
    fn integers_past_their_field_type_are_rejected() {
        // 2^32 + 1 wrapped to a `u32` is 1: a valid link, host, sender
        // count or loop count.
        let big = 4_294_967_297u64;
        let step = |action: String| format!(r#"{{ id: "x", steps: [{{ at: "0ms", do: {{ {action} }} }}] }}"#);
        for (field, doc) in [
            ("loop_scenario", format!(r#"{{ id: "x", loop_scenario: {big} }}"#)),
            ("link", step(format!(r#"kind: "link-down", link: {big}"#))),
            ("link", step(format!(r#"kind: "conditions", link: {big}"#))),
            ("dst", step(format!(r#"kind: "burst", dst: {big}"#))),
            ("senders", step(format!(r#"kind: "burst", dst: 1, senders: {big}"#))),
        ] {
            let err = parse_scenario(&Json::parse_json5(&doc).unwrap()).unwrap_err();
            assert!(err.contains(&format!("field `{field}` is out of range")), "{doc}: {err}");
        }
    }
}
