//! Mixed-tenant coexistence: DCTCP, CUBIC and BBR sharing one fabric.
//!
//! The paper evaluates TCN with homogeneous ECN transports; its claim —
//! sojourn marking valid under *any* scheduler — matters most when
//! heterogeneous congestion controllers share queues (the DCTCP/CUBIC
//! buffer-coexistence line of arXiv 2302.05771). This family gives each
//! tenant its own service class and transport on a star fabric:
//!
//! * service 0 — **DCTCP** (mark-driven, ECT),
//! * service 1 — **CUBIC** (loss-driven, Not-ECT),
//! * service 2 — **BBR** (model-driven, Not-ECT),
//!
//! and measures per-tenant goodput shares under {WFQ, DWRR} × {TCN,
//! per-queue RED}. The scheduler owns isolation, so every cell should
//! hold the 1/3:1/3:1/3 shares; the AQM decides what the marks cost —
//! TCN keeps marking the DCTCP tenant by sojourn regardless of the
//! scheduler, while per-queue RED's static byte threshold drops the
//! loss-based tenants' packets from a standing queue.

use tcn_baselines::QueueCap;
use tcn_core::FlowId;
use tcn_net::{single_switch, FlowSpec, NetworkSim, PortSetup, TaggingPolicy};
use tcn_sim::Time;
use tcn_telemetry::Telemetry;
use tcn_transport::{Cc, TcpConfig};

use crate::common::{params::testbed, switch_port, SchedKind, Scheme};
use crate::json::{Json, ToJson};

/// The tenants, in service-class order.
pub const TENANTS: &[Cc] = &[Cc::Dctcp, Cc::Cubic, Cc::Bbr];

/// One (scheduler, AQM, tenant) measurement.
#[derive(Debug, Clone)]
pub struct MixedCell {
    /// Scheduler name (`wfq` / `dwrr`).
    pub sched: &'static str,
    /// AQM display name (`TCN` / `RED-queue(std)`).
    pub scheme: &'static str,
    /// Tenant controller name (`dctcp` / `cubic` / `bbr`).
    pub tenant: &'static str,
    /// Goodput over the measurement window, Mbps.
    pub goodput_mbps: f64,
    /// Fraction of the three tenants' combined goodput.
    pub share: f64,
    /// Sender RTO expiries across the tenant's flows.
    pub timeouts: u64,
    /// ECN-driven window reductions across the tenant's flows (zero
    /// for the non-ECN tenants by construction).
    pub ecn_reductions: u64,
}

impl ToJson for MixedCell {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("sched".into(), Json::Str(self.sched.into())),
            ("scheme".into(), Json::Str(self.scheme.into())),
            ("tenant".into(), Json::Str(self.tenant.into())),
            ("goodput_mbps".into(), Json::Num(self.goodput_mbps)),
            ("share".into(), Json::Num(self.share)),
            ("timeouts".into(), Json::Num(self.timeouts as f64)),
            (
                "ecn_reductions".into(),
                Json::Num(self.ecn_reductions as f64),
            ),
        ])
    }
}

/// The full mixed-tenant sweep result.
#[derive(Debug, Clone)]
pub struct MixedResult {
    /// One row per (scheduler, AQM, tenant).
    pub cells: Vec<MixedCell>,
}

impl ToJson for MixedResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![(
            "cells".into(),
            Json::Arr(self.cells.iter().map(ToJson::to_json).collect()),
        )])
    }
}

/// Jain fairness index over the three tenants of one (sched, scheme)
/// combination.
pub use tcn_stats::jain_index as jain;

/// The scheduler/AQM grid the family sweeps.
fn grid() -> Vec<(&'static str, SchedKind, &'static str, Scheme)> {
    let tcn = Scheme::Tcn { threshold: testbed::TCN_T };
    let red = Scheme::RedQueue { threshold: testbed::RED_K };
    vec![
        ("wfq", SchedKind::Wfq, "TCN", tcn),
        ("wfq", SchedKind::Wfq, "RED-queue(std)", red),
        ("dwrr", SchedKind::Dwrr { quantum: testbed::QUANTUM }, "TCN", tcn),
        ("dwrr", SchedKind::Dwrr { quantum: testbed::QUANTUM }, "RED-queue(std)", red),
    ]
}

/// Build one mixed-tenant star: three sender hosts (one per tenant)
/// into host 3, two long flows per tenant.
fn build(sched: SchedKind, scheme: Scheme, bus: Option<&Telemetry>) -> (NetworkSim, Vec<Vec<FlowId>>) {
    let mut sim = single_switch(
        4,
        testbed::RATE,
        testbed::LINK_DELAY,
        // The sim-wide default; every flow below overrides it.
        TcpConfig::preset(Cc::Dctcp).testbed(),
        TaggingPolicy::Fixed,
        move || {
            // Statically partition the shared pool across the tenant
            // queues: without a reservation, CUBIC's standing queue
            // captures the whole 96 KB and every BBR burst tail-drops
            // wholesale into an RTO (see `tcn_baselines::cap`).
            let cap = testbed::BUFFER / TENANTS.len() as u64;
            let PortSetup {
                nqueues,
                buffer,
                tx_rate,
                make_sched,
                make_aqm,
            } = switch_port(
                TENANTS.len(),
                Some(testbed::BUFFER),
                None,
                sched,
                scheme,
                testbed::RATE,
                testbed::MTU,
                7,
            );
            PortSetup {
                nqueues,
                buffer,
                tx_rate,
                make_sched,
                make_aqm: Box::new(move || Box::new(QueueCap::new(make_aqm(), cap))),
            }
        },
    )
    .expect("mixed-tenant star is well-formed");
    if let Some(bus) = bus {
        sim.install_telemetry(bus);
    }
    let mut flows = Vec::new();
    for (svc, &cc) in TENANTS.iter().enumerate() {
        let cfg = TcpConfig::preset(cc).testbed();
        let tenant: Vec<FlowId> = (0..2)
            .map(|_| {
                sim.add_flow_with(
                    FlowSpec {
                        src: svc as u32,
                        dst: 3,
                        size: 1 << 40,
                        start: Time::ZERO,
                        service: svc as u8,
                    },
                    cfg,
                )
            })
            .collect();
        flows.push(tenant);
    }
    (sim, flows)
}

/// Run the family: `warmup` of convergence, then goodput measured over
/// `measure`. Pass a telemetry bus to trace the first grid combination
/// (WFQ + TCN) — one combination keeps the JSONL timeline monotonic.
pub fn run(warmup: Time, measure: Time, bus: Option<&Telemetry>) -> MixedResult {
    let mut cells = Vec::new();
    let mut traced = bus;
    for (sched_name, sched, scheme_name, scheme) in grid() {
        let (mut sim, tenants) = build(sched, scheme, traced.take());
        sim.run_until(warmup).expect("mixed warmup");
        let before: Vec<u64> = tenants
            .iter()
            .map(|fs| fs.iter().map(|&f| sim.delivered_bytes(f)).sum())
            .collect();
        sim.run_until(warmup + measure).expect("mixed measure");
        let deltas: Vec<f64> = tenants
            .iter()
            .zip(&before)
            .map(|(fs, &b)| {
                (fs.iter().map(|&f| sim.delivered_bytes(f)).sum::<u64>() - b) as f64
            })
            .collect();
        let total: f64 = deltas.iter().sum();
        for ((tenant_flows, &cc), &delta) in tenants.iter().zip(TENANTS).zip(&deltas) {
            let recs = sim.fct_records();
            debug_assert!(recs.is_empty(), "long flows must not complete mid-window");
            let _ = recs;
            cells.push(MixedCell {
                sched: sched_name,
                scheme: scheme_name,
                tenant: cc.name(),
                goodput_mbps: delta * 8.0 / measure.as_secs_f64() / 1e6,
                share: if total > 0.0 { delta / total } else { 0.0 },
                timeouts: tenant_flows
                    .iter()
                    .map(|&f| sim.flow_timeouts(f))
                    .sum(),
                ecn_reductions: tenant_flows
                    .iter()
                    .map(|&f| sim.flow_ecn_reductions(f))
                    .sum(),
            });
        }
    }
    MixedResult { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_basics() {
        assert!((jain(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain(&[0.0, 0.0]), 0.0);
    }

    /// The headline claim: under both WFQ and DWRR with TCN marking,
    /// the three heterogeneous tenants hold the scheduler's equal
    /// shares — the loss-based tenants are not starved by the
    /// mark-based one or vice versa.
    #[test]
    fn tcn_keeps_mixed_tenants_near_fair_under_wfq_and_dwrr() {
        let res = run(Time::from_ms(60), Time::from_ms(200), None);
        for sched in ["wfq", "dwrr"] {
            let shares: Vec<f64> = res
                .cells
                .iter()
                .filter(|c| c.sched == sched && c.scheme == "TCN")
                .map(|c| c.share)
                .collect();
            assert_eq!(shares.len(), 3);
            assert!(
                jain(&shares) > 0.85,
                "{sched}+TCN tenant shares too skewed: {shares:?}"
            );
            // Only the DCTCP tenant reacts to marks.
            for c in res.cells.iter().filter(|c| c.sched == sched && c.scheme == "TCN") {
                if c.tenant == "dctcp" {
                    assert!(c.ecn_reductions > 0, "DCTCP tenant saw no marks");
                } else {
                    assert_eq!(
                        c.ecn_reductions, 0,
                        "{} tenant reduced on ECN under TCN",
                        c.tenant
                    );
                }
            }
        }
    }
}
