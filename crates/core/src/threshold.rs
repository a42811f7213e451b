//! The standard marking thresholds (paper Eqs. 1–3).
//!
//! * Queue-length schemes mark above `K = C × RTT × λ` bytes (Eq. 1);
//!   per-queue, the ideal `K_i = C_i × RTT × λ` tracks the queue's own
//!   drain rate `C_i` (Eq. 2) — the quantity §3.3 shows is impractical to
//!   measure.
//! * TCN marks above `T = RTT × λ` of sojourn time (Eq. 3), eliminating
//!   `C_i` entirely.
//!
//! λ is set by the congestion control algorithm: 1.0 for ECN\* (plain
//! ECN-enabled TCP that halves on any mark), and operators typically use
//! a comparable-or-smaller fraction for DCTCP.

use tcn_sim::{Rate, Time};

/// `K = C × RTT × λ` in **bytes** — the standard queue-length marking
/// threshold (Eq. 1), rounded to the nearest byte.
///
/// ```
/// use tcn_core::threshold::standard_queue_threshold;
/// use tcn_sim::{Rate, Time};
///
/// // Paper §3.3: 10 Gbps × 100 us (λ = 1) = 125 KB.
/// let k = standard_queue_threshold(Rate::from_gbps(10), Time::from_us(100), 1.0);
/// assert_eq!(k, 125_000);
/// ```
///
/// # Panics
/// Panics if `lambda` is not positive and finite.
pub fn standard_queue_threshold(capacity: Rate, rtt: Time, lambda: f64) -> u64 {
    assert!(
        lambda.is_finite() && lambda > 0.0,
        "lambda must be positive"
    );
    let bdp_bytes = capacity.as_bps() as f64 * rtt.as_secs_f64() / 8.0;
    (bdp_bytes * lambda).round() as u64
}

/// `T = RTT × λ` — the standard sojourn-time marking threshold for TCN
/// (Eq. 3), rounded to the nearest picosecond.
///
/// ```
/// use tcn_core::threshold::standard_sojourn_threshold;
/// use tcn_sim::Time;
///
/// // Paper §6.1: base RTT 250 us, DCTCP → T ≈ 256 us with λ ≈ 1.024;
/// // with λ = 1 it is simply the RTT.
/// assert_eq!(standard_sojourn_threshold(Time::from_us(100), 1.0), Time::from_us(100));
/// ```
///
/// # Panics
/// Panics if `lambda` is not positive and finite.
pub fn standard_sojourn_threshold(rtt: Time, lambda: f64) -> Time {
    assert!(
        lambda.is_finite() && lambda > 0.0,
        "lambda must be positive"
    );
    Time::from_secs_f64(rtt.as_secs_f64() * lambda)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_threshold() {
        // §6.1: 1 Gbps, base RTT ~250 us → "standard ECN marking threshold
        // is 32 KB" (λ slightly above 1 in their setup; with λ = 1.024
        // exactly 32 KB).
        let k = standard_queue_threshold(Rate::from_gbps(1), Time::from_us(250), 1.024);
        assert_eq!(k, 32_000);
        // Fig. 5(b): the same formula at one queue's own drain rate is
        // Eq. 2's ideal K_i — 250 Mbps of that 1 Gbps port → 8 KB.
        let k = standard_queue_threshold(Rate::from_mbps(250), Time::from_us(250), 1.024);
        assert_eq!(k, 8_000);
    }

    #[test]
    fn paper_simulation_thresholds() {
        // §3.3: 10 Gbps × 100 us = 125 KB at λ = 1.
        assert_eq!(
            standard_queue_threshold(Rate::from_gbps(10), Time::from_us(100), 1.0),
            125_000
        );
    }

    #[test]
    fn sojourn_threshold_scales_with_lambda() {
        let rtt = Time::from_us(200);
        assert_eq!(standard_sojourn_threshold(rtt, 0.5), Time::from_us(100));
        assert_eq!(standard_sojourn_threshold(rtt, 2.0), Time::from_us(400));
    }

    #[test]
    fn queue_and_sojourn_thresholds_are_consistent() {
        // K / C must equal T when the queue drains at full capacity —
        // the §4.1 equivalence that motivates TCN.
        let c = Rate::from_gbps(10);
        let rtt = Time::from_us(100);
        let k = standard_queue_threshold(c, rtt, 1.0);
        let t = standard_sojourn_threshold(rtt, 1.0);
        assert_eq!(c.tx_time(k), t);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn rejects_zero_lambda() {
        standard_queue_threshold(Rate::from_gbps(1), Time::from_us(1), 0.0);
    }
}
