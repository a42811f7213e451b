//! Synchronized-burst (incast) generation.
//!
//! The paper argues TCN's instantaneous marking reacts faster than CoDel
//! to "bursty datacenter traffic (e.g., incast \[33, 34\])" (§4.3); the
//! burst-tolerance experiment (`figs incast`) uses this generator to test
//! that claim directly: `fanout` senders each fire `size` bytes at the
//! same receiver within a tiny jitter window.

use tcn_net::FlowSpec;
use tcn_sim::{Rng, Time};

/// Generate one incast episode: every sender in `senders` starts a
/// `size`-byte flow to `receiver` at `start`, jittered uniformly within
/// `jitter` (zero jitter = perfectly synchronized).
pub fn gen_incast(
    rng: &mut Rng,
    senders: &[u32],
    receiver: u32,
    size: u64,
    start: Time,
    jitter: Time,
    service: u8,
) -> Vec<FlowSpec> {
    assert!(!senders.is_empty());
    assert!(!senders.contains(&receiver), "receiver among senders");
    senders
        .iter()
        .map(|&src| {
            let j = if jitter.is_zero() {
                Time::ZERO
            } else {
                Time::from_ps(rng.gen_range(jitter.as_ps()))
            };
            FlowSpec {
                src,
                dst: receiver,
                size,
                start: start.saturating_add(j),
                service,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronized_when_zero_jitter() {
        let mut rng = Rng::new(1);
        let flows = gen_incast(
            &mut rng,
            &[0, 1, 2, 3],
            8,
            32_000,
            Time::from_ms(1),
            Time::ZERO,
            2,
        );
        assert_eq!(flows.len(), 4);
        assert!(flows.iter().all(|f| f.start == Time::from_ms(1)));
        assert!(flows.iter().all(|f| f.size == 32_000 && f.dst == 8));
        assert!(flows.iter().all(|f| f.service == 2));
    }

    #[test]
    fn jitter_bounded() {
        let mut rng = Rng::new(2);
        let flows = gen_incast(
            &mut rng,
            &(0..32).collect::<Vec<_>>(),
            40,
            32_000,
            Time::from_ms(1),
            Time::from_us(10),
            0,
        );
        for f in &flows {
            assert!(f.start >= Time::from_ms(1));
            assert!(f.start < Time::from_ms(1) + Time::from_us(10));
        }
        // With 32 senders and 10 us of jitter, starts should differ.
        assert!(flows.iter().any(|f| f.start != flows[0].start));
    }

    #[test]
    #[should_panic(expected = "receiver among senders")]
    fn rejects_self_incast() {
        let mut rng = Rng::new(3);
        gen_incast(&mut rng, &[0, 1], 1, 1000, Time::ZERO, Time::ZERO, 0);
    }
}
