//! Deterministic fault-injection plans: what can go wrong on a link,
//! and when.
//!
//! A [`FaultPlan`] is pure data — a seeded description of per-link
//! stochastic faults (loss, corruption, delay jitter) plus a timed
//! schedule of link down/up events (flaps). The network layer threads
//! the plan through its event loop; this module only decides *what*
//! faults exist and hands out the isolated per-link random streams
//! that make replays bit-identical for a given seed.
//!
//! Design notes:
//!
//! * Per-link RNG isolation via [`Rng::stream`]: drawing a loss verdict
//!   on link 3 never advances link 5's stream, so adding faults to one
//!   link cannot perturb another link's fault sequence.
//! * A *quiet* profile (all probabilities zero) draws nothing at all —
//!   a plan with quiet profiles and no flaps is behaviourally identical
//!   to running without any plan installed, event for event.
//! * Flaps are scheduled wall-clock events, not random, so a single
//!   mid-run failure is expressible exactly (paper-style "kill one
//!   spine uplink at t = 10 ms" experiments).

use crate::rng::Rng;
use crate::time::Time;

/// The kinds of fault the injection layer can model. Each variant's
/// doc comment names the real-world failure mode it stands in for
/// (the xtask lint `fault-kind-doc` enforces this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Random Bernoulli packet loss on the wire — models congestion-less
    /// drops from a dirty optic, marginal SerDes or shallow-buffer
    /// microburst discard that the port ledger never sees.
    Loss,
    /// Bit corruption in flight — the frame arrives but fails its FCS
    /// at the receiving NIC and is discarded there, as with a failing
    /// transceiver or damaged cable; counted separately from wire loss.
    Corrupt,
    /// Bounded extra propagation delay (delay jitter) — models store-and-
    /// forward wander or a flapping retimer; enough jitter reorders
    /// packets and provokes spurious dup-ACKs.
    Jitter,
    /// A link going down mid-run — cable pull, switch reboot or laser
    /// failure; packets in flight are lost and routing must reconverge
    /// around the dead link.
    LinkDown,
    /// A previously downed link being restored — the repair/reboot
    /// completing; routing reconverges again to reclaim the capacity.
    LinkUp,
    /// The ECN field bleached to Not-ECT in flight — models a legacy
    /// middlebox or tunnel that rewrites the ToS byte and silently
    /// strips ECT, the classic failure RFC 9000 §13.4.2 path validation
    /// exists to catch (the flow must fall back to loss-based control).
    EcnBleach,
    /// A spurious CE mark stamped on a packet that crossed no congested
    /// queue — models a broken shaper or policer that marks everything
    /// it touches; an unvalidated ECN flow throttles toward zero there.
    EcnSpuriousCe,
}

/// Stochastic fault intensities for one link. All probabilities are
/// per-packet and independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultProfile {
    /// Probability a departing packet is silently lost on the wire.
    pub loss: f64,
    /// Probability a departing packet is corrupted (dropped at the
    /// receiving NIC, with its own counter).
    pub corrupt: f64,
    /// Probability a departing packet is jittered.
    pub jitter_prob: f64,
    /// Maximum extra propagation delay for a jittered packet; the
    /// actual extra delay is uniform in `[0, jitter_max]`.
    pub jitter_max: Time,
    /// Probability a departing packet's ECN field is bleached to
    /// Not-ECT (ToS-rewriting middlebox; see [`FaultKind::EcnBleach`]).
    pub ecn_bleach: f64,
    /// Probability a departing packet is stamped CE regardless of queue
    /// state (mark-everything mangler; see
    /// [`FaultKind::EcnSpuriousCe`]).
    pub ecn_ce: f64,
}

impl LinkFaultProfile {
    /// A profile that injects nothing.
    pub const NONE: LinkFaultProfile = LinkFaultProfile {
        loss: 0.0,
        corrupt: 0.0,
        jitter_prob: 0.0,
        jitter_max: Time::ZERO,
        ecn_bleach: 0.0,
        ecn_ce: 0.0,
    };

    /// Pure Bernoulli loss at `rate`, nothing else.
    pub fn loss(rate: f64) -> Self {
        LinkFaultProfile {
            loss: rate,
            ..LinkFaultProfile::NONE
        }
    }

    /// True when this profile can never inject a fault. The network
    /// layer skips all fault bookkeeping (including RNG draws) for
    /// quiet links, so a quiet profile is exactly "no faults".
    pub fn is_quiet(&self) -> bool {
        self.loss <= 0.0
            && self.corrupt <= 0.0
            && (self.jitter_prob <= 0.0 || self.jitter_max.is_zero())
            && self.ecn_bleach <= 0.0
            && self.ecn_ce <= 0.0
    }
}

/// One scheduled link failure: down at `down_at`, optionally back up
/// at `up_at` (a link with `up_at: None` stays dead forever).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFlap {
    /// Link index (ordering follows the simulation's link list).
    pub link: u32,
    /// When the link dies.
    pub down_at: Time,
    /// When it recovers, if ever. Must be later than `down_at`.
    pub up_at: Option<Time>,
}

/// A seeded, fully deterministic fault schedule for a whole run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for all stochastic faults. Each link derives its own
    /// stream from this via [`FaultPlan::rng_for`].
    pub seed: u64,
    /// Profile applied to links without an override.
    pub default_profile: LinkFaultProfile,
    /// Per-link profile overrides `(link, profile)`; the last matching
    /// entry wins.
    pub overrides: Vec<(u32, LinkFaultProfile)>,
    /// Timed link down/up events.
    pub flaps: Vec<LinkFlap>,
    /// How long after a link state change routing keeps using stale
    /// tables before reconverging (models failure-detection latency;
    /// zero means reconvergence in the same event instant).
    pub detection_delay: Time,
}

impl FaultPlan {
    /// A plan that injects nothing: quiet profiles, no flaps.
    /// Installing it must leave a run bit-identical to no plan at all.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_profile: LinkFaultProfile::NONE,
            overrides: Vec::new(),
            flaps: Vec::new(),
            detection_delay: Time::ZERO,
        }
    }

    /// Uniform Bernoulli loss at `rate` on every link.
    pub fn uniform_loss(seed: u64, rate: f64) -> Self {
        FaultPlan {
            default_profile: LinkFaultProfile::loss(rate),
            ..FaultPlan::quiet(seed)
        }
    }

    /// Add a flap (builder style).
    pub fn with_flap(mut self, flap: LinkFlap) -> Self {
        self.flaps.push(flap);
        self
    }

    /// Override one link's profile (builder style).
    pub fn with_profile(mut self, link: u32, profile: LinkFaultProfile) -> Self {
        self.overrides.push((link, profile));
        self
    }

    /// Set the routing failure-detection delay (builder style).
    pub fn with_detection_delay(mut self, delay: Time) -> Self {
        self.detection_delay = delay;
        self
    }

    /// The profile in force on `link`.
    pub fn profile_for(&self, link: u32) -> LinkFaultProfile {
        self.overrides
            .iter()
            .rev()
            .find(|(l, _)| *l == link)
            .map(|&(_, p)| p)
            .unwrap_or(self.default_profile)
    }

    /// The isolated random stream for `link`'s stochastic faults.
    pub fn rng_for(&self, link: u32) -> Rng {
        Rng::stream(self.seed, u64::from(link))
    }

    /// Check the flap schedule against a network of `num_links` links:
    /// every flap names a link that exists, no window ends at or before
    /// it starts, and no two windows on one link overlap (the link would
    /// have to be down twice at once). A window with `up_at: None`
    /// extends to the end of the run.
    ///
    /// # Errors
    /// A message naming the link and the offending window.
    pub fn check_flaps(&self, num_links: usize) -> Result<(), String> {
        let mut by_link: std::collections::BTreeMap<u32, Vec<(Time, Option<Time>)>> =
            std::collections::BTreeMap::new();
        for flap in &self.flaps {
            if flap.link as usize >= num_links {
                return Err(format!(
                    "flap on unknown link {} ({num_links} links exist)",
                    flap.link
                ));
            }
            if let Some(up) = flap.up_at {
                if up <= flap.down_at {
                    return Err(format!(
                        "flap window on link {} is empty or inverted: down at {:?}, up at {up:?}",
                        flap.link, flap.down_at
                    ));
                }
            }
            by_link
                .entry(flap.link)
                .or_default()
                .push((flap.down_at, flap.up_at));
        }
        for (link, mut windows) in by_link {
            windows.sort_by_key(|&(down, _)| down);
            for pair in windows.windows(2) {
                let (prev_down, prev_up) = pair[0];
                let (next_down, _) = pair[1];
                // A window that never ends overlaps everything after it.
                if prev_up.is_none_or(|up| next_down < up) {
                    let end = prev_up.map_or_else(|| "forever".to_string(), |t| format!("{t:?}"));
                    return Err(format!(
                        "overlapping flap windows on link {link}: [{prev_down:?}, {end}) and one \
                         starting at {next_down:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// True when the plan can never inject anything: every effective
    /// profile is quiet and there are no flaps.
    pub fn is_quiet(&self) -> bool {
        self.flaps.is_empty()
            && self.default_profile.is_quiet()
            && self.overrides.iter().all(|(_, p)| p.is_quiet())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_is_quiet() {
        assert!(FaultPlan::quiet(1).is_quiet());
        assert!(LinkFaultProfile::NONE.is_quiet());
        // Jitter with zero bound cannot change anything → still quiet.
        let p = LinkFaultProfile {
            jitter_prob: 1.0,
            ..LinkFaultProfile::NONE
        };
        assert!(p.is_quiet());
    }

    #[test]
    fn ecn_mangling_is_not_quiet() {
        let bleach = LinkFaultProfile {
            ecn_bleach: 0.5,
            ..LinkFaultProfile::NONE
        };
        assert!(!bleach.is_quiet());
        let spray = LinkFaultProfile {
            ecn_ce: 1.0,
            ..LinkFaultProfile::NONE
        };
        assert!(!spray.is_quiet());
    }

    #[test]
    fn loss_plan_is_not_quiet() {
        assert!(!FaultPlan::uniform_loss(1, 0.01).is_quiet());
        let with_flap = FaultPlan::quiet(1).with_flap(LinkFlap {
            link: 0,
            down_at: Time::from_ms(1),
            up_at: None,
        });
        assert!(!with_flap.is_quiet());
    }

    #[test]
    fn overrides_last_match_wins() {
        let plan = FaultPlan::quiet(1)
            .with_profile(3, LinkFaultProfile::loss(0.1))
            .with_profile(3, LinkFaultProfile::loss(0.5));
        let p = plan.profile_for(3);
        assert_eq!(p.loss, 0.5);
        assert_eq!(plan.profile_for(2), LinkFaultProfile::NONE);
    }

    #[test]
    fn per_link_rngs_are_isolated_and_stable() {
        let plan = FaultPlan::uniform_loss(42, 0.5);
        let mut a = plan.rng_for(3);
        let mut b = plan.rng_for(3);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = plan.rng_for(4);
        let mut a2 = plan.rng_for(3);
        let same = (0..64).filter(|_| a2.next_u64() == c.next_u64()).count();
        assert_eq!(same, 0, "adjacent links must have decorrelated streams");
    }
}
