//! A liveness watchdog for the event loop, judged purely in **simulated**
//! terms — no wall clocks (see the `no-wallclock` lint): a run is stalled
//! when it dispatches many events without the virtual clock advancing,
//! and runaway when its total event count exceeds an absolute budget
//! (e.g. a retransmission storm that will never drain).
//!
//! The watchdog is installed per cell by the experiment harness
//! ([`crate::NetworkSim::set_watchdog`] /
//! `NetworkBuilder::watchdog`); when it trips, the run loop returns
//! [`TcnError::Stall`] carrying a [`StallReport`] with the current sim
//! time, event-queue depth and the most frequent event kinds — instead
//! of hanging the worker pool forever.

use tcn_core::{StallReport, TcnError};
use tcn_sim::Time;

/// Number of distinct event kinds tracked (see `Event::kind_index`).
pub(crate) const NUM_EVENT_KINDS: usize = 10;

/// Display names for event kinds, indexed by `Event::kind_index`.
pub(crate) const EVENT_KIND_NAMES: [&str; NUM_EVENT_KINDS] = [
    "flow_start",
    "arrive",
    "arrive_corrupt",
    "tx_done",
    "timer",
    "probe_tick",
    "link_down",
    "link_up",
    "reconverge",
    "mutation",
];

/// How many top event kinds a [`StallReport`] lists.
const TOP_KINDS: usize = 3;

/// Event-budget liveness guard over a [`crate::NetworkSim`] run.
///
/// Two budgets:
/// * **stall budget** — maximum events dispatched at a single simulated
///   instant; exceeded means the loop is spinning without progress
///   (e.g. a scheduler ping-ponging zero-delay events);
/// * **total budget** (optional) — absolute cap on events for the whole
///   run; exceeded means the run is runaway even though time advances.
#[derive(Debug, Clone)]
pub struct Watchdog {
    stall_budget: u64,
    total_budget: Option<u64>,
    last_time: Time,
    total: u64,
    /// Event kinds dispatched over the whole run.
    total_kinds: [u64; NUM_EVENT_KINDS],
    /// `total` and `total_kinds` as they stood when the clock last
    /// advanced: the events since then are the difference.
    total_at_advance: u64,
    kinds_at_advance: [u64; NUM_EVENT_KINDS],
}

impl Watchdog {
    /// A watchdog allowing at most `stall_budget` events at one simulated
    /// instant and no limit on total events.
    ///
    /// # Panics
    /// Panics if `stall_budget` is zero (every instant dispatches at
    /// least one event).
    pub fn new(stall_budget: u64) -> Self {
        assert!(stall_budget > 0, "stall budget must be positive");
        Watchdog {
            stall_budget,
            total_budget: None,
            last_time: Time::ZERO,
            total: 0,
            total_kinds: [0; NUM_EVENT_KINDS],
            total_at_advance: 0,
            kinds_at_advance: [0; NUM_EVENT_KINDS],
        }
    }

    /// Additionally cap the total events of the run (runaway guard).
    ///
    /// # Panics
    /// Panics if `total_budget` is zero.
    pub fn with_total_budget(mut self, total_budget: u64) -> Self {
        assert!(total_budget > 0, "total budget must be positive");
        self.total_budget = Some(total_budget);
        self
    }

    /// The configured stall budget.
    pub fn stall_budget(&self) -> u64 {
        self.stall_budget
    }

    /// The configured total budget, if any.
    pub fn total_budget(&self) -> Option<u64> {
        self.total_budget
    }

    /// Account one dispatched event of kind `kind` at simulated time
    /// `now`; `queue_depth`/`processed` flow into the report if the
    /// watchdog trips.
    ///
    /// # Errors
    /// [`TcnError::Stall`] when a budget is exceeded.
    pub(crate) fn observe(
        &mut self,
        now: Time,
        kind: usize,
        queue_depth: usize,
        processed: u64,
    ) -> Result<(), TcnError> {
        self.observe_batch(now, [kind], queue_depth, processed)
    }

    /// Account a whole same-instant batch of events at once — the
    /// batched run loop's amortized equivalent of per-event
    /// [`observe`](Self::observe). `kinds` yields each event's kind
    /// (indexed like [`EVENT_KIND_NAMES`]), counted straight into the
    /// run totals; the per-instant counts are the totals minus a
    /// snapshot taken when the clock last advanced. Repeated batches at
    /// one instant keep accumulating toward the stall budget, exactly
    /// like repeated single events would.
    ///
    /// Budgets are checked once per batch, so a trip can be reported up
    /// to one batch later than the per-event path would, and a batch
    /// tail the run loop hands back via `unpop_batch_tail` is counted
    /// again when re-dispatched. Both shift error-path diagnostics
    /// only; successful runs never observe the difference.
    ///
    /// # Errors
    /// [`TcnError::Stall`] when a budget is exceeded.
    pub(crate) fn observe_batch(
        &mut self,
        now: Time,
        kinds: impl IntoIterator<Item = usize>,
        queue_depth: usize,
        processed: u64,
    ) -> Result<(), TcnError> {
        if now > self.last_time {
            self.last_time = now;
            self.total_at_advance = self.total;
            self.kinds_at_advance = self.total_kinds;
        }
        for kind in kinds {
            self.total_kinds[kind] += 1;
            self.total += 1;
        }
        if self.since_advance() > self.stall_budget {
            return Err(TcnError::Stall(self.report(
                now,
                queue_depth,
                processed,
                false,
                self.stall_budget,
            )));
        }
        if let Some(budget) = self.total_budget {
            if self.total > budget {
                return Err(TcnError::Stall(self.report(
                    now,
                    queue_depth,
                    processed,
                    true,
                    budget,
                )));
            }
        }
        Ok(())
    }

    /// Events dispatched since the clock last advanced.
    fn since_advance(&self) -> u64 {
        self.total - self.total_at_advance
    }

    fn report(
        &self,
        now: Time,
        queue_depth: usize,
        processed: u64,
        runaway: bool,
        budget: u64,
    ) -> StallReport {
        let base = if runaway { [0; NUM_EVENT_KINDS] } else { self.kinds_at_advance };
        let mut ranked: Vec<(String, u64)> = (0..NUM_EVENT_KINDS)
            .map(|i| (EVENT_KIND_NAMES[i], self.total_kinds[i] - base[i]))
            .filter(|&(_, n)| n > 0)
            .map(|(name, n)| (name.to_string(), n))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(TOP_KINDS);
        StallReport {
            sim_time: now,
            queue_depth,
            events_processed: processed,
            events_since_advance: self.since_advance(),
            budget,
            runaway,
            top_events: ranked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_on_events_at_one_instant() {
        let mut wd = Watchdog::new(3);
        let t = Time::from_us(5);
        for _ in 0..3 {
            wd.observe(t, 4, 10, 100).expect("within budget");
        }
        let err = wd.observe(t, 4, 10, 104).expect_err("budget exceeded");
        match err {
            TcnError::Stall(r) => {
                assert!(!r.runaway);
                assert_eq!(r.budget, 3);
                assert_eq!(r.events_since_advance, 4);
                assert_eq!(r.top_events, vec![("timer".into(), 4)]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn clock_advance_resets_stall_counter() {
        let mut wd = Watchdog::new(2);
        for i in 0..100u64 {
            // Time advances every event: never trips.
            wd.observe(Time::from_ps(i + 1), 1, 0, i).expect("progressing");
        }
    }

    #[test]
    fn total_budget_catches_runaway_with_advancing_clock() {
        let mut wd = Watchdog::new(10).with_total_budget(5);
        for i in 0..5u64 {
            wd.observe(Time::from_ps(i + 1), 3, 0, i).expect("within budget");
        }
        let err = wd
            .observe(Time::from_ps(100), 3, 0, 6)
            .expect_err("total budget exceeded");
        match err {
            TcnError::Stall(r) => {
                assert!(r.runaway);
                assert_eq!(r.budget, 5);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn batch_observation_matches_per_event_accounting() {
        // Feeding the same events as one batch or one at a time must
        // leave both watchdogs in the same state (same budgets left).
        let mut per_event = Watchdog::new(10);
        let mut batched = Watchdog::new(10);
        let t = Time::from_us(3);
        let kinds = [1, 1, 1, 1, 3, 3, 3]; // 4 arrive, 3 tx_done
        for &k in &kinds {
            per_event.observe(t, k, 5, 0).expect("ok");
        }
        batched.observe_batch(t, kinds, 5, 0).expect("ok");
        assert_eq!(per_event.since_advance(), batched.since_advance());
        assert_eq!(per_event.total, batched.total);
        assert_eq!(per_event.total_kinds, batched.total_kinds);
        // Both trip on the same marginal load at the same instant:
        // 7 accounted + 4 more exceeds the budget of 10 either way.
        for _ in 0..3 {
            per_event.observe(t, 4, 5, 7).expect("within budget");
        }
        per_event.observe(t, 4, 5, 8).expect_err("over stall budget");
        batched
            .observe_batch(t, [4; 4], 5, 8)
            .expect_err("over stall budget");
    }

    #[test]
    fn stall_over_several_mixed_batches_reports_like_per_event() {
        // Earlier instants leave run totals behind, so the stall counts
        // come from subtracting the snapshot taken at the last advance.
        let warm_up: [(u64, &[usize]); 3] = [(1, &[0, 1, 1]), (2, &[3, 4]), (3, &[1, 3, 3, 9])];
        let stall: [&[usize]; 3] = [&[1, 3, 1], &[4, 3, 3, 5], &[1, 3, 6]];
        let t = Time::from_us(4);
        let outcome = |batched: bool, stall_budget: u64, total_budget: Option<u64>| {
            let mut wd = Watchdog::new(stall_budget);
            if let Some(b) = total_budget {
                wd = wd.with_total_budget(b);
            }
            for &(us, kinds) in &warm_up {
                wd.observe_batch(Time::from_us(us), kinds.iter().copied(), 0, 0)
                    .expect("advancing");
            }
            let mut result = Ok(());
            for (i, kinds) in stall.iter().enumerate() {
                result = if batched {
                    wd.observe_batch(t, kinds.iter().copied(), 3, i as u64)
                } else {
                    kinds
                        .iter()
                        .try_for_each(|&k| wd.observe(t, k, 3, i as u64))
                };
                assert_eq!(result.is_ok(), i < 2, "trips on the last event, batch {i}");
            }
            match result {
                Err(TcnError::Stall(r)) => r,
                other => panic!("expected a stall, got {other:?}"),
            }
        };
        // Ten events at one instant against a stall budget of nine.
        let stalled = outcome(true, 9, None);
        assert_eq!(stalled, outcome(false, 9, None));
        assert_eq!((stalled.events_since_advance, stalled.runaway), (10, false));
        assert_eq!(
            stalled.top_events,
            vec![("tx_done".into(), 4), ("arrive".into(), 3), ("link_down".into(), 1)]
        );
        // Nineteen events over the run against a total budget of 18.
        let runaway = outcome(true, 100, Some(18));
        assert_eq!(runaway, outcome(false, 100, Some(18)));
        assert_eq!((runaway.events_since_advance, runaway.runaway), (10, true));
        assert_eq!(
            runaway.top_events,
            vec![("tx_done".into(), 7), ("arrive".into(), 6), ("timer".into(), 2)]
        );
    }

    #[test]
    fn batch_observation_resets_on_clock_advance() {
        let mut wd = Watchdog::new(5);
        let kinds = [1; 4];
        for i in 0..100u64 {
            // Four events per instant, advancing every batch: never trips.
            wd.observe_batch(Time::from_ps(i + 1), kinds, 0, i)
                .expect("progressing");
        }
        // Two same-instant batches accumulate: 4 + 4 > 5 trips.
        wd.observe_batch(Time::from_ns(1), kinds, 0, 400).expect("first");
        let err = wd
            .observe_batch(Time::from_ns(1), kinds, 0, 404)
            .expect_err("second batch at one instant exceeds the budget");
        match err {
            TcnError::Stall(r) => {
                assert!(!r.runaway);
                assert_eq!(r.events_since_advance, 8);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut wd = Watchdog::new(1).with_total_budget(1);
        for _ in 0..10 {
            wd.observe_batch(Time::from_us(1), [], 0, 0).expect("no-op");
        }
    }

    #[test]
    fn top_events_ranked_most_frequent_first() {
        let mut wd = Watchdog::new(100);
        let t = Time::from_us(1);
        for _ in 0..7 {
            wd.observe(t, 1, 0, 0).expect("ok"); // arrive
        }
        for _ in 0..9 {
            wd.observe(t, 3, 0, 0).expect("ok"); // tx_done
        }
        for _ in 0..2 {
            wd.observe(t, 4, 0, 0).expect("ok"); // timer
        }
        let r = wd.report(t, 0, 18, false, 100);
        assert_eq!(
            r.top_events,
            vec![
                ("tx_done".into(), 9),
                ("arrive".into(), 7),
                ("timer".into(), 2)
            ]
        );
    }
}
