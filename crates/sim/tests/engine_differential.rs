//! Differential test: the calendar-queue `EventQueue` must pop the
//! *identical* `(time, seq, event)` stream as the plain binary-heap
//! `HeapEventQueue` oracle under a long randomized workload of mixed
//! schedules, pops and clears — the proof obligation behind swapping the
//! engine's future-event list implementation.

use std::collections::BinaryHeap;

use tcn_sim::{EventEntry, EventQueue, QueueStats, Rng, Time};

/// The straightforward single-binary-heap future-event list: the
/// original `EventQueue` implementation, kept here as the *reference
/// oracle*. It carries no audit hooks — as the oracle it must stay an
/// independent, obviously-correct restatement of the ordering contract
/// (`EventEntry`'s `Ord` pops the earliest `(at, seq)` first).
#[derive(Debug, Clone)]
struct HeapEventQueue<E> {
    heap: BinaryHeap<EventEntry<E>>,
    now: Time,
    next_seq: u64,
    processed: u64,
}

impl<E> HeapEventQueue<E> {
    fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            now: Time::ZERO,
            next_seq: 0,
            processed: 0,
        }
    }

    fn now(&self) -> Time {
        self.now
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    fn schedule_at(&mut self, at: Time, event: E) {
        let seq = self.reserve_seq();
        self.schedule_at_reserved(at, seq, event);
    }

    /// Mirror of `EventQueue::reserve_seq`.
    fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Mirror of `EventQueue::schedule_at_reserved`.
    fn schedule_at_reserved(&mut self, at: Time, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
        assert!(seq < self.next_seq, "seq {seq} was never reserved");
        self.heap.push(EventEntry { at, seq, event });
    }

    fn pop(&mut self) -> Option<EventEntry<E>> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        self.processed += 1;
        Some(entry)
    }

    /// Mirror of `EventQueue::pop_until`.
    fn pop_until(&mut self, limit: Time) -> Option<EventEntry<E>> {
        if self.peek_time()? > limit {
            return None;
        }
        self.pop()
    }

    /// Mirror of `EventQueue::pop_batch_into`: every event at the next
    /// firing time, in `(at, seq)` order.
    fn pop_batch_into(&mut self, out: &mut Vec<EventEntry<E>>) -> usize {
        out.clear();
        let Some(first) = self.pop() else {
            return 0;
        };
        let at = first.at;
        out.push(first);
        while self.peek_time() == Some(at) {
            out.extend(self.pop());
        }
        out.len()
    }

    /// Mirror of `EventQueue::pop_batch_until`.
    fn pop_batch_until(&mut self, limit: Time, out: &mut Vec<EventEntry<E>>) -> usize {
        if self.peek_time().is_some_and(|t| t > limit) {
            out.clear();
            return 0;
        }
        self.pop_batch_into(out)
    }

    /// Mirror of `EventQueue::unpop_batch_tail`.
    fn unpop_batch_tail(&mut self, tail: &mut Vec<EventEntry<E>>) {
        self.processed -= tail.len() as u64;
        self.heap.extend(tail.drain(..));
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Same semantics as `EventQueue::clear`: drop every pending event
    /// and restart sequence numbering.
    fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }
}

#[test]
fn heap_queue_unpop_mirrors_engine() {
    let mut q = HeapEventQueue::new();
    let t = Time::from_us(3);
    for i in 0..6 {
        q.schedule_at(t, i);
    }
    let mut batch = Vec::new();
    assert_eq!(q.pop_batch_into(&mut batch), 6);
    let mut tail: Vec<_> = batch.drain(2..).collect();
    q.unpop_batch_tail(&mut tail);
    assert_eq!(q.processed(), 2);
    assert_eq!(q.pop_batch_into(&mut batch), 4);
    assert_eq!(
        batch.iter().map(|e| e.event).collect::<Vec<_>>(),
        vec![2, 3, 4, 5]
    );
}

#[test]
fn heap_queue_mirrors_batch_and_reservation() {
    let mut q = HeapEventQueue::new();
    let t = Time::from_us(2);
    q.schedule_at(t, "a");
    let held = q.reserve_seq();
    q.schedule_at(t, "c");
    q.schedule_at(Time::from_us(5), "d");
    q.schedule_at_reserved(t, held, "b");
    let mut batch = Vec::new();
    assert_eq!(q.pop_batch_into(&mut batch), 3);
    assert_eq!(
        batch.iter().map(|e| e.event).collect::<Vec<_>>(),
        vec!["a", "b", "c"]
    );
    assert_eq!(q.pop_batch_into(&mut batch), 1);
    assert_eq!(batch[0].event, "d");
    assert_eq!(q.pop_batch_into(&mut batch), 0);
    assert_eq!(q.processed(), 4);
}

#[test]
fn reference_heap_queue_matches_basic_contract() {
    let mut q = HeapEventQueue::new();
    q.schedule_at(Time::from_ns(30), 3);
    q.schedule_at(Time::from_ns(10), 1);
    q.schedule_at(Time::from_ns(10), 2); // FIFO at equal time
    assert_eq!(q.peek_time(), Some(Time::from_ns(10)));
    let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
    assert_eq!(order, vec![1, 2, 3]);
    assert_eq!(q.processed(), 3);
    assert_eq!(q.now(), Time::from_ns(30));
}

/// Compare the two queues' `peek_time`, then pop both and compare the
/// full entry. Returns whether there was an entry to pop.
fn assert_same_pop(
    cal: &mut EventQueue<u64>,
    heap: &mut HeapEventQueue<u64>,
    ctx: impl std::fmt::Display,
) -> bool {
    assert_eq!(cal.peek_time(), heap.peek_time(), "peek_time diverged {ctx}");
    match (cal.pop(), heap.pop()) {
        (None, None) => false,
        (Some(x), Some(y)) => {
            assert_eq!((x.at, x.seq, x.event), (y.at, y.seq, y.event), "pop diverged {ctx}");
            true
        }
        (a, b) => panic!(
            "emptiness diverged {ctx}: calendar {:?} vs heap {:?}",
            a.map(|e| e.event),
            b.map(|e| e.event)
        ),
    }
}

/// Drive both queues through `ops` randomized operations and assert the
/// pop streams match step by step. The time distribution is shaped like
/// a real DES run: mostly near-horizon offsets (within the calendar
/// ring), some same-instant bursts (exercising the FIFO tie-break), a
/// far-future tail (exercising the overflow tier and its migration), and
/// occasional `Time::MAX` saturation. Returns the calendar queue's
/// self-counters as they stood at each clear.
fn differential_run(seed: u64, ops: usize, clear_period: Option<u64>) -> Vec<QueueStats> {
    let mut at_clear = Vec::new();
    let mut cal: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut rng = Rng::new(seed);
    let mut payload = 0u64;

    for op in 0..ops as u64 {
        if let Some(p) = clear_period {
            if op > 0 && op % p == 0 {
                at_clear.push(cal.stats());
                cal.clear();
                heap.clear();
            }
        }
        let roll = rng.gen_range(100);
        if roll < 55 {
            // Schedule. Offsets: 60% near (≤ ~4 µs), 20% same-instant,
            // 15% mid (≤ ~0.5 ms), 4% far (≤ ~50 ms), 1% saturating.
            let shape = rng.gen_range(100);
            let at = if shape < 60 {
                cal.now().saturating_add(Time::from_ps(rng.gen_range(1 << 22)))
            } else if shape < 80 {
                cal.now()
            } else if shape < 95 {
                cal.now().saturating_add(Time::from_ps(rng.gen_range(1 << 29)))
            } else if shape < 99 {
                cal.now().saturating_add(Time::from_ps(rng.gen_range(1 << 36)))
            } else {
                Time::MAX
            };
            payload += 1;
            cal.schedule_at(at, payload);
            heap.schedule_at(at, payload);
        } else {
            // Saturated events wait for the final drain: popping one
            // parks the clock at `Time::MAX`, after which every schedule
            // is the same instant and no day is ever stepped again
            // (which a clear-heavy run used to do within two epochs).
            if heap.peek_time() == Some(Time::MAX) {
                continue;
            }
            assert_same_pop(&mut cal, &mut heap, format_args!("at op {op}"));
        }
        assert_eq!(cal.len(), heap.len(), "len diverged at op {op}");
    }

    // Drain both completely: every remaining entry must match too.
    while assert_same_pop(&mut cal, &mut heap, "in the final drain") {}
    at_clear
}

#[test]
fn million_mixed_ops_identical_pop_order() {
    // The headline differential: ≥ 10⁶ mixed schedule/pop/clear ops.
    differential_run(0xC0FFEE, 1_000_000, Some(200_000));
}

#[test]
fn multiple_seeds_without_clear() {
    for seed in 1..=4u64 {
        differential_run(seed, 60_000, None);
    }
}

#[test]
fn clear_heavy_workload() {
    // Frequent clears: sequence numbering restarts constantly, so any
    // clear-state desync between the implementations surfaces fast.
    let at_clear = differential_run(7, 120_000, Some(1_000));
    // `clear()` hands bucket storage back to the pool, so an epoch
    // allocates buckets only where it has more days non-empty at once
    // than any epoch before it: the count settles while the day steps
    // keep coming. Dropping the storage instead would cost every epoch
    // what the first one paid.
    let n = at_clear.len();
    let (first, mid, last) = (at_clear[0], at_clear[n / 2], at_clear[n - 1]);
    assert!(first.bucket_allocs > 0 && first.advances > 0);
    assert!(
        last.bucket_allocs - mid.bucket_allocs < first.bucket_allocs,
        "bucket allocations keep growing across clears: {first:?} … {mid:?} … {last:?}"
    );
    assert!(last.advances - mid.advances > 10 * first.advances);
}

/// One calendar day and the ring's length in days — the engine's
/// private `DAY_SHIFT` and `NUM_BUCKETS`, restated so the sparse run can
/// aim at the ring's last day and the overflow tier's first.
const DAY_PS: u64 = 1 << 20;
const RING_DAYS: u64 = 1024;

/// The sparse regime of a 1 Gbps star: at most 8 events resident and
/// hundreds of empty days between them, so every pop is a day step and
/// the occupancy scan crosses empty words and the wrap-around word.
/// Deltas of 1…3 000 days straddle the ring's horizon; some aim exactly
/// at its last day (`cur_day + 1023`) and at the overflow tier's first
/// (`cur_day + 1024`). `peek_time` is compared before every pop, and a
/// `clone()` taken mid-run must replay the oracle's stream.
fn sparse_differential_run(seed: u64, pops: usize) {
    let mut cal: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut rng = Rng::new(seed);
    let mut payload = 0u64;
    let mut saturated = 0;

    for step in 0..pops {
        // Top up to a resident count that wanders between 1 and 8. The
        // saturated events stay resident to the end, so they come on top
        // of the 1…6 that cycle (popping one mid-run would park the
        // clock at `Time::MAX`).
        let want = 1 + rng.gen_range(6) as usize + saturated;
        while cal.len() < want {
            let today = cal.now().as_ps() / DAY_PS;
            let within_day = rng.gen_range(DAY_PS);
            let shape = rng.gen_range(100);
            let at = if shape < 70 {
                let days = 1 + rng.gen_range(3_000);
                cal.now().saturating_add(Time::from_ps(days * DAY_PS + within_day))
            } else if shape < 80 {
                Time::from_ps((today + RING_DAYS - 1) * DAY_PS + within_day)
            } else if shape < 90 {
                Time::from_ps((today + RING_DAYS) * DAY_PS + within_day)
            } else if shape < 99 || saturated == 2 {
                cal.now() // same instant: FIFO tie-break
            } else {
                saturated += 1;
                Time::MAX
            };
            payload += 1;
            cal.schedule_at(at, payload);
            heap.schedule_at(at, payload);
        }
        if step == pops / 2 {
            let (mut cal_fork, mut heap_fork) = (cal.clone(), heap.clone());
            while assert_same_pop(&mut cal_fork, &mut heap_fork, "in the mid-run clone") {}
        }
        assert_same_pop(&mut cal, &mut heap, format_args!("at step {step}"));
        assert_eq!(cal.len(), heap.len(), "len diverged at step {step}");
    }
    while assert_same_pop(&mut cal, &mut heap, "in the final drain") {}
    assert_eq!(cal.now(), Time::MAX, "both saturated events were scheduled and popped");
    let stats = cal.stats();
    assert!(stats.overflow_migrated > 0 && stats.advances as usize > pops / 2, "{stats:?}");
}

#[test]
fn sparse_days_wrap_and_ring_edge_match_oracle() {
    for seed in [0x5A25E, 2, 3] {
        sparse_differential_run(seed, 40_000);
    }
}

/// The batched-drain differential: the same shaped workload as
/// `differential_run`, but popping through `pop_batch_into` on both
/// implementations, with a slice of schedules going through the
/// reserve/fill path. Every batch must match entry-for-entry, and the
/// merged streams must equal each other.
fn batch_differential_run(seed: u64, ops: usize, clear_period: Option<u64>) {
    let mut cal: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut rng = Rng::new(seed);
    let mut payload = 0u64;
    let mut held: Vec<(u64, Time)> = Vec::new(); // (reserved seq, deadline)
    let mut cal_batch = Vec::new();
    let mut heap_batch = Vec::new();

    for op in 0..ops as u64 {
        if let Some(p) = clear_period {
            if op > 0 && op % p == 0 {
                cal.clear();
                heap.clear();
                held.clear(); // reservations die with the epoch
            }
        }
        let roll = rng.gen_range(100);
        if roll < 45 {
            let shape = rng.gen_range(100);
            let at = if shape < 60 {
                cal.now().saturating_add(Time::from_ps(rng.gen_range(1 << 22)))
            } else if shape < 80 {
                cal.now()
            } else if shape < 96 {
                cal.now().saturating_add(Time::from_ps(rng.gen_range(1 << 29)))
            } else {
                cal.now().saturating_add(Time::from_ps(rng.gen_range(1 << 36)))
            };
            payload += 1;
            cal.schedule_at(at, payload);
            heap.schedule_at(at, payload);
        } else if roll < 55 {
            // Reserve now, fill later (the port-coalescing pattern).
            let seq = cal.reserve_seq();
            assert_eq!(seq, heap.reserve_seq(), "seq allocation diverged at op {op}");
            let deadline = cal
                .now()
                .saturating_add(Time::from_ps(rng.gen_range(1 << 24) + 1));
            if rng.gen_range(10) < 8 {
                held.push((seq, deadline));
            } // else: abandoned reservation — a permanent gap
        } else {
            // Fill any reservations whose deadline is still in the
            // future relative to both clocks, then batch-pop.
            while let Some((seq, at)) = held.pop() {
                if at >= cal.now() {
                    payload += 1;
                    cal.schedule_at_reserved(at, seq, payload);
                    heap.schedule_at_reserved(at, seq, payload);
                }
            }
            let na = cal.pop_batch_into(&mut cal_batch);
            let nb = heap.pop_batch_into(&mut heap_batch);
            assert_eq!(na, nb, "batch size diverged at op {op}");
            for (x, y) in cal_batch.iter().zip(heap_batch.iter()) {
                assert_eq!(
                    (x.at, x.seq, x.event),
                    (y.at, y.seq, y.event),
                    "batch entry diverged at op {op}"
                );
            }
            // Stale reservations (deadline now in the past) are dropped:
            // both queues skipped them identically, so seq gaps agree.
        }
        assert_eq!(cal.len(), heap.len(), "len diverged at op {op}");
        assert_eq!(cal.now(), heap.now(), "clock diverged at op {op}");
    }

    loop {
        let na = cal.pop_batch_into(&mut cal_batch);
        let nb = heap.pop_batch_into(&mut heap_batch);
        assert_eq!(na, nb, "drain batch size diverged");
        if na == 0 {
            break;
        }
        for (x, y) in cal_batch.iter().zip(heap_batch.iter()) {
            assert_eq!((x.at, x.seq, x.event), (y.at, y.seq, y.event));
        }
    }
}

#[test]
fn batched_drain_matches_oracle_across_seeds() {
    for seed in 0xBA7C4..0xBA7C4 + 4 {
        batch_differential_run(seed, 60_000, None);
    }
}

#[test]
fn batched_drain_with_clears_matches_oracle() {
    batch_differential_run(0xD15BA7C4, 200_000, Some(20_000));
}

/// Ties across the open day's sorted run and its side heap. Every
/// instant is one of eight per day, so schedules into the open day keep
/// landing on instants its run already holds: fresh schedules tie there
/// with higher seqs, reservations filled there with lower ones, and
/// batch tails handed back by `unpop_batch_tail` join a run that still
/// holds the day's later instants. Pops go through `pop_until` and
/// `pop_batch_until` with limits that often stop short of the next event.
fn current_day_ties_run(seed: u64, ops: usize) {
    const SLOT_PS: u64 = DAY_PS / 8;
    let mut cal: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut rng = Rng::new(seed);
    let mut payload = 0u64;
    let mut held: Vec<u64> = Vec::new(); // reserved, not yet filled
    let mut cal_batch = Vec::new();
    let mut heap_batch = Vec::new();
    // A grid instant `days` after the clock's day, never before the clock.
    let grid = |now: Time, rng: &mut Rng, days: u64| {
        let day = now.as_ps() / DAY_PS + days;
        Time::from_ps(day * DAY_PS + rng.gen_range(8) * SLOT_PS).max(now)
    };

    for op in 0..ops as u64 {
        let now = cal.now();
        let roll = rng.gen_range(100);
        if roll < 40 {
            // Mostly into the open day, some into the next two.
            let days = rng.gen_range(5).saturating_sub(2);
            let at = grid(now, &mut rng, days);
            payload += 1;
            cal.schedule_at(at, payload);
            heap.schedule_at(at, payload);
        } else if roll < 50 {
            let seq = cal.reserve_seq();
            assert_eq!(seq, heap.reserve_seq(), "seq allocation diverged at op {op}");
            held.push(seq);
        } else if roll < 60 {
            // Fill strictly after the clock (a seq older than entries
            // already popped at `now` would be a FIFO inversion there),
            // else abandon the reservation: a harmless gap.
            let days = rng.gen_range(2);
            let at = grid(now, &mut rng, days);
            if let Some(seq) = held.pop().filter(|_| at > now) {
                payload += 1;
                cal.schedule_at_reserved(at, seq, payload);
                heap.schedule_at_reserved(at, seq, payload);
            }
        } else if roll < 80 {
            let limit = now.saturating_add(Time::from_ps(rng.gen_range(2 * DAY_PS)));
            let (x, y) = (cal.pop_until(limit), heap.pop_until(limit));
            assert_eq!(
                x.map(|e| (e.at, e.seq, e.event)),
                y.map(|e| (e.at, e.seq, e.event)),
                "pop_until diverged at op {op}"
            );
        } else {
            let limit = now.saturating_add(Time::from_ps(rng.gen_range(2 * DAY_PS)));
            let n = cal.pop_batch_until(limit, &mut cal_batch);
            heap.pop_batch_until(limit, &mut heap_batch);
            let key = |b: &[EventEntry<u64>]| b.iter().map(|e| (e.at, e.seq, e.event)).collect::<Vec<_>>();
            assert_eq!(key(&cal_batch), key(&heap_batch), "batch diverged at op {op}");
            if n > 1 && rng.gen_range(2) == 0 {
                // A run loop stopped mid-batch: the dispatched head
                // scheduled a little at this instant, the rest goes back.
                for _ in 0..rng.gen_range(3) {
                    payload += 1;
                    cal.schedule_at(cal.now(), payload);
                    heap.schedule_at(cal.now(), payload);
                }
                let k = 1 + rng.gen_range(n as u64 - 1) as usize;
                cal.unpop_batch_tail(&mut cal_batch.split_off(k));
                heap.unpop_batch_tail(&mut heap_batch.split_off(k));
            }
        }
        assert_eq!(cal.len(), heap.len(), "len diverged at op {op}");
        assert_eq!(cal.now(), heap.now(), "clock diverged at op {op}");
        assert_eq!(cal.processed(), heap.processed(), "processed diverged at op {op}");
    }
    while assert_same_pop(&mut cal, &mut heap, "in the final drain") {}
    let stats = cal.stats();
    assert!(stats.late_pushes > stats.advances, "{stats:?}");
}

#[test]
fn current_day_ties_cross_run_and_side_heap() {
    for seed in [0x7135, 8, 9] {
        current_day_ties_run(seed, 60_000);
    }
}

#[test]
fn overflow_heavy_workload() {
    // Bias the schedule far beyond the ring horizon so the overflow
    // tier and its migration dominate.
    let mut cal: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut rng = Rng::new(99);
    for i in 0..50_000u64 {
        if rng.gen_range(3) < 2 {
            // ~2/3 schedules far out (up to ~1.1 s ahead).
            let at = cal.now().saturating_add(Time::from_ps(rng.gen_range(1 << 40)));
            cal.schedule_at(at, i);
            heap.schedule_at(at, i);
        } else {
            assert_same_pop(&mut cal, &mut heap, format_args!("at op {i}"));
        }
    }
    while assert_same_pop(&mut cal, &mut heap, "in the final drain") {}
}
