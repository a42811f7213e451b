//! The future-event list at the heart of the discrete-event engine.
//!
//! [`EventQueue`] is deliberately small: it owns the clock and the
//! pending `(time, seq, event)` entries. The *dispatch* of events — who
//! handles a packet arrival, a timer, a flow start — belongs to the domain
//! layers (`tcn-net`, `tcn-transport`); keeping the engine generic lets
//! each layer define its own event enum while sharing one battle-tested
//! ordering discipline.
//!
//! Ordering guarantees:
//!
//! * events pop in non-decreasing time order;
//! * two events scheduled for the same instant pop in the order they were
//!   scheduled (FIFO tie-break via a monotonically increasing sequence
//!   number), which is what makes whole-simulation runs reproducible.
//!
//! # Internal structure: a calendar queue
//!
//! DES workloads are dominated by *near-horizon* events: packet
//! serialization completions and arrivals a few microseconds out, with a
//! thin tail of far-future RTO timers. A single binary heap pays an
//! `O(log n)` comparison cascade (and moves whole entries on every sift)
//! for all of them. [`EventQueue`] instead keeps three tiers, a classic
//! calendar / bucketed future-event list (Brown's calendar queue, as used
//! by ns-2's scheduler):
//!
//! * **active** — the events of the *current day* (a day is a fixed
//!   `2^20` ps ≈ 1 µs slice of simulated time), in two parts. When a day
//!   becomes current its bucket is sorted once, earliest entry last, into
//!   the **run**, and pops take the run's last entry. Entries scheduled
//!   into the day after that go to a small **side heap**; every pop
//!   takes the earlier of the two heads.
//! * **ring** — `NUM_BUCKETS` unsorted buckets covering the next
//!   `NUM_BUCKETS` days. Scheduling into the ring is an `O(1)` push; a
//!   bucket is sorted wholesale only when its day becomes
//!   current. A `NUM_BUCKETS`-bit occupancy bitmap (one bit per slot)
//!   lets the queue jump over empty days: the next non-empty day is a
//!   circular `trailing_zeros` scan of at most `NUM_BUCKETS / 64` words.
//! * **overflow** — a binary heap for events beyond the ring's horizon
//!   (far-future timers; rare). Whenever the current day advances, any
//!   overflow events that fell inside the new window migrate into the
//!   ring.
//!
//! The tiers are disjoint in time — the current day < every ring day <
//! every overflow day — so the earliest pending event is always at the
//! head of the run or the side heap after a (possibly empty) advance
//! step, and the global
//! `(time, seq)` order is exactly the one the plain heap produces. That
//! equivalence is enforced by a 10⁶-operation randomized differential
//! test against a plain binary-heap oracle (`tests/engine_differential.rs`).
//!
//! # Stepping to the next day allocates nothing
//!
//! On 1 Gbps links a day holds less than one event, so the day step is
//! paid per *event* and must touch neither a tree nor the allocator.
//! Bucket storage is therefore recycled: a slot whose bit is clear holds
//! a capacity-less `Vec`; when its bit goes 0→1 it takes a spare from a
//! LIFO **pool** of emptied `Vec`s (a pool miss is the only allocating
//! path, counted as [`QueueStats::bucket_allocs`]); when its day becomes
//! current the bucket is sorted *in place* and becomes the run, and the
//! drained run's storage goes back to the pool.
//!
//! * Why a pool and not swapping the drained storage straight into the
//!   vacated slot: a swap leaves capacity behind in every slot a day
//!   ever used, so it spreads over all `NUM_BUCKETS` slots (+27 % peak
//!   RSS on the 144-host fabric). The pool keeps only as many `Vec`s
//!   alive as there are simultaneously non-empty days.
//! * Why the advance stays *lazy* (on the pop that finds the current day
//!   empty, not as soon as it drains): an eager advance moves `cur_day`
//!   to the first scheduled event while earlier ones are still being
//!   added, so they all pile into the side heap — slower set-up, more
//!   RSS, and slower dense batches. For the same reason
//!   [`EventQueue::pop_until`] and [`EventQueue::pop_batch_until`] never
//!   open a day that starts after their limit.
//! * Why a sorted run and not a heap for the current day: most of a
//!   day's entries are scheduled before it opens, so one
//!   `sort_unstable` (insertion sort at the usual handful of entries)
//!   and `Vec::pop` replace a heapify and a sift-down per pop. The
//!   pop order is still exactly `(time, seq)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tcn_telemetry::{Event as TelemetryEvent, Probe};

use crate::time::Time;

/// A scheduled event: the payload plus its firing time and tie-break
/// sequence number.
#[derive(Debug, Clone)]
pub struct EventEntry<E> {
    /// Absolute firing time.
    pub at: Time,
    /// Insertion sequence number; the FIFO tie-break at equal times.
    pub seq: u64,
    /// Caller-defined payload.
    pub event: E,
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for EventEntry<E> {}

impl<E> PartialOrd for EventEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for EventEntry<E> {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the *earliest*
    /// entry first, and an ascending sort puts it last.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Width of one calendar day as a power of two of picoseconds:
/// `2^20` ps ≈ 1.05 µs, on the order of one 1500 B serialization at
/// 10 Gbps — so a day holds a handful of events under paper-scale load.
const DAY_SHIFT: u32 = 20;

/// Days covered by the bucket ring ahead of the current day. With
/// `DAY_SHIFT = 20` the ring spans ≈ 1.07 ms of simulated time: every
/// packet-timescale event lands in `O(1)` buckets, while millisecond RTO
/// timers take the (rare) overflow path.
const NUM_BUCKETS: usize = 1024;

/// Default pop-count stride between telemetry `Tick` events: frequent
/// enough to chart engine progress, sparse enough that a multi-million
/// event run emits thousands — not millions — of ticks.
const DEFAULT_TICK_INTERVAL: u64 = 4096;

/// Words in the ring's occupancy bitmap (one bit per bucket slot).
const OCC_WORDS: usize = NUM_BUCKETS / 64;

#[inline(always)]
fn day_of(at: Time) -> u64 {
    at.as_ps() >> DAY_SHIFT
}

/// Earliest non-empty ring day after `cur_day`, from the occupancy
/// bitmap alone. Ring days lie in `(cur_day, cur_day + NUM_BUCKETS)` and
/// slot `day % NUM_BUCKETS` holds day `day`, so slots in circular order
/// starting at `cur_day + 1`'s are days in increasing order: scan the
/// start word from its start bit up, the other words in turn, and last
/// the start word's low bits (the days that wrapped around the ring).
fn first_ring_day(occupied: &[u64; OCC_WORDS], cur_day: u64) -> Option<u64> {
    let start = ((cur_day + 1) % NUM_BUCKETS as u64) as usize;
    let (w0, b0) = (start / 64, start % 64);
    let at_or_above = !0u64 << b0;
    let day_of_lowest = |word: usize, bits: u64| {
        let slot = word * 64 + bits.trailing_zeros() as usize;
        let ahead = (slot + NUM_BUCKETS - start) % NUM_BUCKETS;
        cur_day + 1 + ahead as u64
    };
    let high = occupied[w0] & at_or_above;
    if high != 0 {
        return Some(day_of_lowest(w0, high));
    }
    for i in 1..OCC_WORDS {
        let w = (w0 + i) % OCC_WORDS;
        if occupied[w] != 0 {
            return Some(day_of_lowest(w, occupied[w]));
        }
    }
    let wrapped = occupied[w0] & !at_or_above;
    (wrapped != 0).then(|| day_of_lowest(w0, wrapped))
}

/// Self-counters of an [`EventQueue`]: how often it stepped days, and
/// what that cost the allocator and the slow tiers. Plain increments on
/// paths that already write the queue; deterministic for a given
/// schedule/pop sequence, so they are comparable across hosts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Day steps: refills of the current day from the ring or overflow.
    pub advances: u64,
    /// Ring buckets that went non-empty with no pooled spare to take —
    /// the only allocating path of the day step. Stops growing once the
    /// pool has seen the run's peak of simultaneously non-empty days.
    pub bucket_allocs: u64,
    /// Most spare bucket `Vec`s the pool ever held.
    pub pool_high_water: u64,
    /// Events scheduled beyond the ring's horizon.
    pub overflow_pushes: u64,
    /// Overflow events pulled back into the ring (or the current day) as
    /// the window advanced over them.
    pub overflow_migrated: u64,
    /// Most events the current day ever held (run plus side heap).
    pub active_high_water: u64,
    /// Entries pushed into the side heap: scheduled into the day after
    /// it opened, or handed back by
    /// [`unpop_batch_tail`](EventQueue::unpop_batch_tail).
    pub late_pushes: u64,
}

/// A future-event list with a monotonic clock.
///
/// ```
/// use tcn_sim::{EventQueue, Time};
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.schedule_at(Time::from_us(5), "second");
/// q.schedule_at(Time::from_us(1), "first");
/// q.schedule_at(Time::from_us(5), "third"); // same time: FIFO order
///
/// assert_eq!(q.pop().unwrap().event, "first");
/// assert_eq!(q.now(), Time::from_us(1));
/// assert_eq!(q.pop().unwrap().event, "second");
/// assert_eq!(q.pop().unwrap().event, "third");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The current day's events as they stood when it opened, sorted
    /// with the earliest last; [`EventQueue::advance`] refills it from
    /// the ring/overflow.
    run: Vec<EventEntry<E>>,
    /// Events inserted into the current day after it opened. Every pop
    /// takes the earlier of this heap's top and the run's last entry.
    late: BinaryHeap<EventEntry<E>>,
    /// The bucket ring: unsorted per-day buckets for days in
    /// `(cur_day, cur_day + NUM_BUCKETS)`, indexed by `day % NUM_BUCKETS`.
    /// A slot whose occupancy bit is clear holds a capacity-less `Vec`.
    buckets: Vec<Vec<EventEntry<E>>>,
    /// Bit `s` set ⇔ `buckets[s]` is non-empty; see [`first_ring_day`].
    occupied: [u64; OCC_WORDS],
    /// Emptied bucket `Vec`s awaiting reuse, most recently drained last.
    pool: Vec<Vec<EventEntry<E>>>,
    /// Events at or beyond `cur_day + NUM_BUCKETS`, heap-ordered.
    overflow: BinaryHeap<EventEntry<E>>,
    /// The day the run and the side heap serve.
    cur_day: u64,
    /// Total entries across all three tiers.
    pending: usize,
    now: Time,
    next_seq: u64,
    processed: u64,
    /// Invariant checker (no-op unless auditing is active): every pop is
    /// replayed through `tcn_audit::ClockAudit`, which independently
    /// re-verifies monotonicity and the FIFO tie-break rather than
    /// trusting the calendar structure's ordering argument.
    clock_audit: tcn_audit::ClockAudit,
    /// Telemetry probe: off (a single branch per sampled pop) unless a
    /// `tcn_telemetry::Telemetry` bus is installed.
    probe: Probe,
    /// Pops between telemetry `Tick` emissions.
    tick_interval: u64,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            run: Vec::new(),
            late: BinaryHeap::new(),
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; OCC_WORDS],
            pool: Vec::new(),
            overflow: BinaryHeap::new(),
            cur_day: 0,
            pending: 0,
            now: Time::ZERO,
            next_seq: 0,
            processed: 0,
            clock_audit: tcn_audit::ClockAudit::new(),
            probe: Probe::off(),
            tick_interval: DEFAULT_TICK_INTERVAL,
            stats: QueueStats::default(),
        }
    }

    /// Install a telemetry probe: every `tick_interval`-th pop emits a
    /// [`TelemetryEvent::Tick`], and [`EventQueue::clear`] epoch-resets
    /// the attached bus. Installing [`Probe::off`] uninstalls.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The installed probe (off by default). Domain layers driving this
    /// queue clone it to scope their own component probes.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Override the pop-count stride between telemetry ticks.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn set_tick_interval(&mut self, every: u64) {
        assert!(every > 0, "tick interval must be positive");
        self.tick_interval = every;
    }

    /// Current simulated time: the firing time of the last popped event.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events popped so far (for progress and performance
    /// reporting).
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The queue's self-counters since construction ([`clear`](Self::clear)
    /// does not reset them).
    #[inline]
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Schedule `event` at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling into the past is always
    /// a simulation bug, and failing loudly beats silently reordering
    /// history.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
        self.clock_audit.on_schedule(at.as_ps(), self.now.as_ps());
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(EventEntry { at, seq, event });
    }

    /// Schedule `event` after a relative delay from `now()`.
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        let at = self.now.saturating_add(delay);
        self.schedule_at(at, event);
    }

    /// Consume and return the next tie-break sequence number *without*
    /// scheduling anything.
    ///
    /// This is the coalescing primitive: a caller that used to schedule
    /// an event eagerly, but now wants to defer (or elide) it, reserves
    /// the sequence number the eager schedule would have taken. Any
    /// event scheduled through it later with
    /// [`schedule_at_reserved`](Self::schedule_at_reserved) then
    /// occupies exactly the same position in every same-instant
    /// tie-break as the eager schedule would have — which is what keeps
    /// coalesced runs byte-identical to uncoalesced ones. A reservation
    /// that is never used simply leaves a gap in the sequence space
    /// (gaps are fine; only relative order matters).
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `at` under a sequence number previously
    /// obtained from [`reserve_seq`](Self::reserve_seq).
    ///
    /// # Panics
    /// Panics if `at` is in the past or `seq` was never reserved.
    pub fn schedule_at_reserved(&mut self, at: Time, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
        assert!(
            seq < self.next_seq,
            "seq {seq} was never reserved (next_seq {})",
            self.next_seq
        );
        self.clock_audit.on_schedule(at.as_ps(), self.now.as_ps());
        self.insert(EventEntry { at, seq, event });
    }

    /// Place an entry into the tier its day selects. `day <= cur_day`
    /// means the open day — or a day between the clock and it, when
    /// [`pop_until`](Self::pop_until) opened its limit's day without
    /// popping — so the entry precedes every ring and overflow entry,
    /// and the side heap orders it against the run.
    fn insert(&mut self, entry: EventEntry<E>) {
        self.pending += 1;
        let day = day_of(entry.at);
        if day <= self.cur_day {
            self.stats.late_pushes += 1;
            self.late.push(entry);
            self.note_active_len();
        } else if day < self.cur_day + NUM_BUCKETS as u64 {
            let slot = (day % NUM_BUCKETS as u64) as usize;
            let (word, bit) = (slot / 64, 1u64 << (slot % 64));
            if self.occupied[word] & bit == 0 {
                self.occupied[word] |= bit;
                match self.pool.pop() {
                    Some(spare) => self.buckets[slot] = spare,
                    None => self.stats.bucket_allocs += 1,
                }
            }
            self.buckets[slot].push(entry);
        } else {
            self.stats.overflow_pushes += 1;
            self.overflow.push(entry);
        }
    }

    #[inline]
    fn note_active_len(&mut self) {
        let len = (self.run.len() + self.late.len()) as u64;
        if len > self.stats.active_high_water {
            self.stats.active_high_water = len;
        }
    }

    /// Hand an emptied bucket's storage to the pool.
    fn recycle(&mut self, spare: Vec<EventEntry<E>>) {
        debug_assert!(spare.is_empty());
        if spare.capacity() > 0 {
            self.pool.push(spare);
            let held = self.pool.len() as u64;
            if held > self.stats.pool_high_water {
                self.stats.pool_high_water = held;
            }
        }
    }

    /// Open the next non-empty day (ring first — its days always precede
    /// overflow days — then overflow) unless it starts after `limit_day`:
    /// its bucket becomes the run, the overflow events the advanced
    /// window now covers migrate, and the run is sorted. Returns whether
    /// a day was opened. Only called with the current day drained.
    fn advance(&mut self, limit_day: u64) -> bool {
        debug_assert!(self.run.is_empty() && self.late.is_empty());
        let ring_day = first_ring_day(&self.occupied, self.cur_day);
        let Some(next) = ring_day.or_else(|| self.overflow.peek().map(|e| day_of(e.at))) else {
            return false;
        };
        if next > limit_day {
            return false;
        }
        self.cur_day = next;
        self.stats.advances += 1;
        if ring_day.is_some() {
            let slot = (next % NUM_BUCKETS as u64) as usize;
            self.occupied[slot / 64] &= !(1u64 << (slot % 64));
            // The bucket becomes the run where it lies; the drained
            // run's storage is the next spare.
            let bucket = std::mem::take(&mut self.buckets[slot]);
            let drained = std::mem::replace(&mut self.run, bucket);
            self.recycle(drained);
        }
        // Pull every overflow event the new window covers into the ring
        // (or the run, for the new day), restoring the tier invariant
        // `overflow days >= cur_day + NUM_BUCKETS`.
        let horizon = self.cur_day + NUM_BUCKETS as u64;
        while self.overflow.peek().is_some_and(|top| day_of(top.at) < horizon) {
            let Some(entry) = self.overflow.pop() else {
                break;
            };
            self.stats.overflow_migrated += 1;
            if day_of(entry.at) == self.cur_day {
                self.run.push(entry);
            } else {
                self.pending -= 1; // `insert` re-counts it
                self.insert(entry);
            }
        }
        self.run.sort_unstable();
        self.note_active_len();
        true
    }

    /// Take the earlier of the run's last entry and the side heap's top
    /// if it fires at or before `limit`.
    #[inline]
    fn take_head(&mut self, limit: Time) -> Option<EventEntry<E>> {
        let from_late = match (self.run.last(), self.late.peek()) {
            // `EventEntry` orders earlier entries greater.
            (Some(r), Some(l)) => l > r,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        let head = if from_late { self.late.peek() } else { self.run.last() };
        if head?.at > limit {
            return None;
        }
        if from_late {
            self.late.pop()
        } else {
            self.run.pop()
        }
    }

    /// [`take_head`](Self::take_head), opening the next day first when
    /// the current one has drained.
    #[inline]
    fn take_next(&mut self, limit: Time) -> Option<EventEntry<E>> {
        if self.run.is_empty() && self.late.is_empty() && !self.advance(day_of(limit)) {
            return None;
        }
        self.take_head(limit)
    }

    /// Pop the next event, advancing the clock to its firing time.
    /// Returns `None` when the simulation has run dry.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        self.pop_until(Time::MAX)
    }

    /// [`pop`](Self::pop) the next event if it fires at or before
    /// `limit`; otherwise pop nothing and return `None`. One call
    /// replaces a [`peek_time`](Self::peek_time) check and a pop.
    pub fn pop_until(&mut self, limit: Time) -> Option<EventEntry<E>> {
        let entry = self.take_next(limit)?;
        self.pending -= 1;
        debug_assert!(entry.at >= self.now, "clock went backwards");
        self.clock_audit.on_pop(entry.at.as_ps(), entry.seq);
        self.now = entry.at;
        self.processed += 1;
        if self.probe.is_on() && self.processed.is_multiple_of(self.tick_interval) {
            self.probe.emit(|| TelemetryEvent::Tick {
                at_ps: entry.at.as_ps(),
                events: self.processed,
                pending: self.pending as u64,
            });
        }
        Some(entry)
    }

    /// Drain *every* event at the next firing time into `out` (which is
    /// cleared first), advancing the clock to that time. Returns the
    /// batch size — 0 when the simulation has run dry.
    ///
    /// The batch is in FIFO (sequence) order, exactly the order the same
    /// events would pop one at a time — the three tiers keep same-instant
    /// events in the same day, so after one (possibly empty) advance the
    /// whole batch sits in the run and the side heap and drains without
    /// further tier interaction. Clock-audit and telemetry accounting
    /// amortize per batch: one `on_pop_batch` boundary check instead of
    /// `n` `on_pop` calls, and `Tick` events for exactly the pop counts
    /// the per-event path would have emitted them at.
    pub fn pop_batch_into(&mut self, out: &mut Vec<EventEntry<E>>) -> usize {
        self.pop_batch_until(Time::MAX, out)
    }

    /// [`pop_batch_into`](Self::pop_batch_into) if the next firing time
    /// is at or before `limit`; otherwise pop nothing and return 0.
    pub fn pop_batch_until(&mut self, limit: Time, out: &mut Vec<EventEntry<E>>) -> usize {
        out.clear();
        let Some(first) = self.take_next(limit) else {
            return 0;
        };
        let at = first.at;
        let first_seq = first.seq;
        out.push(first);
        while let Some(e) = self.take_head(at) {
            out.push(e);
        }
        let n = out.len();
        let last_seq = out[n - 1].seq;
        self.pending -= n;
        debug_assert!(at >= self.now, "clock went backwards");
        self.clock_audit
            .on_pop_batch(at.as_ps(), first_seq, last_seq, n as u64);
        self.now = at;
        let before = self.processed;
        self.processed += n as u64;
        if self.probe.is_on() {
            // Per-event Tick parity: the i-th entry of the batch (1-based)
            // corresponds to pop number `before + i` with
            // `pending_before - i` still pending; emit a Tick for every
            // stride multiple the batch crosses.
            let stride = self.tick_interval;
            let pending_before = (self.pending + n) as u64;
            let mut k = (before / stride + 1) * stride;
            while k <= self.processed {
                let i = k - before;
                self.probe.emit(|| TelemetryEvent::Tick {
                    at_ps: at.as_ps(),
                    events: k,
                    pending: pending_before - i,
                });
                k += stride;
            }
        }
        n
    }

    /// Return the undispatched tail of the batch most recently drained
    /// by [`pop_batch_into`](Self::pop_batch_into) — a run loop that hit
    /// its goal mid-batch hands back everything it did not dispatch, and
    /// the queue behaves as if those events had never been popped: they
    /// keep their original sequence numbers (so FIFO order is untouched),
    /// `processed` rolls back, and the clock-audit history rewinds so the
    /// inevitable re-pop of the same entries is not flagged as a
    /// tie-break violation. `tail` is drained.
    ///
    /// The entries fire at `now`, so they land in the side heap
    /// (`day <= cur_day`).
    pub fn unpop_batch_tail(&mut self, tail: &mut Vec<EventEntry<E>>) {
        let n = tail.len();
        if n == 0 {
            return;
        }
        debug_assert!(
            tail.iter().all(|e| e.at == self.now),
            "unpopped tail must fire at the current instant"
        );
        self.clock_audit.on_unpop(self.now.as_ps(), tail[0].seq);
        self.processed -= n as u64;
        for e in tail.drain(..) {
            self.insert(e);
        }
    }

    /// Firing time of the next event without popping it: the earlier
    /// head of the run and the side heap, else a scan of the next
    /// non-empty ring bucket, else the overflow top. The run loops do
    /// not need it ([`pop_until`](Self::pop_until) and
    /// [`pop_batch_until`](Self::pop_batch_until) check their limit
    /// themselves), so it is not memoized.
    pub fn peek_time(&self) -> Option<Time> {
        let head = [self.run.last(), self.late.peek()];
        if let Some(t) = head.into_iter().flatten().map(|e| e.at).min() {
            return Some(t);
        }
        if let Some(d) = first_ring_day(&self.occupied, self.cur_day) {
            return self.buckets[(d % NUM_BUCKETS as u64) as usize]
                .iter()
                .map(|e| e.at)
                .min();
        }
        self.overflow.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Drop every pending event (used when an experiment reaches its flow
    /// quota and wants to stop cleanly) and restart tie-break sequence
    /// numbering from 0 — with nothing pending, no tie can straddle the
    /// clear. The clock (`now`) and `processed` are untouched. The
    /// embedded `ClockAudit` is resynced so the next pop — which may
    /// legally carry a smaller `seq` at the same instant — is not
    /// misreported as a FIFO inversion. Any installed telemetry bus is
    /// epoch-reset for the same reason: a reused engine must not report
    /// series from the previous run as if they belonged to the new one.
    pub fn clear(&mut self) {
        self.run.clear();
        self.late.clear();
        for word in 0..OCC_WORDS {
            let mut bits = std::mem::take(&mut self.occupied[word]);
            while bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut bucket = std::mem::take(&mut self.buckets[slot]);
                bucket.clear();
                self.recycle(bucket);
            }
        }
        self.overflow.clear();
        self.pending = 0;
        self.next_seq = 0;
        self.clock_audit.on_clear();
        self.probe.on_clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_ns(30), 3);
        q.schedule_at(Time::from_ns(10), 1);
        q.schedule_at(Time::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_us(7);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_us(5), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_us(5));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_us(10), "a");
        q.pop();
        q.schedule_in(Time::from_us(5), "b");
        let e = q.pop().unwrap();
        assert_eq!(e.at, Time::from_us(15));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_us(10), ());
        q.pop();
        q.schedule_at(Time::from_us(9), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_us(3), ());
        assert_eq!(q.peek_time(), Some(Time::from_us(3)));
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_sees_across_all_tiers() {
        let mut q = EventQueue::new();
        // Only a far-future event: peek must reach into overflow.
        q.schedule_at(Time::from_ms(500), 1);
        assert_eq!(q.peek_time(), Some(Time::from_ms(500)));
        // A nearer ring event supersedes it.
        q.schedule_at(Time::from_us(40), 2);
        assert_eq!(q.peek_time(), Some(Time::from_us(40)));
        // And a current-day event supersedes both.
        q.schedule_at(Time::from_ns(10), 3);
        assert_eq!(q.peek_time(), Some(Time::from_ns(10)));
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_us(3), ());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn clear_restarts_seq_and_resyncs_audit() {
        // Pop an event, clear with events still pending, then schedule at
        // the *same instant*: the fresh entry gets seq 0, which a stale
        // ClockAudit would flag as a FIFO inversion (the satellite bug).
        let mut q = EventQueue::new();
        let t = Time::from_us(9);
        q.schedule_at(t, 1u32);
        q.schedule_at(Time::from_ms(50), 2); // far-future leftover
        assert_eq!(q.pop().map(|e| e.event), Some(1));
        q.clear();
        assert!(q.is_empty());
        q.schedule_at(t, 3); // same time as the last pop, seq restarted
        let e = q.pop();
        assert_eq!(e.as_ref().map(|e| e.seq), Some(0));
        assert_eq!(e.map(|e| e.event), Some(3));
        // The clock never went backwards.
        assert_eq!(q.now(), t);
    }

    #[test]
    fn clear_keeps_clock_and_processed() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_us(2), ());
        q.pop();
        q.schedule_at(Time::from_us(4), ());
        q.clear();
        assert_eq!(q.now(), Time::from_us(2));
        assert_eq!(q.processed(), 1);
    }

    #[test]
    fn processed_counts() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule_at(Time::from_ns(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.processed(), 10);
    }

    #[test]
    fn interleaved_schedule_pop_keeps_order() {
        // A mini "simulation": each event at t schedules another at t+2.
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_ns(0), 0u64);
        let mut fired = Vec::new();
        while let Some(e) = q.pop() {
            fired.push(e.at.as_ns());
            if e.event < 5 {
                q.schedule_in(Time::from_ns(2), e.event + 1);
            }
        }
        assert_eq!(fired, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn far_future_overflow_pops_in_order() {
        // Events beyond the ring horizon (cur_day + NUM_BUCKETS days)
        // land in overflow and must still interleave correctly with
        // near events, including FIFO at equal far times.
        let mut q = EventQueue::new();
        let far = Time::from_ms(100); // » ring span (≈1 ms)
        q.schedule_at(far, 10);
        q.schedule_at(far, 11); // same far instant: FIFO
        q.schedule_at(Time::from_us(1), 1);
        q.schedule_at(Time::from_ms(2), 2); // beyond ring too
        q.schedule_at(Time::from_ns(50), 0);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![0, 1, 2, 10, 11]);
    }

    #[test]
    fn overflow_migrates_into_ring_on_advance() {
        // After the clock advances near a far event, newly scheduled
        // nearby events must still order correctly around the migrated
        // overflow event.
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_ms(10), "far");
        q.schedule_at(Time::from_us(1), "near");
        assert_eq!(q.pop().map(|e| e.event), Some("near"));
        // Now schedule just before and just after the far event.
        q.schedule_at(Time::from_ms(10) - Time::from_ns(1), "before");
        q.schedule_at(Time::from_ms(10) + Time::from_ns(1), "after");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["before", "far", "after"]);
    }

    #[test]
    fn time_max_saturation() {
        // `Time::MAX` events (e.g. a saturated `schedule_in`) live in the
        // last possible day; they must schedule, peek and pop without
        // overflowing the day arithmetic, with FIFO at the saturated
        // instant.
        let mut q = EventQueue::new();
        q.schedule_at(Time::MAX, 1u32);
        q.schedule_at(Time::from_ns(5), 0);
        q.pop();
        // Saturating relative schedule: now + MAX saturates to MAX.
        q.schedule_in(Time::MAX, 2);
        assert_eq!(q.peek_time(), Some(Time::MAX));
        assert_eq!(q.pop().map(|e| e.event), Some(1));
        assert_eq!(q.pop().map(|e| e.event), Some(2));
        assert!(q.pop().is_none());
        assert_eq!(q.now(), Time::MAX);
    }

    #[test]
    fn telemetry_tick_samples_every_nth_pop() {
        use tcn_telemetry::{MemorySink, Telemetry};
        let bus = Telemetry::new();
        let mem = MemorySink::new();
        bus.add_sink(Box::new(mem.handle()));
        let mut q = EventQueue::new();
        q.set_probe(bus.probe());
        q.set_tick_interval(10);
        for i in 0..35u64 {
            q.schedule_at(Time::from_ns(i), i);
        }
        while q.pop().is_some() {}
        // Pops 10, 20, 30 hit the stride.
        let ticks = mem.events();
        assert_eq!(ticks.len(), 3);
        match ticks[0] {
            TelemetryEvent::Tick { events, .. } => assert_eq!(events, 10),
            ref other => panic!("expected a tick, got {other:?}"),
        }
    }

    #[test]
    fn clear_epoch_resets_installed_telemetry() {
        // The satellite bug: a reused engine must not report series from
        // the previous run. clear() epoch-resets the bus, so the sink
        // only ever holds post-clear events.
        use tcn_telemetry::{MemorySink, Telemetry};
        let bus = Telemetry::new();
        let mem = MemorySink::new();
        bus.add_sink(Box::new(mem.handle()));
        let mut q = EventQueue::new();
        q.set_probe(bus.probe());
        q.set_tick_interval(1);
        q.schedule_at(Time::from_ns(1), 1u32);
        q.schedule_at(Time::from_ns(2), 2);
        q.pop();
        assert_eq!(mem.len(), 1, "first run recorded");
        q.clear();
        assert_eq!(bus.epoch(), 1);
        assert!(mem.is_empty(), "stale first-run series must be dropped");
        q.schedule_at(Time::from_ns(5), 3);
        q.pop();
        let evs = mem.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].at_ps(), Time::from_ns(5).as_ps());
    }

    #[test]
    fn pop_until_stops_at_the_limit_without_opening_a_later_day() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_us(40), 1u32);
        q.schedule_at(Time::from_us(40) + Time::from_ns(1), 2);
        let mut batch = Vec::new();
        // The next event's day starts after the limit: nothing moves.
        assert!(q.pop_until(Time::from_us(5)).is_none());
        assert_eq!(q.pop_batch_until(Time::from_us(5), &mut batch), 0);
        assert_eq!(q.stats().advances, 0);
        assert_eq!((q.now(), q.len(), q.processed()), (Time::ZERO, 2, 0));
        // Same day, a picosecond short: the day opens, nothing pops.
        assert!(q.pop_until(Time::from_us(40) - Time::from_ps(1)).is_none());
        assert_eq!((q.stats().advances, q.len()), (1, 2));
        assert_eq!(q.peek_time(), Some(Time::from_us(40)));
        // A limit equal to the firing time pops exactly that instant.
        assert_eq!(q.pop_batch_until(Time::from_us(40), &mut batch), 1);
        assert_eq!(batch[0].event, 1);
        assert_eq!(q.pop_until(Time::MAX).map(|e| e.event), Some(2));
        assert!(q.pop_until(Time::MAX).is_none());
    }

    #[test]
    fn current_day_inserts_merge_with_the_sorted_run() {
        // Open a day whose bucket holds two instants, then insert into
        // it: a fresh schedule at an instant the run holds (a higher
        // seq: after it), a reserved seq filled there (a lower seq:
        // between the run's entries) and an unpopped batch tail while
        // the run still holds the later instant.
        let (t1, t2) = (Time::from_us(3), Time::from_us(3) + Time::from_ns(100));
        let mut q = EventQueue::new();
        q.schedule_at(t1, "a");
        let held = q.reserve_seq();
        q.schedule_at(t1, "c");
        q.schedule_at(t2, "e");
        q.schedule_at(Time::from_ns(2_900), "first");
        q.schedule_at(Time::from_ns(2_950), "second"); // same day as t1
        assert_eq!(q.pop().map(|e| e.event), Some("first"));
        assert_eq!(q.run.len(), 4);
        q.schedule_at(t1, "d");
        q.schedule_at_reserved(t1, held, "b");
        assert_eq!(q.late.len(), 2);
        assert_eq!(q.pop().map(|e| e.event), Some("second"));
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch_into(&mut batch), 4);
        let order: Vec<&str> = batch.iter().map(|e| e.event).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
        let mut tail = batch.split_off(1);
        q.unpop_batch_tail(&mut tail);
        assert_eq!((q.run.len(), q.late.len()), (1, 3));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, ["b", "c", "d", "e"]);
        let s = q.stats();
        assert_eq!((s.late_pushes, s.active_high_water, s.advances), (5, 6, 1));
    }

    #[test]
    fn first_ring_day_scans_in_day_order() {
        let one = |slot: usize| {
            let mut occ = [0u64; OCC_WORDS];
            occ[slot / 64] |= 1 << (slot % 64);
            occ
        };
        // Empty ring.
        assert_eq!(first_ring_day(&[0; OCC_WORDS], 0), None);
        assert_eq!(first_ring_day(&[0; OCC_WORDS], 5_000), None);
        // Bit 0 and bit 63 of a word, from a start in an earlier word.
        assert_eq!(first_ring_day(&one(128), 70), Some(128));
        assert_eq!(first_ring_day(&one(191), 70), Some(191));
        // The start bit itself is tomorrow; the slot just behind it is
        // the ring's last day.
        assert_eq!(first_ring_day(&one(71), 70), Some(71));
        assert_eq!(first_ring_day(&one(69), 70), Some(70 + 1023));
        // Start at bit 0 and at bit 63 of a word.
        assert_eq!(first_ring_day(&one(64), 63), Some(64));
        assert_eq!(first_ring_day(&one(63), 62), Some(63));
        assert_eq!(first_ring_day(&one(0), 62), Some(1024));
        // The wrapped start word: with the start at slot 100, slot 90
        // is ~1 000 days out and must lose to slot 110 (same word, 10
        // days out) and to slot 700 (another word), but win when alone.
        let mut occ = one(90);
        assert_eq!(first_ring_day(&occ, 2_048 + 99), Some(2_048 + 1_024 + 90));
        occ[700 / 64] |= 1 << (700 % 64);
        assert_eq!(first_ring_day(&occ, 2_048 + 99), Some(2_048 + 700));
        occ[110 / 64] |= 1 << (110 % 64);
        assert_eq!(first_ring_day(&occ, 2_048 + 99), Some(2_048 + 110));
        // Wrap across the end of the bitmap: start in the last word.
        assert_eq!(first_ring_day(&one(3), 1_000), Some(1_024 + 3));
    }

    /// Sparse hold model: each popped event is replaced by one up to
    /// ~183 days later, so nearly every pop steps a day.
    fn sparse_hold(q: &mut EventQueue<u64>, rng: &mut crate::Rng, pops: u64) {
        for i in 0..pops {
            let e = q.pop().expect("hold model never drains");
            let delta = Time::from_ps(rng.gen_range(192_000_000));
            q.schedule_at(e.at.saturating_add(delta), i);
        }
    }

    #[test]
    fn day_steps_stop_allocating_after_warm_up() {
        // `forbid(unsafe_code)` rules out a counting allocator, so the
        // queue counts its own pool misses: once the pool has seen the
        // peak of simultaneously non-empty days (at most one per
        // resident event, plus the one the run holds), stepping
        // days reuses storage for ever.
        let mut q = EventQueue::new();
        let mut rng = crate::Rng::new(12);
        for i in 0..8 {
            q.schedule_at(Time::from_ps(rng.gen_range(192_000_000)), i);
        }
        sparse_hold(&mut q, &mut rng, 2_000);
        let warm = q.stats();
        assert!(warm.bucket_allocs > 0 && warm.bucket_allocs <= 9, "{warm:?}");
        sparse_hold(&mut q, &mut rng, 100_000);
        let hot = q.stats();
        assert_eq!(hot.bucket_allocs, warm.bucket_allocs, "{hot:?}");
        assert!(hot.advances - warm.advances > 90_000, "{hot:?}");
        assert!(hot.pool_high_water <= 8 && hot.active_high_water <= 8, "{hot:?}");
    }

    #[test]
    fn clear_returns_bucket_storage_to_the_pool() {
        let mut q = EventQueue::new();
        for epoch in 0..5u64 {
            for i in 0..20 {
                q.schedule_at(q.now() + Time::from_us(3 * (i + 1)), i); // 20 ring days
            }
            q.schedule_at(q.now() + Time::from_ms(30), 99); // overflow
            q.pop();
            q.clear();
            assert!(q.is_empty() && q.peek_time().is_none());
            // The run keeps the storage of the one bucket it was
            // built from, so the second epoch allocates one more;
            // from then on every day is served from the pool.
            let want = if epoch == 0 { 20 } else { 21 };
            assert_eq!(q.stats().bucket_allocs, want, "epoch {epoch}: {:?}", q.stats());
        }
        assert_eq!(q.stats().pool_high_water, 20);
        assert_eq!(q.stats().overflow_pushes, 5);
    }

    #[test]
    fn stats_count_overflow_traffic_and_active_peak() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule_at(Time::from_ms(10), i); // one far day, 5 events
        }
        q.schedule_at(Time::from_ns(1), 9);
        assert_eq!(q.stats().overflow_pushes, 5);
        assert_eq!(q.stats().advances, 0);
        q.pop(); // current day: no step
        q.pop(); // steps to the overflow day, migrating all five
        let s = q.stats();
        assert_eq!((s.advances, s.overflow_migrated, s.active_high_water), (1, 5, 5));
        assert_eq!(s.bucket_allocs, 0, "overflow → current day never touches a bucket");
    }

    #[test]
    fn pop_batch_drains_exactly_one_instant() {
        let mut q = EventQueue::new();
        let t = Time::from_us(3);
        for i in 0..5 {
            q.schedule_at(t, i);
        }
        q.schedule_at(Time::from_us(8), 99);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch_into(&mut batch), 5);
        assert_eq!(
            batch.iter().map(|e| e.event).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4],
            "batch is in FIFO order"
        );
        assert!(batch.iter().all(|e| e.at == t));
        assert_eq!(q.now(), t);
        assert_eq!(q.len(), 1);
        assert_eq!(q.processed(), 5);
        assert_eq!(q.pop_batch_into(&mut batch), 1);
        assert_eq!(batch[0].event, 99);
        assert_eq!(q.pop_batch_into(&mut batch), 0);
        assert!(batch.is_empty());
    }

    #[test]
    fn pop_batch_matches_per_event_pops() {
        // Same shaped workload through two queues: batched drain must
        // yield the identical (at, seq, event) stream as one-at-a-time
        // pops, across all three tiers.
        let mk = || {
            let mut q = EventQueue::new();
            let mut x = 0x9E3779B97F4A7C15u64;
            for i in 0..500u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                q.schedule_at(Time::from_ns((x % 2_000_000) * 4), i);
            }
            q
        };
        let mut a = mk();
        let mut b = mk();
        let mut per_event = Vec::new();
        while let Some(e) = a.pop() {
            per_event.push((e.at, e.seq, e.event));
        }
        let mut batched = Vec::new();
        let mut scratch = Vec::new();
        while b.pop_batch_into(&mut scratch) > 0 {
            batched.extend(scratch.iter().map(|e| (e.at, e.seq, e.event)));
        }
        assert_eq!(per_event, batched);
        assert_eq!(a.processed(), b.processed());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn pop_batch_tick_parity() {
        // Batched drain must emit exactly the Ticks the per-event path
        // would: same stride crossings, same events/pending payloads.
        use tcn_telemetry::{MemorySink, Telemetry};
        let run = |batched: bool| {
            let bus = Telemetry::new();
            let mem = MemorySink::new();
            bus.add_sink(Box::new(mem.handle()));
            let mut q = EventQueue::new();
            q.set_probe(bus.probe());
            q.set_tick_interval(4);
            for i in 0..10u64 {
                q.schedule_at(Time::from_ns(7), i); // one big same-instant burst
            }
            q.schedule_at(Time::from_ns(9), 10);
            if batched {
                let mut scratch = Vec::new();
                while q.pop_batch_into(&mut scratch) > 0 {}
            } else {
                while q.pop().is_some() {}
            }
            mem.events()
                .iter()
                .map(|e| match *e {
                    TelemetryEvent::Tick { at_ps, events, pending } => (at_ps, events, pending),
                    ref other => panic!("expected a tick, got {other:?}"),
                })
                .collect::<Vec<_>>()
        };
        let per_event = run(false);
        let batch = run(true);
        assert_eq!(per_event, batch);
        assert_eq!(batch.len(), 2); // pops 4 and 8 cross the stride
    }

    #[test]
    fn reserved_seq_keeps_fifo_slot() {
        // Reserve a seq, schedule other events at the same instant, then
        // fill the reservation: it must pop in the reserved position —
        // exactly where an eager schedule would have placed it.
        let mut q = EventQueue::new();
        let t = Time::from_us(2);
        q.schedule_at(t, "a");
        let held = q.reserve_seq();
        q.schedule_at(t, "c");
        q.schedule_at_reserved(t, held, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn unused_reservation_is_a_harmless_gap() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_us(1), 1u32);
        let _gap = q.reserve_seq();
        q.schedule_at(Time::from_us(1), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn scheduling_unreserved_seq_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_at_reserved(Time::from_us(1), 5, ());
    }

    #[test]
    fn unpopped_tail_pops_again_unchanged() {
        let mut q = EventQueue::new();
        let t = Time::from_us(3);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        q.schedule_at(Time::from_us(9), 99);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch_into(&mut batch), 10);
        // Dispatch 4, hand 6 back — the queue must forget the pops.
        let mut tail: Vec<_> = batch.drain(4..).collect();
        let returned: Vec<(Time, u64, i32)> =
            tail.iter().map(|e| (e.at, e.seq, e.event)).collect();
        q.unpop_batch_tail(&mut tail);
        assert!(tail.is_empty());
        assert_eq!(q.processed(), 4);
        assert_eq!(q.len(), 7);
        assert_eq!(q.peek_time(), Some(t));
        // The tail comes back in the same (time, seq, event) order, then
        // the later event follows — exactly as if never popped.
        assert_eq!(q.pop_batch_into(&mut batch), 6);
        let repopped: Vec<(Time, u64, i32)> =
            batch.iter().map(|e| (e.at, e.seq, e.event)).collect();
        assert_eq!(repopped, returned);
        assert_eq!(q.pop_batch_into(&mut batch), 1);
        assert_eq!(batch[0].event, 99);
        assert_eq!(q.processed(), 11);
    }

    #[test]
    fn unpop_of_empty_tail_is_noop() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_us(1), 7);
        let mut batch = Vec::new();
        q.pop_batch_into(&mut batch);
        let mut empty: Vec<EventEntry<i32>> = Vec::new();
        q.unpop_batch_tail(&mut empty);
        assert_eq!(q.processed(), 1);
        assert!(q.is_empty());
    }
}
