//! `perfbench` — the repo's performance baseline harness.
//!
//! Produces the two checked-in baseline files at the repo root:
//!
//! * `BENCH_engine.json` — event-queue hold-model throughput (calendar
//!   `EventQueue` vs the `HeapEventQueue` binary-heap oracle, pops/sec)
//!   in two regimes — 64 Ki resident events (dense days) and 8 resident
//!   events one per ~12 µs (the 1 Gbps regime, where every pop steps a
//!   day) — the in-flight packet arena's per-packet allocator
//!   round-trips measured on a real testbed-star simulation, and the
//!   dispatch comparison with the queue's self-counters. The headline
//!   queue rows of the file being replaced are carried over under
//!   `previous`, so every regeneration is a before/after row;
//! * `BENCH_sweep.json` — wall clock for a fig5 + fig10 experiment
//!   slice, serial vs parallel sweep runner, with the host parallelism
//!   recorded so the speedup number can be judged honestly.
//!
//! Modes:
//!
//! * default — full measurement, **writes** both files;
//! * `--smoke` — **no writes**: re-runs the arena and dispatch
//!   measurements at the baseline's own sizes and fails (exit 1) unless
//!   every row that repeats exactly (event and pop counts, the
//!   work-per-pop ratio, `QueueStats`, the arena counters) equals the
//!   checked-in `BENCH_engine.json` — 0 % tolerance. The wall-clock
//!   ratios are measured at a reduced pop count and printed beside the
//!   baseline but gate nothing: wall-clock claims belong to the repo
//!   benchmark (`BENCHMARK.json`). `cargo xtask ci` runs this stage.
//!
//! Wall-clock timing is deliberately confined to `crates/bench` (and
//! `xtask`): the `no-wallclock` lint rule keeps `Instant`/`SystemTime`
//! out of the simulation crates, where all time is virtual.

use std::time::Instant;

use tcn_experiments::common::{params, switch_port, Scale, SchedKind};
use tcn_experiments::fct_sweep::{self, SweepConfig};
use tcn_experiments::json::{Json, ToJson};
use tcn_experiments::{fig5, Scheme};
use tcn_net::{
    single_switch, DispatchMode, LeafSpineConfig, NetworkSim, TaggingPolicy, TransportChoice,
};
use tcn_sim::{EventQueue, HeapEventQueue, QueueStats, Rate, Rng, Time};
use tcn_workloads::{gen_incast, gen_many_to_one, Workload};

/// Repo root, derived from this crate's manifest dir (crates/bench).
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has two ancestors")
        .to_path_buf()
}

/// Shaped hold-model delta: mostly near-horizon (sub-day to a few
/// calendar days), some same-instant ties, a mid tail spanning many
/// days, and a rare far tail that lands in the overflow tier — the same
/// mix the differential test uses, approximating a DES's event horizon.
fn shaped_delta(rng: &mut Rng) -> Time {
    let shape = rng.gen_range(100);
    if shape < 60 {
        Time::from_ps(rng.gen_range(1 << 22)) // ≤ ~4 µs (≈ 4 days)
    } else if shape < 80 {
        Time::ZERO
    } else if shape < 95 {
        Time::from_ps(rng.gen_range(1 << 29)) // ≤ ~0.5 ms
    } else {
        Time::from_ps(rng.gen_range(1 << 36)) // ≤ ~70 ms (overflow tier)
    }
}

/// Sparse hold-model delta: uniform up to 192 µs, so 8 resident events
/// fire one per ~12 µs (a 1500 B serialization at 1 Gbps) — some eleven
/// calendar days apart. Every pop steps a day and most days are empty:
/// the regime of the 1 Gbps stars, which 64 Ki resident events never
/// reach.
fn sparse_delta(rng: &mut Rng) -> Time {
    Time::from_ps(rng.gen_range(192_000_000))
}

/// Classic hold model: keep `resident` events queued; each step pops
/// the earliest and schedules a replacement at `now + delta()`. Returns
/// pops per second of wall time.
macro_rules! hold_model {
    ($name:ident, $queue:ty) => {
        fn $name(
            resident: usize,
            pops: u64,
            seed: u64,
            delta: impl Fn(&mut Rng) -> Time,
        ) -> f64 {
            let mut q: $queue = <$queue>::new();
            let mut rng = Rng::new(seed);
            for i in 0..resident as u64 {
                let d = delta(&mut rng);
                q.schedule_at(Time::ZERO.saturating_add(d), i);
            }
            let t0 = Instant::now();
            for i in 0..pops {
                let e = q.pop().expect("hold model never drains");
                std::hint::black_box(e.event);
                let d = delta(&mut rng);
                q.schedule_at(e.at.saturating_add(d), i);
            }
            let secs = t0.elapsed().as_secs_f64();
            pops as f64 / secs
        }
    };
}

hold_model!(hold_calendar, EventQueue<u64>);
hold_model!(hold_binheap, HeapEventQueue<u64>);

/// Run a testbed-star cell (fig6 shape) and report the arena's
/// allocator counters: the "zero allocator round-trips in steady
/// state" claim, measured.
fn arena_measurement(flows: usize) -> Json {
    let cfg = SweepConfig::fig6();
    let rate = cfg.rate;
    let scheme = Scheme::Tcn {
        threshold: params::testbed::TCN_T,
    };
    let mk = || {
        switch_port(
            cfg.nqueues,
            Some(cfg.buffer),
            None,
            cfg.sched,
            scheme,
            rate,
            1500,
            1,
        )
    };
    let mut sim = single_switch(
        9,
        rate,
        params::testbed::LINK_DELAY,
        TransportChoice::TestbedDctcp.config(),
        TaggingPolicy::Fixed,
        mk,
    ).expect("topology is well-formed");
    let mut rng = Rng::new(42);
    let senders: Vec<u32> = (0..8).collect();
    let specs = gen_many_to_one(
        &mut rng,
        flows,
        &senders,
        8,
        &Workload::WebSearch.cdf(),
        0.7,
        rate,
        &(0..4).collect::<Vec<u8>>(),
        Time::ZERO,
    );
    for f in &specs {
        sim.add_flow(*f);
    }
    assert!(sim.run_to_completion(Time::from_secs(10_000)).expect("run"));
    let s = sim.arena_stats();
    Json::obj(vec![
        ("flows", (flows as u64).to_json()),
        ("inserted", s.inserted.to_json()),
        ("slot_allocs", s.slot_allocs.to_json()),
        ("recycled", s.recycled.to_json()),
        ("high_water", s.high_water.to_json()),
        ("allocs_per_packet", s.allocs_per_packet().to_json()),
    ])
}

/// The incast macro-benchmark sim: `fanout` senders fire synchronized
/// `flow_bytes` waves at one receiver through a single FIFO+TCN switch
/// (drop-tail single-queue ports with sojourn-threshold marking — the
/// classic DCTCP incast setting, marked by TCN) on 10 Gbps links.
/// Same-instant wave starts make dense same-timestamp batches; FIFO's
/// idle select is pure, so every port in the topology is
/// coalescing-eligible (the sender NICs between ACK-clocked bursts,
/// the receiver NIC and the switch ACK-return ports elide almost all
/// their wakes).
fn incast_sim(fanout: usize, waves: usize, flow_bytes: u64) -> NetworkSim {
    let rate = Rate::from_gbps(10);
    let scheme = Scheme::Tcn {
        threshold: params::sim::TCN_T_DCTCP,
    };
    let mut sim = single_switch(
        fanout + 1,
        rate,
        Time::from_us(20),
        TransportChoice::SimDctcp.config(),
        TaggingPolicy::Fixed,
        || {
            switch_port(
                1,
                Some(params::sim::BUFFER),
                None,
                SchedKind::Fifo,
                scheme,
                rate,
                1500,
                5,
            )
        },
    )
    .expect("topology is well-formed");
    let receiver = fanout as u32;
    let senders: Vec<u32> = (0..fanout as u32).collect();
    let mut rng = Rng::new(77);
    for w in 0..waves {
        // Zero jitter: every sender in a wave fires at the same
        // instant — the canonical incast shape, and the dense
        // same-timestamp epochs the batched drain exists for.
        let at = Time::from_ms(2 * w as u64 + 1);
        for spec in gen_incast(&mut rng, &senders, receiver, flow_bytes, at, Time::ZERO, 0) {
            sim.add_flow(spec);
        }
    }
    sim
}

/// Run the incast macro-benchmark once under the given dispatch mode:
/// `(wall ms, events processed, fct checksum, drops, event-queue
/// self-counters)`.
fn incast_run(
    fanout: usize,
    waves: usize,
    flow_bytes: u64,
    mode: DispatchMode,
) -> (f64, u64, u64, u64, QueueStats) {
    let mut sim = incast_sim(fanout, waves, flow_bytes);
    sim.set_dispatch_mode(mode);
    let t0 = Instant::now();
    assert!(sim.run_to_completion(Time::from_secs(60)).expect("run"));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let fct_sum: u64 = sim.fct_records().iter().map(|r| r.fct.as_ps()).sum();
    (wall_ms, sim.events_processed(), fct_sum, sim.total_drops(), sim.queue_stats())
}

fn queue_stats_json(s: QueueStats) -> Json {
    Json::obj(vec![
        ("advances", s.advances.to_json()),
        ("bucket_allocs", s.bucket_allocs.to_json()),
        ("pool_high_water", s.pool_high_water.to_json()),
        ("overflow_pushes", s.overflow_pushes.to_json()),
        ("overflow_migrated", s.overflow_migrated.to_json()),
        ("active_high_water", s.active_high_water.to_json()),
    ])
}

/// The dispatch-path comparison (DESIGN §7.5–7.6): the per-event
/// reference loop vs the batched default on the incast macro-benchmark.
/// Events/sec uses a *common* work unit — the per-event mode's event
/// count — because coalescing legitimately processes fewer events for
/// the same simulated work. Asserts batched output byte-identity along
/// the way.
fn dispatch_measurement() -> Json {
    let (fanout, waves, bytes) = (32usize, 5usize, 64_000u64);
    // Best-of-3 walls per mode, interleaved, so a scheduler hiccup does
    // not skew a ratio; outputs are asserted invariant across rounds.
    let unrun = (f64::INFINITY, 0u64, 0u64, 0u64, QueueStats::default());
    let (mut pe, mut ba) = (unrun, unrun);
    for _ in 0..3 {
        let r = incast_run(fanout, waves, bytes, DispatchMode::PerEvent);
        if r.0 < pe.0 {
            pe = r;
        }
        let r = incast_run(fanout, waves, bytes, DispatchMode::Batched);
        if r.0 < ba.0 {
            ba = r;
        }
    }
    assert_eq!(
        (pe.2, pe.3),
        (ba.2, ba.3),
        "batched dispatch diverged from per-event on the macro-benchmark"
    );
    let common_events = pe.1;
    Json::obj(vec![
        ("fanout", (fanout as u64).to_json()),
        ("waves", (waves as u64).to_json()),
        ("flow_bytes", bytes.to_json()),
        ("per_event_wall_ms", pe.0.to_json()),
        ("batched_wall_ms", ba.0.to_json()),
        ("per_event_events", common_events.to_json()),
        ("batched_events", ba.1.to_json()),
        (
            "per_event_events_per_sec",
            (common_events as f64 / (pe.0 / 1e3)).round().to_json(),
        ),
        (
            "batched_events_per_sec",
            (common_events as f64 / (ba.0 / 1e3)).round().to_json(),
        ),
        ("batched_vs_per_event", (pe.0 / ba.0).to_json()),
        // Deterministic, machine-independent: how many event-queue
        // round-trips per-event dispatch performs for each one the
        // batched drain (with per-port coalescing) performs on the
        // same simulated work — the drain-layer events/s advantage at
        // equal per-pop cost. Byte-identity (asserted above) makes the
        // two runs the *same* simulation, so this is exact.
        (
            "batched_work_per_pop_vs_per_event",
            (common_events as f64 / ba.1 as f64).to_json(),
        ),
        // The event queue's self-counters over the batched (default)
        // run: deterministic, so a queue change that steps more days or
        // starts allocating per step shows here at 0 % tolerance.
        ("batched_queue_stats", queue_stats_json(ba.4)),
        (
            "note",
            "events/sec is per-event mode's event count over each mode's wall time \
             (a common work unit; batched pops fewer events for the same work); \
             batched_work_per_pop_vs_per_event is the deterministic version of the same \
             comparison at the queue layer: simulated events of work advanced per \
             event-queue pop, relative to per-event dispatch"
                .to_json(),
        ),
    ])
}

fn engine_baseline(smoke: bool) -> Json {
    let resident = 1 << 16;
    let pops: u64 = if smoke { 400_000 } else { 4_000_000 };
    // Interleave A/B/A/B and keep the better of two rounds each, so a
    // one-off scheduler hiccup doesn't skew the ratio.
    let sparse_resident = 8;
    let mut cal: f64 = 0.0;
    let mut bin: f64 = 0.0;
    let mut cal_sparse: f64 = 0.0;
    let mut bin_sparse: f64 = 0.0;
    for seed in [11, 12] {
        cal = cal.max(hold_calendar(resident, pops, seed, shaped_delta));
        bin = bin.max(hold_binheap(resident, pops, seed, shaped_delta));
        cal_sparse = cal_sparse.max(hold_calendar(sparse_resident, pops, seed, sparse_delta));
        bin_sparse = bin_sparse.max(hold_binheap(sparse_resident, pops, seed, sparse_delta));
    }
    // Deterministic counts, gated at 0 % tolerance by `--smoke`: always
    // measured at the baseline's sizes (seconds of host time).
    let arena = arena_measurement(600);
    let dispatch = dispatch_measurement();
    Json::obj(vec![
        ("resident_events", (resident as u64).to_json()),
        ("pops", pops.to_json()),
        ("calendar_pops_per_sec", cal.round().to_json()),
        ("binheap_pops_per_sec", bin.round().to_json()),
        ("calendar_vs_binheap", (cal / bin).to_json()),
        ("sparse_resident_events", (sparse_resident as u64).to_json()),
        ("calendar_sparse_pops_per_sec", cal_sparse.round().to_json()),
        ("binheap_sparse_pops_per_sec", bin_sparse.round().to_json()),
        ("calendar_sparse_vs_binheap", (cal_sparse / bin_sparse).to_json()),
        ("arena", arena),
        ("dispatch", dispatch),
    ])
}

fn sweep_baseline() -> Json {
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = host.max(1);

    let t0 = Instant::now();
    let f5 = fig5::run(Time::from_ms(150));
    std::hint::black_box(&f5);
    let fig5_ms = t0.elapsed().as_secs_f64() * 1e3;

    let scale = Scale {
        flows: 250,
        loads: &[0.5, 0.7],
        seed: 1,
    };
    let cfg = SweepConfig::fig10(LeafSpineConfig::small());
    let schemes = cfg.schemes();
    let t1 = Instant::now();
    let serial = fct_sweep::run_schemes_with_threads(&cfg, &scale, &schemes, 1);
    let serial_ms = t1.elapsed().as_secs_f64() * 1e3;

    // On a single-core host a "parallel" run measures pool overhead,
    // not a speedup, and 0.93x reads like a regression — skip the
    // comparison outright and record why.
    let (par_ms, speedup, note) = if host == 1 {
        (
            Json::Null,
            Json::Null,
            "single-core host: serial-vs-parallel comparison skipped (a 1-thread pool \
             can only measure overhead, never a speedup)",
        )
    } else {
        let t2 = Instant::now();
        let par = fct_sweep::run_schemes_with_threads(&cfg, &scale, &schemes, threads);
        let par_ms = t2.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            serial.to_json().pretty(),
            par.to_json().pretty(),
            "parallel sweep output diverged from serial"
        );
        (
            par_ms.round().to_json(),
            (serial_ms / par_ms).to_json(),
            "speedup is bounded by host_parallelism",
        )
    };

    Json::obj(vec![
        ("host_parallelism", (host as u64).to_json()),
        ("threads", (threads as u64).to_json()),
        ("fig5_slice_wall_ms", fig5_ms.round().to_json()),
        ("fig10_slice_cells", (serial.cells.len() as u64).to_json()),
        ("fig10_slice_serial_wall_ms", serial_ms.round().to_json()),
        ("fig10_slice_parallel_wall_ms", par_ms),
        ("speedup", speedup),
        ("note", note.to_json()),
    ])
}

/// The value at `path` (object keys, outermost first).
fn at<'a>(json: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(json, |j, key| j.get(key))
}

/// The smoke gate: every row of `engine` that repeats exactly must equal
/// the checked-in baseline. The three wall-clock ratios print beside
/// their baseline values and gate nothing — at 400 k pops they measure
/// the pooled queue's warm-up, and a ratio of two wall times on a shared
/// host is not a regression signal.
fn smoke_gate(engine: &Json) -> Result<(), String> {
    let path = repo_root().join("BENCH_engine.json");
    let baseline = std::fs::read_to_string(&path)
        .map_err(|e| format!("missing baseline {}: {e} (run `cargo xtask bench` first)", path.display()))?;
    let json = Json::parse(&baseline).map_err(|e| format!("bad baseline JSON: {e}"))?;
    let show = |j: Option<&Json>| j.map_or("absent".to_string(), Json::compact);
    for row in [
        &["calendar_vs_binheap"][..],
        &["calendar_sparse_vs_binheap"],
        &["dispatch", "batched_vs_per_event"],
    ] {
        println!(
            "smoke: {} {} (baseline {}, wall clock: not gated)",
            row.join("."),
            show(at(engine, row)),
            show(at(&json, row))
        );
    }
    for row in [
        &["arena"][..],
        &["dispatch", "per_event_events"],
        &["dispatch", "batched_events"],
        &["dispatch", "batched_work_per_pop_vs_per_event"],
        &["dispatch", "batched_queue_stats"],
    ] {
        let (current, base) = (at(engine, row), at(&json, row));
        if current.is_none() || current != base {
            return Err(format!(
                "{} is {}, baseline {} — these rows repeat exactly, so the simulation changed \
                 (if intended, `cargo xtask bench` rewrites the baseline)",
                row.join("."),
                show(current),
                show(base)
            ));
        }
        println!("smoke: {} equals the baseline", row.join("."));
    }
    Ok(())
}

/// The headline queue rows of the checked-in `BENCH_engine.json` about
/// to be replaced (`null` where that file has no such row, or does not
/// exist): the "before" of this regeneration's before/after.
fn previous_queue_rows(path: &std::path::Path) -> Json {
    let old = std::fs::read_to_string(path).ok().and_then(|s| Json::parse(&s).ok());
    let row = |name| (name, old.as_ref().and_then(|j| j.get(name)).cloned().unwrap_or(Json::Null));
    Json::obj(vec![
        row("calendar_pops_per_sec"),
        row("calendar_vs_binheap"),
        row("calendar_sparse_pops_per_sec"),
        row("calendar_sparse_vs_binheap"),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut engine = engine_baseline(smoke);
    println!("engine: {}", engine.pretty());

    if smoke {
        if let Err(e) = smoke_gate(&engine) {
            eprintln!("perfbench smoke FAILED: {e}");
            std::process::exit(1);
        }
        println!("perfbench smoke OK");
        return;
    }

    let sweep = sweep_baseline();
    println!("sweep: {}", sweep.pretty());
    let root = repo_root();
    let engine_path = root.join("BENCH_engine.json");
    if let Json::Obj(fields) = &mut engine {
        fields.push(("previous".to_string(), previous_queue_rows(&engine_path)));
    }
    std::fs::write(&engine_path, engine.pretty() + "\n").expect("write BENCH_engine.json");
    std::fs::write(root.join("BENCH_sweep.json"), sweep.pretty() + "\n")
        .expect("write BENCH_sweep.json");
    println!("wrote {}", root.join("BENCH_engine.json").display());
    println!("wrote {}", root.join("BENCH_sweep.json").display());
}
