//! Layer kernels: nanoseconds per operation of one layer at a time,
//! driven through its public functions on fixed inputs, median of five
//! samples. They run cache-hot and alone, so a count multiplied by a
//! port or transport kernel time is a *lower bound* on that layer's
//! share of a run. The queue kernels keep 64 Ki events resident, more
//! than the workloads do, so a share built on them is an estimate.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use tcn_core::{EcnCodepoint, FlowId, Packet, PacketArena};
use tcn_net::{ecmp_pick, FctRecord, FlowSpec, LeafSpineConfig, Port, PortSetup};
use tcn_sim::{EventQueue, Rate, Rng, Time};
use tcn_stats::FctBreakdown;
use tcn_transport::{Cc, SenderOutput, TcpConfig, TcpReceiver, TcpSender};
use tcn_workloads::{gen_all_to_all, gen_incast, gen_many_to_one, Workload as SizeWorkload};

use crate::workloads::{ack_metric, build_sim, port_metric, Sizes, Workload};

const SAMPLES: usize = 5;

/// Median over [`SAMPLES`] calls of `sample`, which returns one
/// measurement (already divided by its operation count).
fn median_of(mut sample: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..SAMPLES).map(|_| sample()).collect();
    v.sort_by(f64::total_cmp);
    v[SAMPLES / 2]
}

/// Nanoseconds per operation of `ops` operations done by `body`.
fn ns_per_op(ops: u64, body: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    body();
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// `perfbench`'s shaped hold-model delta: mostly near-horizon, some
/// same-instant ties, a mid tail, and a rare far tail that lands in the
/// calendar queue's overflow tier.
fn shaped_delta(rng: &mut Rng) -> Time {
    let shape = rng.gen_range(100);
    if shape < 60 {
        Time::from_ps(rng.gen_range(1 << 22))
    } else if shape < 80 {
        Time::ZERO
    } else if shape < 95 {
        Time::from_ps(rng.gen_range(1 << 29))
    } else {
        Time::from_ps(rng.gen_range(1 << 36))
    }
}

const QUEUE_RESIDENT: u64 = 1 << 16;
const QUEUE_OPS: u64 = 400_000;
const BATCH_WIDTH: u64 = 32;

/// Hold model, one pop and one schedule per step, 64 Ki resident.
fn queue_hold_ns_per_pop() -> f64 {
    median_of(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = Rng::new(11);
        for i in 0..QUEUE_RESIDENT {
            q.schedule_at(shaped_delta(&mut rng), i);
        }
        ns_per_op(QUEUE_OPS, || {
            for i in 0..QUEUE_OPS {
                let e = q.pop().expect("hold model never drains");
                black_box(e.event);
                q.schedule_at(e.at.saturating_add(shaped_delta(&mut rng)), i);
            }
        })
    })
}

/// Hold model in same-instant groups of 32 drained by `pop_batch_into`,
/// the way the default dispatch loop pulls events.
fn queue_batch_ns_per_event() -> f64 {
    median_of(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = Rng::new(13);
        for g in 0..QUEUE_RESIDENT / BATCH_WIDTH {
            // Distinct instants, so groups never merge.
            let at = shaped_delta(&mut rng).saturating_add(Time::from_ps(g));
            for i in 0..BATCH_WIDTH {
                q.schedule_at(at, i);
            }
        }
        let mut batch = Vec::new();
        let mut popped = 0u64;
        let t0 = Instant::now();
        while popped < QUEUE_OPS {
            let n = q.pop_batch_into(&mut batch) as u64;
            popped += n;
            let delta = shaped_delta(&mut rng).saturating_add(Time::from_ps(1));
            for e in batch.drain(..) {
                q.schedule_at(e.at.saturating_add(delta), black_box(e.event));
            }
        }
        t0.elapsed().as_nanos() as f64 / popped as f64
    })
}

const PORT_OPS: u64 = 200_000;
const MTU: u32 = 1500;

/// One `enqueue` + one `dequeue` per step on a port held at half its
/// buffer (32 packets when unbounded), packets spread over every queue,
/// the clock advancing one serialization time per step.
fn port_ns_per_pkt(setup: &PortSetup, rate: Rate) -> f64 {
    median_of(|| {
        let mut port = Port::new(setup, rate);
        let resident = setup.buffer.map_or(32, |b| b / 2 / u64::from(MTU));
        let step = rate.tx_time(u64::from(MTU));
        let nq = setup.nqueues as u64;
        let mk = |i: u64| {
            let mut p = Packet::data(FlowId(i % nq), 0, 1, i * 1460, 1460, 40);
            p.dscp = (i % nq) as u8;
            p
        };
        let mut now = Time::ZERO;
        for i in 0..resident {
            port.enqueue(mk(i), now);
        }
        ns_per_op(PORT_OPS, || {
            for i in resident..resident + PORT_OPS {
                now = now.saturating_add(step);
                black_box(port.enqueue(mk(i), now));
                black_box(port.dequeue(now).expect("scheduler contract holds"));
            }
        })
    })
}

const ECMP_OPS: u64 = 1_000_000;

fn ecmp_pick_ns() -> f64 {
    let candidates: Vec<u32> = (0..LeafSpineConfig::paper().spines as u32).collect();
    median_of(|| {
        ns_per_op(ECMP_OPS, || {
            for i in 0..ECMP_OPS {
                black_box(ecmp_pick(
                    black_box(&candidates),
                    FlowId(i),
                    (i % 24) as u32,
                ));
            }
        })
    })
}

/// Microseconds to build the 144-host fabric with fig10's ports.
fn build_us_paper_fabric() -> f64 {
    let fig10 = &Workload::FabricPaper.cells(&Sizes::BENCH)[0];
    median_of(|| {
        // ns per 1000 "operations" = µs for the one build.
        ns_per_op(1000, || {
            black_box(build_sim(fig10, 1).expect("paper fabric is routable"));
        })
    })
}

const ACK_OPS: u64 = 30_000;

/// Sender ↔ receiver ping-pong from flow start: every data packet the
/// sender emits is delivered in order and acked at once; one in twenty
/// arrives CE-marked (ignored by the controllers that are not
/// ECN-capable, whose packets are Not-ECT).
fn ack_ns(cc: Cc) -> f64 {
    let cfg = TcpConfig::preset(cc).sim();
    let step = Time::from_ns(1200);
    median_of(|| {
        let flow = FlowId(1);
        let mut sender = TcpSender::new(cfg, flow, 0, 1, 1 << 40);
        let mut receiver = TcpReceiver::new(flow, 1, 0, 1 << 40);
        let mut out = SenderOutput::default();
        let mut wire: VecDeque<Packet> = VecDeque::new();
        let mut now = Time::from_us(1);
        sender.start_into(now, &mut out);
        wire.extend(out.packets.drain(..));
        ns_per_op(ACK_OPS, || {
            for i in 0..ACK_OPS {
                now = now.saturating_add(step);
                let Some(mut pkt) = wire.pop_front() else {
                    // A paced sender with nothing in flight: fire its timer.
                    now = out
                        .timer
                        .expect("an unfinished sender keeps a timer")
                        .max(now);
                    out.clear();
                    sender.on_timer_into(now, &mut out);
                    wire.extend(out.packets.drain(..));
                    continue;
                };
                if i % 20 == 0 && pkt.ecn.is_ect() {
                    pkt.ecn = EcnCodepoint::Ce;
                }
                let ack = receiver.on_data(&pkt, now).expect("own flow's data");
                let tcn_core::PacketKind::Ack { cum_ack, ece } = ack.kind else {
                    unreachable!("a receiver answers with an ACK")
                };
                out.clear();
                sender.on_ack_into(cum_ack, ece, now, &mut out);
                wire.extend(out.packets.drain(..));
            }
        })
    })
}

const ARENA_OPS: u64 = 1_000_000;

/// One `insert` + one `remove` per step with 256 packets resident.
fn arena_ns_per_cycle() -> f64 {
    median_of(|| {
        let mut arena = PacketArena::new();
        let pkt = Packet::data(FlowId(0), 0, 1, 0, 1460, 40);
        let mut live: VecDeque<_> = (0..256).map(|_| arena.insert(pkt.clone())).collect();
        ns_per_op(ARENA_OPS, || {
            for _ in 0..ARENA_OPS {
                live.push_back(arena.insert(pkt.clone()));
                let h = live.pop_front().expect("256 resident");
                black_box(arena.remove(h));
            }
        })
    })
}

const GEN_FLOWS: usize = 20_000;

fn gen_ns_per_flow_incast() -> f64 {
    let senders: Vec<u32> = (0..32).collect();
    median_of(|| {
        let mut rng = Rng::new(1);
        let waves = GEN_FLOWS / senders.len();
        ns_per_op((waves * senders.len()) as u64, || {
            for w in 0..waves as u64 {
                let at = Time::from_ms(w);
                black_box(gen_incast(
                    &mut rng,
                    &senders,
                    32,
                    200_000,
                    at,
                    Time::ZERO,
                    0,
                ));
            }
        })
    })
}

fn gen_ns_per_flow_many_to_one() -> f64 {
    let senders: Vec<u32> = (0..8).collect();
    let cdf = SizeWorkload::WebSearch.cdf();
    median_of(|| {
        let mut rng = Rng::new(1);
        ns_per_op(GEN_FLOWS as u64, || {
            black_box(gen_many_to_one(
                &mut rng,
                GEN_FLOWS,
                &senders,
                8,
                &cdf,
                0.8,
                Rate::from_gbps(1),
                &[0, 1, 2, 3],
                Time::ZERO,
            ));
        })
    })
}

fn gen_ns_per_flow_all_to_all() -> f64 {
    let cdfs: Vec<_> = SizeWorkload::ALL.iter().map(|w| w.cdf()).collect();
    median_of(|| {
        let mut rng = Rng::new(1);
        ns_per_op(GEN_FLOWS as u64, || {
            black_box(gen_all_to_all(
                &mut rng,
                GEN_FLOWS,
                144,
                &cdfs,
                0.7,
                Rate::from_gbps(10),
                7,
                Time::ZERO,
            ));
        })
    })
}

const BREAKDOWN_FLOWS: u64 = 50_000;

fn breakdown_ns_per_flow() -> f64 {
    let cdf = SizeWorkload::WebSearch.cdf();
    let mut rng = Rng::new(1);
    let records: Vec<FctRecord> = (0..BREAKDOWN_FLOWS)
        .map(|i| {
            let size = cdf.sample(&mut rng);
            let fct = Time::from_ns(1 + size * 8 / 10 + rng.gen_range(100_000));
            let spec = FlowSpec {
                src: 0,
                dst: 1,
                size,
                start: Time::ZERO,
                service: 0,
            };
            FctRecord {
                flow: FlowId(i),
                spec,
                finish: fct,
                fct,
                timeouts: 0,
            }
        })
        .collect();
    median_of(|| {
        ns_per_op(BREAKDOWN_FLOWS, || {
            black_box(FctBreakdown::from_records(black_box(&records)));
        })
    })
}

/// A kernel: its metric name and the function that measures it.
type Kernel = (String, Box<dyn Fn() -> f64>);

/// Every kernel in report order. All report nanoseconds per operation
/// except `net.build_us.paper_fabric`.
fn kernels() -> Vec<Kernel> {
    fn k(name: &str, f: impl Fn() -> f64 + 'static) -> Kernel {
        (name.to_string(), Box::new(f))
    }
    let mut all = vec![
        k("sim.queue_hold_ns_per_pop", queue_hold_ns_per_pop),
        k("sim.queue_batch_ns_per_event", queue_batch_ns_per_event),
        k(&port_metric("host_nic"), || {
            port_ns_per_pkt(&PortSetup::host_nic(), Rate::from_gbps(10))
        }),
    ];
    for cell in Workload::ALL.iter().flat_map(|w| w.cells(&Sizes::BENCH)) {
        let name = port_metric(cell.port_kernel());
        if all.iter().all(|(seen, _)| *seen != name) {
            all.push(k(&name, move || {
                let (factory, rate) = cell.port_factory(1);
                port_ns_per_pkt(&factory(), rate)
            }));
        }
    }
    all.push(k("net.ecmp_pick_ns", ecmp_pick_ns));
    all.push(k(BUILD_METRIC, build_us_paper_fabric));
    for cc in [Cc::Dctcp, Cc::EcnStar, Cc::Cubic, Cc::Bbr] {
        all.push(k(&ack_metric(cc), move || ack_ns(cc)));
    }
    all.push(k("core.arena_ns_per_cycle", arena_ns_per_cycle));
    all.push(k(
        "workloads.gen_ns_per_flow.incast",
        gen_ns_per_flow_incast,
    ));
    all.push(k(
        "workloads.gen_ns_per_flow.many_to_one",
        gen_ns_per_flow_many_to_one,
    ));
    all.push(k(
        "workloads.gen_ns_per_flow.all_to_all",
        gen_ns_per_flow_all_to_all,
    ));
    all.push(k("stats.breakdown_ns_per_flow", breakdown_ns_per_flow));
    all
}

/// The one kernel reported in microseconds.
pub const BUILD_METRIC: &str = "net.build_us.paper_fabric";

/// Kernel metric names, in report order, without running anything.
pub fn names() -> Vec<String> {
    kernels().into_iter().map(|(name, _)| name).collect()
}

/// Run every kernel: `(metric name, value)` rows in report order.
pub fn run_all() -> Vec<(String, f64)> {
    kernels().into_iter().map(|(name, f)| (name, f())).collect()
}
