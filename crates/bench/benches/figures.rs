//! Bench: regenerate every paper figure (Figs. 1–13) at bench scale —
//! one table row per figure, each keeping the behavioural assertion its
//! regeneration must satisfy.

use tcn_bench::criterion::{black_box, criterion_group, criterion_main, Criterion};
use tcn_bench::{bench_scale, heavy};
use tcn_experiments::fct_sweep::{self, SweepConfig};
use tcn_experiments::{fig1, fig2, fig3, fig4, fig5};
use tcn_net::LeafSpineConfig;
use tcn_sim::{Rng, Time};
use tcn_workloads::Workload;

/// One FCT-sweep figure (Figs. 6–13) at [`bench_scale`].
fn sweep(cfg: SweepConfig) {
    let res = fct_sweep::run(&cfg, &bench_scale());
    assert!(!res.cells.is_empty());
    black_box(res);
}

/// `(bench name, figure body)` — what each figure regenerates is in
/// DESIGN §3.
const FIGURES: &[(&str, fn())] = &[
    ("fig01_perport_violation", || {
        let res = fig1::run(&[8], Time::from_ms(100));
        assert_eq!(res.cells.len(), 2);
        black_box(res);
    }),
    ("fig02_rate_measurement", || {
        let (r, _) = fig2::run(Time::from_ms(5), Time::from_ms(12));
        assert!(r.mq_final_gbps > 0.0);
        black_box(r);
    }),
    ("fig03_occupancy_trace", || {
        let res = fig3::run(Time::from_ms(5), Time::from_ms(3));
        assert_eq!(res.rows.len(), 3);
        black_box(res.rows);
    }),
    ("fig04_workload_cdfs", || {
        black_box(fig4::run());
    }),
    ("fig05_static_flows", || {
        let res = fig5::run(Time::from_ms(120));
        assert_eq!(res.rtts.len(), 4);
        black_box(res);
    }),
    ("fig06_isolation_dwrr", || sweep(SweepConfig::fig6())),
    ("fig07_isolation_wfq", || sweep(SweepConfig::fig7())),
    ("fig08_priority_sp_dwrr", || sweep(SweepConfig::fig8())),
    ("fig09_priority_sp_wfq", || sweep(SweepConfig::fig9())),
    ("fig10_leafspine_sp_dwrr", || {
        sweep(SweepConfig::fig10(LeafSpineConfig::small()))
    }),
    ("fig11_leafspine_sp_wfq", || {
        sweep(SweepConfig::fig11(LeafSpineConfig::small()))
    }),
    ("fig12_ecnstar", || {
        sweep(SweepConfig::fig12(LeafSpineConfig::small()))
    }),
    ("fig13_many_queues", || {
        sweep(SweepConfig::fig13(LeafSpineConfig::small()))
    }),
];

fn bench(c: &mut Criterion) {
    for &(name, body) in FIGURES {
        c.bench_function(name, |b| b.iter(body));
    }
    // Fig. 4's sampling throughput.
    let cdf = Workload::WebSearch.cdf();
    let mut rng = Rng::new(1);
    c.bench_function("fig04_sample_web_search", |b| {
        b.iter(|| cdf.sample(&mut rng))
    });
}

criterion_group! { name = benches; config = heavy(); targets = bench }
criterion_main!(benches);
