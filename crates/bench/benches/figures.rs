//! Bench: regenerate every paper figure (Figs. 1–13) at bench scale —
//! one table row per figure, each keeping the behavioural assertion its
//! regeneration must satisfy.

use tcn_bench::criterion::{black_box, criterion_group, criterion_main, Criterion};
use tcn_bench::{bench_scale, heavy};
use tcn_experiments::fct_sweep::run_schemes_with_threads;
use tcn_experiments::figs::SWEEPS;
use tcn_experiments::runner::default_threads;
use tcn_experiments::{fig1, fig2, fig3, fig4, fig5};
use tcn_net::LeafSpineConfig;
use tcn_sim::{Rng, Time};
use tcn_workloads::Workload;

/// `(bench name, figure body)` of Figs. 1–5 — what each figure
/// regenerates is in DESIGN §3. Figs. 6–13 come from the registry's
/// [`SWEEPS`] table.
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
];

fn bench(c: &mut Criterion) {
    for &(name, body) in FIGURES {
        c.bench_function(name, |b| b.iter(body));
    }
    for fig in &SWEEPS {
        // The small fabric at [`bench_scale`], on all of this host's cores.
        let (cfg, scale) = ((fig.config)(LeafSpineConfig::small()), bench_scale());
        c.bench_function(fig.name, |b| {
            b.iter(|| {
                let res = run_schemes_with_threads(&cfg, &scale, &cfg.schemes(), default_threads());
                assert!(!res.cells.is_empty());
                res
            })
        });
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
