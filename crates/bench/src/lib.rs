//! `tcn-bench` — shared scaffolding for the Criterion benchmarks.
//!
//! `benches/figures.rs` regenerates each paper figure at a
//! bench-friendly scale, one table row per figure, and reports the wall
//! time of each regeneration; `benches/engine.rs` micro-benchmarks the
//! simulator substrate, and `benches/ablations.rs` sweeps the design
//! knobs DESIGN.md calls out (TCN threshold, Algorithm-1 `dq_thresh`,
//! queue count, marking point).
//!
//! The printed figures themselves come from the `tcn-experiments`
//! binaries; benches exist so `cargo bench` exercises every experiment
//! path end to end and tracks simulator performance over time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tcn_experiments::common::Scale;

/// The flow count used by FCT-sweep bench cells (kept small: a bench
/// iteration should be ~hundreds of milliseconds).
pub const BENCH_FLOWS: usize = 250;

/// One mid-range load for bench cells.
pub const BENCH_LOADS: &[f64] = &[0.7];

/// The bench scale for FCT sweeps.
pub fn bench_scale() -> Scale {
    Scale {
        flows: BENCH_FLOWS,
        loads: BENCH_LOADS,
        seed: 1,
    }
}

/// Criterion settings shared by the heavy (whole-simulation) benches.
pub fn heavy() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(8))
        .warm_up_time(std::time::Duration::from_secs(1))
}

pub mod criterion {
    //! Dependency-free drop-in for the subset of the `criterion` API the
    //! benches use (`Criterion`, `Bencher`, `BenchmarkGroup`,
    //! `BenchmarkId`, the two macros, `black_box`).
    //!
    //! The workspace builds fully offline, so the real `criterion` crate
    //! is unavailable. This shim keeps every `benches/*.rs` target
    //! compiling and running: each bench body executes for real (all
    //! behavioural assertions inside bench closures still fire) and a
    //! mean wall time is printed, but no statistics, plots, or baselines
    //! are produced.

    use std::time::{Duration, Instant};

    pub use crate::{criterion_group, criterion_main};

    /// Identity function that defeats constant-folding, so bench bodies
    /// are not optimized away.
    pub fn black_box<T>(x: T) -> T {
        std::hint::black_box(x)
    }

    /// Top-level bench driver (shim): holds the sampling budget.
    pub struct Criterion {
        sample_size: usize,
        measurement_time: Duration,
        warm_up_time: Duration,
    }

    impl Default for Criterion {
        fn default() -> Self {
            Criterion {
                sample_size: 10,
                measurement_time: Duration::from_secs(2),
                warm_up_time: Duration::from_millis(200),
            }
        }
    }

    impl Criterion {
        /// Set the number of samples collected per benchmark.
        pub fn sample_size(mut self, n: usize) -> Self {
            self.sample_size = n.max(1);
            self
        }

        /// Cap the total measurement time per benchmark.
        pub fn measurement_time(mut self, d: Duration) -> Self {
            self.measurement_time = d;
            self
        }

        /// Set the warm-up budget per benchmark.
        pub fn warm_up_time(mut self, d: Duration) -> Self {
            self.warm_up_time = d;
            self
        }

        /// Run one named benchmark.
        pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
        where
            F: FnMut(&mut Bencher),
        {
            self.run_one(name, &mut f);
            self
        }

        /// Open a named group of related benchmarks.
        pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
            BenchmarkGroup {
                name: name.to_string(),
                c: self,
            }
        }

        fn run_one<F>(&mut self, name: &str, f: &mut F)
        where
            F: FnMut(&mut Bencher),
        {
            // Warm-up: one untimed pass (bounded by warm_up_time only in
            // that we skip it entirely when the budget is zero).
            if !self.warm_up_time.is_zero() {
                let mut b = Bencher::default();
                f(&mut b);
            }
            let started = Instant::now();
            let mut total = Duration::ZERO;
            let mut iters = 0u64;
            for _ in 0..self.sample_size {
                let mut b = Bencher::default();
                f(&mut b);
                total += b.elapsed;
                iters += b.iters.max(1);
                if started.elapsed() > self.measurement_time {
                    break;
                }
            }
            let mean = total / (iters.max(1) as u32);
            println!("bench {name}: mean {mean:?} over {iters} iteration(s)");
        }
    }

    /// Passed to each bench closure; times the workload via [`Bencher::iter`].
    #[derive(Default)]
    pub struct Bencher {
        iters: u64,
        elapsed: Duration,
    }

    impl Bencher {
        /// Time one execution of `f` (the shim runs a single iteration
        /// per sample).
        pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
            let t0 = Instant::now();
            black_box(f());
            self.elapsed += t0.elapsed();
            self.iters += 1;
        }
    }

    /// A parameterized benchmark label.
    pub struct BenchmarkId(String);

    impl BenchmarkId {
        /// Label from a parameter value alone.
        pub fn from_parameter<P: std::fmt::Display>(p: P) -> Self {
            BenchmarkId(p.to_string())
        }

        /// Label from a function name and a parameter value.
        pub fn new<S: Into<String>, P: std::fmt::Display>(name: S, p: P) -> Self {
            BenchmarkId(format!("{}/{}", name.into(), p))
        }
    }

    /// Group of related benchmarks sharing a name prefix.
    pub struct BenchmarkGroup<'a> {
        name: String,
        c: &'a mut Criterion,
    }

    impl BenchmarkGroup<'_> {
        /// Run one parameterized benchmark in this group.
        pub fn bench_with_input<I: ?Sized, F>(
            &mut self,
            id: BenchmarkId,
            input: &I,
            mut f: F,
        ) -> &mut Self
        where
            F: FnMut(&mut Bencher, &I),
        {
            let label = format!("{}/{}", self.name, id.0);
            self.c.run_one(&label, &mut |b: &mut Bencher| f(b, input));
            self
        }

        /// End the group (no-op in the shim).
        pub fn finish(self) {}
    }
}

/// Expands to a function running the listed bench targets in order
/// (shim for `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $config;
            $( $target(&mut c); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::criterion::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Expands to `fn main` invoking each bench group (shim for
/// `criterion::criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
