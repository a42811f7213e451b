//! Deterministic parallel cell runner for the experiment sweeps.
//!
//! Every sweep in this crate is an embarrassingly parallel grid: each
//! (scheme, load) cell builds its own `NetworkSim`, with its own
//! `EventQueue` and its own `Rng` streams derived from the cell index —
//! no state is shared between cells. This module exploits that: cells
//! are claimed from an atomic work index by a scoped thread pool
//! (work-stealing in the sense that fast threads drain the tail of the
//! grid), while results land in **canonical cell order** — slot `i` of
//! the returned `Vec` is always cell `i` — so the merged output is
//! byte-identical at any thread count, including 1.
//!
//! Zero dependencies: `std::thread::scope` plus an `AtomicUsize`. The
//! thread count is the caller's (`--threads` / `TCN_THREADS` arrive as
//! [`crate::options::RunOptions::threads`]); [`default_threads`] is the
//! host's parallelism.
//!
//! Two tiers of fault handling: [`run_cells_with`] propagates panics
//! (a broken cell aborts the sweep), while [`run_cell_outcomes_with`]
//! isolates each cell with `catch_unwind`, retries deterministically up
//! to a bounded attempt count, and returns a [`CellOutcome`] per cell so
//! one bad cell quarantines instead of sinking the whole grid.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tcn_core::TcnError;

/// Why an isolated cell failed (its final attempt).
#[derive(Debug, Clone, PartialEq)]
pub enum CellError {
    /// The cell function panicked; the payload is the panic message.
    Panic(String),
    /// The cell returned a typed simulation error.
    Error(TcnError),
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panic(msg) => write!(f, "panic: {msg}"),
            CellError::Error(e) => write!(f, "{e}"),
        }
    }
}

/// The result of one cell run under fault isolation: either a value, or
/// a structured failure after the last allowed attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome<T> {
    /// The cell completed (possibly after retries).
    Ok(T),
    /// Every attempt failed; `error` is the last failure seen.
    Failed {
        /// The final attempt's failure.
        error: CellError,
        /// How many attempts were made.
        attempts: u32,
    },
}

impl<T> CellOutcome<T> {
    /// The value, if the cell completed.
    pub fn ok(&self) -> Option<&T> {
        match self {
            CellOutcome::Ok(v) => Some(v),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// Consume into the value, if the cell completed.
    pub fn into_ok(self) -> Option<T> {
        match self {
            CellOutcome::Ok(v) => Some(v),
            CellOutcome::Failed { .. } => None,
        }
    }
}

/// Best-effort extraction of the human-readable panic message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one fallible computation under panic isolation: a panic becomes
/// [`CellError::Panic`], a typed error [`CellError::Error`].
pub fn run_isolated<T>(f: impl FnOnce() -> Result<T, TcnError>) -> Result<T, CellError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(CellError::Error(e)),
        Err(payload) => Err(CellError::Panic(panic_message(payload.as_ref()))),
    }
}

/// The quarantine list of a finished sweep: `(cell index, attempts,
/// error)` for every failed cell, in canonical cell order.
pub fn quarantine<T>(outcomes: &[CellOutcome<T>]) -> Vec<(usize, u32, CellError)> {
    outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| match o {
            CellOutcome::Ok(_) => None,
            CellOutcome::Failed { error, attempts } => Some((i, *attempts, error.clone())),
        })
        .collect()
}

/// The host's available parallelism, else 1.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `f(0..n)` across `threads` scoped workers and return the results
/// in cell order (`out[i] == f(i)`), regardless of which worker ran
/// which cell. `f` must be a pure function of the cell index for the
/// output to be thread-count-invariant — which is exactly the property
/// the sweeps' per-cell seed derivation guarantees.
///
/// Panics in `f` propagate: a panicking worker poisons its result slot
/// and the scope re-raises when joined.
pub fn run_cells_with<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        // Serial fast path: no pool, no locks — and the reference
        // ordering the parallel path must reproduce.
        return (0..n).map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped a cell")
        })
        .collect()
}

/// Fault-isolated variant of [`run_cells_with`]: each cell runs under
/// [`run_isolated`] with up to `attempts` tries (`attempts` is clamped
/// to ≥ 1), and a cell that fails every attempt lands as
/// [`CellOutcome::Failed`] while every other cell completes normally.
///
/// `f(i, attempt)` receives the attempt number (0-based) so the cell can
/// derive a fresh deterministic sub-seed per retry — attempt 0 MUST use
/// the same seeds as a non-isolated run so that an all-healthy sweep is
/// byte-identical to one run without isolation.
pub fn run_cell_outcomes_with<T, F>(
    threads: usize,
    n: usize,
    attempts: u32,
    f: F,
) -> Vec<CellOutcome<T>>
where
    T: Send,
    F: Fn(usize, u32) -> Result<T, TcnError> + Sync,
{
    let attempts = attempts.max(1);
    run_cells_with(threads, n, |i| {
        let mut last: Option<CellError> = None;
        for attempt in 0..attempts {
            match run_isolated(|| f(i, attempt)) {
                Ok(v) => return CellOutcome::Ok(v),
                Err(e) => last = Some(e),
            }
        }
        CellOutcome::Failed {
            error: last.expect("at least one attempt ran"),
            attempts,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_cell_order() {
        let out = run_cells_with(4, 100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_output() {
        // A cell function with per-cell internal randomness (derived
        // from the index, like the sweeps' flow seeds).
        let cell = |i: usize| {
            let mut rng = tcn_sim::Rng::new(0xBEEF ^ i as u64);
            (0..50).map(|_| rng.gen_range(1000)).collect::<Vec<u64>>()
        };
        let serial = run_cells_with(1, 24, cell);
        for threads in [2, 4, 8] {
            assert_eq!(serial, run_cells_with(threads, 24, cell), "{threads} threads");
        }
    }

    #[test]
    fn zero_and_single_cell_edge_cases() {
        assert_eq!(run_cells_with(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_cells_with(8, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn more_threads_than_cells_is_fine() {
        assert_eq!(run_cells_with(64, 3, |i| i), vec![0, 1, 2]);
    }

    /// A grid where cell 3 always panics and cell 5 always errors.
    fn faulty_cell(i: usize, _attempt: u32) -> Result<u64, TcnError> {
        match i {
            3 => panic!("cell 3 exploded"),
            5 => Err(TcnError::config("cell 5 misconfigured")),
            _ => Ok(i as u64 * 10),
        }
    }

    #[test]
    fn one_panicking_cell_does_not_kill_the_sweep() {
        let out = run_cell_outcomes_with(4, 8, 1, faulty_cell);
        assert_eq!(out.len(), 8);
        for (i, o) in out.iter().enumerate() {
            match i {
                3 => match o {
                    CellOutcome::Failed { error: CellError::Panic(msg), attempts: 1 } => {
                        assert!(msg.contains("cell 3 exploded"), "{msg}");
                    }
                    other => panic!("cell 3: {other:?}"),
                },
                5 => match o {
                    CellOutcome::Failed { error: CellError::Error(e), attempts: 1 } => {
                        assert_eq!(e.kind(), "config");
                    }
                    other => panic!("cell 5: {other:?}"),
                },
                _ => assert_eq!(o.ok(), Some(&(i as u64 * 10)), "cell {i}"),
            }
        }
    }

    #[test]
    fn quarantine_list_is_thread_count_invariant() {
        let reference = quarantine(&run_cell_outcomes_with(1, 16, 2, faulty_cell));
        assert_eq!(reference.len(), 2);
        assert_eq!(reference[0].0, 3);
        assert_eq!(reference[1].0, 5);
        for threads in [4, 8] {
            let q = quarantine(&run_cell_outcomes_with(threads, 16, 2, faulty_cell));
            assert_eq!(q, reference, "{threads} threads");
        }
    }

    #[test]
    fn retry_recovers_flaky_cell() {
        // Fails on attempt 0, succeeds on attempt 1 — deterministic
        // "flakiness" keyed on the attempt number.
        let out = run_cell_outcomes_with(2, 4, 3, |i, attempt| {
            if i == 2 && attempt == 0 {
                return Err(TcnError::config("transient"));
            }
            Ok((i, attempt))
        });
        // Healthy cells complete on attempt 0; cell 2 on attempt 1.
        assert_eq!(out[0].ok(), Some(&(0, 0)));
        assert_eq!(out[2].ok(), Some(&(2, 1)));
    }

    #[test]
    fn exhausted_retries_report_attempt_count() {
        let out = run_cell_outcomes_with(1, 1, 3, |_i, _attempt| {
            Err::<(), _>(TcnError::config("always broken"))
        });
        match &out[0] {
            CellOutcome::Failed { attempts, .. } => assert_eq!(*attempts, 3),
            other => panic!("expected failure: {other:?}"),
        }
    }
}
