//! Congestion-control refactor byte-identity: DCTCP and ECN* routed
//! through the `CongestionControl` trait must reproduce the
//! pre-refactor sender *exactly* — same FCTs, same drops, same
//! timeouts, in every figure-facing number. The pins below are FNV-1a
//! hashes of the full fig6-slice `SweepResult` JSON captured on the
//! commit immediately before the trait existed; any float reordered,
//! any RNG draw added, any packet field touched on the wire shows up
//! here as a hash mismatch.

use tcn_experiments::checkpoint::fnv1a;
use tcn_experiments::common::Scale;
use tcn_experiments::fct_sweep::{self, SweepConfig};
use tcn_experiments::json::ToJson;
use tcn_net::TransportChoice;

/// The fig6 slice the pre-refactor hashes were captured on.
fn slice_scale() -> Scale {
    Scale {
        flows: 300,
        loads: &[0.8],
        seed: 11,
    }
}

/// Full-sweep JSON hash for `cfg` at a worker-thread count.
fn slice_hash(cfg: &SweepConfig, threads: usize) -> u64 {
    let res = fct_sweep::run_schemes_with_threads(
        cfg,
        &slice_scale(),
        &cfg.schemes(),
        threads,
    );
    fnv1a(&res.to_json().pretty())
}

/// DCTCP through the trait == DCTCP before the trait, at 1 and 4
/// worker threads. Hash captured pre-refactor (see module docs).
#[test]
fn dctcp_through_trait_is_byte_identical_to_pre_refactor() {
    let cfg = SweepConfig::fig6();
    for threads in [1usize, 4] {
        assert_eq!(
            slice_hash(&cfg, threads),
            0x75348d51cf0d1563,
            "DCTCP fig6 slice diverged from the pre-refactor sender at \
             {threads} thread(s)"
        );
    }
}

/// ECN* through the trait == ECN* before the trait, at 1 and 4 worker
/// threads.
#[test]
fn ecnstar_through_trait_is_byte_identical_to_pre_refactor() {
    let cfg = SweepConfig {
        transport: TransportChoice::SimEcnStar,
        ..SweepConfig::fig6()
    };
    for threads in [1usize, 4] {
        assert_eq!(
            slice_hash(&cfg, threads),
            0x0af59e3f92f1cf83,
            "ECN* fig6 slice diverged from the pre-refactor sender at \
             {threads} thread(s)"
        );
    }
}
