//! Regression pin for the ROADMAP deadlock: a 2-rank `FieldNan`
//! injected into the *nonlinear* (`scaled_config`) Gaussian pulse —
//! 24×12 grid, 2×1 tiling, fault at step 2 on rank 0 — used to drive
//! rank 0 into a NaN-determinant panic inside `BlockJacobi::new` before
//! its first collective of the solve, leaving rank 1 in a timeout-less
//! collective condvar forever.
//!
//! Post-fix, the preconditioner NaN-poisons instead of panicking, the
//! poison reaches the solver's globally-reduced scalars, every rank
//! agrees on the non-finite breakdown, and the driver's scrub rung
//! cleans the field and retries.  The contract pinned here: the run
//! *completes* — convergence or typed error on every rank, never a
//! hang — and in practice recovers.  A hang cannot hide here: the
//! event core would turn one into a typed `CommError::Deadlock`.

use v2d_comm::Universe;
use v2d_machine::{FaultKind, FaultPlan};
use v2d_testkit::{merged_log, run_mini_on, MiniSpec};

/// The exact ROADMAP coordinates.
fn roadmap_spec() -> MiniSpec {
    let plan = FaultPlan::empty().with_event(2, Some(0), FaultKind::FieldNan);
    MiniSpec::nonlinear(24, 12, 4).tiled(2, 1).with_plan(plan)
}

#[test]
fn nonlinear_field_nan_at_roadmap_coordinates_completes_and_recovers() {
    let spec = roadmap_spec();
    let outs = run_mini_on(&spec, Universe::EventDriven);
    let log = merged_log(&outs);
    for (rank, out) in outs.iter().enumerate() {
        assert!(
            out.converged(&spec) || out.error.is_some(),
            "rank {rank} neither converged nor erred:\n{log}"
        );
    }
    // The fault fired where scheduled, on the scheduled rank...
    assert!(log.contains("step 2 rank 0: inject field-nan"), "fault did not fire:\n{log}");
    // ...and with the preconditioner poison fix the ladder's scrub rung
    // recovers the run outright: all steps complete, all bits finite.
    for (rank, out) in outs.iter().enumerate() {
        assert!(out.converged(&spec), "rank {rank} failed to recover: {:?}\n{log}", out.error);
        assert!(out.recoveries >= 1 || rank != 0, "rank 0 must record a recovery:\n{log}");
        for (i, b) in out.bits.iter().enumerate() {
            assert!(
                f64::from_bits(*b).is_finite(),
                "rank {rank} cell {i} not finite after recovery:\n{log}"
            );
        }
    }
    assert!(log.contains("scrubbed"), "scrub rung never ran:\n{log}");
}

#[test]
fn roadmap_coordinates_replay_bit_identically() {
    let run = || run_mini_on(&roadmap_spec(), Universe::EventDriven);
    let a = run();
    let b = run();
    assert_eq!(a, b, "the deadlock-regression scenario must replay bit-identically");
}
