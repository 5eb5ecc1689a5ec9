//! Differential tests pinning the event core's dispatch orders to each
//! other: every seeded shuffled order must reproduce the default
//! `(clock, rank)` order bit-for-bit — final field bits, virtual clocks,
//! recovery logs, and trace spans, timeout schedules included — across
//! the fuzzer's smoke band, and exact quiescence detection must turn a
//! deadlocked schedule into a typed wait-graph error.

use v2d_comm::{CommError, Spmd, Universe, WaitOn};
use v2d_machine::{CompilerProfile, FaultKind, FaultPlan};
use v2d_testkit::{check_supervise_seed_on, fuzz_spec, run_mini_observed, MiniSpec};

/// The shuffled orders every test below replays against the default.
const SHUFFLES: [Universe; 4] = [
    Universe::Shuffled(0),
    Universe::Shuffled(1),
    Universe::Shuffled(0xdead_beef),
    Universe::Shuffled(u64::MAX),
];

/// The fuzzer's always-on smoke band, replayed in every shuffled order.
/// The outcome (fields, steps, recoveries, typed errors, fault logs),
/// the per-lane virtual clocks and the full trace must match the
/// default order seed-for-seed: a timeout resolves only at quiescence
/// and elects its reporter by clock, so no order can move it.
#[test]
fn fuzz_smoke_band_is_bit_identical_across_dispatch_orders() {
    for seed in 0..32u64 {
        let spec = fuzz_spec(seed);
        let default = run_mini_observed(&spec, Universe::EventDriven);
        for order in SHUFFLES {
            let shuffled = run_mini_observed(&spec, order);
            assert_eq!(shuffled.len(), default.len(), "seed {seed}: rank count [{spec:?}]");
            for (rank, (d, s)) in default.iter().zip(&shuffled).enumerate() {
                assert_eq!(d, s, "seed {seed}: rank {rank} diverges under {order:?} [{spec:?}]");
            }
        }
    }
}

/// Every post-registry scenario family replayed in every shuffled order
/// at a small multi-rank tiling: final field bits (radiation *and*,
/// where the family carries one, the conserved hydro state appended by
/// the mini harness), virtual clocks, and traces must agree
/// bit-for-bit.  The fuzz band above samples families at random; this
/// pins each one deterministically so a divergence names the family,
/// not a seed.
#[test]
fn registry_scenarios_are_bit_identical_across_dispatch_orders() {
    use v2d_core::problems::Family;
    for family in [Family::Sedov, Family::KelvinHelmholtz, Family::RadShock, Family::Multigroup] {
        let spec = MiniSpec::linear(16, 8, 3).tiled(2, 1).with_scenario(family);
        let default = run_mini_observed(&spec, Universe::EventDriven);
        for (rank, d) in default.iter().enumerate() {
            assert!(d.run.converged(&spec), "{family}: rank {rank} did not converge");
        }
        for order in SHUFFLES {
            assert_eq!(
                run_mini_observed(&spec, order),
                default,
                "{family}: observation diverges under {order:?}"
            );
        }
    }
}

/// A rank killed by its fault plan must surface the *same* typed
/// verdicts in every order: the victim reports `StepError::Lost`, and
/// the survivor's wait on the dead peer resolves into a typed
/// `CommError::RankDead` through the scheduler's dead-rank registry.
/// Death charges no virtual time, so clocks and traces stay
/// bit-identical too.
#[test]
fn rank_kill_produces_identical_typed_death_in_every_order() {
    // Two ranks: the survivor observes the victim directly, so the
    // verdict does not depend on cascade ordering.
    let plan = FaultPlan::empty().with_event(2, Some(0), FaultKind::RankKill);
    let spec = MiniSpec::linear(16, 8, 4).tiled(2, 1).with_plan(plan);
    let default = run_mini_observed(&spec, Universe::EventDriven);
    let killed = default[0].run.error.as_deref().unwrap_or("");
    assert!(killed.contains("rank killed by fault plan"), "victim verdict: {killed}");
    assert_eq!(default[0].run.steps_done, 2, "the kill lands at the top of step 2");
    let survivor = default[1].run.error.as_deref().unwrap_or("");
    assert!(survivor.contains("peer rank 0 is dead"), "survivor verdict: {survivor}");
    for order in SHUFFLES {
        assert_eq!(
            run_mini_observed(&spec, order),
            default,
            "kill observation diverges under {order:?}"
        );
    }
}

/// The supervised-recovery fuzz axis replayed in every shuffled order:
/// every seed's full `Result` (recovery ledger, final fields, shrunk
/// decomposition, or typed `SuperviseError`) must agree order-for-order.
#[test]
fn supervised_recovery_seeds_agree_across_dispatch_orders() {
    for seed in 0..8u64 {
        let default = check_supervise_seed_on(seed, Universe::EventDriven)
            .unwrap_or_else(|msg| panic!("default order: {msg}"));
        for order in SHUFFLES {
            let shuffled = check_supervise_seed_on(seed, order)
                .unwrap_or_else(|msg| panic!("{order:?}: {msg}"));
            assert_eq!(
                shuffled, default,
                "seed {seed}: supervised outcome diverges under {order:?}"
            );
        }
    }
}

/// The ROADMAP deadlock-regression coordinates (24×12 grid, 2×1
/// tiling), driven into an actual cyclic wait in every order: the
/// scheduler proves quiescence and hands every rank the complete wait
/// graph as a typed error.  Exact deadlock detection *is* the deadline.
#[test]
fn exact_deadlock_reports_the_wait_graph_at_regression_coordinates() {
    let spec = MiniSpec::nonlinear(24, 12, 4).tiled(2, 1);
    const TAG: u32 = 0x0dead;
    for order in std::iter::once(Universe::EventDriven).chain(SHUFFLES) {
        let outs = Spmd::new(spec.ranks())
            .with_profiles(vec![CompilerProfile::cray_opt()])
            .universe(order)
            .run(|ctx| {
                // Both ranks wait on a message the partner never sends:
                // the cross-recv cycle the historic FieldNan deadlock
                // reduced to.
                let partner = 1 - ctx.rank();
                ctx.comm.recv(&mut ctx.sink, partner, TAG).expect_err("schedule must deadlock")
            });
        assert_eq!(outs.len(), 2);
        for (rank, err) in outs.iter().enumerate() {
            match err {
                CommError::Deadlock { rank: r, waiting } => {
                    assert_eq!(*r, rank, "the error names the rank it unblocked");
                    assert_eq!(waiting.len(), 2, "both ranks appear in the wait graph");
                    for edge in waiting {
                        match edge.on {
                            WaitOn::Recv { src, tag } => {
                                assert_eq!(src, 1 - edge.rank, "each edge points at the partner");
                                assert_eq!(tag, TAG);
                            }
                            ref other => panic!("unexpected wait edge kind: {other:?}"),
                        }
                    }
                }
                other => panic!("expected CommError::Deadlock, got: {other}"),
            }
        }
    }
}
