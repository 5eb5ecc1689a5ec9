//! The seeded schedule/fault fuzzer, in two sizes: an always-on smoke
//! band, and the `#[ignore]`d full campaign the scheduled CI job runs
//! (≥ 200 scenarios).  Every seed replays in its own shuffled dispatch
//! order, so the campaign checks schedule independence as it goes.
//!
//! A failure names the seed — reproduce locally with
//! `v2d_testkit::check_seed_on(seed, Universe::EventDriven)`; the
//! derived spec is printed in the diagnosis.

use v2d_comm::Universe;
use v2d_testkit::{campaign_on, fuzz_spec};

fn report(failures: &[(u64, String)]) -> String {
    failures.iter().map(|(_, msg)| msg.as_str()).collect::<Vec<_>>().join("\n---\n")
}

#[test]
fn fuzz_smoke_band_is_deadlock_free_and_replays() {
    let failures = campaign_on(0..32, Universe::EventDriven);
    assert!(failures.is_empty(), "{} failing seed(s):\n{}", failures.len(), report(&failures));
}

#[test]
fn fuzz_spec_is_a_pure_function_of_the_seed() {
    for seed in 0..64 {
        let a = format!("{:?}", fuzz_spec(seed));
        let b = format!("{:?}", fuzz_spec(seed));
        assert_eq!(a, b, "seed {seed} derived two different scenarios");
    }
}

/// The full campaign: 200 seeded scenarios across grids × tilings ×
/// fault schedules × recovery policies — a deadlocked schedule comes
/// back as a typed `CommError::Deadlock` naming the seed, not a hang.
/// Scheduled-CI only; run with `cargo test -p v2d-testkit -- --ignored`.
#[test]
#[ignore = "slow: 200-scenario campaign for the scheduled CI job"]
fn fuzz_full_campaign_200_scenarios() {
    let failures = campaign_on(0..200, Universe::EventDriven);
    assert!(failures.is_empty(), "{} failing seed(s):\n{}", failures.len(), report(&failures));
}
