//! The seeded schedule/fault fuzzer: each seed deterministically derives
//! a mini-simulation (grid × tiling × physics × fault schedule ×
//! recovery policy) and runs it, asserting the three harness-wide
//! properties:
//!
//! * **no deadlock** — every run ends in convergence or a typed error
//!   (the event core turns a stuck schedule into a typed
//!   `CommError::Deadlock`, so "the run returned" is the check);
//! * **schedule-independent replay** — the same seed, replayed in a
//!   seed-derived shuffled dispatch order ([`replay_order`]),
//!   reproduces the same final field bits, fault log, and outcome;
//! * **zero-fault bit-identity** — a seed whose derived plan has no
//!   events produces exactly the bits of an injector-free run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use v2d_comm::Universe;
use v2d_core::problems::FAMILIES;
use v2d_core::RecoveryPolicy;
use v2d_machine::fault::SplitMix64;
use v2d_machine::FaultPlan;

use crate::mini::{merged_log, run_mini_on, MiniSpec, RankRun};

/// The shuffled dispatch order a seed's replay runs in.  A replay that
/// matches the first run then proves the outcome independent of the
/// schedule as well as deterministic.
pub fn replay_order(seed: u64) -> Universe {
    Universe::Shuffled(SplitMix64::new(seed ^ 0x5EED_0DE5).next_u64())
}

/// Run `f`, turning a panic into an error message naming `what`.
pub(crate) fn caught<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("{what} panicked: {msg}")
    })
}

/// Grids the fuzzer samples from: small enough for CI, varied enough to
/// hit uneven tile splits in both directions.
pub(crate) const GRIDS: &[(usize, usize)] = &[(16, 8), (24, 12), (12, 12), (20, 10), (8, 16)];

/// Rank tilings: single rank, both strip orientations, and a 2×2 square.
pub(crate) const TILINGS: &[(usize, usize)] = &[(1, 1), (2, 1), (1, 2), (2, 2)];

/// Derive the scenario for `seed`.  Pure function of the seed: the
/// replay property leans on this.
pub fn fuzz_spec(seed: u64) -> MiniSpec {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
    let (n1, n2) = GRIDS[(rng.next_u64() % GRIDS.len() as u64) as usize];
    let (np1, np2) = TILINGS[(rng.next_u64() % TILINGS.len() as u64) as usize];
    let steps = 3 + (rng.next_u64() % 3) as usize;
    let nonlinear = rng.next_u64().is_multiple_of(2);
    let n_events = (rng.next_u64() % 4) as usize; // 0 ⇒ a zero-fault control case
    let base = if nonlinear {
        MiniSpec::nonlinear(n1, n2, steps)
    } else {
        MiniSpec::linear(n1, n2, steps)
    };
    let mut spec = base.tiled(np1, np2);
    if n_events > 0 {
        let plan = FaultPlan::campaign(seed, steps as u64, spec.ranks(), n_events);
        spec = spec.with_plan(plan);
    }
    let mut spec =
        spec.with_policy(RecoveryPolicy { max_dt_halvings: 1 + (rng.next_u64() % 3) as u32 });
    // Scenario axis, drawn *last* so every pre-registry seed derives the
    // exact same spec it always did up to this point.  Half the seeds
    // keep the legacy pulse pair; the other half drive one of the
    // registry families (config + init swapped in, fault plan and
    // policy unchanged).
    let draw = rng.next_u64() % (2 * FAMILIES.len() as u64);
    if let Some(family) = FAMILIES.get(draw as usize) {
        spec = spec.with_scenario(*family);
    }
    spec
}

/// One seed's outcome, or a message describing which property failed.
/// The first run (and the zero-fault control) runs in `universe`; the
/// replay runs in [`replay_order`]`(seed)`.
pub fn check_seed_on(seed: u64, universe: Universe) -> Result<Vec<RankRun>, String> {
    let spec = fuzz_spec(seed);
    let run = |what: &str, spec: &MiniSpec, universe: Universe| {
        caught(&format!("seed {seed}: {what}"), || run_mini_on(spec, universe))
            .map_err(|msg| format!("{msg} [{spec:?}]"))
    };
    let first = run("run", &spec, universe)?;
    // Every rank must either converge or end in a typed error.
    for (rank, out) in first.iter().enumerate() {
        if out.error.is_none() && out.steps_done != spec.steps {
            return Err(format!(
                "seed {seed}: rank {rank} stopped at step {} of {} without an error [{spec:?}]",
                out.steps_done, spec.steps
            ));
        }
    }
    // The shuffled replay must be bit-identical (fields, logs, outcomes).
    let second = run("replay", &spec, replay_order(seed))?;
    if first != second {
        return Err(format!(
            "seed {seed}: replay drift [{spec:?}]\nfirst log:\n{}\nsecond log:\n{}",
            merged_log(&first),
            merged_log(&second)
        ));
    }
    // A zero-fault plan must be bit-invisible next to no injector at all.
    if spec.plan.as_ref().is_none_or(|p| p.events.is_empty()) {
        let bare = MiniSpec { plan: None, ..spec.clone() };
        let control = run("control run", &bare, universe)?;
        for (rank, (a, b)) in first.iter().zip(&control).enumerate() {
            if a.bits != b.bits {
                return Err(format!(
                    "seed {seed}: rank {rank}: zero-fault run differs from injector-free bits \
                     [{spec:?}]"
                ));
            }
        }
    }
    Ok(first)
}

/// Check `seeds` sequentially in `universe`, collecting every failing
/// seed with its diagnosis.  Runs stay sequential on purpose: the
/// mini-sims already spawn one carrier thread per rank.
pub fn campaign_on(seeds: impl IntoIterator<Item = u64>, universe: Universe) -> Vec<(u64, String)> {
    let mut failures = Vec::new();
    for seed in seeds {
        if let Err(msg) = check_seed_on(seed, universe) {
            failures.push((seed, msg));
        }
    }
    failures
}
