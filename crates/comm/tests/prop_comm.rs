//! Property tests of the communicator: collectives against sequential
//! oracles, determinism of virtual time, and tile-map invariants under
//! random shapes.

use proptest::prelude::*;
use v2d_comm::{ReduceOp, Spmd, TileMap, Universe};
use v2d_machine::CompilerProfile;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_matches_sequential_oracle(
        n_ranks in 1usize..8,
        values in proptest::collection::vec(-1e6f64..1e6, 1..6),
    ) {
        let values2 = values.clone();
        let outs = Spmd::new(n_ranks)
            .with_profiles(vec![CompilerProfile::fujitsu()])
            .run(move |ctx| {
                let mut mine: Vec<f64> =
                    values2.iter().map(|v| v + ctx.rank() as f64).collect();
                ctx.comm.allreduce(&mut ctx.sink, ReduceOp::Sum, &mut mine);
                mine
            });
        for out in &outs {
            for (i, v) in values.iter().enumerate() {
                let want: f64 = (0..n_ranks).map(|r| v + r as f64).sum();
                prop_assert!((out[i] - want).abs() < 1e-9 * (1.0 + want.abs()));
            }
        }
    }

    #[test]
    fn min_max_match_oracle(n_ranks in 2usize..8, base in -100.0f64..100.0) {
        let outs = Spmd::new(n_ranks)
            .with_profiles(vec![CompilerProfile::cray_opt()])
            .run(move |ctx| {
                let v = base + ctx.rank() as f64;
                (
                    ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Min, v),
                    ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Max, v),
                )
            });
        for (mn, mx) in outs {
            prop_assert_eq!(mn, base);
            prop_assert_eq!(mx, base + (n_ranks - 1) as f64);
        }
    }

    #[test]
    fn tilemap_partitions_any_grid(
        n1 in 1usize..64,
        n2 in 1usize..64,
        np1 in 1usize..8,
        np2 in 1usize..8,
    ) {
        prop_assume!(np1 <= n1 && np2 <= n2);
        let map = TileMap::new(n1, n2, np1, np2);
        let mut covered = vec![false; n1 * n2];
        for r in 0..map.n_ranks() {
            let t = map.tile(r);
            prop_assert!(t.n1 >= 1 && t.n2 >= 1);
            for i2 in t.i2_start..t.i2_start + t.n2 {
                for i1 in t.i1_start..t.i1_start + t.n1 {
                    let k = i2 * n1 + i1;
                    prop_assert!(!covered[k], "zone ({i1},{i2}) covered twice");
                    covered[k] = true;
                    prop_assert_eq!(map.owner(i1, i2), r);
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c), "grid not fully covered");
    }

    #[test]
    fn virtual_clocks_are_schedule_independent(
        n_ranks in 2usize..6,
        rounds in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let run = move |universe: Universe| {
            Spmd::new(n_ranks)
                .with_profiles(vec![CompilerProfile::gnu()])
                .universe(universe)
                .run(move |ctx| {
                    for r in 0..rounds {
                        // Uneven local work between rounds.
                        let work = ((ctx.rank() + r) % 3) as f64 * 1e-3;
                        ctx.sink.lanes[0].advance_secs(work);
                        ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, r as f64);
                    }
                    ctx.sink.lanes[0].clock.now().cycles()
                })
        };
        prop_assert_eq!(run(Universe::EventDriven), run(Universe::Shuffled(seed)));
    }
}
