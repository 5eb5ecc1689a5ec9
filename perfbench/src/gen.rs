//! Seeded workload generation.  Every input the benchmark feeds the
//! program is a pure function of the `--seed` argument: the serve-mix
//! request stream and the sve-driver problem sizes.

use v2d_core::problems::scenario::FAMILIES;
use v2d_core::problems::Family;

/// SplitMix64: tiny, dependency-free, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005e_ed0f_be4c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One serve-mix request: a registry deck near its smoke resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReq {
    pub family: Family,
    pub n1: usize,
    pub n2: usize,
    pub steps: usize,
    /// Ranks along x1 (the process grid is `np1 × 1`).
    pub np1: usize,
    /// `run.checkpoint_every` (0 = no rolling checkpoints).
    pub checkpoint_every: usize,
}

/// Rolling checkpoints kept per job.
pub const CHECKPOINT_KEEP: usize = 2;

impl ServeReq {
    /// The deck text, exactly as a client would submit it.
    pub fn deck(&self) -> String {
        let deck = self.family.scenario().deck(self.n1, self.n2, self.steps, self.np1, 1);
        if self.checkpoint_every == 0 {
            return deck;
        }
        assert!(deck.contains("[run]\n"), "registry decks carry a [run] section");
        deck.replacen(
            "[run]\n",
            &format!(
                "[run]\ncheckpoint_every = {}\ncheckpoint_keep = {CHECKPOINT_KEEP}\n",
                self.checkpoint_every
            ),
            1,
        )
    }
}

/// Fresh decks per family in one round.
pub const FRESH_PER_FAMILY: usize = 5;
/// The families of the hot pool: two radiation and two hydro families.
const HOT_FAMILIES: [Family; 4] = [Family::Gaussian, Family::RadShock, Family::Sod, Family::Sedov];
/// Times each hot deck is requested in one round.
pub const HOT_REPEATS: usize = 6;
/// Requests in one round: 40 fresh decks and 24 hot repeats.
pub const ROUND: usize = FAMILIES.len() * FRESH_PER_FAMILY + HOT_FAMILIES.len() * HOT_REPEATS;

fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// One round of the serve-mix request stream.  Its composition and
/// order are fixed so that every seed asks for the same work in the same
/// pattern; the seed draws the decks themselves.  Per family there are
/// five fresh decks at the smoke resolution plus 0–4 extra steps (the
/// seed deals the extras out; one deck runs on 2×1 ranks, one writes
/// rolling checkpoints every 2–4 steps), and a hot pool of four decks is
/// requested six times each (dedup and result-cache answers).  The round
/// is eight blocks of five fresh requests and three hot ones.
pub fn serve_requests(seed: u64) -> Vec<ServeReq> {
    let mut rng = Rng::new(seed);
    let mut fresh = vec![Vec::new(); FRESH_PER_FAMILY];
    for family in FAMILIES {
        let (n1, n2, steps) = family.scenario().smoke();
        let mut extra: Vec<usize> = (0..FRESH_PER_FAMILY).collect();
        shuffle(&mut rng, &mut extra);
        for (slot, &e) in extra.iter().enumerate() {
            fresh[slot].push(ServeReq {
                family,
                n1,
                n2,
                steps: steps + e,
                np1: if slot == 0 { 2 } else { 1 },
                checkpoint_every: if slot == 1 { 2 + rng.below(3) } else { 0 },
            });
        }
    }
    let hot: Vec<ServeReq> = HOT_FAMILIES
        .iter()
        .map(|&family| {
            let (n1, n2, steps) = family.scenario().smoke();
            ServeReq {
                family,
                n1,
                n2,
                // Beyond the fresh decks' extra steps, so never one of them.
                steps: steps + FRESH_PER_FAMILY + rng.below(3),
                np1: 1,
                checkpoint_every: 0,
            }
        })
        .collect();
    let mut fresh = fresh.into_iter().flatten();
    let mut hot = hot.iter().cycle().take(HOT_FAMILIES.len() * HOT_REPEATS).cloned();
    let block = [true, true, false, true, true, false, true, false];
    (0..ROUND / block.len())
        .flat_map(|_| block)
        .map(|is_fresh| {
            let next = if is_fresh { fresh.next() } else { hot.next() };
            next.expect("the block pattern matches the round's composition")
        })
        .collect()
}

/// The sve-driver size bands, one per residency level, L1 to HBM, as in
/// the residency ablation.  MATVEC streams about 8 arrays of `n`
/// doubles, so the bands are set by `64·n` bytes against the 64 KiB L1
/// and 8 MiB L2 of the modeled core (resident below three quarters of
/// each).
pub const SVE_BANDS: [(usize, usize); 3] = [(640, 760), (24_000, 26_000), (106_000, 110_000)];

/// The sve-driver problem sizes: one per band of [`SVE_BANDS`].
pub fn sve_sizes(seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5fe);
    SVE_BANDS.iter().map(|&(lo, hi)| lo + rng.below(hi - lo + 1)).collect()
}

/// FNV-1a over the bits of a field: the benchmark's own output hash.
pub fn fnv64_bits(data: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in data {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        assert_eq!(serve_requests(11), serve_requests(11));
        assert_ne!(serve_requests(11), serve_requests(12));
        assert_eq!(sve_sizes(11), sve_sizes(11));
        assert_ne!(sve_sizes(11), sve_sizes(12));
    }

    #[test]
    fn round_has_fixed_composition() {
        let round = serve_requests(3);
        assert_eq!(round.len(), ROUND);
        let decks: Vec<String> = round.iter().map(ServeReq::deck).collect();
        let distinct: std::collections::BTreeSet<&String> = decks.iter().collect();
        assert_eq!(distinct.len(), FAMILIES.len() * FRESH_PER_FAMILY + HOT_FAMILIES.len());
        for family in FAMILIES {
            let of: Vec<&ServeReq> = round.iter().filter(|r| r.family == family).collect();
            assert!(of.iter().filter(|r| r.np1 == 2).count() == 1);
            assert!(of.iter().filter(|r| r.checkpoint_every > 0).count() == 1);
        }
        for d in &decks {
            v2d_core::config_file::ParFile::parse(d).expect("generated decks parse");
        }
    }

    #[test]
    fn sve_sizes_span_the_residency_bands() {
        let model = v2d_machine::A64fxModel::ookami();
        for seed in 0..20 {
            let levels: Vec<_> =
                sve_sizes(seed).iter().map(|&n| model.residency(8 * 8 * n)).collect();
            assert_eq!(
                levels,
                vec![
                    v2d_machine::MemLevel::L1,
                    v2d_machine::MemLevel::L2,
                    v2d_machine::MemLevel::Hbm
                ]
            );
        }
    }
}
