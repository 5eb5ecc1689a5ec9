//! One deck run through the public driver API, the way `v2d` runs it:
//! `Spmd` launch, `V2dSim::new`, scenario init, the step loop with
//! optional rolling checkpoints, and the final checkpoint gather.  The
//! paper workloads time it; the serve mix uses it as the direct run
//! each service answer is checked against.

use std::path::PathBuf;
use std::time::Instant;

use v2d_comm::{RankCtx, Spmd, TileMap};
use v2d_core::checkpoint::{write_checkpoint, CheckpointStore};
use v2d_core::problems::Family;
use v2d_core::sim::{V2dConfig, V2dSim};
use v2d_linalg::TileVec;
use v2d_machine::cost::N_KERNEL_CLASSES;
use v2d_machine::CompilerProfile;

use crate::host::{busy_wait, thread_usage};
use crate::trace::{Layer, Span, Spans};

/// What to run.
pub struct DeckSpec {
    pub cfg: V2dConfig,
    pub family: Family,
    pub np: (usize, usize),
    /// Model only the Cray-opt lane, as the supervisor does, instead of
    /// all four compilers, as `v2d` does.
    pub one_lane: bool,
    /// Steps to take (the deck's own count, or fewer).
    pub steps: usize,
    /// Rolling checkpoints every this many steps into `store`, kept
    /// [`crate::gen::CHECKPOINT_KEEP`] deep (0 = none).
    pub checkpoint_every: usize,
    pub store: Option<PathBuf>,
    /// Rank 0 saves the final checkpoint here.
    pub final_path: Option<PathBuf>,
    /// Steps whose entry state each rank keeps for the probe.
    pub snap_steps: Vec<usize>,
    /// Run the scenario's validator after the last step (timed only).
    pub validate: bool,
    pub trace: bool,
    pub run_id: u64,
    /// Busy-wait this fraction of each step's time inside the step
    /// wrapper (the injected slowdown of a red run).
    pub inject: f64,
}

/// A step's entry state on one rank, for the probe.
pub struct Snap {
    pub step: usize,
    pub erad: TileVec,
    pub source: TileVec,
    /// BiCGSTAB iterations of the three stages, as the timed run saw them.
    pub iters: [usize; 3],
}

/// One rank's view of the run.
pub struct RankOut {
    pub t_body: Instant,
    pub new_s: f64,
    pub step_wall: Vec<f64>,
    pub iters: u64,
    pub reductions: u64,
    /// Modeled seconds per compiler lane.
    pub clocks: Vec<f64>,
    /// Lane-0 kernel calls and computed bytes, per kernel class.
    pub kernel_calls: [u64; N_KERNEL_CLASSES],
    pub kernel_bytes: [u64; N_KERNEL_CLASSES],
    pub msgs: u64,
    pub bytes: u64,
    /// The gathered final fields (rank 0 only).
    pub field: Option<Vec<f64>>,
    pub saves: u64,
    pub save_bytes: u64,
    pub ctx_switches: u64,
    pub spans: Vec<Span>,
    pub snaps: Vec<Snap>,
}

/// The whole run.
pub struct DeckOut {
    pub wall_s: f64,
    /// Launch to the first rank body starting.
    pub launch_s: f64,
    pub dispatches: u64,
    pub ranks: Vec<RankOut>,
}

impl DeckOut {
    pub fn field(&self) -> &[f64] {
        self.ranks[0].field.as_deref().expect("rank 0 keeps the gathered field")
    }

    pub fn sum(&self, f: impl Fn(&RankOut) -> u64) -> u64 {
        self.ranks.iter().map(f).sum()
    }

    /// Modeled seconds per lane, maximum over ranks (the job is as slow
    /// as its slowest rank).
    pub fn clocks(&self) -> Vec<f64> {
        (0..self.ranks[0].clocks.len())
            .map(|i| self.ranks.iter().map(|r| r.clocks[i]).fold(0.0, f64::max))
            .collect()
    }

    pub fn spans(&mut self) -> Vec<Span> {
        self.ranks.iter_mut().flat_map(|r| std::mem::take(&mut r.spans)).collect()
    }
}

pub fn run(spec: &DeckSpec, epoch: Instant, host: &mut Spans) -> DeckOut {
    let t_launch = Instant::now();
    host.begin("spmd.run", Layer::Comm);
    let mut spmd = Spmd::new(spec.np.0 * spec.np.1);
    if spec.one_lane {
        spmd = spmd.with_profiles(vec![CompilerProfile::cray_opt()]);
    }
    let (ranks, sched) = spmd.run_observed(|ctx| rank_body(spec, ctx, epoch));
    host.end();
    let wall_s = t_launch.elapsed().as_secs_f64();
    let since = |t: Instant| t.duration_since(t_launch).as_secs_f64();
    DeckOut {
        wall_s,
        launch_s: ranks.iter().map(|r| since(r.t_body)).fold(f64::INFINITY, f64::min),
        dispatches: sched.dispatches,
        ranks,
    }
}

/// Set-up alone, the way [`run`] starts: launch, then on every rank
/// `V2dSim::new`, scenario init and the initial energy; the ranks then
/// return.
pub fn set_up(cfg: V2dConfig, family: Family, np: (usize, usize)) {
    let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, np.0, np.1);
    Spmd::new(np.0 * np.1).run(|ctx| {
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        family.scenario().init(&mut sim);
        std::hint::black_box(sim.total_radiation_energy(&ctx.comm, &mut ctx.sink));
    });
}

fn copy_of(v: &TileVec) -> TileVec {
    let mut out = TileVec::new(v.n1(), v.n2());
    out.copy_from(v);
    out
}

fn rank_body(spec: &DeckSpec, ctx: &mut RankCtx, epoch: Instant) -> RankOut {
    let t_body = Instant::now();
    let rank = ctx.rank();
    let mut sp = Spans::new(spec.trace, epoch, spec.run_id, rank as u32);
    let cfg = spec.cfg;
    let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, spec.np.0, spec.np.1);

    let t = Instant::now();
    let mut sim = sp.time("sim.new", Layer::Core, || V2dSim::new(cfg, &ctx.comm, map));
    let new_s = t.elapsed().as_secs_f64();
    sp.time("scenario.init", Layer::Core, || spec.family.scenario().init(&mut sim));
    sp.time("energy", Layer::Core, || sim.total_radiation_energy(&ctx.comm, &mut ctx.sink));

    let mut store = match (&spec.store, rank) {
        (Some(dir), 0) if spec.checkpoint_every > 0 => {
            Some(CheckpointStore::new(dir, crate::gen::CHECKPOINT_KEEP).expect("checkpoint store"))
        }
        _ => None,
    };
    let (mut saves, mut save_bytes) = (0u64, 0u64);
    let mut step_wall = Vec::with_capacity(spec.steps);
    let mut snaps = Vec::new();
    let (mut iters, mut reductions) = (0u64, 0u64);
    for k in 0..spec.steps {
        let entry =
            spec.snap_steps.contains(&k).then(|| (copy_of(sim.erad()), copy_of(sim.source_mut())));
        let t = Instant::now();
        sp.begin("sim.step", Layer::Core);
        let st = sim.step(&ctx.comm, &mut ctx.sink);
        if spec.inject > 0.0 {
            busy_wait(t.elapsed().as_secs_f64() * spec.inject);
        }
        sp.end();
        step_wall.push(t.elapsed().as_secs_f64());
        iters += st.rad.total_iters() as u64;
        reductions += st.rad.stages.iter().map(|s| s.reductions as u64).sum::<u64>();
        if let Some((erad, source)) = entry {
            let iters = [st.rad.stages[0].iters, st.rad.stages[1].iters, st.rad.stages[2].iters];
            snaps.push(Snap { step: k, erad, source, iters });
        }
        let istep = sim.istep();
        if spec.checkpoint_every > 0
            && istep.is_multiple_of(spec.checkpoint_every)
            && istep < spec.steps
        {
            let f = sp.time("checkpoint.write", Layer::Core, || {
                write_checkpoint(&ctx.comm, &mut ctx.sink, &sim).expect("checkpoint gather")
            });
            if let Some(store) = &mut store {
                let path = sp.time("io.save", Layer::Io, || store.save(&f, istep).expect("save"));
                saves += 1;
                save_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
            }
        }
    }
    sp.time("energy", Layer::Core, || sim.total_radiation_energy(&ctx.comm, &mut ctx.sink));
    if spec.validate {
        sp.time("validate", Layer::Core, || {
            spec.family.scenario().validate(&sim, &ctx.comm, &mut ctx.sink)
        });
    }
    let ck = sp.time("checkpoint.write", Layer::Core, || {
        write_checkpoint(&ctx.comm, &mut ctx.sink, &sim).expect("final checkpoint gather")
    });
    // Radiation first, then the hydro fields a scenario evolves: the
    // layout of the supervisor's final bits.
    let field = (rank == 0).then(|| {
        ["radiation/erad", "hydro/rho", "hydro/m1", "hydro/m2", "hydro/etot"]
            .iter()
            .filter_map(|name| ck.dataset(name).ok().and_then(|d| d.as_f64()))
            .flatten()
            .copied()
            .collect::<Vec<f64>>()
    });
    if let (Some(path), 0) = (&spec.final_path, rank) {
        sp.time("io.save", Layer::Io, || ck.save(path).expect("save final checkpoint"));
        saves += 1;
        save_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
    }

    let lane0 = &ctx.sink.lanes[0];
    RankOut {
        t_body,
        new_s,
        step_wall,
        iters,
        reductions,
        clocks: ctx.sink.lanes.iter().map(|l| l.elapsed_secs()).collect(),
        kernel_calls: lane0.counters.calls,
        kernel_bytes: lane0.counters.bytes,
        msgs: lane0.comm_msgs,
        bytes: lane0.comm_bytes,
        field,
        saves,
        save_bytes,
        ctx_switches: thread_usage().ctx_switches,
        spans: sp.done,
        snaps,
    }
}
