//! The `--print-paper` deck, serial (1×1) and at the Table I topology
//! 5×4, plus the traced run's probe below `V2dSim::step`.
//!
//! A timed unit is the first [`STEPS`] steps of the deck, run the way
//! `v2d` runs it: parse, launch, `V2dSim::new`, init, steps, the final
//! checkpoint gather, and rank 0 saving it.  Every unit is checked
//! against pinned outputs: the final-field bits, the iteration and
//! reduction counts, the kernel-charge, message and dispatch counts,
//! and all four modeled lane clocks.

use std::time::Instant;

use v2d_comm::{coll_site, CartComm, ReduceOp, Spmd, TileMap};
use v2d_core::config_file::{ParFile, PAPER_PAR};
use v2d_core::problems::Family;
use v2d_core::rad::stepper::RadWorkspace;
use v2d_core::rad::{assemble_system, MatterState, RadStepper};
use v2d_core::sim::{PrecondKind, V2dConfig};
use v2d_core::LocalGrid;
use v2d_linalg::{
    bicgstab, BlockJacobi, LinearOp, Preconditioner, SolverWorkspace, StencilOp, TileVec,
};
use v2d_machine::{ExecCtx, KernelClass, KernelShape, MultiCostSink};

use crate::deck::{self, DeckOut, DeckSpec, Snap};
use crate::gen::fnv64_bits;
use crate::host::{peak_rss_mb, process_usage, thread_cpu_ns};
use crate::report::{kernel_slug, Report};
use crate::stats::{median, quantile};
use crate::trace::{self, Layer, Span, Spans, HOST};
use crate::Opts;

/// Steps in one timed unit.
pub const STEPS: usize = 2;

/// Units every run measures, however short `--seconds` is.
const MIN_UNITS: usize = 3;

/// Set-ups (parse, launch, `V2dSim::new`, init) timed together as one
/// `setup_s` sample, before each unit.
const SETUP_BATCH: usize = 10;

/// Pinned outputs of one unit.
pub struct Golden {
    pub field_fnv: u64,
    pub iters: u64,
    pub reductions: u64,
    pub charges: u64,
    pub msgs: u64,
    pub dispatches: u64,
    pub clocks: [f64; 4],
}

/// The 1×1 unit.  One dispatch: the lone rank never yields.
pub const SERIAL: Golden = Golden {
    field_fnv: 0x24b9_07c9_7cba_8013,
    iters: 971,
    reductions: 1948,
    charges: 13619,
    msgs: 0,
    dispatches: 1,
    clocks: [9.321666450555556, 6.452798593333333, 4.653152073888889, 6.739416622777778],
};

/// The 5×4 unit: Table I's topology, 40×25 tiles.
pub const DECOMPOSED: Golden = Golden {
    field_fnv: 0xc825_e57d_118c_4c5c,
    iters: 987,
    reductions: 1980,
    charges: 523124,
    msgs: 123132,
    dispatches: 75445,
    clocks: [0.6345565855555556, 0.5052898111111112, 0.4026279844444444, 0.5111794933333333],
};

fn charges(out: &DeckOut) -> u64 {
    out.sum(|r| r.kernel_calls.iter().sum())
}

fn check_unit(report: &mut Report, out: &DeckOut, golden: &Golden, corrupt: bool) {
    let mut fnv = fnv64_bits(out.field());
    if corrupt {
        fnv ^= 1;
    }
    let got = Golden {
        field_fnv: fnv,
        iters: out.ranks[0].iters,
        reductions: out.ranks[0].reductions,
        charges: charges(out),
        msgs: out.sum(|r| r.msgs),
        dispatches: out.dispatches,
        clocks: out.clocks().try_into().expect("four compiler lanes"),
    };
    let same = got.field_fnv == golden.field_fnv
        && got.iters == golden.iters
        && got.reductions == golden.reductions
        && got.charges == golden.charges
        && got.msgs == golden.msgs
        && got.dispatches == golden.dispatches
        && got.clocks.iter().zip(&golden.clocks).all(|(a, b)| a.to_bits() == b.to_bits());
    report.check(same, || {
        format!(
            "paper unit differs from its pinned outputs: field_fnv {:#x}, iters {}, reductions {}, \
             charges {}, msgs {}, dispatches {}, clocks {:?}",
            got.field_fnv, got.iters, got.reductions, got.charges, got.msgs, got.dispatches, got.clocks
        )
    });
}

/// The paper deck's configuration (the workload picks the topology).
fn paper_config() -> V2dConfig {
    let par = ParFile::parse(PAPER_PAR).expect("built-in deck parses");
    par.to_config().expect("built-in deck is valid").0
}

pub fn run(opts: &Opts, np: (usize, usize), golden: &Golden) -> Report {
    let mut report = Report::default();
    let epoch = Instant::now();
    let final_path = opts.scratch.join("paper_final.h5l");

    struct Unit {
        out: DeckOut,
        parse_s: f64,
        traced: bool,
        cpu_s: f64,
    }
    let mut units: Vec<Unit> = Vec::new();
    let mut setups = Vec::new();
    let mut traced_spans: Vec<Span> = Vec::new();
    let usage0 = process_usage();
    let t_region = Instant::now();
    let mut last_wall = 0.0;
    let mut peak_rss = 0.0;
    while units.len() < MIN_UNITS || t_region.elapsed().as_secs_f64() + last_wall <= opts.seconds {
        let run_id = units.len() as u64 + 1;
        // In a traced run every other unit runs untraced: the ratio of
        // their times is the tracing overhead.
        let traced = opts.trace && run_id.is_multiple_of(2);
        let t_setup = Instant::now();
        for _ in 0..SETUP_BATCH {
            let par = ParFile::parse(PAPER_PAR).expect("built-in deck parses");
            let (cfg, _) = par.to_config().expect("built-in deck is valid");
            deck::set_up(cfg, Family::Gaussian, np);
        }
        setups.push(t_setup.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        let mut host = Spans::new(traced, epoch, run_id, HOST);
        let u0 = process_usage();
        let t0 = Instant::now();
        host.begin("config.parse", Layer::Core);
        let par = ParFile::parse(PAPER_PAR).expect("built-in deck parses");
        let (cfg, _) = par.to_config().expect("built-in deck is valid");
        host.end();
        let parse_s = t0.elapsed().as_secs_f64();
        let spec = DeckSpec {
            cfg,
            family: Family::Gaussian,
            np,
            one_lane: false,
            steps: STEPS,
            checkpoint_every: 0,
            store: None,
            final_path: Some(final_path.clone()),
            snap_steps: if traced { (0..STEPS).collect() } else { Vec::new() },
            validate: false,
            trace: traced,
            run_id,
            inject: opts.inject(),
        };
        let mut out = deck::run(&spec, epoch, &mut host);
        let u = process_usage().since(u0);
        check_unit(&mut report, &out, golden, opts.corrupt);
        if traced {
            traced_spans.extend(out.spans());
            traced_spans.extend(host.done);
        }
        last_wall = parse_s + out.wall_s;
        units.push(Unit { out, parse_s, traced, cpu_s: u.user_s + u.sys_s });
        if units.len() == MIN_UNITS {
            peak_rss = peak_rss_mb();
        }
    }
    let region_wall = t_region.elapsed().as_secs_f64();
    let usage = process_usage().since(usage0);
    let _ = std::fs::remove_file(&final_path);

    // Medians over the run's units; step latencies pooled over every
    // step of every unit.
    let walls: Vec<f64> = units.iter().map(|u| u.parse_s + u.out.wall_s).collect();
    let steps: Vec<f64> =
        units.iter().flat_map(|u| u.out.ranks[0].step_wall.iter().copied()).collect();
    report.set("setup_s", median(&setups));
    report.set("wall_s", median(&walls));
    report.set("ops_per_s", STEPS as f64 / median(&walls));
    report.set("latency_ms.p50", 1e3 * median(&steps));
    report.set("latency_ms.p95", 1e3 * quantile(&steps, 0.95));
    report.set("peak_rss_mb", peak_rss);
    if !opts.trace {
        return report;
    }

    // Unit counts: every unit repeats them exactly (the pinned check),
    // so the last traced unit stands for all.
    let li = units.iter().rposition(|u| u.traced).expect("a traced unit ran");
    let walls_where = |traced: bool| -> Vec<f64> {
        units.iter().filter(|u| u.traced == traced).map(|u| u.parse_s + u.out.wall_s).collect()
    };
    report
        .set("trace.overhead_frac", median(&walls_where(true)) / median(&walls_where(false)) - 1.0);
    let n_traced = units.iter().filter(|u| u.traced).count() as f64;
    let last = &units[li].out;
    let r0 = &last.ranks[0];
    report.set(
        "core.config.parse_ms",
        1e3 * median(&units.iter().map(|u| u.parse_s).collect::<Vec<_>>()),
    );
    let new_s: Vec<f64> =
        units.iter().map(|u| u.out.ranks.iter().map(|r| r.new_s).fold(0.0, f64::max)).collect();
    report.set("core.sim.new_ms", 1e3 * median(&new_s));
    report.set("core.sim.step_ms.p50", 1e3 * median(&steps));
    report.set("core.sim.step_ms.p90", 1e3 * quantile(&steps, 0.90));
    report.set("core.sim.steps", STEPS as f64);
    report.set(
        "core.checkpoint.write_ms",
        1e3 * trace::cpu_of(&traced_spans, "checkpoint.write") / n_traced,
    );
    report.set("linalg.solve.iters", r0.iters as f64);
    report.set("linalg.reductions", r0.reductions as f64);
    report.set("machine.charges", charges(last) as f64);
    for class in KernelClass::all() {
        let i = class.index();
        let slug = kernel_slug(class);
        report.set(&format!("linalg.kernels.{slug}.calls"), last.sum(|r| r.kernel_calls[i]) as f64);
        report.set(
            &format!("linalg.kernels.{slug}.bytes_computed"),
            last.sum(|r| r.kernel_bytes[i]) as f64,
        );
    }
    report.set("comm.sched.dispatches", last.dispatches as f64);
    report.set("comm.sched.dispatches_per_iter", last.dispatches as f64 / r0.iters as f64);
    report.set(
        "comm.spmd.launch_ms",
        1e3 * median(&units.iter().map(|u| u.out.launch_s).collect::<Vec<_>>()),
    );
    report.set("comm.msgs", last.sum(|r| r.msgs) as f64);
    report.set("comm.bytes", last.sum(|r| r.bytes) as f64);
    let saves = units.iter().filter(|u| u.traced).map(|u| u.out.sum(|r| r.saves)).sum::<u64>();
    report.set("io.save_ms", 1e3 * trace::cpu_of(&traced_spans, "io.save") / saves.max(1) as f64);
    report.set("io.bytes", last.sum(|r| r.save_bytes) as f64);
    report.set("host.user_s", usage.user_s);
    report.set("host.sys_s", usage.sys_s);
    report.set("host.wall_s", region_wall);
    report.set("host.ctx_switches", usage.ctx_switches as f64);
    let rank_ctx: Vec<f64> = units.iter().map(|u| u.out.sum(|r| r.ctx_switches) as f64).collect();
    report.set("host.rank_ctx_switches", median(&rank_ctx));

    // The probe replays every step of the last traced unit.
    let step_cpu = |run: Option<u64>| -> f64 {
        let steps = traced_spans.iter().filter(|s| s.name == "sim.step");
        steps.filter(|s| run.is_none_or(|r| s.run == r)).map(|s| secs(s.cpu_ns)).sum()
    };
    let probed_cpu_s = step_cpu(Some(li as u64 + 1));
    let step_cpu_s = step_cpu(None);
    let traced_cpu_s: f64 = units.iter().filter(|u| u.traced).map(|u| u.cpu_s).sum();
    let snaps: Vec<Vec<Snap>> =
        units[li].out.ranks.iter_mut().map(|r| std::mem::take(&mut r.snaps)).collect();
    let (probe, probe_spans) = probe(paper_config(), np, &snaps, epoch);
    for (rank, p) in probe.iter().enumerate() {
        report.check(p.mismatch.is_empty(), || {
            format!("probe fidelity, rank {rank}: {}", p.mismatch)
        });
    }
    let sum = |f: &dyn Fn(&ProbeRank) -> f64| probe.iter().map(f).sum::<f64>();
    let cpu = |name: &str| trace::cpu_of(&probe_spans, name);
    let n_probed = STEPS as f64;
    let apply_calls = sum(&|p| p.apply_calls as f64);
    let papply_calls = sum(&|p| p.papply_calls as f64);
    let charges_core = sum(&|p| p.charges_core as f64);
    let charges_linalg = sum(&|p| p.charges_linalg as f64);
    let charge_s = cpu("charge.replay");
    report.set("core.rad.step_ms", 1e3 * cpu("rad.try_step") / n_probed);
    report.set("core.rad.assemble_ms", 1e3 * cpu("rad.assemble") / n_probed);
    // Iterations are global (every rank takes them all): rank-summed
    // CPU over one rank's count is the cost of one global iteration.
    report.set("linalg.solve.iter_us", 1e6 * cpu("bicgstab") / probe[0].iters as f64);
    report.set("linalg.op.apply_us", 1e6 * sum(&|p| p.apply_s) / apply_calls);
    report.set("linalg.op.apply_calls", apply_calls / n_probed);
    report.set("linalg.precond.build_ms", 1e3 * cpu("precond.build") / sum(&|p| p.builds as f64));
    report.set("linalg.precond.apply_us", 1e6 * sum(&|p| p.papply_s) / papply_calls);
    report.set("linalg.precond.apply_calls", papply_calls / n_probed);
    report.set("comm.halo.exchange_us", 1e6 * cpu("halo.replay") / sum(&|p| p.halo_calls as f64));
    report.set(
        "comm.allreduce_us",
        1e6 * cpu("allreduce.replay") / sum(&|p| p.allreduce_calls as f64).max(1.0),
    );
    report.set("machine.charge_ns", 1e9 * charge_s / (charges_core + charges_linalg));

    // Self time per layer over the traced units.  Step time is split by
    // the probe's shares of the probed steps' CPU; everything else comes
    // straight from the spans.  The remainder is the traced units' CPU
    // that neither covers.
    let comm_p = cpu("halo.replay") + cpu("allreduce.replay");
    let machine_core = charge_s * charges_core / (charges_core + charges_linalg);
    let machine_linalg = charge_s - machine_core;
    let core_p = cpu("rad.assemble") - machine_core;
    let linalg_p = cpu("precond.build") + cpu("bicgstab") - comm_p - machine_linalg;
    let scale = step_cpu_s / probed_cpu_s;
    let outside: Vec<Span> =
        traced_spans.iter().filter(|s| s.name != "sim.step").cloned().collect();
    let by = trace::self_cpu_by_layer(&outside);
    let at = |l: Layer| by.get(&l).copied().unwrap_or(0.0);
    let layers = [
        (Layer::Core, at(Layer::Core) + core_p * scale),
        (Layer::Linalg, linalg_p * scale),
        (Layer::Machine, charge_s * scale),
        (Layer::Comm, at(Layer::Comm) + comm_p * scale),
        (Layer::Io, at(Layer::Io)),
    ];
    report.set_self_times(traced_cpu_s, &layers);
    opts.write_spans(traced_spans.into_iter().chain(probe_spans));
    report
}

/// One rank's probe counts over the probed steps; the probe's times
/// are its spans.
#[derive(Default)]
pub struct ProbeRank {
    pub mismatch: String,
    pub builds: u64,
    pub iters: u64,
    pub apply_s: f64,
    pub apply_calls: u64,
    pub papply_s: f64,
    pub papply_calls: u64,
    pub halo_calls: u64,
    pub allreduce_calls: u64,
    pub charges_core: u64,
    pub charges_linalg: u64,
}

/// `LinearOp` wrapper timing each application (halo exchange included).
struct OpProbe {
    inner: StencilOp,
    cpu_ns: u64,
    calls: u64,
}

impl LinearOp for OpProbe {
    fn apply(&mut self, comm: &v2d_comm::Comm, cx: &mut ExecCtx, x: &mut TileVec, y: &mut TileVec) {
        let c = thread_cpu_ns();
        self.inner.apply(comm, cx, x, y);
        self.cpu_ns += thread_cpu_ns() - c;
        self.calls += 1;
    }

    fn tile_dims(&self) -> (usize, usize) {
        self.inner.tile_dims()
    }

    fn working_set(&self) -> usize {
        self.inner.working_set()
    }
}

/// `Preconditioner` wrapper timing each application.
struct PcProbe<M> {
    inner: M,
    cpu_ns: u64,
    calls: u64,
}

impl<M: Preconditioner> Preconditioner for PcProbe<M> {
    fn apply(&mut self, comm: &v2d_comm::Comm, cx: &mut ExecCtx, r: &mut TileVec, z: &mut TileVec) {
        let c = thread_cpu_ns();
        self.inner.apply(comm, cx, r, z);
        self.cpu_ns += thread_cpu_ns() - c;
        self.calls += 1;
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

fn lane0_charges(cx: &ExecCtx) -> u64 {
    cx.sink_ref().lanes[0].counters.calls.iter().sum()
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Replay each snapshotted step on a fresh launch of the same topology:
/// first the whole radiation update (`RadStepper::try_step`), then its
/// three stages call by call (`assemble_system`, `BlockJacobi::new`,
/// `bicgstab` through timing wrappers), then as many halo exchanges and
/// allreduces as the stage made, and as many cost charges as the step
/// made.  Every replayed solve must take exactly the iterations the
/// timed step took.
pub fn probe(
    cfg: V2dConfig,
    np: (usize, usize),
    snaps: &[Vec<Snap>],
    epoch: Instant,
) -> (Vec<ProbeRank>, Vec<Span>) {
    assert!(
        cfg.hydro.is_none() && cfg.coupling.is_none(),
        "the probe replays radiation-only decks"
    );
    assert_eq!(cfg.precond, PrecondKind::BlockJacobi, "the probe replays block-Jacobi decks");
    let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, np.0, np.1);
    let stepper = RadStepper {
        limiter: cfg.limiter,
        opacity: cfg.opacity,
        c_light: cfg.c_light,
        precond: cfg.precond,
        solve: cfg.solve,
    };
    let outs = Spmd::new(np.0 * np.1).run(|ctx| {
        let rank = ctx.rank();
        let mut sp = Spans::new(true, epoch, 0, rank as u32);
        let mut p = ProbeRank::default();
        let comm = &ctx.comm;
        let mut cx = ExecCtx::new(&mut ctx.sink);
        let cart = CartComm::new(comm, map);
        let grid = LocalGrid::new(cfg.grid, cart.tile());
        let (n1, n2) = (grid.n1, grid.n2);
        let matter = MatterState::Uniform;
        let mut erad = TileVec::new(n1, n2);
        let mut lin = TileVec::new(n1, n2);
        let mut x = TileVec::new(n1, n2);
        let mut swks = SolverWorkspace::new(n1, n2);
        let mut wks = RadWorkspace::new(n1, n2);
        let mut buf = Vec::new();
        // A first, unrecorded pass over the first step touches every
        // buffer once, as the timed run's earlier steps did.
        let passes =
            std::iter::once((false, &snaps[rank][0])).chain(snaps[rank].iter().map(|s| (true, s)));
        for (record, snap) in passes {
            // The whole radiation update, as `V2dSim::step` calls it.
            erad.copy_from(&snap.erad);
            let st = sp.time("rad.try_step", Layer::Core, || {
                stepper.try_step(
                    comm,
                    &mut cx,
                    &cart,
                    &grid,
                    &matter,
                    cfg.dt,
                    &mut erad,
                    &snap.source,
                    &mut wks,
                )
            });
            match st {
                Ok(st) => {
                    let got = [st.stages[0].iters, st.stages[1].iters, st.stages[2].iters];
                    if got != snap.iters {
                        p.mismatch += &format!(
                            "step {}: try_step iters {got:?} vs timed {:?}; ",
                            snap.step, snap.iters
                        );
                    }
                }
                Err(e) => p.mismatch += &format!("step {}: try_step failed: {e}; ", snap.step),
            }

            // The same update, stage by stage.
            lin.copy_from(&snap.erad);
            for stage in 0..3 {
                let k = lane0_charges(&cx);
                let (op, rhs) = sp.time("rad.assemble", Layer::Core, || {
                    assemble_system(
                        comm,
                        &mut cx,
                        &cart,
                        &grid,
                        cfg.limiter,
                        &cfg.opacity,
                        &matter,
                        cfg.c_light,
                        cfg.dt,
                        &mut lin,
                        &snap.erad,
                        &snap.source,
                    )
                });
                p.charges_core += lane0_charges(&cx) - k;

                let k = lane0_charges(&cx);
                let m = sp.time("precond.build", Layer::Linalg, || BlockJacobi::new(&op));
                p.builds += 1;
                x.copy_from(&snap.erad);
                let mut a = OpProbe { inner: op, cpu_ns: 0, calls: 0 };
                let mut pc = PcProbe { inner: m, cpu_ns: 0, calls: 0 };
                let st = sp.time("bicgstab", Layer::Linalg, || {
                    bicgstab(comm, &mut cx, &mut a, &mut pc, &rhs, &mut x, &mut swks, &cfg.solve)
                });
                p.charges_linalg += lane0_charges(&cx) - k;
                p.apply_s += secs(a.cpu_ns);
                p.apply_calls += a.calls;
                p.papply_s += secs(pc.cpu_ns);
                p.papply_calls += pc.calls;
                let reductions = match st {
                    Ok(st) => {
                        p.iters += st.iters as u64;
                        if st.iters != snap.iters[stage] {
                            p.mismatch += &format!(
                                "step {} stage {stage}: bicgstab iters {} vs timed {}; ",
                                snap.step, st.iters, snap.iters[stage]
                            );
                        }
                        st.reductions
                    }
                    Err(e) => {
                        p.mismatch +=
                            &format!("step {} stage {stage}: bicgstab failed: {e}; ", snap.step);
                        0
                    }
                };
                lin.copy_from(&x);

                // The stage's communication, replayed call for call.
                sp.time("halo.replay", Layer::Comm, || {
                    for _ in 0..a.calls {
                        StencilOp::exchange_halos(a.inner.cart(), comm, &mut cx, &mut x, &mut buf);
                    }
                });
                p.halo_calls += a.calls;
                sp.time("allreduce.replay", Layer::Comm, || {
                    for _ in 0..reductions {
                        let mut gang = [1.0, 2.0, 3.0];
                        comm.try_allreduce(&mut cx, coll_site::TEST_BASE, ReduceOp::Sum, &mut gang)
                            .expect("replayed allreduce");
                    }
                });
                p.allreduce_calls += reductions as u64;
            }
            if !record {
                p = ProbeRank::default();
                sp.done.clear();
            }
        }

        // Cost charging, replayed charge for charge on a scratch sink.
        let mut scratch = MultiCostSink::all_compilers();
        let mut scx = ExecCtx::new(&mut scratch);
        let shape =
            KernelShape::streaming(KernelClass::Daxpy, 2 * n1 * n2, 2, 2, 1, 16 * erad.bytes());
        sp.time("charge.replay", Layer::Machine, || {
            for _ in 0..p.charges_core + p.charges_linalg {
                scx.charge(std::hint::black_box(&shape));
            }
        });
        (p, sp.done)
    });
    let mut ranks = Vec::new();
    let mut spans = Vec::new();
    for (p, s) in outs {
        ranks.push(p);
        spans.extend(s);
    }
    (ranks, spans)
}
