//! The paper's Table II driver on the simulated core: the five routines,
//! SVE at every vector length from 128 to 2048 bits and scalar once (its
//! code and counts do not depend on the vector length), for one problem
//! size per residency level (L1, L2, HBM) plus the Table II problem
//! itself.  An op is one cell: like the paper's driver, it
//! repeats its routine on the same arrays, each repetition a
//! program-cache lookup plus a run of the decoded program, until the
//! cell has executed about [`CELL_INSTRS`] simulated instructions at
//! its band's smallest size (preparation is not timed).  A timed unit
//! is one sweep of every cell.

use std::time::Instant;

use v2d_machine::A64fxModel;
use v2d_sve::kernels::{decoded_routine, prepare_routine, scalar, sve_code, Routine, Variant};
use v2d_sve::{cache, DecodedProgram, ExecConfig, ExecStats, Executor, Instr, RegFile, SimMem};

use crate::gen;
use crate::host::{busy_wait, peak_rss_mb, process_usage};
use crate::report::Report;
use crate::stats::{median, quantile};
use crate::trace::{self, Layer, Span, Spans, HOST};
use crate::Opts;

const VLS: [u32; 5] = [128, 256, 512, 1024, 2048];
const VARIANTS: [Variant; 2] = [Variant::Scalar, Variant::Sve];
/// The one vector length scalar cells run at: Table II's.
const SCALAR_VL: u32 = 512;
const MIN_SWEEPS: usize = 3;

/// Simulated instructions one cell executes, at least: enough
/// repetitions that the smallest cell runs for milliseconds.
const CELL_INSTRS: u64 = 200_000;

/// Cold decodes of the whole sweep timed together as one set-up sample.
const SETUP_BATCH: usize = 20;

/// Table II (n = 1000, VL 512, L1-resident): per-repetition dynamic
/// instructions and cycles, scalar then SVE — the values the `table2`
/// golden output and the baseline's `table2.*` entries pin.
const TABLE2: [(Routine, [u64; 2], [u64; 2]); 5] = [
    (Routine::Matvec, [18002, 2377], [5546, 743]),
    (Routine::Dprod, [4344, 700], [3024, 645]),
    (Routine::Daxpy, [6002, 878], [1514, 521]),
    (Routine::Dscal, [5003, 880], [1264, 521]),
    (Routine::Ddaxpy, [8002, 1129], [2023, 531]),
];
const TABLE2_N: usize = 1000;

struct Op {
    routine: Routine,
    variant: Variant,
    n: usize,
    /// The smallest size of `n`'s band, which sets the repetitions.
    n_ref: usize,
    cfg: ExecConfig,
}

impl Op {
    /// Repetitions of a cell whose routine executes `instrs` simulated
    /// instructions a run.  They are set for the band's smallest size,
    /// not the seeded one, so that no seed moves a cell across a
    /// repetition step: every cell's time is smooth in the seed.
    fn reps(&self, instrs: u64) -> u64 {
        let at_ref = (instrs as u128 * self.n_ref as u128 / self.n as u128) as u64;
        CELL_INSTRS.div_ceil(at_ref.max(1))
    }
}

/// The sweep: the Table II problem first, then every seeded size.
fn sweep(seed: u64) -> Vec<Op> {
    let model = A64fxModel::ookami();
    let mut cfgs = vec![(TABLE2_N, TABLE2_N, ExecConfig::a64fx_l1().with_vl(512))];
    for (n, (lo, _)) in gen::sve_sizes(seed).into_iter().zip(gen::SVE_BANDS) {
        let level = model.residency(8 * 8 * n);
        for vl in VLS {
            cfgs.push((n, lo, ExecConfig::a64fx_l1().with_level(level).with_vl(vl)));
        }
    }
    let mut ops = Vec::new();
    for (n, n_ref, cfg) in cfgs {
        for routine in Routine::ALL {
            for variant in VARIANTS {
                if variant == Variant::Scalar && cfg.vl_bits != SCALAR_VL {
                    continue;
                }
                ops.push(Op { routine, variant, n, n_ref, cfg: cfg.clone() });
            }
        }
    }
    ops
}

/// The machine state the ops start from.  Memory images depend on
/// neither the vector length nor the variant, so each (routine, size)
/// has one, and like the paper's driver every op repeats on the same
/// arrays: a kernel's instruction stream does not depend on the values
/// it reads (each op's stats are checked against the first sweep's).
/// Register files carry the sizes and pointers, so each op starts from
/// a copy of its own.
struct States {
    mems: Vec<SimMem>,
    /// Per op: its memory image and its starting registers.
    ops: Vec<(usize, RegFile)>,
}

impl States {
    fn prepare(ops: &[Op]) -> States {
        let mut keys: Vec<(Routine, usize)> = Vec::new();
        let mut mems = Vec::new();
        let mut regs: Vec<((Routine, usize, u32), RegFile)> = Vec::new();
        let ops = ops
            .iter()
            .map(|op| {
                let cell = (op.routine, op.n, op.cfg.vl_bits);
                let cached = regs.iter().find(|(k, _)| *k == cell).map(|(_, r)| r.clone());
                let r = cached.unwrap_or_else(|| {
                    let (r, mem) = prepare_routine(op.routine, op.n, &op.cfg);
                    if !keys.contains(&(op.routine, op.n)) {
                        keys.push((op.routine, op.n));
                        mems.push(mem);
                    }
                    regs.push((cell, r.clone()));
                    r
                });
                let m = keys.iter().position(|&k| k == (op.routine, op.n)).expect("prepared");
                (m, r)
            })
            .collect();
        States { mems, ops }
    }

    /// Run op `i` `reps` times: each time look its program up in the
    /// cache and run it from the op's starting registers.  Returns the
    /// summed instruction and cycle counts and the timed seconds.
    fn run(&mut self, i: usize, op: &Op, reps: u64) -> ((u64, u64), f64) {
        let (m, regs0) = &self.ops[i];
        let mut sum = (0, 0);
        let t = Instant::now();
        for _ in 0..reps {
            let mut regs = regs0.clone();
            let dp = decoded_routine(op.routine, op.variant, &op.cfg);
            let s: ExecStats =
                Executor::new(op.cfg.clone()).run_decoded(&dp, &mut regs, &mut self.mems[*m]);
            sum = (sum.0 + s.instrs, sum.1 + s.cycles);
        }
        (sum, t.elapsed().as_secs_f64())
    }
}

fn program(routine: Routine, variant: Variant) -> Vec<Instr> {
    match (variant, routine) {
        (Variant::Scalar, Routine::Matvec) => scalar::matvec(),
        (Variant::Scalar, Routine::Dprod) => scalar::dprod(),
        (Variant::Scalar, Routine::Daxpy) => scalar::daxpy(),
        (Variant::Scalar, Routine::Dscal) => scalar::dscal(),
        (Variant::Scalar, Routine::Ddaxpy) => scalar::ddaxpy(),
        (Variant::Sve, Routine::Matvec) => sve_code::matvec(),
        (Variant::Sve, Routine::Dprod) => sve_code::dprod(),
        (Variant::Sve, Routine::Daxpy) => sve_code::daxpy(),
        (Variant::Sve, Routine::Dscal) => sve_code::dscal(),
        (Variant::Sve, Routine::Ddaxpy) => sve_code::ddaxpy(),
    }
}

fn index(v: Variant) -> usize {
    match v {
        Variant::Scalar => 0,
        Variant::Sve => 1,
    }
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let epoch = Instant::now();
    let ops = sweep(opts.seed);

    // Set-up: assemble and decode every program of the sweep cold, the
    // work the program cache saves every later call.  A batch of
    // set-ups is timed before each sweep, so the samples span the run;
    // a sample is the batch's time per set-up.
    let mut host = Spans::new(opts.trace, epoch, 0, HOST);
    let mut setups = Vec::new();
    let mut set_up = |host: &mut Spans| {
        let t = Instant::now();
        host.begin("sve.decode", Layer::Sve);
        for _ in 0..SETUP_BATCH {
            for op in &ops {
                let code = program(op.routine, op.variant);
                std::hint::black_box(DecodedProgram::decode(&code, &op.cfg));
            }
        }
        host.end();
        setups.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    };

    // A warm-up sweep fills the program cache and records each
    // routine's stats per run; every timed cell must repeat them exactly.
    let mut states = States::prepare(&ops);
    let reference: Vec<(u64, u64)> =
        ops.iter().enumerate().map(|(i, op)| states.run(i, op, 1).0).collect();
    let reps: Vec<u64> = ops.iter().zip(&reference).map(|(op, r)| op.reps(r.0)).collect();
    for (routine, instrs, cycles) in TABLE2 {
        for variant in VARIANTS {
            let i = ops
                .iter()
                .position(|op| op.routine == routine && op.variant == variant && op.n == TABLE2_N)
                .expect("the sweep starts with the Table II problem");
            let want = (instrs[index(variant)], cycles[index(variant)]);
            let mut got = reference[i];
            if opts.corrupt && i == 0 {
                got.1 ^= 1;
            }
            report.check(got == want, || {
                format!(
                    "Table II {} {variant:?}: (instrs, cycles) {got:?}, golden {want:?}",
                    routine.name()
                )
            });
        }
    }

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut sweep_cells: Vec<Vec<f64>> = Vec::new();
    let mut traced_cpu_s = 0.0;
    let mut spans: Vec<Span> = Vec::new();
    let hits0 = cache::cache_hit_count() + cache::cache_shared_hit_count();
    let misses0 = cache::cache_miss_count();
    let usage0 = process_usage();
    let t_region = Instant::now();
    let mut peak_rss = 0.0;
    while walls.len() < MIN_SWEEPS
        || t_region.elapsed().as_secs_f64() + walls.last().copied().unwrap_or(0.0) <= opts.seconds
    {
        let run_id = walls.len() as u64 + 1;
        let traced = opts.trace && run_id.is_multiple_of(2);
        let mut sp = Spans::new(traced, epoch, run_id, HOST);
        set_up(&mut host);
        let u0 = process_usage();
        let mut wall = 0.0;
        let mut cell_secs = Vec::with_capacity(ops.len());
        for (i, (op, one)) in ops.iter().zip(&reference).enumerate() {
            sp.begin("sve.run", Layer::Sve);
            let (got, mut secs) = states.run(i, op, reps[i]);
            if opts.inject() > 0.0 {
                let t = Instant::now();
                busy_wait(secs * opts.inject());
                secs += t.elapsed().as_secs_f64();
            }
            sp.end();
            cell_secs.push(secs);
            wall += secs;
            let want = (one.0 * reps[i], one.1 * reps[i]);
            report.check(got == want, || {
                format!(
                    "{} {:?} n {} vl {}: repeat differs",
                    op.routine.name(),
                    op.variant,
                    op.n,
                    op.cfg.vl_bits
                )
            });
        }
        let u = process_usage().since(u0);
        walls.push(wall);
        sweep_cells.push(cell_secs);
        if walls.len() == MIN_SWEEPS {
            peak_rss = peak_rss_mb();
        }
        if traced {
            traced_walls.push(wall);
            traced_cpu_s += u.user_s + u.sys_s;
            spans.extend(sp.done);
        } else {
            untraced_walls.push(wall);
        }
    }
    let region_wall = t_region.elapsed().as_secs_f64();
    let usage = process_usage().since(usage0);
    let sweeps = walls.len() as f64;

    // The run's fastest sweep gives its wall time, each cell's fastest
    // run its latency.  This interpreter slows by up to 1.6x with the
    // host's load, in phases that outlast several sweeps, so a median
    // moves with the phase a run lands in; one thread does all the work,
    // so a fastest time hides no queueing.
    let wall_s = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let cells: Vec<f64> = (0..ops.len())
        .map(|i| sweep_cells.iter().map(|sweep| sweep[i]).fold(f64::INFINITY, f64::min))
        .collect();
    report.set("setup_s", median(&setups));
    report.set("wall_s", wall_s);
    report.set("ops_per_s", ops.len() as f64 / wall_s);
    report.set("latency_ms.p50", 1e3 * median(&cells));
    report.set("latency_ms.p95", 1e3 * quantile(&cells, 0.95));
    report.set("peak_rss_mb", peak_rss);
    if !opts.trace {
        return report;
    }

    let per_sweep = |f: fn(&(u64, u64)) -> u64| -> u64 {
        reference.iter().zip(&reps).map(|(r, n)| f(r) * n).sum()
    };
    let instrs = per_sweep(|r| r.0);
    report.set("sve.instrs", instrs as f64);
    report.set("sve.cycles", per_sweep(|r| r.1) as f64);
    report.set("sve.minstr_per_s", instrs as f64 / wall_s / 1e6);
    let hits = cache::cache_hit_count() + cache::cache_shared_hit_count() - hits0;
    report.set("sve.cache.hits", hits as f64 / sweeps);
    report.set("sve.cache.misses", (cache::cache_miss_count() - misses0) as f64 / sweeps);
    report.set("sve.decode_ms", 1e3 * median(&setups));
    report.set("host.user_s", usage.user_s);
    report.set("host.sys_s", usage.sys_s);
    report.set("host.wall_s", region_wall);
    report.set("host.ctx_switches", usage.ctx_switches as f64);
    report.set("trace.overhead_frac", median(&traced_walls) / median(&untraced_walls) - 1.0);
    let sve_s = trace::self_cpu_by_layer(&spans).get(&Layer::Sve).copied().unwrap_or(0.0);
    report.set_self_times(traced_cpu_s, &[(Layer::Sve, sve_s)]);
    opts.write_spans(spans.into_iter().chain(host.done));
    report
}
