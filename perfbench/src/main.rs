//! `perfbench`: the host wall-clock benchmark of the v2d workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--inject <workload>=<fraction>] [--corrupt-output]
//! ```
//!
//! Workloads: `paper-serial`, `paper-decomposed`, `serve-mix`,
//! `sve-driver`, or `all` of them in turn in this one process.  The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with every
//! end-to-end metric untraced (`--trace 0`) or every per-layer metric
//! traced (`--trace 1`); `all` prints one such line per workload, each
//! led by a `"workload"` key (`peak_rss_mb` is then the process peak so
//! far).  The process exits 1 when any output check failed.
//!
//! `--inject <workload>=<f>` busy-waits `f` times each step, request or
//! cell inside the benchmark's own wrapper when the named workload
//! runs (a red run); `--corrupt-output` flips a bit of one checked
//! output, which must fail the run.

mod deck;
mod gen;
mod host;
mod paper;
mod report;
mod serve_mix;
mod stats;
mod sve_driver;
mod trace;

use std::path::PathBuf;

/// Parsed command line plus the run's scratch locations.
#[derive(Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The red run's target workload and busy-wait fraction.
    pub inject_into: Option<(String, f64)>,
    pub corrupt: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub scratch: PathBuf,
    /// Where traced runs write their spans.
    pub out_dir: PathBuf,
}

impl Opts {
    /// Busy-wait fraction of each op for this workload (0 = none).
    pub fn inject(&self) -> f64 {
        match &self.inject_into {
            Some((target, f)) if *target == self.workload => *f,
            _ => 0.0,
        }
    }

    /// Write a traced run's spans to `.perfbench_out/`.
    pub fn write_spans(&self, spans: impl IntoIterator<Item = trace::Span>) {
        let spans: Vec<trace::Span> = spans.into_iter().collect();
        let path = self.out_dir.join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed));
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}

const WORKLOADS: [&str; 4] = ["paper-serial", "paper-decomposed", "serve-mix", "sve-driver"];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--inject <workload>=<fraction>] [--corrupt-output]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut inject: Option<(String, f64)> = None;
    let mut corrupt = false;
    while let Some(flag) = args.next() {
        if flag == "--corrupt-output" {
            corrupt = true;
            continue;
        }
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--inject" => {
                let parsed = value
                    .split_once('=')
                    .and_then(|(w, f)| Some((w.to_string(), f.parse::<f64>().ok()?)))
                    .filter(|(w, f)| workload_known(w) && *f >= 0.0);
                inject =
                    Some(parsed.unwrap_or_else(|| usage("--inject takes <workload>=<fraction>")));
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !workload_known(&workload) && workload != "all" {
        usage(&format!("unknown workload {workload}"));
    }
    let cwd = std::env::current_dir().expect("a working directory");
    let scratch = cwd.join(".perfbench_tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&scratch).expect("create the scratch directory");
    Opts {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed takes a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds takes a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace takes 0 or 1")),
        inject_into: inject,
        corrupt,
        scratch,
        out_dir: cwd.join(".perfbench_out"),
    }
}

fn workload_known(name: &str) -> bool {
    WORKLOADS.contains(&name)
}

fn run(opts: &Opts) -> report::Report {
    match opts.workload.as_str() {
        "paper-serial" => paper::run(opts, (1, 1), &paper::SERIAL),
        "paper-decomposed" => paper::run(opts, (5, 4), &paper::DECOMPOSED),
        "serve-mix" => serve_mix::run(opts),
        "sve-driver" => sve_driver::run(opts),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

fn main() {
    let opts = parse_args();
    let mut failed = false;
    if opts.workload == "all" {
        for workload in WORKLOADS {
            let one = Opts { workload: workload.to_string(), ..opts.clone() };
            let report = run(&one);
            failed |= report.failed > 0;
            println!("{}", report.to_json(opts.trace, Some(workload)));
        }
    } else {
        let report = run(&opts);
        failed = report.failed > 0;
        println!("{}", report.to_json(opts.trace, None));
    }
    let _ = std::fs::remove_dir_all(&opts.scratch);
    if let Some(parent) = opts.scratch.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    if failed {
        std::process::exit(1);
    }
}
