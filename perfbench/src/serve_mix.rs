//! The serve mix: two closed-loop clients drive `Service::handle` with
//! the seeded request stream, one round after another, each round on a
//! fresh service.  Every answer must be `done` with the final-field
//! bits of a direct run of the same deck.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use v2d_comm::Universe;
use v2d_core::config_file::ParFile;
use v2d_core::problems::Family;
use v2d_serve::proto::Source;
use v2d_serve::{fnv32_bits, Request, Response, ServeOpts, Service, Submit};

use crate::deck::{self, DeckSpec};
use crate::gen::{self, ServeReq};
use crate::host::{busy_wait, peak_rss_mb, process_usage};
use crate::report::Report;
use crate::stats::{median, quantile};
use crate::trace::{self, Layer, Span, Spans, HOST};
use crate::Opts;

/// Closed-loop clients (one per host core of the reference machine).
pub const CLIENTS: usize = 2;
const MIN_ROUNDS: usize = 3;

/// Set-ups (deck preparation, `Service::new`) timed together as one
/// `setup_s` sample, before each round.
const SETUP_BATCH: usize = 10;

/// Read and admit-check the round's decks, and start a service.
fn set_up(opts: &Opts) -> (Service, Vec<String>) {
    let decks: Vec<String> = gen::serve_requests(opts.seed).iter().map(ServeReq::deck).collect();
    for d in &decks {
        let par = ParFile::parse(d).expect("generated decks parse");
        par.to_config().expect("generated decks are valid");
    }
    let svc = Service::new(ServeOpts {
        workers: CLIENTS,
        result_cache_cap: 2 * gen::ROUND,
        universe: Universe::EventDriven,
        gated: false,
        scratch: opts.scratch.clone(),
    });
    (svc, decks)
}

/// A direct run's answer and cost, per distinct deck.
struct Direct {
    fnv32: u64,
    len: usize,
    /// Self CPU seconds per layer, from a traced direct run.
    layers: BTreeMap<Layer, f64>,
    checkpoint_s: f64,
    checkpoints: u64,
    save_s: f64,
    saves: u64,
    save_bytes: u64,
    validate_s: f64,
    new_s: f64,
    steps: usize,
}

fn direct_run(deck: &str, opts: &Opts, id: u64, epoch: Instant) -> (Direct, Vec<Span>) {
    let mut host = Spans::new(opts.trace, epoch, id, HOST);
    host.begin("config.parse", Layer::Core);
    let par = ParFile::parse(deck).expect("generated decks parse");
    let (cfg, np) = par.to_config().expect("generated decks are valid");
    let (every, _) = par.checkpoint_policy().expect("generated checkpoint policy is valid");
    let family =
        par.problem().expect("generated problem section is valid").unwrap_or(Family::Gaussian);
    host.end();
    let store = opts.scratch.join(format!("direct_{id}"));
    let spec = DeckSpec {
        cfg,
        family,
        np,
        one_lane: true,
        steps: cfg.n_steps,
        checkpoint_every: every,
        store: Some(store.clone()),
        final_path: None,
        snap_steps: Vec::new(),
        validate: opts.trace,
        trace: opts.trace,
        run_id: id,
        inject: 0.0,
    };
    let mut out = deck::run(&spec, epoch, &mut host);
    let _ = std::fs::remove_dir_all(&store);
    let bits: Vec<u64> = out.field().iter().map(|x| x.to_bits()).collect();
    let mut spans = out.spans();
    spans.extend(host.done);
    let direct = Direct {
        fnv32: fnv32_bits(&bits),
        len: bits.len(),
        // The service does not validate: leave that span out of the cost
        // a computed answer stands for.
        layers: trace::self_cpu_by_layer(
            &spans.iter().filter(|s| s.name != "validate").cloned().collect::<Vec<_>>(),
        ),
        checkpoint_s: trace::cpu_of(&spans, "checkpoint.write"),
        checkpoints: spans.iter().filter(|s| s.name == "checkpoint.write").count() as u64,
        save_s: trace::cpu_of(&spans, "io.save"),
        saves: out.sum(|r| r.saves),
        save_bytes: out.sum(|r| r.save_bytes),
        validate_s: trace::cpu_of(&spans, "validate"),
        new_s: trace::cpu_of(&spans, "sim.new"),
        steps: cfg.n_steps,
    };
    (direct, spans)
}

/// One answered request.
struct Answer {
    index: usize,
    latency_s: f64,
    handle_s: f64,
    response: Response,
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let epoch = Instant::now();
    let decks: Vec<String> = gen::serve_requests(opts.seed).iter().map(ServeReq::deck).collect();

    // The reference answers, one direct run per distinct deck, outside
    // the timed region.
    let mut direct: BTreeMap<&str, Direct> = BTreeMap::new();
    let mut direct_spans = Vec::new();
    for deck in &decks {
        if !direct.contains_key(deck.as_str()) {
            let (d, spans) = direct_run(deck, opts, 1000 + direct.len() as u64, epoch);
            direct.insert(deck, d);
            direct_spans.extend(spans);
        }
    }

    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut latencies = Vec::new();
    let mut computed_lat = Vec::new();
    let mut shared_lat = Vec::new();
    let mut handle_s = Vec::new();
    let mut counters: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut attempts = Vec::new();
    let mut computed_decks: Vec<&str> = Vec::new();
    let mut client_spans: Vec<Span> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut traced_cpu_s = 0.0;
    let usage0 = process_usage();
    let t_region = Instant::now();
    let mut round = 0usize;
    let mut peak_rss = 0.0;
    while round < MIN_ROUNDS
        || t_region.elapsed().as_secs_f64() + walls.last().copied().unwrap_or(0.0) <= opts.seconds
    {
        round += 1;
        let traced = opts.trace && round.is_multiple_of(2);
        // Set-up: a batch of services, the last of which serves the round.
        let t_setup = Instant::now();
        let mut batch: Vec<_> = (0..SETUP_BATCH).map(|_| set_up(opts)).collect();
        setups.push(t_setup.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        let (svc, round_decks) = batch.pop().expect("a set-up batch is not empty");
        for (spare, _) in batch {
            spare.shutdown();
        }
        let u0 = process_usage();

        let t0 = Instant::now();
        let cursor = AtomicUsize::new(0);
        let answers: Mutex<Vec<Answer>> = Mutex::new(Vec::with_capacity(gen::ROUND));
        let spans: Mutex<Vec<Span>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let (svc, cursor, answers, spans, decks) =
                    (&svc, &cursor, &answers, &spans, &round_decks);
                scope.spawn(move || {
                    let mut sp = Spans::new(traced, epoch, round as u64, client as u32);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= decks.len() {
                            break;
                        }
                        let req = Request::Submit(Submit {
                            id: format!("r{round}-{i}"),
                            deck: decks[i].clone(),
                            priority: 0,
                            faults: Vec::new(),
                        });
                        let t = Instant::now();
                        sp.begin("serve.request", Layer::Serve);
                        let handled = svc.handle(req);
                        let handle_s = t.elapsed().as_secs_f64();
                        let response = handled.wait();
                        if opts.inject() > 0.0 {
                            busy_wait(t.elapsed().as_secs_f64() * opts.inject());
                        }
                        sp.end();
                        let latency_s = t.elapsed().as_secs_f64();
                        answers.lock().expect("no client panics holding the lock").push(Answer {
                            index: i,
                            latency_s,
                            handle_s,
                            response,
                        });
                    }
                    spans.lock().expect("no client panics holding the lock").extend(sp.done);
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        let m = svc.metrics();
        svc.shutdown();
        let u = process_usage().since(u0);
        walls.push(wall);
        if walls.len() == MIN_ROUNDS {
            peak_rss = peak_rss_mb();
        }
        if traced {
            traced_walls.push(wall);
            traced_cpu_s += u.user_s + u.sys_s;
            client_spans.extend(spans.into_inner().expect("clients joined"));
        } else {
            untraced_walls.push(wall);
        }

        let mut answers = answers.into_inner().expect("clients joined");
        answers.sort_by_key(|a| a.index);
        for a in &answers {
            let deck = decks[a.index].as_str();
            let want = &direct[deck];
            latencies.push(a.latency_s);
            handle_s.push(a.handle_s);
            let mut ok = false;
            if let Response::Result { source, result, .. } = &a.response {
                let mut fnv = result.bits_fnv32;
                if opts.corrupt && a.index == 0 {
                    fnv = fnv.map(|f| f ^ 1);
                }
                ok = result.outcome == "done"
                    && fnv == Some(want.fnv32)
                    && result.bits_len == Some(want.len);
                match source {
                    Source::Computed => {
                        computed_lat.push(a.latency_s);
                        computed_decks.push(deck);
                        attempts.push(result.ledger.as_ref().map_or(0, |l| l.attempts) as f64);
                    }
                    _ => shared_lat.push(a.latency_s),
                }
            }
            report.check(ok, || {
                format!("round {round} request {}: {:?}", a.index, a.response.to_line())
            });
        }
        for name in [
            "serve.admitted",
            "serve.deduped",
            "serve.cache.result_hits",
            "serve.completed",
            "serve.failed",
            "serve.rejected",
        ] {
            counters.entry(name).or_default().push(m.counter(name) as f64);
        }
    }
    let region_wall = t_region.elapsed().as_secs_f64();
    let usage = process_usage().since(usage0);

    // Medians over the run's rounds; request latencies pooled over
    // every request of every round.
    report.set("setup_s", median(&setups));
    report.set("wall_s", median(&walls));
    report.set("ops_per_s", gen::ROUND as f64 / median(&walls));
    report.set("latency_ms.p50", 1e3 * median(&latencies));
    report.set("latency_ms.p95", 1e3 * quantile(&latencies, 0.95));
    report.set("peak_rss_mb", peak_rss);
    if !opts.trace {
        return report;
    }

    let per_round = |name: &str| median(&counters[name]);
    let rounds = walls.len() as f64;
    report.set("serve.handle_us", 1e6 * median(&handle_s));
    report.set("serve.latency_ms.computed.p50", 1e3 * median(&computed_lat));
    report.set("serve.latency_ms.computed.p95", 1e3 * quantile(&computed_lat, 0.95));
    report.set("serve.latency_ms.shared.p50", 1e3 * median(&shared_lat));
    let admitted: f64 = counters["serve.admitted"].iter().sum();
    let shared: f64 = counters["serve.deduped"].iter().sum::<f64>()
        + counters["serve.cache.result_hits"].iter().sum::<f64>();
    report.set("serve.shared_hit_frac", shared / admitted);
    report.set("serve.completed", per_round("serve.completed"));
    report.set("serve.failed", per_round("serve.failed"));
    report.set("serve.rejected", per_round("serve.rejected"));
    report.set("core.supervise.attempts", attempts.iter().sum::<f64>() / rounds);
    report.set("trace.overhead_frac", median(&traced_walls) / median(&untraced_walls) - 1.0);
    report.set("host.user_s", usage.user_s);
    report.set("host.sys_s", usage.sys_s);
    report.set("host.wall_s", region_wall);
    report.set("host.ctx_switches", usage.ctx_switches as f64);

    // Layers below the service, from the direct runs: each computed
    // answer costs one run of its deck.
    let ds: Vec<&Direct> = direct.values().collect();
    let per = |f: &dyn Fn(&Direct) -> f64, g: &dyn Fn(&Direct) -> f64| {
        ds.iter().map(|d| f(d)).sum::<f64>() / ds.iter().map(|d| g(d)).sum::<f64>().max(1.0)
    };
    report.set("core.sim.new_ms", 1e3 * per(&|d| d.new_s, &|_| 1.0));
    report
        .set("core.checkpoint.write_ms", 1e3 * per(&|d| d.checkpoint_s, &|d| d.checkpoints as f64));
    report.set("core.validate_ms", 1e3 * per(&|d| d.validate_s, &|_| 1.0));
    report.set("core.sim.steps", per(&|d| d.steps as f64, &|_| 1.0));
    report.set("io.save_ms", 1e3 * per(&|d| d.save_s, &|d| d.saves as f64));
    let computed_per_round = |f: &dyn Fn(&Direct) -> f64| {
        computed_decks.iter().map(|d| f(&direct[d])).sum::<f64>() / rounds
    };
    report.set("io.bytes", computed_per_round(&|d| d.save_bytes as f64));

    let traced_rounds = traced_walls.len() as f64;
    let mut layers: BTreeMap<Layer, f64> = BTreeMap::new();
    for deck in &computed_decks {
        for (l, s) in &direct[deck].layers {
            *layers.entry(*l).or_default() += s * traced_rounds / rounds;
        }
    }
    *layers.entry(Layer::Serve).or_default() +=
        trace::self_cpu_by_layer(&client_spans).values().sum::<f64>();
    let layers: Vec<(Layer, f64)> = layers.into_iter().collect();
    report.set_self_times(traced_cpu_s, &layers);
    opts.write_spans(client_spans.into_iter().chain(direct_spans));
    report
}
