//! `via` — command-line interface to the VIA reproduction.
//!
//! ```text
//! via gen      --scale small --seed 7 --out trace.jsonl   generate a trace
//! via analyze  trace.jsonl                                 §2 dataset analysis
//! via replay   --scale small --strategy via --objective rtt  run one strategy
//! via testbed  --clients 4 --relays 4 --pairs 3 --rounds 3   live loopback run
//! ```
//!
//! Everything except `testbed` is deterministic in `--seed`.

mod args;

use std::path::Path;

use args::Flags;
use via_core::replay::{ReplayConfig, ReplaySim};
use via_core::strategy::{MultipathMode, StrategyKind};
use via_model::metrics::{Metric, Thresholds};
use via_model::time::WindowLen;
use via_netsim::World;
use via_trace::stream::{FileSource, RecordSource};
use via_trace::{write_trace, Scale, TraceGenerator};

const USAGE: &str = "\
via — predictive relay selection for Internet telephony (SIGCOMM 2016 reproduction)

USAGE:
    via gen     [same flags as trace gen; --out defaults to trace.jsonl]
    via trace gen     [--scale tiny|small|paper] [--seed N] [--out FILE.jsonl|.vbt]
                      [--frame-hours N]
    via trace convert IN.jsonl|.vbt OUT.jsonl|.vbt [--frame-hours N]
    via trace info    FILE.jsonl|.vbt
    via analyze FILE.jsonl|.vbt
    via replay  [--scale tiny|small|paper] [--seed N] [--workers N]
                [--stream] [--trace FILE.jsonl|.vbt]
                [--strategy default|oracle|prediction|exploration|via|budgeted|racing|multipath]
                [--objective rtt|loss|jitter] [--budget F]
                [--k N] [--mode dup|stripe]   (multipath only)
                [--metrics FILE.json] [--metrics-prom FILE.prom]
    via testbed [--clients N] [--relays N] [--pairs N] [--rounds N] [--seed N]
                [--probes N] [--gap-ms N] [--deadline-s N] [--chaos true]
                [--metrics FILE.json] [--metrics-prom FILE.prom]
    via server serve [--addr HOST:PORT] [--deadline-s N] [--scale tiny|small|paper]
                [--seed N] [--objective rtt|loss|jitter] [--epsilon F]
                [--budget F] [--shards N] [--window-hours N]
    via server soak  [--clients N] [--calls N] [--windows N] [same knobs as serve]
                [--metrics FILE.json] [--metrics-prom FILE.prom]

`via trace gen` streams records straight to disk (any scale in bounded
memory); `via gen` is the same command with a JSONL default. `via replay
--stream` replays without materializing the trace: from a file when
--trace is given, else generated on the fly — results are byte-identical
to the materialized replay at every --workers value.

The replay `--metrics` snapshot holds only the deterministic metric core:
it is byte-identical for any --workers value and across reruns of the same
seed. Testbed metrics describe real socket behavior and are not.

`via server serve` runs the live controller until a client sends Shutdown
(or --deadline-s elapses). `via server soak` is self-contained: it serves
on an ephemeral loopback port, drives concurrent clients through select/
report rounds spanning window rollovers, fails on any protocol error or on
a session still open after shutdown, and writes the controller's
observability snapshot wherever --metrics points.
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let result = match cmd.as_str() {
        "gen" => cmd_trace_gen(rest, "trace.jsonl"),
        "trace" => cmd_trace(rest),
        "analyze" => cmd_analyze(rest),
        "replay" => cmd_replay(rest),
        "testbed" => cmd_testbed(rest),
        "server" => cmd_server(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => {
            eprintln!("unknown subcommand '{other}'\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Writes a metrics snapshot wherever the `--metrics` (JSON) and
/// `--metrics-prom` (Prometheus text exposition) flags point. The JSON form
/// is the serialized deterministic core — wall-clock timings never reach it.
fn write_metrics(
    snap: &via_obs::MetricsSnapshot,
    json: Option<&str>,
    prom: Option<&str>,
) -> CliResult {
    if let Some(path) = json {
        let mut body = serde_json::to_string_pretty(snap)?;
        body.push('\n');
        std::fs::write(path, body)?;
        println!("metrics: {} -> {path}", snap.brief());
    }
    if let Some(path) = prom {
        std::fs::write(path, via_obs::to_prometheus(snap))?;
        println!("metrics (prometheus) -> {path}");
    }
    Ok(())
}

/// On-disk framing window for `.vbt` outputs (`--frame-hours`, default 24).
fn frame_len(flags: &Flags) -> Result<WindowLen, Box<dyn std::error::Error>> {
    let hours = flags.u64_or("frame-hours", 24)?;
    WindowLen::secs_checked(hours.saturating_mul(3_600))
        .ok_or_else(|| format!("--frame-hours must be positive, got {hours}").into())
}

fn cmd_trace(rest: &[String]) -> CliResult {
    let Some((sub, rest)) = rest.split_first() else {
        return Err("trace needs a subcommand: gen | convert | info".into());
    };
    match sub.as_str() {
        "gen" => cmd_trace_gen(rest, "trace.vbt"),
        "convert" => cmd_trace_convert(rest),
        "info" => cmd_trace_info(rest),
        other => Err(format!("unknown trace subcommand '{other}' (gen|convert|info)").into()),
    }
}

/// `via trace gen` and `via gen` (which differ only in `default_out`):
/// stream a synthetic trace straight to disk. The trace is never
/// materialized — paper scale works in a few dozen MiB of memory.
fn cmd_trace_gen(rest: &[String], default_out: &str) -> CliResult {
    let flags = Flags::parse(rest)?;
    let seed = flags.u64_or("seed", 2016)?;
    let scale = flags.str_or("scale", "small");
    let out = flags.str_or("out", default_out).to_string();
    let frame = frame_len(&flags)?;
    let scale = Scale::parse(scale)?;
    let world = World::generate(&scale.world_config(), seed);
    let generator = TraceGenerator::new(&world, scale.trace_config(), seed);
    let n = write_trace(generator.stream(), Path::new(&out), frame)?;
    println!(
        "streamed {n} calls over {} days ({} ASes, {} relays, seed {seed}) -> {out}",
        generator.effective_days(),
        world.ases.len(),
        world.relays.len(),
    );
    Ok(())
}

/// `via trace convert`: stream-convert between `.jsonl` and `.vbt` without
/// materializing the trace.
fn cmd_trace_convert(rest: &[String]) -> CliResult {
    let flags = Flags::parse(rest)?;
    let input = flags.positional_at(0, "input trace file")?.to_string();
    let output = flags.positional_at(1, "output trace file")?.to_string();
    let frame = frame_len(&flags)?;
    let src = FileSource::open(Path::new(&input))?;
    let n = write_trace(src, Path::new(&output), frame)?;
    let in_bytes = std::fs::metadata(&input)?.len();
    let out_bytes = std::fs::metadata(&output)?.len();
    println!("converted {n} records: {input} ({in_bytes} B) -> {output} ({out_bytes} B)");
    Ok(())
}

/// `via trace info`: print a trace file's header without reading its body.
fn cmd_trace_info(rest: &[String]) -> CliResult {
    let flags = Flags::parse(rest)?;
    let path = flags.positional("trace file")?.to_string();
    let p = Path::new(&path);
    let file_bytes = std::fs::metadata(p)?.len();
    let src = FileSource::open(p)?;
    match &src {
        FileSource::Jsonl(_) => println!("format: jsonl (text, one record per line)"),
        FileSource::Binary(b) => {
            let h = b.header();
            println!(
                "format: vbt v{} (binary, {}-byte records, framed at {} s)",
                h.version,
                via_trace::binfmt::RECORD_BYTES,
                h.frame_len.secs(),
            );
        }
    }
    let records = src.size_hint().unwrap_or(0);
    println!(
        "seed: {}   days: {}   records: {records}   file: {file_bytes} bytes",
        src.seed(),
        src.days(),
    );
    if records > 0 {
        println!("bytes/record: {:.1}", file_bytes as f64 / records as f64);
    }
    Ok(())
}

fn cmd_analyze(rest: &[String]) -> CliResult {
    let flags = Flags::parse(rest)?;
    let path = flags.positional("trace file")?;
    let trace = via_trace::load_trace(Path::new(path))?;
    for (index, record) in (0..).zip(&trace.records) {
        record.check(index, trace.days, None)?;
    }

    let s = via_trace::analysis::dataset_summary(&trace);
    println!("calls: {}", s.calls);
    println!("users: {}", s.users);
    println!(
        "ASes: {}   countries: {}   days: {}",
        s.ases, s.countries, s.days
    );
    println!(
        "international: {:.1}%   inter-AS: {:.1}%   wireless: {:.1}%",
        100.0 * s.international_fraction,
        100.0 * s.inter_as_fraction,
        100.0 * s.wireless_fraction
    );

    println!("\nmetric distribution (default paths):");
    println!("| metric | p50 | p90 | p99 | beyond threshold |");
    println!("|---|---|---|---|---|");
    for metric in Metric::ALL {
        let cdf = via_trace::analysis::metric_cdf(&trace, metric).ok_or("trace holds no calls")?;
        println!(
            "| {metric} | {:.1} | {:.1} | {:.1} | {:.1}% |",
            cdf.quantile(0.5),
            cdf.quantile(0.9),
            cdf.quantile(0.99),
            100.0 * cdf.fraction_at_or_above(Thresholds.for_metric(metric)),
        );
    }

    let scope = via_trace::analysis::pnr_by_scope(&trace);
    println!(
        "\nPNR(any): international {:.1}% vs domestic {:.1}%",
        100.0 * scope.international.any,
        100.0 * scope.domestic.any
    );
    Ok(())
}

/// A relaying budget is a fraction in (0, 1]; `BudgetGate::new` asserts it,
/// so the flag is checked here, where it is parsed.
fn parse_budget(budget: f64) -> Result<f64, String> {
    if budget > 0.0 && budget <= 1.0 {
        Ok(budget)
    } else {
        Err(format!(
            "--budget must be a fraction in (0, 1], got {budget}"
        ))
    }
}

fn parse_strategy(name: &str, budget: f64, k: usize, mode: &str) -> Result<StrategyKind, String> {
    Ok(match name {
        "default" => StrategyKind::Default,
        "oracle" => StrategyKind::Oracle,
        "prediction" => StrategyKind::PredictionOnly,
        "exploration" => StrategyKind::ExplorationOnly,
        "via" => StrategyKind::Via,
        "budgeted" => StrategyKind::ViaBudgeted {
            budget: parse_budget(budget)?,
        },
        "racing" => StrategyKind::HybridRacing { k: 3 },
        "multipath" => {
            if k == 0 {
                return Err("multipath needs --k >= 1".into());
            }
            StrategyKind::Multipath {
                k,
                mode: parse_multipath_mode(mode)?,
                budget: parse_budget(budget)?,
            }
        }
        other => return Err(format!("unknown strategy '{other}'")),
    })
}

fn parse_multipath_mode(name: &str) -> Result<MultipathMode, String> {
    Ok(match name {
        "dup" | "duplicate" => MultipathMode::Duplicate,
        "stripe" => MultipathMode::Stripe,
        other => return Err(format!("unknown multipath mode '{other}' (dup|stripe)")),
    })
}

fn parse_objective(name: &str) -> Result<Metric, String> {
    Ok(match name {
        "rtt" => Metric::Rtt,
        "loss" => Metric::Loss,
        "jitter" => Metric::Jitter,
        other => return Err(format!("unknown objective '{other}' (rtt|loss|jitter)")),
    })
}

fn cmd_replay(rest: &[String]) -> CliResult {
    let flags = Flags::parse(rest)?;
    let seed = flags.u64_or("seed", 2016)?;
    let scale = flags.str_or("scale", "small");
    let strategy_name = flags.str_or("strategy", "via");
    // Budgeted defaults to the paper's 0.3 relay budget; multipath defaults
    // to an open gate so `--strategy multipath --k 2` duplicates freely
    // until an explicit --budget is set (duplicate traffic is charged k×).
    let default_budget = if strategy_name == "multipath" {
        1.0
    } else {
        0.3
    };
    let budget = flags.f64_or("budget", default_budget)?;
    let k = usize::try_from(flags.u64_or("k", 2)?)?;
    let mp_mode = flags.str_or("mode", "dup");
    // Worker count only affects wall-clock: replay results are byte-identical
    // for any value (0 = one worker per core).
    let workers = usize::try_from(flags.u64_or("workers", 0)?)?;
    let kind = parse_strategy(strategy_name, budget, k, mp_mode)?;
    let objective = parse_objective(flags.str_or("objective", "rtt"))?;
    let metrics_json = flags.str_opt("metrics");
    let metrics_prom = flags.str_opt("metrics-prom");
    // Streamed replay: from a trace file (--trace) or generated on the fly
    // (--stream without --trace). Either way the trace is never
    // materialized, per-call outcomes are not collected, and the reported
    // numbers come from the worker-count-invariant aggregate — byte-identical
    // to what the materialized engine computes.
    let trace_file = flags.str_opt("trace").map(str::to_string);
    let streamed = flags.bool_or("stream", false)? || trace_file.is_some();

    let scale = Scale::parse(scale)?;
    let world = World::generate(&scale.world_config(), seed);
    let cfg = ReplayConfig {
        objective,
        seed,
        workers,
        metrics: metrics_json.is_some() || metrics_prom.is_some(),
        collect_calls: !streamed,
        ..ReplayConfig::default()
    };
    let out = if let Some(file) = &trace_file {
        ReplaySim::streaming(&world, cfg).run_stream(FileSource::open(Path::new(file))?, kind)?
    } else if streamed {
        let generator = TraceGenerator::new(&world, scale.trace_config(), seed);
        ReplaySim::streaming(&world, cfg).run_stream(generator.stream(), kind)?
    } else {
        let trace = TraceGenerator::new(&world, scale.trace_config(), seed).generate();
        ReplaySim::new(&world, &trace, cfg).run(kind)
    };
    let pnr = out.aggregate.pnr();
    let (direct, bounce, transit) = out.aggregate.option_mix();

    println!(
        "strategy: {}   objective: {objective}   calls: {}",
        out.strategy, out.aggregate.calls
    );
    println!(
        "PNR: rtt {:.1}%  loss {:.1}%  jitter {:.1}%  any {:.1}%",
        100.0 * pnr.rtt,
        100.0 * pnr.loss,
        100.0 * pnr.jitter,
        100.0 * pnr.any
    );
    println!(
        "mix: direct {:.0}%  bounce {:.0}%  transit {:.0}%   controller contacts: {}",
        100.0 * direct,
        100.0 * bounce,
        100.0 * transit,
        out.controller_contacts
    );
    println!("engine: {}", out.stats.summary());
    if streamed {
        let mibs = if out.stats.wall_ms > 0.0 {
            out.stats.bytes_decoded as f64 / (out.stats.wall_ms / 1e3) / (1024.0 * 1024.0)
        } else {
            0.0
        };
        println!(
            "stream: {} bytes decoded ({mibs:.1} MiB/s), digest {:#018x}",
            out.stats.bytes_decoded, out.aggregate.digest
        );
    }
    if let Some(snap) = &out.obs {
        write_metrics(snap, metrics_json, metrics_prom)?;
    }
    Ok(())
}

fn cmd_testbed(rest: &[String]) -> CliResult {
    let flags = Flags::parse(rest)?;
    // Narrow with range checks so oversized values error instead of
    // silently truncating.
    fn bounded<T: TryFrom<u64>>(value: u64, flag: &str) -> Result<T, String> {
        T::try_from(value).map_err(|_| format!("--{flag} value {value} is out of range"))
    }
    let mut cfg = via_testbed::TestbedConfig {
        n_clients: bounded(flags.u64_or("clients", 4)?, "clients")?,
        n_relays: bounded(flags.u64_or("relays", 4)?, "relays")?,
        n_pairs: bounded(flags.u64_or("pairs", 3)?, "pairs")?,
        rounds: bounded(flags.u64_or("rounds", 3)?, "rounds")?,
        probes: bounded(flags.u64_or("probes", 15)?, "probes")?,
        gap_ms: flags.u64_or("gap-ms", 2)?,
        seed: flags.u64_or("seed", 18)?,
        ..via_testbed::TestbedConfig::fast()
    };
    cfg.timing.global = std::time::Duration::from_secs(flags.u64_or("deadline-s", 180)?);
    if flags.bool_or("chaos", false)? {
        cfg.fault = via_testbed::FaultPlan::chaos(cfg.seed, cfg.n_pairs, cfg.n_relays);
    }
    let result = via_testbed::run_testbed(&cfg)?;
    println!(
        "{} reports collected ({} degraded to the direct path); \
         {} probes forwarded, {} dropped by impairment",
        result.reports.len(),
        result.degraded_count(),
        result.forwarded,
        result.dropped
    );
    if !result.failures.is_empty() {
        println!("{} calls failed:", result.failures.len());
        for f in &result.failures {
            let relay = f.relay.map_or_else(|| "-".to_string(), |r| r.to_string());
            println!(
                "  client-{}->client-{} relay {relay}: {}",
                f.caller,
                f.callee,
                f.cause.kind()
            );
        }
    }
    for (client, e) in &result.client_errors {
        println!("client error: client-{client}: {e}");
    }
    let eval = via_testbed::evaluate_via_selection(&result.reports, Metric::Rtt);
    println!(
        "VIA selection: {} decisions, best relay picked {:.0}% of the time",
        eval.decisions,
        100.0 * eval.best_pick_fraction
    );
    write_metrics(
        &result.obs,
        flags.str_opt("metrics"),
        flags.str_opt("metrics-prom"),
    )?;
    Ok(())
}

/// A built controller plus the key-space size and candidate set the soak
/// loop drives it with.
type BuiltServer = (
    std::sync::Arc<via_server::Controller>,
    u32,
    Vec<via_model::options::RelayOption>,
);

/// Builds a live controller from the shared server flags: the world's
/// controller inputs at AS granularity, exactly what the replay engine hands
/// its predictor.
fn build_server(flags: &Flags) -> Result<BuiltServer, Box<dyn std::error::Error>> {
    use via_model::ids::RelayId;
    use via_model::options::RelayOption;

    let seed = flags.u64_or("seed", 7)?;
    let scale = Scale::parse(flags.str_or("scale", "tiny"))?;
    let world = World::generate(&scale.world_config(), seed);
    // One key per AS.
    let n_keys = u32::try_from(world.ases.len())?;
    let (prior, backbone) = via_core::SpatialGranularity::As.controller_inputs(&world);
    let n_relays = world.relays.len();
    let budget = flags.f64_or("budget", 0.0)?;
    let cfg = via_server::ServerConfig {
        seed,
        objective: parse_objective(flags.str_or("objective", "rtt"))?,
        window: WindowLen::hours(flags.u64_or("window-hours", 1)?.max(1)),
        epsilon: flags.f64_or("epsilon", 0.05)?,
        // 0 (the default) means "no gate".
        budget: if budget == 0.0 {
            None
        } else {
            Some(parse_budget(budget)?)
        },
        shards: usize::try_from(flags.u64_or("shards", 8)?)?,
    };
    // Candidate set offered on every call: direct, a bounce through each of
    // up to 8 relays, and one transit pair when the fleet allows it.
    let mut candidates = vec![RelayOption::Direct];
    candidates.extend((0..n_relays.min(8)).map(|r| RelayOption::Bounce(RelayId(r as u32))));
    if n_relays >= 2 {
        candidates.push(RelayOption::Transit(RelayId(0), RelayId(1)));
    }
    let controller = std::sync::Arc::new(via_server::Controller::new(cfg, prior, backbone));
    Ok((controller, n_keys, candidates))
}

fn cmd_server(rest: &[String]) -> CliResult {
    let Some((sub, rest)) = rest.split_first() else {
        return Err("server needs a subcommand (serve|soak)".into());
    };
    match sub.as_str() {
        "serve" => cmd_server_serve(rest),
        "soak" => cmd_server_soak(rest),
        other => Err(format!("unknown server subcommand '{other}' (serve|soak)").into()),
    }
}

fn cmd_server_serve(rest: &[String]) -> CliResult {
    let flags = Flags::parse(rest)?;
    let (controller, n_keys, candidates) = build_server(&flags)?;
    let addr: std::net::SocketAddr = flags.str_or("addr", "127.0.0.1:4790").parse()?;
    let deadline_s = flags.u64_or("deadline-s", 0)?;
    let handle = via_server::serve_on(controller, addr)?;
    println!(
        "via-server listening on {} ({} keys, {} candidate options per call)",
        handle.addr(),
        n_keys,
        candidates.len()
    );
    let started = via_obs::Stopwatch::started();
    while !handle.shutting_down() {
        if deadline_s > 0 && started.elapsed_ms() / 1_000.0 >= deadline_s as f64 {
            println!("deadline reached; stopping");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let controller = std::sync::Arc::clone(handle.controller());
    handle.stop();
    let snap = controller.observability_snapshot();
    println!("server stopped: {}", snap.brief());
    Ok(())
}

/// Self-contained soak: serve on an ephemeral loopback port, drive
/// concurrent client connections through select/report rounds that span
/// window rollovers, then snapshot and shut down. Any protocol error, or a
/// session still open once every handler has joined, fails the run (exit
/// code 1) — this is the CI soak gate.
fn cmd_server_soak(rest: &[String]) -> CliResult {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use via_model::time::SimTime;

    let flags = Flags::parse(rest)?;
    let (controller, n_keys, candidates) = build_server(&flags)?;
    let seed = flags.u64_or("seed", 7)?;
    let clients = flags.u64_or("clients", 4)?.max(1);
    let calls = flags.u64_or("calls", 2_000)?.max(1);
    let windows = flags.u64_or("windows", 3)?.max(1);
    let window_secs = controller.config().window.secs();
    let span = windows * window_secs;
    let timeout = std::time::Duration::from_secs(10);

    let handle = via_server::serve(controller)?;
    let addr = handle.addr();
    println!("soak: {clients} clients x {calls} calls over {windows} windows against {addr}");
    let started = via_obs::Stopwatch::started();
    let workers: Vec<std::thread::JoinHandle<Result<u64, String>>> = (0..clients)
        .map(|c| {
            let candidates = candidates.clone();
            std::thread::spawn(move || {
                let mut client = via_server::Client::connect(addr, timeout)
                    .map_err(|e| format!("client {c} connect: {e}"))?;
                let mut rng =
                    StdRng::seed_from_u64(via_model::seed::derive_indexed(seed, "soak.client", c));
                let mut done = 0u64;
                for i in 0..calls {
                    let call_id = c * calls + i;
                    let t = SimTime(span * i / calls);
                    let src = rng.random_range(0..n_keys);
                    let dst = (src + rng.random_range(1..n_keys.max(2))) % n_keys;
                    let sel = client
                        .select(call_id, t, src, dst, &candidates)
                        .map_err(|e| format!("client {c} select #{i}: {e}"))?;
                    // Report the selected option so the soak is closed-loop.
                    let m = via_model::metrics::PathMetrics::new(
                        40.0 + rng.random::<f64>() * 80.0,
                        rng.random::<f64>() * 2.0,
                        1.0 + rng.random::<f64>() * 5.0,
                    );
                    client
                        .report(t, src, dst, sel.option, m)
                        .map_err(|e| format!("client {c} report #{i}: {e}"))?;
                    done += 1;
                }
                Ok(done)
            })
        })
        .collect();

    let mut completed = 0u64;
    let mut errors = Vec::new();
    for worker in workers {
        match worker.join() {
            Ok(Ok(n)) => completed += n,
            Ok(Err(e)) => errors.push(e),
            Err(_) => errors.push("client thread panicked".to_string()),
        }
    }
    let elapsed = started.elapsed_ms() / 1_000.0;

    // Snapshot over the wire (exercises the RPC), then client-initiated
    // shutdown; wait() returns only when the accept loop exited cleanly.
    let controller = std::sync::Arc::clone(handle.controller());
    let mut control =
        via_server::Client::connect(addr, timeout).map_err(|e| format!("control connect: {e}"))?;
    let snapshot_json = control.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    handle.wait();

    let hist = controller.latency_histogram();
    let p50 = hist.quantile_bracket(0.5).map_or(f64::NAN, |(_, hi)| hi);
    let p99 = hist.quantile_bracket(0.99).map_or(f64::NAN, |(_, hi)| hi);
    println!(
        "soak: {completed} calls in {elapsed:.2}s ({:.0} selections/s over the socket), \
         select p50 <= {p50:.1} us, p99 <= {p99:.1} us, {} rollovers, {} snapshot bytes",
        completed as f64 / elapsed.max(1e-9),
        controller.window_index(),
        snapshot_json.len()
    );
    write_metrics(
        &controller.observability_snapshot(),
        flags.str_opt("metrics"),
        flags.str_opt("metrics-prom"),
    )?;
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("protocol error: {e}");
        }
        return Err(format!("soak saw {} protocol errors", errors.len()).into());
    }
    if completed != clients * calls {
        return Err(format!("soak completed {completed} of {} calls", clients * calls).into());
    }
    // wait() joined every handler, and a handler ends its session on exit.
    let leaked = controller.live_sessions();
    if leaked != 0 {
        return Err(format!("soak leaked {leaked} sessions past shutdown").into());
    }
    println!("soak: clean shutdown, zero protocol errors");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_parse() {
        assert!(matches!(
            parse_strategy("default", 0.3, 2, "dup").unwrap(),
            StrategyKind::Default
        ));
        assert!(matches!(
            parse_strategy("via", 0.3, 2, "dup").unwrap(),
            StrategyKind::Via
        ));
        assert!(matches!(
            parse_strategy("budgeted", 0.25, 2, "dup").unwrap(),
            StrategyKind::ViaBudgeted { .. }
        ));
        assert!(matches!(
            parse_strategy("racing", 0.3, 2, "dup").unwrap(),
            StrategyKind::HybridRacing { k: 3 }
        ));
        assert!(matches!(
            parse_strategy("multipath", 1.0, 2, "dup").unwrap(),
            StrategyKind::Multipath {
                k: 2,
                mode: MultipathMode::Duplicate,
                ..
            }
        ));
        assert!(matches!(
            parse_strategy("multipath", 0.25, 3, "stripe").unwrap(),
            StrategyKind::Multipath {
                k: 3,
                mode: MultipathMode::Stripe,
                ..
            }
        ));
        assert!(parse_strategy("multipath", 1.0, 0, "dup").is_err());
        assert!(parse_strategy("multipath", 1.0, 2, "fanout").is_err());
        assert!(parse_strategy("bogus", 0.3, 2, "dup").is_err());
        // A budget outside (0, 1] is a typed error, not a gate assertion.
        for bad in [0.0, 1.5, -0.1, f64::NAN] {
            for name in ["budgeted", "multipath"] {
                let err = parse_strategy(name, bad, 2, "dup").unwrap_err();
                assert!(err.contains("--budget"), "{name} {bad}: {err}");
            }
            // Strategies that carry no gate ignore the flag.
            assert!(parse_strategy("via", bad, 2, "dup").is_ok());
        }
        assert!(parse_strategy("budgeted", 1.0, 2, "dup").is_ok());
    }

    #[test]
    fn objectives_parse() {
        assert_eq!(parse_objective("rtt").unwrap(), Metric::Rtt);
        assert_eq!(parse_objective("loss").unwrap(), Metric::Loss);
        assert_eq!(parse_objective("jitter").unwrap(), Metric::Jitter);
        assert!(parse_objective("bandwidth").is_err());
    }
}
