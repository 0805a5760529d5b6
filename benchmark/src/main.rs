//! The repo benchmark. `--workload W --seed N --seconds S --trace 0|1` runs
//! one workload once and prints its metrics, the result line last; `all`
//! runs every workload untraced then traced, each in a fresh process;
//! `agree` checks that two sets of runs of this build agree within the
//! bounds in `BENCHMARK.json`. See `benchmark/README.md`.

mod agree;
mod alloc;
mod layers;
mod pin;
mod refclock;
mod report;
mod run;
mod span;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

const USAGE: &str = "usage:
  via-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  via-benchmark all
  via-benchmark agree
workloads: replay-via, replay-multipath-budget, stream-default-vbt, server-socket";

/// One run of one workload, as the driver asks for it.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Overrides the round count `--seconds` implies; the schema test passes
    /// 2 so that it finishes in a minute.
    pub rounds: Option<usize>,
}

fn parse(args: &[String]) -> Res<Args> {
    let (mut workload, mut seed, mut seconds, mut trace, mut rounds) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`\n{USAGE}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>()?),
            "--seconds" => {
                let s: f64 = value.parse()?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]").into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`").into()),
                });
            }
            "--rounds" => rounds = Some(value.parse::<usize>()?.max(2)),
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}").into()),
        }
    }
    let missing = |flag: &str| format!("{flag} is required\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        rounds,
    })
}

/// One run of one workload in this process. Returns whether it was correct.
fn run_one(args: &Args) -> Res<bool> {
    // Before any thread exists, so the server's threads inherit the mask.
    let pinned = pin::pin_to_last_allowed_cpu();
    let rounds = args
        .rounds
        .unwrap_or_else(|| run::rounds_for(args.workload, args.seconds));
    let report = if args.trace {
        run::traced(args.workload, args.seed, rounds, pinned)?
    } else {
        run::untraced(args.workload, args.seed, rounds, pinned)?
    };
    report.print(&format!(
        "{} --seed {} --trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    Ok(report.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.as_slice() {
        [mode] if mode == "all" => agree::all(),
        [mode] if mode == "agree" => agree::agree(),
        flags => parse(flags).and_then(|args| run_one(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("via-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
