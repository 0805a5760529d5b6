//! `all`: every workload, untraced then traced, each in a fresh child
//! process. `agree`: two interleaved sets of runs of this one build, their
//! medians compared metric by metric against the bounds in `BENCHMARK.json`
//! — the check the driver applies to a benchmark before trusting it.

use std::process::{Command, Stdio};

use serde::Value;

use crate::report::{declarations, Declared};
use crate::workloads::Workload;
use crate::Res;

/// Runs per workload in each of `agree`'s two sets.
const AGREE_RUNS: u64 = 5;
/// The seed `all` runs every workload on.
const ALL_SEED: u64 = 1;

/// One run in a fresh process, for as long as `BENCHMARK.json` says.
fn child(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Res<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    Ok(cmd)
}

/// Runs every workload untraced then traced, printing as the children do.
pub fn all() -> Res<bool> {
    let seconds = declarations()?.run_seconds;
    let mut correct = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            // `status` waits until the child has ended.
            let status = child(workload, ALL_SEED, seconds, trace)?.status()?;
            correct &= status.success();
        }
    }
    Ok(correct)
}

/// The metric values on the result line, the last line a run prints.
fn result_metrics(stdout: &str) -> Res<Vec<(String, f64)>> {
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let result: Value = serde_json::from_str(line)?;
    if *result.get("correct") != Value::Bool(true) {
        return Err(format!("the run was not correct: {line}").into());
    }
    let metrics = result
        .get("metrics")
        .as_map()
        .ok_or("no metrics on the result line")?;
    metrics
        .iter()
        .map(|(name, m)| match m.get("value") {
            Value::F64(v) => Ok((name.clone(), *v)),
            Value::I64(v) => Ok((name.clone(), *v as f64)),
            Value::U64(v) => Ok((name.clone(), *v as f64)),
            other => Err(format!("metric {name} has value {other:?}").into()),
        })
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the driver computes spreads with.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        return [x.first().copied().unwrap_or(f64::NAN); 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    })
}

/// By how much of `first` the median `second` is worse, given the metric's
/// direction; negative when it is better.
pub fn worsening(metric: &Declared, first: f64, second: f64) -> f64 {
    let change = (second - first) / first.abs();
    if metric.higher_is_better {
        -change
    } else {
        change
    }
}

/// Two interleaved sets of [`AGREE_RUNS`] untraced runs per workload, run `i` of
/// both sets on seed `i + 1`. Fails when a metric's two medians differ by
/// more than its bound in either direction, when a spread (interquartile
/// range ÷ median; not for `setup_s`) exceeds the bound, or when a count
/// that must repeat exactly differs between two runs of one seed.
pub fn agree() -> Res<bool> {
    let decl = declarations()?;
    let seconds = decl.run_seconds;
    // values[set][workload][metric] = one value per run.
    let mut values = vec![vec![vec![Vec::new(); decl.end_to_end.len()]; Workload::ALL.len()]; 2];
    for run in 0..AGREE_RUNS {
        for (set, of_set) in values.iter_mut().enumerate() {
            for (w, workload) in Workload::ALL.into_iter().enumerate() {
                let output = child(workload, run + 1, seconds, false)?
                    .stderr(Stdio::inherit())
                    .output()?;
                if !output.status.success() {
                    return Err(format!("{} run {run} of set {set} failed", workload.name()).into());
                }
                let metrics = result_metrics(&String::from_utf8_lossy(&output.stdout))?;
                for (slot, metric) in decl.end_to_end.iter().enumerate() {
                    let value = metrics
                        .iter()
                        .find(|(name, _)| *name == metric.name)
                        .ok_or_else(|| {
                            format!("{} did not report {}", workload.name(), metric.name)
                        })?;
                    of_set[w][slot].push(value.1);
                }
                eprintln!("agree: run {run} set {set} {} done", workload.name());
            }
        }
    }

    let mut agreed = true;
    println!(
        "{:<24} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "worse", "spreadA", "spreadB", "bound"
    );
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (slot, metric) in decl.end_to_end.iter().enumerate() {
            let bound = metric
                .bound
                .ok_or_else(|| format!("{} has no bound", metric.name))?;
            let (a, b) = (&values[0][w][slot], &values[1][w][slot]);
            let (qa, qb) = (quartiles(a), quartiles(b));
            let worse = worsening(metric, qa[1], qb[1]).abs();
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs();
            let mut verdict = Vec::new();
            if worse > bound {
                verdict.push("MEDIANS DISAGREE");
            }
            if metric.name != "setup_s" && spread(qa).max(spread(qb)) > bound {
                verdict.push("SPREAD OVER BOUND");
            }
            if matches!(metric.name.as_str(), "allocs_per_call" | "pnr_any") && a != b {
                verdict.push("DOES NOT REPEAT");
            }
            agreed &= verdict.is_empty();
            println!(
                "{:<24} {:<16} {:>14.6} {:>14.6} {:>8.4} {:>8.4} {:>8.4} {:>6.3} {}",
                workload.name(),
                metric.name,
                qa[1],
                qb[1],
                worse,
                spread(qa),
                spread(qb),
                bound,
                verdict.join(", ")
            );
        }
    }
    println!(
        "{}",
        if agreed {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    Ok(agreed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), [1.5, 3.0, 8.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        let higher = Declared {
            name: "calls_per_s".into(),
            unit: "1/s".into(),
            higher_is_better: true,
            bound: Some(0.06),
        };
        let lower = Declared {
            higher_is_better: false,
            ..higher.clone()
        };
        assert!((worsening(&higher, 100.0, 95.0) - 0.05).abs() < 1e-12);
        assert!((worsening(&lower, 100.0, 95.0) + 0.05).abs() < 1e-12);
    }

    #[test]
    fn the_result_line_is_the_last_line() {
        let out = "heading\n  x 1 ms\n{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"a\":{\"value\":1.5,\"unit\":\"ms\"},\"b\":{\"value\":2,\"unit\":\"count\"}}}\n";
        assert_eq!(
            result_metrics(out).unwrap(),
            vec![("a".to_string(), 1.5), ("b".to_string(), 2.0)]
        );
        let bad = out.replace("true", "false");
        assert!(result_metrics(&bad).is_err());
    }
}
