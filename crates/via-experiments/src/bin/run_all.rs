//! Runs every experiment binary in sequence, forwarding `--scale`/`--seed`.
//!
//! The sibling executables live next to this one in the target directory;
//! each regenerates one table or figure of the paper and writes its JSON to
//! `experiments/out/`.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use std::process::Command;

/// Experiment ids in paper order.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig01",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "sec2_2",
    "fig08",
    "fig09",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "sec5_2",
    "sec_multipath",
    "fig18",
    "ext_active",
    "ext_vivaldi",
    "ext_cache",
    "ext_hybrid",
    "ext_placement",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("target dir");

    let mut failures = Vec::new();
    for exp in EXPERIMENTS {
        let bin = dir.join(exp);
        println!("\n================ {exp} ================\n");
        let status = Command::new(&bin)
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", bin.display()));
        if !status.success() {
            eprintln!("{exp} FAILED with {status}");
            failures.push(*exp);
        }
    }

    println!("\n================ summary ================");
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("failed: {failures:?}");
        std::process::exit(1);
    }
}
