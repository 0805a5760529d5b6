//! Figure 6: temporal patterns — persistence and prevalence of high-PNR AS
//! pairs.
//!
//! The paper labels an AS pair high-PNR on a day if its PNR is ≥ 1.5× the
//! day's overall PNR, then reports two skewed distributions: 10–20 % of
//! pairs are essentially always bad, while 60–70 % are bad less than 30 % of
//! the time with episodes no longer than a day — motivating *dynamic* relay
//! selection.

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use serde::Serialize;
use via_experiments::{build_env, header, pct, row, write_json, Args, Scale};
use via_model::stats::Cdf;

#[derive(Serialize)]
struct Fig06 {
    persistence_cdf: Vec<(f64, f64)>,
    prevalence_cdf: Vec<(f64, f64)>,
    pairs: usize,
    always_bad_fraction: f64,
    rarely_bad_fraction: f64,
}

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let min_calls = match args.scale {
        Scale::Tiny => 2,
        Scale::Small => 4,
        Scale::Paper => 10,
    };
    let tp = via_trace::analysis::temporal_patterns(&env.trace, min_calls);
    assert!(!tp.prevalence.is_empty(), "no qualifying pairs");

    let persistence = Cdf::from_samples(tp.persistence.iter().copied()).expect("non-empty");
    let prevalence = Cdf::from_samples(tp.prevalence.iter().copied()).expect("non-empty");

    println!("# Figure 6a: persistence of high-PNR pairs (median run length, days)\n");
    header(&["days", "CDF"]);
    let mut p_cdf = Vec::new();
    for d in [0.0, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0] {
        let f = persistence.fraction_at_or_below(d);
        row(&[format!("{d:.0}"), pct(f)]);
        p_cdf.push((d, f));
    }

    println!("\n# Figure 6b: prevalence of high-PNR pairs (fraction of days)\n");
    header(&["prevalence", "CDF"]);
    let mut v_cdf = Vec::new();
    for p in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
        let f = prevalence.fraction_at_or_below(p);
        row(&[format!("{p:.1}"), pct(f)]);
        v_cdf.push((p, f));
    }

    let always = 1.0 - prevalence.fraction_at_or_below(0.9);
    let rarely = prevalence.fraction_at_or_below(0.3);
    println!(
        "\nAlways-bad pairs (prevalence > 0.9): {} (paper: 10-20%)\n\
         Rarely-bad pairs (prevalence < 0.3): {} (paper: 60-70%)",
        pct(always),
        pct(rarely)
    );

    let path = write_json(
        "fig06",
        &Fig06 {
            persistence_cdf: p_cdf,
            prevalence_cdf: v_cdf,
            pairs: tp.prevalence.len(),
            always_bad_fraction: always,
            rarely_bad_fraction: rarely,
        },
    );
    println!("Wrote {}", path.display());
}
