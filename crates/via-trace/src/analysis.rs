//! The §2 dataset-analysis pipeline: every statistic the paper extracts from
//! its 430 M-call trace, computed over a synthetic [`Trace`].
//!
//! | paper artifact | function |
//! |---|---|
//! | Table 1 (dataset summary)          | [`dataset_summary`] |
//! | Figure 1 (PCR vs metrics)          | [`pcr_vs_metric`] |
//! | Figure 2 (metric CDFs)             | [`metric_cdf`] |
//! | Figure 3 (pairwise correlation)    | [`pairwise_metric_percentiles`] |
//! | Figure 4 (intl vs domestic, by country) | [`pnr_by_scope`], [`pnr_by_country`] |
//! | Figure 5 (worst AS pairs)          | [`worst_pair_concentration`] |
//! | Figure 6 (persistence/prevalence)  | [`temporal_patterns`] |

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use via_model::ids::{AsPair, CountryId};
use via_model::metrics::{Metric, Thresholds};
use via_model::stats::binning::{bin_percentiles, PercentileBin};
use via_model::stats::{bin_means, pearson, Bin, Cdf};
use via_model::time::WindowLen;
use via_quality::PnrReport;

use crate::record::Trace;

/// Table 1: dataset summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Total calls in the trace.
    pub calls: usize,
    /// Distinct users observed (callers and callees).
    pub users: usize,
    /// Distinct ASes observed.
    pub ases: usize,
    /// Distinct countries observed.
    pub countries: usize,
    /// Fraction of international calls.
    pub international_fraction: f64,
    /// Fraction of inter-AS calls.
    pub inter_as_fraction: f64,
    /// Fraction of calls with a wireless last hop.
    pub wireless_fraction: f64,
    /// Trace span in days.
    pub days: u64,
}

/// Computes Table 1 over a trace.
pub fn dataset_summary(trace: &Trace) -> DatasetSummary {
    let mut users = HashSet::new();
    let mut ases = HashSet::new();
    let mut countries = HashSet::new();
    let mut intl = 0usize;
    let mut inter_as = 0usize;
    let mut wireless = 0usize;
    for r in &trace.records {
        users.insert(r.caller);
        users.insert(r.callee);
        ases.insert(r.src_as);
        ases.insert(r.dst_as);
        countries.insert(r.src_country);
        countries.insert(r.dst_country);
        if r.is_international() {
            intl += 1;
        }
        if r.is_inter_as() {
            inter_as += 1;
        }
        if r.wireless {
            wireless += 1;
        }
    }
    let n = trace.len().max(1) as f64;
    DatasetSummary {
        calls: trace.len(),
        users: users.len(),
        ases: ases.len(),
        countries: countries.len(),
        international_fraction: intl as f64 / n,
        inter_as_fraction: inter_as as f64 / n,
        wireless_fraction: wireless as f64 / n,
        days: trace.days,
    }
}

/// Figure 1: poor-call-rate (fraction of ratings ≤ 2) per bin of a network
/// metric, plus the Pearson correlation between bin centers and PCR.
///
/// Only rated calls participate. `min_samples` mirrors the paper's ≥ 1000
/// calls-per-bin significance rule (scaled down for synthetic traces).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcrCurve {
    /// Metric the calls were binned by.
    pub metric: Metric,
    /// Populated bins: x = metric value, y = PCR (0–1).
    pub bins: Vec<Bin>,
    /// Pearson correlation of (bin center, PCR).
    pub correlation: Option<f64>,
}

/// Computes a Figure 1 panel for one metric.
pub fn pcr_vs_metric(
    trace: &Trace,
    metric: Metric,
    x_max: f64,
    n_bins: usize,
    min_samples: usize,
) -> PcrCurve {
    let points: Vec<(f64, f64)> = trace
        .records
        .iter()
        .filter_map(|r| {
            r.rating
                .map(|stars| (r.direct_metrics[metric], if stars <= 2 { 1.0 } else { 0.0 }))
        })
        .collect();
    let bins = bin_means(&points, 0.0, x_max, n_bins, min_samples);
    let series: Vec<(f64, f64)> = bins.iter().map(|b| (b.x_center, b.y_mean)).collect();
    PcrCurve {
        metric,
        bins,
        correlation: pearson(&series),
    }
}

/// Figure 2: the empirical CDF of one metric across default-path calls.
pub fn metric_cdf(trace: &Trace, metric: Metric) -> Option<Cdf> {
    Cdf::from_samples(trace.records.iter().map(|r| r.direct_metrics[metric]))
}

/// Figure 3: 10th/50th/90th percentiles of metric `y` within bins of metric
/// `x` — the pairwise-correlation panels.
pub fn pairwise_metric_percentiles(
    trace: &Trace,
    x: Metric,
    y: Metric,
    x_max: f64,
    n_bins: usize,
    min_samples: usize,
) -> Vec<PercentileBin> {
    let points: Vec<(f64, f64)> = trace
        .records
        .iter()
        .map(|r| (r.direct_metrics[x], r.direct_metrics[y]))
        .collect();
    bin_percentiles(
        &points,
        0.0,
        x_max,
        n_bins,
        min_samples,
        &[10.0, 50.0, 90.0],
    )
}

/// Figure 4a: PNR of international vs domestic calls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScopePnr {
    /// PNR over international calls.
    pub international: PnrReport,
    /// PNR over domestic calls.
    pub domestic: PnrReport,
    /// PNR over inter-AS calls.
    pub inter_as: PnrReport,
    /// PNR over intra-AS calls.
    pub intra_as: PnrReport,
}

/// Computes Figure 4a (and the inter/intra-AS variant mentioned in §2.3).
pub fn pnr_by_scope(trace: &Trace) -> ScopePnr {
    let part = |pred: &dyn Fn(&crate::record::CallRecord) -> bool| {
        PnrReport::from_calls(
            trace
                .records
                .iter()
                .filter(|r| pred(r))
                .map(|r| &r.direct_metrics),
        )
    };
    ScopePnr {
        international: part(&|r| r.is_international()),
        domestic: part(&|r| !r.is_international()),
        inter_as: part(&|r| r.is_inter_as()),
        intra_as: part(&|r| !r.is_inter_as()),
    }
}

/// Figure 4b: PNR of international calls grouped by the country of one side,
/// sorted worst-first. Only countries with at least `min_calls` international
/// calls are reported.
pub fn pnr_by_country(trace: &Trace, min_calls: usize) -> Vec<(CountryId, PnrReport)> {
    let mut per_country: HashMap<CountryId, Vec<&via_model::PathMetrics>> = HashMap::new();
    for r in trace.records.iter().filter(|r| r.is_international()) {
        per_country
            .entry(r.src_country)
            .or_default()
            .push(&r.direct_metrics);
        per_country
            .entry(r.dst_country)
            .or_default()
            .push(&r.direct_metrics);
    }
    let mut out: Vec<(CountryId, PnrReport)> = per_country
        .into_iter()
        .filter(|(_, calls)| calls.len() >= min_calls)
        .map(|(c, calls)| (c, PnrReport::from_calls(calls)))
        .collect();
    out.sort_by(|a, b| b.1.any.total_cmp(&a.1.any));
    out
}

/// Figure 5: cumulative share of poor calls contributed by the worst `n` AS
/// pairs, for each `n`. Returns `(rank, cumulative_fraction)` points where
/// rank runs over AS pairs sorted by their poor-call count, descending.
pub fn worst_pair_concentration(trace: &Trace) -> Vec<(usize, f64)> {
    let mut poor_by_pair: HashMap<AsPair, usize> = HashMap::new();
    let mut total_poor = 0usize;
    for r in &trace.records {
        if Thresholds.any_poor(&r.direct_metrics) {
            *poor_by_pair.entry(r.as_pair()).or_default() += 1;
            total_poor += 1;
        }
    }
    if total_poor == 0 {
        return Vec::new();
    }
    // Order-insensitive: the counts are fully re-sorted on the next line.
    let mut counts: Vec<usize> = poor_by_pair.into_values().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let mut cum = 0usize;
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            cum += c;
            (i + 1, cum as f64 / total_poor as f64)
        })
        .collect()
}

/// Figure 6: persistence and prevalence of high-PNR AS pairs.
///
/// Following §2.4: group calls into 24 h windows; a pair is *high-PNR* on a
/// day (for the "any poor" criterion) if its PNR that day is ≥ 1.5× the
/// overall PNR of all calls that day. Only (pair, day) cells with at least
/// `min_calls_per_day` calls participate. Persistence is the median length of
/// a pair's consecutive high-PNR runs (in days); prevalence is the fraction
/// of its observed days that are high-PNR.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemporalPatterns {
    /// Per-pair persistence values (days), one entry per qualifying pair.
    pub persistence: Vec<f64>,
    /// Per-pair prevalence values (0–1), one entry per qualifying pair.
    pub prevalence: Vec<f64>,
}

/// Computes Figure 6 statistics.
pub fn temporal_patterns(trace: &Trace, min_calls_per_day: usize) -> TemporalPatterns {
    let day_len = WindowLen::DAY;
    // (pair, day) → (poor, total)
    let mut cells: HashMap<(AsPair, u64), (usize, usize)> = HashMap::new();
    let mut day_totals: HashMap<u64, (usize, usize)> = HashMap::new();
    for r in &trace.records {
        let day = day_len.window_of(r.t).index;
        let poor = Thresholds.any_poor(&r.direct_metrics);
        let cell = cells.entry((r.as_pair(), day)).or_default();
        cell.1 += 1;
        if poor {
            cell.0 += 1;
        }
        let dt = day_totals.entry(day).or_default();
        dt.1 += 1;
        if poor {
            dt.0 += 1;
        }
    }

    // Pair → sorted list of (day, high?)
    let mut per_pair: HashMap<AsPair, Vec<(u64, bool)>> = HashMap::new();
    #[expect(
        clippy::iter_over_hash_type,
        reason = "each pair's day list is re-sorted by day before use below"
    )]
    for ((pair, day), (poor, total)) in cells {
        if total < min_calls_per_day {
            continue;
        }
        let (dp, dt) = day_totals[&day];
        let overall = dp as f64 / dt.max(1) as f64;
        let pnr = poor as f64 / total as f64;
        let high = overall > 0.0 && pnr >= 1.5 * overall;
        per_pair.entry(pair).or_default().push((day, high));
    }

    let mut persistence = Vec::new();
    let mut prevalence = Vec::new();
    // Hash order would leak into the output vectors; iterate pairs sorted.
    let mut pairs: Vec<(AsPair, Vec<(u64, bool)>)> = per_pair.into_iter().collect();
    pairs.sort_unstable_by_key(|p| p.0);
    for (_, mut days) in pairs {
        if days.len() < 2 {
            continue;
        }
        days.sort_unstable_by_key(|d| d.0);
        let high_days = days.iter().filter(|d| d.1).count();
        prevalence.push(high_days as f64 / days.len() as f64);

        // Runs of consecutive high-PNR *observed* days.
        let mut runs: Vec<f64> = Vec::new();
        let mut run = 0u64;
        for &(_, high) in &days {
            if high {
                run += 1;
            } else if run > 0 {
                runs.push(run as f64);
                run = 0;
            }
        }
        if run > 0 {
            runs.push(run as f64);
        }
        persistence.push(via_model::stats::percentile(&runs, 50.0).unwrap_or(0.0));
    }
    TemporalPatterns {
        persistence,
        prevalence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{TraceConfig, TraceGenerator};
    use via_netsim::{World, WorldConfig};

    fn trace() -> (World, Trace) {
        let world = World::generate(&WorldConfig::small(), 11);
        let trace = TraceGenerator::new(&world, TraceConfig::small(), 11).generate();
        (world, trace)
    }

    #[test]
    fn summary_counts_entities() {
        let (world, tr) = trace();
        let s = dataset_summary(&tr);
        assert_eq!(s.calls, tr.len());
        assert!(s.users > 100);
        assert!(s.ases as f64 > world.ases.len() as f64 * 0.8);
        assert_eq!(s.countries, world.countries.len());
        assert!((s.international_fraction - 0.466).abs() < 0.05);
    }

    #[test]
    fn pcr_curve_is_increasing_in_rtt() {
        let (_, tr) = trace();
        let c = pcr_vs_metric(&tr, Metric::Rtt, 800.0, 16, 100);
        assert!(c.bins.len() >= 4, "need several populated bins");
        let corr = c.correlation.expect("correlation defined");
        assert!(corr > 0.8, "PCR–RTT correlation too weak: {corr}");
    }

    #[test]
    fn cdf_spans_thresholds() {
        let (_, tr) = trace();
        let cdf = metric_cdf(&tr, Metric::Rtt).unwrap();
        let beyond = cdf.fraction_at_or_above(320.0);
        assert!(
            beyond > 0.03 && beyond < 0.5,
            "tail beyond RTT threshold: {beyond}"
        );
    }

    #[test]
    fn scope_pnr_shows_international_penalty() {
        let (_, tr) = trace();
        let s = pnr_by_scope(&tr);
        assert!(
            s.international.any > s.domestic.any,
            "international {:.3} vs domestic {:.3}",
            s.international.any,
            s.domestic.any
        );
        assert!(s.inter_as.any >= s.intra_as.any);
    }

    #[test]
    fn country_ranking_sorted_desc() {
        let (_, tr) = trace();
        let ranked = pnr_by_country(&tr, 50);
        assert!(ranked.len() >= 5);
        for w in ranked.windows(2) {
            assert!(w[0].1.any >= w[1].1.any);
        }
    }

    #[test]
    fn concentration_is_monotone_to_one() {
        let (_, tr) = trace();
        let conc = worst_pair_concentration(&tr);
        assert!(!conc.is_empty());
        for w in conc.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert!((conc.last().unwrap().1 - 1.0).abs() < 1e-9);
        // Spread-out badness: the single worst pair must not dominate.
        assert!(
            conc[0].1 < 0.25,
            "one pair holds {:.2} of poor calls",
            conc[0].1
        );
    }

    #[test]
    fn temporal_patterns_have_mass() {
        let (_, tr) = trace();
        let tp = temporal_patterns(&tr, 3);
        assert!(
            tp.prevalence.len() >= 10,
            "only {} pairs",
            tp.prevalence.len()
        );
        assert!(tp.prevalence.iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert!(tp.persistence.iter().all(|&p| p >= 0.0));
        // Skew: some pairs chronically bad, most rarely bad.
        let chronic = tp.prevalence.iter().filter(|&&p| p > 0.7).count();
        let rare = tp.prevalence.iter().filter(|&&p| p < 0.3).count();
        assert!(rare > chronic, "expected skew toward rarely-bad pairs");
    }

    #[test]
    fn empty_trace_is_handled() {
        let tr = Trace::new(0, 0, vec![]);
        let s = dataset_summary(&tr);
        assert_eq!(s.calls, 0);
        assert!(worst_pair_concentration(&tr).is_empty());
        let tp = temporal_patterns(&tr, 1);
        assert!(tp.persistence.is_empty());
    }
}
