//! Call workload generation.
//!
//! Produces a chronological [`Trace`] over a generated world, matching the
//! composition of the paper's dataset (§2.1): 46.6 % of calls international,
//! 80.7 % inter-AS, 83 % with a wireless last hop, diurnal arrival intensity
//! peaked in the caller's local evening, and a heavy-tailed user population
//! per AS.

use rand::prelude::*;
use rand::rngs::StdRng;
use rand_distr::{Distribution, Gamma, LogNormal};
use serde::{Deserialize, Serialize};
use via_model::ids::{AsId, CallId, ClientId, CountryId};
use via_model::options::RelayOption;
use via_model::seed;
use via_model::time::{SimTime, SECS_PER_DAY};
use via_netsim::{World, WorldConfig};
use via_quality::RatingModel;

use crate::record::{AccessExtra, CallRecord, Trace};

/// Mean call duration, seconds.
const MEAN_DURATION_S: f64 = 180.0;
/// Number of distinct users per unit of AS weight.
const USERS_PER_WEIGHT: usize = 400;
/// Fraction of calls that are international (§2.1: 46.6 %).
const INTERNATIONAL_FRACTION: f64 = 0.466;
/// Fraction of calls that are inter-AS (§2.1: 80.7 %).
const INTER_AS_FRACTION: f64 = 0.807;
/// Fraction of calls with a wireless last hop (§2.1: 83 %).
const WIRELESS_FRACTION: f64 = 0.83;
/// User rating model (drives the PCR analysis). Every generated call is
/// rated: the synthetic trace plays the role of the *rated subsample* of the
/// paper's dataset. `maybe_rate` draws even at probability 1.0, and that
/// draw is part of every trace's RNG stream.
const RATING: RatingModel = RatingModel {
    offset: 0.3,
    rating_probability: 1.0,
};

/// Workload size. The call mix is the paper's (§2.1) and is not a
/// parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Mean calls per simulated day.
    pub calls_per_day: usize,
    /// Days to generate; capped by the world's episode horizon.
    pub days: u64,
}

impl TraceConfig {
    /// Tiny workload for doc tests: ~1 K calls/day for 8 days.
    pub fn tiny() -> Self {
        Self {
            calls_per_day: 1_000,
            days: 8,
        }
    }

    /// Small workload for integration tests and the default experiment
    /// scale: dense enough that popular international AS pairs pass the
    /// paper's ≥10-calls-per-window evaluation filter.
    pub fn small() -> Self {
        Self {
            calls_per_day: 10_000,
            days: 21,
        }
    }

    /// Experiment-scale workload: ~2.2 M calls over 8 weeks.
    pub fn paper_scale() -> Self {
        Self {
            calls_per_day: 40_000,
            days: 56,
        }
    }
}

/// A run's size: the world preset and the trace preset that go together,
/// named on the command line of `via` and of every experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds: CI smoke runs.
    Tiny,
    /// Tens of seconds: the default.
    Small,
    /// Minutes: full paper-shaped run (~1 M calls).
    Paper,
}

impl Scale {
    /// Parses `tiny|small|paper`.
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale '{other}' (tiny|small|paper)")),
        }
    }

    /// World preset for this scale.
    pub fn world_config(self) -> WorldConfig {
        match self {
            Scale::Tiny => WorldConfig::tiny(),
            Scale::Small => WorldConfig::small(),
            Scale::Paper => WorldConfig::paper_scale(),
        }
    }

    /// Trace preset for this scale.
    pub fn trace_config(self) -> TraceConfig {
        match self {
            Scale::Tiny => TraceConfig::tiny(),
            Scale::Small => TraceConfig::small(),
            Scale::Paper => TraceConfig::paper_scale(),
        }
    }
}

/// Weighted-alias-free cumulative sampler over AS indices.
#[derive(Debug, Clone)]
struct WeightedAses {
    cumulative: Vec<f64>,
    total: f64,
    indices: Vec<usize>,
}

impl WeightedAses {
    fn new(weights: impl Iterator<Item = (usize, f64)>) -> Option<Self> {
        let mut cumulative = Vec::new();
        let mut indices = Vec::new();
        let mut total = 0.0;
        for (idx, w) in weights {
            if w <= 0.0 {
                continue;
            }
            total += w;
            cumulative.push(total);
            indices.push(idx);
        }
        (total > 0.0).then_some(Self {
            cumulative,
            total,
            indices,
        })
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.random::<f64>() * self.total;
        let pos = self.cumulative.partition_point(|&c| c < u);
        self.indices[pos.min(self.indices.len() - 1)]
    }
}

/// Unwraps a distribution constructor whose parameters are known-valid
/// constants (finite μ, positive σ/shape). Keeps the panic explicit and
/// documented instead of hidden behind `expect`.
fn infallible<T, E: std::fmt::Debug>(result: Result<T, E>, what: &str) -> T {
    match result {
        Ok(d) => d,
        Err(e) => unreachable!("{what} built from constant valid parameters: {e:?}"),
    }
}

/// Generates call traces over a world.
pub struct TraceGenerator<'w> {
    world: &'w World,
    config: TraceConfig,
    trace_seed: u64,
    /// `None` when the world has no positively-weighted AS; [`Self::generate`]
    /// then yields an empty trace instead of panicking.
    global: Option<WeightedAses>,
    by_country: Vec<Option<WeightedAses>>,
    intl_by_country: Vec<Option<WeightedAses>>,
    /// Users per AS, proportional to weight.
    users_per_as: Vec<u32>,
}

impl<'w> TraceGenerator<'w> {
    /// Prepares a generator; cheap, all sampling tables are built here.
    pub fn new(world: &'w World, config: TraceConfig, trace_seed: u64) -> Self {
        let as_weight =
            |a: &via_netsim::AsInfo| a.weight * world.countries[a.country.index()].weight;
        let global = WeightedAses::new(
            world
                .ases
                .iter()
                .enumerate()
                .map(|(i, a)| (i, as_weight(a))),
        );

        let n_countries = world.countries.len();
        let mut by_country = Vec::with_capacity(n_countries);
        let mut intl_by_country = Vec::with_capacity(n_countries);
        for c in 0..n_countries {
            let cid = CountryId(c as u32);
            by_country.push(WeightedAses::new(
                world
                    .ases
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.country == cid)
                    .map(|(i, a)| (i, as_weight(a))),
            ));
            intl_by_country.push(WeightedAses::new(
                world
                    .ases
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.country != cid)
                    .map(|(i, a)| (i, as_weight(a))),
            ));
        }

        let users_per_as = world
            .ases
            .iter()
            .map(|a| ((as_weight(a) * USERS_PER_WEIGHT as f64).ceil() as u32).max(2))
            .collect();

        Self {
            world,
            config,
            trace_seed,
            global,
            by_country,
            intl_by_country,
            users_per_as,
        }
    }

    /// Trace horizon actually generated: the configured days capped by the
    /// world's episode horizon.
    pub fn effective_days(&self) -> u64 {
        self.config.days.min(self.world.config.horizon_days)
    }

    /// Exact number of records [`Self::generate`] (and [`Self::stream`])
    /// produces — the generator emits precisely `calls_per_day` records per
    /// effective day, so the count is known before generating anything.
    pub fn record_count(&self) -> u64 {
        if self.global.is_none() {
            return 0;
        }
        self.config.calls_per_day as u64 * self.effective_days()
    }

    /// Generates one day's records into `out`, sorted by `(t, id)`.
    ///
    /// `raw_base` is the pre-sort id of the day's first record (the global
    /// generation counter). Days occupy disjoint time ranges, so a global
    /// sort of the whole trace equals the concatenation of these per-day
    /// sorts — which is what lets [`Self::stream`] emit windows lazily while
    /// staying byte-identical to [`Self::generate`].
    fn generate_day(
        &self,
        global: &WeightedAses,
        day: u64,
        raw_base: u32,
        rng: &mut StdRng,
        dists: &GenDists,
        out: &mut Vec<CallRecord>,
    ) {
        for k in 0..self.config.calls_per_day {
            let call_id = CallId(raw_base + k as u32);
            let (src_idx, t) = self.sample_caller_and_time(global, day, rng);
            let dst_idx = self.sample_callee(src_idx, rng);

            let src = &self.world.ases[src_idx];
            let dst = &self.world.ases[dst_idx];

            let wireless = rng.random::<f64>() < WIRELESS_FRACTION;
            let access_extra = if wireless {
                AccessExtra {
                    rtt_ms: rng.random_range(2.0..15.0),
                    loss_pct: dists.wifi_loss.sample(rng).min(5.0),
                    jitter_ms: dists.wifi_jitter.sample(rng).min(40.0),
                }
            } else {
                AccessExtra {
                    rtt_ms: rng.random_range(0.0..2.0),
                    loss_pct: 0.0,
                    jitter_ms: rng.random_range(0.0..0.5),
                }
            };

            let path = self
                .world
                .perf()
                .sample_option(src.id, dst.id, RelayOption::Direct, t, rng);
            let direct_metrics = access_extra.apply(&path);

            let caller = self.sample_user(src_idx, rng);
            let callee = self.sample_user(dst_idx, rng);
            let rating = RATING.maybe_rate(&direct_metrics, rng);

            out.push(CallRecord {
                id: call_id,
                t,
                src_as: src.id,
                dst_as: dst.id,
                src_country: src.country,
                dst_country: dst.country,
                caller,
                callee,
                wireless,
                duration_s: dists.duration.sample(rng).clamp(5.0, 7_200.0),
                access_extra,
                direct_metrics,
                rating,
            });
        }
        out.sort_by_key(|r| (r.t, r.id));
    }

    /// Generates the full trace. Deterministic in `(world, config, seed)`,
    /// and byte-identical to collecting [`Self::stream`] — both run the same
    /// per-day core.
    pub fn generate(&self) -> Trace {
        let mut stream = self.stream();
        let mut records = Vec::with_capacity(usize::try_from(self.record_count()).unwrap_or(0));
        while let Some(r) = stream.next_record() {
            records.push(r);
        }
        Trace::new(self.trace_seed, self.effective_days(), records)
    }

    /// Lazy generation: yields the trace one record at a time, holding one
    /// day's buffer resident. The record sequence is byte-identical to
    /// [`Self::generate`]: days occupy disjoint time ranges, so sorting each
    /// day equals sorting the whole trace.
    pub fn stream(&self) -> GenRecords<'_> {
        GenRecords {
            generator: self,
            rng: StdRng::seed_from_u64(seed::derive(self.trace_seed, "workload")),
            dists: GenDists::new(),
            days: self.effective_days(),
            next_day: 0,
            next_id: 0,
            raw_base: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Picks a caller AS and a start time inside `day`, biased toward the
    /// caller's local daytime/evening (rejection sampling on the activity
    /// curve).
    fn sample_caller_and_time(
        &self,
        global: &WeightedAses,
        day: u64,
        rng: &mut StdRng,
    ) -> (usize, SimTime) {
        loop {
            let src_idx = global.sample(rng);
            let secs = rng.random_range(0..SECS_PER_DAY);
            let t = SimTime(day * SECS_PER_DAY + secs);
            let local = self.world.ases[src_idx].pos.local_hour(t.hour_of_day());
            // Activity: low at night, rising through the day, peak ~20:00.
            let activity =
                0.15 + 0.85 * 0.5 * (1.0 + ((local - 17.0) / 24.0 * std::f64::consts::TAU).cos());
            if rng.random::<f64>() < activity {
                return (src_idx, t);
            }
        }
    }

    /// Picks a callee AS honoring the international / inter-AS mix.
    fn sample_callee(&self, src_idx: usize, rng: &mut StdRng) -> usize {
        let src_country = self.world.ases[src_idx].country.index();
        let want_intl = rng.random::<f64>() < INTERNATIONAL_FRACTION;
        if want_intl {
            if let Some(s) = &self.intl_by_country[src_country] {
                return s.sample(rng);
            }
        }
        // Domestic: decide intra-AS vs other AS in the same country so the
        // overall inter-AS fraction comes out right:
        // P(intra) = (1 − inter_as) / (1 − international).
        let p_intra = ((1.0 - INTER_AS_FRACTION) / (1.0 - INTERNATIONAL_FRACTION)).clamp(0.0, 1.0);
        if rng.random::<f64>() < p_intra {
            return src_idx;
        }
        if let Some(s) = &self.by_country[src_country] {
            // Rejection: try to land on a different AS in the country.
            for _ in 0..8 {
                let cand = s.sample(rng);
                if cand != src_idx {
                    return cand;
                }
            }
        }
        src_idx // single-AS country: intra-AS call
    }

    /// Draws a user id within an AS (Zipf-ish popularity).
    fn sample_user(&self, as_idx: usize, rng: &mut StdRng) -> ClientId {
        let pool = self.users_per_as[as_idx];
        // Zipf via inverse-power transform of a uniform draw.
        let u: f64 = rng.random::<f64>().max(1e-9);
        let rank = ((pool as f64).powf(u) - 1.0).floor() as u32;
        // Namespace users by AS: 20 bits of AS, 12 bits of rank would limit
        // pools; use multiplication instead.
        ClientId(as_idx as u32 * 100_000 + rank.min(pool - 1))
    }

    /// The world this generator draws from.
    pub fn world(&self) -> &World {
        self.world
    }

    /// The AS an id refers to (test helper / analysis use).
    pub fn as_of_user(user: ClientId) -> AsId {
        AsId(user.0 / 100_000)
    }
}

/// Sampling distributions shared by every generated day.
struct GenDists {
    duration: LogNormal<f64>,
    wifi_jitter: LogNormal<f64>,
    wifi_loss: Gamma<f64>,
}

impl GenDists {
    fn new() -> GenDists {
        GenDists {
            duration: infallible(
                LogNormal::new(MEAN_DURATION_S.ln() - 0.5 * 0.8 * 0.8, 0.8),
                "duration lognormal",
            ),
            wifi_jitter: infallible(
                LogNormal::new(3.0f64.ln() - 0.5 * 0.5 * 0.5, 0.5),
                "wifi jitter lognormal",
            ),
            wifi_loss: infallible(Gamma::new(0.5, 0.3), "wifi loss gamma"),
        }
    }
}

/// Lazy record stream over trace generation: one day's buffer resident at a
/// time, record sequence byte-identical to [`TraceGenerator::generate`].
/// Produced by [`TraceGenerator::stream`]; the streaming replay pipeline
/// (see [`crate::stream`]) consumes it without materializing the trace.
pub struct GenRecords<'a> {
    generator: &'a TraceGenerator<'a>,
    rng: StdRng,
    dists: GenDists,
    days: u64,
    next_day: u64,
    /// Next chronological (post-sort) id to hand out.
    next_id: u32,
    /// Pre-sort id of the next day's first record.
    raw_base: u32,
    buf: Vec<CallRecord>,
    pos: usize,
}

impl GenRecords<'_> {
    /// Seed of the trace being generated.
    pub fn seed(&self) -> u64 {
        self.generator.trace_seed
    }

    /// Trace horizon in days.
    pub fn days(&self) -> u64 {
        self.days
    }

    /// Total records this stream will yield.
    pub fn record_count(&self) -> u64 {
        self.generator.record_count()
    }

    /// Generates the next day into the buffer. Returns false once the
    /// horizon is exhausted (or the world has no callable ASes).
    fn refill(&mut self) -> bool {
        let Some(global) = self.generator.global.as_ref() else {
            return false;
        };
        if self.next_day >= self.days {
            return false;
        }
        self.buf.clear();
        self.pos = 0;
        let day = self.next_day;
        self.next_day += 1;
        self.generator.generate_day(
            global,
            day,
            self.raw_base,
            &mut self.rng,
            &self.dists,
            &mut self.buf,
        );
        self.raw_base += self.generator.config.calls_per_day as u32;
        // Re-number chronologically: days are disjoint in time, so a running
        // counter reproduces the global post-sort renumbering.
        for r in &mut self.buf {
            r.id = CallId(self.next_id);
            self.next_id += 1;
        }
        true
    }

    /// The next record in chronological order; `None` once the horizon is
    /// exhausted.
    pub fn next_record(&mut self) -> Option<CallRecord> {
        while self.pos >= self.buf.len() {
            if !self.refill() {
                return None;
            }
        }
        let r = self.buf[self.pos].clone();
        self.pos += 1;
        Some(r)
    }
}

impl Iterator for GenRecords<'_> {
    type Item = CallRecord;

    fn next(&mut self) -> Option<CallRecord> {
        self.next_record()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse_and_resolve_to_configs() {
        for (name, scale) in [
            ("tiny", Scale::Tiny),
            ("small", Scale::Small),
            ("paper", Scale::Paper),
        ] {
            assert_eq!(Scale::parse(name), Ok(scale));
            assert!(scale.world_config().n_countries >= 2);
            assert!(scale.trace_config().calls_per_day > 0);
        }
        assert_eq!(
            Scale::parse("enormous"),
            Err("unknown scale 'enormous' (tiny|small|paper)".to_string())
        );
    }

    fn gen_trace(seed: u64) -> Trace {
        let world = World::generate(&WorldConfig::tiny(), seed);
        TraceGenerator::new(&world, TraceConfig::tiny(), seed).generate()
    }

    #[test]
    fn trace_is_deterministic() {
        let t1 = gen_trace(5);
        let t2 = gen_trace(5);
        assert_eq!(t1.records.len(), t2.records.len());
        assert_eq!(t1.records[10], t2.records[10]);
    }

    #[test]
    fn trace_is_chronological_with_dense_ids() {
        let t = gen_trace(6);
        assert!(t.is_chronological());
        for (i, r) in t.records.iter().enumerate() {
            assert_eq!(r.id.index(), i);
        }
    }

    #[test]
    fn composition_fractions_match_targets() {
        let world = World::generate(&WorldConfig::small(), 3);
        let trace = TraceGenerator::new(&world, TraceConfig::small(), 3).generate();
        let n = trace.len() as f64;
        let intl = trace
            .records
            .iter()
            .filter(|r| r.is_international())
            .count() as f64
            / n;
        let inter_as = trace.records.iter().filter(|r| r.is_inter_as()).count() as f64 / n;
        let wireless = trace.records.iter().filter(|r| r.wireless).count() as f64 / n;
        assert!((intl - 0.466).abs() < 0.03, "international fraction {intl}");
        assert!(
            (inter_as - 0.807).abs() < 0.04,
            "inter-AS fraction {inter_as}"
        );
        assert!(
            (wireless - 0.83).abs() < 0.02,
            "wireless fraction {wireless}"
        );
    }

    #[test]
    fn countries_match_as_assignment() {
        let world = World::generate(&WorldConfig::tiny(), 8);
        let trace = TraceGenerator::new(&world, TraceConfig::tiny(), 8).generate();
        for r in trace.records.iter().take(500) {
            assert_eq!(world.ases[r.src_as.index()].country, r.src_country);
            assert_eq!(world.ases[r.dst_as.index()].country, r.dst_country);
        }
    }

    #[test]
    fn durations_and_metrics_are_sane() {
        let t = gen_trace(9);
        for r in &t.records {
            assert!(r.duration_s >= 5.0 && r.duration_s <= 7_200.0);
            assert!(r.direct_metrics.is_finite());
            assert!(r.direct_metrics.rtt_ms > 0.0);
        }
    }

    #[test]
    fn every_call_is_rated() {
        // RATING's rating_probability is 1.0.
        let t = gen_trace(10);
        let rated = t.records.iter().filter(|r| r.rating.is_some()).count();
        assert_eq!(rated, t.len());
    }

    #[test]
    fn user_ids_map_back_to_as() {
        let world = World::generate(&WorldConfig::tiny(), 4);
        let trace = TraceGenerator::new(&world, TraceConfig::tiny(), 4).generate();
        for r in trace.records.iter().take(200) {
            assert_eq!(TraceGenerator::as_of_user(r.caller), r.src_as);
            assert_eq!(TraceGenerator::as_of_user(r.callee), r.dst_as);
        }
    }

    #[test]
    fn stream_matches_generate_exactly() {
        let world = World::generate(&WorldConfig::tiny(), 11);
        let generator = TraceGenerator::new(&world, TraceConfig::tiny(), 11);
        let materialized = generator.generate();
        let streamed: Vec<CallRecord> = generator.stream().collect();
        assert_eq!(streamed.len() as u64, generator.record_count());
        assert_eq!(streamed, materialized.records);
    }

    #[test]
    fn arrivals_follow_diurnal_cycle() {
        let world = World::generate(&WorldConfig::tiny(), 12);
        let trace = TraceGenerator::new(&world, TraceConfig::tiny(), 12).generate();
        // Count arrivals by caller-local hour: evening (16..24) should beat
        // night (0..8).
        let mut evening = 0usize;
        let mut night = 0usize;
        for r in &trace.records {
            let local = world.ases[r.src_as.index()]
                .pos
                .local_hour(r.t.hour_of_day());
            if (16.0..24.0).contains(&local) {
                evening += 1;
            } else if local < 8.0 {
                night += 1;
            }
        }
        assert!(
            evening > night * 2,
            "evening {evening} vs night {night} arrivals"
        );
    }
}
