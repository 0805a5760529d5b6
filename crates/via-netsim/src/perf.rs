//! The ground-truth path-performance model.
//!
//! [`PerfModel`] answers two questions for any (source AS, destination AS,
//! relaying option, time):
//!
//! * [`PerfModel::option_mean`] — the *expected* metrics of the option at
//!   that instant (latent world state: static segment quality + active
//!   episodes + diurnal load). The oracle strategy of §3.2 reads this
//!   directly; no real system can.
//! * [`PerfModel::sample_option`] — one realized call's metrics: the mean
//!   plus heavy-tailed per-call noise. This is all that VIA and the baseline
//!   strategies ever observe, matching §5.1's methodology of drawing a random
//!   call from the same (pair, option, window) population.
//!
//! Segment latents are derived deterministically from the world seed, so the
//! model is a pure function of `(config, seed, query)` — queries can come in
//! any order, from any component, and agree.

use rand::prelude::*;
use rand::rngs::StdRng;
use rand_distr::{Distribution, Gamma, LogNormal};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use via_model::ids::{AsId, RelayId};
use via_model::metrics::PathMetrics;
use via_model::options::RelayOption;
use via_model::seed;
use via_model::table::Table;
use via_model::time::SimTime;

use crate::geo::GeoPoint;
use crate::segments::{draw_stability, EpisodeSeries, SegMetrics, Segment, SegmentPath, Stability};
use crate::topology::{AsInfo, Relay};

// Calibration of the generative model (see `via-experiments`, `fig02`): the
// distribution of default-path metrics matches the paper's Figure 2, roughly
// 15 % of calls beyond each poor threshold (320 ms RTT, 1.2 % loss, 12 ms
// jitter). Every golden, digest and benchmark workload assumes these values.

// --- access (last-mile) components, scaled by country tier 1..4 ---
/// Mean access RTT contribution in ms at tier 1; grows with tier.
const ACCESS_RTT_BASE_MS: f64 = 5.0;
/// Mean access loss in percent at tier 1; grows with tier.
const ACCESS_LOSS_BASE_PCT: f64 = 0.016;
/// Mean access jitter in ms at tier 1; grows with tier.
const ACCESS_JITTER_BASE_MS: f64 = 1.1;

// --- direct (BGP) WAN path ---
/// Median RTT inflation over the speed-of-light bound for a domestic
/// tier-1 pair.
const DIRECT_INFLATION_BASE: f64 = 1.5;
/// Log-scale sigma of pair inflation.
const DIRECT_INFLATION_SIGMA: f64 = 0.35;
/// Extra multiplicative inflation per tier step of the worse endpoint.
const DIRECT_INFLATION_TIER_STEP: f64 = 0.22;
/// Extra inflation multiplier applied to international pairs.
const DIRECT_INFLATION_INTL: f64 = 1.2;
/// Probability that an international pair is "pathological" (severe
/// routing detour).
const PATHOLOGICAL_PROB_INTL: f64 = 0.10;
/// Probability that a domestic pair is pathological.
const PATHOLOGICAL_PROB_DOMESTIC: f64 = 0.03;
/// Mean WAN loss (percent) of a tier-1 domestic direct path.
const DIRECT_LOSS_BASE_PCT: f64 = 0.04;
/// Mean WAN jitter (ms) of a tier-1 domestic direct path.
const DIRECT_JITTER_BASE_MS: f64 = 1.4;

// --- client ↔ relay WAN legs (cloud on-ramps are well peered) ---
/// Median inflation of an AS→relay leg.
const RELAY_INFLATION_BASE: f64 = 1.3;
/// Log-scale sigma of relay-leg inflation.
const RELAY_INFLATION_SIGMA: f64 = 0.22;
/// Mean WAN loss (percent) of an AS→relay leg at tier 1.
const RELAY_LOSS_BASE_PCT: f64 = 0.025;
/// Mean WAN jitter (ms) of an AS→relay leg at tier 1.
const RELAY_JITTER_BASE_MS: f64 = 0.8;

// --- private backbone ---
/// RTT inflation of the private backbone over the fiber bound.
const BACKBONE_INFLATION: f64 = 1.1;
/// Loss (percent) on backbone segments.
const BACKBONE_LOSS_PCT: f64 = 0.01;
/// Jitter (ms) on backbone segments.
const BACKBONE_JITTER_MS: f64 = 0.4;
/// Fixed per-relay forwarding delay added per traversed relay, ms
/// (applied once per relay on the round trip).
const RELAY_HOP_COST_MS: f64 = 2.0;

// --- temporal dynamics ---
/// Fraction of WAN segments that are chronically congested.
const CHRONIC_FRACTION: f64 = 0.10;
/// Fraction of WAN segments that are occasionally flaky (the rest are
/// stable).
const FLAKY_FRACTION: f64 = 0.25;
/// RTT added by a full-severity episode on a direct path, ms.
const EPISODE_RTT_MS: f64 = 90.0;
/// Loss multiplier at full episode severity.
const EPISODE_LOSS_MULT: f64 = 6.0;
/// Jitter multiplier at full episode severity.
const EPISODE_JITTER_MULT: f64 = 4.0;
/// Scale of the diurnal swing (0 = none).
const DIURNAL_AMPLITUDE: f64 = 0.6;

// --- per-call noise ---
/// Probability that a call hits a transient outlier (severe short-lived
/// congestion: RTT/jitter multiplied, loss added). These heavy tails are
/// why VIA normalizes bandit rewards robustly (§4.5).
const CALL_SPIKE_PROB: f64 = 0.03;
/// Maximum RTT/jitter multiplier of a spike (drawn uniformly in
/// [1.5, this]).
const CALL_SPIKE_MULT: f64 = 4.0;
/// Log-sigma of the multiplicative per-call RTT noise.
const CALL_RTT_SIGMA: f64 = 0.08;
/// Shape of the per-call Gamma loss draw (small = heavier tail).
const CALL_LOSS_SHAPE: f64 = 0.45;
/// Log-sigma of the multiplicative per-call jitter noise.
const CALL_JITTER_SIGMA: f64 = 0.35;

const _: () = assert!(DIRECT_INFLATION_BASE > 1.0);
const _: () = assert!(RELAY_INFLATION_BASE < DIRECT_INFLATION_BASE);
const _: () = assert!(BACKBONE_INFLATION < RELAY_INFLATION_BASE);
const _: () = assert!(CHRONIC_FRACTION + FLAKY_FRACTION < 1.0);
const _: () = assert!(EPISODE_LOSS_MULT >= 1.0 && EPISODE_JITTER_MULT >= 1.0);
// The spike range `1.5..CALL_SPIKE_MULT` is not empty, the gamma shape and
// both noise sigmas are ones their distributions accept.
const _: () = assert!(CALL_SPIKE_MULT > 1.5 && CALL_LOSS_SHAPE > 0.0);
const _: () = assert!(CALL_RTT_SIGMA >= 0.0 && CALL_JITTER_SIGMA >= 0.0);

/// Static latents plus episode series for one segment.
#[derive(Debug, Clone)]
struct SegState {
    /// Fixed RTT contribution (propagation × inflation, or access delay), ms.
    rtt_ms: f64,
    /// Base loss, percent.
    loss_pct: f64,
    /// Base jitter, ms.
    jitter_ms: f64,
    /// Sensitivity to diurnal load (multiplies the configured amplitude).
    diurnal_sens: f64,
    /// Scale of episode penalties for this segment class (backbone ≈ 0).
    episode_scale: f64,
    /// Mean longitude of the segment endpoints, for local-time peaks.
    lon_deg: f64,
    /// Daily severity series.
    episodes: EpisodeSeries,
}

/// Ground-truth performance model. Cheap to query; the model is logically
/// immutable — segment latents are memoized on first touch, but the memo is
/// a pure function of `(config, seed, segment)`.
///
/// The read side is built for parallel replay (see DESIGN.md, *Concurrency
/// and memory layout*): every segment family lives in a pre-sized
/// [`OnceLock`] slot table indexed directly by id — access (one slot per
/// AS), backbone (relay pair), direct WAN (AS pair) and AS→relay attach
/// legs — so a hit is a plain array load with no lock and no hashing, and a
/// first touch builds the state exactly once under the slot's own
/// initializer. The quadratic tables hold *empty* slots for untouched keys
/// (a slot is pointer-plus-payload-sized, ~4 MB total for the paper-scale
/// 200-AS world), which is the price for making the per-call realize path
/// — three slot loads per direct path — branch-and-lock-free.
#[derive(Debug)]
pub struct PerfModel {
    world_seed: u64,
    horizon_days: u64,
    as_pos: Vec<GeoPoint>,
    as_tier: Vec<u8>,
    relay_pos: Vec<GeoPoint>,
    /// Dense access slots: one row, indexed by AS id. Every family is a
    /// [`Table`] so that each id is checked against its own dimension — raw
    /// `a * n + b` arithmetic answers an out-of-range `b` from the next row.
    access: Table<OnceLock<SegState>>,
    /// Dense backbone slots, indexed by canonical relay pair `(lo, hi)`.
    backbone: Table<OnceLock<SegState>>,
    /// Dense direct-WAN slots, indexed by canonical AS pair `(lo, hi)`.
    direct: Table<OnceLock<SegState>>,
    /// Dense AS→relay attach-leg slots, `(as, relay)`.
    relay_wan: Table<OnceLock<SegState>>,
    /// AS↔relay great-circle distances, `(as, relay)`: precomputed so
    /// transit-orientation picks on the scoring hot path and the world's
    /// candidate enumeration are table loads instead of haversines per query.
    /// One orientation serves both directions — `distance_km` is
    /// bit-symmetric (pinned by a test in `topology.rs`).
    as_relay_km: Table<f64>,
    /// Per-call RTT noise (`lognormal_mean` at mean 1.0 and sigma
    /// [`CALL_RTT_SIGMA`]), prebuilt; `None` (noise factor 1.0) only if the
    /// constructor refused the constant.
    rtt_noise: Option<LogNormal<f64>>,
    /// Per-call jitter noise, same construction.
    jitter_noise: Option<LogNormal<f64>>,
    /// Segment states built so far (each touched segment builds exactly
    /// once; diagnostics and the duplicate-work regression tests).
    builds: AtomicU64,
}

/// Unit-mean lognormal noise distribution, parameterized exactly as
/// `lognormal_mean(rng, 1.0, sigma)` computes it so prebuilt draws are
/// bit-identical to the inline construction.
fn unit_lognormal(sigma: f64) -> Option<LogNormal<f64>> {
    LogNormal::new(1.0f64.ln() - sigma * sigma / 2.0, sigma).ok()
}

impl PerfModel {
    /// Builds the model for a generated topology.
    pub(crate) fn new(
        world_seed: u64,
        horizon_days: u64,
        ases: &[AsInfo],
        relays: &[Relay],
    ) -> Self {
        let n_ases = ases.len();
        let n_relays = relays.len();
        let as_relay_km = Table::from_fn(n_ases, n_relays, |a, r| {
            ases[a].pos.distance_km(&relays[r].pos)
        });
        Self {
            world_seed,
            horizon_days,
            as_pos: ases.iter().map(|a| a.pos).collect(),
            as_tier: ases.iter().map(|a| a.tier).collect(),
            relay_pos: relays.iter().map(|r| r.pos).collect(),
            access: Table::from_fn(1, n_ases, |_, _| OnceLock::new()),
            backbone: Table::from_fn(n_relays, n_relays, |_, _| OnceLock::new()),
            direct: Table::from_fn(n_ases, n_ases, |_, _| OnceLock::new()),
            relay_wan: Table::from_fn(n_ases, n_relays, |_, _| OnceLock::new()),
            as_relay_km,
            rtt_noise: unit_lognormal(CALL_RTT_SIGMA),
            jitter_noise: unit_lognormal(CALL_JITTER_SIGMA),
            builds: AtomicU64::new(0),
        }
    }

    /// Great-circle distance from every AS (row) to every relay (column), km.
    pub(crate) fn as_relay_km(&self) -> &Table<f64> {
        &self.as_relay_km
    }

    /// Number of ASes the model knows about.
    pub fn n_ases(&self) -> usize {
        self.as_pos.len()
    }

    /// Number of relays the model knows about.
    pub fn n_relays(&self) -> usize {
        self.relay_pos.len()
    }

    /// Number of segment states materialized so far. Each touched segment is
    /// built exactly once — concurrent first touches never duplicate the
    /// episode-series generation — so after any workload this equals the
    /// number of distinct segments queried.
    pub fn segment_builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Runs `f` against the segment's latent state, materializing it on
    /// first touch. Every family resolves to a direct slot load; a cold
    /// slot builds its state exactly once under the `OnceLock` initializer
    /// (concurrent first touches block rather than duplicate work).
    fn with_state<R>(&self, segment: Segment, f: impl FnOnce(&SegState) -> R) -> R {
        let slot = match segment {
            Segment::Access(a) => &self.access[(0, a.index())],
            Segment::Backbone(r1, r2) => &self.backbone[(r1.index(), r2.index())],
            Segment::DirectWan(a, b) => &self.direct[(a.index(), b.index())],
            Segment::RelayWan(a, r) => &self.relay_wan[(a.index(), r.index())],
        };
        f(slot.get_or_init(|| self.build_state(segment)))
    }

    fn build_state(&self, segment: Segment) -> SegState {
        self.builds.fetch_add(1, Ordering::Relaxed);
        let mut rng = StdRng::seed_from_u64(seed::derive_indexed(
            self.world_seed,
            "segment-latents",
            segment.seed_code(),
        ));

        match segment {
            Segment::Access(a) => {
                let tier = f64::from(self.as_tier[a.index()]);
                let rtt = lognormal_mean(&mut rng, ACCESS_RTT_BASE_MS * (0.6 + 0.45 * tier), 0.3);
                let loss = lognormal_mean(&mut rng, ACCESS_LOSS_BASE_PCT * tier.powf(1.8), 0.5);
                let jitter =
                    lognormal_mean(&mut rng, ACCESS_JITTER_BASE_MS * (0.5 + 0.5 * tier), 0.4);
                let stability = draw_stability(
                    &mut rng,
                    self.as_tier[a.index()],
                    CHRONIC_FRACTION * 0.6,
                    FLAKY_FRACTION * 0.8,
                );
                SegState {
                    rtt_ms: rtt,
                    loss_pct: loss,
                    jitter_ms: jitter,
                    diurnal_sens: rng.random_range(0.6..1.4),
                    episode_scale: 0.5,
                    lon_deg: self.as_pos[a.index()].lon_deg,
                    episodes: EpisodeSeries::generate(
                        self.world_seed,
                        segment,
                        stability,
                        self.horizon_days,
                    ),
                }
            }
            Segment::DirectWan(a, b) => {
                let pa = self.as_pos[a.index()];
                let pb = self.as_pos[b.index()];
                let tier_class = self.as_tier[a.index()].max(self.as_tier[b.index()]);
                let tier = f64::from(tier_class);
                // International here means "far apart"; country identity lives
                // in topology, but distance is the physical driver.
                let dist = pa.distance_km(&pb);
                let intl_like = dist > 2_500.0;

                let mut inflation_median =
                    DIRECT_INFLATION_BASE * (1.0 + DIRECT_INFLATION_TIER_STEP * (tier - 1.0));
                if intl_like {
                    inflation_median *= DIRECT_INFLATION_INTL;
                }
                let mut inflation =
                    lognormal_median(&mut rng, inflation_median, DIRECT_INFLATION_SIGMA);
                let p_path = if intl_like {
                    PATHOLOGICAL_PROB_INTL
                } else {
                    PATHOLOGICAL_PROB_DOMESTIC
                };
                if rng.random::<f64>() < p_path {
                    inflation *= rng.random_range(1.8..3.2);
                }

                // Short paths still pay peering/queueing latency: add a floor.
                let rtt = pa.min_rtt_ms(&pb) * inflation + rng.random_range(4.0..12.0);

                let loss_mean =
                    DIRECT_LOSS_BASE_PCT * tier.powf(1.6) * if intl_like { 1.8 } else { 1.0 };
                let loss = lognormal_mean(&mut rng, loss_mean, 0.6);
                let jitter_mean =
                    DIRECT_JITTER_BASE_MS * (0.5 + 0.5 * tier) * if intl_like { 1.5 } else { 1.0 };
                let jitter = lognormal_mean(&mut rng, jitter_mean, 0.5);

                let stability =
                    draw_stability(&mut rng, tier_class, CHRONIC_FRACTION, FLAKY_FRACTION);
                SegState {
                    rtt_ms: rtt,
                    loss_pct: loss,
                    jitter_ms: jitter,
                    diurnal_sens: rng.random_range(0.5..1.5),
                    episode_scale: 1.0,
                    lon_deg: (pa.lon_deg + pb.lon_deg) / 2.0,
                    episodes: EpisodeSeries::generate(
                        self.world_seed,
                        segment,
                        stability,
                        self.horizon_days,
                    ),
                }
            }
            Segment::RelayWan(a, r) => {
                let pa = self.as_pos[a.index()];
                let pr = self.relay_pos[r.index()];
                let tier_class = self.as_tier[a.index()];
                let tier = f64::from(tier_class);
                let inflation_median = RELAY_INFLATION_BASE * (1.0 + 0.08 * (tier - 1.0));
                let inflation = lognormal_median(&mut rng, inflation_median, RELAY_INFLATION_SIGMA);
                let rtt = pa.min_rtt_ms(&pr) * inflation + rng.random_range(2.0..8.0);
                // Loss and jitter accumulate with public-WAN path length: a
                // short on-ramp to a nearby relay is much cleaner than a
                // half-planet bounce leg — the reason transit relaying
                // (short on-ramps + private backbone) wins on long hauls.
                let dist_factor = 0.4 + pa.distance_km(&pr) / 4_000.0;
                let loss = lognormal_mean(
                    &mut rng,
                    RELAY_LOSS_BASE_PCT * tier.powf(1.4) * dist_factor,
                    0.5,
                );
                let jitter = lognormal_mean(
                    &mut rng,
                    RELAY_JITTER_BASE_MS * (0.6 + 0.4 * tier) * dist_factor,
                    0.4,
                );
                let stability = draw_stability(
                    &mut rng,
                    tier_class,
                    CHRONIC_FRACTION * 0.7,
                    FLAKY_FRACTION * 0.8,
                );
                SegState {
                    rtt_ms: rtt,
                    loss_pct: loss,
                    jitter_ms: jitter,
                    diurnal_sens: rng.random_range(0.4..1.1),
                    episode_scale: 0.6,
                    lon_deg: (pa.lon_deg + pr.lon_deg) / 2.0,
                    episodes: EpisodeSeries::generate(
                        self.world_seed,
                        segment,
                        stability,
                        self.horizon_days,
                    ),
                }
            }
            Segment::Backbone(r1, r2) => {
                let p1 = self.relay_pos[r1.index()];
                let p2 = self.relay_pos[r2.index()];
                SegState {
                    rtt_ms: p1.min_rtt_ms(&p2) * BACKBONE_INFLATION,
                    loss_pct: BACKBONE_LOSS_PCT,
                    jitter_ms: BACKBONE_JITTER_MS,
                    diurnal_sens: 0.05,
                    episode_scale: 0.0,
                    lon_deg: (p1.lon_deg + p2.lon_deg) / 2.0,
                    episodes: EpisodeSeries::generate(
                        self.world_seed,
                        segment,
                        Stability::Stable,
                        self.horizon_days,
                    ),
                }
            }
        }
    }

    /// Mean metrics contributed by one segment at time `t` (latent state:
    /// episodes + diurnal load, no per-call noise). The one home of the mean
    /// formula: [`SampleScratch`] memoizes its results, never its inputs.
    pub fn segment_mean(&self, segment: Segment, t: SimTime) -> SegMetrics {
        self.with_state(segment, |s| {
            // Diurnal load peaks at 20:00 local time at the segment midpoint.
            let local =
                GeoPoint::new(0.0, s.lon_deg.clamp(-180.0, 180.0)).local_hour(t.hour_of_day());
            let evening = 0.5 * (1.0 + ((local - 20.0) / 24.0 * std::f64::consts::TAU).cos());
            let d = DIURNAL_AMPLITUDE * s.diurnal_sens * evening;

            let sev = s.episodes.on_day(t.day()) * s.episode_scale;
            let episode_rtt = sev * EPISODE_RTT_MS;
            let loss_mult = 1.0 + sev * (EPISODE_LOSS_MULT - 1.0);
            let jitter_mult = 1.0 + sev * (EPISODE_JITTER_MULT - 1.0);

            SegMetrics {
                rtt_ms: s.rtt_ms + episode_rtt + 6.0 * d,
                loss_pct: (s.loss_pct * loss_mult * (1.0 + 0.8 * d)).min(100.0),
                jitter_ms: s.jitter_ms * jitter_mult * (1.0 + 0.8 * d),
            }
        })
    }

    /// Segments traversed by an option between `src` and `dst`, plus the
    /// number of relay hops (for fixed forwarding cost). Returns an inline
    /// fixed-capacity path — no heap allocation on the sample hot path.
    pub fn segments_of(&self, src: AsId, dst: AsId, option: RelayOption) -> SegmentPath {
        match option.canonical() {
            RelayOption::Direct => SegmentPath::new(
                &[
                    Segment::Access(src),
                    Segment::direct(src, dst),
                    Segment::Access(dst),
                ],
                0,
            ),
            RelayOption::Bounce(r) => SegmentPath::new(
                &[
                    Segment::Access(src),
                    Segment::RelayWan(src, r),
                    Segment::RelayWan(dst, r),
                    Segment::Access(dst),
                ],
                1,
            ),
            RelayOption::Transit(r1, r2) => {
                // Pick the orientation with the shorter on-ramps: the managed
                // network routes sensibly. Distances come from the precomputed
                // AS↔relay table (same haversine values, no trig per query).
                let d = |a: AsId, r: RelayId| self.as_relay_km[(a.index(), r.index())];
                let d_fwd = d(src, r1) + d(dst, r2);
                let d_rev = d(src, r2) + d(dst, r1);
                let (rin, rout) = if d_fwd <= d_rev { (r1, r2) } else { (r2, r1) };
                SegmentPath::new(
                    &[
                        Segment::Access(src),
                        Segment::RelayWan(src, rin),
                        Segment::backbone(rin, rout),
                        Segment::RelayWan(dst, rout),
                        Segment::Access(dst),
                    ],
                    2,
                )
            }
        }
    }

    /// Expected end-to-end metrics of `option` at time `t`, *excluding*
    /// per-call transient spikes (which inflate realized means uniformly by
    /// `CALL_SPIKE_PROB × E[spike_mult − 1]` ≈ 5 % and therefore do not
    /// change option rankings). The scratch-free reference that
    /// [`PerfModel::option_mean_scratch`] is pinned bit-identical to.
    pub fn option_mean(
        &self,
        src: AsId,
        dst: AsId,
        option: RelayOption,
        t: SimTime,
    ) -> PathMetrics {
        let path = self.segments_of(src, dst, option);
        let mut acc = SegMetrics::default();
        for seg in path.segments() {
            acc = acc.chain(&self.segment_mean(*seg, t));
        }
        PathMetrics::new(
            acc.rtt_ms + path.hops() as f64 * RELAY_HOP_COST_MS,
            acc.loss_pct,
            acc.jitter_ms,
        )
    }

    /// Draws one realized call over `option` at time `t`: the mean plus
    /// per-call noise (multiplicative lognormal on RTT and jitter, Gamma on
    /// loss — heavy-tailed, mean-preserving). The scratch-free reference
    /// that [`PerfModel::sample_option_scratch`] is pinned bit-identical to.
    pub fn sample_option(
        &self,
        src: AsId,
        dst: AsId,
        option: RelayOption,
        t: SimTime,
        rng: &mut StdRng,
    ) -> PathMetrics {
        let [call] = self.noise_around([self.option_mean(src, dst, option, t)], rng);
        call
    }

    /// Like [`PerfModel::sample_option`] but reusing per-time segment means
    /// from `scratch` — same draws, same result, amortized cost when a call
    /// scores several options at one instant (they share access legs and
    /// often relay legs). Draw-for-draw and bit-for-bit identical to the
    /// scratch-free path, so mixing the two APIs cannot change a replay.
    pub fn sample_option_scratch(
        &self,
        src: AsId,
        dst: AsId,
        option: RelayOption,
        t: SimTime,
        rng: &mut StdRng,
        scratch: &mut SampleScratch,
    ) -> PathMetrics {
        let mean = self.option_mean_scratch(src, dst, option, t, scratch);
        let [call] = self.noise_around([mean], rng);
        call
    }

    /// Like [`PerfModel::option_mean`] but memoizing segment means in
    /// `scratch` for the current instant. Values are bit-identical: the
    /// memo caches `segment_mean` results (pure per `(segment, t)`) and the
    /// chain still folds them in path order.
    pub fn option_mean_scratch(
        &self,
        src: AsId,
        dst: AsId,
        option: RelayOption,
        t: SimTime,
        scratch: &mut SampleScratch,
    ) -> PathMetrics {
        if scratch.t != Some(t) {
            scratch.seg_means.clear();
            scratch.t = Some(t);
        }
        let path = self.segments_of(src, dst, option);
        let mut acc = SegMetrics::default();
        for seg in path.segments() {
            let m = scratch
                .seg_means
                .entry(*seg)
                .or_insert_with(|| self.segment_mean(*seg, t));
            acc = acc.chain(m);
        }
        PathMetrics::new(
            acc.rtt_ms + path.hops() as f64 * RELAY_HOP_COST_MS,
            acc.loss_pct,
            acc.jitter_ms,
        )
    }

    /// Draws one realized call over `option` together with a
    /// common-random-numbers realization of `baseline` between the same
    /// endpoints, at the same instant and from one set of noise draws.
    ///
    /// The first returned value is draw-for-draw and bit-for-bit identical
    /// to [`PerfModel::sample_option_scratch`] for `option` — mixing this
    /// API into a replay cannot change any call outcome or the RNG stream.
    /// The second applies the *same* multiplicative RTT/jitter factors, the
    /// same scale-free gamma loss parts and the same spike event to the
    /// baseline's mean, so the pair differs only through the two path means:
    /// the baseline shares the call's own luck instead of drawing an
    /// independent realization. `option` is scored first, so the access legs
    /// the two paths share are instant-memo hits for the baseline.
    #[expect(clippy::too_many_arguments, reason = "the paired hot-path entry point")]
    pub fn sample_option_paired(
        &self,
        src: AsId,
        dst: AsId,
        option: RelayOption,
        baseline: RelayOption,
        t: SimTime,
        rng: &mut StdRng,
        scratch: &mut SampleScratch,
    ) -> (PathMetrics, PathMetrics) {
        let chosen = self.option_mean_scratch(src, dst, option, t, scratch);
        let base = self.option_mean_scratch(src, dst, baseline, t, scratch);
        let [chosen, base] = self.noise_around([chosen, base], rng);
        (chosen, base)
    }

    /// The per-call noise model: unit-mean lognormal factors on RTT and
    /// jitter, Gamma loss, transient spikes. Drawn once, around `means[0]`,
    /// and applied to every mean — with one mean this is a call's
    /// realization, with two the second is its common-random-numbers
    /// baseline. The draw sequence never depends on `N`.
    fn noise_around<const N: usize>(
        &self,
        means: [PathMetrics; N],
        rng: &mut StdRng,
    ) -> [PathMetrics; N] {
        let rtt_noise = self.rtt_noise.map_or(1.0, |d| d.sample(rng));
        let jitter_noise = self.jitter_noise.map_or(1.0, |d| d.sample(rng));

        // A loss-free first mean draws no gamma. `Gamma::sample` is exactly
        // `dv * scale * boost`; the scale-free parts under each mean's own
        // scale are the shared draw.
        let shape = CALL_LOSS_SHAPE;
        let lead = means[0].loss_pct;
        let gamma =
            (lead > 1e-9).then(|| Gamma::new(shape, lead / shape).map(|d| d.sample_parts(rng)));
        let loss = |mean: f64| match gamma {
            Some(Ok((dv, boost))) if mean > 1e-9 => dv * (mean / shape) * boost,
            Some(Ok(_)) => 0.0,
            // A scale the gamma refuses (a non-finite lead mean) falls back
            // to the mean itself rather than panicking.
            Some(Err(_)) => mean,
            None if mean > 1e-9 => mean,
            None => 0.0,
        };

        // Transient outliers: short-lived congestion events that per-call
        // averages cannot hide — the heavy tail that breaks naive reward
        // normalization (§4.5).
        let (spike_mult, spike_loss) = if rng.random::<f64>() < CALL_SPIKE_PROB {
            (
                rng.random_range(1.5..CALL_SPIKE_MULT),
                rng.random_range(0.5..3.0),
            )
        } else {
            (1.0, 0.0)
        };

        means.map(|m| {
            PathMetrics::new(
                m.rtt_ms * rtt_noise * spike_mult,
                loss(m.loss_pct) + spike_loss,
                m.jitter_ms * jitter_noise * spike_mult,
            )
        })
    }

    /// The controller's knowledge of inter-relay performance (§3.2: "we also
    /// have information from Skype on the RTT, loss and jitter between their
    /// relay nodes"). Static backbone metrics, no client noise.
    pub fn backbone_metrics(&self, r1: RelayId, r2: RelayId) -> PathMetrics {
        let m = self.segment_mean(Segment::backbone(r1, r2), SimTime::ZERO);
        PathMetrics::new(m.rtt_ms, m.loss_pct, m.jitter_ms)
    }
}

/// Reusable memo for scoring several options at one instant (one call's
/// candidate set, a racing stage, an oracle scan, a realization and its
/// paired baseline). Caches `segment_mean` results keyed by segment for the
/// current [`SimTime`]; moving to a new instant clears it, so it never holds
/// more than one instant's segments. Candidate paths share their access legs
/// (and often relay legs), so a k-option scan touches each distinct
/// segment's slot and episode/diurnal math once instead of per option.
///
/// Nothing outlives an instant on purpose: a memo kept across instants
/// grows with every segment a worker touches (≈ 17 k at paper scale),
/// misses cache and evicts the predictor, and cost more than the slot-table
/// reads it saved (DESIGN.md, *Hot-path cost model*).
///
/// Purely a cost move: cached values are bit-identical to fresh
/// `segment_mean` calls, and no RNG state lives here.
#[derive(Debug, Clone, Default)]
pub struct SampleScratch {
    seg_means: HashMap<Segment, SegMetrics, std::hash::BuildHasherDefault<SegMemoHasher>>,
    t: Option<SimTime>,
}

/// Multiply–rotate hasher for the scratch memo. SipHash (the `HashMap`
/// default) costs tens of nanoseconds per probe, which is measurable at
/// three lookups per sampled option; segment keys are a couple of small
/// integers, so a splitmix-finished mix is plenty. Only memo *performance*
/// depends on this hasher — hits return cached values that are bit-identical
/// either way, and nothing iterates the map.
#[derive(Debug, Clone, Default)]
struct SegMemoHasher(u64);

impl std::hash::Hasher for SegMemoHasher {
    fn finish(&self) -> u64 {
        seed::splitmix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = seed::fnv1a(self.0, bytes);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(29) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

impl SampleScratch {
    /// An empty scratch. One per worker/thread; reuse across calls.
    pub fn new() -> SampleScratch {
        SampleScratch::default()
    }
}

/// Lognormal with a given *mean* (log-sigma `sigma`), sampled once.
fn lognormal_mean(rng: &mut StdRng, mean: f64, sigma: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let mu = mean.ln() - sigma * sigma / 2.0;
    // `new` only fails for non-finite mu or negative sigma; fall back to
    // the target mean instead of panicking on degenerate parameters.
    LogNormal::new(mu, sigma).map_or(mean, |d| d.sample(rng))
}

/// Lognormal with a given *median*, sampled once.
fn lognormal_median(rng: &mut StdRng, median: f64, sigma: f64) -> f64 {
    LogNormal::new(median.ln(), sigma).map_or(median, |d| d.sample(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::topology::World;
    use via_model::seed::{fnv1a, FNV_BASIS};
    use via_model::stats::OnlineStats;

    fn world() -> World {
        World::generate(&WorldConfig::tiny(), 42)
    }

    #[test]
    fn means_are_deterministic_across_queries() {
        let w = world();
        let src = AsId(0);
        let dst = AsId(5);
        let t = SimTime::from_days(3);
        let m1 = w.perf().option_mean(src, dst, RelayOption::Direct, t);
        let m2 = w.perf().option_mean(src, dst, RelayOption::Direct, t);
        assert_eq!(m1, m2);
    }

    #[test]
    fn two_models_agree_regardless_of_query_order() {
        let w1 = world();
        let w2 = world();
        let t = SimTime::from_days(2);
        // Warm w2's cache in a different order first.
        let _ = w2
            .perf()
            .option_mean(AsId(3), AsId(4), RelayOption::Direct, t);
        let a = w1
            .perf()
            .option_mean(AsId(0), AsId(5), RelayOption::Bounce(RelayId(1)), t);
        let b = w2
            .perf()
            .option_mean(AsId(0), AsId(5), RelayOption::Bounce(RelayId(1)), t);
        assert_eq!(a, b);
    }

    #[test]
    fn samples_scatter_around_mean() {
        let w = world();
        let t = SimTime::from_days(1);
        let mean = w
            .perf()
            .option_mean(AsId(0), AsId(7), RelayOption::Direct, t);
        let mut rng = StdRng::seed_from_u64(1);
        let mut rtt = OnlineStats::new();
        let mut loss = OnlineStats::new();
        for _ in 0..4000 {
            let s = w
                .perf()
                .sample_option(AsId(0), AsId(7), RelayOption::Direct, t, &mut rng);
            rtt.push(s.rtt_ms);
            loss.push(s.loss_pct);
        }
        let rtt_mean = rtt.mean().unwrap();
        // Transient spikes (`CALL_SPIKE_PROB`) uniformly inflate realized
        // means ~5% above the spike-free `option_mean`; option rankings are
        // unaffected.
        assert!(
            (rtt_mean - mean.rtt_ms) / mean.rtt_ms > -0.02,
            "sample mean {rtt_mean} fell below model mean {}",
            mean.rtt_ms
        );
        assert!(
            (rtt_mean - mean.rtt_ms).abs() / mean.rtt_ms < 0.12,
            "sample mean {rtt_mean} vs model mean {}",
            mean.rtt_ms
        );
        if mean.loss_pct > 0.01 {
            // Spikes also add ~0.05% absolute loss on average.
            let loss_mean = loss.mean().unwrap();
            assert!(
                loss_mean >= mean.loss_pct * 0.7 && loss_mean <= mean.loss_pct * 1.3 + 0.1,
                "loss sample mean {loss_mean} vs {}",
                mean.loss_pct
            );
        }
    }

    #[test]
    fn scratch_sampling_is_bit_identical_to_plain_sampling() {
        let w = world();
        let mut scratch = SampleScratch::new();
        let options = [
            RelayOption::Direct,
            RelayOption::Bounce(RelayId(1)),
            RelayOption::Transit(RelayId(0), RelayId(2)),
            RelayOption::Transit(RelayId(3), RelayId(1)),
        ];
        // Interleave times so the scratch invalidation path is exercised,
        // and compare full RNG streams, not just single draws.
        let mut plain_rng = StdRng::seed_from_u64(99);
        let mut scratch_rng = StdRng::seed_from_u64(99);
        for day in [1u64, 4, 1, 9] {
            let t = SimTime::from_days(day);
            for &opt in &options {
                assert_eq!(
                    w.perf().option_mean(AsId(0), AsId(7), opt, t),
                    w.perf()
                        .option_mean_scratch(AsId(0), AsId(7), opt, t, &mut scratch),
                    "means diverge for {opt:?} day {day}"
                );
                let a = w
                    .perf()
                    .sample_option(AsId(0), AsId(7), opt, t, &mut plain_rng);
                let b = w.perf().sample_option_scratch(
                    AsId(0),
                    AsId(7),
                    opt,
                    t,
                    &mut scratch_rng,
                    &mut scratch,
                );
                assert_eq!(
                    a.rtt_ms.to_bits(),
                    b.rtt_ms.to_bits(),
                    "rtt diverges for {opt:?} day {day}"
                );
                assert_eq!(a.loss_pct.to_bits(), b.loss_pct.to_bits());
                assert_eq!(a.jitter_ms.to_bits(), b.jitter_ms.to_bits());
            }
        }
        // And the two RNGs must have consumed identical draw counts.
        assert_eq!(
            plain_rng.random::<u64>(),
            scratch_rng.random::<u64>(),
            "draw streams desynced"
        );
    }

    #[test]
    fn one_scratch_across_days_matches_the_plain_path_and_holds_one_instant() {
        // A call stream crossing day 0 → 1 → 0 through one scratch, two
        // instants a day and two calls an instant, so memo hits, instant
        // moves and day moves all occur. Every value must be the plain
        // path's bit for bit (a paired baseline's through a fresh scratch),
        // and after every call the memo may hold only segments of options
        // scored at that instant.
        let w = world();
        let perf = w.perf();
        let options = [
            RelayOption::Direct,
            RelayOption::Bounce(RelayId(1)),
            RelayOption::Transit(RelayId(0), RelayId(2)),
            RelayOption::Transit(RelayId(3), RelayId(1)),
        ];
        let pairs = [(AsId(0), AsId(7)), (AsId(1), AsId(6)), (AsId(7), AsId(0))];
        let bits = |m: PathMetrics| [m.rtt_ms, m.loss_pct, m.jitter_ms].map(f64::to_bits);
        let mut scratch = SampleScratch::new();
        let (mut plain_rng, mut scratch_rng, mut fresh_rng) = (
            StdRng::seed_from_u64(7),
            StdRng::seed_from_u64(7),
            StdRng::seed_from_u64(7),
        );
        for day in [0u64, 1, 0] {
            for hour in [3u64, 20] {
                let t = SimTime::from_days(day) + hour * via_model::time::SECS_PER_HOUR;
                let mut instant = std::collections::HashSet::<Segment>::new();
                for _ in 0..2 {
                    for &(src, dst) in &pairs {
                        for &opt in &options {
                            instant.extend(perf.segments_of(src, dst, opt).segments());
                            instant
                                .extend(perf.segments_of(src, dst, RelayOption::Direct).segments());
                            let what = format!("{src}->{dst} {opt:?} day {day} hour {hour}");
                            assert_eq!(
                                bits(perf.option_mean_scratch(src, dst, opt, t, &mut scratch)),
                                bits(perf.option_mean(src, dst, opt, t)),
                                "mean of {what}"
                            );
                            let (chosen, base) = perf.sample_option_paired(
                                src,
                                dst,
                                opt,
                                RelayOption::Direct,
                                t,
                                &mut scratch_rng,
                                &mut scratch,
                            );
                            let plain = perf.sample_option(src, dst, opt, t, &mut plain_rng);
                            assert_eq!(bits(chosen), bits(plain), "chosen of {what}");
                            let (fresh_chosen, fresh_base) = perf.sample_option_paired(
                                src,
                                dst,
                                opt,
                                RelayOption::Direct,
                                t,
                                &mut fresh_rng,
                                &mut SampleScratch::new(),
                            );
                            assert_eq!(bits(chosen), bits(fresh_chosen), "chosen of {what}");
                            assert_eq!(bits(base), bits(fresh_base), "baseline of {what}");
                            assert!(
                                scratch.seg_means.keys().all(|s| instant.contains(s)),
                                "the memo outlived its instant at {what}"
                            );
                        }
                    }
                }
            }
        }
        let next = [plain_rng, scratch_rng, fresh_rng].map(|mut rng| rng.random::<u64>());
        assert!(next.iter().all(|&n| n == next[0]), "draws desynced");
    }

    #[test]
    fn paired_sampling_keeps_chosen_bit_identical_and_streams_synced() {
        let w = world();
        let mut scratch_a = SampleScratch::new();
        let mut scratch_b = SampleScratch::new();
        let mut rng_a = StdRng::seed_from_u64(123);
        let mut rng_b = StdRng::seed_from_u64(123);
        let options = [
            RelayOption::Direct,
            RelayOption::Bounce(RelayId(2)),
            RelayOption::Transit(RelayId(0), RelayId(3)),
        ];
        for day in [0u64, 3, 3, 8] {
            let t = SimTime::from_days(day);
            for &opt in &options {
                let plain = w.perf().sample_option_scratch(
                    AsId(1),
                    AsId(6),
                    opt,
                    t,
                    &mut rng_a,
                    &mut scratch_a,
                );
                let (chosen, base) = w.perf().sample_option_paired(
                    AsId(1),
                    AsId(6),
                    opt,
                    RelayOption::Direct,
                    t,
                    &mut rng_b,
                    &mut scratch_b,
                );
                assert_eq!(
                    plain.rtt_ms.to_bits(),
                    chosen.rtt_ms.to_bits(),
                    "chosen rtt diverges for {opt:?} day {day}"
                );
                assert_eq!(plain.loss_pct.to_bits(), chosen.loss_pct.to_bits());
                assert_eq!(plain.jitter_ms.to_bits(), chosen.jitter_ms.to_bits());
                assert!(base.is_finite());
                if opt == RelayOption::Direct {
                    // Pairing an option with itself must be exact, not close.
                    assert_eq!(chosen, base);
                }
            }
        }
        // The paired API must consume exactly the draws the plain API does.
        assert_eq!(
            rng_a.random::<u64>(),
            rng_b.random::<u64>(),
            "draw streams desynced"
        );
    }

    #[test]
    fn paired_sampling_bits_are_pinned() {
        // Every bit of (chosen, baseline) over the matrix the test above
        // walks, 50 draws a cell, folded FNV-1a into one constant.
        let w = world();
        let mut scratch = SampleScratch::new();
        let mut rng = StdRng::seed_from_u64(123);
        let options = [
            RelayOption::Direct,
            RelayOption::Bounce(RelayId(2)),
            RelayOption::Transit(RelayId(0), RelayId(3)),
        ];
        let mut h = FNV_BASIS;
        for day in [0u64, 3, 3, 8] {
            let t = SimTime::from_days(day);
            for &opt in &options {
                for _ in 0..50 {
                    let (c, b) = w.perf().sample_option_paired(
                        AsId(1),
                        AsId(6),
                        opt,
                        RelayOption::Direct,
                        t,
                        &mut rng,
                        &mut scratch,
                    );
                    for v in [
                        c.rtt_ms,
                        c.loss_pct,
                        c.jitter_ms,
                        b.rtt_ms,
                        b.loss_pct,
                        b.jitter_ms,
                    ] {
                        h = fnv1a(h, &v.to_bits().to_le_bytes());
                    }
                }
            }
        }
        assert_eq!(h, 0xe6be_a38a_7564_f61f, "paired sampler bits moved");
    }

    #[test]
    fn paired_baseline_shares_the_calls_noise() {
        // CRN pairing: both realizations carry the same multiplicative luck,
        // so the rtt ratio to the respective means is identical per call.
        let w = world();
        let t = SimTime::from_days(2);
        let opt = RelayOption::Bounce(RelayId(1));
        let mean_c = w.perf().option_mean(AsId(0), AsId(7), opt, t);
        let mean_b = w
            .perf()
            .option_mean(AsId(0), AsId(7), RelayOption::Direct, t);
        let mut scratch = SampleScratch::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let (c, b) = w.perf().sample_option_paired(
                AsId(0),
                AsId(7),
                opt,
                RelayOption::Direct,
                t,
                &mut rng,
                &mut scratch,
            );
            let rc = c.rtt_ms / mean_c.rtt_ms;
            let rb = b.rtt_ms / mean_b.rtt_ms;
            assert!(
                (rc - rb).abs() < 1e-12 * rc.abs().max(1.0),
                "rtt noise not shared: {rc} vs {rb}"
            );
        }
    }

    #[test]
    fn backbone_beats_public_wan() {
        let w = world();
        let t = SimTime::ZERO;
        // Compare the backbone segment against a direct WAN segment over a
        // similar distance: the backbone must be much cleaner.
        let bb = w.perf().backbone_metrics(RelayId(0), RelayId(1));
        assert!(bb.loss_pct < 0.05);
        assert!(bb.jitter_ms < 1.0);
        let direct = w.perf().segment_mean(Segment::direct(AsId(0), AsId(9)), t);
        assert!(direct.loss_pct > bb.loss_pct);
    }

    #[test]
    fn transit_orientation_picks_short_on_ramps() {
        let w = world();
        let path = w.perf().segments_of(
            AsId(0),
            AsId(9),
            RelayOption::Transit(RelayId(0), RelayId(1)),
        );
        assert_eq!(path.hops(), 2);
        assert_eq!(path.len(), 5);
        // First relay leg must attach to the source AS.
        match path.segments()[1] {
            Segment::RelayWan(a, _) => assert_eq!(a, AsId(0)),
            ref s => panic!("unexpected segment {s:?}"),
        }
    }

    #[test]
    fn concurrent_first_touch_builds_each_segment_once() {
        let w = world();
        // A sparse (DirectWan) segment that nothing has touched yet: many
        // threads race to materialize it concurrently.
        let seg = Segment::direct(AsId(2), AsId(11));
        let t = SimTime::from_days(1);
        assert_eq!(w.perf().segment_builds(), 0);
        let means: Vec<SegMetrics> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| w.perf().segment_mean(seg, t)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            w.perf().segment_builds(),
            1,
            "racing first touches must build the segment exactly once"
        );
        for m in &means[1..] {
            assert_eq!(*m, means[0]);
        }
        // Re-querying an already-built segment builds nothing.
        let _ = w.perf().segment_mean(seg, t);
        assert_eq!(w.perf().segment_builds(), 1);
    }

    /// Each id past its own dimension must fail: under raw `row * cols + col`
    /// arithmetic these three land inside the table, on another pair's slot.
    fn mean_of_out_of_range(segment: impl FnOnce(u32, u32) -> Segment) {
        let w = world();
        let (n_ases, n_relays) = (w.perf().n_ases() as u32, w.perf().n_relays() as u32);
        let _ = w
            .perf()
            .segment_mean(segment(n_ases, n_relays), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn direct_wan_slot_rejects_an_out_of_range_second_as() {
        mean_of_out_of_range(|n_ases, _| Segment::DirectWan(AsId(0), AsId(n_ases + 5)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn relay_wan_slot_rejects_an_out_of_range_relay() {
        mean_of_out_of_range(|_, n_relays| Segment::RelayWan(AsId(0), RelayId(n_relays + 1)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn backbone_slot_rejects_an_out_of_range_second_relay() {
        mean_of_out_of_range(|_, n_relays| Segment::Backbone(RelayId(0), RelayId(n_relays + 1)));
    }

    #[test]
    fn rtt_respects_physics() {
        let w = World::generate(&WorldConfig::small(), 3);
        let t = SimTime::from_days(1);
        for (a, b) in [(AsId(0), AsId(20)), (AsId(3), AsId(33))] {
            let lower = w.ases[a.index()].pos.min_rtt_ms(&w.ases[b.index()].pos);
            let m = w.perf().option_mean(a, b, RelayOption::Direct, t);
            assert!(
                m.rtt_ms >= lower,
                "model RTT {} under the speed of light {}",
                m.rtt_ms,
                lower
            );
        }
    }

    #[test]
    fn diurnal_variation_moves_metrics() {
        let w = world();
        let seg = Segment::direct(AsId(0), AsId(7));
        let mut values: Vec<f64> = (0..24)
            .map(|h| w.perf().segment_mean(seg, SimTime::from_hours(h)).jitter_ms)
            .collect();
        values.sort_by(f64::total_cmp);
        assert!(
            values.last().unwrap() > &(values[0] * 1.05),
            "expected diurnal swing, got flat {values:?}"
        );
    }

    #[test]
    fn loss_never_exceeds_bounds() {
        let w = world();
        let mut rng = StdRng::seed_from_u64(2);
        let t = SimTime::from_days(5);
        for _ in 0..500 {
            let s = w
                .perf()
                .sample_option(AsId(1), AsId(8), RelayOption::Direct, t, &mut rng);
            assert!((0.0..=100.0).contains(&s.loss_pct));
            assert!(s.rtt_ms >= 0.0 && s.jitter_ms >= 0.0);
            assert!(s.is_finite());
        }
    }
}
