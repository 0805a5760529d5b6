//! World generation: countries, eyeball ASes, relay fleet, and candidate
//! relaying options.

use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::{Once, OnceLock};
use via_model::ids::{AsId, CountryId, RelayId};
use via_model::options::RelayOption;
use via_model::seed;
use via_model::table::Table;

use crate::catalog;
use crate::config::WorldConfig;
use crate::geo::GeoPoint;
use crate::perf::PerfModel;

/// A country instantiated in the world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Country {
    /// Dense id.
    pub id: CountryId,
    /// Catalog name.
    pub name: String,
    /// Representative location.
    pub pos: GeoPoint,
    /// Quality tier, 1 (excellent) … 4 (poor).
    pub tier: u8,
    /// Relative call-traffic weight.
    pub weight: f64,
}

/// An eyeball AS (ISP) instantiated in the world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsInfo {
    /// Dense id.
    pub id: AsId,
    /// Country this AS serves.
    pub country: CountryId,
    /// PoP location (country centroid plus jitter).
    pub pos: GeoPoint,
    /// Quality tier; mostly the country tier, occasionally one better or
    /// worse (ISPs within a country differ — the reason Figure 17a finds
    /// AS-level decisions beat country-level ones).
    pub tier: u8,
    /// Relative share of the country's calls carried by this AS.
    pub weight: f64,
}

/// A relay datacenter in the managed network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Relay {
    /// Dense id.
    pub id: RelayId,
    /// Site name.
    pub name: String,
    /// Site location.
    pub pos: GeoPoint,
}

/// The fully generated world: topology plus the ground-truth performance
/// model. Everything is deterministic in `(config, seed)`.
#[derive(Debug)]
pub struct World {
    /// Generation parameters.
    pub config: WorldConfig,
    /// Seed the world was generated from.
    pub seed: u64,
    /// Instantiated countries.
    pub countries: Vec<Country>,
    /// Instantiated ASes, grouped contiguously by country.
    pub ases: Vec<AsInfo>,
    /// Relay fleet.
    pub relays: Vec<Relay>,
    perf: PerfModel,
    geometry: Geometry,
    candidates: CandidateTable,
}

/// The candidate table: each ordered `(src, dst)` AS pair's relaying options,
/// enumerated on the pair's first touch and never evicted — the fill reads
/// only what [`World::generate`] fixed, so a filled slot cannot go stale.
/// Same contract as the performance model's segment tables: a warm read takes
/// no lock and hashes nothing, a racing first touch fills once.
///
/// Memory is what this table costs (a replay touches tens of thousands of
/// pairs, 9–17 options each), and it is spent in two flat pieces rather than
/// a boxed set per pair: some twenty thousand small long-lived allocations
/// made while a replay's own buffers come and go pinned up to 3.3 MiB of
/// heap on the benchmark, twice what they held.
#[derive(Debug)]
struct CandidateTable {
    /// One fill-once flag per ordered pair; all an untouched pair costs.
    filled: Table<Once>,
    /// One row of cells per pair, in `filled`'s row-major order: the set's
    /// length, then its options packed. One allocation, made by the first
    /// query of the world (a world never asked for candidates never pays
    /// it). A cell is written once, inside its pair's `Once`, and read only
    /// after that `Once` completed, which is what orders the two; the cells
    /// are atomics so that writing through `&self` is safe code.
    cells: OnceLock<Table<AtomicU16>>,
    /// Cells per pair: 1 + the most options a set can hold.
    stride: usize,
    /// Sets enumerated so far (one per touched pair).
    fills: AtomicU64,
}

impl CandidateTable {
    fn new(n_ases: usize, max_options: usize) -> CandidateTable {
        CandidateTable {
            filled: Table::from_fn(n_ases, n_ases, |_, _| Once::new()),
            cells: OnceLock::new(),
            stride: 1 + max_options,
            fills: AtomicU64::new(0),
        }
    }

    /// Fills `out` with the pair's set, calling `fill` (which leaves the set
    /// in `out`) only if no one has yet.
    ///
    /// # Panics
    /// If either index is outside the table.
    fn get_or_fill(
        &self,
        src: usize,
        dst: usize,
        out: &mut Vec<RelayOption>,
        fill: impl FnOnce(&mut Vec<RelayOption>),
    ) {
        // Indexing the flag first is what rejects an out-of-range pair.
        let once = &self.filled[(src, dst)];
        let (rows, cols) = (self.filled.rows(), self.filled.cols());
        let cells = self
            .cells
            .get_or_init(|| Table::from_fn(rows * cols, self.stride, |_, _| AtomicU16::new(0)));
        let row = cells.row(src * cols + dst);
        let (len, set) = (&row[0], &row[1..]);
        once.call_once(|| {
            fill(out);
            let n = match u16::try_from(out.len()) {
                Ok(n) if out.len() <= set.len() => n,
                _ => panic!("{} candidates in a slot of {}", out.len(), set.len()),
            };
            for (cell, &option) in set.iter().zip(out.iter()) {
                cell.store(PackedOption::pack(option).0, Ordering::Relaxed);
            }
            len.store(n, Ordering::Relaxed);
            self.fills.fetch_add(1, Ordering::Relaxed);
        });
        let len = usize::from(len.load(Ordering::Relaxed));
        out.clear();
        out.extend(
            set[..len]
                .iter()
                .map(|cell| PackedOption(cell.load(Ordering::Relaxed)).unpack()),
        );
    }
}

/// A [`RelayOption`] at two bytes instead of twelve: one relay index per
/// byte, [`PackedOption::NONE`] where the option names no relay. One byte is
/// as narrow as the fleet allows; [`World::generate`] refuses a fleet this
/// width cannot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedOption(u16);

impl PackedOption {
    /// "No relay in this position"; never a relay index.
    const NONE: u8 = u8::MAX;
    /// Largest fleet whose every relay index is distinct from `NONE`.
    const MAX_FLEET: usize = Self::NONE as usize;

    fn pack(option: RelayOption) -> PackedOption {
        let byte = |r: RelayId| match u8::try_from(r.0) {
            Ok(b) if b != Self::NONE => b,
            _ => panic!("{r} does not fit the candidate table's one-byte relay index"),
        };
        PackedOption(u16::from_le_bytes(match option {
            RelayOption::Direct => [Self::NONE, Self::NONE],
            RelayOption::Bounce(r) => [byte(r), Self::NONE],
            RelayOption::Transit(a, b) => [byte(a), byte(b)],
        }))
    }

    fn unpack(self) -> RelayOption {
        let relay = |b: u8| RelayId(u32::from(b));
        match self.0.to_le_bytes() {
            [Self::NONE, _] => RelayOption::Direct,
            [r, Self::NONE] => RelayOption::Bounce(relay(r)),
            [a, b] => RelayOption::Transit(relay(a), relay(b)),
        }
    }
}

/// Relay-side geometry, computed once in [`World::generate`]; together with
/// the performance model's AS×relay distance table it makes a candidate-table
/// fill table reads and two small sorts, with no trigonometry. Positions are
/// fixed at generation: nothing moves an AS or a relay afterwards.
#[derive(Debug)]
struct Geometry {
    /// `relay_km[(i, j)]` = distance from relay `i` to relay `j`.
    relay_km: Table<f64>,
    /// Per AS, every relay ranked by distance from it (ties by relay id).
    /// A per-AS ranking depends on one endpoint only, so it can be shared by
    /// every pair the AS takes part in; the bounce ranking orders by the
    /// *sum* over both endpoints and has to be formed per pair.
    nearest: Table<RelayId>,
}

impl Geometry {
    fn new(as_relay_km: &Table<f64>, relays: &[Relay]) -> Geometry {
        let relay_km = Table::from_fn(relays.len(), relays.len(), |i, j| {
            relays[i].pos.distance_km(&relays[j].pos)
        });
        let n_ases = as_relay_km.rows();
        let mut ranked: Vec<RelayId> = Vec::with_capacity(n_ases * relays.len());
        for a in 0..n_ases {
            let km = as_relay_km.row(a);
            let start = ranked.len();
            ranked.extend(relays.iter().map(|r| r.id));
            ranked[start..].sort_by(|x, y| km[x.index()].total_cmp(&km[y.index()]));
        }
        Geometry {
            relay_km,
            nearest: Table::from_cells(n_ases, relays.len(), ranked),
        }
    }
}

impl World {
    /// Generates a world from a configuration and a seed.
    ///
    /// # Panics
    /// Panics if the configuration requests more countries or relays than the
    /// catalog provides, or zero ASes per country.
    pub fn generate(config: &WorldConfig, world_seed: u64) -> World {
        assert!(
            config.n_countries >= 2 && config.n_countries <= catalog::COUNTRIES.len(),
            "n_countries out of range"
        );
        assert!(
            config.n_relays <= PackedOption::MAX_FLEET,
            "fleet wider than the candidate table's one-byte relay index"
        );
        assert!(
            config.n_relays >= 2 && config.n_relays <= catalog::SITES.len(),
            "n_relays out of range"
        );
        assert!(config.ases_per_country >= 1, "need at least one AS/country");

        let mut rng = StdRng::seed_from_u64(seed::derive(world_seed, "topology"));

        let countries: Vec<Country> = catalog::COUNTRIES[..config.n_countries]
            .iter()
            .zip(0u32..)
            .map(|(c, i)| Country {
                id: CountryId(i),
                name: c.name.to_string(),
                pos: GeoPoint::new(c.lat, c.lon),
                tier: c.tier,
                weight: c.call_weight,
            })
            .collect();

        let mut ases = Vec::new();
        let mut next_as_id: u32 = 0;
        for country in &countries {
            // Bigger countries host more ASes: scale by sqrt(weight).
            let scale = (country.weight / 3.0).sqrt().clamp(0.5, 2.5);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "rounds to the nearest whole AS count; the scaled count is small and non-negative"
            )]
            let n = ((config.ases_per_country as f64 * scale).round() as usize).max(1);
            for k in 0..n {
                let id = AsId(next_as_id);
                next_as_id += 1;
                // Jitter the PoP position around the country centroid.
                let lat = (country.pos.lat_deg + rng.random_range(-3.0..3.0)).clamp(-89.0, 89.0);
                let lon = wrap_lon(country.pos.lon_deg + rng.random_range(-4.0..4.0));
                // Tier varies ±1 around the country tier for some ASes.
                let tier_delta: i8 = match rng.random_range(0..10) {
                    0 => -1,
                    1 | 2 => 1,
                    _ => 0,
                };
                let tier = country.tier.saturating_add_signed(tier_delta).clamp(1, 4);
                // Zipf-ish within-country market share.
                let weight = 1.0 / (k as f64 + 1.0);
                ases.push(AsInfo {
                    id,
                    country: country.id,
                    pos: GeoPoint::new(lat, lon),
                    tier,
                    weight,
                });
            }
        }

        let relays: Vec<Relay> = catalog::SITES[..config.n_relays]
            .iter()
            .zip(0u32..)
            .map(|(s, i)| Relay {
                id: RelayId(i),
                name: s.name.to_string(),
                pos: GeoPoint::new(s.lat, s.lon),
            })
            .collect();

        let perf = PerfModel::new(world_seed, config.horizon_days, &ases, &relays);
        let geometry = Geometry::new(perf.as_relay_km(), &relays);
        let candidates = CandidateTable::new(ases.len(), max_candidates(config, relays.len()));

        World {
            config: config.clone(),
            seed: world_seed,
            countries,
            ases,
            relays,
            perf,
            geometry,
            candidates,
        }
    }

    /// The ground-truth performance model.
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// Country of an AS.
    pub fn country_of(&self, a: AsId) -> CountryId {
        self.ases[a.index()].country
    }

    /// True if the two ASes are in different countries — the paper's
    /// definition of an international call.
    pub fn is_international(&self, a: AsId, b: AsId) -> bool {
        self.country_of(a) != self.country_of(b)
    }

    /// Enumerates the candidate relaying options for a source–destination AS
    /// pair: the direct path, the `bounce_candidates` single relays with the
    /// smallest geographic detour, and up to `transit_candidates` transit
    /// pairs formed from relays near each endpoint.
    ///
    /// The managed overlay never considers *every* O(R²) pair for every call;
    /// like the paper's deployment (9–20 options per pair, §5.5), the
    /// candidate set is small and geographically sensible. Options are
    /// returned in canonical form, deduplicated, `Direct` first.
    pub fn candidate_options(&self, src: AsId, dst: AsId) -> Vec<RelayOption> {
        let mut scratch = CandidateScratch::default();
        let mut options = Vec::new();
        self.candidate_options_into(src, dst, &mut scratch, &mut options);
        options
    }

    /// [`World::candidate_options`] into the caller's buffers: fills `out`
    /// (cleared first) from the pair's candidate-table slot. The set is
    /// enumerated on the pair's first touch (with `scratch`'s reusable
    /// ranking buffers) and decoded from the slot ever after, so a replay
    /// pays the enumeration once per pair per world rather than once per
    /// (pair, window). Nothing is allocated but the table itself, once, by
    /// the world's first query. The produced options (content and order) are
    /// identical to [`World::candidate_options`].
    ///
    /// # Panics
    /// If either AS is outside the world.
    pub fn candidate_options_into(
        &self,
        src: AsId,
        dst: AsId,
        scratch: &mut CandidateScratch,
        out: &mut Vec<RelayOption>,
    ) {
        self.candidates
            .get_or_fill(src.index(), dst.index(), out, |out| {
                self.enumerate_candidates(src, dst, scratch, out);
            });
    }

    /// Number of candidate sets enumerated so far. Each touched pair is
    /// enumerated exactly once — concurrent first touches never duplicate
    /// the work — so this equals the number of distinct ordered pairs queried.
    /// It measures how warm this world is, not what a replay did: two replays
    /// of one trace over one world report different deltas, which is why it
    /// is not part of any replay's statistics.
    pub fn candidate_sets_built(&self) -> u64 {
        self.candidates.fills.load(Ordering::Relaxed)
    }

    /// The candidate table's fill function: ranks the fleet for one pair.
    fn enumerate_candidates(
        &self,
        src: AsId,
        dst: AsId,
        scratch: &mut CandidateScratch,
        out: &mut Vec<RelayOption>,
    ) {
        let geo = &self.geometry;
        let as_relay_km = self.perf.as_relay_km();
        let src_km = as_relay_km.row(src.index());
        let dst_km = as_relay_km.row(dst.index());

        // Rank relays by bounce detour distance.
        let by_detour = &mut scratch.by_detour;
        by_detour.clear();
        by_detour.extend(
            self.relays
                .iter()
                .zip(src_km.iter().zip(dst_km))
                .map(|(r, (d_src, d_dst))| (d_src + d_dst, r.id)),
        );
        by_detour.sort_by(|a, b| a.0.total_cmp(&b.0));

        out.clear();
        out.push(RelayOption::Direct);
        for &(_, r) in by_detour.iter().take(self.config.bounce_candidates) {
            out.push(RelayOption::Bounce(r));
        }

        // Transit: ingress relays near the source, egress relays near the
        // destination, ranked by total stitched distance.
        let take = transit_prefix(&self.config, self.relays.len());
        let near_src = &geo.nearest.row(src.index())[..take];
        let near_dst = &geo.nearest.row(dst.index())[..take];
        let transits = &mut scratch.transits;
        transits.clear();
        for &r_in in near_src {
            for &r_out in near_dst {
                if r_in == r_out {
                    continue;
                }
                let bb = geo.relay_km[(r_in.index(), r_out.index())];
                let total = src_km[r_in.index()] + bb + dst_km[r_out.index()];
                transits.push((total, RelayOption::Transit(r_in, r_out).canonical()));
            }
        }
        transits.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, t) in transits.iter() {
            if out.len() >= 1 + self.config.bounce_candidates + self.config.transit_candidates {
                break;
            }
            if !out.contains(&t) {
                out.push(t);
            }
        }
    }
}

/// Reusable ranking buffers for [`World::candidate_options_into`]'s first
/// touch of a pair; a warm slot does not use them.
#[derive(Debug, Default)]
pub struct CandidateScratch {
    by_detour: Vec<(f64, RelayId)>,
    transits: Vec<(f64, RelayOption)>,
}

/// How many of each endpoint's nearest relays a pair's transit candidates
/// are formed from.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the ceiling of the square root of a candidate count is a whole number far below `usize::MAX`"
)]
fn transit_prefix(config: &WorldConfig, n_relays: usize) -> usize {
    let k = config.transit_candidates.max(1);
    ((k as f64).sqrt().ceil() as usize + 1).min(n_relays)
}

/// The most options [`World::enumerate_candidates`] can produce for a pair:
/// `Direct`, a bounce per ranked relay and every pairing of the two transit
/// prefixes, cut off at the configured total.
fn max_candidates(config: &WorldConfig, n_relays: usize) -> usize {
    let take = transit_prefix(config, n_relays);
    (1 + config.bounce_candidates.min(n_relays) + take * take)
        .min(1 + config.bounce_candidates + config.transit_candidates)
}

fn wrap_lon(lon: f64) -> f64 {
    let mut l = lon;
    while l > 180.0 {
        l -= 360.0;
    }
    while l < -180.0 {
        l += 360.0;
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(&WorldConfig::tiny(), 42)
    }

    /// The enumerator as it was before the geometry tables: haversine trig
    /// for every leg, three fresh rankings per pair. Kept as the reference
    /// the table-backed [`World::candidate_options_into`] must reproduce.
    fn candidate_options_trig(w: &World, src: AsId, dst: AsId) -> Vec<RelayOption> {
        let src_pos = w.ases[src.index()].pos;
        let dst_pos = w.ases[dst.index()].pos;

        let mut by_detour: Vec<(f64, RelayId)> = w
            .relays
            .iter()
            .map(|r| {
                let d = src_pos.distance_km(&r.pos) + r.pos.distance_km(&dst_pos);
                (d, r.id)
            })
            .collect();
        by_detour.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut out = vec![RelayOption::Direct];
        for &(_, r) in by_detour.iter().take(w.config.bounce_candidates) {
            out.push(RelayOption::Bounce(r));
        }

        let rank_from = |pos: GeoPoint| {
            let mut near: Vec<(f64, RelayId)> = w
                .relays
                .iter()
                .map(|r| (pos.distance_km(&r.pos), r.id))
                .collect();
            near.sort_by(|a, b| a.0.total_cmp(&b.0));
            near
        };
        let near_src = rank_from(src_pos);
        let near_dst = rank_from(dst_pos);

        let k = w.config.transit_candidates.max(1);
        let take = (k as f64).sqrt().ceil() as usize + 1;
        let mut transits = Vec::new();
        for &(d_in, r_in) in near_src.iter().take(take) {
            for &(d_out, r_out) in near_dst.iter().take(take) {
                if r_in == r_out {
                    continue;
                }
                let bb = w.relays[r_in.index()]
                    .pos
                    .distance_km(&w.relays[r_out.index()].pos);
                let total = d_in + bb + d_out;
                transits.push((total, RelayOption::Transit(r_in, r_out).canonical()));
            }
        }
        transits.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, t) in &transits {
            if out.len() >= 1 + w.config.bounce_candidates + w.config.transit_candidates {
                break;
            }
            if !out.contains(&t) {
                out.push(t);
            }
        }
        out
    }

    /// Asserts table-backed == trig enumeration for every ordered AS pair.
    fn assert_tables_match_trig(w: &World) {
        let mut scratch = CandidateScratch::default();
        let mut got = Vec::new();
        for a in &w.ases {
            for b in &w.ases {
                w.candidate_options_into(a.id, b.id, &mut scratch, &mut got);
                assert_eq!(
                    got,
                    candidate_options_trig(w, a.id, b.id),
                    "pair {} -> {} ({} relays, bounce {}, transit {})",
                    a.id,
                    b.id,
                    w.relays.len(),
                    w.config.bounce_candidates,
                    w.config.transit_candidates,
                );
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "tens of thousands of enumerations")]
    fn table_enumeration_equals_trig_enumeration_for_every_pair() {
        for cfg in [
            WorldConfig::tiny(),
            WorldConfig::small(),
            WorldConfig::paper_scale(),
        ] {
            for seed in [7, 42] {
                assert_tables_match_trig(&World::generate(&cfg, seed));
            }
        }
    }

    #[test]
    fn table_enumeration_equals_trig_at_degenerate_candidate_counts() {
        // 0 and 1 exercise the empty / single-entry prefixes; 40 exceeds the
        // small world's 12 relays, so every prefix is clamped to the fleet.
        for bounce in [0, 1, 40] {
            for transit in [0, 1, 40] {
                let cfg = WorldConfig {
                    bounce_candidates: bounce,
                    transit_candidates: transit,
                    ..WorldConfig::small()
                };
                assert_tables_match_trig(&World::generate(&cfg, 42));
            }
        }
    }

    #[test]
    fn table_enumeration_is_right_for_any_relay_prefix() {
        // The AS×relay tables are strided by the relay count; two fleets of
        // different size over the same ASes catch a stride mix-up.
        for n_relays in [2, 30] {
            let cfg = WorldConfig {
                n_relays,
                ..WorldConfig::small()
            };
            let w = World::generate(&cfg, 42);
            assert_eq!(w.relays.len(), n_relays);
            assert_tables_match_trig(&w);
        }
    }

    /// Asserts a table read, cold then warm, equals the fill function called
    /// directly (content and order) for each pair, and that each pair was
    /// enumerated into the table once.
    fn assert_table_matches_fill(w: &World, pairs: impl Iterator<Item = (AsId, AsId)>) {
        let mut scratch = CandidateScratch::default();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let mut distinct = std::collections::BTreeSet::new();
        for (a, b) in pairs {
            w.enumerate_candidates(a, b, &mut scratch, &mut want);
            for touch in ["first", "second"] {
                w.candidate_options_into(a, b, &mut scratch, &mut got);
                assert_eq!(got, want, "pair {a} -> {b}, {touch} touch");
            }
            assert_eq!(w.candidate_options(a, b), want);
            distinct.insert((a, b));
        }
        assert_eq!(w.candidate_sets_built(), distinct.len() as u64);
    }

    fn all_pairs(w: &World) -> impl Iterator<Item = (AsId, AsId)> + '_ {
        w.ases
            .iter()
            .flat_map(|a| w.ases.iter().map(move |b| (a.id, b.id)))
    }

    #[test]
    #[cfg_attr(miri, ignore = "tens of thousands of enumerations")]
    fn table_reads_equal_the_fill_function_cold_and_warm() {
        for cfg in [WorldConfig::tiny(), WorldConfig::small()] {
            let w = World::generate(&cfg, 42);
            assert_table_matches_fill(&w, all_pairs(&w));
        }
        let w = World::generate(&WorldConfig::paper_scale(), 42);
        let mut rng = StdRng::seed_from_u64(5);
        let n = w.ases.len() as u32;
        let sampled: Vec<(AsId, AsId)> = (0..2_000)
            .map(|_| (AsId(rng.random_range(0..n)), AsId(rng.random_range(0..n))))
            .collect();
        assert_table_matches_fill(&w, sampled.into_iter());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn candidate_slot_rejects_an_out_of_range_dst() {
        // Under raw `src * n + dst` arithmetic this is pair (1, 5)'s slot.
        let w = world();
        let _ = w.candidate_options(AsId(0), AsId(w.ases.len() as u32 + 5));
    }

    #[test]
    #[cfg_attr(miri, ignore = "tens of thousands of enumerations")]
    fn full_candidate_table_stays_under_four_mib_at_paper_scale() {
        // Where the cell width is decided: the benchmark's `peak_rss_mib`
        // bounds and CI's 256 MiB streamed-replay ceiling both assume this
        // table is small, and a wider cell or stride would grow it silently.
        let w = World::generate(&WorldConfig::paper_scale(), 7);
        let mut scratch = CandidateScratch::default();
        let mut out = Vec::new();
        for (a, b) in all_pairs(&w) {
            w.candidate_options_into(a, b, &mut scratch, &mut out);
        }
        let table = &w.candidates;
        let pairs = w.ases.len() * w.ases.len();
        assert_eq!(w.candidate_sets_built(), pairs as u64);
        let cells = table.cells.get().expect("a queried world has cells");
        assert_eq!((cells.rows(), cells.cols()), (pairs, table.stride));
        let bytes = table.filled.rows() * std::mem::size_of_val(table.filled.row(0))
            + cells.rows() * std::mem::size_of_val(cells.row(0));
        assert!(bytes <= 4 << 20, "{bytes} B for {pairs} pairs");
    }

    #[test]
    fn packed_options_round_trip() {
        let last = RelayId(PackedOption::MAX_FLEET as u32 - 1);
        for o in [
            RelayOption::Direct,
            RelayOption::Bounce(RelayId(0)),
            RelayOption::Bounce(last),
            RelayOption::Transit(RelayId(0), last),
            RelayOption::Transit(last, RelayId(3)),
        ] {
            assert_eq!(PackedOption::pack(o).unpack(), o);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn packing_never_truncates_a_relay_id() {
        // 256 truncates to relay 0; 255 is the "no relay" byte itself.
        let _ = PackedOption::pack(RelayOption::Bounce(RelayId(256)));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn packing_never_aliases_the_no_relay_byte() {
        let _ = PackedOption::pack(RelayOption::Transit(RelayId(1), RelayId(255)));
    }

    #[test]
    #[should_panic(expected = "fleet wider than the candidate table")]
    fn rejects_a_fleet_wider_than_the_packed_index() {
        let mut cfg = WorldConfig::tiny();
        cfg.n_relays = PackedOption::MAX_FLEET + 1;
        World::generate(&cfg, 1);
    }

    #[test]
    fn distance_is_bit_symmetric_over_the_catalog() {
        // One AS×relay table serves both orientations (AS→relay on the way
        // in, relay→AS on the way out), which is only sound if haversine is
        // symmetric to the last bit. If this ever fails, store both
        // orientations instead of weakening the test.
        for seed in [7, 42] {
            let w = World::generate(&WorldConfig::paper_scale(), seed);
            let relay_pos = || w.relays.iter().map(|r| r.pos);
            for r in relay_pos() {
                for p in w.ases.iter().map(|a| a.pos).chain(relay_pos()) {
                    assert_eq!(
                        p.distance_km(&r).to_bits(),
                        r.distance_km(&p).to_bits(),
                        "{p:?} <-> {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let w1 = world();
        let w2 = world();
        assert_eq!(w1.ases.len(), w2.ases.len());
        for (a, b) in w1.ases.iter().zip(&w2.ases) {
            assert_eq!(a.pos, b.pos);
            assert_eq!(a.tier, b.tier);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let w1 = World::generate(&WorldConfig::tiny(), 1);
        let w2 = World::generate(&WorldConfig::tiny(), 2);
        let same = w1
            .ases
            .iter()
            .zip(&w2.ases)
            .all(|(a, b)| a.pos == b.pos && a.tier == b.tier);
        assert!(!same);
    }

    #[test]
    fn entities_have_dense_ids() {
        let w = world();
        for (i, a) in w.ases.iter().enumerate() {
            assert_eq!(a.id.index(), i);
        }
        for (i, r) in w.relays.iter().enumerate() {
            assert_eq!(r.id.index(), i);
        }
        assert_eq!(w.countries.len(), 6);
        assert_eq!(w.relays.len(), 6);
    }

    #[test]
    fn as_tiers_within_range() {
        let w = World::generate(&WorldConfig::small(), 9);
        for a in &w.ases {
            assert!((1..=4).contains(&a.tier));
            // AS must be near its country.
            let c = &w.countries[a.country.index()];
            assert!(a.pos.distance_km(&c.pos) < 900.0);
        }
    }

    #[test]
    fn international_classification() {
        let w = world();
        let first_country = w.ases[0].country;
        let other = w
            .ases
            .iter()
            .find(|a| a.country != first_country)
            .expect("tiny world has multiple countries");
        assert!(w.is_international(w.ases[0].id, other.id));
        assert!(!w.is_international(w.ases[0].id, w.ases[0].id));
    }

    #[test]
    fn candidate_options_shape() {
        let w = world();
        let src = w.ases[0].id;
        let dst = w.ases.last().unwrap().id;
        let opts = w.candidate_options(src, dst);
        assert_eq!(opts[0], RelayOption::Direct);
        let bounces = opts.iter().filter(|o| o.is_bounce()).count();
        let transits = opts.iter().filter(|o| o.is_transit()).count();
        assert_eq!(bounces, w.config.bounce_candidates.min(w.relays.len()));
        assert!(transits >= 1, "expected at least one transit candidate");
        assert!(opts.len() <= 1 + w.config.bounce_candidates + w.config.transit_candidates);
        // No duplicates.
        let mut dedup = opts.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), opts.len());
    }

    #[test]
    fn candidate_options_are_canonical() {
        let w = world();
        for o in w.candidate_options(w.ases[0].id, w.ases[1].id) {
            assert_eq!(o, o.canonical());
        }
    }

    #[test]
    fn wrap_lon_behaviour() {
        assert_eq!(wrap_lon(190.0), -170.0);
        assert_eq!(wrap_lon(-185.0), 175.0);
        assert_eq!(wrap_lon(45.0), 45.0);
    }

    #[test]
    #[should_panic(expected = "n_countries out of range")]
    fn rejects_oversized_config() {
        let mut cfg = WorldConfig::tiny();
        cfg.n_countries = 1000;
        World::generate(&cfg, 1);
    }
}
