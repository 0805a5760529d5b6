//! World-generation configuration. The performance model's calibration is
//! not configuration: its constants sit beside their reader in
//! [`crate::perf`].

use serde::{Deserialize, Serialize};

/// Top-level configuration for synthesizing a world.
///
/// Presets: [`WorldConfig::tiny`] for doc tests and unit tests,
/// [`WorldConfig::small`] for integration tests, and
/// [`WorldConfig::paper_scale`] for the experiment binaries (all 40 catalog
/// countries, ~200 ASes, 30 relays — the same *shape* as the paper's world,
/// scaled to a laptop).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Number of countries, taken as a prefix of the catalog (max 40).
    pub n_countries: usize,
    /// Mean number of eyeball ASes per country; actual counts vary with
    /// country weight.
    pub ases_per_country: usize,
    /// Number of relay datacenters, taken as a prefix of the site catalog
    /// (max 30).
    pub n_relays: usize,
    /// Simulated horizon in days; episode processes are materialized up to
    /// this day.
    pub horizon_days: u64,
    /// Number of bouncing relay candidates enumerated per AS pair (nearest
    /// relays by detour distance).
    pub bounce_candidates: usize,
    /// Number of transit relay-pair candidates enumerated per AS pair.
    pub transit_candidates: usize,
}

impl WorldConfig {
    /// Minimal world for doc tests: 6 countries, 1–2 ASes each, 6 relays.
    pub fn tiny() -> Self {
        Self {
            n_countries: 6,
            ases_per_country: 2,
            n_relays: 6,
            horizon_days: 10,
            bounce_candidates: 4,
            transit_candidates: 4,
        }
    }

    /// Mid-size world for integration tests.
    pub fn small() -> Self {
        Self {
            n_countries: 16,
            ases_per_country: 3,
            n_relays: 12,
            horizon_days: 21,
            bounce_candidates: 6,
            transit_candidates: 6,
        }
    }

    /// Experiment-scale world mirroring the paper's diversity: all 40
    /// catalog countries, ~200 ASes, 30 relay sites, 8 weeks.
    pub fn paper_scale() -> Self {
        Self {
            n_countries: 40,
            ases_per_country: 5,
            n_relays: 30,
            horizon_days: 56,
            bounce_candidates: 8,
            transit_candidates: 8,
        }
    }
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        let t = WorldConfig::tiny();
        let s = WorldConfig::small();
        let p = WorldConfig::paper_scale();
        assert!(t.n_countries < s.n_countries && s.n_countries < p.n_countries);
        assert!(t.n_relays < s.n_relays && s.n_relays < p.n_relays);
    }

    #[test]
    fn presets_fit_catalogs() {
        let p = WorldConfig::paper_scale();
        assert!(p.n_countries <= crate::catalog::COUNTRIES.len());
        assert!(p.n_relays <= crate::catalog::SITES.len());
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = WorldConfig::paper_scale();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: WorldConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
