// audit-fixture: kind=sim,lib
//! `stale-suppression` corpus: the audit of the directives themselves.

// Stale: the entropy draw this once covered was reseeded long ago.
// via-audit: allow(nondeterminism)
pub fn positive_stale(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed::derive(seed, "fixture"));
    rng.random()
}

// Unknown lint name (typo'd): nothing can ever match it.
// via-audit: allow(nondeterminsm)
pub fn positive_unknown(x: Option<u32>) -> u32 {
    x.map_or(0, |v| v)
}

pub fn positive_bare() -> u64 {
    // via-audit: allow(nondeterminism)
    let mut rng = rand::thread_rng();
    rng.random()
}

pub fn clean_justified() -> u8 {
    // Log-color jitter only: this stream never feeds recorded results,
    // and the palette resets every run.
    // via-audit: allow(nondeterminism)
    let mut palette = rand::thread_rng();
    palette.random()
}
