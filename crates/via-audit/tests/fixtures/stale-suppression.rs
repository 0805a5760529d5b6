// audit-fixture: kind=sim
//! `stale-suppression` corpus: the audit of the directives themselves.

// Stale: the constant seed this once covered was derived long ago.
// via-audit: allow(rng-discipline)
pub fn positive_stale(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed::derive(seed, "fixture"));
    rng.random()
}

// Unknown lint name (typo'd): nothing can ever match it.
// via-audit: allow(rng-disciplin)
pub fn positive_unknown(x: Option<u32>) -> u32 {
    x.map_or(0, |v| v)
}

pub fn positive_bare() -> u64 {
    // via-audit: allow(rng-discipline)
    let mut rng = StdRng::seed_from_u64(42);
    rng.random()
}

pub fn clean_justified() -> u8 {
    // Golden-fixture generator: the constant IS the fixture identity, and
    // the stream is consumed whole by exactly one caller.
    // via-audit: allow(rng-discipline)
    let mut fixture = StdRng::seed_from_u64(7);
    fixture.random()
}
