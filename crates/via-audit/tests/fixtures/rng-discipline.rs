// audit-fixture: kind=sim
//! `rng-discipline` corpus: constant seeds, xor splitting, RNG clones.

pub fn positive_constant_seed() -> StdRng {
    StdRng::seed_from_u64(42)
}

pub fn positive_xor_split(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9e37_79b9)
}

pub fn positive_clone(rng: &mut StdRng) -> StdRng {
    rng.clone()
}

pub fn suppressed() -> StdRng {
    // Golden-fixture generator: the constant IS the fixture identity, and
    // the stream is consumed whole by exactly one caller.
    // via-audit: allow(rng-discipline)
    StdRng::seed_from_u64(7)
}

pub fn clean(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed::derive(seed, "fixture-stream"))
}
