// audit-fixture: kind=
//! `nan-cmp` corpus: NaN-unsafe float comparisons (applies to every crate).

pub fn positive(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

pub fn suppressed(xs: &mut [f64]) {
    // Inputs are clamped percentiles in [0, 100]; a NaN here means the
    // clamp upstream is broken and panicking is the right response.
    // via-audit: allow(nan-cmp)
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

pub fn clean(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.total_cmp(b));
}
