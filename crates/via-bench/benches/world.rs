//! Benchmarks of the synthetic-world substrate: generation, path sampling
//! throughput (the inner loop of every replay), and candidate enumeration.

// Bench setup code: criterion closures fight `semicolon_if_nothing_returned`,
// and panicking on a malformed fixture is the right behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![allow(clippy::semicolon_if_nothing_returned)]

use criterion::{criterion_group, criterion_main, Criterion};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::hint::black_box;
use via_model::options::RelayOption;
use via_model::time::SimTime;
use via_netsim::{CandidateScratch, World, WorldConfig};

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("world_generate");
    g.sample_size(10);
    for (label, cfg) in [
        ("tiny", WorldConfig::tiny()),
        ("small", WorldConfig::small()),
        ("paper", WorldConfig::paper_scale()),
    ] {
        g.bench_function(label, |b| b.iter(|| World::generate(black_box(&cfg), 7)));
    }
    g.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let world = World::generate(&WorldConfig::small(), 7);
    let n_ases = world.ases.len() as u32;
    let mut rng = StdRng::seed_from_u64(1);

    c.bench_function("sample_direct_path", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % n_ases;
            let src = via_model::AsId(i);
            let dst = via_model::AsId((i * 7 + 3) % n_ases);
            world.perf().sample_option(
                src,
                dst,
                RelayOption::Direct,
                SimTime::from_hours(u64::from(i % 480)),
                &mut rng,
            )
        })
    });

    c.bench_function("sample_transit_path", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % n_ases;
            let src = via_model::AsId(i);
            let dst = via_model::AsId((i * 7 + 3) % n_ases);
            world.perf().sample_option(
                src,
                dst,
                RelayOption::Transit(via_model::RelayId(i % 12), via_model::RelayId((i + 5) % 12)),
                SimTime::from_hours(u64::from(i % 480)),
                &mut rng,
            )
        })
    });
}

/// Candidate enumeration at the engine's own call shape (reused scratch and
/// output buffer). `paper` is the one to watch: its 30-relay fleet is what
/// the replay benchmark runs, and the cost the 6-relay `tiny` world hides.
fn bench_candidates(c: &mut Criterion) {
    let mut g = c.benchmark_group("candidate_options");
    for (label, cfg) in [
        ("tiny", WorldConfig::tiny()),
        ("paper", WorldConfig::paper_scale()),
    ] {
        let world = World::generate(&cfg, 7);
        let n_ases = world.ases.len() as u32;
        let mut scratch = CandidateScratch::default();
        let mut options = Vec::new();
        g.bench_function(label, |b| {
            let mut i = 0u32;
            b.iter(|| {
                i = (i + 1) % n_ases;
                world.candidate_options_into(
                    via_model::AsId(i),
                    via_model::AsId(black_box((i * 13 + 1) % n_ases)),
                    &mut scratch,
                    &mut options,
                );
                options.len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_generation, bench_sampling, bench_candidates);
criterion_main!(benches);
