//! Microbenchmarks of the per-call selection path: the pair-arms build and
//! decide, the modified UCB1 bandit, the budget gate, and the streaming
//! quantile estimator. These bound the controller's per-call overhead (§7
//! discusses controller scalability).

// Bench setup code: panicking on a malformed fixture is the right behavior,
// and criterion's closure style fights `semicolon_if_nothing_returned`.
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![allow(clippy::semicolon_if_nothing_returned)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::hint::black_box;
use via_core::bandit::UcbBandit;
use via_core::budget::BudgetGate;
use via_core::selector::{ArmsScratch, PairArms, Plan};
use via_core::strategy::StrategyKind;
use via_core::tomography::{linearize, linearize_sem};
use via_core::{Prediction, PredictionSource};
use via_model::ids::RelayId;
use via_model::metrics::Metric;
use via_model::options::RelayOption;
use via_model::stats::P2Quantile;

/// Prediction for relay `i` of `n`: means spread over 50–400 ms with
/// overlapping confidence intervals, so the closure keeps several arms.
fn predictions(n: u32, seed: u64) -> Vec<Prediction> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mean: f64 = rng.random_range(50.0..400.0);
            let sem: f64 = rng.random_range(2.0..30.0);
            let mut lin_mean = [0.0; 3];
            let mut lin_sem = [0.0; 3];
            for (i, &m) in Metric::ALL.iter().enumerate() {
                lin_mean[i] = linearize(m, mean);
                lin_sem[i] = linearize_sem(m, mean, sem);
            }
            Prediction::from_linear(lin_mean, lin_sem, PredictionSource::Empirical(10))
        })
        .collect()
}

/// The per-(pair, window) build (score → top-k closure → warm bandit) and
/// the per-call decide, through the one constructor replay and the server
/// run.
fn bench_arms(c: &mut Criterion) {
    let mut g = c.benchmark_group("arms");
    let plan = Plan::from(StrategyKind::Via);
    for n in [8u32, 17, 64] {
        let preds = predictions(n, 7);
        let options: Vec<RelayOption> = (0..n).map(|i| RelayOption::Bounce(RelayId(i))).collect();
        let predict = |o: RelayOption| match o {
            RelayOption::Bounce(r) => preds[r.index()],
            _ => preds[0],
        };
        let mut scratch = ArmsScratch::default();
        g.bench_function(format!("build_{n}_options"), |b| {
            b.iter(|| {
                PairArms::build(
                    &plan,
                    predict,
                    black_box(&options),
                    Metric::Rtt,
                    &mut scratch,
                )
            })
        });
        let arms = PairArms::build(&plan, predict, &options, Metric::Rtt, &mut scratch);
        let mut set = Vec::new();
        let mut call = 0u64;
        g.bench_function(format!("decide_{n}_options"), |b| {
            b.iter(|| {
                call += 1;
                black_box(&arms).decide(
                    &plan,
                    false,
                    0.03,
                    || StdRng::seed_from_u64(call),
                    || &options[..],
                    &mut set,
                )
            })
        });
    }
    g.finish();
}

fn bench_bandit(c: &mut Criterion) {
    let mut g = c.benchmark_group("bandit");
    let options: Vec<RelayOption> = (0..8).map(|i| RelayOption::Bounce(RelayId(i))).collect();

    g.bench_function("choose_8_arms", |b| {
        let mut bandit = UcbBandit::new(options.clone(), 200.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let o = bandit.choose().unwrap();
            bandit.update(o, rng.random_range(50.0..300.0));
        }
        b.iter(|| black_box(&bandit).choose())
    });

    g.bench_function("choose_update_cycle", |b| {
        b.iter_batched(
            || UcbBandit::with_priors(options.iter().map(|&o| (o, 150.0)), 200.0, 3),
            |mut bandit| {
                for _ in 0..64 {
                    let o = bandit.choose().unwrap();
                    bandit.update(o, 120.0);
                }
                bandit
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_budget(c: &mut Criterion) {
    c.bench_function("budget_gate_admit", |b| {
        let mut gate = BudgetGate::new(0.3);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5_000 {
            gate.admit(rng.random_range(0.0..100.0));
        }
        let mut x = 0.0;
        b.iter(|| {
            x += 1.0;
            gate.admit(black_box(x % 100.0))
        })
    });
}

fn bench_p2(c: &mut Criterion) {
    c.bench_function("p2_quantile_push", |b| {
        let mut q = P2Quantile::new(0.7);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1_000 {
            q.push(rng.random::<f64>());
        }
        let mut x = 0.0f64;
        b.iter(|| {
            x = (x + 0.37) % 1.0;
            q.push(black_box(x));
        })
    });
}

criterion_group!(benches, bench_arms, bench_bandit, bench_budget, bench_p2);
criterion_main!(benches);
