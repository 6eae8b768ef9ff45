//! Fleet-wide monitoring tick throughput: the SoA `CostMatrix` kernel
//! vs the seed per-pair `PairwiseCostMatrix`, at n ∈ {64, 256, 1024,
//! 4096} VMs (the seed path is skipped at 4096 where its ~640 B/pair
//! footprint makes construction alone take seconds).

use cavm_core::corr::baseline::PairwiseCostMatrix;
use cavm_core::corr::CostMatrix;
use cavm_trace::{Reference, SimRng};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn sample(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::new(seed);
    (0..n).map(|_| rng.f64() * 4.0).collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("matrix_tick");
    for n in [64usize, 256, 1024, 4096] {
        let utils = sample(n, n as u64);

        let mut soa = CostMatrix::new(n, Reference::Peak).expect("valid size");
        group.bench_with_input(BenchmarkId::new("soa_peak", n), &n, |b, _| {
            b.iter(|| {
                soa.push_sample(black_box(&utils)).expect("matching width");
                black_box(soa.samples())
            })
        });

        let mut soa_p95 = CostMatrix::new(n, Reference::Percentile(95.0)).expect("valid size");
        group.bench_with_input(BenchmarkId::new("soa_p95", n), &n, |b, _| {
            b.iter(|| {
                soa_p95
                    .push_sample(black_box(&utils))
                    .expect("matching width");
                black_box(soa_p95.samples())
            })
        });

        if n <= 1024 {
            let mut seed = PairwiseCostMatrix::new(n, Reference::Peak).expect("valid size");
            group.bench_with_input(BenchmarkId::new("seed_peak", n), &n, |b, _| {
                b.iter(|| {
                    seed.push_sample(black_box(&utils)).expect("matching width");
                    black_box(seed.samples())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
