//! Criterion benchmarks of the rate-region machinery: per-protocol
//! closed-form optimal sum rates (the Fig. 3 inner loop; the group keeps
//! its `sum_rate_lp` id), full boundary traces (the Fig. 4 inner loop),
//! and the batched `Scenario` sweep against the naive per-point loop it
//! replaced.

use bcc_bench::fig4_network;
use bcc_core::protocol::{Bound, Protocol};
use bcc_core::scenario::Scenario;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_sum_rate(c: &mut Criterion) {
    let net = fig4_network(10.0);
    let mut group = c.benchmark_group("sum_rate_lp");
    for proto in Protocol::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(proto.name()),
            &proto,
            |b, &p| b.iter(|| black_box(net.max_sum_rate(p).unwrap().sum_rate)),
        );
    }
    group.finish();
}

fn bench_boundary(c: &mut Criterion) {
    let net = fig4_network(10.0);
    let mut group = c.benchmark_group("region_boundary_32pts");
    group.sample_size(20);
    for proto in [Protocol::Mabc, Protocol::Tdbc, Protocol::Hbc] {
        let region = net.region(proto, Bound::Inner);
        group.bench_with_input(
            BenchmarkId::from_parameter(proto.name()),
            &region,
            |b, r| b.iter(|| black_box(r.boundary(32).unwrap().len())),
        );
    }
    group.finish();
}

fn bench_membership(c: &mut Criterion) {
    let net = fig4_network(10.0);
    let hbc = net.region(Protocol::Hbc, Bound::Inner);
    c.bench_function("region_contains_hbc", |b| {
        b.iter(|| black_box(hbc.contains(0.8, 0.9)))
    });
}

fn bench_batched_sweep(c: &mut Criterion) {
    // The Fig. 3 inner loop both ways: the batch evaluator (SoA lane
    // kernels over the whole grid) versus fresh per-point evaluation.
    let net = fig4_network(0.0);
    let powers: Vec<f64> = (-10..=25).map(f64::from).collect();
    let mut group = c.benchmark_group("power_sweep_36pts");
    group.bench_with_input(BenchmarkId::from_parameter("batched"), &powers, |b, ps| {
        b.iter(|| {
            let sweep = Scenario::power_sweep_db(net, ps.iter().copied())
                .build()
                .sweep()
                .unwrap();
            black_box(sweep.winners().len())
        })
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("per_point"),
        &powers,
        |b, ps| {
            b.iter(|| {
                let mut n = 0usize;
                for &p_db in ps {
                    let point = net.with_power_db(bcc_num::Db::new(p_db));
                    for proto in Protocol::ALL {
                        black_box(point.max_sum_rate(proto).unwrap().sum_rate);
                    }
                    n += 1;
                }
                black_box(n)
            })
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_sum_rate,
    bench_boundary,
    bench_membership,
    bench_batched_sweep
);
criterion_main!(benches);
