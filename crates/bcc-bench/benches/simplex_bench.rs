//! Criterion benchmarks of the LP substrate itself: solve time versus
//! problem size for random dense feasible programs.

use bcc_lp::{Problem, Relation};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_problem(vars: usize, rows: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let obj: Vec<f64> = (0..vars).map(|_| rng.gen_range(0.1..2.0)).collect();
    let mut p = Problem::maximize(&obj);
    for _ in 0..rows {
        let coeffs: Vec<f64> = (0..vars).map(|_| rng.gen_range(0.05..1.0)).collect();
        p.subject_to(&coeffs, Relation::Le, rng.gen_range(1.0..10.0));
    }
    p
}

fn bench_simplex_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_random_dense");
    for &(vars, rows) in &[(4usize, 6usize), (8, 12), (16, 24), (32, 48)] {
        let p = random_problem(vars, rows, 42);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{vars}v_{rows}c")),
            &p,
            |b, p| b.iter(|| black_box(p.solve().unwrap().objective)),
        );
    }
    group.finish();
}

fn bench_two_phase(c: &mut Criterion) {
    // Equality rows force a phase-1 pass — the paper's LPs all have one.
    let mut p = random_problem(8, 10, 7);
    p.subject_to(&[1.0; 8], Relation::Eq, 1.0);
    c.bench_function("simplex_with_equality_row", |b| {
        b.iter(|| black_box(p.solve().unwrap().objective))
    });
}

criterion_group!(
    benches,
    bench_simplex_scaling,
    bench_two_phase,
    bench_warm_vs_cold,
    bench_reusable_rebuild,
    bench_kernel_vs_simplex,
    bench_block_vs_scalar
);
criterion_main!(benches);

fn bench_warm_vs_cold(c: &mut Criterion) {
    // The sweep-shaped LP of the workspace hot loop: same structure every
    // solve, drifting coefficients. Warm starts should price the previous
    // basis instead of pivoting from scratch.
    let mk = |k: usize| {
        let t = 1.0 + 1e-4 * k as f64;
        let mut p = Problem::maximize(&[1.0, 1.0, 0.0, 0.0]);
        p.subject_to(&[1.0, 0.0, -1.9 * t, 0.0], Relation::Le, 0.0);
        p.subject_to(&[1.0, 0.0, 0.0, -0.8 * t], Relation::Le, 0.0);
        p.subject_to(&[0.0, 1.0, -1.1 * t, 0.0], Relation::Le, 0.0);
        p.subject_to(&[0.0, 1.0, 0.0, -2.3 * t], Relation::Le, 0.0);
        p.subject_to(&[0.0, 0.0, 1.0, 1.0], Relation::Le, 1.0);
        p
    };
    let problems: Vec<Problem> = (0..64).map(mk).collect();
    c.bench_function("sweep_shaped_sequence/cold", |b| {
        let mut ws = bcc_lp::Workspace::new();
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % problems.len();
            black_box(problems[k].solve_with(&mut ws).unwrap().objective)
        })
    });
    c.bench_function("sweep_shaped_sequence/warm", |b| {
        let mut ws = bcc_lp::Workspace::new();
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % problems.len();
            black_box(problems[k].solve_warm_with(&mut ws).unwrap().objective)
        })
    });
}

fn bench_reusable_rebuild(c: &mut Criterion) {
    // Problem::reset + pooled subject_to: the zero-allocation rebuild path
    // measured against building a fresh Problem each time.
    let obj = [1.0, 1.0, 0.0, 0.0];
    let rows: [[f64; 4]; 5] = [
        [1.0, 0.0, -1.9, 0.0],
        [1.0, 0.0, 0.0, -0.8],
        [0.0, 1.0, -1.1, 0.0],
        [0.0, 1.0, 0.0, -2.3],
        [0.0, 0.0, 1.0, 1.0],
    ];
    c.bench_function("problem_rebuild/fresh", |b| {
        b.iter(|| {
            let mut p = Problem::maximize(&obj);
            for r in &rows {
                p.subject_to(r, Relation::Le, 1.0);
            }
            black_box(p.num_constraints())
        })
    });
    c.bench_function("problem_rebuild/reset_pooled", |b| {
        let mut p = Problem::maximize(&obj);
        b.iter(|| {
            p.reset(bcc_lp::Sense::Maximize, &obj);
            for r in &rows {
                p.subject_to(r, Relation::Le, 1.0);
            }
            black_box(p.num_constraints())
        })
    });
}

fn bench_block_vs_scalar(c: &mut Criterion) {
    // The SoA lane kernels against a per-point scalar loop over the same
    // 1024-point grid — the measured gap is what `SolveCtx::solve_block`
    // buys the blocked sweep paths per grid point. Output is bit-identical
    // either way (pinned by the batch_differential suite); only the
    // instruction mix differs.
    use bcc_core::kernel;
    use bcc_core::prelude::*;

    let nets: Vec<GaussianNetwork> = (0..1024)
        .map(|k| {
            let p = 1.0 + 40.0 * (k as f64 / 1024.0);
            GaussianNetwork::with_powers(
                PowerSplit::new(p, p, 0.5 * p),
                ChannelState::new(1.0, 1.0 + (k % 7) as f64, 1.0 + (k % 11) as f64),
            )
        })
        .collect();
    let mut block = PointBlock::new();
    for n in &nets {
        block.push_net(n);
    }
    block.compute_caps();

    let mut group = c.benchmark_group("sum_rate_1024pt");
    for proto in Protocol::ALL {
        let name = format!("{proto:?}").to_lowercase();
        group.bench_with_input(BenchmarkId::new("block", &name), &proto, |b, &proto| {
            let mut ctx = SolveCtx::new();
            let mut sums = Vec::with_capacity(nets.len());
            b.iter(|| {
                sums.clear();
                ctx.solve_block(&block, SolveRequest::sum_rate(proto), &mut sums)
                    .unwrap();
                black_box(sums.last().unwrap().value)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("scalar_loop", &name),
            &proto,
            |b, &proto| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for n in &nets {
                        acc += kernel::max_sum_rate(n, proto).sum_rate;
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.finish();
}

fn bench_kernel_vs_simplex(c: &mut Criterion) {
    // The same sum-rate queries answered by the closed-form kernel and by
    // the general simplex — the measured gap is what the automatic
    // dispatch in `SolveCtx::solve_one` buys per grid point.
    use bcc_core::prelude::*;
    use bcc_core::{kernel, optimizer};
    let net = GaussianNetwork::from_db(
        bcc_num::Db::new(15.0),
        bcc_num::Db::new(0.0),
        bcc_num::Db::new(10.0),
        bcc_num::Db::new(10.0),
    );
    for proto in [Protocol::Mabc, Protocol::Tdbc] {
        let name = format!("{proto:?}").to_lowercase();
        c.bench_function(&format!("sum_rate_kernel/{name}"), |b| {
            b.iter(|| black_box(kernel::max_sum_rate(&net, proto).sum_rate))
        });
        let set = net.constraint_sets(proto, Bound::Inner).remove(0);
        c.bench_function(&format!("sum_rate_simplex/{name}"), |b| {
            let mut ws = bcc_lp::Workspace::new();
            b.iter(|| {
                black_box(
                    optimizer::max_sum_rate_with(&set, &mut ws)
                        .unwrap()
                        .objective,
                )
            })
        });
    }
}
