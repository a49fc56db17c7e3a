//! Differential proptests: the `K = 1` multi-pair path must be **bitwise
//! identical** to the single-pair `Evaluator` it generalises.
//!
//! The multi-pair evaluator blocks the flattened `point × pair` network
//! list over per-worker [`SolveCtx`]s and nests per-pair fade streams
//! into the seeding policy; the single-pair evaluator predates all of
//! that. For one pair the two *must* collapse to the same arithmetic —
//! same solver dispatch (kernel vs warm simplex), same seed streams,
//! same fade-drawing order — so every result is compared here down to
//! the bit pattern (`f64::to_bits`, stricter than `==`, which would
//! accept `-0.0 == 0.0`), across random grids, power splits, fading
//! models, bound sides and worker counts {1, 4}.

use bcc::prelude::*;
use proptest::prelude::*;

/// Bit-pattern equality for solution components.
fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{what}: {a:.17e} vs {b:.17e} differ bitwise"
    );
}

fn random_net(p: (f64, f64, f64), g: (f64, f64, f64)) -> GaussianNetwork {
    GaussianNetwork::with_powers(
        PowerSplit::new(p.0, p.1, p.2),
        ChannelState::new(g.0, g.1, g.2),
    )
}

/// The single-pair scenario and its K = 1 multi-pair twin over the same
/// `(x, network)` grid.
fn twin_scenarios(
    grid: &[(f64, GaussianNetwork)],
    bound: Bound,
    threads: usize,
) -> (Evaluator, MultiPairEvaluator) {
    let single = Scenario::networks("x", grid.iter().copied())
        .bound(bound)
        .threads(threads)
        .build();
    let multi = Scenario::pairs(
        "x",
        grid.iter().map(|&(x, net)| (x, PairSet::new(vec![net]))),
    )
    .bound(bound)
    .threads(threads)
    .build();
    (single, multi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn k1_sweep_is_bitwise_identical_to_single_pair(
        base_p in (0.1f64..30.0, 0.1f64..30.0, 0.1f64..30.0),
        g in (0.01f64..10.0, 0.01f64..10.0, 0.01f64..10.0),
        scale in 1.1f64..8.0,
        npoints in 2usize..5,
        outer_pick in 0usize..2,
    ) {
        let bound = if outer_pick == 1 { Bound::Outer } else { Bound::Inner };
        let grid: Vec<(f64, GaussianNetwork)> = (0..npoints)
            .map(|i| {
                let f = scale.powi(i as i32);
                (i as f64, random_net((base_p.0 * f, base_p.1 * f, base_p.2 * f), g))
            })
            .collect();
        for threads in [1usize, 4] {
            let (mut single, mut multi) = twin_scenarios(&grid, bound, threads);
            let sweep = single.sweep().unwrap();
            let msweep = multi.sweep().unwrap();
            prop_assert_eq!(msweep.num_pairs(), 1);
            for proto in Protocol::ALL {
                let series = &sweep.series(proto).unwrap().solutions;
                for (i, sol) in series.iter().enumerate() {
                    let m = &msweep.solution(proto, i, 0).sum;
                    assert_bits(m.sum_rate, sol.sum_rate, "sum_rate");
                    assert_bits(m.ra, sol.ra, "ra");
                    assert_bits(m.rb, sol.rb, "rb");
                    prop_assert_eq!(m.durations.len(), sol.durations.len());
                    for (l, (&a, &b)) in m.durations.iter().zip(sol.durations.iter()).enumerate() {
                        assert_bits(a, b, &format!("duration {l}"));
                    }
                    // Both schedules degenerate to the pair's own rate.
                    for schedule in SCHEDULES {
                        assert_bits(
                            msweep.sum_rate(proto, i, schedule),
                            sol.sum_rate,
                            "K=1 schedule aggregate",
                        );
                    }
                    // The K = 1 fair aggregates coincide with each other
                    // (and with the pair's max-min rate) exactly.
                    assert_bits(
                        msweep.fair_rate(proto, i, Schedule::Joint),
                        msweep.fair_rate(proto, i, Schedule::TimeShare),
                        "K=1 fair aggregate",
                    );
                }
            }
        }
    }

    #[test]
    fn k1_outage_is_bitwise_identical_to_single_pair(
        p in (0.1f64..30.0, 0.1f64..30.0, 0.1f64..30.0),
        g in (0.01f64..10.0, 0.01f64..10.0, 0.01f64..10.0),
        seed in 0u64..0xFFFF_FFFF,
        trials in 5usize..40,
        npoints in 1usize..3,
        model_pick in 0usize..3,
    ) {
        let model = match model_pick {
            0 => FadingModel::None,
            1 => FadingModel::Rayleigh,
            _ => FadingModel::Nakagami { m: 2.5 },
        };
        let grid: Vec<(f64, GaussianNetwork)> = (0..npoints)
            .map(|i| (i as f64, random_net(p, (g.0 + i as f64, g.1, g.2))))
            .collect();
        for threads in [1usize, 4] {
            let single = Scenario::networks("x", grid.iter().copied())
                .fading(model, trials, seed)
                .threads(threads)
                .build()
                .outage()
                .unwrap();
            let multi = Scenario::pairs(
                "x",
                grid.iter().map(|&(x, net)| (x, PairSet::new(vec![net]))),
            )
            .fading(model, trials, seed)
            .threads(threads)
            .build()
            .outage()
            .unwrap();
            for proto in Protocol::ALL {
                for i in 0..grid.len() {
                    let a = single.samples(proto, i);
                    let b = multi.samples(proto, i, 0);
                    prop_assert_eq!(a.len(), b.len());
                    for (t, (&x, &y)) in a.iter().zip(b).enumerate() {
                        assert_bits(y, x, &format!("{proto} point {i} trial {t}"));
                    }
                }
            }
        }
    }
}

/// The reduction also holds through the *simulator-side* multi-pair
/// path: `K = 1` `multi_pair_samples` equals the classic single-pair
/// sample stream bit for bit (non-random pin at the canonical network;
/// the stream nesting has no randomness to hide behind).
#[test]
fn k1_sim_path_reduces_to_classic_stream() {
    let net = GaussianNetwork::from_db(Db::new(10.0), Db::new(-7.0), Db::new(0.0), Db::new(5.0));
    let cfg = McConfig::new(80, 0xDEC0DE);
    for proto in Protocol::ALL {
        let classic = bcc::sim::ergodic::sum_rate_samples(&net, proto, FadingModel::Rayleigh, &cfg);
        let multi = bcc::sim::multipair::multi_pair_samples(
            &PairSet::new(vec![net]),
            proto,
            FadingModel::Rayleigh,
            &cfg,
        );
        assert_eq!(multi.len(), 1);
        for (t, (&a, &b)) in classic.iter().zip(&multi[0]).enumerate() {
            assert_bits(b, a, &format!("{proto} trial {t}"));
        }
    }
}
