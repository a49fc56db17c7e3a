//! Batched-vs-scalar differential suite: the SoA lane kernels behind
//! `PointBlock` / `SolveCtx::solve_block` and the blocked `Evaluator`
//! fast paths must be **bitwise identical** to per-point scalar solves —
//! on random grids, under both bound families, with and without fading,
//! across power splits, and at any block size or worker count.
//!
//! The contract under test is strict `to_bits()` equality, not an
//! epsilon: every lane kernel is the scalar closed form instantiated at
//! lane width M, evaluating the same operations in the same order, so
//! agreement must be exact. An epsilon here would let a silent kernel
//! rewrite drift the published figures.
//!
//! Thread discipline: each property re-runs its scenario at 1 and 4
//! in-process workers and asserts bit-identity; the CI matrix runs this
//! whole suite under `BCC_THREADS=1` and `BCC_THREADS=4`, certifying the
//! ambient-threaded path too.

use bcc::prelude::*;
use bcc_core::kernel;
use proptest::collection::vec;
use proptest::prelude::*;

/// A random operating point: per-node powers and link gains spanning
/// dead links, near-degenerate and strongly asymmetric geometries.
fn arb_net() -> impl Strategy<Value = GaussianNetwork> {
    (
        (0.0f64..40.0, 0.0f64..40.0, 0.0f64..40.0),
        (0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0),
    )
        .prop_map(|((pa, pb, pr), (gab, gar, gbr))| {
            GaussianNetwork::with_powers(
                PowerSplit::new(pa, pb, pr),
                ChannelState::new(gab, gar, gbr),
            )
        })
}

/// The bits of each phase duration: `PhaseVec`'s `==` is `f64` `==`, which
/// calls −0.0 and +0.0 equal.
fn duration_bits(d: &PhaseVec) -> Vec<u64> {
    d.iter().map(|x| x.to_bits()).collect()
}

fn scenario_of(nets: &[GaussianNetwork], bound: Bound) -> Scenario {
    Scenario::networks(
        "grid index",
        nets.iter().enumerate().map(|(i, &n)| (i as f64, n)),
    )
    .bound(bound)
}

fn sweep_bits(sweep: &SweepResult) -> Vec<(u64, u64, u64)> {
    let mut bits = Vec::new();
    for &p in sweep.protocols() {
        let series = sweep.series(p).expect("series present");
        for sol in &series.solutions {
            bits.push((sol.sum_rate.to_bits(), sol.ra.to_bits(), sol.rb.to_bits()));
        }
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `solve_block` against per-point `solve_one`, both objectives and
    /// both bound families, on a hand-built block — the kernel-level
    /// contract, free of any evaluator plumbing. Outer-bound requests
    /// exercise `solve_block`'s per-point fallback, which the multi-pair
    /// outer sweep runs on.
    #[test]
    fn solve_block_is_bitwise_equal_to_solve_one(
        nets in vec(arb_net(), 1..23),
    ) {
        let mut block = PointBlock::new();
        for n in &nets {
            block.push_net(n);
        }
        block.compute_caps();

        let mut ctx = SolveCtx::new();
        let mut out = Vec::new();
        for proto in Protocol::ALL {
            for objective in [Objective::SumRate, Objective::MaxMin] {
                for bound in [Bound::Inner, Bound::Outer] {
                    let req = match objective {
                        Objective::SumRate => SolveRequest::sum_rate(proto),
                        Objective::MaxMin => SolveRequest::max_min(proto),
                    }
                    .with_bound(bound);
                    out.clear();
                    ctx.solve_block(&block, req, &mut out).unwrap();
                    prop_assert_eq!(out.len(), nets.len());
                    for (n, got) in nets.iter().zip(&out) {
                        let want = ctx.solve_one(n, req).unwrap();
                        prop_assert_eq!(got.value.to_bits(), want.value.to_bits(),
                            "{proto} {objective:?} {bound:?} value");
                        prop_assert_eq!(got.ra.to_bits(), want.ra.to_bits(),
                            "{proto} {objective:?} {bound:?} ra");
                        prop_assert_eq!(got.rb.to_bits(), want.rb.to_bits(),
                            "{proto} {objective:?} {bound:?} rb");
                        prop_assert_eq!(
                            duration_bits(&got.durations), duration_bits(&want.durations),
                            "{proto} {objective:?} {bound:?} durations");
                    }
                }
            }
        }
    }

    /// The blocked sweep fast path against the per-point scalar kernel,
    /// under both bound families, at adversarial block sizes (1 = every
    /// point a tail, 5 = never a whole number of lanes, 1024 = one
    /// block) and 1 vs 4 workers.
    #[test]
    fn sweep_is_block_size_and_thread_invariant(
        nets in vec(arb_net(), 1..17),
        bound_outer in 0u8..2,
    ) {
        let bound = if bound_outer == 1 { Bound::Outer } else { Bound::Inner };

        // Scalar reference: solve_one per (point, protocol).
        let mut ctx = SolveCtx::new();
        let mut want = Vec::new();
        for &proto in Protocol::ALL.iter() {
            for n in &nets {
                let req = SolveRequest::sum_rate(proto).with_bound(bound);
                let sol = ctx.solve_one(n, req).unwrap();
                want.push((sol.value.to_bits(), sol.ra.to_bits(), sol.rb.to_bits()));
            }
        }

        for block_size in [1usize, 5, 1024] {
            for threads in [1usize, 4] {
                let sweep = scenario_of(&nets, bound)
                    .block_size(block_size)
                    .threads(threads)
                    .build()
                    .sweep()
                    .unwrap();
                prop_assert_eq!(
                    &sweep_bits(&sweep), &want,
                    "bound {:?}, block {}, threads {}", bound, block_size, threads
                );
            }
        }
    }

    /// The blocked Monte-Carlo fading path: outage samples must be
    /// bit-identical at any block size and worker count (per-trial RNG
    /// streams make each draw independent of its blockmates).
    #[test]
    fn outage_is_block_size_and_thread_invariant(
        nets in vec(arb_net(), 1..5),
        seed in 0u64..u64::MAX,
    ) {
        let run = |block_size: usize, threads: usize| {
            scenario_of(&nets, Bound::Inner)
                .rayleigh(64, seed)
                .block_size(block_size)
                .threads(threads)
                .build()
                .outage()
                .unwrap()
        };
        let reference = run(1, 1);
        for (block_size, threads) in [(1, 4), (7, 1), (7, 4), (1024, 1), (1024, 4)] {
            prop_assert_eq!(
                &run(block_size, threads), &reference,
                "block {}, threads {}", block_size, threads
            );
        }
    }

    /// The closed-form block path (`SolveCtx::solve_block` on batchable
    /// requests) against the public scalar kernel entry points, which
    /// decline exactly the requests that are not batchable.
    #[test]
    fn block_kernels_match_scalar_kernels(nets in vec(arb_net(), 1..13)) {
        let mut block = PointBlock::new();
        for n in &nets {
            block.push_net(n);
        }
        block.compute_caps();
        let mut ctx = SolveCtx::new();
        let mut out = Vec::new();
        for proto in Protocol::ALL {
            out.clear();
            ctx.solve_block(&block, SolveRequest::sum_rate(proto), &mut out).unwrap();
            for (n, got) in nets.iter().zip(&out) {
                let want = kernel::max_sum_rate(n, proto);
                prop_assert_eq!(got.value.to_bits(), want.sum_rate.to_bits(), "{proto}");
                prop_assert_eq!(got.ra.to_bits(), want.ra.to_bits(), "{proto}");
                prop_assert_eq!(got.rb.to_bits(), want.rb.to_bits(), "{proto}");
                prop_assert_eq!(duration_bits(&got.durations), duration_bits(&want.durations),
                    "{proto}");
            }

            let req = SolveRequest::max_min(proto);
            let covered = kernel::max_min_rate(&nets[0], proto).is_some();
            prop_assert_eq!(covered, req.is_batchable());
            if covered {
                out.clear();
                ctx.solve_block(&block, req, &mut out).unwrap();
                for (n, got) in nets.iter().zip(&out) {
                    let want = kernel::max_min_rate(n, proto).unwrap();
                    prop_assert_eq!(got.value.to_bits(), want.objective.to_bits(), "{proto}");
                    prop_assert_eq!(duration_bits(&got.durations), duration_bits(&want.durations),
                        "{proto}");
                }
            }
        }
    }
}

/// The multi-pair sweep (which blocks the flattened `point × pair` grid
/// internally) stays bit-identical across worker counts — deterministic
/// coverage for the K-pair blocked path on a fixed heterogeneous set.
#[test]
fn multipair_blocked_sweep_is_thread_invariant() {
    let pairs = PairSet::new(
        (0..3)
            .map(|i| {
                GaussianNetwork::with_powers(
                    PowerSplit::new(8.0 + f64::from(i), 10.0, 6.0),
                    ChannelState::new(0.2 * f64::from(i + 1), 1.0, 2.5 / f64::from(i + 1)),
                )
            })
            .collect(),
    );
    let run = |threads: usize| {
        MultiPairScenario::power_sweep_db(&pairs, (0..40).map(|k| f64::from(k) * 0.25))
            .threads(threads)
            .build()
            .sweep()
            .unwrap()
    };
    assert_eq!(
        run(1),
        run(4),
        "multi-pair blocked sweep not thread-invariant"
    );
}
