//! Property tests pinning the closed-form solve kernel against the
//! simplex oracle.
//!
//! The kernel (`bcc_core::kernel`) answers the hot-loop queries —
//! `max_sum_rate` for all four protocols and `max_min_rate` for
//! DT/MABC/TDBC — analytically, while `bcc_core::optimizer` keeps solving the same
//! programs through the general cold two-phase simplex. Over random
//! channel states and per-node power splits the two must agree:
//!
//! * objectives within 1e-9;
//! * the kernel's operating point is feasible and its durations form a
//!   probability vector;
//! * the kernel's point *binds* at least one constraint whenever its
//!   optimum is positive (an LP optimum always sits on the boundary);
//! * when both solvers land on the same vertex (unique optimum), their
//!   binding-constraint sets agree exactly.

use bcc_channel::{ChannelState, PowerSplit};
use bcc_core::bounds;
use bcc_core::kernel;
use bcc_core::optimizer::{self, SchedulePoint};
use bcc_core::prelude::*;
use proptest::prelude::*;

/// Binding labels of `point` in `set` at tolerance `tol`.
fn binding<'a>(set: &'a ConstraintSet, pt: &SchedulePoint, tol: f64) -> Vec<&'a str> {
    optimizer::binding_constraints(set, pt, tol)
}

fn as_point(sol: &bcc_core::gaussian::SumRateSolution) -> SchedulePoint {
    SchedulePoint {
        ra: sol.ra,
        rb: sol.rb,
        durations: sol.durations,
        objective: sol.sum_rate,
    }
}

/// Shared oracle check for one `(protocol, network)` sum-rate query.
fn check_sum_rate(net: &GaussianNetwork, protocol: Protocol) {
    let kernel_sol = kernel::max_sum_rate(net, protocol);
    let sets = bounds::constraint_sets_split(protocol, Bound::Inner, &net.powers(), &net.state());
    let set = &sets[0];
    let lp = optimizer::max_sum_rate(set).expect("oracle solvable");

    // Objective agreement.
    prop_assert!(
        (kernel_sol.sum_rate - lp.objective).abs() <= 1e-9 * (1.0 + lp.objective.abs()),
        "{protocol}: kernel {} vs simplex {}",
        kernel_sol.sum_rate,
        lp.objective
    );
    // Feasibility of the kernel's operating point.
    prop_assert!(
        set.all_satisfied(kernel_sol.ra, kernel_sol.rb, &kernel_sol.durations, 1e-8),
        "{protocol}: kernel point infeasible"
    );
    let total: f64 = kernel_sol.durations.iter().sum();
    prop_assert!((total - 1.0).abs() <= 1e-8, "durations sum {total}");
    prop_assert!(kernel_sol.durations.iter().all(|&d| d >= -1e-12));

    // A positive optimum must sit on the boundary: something binds.
    let kpt = as_point(&kernel_sol);
    if kernel_sol.sum_rate > 1e-6 {
        prop_assert!(
            !binding(set, &kpt, 1e-7).is_empty(),
            "{protocol}: positive optimum with no binding constraint"
        );
    }
    // Unique-vertex case: binding sets must agree exactly.
    let same_vertex = (kernel_sol.ra - lp.ra).abs() < 1e-7
        && (kernel_sol.rb - lp.rb).abs() < 1e-7
        && kernel_sol
            .durations
            .iter()
            .zip(lp.durations.iter())
            .all(|(a, b)| (a - b).abs() < 1e-7);
    if same_vertex {
        prop_assert_eq!(
            binding(set, &kpt, 1e-7),
            binding(set, &lp, 1e-7),
            "{} binding sets diverge at a shared vertex",
            protocol
        );
    }
}

/// Shared oracle check for one `(protocol, network)` max–min query.
fn check_max_min(net: &GaussianNetwork, protocol: Protocol) {
    let Some(kpt) = kernel::max_min_rate(net, protocol) else {
        return;
    };
    let sets = bounds::constraint_sets_split(protocol, Bound::Inner, &net.powers(), &net.state());
    let set = &sets[0];
    let lp = optimizer::max_min_rate(set).expect("oracle solvable");
    prop_assert!(
        (kpt.objective - lp.objective).abs() <= 1e-9 * (1.0 + lp.objective.abs()),
        "{protocol}: kernel max-min {} vs simplex {}",
        kpt.objective,
        lp.objective
    );
    prop_assert!(
        set.all_satisfied(kpt.ra, kpt.rb, &kpt.durations, 1e-8),
        "{protocol}: kernel max-min point infeasible"
    );
    let total: f64 = kpt.durations.iter().sum();
    prop_assert!((total - 1.0).abs() <= 1e-8);
    // The symmetric point must itself be achievable.
    prop_assert!(optimizer::is_achievable(
        set,
        (kpt.objective - 1e-9).max(0.0),
        (kpt.objective - 1e-9).max(0.0)
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn kernel_sum_rate_matches_simplex_oracle(
        p_a in 0.0f64..40.0,
        p_b in 0.0f64..40.0,
        p_r in 0.0f64..40.0,
        gab in 0.0f64..10.0,
        gar in 0.0f64..10.0,
        gbr in 0.0f64..10.0,
    ) {
        let net = GaussianNetwork::with_powers(
            PowerSplit::new(p_a, p_b, p_r),
            ChannelState::new(gab, gar, gbr),
        );
        for proto in Protocol::ALL {
            check_sum_rate(&net, proto);
        }
    }

    #[test]
    fn kernel_max_min_matches_simplex_oracle(
        p_a in 0.0f64..40.0,
        p_b in 0.0f64..40.0,
        p_r in 0.0f64..40.0,
        gab in 0.0f64..10.0,
        gar in 0.0f64..10.0,
        gbr in 0.0f64..10.0,
    ) {
        let net = GaussianNetwork::with_powers(
            PowerSplit::new(p_a, p_b, p_r),
            ChannelState::new(gab, gar, gbr),
        );
        for proto in Protocol::ALL {
            check_max_min(&net, proto);
        }
    }

    #[test]
    fn kernel_symmetric_networks(
        p in 0.0f64..60.0,
        g in 0.0f64..20.0,
        gab in 0.0f64..5.0,
    ) {
        // The fig3 shape: symmetric relay gains, where degenerate optima
        // (whole optimal faces) are the norm rather than the exception.
        let net = GaussianNetwork::new(p, ChannelState::new(gab, g, g));
        for proto in Protocol::ALL {
            check_sum_rate(&net, proto);
            check_max_min(&net, proto);
        }
    }
}

#[test]
fn kernel_handles_extreme_scales() {
    // Deterministic edge sweep outside proptest: huge/tiny capacities and
    // dead links must not break candidate enumeration.
    let cases = [
        (1e6, 1e-6, 1e6, 1e-6),
        (1e-9, 1e-9, 1e-9, 1e-9),
        (0.0, 1.0, 1.0, 0.0),
        (1e4, 1e4, 1e4, 1e4),
    ];
    for (p, gab, gar, gbr) in cases {
        let net = GaussianNetwork::new(p, ChannelState::new(gab, gar, gbr));
        for proto in Protocol::ALL {
            let k = kernel::max_sum_rate(&net, proto);
            let sets = net.constraint_sets(proto, Bound::Inner);
            let lp = optimizer::max_sum_rate(&sets[0]).expect("solvable");
            assert!(
                (k.sum_rate - lp.objective).abs() <= 1e-9 * (1.0 + lp.objective.abs()),
                "{proto} at p={p} gab={gab} gar={gar} gbr={gbr}: {} vs {}",
                k.sum_rate,
                lp.objective
            );
        }
    }
}
