//! Property test: the warm-start fast path is **semantics-free**.
//!
//! `Problem::solve_warm_with` must return exactly — bit for bit — what a
//! cold `Problem::solve_with` returns, for every problem in a sequence,
//! regardless of the warm history accumulated in the workspace. This is
//! the contract that lets the batch drivers warm-start inside a
//! work-stealing scheduler without giving up bit-identical results at
//! every worker count: a solve's answer may never depend on which
//! problems the workspace saw before it.
//!
//! The generated sequences mimic the workspace's real LPs — sum-rate and
//! max–min programs over drifting capacity coefficients — because those
//! are the shapes whose previous basis keeps being re-priced; shape
//! changes and occasional infeasible programs are mixed in to exercise
//! the fallback paths.

use bcc_lp::{Problem, Relation, Workspace};
use proptest::prelude::*;

/// A sweep-shaped sum-rate LP: `max Ra + Rb` over
/// `(Ra, Rb, Δ1, Δ2)` with per-phase capacities and a time budget.
fn sum_rate_lp(caps: &[f64; 4], budget: f64) -> Problem {
    let mut p = Problem::maximize(&[1.0, 1.0, 0.0, 0.0]);
    p.subject_to(&[1.0, 0.0, -caps[0], 0.0], Relation::Le, 0.0);
    p.subject_to(&[1.0, 0.0, 0.0, -caps[1]], Relation::Le, 0.0);
    p.subject_to(&[0.0, 1.0, -caps[2], 0.0], Relation::Le, 0.0);
    p.subject_to(&[0.0, 1.0, 0.0, -caps[3]], Relation::Le, 0.0);
    p.subject_to(&[0.0, 0.0, 1.0, 1.0], Relation::Le, budget);
    p
}

/// A max–min-shaped LP with an equality row and `≥` floors, so warm
/// sequences also cross shapes that need artificial variables.
fn floored_lp(caps: &[f64; 2], floor: f64) -> Problem {
    let mut p = Problem::maximize(&[1.0, 1.0, 0.0]);
    p.subject_to(&[1.0, 0.0, -caps[0]], Relation::Le, 0.0);
    p.subject_to(&[0.0, 1.0, -caps[1]], Relation::Le, 0.0);
    p.subject_to(&[0.0, 0.0, 1.0], Relation::Eq, 1.0);
    p.subject_to(&[1.0, 0.0, 0.0], Relation::Ge, floor);
    p
}

fn assert_bitwise_equal(warm: &bcc_lp::Solution, cold: &bcc_lp::Solution, step: usize) {
    assert_eq!(
        warm.x.len(),
        cold.x.len(),
        "step {step}: solution arity diverged"
    );
    for (i, (w, c)) in warm.x.iter().zip(&cold.x).enumerate() {
        assert_eq!(
            w.to_bits(),
            c.to_bits(),
            "step {step}: x[{i}] diverged: warm {w:.17e} vs cold {c:.17e}"
        );
    }
    assert_eq!(
        warm.objective.to_bits(),
        cold.objective.to_bits(),
        "step {step}: objective diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn warm_equals_cold_over_drifting_sequences(
        base in proptest::collection::vec(0.05f64..8.0, 4),
        drift in proptest::collection::vec(-0.02f64..0.02, 4),
        steps in 10usize..60,
    ) {
        let mut warm_ws = Workspace::new();
        for k in 0..steps {
            let caps: [f64; 4] = std::array::from_fn(|i| {
                let c = base[i] + drift[i] * k as f64;
                if c > 1e-3 { c } else { 1e-3 }
            });
            let p = sum_rate_lp(&caps, 1.0);
            let warm = p.solve_warm_with(&mut warm_ws).expect("feasible");
            let cold = p.solve_with(&mut Workspace::new()).expect("feasible");
            assert_bitwise_equal(&warm, &cold, k);
        }
    }

    #[test]
    fn warm_equals_cold_across_shape_switches(
        caps in proptest::collection::vec(0.05f64..6.0, 6),
        floor in 0.0f64..0.5,
    ) {
        // Alternate between two shapes through one workspace: the slot
        // cache must keep them apart and never leak a basis across.
        let mut warm_ws = Workspace::new();
        for k in 0..24 {
            let t = 1.0 + 0.01 * k as f64;
            let a = sum_rate_lp(
                &[caps[0] * t, caps[1] * t, caps[2] * t, caps[3] * t],
                1.0,
            );
            let b = floored_lp(&[caps[4] * t, caps[5] * t], floor);
            for p in [&a, &b] {
                let warm = p.solve_warm_with(&mut warm_ws);
                let cold = p.solve_with(&mut Workspace::new());
                match (warm, cold) {
                    (Ok(w), Ok(c)) => assert_bitwise_equal(&w, &c, k),
                    (Err(we), Err(ce)) => prop_assert_eq!(we, ce),
                    (w, c) => panic!("step {k}: outcome diverged: {w:?} vs {c:?}"),
                }
            }
        }
    }

    #[test]
    fn warm_minimization_equals_cold(
        c0 in 0.1f64..5.0,
        c1 in 0.1f64..5.0,
        lo in 0.5f64..4.0,
    ) {
        let mut ws = Workspace::new();
        for k in 0..16 {
            let lo_k = lo + 0.05 * k as f64;
            let mut p = Problem::minimize(&[c0, c1]);
            p.subject_to(&[1.0, 1.0], Relation::Ge, lo_k);
            p.subject_to(&[1.0, 0.0], Relation::Le, 10.0 * lo_k);
            p.subject_to(&[0.0, 1.0], Relation::Le, 10.0 * lo_k);
            let warm = p.solve_warm_with(&mut ws).expect("feasible");
            let cold = p.solve_with(&mut Workspace::new()).expect("feasible");
            assert_bitwise_equal(&warm, &cold, k);
        }
    }
}
