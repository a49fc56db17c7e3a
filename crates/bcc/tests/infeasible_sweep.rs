//! Coverage for the batch engine's infeasible-solve path (PR 2): a sweep
//! with a deliberately infeasible grid point must record the skip
//! ([`SweepResult::skipped`]), leave NaN placeholders in the series, and
//! report `Option`-valued winners — never abort the batch.
//!
//! Infeasibility is reached through the public API via the QoS
//! [`Scenario::rate_floor`]: a per-user floor above what an operating
//! point supports makes that point's LP genuinely infeasible.

use bcc::prelude::*;

fn fig4_net(p_db: f64) -> GaussianNetwork {
    GaussianNetwork::from_db(Db::new(p_db), Db::new(-7.0), Db::new(0.0), Db::new(5.0))
}

#[test]
fn fully_infeasible_point_yields_none_winner_and_nan_series() {
    // −20 dB supports nothing at a 2-bit/user floor; 25 dB supports the
    // relay protocols.
    let sweep = Scenario::power_sweep_db(fig4_net(0.0), [-20.0, 25.0])
        .rate_floor(2.0, 2.0)
        .build()
        .sweep()
        .unwrap();
    assert!(!sweep.is_complete());
    assert_eq!(sweep.winners().len(), 2);
    assert_eq!(sweep.try_winner(0), None);
    assert_eq!(sweep.winners()[0], None);
    assert!(sweep.winners()[1].is_some());
    // Every protocol's slot at the dead point is a NaN placeholder…
    for p in Protocol::ALL {
        let sol = &sweep.series(p).unwrap().solutions[0];
        assert!(sol.sum_rate.is_nan() && sol.ra.is_nan() && sol.rb.is_nan());
        assert!(sol.durations.is_empty());
    }
    // …and each one is accounted for in skipped(), as an infeasibility.
    let at_dead_point: Vec<_> = sweep.skipped().iter().filter(|s| s.index == 0).collect();
    assert_eq!(at_dead_point.len(), Protocol::ALL.len());
    for skip in sweep.skipped() {
        assert!(skip.error.is_infeasible());
        assert_eq!(skip.x, -20.0);
    }
}

#[test]
#[should_panic(expected = "skipped as infeasible")]
fn winner_panics_exactly_where_try_winner_is_none() {
    let sweep = Scenario::power_sweep_db(fig4_net(0.0), [-20.0])
        .rate_floor(2.0, 2.0)
        .build()
        .sweep()
        .unwrap();
    let _ = sweep.winner(0);
}

#[test]
fn partially_infeasible_point_keeps_feasible_winners() {
    // A floor DT cannot meet at 10 dB (its capacity region tops out near
    // 1.58 bits total) while every relay protocol can.
    let sweep = Scenario::power_sweep_db(fig4_net(0.0), [10.0])
        .rate_floor(0.85, 0.85)
        .build()
        .sweep()
        .unwrap();
    assert_eq!(sweep.skipped().len(), 1, "only DT should skip");
    assert_eq!(sweep.skipped()[0].protocol, Protocol::DirectTransmission);
    assert!(sweep.skipped()[0].error.is_infeasible());
    let winner = sweep.try_winner(0).expect("relay protocols feasible");
    assert_ne!(winner, Protocol::DirectTransmission);
    // Feasible entries respect the floor.
    for p in [Protocol::Mabc, Protocol::Tdbc, Protocol::Hbc] {
        let sol = &sweep.series(p).unwrap().solutions[0];
        assert!(sol.ra >= 0.85 - 1e-8, "{p}: ra {}", sol.ra);
        assert!(sol.rb >= 0.85 - 1e-8, "{p}: rb {}", sol.rb);
    }
    // DT's NaN never leaks into strict-wins comparisons.
    assert!(sweep
        .strict_wins(Protocol::DirectTransmission, 1e-9)
        .is_empty());
}

/// Bit-identity for sweeps that may carry NaN skip placeholders (derived
/// `PartialEq` would fail on NaN ≠ NaN even for identical results).
fn assert_sweeps_identical(a: &SweepResult, b: &SweepResult) {
    assert_eq!(a.xs, b.xs);
    assert_eq!(a.winners(), b.winners());
    assert_eq!(a.skipped(), b.skipped());
    assert_eq!(a.protocols(), b.protocols());
    for &p in a.protocols() {
        let (sa, sb) = (a.series(p).unwrap(), b.series(p).unwrap());
        for (x, y) in sa.solutions.iter().zip(&sb.solutions) {
            let same = (x.sum_rate.is_nan() && y.sum_rate.is_nan())
                || (x.sum_rate == y.sum_rate && x.ra == y.ra && x.rb == y.rb);
            assert!(same, "{p}: {x:?} vs {y:?}");
            assert_eq!(x.durations, y.durations, "{p}");
        }
    }
}

#[test]
fn skip_bookkeeping_is_thread_invariant() {
    let scenario = Scenario::power_sweep_db(fig4_net(0.0), (-20..=20).step_by(5).map(f64::from))
        .rate_floor(1.2, 1.2);
    let serial = scenario.clone().threads(1).build().sweep().unwrap();
    for threads in [2, 4] {
        let par = scenario.clone().threads(threads).build().sweep().unwrap();
        assert_sweeps_identical(&serial, &par);
    }
    // Floored sweeps solve point by point inside each block; the skips
    // must not depend on where the block boundaries fall.
    for block in [1, 5, 1024] {
        for threads in [1, 4] {
            let blocked = scenario
                .clone()
                .block_size(block)
                .threads(threads)
                .build()
                .sweep()
                .unwrap();
            assert_sweeps_identical(&serial, &blocked);
        }
    }
    assert!(!serial.is_complete());
    // Winners and skips agree index-by-index.
    for (i, w) in serial.winners().iter().enumerate() {
        let all_skipped =
            serial.skipped().iter().filter(|s| s.index == i).count() == Protocol::ALL.len();
        assert_eq!(w.is_none(), all_skipped, "point {i}");
    }
}

#[test]
fn rate_floor_applies_to_outer_bound_families_too() {
    // The HBC outer bound is a ρ-family: with a floor, individual members
    // may be infeasible while the family still produces an optimum, and a
    // floor above the whole family must skip, not abort.
    let feasible = Scenario::power_sweep_db(fig4_net(0.0), [10.0])
        .protocols([Protocol::Hbc])
        .bound(Bound::Outer)
        .rate_floor(0.5, 0.5)
        .build()
        .sweep()
        .unwrap();
    assert!(feasible.is_complete());
    let sol = &feasible.series(Protocol::Hbc).unwrap().solutions[0];
    assert!(sol.ra >= 0.5 - 1e-8 && sol.rb >= 0.5 - 1e-8);

    let impossible = Scenario::power_sweep_db(fig4_net(0.0), [10.0])
        .protocols([Protocol::Hbc])
        .bound(Bound::Outer)
        .rate_floor(50.0, 50.0)
        .build()
        .sweep()
        .unwrap();
    assert_eq!(impossible.try_winner(0), None);
    assert_eq!(impossible.skipped().len(), 1);
}
