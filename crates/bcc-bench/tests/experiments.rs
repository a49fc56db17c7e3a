//! Tests of the experiment harness itself: the binaries' inner loops
//! (shared through `bcc-bench`'s lib and the `Scenario` evaluator of
//! `bcc-core`) must keep producing the recorded EXPERIMENTS.md shapes.

use bcc_bench::{fig3_symmetric_network, fig4_network, sweep_series, FIG4_POWERS_DB};
use bcc_core::prelude::*;
use bcc_num::interp::crossings;

#[test]
fn fig3_sweep_a_shape() {
    // DT flat; TDBC ≥ MABC at P = 15 dB and symmetric gains (high-SNR
    // regime); HBC = max of the two everywhere on this sweep.
    let sweep = Scenario::symmetric_gain_sweep_db(15.0, 0.0, (0..=30).step_by(5).map(f64::from))
        .build()
        .sweep()
        .unwrap();
    let dt = sweep.series_points(Protocol::DirectTransmission);
    assert!((dt[0].1 - dt.last().unwrap().1).abs() < 1e-9);
    for i in 0..sweep.len() {
        let m = sweep.series(Protocol::Mabc).unwrap().solutions[i].sum_rate;
        let t = sweep.series(Protocol::Tdbc).unwrap().solutions[i].sum_rate;
        let h = sweep.series(Protocol::Hbc).unwrap().solutions[i].sum_rate;
        assert!(t >= m - 1e-9, "TDBC must dominate MABC at 15 dB symmetric");
        assert!((h - t.max(m)).abs() < 1e-6);
    }
}

#[test]
fn fig3_sweep_b_has_mabc_tdbc_hbc_zones() {
    let sweep = Scenario::relay_position_sweep(15.0, 3.0, (1..=19).map(|k| k as f64 / 20.0))
        .unwrap()
        .build()
        .sweep()
        .unwrap();
    let winners = sweep.winners();
    assert!(winners.contains(&Some(Protocol::Mabc)), "MABC zone missing");
    assert!(winners.contains(&Some(Protocol::Tdbc)) || winners.contains(&Some(Protocol::Hbc)));
    // HBC strictly wins somewhere (the wedge of EXPERIMENTS.md E-F3).
    assert!(
        !sweep.strict_wins(Protocol::Hbc, 1e-6).is_empty(),
        "HBC strict band missing from sweep B"
    );
    // DT never wins once the relay is in play on this geometry.
    assert!(!winners.contains(&Some(Protocol::DirectTransmission)));
}

#[test]
fn crossover_location_locked() {
    // EXPERIMENTS.md records the MABC/TDBC crossover at ≈ 13.7 dB; lock
    // it to ±0.5 dB via the sweep + interpolation path.
    let sweep = Scenario::power_sweep_db(fig4_network(0.0), (-10..=25).map(f64::from))
        .build()
        .sweep()
        .unwrap();
    let mabc = sweep.series_points(Protocol::Mabc);
    let tdbc = sweep.series_points(Protocol::Tdbc);
    let cross = crossings(&mabc, &tdbc);
    assert_eq!(cross.len(), 1, "exactly one crossover expected: {cross:?}");
    assert!(
        (cross[0] - 13.7).abs() < 0.5,
        "crossover drifted: {} dB",
        cross[0]
    );
}

#[test]
fn fig4_panel_powers_bracket_the_crossover() {
    // The two Fig. 4 panels (0 and 10 dB) must sit on the same side or
    // below the crossover so the paper's "low SNR" panel shows MABC ahead.
    let cmp = Scenario::at(fig4_network(FIG4_POWERS_DB[0]))
        .build()
        .compare()
        .unwrap();
    let mabc = cmp.get(Protocol::Mabc).unwrap().sum_rate;
    let tdbc = cmp.get(Protocol::Tdbc).unwrap().sum_rate;
    assert!(mabc > tdbc);
}

#[test]
fn fig3_network_constructor_normalisation() {
    let net = fig3_symmetric_network(0.0);
    // All gains 0 dB → all SNRs equal the power.
    assert!((net.snr_ab() - net.snr_ar()).abs() < 1e-9);
    assert!((net.snr_ar() - net.snr_br()).abs() < 1e-9);
}

#[test]
fn multipair_study_shapes() {
    // The canonical E-M1 study: joint dominates time-share for every
    // protocol and point, the gap is strict somewhere (heterogeneous
    // pairs), and on the fully symmetric middle pair HBC's per-pair sum
    // dominates MABC/TDBC as always.
    let sweep = bcc_bench::multipairstudy::sweep_scenario()
        .build()
        .sweep()
        .unwrap();
    assert_eq!(sweep.num_pairs(), bcc_bench::multipairstudy::K);
    let mut strict_gap = false;
    for proto in Protocol::ALL {
        for i in 0..sweep.len() {
            let joint = sweep.sum_rate(proto, i, Schedule::Joint);
            let shared = sweep.sum_rate(proto, i, Schedule::TimeShare);
            assert!(joint >= shared - 1e-12, "{proto} point {i}");
            strict_gap |= joint > shared + 1e-6;
        }
    }
    for i in 0..sweep.len() {
        let h = sweep.solution(Protocol::Hbc, i, 1).sum.sum_rate;
        let m = sweep.solution(Protocol::Mabc, i, 1).sum.sum_rate;
        assert!(h >= m - 1e-8, "HBC must dominate MABC on pair 1");
    }
    assert!(
        strict_gap,
        "heterogeneous pairs must open a joint-vs-TDMA gap"
    );
}

/// The bench gate's solver-mix assertions (`kernel_hits`, `warm_hits`,
/// zero-allocation hot loop) are reproducible **in-process** on
/// miniature versions of the bench-report scenarios, without
/// `--test-threads=1`: the per-thread counter sets
/// (`bcc_lp::stats::scoped`, `bcc_core::batch::stats::scoped`) only see
/// this test's own solves even while the rest of the suite hammers the
/// solver from sibling test threads.
#[test]
fn bench_gate_counters_observable_in_process() {
    // Miniature fig3 sweep: every protocol has a closed form now, so the
    // batched lane kernels must carry all 4 protocols × 201 points with
    // zero simplex solves.
    let ((_, lp), kernel) = bcc_core::batch::stats::scoped(|| {
        bcc_lp::stats::scoped(|| {
            Scenario::symmetric_gain_sweep_db(15.0, 0.0, (0..=200).map(|k| f64::from(k) * 0.15))
                .threads(1)
                .build()
                .sweep()
                .unwrap()
        })
    });
    assert_eq!(
        kernel.kernel_hits,
        4 * 201,
        "the kernel must serve every solve"
    );
    assert_eq!(lp.solves, 0, "a floor-free inner sweep never touches LP");

    // Miniature floored crossover sweep: QoS floors force the simplex,
    // and repeated solves on one context must fire the warm-start path.
    let (_, lp) = bcc_lp::stats::scoped(|| {
        Scenario::power_sweep_db(
            fig4_network(0.0),
            (0..=300).map(|k| -5.0 + f64::from(k) * 0.05),
        )
        .rate_floor(0.01, 0.01)
        .threads(1)
        .build()
        .sweep()
        .unwrap()
    });
    assert!(lp.solves > 0, "floors force LP solves");
    assert!(
        lp.warm_hits > 0,
        "warm-start path never fired on the floored mini-sweep: {lp:?}"
    );
    assert!(lp.warm_attempts >= lp.warm_hits);
}

#[test]
fn plot_bridge_round_trips_fig3_series() {
    // The binaries plot through sweep_series(); its output must agree with
    // the typed result it was derived from.
    let sweep = Scenario::symmetric_gain_sweep_db(15.0, 0.0, [0.0, 15.0, 30.0])
        .build()
        .sweep()
        .unwrap();
    for s in sweep_series(&sweep) {
        assert_eq!(s.points.len(), 3);
        assert!(s.points.iter().all(|(_, y)| y.is_finite()));
    }
}
