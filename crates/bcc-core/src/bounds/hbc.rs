//! Theorems 5 and 6 — achievable region and outer bound of HBC.
//!
//! The hybrid broadcast protocol has four phases: `a` alone (Δ₁), `b`
//! alone (Δ₂), a joint MAC phase `{a,b} → r` (Δ₃), and the relay broadcast
//! (Δ₄). Setting Δ₁ = Δ₂ = 0 recovers MABC; setting Δ₃ = 0 recovers TDBC —
//! which is why the paper's headline observation that HBC is *sometimes
//! strictly better than both* is interesting.
//!
//! Gaussian inner bound (Theorem 5):
//!
//! ```text
//! R_a ≤ min( Δ₁·C(P·G_ar) + Δ₃·C(P·G_ar),  Δ₁·C(P·G_ab) + Δ₄·C(P·G_br) )
//! R_b ≤ min( Δ₂·C(P·G_br) + Δ₃·C(P·G_br),  Δ₂·C(P·G_ab) + Δ₄·C(P·G_ar) )
//! R_a + R_b ≤ Δ₁·C(P·G_ar) + Δ₂·C(P·G_br) + Δ₃·C(P·(G_ar + G_br))
//! ```
//!
//! **Theorem 6 (outer).** The paper does not evaluate this bound
//! numerically: the optimum over the *joint* phase-3 input distribution
//! `p⁽³⁾(x_a, x_b)` is open, and with correlated inputs neither Gaussian
//! optimality nor a single dominating correlation is known. Mirroring that,
//! [`outer_constraint_family`] returns the **Gaussian-restricted** family
//! parameterised by the phase-3 correlation coefficient `ρ ∈ [0, 1]`; the
//! union over `ρ` is an outer bound *for jointly-Gaussian inputs only* and
//! is reported as a heuristic reference curve (DESIGN.md §2), not as the
//! true converse.

use crate::bounds::LinkCaps;
use crate::constraint::{ConstraintBuf, ConstraintSet, RateConstraint};
use bcc_channel::{ChannelState, PowerSplit};
use bcc_info::awgn_capacity;
use bcc_info::gaussian::{
    mac_individual_capacity_correlated, mac_sum_capacity_correlated, two_receiver_capacity,
};

/// Builds the Theorem-5 achievable constraints.
///
/// # Panics
///
/// Panics if `power < 0`.
pub fn inner_constraints(power: f64, state: &ChannelState) -> ConstraintSet {
    assert!(power >= 0.0, "transmit power must be non-negative");
    let mut set = ConstraintSet::new(4, "");
    let caps = LinkCaps::compute(&PowerSplit::symmetric(power), state);
    inner_constraints_from_caps_into(&caps, &mut set);
    set
}

/// Rebuilds `set` in place from precomputed link capacities (arena
/// reuse — no heap allocation after warm-up).
pub fn inner_constraints_from_caps_into(caps: &LinkCaps, set: &mut ConstraintSet) {
    let c_a_ab = caps.c_a_ab;
    let c_b_ab = caps.c_b_ab;
    let c_a_ar = caps.c_a_ar;
    let c_b_br = caps.c_b_br;
    let c_r_ar = caps.c_r_ar;
    let c_r_br = caps.c_r_br;
    let c_mac = caps.c_mac;

    set.reset(4, "HBC achievable (Thm 5)");
    set.push(RateConstraint::new(
        1.0,
        0.0,
        [c_a_ar, 0.0, c_a_ar, 0.0],
        "Thm 5: relay decodes Wa (phases 1 and 3)",
    ));
    set.push(RateConstraint::new(
        1.0,
        0.0,
        [c_a_ab, 0.0, 0.0, c_r_br],
        "Thm 5: b decodes Wa from side info + broadcast",
    ));
    set.push(RateConstraint::new(
        0.0,
        1.0,
        [0.0, c_b_br, c_b_br, 0.0],
        "Thm 5: relay decodes Wb (phases 2 and 3)",
    ));
    set.push(RateConstraint::new(
        0.0,
        1.0,
        [0.0, c_b_ab, 0.0, c_r_ar],
        "Thm 5: a decodes Wb from side info + broadcast",
    ));
    set.push(RateConstraint::new(
        1.0,
        1.0,
        [c_a_ar, c_b_br, c_mac, 0.0],
        "Thm 5: relay sum rate across phases 1-3",
    ));
}

/// One member of the Gaussian-restricted Theorem-6 family at phase-3 input
/// correlation `rho`.
///
/// # Panics
///
/// Panics if `power < 0` or `rho ∉ [0, 1]`.
pub fn outer_constraints_with_rho(power: f64, state: &ChannelState, rho: f64) -> ConstraintSet {
    assert!(power >= 0.0, "transmit power must be non-negative");
    let mut set = ConstraintSet::new(4, "");
    outer_constraints_with_rho_split_into(&PowerSplit::symmetric(power), state, rho, &mut set);
    set
}

/// [`outer_constraints_with_rho`] with per-node powers, rebuilding `set`
/// in place (arena reuse — the formatted family name is written into the
/// set's existing name buffer, so steady-state rebuilds perform no heap
/// allocation).
///
/// # Panics
///
/// Panics if `rho ∉ [0, 1]`.
pub fn outer_constraints_with_rho_split_into(
    powers: &PowerSplit,
    state: &ChannelState,
    rho: f64,
    set: &mut ConstraintSet,
) {
    assert!(
        (0.0..=1.0).contains(&rho),
        "correlation out of range: {rho}"
    );
    let snr_ar = powers.p_a() * state.gar();
    let snr_br = powers.p_b() * state.gbr();
    let c_a_ab = awgn_capacity(powers.p_a() * state.gab());
    let c_b_ab = awgn_capacity(powers.p_b() * state.gab());
    let c_a_ar = awgn_capacity(snr_ar);
    let c_b_br = awgn_capacity(snr_br);
    let c_r_ar = awgn_capacity(powers.p_r() * state.gar());
    let c_r_br = awgn_capacity(powers.p_r() * state.gbr());
    let c_a_cut = two_receiver_capacity(snr_ar, powers.p_a() * state.gab());
    let c_b_cut = two_receiver_capacity(snr_br, powers.p_b() * state.gab());
    let c_ar_rho = mac_individual_capacity_correlated(snr_ar, rho);
    let c_br_rho = mac_individual_capacity_correlated(snr_br, rho);
    let c_mac_rho = mac_sum_capacity_correlated(snr_ar, snr_br, rho);

    set.reset_fmt(4, format_args!("HBC outer (Thm 6, Gaussian, ρ={rho:.3})"));
    set.push(RateConstraint::new(
        1.0,
        0.0,
        [c_a_cut, 0.0, c_ar_rho, 0.0],
        "Thm 6: cut {a} — joint observation + phase-3 MAC",
    ));
    set.push(RateConstraint::new(
        1.0,
        0.0,
        [c_a_ab, 0.0, 0.0, c_r_br],
        "Thm 6: cut {a,r} — b's total information about Wa",
    ));
    set.push(RateConstraint::new(
        0.0,
        1.0,
        [0.0, c_b_cut, c_br_rho, 0.0],
        "Thm 6: cut {b} — joint observation + phase-3 MAC",
    ));
    set.push(RateConstraint::new(
        0.0,
        1.0,
        [0.0, c_b_ab, 0.0, c_r_ar],
        "Thm 6: cut {b,r} — a's total information about Wb",
    ));
    set.push(RateConstraint::new(
        1.0,
        1.0,
        [c_a_ar, c_b_br, c_mac_rho, 0.0],
        "Thm 6: relay decodes both (sum rate, phases 1-3)",
    ));
}

/// The ρ-grid family whose union approximates the Gaussian-restricted
/// Theorem-6 outer region. `grid` points are spread uniformly over
/// `ρ ∈ [0, 1]` (endpoints included).
///
/// # Panics
///
/// Panics if `power < 0` or `grid < 2`.
pub fn outer_constraint_family(
    power: f64,
    state: &ChannelState,
    grid: usize,
) -> Vec<ConstraintSet> {
    assert!(power >= 0.0, "transmit power must be non-negative");
    let mut buf = ConstraintBuf::new();
    outer_constraint_family_split_into(&PowerSplit::symmetric(power), state, grid, &mut buf);
    buf.into_sets()
}

/// [`outer_constraint_family`] with per-node powers, rebuilding the
/// family inside a [`ConstraintBuf`] arena (the caller must have called
/// [`ConstraintBuf::begin`] on a reused arena).
///
/// # Panics
///
/// Panics if `grid < 2`.
pub fn outer_constraint_family_split_into(
    powers: &PowerSplit,
    state: &ChannelState,
    grid: usize,
    buf: &mut ConstraintBuf,
) {
    assert!(grid >= 2, "need at least the two endpoint correlations");
    for i in 0..grid {
        let rho = i as f64 / (grid - 1) as f64;
        outer_constraints_with_rho_split_into(powers, state, rho, buf.next_set());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::constraint_sets_split;
    use crate::protocol::{Bound, Protocol};

    fn fig4_state() -> ChannelState {
        ChannelState::new(0.19952623149688797, 1.0, 3.1622776601683795)
    }

    #[test]
    fn mabc_is_embedded_at_zero_uplink_phases() {
        // Δ = (0, 0, δ, 1-δ) must reproduce MABC feasibility exactly.
        let p = 10.0;
        let s = fig4_state();
        let hbc = inner_constraints(p, &s);
        let mabc = crate::bounds::mabc::capacity_constraints(p, &s);
        for delta in [0.3, 0.5, 0.7] {
            let d_hbc = [0.0, 0.0, delta, 1.0 - delta];
            let d_mabc = [delta, 1.0 - delta];
            for i in 0..15 {
                for j in 0..15 {
                    let (ra, rb) = (i as f64 * 0.15, j as f64 * 0.15);
                    assert_eq!(
                        hbc.all_satisfied(ra, rb, &d_hbc, 1e-12),
                        mabc.all_satisfied(ra, rb, &d_mabc, 1e-12),
                        "({ra},{rb}) delta={delta}"
                    );
                }
            }
        }
    }

    #[test]
    fn tdbc_is_embedded_at_zero_mac_phase() {
        // Δ = (d1, d2, 0, d3): HBC row set must accept exactly the TDBC
        // achievable points (the sum-rate row is implied by the two relay
        // rows when Δ3 = 0... it is *looser*, so check inner ⊆ hbc).
        let p = 10.0;
        let s = fig4_state();
        let hbc = inner_constraints(p, &s);
        let tdbc = crate::bounds::tdbc::inner_constraints(p, &s);
        let d3 = [0.4, 0.3, 0.3];
        let d4 = [0.4, 0.3, 0.0, 0.3];
        for i in 0..15 {
            for j in 0..15 {
                let (ra, rb) = (i as f64 * 0.15, j as f64 * 0.15);
                if tdbc.all_satisfied(ra, rb, &d3, 1e-12) {
                    assert!(
                        hbc.all_satisfied(ra, rb, &d4, 1e-9),
                        "TDBC point ({ra},{rb}) rejected by HBC"
                    );
                }
            }
        }
    }

    #[test]
    fn inner_implies_every_outer_family_member() {
        let p = 10.0;
        let s = fig4_state();
        let inner = inner_constraints(p, &s);
        let family = outer_constraint_family(p, &s, 5);
        let d = [0.25, 0.25, 0.25, 0.25];
        for i in 0..12 {
            for j in 0..12 {
                let (ra, rb) = (i as f64 * 0.2, j as f64 * 0.2);
                if inner.all_satisfied(ra, rb, &d, 1e-12) {
                    // Inner point must be inside the union — in fact it is
                    // inside the ρ=0 member already.
                    assert!(
                        family[0].all_satisfied(ra, rb, &d, 1e-9),
                        "inner point ({ra},{rb}) escapes ρ=0 outer member"
                    );
                }
            }
        }
    }

    #[test]
    fn split_reduces_to_symmetric_at_equal_powers() {
        let s = fig4_state();
        let sym = PowerSplit::symmetric(10.0);
        assert_eq!(
            constraint_sets_split(Protocol::Hbc, Bound::Inner, &sym, &s),
            [inner_constraints(10.0, &s)]
        );
        // The dispatcher's ρ-grid is odd-sized, so ρ = 0.5 is its middle.
        let family = constraint_sets_split(Protocol::Hbc, Bound::Outer, &sym, &s);
        assert_eq!(
            family[family.len() / 2],
            outer_constraints_with_rho(10.0, &s, 0.5)
        );
    }

    #[test]
    fn split_mabc_embedding_survives_asymmetric_powers() {
        // Δ = (0, 0, δ, 1−δ) must reproduce the split MABC region too.
        let s = fig4_state();
        let powers = PowerSplit::new(3.0, 11.0, 19.0);
        let split = |p| constraint_sets_split(p, Bound::Inner, &powers, &s).remove(0);
        let (hbc, mabc) = (split(Protocol::Hbc), split(Protocol::Mabc));
        let delta = 0.55;
        let d_hbc = [0.0, 0.0, delta, 1.0 - delta];
        let d_mabc = [delta, 1.0 - delta];
        for i in 0..15 {
            for j in 0..15 {
                let (ra, rb) = (i as f64 * 0.15, j as f64 * 0.15);
                assert_eq!(
                    hbc.all_satisfied(ra, rb, &d_hbc, 1e-12),
                    mabc.all_satisfied(ra, rb, &d_mabc, 1e-12),
                    "({ra},{rb})"
                );
            }
        }
    }

    #[test]
    fn rho_trades_individual_for_sum() {
        let p = 10.0;
        let s = fig4_state();
        let lo = outer_constraints_with_rho(p, &s, 0.0);
        let hi = outer_constraints_with_rho(p, &s, 0.9);
        // Sum-rate phase-3 coefficient increases with ρ…
        assert!(hi.constraints()[4].phase_coefs[2] > lo.constraints()[4].phase_coefs[2]);
        // …while the individual phase-3 coefficient decreases.
        assert!(hi.constraints()[0].phase_coefs[2] < lo.constraints()[0].phase_coefs[2]);
    }

    #[test]
    fn family_grid_endpoints() {
        let fam = outer_constraint_family(1.0, &fig4_state(), 11);
        assert_eq!(fam.len(), 11);
        assert!(fam[0].name.contains("ρ=0.000"));
        assert!(fam[10].name.contains("ρ=1.000"));
    }

    #[test]
    #[should_panic(expected = "at least the two endpoint")]
    fn tiny_grid_rejected() {
        let _ = outer_constraint_family(1.0, &fig4_state(), 1);
    }
}
