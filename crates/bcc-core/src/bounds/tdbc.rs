//! Theorems 3 and 4 — achievable region and outer bound of TDBC.
//!
//! Phase 1 (Δ₁): `a` transmits; **both** `r` and `b` listen — `b`'s
//! observation is the *first-phase side information*. Phase 2 (Δ₂): `b`
//! transmits; `r` and `a` listen. Phase 3 (Δ₃): the relay broadcasts the
//! XOR of **bin indices** `s_a(ŵ_a) ⊕ s_b(ŵ_b)` (random binning lets the
//! relay spend fewer bits than the raw messages because each terminal
//! combines the bin index with its overheard side information).
//!
//! Gaussian inner bound (Theorem 3, eqs. (22)–(23) of the paper):
//!
//! ```text
//! R_a ≤ min( Δ₁·C(P·G_ar),  Δ₁·C(P·G_ab) + Δ₃·C(P·G_br) )
//! R_b ≤ min( Δ₂·C(P·G_br),  Δ₂·C(P·G_ab) + Δ₃·C(P·G_ar) )
//! ```
//!
//! Gaussian outer bound (Theorem 4): the relay-decoding terms are replaced
//! by the two-receiver cut `C(P·(G_ar + G_ab))` (the cut `S₁ = {a}` sees
//! both `Y_r` and `Y_b`), and a sum-rate row
//! `R_a + R_b ≤ Δ₁·C(P·G_ar) + Δ₂·C(P·G_br)` is added (relay decodes both).

use crate::bounds::LinkCaps;
use crate::constraint::{ConstraintSet, RateConstraint};
use bcc_channel::{ChannelState, PowerSplit};
use bcc_info::awgn_capacity;
use bcc_info::gaussian::two_receiver_capacity;

/// Builds the Theorem-3 achievable constraints.
///
/// # Panics
///
/// Panics if `power < 0`.
pub fn inner_constraints(power: f64, state: &ChannelState) -> ConstraintSet {
    assert!(power >= 0.0, "transmit power must be non-negative");
    let mut set = ConstraintSet::new(3, "");
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

    set.reset(3, "TDBC achievable (Thm 3)");
    set.push(RateConstraint::new(
        1.0,
        0.0,
        [c_a_ar, 0.0, 0.0],
        "Thm 3: relay decodes Wa (phase 1)",
    ));
    set.push(RateConstraint::new(
        1.0,
        0.0,
        [c_a_ab, 0.0, c_r_br],
        "Thm 3: b decodes Wa from side info + bin broadcast",
    ));
    set.push(RateConstraint::new(
        0.0,
        1.0,
        [0.0, c_b_br, 0.0],
        "Thm 3: relay decodes Wb (phase 2)",
    ));
    set.push(RateConstraint::new(
        0.0,
        1.0,
        [0.0, c_b_ab, c_r_ar],
        "Thm 3: a decodes Wb from side info + bin broadcast",
    ));
}

/// Builds the Theorem-4 outer-bound constraints.
///
/// # Panics
///
/// Panics if `power < 0`.
pub fn outer_constraints(power: f64, state: &ChannelState) -> ConstraintSet {
    assert!(power >= 0.0, "transmit power must be non-negative");
    let mut set = ConstraintSet::new(3, "");
    outer_constraints_split_into(&PowerSplit::symmetric(power), state, &mut set);
    set
}

/// Rebuilds `set` in place as the Theorem-4 constraints with per-node
/// powers — cut terms at the transmitting node's power, relay broadcast
/// at `p_r` (arena reuse — no heap allocation after warm-up).
pub fn outer_constraints_split_into(
    powers: &PowerSplit,
    state: &ChannelState,
    set: &mut ConstraintSet,
) {
    let c_a_ab = awgn_capacity(powers.p_a() * state.gab());
    let c_b_ab = awgn_capacity(powers.p_b() * state.gab());
    let c_a_ar = awgn_capacity(powers.p_a() * state.gar());
    let c_b_br = awgn_capacity(powers.p_b() * state.gbr());
    let c_r_ar = awgn_capacity(powers.p_r() * state.gar());
    let c_r_br = awgn_capacity(powers.p_r() * state.gbr());
    let c_a_cut = two_receiver_capacity(powers.p_a() * state.gar(), powers.p_a() * state.gab());
    let c_b_cut = two_receiver_capacity(powers.p_b() * state.gbr(), powers.p_b() * state.gab());

    set.reset(3, "TDBC outer (Thm 4)");
    set.push(RateConstraint::new(
        1.0,
        0.0,
        [c_a_cut, 0.0, 0.0],
        "Thm 4: cut {a} — r and b jointly observe phase 1",
    ));
    set.push(RateConstraint::new(
        1.0,
        0.0,
        [c_a_ab, 0.0, c_r_br],
        "Thm 4: cut {a,r} — b's total information about Wa",
    ));
    set.push(RateConstraint::new(
        0.0,
        1.0,
        [0.0, c_b_cut, 0.0],
        "Thm 4: cut {b} — r and a jointly observe phase 2",
    ));
    set.push(RateConstraint::new(
        0.0,
        1.0,
        [0.0, c_b_ab, c_r_ar],
        "Thm 4: cut {b,r} — a's total information about Wb",
    ));
    set.push(RateConstraint::new(
        1.0,
        1.0,
        [c_a_ar, c_b_br, 0.0],
        "Thm 4: relay decodes both messages (sum rate)",
    ));
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
    fn inner_has_four_rows_outer_five() {
        let s = fig4_state();
        assert_eq!(inner_constraints(10.0, &s).constraints().len(), 4);
        assert_eq!(outer_constraints(10.0, &s).constraints().len(), 5);
    }

    #[test]
    fn inner_implies_outer_pointwise() {
        // Any (ra, rb, Δ) feasible for Thm 3 must be feasible for Thm 4.
        let p = 10.0;
        let s = fig4_state();
        let inner = inner_constraints(p, &s);
        let outer = outer_constraints(p, &s);
        let durations = [
            [0.4, 0.4, 0.2],
            [0.1, 0.8, 0.1],
            [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        ];
        for d in durations {
            // Scan a grid of rate pairs.
            for i in 0..20 {
                for j in 0..20 {
                    let ra = i as f64 * 0.2;
                    let rb = j as f64 * 0.2;
                    if inner.all_satisfied(ra, rb, &d, 1e-12) {
                        assert!(
                            outer.all_satisfied(ra, rb, &d, 1e-9),
                            "inner point ({ra},{rb}) @ {d:?} escapes the outer bound"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn side_information_term_uses_direct_link() {
        // With a dead direct link, b relies entirely on the relay phase.
        let p = 10.0;
        let dead = ChannelState::new(0.0, 2.0, 2.0);
        let set = inner_constraints(p, &dead);
        let b_decodes = &set.constraints()[1];
        assert_eq!(b_decodes.phase_coefs[0], 0.0, "no phase-1 side info");
        assert!(b_decodes.phase_coefs[2] > 0.0, "relay phase still helps");
    }

    #[test]
    fn strong_direct_link_lets_tdbc_bypass_relay() {
        // With a very strong direct link the side-information constraint is
        // loose even at Δ3 = 0.
        let p = 10.0;
        let strong = ChannelState::new(100.0, 2.0, 2.0);
        let set = inner_constraints(p, &strong);
        // Δ = (0.5, 0.5, 0): b decodes Wa from side info alone up to
        // 0.5·C(1000) ≈ 4.98 bits, but relay decode caps at 0.5·C(20).
        let d = [0.5, 0.5, 0.0];
        let cap = 0.5 * awgn_capacity(p * 2.0);
        assert!(set.all_satisfied(cap - 1e-6, 0.0, &d, 1e-9));
        assert!(!set.all_satisfied(cap + 1e-3, 0.0, &d, 1e-9));
    }

    #[test]
    fn outer_cut_terms_dominate_inner_terms() {
        let p = 3.0;
        let s = fig4_state();
        let inner = inner_constraints(p, &s);
        let outer = outer_constraints(p, &s);
        // Row 0: C(P(Gar+Gab)) ≥ C(P·Gar).
        assert!(outer.constraints()[0].phase_coefs[0] >= inner.constraints()[0].phase_coefs[0]);
        // Row 2 similarly for b.
        assert!(outer.constraints()[2].phase_coefs[1] >= inner.constraints()[2].phase_coefs[1]);
    }

    fn split(bound: Bound, powers: PowerSplit, state: &ChannelState) -> ConstraintSet {
        constraint_sets_split(Protocol::Tdbc, bound, &powers, state).remove(0)
    }

    #[test]
    fn split_reduces_to_symmetric_at_equal_powers() {
        let s = fig4_state();
        let sym = PowerSplit::symmetric(10.0);
        assert_eq!(split(Bound::Inner, sym, &s), inner_constraints(10.0, &s));
        assert_eq!(split(Bound::Outer, sym, &s), outer_constraints(10.0, &s));
    }

    #[test]
    fn split_inner_implies_split_outer_pointwise() {
        // The Thm 3 ⊆ Thm 4 containment must survive asymmetric powers.
        let s = fig4_state();
        let powers = PowerSplit::new(4.0, 12.0, 20.0);
        let inner = split(Bound::Inner, powers, &s);
        let outer = split(Bound::Outer, powers, &s);
        let d = [0.4, 0.3, 0.3];
        for i in 0..20 {
            for j in 0..20 {
                let (ra, rb) = (i as f64 * 0.2, j as f64 * 0.2);
                if inner.all_satisfied(ra, rb, &d, 1e-12) {
                    assert!(
                        outer.all_satisfied(ra, rb, &d, 1e-9),
                        "split inner point ({ra},{rb}) escapes outer"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_relay_phase_reduces_to_overheard_links() {
        // With Δ3 = 0 the inner region is what the direct link supports,
        // intersected with the relay-decoding constraints.
        let p = 15.0;
        let s = fig4_state();
        let set = inner_constraints(p, &s);
        let d = [0.5, 0.5, 0.0];
        let direct = 0.5 * awgn_capacity(p * s.gab());
        let relay_a = 0.5 * awgn_capacity(p * s.gar());
        let max_ra = direct.min(relay_a);
        assert!(set.all_satisfied(max_ra - 1e-9, 0.0, &d, 1e-9));
        assert!(!set.all_satisfied(max_ra + 1e-3, 0.0, &d, 1e-9));
    }
}
