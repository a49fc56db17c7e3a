//! Theorem 2 — the capacity region of the MABC protocol.
//!
//! Phase 1 (duration Δ₁): `a` and `b` transmit simultaneously; the relay
//! decodes **both** messages (a multiple-access channel). Phase 2
//! (duration Δ₂): the relay broadcasts `w_r = ŵ_a ⊕ ŵ_b` in the group
//! `L = max(⌊2^{nR_a}⌋, ⌊2^{nR_b}⌋)`; each terminal strips its own message
//! off the XOR. Because the terminals never listen while the other
//! transmits, there is **no side information** and the direct gain `G_ab`
//! does not appear anywhere.
//!
//! In the Gaussian case the region is
//!
//! ```text
//! R_a ≤ min( Δ₁·C(P·G_ar), Δ₂·C(P·G_br) )
//! R_b ≤ min( Δ₁·C(P·G_br), Δ₂·C(P·G_ar) )
//! R_a + R_b ≤ Δ₁·C(P·G_ar + P·G_br)
//! ```
//!
//! Inner and outer bounds **coincide** (the paper's headline exact result);
//! [`capacity_constraints`] therefore serves both. Per the remark after
//! Theorem 2, if the relay is *not* required to decode both messages,
//! dropping the sum-rate row still upper-bounds any such scheme —
//! [`relaxed_outer_constraints`] exposes that variant.

use crate::bounds::LinkCaps;
use crate::constraint::{ConstraintSet, RateConstraint};
use bcc_channel::{ChannelState, PowerSplit};

/// Builds the Theorem-2 capacity region constraints.
///
/// # Panics
///
/// Panics if `power < 0`.
pub fn capacity_constraints(power: f64, state: &ChannelState) -> ConstraintSet {
    assert!(power >= 0.0, "transmit power must be non-negative");
    let mut set = ConstraintSet::new(2, "");
    let caps = LinkCaps::compute(&PowerSplit::symmetric(power), state);
    capacity_constraints_from_caps_into(&caps, &mut set);
    set
}

/// Rebuilds `set` in place from precomputed link capacities (arena
/// reuse — no heap allocation after warm-up).
pub fn capacity_constraints_from_caps_into(caps: &LinkCaps, set: &mut ConstraintSet) {
    let c_ar = caps.c_a_ar;
    let c_br = caps.c_b_br;
    let c_bc_b = caps.c_r_br;
    let c_bc_a = caps.c_r_ar;
    let c_mac = caps.c_mac;

    set.reset(2, "MABC capacity (Thm 2)");
    set.push(RateConstraint::new(
        1.0,
        0.0,
        [c_ar, 0.0],
        "Thm 2: relay decodes Wa in MAC phase (cut {a})",
    ));
    set.push(RateConstraint::new(
        1.0,
        0.0,
        [0.0, c_bc_b],
        "Thm 2: b decodes broadcast (cut {a,r})",
    ));
    set.push(RateConstraint::new(
        0.0,
        1.0,
        [c_br, 0.0],
        "Thm 2: relay decodes Wb in MAC phase (cut {b})",
    ));
    set.push(RateConstraint::new(
        0.0,
        1.0,
        [0.0, c_bc_a],
        "Thm 2: a decodes broadcast (cut {b,r})",
    ));
    set.push(RateConstraint::new(
        1.0,
        1.0,
        [c_mac, 0.0],
        "Thm 2: MAC sum rate at relay (cut {a,b})",
    ));
}

/// The relaxed outer bound of the remark after Theorem 2 (relay not
/// required to decode both messages): the Theorem-2 region **without** the
/// MAC sum-rate row.
pub fn relaxed_outer_constraints(power: f64, state: &ChannelState) -> ConstraintSet {
    let full = capacity_constraints(power, state);
    let mut set = ConstraintSet::new(2, "MABC relaxed outer (Thm 2 remark)");
    for c in full.constraints() {
        if !(c.ra == 1.0 && c.rb == 1.0) {
            set.push(c.clone());
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::constraint_sets_split;
    use crate::protocol::{Bound, Protocol};
    use bcc_info::awgn_capacity;
    use bcc_num::approx_eq;

    fn fig4_state() -> ChannelState {
        // Fig. 4 gains: Gab = -7 dB, Gar = 0 dB, Gbr = 5 dB.
        ChannelState::new(0.19952623149688797, 1.0, 3.1622776601683795)
    }

    #[test]
    fn direct_gain_never_appears() {
        let p = 10.0;
        let weak_direct = ChannelState::new(1e-6, 2.0, 3.0);
        let strong_direct = ChannelState::new(1e6, 2.0, 3.0);
        assert_eq!(
            capacity_constraints(p, &weak_direct),
            capacity_constraints(p, &strong_direct),
            "MABC must be blind to Gab (no side information)"
        );
    }

    #[test]
    fn row_count_and_shape() {
        let set = capacity_constraints(1.0, &fig4_state());
        assert_eq!(set.constraints().len(), 5);
        assert_eq!(set.num_phases(), 2);
        // Exactly one sum-rate row.
        let sums = set
            .constraints()
            .iter()
            .filter(|c| c.ra == 1.0 && c.rb == 1.0)
            .count();
        assert_eq!(sums, 1);
    }

    #[test]
    fn mac_sum_row_is_subadditive_bound() {
        let p = 10.0;
        let s = fig4_state();
        let set = capacity_constraints(p, &s);
        let sum_row = set
            .constraints()
            .iter()
            .find(|c| c.ra == 1.0 && c.rb == 1.0)
            .expect("sum row");
        let c_ar = awgn_capacity(p * s.gar());
        let c_br = awgn_capacity(p * s.gbr());
        // C(x+y) ≤ C(x) + C(y): the MAC constraint binds below the naive sum.
        assert!(sum_row.phase_coefs[0] <= c_ar + c_br);
        assert!(sum_row.phase_coefs[0] >= c_ar.max(c_br));
    }

    #[test]
    fn symmetric_network_symmetric_region() {
        let s = ChannelState::new(1.0, 2.5, 2.5);
        let set = capacity_constraints(4.0, &s);
        // With Gar = Gbr, swapping (Ra, Rb) leaves satisfaction unchanged.
        let d = [0.6, 0.4];
        for (ra, rb) in [(0.3, 0.9), (0.9, 0.3), (0.5, 0.5)] {
            assert_eq!(
                set.all_satisfied(ra, rb, &d, 1e-12),
                set.all_satisfied(rb, ra, &d, 1e-12)
            );
        }
    }

    #[test]
    fn relaxed_outer_drops_only_sum_row() {
        let s = fig4_state();
        let full = capacity_constraints(2.0, &s);
        let relaxed = relaxed_outer_constraints(2.0, &s);
        assert_eq!(relaxed.constraints().len(), full.constraints().len() - 1);
        assert!(relaxed
            .constraints()
            .iter()
            .all(|c| !(c.ra == 1.0 && c.rb == 1.0)));
    }

    fn split(powers: PowerSplit, state: &ChannelState) -> ConstraintSet {
        constraint_sets_split(Protocol::Mabc, Bound::Inner, &powers, state).remove(0)
    }

    #[test]
    fn split_reduces_to_symmetric_at_equal_powers() {
        let s = fig4_state();
        assert_eq!(
            split(PowerSplit::symmetric(7.0), &s),
            capacity_constraints(7.0, &s)
        );
    }

    #[test]
    fn silent_relay_kills_broadcast_rows_only() {
        // p_r = 0: the MAC-phase rows survive, the broadcast rows collapse.
        let s = fig4_state();
        let set = split(PowerSplit::new(10.0, 10.0, 0.0), &s);
        assert!(set.constraints()[0].phase_coefs[0] > 0.0, "MAC row alive");
        assert_eq!(set.constraints()[1].phase_coefs[1], 0.0, "b broadcast dead");
        assert_eq!(set.constraints()[3].phase_coefs[1], 0.0, "a broadcast dead");
    }

    #[test]
    fn weak_relay_link_throttles_rate() {
        // Gbr tiny: b can hardly be served, and the relay can hardly hear b.
        let s = ChannelState::new(1.0, 10.0, 1e-9);
        let set = capacity_constraints(10.0, &s);
        // Ra ≤ Δ2 C(P·Gbr) ≈ 0 → at Δ=(0.5,0.5) any visible Ra violates.
        assert!(!set.all_satisfied(0.01, 0.0, &[0.5, 0.5], 1e-12));
        assert!(set.all_satisfied(1e-10, 0.0, &[0.5, 0.5], 1e-9));
    }

    #[test]
    fn capacity_values_at_unit_gains() {
        // P = 1, all gains 1: C(1) = 1, C(2) = log2(3).
        let set = capacity_constraints(1.0, &ChannelState::new(1.0, 1.0, 1.0));
        let sum_row = &set.constraints()[4];
        assert!(approx_eq(sum_row.phase_coefs[0], 3f64.log2(), 1e-12));
        assert!(approx_eq(set.constraints()[0].phase_coefs[0], 1.0, 1e-12));
    }
}
