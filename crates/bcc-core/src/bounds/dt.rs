//! Direct transmission (DT): the relayless two-way TDMA baseline.
//!
//! With a memoryless channel the capacity region (Section II-C of the
//! paper) is
//!
//! ```text
//! R_a ≤ Δ₁ · C(P·G_ab)        (a → b in phase 1)
//! R_b ≤ Δ₂ · C(P·G_ab)        (b → a in phase 2)
//! ```
//!
//! Inner and outer bounds coincide — this is the exact capacity region of
//! the strategy.

use crate::bounds::LinkCaps;
use crate::constraint::{ConstraintSet, RateConstraint};
use bcc_channel::{ChannelState, PowerSplit};

/// Builds the DT capacity constraints at power `power` and channel `state`.
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
    let c_a = caps.c_a_ab;
    let c_b = caps.c_b_ab;
    set.reset(2, "DT capacity");
    set.push(RateConstraint::new(
        1.0,
        0.0,
        [c_a, 0.0],
        "DT: b decodes Wa (phase 1 direct link)",
    ));
    set.push(RateConstraint::new(
        0.0,
        1.0,
        [0.0, c_b],
        "DT: a decodes Wb (phase 2 direct link)",
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::constraint_sets_split;
    use crate::protocol::{Bound, Protocol};
    use bcc_num::approx_eq;

    #[test]
    fn symmetric_in_the_direct_gain_only() {
        // Relay gains must not matter for DT.
        let s1 = ChannelState::new(2.0, 100.0, 0.01);
        let s2 = ChannelState::new(2.0, 0.5, 7.0);
        assert_eq!(
            capacity_constraints(3.0, &s1),
            capacity_constraints(3.0, &s2)
        );
    }

    #[test]
    fn full_time_to_one_user_gives_point_to_point_capacity() {
        let state = ChannelState::new(1.0, 1.0, 1.0);
        let set = capacity_constraints(15.0, &state);
        // Δ = (1, 0): Ra can reach C(15) = 4 bits, Rb must be 0.
        assert!(set.all_satisfied(4.0, 0.0, &[1.0, 0.0], 1e-9));
        assert!(!set.all_satisfied(4.01, 0.0, &[1.0, 0.0], 1e-9));
        assert!(!set.all_satisfied(0.0, 0.1, &[1.0, 0.0], 1e-9));
    }

    #[test]
    fn equal_split_halves_each_rate() {
        let state = ChannelState::new(1.0, 1.0, 1.0);
        let set = capacity_constraints(15.0, &state);
        assert!(set.all_satisfied(2.0, 2.0, &[0.5, 0.5], 1e-9));
        assert!(!set.all_satisfied(2.1, 2.0, &[0.5, 0.5], 1e-9));
    }

    fn split(powers: PowerSplit, state: &ChannelState) -> ConstraintSet {
        constraint_sets_split(Protocol::DirectTransmission, Bound::Inner, &powers, state).remove(0)
    }

    #[test]
    fn split_reduces_to_symmetric_at_equal_powers() {
        let state = ChannelState::new(2.0, 1.0, 1.0);
        assert_eq!(
            split(PowerSplit::symmetric(5.0), &state),
            capacity_constraints(5.0, &state)
        );
    }

    #[test]
    fn split_uses_transmitter_power_per_direction() {
        let state = ChannelState::new(1.0, 1.0, 1.0);
        let set = split(PowerSplit::new(3.0, 15.0, 100.0), &state);
        // Phase 1 (a transmits) sees p_a, phase 2 (b transmits) sees p_b;
        // the relay power never appears.
        assert!(approx_eq(set.constraints()[0].phase_coefs[0], 2.0, 1e-12));
        assert!(approx_eq(set.constraints()[1].phase_coefs[1], 4.0, 1e-12));
    }

    #[test]
    fn zero_power_kills_both_rates() {
        let set = capacity_constraints(0.0, &ChannelState::new(1.0, 1.0, 1.0));
        for c in set.constraints() {
            assert!(approx_eq(c.rhs(&[0.5, 0.5]), 0.0, 1e-12));
        }
    }
}
