//! Theorem-by-theorem constraint builders for the Gaussian case.
//!
//! Every submodule evaluates one protocol's inner/outer bound at a given
//! transmit power `P` and channel state `(G_ab, G_ar, G_br)`, producing a
//! [`ConstraintSet`] whose rows are
//! linear in `(R_a, R_b, Δ_1..Δ_L)`:
//!
//! * [`dt`] — direct transmission (two-way TDMA baseline, no relay).
//! * [`mabc`] — **Theorem 2**: the exact capacity region of the two-phase
//!   multiple-access broadcast protocol.
//! * [`tdbc`] — **Theorem 3** (achievable) and **Theorem 4** (outer) for
//!   the three-phase time-division broadcast protocol.
//! * [`hbc`] — **Theorem 5** (achievable) and the Gaussian-restricted
//!   **Theorem 6** family (outer, parameterised by the phase-3 input
//!   correlation ρ) for the four-phase hybrid protocol.
//!
//! Two baselines beyond the paper's theorems round out the comparison:
//!
//! * [`naive`] — four-phase forwarding without network coding
//!   (Fig. 1(ii)), provably contained in the MABC region.
//! * [`af`] — two-phase amplify-and-forward (the paper's refs \[7\]–\[9\]),
//!   the non-decoding competitor to Theorem 2.
//!
//! All mutual informations are evaluated with jointly Gaussian codebooks,
//! which maximises each term individually under the per-phase power
//! constraint (the argument the paper uses to justify `|Q| = 1` in
//! Section IV).

pub mod af;
pub mod dt;
pub mod hbc;
pub mod mabc;
pub mod naive;
pub mod tdbc;

use crate::constraint::{ConstraintBuf, ConstraintSet};
use crate::protocol::{Bound, Protocol};
use bcc_channel::{ChannelState, PowerSplit};
use bcc_info::awgn_capacity;
use bcc_info::gaussian::mac_sum_capacity;

/// The seven distinct link capacities every **inner** bound of the four
/// protocols is assembled from, evaluated once per operating point.
///
/// A full-protocol grid point used to evaluate `log2(1 + SNR)` 22 times
/// across the four builders; these seven values cover all of them
/// (outer bounds add cut/correlated terms and stay on their own
/// builders). Every inner builder reads its capacities from here, and
/// [`SolveCtx`](crate::kernel::SolveCtx) memoises one `LinkCaps` per
/// `(powers, state)`, so the per-point cost across protocols is paid
/// once and memoised and fresh builds are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCaps {
    /// `C(p_a·G_ab)` — a's direct link.
    pub c_a_ab: f64,
    /// `C(p_b·G_ab)` — b's direct link.
    pub c_b_ab: f64,
    /// `C(p_a·G_ar)` — a's relay uplink.
    pub c_a_ar: f64,
    /// `C(p_b·G_br)` — b's relay uplink.
    pub c_b_br: f64,
    /// `C(p_r·G_ar)` — relay broadcast towards a.
    pub c_r_ar: f64,
    /// `C(p_r·G_br)` — relay broadcast towards b.
    pub c_r_br: f64,
    /// `C(p_a·G_ar + p_b·G_br)` — the MAC sum capacity at the relay.
    pub c_mac: f64,
}

impl LinkCaps {
    /// Evaluates the seven capacities at one operating point.
    pub fn compute(powers: &PowerSplit, state: &ChannelState) -> Self {
        Self::at(
            [powers.p_a(), powers.p_b(), powers.p_r()],
            [state.gab(), state.gar(), state.gbr()],
        )
    }

    /// The seven capacities at powers `[p_a, p_b, p_r]` and gains
    /// `[G_ab, G_ar, G_br]`, with one `log2(1 + x)` per distinct SNR.
    ///
    /// Two node powers with equal bits make equal SNR products on a
    /// shared gain, so `c_b_ab` reuses `c_a_ab` when `p_b = p_a`, `c_r_ar`
    /// reuses `c_a_ar` when `p_r = p_a`, and `c_r_br` reuses `c_b_br` when
    /// `p_r = p_b`: the same bits for fewer logarithms (4 instead of 7 at
    /// a symmetric split). The test is on bits, not `==`: +0.0 and −0.0
    /// powers give capacities of different sign.
    #[inline]
    pub(crate) fn at([pa, pb, pr]: [f64; 3], [gab, gar, gbr]: [f64; 3]) -> Self {
        let snr_ar = pa * gar;
        let snr_br = pb * gbr;
        let c_a_ab = awgn_capacity(pa * gab);
        let c_b_ab = if pb.to_bits() == pa.to_bits() {
            c_a_ab
        } else {
            awgn_capacity(pb * gab)
        };
        let c_a_ar = awgn_capacity(snr_ar);
        let c_b_br = awgn_capacity(snr_br);
        let c_r_ar = if pr.to_bits() == pa.to_bits() {
            c_a_ar
        } else {
            awgn_capacity(pr * gar)
        };
        let c_r_br = if pr.to_bits() == pb.to_bits() {
            c_b_br
        } else {
            awgn_capacity(pr * gbr)
        };
        LinkCaps {
            c_a_ab,
            c_b_ab,
            c_a_ar,
            c_b_br,
            c_r_ar,
            c_r_br,
            c_mac: mac_sum_capacity(snr_ar, snr_br),
        }
    }
}

/// Builds the inner (achievable) constraint set of `protocol` from
/// precomputed [`LinkCaps`] — the allocation-free per-point hot path.
pub fn inner_constraints_from_caps_into(
    protocol: Protocol,
    caps: &LinkCaps,
    set: &mut ConstraintSet,
) {
    match protocol {
        Protocol::DirectTransmission => dt::capacity_constraints_from_caps_into(caps, set),
        Protocol::Mabc => mabc::capacity_constraints_from_caps_into(caps, set),
        Protocol::Tdbc => tdbc::inner_constraints_from_caps_into(caps, set),
        Protocol::Hbc => hbc::inner_constraints_from_caps_into(caps, set),
    }
}

/// Dispatches to the right theorem for `(protocol, bound)` at the paper's
/// common per-node power `P` — shorthand for [`constraint_sets_split`]
/// with a symmetric split.
///
/// # Panics
///
/// Panics if `power < 0`.
pub fn constraint_sets(
    protocol: Protocol,
    bound: Bound,
    power: f64,
    state: &ChannelState,
) -> Vec<ConstraintSet> {
    assert!(power >= 0.0, "transmit power must be non-negative");
    constraint_sets_split(protocol, bound, &PowerSplit::symmetric(power), state)
}

/// Grid resolution of the HBC Theorem-6 ρ-family (the region is the union
/// over the correlation grid).
const HBC_OUTER_RHO_GRID: usize = 33;

/// Dispatches to the right theorem for `(protocol, bound)` with per-node
/// transmit powers — the entry point of the power-allocation studies.
///
/// For [`Protocol::Hbc`] with [`Bound::Outer`] this returns the
/// **ρ-family** of Gaussian-restricted Theorem-6 sets (the region is their
/// union); every other combination returns a single set. The paper itself
/// declines to evaluate the HBC outer bound numerically because the optimal
/// joint phase-3 input distribution is unknown — see DESIGN.md §2 for why
/// the Gaussian-restricted family is reported instead.
pub fn constraint_sets_split(
    protocol: Protocol,
    bound: Bound,
    powers: &PowerSplit,
    state: &ChannelState,
) -> Vec<ConstraintSet> {
    let mut buf = ConstraintBuf::new();
    constraint_sets_split_into(protocol, bound, powers, state, &mut buf);
    buf.into_sets()
}

/// [`constraint_sets_split`] rebuilding the family inside a reusable
/// [`ConstraintBuf`] arena and returning the built slice — the batch hot
/// loops' entry point: after the first call through a given arena, no heap
/// allocation is performed per rebuild.
pub fn constraint_sets_split_into<'a>(
    protocol: Protocol,
    bound: Bound,
    powers: &PowerSplit,
    state: &ChannelState,
    buf: &'a mut ConstraintBuf,
) -> &'a [ConstraintSet] {
    buf.begin();
    match (protocol, bound) {
        (Protocol::Tdbc, Bound::Outer) => {
            tdbc::outer_constraints_split_into(powers, state, buf.next_set());
        }
        (Protocol::Hbc, Bound::Outer) => {
            hbc::outer_constraint_family_split_into(powers, state, HBC_OUTER_RHO_GRID, buf);
        }
        // DT's and MABC's inner and outer bounds coincide.
        (_, Bound::Inner) | (Protocol::DirectTransmission | Protocol::Mabc, Bound::Outer) => {
            let caps = LinkCaps::compute(powers, state);
            inner_constraints_from_caps_into(protocol, &caps, buf.next_set());
        }
    }
    buf.sets()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ChannelState {
        ChannelState::new(0.19952623149688797, 1.0, 3.1622776601683795)
    }

    #[test]
    fn dispatch_phase_counts() {
        for proto in Protocol::ALL {
            for bound in [Bound::Inner, Bound::Outer] {
                for set in constraint_sets(proto, bound, 10.0, &state()) {
                    assert_eq!(set.num_phases(), proto.num_phases(), "{proto} {bound}");
                    assert!(!set.constraints().is_empty());
                }
            }
        }
    }

    #[test]
    fn hbc_outer_is_a_family() {
        let sets = constraint_sets(Protocol::Hbc, Bound::Outer, 10.0, &state());
        assert!(sets.len() > 1, "HBC outer should be a ρ-family");
        let singles = constraint_sets(Protocol::Tdbc, Bound::Outer, 10.0, &state());
        assert_eq!(singles.len(), 1);
    }
}
