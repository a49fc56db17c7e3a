//! The Gaussian bidirectional relay network of Section IV.
//!
//! Bundles the per-node transmit power `P` (noise normalised to 1) with the
//! reciprocal power gains and exposes the paper's quantities as methods:
//! constraint sets, rate regions and the sum-rate optimum of each protocol.

use crate::bounds;
use crate::constraint::PhaseVec;
use crate::error::CoreError;
use crate::protocol::{Bound, Protocol};
use crate::region::RateRegion;
use bcc_channel::{ChannelState, PowerSplit};
use bcc_num::Db;

/// A Gaussian three-node network: per-node powers and gains
/// `(G_ab, G_ar, G_br)`.
///
/// The paper's setting is a *common* per-node power `P`
/// ([`GaussianNetwork::new`]); power-allocation studies attach an
/// asymmetric [`PowerSplit`] via [`GaussianNetwork::with_powers`], and
/// every bound evaluates each information term at the transmitting node's
/// power.
///
/// ```
/// use bcc_core::gaussian::GaussianNetwork;
/// use bcc_core::protocol::Protocol;
/// use bcc_num::Db;
///
/// // Fig. 3 setting: P = 15 dB, Gab = 0 dB (relay gains chosen here).
/// let net = GaussianNetwork::from_db(Db::new(15.0), Db::new(0.0), Db::new(10.0), Db::new(10.0));
/// let dt = net.max_sum_rate(Protocol::DirectTransmission).unwrap();
/// let hbc = net.max_sum_rate(Protocol::Hbc).unwrap();
/// assert!(hbc.sum_rate >= dt.sum_rate);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianNetwork {
    powers: PowerSplit,
    state: ChannelState,
}

/// Sum-rate optimisation result for one protocol (Fig. 3 data point).
#[derive(Debug, Clone, PartialEq)]
pub struct SumRateSolution {
    /// The protocol optimised.
    pub protocol: Protocol,
    /// Optimal sum rate `R_a + R_b` in bits per channel use.
    pub sum_rate: f64,
    /// Rate of `w_a` at the optimum.
    pub ra: f64,
    /// Rate of `w_b` at the optimum.
    pub rb: f64,
    /// Optimal phase durations (inline [`PhaseVec`] — extracting a
    /// solution allocates nothing).
    pub durations: PhaseVec,
}

impl GaussianNetwork {
    /// Creates a network from a common per-node linear power and a channel
    /// state (the paper's convention).
    ///
    /// # Panics
    ///
    /// Panics if `power` is negative or non-finite.
    pub fn new(power: f64, state: ChannelState) -> Self {
        assert!(
            power.is_finite() && power >= 0.0,
            "transmit power must be finite and non-negative, got {power}"
        );
        GaussianNetwork {
            powers: PowerSplit::symmetric(power),
            state,
        }
    }

    /// Creates a network with an explicit per-node power split — the
    /// power-allocation constructor.
    pub fn with_powers(powers: PowerSplit, state: ChannelState) -> Self {
        GaussianNetwork { powers, state }
    }

    /// Creates a network from dB quantities (the paper's convention).
    pub fn from_db(power: Db, gab: Db, gar: Db, gbr: Db) -> Self {
        GaussianNetwork::new(power.to_linear(), ChannelState::from_db(gab, gar, gbr))
    }

    /// The common per-node transmit power (linear), or `None` if the
    /// network carries an asymmetric [`PowerSplit`] — there is no single
    /// "the power" then; use [`GaussianNetwork::powers`] for the per-node
    /// values. (This used to panic on asymmetric splits; callers that know
    /// the network is symmetric — the paper's convention — can `expect`.)
    pub fn power(&self) -> Option<f64> {
        self.powers.common()
    }

    /// The per-node transmit powers.
    pub fn powers(&self) -> PowerSplit {
        self.powers
    }

    /// The channel gains.
    pub fn state(&self) -> ChannelState {
        self.state
    }

    /// Same powers, different gains — how a quasi-static fading
    /// realisation is applied to a base network.
    pub fn with_state(&self, state: ChannelState) -> Self {
        GaussianNetwork {
            powers: self.powers,
            state,
        }
    }

    /// Same gains, common per-node power — the SNR-sweep constructor.
    pub fn with_power(&self, power: f64) -> Self {
        GaussianNetwork::new(power, self.state)
    }

    /// Same gains, different power split — the allocation-sweep
    /// constructor.
    pub fn with_split(&self, powers: PowerSplit) -> Self {
        GaussianNetwork::with_powers(powers, self.state)
    }

    /// Same gains, power given in dB.
    pub fn with_power_db(&self, power: Db) -> Self {
        self.with_power(power.to_linear())
    }

    /// The constraint-set family of `(protocol, bound)` at this network.
    pub fn constraint_sets(
        &self,
        protocol: Protocol,
        bound: Bound,
    ) -> Vec<crate::constraint::ConstraintSet> {
        bounds::constraint_sets_split(protocol, bound, &self.powers, &self.state)
    }

    /// The rate region of `(protocol, bound)`.
    pub fn region(&self, protocol: Protocol, bound: Bound) -> RateRegion {
        let sets = self.constraint_sets(protocol, bound);
        RateRegion::new(sets, format!("{protocol} {bound}"))
    }

    /// The exact capacity region, available where the paper proves one:
    /// direct transmission and MABC (Theorem 2). `None` for TDBC/HBC whose
    /// capacity is open.
    pub fn capacity_region(&self, protocol: Protocol) -> Option<RateRegion> {
        match protocol {
            Protocol::DirectTransmission | Protocol::Mabc => {
                Some(self.region(protocol, Bound::Inner))
            }
            Protocol::Tdbc | Protocol::Hbc => None,
        }
    }

    /// Optimal *achievable* sum rate of `protocol` over the phase
    /// durations (the quantity plotted in Fig. 3), by the closed-form
    /// kernel every protocol has ([`crate::kernel::max_sum_rate`]).
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` is kept for the existing callers.
    pub fn max_sum_rate(&self, protocol: Protocol) -> Result<SumRateSolution, CoreError> {
        Ok(crate::kernel::max_sum_rate(self, protocol))
    }

    /// Received SNR of the `a → r` link (`p_a·G_ar`).
    pub fn snr_ar(&self) -> f64 {
        self.powers.p_a() * self.state.gar()
    }

    /// Received SNR of the `b → r` link (`p_b·G_br`).
    pub fn snr_br(&self) -> f64 {
        self.powers.p_b() * self.state.gbr()
    }

    /// Received SNR of the `a → b` direct link (`p_a·G_ab`).
    pub fn snr_ab(&self) -> f64 {
        self.powers.p_a() * self.state.gab()
    }

    /// Received SNR of the `b → a` direct link (`p_b·G_ab`).
    pub fn snr_ba(&self) -> f64 {
        self.powers.p_b() * self.state.gab()
    }

    /// The network's reference SNR: mean per-node power against unit
    /// noise (`total / 3`), which equals `P` in the paper's symmetric
    /// setting. Finite-SNR DMT targets are rates `r·log2(1 + SNR_ref)`,
    /// so allocation studies that hold [`PowerSplit::total`] fixed compare
    /// splits at a fixed reference SNR.
    pub fn reference_snr(&self) -> f64 {
        self.powers.total() / 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_num::approx_eq;

    fn fig4_net(p_db: f64) -> GaussianNetwork {
        GaussianNetwork::from_db(Db::new(p_db), Db::new(-7.0), Db::new(0.0), Db::new(5.0))
    }

    #[test]
    fn snr_accessors() {
        // Fig. 4 gains: Gab = −7 dB, Gar = 0 dB, Gbr = 5 dB at P = 10 dB.
        let net = fig4_net(10.0);
        assert!(approx_eq(net.snr_ab(), 1.9952623149688795, 1e-9));
        assert!(approx_eq(net.snr_ar(), 10.0, 1e-9));
        assert!(approx_eq(net.snr_br(), 31.622776601683793, 1e-9));
    }

    #[test]
    fn hbc_dominates_special_cases_in_sum_rate() {
        for p_db in [-5.0, 0.0, 5.0, 10.0, 15.0] {
            let net = fig4_net(p_db);
            let hbc = net.max_sum_rate(Protocol::Hbc).unwrap().sum_rate;
            let mabc = net.max_sum_rate(Protocol::Mabc).unwrap().sum_rate;
            let tdbc = net.max_sum_rate(Protocol::Tdbc).unwrap().sum_rate;
            assert!(hbc >= mabc - 1e-8, "P={p_db} dB: HBC {hbc} < MABC {mabc}");
            assert!(hbc >= tdbc - 1e-8, "P={p_db} dB: HBC {hbc} < TDBC {tdbc}");
        }
    }

    #[test]
    fn dt_sum_rate_is_direct_capacity() {
        // DT: Ra + Rb = Δ1 C + Δ2 C = C(P·Gab) for any split.
        let net = fig4_net(10.0);
        let dt = net.max_sum_rate(Protocol::DirectTransmission).unwrap();
        assert!(approx_eq(
            dt.sum_rate,
            bcc_info::awgn_capacity(net.snr_ab()),
            1e-9
        ));
    }

    #[test]
    fn capacity_region_availability_matches_paper() {
        let net = fig4_net(0.0);
        assert!(net.capacity_region(Protocol::DirectTransmission).is_some());
        assert!(net.capacity_region(Protocol::Mabc).is_some());
        assert!(net.capacity_region(Protocol::Tdbc).is_none());
        assert!(net.capacity_region(Protocol::Hbc).is_none());
    }

    #[test]
    fn with_power_rescales_only_power() {
        let net = fig4_net(0.0);
        let boosted = net.with_power_db(Db::new(20.0));
        assert_eq!(net.state(), boosted.state());
        assert!(approx_eq(boosted.power().unwrap(), 100.0, 1e-9));
        // Monotonicity: more power, no smaller sum rate.
        for proto in Protocol::ALL {
            let lo = net.max_sum_rate(proto).unwrap().sum_rate;
            let hi = boosted.max_sum_rate(proto).unwrap().sum_rate;
            assert!(hi >= lo, "{proto}: {hi} < {lo}");
        }
    }

    #[test]
    fn sum_rate_solution_components_add_up() {
        let net = fig4_net(10.0);
        for proto in Protocol::ALL {
            let sol = net.max_sum_rate(proto).unwrap();
            assert!(approx_eq(sol.sum_rate, sol.ra + sol.rb, 1e-8), "{proto}");
            let total: f64 = sol.durations.iter().sum();
            assert!(approx_eq(total, 1.0, 1e-8), "{proto} durations");
            assert_eq!(sol.durations.len(), proto.num_phases());
        }
    }

    #[test]
    fn asymmetric_split_round_trip_and_power_none() {
        let split = PowerSplit::new(2.0, 6.0, 12.0);
        let net = GaussianNetwork::with_powers(split, ChannelState::new(1.0, 2.0, 3.0));
        assert_eq!(net.powers(), split);
        assert!(approx_eq(net.snr_ab(), 2.0, 1e-12));
        assert!(approx_eq(net.snr_ba(), 6.0, 1e-12));
        assert!(approx_eq(net.snr_ar(), 4.0, 1e-12));
        assert!(approx_eq(net.snr_br(), 18.0, 1e-12));
        assert!(approx_eq(net.reference_snr(), 20.0 / 3.0, 1e-12));
        assert_eq!(net.power(), None, "asymmetric split has no common power");
        assert_eq!(net.with_power(2.0).power(), Some(2.0));
    }

    #[test]
    fn with_state_preserves_powers() {
        let split = PowerSplit::from_shares(30.0, 0.5, 0.25);
        let net = GaussianNetwork::with_powers(split, ChannelState::new(1.0, 1.0, 1.0));
        let faded = net.with_state(net.state().faded(0.5, 2.0, 1.0));
        assert_eq!(faded.powers(), split);
        assert!(approx_eq(faded.state().gab(), 0.5, 1e-12));
    }

    #[test]
    fn symmetric_split_matches_common_power_solutions() {
        // The split path at equal powers must reproduce the paper's
        // common-power results exactly.
        let state = ChannelState::new(0.19952623149688797, 1.0, 3.1622776601683795);
        let classic = GaussianNetwork::new(10.0, state);
        let split = GaussianNetwork::with_powers(PowerSplit::symmetric(10.0), state);
        for proto in Protocol::ALL {
            let a = classic.max_sum_rate(proto).unwrap();
            let b = split.max_sum_rate(proto).unwrap();
            assert_eq!(a, b, "{proto}");
        }
    }

    #[test]
    fn relay_power_is_useless_to_direct_transmission() {
        let state = ChannelState::new(1.0, 1.0, 1.0);
        let all_at_relay = GaussianNetwork::with_powers(PowerSplit::new(0.0, 0.0, 30.0), state);
        let dt = all_at_relay
            .max_sum_rate(Protocol::DirectTransmission)
            .unwrap();
        assert!(approx_eq(dt.sum_rate, 0.0, 1e-9));
        let at_terminals = GaussianNetwork::with_powers(PowerSplit::new(15.0, 15.0, 0.0), state);
        let dt2 = at_terminals
            .max_sum_rate(Protocol::DirectTransmission)
            .unwrap();
        assert!(dt2.sum_rate > 3.9, "C(15) ≈ 4 bits split over two phases");
    }

    #[test]
    fn zero_power_network_has_zero_rates() {
        let net = GaussianNetwork::new(0.0, ChannelState::new(1.0, 1.0, 1.0));
        for proto in Protocol::ALL {
            let sol = net.max_sum_rate(proto).unwrap();
            assert!(approx_eq(sol.sum_rate, 0.0, 1e-9), "{proto}");
        }
    }
}
