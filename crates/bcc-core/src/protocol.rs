//! Protocol definitions: phase structure and half-duplex schedules.
//!
//! Encodes Fig. 2 of the paper. All protocols have *contiguous* phases
//! (performed consecutively, never interleaved — Section II-C), and it is
//! assumed that every node listens whenever it is not transmitting, which
//! is what creates the side information exploited by TDBC and HBC.

use bcc_channel::halfduplex::PhaseActivity;
use bcc_channel::NodeId;
use std::fmt;

/// Which side of a performance bound to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// Achievable (inner) region — Theorems 2, 3, 5.
    Inner,
    /// Converse (outer) region — Theorems 2, 4, 6.
    Outer,
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Inner => write!(f, "inner"),
            Bound::Outer => write!(f, "outer"),
        }
    }
}

/// The four transmission strategies analysed in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Direct transmission without the relay: `a→b` then `b→a` (Fig. 2 DT).
    DirectTransmission,
    /// Multiple-access broadcast, 2 phases: both terminals transmit to the
    /// relay simultaneously, then the relay broadcasts `w_a ⊕ w_b`
    /// (Fig. 2 MABC). No terminal acquires side information.
    Mabc,
    /// Time-division broadcast, 3 phases: `a` alone, `b` alone, relay
    /// broadcast (Fig. 2 TDBC). Each terminal overhears the other's uplink.
    Tdbc,
    /// Hybrid broadcast, 4 phases: `a` alone, `b` alone, joint MAC to the
    /// relay, relay broadcast (Fig. 2 HBC). Subsumes MABC (Δ₁=Δ₂=0) and
    /// TDBC (Δ₃=0).
    Hbc,
}

impl Protocol {
    /// All protocols in presentation order.
    pub const ALL: [Protocol; 4] = [
        Protocol::DirectTransmission,
        Protocol::Mabc,
        Protocol::Tdbc,
        Protocol::Hbc,
    ];

    /// The relay-assisted protocols (everything except direct transmission).
    pub const RELAYED: [Protocol; 3] = [Protocol::Mabc, Protocol::Tdbc, Protocol::Hbc];

    /// This protocol's position in [`Protocol::ALL`] — a dense index for
    /// constant-time keyed storage (see [`ProtocolMap`]).
    pub const fn index(self) -> usize {
        match self {
            Protocol::DirectTransmission => 0,
            Protocol::Mabc => 1,
            Protocol::Tdbc => 2,
            Protocol::Hbc => 3,
        }
    }

    /// Number of phases `L` (durations `Δ_1..Δ_L` sum to one).
    pub fn num_phases(self) -> usize {
        match self {
            Protocol::DirectTransmission | Protocol::Mabc => 2,
            Protocol::Tdbc => 3,
            Protocol::Hbc => 4,
        }
    }

    /// Short name used in tables and plots.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::DirectTransmission => "DT",
            Protocol::Mabc => "MABC",
            Protocol::Tdbc => "TDBC",
            Protocol::Hbc => "HBC",
        }
    }

    /// The transmit schedule of each phase (Fig. 2 of the paper).
    ///
    /// Every node not listed as a transmitter listens during that phase —
    /// the half-duplex rule is enforced by
    /// [`PhaseActivity`].
    pub fn phases(self) -> Vec<PhaseActivity> {
        use NodeId::*;
        let schedule: &[&[NodeId]] = match self {
            Protocol::DirectTransmission => &[&[A], &[B]],
            Protocol::Mabc => &[&[A, B], &[R]],
            Protocol::Tdbc => &[&[A], &[B], &[R]],
            Protocol::Hbc => &[&[A], &[B], &[A, B], &[R]],
        };
        schedule
            .iter()
            .map(|tx| PhaseActivity::new(tx).expect("static schedules are valid"))
            .collect()
    }

    /// `true` if a terminal can overhear the other terminal's *uplink to
    /// the relay* in some phase (the "side information" mechanism of
    /// TDBC/HBC). Direct transmission has no relay, hence no side
    /// information in the paper's sense — the overheard signal *is* the
    /// transmission.
    pub fn has_side_information(self) -> bool {
        self.uses_relay()
            && self
                .phases()
                .iter()
                .any(|p| p.can_hear(NodeId::B, NodeId::A) || p.can_hear(NodeId::A, NodeId::B))
    }

    /// `true` if the protocol uses the relay at all.
    pub fn uses_relay(self) -> bool {
        self.phases().iter().any(|p| p.is_transmitting(NodeId::R))
    }

    /// Renders the protocol's schedule as an ASCII diagram in the style of
    /// the paper's Fig. 2 (rows = nodes, columns = phases, `█` =
    /// transmitting, `·` = listening).
    pub fn schedule_diagram(self) -> String {
        let phases = self.phases();
        let mut out = String::new();
        out.push_str(&format!("{} ({} phases)\n", self.name(), phases.len()));
        out.push_str("      ");
        for (i, _) in phases.iter().enumerate() {
            out.push_str(&format!("ph{:<2} ", i + 1));
        }
        out.push('\n');
        for node in NodeId::ALL {
            out.push_str(&format!("  {}:  ", node));
            for p in &phases {
                out.push_str(if p.is_transmitting(node) {
                    "███  "
                } else {
                    "·    "
                });
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A dense map from [`Protocol`] to `T` with O(1) lookup.
///
/// The result types of the `Scenario`/`Evaluator` API store per-protocol
/// series in one of these instead of position-searching `Protocol::ALL`
/// on every access.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProtocolMap<T> {
    slots: [Option<T>; 4],
}

impl<T> ProtocolMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        ProtocolMap {
            slots: [None, None, None, None],
        }
    }

    /// Inserts (or replaces) the entry for `protocol`, returning the old
    /// value if any.
    pub fn insert(&mut self, protocol: Protocol, value: T) -> Option<T> {
        self.slots[protocol.index()].replace(value)
    }

    /// The entry for `protocol`, if present.
    pub fn get(&self, protocol: Protocol) -> Option<&T> {
        self.slots[protocol.index()].as_ref()
    }

    /// Mutable access to the entry for `protocol`, if present.
    pub fn get_mut(&mut self, protocol: Protocol) -> Option<&mut T> {
        self.slots[protocol.index()].as_mut()
    }

    /// `true` if `protocol` has an entry.
    pub fn contains(&self, protocol: Protocol) -> bool {
        self.slots[protocol.index()].is_some()
    }

    /// Number of populated entries.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// `true` if no protocol has an entry.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }

    /// Iterates populated `(protocol, value)` pairs in [`Protocol::ALL`]
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Protocol, &T)> {
        Protocol::ALL
            .into_iter()
            .filter_map(|p| self.slots[p.index()].as_ref().map(|v| (p, v)))
    }
}

/// `protocols` as a list, checked the way every scenario builder checks
/// its protocol set: non-empty, and no protocol named twice (a duplicate
/// would solve every point twice).
///
/// # Panics
///
/// Panics if `protocols` is empty or contains duplicates.
pub(crate) fn protocol_set(protocols: impl IntoIterator<Item = Protocol>) -> Vec<Protocol> {
    let protocols: Vec<Protocol> = protocols.into_iter().collect();
    assert!(!protocols.is_empty(), "need at least one protocol");
    let mut seen = ProtocolMap::new();
    for &p in &protocols {
        assert!(seen.insert(p, ()).is_none(), "duplicate protocol {p}");
    }
    protocols
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_counts_match_paper() {
        assert_eq!(Protocol::DirectTransmission.num_phases(), 2);
        assert_eq!(Protocol::Mabc.num_phases(), 2);
        assert_eq!(Protocol::Tdbc.num_phases(), 3);
        assert_eq!(Protocol::Hbc.num_phases(), 4);
        for p in Protocol::ALL {
            assert_eq!(p.phases().len(), p.num_phases());
        }
    }

    #[test]
    fn mabc_has_no_side_information() {
        // Paper Section II-C: "neither node a nor node b is able to receive
        // any meaningful side-information during the first phase".
        assert!(!Protocol::Mabc.has_side_information());
        assert!(!Protocol::DirectTransmission.has_side_information());
        assert!(Protocol::Tdbc.has_side_information());
        assert!(Protocol::Hbc.has_side_information());
    }

    #[test]
    fn relay_usage() {
        assert!(!Protocol::DirectTransmission.uses_relay());
        for p in Protocol::RELAYED {
            assert!(p.uses_relay(), "{p} should use the relay");
        }
    }

    #[test]
    fn relay_transmits_only_in_final_phase() {
        for p in Protocol::RELAYED {
            let phases = p.phases();
            for (i, ph) in phases.iter().enumerate() {
                let is_last = i + 1 == phases.len();
                assert_eq!(
                    ph.is_transmitting(NodeId::R),
                    is_last,
                    "{p} phase {i}: relay broadcast must be the last phase"
                );
            }
        }
    }

    #[test]
    fn mabc_first_phase_is_mac() {
        let phases = Protocol::Mabc.phases();
        assert_eq!(phases[0].transmitters(), &[NodeId::A, NodeId::B]);
        assert_eq!(phases[0].listeners(), vec![NodeId::R]);
    }

    #[test]
    fn hbc_embeds_tdbc_and_mabc_phases() {
        let hbc = Protocol::Hbc.phases();
        let tdbc = Protocol::Tdbc.phases();
        let mabc = Protocol::Mabc.phases();
        // HBC phases 1,2,4 = TDBC phases 1,2,3; HBC phases 3,4 = MABC 1,2.
        assert_eq!(hbc[0], tdbc[0]);
        assert_eq!(hbc[1], tdbc[1]);
        assert_eq!(hbc[3], tdbc[2]);
        assert_eq!(hbc[2], mabc[0]);
        assert_eq!(hbc[3], mabc[1]);
    }

    #[test]
    fn diagram_mentions_every_node_and_phase() {
        for p in Protocol::ALL {
            let d = p.schedule_diagram();
            for node in ["a:", "b:", "r:"] {
                assert!(d.contains(node), "{p} diagram missing row {node}\n{d}");
            }
            assert!(d.contains(&format!("ph{}", p.num_phases())));
        }
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Protocol::Mabc.to_string(), "MABC");
        assert_eq!(Bound::Inner.to_string(), "inner");
        assert_eq!(Bound::Outer.to_string(), "outer");
    }

    #[test]
    fn index_matches_all_order() {
        for (i, p) in Protocol::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn protocol_map_basic_operations() {
        let mut m: ProtocolMap<u32> = ProtocolMap::new();
        assert!(m.is_empty());
        assert!(m.insert(Protocol::Hbc, 4).is_none());
        assert!(m.insert(Protocol::Mabc, 2).is_none());
        assert_eq!(m.insert(Protocol::Mabc, 20), Some(2));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(Protocol::Mabc), Some(&20));
        assert!(m.get(Protocol::Tdbc).is_none());
        assert!(m.contains(Protocol::Hbc));
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, vec![(Protocol::Mabc, &20), (Protocol::Hbc, &4)]);
        *m.get_mut(Protocol::Hbc).unwrap() += 1;
        assert_eq!(m.get(Protocol::Hbc), Some(&5));
    }
}
