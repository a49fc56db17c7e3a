//! Channel-state quantization: the dB grid that turns "near-identical"
//! queries into *identical* cache keys.
//!
//! Power gains and per-node powers span orders of magnitude, so the
//! natural snapping grid is logarithmic: a gain `g > 0` maps to the
//! integer index `round(10·log10(g) / step_db)` and back to the grid
//! value `10^(index·step_db/10)`. Two queries whose gains and powers land
//! on the same grid indices (and whose floor/bound match **exactly** —
//! QoS floors are contractual, never rounded) share a [`QuantKey`] and
//! therefore one cached decision.
//!
//! # Key first, grid point on a miss
//!
//! Snapping is two steps. [`QuantSpec::key`] takes one `log10` per gain
//! and power to find its grid index; that is all a cache hit computes.
//! [`QuantSpec::snapped`] decodes the grid point a key stands for — one
//! `powf` per index — and only a miss needs it. The snapped query is
//! decoded from the key's words alone, so equal keys mean equal snapped
//! queries by construction.
//!
//! # Exactness contract
//!
//! Quantization happens **before** the solve: a cache miss solves the
//! *snapped* query, and the cached decision is exactly that solve's
//! output. A later hit on the same key returns those bytes untouched, so
//! hits are bit-identical to the miss that populated them — the cache
//! trades *query* precision (bounded by `step_db/2` per link) for speed,
//! never *answer* precision at the quantized point. [`QuantSpec::strict`]
//! removes the query error too: keys are the exact f64 bit patterns, so
//! only bitwise-identical states share an entry.

use crate::query::{Priority, Query};
use bcc_channel::{ChannelState, PowerSplit};
use bcc_core::protocol::Bound;

/// Grid index of a zero gain/power (no finite dB value exists; zero is a
/// grid point of its own).
const ZERO_INDEX: i64 = i64::MIN;

/// How queries are snapped to cache keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantSpec {
    step_db: f64,
    strict: bool,
}

impl QuantSpec {
    /// The finest grid step [`db_grid`](QuantSpec::db_grid) accepts, in
    /// dB. Every positive finite f64 lies within 3233.1 dB of 0 dB, and
    /// 3233.1 / 2^53 ≈ 3.6e-13, so from this step on every grid index is
    /// exact in f64 and no positive value's index reaches the zero
    /// index. Finer steps saturate the index: distinct gains (zero among
    /// them) would share one key but snap to different values.
    pub const MIN_STEP_DB: f64 = 1e-12;

    /// Snap gains and powers to a dB grid of the given step (e.g. `0.25`
    /// dB). Smaller steps mean finer answers and fewer cache hits.
    ///
    /// # Panics
    ///
    /// Panics if `step_db` is not finite or is below
    /// [`MIN_STEP_DB`](QuantSpec::MIN_STEP_DB).
    pub fn db_grid(step_db: f64) -> Self {
        assert!(
            step_db.is_finite() && step_db >= Self::MIN_STEP_DB,
            "quantization step must be finite and at least {} dB, got {step_db}",
            Self::MIN_STEP_DB
        );
        QuantSpec {
            step_db,
            strict: false,
        }
    }

    /// Bypass quantization entirely: the key is the exact bit pattern of
    /// every gain and power, so only literal repeats hit the cache and
    /// every answer is computed at the caller's exact operating point.
    pub fn strict() -> Self {
        QuantSpec {
            step_db: 0.0,
            strict: true,
        }
    }

    /// `true` if this spec bypasses quantization.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// The grid step in dB, or `None` in strict mode.
    pub fn step_db(&self) -> Option<f64> {
        if self.strict {
            None
        } else {
            Some(self.step_db)
        }
    }

    /// The grid index of one linear gain/power.
    fn index(&self, v: f64) -> i64 {
        if self.strict {
            return v.to_bits() as i64;
        }
        if v <= 0.0 {
            return ZERO_INDEX;
        }
        (10.0 * v.log10() / self.step_db).round() as i64
    }

    /// The linear gain/power a key word stands for (identity on the bits
    /// in strict mode). A grid point beyond `f64::MAX` decodes to
    /// `f64::MAX`, the largest gain a [`ChannelState`] can hold.
    fn value(&self, word: u64) -> f64 {
        if self.strict {
            return f64::from_bits(word);
        }
        match word as i64 {
            ZERO_INDEX => 0.0,
            index => 10f64.powf(index as f64 * self.step_db / 10.0).min(f64::MAX),
        }
    }

    /// The cache key of a query: the six gain and power grid indices,
    /// plus the QoS floor and bound choice **exactly** (bit patterns).
    /// This is all a cache hit computes.
    pub fn key(&self, q: &Query) -> QuantKey {
        let s = q.state;
        let p = q.powers;
        let (fa, fb, has_floor) = match q.floor {
            Some((a, b)) => (a.to_bits(), b.to_bits(), true),
            None => (0, 0, false),
        };
        QuantKey {
            words: [
                self.index(s.gab()) as u64,
                self.index(s.gar()) as u64,
                self.index(s.gbr()) as u64,
                self.index(p.p_a()) as u64,
                self.index(p.p_b()) as u64,
                self.index(p.p_r()) as u64,
                fa,
                fb,
                u64::from(has_floor) | (u64::from(q.bound == Bound::Outer) << 1),
            ],
        }
    }

    /// The quantized query `key` stands for: the query a miss solves.
    /// Everything is decoded from the key's words, so equal keys give
    /// equal snapped queries by construction. Priority is not part of the
    /// key (it steers admission under overload, never the answer), so
    /// the snapped query has [`Priority::Normal`].
    pub fn snapped(&self, key: &QuantKey) -> Query {
        let [gab, gar, gbr, pa, pb, pr, fa, fb, tags] = key.words;
        let v = |w| self.value(w);
        Query {
            state: ChannelState::new(v(gab), v(gar), v(gbr)),
            powers: PowerSplit::new(v(pa), v(pb), v(pr)),
            floor: (tags & 1 == 1).then(|| (f64::from_bits(fa), f64::from_bits(fb))),
            bound: if tags & 2 == 2 {
                Bound::Outer
            } else {
                Bound::Inner
            },
            priority: Priority::Normal,
        }
    }

    /// A query's cache key and the quantized query the engine solves on a
    /// miss, with the caller's priority kept: [`key`](QuantSpec::key)
    /// then [`snapped`](QuantSpec::snapped).
    pub fn snap_query(&self, q: &Query) -> (QuantKey, Query) {
        let key = self.key(q);
        (key, self.snapped(&key).with_priority(q.priority))
    }
}

impl Default for QuantSpec {
    /// A 0.25 dB grid — fine enough that the snapped operating point is
    /// within 3% (linear) of the requested one on every link.
    fn default() -> Self {
        QuantSpec::db_grid(0.25)
    }
}

/// A quantized query identity: six snapped gain/power grid indices plus
/// the exact floor bits and bound tag. Everything the solve depends on is
/// in here — two queries with equal keys produce bitwise-equal decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantKey {
    words: [u64; 9],
}

impl QuantKey {
    /// A deterministic 64-bit hash of the key (SplitMix64 fold) — the
    /// cache's probe anchor. Hand-rolled so the table layout is identical
    /// on every run and platform (no per-process hasher seeds).
    pub fn hash64(&self) -> u64 {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
        for &w in &self.words {
            let mut z = h ^ w.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h = z ^ (z >> 31);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(gab: f64, gar: f64, gbr: f64, p: f64) -> Query {
        Query::new(ChannelState::new(gab, gar, gbr), PowerSplit::symmetric(p))
    }

    #[test]
    fn near_identical_states_share_a_key() {
        let spec = QuantSpec::db_grid(0.5);
        let (k1, s1) = spec.snap_query(&q(1.0, 2.0, 3.0, 10.0));
        // 0.1 dB perturbation on a 0.5 dB grid: same cell.
        let (k2, s2) = spec.snap_query(&q(1.0116, 2.0, 3.0, 10.0));
        assert_eq!(k1, k2);
        assert_eq!(s1, s2, "same key must mean same snapped query");
        // 1 dB apart: different cell.
        let (k3, _) = spec.snap_query(&q(1.2589, 2.0, 3.0, 10.0));
        assert_ne!(k1, k3);
    }

    #[test]
    fn snapped_values_lie_on_the_grid_and_near_the_input() {
        let spec = QuantSpec::db_grid(0.25);
        for g in [0.001, 0.5, 1.0, 3.1623, 999.0] {
            let (_, s) = spec.snap_query(&q(g, 1.0, 1.0, 1.0));
            let snapped = s.state.gab();
            let db_err = 10.0 * (snapped / g).log10();
            assert!(
                db_err.abs() <= 0.125 + 1e-9,
                "{g} snapped to {snapped}: {db_err} dB off"
            );
            // Idempotent: snapping a snapped value is a fixed point.
            let (_, s2) = spec.snap_query(&Query::new(s.state, s.powers));
            assert_eq!(s2.state.gab().to_bits(), snapped.to_bits());
        }
    }

    #[test]
    fn zero_gain_is_its_own_grid_point() {
        let spec = QuantSpec::db_grid(0.25);
        let (k0, s0) = spec.snap_query(&q(0.0, 1.0, 1.0, 1.0));
        assert_eq!(s0.state.gab(), 0.0);
        let (k_tiny, _) = spec.snap_query(&q(1e-300, 1.0, 1.0, 1.0));
        assert_ne!(k0, k_tiny, "a tiny positive gain is not zero");
    }

    #[test]
    fn strict_mode_keys_on_exact_bits() {
        let spec = QuantSpec::strict();
        assert!(spec.is_strict());
        assert_eq!(spec.step_db(), None);
        let (k1, s1) = spec.snap_query(&q(1.0, 2.0, 3.0, 10.0));
        let (k2, _) = spec.snap_query(&q(1.0, 2.0, 3.0, 10.0));
        assert_eq!(k1, k2, "literal repeats still share a key");
        let (k3, _) = spec.snap_query(&q(1.0 + 1e-12, 2.0, 3.0, 10.0));
        assert_ne!(k1, k3, "any bit difference separates keys");
        assert_eq!(s1, q(1.0, 2.0, 3.0, 10.0), "strict snapping is identity");
    }

    #[test]
    fn floor_and_bound_are_exact_key_components() {
        let spec = QuantSpec::default();
        let base = q(1.0, 2.0, 3.0, 10.0);
        let (k, _) = spec.snap_query(&base);
        let (kf, _) = spec.snap_query(&base.with_floor(0.1, 0.1));
        let (kf2, _) = spec.snap_query(&base.with_floor(0.1, 0.100000001));
        let (kb, _) = spec.snap_query(&base.with_bound(Bound::Outer));
        assert_ne!(k, kf);
        assert_ne!(kf, kf2, "floors are never rounded");
        assert_ne!(k, kb);
    }

    #[test]
    #[should_panic(expected = "quantization step")]
    fn db_grid_rejects_nan_step() {
        let _ = QuantSpec::db_grid(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "quantization step")]
    fn db_grid_rejects_infinite_step() {
        let _ = QuantSpec::db_grid(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "quantization step")]
    fn db_grid_rejects_non_positive_step() {
        let _ = QuantSpec::db_grid(0.0);
    }

    #[test]
    #[should_panic(expected = "quantization step")]
    fn db_grid_rejects_steps_whose_indices_saturate() {
        let _ = QuantSpec::db_grid(1e-17);
    }

    #[test]
    fn finest_grid_keeps_extreme_gains_apart() {
        let spec = QuantSpec::db_grid(QuantSpec::MIN_STEP_DB);
        let keys = [0.0, 5e-324, f64::MAX].map(|g| spec.key(&q(g, 1.0, 1.0, 1.0)));
        assert_ne!(keys[0], keys[1], "the least subnormal is not zero");
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
    }

    #[test]
    fn a_grid_point_beyond_f64_max_decodes_to_f64_max() {
        // On a 6 dB grid f64::MAX (3082.5 dB) rounds up to 3084 dB, whose
        // linear value overflows.
        let spec = QuantSpec::db_grid(6.0);
        let (_, s) = spec.snap_query(&q(f64::MAX, 1.0, 1.0, 1.0));
        assert_eq!(s.state.gab(), f64::MAX);
    }

    #[test]
    fn snap_query_keeps_the_priority_that_snapped_drops() {
        let spec = QuantSpec::default();
        let query = q(0.2, 1.0, 3.16, 10.0)
            .with_floor(0.05, 0.07)
            .with_priority(Priority::High);
        let (key, s) = spec.snap_query(&query);
        assert_eq!(key, spec.key(&query));
        assert_eq!(s.priority, Priority::High);
        let decoded = spec.snapped(&key);
        assert_eq!(decoded.priority, Priority::Normal);
        assert_eq!(decoded.with_priority(Priority::High), s);
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let spec = QuantSpec::default();
        let (k, _) = spec.snap_query(&q(1.0, 2.0, 3.0, 10.0));
        assert_eq!(k.hash64(), k.hash64());
        // Neighbouring cells should not collide in the low bits (the
        // cache masks these); check a small neighbourhood.
        let mut low = std::collections::HashSet::new();
        for i in 0..16 {
            let g = 10f64.powf(i as f64 * 0.025); // one grid step apart
            let (ki, _) = spec.snap_query(&q(g, 2.0, 3.0, 10.0));
            low.insert(ki.hash64() & 0xFFF);
        }
        assert!(low.len() >= 14, "low bits collide too much: {}", low.len());
    }
}
