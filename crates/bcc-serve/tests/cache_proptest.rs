//! Property tests of the quantized-state cache's exactness contract.
//!
//! Over random query streams (random states, powers, floors, grid
//! steps, and deliberately tiny cache capacities that force evictions):
//!
//! * every answer served from the cache is **bitwise identical** to what
//!   a fresh, cold [`SolveCtx`] computes at the same quantized key — the
//!   cache may change *when* work happens, never *what* the answer is;
//! * cache occupancy never exceeds capacity, evictions notwithstanding;
//! * the key/decode split of [`QuantSpec`] snaps exactly as the one-step
//!   formula does, from zero and the least subnormal up to `f64::MAX`, at
//!   every grid step from [`QuantSpec::MIN_STEP_DB`] to 10 dB and in
//!   strict mode, and two queries share a key exactly when their grid
//!   indices, floors and bounds agree.

use bcc_channel::{ChannelState, PowerSplit};
use bcc_core::protocol::Bound;
use bcc_core::SolveCtx;
use bcc_serve::{
    cold_solve, Engine, Priority, QuantSpec, Query, ServeConfig, ServeError, ServedFrom,
};
use proptest::prelude::*;

/// One randomly-shaped query: gains, symmetric power, and (when the
/// selector is odd) a QoS floor that ranges from trivial to hopeless.
fn raw_query() -> impl Strategy<Value = Query> {
    (
        (0.01f64..10.0, 0.01f64..10.0, 0.01f64..10.0),
        0.5f64..40.0,
        (0u8..4, 0.0f64..2.0, 0.0f64..2.0),
    )
        .prop_map(|((gab, gar, gbr), power, (sel, ra, rb))| {
            let q = Query::new(
                ChannelState::new(gab, gar, gbr),
                PowerSplit::symmetric(power),
            );
            if sel % 2 == 1 {
                q.with_floor(ra, rb)
            } else {
                q
            }
        })
}

/// One gain or power from the edges of the f64 range inward: zero, the
/// least subnormal, the least normal, `f64::MAX`, or `10^u` for
/// `u ∈ [−300, 300]`.
fn extreme_value() -> impl Strategy<Value = f64> {
    (0u8..8, -300.0f64..=300.0).prop_map(|(sel, u)| match sel {
        0 => 0.0,
        1 => 5e-324,
        2 => f64::MIN_POSITIVE,
        3 => f64::MAX,
        _ => 10f64.powf(u),
    })
}

/// A query over extreme gains and powers, with or without a floor, over
/// either bound.
fn extreme_query() -> impl Strategy<Value = Query> {
    let gains = (extreme_value(), extreme_value(), extreme_value());
    let powers = (extreme_value(), extreme_value(), extreme_value());
    (gains, powers, (0u8..4, 0.0f64..2.0, 0.0f64..2.0)).prop_map(|(g, p, (sel, ra, rb))| {
        let (floored, outer) = (sel & 1 == 1, sel & 2 == 2);
        let q = Query::new(
            ChannelState::new(g.0, g.1, g.2),
            PowerSplit::new(p.0, p.1, p.2),
        );
        let q = if floored { q.with_floor(ra, rb) } else { q };
        q.with_bound(if outer { Bound::Outer } else { Bound::Inner })
    })
}

/// Strict mode one time in eight, otherwise a grid step log-uniform in
/// `[MIN_STEP_DB, 10]` dB.
fn any_spec() -> impl Strategy<Value = QuantSpec> {
    (0u8..8, QuantSpec::MIN_STEP_DB.log10()..=1.0).prop_map(|(sel, e)| {
        if sel == 0 {
            QuantSpec::strict()
        } else {
            QuantSpec::db_grid(10f64.powf(e).max(QuantSpec::MIN_STEP_DB))
        }
    })
}

/// The six gains and powers of a query, in key order.
fn values(q: &Query) -> [f64; 6] {
    let (s, p) = (q.state, q.powers);
    [s.gab(), s.gar(), s.gbr(), p.p_a(), p.p_b(), p.p_r()]
}

/// The one-step snapping formula: zero below the grid, the grid value of
/// the rounded dB index above it, the value itself in strict mode. Where
/// the grid value overflows (a value within half a step of `f64::MAX`),
/// the formula alone gives +∞, which no channel state can hold; that
/// grid point decodes to `f64::MAX`.
fn reference_value(v: f64, step: Option<f64>) -> f64 {
    match step {
        None => v,
        Some(_) if v <= 0.0 => 0.0,
        Some(step) => {
            let index = (10.0 * v.log10() / step).round() as i64;
            10f64.powf(index as f64 * step / 10.0).min(f64::MAX)
        }
    }
}

/// The grid index the formula rounds to (`None` for zero), or the exact
/// bits in strict mode.
fn reference_index(v: f64, step: Option<f64>) -> Option<i64> {
    match step {
        None => Some(v.to_bits() as i64),
        Some(_) if v <= 0.0 => None,
        Some(step) => Some((10.0 * v.log10() / step).round() as i64),
    }
}

fn floor_bits(q: &Query) -> Option<(u64, u64)> {
    q.floor.map(|(a, b)| (a.to_bits(), b.to_bits()))
}

/// A partner of `q` less than a grid step away: each gain and power whose
/// bit in `moved` is set is scaled by `10^(f·step/10)`, `f ∈ (−1, 1)`
/// (a few ulps in strict mode). Bits 6 and 7 nudge the floor by one ulp
/// and flip the bound.
fn partner(q: &Query, step: Option<f64>, moved: u8, fracs: &[f64]) -> Query {
    let step = step.unwrap_or(1e-14);
    let mut v = values(q);
    for (i, (v, f)) in v.iter_mut().zip(fracs).enumerate() {
        if moved >> i & 1 == 1 {
            *v = (*v * 10f64.powf(f * step / 10.0)).min(f64::MAX);
        }
    }
    let mut p = Query::new(
        ChannelState::new(v[0], v[1], v[2]),
        PowerSplit::new(v[3], v[4], v[5]),
    );
    p.floor = q.floor;
    p.bound = q.bound;
    if moved >> 6 & 1 == 1 {
        p.floor = Some(match q.floor {
            Some((a, b)) => (a, f64::from_bits(b.to_bits() + 1)),
            None => (0.0, 0.0),
        });
    }
    if moved >> 7 & 1 == 1 {
        p.bound = match q.bound {
            Bound::Inner => Bound::Outer,
            Bound::Outer => Bound::Inner,
        };
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Decoding a key gives, bit for bit, what the one-step formula snaps
    /// the query to; floor and bound come back exactly; priority, never
    /// part of the key, is `Normal`.
    #[test]
    fn decoded_keys_equal_the_snapping_formula(q in extreme_query(), spec in any_spec()) {
        let snapped = spec.snapped(&spec.key(&q));
        let step = spec.step_db();
        for (got, v) in values(&snapped).into_iter().zip(values(&q)) {
            let want = reference_value(v, step);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{v:e} at {step:?} dB");
        }
        prop_assert_eq!(floor_bits(&snapped), floor_bits(&q));
        prop_assert_eq!(snapped.bound, q.bound);
        prop_assert_eq!(snapped.priority, Priority::Normal);
    }

    /// Two queries a fraction of a step apart share a key exactly when the
    /// formula's grid indices, the floor bits and the bound all agree.
    #[test]
    fn keys_are_equal_exactly_when_indices_floors_and_bounds_are(
        q in extreme_query(),
        spec in any_spec(),
        moved in 0u16..256,
        fracs in proptest::collection::vec(-1.0f64..1.0, 6),
    ) {
        let step = spec.step_db();
        let p = partner(&q, step, moved as u8, &fracs);
        let same_indices = values(&q)
            .into_iter()
            .zip(values(&p))
            .all(|(a, b)| reference_index(a, step) == reference_index(b, step));
        let same = same_indices && floor_bits(&q) == floor_bits(&p) && q.bound == p.bound;
        prop_assert_eq!(spec.key(&q) == spec.key(&p), same, "{q:?} vs {p:?} at {step:?} dB");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exactness contract, end to end: serve a random stream through
    /// a small cache; every `Cache`-tagged answer must equal a cold
    /// solve of the same query bit for bit, and cached infeasibility
    /// must be reported identically hot or cold.
    #[test]
    fn cache_hits_equal_cold_solves_bitwise(
        raw in proptest::collection::vec(raw_query(), 1..50),
        step_db in 0.05f64..2.0,
        capacity in 8usize..64,
        duplicate_stride in 1usize..5,
    ) {
        let spec = QuantSpec::db_grid(step_db);
        let config = ServeConfig::default().quant(spec).cache_capacity(capacity);
        let mut engine = Engine::new(&config);
        let mut oracle = SolveCtx::new();

        // Interleave repeats into the stream so hits actually happen.
        let mut stream: Vec<Query> = Vec::new();
        for (i, &q) in raw.iter().enumerate() {
            stream.push(q);
            if i % duplicate_stride == 0 && i > 0 {
                stream.push(raw[i / 2]);
            }
        }

        let mut hits = 0u32;
        for query in &stream {
            let served = engine.serve(query);
            prop_assert!(engine.cache().len() <= engine.cache().capacity());
            let from_cache = matches!(&served, Ok(d) if d.served_from == ServedFrom::Cache);
            // `Engine::serve` doesn't tag provenance on errors, so check
            // every infeasible answer against the oracle instead.
            let infeasible = served == Err(ServeError::Infeasible);
            if !(from_cache || infeasible) {
                continue;
            }
            hits += u32::from(from_cache);
            match (&served, cold_solve(&mut oracle, query, &spec)) {
                (Ok(d), Ok(Some(cold))) => {
                    prop_assert_eq!(d.protocol, cold.protocol);
                    prop_assert_eq!(d.sum_rate.to_bits(), cold.sum_rate.to_bits());
                    prop_assert_eq!(d.ra.to_bits(), cold.ra.to_bits());
                    prop_assert_eq!(d.rb.to_bits(), cold.rb.to_bits());
                    prop_assert_eq!(d.durations, cold.durations);
                }
                (Err(ServeError::Infeasible), Ok(None)) => {}
                (served, cold) => {
                    panic!("cache and cold solve disagree: {served:?} vs {cold:?}");
                }
            }
        }
        // The interleaved repeats guarantee hits whenever the cache is
        // big enough that nothing was evicted in between.
        if stream.len() > raw.len() && capacity >= 2 * stream.len() {
            prop_assert!(hits > 0, "duplicate-bearing stream produced no hits");
        }
    }

    /// Occupancy stays bounded under pure insert pressure (mostly-miss
    /// streams into the smallest caches).
    #[test]
    fn occupancy_never_exceeds_capacity(
        raw in proptest::collection::vec(raw_query(), 1..80),
        capacity in 1usize..32,
    ) {
        let config = ServeConfig::default().cache_capacity(capacity);
        let mut engine = Engine::new(&config);
        for q in &raw {
            let _ = engine.serve(q);
            prop_assert!(
                engine.cache().len() <= engine.cache().capacity(),
                "len {} > capacity {}",
                engine.cache().len(),
                engine.cache().capacity()
            );
        }
    }
}
