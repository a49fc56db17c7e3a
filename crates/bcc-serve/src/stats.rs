//! Per-thread serving counters, a [`bcc_num::metrics`] counter set.
//!
//! The server drains batches across worker threads whose private
//! [`SolveCtx`](bcc_core::SolveCtx)s live only inside the parallel
//! region, so per-context counters cannot tell the operator how the
//! *service* is doing. Instead every serve records its outcome into the
//! calling thread's [`ServeStats`], and diagnostics (the load generator,
//! `bench-report`, the CI gate) read deltas around a workload:
//!
//! ```
//! use bcc_channel::{ChannelState, PowerSplit};
//! use bcc_serve::{Engine, Query, ServeConfig};
//!
//! let mut engine = Engine::new(&ServeConfig::default());
//! let q = Query::new(ChannelState::new(0.2, 1.0, 3.16), PowerSplit::symmetric(10.0));
//! let (_, delta) = bcc_serve::stats::scoped(|| {
//!     engine.serve(&q).unwrap();
//!     engine.serve(&q).unwrap()
//! });
//! assert_eq!(delta.queries, 2);
//! assert_eq!(delta.cache_hits, 1);
//! ```
//!
//! Batch drains record their whole batch on the *draining* thread, so
//! [`scoped`] around a drain is exact even though the solves themselves
//! ran on workers.

bcc_num::counter_set! {
    /// Serving counters: a thread's totals, or the delta between two of
    /// its snapshots.
    pub struct ServeStats {
        /// Queries answered (hit or miss; rejected queries are not counted).
        pub queries: u64,
        /// Queries answered from the decision cache, including within-batch
        /// duplicates that shared one solve.
        pub cache_hits: u64,
        /// Queries that required a fresh solve at the quantized key.
        pub cache_misses: u64,
        /// Cache entries displaced to make room for new ones.
        pub evictions: u64,
        /// Submissions refused because the queue was full (backpressure).
        pub rejects: u64,
        /// Closed-form kernel solves performed on behalf of misses
        /// (the [`SolveCtx`](bcc_core::SolveCtx) fast path).
        pub kernel_solves: u64,
        /// Simplex LP solves performed on behalf of misses.
        pub simplex_solves: u64,
        /// Queries answered from the conservative closed-form fallback
        /// because the primary solve was exhausted or faulted
        /// ([`ServedFrom::Degraded`](crate::ServedFrom::Degraded)).
        pub degraded: u64,
        /// Queued normal-priority queries displaced by high-priority
        /// submissions under overload (distinct from `rejects`, which count
        /// submissions that never entered the queue).
        pub shed: u64,
        /// Queries refused by [`Query::validate`](crate::Query::validate)
        /// before reaching the solver (non-finite or negative inputs).
        pub validated_rejects: u64,
    }
}

impl ServeStats {
    /// Fraction of answered queries served from the cache, in `[0, 1]`
    /// (`0` when no queries were answered).
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_the_empty_snapshot() {
        assert_eq!(ServeStats::zero().hit_rate(), 0.0);
        let s = ServeStats {
            queries: 8,
            cache_hits: 6,
            ..ServeStats::zero()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-15);
    }
}
