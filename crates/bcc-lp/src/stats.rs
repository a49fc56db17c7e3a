//! Per-thread solver counters, a [`bcc_num::metrics`] counter set.
//!
//! The batch drivers in this workspace fan LP solves across worker
//! threads whose private [`Workspace`](crate::Workspace)s are created and
//! dropped inside the parallel region, so per-workspace counters would be
//! invisible to the caller. Instead the solver records into the calling
//! thread's [`LpStats`] — **once per solve**, not per pivot — and
//! diagnostics like `bench-report` read deltas around a workload pinned
//! to the reading thread:
//!
//! ```
//! use bcc_lp::{Problem, Relation};
//!
//! let (_, delta) = bcc_lp::stats::scoped(|| {
//!     let mut p = Problem::maximize(&[1.0]);
//!     p.subject_to(&[1.0], Relation::Le, 2.0);
//!     p.solve().unwrap()
//! });
//! assert_eq!(delta.solves, 1);
//! ```

bcc_num::counter_set! {
    /// Solver counters: a thread's totals, or the delta between two of
    /// its snapshots.
    pub struct LpStats {
        /// Completed solves (successful or not), warm and cold.
        pub solves: u64,
        /// Total simplex pivots across all solves (warm hits contribute 0).
        pub pivots: u64,
        /// Warm-start candidates evaluated (a matching basis existed).
        pub warm_attempts: u64,
        /// Warm-start candidates accepted — the solve skipped the simplex
        /// entirely and priced the previous optimal basis instead.
        pub warm_hits: u64,
    }
}

/// Records one completed solve (called once per solve by the simplex).
pub(crate) fn record_solve(pivots: usize, warm_attempted: bool, warm_hit: bool) {
    record(&LpStats {
        solves: 1,
        pivots: pivots as u64,
        warm_attempts: u64::from(warm_attempted),
        warm_hits: u64::from(warm_hit),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_move_on_solves() {
        use crate::{Problem, Relation};
        let (_, d) = scoped(|| {
            let mut p = Problem::maximize(&[1.0, 1.0]);
            p.subject_to(&[1.0, 1.0], Relation::Le, 1.0);
            p.solve().unwrap()
        });
        assert_eq!(d.solves, 1);
        assert!(d.pivots >= 1);
        assert_eq!(d.warm_attempts, 0, "plain Problem::solve never warm-starts");
    }
}
