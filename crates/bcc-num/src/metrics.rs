//! Per-thread counter sets, declared once per module with
//! [`counter_set!`](crate::counter_set).
//!
//! The workspace's diagnostics — the LP solve mix, the closed-form kernel
//! and block counts, the serving counters — are all sets of monotone
//! `u64` counters that a workload bumps and a reader differences around
//! it. One macro declares such a set in the module that invokes it:
//!
//! * a `Copy` struct of named `pub u64` counters, with `zero()` and
//!   `delta_since()`;
//! * that struct's thread-local cell;
//! * `local_snapshot()`, `scoped(f)` and a crate-private `record(&delta)`
//!   as free functions of the module.
//!
//! Each module therefore holds exactly one counter set: the functions are
//! named after the module, not after the struct.
//!
//! # Contract
//!
//! * **Per-thread only.** `record` adds to the calling thread's cell and
//!   nothing else; there is no process-wide total. A reader counts a
//!   workload by running it on the reading thread: pin it to one worker
//!   (`Scenario::threads(1)` — the serial path of [`crate::par`] runs
//!   inline on the caller), or record on the thread that drains the
//!   results (`bcc-serve` records a whole drained batch there). Work
//!   fanned to spawned workers lands in *their* cells. In exchange, a
//!   delta never counts another thread's work, so in-process assertions
//!   are exact under `cargo test`'s parallel test threads.
//! * **Monotone, no reset.** Readers subtract snapshots; `delta_since`
//!   wraps, so a stale snapshot cannot panic.
//!
//! # Example
//!
//! ```
//! mod cache {
//!     bcc_num::counter_set! {
//!         /// Lookups of a toy cache.
//!         pub struct CacheStats {
//!             /// Lookups answered from the cache.
//!             pub hits: u64,
//!             /// Lookups that had to compute.
//!             pub misses: u64,
//!         }
//!     }
//!
//!     pub fn lookup(hit: bool) {
//!         record(&CacheStats {
//!             hits: u64::from(hit),
//!             misses: u64::from(!hit),
//!         });
//!     }
//! }
//!
//! let ((), delta) = cache::scoped(|| {
//!     cache::lookup(true);
//!     cache::lookup(false);
//!     cache::lookup(true);
//! });
//! assert_eq!(delta, cache::CacheStats { hits: 2, misses: 1 });
//!
//! // Another thread's lookups land in that thread's counters only.
//! let before = cache::local_snapshot();
//! std::thread::spawn(|| cache::lookup(true)).join().unwrap();
//! assert_eq!(
//!     cache::local_snapshot().delta_since(&before),
//!     cache::CacheStats::zero()
//! );
//! ```

/// Declares a per-thread counter set in the invoking module: the struct,
/// its thread-local cell, and the module functions `local_snapshot()`,
/// `scoped(f)` and `pub(crate) record(&delta)`. See [`crate::metrics`]
/// for the contract and an example.
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$field_meta:meta])* pub $field:ident: u64, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $name {
            $( $(#[$field_meta])* pub $field: u64, )+
        }

        impl $name {
            /// The all-zero set (`const`, so it can seed the thread-local
            /// cell).
            pub const fn zero() -> $name {
                $name { $( $field: 0, )+ }
            }

            /// Counter increments since `earlier` (wrapping, so a stale
            /// snapshot cannot panic).
            pub fn delta_since(&self, earlier: &$name) -> $name {
                $name { $( $field: self.$field.wrapping_sub(earlier.$field), )+ }
            }
        }

        ::std::thread_local! {
            static LOCAL: ::std::cell::Cell<$name> =
                const { ::std::cell::Cell::new($name::zero()) };
        }

        /// Reads the calling thread's counters. Work run on other threads
        /// is counted in their cells, not here (see `bcc_num::metrics`).
        pub fn local_snapshot() -> $name {
            LOCAL.with(::std::cell::Cell::get)
        }

        /// Runs `f` and returns its result together with the calling
        /// thread's counter delta across the call.
        pub fn scoped<R>(f: impl FnOnce() -> R) -> (R, $name) {
            let before = local_snapshot();
            let result = f();
            (result, local_snapshot().delta_since(&before))
        }

        /// Adds `delta` to the calling thread's counters.
        pub(crate) fn record(delta: &$name) {
            LOCAL.with(|cell| {
                let s = cell.get();
                cell.set($name { $( $field: s.$field.wrapping_add(delta.$field), )+ });
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    crate::counter_set! {
        /// A two-counter probe set.
        pub struct Probe {
            /// First counter.
            pub hits: u64,
            /// Second counter.
            pub misses: u64,
        }
    }

    const HIT: Probe = Probe { hits: 1, misses: 0 };

    #[test]
    fn delta_since_wraps() {
        let a = Probe {
            hits: 5,
            misses: 100,
        };
        let b = Probe {
            hits: 9,
            misses: 130,
        };
        assert_eq!(
            b.delta_since(&a),
            Probe {
                hits: 4,
                misses: 30
            }
        );
        // A stale "later" snapshot wraps instead of panicking.
        assert_eq!(
            a.delta_since(&b),
            Probe {
                hits: 4u64.wrapping_neg(),
                misses: 30u64.wrapping_neg(),
            }
        );
        let top = Probe {
            hits: u64::MAX,
            misses: 0,
        };
        assert_eq!(Probe::zero().delta_since(&top), HIT);
    }

    #[test]
    fn scoped_counts_exactly_while_a_peer_records() {
        // The barriers force the peer's records into the middle of the
        // scoped window; the delta must still count only this thread's.
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                barrier.wait();
                for _ in 0..1000 {
                    record(&HIT);
                }
                barrier.wait();
            });
            let ((), d) = scoped(|| {
                record(&HIT);
                barrier.wait();
                for _ in 0..6 {
                    record(&HIT);
                }
                barrier.wait();
            });
            assert_eq!(d, Probe { hits: 7, misses: 0 });
        });
    }

    #[test]
    fn local_snapshot_is_blind_to_other_threads() {
        let before = local_snapshot();
        let peer = std::thread::spawn(|| scoped(|| record(&HIT)).1)
            .join()
            .unwrap();
        assert_eq!(peer, HIT, "the peer counts its own record");
        assert_eq!(
            local_snapshot().delta_since(&before),
            Probe::zero(),
            "a peer's records must not leak into this thread's counters"
        );
    }
}
