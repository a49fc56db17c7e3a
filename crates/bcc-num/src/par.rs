//! Hand-rolled data parallelism for embarrassingly parallel batches.
//!
//! The workspace's heavy loops — LP sweeps over scenario grids, Monte-Carlo
//! fading trials — are independent per item, so they scale linearly with
//! cores *if* the scheduling overhead stays negligible against an LP solve
//! (tens of microseconds). This module provides exactly that and nothing
//! more: a chunked, self-scheduling [`par_map_range`] over scoped
//! `std::thread` workers. No thread-pool crate, no channels, no unsafe —
//! workers pull chunks of indices from one shared atomic cursor (idle
//! workers automatically "steal" the chunks a slow worker never claims),
//! stash `(index, result)` pairs locally, and the caller reassembles them
//! in input order.
//!
//! # Determinism contract
//!
//! The output of every function here is **bit-identical** for every worker
//! count, including 1: item `i`'s result depends only on item `i` and the
//! per-worker state produced by `init` (which must not make worker-order
//! dependent decisions — in this workspace it builds empty LP workspaces
//! and RNGs seeded per item). Chunking only changes *wall time*, never
//! results, so `BCC_THREADS=1` is a drop-in oracle for any parallel run.
//!
//! # Worker-count policy
//!
//! [`thread_count`] reads the `BCC_THREADS` environment variable (any
//! integer ≥ 1) and falls back to [`std::thread::available_parallelism`].
//! Batch drivers may override it per call (e.g. `Scenario::threads` in
//! `bcc-core`).
//!
//! # Example
//!
//! ```
//! use bcc_num::par;
//!
//! let xs = vec![1.0f64, 4.0, 9.0, 16.0];
//! let roots = par::par_map_range(2, xs.len(), || (), |(), i| (i, xs[i].sqrt()));
//! assert_eq!(roots, vec![(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Each worker's share of the input is split into roughly this many chunks,
/// so a worker that lands on expensive items (deep fades take more simplex
/// pivots) sheds the rest of the range to its idle peers. Larger values
/// balance better but touch the shared cursor more often; at 8 the cursor
/// traffic is ~`threads * 8` atomic adds per batch — noise against even a
/// single LP solve.
const CHUNKS_PER_WORKER: usize = 8;

/// The worker count used when the caller does not override it: the
/// `BCC_THREADS` environment variable if set to an integer ≥ 1, otherwise
/// [`std::thread::available_parallelism`] (1 if even that is unknown).
///
/// Read on every call — cheap next to any batch this module is used for,
/// and it keeps benches free to flip serial/parallel within one process.
pub fn thread_count() -> usize {
    std::env::var("BCC_THREADS")
        .ok()
        .and_then(|s| parse_thread_override(&s))
        .unwrap_or_else(available_threads)
}

/// Parses a `BCC_THREADS` override: an integer ≥ 1 (surrounding whitespace
/// tolerated). Returns `None` for anything else, which means "fall back to
/// the machine's parallelism" rather than an error — a misspelt override
/// must not change results, only possibly wall time.
pub fn parse_thread_override(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps an infallible `f(state, index)` over `0..n` on `threads` scoped
/// workers and returns the results **in index order**; a caller mapping
/// a slice indexes it inside `f`.
///
/// `init` runs once per worker to build that worker's private scratch
/// state (an LP workspace, a decoder buffer, …); indices are then pulled
/// in chunks from a shared cursor, so the assignment of indices to
/// workers is dynamic but the *result* of each index is not.
///
/// With `threads == 1` (or `n == 1`) everything runs inline on the
/// calling thread — no threads are spawned, making the serial path
/// allocation-free beyond the output vector.
///
/// # Panics
///
/// A panic in `f` or `init` on any worker is propagated to the caller
/// after all workers have stopped.
pub fn par_map_range<S, R, I, F>(threads: usize, n: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    match try_par_map_range::<S, R, Never, _, _>(threads, n, &init, |s, i| Ok(f(s, i))) {
        Ok(v) => v,
        Err(e) => match e {},
    }
}

/// Maps a fallible `f(state, index)` over `0..n` on `threads` workers.
///
/// On success the results come back in index order. On failure the
/// returned error is the **lowest-index** failure — exactly the one the
/// serial loop would have hit first — so error reporting is as
/// deterministic as the success path. (Every index is still evaluated
/// before an error returns; errors are exceptional in this workspace and
/// not worth a cross-thread abort protocol that would make the reported
/// error depend on scheduling.)
///
/// # Panic isolation
///
/// A panic inside `f` is caught per item (`catch_unwind`), the worker
/// rebuilds its state via `init` and keeps draining the range, and after
/// all workers stop the failure at the **lowest index** — panic or `Err`,
/// whichever comes first in index order, exactly as a serial in-order run
/// would have hit it — is what the caller observes: an `Err` is returned,
/// a panic is resumed on the calling thread. A panicking item therefore
/// poisons only itself, never its blockmates' results, and the observed
/// failure is independent of scheduling. (A panic in `init` itself still
/// aborts the batch — there is no per-item state to contain it to.)
pub fn try_par_map_range<S, R, E, I, F>(
    threads: usize,
    n: usize,
    init: I,
    f: F,
) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> Result<R, E> + Sync,
{
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = threads.clamp(1, n);
    if workers == 1 {
        // In-order evaluation stops at the first failure by construction,
        // so no catching is needed to make the failure deterministic.
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }

    /// One item's outcome, with panics reified so the lowest-index rule
    /// can arbitrate between an `Err` and a panic deterministically.
    enum Item<R, E> {
        Ok(R),
        Fail(E),
        Panicked(Box<dyn Any + Send>),
    }

    let chunk = (n / (workers * CHUNKS_PER_WORKER)).max(1);
    let cursor = AtomicUsize::new(0);
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut got: Vec<(usize, Item<R, E>)> = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start..(start + chunk).min(n) {
                            match catch_unwind(AssertUnwindSafe(|| f(&mut state, i))) {
                                Ok(Ok(r)) => got.push((i, Item::Ok(r))),
                                Ok(Err(e)) => got.push((i, Item::Fail(e))),
                                Err(payload) => {
                                    // The unwound `f` may have left the
                                    // scratch state half-updated; rebuild
                                    // it so later items see `init` state,
                                    // as the determinism contract assumes.
                                    state = init();
                                    got.push((i, Item::Panicked(payload)));
                                }
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join())
            .collect::<Vec<std::thread::Result<_>>>()
    });

    let mut slots: Vec<Option<Item<R, E>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for part in parts {
        match part {
            Ok(pairs) => {
                for (i, r) in pairs {
                    slots[i] = Some(r);
                }
            }
            // Only `init` can panic outside the per-item catch.
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        match slot.expect("scheduler covers every index exactly once") {
            Item::Ok(r) => out.push(r),
            Item::Fail(e) => return Err(e),
            Item::Panicked(payload) => std::panic::resume_unwind(payload),
        }
    }
    Ok(out)
}

/// Renders a caught panic payload as a human-readable message — the
/// `&str`/`String` payloads `panic!` produces, or a fixed placeholder for
/// anything else. Used by serving layers that contain worker panics and
/// must report them deterministically.
pub fn describe_panic(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// The `!` stand-in for infallible maps routed through
/// [`try_par_map_range`] (stable `!` is not available to this crate's MSRV).
#[derive(Debug)]
enum Never {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order_for_every_worker_count() {
        let items: Vec<usize> = (0..257).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64, 1000] {
            let got = par_map_range(threads, items.len(), || (), |(), i| items[i] * 3 + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let none: Vec<u8> = vec![];
        assert_eq!(
            par_map_range(8, none.len(), || (), |(), i| i),
            Vec::<usize>::new()
        );
        let one = [5.0];
        assert_eq!(
            par_map_range(8, one.len(), || (), |(), i| (i, one[i])),
            [(0, 5.0)]
        );
    }

    #[test]
    fn per_worker_state_is_private_and_reused() {
        // Each worker counts how many items it processed in its own state;
        // the per-item results must be item-local regardless.
        let items: Vec<u64> = (0..100).collect();
        let inits = AtomicUsize::new(0);
        let got = par_map_range(
            4,
            items.len(),
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |seen, i| {
                *seen += 1;
                items[i] + 1
            },
        );
        assert_eq!(got, (1..=100).collect::<Vec<u64>>());
        assert!(inits.load(Ordering::Relaxed) <= 4, "one init per worker");
    }

    #[test]
    fn error_is_lowest_index_like_serial() {
        for threads in [1, 2, 8] {
            let r: Result<Vec<usize>, usize> = try_par_map_range(
                threads,
                50,
                || (),
                |(), i| {
                    if i % 7 == 3 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                },
            );
            assert_eq!(r.unwrap_err(), 3, "threads = {threads}");
        }
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override(" 16 "), Some(16));
        assert_eq!(parse_thread_override("0"), None);
        assert_eq!(parse_thread_override("-2"), None);
        assert_eq!(parse_thread_override("four"), None);
        assert_eq!(parse_thread_override(""), None);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn lowest_index_error_beats_later_panic() {
        // Err at 3, panic at 40: serial order hits the Err first, so the
        // parallel run must report it and contain (drop) the panic.
        let r: Result<Vec<usize>, usize> = try_par_map_range(
            4,
            64,
            || (),
            |(), i| {
                assert!(i != 40, "panic at 40");
                if i == 3 {
                    Err(3)
                } else {
                    Ok(i)
                }
            },
        );
        assert_eq!(r.unwrap_err(), 3);
    }

    #[test]
    fn lowest_index_panic_beats_later_error() {
        let caught = std::panic::catch_unwind(|| {
            try_par_map_range::<(), usize, usize, _, _>(
                4,
                64,
                || (),
                |(), i| {
                    assert!(i != 5, "panic at 5");
                    if i == 30 {
                        Err(30)
                    } else {
                        Ok(i)
                    }
                },
            )
        });
        let payload = caught.expect_err("panic should win");
        assert_eq!(describe_panic(payload.as_ref()), "panic at 5");
    }

    #[test]
    fn state_rebuilt_after_caught_panic() {
        // A worker whose state was corrupted mid-panic must re-init, so
        // items after the panic still see `init` state. The state here is
        // a guard flag the panicking item leaves set.
        let caught = std::panic::catch_unwind(|| {
            try_par_map_range::<bool, usize, Never, _, _>(
                2,
                64,
                || false,
                |poisoned, i| {
                    assert!(!*poisoned, "stale state leaked past a panic");
                    if i == 9 {
                        *poisoned = true;
                        panic!("boom at 9");
                    }
                    Ok(i)
                },
            )
        });
        let payload = caught.expect_err("panic propagates after the batch");
        assert_eq!(describe_panic(payload.as_ref()), "boom at 9");
    }

    #[test]
    fn describe_panic_payload_kinds() {
        assert_eq!(describe_panic(&"static str"), "static str");
        assert_eq!(describe_panic(&String::from("owned")), "owned");
        assert_eq!(describe_panic(&42u32), "non-string panic payload");
    }

    #[test]
    #[should_panic(expected = "boom at 17")]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let _ = par_map_range(
            4,
            items.len(),
            || (),
            |(), i| {
                let x = items[i];
                assert!(x != 17, "boom at {x}");
                x
            },
        );
    }
}
