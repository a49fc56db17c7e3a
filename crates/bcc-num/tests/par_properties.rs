//! Property-based tests for the parallel map engine: for *any* input and
//! *any* worker count, `par_map_range` must behave exactly like the
//! serial `map` — order preserved, every item visited once, empty and
//! singleton inputs included.

use bcc_num::par;
use proptest::prelude::*;

proptest! {
    #[test]
    fn par_map_equals_serial_map(
        items in prop::collection::vec(-1e9f64..1e9, 0..80),
        threads in 1usize..12,
    ) {
        let expect: Vec<f64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x.mul_add(2.0, i as f64))
            .collect();
        let got = par::par_map_range(threads, items.len(), || (), |(), i| {
            items[i].mul_add(2.0, i as f64)
        });
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn worker_state_does_not_leak_into_results(
        n in 0usize..120,
        threads in 1usize..9,
    ) {
        // A stateful counter per worker must not perturb per-item output.
        let got = par::par_map_range(threads, n, || 0u64, |calls, i| {
            *calls += 1;
            i as u64
        });
        prop_assert_eq!(got, (0..n as u64).collect::<Vec<u64>>());
    }

    #[test]
    fn try_map_reports_the_serial_error(
        n in 1usize..100,
        bad in 0usize..100,
        threads in 1usize..9,
    ) {
        // Serial semantics: the error with the lowest index wins.
        let res: Result<Vec<usize>, usize> =
            par::try_par_map_range(threads, n, || (), |(), i| {
                if i >= bad { Err(i) } else { Ok(i) }
            });
        if bad < n {
            prop_assert_eq!(res.unwrap_err(), bad);
        } else {
            prop_assert_eq!(res.unwrap(), (0..n).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn try_map_lowest_index_wins_for_scattered_failures(
        n in 1usize..120,
        fail_raw in prop::collection::vec(0usize..120, 0..12),
        threads in 1usize..9,
    ) {
        // Failures injected at arbitrary (non-contiguous) indices: the
        // reported error must still be the one the serial loop would hit
        // first — the minimum failing index — at every worker count.
        let fail: std::collections::BTreeSet<usize> = fail_raw.into_iter().collect();
        let res: Result<Vec<usize>, usize> =
            par::try_par_map_range(threads, n, || (), |(), i| {
                if fail.contains(&i) { Err(i) } else { Ok(i * 2) }
            });
        match fail.iter().copied().find(|&i| i < n) {
            Some(first) => prop_assert_eq!(res.unwrap_err(), first),
            None => prop_assert_eq!(res.unwrap(), (0..n).map(|i| i * 2).collect::<Vec<usize>>()),
        }
    }
    #[test]
    fn panicking_item_yields_identical_failure_selection(
        n in 1usize..100,
        panic_at in 0usize..100,
        err_raw in prop::collection::vec(0usize..100, 0..6),
    ) {
        // One panicking item at an arbitrary index plus scattered Errs:
        // the observed failure must be the lowest-index one — panic or
        // error, exactly as a serial in-order run would hit it — at every
        // worker count, and a panic must never abort the process.
        silence_panic_reports();
        let errs: std::collections::BTreeSet<usize> = err_raw.into_iter().collect();
        let first_fail = (0..n).find(|i| *i == panic_at || errs.contains(i));
        for threads in [1usize, 2, 8] {
            let run = std::panic::catch_unwind(|| {
                par::try_par_map_range::<(), usize, usize, _, _>(threads, n, || (), |(), i| {
                    assert!(i != panic_at, "injected panic at {i}");
                    if errs.contains(&i) { Err(i) } else { Ok(i * 3) }
                })
            });
            match (first_fail, run) {
                (Some(f), Err(payload)) => {
                    prop_assert_eq!(f, panic_at, "panicked but lowest failure is an Err");
                    prop_assert_eq!(
                        par::describe_panic(payload.as_ref()),
                        format!("injected panic at {f}")
                    );
                }
                (Some(f), Ok(res)) => {
                    prop_assert_ne!(f, panic_at, "lowest failure is the panic, not an Err");
                    prop_assert_eq!(res.unwrap_err(), f);
                }
                (None, Ok(res)) => {
                    prop_assert_eq!(res.unwrap(), (0..n).map(|i| i * 3).collect::<Vec<usize>>());
                }
                (None, Err(_)) => prop_assert!(false, "panicked with no failing index"),
            }
        }
    }
}

/// The injected panics above are expected; keep their default-hook
/// backtrace chatter out of the test output. (libtest re-reports real
/// test failures from the payload itself, so nothing is lost.)
fn silence_panic_reports() {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| std::panic::set_hook(Box::new(|_| {})));
}

#[test]
fn empty_input_all_worker_counts() {
    let empty: Vec<f64> = Vec::new();
    for threads in 1..10 {
        assert!(par::par_map_range(threads, empty.len(), || (), |(), i| empty[i]).is_empty());
    }
}

#[test]
fn singleton_input_all_worker_counts() {
    for threads in 1..10 {
        let one = [7.5f64];
        let got = par::par_map_range(threads, one.len(), || (), |(), i| (i, one[i] * 2.0));
        assert_eq!(got, vec![(0, 15.0)]);
    }
}
