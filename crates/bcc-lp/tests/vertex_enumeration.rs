//! Property test: for random two-variable LPs, the simplex optimum must
//! match exact vertex enumeration (every vertex of a 2-D polyhedron is the
//! intersection of two constraint boundaries, including the axes).

use bcc_lp::{LpError, Problem, Relation};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Line {
    a: f64,
    b: f64,
    rhs: f64,
}

/// Solves the 2x2 system a1 x + b1 y = c1, a2 x + b2 y = c2.
fn intersect(l1: &Line, l2: &Line) -> Option<(f64, f64)> {
    let det = l1.a * l2.b - l2.a * l1.b;
    if det.abs() < 1e-9 {
        return None;
    }
    let x = (l1.rhs * l2.b - l2.rhs * l1.b) / det;
    let y = (l1.a * l2.rhs - l2.a * l1.rhs) / det;
    Some((x, y))
}

fn feasible(x: f64, y: f64, cons: &[Line]) -> bool {
    x >= -1e-7 && y >= -1e-7 && cons.iter().all(|l| l.a * x + l.b * y <= l.rhs + 1e-6)
}

/// Brute-force optimum over all candidate vertices; `None` if the region is
/// empty or no vertex exists (then the LP is unbounded or trivial).
fn brute_force(obj: (f64, f64), cons: &[Line]) -> Option<f64> {
    let mut lines: Vec<Line> = cons.to_vec();
    // Axes x >= 0, y >= 0 expressed as boundaries.
    lines.push(Line {
        a: 1.0,
        b: 0.0,
        rhs: 0.0,
    });
    lines.push(Line {
        a: 0.0,
        b: 1.0,
        rhs: 0.0,
    });
    let mut best: Option<f64> = None;
    for i in 0..lines.len() {
        for j in i + 1..lines.len() {
            if let Some((x, y)) = intersect(&lines[i], &lines[j]) {
                if feasible(x, y, cons) {
                    let v = obj.0 * x + obj.1 * y;
                    best = Some(match best {
                        Some(b) if b >= v => b,
                        _ => v,
                    });
                }
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]
    #[test]
    fn simplex_matches_vertex_enumeration(
        c0 in -5f64..5.0,
        c1 in -5f64..5.0,
        rows in prop::collection::vec((0.05f64..5.0, 0.05f64..5.0, 0.5f64..20.0), 1..6),
    ) {
        // Constraints a x + b y <= rhs with a,b > 0 guarantee boundedness.
        let cons: Vec<Line> = rows
            .iter()
            .map(|&(a, b, rhs)| Line { a, b, rhs })
            .collect();
        let mut p = Problem::maximize(&[c0, c1]);
        for l in &cons {
            p.subject_to(&[l.a, l.b], Relation::Le, l.rhs);
        }
        let sol = p.solve();
        let expected = brute_force((c0, c1), &cons).expect("origin is always feasible");
        match sol {
            Ok(s) => {
                prop_assert!(
                    (s.objective - expected).abs() < 1e-6,
                    "simplex {} vs brute force {}",
                    s.objective,
                    expected
                );
                // Returned point must itself be feasible.
                prop_assert!(feasible(s.x[0], s.x[1], &cons));
            }
            Err(e) => prop_assert!(false, "unexpected LP error: {e}"),
        }
    }

    #[test]
    fn mixed_relations_never_violate(
        c0 in -3f64..3.0,
        c1 in -3f64..3.0,
        le_rhs in 1f64..10.0,
        ge_rhs in 0.0f64..0.9,
    ) {
        // x + y <= le_rhs, x + y >= ge_rhs*le_rhs: feasible band.
        let mut p = Problem::maximize(&[c0, c1]);
        p.subject_to(&[1.0, 1.0], Relation::Le, le_rhs);
        p.subject_to(&[1.0, 1.0], Relation::Ge, ge_rhs * le_rhs);
        let s = p.solve().expect("band is feasible");
        let sum = s.x[0] + s.x[1];
        prop_assert!(sum <= le_rhs + 1e-7);
        prop_assert!(sum >= ge_rhs * le_rhs - 1e-7);
    }

    #[test]
    fn equality_simplex_always_feasible(
        c in prop::collection::vec(-5f64..5.0, 2..7),
    ) {
        // maximize c·x over the probability simplex: optimum = max c_i
        // clamped below at 0 is not needed because sum must be 1 → optimum
        // = max(c).
        let mut p = Problem::maximize(&c);
        p.subject_to(&vec![1.0; c.len()], Relation::Eq, 1.0);
        let s = p.solve().expect("simplex is feasible");
        let expected = c
            .iter()
            .fold(f64::NEG_INFINITY, |m, &x| if x > m { x } else { m });
        prop_assert!((s.objective - expected).abs() < 1e-7);
        let total: f64 = s.x.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_band_detected(lo in 5f64..10.0, hi in 0.5f64..4.0) {
        // x + y >= lo and x + y <= hi with hi < lo is infeasible.
        let mut p = Problem::maximize(&[1.0, 1.0]);
        p.subject_to(&[1.0, 1.0], Relation::Ge, lo);
        p.subject_to(&[1.0, 1.0], Relation::Le, hi);
        prop_assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }
}
