//! Numerical substrate for the bidirectional coded cooperation workspace.
//!
//! This crate provides the numerical building blocks that the rest of the
//! workspace is built on:
//!
//! * [`complex`] — a small, dependency-free complex-number type
//!   ([`Complex64`]) used for baseband channel gains and signals.
//! * [`db`] — decibel ⇄ linear conversions with newtypes ([`Db`]) so power
//!   ratios and dB values cannot be confused.
//! * [`special`] — special functions: `erf`/`erfc`, the Gaussian Q-function,
//!   numerically careful `log2(1+x)`.
//! * [`stats`] — streaming statistics (Welford), confidence intervals,
//!   empirical CDFs and histograms for Monte-Carlo experiments.
//! * [`quadrature`] — adaptive Simpson integration and Gauss–Laguerre rules
//!   (used for closed-form ergodic-rate cross-checks over Rayleigh fading).
//! * [`optim`] — scalar optimisation: golden-section search, bisection and
//!   grid refinement.
//! * [`seed`] — the workspace-wide deterministic seeding policy
//!   ([`seed::mix_seed`]): SplitMix64-finalised child streams shared by
//!   the topology generators and every Monte-Carlo driver.
//! * [`par`] — chunked, order-preserving data parallelism over scoped
//!   worker threads (`par_map_range`), the engine behind the parallel
//!   `Scenario` evaluator and Monte-Carlo drivers.
//! * [`metrics`] — per-thread counter sets ([`counter_set!`]): the LP,
//!   kernel and serving counters every bench report reads.
//! * [`faults`] — deterministic, seed-driven fault injection
//!   ([`faults::FaultPlan`]): the chaos schedules behind the robustness
//!   suites, bit-reproducible across threads, batch sizes and replays.
//! * [`linalg`] — a minimal dense matrix type with LU solve, used by tests
//!   and by the Blahut–Arimoto helper in `bcc-info`.
//!
//! # Example
//!
//! ```
//! use bcc_num::{Db, special::q_function};
//!
//! // 15 dB transmit SNR as a linear power ratio:
//! let snr = Db::new(15.0).to_linear();
//! assert!((snr - 31.622776601683793).abs() < 1e-12);
//!
//! // BPSK error probability at that SNR:
//! let ber = q_function((2.0 * snr).sqrt());
//! assert!(ber < 1e-8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod db;
pub mod faults;
pub mod interp;
pub mod linalg;
pub mod metrics;
pub mod optim;
pub mod par;
pub mod quadrature;
pub mod seed;
pub mod special;
pub mod stats;

pub use complex::Complex64;
pub use db::Db;
pub use linalg::Matrix;
pub use stats::RunningStats;

/// Default absolute tolerance used by iterative routines in this workspace.
pub const DEFAULT_TOL: f64 = 1e-10;

/// Returns `true` if `a` and `b` are equal within absolute tolerance `tol`
/// *or* within relative tolerance `tol` (whichever is looser).
///
/// This is the comparison rule used throughout the workspace test suites.
///
/// ```
/// assert!(bcc_num::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!bcc_num::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(0.0, 1e-12, 1e-9));
        assert!(!approx_eq(0.0, 1e-6, 1e-9));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.001e12, 1e-9));
    }

    #[test]
    fn approx_eq_symmetry() {
        assert_eq!(approx_eq(3.0, 3.1, 0.05), approx_eq(3.1, 3.0, 0.05));
    }
}
