//! Capacity bounds for bidirectional coded cooperation protocols.
//!
//! This crate is the heart of the workspace: it implements the protocol
//! definitions and every performance bound of
//!
//! > S. J. Kim, P. Mitran, V. Tarokh, *Performance Bounds for Bidirectional
//! > Coded Cooperation Protocols*, IEEE Trans. Inf. Theory 54(11), 2008
//! > (ICDCS 2007 workshop version).
//!
//! Two terminals `a`, `b` exchange independent messages through a relay `r`
//! over a shared half-duplex channel. The paper studies three
//! decode-and-forward protocols with contiguous phases:
//!
//! | Protocol | Phases | Theorems |
//! |---|---|---|
//! | [`Protocol::DirectTransmission`] | `a→b`, `b→a` | (baseline) |
//! | [`Protocol::Mabc`] | `{a,b}→r`, `r→{a,b}` | Thm 2 (capacity) |
//! | [`Protocol::Tdbc`] | `a→·`, `b→·`, `r→{a,b}` | Thm 3 (inner), 4 (outer) |
//! | [`Protocol::Hbc`] | `a→·`, `b→·`, `{a,b}→r`, `r→{a,b}` | Thm 5 (inner), 6 (outer) |
//!
//! In the Gaussian case (Section IV) each mutual-information term becomes
//! `C(P·G) = log2(1 + P·G)`, every bound is **linear in the rates and phase
//! durations jointly**, and regions/optimal schedules are computed exactly
//! by linear programming ([`bcc_lp`]).
//!
//! The batch entry point is the [`scenario`] module: describe a grid of
//! operating points with the builder-style [`scenario::Scenario`], compile
//! it into an [`scenario::Evaluator`], and get typed sweep / comparison /
//! region / outage results back — all figures, benches and tests run
//! through that one code path.
//!
//! # Example: reproduce a Fig. 4 point
//!
//! ```
//! use bcc_core::prelude::*;
//!
//! let net = GaussianNetwork::from_db(Db::new(10.0), Db::new(-7.0), Db::new(0.0), Db::new(5.0));
//! let cmp = Scenario::at(net).build().compare().unwrap();
//! let hbc = cmp.get(Protocol::Hbc).unwrap();
//! // HBC subsumes both two- and three-phase protocols:
//! assert!(hbc.sum_rate >= cmp.get(Protocol::Mabc).unwrap().sum_rate - 1e-9);
//! assert!(hbc.sum_rate >= cmp.get(Protocol::Tdbc).unwrap().sum_rate - 1e-9);
//! ```

// `unsafe` is denied crate-wide. The one exception is `batch::simd`,
// which allows it for the AVX2 and AVX-512 intrinsics and the calls into
// its `#[target_feature]` block bodies, all reachable only after runtime
// detection of the features they use.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bounds;
pub mod city;
pub mod comparison;
pub mod constraint;
pub mod deep;
pub mod discrete;
pub mod dmt;
pub mod error;
pub mod gaussian;
pub mod kernel;
pub mod multipair;
pub mod optimizer;
pub mod protocol;
pub mod region;
pub mod scenario;
pub mod selection;
pub mod tails;

pub use batch::PointBlock;
pub use city::{AssignmentKind, CityEvaluator, CityResult, CityScenario};
pub use constraint::{ConstraintBuf, ConstraintSet, PhaseVec, RateConstraint};
pub use deep::{DeepCell, DeepOutageResult, DeepSpec, TailSource, TiltSelect};
pub use dmt::{Allocation, AllocationResult, DmtResult};
pub use error::CoreError;
pub use gaussian::GaussianNetwork;
pub use kernel::{Objective, SolveCtx, SolveOutcome, SolveRequest};
pub use multipair::{
    MultiPairEvaluator, MultiPairOutage, MultiPairResult, MultiPairScenario, PairSet, PairSolution,
    Schedule,
};
pub use protocol::{Bound, Protocol, ProtocolMap};
pub use region::{RatePoint, RateRegion};
pub use scenario::{Evaluator, Scenario};
pub use tails::{analytic_outage, AnalyticTail, TailForm};

/// One-stop imports for the batch evaluation API.
pub mod prelude {
    pub use crate::batch::PointBlock;
    pub use crate::city::{AssignmentKind, CityEvaluator, CityResult, CityScenario};
    pub use crate::constraint::{ConstraintBuf, ConstraintSet, PhaseVec, RateConstraint};
    pub use crate::deep::{DeepCell, DeepOutageResult, DeepSpec, TailSource, TiltSelect};
    pub use crate::dmt::{Allocation, AllocationResult, DmtResult};
    pub use crate::error::CoreError;
    pub use crate::gaussian::{GaussianNetwork, SumRateSolution};
    pub use crate::kernel::{Objective, SolveCtx, SolveOutcome, SolveRequest};
    pub use crate::multipair::{
        MultiPairEvaluator, MultiPairOutage, MultiPairResult, MultiPairScenario, PairSet,
        PairSolution, Schedule, SCHEDULES,
    };
    pub use crate::protocol::{Bound, Protocol, ProtocolMap};
    pub use crate::region::{RatePoint, RateRegion};
    pub use crate::scenario::{
        ComparisonResult, Evaluator, FadingSpec, GridPoint, OutageResult, ProtocolSeries,
        RegionResult, RegionTrace, Scenario, SkippedSolve, SweepResult,
    };
    pub use crate::tails::{analytic_outage, AnalyticTail, TailForm};
    pub use bcc_channel::fading::{FadingModel, PowerTilt};
    pub use bcc_channel::{ChannelError, ChannelState, PowerSplit, Topology};
    pub use bcc_num::Db;
}
