//! A protocol-selection query engine over the bidirectional coded
//! cooperation bounds — the serving layer of the workspace.
//!
//! The analysis crates answer "what is the best protocol at operating
//! point X?" by solving X from scratch. A control plane asks that
//! question continuously, for streams of channel-state reports that are
//! *near-identical* far more often than they are new. This crate turns
//! the zero-allocation solve kernel ([`bcc_core::SolveCtx`]) into a
//! service shaped for that workload:
//!
//! * **Typed queries and decisions** ([`Query`], [`Decision`]): channel
//!   state + power split (+ optional QoS rate floor, bound choice) in,
//!   winning [`Protocol`](bcc_core::Protocol) + achieved rates + phase
//!   schedule + [`ServedFrom`] provenance out.
//! * **A quantized-state cache** ([`QuantSpec`], [`DecisionCache`]):
//!   gains snap to a configurable dB grid, so near-identical states
//!   share one cached decision. Hits are **bit-identical** to the solve
//!   that populated them — the cache trades query precision (bounded by
//!   half a grid step per link), never answer precision. A
//!   [`strict`](QuantSpec::strict) mode bypasses quantization entirely.
//! * **Batched admission with backpressure** ([`Server`]): a bounded
//!   submission queue drained through the engine's own probe, commit
//!   and answer steps, with within-batch miss deduplication, the unique
//!   misses solved in one `bcc_core::kernel::par_blocks` fan-out, and
//!   [`Rejected`] pushback when the queue is full. Drained decision
//!   streams are bit-identical at any worker count.
//! * **Serve statistics** ([`stats`]): per-thread counters (queries,
//!   hits, misses, evictions, rejects, kernel vs simplex solves) with
//!   exact scoped deltas, a [`bcc_num::metrics`] counter set like
//!   [`bcc_lp::stats`].
//! * **Deterministic load generation** ([`LoadSpec`]): reproducible
//!   repeated / hot-set / fresh query streams for closed-loop benches
//!   and replay tests.
//! * **Fault injection & graceful degradation**: an armed
//!   [`bcc_num::faults::FaultPlan`] ([`ServeConfig::faults`]) injects
//!   deterministic solver faults, cache corruption/evictions and worker
//!   panics; the engine validates queries up front
//!   ([`ServeError::InvalidQuery`]), isolates panics per item, retries
//!   once, and falls back to a conservative closed-form
//!   direct-transmission answer ([`ServedFrom::Degraded`]) — always
//!   feasible, provably ≤ the true optimum, never cached — when the full
//!   solve cannot complete (also on [`ServeConfig::solve_budget`]
//!   exhaustion). Under overload, [`Priority::High`] submissions may
//!   shed the newest queued normal query instead of being rejected.
//!   Fault-free runs are bit-identical to a build without the hooks, and
//!   seeded chaos schedules replay bit-identically at any thread count
//!   or batch size.
//!
//! # Example
//!
//! ```
//! use bcc_channel::{ChannelState, PowerSplit};
//! use bcc_serve::{Engine, Query, ServeConfig, ServedFrom};
//!
//! let mut engine = Engine::new(&ServeConfig::default());
//! let q = Query::new(ChannelState::new(0.2, 1.0, 3.16), PowerSplit::symmetric(10.0));
//! let first = engine.serve(&q).unwrap();
//! assert_eq!(first.served_from, ServedFrom::Kernel);
//! // A report 0.01 dB away lands in the same quantization cell:
//! let nearby = Query::new(ChannelState::new(0.2004, 1.0, 3.16), PowerSplit::symmetric(10.0));
//! let second = engine.serve(&nearby).unwrap();
//! assert_eq!(second.served_from, ServedFrom::Cache);
//! assert_eq!(first.sum_rate.to_bits(), second.sum_rate.to_bits());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod loadgen;
pub mod quant;
pub mod query;
pub mod server;
pub mod stats;

pub use cache::{DecisionCache, Outcome};
pub use engine::{cold_solve, Engine, ServeConfig};
pub use loadgen::{LoadSpec, StreamKind};
pub use quant::{QuantKey, QuantSpec};
pub use query::{
    Decision, DecisionCore, DegradeReason, Priority, Query, Rejected, ServeError, ServedFrom,
};
pub use server::{BatchStats, Server};
pub use stats::ServeStats;
