//! Structure-of-arrays batch kernels: the closed-form solves, written
//! once over a lane-op type and run eight points per AVX-512 or four
//! points per AVX2 instruction.
//!
//! # Why batches
//!
//! The closed-form solve kernels ([`crate::kernel`]) are tens of flops
//! per point, but evaluated one point at a time they leave 2–8-wide
//! `f64` vector units idle and pay a data-dependent branch per candidate.
//! This module restates the hot queries over a [`PointBlock`] — a
//! structure-of-arrays block of operating points with contiguous lanes
//! for powers, gains and the seven [`LinkCaps`] capacities — and runs the
//! enumeration as **branch-free straight-line lane code**: masked selects
//! instead of data-dependent branches, and every candidate ray emitted
//! with constant indices instead of looped over a stack array.
//!
//! # One answer path
//!
//! Every closed form writes the same record, a [`SolveOutcome`]: a lane
//! body returns the value, `ra`, `rb` and the durations per lane, and
//! the runner appends them straight into the caller's outcome column.
//! One private `(objective, protocol) → lane body` table names the body
//! of each request the closed forms answer — sum rate for all four
//! protocols, max–min for DT, MABC and TDBC — and leaves HBC max–min to
//! the simplex. The block chunk runner and the width-1 scalar solve both
//! expand it, matching once per call outside any loop, so a new closed
//! form is one table arm plus
//! [`SolveRequest::is_batchable`](crate::kernel::SolveRequest::is_batchable).
//! Callers reach it through
//! [`SolveCtx::solve_block`](crate::kernel::SolveCtx::solve_block) and
//! [`SolveCtx::solve_one`](crate::kernel::SolveCtx::solve_one).
//!
//! # Lane ops
//!
//! Every kernel body is written once, generic over a private `Lane`
//! trait: a vector of `f64` lanes with exact IEEE-754 lanewise
//! `+ − × ÷`, negation and `abs`, ordered compares into a lane mask, and
//! masked select. Three types implement it:
//!
//! * `Portable<M>`, `M` plain `f64`s (`[f64; M]`). Width 1 serves the
//!   scalar entry points of [`crate::kernel`] and every block's tail;
//!   width [`LANE`] serves whole blocks on hosts without AVX2.
//! * `simd::F64x4`, one `__m256d` register, behind an `Avx2` token.
//! * `simd::F64x8`, one `__m512d` register with `__mmask8` lane masks,
//!   behind an `Avx512` token (AVX-512F and AVX2 both detected).
//!
//! # Dispatch
//!
//! Each block kernel picks its path at run time, widest first, with no
//! cargo feature, environment variable or option involved: AVX-512 when
//! `is_x86_feature_detected!` reports avx512f and avx2, else AVX2 when
//! it reports avx2, else portable. [`lane_isa`] names the path this host
//! takes. A host without AVX-512 never runs `F64x8` code.
//!
//! The lane bodies call no `f64::min`, `max` or `clamp`. LLVM lowers
//! those differently at different opt-levels — `(-0.0).max(0.0)` is −0.0
//! in a debug build and +0.0 in a release build — so results would
//! depend on the build. Each is instead one written meaning, built from
//! compares and selects and shared by all lane types:
//!
//! * `x.min(y)` is `isnan(x) ? y : (y < x ? y : x)`, so a ±0 tie keeps
//!   `x`;
//! * `x.max(y)` is `x > y ? x : y`, called only as `max(+0.0)`, so every
//!   zero it returns is +0.0;
//! * a clamp to `[0, 1]` is `x < 0 ? 0 : x`, then `x > 1 ? 1 : x`.
//!
//! These are the meanings an optimised build gave the `f64` calls, so
//! release-build results keep their bits. The vector types compute the
//! same meanings with `vminpd(y, x)` plus a NaN blend, `vmaxpd` and a
//! (masked) sign-bit xor for negation.
//!
//! # Lane layout and the tail
//!
//! A block runs its points front to back in vector chunks and finishes
//! with a width-1 tail through the *same* chunk runner and lane body,
//! reading the block's own lanes:
//!
//! * AVX-512: full 8-wide chunks, then one 4-wide AVX2 chunk if at least
//!   four points remain, then at most three width-1 points;
//! * AVX2 and portable: full [`LANE`]-wide chunks, then at most three
//!   width-1 points.
//!
//! So every path leaves the same fewer-than-[`LANE`] points to the
//! width-1 tail, and [`stats::KernelStats::lanes_filled`] reads the same
//! on every host. Every candidate in the enumeration is evaluated for
//! every lane and the running best is updated by masked select, so the
//! per-lane operation sequence is identical at any width.
//!
//! # Determinism
//!
//! There is no ULP gap to document: results are **bit-identical** across
//! the AVX-512, AVX2 and portable paths, the width-1 scalar entry points
//! and every opt-level. Every lane op is one exact IEEE-754 operation,
//! lanes never interact (no horizontal reductions), and the
//! `min`/`max`/clamp meanings above are spelled out instead of left to
//! codegen. No FMA contraction happens anywhere: Rust emits no
//! `contract` fast-math flag, so LLVM never fuses a written `a * b + c`
//! into one rounding, not even in the AVX-512 block functions whose
//! enabled features imply FMA. The golden suite
//! (`bcc-core/tests/kernel_golden.rs`) pins the bits; the batch
//! differential suite (`bcc/tests/batch_differential.rs`), the oracle
//! proptests (`kernel_oracle.rs`) and this module's tests compare the
//! paths.
//!
//! # `unsafe`
//!
//! All of the crate's `unsafe` lives in the private `simd` module: the
//! AVX2 and AVX-512 intrinsics, and the calls into its two
//! `#[target_feature]` block bodies (one per vector path). A vector lane
//! value can only be built from its ISA token (or from other lane values
//! of its type), and each token's only constructor is the runtime
//! detection, so every intrinsic runs on a CPU that has it.
//!
//! # Counters
//!
//! [`stats`] holds the closed-form kernels' [`bcc_num::metrics`] counter
//! set, [`stats::KernelStats`]: solves served by a kernel (scalar or
//! block), points solved through block kernels, and how many of them ran
//! in vector chunks rather than the width-1 tail. A block records all
//! three at once, when it finishes; a scalar entry point records one
//! kernel hit. Counts are per-thread: read them on the thread that ran
//! the kernels.

use crate::bounds::LinkCaps;
use crate::constraint::PhaseVec;
use crate::gaussian::GaussianNetwork;
use crate::kernel::{Objective, SolveOutcome};
use crate::protocol::Protocol;
use bcc_channel::{ChannelState, PowerSplit};
use std::ops::{Add, BitAnd, BitOr, Div, Mul, Neg, Sub};

/// Points per chunk of the narrowest vector lane type.
///
/// Four `f64` lanes fill one AVX2 register, and the portable path runs
/// the same width as `[f64; LANE]`. The AVX-512 path runs chunks of
/// `2 · LANE` points and then at most one chunk of `LANE`, so on every
/// path a block of `n` points sends its last `n % LANE` points through
/// the width-1 tail.
pub const LANE: usize = 4;

/// Points per value of the widest lane type (`simd::F64x8`): the size of
/// the buffers a chunk's answers are unpacked through.
const MAX_WIDTH: usize = 2 * LANE;

/// Default points per [`PointBlock`] when a caller does not override it
/// (see `Scenario::block_size`): large enough to amortise per-block
/// bookkeeping to well under 0.01 allocations per point, small enough
/// to stay cache-resident (13 lanes × 1024 × 8 B ≈ 104 KiB).
pub const DEFAULT_BLOCK: usize = 1024;

/// Closed-form kernel counters, a [`bcc_num::metrics`] counter set.
pub mod stats {
    bcc_num::counter_set! {
        /// Closed-form kernel counters: a thread's totals, or the delta
        /// between two of its snapshots.
        pub struct KernelStats {
            /// Solves served by the closed-form kernels, scalar or batched
            /// (no LP at all).
            pub kernel_hits: u64,
            /// Points solved through a block kernel.
            pub batched_points: u64,
            /// Batched points that ran inside a full vector chunk (the
            /// vectorised share: all but the last `n %`
            /// [`LANE`](super::LANE) points of an `n`-point block; those
            /// went through the width-1 scalar tail).
            pub lanes_filled: u64,
        }
    }

    /// The calling thread's [`KernelStats::batched_points`].
    pub fn batched_points_local() -> u64 {
        local_snapshot().batched_points
    }

    /// The calling thread's [`KernelStats::lanes_filled`].
    pub fn lanes_filled_local() -> u64 {
        local_snapshot().lanes_filled
    }
}

/// A structure-of-arrays block of operating points: contiguous lanes for
/// the three transmit powers, the three channel gains and — after
/// [`PointBlock::compute_caps`] — the seven [`LinkCaps`] capacities.
///
/// Blocks are plain buffers: build one with [`PointBlock::with_capacity`],
/// [`push`](PointBlock::push) points into it (or whole networks with
/// [`push_net`](PointBlock::push_net)), compute the capacity lanes once,
/// and hand it to [`SolveCtx::solve_block`](crate::kernel::SolveCtx::solve_block),
/// the one public block entry point.
/// [`clear`](PointBlock::clear) keeps the lane storage, so a per-worker
/// block allocates only while growing to its high-water mark.
///
/// The capacity lanes use exactly the expressions of
/// [`LinkCaps::compute`], so block-computed and scalar-computed
/// capacities are bit-identical.
#[derive(Debug, Clone, Default)]
pub struct PointBlock {
    pa: Vec<f64>,
    pb: Vec<f64>,
    pr: Vec<f64>,
    gab: Vec<f64>,
    gar: Vec<f64>,
    gbr: Vec<f64>,
    c_a_ab: Vec<f64>,
    c_b_ab: Vec<f64>,
    c_a_ar: Vec<f64>,
    c_b_br: Vec<f64>,
    c_r_ar: Vec<f64>,
    c_r_br: Vec<f64>,
    c_mac: Vec<f64>,
    caps_ready: bool,
}

impl PointBlock {
    /// Creates an empty block.
    pub fn new() -> Self {
        PointBlock::default()
    }

    /// Creates an empty block with lane storage for `n` points.
    pub fn with_capacity(n: usize) -> Self {
        let mut b = PointBlock::default();
        b.reserve(n);
        b
    }

    /// Reserves lane storage for `n` additional points.
    pub fn reserve(&mut self, n: usize) {
        for v in [
            &mut self.pa,
            &mut self.pb,
            &mut self.pr,
            &mut self.gab,
            &mut self.gar,
            &mut self.gbr,
        ] {
            v.reserve(n);
        }
    }

    /// Number of points staged in the block.
    pub fn len(&self) -> usize {
        self.pa.len()
    }

    /// Whether the block holds no points.
    pub fn is_empty(&self) -> bool {
        self.pa.is_empty()
    }

    /// Removes all points, keeping the lane storage.
    pub fn clear(&mut self) {
        self.pa.clear();
        self.pb.clear();
        self.pr.clear();
        self.gab.clear();
        self.gar.clear();
        self.gbr.clear();
        self.caps_ready = false;
    }

    /// Stages one operating point.
    pub fn push(&mut self, powers: &PowerSplit, state: &ChannelState) {
        self.pa.push(powers.p_a());
        self.pb.push(powers.p_b());
        self.pr.push(powers.p_r());
        self.gab.push(state.gab());
        self.gar.push(state.gar());
        self.gbr.push(state.gbr());
        self.caps_ready = false;
    }

    /// Stages one network (its power split and channel state).
    pub fn push_net(&mut self, net: &GaussianNetwork) {
        self.push(&net.powers(), &net.state());
    }

    /// Evaluates the seven capacity lanes for every staged point through
    /// the same per-point expressions as [`LinkCaps::compute`]
    /// (bit-identical to the scalar path, one scalar `log2` per distinct
    /// SNR of the point).
    pub fn compute_caps(&mut self) {
        let n = self.len();
        self.c_a_ab.clear();
        self.c_b_ab.clear();
        self.c_a_ar.clear();
        self.c_b_br.clear();
        self.c_r_ar.clear();
        self.c_r_br.clear();
        self.c_mac.clear();
        for i in 0..n {
            let c = LinkCaps::at(
                [self.pa[i], self.pb[i], self.pr[i]],
                [self.gab[i], self.gar[i], self.gbr[i]],
            );
            self.c_a_ab.push(c.c_a_ab);
            self.c_b_ab.push(c.c_b_ab);
            self.c_a_ar.push(c.c_a_ar);
            self.c_b_br.push(c.c_b_br);
            self.c_r_ar.push(c.c_r_ar);
            self.c_r_br.push(c.c_r_br);
            self.c_mac.push(c.c_mac);
        }
        self.caps_ready = true;
    }

    /// Whether [`PointBlock::compute_caps`] has run since the last push.
    pub fn caps_ready(&self) -> bool {
        self.caps_ready
    }

    /// The capacity bundle of point `i` (requires
    /// [`PointBlock::compute_caps`]).
    ///
    /// # Panics
    ///
    /// Panics if the capacity lanes are stale or `i` is out of range.
    pub fn caps(&self, i: usize) -> LinkCaps {
        assert!(self.caps_ready, "PointBlock::compute_caps has not run");
        LinkCaps {
            c_a_ab: self.c_a_ab[i],
            c_b_ab: self.c_b_ab[i],
            c_a_ar: self.c_a_ar[i],
            c_b_br: self.c_b_br[i],
            c_r_ar: self.c_r_ar[i],
            c_r_br: self.c_r_br[i],
            c_mac: self.c_mac[i],
        }
    }

    /// Reconstructs the network of point `i` (for the per-point
    /// outer-bound solves, which need the full network).
    pub fn net(&self, i: usize) -> GaussianNetwork {
        GaussianNetwork::with_powers(
            PowerSplit::new(self.pa[i], self.pb[i], self.pr[i]),
            ChannelState::new(self.gab[i], self.gar[i], self.gbr[i]),
        )
    }
}

// ---------------------------------------------------------------------------
// Lane ops
// ---------------------------------------------------------------------------

/// The lane-op vocabulary every kernel body below is written in: a vector
/// of `f64` lanes with exact IEEE-754 lanewise arithmetic, compares into a
/// lane mask, and masked select.
///
/// Values are built from an `Isa` token ([`Lane::splat`], [`Lane::load`])
/// or from other values, so holding a value proves the host can run its
/// instructions. `min`, `max` and `neg_if` are provided methods: their
/// bodies are the one written meaning of each op (see the module docs).
/// An implementation may override them only with instructions that
/// compute exactly those bits.
trait Lane:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Lanewise boolean mask.
    type Mask: Copy + BitAnd<Output = Self::Mask> + BitOr<Output = Self::Mask>;
    /// Zero-sized proof that the host can run this lane type.
    type Isa: Copy;
    /// Lanes per value.
    const WIDTH: usize;

    /// `x` in every lane.
    fn splat(isa: Self::Isa, x: f64) -> Self;
    /// The first [`Lane::WIDTH`] values of `v`.
    fn load(isa: Self::Isa, v: &[f64]) -> Self;
    /// Writes the lanes to `out[..WIDTH]`.
    fn store(self, out: &mut [f64]);
    /// Lanewise `|x|` (clears the sign bit).
    fn abs(self) -> Self;
    /// Lanewise ordered `x < y` (false if either is NaN).
    fn lt(self, y: Self) -> Self::Mask;
    /// Lanewise ordered `x <= y`.
    fn le(self, y: Self) -> Self::Mask;
    /// Lanewise ordered `x > y`.
    fn gt(self, y: Self) -> Self::Mask;
    /// Lanewise ordered `x >= y`.
    fn ge(self, y: Self) -> Self::Mask;
    /// Lanewise `x != x`.
    fn is_nan(self) -> Self::Mask;
    /// Lanewise `m ? t : f`.
    fn select(m: Self::Mask, t: Self, f: Self) -> Self;

    /// `isnan(x) ? y : (y < x ? y : x)`: a ±0 tie keeps `x`.
    #[inline(always)]
    fn min(self, y: Self) -> Self {
        Self::select(self.is_nan(), y, Self::select(y.lt(self), y, self))
    }

    /// `x > y ? x : y`. The kernels call it only as `max(+0.0)`, so every
    /// zero (and NaN) it returns is +0.0.
    #[inline(always)]
    fn max(self, y: Self) -> Self {
        Self::select(self.gt(y), self, y)
    }

    /// `m ? -x : x`.
    #[inline(always)]
    fn neg_if(self, m: Self::Mask) -> Self {
        Self::select(m, -self, self)
    }
}

/// `x` clamped to `[0, 1]`: `x < 0 ? 0 : x`, then `x > 1 ? 1 : x` (NaN
/// and −0.0 pass through).
#[inline(always)]
fn clamp01<L: Lane>(x: L, zero: L, one: L) -> L {
    let x = L::select(x.lt(zero), zero, x);
    L::select(x.gt(one), one, x)
}

/// Portable lanes: `M` plain `f64`s, every op a scalar IEEE op per lane.
/// Width 1 serves the scalar entry points and block tails; width [`LANE`]
/// serves whole blocks on hosts without AVX2.
#[derive(Clone, Copy, Debug)]
struct Portable<const M: usize>([f64; M]);

/// Lane mask of [`Portable`].
#[derive(Clone, Copy, Debug)]
struct PortableMask<const M: usize>([bool; M]);

/// Implements the lane ops of `Portable<M>` for each listed width `M`,
/// spelled out per lane: a loop per op would put thousands of tiny loops
/// into every kernel before LLVM gets to unroll them.
macro_rules! portable_lanes {
    ($($m:literal: $($l:literal)*;)*) => {$(
        impl Add for Portable<$m> {
            type Output = Self;
            #[inline(always)]
            fn add(self, y: Self) -> Self {
                Portable([$(self.0[$l] + y.0[$l]),*])
            }
        }

        impl Sub for Portable<$m> {
            type Output = Self;
            #[inline(always)]
            fn sub(self, y: Self) -> Self {
                Portable([$(self.0[$l] - y.0[$l]),*])
            }
        }

        impl Mul for Portable<$m> {
            type Output = Self;
            #[inline(always)]
            fn mul(self, y: Self) -> Self {
                Portable([$(self.0[$l] * y.0[$l]),*])
            }
        }

        impl Div for Portable<$m> {
            type Output = Self;
            #[inline(always)]
            fn div(self, y: Self) -> Self {
                Portable([$(self.0[$l] / y.0[$l]),*])
            }
        }

        impl Neg for Portable<$m> {
            type Output = Self;
            #[inline(always)]
            fn neg(self) -> Self {
                Portable([$(-self.0[$l]),*])
            }
        }

        impl BitAnd for PortableMask<$m> {
            type Output = Self;
            #[inline(always)]
            fn bitand(self, y: Self) -> Self {
                PortableMask([$(self.0[$l] & y.0[$l]),*])
            }
        }

        impl BitOr for PortableMask<$m> {
            type Output = Self;
            #[inline(always)]
            fn bitor(self, y: Self) -> Self {
                PortableMask([$(self.0[$l] | y.0[$l]),*])
            }
        }

        impl Lane for Portable<$m> {
            type Mask = PortableMask<$m>;
            type Isa = ();
            const WIDTH: usize = $m;

            #[inline(always)]
            fn splat((): (), x: f64) -> Self {
                Portable([x; $m])
            }

            #[inline(always)]
            fn load((): (), v: &[f64]) -> Self {
                let mut a = [0.0; $m];
                a.copy_from_slice(&v[..$m]);
                Portable(a)
            }

            #[inline(always)]
            fn store(self, out: &mut [f64]) {
                out[..$m].copy_from_slice(&self.0);
            }

            #[inline(always)]
            fn abs(self) -> Self {
                Portable([$(self.0[$l].abs()),*])
            }

            #[inline(always)]
            fn lt(self, y: Self) -> Self::Mask {
                PortableMask([$(self.0[$l] < y.0[$l]),*])
            }

            #[inline(always)]
            fn le(self, y: Self) -> Self::Mask {
                PortableMask([$(self.0[$l] <= y.0[$l]),*])
            }

            #[inline(always)]
            fn gt(self, y: Self) -> Self::Mask {
                PortableMask([$(self.0[$l] > y.0[$l]),*])
            }

            #[inline(always)]
            fn ge(self, y: Self) -> Self::Mask {
                PortableMask([$(self.0[$l] >= y.0[$l]),*])
            }

            #[inline(always)]
            fn is_nan(self) -> Self::Mask {
                PortableMask([$(self.0[$l].is_nan()),*])
            }

            #[inline(always)]
            fn select(m: Self::Mask, t: Self, f: Self) -> Self {
                Portable([$(if m.0[$l] { t.0[$l] } else { f.0[$l] }),*])
            }
        }
    )*};
}
portable_lanes!(1: 0; 4: 0 1 2 3;);

/// The lanes of `v` (the first `L::WIDTH` entries are live).
#[inline(always)]
fn lanes<L: Lane>(v: L) -> [f64; MAX_WIDTH] {
    const { assert!(L::WIDTH <= MAX_WIDTH) };
    let mut a = [0.0; MAX_WIDTH];
    v.store(&mut a);
    a
}

/// Per-phase duration lanes transposed to per-lane duration vectors
/// (the first `L::WIDTH` rows are live).
#[inline(always)]
fn phase_lanes<L: Lane, const P: usize>(d: [L; P]) -> [[f64; P]; MAX_WIDTH] {
    let mut out = [[0.0; P]; MAX_WIDTH];
    for (k, x) in d.into_iter().enumerate() {
        let x = lanes(x);
        for l in 0..L::WIDTH {
            out[l][k] = x[l];
        }
    }
    out
}

/// The seven capacity lanes of one chunk.
struct CapsLanes<L> {
    c_a_ab: L,
    c_b_ab: L,
    c_a_ar: L,
    c_b_br: L,
    c_r_ar: L,
    c_r_br: L,
    c_mac: L,
}

impl<L: Lane> CapsLanes<L> {
    #[inline(always)]
    fn load(isa: L::Isa, b: &PointBlock, i: usize) -> Self {
        CapsLanes {
            c_a_ab: L::load(isa, &b.c_a_ab[i..]),
            c_b_ab: L::load(isa, &b.c_b_ab[i..]),
            c_a_ar: L::load(isa, &b.c_a_ar[i..]),
            c_b_br: L::load(isa, &b.c_b_br[i..]),
            c_r_ar: L::load(isa, &b.c_r_ar[i..]),
            c_r_br: L::load(isa, &b.c_r_br[i..]),
            c_mac: L::load(isa, &b.c_mac[i..]),
        }
    }
}

impl CapsLanes<Portable<1>> {
    #[inline(always)]
    fn from_caps(c: &LinkCaps) -> Self {
        CapsLanes {
            c_a_ab: Portable([c.c_a_ab]),
            c_b_ab: Portable([c.c_b_ab]),
            c_a_ar: Portable([c.c_a_ar]),
            c_b_br: Portable([c.c_b_br]),
            c_r_ar: Portable([c.c_r_ar]),
            c_r_br: Portable([c.c_r_br]),
            c_mac: Portable([c.c_mac]),
        }
    }
}

/// A closed-form answer per lane: the objective value, `ra`, `rb` and the
/// `P` phase durations.
struct AnswerLanes<L, const P: usize> {
    value: L,
    ra: L,
    rb: L,
    d: [L; P],
}

impl<L: Lane, const P: usize> AnswerLanes<L, P> {
    /// A max–min answer: the symmetric rate `t` is the value and both
    /// rates.
    #[inline(always)]
    fn symmetric(t: L, d: [L; P]) -> Self {
        AnswerLanes {
            value: t,
            ra: t,
            rb: t,
            d,
        }
    }

    /// Appends one outcome per lane.
    #[inline(always)]
    fn push(self, objective: Objective, protocol: Protocol, out: &mut Vec<SolveOutcome>) {
        let (value, ra, rb) = (lanes(self.value), lanes(self.ra), lanes(self.rb));
        let d = phase_lanes(self.d);
        for l in 0..L::WIDTH {
            out.push(SolveOutcome {
                protocol,
                objective,
                ra: ra[l],
                rb: rb[l],
                durations: PhaseVec::from(d[l]),
                value: value[l],
            });
        }
    }
}

impl<const P: usize> AnswerLanes<Portable<1>, P> {
    #[inline(always)]
    fn one(self, objective: Objective, protocol: Protocol) -> SolveOutcome {
        SolveOutcome {
            protocol,
            objective,
            ra: self.ra.0[0],
            rb: self.rb.0[0],
            durations: PhaseVec::from(self.d.map(|x| x.0[0])),
            value: self.value.0[0],
        }
    }
}

// ---------------------------------------------------------------------------
// Vertex tournaments
// ---------------------------------------------------------------------------
//
// Inlining. Every lane op and helper is `inline(always)`: an AVX2
// intrinsic inlines only into code compiled with AVX2 enabled, so the
// whole kernel must land inside the `#[target_feature]` block functions
// of `simd`. The lane bodies and the tournament step are marked
// `cfg_attr(not(debug_assertions), inline(always))` instead: an
// unoptimised build keeps a stack slot per value of every inlined copy,
// and fully inlined, the HBC kernel alone would outgrow a thread's stack.

/// Expands `$m!(i, j)` for every pair `i < j` of the listed indices in
/// lexicographic order — a `for i { for j in i + 1.. }` loop, unrolled so
/// every index is a constant.
macro_rules! each_pair {
    ($m:ident: $i:tt $($j:tt)*) => {
        $($m!($i, $j);)*
        each_pair!($m: $($j)*);
    };
    ($m:ident:) => {};
}

/// The exact objective a vertex tournament maximises, evaluated on a
/// screened ray (non-negative, not normalised: it is homogeneous of
/// degree 1).
trait RayValue<const N: usize> {
    fn value<L: Lane>(c: &CapsLanes<L>, d: &[L; N]) -> L;
}

/// Running winner of a homogeneous tournament over rays of the
/// `N − 1`-simplex: best exact objective `f`, the winner's mass `sum`
/// (objectives compare by cross-multiplication, so no ray is divided
/// until the end) and the winning ray.
struct Best<L, const N: usize> {
    f: L,
    sum: L,
    d: [L; N],
}

/// Implements the tournament step for rays of each listed length,
/// spelled out per coordinate (see `portable_lanes!` for why no loops).
macro_rules! tournament {
    ($($n:literal: $first:literal $($rest:literal)*;)*) => {$(
        impl<L: Lane> Best<L, $n> {
            /// Offers one candidate ray per lane: sign-normalise it,
            /// screen it for simplex membership, evaluate `V` on its
            /// clamped coordinates and keep it where it strictly beats
            /// the current best — all by masked select, so the
            /// first-found maximum wins ties.
            #[cfg_attr(not(debug_assertions), inline(always))]
            fn consider<V: RayValue<$n>>(&mut self, isa: L::Isa, c: &CapsLanes<L>, ray: [L; $n]) {
                let z = L::splat(isa, 0.0);
                let sum = ray[$first] $(+ ray[$rest])*;
                let neg = sum.lt(z);
                let d = [ray[$first].neg_if(neg) $(, ray[$rest].neg_if(neg))*];
                let sum = sum.neg_if(neg);
                let norm = d[$first].abs() $(+ d[$rest].abs())*;
                let tol = L::splat(isa, 1e-9) * sum;
                let ok = sum.gt(L::splat(isa, 1e-12) * norm) & d[$first].ge(-tol) $(& d[$rest].ge(-tol))*;
                let d = [d[$first].max(z) $(, d[$rest].max(z))*];
                let f = V::value(c, &d);
                let m = ok & (f * self.sum).gt(self.f * sum);
                self.f = L::select(m, f, self.f);
                self.sum = L::select(m, sum, self.sum);
                self.d = [L::select(m, d[$first], self.d[$first]) $(, L::select(m, d[$rest], self.d[$rest]))*];
            }

            /// The winning ray scaled onto the simplex.
            #[inline(always)]
            fn point(&self, isa: L::Isa) -> [L; $n] {
                let inv = L::splat(isa, 1.0) / self.sum;
                [self.d[$first] * inv $(, self.d[$rest] * inv)*]
            }
        }
    )*};
}
tournament!(3: 0 1 2; 4: 0 1 2 3;);

/// The ray where two planes through the origin of 3-space meet: their
/// cross product.
#[inline(always)]
fn cross3<L: Lane>(a: &[L; 3], b: &[L; 3]) -> [L; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

// ---------------------------------------------------------------------------
// Sum-rate lane kernels
// ---------------------------------------------------------------------------

/// DT sum rate: the objective is linear in the split, so all time goes
/// to the stronger direction.
#[cfg_attr(not(debug_assertions), inline(always))]
fn dt_sum_lanes<L: Lane>(isa: L::Isa, c: &CapsLanes<L>) -> AnswerLanes<L, 2> {
    let (z, one) = (L::splat(isa, 0.0), L::splat(isa, 1.0));
    let (ca, cb) = (c.c_a_ab, c.c_b_ab);
    let m = ca.ge(cb);
    let d0 = L::select(m, one, z);
    AnswerLanes {
        value: L::select(m, ca, cb),
        ra: L::select(m, ca, z),
        rb: L::select(m, z, cb),
        d: [d0, one - d0],
    }
}

/// The exact MABC sum-rate profile `f(Δ) = min(mA(Δ) + mB(Δ), Δ·s)` with
/// `mX(Δ) = min(Δ·x₁, (1−Δ)·x₂)`.
#[inline(always)]
fn mabc_f<L: Lane>(one: L, d: L, a1: L, a2: L, b1: L, b2: L, s: L) -> L {
    let e = one - d;
    let g = (d * a1).min(e * a2) + (d * b1).min(e * b2);
    g.min(d * s)
}

/// MABC sum rate: maximises the concave piecewise-linear `f` above by
/// evaluating its exact value at the seven analytic candidates — the
/// endpoints, the two kinks of `mA + mB`, and the crossing of each
/// linear branch combination with the MAC line `Δ·s` (the combination
/// `Δ·a₁ + Δ·b₁` crosses at Δ = 0, already an endpoint). Degenerate
/// candidates (0/0 → NaN) never win a strict comparison, and candidates
/// clamped into `[0, 1]` re-evaluate an endpoint exactly, so extras are
/// harmless.
#[cfg_attr(not(debug_assertions), inline(always))]
fn mabc_sum_lanes<L: Lane>(isa: L::Isa, c: &CapsLanes<L>) -> AnswerLanes<L, 2> {
    let (a1, a2) = (c.c_a_ar, c.c_r_br);
    let (b1, b2) = (c.c_b_br, c.c_r_ar);
    let s = c.c_mac;
    let (z, one) = (L::splat(isa, 0.0), L::splat(isa, 1.0));
    let mut bd = z;
    let mut bf = mabc_f(one, z, a1, a2, b1, b2, s);
    macro_rules! offer {
        ($d:expr) => {
            let d = clamp01($d, z, one);
            let v = mabc_f(one, d, a1, a2, b1, b2, s);
            let m = v.gt(bf);
            bd = L::select(m, d, bd);
            bf = L::select(m, v, bf);
        };
    }
    offer!(one);
    offer!(a2 / (a1 + a2));
    offer!(b2 / (b1 + b2));
    offer!(b2 / (s - a1 + b2));
    offer!(a2 / (s - b1 + a2));
    offer!((a2 + b2) / (s + a2 + b2));
    let e = one - bd;
    let ra0 = (bd * a1).min(e * a2);
    let rb0 = (bd * b1).min(e * b2);
    let cap = bd * s;
    // When the MAC sum row binds, keep R_b at its individual cap and
    // give R_a the remainder (deterministic feasible split).
    let over = (ra0 + rb0).gt(cap);
    let rbx = rb0.min(cap);
    AnswerLanes {
        value: bf,
        ra: L::select(over, cap - rbx, ra0),
        rb: L::select(over, rbx, rb0),
        d: [bd, one - bd],
    }
}

/// TDBC's two rate terms `min(α·Δ₁, β·Δ₁ + γ·Δ₃)` and
/// `min(δ·Δ₂, ε·Δ₂ + ζ·Δ₃)`.
#[inline(always)]
fn tdbc_terms<L: Lane>(c: &CapsLanes<L>, d: &[L; 3]) -> (L, L) {
    let (alpha, beta, gamma) = (c.c_a_ar, c.c_a_ab, c.c_r_br);
    let (delta, eps, zeta) = (c.c_b_br, c.c_b_ab, c.c_r_ar);
    let u = (alpha * d[0]).min(beta * d[0] + gamma * d[2]);
    let v = (delta * d[1]).min(eps * d[1] + zeta * d[2]);
    (u, v)
}

/// TDBC sum rate `u + v`.
struct TdbcSum;

impl RayValue<3> for TdbcSum {
    #[inline(always)]
    fn value<L: Lane>(c: &CapsLanes<L>, d: &[L; 3]) -> L {
        let (u, v) = tdbc_terms(c, d);
        u + v
    }
}

/// TDBC sum rate by vertex enumeration over the 2-simplex (see
/// `crate::kernel`'s module docs): a division-free homogeneous
/// tournament over the 10 pairwise intersections of the three facets
/// and the two `min`-kink planes.
#[cfg_attr(not(debug_assertions), inline(always))]
fn tdbc_sum_lanes<L: Lane>(isa: L::Isa, c: &CapsLanes<L>) -> AnswerLanes<L, 3> {
    let (alpha, beta, gamma) = (c.c_a_ar, c.c_a_ab, c.c_r_br);
    let (delta, eps, zeta) = (c.c_b_br, c.c_b_ab, c.c_r_ar);
    let (z, one) = (L::splat(isa, 0.0), L::splat(isa, 1.0));
    let planes = [
        [one, z, z],               // Δ₁ = 0
        [z, one, z],               // Δ₂ = 0
        [z, z, one],               // Δ₃ = 0
        [alpha - beta, z, -gamma], // α·Δ₁ = β·Δ₁ + γ·Δ₃
        [z, delta - eps, -zeta],   // δ·Δ₂ = ε·Δ₂ + ζ·Δ₃
    ];
    let mut best = Best {
        f: z,
        sum: one,
        d: [z, z, one],
    };
    macro_rules! pair {
        ($i:tt, $j:tt) => {
            best.consider::<TdbcSum>(isa, c, cross3(&planes[$i], &planes[$j]))
        };
    }
    each_pair!(pair: 0 1 2 3 4);
    let d = best.point(isa);
    let (u, v) = tdbc_terms(c, &d);
    let (u, v) = (u.max(z), v.max(z));
    AnswerLanes {
        value: u + v,
        ra: u,
        rb: v,
        d,
    }
}

/// HBC's three rate terms at `Δ` (Theorem 5): the two direct-plus-relay
/// terms `u`, `v` and the MAC sum term `w`.
#[inline(always)]
fn hbc_terms<L: Lane>(c: &CapsLanes<L>, d: &[L; 4]) -> (L, L, L) {
    let (a1, a2, a3) = (c.c_a_ar, c.c_a_ab, c.c_r_br);
    let (b1, b2, b3) = (c.c_b_br, c.c_b_ab, c.c_r_ar);
    let s = c.c_mac;
    let [d0, d1, d2, d3] = *d;
    let u = (a1 * (d0 + d2)).min(a2 * d0 + a3 * d3);
    let v = (b1 * (d1 + d2)).min(b2 * d1 + b3 * d3);
    let w = a1 * d0 + b1 * d1 + s * d2;
    (u, v, w)
}

/// HBC sum rate `F = min(u + v, w)`.
struct HbcSum;

impl RayValue<4> for HbcSum {
    #[inline(always)]
    fn value<L: Lane>(c: &CapsLanes<L>, d: &[L; 4]) -> L {
        let (u, v, w) = hbc_terms(c, d);
        (u + v).min(w)
    }
}

/// The ray where simplex edge `span{e_I, e_J}` meets plane `n`:
/// `n_J·e_I − n_I·e_J` (the other two coordinates are +0).
#[inline(always)]
fn edge_ray<L: Lane, const I: usize, const J: usize>(n: &[L; 4], z: L) -> [L; 4] {
    let mut d = [z; 4];
    d[I] = n[J];
    d[J] = -n[I];
    d
}

/// The coordinates of the 3-simplex other than `f`, in order.
const fn facet_rest(f: usize) -> [usize; 3] {
    match f {
        0 => [1, 2, 3],
        1 => [0, 2, 3],
        2 => [0, 1, 3],
        _ => [0, 1, 2],
    }
}

/// The ray where facet `Δ_F = 0` meets planes `p` and `q`: their cross
/// product over the other three coordinates (coordinate `F` is +0).
#[inline(always)]
fn facet_ray<L: Lane, const F: usize>(p: &[L; 4], q: &[L; 4], z: L) -> [L; 4] {
    let [r0, r1, r2] = const { facet_rest(F) };
    let c = cross3(&[p[r0], p[r1], p[r2]], &[q[r0], q[r1], q[r2]]);
    let mut d = [z; 4];
    d[r0] = c[0];
    d[r1] = c[1];
    d[r2] = c[2];
    d
}

/// The 3×3 minor of rows `p`, `q`, `r` on columns `i`, `j`, `k`
/// (cofactor expansion along `p`).
#[inline(always)]
fn det3<L: Lane>(p: &[L; 4], q: &[L; 4], r: &[L; 4], i: usize, j: usize, k: usize) -> L {
    p[i] * (q[j] * r[k] - q[k] * r[j]) - p[j] * (q[i] * r[k] - q[k] * r[i])
        + p[k] * (q[i] * r[j] - q[j] * r[i])
}

/// The ray where three planes through the origin of 4-space meet: the
/// generalised cross product of their normals.
#[inline(always)]
fn null4<L: Lane>(p: &[L; 4], q: &[L; 4], r: &[L; 4]) -> [L; 4] {
    [
        det3(p, q, r, 1, 2, 3),
        -det3(p, q, r, 0, 2, 3),
        det3(p, q, r, 0, 1, 3),
        -det3(p, q, r, 0, 1, 2),
    ]
}

/// HBC sum rate by vertex enumeration over the 3-simplex (see
/// `crate::kernel`'s module docs for the geometry): 61 candidate rays —
/// corners, edge ∩ kink plane, facet ∩ plane pair, interior triples —
/// through the division-free homogeneous tournament. Every ray is
/// emitted with constant indices, so the tournament is straight-line
/// lane code.
///
/// The full enumeration has 65 rays; four of them can never win, so
/// they are not emitted (the result bits are those of all 65):
///
/// * Corners `e₂` and `e₃` evaluate to `F = +0` when the capacities are
///   finite (`u = min(a₁, +0) = +0` and `v = min(b₁, +0) = +0` at `e₂`;
///   `u`, `v` and `w` are all `+0` at `e₃`). A ray wins only by strictly
///   beating the running best, which starts at `F = 0` and never
///   decreases, so neither can win. (A capacity is infinite only if a
///   power–gain product overflows `f64`.)
/// * On facet `Δ₃ = 0`, K₁ and T₂₁ restrict to the exactly opposite
///   vectors `(a₁−a₂, 0, −a₃)` and `(a₂−a₁, 0, a₃)` — IEEE subtraction
///   and negation are sign-symmetric — and likewise K₂ and T₁₂ restrict
///   to `(0, b₁−b₂, −b₃)` and `(0, b₂−b₁, b₃)`. The cross product of
///   exactly opposite vectors is exactly zero when the entries are
///   finite, and has a NaN entry otherwise (`0·∞` or `∞ − ∞`). Either
///   way the mass screen `sum > 1e-12·norm` rejects the ray.
///
/// Every other symbolic duplicate stays: the three interior
/// K₁∩K₂∩T rays equal the facet-`Δ₃` K₁×K₂ ray up to scale, and sixteen
/// edge or facet rays repeat corners `e₀` or `e₁`, but a later duplicate
/// can still win by one rounding and so change the duration bits.
#[cfg_attr(not(debug_assertions), inline(always))]
fn hbc_sum_lanes<L: Lane>(isa: L::Isa, c: &CapsLanes<L>) -> AnswerLanes<L, 4> {
    let (a1, a2, a3) = (c.c_a_ar, c.c_a_ab, c.c_r_br);
    let (b1, b2, b3) = (c.c_b_br, c.c_b_ab, c.c_r_ar);
    let s = c.c_mac;
    let (z, one) = (L::splat(isa, 0.0), L::splat(isa, 1.0));
    // The five kink planes: the two `min` kinks K₁, K₂ and the three
    // admissible `u + v = w` tie planes (T₁₁ degenerates to Δ₃ = 0).
    let k1 = [a1 - a2, z, a1, -a3];
    let k2 = [z, b1 - b2, b1, -b3];
    let t12 = [z, b2 - b1, a1 - s, b3];
    let t21 = [a2 - a1, z, b1 - s, a3];
    let t22 = [a2 - a1, b2 - b1, -s, a3 + b3];
    let mut best = Best {
        f: z,
        sum: one,
        d: [z, z, z, one],
    };
    macro_rules! offer {
        ($ray:expr) => {
            best.consider::<HbcSum>(isa, c, $ray)
        };
    }
    // Corners of the simplex (three facets); e₂ and e₃ never win.
    offer!([one, z, z, z]);
    offer!([z, one, z, z]);
    // Simplex edges (two facets) crossed with one kink plane.
    macro_rules! edge {
        ($i:tt, $j:tt) => {
            offer!(edge_ray::<L, $i, $j>(&k1, z));
            offer!(edge_ray::<L, $i, $j>(&k2, z));
            offer!(edge_ray::<L, $i, $j>(&t12, z));
            offer!(edge_ray::<L, $i, $j>(&t21, z));
            offer!(edge_ray::<L, $i, $j>(&t22, z));
        };
    }
    each_pair!(edge: 0 1 2 3);
    // One facet crossed with two kink planes, skipping tie-plane pairs:
    // no linearity region is bounded by two tie planes at once.
    macro_rules! facet {
        ($f:tt: $(($p:ident, $q:ident))*) => {
            $(offer!(facet_ray::<L, $f>(&$p, &$q, z));)*
        };
    }
    facet!(0: (k1, k2) (k1, t12) (k1, t21) (k1, t22) (k2, t12) (k2, t21) (k2, t22));
    facet!(1: (k1, k2) (k1, t12) (k1, t21) (k1, t22) (k2, t12) (k2, t21) (k2, t22));
    // K₁×T₂₁ and K₂×T₁₂ vanish on this facet.
    facet!(2: (k1, k2) (k1, t12) (k1, t22) (k2, t21) (k2, t22));
    facet!(3: (k1, k2) (k1, t12) (k1, t21) (k1, t22) (k2, t12) (k2, t21) (k2, t22));
    // Interior vertices: K₁ ∩ K₂ ∩ one tie plane.
    offer!(null4(&k1, &k2, &t12));
    offer!(null4(&k1, &k2, &t21));
    offer!(null4(&k1, &k2, &t22));
    // Recompute the exact operating point at the normalised winner.
    let d = best.point(isa);
    let (u, v, w) = hbc_terms(c, &d);
    // When the sum row binds, keep R_b at its individual cap and give
    // R_a the remainder (the MABC kernel's convention).
    let direct = (u + v).le(w);
    let rbx = v.min(w);
    AnswerLanes {
        value: (u + v).min(w),
        ra: L::select(direct, u, w - rbx),
        rb: L::select(direct, v, rbx),
        d,
    }
}

// ---------------------------------------------------------------------------
// Max–min lane kernels
// ---------------------------------------------------------------------------

/// DT max–min: both direct-link lines bind at the optimum.
#[cfg_attr(not(debug_assertions), inline(always))]
fn dt_mm_lanes<L: Lane>(isa: L::Isa, c: &CapsLanes<L>) -> AnswerLanes<L, 2> {
    let (z, one) = (L::splat(isa, 0.0), L::splat(isa, 1.0));
    let (ca, cb) = (c.c_a_ab, c.c_b_ab);
    let dead = ca.le(z) | cb.le(z);
    let d0 = L::select(dead, L::splat(isa, 0.5), cb / (ca + cb));
    let t = L::select(dead, z, ca * cb / (ca + cb));
    AnswerLanes::symmetric(t, [d0, one - d0])
}

/// MABC max–min: `t ≤ mA(Δ)`, `t ≤ mB(Δ)`, `2t ≤ Δ·s` — the maximum of
/// a min of five lines sits at a pairwise crossing or an endpoint.
/// Candidates are screened (not clamped) exactly like the scalar
/// `Cands` list, so out-of-range and degenerate crossings are rejected
/// and the first-found maximum resolves ties identically.
#[cfg_attr(not(debug_assertions), inline(always))]
fn mabc_mm_lanes<L: Lane>(isa: L::Isa, c: &CapsLanes<L>) -> AnswerLanes<L, 2> {
    let (z, one) = (L::splat(isa, 0.0), L::splat(isa, 1.0));
    // The five lines `p·Δ + q·(1 − Δ)`.
    let p = [c.c_a_ar, z, c.c_b_br, z, L::splat(isa, 0.5) * c.c_mac];
    let q = [z, c.c_r_br, z, c.c_r_ar, z];
    let mut bd = z;
    let mut bv = L::splat(isa, f64::NEG_INFINITY);
    macro_rules! offer {
        ($d:expr) => {
            let d = $d;
            let ok = z.le(d) & d.le(one); // NaN/±inf crossings rejected
            let e = one - d;
            // The running minimum `v` starts at +∞ and is never NaN, so
            // `v.min(y)` is `y < v ? y : v`: spelled that way, it needs
            // no NaN test.
            let mut v = L::splat(isa, f64::INFINITY);
            for y in [
                p[0] * d + q[0] * e,
                p[1] * d + q[1] * e,
                p[2] * d + q[2] * e,
                p[3] * d + q[3] * e,
                p[4] * d + q[4] * e,
            ] {
                v = L::select(y.lt(v), y, v);
            }
            let m = ok & v.gt(bv);
            bd = L::select(m, d, bd);
            bv = L::select(m, v, bv);
        };
    }
    macro_rules! crossing {
        ($i:tt, $j:tt) => {
            offer!((q[$j] - q[$i]) / ((p[$i] - q[$i]) - (p[$j] - q[$j])));
        };
    }
    offer!(z);
    offer!(one);
    each_pair!(crossing: 0 1 2 3 4);
    AnswerLanes::symmetric(bv.max(z), [bd, one - bd])
}

/// TDBC symmetric rate: the min of the four rate lines.
struct TdbcMaxMin;

impl RayValue<3> for TdbcMaxMin {
    #[inline(always)]
    fn value<L: Lane>(c: &CapsLanes<L>, d: &[L; 3]) -> L {
        let (alpha, beta, gamma) = (c.c_a_ar, c.c_a_ab, c.c_r_br);
        let (delta, eps, zeta) = (c.c_b_br, c.c_b_ab, c.c_r_ar);
        (alpha * d[0])
            .min(beta * d[0] + gamma * d[2])
            .min(delta * d[1])
            .min(eps * d[1] + zeta * d[2])
    }
}

/// TDBC max–min by vertex enumeration: nine cut planes (three facets,
/// six pairwise ties of the four rate lines), 36 pairwise candidates
/// through the homogeneous tournament.
#[cfg_attr(not(debug_assertions), inline(always))]
fn tdbc_mm_lanes<L: Lane>(isa: L::Isa, c: &CapsLanes<L>) -> AnswerLanes<L, 3> {
    let (alpha, beta, gamma) = (c.c_a_ar, c.c_a_ab, c.c_r_br);
    let (delta, eps, zeta) = (c.c_b_br, c.c_b_ab, c.c_r_ar);
    let (z, one) = (L::splat(isa, 0.0), L::splat(isa, 1.0));
    let planes = [
        [one, z, z],
        [z, one, z],
        [z, z, one],
        [alpha - beta, z, -gamma],
        [alpha, -delta, z],
        [alpha, -eps, -zeta],
        [beta, -delta, gamma],
        [beta, -eps, gamma - zeta],
        [z, delta - eps, -zeta],
    ];
    let mut best = Best {
        f: z,
        sum: one,
        d: [z, z, one],
    };
    macro_rules! pair {
        ($i:tt, $j:tt) => {
            best.consider::<TdbcMaxMin>(isa, c, cross3(&planes[$i], &planes[$j]))
        };
    }
    each_pair!(pair: 0 1 2 3 4 5 6 7 8);
    let d = best.point(isa);
    AnswerLanes::symmetric(TdbcMaxMin::value(c, &d).max(z), d)
}

// ---------------------------------------------------------------------------
// The lane-body table and its runners
// ---------------------------------------------------------------------------

/// The one `(objective, protocol) → lane body` table: evaluates to
/// `Some($run!(body))` with the lane body that answers the request in
/// closed form, or to `None` for a request the closed forms leave to the
/// simplex. `solve_one` and `chunks` expand it, each matching once per
/// call, outside any loop.
macro_rules! lane_table {
    ($objective:expr, $protocol:expr, $run:ident) => {
        match ($objective, $protocol) {
            (Objective::SumRate, Protocol::DirectTransmission) => Some($run!(dt_sum_lanes)),
            (Objective::SumRate, Protocol::Mabc) => Some($run!(mabc_sum_lanes)),
            (Objective::SumRate, Protocol::Tdbc) => Some($run!(tdbc_sum_lanes)),
            (Objective::SumRate, Protocol::Hbc) => Some($run!(hbc_sum_lanes)),
            (Objective::MaxMin, Protocol::DirectTransmission) => Some($run!(dt_mm_lanes)),
            (Objective::MaxMin, Protocol::Mabc) => Some($run!(mabc_mm_lanes)),
            (Objective::MaxMin, Protocol::Tdbc) => Some($run!(tdbc_mm_lanes)),
            // HBC's four-phase max–min has no closed form yet (see
            // `SolveRequest::is_batchable`).
            (Objective::MaxMin, Protocol::Hbc) => None,
        }
    };
}

/// The closed-form answer at one point from its capacity bundle: the
/// width-1 instantiation of the lane body, so it is bit-identical to the
/// block path by construction. Records one kernel hit; `None` (and no
/// hit) for a request without a closed form.
pub(crate) fn solve_one(
    caps: &LinkCaps,
    objective: Objective,
    protocol: Protocol,
) -> Option<SolveOutcome> {
    let c = CapsLanes::from_caps(caps);
    macro_rules! one {
        ($body:ident) => {
            $body::<Portable<1>>((), &c).one(objective, protocol)
        };
    }
    let outcome = lane_table!(objective, protocol, one)?;
    stats::record(&stats::KernelStats {
        kernel_hits: 1,
        ..stats::KernelStats::zero()
    });
    Some(outcome)
}

/// Runs the lane body of `(objective, protocol)` over the block's full
/// `L`-wide chunks from point `from` on, appending one outcome per point
/// to `out`. Returns the index where the chunks stop, or `None` (leaving
/// `out` alone) for a request without a closed form.
#[inline(always)]
fn chunks<L: Lane>(
    isa: L::Isa,
    block: &PointBlock,
    from: usize,
    objective: Objective,
    protocol: Protocol,
    out: &mut Vec<SolveOutcome>,
) -> Option<usize> {
    let end = from + (block.len() - from) / L::WIDTH * L::WIDTH;
    macro_rules! run {
        ($body:ident) => {{
            for i in (from..end).step_by(L::WIDTH) {
                $body::<L>(isa, &CapsLanes::load(isa, block, i)).push(objective, protocol, out);
            }
            end
        }};
    }
    lane_table!(objective, protocol, run)
}

/// The vector lanes a block kernel runs on: holding a variant proves the
/// host can run it.
#[derive(Clone, Copy)]
enum LanePath {
    /// `[f64; LANE]` chunks: hosts without AVX2, and other architectures.
    Portable,
    /// `F64x4` chunks.
    #[cfg(target_arch = "x86_64")]
    Avx2(simd::Avx2),
    /// `F64x8` chunks, then at most one `F64x4` chunk.
    #[cfg(target_arch = "x86_64")]
    Avx512(simd::Avx512),
}

impl LanePath {
    /// The widest path this host supports: AVX-512, then AVX2, then
    /// portable.
    fn detect() -> LanePath {
        #[cfg(target_arch = "x86_64")]
        {
            if let Some(isa) = simd::Avx512::detect() {
                return LanePath::Avx512(isa);
            }
            if let Some(isa) = simd::Avx2::detect() {
                return LanePath::Avx2(isa);
            }
        }
        LanePath::Portable
    }

    /// The instruction set's name, as [`lane_isa`] reports it.
    fn name(self) -> &'static str {
        match self {
            LanePath::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            LanePath::Avx2(_) => "avx2",
            #[cfg(target_arch = "x86_64")]
            LanePath::Avx512(_) => "avx512f",
        }
    }

    /// The whole-block closed form of `(objective, protocol)` on this
    /// path: its vector chunks, then the width-1 tail through the same
    /// chunk runner. Returns `false`, leaving `out` alone, for a request
    /// without a closed form.
    fn run(
        self,
        block: &PointBlock,
        objective: Objective,
        protocol: Protocol,
        out: &mut Vec<SolveOutcome>,
    ) -> bool {
        let tail = match self {
            LanePath::Portable => chunks::<Portable<LANE>>((), block, 0, objective, protocol, out),
            #[cfg(target_arch = "x86_64")]
            LanePath::Avx2(isa) => isa.run(block, objective, protocol, out),
            #[cfg(target_arch = "x86_64")]
            LanePath::Avx512(isa) => isa.run(block, objective, protocol, out),
        };
        let Some(tail) = tail else {
            return false;
        };
        chunks::<Portable<1>>((), block, tail, objective, protocol, out);
        finish_block(block.len(), tail);
        true
    }
}

/// The AVX2 and AVX-512 lane types and the block bodies instantiated on
/// them. This module holds all of the crate's `unsafe`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::{chunks, Lane, Objective, PointBlock, Protocol, SolveOutcome};
    use std::arch::x86_64::{
        __m256d, __m512d, __mmask8, _mm256_add_pd, _mm256_and_pd, _mm256_andnot_pd,
        _mm256_blendv_pd, _mm256_cmp_pd, _mm256_div_pd, _mm256_loadu_pd, _mm256_max_pd,
        _mm256_min_pd, _mm256_mul_pd, _mm256_or_pd, _mm256_set1_pd, _mm256_storeu_pd,
        _mm256_sub_pd, _mm256_xor_pd, _mm512_abs_pd, _mm512_add_pd, _mm512_castpd_si512,
        _mm512_castsi512_pd, _mm512_cmp_pd_mask, _mm512_div_pd, _mm512_loadu_pd,
        _mm512_mask_blend_pd, _mm512_mask_xor_epi64, _mm512_max_pd, _mm512_min_pd, _mm512_mul_pd,
        _mm512_set1_epi64, _mm512_set1_pd, _mm512_storeu_pd, _mm512_sub_pd, _CMP_GE_OQ, _CMP_GT_OQ,
        _CMP_LE_OQ, _CMP_LT_OQ, _CMP_UNORD_Q,
    };
    use std::ops::{Add, BitAnd, BitOr, Div, Mul, Neg, Sub};

    /// Proof that the running CPU supports AVX2: [`Avx2::detect`] (or
    /// [`Avx512::avx2`], whose detection checked AVX2 too) is its only
    /// constructor.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(());

    impl Avx2 {
        pub(super) fn detect() -> Option<Avx2> {
            std::arch::is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }

        /// The closed form on `F64x4` lanes; returns where the width-1
        /// tail starts (`None` without a closed form).
        pub(super) fn run(
            self,
            block: &PointBlock,
            objective: Objective,
            protocol: Protocol,
            out: &mut Vec<SolveOutcome>,
        ) -> Option<usize> {
            // SAFETY: `self` proves the CPU supports AVX2, the only
            // feature `run_avx2` enables.
            unsafe { run_avx2(self, block, objective, protocol, out) }
        }
    }

    /// Proof that the running CPU supports AVX-512F and AVX2:
    /// [`Avx512::detect`] is its only constructor.
    #[derive(Clone, Copy)]
    pub(super) struct Avx512(());

    impl Avx512 {
        pub(super) fn detect() -> Option<Avx512> {
            let yes = std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx2");
            yes.then_some(Avx512(()))
        }

        /// The AVX2 token: [`Avx512::detect`] checked AVX2 too.
        fn avx2(self) -> Avx2 {
            Avx2(())
        }

        /// The closed form on `F64x8` lanes, then at most one `F64x4`
        /// chunk; returns where the width-1 tail starts (`None` without a
        /// closed form).
        pub(super) fn run(
            self,
            block: &PointBlock,
            objective: Objective,
            protocol: Protocol,
            out: &mut Vec<SolveOutcome>,
        ) -> Option<usize> {
            // SAFETY: `self` proves the CPU supports AVX-512F and AVX2,
            // the features `run_avx512` enables.
            unsafe { run_avx512(self, block, objective, protocol, out) }
        }
    }

    /// Four `f64` lanes in one AVX2 register. A value is built from an
    /// [`Avx2`] token or from other `F64x4`s, so holding one proves the
    /// CPU supports AVX2 — the premise of every `unsafe` block on it.
    #[derive(Clone, Copy)]
    pub(super) struct F64x4(__m256d);

    /// Lane mask of [`F64x4`]: all-ones or all-zeros per lane, from a
    /// compare of `F64x4`s (so it carries the same proof).
    #[derive(Clone, Copy)]
    pub(super) struct Mask4(__m256d);

    /// Eight `f64` lanes in one AVX-512 register. A value is built from
    /// an [`Avx512`] token or from other `F64x8`s, so holding one proves
    /// the CPU supports AVX-512F — the premise of every `unsafe` block on
    /// it.
    #[derive(Clone, Copy)]
    pub(super) struct F64x8(__m512d);

    /// Lane mask of [`F64x8`]: one bit per lane, from a compare of
    /// `F64x8`s. Its `&` and `|` are plain integer ops.
    #[derive(Clone, Copy)]
    pub(super) struct Mask8(__mmask8);

    macro_rules! avx_ops {
        ($ty:ident: $($tr:ident $f:ident $intr:ident),*) => {$(
            impl $tr for $ty {
                type Output = Self;
                #[inline(always)]
                fn $f(self, y: Self) -> Self {
                    // SAFETY: both operands are lane values of this type,
                    // so the CPU has the instruction set it needs.
                    $ty(unsafe { $intr(self.0, y.0) })
                }
            }
        )*};
    }
    avx_ops!(F64x4: Add add _mm256_add_pd, Sub sub _mm256_sub_pd, Mul mul _mm256_mul_pd,
        Div div _mm256_div_pd);
    avx_ops!(Mask4: BitAnd bitand _mm256_and_pd, BitOr bitor _mm256_or_pd);
    avx_ops!(F64x8: Add add _mm512_add_pd, Sub sub _mm512_sub_pd, Mul mul _mm512_mul_pd,
        Div div _mm512_div_pd);

    impl BitAnd for Mask8 {
        type Output = Self;
        #[inline(always)]
        fn bitand(self, y: Self) -> Self {
            Mask8(self.0 & y.0)
        }
    }

    impl BitOr for Mask8 {
        type Output = Self;
        #[inline(always)]
        fn bitor(self, y: Self) -> Self {
            Mask8(self.0 | y.0)
        }
    }

    impl Neg for F64x4 {
        type Output = Self;
        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: `self` is an AVX2 lane value, so AVX2 is present.
            F64x4(unsafe { _mm256_xor_pd(self.0, _mm256_set1_pd(-0.0)) })
        }
    }

    impl Neg for F64x8 {
        type Output = Self;
        #[inline(always)]
        fn neg(self) -> Self {
            flip_sign(self, Mask8(0xff))
        }
    }

    /// Flips the sign bit of the lanes set in `m` (`-x` there, `x`
    /// elsewhere). A masked integer xor: AVX-512F has no `f64` xor.
    #[inline(always)]
    fn flip_sign(x: F64x8, m: Mask8) -> F64x8 {
        // SAFETY: `x` is an AVX-512 lane value, so AVX-512F is present.
        F64x8(unsafe {
            let bits = _mm512_castpd_si512(x.0);
            let sign = _mm512_set1_epi64(i64::MIN);
            _mm512_castsi512_pd(_mm512_mask_xor_epi64(bits, m.0, bits, sign))
        })
    }

    /// A lanewise ordered/unordered compare (`CMP` is an `_CMP_*` code).
    #[inline(always)]
    fn cmp4<const CMP: i32>(x: F64x4, y: F64x4) -> Mask4 {
        // SAFETY: both operands are AVX2 lane values, so AVX2 is present.
        Mask4(unsafe { _mm256_cmp_pd::<CMP>(x.0, y.0) })
    }

    /// A lanewise ordered/unordered compare into a bit mask (`CMP` is an
    /// `_CMP_*` code).
    #[inline(always)]
    fn cmp8<const CMP: i32>(x: F64x8, y: F64x8) -> Mask8 {
        // SAFETY: both operands are AVX-512 lane values, so AVX-512F is
        // present.
        Mask8(unsafe { _mm512_cmp_pd_mask::<CMP>(x.0, y.0) })
    }

    // The `min`/`max` overrides below compute the written meanings
    // exactly: the SDM defines `vminpd a, b` as `a < b ? a : b` and
    // `vmaxpd a, b` as `a > b ? a : b`, each returning `b` when either is
    // NaN, at every vector length.

    impl Lane for F64x4 {
        type Mask = Mask4;
        type Isa = Avx2;
        const WIDTH: usize = 4;

        #[inline(always)]
        fn splat(_: Avx2, x: f64) -> Self {
            // SAFETY: the `Avx2` token proves AVX2 is present.
            F64x4(unsafe { _mm256_set1_pd(x) })
        }

        #[inline(always)]
        fn load(_: Avx2, v: &[f64]) -> Self {
            let v = &v[..4];
            // SAFETY: the `Avx2` token proves AVX2 is present, and `v`
            // holds the four values the unaligned load reads.
            F64x4(unsafe { _mm256_loadu_pd(v.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, out: &mut [f64]) {
            let out = &mut out[..4];
            // SAFETY: `self` is an AVX2 lane value, so AVX2 is present,
            // and `out` has room for the four values the store writes.
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn abs(self) -> Self {
            // SAFETY: `self` is an AVX2 lane value, so AVX2 is present.
            F64x4(unsafe { _mm256_andnot_pd(_mm256_set1_pd(-0.0), self.0) })
        }

        #[inline(always)]
        fn lt(self, y: Self) -> Mask4 {
            cmp4::<_CMP_LT_OQ>(self, y)
        }

        #[inline(always)]
        fn le(self, y: Self) -> Mask4 {
            cmp4::<_CMP_LE_OQ>(self, y)
        }

        #[inline(always)]
        fn gt(self, y: Self) -> Mask4 {
            cmp4::<_CMP_GT_OQ>(self, y)
        }

        #[inline(always)]
        fn ge(self, y: Self) -> Mask4 {
            cmp4::<_CMP_GE_OQ>(self, y)
        }

        #[inline(always)]
        fn is_nan(self) -> Mask4 {
            cmp4::<_CMP_UNORD_Q>(self, self)
        }

        #[inline(always)]
        fn select(m: Mask4, t: Self, f: Self) -> Self {
            // SAFETY: all three operands are AVX2 lane values, so AVX2 is
            // present.
            F64x4(unsafe { _mm256_blendv_pd(f.0, t.0, m.0) })
        }

        #[inline(always)]
        fn min(self, y: Self) -> Self {
            // `vminpd y, x` is `y < x ? y : x`, except that a NaN `x`
            // must give `y`: blend that case back in.
            let x_nan = self.is_nan();
            // SAFETY: both operands are AVX2 lane values, so AVX2 is
            // present.
            F64x4::select(x_nan, y, F64x4(unsafe { _mm256_min_pd(y.0, self.0) }))
        }

        #[inline(always)]
        fn max(self, y: Self) -> Self {
            // SAFETY: both operands are AVX2 lane values, so AVX2 is
            // present.
            F64x4(unsafe { _mm256_max_pd(self.0, y.0) })
        }

        #[inline(always)]
        fn neg_if(self, m: Mask4) -> Self {
            // Flips the sign bit where `m` is set, which is what `-x` does.
            // SAFETY: both operands are AVX2 lane values, so AVX2 is
            // present.
            F64x4(unsafe { _mm256_xor_pd(self.0, _mm256_and_pd(m.0, _mm256_set1_pd(-0.0))) })
        }
    }

    impl Lane for F64x8 {
        type Mask = Mask8;
        type Isa = Avx512;
        const WIDTH: usize = 8;

        #[inline(always)]
        fn splat(_: Avx512, x: f64) -> Self {
            // SAFETY: the `Avx512` token proves AVX-512F is present.
            F64x8(unsafe { _mm512_set1_pd(x) })
        }

        #[inline(always)]
        fn load(_: Avx512, v: &[f64]) -> Self {
            let v = &v[..8];
            // SAFETY: the `Avx512` token proves AVX-512F is present, and
            // `v` holds the eight values the unaligned load reads.
            F64x8(unsafe { _mm512_loadu_pd(v.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, out: &mut [f64]) {
            let out = &mut out[..8];
            // SAFETY: `self` is an AVX-512 lane value, so AVX-512F is
            // present, and `out` has room for the eight values the store
            // writes.
            unsafe { _mm512_storeu_pd(out.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn abs(self) -> Self {
            // SAFETY: `self` is an AVX-512 lane value, so AVX-512F is
            // present.
            F64x8(unsafe { _mm512_abs_pd(self.0) })
        }

        #[inline(always)]
        fn lt(self, y: Self) -> Mask8 {
            cmp8::<_CMP_LT_OQ>(self, y)
        }

        #[inline(always)]
        fn le(self, y: Self) -> Mask8 {
            cmp8::<_CMP_LE_OQ>(self, y)
        }

        #[inline(always)]
        fn gt(self, y: Self) -> Mask8 {
            cmp8::<_CMP_GT_OQ>(self, y)
        }

        #[inline(always)]
        fn ge(self, y: Self) -> Mask8 {
            cmp8::<_CMP_GE_OQ>(self, y)
        }

        #[inline(always)]
        fn is_nan(self) -> Mask8 {
            cmp8::<_CMP_UNORD_Q>(self, self)
        }

        #[inline(always)]
        fn select(m: Mask8, t: Self, f: Self) -> Self {
            // SAFETY: both values are AVX-512 lane values, so AVX-512F is
            // present.
            F64x8(unsafe { _mm512_mask_blend_pd(m.0, f.0, t.0) })
        }

        #[inline(always)]
        fn min(self, y: Self) -> Self {
            // `vminpd y, x` is `y < x ? y : x`, except that a NaN `x`
            // must give `y`: blend that case back in.
            let x_nan = self.is_nan();
            // SAFETY: both operands are AVX-512 lane values, so AVX-512F
            // is present.
            F64x8::select(x_nan, y, F64x8(unsafe { _mm512_min_pd(y.0, self.0) }))
        }

        #[inline(always)]
        fn max(self, y: Self) -> Self {
            // SAFETY: both operands are AVX-512 lane values, so AVX-512F
            // is present.
            F64x8(unsafe { _mm512_max_pd(self.0, y.0) })
        }

        #[inline(always)]
        fn neg_if(self, m: Mask8) -> Self {
            flip_sign(self, m)
        }
    }

    #[target_feature(enable = "avx2")]
    fn run_avx2(
        isa: Avx2,
        block: &PointBlock,
        objective: Objective,
        protocol: Protocol,
        out: &mut Vec<SolveOutcome>,
    ) -> Option<usize> {
        chunks::<F64x4>(isa, block, 0, objective, protocol, out)
    }

    #[target_feature(enable = "avx512f,avx2")]
    fn run_avx512(
        isa: Avx512,
        block: &PointBlock,
        objective: Objective,
        protocol: Protocol,
        out: &mut Vec<SolveOutcome>,
    ) -> Option<usize> {
        let from = chunks::<F64x8>(isa, block, 0, objective, protocol, out)?;
        chunks::<F64x4>(isa.avx2(), block, from, objective, protocol, out)
    }
}

/// Records the per-block bookkeeping: `n` kernel-served solves, all of
/// them batched, the first `tail` of them in vector chunks.
fn finish_block(n: usize, tail: usize) {
    stats::record(&stats::KernelStats {
        kernel_hits: n as u64,
        batched_points: n as u64,
        lanes_filled: tail as u64,
    });
}

/// The lane instruction set the block kernels run on this host:
/// `"avx512f"`, `"avx2"` or `"portable"`, picked at run time in that
/// order of preference (see the module docs). Benchmark reports record it
/// so that timings from different lane paths are not compared unawares.
pub fn lane_isa() -> &'static str {
    LanePath::detect().name()
}

/// The closed form of `(objective, protocol)` at every point of the
/// block, appended to `out` in block order, on the widest lanes this host
/// has (see [`lane_isa`]). Returns `false`, leaving `out` alone, for a
/// request without a closed form.
///
/// # Panics
///
/// Panics if [`PointBlock::compute_caps`] has not run since the last
/// push.
pub(crate) fn solve_block(
    block: &PointBlock,
    objective: Objective,
    protocol: Protocol,
    out: &mut Vec<SolveOutcome>,
) -> bool {
    assert!(
        block.caps_ready,
        "PointBlock::compute_caps has not run since the last push"
    );
    LanePath::detect().run(block, objective, protocol, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{self, SolveCtx, SolveRequest};

    /// A 13-point grid (3 full lanes + scalar tail) spanning symmetric,
    /// lopsided and degenerate channels.
    fn grid() -> Vec<GaussianNetwork> {
        let mut nets = Vec::new();
        for (p, gab, gar, gbr) in [
            (10.0, 0.2, 1.0, 3.16),
            (0.5, 1.0, 1.0, 1.0),
            (2.0, 1.0, 0.01, 10.0),
            (31.6, 0.0, 2.0, 2.0),
            (1.0, 5.0, 0.5, 0.5),
            (10.0, 1.0, 0.0, 1.0),
            (3.0, 0.5, 10.0, 0.1),
            (0.0, 1.0, 1.0, 1.0),
            (100.0, 0.1, 4.0, 0.25),
            (7.0, 2.0, 2.0, 2.0),
            (0.1, 0.3, 0.7, 1.3),
            (50.0, 0.01, 8.0, 8.0),
            (5.0, 1.5, 0.2, 6.0),
        ] {
            nets.push(GaussianNetwork::new(p, ChannelState::new(gab, gar, gbr)));
        }
        nets
    }

    fn filled_block(nets: &[GaussianNetwork]) -> PointBlock {
        let mut b = PointBlock::with_capacity(nets.len());
        for net in nets {
            b.push_net(net);
        }
        b.compute_caps();
        b
    }

    #[test]
    fn caps_lanes_are_bit_identical_to_scalar() {
        let nets = grid();
        let b = filled_block(&nets);
        for (i, net) in nets.iter().enumerate() {
            let scalar = LinkCaps::compute(&net.powers(), &net.state());
            assert_eq!(b.caps(i), scalar, "point {i}");
        }
    }

    #[test]
    fn block_sum_rates_are_bit_identical_to_scalar_kernel() {
        let nets = grid();
        let b = filled_block(&nets);
        for proto in Protocol::ALL {
            let mut out = Vec::new();
            SolveCtx::new()
                .solve_block(&b, SolveRequest::sum_rate(proto), &mut out)
                .unwrap();
            assert_eq!(out.len(), nets.len());
            for (i, net) in nets.iter().enumerate() {
                let scalar = kernel::max_sum_rate(net, proto);
                let batch = &out[i];
                assert_eq!(
                    batch.value.to_bits(),
                    scalar.sum_rate.to_bits(),
                    "{proto} rate {i}"
                );
                assert_eq!(batch.ra.to_bits(), scalar.ra.to_bits(), "{proto} ra {i}");
                assert_eq!(batch.rb.to_bits(), scalar.rb.to_bits(), "{proto} rb {i}");
                assert_eq!(batch.durations.len(), scalar.durations.len());
                for (x, y) in batch.durations.iter().zip(scalar.durations.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{proto} durations {i}");
                }
            }
        }
    }

    #[test]
    fn block_max_min_is_bit_identical_to_scalar_kernel() {
        let nets = grid();
        let b = filled_block(&nets);
        for proto in [Protocol::DirectTransmission, Protocol::Mabc, Protocol::Tdbc] {
            let mut out = Vec::new();
            SolveCtx::new()
                .solve_block(&b, SolveRequest::max_min(proto), &mut out)
                .unwrap();
            assert_eq!(out.len(), nets.len());
            for (i, net) in nets.iter().enumerate() {
                let scalar = kernel::max_min_rate(net, proto).expect("covered");
                let batch = &out[i];
                assert_eq!(
                    batch.value.to_bits(),
                    scalar.objective.to_bits(),
                    "{proto} t {i}"
                );
                for (x, y) in batch.durations.iter().zip(scalar.durations.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{proto} durations {i}");
                }
            }
        }
        assert!(kernel::max_min_rate(&nets[0], Protocol::Hbc).is_none());
        let mut out = Vec::new();
        assert!(!solve_block(&b, Objective::MaxMin, Protocol::Hbc, &mut out));
        assert!(out.is_empty());
    }

    /// The 13-point grid, 64 Rayleigh fades of each of its first three
    /// networks, and lopsided power splits (silent nodes included).
    fn varied() -> Vec<GaussianNetwork> {
        let mut nets = grid();
        let model = bcc_channel::FadingModel::Rayleigh;
        for (i, base) in grid()[..3].iter().enumerate() {
            for t in 0..64 {
                let mut rng = crate::scenario::trial_stream(i as u64, t);
                nets.push(base.with_state(base.state().faded(
                    model.sample_power(&mut rng),
                    model.sample_power(&mut rng),
                    model.sample_power(&mut rng),
                )));
            }
        }
        for (pa, pb, pr) in [
            (1.0, 9.0, 5.0),
            (9.0, 1.0, 0.0),
            (0.0, 4.0, 4.0),
            (25.0, 2.5, 12.5),
        ] {
            nets.push(GaussianNetwork::with_powers(
                PowerSplit::new(pa, pb, pr),
                ChannelState::new(0.2, 1.0, 3.16),
            ));
        }
        nets
    }

    /// Every output bit of an outcome column, per point.
    fn outcome_bits(out: &[SolveOutcome]) -> Vec<Vec<u64>> {
        out.iter()
            .map(|o| {
                let head = [o.value, o.ra, o.rb];
                head.iter()
                    .chain(o.durations.iter())
                    .map(|x| x.to_bits())
                    .collect()
            })
            .collect()
    }

    /// All eight `(objective, protocol)` requests over the inner bound,
    /// sum rate first.
    fn every_request() -> Vec<SolveRequest> {
        let both = [SolveRequest::sum_rate, SolveRequest::max_min];
        both.iter().flat_map(|mk| Protocol::ALL.map(mk)).collect()
    }

    /// `SolveCtx::solve_block` against per-point `SolveCtx::solve_one`
    /// for all eight requests (HBC max–min runs the per-point LP inside
    /// the block), at block lengths 0..=17 and 1024. Each side runs on a
    /// fresh context, so both warm-start the LP from the same history.
    #[test]
    fn solve_block_is_bit_identical_to_solve_one() {
        let nets = varied();
        for n in (0..=17).chain([1024]) {
            let pts: Vec<_> = nets.iter().cycle().take(n).cloned().collect();
            let b = filled_block(&pts);
            for req in every_request() {
                let mut got = Vec::new();
                SolveCtx::new().solve_block(&b, req, &mut got).unwrap();
                let mut ctx = SolveCtx::new();
                let want: Vec<_> = pts
                    .iter()
                    .map(|net| ctx.solve_one(net, req).unwrap())
                    .collect();
                assert_eq!(outcome_bits(&got), outcome_bits(&want), "{req:?}, n = {n}");
                let keys = |o: &SolveOutcome| (o.objective, o.protocol);
                assert!(got.iter().all(|o| keys(o) == (req.objective, req.protocol)));
            }
        }
    }

    /// Every block path this host can run, and the names of those it
    /// cannot.
    fn host_paths() -> (Vec<LanePath>, Vec<&'static str>) {
        #[allow(unused_mut)]
        let (mut have, mut lack) = (vec![LanePath::Portable], Vec::new());
        #[cfg(target_arch = "x86_64")]
        {
            match simd::Avx2::detect() {
                Some(isa) => have.push(LanePath::Avx2(isa)),
                None => lack.push("avx2"),
            }
            match simd::Avx512::detect() {
                Some(isa) => have.push(LanePath::Avx512(isa)),
                None => lack.push("avx512f"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        lack.extend(["avx2", "avx512f"]);
        (have, lack)
    }

    /// Every block path the host has, forced, against the dispatched
    /// path and the width-1 scalar kernel, for every request, at block
    /// lengths 0..=17 (every tail shape of 4- and 8-wide chunks) and 1024.
    /// HBC max–min has no closed form: every path declines it and leaves
    /// its output alone. A path the host lacks is reported as skipped.
    #[test]
    fn every_block_path_is_bit_identical_to_dispatched() {
        let (paths, lacking) = host_paths();
        for name in lacking {
            eprintln!("skipped: this host has no {name} block path");
        }
        let nets = varied();
        for n in (0..=17).chain([1024]) {
            let b = filled_block(&nets.iter().cycle().take(n).cloned().collect::<Vec<_>>());
            for req in every_request() {
                let (objective, protocol) = (req.objective, req.protocol);
                let mut want = Vec::new();
                let answered = solve_block(&b, objective, protocol, &mut want);
                assert_eq!(answered, req.is_batchable(), "{req:?}");
                let scalar: Vec<_> = (0..n)
                    .filter_map(|i| solve_one(&b.caps(i), objective, protocol))
                    .collect();
                assert_eq!(
                    outcome_bits(&want),
                    outcome_bits(&scalar),
                    "{req:?}, n = {n}"
                );
                for path in &paths {
                    let mut got = Vec::new();
                    assert_eq!(path.run(&b, objective, protocol, &mut got), answered);
                    assert_eq!(
                        outcome_bits(&got),
                        outcome_bits(&want),
                        "{req:?} on {}, n = {n}",
                        path.name()
                    );
                }
            }
        }
    }

    #[test]
    fn lane_isa_names_the_dispatched_path() {
        let (paths, _) = host_paths();
        let widest = paths.last().expect("portable is always there");
        assert_eq!(lane_isa(), widest.name());
        assert!(["avx512f", "avx2", "portable"].contains(&lane_isa()));
    }

    /// Every zero duration is +0.0 at every opt-level. `f64::max` lanes
    /// would give Δ₄ = −0.0 for HBC at grid point 4 (P = 1, gains
    /// 5/0.5/0.5) in an unoptimised build and +0.0 in a release build.
    #[test]
    fn zero_durations_are_positive_zero() {
        let nets = varied();
        let b = filled_block(&nets);
        let neg_zero = (-0.0f64).to_bits();
        for req in every_request() {
            let mut out = Vec::new();
            solve_block(&b, req.objective, req.protocol, &mut out);
            for (i, o) in out.iter().enumerate() {
                let bad = o.durations.iter().any(|x| x.to_bits() == neg_zero);
                assert!(!bad, "{req:?} at {i}: {:?}", o.durations);
            }
        }
        let hbc = kernel::max_sum_rate(&grid()[4], Protocol::Hbc);
        assert_eq!(hbc.durations[3].to_bits(), 0.0f64.to_bits());
    }

    /// `(x, y, x.min(y), x.max(y))` under the written lane-op meanings.
    const MIN_MAX: [(f64, f64, f64, f64); 8] = [
        (-0.0, 0.0, -0.0, 0.0),
        (0.0, -0.0, 0.0, -0.0),
        (f64::NAN, 1.0, 1.0, 1.0),
        (1.0, f64::NAN, 1.0, f64::NAN),
        (2.0, 3.0, 2.0, 3.0),
        (3.0, 2.0, 2.0, 3.0),
        (-1.0, 0.0, -1.0, 0.0),
        (f64::INFINITY, -0.0, -0.0, f64::INFINITY),
    ];

    /// `(x, x clamped to [0, 1])`.
    const CLAMP: [(f64, f64); 7] = [
        (-0.5, 0.0),
        (-0.0, -0.0),
        (0.3, 0.3),
        (1.5, 1.0),
        (f64::NAN, f64::NAN),
        (f64::INFINITY, 1.0),
        (f64::NEG_INFINITY, 0.0),
    ];

    fn assert_lanes<L: Lane>(v: L, want: f64, what: &str) {
        for (l, got) in lanes(v)[..L::WIDTH].iter().enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "{what}, lane {l}: {got}");
        }
    }

    fn lane_ops_hold<L: Lane>(isa: L::Isa) {
        for (x, y, min, max) in MIN_MAX {
            let (lx, ly) = (L::splat(isa, x), L::splat(isa, y));
            assert_lanes(lx.min(ly), min, &format!("min({x}, {y})"));
            assert_lanes(lx.max(ly), max, &format!("max({x}, {y})"));
        }
        let (zero, one) = (L::splat(isa, 0.0), L::splat(isa, 1.0));
        for (x, want) in CLAMP {
            assert_lanes(
                clamp01(L::splat(isa, x), zero, one),
                want,
                &format!("clamp({x})"),
            );
        }
        // `neg_if` under a mask set on alternate lanes: a sign-bit flip
        // there (NaN included), the value untouched elsewhere.
        let parity: [f64; MAX_WIDTH] = std::array::from_fn(|l| (l % 2) as f64);
        let odd = L::load(isa, &parity).gt(L::splat(isa, 0.5));
        for x in [0.0, -0.0, f64::NAN, -f64::NAN, 1.5] {
            let got = lanes(L::splat(isa, x).neg_if(odd));
            for (l, y) in got[..L::WIDTH].iter().enumerate() {
                let want = if l % 2 == 1 { -x } else { x };
                assert_eq!(y.to_bits(), want.to_bits(), "neg_if({x}), lane {l}");
            }
        }
    }

    #[test]
    fn lane_ops_have_one_meaning_on_every_lane_type() {
        lane_ops_hold::<Portable<1>>(());
        lane_ops_hold::<Portable<LANE>>(());
        #[cfg(target_arch = "x86_64")]
        match simd::Avx2::detect() {
            Some(isa) => lane_ops_hold::<simd::F64x4>(isa),
            None => eprintln!("skipped: this host has no avx2 lanes"),
        }
        #[cfg(target_arch = "x86_64")]
        match simd::Avx512::detect() {
            Some(isa) => lane_ops_hold::<simd::F64x8>(isa),
            None => eprintln!("skipped: this host has no avx512f lanes"),
        }
    }

    /// Every capacity, scalar and block, equals its own
    /// `awgn_capacity(p·g)` bit for bit, whether or not a power's bits
    /// repeat another's (so its logarithm is shared).
    #[test]
    fn capacities_are_their_own_logs_on_every_split() {
        use bcc_info::awgn_capacity;
        let state = ChannelState::new(0.2, 1.0, 3.16);
        let splits = [
            PowerSplit::symmetric(10.0),
            PowerSplit::new(1.0, 9.0, 5.0),
            PowerSplit::new(4.0, 4.0, 2.0),
            PowerSplit::new(4.0, 2.0, 4.0),
            PowerSplit::new(2.0, 4.0, 4.0),
            PowerSplit::new(0.0, -0.0, 0.0),
            PowerSplit::new(-0.0, 0.0, -0.0),
            PowerSplit::new(0.0, 0.0, -0.0),
            PowerSplit::symmetric(-0.0),
        ];
        let mut b = PointBlock::new();
        for p in &splits {
            b.push(p, &state);
        }
        b.compute_caps();
        for (i, p) in splits.iter().enumerate() {
            let (pa, pb, pr) = (p.p_a(), p.p_b(), p.p_r());
            let (gab, gar, gbr) = (state.gab(), state.gar(), state.gbr());
            let want = [
                awgn_capacity(pa * gab),
                awgn_capacity(pb * gab),
                awgn_capacity(pa * gar),
                awgn_capacity(pb * gbr),
                awgn_capacity(pr * gar),
                awgn_capacity(pr * gbr),
                awgn_capacity(pa * gar + pb * gbr),
            ];
            for caps in [LinkCaps::compute(p, &state), b.caps(i)] {
                let got = [
                    caps.c_a_ab,
                    caps.c_b_ab,
                    caps.c_a_ar,
                    caps.c_b_br,
                    caps.c_r_ar,
                    caps.c_r_br,
                    caps.c_mac,
                ];
                let (got, want) = (got.map(f64::to_bits), want.map(f64::to_bits));
                assert_eq!(got, want, "split {i}: {p:?}");
            }
        }
        let signed = LinkCaps::compute(&PowerSplit::new(0.0, -0.0, 0.0), &state);
        assert_eq!(signed.c_b_ab.to_bits(), (-0.0f64).to_bits());
        assert_eq!(signed.c_r_br.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn counters_track_points_and_full_lanes() {
        let nets = grid(); // 13 points: 12 in full lanes, 1 tail
        let b = filled_block(&nets);
        let mut out = Vec::new();
        let path = LanePath::detect();
        let (answered, d) =
            stats::scoped(|| path.run(&b, Objective::SumRate, Protocol::Hbc, &mut out));
        assert!(answered);
        assert_eq!(
            d,
            stats::KernelStats {
                kernel_hits: 13,
                batched_points: 13,
                lanes_filled: 12,
            }
        );
    }

    #[test]
    fn clear_keeps_storage_and_resets_caps() {
        let nets = grid();
        let mut b = filled_block(&nets);
        assert!(b.caps_ready());
        b.clear();
        assert!(b.is_empty());
        assert!(!b.caps_ready());
        b.push_net(&nets[0]);
        b.compute_caps();
        assert_eq!(
            b.caps(0),
            LinkCaps::compute(&nets[0].powers(), &nets[0].state())
        );
    }
}
