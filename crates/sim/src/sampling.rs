//! Random-variate samplers used by the batched engine.
//!
//! The batched simulator needs three distributions per batch:
//!
//! * the *birthday* distribution of the number of uniform agent draws until
//!   the first repeat (which bounds how many interactions can be processed
//!   as one batch);
//! * the *multivariate hypergeometric* distribution, to split a sample of
//!   agents drawn without replacement across the states of the population;
//! * the *binomial* distribution, to split the interactions of a state pair
//!   across its candidate transitions.
//!
//! Every distribution is sampled **exactly** (up to f64 rounding of pmf
//! recurrences and log-pmf evaluations): leaf selection is purely a
//! performance decision, never an accuracy trade.  Small parameters use
//! direct walks; everything else uses O(1)-expected-time rejection samplers
//! (BTRS for the binomial, HRUA for the hypergeometric) whose cost is
//! independent of the parameters.  All samplers draw from the caller's
//! seeded RNG, so batched runs stay reproducible.
//!
//! # Plan → leaf structure, and why the ensemble needs it
//!
//! Every draw resolves in two stages: a *planner* (`plan_hypergeometric` /
//! `plan_binomial`) runs the branchy, RNG-free part — support checks,
//! symmetry reductions, regime selection, and **all parameter-only float
//! setup** (HRUA's hat/mode constants, BTRS's squeeze constants, the CDF
//! walk's `pmf(0)`) — and produces a `DrawPlan` naming one *leaf sampler*
//! with its finished setup plus affine/clamp post-processing; an
//! *executor* then consumes the RNG.  The scalar entry points
//! ([`hypergeometric`], [`binomial`]) plan and execute in one call; the
//! parameter-cached entry points ([`CachedHypergeometric`],
//! [`CachedBinomial`]) hold a finished plan and execute it any number of
//! times (`draw` / `draw_many`), paying setup once per *distribution*
//! instead of once per draw.  The lane-batched entry points
//! ([`hypergeometric_lanes`], [`binomial_lanes`],
//! [`BirthdaySampler::draw_lanes`]) used by the
//! [`EnsembleSimulator`](crate::EnsembleSimulator) are built on the cached
//! form (a one-entry plan memo reuses the setup across consecutive
//! same-parameter lanes), consume each lane's uniforms in the scalar
//! order, and defer the remaining deferrable transforms to bulk loops over
//! packed arrays that the compiler autovectorises — see [`crate::pmath`].
//! Because planner, leaves and transforms are *shared code*, a lane of the
//! ensemble consumes its RNG and computes its floats bit-identically to a
//! scalar sampler call, which is the foundation of lane-level
//! bit-equivalence between the two engines — and for the same reason the
//! cached path is value- and stream-position-identical to the uncached one
//! *by construction* (pinned by 4000-case property suites).
//!
//! # The pairing-pass hot path: walks below the crossover, rejection above
//!
//! The pairing step of a batch draws Θ(|Q|²) hypergeometrics whose *total*
//! is the batch length `l = Θ(√n)`.  A sequential urn simulation is exact
//! but costs Θ(l) RNG draws — which silently degrades the whole batched
//! engine to Θ(1) work *per interaction*, defeating the point of batching.
//! PR 6's mode-centered inversion walk (one uniform, O(sd) pmf recurrence
//! steps zigzagging outward from the mode) removed the RNG-draw
//! dependence, but its walk length still grows with the distribution's
//! spread — at `l = Θ(√n)` the pairing draws have `sd = Θ(n^{1/4})` and
//! the walks dominated ~⅔ of ensemble wave time (PR 6 profiling).  Above
//! the measured small-parameter crossovers the samplers now use **constant
//! expected-time rejection**: BTRS (Hörmann's transformed rejection with
//! squeeze) for the binomial and HRUA (Stadlober's universal
//! ratio-of-uniforms) for the hypergeometric, both exact and both ~2.5
//! uniforms + a handful of `ln`/log-factorial evaluations per draw
//! regardless of the parameters.  `Binomial(n, ½)` — the conditional law
//! of every final candidate-split step — skips all of that: `n` fair coins
//! are `⌈n/64⌉` raw RNG words, so a couple of `popcnt` instructions
//! deliver an exact draw.
//!
//! # The split-phase hot path: table loads, not Stirling; popcount, not ln
//!
//! The ensemble's *split* phases draw hypergeometrics whose totals are the
//! population itself (not the √n batch length), so their per-iteration
//! log-factorials used to fall past the 8192-entry table into the Stirling
//! kernel — after PR 7 cracked the pairing pass, these draws were ~56 % of
//! wave time.  Three mechanisms, stacked:
//!
//! * **setup caching** — every rejection leaf's parameter-only constants
//!   live in the plan (see above), so re-executing a plan never repeats
//!   them;
//! * **a two-level `ln k!` table** — the dense level-1 table (≤ 8192,
//!   byte-identical to PR 7's) is extended by 64 lazily built 32768-entry
//!   chunks to `LOG_FACTORIAL_EXT_MAX` = 2 105 344 ≈ 2²¹, sized from the
//!   measured split-draw totals; chunk construction batches its `ln`
//!   evaluations through [`pmath::ln_bulk`] and carries a Kahan-compensated
//!   running sum across chunk boundaries, so extension values are
//!   demand-order-independent, a few ulp from exact, and *cheaper and more
//!   accurate* than the Stirling calls they replace;
//! * **an ln-free exact-half leaf** — when exactly half the (reduced)
//!   population is marked, `HALF_POP` proposes from the popcount
//!   `Binomial(d, ½)` and corrects with a multiply-only rejection walk
//!   (envelope constant ≈ 1 + d/4s): no `ln`, no log-factorials, no
//!   uniform-hungry hat.
//!
//! ## Crossover thresholds (microbenched on the build host, see
//! `BENCH_sim.json` `sampler_crossovers` for the ns/draw curves)
//!
//! | constant | value | below it | above it |
//! |---|---|---|---|
//! | `POPCOUNT_MAX_N` | 1024 | popcount of `⌈n/64⌉` RNG words (`p = ½` only) | BTRS rejection |
//! | `BERN_MAX_N` | 32 | Bernoulli counting (`n` bool draws) | CDF walk / BTRS |
//! | `BTRS_MIN_MEAN` | 10 | binomial CDF walk from 0 (one uniform, O(mean) steps) | BTRS rejection |
//! | `URN_MAX_DRAWS` | 16 | exact urn walk (`d` integer draws) | HALF_POP / HRUA rejection |
//! | `POPCOUNT_MAX_N` (reused) | 1024 | HALF_POP popcount-proposal rejection (`2s = total` only) | HRUA rejection |
//! | `ALIAS_DRAWS_PER_CANDIDATE` | 8 | alias-table categorical draws (`m` uniforms, `c ≥ 3`) | binomial chain (`c−1` draws) |
//!
//! The thresholds only affect performance, never the sampled distribution
//! — but they DO affect the RNG stream, so they are compile-time constants
//! shared by every engine (changing one is a stream-breaking change, like
//! any sampler edit).
//!
//! The walk samplers below the crossovers are kept not just for speed:
//! they are independent implementations of the same distributions and,
//! together with the test-only inversion oracle (`inv_walk`), serve as the
//! *test oracle* for the rejection samplers (see the chi-square suites in
//! this module).  The lane-batched entry points still run queued CDF walks
//! in branch-free lockstep (`cdf_walk8`) with their `ln`/`exp` transforms
//! batched into autovectorisable loops; the rejection leaves consume a
//! data-dependent *number* of uniforms, so they execute inline per lane —
//! their cost is O(1) per draw, which is exactly why no batching is
//! needed.

use crate::pmath;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::sync::OnceLock;

/// Size of the *dense* (eagerly built) `ln k!` table: below it
/// [`ln_factorial`] is a load from one shared 64 KiB array.  The bound
/// covers every pairing-pass argument (totals there are the batch length
/// `Θ(√n)`), so the hottest pairing HRUA draws never leave level 1.
const LOG_FACTORIAL_TABLE_MAX: u64 = 8192;

/// Entries per lazily built extension chunk of the `ln k!` table
/// (256 KiB each).  Chunk granularity keeps the resident footprint
/// proportional to the argument ranges a workload actually visits: a
/// split-phase HRUA draw touches four small neighbourhoods (around the
/// mode, `successes − mode`, `draws − mode`, `failures + mode − draws`),
/// so a typical ensemble run faults in a handful of chunks, not the whole
/// extension.
const LF_CHUNK: usize = 1 << 15;

/// Number of extension chunks, sizing the two-level table to
/// `LOG_FACTORIAL_TABLE_MAX + 64 · LF_CHUNK = 2 105 344 ≈ 2²¹` — chosen
/// from the *measured* split-draw argument profile: the ensemble's split
/// phases draw hypergeometrics whose `ln k!` arguments are bounded by the
/// (post-reduction) failure count, i.e. by the population itself, and the
/// committed `wave_phase_breakdown` workload (n = 10⁶) sits squarely in
/// this range while the Stirling kernel it previously hit costs ~2× per
/// draw.  Fully built the extension is 16 MiB; populations beyond it fall
/// back to the Stirling kernel exactly as before.
const LF_NUM_CHUNKS: usize = 64;

/// Largest `k` served by the two-level table; above it [`ln_factorial`]
/// uses the Stirling kernel ([`pmath::ln_gamma`]).
const LOG_FACTORIAL_EXT_MAX: u64 = LOG_FACTORIAL_TABLE_MAX + (LF_NUM_CHUNKS * LF_CHUNK) as u64;

/// Below this many (post-reduction) draws the plain urn walk is cheaper
/// than any setup-heavy path, so the urn is kept: at ~5 ns per integer
/// draw it crosses the *uncached* (plan + execute) HRUA cost of
/// ~125 ns/draw near 16 draws (re-swept under the cached-setup cost
/// model, `sampler_crossovers` 2026-08).  With a cached plan HRUA's flat
/// cost drops to ~37–42 ns, which would put the break-even near 8 draws —
/// but the threshold is stream-pinned (see the module docs), and the
/// scalar pairing path that dominates urn traffic plans per draw, so the
/// uncached curve is the one that matters and 16 stands.
const URN_MAX_DRAWS: u64 = 16;

/// Largest `n` for the popcount binomial: `Binomial(n, ½)` is exactly the
/// number of set bits in `n` fair coin flips, i.e. the popcount of
/// `⌈n/64⌉` RNG words.  One `popcnt` replaces 64 Bernoulli draws, so this
/// path crushes every other leaf while the word count stays below BTRS's
/// flat rejection cost.  `p = ½` is not a corner case: it is the
/// conditional probability of every final step of the candidate-split
/// binomial chain ([`split_candidates_uniform`]), i.e. the single hottest
/// binomial in the pairing pass of any 2-candidate nondeterministic pair.
const POPCOUNT_MAX_N: u64 = 1024;

/// Below this `n` a binomial is sampled by direct Bernoulli counting —
/// at ~2.4 ns per boolean draw the counting loop beats every setup-heavy
/// path until it crosses the uncached BTRS cost (~145 ns/draw with
/// per-draw setup; ~38 ns once a cached plan amortises it) around
/// n ≈ 32.  Stream-pinned like every threshold here, and the scalar
/// callers that hit this regime plan per draw, so the uncached curve
/// governs.
const BERN_MAX_N: u64 = 32;

/// Crossover mean between the binomial CDF walk from zero (one uniform,
/// O(mean) recurrence steps) and BTRS rejection.  The measured break-even
/// coincides with the `n·min(p,q) ≥ 10` validity floor of BTRS's squeeze
/// constants, so the constant serves both purposes and cannot be lowered
/// further.
const BTRS_MIN_MEAN: f64 = 10.0;

/// Per-candidate crossover for the uniform multinomial split
/// ([`split_candidates_uniform`]): with `m` draws over `c` candidates, the
/// alias path costs `m` uniforms and the binomial chain `c − 1` binomial
/// draws, so alias wins while `m ≤ ALIAS_DRAWS_PER_CANDIDATE · (c − 1)`.
const ALIAS_DRAWS_PER_CANDIDATE: u64 = 8;

/// The dense level-1 table plus the running-sum carry its extension
/// chunks continue from.
struct LfLevel1 {
    values: Vec<f64>,
    /// Plain cumulative sum after the last entry (the carry into chunk 0).
    acc: f64,
}

/// One lazily built extension chunk: `LF_CHUNK` consecutive `ln k!`
/// values plus the Kahan carry `(sum, compensation)` after its last
/// entry, so the next chunk continues the *same* compensated summation
/// regardless of which chunk was demanded first.
struct LfChunk {
    values: Box<[f64]>,
    sum: f64,
    comp: f64,
}

/// `ln k!` for `k = 0..=`[`LOG_FACTORIAL_TABLE_MAX`], built once per
/// process and shared by every simulator (the ensemble engine's lanes all
/// read the same table).  Cumulative-sum construction keeps the absolute
/// error below ~1e-7, which cancels almost entirely in the pmf ratios.
/// The construction is kept byte-for-byte as it has been since PR 7, so
/// every draw whose arguments stay below the level-1 bound (the whole
/// pairing pass) is stream-identical to PR 7/8 builds.
fn lf_level1() -> &'static LfLevel1 {
    static TABLE: OnceLock<LfLevel1> = OnceLock::new();
    TABLE.get_or_init(|| {
        let n = LOG_FACTORIAL_TABLE_MAX as usize;
        let mut lf = Vec::with_capacity(n + 1);
        lf.push(0.0);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += pmath::ln(k as f64);
            lf.push(acc);
        }
        LfLevel1 { values: lf, acc }
    })
}

/// The dense level-1 `ln k!` table (kept as a slice accessor for the
/// test-only inversion oracle).
#[cfg(test)]
fn log_factorials() -> &'static [f64] {
    &lf_level1().values
}

/// The level-2 extension chunk `i`, built on first demand.  Construction
/// forces every earlier chunk first (each needs its predecessor's carry),
/// fills a scratch with the raw arguments, takes their logs through the
/// bulk kernel [`pmath::ln_bulk`] (one autovectorisable pass instead of
/// per-lookup Stirling work — this is where the split phase's "residual
/// ln" cost is batched), and finishes with a Kahan-compensated prefix sum
/// whose carry crosses chunk boundaries.  Compensation keeps the absolute
/// error of the 2-million-term running sum at the few-ulp level (a plain
/// sum drifts to ~3e-6 by the end of the extension), so extension values
/// are *more* accurate than the Stirling kernel they replace.  Values are
/// a pure function of the chunk index — independent of demand order and
/// of which thread builds them — so every engine reads identical bits.
fn lf_ext_chunk(i: usize) -> &'static LfChunk {
    static CHUNKS: [OnceLock<LfChunk>; LF_NUM_CHUNKS] = [const { OnceLock::new() }; LF_NUM_CHUNKS];
    CHUNKS[i].get_or_init(|| {
        let (mut sum, mut comp) = if i == 0 {
            (lf_level1().acc, 0.0)
        } else {
            let prev = lf_ext_chunk(i - 1);
            (prev.sum, prev.comp)
        };
        let start_k = LOG_FACTORIAL_TABLE_MAX + 1 + (i * LF_CHUNK) as u64;
        let mut vals: Vec<f64> = (0..LF_CHUNK as u64).map(|j| (start_k + j) as f64).collect();
        pmath::ln_bulk(&mut vals);
        for v in vals.iter_mut() {
            let y = *v - comp;
            let t = sum + y;
            comp = (t - sum) - y;
            sum = t;
            *v = sum;
        }
        LfChunk {
            values: vals.into_boxed_slice(),
            sum,
            comp,
        }
    })
}

/// `ln k!` for any `k`: dense-table load below
/// [`LOG_FACTORIAL_TABLE_MAX`], lazily built extension-chunk load up to
/// [`LOG_FACTORIAL_EXT_MAX`], Stirling kernel ([`pmath::ln_gamma`])
/// beyond.  One function shared by every sampler and both engines, so the
/// table/Stirling crossover is a deterministic function of `k` alone and
/// can never desynchronise the scalar and lane-batched paths.
#[inline(always)]
fn ln_factorial(k: u64) -> f64 {
    if k <= LOG_FACTORIAL_TABLE_MAX {
        lf_level1().values[k as usize]
    } else if k <= LOG_FACTORIAL_EXT_MAX {
        let idx = (k - LOG_FACTORIAL_TABLE_MAX - 1) as usize;
        lf_ext_chunk(idx / LF_CHUNK).values[idx % LF_CHUNK]
    } else {
        pmath::ln_gamma(k as f64 + 1.0)
    }
}

// ---------------------------------------------------------------------------
// Draw plans
// ---------------------------------------------------------------------------

/// Sign/offset post-map composing the planner's symmetry reductions:
/// `result = offset + sign · leaf`.
#[derive(Debug, Clone, Copy)]
struct Affine {
    offset: i64,
    sign: i64,
}

const IDENTITY: Affine = Affine { offset: 0, sign: 1 };

impl Affine {
    #[inline(always)]
    fn apply(self, x: u64) -> u64 {
        (self.offset + self.sign * x as i64) as u64
    }
}

/// Everything HRUA's rejection loop needs that depends only on the
/// distribution's parameters — the mode's four log-factorials, the hat
/// constants, the tail cut.  Computed once at plan time (the expressions
/// are the ones historically at the top of the draw routine, moved
/// verbatim so the values are bit-identical) and reused by every draw
/// executed from the same plan.
#[derive(Debug, Clone, Copy)]
struct HruaSetup {
    mingoodbad: u64,
    maxgoodbad: u64,
    m: u64,
    d6: f64,
    d8: f64,
    d10: f64,
    d11: f64,
}

impl HruaSetup {
    /// `2·√(2/e)`, the ratio-of-uniforms hat width factor.
    const D1: f64 = 1.715_527_769_921_413_5;
    /// `3 − 2·√(3/e)`, the hat width offset.
    const D2: f64 = 0.898_916_162_058_898_8;

    /// The memory-free part of the setup: everything except `d10`, which
    /// is left at `0.0`, plus the four log-factorial arguments that define
    /// it.  Takes the division/square-root quantities of [`hyp_floats`];
    /// the lane-batched planner builds all lanes' setups in a pure-
    /// arithmetic pass and then resolves every lane's table loads in one
    /// load-only gather loop, while the scalar planner recombines the two
    /// parts immediately via the same [`lf_sum4`] — either way every
    /// field is computed from the same expressions in the same order, so
    /// the values are bit-identical.
    #[inline]
    fn new_deferred(total: u64, successes: u64, draws: u64, fl: HypFloats) -> (Self, [u64; 4]) {
        debug_assert!(2 * successes <= total && 2 * draws <= total);
        let mingoodbad = successes;
        let maxgoodbad = total - successes;
        let m = draws;
        let mf = m as f64;
        let HypFloats { d4, d7, d9 } = fl;
        let d6 = mf * d4 + 0.5;
        let d8 = Self::D1 * d7 + Self::D2;
        let d9u = d9 as u64; // the mode
        let d11 = ((m.min(mingoodbad) + 1) as f64).min((d6 + 16.0 * d7).floor());
        (
            HruaSetup {
                mingoodbad,
                maxgoodbad,
                m,
                d6,
                d8,
                d10: 0.0,
                d11,
            },
            [d9u, mingoodbad - d9u, m - d9u, maxgoodbad + d9u - m],
        )
    }
}

/// The three division/square-root quantities of the HRUA setup — the
/// latency chains of planning.  `d4` is the success fraction, `d7` the
/// hat width (≥ the standard deviation, plus slack), `d9` the mode.
#[derive(Debug, Clone, Copy, Default)]
struct HypFloats {
    d4: f64,
    d7: f64,
    d9: f64,
}

/// Computes [`HypFloats`] for *reduced* parameters (`2·successes ≤ total`,
/// `2·draws ≤ total`).  This is the single source of these expressions,
/// shared by every planner path, so the quantities are identical bits
/// wherever they are evaluated.
#[inline(always)]
fn hyp_floats(total: u64, successes: u64, draws: u64) -> HypFloats {
    let popsize = total as f64;
    let mingoodbad = successes;
    let mf = draws as f64;
    let d4 = mingoodbad as f64 / popsize;
    let d5 = 1.0 - d4;
    let d7 = ((popsize - mf) * mf * d4 * d5 / (popsize - 1.0) + 0.5).sqrt();
    let d9 = ((mf + 1.0) * (mingoodbad + 1) as f64 / (popsize + 2.0)).floor();
    HypFloats { d4, d7, d9 }
}

/// `Σ ln aᵢ!` over the four arguments, in argument order — the exact sum
/// the HRUA setup historically computed inline, shared by the fused and
/// deferred setup paths so both produce identical bits.
#[inline(always)]
fn lf_sum4(args: [u64; 4]) -> f64 {
    ln_factorial(args[0]) + ln_factorial(args[1]) + ln_factorial(args[2]) + ln_factorial(args[3])
}

/// BTRS's parameter-only setup: squeeze and hat constants plus the mode's
/// log-factorial pair, hoisted out of the rejection loop (expressions
/// moved verbatim from the historical top of the draw routine, so values
/// are bit-identical).
#[derive(Debug, Clone, Copy)]
struct BtrsSetup {
    n: u64,
    nf: f64,
    a: f64,
    b: f64,
    c: f64,
    v_r: f64,
    alpha: f64,
    lpq: f64,
    m: f64,
    h: f64,
}

impl BtrsSetup {
    fn new(n: u64, p: f64) -> Self {
        debug_assert!(p <= 0.5 && n as f64 * p >= 10.0);
        let nf = n as f64;
        let q = 1.0 - p;
        let spq = (nf * p * q).sqrt();
        let b = 1.15 + 2.53 * spq;
        let a = -0.0873 + 0.0248 * b + 0.01 * p;
        let c = nf * p + 0.5;
        let v_r = 0.92 - 4.2 / b;
        let alpha = (2.83 + 5.1 / b) * spq;
        let lpq = pmath::ln(p / q);
        let m = ((nf + 1.0) * p).floor(); // the mode
        let mu = m as u64;
        let h = ln_factorial(mu) + ln_factorial(n - mu);
        BtrsSetup {
            n,
            nf,
            a,
            b,
            c,
            v_r,
            alpha,
            lpq,
            m,
            h,
        }
    }
}

/// The exact-half leaf's parameter-only setup: the envelope's argmax and
/// the scale used to keep the acceptance product in f64 range.  All
/// integer decisions — no float whose rounding could shift between scalar
/// and lane paths.
#[derive(Debug, Clone, Copy)]
struct HalfPopSetup {
    /// Post-reduction marked count (`= total / 2`).
    s: u64,
    /// Post-reduction draw count.
    d: u64,
    /// Argmax of the target/proposal pmf ratio, `⌊(d + 1)/2⌋` (an exact
    /// integer property of the ratio recurrence, not a float estimate).
    z_m: u64,
    /// `1 / s`, pre-divided so the acceptance walk is multiply-only.
    inv_s: f64,
}

/// A fully resolved single draw: which leaf sampler runs with which
/// parameters, plus the clamp/affine post-processing.  Planning consumes no
/// randomness, so a plan can be executed immediately (scalar path) or have
/// its uniforms drawn now and its transforms evaluated later in bulk
/// (lane-batched path) — both yield bit-identical results.  Since PR 9 the
/// rejection leaves carry their full parameter-only setup (hat/squeeze
/// constants, mode log-factorials, `pmf(0)` for the CDF walk), so a plan
/// held in a [`CachedHypergeometric`] / [`CachedBinomial`] pays setup once
/// however many draws it executes.
///
/// Post-processing order: `outer(inner(leaf))`, where `inner` is the
/// binomial `p > ½` flip and `outer` composes the hypergeometric symmetry
/// reductions.  Every leaf is exact; the planner picks the cheapest one for
/// the parameters.
#[derive(Debug, Clone, Copy)]
enum DrawPlan {
    /// The support is a single point: no randomness needed.
    Done(u64),
    /// Exact sequential urn walk (`draws` integer draws).
    Urn {
        total: u64,
        successes: u64,
        draws: u64,
        outer: Affine,
    },
    /// Exact HRUA ratio-of-uniforms rejection (O(1) expected uniforms).
    Hrua { setup: HruaSetup, outer: Affine },
    /// Exact half-population hypergeometric by popcount proposal +
    /// multiply-only rejection (O(1) expected words, **no** `ln` at all).
    HalfPop { setup: HalfPopSetup, outer: Affine },
    /// Exact `Binomial(n, ½)` by popcount of `⌈n/64⌉` RNG words.
    Pop { n: u64 },
    /// Direct Bernoulli counting (`n` boolean draws).
    Bern { n: u64, p: f64, inner: Affine },
    /// Binomial CDF walk from zero (one uniform); `pmf0 = (1−p)ⁿ` is part
    /// of the plan so repeated executions skip the `ln`/`exp` pair.
    Cdf {
        n: u64,
        p: f64,
        pmf0: f64,
        inner: Affine,
    },
    /// Exact BTRS transformed rejection (O(1) expected uniforms).
    Btrs { setup: BtrsSetup, inner: Affine },
}

/// Resolves `Binomial(n, p)` to a leaf plan (no RNG consumed).
fn plan_binomial(n: u64, p: f64) -> DrawPlan {
    if n == 0 || p <= 0.0 {
        return DrawPlan::Done(0);
    }
    if p >= 1.0 {
        return DrawPlan::Done(n);
    }
    if p == 0.5 && n <= POPCOUNT_MAX_N {
        // Fair coins are raw RNG bits: no flip, no transform, no uniforms.
        return DrawPlan::Pop { n };
    }
    // p > ½ is sampled as n − Binomial(n, 1−p).
    let (p, inner) = if p > 0.5 {
        (
            1.0 - p,
            Affine {
                offset: n as i64,
                sign: -1,
            },
        )
    } else {
        (p, IDENTITY)
    };
    let mean = n as f64 * p;
    if n <= BERN_MAX_N {
        // Direct Bernoulli counting.
        return DrawPlan::Bern { n, p, inner };
    }
    if mean < BTRS_MIN_MEAN {
        // Inversion from 0: the CDF walk terminates in O(mean) expected
        // steps.  pmf(0) = qⁿ = exp(n ln q), computed here so re-executed
        // plans skip the transcendental pair (same expression the executor
        // historically evaluated per draw, so the value is bit-identical).
        let pmf0 = pmath::exp(n as f64 * pmath::ln(1.0 - p));
        return DrawPlan::Cdf { n, p, pmf0, inner };
    }
    // Constant expected-time transformed rejection; exact, and valid here
    // because mean = n·min(p, 1−p) ≥ BTRS_MIN_MEAN ≥ 10.
    DrawPlan::Btrs {
        setup: BtrsSetup::new(n, p),
        inner,
    }
}

/// Resolves `Hypergeometric(total, successes, draws)` to a leaf plan (no
/// RNG consumed): support checks, symmetry reductions keeping `draws` and
/// `successes` at most `total/2`, then regime selection.
fn plan_hypergeometric(total: u64, successes: u64, draws: u64) -> DrawPlan {
    let (mut plan, args) = plan_hypergeometric_parts(total, successes, draws);
    if let (DrawPlan::Hrua { ref mut setup, .. }, Some(a)) = (&mut plan, args) {
        setup.d10 = lf_sum4(a);
    }
    plan
}

/// The branchless symmetry reductions of the hypergeometric planner:
/// `H(t, s, d) = s − H(t, s, t−d)` (flip the draw set) and `H(t, s, d) =
/// d − H(t, t−s, d)` (flip the marking).  With the degenerate supports
/// excluded by the caller, at most one flip of each kind applies and the
/// draw flip can only *shrink* `d`, so applying them in this order
/// reaches `s, d ≤ total/2` in one straight-line pass.  The select
/// arithmetic produces exactly the values the historical flip loop
/// produced — it is the same integer math, minus the data-dependent
/// branches that went unpredicted when consecutive lanes straddle the
/// `total/2` boundary.  Shared by the scalar planner and the lane-batched
/// prepass so both reduce identically.
#[inline(always)]
fn hyp_flips(total: u64, successes: u64, draws: u64) -> (u64, u64, Affine) {
    let (mut s, mut d) = (successes, draws);
    let mut outer = IDENTITY;
    let half = total / 2;
    let flip_d = (d > half) as u64;
    outer = Affine {
        offset: outer.offset + outer.sign * (flip_d * s) as i64,
        sign: outer.sign * (1 - 2 * flip_d as i64),
    };
    d = flip_d * (total - d) + (1 - flip_d) * d;
    let flip_s = (s > half) as u64;
    outer = Affine {
        offset: outer.offset + outer.sign * (flip_s * d) as i64,
        sign: outer.sign * (1 - 2 * flip_s as i64),
    };
    s = flip_s * (total - s) + (1 - flip_s) * s;
    (s, d, outer)
}

/// [`plan_hypergeometric`] in two parts: the finished plan except for an
/// HRUA setup's `d10` (left `0.0`), plus the four log-factorial arguments
/// that complete it (`None` for non-HRUA leaves).  The lane-batched entry
/// points plan all lanes through this and then resolve every lane's `d10`
/// in one gather pass; the fused wrapper above resolves immediately.
/// Either way `d10` is the same sum in the same order — identical bits.
#[inline]
fn plan_hypergeometric_parts(
    total: u64,
    successes: u64,
    draws: u64,
) -> (DrawPlan, Option<[u64; 4]>) {
    debug_assert!(successes <= total && draws <= total);
    let (s, d) = (successes, draws);
    if d == 0 || s == 0 || s == total || d == total {
        // Degenerate supports.  The lane-batched call sites filter these
        // inline, so this branch is all-but-never taken on the hot path.
        if d == 0 || s == 0 {
            return (DrawPlan::Done(0), None);
        }
        if s == total {
            return (DrawPlan::Done(d), None);
        }
        return (DrawPlan::Done(s), None);
    }
    let (s, d, outer) = hyp_flips(total, s, d);
    if d <= URN_MAX_DRAWS {
        // Exact sequential urn simulation: cheapest when the walk is
        // short (one Lemire-rejection integer draw per urn pull).
        return (
            DrawPlan::Urn {
                total,
                successes: s,
                draws: d,
                outer,
            },
            None,
        );
    }
    if 2 * s == total && d <= POPCOUNT_MAX_N {
        // Exactly half the population is marked: propose from
        // Binomial(d, ½) — raw popcount words — and correct with a
        // multiply-only rejection walk.  Entirely ln-free (no
        // log-factorials, no transcendental calls), and the proposal is so
        // close to the target that ~1.03 iterations are expected; see
        // `halfpop_draw`.  The trigger is an exact integer predicate, so it
        // can never desynchronise engines.
        return (
            DrawPlan::HalfPop {
                setup: HalfPopSetup {
                    s,
                    d,
                    z_m: d.div_ceil(2),
                    inv_s: 1.0 / s as f64,
                },
                outer,
            },
            None,
        );
    }
    // Constant expected-time ratio-of-uniforms rejection: exact for every
    // parameter (the log-factorials above the two-level table fall back to
    // the Stirling kernel), so no large-population approximation is needed
    // at all.  The mode-centered inversion walk that served this band in
    // PR 6 lost to HRUA at every measured spread (see
    // `sampler_crossovers`), so it survives only as the independent test
    // oracle below.
    let (setup, args) = HruaSetup::new_deferred(total, s, d, hyp_floats(total, s, d));
    (DrawPlan::Hrua { setup, outer }, Some(args))
}

// ---------------------------------------------------------------------------
// Leaf executors (shared between the scalar and lane-batched paths)
// ---------------------------------------------------------------------------

/// Exact sequential urn walk.
fn urn_walk<R: RngCore + ?Sized>(rng: &mut R, total: u64, successes: u64, draws: u64) -> u64 {
    let mut remaining_total = total;
    let mut remaining_successes = successes;
    let mut hits = 0u64;
    for _ in 0..draws {
        if rng.gen_range(0..remaining_total) < remaining_successes {
            remaining_successes -= 1;
            hits += 1;
        }
        remaining_total -= 1;
    }
    hits
}

/// The mode and `ln pmf(mode)` of an inversion-oracle hypergeometric, from
/// the shared log-factorial table.  The mode-centered inversion pair
/// ([`inv_mode_and_ln_pmf`] + [`inv_walk`]) is no longer a planner leaf —
/// HRUA beat it at every measured spread — but it is kept, compiled into
/// the test build only, as an independent exact implementation the
/// chi-square and agreement suites can hold the rejection samplers
/// against.
#[cfg(test)]
fn inv_mode_and_ln_pmf(total: u64, successes: u64, draws: u64) -> (u64, f64) {
    debug_assert!(total <= LOG_FACTORIAL_TABLE_MAX);
    let failures = total - successes;
    let lo = draws.saturating_sub(failures);
    let hi = draws.min(successes);
    let lf = log_factorials();
    let (t, s, f, d) = (
        total as usize,
        successes as usize,
        failures as usize,
        draws as usize,
    );
    let mode = ((((draws + 1) as f64) * ((successes + 1) as f64) / ((total + 2) as f64)) as u64)
        .clamp(lo, hi);
    let k = mode as usize;
    // ln C(s,k) + ln C(f,d−k) − ln C(t,d)
    let ln_pmf = (lf[s] - lf[k] - lf[s - k]) + (lf[f] - lf[d - k] - lf[f - (d - k)])
        - (lf[t] - lf[d] - lf[t - d]);
    (mode, ln_pmf)
}

/// The zigzag CDF walk of the mode-centered inversion oracle (test builds
/// only, see [`inv_mode_and_ln_pmf`]), given the uniform and the
/// already-exponentiated mode pmf.
///
/// Walks outward (alternating above/below the mode) subtracting pmf terms
/// obtained from the two-term recurrences
///
/// ```text
/// p(k+1)/p(k) = (s−k)(d−k) / ((k+1)(f−d+k+1))
/// p(k−1)/p(k) = k(f−d+k) / ((s−k+1)(d−k+1))
/// ```
///
/// until the uniform is exhausted.  Since the pmf mass within O(sd) of the
/// mode is 1 − ε, the expected walk length is O(sd).
#[cfg(test)]
fn inv_walk(u: f64, total: u64, successes: u64, draws: u64, mode: u64, pmf_mode: f64) -> u64 {
    let failures = total - successes;
    let lo = draws.saturating_sub(failures);
    let hi = draws.min(successes);
    debug_assert!(lo <= hi);
    let mut remaining = u - pmf_mode;
    if remaining <= 0.0 {
        return mode;
    }
    // Zigzag outward; each side carries its own running pmf.  The step
    // expression uses a single `p·(num/den)` division per half-step so the
    // two sides' chains stay short.
    let (sf, df) = (successes as f64, draws as f64);
    let (mut up_k, mut up_p) = (mode, pmf_mode);
    let (mut dn_k, mut dn_p) = (mode, pmf_mode);
    loop {
        let can_up = up_k < hi;
        let can_dn = dn_k > lo;
        if can_up {
            let k = up_k as f64;
            // k ≥ lo = max(0, d−f) guarantees f − d + k + 1 ≥ 1.
            up_p *= ((sf - k) * (df - k))
                / (((up_k + 1) as f64) * ((failures + up_k + 1 - draws) as f64));
            up_k += 1;
            remaining -= up_p;
            if remaining <= 0.0 {
                return up_k;
            }
        }
        if can_dn {
            let k = dn_k as f64;
            dn_p *= (k * (failures as f64 + k - df))
                / (((successes - dn_k + 1) as f64) * ((draws - dn_k + 1) as f64));
            dn_k -= 1;
            remaining -= dn_p;
            if remaining <= 0.0 {
                return dn_k;
            }
        }
        if !can_up && !can_dn {
            // Only reachable through accumulated f64 rounding in the last
            // ~1e-15 of the CDF; the mode is the safest fallback.
            return mode;
        }
    }
}

/// How many deferred walks run interleaved in the lane-batched flush: 8
/// independent recurrence chains hide the division latency that makes a
/// single walk serial-bound, and give the compiler a fixed-width,
/// if-convertible inner loop.
const WALK_LANES: usize = 8;

/// The binomial CDF walk from zero, given the uniform and the
/// already-exponentiated `pmf(0) = qⁿ`.
fn cdf_walk(u: f64, pmf0: f64, n: u64, p: f64) -> u64 {
    let q = 1.0 - p;
    let ratio = p / q;
    let mut pmf = pmf0;
    let mut cdf = pmf;
    let mut k = 0u64;
    // The step expression is written EXACTLY as in `cdf_walk8` (a single
    // `p·(num/den)` with one division) — textual divergence breaks the
    // bit-identity between the scalar and lane-batched engines.
    while cdf < u && k < n {
        pmf *= ratio * (n - k) as f64 / ((k + 1) as f64);
        cdf += pmf;
        k += 1;
        if pmf < 1e-300 {
            break;
        }
    }
    k
}

/// [`cdf_walk`] over up to 8 independent walks in lockstep, branch-free.
///
/// All walk state lives in the f64 domain: every quantity involved is an
/// integer of magnitude well below 2⁵³, so the float steps evaluate to
/// bit-identical values to the scalar walk's integer-indexed ones.  Each
/// lane runs the scalar walk's exact operation sequence; finished lanes
/// are masked with selects rather than branches, so the interleaving
/// overlaps the lanes' serial multiply/divide chains.
fn cdf_walk8(
    m: usize,
    u: &[f64; WALK_LANES],
    pmf0: &[f64; WALK_LANES],
    n: &[u64; WALK_LANES],
    p: &[f64; WALK_LANES],
    res: &mut [u64; WALK_LANES],
) {
    debug_assert!(m <= WALK_LANES);
    let mut done = [true; WALK_LANES];
    let mut ratio = [0.0f64; WALK_LANES];
    let mut pmf = [0.0f64; WALK_LANES];
    let mut cdf = [0.0f64; WALK_LANES];
    let mut kf = [0.0f64; WALK_LANES];
    let mut nf = [1.0f64; WALK_LANES];
    let mut resf = [0.0f64; WALK_LANES];
    for j in 0..m {
        ratio[j] = p[j] / (1.0 - p[j]);
        pmf[j] = pmf0[j];
        cdf[j] = pmf0[j];
        nf[j] = n[j] as f64;
        done[j] = false;
    }
    loop {
        let mut all = true;
        for j in 0..WALK_LANES {
            let can = !done[j] & (cdf[j] < u[j]) & (kf[j] < nf[j]);
            let np = pmf[j] * (ratio[j] * (nf[j] - kf[j]) / (kf[j] + 1.0));
            cdf[j] = if can { cdf[j] + np } else { cdf[j] };
            pmf[j] = if can { np } else { pmf[j] };
            kf[j] = if can { kf[j] + 1.0 } else { kf[j] };
            // Finished either by crossing u / hitting n (condition false at
            // the top) or by pmf underflow after the step; in both cases
            // the scalar walk returns the *current* k.
            let fin = (!done[j] & !can) | (can & (np < 1e-300));
            resf[j] = if fin { kf[j] } else { resf[j] };
            done[j] |= fin;
            all &= done[j];
        }
        if all {
            break;
        }
    }
    for j in 0..m {
        res[j] = resf[j] as u64;
    }
}

/// Exact `Binomial(n, ½)` by bit counting: the `n` fair coins are the low
/// bits of `⌈n/64⌉` RNG words (the final partial word keeps its low
/// `n mod 64` bits), so one `popcnt` instruction replaces 64 Bernoulli
/// draws.
fn popcount_binomial<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    let mut hits = 0u64;
    let mut left = n;
    while left >= 64 {
        hits += u64::from(rng.next_u64().count_ones());
        left -= 64;
    }
    if left > 0 {
        hits += u64::from((rng.next_u64() & ((1u64 << left) - 1)).count_ones());
    }
    hits
}

/// Direct Bernoulli counting.
fn bern_count<R: RngCore + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    (0..n).filter(|_| rng.gen_bool(p)).count() as u64
}

/// Exact `Binomial(n, p)` by BTRS — Hörmann's transformed rejection with
/// squeeze (W. Hörmann, *The generation of binomial random variates*,
/// J. Stat. Comput. Simul. 46, 1993).
///
/// The proposal `k = ⌊(2a/uₛ + b)·u + c⌋` maps a uniform through a rational
/// transform whose density dominates the binomial pmf; most candidates are
/// accepted by the cheap squeeze `v ≤ v_r`, and the rest are decided by an
/// exact log-pmf comparison against the shared [`ln_factorial`] kernel.
/// Expected cost is ~2.5 uniforms and ~1.3 iterations, independent of `n`
/// and `p`.  Callers guarantee `p ≤ ½` (the planner's `inner` flip) and
/// `n·p ≥ 10` (the squeeze constants' validity floor, enforced by
/// `BTRS_MIN_MEAN`).
#[cfg(test)]
fn btrs_walk<R: RngCore + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    btrs_loop(rng, &BtrsSetup::new(n, p))
}

/// The BTRS rejection loop, given a prepared [`BtrsSetup`] — the part of
/// the draw that actually consumes randomness.
fn btrs_loop<R: RngCore + ?Sized>(rng: &mut R, s: &BtrsSetup) -> u64 {
    let &BtrsSetup {
        n,
        nf,
        a,
        b,
        c,
        v_r,
        alpha,
        lpq,
        m,
        h,
    } = s;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        let v: f64 = rng.gen_range(0.0..1.0);
        let u = u - 0.5;
        let us = 0.5 - u.abs();
        let kf = ((2.0 * a / us + b) * u + c).floor();
        if kf < 0.0 || kf > nf {
            continue;
        }
        // Squeeze: accepts ~86% of in-range candidates without any
        // transcendental work.
        if us >= 0.07 && v <= v_r {
            return kf as u64;
        }
        // Exact acceptance test in the log domain.
        let k = kf as u64;
        let threshold = h - ln_factorial(k) - ln_factorial(n - k) + (kf - m) * lpq;
        if pmath::ln(v * alpha / (a / (us * us) + b)) <= threshold {
            return kf as u64;
        }
    }
}

/// Exact `Hypergeometric(2s, s, d)` — the half-population case — by
/// rejection from a popcount `Binomial(d, ½)` proposal.
///
/// The target/proposal pmf ratio obeys the exact integer recurrence
/// `r(z+1)/r(z) = (s − z)/(s − d + z + 1)`, which is ≥ 1 iff
/// `z ≤ (d−1)/2`, so `r` is unimodal with argmax `z* = ⌊(d+1)/2⌋` and the
/// rejection `u ≤ r(z)/r(z*)` is exact with envelope constant
/// `r(z*) = (1 − (d−1)/(2s−1))^(−1/2) ≈ 1 + d/4s`: essentially every
/// proposal is accepted.  The ratio is evaluated as a product of at most
/// `|z − z*| ≤ d` factors, each pre-scaled by `1/s` to keep both sides of
/// the comparison in f64 range — multiplies only, **no** `ln`, `exp` or
/// log-factorial anywhere (the one leaf that beats even the table).  The
/// expected walk length is the proposal's deviation `O(√d)`, and the
/// accumulated rounding of ≤ d scaled factors stays below ~d·ε ≈ 1e-13 —
/// inside the module's "exact up to f64 rounding of pmf recurrences"
/// contract.  (Proposals far enough in the tail to underflow the scaled
/// products themselves have probability < 1e-300; unreachable in
/// practice.)
fn halfpop_draw<R: RngCore + ?Sized>(rng: &mut R, s: &HalfPopSetup) -> u64 {
    let &HalfPopSetup { s, d, z_m, inv_s } = s;
    loop {
        let z = popcount_binomial(rng, d);
        let u: f64 = rng.gen_range(0.0..1.0);
        if z == z_m {
            return z; // r(z)/r(z*) = 1 ≥ u
        }
        let (lo, hi) = if z > z_m { (z_m, z) } else { (z, z_m) };
        let mut num = 1.0f64;
        let mut den = 1.0f64;
        for j in lo..hi {
            num *= (s - j) as f64 * inv_s;
            den *= (s - d + j + 1) as f64 * inv_s;
        }
        // r(z)/r(z*) is num/den walking up from z*, den/num walking down.
        let (num, den) = if z > z_m { (num, den) } else { (den, num) };
        if u * den <= num {
            return z;
        }
    }
}

/// Exact `Hypergeometric(total, successes, draws)` by HRUA — Stadlober's
/// universal ratio-of-uniforms rejection (E. Stadlober, *The ratio of
/// uniforms approach for generating discrete random variates*, 1990; the
/// constants and squeezes follow the classic numpy/randomkit realisation).
///
/// A candidate `w = d₆ + d₈·(y − ½)/x` is accepted iff `x² ≤ pmf(⌊w⌋) /
/// pmf(mode)`, tested in the log domain against the shared
/// [`ln_factorial`] kernel with two squeeze short-cuts.  The hat covers
/// the pmf of any log-concave discrete distribution when `d₇` dominates
/// the standard deviation (it does, by construction), so the sampler is
/// exact for *every* parameter — no large-population approximation.
/// Expected cost is ~2.5 uniforms and ~1.5 iterations.  Callers guarantee
/// the planner's reductions `draws ≤ total/2` and `successes ≤ total/2`.
#[cfg(test)]
fn hrua_draw<R: RngCore + ?Sized>(rng: &mut R, total: u64, successes: u64, draws: u64) -> u64 {
    let fl = hyp_floats(total, successes, draws);
    let (mut setup, args) = HruaSetup::new_deferred(total, successes, draws, fl);
    setup.d10 = lf_sum4(args);
    hrua_loop(rng, &setup)
}

/// The HRUA rejection loop, given a prepared [`HruaSetup`] — the part of
/// the draw that actually consumes randomness.  Each iteration still pays
/// four [`ln_factorial`] evaluations; with the two-level table those are
/// loads for every argument up to [`LOG_FACTORIAL_EXT_MAX`].
#[inline]
fn hrua_loop<R: RngCore + ?Sized>(rng: &mut R, s: &HruaSetup) -> u64 {
    let &HruaSetup {
        mingoodbad,
        maxgoodbad,
        m,
        d6,
        d8,
        d10,
        d11,
    } = s;
    loop {
        let x: f64 = rng.gen_range(0.0..1.0);
        let y: f64 = rng.gen_range(0.0..1.0);
        let w = d6 + d8 * (y - 0.5) / x;
        // Fast rejection: outside the support (or the hat's 16σ tail cut).
        if w < 0.0 || w >= d11 {
            continue;
        }
        let z = w.floor() as u64;
        let t = d10
            - (ln_factorial(z)
                + ln_factorial(mingoodbad - z)
                + ln_factorial(m - z)
                + ln_factorial(maxgoodbad + z - m));
        // Fast acceptance: x(4−x)−3 ≤ ln pmf ratio ⇒ 2·ln x ≤ t.
        if x * (4.0 - x) - 3.0 <= t {
            return z;
        }
        // Fast rejection: x(x−t) ≥ 1 ⇒ 2·ln x > t.
        if x * (x - t) >= 1.0 {
            continue;
        }
        // Exact acceptance test.
        if 2.0 * pmath::ln(x) <= t {
            return z;
        }
    }
}

/// Executes a plan against one RNG, consuming exactly the draws the plan's
/// leaf requires.
fn execute_plan<R: RngCore + ?Sized>(rng: &mut R, plan: &DrawPlan) -> u64 {
    match *plan {
        DrawPlan::Done(v) => v,
        DrawPlan::Urn {
            total,
            successes,
            draws,
            outer,
        } => outer.apply(urn_walk(rng, total, successes, draws)),
        DrawPlan::Hrua { ref setup, outer } => outer.apply(hrua_loop(rng, setup)),
        DrawPlan::HalfPop { ref setup, outer } => outer.apply(halfpop_draw(rng, setup)),
        DrawPlan::Pop { n } => popcount_binomial(rng, n),
        DrawPlan::Bern { n, p, inner } => inner.apply(bern_count(rng, n, p)),
        DrawPlan::Cdf { n, p, pmf0, inner } => {
            let u: f64 = rng.gen_range(0.0..1.0);
            inner.apply(cdf_walk(u, pmf0, n, p))
        }
        DrawPlan::Btrs { ref setup, inner } => inner.apply(btrs_loop(rng, setup)),
    }
}

// ---------------------------------------------------------------------------
// Scalar entry points
// ---------------------------------------------------------------------------

/// Samples `Binomial(n, p)`: the number of successes in `n` independent
/// trials of probability `p`.
pub fn binomial<R: RngCore + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    execute_plan(rng, &plan_binomial(n, p))
}

/// Samples `Hypergeometric(total, successes, draws)`: the number of marked
/// items in `draws` draws without replacement from a population of `total`
/// items of which `successes` are marked.
pub fn hypergeometric<R: RngCore + ?Sized>(
    rng: &mut R,
    total: u64,
    successes: u64,
    draws: u64,
) -> u64 {
    execute_plan(rng, &plan_hypergeometric(total, successes, draws))
}

/// Splits `draws` draws without replacement across buckets with the given
/// `sizes` (multivariate hypergeometric), writing the per-bucket counts into
/// `out` and returning the total drawn (= `draws`).
///
/// # Panics
///
/// Panics if `draws` exceeds the total bucket size.
pub fn multivariate_hypergeometric<R: RngCore + ?Sized>(
    rng: &mut R,
    sizes: &[u64],
    draws: u64,
    out: &mut [u64],
) {
    debug_assert_eq!(sizes.len(), out.len());
    let mut remaining_total: u64 = sizes.iter().sum();
    assert!(
        draws <= remaining_total,
        "cannot draw more agents than exist"
    );
    let mut remaining_draws = draws;
    for (i, &size) in sizes.iter().enumerate() {
        if remaining_draws == 0 {
            out[i] = 0;
            continue;
        }
        // Conditional distribution of this bucket's draw count.
        let k = hypergeometric(rng, remaining_total, size, remaining_draws);
        out[i] = k;
        remaining_draws -= k;
        remaining_total -= size;
    }
    debug_assert_eq!(remaining_draws, 0);
}

// ---------------------------------------------------------------------------
// Parameter-cached samplers
// ---------------------------------------------------------------------------

/// A `Hypergeometric(total, successes, draws)` sampler with all
/// parameter-only setup done up front.
///
/// [`hypergeometric`] plans (support checks, symmetry reductions, regime
/// selection, HRUA's hat/mode constants — four log-factorials and a
/// square root) and executes in one call, so a loop of scalar calls pays
/// the setup once per *draw*.  `CachedHypergeometric` holds the finished
/// `DrawPlan` so the setup is paid once per *distribution*; [`Self::draw`]
/// runs only the part that consumes randomness.  This is the kernel
/// boundary the lane-batched entry points, and eventually SIMD/GPU
/// backends, build on: one plan, many executions.
///
/// **Stream contract:** `draw` is value- and stream-position-identical to
/// a scalar [`hypergeometric`] call with the same parameters — both
/// execute the *same* plan through the *same* leaf code, the cached form
/// just skips replanning.  [`Self::draw_many`] is exactly a loop of
/// `draw`.  Pinned by the `cached_*_bit_identical_*` property suites.
#[derive(Debug, Clone, Copy)]
pub struct CachedHypergeometric {
    plan: DrawPlan,
}

impl CachedHypergeometric {
    /// Plans `Hypergeometric(total, successes, draws)` once.
    pub fn new(total: u64, successes: u64, draws: u64) -> Self {
        CachedHypergeometric {
            plan: plan_hypergeometric(total, successes, draws),
        }
    }

    /// Draws one variate, consuming the RNG exactly as the scalar
    /// [`hypergeometric`] would.
    #[inline]
    pub fn draw<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        execute_plan(rng, &self.plan)
    }

    /// Fills `out` with independent variates — exactly a loop of
    /// [`Self::draw`], provided as the batch entry point SIMD/GPU
    /// backends and the bench harness share.
    pub fn draw_many<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [u64]) {
        for o in out.iter_mut() {
            *o = execute_plan(rng, &self.plan);
        }
    }
}

/// A `Binomial(n, p)` sampler with all parameter-only setup (planning,
/// BTRS hat/squeeze constants, the CDF walk's `pmf(0) = qⁿ`) done up
/// front — the binomial counterpart of [`CachedHypergeometric`], with the
/// same stream contract: `draw` ≡ scalar [`binomial`] in both value and
/// RNG stream position, and `draw_many` ≡ a loop of `draw`.
#[derive(Debug, Clone, Copy)]
pub struct CachedBinomial {
    plan: DrawPlan,
}

impl CachedBinomial {
    /// Plans `Binomial(n, p)` once.
    pub fn new(n: u64, p: f64) -> Self {
        CachedBinomial {
            plan: plan_binomial(n, p),
        }
    }

    /// Draws one variate, consuming the RNG exactly as the scalar
    /// [`binomial`] would.
    #[inline]
    pub fn draw<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        execute_plan(rng, &self.plan)
    }

    /// Fills `out` with independent variates (a loop of [`Self::draw`]).
    pub fn draw_many<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [u64]) {
        for o in out.iter_mut() {
            *o = execute_plan(rng, &self.plan);
        }
    }
}

/// The Rayleigh-tail inversion shared by the scalar and lane-batched
/// birthday paths: maps one uniform to a (pre-clamp) collision time.
#[inline(always)]
fn rayleigh_from_uniform(n: u64, u: f64) -> f64 {
    let u = (1.0 - u).max(f64::MIN_POSITIVE); // uniform in (0, 1]
    (-2.0 * n as f64 * pmath::ln(u)).sqrt().ceil()
}

/// Samples the number of uniform agent draws until the first repeat (the
/// "birthday" collision time) in a population of `n` agents.
///
/// `P(T > t) = ∏_{i<t} (1 - i/n) ≈ exp(-t²/2n)`, so `T` is approximately
/// Rayleigh with scale `√n`; the approximation error is `O(1/√n)` and the
/// batched engine only uses this path for large `n`.
pub fn birthday_collision_draws<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    (rayleigh_from_uniform(n, u) as u64).clamp(2, n)
}

// ---------------------------------------------------------------------------
// Lane-batched entry points (the ensemble engine's draw sites)
// ---------------------------------------------------------------------------

/// A planned draw whose uniform is already consumed but whose transform is
/// deferred to a bulk loop.
#[derive(Debug, Clone, Copy)]
struct Pending {
    lane: u32,
    u1: f64,
    plan: DrawPlan,
}

/// Deferred-transform records and packed argument arrays, reused across the
/// ensemble's draw sites to keep waves allocation-free.  `plans` stages the
/// planning pass of the lane-batched entry points: planning is RNG-free,
/// so all lanes' plans are built in one tight loop (whose independent
/// division/square-root setup chains pipeline in the CPU instead of
/// serialising behind each lane's rejection loop) before any randomness is
/// consumed, without perturbing any lane's stream.
#[derive(Debug, Default, Clone)]
pub struct LaneDrawScratch {
    cdf: Vec<Pending>,
    fa: Vec<f64>,
    plans: Vec<DrawPlan>,
    fixups: Vec<(u32, [u64; 4])>,
    hrua_active: Vec<(u32, u32)>,
    hrua_pend: Vec<HruaPend>,
    hrua_g: Vec<f64>,
    hrua_exact: Vec<(u32, f64)>,
    hrua_lnx: Vec<f64>,
}

/// One lane's in-flight HRUA proposal between the uniform pass and the
/// acceptance pass of a lockstep round: the hat draw `x`, the proposed
/// variate `z`, and everything the later passes need (log-factorial
/// arguments, acceptance constant, post-map) copied out of the setup while
/// it is already in registers — so the gather and acceptance passes stream
/// sequentially over this record instead of re-loading `plans[idx]`.
#[derive(Debug, Clone, Copy)]
struct HruaPend {
    lane: u32,
    idx: u32,
    x: f64,
    z: u64,
    d10: f64,
    outer: Affine,
    args: [u64; 4],
}

impl LaneDrawScratch {
    fn clear(&mut self) {
        self.cdf.clear();
    }

    /// Plans one lane's draw, consumes its uniforms in the scalar order,
    /// and either finishes it immediately (integer-only and rejection
    /// leaves — the latter consume a data-dependent number of uniforms but
    /// constant expected work, so there is nothing to batch) or queues its
    /// transform.  The leaves are called directly (not through
    /// [`execute_plan`]) so the per-lane hot path does a single match on a
    /// borrowed plan instead of copying the plan enum into a second
    /// dispatch — the leaf code is the same, so values and stream
    /// positions are untouched.
    #[inline]
    fn dispatch(&mut self, rng: &mut StdRng, lane: u32, plan: &DrawPlan, out: &mut [u64]) {
        match *plan {
            DrawPlan::Done(v) => out[lane as usize] = v,
            DrawPlan::Urn {
                total,
                successes,
                draws,
                outer,
            } => out[lane as usize] = outer.apply(urn_walk(rng, total, successes, draws)),
            DrawPlan::Hrua { ref setup, outer } => {
                out[lane as usize] = outer.apply(hrua_loop(rng, setup));
            }
            DrawPlan::HalfPop { ref setup, outer } => {
                out[lane as usize] = outer.apply(halfpop_draw(rng, setup));
            }
            DrawPlan::Pop { n } => out[lane as usize] = popcount_binomial(rng, n),
            DrawPlan::Bern { n, p, inner } => {
                out[lane as usize] = inner.apply(bern_count(rng, n, p));
            }
            DrawPlan::Btrs { ref setup, inner } => {
                out[lane as usize] = inner.apply(btrs_loop(rng, setup));
            }
            DrawPlan::Cdf { .. } => {
                let u1: f64 = rng.gen_range(0.0..1.0);
                self.cdf.push(Pending {
                    lane,
                    u1,
                    plan: *plan,
                });
            }
        }
    }

    /// Runs the deferred walks in bulk and writes every queued lane's
    /// result.  The `pmf(0)` transform that used to be packed and
    /// exponentiated here is now part of each plan (computed once at plan
    /// time from the same expression), so the flush goes straight to the
    /// lockstep walks.
    fn flush(&mut self, out: &mut [u64]) {
        if !self.cdf.is_empty() {
            let mut base = 0;
            while base < self.cdf.len() {
                let m = (self.cdf.len() - base).min(WALK_LANES);
                let mut wu = [0.0f64; WALK_LANES];
                let mut wpmf0 = [0.0f64; WALK_LANES];
                let mut wn = [0u64; WALK_LANES];
                let mut wp = [0.0f64; WALK_LANES];
                let mut wres = [0u64; WALK_LANES];
                for j in 0..m {
                    let r = &self.cdf[base + j];
                    let DrawPlan::Cdf { n, p, pmf0, .. } = r.plan else {
                        unreachable!("cdf queue only holds Cdf plans")
                    };
                    wu[j] = r.u1;
                    wpmf0[j] = pmf0;
                    wn[j] = n;
                    wp[j] = p;
                }
                cdf_walk8(m, &wu, &wpmf0, &wn, &wp, &mut wres);
                for (j, &res) in wres.iter().enumerate().take(m) {
                    let r = &self.cdf[base + j];
                    let DrawPlan::Cdf { inner, .. } = r.plan else {
                        unreachable!()
                    };
                    out[r.lane as usize] = inner.apply(res);
                }
                base += m;
            }
        }
        self.clear();
    }
}

/// Draws `Hypergeometric(total, successes, draws)` for each job
/// `(lane, total, successes, draws)`, writing `out[lane]` — bit-identically
/// to per-lane scalar [`hypergeometric`] calls, but with the transcendental
/// transforms hoisted into vectorisable bulk loops.
///
/// Each lane's uniforms are consumed in the scalar sampler's order; lanes
/// are independent streams, so the order *across* lanes is immaterial.
pub fn hypergeometric_lanes(
    rngs: &mut [StdRng],
    jobs: &[(u32, u64, u64, u64)],
    out: &mut [u64],
    scratch: &mut LaneDrawScratch,
) {
    scratch.clear();
    // One-entry plan memo: when consecutive lanes draw from the *same*
    // distribution (lanes whose state counts have not yet diverged, or
    // replicated-initial-condition sweeps), the cached plan — HRUA setup
    // included — is reused instead of replanned.  Planning is a pure
    // function of the parameters, so reuse is value-identical by
    // construction.
    let mut memo_key: Option<(u64, u64, u64)> = None;
    let mut memo_plan = DrawPlan::Done(0);
    let mut memo_args: Option<[u64; 4]> = None;
    let mut plans = std::mem::take(&mut scratch.plans);
    let mut fixups = std::mem::take(&mut scratch.fixups);
    plans.clear();
    fixups.clear();
    for &(_, total, successes, draws) in jobs {
        let key = (total, successes, draws);
        if memo_key != Some(key) {
            (memo_plan, memo_args) = plan_hypergeometric_parts(total, successes, draws);
            memo_key = Some(key);
        }
        if let Some(args) = memo_args {
            fixups.push((plans.len() as u32, args));
        }
        plans.push(memo_plan);
    }
    // Load-only gather pass: every HRUA plan's deferred `d10` ln-factorial
    // sum is resolved in one tight loop, so the extension-table loads of
    // independent lanes overlap in the memory system instead of each
    // serialising behind its own lane's division/square-root setup chain.
    // `lf_sum4` is a pure function of the recorded arguments, so the
    // resulting setup is identical to the fused scalar path's.
    for &(idx, args) in &fixups {
        if let DrawPlan::Hrua { ref mut setup, .. } = plans[idx as usize] {
            setup.d10 = lf_sum4(args);
        }
    }
    let mut active = std::mem::take(&mut scratch.hrua_active);
    active.clear();
    for (i, (plan, &(lane, ..))) in plans.iter().zip(jobs).enumerate() {
        if matches!(plan, DrawPlan::Hrua { .. }) {
            // HRUA lanes run their rejection loops in lockstep below, so
            // every lane's four log-factorial lookups land in one bulk
            // load pass instead of stalling each lane's loop in turn.
            // (Each job targets a distinct lane, so deferring a lane's
            // draw cannot reorder that lane's uniform consumption.)
            active.push((lane, i as u32));
        } else {
            scratch.dispatch(&mut rngs[lane as usize], lane, plan, out);
        }
    }
    let mut pend = std::mem::take(&mut scratch.hrua_pend);
    let mut gs = std::mem::take(&mut scratch.hrua_g);
    let mut exact = std::mem::take(&mut scratch.hrua_exact);
    let mut lnx = std::mem::take(&mut scratch.hrua_lnx);
    hrua_lockstep(
        rngs,
        &plans,
        &mut active,
        &mut pend,
        &mut gs,
        &mut exact,
        &mut lnx,
        out,
    );
    scratch.hrua_active = active;
    scratch.hrua_pend = pend;
    scratch.hrua_g = gs;
    scratch.hrua_exact = exact;
    scratch.hrua_lnx = lnx;
    scratch.plans = plans;
    scratch.fixups = fixups;
    scratch.flush(out);
}

/// Runs the HRUA rejection loops of many independent lanes in lockstep
/// rounds.  Each round makes three passes over the still-active lanes:
///
/// 1. **uniform pass** — draw `x, y` from the lane's own RNG, form the
///    hat proposal `w`, and bounds-test it (no memory traffic);
/// 2. **gather pass** — compute every surviving proposal's
///    `Σ ln aᵢ!` in one tight loop, so the log-factorial extension-table
///    loads of independent lanes overlap in the memory system instead of
///    serialising one rejection loop at a time;
/// 3. **acceptance pass** — the scalar loop's squeeze tests, verbatim;
///    the proposals neither squeeze resolves are set aside, their `ln x`
///    computed through [`pmath::ln_bulk`] (elementwise the same [`pmath::ln`]
///    the scalar loop calls, so identical bits), and the exact test applied
///    last.
///
/// Every lane draws its uniforms from its own stream in the scalar
/// iteration order and the accept/reject arithmetic is expression-for-
/// expression the scalar [`hrua_loop`]'s, so each lane's value *and*
/// stream position are bit-identical to a scalar draw — only the
/// interleaving across (independent) lanes changes.
#[allow(clippy::too_many_arguments)]
fn hrua_lockstep(
    rngs: &mut [StdRng],
    plans: &[DrawPlan],
    active: &mut Vec<(u32, u32)>,
    pend: &mut Vec<HruaPend>,
    gs: &mut Vec<f64>,
    exact: &mut Vec<(u32, f64)>,
    lnx: &mut Vec<f64>,
    out: &mut [u64],
) {
    while !active.is_empty() {
        pend.clear();
        let mut kept = 0;
        for slot in 0..active.len() {
            let (lane, idx) = active[slot];
            let DrawPlan::Hrua { ref setup, outer } = plans[idx as usize] else {
                unreachable!("hrua_lockstep only receives Hrua plans")
            };
            let rng = &mut rngs[lane as usize];
            let x: f64 = rng.gen_range(0.0..1.0);
            let y: f64 = rng.gen_range(0.0..1.0);
            let w = setup.d6 + setup.d8 * (y - 0.5) / x;
            if w < 0.0 || w >= setup.d11 {
                active[kept] = (lane, idx);
                kept += 1;
            } else {
                let z = w.floor() as u64;
                pend.push(HruaPend {
                    lane,
                    idx,
                    x,
                    z,
                    d10: setup.d10,
                    outer,
                    args: [
                        z,
                        setup.mingoodbad - z,
                        setup.m - z,
                        setup.maxgoodbad + z - setup.m,
                    ],
                });
            }
        }
        active.truncate(kept);
        gs.clear();
        for p in pend.iter() {
            gs.push(lf_sum4(p.args));
        }
        exact.clear();
        lnx.clear();
        for (j, (p, &g)) in pend.iter().zip(gs.iter()).enumerate() {
            let t = p.d10 - g;
            let x = p.x;
            if x * (4.0 - x) - 3.0 <= t {
                out[p.lane as usize] = p.outer.apply(p.z);
            } else if x * (x - t) >= 1.0 {
                active.push((p.lane, p.idx));
            } else {
                exact.push((j as u32, t));
                lnx.push(x);
            }
        }
        pmath::ln_bulk(lnx);
        for (&(j, t), &lx) in exact.iter().zip(lnx.iter()) {
            let p = &pend[j as usize];
            if 2.0 * lx <= t {
                out[p.lane as usize] = p.outer.apply(p.z);
            } else {
                active.push((p.lane, p.idx));
            }
        }
    }
}

/// Draws `Binomial(n, p)` for each job `(lane, n, p)`, writing `out[lane]`
/// — the lane-batched counterpart of [`binomial`], same contract as
/// [`hypergeometric_lanes`].
pub fn binomial_lanes(
    rngs: &mut [StdRng],
    jobs: &[(u32, u64, f64)],
    out: &mut [u64],
    scratch: &mut LaneDrawScratch,
) {
    scratch.clear();
    // Same one-entry plan memo as `hypergeometric_lanes` (BTRS setup and
    // the CDF walk's pmf(0) are the reusable parts here).  Binomial leaves
    // all execute in constant rounds, so there is no lockstep pass to
    // stage plans for — each lane dispatches as soon as it is planned.
    let mut memo_key: Option<(u64, u64)> = None;
    let mut memo = CachedBinomial {
        plan: DrawPlan::Done(0),
    };
    for &(lane, n, p) in jobs {
        let key = (n, p.to_bits());
        if memo_key != Some(key) {
            memo = CachedBinomial::new(n, p);
            memo_key = Some(key);
        }
        scratch.dispatch(&mut rngs[lane as usize], lane, &memo.plan, out);
    }
    scratch.flush(out);
}

// ---------------------------------------------------------------------------
// Alias-table categorical sampling and the uniform candidate split
// ---------------------------------------------------------------------------

/// A Vose alias table over `k` weighted outcomes: O(k) construction, then
/// exactly **one uniform** per sample (index and acceptance fraction are
/// both carved out of the same f64, the classic single-uniform alias
/// trick).
///
/// Built once per nondeterministic pair by
/// [`CompiledProtocol`](crate::CompiledProtocol) and shared by both
/// engines, so the candidate-split streams stay bit-identical between the
/// scalar and lane-batched paths by construction.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Scaled acceptance probability of each column.
    prob: Vec<f64>,
    /// Overflow outcome of each column.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table from non-negative `weights` (not necessarily
    /// normalised).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative weight, or sums to
    /// zero.
    pub fn new(weights: &[f64]) -> Self {
        let k = weights.len();
        assert!(k > 0, "alias table needs at least one outcome");
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "alias weights must be non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "alias weights must not all be zero");
        let scale = k as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias: Vec<u32> = (0..k as u32).collect();
        // Vose's stacks: columns below 1 take an alias from columns above.
        let mut small: Vec<u32> = Vec::with_capacity(k);
        let mut large: Vec<u32> = Vec::with_capacity(k);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            // The large column donates the small column's deficit.
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Residuals of either stack are 1.0 up to rounding.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// A table over `k` equally likely outcomes (the candidate-split case:
    /// every column accepts with probability 1, so the alias path is a pure
    /// `⌊u·k⌋`).
    pub fn uniform(k: usize) -> Self {
        Self::new(&vec![1.0; k])
    }

    /// The number of outcomes.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table has no outcomes (never true for a constructed
    /// table, provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Samples one outcome, consuming exactly one uniform.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        let scaled = u * self.prob.len() as f64;
        // u < 1.0, so the index is < len; the min guards the (impossible
        // up to rounding) edge without a branch misprediction cost.
        let i = (scaled as usize).min(self.prob.len() - 1);
        let frac = scaled - i as f64;
        if frac < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// Splits `m` interactions uniformly at random across `table.len()`
/// candidates (a symmetric multinomial), writing per-candidate counts into
/// `out[..table.len()]` — the canonical candidate-split stream shared by
/// [`BatchedSimulator`](crate::BatchedSimulator) and
/// [`EnsembleSimulator`](crate::EnsembleSimulator).
///
/// Two regimes, crossing over at `ALIAS_DRAWS_PER_CANDIDATE` draws per
/// binomial saved (see the module-level threshold table):
///
/// * **small `m`, `c ≥ 3`** — `m` alias-table categorical draws (one
///   uniform each); exact and cheapest when the pair has only a handful of
///   interactions;
/// * **large `m`, or any `m` at `c = 2`** — the classic
///   conditional-binomial chain `share_i ~ Binomial(left, 1/(c−i))`,
///   `c − 1` O(1) draws total, with the last candidate taking the
///   remainder.  A two-candidate split is a *single* `Binomial(m, ½)`,
///   which the planner routes to the popcount leaf — a couple of RNG words
///   and `popcnt` instructions, cheaper than even one alias draw — so the
///   chain is unconditionally the fast path for the (overwhelmingly
///   common) 2-candidate nondeterministic pairs.
///
/// Both regimes sample the same distribution exactly; the regime choice is
/// a deterministic function of `(m, c)`, so it can never desynchronise the
/// two engines' streams.
pub fn split_candidates_uniform<R: RngCore + ?Sized>(
    rng: &mut R,
    m: u64,
    table: &AliasTable,
    out: &mut [u64],
) {
    let c = table.len();
    debug_assert!(out.len() >= c);
    out[..c].fill(0);
    if m == 0 {
        return;
    }
    if c == 1 {
        out[0] = m;
        return;
    }
    if c > 2 && m <= ALIAS_DRAWS_PER_CANDIDATE * (c as u64 - 1) {
        for _ in 0..m {
            out[table.sample(rng)] += 1;
        }
        return;
    }
    let mut left = m;
    for (i, slot) in out.iter_mut().enumerate().take(c - 1) {
        if left == 0 {
            return;
        }
        let share = binomial(rng, left, 1.0 / (c - i) as f64);
        *slot = share;
        left -= share;
    }
    out[c - 1] = left;
}

/// A reusable birthday-collision-time sampler for a fixed population `n`.
///
/// In *exact* mode it tabulates the survival function
/// `S(t) = P(T > t) = ∏_{i<t} (1 − i/n)` once (a few thousand multiplies,
/// `O(√n)` entries until `S` underflows below 1e-18) and then inverts it by
/// binary search, consuming exactly one uniform per draw — the same RNG
/// consumption as the approximate path, so switching modes changes the
/// *values* drawn but never the stream alignment.  In *approximate* mode it
/// defers to the Rayleigh tail inversion of [`birthday_collision_draws`],
/// whose `O(1/√n)` bias is only acceptable for large `n`; the crossover
/// population is documented at `BIRTHDAY_EXACT_MAX_POPULATION` in
/// `batched.rs`, next to the engine that owns the decision.
#[derive(Debug, Clone)]
pub struct BirthdaySampler {
    n: u64,
    /// `survival[t]` = `P(T > t + 1)`, strictly decreasing; present only in
    /// exact mode.  (`P(T > 1)` = 1 always, so the table starts at t = 2.)
    survival: Option<Vec<f64>>,
}

impl BirthdaySampler {
    /// Smallest survival probability kept in the exact table; events rarer
    /// than this are clamped to the table's last entry (their total mass is
    /// far below one ulp of the CDF).
    const TABLE_FLOOR: f64 = 1e-18;

    /// Builds a sampler for population `n`; `exact` selects the tabulated
    /// exact CDF over the Rayleigh approximation.
    pub fn new(n: u64, exact: bool) -> Self {
        let n = n.max(2);
        let survival = exact.then(|| {
            let nf = n as f64;
            let mut table = Vec::with_capacity((9.0 * nf.sqrt()) as usize + 2);
            let mut s = 1.0f64;
            // After t draws without a repeat, draw t+1 misses with
            // probability (n − t)/n.
            for t in 1..n {
                s *= (n - t) as f64 / nf;
                table.push(s); // = P(T > t + 1)
                if s < Self::TABLE_FLOOR {
                    break;
                }
            }
            table
        });
        BirthdaySampler { n, survival }
    }

    /// Samples the number of uniform agent draws until the first repeat,
    /// clamped to `[2, n]`.  Consumes exactly one uniform.
    pub fn draw<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        match &self.survival {
            None => birthday_collision_draws(rng, self.n),
            Some(table) => {
                let u: f64 = rng.gen_range(0.0..1.0);
                let u = (1.0 - u).max(f64::MIN_POSITIVE); // uniform in (0, 1]
                                                          // T = smallest t with S(t) < u; table[i] = S(i + 2), so find
                                                          // the first index with table[i] < u.
                let idx = table.partition_point(|&s| s >= u);
                (idx as u64 + 2).min(self.n)
            }
        }
    }

    /// Draws a collision time for every listed lane, writing `out[lane]` —
    /// bit-identical to per-lane [`BirthdaySampler::draw`] calls.  In
    /// approximate mode the Rayleigh transform runs as one packed pass.
    pub fn draw_lanes(
        &self,
        rngs: &mut [StdRng],
        lanes: &[u32],
        out: &mut [u64],
        scratch: &mut LaneDrawScratch,
    ) {
        match &self.survival {
            Some(_) => {
                // Exact mode: the binary search is already cheap and
                // table-backed; nothing to batch.
                for &k in lanes {
                    out[k as usize] = self.draw(&mut rngs[k as usize]);
                }
            }
            None => {
                scratch.fa.clear();
                for &k in lanes {
                    scratch.fa.push(rngs[k as usize].gen_range(0.0..1.0));
                }
                for u in scratch.fa.iter_mut() {
                    *u = rayleigh_from_uniform(self.n, *u);
                }
                for (&k, &t) in lanes.iter().zip(&scratch.fa) {
                    out[k as usize] = (t as u64).clamp(2, self.n);
                }
            }
        }
    }

    /// Whether this sampler uses the exact tabulated CDF.
    pub fn is_exact(&self) -> bool {
        self.survival.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_and_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn binomial_moments_small_n() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| binomial(&mut rng, 40, 0.3) as f64)
            .collect();
        let (mean, var) = mean_and_var(&samples);
        assert!((mean - 12.0).abs() < 0.15, "mean {mean}");
        assert!((var - 8.4).abs() < 0.5, "var {var}");
    }

    #[test]
    fn binomial_moments_cdf_walk_regime() {
        let mut rng = StdRng::seed_from_u64(2);
        // n large, mean 9 < BTRS_MIN_MEAN: exercises the CDF-walk path.
        let samples: Vec<f64> = (0..20_000)
            .map(|_| binomial(&mut rng, 10_000, 0.0009) as f64)
            .collect();
        let (mean, var) = mean_and_var(&samples);
        assert!((mean - 9.0).abs() < 0.15, "mean {mean}");
        assert!((var - 9.0).abs() < 0.7, "var {var}");
    }

    #[test]
    fn binomial_moments_btrs_regime() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| binomial(&mut rng, 1_000_000, 0.25) as f64)
            .collect();
        let (mean, var) = mean_and_var(&samples);
        assert!((mean - 250_000.0).abs() < 50.0, "mean {mean}");
        let expected_var = 187_500.0;
        assert!((var / expected_var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn hypergeometric_moments_exact_regime() {
        let mut rng = StdRng::seed_from_u64(4);
        let (total, successes, draws) = (1000u64, 300u64, 100u64);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| hypergeometric(&mut rng, total, successes, draws) as f64)
            .collect();
        let (mean, var) = mean_and_var(&samples);
        let p = 0.3;
        let expected_mean = draws as f64 * p;
        let expected_var = expected_mean * (1.0 - p) * (total - draws) as f64 / (total - 1) as f64;
        assert!((mean - expected_mean).abs() < 0.2, "mean {mean}");
        assert!((var / expected_var - 1.0).abs() < 0.07, "var {var}");
    }

    #[test]
    fn hypergeometric_moments_large_population() {
        let mut rng = StdRng::seed_from_u64(5);
        let (total, successes, draws) = (100_000_000u64, 40_000_000u64, 10_000u64);
        let samples: Vec<f64> = (0..5_000)
            .map(|_| hypergeometric(&mut rng, total, successes, draws) as f64)
            .collect();
        let (mean, var) = mean_and_var(&samples);
        let expected_mean = 4_000.0;
        let expected_var = 2_400.0; // ≈ n·p·(1-p), fpc ≈ 1
        assert!((mean / expected_mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!((var / expected_var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn hypergeometric_respects_support_bounds() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..2_000 {
            let total = rng.gen_range(2..500u64);
            let successes = rng.gen_range(0..=total);
            let draws = rng.gen_range(0..=total);
            let k = hypergeometric(&mut rng, total, successes, draws);
            assert!(k <= draws && k <= successes);
            assert!(k + (total - successes) >= draws, "too few failures drawn");
        }
    }

    #[test]
    fn lane_batched_hypergeometric_is_bit_identical_to_scalar() {
        // The core contract of the plan/leaf split: one lane-batched job
        // consumes the lane's RNG and produces its value exactly like a
        // scalar call — across every leaf path (urn, HRUA rejection, and
        // the RNG-free Done short-circuits).
        let mut meta = StdRng::seed_from_u64(0xD1CE);
        let mut scratch = LaneDrawScratch::default();
        for case in 0..4_000u64 {
            let total: u64 = match case % 4 {
                0 => meta.gen_range(2..100u64),              // urn / small support
                1 => meta.gen_range(100..8192u64),           // urn + HRUA in the table
                2 => meta.gen_range(8193..100_000u64),       // HRUA beyond the table
                _ => meta.gen_range(100_000..10_000_000u64), // HRUA, huge totals
            };
            let successes = meta.gen_range(0..=total);
            let draws = meta.gen_range(0..=total);
            let seed = meta.gen_range(0..u64::MAX);
            let mut scalar_rng = StdRng::seed_from_u64(seed);
            let expected = hypergeometric(&mut scalar_rng, total, successes, draws);
            let mut lane_rngs = vec![StdRng::seed_from_u64(seed)];
            let mut out = [0u64; 1];
            hypergeometric_lanes(
                &mut lane_rngs,
                &[(0, total, successes, draws)],
                &mut out,
                &mut scratch,
            );
            assert_eq!(
                out[0], expected,
                "value (t={total}, s={successes}, d={draws})"
            );
            assert_eq!(
                lane_rngs[0].next_u64(),
                scalar_rng.next_u64(),
                "RNG stream position (t={total}, s={successes}, d={draws})"
            );
        }
    }

    #[test]
    fn lane_batched_binomial_is_bit_identical_to_scalar() {
        let mut meta = StdRng::seed_from_u64(0xB1B0);
        let mut scratch = LaneDrawScratch::default();
        for _ in 0..4_000 {
            let n = meta.gen_range(0..5_000u64);
            let p = meta.gen_range(0.0..1.0f64);
            let seed = meta.gen_range(0..u64::MAX);
            let mut scalar_rng = StdRng::seed_from_u64(seed);
            let expected = binomial(&mut scalar_rng, n, p);
            let mut lane_rngs = vec![StdRng::seed_from_u64(seed)];
            let mut out = [0u64; 1];
            binomial_lanes(&mut lane_rngs, &[(0, n, p)], &mut out, &mut scratch);
            assert_eq!(out[0], expected, "value (n={n}, p={p})");
            assert_eq!(
                lane_rngs[0].next_u64(),
                scalar_rng.next_u64(),
                "RNG stream position (n={n}, p={p})"
            );
        }
    }

    #[test]
    fn lane_batched_sites_handle_many_lanes_with_mixed_paths() {
        // One call mixing all leaf kinds across lanes must write every
        // lane's slot and leave every lane's RNG where scalar calls would.
        let mut scratch = LaneDrawScratch::default();
        let params: Vec<(u32, u64, u64, u64)> = vec![
            (0, 50, 20, 3),                  // urn (draws ≤ URN_MAX_DRAWS)
            (1, 4_000, 1_500, 900),          // HRUA, wide spread
            (2, 100_000, 40_000, 500),       // HRUA (total beyond the table)
            (3, 4_000, 1_500, 50),           // HRUA, narrow spread
            (4, 1_000_000, 600_000, 90_000), // HRUA, huge total
            (5, 77, 0, 30),                  // Done
        ];
        let mut lane_rngs: Vec<StdRng> = (0..6).map(|i| StdRng::seed_from_u64(900 + i)).collect();
        let mut out = [0u64; 6];
        hypergeometric_lanes(&mut lane_rngs, &params, &mut out, &mut scratch);
        for &(lane, t, s, d) in &params {
            let mut solo = StdRng::seed_from_u64(900 + lane as u64);
            let expected = hypergeometric(&mut solo, t, s, d);
            assert_eq!(out[lane as usize], expected, "lane {lane}");
            assert_eq!(
                lane_rngs[lane as usize].next_u64(),
                solo.next_u64(),
                "stream of lane {lane}"
            );
        }
    }

    #[test]
    fn cached_hypergeometric_is_bit_identical_to_scalar() {
        // The cached-sampler contract: CachedHypergeometric::draw consumes
        // the RNG and produces its value exactly like an uncached scalar
        // call, across every leaf (urn, HRUA in/beyond the table, HALF_POP,
        // Done).  Every 8th case is forced to the exact-half trigger so
        // the HALF_POP leaf gets dense coverage.
        let mut meta = StdRng::seed_from_u64(0xCAC4E);
        for case in 0..4_000u64 {
            let total: u64 = match case % 4 {
                0 => meta.gen_range(2..100u64),
                1 => meta.gen_range(100..8192u64),
                2 => meta.gen_range(8193..100_000u64),
                _ => meta.gen_range(100_000..10_000_000u64),
            };
            let (total, successes) = if case % 8 == 3 {
                let t = total & !1; // even, exactly half marked
                (t.max(2), t.max(2) / 2)
            } else {
                (total, meta.gen_range(0..=total))
            };
            let draws = meta.gen_range(0..=total);
            let seed = meta.gen_range(0..u64::MAX);
            let mut scalar_rng = StdRng::seed_from_u64(seed);
            let expected = hypergeometric(&mut scalar_rng, total, successes, draws);
            let cached = CachedHypergeometric::new(total, successes, draws);
            let mut cached_rng = StdRng::seed_from_u64(seed);
            assert_eq!(
                cached.draw(&mut cached_rng),
                expected,
                "value (t={total}, s={successes}, d={draws})"
            );
            assert_eq!(
                cached_rng.next_u64(),
                scalar_rng.next_u64(),
                "RNG stream position (t={total}, s={successes}, d={draws})"
            );
        }
    }

    #[test]
    fn cached_binomial_is_bit_identical_to_scalar() {
        let mut meta = StdRng::seed_from_u64(0xCAB10);
        for _ in 0..4_000 {
            let n = meta.gen_range(0..5_000u64);
            let p = meta.gen_range(0.0..1.0f64);
            let seed = meta.gen_range(0..u64::MAX);
            let mut scalar_rng = StdRng::seed_from_u64(seed);
            let expected = binomial(&mut scalar_rng, n, p);
            let cached = CachedBinomial::new(n, p);
            let mut cached_rng = StdRng::seed_from_u64(seed);
            assert_eq!(
                cached.draw(&mut cached_rng),
                expected,
                "value (n={n}, p={p})"
            );
            assert_eq!(
                cached_rng.next_u64(),
                scalar_rng.next_u64(),
                "RNG stream position (n={n}, p={p})"
            );
        }
    }

    #[test]
    fn cached_draw_many_is_bit_identical_to_repeated_scalar_draws() {
        // draw_many is defined as a loop of draw; pin the whole batch and
        // the stream position after it, for both distributions, across
        // leaves.
        for (total, successes, draws) in [
            (50u64, 20u64, 3u64),         // urn
            (1_000, 500, 100),            // HALF_POP
            (4_000, 1_500, 900),          // HRUA in the table
            (1_000_000, 400_000, 300),    // HRUA in the extension
            (10_000_000, 4_000_000, 500), // HRUA beyond the extension
        ] {
            let cached = CachedHypergeometric::new(total, successes, draws);
            let mut batch_rng = StdRng::seed_from_u64(total ^ draws);
            let mut out = [0u64; 16];
            cached.draw_many(&mut batch_rng, &mut out);
            let mut scalar_rng = StdRng::seed_from_u64(total ^ draws);
            for (i, &got) in out.iter().enumerate() {
                let expected = hypergeometric(&mut scalar_rng, total, successes, draws);
                assert_eq!(
                    got, expected,
                    "draw {i} (t={total}, s={successes}, d={draws})"
                );
            }
            assert_eq!(
                batch_rng.next_u64(),
                scalar_rng.next_u64(),
                "stream after batch (t={total}, s={successes}, d={draws})"
            );
        }
        for (n, p) in [
            (40u64, 0.3f64),
            (10_000, 0.0009),
            (1_000_000, 0.25),
            (800, 0.5),
        ] {
            let cached = CachedBinomial::new(n, p);
            let mut batch_rng = StdRng::seed_from_u64(n);
            let mut out = [0u64; 16];
            cached.draw_many(&mut batch_rng, &mut out);
            let mut scalar_rng = StdRng::seed_from_u64(n);
            for (i, &got) in out.iter().enumerate() {
                assert_eq!(
                    got,
                    binomial(&mut scalar_rng, n, p),
                    "draw {i} (n={n}, p={p})"
                );
            }
            assert_eq!(
                batch_rng.next_u64(),
                scalar_rng.next_u64(),
                "stream after batch (n={n}, p={p})"
            );
        }
    }

    #[test]
    fn cached_hypergeometric_draw_many_matches_exact_pmf() {
        // GOF through the batch entry point itself (not just equivalence to
        // the scalar path): HRUA inside the table and in the lazy
        // extension.
        for (total, successes, draws, seed, ctx) in [
            (8_000u64, 3_000u64, 200u64, 70u64, "inside the table"),
            (1_000_000, 400_000, 300, 71, "extension chunks"),
        ] {
            let cached = CachedHypergeometric::new(total, successes, draws);
            let mut rng = StdRng::seed_from_u64(seed);
            let trials = 100_000usize;
            let pmf = hypergeometric_pmf(total, successes, draws);
            let lo = draws.saturating_sub(total - successes);
            let mut observed = vec![0.0f64; pmf.len()];
            let mut out = vec![0u64; 1_000];
            for _ in 0..trials / 1_000 {
                cached.draw_many(&mut rng, &mut out);
                for &k in &out {
                    observed[(k - lo) as usize] += 1.0;
                }
            }
            assert_chi_square_gof(&observed, &pmf, trials, ctx);
        }
    }

    #[test]
    fn cached_binomial_draw_many_matches_exact_pmf() {
        // BTRS through the cached batch entry point.
        let (n, p) = (1_000u64, 0.4f64);
        let cached = CachedBinomial::new(n, p);
        let mut rng = StdRng::seed_from_u64(72);
        let trials = 100_000usize;
        let pmf = binomial_pmf(n, p);
        let mut observed = vec![0.0f64; pmf.len()];
        let mut out = vec![0u64; 1_000];
        for _ in 0..trials / 1_000 {
            cached.draw_many(&mut rng, &mut out);
            for &k in &out {
                observed[k as usize] += 1.0;
            }
        }
        assert_chi_square_gof(&observed, &pmf, trials, "cached BTRS");
    }

    #[test]
    fn halfpop_hypergeometric_matches_exact_pmf() {
        // The exact-half leaf against the analytic pmf, from the crossover
        // boundary (d = 17) through the popcount cap (d = s = 1024) to a
        // large population.  First pin the routing itself.
        assert!(matches!(
            plan_hypergeometric(1_000, 500, 100),
            DrawPlan::HalfPop { .. }
        ));
        assert!(matches!(
            plan_hypergeometric(1_000, 500, 16),
            DrawPlan::Urn { .. }
        ));
        assert!(matches!(
            plan_hypergeometric(1_000, 499, 100),
            DrawPlan::Hrua { .. }
        ));
        assert!(matches!(
            plan_hypergeometric(4_096, 2_048, 1_025),
            DrawPlan::Hrua { .. }
        ));
        // For the deep exact-half cases pmf(lo) ≈ 2^(−d) underflows the
        // lo-anchored recurrence in `hypergeometric_pmf`, so compute the
        // reference pmf pointwise from the level-1 log-factorial table
        // (valid while total ≤ LOG_FACTORIAL_TABLE_MAX).
        let table_pmf = |total: u64, successes: u64, draws: u64| -> Vec<f64> {
            assert!(total <= LOG_FACTORIAL_TABLE_MAX);
            let lf = log_factorials();
            let f = total - successes;
            let lo = draws.saturating_sub(f);
            let hi = draws.min(successes);
            let (t, s, f, d) = (
                total as usize,
                successes as usize,
                f as usize,
                draws as usize,
            );
            let ln_denom = lf[t] - lf[d] - lf[t - d];
            (lo..=hi)
                .map(|k| {
                    let k = k as usize;
                    let ln_p = (lf[s] - lf[k] - lf[s - k]) + (lf[f] - lf[d - k] - lf[f - (d - k)])
                        - ln_denom;
                    pmath::exp(ln_p)
                })
                .collect()
        };
        for (total, successes, draws, seed, ctx) in [
            (34u64, 17u64, 17u64, 80u64, "crossover boundary"),
            (1_000, 500, 100, 81, "mid-size"),
            (2_048, 1_024, 1_024, 82, "popcount cap, d = s"),
            (1_000_000, 500_000, 500, 83, "large population"),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let trials = 100_000usize;
            let pmf = if total <= LOG_FACTORIAL_TABLE_MAX {
                table_pmf(total, successes, draws)
            } else {
                hypergeometric_pmf(total, successes, draws)
            };
            let lo = draws.saturating_sub(total - successes);
            let mut observed = vec![0.0f64; pmf.len()];
            for _ in 0..trials {
                let k = hypergeometric(&mut rng, total, successes, draws);
                observed[(k - lo) as usize] += 1.0;
            }
            assert_chi_square_gof(&observed, &pmf, trials, ctx);
        }
    }

    #[test]
    fn halfpop_agrees_with_hrua_on_shared_parameters() {
        // The same exact-half distribution drawn through both leaves (the
        // planner picks HALF_POP; calling the HRUA kernel directly bypasses
        // it): identical law, two independent implementations.
        let (total, successes, draws) = (1_000u64, 500u64, 100u64);
        let mut rng = StdRng::seed_from_u64(84);
        let trials = 200_000usize;
        let pmf = hypergeometric_pmf(total, successes, draws);
        let mut observed = vec![0.0f64; pmf.len()];
        for _ in 0..trials {
            let k = hrua_draw(&mut rng, total, successes, draws);
            observed[k as usize] += 1.0;
        }
        assert_chi_square_gof(&observed, &pmf, trials, "hrua on halfpop params");
    }

    #[test]
    fn ln_factorial_extension_agrees_with_the_stirling_kernel() {
        // The lazy extension must continue level 1 seamlessly and stay
        // within rounding of the Stirling kernel it replaces (Stirling's
        // own truncation error at these arguments is ≤ ~1e-13 relative).
        for k in [
            LOG_FACTORIAL_TABLE_MAX,     // last level-1 entry
            LOG_FACTORIAL_TABLE_MAX + 1, // first extension entry
            LOG_FACTORIAL_TABLE_MAX + (LF_CHUNK as u64),
            LOG_FACTORIAL_TABLE_MAX + (LF_CHUNK as u64) + 1, // chunk boundary
            100_000,
            1_000_000,
            LOG_FACTORIAL_EXT_MAX,     // last extension entry
            LOG_FACTORIAL_EXT_MAX + 1, // first Stirling argument
        ] {
            let got = ln_factorial(k);
            let stirling = pmath::ln_gamma(k as f64 + 1.0);
            let rel = ((got - stirling) / stirling).abs();
            assert!(rel < 1e-12, "k={k}: table {got} vs Stirling {stirling}");
        }
        // Adjacent entries across the level-1/extension seam and across a
        // chunk seam must differ by exactly ln(k) up to rounding.
        for k in [
            LOG_FACTORIAL_TABLE_MAX + 1,
            LOG_FACTORIAL_TABLE_MAX + (LF_CHUNK as u64) + 1,
            LOG_FACTORIAL_EXT_MAX,
        ] {
            let step = ln_factorial(k) - ln_factorial(k - 1);
            let expect = pmath::ln(k as f64);
            assert!(
                (step - expect).abs() < 1e-8,
                "seam at k={k}: step {step} vs ln(k) {expect}"
            );
        }
    }

    #[test]
    fn multivariate_hypergeometric_partitions_draws() {
        let mut rng = StdRng::seed_from_u64(7);
        let sizes = [50u64, 0, 30, 20];
        let mut out = [0u64; 4];
        for _ in 0..500 {
            multivariate_hypergeometric(&mut rng, &sizes, 60, &mut out);
            assert_eq!(out.iter().sum::<u64>(), 60);
            for (o, s) in out.iter().zip(&sizes) {
                assert!(o <= s);
            }
        }
    }

    /// Pearson chi-square statistic of observed counts against expected
    /// counts (same total); bins with expected < 5 are pooled into the last
    /// bin by the callers.
    fn chi_square(observed: &[f64], expected: &[f64]) -> f64 {
        observed
            .iter()
            .zip(expected)
            .filter(|(_, &e)| e > 0.0)
            .map(|(&o, &e)| (o - e) * (o - e) / e)
            .sum()
    }

    /// Exact hypergeometric pmf over the full support, by direct recurrence
    /// from k = lo (independent of the sampler's mode-centered code path).
    fn hypergeometric_pmf(total: u64, successes: u64, draws: u64) -> Vec<f64> {
        let f = total - successes;
        let lo = draws.saturating_sub(f);
        let hi = draws.min(successes);
        // ln pmf(lo) via lgamma-free product, then the up-recurrence.
        let mut ln_p = 0.0f64;
        // pmf(lo) = C(s,lo) C(f,d−lo) / C(t,d); build it as a product of
        // d ratios to stay in range.
        let mut num_s = successes;
        let mut num_f = f;
        let mut den = total;
        for i in 0..draws {
            if i < lo {
                ln_p += (num_s as f64 / den as f64).ln();
                num_s -= 1;
            } else {
                ln_p += (num_f as f64 / den as f64).ln();
                num_f -= 1;
            }
            den -= 1;
        }
        // That built P(first lo draws marked, rest unmarked); multiply by
        // C(d, lo) orderings.
        for i in 0..lo {
            ln_p += ((draws - i) as f64 / (i + 1) as f64).ln();
        }
        let mut pmf = vec![0.0; (hi - lo + 1) as usize];
        let mut p = ln_p.exp();
        pmf[0] = p;
        for (i, k) in (lo..hi).enumerate() {
            let (kf, sf, ff, df) = (k as f64, successes as f64, f as f64, draws as f64);
            p *= (sf - kf) * (df - kf) / ((kf + 1.0) * (ff + kf + 1.0 - df));
            pmf[i + 1] = p;
        }
        pmf
    }

    /// Exact binomial pmf over `0..=n` by the up-recurrence from k = 0.
    /// Callers keep `n·|ln(1-p)|` well inside f64 range so pmf(0) does not
    /// underflow to zero.
    fn binomial_pmf(n: u64, p: f64) -> Vec<f64> {
        let q = 1.0 - p;
        let mut pmf = vec![0.0f64; n as usize + 1];
        let mut val = (n as f64 * q.ln()).exp();
        pmf[0] = val;
        for k in 0..n {
            let kf = k as f64;
            val *= (n as f64 - kf) / (kf + 1.0) * (p / q);
            pmf[k as usize + 1] = val;
        }
        pmf
    }

    /// Chi-square goodness-of-fit assertion: pools bins with expected
    /// count < 5 into one tail bin and checks the Pearson statistic against
    /// the ≈99.99-percentile of chi-square(df), `df + 4·√(2df) + 8`.
    fn assert_chi_square_gof(observed: &[f64], pmf: &[f64], trials: usize, ctx: &str) {
        let expected: Vec<f64> = pmf.iter().map(|p| p * trials as f64).collect();
        let keep: Vec<usize> = (0..pmf.len()).filter(|&i| expected[i] >= 5.0).collect();
        let mut obs: Vec<f64> = keep.iter().map(|&i| observed[i]).collect();
        let mut exp: Vec<f64> = keep.iter().map(|&i| expected[i]).collect();
        let tail_e: f64 = expected.iter().sum::<f64>() - exp.iter().sum::<f64>();
        let tail_o: f64 = observed.iter().sum::<f64>() - obs.iter().sum::<f64>();
        obs.push(tail_o);
        exp.push(tail_e.max(1e-9));
        let stat = chi_square(&obs, &exp);
        let df = (obs.len() - 1) as f64;
        let critical = df + 4.0 * (2.0 * df).sqrt() + 8.0;
        assert!(
            stat < critical,
            "{ctx}: chi-square {stat} ≥ {critical} (df {df})"
        );
    }

    #[test]
    fn inversion_oracle_matches_exact_pmf() {
        // The mode-centered inversion walk is planner-dead since the
        // retune, but it survives (test builds only) as an independent
        // exact sampler; pin it against the analytic pmf on the same
        // parameters the HRUA oracle test below uses.
        let mut rng = StdRng::seed_from_u64(40);
        let (total, successes, draws) = (500u64, 200u64, 80u64);
        let (mode, ln_pmf) = inv_mode_and_ln_pmf(total, successes, draws);
        let pmf_mode = pmath::exp(ln_pmf);
        let trials = 200_000usize;
        let pmf = hypergeometric_pmf(total, successes, draws);
        let mut observed = vec![0.0f64; pmf.len()];
        for _ in 0..trials {
            let u: f64 = rng.gen_range(0.0..1.0);
            let k = inv_walk(u, total, successes, draws, mode, pmf_mode);
            observed[k as usize] += 1.0;
        }
        assert_chi_square_gof(&observed, &pmf, trials, "inversion oracle");
    }

    #[test]
    fn hrua_hypergeometric_matches_exact_pmf() {
        // HRUA across its regimes, checked against the analytic pmf:
        // inside the log-factorial table, just beyond it, and a
        // large-population regime whose log-factorials all hit the
        // Stirling kernel.
        for (total, successes, draws, seed, ctx) in [
            (8_000u64, 500u64, 4_000u64, 60u64, "inside the table"),
            (10_000, 3_000, 200, 61, "total-forced"),
            (1_000_000, 400_000, 300, 62, "large population"),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let trials = 100_000usize;
            let pmf = hypergeometric_pmf(total, successes, draws);
            let lo = draws.saturating_sub(total - successes);
            let mut observed = vec![0.0f64; pmf.len()];
            for _ in 0..trials {
                let k = hypergeometric(&mut rng, total, successes, draws);
                observed[(k - lo) as usize] += 1.0;
            }
            assert_chi_square_gof(&observed, &pmf, trials, ctx);
        }
    }

    #[test]
    fn hrua_agrees_with_the_inversion_oracle_on_shared_parameters() {
        // The rejection kernel on the narrow-spread parameters the
        // inversion oracle is pinned on above: both implementations must
        // sample the same analytic law — the walk stays in the test build
        // precisely to oracle-check the rejection samplers like this.
        let (total, successes, draws) = (500u64, 200u64, 80u64);
        let mut rng = StdRng::seed_from_u64(63);
        let trials = 200_000usize;
        let pmf = hypergeometric_pmf(total, successes, draws);
        let mut observed = vec![0.0f64; pmf.len()];
        for _ in 0..trials {
            let k = hrua_draw(&mut rng, total, successes, draws);
            observed[k as usize] += 1.0;
        }
        assert_chi_square_gof(&observed, &pmf, trials, "hrua vs inversion params");
    }

    #[test]
    fn btrs_binomial_matches_exact_pmf() {
        // n·p ≥ BTRS_MIN_MEAN forces the BTRS leaf: small, medium, and
        // small-p/huge-n regimes against the analytic pmf.
        for (n, p, seed, ctx) in [
            (200u64, 0.45f64, 50u64, "small n"),
            (1_000, 0.4, 51, "medium n"),
            (500_000, 0.001, 52, "huge n, tiny p"),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let trials = 100_000usize;
            let pmf = binomial_pmf(n, p);
            let mut observed = vec![0.0f64; pmf.len()];
            for _ in 0..trials {
                observed[binomial(&mut rng, n, p) as usize] += 1.0;
            }
            assert_chi_square_gof(&observed, &pmf, trials, ctx);
        }
    }

    #[test]
    fn btrs_agrees_with_the_cdf_walk_oracle_on_shared_parameters() {
        // Mean 12 sits just above the BTRS validity floor (n·p ≥ 10);
        // calling the rejection kernel directly pins the kernel itself —
        // not the planner — against the analytic pmf, at parameters the
        // CDF walk covers identically below the crossover.
        let (n, p) = (40u64, 0.3f64);
        let mut rng = StdRng::seed_from_u64(53);
        let trials = 200_000usize;
        let pmf = binomial_pmf(n, p);
        let mut observed = vec![0.0f64; pmf.len()];
        for _ in 0..trials {
            observed[btrs_walk(&mut rng, n, p) as usize] += 1.0;
        }
        assert_chi_square_gof(&observed, &pmf, trials, "btrs vs cdf-walk params");
    }

    #[test]
    fn cdf_walk_matches_exact_pmf() {
        // Mean 9 < BTRS_MIN_MEAN routes the planner to the CDF walk;
        // check the whole sampled distribution, not just moments.
        let (n, p) = (10_000u64, 0.0009f64);
        let mut rng = StdRng::seed_from_u64(58);
        let trials = 200_000usize;
        // Exact pmf by the ratio recurrence, truncated at k = 40 where the
        // remaining tail mass (mean 9) is far below one expected count.
        let exact: Vec<f64> = {
            let q = 1.0 - p;
            let mut v = vec![0.0f64; 41];
            let mut cur = pmath::exp(n as f64 * pmath::ln(q));
            for (k, slot) in v.iter_mut().enumerate() {
                *slot = cur;
                let k = k as u64;
                cur *= ((n - k) as f64 / (k + 1) as f64) * (p / q);
            }
            v
        };
        let mut observed = vec![0.0f64; exact.len()];
        for _ in 0..trials {
            let k = binomial(&mut rng, n, p) as usize;
            observed[k.min(exact.len() - 1)] += 1.0;
        }
        assert_chi_square_gof(&observed, &exact, trials, "cdf walk");
    }

    #[test]
    fn popcount_binomial_matches_exact_pmf() {
        // p = ½, n ≤ POPCOUNT_MAX_N routes to the popcount leaf; check it
        // against the analytic pmf both below and at the word boundary.
        for (n, seed, ctx) in [
            (100u64, 56u64, "partial word"),
            (1_024, 57, "full words at the cap"),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let trials = 100_000usize;
            let pmf = binomial_pmf(n, 0.5);
            let mut observed = vec![0.0f64; pmf.len()];
            for _ in 0..trials {
                observed[binomial(&mut rng, n, 0.5) as usize] += 1.0;
            }
            assert_chi_square_gof(&observed, &pmf, trials, ctx);
        }
    }

    #[test]
    fn popcount_binomial_consumes_exactly_one_word_per_64_bits() {
        // The popcount leaf's stream contract: exactly ⌈n/64⌉ raw words,
        // no uniforms.  Verified by drawing a known value right after and
        // comparing with a manually advanced twin RNG.
        for n in [1u64, 63, 64, 65, 500, 1_024] {
            assert!(
                matches!(plan_binomial(n, 0.5), DrawPlan::Pop { .. }),
                "n = {n} must route to the popcount leaf"
            );
            let mut rng = StdRng::seed_from_u64(900 + n);
            let mut twin = StdRng::seed_from_u64(900 + n);
            let _ = binomial(&mut rng, n, 0.5);
            for _ in 0..n.div_ceil(64) {
                let _ = twin.next_u64();
            }
            assert_eq!(
                rng.next_u64(),
                twin.next_u64(),
                "stream position after popcount draw, n = {n}"
            );
        }
        // One past the cap falls back to BTRS rejection.
        assert!(matches!(plan_binomial(1_025, 0.5), DrawPlan::Btrs { .. }));
    }

    #[test]
    fn alias_table_uniform_is_uniform() {
        let table = AliasTable::uniform(7);
        assert_eq!(table.len(), 7);
        assert!(!table.is_empty());
        let mut rng = StdRng::seed_from_u64(54);
        let trials = 140_000usize;
        let mut observed = vec![0.0f64; 7];
        for _ in 0..trials {
            observed[table.sample(&mut rng)] += 1.0;
        }
        let pmf = vec![1.0 / 7.0; 7];
        assert_chi_square_gof(&observed, &pmf, trials, "uniform alias");
    }

    #[test]
    fn alias_table_matches_arbitrary_weights() {
        let weights = [0.5f64, 2.5, 3.0, 1.0, 0.0, 3.0];
        let total: f64 = weights.iter().sum();
        let table = AliasTable::new(&weights);
        let mut rng = StdRng::seed_from_u64(55);
        let trials = 200_000usize;
        let mut observed = vec![0.0f64; weights.len()];
        for _ in 0..trials {
            observed[table.sample(&mut rng)] += 1.0;
        }
        assert_eq!(observed[4], 0.0, "zero-weight outcome sampled");
        let pmf: Vec<f64> = weights.iter().map(|w| w / total).collect();
        assert_chi_square_gof(&observed, &pmf, trials, "weighted alias");
    }

    #[test]
    fn split_candidates_partitions_m_in_both_regimes() {
        let table = AliasTable::uniform(3);
        let mut rng = StdRng::seed_from_u64(56);
        let mut out = [0u64; 3];
        // m = 16 is the last alias-regime size for c = 3; m = 17 the first
        // chain-regime size; 10_000 is deep in the chain regime.
        for m in [0u64, 1, 16, 17, 10_000] {
            for _ in 0..200 {
                split_candidates_uniform(&mut rng, m, &table, &mut out);
                assert_eq!(out.iter().sum::<u64>(), m, "m = {m}");
            }
        }
    }

    #[test]
    fn split_candidates_marginals_match_binomial_in_both_regimes() {
        // The marginal of any single candidate in a symmetric multinomial
        // split of m over c candidates is Binomial(m, 1/c) — exactly, in
        // both the alias and the chain regime.
        let c = 3usize;
        let table = AliasTable::uniform(c);
        for (m, seed, ctx) in [(16u64, 57u64, "alias regime"), (17, 58, "chain regime")] {
            let mut rng = StdRng::seed_from_u64(seed);
            let trials = 100_000usize;
            let pmf = binomial_pmf(m, 1.0 / c as f64);
            let mut observed = vec![vec![0.0f64; pmf.len()]; c];
            let mut out = [0u64; 3];
            for _ in 0..trials {
                split_candidates_uniform(&mut rng, m, &table, &mut out);
                for (i, &share) in out.iter().enumerate() {
                    observed[i][share as usize] += 1.0;
                }
            }
            for (i, obs) in observed.iter().enumerate() {
                assert_chi_square_gof(obs, &pmf, trials, &format!("{ctx}, candidate {i}"));
            }
        }
    }

    #[test]
    fn split_candidates_two_candidates_use_the_popcount_chain() {
        // c = 2 always takes the chain: a single Binomial(m, ½), which the
        // planner resolves as one popcount word for m ≤ 64.  This is the
        // hottest split in practice (every 2-way nondeterministic pair).
        let table = AliasTable::uniform(2);
        let m = 40u64;
        let mut rng = StdRng::seed_from_u64(60);
        let trials = 100_000usize;
        let pmf = binomial_pmf(m, 0.5);
        let mut observed = vec![vec![0.0f64; pmf.len()]; 2];
        let mut out = [0u64; 2];
        for _ in 0..trials {
            split_candidates_uniform(&mut rng, m, &table, &mut out);
            assert_eq!(out[0] + out[1], m);
            for (i, &share) in out.iter().enumerate() {
                observed[i][share as usize] += 1.0;
            }
        }
        for (i, obs) in observed.iter().enumerate() {
            assert_chi_square_gof(obs, &pmf, trials, &format!("c = 2, candidate {i}"));
        }
        // Stream contract: exactly one raw word for the whole split.
        let mut a = StdRng::seed_from_u64(61);
        let mut b = StdRng::seed_from_u64(61);
        split_candidates_uniform(&mut a, m, &table, &mut out);
        let _ = b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64(), "one word per 2-way split");
    }

    #[test]
    fn split_candidates_consumes_no_rng_in_trivial_cases() {
        // m = 0 and c = 1 must leave the stream untouched — the engines
        // rely on this to keep scalar/lane streams aligned.
        let mut out = [0u64; 3];
        for (m, table) in [(0u64, AliasTable::uniform(3)), (99, AliasTable::uniform(1))] {
            let mut a = StdRng::seed_from_u64(59);
            let mut b = StdRng::seed_from_u64(59);
            split_candidates_uniform(&mut a, m, &table, &mut out);
            assert_eq!(a.next_u64(), b.next_u64(), "m = {m}");
        }
    }

    #[test]
    fn urn_and_hrua_agree_on_moments_at_the_crossover() {
        // Same distribution parameters sampled through both exact paths:
        // draws = 16 keeps the urn, draws = 17 switches to HRUA.
        let (total, successes) = (2000u64, 700u64);
        for draws in [16u64, 17] {
            let mut rng = StdRng::seed_from_u64(41 + draws);
            let samples: Vec<f64> = (0..40_000)
                .map(|_| hypergeometric(&mut rng, total, successes, draws) as f64)
                .collect();
            let (mean, var) = mean_and_var(&samples);
            let p = successes as f64 / total as f64;
            let expected_mean = draws as f64 * p;
            let expected_var =
                expected_mean * (1.0 - p) * (total - draws) as f64 / (total - 1) as f64;
            assert!(
                (mean - expected_mean).abs() < 0.15,
                "mean {mean} (d {draws})"
            );
            assert!(
                (var / expected_var - 1.0).abs() < 0.07,
                "var {var} (d {draws})"
            );
        }
    }

    /// Brute-force birthday collision time: uniform agent draws until the
    /// first repeat, by explicit marking.
    fn brute_force_birthday<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
        let mut seen = vec![false; n as usize];
        let mut t = 0u64;
        loop {
            let a = rng.gen_range(0..n) as usize;
            t += 1;
            if seen[a] {
                return t.clamp(2, n);
            }
            seen[a] = true;
        }
    }

    /// Two-sample chi-square of a sampler against the brute-force pair
    /// draw; returns (statistic, degrees of freedom).
    fn birthday_two_sample_chi_square(n: u64, exact: bool, trials: usize) -> (f64, f64) {
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(43);
        let sampler = BirthdaySampler::new(n, exact);
        let mut count_a = vec![0.0f64; n as usize + 1];
        let mut count_b = vec![0.0f64; n as usize + 1];
        for _ in 0..trials {
            count_a[sampler.draw(&mut rng_a) as usize] += 1.0;
            count_b[brute_force_birthday(&mut rng_b, n) as usize] += 1.0;
        }
        // Pool bins until each has ≥ 10 combined expected counts.
        let mut a_bins = Vec::new();
        let mut b_bins = Vec::new();
        let (mut acc_a, mut acc_b) = (0.0, 0.0);
        for i in 0..count_a.len() {
            acc_a += count_a[i];
            acc_b += count_b[i];
            if acc_a + acc_b >= 20.0 {
                a_bins.push(acc_a);
                b_bins.push(acc_b);
                acc_a = 0.0;
                acc_b = 0.0;
            }
        }
        if acc_a + acc_b > 0.0 {
            a_bins.push(acc_a);
            b_bins.push(acc_b);
        }
        // Two-sample statistic: Σ (a_i − b_i)² / (a_i + b_i), df = bins − 1.
        let stat: f64 = a_bins
            .iter()
            .zip(&b_bins)
            .filter(|(&a, &b)| a + b > 0.0)
            .map(|(&a, &b)| (a - b) * (a - b) / (a + b))
            .sum();
        (stat, (a_bins.len() - 1) as f64)
    }

    #[test]
    fn exact_birthday_sampler_matches_brute_force_at_small_n() {
        for n in [64u64, 256, 1024] {
            let (stat, df) = birthday_two_sample_chi_square(n, true, 100_000);
            let critical = df + 4.0 * (2.0 * df).sqrt() + 8.0;
            assert!(
                stat < critical,
                "n={n}: chi-square {stat} ≥ {critical} (df {df})"
            );
        }
    }

    #[test]
    fn approximate_birthday_sampler_is_biased_at_small_n() {
        // The Rayleigh inversion's O(1/√n) bias is gross at n = 64: the
        // same two-sample test that the exact sampler passes fails by a
        // wide margin, which is why BIRTHDAY_EXACT_MAX_POPULATION in
        // batched.rs keeps small populations on the exact path.
        let (stat, df) = birthday_two_sample_chi_square(64, false, 100_000);
        let critical = df + 4.0 * (2.0 * df).sqrt() + 8.0;
        assert!(
            stat > 10.0 * critical,
            "approximation unexpectedly close: {stat} vs {critical}"
        );
    }

    #[test]
    fn exact_and_approximate_birthday_consume_one_uniform() {
        // Stream alignment: both modes consume exactly one uniform per
        // draw, so engine-level RNG streams do not depend on the mode.
        for exact in [false, true] {
            let sampler = BirthdaySampler::new(50_000, exact);
            let mut a = StdRng::seed_from_u64(9);
            let mut b = StdRng::seed_from_u64(9);
            sampler.draw(&mut a);
            let _: f64 = b.gen_range(0.0..1.0);
            assert_eq!(a.next_u64(), b.next_u64(), "exact={exact}");
        }
    }

    #[test]
    fn lane_batched_birthday_matches_scalar_draws() {
        let mut scratch = LaneDrawScratch::default();
        for (n, exact) in [(4_096u64, true), (1_000_000, false)] {
            let sampler = BirthdaySampler::new(n, exact);
            let mut lane_rngs: Vec<StdRng> =
                (0..8).map(|i| StdRng::seed_from_u64(70 + i)).collect();
            let lanes: Vec<u32> = (0..8).collect();
            let mut out = [0u64; 8];
            sampler.draw_lanes(&mut lane_rngs, &lanes, &mut out, &mut scratch);
            for lane in 0..8u64 {
                let mut solo = StdRng::seed_from_u64(70 + lane);
                assert_eq!(
                    out[lane as usize],
                    sampler.draw(&mut solo),
                    "lane {lane} (n={n})"
                );
                assert_eq!(
                    lane_rngs[lane as usize].next_u64(),
                    solo.next_u64(),
                    "stream of lane {lane} (n={n})"
                );
            }
        }
    }

    #[test]
    fn exact_birthday_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(10);
        let n = 4096u64;
        let sampler = BirthdaySampler::new(n, true);
        let samples: Vec<f64> = (0..40_000).map(|_| sampler.draw(&mut rng) as f64).collect();
        let (mean, _) = mean_and_var(&samples);
        // E[T] ≈ √(π n / 2) + 2/3 for the exact distribution.
        let expected = (std::f64::consts::PI * n as f64 / 2.0).sqrt() + 2.0 / 3.0;
        assert!(
            (mean / expected - 1.0).abs() < 0.02,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn birthday_draws_scale_like_sqrt_n() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 1_000_000u64;
        let samples: Vec<f64> = (0..5_000)
            .map(|_| birthday_collision_draws(&mut rng, n) as f64)
            .collect();
        let (mean, _) = mean_and_var(&samples);
        // Rayleigh mean = √(π n / 2) ≈ 1253 for n = 10⁶.
        let expected = (std::f64::consts::PI * n as f64 / 2.0).sqrt();
        assert!(
            (mean / expected - 1.0).abs() < 0.05,
            "mean {mean} vs {expected}"
        );
    }
}
