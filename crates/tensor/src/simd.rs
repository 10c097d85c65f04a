//! Runtime-dispatched SIMD kernel backend with bit-identical,
//! lane-ordered reductions.
//!
//! Every training method in the workspace bottoms out in a handful of
//! `f32` kernels: the matrix products behind [`crate::conv`] — which
//! read the convolution's column matrix in place from a zero-padded
//! image through a [`ColumnMap`] instead of materializing it — and the
//! elementwise activation / optimizer sweeps in `rte-nn`. This module
//! multi-versions those kernels over instruction-set *arms* and picks one
//! at runtime:
//!
//! - **`Avx2`** — x86-64 AVX2 (+FMA availability is required for
//!   detection parity with common deployments, but fused contraction is
//!   deliberately **not** used; see below), 8-lane `f32` vectors,
//! - **`Scalar`** — a portable fallback that *emulates the same 8-lane
//!   schedule* so its results are bit-identical to the vector arm.
//!
//! The arm is chosen once per process from the `RTE_SIMD` environment
//! variable (`auto` | `avx2` | `scalar`, default `auto` =
//! best-available), and can be overridden programmatically with
//! [`set_global`] — the same shape as [`crate::parallel`]'s thread knob.
//! Every kernel also has a `*_with` variant taking an explicit
//! [`SimdBackend`] so tests and benches can pin arms without touching
//! process state.
//!
//! # Determinism contract: the 8-lane virtual SIMD machine
//!
//! The workspace guarantees bit-identical outputs across thread counts;
//! this module extends that guarantee across *instruction sets*. Every
//! arm implements the same **fixed 8-lane virtual-SIMD accumulation
//! order**:
//!
//! 1. **Elementwise maps** (`axpy`, `scale`, SGD/Adam steps, ReLU and
//!    sigmoid forward/backward) evaluate one fixed expression per
//!    element, built only from IEEE-exact operations (`+ - * / sqrt`,
//!    comparisons/selects). Vector lanes are independent, so any
//!    vector width reproduces the scalar expression bit for bit.
//!    **No FMA contraction is ever emitted** — a fused `a*b+c` rounds
//!    once where `mul`+`add` round twice, which would split the arms.
//! 2. **Matrix products** ([`matmul`], [`matmul_tn`],
//!    [`conv_forward_with`], [`conv_input_grad_with`]) vectorize over
//!    *output columns*: each output element accumulates its `k`
//!    products in strictly ascending `k` order on every arm (lanes are
//!    distinct outputs, never partial sums of one output). All arms are
//!    therefore bit-identical to the naive i-k-j reference kernel — and
//!    the conv kernels to that kernel over the materialized im2col
//!    matrix, because reading a column in place changes where an
//!    operand comes from, never the chain it joins.
//! 3. **Reductions** ([`sum`], [`matmul_nt_acc`]'s and
//!    [`conv_weight_grad_with`]'s dot products)
//!    accumulate into 8 virtual lanes — element `i` goes to lane
//!    `i % 8` in ascending `i` order — and the lanes are combined by
//!    the fixed tree [`reduce8`]: `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`
//!    evaluated as pairwise sums. The scalar arm maintains the 8 lanes
//!    in an array; the vector arm's tail elements reuse the *same
//!    scalar lane code*, so tails cannot diverge by construction.
//! 4. **Transcendentals** (the sigmoid's `exp`) never call libm:
//!    both arms evaluate one shared Cephes-style polynomial
//!    ([`exp_lane`]) with an identical operation sequence, so the
//!    vector arm is a pure 8-wide transcription of the scalar arm.
//!
//! `tests/simd_determinism.rs` pins the contract end to end: every
//! kernel bitwise across arms over randomized shapes, and a full FedProx
//! training run producing a bit-identical `MethodOutcome` per arm.
//!
//! # Safety
//!
//! The workspace denies `unsafe_code`; this module carries a scoped
//! allow because SIMD intrinsics are unsafe to call by design. The
//! invariant that makes every `unsafe` here sound is: **`Avx2` kernels
//! are only reachable through [`SimdBackend::Avx2`], and that variant is
//! only ever constructed after `is_x86_feature_detected!` confirmed
//! AVX2+FMA support** (or by a caller who explicitly forced it, which
//! [`SimdBackend::from_env`] refuses to do on unsupported CPUs).
#![allow(unsafe_code)]

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set arm used by the dispatched kernels.
///
/// All arms produce bit-identical results (see the module docs); the
/// choice only trades wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdBackend {
    /// Portable scalar arm emulating the 8-lane schedule.
    Scalar,
    /// x86-64 AVX2 arm (8-lane `f32`); constructed only after feature
    /// detection (or an explicit, checked override).
    Avx2,
}

impl SimdBackend {
    /// The best arm the running CPU supports.
    pub fn detect() -> SimdBackend {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        {
            if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
                return SimdBackend::Avx2;
            }
        }
        SimdBackend::Scalar
    }

    /// Resolves the `RTE_SIMD` environment variable: `scalar` and `avx2`
    /// force an arm; `auto`, empty or unset mean [`SimdBackend::detect`].
    ///
    /// # Panics
    ///
    /// Panics when `RTE_SIMD=avx2` is forced on a CPU without AVX2+FMA,
    /// and on any unrecognized value — an explicit request that cannot
    /// be honored must not silently degrade to a different arm, because
    /// the caller asked for a specific arm's wall-clock.
    pub fn from_env() -> SimdBackend {
        match crate::knobs::raw("RTE_SIMD") {
            Some(v) => Self::parse(&v),
            None => SimdBackend::detect(),
        }
    }

    /// [`SimdBackend::from_env`]'s parsing rule, factored out for tests.
    ///
    /// # Panics
    ///
    /// See [`SimdBackend::from_env`].
    pub fn parse(value: &str) -> SimdBackend {
        match value.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => SimdBackend::detect(),
            "scalar" => SimdBackend::Scalar,
            "avx2" => {
                assert!(
                    SimdBackend::detect() == SimdBackend::Avx2,
                    "RTE_SIMD=avx2 requested but this CPU does not support AVX2+FMA"
                );
                SimdBackend::Avx2
            }
            other => panic!(
                "RTE_SIMD={other:?} is not a valid SIMD arm; accepted values: \
                 auto (or unset/empty), scalar, avx2"
            ),
        }
    }

    /// Stable lowercase name (`"scalar"` / `"avx2"`), used by bench
    /// output and `BENCH_kernels.json`.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2 => "avx2",
        }
    }
}

impl fmt::Display for SimdBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Process-wide arm for kernels dispatched without an explicit
/// `*_with` argument. `0` = not yet resolved from `RTE_SIMD`.
static GLOBAL_BACKEND: AtomicU8 = AtomicU8::new(0);

const BACKEND_SCALAR: u8 = 1;
const BACKEND_AVX2: u8 = 2;

fn encode(backend: SimdBackend) -> u8 {
    match backend {
        SimdBackend::Scalar => BACKEND_SCALAR,
        SimdBackend::Avx2 => BACKEND_AVX2,
    }
}

/// Sets the process-wide [`SimdBackend`] used by all dispatched kernels.
///
/// Results are bit-identical for every arm; this knob only trades
/// wall-clock, exactly like [`crate::parallel::set_global`].
pub fn set_global(backend: SimdBackend) {
    GLOBAL_BACKEND.store(encode(backend), Ordering::Relaxed);
}

/// The current process-wide [`SimdBackend`], resolved from `RTE_SIMD`
/// (unset = auto-detect) on first use.
pub fn global() -> SimdBackend {
    match GLOBAL_BACKEND.load(Ordering::Relaxed) {
        BACKEND_SCALAR => SimdBackend::Scalar,
        BACKEND_AVX2 => SimdBackend::Avx2,
        _ => {
            let backend = SimdBackend::from_env();
            // Benign race: concurrent first readers resolve identically.
            GLOBAL_BACKEND.store(encode(backend), Ordering::Relaxed);
            backend
        }
    }
}

/// Number of virtual lanes every arm schedules around.
pub const LANES: usize = 8;

/// The fixed lane-combination tree shared by every reduction on every
/// arm: `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, evaluated pairwise.
///
/// This is exactly the shape of an AVX2 horizontal add performed as
/// `low128 + high128`, then two in-register shuffles — so the vector
/// arm can reduce in registers while the scalar arm reduces the array,
/// and both round identically.
#[inline]
pub fn reduce8(lanes: &[f32; LANES]) -> f32 {
    let s0 = lanes[0] + lanes[4];
    let s1 = lanes[1] + lanes[5];
    let s2 = lanes[2] + lanes[6];
    let s3 = lanes[3] + lanes[7];
    (s0 + s2) + (s1 + s3)
}

// ---------------------------------------------------------------------
// Shared per-lane expressions.
//
// Each scalar helper below is THE definition of one kernel's per-element
// arithmetic. The scalar arm loops them; the vector arm transcribes the
// identical operation sequence into 8-wide intrinsics and reuses the
// helper verbatim for non-multiple-of-8 tails.
// ---------------------------------------------------------------------

/// `min` with x86 `vminps` semantics: `if a < b { a } else { b }`
/// (returns `b` when `a` is NaN or both compare equal).
#[inline]
fn min_ps(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// `max` with x86 `vmaxps` semantics: `if a > b { a } else { b }`.
#[inline]
fn max_ps(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// Exponent clamp bounds: `exp` saturates to `+inf` above `EXP_HI` and
/// to the smallest normal below `EXP_LO`, keeping the `2^n` scale factor
/// constructible from exponent bits on every arm.
const EXP_HI: f32 = 88.722_84;
const EXP_LO: f32 = -87.336_55;
/// `log2(e)` for the range reduction `x = n·ln2 + r`.
const EXP_LOG2E: f32 = std::f32::consts::LOG2_E;
/// Cody–Waite split of `ln 2` (high part exactly representable).
const EXP_LN2_HI: f32 = 0.693_359_4;
/// Low-order correction of the `ln 2` split.
const EXP_LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5 · 2²³`: adding and subtracting rounds to the nearest integer
/// (ties to even) with plain `+`/`-`, identically on both arms.
const EXP_MAGIC: f32 = 12_582_912.0;
/// Cephes `expf` minimax polynomial, degree 5 → constant term.
const EXP_P0: f32 = 1.987_569_1e-4;
const EXP_P1: f32 = 1.398_2e-3;
const EXP_P2: f32 = 8.333_452e-3;
const EXP_P3: f32 = 4.166_579_6e-2;
const EXP_P4: f32 = 1.666_666_5e-1;
const EXP_P5: f32 = 5.000_000_3e-1;

/// Shared polynomial `expf`: Cephes-style range reduction
/// (`x = n·ln2 + r`, `|r| ≤ ln2/2`), a degree-5 minimax polynomial and
/// an exponent-bit `2^n` scale — every step an IEEE-exact op in a fixed
/// order, so the AVX2 transcription is bit-identical per lane.
///
/// Accuracy is ~2 ulp on the reduced range (ample for the sigmoid);
/// NaN inputs pass through unchanged; out-of-range inputs saturate to
/// `+inf` / the smallest normal instead of libm's gradual underflow.
#[inline]
pub fn exp_lane(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    let xc = max_ps(min_ps(x, EXP_HI), EXP_LO);
    let n = (xc * EXP_LOG2E + EXP_MAGIC) - EXP_MAGIC;
    let r = xc - n * EXP_LN2_HI;
    let r = r - n * EXP_LN2_LO;
    let mut y = EXP_P0;
    y = y * r + EXP_P1;
    y = y * r + EXP_P2;
    y = y * r + EXP_P3;
    y = y * r + EXP_P4;
    y = y * r + EXP_P5;
    let y = ((y * r) * r + r) + 1.0;
    let scale = f32::from_bits((((n as i32) + 127) << 23) as u32);
    y * scale
}

#[inline]
fn axpy_lane(alpha: f32, x: f32, y: f32) -> f32 {
    y + alpha * x
}

#[inline]
fn scale_lane(alpha: f32, x: f32) -> f32 {
    x * alpha
}

#[inline]
fn relu_lane(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

#[inline]
fn relu_backward_lane(dy: f32, x: f32) -> f32 {
    if x > 0.0 {
        dy
    } else {
        0.0
    }
}

#[inline]
fn sigmoid_lane(x: f32) -> f32 {
    1.0 / (1.0 + exp_lane(-x))
}

#[inline]
fn sigmoid_backward_lane(dy: f32, y: f32) -> f32 {
    (dy * y) * (1.0 - y)
}

#[inline]
fn sgd_lane(value: f32, grad: f32, lr: f32, wd: f32) -> f32 {
    let g = if wd != 0.0 { grad + wd * value } else { grad };
    value + (-lr) * g
}

/// Hyper-parameters of one fused Adam step (see [`adam_step`]); the
/// bias corrections are precomputed by the caller because they depend
/// on the step counter, not the parameter.
#[derive(Debug, Clone, Copy)]
pub struct AdamStep {
    /// First-moment decay (β₁).
    pub beta1: f32,
    /// Second-moment decay (β₂).
    pub beta2: f32,
    /// First-moment bias correction `1 - β₁ᵗ`.
    pub bias1: f32,
    /// Second-moment bias correction `1 - β₂ᵗ`.
    pub bias2: f32,
    /// Learning rate.
    pub lr: f32,
    /// Denominator fuzz (ε).
    pub eps: f32,
    /// L2 strength folded into the gradient (0 disables the term).
    pub weight_decay: f32,
}

/// One Adam lane: updates `(m, v)` in place and returns the new value.
#[inline]
fn adam_lane(value: f32, m: &mut f32, v: &mut f32, grad: f32, s: &AdamStep) -> f32 {
    let g = if s.weight_decay != 0.0 {
        grad + s.weight_decay * value
    } else {
        grad
    };
    let mi = s.beta1 * *m + (1.0 - s.beta1) * g;
    let vi = s.beta2 * *v + ((1.0 - s.beta2) * g) * g;
    *m = mi;
    *v = vi;
    let m_hat = mi / s.bias1;
    let v_hat = vi / s.bias2;
    value - (s.lr * m_hat) / (v_hat.sqrt() + s.eps)
}

// ---------------------------------------------------------------------
// Dispatched public kernels.
// ---------------------------------------------------------------------

macro_rules! dispatch {
    ($backend:expr, $scalar:expr, $avx2:expr) => {
        match $backend {
            SimdBackend::Scalar => $scalar,
            #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
            // SAFETY: `SimdBackend::Avx2` is only constructed after
            // `is_x86_feature_detected!("avx2") && ("fma")` succeeded
            // (detect / checked parse), so the target features the
            // callee was compiled for are present at runtime.
            SimdBackend::Avx2 => unsafe { $avx2 },
            // Unreachable in practice: `detect` never returns Avx2 off
            // x86 and `parse` refuses to construct it; tolerate a
            // hand-built value by degrading to the (bit-identical)
            // scalar arm rather than panicking.
            #[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
            SimdBackend::Avx2 => $scalar,
        }
    };
}

/// `out = A @ B` (`A` is `m×k`, `B` is `k×n`, row-major) on the
/// process-global arm. Per output element the `k` accumulation order is
/// strictly ascending on every arm — bit-identical to the naive i-k-j
/// reference kernel.
///
/// # Panics
///
/// Panics if any slice length is inconsistent with the dimensions.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    matmul_with(global(), a, b, m, k, n, out);
}

/// [`matmul`] with an explicit arm.
///
/// # Panics
///
/// Panics if any slice length is inconsistent with the dimensions.
pub fn matmul_with(
    backend: SimdBackend,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "matmul: lhs length");
    assert_eq!(b.len(), k * n, "matmul: rhs length");
    assert_eq!(out.len(), m * n, "matmul: out length");
    dispatch!(
        backend,
        scalar::matmul(a, b, m, k, n, out),
        avx2::gemm(a, &avx2::Dense { b, stride: n }, m, k, n, out, false)
    );
}

/// `out = Aᵀ @ B` (`A` stored `k×m`) on the process-global arm; same
/// ascending-`k` per-element order as [`matmul`].
///
/// # Panics
///
/// Panics if any slice length is inconsistent with the dimensions.
pub fn matmul_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    matmul_tn_with(global(), a, b, m, k, n, out);
}

/// [`matmul_tn`] with an explicit arm.
///
/// # Panics
///
/// Panics if any slice length is inconsistent with the dimensions.
pub fn matmul_tn_with(
    backend: SimdBackend,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), k * m, "matmul_tn: lhs length");
    assert_eq!(b.len(), k * n, "matmul_tn: rhs length");
    assert_eq!(out.len(), m * n, "matmul_tn: out length");
    dispatch!(
        backend,
        scalar::matmul_tn(a, b, m, k, n, out),
        avx2::gemm(a, &avx2::Dense { b, stride: n }, m, k, n, out, true)
    );
}

/// `out += A @ Bᵀ` (`A` is `m×k`, `B` is `n×k`) on the process-global
/// arm. Each output element is an 8-lane dot product over `k` reduced
/// with [`reduce8`] — the lane-ordered reduction of the module contract.
///
/// # Panics
///
/// Panics if any slice length is inconsistent with the dimensions.
pub fn matmul_nt_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    matmul_nt_acc_with(global(), a, b, m, k, n, out);
}

/// [`matmul_nt_acc`] with an explicit arm.
///
/// # Panics
///
/// Panics if any slice length is inconsistent with the dimensions.
pub fn matmul_nt_acc_with(
    backend: SimdBackend,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "matmul_nt_acc: lhs length");
    assert_eq!(b.len(), n * k, "matmul_nt_acc: rhs length");
    assert_eq!(out.len(), m * n, "matmul_nt_acc: out length");
    dispatch!(
        backend,
        scalar::matmul_nt_acc(a, b, m, k, n, out),
        avx2::matmul_nt_acc(a, &avx2::Dense { b, stride: k }, m, k, n, out)
    );
}

/// Index map of the *virtual* column matrix of a zero-padded image.
///
/// For a convolution over a `c × h × w` image, zero-padded by `padding`
/// on every side into a `c × hp × wp` buffer `xpad`, the im2col matrix
/// is `B[(ci,ki,kj)][(oi,oj)] = xpad[ci][oi·s+ki·d][oj·s+kj·d]`. Its
/// element offsets split into a per-row (tap) part and a per-column
/// (output position) part:
///
/// `B[t][j] = xpad[rows[t] + cols[j]]`
///
/// so the conv kernels ([`conv_forward_with`], [`conv_input_grad_with`],
/// [`conv_weight_grad_with`]) read — or, for the input gradient,
/// scatter into — the column matrix in place instead of materializing
/// its `c·kh·kw × oh·ow` floats. When every run of 8 output columns
/// (starting at a multiple of 8) lies in one output row at stride 1 —
/// as on FLNet's 16-wide maps — each run is one plain unaligned load;
/// otherwise the kernels gather every run lane by lane.
#[derive(Debug, Clone)]
pub struct ColumnMap {
    c: usize,
    h: usize,
    w: usize,
    padding: usize,
    hp: usize,
    wp: usize,
    /// `rows[t]`: offset of tap `t = (ci, ki, kj)` in the padded image.
    rows: Vec<usize>,
    /// `cols[j]`: offset of output position `j = (oi, oj)` from a tap's
    /// row offset (`u32` so a run of 8 is a gather index vector).
    cols: Vec<u32>,
    /// Every run of 8 columns starting at a multiple of 8 is contiguous.
    contiguous: bool,
}

impl ColumnMap {
    /// The map for a `kh × kw` convolution over a `c × h × w` image with
    /// the given stride, symmetric zero padding and dilation.
    ///
    /// # Panics
    ///
    /// Panics if a kernel extent, `stride` or `dilation` is zero, if the
    /// padded image is smaller than the dilated kernel, or if one padded
    /// channel plane does not fit a 31-bit gather index.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        padding: usize,
        dilation: usize,
    ) -> ColumnMap {
        assert!(
            kh > 0 && kw > 0 && stride > 0 && dilation > 0,
            "ColumnMap: zero kernel extent, stride or dilation"
        );
        let (hp, wp) = (h + 2 * padding, w + 2 * padding);
        let (eff_h, eff_w) = (dilation * (kh - 1) + 1, dilation * (kw - 1) + 1);
        assert!(
            hp >= eff_h && wp >= eff_w,
            "ColumnMap: padded {hp}×{wp} image smaller than the {eff_h}×{eff_w} kernel"
        );
        assert!(
            hp * wp <= i32::MAX as usize,
            "ColumnMap: padded plane too large"
        );
        let (oh, ow) = ((hp - eff_h) / stride + 1, (wp - eff_w) / stride + 1);
        let mut rows = Vec::with_capacity(c * kh * kw);
        for ci in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    rows.push(ci * hp * wp + ki * dilation * wp + kj * dilation);
                }
            }
        }
        let mut cols = Vec::with_capacity(oh * ow);
        for oi in 0..oh {
            for oj in 0..ow {
                cols.push((oi * stride * wp + oj * stride) as u32);
            }
        }
        // `cols` is strictly increasing, so a span of exactly 7 means the
        // eight offsets are consecutive.
        let contiguous = cols
            .chunks_exact(LANES)
            .all(|run| run[LANES - 1] - run[0] == (LANES - 1) as u32);
        ColumnMap {
            c,
            h,
            w,
            padding,
            hp,
            wp,
            rows,
            cols,
            contiguous,
        }
    }

    /// Rows of the column matrix: `c·kh·kw` kernel taps.
    pub fn taps(&self) -> usize {
        self.rows.len()
    }

    /// Columns of the column matrix: `oh·ow` output positions.
    pub fn positions(&self) -> usize {
        self.cols.len()
    }

    /// Length of one unpadded image, `c·h·w`.
    pub fn image_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Length of one padded image, `c·hp·wp`.
    pub fn padded_len(&self) -> usize {
        self.c * self.hp * self.wp
    }

    /// Writes the zero-padded copy of `img` (`c × h × w`) into `xpad`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the map.
    pub fn pad(&self, img: &[f32], xpad: &mut [f32]) {
        assert_eq!(img.len(), self.image_len(), "ColumnMap::pad: image length");
        assert_eq!(
            xpad.len(),
            self.padded_len(),
            "ColumnMap::pad: padded length"
        );
        if self.padding == 0 {
            xpad.copy_from_slice(img);
            return;
        }
        xpad.fill(0.0);
        for (ci, plane) in img.chunks_exact(self.h * self.w).enumerate() {
            for (i, src) in plane.chunks_exact(self.w).enumerate() {
                let at = ci * self.hp * self.wp + (i + self.padding) * self.wp + self.padding;
                xpad[at..at + self.w].copy_from_slice(src);
            }
        }
    }

    /// Copies the interior of the padded image `xpad` into `img`, the
    /// inverse of [`ColumnMap::pad`] (the border is dropped).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the map.
    pub fn crop(&self, xpad: &[f32], img: &mut [f32]) {
        assert_eq!(img.len(), self.image_len(), "ColumnMap::crop: image length");
        assert_eq!(
            xpad.len(),
            self.padded_len(),
            "ColumnMap::crop: padded length"
        );
        for (ci, plane) in img.chunks_exact_mut(self.h * self.w).enumerate() {
            for (i, dst) in plane.chunks_exact_mut(self.w).enumerate() {
                let at = ci * self.hp * self.wp + (i + self.padding) * self.wp + self.padding;
                dst.copy_from_slice(&xpad[at..at + self.w]);
            }
        }
    }

    /// Element `(t, j)` of the virtual column matrix of `xpad`.
    #[inline]
    fn at(&self, xpad: &[f32], t: usize, j: usize) -> f32 {
        xpad[self.rows[t] + self.cols[j] as usize]
    }

    /// Columns `j..j+8` of row `t` of the virtual column matrix of
    /// `xpad` (`j` a multiple of 8): a slice of `xpad` when the map's
    /// runs are contiguous, otherwise the run gathered into `buf`.
    #[inline]
    fn run<'a>(&self, xpad: &'a [f32], t: usize, j: usize, buf: &'a mut [f32; LANES]) -> &'a [f32] {
        let base = self.rows[t];
        if self.contiguous {
            let at = base + self.cols[j] as usize;
            &xpad[at..at + LANES]
        } else {
            for (b, &c) in buf.iter_mut().zip(self.cols[j..j + LANES].iter()) {
                *b = xpad[base + c as usize];
            }
            buf
        }
    }

    /// Copies row `t` of the virtual column matrix into `row`.
    fn gather_row(&self, xpad: &[f32], t: usize, row: &mut [f32]) {
        let full = row.len() / LANES * LANES;
        let mut buf = [0.0f32; LANES];
        for (j, dst) in (0..full).step_by(LANES).zip(row.chunks_exact_mut(LANES)) {
            dst.copy_from_slice(self.run(xpad, t, j, &mut buf));
        }
        for (j, dst) in row.iter_mut().enumerate().skip(full) {
            *dst = self.at(xpad, t, j);
        }
    }

    /// Adds `row` into the positions of row `t` of the virtual column
    /// matrix of `xpad` (one tap of the col2im scatter).
    fn scatter_add_row(&self, xpad: &mut [f32], t: usize, row: &[f32]) {
        let base = self.rows[t];
        let full = if self.contiguous {
            row.len() / LANES * LANES
        } else {
            0
        };
        for (j, src) in (0..full).step_by(LANES).zip(row.chunks_exact(LANES)) {
            let at = base + self.cols[j] as usize;
            for (d, &v) in xpad[at..at + LANES].iter_mut().zip(src.iter()) {
                *d += v;
            }
        }
        for (&v, &c) in row[full..].iter().zip(self.cols[full..].iter()) {
            xpad[base + c as usize] += v;
        }
    }

    /// Panics unless the operands of a conv kernel over this map fit:
    /// `w` is `m × taps`, `img` one padded image, `grid` `m × positions`.
    fn check(&self, what: &str, w: &[f32], img: &[f32], grid: &[f32], m: usize) {
        assert_eq!(w.len(), m * self.taps(), "{what}: weight length");
        assert_eq!(img.len(), self.padded_len(), "{what}: padded image length");
        assert_eq!(
            grid.len(),
            m * self.positions(),
            "{what}: output-grid length"
        );
    }
}

/// Convolution forward over a padded image: `out = W · B` where `W` is
/// `m × taps` (row-major, `m` output channels) and `B` the virtual
/// column matrix of `xpad` under `map`; `out` is `m × positions`.
///
/// Each output element accumulates its `taps` products in strictly
/// ascending tap order from `+0.0` — the [`matmul`] chain over the
/// materialized im2col matrix, so the result is bit-identical to
/// `im2col` followed by [`matmul`] on every arm.
///
/// # Panics
///
/// Panics if any slice length is inconsistent with `map` and `m`.
pub fn conv_forward_with(
    backend: SimdBackend,
    w: &[f32],
    xpad: &[f32],
    map: &ColumnMap,
    m: usize,
    out: &mut [f32],
) {
    map.check("conv_forward", w, xpad, out, m);
    dispatch!(
        backend,
        scalar::conv_forward(w, xpad, map, m, out),
        avx2::gemm(
            w,
            &avx2::Virtual::new(xpad, map),
            m,
            map.taps(),
            map.positions(),
            out,
            false
        )
    );
}

/// Convolution input gradient, fused with the col2im scatter: for each
/// tap `t` in ascending order, the row `(Wᵀ · dY)[t]` (an ascending
/// chain over the `m` output channels from `+0.0`) is added straight
/// into the positions of row `t` of the virtual column matrix of
/// `dxpad`. `W` is `m × taps`, `dy` is `m × positions`, and `dxpad` is
/// a padded image (the caller zeroes it and crops its interior).
///
/// Every interior pixel therefore receives exactly the terms, in
/// exactly the order, that [`matmul_tn`] followed by `col2im` adds;
/// terms that land in the border are the ones `col2im` skips.
///
/// # Panics
///
/// Panics if any slice length is inconsistent with `map` and `m`.
pub fn conv_input_grad_with(
    backend: SimdBackend,
    w: &[f32],
    dy: &[f32],
    map: &ColumnMap,
    m: usize,
    dxpad: &mut [f32],
) {
    map.check("conv_input_grad", w, dxpad, dy, m);
    dispatch!(
        backend,
        scalar::conv_input_grad(w, dy, map, m, dxpad),
        avx2::conv_input_grad(w, dy, map, m, dxpad)
    );
}

/// Convolution weight gradient over a padded image: `dw += dY · Bᵀ`
/// where `dy` is `m × positions`, `B` the virtual column matrix of
/// `xpad` under `map`, and `dw` is `m × taps`.
///
/// Each element is the 8-lane dot product of [`matmul_nt_acc`] (lane
/// `j % 8` over output positions, [`reduce8`] tree) added once into
/// `dw` — bit-identical to `im2col` followed by [`matmul_nt_acc`].
///
/// # Panics
///
/// Panics if any slice length is inconsistent with `map` and `m`.
pub fn conv_weight_grad_with(
    backend: SimdBackend,
    dy: &[f32],
    xpad: &[f32],
    map: &ColumnMap,
    m: usize,
    dw: &mut [f32],
) {
    map.check("conv_weight_grad", dw, xpad, dy, m);
    dispatch!(
        backend,
        scalar::conv_weight_grad(dy, xpad, map, m, dw),
        avx2::matmul_nt_acc(
            dy,
            &avx2::Virtual::new(xpad, map),
            m,
            map.positions(),
            map.taps(),
            dw
        )
    );
}

/// `y[i] += alpha * x[i]` (BLAS `axpy`) on the process-global arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    axpy_with(global(), alpha, x, y);
}

/// [`axpy`] with an explicit arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy_with(backend: SimdBackend, alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    dispatch!(backend, scalar::axpy(alpha, x, y), avx2::axpy(alpha, x, y));
}

/// `x[i] *= alpha` on the process-global arm.
pub fn scale(alpha: f32, x: &mut [f32]) {
    scale_with(global(), alpha, x);
}

/// [`scale`] with an explicit arm.
pub fn scale_with(backend: SimdBackend, alpha: f32, x: &mut [f32]) {
    dispatch!(backend, scalar::scale(alpha, x), avx2::scale(alpha, x));
}

/// Lane-ordered sum: element `i` accumulates into virtual lane `i % 8`
/// in ascending order, and the lanes reduce via [`reduce8`] — identical
/// on every arm (and deliberately different from a plain sequential
/// fold, which no arm could vectorize).
pub fn sum(x: &[f32]) -> f32 {
    sum_with(global(), x)
}

/// [`sum`] with an explicit arm.
pub fn sum_with(backend: SimdBackend, x: &[f32]) -> f32 {
    dispatch!(backend, scalar::sum(x), avx2::sum(x))
}

/// Fused SGD step `value -= lr * (grad + wd * value)` (no momentum) on
/// the process-global arm; the `wd` term is skipped exactly when
/// `wd == 0` so the expression matches the unfused axpy pair bit for bit.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sgd_step(value: &mut [f32], grad: &[f32], lr: f32, wd: f32) {
    sgd_step_with(global(), value, grad, lr, wd);
}

/// [`sgd_step`] with an explicit arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sgd_step_with(backend: SimdBackend, value: &mut [f32], grad: &[f32], lr: f32, wd: f32) {
    assert_eq!(value.len(), grad.len(), "sgd_step: length mismatch");
    dispatch!(
        backend,
        scalar::sgd_step(value, grad, lr, wd),
        avx2::sgd_step(value, grad, lr, wd)
    );
}

/// Fused Adam step on the process-global arm: updates the moment
/// buffers `m`/`v` in place and applies the bias-corrected update to
/// `value`. All ops are IEEE-exact (`sqrt`/`div` included), so the arms
/// agree bitwise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn adam_step(value: &mut [f32], m: &mut [f32], v: &mut [f32], grad: &[f32], step: &AdamStep) {
    adam_step_with(global(), value, m, v, grad, step);
}

/// [`adam_step`] with an explicit arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn adam_step_with(
    backend: SimdBackend,
    value: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    step: &AdamStep,
) {
    assert_eq!(value.len(), grad.len(), "adam_step: grad length mismatch");
    assert_eq!(value.len(), m.len(), "adam_step: m length mismatch");
    assert_eq!(value.len(), v.len(), "adam_step: v length mismatch");
    dispatch!(
        backend,
        scalar::adam_step(value, m, v, grad, step),
        avx2::adam_step(value, m, v, grad, step)
    );
}

/// In-place ReLU `x = if x > 0 { x } else { 0 }` on the process-global
/// arm (NaN maps to `+0.0` on every arm).
pub fn relu(x: &mut [f32]) {
    relu_with(global(), x);
}

/// [`relu`] with an explicit arm.
pub fn relu_with(backend: SimdBackend, x: &mut [f32]) {
    dispatch!(backend, scalar::relu(x), avx2::relu(x));
}

/// In-place ReLU backward: `dy[i] = if x[i] > 0 { dy[i] } else { 0 }`
/// on the process-global arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn relu_backward(dy: &mut [f32], x: &[f32]) {
    relu_backward_with(global(), dy, x);
}

/// [`relu_backward`] with an explicit arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn relu_backward_with(backend: SimdBackend, dy: &mut [f32], x: &[f32]) {
    assert_eq!(dy.len(), x.len(), "relu_backward: length mismatch");
    dispatch!(
        backend,
        scalar::relu_backward(dy, x),
        avx2::relu_backward(dy, x)
    );
}

/// In-place logistic sigmoid `x = 1 / (1 + exp(-x))` on the
/// process-global arm, built on the shared polynomial [`exp_lane`].
pub fn sigmoid(x: &mut [f32]) {
    sigmoid_with(global(), x);
}

/// [`sigmoid`] with an explicit arm.
pub fn sigmoid_with(backend: SimdBackend, x: &mut [f32]) {
    dispatch!(backend, scalar::sigmoid(x), avx2::sigmoid(x));
}

/// In-place sigmoid backward `dy[i] = dy[i] * y[i] * (1 - y[i])` (where
/// `y` is the cached forward output) on the process-global arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sigmoid_backward(dy: &mut [f32], y: &[f32]) {
    sigmoid_backward_with(global(), dy, y);
}

/// [`sigmoid_backward`] with an explicit arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sigmoid_backward_with(backend: SimdBackend, dy: &mut [f32], y: &[f32]) {
    assert_eq!(dy.len(), y.len(), "sigmoid_backward: length mismatch");
    dispatch!(
        backend,
        scalar::sigmoid_backward(dy, y),
        avx2::sigmoid_backward(dy, y)
    );
}

// ---------------------------------------------------------------------
// Scalar arm.
// ---------------------------------------------------------------------

/// The portable arm: loops the shared lane expressions and emulates the
/// 8-lane reduction schedule. Inner loops use `zip`/`chunks_exact`
/// slicing so the compiler drops the bounds checks and autovectorizes
/// the independent accumulation streams.
mod scalar {
    use super::*;

    /// Rows processed per register block of the blocked GEMM.
    const MR: usize = 4;

    /// k-panel depth: a `KC × n` panel of `B` stays cache-resident while
    /// every row block of the output sweeps it.
    const KC: usize = 128;

    /// Splits `rows` (length `MR * n`) into `MR` disjoint row slices.
    fn split_rows(rows: &mut [f32], n: usize) -> [&mut [f32]; MR] {
        let (r0, rest) = rows.split_at_mut(n);
        let (r1, rest) = rest.split_at_mut(n);
        let (r2, r3) = rest.split_at_mut(n);
        [r0, r1, r2, r3]
    }

    /// Adds `a? * b[j]` into four output rows with a single fused
    /// iterator chain (no bounds checks; four independent accumulation
    /// streams for the autovectorizer).
    #[inline]
    fn saxpy4(rows: [&mut [f32]; MR], coeffs: [f32; MR], b_row: &[f32]) {
        let [r0, r1, r2, r3] = rows;
        let [a0, a1, a2, a3] = coeffs;
        let inner = r2.iter_mut().zip(r3.iter_mut()).zip(b_row.iter());
        for ((o0, o1), ((o2, o3), &bv)) in r0.iter_mut().zip(r1.iter_mut()).zip(inner) {
            *o0 += a0 * bv;
            *o1 += a1 * bv;
            *o2 += a2 * bv;
            *o3 += a3 * bv;
        }
    }

    pub(super) fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        out.iter_mut().for_each(|x| *x = 0.0);
        let mut p0 = 0;
        while p0 < k {
            let p1 = (p0 + KC).min(k);
            let mut i = 0;
            while i + MR <= m {
                let rows = split_rows(&mut out[i * n..(i + MR) * n], n);
                let [r0, r1, r2, r3] = rows;
                for p in p0..p1 {
                    let coeffs = [
                        a[i * k + p],
                        a[(i + 1) * k + p],
                        a[(i + 2) * k + p],
                        a[(i + 3) * k + p],
                    ];
                    saxpy4(
                        [&mut r0[..], &mut r1[..], &mut r2[..], &mut r3[..]],
                        coeffs,
                        &b[p * n..(p + 1) * n],
                    );
                }
                i += MR;
            }
            for i in i..m {
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[i * n..(i + 1) * n];
                for p in p0..p1 {
                    let a_ip = a_row[p];
                    let b_row = &b[p * n..(p + 1) * n];
                    for (o, &b_pj) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += a_ip * b_pj;
                    }
                }
            }
            p0 = p1;
        }
    }

    pub(super) fn matmul_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        out.iter_mut().for_each(|x| *x = 0.0);
        let mut i = 0;
        while i + MR <= m {
            let [r0, r1, r2, r3] = split_rows(&mut out[i * n..(i + MR) * n], n);
            for p in 0..k {
                let ap = &a[p * m + i..p * m + i + MR];
                saxpy4(
                    [&mut r0[..], &mut r1[..], &mut r2[..], &mut r3[..]],
                    [ap[0], ap[1], ap[2], ap[3]],
                    &b[p * n..(p + 1) * n],
                );
            }
            i += MR;
        }
        if i < m {
            for p in 0..k {
                let b_row = &b[p * n..(p + 1) * n];
                for ii in i..m {
                    let a_pi = a[p * m + ii];
                    let out_row = &mut out[ii * n..(ii + 1) * n];
                    for (o, &b_pj) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += a_pi * b_pj;
                    }
                }
            }
        }
    }

    /// 8-lane dot product: lane `i % 8` accumulates element `i` in
    /// ascending order, reduced with [`reduce8`]. This is the tail code
    /// the AVX2 arm reuses verbatim, so it *is* the cross-arm spec.
    #[inline]
    pub(super) fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
        let mut lanes = [0.0f32; LANES];
        let blocks = a.len() / LANES;
        for (ca, cb) in a
            .chunks_exact(LANES)
            .zip(b.chunks_exact(LANES))
            .take(blocks)
        {
            for l in 0..LANES {
                lanes[l] += ca[l] * cb[l];
            }
        }
        let tail = blocks * LANES;
        dot_tail(&mut lanes, &a[tail..], &b[tail..]);
        reduce8(&lanes)
    }

    /// Adds a sub-8 tail into the lane accumulators (lane = offset).
    #[inline]
    pub(super) fn dot_tail(lanes: &mut [f32; LANES], a: &[f32], b: &[f32]) {
        for (l, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            lanes[l] += x * y;
        }
    }

    pub(super) fn matmul_nt_acc(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o += dot_lanes(a_row, &b[j * k..(j + 1) * k]);
            }
        }
    }

    /// [`matmul`] with the virtual `B`: each tap's column-matrix row is
    /// gathered into one row buffer, then swept into every output row
    /// (ascending taps, so each element's chain is the `matmul` chain).
    pub(super) fn conv_forward(
        w: &[f32],
        xpad: &[f32],
        map: &ColumnMap,
        m: usize,
        out: &mut [f32],
    ) {
        let (taps, n) = (map.taps(), map.positions());
        out.iter_mut().for_each(|x| *x = 0.0);
        let mut row = vec![0.0f32; n];
        for t in 0..taps {
            map.gather_row(xpad, t, &mut row);
            let mut i = 0;
            while i + MR <= m {
                let coeffs = [
                    w[i * taps + t],
                    w[(i + 1) * taps + t],
                    w[(i + 2) * taps + t],
                    w[(i + 3) * taps + t],
                ];
                saxpy4(split_rows(&mut out[i * n..(i + MR) * n], n), coeffs, &row);
                i += MR;
            }
            for i in i..m {
                let a = w[i * taps + t];
                for (o, &b) in out[i * n..(i + 1) * n].iter_mut().zip(row.iter()) {
                    *o += a * b;
                }
            }
        }
    }

    /// [`matmul_tn`] over blocks of `MR` taps (their rows share every
    /// load of `dY`), each finished row scattered into the padded
    /// gradient image in ascending tap order.
    pub(super) fn conv_input_grad(
        w: &[f32],
        dy: &[f32],
        map: &ColumnMap,
        m: usize,
        dxpad: &mut [f32],
    ) {
        let (taps, n) = (map.taps(), map.positions());
        let mut rows = vec![0.0f32; MR * n];
        let mut t = 0;
        while t < taps {
            let tw = MR.min(taps - t);
            let block = &mut rows[..tw * n];
            block.iter_mut().for_each(|x| *x = 0.0);
            for co in 0..m {
                let a = &w[co * taps + t..co * taps + t + tw];
                let d = &dy[co * n..(co + 1) * n];
                if tw == MR {
                    saxpy4(split_rows(block, n), [a[0], a[1], a[2], a[3]], d);
                } else {
                    for (row, &ai) in block.chunks_exact_mut(n).zip(a.iter()) {
                        for (o, &dv) in row.iter_mut().zip(d.iter()) {
                            *o += ai * dv;
                        }
                    }
                }
            }
            for (r, row) in block.chunks_exact(n).enumerate() {
                map.scatter_add_row(dxpad, t + r, row);
            }
            t += tw;
        }
    }

    /// [`matmul_nt_acc`] with the virtual `B`: each 8-column run of a
    /// tap row is read once (in place, or gathered) and feeds the lane
    /// accumulators of every output channel — the [`dot_lanes`] schedule
    /// per channel, then one `+=` into `dw`.
    pub(super) fn conv_weight_grad(
        dy: &[f32],
        xpad: &[f32],
        map: &ColumnMap,
        m: usize,
        dw: &mut [f32],
    ) {
        let (taps, n) = (map.taps(), map.positions());
        let full = n / LANES * LANES;
        let mut lanes = vec![[0.0f32; LANES]; m];
        let mut buf = [0.0f32; LANES];
        let mut tail = [0.0f32; LANES];
        for t in 0..taps {
            lanes.iter_mut().for_each(|l| *l = [0.0; LANES]);
            for j in (0..full).step_by(LANES) {
                let b = map.run(xpad, t, j, &mut buf);
                for (co, lanes_co) in lanes.iter_mut().enumerate() {
                    let a = &dy[co * n + j..co * n + j + LANES];
                    for l in 0..LANES {
                        lanes_co[l] += a[l] * b[l];
                    }
                }
            }
            for (q, slot) in tail[..n - full].iter_mut().enumerate() {
                *slot = map.at(xpad, t, full + q);
            }
            for (co, lanes_co) in lanes.iter_mut().enumerate() {
                dot_tail(
                    lanes_co,
                    &dy[co * n + full..(co + 1) * n],
                    &tail[..n - full],
                );
                dw[co * taps + t] += reduce8(lanes_co);
            }
        }
    }

    pub(super) fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        for (o, &xi) in y.iter_mut().zip(x.iter()) {
            *o = axpy_lane(alpha, xi, *o);
        }
    }

    pub(super) fn scale(alpha: f32, x: &mut [f32]) {
        for o in x.iter_mut() {
            *o = scale_lane(alpha, *o);
        }
    }

    /// Lane-ordered sum; see [`super::sum`] for the schedule.
    pub(super) fn sum(x: &[f32]) -> f32 {
        let mut lanes = [0.0f32; LANES];
        let blocks = x.len() / LANES;
        for chunk in x.chunks_exact(LANES).take(blocks) {
            for l in 0..LANES {
                lanes[l] += chunk[l];
            }
        }
        sum_tail(&mut lanes, &x[blocks * LANES..]);
        reduce8(&lanes)
    }

    /// Adds a sub-8 tail into the lane accumulators (lane = offset).
    #[inline]
    pub(super) fn sum_tail(lanes: &mut [f32; LANES], x: &[f32]) {
        for (l, &v) in x.iter().enumerate() {
            lanes[l] += v;
        }
    }

    pub(super) fn sgd_step(value: &mut [f32], grad: &[f32], lr: f32, wd: f32) {
        for (v, &g) in value.iter_mut().zip(grad.iter()) {
            *v = sgd_lane(*v, g, lr, wd);
        }
    }

    pub(super) fn adam_step(
        value: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        grad: &[f32],
        step: &AdamStep,
    ) {
        let inner = m.iter_mut().zip(v.iter_mut()).zip(grad.iter());
        for (p, ((mi, vi), &g)) in value.iter_mut().zip(inner) {
            *p = adam_lane(*p, mi, vi, g, step);
        }
    }

    pub(super) fn relu(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = relu_lane(*v);
        }
    }

    pub(super) fn relu_backward(dy: &mut [f32], x: &[f32]) {
        for (d, &xi) in dy.iter_mut().zip(x.iter()) {
            *d = relu_backward_lane(*d, xi);
        }
    }

    pub(super) fn sigmoid(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = sigmoid_lane(*v);
        }
    }

    pub(super) fn sigmoid_backward(dy: &mut [f32], y: &[f32]) {
        for (d, &yi) in dy.iter_mut().zip(y.iter()) {
            *d = sigmoid_backward_lane(*d, yi);
        }
    }
}

// ---------------------------------------------------------------------
// AVX2 arm.
// ---------------------------------------------------------------------

/// The x86 AVX2 arm: 8-wide transcriptions of the shared lane
/// expressions, a packed micro-kernel GEMM, and [`reduce8`]-ordered
/// reductions. Every function is `#[target_feature(enable = "avx2")]`;
/// callers reach them only through the [`dispatch!`] macro, whose
/// safety argument lives at the single `unsafe` site.
#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
mod avx2 {
    use super::*;
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    /// Rows per GEMM micro-tile.
    const MR: usize = 4;
    /// Columns per GEMM micro-tile (two 8-lane vectors).
    const NR: usize = 16;
    /// k-panel depth of the packed B panel (`KC × NR` blocks stream
    /// through L1 while a packed A panel is broadcast against them).
    const KC: usize = 256;

    std::thread_local! {
        /// Per-thread packing scratch (A panel, B panel), reused across
        /// GEMM calls so the hot conv loops do not allocate per call.
        /// Every slot of the used region is overwritten while packing,
        /// so stale contents are never read.
        static PACK_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> =
            const { RefCell::new((Vec::new(), Vec::new())) };
    }

    /// Below these cutoffs the unpacked [`gemm_direct`] kernel wins:
    /// with few output row-blocks there is not enough reuse to amortize
    /// packing a B panel, and a small `k×n` B already sits in cache.
    const PACK_MIN_M: usize = 32;
    /// See [`PACK_MIN_M`]: minimum `k·n` before packing pays.
    const PACK_MIN_KN: usize = 32 * 1024;

    /// A row-major operand read through an index map: element `(r, j)`
    /// lives at `data()[row(r) + col(j)]`. [`Dense`] is an ordinary
    /// matrix; [`Virtual`] is the column matrix of a padded image, read
    /// in place through its [`ColumnMap`].
    pub(super) trait Operand {
        /// The backing storage.
        fn data(&self) -> &[f32];
        /// Offset of row `r`.
        fn row(&self, r: usize) -> usize;
        /// Offset of column `j` from its row's offset.
        fn col(&self, j: usize) -> usize;
        /// Whether every run of 8 columns starting at a multiple of 8
        /// is contiguous in memory (one plain load).
        fn contiguous(&self) -> bool;
        /// Column offsets `j..j+8`, as gather indices.
        fn col_index(&self, j: usize) -> [i32; LANES];
        /// Element `(r, j)`.
        #[inline(always)]
        fn at(&self, r: usize, j: usize) -> f32 {
            self.data()[self.row(r) + self.col(j)]
        }
    }

    /// A plain row-major matrix with `stride` columns.
    pub(super) struct Dense<'a> {
        pub(super) b: &'a [f32],
        pub(super) stride: usize,
    }

    impl Operand for Dense<'_> {
        fn data(&self) -> &[f32] {
            self.b
        }
        #[inline(always)]
        fn row(&self, r: usize) -> usize {
            r * self.stride
        }
        #[inline(always)]
        fn col(&self, j: usize) -> usize {
            j
        }
        fn contiguous(&self) -> bool {
            true
        }
        fn col_index(&self, j: usize) -> [i32; LANES] {
            std::array::from_fn(|l| (j + l) as i32)
        }
    }

    /// The virtual column matrix of a padded image (`taps × positions`).
    pub(super) struct Virtual<'a> {
        x: &'a [f32],
        map: &'a ColumnMap,
    }

    impl<'a> Virtual<'a> {
        pub(super) fn new(x: &'a [f32], map: &'a ColumnMap) -> Self {
            assert_eq!(x.len(), map.padded_len(), "virtual columns: image length");
            Virtual { x, map }
        }
    }

    impl Operand for Virtual<'_> {
        fn data(&self) -> &[f32] {
            self.x
        }
        #[inline(always)]
        fn row(&self, r: usize) -> usize {
            self.map.rows[r]
        }
        #[inline(always)]
        fn col(&self, j: usize) -> usize {
            self.map.cols[j] as usize
        }
        fn contiguous(&self) -> bool {
            self.map.contiguous
        }
        fn col_index(&self, j: usize) -> [i32; LANES] {
            std::array::from_fn(|l| self.map.cols[j + l] as i32)
        }
    }

    /// `A` element `(i, p)` of the logical `m×k` operand, reading the
    /// transposed storage when `trans_a` is set.
    #[inline(always)]
    fn a_at(a: &[f32], m: usize, k: usize, trans_a: bool, i: usize, p: usize) -> f32 {
        if trans_a {
            a[p * m + i]
        } else {
            a[i * k + p]
        }
    }

    /// GEMM entry: `out = A @ B` (`trans_a == false`, `A` row-major
    /// `m×k`) or `out = Aᵀ @ B` (`trans_a == true`, `A` stored `k×m`),
    /// with `B` any `k×n` [`Operand`] — a dense matrix or the virtual
    /// column matrix of a padded image.
    ///
    /// Large problems pack B into `NR`-wide column panels and A into
    /// `MR`-wide row panels per `KC`-deep k-tile; the micro-kernel then
    /// runs eight independent 8-lane accumulators (an `MR×NR` register
    /// tile). Small problems (the table-scale conv shapes) skip packing
    /// entirely and run the same register tile straight over the
    /// operands. Per output element the `k` accumulation order is
    /// strictly ascending in **both** paths — the same order as the
    /// scalar arm and the naive reference, so the path choice is
    /// bit-neutral.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant), and
    /// every element `(p, j)` with `p < k`, `j < n` of `b` must lie
    /// inside `b.data()`.
    pub(super) unsafe fn gemm<B: Operand>(
        a: &[f32],
        b: &B,
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
        trans_a: bool,
    ) {
        out.iter_mut().for_each(|x| *x = 0.0);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        if m < PACK_MIN_M || k * n < PACK_MIN_KN {
            return if b.contiguous() {
                gemm_direct::<B, false>(a, b, m, k, n, out, trans_a)
            } else {
                gemm_direct::<B, true>(a, b, m, k, n, out, trans_a)
            };
        }
        let nb = n.div_ceil(NR);
        let mb = m.div_ceil(MR);
        let kc = KC.min(k);
        PACK_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let (a_pack, b_pack) = &mut *scratch;
            a_pack.resize(mb * MR * kc, 0.0);
            b_pack.resize(nb * NR * kc, 0.0);
            let mut p0 = 0;
            while p0 < k {
                let pc = (k - p0).min(KC);
                pack_b(b, n, p0, pc, nb, b_pack);
                pack_a(a, m, k, p0, pc, mb, trans_a, a_pack);
                for ib in 0..mb {
                    let i0 = ib * MR;
                    let iw = MR.min(m - i0);
                    let a_panel = &a_pack[ib * pc * MR..(ib + 1) * pc * MR];
                    for jb in 0..nb {
                        let j0 = jb * NR;
                        let jw = NR.min(n - j0);
                        let b_panel = &b_pack[jb * pc * NR..(jb + 1) * pc * NR];
                        // SAFETY: `gemm`'s contract — the dispatcher
                        // established AVX2 support before calling in.
                        unsafe { micro_kernel(a_panel, b_panel, pc, out, n, i0, iw, j0, jw) };
                    }
                }
                p0 += pc;
            }
        });
    }

    /// Packs `B[p0..p0+pc, :]` into `NR`-wide column panels
    /// (`[jb][p][0..NR]`, zero-padded past column `n`), copying each
    /// panel row as one slice when its columns are contiguous in
    /// memory and element by element otherwise.
    fn pack_b<B: Operand>(b: &B, n: usize, p0: usize, pc: usize, nb: usize, b_pack: &mut [f32]) {
        let data = b.data();
        for jb in 0..nb {
            let j0 = jb * NR;
            let jw = NR.min(n - j0);
            // Column offsets are strictly increasing, so a span of
            // exactly `jw - 1` means the run is contiguous.
            let run = b.col(j0 + jw - 1) - b.col(j0) == jw - 1;
            for p in 0..pc {
                let dst = &mut b_pack[(jb * pc + p) * NR..(jb * pc + p + 1) * NR];
                let base = b.row(p0 + p);
                if run {
                    let start = base + b.col(j0);
                    dst[..jw].copy_from_slice(&data[start..start + jw]);
                } else {
                    for (c, slot) in dst[..jw].iter_mut().enumerate() {
                        *slot = data[base + b.col(j0 + c)];
                    }
                }
                dst[jw..].iter_mut().for_each(|x| *x = 0.0);
            }
        }
    }

    /// Packs the k-tile of A into `MR`-wide row panels
    /// (`[ib][p][0..MR]`, zero-padded past row `m`), transposing on the
    /// fly for the `Aᵀ @ B` product.
    #[allow(clippy::too_many_arguments)]
    fn pack_a(
        a: &[f32],
        m: usize,
        k: usize,
        p0: usize,
        pc: usize,
        mb: usize,
        trans_a: bool,
        a_pack: &mut [f32],
    ) {
        for ib in 0..mb {
            let i0 = ib * MR;
            let iw = MR.min(m - i0);
            for p in 0..pc {
                let dst = &mut a_pack[(ib * pc + p) * MR..(ib * pc + p + 1) * MR];
                if trans_a {
                    let src = &a[(p0 + p) * m + i0..(p0 + p) * m + i0 + iw];
                    dst[..iw].copy_from_slice(src);
                } else {
                    for (r, slot) in dst[..iw].iter_mut().enumerate() {
                        *slot = a[(i0 + r) * k + p0 + p];
                    }
                }
                dst[iw..].iter_mut().for_each(|x| *x = 0.0);
            }
        }
    }

    /// The `MR×NR` register tile: eight 8-lane accumulators swept by one
    /// packed k-panel.
    ///
    /// The accumulators are *seeded from `out`* (the partial sums of the
    /// previous k-tiles) and stored back plainly, so each output
    /// element's addition chain over `k` continues uninterrupted across
    /// tiles — exactly the ascending-`k` chain of the scalar arm. A
    /// zero-seeded tile followed by `out += tile` would re-associate the
    /// chain and split the arms bitwise. Padded rows/columns accumulate
    /// on zeros and are discarded at the store.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant, upheld by
    /// [`gemm`]), and the panel/tile geometry must be the one `gemm`
    /// computes: `a_panel`/`b_panel` hold `pc` packed `MR`/`NR`-wide
    /// rows and `out` is the full `…×n` output with `i0 + iw <= m`,
    /// `j0 + jw <= n` — every 8-lane load/store below stays in bounds
    /// under exactly those inequalities.
    #[target_feature(enable = "avx2")]
    unsafe fn micro_kernel(
        a_panel: &[f32],
        b_panel: &[f32],
        pc: usize,
        out: &mut [f32],
        n: usize,
        i0: usize,
        iw: usize,
        j0: usize,
        jw: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        for (r, acc_r) in acc.iter_mut().enumerate().take(iw) {
            let row = &out[(i0 + r) * n..(i0 + r) * n + n];
            if jw == NR {
                let src = row.as_ptr().add(j0);
                acc_r[0] = _mm256_loadu_ps(src);
                acc_r[1] = _mm256_loadu_ps(src.add(8));
            } else {
                let mut tmp = [0.0f32; NR];
                tmp[..jw].copy_from_slice(&row[j0..j0 + jw]);
                acc_r[0] = _mm256_loadu_ps(tmp.as_ptr());
                acc_r[1] = _mm256_loadu_ps(tmp.as_ptr().add(8));
            }
        }
        let mut ap = a_panel.as_ptr();
        let mut bp = b_panel.as_ptr();
        for _ in 0..pc {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for r in 0..MR {
                let ar = _mm256_set1_ps(*ap.add(r));
                acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(ar, b0));
                acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(ar, b1));
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        for r in 0..iw {
            let row = &mut out[(i0 + r) * n..(i0 + r) * n + n];
            if jw == NR {
                let dst = row.as_mut_ptr().add(j0);
                _mm256_storeu_ps(dst, acc[r][0]);
                _mm256_storeu_ps(dst.add(8), acc[r][1]);
            } else {
                let mut tmp = [0.0f32; NR];
                _mm256_storeu_ps(tmp.as_mut_ptr(), acc[r][0]);
                _mm256_storeu_ps(tmp.as_mut_ptr().add(8), acc[r][1]);
                row[j0..j0 + jw].copy_from_slice(&tmp[..jw]);
            }
        }
    }

    /// Unpacked register-tile GEMM for small problems: the same `MR×NR`
    /// accumulator tile as [`micro_kernel`], fed by loads from the
    /// operands in place (`GATHER` selects gathers for an operand whose
    /// 8-column runs are not contiguous). A lone output row runs four
    /// independent column vectors instead, so the add latency of one
    /// chain hides behind the other three. Every output element still
    /// accumulates its `k` products in strictly ascending order (one
    /// uninterrupted chain — no k-tiling here), so this path is
    /// bit-identical to the packed path and the scalar arm.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant, upheld by
    /// [`gemm`]), and the operands must match the stated geometry (`a`
    /// is `m×k` or `k×m` per `trans_a`, `b` is `k×n` inside its data,
    /// `out` is `m×n`) — the loop bounds keep every load/store inside.
    #[target_feature(enable = "avx2")]
    unsafe fn gemm_direct<B: Operand, const GATHER: bool>(
        a: &[f32],
        b: &B,
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
        trans_a: bool,
    ) {
        let chain = |i: usize, j: usize| {
            let mut s = 0.0f32;
            for p in 0..k {
                s += a_at(a, m, k, trans_a, i, p) * b.at(p, j);
            }
            s
        };
        let mut i0 = 0;
        while i0 + MR <= m {
            let mut j0 = 0;
            while j0 + NR <= n {
                tile::<B, GATHER, MR, 2>(a, b, m, k, n, out, trans_a, i0, j0);
                j0 += NR;
            }
            while j0 + LANES <= n {
                tile::<B, GATHER, MR, 1>(a, b, m, k, n, out, trans_a, i0, j0);
                j0 += LANES;
            }
            for j in j0..n {
                for r in 0..MR {
                    out[(i0 + r) * n + j] = chain(i0 + r, j);
                }
            }
            i0 += MR;
        }
        for i in i0..m {
            let mut j0 = 0;
            while j0 + 4 * LANES <= n {
                tile::<B, GATHER, 1, 4>(a, b, m, k, n, out, trans_a, i, j0);
                j0 += 4 * LANES;
            }
            while j0 + LANES <= n {
                tile::<B, GATHER, 1, 1>(a, b, m, k, n, out, trans_a, i, j0);
                j0 += LANES;
            }
            for j in j0..n {
                out[i * n + j] = chain(i, j);
            }
        }
    }

    /// One `R × 8V` register tile of [`gemm_direct`]: output rows
    /// `i0..i0+R`, columns `j0..j0+8V`, each an ascending chain over `k`
    /// seeded at `+0.0`.
    ///
    /// # Safety
    ///
    /// As [`gemm_direct`], with `i0 + R <= m` and `j0 + 8V <= n`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn tile<B: Operand, const GATHER: bool, const R: usize, const V: usize>(
        a: &[f32],
        b: &B,
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
        trans_a: bool,
        i0: usize,
        j0: usize,
    ) {
        let mut offs = [0usize; V];
        let mut idx = [_mm256_setzero_si256(); V];
        for v in 0..V {
            if GATHER {
                idx[v] = _mm256_loadu_si256(b.col_index(j0 + v * LANES).as_ptr().cast());
            } else {
                offs[v] = b.col(j0 + v * LANES);
            }
        }
        // Row `i0 + r` of the logical `m×k` A starts at `a_rows[r]` and
        // advances by `a_step` per k (unchecked: `a` is `m×k` or `k×m`).
        let (a_rows, a_step): ([*const f32; R], usize) = if trans_a {
            (std::array::from_fn(|r| a.as_ptr().add(i0 + r)), m)
        } else {
            (std::array::from_fn(|r| a.as_ptr().add((i0 + r) * k)), 1)
        };
        let data = b.data().as_ptr();
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for p in 0..k {
            let row = data.add(b.row(p));
            let mut bv = [_mm256_setzero_ps(); V];
            for v in 0..V {
                bv[v] = if GATHER {
                    _mm256_i32gather_ps::<4>(row, idx[v])
                } else {
                    _mm256_loadu_ps(row.add(offs[v]))
                };
            }
            for (acc_r, &a_row) in acc.iter_mut().zip(a_rows.iter()) {
                let ar = _mm256_set1_ps(*a_row.add(p * a_step));
                for v in 0..V {
                    acc_r[v] = _mm256_add_ps(acc_r[v], _mm256_mul_ps(ar, bv[v]));
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            for (v, acc_rv) in acc_r.iter().enumerate() {
                _mm256_storeu_ps(out.as_mut_ptr().add((i0 + r) * n + j0 + v * LANES), *acc_rv);
            }
        }
    }

    /// Spills an 8-lane accumulator register to the lane array the
    /// scalar tail/reduction code operates on.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant); the
    /// store itself targets a local array of exactly [`LANES`] floats.
    #[target_feature(enable = "avx2")]
    unsafe fn spill(acc: __m256) -> [f32; LANES] {
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        lanes
    }

    /// `out += A @ Bᵀ` (`A` is `m×k` row-major, `B` is an `n×k`
    /// [`Operand`]): batched 8-lane dot products, four B rows per A-row
    /// load, with the shared scalar tail folded into the lane array
    /// before the fixed-order [`reduce8`] — bit-identical to the scalar
    /// arm.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant) and the
    /// operands must match the stated `m`/`k`/`n` geometry, which keeps
    /// every 8-lane load inside its row.
    pub(super) unsafe fn matmul_nt_acc<B: Operand>(
        a: &[f32],
        b: &B,
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        if b.contiguous() {
            nt_acc::<B, false>(a, b, m, k, n, out)
        } else {
            nt_acc::<B, true>(a, b, m, k, n, out)
        }
    }

    /// [`matmul_nt_acc`] with the load kind fixed: register blocks of two
    /// A rows × four B rows, so every B load feeds two dot products and
    /// every A load four.
    ///
    /// # Safety
    ///
    /// As [`matmul_nt_acc`].
    #[target_feature(enable = "avx2")]
    unsafe fn nt_acc<B: Operand, const GATHER: bool>(
        a: &[f32],
        b: &B,
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        let mut i = 0;
        while i + 2 <= m {
            nt_rows::<B, GATHER, 2>(a, b, k, n, i, out);
            i += 2;
        }
        if i < m {
            nt_rows::<B, GATHER, 1>(a, b, k, n, i, out);
        }
    }

    /// Output rows `i0..i0+MA` of [`nt_acc`].
    ///
    /// # Safety
    ///
    /// As [`matmul_nt_acc`], with `i0 + MA <= m`.
    #[target_feature(enable = "avx2")]
    unsafe fn nt_rows<B: Operand, const GATHER: bool, const MA: usize>(
        a: &[f32],
        b: &B,
        k: usize,
        n: usize,
        i0: usize,
        out: &mut [f32],
    ) {
        let a_rows: [&[f32]; MA] = std::array::from_fn(|r| &a[(i0 + r) * k..(i0 + r + 1) * k]);
        let mut j = 0;
        while j + 4 <= n {
            let d = dots::<B, GATHER, MA, 4>(a_rows, b, j);
            for (r, d_r) in d.iter().enumerate() {
                for (c, &v) in d_r.iter().enumerate() {
                    out[(i0 + r) * n + j + c] += v;
                }
            }
            j += 4;
        }
        for j in j..n {
            let d = dots::<B, GATHER, MA, 1>(a_rows, b, j);
            for (r, d_r) in d.iter().enumerate() {
                out[(i0 + r) * n + j] += d_r[0];
            }
        }
    }

    /// `MA × NB` 8-lane dot products of the `a_rows` with rows
    /// `j..j+NB` of `b` (vector body + shared scalar tail + [`reduce8`]).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant), every
    /// A row must have the same length `k`, and rows `j..j+NB` of `b`
    /// must hold `k` columns inside its data.
    #[target_feature(enable = "avx2")]
    unsafe fn dots<B: Operand, const GATHER: bool, const MA: usize, const NB: usize>(
        a_rows: [&[f32]; MA],
        b: &B,
        j: usize,
    ) -> [[f32; NB]; MA] {
        let k = a_rows[0].len();
        let kb = k / LANES * LANES;
        let data = b.data().as_ptr();
        let b_rows: [*const f32; NB] = std::array::from_fn(|c| data.add(b.row(j + c)));
        let mut acc = [[_mm256_setzero_ps(); NB]; MA];
        let mut p = 0;
        while p < kb {
            let (off, idx) = if GATHER {
                let idx = _mm256_loadu_si256(b.col_index(p).as_ptr().cast());
                (0, idx)
            } else {
                (b.col(p), _mm256_setzero_si256())
            };
            let av: [__m256; MA] =
                std::array::from_fn(|r| _mm256_loadu_ps(a_rows[r].as_ptr().add(p)));
            for (c, &row) in b_rows.iter().enumerate() {
                let bv = if GATHER {
                    _mm256_i32gather_ps::<4>(row, idx)
                } else {
                    _mm256_loadu_ps(row.add(off))
                };
                for r in 0..MA {
                    acc[r][c] = _mm256_add_ps(acc[r][c], _mm256_mul_ps(av[r], bv));
                }
            }
            p += LANES;
        }
        let mut tail = [[0.0f32; LANES]; NB];
        for (c, tail_c) in tail.iter_mut().enumerate() {
            for (q, slot) in tail_c[..k - kb].iter_mut().enumerate() {
                *slot = b.at(j + c, kb + q);
            }
        }
        let mut out = [[0.0f32; NB]; MA];
        for (r, out_r) in out.iter_mut().enumerate() {
            for (c, o) in out_r.iter_mut().enumerate() {
                let mut lanes = spill(acc[r][c]);
                scalar::dot_tail(&mut lanes, &a_rows[r][kb..], &tail[c][..k - kb]);
                *o = reduce8(&lanes);
            }
        }
        out
    }

    /// [`super::conv_input_grad_with`]: for each tap, register tiles of
    /// the `Wᵀ·dY` row (ascending chain over the `m` output channels
    /// from `+0.0`) added straight into the padded gradient image.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant) and the
    /// slices must match `map` and `m` (checked by the public entry).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv_input_grad(
        w: &[f32],
        dy: &[f32],
        map: &ColumnMap,
        m: usize,
        dxpad: &mut [f32],
    ) {
        let (taps, n) = (map.taps(), map.positions());
        for t in 0..taps {
            let mut j0 = 0;
            while j0 + 4 * LANES <= n {
                tap_tile::<4>(w, dy, map, m, t, j0, dxpad);
                j0 += 4 * LANES;
            }
            while j0 + LANES <= n {
                tap_tile::<1>(w, dy, map, m, t, j0, dxpad);
                j0 += LANES;
            }
            for j in j0..n {
                let mut s = 0.0f32;
                for co in 0..m {
                    s += w[co * taps + t] * dy[co * n + j];
                }
                dxpad[map.rows[t] + map.cols[j] as usize] += s;
            }
        }
    }

    /// Columns `j0..j0+8V` of tap `t`'s `Wᵀ·dY` row, added into the
    /// padded image: one load-add-store per contiguous run, or a spill
    /// and a lane-by-lane scatter.
    ///
    /// # Safety
    ///
    /// As [`conv_input_grad`], with `t < taps` and `j0 + 8V <= positions`.
    #[target_feature(enable = "avx2")]
    unsafe fn tap_tile<const V: usize>(
        w: &[f32],
        dy: &[f32],
        map: &ColumnMap,
        m: usize,
        t: usize,
        j0: usize,
        dxpad: &mut [f32],
    ) {
        let (taps, n) = (map.taps(), map.positions());
        let mut acc = [_mm256_setzero_ps(); V];
        // Column `t` of the `m × taps` weight matrix, read unchecked.
        let w_t = w.as_ptr().add(t);
        for co in 0..m {
            let a = _mm256_set1_ps(*w_t.add(co * taps));
            let row = dy.as_ptr().add(co * n + j0);
            for (v, acc_v) in acc.iter_mut().enumerate() {
                let d = _mm256_loadu_ps(row.add(v * LANES));
                *acc_v = _mm256_add_ps(*acc_v, _mm256_mul_ps(a, d));
            }
        }
        let base = map.rows[t];
        for (v, acc_v) in acc.iter().enumerate() {
            let j = j0 + v * LANES;
            if !map.contiguous {
                let lanes = spill(*acc_v);
                for (&x, &c) in lanes.iter().zip(map.cols[j..j + LANES].iter()) {
                    dxpad[base + c as usize] += x;
                }
            } else {
                let dst = dxpad.as_mut_ptr().add(base + map.cols[j] as usize);
                _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), *acc_v));
            }
        }
    }

    /// Lane-ordered sum: 8-lane strided partials, scalar tail folded
    /// into the lanes, then the fixed-order [`reduce8`] tree.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant); all
    /// loads are bounded by `x.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum(x: &[f32]) -> f32 {
        let kb = x.len() / LANES * LANES;
        let mut acc = _mm256_setzero_ps();
        let mut p = 0;
        while p < kb {
            acc = _mm256_add_ps(acc, _mm256_loadu_ps(x.as_ptr().add(p)));
            p += LANES;
        }
        let mut lanes = spill(acc);
        scalar::sum_tail(&mut lanes, &x[kb..]);
        reduce8(&lanes)
    }

    /// `y += alpha * x`, elementwise (no cross-lane reduction, so
    /// vectorization is trivially bit-neutral).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant) and `y`
    /// must be at least as long as `x` (loads/stores are bounded by
    /// `x.len()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let full = x.len() / LANES * LANES;
        let av = _mm256_set1_ps(alpha);
        let mut p = 0;
        while p < full {
            let xv = _mm256_loadu_ps(x.as_ptr().add(p));
            let yv = _mm256_loadu_ps(y.as_ptr().add(p));
            _mm256_storeu_ps(
                y.as_mut_ptr().add(p),
                _mm256_add_ps(yv, _mm256_mul_ps(av, xv)),
            );
            p += LANES;
        }
        for (o, &xi) in y[full..].iter_mut().zip(x[full..].iter()) {
            *o = axpy_lane(alpha, xi, *o);
        }
    }

    /// `x *= alpha`, elementwise.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant); all
    /// loads/stores are bounded by `x.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale(alpha: f32, x: &mut [f32]) {
        let full = x.len() / LANES * LANES;
        let av = _mm256_set1_ps(alpha);
        let mut p = 0;
        while p < full {
            let xv = _mm256_loadu_ps(x.as_ptr().add(p));
            _mm256_storeu_ps(x.as_mut_ptr().add(p), _mm256_mul_ps(xv, av));
            p += LANES;
        }
        for o in x[full..].iter_mut() {
            *o = scale_lane(alpha, *o);
        }
    }

    /// SGD update `value -= lr * (grad + wd * value)`, elementwise,
    /// op-for-op the scalar [`sgd_lane`] (weight decay folded first,
    /// separate mul/add — never contracted).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant) and
    /// `grad` must be at least as long as `value` (loads/stores are
    /// bounded by `value.len()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sgd_step(value: &mut [f32], grad: &[f32], lr: f32, wd: f32) {
        let full = value.len() / LANES * LANES;
        let neg_lr = _mm256_set1_ps(-lr);
        let wdv = _mm256_set1_ps(wd);
        let fold_wd = wd != 0.0;
        let mut p = 0;
        while p < full {
            let v = _mm256_loadu_ps(value.as_ptr().add(p));
            let mut g = _mm256_loadu_ps(grad.as_ptr().add(p));
            if fold_wd {
                g = _mm256_add_ps(g, _mm256_mul_ps(wdv, v));
            }
            _mm256_storeu_ps(
                value.as_mut_ptr().add(p),
                _mm256_add_ps(v, _mm256_mul_ps(neg_lr, g)),
            );
            p += LANES;
        }
        for (v, &g) in value[full..].iter_mut().zip(grad[full..].iter()) {
            *v = sgd_lane(*v, g, lr, wd);
        }
    }

    /// Adam update, elementwise, op-for-op the scalar [`adam_lane`]
    /// (same moment/bias-correction expression tree, separate mul/add —
    /// never contracted).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant) and
    /// `m`/`v`/`grad` must each be at least as long as `value`
    /// (loads/stores are bounded by `value.len()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn adam_step(
        value: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        grad: &[f32],
        s: &AdamStep,
    ) {
        let full = value.len() / LANES * LANES;
        let b1 = _mm256_set1_ps(s.beta1);
        let omb1 = _mm256_set1_ps(1.0 - s.beta1);
        let b2 = _mm256_set1_ps(s.beta2);
        let omb2 = _mm256_set1_ps(1.0 - s.beta2);
        let bias1 = _mm256_set1_ps(s.bias1);
        let bias2 = _mm256_set1_ps(s.bias2);
        let lr = _mm256_set1_ps(s.lr);
        let eps = _mm256_set1_ps(s.eps);
        let wd = _mm256_set1_ps(s.weight_decay);
        let fold_wd = s.weight_decay != 0.0;
        let mut p = 0;
        while p < full {
            let pv = _mm256_loadu_ps(value.as_ptr().add(p));
            let mut g = _mm256_loadu_ps(grad.as_ptr().add(p));
            if fold_wd {
                g = _mm256_add_ps(g, _mm256_mul_ps(wd, pv));
            }
            let mv = _mm256_loadu_ps(m.as_ptr().add(p));
            let vv = _mm256_loadu_ps(v.as_ptr().add(p));
            let mi = _mm256_add_ps(_mm256_mul_ps(b1, mv), _mm256_mul_ps(omb1, g));
            let vi = _mm256_add_ps(
                _mm256_mul_ps(b2, vv),
                _mm256_mul_ps(_mm256_mul_ps(omb2, g), g),
            );
            _mm256_storeu_ps(m.as_mut_ptr().add(p), mi);
            _mm256_storeu_ps(v.as_mut_ptr().add(p), vi);
            let m_hat = _mm256_div_ps(mi, bias1);
            let v_hat = _mm256_div_ps(vi, bias2);
            let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps);
            let upd = _mm256_div_ps(_mm256_mul_ps(lr, m_hat), denom);
            _mm256_storeu_ps(value.as_mut_ptr().add(p), _mm256_sub_ps(pv, upd));
            p += LANES;
        }
        let inner = m[full..].iter_mut().zip(v[full..].iter_mut());
        for ((pv, (mi, vi)), &g) in value[full..].iter_mut().zip(inner).zip(grad[full..].iter()) {
            *pv = adam_lane(*pv, mi, vi, g, s);
        }
    }

    /// In-place ReLU via a compare-and-mask (`max` would lose the
    /// scalar arm's `-0.0`/NaN semantics).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant); all
    /// loads/stores are bounded by `x.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn relu(x: &mut [f32]) {
        let full = x.len() / LANES * LANES;
        let zero = _mm256_setzero_ps();
        let mut p = 0;
        while p < full {
            let v = _mm256_loadu_ps(x.as_ptr().add(p));
            let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(v, zero);
            _mm256_storeu_ps(x.as_mut_ptr().add(p), _mm256_and_ps(mask, v));
            p += LANES;
        }
        for o in x[full..].iter_mut() {
            *o = relu_lane(*o);
        }
    }

    /// ReLU backward: zeroes `dy` lanes where the forward input was
    /// not strictly positive, via the same compare-and-mask as [`relu`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant) and `dy`
    /// must be at least as long as `x` (loads/stores are bounded by
    /// `x.len()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn relu_backward(dy: &mut [f32], x: &[f32]) {
        let full = x.len() / LANES * LANES;
        let zero = _mm256_setzero_ps();
        let mut p = 0;
        while p < full {
            let xv = _mm256_loadu_ps(x.as_ptr().add(p));
            let dv = _mm256_loadu_ps(dy.as_ptr().add(p));
            let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(xv, zero);
            _mm256_storeu_ps(dy.as_mut_ptr().add(p), _mm256_and_ps(mask, dv));
            p += LANES;
        }
        for (d, &xi) in dy[full..].iter_mut().zip(x[full..].iter()) {
            *d = relu_backward_lane(*d, xi);
        }
    }

    /// 8-wide transcription of [`exp_lane`] — op for op, including the
    /// clamp semantics (`vminps`/`vmaxps`) and the magic-number round —
    /// with NaN lanes of the input blended back at the end.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant); the
    /// body is pure register arithmetic, no memory access.
    #[target_feature(enable = "avx2")]
    unsafe fn exp_ps(x: __m256) -> __m256 {
        let xc = _mm256_max_ps(
            _mm256_min_ps(x, _mm256_set1_ps(EXP_HI)),
            _mm256_set1_ps(EXP_LO),
        );
        let magic = _mm256_set1_ps(EXP_MAGIC);
        let n = _mm256_sub_ps(
            _mm256_add_ps(_mm256_mul_ps(xc, _mm256_set1_ps(EXP_LOG2E)), magic),
            magic,
        );
        let r = _mm256_sub_ps(xc, _mm256_mul_ps(n, _mm256_set1_ps(EXP_LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(EXP_LN2_LO)));
        let mut y = _mm256_set1_ps(EXP_P0);
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P1));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P2));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P3));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P4));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P5));
        let y = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(y, r), r), r),
            _mm256_set1_ps(1.0),
        );
        let ni = _mm256_cvtps_epi32(n);
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            ni,
            _mm256_set1_epi32(127),
        )));
        let result = _mm256_mul_ps(y, scale);
        // NaN inputs pass through unchanged, as in the scalar arm.
        let nan_mask = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        _mm256_blendv_ps(result, x, nan_mask)
    }

    /// In-place sigmoid `1 / (1 + exp(-x))` over [`exp_ps`], matching
    /// the scalar [`sigmoid_lane`] op for op.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant); all
    /// loads/stores are bounded by `x.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sigmoid(x: &mut [f32]) {
        let full = x.len() / LANES * LANES;
        let one = _mm256_set1_ps(1.0);
        let sign = _mm256_set1_ps(-0.0);
        let mut p = 0;
        while p < full {
            let v = _mm256_loadu_ps(x.as_ptr().add(p));
            let e = exp_ps(_mm256_xor_ps(v, sign));
            _mm256_storeu_ps(
                x.as_mut_ptr().add(p),
                _mm256_div_ps(one, _mm256_add_ps(one, e)),
            );
            p += LANES;
        }
        for o in x[full..].iter_mut() {
            *o = sigmoid_lane(*o);
        }
    }

    /// Sigmoid backward `dy *= y * (1 - y)` from the forward output,
    /// elementwise, matching the scalar [`sigmoid_backward_lane`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant) and `dy`
    /// must be at least as long as `y` (loads/stores are bounded by
    /// `y.len()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sigmoid_backward(dy: &mut [f32], y: &[f32]) {
        let full = y.len() / LANES * LANES;
        let one = _mm256_set1_ps(1.0);
        let mut p = 0;
        while p < full {
            let dv = _mm256_loadu_ps(dy.as_ptr().add(p));
            let yv = _mm256_loadu_ps(y.as_ptr().add(p));
            let r = _mm256_mul_ps(_mm256_mul_ps(dv, yv), _mm256_sub_ps(one, yv));
            _mm256_storeu_ps(dy.as_mut_ptr().add(p), r);
            p += LANES;
        }
        for (d, &yi) in dy[full..].iter_mut().zip(y[full..].iter()) {
            *d = sigmoid_backward_lane(*d, yi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..len).map(|_| rng.normal()).collect()
    }

    fn arms() -> Vec<SimdBackend> {
        let mut arms = vec![SimdBackend::Scalar];
        if SimdBackend::detect() == SimdBackend::Avx2 {
            arms.push(SimdBackend::Avx2);
        }
        arms
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}[{i}]: {g} vs {w} (bits differ)"
            );
        }
    }

    #[test]
    fn parse_selects_arms() {
        assert_eq!(SimdBackend::parse("scalar"), SimdBackend::Scalar);
        assert_eq!(SimdBackend::parse(" SCALAR "), SimdBackend::Scalar);
        assert_eq!(SimdBackend::parse("auto"), SimdBackend::detect());
        assert_eq!(SimdBackend::parse(""), SimdBackend::detect());
        if SimdBackend::detect() == SimdBackend::Avx2 {
            assert_eq!(SimdBackend::parse("avx2"), SimdBackend::Avx2);
        }
        assert_eq!(SimdBackend::Scalar.to_string(), "scalar");
        assert_eq!(SimdBackend::Avx2.name(), "avx2");
    }

    #[test]
    #[should_panic(expected = "accepted values")]
    fn parse_rejects_unknown_arms_loudly() {
        let _ = SimdBackend::parse("typo");
    }

    #[test]
    fn reduce8_has_the_documented_tree() {
        // Values chosen so a different association order would round
        // differently: the documented tree must be reproduced literally.
        let lanes = [1e8f32, 1.0, -1e8, 2.0, 3.0, -4.0, 5.0, 6.0];
        let s0 = lanes[0] + lanes[4];
        let s1 = lanes[1] + lanes[5];
        let s2 = lanes[2] + lanes[6];
        let s3 = lanes[3] + lanes[7];
        let want = (s0 + s2) + (s1 + s3);
        assert_eq!(reduce8(&lanes).to_bits(), want.to_bits());
    }

    #[test]
    fn exp_lane_tracks_libm() {
        for i in -800..=800 {
            let x = i as f32 * 0.11;
            let got = exp_lane(x) as f64;
            let want = (x as f64).exp();
            let rel = if want == 0.0 {
                got.abs()
            } else {
                ((got - want) / want).abs()
            };
            // The clamp saturates to the smallest normal / inf at the
            // extremes; inside the clamp the poly stays within ~1e-6.
            if (EXP_LO..=EXP_HI).contains(&x) {
                assert!(rel < 1e-5, "exp({x}): {got} vs {want} (rel {rel})");
            }
        }
        assert_eq!(exp_lane(0.0), 1.0);
        assert!(exp_lane(f32::NAN).is_nan());
        assert_eq!(exp_lane(1000.0), f32::INFINITY);
        assert!(exp_lane(-1000.0) > 0.0, "deep negative saturates, not 0");
    }

    #[test]
    fn matmul_family_is_bitwise_identical_across_arms() {
        for (m, k, n) in [
            (0, 3, 2),
            (1, 0, 1),
            (1, 1, 1),
            (3, 5, 2),
            (4, 8, 16),
            (5, 9, 17),
            (7, 300, 33),
            (12, 17, 40),
            // Hits the packed-panel path (m ≥ 32, k·n ≥ 32768) with
            // row/column remainders and multiple k-tiles.
            (37, 300, 130),
            (40, 280, 128),
        ] {
            let a = rand_vec(m * k, 10 + (m * 31 + k * 7 + n) as u64);
            let b = rand_vec(k * n, 20 + (m + k * 13 + n * 3) as u64);
            let at = rand_vec(k * m, 30 + (m + k + n) as u64);
            let bt = rand_vec(n * k, 40 + (m * k + n) as u64);
            let mut want = vec![0.0f32; m * n];
            let mut want_tn = vec![0.0f32; m * n];
            let mut want_nt = rand_vec(m * n, 50);
            matmul_with(SimdBackend::Scalar, &a, &b, m, k, n, &mut want);
            matmul_tn_with(SimdBackend::Scalar, &at, &b, m, k, n, &mut want_tn);
            matmul_nt_acc_with(SimdBackend::Scalar, &a, &bt, m, k, n, &mut want_nt);
            for arm in arms() {
                let mut got = vec![0.0f32; m * n];
                matmul_with(arm, &a, &b, m, k, n, &mut got);
                assert_bits_eq(&got, &want, &format!("matmul[{arm}] {m}x{k}x{n}"));
                let mut got_tn = vec![0.0f32; m * n];
                matmul_tn_with(arm, &at, &b, m, k, n, &mut got_tn);
                assert_bits_eq(&got_tn, &want_tn, &format!("matmul_tn[{arm}] {m}x{k}x{n}"));
                let mut got_nt = rand_vec(m * n, 50);
                matmul_nt_acc_with(arm, &a, &bt, m, k, n, &mut got_nt);
                assert_bits_eq(
                    &got_nt,
                    &want_nt,
                    &format!("matmul_nt_acc[{arm}] {m}x{k}x{n}"),
                );
            }
        }
    }

    /// The conv kernels read the column matrix in place; materializing
    /// it and running the dense GEMM family must give the same bits on
    /// every arm — through the direct and the packed GEMM paths, with
    /// contiguous runs and with gathered ones.
    #[test]
    fn conv_kernels_match_the_materialized_column_matrix() {
        // (c, h, w, k, stride, padding, dilation, m)
        for (c, h, w, k, s, p, d, m) in [
            (
                2usize, 16usize, 16usize, 9usize, 1usize, 4usize, 1usize, 16usize,
            ),
            (16, 16, 16, 9, 1, 4, 1, 1),
            (3, 11, 13, 3, 1, 1, 1, 5),
            (2, 9, 12, 3, 2, 1, 2, 4),
            (1, 1, 1, 6, 1, 3, 1, 2),
            // Packed path: m ≥ 32 and taps·positions ≥ 32768.
            (4, 20, 20, 5, 1, 2, 1, 37),
            (4, 23, 21, 5, 1, 2, 1, 33),
            (8, 40, 40, 5, 2, 1, 1, 34),
        ] {
            let map = ColumnMap::new(c, h, w, k, k, s, p, d);
            let (taps, n) = (map.taps(), map.positions());
            let mut xpad = vec![0.0f32; map.padded_len()];
            map.pad(&rand_vec(map.image_len(), 7), &mut xpad);
            let mut col = vec![0.0f32; taps * n];
            for (t, row) in col.chunks_exact_mut(n).enumerate() {
                map.gather_row(&xpad, t, row);
            }
            let wt = rand_vec(m * taps, 8);
            let dy = rand_vec(m * n, 9);
            let tag = format!("c{c} {h}x{w} k{k} s{s} p{p} d{d} m{m}");

            let mut want = vec![0.0f32; m * n];
            matmul_with(SimdBackend::Scalar, &wt, &col, m, taps, n, &mut want);
            let mut dcol = vec![0.0f32; taps * n];
            matmul_tn_with(SimdBackend::Scalar, &wt, &dy, taps, m, n, &mut dcol);
            let mut want_dx = vec![0.0f32; map.padded_len()];
            for (t, row) in dcol.chunks_exact(n).enumerate() {
                map.scatter_add_row(&mut want_dx, t, row);
            }
            let mut want_dw = rand_vec(m * taps, 10);
            matmul_nt_acc_with(SimdBackend::Scalar, &dy, &col, m, n, taps, &mut want_dw);

            for arm in arms() {
                let mut got = vec![f32::NAN; m * n];
                conv_forward_with(arm, &wt, &xpad, &map, m, &mut got);
                assert_bits_eq(&got, &want, &format!("conv_forward[{arm}] {tag}"));
                let mut got_dx = vec![0.0f32; map.padded_len()];
                conv_input_grad_with(arm, &wt, &dy, &map, m, &mut got_dx);
                assert_bits_eq(&got_dx, &want_dx, &format!("conv_input_grad[{arm}] {tag}"));
                let mut got_dw = rand_vec(m * taps, 10);
                conv_weight_grad_with(arm, &dy, &xpad, &map, m, &mut got_dw);
                assert_bits_eq(&got_dw, &want_dw, &format!("conv_weight_grad[{arm}] {tag}"));
            }
        }
    }

    #[test]
    fn elementwise_ops_are_bitwise_identical_across_arms() {
        for len in [0usize, 1, 7, 8, 9, 64, 100, 1000] {
            let x = rand_vec(len, 100 + len as u64);
            let g = rand_vec(len, 200 + len as u64);
            for arm in arms() {
                let tag = format!("[{arm}] len {len}");

                let mut want = x.clone();
                super::scalar::axpy(0.37, &g, &mut want);
                let mut got = x.clone();
                axpy_with(arm, 0.37, &g, &mut got);
                assert_bits_eq(&got, &want, &format!("axpy {tag}"));

                let mut want = x.clone();
                super::scalar::scale(-1.3, &mut want);
                let mut got = x.clone();
                scale_with(arm, -1.3, &mut got);
                assert_bits_eq(&got, &want, &format!("scale {tag}"));

                let want = super::scalar::sum(&x);
                let got = sum_with(arm, &x);
                assert_eq!(got.to_bits(), want.to_bits(), "sum {tag}");

                for wd in [0.0f32, 1e-5] {
                    let mut want = x.clone();
                    super::scalar::sgd_step(&mut want, &g, 0.01, wd);
                    let mut got = x.clone();
                    sgd_step_with(arm, &mut got, &g, 0.01, wd);
                    assert_bits_eq(&got, &want, &format!("sgd(wd={wd}) {tag}"));
                }

                let step = AdamStep {
                    beta1: 0.9,
                    beta2: 0.999,
                    bias1: 0.1,
                    bias2: 0.001,
                    lr: 2e-4,
                    eps: 1e-8,
                    weight_decay: 1e-5,
                };
                let m0 = rand_vec(len, 300 + len as u64);
                let v0: Vec<f32> = rand_vec(len, 400 + len as u64)
                    .iter()
                    .map(|v| v.abs())
                    .collect();
                let (mut wp, mut wm, mut wv) = (x.clone(), m0.clone(), v0.clone());
                super::scalar::adam_step(&mut wp, &mut wm, &mut wv, &g, &step);
                let (mut gp, mut gm, mut gv) = (x.clone(), m0.clone(), v0.clone());
                adam_step_with(arm, &mut gp, &mut gm, &mut gv, &g, &step);
                assert_bits_eq(&gp, &wp, &format!("adam value {tag}"));
                assert_bits_eq(&gm, &wm, &format!("adam m {tag}"));
                assert_bits_eq(&gv, &wv, &format!("adam v {tag}"));

                let mut want = x.clone();
                super::scalar::relu(&mut want);
                let mut got = x.clone();
                relu_with(arm, &mut got);
                assert_bits_eq(&got, &want, &format!("relu {tag}"));

                let mut want = g.clone();
                super::scalar::relu_backward(&mut want, &x);
                let mut got = g.clone();
                relu_backward_with(arm, &mut got, &x);
                assert_bits_eq(&got, &want, &format!("relu_backward {tag}"));

                let mut want = x.clone();
                super::scalar::sigmoid(&mut want);
                let mut got = x.clone();
                sigmoid_with(arm, &mut got);
                assert_bits_eq(&got, &want, &format!("sigmoid {tag}"));

                let y = want;
                let mut want = g.clone();
                super::scalar::sigmoid_backward(&mut want, &y);
                let mut got = g.clone();
                sigmoid_backward_with(arm, &mut got, &y);
                assert_bits_eq(&got, &want, &format!("sigmoid_backward {tag}"));
            }
        }
    }

    #[test]
    fn special_values_are_preserved_across_arms() {
        let x = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            100.0,
        ];
        for arm in arms() {
            let mut relu_s = x;
            super::scalar::relu(&mut relu_s);
            let mut relu_a = x;
            relu_with(arm, &mut relu_a);
            assert_bits_eq(&relu_a, &relu_s, &format!("relu specials [{arm}]"));

            let mut sig_s = x;
            super::scalar::sigmoid(&mut sig_s);
            let mut sig_a = x;
            sigmoid_with(arm, &mut sig_a);
            assert_bits_eq(&sig_a, &sig_s, &format!("sigmoid specials [{arm}]"));
            assert!(sig_a[0].is_nan(), "sigmoid must propagate NaN");
            assert_eq!(sig_a[1], 1.0, "sigmoid(+inf) = 1");
            assert_eq!(sig_a[2], 0.0, "sigmoid(-inf) = 0");
            assert_eq!(sig_a[5], sigmoid_lane(1.0));
        }
    }

    #[test]
    fn matmul_keeps_nan_propagation() {
        // The zero-skip regression from PR 2 must hold on every arm.
        for arm in arms() {
            let a = [0.0f32, 1.0];
            let b = [f32::NAN, 2.0];
            let mut out = [0.0f32; 1];
            matmul_with(arm, &a, &b, 1, 2, 1, &mut out);
            assert!(out[0].is_nan(), "[{arm}] swallowed 0×NaN: {}", out[0]);
        }
    }

    #[test]
    fn global_round_trips() {
        let before = global();
        set_global(SimdBackend::Scalar);
        assert_eq!(global(), SimdBackend::Scalar);
        set_global(before);
        assert_eq!(global(), before);
    }
}
