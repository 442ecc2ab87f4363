//! Inference-backend kernels for the fused decode fast path.
//!
//! Training builds autograd [`crate::Graph`]s; inference does not need a
//! tape, only raw matrix kernels. This module isolates those kernels behind
//! the [`InferenceBackend`] trait so the KV-cached decode path in
//! `lcrec-core` can swap implementations without touching model code:
//!
//! * [`ReferenceBackend`] — the exact loops the autograd engine uses
//!   ([`crate::matmul_acc`] plus a dense row-vector product). This is the
//!   semantics anchor: every other backend must match it **bit for bit**.
//! * [`BlockedBackend`] — the same arithmetic in a 4 × 32 register-tiled
//!   microkernel: four rows of `a` share each streamed 32-column segment of
//!   `b`, and the 128 accumulators stay in registers across the whole `k`
//!   loop. Per output element the accumulation order is unchanged (`k`
//!   ascending, multiply then add), so results are bit-identical to the
//!   reference — the tiling only reorders *which elements* are computed
//!   when, never the floating-point operation sequence inside one element.
//!
//! Two kernels exist because the decode path has two accumulation
//! contracts (see `docs/PERFORMANCE.md`):
//!
//! * [`InferenceBackend::gemm_acc`] skips zero activations, exactly like
//!   [`crate::matmul_acc`] — the projection matmuls of the transformer
//!   block go through this and must match the training-path kernel bitwise.
//! * [`InferenceBackend::gemm_dense_acc`] never skips, exactly like the
//!   scalar dot product the tied LM head historically used — skipping a
//!   `0.0 * w` term would drop an addition of `-0.0`-signed zeros and can
//!   flip the sign bit of an all-zero accumulator, so the dense kernel
//!   keeps every term.
//!
//! The active backend is resolved once per process from `LCREC_BACKEND`
//! (`blocked` by default, `reference` to pin the anchor; documented in
//! `docs/ENVIRONMENT.md`). Since both backends are bit-identical the switch
//! can never change results — it exists so the benchmark suite and any
//! future (e.g. SIMD-intrinsic) backend can be A/B'd under one flag.

use std::sync::atomic::{AtomicU8, Ordering};

/// Raw matrix kernels behind the KV-cached inference fast path.
///
/// All matrices are row-major flat slices; `a` is `[m, k]`, `b` is
/// `[k, n]` and `out` is `[m, n]`. Implementations must accumulate each
/// output element over `k` in ascending order so that every backend is
/// bit-identical to [`ReferenceBackend`] (the property
/// `tests/decode.rs` pins on random shapes).
///
/// # Examples
///
/// ```
/// use lcrec_tensor::{active_backend, BlockedBackend, InferenceBackend, ReferenceBackend};
///
/// let a = [1.0f32, 2.0, 3.0, 4.0]; // [2, 2]
/// let b = [0.5f32, 0.0, 1.5, -1.0]; // [2, 2]
/// let mut blocked = [0.0f32; 4];
/// let mut reference = [0.0f32; 4];
/// BlockedBackend.gemm_acc(&a, &b, &mut blocked, 2, 2, 2);
/// ReferenceBackend.gemm_acc(&a, &b, &mut reference, 2, 2, 2);
/// assert_eq!(blocked, reference, "backends agree bit for bit");
/// assert!(!active_backend().name().is_empty());
/// ```
pub trait InferenceBackend: std::fmt::Debug + Sync {
    /// A short stable identifier (`"reference"`, `"blocked"`), used in
    /// bench reports and `LCREC_BACKEND`.
    fn name(&self) -> &'static str;

    /// `out += a @ b`, skipping zero elements of `a` — the exact contract
    /// of [`crate::matmul_acc`], which the transformer-block projections
    /// rely on for bit-identity with the training path.
    fn gemm_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// `out += a @ b` with **no** zero skipping — the exact contract of a
    /// scalar dot product per output element, which the tied LM head
    /// relies on for bit-identity with the per-token logit loop.
    fn gemm_dense_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);
}

/// The semantics anchor: plain row-major loops, identical to the kernels
/// the autograd engine records ([`crate::matmul_acc`] and a dense dot).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReferenceBackend;

impl InferenceBackend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn gemm_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        crate::matmul_acc(a, b, out, m, k, n);
    }

    fn gemm_dense_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k]; // lint: allow(panic, reason = "a.len() == m*k is debug-asserted and upheld by every caller's shape checks")
            let orow = &mut out[i * n..(i + 1) * n]; // lint: allow(panic, reason = "out.len() == m*n is debug-asserted and upheld by every caller's shape checks")
            for (kk, &av) in arow.iter().enumerate() {
                let brow = &b[kk * n..(kk + 1) * n]; // lint: allow(panic, reason = "b.len() == k*n is debug-asserted and kk < k from the arow loop")
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Register-tiled kernels: the output is computed in `MR × NR` (4 × 32)
/// tiles whose accumulators stay in registers while `k` streams past, one
/// `NR`-wide panel of `b` at a time shared by all `MR` rows of the tile.
/// Column panels are the outer loop, so one panel of `b` stays cache-hot
/// while every row tile passes over it. Inside one output element the
/// accumulation still runs over `k` in ascending order with a separate
/// multiply and add, and `gemm_acc` still skips per `(row, k)` — so the
/// result is bit-identical to [`ReferenceBackend`]: tiling reorders the
/// schedule across elements, never the operation sequence within one.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockedBackend;

/// Rows of `a` per register tile.
const MR: usize = 4;
/// Columns of `b` per register tile: with `MR` rows, 128 accumulators.
const NR: usize = 32;

impl BlockedBackend {
    fn gemm_tiled<const SKIP_ZERO: bool>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        let full = n / NR * NR;
        for j0 in (0..full).step_by(NR) {
            let mut i0 = 0;
            while i0 < m {
                let rows = (m - i0).min(MR);
                match rows {
                    4 => Self::tile::<4, SKIP_ZERO>(a, b, out, i0, j0, k, n),
                    3 => Self::tile::<3, SKIP_ZERO>(a, b, out, i0, j0, k, n),
                    2 => Self::tile::<2, SKIP_ZERO>(a, b, out, i0, j0, k, n),
                    _ => Self::tile::<1, SKIP_ZERO>(a, b, out, i0, j0, k, n),
                }
                i0 += rows;
            }
        }
        if full < n {
            Self::edge::<SKIP_ZERO>(a, b, out, m, k, n, full);
        }
    }

    /// `out[i0..i0 + R, j0..j0 + NR] += a[i0..i0 + R, ..] @ b[.., j0..j0 + NR]`
    /// with the tile's accumulators held in a local array the compiler keeps
    /// in vector registers.
    #[inline(always)]
    fn tile<const R: usize, const SKIP_ZERO: bool>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        i0: usize,
        j0: usize,
        k: usize,
        n: usize,
    ) {
        let mut acc = [[0.0f32; NR]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            let at = (i0 + r) * n + j0;
            row.copy_from_slice(&out[at..at + NR]); // lint: allow(panic, reason = "out.len() == m*n is debug-asserted, i0 + r < m and j0 + NR <= n")
        }
        let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * k..(i0 + r + 1) * k]); // lint: allow(panic, reason = "a.len() == m*k is debug-asserted and i0 + r < m")
        for kk in 0..k {
            let bseg = &b[kk * n + j0..kk * n + j0 + NR]; // lint: allow(panic, reason = "b.len() == k*n is debug-asserted, kk < k and j0 + NR <= n")
            for (accrow, arow) in acc.iter_mut().zip(arows) {
                let av = arow[kk]; // lint: allow(panic, reason = "every arow has k elements and kk < k")
                if SKIP_ZERO && av == 0.0 {
                    continue;
                }
                for (o, &bv) in accrow.iter_mut().zip(bseg) {
                    *o += av * bv;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            let at = (i0 + r) * n + j0;
            out[at..at + NR].copy_from_slice(row); // lint: allow(panic, reason = "out.len() == m*n is debug-asserted, i0 + r < m and j0 + NR <= n")
        }
    }

    /// The columns `j0..n` left over after the full `NR`-wide panels, row
    /// by row.
    fn edge<const SKIP_ZERO: bool>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        j0: usize,
    ) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k]; // lint: allow(panic, reason = "a.len() == m*k is debug-asserted and i < m")
            let orow = &mut out[i * n + j0..(i + 1) * n]; // lint: allow(panic, reason = "out.len() == m*n is debug-asserted and j0 <= n")
            for (kk, &av) in arow.iter().enumerate() {
                if SKIP_ZERO && av == 0.0 {
                    continue;
                }
                let bseg = &b[kk * n + j0..(kk + 1) * n]; // lint: allow(panic, reason = "b.len() == k*n is debug-asserted, kk < k and j0 <= n")
                for (o, &bv) in orow.iter_mut().zip(bseg) {
                    *o += av * bv;
                }
            }
        }
    }
}

impl InferenceBackend for BlockedBackend {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn gemm_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        BlockedBackend::gemm_tiled::<true>(a, b, out, m, k, n);
    }

    fn gemm_dense_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        BlockedBackend::gemm_tiled::<false>(a, b, out, m, k, n);
    }
}

static REFERENCE: ReferenceBackend = ReferenceBackend;
static BLOCKED: BlockedBackend = BlockedBackend;

/// 0 = undecided, 1 = reference, 2 = blocked.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Looks a backend up by its [`InferenceBackend::name`].
pub fn backend_by_name(name: &str) -> Option<&'static dyn InferenceBackend> {
    match name.trim() {
        "reference" | "ref" => Some(&REFERENCE),
        "blocked" => Some(&BLOCKED),
        _ => None,
    }
}

/// The process-wide inference backend, resolved once from `LCREC_BACKEND`
/// (`blocked` unless the variable names another backend; unknown values
/// keep the default). Both built-in backends are bit-identical, so the
/// switch can never change decode results — only their speed.
///
/// # Examples
///
/// ```
/// use lcrec_tensor::active_backend;
///
/// let backend = active_backend();
/// assert!(matches!(backend.name(), "reference" | "blocked"));
///
/// // The fused decode path drives the whole transformer step through
/// // the two kernels on this handle:
/// let (a, b, mut out) = ([2.0f32, -1.0], [3.0f32, 0.25], [0.0f32; 1]);
/// backend.gemm_dense_acc(&a, &b, &mut out, 1, 2, 1);
/// assert_eq!(out[0], 2.0 * 3.0 + -1.0 * 0.25);
/// ```
pub fn active_backend() -> &'static dyn InferenceBackend {
    match STATE.load(Ordering::Relaxed) {
        1 => &REFERENCE,
        2 => &BLOCKED,
        _ => {
            // The env string maps straight to a state code (mirroring
            // `backend_by_name`'s table) rather than via a method call on
            // the chosen `dyn` backend, which static panic analysis could
            // not type precisely.
            let code = match std::env::var("LCREC_BACKEND").ok().as_deref().map(str::trim) {
                Some("reference") | Some("ref") => 1,
                _ => 2,
            };
            STATE.store(code, Ordering::Relaxed);
            if code == 1 {
                &REFERENCE
            } else {
                &BLOCKED
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (xorshift; no external RNG here).
    fn fill(seed: &mut u64, out: &mut [f32], with_zeros: bool) {
        for v in out {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            let r = ((*seed >> 16) & 0xffff) as f32 / 65536.0 - 0.5;
            *v = if with_zeros && (*seed & 7) == 0 { 0.0 } else { r };
        }
    }

    /// Asserts both kernels of [`BlockedBackend`] equal the reference bit
    /// for bit on one `m × k × n` problem, starting from a non-zero `out`.
    fn assert_kernels_match(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        let init: Vec<f32> = (0..m * n).map(|i| (i % 5) as f32 * 0.25 - 0.5).collect();
        for dense in [false, true] {
            let (mut r, mut t) = (init.clone(), init.clone());
            if dense {
                ReferenceBackend.gemm_dense_acc(a, b, &mut r, m, k, n);
                BlockedBackend.gemm_dense_acc(a, b, &mut t, m, k, n);
            } else {
                ReferenceBackend.gemm_acc(a, b, &mut r, m, k, n);
                BlockedBackend.gemm_acc(a, b, &mut t, m, k, n);
            }
            for (x, y) in r.iter().zip(&t) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n} dense={dense}");
            }
        }
    }

    #[test]
    fn blocked_matches_reference_bit_for_bit() {
        let mut seed = 42u64;
        // Shapes around the 4 × 32 register tile (partial row tiles, column
        // edges, exact multiples) and the decode shapes (batch × dim,
        // dim × vocab).
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 16, 48),
            (8, 48, 96),
            (5, 48, 300),
            (2, 17, 129),
            (7, 64, 64),
            (4, 33, 31),
            (5, 40, 32),
            (75, 320, 33),
            (152, 64, 200),
            (3, 640, 640),
        ] {
            let mut a = vec![0.0f32; m * k];
            let mut b = vec![0.0f32; k * n];
            fill(&mut seed, &mut a, true);
            fill(&mut seed, &mut b, false);
            assert_kernels_match(&a, &b, m, k, n);
        }
    }

    #[test]
    fn signed_zeros_and_infinities_keep_each_kernels_contract() {
        // `gemm_acc` skips 0.0 and -0.0 activations, so an infinite weight
        // behind them never meets them; `gemm_dense_acc` multiplies them
        // and turns those terms into NaN. Both must match the reference.
        let (m, k, n) = (5usize, 6usize, 33usize);
        let specials = [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1.5, -2.0];
        let a: Vec<f32> = (0..m * k).map(|i| specials[(i * 7 + i / k) % specials.len()]).collect();
        let b: Vec<f32> = (0..k * n).map(|i| specials[(i * 5 + 1) % specials.len()]).collect();
        assert_kernels_match(&a, &b, m, k, n);
        let mut skip = vec![0.0f32; m * n];
        let mut dense = vec![0.0f32; m * n];
        BlockedBackend.gemm_acc(&a, &b, &mut skip, m, k, n);
        BlockedBackend.gemm_dense_acc(&a, &b, &mut dense, m, k, n);
        assert!(dense.iter().any(|v| v.is_nan()), "0 * inf terms poison the dense kernel");
        assert_ne!(
            skip.iter().filter(|v| v.is_nan()).count(),
            dense.iter().filter(|v| v.is_nan()).count(),
            "the zero skip must keep some 0 * inf terms out"
        );
        // A +0.0 activation into a -0.0 accumulator: the dense kernel adds
        // the `0.0 * w` term and the sum becomes +0.0; the skip keeps -0.0.
        let (a0, b0) = ([0.0f32; 2], [1.0f32, 1.0]);
        let (mut s0, mut d0) = ([-0.0f32; 1], [-0.0f32; 1]);
        BlockedBackend.gemm_acc(&a0, &b0, &mut s0, 1, 2, 1);
        BlockedBackend.gemm_dense_acc(&a0, &b0, &mut d0, 1, 2, 1);
        assert_eq!(s0[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(d0[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn dense_kernel_matches_scalar_dot_bit_for_bit() {
        // The LM head contract: one output element == the scalar loop.
        let mut seed = 7u64;
        let (m, k, n) = (3usize, 48usize, 130usize);
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        fill(&mut seed, &mut a, true);
        fill(&mut seed, &mut b, false);
        let mut out = vec![0.0f32; m * n];
        BlockedBackend.gemm_dense_acc(&a, &b, &mut out, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                assert_eq!(acc.to_bits(), out[i * n + j].to_bits());
            }
        }
    }

    #[test]
    fn lookup_and_active_backend() {
        assert_eq!(backend_by_name("reference").map(|b| b.name()), Some("reference"));
        assert_eq!(backend_by_name("ref").map(|b| b.name()), Some("reference"));
        assert_eq!(backend_by_name("blocked").map(|b| b.name()), Some("blocked"));
        assert!(backend_by_name("simd9000").is_none());
        let active = active_backend().name();
        assert!(active == "reference" || active == "blocked");
    }
}
