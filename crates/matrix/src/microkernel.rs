//! The register-blocked GEMM microkernels and their SIMD dispatch.
//!
//! The packed GEMM path (see [`crate::pack`] and
//! [`DenseTile::gemm_acc_packed`](crate::DenseTile::gemm_acc_packed))
//! bottoms out in a rank-`kc` update of a register-resident accumulator
//! block. Two block shapes exist:
//!
//! * the **`MR × NR` = 4×8 tile** (`Kernel::run`) — plain scalar Rust
//!   over a `[[f64; NR]; MR]` array, shaped so the autovectorizer lowers
//!   each accumulator row to SIMD lanes, compiled three times: a
//!   **generic** clone (`mul` + `add`, portable everywhere), an
//!   **AVX2+FMA** clone where [`f64::mul_add`] lowers to `vfmadd` on
//!   4-wide `ymm` lanes (8 `ymm` accumulators, enough independent chains
//!   to cover FMA latency on two ports), and an **AVX-512** clone of the
//!   same body;
//! * the **8×16 group** (`Kernel::run_wide`, AVX-512 only) — a 2×2 group
//!   of 4×8 tiles written with `std::arch::x86_64` intrinsics: 16 `zmm`
//!   accumulators, and per `k` step 2 B loads, 8 broadcasts and 16
//!   `vfmadd`. On AVX-512 the 4×8 tile is only 4 `zmm` chains, which
//!   leaves the kernel bound by FMA latency at one FMA per cycle; the group
//!   keeps both ports busy. It needs intrinsics because the autovectorizer
//!   does not keep 16 accumulators in registers (an 8×16 array body
//!   measured 4 GFLOP/s, an 8×8 one 21–23, against ~33 for the 4×8 tile).
//!
//! The AVX-512 macrokernel runs the 8×16 group wherever two A and two B
//! micro-panels remain and the 4×8 AVX-512 clone on the odd panel left
//! over; AVX2+FMA and generic run the 4×8 tile everywhere.
//!
//! Which clone runs is decided by CPUID detection, cached once per process
//! ([`simd_level`]) and resolved once per GEMM call (`Kernel::resolve`).
//! Every FMA clone computes each output lane the same way — `k`-ascending,
//! one single-rounding FMA per step from the accumulator's initial value —
//! so the AVX-512 and AVX2+FMA results are **bitwise equal** whatever block
//! shape computed a lane. The generic clone rounds the product and the sum
//! separately, so it may differ from the FMA clones in the last ulp — which
//! is why the packed path is conformance-checked against the reference
//! kernels with an epsilon bound, not bitwise (see the
//! `kernel-conformance` invariant in `cumulon check`).

use std::sync::atomic::{AtomicU8, Ordering};

/// Rows of the microkernel tile and of one packed A micro-panel.
///
/// With `NR = 8`, `MR = 4` gives the AVX2+FMA clone 8 independent 4-wide
/// `ymm` FMA chains — enough to cover FMA latency on two issue ports —
/// while fitting the whole accumulator tile plus one broadcast and two B
/// lanes in 16 `ymm` registers. On AVX-512 the same tile is only 4 `zmm`
/// chains, which is why that level computes 2×2 groups of tiles
/// ([`Kernel::run_wide`]) instead.
pub(crate) const MR: usize = 4;
/// Columns of the microkernel tile and of one packed B micro-panel (two
/// 4-wide `ymm` lanes, or one 8-wide `zmm`).
pub(crate) const NR: usize = 8;

/// The 4×8 tile's register-resident accumulator.
pub(crate) type Acc = [[f64; NR]; MR];
/// The 8×16 group's register-resident accumulator: rows `0..MR` come from
/// the first A micro-panel, columns `0..NR` from the first B micro-panel.
pub(crate) type WideAcc = [[f64; 2 * NR]; 2 * MR];

/// SIMD class the microkernel dispatches to, best-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar/autovectorized clone, no FMA contraction.
    Generic,
    /// AVX2 + FMA clone (`vfmadd` on `ymm`).
    Avx2Fma,
    /// AVX-512 F/VL + FMA clone.
    Avx512,
}

impl SimdLevel {
    /// Short human-readable name (stable, used in bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Generic => "generic",
            SimdLevel::Avx2Fma => "avx2+fma",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

// Cached detection result: 0 = undetected, else SimdLevel as u8 + 1.
static DETECTED: AtomicU8 = AtomicU8::new(0);
// Test/bench override: 0 = none, else SimdLevel as u8 + 1. Overrides are
// clamped to the detected level — forcing a clone the CPU cannot run is
// never allowed.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn to_u8(l: SimdLevel) -> u8 {
    match l {
        SimdLevel::Generic => 1,
        SimdLevel::Avx2Fma => 2,
        SimdLevel::Avx512 => 3,
    }
}

fn from_u8(v: u8) -> SimdLevel {
    match v {
        2 => SimdLevel::Avx2Fma,
        3 => SimdLevel::Avx512,
        _ => SimdLevel::Generic,
    }
}

fn detect() -> SimdLevel {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("fma")
        {
            return SimdLevel::Avx512;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return SimdLevel::Avx2Fma;
        }
    }
    SimdLevel::Generic
}

/// The best SIMD level this host supports (CPUID-detected once, cached).
pub fn detected_simd_level() -> SimdLevel {
    let v = DETECTED.load(Ordering::Relaxed);
    if v != 0 {
        return from_u8(v);
    }
    let l = detect();
    DETECTED.store(to_u8(l), Ordering::Relaxed);
    l
}

/// The SIMD level the microkernel will actually dispatch to: the detected
/// level, unless a (clamped) override is in force.
pub fn simd_level() -> SimdLevel {
    let detected = detected_simd_level();
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => detected,
        v => from_u8(v).min(detected),
    }
}

/// Forces dispatch to a specific clone, clamped to what the host supports.
/// `None` restores CPUID dispatch.
///
/// This is a process-global knob intended for benchmarks and conformance
/// tests (measuring each clone, or pinning the generic clone to compare
/// against FMA contraction). Production paths never call it, so normal
/// runs stay deterministic per host.
pub fn set_simd_override(level: Option<SimdLevel>) {
    OVERRIDE.store(level.map_or(0, to_u8), Ordering::Relaxed);
}

/// The microkernels of one SIMD level, resolved once per GEMM call so the
/// macrokernel's inner loops never re-read the dispatch atomics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kernel {
    level: SimdLevel,
}

impl Kernel {
    /// The kernels of the level [`simd_level`] dispatches to right now.
    pub(crate) fn resolve() -> Kernel {
        Kernel {
            level: simd_level(),
        }
    }

    /// True when [`run_wide`](Self::run_wide) is available: AVX-512 on
    /// `x86_64`.
    pub(crate) fn has_wide(self) -> bool {
        cfg!(target_arch = "x86_64") && self.level == SimdLevel::Avx512
    }

    /// `acc += Ap × Bp` where `Ap` is an `MR`-interleaved packed micro-panel
    /// (`kc × MR`, see [`crate::pack::pack_a`]) and `Bp` an `NR`-wide packed
    /// micro-panel (`kc × NR`, see [`crate::pack::pack_b`]).
    ///
    /// The accumulator is updated in `k`-ascending order with one
    /// contraction per `(k, r, j)` — identical association in every clone,
    /// FMA rounding aside.
    ///
    /// # Panics
    /// If a panel holds fewer than `kc` steps.
    #[inline]
    pub(crate) fn run(self, kc: usize, a_panel: &[f64], b_panel: &[f64], acc: &mut Acc) {
        assert!(a_panel.len() >= kc * MR, "A micro-panel shorter than kc");
        assert!(b_panel.len() >= kc * NR, "B micro-panel shorter than kc");
        match self.level {
            // SAFETY: the clone's target features were CPUID-verified by
            // `detect` (overrides are clamped to the detected level).
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdLevel::Avx512 => unsafe { kernel_avx512(kc, a_panel, b_panel, acc) },
            // SAFETY: as above.
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdLevel::Avx2Fma => unsafe { kernel_avx2(kc, a_panel, b_panel, acc) },
            _ => kernel_generic(kc, a_panel, b_panel, acc),
        }
    }

    /// `acc += [Ap0; Ap1] × [Bp0 Bp1]`: the 2×2 group of 4×8 tiles that
    /// [`run`](Self::run) would compute one at a time, as one 8×16 block.
    /// Each lane is bitwise what `run` at the AVX2+FMA or AVX-512 level
    /// yields for its tile.
    ///
    /// # Panics
    /// If [`has_wide`](Self::has_wide) is false, or a panel holds fewer
    /// than `kc` steps.
    #[inline]
    pub(crate) fn run_wide(self, kc: usize, a: [&[f64]; 2], b: [&[f64]; 2], acc: &mut WideAcc) {
        assert!(self.has_wide(), "the 8x16 group needs AVX-512");
        for panel in a {
            assert!(panel.len() >= kc * MR, "A micro-panel shorter than kc");
        }
        for panel in b {
            assert!(panel.len() >= kc * NR, "B micro-panel shorter than kc");
        }
        // SAFETY: `has_wide` means the level is AVX-512, whose features
        // `detect` CPUID-verified (overrides are clamped to it); the
        // asserts above bound every load the kernel makes.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            kernel_avx512_wide(kc, a, b, acc)
        }
    }
}

/// The shared kernel body. `FMA` selects single-rounding contraction
/// (`f64::mul_add`, which the `target_feature` clones lower to `vfmadd`;
/// the generic clone must *not* use it — without hardware FMA it calls
/// soft-float `fma()`).
#[inline(always)]
fn body<const FMA: bool>(kc: usize, a_panel: &[f64], b_panel: &[f64], acc: &mut Acc) {
    // Local copy so the accumulator tile lives in registers for the whole
    // k-loop; written back once.
    let mut t = *acc;
    for (ak, bk) in a_panel
        .chunks_exact(MR)
        .zip(b_panel.chunks_exact(NR))
        .take(kc)
    {
        let bk: &[f64; NR] = bk.try_into().expect("NR chunk");
        for r in 0..MR {
            let av = ak[r];
            for j in 0..NR {
                if FMA {
                    t[r][j] = av.mul_add(bk[j], t[r][j]);
                } else {
                    t[r][j] += av * bk[j];
                }
            }
        }
    }
    *acc = t;
}

fn kernel_generic(kc: usize, a_panel: &[f64], b_panel: &[f64], acc: &mut Acc) {
    body::<false>(kc, a_panel, b_panel, acc)
}

/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,fma")]
unsafe fn kernel_avx2(kc: usize, a_panel: &[f64], b_panel: &[f64], acc: &mut Acc) {
    body::<true>(kc, a_panel, b_panel, acc)
}

/// # Safety
/// Caller must ensure the CPU supports AVX-512 F/VL and FMA.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f,avx512vl,fma")]
unsafe fn kernel_avx512(kc: usize, a_panel: &[f64], b_panel: &[f64], acc: &mut Acc) {
    body::<true>(kc, a_panel, b_panel, acc)
}

/// The 8×16 group on AVX-512: 16 `zmm` accumulators, `c{r}{h}` holding
/// row `r` of the group and columns `h·NR..(h+1)·NR`.
///
/// # Safety
/// Caller must ensure the CPU supports AVX-512 F/VL and FMA, and that
/// every `a` panel holds `kc·MR` and every `b` panel `kc·NR` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,fma")]
unsafe fn kernel_avx512_wide(kc: usize, a: [&[f64]; 2], b: [&[f64]; 2], acc: &mut WideAcc) {
    use std::arch::x86_64::{_mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_storeu_pd};
    let (a0, a1) = (a[0].as_ptr(), a[1].as_ptr());
    let (b0, b1) = (b[0].as_ptr(), b[1].as_ptr());
    macro_rules! load {
        ($r:expr, $h:expr) => {
            _mm512_loadu_pd(acc[$r][$h * NR..].as_ptr())
        };
    }
    let (mut c00, mut c01, mut c10, mut c11) = (load!(0, 0), load!(0, 1), load!(1, 0), load!(1, 1));
    let (mut c20, mut c21, mut c30, mut c31) = (load!(2, 0), load!(2, 1), load!(3, 0), load!(3, 1));
    let (mut c40, mut c41, mut c50, mut c51) = (load!(4, 0), load!(4, 1), load!(5, 0), load!(5, 1));
    let (mut c60, mut c61, mut c70, mut c71) = (load!(6, 0), load!(6, 1), load!(7, 0), load!(7, 1));
    // Every read below ends before `kc·NR` (B) or `kc·MR` (A): inside the
    // panels by the caller's contract.
    for k in 0..kc {
        let bv0 = _mm512_loadu_pd(b0.add(k * NR));
        let bv1 = _mm512_loadu_pd(b1.add(k * NR));
        macro_rules! row {
            ($panel:expr, $r:expr, $lo:ident, $hi:ident) => {
                let x = _mm512_set1_pd(*$panel.add(k * MR + $r));
                $lo = _mm512_fmadd_pd(x, bv0, $lo);
                $hi = _mm512_fmadd_pd(x, bv1, $hi);
            };
        }
        row!(a0, 0, c00, c01);
        row!(a0, 1, c10, c11);
        row!(a0, 2, c20, c21);
        row!(a0, 3, c30, c31);
        row!(a1, 0, c40, c41);
        row!(a1, 1, c50, c51);
        row!(a1, 2, c60, c61);
        row!(a1, 3, c70, c71);
    }
    macro_rules! store {
        ($r:expr, $lo:ident, $hi:ident) => {
            _mm512_storeu_pd(acc[$r][..NR].as_mut_ptr(), $lo);
            _mm512_storeu_pd(acc[$r][NR..].as_mut_ptr(), $hi);
        };
    }
    store!(0, c00, c01);
    store!(1, c10, c11);
    store!(2, c20, c21);
    store!(3, c30, c31);
    store!(4, c40, c41);
    store!(5, c50, c51);
    store!(6, c60, c61);
    store!(7, c70, c71);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(kc: usize, a: &[f64], b: &[f64]) -> Acc {
        let mut acc = [[0.0; NR]; MR];
        for k in 0..kc {
            for r in 0..MR {
                for j in 0..NR {
                    acc[r][j] += a[k * MR + r] * b[k * NR + j];
                }
            }
        }
        acc
    }

    /// The kernels of `level`, without touching the process-global
    /// override other tests in this binary flip concurrently.
    fn at(level: SimdLevel) -> Option<Kernel> {
        (level <= detected_simd_level()).then_some(Kernel { level })
    }

    #[test]
    fn all_available_clones_match_naive() {
        let kc = 37;
        let a: Vec<f64> = (0..kc * MR).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..kc * NR).map(|i| (i as f64 * 0.11).cos()).collect();
        let want = naive(kc, &a, &b);
        for level in [SimdLevel::Generic, SimdLevel::Avx2Fma, SimdLevel::Avx512] {
            let Some(kernel) = at(level) else { continue };
            let mut acc = [[0.0; NR]; MR];
            kernel.run(kc, &a, &b, &mut acc);
            for r in 0..MR {
                for j in 0..NR {
                    let (x, y) = (acc[r][j], want[r][j]);
                    assert!(
                        (x - y).abs() <= 1e-13 * kc as f64,
                        "{} clone diverged at ({r},{j}): {x} vs {y}",
                        level.name()
                    );
                }
            }
        }
    }

    #[test]
    fn wide_group_is_four_tiles_bitwise() {
        let Some(kernel) = at(SimdLevel::Avx512).filter(|k| k.has_wide()) else {
            eprintln!("no AVX-512 on this host: the 8x16 group was not exercised");
            return;
        };
        let kc = 41;
        let panel =
            |len: usize, f: f64| -> Vec<f64> { (0..len).map(|i| (i as f64 * f).sin()).collect() };
        let a = [panel(kc * MR, 0.37), panel(kc * MR, 0.23)];
        let b = [panel(kc * NR, 0.11), panel(kc * NR, 0.53)];
        let mut wide = [[0.0; 2 * NR]; 2 * MR];
        for (r, row) in wide.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (r * 16 + j) as f64 * 0.125;
            }
        }
        let init = wide;
        kernel.run_wide(kc, [&a[0], &a[1]], [&b[0], &b[1]], &mut wide);
        for (ih, a_panel) in a.iter().enumerate() {
            for (jh, b_panel) in b.iter().enumerate() {
                let mut tile = [[0.0; NR]; MR];
                for (r, row) in tile.iter_mut().enumerate() {
                    row.copy_from_slice(&init[ih * MR + r][jh * NR..][..NR]);
                }
                kernel.run(kc, a_panel, b_panel, &mut tile);
                for (r, row) in tile.iter().enumerate() {
                    for (j, v) in row.iter().enumerate() {
                        assert_eq!(
                            v.to_bits(),
                            wide[ih * MR + r][jh * NR + j].to_bits(),
                            "group ({ih},{jh}) lane ({r},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "shorter than kc")]
    fn short_panel_is_rejected_before_the_kernel() {
        let kernel = at(SimdLevel::Generic).expect("generic always runs");
        let mut acc = [[0.0; NR]; MR];
        kernel.run(2, &[0.0; MR], &[0.0; 2 * NR], &mut acc);
    }

    #[test]
    fn override_is_clamped_to_detected() {
        set_simd_override(Some(SimdLevel::Avx512));
        assert!(simd_level() <= detected_simd_level());
        set_simd_override(None);
        assert_eq!(simd_level(), detected_simd_level());
    }

    #[test]
    fn kc_zero_is_identity() {
        let mut acc = [[1.5; NR]; MR];
        Kernel::resolve().run(0, &[], &[], &mut acc);
        assert_eq!(acc, [[1.5; NR]; MR]);
    }
}
