#![warn(missing_docs)]
// Coefficient tables are transcribed digit-for-digit from fdlibm/musl and
// the minimax fits that produced them; truncating to the shortest f64
// spelling would obscure the provenance diff, so the extra digits stay.
#![allow(clippy::excessive_precision)]

//! Repo-owned transcendental kernels with bit-identical scalar/AVX2 arms.
//!
//! The slot loop's hot math is dominated by a handful of transcendentals:
//! `ln`/`cos` inside the Box–Muller gaussian behind every AR(1) shadowing
//! and fading innovation, `10^x`/`log10` in the dBm↔mW conversions of the
//! SINR computation, `exp` in the 38.901 LOS probability and the BLER
//! waterfall, and `log2` in the Shannon SINR→CQI mapping. Calling libm for
//! each keeps every value scalar; this crate re-implements exactly the
//! functions the model needs so they can be evaluated a whole lane-set at
//! a time.
//!
//! # Equivalence contract
//!
//! Every kernel is written once as a sequence of IEEE-754 primitive
//! operations (add/sub/mul/div/sqrt, comparisons, bitwise moves) over an
//! abstract lane set, and instantiated for two arms: scalar `f64` and
//! AVX2 `__m256d`. Because each primitive is exactly rounded and
//! propagates NaNs identically in its scalar and packed encodings on
//! x86-64, the two arms produce **bit-identical results for every input
//! bit pattern** — including NaNs, infinities, negatives and denormals.
//! No FMA is ever used: contracting `a*b+c` would round once where the
//! scalar arm rounds twice, and change results between arms. The proptests in
//! `tests/equivalence.rs` pin this over arbitrary bit patterns and ragged
//! slice lengths; the same guarantee is what lets the radio model batch
//! draws ahead of time (gaussian tiles) while staying byte-identical to
//! its scalar reference lanes.
//!
//! Accuracy is within ~1–2 ulp of the correctly-rounded value across each
//! kernel's domain — these functions *define* the model's math (the repo
//! retired libm from the hot path in the same PR that introduced them),
//! so cross-arm identity rather than correct rounding is the contract.
//!
//! # Dispatch
//!
//! [`active_arm`] picks the arm once per process: AVX2 when detected,
//! else scalar. `MIDBAND5G_SIMD=0|off|scalar` forces the scalar arm (the
//! CI fallback job); any other value keeps the default. Each slice entry
//! point reads the cached arm and matches on it per call. Slice entry
//! points also exist as `*_slice_with(arm, ..)` so tests can drive every
//! arm explicitly regardless of the environment.

use std::sync::OnceLock;

/// Which kernel arm the slice entry points execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Plain `f64` operations — the reference arm, available everywhere.
    Scalar,
    /// 4-lane `__m256d` (runtime-detected).
    Avx2,
}

static ARM: OnceLock<Arm> = OnceLock::new();

fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn detect_arm() -> Arm {
    match std::env::var("MIDBAND5G_SIMD").as_deref() {
        Ok("0" | "off" | "scalar") => Arm::Scalar,
        _ if avx2_detected() => Arm::Avx2,
        _ => Arm::Scalar,
    }
}

/// The arm the process dispatches to (decided once, then cached).
pub fn active_arm() -> Arm {
    *ARM.get_or_init(detect_arm)
}

/// Every arm that can execute on this machine (always includes
/// [`Arm::Scalar`]). Equivalence tests iterate this.
pub fn available_arms() -> &'static [Arm] {
    if avx2_detected() {
        &[Arm::Scalar, Arm::Avx2]
    } else {
        &[Arm::Scalar]
    }
}

// ---------------------------------------------------------------------------
// Lane-set abstraction
// ---------------------------------------------------------------------------

/// One arm's lane set: `WIDTH` f64 lanes (`F`) with a same-width integer
/// view (`I`). Every method is a single IEEE-754 or bitwise primitive
/// whose scalar and packed x86 encodings agree bit-for-bit (including
/// NaN propagation and min/max NaN/±0 semantics), which is what makes
/// the kernels arm-identical by construction.
trait Lanes {
    type F: Copy;
    type I: Copy;
    const WIDTH: usize;
    unsafe fn splat(x: f64) -> Self::F;
    unsafe fn isplat(x: u64) -> Self::I;
    unsafe fn isplat32(x: u32) -> Self::I;
    unsafe fn load(p: *const f64) -> Self::F;
    unsafe fn store(p: *mut f64, v: Self::F);
    unsafe fn add(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn sub(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn mul(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn div(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn sqrt(a: Self::F) -> Self::F;
    /// x86 `minpd` semantics: `if a < b { a } else { b }` (NaN → b).
    unsafe fn min(a: Self::F, b: Self::F) -> Self::F;
    /// x86 `maxpd` semantics: `if a > b { a } else { b }` (NaN → b).
    unsafe fn max(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn lt(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn gt(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn eq(a: Self::F, b: Self::F) -> Self::F;
    /// Unordered not-equal: true when either operand is NaN.
    unsafe fn ne(a: Self::F, b: Self::F) -> Self::F;
    /// Bitwise select: `(a & m) | (b & !m)` with an all-ones/all-zeros mask.
    unsafe fn select(m: Self::F, a: Self::F, b: Self::F) -> Self::F;
    unsafe fn bits(a: Self::F) -> Self::I;
    unsafe fn from_bits(a: Self::I) -> Self::F;
    unsafe fn and(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn or(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn xor_f(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn and_f(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn isub64(a: Self::I, b: Self::I) -> Self::I;
    /// Per-32-bit-lane wrapping add (`paddd`).
    unsafe fn iadd32(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn isub32(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn shr64<const N: i32>(a: Self::I) -> Self::I;
    unsafe fn shl64<const N: i32>(a: Self::I) -> Self::I;
    unsafe fn shl32<const N: i32>(a: Self::I) -> Self::I;
    unsafe fn sar32<const N: i32>(a: Self::I) -> Self::I;
    /// Duplicate each 64-bit lane's low dword into its high dword
    /// (`pshufd` with 0b10100000) — widens a 32-bit mask to 64 bits.
    unsafe fn dup_even(a: Self::I) -> Self::I;
}

struct ScalarArm;

#[inline(always)]
fn scalar_mask(c: bool) -> f64 {
    if c {
        f64::from_bits(u64::MAX)
    } else {
        f64::from_bits(0)
    }
}

#[inline(always)]
fn per_dword(a: u64, b: u64, f: impl Fn(u32, u32) -> u32) -> u64 {
    let lo = f(a as u32, b as u32) as u64;
    let hi = f((a >> 32) as u32, (b >> 32) as u32) as u64;
    (hi << 32) | lo
}

impl Lanes for ScalarArm {
    type F = f64;
    type I = u64;
    const WIDTH: usize = 1;
    #[inline(always)]
    unsafe fn splat(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    unsafe fn isplat(x: u64) -> u64 {
        x
    }
    #[inline(always)]
    unsafe fn isplat32(x: u32) -> u64 {
        ((x as u64) << 32) | x as u64
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> f64 {
        *p
    }
    #[inline(always)]
    unsafe fn store(p: *mut f64, v: f64) {
        *p = v;
    }
    #[inline(always)]
    unsafe fn add(a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    unsafe fn sub(a: f64, b: f64) -> f64 {
        a - b
    }
    #[inline(always)]
    unsafe fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
    #[inline(always)]
    unsafe fn div(a: f64, b: f64) -> f64 {
        a / b
    }
    #[inline(always)]
    unsafe fn sqrt(a: f64) -> f64 {
        a.sqrt()
    }
    #[inline(always)]
    unsafe fn min(a: f64, b: f64) -> f64 {
        // NOT f64::min: minpd returns b whenever the comparison is false,
        // including on NaN, and that is the semantics all arms share.
        if a < b {
            a
        } else {
            b
        }
    }
    #[inline(always)]
    unsafe fn max(a: f64, b: f64) -> f64 {
        if a > b {
            a
        } else {
            b
        }
    }
    #[inline(always)]
    unsafe fn lt(a: f64, b: f64) -> f64 {
        scalar_mask(a < b)
    }
    #[inline(always)]
    unsafe fn gt(a: f64, b: f64) -> f64 {
        scalar_mask(a > b)
    }
    #[inline(always)]
    unsafe fn eq(a: f64, b: f64) -> f64 {
        scalar_mask(a == b)
    }
    #[inline(always)]
    unsafe fn ne(a: f64, b: f64) -> f64 {
        scalar_mask(a != b)
    }
    #[inline(always)]
    unsafe fn select(m: f64, a: f64, b: f64) -> f64 {
        f64::from_bits((a.to_bits() & m.to_bits()) | (b.to_bits() & !m.to_bits()))
    }
    #[inline(always)]
    unsafe fn bits(a: f64) -> u64 {
        a.to_bits()
    }
    #[inline(always)]
    unsafe fn from_bits(a: u64) -> f64 {
        f64::from_bits(a)
    }
    #[inline(always)]
    unsafe fn and(a: u64, b: u64) -> u64 {
        a & b
    }
    #[inline(always)]
    unsafe fn or(a: u64, b: u64) -> u64 {
        a | b
    }
    #[inline(always)]
    unsafe fn xor_f(a: f64, b: f64) -> f64 {
        f64::from_bits(a.to_bits() ^ b.to_bits())
    }
    #[inline(always)]
    unsafe fn and_f(a: f64, b: f64) -> f64 {
        f64::from_bits(a.to_bits() & b.to_bits())
    }
    #[inline(always)]
    unsafe fn isub64(a: u64, b: u64) -> u64 {
        a.wrapping_sub(b)
    }
    #[inline(always)]
    unsafe fn iadd32(a: u64, b: u64) -> u64 {
        per_dword(a, b, |x, y| x.wrapping_add(y))
    }
    #[inline(always)]
    unsafe fn isub32(a: u64, b: u64) -> u64 {
        per_dword(a, b, |x, y| x.wrapping_sub(y))
    }
    #[inline(always)]
    unsafe fn shr64<const N: i32>(a: u64) -> u64 {
        a >> N
    }
    #[inline(always)]
    unsafe fn shl64<const N: i32>(a: u64) -> u64 {
        a << N
    }
    #[inline(always)]
    unsafe fn shl32<const N: i32>(a: u64) -> u64 {
        per_dword(a, 0, |x, _| x << N)
    }
    #[inline(always)]
    unsafe fn sar32<const N: i32>(a: u64) -> u64 {
        per_dword(a, 0, |x, _| ((x as i32) >> N) as u32)
    }
    #[inline(always)]
    unsafe fn dup_even(a: u64) -> u64 {
        let lo = a as u32 as u64;
        (lo << 32) | lo
    }
}

#[cfg(target_arch = "x86_64")]
mod x86_arms {
    use super::Lanes;
    use std::arch::x86_64::*;

    pub(super) struct Avx2Arm;

    impl Lanes for Avx2Arm {
        type F = __m256d;
        type I = __m256i;
        const WIDTH: usize = 4;
        #[inline(always)]
        unsafe fn splat(x: f64) -> __m256d {
            _mm256_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn isplat(x: u64) -> __m256i {
            _mm256_set1_epi64x(x as i64)
        }
        #[inline(always)]
        unsafe fn isplat32(x: u32) -> __m256i {
            _mm256_set1_epi32(x as i32)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> __m256d {
            _mm256_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f64, v: __m256d) {
            _mm256_storeu_pd(p, v)
        }
        #[inline(always)]
        unsafe fn add(a: __m256d, b: __m256d) -> __m256d {
            _mm256_add_pd(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m256d, b: __m256d) -> __m256d {
            _mm256_sub_pd(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: __m256d, b: __m256d) -> __m256d {
            _mm256_mul_pd(a, b)
        }
        #[inline(always)]
        unsafe fn div(a: __m256d, b: __m256d) -> __m256d {
            _mm256_div_pd(a, b)
        }
        #[inline(always)]
        unsafe fn sqrt(a: __m256d) -> __m256d {
            _mm256_sqrt_pd(a)
        }
        #[inline(always)]
        unsafe fn min(a: __m256d, b: __m256d) -> __m256d {
            _mm256_min_pd(a, b)
        }
        #[inline(always)]
        unsafe fn max(a: __m256d, b: __m256d) -> __m256d {
            _mm256_max_pd(a, b)
        }
        #[inline(always)]
        unsafe fn lt(a: __m256d, b: __m256d) -> __m256d {
            _mm256_cmp_pd::<_CMP_LT_OQ>(a, b)
        }
        #[inline(always)]
        unsafe fn gt(a: __m256d, b: __m256d) -> __m256d {
            _mm256_cmp_pd::<_CMP_GT_OQ>(a, b)
        }
        #[inline(always)]
        unsafe fn eq(a: __m256d, b: __m256d) -> __m256d {
            _mm256_cmp_pd::<_CMP_EQ_OQ>(a, b)
        }
        #[inline(always)]
        unsafe fn ne(a: __m256d, b: __m256d) -> __m256d {
            _mm256_cmp_pd::<_CMP_NEQ_UQ>(a, b)
        }
        #[inline(always)]
        unsafe fn select(m: __m256d, a: __m256d, b: __m256d) -> __m256d {
            _mm256_or_pd(_mm256_and_pd(m, a), _mm256_andnot_pd(m, b))
        }
        #[inline(always)]
        unsafe fn bits(a: __m256d) -> __m256i {
            _mm256_castpd_si256(a)
        }
        #[inline(always)]
        unsafe fn from_bits(a: __m256i) -> __m256d {
            _mm256_castsi256_pd(a)
        }
        #[inline(always)]
        unsafe fn and(a: __m256i, b: __m256i) -> __m256i {
            _mm256_and_si256(a, b)
        }
        #[inline(always)]
        unsafe fn or(a: __m256i, b: __m256i) -> __m256i {
            _mm256_or_si256(a, b)
        }
        #[inline(always)]
        unsafe fn xor_f(a: __m256d, b: __m256d) -> __m256d {
            _mm256_xor_pd(a, b)
        }
        #[inline(always)]
        unsafe fn and_f(a: __m256d, b: __m256d) -> __m256d {
            _mm256_and_pd(a, b)
        }
        #[inline(always)]
        unsafe fn isub64(a: __m256i, b: __m256i) -> __m256i {
            _mm256_sub_epi64(a, b)
        }
        #[inline(always)]
        unsafe fn iadd32(a: __m256i, b: __m256i) -> __m256i {
            _mm256_add_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn isub32(a: __m256i, b: __m256i) -> __m256i {
            _mm256_sub_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn shr64<const N: i32>(a: __m256i) -> __m256i {
            _mm256_srli_epi64::<N>(a)
        }
        #[inline(always)]
        unsafe fn shl64<const N: i32>(a: __m256i) -> __m256i {
            _mm256_slli_epi64::<N>(a)
        }
        #[inline(always)]
        unsafe fn shl32<const N: i32>(a: __m256i) -> __m256i {
            _mm256_slli_epi32::<N>(a)
        }
        #[inline(always)]
        unsafe fn sar32<const N: i32>(a: __m256i) -> __m256i {
            _mm256_srai_epi32::<N>(a)
        }
        #[inline(always)]
        unsafe fn dup_even(a: __m256i) -> __m256i {
            _mm256_shuffle_epi32::<0b10100000>(a)
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel constants
// ---------------------------------------------------------------------------

const LN2_HI: f64 = 6.931_471_803_691_238_164_9e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
/// 1.5·2^52 — the round-to-nearest-integer magic constant. Adding and
/// subtracting it rounds |x| < 2^51 to the nearest integer (ties to
/// even) and leaves the integer, two's-complement, in the low 32
/// mantissa bits.
const MAGIC: f64 = 6_755_399_441_055_744.0;
/// 2^52 + 1024, the bias used to rebuild a small integer as an f64.
const TWO52P1024: f64 = 4_503_599_627_371_520.0;
/// Bit pattern of √½ rounded down to a 32-bit-aligned boundary: the
/// mantissa-normalisation offset, placing z in [√½·(1−ε), √2).
const LN_OFF: u64 = 0x3fe6_a09e_0000_0000;
const EXP_FIELD: u64 = 0xfff0_0000_0000_0000;
const TWO54: f64 = 18_014_398_509_481_984.0;
/// Largest x with e^x finite.
const EXP_OVERFLOW: f64 = 709.782_712_893_383_973_096;
/// Smallest x with e^x > 0 (denormal floor).
const EXP_UNDERFLOW: f64 = -745.133_219_101_941_108_42;
/// |x| at and beyond which every f64 is an integer number of half-turns.
const COS_HUGE: f64 = 1_125_899_906_842_624.0; // 2^50

// ln(1+f) rational-polynomial coefficients (musl / fdlibm Lg1..Lg7).
const LG1: f64 = 6.666_666_666_666_735_13e-1;
const LG2: f64 = 3.999_999_999_940_941_908e-1;
const LG3: f64 = 2.857_142_874_366_239_149e-1;
const LG4: f64 = 2.222_219_843_214_978_396e-1;
const LG5: f64 = 1.818_357_216_161_805_012e-1;
const LG6: f64 = 1.531_383_769_920_937_332e-1;
const LG7: f64 = 1.479_819_860_511_658_591e-1;

// Taylor coefficients 1/n! for e^r on |r| ≤ ln2/2 (truncation < 1 ulp).
const EXP_C: [f64; 12] = [
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

// sin(2πg) = g·(A0 + s·A1 + …), cos(2πg) = 1 + s·B1 + …, s = g², |g| ≤ ⅛.
const SIN_A: [f64; 8] = [
    std::f64::consts::TAU,
    -4.134_170_224_039_975_49e1,
    8.160_524_927_607_504_25e1,
    -7.670_585_975_306_136_11e1,
    4.205_869_394_489_763_38e1,
    -1.509_464_257_682_298_44e1,
    3.819_952_584_848_280_26e0,
    -7.181_223_017_785_001_16e-1,
];
const COS_B: [f64; 8] = [
    -1.973_920_880_217_871_6e1,
    6.493_939_402_266_828_15e1,
    -8.545_681_720_669_371_37e1,
    6.024_464_137_187_663_94e1,
    -2.642_625_678_337_438_8e1,
    7.903_536_371_318_464_76e0,
    -1.714_390_711_088_671_14e0,
    2.820_059_684_557_910_12e-1,
];

// ---------------------------------------------------------------------------
// Generic kernel bodies
// ---------------------------------------------------------------------------

/// Natural log, total over all bit patterns: ln(+0/−0) = −∞, ln(x<0) =
/// NaN, ln(+∞) = +∞, NaN propagates, denormals are rescaled exactly.
#[inline(always)]
unsafe fn ln_core<L: Lanes>(x: L::F) -> L::F {
    // Rescale anything below the normal range by 2^54 (negatives and
    // zeros take this path too; their garbage core result is replaced by
    // the specials below).
    let tiny = L::lt(x, L::splat(f64::MIN_POSITIVE));
    let xs = L::select(tiny, L::mul(x, L::splat(TWO54)), x);
    let korr = L::select(tiny, L::splat(54.0), L::splat(0.0));
    let u = L::bits(xs);
    let tmp = L::isub64(u, L::isplat(LN_OFF));
    // Exponent k of the reduction x = 2^k · z, z ∈ [√½, √2): the 12-bit
    // field of tmp≫52, sign-extended with 32-bit shifts (AVX2 has no
    // 64-bit arithmetic shift).
    let k_i = L::sar32::<20>(L::shl32::<20>(L::shr64::<52>(tmp)));
    // Rebuild k as an f64 via the 2^52 bias (k+1024 is always positive).
    let kb = L::and(L::iadd32(k_i, L::isplat32(1024)), L::isplat(0xffff_ffff));
    let dk_raw = L::from_bits(L::or(kb, L::isplat(0x4330_0000_0000_0000)));
    let dk = L::sub(L::sub(dk_raw, L::splat(TWO52P1024)), korr);
    let z = L::from_bits(L::isub64(u, L::and(tmp, L::isplat(EXP_FIELD))));
    // fdlibm ln(1+f) over f ∈ [√½−1, √2−1].
    let f = L::sub(z, L::splat(1.0));
    let hfsq = L::mul(L::mul(L::splat(0.5), f), f);
    let s = L::div(f, L::add(L::splat(2.0), f));
    let zz = L::mul(s, s);
    let w = L::mul(zz, zz);
    let t1 = L::mul(
        w,
        L::add(L::splat(LG2), L::mul(w, L::add(L::splat(LG4), L::mul(w, L::splat(LG6))))),
    );
    let t2 = L::mul(
        zz,
        L::add(
            L::splat(LG1),
            L::mul(
                w,
                L::add(L::splat(LG3), L::mul(w, L::add(L::splat(LG5), L::mul(w, L::splat(LG7))))),
            ),
        ),
    );
    let r = L::add(t2, t1);
    let res = L::add(
        L::add(
            L::sub(
                L::add(L::mul(s, L::add(hfsq, r)), L::mul(dk, L::splat(LN2_LO))),
                hfsq,
            ),
            f,
        ),
        L::mul(dk, L::splat(LN2_HI)),
    );
    let res = L::select(L::eq(x, L::splat(0.0)), L::splat(f64::NEG_INFINITY), res);
    let res = L::select(L::lt(x, L::splat(0.0)), L::splat(f64::NAN), res);
    let res = L::select(L::eq(x, L::splat(f64::INFINITY)), L::splat(f64::INFINITY), res);
    L::select(L::ne(x, x), x, res)
}

/// e^x, total over all bit patterns: overflow → +∞, underflow → +0,
/// NaN propagates. Denormal results take two exactly-representable
/// power-of-two scalings (one final rounding each).
#[inline(always)]
unsafe fn exp_core<L: Lanes>(x: L::F) -> L::F {
    // Clamp into the range where the magic-rounding trick is exact; the
    // true result outside it is pinned by the overflow/underflow selects.
    let xc = L::max(L::min(x, L::splat(710.0)), L::splat(-746.0));
    let m = L::mul(xc, L::splat(std::f64::consts::LOG2_E));
    let t = L::add(m, L::splat(MAGIC));
    let kf = L::sub(t, L::splat(MAGIC));
    let ki = L::bits(t); // low dword of each lane = k, two's complement
    let hi = L::sub(xc, L::mul(kf, L::splat(LN2_HI)));
    let r = L::sub(hi, L::mul(kf, L::splat(LN2_LO)));
    // e^r ≈ 1 + r + r²·(c2 + r·(c3 + …)), |r| ≤ ln2/2.
    let mut q = L::splat(EXP_C[11]);
    let mut i = EXP_C.len() - 1;
    while i > 0 {
        i -= 1;
        q = L::add(L::splat(EXP_C[i]), L::mul(r, q));
    }
    let p = L::add(L::add(L::splat(1.0), r), L::mul(L::mul(r, r), q));
    // 2^k = 2^(k≫1) · 2^(k−k≫1): both factors stay in the normal range
    // for every clamped k ∈ [-1077, 1025].
    let k1 = L::sar32::<1>(ki);
    let k2 = L::isub32(ki, k1);
    let lo32 = L::isplat(0xffff_ffff);
    let bias = L::isplat32(1023);
    let f1 = L::from_bits(L::shl64::<52>(L::and(L::iadd32(k1, bias), lo32)));
    let f2 = L::from_bits(L::shl64::<52>(L::and(L::iadd32(k2, bias), lo32)));
    let res = L::mul(L::mul(p, f1), f2);
    let res = L::select(L::gt(x, L::splat(EXP_OVERFLOW)), L::splat(f64::INFINITY), res);
    let res = L::select(L::lt(x, L::splat(EXP_UNDERFLOW)), L::splat(0.0), res);
    L::select(L::ne(x, x), x, res)
}

/// cos(2π·x) with the argument in turns — the Box–Muller phase comes
/// uniform in [0,1), so reduction is exact (no π rounding). Total over
/// all bit patterns: |x| ≥ 2^50 (every f64 there is an integer) → 1.0,
/// NaN propagates.
#[inline(always)]
unsafe fn cos2pi_core<L: Lanes>(x: L::F) -> L::F {
    // Quarter-turn reduction: q = round(4x), g = x − q/4, |g| ≤ ⅛.
    let t = L::add(L::mul(x, L::splat(4.0)), L::splat(MAGIC));
    let qf = L::sub(t, L::splat(MAGIC));
    let qi = L::bits(t); // low dword of each lane = q
    let g = L::sub(x, L::mul(qf, L::splat(0.25)));
    let s = L::mul(g, g);
    let mut sp = L::splat(SIN_A[7]);
    let mut i = 7;
    while i > 0 {
        i -= 1;
        sp = L::add(L::splat(SIN_A[i]), L::mul(s, sp));
    }
    let sinp = L::mul(g, sp);
    let mut cq = L::splat(COS_B[7]);
    i = 7;
    while i > 0 {
        i -= 1;
        cq = L::add(L::splat(COS_B[i]), L::mul(s, cq));
    }
    let cosp = L::add(L::splat(1.0), L::mul(s, cq));
    // q mod 4 = 0,1,2,3 → cos, −sin, −cos, sin.
    let swap = L::from_bits(L::dup_even(L::sar32::<31>(L::shl32::<31>(qi))));
    let r0 = L::select(swap, sinp, cosp);
    let sbit = L::sar32::<31>(L::shl32::<30>(L::iadd32(qi, L::isplat32(1))));
    let sign = L::and(L::dup_even(sbit), L::isplat(0x8000_0000_0000_0000));
    let res = L::xor_f(r0, L::from_bits(sign));
    let absx = L::and_f(x, L::from_bits(L::isplat(0x7fff_ffff_ffff_ffff)));
    let res = L::select(L::lt(absx, L::splat(COS_HUGE)), res, L::splat(1.0));
    L::select(L::ne(x, x), x, res)
}

/// The Box–Muller gaussian from two uniforms: √(−2·ln u1) · cos(2π·u2).
#[inline(always)]
unsafe fn gaussian_core<L: Lanes>(u1: L::F, u2: L::F) -> L::F {
    let radius = L::sqrt(L::mul(L::splat(-2.0), ln_core::<L>(u1)));
    let res = L::mul(radius, cos2pi_core::<L>(u2));
    // When BOTH factors are NaN (u1 outside (0,1] and u2 NaN), the
    // hardware returns the first source operand's payload — and which
    // register ends up as first source is register-allocation-dependent,
    // so it can differ between arms. Canonicalise every NaN output to
    // the default quiet NaN; single-NaN cases were already
    // order-independent, and in-domain inputs never take this select.
    L::select(L::ne(res, res), L::splat(f64::NAN), res)
}

#[inline(always)]
unsafe fn log2_core<L: Lanes>(x: L::F) -> L::F {
    L::mul(ln_core::<L>(x), L::splat(std::f64::consts::LOG2_E))
}

#[inline(always)]
unsafe fn log10_core<L: Lanes>(x: L::F) -> L::F {
    L::mul(ln_core::<L>(x), L::splat(std::f64::consts::LOG10_E))
}

#[inline(always)]
unsafe fn pow10_core<L: Lanes>(x: L::F) -> L::F {
    exp_core::<L>(L::mul(x, L::splat(std::f64::consts::LN_10)))
}

#[inline(always)]
unsafe fn exp2_core<L: Lanes>(x: L::F) -> L::F {
    exp_core::<L>(L::mul(x, L::splat(std::f64::consts::LN_2)))
}

/// The link abstraction's Shannon spectral efficiency of an SINR in dB:
/// `α · log2(1 + 10^(x/10))`.
#[inline(always)]
unsafe fn shannon_se_core<L: Lanes>(x: L::F, alpha: L::F) -> L::F {
    let lin = pow10_core::<L>(L::div(x, L::splat(10.0)));
    L::mul(alpha, log2_core::<L>(L::add(L::splat(1.0), lin)))
}

// ---------------------------------------------------------------------------
// Scalar entry points
// ---------------------------------------------------------------------------

/// Natural logarithm (scalar arm).
#[inline]
pub fn ln(x: f64) -> f64 {
    unsafe { ln_core::<ScalarArm>(x) }
}

/// e^x (scalar arm).
#[inline]
pub fn exp(x: f64) -> f64 {
    unsafe { exp_core::<ScalarArm>(x) }
}

/// 2^x (scalar arm).
#[inline]
pub fn exp2(x: f64) -> f64 {
    unsafe { exp2_core::<ScalarArm>(x) }
}

/// Base-2 logarithm (scalar arm).
#[inline]
pub fn log2(x: f64) -> f64 {
    unsafe { log2_core::<ScalarArm>(x) }
}

/// Base-10 logarithm (scalar arm).
#[inline]
pub fn log10(x: f64) -> f64 {
    unsafe { log10_core::<ScalarArm>(x) }
}

/// 10^x (scalar arm).
#[inline]
pub fn pow10(x: f64) -> f64 {
    unsafe { pow10_core::<ScalarArm>(x) }
}

/// cos(2π·x), argument in turns (scalar arm).
#[inline]
pub fn cos2pi(x: f64) -> f64 {
    unsafe { cos2pi_core::<ScalarArm>(x) }
}

/// One Box–Muller gaussian from two uniforms (scalar arm); bit-identical
/// to the corresponding lane of [`gaussian_slice`].
#[inline]
pub fn gaussian_pair(u1: f64, u2: f64) -> f64 {
    unsafe { gaussian_core::<ScalarArm>(u1, u2) }
}

/// `α · log2(1 + 10^(x/10))` (scalar arm); bit-identical to the
/// corresponding lane of [`shannon_se_slice`].
#[inline]
pub fn shannon_se(x: f64, alpha: f64) -> f64 {
    unsafe { shannon_se_core::<ScalarArm>(x, alpha) }
}

// ---------------------------------------------------------------------------
// Slice entry points with runtime dispatch
// ---------------------------------------------------------------------------

macro_rules! unary_body {
    ($L:ty, $core:ident, $xs:ident, $out:ident) => {{
        let n = $xs.len();
        let w = <$L as Lanes>::WIDTH;
        let mut i = 0usize;
        while i + w <= n {
            let v = <$L as Lanes>::load($xs.as_ptr().add(i));
            <$L as Lanes>::store($out.as_mut_ptr().add(i), $core::<$L>(v));
            i += w;
        }
        while i < n {
            $out[i] = $core::<ScalarArm>($xs[i]);
            i += 1;
        }
    }};
}

macro_rules! binary_body {
    ($L:ty, $core:ident, $a:ident, $b:ident, $out:ident) => {{
        let n = $a.len();
        let w = <$L as Lanes>::WIDTH;
        let mut i = 0usize;
        while i + w <= n {
            let va = <$L as Lanes>::load($a.as_ptr().add(i));
            let vb = <$L as Lanes>::load($b.as_ptr().add(i));
            <$L as Lanes>::store($out.as_mut_ptr().add(i), $core::<$L>(va, vb));
            i += w;
        }
        while i < n {
            $out[i] = $core::<ScalarArm>($a[i], $b[i]);
            i += 1;
        }
    }};
}

#[cfg(target_arch = "x86_64")]
mod drivers {
    use super::*;
    use x86_arms::Avx2Arm;

    macro_rules! def_unary_driver {
        ($avx2:ident, $core:ident) => {
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $avx2(xs: &[f64], out: &mut [f64]) {
                unary_body!(Avx2Arm, $core, xs, out)
            }
        };
    }

    def_unary_driver!(ln_avx2, ln_core);
    def_unary_driver!(exp_avx2, exp_core);
    def_unary_driver!(log10_avx2, log10_core);
    def_unary_driver!(pow10_avx2, pow10_core);
    def_unary_driver!(cos2pi_avx2, cos2pi_core);

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gaussian_avx2(u1: &[f64], u2: &[f64], out: &mut [f64]) {
        binary_body!(Avx2Arm, gaussian_core, u1, u2, out)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn shannon_avx2(xs: &[f64], alpha: f64, out: &mut [f64]) {
        let n = xs.len();
        let mut i = 0usize;
        let va = <Avx2Arm as Lanes>::splat(alpha);
        while i + 4 <= n {
            let v = <Avx2Arm as Lanes>::load(xs.as_ptr().add(i));
            <Avx2Arm as Lanes>::store(out.as_mut_ptr().add(i), shannon_se_core::<Avx2Arm>(v, va));
            i += 4;
        }
        while i < n {
            out[i] = shannon_se_core::<ScalarArm>(xs[i], alpha);
            i += 1;
        }
    }
}

macro_rules! def_unary_slice {
    ($name:ident, $with_name:ident, $core:ident, $avx2:ident, $doc:literal) => {
        #[doc = $doc]
        ///
        /// Lengths must match; any length (including ragged, non-lane
        /// multiples) is handled — the tail runs the scalar arm, which is
        /// bit-identical to the vector lanes.
        #[inline]
        pub fn $name(xs: &[f64], out: &mut [f64]) {
            $with_name(active_arm(), xs, out)
        }

        #[doc = $doc]
        /// Explicit-arm variant (equivalence tests; an unavailable arm
        /// falls back to scalar).
        pub fn $with_name(arm: Arm, xs: &[f64], out: &mut [f64]) {
            assert_eq!(xs.len(), out.len(), "input/output length mismatch");
            match arm {
                #[cfg(target_arch = "x86_64")]
                Arm::Avx2 => unsafe { drivers::$avx2(xs, out) },
                _ => {
                    for (o, &x) in out.iter_mut().zip(xs) {
                        *o = unsafe { $core::<ScalarArm>(x) };
                    }
                }
            }
        }
    };
}

def_unary_slice!(ln_slice, ln_slice_with, ln_core, ln_avx2, "Element-wise natural log.");
def_unary_slice!(exp_slice, exp_slice_with, exp_core, exp_avx2, "Element-wise e^x.");
def_unary_slice!(
    log10_slice,
    log10_slice_with,
    log10_core,
    log10_avx2,
    "Element-wise base-10 log."
);
def_unary_slice!(pow10_slice, pow10_slice_with, pow10_core, pow10_avx2, "Element-wise 10^x.");
def_unary_slice!(
    cos2pi_slice,
    cos2pi_slice_with,
    cos2pi_core,
    cos2pi_avx2,
    "Element-wise cos(2π·x), argument in turns."
);

/// Element-wise Box–Muller: `out[i] = √(−2·ln u1[i]) · cos(2π·u2[i])`.
///
/// This is the batched form of [`gaussian_pair`]; the shadowing/fading
/// innovation tiles in `radio-channel` fill through it.
#[inline]
pub fn gaussian_slice(u1: &[f64], u2: &[f64], out: &mut [f64]) {
    gaussian_slice_with(active_arm(), u1, u2, out)
}

/// Explicit-arm variant of [`gaussian_slice`].
pub fn gaussian_slice_with(arm: Arm, u1: &[f64], u2: &[f64], out: &mut [f64]) {
    assert_eq!(u1.len(), u2.len(), "uniform slice length mismatch");
    assert_eq!(u1.len(), out.len(), "input/output length mismatch");
    match arm {
        #[cfg(target_arch = "x86_64")]
        Arm::Avx2 => unsafe { drivers::gaussian_avx2(u1, u2, out) },
        _ => {
            for i in 0..out.len() {
                out[i] = unsafe { gaussian_core::<ScalarArm>(u1[i], u2[i]) };
            }
        }
    }
}

/// Element-wise `α · log2(1 + 10^(x/10))` — the batched form of
/// [`shannon_se`], behind the SINR→CQI column mapping.
#[inline]
pub fn shannon_se_slice(xs: &[f64], alpha: f64, out: &mut [f64]) {
    shannon_se_slice_with(active_arm(), xs, alpha, out)
}

/// Explicit-arm variant of [`shannon_se_slice`].
pub fn shannon_se_slice_with(arm: Arm, xs: &[f64], alpha: f64, out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "input/output length mismatch");
    match arm {
        #[cfg(target_arch = "x86_64")]
        Arm::Avx2 => unsafe { drivers::shannon_avx2(xs, alpha, out) },
        _ => {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = unsafe { shannon_se_core::<ScalarArm>(x, alpha) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(a: f64, b: f64) -> f64 {
        if a == b {
            return 0.0;
        }
        ((a - b) / b).abs()
    }

    #[test]
    fn ln_matches_libm_across_domain() {
        let mut x = 1e-320; // includes denormals
        while x < 1e300 {
            assert!(rel_err(ln(x), x.ln()) < 1e-13, "x={x}: {} vs {}", ln(x), x.ln());
            x *= 1.7;
        }
    }

    #[test]
    fn exp_matches_libm_across_domain() {
        let mut x = -745.0;
        while x < 709.7 {
            let got = exp(x);
            let want = x.exp();
            assert!(rel_err(got, want) < 1e-13, "x={x}: {got} vs {want}");
            x += 0.37;
        }
    }

    #[test]
    fn log10_pow10_roundtrip() {
        for x in [-300.0, -21.5, -1.0, -0.1, 0.0, 0.3, 1.0, 17.25, 300.0] {
            assert!(rel_err(log10(pow10(x)), x) < 1e-13 || x == 0.0, "x={x}");
            assert!(rel_err(pow10(x), 10f64.powf(x)) < 1e-13, "x={x}");
        }
    }

    #[test]
    fn cos2pi_matches_libm_on_unit_interval() {
        let mut x = 0.0;
        while x < 1.0 {
            let want = (2.0 * std::f64::consts::PI * x).cos();
            assert!((cos2pi(x) - want).abs() < 1e-14, "x={x}: {} vs {want}", cos2pi(x));
            x += 0.000_937;
        }
    }

    #[test]
    fn specials_are_defined() {
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(-0.0), f64::NEG_INFINITY);
        assert!(ln(-1.0).is_nan());
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        assert!(ln(f64::NAN).is_nan());
        assert_eq!(exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(800.0), f64::INFINITY);
        assert_eq!(exp(-800.0), 0.0);
        assert!(exp(f64::NAN).is_nan());
        assert_eq!(cos2pi(0.0), 1.0);
        assert_eq!(cos2pi(1e300), 1.0);
        assert!(cos2pi(f64::NAN).is_nan());
    }

    #[test]
    fn exp_handles_denormal_results() {
        // Between the normal floor (~e^-708) and the denormal floor.
        let got = exp(-730.0);
        assert!(got > 0.0 && got < f64::MIN_POSITIVE, "{got}");
        assert!(rel_err(got, (-730f64).exp()) < 1e-10, "{got}");
    }

    #[test]
    fn gaussian_pair_is_radius_times_phase() {
        let u1 = 0.25;
        let u2 = 0.125;
        let want = (-2.0 * ln(u1)).sqrt() * cos2pi(u2);
        assert_eq!(gaussian_pair(u1, u2), want);
    }

    #[test]
    fn shannon_se_matches_composition() {
        for x in [-10.0, 0.0, 7.5, 22.0, 40.0] {
            let want = 0.75 * log2(1.0 + pow10(x / 10.0));
            assert_eq!(shannon_se(x, 0.75), want);
        }
    }

    #[test]
    fn slices_match_scalar_on_all_arms() {
        let xs: Vec<f64> = (0..37).map(|i| 0.001 + i as f64 * 0.027).collect();
        for &arm in available_arms() {
            let mut out = vec![0.0; xs.len()];
            ln_slice_with(arm, &xs, &mut out);
            for (i, &x) in xs.iter().enumerate() {
                assert_eq!(out[i].to_bits(), ln(x).to_bits(), "arm {arm:?} lane {i}");
            }
        }
    }
}
