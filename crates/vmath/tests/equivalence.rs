//! Pins the crate's contract: both arms (scalar and AVX2) produce
//! bit-identical results for **every** input bit pattern — NaNs with
//! arbitrary payloads, infinities, negative zeros, denormals — at every
//! slice length, including ragged non-lane-multiple lengths where the
//! scalar tail takes over mid-slice.

use proptest::prelude::*;
use vmath::{available_arms, Arm};

/// Bit patterns that exercise every special-case branch of the kernels.
const SPECIALS: [u64; 18] = [
    0x0000_0000_0000_0000, // +0
    0x8000_0000_0000_0000, // -0
    0x7ff0_0000_0000_0000, // +inf
    0xfff0_0000_0000_0000, // -inf
    0x7ff8_0000_0000_0000, // quiet NaN
    0x7ff0_0000_0000_0001, // signalling NaN
    0xfff5_dead_beef_cafe, // negative NaN with payload
    0x0000_0000_0000_0001, // smallest denormal
    0x000f_ffff_ffff_ffff, // largest denormal
    0x0010_0000_0000_0000, // smallest normal
    0x7fef_ffff_ffff_ffff, // largest finite
    0x3ff0_0000_0000_0000, // 1.0
    0xbff0_0000_0000_0000, // -1.0
    0x3fe6_a09e_667f_3bcd, // sqrt(1/2), the ln reduction boundary
    0x4086_2e42_fefa_39ef, // ~709.78, the exp overflow edge
    0xc087_4910_d52d_3051, // ~-745.13, the exp underflow edge
    0x4300_0000_0000_0000, // 2^49, just below the cos2pi huge cutoff
    0x4320_0000_0000_0000, // 2^51, above the cos2pi huge cutoff
];

fn floats_with_specials(bits: Vec<u64>) -> Vec<f64> {
    bits.into_iter()
        .chain(SPECIALS)
        .map(f64::from_bits)
        .collect()
}

fn assert_unary_equiv(
    name: &str,
    with: fn(Arm, &[f64], &mut [f64]),
    xs: &[f64],
) -> Result<(), TestCaseError> {
    let mut want = vec![0.0; xs.len()];
    with(Arm::Scalar, xs, &mut want);
    for &arm in available_arms() {
        let mut got = vec![0.0; xs.len()];
        with(arm, xs, &mut got);
        for i in 0..xs.len() {
            prop_assert_eq!(
                got[i].to_bits(),
                want[i].to_bits(),
                "{name} arm {arm:?} lane {i}/{n}: x={x:?} ({xb:#018x}) -> {g:?} ({gb:#018x}) vs scalar {w:?} ({wb:#018x})",
                name = name,
                arm = arm,
                i = i,
                n = xs.len(),
                x = xs[i],
                xb = xs[i].to_bits(),
                g = got[i],
                gb = got[i].to_bits(),
                w = want[i],
                wb = want[i].to_bits(),
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn ln_arms_bit_identical(bits in prop::collection::vec(0u64..u64::MAX, 0..67)) {
        let xs = floats_with_specials(bits);
        assert_unary_equiv("ln", vmath::ln_slice_with, &xs)?;
    }

    #[test]
    fn exp_arms_bit_identical(bits in prop::collection::vec(0u64..u64::MAX, 0..67)) {
        let xs = floats_with_specials(bits);
        assert_unary_equiv("exp", vmath::exp_slice_with, &xs)?;
    }

    #[test]
    fn log10_arms_bit_identical(bits in prop::collection::vec(0u64..u64::MAX, 0..67)) {
        let xs = floats_with_specials(bits);
        assert_unary_equiv("log10", vmath::log10_slice_with, &xs)?;
    }

    #[test]
    fn pow10_arms_bit_identical(bits in prop::collection::vec(0u64..u64::MAX, 0..67)) {
        let xs = floats_with_specials(bits);
        assert_unary_equiv("pow10", vmath::pow10_slice_with, &xs)?;
    }

    #[test]
    fn cos2pi_arms_bit_identical(bits in prop::collection::vec(0u64..u64::MAX, 0..67)) {
        let xs = floats_with_specials(bits);
        assert_unary_equiv("cos2pi", vmath::cos2pi_slice_with, &xs)?;
    }

    #[test]
    fn gaussian_arms_bit_identical(
        pairs in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..67),
    ) {
        let u1 = floats_with_specials(pairs.iter().map(|p| p.0).collect());
        let u2 = floats_with_specials(pairs.iter().map(|p| p.1).collect());
        let mut want = vec![0.0; u1.len()];
        vmath::gaussian_slice_with(Arm::Scalar, &u1, &u2, &mut want);
        for &arm in available_arms() {
            let mut got = vec![0.0; u1.len()];
            vmath::gaussian_slice_with(arm, &u1, &u2, &mut got);
            for i in 0..u1.len() {
                prop_assert_eq!(
                    got[i].to_bits(),
                    want[i].to_bits(),
                    "gaussian arm {arm:?} lane {i}: u1={u1v:?} u2={u2v:?}",
                    arm = arm, i = i, u1v = u1[i], u2v = u2[i],
                );
            }
        }
    }

    #[test]
    fn shannon_se_arms_bit_identical(
        bits in prop::collection::vec(0u64..u64::MAX, 0..67),
        alpha in 0.05f64..1.5,
    ) {
        let xs = floats_with_specials(bits);
        let mut want = vec![0.0; xs.len()];
        vmath::shannon_se_slice_with(Arm::Scalar, &xs, alpha, &mut want);
        for &arm in available_arms() {
            let mut got = vec![0.0; xs.len()];
            vmath::shannon_se_slice_with(arm, &xs, alpha, &mut got);
            for i in 0..xs.len() {
                prop_assert_eq!(
                    got[i].to_bits(),
                    want[i].to_bits(),
                    "shannon_se arm {arm:?} lane {i}: x={x:?} alpha={alpha}",
                    arm = arm, i = i, x = xs[i], alpha = alpha,
                );
            }
        }
    }

    /// The dispatching entry points agree with the per-element scalar
    /// functions, whatever arm the environment selected.
    #[test]
    fn dispatch_matches_scalar_functions(bits in prop::collection::vec(0u64..u64::MAX, 0..67)) {
        let xs = floats_with_specials(bits);
        let mut out = vec![0.0; xs.len()];
        vmath::ln_slice(&xs, &mut out);
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(out[i].to_bits(), vmath::ln(x).to_bits(), "ln lane {}", i);
        }
        vmath::exp_slice(&xs, &mut out);
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(out[i].to_bits(), vmath::exp(x).to_bits(), "exp lane {}", i);
        }
        vmath::cos2pi_slice(&xs, &mut out);
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(out[i].to_bits(), vmath::cos2pi(x).to_bits(), "cos2pi lane {}", i);
        }
    }
}
