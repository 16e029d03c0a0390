//! Shortest round-trip formatting of an `f64`, byte-identical to `{:?}`.
//!
//! The digits come from Ulf Adams' Ryū (PLDI 2018): the value and the two
//! ends of the interval that rounds back to it are scaled by a power of
//! ten through one 64×128-bit multiply, and digits are dropped while the
//! interval still holds a shorter number. Core's `{:?}` picks the same
//! digits (the shortest string that reads back to the value, the nearest
//! such string when there are several) with one difference from Ryū's
//! reference code: a value exactly halfway between two candidates rounds
//! up, not to even, so the reference code's test of whether the dropped
//! digits are exactly `5000…` goes. The layout then follows `{:?}`: a plain decimal with
//! at least one fractional digit for magnitudes in `[1e-4, 1e16)` and for
//! zero, `d.ddde±x` outside it.
//!
//! The multipliers are the top 125 bits of `5^i` and a 125-bit reciprocal
//! of `5^q`. They are computed once, on first use, with exact integer
//! arithmetic on a few hundred limbs, so no table of magic numbers lives
//! in the source.

use std::sync::OnceLock;

/// Bits kept of each power of five and of each reciprocal.
const POW5_BITS: u32 = 125;
/// Entries of the power table: `5^i` for `i` in `0..POW5_COUNT`.
const POW5_COUNT: usize = 326;
/// Entries of the reciprocal table: `2^k / 5^q` for `q` in `0..POW5_INV_COUNT`.
const POW5_INV_COUNT: usize = 342;
/// The reciprocals are taken from `floor(2^RECIP_SHIFT / 5^q)`, which is
/// exact at every bit the table keeps as long as `RECIP_SHIFT` is at least
/// `bitlen(5^341) - 1 + 125 = 916`.
const RECIP_SHIFT: u32 = 960;

struct Tables {
    /// `5^i` shifted to exactly [`POW5_BITS`] bits.
    pow5: Vec<u128>,
    /// `floor(2^(bitlen(5^q) - 1 + POW5_BITS) / 5^q) + 1`.
    pow5_inv: Vec<u128>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(build_tables)
}

/// A little-endian multi-limb unsigned integer.
type Big = Vec<u64>;

fn bit_len(n: &Big) -> u32 {
    let top = n.iter().rposition(|&limb| limb != 0).expect("nonzero");
    top as u32 * 64 + (64 - n[top].leading_zeros())
}

/// `n >> shift`, truncated to its low 128 bits.
fn shr_u128(n: &Big, shift: u32) -> u128 {
    let limb = (shift / 64) as usize;
    let bit = shift % 64;
    let word = |i: usize| u128::from(n.get(i).copied().unwrap_or(0));
    let low = word(limb) | word(limb + 1) << 64;
    if bit == 0 {
        low
    } else {
        low >> bit | word(limb + 2) << (128 - bit)
    }
}

fn build_tables() -> Tables {
    // `power` runs through 5^0, 5^1, ...; `recip` through
    // floor(2^RECIP_SHIFT / 5^q), each step one exact division by five
    // (floor(floor(x) / 5) = floor(x / 5) for integers).
    let mut power: Big = vec![1];
    let mut recip: Big = vec![0; RECIP_SHIFT as usize / 64 + 1];
    recip[RECIP_SHIFT as usize / 64] = 1 << (RECIP_SHIFT % 64);
    let mut pow5 = Vec::with_capacity(POW5_COUNT);
    let mut pow5_inv = Vec::with_capacity(POW5_INV_COUNT);
    for i in 0..POW5_COUNT.max(POW5_INV_COUNT) {
        let len = bit_len(&power);
        debug_assert_eq!(len as i32, pow5_bits(i as i32));
        if i < POW5_COUNT {
            pow5.push(if len >= POW5_BITS {
                shr_u128(&power, len - POW5_BITS)
            } else {
                shr_u128(&power, 0) << (POW5_BITS - len)
            });
        }
        if i < POW5_INV_COUNT {
            pow5_inv.push(shr_u128(&recip, RECIP_SHIFT - (len - 1 + POW5_BITS)) + 1);
        }
        let mut carry = 0u64;
        for limb in &mut power {
            let wide = u128::from(*limb) * 5 + u128::from(carry);
            *limb = wide as u64;
            carry = (wide >> 64) as u64;
        }
        if carry != 0 {
            power.push(carry);
        }
        let mut rem = 0u128;
        for limb in recip.iter_mut().rev() {
            let wide = rem << 64 | u128::from(*limb);
            *limb = (wide / 5) as u64;
            rem = wide % 5;
        }
    }
    Tables { pow5, pow5_inv }
}

/// `bitlen(5^e)`, for `0 <= e <= 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))`, for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))`, for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn pow5_factor(mut value: u64) -> u32 {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count
}

fn multiple_of_pow5(value: u64, p: u32) -> bool {
    pow5_factor(value) >= p
}

/// `(m * mul) >> shift`, for `shift >= 64`.
fn mul_shift(m: u64, mul: u128, shift: u32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// The shortest decimal `(digits, exponent)` with `digits × 10^exponent`
/// reading back to the positive finite `f64` whose bits are `bits`.
fn shortest(bits: u64) -> (u64, i32) {
    const MANTISSA_BITS: u32 = 52;
    const BIAS: i32 = 1023;
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent - BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // An even mantissa's interval includes its ends (they round to it).
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The gap below is half the one above at a power of two.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    let t = tables();
    let (mut vr, mut vp, mut vm, e10);
    // Whether the interval's lower end is exact at the digits kept.
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITS as i32 + pow5_bits(q as i32) - 1;
        let shift = (-e2 + q as i32 + k) as u32;
        let mul = t.pow5_inv[q as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // At most one of mp, mv and mm is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITS as i32;
        let shift = (q as i32 - k) as u32;
        let mul = t.pow5[i as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        if q <= 1 {
            // mm has a trailing zero bit only when mm_shift is 1; mp
            // always has one.
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let mut last_removed = 0;
    let output = if vm_trailing_zeros {
        // The rare case: the lower end may be exact, and so a candidate.
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        // An exact tie (`…5000…`) rounds up, as `{:?}` does.
        let below = vr == vm && (!accept_bounds || !vm_trailing_zeros);
        vr + u64::from(below || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// Appends `value`, which must be finite, as `{:?}` renders it.
pub(crate) fn write_f64(out: &mut String, value: f64) {
    debug_assert!(value.is_finite());
    let mut buf = [0u8; 32];
    let mut len = 0;
    let mut put = |bytes: &[u8]| {
        buf[len..len + bytes.len()].copy_from_slice(bytes);
        len += bytes.len();
    };
    if value.is_sign_negative() {
        put(b"-");
    }
    if value == 0.0 {
        put(b"0.0");
    } else {
        let (mut mantissa, exponent) = shortest(value.to_bits());
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        while mantissa > 0 {
            start -= 1;
            digits[start] = b'0' + (mantissa % 10) as u8;
            mantissa /= 10;
        }
        let digits = &digits[start..];
        let n = digits.len() as i32;
        // Digits before the decimal point in positional notation.
        let point = n + exponent;
        let magnitude = value.abs();
        if !(1e-4..1e16).contains(&magnitude) {
            put(&digits[..1]);
            if n > 1 {
                put(b".");
                put(&digits[1..]);
            }
            put(b"e");
            let mut exp = [0u8; 8];
            let mut e = (point - 1).unsigned_abs();
            let mut at = exp.len();
            loop {
                at -= 1;
                exp[at] = b'0' + (e % 10) as u8;
                e /= 10;
                if e == 0 {
                    break;
                }
            }
            if point - 1 < 0 {
                put(b"-");
            }
            put(&exp[at..]);
        } else if point <= 0 {
            put(b"0.");
            for _ in 0..-point {
                put(b"0");
            }
            put(digits);
        } else if point < n {
            put(&digits[..point as usize]);
            put(b".");
            put(&digits[point as usize..]);
        } else {
            put(digits);
            for _ in 0..point - n {
                put(b"0");
            }
            put(b".0");
        }
    }
    out.push_str(std::str::from_utf8(&buf[..len]).expect("ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn render(value: f64) -> String {
        let mut out = String::new();
        write_f64(&mut out, value);
        out
    }

    fn check(value: f64) {
        assert_eq!(
            render(value),
            format!("{value:?}"),
            "bits {:#x}",
            value.to_bits()
        );
    }

    #[test]
    fn edges_match_debug_formatting() {
        let mut cases = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            0.3,
            2.0 / 3.0,
            5e-324,
            -5e-324,
            f64::from_bits(2),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::from_bits(f64::MIN_POSITIVE.to_bits() + 1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1e21,
            1e22,
            1e23,
            9007199254740993.0,
            123456789012345680.0,
            std::f64::consts::PI,
            std::f64::consts::E,
            // Every power of two in range lies on the narrow-gap boundary.
            2f64.powi(-1074),
            2f64.powi(-1022),
            2f64.powi(1023),
        ];
        for e in -1074..=1023 {
            cases.push(2f64.powi(e));
        }
        // Each side of the exponent-form thresholds, a few ulps out.
        for threshold in [1e-4, 1e16, 1e15, 1e-3] {
            let bits = f64::to_bits(threshold);
            for delta in 0..4u64 {
                cases.push(f64::from_bits(bits + delta));
                cases.push(f64::from_bits(bits - delta));
            }
        }
        for e in -325..=308 {
            cases.push(format!("1e{e}").parse().unwrap());
            cases.push(format!("9.999999999999999e{e}").parse().unwrap());
        }
        // Short decimals, as benchmark results mostly are.
        for digits in [1, 7, 12, 125, 999, 4096, 31_415, 999_999, 1_048_576] {
            for e in -30..30 {
                cases.push(format!("{digits}e{e}").parse().unwrap());
            }
        }
        cases.retain(|x: &f64| x.is_finite());
        for value in cases {
            check(value);
            check(-value);
        }
        // An exact tie between two 17-digit candidates: `{:?}` rounds up.
        let tie: f64 = "1658206780088562.25".parse().unwrap();
        check(tie);
        assert_eq!(render(tie), "1658206780088562.3");
    }

    #[test]
    fn exact_ties_round_up() {
        // Integers past 2^53 with a fractional half: x.5 is exact, and
        // the two 16-digit neighbours tie.
        for n in (1u64 << 50)..(1u64 << 50) + 2000 {
            check(n as f64 + 0.25);
            check(n as f64 + 0.75);
        }
        for n in (1u64 << 52)..(1u64 << 52) + 2000 {
            check(n as f64 + 0.5);
        }
    }

    #[test]
    fn tables_hold_exact_values() {
        let t = tables();
        assert_eq!(t.pow5[0], 1u128 << 124);
        assert_eq!(t.pow5[1], 5u128 << 122);
        assert_eq!(t.pow5_inv[0], (1u128 << 125) + 1);
        // 5^55 is the largest power below 2^128: its top 125 bits.
        let p55 = 5u128.pow(55);
        assert_eq!(t.pow5[55], p55 >> (128 - p55.leading_zeros() - POW5_BITS));
        // 5 has 3 bits: floor(2^127 / 5) + 1.
        assert_eq!(t.pow5_inv[1], (1u128 << 127) / 5 + 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]
        #[test]
        fn random_bit_patterns_match_debug_formatting(bits in any::<u64>()) {
            let value = f64::from_bits(bits);
            if value.is_finite() {
                prop_assert_eq!(render(value), format!("{value:?}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000_000))]
        /// The sweep debug builds cannot afford:
        /// `cargo test --release -p serde -- --ignored`.
        #[test]
        #[ignore = "10^7 cases; run in release mode"]
        fn ten_million_bit_patterns_match_debug_formatting(bits in any::<u64>()) {
            let value = f64::from_bits(bits);
            if value.is_finite() {
                prop_assert_eq!(render(value), format!("{value:?}"));
            }
        }
    }
}
