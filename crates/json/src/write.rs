//! Writing numbers into a caller's buffer, without allocating.
//!
//! [`write_f64`] spells a float exactly as `format!("{v:e}")` does: the
//! shortest digits that read back to the same bits, in scientific form
//! (`1.5e-3`, `1e6`, `0e0`, `-0e0`, `inf`, `-inf`, `NaN`). It is Ryū (Ulf
//! Adams, "Ryū: fast float-to-string conversion", PLDI 2018) with one
//! change: when two shortest candidates lie exactly as far from the value,
//! it takes the upper one, as core's formatter does, where Ryū takes the
//! even one. So `2^-25` is `2.9802322387695313e-8`, not `…312e-8`.
//!
//! [`write_u64`] spells an integer in decimal, as `{}` does.

/// Bytes [`write_f64`] may need: `-2.2250738585072014e-308` is the longest.
pub const F64_LEN: usize = 24;

/// Bytes [`write_u64`] may need: `u64::MAX` has 20 digits.
pub const U64_LEN: usize = 20;

/// Writes `v` into `out` exactly as `format!("{v:e}")` spells it and returns
/// how many bytes that took.
///
/// ```
/// let mut buf = [0; rubik_json::F64_LEN];
/// for v in [1.5e-3, 1e6, 0.1 + 0.2, -0.0, f64::NAN] {
///     let n = rubik_json::write_f64(v, &mut buf);
///     assert_eq!(&buf[..n], format!("{v:e}").as_bytes());
/// }
/// ```
pub fn write_f64(v: f64, out: &mut [u8; F64_LEN]) -> usize {
    let bits = v.to_bits();
    let negative = bits >> 63 == 1;
    let mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    let special: &[u8] = match (exponent, mantissa, negative) {
        (0x7ff, 0, true) => b"-inf",
        (0x7ff, 0, false) => b"inf",
        (0x7ff, _, _) => b"NaN",
        (0, 0, true) => b"-0e0",
        (0, 0, false) => b"0e0",
        _ => return write_finite(negative, mantissa, exponent, out),
    };
    out[..special.len()].copy_from_slice(special);
    special.len()
}

/// [`write_f64`] for a finite, non-zero float, given its IEEE fields.
fn write_finite(negative: bool, mantissa: u64, exponent: u32, out: &mut [u8; F64_LEN]) -> usize {
    let (digits, e10) = shortest(mantissa, exponent);
    let len = decimal_len(digits);
    let mut at = usize::from(negative);
    out[0] = b'-';
    // The digits go one place to the right of where they belong; the
    // first one then moves left, and the point takes its place.
    write_digits(digits, &mut out[at + 1..at + 1 + len]);
    out[at] = out[at + 1];
    at += 1;
    if len > 1 {
        out[at] = b'.';
        at += len;
    }
    out[at] = b'e';
    at += 1;
    let e = e10 + len as i32 - 1;
    if e < 0 {
        out[at] = b'-';
        at += 1;
    }
    let e = e.unsigned_abs();
    if e >= 100 {
        out[at] = b'0' + (e / 100) as u8;
        at += 1;
    }
    if e >= 10 {
        out[at..at + 2].copy_from_slice(&pair(e % 100));
        at + 2
    } else {
        out[at] = b'0' + e as u8;
        at + 1
    }
}

/// Writes `v` into `out` in decimal, exactly as `format!("{v}")` spells it,
/// and returns how many bytes that took.
pub fn write_u64(v: u64, out: &mut [u8; U64_LEN]) -> usize {
    let len = decimal_len(v);
    write_digits(v, &mut out[..len]);
    len
}

/// Digits of `v` in decimal (1 for 0).
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// `"00"`, `"01"`, …, `"99"`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// The two digits of `v < 100`.
fn pair(v: u32) -> [u8; 2] {
    let at = 2 * v as usize;
    [DIGIT_PAIRS[at], DIGIT_PAIRS[at + 1]]
}

/// Writes the decimal digits of `v` so that they fill `out` exactly: eight
/// at a time in 32-bit arithmetic, then two at a time.
fn write_digits(mut v: u64, out: &mut [u8]) {
    let mut end = out.len();
    while end > 8 {
        let low = (v % 100_000_000) as u32;
        v /= 100_000_000;
        let (high, low) = (low / 10_000, low % 10_000);
        let eight = [
            pair(high / 100),
            pair(high % 100),
            pair(low / 100),
            pair(low % 100),
        ];
        out[end - 8..end].copy_from_slice(eight.as_flattened());
        end -= 8;
    }
    let mut v = v as u32;
    while end >= 2 {
        out[end - 2..end].copy_from_slice(&pair(v % 100));
        v /= 100;
        end -= 2;
    }
    if end == 1 {
        out[0] = b'0' + v as u8;
    }
}

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;

/// Bits kept of each power of five (and of each inverse).
const POW5_BITS: i32 = 125;

/// `5^-q` scaled up to 125 significant bits, for `0 <= q < 342`:
/// `floor(2^(pow5_bits(q) - 1 + 125) / 5^q) + 1`, as (low, high) words.
static POW5_INV: [[u64; 2]; 342] = pow5_inv_table();

/// `5^i` cut to its top 125 bits, for `0 <= i < 326`:
/// `5^i >> (pow5_bits(i) - 125)` (a left shift while `5^i` is shorter), as
/// (low, high) words.
static POW5: [[u64; 2]; 326] = pow5_table();

/// The shortest decimal `digits · 10^e10` that reads back as the finite,
/// non-zero float with these IEEE fields; of the shortest, the closest to
/// the float, and the upper one of two equally close.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // The float is m2 · 2^(e2 + 2); the interval of decimals that read back
    // as it is [mm, mp] · 2^e2, around mv · 2^e2.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Reading rounds half to even, so an even mantissa owns its bounds.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The gap below is half as wide at a power of two.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // vr, vp and vm are mv, mp and mm times 2^e2 / 10^e10, rounded down;
    // vm_exact says that rounding dropped only zeros from vm.
    let (e10, mut vr, mut vp, mut vm);
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let shift = -e2 + q as i32 + POW5_BITS + pow5_bits(q as i32) - 1;
        [vr, vp, vm] = mul_shift_all(m2, &POW5_INV[q as usize], shift as u32, mm_shift);
        if q <= 21 && !mv.is_multiple_of(5) {
            // At most one of mm, mv and mp is a multiple of 5, so a bound
            // can be exact only when mv is not.
            if accept_bounds {
                vm_exact = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let shift = q as i32 - (pow5_bits(i) - POW5_BITS);
        [vr, vp, vm] = mul_shift_all(m2, &POW5[i as usize], shift as u32, mm_shift);
        if q <= 1 {
            // mv = 4 m2 and mp = mv + 2 have at least q trailing zero bits;
            // mm = mv - 1 - mm_shift has one exactly when mm_shift is 1.
            if accept_bounds {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate,
    // remembering the last digit dropped from vr. Ryū rounds an exact tie
    // (…5 followed by nothing) to even here; core rounds it up, and so does
    // "last dropped digit >= 5".
    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 10 > vm / 10 {
        vm_exact &= vm.is_multiple_of(10);
        last_removed = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_exact {
        // The lower bound is itself a candidate: drop its trailing zeros.
        while vm.is_multiple_of(10) {
            last_removed = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // vr + 1 is needed when vr has fallen out of the interval (onto an
    // excluded lower bound) or when the dropped digits were half or more.
    let below = vr == vm && !(accept_bounds && vm_exact);
    (vr + u64::from(below || last_removed >= 5), e10 + removed)
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Bits in `5^e` (1 for `e = 0`), for `0 <= e <= 3528`.
const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// Whether `5^p` divides `v`.
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while count < p && v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `m · mul >> shift` for the 128-bit `mul`, for each of 4m, 4m + 2 and
/// 4m - 1 - mm_shift: (vr, vp, vm).
fn mul_shift_all(m: u64, mul: &[u64; 2], shift: u32, mm_shift: u64) -> [u64; 3] {
    let mul_shift = |m: u64| {
        let low = u128::from(m) * u128::from(mul[0]);
        let high = u128::from(m) * u128::from(mul[1]);
        (((low >> 64) + high) >> (shift - 64)) as u64
    };
    [
        mul_shift(4 * m),
        mul_shift(4 * m + 2),
        mul_shift(4 * m - 1 - mm_shift),
    ]
}

// ---------------------------------------------------------------------------
// The power-of-five tables, computed at compile time over a small bignum.
// ---------------------------------------------------------------------------

/// Little-endian 64-bit limbs: 960 bits hold `2^959` and `5^341`.
const LIMBS: usize = 15;
type Big = [u64; LIMBS];

/// Limbs `k` and `k + 1` of `n` as one number (zero past the top).
const fn limb_pair(n: &Big, k: usize) -> u128 {
    let low = if k < LIMBS { n[k] } else { 0 };
    let high = if k + 1 < LIMBS { n[k + 1] } else { 0 };
    low as u128 | (high as u128) << 64
}

/// `floor(n / 2^shift)`'s low 128 bits, as (low, high) words.
const fn bits_from(n: &Big, shift: u32) -> [u64; 2] {
    let (limb, bit) = ((shift / 64) as usize, shift % 64);
    [
        (limb_pair(n, limb) >> bit) as u64,
        (limb_pair(n, limb + 1) >> bit) as u64,
    ]
}

const fn pow5_table() -> [[u64; 2]; 326] {
    let mut table = [[0; 2]; 326];
    let mut pow: Big = [0; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let shift = pow5_bits(i as i32) - POW5_BITS;
        table[i] = if shift >= 0 {
            bits_from(&pow, shift as u32)
        } else {
            let top = (pow[0] as u128 | (pow[1] as u128) << 64) << -shift;
            [top as u64, (top >> 64) as u64]
        };
        // pow *= 5
        let mut carry = 0;
        let mut k = 0;
        while k < LIMBS {
            let product = pow[k] as u128 * 5 + carry;
            pow[k] = product as u64;
            carry = product >> 64;
            k += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [[u64; 2]; 342] {
    // x = floor(2^TOP / 5^q), kept exact by one division by 5 per q, since
    // floor(floor(a / b) / c) = floor(a / (b c)); floor(2^k / 5^q) is then
    // x shifted right by TOP - k.
    const TOP: i32 = 64 * LIMBS as i32 - 1;
    let mut table = [[0; 2]; 342];
    let mut x: Big = [0; LIMBS];
    x[LIMBS - 1] = 1 << 63;
    let mut q = 0;
    while q < table.len() {
        let k = pow5_bits(q as i32) - 1 + POW5_BITS;
        let [low, high] = bits_from(&x, (TOP - k) as u32);
        let (low, carry) = low.overflowing_add(1);
        table[q] = [low, high + carry as u64];
        // x /= 5
        let mut rem = 0;
        let mut k = LIMBS;
        while k > 0 {
            k -= 1;
            let part = rem << 64 | x[k] as u128;
            x[k] = (part / 5) as u64;
            rem = part % 5;
        }
        q += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_ryu_s_published_entries() {
        // Entries of DOUBLE_POW5_INV_SPLIT and DOUBLE_POW5_SPLIT in the
        // reference implementation's d2s_full_table.h.
        assert_eq!(POW5_INV[0], [1, 2_305_843_009_213_693_952]);
        assert_eq!(
            POW5_INV[1],
            [11_068_046_444_225_730_970, 1_844_674_407_370_955_161]
        );
        assert_eq!(POW5[0], [0, 1_152_921_504_606_846_976]);
        assert_eq!(POW5[1], [0, 1_441_151_880_758_558_720]);
    }
}
