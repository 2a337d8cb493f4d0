//! `write_f64` spells every float exactly as `format!("{v:e}")` does, and
//! `write_u64` every integer as `format!("{v}")` does.
//!
//! The inputs are seeded: random bit patterns (both signs, subnormals
//! included), random integers up to 2^64 (where two shortest candidates
//! can tie), decimals `m · 10^k`, every power of two, and the special
//! values. A debug build checks ~200k floats; a release build checks
//! millions (`cargo test --release -p rubik-json --test f64_format`).

use rubik_json::{write_f64, write_u64, F64_LEN, U64_LEN};

/// Floats per generated family.
const CASES: usize = if cfg!(debug_assertions) {
    50_000
} else {
    2_000_000
};

/// SplitMix64: a seeded stream of 64-bit words.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn spelled(v: f64) -> String {
    let mut buf = [0; F64_LEN];
    let n = write_f64(v, &mut buf);
    String::from_utf8(buf[..n].to_vec()).expect("the writer emits ASCII")
}

#[track_caller]
fn check(v: f64) {
    assert_eq!(spelled(v), format!("{v:e}"), "bits {:#018x}", v.to_bits());
}

#[test]
fn exact_ties_round_half_up_as_core_does() {
    // Both have two shortest candidates exactly as far away; round half
    // to even would give …312e-8 and …622e15.
    assert_eq!(spelled(2f64.powi(-25)), "2.9802322387695313e-8");
    assert_eq!(
        spelled(f64::from_bits(0x4317_9085_685d_83c9)),
        "1.6582067800885623e15"
    );
}

#[test]
fn special_values_are_spelled_as_core_spells_them() {
    for (v, text) in [
        (0.0, "0e0"),
        (-0.0, "-0e0"),
        (f64::INFINITY, "inf"),
        (f64::NEG_INFINITY, "-inf"),
        (f64::NAN, "NaN"),
        (-f64::NAN, "NaN"),
        (f64::from_bits(0x7ff0_0000_0000_0001), "NaN"),
        (f64::from_bits(0xfff8_dead_beef_0001), "NaN"),
        (5e-324, "5e-324"),
        (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
        (-f64::MIN_POSITIVE, "-2.2250738585072014e-308"),
        (f64::MAX, "1.7976931348623157e308"),
        (f64::MIN, "-1.7976931348623157e308"),
        (1.0, "1e0"),
        (0.1 + 0.2, "3.0000000000000004e-1"),
    ] {
        assert_eq!(spelled(v), text);
        check(v);
    }
    let longest = spelled(-f64::MIN_POSITIVE);
    assert_eq!(longest.len(), F64_LEN);
}

#[test]
fn every_power_of_two_matches_core() {
    for bits in (0..2047u64).map(|e| e << 52).chain((0..52).map(|b| 1 << b)) {
        check(f64::from_bits(bits));
        check(-f64::from_bits(bits));
    }
}

#[test]
fn random_bit_patterns_match_core() {
    let mut rng = Rng(0x5eed_f64e);
    for _ in 0..CASES {
        check(f64::from_bits(rng.next()));
        // Subnormals: a zero exponent field, either sign.
        check(f64::from_bits(rng.next() & 0x800f_ffff_ffff_ffff));
    }
}

#[test]
fn random_integers_match_core() {
    let mut rng = Rng(0x1e57_0001);
    for _ in 0..CASES {
        let v = rng.next() >> rng.below(64);
        check(v as f64);
        check(-(v as f64));
    }
}

#[test]
fn short_decimals_match_core() {
    let mut rng = Rng(0xdec1_3a15);
    for _ in 0..CASES {
        let digits = 10u64.pow(1 + rng.below(17) as u32);
        let m = rng.below(digits);
        let k = rng.below(640) as i32 - 340;
        check(format!("{m}e{k}").parse().expect("a decimal literal"));
    }
}

#[test]
fn integers_are_spelled_as_display_spells_them() {
    let mut rng = Rng(0x0064_0064);
    let mut buf = [0; U64_LEN];
    for _ in 0..CASES {
        let v = rng.next() >> rng.below(64);
        let n = write_u64(v, &mut buf);
        assert_eq!(&buf[..n], v.to_string().as_bytes());
    }
    let powers = (0..20).map(|p| 10u64.pow(p));
    for v in powers.flat_map(|v| [v - 1, v, v + 1]).chain([u64::MAX]) {
        let n = write_u64(v, &mut buf);
        assert_eq!(&buf[..n], v.to_string().as_bytes());
    }
    assert_eq!(write_u64(u64::MAX, &mut buf), U64_LEN);
}
