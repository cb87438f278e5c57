//! Decimal text of the stream's numbers without `core::fmt`: integers
//! exactly as `to_string` prints them, and `f64`s exactly as `Display`
//! prints them.
//!
//! `{}` prints a float as the shortest decimal that parses back to the
//! same bits, laid out positionally (`0.0000001`,
//! `1000000000000000000000`, never an exponent, no trailing `.0`). std
//! finds those digits with Grisu and falls back to Dragon4 when Grisu
//! cannot decide. [`push_f64`] finds the same digits with Ryu (Adams,
//! "Ryū: fast float-to-string conversion", PLDI 2018): the value and its
//! two rounding bounds are scaled by a power of ten through 64×128-bit
//! multiplies against 125-bit powers of five, and digits are dropped
//! while the scaled bounds still differ. Two rules follow std, not Ryu's
//! published code:
//!
//! - a value exactly halfway between the two closest shortest decimals
//!   rounds *up*, as Dragon4's `2·mant ≥ scale` does (Ryu rounds such
//!   ties to even);
//! - every power of two has a lower bound half as far away as its upper
//!   one, `f64::MIN_POSITIVE` included, as std's decoder has it (Ryu
//!   makes that one symmetric, which gives it the same digits).
//!
//! The tables are cut at compile time by `const fn`s from the exact
//! integers `5^i` and `⌊2^832 / 5^i⌋`, so no table is copied in from
//! elsewhere. Zero, negative, subnormal and non-finite values (none of
//! which the engine emits on its hot path) still go through `write!`.

use std::io::Write as _;

/// `"00" "01" … "99"`: the two digits of every value below 100.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
};

/// `10^i` for every `i` a `u64` reaches.
const POW10: [u64; 20] = {
    let mut pows = [1; 20];
    let mut i = 1;
    while i < 20 {
        pows[i] = pows[i - 1] * 10;
        i += 1;
    }
    pows
};

/// How many decimal digits `v` takes (1 for 0): the bit length times
/// log₁₀ 2 gives the count or one less, and one comparison decides.
fn decimal_len(v: u64) -> usize {
    let v = v | 1;
    let guess = (((u64::BITS - v.leading_zeros()) * 1233) >> 12) as usize;
    guess + usize::from(v >= POW10[guess])
}

/// Fill `buf` with the last `buf.len()` decimal digits of `v`, from the
/// end: eight at a time while eight are left, as four independent pairs,
/// then a pair at a time.
fn write_digits(buf: &mut [u8], mut v: u64) {
    let mut at = buf.len();
    while at >= 8 {
        let eight = (v % 100_000_000) as u32;
        v /= 100_000_000;
        at -= 8;
        let (high, low) = ((eight / 10_000) as usize, (eight % 10_000) as usize);
        for (i, pair) in [high / 100, high % 100, low / 100, low % 100]
            .into_iter()
            .enumerate()
        {
            buf[at + 2 * i..at + 2 * i + 2].copy_from_slice(&DIGIT_PAIRS[pair]);
        }
    }
    let mut v = v as u32;
    while at >= 2 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[(v % 100) as usize]);
        v /= 100;
    }
    if at == 1 {
        buf[0] = b'0' + (v % 10) as u8;
    }
}

/// Append the first `len` bytes of `buf`: one copy of a fixed size and a
/// cut, in place of a copy of variable length.
fn push_prefix<const N: usize>(out: &mut Vec<u8>, buf: &[u8; N], len: usize) {
    out.extend_from_slice(buf);
    out.truncate(out.len() - (N - len));
}

/// Append `v` in decimal, exactly as `v.to_string()` prints it.
pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0; 20];
    let len = decimal_len(v);
    write_digits(&mut buf[..len], v);
    push_prefix(out, &buf, len);
}

/// Append `v` in decimal, exactly as `v.to_string()` prints it.
pub(crate) fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Append `v` exactly as `write!(out, "{v}")` does.
pub(crate) fn push_f64(out: &mut Vec<u8>, v: f64) {
    let bits = v.to_bits();
    // The exponent field with the sign bit above it: 1..=2046 exactly
    // for the positive normal values.
    let biased = (bits >> MANTISSA_BITS) as u32;
    if !(1..=2046).contains(&biased) {
        write!(out, "{v}").expect("writing to a Vec cannot fail");
        return;
    }
    let (digits, exp) = shortest(bits);
    push_positional(out, digits, exp);
}

/// Longest text the fast layout builds on the stack: a 17-digit value
/// with up to 20 zeros after `0.` or before the point.
const LAYOUT: usize = 40;

/// Append `digits × 10^exp` as `Display` lays it out: `0.` and zeros
/// before the digits when the value is below 1, a point among the
/// digits, or zeros after them up to the units.
fn push_positional(out: &mut Vec<u8>, digits: u64, exp: i32) {
    let len = decimal_len(digits);
    // Digits before the decimal point; 0 or less below 1.
    let point = exp + len as i32;
    let mut buf = [b'0'; LAYOUT];
    if point <= 0 {
        let start = 2 + point.unsigned_abs() as usize;
        if start + len > LAYOUT {
            out.extend_from_slice(b"0.");
            out.resize(out.len() + start - 2, b'0');
            write_digits(&mut buf[..len], digits);
            out.extend_from_slice(&buf[..len]);
            return;
        }
        buf[1] = b'.';
        write_digits(&mut buf[start..start + len], digits);
        push_prefix(out, &buf, start + len);
    } else if (point as usize) < len {
        let point = point as usize;
        write_digits(&mut buf[1..=len], digits);
        buf.copy_within(1..=point, 0);
        buf[point] = b'.';
        push_prefix(out, &buf, len + 1);
    } else {
        let point = point as usize;
        write_digits(&mut buf[..len], digits);
        if point > LAYOUT {
            out.extend_from_slice(&buf[..len]);
            out.resize(out.len() + point - len, b'0');
            return;
        }
        push_prefix(out, &buf, point);
    }
}

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;

/// Bits kept of each power of five and of each inverse (Ryu's
/// `DOUBLE_POW5_BITCOUNT` and `DOUBLE_POW5_INV_BITCOUNT`).
const POW5_BITS: i32 = 125;
const POW5_INV_BITS: i32 = 125;

/// `5^i` cut to its top 125 bits, for `i` in `1..=325`, the range
/// [`shortest`] reads for a value below 2^54 (entry 0 is unused).
static POW5: [u128; 326] = pow5_table();
/// `⌊2^(len(5^q) − 1 + 125) / 5^q⌋ + 1`, where `len` is the bit length,
/// for `q` in `0..=290`, the range [`shortest`] reads for a value of 2^54
/// or more.
static POW5_INV: [u128; 291] = pow5_inv_table();

/// A non-negative integer in 64-bit limbs, least significant first:
/// wide enough for `5^325` (755 bits) and `2^832`.
type Big = [u64; 14];
/// The numerator the inverses are cut from: `⌊2^832 / 5^q⌋` keeps at
/// least 125 bits for every `q` of the table (`5^290` has 674).
const INV_NUMERATOR_BITS: u32 = 832;

const fn bit_len(big: &Big) -> u32 {
    let mut i = big.len();
    while i > 0 {
        i -= 1;
        if big[i] != 0 {
            return 64 * i as u32 + u64::BITS - big[i].leading_zeros();
        }
    }
    0
}

/// Limb `i` of `big`, 0 above its top.
const fn limb(big: &Big, i: usize) -> u64 {
    if i < big.len() {
        big[i]
    } else {
        0
    }
}

/// `⌊big / 2^shift⌋`, of which only the low 128 bits are kept.
const fn shifted(big: &Big, shift: u32) -> u128 {
    let at = (shift / 64) as usize;
    let low = limb(big, at) as u128 | (limb(big, at + 1) as u128) << 64;
    match shift % 64 {
        0 => low,
        bits => low >> bits | (limb(big, at + 2) as u128) << (128 - bits),
    }
}

const fn mul_small(big: &mut Big, by: u64) {
    let mut carry = 0;
    let mut i = 0;
    while i < big.len() {
        let product = big[i] as u128 * by as u128 + carry;
        big[i] = product as u64;
        carry = product >> 64;
        i += 1;
    }
    assert!(carry == 0, "the product outgrew the limbs");
}

const fn div_small(big: &mut Big, by: u64) {
    let mut rem = 0;
    let mut i = big.len();
    while i > 0 {
        i -= 1;
        let cur = rem << 64 | big[i] as u128;
        big[i] = (cur / by as u128) as u64;
        rem = cur % by as u128;
    }
}

const fn pow5_table<const N: usize>() -> [u128; N] {
    let mut table = [0; N];
    let mut pow: Big = [0; 14];
    pow[0] = 1;
    let mut i = 0;
    while i < N {
        let len = bit_len(&pow) as i32;
        table[i] = if len <= POW5_BITS {
            shifted(&pow, 0) << (POW5_BITS - len)
        } else {
            shifted(&pow, (len - POW5_BITS) as u32)
        };
        mul_small(&mut pow, 5);
        i += 1;
    }
    table
}

const fn pow5_inv_table<const N: usize>() -> [u128; N] {
    let mut table = [0; N];
    let mut pow: Big = [0; 14];
    pow[0] = 1;
    // ⌊2^832 / 5^q⌋, divided by 5 once per entry: ⌊⌊a/b⌋/c⌋ = ⌊a/(bc)⌋.
    let mut inv: Big = [0; 14];
    inv[(INV_NUMERATOR_BITS / 64) as usize] = 1 << (INV_NUMERATOR_BITS % 64);
    let mut q = 0;
    while q < N {
        let len = bit_len(&pow) as i32;
        let keep = (len - 1 + POW5_INV_BITS) as u32;
        table[q] = shifted(&inv, INV_NUMERATOR_BITS - keep) + 1;
        mul_small(&mut pow, 5);
        div_small(&mut inv, 5);
        q += 1;
    }
    table
}

/// `⌈log₂ 5^e⌉` (1 for `e = 0`), for `e` up to 3 528.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log₁₀ 2^e⌋`, for `e` up to 1 650.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log₁₀ 5^e⌋`, for `e` up to 2 620.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether the positive `v` is a multiple of `5^p`.
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) && count < p {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^shift⌋` for a 125-bit `mul` and a shift of at least 64.
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let low = m as u128 * (mul as u64) as u128;
    let high = m as u128 * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// The shortest `digits × 10^exp` that parses back to the positive
/// normal `f64` with these bits; of two such, the one closer to the
/// value, and of two equally close, the larger.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as i32;
    // The value is m2 · 2^(e2 + 2); the two extra bits leave room for
    // the bounds, which lie half a step either side (a quarter below a
    // power of two).
    let e2 = ieee_exponent - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2;
    let m2 = (1 << MANTISSA_BITS) | ieee_mantissa;
    // An even mantissa wins the round-to-even a parser applies at a
    // bound, so its bounds parse back to it.
    let accept_bounds = m2.is_multiple_of(2);
    let mv = 4 * m2;
    let mp = mv + 2;
    let mm = mv - 1 - u64::from(ieee_mantissa != 0);

    // vr, vp and vm: the value and its bounds scaled by 10^-e10 and
    // floored. vm_exact: the scaled lower bound has no fraction.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let mul = POW5_INV[q as usize];
        let shift = q as i32 - e2 + POW5_INV_BITS + pow5_bits(q as i32) - 1;
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // The scaled bounds are exact when 5^q divides them; from
        // q = 22 on, no exact bound can be the shortest (Ryu's bound).
        if q <= 21 {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let mul = POW5[i as usize];
        let shift = q as i32 - pow5_bits(i) + POW5_BITS;
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // The scaling divides by 2^q, so with q at most 1 the scaled
        // upper bound is exact (mp is even), and the lower one when q
        // is 0 or mm is even (the bounds are symmetric). From q = 2 on,
        // neither is.
        if q <= 1 {
            if accept_bounds {
                vm_exact = q == 0 || mm.is_multiple_of(2);
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the bounds still differ above the last one. A
    // dropped digit of 5 or more rounds up, exact halves included.
    let mut removed = 0;
    let output = if vm_exact {
        // The lower bound may itself be the answer: keep track of
        // whether every digit dropped from it is a zero.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_exact &= vm % 10 == 0;
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_exact {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_exact) || last_removed >= 5)
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
        // vr + 1 when vr fell below the lower bound.
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn display(v: f64) -> String {
        let mut out = Vec::new();
        push_f64(&mut out, v);
        String::from_utf8(out).expect("ASCII")
    }

    /// `push_f64` writes `Display`'s bytes for `v`.
    #[track_caller]
    fn check(v: f64) {
        assert_eq!(display(v), v.to_string(), "bits {:#018x}", v.to_bits());
    }

    /// `v` and the floats either side of it.
    #[track_caller]
    fn check_with_neighbours(v: f64) {
        let bits = v.to_bits();
        for b in [bits.wrapping_sub(1), bits, bits + 1] {
            let n = f64::from_bits(b);
            if n.is_finite() {
                check(n);
            }
        }
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// `count` random bit patterns: every sign, exponent and mantissa.
    fn check_random(seed: u64, count: u32) {
        let mut next = xorshift(seed);
        for _ in 0..count {
            let v = f64::from_bits(next());
            if v.is_finite() {
                check(v);
            }
        }
    }

    #[test]
    fn edge_values_match_display() {
        for v in [
            0.0,
            -0.0,
            -1.5,
            f64::from_bits(1),
            f64::from_bits((1 << MANTISSA_BITS) - 1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            0.1,
            0.3,
            1.0 / 3.0,
            2.5e-7,
            1e-7,
            1e21,
            1e22,
            123456789012345680000.0,
        ] {
            check_with_neighbours(v);
        }
        assert_eq!(display(f64::INFINITY), "inf");
        assert_eq!(display(f64::NAN), "NaN");
    }

    #[test]
    fn every_power_of_two_and_of_ten_matches_display() {
        for e in -1074..=1023 {
            check_with_neighbours(2f64.powi(e));
        }
        for e in -323..=308 {
            let v: f64 = format!("1e{e}").parse().unwrap();
            check_with_neighbours(v);
        }
    }

    /// Every exponent of the positive normal range, with mantissas at
    /// both ends and in between: every table entry is read.
    #[test]
    fn every_exponent_matches_display() {
        let mut next = xorshift(0x1234_5678_9ABC_DEF1);
        for exponent in 1u64..=2046 {
            for mantissa in [0, 1, 2, (1 << 52) - 1, next() >> 12, next() >> 12] {
                check(f64::from_bits(exponent << 52 | mantissa));
            }
        }
    }

    #[test]
    fn integers_around_2_pow_53_match_display() {
        for base in [1u64 << 53, 1 << 54, 1 << 60, 10u64.pow(17), 10u64.pow(18)] {
            for k in 0..2_000 {
                check((base - 1_000 + k) as f64);
            }
        }
        for v in 1u32..100_000 {
            check(f64::from(v));
        }
    }

    #[test]
    fn seventeen_significant_digits_match_display() {
        let mut next = xorshift(0x0DDB_1A5E_5BAD_5EED);
        for _ in 0..100_000 {
            let digits = 10u64.pow(16) + next() % (9 * 10u64.pow(16));
            let exp = (next() % 600) as i32 - 300;
            let v: f64 = format!("{digits}e{exp}").parse().unwrap();
            check(v);
        }
    }

    /// A value exactly halfway between its two closest shortest
    /// decimals rounds up, as `Display` does (Ryu's published code
    /// would round this one down to the even ...312).
    #[test]
    fn exact_ties_round_up() {
        // 1 + 2^-17 is 1.00000762939453125 exactly.
        let tie = 1.0 + 2f64.powi(-17);
        assert_eq!(display(tie), "1.0000076293945313");
        // Values with few mantissa bits end in an exact 5 within reach
        // of the shortest digits: every binade, every short mantissa.
        let mut next = xorshift(0x7E57_0F71_E5C0_FFEE);
        for exponent in 1u64..=2046 {
            for kept in [14, 17, 20, 24] {
                let mantissa = (next() >> 12) & !((1 << (52 - kept)) - 1);
                check(f64::from_bits(exponent << 52 | mantissa));
            }
        }
    }

    /// Every float of the five golden streams prints back byte for
    /// byte.
    #[test]
    fn every_golden_float_prints_back_unchanged() {
        const FLOAT_KEYS: [&str; 5] = [
            "gco2_per_kwh",
            "service_g",
            "energy_kwh",
            "keepalive_g",
            "egress_g",
        ];
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
        let (mut streams, mut floats) = (0, 0);
        for entry in std::fs::read_dir(dir).expect("the golden streams") {
            let path = entry.expect("a directory entry").path();
            if path.extension() != Some("jsonl".as_ref()) {
                continue;
            }
            streams += 1;
            let text = std::fs::read_to_string(&path).expect("a golden stream");
            for line in text.lines() {
                for key in FLOAT_KEYS {
                    if let Some(printed) = crate::json::field(line, key) {
                        let v: f64 = printed.parse().expect("a float");
                        assert_eq!(display(v), printed, "{key} in {}", path.display());
                        floats += 1;
                    }
                }
            }
        }
        assert_eq!(streams, 5);
        assert!(floats > 1_000, "only {floats} floats in the golden streams");
    }

    #[test]
    fn a_million_random_bit_patterns_match_display() {
        check_random(0x9E37_79B9_7F4A_7C15, 1_000_000);
    }

    /// Ten million more, in release builds only (`cargo test --release`).
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn ten_million_random_bit_patterns_match_display() {
        check_random(0xC0FF_EE15_600D_CAFE, 10_000_000);
    }

    /// The tables against their definitions: powers of five that fit
    /// in a `u128` directly, the inverses by a bit-at-a-time long
    /// division, and the bit-length estimate the shifts use against the
    /// exact lengths.
    #[test]
    fn tables_hold_their_definitions() {
        let mut pow: Big = [0; 14];
        pow[0] = 1;
        for (i, &entry) in POW5.iter().enumerate() {
            let len = bit_len(&pow) as i32;
            assert_eq!(pow5_bits(i as i32), len, "len(5^{i})");
            assert_eq!(entry >> (POW5_BITS - 1), 1, "5^{i} keeps 125 bits");
            if let Some(exact) = 5u128.checked_pow(i as u32) {
                let want = if len <= POW5_BITS {
                    exact << (POW5_BITS - len)
                } else {
                    exact >> (len - POW5_BITS)
                };
                assert_eq!(entry, want, "5^{i}");
            }
            mul_small(&mut pow, 5);
        }
        let mut pow: Big = [0; 14];
        pow[0] = 1;
        for (q, &entry) in POW5_INV.iter().enumerate() {
            // ⌊2^keep / 5^q⌋ by shift-and-subtract, one bit at a time.
            let keep = (bit_len(&pow) as i32 - 1 + POW5_INV_BITS) as u32;
            let (mut quotient, mut rem) = (0u128, [0u64; 14]);
            for bit in (0..=keep).rev() {
                // rem = 2·rem + (the numerator's bit), then subtract.
                let mut carry = u64::from(bit == keep);
                for limb in rem.iter_mut() {
                    let next = *limb >> 63;
                    *limb = *limb << 1 | carry;
                    carry = next;
                }
                let ge = rem.iter().rev().cmp(pow.iter().rev()) != std::cmp::Ordering::Less;
                if ge {
                    let mut borrow = false;
                    for (r, &p) in rem.iter_mut().zip(&pow) {
                        let (d, b1) = r.overflowing_sub(p);
                        let (d, b2) = d.overflowing_sub(u64::from(borrow));
                        *r = d;
                        borrow = b1 || b2;
                    }
                }
                if bit < 128 {
                    quotient |= u128::from(ge) << bit;
                }
            }
            assert_eq!(entry, quotient + 1, "2^{keep} / 5^{q}");
            mul_small(&mut pow, 5);
        }
    }
}
