//! Shortest round-trip digits of an `f64`: the `d2d` core of Ryu (Ulf
//! Adams, "Ryū: Fast Float-to-String Conversion", PLDI 2018), kept to the
//! digits Rust's `{}` prints.
//!
//! Two things differ from the reference implementation. An exact decimal
//! tie rounds up, away from zero, as core's shortest mode does (the
//! reference rounds it to even, and so disagrees with core on about one
//! value in four thousand); with that rule the reference's
//! `vr_is_trailing_zeros` bookkeeping decides nothing and is gone. And the
//! two power-of-5 tables are derived at compile time by [`tables`] rather
//! than pasted.

/// Significant bits of every table entry. The one exception is
/// `POW5_INV_SPLIT[0]`, 2^125 + 1.
const POW5_BITCOUNT: i32 = 125;

/// `POW5_SPLIT[i]` is read for binary exponents below zero at
/// `i = -e2 - q`, at most 1076 − 751 = 325; `POW5_INV_SPLIT[q]` for those
/// at or above zero at `q` ≤ ⌊log10 2^969⌋ = 291.
const POW5_TABLE_SIZE: usize = 326;
const POW5_INV_TABLE_SIZE: usize = 292;

type Table<const N: usize> = [[u64; 2]; N];

/// `POW5_SPLIT[i]` = the top 125 bits of 5^i, as `[low, high]` words.
static POW5_SPLIT: Table<POW5_TABLE_SIZE> = TABLES.0;
/// `POW5_INV_SPLIT[i]` = ⌊2^(pow5bits(i) − 1 + 125) / 5^i⌋ + 1, as
/// `[low, high]` words.
static POW5_INV_SPLIT: Table<POW5_INV_TABLE_SIZE> = TABLES.1;

const TABLES: (Table<POW5_TABLE_SIZE>, Table<POW5_INV_TABLE_SIZE>) = tables();

/// A 1024-bit unsigned integer, least significant limb first: wide enough
/// for 5^325 (755 bits) and for 2^1000.
type Big = [u64; 16];

/// Both tables, from one walk over i: 5^i by repeated multiplication and
/// ⌊2^1000 / 5^i⌋ by repeated division (⌊⌊x / 5⌋ / 5⌋ = ⌊x / 25⌋, so
/// the floors compose exactly). Each ⌊2^j / 5^i⌋ with j ≤ 1000 is then
/// ⌊2^1000 / 5^i⌋ shifted right by 1000 − j, for the same reason.
const fn tables() -> (Table<POW5_TABLE_SIZE>, Table<POW5_INV_TABLE_SIZE>) {
    let mut pow5 = [[0; 2]; POW5_TABLE_SIZE];
    let mut inv = [[0; 2]; POW5_INV_TABLE_SIZE];
    let mut power: Big = [0; 16];
    power[0] = 1;
    let mut inverse: Big = [0; 16];
    inverse[1000 / 64] = 1 << (1000 % 64);
    let mut i = 0;
    while i < POW5_TABLE_SIZE {
        let bits = bit_length(&power);
        let top = if bits > POW5_BITCOUNT {
            window(&power, (bits - POW5_BITCOUNT) as u32)
        } else {
            window(&power, 0) << (POW5_BITCOUNT - bits)
        };
        pow5[i] = split(top);
        if i < POW5_INV_TABLE_SIZE {
            let j = bits - 1 + POW5_BITCOUNT;
            inv[i] = split(window(&inverse, (1000 - j) as u32) + 1);
        }
        power = mul5(power);
        inverse = div5(inverse);
        i += 1;
    }
    (pow5, inv)
}

const fn split(v: u128) -> [u64; 2] {
    [v as u64, (v >> 64) as u64]
}

const fn mul5(mut a: Big) -> Big {
    let mut carry = 0u128;
    let mut i = 0;
    while i < a.len() {
        let t = a[i] as u128 * 5 + carry;
        a[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
    a
}

const fn div5(mut a: Big) -> Big {
    let mut rem = 0u128;
    let mut i = a.len();
    while i > 0 {
        i -= 1;
        let t = (rem << 64) | a[i] as u128;
        a[i] = (t / 5) as u64;
        rem = t % 5;
    }
    a
}

const fn bit_length(a: &Big) -> i32 {
    let mut i = a.len();
    while i > 0 {
        i -= 1;
        if a[i] != 0 {
            return i as i32 * 64 + 64 - a[i].leading_zeros() as i32;
        }
    }
    0
}

/// ⌊a / 2^shift⌋ mod 2^128, for shift < 896 so that the three limbs read
/// exist; the tables shift by at most 1000 − 125, for 1 / 5^0.
const fn window(a: &Big, shift: u32) -> u128 {
    let i = (shift / 64) as usize;
    let offset = shift % 64;
    let low = a[i] as u128 | (a[i + 1] as u128) << 64;
    if offset == 0 {
        low
    } else {
        (low >> offset) | (a[i + 2] as u128) << (128 - offset)
    }
}

/// ⌈log2 5^e⌉ for 1 ≤ e ≤ 3528, and 1 for e = 0: the bit length of 5^e.
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// ⌊log10 2^e⌋ for 0 ≤ e ≤ 1650.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// ⌊log10 5^e⌋ for 0 ≤ e ≤ 2620.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) && count < p {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// ⌊m · mul / 2^j⌋ for a 125-bit table entry and 64 ≤ j.
#[inline]
fn mul_shift(m: u64, mul: &[u64; 2], j: u32) -> u64 {
    let low = u128::from(m) * u128::from(mul[0]);
    let high = u128::from(m) * u128::from(mul[1]);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest decimal `digits · 10^exponent` that parses back to `f`,
/// the one nearest `f` when several are that short, an exact tie rounded
/// up. `f` must be finite, positive and non-zero.
pub(crate) fn d2d(f: f64) -> (u64, i32) {
    let bits = f.to_bits();
    let ieee_mantissa = bits & ((1 << 52) - 1);
    let ieee_exponent = ((bits >> 52) & 0x7ff) as u32;
    debug_assert!(
        ieee_exponent < 0x7ff && (ieee_exponent != 0 || ieee_mantissa != 0),
        "d2d({f})"
    );
    // f = m2 · 2^e2, with two more bits of room for the interval bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 1023 - 52 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - 1023 - 52 - 2,
            (1 << 52) | ieee_mantissa,
        )
    };
    // Round-to-even parsing maps the interval's bounds back to f when its
    // mantissa is even.
    let accept_bounds = m2 & 1 == 0;
    // The interval [mm, mp] around mv = 4·m2, scaled by 2^e2: the lower
    // gap is half as wide at a power of two.
    let mv = 4 * m2;
    let mp = mv + 2;
    let mm = mv - 1 - u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // The three, scaled to a decimal exponent e10 and truncated; whether
    // the truncation dropped only zeros is tracked for mm alone, since
    // ties round up whatever mv dropped.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        let j = (-e2 + q as i32 + POW5_BITCOUNT + pow5bits(q as i32) - 1) as u32;
        let mul = &POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        e10 = q as i32;
        // At most one of mm, mv and mp is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        let i = -e2 - q as i32;
        let j = (q as i32 - (pow5bits(i) - POW5_BITCOUNT)) as u32;
        let mul = &POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        e10 = q as i32 + e2;
        if q <= 1 {
            // With q ≤ 1 a scaled bound is exact when it is even: mp =
            // mv + 2 always is, mm = mv − 2 unless the lower gap is the
            // narrow one.
            if accept_bounds {
                vm_is_trailing_zeros = mm.is_multiple_of(2);
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // Rare (below 1 %): vm may itself be the shortest, when mm was
        // exact and is accepted.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_is_trailing_zeros) || last_removed_digit >= 5)
    } else {
        let mut round_up = false;
        // Two digits at a time first: most values drop at least two.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_published_entries() {
        assert_eq!(POW5_INV_SPLIT[0], [1, 1 << 61]);
        assert_eq!(POW5_SPLIT[1], [0, 1_441_151_880_758_558_720]);
    }

    #[test]
    fn every_entry_has_its_top_bit_at_124() {
        let top_bit =
            |e: &[u64; 2]| 127 - (u128::from(e[1]) << 64 | u128::from(e[0])).leading_zeros();
        for (i, entry) in POW5_SPLIT.iter().enumerate() {
            assert_eq!(top_bit(entry), 124, "POW5_SPLIT[{i}]");
        }
        // 2^125 / 5^0 + 1 is the one entry a bit wider.
        assert_eq!(top_bit(&POW5_INV_SPLIT[0]), 125);
        for (i, entry) in POW5_INV_SPLIT.iter().enumerate().skip(1) {
            assert_eq!(top_bit(entry), 124, "POW5_INV_SPLIT[{i}]");
        }
    }

    #[test]
    fn pow5bits_is_the_bit_length_the_tables_were_built_with() {
        let mut power: Big = [0; 16];
        power[0] = 1;
        for e in 0..POW5_TABLE_SIZE as i32 {
            assert_eq!(pow5bits(e), bit_length(&power), "5^{e}");
            power = mul5(power);
        }
    }

    /// ⌊2^j / p⌋ by schoolbook long division, one bit at a time.
    fn floor_pow2_over(j: u32, p: u128) -> u128 {
        let (mut quotient, mut rem) = (0u128, 0u128);
        for bit in (0..=j).rev() {
            rem = rem << 1 | u128::from(bit == j);
            quotient <<= 1;
            if rem >= p {
                rem -= p;
                quotient |= 1;
            }
        }
        quotient
    }

    /// Every entry whose power of 5 fits in 127 bits, recomputed without
    /// the 1024-bit walk.
    #[test]
    fn entries_below_5_to_the_55_match_a_direct_computation() {
        for i in 0..55usize {
            let p = 5u128.pow(i as u32);
            let bits = 128 - p.leading_zeros() as i32;
            let top = if bits > POW5_BITCOUNT {
                p >> (bits - POW5_BITCOUNT)
            } else {
                p << (POW5_BITCOUNT - bits)
            };
            assert_eq!(POW5_SPLIT[i], split(top), "5^{i}");
            let j = (bits - 1 + POW5_BITCOUNT) as u32;
            assert_eq!(
                POW5_INV_SPLIT[i],
                split(floor_pow2_over(j, p) + 1),
                "1 / 5^{i}"
            );
        }
    }
}
