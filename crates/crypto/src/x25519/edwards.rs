//! Fixed-base scalar multiplication: k·B for the X25519 base point, from
//! a precomputed table instead of a ladder.
//!
//! Curve25519 is birationally equivalent to the twisted Edwards curve
//! −x² + y² = 1 + d·x²·y² (d = −121665/121666) by u = (1 + y)/(1 − y),
//! under which the Montgomery base point u = 9 is the Edwards point B
//! with y = 4/5. On that curve k·B is a table walk: write the scalar in
//! 64 signed radix-16 digits, k = Σ eᵢ·16ⁱ with eᵢ ∈ [−8, 8], keep
//! j·256ⁱ·B for j = 1..=8 and i = 0..32, and
//!
//! ```text
//! k·B = 16 · Σ e₂ᵢ₊₁ · 256ⁱ·B  +  Σ e₂ᵢ · 256ⁱ·B
//! ```
//!
//! is 64 mixed additions, 4 doublings and one inversion to map back to
//! u — about 750 field multiplications where the ladder spends 2 500.
//!
//! **Constant time, as the ladder is.** The scalar is a secret (the
//! enclave's identity key, every client's ephemeral key), so a digit
//! never becomes a branch or an index: `select` reads all eight entries
//! of the digit's row and keeps one under a mask, and applies the sign
//! with a masked conditional negation.

use super::field::{mask_of, Fe};
use std::sync::OnceLock;

/// 2d = 2 · (−121665/121666).
const D2: Fe = Fe([
    1_859_910_466_990_425,
    932_731_440_258_426,
    1_072_319_116_312_658,
    1_815_898_335_770_999,
    633_789_495_995_903,
]);

/// The base point: y = 4/5, x the even root.
const BASE: Extended = Extended {
    x: Fe([
        1_738_742_601_995_546,
        1_146_398_526_822_698,
        2_070_867_633_025_821,
        562_264_141_797_630,
        587_772_402_128_613,
    ]),
    y: Fe([
        1_801_439_850_948_184,
        1_351_079_888_211_148,
        450_359_962_737_049,
        900_719_925_474_099,
        1_801_439_850_948_198,
    ]),
    z: Fe::ONE,
    t: Fe([
        1_841_354_044_333_475,
        16_398_895_984_059,
        755_974_180_946_558,
        900_171_276_175_154,
        1_821_297_809_914_039,
    ]),
};

/// Rows of the table: one per pair of scalar digits.
const ROWS: usize = 32;
/// Entries of a row: the multiples 1..=8 (the digit's magnitude).
const ROW_LEN: usize = 8;

/// A point in extended coordinates (X : Y : Z : T): x = X/Z, y = Y/Z,
/// x·y = T/Z. Every coordinate is carried (see the `field` module).
#[derive(Clone, Copy)]
struct Extended {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// What an addition or a doubling leaves, ((X : Z), (Y : T)) — four
/// products away from [`Extended`]. Coordinates are *not* carried, only
/// below the product bound.
struct Completed {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// An affine point as the mixed addition wants it: (y + x, y − x, 2d·x·y),
/// all carried.
#[derive(Debug, Clone, Copy)]
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Extended {
    const IDENTITY: Extended = Extended {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// `self + n` (7 multiplications with the conversion back).
    fn add_niels(&self, n: &Niels) -> Completed {
        let pp = self.y.add(&self.x).mul(&n.y_plus_x);
        let mm = self.y.sub(&self.x).mul(&n.y_minus_x);
        let txy2d = self.t.mul(&n.xy2d);
        let z2 = self.z.add(&self.z);
        Completed {
            x: pp.sub(&mm),
            y: pp.add(&mm),
            z: z2.add(&txy2d),
            t: z2.sub(&txy2d),
        }
    }

    /// `2·self`; reads X, Y, Z only.
    fn double(&self) -> Completed {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let zz2 = zz.add(&zz);
        let x_plus_y_sq = self.x.add(&self.y).square();
        let yy_plus_xx = yy.add(&xx);
        // Carried here: it is the subtrahend of `t` below.
        let yy_minus_xx = yy.sub(&xx).weak_reduce();
        Completed {
            x: x_plus_y_sq.sub(&yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz2.sub(&yy_minus_xx),
        }
    }
}

impl Completed {
    fn to_extended(&self) -> Extended {
        Extended {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
            t: self.x.mul(&self.y),
        }
    }
}

impl Niels {
    const IDENTITY: Niels = Niels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        xy2d: Fe::ZERO,
    };

    fn negated(&self) -> Niels {
        Niels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: Fe::ZERO.sub(&self.xy2d).weak_reduce(),
        }
    }

    fn cmov(&mut self, other: &Niels, choice: u64) {
        self.y_plus_x.cmov(&other.y_plus_x, choice);
        self.y_minus_x.cmov(&other.y_minus_x, choice);
        self.xy2d.cmov(&other.xy2d, choice);
    }
}

/// Brings `points` to affine with one shared inversion (Montgomery's
/// trick) and writes each out in Niels form.
fn normalise_into(points: &[Extended], out: &mut [Niels]) {
    let mut prefix = Vec::with_capacity(points.len());
    let mut product = Fe::ONE;
    for point in points {
        prefix.push(product);
        product = product.mul(&point.z);
    }
    let mut inverse = product.invert();
    for ((point, prefix), out) in points.iter().zip(prefix).zip(out).rev() {
        let z_inv = inverse.mul(&prefix);
        inverse = inverse.mul(&point.z);
        let (x, y) = (point.x.mul(&z_inv), point.y.mul(&z_inv));
        *out = Niels {
            y_plus_x: y.add(&x).weak_reduce(),
            y_minus_x: y.sub(&x).weak_reduce(),
            xy2d: x.mul(&y).mul(&D2),
        };
    }
}

type Table = [[Niels; ROW_LEN]; ROWS];

/// `table()[i][j]` = (j + 1) · 256ⁱ · B. Process-wide, built on first
/// use — 248 doublings, 224 mixed additions and two shared inversions,
/// under 0.2 ms cold — straight into its 30 KiB heap block.
fn table() -> &'static Table {
    static TABLE: OnceLock<Box<Table>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut row_bases = [BASE; ROWS];
        for i in 1..ROWS {
            let mut base = row_bases[i - 1];
            for _ in 0..8 {
                base = base.double().to_extended();
            }
            row_bases[i] = base;
        }
        let mut steps = [Niels::IDENTITY; ROWS];
        normalise_into(&row_bases, &mut steps);

        let mut multiples = Vec::with_capacity(ROWS * ROW_LEN);
        for (base, step) in row_bases.iter().zip(&steps) {
            let mut multiple = *base;
            multiples.push(multiple);
            for _ in 1..ROW_LEN {
                multiple = multiple.add_niels(step).to_extended();
                multiples.push(multiple);
            }
        }
        let mut table: Box<Table> = vec![[Niels::IDENTITY; ROW_LEN]; ROWS]
            .into_boxed_slice()
            .try_into()
            .expect("ROWS rows");
        normalise_into(&multiples, table.as_flattened_mut());
        table
    })
}

/// 1 iff `a == b`, without branching on either.
fn ct_eq(a: u64, b: u64) -> u64 {
    let diff = a ^ b;
    ((diff | diff.wrapping_neg()) >> 63) ^ 1
}

/// `digit · row[0]` for a digit in −8..=8: scans the whole row under
/// masks, then negates under a mask.
fn select(row: &[Niels; ROW_LEN], digit: i8) -> Niels {
    debug_assert!((-8..=8).contains(&digit));
    let digit = i64::from(digit);
    let sign = digit >> 63; // all ones iff negative
    let magnitude = ((digit ^ sign) - sign) as u64;
    // Starts from all-zero limbs and ORs in the one entry whose mask is
    // set; a zero digit matches none and gets the identity's two ones.
    let zero = ct_eq(magnitude, 0);
    let mut out = Niels {
        y_plus_x: Fe([zero, 0, 0, 0, 0]),
        y_minus_x: Fe([zero, 0, 0, 0, 0]),
        xy2d: Fe::ZERO,
    };
    for (multiple, entry) in (1u64..).zip(row) {
        let mask = mask_of(ct_eq(magnitude, multiple));
        out.y_plus_x.or_masked(&entry.y_plus_x, mask);
        out.y_minus_x.or_masked(&entry.y_minus_x, mask);
        out.xy2d.or_masked(&entry.xy2d, mask);
    }
    let negated = out.negated();
    out.cmov(&negated, (sign & 1) as u64);
    out
}

/// The 64 signed radix-16 digits of a scalar below 2^255: every digit in
/// −8..8, the last in 0..=8.
fn recode(scalar: &[u8; 32]) -> [i8; 64] {
    debug_assert!(scalar[31] <= 127);
    let mut digits = [0i8; 64];
    for (i, byte) in scalar.iter().enumerate() {
        digits[2 * i] = (byte & 15) as i8;
        digits[2 * i + 1] = (byte >> 4) as i8;
    }
    let mut carry = 0i8;
    for digit in &mut digits[..63] {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    digits[63] += carry;
    digits
}

/// The Montgomery u-coordinate of `scalar`·B, for a scalar below 2^255
/// (any clamped one): the same 32 bytes `x25519(scalar, basepoint())`
/// gives.
pub(super) fn mul_base(scalar: &[u8; 32]) -> [u8; 32] {
    let table = table();
    let digits = recode(scalar);
    let mut acc = Extended::IDENTITY;
    for i in (1..64).step_by(2) {
        acc = acc
            .add_niels(&select(&table[i / 2], digits[i]))
            .to_extended();
    }
    for _ in 0..4 {
        acc = acc.double().to_extended();
    }
    for i in (0..64).step_by(2) {
        acc = acc
            .add_niels(&select(&table[i / 2], digits[i]))
            .to_extended();
    }
    // u = (1 + y)/(1 − y) = (Z + Y)/(Z − Y). A clamped scalar is never a
    // multiple of the group order, so Z ≠ Y; were it, 0⁻¹ = 0 gives the
    // same u = 0 the ladder gives for the point at infinity.
    let (num, den) = (acc.z.add(&acc.y), acc.z.sub(&acc.y));
    num.mul(&den.invert()).to_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(n: &Niels) -> [[u8; 32]; 3] {
        [
            n.y_plus_x.to_bytes(),
            n.y_minus_x.to_bytes(),
            n.xy2d.to_bytes(),
        ]
    }

    #[test]
    fn base_point_is_on_the_curve_and_maps_to_u_9() {
        let (x, y) = (BASE.x, BASE.y);
        assert_eq!(x.mul(&y).to_bytes(), BASE.t.to_bytes());
        // −x² + y² = 1 + d·x²·y², doubled so that 2d is the only constant.
        let (xx, yy) = (x.square(), y.square());
        let lhs = yy.sub(&xx).mul_small(2);
        let rhs = Fe::ONE.mul_small(2).add(&D2.mul(&xx.mul(&yy)));
        assert_eq!(lhs.to_bytes(), rhs.to_bytes());
        // 121666 · 2d = −2 · 121665.
        assert_eq!(
            D2.mul_small(121_666).to_bytes(),
            Fe::ZERO.sub(&Fe::ONE.mul_small(2 * 121_665)).to_bytes()
        );
        let u = Fe::ONE.add(&y).mul(&Fe::ONE.sub(&y).invert());
        assert_eq!(u.to_bytes(), crate::x25519::basepoint());
    }

    #[test]
    fn masked_select_returns_what_a_plain_index_would() {
        for row in [&table()[0], &table()[17], &table()[ROWS - 1]] {
            for digit in -8i8..=8 {
                let plain = match digit {
                    0 => Niels::IDENTITY,
                    d if d > 0 => row[d as usize - 1],
                    d => row[-d as usize - 1].negated(),
                };
                assert_eq!(
                    bytes_of(&select(row, digit)),
                    bytes_of(&plain),
                    "digit {digit}"
                );
            }
        }
    }

    #[test]
    fn table_rows_are_the_multiples_of_their_base() {
        // Entry j of a row is entry 0 added to itself j more times, and
        // each row's base is 256 times the previous row's.
        let table = table();
        let as_extended = |n: &Niels| Extended::IDENTITY.add_niels(n).to_extended();
        let same = |a: &Extended, n: &Niels| {
            let b = as_extended(n);
            // Cross-multiplied, since the two differ in Z.
            a.x.mul(&b.z).to_bytes() == b.x.mul(&a.z).to_bytes()
                && a.y.mul(&b.z).to_bytes() == b.y.mul(&a.z).to_bytes()
        };
        for (i, row) in table.iter().enumerate() {
            let mut acc = as_extended(&row[0]);
            for entry in &row[1..] {
                acc = acc.add_niels(&row[0]).to_extended();
                assert!(same(&acc, entry), "row {i}");
            }
            if let Some(next) = table.get(i + 1) {
                let mut base = as_extended(&row[0]);
                for _ in 0..8 {
                    base = base.double().to_extended();
                }
                assert!(same(&base, &next[0]), "row {i} → {}", i + 1);
            }
        }
        assert!(same(&BASE, &table[0][0]));
        assert!(std::mem::size_of::<Table>() <= 32 * 1024);
    }

    #[test]
    fn recoding_carries_through_every_digit() {
        let value = |digits: &[i8; 64]| {
            // Σ eᵢ·16ⁱ as little-endian bytes (digits may be negative).
            let mut bytes = [0i32; 33];
            for (i, &d) in digits.iter().enumerate() {
                bytes[i / 2] += i32::from(d) << (4 * (i % 2));
            }
            for i in 0..32 {
                let borrow = bytes[i].div_euclid(256);
                bytes[i] = bytes[i].rem_euclid(256);
                bytes[i + 1] += borrow;
            }
            assert_eq!(bytes[32], 0);
            std::array::from_fn::<u8, 32, _>(|i| bytes[i] as u8)
        };
        for fill in [0x00u8, 0x77, 0x88, 0xff, 0x8f, 0xf8] {
            let mut scalar = [fill; 32];
            scalar[31] &= 127;
            let digits = recode(&scalar);
            assert!(digits[..63].iter().all(|d| (-8..8).contains(d)));
            assert!((0..=8).contains(&digits[63]));
            assert_eq!(value(&digits), scalar, "fill {fill:#x}");
        }
    }
}
