//! GF(2^255 − 19) in five 51-bit limbs with 128-bit intermediate
//! products — the arithmetic under both the Montgomery ladder and the
//! fixed-base Edwards table walk.
//!
//! **Limb bounds.** A *carried* element (what `from_bytes`, `mul`,
//! `square`, `mul_small` and `weak_reduce` return) has every limb below
//! 2^51 + 2^18. `add` and `sub` do no carrying of their own, so their
//! callers keep the following ledger: a sum of two carried values is
//! below 2^53; `sub` adds 4p, so its result is below its left operand +
//! 2^53; and a product (`mul`, `square`) accepts any limb **below 2^54**,
//! which is exactly a difference whose left operand was below 2^53.
//! Anything that would exceed that goes through `weak_reduce` first. The
//! product entry points and `sub` `debug_assert!` their bounds, so the
//! test suite checks the ledger on every path it drives.

const MASK_51: u64 = (1u64 << 51) - 1;

/// Exclusive limb bound for the operands of a product: the top column is
/// then below 2^111, and the carry out of it times 19 still fits a `u64`.
const PRODUCT_LIMB_BOUND: u64 = 1 << 54;

/// One 64 × 64 → 128-bit product.
#[inline(always)]
fn m(a: u64, b: u64) -> u128 {
    u128::from(a) * u128::from(b)
}

/// All ones for `choice == 1`, all zeros for 0 — handed out through an
/// optimization barrier. Without it the compiler sees that a mask takes
/// two values only and turns masked selection back into a branch on the
/// secret that chose it (it compiled the unguarded table scan to eight
/// compare-and-jumps).
#[inline(always)]
pub(super) fn mask_of(choice: u64) -> u64 {
    debug_assert!(choice <= 1);
    std::hint::black_box(choice.wrapping_neg())
}

/// Field element in GF(2^255 − 19), five 51-bit limbs, little-endian.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Fe(pub(super) [u64; 5]);

impl Fe {
    pub(super) const ZERO: Fe = Fe([0; 5]);
    pub(super) const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    pub(super) fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load8 = |b: &[u8]| -> u64 {
            u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
        };
        // RFC 7748: the top bit of the u-coordinate is masked off.
        Fe([
            load8(&bytes[0..8]) & MASK_51,
            (load8(&bytes[6..14]) >> 3) & MASK_51,
            (load8(&bytes[12..20]) >> 6) & MASK_51,
            (load8(&bytes[19..27]) >> 1) & MASK_51,
            (load8(&bytes[24..32]) >> 12) & MASK_51,
        ])
    }

    pub(super) fn to_bytes(self) -> [u8; 32] {
        // Fully reduce mod p = 2^255 - 19.
        let mut h = self.0;
        // Two carry passes bring every limb under 52 bits.
        for _ in 0..2 {
            let mut carry;
            carry = h[0] >> 51;
            h[0] &= MASK_51;
            h[1] += carry;
            carry = h[1] >> 51;
            h[1] &= MASK_51;
            h[2] += carry;
            carry = h[2] >> 51;
            h[2] &= MASK_51;
            h[3] += carry;
            carry = h[3] >> 51;
            h[3] &= MASK_51;
            h[4] += carry;
            carry = h[4] >> 51;
            h[4] &= MASK_51;
            h[0] += carry * 19;
        }
        // Compute q = floor((h + 19) / 2^255): 1 iff h >= p.
        let mut q = (h[0] + 19) >> 51;
        q = (h[1] + q) >> 51;
        q = (h[2] + q) >> 51;
        q = (h[3] + q) >> 51;
        q = (h[4] + q) >> 51;
        // h := h - q*p  ==  h + 19q, then mask to 255 bits.
        h[0] += 19 * q;
        let mut carry = h[0] >> 51;
        h[0] &= MASK_51;
        h[1] += carry;
        carry = h[1] >> 51;
        h[1] &= MASK_51;
        h[2] += carry;
        carry = h[2] >> 51;
        h[2] &= MASK_51;
        h[3] += carry;
        carry = h[3] >> 51;
        h[3] &= MASK_51;
        h[4] += carry;
        h[4] &= MASK_51;

        let mut out = [0u8; 32];
        let write = |out: &mut [u8; 32], bit_offset: usize, limb: u64| {
            // Scatter a 51-bit limb starting at the given bit offset.
            let byte = bit_offset / 8;
            let shift = bit_offset % 8;
            let v = (limb as u128) << shift;
            for i in 0..8 {
                if byte + i < 32 {
                    out[byte + i] |= (v >> (8 * i)) as u8;
                }
            }
        };
        write(&mut out, 0, h[0]);
        write(&mut out, 51, h[1]);
        write(&mut out, 102, h[2]);
        write(&mut out, 153, h[3]);
        write(&mut out, 204, h[4]);
        out
    }

    /// Limb-wise sum, not carried.
    pub(super) fn add(&self, rhs: &Fe) -> Fe {
        Fe(std::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }

    /// `self − rhs`, not carried: adds 4p so that no limb underflows.
    ///
    /// `rhs` may be anything up to a sum of two carried values (its limbs
    /// must not exceed 4p's). The result's limbs are below `self`'s plus
    /// 2^53: with `self` below 2^53 it may enter a product as it is, and
    /// must pass through [`Fe::weak_reduce`] before another `add`/`sub`.
    pub(super) fn sub(&self, rhs: &Fe) -> Fe {
        const P_TIMES_4: [u64; 5] = [
            (1 << 53) - 76, // 4 * (2^51 - 19)
            (1 << 53) - 4,  // 4 * (2^51 - 1)
            (1 << 53) - 4,
            (1 << 53) - 4,
            (1 << 53) - 4,
        ];
        debug_assert!(
            rhs.0.iter().zip(&P_TIMES_4).all(|(r, p)| r <= p),
            "subtrahend exceeds 4p: {rhs:?}"
        );
        Fe(std::array::from_fn(|i| self.0[i] + P_TIMES_4[i] - rhs.0[i]))
    }

    /// One carry pass: every limb back below 2^51 + 2^18.
    pub(super) fn weak_reduce(self) -> Fe {
        let mut h = self.0;
        let mut carry;
        carry = h[0] >> 51;
        h[0] &= MASK_51;
        h[1] += carry;
        carry = h[1] >> 51;
        h[1] &= MASK_51;
        h[2] += carry;
        carry = h[2] >> 51;
        h[2] &= MASK_51;
        h[3] += carry;
        carry = h[3] >> 51;
        h[3] &= MASK_51;
        h[4] += carry;
        carry = h[4] >> 51;
        h[4] &= MASK_51;
        h[0] += carry * 19;
        Fe(h)
    }

    fn fits_product(&self) -> bool {
        self.0.iter().all(|&limb| limb < PRODUCT_LIMB_BOUND)
    }

    pub(super) fn mul(&self, rhs: &Fe) -> Fe {
        debug_assert!(self.fits_product() && rhs.fits_product());
        let [a0, a1, a2, a3, a4] = self.0;
        let [b0, b1, b2, b3, b4] = rhs.0;
        // Below 2^54 · 19 < 2^59: folding the reduction into a `u64`
        // operand keeps every product a single widening multiply.
        let (b1_19, b2_19, b3_19, b4_19) = (b1 * 19, b2 * 19, b3 * 19, b4 * 19);

        let c0 = m(a0, b0) + m(a1, b4_19) + m(a2, b3_19) + m(a3, b2_19) + m(a4, b1_19);
        let c1 = m(a0, b1) + m(a1, b0) + m(a2, b4_19) + m(a3, b3_19) + m(a4, b2_19);
        let c2 = m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, b4_19) + m(a4, b3_19);
        let c3 = m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, b4_19);
        let c4 = m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0);

        Fe::carry_wide([c0, c1, c2, c3, c4])
    }

    /// `self²` from its 15 distinct limb products: the cross terms are
    /// doubled and the ×19 of the wrap-around folded into the high limbs.
    pub(super) fn square(&self) -> Fe {
        debug_assert!(self.fits_product());
        let [a0, a1, a2, a3, a4] = self.0;
        let (a3_19, a4_19) = (a3 * 19, a4 * 19);

        let c0 = m(a0, a0) + 2 * (m(a1, a4_19) + m(a2, a3_19));
        let c1 = m(a3, a3_19) + 2 * (m(a0, a1) + m(a2, a4_19));
        let c2 = m(a1, a1) + 2 * (m(a0, a2) + m(a4, a3_19));
        let c3 = m(a4, a4_19) + 2 * (m(a0, a3) + m(a1, a2));
        let c4 = m(a2, a2) + 2 * (m(a0, a4) + m(a1, a3));

        Fe::carry_wide([c0, c1, c2, c3, c4])
    }

    /// `self^(2^n)`, `n ≥ 1`.
    fn square_n(&self, n: u32) -> Fe {
        let mut out = self.square();
        for _ in 1..n {
            out = out.square();
        }
        out
    }

    fn carry_wide(mut c: [u128; 5]) -> Fe {
        let mut out = [0u64; 5];
        c[1] += c[0] >> 51;
        out[0] = (c[0] as u64) & MASK_51;
        c[2] += c[1] >> 51;
        out[1] = (c[1] as u64) & MASK_51;
        c[3] += c[2] >> 51;
        out[2] = (c[2] as u64) & MASK_51;
        c[4] += c[3] >> 51;
        out[3] = (c[3] as u64) & MASK_51;
        let carry = (c[4] >> 51) as u64;
        out[4] = (c[4] as u64) & MASK_51;
        out[0] += carry * 19;
        let carry = out[0] >> 51;
        out[0] &= MASK_51;
        out[1] += carry;
        Fe(out)
    }

    pub(super) fn mul_small(&self, k: u64) -> Fe {
        Fe::carry_wide(self.0.map(|l| m(l, k)))
    }

    /// Computes self^(p − 2) = self^(-1) by the usual addition chain for
    /// 2^255 − 21: 254 squarings and 11 multiplications. The exponent is
    /// public, so the chain is the same for every input.
    pub(super) fn invert(&self) -> Fe {
        let z2 = self.square();
        let z9 = self.mul(&z2.square_n(2));
        let z11 = z2.mul(&z9);
        let z_5_0 = z9.mul(&z11.square()); // 2^5 - 1
        let z_10_0 = z_5_0.square_n(5).mul(&z_5_0);
        let z_20_0 = z_10_0.square_n(10).mul(&z_10_0);
        let z_40_0 = z_20_0.square_n(20).mul(&z_20_0);
        let z_50_0 = z_40_0.square_n(10).mul(&z_10_0);
        let z_100_0 = z_50_0.square_n(50).mul(&z_50_0);
        let z_200_0 = z_100_0.square_n(100).mul(&z_100_0);
        let z_250_0 = z_200_0.square_n(50).mul(&z_50_0);
        z_250_0.square_n(5).mul(&z11) // 2^255 - 32 + 11
    }

    /// Constant-time conditional swap of two field elements.
    pub(super) fn cswap(swap: u64, a: &mut Fe, b: &mut Fe) {
        let mask = mask_of(swap);
        for i in 0..5 {
            let t = mask & (a.0[i] ^ b.0[i]);
            a.0[i] ^= t;
            b.0[i] ^= t;
        }
    }

    /// `self |= other & mask`, limb by limb: the accumulating half of a
    /// constant-time table scan (`mask` comes from [`mask_of`]).
    pub(super) fn or_masked(&mut self, other: &Fe, mask: u64) {
        for i in 0..5 {
            self.0[i] |= other.0[i] & mask;
        }
    }

    /// Constant-time conditional assignment: `self = other` iff
    /// `choice == 1`.
    pub(super) fn cmov(&mut self, other: &Fe, choice: u64) {
        let mask = mask_of(choice);
        for i in 0..5 {
            self.0[i] ^= mask & (self.0[i] ^ other.0[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The inversion this module had before the addition chain: square and
    /// multiply over the bits of p − 2, kept as the chain's oracle.
    fn invert_bitwise(x: &Fe) -> Fe {
        // p − 2 = 2^255 − 21: bits 254..=5 are ones, the low five are 01011.
        let mut result = Fe::ONE;
        for i in (0..255).rev() {
            result = result.mul(&result);
            if i >= 5 || [1u8, 1, 0, 1, 0][i] == 1 {
                result = result.mul(x);
            }
        }
        result
    }

    /// Limbs anywhere below the product bound (2^54 = 2^64 >> 10), as an
    /// unreduced difference would present them.
    fn wide(limbs: [u64; 5]) -> Fe {
        Fe(limbs.map(|limb| limb >> 10))
    }

    #[test]
    fn invert_zero_is_zero() {
        // What maps the point at infinity to u = 0 on both scalar
        // multiplication paths.
        assert_eq!(Fe::ZERO.invert().to_bytes(), [0u8; 32]);
    }

    #[test]
    fn products_take_every_limb_at_the_bound() {
        let top = Fe([PRODUCT_LIMB_BOUND - 1; 5]);
        let carried = top.weak_reduce();
        assert_eq!(top.square().to_bytes(), carried.square().to_bytes());
        assert_eq!(top.mul(&top).to_bytes(), carried.mul(&carried).to_bytes());
    }

    #[test]
    fn unreduced_difference_of_sums_stays_under_the_product_bound() {
        // The widest operands the ledger allows: a sum of two carried
        // values on each side.
        let carried = Fe([(1 << 51) + (1 << 18); 5]);
        let sum = carried.add(&carried);
        assert!(sum.sub(&sum).fits_product());
        assert_eq!(sum.sub(&sum).to_bytes(), [0u8; 32]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn square_is_mul_by_self_on_unreduced_limbs(limbs: [u64; 5]) {
            let x = wide(limbs);
            prop_assert_eq!(x.square().to_bytes(), x.mul(&x).to_bytes());
        }

        #[test]
        fn mul_ignores_how_its_operands_are_carried(a: [u64; 5], b: [u64; 5]) {
            let (a, b) = (wide(a), wide(b));
            prop_assert_eq!(
                a.mul(&b).to_bytes(),
                a.weak_reduce().mul(&b.weak_reduce()).to_bytes()
            );
        }

        #[test]
        fn invert_chain_is_the_bitwise_exponentiation(bytes: [u8; 32]) {
            let x = Fe::from_bytes(&bytes);
            prop_assert_eq!(x.invert().to_bytes(), invert_bitwise(&x).to_bytes());
        }

        #[test]
        fn cmov_assigns_only_when_chosen(a_bytes: [u8; 32], b_bytes: [u8; 32]) {
            let (a, b) = (Fe::from_bytes(&a_bytes), Fe::from_bytes(&b_bytes));
            let mut kept = a;
            kept.cmov(&b, 0);
            prop_assert_eq!(kept, a);
            let mut taken = a;
            taken.cmov(&b, 1);
            prop_assert_eq!(taken, b);
        }
    }
}
