//! The Poly1305 one-time authenticator (RFC 8439), using 44-bit limbs
//! with 128-bit intermediate products (the portable "donna-64"
//! formulation: 9 multiplies per 16-byte block instead of the 25 the
//! 26-bit-limb variant needs).
//!
//! The bulk path additionally batches four blocks per modular step via
//! the Horner identity over precomputed `r²`/`r³`/`r⁴` (see
//! [`Poly1305::update`]), so the serial multiply→carry dependency chain
//! — the authenticator's latency bound — is paid once per 64 bytes.

/// Key size in bytes (r ‖ s).
pub const KEY_LEN: usize = 32;
/// Tag size in bytes.
pub const TAG_LEN: usize = 16;

/// Blocks per batched Horner step in the bulk path.
const BATCH: usize = 4;

/// 44-bit limb mask (limbs 0 and 1).
const MASK44: u64 = 0xfff_ffff_ffff;
/// 42-bit limb mask (limb 2; 44 + 44 + 42 = 130).
const MASK42: u64 = 0x3ff_ffff_ffff;

/// Incremental Poly1305 MAC.
///
/// A Poly1305 key must never authenticate two different messages; the AEAD
/// construction derives a fresh key per nonce.
///
/// # Example
///
/// ```
/// use xsearch_crypto::poly1305::Poly1305;
///
/// let key = [0x42u8; 32];
/// let tag = Poly1305::mac(&key, b"one-time message");
/// assert_eq!(tag.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Poly1305 {
    r: [u64; 3],
    s: [u64; 2],
    h: [u64; 3],
    /// Cached `[r², r³, r⁴]` for the batched bulk path, computed once
    /// on the first long-enough `update` (`None` until then, so short
    /// messages never pay the squarings).
    powers: Option<[[u64; 3]; 3]>,
    buf: [u8; 16],
    buf_len: usize,
}

impl Poly1305 {
    /// Creates a MAC context from a 32-byte one-time key.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        // Clamp r per the RFC, then split into three 44/44/42-bit limbs.
        let mut clamped = [0u8; 16];
        clamped.copy_from_slice(&key[..16]);
        for i in [3, 7, 11, 15] {
            clamped[i] &= 0x0f;
        }
        for i in [4, 8, 12] {
            clamped[i] &= 0xfc;
        }
        let t0 = u64::from_le_bytes(clamped[0..8].try_into().expect("8 bytes"));
        let t1 = u64::from_le_bytes(clamped[8..16].try_into().expect("8 bytes"));
        let r = [
            t0 & MASK44,
            ((t0 >> 44) | (t1 << 20)) & MASK44,
            (t1 >> 24) & MASK42,
        ];
        let s = [
            u64::from_le_bytes(key[16..24].try_into().expect("8 bytes")),
            u64::from_le_bytes(key[24..32].try_into().expect("8 bytes")),
        ];
        Poly1305 {
            r,
            s,
            h: [0; 3],
            powers: None,
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// One-shot MAC of `message` under `key`.
    #[must_use]
    pub fn mac(key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Poly1305::new(key);
        p.update(message);
        p.finalize()
    }

    /// Absorbs message bytes.
    ///
    /// Full blocks are processed by a bulk inner loop that keeps the
    /// accumulator limbs in locals across blocks instead of
    /// round-tripping them through `self` per 16 bytes (see
    /// `Poly1305::process_blocks`).
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.process_block(&block, HIBIT);
                self.buf_len = 0;
            }
        }
        let full = data.len() - data.len() % 16;
        if full > 0 {
            self.process_blocks(&data[..full]);
            data = &data[full..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Bulk path: absorbs a whole run of full blocks with `h` and the
    /// `r`-power limbs held in locals for the entire run.
    ///
    /// Runs of at least `2·BATCH` blocks additionally use the Horner
    /// batching identity
    /// `h' = (h + b₀)·r⁴ + b₁·r³ + b₂·r² + b₃·r  (mod 2^130 - 5)`:
    /// the four multiplies carry no data dependencies between each
    /// other, so the serial multiply→carry chain is paid once per 64
    /// bytes instead of once per 16. The `u128` product accumulators
    /// have ample headroom for the 4-way sum (4 · 3 · 2⁴⁵ · 2⁴⁶ < 2⁹⁵),
    /// so one carry propagation at the end of each batch keeps the
    /// limbs within the lazy-reduction invariants.
    fn process_blocks(&mut self, data: &[u8]) {
        debug_assert!(data.len().is_multiple_of(16));
        let r = self.r;
        let mut h = self.h;
        let mut data = data;
        if data.len() >= 2 * BATCH * 16 {
            // One-time per MAC instance: r², r³, r⁴ (short messages
            // never reach this arm, so they never pay the squarings).
            let [r2, r3, r4] = *self.powers.get_or_insert_with(|| {
                let r2 = carry(mul_d(&r, &r));
                let r3 = carry(mul_d(&r2, &r));
                let r4 = carry(mul_d(&r3, &r));
                [r2, r3, r4]
            });
            let mut batches = data.chunks_exact(BATCH * 16);
            for batch in batches.by_ref() {
                let b0: &[u8; 16] = batch[0..16].try_into().expect("16-byte chunk");
                let b1: &[u8; 16] = batch[16..32].try_into().expect("16-byte chunk");
                let b2: &[u8; 16] = batch[32..48].try_into().expect("16-byte chunk");
                let b3: &[u8; 16] = batch[48..64].try_into().expect("16-byte chunk");
                let d0 = mul_d(&add3(h, load(b0, HIBIT)), &r4);
                let d1 = mul_d(&load(b1, HIBIT), &r3);
                let d2 = mul_d(&load(b2, HIBIT), &r2);
                let d3 = mul_d(&load(b3, HIBIT), &r);
                let d = [
                    d0[0] + d1[0] + d2[0] + d3[0],
                    d0[1] + d1[1] + d2[1] + d3[1],
                    d0[2] + d1[2] + d2[2] + d3[2],
                ];
                h = carry(d);
            }
            data = batches.remainder();
        }
        for block in data.chunks_exact(16) {
            let b: &[u8; 16] = block.try_into().expect("16-byte chunk");
            h = accumulate(h, b, HIBIT, &r);
        }
        self.h = h;
    }

    /// Processes one 16-byte block. `hibit` is [`HIBIT`] for full blocks
    /// (the appended 0x01 byte at position 16) and is folded into the
    /// limbs directly for the padded final block.
    fn process_block(&mut self, block: &[u8; 16], hibit: u64) {
        self.h = accumulate(self.h, block, hibit, &self.r);
    }

    /// Completes the MAC and returns the 16-byte tag.
    #[must_use]
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            // Pad the final partial block: append 0x01 then zeros; the high
            // bit for this block is 0.
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.process_block(&block, 0);
        }

        let [mut h0, mut h1, mut h2] = self.h;

        // Full carry propagation.
        let mut c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;

        // Compute h + -p = h - (2^130 - 5) and select it if non-negative.
        let mut g0 = h0.wrapping_add(5);
        c = g0 >> 44;
        g0 &= MASK44;
        let mut g1 = h1.wrapping_add(c);
        c = g1 >> 44;
        g1 &= MASK44;
        let g2 = h2.wrapping_add(c).wrapping_sub(1 << 42);

        // Select h if h < p, else g (constant time via mask).
        let mask = (g2 >> 63).wrapping_sub(1); // all-ones if g2 did not underflow
        g0 &= mask;
        g1 &= mask;
        let g2 = g2 & mask;
        let not_mask = !mask;
        h0 = (h0 & not_mask) | g0;
        h1 = (h1 & not_mask) | g1;
        h2 = (h2 & not_mask) | g2;

        // Serialize h to 128 bits.
        let f0 = h0 | (h1 << 44);
        let f1 = (h1 >> 20) | (h2 << 24);

        // tag = (h + s) mod 2^128
        let (t0, carry_bit) = f0.overflowing_add(self.s[0]);
        let t1 = f1
            .wrapping_add(self.s[1])
            .wrapping_add(u64::from(carry_bit));

        let mut tag = [0u8; TAG_LEN];
        tag[0..8].copy_from_slice(&t0.to_le_bytes());
        tag[8..16].copy_from_slice(&t1.to_le_bytes());
        tag
    }
}

/// The appended high bit of a full 16-byte block: bit 128, which is
/// bit 40 of the third 44/44/42 limb.
const HIBIT: u64 = 1 << 40;

/// Splits one 16-byte block into three 44/44/42-bit limbs, with
/// `hibit` ([`HIBIT`] for full blocks, `0` for the padded final block)
/// folded into the top limb.
#[inline(always)]
fn load(block: &[u8; 16], hibit: u64) -> [u64; 3] {
    let t0 = u64::from_le_bytes(block[0..8].try_into().expect("8 bytes"));
    let t1 = u64::from_le_bytes(block[8..16].try_into().expect("8 bytes"));
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        ((t1 >> 24) & MASK42) | hibit,
    ]
}

/// Limb-wise addition (no carries: both inputs are within the lazy
/// limb invariants, so the sums stay below 2⁴⁶).
#[inline(always)]
fn add3(a: [u64; 3], b: [u64; 3]) -> [u64; 3] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

/// Schoolbook multiply `a · r mod 2^130 - 5` into uncarried `u128`
/// product accumulators. The limbs of `r` that overflow 2^130 reduce
/// via `2^132 ≡ 20 (mod 2^130 - 5)`, hence the `20·r` terms.
#[inline(always)]
fn mul_d(a: &[u64; 3], r: &[u64; 3]) -> [u128; 3] {
    let [a0, a1, a2] = *a;
    let [r0, r1, r2] = *r;
    let s1 = r1 * 20;
    let s2 = r2 * 20;
    [
        u128::from(a0) * u128::from(r0)
            + u128::from(a1) * u128::from(s2)
            + u128::from(a2) * u128::from(s1),
        u128::from(a0) * u128::from(r1)
            + u128::from(a1) * u128::from(r0)
            + u128::from(a2) * u128::from(s2),
        u128::from(a0) * u128::from(r2)
            + u128::from(a1) * u128::from(r1)
            + u128::from(a2) * u128::from(r0),
    ]
}

/// Carry propagation: reduces `u128` product accumulators back to the
/// lazy 44/44/42-limb form (top carry folded in via `· 5`).
#[inline(always)]
fn carry(d: [u128; 3]) -> [u64; 3] {
    let mut c = (d[0] >> 44) as u64;
    let mut h0 = (d[0] as u64) & MASK44;
    let d1 = d[1] + u128::from(c);
    c = (d1 >> 44) as u64;
    let h1 = (d1 as u64) & MASK44;
    let d2 = d[2] + u128::from(c);
    c = (d2 >> 42) as u64;
    let h2 = (d2 as u64) & MASK42;
    h0 += c * 5;
    let c = h0 >> 44;
    h0 &= MASK44;
    [h0, h1 + c, h2]
}

/// One Poly1305 step: `h = (h + block) * r mod 2^130 - 5`. Pure over
/// its inputs so the bulk path can keep the accumulator in locals.
#[inline(always)]
fn accumulate(h: [u64; 3], block: &[u8; 16], hibit: u64, r: &[u64; 3]) -> [u64; 3] {
    carry(mul_d(&add3(h, load(block, hibit)), r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    #[test]
    fn rfc8439_tag_vector() {
        // RFC 8439 §2.5.2.
        let key: [u8; 32] =
            hex::decode_expect("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        let tag = Poly1305::mac(&key, b"Cryptographic Forum Research Group");
        assert_eq!(hex::encode(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    #[test]
    fn zero_key_gives_zero_tag() {
        // With r = s = 0 the polynomial evaluates to 0 and the tag is 0.
        let tag = Poly1305::mac(&[0u8; 32], b"anything at all");
        assert_eq!(tag, [0u8; 16]);
    }

    #[test]
    fn empty_message() {
        // h stays 0; tag = s.
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&[0xabu8; 16]);
        assert_eq!(Poly1305::mac(&key, b""), [0xabu8; 16]);
    }

    #[test]
    fn exact_block_boundary() {
        let key = [7u8; 32];
        let one = Poly1305::mac(&key, &[0x55u8; 16]);
        let two = Poly1305::mac(&key, &[0x55u8; 32]);
        assert_ne!(one, two);
    }

    #[test]
    fn byte_at_a_time_matches_one_shot_at_every_length() {
        // Sweeps lengths across the batch (64 B) and batch-threshold
        // (128 B) boundaries: the buffered path, the serial tail and the
        // batched bulk path must agree for every split of the input.
        let key = [0x5au8; 32];
        let data: Vec<u8> = (0..300u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in 0..=data.len() {
            let mut incremental = Poly1305::new(&key);
            for byte in &data[..len] {
                incremental.update(std::slice::from_ref(byte));
            }
            assert_eq!(
                incremental.finalize(),
                Poly1305::mac(&key, &data[..len]),
                "length {len}"
            );
        }
    }

    proptest! {
        #[test]
        fn incremental_equals_one_shot(key: [u8; 32], a: Vec<u8>, b: Vec<u8>) {
            let mut p = Poly1305::new(&key);
            p.update(&a);
            p.update(&b);
            let mut joined = a.clone();
            joined.extend_from_slice(&b);
            prop_assert_eq!(p.finalize(), Poly1305::mac(&key, &joined));
        }

        #[test]
        fn messages_of_different_length_differ(key: [u8; 32], msg: Vec<u8>) {
            // Appending the 0x01-distinguisher means a message and the same
            // message plus one zero byte must authenticate differently for a
            // non-degenerate key.
            prop_assume!(key[..16].iter().any(|&b| b != 0));
            let mut longer = msg.clone();
            longer.push(0);
            prop_assert_ne!(Poly1305::mac(&key, &msg), Poly1305::mac(&key, &longer));
        }
    }
}
